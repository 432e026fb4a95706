//! Tracing must be *inert*: enabling it may record, but must never change
//! answers, plans, or work counters — on any engine, at any worker count.
//! These tests compare entire `ScanOutput`s (rows in order, access paths,
//! metrics) with tracing off vs on, then check what the traces actually
//! contain and that the chrome-trace export is well formed.

use bitempo_core::obs;
use bitempo_core::Period;
use bitempo_dbgen::ScaleConfig;
use bitempo_engine::api::{AppSpec, ScanOutput, SysSpec, TuningConfig};
use bitempo_engine::{build_engine, BitemporalEngine, ScanMetrics, SystemKind};
use bitempo_histgen::{loader, HistoryConfig};
use bitempo_workloads::{Ctx, QueryParams};

struct Setup {
    engines: Vec<(SystemKind, Box<dyn BitemporalEngine>)>,
    params: QueryParams,
}

fn build() -> Setup {
    let data = bitempo_dbgen::generate(&ScaleConfig::with_h(0.002));
    let history = bitempo_histgen::generate_history(&data, &HistoryConfig::with_m(0.001));
    let mut engines = Vec::new();
    for kind in SystemKind::ALL {
        let mut engine = build_engine(kind);
        let ids = loader::load_initial(engine.as_mut(), &data).unwrap();
        loader::replay(engine.as_mut(), &ids, &history.archive, 1).unwrap();
        engine.checkpoint();
        engines.push((kind, engine));
    }
    let params = QueryParams::derive(engines[0].1.as_ref()).unwrap();
    Setup { engines, params }
}

fn collect(engine: &dyn BitemporalEngine, p: &QueryParams) -> Vec<ScanOutput> {
    let ctx = Ctx::new(engine).unwrap();
    [
        (SysSpec::Current, AppSpec::All),
        (SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_mid)),
        (
            SysSpec::Range(Period::new(p.sys_initial, p.sys_mid)),
            AppSpec::All,
        ),
        (SysSpec::All, AppSpec::All),
    ]
    .iter()
    .map(|(sys, app)| ctx.scan_output(ctx.t.orders, sys, app, &[]).unwrap())
    .collect()
}

/// The core inertness contract: with tracing enabled, every engine at every
/// worker count produces byte-identical rows, access paths, and work
/// counters — and the recorded scan traces account for exactly the work the
/// `ScanMetrics` report.
#[test]
fn tracing_is_inert_on_every_engine_and_worker_count() {
    let mut setup = build();
    let p = setup.params.clone();
    for i in 0..setup.engines.len() {
        let kind = setup.engines[i].0;
        for workers in [1usize, 4] {
            setup.engines[i]
                .1
                .apply_tuning(&TuningConfig::none().with_workers(workers))
                .unwrap();
            let engine = setup.engines[i].1.as_ref();

            assert!(!obs::is_enabled(), "tracing must default to off");
            let plain = collect(engine, &p);

            obs::enable();
            let traced = collect(engine, &p);
            let log = obs::disable();

            for (j, (a, b)) in plain.iter().zip(&traced).enumerate() {
                assert_eq!(a.rows, b.rows, "{kind} w{workers} scan {j}: rows");
                assert_eq!(a.access, b.access, "{kind} w{workers} scan {j}: access");
                assert_eq!(
                    a.partition_paths, b.partition_paths,
                    "{kind} w{workers} scan {j}: partition paths"
                );
                assert_eq!(a.metrics, b.metrics, "{kind} w{workers} scan {j}: metrics");
            }

            // The traced pass recorded one ScanTrace per physical partition
            // scanned, labelled with this engine, and the per-partition
            // deltas sum back to exactly the ScanMetrics totals.
            assert!(!log.scans.is_empty(), "{kind} w{workers}: no scan traces");
            assert!(
                log.scans.iter().all(|t| t.engine == kind.to_string()),
                "{kind} w{workers}: wrong engine label in {:?}",
                log.scans
            );
            let total_partitions: usize = traced.iter().map(|o| o.partition_paths.len()).sum();
            assert_eq!(log.scans.len(), total_partitions, "{kind} w{workers}");
            let emitted: u64 = log.scans.iter().map(|t| t.rows_emitted).sum();
            let rows: usize = traced.iter().map(|o| o.rows.len()).sum();
            assert_eq!(emitted, rows as u64, "{kind} w{workers}: emitted rows");
            let mut traced_work = ScanMetrics::default();
            for t in &log.scans {
                traced_work.merge(&t.metrics);
            }
            let mut scanned_work = ScanMetrics::default();
            for o in &traced {
                scanned_work.merge(&o.metrics);
            }
            assert_eq!(
                traced_work, scanned_work,
                "{kind} w{workers}: every counter of the traces sums to the scans' metrics"
            );
        }
    }
}

/// Traces aggregate in the coordinator, so the recorded log has the same
/// shape whether morsels ran on one worker or four.
#[test]
fn traces_are_identical_across_worker_counts() {
    let mut setup = build();
    let p = setup.params.clone();
    for i in 0..setup.engines.len() {
        let kind = setup.engines[i].0;
        let mut per_worker = Vec::new();
        for workers in [1usize, 4] {
            setup.engines[i]
                .1
                .apply_tuning(&TuningConfig::none().with_workers(workers))
                .unwrap();
            obs::enable();
            let _ = collect(setup.engines[i].1.as_ref(), &p);
            per_worker.push(obs::disable());
        }
        let (one, four) = (&per_worker[0], &per_worker[1]);
        assert_eq!(one.scans.len(), four.scans.len(), "{kind}");
        for (a, b) in one.scans.iter().zip(&four.scans) {
            // Everything except timings and the worker count must agree.
            assert_eq!(a.table, b.table, "{kind}");
            assert_eq!(a.partition, b.partition, "{kind}");
            assert_eq!(a.access, b.access, "{kind}");
            assert_eq!(a.rows_emitted, b.rows_emitted, "{kind}");
            assert_eq!(
                a.metrics, b.metrics,
                "{kind}: every counter, the morsel count included, is deterministic"
            );
        }
    }
}

/// Engine and query operator spans show up in the log with their
/// categories, and the chrome-trace export is structurally sound JSON that
/// Perfetto will load.
#[test]
fn spans_cover_engine_and_query_layers() {
    use bitempo_core::{Column, DataType, Row, Schema, TableDef, TemporalClass, Value};
    use bitempo_query::expr::{col, lit};
    use bitempo_query::SortKey;
    let mut engine = build_engine(SystemKind::A);
    let def = TableDef::new(
        "items",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("price", DataType::Double),
        ]),
        vec![0],
        TemporalClass::Degenerate,
        None,
    )
    .unwrap();
    let t = engine.create_table(def).unwrap();
    for (id, price) in [(1, 10.0), (2, 20.0), (3, 30.0)] {
        engine
            .insert(
                t,
                Row::new(vec![Value::Int(id), Value::Double(price)]),
                None,
            )
            .unwrap();
    }
    engine.commit();

    obs::enable();
    let scanned = engine
        .scan(t, &SysSpec::Current, &AppSpec::All, &[])
        .unwrap()
        .rows;
    let mut rows = bitempo_query::filter(&scanned, &col(1).ge(lit(15.0))).unwrap();
    bitempo_query::sort_by(&mut rows, &[SortKey::asc(0)]);
    let log = obs::disable();
    assert_eq!(rows.len(), 2);

    let cats: Vec<&str> = log.spans.iter().map(|s| s.cat).collect();
    assert!(cats.contains(&"engine"), "no engine span in {cats:?}");
    assert!(cats.contains(&"query"), "no query span in {cats:?}");
    assert!(
        log.spans
            .iter()
            .any(|s| s.cat == "query" && s.name == "filter"),
        "missing filter span: {:?}",
        log.spans
    );
    assert!(!log.scans.is_empty(), "the scan must trace its partition");

    let json = log.to_chrome_trace();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("}"));
    assert!(json.contains("\"cat\":\"engine\""));
    assert!(json.contains("\"cat\":\"query\""));
    assert!(json.contains("\"cat\":\"scan\""));
    // Every event is a complete event with µs timestamps.
    assert!(json.contains("\"ph\":\"X\""));
}
