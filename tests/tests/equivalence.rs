//! Cross-engine, cross-tuning equivalence: the strongest correctness lever
//! in the suite. All four engines and the generator oracle must agree on
//! every query, under every tuning configuration — indexes may change plans,
//! never answers.

use bitempo_core::{Period, SysTime};
use bitempo_dbgen::ScaleConfig;
use bitempo_engine::api::{AppSpec, SysSpec, TuningConfig};
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_histgen::{loader, HistoryConfig};
use bitempo_workloads::{rows_approx_diff, sort_canonical, Ctx, QueryParams};

struct Setup {
    engines: Vec<(SystemKind, Box<dyn BitemporalEngine>)>,
    db: bitempo_histgen::GenDb,
    params: QueryParams,
}

fn build() -> Setup {
    let data = bitempo_dbgen::generate(&ScaleConfig::with_h(0.002));
    let (history, db) =
        bitempo_histgen::generate_history_with_state(&data, &HistoryConfig::with_m(0.001));
    let mut engines = Vec::new();
    for kind in SystemKind::ALL {
        let mut engine = build_engine(kind);
        let ids = loader::load_initial(engine.as_mut(), &data).unwrap();
        loader::replay(engine.as_mut(), &ids, &history.archive, 1).unwrap();
        engine.checkpoint();
        engines.push((kind, engine));
    }
    let params = QueryParams::derive(engines[0].1.as_ref()).unwrap();
    Setup {
        engines,
        db,
        params,
    }
}

#[test]
fn scan_grid_matches_oracle_on_all_engines() {
    let setup = build();
    let p = &setup.params;
    let sys_specs = [
        SysSpec::Current,
        SysSpec::AsOf(p.sys_initial),
        SysSpec::AsOf(p.sys_mid),
        SysSpec::AsOf(p.sys_now),
        SysSpec::Range(Period::new(p.sys_initial, p.sys_mid)),
        SysSpec::Range(Period::new(p.sys_mid, SysTime::MAX)),
        SysSpec::All,
    ];
    let app_specs = [
        AppSpec::All,
        AppSpec::AsOf(p.app_mid),
        AppSpec::AsOf(p.app_late),
        AppSpec::Range(Period::new(p.app_mid, p.app_late)),
    ];
    for table in bitempo_dbgen::TPCH_TABLES {
        let idx = setup.db.table_index(table).unwrap();
        for sys in &sys_specs {
            for app in &app_specs {
                let mut want = setup.db.scan(idx, sys, app);
                sort_canonical(&mut want);
                for (kind, engine) in &setup.engines {
                    let id = engine.resolve(table).unwrap();
                    let mut got = engine.scan(id, sys, app, &[]).unwrap().rows;
                    sort_canonical(&mut got);
                    assert_eq!(got, want, "{kind} table {table} sys {sys:?} app {app:?}");
                }
            }
        }
    }
}

#[test]
fn tuning_never_changes_answers() {
    let mut setup = build();
    let p = setup.params.clone();
    let tunings: Vec<(&str, TuningConfig)> = vec![
        ("none", TuningConfig::none()),
        ("time", TuningConfig::time()),
        ("key_time", TuningConfig::key_time()),
        (
            "gist",
            TuningConfig {
                time_index: true,
                key_time_index: true,
                gist: true,
                ..Default::default()
            },
        ),
        (
            "value",
            TuningConfig {
                value_index: vec![
                    ("customer".into(), "c_acctbal".into()),
                    ("orders".into(), "o_totalprice".into()),
                ],
                ..Default::default()
            },
        ),
    ];

    // Reference answers under no tuning.
    let mut reference: Vec<Vec<bitempo_core::Row>> = Vec::new();
    {
        let engine = setup.engines[0].1.as_ref();
        let ctx = Ctx::new(engine).unwrap();
        reference.push(sorted(bitempo_workloads::tt::t1(
            &ctx,
            SysSpec::AsOf(p.sys_mid),
            AppSpec::AsOf(p.app_mid),
        )));
        reference.push(sorted(bitempo_workloads::key::k1(
            &ctx,
            &p.hot_customer,
            SysSpec::All,
            AppSpec::All,
        )));
        reference.push(sorted(bitempo_workloads::key::k6(
            &ctx,
            p.acctbal_band.0,
            p.acctbal_band.1,
            SysSpec::All,
            AppSpec::All,
        )));
        reference.push(sorted(bitempo_workloads::tpch::run_query(
            &ctx,
            6,
            &bitempo_workloads::tpch::Tt::app(p.app_mid),
        )));
        reference.push(sorted(bitempo_workloads::bitemporal::b3_variant(
            &ctx,
            5,
            55,
            p.app_mid,
            p.sys_initial,
        )));
    }

    for (label, tuning) in tunings {
        for (_, engine) in &mut setup.engines {
            engine.apply_tuning(&tuning).unwrap();
        }
        for (kind, engine) in &setup.engines {
            let ctx = Ctx::new(engine.as_ref()).unwrap();
            let got = [
                sorted(bitempo_workloads::tt::t1(
                    &ctx,
                    SysSpec::AsOf(p.sys_mid),
                    AppSpec::AsOf(p.app_mid),
                )),
                sorted(bitempo_workloads::key::k1(
                    &ctx,
                    &p.hot_customer,
                    SysSpec::All,
                    AppSpec::All,
                )),
                sorted(bitempo_workloads::key::k6(
                    &ctx,
                    p.acctbal_band.0,
                    p.acctbal_band.1,
                    SysSpec::All,
                    AppSpec::All,
                )),
                sorted(bitempo_workloads::tpch::run_query(
                    &ctx,
                    6,
                    &bitempo_workloads::tpch::Tt::app(p.app_mid),
                )),
                sorted(bitempo_workloads::bitemporal::b3_variant(
                    &ctx,
                    5,
                    55,
                    p.app_mid,
                    p.sys_initial,
                )),
            ];
            for (i, (g, w)) in got.iter().zip(&reference).enumerate() {
                if let Some(diff) = rows_approx_diff(g, w, 1e-9) {
                    panic!("{kind} under tuning '{label}', query {i}: {diff}");
                }
            }
        }
    }
}

fn sorted(rows: bitempo_core::Result<Vec<bitempo_core::Row>>) -> Vec<bitempo_core::Row> {
    let mut rows = rows.unwrap();
    sort_canonical(&mut rows);
    rows
}

/// Morsel-parallel scans must be *byte-identical* to sequential execution:
/// same rows in the same order, same access paths, same work counters. Runs
/// every engine through representative T (time travel), K (key/audit), and
/// R (range-timeslice) queries plus raw multi-spec scans, at `workers = 1`
/// and `workers = 4`, and compares entire outputs without sorting.
#[test]
fn parallel_scan_output_identical_to_sequential() {
    let mut setup = build();
    let p = setup.params.clone();

    #[allow(clippy::type_complexity)]
    let collect = |engine: &dyn BitemporalEngine| -> (
        Vec<bitempo_engine::api::ScanOutput>,
        Vec<Vec<bitempo_core::Row>>,
    ) {
        let ctx = Ctx::new(engine).unwrap();
        // Raw scans: full ScanOutput (rows + paths + metrics) under specs
        // that exercise current-only, point, range, and full-history access.
        let scans = [
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
        .collect();
        // Workload queries across the T, K, and R groups.
        let queries = vec![
            bitempo_workloads::tt::t1(&ctx, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_mid))
                .unwrap(),
            bitempo_workloads::tt::t4(&ctx, SysSpec::AsOf(p.sys_mid)).unwrap(),
            bitempo_workloads::tt::t5_all(&ctx).unwrap(),
            bitempo_workloads::key::k1(&ctx, &p.hot_customer, SysSpec::All, AppSpec::All).unwrap(),
            bitempo_workloads::key::k6(
                &ctx,
                p.acctbal_band.0,
                p.acctbal_band.1,
                SysSpec::All,
                AppSpec::All,
            )
            .unwrap(),
            bitempo_workloads::range::r1(&ctx).unwrap(),
            bitempo_workloads::range::r2(&ctx, engine.now()).unwrap(),
        ];
        (scans, queries)
    };

    for i in 0..setup.engines.len() {
        let kind = setup.engines[i].0;
        setup.engines[i]
            .1
            .apply_tuning(&TuningConfig::none().with_workers(1))
            .unwrap();
        let (seq_scans, seq_queries) = collect(setup.engines[i].1.as_ref());
        setup.engines[i]
            .1
            .apply_tuning(&TuningConfig::none().with_workers(4))
            .unwrap();
        let (par_scans, par_queries) = collect(setup.engines[i].1.as_ref());

        for (j, (s, q)) in seq_scans.iter().zip(&par_scans).enumerate() {
            assert_eq!(s.rows, q.rows, "{kind} scan {j}: row order must match");
            assert_eq!(s.access, q.access, "{kind} scan {j}");
            assert_eq!(s.partition_paths, q.partition_paths, "{kind} scan {j}");
            assert_eq!(s.metrics, q.metrics, "{kind} scan {j}: counters must match");
        }
        assert_eq!(seq_queries, par_queries, "{kind}: T/K/R queries must match");
    }
}

#[test]
fn bulk_loaded_system_d_matches_replayed_engines() {
    let setup = build();
    let mut bulk = build_engine(SystemKind::D);
    loader::bulk_load(bulk.as_mut(), &setup.db).unwrap();
    let p = &setup.params;
    for table in bitempo_dbgen::TPCH_TABLES {
        let idx = setup.db.table_index(table).unwrap();
        for sys in [SysSpec::Current, SysSpec::AsOf(p.sys_mid), SysSpec::All] {
            let mut want = setup.db.scan(idx, &sys, &AppSpec::All);
            sort_canonical(&mut want);
            let id = bulk.resolve(table).unwrap();
            let mut got = bulk.scan(id, &sys, &AppSpec::All, &[]).unwrap().rows;
            sort_canonical(&mut got);
            assert_eq!(got, want, "bulk D, table {table}, {sys:?}");
        }
    }
}
