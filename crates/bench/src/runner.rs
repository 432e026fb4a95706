//! Instance building and latency measurement.

use crate::report::{AccessRow, FaultSummary, Series};
use bitempo_core::fault::panic_message;
use bitempo_core::obs::{self, TraceLog};
use bitempo_core::{Error, Result, Row, TableDef, TemporalClass};
use bitempo_dbgen::{ScaleConfig, TpchData};
use bitempo_engine::api::{AppSpec, SysSpec, TuningConfig};
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_histgen::loader::{self, LoadReport};
use bitempo_histgen::{Archive, GenDb, History, HistoryConfig};
use bitempo_workloads::QueryParams;
use std::time::Instant;

/// Benchmark configuration: scaling plus measurement discipline.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// TPC-H scale factor `h` (1.0 ≈ 1 GB).
    pub h: f64,
    /// History scale `m` (1.0 = one million scenarios).
    pub m: f64,
    /// Measurement repetitions (paper: 10).
    pub repetitions: usize,
    /// Warm-up repetitions discarded (paper: 3).
    pub discard: usize,
    /// Scenarios per loader transaction (Fig 13 varies this).
    pub batch_size: usize,
    /// Worker threads for morsel-parallel sequential scans. Forwarded into
    /// every engine's [`TuningConfig`] by [`Instance::build`]; `1` is the
    /// single-threaded execution the paper measured.
    pub workers: usize,
    /// Per-query wall-clock budget in milliseconds, checked cooperatively
    /// after each repetition (queries run inline on the measuring thread
    /// and are never preempted mid-flight). A repetition that overruns aborts the cell
    /// with [`Error::QueryTimeout`]. `0` is the deterministic fault hook:
    /// every query exceeds a zero budget, so the first repetition times out.
    pub query_timeout_millis: u64,
    /// Collect access-path traces and operator spans for the *kept*
    /// repetitions ([`measure_traced`]): the bench reports render a
    /// per-cell access-path breakdown from them. Tracing is thread-local
    /// and off outside the traced repetitions; disabling it makes
    /// [`measure_traced`] behave exactly like [`measure`].
    pub trace: bool,
}

impl BenchConfig {
    /// The default laptop-scale configuration used by the experiment
    /// binary: the paper's 1.0/1.0 setting scaled down by 1000×, preserving
    /// the h : m ratio (one update scenario per ~1.5 initial orders).
    pub fn default_scale() -> BenchConfig {
        BenchConfig {
            h: 0.002,
            m: 0.002,
            repetitions: 7,
            discard: 2,
            batch_size: 1,
            workers: bitempo_engine::api::default_workers(),
            query_timeout_millis: DEFAULT_QUERY_TIMEOUT_MILLIS,
            trace: true,
        }
    }

    /// A smaller configuration for the expensive R/B experiments — the
    /// paper did the same ("we measured this experiment on a smaller data
    /// set", §5.6).
    pub fn small_scale() -> BenchConfig {
        BenchConfig {
            h: 0.001,
            m: 0.001,
            repetitions: 5,
            discard: 1,
            ..BenchConfig::default_scale()
        }
    }

    /// Scales `h`/`m` while keeping the measurement discipline.
    #[must_use]
    pub fn with_scale(mut self, h: f64, m: f64) -> BenchConfig {
        self.h = h;
        self.m = m;
        self
    }

    /// This configuration with the given scan parallelism (`0` clamps to 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> BenchConfig {
        self.workers = workers.max(1);
        self
    }

    /// This configuration with the given per-query wall-clock budget
    /// (`0` forces every query to time out — the fault-injection hook).
    #[must_use]
    pub fn with_timeout(mut self, millis: u64) -> BenchConfig {
        self.query_timeout_millis = millis;
        self
    }

    /// This configuration with access-path tracing on or off.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> BenchConfig {
        self.trace = trace;
        self
    }
}

/// Default per-query wall-clock budget: one minute, far above any
/// laptop-scale cell, so fault-free runs never trip it.
pub const DEFAULT_QUERY_TIMEOUT_MILLIS: u64 = 60_000;

/// A fresh `kind` engine loaded the way [`Instance::build`] loads each one:
/// `data` as version 0 in one transaction (timed, wall nanoseconds), then
/// `archive` replayed in batches of `batch_size` (timed per commit).
pub fn load_engine(
    kind: SystemKind,
    data: &TpchData,
    archive: &Archive,
    batch_size: usize,
) -> Result<(Box<dyn BitemporalEngine>, u64, LoadReport)> {
    let mut engine = build_engine(kind);
    let t0 = Instant::now();
    let ids = loader::load_initial(engine.as_mut(), data)?;
    let initial = t0.elapsed().as_nanos() as u64;
    let report = loader::replay(engine.as_mut(), &ids, archive, batch_size)?;
    Ok((engine, initial, report))
}

/// A fully-loaded benchmark instance: all four engines, the generator
/// truth, and the per-engine load reports.
pub struct Instance {
    /// Engines in `SystemKind::ALL` order.
    pub engines: Vec<(SystemKind, Box<dyn BitemporalEngine>)>,
    /// Version-0 data.
    pub data: TpchData,
    /// The generated history (archive + Table-2 stats).
    pub history: History,
    /// The generator's final state: the oracle, and what the non-temporal
    /// baselines and System D's bulk load read.
    pub db: GenDb,
    /// Replay timing per engine.
    pub load_reports: Vec<(SystemKind, LoadReport)>,
    /// Wall nanoseconds spent loading version 0, per engine.
    pub initial_load_nanos: Vec<(SystemKind, u64)>,
    /// Derived query parameters.
    pub params: QueryParams,
    /// Scan parallelism every [`Instance::retune`] applies, whatever the
    /// tuning says: the config's `workers` unless an experiment varies it.
    pub workers: usize,
}

impl Instance {
    /// Generates data and history at the configured scales and loads every
    /// engine by archive replay, applying `tuning` afterwards (the paper
    /// builds indexes after the load, like its DBAs did). The config's
    /// `workers` knob overrides the tuning's, here and in every later
    /// [`Instance::retune`], so one `BenchConfig` pins the scan parallelism
    /// of the whole run.
    pub fn build(config: &BenchConfig, tuning: &TuningConfig) -> Result<Instance> {
        let tuning = &tuning.clone().with_workers(config.workers);
        let data = bitempo_dbgen::generate(&ScaleConfig::with_h(config.h));
        let (history, db) =
            bitempo_histgen::generate_history_with_state(&data, &HistoryConfig::with_m(config.m));
        let mut engines = Vec::new();
        let mut load_reports = Vec::new();
        let mut initial_load_nanos = Vec::new();
        for kind in SystemKind::ALL {
            let (mut engine, initial, report) =
                load_engine(kind, &data, &history.archive, config.batch_size)?;
            initial_load_nanos.push((kind, initial));
            engine.checkpoint();
            engine.apply_tuning(tuning)?;
            engines.push((kind, engine));
            load_reports.push((kind, report));
        }
        let params = QueryParams::derive(engines[0].1.as_ref())?;
        Ok(Instance {
            engines,
            data,
            history,
            db,
            load_reports,
            initial_load_nanos,
            params,
            workers: config.workers,
        })
    }

    /// The engine of the given kind.
    pub fn engine(&self, kind: SystemKind) -> &dyn BitemporalEngine {
        self.engines
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, e)| e.as_ref())
            .expect("all four engines present")
    }

    /// Re-applies a tuning configuration to every engine, at the instance's
    /// scan parallelism.
    pub fn retune(&mut self, tuning: &TuningConfig) -> Result<()> {
        let tuning = &tuning.clone().with_workers(self.workers);
        for (_, engine) in &mut self.engines {
            engine.apply_tuning(tuning)?;
        }
        Ok(())
    }
}

/// Builds the *non-temporal baseline* engines for Fig 7: the same logical
/// content as the bitemporal database at `(sys, app)`, loaded into
/// non-temporal tables (paper §5.4: "compared to a measurement on
/// non-temporal tables that contain the same data as the selected
/// version").
pub fn build_nontemporal_baseline(
    instance: &Instance,
    sys: &SysSpec,
    app: &AppSpec,
) -> Result<Vec<(SystemKind, Box<dyn BitemporalEngine>)>> {
    let db = &instance.db;
    let mut out = Vec::new();
    for kind in SystemKind::ALL {
        let mut engine = build_engine(kind);
        for idx in 0..db.table_count() {
            let def = db.def(idx);
            let plain = TableDef::new(
                def.name.clone(),
                def.schema.clone(),
                def.key.clone(),
                TemporalClass::NonTemporal,
                None,
            )?;
            let id = engine.create_table(plain)?;
            let value_arity = def.schema.arity();
            for row in db.scan(idx, sys, app) {
                let values: Vec<_> = (0..value_arity).map(|c| row.get(c).clone()).collect();
                // tblint: allow(TB007) nontemporal baseline load; no serving layer exists here
                engine.insert(id, Row::new(values), None)?;
            }
        }
        engine.commit();
        engine.checkpoint();
        out.push((kind, engine));
    }
    Ok(out)
}

/// A latency measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median latency over the kept repetitions, nanoseconds.
    pub median_nanos: u64,
    /// Result cardinality of the measured query (sanity signal).
    pub rows: usize,
}

impl Measurement {
    /// Median latency in microseconds.
    pub fn micros(&self) -> f64 {
        self.median_nanos as f64 / 1_000.0
    }
}

/// Measures a query per the paper's §5.1 discipline: run
/// `discard + repetitions` times, drop the warm-ups, report the median.
///
/// Hardened against misbehaving queries: a panic inside `run` is caught and
/// surfaced as [`Error::Panicked`], and each repetition is checked against
/// the config's wall-clock budget ([`Error::QueryTimeout`] on overrun).
/// Either way the caller gets a typed error for this one cell instead of a
/// torn-down process.
pub fn measure<F>(config: &BenchConfig, run: F) -> Result<Measurement>
where
    F: FnMut() -> Result<Vec<Row>>,
{
    measure_traced(&config.with_trace(false), run).map(|(m, _)| m)
}

/// [`measure`] plus observability: when the config's `trace` flag is set,
/// each *kept* repetition runs with [`obs`] tracing enabled and its
/// [`TraceLog`] (access-path traces + operator spans) is returned alongside
/// the measurement, in repetition order. Warm-up repetitions are never
/// traced. Tracing is always disabled again before returning — including on
/// the error paths — so a failed cell cannot leak an enabled recorder into
/// the next one.
pub fn measure_traced<F>(config: &BenchConfig, mut run: F) -> Result<(Measurement, Vec<TraceLog>)>
where
    F: FnMut() -> Result<Vec<Row>>,
{
    let budget_nanos = config.query_timeout_millis.saturating_mul(1_000_000);
    let mut kept = Vec::with_capacity(config.repetitions);
    let mut logs = Vec::with_capacity(if config.trace { config.repetitions } else { 0 });
    let mut rows = 0;
    for rep in 0..(config.discard + config.repetitions) {
        let traced = config.trace && rep >= config.discard;
        if traced {
            obs::enable();
        }
        let t0 = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut run))
            .map_err(|payload| Error::Panicked(panic_message(payload.as_ref())));
        let nanos = t0.elapsed().as_nanos() as u64;
        if traced {
            logs.push(obs::disable());
        }
        let out = result??;
        if nanos > budget_nanos {
            return Err(Error::QueryTimeout {
                millis: config.query_timeout_millis,
            });
        }
        rows = out.len();
        if rep >= config.discard {
            kept.push(nanos);
        }
    }
    kept.sort_unstable();
    Ok((
        Measurement {
            median_nanos: kept[kept.len() / 2],
            rows,
        },
        logs,
    ))
}

/// Measures one report cell with graceful degradation: a successful run
/// pushes its median latency onto `series`; a failed one (panic, timeout,
/// injected fault, engine error) records an error cell instead and bumps
/// the experiment's fault tallies, so the rest of the figure still renders.
///
/// When the config's `trace` flag is set, the cell's access-path breakdown
/// (aggregated from the last kept repetition — access-path choices and work
/// counters are deterministic across repetitions) is attached to the series
/// and rendered under the figure's timing table.
pub fn measure_cell<F>(
    config: &BenchConfig,
    series: &mut Series,
    faults: &mut FaultSummary,
    x: impl Into<String>,
    run: F,
) where
    F: FnMut() -> Result<Vec<Row>>,
{
    let x = x.into();
    match measure_traced(config, run) {
        Ok((m, logs)) => {
            series.push(x.clone(), m.micros());
            if let Some(log) = logs.last() {
                let breakdown = AccessRow::aggregate(&log.scans);
                if !breakdown.is_empty() {
                    series.push_breakdown(x, breakdown);
                }
            }
        }
        Err(e) => {
            faults.detected += 1;
            faults.recovered += 1;
            series.push_error(x, e.to_string());
        }
    }
}

/// Geometric mean of ratios (Fig 7's summary statistic).
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.max(1e-12).ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_workloads::Ctx;

    fn tiny() -> BenchConfig {
        BenchConfig {
            h: 0.001,
            m: 0.0003,
            repetitions: 3,
            discard: 1,
            batch_size: 1,
            workers: 2,
            query_timeout_millis: DEFAULT_QUERY_TIMEOUT_MILLIS,
            trace: true,
        }
    }

    #[test]
    fn instance_builds_and_engines_agree() {
        let inst = Instance::build(&tiny(), &TuningConfig::none()).unwrap();
        assert_eq!(inst.engines.len(), 4);
        assert_eq!(inst.load_reports.len(), 4);
        let mut counts = Vec::new();
        for (_, engine) in &inst.engines {
            let ctx = Ctx::new(engine.as_ref()).unwrap();
            let rows = bitempo_workloads::tt::t5_all(&ctx).unwrap();
            counts.push(rows.len());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn retune_keeps_the_configured_workers() {
        // One more worker than the tuning presets' default, so a retune
        // that took the preset's count would show up in the trace.
        let workers = bitempo_engine::api::default_workers() + 1;
        let mut inst =
            Instance::build(&tiny().with_workers(workers), &TuningConfig::none()).unwrap();
        inst.retune(&TuningConfig::time()).unwrap();
        for (kind, engine) in &inst.engines {
            let orders = engine.resolve("orders").unwrap();
            obs::enable();
            let scanned = engine.scan(orders, &SysSpec::All, &AppSpec::All, &[]);
            let log = obs::disable();
            scanned.unwrap();
            assert!(!log.scans.is_empty(), "{kind}: no scan trace");
            for t in &log.scans {
                assert_eq!(t.workers, workers as u64, "{kind} {}", t.partition);
            }
        }
    }

    #[test]
    fn measurement_discipline() {
        let cfg = tiny();
        let mut calls = 0;
        let m = measure(&cfg, || {
            calls += 1;
            Ok(vec![Row::new(vec![bitempo_core::Value::Int(1)])])
        })
        .unwrap();
        assert_eq!(calls, cfg.discard + cfg.repetitions);
        assert_eq!(m.rows, 1);
        assert!(m.median_nanos > 0);
    }

    #[test]
    fn nontemporal_baseline_matches_snapshot() {
        let inst = Instance::build(&tiny(), &TuningConfig::none()).unwrap();
        let baselines =
            build_nontemporal_baseline(&inst, &SysSpec::Current, &AppSpec::All).unwrap();
        let orders_idx = inst.db.table_index("orders").unwrap();
        let expected = inst
            .db
            .scan(orders_idx, &SysSpec::Current, &AppSpec::All)
            .len();
        for (kind, engine) in &baselines {
            let id = engine.resolve("orders").unwrap();
            let def = engine.table_def(id);
            assert_eq!(def.temporal, TemporalClass::NonTemporal);
            let rows = engine
                .scan(id, &SysSpec::Current, &AppSpec::All, &[])
                .unwrap()
                .rows;
            assert_eq!(rows.len(), expected, "{kind}");
            // Scan output has no period columns on the baseline.
            assert_eq!(rows[0].arity(), def.schema.arity());
        }
    }

    #[test]
    fn baseline_answers_match_time_travel() {
        // The Fig-7 ratio only means something if numerator and denominator
        // compute the same result: each TPC-H query under time travel on
        // the bitemporal engines must equal the plain query on the
        // non-temporal snapshot engines.
        use bitempo_workloads::{rows_approx_diff, sort_canonical, tpch};
        let inst = Instance::build(&tiny(), &TuningConfig::none()).unwrap();
        let p = &inst.params;
        let tt = tpch::Tt::app(p.app_mid);
        let baselines =
            build_nontemporal_baseline(&inst, &SysSpec::Current, &AppSpec::AsOf(p.app_mid))
                .unwrap();
        for kind in bitempo_engine::SystemKind::ALL {
            let t_ctx = Ctx::new(inst.engine(kind)).unwrap();
            let b_ctx = baselines
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, e)| Ctx::new(e.as_ref()).unwrap())
                .unwrap();
            for q in 1..=22u8 {
                let mut want = tpch::run_query(&t_ctx, q, &tt).unwrap();
                let mut got = tpch::run_query(&b_ctx, q, &tpch::Tt::none()).unwrap();
                sort_canonical(&mut want);
                sort_canonical(&mut got);
                if let Some(diff) = rows_approx_diff(&got, &want, 1e-9) {
                    panic!("{kind} Q{q}: baseline diverges: {diff}");
                }
            }
        }
    }

    #[test]
    fn panicking_query_is_contained() {
        let cfg = tiny();
        let err = measure(&cfg, || -> Result<Vec<Row>> { panic!("boom in Q9") }).unwrap_err();
        match err {
            Error::Panicked(msg) => assert!(msg.contains("boom in Q9"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn zero_budget_forces_timeout() {
        let cfg = tiny().with_timeout(0);
        let mut calls = 0;
        let err = measure(&cfg, || {
            calls += 1;
            Ok(Vec::new())
        })
        .unwrap_err();
        assert_eq!(calls, 1, "aborts after the first overrunning repetition");
        assert!(matches!(err, Error::QueryTimeout { millis: 0 }));
    }

    #[test]
    fn measure_cell_degrades_to_error_cell() {
        let cfg = tiny();
        let mut series = Series::new("System A");
        let mut faults = FaultSummary::default();
        measure_cell(&cfg, &mut series, &mut faults, "Q1", || {
            Ok(vec![Row::new(vec![bitempo_core::Value::Int(1)])])
        });
        measure_cell(
            &cfg,
            &mut series,
            &mut faults,
            "Q2",
            || -> Result<Vec<Row>> { panic!("injected") },
        );
        assert_eq!(series.points.len(), 2);
        assert_eq!(series.errors.len(), 1);
        assert!(
            series.errors[0].1.contains("injected"),
            "{:?}",
            series.errors
        );
        assert_eq!(faults.detected, 1);
        assert_eq!(faults.recovered, 1);
    }

    #[test]
    fn geometric_mean_values() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geometric_mean(&[8.0]) - 8.0).abs() < 1e-9);
        assert!(geometric_mean(&[]).is_nan());
    }
}
