//! The two query workloads, `query_scan` and `query_index`: the TPC-BiH
//! data loaded by archive replay into all four engines, then rounds that
//! visit A, B, C, D in turn with the same seeded ops, one client, scan
//! `workers = 1`. They differ only in tuning and op classes.

use crate::layers::{scan_ratios, Recording};
use crate::manifest::{ENGINES, INDEX_CLASSES, QUERY_INDEX, SCAN_CLASSES};
use crate::measure::{measure_rounds, timed_setups, Outcome};
use crate::stats::median;
use crate::trace::{self, maybe_traced, span};
use crate::RunArgs;
use bitempo_core::{AppDate, Key, Pcg32, Period, Result, Row, SysTime};
use bitempo_dbgen::{col, ScaleConfig};
use bitempo_engine::api::{AppSpec, BitemporalEngine, SysSpec, TuningConfig};
use bitempo_engine::{build_engine, SystemKind};
use bitempo_histgen::{loader, HistoryConfig};
use bitempo_workloads::{bitemporal, key, range, rows_approx_diff, sort_canonical, tpch, tt, Ctx};
use std::hint::black_box;
use std::time::Instant;

/// Sizing constants (see README "Sizing"). A full run measures
/// `ROUNDS_PER_SECOND × --seconds` rounds; each round every engine answers
/// `reps` ops of each of the five classes, the same ops on every engine.
pub const ROUNDS_PER_SECOND: u64 = 2;
pub const SCALE_H: f64 = 0.008;
pub const SCALE_M: f64 = 0.016;
pub const REPS_SCAN: usize = 5;
pub const REPS_INDEX: usize = 18;
/// Complete set-ups per run; `setup_s` is their median, the last one serves.
pub const SETUPS: usize = 3;
/// Customers with the most versions, the keys the K classes audit.
pub const HOT_CUSTOMERS: usize = 32;
/// Answers compared across the four engines per class, once per run.
pub const CHECKS_PER_CLASS: usize = 2;
/// Ops per (class, engine) cell kept in the trace file.
pub const TRACE_OPS_PER_CELL: usize = 8;

const SMOKE_SCALE: f64 = 0.002;

const SCAN_SPANS: [&str; 5] = ["query.T", "query.H", "query.K", "query.R", "query.B"];
const INDEX_SPANS: [&str; 5] = [
    "query.K1",
    "query.K2",
    "query.K1pp",
    "query.T1early",
    "query.Hctl",
];

/// The four loaded engines and what the op generator needs to know.
struct Loaded {
    engines: Vec<Box<dyn BitemporalEngine>>,
    now: SysTime,
    app_mid: AppDate,
    hot: Vec<i64>,
    parts: i64,
}

/// Set-up costs by layer (traced run).
#[derive(Default)]
struct SetupLayers {
    dbgen_s: f64,
    histgen_s: f64,
    replay_txn_per_s: [f64; 4],
    replay_commit_p50_us: [f64; 4],
    tuning_s: [f64; 4],
    tindex_build_s: f64,
    tindex_bytes_per_version: f64,
}

fn load(h: f64, m: f64, indexed: bool, traced: bool) -> Result<(Loaded, SetupLayers)> {
    let mut layers = SetupLayers::default();
    let tuning = if indexed {
        TuningConfig::key_time().with_temporal_index(true)
    } else {
        TuningConfig::none()
    }
    .with_workers(1);
    let t = Instant::now();
    let data = {
        let _s = span("dbgen.generate");
        bitempo_dbgen::generate(&ScaleConfig::with_h(h))
    };
    layers.dbgen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let history = {
        let _s = span("histgen.generate_history");
        bitempo_histgen::generate_history(&data, &HistoryConfig::with_m(m))
    };
    layers.histgen_s = t.elapsed().as_secs_f64();
    let mut engines = Vec::new();
    let (mut index_bytes, mut versions) = (0u64, 0u64);
    for (e, kind) in SystemKind::ALL.into_iter().enumerate() {
        trace::set_lane(e);
        let mut engine = build_engine(kind);
        let ids = {
            let _s = span("histgen.load_initial");
            loader::load_initial(engine.as_mut(), &data)?
        };
        let report = {
            let _s = span("histgen.replay");
            loader::replay(engine.as_mut(), &ids, &history.archive, 1)?
        };
        layers.replay_txn_per_s[e] =
            report.timings.len() as f64 / (report.total_nanos as f64 / 1e9).max(1e-9);
        layers.replay_commit_p50_us[e] = report.median_nanos(None).unwrap_or(0) as f64 / 1e3;
        engine.checkpoint();
        // The traced run prices the temporal index apart from the B-Tree
        // indexes: apply_tuning rebuilds everything, so the difference of
        // the two calls is the tindex build.
        let mut without_tindex = 0.0;
        if traced && indexed {
            let t = Instant::now();
            engine.apply_tuning(&tuning.clone().with_temporal_index(false))?;
            without_tindex = t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        {
            let _s = span("engine.apply_tuning");
            engine.apply_tuning(&tuning)?;
        }
        layers.tuning_s[e] = t.elapsed().as_secs_f64();
        if traced && indexed {
            layers.tindex_build_s += layers.tuning_s[e] - without_tindex;
        }
        index_bytes += engine.temporal_index_footprint().bytes;
        versions += ids
            .iter()
            .map(|&id| engine.stats(id).total() as u64)
            .sum::<u64>();
        // Wrapped only now: the load itself is priced by the spans above,
        // not by one span per replayed statement.
        engines.push(maybe_traced(engine, traced));
    }
    layers.tindex_bytes_per_version = index_bytes as f64 / versions.max(1) as f64;

    // The K classes audit the customers with the most versions.
    let ctx = Ctx::new(engines[0].as_ref())?;
    let mut counts = std::collections::BTreeMap::new();
    for row in ctx.scan(ctx.t.customer, &SysSpec::All, &AppSpec::All, &[])? {
        *counts
            .entry(row.get(col::customer::CUSTKEY).as_int()?)
            .or_insert(0usize) += 1;
    }
    let mut by_count: Vec<(usize, i64)> = counts.into_iter().map(|(k, n)| (n, k)).collect();
    by_count.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let hot = by_count
        .iter()
        .take(HOT_CUSTOMERS)
        .map(|(_, k)| *k)
        .collect();
    let now = engines[0].now();
    Ok((
        Loaded {
            engines,
            now,
            app_mid: AppDate::from_ymd(1995, 6, 17),
            hot,
            parts: ScaleConfig::with_h(h).parts() as i64,
        },
        layers,
    ))
}

/// The seeded parameters of one op. Every class draws all of them, so the
/// stream does not depend on which classes a workload runs.
#[derive(Clone, Copy)]
struct Params {
    sys: SysTime,
    app: AppDate,
    customer: i64,
    part: i64,
}

fn draw(rng: &mut Pcg32, l: &Loaded) -> Params {
    let now = l.now.0 as i64;
    Params {
        sys: SysTime(rng.int_range(now * 2 / 5, now * 3 / 5).max(1) as u64),
        app: l.app_mid.plus_days(rng.int_range(-60, 60)),
        customer: *rng.pick(&l.hot),
        part: rng.int_range(1, l.parts),
    }
}

fn run_op(indexed: bool, class: usize, ctx: &Ctx<'_>, p: &Params) -> Result<Vec<Row>> {
    let customer = Key::int(p.customer);
    if indexed {
        match class {
            0 => key::k1(ctx, &customer, SysSpec::All, AppSpec::All),
            1 => key::k2(
                ctx,
                &customer,
                SysSpec::Range(Period::new(SysTime(1), p.sys)),
                AppSpec::All,
            ),
            2 => key::k1(ctx, &customer, SysSpec::AsOf(p.sys), AppSpec::AsOf(p.app)),
            3 => tt::t1(ctx, SysSpec::AsOf(SysTime(2)), AppSpec::AsOf(p.app)),
            _ => tpch::run_query(ctx, 6, &tpch::Tt::app(p.app)),
        }
    } else {
        match class {
            0 => tt::t1(ctx, SysSpec::AsOf(p.sys), AppSpec::All),
            1 => tpch::run_query(ctx, 6, &tpch::Tt::app(p.app)),
            2 => key::k1(ctx, &customer, SysSpec::All, AppSpec::All),
            3 => range::r3a_sweep(ctx, SysSpec::AsOf(p.sys)),
            _ => bitemporal::b3_variant(ctx, 2, p.part, p.app, p.sys),
        }
    }
}

/// Runs one of the two query workloads.
pub fn run(args: &RunArgs, out: &mut Outcome) -> Result<()> {
    let indexed = args.workload == QUERY_INDEX;
    let (classes, spans) = if indexed {
        (INDEX_CLASSES, INDEX_SPANS)
    } else {
        (SCAN_CLASSES, SCAN_SPANS)
    };
    let (h, m, mut rounds, reps, setups) = if args.smoke {
        // Enough ops that the measured phase spans a few 10 ms CPU ticks.
        (SMOKE_SCALE, SMOKE_SCALE, 3, if indexed { 12 } else { 2 }, 1)
    } else {
        let reps = if indexed { REPS_INDEX } else { REPS_SCAN };
        let rounds = (ROUNDS_PER_SECOND * args.seconds) as usize;
        (SCALE_H, SCALE_M, rounds, reps, SETUPS)
    };
    if args.trace {
        // Half the rounds; every second one records, the others price the
        // same ops with recording off.
        rounds = (rounds / 2).max(2);
        trace::set_recording(true);
    }
    let setups = if args.trace { 1 } else { setups };
    let ((l, layers), setup_s) = timed_setups(setups, || load(h, m, indexed, args.trace))?;
    trace::set_recording(false);
    out.set("setup_s", setup_s);
    println!(
        "data h={h} m={m}: {} archive transactions replayed, {} hot customers, 1 client (closed loop), scan workers=1",
        l.now.0 - 1,
        l.hot.len()
    );

    let ctxs: Vec<Ctx<'_>> = l
        .engines
        .iter()
        .map(|e| Ctx::new(e.as_ref()))
        .collect::<Result<_>>()?;
    let mut rows_out = 0u64;
    let measured = measure_rounds(args.trace, &classes, rounds, |round, cells| {
        let mut rng = Pcg32::new(args.seed, round as u64);
        let mut ops: Vec<(usize, Params)> = (0..classes.len())
            .flat_map(|c| std::iter::repeat_n(c, reps))
            .map(|c| (c, draw(&mut rng, &l)))
            .collect();
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.int_range(0, i as i64) as usize);
        }
        for (e, ctx) in ctxs.iter().enumerate() {
            trace::set_lane(e);
            let visit = Instant::now();
            for (class, p) in &ops {
                let t = Instant::now();
                let answer = {
                    let _s = span(spans[*class]);
                    run_op(indexed, *class, ctx, p)
                };
                let us = t.elapsed().as_secs_f64() * 1e6;
                out.attempted += 1;
                match answer {
                    Ok(rows) => {
                        rows_out += u64::from(round > 0) * black_box(rows).len() as u64;
                        cells.sample(e, *class, us);
                    }
                    Err(err) => out.fail(format!("{} {}: {err}", ENGINES[e], classes[*class])),
                }
            }
            cells.visit(e, ops.len(), visit.elapsed().as_secs_f64());
        }
    });

    // Correctness: every class's answer agrees across the four engines.
    let mut rng = Pcg32::new(args.seed, u64::MAX);
    for (class, class_name) in classes.iter().enumerate() {
        for _ in 0..CHECKS_PER_CLASS {
            let p = draw(&mut rng, &l);
            let mut reference: Option<Vec<Row>> = None;
            for (e, ctx) in ctxs.iter().enumerate() {
                out.attempted += 1;
                let mut rows = match run_op(indexed, class, ctx, &p) {
                    Ok(rows) => rows,
                    Err(err) => {
                        out.fail(format!("check {} {class_name}: {err}", ENGINES[e]));
                        continue;
                    }
                };
                sort_canonical(&mut rows);
                match &reference {
                    None => reference = Some(rows),
                    Some(want) => {
                        if let Some(diff) = rows_approx_diff(&rows, want, 1e-9) {
                            out.fail(format!(
                                "{class_name}: {} disagrees with {}: {diff}",
                                ENGINES[e], ENGINES[0]
                            ));
                        }
                    }
                }
            }
        }
    }

    println!(
        "measured phase {:.2} s: {rounds} rounds x {} ops x 4 engines (+1 warm-up round)",
        measured.wall_s,
        reps * classes.len()
    );
    measured.cells.print_table();
    measured.report(out);
    if !args.trace {
        return Ok(());
    }

    // Per-layer metrics, from the recorded (odd) rounds.
    let all = trace::take();
    let rec = Recording::new(&all);
    out.set("dbgen.generate_s", layers.dbgen_s);
    out.set("histgen.generate_s", layers.histgen_s);
    for (e, name) in ENGINES.iter().enumerate() {
        out.set(
            &format!("histgen.replay_txn_per_s_{name}"),
            layers.replay_txn_per_s[e],
        );
        out.set(
            &format!("histgen.replay_commit_p50_us_{name}"),
            layers.replay_commit_p50_us[e],
        );
        out.set(&format!("engine.apply_tuning_s_{name}"), layers.tuning_s[e]);
    }
    if indexed {
        out.set("tindex.build_s", layers.tindex_build_s);
        out.set("tindex.bytes_per_version", layers.tindex_bytes_per_version);
    }
    let (mut engine_us, mut root_us) = (0.0, 0.0);
    for (class, span_name) in spans.iter().enumerate() {
        let per_op = rec.layer_time_per_op(span_name, "engine", None);
        let own: Vec<f64> = per_op
            .iter()
            .map(|(root, eng)| rec.spans[*root].dur_us() - eng)
            .collect();
        out.set(
            &format!("query.operator_self_us_{}", classes[class]),
            median(&own),
        );
        engine_us += per_op.iter().map(|(_, eng)| eng).sum::<f64>();
        root_us += per_op
            .iter()
            .map(|(root, _)| rec.spans[*root].dur_us())
            .sum::<f64>();
    }
    out.set("engine.scan_busy_frac", engine_us / root_us.max(1e-9));
    out.set("query.rows_out_total", rows_out as f64);
    scan_ratios(&rec, "query.", out);
    measured.report_trace(&args.workload, &rec, TRACE_OPS_PER_CELL, out)
}
