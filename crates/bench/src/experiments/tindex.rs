//! `temporal-index`: the index the 2014 systems lacked, off and on.

use super::{cell, grid, ALL};
use crate::report::{FigureReport, Series};
use crate::runner::{BenchConfig, Instance};
use bitempo_core::{Error, Period, Result, SysTime};
use bitempo_engine::api::{AccessPath, AppSpec, SysSpec, TuningConfig};
use bitempo_engine::SystemKind;
use bitempo_workloads::{key, range, tt, Ctx};
use std::time::Instant;

/// Most resident temporal-index bytes per stored version `temporal-index`
/// accepts from any engine. A version costs one 12 B event (two once it is
/// closed), a 12 B interval entry and its 4 B by-end position; version-sets
/// may add up to 8 B per event, and marks, segment bounds and the live
/// bitmap a fraction of a byte. Measured 33–35 B on A, B and C and 33–39 B
/// on D (one table, so its sets run close to their bound) from `--h`
/// 0.0005 to 0.012, up to `--m` = 2 × `--h`, where about one version in six
/// is closed; the ceiling sits 10 % over that, so an index that outgrows
/// its log fails the run.
const TINDEX_BYTES_PER_VERSION_CEILING: f64 = 43.0;

/// `temporal-index`: the index the 2014 systems lacked, measured with the
/// paper's own discipline. Part one reruns the Fig 3/9/12 query shapes
/// (T time travel, K audit, R range-timeslice) with the `bitempo-tindex`
/// Timeline/interval index off and on. Part two applies the Fig 4 sweep to
/// the new index: fixed early `AS OF` probe parameters over growing
/// histories — CUSTOMER's population is fixed while payment scenarios keep
/// superseding versions, so its history deepens with `m` and the probe
/// touches an ever-smaller fraction of it. Index build time and resident
/// footprint are reported next to the wins, so the report never shows a
/// probe-time benefit without its maintenance cost, and the run fails when
/// the footprint passes `TINDEX_BYTES_PER_VERSION_CEILING` or when no
/// engine's planner took the index for the sweep's early probe.
pub fn temporal_index(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new(
        "temporal-index",
        "Temporal index: T/K/R off vs on, probe cost vs history size",
        "µs",
    );
    let cfg = cfg.with_trace(true);
    let cells = [
        cell("T1 sys+app travel (Fig 3)", |c, p| {
            tt::t1(c, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_late))
        }),
        cell("K2 audit, sys range (Fig 9)", |c, p| {
            let audit = SysSpec::Range(Period::new(p.sys_initial, p.sys_mid));
            key::k2(c, &p.hot_customer, audit, AppSpec::All)
        }),
        cell("R3a timeslice sweep (Fig 12)", |c, p| {
            range::r3a_sweep(c, SysSpec::AsOf(p.sys_mid))
        }),
    ];
    grid(&cfg, &inst, &mut report, ALL, "no index", &cells)?;
    // Retune engine by engine so the report can state what each
    // architecture paid to build its index (the bench crate is the one
    // place wall clocks are allowed — tblint TB001).
    let tuning = TuningConfig::temporal().with_workers(inst.workers);
    for (kind, engine) in &mut inst.engines {
        let t0 = Instant::now();
        engine.apply_tuning(&tuning)?;
        let built_ms = t0.elapsed().as_secs_f64() * 1e3;
        let fp = engine.temporal_index_footprint();
        let mut versions = 0;
        for name in bitempo_dbgen::TPCH_TABLES {
            versions += engine.stats(engine.resolve(name)?).total();
        }
        let per_version = fp.bytes as f64 / versions.max(1) as f64;
        report.note(format!(
            "{kind}: index build {built_ms:.2} ms — {} events, {} marks, {} version-sets \
             ({} slots), {:.1} KiB resident ({per_version:.0} B/version)",
            fp.events,
            fp.marks,
            fp.sets,
            fp.set_slots,
            fp.bytes as f64 / 1024.0
        ));
        if per_version > TINDEX_BYTES_PER_VERSION_CEILING {
            return Err(Error::Invalid(format!(
                "{kind}: temporal index holds {per_version:.0} resident bytes per stored \
                 version, over the {TINDEX_BYTES_PER_VERSION_CEILING} B ceiling: {fp:?}"
            )));
        }
    }
    grid(&cfg, &inst, &mut report, ALL, "temporal index", &cells)?;

    // Part two: the Fig 4 sweep against the new index. Probe parameters are
    // fixed (just after the initial load, all application time) while the
    // history grows, on half the data scale (like Fig 4; dbgen keeps at
    // least four suppliers however small `h` gets, so PARTSUPP's four
    // distinct suppliers per part exist at every scale). The cost of a
    // usable temporal index must track the *answer* size, not the history
    // size.
    let probe_at = SysSpec::AsOf(SysTime(2));
    let (off, on) = ("sweep: full scan", "sweep: temporal index");
    for suffix in [off, on] {
        for kind in SystemKind::ALL {
            report.add(Series::new(format!("{kind} - {suffix}")));
        }
    }
    let mut probed = false;
    for mult in [6.0, 12.0] {
        let step_cfg = cfg.with_scale(cfg.h / 2.0, cfg.m * mult);
        let mut sweep = Instance::build(&step_cfg, &TuningConfig::none())?;
        let x = format!("{} txns", sweep.history.archive.transactions.len());
        let probe = [cell(x.as_str(), |c, _| {
            c.scan(c.t.customer, &probe_at, &AppSpec::All, &[])
        })];
        grid(&step_cfg, &sweep, &mut report, ALL, off, &probe)?;
        let mut visited_off = Vec::new();
        for kind in SystemKind::ALL {
            let ctx = Ctx::new(sweep.engine(kind))?;
            let out = ctx.scan_output(ctx.t.customer, &probe_at, &AppSpec::All, &[])?;
            visited_off.push(out.metrics.rows_visited);
        }
        sweep.retune(&TuningConfig::temporal())?;
        grid(&step_cfg, &sweep, &mut report, ALL, on, &probe)?;
        for (i, kind) in SystemKind::ALL.into_iter().enumerate() {
            let ctx = Ctx::new(sweep.engine(kind))?;
            let out = ctx.scan_output(ctx.t.customer, &probe_at, &AppSpec::All, &[])?;
            probed |= matches!(out.access, AccessPath::TemporalProbe(_));
            report.note(format!(
                "{kind} @ {x}: early AS OF visited {} of the {} rows a full scan reads, \
                 via {} ({} hits, {} node visits)",
                out.metrics.rows_visited,
                visited_off[i],
                out.access,
                out.metrics.index_hits,
                out.metrics.index_node_visits,
            ));
        }
    }
    if !probed {
        return Err(Error::Invalid(
            "temporal-index: no engine's planner chose a tindex( path for the early AS OF sweep"
                .into(),
        ));
    }
    report.note(
        "Expected shape: the off/on figure cells barely move (the paper's §5.3.2 finding — \
         mid-history probes touch too much to beat a scan, and the planner declines them), \
         but the sweep's early probes visit a near-constant row count while the full scan \
         grows with the history: the sublinear system-time travel the 2014 systems lacked.",
    );
    Ok(report)
}
