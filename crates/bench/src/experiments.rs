//! One function per paper artifact. Each returns a [`FigureReport`] whose
//! series mirror the figure's legend; DESIGN.md §4 maps ids to the paper.

use crate::report::{FaultSummary, FigureReport, Series};
use crate::runner::{
    build_nontemporal_baseline, geometric_mean, load_engine, measure, measure_cell, BenchConfig,
    DurabilityMode, Instance,
};
use bitempo_core::fault::{FaultKind, FaultPlan, FaultyReader};
use bitempo_core::obs::{self, TraceLog};
use bitempo_core::{Error, Key, Pcg32, Period, Result, SysTime, TableId, Value};
use bitempo_engine::api::{AppSpec, SysSpec, TuningConfig};
use bitempo_engine::{BitemporalEngine, SystemKind};
use bitempo_histgen::{read_archive_with_retry, Archive, ScenarioKind};
use bitempo_workloads::{bitemporal, key, plans, range, tpch, tt, Ctx};
use std::path::Path;
use std::time::Instant;

fn gist_tuning() -> TuningConfig {
    TuningConfig {
        time_index: true,
        key_time_index: true,
        gist: true,
        ..Default::default()
    }
}

/// Fig 2: basic point-point time travel, out-of-the-box settings.
pub fn fig2(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new("fig2", "Basic Time Travel (no index)", "µs");
    let mut faults = FaultSummary::default();
    let p = &inst.params;
    for kind in SystemKind::ALL {
        let engine = inst.engine(kind);
        let ctx = Ctx::new(engine)?;
        let mut s = Series::new(format!("{kind} - no index"));
        measure_cell(cfg, &mut s, &mut faults, "T1 vary app/curr sys", || {
            tt::t1(&ctx, SysSpec::Current, AppSpec::AsOf(p.app_mid))
        });
        measure_cell(cfg, &mut s, &mut faults, "T1 vary sys/curr app", || {
            tt::t1(&ctx, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_late))
        });
        measure_cell(cfg, &mut s, &mut faults, "T2 vary app/curr sys", || {
            tt::t2(&ctx, SysSpec::Current, AppSpec::AsOf(p.app_mid))
        });
        measure_cell(cfg, &mut s, &mut faults, "T2 vary sys/curr app", || {
            tt::t2(&ctx, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_late))
        });
        measure_cell(cfg, &mut s, &mut faults, "T5 All Versions", || {
            tt::t5_all(&ctx)
        });
        report.add(s);
    }
    report.note(
        "Expected shape (paper §5.3.1): current-only app travel cheapest; system-time travel \
         adds the history partition; System B pays the vertical-partition reconstruction; \
         ALL is the upper bound.",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 3: the same queries under the Time Index setting (System D also
/// with GiST).
pub fn fig3(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new("fig3", "Index Impact for Basic Time Travel", "µs");
    let mut faults = FaultSummary::default();
    let p = inst.params.clone();

    let run_setting = |inst: &Instance,
                       label_suffix: &str,
                       report: &mut FigureReport,
                       faults: &mut FaultSummary,
                       systems: &[SystemKind],
                       cfg: &BenchConfig|
     -> Result<()> {
        for &kind in systems {
            let engine = inst.engine(kind);
            let ctx = Ctx::new(engine)?;
            let mut s = Series::new(format!("{kind} - {label_suffix}"));
            measure_cell(cfg, &mut s, faults, "T1 vary app/curr sys", || {
                tt::t1(&ctx, SysSpec::Current, AppSpec::AsOf(p.app_mid))
            });
            measure_cell(cfg, &mut s, faults, "T1 vary sys/curr app", || {
                tt::t1(&ctx, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_late))
            });
            measure_cell(cfg, &mut s, faults, "T2 vary app/curr sys", || {
                tt::t2(&ctx, SysSpec::Current, AppSpec::AsOf(p.app_mid))
            });
            measure_cell(cfg, &mut s, faults, "T2 vary sys/curr app", || {
                tt::t2(&ctx, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_late))
            });
            measure_cell(cfg, &mut s, faults, "T5 All Versions", || tt::t5_all(&ctx));
            report.add(s);
        }
        Ok(())
    };

    run_setting(
        &inst,
        "no index",
        &mut report,
        &mut faults,
        &SystemKind::ALL,
        cfg,
    )?;
    inst.retune(&TuningConfig::time())?;
    run_setting(
        &inst,
        "B-Tree",
        &mut report,
        &mut faults,
        &SystemKind::ALL,
        cfg,
    )?;
    inst.retune(&gist_tuning())?;
    run_setting(
        &inst,
        "GiST",
        &mut report,
        &mut faults,
        &[SystemKind::D],
        cfg,
    )?;
    report.note(
        "Expected shape (paper §5.3.2): limited index benefit overall; System C ignores \
         indexes entirely; GiST never beats the B-Tree.",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 4: T1 with fixed parameters over growing history sizes — constant
/// with a usable index, linear without.
pub fn fig4(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut report = FigureReport::new("fig4", "T1 for Variable History Size", "µs");
    let mut faults = FaultSummary::default();
    let steps = 4;
    let mut series: Vec<Series> = Vec::new();
    for kind in SystemKind::ALL {
        series.push(Series::new(format!("{kind} - no index")));
        series.push(Series::new(format!("{kind} - B-Tree")));
    }
    for step in 1..=steps {
        // Geometric sweep up to 4× the configured history scale, on half
        // the data scale — the paper ran this experiment on 0.1/0.1..1.0
        // for the same reason (it reloads a full history per step).
        let m_scale = cfg.m * 4.0 * step as f64 / steps as f64;
        let step_cfg = cfg.with_scale(cfg.h / 2.0, m_scale);
        let mut inst = Instance::build(&step_cfg, &TuningConfig::none())?;
        // Fixed parameters: just after the initial version, maximum app time
        // — the result is independent of the history length (paper §5.3.3).
        let sys_point = SysSpec::AsOf(SysTime(2));
        let app_point = AppSpec::AsOf(inst.params.app_max);
        let x = format!("{} versions", inst.history.archive.transactions.len());
        for (i, kind) in SystemKind::ALL.into_iter().enumerate() {
            let ctx = Ctx::new(inst.engine(kind))?;
            measure_cell(
                &step_cfg,
                &mut series[2 * i],
                &mut faults,
                x.clone(),
                || tt::t1(&ctx, sys_point, app_point),
            );
        }
        inst.retune(&TuningConfig::time())?;
        for (i, kind) in SystemKind::ALL.into_iter().enumerate() {
            let ctx = Ctx::new(inst.engine(kind))?;
            measure_cell(
                &step_cfg,
                &mut series[2 * i + 1],
                &mut faults,
                x.clone(),
                || tt::t1(&ctx, sys_point, app_point),
            );
        }
    }
    for s in series {
        report.add(s);
    }
    report.note(
        "Expected shape (paper §5.3.3): without indexes the RDBMSs scale linearly with \
         history size; with time indexes cost is mostly constant; System C is constant \
         even without an index (current/history split + scans).",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 5: temporal slicing (T6 variants) against ALL.
pub fn fig5(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new("fig5", "Temporal Slicing", "µs");
    let mut faults = FaultSummary::default();
    let p = &inst.params;
    for kind in SystemKind::ALL {
        let ctx = Ctx::new(inst.engine(kind))?;
        let mut s = Series::new(format!("{kind} - no index"));
        measure_cell(
            cfg,
            &mut s,
            &mut faults,
            "T6 app time slice over sys",
            || tt::t6(&ctx, Some(p.app_mid), p.sys_now),
        );
        measure_cell(
            cfg,
            &mut s,
            &mut faults,
            "T6 app slice (simulated app time)",
            || tt::t9(&ctx, SysSpec::All, p.app_mid, p.app_late),
        );
        measure_cell(
            cfg,
            &mut s,
            &mut faults,
            "T6 system time slice over app",
            || tt::t6(&ctx, None, p.sys_mid),
        );
        measure_cell(cfg, &mut s, &mut faults, "T5 All Versions", || {
            tt::t5_all(&ctx)
        });
        report.add(s);
    }
    report.note("Expected shape (paper §5.3.4): slicing can be cheaper than point travel due to lower query complexity; indexes are of little use at these result sizes.");
    report.faults = faults;
    Ok(report)
}

/// Fig 6: implicit vs explicit current-time travel (Systems A, B, C).
/// Run on a history-dominated instance (16× the configured m, half the
/// data): the effect *is* the superfluous history-partition walk, so the
/// history must dwarf the current partition for wall time to show it
/// clearly above measurement noise.
pub fn fig6(cfg: &BenchConfig) -> Result<FigureReport> {
    let cfg = &cfg.with_scale(cfg.h / 2.0, cfg.m * 16.0);
    let inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new("fig6", "Current TT Implicit vs Explicit", "µs");
    let mut faults = FaultSummary::default();
    for kind in [SystemKind::A, SystemKind::B, SystemKind::C] {
        let ctx = Ctx::new(inst.engine(kind))?;
        let mut s = Series::new(kind.name());
        measure_cell(cfg, &mut s, &mut faults, "Implicit", || {
            tt::t7_implicit(&ctx)
        });
        measure_cell(cfg, &mut s, &mut faults, "Explicit", || {
            tt::t7_explicit(&ctx)
        });
        report.add(s);
    }
    report.note(
        "Expected shape (paper §5.3.5): all three systems access the history partition \
         when the current time is requested explicitly — none recognizes the optimization. \
         In-memory, the penalty is the extra history visit (A, C show it directly); on \
         System B the implicit query already pays the current-table reconstruction, which \
         masks the history walk — the plan-shape test asserts the partition access instead.",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 7a/7b: the 22 TPC-H queries under time travel, reported as the
/// slowdown ratio versus the non-temporal baseline.
pub fn fig7(cfg: &BenchConfig, system_time: bool) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::none())?;
    let p = &inst.params;
    let (id, title, tt_spec, base_sys, base_app) = if system_time {
        (
            "fig7b",
            "TPC-H with system time travel (ratio temporal/non-temporal)",
            tpch::Tt::sys(p.sys_initial),
            SysSpec::AsOf(p.sys_initial),
            AppSpec::All,
        )
    } else {
        (
            "fig7a",
            "TPC-H with application time travel (ratio temporal/non-temporal)",
            tpch::Tt::app(p.app_mid),
            SysSpec::Current,
            AppSpec::AsOf(p.app_mid),
        )
    };
    let baselines = build_nontemporal_baseline(&inst, &base_sys, &base_app)?;
    let mut report = FigureReport::new(id, title, "ratio");
    for kind in SystemKind::ALL {
        let temporal_engine = inst.engine(kind);
        let baseline_engine = baselines
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, e)| e.as_ref())
            .expect("baseline built");
        let t_ctx = Ctx::new(temporal_engine)?;
        let b_ctx = Ctx::new(baseline_engine)?;
        let mut s = Series::new(format!("{kind} - no index"));
        let mut ratios = Vec::new();
        for q in 1..=22u8 {
            let mt = measure(cfg, || tpch::run_query(&t_ctx, q, &tt_spec))?;
            let mb = measure(cfg, || tpch::run_query(&b_ctx, q, &tpch::Tt::none()))?;
            let ratio = mt.median_nanos as f64 / mb.median_nanos.max(1) as f64;
            ratios.push(ratio);
            s.push(format!("Q{q}"), ratio);
        }
        s.push("GeoMean", geometric_mean(&ratios));
        report.add(s);
    }
    report.note(if system_time {
        "Paper §5.4.2 reports far higher overheads than 7a, driven by optimizer plan \
         degradation (unions/anti-joins reassembling history). Our executor issues the \
         same physical plan in both settings by design, so this figure isolates the \
         storage-level component: (current + history) volume over the snapshot volume, \
         a modest factor that grows with m. Orderings still hold: B pays reconstruction, \
         D has no partition split."
    } else {
        "Expected shape (paper §5.4.1): slowdowns vary per query; System C's scan-based \
         execution shows the smallest geometric mean."
    });
    Ok(report)
}

fn key_dimension_points(
    p: &bitempo_workloads::QueryParams,
) -> Vec<(&'static str, SysSpec, AppSpec)> {
    vec![
        ("app time, curr sys", SysSpec::Current, AppSpec::All),
        (
            "app time, past sys",
            SysSpec::AsOf(p.sys_initial),
            AppSpec::All,
        ),
        ("both times", SysSpec::All, AppSpec::All),
        (
            "sys time, curr app",
            SysSpec::All,
            AppSpec::AsOf(p.app_late),
        ),
    ]
}

/// Fig 8: key-in-time over the full temporal range (K1) without and with
/// the Key+Time index.
pub fn fig8(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new("fig8", "Key in Time - Full Range (K1)", "µs");
    let mut faults = FaultSummary::default();
    let p = inst.params.clone();
    for (tuning, label) in [
        (TuningConfig::none(), "no index"),
        (TuningConfig::key_time(), "Key+Time"),
    ] {
        inst.retune(&tuning)?;
        for kind in SystemKind::ALL {
            let ctx = Ctx::new(inst.engine(kind))?;
            let mut s = Series::new(format!("{kind} - {label}"));
            for (x, sys, app) in key_dimension_points(&p) {
                measure_cell(cfg, &mut s, &mut faults, format!("K1 {x}"), || {
                    key::k1(&ctx, &p.hot_customer, sys, app)
                });
            }
            report.add(s);
        }
    }
    report.note(
        "Expected shape (paper §5.5.1): A and B benefit from the system PK index at \
         current system time; past-system-time access triggers history scans unless the \
         Key+Time index exists; B still pays reconstruction; C scans regardless.",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 9: key-in-time with constrained time ranges (K2/K3).
pub fn fig9(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut inst = Instance::build(cfg, &TuningConfig::key_time())?;
    let mut report = FigureReport::new("fig9", "Key in Time - Time Restriction (K2/K3)", "µs");
    let mut faults = FaultSummary::default();
    let p = inst.params.clone();
    let sys_range = SysSpec::Range(Period::new(p.sys_initial, p.sys_mid));
    inst.retune(&TuningConfig::key_time())?;
    for kind in SystemKind::ALL {
        let ctx = Ctx::new(inst.engine(kind))?;
        let mut s = Series::new(format!("{kind} - Key+Time"));
        measure_cell(cfg, &mut s, &mut faults, "K2 (sys range)", || {
            key::k2(&ctx, &p.hot_customer, sys_range, AppSpec::All)
        });
        measure_cell(cfg, &mut s, &mut faults, "K2 (app - system past)", || {
            key::k2(
                &ctx,
                &p.hot_customer,
                SysSpec::AsOf(p.sys_initial),
                AppSpec::All,
            )
        });
        measure_cell(cfg, &mut s, &mut faults, "K3 (sys range, 1 column)", || {
            key::k3(&ctx, &p.hot_customer, sys_range, AppSpec::All)
        });
        measure_cell(cfg, &mut s, &mut faults, "K3 (both)", || {
            key::k3(&ctx, &p.hot_customer, SysSpec::All, AppSpec::All)
        });
        report.add(s);
    }
    report.note(
        "Expected shape (paper §5.5.2): time-range restrictions and column restrictions \
         have little impact compared to K1 — the version-fetch dominates.",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 10: version-count restrictions (K4 Top-N, K5 predecessor).
pub fn fig10(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::key_time())?;
    let mut report = FigureReport::new("fig10", "Key in Time - Version Restriction (K4/K5)", "µs");
    let mut faults = FaultSummary::default();
    let p = &inst.params;
    for kind in SystemKind::ALL {
        let ctx = Ctx::new(inst.engine(kind))?;
        let mut s = Series::new(format!("{kind} - Key+Time"));
        measure_cell(cfg, &mut s, &mut faults, "K4 (Top-5 versions)", || {
            key::k4(&ctx, &p.hot_customer, SysSpec::All, AppSpec::All, 5)
        });
        measure_cell(cfg, &mut s, &mut faults, "K4 (Top-5, past sys)", || {
            key::k4(
                &ctx,
                &p.hot_customer,
                SysSpec::AsOf(p.sys_mid),
                AppSpec::All,
                5,
            )
        });
        measure_cell(cfg, &mut s, &mut faults, "K5 (predecessor)", || {
            key::k5(&ctx, &p.hot_customer, p.sys_now)
        });
        measure_cell(cfg, &mut s, &mut faults, "K5 (predecessor, past)", || {
            key::k5(&ctx, &p.hot_customer, p.sys_mid)
        });
        report.add(s);
    }
    report.note(
        "Expected shape (paper §5.5.2): Top-N helps in some cases; the K5 correlation \
         formulation is never cheaper than K4.",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 11: value-in-time (K6) without and with a value index.
pub fn fig11(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new("fig11", "Value in Time (K6)", "µs");
    let mut faults = FaultSummary::default();
    let p = inst.params.clone();
    let value_tuning = TuningConfig {
        value_index: vec![("customer".into(), "c_acctbal".into())],
        ..Default::default()
    };
    for (tuning, label) in [
        (TuningConfig::none(), "no index"),
        (value_tuning, "Value index"),
    ] {
        inst.retune(&tuning)?;
        for kind in SystemKind::ALL {
            let ctx = Ctx::new(inst.engine(kind))?;
            let mut s = Series::new(format!("{kind} - {label}"));
            let (lo, hi) = p.acctbal_band;
            measure_cell(cfg, &mut s, &mut faults, "K6 value, curr sys", || {
                key::k6(&ctx, lo, hi, SysSpec::Current, AppSpec::All)
            });
            measure_cell(cfg, &mut s, &mut faults, "K6 value, past sys", || {
                key::k6(&ctx, lo, hi, SysSpec::AsOf(p.sys_initial), AppSpec::All)
            });
            measure_cell(cfg, &mut s, &mut faults, "K6 value, all sys", || {
                key::k6(&ctx, lo, hi, SysSpec::All, AppSpec::All)
            });
            report.add(s);
        }
    }
    report.note(
        "Expected shape (paper §5.5.3): without an index everything is a table scan; the \
         value index speeds up the selective filter significantly (except on System C).",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 12: key-range query versus history size (with Key+Time indexes).
pub fn fig12(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut report = FigureReport::new("fig12", "Key-Range for Variable History Size", "µs");
    let mut faults = FaultSummary::default();
    let steps = 4;
    let mut series: Vec<Series> = SystemKind::ALL
        .into_iter()
        .map(|k| Series::new(format!("{k} - B-Tree")))
        .collect();
    for step in 1..=steps {
        let m_scale = cfg.m * step as f64 / steps as f64;
        let step_cfg = cfg.with_scale(cfg.h / 2.0, m_scale);
        let inst = Instance::build(&step_cfg, &TuningConfig::key_time())?;
        let p = &inst.params;
        let x = format!("{} versions", inst.history.archive.transactions.len());
        for (i, kind) in SystemKind::ALL.into_iter().enumerate() {
            let ctx = Ctx::new(inst.engine(kind))?;
            measure_cell(&step_cfg, &mut series[i], &mut faults, x.clone(), || {
                key::k1(
                    &ctx,
                    &p.hot_customer,
                    SysSpec::AsOf(SysTime(2)),
                    AppSpec::All,
                )
            });
        }
    }
    for s in series {
        report.add(s);
    }
    report.note(
        "Expected shape (paper §5.5.4): indexed key access stays near-constant for A, C \
         and D; System B grows with the current table because of the vertical-partition \
         reconstruction.",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 13: load-batch size impact on a key-range query.
pub fn fig13(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut report = FigureReport::new("fig13", "Key-Range for Variable Batch Size", "µs");
    let mut faults = FaultSummary::default();
    let mut series: Vec<Series> = SystemKind::ALL
        .into_iter()
        .map(|k| Series::new(format!("{k} - B-Tree")))
        .collect();
    for batch in [1usize, 4, 16, 64] {
        let mut step_cfg = *cfg;
        step_cfg.batch_size = batch;
        let inst = Instance::build(&step_cfg, &TuningConfig::key_time())?;
        let p = &inst.params;
        let x = format!("batch {batch}");
        for (i, kind) in SystemKind::ALL.into_iter().enumerate() {
            let ctx = Ctx::new(inst.engine(kind))?;
            measure_cell(&step_cfg, &mut series[i], &mut faults, x.clone(), || {
                key::k1(&ctx, &p.hot_customer, SysSpec::All, AppSpec::All)
            });
        }
    }
    for s in series {
        report.add(s);
    }
    report.note(
        "Expected shape (paper §5.5.4): batching reduces the number of transactions and \
         distinct versions; System B is affected the most.",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 14: range-timeslice queries R1–R7 (smaller scale, as in the paper).
pub fn fig14(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new("fig14", "Range Timeslice (R1–R7)", "µs");
    let mut faults = FaultSummary::default();
    let p = &inst.params;
    for kind in SystemKind::ALL {
        let ctx = Ctx::new(inst.engine(kind))?;
        let mut s = Series::new(kind.name());
        measure_cell(cfg, &mut s, &mut faults, "ALL (yardstick)", || {
            tt::t5_all(&ctx)
        });
        measure_cell(cfg, &mut s, &mut faults, "R1", || range::r1(&ctx));
        measure_cell(cfg, &mut s, &mut faults, "R2", || {
            range::r2(&ctx, p.sys_now)
        });
        measure_cell(cfg, &mut s, &mut faults, "R3a (naive temporal agg)", || {
            range::r3a_naive(&ctx, SysSpec::Current)
        });
        measure_cell(cfg, &mut s, &mut faults, "R3b (naive temporal agg)", || {
            range::r3b_naive(&ctx, SysSpec::Current)
        });
        measure_cell(cfg, &mut s, &mut faults, "R3a (event sweep)", || {
            range::r3a_sweep(&ctx, SysSpec::Current)
        });
        measure_cell(cfg, &mut s, &mut faults, "R4", || range::r4(&ctx));
        measure_cell(cfg, &mut s, &mut faults, "R5 (temporal join)", || {
            range::r5(&ctx, 5_000.0, 100_000.0)
        });
        measure_cell(cfg, &mut s, &mut faults, "R6 (join + temporal agg)", || {
            range::r6(&ctx, SysSpec::Current)
        });
        measure_cell(cfg, &mut s, &mut faults, "R7", || range::r7(&ctx));
        report.add(s);
    }
    report.note(
        "Expected shape (paper §5.6): the naive SQL:2011 temporal aggregation (R3) costs \
         orders of magnitude more than ALL; the event-sweep variant shows what a native \
         operator would achieve.",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 15: the bitemporal dimension matrix B3.1–B3.11.
pub fn fig15(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new("fig15", "Bitemporal Dimensions (B3.1–B3.11)", "µs");
    let mut faults = FaultSummary::default();
    let p = inst.params.clone();
    for (tuning, label) in [
        (TuningConfig::none(), "no index"),
        (TuningConfig::key_time(), "Indexed"),
    ] {
        inst.retune(&tuning)?;
        for kind in SystemKind::ALL {
            let ctx = Ctx::new(inst.engine(kind))?;
            let mut s = Series::new(format!("{kind} - {label}"));
            for variant in 1..=11u8 {
                measure_cell(cfg, &mut s, &mut faults, format!("B3.{variant}"), || {
                    bitemporal::b3_variant(&ctx, variant, 55, p.app_mid, p.sys_initial)
                });
            }
            report.add(s);
        }
    }
    report.note(
        "Expected shape (paper §5.7): without temporal join operators, correlation \
         variants degrade into scans and overlap joins; indexes help only the selective \
         point variants.",
    );
    report.faults = faults;
    Ok(report)
}

/// Fig 16 + §5.8: loading and update costs. Fails unless System B keeps
/// both halves of §5.8 (see `fig16_gate`).
pub fn fig16(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new("fig16", "Loading Time per Scenario", "µs");
    for (kind, load) in &inst.load_reports {
        let mut median = Series::new(format!("{kind} Median"));
        let mut p97 = Series::new(format!("{kind} 97th"));
        for (scenario, _) in ScenarioKind::WEIGHTED {
            if let Some(v) = load.median_nanos(Some(scenario)) {
                median.push(scenario.name(), v as f64 / 1_000.0);
            }
            if let Some(v) = load.p97_nanos(Some(scenario)) {
                p97.push(scenario.name(), v as f64 / 1_000.0);
            }
        }
        report.add(median);
        report.add(p97);
    }
    let mut totals = Series::new("Total load (ms)");
    for ((kind, load), (_, initial)) in inst.load_reports.iter().zip(&inst.initial_load_nanos) {
        totals.push(
            kind.name(),
            (initial + load.total_nanos) as f64 / 1_000_000.0,
        );
    }
    // System D additionally supports a pre-stamped bulk load (§5.8).
    let t0 = std::time::Instant::now();
    let mut bulk = bitempo_engine::build_engine(SystemKind::D);
    bitempo_histgen::loader::bulk_load(bulk.as_mut(), &inst.db)?;
    totals.push(
        "System D (bulk load)",
        t0.elapsed().as_nanos() as f64 / 1_000_000.0,
    );
    report.add(totals);
    report.note(
        "Expected shape (paper §5.8): System B's 97th percentile is far above its median \
         (undo-log drains); System D's bulk load beats every transactional replay.",
    );
    report.note(fig16_gate(cfg, &inst)?);
    Ok(report)
}

/// The update-heavy scenarios on which System B's undo-log drains spike.
const FIG16_SPIKE_SCENARIOS: [ScenarioKind; 4] = [
    ScenarioKind::NewOrderExistingCustomer,
    ScenarioKind::CancelOrder,
    ScenarioKind::ReceivePayment,
    ScenarioKind::ManipulateOrderData,
];

/// `fig16`'s gate on the two halves of paper §5.8, returned as a report
/// note; enforced from the repo benchmark's scale up (`--h 0.008 --m
/// 0.016`), reported below it. B's 97th / median must be at least 3× A's on
/// at least three of [`FIG16_SPIKE_SCENARIOS`] — the background history
/// writer's spike — and B's total load at most 2.5× A's (paper: 1.28×; a
/// writer whose work per drain grows with the history fails this), judged
/// on the fastest of four loads each: one replay there takes ~0.1 s, as
/// long as one of the host's stalls, and a stall only ever adds time.
/// Below that scale B's tables close too few versions for the spike to
/// stand out of per-commit noise (the whole-history writer passed 1 of 4
/// at the default scale too) and a load takes a few milliseconds, too
/// short to be judged against a fixed ratio.
fn fig16_gate(cfg: &BenchConfig, inst: &Instance) -> Result<String> {
    let load = |kind: SystemKind| {
        let at = SystemKind::ALL.iter().position(|&k| k == kind);
        let at = at.expect("Instance::build loads every engine");
        (&inst.load_reports[at].1, inst.initial_load_nanos[at].1)
    };
    let ((a, a_initial), (b, b_initial)) = (load(SystemKind::A), load(SystemKind::B));
    let spread = |load: &bitempo_histgen::loader::LoadReport, s| {
        Some(load.p97_nanos(Some(s))? as f64 / load.median_nanos(Some(s))?.max(1) as f64)
    };
    let spiked = FIG16_SPIKE_SCENARIOS
        .into_iter()
        .filter(|&s| matches!((spread(b, s), spread(a, s)), (Some(b), Some(a)) if b >= 3.0 * a))
        .count();
    let reload = |kind| -> Result<u64> {
        let (_, initial, report) =
            load_engine(kind, &inst.data, &inst.history.archive, cfg.batch_size)?;
        Ok(initial + report.total_nanos)
    };
    let (mut a_load, mut b_load) = (a_initial + a.total_nanos, b_initial + b.total_nanos);
    for _ in 0..3 {
        a_load = a_load.min(reload(SystemKind::A)?);
        b_load = b_load.min(reload(SystemKind::B)?);
    }
    let load_ratio = b_load as f64 / a_load.max(1) as f64;
    let verdict = format!(
        "B's 97th / median is ≥ 3× A's on {spiked} of {} update-heavy scenarios (need 3); \
         B's fastest of four total loads is {load_ratio:.2}× A's (limit 2.5×)",
        FIG16_SPIKE_SCENARIOS.len(),
    );
    if cfg.h < 0.008 || cfg.m < 0.016 {
        return Ok(format!(
            "Gate (enforced from --h 0.008 --m 0.016 up, reported here): {verdict}."
        ));
    }
    if spiked < 3 || load_ratio > 2.5 {
        return Err(Error::Invalid(format!("fig16: {verdict}")));
    }
    Ok(format!("Gate: {verdict}."))
}

/// Table 1: observed scenario frequencies against the specification.
pub fn table1(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::none())?;
    let stats = &inst.history.stats;
    let total: u64 = stats.scenario_counts.iter().sum();
    let mut report = FigureReport::new("table1", "Update Scenario Frequencies", "probability");
    let mut spec = Series::new("Specified");
    let mut observed = Series::new("Observed");
    for (kind, p) in ScenarioKind::WEIGHTED {
        spec.push(kind.name(), p);
        observed.push(
            kind.name(),
            stats.scenario_counts[kind.tag() as usize] as f64 / total.max(1) as f64,
        );
    }
    report.add(spec);
    report.add(observed);
    report.note("Fallbacks shift a little mass toward New Order when preconditions fail.");
    Ok(report)
}

/// Table 2: average operations per table.
pub fn table2(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::none())?;
    let stats = &inst.history.stats;
    let mut report = FigureReport::new("table2", "Operations per Table", "count");
    type ColumnGetter<'a> = Box<dyn Fn(usize) -> f64 + 'a>;
    let columns: [(&str, ColumnGetter<'_>); 7] = [
        (
            "App.Time Insert",
            Box::new(|i| stats.ops[i].app_insert as f64),
        ),
        (
            "App.Time Update",
            Box::new(|i| stats.ops[i].app_update as f64),
        ),
        (
            "Non-temp. Insert",
            Box::new(|i| stats.ops[i].nontemp_insert as f64),
        ),
        (
            "Non-temp. Update",
            Box::new(|i| stats.ops[i].nontemp_update as f64),
        ),
        ("Delete", Box::new(|i| stats.ops[i].delete as f64)),
        ("History growth ratio", Box::new(|i| stats.growth_ratio(i))),
        (
            "Overwrite App.Time",
            Box::new(|i| {
                if stats.overwrites_app_time(i) {
                    1.0
                } else {
                    0.0
                }
            }),
        ),
    ];
    for (label, get) in &columns {
        let mut s = Series::new(*label);
        for (i, name) in stats.tables.iter().enumerate() {
            s.push(name.to_uppercase(), get(i));
        }
        report.add(s);
    }
    report.note(format!("{stats}"));
    Ok(report)
}

/// Ceiling on the resident bytes an engine's key → open-version structure
/// holds per open version (`BitemporalEngine::key_structures_footprint`),
/// the gate of the `arch` experiment, set 10 % over the largest value
/// measured across `--h` 0.0005 … 0.012. Every layout answers from the same
/// system PK index, a packed B+Tree whose leaves store the key as integer
/// cells flat beside the slots (8 B per key column + 8 B, plus nodes and
/// separators; no per-key allocation), so one ceiling holds for all four:
/// 28.4–30.9 B at every scale (C's merge rebuild included).
const KEY_STRUCTURE_BYTES_CEILING: f64 = 34.0;

/// Ceiling on the resident bytes an engine's Key+Time tuning indexes hold
/// (`KeyStructuresFootprint::tuning_index_bytes`) per index entry on A and B
/// and per stored version on D, the `arch` experiment's second gate, set
/// like the first (same sweep, at `--m` = `--h`, plus the repo benchmark's
/// `--h 0.008 --m 0.016`). An entry is 8 B per index column + 8 B in a leaf
/// that is full where the load ascends and two-thirds full where it does
/// not. D indexes every version three times in its one table (application
/// start, system start, key + system start): 87.4–88.7 B per version. A and
/// B index open versions once and history versions three times, so per
/// version their figure grows with the history's share of the table, i.e.
/// with `--m` / `--h` (32.9–46.6 B for `--m` / `--h` from 0.5 to 4); per
/// entry (open + 3 × closed versions) it does not: 29.4–30.7 B over the
/// sweep, 31.2 B at `--h 0.003 --m 0.012`. C ignores the tuning.
fn tuning_index_bytes_ceiling(kind: SystemKind) -> f64 {
    match kind {
        SystemKind::A | SystemKind::B => 34.0,
        SystemKind::C => 0.0,
        SystemKind::D => 98.0,
    }
}

/// §5.2: the architecture analysis — what each layout stores per version,
/// under the Key+Time tuning so that its indexes are priced too (nothing
/// else reported here depends on the tuning). Fails when an engine's key
/// structures outgrow `KEY_STRUCTURE_BYTES_CEILING` or its tuning indexes
/// `tuning_index_bytes_ceiling`.
pub fn architecture(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::key_time())?;
    let mut report = FigureReport::new("arch", "Architecture Analysis (§5.2)", "rows");
    for kind in SystemKind::ALL {
        let engine = inst.engine(kind);
        let mut s = Series::new(kind.name());
        let (mut open, mut closed) = (0, 0);
        for name in bitempo_dbgen::TPCH_TABLES {
            let id = engine.resolve(name)?;
            let st = engine.stats(id);
            s.push(format!("{name} current"), st.current_rows as f64);
            s.push(format!("{name} history"), st.history_rows as f64);
            open += st.current_rows;
            closed += st.history_rows;
        }
        let versions = open + closed;
        let fp = engine.key_structures_footprint();
        let per_open = fp.key_bytes_per_open_version();
        s.push("key structures B / open version", per_open);
        let per_version = fp.tuning_index_bytes as f64 / versions.max(1) as f64;
        s.push("Key+Time tuning indexes B / version", per_version);
        let (tuning_gated, unit) = match kind {
            SystemKind::A | SystemKind::B => {
                let entries = open + 3 * closed;
                let per_entry = fp.tuning_index_bytes as f64 / entries.max(1) as f64;
                s.push("Key+Time tuning indexes B / index entry", per_entry);
                (per_entry, "index entry")
            }
            SystemKind::C | SystemKind::D => (per_version, "version"),
        };
        report.add(s);
        report.note(format!("{}: {}", kind.name(), engine.architecture()));
        let addressed = match kind {
            SystemKind::C => "column fragments",
            SystemKind::A | SystemKind::B | SystemKind::D => "heap slot arrays",
        };
        report.note(format!(
            "{}: key structures {:.1} KiB for {} open versions ({per_open:.0} B each); \
             {addressed} {:.1} KiB",
            kind.name(),
            fp.key_bytes as f64 / 1024.0,
            fp.open_versions,
            fp.heap_bytes as f64 / 1024.0
        ));
        report.note(format!(
            "{}: Key+Time tuning indexes {:.1} KiB over {versions} versions \
             ({per_version:.1} B each)",
            kind.name(),
            fp.tuning_index_bytes as f64 / 1024.0,
        ));
        if per_open > KEY_STRUCTURE_BYTES_CEILING {
            return Err(Error::Invalid(format!(
                "{kind}: key structures hold {per_open:.0} resident bytes per open version, \
                 over the {KEY_STRUCTURE_BYTES_CEILING} B ceiling: {fp:?}"
            )));
        }
        let ceiling = tuning_index_bytes_ceiling(kind);
        if tuning_gated > ceiling {
            return Err(Error::Invalid(format!(
                "{kind}: Key+Time tuning indexes hold {tuning_gated:.1} resident bytes per \
                 {unit}, over the {ceiling} B ceiling: {fp:?}"
            )));
        }
    }
    Ok(report)
}

/// Morsel-parallel scan scaling: the full-history scan (T5 All Versions)
/// per engine at 1, 2, and 4 scan workers over the *same* loaded instance.
/// Not a paper artifact — the paper's systems were measured single-threaded
/// (§5.1); this report shows what the archetypes gain from intra-query
/// parallelism while returning bit-identical results.
pub fn scaling(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new(
        "scaling",
        "Morsel-Parallel Scan Scaling (Full-History Scans)",
        "µs",
    );
    let worker_steps = [1usize, 2, 4];
    // Two full-history scans per engine: T5 (ORDERS, the paper's yardstick)
    // and the same scan over LINEITEM — the largest table, where the
    // per-scan dispatch cost is best amortized.
    let mut t5: Vec<Vec<f64>> = vec![Vec::new(); SystemKind::ALL.len()];
    let mut li: Vec<Vec<f64>> = vec![Vec::new(); SystemKind::ALL.len()];
    for &w in &worker_steps {
        inst.retune(&TuningConfig::none().with_workers(w))?;
        for (i, kind) in SystemKind::ALL.iter().enumerate() {
            let ctx = Ctx::new(inst.engine(*kind))?;
            let m = measure(cfg, || tt::t5_all(&ctx))?;
            t5[i].push(m.micros());
            let m = measure(cfg, || {
                ctx.scan(ctx.t.lineitem, &SysSpec::All, &AppSpec::All, &[])
            })?;
            li[i].push(m.micros());
        }
    }
    for (i, kind) in SystemKind::ALL.iter().enumerate() {
        let mut s = Series::new(kind.name());
        for (j, &w) in worker_steps.iter().enumerate() {
            let plural = if w == 1 { "" } else { "s" };
            s.push(format!("ORDERS, {w} worker{plural}"), t5[i][j]);
            s.push(format!("LINEITEM, {w} worker{plural}"), li[i][j]);
        }
        report.add(s);
    }
    let max_workers = *worker_steps.last().expect("non-empty steps");
    let speedups: Vec<String> = SystemKind::ALL
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let last = *li[i].last().expect("one median per step");
            format!("{kind} {:.2}x", li[i][0] / last.max(1e-9))
        })
        .collect();
    // Per-scan work counters for the biggest table, straight from ScanOutput.
    let engine = inst.engine(SystemKind::A);
    let lineitem = engine.resolve("lineitem")?;
    let out = engine.scan(lineitem, &SysSpec::All, &AppSpec::All, &[])?;
    report.note(format!(
        "Host available_parallelism = {}. LINEITEM full-history speedup at {max_workers} \
         workers over 1 worker: {} (bounded by the host core count; on a single-core host \
         the expected value is ~1.0x and any shortfall is pure dispatch overhead). Results \
         are identical at every worker count (morsel-order merge). System A LINEITEM \
         full-history scan: {} morsels, {} versions visited, {} pruned, {} index probes.",
        bitempo_engine::api::default_workers(),
        speedups.join(", "),
        out.metrics.morsels,
        out.metrics.rows_visited,
        out.metrics.versions_pruned,
        out.metrics.index_probes,
    ));
    Ok(report)
}

/// Fault-injection scenario report (not a paper artifact): exercises the
/// hardened pipeline end to end. Layer 1 corrupts a serialized generator
/// archive and shows the checksummed v2 reader detecting it, then recovers
/// a transiently-faulty read through the retry loop; layer 2 injects a
/// worker panic into the morsel layer of every engine and shows containment
/// plus clean recovery after retuning; layer 3 forces a query timeout and
/// shows the failure landing as an error cell instead of aborting the run.
pub fn faults(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut report = FigureReport::new("faults", "Fault Injection and Graceful Degradation", "µs");
    let mut tally = FaultSummary::default();

    // Layer 1a: a single bit flip in the archive stream must be caught by
    // the v2 per-transaction checksums, never parsed into bad data.
    let mut inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut bytes = Vec::new();
    inst.history.archive.write_to(&mut bytes)?;
    let flip = FaultPlan::none().with(FaultKind::BitFlip {
        offset: (bytes.len() / 2) as u64,
        mask: 0x10,
    });
    tally.injected += flip.len() as u64;
    let mut reader = FaultyReader::new(&bytes[..], flip);
    match Archive::read_from(&mut reader) {
        Err(Error::Archive(_)) => {
            tally.detected += 1;
            report.note("archive bit flip: detected by the v2 checksums (Error::Archive)");
        }
        Err(e) => return Err(e),
        Ok(_) => report.note("archive bit flip: NOT detected — checksum hole"),
    }

    // Layer 1b: a transient read fault is absorbed by the retry path and
    // the payload survives intact.
    tally.injected += 1;
    let reread = read_archive_with_retry(
        || {
            let plan = FaultPlan::none().with(FaultKind::TransientAt(64));
            let mut r = FaultyReader::new(&bytes[..], plan);
            Archive::read_from(&mut r)
        },
        3,
    )?;
    if reread.transactions.len() == inst.history.archive.transactions.len() {
        tally.recovered += 1;
        report.note("archive transient fault: recovered by retry, payload intact");
    }

    // Layer 2: inject a worker panic into morsel 0 of every engine's
    // sequential scan; containment must surface it as WorkerPanicked.
    inst.retune(&TuningConfig::none().with_workers(2).with_panic_morsel(0))?;
    for kind in SystemKind::ALL {
        tally.injected += 1;
        let engine = inst.engine(kind);
        let orders = engine.resolve("orders")?;
        match engine.scan(orders, &SysSpec::All, &AppSpec::All, &[]) {
            Err(Error::WorkerPanicked { morsel, .. }) => {
                tally.detected += 1;
                report.note(format!("{kind}: worker panic contained at morsel {morsel}"));
            }
            Err(e) => return Err(e),
            Ok(_) => report.note(format!("{kind}: injected panic did not fire")),
        }
    }
    // Recovery: clear the injection and the same scans run clean.
    inst.retune(&TuningConfig::none().with_workers(2))?;
    for kind in SystemKind::ALL {
        let ctx = Ctx::new(inst.engine(kind))?;
        let mut s = Series::new(format!("{kind} - after recovery"));
        measure_cell(cfg, &mut s, &mut tally, "T5 after panic recovery", || {
            tt::t5_all(&ctx)
        });
        if s.errors.is_empty() {
            tally.recovered += 1;
        }
        report.add(s);
    }

    // Layer 3: a zero wall-clock budget forces a timeout; the cell degrades
    // to ERR and the run keeps going.
    tally.injected += 1;
    let t_cfg = cfg.with_timeout(0);
    let app_mid = inst.params.app_mid;
    let ctx = Ctx::new(inst.engine(SystemKind::A))?;
    let mut s = Series::new("System A - forced timeout");
    measure_cell(&t_cfg, &mut s, &mut tally, "T1 under zero budget", || {
        tt::t1(&ctx, SysSpec::Current, AppSpec::AsOf(app_mid))
    });
    report.add(s);

    report.faults = tally;
    Ok(report)
}

/// `explain`: one representative query per workload class (T, H, K, R, B),
/// measured per engine with tracing forced on so every timing cell carries
/// its access-path breakdown — which partition was read, whether an index
/// or a full scan resolved it, and how many versions were visited, pruned,
/// and emitted (the paper's §5 discussion, made inspectable). Also exports
/// a chrome-trace JSON of one traced pass to `results/explain.trace.json`
/// for about:tracing / Perfetto.
pub fn explain(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::key_time())?;
    let mut report = FigureReport::new(
        "explain",
        "Access-path explain: one query per class (key+time index)",
        "µs",
    );
    let mut faults = FaultSummary::default();
    let p = inst.params.clone();
    let cfg = cfg.with_trace(true);
    let mut combined = TraceLog::default();
    for kind in SystemKind::ALL {
        let engine = inst.engine(kind);
        let ctx = Ctx::new(engine)?;
        let mut s = Series::new(kind.to_string());
        measure_cell(&cfg, &mut s, &mut faults, "T: T1 sys+app point", || {
            tt::t1(&ctx, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_mid))
        });
        measure_cell(&cfg, &mut s, &mut faults, "H: TPC-H Q6 app travel", || {
            tpch::run_query(&ctx, 6, &tpch::Tt::app(p.app_mid))
        });
        measure_cell(&cfg, &mut s, &mut faults, "K: K1 hot customer", || {
            key::k1(&ctx, &p.hot_customer, SysSpec::All, AppSpec::All)
        });
        measure_cell(&cfg, &mut s, &mut faults, "R: R1 audit range", || {
            range::r1(&ctx)
        });
        measure_cell(&cfg, &mut s, &mut faults, "B: B3 point/point past", || {
            bitemporal::b3_variant(&ctx, 2, 55, p.app_mid, p.sys_initial)
        });
        report.add(s);

        // One extra traced pass per engine feeds the chrome-trace export;
        // errors here were already footnoted by the measured cells above.
        obs::enable();
        let _ = tt::t1(&ctx, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_mid));
        let _ = tpch::run_query(&ctx, 6, &tpch::Tt::app(p.app_mid));
        let _ = key::k1(&ctx, &p.hot_customer, SysSpec::All, AppSpec::All);
        let _ = range::r1(&ctx);
        let _ = bitemporal::b3_variant(&ctx, 2, 55, p.app_mid, p.sys_initial);
        combined.merge(obs::disable());
    }
    if combined.scans.is_empty() {
        return Err(Error::Invalid(
            "explain: the traced pass recorded no ScanTrace, so there is no access-path \
             breakdown to report"
                .into(),
        ));
    }
    let path = std::path::Path::new("results/explain.trace.json");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, combined.to_chrome_trace())?;
    report.note(format!(
        "Chrome-trace timeline written to {} (load in about:tracing or Perfetto).",
        path.display()
    ));
    report.note(
        "Read next to paper §5: T1 resolves via the time index where the engine exposes one, \
         K1 via key lookup, R1/B3 fall back to partition scans; the breakdown shows which \
         partitions each architecture touches and how many versions it prunes.",
    );
    report.faults = faults;
    Ok(report)
}

/// Most resident temporal-index bytes per stored version `temporal-index`
/// accepts from any engine. A version costs one 16 B event (two once it is
/// closed) and two 12 B endpoint entries; version-sets may add up to 16 B
/// per event, and marks, segment bounds and the live bitmap a fraction of a
/// byte. Measured 50 B on A, B and C and 50–60 B on D (one table, so its
/// sets run close to their bound) up to `--m` = 2 × `--h`, where about one
/// version in six is closed; the ceiling sits 10 % over that, so an index
/// that outgrows its log fails the run.
const TINDEX_BYTES_PER_VERSION_CEILING: f64 = 65.0;

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
    let mut faults = FaultSummary::default();
    let p = inst.params.clone();
    let cfg = cfg.with_trace(true);
    let sys_audit = SysSpec::Range(Period::new(p.sys_initial, p.sys_mid));

    let run_setting = |inst: &Instance,
                       label: &str,
                       report: &mut FigureReport,
                       faults: &mut FaultSummary|
     -> Result<()> {
        for kind in SystemKind::ALL {
            let ctx = Ctx::new(inst.engine(kind))?;
            let mut s = Series::new(format!("{kind} - {label}"));
            measure_cell(&cfg, &mut s, faults, "T1 sys+app travel (Fig 3)", || {
                tt::t1(&ctx, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_late))
            });
            measure_cell(&cfg, &mut s, faults, "K2 audit, sys range (Fig 9)", || {
                key::k2(&ctx, &p.hot_customer, sys_audit, AppSpec::All)
            });
            measure_cell(&cfg, &mut s, faults, "R3a timeslice sweep (Fig 12)", || {
                range::r3a_sweep(&ctx, SysSpec::AsOf(p.sys_mid))
            });
            report.add(s);
        }
        Ok(())
    };

    run_setting(&inst, "no index", &mut report, &mut faults)?;
    // Retune engine by engine so the report can state what each
    // architecture paid to build its index (the bench crate is the one
    // place wall clocks are allowed — tblint TB001).
    let tuning = TuningConfig::temporal().with_workers(cfg.workers);
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
    run_setting(&inst, "temporal index", &mut report, &mut faults)?;

    // Part two: the Fig 4 sweep against the new index. Probe parameters are
    // fixed (just after the initial load, all application time) while the
    // history grows, on half the data scale (like Fig 4; dbgen keeps at
    // least four suppliers however small `h` gets, so PARTSUPP's four
    // distinct suppliers per part exist at every scale). The cost of a
    // usable temporal index must track the *answer* size, not the history
    // size.
    let probe_at = SysSpec::AsOf(SysTime(2));
    let mut probed = false;
    let mut off_sweep: Vec<Series> = SystemKind::ALL
        .into_iter()
        .map(|k| Series::new(format!("{k} - sweep: full scan")))
        .collect();
    let mut on_sweep: Vec<Series> = SystemKind::ALL
        .into_iter()
        .map(|k| Series::new(format!("{k} - sweep: temporal index")))
        .collect();
    for mult in [6.0, 12.0] {
        let step_cfg = cfg.with_scale(cfg.h / 2.0, cfg.m * mult);
        let mut sweep = Instance::build(&step_cfg, &TuningConfig::none())?;
        let x = format!("{} txns", sweep.history.archive.transactions.len());
        let mut visited_off = Vec::new();
        for (i, kind) in SystemKind::ALL.into_iter().enumerate() {
            let ctx = Ctx::new(sweep.engine(kind))?;
            measure_cell(&step_cfg, &mut off_sweep[i], &mut faults, x.clone(), || {
                ctx.scan(ctx.t.customer, &probe_at, &AppSpec::All, &[])
            });
            let out = ctx.scan_output(ctx.t.customer, &probe_at, &AppSpec::All, &[])?;
            visited_off.push(out.metrics.rows_visited);
        }
        sweep.retune(&TuningConfig::temporal().with_workers(step_cfg.workers))?;
        for (i, kind) in SystemKind::ALL.into_iter().enumerate() {
            let ctx = Ctx::new(sweep.engine(kind))?;
            measure_cell(&step_cfg, &mut on_sweep[i], &mut faults, x.clone(), || {
                ctx.scan(ctx.t.customer, &probe_at, &AppSpec::All, &[])
            });
            let out = ctx.scan_output(ctx.t.customer, &probe_at, &AppSpec::All, &[])?;
            probed |= matches!(
                out.access,
                bitempo_engine::api::AccessPath::TemporalProbe(_)
            );
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
    for s in off_sweep {
        report.add(s);
    }
    for s in on_sweep {
        report.add(s);
    }
    report.note(
        "Expected shape: the off/on figure cells barely move (the paper's §5.3.2 finding — \
         mid-history probes touch too much to beat a scan, and the planner declines them), \
         but the sweep's early probes visit a near-constant row count while the full scan \
         grows with the history: the sublinear system-time travel the 2014 systems lacked.",
    );
    report.faults = faults;
    Ok(report)
}

/// `lint-plans`: the plan validator run as a gate — builds one
/// representative plan per workload class (T, H, K, R, B) on every engine,
/// *executing* the underlying accesses (so debug builds also exercise the
/// engines' scan-postcondition checks), then feeds each plan through the
/// static validator in `bitempo_query::plan`. Every scan must classify its
/// predicates into pushed vs residual (or declare itself full-history) and
/// every temporal join/aggregate must declare whether its output is
/// coalesced. Any violation fails the experiment: plans are linted here,
/// not benchmarked.
pub fn lint_plans(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::key_time())?;
    let mut report = FigureReport::new(
        "lint-plans",
        "Plan lint: classified scans and declared coalescing per workload class",
        "violations",
    );
    let p = inst.params.clone();
    let mut all_violations: Vec<String> = Vec::new();
    for kind in SystemKind::ALL {
        let ctx = Ctx::new(inst.engine(kind))?;
        let class_plans = plans::representative_plans(&ctx, &p)?;
        let mut s = Series::new(kind.to_string());
        for cp in &class_plans {
            let x = format!("{}: {}", cp.class, cp.query);
            match bitempo_query::validate(&cp.plan) {
                Ok(()) => s.push(x, 0.0),
                Err(violations) => {
                    s.push(x, violations.len() as f64);
                    for v in violations {
                        all_violations.push(format!("{kind} class {}: {v}", cp.class));
                    }
                }
            }
        }
        report.add(s);
    }
    if all_violations.is_empty() {
        report.note(
            "All representative plans classify their predicates and declare temporal \
             coalescing on every engine; 0 violations.",
        );
        Ok(report)
    } else {
        for v in &all_violations {
            report.note(v.clone());
        }
        Err(Error::Invalid(format!(
            "plan lint failed with {} violation(s): {}",
            all_violations.len(),
            all_violations.join("; ")
        )))
    }
}

/// `optimizer`: the cost-based planner inspected end to end. Part one
/// sweeps `AS OF` system times over CUSTOMER with the temporal index tuned;
/// every traced cell's breakdown carries planned-vs-visited rows, so the
/// report shows per partition where the probe beat the scan and how far
/// the estimate was off. Part two brackets the crossover exactly: a table
/// of `n` keys inserted one commit apart makes `AS OF t` qualify `t` rows,
/// so sweeping `t` across the probe's break-even point must flip the
/// chosen path from index to scan on every engine — the experiment fails
/// if any cell lands on the wrong side. No threshold knob exists any more;
/// the switch falls out of estimated work.
pub fn optimizer_experiment(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::temporal())?;
    let mut report = FigureReport::new(
        "optimizer",
        "Cost-based access paths: selectivity crossover",
        "µs",
    );
    let mut faults = FaultSummary::default();
    let p = inst.params.clone();
    let traced = cfg.with_trace(true);

    // Part one: the workload sweep. One series per engine; each cell's
    // breakdown table reports planned vs visited rows for the chosen path
    // on every partition the scan touched.
    for kind in SystemKind::ALL {
        let ctx = Ctx::new(inst.engine(kind))?;
        let mut s = Series::new(format!("{kind} - AS OF sweep"));
        for (label, at) in [
            ("load snapshot", p.sys_initial),
            ("mid history", p.sys_mid),
            ("now", p.sys_now),
        ] {
            measure_cell(&traced, &mut s, &mut faults, label, || {
                ctx.scan(ctx.t.customer, &SysSpec::AsOf(at), &AppSpec::All, &[])
            });
            let out = ctx.scan_output(ctx.t.customer, &SysSpec::AsOf(at), &AppSpec::All, &[])?;
            report.note(format!(
                "{kind} {label}: {} — planned {} rows, visited {}, emitted {}",
                out.access,
                out.metrics.planned_rows,
                out.metrics.rows_visited,
                out.rows.len(),
            ));
        }
        report.add(s);
    }

    // Part two: the controlled crossover. `n` keys inserted one commit
    // apart make `AS OF t` qualify exactly `t` of `n` stored versions, so
    // the swept fractions bracket the probe's break-even point from both
    // sides and the chosen path must flip from index to scan.
    let cross_def = bitempo_core::TableDef::new(
        "cross",
        bitempo_core::Schema::new(vec![
            bitempo_core::Column::new("id", bitempo_core::DataType::Int),
            bitempo_core::Column::new("val", bitempo_core::DataType::Int),
        ]),
        vec![0],
        bitempo_core::TemporalClass::Bitemporal,
        Some("vt"),
    )?;
    const CROSS_N: i64 = 400;
    for kind in SystemKind::ALL {
        let mut engine = bitempo_engine::build_engine(kind);
        let t = engine.create_table(cross_def.clone())?;
        for i in 0..CROSS_N {
            // tblint: allow(TB007) pre-serving seed of a throwaway optimizer fixture
            engine.insert(
                t,
                bitempo_core::Row::new(vec![
                    bitempo_core::Value::Int(i),
                    bitempo_core::Value::Int(i),
                ]),
                None,
            )?;
            engine.commit();
        }
        engine.apply_tuning(&TuningConfig::temporal().with_workers(1))?;
        let mut s = Series::new(format!("{kind} - crossover (rows visited)"));
        for (pct, expect_probe) in [(5i64, true), (10, true), (25, false), (100, false)] {
            let at = SysTime((CROSS_N * pct / 100) as u64);
            let out = engine.scan(t, &SysSpec::AsOf(at), &AppSpec::All, &[])?;
            let probed = matches!(
                out.access,
                bitempo_engine::api::AccessPath::TemporalProbe(_)
            );
            s.push(format!("{pct}% qualify"), out.metrics.rows_visited as f64);
            report.note(format!(
                "{kind} crossover at {pct}%: {} — planned {} rows, visited {}, emitted {}",
                out.access,
                out.metrics.planned_rows,
                out.metrics.rows_visited,
                out.rows.len(),
            ));
            if probed != expect_probe {
                return Err(Error::Invalid(format!(
                    "{kind}: at {pct}% qualifying the optimizer chose {} — expected the \
                     {} side of the crossover",
                    out.access,
                    if expect_probe { "index" } else { "scan" }
                )));
            }
        }
        report.add(s);
    }

    report.note(
        "Expected shape: the crossover sweep probes while few rows qualify and falls back \
         to the scan once the estimated work passes break-even — the §5.9 regime, now \
         priced per site instead of thresholded.",
    );
    report.faults = faults;
    Ok(report)
}

/// `durability`: commit throughput and crash-recovery time under the
/// three WAL durability modes — fsync per commit (`dur_strict`), 10 ms
/// group commit (`dur_batched_10ms`), and buffered (`dur_async`) — on
/// every engine, against a real file sink so strict mode pays real syncs.
///
/// Each cell replays the full update archive with write-ahead logging and
/// the default checkpoint cadence, closes the log, then rebuilds a fresh
/// engine from the written bytes plus the captured checkpoints and proves
/// the recovered state is byte-identical to the live one before any
/// timing is reported — a cell that cannot recover fails the experiment,
/// so every engine × mode cell of a report that renders is a number.
pub fn durability(cfg: &BenchConfig) -> Result<FigureReport> {
    let data = bitempo_dbgen::generate(&bitempo_dbgen::ScaleConfig::with_h(cfg.h));
    let history =
        bitempo_histgen::generate_history(&data, &bitempo_histgen::HistoryConfig::with_m(cfg.m));
    let tuning = TuningConfig::none().with_workers(cfg.workers);
    // `cfg.durability` picks the headline mode; the figure still sweeps
    // all three so the table always shows the trade-off.
    let mut modes = vec![
        DurabilityMode::Strict,
        DurabilityMode::Batched(10),
        DurabilityMode::Async,
    ];
    if !modes.contains(&cfg.durability) {
        modes.insert(0, cfg.durability);
    }
    let mut report = FigureReport::new(
        "durability",
        "Commit durability: throughput and recovery time per WAL mode",
        "txn/s (throughput series) · ms (recovery series)",
    );
    for kind in SystemKind::ALL {
        let mut tput = Series::new(format!("{kind} - commit throughput (txn/s)"));
        let mut rcv = Series::new(format!("{kind} - recovery time (ms)"));
        for &mode in &modes {
            let x = mode.label();
            let (txn_per_s, recovery_ms) =
                durability_cell(kind, mode, &data, &history.archive, &tuning)
                    .map_err(|e| Error::Invalid(format!("{kind} {x}: {e}")))?;
            tput.push(x.clone(), txn_per_s);
            rcv.push(x, recovery_ms);
        }
        report.add(tput);
        report.add(rcv);
    }
    report.note(format!(
        "Expected shape: dur_strict pays one fsync per commit and trails by orders of \
         magnitude on spinning metal (less on fast NVMe); dur_batched_10ms amortizes the \
         sync across the group and sits near dur_async, which never syncs inside the \
         timed region (its single barrier at close is excluded — that is the mode's \
         contract). Recovery time is checkpoint-bounded (cadence: every {CHECKPOINT_EVERY} \
         commits), so it is flat across modes.",
    ));
    Ok(report)
}

/// Checkpoint cadence of the `durability` experiment (commits per
/// checkpoint) — [`bitempo_wal::DurableOptions`]'s default.
const CHECKPOINT_EVERY: u64 = 64;

/// Runs `cell` against a real temp-file WAL path named after `tag`, and
/// removes the file afterwards — even when the cell errors.
fn with_temp_wal<T>(tag: &str, cell: impl FnOnce(&Path) -> Result<T>) -> Result<T> {
    let path = std::env::temp_dir().join(format!("bitempo-{tag}-{}.wal", std::process::id()));
    let out = cell(&path);
    let _ = std::fs::remove_file(&path);
    out
}

/// The serving cells' self-verification, run after the log is closed: the
/// close acknowledged all `commits`, recovering the WAL at `path` (through
/// `recover`, which the caller may time) replays every one of them, and the
/// recovered state is byte-identical to the `live` engine's. A cell that
/// fails any check is an error, not a number.
fn verify_recovery(
    path: &Path,
    (kind, mode): (SystemKind, DurabilityMode),
    (commits, durable): (u64, u64),
    (live, ids): (&dyn BitemporalEngine, &[TableId]),
    recover: impl FnOnce(&[u8]) -> Result<bitempo_wal::Recovered>,
) -> Result<()> {
    use bitempo_wal::canonical_state;
    let fail = |what: String| Err(Error::Invalid(format!("{kind} {}: {what}", mode.label())));
    if durable != commits {
        return fail(format!("close acknowledged {durable} of {commits} commits"));
    }
    let rec = recover(&std::fs::read(path)?)?;
    if rec.report.commits != commits {
        return fail(format!(
            "recovered {} of {commits} commits",
            rec.report.commits
        ));
    }
    if canonical_state(rec.engine.as_ref(), &rec.ids)? != canonical_state(live, ids)? {
        return fail("recovered state diverges from the live engine".into());
    }
    Ok(())
}

/// One `durability` cell: log the archive replay through a real temp file
/// under `mode`, recover from the written bytes, verify equivalence, and
/// return `(commit throughput in txn/s, recovery wall time in ms)`.
fn durability_cell(
    kind: SystemKind,
    mode: DurabilityMode,
    data: &bitempo_dbgen::TpchData,
    archive: &Archive,
    tuning: &TuningConfig,
) -> Result<(f64, f64)> {
    with_temp_wal(&format!("durability-{kind}-{}", mode.label()), |path| {
        durability_cell_at(path, kind, mode, data, archive, tuning)
    })
}

fn durability_cell_at(
    path: &Path,
    kind: SystemKind,
    mode: DurabilityMode,
    data: &bitempo_dbgen::TpchData,
    archive: &Archive,
    tuning: &TuningConfig,
) -> Result<(f64, f64)> {
    use bitempo_wal::{Checkpoint, TxnWal};
    let file = std::fs::File::create(path)?;
    let mut log = TxnWal::create(Box::new(file), mode)?;
    let mut engine = bitempo_engine::build_engine(kind);
    let ids = bitempo_histgen::load_initial(engine.as_mut(), data)?;
    let mut checkpoints = vec![Checkpoint::capture(engine.as_mut(), &ids, 0)?.encode()];
    // Timed region: exactly the commit path — append, apply, commit, plus
    // the checkpoint cadence (identical across modes, so mode deltas are
    // pure durability cost). The closing barrier stays outside the clock:
    // dur_async's contract is that acknowledged commits may still be in
    // flight.
    let t0 = Instant::now();
    let mut commits = 0u64;
    for txn in &archive.transactions {
        let payload = bitempo_histgen::encode_txn(txn)?;
        log.append(&payload)?;
        for op in &txn.ops {
            bitempo_histgen::apply_op(engine.as_mut(), &ids, op)?;
        }
        engine.commit();
        commits += 1;
        if commits.is_multiple_of(CHECKPOINT_EVERY) {
            checkpoints.push(Checkpoint::capture(engine.as_mut(), &ids, commits)?.encode());
        }
    }
    let commit_secs = t0.elapsed().as_secs_f64();
    let durable = log.close()?;
    let mut recovery_ms = 0.0;
    verify_recovery(
        path,
        (kind, mode),
        (commits, durable),
        (engine.as_ref(), &ids),
        |bytes| {
            let t1 = Instant::now();
            let rec = bitempo_wal::recover(kind, bytes, &checkpoints, tuning);
            recovery_ms = t1.elapsed().as_secs_f64() * 1e3;
            rec
        },
    )?;
    Ok((commits as f64 / commit_secs.max(1e-9), recovery_ms))
}

/// `mvcc`: concurrent serving-layer throughput. N worker threads run a
/// seeded mix of snapshot reads (current-state scans and AS OF scans at a
/// random past commit) and write transactions (one unique insert plus one
/// hot-key update) against a [`bitempo_txn::TxnManager`] per engine, with
/// commits logged through the write-ahead log under each durability mode.
///
/// Reported per engine: committed-transaction throughput, the
/// first-committer-wins abort rate on the hot keys, and p50/p99 latency for
/// snapshot reads and durable commits. Every cell self-verifies before it
/// reports a number: the WAL bytes plus the pre-storm checkpoint must
/// recover to a state byte-identical to the served engine, and a cell whose
/// concurrent history is not replayable fails the experiment — so every
/// series × cell of a report that renders is a number.
pub fn mvcc(cfg: &BenchConfig) -> Result<FigureReport> {
    // Group commit and buffered are the interesting regimes for a
    // concurrent commit path (strict mode's per-commit fsync is already
    // characterized by `durability`); an explicit `--durability` choice is
    // swept too if it is not one of the defaults.
    let mut modes = vec![DurabilityMode::Batched(2), DurabilityMode::Async];
    if !modes.contains(&cfg.durability) {
        modes.insert(0, cfg.durability);
    }
    let threads = [1usize, 2, 4, 8];
    let mut report = FigureReport::new(
        "mvcc",
        "MVCC serving layer: snapshot transactions under concurrency",
        "txn/s (tput) · % (aborts) · µs (latency)",
    );
    for kind in SystemKind::ALL {
        let mut tput = Series::new(format!("{kind} txn_tput (txn/s)"));
        let mut abort = Series::new(format!("{kind} conflict_abort (%)"));
        let mut read50 = Series::new(format!("{kind} snapshot_read_p50 (µs)"));
        let mut read99 = Series::new(format!("{kind} snapshot_read_p99 (µs)"));
        let mut com50 = Series::new(format!("{kind} txn_commit_p50 (µs)"));
        let mut com99 = Series::new(format!("{kind} txn_commit_p99 (µs)"));
        for &mode in &modes {
            for &thr in &threads {
                let x = format!("{thr}thr {}", mode.label());
                let cell = mvcc_cell(kind, mode, thr)
                    .map_err(|e| Error::Invalid(format!("{kind} {x}: {e}")))?;
                tput.push(x.clone(), cell.txn_per_s);
                abort.push(x.clone(), cell.abort_pct);
                read50.push(x.clone(), cell.read_p50);
                read99.push(x.clone(), cell.read_p99);
                com50.push(x.clone(), cell.commit_p50);
                com99.push(x, cell.commit_p99);
            }
        }
        report.add(tput);
        report.add(abort);
        report.add(read50);
        report.add(read99);
        report.add(com50);
        report.add(com99);
    }
    report.note(
        "Expected shape: read-mostly snapshot transactions scale with threads (readers \
         share the state lock); commit throughput is bounded by the exclusive publish \
         section plus the durability wait, so dur_batched_2ms trails dur_async at one \
         thread and converges as group commit amortizes the sync across concurrent \
         committers. The conflict_abort series rises with thread count — more \
         first-committer-wins losers per hot key — and is zero at 1 thread by \
         construction. All latencies are end-to-end: pin-to-rows for reads, \
         validate-to-durable for commits.",
    );
    Ok(report)
}

/// Hot keys every `mvcc` writer contends on (more keys, fewer conflicts).
const MVCC_HOT_KEYS: i64 = 32;
/// Transactions attempted per `mvcc` worker thread.
const MVCC_TXNS_PER_THREAD: usize = 64;
/// First id for writer-unique inserts, clear of the hot range.
const MVCC_INSERT_BASE: i64 = 1_000_000;

/// One `mvcc` cell's aggregated measurements.
struct MvccCell {
    txn_per_s: f64,
    abort_pct: f64,
    read_p50: f64,
    read_p99: f64,
    commit_p50: f64,
    commit_p99: f64,
}

/// Nearest-rank percentile of an unsorted latency sample, in place.
fn percentile(sample: &mut [f64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let idx = ((sample.len() - 1) as f64 * p).round() as usize;
    sample[idx]
}

/// One `mvcc` cell against a real temp-file WAL.
fn mvcc_cell(kind: SystemKind, mode: DurabilityMode, threads: usize) -> Result<MvccCell> {
    with_temp_wal(&format!("mvcc-{kind}-{}-{threads}", mode.label()), |path| {
        mvcc_cell_at(path, kind, mode, threads)
    })
}

fn mvcc_cell_at(
    path: &Path,
    kind: SystemKind,
    mode: DurabilityMode,
    threads: usize,
) -> Result<MvccCell> {
    use bitempo_engine::testutil::{bitemp_table, simple_row};
    use bitempo_txn::TxnManager;
    use bitempo_wal::{Checkpoint, TxnWal};
    let file = std::fs::File::create(path)?;
    let log = TxnWal::create(Box::new(file), mode)?;
    let mut engine = bitempo_engine::build_engine(kind);
    let table = engine.create_table(bitemp_table("balance"))?;
    for k in 0..MVCC_HOT_KEYS {
        // tblint: allow(TB007) pre-serving seed; the TxnManager wraps this engine next
        engine.insert(table, simple_row(k, 0), None)?;
    }
    engine.commit();
    let ids = vec![table];
    let base = Checkpoint::capture(engine.as_mut(), &ids, 0)?.encode();
    let mgr = TxnManager::new(engine, ids, Some(log))?;

    // The storm: each worker runs a seeded 40/20/40 mix of current reads,
    // AS OF reads, and write transactions. Conflict losers retry with the
    // same write set — the manager counts every abort.
    let t0 = Instant::now();
    let mut worker_results: Vec<Result<(Vec<f64>, Vec<f64>)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let mgr = &mgr;
                s.spawn(move || -> Result<(Vec<f64>, Vec<f64>)> {
                    let mut rng = Pcg32::new(0x4D56_4343 ^ kind as u64, worker as u64);
                    let mut read_lat = Vec::new();
                    let mut commit_lat = Vec::new();
                    for i in 0..MVCC_TXNS_PER_THREAD {
                        let roll = rng.int_range(0, 9);
                        if roll < 6 {
                            // Snapshot read: pin, scan, unpin. 2-in-6 are
                            // AS OF scans at a random past commit.
                            let begun = Instant::now();
                            let txn = mgr.begin()?;
                            let sys = if roll < 4 {
                                SysSpec::Current
                            } else {
                                let pin = txn.pin().0.max(1);
                                SysSpec::AsOf(SysTime(rng.int_range(1, pin as i64) as u64))
                            };
                            let snap = txn.snapshot();
                            let out = snap.view().scan(table, &sys, &AppSpec::All, &[])?;
                            drop(snap);
                            if out.rows.is_empty() {
                                return Err(Error::Invalid(format!(
                                    "{kind}: a snapshot scan saw an empty table"
                                )));
                            }
                            read_lat.push(begun.elapsed().as_secs_f64() * 1e6);
                        } else {
                            // Writer: one unique insert plus one hot-key
                            // update, atomically; retry on conflict.
                            let serial = (worker * MVCC_TXNS_PER_THREAD + i) as i64;
                            let val = serial + 1;
                            let hot = rng.int_range(0, MVCC_HOT_KEYS - 1);
                            loop {
                                let mut txn = mgr.begin()?;
                                txn.insert(
                                    table,
                                    simple_row(MVCC_INSERT_BASE + serial, val),
                                    None,
                                )?;
                                txn.update(table, &Key::int(hot), &[(1, Value::Int(val))], None)?;
                                let begun = Instant::now();
                                match txn.commit() {
                                    Ok(_) => {
                                        commit_lat.push(begun.elapsed().as_secs_f64() * 1e6);
                                        break;
                                    }
                                    Err(Error::Conflict(_)) => continue,
                                    Err(e) => return Err(e),
                                }
                            }
                        }
                    }
                    Ok((read_lat, commit_lat))
                })
            })
            .collect();
        for h in handles {
            worker_results.push(h.join().expect("mvcc worker panicked"));
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut read_lat = Vec::new();
    let mut commit_lat = Vec::new();
    for r in worker_results {
        let (rl, cl) = r?;
        read_lat.extend(rl);
        commit_lat.extend(cl);
    }
    let conflicts = mgr
        .counters()
        .conflicts
        .load(std::sync::atomic::Ordering::Relaxed);
    let commits = commit_lat.len() as u64;

    // Self-verification: the WAL plus the pre-storm checkpoint must rebuild
    // exactly the served state, or the cell is an error, not a number.
    let (live, ids, durable) = mgr.close()?;
    verify_recovery(
        path,
        (kind, mode),
        (commits, durable),
        (live.as_ref(), &ids),
        |bytes| bitempo_wal::recover(kind, bytes, &[base], &TuningConfig::none()),
    )?;

    let total = read_lat.len() as u64 + commits;
    let attempts = commits + conflicts;
    Ok(MvccCell {
        txn_per_s: total as f64 / elapsed.max(1e-9),
        abort_pct: if attempts == 0 {
            0.0
        } else {
            conflicts as f64 * 100.0 / attempts as f64
        },
        read_p50: percentile(&mut read_lat, 0.50),
        read_p99: percentile(&mut read_lat, 0.99),
        commit_p50: percentile(&mut commit_lat, 0.50),
        commit_p99: percentile(&mut commit_lat, 0.99),
    })
}

/// Sharded serving layer: committed-txn throughput and commit latency vs
/// shard count × thread count × durability mode, every cell recovery-
/// verified shard by shard against the uncrashed served state — including
/// a crash-at-prepare seed that drops one shard's final commit decision
/// and must converge from the sibling's decision record. A cell that does
/// not verify fails the experiment.
pub fn sharding(cfg: &BenchConfig) -> Result<FigureReport> {
    // Strict and group commit are the regimes where the per-shard WAL is
    // the bottleneck worth sharding away; an explicit `--durability` choice
    // joins the sweep unless it is Async, whose post-crash cross-shard
    // atomicity caveat (DESIGN.md §13) excludes it from the recovery-
    // verified matrix.
    let mut modes = vec![DurabilityMode::Strict, DurabilityMode::Batched(2)];
    if !modes.contains(&cfg.durability) && cfg.durability != DurabilityMode::Async {
        modes.insert(0, cfg.durability);
    }
    let shard_counts = [1usize, 2, 4];
    let threads = [1usize, 4];
    let mut report = FigureReport::new(
        "sharding",
        "Hash-sharded cluster: throughput and commit latency vs shard count",
        "txn/s (tput) · µs (latency) · % (cross-shard share)",
    );
    for kind in SystemKind::ALL {
        let mut tput = Series::new(format!("{kind} txn_tput (txn/s)"));
        let mut com50 = Series::new(format!("{kind} commit_p50 (µs)"));
        let mut com99 = Series::new(format!("{kind} commit_p99 (µs)"));
        let mut xshare = Series::new(format!("{kind} cross_shard_commits (%)"));
        for &mode in &modes {
            for &shards in &shard_counts {
                for &thr in &threads {
                    let x = format!("{shards}sh {thr}thr {}", mode.label());
                    let cell = sharding_cell(kind, mode, shards, thr)
                        .map_err(|e| Error::Invalid(format!("{kind} {x}: {e}")))?;
                    tput.push(x.clone(), cell.txn_per_s);
                    com50.push(x.clone(), cell.commit_p50);
                    com99.push(x.clone(), cell.commit_p99);
                    xshare.push(x, cell.cross_pct);
                }
            }
        }
        report.add(tput);
        report.add(com50);
        report.add(com99);
        report.add(xshare);
    }
    report.note(
        "Expected shape: single-shard commits on different shards never share a commit \
         gate, a WAL, or data — per-shard tables shrink with the shard count — so \
         strict-mode throughput grows with shards where per-commit work dominates \
         (clearest single-threaded on the heavier engines), until the cross-shard \
         share's 2PC (two records per participant, a prepare barrier under the gates; \
         batched-mode p99 near two flush ticks) and the cluster-level validate/publish \
         section eat the gain; at 1 shard the cluster degenerates to the PR 8 serving \
         layer plus one oracle increment, which bounds the coordination overhead from \
         below. Every cell is recovery-verified per shard against the served state, \
         and multi-shard cells replay a crash seed that truncates one shard's final \
         decision record — presumed-abort recovery must finish that commit from the \
         surviving sibling's decision.",
    );
    Ok(report)
}

/// Hot keys pre-seeded for the `sharding` storm.
const SHARD_HOT_KEYS: i64 = 48;
/// Transactions attempted per `sharding` worker thread.
const SHARD_TXNS_PER_THREAD: usize = 96;
/// First id for writer-unique inserts, clear of the hot range.
const SHARD_INSERT_BASE: i64 = 2_000_000;

/// One `sharding` cell's aggregated measurements.
struct ShardingCell {
    txn_per_s: f64,
    commit_p50: f64,
    commit_p99: f64,
    cross_pct: f64,
}

fn sharding_cell(
    kind: SystemKind,
    mode: DurabilityMode,
    shards: usize,
    threads: usize,
) -> Result<ShardingCell> {
    use bitempo_engine::testutil::{bitemp_table, simple_row};
    use bitempo_engine::BitemporalEngine;
    use bitempo_shard::{partition_checkpoint, recover_cluster, Cluster, ShardInput};
    use bitempo_wal::{canonical_state, Checkpoint, SharedBuf, TxnWal, WalPayload};
    use bitempo_workloads::sharding::shard_of;

    // One base engine, partitioned by the stable key hash. In-memory WAL
    // images (one per shard, each with its own group-commit flusher in
    // `mode`) so the crash seeds below can truncate at byte boundaries.
    let mut engine = bitempo_engine::build_engine(kind);
    let table = engine.create_table(bitemp_table("balance"))?;
    for k in 0..SHARD_HOT_KEYS {
        // tblint: allow(TB007) pre-serving seed; the cluster wraps this engine next
        engine.insert(table, simple_row(k, 0), None)?;
    }
    engine.commit();
    let base = Checkpoint::capture(engine.as_mut(), &[table], 0)?;
    let bases: Vec<Vec<u8>> = partition_checkpoint(&base, shards)
        .iter()
        .map(|p| p.encode())
        .collect();
    let bufs: Vec<SharedBuf> = (0..shards).map(|_| SharedBuf::new()).collect();
    let wals = bufs
        .iter()
        .map(|b| TxnWal::create(Box::new(b.clone()), mode).map(Some))
        .collect::<Result<Vec<_>>>()?;
    let cluster = Cluster::from_checkpoint(kind, &base, wals)?;
    let table = cluster.table_ids()[0];

    // Hot keys grouped by owning shard, for steering single- vs
    // cross-shard writers deterministically.
    let mut by_shard: Vec<Vec<i64>> = vec![Vec::new(); shards];
    for k in 0..SHARD_HOT_KEYS {
        by_shard[shard_of(&Key::int(k), shards)].push(k);
    }
    if by_shard.iter().any(|b| b.is_empty()) {
        return Err(Error::Invalid(format!(
            "{shards}-way partition left a shard without hot keys"
        )));
    }

    // The storm: each worker runs a seeded mix of snapshot reads (25 %),
    // single-shard writes (62.5 %) and cross-shard writes (12.5 %, which
    // degenerate to single-shard at 1 shard) — roughly the "mostly
    // partitionable, occasionally entangled" regime sharded deployments
    // aim for; the cross-shard share is deliberately the minority so the
    // 2PC tax does not drown the gate parallelism the sweep is pricing.
    // Conflict losers retry the same write set.
    let t0 = Instant::now();
    let mut worker_results: Vec<Result<Vec<f64>>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let cluster = &cluster;
                let by_shard = &by_shard;
                s.spawn(move || -> Result<Vec<f64>> {
                    let mut rng = Pcg32::new(0x5348_5244 ^ kind as u64, worker as u64);
                    let mut commit_lat = Vec::new();
                    for i in 0..SHARD_TXNS_PER_THREAD {
                        let roll = rng.int_range(0, 7);
                        if roll < 2 {
                            // Pinned cross-shard snapshot read.
                            let snap = cluster.snapshot();
                            let guards = snap.read()?;
                            let out =
                                guards
                                    .view()
                                    .scan(table, &SysSpec::Current, &AppSpec::All, &[])?;
                            if out.rows.is_empty() {
                                return Err(Error::Invalid(format!(
                                    "{kind}: a cluster snapshot saw an empty table"
                                )));
                            }
                            continue;
                        }
                        let serial = (worker * SHARD_TXNS_PER_THREAD + i) as i64;
                        let val = serial + 1;
                        // Pick the write set: one hot key, or two on
                        // different shards for the cross-shard rolls.
                        let home = rng.int_range(0, shards as i64 - 1) as usize;
                        let pick = |rng: &mut Pcg32, s: usize| {
                            by_shard[s][rng.int_range(0, by_shard[s].len() as i64 - 1) as usize]
                        };
                        let a = pick(&mut rng, home);
                        let b = if roll == 7 && shards > 1 {
                            Some(pick(&mut rng, (home + 1) % shards))
                        } else {
                            None
                        };
                        // Route the filler insert to the hot key's shard:
                        // a "single-shard" transaction must genuinely stay
                        // on one shard, or the mix silently drifts toward
                        // 2PC. Each serial owns a 32-slot stride, so the
                        // probe never collides across transactions; a
                        // 32-probe miss (a ~1e-4 event at 4 shards) falls
                        // back to the stride base and commits cross-shard.
                        let base = SHARD_INSERT_BASE + serial * 32;
                        let ins = (base..base + 32)
                            .find(|k| shard_of(&Key::int(*k), shards) == home)
                            .unwrap_or(base);
                        loop {
                            let mut txn = cluster.begin()?;
                            txn.insert(table, simple_row(ins, val), None)?;
                            txn.update(table, &Key::int(a), &[(1, Value::Int(val))], None)?;
                            if let Some(b) = b {
                                txn.update(table, &Key::int(b), &[(1, Value::Int(-val))], None)?;
                            }
                            let begun = Instant::now();
                            match txn.commit() {
                                Ok(_) => {
                                    commit_lat.push(begun.elapsed().as_secs_f64() * 1e6);
                                    break;
                                }
                                Err(Error::Conflict(_)) => continue,
                                Err(e) => return Err(e),
                            }
                        }
                    }
                    Ok(commit_lat)
                })
            })
            .collect();
        for h in handles {
            worker_results.push(h.join().expect("sharding worker panicked"));
        }
    });
    // One final deterministic cross-shard commit, so every multi-shard
    // cell's WALs end in a prepare/decision pair the crash seed can cut.
    if shards > 1 {
        let mut txn = cluster.begin()?;
        txn.update(
            table,
            &Key::int(by_shard[0][0]),
            &[(1, Value::Int(-1))],
            None,
        )?;
        txn.update(
            table,
            &Key::int(by_shard[1][0]),
            &[(1, Value::Int(-2))],
            None,
        )?;
        txn.commit()?;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let mut commit_lat = Vec::new();
    for r in worker_results {
        commit_lat.extend(r?);
    }
    let committed = cluster
        .counters()
        .committed
        .load(std::sync::atomic::Ordering::Relaxed);
    let cross = cluster
        .counters()
        .cross_shard
        .load(std::sync::atomic::Ordering::Relaxed);
    let reads = cluster
        .counters()
        .read_only
        .load(std::sync::atomic::Ordering::Relaxed);

    // The uncrashed oracle: the served per-shard states at close.
    let mut served = Vec::with_capacity(shards);
    for (live, ids, _durable) in cluster.close()? {
        served.push(canonical_state(live.as_ref(), &ids)?);
    }
    let images: Vec<Vec<u8>> = bufs.iter().map(|b| b.snapshot()).collect();

    // Verification 1 — clean recovery: every shard rebuilt from its own
    // checkpoint + full WAL image must match the served state exactly.
    let inputs: Vec<ShardInput> = images
        .iter()
        .zip(&bases)
        .map(|(wal, base)| ShardInput {
            wal: wal.clone(),
            checkpoints: vec![base.clone()],
        })
        .collect();
    let rec = recover_cluster(kind, &inputs, &TuningConfig::none())?;
    for (si, (r, want)) in rec.shards.iter().zip(&served).enumerate() {
        if &canonical_state(r.engine.as_ref(), &r.ids)? != want {
            return Err(Error::Invalid(format!(
                "{kind} {} {shards}sh: shard {si} recovered state diverges from served",
                mode.label()
            )));
        }
    }

    // Verification 2 — crash-at-prepare seed: drop shard 0's final record
    // (the decision of the closing cross-shard commit), leaving its
    // prepare undecided; recovery must finish it from shard 1's decision
    // and still match the served state on every shard.
    if shards > 1 {
        let scan = bitempo_wal::scan(&images[0]);
        let last = scan
            .records
            .last()
            .ok_or_else(|| Error::Invalid("shard 0 logged nothing".into()))?;
        if !matches!(
            bitempo_wal::decode_payload(&last.payload)?,
            WalPayload::Decision { commit: true, .. }
        ) {
            return Err(Error::Invalid(format!(
                "{kind} {}: shard 0's log does not end in the closing commit decision",
                mode.label()
            )));
        }
        let frame = bitempo_wal::FRAME_OVERHEAD + bitempo_wal::BODY_OVERHEAD + last.payload.len();
        let mut inputs = inputs;
        inputs[0].wal.truncate(images[0].len() - frame);
        let rec = recover_cluster(kind, &inputs, &TuningConfig::none())?;
        if rec.committed_pending.is_empty() {
            return Err(Error::Invalid(format!(
                "{kind} {}: the crash seed's undecided prepare was not resolved",
                mode.label()
            )));
        }
        for (si, (r, want)) in rec.shards.iter().zip(&served).enumerate() {
            if &canonical_state(r.engine.as_ref(), &r.ids)? != want {
                return Err(Error::Invalid(format!(
                    "{kind} {} {shards}sh: shard {si} diverges after the crash seed",
                    mode.label()
                )));
            }
        }
    }

    let commits = commit_lat.len() as u64;
    debug_assert_eq!(
        committed,
        commits + reads + u64::from(shards > 1),
        "cluster commit accounting"
    );
    Ok(ShardingCell {
        txn_per_s: committed as f64 / elapsed.max(1e-9),
        commit_p50: percentile(&mut commit_lat, 0.50),
        commit_p99: percentile(&mut commit_lat, 0.99),
        cross_pct: if committed == 0 {
            0.0
        } else {
            cross as f64 * 100.0 / committed as f64
        },
    })
}

/// All experiment ids in run order.
pub const ALL_EXPERIMENTS: [&str; 26] = [
    "table1",
    "table2",
    "arch",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7a",
    "fig7b",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "scaling",
    "faults",
    "explain",
    "temporal-index",
    "lint-plans",
    "optimizer",
    "durability",
    "mvcc",
    "sharding",
];

/// Runs one experiment by id (fig15/fig16 run at small scale
/// automatically; they are included by `run_all`).
pub fn run_experiment(id: &str, cfg: &BenchConfig) -> Result<FigureReport> {
    match id {
        "table1" => table1(cfg),
        "table2" => table2(cfg),
        "arch" => architecture(cfg),
        "fig2" => fig2(cfg),
        "fig3" => fig3(cfg),
        "fig4" => fig4(cfg),
        "fig5" => fig5(cfg),
        "fig6" => fig6(cfg),
        "fig7a" => fig7(cfg, false),
        "fig7b" => fig7(cfg, true),
        "fig8" => fig8(cfg),
        "fig9" => fig9(cfg),
        "fig10" => fig10(cfg),
        "fig11" => fig11(cfg),
        "fig12" => fig12(cfg),
        "fig13" => fig13(cfg),
        "fig14" => fig14(&BenchConfig::small_scale()),
        "fig15" => fig15(&BenchConfig::small_scale()),
        "fig16" => fig16(cfg),
        "scaling" => scaling(cfg),
        "faults" => faults(cfg),
        "explain" => explain(cfg),
        "temporal-index" => temporal_index(cfg),
        "lint-plans" => lint_plans(cfg),
        "optimizer" => optimizer_experiment(cfg),
        "durability" => durability(cfg),
        "mvcc" => mvcc(cfg),
        "sharding" => sharding(cfg),
        other => Err(bitempo_core::Error::Invalid(format!(
            "unknown experiment {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_cfg() -> BenchConfig {
        BenchConfig {
            h: 0.001,
            m: 0.0003,
            repetitions: 1,
            discard: 0,
            batch_size: 1,
            workers: 2,
            query_timeout_millis: crate::runner::DEFAULT_QUERY_TIMEOUT_MILLIS,
            trace: false,
            durability: DurabilityMode::Async,
        }
    }

    #[test]
    fn explain_reports_access_paths_for_every_engine() {
        let r = explain(&micro_cfg()).unwrap();
        assert_eq!(r.series.len(), 4, "one series per system");
        for s in &r.series {
            assert_eq!(s.points.len(), 5, "one cell per query class: {}", s.label);
            assert!(s.errors.is_empty(), "{}: {:?}", s.label, s.errors);
            // Tracing is forced on, so every cell carries a breakdown.
            assert_eq!(s.breakdowns.len(), 5, "{}", s.label);
            for (x, rows) in &s.breakdowns {
                assert!(!rows.is_empty(), "{} at {x} has no access rows", s.label);
            }
        }
        let md = r.to_markdown();
        assert!(md.contains("#### Access paths"), "{md}");
        // The traced pass exported a loadable chrome trace.
        let trace = std::fs::read_to_string("results/explain.trace.json").unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
    }

    #[test]
    fn temporal_index_experiment_probes_and_reports_costs() {
        let r = temporal_index(&micro_cfg()).unwrap();
        assert_eq!(
            r.series.len(),
            16,
            "4 systems × (off, on) × (figures, sweep)"
        );
        for s in &r.series[..8] {
            assert_eq!(s.points.len(), 3, "one cell per T/K/R shape: {}", s.label);
            assert!(s.errors.is_empty(), "{}: {:?}", s.label, s.errors);
        }
        for s in &r.series[8..] {
            assert_eq!(s.points.len(), 2, "two history steps: {}", s.label);
            assert!(s.errors.is_empty(), "{}: {:?}", s.label, s.errors);
        }
        // Build cost and footprint are reported for every engine — no
        // probe-time win without its maintenance price.
        for kind in SystemKind::ALL {
            assert!(
                r.notes
                    .iter()
                    .any(|n| n.starts_with(&format!("{kind}: index build"))),
                "missing build/footprint note for {kind}: {:?}",
                r.notes
            );
        }
        // The deep-history probes really ran through the temporal index on
        // at least two architectures (the acceptance bar for sublinear
        // system-time travel).
        let probed = SystemKind::ALL
            .into_iter()
            .filter(|kind| {
                r.notes
                    .iter()
                    .any(|n| n.starts_with(&format!("{kind} @")) && n.contains("tindex("))
            })
            .count();
        assert!(
            probed >= 2,
            "expected ≥2 probing engines; notes: {:?}",
            r.notes
        );
    }

    #[test]
    fn optimizer_experiment_shows_crossover() {
        let r = optimizer_experiment(&micro_cfg()).unwrap();
        // Four workload-sweep and four crossover series. The crossover
        // assertions live inside the experiment: it returns Err if any
        // engine picks the wrong side of the break-even point.
        assert_eq!(r.series.len(), 8, "{:?}", r.series.len());
        for kind in SystemKind::ALL {
            let label = format!("{kind} - crossover (rows visited)");
            let s = r
                .series
                .iter()
                .find(|s| s.label == label)
                .unwrap_or_else(|| panic!("missing series {label}"));
            assert_eq!(s.points.len(), 4, "{label}");
        }
        let probes = r
            .notes
            .iter()
            .filter(|n| n.contains("crossover at 5%: tindex("))
            .count();
        assert_eq!(probes, 4, "{:?}", r.notes);
    }

    #[test]
    fn lint_plans_accepts_every_engines_representative_plans() {
        let r = lint_plans(&micro_cfg()).unwrap();
        assert_eq!(r.series.len(), 4, "one series per system");
        for s in &r.series {
            assert_eq!(
                s.points.len(),
                5,
                "one plan per workload class: {}",
                s.label
            );
            for (x, violations) in &s.points {
                assert_eq!(*violations, 0.0, "{}: {x} has violations", s.label);
            }
        }
        assert!(
            r.notes.iter().any(|n| n.contains("0 violations")),
            "{:?}",
            r.notes
        );
    }

    #[test]
    fn table_experiments_run() {
        let r = table1(&micro_cfg()).unwrap();
        assert_eq!(r.series.len(), 2);
        let r = table2(&micro_cfg()).unwrap();
        assert_eq!(r.series.len(), 7);
        let r = architecture(&micro_cfg()).unwrap();
        assert_eq!(r.series.len(), 4);
        for s in &r.series {
            let point = |label: &str| s.points.iter().find(|(x, _)| x == label).map(|p| p.1);
            assert!(
                point("key structures B / open version").is_some_and(|b| b > 0.0),
                "{}: every engine reports its key structures",
                s.label
            );
            assert_eq!(
                point("Key+Time tuning indexes B / version").is_some_and(|b| b > 0.0),
                s.label != SystemKind::C.name(),
                "{}: every engine but C builds the tuning's indexes",
                s.label
            );
            // A and B are gated per index entry, of which each version is
            // at least one.
            let per_entry = point("Key+Time tuning indexes B / index entry");
            let a_or_b = [SystemKind::A, SystemKind::B].map(SystemKind::name);
            assert_eq!(per_entry.is_some(), a_or_b.contains(&s.label.as_str()));
            if let Some(b) = per_entry {
                assert!(b > 0.0 && b <= point("Key+Time tuning indexes B / version").unwrap());
            }
        }
    }

    #[test]
    fn fig2_and_fig6_shapes() {
        let r = fig2(&micro_cfg()).unwrap();
        assert_eq!(r.series.len(), 4, "one series per system");
        assert_eq!(r.series[0].points.len(), 5);
        let r = fig6(&micro_cfg()).unwrap();
        assert_eq!(r.series.len(), 3, "A, B, C only");
    }

    #[test]
    fn scaling_report_shape() {
        let r = scaling(&micro_cfg()).unwrap();
        assert_eq!(r.series.len(), 4, "one series per system");
        assert!(
            r.series.iter().all(|s| s.points.len() == 6),
            "ORDERS + LINEITEM at 1/2/4 workers"
        );
        assert!(r.notes.iter().any(|n| n.contains("morsels")));
    }

    #[test]
    fn fault_experiment_detects_and_recovers() {
        let r = faults(&micro_cfg()).unwrap();
        // 1 bit flip + 1 transient + 4 worker panics + 1 forced timeout.
        assert_eq!(r.faults.injected, 7, "{:?}", r.faults);
        // Detected: the bit flip, the four panics, the timeout.
        assert_eq!(r.faults.detected, 6, "{:?}", r.faults);
        // Recovered: the transient retry, four clean post-panic scans,
        // the degraded-but-complete timeout cell.
        assert_eq!(r.faults.recovered, 6, "{:?}", r.faults);
        let md = r.to_markdown();
        assert!(md.contains("ERR"), "{md}");
        assert!(
            md.contains("faults: 7 injected / 6 detected / 6 recovered"),
            "{md}"
        );
    }

    #[test]
    fn degraded_run_still_produces_complete_report() {
        // Acceptance scenario: force every query in fig2 to time out; the
        // experiment must still return a full-shape report whose cells are
        // all errors rather than aborting.
        let r = fig2(&micro_cfg().with_timeout(0)).unwrap();
        assert_eq!(r.series.len(), 4);
        assert!(r.series.iter().all(|s| s.points.len() == 5));
        assert!(r.series.iter().all(|s| s.errors.len() == 5));
        assert_eq!(r.faults.detected, 20, "{:?}", r.faults);
        assert_eq!(r.faults.recovered, 20, "{:?}", r.faults);
    }

    #[test]
    fn unknown_experiment_rejected() {
        assert!(run_experiment("fig99", &micro_cfg()).is_err());
    }

    #[test]
    fn durability_experiment_covers_every_mode_without_errors() {
        let r = durability(&micro_cfg()).unwrap();
        assert_eq!(r.series.len(), 8, "throughput + recovery per engine");
        for s in &r.series {
            assert_eq!(s.points.len(), 3, "{}: one cell per mode", s.label);
            assert!(s.errors.is_empty(), "{}: {:?}", s.label, s.errors);
            for (x, v) in &s.points {
                assert!(v.is_finite() && *v > 0.0, "{}/{x}: {v}", s.label);
            }
        }
        let xs: Vec<&str> = r.series[0].points.iter().map(|(x, _)| x.as_str()).collect();
        assert_eq!(xs, ["dur_strict", "dur_batched_10ms", "dur_async"]);
        assert_eq!(r.faults.detected, 0, "{:?}", r.faults);
    }

    #[test]
    fn mvcc_experiment_sweeps_threads_and_modes_without_errors() {
        let r = mvcc(&micro_cfg()).unwrap();
        assert_eq!(r.series.len(), 24, "six metric series per engine");
        for s in &r.series {
            assert_eq!(
                s.points.len(),
                8,
                "{}: 4 thread counts x 2 durability modes",
                s.label
            );
            assert!(s.errors.is_empty(), "{}: {:?}", s.label, s.errors);
            for (x, v) in &s.points {
                assert!(v.is_finite() && *v >= 0.0, "{}/{x}: {v}", s.label);
            }
        }
        // The issue's series vocabulary is present verbatim.
        for needle in ["txn_", "snapshot_", "conflict_"] {
            assert!(
                r.series.iter().any(|s| s.label.contains(needle)),
                "missing a {needle} series"
            );
        }
        let xs: Vec<&str> = r.series[0].points.iter().map(|(x, _)| x.as_str()).collect();
        assert_eq!(xs[0], "1thr dur_batched_2ms");
        assert_eq!(xs[7], "8thr dur_async");
        // One thread can never lose first-committer-wins validation.
        for s in r.series.iter().filter(|s| s.label.contains("conflict_")) {
            let (x, v) = &s.points[0];
            assert_eq!(*v, 0.0, "{}/{x}: single-threaded aborts", s.label);
        }
        assert_eq!(r.faults.detected, 0, "{:?}", r.faults);
    }

    #[test]
    fn sharding_experiment_sweeps_shards_and_verifies_recovery() {
        let r = sharding(&micro_cfg()).unwrap();
        assert_eq!(r.series.len(), 16, "four metric series per engine");
        for s in &r.series {
            assert_eq!(
                s.points.len(),
                12,
                "{}: 3 shard counts x 2 threads x 2 durability modes",
                s.label
            );
            assert!(s.errors.is_empty(), "{}: {:?}", s.label, s.errors);
            for (x, v) in &s.points {
                assert!(v.is_finite() && *v >= 0.0, "{}/{x}: {v}", s.label);
            }
        }
        let xs: Vec<&str> = r.series[0].points.iter().map(|(x, _)| x.as_str()).collect();
        assert_eq!(xs[0], "1sh 1thr dur_strict");
        assert_eq!(xs[11], "4sh 4thr dur_batched_2ms");
        // A single-shard cluster can never run 2PC; multi-shard cells
        // with 4 threads always see some cross-shard commits (the storm
        // steers 1-in-4 writers across shards, plus the closing commit).
        for s in r.series.iter().filter(|s| s.label.contains("cross_shard")) {
            for (x, v) in &s.points {
                if x.starts_with("1sh") {
                    assert_eq!(*v, 0.0, "{}/{x}: cross-shard on one shard", s.label);
                } else {
                    assert!(*v > 0.0, "{}/{x}: no cross-shard commits", s.label);
                }
            }
        }
        assert_eq!(r.faults.detected, 0, "{:?}", r.faults);
    }
}
