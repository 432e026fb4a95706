//! The paper's figures and tables (§5.3–5.8, Tables 1–2).

use super::{cell, sweep, tuned_figure, Cell, ALL};
use crate::report::{FigureReport, Series};
use crate::runner::{
    build_nontemporal_baseline, geometric_mean, load_engine, measure, BenchConfig, Instance,
};
use bitempo_core::{Error, Period, Result, SysTime};
use bitempo_engine::api::{AppSpec, SysSpec, TuningConfig};
use bitempo_engine::SystemKind;
use bitempo_histgen::loader::LoadReport;
use bitempo_histgen::{HistoryStats, ScenarioKind};
use bitempo_workloads::{bitemporal, key, range, tpch, tt, Ctx, QueryParams};
use std::time::Instant;

/// Fig 2's five point-point time-travel cells, which Fig 3 measures again
/// under each index setting.
fn time_travel_cells() -> Vec<Cell<'static>> {
    vec![
        cell("T1 vary app/curr sys", |c, p| {
            tt::t1(c, SysSpec::Current, AppSpec::AsOf(p.app_mid))
        }),
        cell("T1 vary sys/curr app", |c, p| {
            tt::t1(c, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_late))
        }),
        cell("T2 vary app/curr sys", |c, p| {
            tt::t2(c, SysSpec::Current, AppSpec::AsOf(p.app_mid))
        }),
        cell("T2 vary sys/curr app", |c, p| {
            tt::t2(c, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_late))
        }),
        cell("T5 All Versions", |c, _| tt::t5_all(c)),
    ]
}

/// Fig 2: basic point-point time travel, out-of-the-box settings.
pub fn fig2(cfg: &BenchConfig) -> Result<FigureReport> {
    tuned_figure(
        cfg,
        FigureReport::new("fig2", "Basic Time Travel (no index)", "µs"),
        &[(TuningConfig::none(), "no index", ALL)],
        time_travel_cells(),
        "Expected shape (paper §5.3.1): current-only app travel cheapest; system-time travel \
         adds the history partition; System B pays the vertical-partition reconstruction; \
         ALL is the upper bound.",
    )
}

/// Fig 3: the same queries under the Time Index setting (System D also
/// with GiST).
pub fn fig3(cfg: &BenchConfig) -> Result<FigureReport> {
    let gist = TuningConfig {
        time_index: true,
        key_time_index: true,
        gist: true,
        ..Default::default()
    };
    tuned_figure(
        cfg,
        FigureReport::new("fig3", "Index Impact for Basic Time Travel", "µs"),
        &[
            (TuningConfig::none(), "no index", ALL),
            (TuningConfig::time(), "B-Tree", ALL),
            (gist, "GiST", &[SystemKind::D]),
        ],
        time_travel_cells(),
        "Expected shape (paper §5.3.2): limited index benefit overall; System C ignores \
         indexes entirely; GiST never beats the B-Tree.",
    )
}

/// The x label of the history-size sweeps: the replayed transactions.
fn versions(_: &BenchConfig, inst: &Instance) -> String {
    format!("{} versions", inst.history.archive.transactions.len())
}

/// Fig 4: T1 with fixed parameters over growing history sizes — constant
/// with a usable index, linear without.
pub fn fig4(cfg: &BenchConfig) -> Result<FigureReport> {
    // Geometric sweep up to 4× the configured history scale, on half the
    // data scale — the paper ran this experiment on 0.1/0.1..1.0 for the
    // same reason (it reloads a full history per step). Fixed parameters:
    // just after the initial version, maximum app time — the result is
    // independent of the history length (paper §5.3.3).
    sweep(
        FigureReport::new("fig4", "T1 for Variable History Size", "µs"),
        (1..=4).map(|step| cfg.with_scale(cfg.h / 2.0, cfg.m * f64::from(step))),
        &[
            (TuningConfig::none(), "no index", ALL),
            (TuningConfig::time(), "B-Tree", ALL),
        ],
        versions,
        |c, p| tt::t1(c, SysSpec::AsOf(SysTime(2)), AppSpec::AsOf(p.app_max)),
        "Expected shape (paper §5.3.3): without indexes the RDBMSs scale linearly with \
         history size; with time indexes cost is mostly constant; System C is constant \
         even without an index (current/history split + scans).",
    )
}

/// Fig 5: temporal slicing (T6 variants) against ALL.
pub fn fig5(cfg: &BenchConfig) -> Result<FigureReport> {
    tuned_figure(
        cfg,
        FigureReport::new("fig5", "Temporal Slicing", "µs"),
        &[(TuningConfig::none(), "no index", ALL)],
        vec![
            cell("T6 app time slice over sys", |c, p| {
                tt::t6(c, Some(p.app_mid), p.sys_now)
            }),
            cell("T6 app slice (simulated app time)", |c, p| {
                tt::t9(c, SysSpec::All, p.app_mid, p.app_late)
            }),
            cell("T6 system time slice over app", |c, p| {
                tt::t6(c, None, p.sys_mid)
            }),
            cell("T5 All Versions", |c, _| tt::t5_all(c)),
        ],
        "Expected shape (paper §5.3.4): slicing can be cheaper than point travel due to lower \
         query complexity; indexes are of little use at these result sizes.",
    )
}

/// Fig 6: implicit vs explicit current-time travel (Systems A, B, C).
/// Run on a history-dominated instance (16× the configured m, half the
/// data): the effect *is* the superfluous history-partition walk, so the
/// history must dwarf the current partition for wall time to show it
/// clearly above measurement noise.
pub fn fig6(cfg: &BenchConfig) -> Result<FigureReport> {
    tuned_figure(
        &cfg.with_scale(cfg.h / 2.0, cfg.m * 16.0),
        FigureReport::new("fig6", "Current TT Implicit vs Explicit", "µs"),
        &[(
            TuningConfig::none(),
            "",
            &[SystemKind::A, SystemKind::B, SystemKind::C],
        )],
        vec![
            cell("Implicit", |c, _| tt::t7_implicit(c)),
            cell("Explicit", |c, _| tt::t7_explicit(c)),
        ],
        "Expected shape (paper §5.3.5): all three systems access the history partition \
         when the current time is requested explicitly — none recognizes the optimization. \
         In-memory, the penalty is the extra history visit (A, C show it directly); on \
         System B the implicit query already pays the current-table reconstruction, which \
         masks the history walk — the plan-shape test asserts the partition access instead.",
    )
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
    for (kind, baseline_engine) in &baselines {
        let t_ctx = Ctx::new(inst.engine(*kind))?;
        let b_ctx = Ctx::new(baseline_engine.as_ref())?;
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

/// Fig 8: key-in-time over the full temporal range (K1) without and with
/// the Key+Time index.
pub fn fig8(cfg: &BenchConfig) -> Result<FigureReport> {
    tuned_figure(
        cfg,
        FigureReport::new("fig8", "Key in Time - Full Range (K1)", "µs"),
        &[
            (TuningConfig::none(), "no index", ALL),
            (TuningConfig::key_time(), "Key+Time", ALL),
        ],
        vec![
            cell("K1 app time, curr sys", |c, p| {
                key::k1(c, &p.hot_customer, SysSpec::Current, AppSpec::All)
            }),
            cell("K1 app time, past sys", |c, p| {
                let past = SysSpec::AsOf(p.sys_initial);
                key::k1(c, &p.hot_customer, past, AppSpec::All)
            }),
            cell("K1 both times", |c, p| {
                key::k1(c, &p.hot_customer, SysSpec::All, AppSpec::All)
            }),
            cell("K1 sys time, curr app", |c, p| {
                key::k1(c, &p.hot_customer, SysSpec::All, AppSpec::AsOf(p.app_late))
            }),
        ],
        "Expected shape (paper §5.5.1): A and B benefit from the system PK index at \
         current system time; past-system-time access triggers history scans unless the \
         Key+Time index exists; B still pays reconstruction; C scans regardless.",
    )
}

/// The system-time range from the initial load to mid-history.
fn sys_range(p: &QueryParams) -> SysSpec {
    SysSpec::Range(Period::new(p.sys_initial, p.sys_mid))
}

/// Fig 9: key-in-time with constrained time ranges (K2/K3).
pub fn fig9(cfg: &BenchConfig) -> Result<FigureReport> {
    tuned_figure(
        cfg,
        FigureReport::new("fig9", "Key in Time - Time Restriction (K2/K3)", "µs"),
        &[(TuningConfig::key_time(), "Key+Time", ALL)],
        vec![
            cell("K2 (sys range)", |c, p| {
                key::k2(c, &p.hot_customer, sys_range(p), AppSpec::All)
            }),
            cell("K2 (app - system past)", |c, p| {
                let past = SysSpec::AsOf(p.sys_initial);
                key::k2(c, &p.hot_customer, past, AppSpec::All)
            }),
            cell("K3 (sys range, 1 column)", |c, p| {
                key::k3(c, &p.hot_customer, sys_range(p), AppSpec::All)
            }),
            cell("K3 (both)", |c, p| {
                key::k3(c, &p.hot_customer, SysSpec::All, AppSpec::All)
            }),
        ],
        "Expected shape (paper §5.5.2): time-range restrictions and column restrictions \
         have little impact compared to K1 — the version-fetch dominates.",
    )
}

/// Fig 10: version-count restrictions (K4 Top-N, K5 predecessor).
pub fn fig10(cfg: &BenchConfig) -> Result<FigureReport> {
    tuned_figure(
        cfg,
        FigureReport::new("fig10", "Key in Time - Version Restriction (K4/K5)", "µs"),
        &[(TuningConfig::key_time(), "Key+Time", ALL)],
        vec![
            cell("K4 (Top-5 versions)", |c, p| {
                key::k4(c, &p.hot_customer, SysSpec::All, AppSpec::All, 5)
            }),
            cell("K4 (Top-5, past sys)", |c, p| {
                let past = SysSpec::AsOf(p.sys_mid);
                key::k4(c, &p.hot_customer, past, AppSpec::All, 5)
            }),
            cell("K5 (predecessor)", |c, p| {
                key::k5(c, &p.hot_customer, p.sys_now)
            }),
            cell("K5 (predecessor, past)", |c, p| {
                key::k5(c, &p.hot_customer, p.sys_mid)
            }),
        ],
        "Expected shape (paper §5.5.2): Top-N helps in some cases; the K5 correlation \
         formulation is never cheaper than K4.",
    )
}

/// Fig 11: value-in-time (K6) without and with a value index.
pub fn fig11(cfg: &BenchConfig) -> Result<FigureReport> {
    let value_tuning = TuningConfig {
        value_index: vec![("customer".into(), "c_acctbal".into())],
        ..Default::default()
    };
    let k6 = |c: &Ctx<'_>, p: &QueryParams, sys| {
        key::k6(c, p.acctbal_band.0, p.acctbal_band.1, sys, AppSpec::All)
    };
    tuned_figure(
        cfg,
        FigureReport::new("fig11", "Value in Time (K6)", "µs"),
        &[
            (TuningConfig::none(), "no index", ALL),
            (value_tuning, "Value index", ALL),
        ],
        vec![
            cell("K6 value, curr sys", move |c, p| k6(c, p, SysSpec::Current)),
            cell("K6 value, past sys", move |c, p| {
                k6(c, p, SysSpec::AsOf(p.sys_initial))
            }),
            cell("K6 value, all sys", move |c, p| k6(c, p, SysSpec::All)),
        ],
        "Expected shape (paper §5.5.3): without an index everything is a table scan; the \
         value index speeds up the selective filter significantly (except on System C).",
    )
}

/// Fig 12: key-range query versus history size (with Key+Time indexes).
pub fn fig12(cfg: &BenchConfig) -> Result<FigureReport> {
    sweep(
        FigureReport::new("fig12", "Key-Range for Variable History Size", "µs"),
        (1..=4).map(|step| cfg.with_scale(cfg.h / 2.0, cfg.m * f64::from(step) / 4.0)),
        &[(TuningConfig::key_time(), "B-Tree", ALL)],
        versions,
        |c, p| key::k1(c, &p.hot_customer, SysSpec::AsOf(SysTime(2)), AppSpec::All),
        "Expected shape (paper §5.5.4): indexed key access stays near-constant for A, C \
         and D; System B grows with the current table because of the vertical-partition \
         reconstruction.",
    )
}

/// Fig 13: load-batch size impact on a key-range query.
pub fn fig13(cfg: &BenchConfig) -> Result<FigureReport> {
    sweep(
        FigureReport::new("fig13", "Key-Range for Variable Batch Size", "µs"),
        [1, 4, 16, 64].map(|batch_size| BenchConfig { batch_size, ..*cfg }),
        &[(TuningConfig::key_time(), "B-Tree", ALL)],
        |step, _| format!("batch {}", step.batch_size),
        |c, p| key::k1(c, &p.hot_customer, SysSpec::All, AppSpec::All),
        "Expected shape (paper §5.5.4): batching reduces the number of transactions and \
         distinct versions; System B is affected the most.",
    )
}

/// Fig 14: range-timeslice queries R1–R7 (smaller scale, as in the paper).
pub fn fig14(cfg: &BenchConfig) -> Result<FigureReport> {
    tuned_figure(
        cfg,
        FigureReport::new("fig14", "Range Timeslice (R1–R7)", "µs"),
        &[(TuningConfig::none(), "", ALL)],
        vec![
            cell("ALL (yardstick)", |c, _| tt::t5_all(c)),
            cell("R1", |c, _| range::r1(c)),
            cell("R2", |c, p| range::r2(c, p.sys_now)),
            cell("R3a (naive temporal agg)", |c, _| {
                range::r3a_naive(c, SysSpec::Current)
            }),
            cell("R3b (naive temporal agg)", |c, _| {
                range::r3b_naive(c, SysSpec::Current)
            }),
            cell("R3a (event sweep)", |c, _| {
                range::r3a_sweep(c, SysSpec::Current)
            }),
            cell("R4", |c, _| range::r4(c)),
            cell("R5 (temporal join)", |c, _| {
                range::r5(c, 5_000.0, 100_000.0)
            }),
            cell("R6 (join + temporal agg)", |c, _| {
                range::r6(c, SysSpec::Current)
            }),
            cell("R7", |c, _| range::r7(c)),
        ],
        "Expected shape (paper §5.6): the naive SQL:2011 temporal aggregation (R3) costs \
         orders of magnitude more than ALL; the event-sweep variant shows what a native \
         operator would achieve.",
    )
}

/// Fig 15: the bitemporal dimension matrix B3.1–B3.11.
pub fn fig15(cfg: &BenchConfig) -> Result<FigureReport> {
    tuned_figure(
        cfg,
        FigureReport::new("fig15", "Bitemporal Dimensions (B3.1–B3.11)", "µs"),
        &[
            (TuningConfig::none(), "no index", ALL),
            (TuningConfig::key_time(), "Indexed", ALL),
        ],
        (1..=11u8)
            .map(|v| {
                cell(format!("B3.{v}"), move |c, p| {
                    bitemporal::b3_variant(c, v, 55, p.app_mid, p.sys_initial)
                })
            })
            .collect(),
        "Expected shape (paper §5.7): without temporal join operators, correlation \
         variants degrade into scans and overlap joins; indexes help only the selective \
         point variants.",
    )
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
        let ms = (initial + load.total_nanos) as f64 / 1_000_000.0;
        totals.push(kind.name(), ms);
    }
    // System D additionally supports a pre-stamped bulk load (§5.8).
    let t0 = Instant::now();
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
    let spread = |load: &LoadReport, s| {
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
    type Column = fn(&HistoryStats, usize) -> f64;
    let columns: [(&str, Column); 7] = [
        ("App.Time Insert", |st, i| st.ops[i].app_insert as f64),
        ("App.Time Update", |st, i| st.ops[i].app_update as f64),
        ("Non-temp. Insert", |st, i| st.ops[i].nontemp_insert as f64),
        ("Non-temp. Update", |st, i| st.ops[i].nontemp_update as f64),
        ("Delete", |st, i| st.ops[i].delete as f64),
        ("History growth ratio", |st, i| st.growth_ratio(i)),
        ("Overwrite App.Time", |st, i| {
            f64::from(u8::from(st.overwrites_app_time(i)))
        }),
    ];
    for (label, get) in &columns {
        let mut s = Series::new(*label);
        for (i, name) in stats.tables.iter().enumerate() {
            s.push(name.to_uppercase(), get(stats, i));
        }
        report.add(s);
    }
    report.note(format!("{stats}"));
    Ok(report)
}
