//! One function per paper artifact and per extension experiment, each
//! returning a [`FigureReport`] whose series mirror the figure's legend, and
//! [`EXPERIMENTS`], the registry the `experiments` binary runs them from;
//! DESIGN.md §4 maps ids to the paper.
//!
//! A timing figure is declared, not looped: a list of `Cell`s that
//! `grid` measures on each system, under each tuning setting
//! (`tuned_figure`) or at each step of a configuration sweep (`sweep`).
//! A failed cell fails its experiment, naming the system and the x label,
//! so every report that renders is all numbers and the `experiments`
//! binary exits 1 on a broken query. One file per family: `paper` (figures
//! and tables), `arch`, `diagnostics` (`scaling`, `explain`), `tindex`,
//! `optimizer` and `serving` (`durability`, `mvcc`, `sharding`).

mod arch;
mod diagnostics;
mod optimizer;
mod paper;
mod serving;
mod tindex;

pub use arch::*;
pub use diagnostics::*;
pub use optimizer::*;
pub use paper::*;
pub use serving::*;
pub use tindex::*;

use crate::report::{AccessRow, FigureReport, Series};
use crate::runner::{measure_traced, BenchConfig, Instance};
use bitempo_core::{Error, Result, Row};
use bitempo_engine::api::TuningConfig;
use bitempo_engine::SystemKind;
use bitempo_workloads::{Ctx, QueryParams};

/// An experiment: runs at a configuration and returns its report.
pub type Experiment = fn(&BenchConfig) -> Result<FigureReport>;

/// Every experiment by id, in `experiments run-all` order. Fig 14 and 15
/// run at [`BenchConfig::small_scale`] whatever the configuration, as the
/// paper measured them on a smaller data set (§5.6).
pub const EXPERIMENTS: [(&str, Experiment); 26] = [
    ("table1", table1),
    ("table2", table2),
    ("arch", architecture),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7a", |cfg| fig7(cfg, false)),
    ("fig7b", |cfg| fig7(cfg, true)),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", |_| fig14(&BenchConfig::small_scale())),
    ("scaling", scaling),
    ("explain", explain),
    ("temporal-index", temporal_index),
    ("optimizer", optimizer_experiment),
    ("durability", durability),
    ("mvcc", mvcc),
    ("sharding", sharding),
    ("fig15", |_| fig15(&BenchConfig::small_scale())),
    ("fig16", fig16),
];

/// Runs the experiment registered under `id` in [`EXPERIMENTS`].
pub fn run_experiment(id: &str, cfg: &BenchConfig) -> Result<FigureReport> {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .ok_or_else(|| Error::Invalid(format!("unknown experiment {id}")))?;
    run(cfg)
}

/// One cell of a timing figure: its x label and the query it times on a
/// system, given the instance's query parameters.
type Cell<'a> = (
    String,
    Box<dyn Fn(&Ctx<'_>, &QueryParams) -> Result<Vec<Row>> + 'a>,
);

/// The [`Cell`] timing `query` under the x label `x`.
fn cell<'a>(
    x: impl Into<String>,
    query: impl Fn(&Ctx<'_>, &QueryParams) -> Result<Vec<Row>> + 'a,
) -> Cell<'a> {
    (x.into(), Box::new(query))
}

/// A figure's tuning setting: the tuning, the suffix of its series labels
/// and the systems measured under it.
type Setting<'a> = (TuningConfig, &'a str, &'a [SystemKind]);

/// All four systems, as a setting's or a grid's systems.
const ALL: &[SystemKind] = &SystemKind::ALL;

/// `"{kind} - {suffix}"`, or the bare system name for an empty suffix.
fn series_label(kind: SystemKind, suffix: &str) -> String {
    if suffix.is_empty() {
        kind.to_string()
    } else {
        format!("{kind} - {suffix}")
    }
}

/// Measures every cell on each of `systems` with the paper's repetition
/// discipline ([`measure_traced`]) into the report's series labelled
/// `series_label(kind, suffix)`, added when the report has none yet. A
/// traced cell's access-path breakdown, aggregated from its last kept
/// repetition (access paths and work counters are deterministic across
/// repetitions), is attached to the series. A failed cell fails the grid
/// with `"{kind} {x}: {error}"`.
fn grid(
    cfg: &BenchConfig,
    inst: &Instance,
    report: &mut FigureReport,
    systems: &[SystemKind],
    suffix: &str,
    cells: &[Cell<'_>],
) -> Result<()> {
    for &kind in systems {
        let ctx = Ctx::new(inst.engine(kind))?;
        let label = series_label(kind, suffix);
        let at = report.series.iter().position(|s| s.label == label);
        let at = at.unwrap_or_else(|| {
            report.add(Series::new(label));
            report.series.len() - 1
        });
        for (x, query) in cells {
            let (m, logs) = measure_traced(cfg, || query(&ctx, &inst.params))
                .map_err(|e| Error::Invalid(format!("{kind} {x}: {e}")))?;
            let s = &mut report.series[at];
            s.push(x.as_str(), m.micros());
            if let Some(log) = logs.last() {
                let breakdown = AccessRow::aggregate(&log.scans);
                if !breakdown.is_empty() {
                    s.push_breakdown(x.as_str(), breakdown);
                }
            }
        }
    }
    Ok(())
}

/// Builds an instance at `cfg` under the first setting and measures the
/// cells `cells` makes for it by [`grid`] under every setting in turn,
/// retuning the instance for each later one.
fn tuned<'c>(
    cfg: &BenchConfig,
    report: &mut FigureReport,
    settings: &[Setting<'_>],
    cells: impl FnOnce(&Instance) -> Vec<Cell<'c>>,
) -> Result<()> {
    let mut inst = Instance::build(cfg, &settings[0].0)?;
    let cells = cells(&inst);
    for (i, (tuning, suffix, systems)) in settings.iter().enumerate() {
        if i > 0 {
            inst.retune(tuning)?;
        }
        grid(cfg, &inst, report, systems, suffix, &cells)?;
    }
    Ok(())
}

/// A timing figure: `report` with `cells` measured under every setting by
/// [`tuned`], then `note`.
fn tuned_figure(
    cfg: &BenchConfig,
    mut report: FigureReport,
    settings: &[Setting<'_>],
    cells: Vec<Cell<'_>>,
    note: &str,
) -> Result<FigureReport> {
    tuned(cfg, &mut report, settings, |_| cells)?;
    report.note(note);
    Ok(report)
}

/// A timing figure over a configuration sweep (Fig 4, 12, 13): `report`
/// with series `"{kind} - {suffix}"` for every system and setting, systems
/// outer, filled by [`tuned`] with one `query` cell per step, at x label
/// `x(step, instance)`, on an instance built at that step; then `note`.
fn sweep(
    mut report: FigureReport,
    steps: impl IntoIterator<Item = BenchConfig>,
    settings: &[Setting<'_>],
    x: impl Fn(&BenchConfig, &Instance) -> String,
    query: impl Fn(&Ctx<'_>, &QueryParams) -> Result<Vec<Row>>,
    note: &str,
) -> Result<FigureReport> {
    for kind in SystemKind::ALL {
        for (_, suffix, _) in settings {
            report.add(Series::new(series_label(kind, suffix)));
        }
    }
    for step in steps {
        tuned(&step, &mut report, settings, |inst| {
            vec![cell(x(&step, inst), &query)]
        })?;
    }
    report.note(note);
    Ok(report)
}

#[cfg(test)]
mod tests {
    //! What the reports *say*; their full shapes (series, x labels, access
    //! rows, notes) are pinned by `tests/report_shapes.rs`.

    use super::*;

    fn micro_cfg() -> BenchConfig {
        BenchConfig {
            h: 0.001,
            m: 0.0003,
            repetitions: 1,
            discard: 0,
            batch_size: 1,
            workers: 2,
            trace: false,
        }
    }

    #[test]
    fn explain_reports_access_paths_for_every_engine() {
        let r = explain(&micro_cfg()).unwrap();
        for s in &r.series {
            // Tracing is forced on, so every cell carries a breakdown.
            assert_eq!(s.breakdowns.len(), s.points.len(), "{}", s.label);
            for (x, rows) in &s.breakdowns {
                assert!(!rows.is_empty(), "{} at {x} has no access rows", s.label);
            }
        }
        // The traced pass exported a loadable chrome trace.
        let trace = std::fs::read_to_string("results/explain.trace.json").unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
    }

    #[test]
    fn temporal_index_experiment_probes_and_reports_costs() {
        let r = temporal_index(&micro_cfg()).unwrap();
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
        // The crossover assertions live inside the experiment: it returns
        // Err if any engine picks the wrong side of the break-even point.
        let r = optimizer_experiment(&micro_cfg()).unwrap();
        let probes = r
            .notes
            .iter()
            .filter(|n| n.contains("crossover at 5%: tindex("))
            .count();
        assert_eq!(probes, 4, "{:?}", r.notes);
    }

    #[test]
    fn table_experiments_run() {
        table1(&micro_cfg()).unwrap();
        table2(&micro_cfg()).unwrap();
        let r = architecture(&micro_cfg()).unwrap();
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
            if let Some(b) = point("Key+Time tuning indexes B / index entry") {
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
    fn a_failing_cell_fails_its_experiment() {
        let inst = Instance::build(&micro_cfg(), &TuningConfig::none()).unwrap();
        let mut report = FigureReport::new("policy", "A failed cell", "µs");
        let cells = [
            cell("fine", |c, _| bitempo_workloads::tt::t5_all(c)),
            cell("broken", |_, _| Err(Error::Invalid("boom".into()))),
        ];
        let err = grid(&micro_cfg(), &inst, &mut report, ALL, "", &cells).unwrap_err();
        assert_eq!(
            err,
            Error::Invalid("System A broken: invalid argument: boom".into())
        );
    }

    #[test]
    fn unknown_experiment_rejected() {
        assert!(run_experiment("fig99", &micro_cfg()).is_err());
    }

    /// Every value of every series is finite and non-negative (positive
    /// when `strict`).
    fn assert_values(r: &FigureReport, strict: bool) {
        for s in &r.series {
            for (x, v) in &s.points {
                let ok = if strict { *v > 0.0 } else { *v >= 0.0 };
                assert!(v.is_finite() && ok, "{}/{x}: {v}", s.label);
            }
        }
    }

    #[test]
    fn durability_experiment_covers_every_mode_without_errors() {
        assert_values(&durability(&micro_cfg()).unwrap(), true);
    }

    #[test]
    fn mvcc_experiment_sweeps_threads_and_modes_without_errors() {
        let r = mvcc(&micro_cfg()).unwrap();
        assert_values(&r, false);
        // One thread can never lose first-committer-wins validation.
        for s in r.series.iter().filter(|s| s.label.contains("conflict_")) {
            for (x, v) in s.points.iter().filter(|(x, _)| x.starts_with("1thr")) {
                assert_eq!(*v, 0.0, "{}/{x}: single-threaded aborts", s.label);
            }
        }
    }

    #[test]
    fn sharding_experiment_sweeps_shards_and_verifies_recovery() {
        let r = sharding(&micro_cfg()).unwrap();
        assert_values(&r, false);
        // A single-shard cluster can never run 2PC; multi-shard cells
        // always see some cross-shard commits (the storm steers one
        // operation in eight across shards, plus the closing commit).
        for s in r.series.iter().filter(|s| s.label.contains("cross_shard")) {
            for (x, v) in &s.points {
                if x.starts_with("1sh") {
                    assert_eq!(*v, 0.0, "{}/{x}: cross-shard on one shard", s.label);
                } else {
                    assert!(*v > 0.0, "{}/{x}: no cross-shard commits", s.label);
                }
            }
        }
    }
}
