//! `optimizer`: the cost-based planner's access-path choices, end to end.

use super::{cell, grid, ALL};
use crate::report::{FigureReport, Series};
use crate::runner::{BenchConfig, Instance};
use bitempo_core::{Error, Result, SysTime};
use bitempo_engine::api::{AccessPath, AppSpec, SysSpec, TuningConfig};
use bitempo_engine::testutil::{bitemp_table, simple_row};
use bitempo_engine::{build_engine, SystemKind};
use bitempo_workloads::Ctx;

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
    // Part one: the workload sweep. One series per engine; each cell's
    // breakdown table reports planned vs visited rows for the chosen path
    // on every partition the scan touched.
    let p = &inst.params;
    let points = [
        ("load snapshot", p.sys_initial),
        ("mid history", p.sys_mid),
        ("now", p.sys_now),
    ];
    let cells = points.map(|(x, at)| {
        cell(x, move |c, _| {
            c.scan(c.t.customer, &SysSpec::AsOf(at), &AppSpec::All, &[])
        })
    });
    let traced = cfg.with_trace(true);
    grid(&traced, &inst, &mut report, ALL, "AS OF sweep", &cells)?;
    for kind in SystemKind::ALL {
        let ctx = Ctx::new(inst.engine(kind))?;
        for (label, at) in points {
            let out = ctx.scan_output(ctx.t.customer, &SysSpec::AsOf(at), &AppSpec::All, &[])?;
            report.note(format!(
                "{kind} {label}: {} — planned {} rows, visited {}, emitted {}",
                out.access,
                out.metrics.planned_rows,
                out.metrics.rows_visited,
                out.rows.len(),
            ));
        }
    }

    // Part two: the controlled crossover. `n` keys inserted one commit
    // apart make `AS OF t` qualify exactly `t` of `n` stored versions, so
    // the swept fractions bracket the probe's break-even point from both
    // sides and the chosen path must flip from index to scan.
    const CROSS_N: i64 = 400;
    for kind in SystemKind::ALL {
        let mut engine = build_engine(kind);
        let t = engine.create_table(bitemp_table("cross"))?;
        for i in 0..CROSS_N {
            // tblint: allow(TB007) pre-serving seed of a throwaway optimizer fixture
            engine.insert(t, simple_row(i, i), None)?;
            engine.commit();
        }
        engine.apply_tuning(&TuningConfig::temporal().with_workers(1))?;
        let mut s = Series::new(format!("{kind} - crossover (rows visited)"));
        for (pct, expect_probe) in [(5i64, true), (10, true), (25, false), (100, false)] {
            let at = SysTime((CROSS_N * pct / 100) as u64);
            let out = engine.scan(t, &SysSpec::AsOf(at), &AppSpec::All, &[])?;
            let probed = matches!(out.access, AccessPath::TemporalProbe(_));
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
    Ok(report)
}
