//! What every workload shares: repeated set-ups, the (engine, op class)
//! latency cells and their reduction to the end-to-end metrics, the round
//! driver, process CPU and memory readings, and the per-run result with its
//! final JSON line. Every time is reported as timed: nothing is normalised.

use crate::manifest::{Applies, Metric, ENGINES};
use crate::stats::{block_p95, geomean, median};
use std::collections::BTreeMap;
use std::time::Instant;

/// Runs `n` complete set-ups, dropping each before the next is built, and
/// returns the last one with the median set-up time in seconds (the driver's
/// contract asks for the median of several set-ups in a run).
pub fn timed_setups<T, E>(
    n: usize,
    mut build: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("n >= 1 set-ups ran"), median(&seconds)))
}

/// Latency samples per (engine, op class) cell, in time order, plus each
/// engine's rate in every round.
pub struct Cells {
    pub classes: Vec<&'static str>,
    /// `[engine][class]` -> microseconds, in the order they were measured.
    lat_us: Vec<Vec<Vec<f64>>>,
    /// `[engine]` -> ops per second of each round's visit.
    rates: Vec<Vec<f64>>,
    /// `[engine]` -> wall seconds of its visits, summed.
    visit_s: Vec<f64>,
    ops: u64,
}

impl Cells {
    pub fn new(classes: &[&'static str]) -> Cells {
        Cells {
            classes: classes.to_vec(),
            lat_us: vec![vec![Vec::new(); classes.len()]; ENGINES.len()],
            rates: vec![Vec::new(); ENGINES.len()],
            visit_s: vec![0.0; ENGINES.len()],
            ops: 0,
        }
    }

    /// One completed op.
    pub fn sample(&mut self, engine: usize, class: usize, us: f64) {
        self.lat_us[engine][class].push(us);
        self.ops += 1;
    }

    /// One engine's visit in a round: `ops` completed in `wall_s` seconds.
    pub fn visit(&mut self, engine: usize, ops: usize, wall_s: f64) {
        self.rates[engine].push(ops as f64 / wall_s.max(1e-9));
        self.visit_s[engine] += wall_s;
    }

    /// Ops measured so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    pub fn p50(&self, engine: usize, class: usize) -> f64 {
        median(&self.lat_us[engine][class])
    }

    pub fn p95(&self, engine: usize, class: usize) -> f64 {
        block_p95(&self.lat_us[engine][class])
    }

    /// Geomean over engines of the median per-round rate, counting only the
    /// rounds `keep` selects (by index).
    pub fn ops_per_s_where(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let per_engine: Vec<f64> = self
            .rates
            .iter()
            .map(|r| {
                let kept: Vec<f64> = r
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| keep(*i))
                    .map(|(_, x)| *x)
                    .collect();
                median(&kept)
            })
            .collect();
        geomean(&per_engine)
    }

    /// `ops_per_s`, `lat_p50_us`, `lat_p95_us` and `lat_p50_us_<engine>`.
    pub fn end_to_end(&self) -> Vec<(String, f64)> {
        let cells =
            || (0..ENGINES.len()).flat_map(|e| (0..self.classes.len()).map(move |c| (e, c)));
        let p50s: Vec<f64> = cells().map(|(e, c)| self.p50(e, c)).collect();
        let p95s: Vec<f64> = cells().map(|(e, c)| self.p95(e, c)).collect();
        let mut out = vec![
            ("ops_per_s".to_string(), self.ops_per_s_where(|_| true)),
            ("lat_p50_us".to_string(), geomean(&p50s)),
            ("lat_p95_us".to_string(), geomean(&p95s)),
        ];
        for (e, name) in ENGINES.iter().enumerate() {
            let row: Vec<f64> = (0..self.classes.len()).map(|c| self.p50(e, c)).collect();
            out.push((format!("lat_p50_us_{name}"), geomean(&row)));
        }
        out
    }

    /// The cell table, for people: p50 / p95 / samples per cell.
    pub fn print_table(&self) {
        println!(
            "measured wall per engine A/B/C/D: {}",
            self.visit_s
                .iter()
                .map(|s| format!("{s:.2} s"))
                .collect::<Vec<_>>()
                .join(" / ")
        );
        for (name, rates) in ENGINES.iter().zip(&self.rates) {
            let mut r = rates.clone();
            crate::stats::sort(&mut r);
            println!(
                "  rounds of {name}: ops/s min {:.0} / median {:.0} / max {:.0}",
                r.first().copied().unwrap_or(f64::NAN),
                median(&r),
                r.last().copied().unwrap_or(f64::NAN)
            );
        }
        println!("cell table (p50 us / block-median p95 us / samples):");
        for (e, name) in ENGINES.iter().enumerate() {
            for (c, class) in self.classes.iter().enumerate() {
                println!(
                    "  cell {name} {class}: {:.2} / {:.2} / {}",
                    self.p50(e, c),
                    self.p95(e, c),
                    self.lat_us[e][c].len()
                );
            }
        }
    }
}

/// What the measured rounds of a run produced.
pub struct Measured {
    pub cells: Cells,
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// Process CPU (user + system, all threads) over the measured phase per op.
    pub cpu_us_per_op: f64,
}

/// Drives a workload's rounds. The work is fixed: `rounds` measured rounds
/// always run, however long the host takes. Round 0 comes first, warms up
/// and is discarded; the traced run records every second round. `one_round`
/// visits the engines for round `n` and files its timings in the cells.
pub fn measure_rounds(
    trace: bool,
    classes: &[&'static str],
    rounds: usize,
    mut one_round: impl FnMut(usize, &mut Cells),
) -> Measured {
    one_round(0, &mut Cells::new(classes));
    let mut cells = Cells::new(classes);
    let (started, cpu0) = (Instant::now(), cpu_seconds());
    for round in 1..=rounds {
        crate::trace::set_recording(trace && round % 2 == 1);
        one_round(round, &mut cells);
        crate::trace::set_recording(false);
    }
    Measured {
        cpu_us_per_op: (cpu_seconds() - cpu0) * 1e6 / cells.ops().max(1) as f64,
        wall_s: started.elapsed().as_secs_f64(),
        cells,
    }
}

impl Measured {
    /// Sets the metrics the cells and the CPU reading give: the issue's ten
    /// end-to-end candidates but `setup_s` and `peak_rss_mib`.
    pub fn report(&self, out: &mut Outcome) {
        for (name, v) in self.cells.end_to_end() {
            out.set(&name, v);
        }
        out.set("cpu_us_per_op", self.cpu_us_per_op);
    }

    /// Sets the traced run's own metrics and writes the trace file. Odd
    /// rounds recorded, even ones did not: their rates give the overhead.
    pub fn report_trace(
        &self,
        workload: &str,
        rec: &crate::layers::Recording<'_>,
        ops_per_cell: usize,
        out: &mut Outcome,
    ) -> bitempo_core::Result<()> {
        let traced_rate = self.cells.ops_per_s_where(|i| i % 2 == 0);
        let plain_rate = self.cells.ops_per_s_where(|i| i % 2 == 1);
        out.set("trace.overhead_frac", 1.0 - traced_rate / plain_rate);
        out.set("trace.spans", rec.spans.len() as f64);
        println!(
            "trace: {} spans, worst gap between an op's root span and its self times {:.4} %",
            rec.spans.len(),
            rec.worst_self_time_gap() * 100.0
        );
        crate::write_trace(workload, rec.spans, ops_per_cell)
    }
}

/// Process user+system CPU seconds so far (all threads, also ended ones),
/// from `/proc/self/stat`; clock ticks are 100 Hz on Linux.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// What a run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed, first few.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// One check of the run's own: counts as an op attempted, and as a
    /// failed one when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Holds the run to what the manifest declares for `workload`: a metric
    /// that applies must have been measured and be finite (and positive,
    /// where 0 cannot be right), one that does not apply must not have been
    /// set. Each declared metric is one check.
    pub fn check_declared(&mut self, workload: &str, declared: &[Metric]) {
        for m in declared {
            let broken = match (m.applies(workload), self.metrics.get(&m.name).copied()) {
                (Applies::No, None) => None,
                (Applies::No, Some(v)) => Some(format!("= {v}, but is declared not to apply")),
                (_, None) => Some("was not measured".to_string()),
                (Applies::Finite, Some(v)) if v.is_finite() => None,
                (Applies::Positive, Some(v)) if v.is_finite() && v > 0.0 => None,
                (need, Some(v)) => Some(format!("= {v}, declared {need:?}")),
            };
            self.check(broken.is_none(), || {
                format!("metric {} {}", m.name, broken.unwrap_or_default())
            });
        }
    }

    /// The value the result line carries for `m`: the one measured, or 0
    /// where the metric does not apply to the workload (the driver's
    /// contract wants every declared metric in every result line). A run
    /// that left an applicable metric unset has already failed.
    pub fn printed(&self, m: &Metric) -> f64 {
        let v = self.metrics.get(&m.name).copied().unwrap_or(0.0);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// the metrics in declaration order with their declared units.
pub fn result_line(out: &Outcome, declared: &[Metric]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                out.printed(m),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// A parsed [`result_line`] (the tests read runs back).
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses a line [`result_line`] printed. Knows that format only.
pub fn parse_result_line(line: &str) -> Option<Parsed> {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for part in body.split("\"}") {
        // `[, ]"name": {"value": V, "unit": "U`
        let Some((name, rest)) = part
            .trim_start_matches([',', ' '])
            .split_once("\": {\"value\": ")
        else {
            continue;
        };
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        metrics.push((
            name.trim_start_matches('"').to_string(),
            value.parse().ok()?,
            unit.to_string(),
        ));
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let declared = crate::manifest::end_to_end();
        let mut out = Outcome {
            attempted: 12,
            ..Default::default()
        };
        out.set("setup_s", 1.25);
        out.set("peak_rss_mib", 3e2);
        let line = result_line(&out, &declared);
        let p = parse_result_line(&line).expect("parses");
        assert!(p.correct && p.attempted == 12 && p.failed == 0);
        assert_eq!(p.metrics.len(), declared.len());
        assert_eq!(p.metrics[0], ("setup_s".into(), 1.25, "s".into()));
        assert!(p
            .metrics
            .contains(&("peak_rss_mib".into(), 300.0, "MiB".into())));
    }

    #[test]
    fn cells_reduce_per_cell_then_geomean() {
        let mut c = Cells::new(&["x", "y"]);
        for e in 0..4 {
            for _ in 0..10 {
                c.sample(e, 0, 1.0);
                c.sample(e, 1, 100.0);
            }
            c.visit(e, 20, 0.5);
        }
        let m: BTreeMap<_, _> = c.end_to_end().into_iter().collect();
        assert!((m["lat_p50_us"] - 10.0).abs() < 1e-9, "geomean, not pooled");
        assert!((m["ops_per_s"] - 40.0).abs() < 1e-9);
        assert_eq!(c.ops(), 80);
        assert!(cpu_seconds() >= 0.0 && peak_rss_mib() > 0.0);
    }

    #[test]
    fn a_run_is_held_to_what_the_manifest_declares() {
        let declared = crate::manifest::per_layer();
        let applies = |w: &str| {
            let on = |a: Applies| declared.iter().filter(|m| m.applies(w) == a).count() as u64;
            (on(Applies::No), on(Applies::Finite), on(Applies::Positive))
        };
        // Nothing measured: every metric that applies is a failure.
        let mut out = Outcome::default();
        out.check_declared(crate::manifest::SERVE_TXN, &declared);
        let (no, finite, positive) = applies(crate::manifest::SERVE_TXN);
        assert!(no > 0 && positive > 0);
        assert_eq!(out.attempted, declared.len() as u64);
        assert_eq!(out.failed, finite + positive);
        // Everything set to 0: wrong where the metric does not apply, and
        // where it must be positive; NaN is wrong everywhere.
        for (value, wrong) in [(0.0, no + positive), (f64::NAN, declared.len() as u64)] {
            let mut out = Outcome::default();
            for m in &declared {
                out.set(&m.name, value);
            }
            out.check_declared(crate::manifest::SERVE_TXN, &declared);
            assert_eq!(out.failed, wrong);
        }
    }

    #[test]
    fn an_empty_cell_is_not_a_number() {
        let c = Cells::new(&["x"]);
        assert!(c.end_to_end().iter().all(|(_, v)| v.is_nan()));
    }
}
