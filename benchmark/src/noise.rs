//! The repeatability study (`--noise <sets> <runs>`): do sets of runs of
//! the *same* code agree? Sets alternate over the workloads, every set uses
//! seeds `1..=runs`, and each run is a fresh process of this binary. All
//! ten end-to-end candidates are judged, demoted or not, so that the
//! demotions can be derived from (and checked against) the output, which is
//! Markdown (committed as `NOISE.md`).
//!
//! A candidate *repeats* on a workload when, in every set, its runs lie
//! within a tenth of their median ((max - min) / median, the issue's rule)
//! and their interquartile spread stays within the metric's bound (the
//! driver's rule), and the last set's median is not worse than the first's
//! by more than the bound. A candidate that does not repeat on every
//! workload is to be demoted, not given a wider bound. `setup_s` is judged
//! like the others, but the driver's contract keeps it end-to-end whatever
//! it does and holds only its set medians to its bound.

use crate::manifest::{candidates, DEMOTED, REPEATS_WITHIN, WORKLOADS};
use crate::stats::{iqr_spread, median, range_spread};
use std::collections::BTreeMap;
use std::process::Command;

/// The candidates one run printed (`metric <name> = <value> <unit>`).
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        let why: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with("failure"))
            .collect();
        return Err(format!("{workload} seed {seed}: run failed: {why:?}"));
    }
    let mut values = BTreeMap::new();
    for line in stdout.lines() {
        let Some((name, rest)) = line
            .strip_prefix("metric ")
            .and_then(|l| l.split_once(" = "))
        else {
            continue;
        };
        let value = rest.split_whitespace().next().and_then(|v| v.parse().ok());
        values.insert(
            name.to_string(),
            value.ok_or_else(|| format!("{workload} seed {seed}: unreadable `{line}`"))?,
        );
    }
    Ok(values)
}

/// Runs the study and prints the report. Returns whether the manifest
/// agrees with it: every end-to-end metric repeats on every workload.
pub fn study(sets: usize, runs: usize, seconds: u64, only: &str) -> Result<bool, String> {
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .filter(|w| only.is_empty() || w.name == only)
        .collect();
    // values[workload][metric][set] -> one value per run
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    for set in 0..sets {
        for w in &workloads {
            for seed in 1..=runs as u64 {
                eprintln!("noise: set {} {} seed {seed}", set + 1, w.name);
                let run = run_once(w.name, seed, seconds)?;
                eprintln!("    {run:?}");
                for (name, v) in run {
                    let per_set = values.entry(w.name).or_default().entry(name).or_default();
                    per_set.resize(sets, Vec::new());
                    per_set[set].push(v);
                }
            }
        }
    }
    println!("# Noise study: {sets} sets x {runs} runs per workload, {seconds} s runs\n");
    println!(
        "Same code, seeds 1..={runs} in every set, sets alternating over the workloads; \
         every time is as timed. *range* is (max - min) / median over the runs of a set \
         (the issue's spread: a metric repeats when it is at most {:.0} %). *IQR* is \
         (Q3 - Q1) / median with Python's `statistics.quantiles(n=4)` (the driver's \
         spread: it must stay within the bound). *shift* is how much worse the last \
         set's median is than the first's (negative = better; within the bound).\n",
        REPEATS_WITHIN * 100.0
    );
    let pct = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{:.1} %", x * 100.0))
            .collect::<Vec<_>>()
            .join(" / ")
    };
    // metric -> workloads it does not repeat on
    let mut fails: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    let mut setup_medians_agree = true;
    for w in &workloads {
        println!("## {}\n", w.name);
        println!(
            "| metric | bound | median per set | range per set | IQR per set | shift | repeats |"
        );
        println!("|---|---|---|---|---|---|---|");
        for m in candidates() {
            let bound = m.bound.expect("candidates carry a bound");
            let per_set = values
                .get(w.name)
                .and_then(|v| v.get(&m.name))
                .ok_or_else(|| format!("{}: no run printed `{}`", w.name, m.name))?;
            let medians: Vec<f64> = per_set.iter().map(|v| median(v)).collect();
            let ranges: Vec<f64> = per_set.iter().map(|v| range_spread(v)).collect();
            let iqrs: Vec<f64> = per_set.iter().map(|v| iqr_spread(v)).collect();
            let (first, last) = (medians[0], medians[medians.len() - 1]);
            let shift = if m.better == "lower" {
                (last - first) / first
            } else {
                (first - last) / first
            };
            let repeats = ranges.iter().all(|r| *r <= REPEATS_WITHIN)
                && iqrs.iter().all(|i| *i <= bound)
                && shift <= bound;
            if !repeats {
                fails.entry(m.name.clone()).or_default().push(w.name);
            }
            setup_medians_agree &= m.name != "setup_s" || shift <= bound;
            println!(
                "| `{}` ({}) | {:.0} % | {} | {} | {} | {:+.1} % | {} |",
                m.name,
                m.unit,
                bound * 100.0,
                medians
                    .iter()
                    .map(|x| format!("{x:.4}"))
                    .collect::<Vec<_>>()
                    .join(" / "),
                pct(&ranges),
                pct(&iqrs),
                shift * 100.0,
                if repeats { "yes" } else { "**no**" },
            );
        }
        println!();
    }
    println!("## Verdicts\n");
    println!("| candidate | does not repeat on | this study says | the manifest has it |");
    println!("|---|---|---|---|");
    let mut agrees = setup_medians_agree;
    for m in candidates() {
        let failed_on = fails.get(&m.name).map_or(String::new(), |w| w.join(", "));
        let demoted = DEMOTED.contains(&m.name.as_str());
        let verdict = match (failed_on.is_empty(), m.name == "setup_s") {
            (true, _) => "keep",
            (false, true) if setup_medians_agree => {
                "does not repeat; the contract keeps it, its set medians agree"
            }
            (false, true) => "does not repeat; the contract keeps it, its set medians DISAGREE",
            (false, false) => "demote",
        };
        agrees &= demoted || failed_on.is_empty() || m.name == "setup_s";
        println!(
            "| `{}` | {} | {verdict} | {} |",
            m.name,
            if failed_on.is_empty() {
                "-"
            } else {
                &failed_on
            },
            if demoted {
                "per-layer, no bound"
            } else {
                "end-to-end"
            }
        );
    }
    println!(
        "\nResult: {}",
        if agrees {
            "the manifest agrees with this study: every end-to-end metric but `setup_s` \
             repeats on every workload, and the set medians of `setup_s` agree within its bound."
        } else {
            "the manifest disagrees with this study: an end-to-end metric does not repeat \
             (demote it), or the set medians of `setup_s` are further apart than its bound."
        }
    );
    Ok(agrees)
}
