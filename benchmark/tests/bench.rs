//! Runs the benchmark binary itself, at `--smoke` scale: the manifest and
//! the output agree, and the op stream is a pure function of the seed.
//! (That a different seed keeps every end-to-end metric inside its bound is
//! a statement about full-length runs; the noise study checks it.)

use bitempo_benchmark::manifest::{self, Applies, Metric};
use bitempo_benchmark::measure::{parse_result_line, Parsed};
use std::process::Command;

/// Runs share `results/<workload>.trace.json`, so one at a time.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn run(workload: &str, seed: u64, trace: bool) -> Parsed {
    let _guard = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let out = Command::new(env!("CARGO_BIN_EXE_bitempo-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed = stdout
        .lines()
        .last()
        .and_then(parse_result_line)
        .unwrap_or_else(|| panic!("{workload}: last line is not a result line:\n{stdout}"));
    // Every metric is also printed by name with its unit, for people.
    for (name, value, unit) in &parsed.metrics {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("metric {name} = {value} {unit}"))),
            "{workload}: `{name}` is not printed by name"
        );
    }
    assert!(stdout.contains("ops_attempted") && stdout.contains("ops_failed"));
    assert!(parsed.correct && parsed.failed == 0 && parsed.attempted >= 1);
    parsed
}

fn assert_declared(workload: &str, got: &Parsed, declared: &[Metric]) {
    let got_names: Vec<(&str, &str)> = got
        .metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), u.as_str()))
        .collect();
    let want: Vec<(&str, &str)> = declared.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    assert_eq!(got_names, want, "{workload}: printed metrics != manifest");
    // No value is NaN; one that must be positive is; a metric the workload
    // does not exercise reads 0 (the run itself fails on any of these, too).
    for ((name, value, _), m) in got.metrics.iter().zip(declared) {
        let ok = match m.applies(workload) {
            Applies::No => *value == 0.0,
            Applies::Finite => value.is_finite(),
            Applies::Positive => value.is_finite() && *value > 0.0,
        };
        assert!(ok, "{workload}: {name} = {value}");
    }
}

fn value(p: &Parsed, name: &str) -> f64 {
    p.metrics
        .iter()
        .find(|(n, ..)| n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn benchmark_json_is_the_rendered_manifest() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        manifest::manifest_json(),
        "regenerate with `--print-manifest > BENCHMARK.json`"
    );
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    for w in &manifest::WORKLOADS {
        let plain = run(w.name, 1, false);
        assert_declared(w.name, &plain, &manifest::end_to_end());
        let traced = run(w.name, 1, true);
        assert_declared(w.name, &traced, &manifest::per_layer());
        assert!(value(&traced, "trace.spans") > 0.0);
        // The trace file loads as chrome-trace JSON of complete events, and
        // every span has a parent or is an op's root.
        let path = format!(
            "{}/results/{}.trace.json",
            env!("CARGO_MANIFEST_DIR"),
            w.name
        );
        let text = std::fs::read_to_string(&path).expect("trace file written");
        assert!(text.starts_with("{\"displayTimeUnit\"") && text.trim_end().ends_with("]}"));
        let events = text.lines().filter(|l| l.starts_with("{\"name\"")).count();
        assert!(events > 0, "{path} holds no events");
        assert_eq!(
            events,
            text.matches("\"ph\":\"X\"").count(),
            "one complete event per line"
        );
        assert_eq!(
            events,
            text.matches("\"parent\":").count(),
            "every span names its parent (null for a root op span)"
        );
    }
}

#[test]
fn layers_discriminate_between_the_workloads() {
    let scan = run(manifest::QUERY_SCAN, 3, true);
    let index = run(manifest::QUERY_INDEX, 3, true);
    assert_eq!(value(&scan, "engine.index_served_frac"), 0.0);
    for e in ["a", "d"] {
        assert!(value(&index, &format!("engine.index_served_frac_{e}")) >= 0.5);
    }
    assert!(value(&scan, "query.operator_self_us_T") > 0.0);
    assert_eq!(value(&scan, "query.operator_self_us_K1"), 0.0);
    for serve in [manifest::SERVE_TXN, manifest::SERVE_SHARDED] {
        let p = run(serve, 3, true);
        for (name, v, _) in &p.metrics {
            if name.starts_with("query.operator_self_us_") {
                assert_eq!(*v, 0.0, "{serve}: no query operator runs, yet {name} = {v}");
            }
        }
    }
    let sharded = run(manifest::SERVE_SHARDED, 3, true);
    assert_eq!(value(&sharded, "shard.cross_shard_frac"), 0.25);
    assert!(value(&sharded, "shard.cross_over_single_ratio") > 0.0);
}

#[test]
fn the_same_seed_repeats_every_exact_count() {
    const EXACT: [&str; 6] = [
        "wal.bytes_per_commit",
        "wal.sink_writes_per_commit",
        "engine.rows_visited_per_row_out",
        "shard.cross_shard_frac",
        "query.rows_out_total",
        "trace.spans",
    ];
    for w in &manifest::WORKLOADS {
        let (a, b, other) = (
            run(w.name, 7, true),
            run(w.name, 7, true),
            run(w.name, 8, true),
        );
        for name in EXACT {
            assert_eq!(value(&a, name), value(&b, name), "{}: {name}", w.name);
        }
        assert_eq!(a.attempted, b.attempted, "{}", w.name);
        // Another seed is another op stream. The query workloads show it in
        // a count (other parameters return other rows); the serve workloads
        // draw only keys from the seed, and every key costs the same counts.
        if w.name.starts_with("query_") {
            assert!(
                EXACT.iter().any(|n| value(&a, n) != value(&other, n)),
                "{}: seed 8 repeated seed 7's counts",
                w.name
            );
        }
    }
}
