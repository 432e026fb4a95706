//! The single definition of what the benchmark measures: workloads,
//! end-to-end metrics with their regression bounds, per-layer metrics.
//! `../BENCHMARK.json` is this file rendered by `--print-manifest`; a test
//! keeps the two identical.

/// Seconds one run measures (`run_seconds`): the fixed work of every
/// workload is sized so its measured phase takes about this long.
pub const RUN_SECONDS: u64 = 20;

/// A workload and why it is in the set.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Whether a workload reports a metric, and what its value must be. The
/// driver's contract wants every declared metric in every result line, so a
/// metric that does not apply is printed as 0; a run fails when a metric
/// that applies is unset or breaks its condition, and when one that does
/// not apply was set, so a broken probe cannot pass for "not applicable".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applies {
    /// The workload does not exercise the layer: the run must not set it.
    No,
    /// Must be set and finite; 0 or a negative value can be the right
    /// answer (a fraction, a difference).
    Finite,
    /// Must be set, finite and above 0.
    Positive,
}
use Applies::{Finite, No, Positive};

/// `Applies` per workload, in [`WORKLOADS`] order.
type PerWorkload = [Applies; 4];
const ALL: PerWorkload = [Positive; 4];
const ALL_FINITE: PerWorkload = [Finite; 4];
const QUERY: PerWorkload = [Positive, Positive, No, No];
const SCAN: PerWorkload = [Positive, No, No, No];
const INDEX: PerWorkload = [No, Positive, No, No];
const SERVE: PerWorkload = [No, No, Positive, Positive];
const TXN: PerWorkload = [No, No, Positive, No];
const SHARDED: PerWorkload = [No, No, No, Positive];

/// A declared metric. `bound` is `Some` for end-to-end metrics only.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
    applies: PerWorkload,
}

impl Metric {
    /// What `workload` owes this metric.
    pub fn applies(&self, workload: &str) -> Applies {
        WORKLOADS
            .iter()
            .position(|w| w.name == workload)
            .map_or(No, |i| self.applies[i])
    }
}

pub const QUERY_SCAN: &str = "query_scan";
pub const QUERY_INDEX: &str = "query_index";
pub const SERVE_TXN: &str = "serve_txn";
pub const SERVE_SHARDED: &str = "serve_sharded";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: QUERY_SCAN,
        why: "T/H/K/R/B queries on untuned engines: every answer is a sequential scan plus query operators, access-path selection does nothing; setup_s is the archive load",
    },
    Workload {
        name: QUERY_INDEX,
        why: "same data under key+time and temporal indexes: K audits bypass the row scanner on A and D, so index, tindex and optimizer decide; Hctl is the control the tuning slows",
    },
    Workload {
        name: SERVE_TXN,
        why: "2 closed-loop clients on one TxnManager per engine, dur_async file WAL: txn validate/publish, wal submit and point DML do the work, no scan operator runs; ends recovered == served",
    },
    Workload {
        name: SERVE_SHARDED,
        why: "serve_txn's storm (same pattern, op counts, keys) through a 4-shard Cluster, every 4th write cross-shard: adds routing, oracle and 2PC, and quarters the table a shard scans; facade.* separates the two",
    },
];

/// Engine suffixes, in `SystemKind::ALL` order.
pub const ENGINES: [&str; 4] = ["a", "b", "c", "d"];

/// Op classes of the two query workloads (span `query.<class>`).
pub const SCAN_CLASSES: [&str; 5] = ["T", "H", "K", "R", "B"];
pub const INDEX_CLASSES: [&str; 5] = ["K1", "K2", "K1pp", "T1early", "Hctl"];
/// Op classes of the two serve workloads (span `op.<class>`). The storm is
/// the same; the cluster tells a cross-shard write from a single-shard one.
pub const TXN_CLASSES: [&str; 3] = ["read_current", "read_asof", "write"];
pub const SHARD_CLASSES: [&str; 4] = ["read_snapshot", "read_asof", "write_single", "write_cross"];
/// The layers the facade-tax series prices one identical op at.
pub const FACADES: [&str; 4] = ["engine", "txn", "shard1", "shard4"];

/// `setup_s` cannot be demoted: the driver's contract requires it among the
/// end-to-end metrics and asks for the largest bound on it.
pub const SETUP_BOUND: f64 = 0.25;

/// Candidates that did not repeat within a tenth in the noise study
/// (`NOISE.md`): reported in the per-layer table, without a bound.
pub const DEMOTED: [&str; 8] = [
    "ops_per_s",
    "lat_p50_us",
    "lat_p95_us",
    "lat_p50_us_a",
    "lat_p50_us_b",
    "lat_p50_us_c",
    "lat_p50_us_d",
    "cpu_us_per_op",
];

/// Within-set spread, (max - min) / median over the runs of one set, above
/// which a candidate "does not repeat within a tenth" and is demoted.
pub const REPEATS_WITHIN: f64 = 0.10;

/// The issue's ten end-to-end candidates with the issue's bounds; every
/// untraced run measures and prints all ten.
pub fn candidates() -> Vec<Metric> {
    let c = |name: &str, unit, better, bound| Metric {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        applies: ALL,
    };
    let mut v = vec![
        c("setup_s", "s", "lower", SETUP_BOUND),
        c("ops_per_s", "1/s", "higher", 0.1),
        c("lat_p50_us", "us", "lower", 0.1),
        c("lat_p95_us", "us", "lower", 0.1),
    ];
    for e in ENGINES {
        v.push(c(&format!("lat_p50_us_{e}"), "us", "lower", 0.1));
    }
    v.push(c("cpu_us_per_op", "us", "lower", 0.1));
    v.push(c("peak_rss_mib", "MiB", "lower", 0.03));
    v
}

/// The end-to-end metrics: the candidates that repeat (see `NOISE.md`).
/// They carry the regression bounds and make up the `--trace 0` result line.
pub fn end_to_end() -> Vec<Metric> {
    let mut v = candidates();
    v.retain(|m| !DEMOTED.contains(&m.name.as_str()));
    v
}

/// The per-layer metrics of the traced run, the demoted candidates last.
pub fn per_layer() -> Vec<Metric> {
    let mut v: Vec<Metric> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str, applies| {
        v.push(Metric {
            name,
            unit,
            better,
            bound: None,
            applies,
        })
    };
    type Add<'a> = &'a mut dyn FnMut(String, &'static str, &'static str, PerWorkload);
    let per_engine = |add: Add<'_>, stem: &str, unit, better, applies| {
        for e in ENGINES {
            add(format!("{stem}_{e}"), unit, better, applies);
        }
    };
    add("dbgen.generate_s".into(), "s", "lower", QUERY);
    add("histgen.generate_s".into(), "s", "lower", QUERY);
    per_engine(&mut add, "histgen.replay_txn_per_s", "1/s", "higher", QUERY);
    per_engine(
        &mut add,
        "histgen.replay_commit_p50_us",
        "us",
        "lower",
        QUERY,
    );
    per_engine(&mut add, "engine.apply_tuning_s", "s", "lower", QUERY);
    add("tindex.build_s".into(), "s", "lower", INDEX);
    add("tindex.bytes_per_version".into(), "bytes", "lower", INDEX);
    add("engine.scan_busy_frac".into(), "frac", "lower", QUERY);
    for c in SCAN_CLASSES {
        add(format!("query.operator_self_us_{c}"), "us", "lower", SCAN);
    }
    for c in INDEX_CLASSES {
        add(format!("query.operator_self_us_{c}"), "us", "lower", INDEX);
    }
    add("query.rows_out_total".into(), "count", "higher", QUERY);
    add(
        "engine.rows_visited_per_row_out".into(),
        "count",
        "lower",
        ALL,
    );
    add(
        "engine.versions_pruned_frac".into(),
        "frac",
        "lower",
        ALL_FINITE,
    );
    // 0 on `query_scan` by construction, and wherever no index is probed.
    add(
        "engine.index_served_frac".into(),
        "frac",
        "higher",
        ALL_FINITE,
    );
    per_engine(
        &mut add,
        "engine.index_served_frac",
        "frac",
        "higher",
        ALL_FINITE,
    );
    let index_only_positive = [Finite, Positive, Finite, Finite];
    add(
        "engine.index_hit_frac".into(),
        "frac",
        "higher",
        index_only_positive,
    );
    add(
        "tindex.node_visits_per_probe".into(),
        "count",
        "lower",
        index_only_positive,
    );
    add(
        "query.optimizer_est_ratio".into(),
        "ratio",
        "lower",
        ALL_FINITE,
    );
    per_engine(&mut add, "engine.dml_us_per_write", "us", "lower", SERVE);
    per_engine(&mut add, "engine.lookup_us", "us", "lower", SERVE);
    add("txn.begin_us_p50".into(), "us", "lower", TXN);
    add("txn.commit_self_us_p50".into(), "us", "lower", TXN);
    add(
        "txn.snapshot_read_over_engine_us".into(),
        "us",
        "lower",
        TXN,
    );
    // Timing-dependent: two clients may never collide.
    add(
        "txn.conflict_retry_frac".into(),
        "frac",
        "lower",
        [No, No, Finite, No],
    );
    add("txn.c2_over_c1_ops".into(), "ratio", "higher", TXN);
    add("wal.bytes_per_commit".into(), "bytes", "lower", SERVE);
    add("wal.sink_writes_per_commit".into(), "count", "lower", SERVE);
    add("wal.submit_us_p50".into(), "us", "lower", SERVE);
    add("wal.strict_commit_us_p50".into(), "us", "lower", TXN);
    add("wal.syncs_per_commit".into(), "count", "lower", TXN);
    add("wal.recover_txn_per_s".into(), "1/s", "higher", TXN);
    add(
        "wal.checkpoint_encode_mib_per_s".into(),
        "MiB/s",
        "higher",
        TXN,
    );
    add("wal.checkpoint_restore_ms".into(), "ms", "lower", TXN);
    // A difference of two medians a few tenths of a microsecond apart.
    add(
        "shard.commit_over_txn_us".into(),
        "us",
        "lower",
        [No, No, No, Finite],
    );
    add(
        "shard.cross_over_single_ratio".into(),
        "ratio",
        "lower",
        SHARDED,
    );
    add("shard.cross_shard_frac".into(), "frac", "lower", SHARDED);
    add("shard.oracle_us_per_commit".into(), "us", "lower", SHARDED);
    add("shard.snapshot_read_us_p50".into(), "us", "lower", SHARDED);
    add("shard.recover_ms".into(), "ms", "lower", SHARDED);
    for f in FACADES {
        add(format!("facade.write_us_{f}"), "us", "lower", SHARDED);
    }
    for f in FACADES {
        add(format!("facade.asof_read_us_{f}"), "us", "lower", SHARDED);
    }
    // Recorded against unrecorded rounds: noise can make it negative.
    add("trace.overhead_frac".into(), "frac", "lower", ALL_FINITE);
    add("trace.spans".into(), "count", "lower", ALL);
    for m in candidates() {
        if DEMOTED.contains(&m.name.as_str()) {
            add(m.name, m.unit, m.better, ALL);
        }
    }
    v
}

/// What a run measures and prints by name: all ten candidates untraced
/// (the noise study reads them), the per-layer metrics traced.
pub fn printed(trace: bool) -> Vec<Metric> {
    if trace {
        per_layer()
    } else {
        candidates()
    }
}

/// What a run's result line carries: exactly the declared `end_to_end`
/// metrics untraced, exactly the `per_layer` ones traced.
pub fn result_line_metrics(trace: bool) -> Vec<Metric> {
    if trace {
        per_layer()
    } else {
        end_to_end()
    }
}

/// The command the driver appends `--workload … --seed … --seconds …
/// --trace …` to, run from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Renders `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let mut out = String::from("{\n");
    let cmd: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
    out += &format!("  \"command\": [{}],\n", cmd.join(", "));
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(&m.name),
                quote(m.unit),
                quote(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(&m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_limits_fit_the_contract() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(ok(w.name) && seen.insert(w.name.to_string()), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
        for m in e2e.iter().chain(&layers) {
            assert!(ok(&m.name) && seen.insert(m.name.clone()), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn a_candidate_is_end_to_end_or_demoted_to_the_per_layer_table() {
        let (e2e, layers) = (end_to_end(), per_layer());
        let named = |ms: &[Metric], n: &str| ms.iter().filter(|m| m.name == n).count();
        for c in candidates() {
            let demoted = DEMOTED.contains(&c.name.as_str());
            assert_eq!(named(&e2e, &c.name), usize::from(!demoted), "{}", c.name);
            assert_eq!(named(&layers, &c.name), usize::from(demoted), "{}", c.name);
        }
        assert_eq!(e2e.len() + DEMOTED.len(), candidates().len());
        assert!(!DEMOTED.contains(&"setup_s"), "the contract requires it");
        assert!(e2e.iter().all(|m| m.bound.is_some()) && layers.iter().all(|m| m.bound.is_none()));
        // The contract: `setup_s` carries the largest bound.
        assert!(e2e.iter().all(|m| m.bound <= Some(SETUP_BOUND)));
    }
}
