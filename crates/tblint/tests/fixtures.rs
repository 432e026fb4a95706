//! Fixture-based rule tests: every TB rule has one firing and one clean
//! fixture under `fixtures/` (a directory the workspace walker skips, so
//! the firing fixtures never pollute a real lint run).

use tblint::rules;
use tblint::{check_source, Diagnostic};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn tb001_fixture_fires_outside_bench_and_not_inside() {
    let src = fixture("tb001_fires.rs");
    let diags = check_source("crates/engine/src/lib.rs", &src);
    assert_eq!(codes(&diags), [rules::TB001, rules::TB001], "{diags:?}");
    assert!(diags.iter().all(|d| d.waived.is_none()));
    // The same source is legal where the wall clock is the measurement.
    assert!(check_source("crates/bench/src/runner.rs", &src).is_empty());
    assert!(check_source("crates/core/src/obs.rs", &src).is_empty());
}

#[test]
fn tb001_clean_fixture_passes() {
    let src = fixture("tb001_clean.rs");
    assert!(check_source("crates/engine/src/lib.rs", &src).is_empty());
}

#[test]
fn tb002_fixture_fires_outside_core_time_and_not_inside() {
    let src = fixture("tb002_fires.rs");
    let diags = check_source("crates/query/src/temporal.rs", &src);
    assert_eq!(codes(&diags), [rules::TB002, rules::TB002], "{diags:?}");
    // The half-open matchers themselves live in core::time / core::schema.
    assert!(check_source("crates/core/src/time.rs", &src).is_empty());
    assert!(check_source("crates/core/src/schema.rs", &src).is_empty());
}

#[test]
fn tb002_clean_fixture_passes() {
    let src = fixture("tb002_clean.rs");
    assert!(check_source("crates/query/src/temporal.rs", &src).is_empty());
}

#[test]
fn tb002_tindex_fixture_fires_inside_the_index_crate() {
    // The temporal index is built *from* event-list and endpoint-list
    // comparisons, which makes it the likeliest place for a closed-interval
    // slip — and it is not exempt: only core::time / core::schema own
    // endpoint comparison logic.
    let src = fixture("tb002_tindex_fires.rs");
    let diags = check_source("crates/tindex/src/interval.rs", &src);
    assert_eq!(codes(&diags), [rules::TB002, rules::TB002], "{diags:?}");
    let diags = check_source("crates/tindex/src/timeline.rs", &src);
    assert_eq!(codes(&diags), [rules::TB002, rules::TB002], "{diags:?}");
    assert!(check_source("crates/core/src/time.rs", &src).is_empty());
}

#[test]
fn tb002_tindex_clean_fixture_passes() {
    let src = fixture("tb002_tindex_clean.rs");
    assert!(check_source("crates/tindex/src/interval.rs", &src).is_empty());
    assert!(check_source("crates/tindex/src/timeline.rs", &src).is_empty());
}

#[test]
fn tb003_fixture_fires_in_output_paths_only() {
    let src = fixture("tb003_fires.rs");
    let diags = check_source("crates/bench/src/report.rs", &src);
    assert!(!diags.is_empty());
    assert!(codes(&diags).iter().all(|c| *c == rules::TB003));
    // Hash maps are fine where iteration order never reaches an artifact.
    assert!(check_source("crates/engine/src/catalog.rs", &src).is_empty());
}

#[test]
fn tb003_clean_fixture_passes() {
    let src = fixture("tb003_clean.rs");
    assert!(check_source("crates/bench/src/report.rs", &src).is_empty());
}

#[test]
fn tb004_fixture_fires_in_hot_paths_only() {
    let src = fixture("tb004_fires.rs");
    let diags = check_source("crates/engine/src/rowscan.rs", &src);
    assert_eq!(
        codes(&diags),
        [rules::TB004, rules::TB004, rules::TB004],
        "unwrap, expect, slice-index: {diags:?}"
    );
    assert!(check_source("crates/engine/src/catalog.rs", &src).is_empty());
}

#[test]
fn tb004_clean_fixture_passes() {
    let src = fixture("tb004_clean.rs");
    assert!(check_source("crates/engine/src/morsel.rs", &src).is_empty());
}

#[test]
fn tb004_waiver_fixture_suppresses_with_reason() {
    let src = fixture("tb004_waived.rs");
    let diags = check_source("crates/engine/src/system_a.rs", &src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let reason = diags[0].waived.as_deref().expect("finding is waived");
    assert!(reason.contains("catalog-issued"), "{reason}");
}

#[test]
fn tb006_fixture_fires_on_undeclared_durability() {
    let src = fixture("tb006_fires.rs");
    let diags = check_source("crates/wal/src/log.rs", &src);
    assert_eq!(
        codes(&diags),
        [rules::TB006, rules::TB006],
        "missing mode, defaulted mode: {diags:?}"
    );
    assert!(diags.iter().all(|d| d.waived.is_none()));
}

#[test]
fn tb006_clean_fixture_passes() {
    let src = fixture("tb006_clean.rs");
    assert!(check_source("crates/wal/src/recover.rs", &src).is_empty());
    // The rule is workspace-wide: the same sources stay clean (and would
    // stay flagged) under any path label.
    assert!(check_source("crates/bench/src/experiments.rs", &src).is_empty());
}

#[test]
fn tb006_waiver_fixture_suppresses_with_reason() {
    let src = fixture("tb006_waived.rs");
    let diags = check_source("crates/wal/src/log.rs", &src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let reason = diags[0].waived.as_deref().expect("finding is waived");
    assert!(reason.contains("sizing"), "{reason}");
}

#[test]
fn tb007_fixture_fires_outside_sanctioned_paths_only() {
    let src = fixture("tb007_fires.rs");
    let diags = check_source("crates/bench/src/experiments.rs", &src);
    assert_eq!(
        codes(&diags),
        [rules::TB007, rules::TB007],
        "bare and suffixed receivers: {diags:?}"
    );
    // The loader, recovery, MVCC, engine internals and the test tree are
    // the sanctioned write paths.
    assert!(check_source("crates/histgen/src/loader.rs", &src).is_empty());
    assert!(check_source("crates/wal/src/recover.rs", &src).is_empty());
    assert!(check_source("crates/txn/src/lib.rs", &src).is_empty());
    assert!(check_source("crates/engine/src/testutil.rs", &src).is_empty());
    assert!(check_source("tests/tests/mvcc_isolation.rs", &src).is_empty());
}

#[test]
fn tb007_clean_fixture_passes() {
    let src = fixture("tb007_clean.rs");
    assert!(check_source("crates/bench/src/experiments.rs", &src).is_empty());
}

#[test]
fn tb007_shard_fixture_fires_outside_the_coordinator_only() {
    let src = fixture("tb007_shard_fires.rs");
    let diags = check_source("crates/shard/src/recover.rs", &src);
    assert_eq!(
        codes(&diags),
        [rules::TB007, rules::TB007],
        "manager begin and transaction DML: {diags:?}"
    );
    assert!(diags.iter().all(|d| d.waived.is_none()));
    assert!(
        diags[0].message.contains("ClusterTxn"),
        "{}",
        diags[0].message
    );
    // The coordinator is the sanctioned caller of the per-shard layers,
    // and the same tokens are legal outside the shard crate (the serving
    // layer is the sanctioned interface everywhere else).
    assert!(check_source("crates/shard/src/cluster.rs", &src).is_empty());
    assert!(check_source("crates/bench/src/experiments.rs", &src).is_empty());
}

#[test]
fn tb007_shard_clean_fixture_passes() {
    let src = fixture("tb007_shard_clean.rs");
    assert!(check_source("crates/shard/src/recover.rs", &src).is_empty());
    assert!(check_source("crates/shard/src/oracle.rs", &src).is_empty());
}

#[test]
fn tb007_waiver_fixture_suppresses_with_reason() {
    let src = fixture("tb007_waived.rs");
    let diags = check_source("crates/bench/src/experiments.rs", &src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let reason = diags[0].waived.as_deref().expect("finding is waived");
    assert!(reason.contains("pre-serving"), "{reason}");
}

#[test]
fn tb008_fixture_fires_on_blocking_under_a_live_guard() {
    let diags =
        tblint::check_concurrency_sources(&[("crates/fix/src/a.rs", &fixture("tb008_fires.rs"))]);
    assert_eq!(codes(&diags), [rules::TB008, rules::TB008], "{diags:?}");
    assert!(diags.iter().all(|d| d.waived.is_none()));
    assert!(
        diags[0].message.contains("sync_all") && diags[0].message.contains("registry"),
        "{}",
        diags[0].message
    );
    assert!(diags[1].message.contains("sleep"), "{}", diags[1].message);
}

#[test]
fn tb008_clean_fixture_passes_guard_dead_before_blocking() {
    // Explicit `drop(guard)` and scope exit both end the guard region.
    let diags =
        tblint::check_concurrency_sources(&[("crates/fix/src/a.rs", &fixture("tb008_clean.rs"))]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn tb008_waiver_fixture_suppresses_with_reason() {
    let diags =
        tblint::check_concurrency_sources(&[("crates/fix/src/a.rs", &fixture("tb008_waived.rs"))]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let reason = diags[0].waived.as_deref().expect("finding is waived");
    assert!(reason.contains("serializes the sink"), "{reason}");
}

#[test]
fn tb008_one_hop_fixture_charges_the_caller_holding_the_guard() {
    let caller = fixture("tb008_onehop_caller.rs");
    let callee = fixture("tb008_onehop_callee.rs");
    let diags = tblint::check_concurrency_sources(&[
        ("crates/fix/src/caller.rs", &caller),
        ("crates/fix/src/callee.rs", &callee),
    ]);
    assert_eq!(codes(&diags), [rules::TB008], "{diags:?}");
    assert_eq!(diags[0].file, "crates/fix/src/caller.rs");
    let msg = &diags[0].message;
    assert!(
        msg.contains("flush_log") && msg.contains("state") && msg.contains("callee.rs"),
        "the finding names the callee, the lock and the blocking site: {msg}"
    );
    // The callee itself holds nothing and is not a finding.
    let alone = tblint::check_concurrency_sources(&[("crates/fix/src/callee.rs", &callee)]);
    assert!(alone.is_empty(), "{alone:?}");
}

#[test]
fn tb009_fixture_reports_the_inversion_with_both_witness_chains() {
    let diags =
        tblint::check_concurrency_sources(&[("crates/fix/src/a.rs", &fixture("tb009_fires.rs"))]);
    assert_eq!(
        codes(&diags),
        [rules::TB009],
        "one cycle, one finding: {diags:?}"
    );
    let msg = &diags[0].message;
    assert!(msg.contains("lock-order cycle"), "{msg}");
    for needle in ["transfer", "report", "accounts", "audit"] {
        assert!(
            msg.contains(needle),
            "missing witness detail {needle:?}: {msg}"
        );
    }
}

#[test]
fn tb009_clean_fixture_passes_under_a_consistent_hierarchy() {
    let diags =
        tblint::check_concurrency_sources(&[("crates/fix/src/a.rs", &fixture("tb009_clean.rs"))]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn tb010_fixture_fires_on_bare_unwrap_of_lock_results() {
    let src = fixture("tb010_fires.rs");
    let diags = check_source("crates/txn/src/lib.rs", &src);
    assert_eq!(codes(&diags), [rules::TB010, rules::TB010], "{diags:?}");
    assert!(diags.iter().all(|d| d.waived.is_none()));
    // The rule only polices production crates, not the integration tests.
    assert!(check_source("tests/tests/mvcc_isolation.rs", &src).is_empty());
}

#[test]
fn tb010_clean_fixture_accepts_both_sanctioned_policies() {
    let src = fixture("tb010_clean.rs");
    assert!(check_source("crates/txn/src/lib.rs", &src).is_empty());
}

#[test]
fn tb010_waiver_fixture_suppresses_with_reason() {
    let diags = check_source("crates/txn/src/lib.rs", &fixture("tb010_waived.rs"));
    assert_eq!(diags.len(), 1, "{diags:?}");
    let reason = diags[0].waived.as_deref().expect("finding is waived");
    assert!(reason.contains("single-threaded"), "{reason}");
}

#[test]
fn workspace_run_on_this_repo_is_clean() {
    // The real gate, exercised from the test suite too: zero unwaived
    // findings across the workspace this crate lives in.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let report = tblint::run_workspace(root).expect("walk workspace");
    let unwaived: Vec<String> = report.unwaived().map(ToString::to_string).collect();
    assert!(unwaived.is_empty(), "{}", unwaived.join("\n"));
}
