//! Heap allocations pinned against a committed table: for every engine ×
//! tuning × history phase, the allocation count and bytes of each `scan` of
//! the counter goldens' 11-spec grid and of each of their key lookups; per
//! engine, the same for one statement of each DML kind, for `commit`, and
//! for one query per workload class on the tiny TPC-BiH instance. All of it
//! must equal `alloc_counters_golden.txt`.
//!
//! Counts are exact and do not depend on the host, so a change to a read or
//! write path shows its effect here as a diff of this file. They do depend on
//! the build: the file pins the debug build `cargo test` makes, and a release
//! run only checks that two runs count the same. Regenerate (only when a
//! count is *meant* to change) with `BITEMPO_WRITE_GOLDEN=1 cargo test -p
//! bitempo-tests --test alloc_counters_golden`.
//!
//! The counter is thread-local and counts only inside [`counted`], so every
//! engine runs at one worker: morsel threads would allocate off the counted
//! thread. Tracing stays off.

mod common;
mod counting;
mod golden;

use bitempo_core::{AppDate, Key, Period, Row, Value};
use bitempo_dbgen::ScaleConfig;
use bitempo_engine::api::{AppSpec, SysSpec, TuningConfig};
use bitempo_engine::testutil::bitemp_table;
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_histgen::{generate_history, load_initial, replay, HistoryConfig};
use bitempo_workloads::{bitemporal, key, range, tpch, tt, Ctx, QueryParams, FIVE_CLASSES};
use common::{churn, grid, key_specs, load, KEYS};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/alloc_counters_golden.txt"
);

/// Runs `f` counted and renders what it allocated as `"{allocs} {bytes}"`.
/// The result is dropped after counting stops.
fn counted<R>(f: impl FnOnce() -> R) -> (R, String) {
    let (out, n) = counting::counted(f);
    (out, format!("{} {}", n.allocs, n.bytes))
}

/// An engine with `tuning` applied at one worker.
fn engine_at_one_worker(kind: SystemKind, tuning: &TuningConfig) -> Box<dyn BitemporalEngine> {
    let mut engine = build_engine(kind);
    engine
        .apply_tuning(&tuning.clone().with_workers(1))
        .unwrap();
    engine
}

/// `scan` of every grid spec and `lookup_key` of every key spec, after the
/// fresh load and again after the staged churn.
fn scan_lines(kind: SystemKind, tuning_name: &str, tuning: &TuningConfig, out: &mut Vec<String>) {
    let mut engine = engine_at_one_worker(kind, tuning);
    let t = engine.create_table(bitemp_table("t")).unwrap();
    let name = kind.name().trim_start_matches("System ");
    let mut loaded = 0;
    for phase in ["fresh", "staged"] {
        if phase == "fresh" {
            load(engine.as_mut(), t);
            loaded = engine.now().0;
        } else {
            churn(engine.as_mut(), t);
        }
        for (i, (sys, app)) in grid(engine.now().0, loaded).iter().enumerate() {
            let (_, n) = counted(|| engine.scan(t, sys, app, &[]).unwrap());
            out.push(format!("{name} {tuning_name} {phase} g{i:02} scan {n}"));
        }
        for (i, (id, sys)) in key_specs(loaded).into_iter().enumerate() {
            let key = Key::int(id);
            let (_, n) = counted(|| engine.lookup_key(t, &key, &sys, &AppSpec::All).unwrap());
            out.push(format!(
                "{name} {tuning_name} {phase} k{i:02} lookup_key {n}"
            ));
        }
    }
}

/// One statement of each DML kind on the freshly loaded table, then the
/// commit that publishes them.
fn dml_lines(kind: SystemKind, out: &mut Vec<String>) {
    let mut engine = engine_at_one_worker(kind, &TuningConfig::none());
    let t = engine.create_table(bitemp_table("t")).unwrap();
    load(engine.as_mut(), t);
    let name = kind.name().trim_start_matches("System ");
    let period = Period::new(AppDate(10), AppDate(40));
    let row = Row::new(vec![Value::Int(KEYS), Value::Int(1)]);
    let update = [(1, Value::Int(2))];
    let (keyed, deleted, overwritten) = (Key::int(7), Key::int(8), Key::int(9));
    let counts = [
        (
            "insert",
            counted(|| engine.insert(t, row, Some(period)).unwrap()).1,
        ),
        (
            "update",
            counted(|| engine.update(t, &keyed, &update, None).unwrap()).1,
        ),
        (
            "delete",
            counted(|| engine.delete(t, &deleted, None).unwrap()).1,
        ),
        (
            "overwrite_app_period",
            counted(|| {
                engine
                    .overwrite_app_period(t, &overwritten, period)
                    .unwrap()
            })
            .1,
        ),
        ("commit", counted(|| engine.commit()).1),
    ];
    for (op, n) in counts {
        out.push(format!("{name} dml {op} {n}"));
    }
}

type Query = fn(&Ctx<'_>, &QueryParams) -> bitempo_core::Result<Vec<Row>>;

/// The five queries of `five_class_answers`, one by one, in `FIVE_CLASSES`
/// order.
const QUERIES: [Query; 5] = [
    |ctx, p| tt::t1(ctx, SysSpec::AsOf(p.sys_mid), AppSpec::All),
    |ctx, p| tpch::run_query(ctx, 6, &tpch::Tt::app(p.app_mid)),
    |ctx, p| key::k1(ctx, &p.hot_customer, SysSpec::All, AppSpec::All),
    |ctx, _| range::r1(ctx),
    |ctx, p| bitemporal::b3_variant(ctx, 2, 55, p.app_mid, p.sys_initial),
];

/// One query per workload class on the tiny TPC-BiH instance.
fn query_lines(kind: SystemKind, out: &mut Vec<String>) {
    let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
    let history = generate_history(&data, &HistoryConfig::tiny());
    let mut engine = engine_at_one_worker(kind, &TuningConfig::none());
    let ids = load_initial(engine.as_mut(), &data).unwrap();
    replay(engine.as_mut(), &ids, &history.archive, 1).unwrap();
    engine.checkpoint();
    let params = QueryParams::derive(engine.as_ref()).unwrap();
    let ctx = Ctx::new(engine.as_ref()).unwrap();
    let name = kind.name().trim_start_matches("System ");
    for (class, query) in FIVE_CLASSES.iter().zip(QUERIES) {
        let (_, n) = counted(|| query(&ctx, &params).unwrap());
        out.push(format!("{name} query {class} {n}"));
    }
}

fn table() -> String {
    let mut lines = Vec::new();
    for kind in SystemKind::ALL {
        for (tuning_name, tuning) in [
            ("none", TuningConfig::none()),
            ("key_time", TuningConfig::key_time()),
            ("temporal", TuningConfig::temporal()),
        ] {
            scan_lines(kind, tuning_name, &tuning, &mut lines);
        }
        dml_lines(kind, &mut lines);
        query_lines(kind, &mut lines);
    }
    lines.join("\n") + "\n"
}

#[test]
fn allocations_match_the_committed_table() {
    let table = table();
    assert_eq!(table, self::table(), "allocation counts differ run to run");
    if !cfg!(debug_assertions) {
        return;
    }
    golden::assert_golden(GOLDEN, &table);
}
