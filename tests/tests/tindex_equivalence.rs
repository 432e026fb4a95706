//! Temporal-index equivalence: the probe paths must be invisible in every
//! answer. An indexed scan returns a candidate *superset* that the engine
//! re-checks against the authoritative periods, and candidates are emitted
//! in ascending slot order — so indexed scans must be **byte-identical**
//! (same rows, same order) to the full-scan oracle, on all four engines,
//! at any worker count. This suite drives that contract with random DML
//! programs and with the adversarial shapes the index must not mangle:
//! degenerate `[s, s)` system periods from same-transaction supersedes and
//! `SysTime::MAX` open intervals.

use bitempo_core::{
    AppDate, Column, DataType, Key, Period, Row, Schema, SysTime, TableDef, TemporalClass, Value,
};
use bitempo_engine::api::{AccessPath, AppSpec, SysSpec, TuningConfig};
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use proptest::prelude::*;

fn table_def() -> TableDef {
    TableDef::new(
        "t",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("val", DataType::Int),
        ]),
        vec![0],
        TemporalClass::Bitemporal,
        Some("vt"),
    )
    .unwrap()
}

fn app(p: (i64, i64)) -> Period<AppDate> {
    let (a, b) = if p.0 <= p.1 { p } else { (p.1, p.0) };
    Period::new(AppDate(a), AppDate(b + 1))
}

/// The spec grid every comparison runs: current, early/late points, closed
/// ranges, open (`SysTime::MAX`) ranges, and both-dimension combinations.
fn spec_grid(sys_probe: u64, app_probe: i64) -> Vec<(SysSpec, AppSpec)> {
    vec![
        (SysSpec::Current, AppSpec::All),
        (SysSpec::All, AppSpec::All),
        (SysSpec::AsOf(SysTime(2)), AppSpec::All),
        (SysSpec::AsOf(SysTime(sys_probe)), AppSpec::All),
        (
            SysSpec::AsOf(SysTime(sys_probe)),
            AppSpec::AsOf(AppDate(app_probe)),
        ),
        (SysSpec::Current, AppSpec::AsOf(AppDate(app_probe))),
        (
            SysSpec::Range(Period::new(SysTime(sys_probe / 2), SysTime(sys_probe + 1))),
            AppSpec::All,
        ),
        (
            SysSpec::Range(Period::new(SysTime(sys_probe), SysTime::MAX)),
            AppSpec::Range(Period::new(AppDate(app_probe / 2), AppDate(app_probe + 1))),
        ),
    ]
}

/// Scans the grid and returns the raw outputs, in grid order.
fn scan_grid(
    engine: &dyn BitemporalEngine,
    table: bitempo_core::TableId,
    grid: &[(SysSpec, AppSpec)],
) -> Vec<bitempo_engine::api::ScanOutput> {
    grid.iter()
        .map(|(sys, app)| engine.scan(table, sys, app, &[]).unwrap())
        .collect()
}

/// Oracle vs indexed comparison for one engine: record the full-scan
/// answers under `none()`, then re-run the same grid with the temporal
/// index at `workers ∈ {1, 4}` and demand byte-identical rows.
fn assert_indexed_matches_oracle(
    kind: SystemKind,
    engine: &mut dyn BitemporalEngine,
    table: bitempo_core::TableId,
    grid: &[(SysSpec, AppSpec)],
) -> bool {
    engine
        .apply_tuning(&TuningConfig::none().with_workers(1))
        .unwrap();
    let oracle = scan_grid(engine, table, grid);
    let mut probed = false;
    for workers in [1usize, 4] {
        engine
            .apply_tuning(&TuningConfig::temporal().with_workers(workers))
            .unwrap();
        let indexed = scan_grid(engine, table, grid);
        for (i, (want, got)) in oracle.iter().zip(&indexed).enumerate() {
            assert_eq!(
                want.rows, got.rows,
                "{kind} workers={workers} grid[{i}] ({:?}): indexed scan must be \
                 byte-identical to the full-scan oracle",
                grid[i]
            );
            if matches!(got.access, AccessPath::TemporalProbe(_)) {
                probed = true;
            }
        }
    }
    // Leave the engine untuned for the caller.
    engine
        .apply_tuning(&TuningConfig::none().with_workers(1))
        .unwrap();
    probed
}

/// Deterministic deep history: a handful of keys superseded many times, so
/// early `AS OF` probes are far below the planner's selectivity threshold
/// and the temporal probe path *must* engage on every architecture.
#[test]
fn deep_history_probes_agree_with_full_scans_on_all_engines() {
    for kind in SystemKind::ALL {
        let mut engine = build_engine(kind);
        let table = engine.create_table(table_def()).unwrap();
        for id in 1..=3i64 {
            engine
                .insert(
                    table,
                    Row::new(vec![Value::Int(id), Value::Int(0)]),
                    Some(app((0, 99))),
                )
                .unwrap();
        }
        engine.commit();
        for i in 0..120i64 {
            engine
                .update(table, &Key::int(i % 3 + 1), &[(1, Value::Int(i))], None)
                .unwrap();
            engine.commit();
        }
        engine.checkpoint();
        let sys_now = engine.now().0;
        let grid = spec_grid(sys_now / 2, 50);
        let probed = assert_indexed_matches_oracle(kind, engine.as_mut(), table, &grid);
        assert!(
            probed,
            "{kind}: a 40:1 history should drive at least one grid scan through the \
             temporal probe path"
        );
    }
}

/// The serving shape: the index is attached *first* and every version after
/// that reaches it through per-write maintenance (insert, close), never
/// through the bulk build at tuning time. The current partition is the hard
/// case for space — its visible set stays as large as the key population
/// while updates keep appending events — so the footprint must stay linear
/// in the versions stored, and every probe class must still be invisible in
/// the answers.
#[test]
fn incrementally_maintained_index_stays_linear_and_exact() {
    const KEYS: i64 = 10_000;
    const UPDATES: i64 = 3_000;
    // A version costs two 24 B events and two 24 B endpoint entries, in each
    // partition it passes through on A and B; `Vec` growth slack, the live
    // mirror and the amortised version-sets come on top (122-152 B measured).
    // One full copy of the visible set per 256 events would add 250 B per
    // version here.
    const BYTES_PER_VERSION_CEILING: u64 = 200;
    for kind in SystemKind::ALL {
        let mut engine = build_engine(kind);
        let table = engine.create_table(table_def()).unwrap();
        engine
            .apply_tuning(&TuningConfig::temporal().with_workers(1))
            .unwrap();
        for id in 0..KEYS {
            engine
                .insert(
                    table,
                    Row::new(vec![Value::Int(id), Value::Int(0)]),
                    Some(app((0, 99))),
                )
                .unwrap();
            if id % 100 == 99 {
                engine.commit();
            }
        }
        let loaded = engine.now().0;
        for i in 0..UPDATES {
            engine
                .update(
                    table,
                    &Key::int(i * 7919 % KEYS),
                    &[(1, Value::Int(i))],
                    None,
                )
                .unwrap();
            engine.commit();
        }

        let fp = engine.temporal_index_footprint();
        let versions = engine.stats(table).total() as u64;
        assert!(
            fp.set_slots <= 2 * fp.events,
            "{kind}: version-sets must be paid for by the events before them: {fp:?}"
        );
        assert!(
            fp.bytes / versions <= BYTES_PER_VERSION_CEILING,
            "{kind}: {} B/version over {versions} versions: {fp:?}",
            fp.bytes / versions
        );

        let mut grid = spec_grid(loaded + UPDATES as u64 / 2, 50);
        grid.push((SysSpec::AsOf(SysTime(loaded / 2)), AppSpec::All));
        grid.push((SysSpec::AsOf(SysTime(loaded)), AppSpec::All));
        grid.push((
            SysSpec::Range(Period::new(SysTime(loaded), SysTime(loaded + 10))),
            AppSpec::All,
        ));
        let indexed = scan_grid(engine.as_ref(), table, &grid);
        assert!(
            indexed
                .iter()
                .any(|out| matches!(out.access, AccessPath::TemporalProbe(_))),
            "{kind}: an early probe over {versions} versions should take the temporal index"
        );
        engine
            .apply_tuning(&TuningConfig::none().with_workers(1))
            .unwrap();
        let oracle = scan_grid(engine.as_ref(), table, &grid);
        for (i, (want, got)) in oracle.iter().zip(&indexed).enumerate() {
            assert_eq!(
                want.rows, got.rows,
                "{kind} grid[{i}] ({:?}): the incrementally maintained index must \
                 answer like the untuned scan",
                grid[i]
            );
        }
    }
}

/// Same-transaction supersedes produce versions whose system period would be
/// the degenerate `[s, s)` — activated and invalidated by one commit. The
/// engines discard such versions (they were never visible for a full
/// instant), so no scan — `AS OF`, `ALL`, indexed or not — may surface them,
/// and the timeline's paired events at one timestamp must not resurrect them.
#[test]
fn degenerate_same_transaction_periods_never_surface() {
    for kind in SystemKind::ALL {
        let mut engine = build_engine(kind);
        let table = engine.create_table(table_def()).unwrap();
        engine
            .insert(
                table,
                Row::new(vec![Value::Int(1), Value::Int(0)]),
                Some(app((0, 99))),
            )
            .unwrap();
        engine.commit();
        // Depth first, so the probe path actually runs…
        for i in 0..80i64 {
            engine
                .update(table, &Key::int(1), &[(1, Value::Int(i))], None)
                .unwrap();
            engine.commit();
        }
        // …then two updates inside one transaction: the first's version is
        // born and superseded at the same commit instant.
        engine
            .update(table, &Key::int(1), &[(1, Value::Int(777))], None)
            .unwrap();
        engine
            .update(table, &Key::int(1), &[(1, Value::Int(888))], None)
            .unwrap();
        engine.commit();
        let degenerate_at = engine.now();
        engine.checkpoint();

        let mut grid = spec_grid(degenerate_at.0, 50);
        // Probe exactly the degenerate instant and just past it.
        grid.push((SysSpec::AsOf(degenerate_at), AppSpec::All));
        grid.push((SysSpec::AsOf(SysTime(degenerate_at.0 + 1)), AppSpec::All));
        grid.push((
            SysSpec::Range(Period::new(degenerate_at, SysTime::MAX)),
            AppSpec::All,
        ));
        assert_indexed_matches_oracle(kind, engine.as_mut(), table, &grid);

        // The intermediate value 777 was discarded at commit: it must be
        // invisible under every system-time spec, with or without the index.
        engine.apply_tuning(&TuningConfig::temporal()).unwrap();
        for sys in [SysSpec::Current, SysSpec::AsOf(degenerate_at), SysSpec::All] {
            let rows = engine.scan(table, &sys, &AppSpec::All, &[]).unwrap().rows;
            assert!(
                rows.iter().all(|r| r.get(1) != &Value::Int(777)),
                "{kind}: degenerate version surfaced under {sys:?}"
            );
        }
        let all = engine
            .scan(table, &SysSpec::All, &AppSpec::All, &[])
            .unwrap()
            .rows;
        assert!(
            all.iter().any(|r| r.get(1) == &Value::Int(888)),
            "{kind}: the surviving same-transaction version must be in ALL"
        );
    }
}

#[derive(Debug, Clone)]
enum Dml {
    Insert {
        id: i64,
        val: i64,
        app: (i64, i64),
    },
    Update {
        id: i64,
        val: i64,
        portion: Option<(i64, i64)>,
    },
    Delete {
        id: i64,
        portion: Option<(i64, i64)>,
    },
    Commit,
}

fn dml_strategy() -> impl Strategy<Value = Dml> {
    let id = 0i64..5;
    let val = 0i64..100;
    let span = (0i64..50, 0i64..50);
    let update = (id.clone(), val.clone(), proptest::option::of(span.clone()))
        .prop_map(|(id, val, portion)| Dml::Update { id, val, portion });
    // The vendored `prop_oneof!` has no weighted arms; repeating the update
    // strategy is the equivalent 3x bias toward version-producing DML.
    prop_oneof![
        (id.clone(), val, span.clone()).prop_map(|(id, val, app)| Dml::Insert { id, val, app }),
        update.clone(),
        update.clone(),
        update,
        (id, proptest::option::of(span)).prop_map(|(id, portion)| Dml::Delete { id, portion }),
        Just(Dml::Commit),
    ]
}

fn apply(engine: &mut dyn BitemporalEngine, table: bitempo_core::TableId, op: &Dml) {
    match op {
        Dml::Insert { id, val, app: a } => {
            engine
                .insert(
                    table,
                    Row::new(vec![Value::Int(*id), Value::Int(*val)]),
                    Some(app(*a)),
                )
                .unwrap();
        }
        Dml::Update { id, val, portion } => {
            engine
                .update(
                    table,
                    &Key::int(*id),
                    &[(1, Value::Int(*val))],
                    portion.map(app),
                )
                .unwrap();
        }
        Dml::Delete { id, portion } => {
            engine
                .delete(table, &Key::int(*id), portion.map(app))
                .unwrap();
        }
        Dml::Commit => {
            engine.commit();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any DML program, any probe point: attaching the temporal index (at
    /// one worker or four) never changes a single byte of any scan.
    #[test]
    fn random_programs_scan_identically_with_and_without_index(
        program in proptest::collection::vec(dml_strategy(), 1..50),
        probe_sys in 0u64..40,
        probe_app in 0i64..60,
    ) {
        for kind in SystemKind::ALL {
            let mut engine = build_engine(kind);
            let table = engine.create_table(table_def()).unwrap();
            for op in &program {
                apply(engine.as_mut(), table, op);
            }
            engine.commit();
            engine.checkpoint();
            let grid = spec_grid(probe_sys, probe_app);
            assert_indexed_matches_oracle(kind, engine.as_mut(), table, &grid);
        }
    }
}
