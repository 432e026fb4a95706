//! Cost-based optimizer contract, driven through the public engine API:
//!
//! 1. **Crossover** — with the temporal index tuned, a selective system-time
//!    probe must come back as an index access and an unselective one as a
//!    sequential scan, on all four engines. No threshold knob exists any
//!    more; the switch falls out of estimated work.
//! 2. **Equivalence** — whatever path the optimizer picks under whatever
//!    tuning, the answer must equal the untuned oracle's. B-Tree and GiST
//!    paths emit in index order, so cross-tuning comparison is canonical
//!    (sorted), matching the engine contract; the temporal-index path
//!    additionally promises slot order and is held to byte-identical
//!    output, matching `tindex_equivalence`.
//! 3. **String-column selectivity** — equality on an indexed string column
//!    is priced from the index's distinct-key count: many distinct values
//!    make the B-Tree win, few make the scan win.
//! 4. **Empty partitions** — scans of empty tables short-circuit before any
//!    estimation (the old `len().max(1)` fabricated a phantom row).
//! 5. **One plan per query** — a repeated misestimated query plans the
//!    same path with the same estimate every time: estimate error is
//!    reported (`planned_rows` beside `rows_visited`), never learned.

use bitempo_core::{
    AppDate, Column, DataType, Key, Period, Row, Schema, SysTime, TableDef, TemporalClass, Value,
};
use bitempo_engine::api::{AccessPath, AppSpec, BitemporalEngine, ColRange, SysSpec, TuningConfig};
use bitempo_engine::{build_engine, SystemKind};
use bitempo_workloads::sort_canonical;

fn int_table() -> TableDef {
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

/// 300 keys, one commit each (system times 1..=300), app periods striding
/// the axis, then sequenced churn on every fifth key so history partitions
/// are populated too.
fn grown_engine(
    kind: SystemKind,
    tuning: &TuningConfig,
) -> (Box<dyn BitemporalEngine>, bitempo_core::TableId) {
    let mut e = build_engine(kind);
    let t = e.create_table(int_table()).unwrap();
    for i in 0..300i64 {
        let app = Period::new(AppDate(i), AppDate(i + 20));
        e.insert(
            t,
            Row::new(vec![Value::Int(i), Value::Int(i * 7)]),
            Some(app),
        )
        .unwrap();
        e.commit();
    }
    for i in (0..300i64).step_by(5) {
        e.update(t, &Key::int(i), &[(1, Value::Int(-i))], None)
            .unwrap();
    }
    for i in (0..300i64).step_by(31) {
        e.delete(
            t,
            &Key::int(i),
            Some(Period::new(AppDate(i), AppDate(i + 3))),
        )
        .unwrap();
    }
    e.commit();
    e.apply_tuning(tuning).unwrap();
    (e, t)
}

/// The spec grid the equivalence comparisons run — points, ranges, and both
/// dimensions combined, at selective and unselective positions.
fn spec_grid() -> Vec<(SysSpec, AppSpec)> {
    vec![
        (SysSpec::Current, AppSpec::All),
        (SysSpec::All, AppSpec::All),
        (SysSpec::AsOf(SysTime(4)), AppSpec::All),
        (SysSpec::AsOf(SysTime(280)), AppSpec::All),
        (SysSpec::Current, AppSpec::AsOf(AppDate(17))),
        (SysSpec::AsOf(SysTime(9)), AppSpec::AsOf(AppDate(5))),
        (
            SysSpec::Range(Period::new(SysTime(3), SysTime(11))),
            AppSpec::All,
        ),
        (
            SysSpec::Current,
            AppSpec::Range(Period::new(AppDate(40), AppDate(55))),
        ),
        (
            SysSpec::Range(Period::new(SysTime(250), SysTime::MAX)),
            AppSpec::Range(Period::new(AppDate(10), AppDate(60))),
        ),
    ]
}

#[test]
fn selective_probe_uses_an_index_and_unselective_probe_scans() {
    for kind in SystemKind::ALL {
        let (e, t) = grown_engine(kind, &TuningConfig::temporal().with_workers(1));
        // System time 4: four of ~360 stored versions qualify.
        let early = e
            .scan(t, &SysSpec::AsOf(SysTime(4)), &AppSpec::All, &[])
            .unwrap();
        assert!(
            matches!(early.access, AccessPath::TemporalProbe(_)),
            "{kind}: selective AS OF should probe the temporal index, got {}",
            early.access
        );
        assert!(
            early.metrics.planned_rows > 0,
            "{kind}: chosen plan must surface its row estimate"
        );
        // `SysSpec::All` qualifies every stored version: nothing to prune,
        // the scan must win on cost.
        let all = e.scan(t, &SysSpec::All, &AppSpec::All, &[]).unwrap();
        assert!(
            matches!(all.access, AccessPath::FullScan { .. }),
            "{kind}: unselective scan should stay sequential, got {}",
            all.access
        );
    }
}

#[test]
fn every_tuning_is_byte_identical_to_the_untuned_oracle() {
    let tunings: Vec<(&str, TuningConfig)> = vec![
        ("time", TuningConfig::time()),
        ("key+time", TuningConfig::key_time()),
        ("temporal", TuningConfig::temporal()),
        (
            "gist",
            TuningConfig {
                time_index: true,
                gist: true,
                ..TuningConfig::default()
            },
        ),
        (
            "value(val)",
            TuningConfig {
                value_index: vec![("t".into(), "val".into())],
                ..TuningConfig::default()
            },
        ),
        (
            "everything",
            TuningConfig {
                time_index: true,
                key_time_index: true,
                gist: true,
                temporal_index: true,
                value_index: vec![("t".into(), "val".into())],
                ..TuningConfig::default()
            },
        ),
    ];
    let grid = spec_grid();
    let preds: Vec<Vec<ColRange>> = vec![
        vec![],
        vec![ColRange::eq(1, Value::Int(-40))],
        vec![ColRange::eq(0, Value::Int(123))],
    ];
    for kind in SystemKind::ALL {
        let (oracle, ot) = grown_engine(kind, &TuningConfig::none().with_workers(1));
        for (label, tuning) in &tunings {
            for workers in [1usize, 4] {
                let (tuned, tt) = grown_engine(kind, &tuning.clone().with_workers(workers));
                for (sys, app) in &grid {
                    for p in &preds {
                        let want = oracle.scan(ot, sys, app, p).unwrap();
                        let got = tuned.scan(tt, sys, app, p).unwrap();
                        // The temporal index promises slot order: its
                        // answers must be byte-identical, not just equal
                        // as sets.
                        if *label == "temporal" {
                            assert_eq!(
                                want.rows, got.rows,
                                "{kind} [{label}, workers={workers}] broke output \
                                 order at {sys:?}/{app:?} preds={p:?} (path {})",
                                got.access
                            );
                        } else {
                            let mut w = want.rows.clone();
                            let mut g = got.rows.clone();
                            sort_canonical(&mut w);
                            sort_canonical(&mut g);
                            assert_eq!(
                                w, g,
                                "{kind} [{label}, workers={workers}] diverged from \
                                 the oracle at {sys:?}/{app:?} preds={p:?} (path {})",
                                got.access
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn string_equality_selectivity_comes_from_distinct_key_count() {
    let def = TableDef::new(
        "t",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Str),
        ]),
        vec![0],
        TemporalClass::Bitemporal,
        Some("vt"),
    )
    .unwrap();
    let tuning = TuningConfig {
        value_index: vec![("t".into(), "name".into())],
        workers: 1,
        ..TuningConfig::default()
    };
    for kind in SystemKind::ALL {
        // System C models the paper's engine that ignores conventional
        // index tuning entirely (`ignored_indexes`) — there is no value
        // index for the optimizer to price there.
        let has_value_index = kind != SystemKind::C;
        // 300 distinct names: equality is priced at one row — B-Tree wins.
        let mut sparse = build_engine(kind);
        let t = sparse.create_table(def.clone()).unwrap();
        for i in 0..300i64 {
            sparse
                .insert(
                    t,
                    Row::new(vec![
                        Value::Int(i),
                        Value::Str(format!("name-{i:04}").into()),
                    ]),
                    None,
                )
                .unwrap();
        }
        sparse.commit();
        sparse.apply_tuning(&tuning).unwrap();
        let pred = vec![ColRange::eq(1, Value::Str("name-0042".into()))];
        let out = sparse
            .scan(t, &SysSpec::Current, &AppSpec::All, &pred)
            .unwrap();
        if has_value_index {
            assert!(
                matches!(out.access, AccessPath::IndexScan(_)),
                "{kind}: 300 distinct names should make the value index win, got {}",
                out.access
            );
        }
        assert_eq!(out.rows.len(), 1, "{kind}");

        // 3 distinct names, 100 rows each: equality keeps a third of the
        // table — the per-row probe surcharge makes the scan win.
        let mut dense = build_engine(kind);
        let t = dense.create_table(def.clone()).unwrap();
        for i in 0..300i64 {
            dense
                .insert(
                    t,
                    Row::new(vec![
                        Value::Int(i),
                        Value::Str(format!("name-{:04}", i % 3).into()),
                    ]),
                    None,
                )
                .unwrap();
        }
        dense.commit();
        dense.apply_tuning(&tuning).unwrap();
        let pred = vec![ColRange::eq(1, Value::Str("name-0001".into()))];
        let out = dense
            .scan(t, &SysSpec::Current, &AppSpec::All, &pred)
            .unwrap();
        assert!(
            matches!(out.access, AccessPath::FullScan { .. }),
            "{kind}: 3 distinct names keep a third of the table — the scan \
             should win, got {}",
            out.access
        );
        assert_eq!(out.rows.len(), 100, "{kind}");
    }
}

#[test]
fn empty_tables_scan_trivially_under_every_tuning() {
    let tuning = TuningConfig {
        time_index: true,
        key_time_index: true,
        gist: true,
        temporal_index: true,
        workers: 1,
        ..TuningConfig::default()
    };
    for kind in SystemKind::ALL {
        let mut e = build_engine(kind);
        let t = e.create_table(int_table()).unwrap();
        e.apply_tuning(&tuning).unwrap();
        for (sys, app) in spec_grid() {
            let out = e.scan(t, &sys, &app, &[]).unwrap();
            assert!(out.rows.is_empty(), "{kind} at {sys:?}/{app:?}");
            assert!(
                matches!(out.access, AccessPath::FullScan { .. }),
                "{kind}: empty partitions must short-circuit to a trivial \
                 scan, got {} at {sys:?}/{app:?}",
                out.access
            );
            assert_eq!(out.metrics.planned_rows, 0, "{kind} at {sys:?}/{app:?}");
            assert_eq!(out.metrics.index_probes, 0, "{kind} at {sys:?}/{app:?}");
        }
    }
}

#[test]
fn a_misestimated_scan_replans_identically_on_repeat() {
    for kind in SystemKind::ALL {
        // App periods leave a gap at day 7: the interval estimator sees
        // every row on one side or the other and prices the probe at ~half
        // the partition, but nothing actually qualifies.
        let mut e = build_engine(kind);
        let t = e.create_table(int_table()).unwrap();
        for i in 0..400i64 {
            let app = if i % 2 == 0 {
                Period::new(AppDate(0), AppDate(5))
            } else {
                Period::new(AppDate(10), AppDate(20))
            };
            e.insert(t, Row::new(vec![Value::Int(i), Value::Int(i)]), Some(app))
                .unwrap();
        }
        e.commit();
        e.apply_tuning(&TuningConfig::temporal().with_workers(1))
            .unwrap();
        let probe = AppSpec::AsOf(AppDate(7));
        let first = e.scan(t, &SysSpec::All, &probe, &[]).unwrap();
        // A scan of another predicate class in between must not matter.
        e.scan(t, &SysSpec::AsOf(SysTime(1)), &AppSpec::All, &[])
            .unwrap();
        let second = e.scan(t, &SysSpec::All, &probe, &[]).unwrap();
        assert!(first.rows.is_empty(), "{kind}: nothing is valid on day 7");
        assert!(
            first.metrics.planned_rows > 0,
            "{kind}: the estimate must be reported, not hidden"
        );
        assert_eq!(first.access, second.access, "{kind}: the plan changed");
        assert_eq!(
            (first.metrics.planned_rows, first.metrics.rows_visited),
            (second.metrics.planned_rows, second.metrics.rows_visited),
            "{kind}: the estimate or the work changed on repeat"
        );
        assert_eq!(first.rows, second.rows, "{kind}: the answer changed");
    }
}
