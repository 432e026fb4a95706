//! Scan counters pinned against a committed table: for every engine ×
//! tuning × history phase × scan, the rows (count + order-sensitive hash),
//! the access paths, every `ScanMetrics` field and every non-timing field of
//! each recorded `obs::ScanTrace` must equal `scan_counters_golden.txt`.
//!
//! The equivalence suites compare engines with each other; this one compares
//! each engine with *itself at an earlier commit*, so a refactor of the scan
//! pipeline that moves a single visit, probe or planned-row count fails here
//! even when all four engines move together. The table was generated at the
//! commit before System C joined the shared `rowscan` pipeline and has to
//! stay byte-identical across such moves. Regenerate (only when a count is
//! *meant* to change) with `BITEMPO_WRITE_GOLDEN=1 cargo test -p
//! bitempo-tests --test scan_counters_golden`.
//!
//! Every scan runs at one worker and at four on twin engines; everything but
//! the traced worker count must agree between the two, so a line stores both.

mod common;
mod golden;

use bitempo_core::{obs, Key, Row, SysTime, TableId};
use bitempo_engine::api::{AppSpec, ScanOutput, SysSpec, TuningConfig};
use bitempo_engine::testutil::bitemp_table;
use bitempo_engine::{build_engine, BitemporalEngine, ScanMetrics, SystemKind};
use common::{churn, grid, key_specs, load};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/scan_counters_golden.txt"
);

/// Order-sensitive FNV-1a over the rows' debug rendering.
fn rows_hash(rows: &[Row]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{rows:?}").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn traced(scan: impl FnOnce() -> ScanOutput) -> (ScanOutput, Vec<obs::ScanTrace>) {
    obs::enable();
    let out = scan();
    (out, obs::disable().scans)
}

/// One table line: everything `scan` reports at one worker, checked equal to
/// what it reports at four except for the traced worker counts.
fn render(
    label: &str,
    one: (ScanOutput, Vec<obs::ScanTrace>),
    four: (ScanOutput, Vec<obs::ScanTrace>),
) -> String {
    let ((out, traces), (out4, traces4)) = (one, four);
    assert_eq!(out.rows, out4.rows, "{label}: rows differ across workers");
    assert_eq!(out.access, out4.access, "{label}");
    assert_eq!(out.partition_paths, out4.partition_paths, "{label}");
    assert_eq!(out.metrics, out4.metrics, "{label}");
    assert_eq!(traces.len(), traces4.len(), "{label}");
    let ScanMetrics {
        morsels,
        rows_visited,
        versions_pruned,
        index_probes,
        index_hits,
        index_node_visits,
        planned_rows,
    } = out.metrics;
    let paths: Vec<String> = out
        .partition_paths
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut line = format!(
        "{label} {}:{:016x} {} [{}] {morsels},{rows_visited},{versions_pruned},{index_probes},\
         {index_hits},{index_node_visits},{planned_rows}",
        out.rows.len(),
        rows_hash(&out.rows),
        out.access,
        paths.join(","),
    );
    for (t, t4) in traces.into_iter().zip(traces4) {
        let workers = (t.workers, t4.workers);
        assert_eq!(
            obs::ScanTrace {
                workers: 0,
                start_nanos: 0,
                dur_nanos: 0,
                ..t.clone()
            },
            obs::ScanTrace {
                workers: 0,
                start_nanos: 0,
                dur_nanos: 0,
                ..t4
            },
            "{label}: trace differs across workers"
        );
        let obs::ScanTrace {
            engine,
            table,
            partition,
            access,
            rows_emitted,
            metrics:
                ScanMetrics {
                    morsels,
                    rows_visited,
                    versions_pruned,
                    index_probes,
                    index_hits,
                    index_node_visits,
                    planned_rows,
                },
            workers: _,
            start_nanos: _,
            dur_nanos: _,
        } = t;
        assert!(
            label.starts_with(engine.trim_start_matches("System ")),
            "{label}: {engine}"
        );
        // Not pinned in one case: System C's temporal probe used to report a
        // hard-coded single worker; on the shared pipeline it reports the
        // configured count like every other engine's serial index path.
        let workers = if engine == "System C" && access.starts_with("tindex(") {
            "-".to_string()
        } else {
            format!("{}/{}", workers.0, workers.1)
        };
        write!(
            line,
            " {table}.{partition}/{access}/{rows_visited},{rows_emitted},{versions_pruned},\
             {index_probes},{index_hits},{index_node_visits},{morsels},{planned_rows}/{workers}"
        )
        .unwrap();
    }
    line
}

/// Every line for one engine under one tuning, phase by phase.
fn lines_for(kind: SystemKind, tuning_name: &str, tuning: &TuningConfig, out: &mut Vec<String>) {
    let mut twins: Vec<(Box<dyn BitemporalEngine>, TableId, TableId)> = [1usize, 4]
        .into_iter()
        .map(|workers| {
            let mut engine = build_engine(kind);
            let t = engine.create_table(bitemp_table("t")).unwrap();
            let e = engine.create_table(bitemp_table("e")).unwrap();
            // Tuned before any data: indexes are maintained write by write,
            // and System B's staged undo survives (tuning drains it).
            engine
                .apply_tuning(&tuning.clone().with_workers(workers))
                .unwrap();
            (engine, t, e)
        })
        .collect();
    let name = kind.name().trim_start_matches("System ");
    let mut loaded = 0;
    for phase in ["fresh", "staged", "merged", "rebuilt"] {
        for (workers, (engine, t, _)) in [1usize, 4].into_iter().zip(&mut twins) {
            match phase {
                "fresh" => load(engine.as_mut(), *t),
                "staged" => churn(engine.as_mut(), *t),
                "merged" => engine.checkpoint(),
                // Indexes rebuilt in bulk over the merged data.
                _ => engine
                    .apply_tuning(&tuning.clone().with_workers(workers))
                    .unwrap(),
            }
        }
        let now = twins[0].0.now().0;
        assert_eq!(now, twins[1].0.now().0);
        if phase == "fresh" {
            loaded = now;
        }
        let both = |scan: &dyn Fn(&dyn BitemporalEngine, TableId, TableId) -> ScanOutput| {
            let mut runs = twins
                .iter()
                .map(|(engine, t, e)| traced(|| scan(engine.as_ref(), *t, *e)));
            (runs.next().unwrap(), runs.next().unwrap())
        };
        for (i, (sys, app)) in grid(now, loaded).iter().enumerate() {
            let (one, four) = both(&|engine, t, _| engine.scan(t, sys, app, &[]).unwrap());
            out.push(render(
                &format!("{name} {tuning_name} {phase} g{i:02}"),
                one,
                four,
            ));
        }
        for (i, (id, sys)) in key_specs(loaded).into_iter().enumerate() {
            let (one, four) = both(&|engine, t, _| {
                engine
                    .lookup_key(t, &Key::int(id), &sys, &AppSpec::All)
                    .unwrap()
            });
            out.push(render(
                &format!("{name} {tuning_name} {phase} k{i:02}"),
                one,
                four,
            ));
        }
        // A table nothing was ever written to: every partition is empty.
        for (i, sys) in [SysSpec::Current, SysSpec::AsOf(SysTime(2))]
            .into_iter()
            .enumerate()
        {
            let (one, four) =
                both(&|engine, _, e| engine.scan(e, &sys, &AppSpec::All, &[]).unwrap());
            out.push(render(
                &format!("{name} {tuning_name} {phase} e{i:02}"),
                one,
                four,
            ));
        }
    }
}

#[test]
fn scan_counters_match_the_committed_table() {
    let mut lines = Vec::new();
    for kind in SystemKind::ALL {
        for (tuning_name, tuning) in [
            ("none", TuningConfig::none()),
            ("key_time", TuningConfig::key_time()),
            ("temporal", TuningConfig::temporal()),
        ] {
            lines_for(kind, tuning_name, &tuning, &mut lines);
        }
    }
    let table = lines.join("\n") + "\n";

    // The table is only worth pinning if it covers the paths that moved.
    for (what, needle) in [
        (
            "System B scanned staged undo entries",
            " t.staging/full-scan(1)/",
        ),
        ("a PK lookup ran", "/key-lookup(pk_t)/"),
        ("a history key index ran", "/key-lookup(ix_hist_key_t)/"),
        (
            "a two-morsel partition was scanned",
            " t.current/full-scan(1)/1200,1200,0,0,0,0,2,1200/1/4",
        ),
    ] {
        assert!(table.contains(needle), "coverage lost: {what}");
    }
    for kind in SystemKind::ALL {
        let name = kind.name().trim_start_matches("System ");
        assert!(
            table
                .lines()
                .any(|l| l.starts_with(&format!("{name} temporal")) && l.contains("/tindex(")),
            "coverage lost: {kind} never took a temporal probe"
        );
    }

    golden::assert_golden(GOLDEN, &table);
}
