//! Every experiment's report shape pinned against a committed file: for each
//! registry id, run through the registry at one fixed micro configuration,
//! the id, title and unit, every series label with its x labels, every
//! access-breakdown row with all its counters and the notes (digit runs
//! masked to `#`, so timings never count) must equal `report_shapes.txt`.
//! Measured values are not part of a shape; the labels, access paths and
//! work counters a refactor of the harness must not move are.
//!
//! Regenerate (only when a shape is *meant* to change) with
//! `BITEMPO_WRITE_GOLDEN=1 cargo test -p bitempo-bench --test report_shapes`.

use bitempo_bench::experiments::EXPERIMENTS;
use bitempo_bench::{BenchConfig, FigureReport};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/report_shapes.txt");

fn micro_cfg() -> BenchConfig {
    BenchConfig {
        h: 0.001,
        m: 0.0003,
        repetitions: 1,
        discard: 0,
        batch_size: 1,
        workers: 2,
        trace: true,
    }
}

/// `text` with every run of ASCII digits replaced by one `#`.
fn mask_digits(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if !c.is_ascii_digit() {
            out.push(c);
        } else if !out.ends_with('#') {
            out.push('#');
        }
    }
    out
}

fn render(r: &FigureReport, out: &mut String) {
    writeln!(out, "## {} | {} | {}", r.id, r.title, r.unit).unwrap();
    for s in &r.series {
        let xs: Vec<&str> = s.points.iter().map(|(x, _)| x.as_str()).collect();
        writeln!(out, "series {} : {}", s.label, xs.join(" ; ")).unwrap();
        for (x, rows) in &s.breakdowns {
            for a in rows {
                writeln!(
                    out,
                    "  {x} | {}/{} | {} | {} {} {} {} {} {} {} {}",
                    a.table,
                    a.partition,
                    a.access,
                    a.scans,
                    a.planned_rows,
                    a.rows_visited,
                    a.rows_emitted,
                    a.versions_pruned,
                    a.index_probes,
                    a.index_hits,
                    a.index_node_visits
                )
                .unwrap();
            }
        }
    }
    for note in &r.notes {
        writeln!(out, "note {}", mask_digits(note)).unwrap();
    }
}

#[test]
fn every_report_keeps_its_committed_shape() {
    let cfg = micro_cfg();
    let mut shapes = String::new();
    for (id, run) in EXPERIMENTS {
        let report = run(&cfg).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(report.id, id, "registry id and report id agree");
        render(&report, &mut shapes);
    }

    if std::env::var_os("BITEMPO_WRITE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &shapes).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).unwrap();
    for (i, (want, got)) in golden.lines().zip(shapes.lines()).enumerate() {
        assert_eq!(want, got, "report_shapes.txt line {}", i + 1);
    }
    assert_eq!(golden.lines().count(), shapes.lines().count());
}
