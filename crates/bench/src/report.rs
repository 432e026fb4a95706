//! Figure/table data structures and markdown rendering.

use bitempo_core::obs::ScanTrace;

/// One aggregated access-path line for a measured cell: what one
/// `(table, partition, access path)` combination did during the query —
/// the per-cell EXPLAIN the paper reads next to every timing (§5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRow {
    /// Table name.
    pub table: String,
    /// Physical partition label ("current", "history", "staging", "all").
    pub partition: String,
    /// Rendered access path ("full-scan(1)", "btree(ix_...)", ...).
    pub access: String,
    /// How many times this combination was scanned during the query.
    pub scans: u64,
    /// Version records examined.
    pub rows_visited: u64,
    /// Qualifying rows emitted.
    pub rows_emitted: u64,
    /// Examined versions rejected by temporal specs or predicates.
    pub versions_pruned: u64,
    /// Slots resolved through index probes.
    pub index_probes: u64,
    /// Probed slots that survived every residual filter — "index helped",
    /// as opposed to merely "index probed".
    pub index_hits: u64,
    /// Internal index entries examined while probing (B-Tree leaf entries,
    /// R-Tree rectangles, timeline events, endpoint-list entries).
    pub index_node_visits: u64,
    /// Rows the optimizer's chosen path was estimated to visit — read
    /// against `rows_visited` to judge the estimate.
    pub planned_rows: u64,
}

impl AccessRow {
    /// Aggregates raw per-partition scan traces by
    /// `(table, partition, access)`, summing the work counters, in
    /// first-seen order.
    pub fn aggregate(scans: &[ScanTrace]) -> Vec<AccessRow> {
        let mut out: Vec<AccessRow> = Vec::new();
        for t in scans {
            let found = out
                .iter_mut()
                .find(|r| r.table == t.table && r.partition == t.partition && r.access == t.access);
            match found {
                Some(r) => {
                    r.scans += 1;
                    r.rows_visited += t.rows_visited;
                    r.rows_emitted += t.rows_emitted;
                    r.versions_pruned += t.versions_pruned;
                    r.index_probes += t.index_probes;
                    r.index_hits += t.index_hits;
                    r.index_node_visits += t.index_node_visits;
                    r.planned_rows += t.planned_rows;
                }
                None => out.push(AccessRow {
                    table: t.table.clone(),
                    partition: t.partition.clone(),
                    access: t.access.clone(),
                    scans: 1,
                    rows_visited: t.rows_visited,
                    rows_emitted: t.rows_emitted,
                    versions_pruned: t.versions_pruned,
                    index_probes: t.index_probes,
                    index_hits: t.index_hits,
                    index_node_visits: t.index_node_visits,
                    planned_rows: t.planned_rows,
                }),
            }
        }
        out
    }
}

/// One measured series (one line/bar group in a paper figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label, e.g. `"System A - no index"`.
    pub label: String,
    /// `(x label, value)` points. Values are latencies in microseconds
    /// unless the report's `unit` says otherwise.
    pub points: Vec<(String, f64)>,
    /// `(x label, access-path breakdown)` for cells measured with tracing
    /// on; rendered as a sub-table under the timing table.
    pub breakdowns: Vec<(String, Vec<AccessRow>)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
            breakdowns: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: impl Into<String>, value: f64) {
        self.points.push((x.into(), value));
    }

    /// Attaches the access-path breakdown of a measured cell.
    pub fn push_breakdown(&mut self, x: impl Into<String>, rows: Vec<AccessRow>) {
        self.breakdowns.push((x.into(), rows));
    }
}

/// A reproduced figure or table.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Experiment id (e.g. `fig2`, `table2`).
    pub id: String,
    /// Paper caption.
    pub title: String,
    /// Measurement unit of the values.
    pub unit: String,
    /// The series.
    pub series: Vec<Series>,
    /// Free-form observations appended under the table.
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>, unit: impl Into<String>) -> Self {
        FigureReport {
            id: id.into(),
            title: title.into(),
            unit: unit.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn add(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Adds a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// All x labels, in first-seen order across series.
    fn x_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        for s in &self.series {
            for (x, _) in &s.points {
                if !labels.contains(x) {
                    labels.push(x.clone());
                }
            }
        }
        labels
    }

    /// Renders a markdown table: one row per x label, one column per series.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("Values in {}.\n\n", self.unit));
        let labels = self.x_labels();
        out.push('|');
        out.push_str(" |");
        for s in &self.series {
            out.push_str(&format!(" {} |", s.label));
        }
        out.push('\n');
        out.push('|');
        out.push_str("---|");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        for x in &labels {
            out.push_str(&format!("| {x} |"));
            for s in &self.series {
                match s.points.iter().find(|(px, _)| px == x) {
                    Some((_, v)) if v.is_finite() => {
                        if v.abs() < 10.0 {
                            out.push_str(&format!(" {v:.3} |"));
                        } else {
                            out.push_str(&format!(" {v:.1} |"));
                        }
                    }
                    _ => out.push_str(" — |"),
                }
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        if self.series.iter().any(|s| !s.breakdowns.is_empty()) {
            out.push_str("\n#### Access paths\n\n");
            out.push_str(
                "| series | query | table/partition | access | scans | planned | visited | emitted | pruned | probes | hits | node-visits |\n",
            );
            out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|\n");
            for s in &self.series {
                for (x, rows) in &s.breakdowns {
                    for r in rows {
                        out.push_str(&format!(
                            "| {} | {} | {}/{} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                            s.label,
                            x,
                            r.table,
                            r.partition,
                            r.access,
                            r.scans,
                            r.planned_rows,
                            r.rows_visited,
                            r.rows_emitted,
                            r.versions_pruned,
                            r.index_probes,
                            r.index_hits,
                            r.index_node_visits
                        ));
                    }
                }
            }
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut r = FigureReport::new("fig2", "Basic Time Travel", "µs");
        let mut a = Series::new("System A");
        a.push("T1 app", 10.0);
        a.push("T1 sys", 20.5);
        let mut b = Series::new("System B");
        b.push("T1 app", 30.0);
        r.add(a);
        r.add(b);
        r.note("B pays for reconstruction.");
        let md = r.to_markdown();
        assert!(md.contains("### fig2 — Basic Time Travel"));
        assert!(md.contains("| T1 app | 10.0 | 30.0 |"));
        assert!(
            md.contains("| T1 sys | 20.5 | — |"),
            "missing point renders as dash:\n{md}"
        );
        assert!(md.contains("> B pays for reconstruction."));
    }

    #[test]
    fn access_breakdown_aggregates_and_renders() {
        let scan = |partition: &str, access: &str, visited: u64, emitted: u64| ScanTrace {
            engine: "System A".into(),
            table: "lineitem".into(),
            partition: partition.into(),
            access: access.into(),
            rows_visited: visited,
            rows_emitted: emitted,
            versions_pruned: visited - emitted,
            index_probes: 0,
            index_hits: 0,
            index_node_visits: 0,
            morsels: 1,
            planned_rows: visited,
            workers: 1,
            start_nanos: 0,
            dur_nanos: 10,
        };
        // Two scans of the same (table, partition, access) collapse into one
        // row with summed counters; a different partition stays separate.
        let rows = AccessRow::aggregate(&[
            scan("current", "full-scan(1)", 100, 40),
            scan("current", "full-scan(1)", 50, 10),
            scan("history", "btree(ix_sys)", 7, 7),
        ]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].scans, 2);
        assert_eq!(rows[0].rows_visited, 150);
        assert_eq!(rows[0].rows_emitted, 50);
        assert_eq!(rows[0].versions_pruned, 100);
        assert_eq!(rows[1].partition, "history");
        assert_eq!(rows[1].access, "btree(ix_sys)");

        let mut r = FigureReport::new("explain", "Access paths", "µs");
        let mut s = Series::new("System A");
        s.push("T1", 12.0);
        s.push_breakdown("T1", rows);
        r.add(s);
        let md = r.to_markdown();
        assert!(md.contains("#### Access paths"), "{md}");
        assert!(
            md.contains(
                "| System A | T1 | lineitem/current | full-scan(1) | 2 | 150 | 150 | 50 | 100 | 0 | 0 | 0 |"
            ),
            "{md}"
        );
        assert!(
            md.contains(
                "| System A | T1 | lineitem/history | btree(ix_sys) | 1 | 7 | 7 | 7 | 0 | 0 | 0 | 0 |"
            ),
            "{md}"
        );
    }

    #[test]
    fn reports_without_breakdowns_omit_access_table() {
        let mut r = FigureReport::new("fig2", "t", "µs");
        let mut s = Series::new("s");
        s.push("a", 1.0);
        r.add(s);
        assert!(!r.to_markdown().contains("Access paths"));
    }

    #[test]
    fn x_labels_preserve_order() {
        let mut r = FigureReport::new("x", "y", "µs");
        let mut s1 = Series::new("s1");
        s1.push("b", 1.0);
        s1.push("a", 2.0);
        let mut s2 = Series::new("s2");
        s2.push("c", 3.0);
        s2.push("a", 4.0);
        r.add(s1);
        r.add(s2);
        assert_eq!(r.x_labels(), vec!["b", "a", "c"]);
    }
}
