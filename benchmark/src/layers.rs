//! Per-layer numbers read off a traced run's spans. A layer is a crate
//! name, the part of a span name before the dot.

use crate::measure::Outcome;
use crate::stats::median;
use crate::trace::{self_times_us, Span, ROOT};
use bitempo_engine::ScanMetrics;

/// Spans of one recording with their self times and root lookup.
pub struct Recording<'a> {
    pub spans: &'a [Span],
    pub own_us: Vec<f64>,
}

impl<'a> Recording<'a> {
    pub fn new(spans: &'a [Span]) -> Recording<'a> {
        Recording {
            own_us: self_times_us(spans),
            spans,
        }
    }

    /// Indexes of spans whose name is `name`, optionally on one lane.
    pub fn named(&self, name: &str, lane: Option<usize>) -> impl Iterator<Item = usize> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name && lane.is_none_or(|l| s.lane as usize == l))
            .map(|(i, _)| i)
    }

    /// The root span of span `i`'s op.
    pub fn root_of(&self, mut i: usize) -> usize {
        while self.spans[i].parent != ROOT {
            i = self.spans[i].parent as usize;
        }
        i
    }

    /// Median duration of the spans named `name`.
    pub fn p50_dur_us(&self, name: &str, lane: Option<usize>) -> f64 {
        let d: Vec<f64> = self
            .named(name, lane)
            .map(|i| self.spans[i].dur_us())
            .collect();
        median(&d)
    }

    /// Median self time of the spans named `name`.
    pub fn p50_self_us(&self, name: &str, lane: Option<usize>) -> f64 {
        let d: Vec<f64> = self.named(name, lane).map(|i| self.own_us[i]).collect();
        median(&d)
    }

    /// Per root op named `root`: the summed duration of its descendants in
    /// `layer` that have no ancestor in the same layer (so nested spans of a
    /// layer are not counted twice). Returns `(root index, layer us)`.
    pub fn layer_time_per_op(
        &self,
        root: &str,
        layer: &str,
        lane: Option<usize>,
    ) -> Vec<(usize, f64)> {
        let mut per_root: std::collections::BTreeMap<usize, f64> =
            self.named(root, lane).map(|i| (i, 0.0)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if s.layer() != layer || s.parent == ROOT {
                continue;
            }
            let mut up = s.parent as usize;
            let mut nested = false;
            loop {
                if self.spans[up].layer() == layer {
                    nested = true;
                    break;
                }
                if self.spans[up].parent == ROOT {
                    break;
                }
                up = self.spans[up].parent as usize;
            }
            if nested {
                continue;
            }
            if let Some(t) = per_root.get_mut(&self.root_of(i)) {
                *t += s.dur_us();
            }
        }
        per_root.into_iter().collect()
    }

    /// Largest relative gap, over all ops, between a root span and the sum
    /// of the self times of the spans of its op (0 when spans nest cleanly).
    pub fn worst_self_time_gap(&self) -> f64 {
        let mut sum = vec![0.0; self.spans.len()];
        for i in 0..self.spans.len() {
            sum[self.root_of(i)] += self.own_us[i];
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == ROOT && s.dur_us() > 0.0)
            .map(|(i, s)| ((sum[i] - s.dur_us()) / s.dur_us()).abs())
            .fold(0.0, f64::max)
    }
}

/// Sets the scan-side engine ratios (waste, index use, estimate error) from
/// every `engine.scan` / `engine.lookup_key` span under a root whose name
/// starts with `root_prefix`.
pub fn scan_ratios(rec: &Recording<'_>, root_prefix: &str, out: &mut Outcome) {
    let mut m = ScanMetrics::default();
    let (mut rows_out, mut scans, mut served) = (0u64, [0u64; 4], [0u64; 4]);
    for (i, s) in rec.spans.iter().enumerate() {
        let Some(c) = &s.scan else { continue };
        if !rec.spans[rec.root_of(i)].name.starts_with(root_prefix) {
            continue;
        }
        m.merge(&c.metrics);
        rows_out += c.rows_out;
        scans[s.lane as usize] += 1;
        served[s.lane as usize] += u64::from(c.index_served);
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set(
        "engine.rows_visited_per_row_out",
        ratio(m.rows_visited, rows_out),
    );
    out.set(
        "engine.versions_pruned_frac",
        ratio(m.versions_pruned, m.rows_visited),
    );
    out.set(
        "engine.index_served_frac",
        ratio(served.iter().sum(), scans.iter().sum()),
    );
    for (e, name) in crate::manifest::ENGINES.iter().enumerate() {
        out.set(
            &format!("engine.index_served_frac_{name}"),
            ratio(served[e], scans[e]),
        );
    }
    out.set("engine.index_hit_frac", ratio(m.index_hits, m.index_probes));
    out.set(
        "tindex.node_visits_per_probe",
        ratio(m.index_node_visits, m.index_probes),
    );
    out.set(
        "query.optimizer_est_ratio",
        ratio(m.planned_rows, m.rows_visited),
    );
}
