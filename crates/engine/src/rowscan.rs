//! Partition scanning with cost-based access-path selection.
//!
//! Every engine answers a scan per physical partition by choosing among the
//! paths its layout offers: primary-key lookup, B-Tree index scan, GiST scan,
//! temporal-index probe, or a full scan. All applicable paths are enumerated
//! into a [`bitempo_query::optimizer::Memo`], costed from the partition's
//! row count and each index's candidate-fraction estimate, and the cheapest
//! wins. The cost weights keep the regime the paper measured — indexes pay
//! off only for selective predicates, and optimizers flip to table scans
//! otherwise (§5.3.2, §5.4.1, §5.9) — but the flip point now falls out of
//! relative work, not a hard-coded threshold. The plan depends only on the
//! partition's contents and the query: the estimate is reported as
//! `planned_rows` beside the rows actually visited, and never fed back.

use crate::api::{AccessPath, AppSpec, ColRange, SysSpec};
use crate::index::{GistIndex, IndexedCol, OrderedIndex};
use crate::morsel::{run_morsels, MorselExec, ScanMetrics};
use crate::version::Version;
use bitempo_core::{obs, Result, Row, SysTime, TableDef, Value};
use bitempo_query::optimizer::{self, Alternative, PathKind, ValuePreds};
use bitempo_query::plan::{AppClass, SysClass};
use bitempo_storage::{Heap, Rect};
use bitempo_tindex::{AppProbe, ProbeCost, SysProbe, TemporalIndex};
use std::ops::{Bound, Range};

/// Identifies where a partition scan runs, for access-path traces: which
/// engine, table, and physical partition. Plain borrowed labels — building
/// one costs nothing, so engines pass it unconditionally.
#[derive(Debug, Clone, Copy)]
pub struct ScanSite<'a> {
    /// Engine display name ("System A" .. "System D").
    pub engine: &'a str,
    /// Table name.
    pub table: &'a str,
    /// Physical partition label ("current", "history", "staging", "all").
    pub partition: &'a str,
}

impl ScanSite<'_> {
    /// Records one [`obs::ScanTrace`] for this site from counter deltas.
    /// No-op (and no allocation) while tracing is disabled.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        access: &AccessPath,
        delta: ScanMetrics,
        rows_emitted: u64,
        workers: usize,
        start_nanos: u64,
        dur_nanos: u64,
    ) {
        obs::record_scan(|| obs::ScanTrace {
            engine: self.engine.to_string(),
            table: self.table.to_string(),
            partition: self.partition.to_string(),
            access: access.to_string(),
            rows_visited: delta.rows_visited,
            rows_emitted,
            versions_pruned: delta.versions_pruned,
            index_probes: delta.index_probes,
            index_hits: delta.index_hits,
            index_node_visits: delta.index_node_visits,
            morsels: delta.morsels,
            planned_rows: delta.planned_rows,
            workers: workers as u64,
            start_nanos,
            dur_nanos,
        });
    }
}

/// One physical partition as the scan pipeline sees it: a slot-addressable
/// collection of versions that filters first and materialises second. Given
/// the scan's specification, a source judges a version — does it qualify
/// under both temporal specs and every pushed predicate? — and appends the
/// output row (in `def.scan_schema()` layout) only if it does, so a layout
/// that can judge a version without assembling it (a column store) never
/// builds a row it prunes. The pipeline does the counting.
///
/// `Sync` is a supertrait so sequential scans over a partition can be split
/// into morsels and executed by scoped worker threads (see
/// [`crate::morsel`]); every implementation is plain owned data.
pub trait VersionSource: Sync {
    /// Upper bound (exclusive) on scan positions: the range `0..scan_units()`
    /// covers every live version, and disjoint sub-ranges visit disjoint
    /// versions. For heaps this counts tombstoned slots too.
    fn scan_units(&self) -> usize;
    /// Number of versions the planner costs the partition at.
    fn len(&self) -> usize;
    /// True when the partition holds no versions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Judges the version stored at `slot`, appending its output row to
    /// `out` if it qualifies: `Some(qualified)`, or `None` when no live
    /// version is stored there (index candidates are supersets).
    fn probe(
        &self,
        slot: u64,
        def: &TableDef,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
        out: &mut Vec<Row>,
    ) -> Option<bool>;
    /// Judges every live version whose scan position is in `range`, in
    /// position order, appending the output rows of the qualifying ones to
    /// `out`. Returns how many versions it judged.
    fn scan_range(
        &self,
        range: Range<usize>,
        def: &TableDef,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
        out: &mut Vec<Row>,
    ) -> u64;
}

/// The verdict on a stored [`Version`] — all a row source has to do.
fn judge(
    v: &Version,
    def: &TableDef,
    sys: &SysSpec,
    app: &AppSpec,
    preds: &[ColRange],
) -> Option<Row> {
    (v.matches(sys, app) && v.matches_preds(preds)).then(|| v.output_row(def))
}

impl VersionSource for Heap<Version> {
    fn scan_units(&self) -> usize {
        self.allocated()
    }
    fn len(&self) -> usize {
        Heap::len(self)
    }
    fn probe(
        &self,
        slot: u64,
        def: &TableDef,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
        out: &mut Vec<Row>,
    ) -> Option<bool> {
        let row = judge(
            self.get(bitempo_storage::SlotId(slot as u32))?,
            def,
            sys,
            app,
            preds,
        );
        Some(row.map(|row| out.push(row)).is_some())
    }
    fn scan_range(
        &self,
        range: Range<usize>,
        def: &TableDef,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
        out: &mut Vec<Row>,
    ) -> u64 {
        let mut judged = 0;
        for (_, v) in self.iter_range(range) {
            judged += 1;
            if let Some(row) = judge(v, def, sys, app, preds) {
                out.push(row);
            }
        }
        judged
    }
}

/// A materialized partition (System B's reconstructed current partition),
/// sorted by slot for binary-search resolution of index probes.
pub struct Reconstructed(pub Vec<(u64, Version)>);

impl VersionSource for Reconstructed {
    fn scan_units(&self) -> usize {
        self.0.len()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn probe(
        &self,
        slot: u64,
        def: &TableDef,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
        out: &mut Vec<Row>,
    ) -> Option<bool> {
        let i = self.0.binary_search_by_key(&slot, |(s, _)| *s).ok()?;
        let (_, v) = self.0.get(i)?;
        let row = judge(v, def, sys, app, preds);
        Some(row.map(|row| out.push(row)).is_some())
    }
    fn scan_range(
        &self,
        range: Range<usize>,
        def: &TableDef,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
        out: &mut Vec<Row>,
    ) -> u64 {
        let end = range.end.min(self.0.len());
        let versions = self.0.get(range.start.min(end)..end).unwrap_or(&[]);
        out.extend(
            versions
                .iter()
                .filter_map(|(_, v)| judge(v, def, sys, app, preds)),
        );
        versions.len() as u64
    }
}

/// One partition's access structures, borrowed for the duration of a scan.
pub struct PartitionView<'a> {
    /// The versions.
    pub source: &'a dyn VersionSource,
    /// Primary-key index (leading columns = key columns), if any.
    pub pk: Option<&'a OrderedIndex>,
    /// Secondary ordered indexes.
    pub indexes: &'a [OrderedIndex],
    /// GiST index, if any (System D).
    pub gist: Option<&'a GistIndex>,
    /// Temporal index (Timeline + interval index), if attached.
    pub tindex: Option<&'a TemporalIndex>,
}

/// The [`SysProbe`] a system-time spec implies, or `None` when the spec
/// does not constrain system time.
pub fn sys_probe_for(sys: &SysSpec) -> Option<SysProbe> {
    match sys {
        SysSpec::Current => Some(SysProbe::CurrentOnly),
        SysSpec::AsOf(t) => Some(SysProbe::At(*t)),
        SysSpec::Range(p) => Some(SysProbe::During(*p)),
        SysSpec::All => None,
    }
}

/// The [`AppProbe`] an application-time spec implies, or `None` when the
/// spec does not constrain application time.
pub fn app_probe_for(app: &AppSpec) -> Option<AppProbe> {
    match app {
        AppSpec::AsOf(d) => Some(AppProbe::At(*d)),
        AppSpec::Range(p) => Some(AppProbe::During(*p)),
        AppSpec::All => None,
    }
}

/// The optimizer predicate class of a scan: which temporal dimensions are
/// constrained and what shape the pushed value predicates take, as the plan
/// validator sees it.
pub fn pred_class(sys: &SysSpec, app: &AppSpec, preds: &[ColRange]) -> optimizer::PredClass {
    let values = if preds.is_empty() {
        ValuePreds::None
    } else if preds
        .iter()
        .all(|p| matches!((&p.lo, &p.hi), (Bound::Included(a), Bound::Included(b)) if a == b))
    {
        ValuePreds::Point
    } else {
        ValuePreds::Range
    };
    optimizer::PredClass {
        sys: match sys {
            SysSpec::Current => SysClass::Current,
            SysSpec::AsOf(_) => SysClass::AsOf,
            SysSpec::Range(_) => SysClass::Range,
            SysSpec::All => SysClass::All,
        },
        app: match app {
            AppSpec::AsOf(_) => AppClass::AsOf,
            AppSpec::Range(_) => AppClass::Range,
            AppSpec::All => AppClass::All,
        },
        values,
    }
}

/// The range on an index's leading column implied by the temporal specs or
/// pushed predicates, with an owned-bounds representation.
struct ProbeRange {
    lo: Bound<Value>,
    hi: Bound<Value>,
}

fn probe_range_for(
    index: &OrderedIndex,
    sys: &SysSpec,
    app: &AppSpec,
    preds: &[ColRange],
) -> Option<ProbeRange> {
    match index.def.cols.first()? {
        IndexedCol::Value(c) => {
            let p = preds.iter().find(|p| p.col == *c)?;
            Some(ProbeRange {
                lo: p.lo.clone(),
                hi: p.hi.clone(),
            })
        }
        IndexedCol::AppStart => match app {
            // app_start <= point < app_end: the index bounds only the start.
            AppSpec::AsOf(d) => Some(ProbeRange {
                lo: Bound::Unbounded,
                hi: Bound::Included(Value::Date(*d)),
            }),
            AppSpec::Range(p) => Some(ProbeRange {
                lo: Bound::Unbounded,
                hi: Bound::Excluded(Value::Date(p.end)),
            }),
            AppSpec::All => None,
        },
        IndexedCol::SysStart => match sys {
            SysSpec::AsOf(t) => Some(ProbeRange {
                lo: Bound::Unbounded,
                hi: Bound::Included(Value::SysTime(*t)),
            }),
            SysSpec::Range(p) => Some(ProbeRange {
                lo: Bound::Unbounded,
                hi: Bound::Excluded(Value::SysTime(p.end)),
            }),
            SysSpec::Current | SysSpec::All => None,
        },
        IndexedCol::SysEnd => match sys {
            // sys_end > point (or > range.start).
            SysSpec::AsOf(t) => Some(ProbeRange {
                lo: Bound::Excluded(Value::SysTime(*t)),
                hi: Bound::Unbounded,
            }),
            SysSpec::Range(p) => Some(ProbeRange {
                lo: Bound::Excluded(Value::SysTime(p.start)),
                hi: Bound::Unbounded,
            }),
            SysSpec::Current | SysSpec::All => None,
        },
    }
}

/// The GiST query rectangle implied by the temporal specs, or `None` when
/// neither dimension constrains the scan (a GiST probe would be a full walk).
pub fn gist_query_rect(sys: &SysSpec, app: &AppSpec, now: SysTime) -> Option<Rect> {
    let (x_min, x_max) = match app {
        AppSpec::AsOf(d) => (d.0, d.0),
        AppSpec::Range(p) => (p.start.0, p.end.0.saturating_sub(1)),
        AppSpec::All => (i64::MIN + 1, i64::MAX - 1),
    };
    let sys_pt = |t: SysTime| t.0.min((i64::MAX - 1) as u64) as i64;
    let (y_min, y_max) = match sys {
        SysSpec::Current => (sys_pt(now), sys_pt(now)),
        SysSpec::AsOf(t) => (sys_pt(*t), sys_pt(*t)),
        SysSpec::Range(p) => (sys_pt(p.start), sys_pt(p.end).saturating_sub(1)),
        SysSpec::All => (0, i64::MAX - 1),
    };
    if matches!(app, AppSpec::All) && matches!(sys, SysSpec::All) {
        return None;
    }
    Some(Rect::new(x_min, x_max, y_min, y_max))
}

/// Execution recipe for one enumerated alternative, kept parallel to the
/// memo's insertion order so the winning index maps back to the borrowed
/// access structures without re-deriving probe arguments.
enum Choice<'a> {
    /// Morsel-parallel sequential scan.
    Seq,
    /// Exact prefix probe of the primary-key index with the pinned values.
    Key(&'a OrderedIndex, Vec<Value>),
    /// Range probe of an ordered index.
    BTree(&'a OrderedIndex, ProbeRange),
    /// Rectangle probe of the GiST.
    Gist(&'a GistIndex, Rect),
    /// Temporal-index candidate probe.
    Tix(&'a TemporalIndex, Option<SysProbe>, Option<AppProbe>),
}

/// Scans one partition: picks an access path, applies residual filters, and
/// appends qualifying output rows (in `def.scan_schema()` layout) to `out`.
/// Counters accumulate into `metrics`. Sequential scans are morsel-parallel
/// per `exec` (`workers <= 1` runs inline); the index paths stay serial, as
/// their probe result sets are already small by construction. Returns the
/// access path taken, or [`bitempo_core::Error::WorkerPanicked`] if a scan
/// worker panicked (the panic is contained; partial output is discarded).
///
/// The path is chosen by the cost-based memo in
/// [`bitempo_query::optimizer`] from the partition and the query alone, so a
/// repeated scan re-plans identically. Costs price total work, not wall
/// clock, so the chosen path — and the output — is identical across worker
/// counts.
///
/// When tracing is enabled ([`obs::is_enabled`]) one [`obs::ScanTrace`] is
/// recorded for `site`; the disabled path is a single flag check.
#[allow(clippy::too_many_arguments)]
pub fn scan_partition(
    site: ScanSite<'_>,
    part: &PartitionView<'_>,
    def: &TableDef,
    sys: &SysSpec,
    app: &AppSpec,
    preds: &[ColRange],
    now: SysTime,
    exec: MorselExec,
    out: &mut Vec<Row>,
    metrics: &mut ScanMetrics,
) -> Result<AccessPath> {
    let Some(start) = obs::trace_clock() else {
        return scan_partition_inner(part, def, sys, app, preds, now, exec, out, metrics);
    };
    let rows_before = out.len();
    let before = *metrics;
    let result = scan_partition_inner(part, def, sys, app, preds, now, exec, out, metrics);
    let end = obs::trace_clock().unwrap_or(start);
    if let Ok(path) = &result {
        let delta = ScanMetrics {
            morsels: metrics.morsels - before.morsels,
            rows_visited: metrics.rows_visited - before.rows_visited,
            versions_pruned: metrics.versions_pruned - before.versions_pruned,
            index_probes: metrics.index_probes - before.index_probes,
            index_hits: metrics.index_hits - before.index_hits,
            index_node_visits: metrics.index_node_visits - before.index_node_visits,
            planned_rows: metrics.planned_rows - before.planned_rows,
        };
        site.record(
            path,
            delta,
            (out.len() - rows_before) as u64,
            exec.workers.max(1),
            start,
            end.saturating_sub(start),
        );
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn scan_partition_inner(
    part: &PartitionView<'_>,
    def: &TableDef,
    sys: &SysSpec,
    app: &AppSpec,
    preds: &[ColRange],
    now: SysTime,
    exec: MorselExec,
    out: &mut Vec<Row>,
    metrics: &mut ScanMetrics,
) -> Result<AccessPath> {
    let n = part.source.len();
    // An empty partition defeats every estimator: candidate fractions would
    // divide by zero, and the old `len().max(1)` patch made an empty
    // partition estimate fraction 0 and unconditionally "win" the temporal
    // probe. There is nothing to choose between — short-circuit to a
    // trivial sequential pass that visits nothing.
    if n == 0 {
        return Ok(AccessPath::FullScan { partitions: 1 });
    }

    // Resolves one index candidate through the source.
    let probe = |slot: u64, out: &mut Vec<Row>, m: &mut ScanMetrics| {
        m.index_probes += 1;
        match part.source.probe(slot, def, sys, app, preds, out) {
            Some(true) => {
                m.rows_visited += 1;
                m.index_hits += 1;
            }
            Some(false) => {
                m.rows_visited += 1;
                m.versions_pruned += 1;
            }
            None => {}
        }
    };

    // Sequential execution, split into morsels. Merging in morsel order
    // keeps the output identical to a single-threaded scan for any worker
    // count.
    let run_seq = |out: &mut Vec<Row>, metrics: &mut ScanMetrics| -> Result<AccessPath> {
        let (rows, scan_metrics) = run_morsels(part.source.scan_units(), exec, |range, buf, m| {
            let before = buf.len();
            let judged = part.source.scan_range(range, def, sys, app, preds, buf);
            m.rows_visited += judged;
            m.versions_pruned += judged - (buf.len() - before) as u64;
        })?;
        metrics.merge(&scan_metrics);
        out.extend(rows);
        Ok(AccessPath::FullScan { partitions: 1 })
    };

    // Enumerate every applicable physical alternative into the memo, with a
    // parallel list of execution recipes in the same insertion order.
    let mut memo = optimizer::Memo::new(n);
    let mut choices: Vec<Choice<'_>> = Vec::new();

    memo.add(Alternative::seq());
    choices.push(Choice::Seq);

    // Primary-key lookup, when the predicates pin every key column. The
    // candidate set is exact, so the estimate is one row's share.
    if let Some(pk) = part.pk {
        if let Some(key_vals) = full_key_equality(def, preds) {
            memo.add(Alternative::new(PathKind::KeyLookup, Some(1.0 / n as f64)));
            choices.push(Choice::Key(pk, key_vals));
        }
    }

    // B-Tree range probes on every ordered index whose leading column the
    // query constrains.
    for index in part.indexes.iter().chain(part.pk) {
        let Some(range) = probe_range_for(index, sys, app, preds) else {
            continue;
        };
        let sel = match index.estimate_selectivity(bound_ref(&range.lo), bound_ref(&range.hi)) {
            Some(s) => s,
            // Non-estimable leading column (strings): only an equality
            // probe has a principled estimate — one distinct key's share of
            // the index. An empty index has no keys to share; skip it.
            None => match (&range.lo, &range.hi) {
                (Bound::Included(a), Bound::Included(b)) if a == b => {
                    match index.distinct_first() {
                        0 => continue,
                        d => 1.0 / d as f64,
                    }
                }
                _ => continue,
            },
        };
        memo.add(Alternative::new(PathKind::BTreeRange, Some(sel)));
        choices.push(Choice::BTree(index, range));
    }

    // GiST rectangle probe, when present and the query has a temporal
    // window — costed like every other path, not preferred by fiat.
    if let (Some(gist), Some(rect)) = (part.gist, gist_query_rect(sys, app, now)) {
        let frac = gist.estimate_fraction(&rect);
        memo.add(Alternative::new(PathKind::GistProbe, Some(frac)));
        choices.push(Choice::Gist(gist, rect));
    }

    // Temporal index, applicable whenever either temporal dimension is
    // constrained. Candidates are a superset, re-checked by the source, and
    // arrive sorted by slot so output order matches a sequential scan.
    if let Some(tix) = part.tindex {
        let sys_probe = sys_probe_for(sys);
        let app_probe = app_probe_for(app);
        if sys_probe.is_some() || app_probe.is_some() {
            let frac = tix.estimate_fraction(sys_probe.as_ref(), app_probe.as_ref(), n);
            memo.add(Alternative::new(PathKind::TemporalProbe, Some(frac)));
            choices.push(Choice::Tix(tix, sys_probe, app_probe));
        }
    }

    let decision = memo.best();
    // The sequential alternative is always registered, so a decision always
    // exists; the `None` arm below routes to the sequential fallback anyway.
    let winner_index = decision.as_ref().map_or(usize::MAX, |d| d.winner_index);
    metrics.planned_rows += decision.as_ref().map_or(n as u64, |d| d.winner.est_rows);

    #[cfg(debug_assertions)]
    if let Some(d) = &decision {
        let plan = optimizer::choice_plan(&def.name, &pred_class(sys, app, preds), d.winner.kind);
        debug_assert!(
            bitempo_query::plan::validate(&plan).is_ok(),
            "optimizer chose a plan shape the validator rejects: {}",
            d.winner.kind
        );
    }

    Ok(match choices.into_iter().nth(winner_index) {
        Some(Choice::Key(pk, key_vals)) => {
            for slot in pk.probe_prefix_counted(&key_vals, &mut metrics.index_node_visits) {
                probe(slot, out, metrics);
            }
            AccessPath::KeyLookup(pk.def.name.clone())
        }
        Some(Choice::BTree(index, range)) => {
            for slot in index.probe_range_counted(
                bound_ref(&range.lo),
                bound_ref(&range.hi),
                &mut metrics.index_node_visits,
            ) {
                probe(slot, out, metrics);
            }
            AccessPath::IndexScan(index.def.name.clone())
        }
        Some(Choice::Gist(gist, rect)) => {
            for slot in gist.probe_counted(&rect, &mut metrics.index_node_visits) {
                probe(slot, out, metrics);
            }
            AccessPath::GistScan(gist.name.clone())
        }
        Some(Choice::Tix(tix, sys_probe, app_probe)) => {
            let mut cost = ProbeCost::default();
            match tix.candidates(sys_probe.as_ref(), app_probe.as_ref(), &mut cost) {
                Some(slots) => {
                    metrics.index_node_visits += cost.node_visits;
                    for slot in slots {
                        probe(slot, out, metrics);
                    }
                    AccessPath::TemporalProbe(tix.name().to_string())
                }
                None => run_seq(out, metrics)?,
            }
        }
        Some(Choice::Seq) | None => run_seq(out, metrics)?,
    })
}

fn bound_ref(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// If `preds` contain equality constraints on *all* key columns of `def`,
/// returns the key values in key order.
pub fn full_key_equality(def: &TableDef, preds: &[ColRange]) -> Option<Vec<Value>> {
    let mut vals = Vec::with_capacity(def.key.len());
    for &k in &def.key {
        let p = preds.iter().find(|p| p.col == k)?;
        match (&p.lo, &p.hi) {
            (Bound::Included(a), Bound::Included(b)) if a == b => vals.push(a.clone()),
            _ => return None,
        }
    }
    Some(vals)
}

/// Merges per-partition access paths into the single path reported for the
/// whole scan: the most specific access wins; pure sequential access reports
/// the partition count.
pub fn merge_access(paths: Vec<AccessPath>) -> AccessPath {
    let mut partitions = 0u8;
    let mut best: Option<AccessPath> = None;
    for p in paths {
        match p {
            AccessPath::FullScan { partitions: n } => partitions += n,
            other => {
                let rank = |a: &AccessPath| match a {
                    AccessPath::KeyLookup(_) => 4,
                    AccessPath::TemporalProbe(_) => 3,
                    AccessPath::IndexScan(_) => 2,
                    AccessPath::GistScan(_) => 1,
                    AccessPath::FullScan { .. } => 0,
                };
                if best.as_ref().is_none_or(|b| rank(&other) > rank(b)) {
                    best = Some(other);
                }
            }
        }
    }
    match best {
        Some(b) if partitions == 0 => b,
        Some(b) => b, // indexed partitions dominate the report
        None => AccessPath::FullScan { partitions },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::IndexKind;
    use crate::index::IndexDef;
    use bitempo_core::{
        AppDate, AppPeriod, Column, DataType, Schema, SysPeriod, TableDef, TemporalClass,
    };

    fn site() -> ScanSite<'static> {
        ScanSite {
            engine: "test",
            table: "t",
            partition: "p",
        }
    }

    fn def() -> TableDef {
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

    fn mk_version(id: i64, val: i64, sys_start: u64, sys_end: Option<u64>) -> Version {
        Version {
            row: Row::new(vec![Value::Int(id), Value::Int(val)]),
            app: AppPeriod::new(AppDate(0), AppDate::MAX),
            sys: SysPeriod::new(SysTime(sys_start), sys_end.map_or(SysTime::MAX, SysTime)),
        }
    }

    fn heap_with(n: i64) -> Heap<Version> {
        let mut h = Heap::new();
        for i in 0..n {
            h.insert(mk_version(i, i * 10, i as u64, None));
        }
        h
    }

    #[test]
    fn full_scan_when_no_indexes() {
        let heap = heap_with(50);
        let part = PartitionView {
            source: &heap,
            pk: None,
            indexes: &[],
            gist: None,
            tindex: None,
        };
        let mut out = Vec::new();
        let mut m = ScanMetrics::default();
        let path = scan_partition(
            site(),
            &part,
            &def(),
            &SysSpec::All,
            &AppSpec::All,
            &[],
            SysTime(100),
            MorselExec::workers(1),
            &mut out,
            &mut m,
        )
        .unwrap();
        assert_eq!(path, AccessPath::FullScan { partitions: 1 });
        assert_eq!(out.len(), 50);
        assert_eq!(m.morsels, 1, "50 rows fit in one morsel");
        assert_eq!(m.rows_visited, 50);
        assert_eq!(m.versions_pruned, 0);
        assert_eq!(m.planned_rows, 50, "a sequential plan expects every row");
    }

    #[test]
    fn key_lookup_via_pk() {
        let heap = heap_with(50);
        let mut pk = OrderedIndex::new(IndexDef {
            name: "pk_t".into(),
            cols: vec![IndexedCol::Value(0)],
            kind: IndexKind::BTree,
        });
        for (slot, v) in heap.iter() {
            pk.insert(v, u64::from(slot.0));
        }
        let part = PartitionView {
            source: &heap,
            pk: Some(&pk),
            indexes: &[],
            gist: None,
            tindex: None,
        };
        let mut out = Vec::new();
        let mut m = ScanMetrics::default();
        let path = scan_partition(
            site(),
            &part,
            &def(),
            &SysSpec::Current,
            &AppSpec::All,
            &[ColRange::eq(0, Value::Int(7))],
            SysTime(100),
            MorselExec::workers(1),
            &mut out,
            &mut m,
        )
        .unwrap();
        assert_eq!(path, AccessPath::KeyLookup("pk_t".into()));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(1), &Value::Int(70));
        assert_eq!(m.index_probes, 1);
        assert_eq!(m.morsels, 0, "index paths dispatch no morsels");
    }

    #[test]
    fn selective_time_index_chosen_nonselective_scanned() {
        let heap = heap_with(1000);
        let mut ix = OrderedIndex::new(IndexDef {
            name: "ix_sys_start".into(),
            cols: vec![IndexedCol::SysStart],
            kind: IndexKind::BTree,
        });
        for (slot, v) in heap.iter() {
            ix.insert(v, u64::from(slot.0));
        }
        let indexes = vec![ix];
        let part = PartitionView {
            source: &heap,
            pk: None,
            indexes: &indexes,
            gist: None,
            tindex: None,
        };
        // Selective: sys_start <= 5 of 0..1000 → ~0.5 %.
        let mut out = Vec::new();
        let mut m = ScanMetrics::default();
        let path = scan_partition(
            site(),
            &part,
            &def(),
            &SysSpec::AsOf(SysTime(5)),
            &AppSpec::All,
            &[],
            SysTime(2000),
            MorselExec::workers(1),
            &mut out,
            &mut m,
        )
        .unwrap();
        assert_eq!(path, AccessPath::IndexScan("ix_sys_start".into()));
        assert_eq!(out.len(), 6, "versions 0..=5 visible at t5");
        assert_eq!(m.index_probes, 6);

        // Non-selective: AS OF t900 → 90 % → sequential scan.
        let mut out = Vec::new();
        let mut m = ScanMetrics::default();
        let path = scan_partition(
            site(),
            &part,
            &def(),
            &SysSpec::AsOf(SysTime(900)),
            &AppSpec::All,
            &[],
            SysTime(2000),
            MorselExec::workers(1),
            &mut out,
            &mut m,
        )
        .unwrap();
        assert_eq!(path, AccessPath::FullScan { partitions: 1 });
        assert_eq!(out.len(), 901);
        assert_eq!(m.rows_visited, 1000);
        assert_eq!(m.versions_pruned, 99);
    }

    #[test]
    fn gist_chosen_when_selective_declined_when_not() {
        // Bounded system periods [i, i+10) give the R-Tree tight rectangles,
        // so its fraction estimate tracks real selectivity.
        let mut heap = Heap::new();
        for i in 0..500i64 {
            heap.insert(mk_version(i, i, i as u64, Some(i as u64 + 10)));
        }
        let mut gist = GistIndex::new("gist_t");
        for (slot, v) in heap.iter() {
            gist.insert(v, u64::from(slot.0));
        }
        let part = PartitionView {
            source: &heap,
            pk: None,
            indexes: &[],
            gist: Some(&gist),
            tindex: None,
        };
        let bare = PartitionView {
            source: &heap,
            pk: None,
            indexes: &[],
            gist: None,
            tindex: None,
        };
        let run = |part: &PartitionView, sys: &SysSpec| {
            let mut out = Vec::new();
            let mut m = ScanMetrics::default();
            let path = scan_partition(
                site(),
                part,
                &def(),
                sys,
                &AppSpec::All,
                &[],
                SysTime(1000),
                MorselExec::workers(1),
                &mut out,
                &mut m,
            )
            .unwrap();
            (path, out, m)
        };
        // Selective: AS OF t10 → sys [i, i+10) contains 10 only for i 1..=10.
        let selective = SysSpec::AsOf(SysTime(10));
        let (path, out, _) = run(&part, &selective);
        assert_eq!(path, AccessPath::GistScan("gist_t".into()));
        assert_eq!(out.len(), 10, "versions 1..=10 visible at t10");
        let (bare_path, bare_out, _) = run(&bare, &selective);
        assert_eq!(bare_path, AccessPath::FullScan { partitions: 1 });
        assert_eq!(out, bare_out, "GiST output identical to full scan");
        // Non-selective: a range covering every version → sequential scan.
        let wide = SysSpec::Range(SysPeriod::new(SysTime(0), SysTime(600)));
        let (path, out, _) = run(&part, &wide);
        assert_eq!(path, AccessPath::FullScan { partitions: 1 });
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn parallel_scan_identical_to_sequential() {
        // Big enough for several morsels, with tombstones to make slot
        // positions and live count disagree.
        let mut heap = heap_with(5000);
        for slot in [3u32, 999, 2048, 4096] {
            heap.remove(bitempo_storage::SlotId(slot));
        }
        let part = PartitionView {
            source: &heap,
            pk: None,
            indexes: &[],
            gist: None,
            tindex: None,
        };
        let scan = |workers: usize| {
            let mut out = Vec::new();
            let mut m = ScanMetrics::default();
            let path = scan_partition(
                site(),
                &part,
                &def(),
                &SysSpec::AsOf(SysTime(2500)),
                &AppSpec::All,
                &[],
                SysTime(9000),
                MorselExec::workers(workers),
                &mut out,
                &mut m,
            )
            .unwrap();
            assert_eq!(path, AccessPath::FullScan { partitions: 1 });
            (out, m)
        };
        let (seq_rows, seq_m) = scan(1);
        assert_eq!(seq_m.morsels, 5, "5000 slots => 5 morsels");
        assert_eq!(seq_m.rows_visited, 4996, "tombstones are skipped");
        for workers in [2, 4, 8] {
            let (par_rows, par_m) = scan(workers);
            assert_eq!(par_rows, seq_rows, "workers={workers}");
            assert_eq!(par_m, seq_m, "workers={workers}");
        }
    }

    #[test]
    fn reconstructed_source_binary_search() {
        let recon = Reconstructed(vec![
            (2, mk_version(2, 20, 0, None)),
            (5, mk_version(5, 50, 0, None)),
            (9, mk_version(9, 90, 0, None)),
        ]);
        let (d, preds) = (def(), [ColRange::eq(1, Value::Int(50))]);
        let mut rows = Vec::new();
        let mut probe =
            |slot| recon.probe(slot, &d, &SysSpec::All, &AppSpec::All, &preds, &mut rows);
        assert_eq!(probe(5), Some(true), "stored and qualifying");
        assert_eq!(probe(2), Some(false), "stored, pruned by the predicate");
        assert_eq!(probe(3), None, "nothing stored at slot 3");
        assert_eq!((recon.len(), rows.len()), (3, 1));
        rows.clear();
        let judged = recon.scan_range(0..9, &d, &SysSpec::All, &AppSpec::All, &preds, &mut rows);
        assert_eq!((judged, rows.len()), (3, 1), "three stored, one qualifies");
    }

    #[test]
    fn full_key_equality_detection() {
        let d = def();
        assert_eq!(
            full_key_equality(&d, &[ColRange::eq(0, Value::Int(3))]),
            Some(vec![Value::Int(3)])
        );
        assert_eq!(
            full_key_equality(&d, &[ColRange::eq(1, Value::Int(3))]),
            None
        );
        let range_pred = ColRange::between(
            0,
            Bound::Included(Value::Int(1)),
            Bound::Included(Value::Int(5)),
        );
        assert_eq!(full_key_equality(&d, &[range_pred]), None);
    }

    fn tindex_over(heap: &Heap<Version>) -> TemporalIndex {
        let mut tix = TemporalIndex::new("tix_t", 64);
        for (slot, v) in heap.iter() {
            tix.insert(u64::from(slot.0), v.app, v.sys);
        }
        tix.prepare();
        tix
    }

    #[test]
    fn temporal_probe_chosen_when_selective_and_matches_full_scan() {
        let heap = heap_with(1000);
        let tix = tindex_over(&heap);
        let part = PartitionView {
            source: &heap,
            pk: None,
            indexes: &[],
            gist: None,
            tindex: Some(&tix),
        };
        let bare = PartitionView {
            source: &heap,
            pk: None,
            indexes: &[],
            gist: None,
            tindex: None,
        };
        // Selective: visible at t5 → 6 of 1000 versions.
        let run = |part: &PartitionView| {
            let mut out = Vec::new();
            let mut m = ScanMetrics::default();
            let path = scan_partition(
                site(),
                part,
                &def(),
                &SysSpec::AsOf(SysTime(5)),
                &AppSpec::All,
                &[],
                SysTime(2000),
                MorselExec::workers(1),
                &mut out,
                &mut m,
            )
            .unwrap();
            (path, out, m)
        };
        let (path, out, m) = run(&part);
        assert_eq!(path, AccessPath::TemporalProbe("tix_t".into()));
        assert_eq!(out.len(), 6, "versions 0..=5 visible at t5");
        assert_eq!(m.index_probes, 6);
        assert_eq!(m.index_hits, 6, "the superset was exact here");
        assert!(m.index_node_visits > 0, "probe work is accounted");
        assert_eq!(m.morsels, 0, "no morsels on the probe path");
        assert!(m.planned_rows > 0, "the chosen probe carried an estimate");
        let (bare_path, bare_out, _) = run(&bare);
        assert_eq!(bare_path, AccessPath::FullScan { partitions: 1 });
        assert_eq!(out, bare_out, "probe output identical to full scan");
    }

    #[test]
    fn temporal_probe_declined_when_not_selective() {
        let heap = heap_with(1000);
        let tix = tindex_over(&heap);
        let part = PartitionView {
            source: &heap,
            pk: None,
            indexes: &[],
            gist: None,
            tindex: Some(&tix),
        };
        let mut out = Vec::new();
        let mut m = ScanMetrics::default();
        // AS OF t900 → ~90 % of versions qualify: scan wins.
        let path = scan_partition(
            site(),
            &part,
            &def(),
            &SysSpec::AsOf(SysTime(900)),
            &AppSpec::All,
            &[],
            SysTime(2000),
            MorselExec::workers(1),
            &mut out,
            &mut m,
        )
        .unwrap();
        assert_eq!(path, AccessPath::FullScan { partitions: 1 });
        assert_eq!(out.len(), 901);
    }

    #[test]
    fn empty_partition_short_circuits_before_estimating() {
        // Regression: the old planner fed `len().max(1)` to the temporal
        // estimator, so an empty partition estimated fraction 0 and always
        // "won" the probe. Empty partitions must take the trivial scan.
        let heap: Heap<Version> = Heap::new();
        let mut tix = TemporalIndex::new("tix_t", 64);
        tix.prepare();
        let part = PartitionView {
            source: &heap,
            pk: None,
            indexes: &[],
            gist: None,
            tindex: Some(&tix),
        };
        let mut out = Vec::new();
        let mut m = ScanMetrics::default();
        let path = scan_partition(
            site(),
            &part,
            &def(),
            &SysSpec::AsOf(SysTime(5)),
            &AppSpec::All,
            &[],
            SysTime(100),
            MorselExec::workers(4),
            &mut out,
            &mut m,
        )
        .unwrap();
        assert_eq!(path, AccessPath::FullScan { partitions: 1 });
        assert!(out.is_empty());
        assert_eq!(m.index_probes, 0, "no probe against an empty partition");
        assert_eq!(m.planned_rows, 0);
    }

    #[test]
    fn merge_access_prefers_specific() {
        let merged = merge_access(vec![
            AccessPath::FullScan { partitions: 1 },
            AccessPath::IndexScan("ix".into()),
        ]);
        assert_eq!(merged, AccessPath::IndexScan("ix".into()));
        let merged = merge_access(vec![
            AccessPath::FullScan { partitions: 1 },
            AccessPath::FullScan { partitions: 2 },
        ]);
        assert_eq!(merged, AccessPath::FullScan { partitions: 3 });
    }

    #[test]
    fn gist_rect_construction() {
        let r =
            gist_query_rect(&SysSpec::Current, &AppSpec::AsOf(AppDate(10)), SysTime(42)).unwrap();
        assert_eq!((r.x_min, r.x_max), (10, 10));
        assert_eq!((r.y_min, r.y_max), (42, 42));
        assert!(gist_query_rect(&SysSpec::All, &AppSpec::All, SysTime(0)).is_none());
    }

    #[test]
    fn gist_scan_with_empty_app_range_probes_nothing() {
        let heap = heap_with(100);
        let mut gist = GistIndex::new("gist_t");
        for (slot, v) in heap.iter() {
            gist.insert(v, u64::from(slot.0));
        }
        let part = PartitionView {
            source: &heap,
            pk: None,
            indexes: &[],
            gist: Some(&gist),
            tindex: None,
        };
        // Empty application window [5, 5): no version can qualify, the query
        // rect is inverted, and the estimated fraction is 0 — the GiST wins
        // on startup cost alone and must return no slots instead of
        // spuriously matching versions that straddle day 5.
        let empty = AppPeriod::new(AppDate(5), AppDate(5));
        let rect = gist_query_rect(&SysSpec::All, &AppSpec::Range(empty), SysTime(200)).unwrap();
        assert!(rect.is_empty());
        let mut out = Vec::new();
        let mut m = ScanMetrics::default();
        let path = scan_partition(
            site(),
            &part,
            &def(),
            &SysSpec::All,
            &AppSpec::Range(empty),
            &[],
            SysTime(200),
            MorselExec::workers(1),
            &mut out,
            &mut m,
        )
        .unwrap();
        assert_eq!(path, AccessPath::GistScan("gist_t".into()));
        assert!(out.is_empty());
        assert_eq!(m.index_probes, 0, "no false-positive probes");
    }
}
