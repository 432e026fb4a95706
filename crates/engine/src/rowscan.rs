//! Partition scanning with cost-based access-path selection.
//!
//! Every engine answers a scan per physical partition by choosing among the
//! paths its layout offers: primary-key lookup, B-Tree index scan, GiST scan,
//! temporal-index probe, or a full scan. Every applicable path is costed by
//! [`bitempo_query::optimizer::PathKind::cost`] from the partition's row
//! count and its index's candidate-fraction estimate, and the cheapest
//! wins. The cost weights keep the regime the paper measured — indexes pay
//! off only for selective predicates, and optimizers flip to table scans
//! otherwise (§5.3.2, §5.4.1, §5.9) — but the flip point now falls out of
//! relative work, not a hard-coded threshold. The plan depends only on the
//! partition's contents and the query: the estimate is reported as
//! `planned_rows` beside the rows actually visited, and never fed back.
//!
//! Whichever path wins, a partition's [`VersionSource`] judges a version one
//! way, by scanning a range of positions: an index candidate is resolved as
//! the one-position range at the source's `position` of its slot, which is
//! the slot itself except where a layout addresses versions otherwise.

use crate::api::{AccessPath, AppSpec, ColRange, SysSpec};
use crate::index::{GistIndex, IndexedCol, OrderedIndex};
use crate::morsel::{run_morsels, ScanMetrics};
use crate::version::Version;
use bitempo_core::{obs, AppPeriod, Result, Row, SysPeriod, SysTime, TableDef, Value};
use bitempo_query::optimizer::PathKind;
use bitempo_storage::{Heap, Rect};
use bitempo_tindex::{ProbeCost, TemporalIndex, TemporalProbe};
use std::borrow::Borrow;
use std::cmp::Ordering;
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

/// One physical partition as the scan pipeline sees it: a position-addressable
/// collection of versions that filters first and materialises second. Given
/// the scan's specification, a source judges a version — does it qualify
/// under both temporal specs and every pushed predicate? — and appends the
/// output row (in `def.scan_schema()` layout) only if it does, so a layout
/// that can judge a version without assembling it (a column store) never
/// builds a row it prunes. The pipeline does the counting.
///
/// A source judges one way only, [`VersionSource::scan_range`]: a sequential
/// scan calls it per morsel, and an index candidate is the one-position range
/// at [`VersionSource::position`] of its slot, so index precision can never
/// change an answer.
///
/// `Sync` is a supertrait so sequential scans over a partition can be split
/// into morsels and executed by scoped worker threads (see
/// [`crate::morsel`]); every implementation is plain data, owned or borrowed.
pub trait VersionSource: Sync {
    /// Number of versions the planner costs the partition at.
    fn len(&self) -> usize;
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
    /// True when the partition holds no versions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Upper bound (exclusive) on scan positions: the range `0..scan_units()`
    /// covers every live version, and disjoint sub-ranges visit disjoint
    /// versions. A heap counts its free slots too.
    fn scan_units(&self) -> usize {
        self.len()
    }
    /// The scan position of the version an index addresses as `slot`, or
    /// `None` when no position can hold it. A slot is its own position
    /// unless the source overrides this (System B's current table addresses
    /// versions by uid).
    fn position(&self, slot: u64) -> Option<usize> {
        usize::try_from(slot)
            .ok()
            .filter(|&at| at < self.scan_units())
    }
}

/// The verdict on a stored [`Version`] — all a row source has to do.
fn judge<R: Borrow<Row>>(
    v: &Version<R>,
    def: &TableDef,
    sys: &SysSpec,
    app: &AppSpec,
    preds: &[ColRange],
) -> Option<Row> {
    (v.matches(sys, app) && v.matches_preds(preds)).then(|| v.output_row(def))
}

impl VersionSource for Heap<Version> {
    fn len(&self) -> usize {
        Heap::len(self)
    }
    fn scan_units(&self) -> usize {
        self.allocated()
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

/// An undo log's staged versions, addressed by position (System B's staging
/// partition).
impl VersionSource for Vec<Version> {
    fn len(&self) -> usize {
        Vec::len(self)
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
        let end = range.end.min(Vec::len(self));
        let versions = self.get(range.start.min(end)..end).unwrap_or(&[]);
        out.extend(
            versions
                .iter()
                .filter_map(|v| judge(v, def, sys, app, preds)),
        );
        versions.len() as u64
    }
}

/// A partition stored in two vertical parts — System B's current table:
/// the value part and the temporal part, each collected and sorted by uid,
/// then merge-joined in place so that position `i` of both sides holds the
/// two halves of one version. Scans judge the sides in step and index
/// probes binary-search the uid; a version is judged from borrowed parts
/// (a `Version<&Row>`), its row never cloned.
pub struct Reconstructed<'a> {
    /// `(uid, value columns)`, sorted by uid.
    values: Vec<(u64, &'a Row)>,
    /// `(uid, application period, system start)`, aligned with `values`.
    periods: Vec<(u64, AppPeriod, SysTime)>,
}

impl<'a> Reconstructed<'a> {
    /// Sorts both sides by uid and merge-joins them: a uid on one side only
    /// is dropped, and the sides end aligned.
    pub(crate) fn join(
        mut values: Vec<(u64, &'a Row)>,
        mut periods: Vec<(u64, AppPeriod, SysTime)>,
    ) -> Reconstructed<'a> {
        values.sort_unstable_by_key(|e| e.0);
        periods.sort_unstable_by_key(|e| e.0);
        let (mut v, mut p, mut joined) = (0, 0, 0);
        while let (Some(&(vuid, _)), Some(&(puid, ..))) = (values.get(v), periods.get(p)) {
            match vuid.cmp(&puid) {
                Ordering::Less => v += 1,
                Ordering::Greater => p += 1,
                Ordering::Equal => {
                    values.swap(joined, v);
                    periods.swap(joined, p);
                    (v, p, joined) = (v + 1, p + 1, joined + 1);
                }
            }
        }
        values.truncate(joined);
        periods.truncate(joined);
        Reconstructed { values, periods }
    }

    /// The joined versions at positions `range`, in uid order, with their
    /// uids: position `i` of both sides, in step.
    pub(crate) fn versions(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = (u64, Version<&'a Row>)> + '_ {
        let end = range.end.min(self.values.len());
        let range = range.start.min(end)..end;
        let values = self.values.get(range.clone()).unwrap_or(&[]);
        let periods = self.periods.get(range).unwrap_or(&[]);
        values
            .iter()
            .zip(periods)
            .map(|(&(uid, row), &(_, app, start))| {
                let sys = SysPeriod::since(start);
                (uid, Version { row, app, sys })
            })
    }
}

impl VersionSource for Reconstructed<'_> {
    fn len(&self) -> usize {
        self.values.len()
    }
    /// Index entries address a version by uid: its position is found by
    /// binary search.
    fn position(&self, slot: u64) -> Option<usize> {
        self.values.binary_search_by_key(&slot, |e| e.0).ok()
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
        for (_, v) in self.versions(range) {
            judged += 1;
            if let Some(row) = judge(&v, def, sys, app, preds) {
                out.push(row);
            }
        }
        judged
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

/// The `(lo, hi)` range on an index's leading column implied by the
/// temporal specs or pushed predicates.
fn probe_range_for(
    index: &OrderedIndex,
    sys: &SysSpec,
    app: &AppSpec,
    preds: &[ColRange],
) -> Option<(Bound<Value>, Bound<Value>)> {
    match index.def.cols.first()? {
        IndexedCol::Value(c) => {
            let p = preds.iter().find(|p| p.col == *c)?;
            Some((p.lo.clone(), p.hi.clone()))
        }
        // start <= point < end: the index bounds only the start.
        IndexedCol::AppStart => match app {
            AppSpec::AsOf(d) => Some((Bound::Unbounded, Bound::Included(Value::Date(*d)))),
            AppSpec::Range(p) => Some((Bound::Unbounded, Bound::Excluded(Value::Date(p.end)))),
            AppSpec::All => None,
        },
        IndexedCol::SysStart => match sys {
            SysSpec::AsOf(t) => Some((Bound::Unbounded, Bound::Included(Value::SysTime(*t)))),
            SysSpec::Range(p) => Some((Bound::Unbounded, Bound::Excluded(Value::SysTime(p.end)))),
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

/// Execution recipe for one offered path: the borrowed access structure and
/// its probe arguments, so the winner runs without re-deriving them.
enum Choice<'a> {
    /// Morsel-parallel sequential scan.
    Seq,
    /// Exact prefix probe of the primary-key index with the pinned values.
    Key(&'a OrderedIndex, Vec<Value>),
    /// Range probe of an ordered index, over `(lo, hi)`.
    BTree(&'a OrderedIndex, (Bound<Value>, Bound<Value>)),
    /// Rectangle probe of the GiST.
    Gist(&'a GistIndex, Rect),
    /// Temporal-index candidate probe over the axes the scan constrains.
    Tix(&'a TemporalIndex, TemporalProbe),
}

impl Choice<'_> {
    fn kind(&self) -> PathKind {
        match self {
            Choice::Seq => PathKind::SeqScan,
            Choice::Key(..) => PathKind::KeyLookup,
            Choice::BTree(..) => PathKind::BTreeRange,
            Choice::Gist(..) => PathKind::GistProbe,
            Choice::Tix(..) => PathKind::TemporalProbe,
        }
    }
}

/// Scans one partition: picks an access path, applies residual filters, and
/// appends qualifying output rows (in `def.scan_schema()` layout) to `out`.
/// Counters accumulate into `metrics`. Sequential scans are morsel-parallel
/// on `workers` threads (`<= 1` runs inline); the index paths stay serial, as
/// their probe result sets are already small by construction. Returns the
/// access path taken, or [`bitempo_core::Error::WorkerPanicked`] if a scan
/// worker panicked (the panic is contained; partial output is discarded).
///
/// The path is chosen by the cost model in
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
    workers: usize,
    out: &mut Vec<Row>,
    metrics: &mut ScanMetrics,
) -> Result<AccessPath> {
    let Some(start) = obs::trace_clock() else {
        return scan_partition_inner(part, def, sys, app, preds, now, workers, out, metrics);
    };
    let rows_before = out.len();
    let mut delta = ScanMetrics::default();
    let result = scan_partition_inner(part, def, sys, app, preds, now, workers, out, &mut delta);
    let end = obs::trace_clock().unwrap_or(start);
    if let Ok(path) = &result {
        site.record(
            path,
            delta,
            (out.len() - rows_before) as u64,
            workers.max(1),
            start,
            end.saturating_sub(start),
        );
    }
    metrics.merge(&delta);
    result
}

#[allow(clippy::too_many_arguments)]
fn scan_partition_inner<'a>(
    part: &PartitionView<'a>,
    def: &TableDef,
    sys: &SysSpec,
    app: &AppSpec,
    preds: &[ColRange],
    now: SysTime,
    workers: usize,
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

    // Resolves one index candidate as a one-position scan, judged exactly
    // as a sequential scan judges it. A slot holding no live version (a
    // freed heap slot, a dead row, a uid not stored) judges nothing.
    let probe = |slot: u64, out: &mut Vec<Row>, m: &mut ScanMetrics| {
        m.index_probes += 1;
        let Some(at) = part.source.position(slot) else {
            return;
        };
        let before = out.len();
        if part
            .source
            .scan_range(at..at + 1, def, sys, app, preds, out)
            == 1
        {
            m.rows_visited += 1;
            if out.len() > before {
                m.index_hits += 1;
            } else {
                m.versions_pruned += 1;
            }
        }
    };

    // Sequential execution, split into morsels. Appending in morsel order
    // keeps the output identical to a single-threaded scan for any worker
    // count.
    let run_seq = |out: &mut Vec<Row>, metrics: &mut ScanMetrics| -> Result<AccessPath> {
        let scan_metrics = run_morsels(part.source.scan_units(), workers, out, |range, buf, m| {
            let before = buf.len();
            let judged = part.source.scan_range(range, def, sys, app, preds, buf);
            m.rows_visited += judged;
            m.versions_pruned += judged - (buf.len() - before) as u64;
        })?;
        metrics.merge(&scan_metrics);
        Ok(AccessPath::FullScan { partitions: 1 })
    };

    // Offer every applicable physical path, keeping the cheapest so far.
    let mut best = (Choice::Seq, PathKind::SeqScan.cost(1.0, n));
    let mut offer = |choice: Choice<'a>, fraction: f64| {
        let kind = choice.kind();
        let cost = kind.cost(fraction, n);
        if kind.beats(cost, best.0.kind(), best.1) {
            best = (choice, cost);
        }
    };

    // Primary-key lookup, when the predicates pin every key column. The
    // candidate set is exact, so the estimate is one row's share.
    if let Some(pk) = part.pk {
        if let Some(key_vals) = full_key_equality(def, preds) {
            offer(Choice::Key(pk, key_vals), 1.0 / n as f64);
        }
    }

    // B-Tree range probes on every ordered index whose leading column the
    // query constrains.
    for index in part.indexes.iter().chain(part.pk) {
        let Some((lo, hi)) = probe_range_for(index, sys, app, preds) else {
            continue;
        };
        let sel = match index.estimate_selectivity(lo.as_ref(), hi.as_ref()) {
            Some(s) => s,
            // Non-estimable leading column (strings): only an equality
            // probe has a principled estimate — one distinct key's share of
            // the index. An empty index has no keys to share; skip it.
            None => match (&lo, &hi) {
                (Bound::Included(a), Bound::Included(b)) if a == b => {
                    match index.distinct_first() {
                        0 => continue,
                        d => 1.0 / d as f64,
                    }
                }
                _ => continue,
            },
        };
        offer(Choice::BTree(index, (lo, hi)), sel);
    }

    // GiST rectangle probe, when present and the query has a temporal
    // window — costed like every other path, not preferred by fiat.
    if let (Some(gist), Some(rect)) = (part.gist, gist_query_rect(sys, app, now)) {
        let frac = gist.estimate_fraction(&rect);
        offer(Choice::Gist(gist, rect), frac);
    }

    // Temporal index, applicable whenever either temporal dimension is
    // constrained. Candidates are a superset, re-checked by the source, and
    // arrive sorted by slot so output order matches a sequential scan.
    if let (Some(tix), Some(axes)) = (part.tindex, TemporalProbe::new(sys, app)) {
        offer(Choice::Tix(tix, axes), tix.estimate_fraction(&axes, n));
    }

    metrics.planned_rows += best.1.est_rows;
    Ok(match best.0 {
        Choice::Key(pk, key_vals) => {
            for slot in pk.probe_prefix(&key_vals, &mut metrics.index_node_visits) {
                probe(slot, out, metrics);
            }
            AccessPath::KeyLookup(pk.def.name.clone())
        }
        Choice::BTree(index, (lo, hi)) => {
            let visits = &mut metrics.index_node_visits;
            for slot in index.probe_range(lo.as_ref(), hi.as_ref(), visits) {
                probe(slot, out, metrics);
            }
            AccessPath::IndexScan(index.def.name.clone())
        }
        Choice::Gist(gist, rect) => {
            for slot in gist.probe(&rect, &mut metrics.index_node_visits) {
                probe(slot, out, metrics);
            }
            AccessPath::GistScan(gist.name.clone())
        }
        Choice::Tix(tix, axes) => {
            let mut cost = ProbeCost::default();
            let slots = tix.candidates(&axes, &mut cost);
            metrics.index_node_visits += cost.node_visits;
            for slot in slots {
                probe(slot, out, metrics);
            }
            AccessPath::TemporalProbe(tix.name().to_string())
        }
        Choice::Seq => run_seq(out, metrics)?,
    })
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
pub fn merge_access(paths: &[AccessPath]) -> AccessPath {
    let mut partitions = 0u8;
    let mut best: Option<&AccessPath> = None;
    for p in paths {
        match p {
            AccessPath::FullScan { partitions: n } => partitions += n,
            other => {
                if best.is_none_or(|b| other.kind() > b.kind()) {
                    best = Some(other);
                }
            }
        }
    }
    // Indexed partitions dominate the report.
    best.cloned().unwrap_or(AccessPath::FullScan { partitions })
}

#[cfg(test)]
mod tests {
    use super::*;
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
            1,
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
            1,
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
            1,
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
            1,
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
                1,
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
        // Big enough for several morsels, with free slots to make slot
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
                workers,
                &mut out,
                &mut m,
            )
            .unwrap();
            assert_eq!(path, AccessPath::FullScan { partitions: 1 });
            (out, m)
        };
        let (seq_rows, seq_m) = scan(1);
        assert_eq!(seq_m.morsels, 5, "5000 slots => 5 morsels");
        assert_eq!(seq_m.rows_visited, 4996, "free slots are skipped");
        for workers in [2, 4, 8] {
            let (par_rows, par_m) = scan(workers);
            assert_eq!(par_rows, seq_rows, "workers={workers}");
            assert_eq!(par_m, seq_m, "workers={workers}");
        }
    }

    #[test]
    fn reconstructed_source_binary_search() {
        let rows: Vec<Row> = [2, 5, 9]
            .iter()
            .map(|&id| mk_version(id, id * 10, 0, None).row)
            .collect();
        let app = AppPeriod::ALL;
        // Both sides out of uid order, each with a uid the other lacks.
        let recon = Reconstructed::join(
            vec![(9, &rows[2]), (2, &rows[0]), (5, &rows[1]), (7, &rows[1])],
            vec![
                (5, app, SysTime(1)),
                (4, app, SysTime(1)),
                (9, app, SysTime(2)),
                (2, app, SysTime(3)),
            ],
        );
        let joined: Vec<(u64, SysTime)> = recon
            .versions(0..recon.len())
            .map(|(uid, v)| (uid, v.sys.start))
            .collect();
        assert_eq!(joined, [(2, SysTime(3)), (5, SysTime(1)), (9, SysTime(2))]);
        let (d, preds) = (def(), [ColRange::eq(1, Value::Int(50))]);
        let mut rows = Vec::new();
        // An index candidate: the uid's position, judged as a one-row scan.
        let mut probe = |uid| {
            let at = recon.position(uid)?;
            let before = rows.len();
            let judged = recon.scan_range(
                at..at + 1,
                &d,
                &SysSpec::All,
                &AppSpec::All,
                &preds,
                &mut rows,
            );
            (judged == 1).then_some(rows.len() > before)
        };
        assert_eq!(probe(5), Some(true), "stored and qualifying");
        assert_eq!(probe(2), Some(false), "stored, pruned by the predicate");
        assert_eq!(probe(3), None, "nothing stored at uid 3");
        assert_eq!(probe(7), None, "a value without its temporal part");
        assert_eq!(probe(4), None, "a temporal part without its value");
        assert_eq!((recon.len(), rows.len()), (3, 1));
        assert_eq!(
            rows[0].get(4),
            &Value::SysTime(SysTime(1)),
            "uid 5's system start"
        );
        rows.clear();
        let judged = recon.scan_range(0..9, &d, &SysSpec::All, &AppSpec::All, &preds, &mut rows);
        assert_eq!((judged, rows.len()), (3, 1), "three stored, one qualifies");
        let judged = recon.scan_range(
            1..2,
            &d,
            &SysSpec::AsOf(SysTime(0)),
            &AppSpec::All,
            &[],
            &mut rows,
        );
        assert_eq!((judged, rows.len()), (1, 1), "uid 5 starts after t0");
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
                1,
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
    fn a_candidate_at_a_freed_slot_is_probed_but_not_visited() {
        let mut heap = heap_with(1000);
        let tix = tindex_over(&heap);
        heap.remove(bitempo_storage::SlotId(3));
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
            SysTime(2000),
            1,
            &mut out,
            &mut m,
        )
        .unwrap();
        assert_eq!(path, AccessPath::TemporalProbe("tix_t".into()));
        assert_eq!((m.index_probes, m.rows_visited), (6, 5), "{m:?}");
        assert_eq!((m.index_hits, m.versions_pruned), (5, 0), "{m:?}");
        assert_eq!(out.len(), 5);
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
            1,
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
            4,
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
        let merged = merge_access(&[
            AccessPath::FullScan { partitions: 1 },
            AccessPath::IndexScan("ix".into()),
        ]);
        assert_eq!(merged, AccessPath::IndexScan("ix".into()));
        let merged = merge_access(&[
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
            1,
            &mut out,
            &mut m,
        )
        .unwrap();
        assert_eq!(path, AccessPath::GistScan("gist_t".into()));
        assert!(out.is_empty());
        assert_eq!(m.index_probes, 0, "no false-positive probes");
    }

    /// A partition of four morsels whose layout code panics from morsel 2
    /// on; the earlier morsels emit one row each.
    struct PanickingSource;

    impl VersionSource for PanickingSource {
        fn len(&self) -> usize {
            4 * crate::morsel::MORSEL_ROWS
        }
        fn scan_range(
            &self,
            range: Range<usize>,
            _: &TableDef,
            _: &SysSpec,
            _: &AppSpec,
            _: &[ColRange],
            out: &mut Vec<Row>,
        ) -> u64 {
            if range.start >= 2 * crate::morsel::MORSEL_ROWS {
                panic!("layout bug");
            }
            out.push(Row::new(vec![
                Value::Int(range.start as i64),
                Value::Int(0),
            ]));
            range.len() as u64
        }
    }

    #[test]
    fn a_panicking_source_is_contained() {
        let part = PartitionView {
            source: &PanickingSource,
            pk: None,
            indexes: &[],
            gist: None,
            tindex: None,
        };
        for workers in [1, 2] {
            let mut out = Vec::new();
            let mut m = ScanMetrics::default();
            let err = scan_partition(
                site(),
                &part,
                &def(),
                &SysSpec::All,
                &AppSpec::All,
                &[],
                SysTime(100),
                workers,
                &mut out,
                &mut m,
            )
            .unwrap_err();
            match err {
                bitempo_core::Error::WorkerPanicked { morsel, message } => {
                    assert!(morsel >= 2, "workers={workers}: morsel {morsel}");
                    assert_eq!(message, "layout bug", "workers={workers}");
                }
                other => panic!("workers={workers}: expected WorkerPanicked, got {other:?}"),
            }
            assert!(out.is_empty(), "workers={workers}: partial output kept");
        }
    }
}
