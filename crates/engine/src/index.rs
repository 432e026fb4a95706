//! Index wrappers: B-Tree (ordered) and GiST (R-Tree) indexes over version
//! stores, plus the selectivity estimation the engines' scan "optimizers"
//! use to decide index-vs-scan.
//!
//! The estimation is deliberately crude — a uniform interpolation between
//! the column's min and max — because that is the level of sophistication
//! the paper observed: *"for many workloads these indexes go unused, since
//! they only work on very selective workloads"* (§5.9), and plans flip from
//! index lookups to table scans on small changes in predicate selectivity
//! (§5.4.1).

use crate::api::IndexKind;
use crate::version::Version;
use bitempo_core::{obs, SysTime, Value};
use bitempo_storage::{BPlusTree, RTree, Rect};
use std::collections::BTreeMap;
use std::ops::Bound;

/// What a single index column is built over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexedCol {
    /// A value column of the table (by schema position).
    Value(usize),
    /// The application-period start.
    AppStart,
    /// The system-period start.
    SysStart,
    /// The system-period end (useful for "visible at t" probes).
    SysEnd,
}

/// Definition of one ordered index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, surfaced in [`crate::AccessPath`].
    pub name: String,
    /// Indexed columns, major first.
    pub cols: Vec<IndexedCol>,
    /// Physical kind.
    pub kind: IndexKind,
}

/// Extracts the index cell of `version` for the given column spec.
fn extract_col(version: &Version, col: IndexedCol) -> Value {
    match col {
        IndexedCol::Value(i) => version.row.get(i).clone(),
        IndexedCol::AppStart => Value::Date(version.app.start),
        IndexedCol::SysStart => Value::SysTime(version.sys.start),
        IndexedCol::SysEnd => Value::SysTime(version.sys.end),
    }
}

/// Maps a value onto the real line for interpolation-based selectivity.
fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Double(d) => Some(*d),
        Value::Date(d) => Some(d.0 as f64),
        Value::SysTime(t) if *t == SysTime::MAX => Some(f64::INFINITY),
        Value::SysTime(t) => Some(t.0 as f64),
        _ => None,
    }
}

/// The finite position of `v` on the real line, if it has one: what
/// [`OrderedIndex::estimate_selectivity`] can interpolate over. Strings,
/// NULL and the open-ended `SysTime::MAX` have none.
fn interpolable(v: &Value) -> Option<f64> {
    numeric(v).filter(|x| x.is_finite())
}

/// A B-Tree index over versions stored in some slot-addressed container.
#[derive(Debug, Clone)]
pub struct OrderedIndex {
    /// Definition.
    pub def: IndexDef,
    /// One cell per index column, stored flat in the tree's nodes.
    tree: BPlusTree<Value, u64>,
    /// The key of the version being inserted or removed, extracted into
    /// one reused buffer so that neither allocates.
    key: Vec<Value>,
    lo: f64,
    hi: f64,
    /// Entry count per distinct leading-column value that is not
    /// [`interpolable`], maintained on insert/remove. Feeds the
    /// equality-selectivity estimate where interpolation has nothing to
    /// offer (strings): one key group out of `distinct_first()` — instead
    /// of a hard-coded guess. Interpolable values are covered by `lo`/`hi`
    /// and cost nothing here, so a unique integer key adds no entry.
    first_col: BTreeMap<Value, u64>,
}

impl OrderedIndex {
    /// Creates an empty index.
    pub fn new(def: IndexDef) -> OrderedIndex {
        OrderedIndex {
            tree: BPlusTree::new(def.cols.len()),
            key: Vec::with_capacity(def.cols.len()),
            def,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            first_col: BTreeMap::new(),
        }
    }

    /// Extracts the key of `version` into the reused buffer.
    fn extract_key(&mut self, version: &Version) {
        self.key.clear();
        let cols = self.def.cols.iter();
        self.key.extend(cols.map(|&c| extract_col(version, c)));
    }

    /// Indexes `version` under `slot`.
    pub fn insert(&mut self, version: &Version, slot: u64) {
        self.extract_key(version);
        match interpolable(&self.key[0]) {
            Some(x) => {
                self.lo = self.lo.min(x);
                self.hi = self.hi.max(x);
            }
            None => *self.first_col.entry(self.key[0].clone()).or_insert(0) += 1,
        }
        self.tree.insert(&self.key, slot);
    }

    /// Removes `version`'s entry for `slot` (returns whether it existed).
    pub fn remove(&mut self, version: &Version, slot: u64) -> bool {
        self.extract_key(version);
        let existed = self.tree.remove(&self.key, &slot);
        if existed {
            if let Some(count) = self.first_col.get_mut(&self.key[0]) {
                *count -= 1;
                if *count == 0 {
                    self.first_col.remove(&self.key[0]);
                }
            }
        }
        existed
    }

    /// Number of distinct leading-column values currently indexed that
    /// [`OrderedIndex::estimate_selectivity`] cannot place (strings, NULL,
    /// `SysTime::MAX`) — the denominator of the equality estimate the scan
    /// planner falls back to exactly when that function returns `None`.
    pub fn distinct_first(&self) -> usize {
        self.first_col.len()
    }

    /// Slots indexed under exactly `key` (every index column), in insertion
    /// order. This is how sequenced DML on Systems A and B finds a key's
    /// open versions in the primary-key index; it is bookkeeping, not a
    /// query access path, so it records no span and counts no visits.
    pub fn slots_of(&self, key: &[Value]) -> Vec<u64> {
        self.tree.get(key)
    }

    /// Bytes the index holds, by capacity: tree nodes (keys are stored
    /// flat in them and own no heap) and the distinct-count map, whose
    /// B-Tree nodes hold 6–11 of 11 slots and are priced at 1.5× their
    /// entries. String payloads are shared with the rows and not counted.
    pub fn memory_bytes(&self) -> usize {
        let value = std::mem::size_of::<Value>();
        self.tree.memory_bytes()
            + self.key.capacity() * value
            + self.first_col.len() * (value + std::mem::size_of::<u64>()) * 3 / 2
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Slots whose *first* index column lies in `(lo, hi)`. Composite
    /// suffix columns are not constrained (callers re-filter).
    pub fn probe_range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<u64> {
        self.probe_range_counted(lo, hi, &mut 0)
    }

    /// Like [`OrderedIndex::probe_range`], but counts every leaf entry
    /// examined (including the one that terminates the range walk) into
    /// `visits` — the probe-work number scan metrics report.
    pub fn probe_range_counted(
        &self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        visits: &mut u64,
    ) -> Vec<u64> {
        let mut span = obs::span_dyn("index", || format!("probe_range {}", self.def.name));
        // A one-cell key is a prefix lower bound of the composite keys.
        // Excluded on the first column means skipping every key whose
        // first cell equals v, and [v] <= [v, ...], so seek as if included
        // and filter below. The upper bound must admit any suffix: walk
        // until the first cell exceeds it.
        let lo_key = match lo {
            Bound::Included(v) | Bound::Excluded(v) => Bound::Included(std::slice::from_ref(v)),
            Bound::Unbounded => Bound::Unbounded,
        };
        let mut out = Vec::new();
        for (key, slot) in self.tree.range((lo_key, Bound::Unbounded)) {
            *visits += 1;
            let first = &key[0];
            // Stop once past the upper bound.
            let past = match hi {
                Bound::Included(v) => first > v,
                Bound::Excluded(v) => first >= v,
                Bound::Unbounded => false,
            };
            if past {
                break;
            }
            // Honour an excluded lower bound on the first column.
            if let Bound::Excluded(v) = lo {
                if first == v {
                    continue;
                }
            }
            out.push(*slot);
        }
        span.arg_with("hits", || out.len().to_string());
        out
    }

    /// Slots matching an exact composite prefix `key`.
    pub fn probe_prefix(&self, key: &[Value]) -> Vec<u64> {
        self.probe_prefix_counted(key, &mut 0)
    }

    /// Like [`OrderedIndex::probe_prefix`], but counts examined leaf
    /// entries into `visits`.
    pub fn probe_prefix_counted(&self, key: &[Value], visits: &mut u64) -> Vec<u64> {
        let mut span = obs::span_dyn("index", || format!("probe_prefix {}", self.def.name));
        let mut out = Vec::new();
        for (k, slot) in self.tree.range((Bound::Included(key), Bound::Unbounded)) {
            *visits += 1;
            if !k.starts_with(key) {
                break;
            }
            out.push(*slot);
        }
        span.arg_with("hits", || out.len().to_string());
        out
    }

    /// Estimated fraction of entries whose first column lies in the range,
    /// by uniform interpolation. `None` if the column is not numeric or the
    /// index is empty (caller should then only use the index for equality).
    ///
    /// Bounds are honoured exactly on discrete domains (`Int`, `Date`,
    /// `SysTime` step by whole units; an excluded endpoint gives up exactly
    /// one unit, an included upper endpoint claims one), and a range that is
    /// provably empty after clipping to the indexed `[min, max]` domain —
    /// inverted bounds, `(v, v]`, `[v, v)`, or wholly outside the domain —
    /// returns `Some(0.0)` rather than a clamped residue.
    pub fn estimate_selectivity(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Option<f64> {
        if self.tree.is_empty() || self.lo > self.hi {
            return None;
        }
        // Unit step of the bound's domain: discrete values move in whole
        // units, a continuous (Double) endpoint has measure zero.
        let unit = |v: &Value| match v {
            Value::Double(_) => 0.0,
            _ => 1.0,
        };
        // Effective half-open interval [lo_eff, hi_eff) on the real line.
        let lo_eff = match lo {
            Bound::Included(v) => numeric(v)?,
            Bound::Excluded(v) => numeric(v)? + unit(v),
            Bound::Unbounded => self.lo,
        };
        let hi_eff = match hi {
            Bound::Included(v) => numeric(v)? + unit(v),
            Bound::Excluded(v) => numeric(v)?,
            Bound::Unbounded => self.hi + 1.0,
        };
        // Clip to the indexed domain, itself half-open: [min, max + 1).
        let clipped_lo = lo_eff.max(self.lo);
        let clipped_hi = hi_eff.min(self.hi + 1.0);
        if clipped_hi <= clipped_lo {
            return Some(0.0);
        }
        let span = (self.hi + 1.0 - self.lo).max(1.0);
        Some(((clipped_hi - clipped_lo) / span).clamp(0.0, 1.0))
    }
}

/// A GiST (R-Tree) index over the (application × system) period rectangles
/// of versions — System D's alternative index implementation (paper §2.5).
#[derive(Debug, Clone)]
pub struct GistIndex {
    /// Index name.
    pub name: String,
    tree: RTree<u64>,
}

/// Clamps a period endpoint onto the R-Tree's i64 coordinate space.
fn sys_coord(t: SysTime) -> i64 {
    if t == SysTime::MAX {
        i64::MAX - 1
    } else {
        t.0.min((i64::MAX - 1) as u64) as i64
    }
}

/// The rectangle of a version: x = application days, y = system time.
/// Half-open periods become inclusive coordinates by subtracting one from
/// the ends (saturating at the sentinels).
pub fn version_rect(version: &Version) -> Rect {
    let x_min = version.app.start.0.max(i64::MIN + 1);
    let x_max = if version.app.end.0 == i64::MAX {
        i64::MAX - 1
    } else {
        version.app.end.0 - 1
    };
    let y_min = sys_coord(version.sys.start);
    let y_max = if version.sys.end == SysTime::MAX {
        i64::MAX - 1
    } else {
        sys_coord(version.sys.end) - 1
    };
    Rect::new(x_min, x_max.max(x_min), y_min, y_max.max(y_min))
}

impl GistIndex {
    /// Creates an empty GiST index.
    pub fn new(name: impl Into<String>) -> GistIndex {
        GistIndex {
            name: name.into(),
            tree: RTree::new(),
        }
    }

    /// Indexes `version` under `slot`.
    pub fn insert(&mut self, version: &Version, slot: u64) {
        self.tree.insert(version_rect(version), slot);
    }

    /// Slots whose rectangle intersects the query window.
    pub fn probe(&self, query: &Rect) -> Vec<u64> {
        self.probe_counted(query, &mut 0)
    }

    /// Like [`GistIndex::probe`], but counts every R-Tree entry examined
    /// (internal and leaf) into `visits`.
    pub fn probe_counted(&self, query: &Rect, visits: &mut u64) -> Vec<u64> {
        let mut span = obs::span_dyn("index", || format!("gist_probe {}", self.name));
        let out = self.tree.search_counted(query, visits);
        span.arg_with("hits", || out.len().to_string());
        out
    }

    /// Estimated fraction of indexed rectangles intersecting `query` — the
    /// cost-model input that lets a GiST probe compete with (and lose to)
    /// a sequential scan on near-full-window queries, instead of being
    /// chosen unconditionally whenever the index exists.
    pub fn estimate_fraction(&self, query: &Rect) -> f64 {
        self.tree.estimate_fraction(query)
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::{AppDate, AppPeriod, Row, SysPeriod};

    fn version(id: i64, app: (i64, i64), sys: (u64, Option<u64>)) -> Version {
        Version {
            row: Row::new(vec![Value::Int(id), Value::str("payload")]),
            app: AppPeriod::new(AppDate(app.0), AppDate(app.1)),
            sys: SysPeriod::new(SysTime(sys.0), sys.1.map_or(SysTime::MAX, SysTime)),
        }
    }

    #[test]
    fn ordered_index_insert_probe_remove() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix_id".into(),
            cols: vec![IndexedCol::Value(0)],
            kind: IndexKind::BTree,
        });
        for i in 0..100 {
            idx.insert(&version(i, (0, 10), (0, None)), i as u64);
        }
        assert_eq!(idx.len(), 100);
        let hits = idx.probe_range(
            Bound::Included(&Value::Int(10)),
            Bound::Excluded(&Value::Int(13)),
        );
        assert_eq!(hits, vec![10, 11, 12]);
        assert!(idx.remove(&version(10, (0, 10), (0, None)), 10));
        assert!(!idx.remove(&version(10, (0, 10), (0, None)), 10));
        let hits = idx.probe_range(
            Bound::Included(&Value::Int(10)),
            Bound::Included(&Value::Int(12)),
        );
        assert_eq!(hits, vec![11, 12]);
    }

    #[test]
    fn excluded_lower_bound() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix".into(),
            cols: vec![IndexedCol::Value(0)],
            kind: IndexKind::BTree,
        });
        for i in 0..5 {
            idx.insert(&version(i, (0, 10), (0, None)), i as u64);
        }
        let hits = idx.probe_range(Bound::Excluded(&Value::Int(2)), Bound::Unbounded);
        assert_eq!(hits, vec![3, 4]);
    }

    #[test]
    fn composite_prefix_probe() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix_key_time".into(),
            cols: vec![IndexedCol::Value(0), IndexedCol::SysStart],
            kind: IndexKind::BTree,
        });
        idx.insert(&version(7, (0, 10), (1, Some(5))), 100);
        idx.insert(&version(7, (0, 10), (5, None)), 101);
        idx.insert(&version(8, (0, 10), (2, None)), 200);
        let hits = idx.probe_prefix(&[Value::Int(7)]);
        assert_eq!(hits, vec![100, 101]);
        let hits = idx.probe_prefix(&[Value::Int(9)]);
        assert!(hits.is_empty());
    }

    #[test]
    fn time_index_probe() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix_sys_start".into(),
            cols: vec![IndexedCol::SysStart],
            kind: IndexKind::BTree,
        });
        for t in 0..50u64 {
            idx.insert(&version(t as i64, (0, 10), (t, None)), t);
        }
        // sys_start <= 3 → the first four versions.
        let hits = idx.probe_range(
            Bound::Unbounded,
            Bound::Included(&Value::SysTime(SysTime(3))),
        );
        assert_eq!(hits, vec![0, 1, 2, 3]);
    }

    #[test]
    fn selectivity_interpolation() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix".into(),
            cols: vec![IndexedCol::Value(0)],
            kind: IndexKind::BTree,
        });
        for i in 0..=100 {
            idx.insert(&version(i, (0, 10), (0, None)), i as u64);
        }
        let sel = idx
            .estimate_selectivity(
                Bound::Included(&Value::Int(0)),
                Bound::Included(&Value::Int(10)),
            )
            .unwrap();
        assert!((sel - 0.1).abs() < 0.02, "sel = {sel}");
        let sel = idx
            .estimate_selectivity(Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        assert!(sel > 0.99);
        // Out-of-domain ranges clamp to zero.
        let sel = idx
            .estimate_selectivity(
                Bound::Included(&Value::Int(500)),
                Bound::Included(&Value::Int(600)),
            )
            .unwrap();
        assert_eq!(sel, 0.0);
        // Non-numeric bound: no estimate.
        assert!(idx
            .estimate_selectivity(Bound::Included(&Value::str("x")), Bound::Unbounded)
            .is_none());
    }

    #[test]
    fn selectivity_honours_bound_kinds_exactly() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix".into(),
            cols: vec![IndexedCol::Value(0)],
            kind: IndexKind::BTree,
        });
        // Domain 0..=99: a whole-unit grid, span exactly 100.
        for i in 0..100 {
            idx.insert(&version(i, (0, 10), (0, None)), i as u64);
        }
        let est = |lo: Bound<&Value>, hi: Bound<&Value>| idx.estimate_selectivity(lo, hi).unwrap();
        // [10, 19] covers 10 units of 100 — exactly 0.1.
        assert_eq!(
            est(
                Bound::Included(&Value::Int(10)),
                Bound::Included(&Value::Int(19)),
            ),
            0.1
        );
        // (9, 20) covers the same ten values.
        assert_eq!(
            est(
                Bound::Excluded(&Value::Int(9)),
                Bound::Excluded(&Value::Int(20)),
            ),
            0.1
        );
        // [10, 20) loses the upper endpoint relative to [10, 20].
        let half_open = est(
            Bound::Included(&Value::Int(10)),
            Bound::Excluded(&Value::Int(20)),
        );
        let closed = est(
            Bound::Included(&Value::Int(10)),
            Bound::Included(&Value::Int(20)),
        );
        assert_eq!(half_open, 0.1);
        assert_eq!(closed, 0.11);
        // A single-point closed range is one unit.
        assert_eq!(
            est(
                Bound::Included(&Value::Int(42)),
                Bound::Included(&Value::Int(42)),
            ),
            0.01
        );
    }

    #[test]
    fn selectivity_empty_ranges_are_exactly_zero() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix".into(),
            cols: vec![IndexedCol::Value(0)],
            kind: IndexKind::BTree,
        });
        for i in 0..100 {
            idx.insert(&version(i, (0, 10), (0, None)), i as u64);
        }
        let zero = [
            // [v, v) and (v, v] are empty by construction.
            (
                Bound::Included(Value::Int(10)),
                Bound::Excluded(Value::Int(10)),
            ),
            (
                Bound::Excluded(Value::Int(10)),
                Bound::Included(Value::Int(10)),
            ),
            // Inverted bounds.
            (
                Bound::Included(Value::Int(50)),
                Bound::Included(Value::Int(40)),
            ),
            // Entirely below / above the indexed domain.
            (
                Bound::Included(Value::Int(-90)),
                Bound::Included(Value::Int(-50)),
            ),
            (Bound::Excluded(Value::Int(99)), Bound::Unbounded),
        ];
        for (lo, hi) in &zero {
            let lo_ref = match lo {
                Bound::Included(v) => Bound::Included(v),
                Bound::Excluded(v) => Bound::Excluded(v),
                Bound::Unbounded => Bound::Unbounded,
            };
            let hi_ref = match hi {
                Bound::Included(v) => Bound::Included(v),
                Bound::Excluded(v) => Bound::Excluded(v),
                Bound::Unbounded => Bound::Unbounded,
            };
            assert_eq!(
                idx.estimate_selectivity(lo_ref, hi_ref),
                Some(0.0),
                "{lo:?}..{hi:?} is provably empty"
            );
        }
    }

    #[test]
    fn counted_probes_report_entries_examined() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix".into(),
            cols: vec![IndexedCol::Value(0)],
            kind: IndexKind::BTree,
        });
        for i in 0..100 {
            idx.insert(&version(i, (0, 10), (0, None)), i as u64);
        }
        let mut visits = 0;
        let hits = idx.probe_range_counted(
            Bound::Included(&Value::Int(10)),
            Bound::Excluded(&Value::Int(13)),
            &mut visits,
        );
        assert_eq!(hits, vec![10, 11, 12]);
        // Three hits plus the entry that terminated the walk.
        assert_eq!(visits, 4);
        let mut visits = 0;
        let hits = idx.probe_prefix_counted(&[Value::Int(7)], &mut visits);
        assert_eq!(hits, vec![7]);
        assert_eq!(visits, 2);
    }

    #[test]
    fn gist_index_rectangles() {
        let mut g = GistIndex::new("gist_periods");
        // Closed app period, closed sys period.
        g.insert(&version(1, (10, 20), (2, Some(5))), 1);
        // Open-ended both.
        g.insert(&version(2, (15, i64::MAX), (4, None)), 2);
        // Query: app day 12 at sys time 3.
        let q = Rect::point(12, 3);
        assert_eq!(g.probe(&q), vec![1]);
        // Query: app day 100 at sys time 100 — only the open version.
        let q = Rect::point(100, 100);
        assert_eq!(g.probe(&q), vec![2]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn gist_probe_respects_half_open_boundaries() {
        let mut g = GistIndex::new("gist_b");
        // App period [10, 20), sys period [2, 5).
        g.insert(&version(1, (10, 20), (2, Some(5))), 1);

        // A version ending exactly at the query start must not match:
        // app query window starting at day 20 ([20, 20] after conversion).
        assert!(g.probe(&Rect::new(20, 20, 3, 3)).is_empty());
        // ... and the last contained day does.
        assert_eq!(g.probe(&Rect::new(19, 19, 3, 3)), vec![1]);
        // Same on the system axis: sys time 5 is outside [2, 5).
        assert!(g.probe(&Rect::new(12, 12, 5, 5)).is_empty());
        assert_eq!(g.probe(&Rect::new(12, 12, 4, 4)), vec![1]);

        // A query range ending exactly at the version start must not match
        // either: app range [5, 10) converts to [5, 9].
        assert!(g.probe(&Rect::new(5, 9, 3, 3)).is_empty());
        assert_eq!(g.probe(&Rect::new(5, 10, 3, 3)), vec![1]);
    }

    #[test]
    fn gist_probe_empty_query_range_matches_nothing() {
        let mut g = GistIndex::new("gist_e");
        g.insert(&version(1, (0, 100), (0, None)), 1);
        // An empty app range [15, 15) converts to the inverted [15, 14];
        // before Rect::is_empty gating this spuriously matched any version
        // straddling day 15.
        let q = Rect::new(15, 14, 0, i64::MAX - 1);
        assert!(q.is_empty());
        assert!(g.probe(&q).is_empty(), "empty period: no versions qualify");
    }

    #[test]
    fn version_rect_handles_sentinels() {
        let v = version(1, (0, i64::MAX), (0, None));
        let r = version_rect(&v);
        assert!(r.x_max >= 1_000_000);
        assert!(r.y_max >= 1_000_000);
        assert!(r.intersects(&Rect::point(5_000, 42)));
    }
}
