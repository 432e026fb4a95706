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
//!
//! An ordered index stores integers as integers. Period endpoints are
//! `Date`/`SysTime` by construction and the TPC-H key columns are `Int`, so
//! nearly every index holds nothing but 8-byte integers: its tree is then a
//! `BPlusTree<i64, u32>` over order-preserving *cells* (`cell_of`), and
//! only an index that really meets a string or a double moves to 24-byte
//! [`Value`] cells. The index decides from the values it is given — there
//! is no knob — and callers deal in `Value`s either way. Slots are
//! partition-local and stored in 32 bits (`bitempo_tindex::narrow_slot`);
//! callers pass and get them as `u64`s.

use crate::version::Version;
use bitempo_core::{obs, AppDate, AppPeriod, Key, Row, SysPeriod, SysTime, Value};
use bitempo_storage::{BPlusTree, RTree, Rect};
use bitempo_tindex::narrow_slot;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::mem::size_of;
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
}

/// Definition of one ordered index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, surfaced in [`crate::AccessPath`].
    pub name: String,
    /// Indexed columns, major first.
    pub cols: Vec<IndexedCol>,
}

/// What an index reads a key from: a [`Version`], or a row that System C
/// keeps in its column fragments and never materialises as one.
pub trait IndexSource {
    /// Value column `col` (by schema position).
    fn value(&self, col: usize) -> Value;
    /// The application period.
    fn app(&self) -> AppPeriod;
    /// The system period.
    fn sys(&self) -> SysPeriod;
}

impl<R: Borrow<Row>> IndexSource for Version<R> {
    fn value(&self, col: usize) -> Value {
        self.row.borrow().get(col).clone()
    }
    fn app(&self) -> AppPeriod {
        self.app
    }
    fn sys(&self) -> SysPeriod {
        self.sys
    }
}

impl<S: IndexSource + ?Sized> IndexSource for &S {
    fn value(&self, col: usize) -> Value {
        (**self).value(col)
    }
    fn app(&self) -> AppPeriod {
        (**self).app()
    }
    fn sys(&self) -> SysPeriod {
        (**self).sys()
    }
}

/// Extracts the index cell of `source` for the given column spec.
fn extract_col(source: &impl IndexSource, col: IndexedCol) -> Value {
    match col {
        IndexedCol::Value(i) => source.value(i),
        IndexedCol::AppStart => Value::Date(source.app().start),
        IndexedCol::SysStart => Value::SysTime(source.sys().start),
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

/// The integer-like type the non-NULL values of one cell column share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellKind {
    Int,
    Date,
    SysTime,
}

/// The cell of NULL: below every other cell, as [`Value`]'s ordering ranks
/// NULL below every value.
const NULL_CELL: i64 = i64::MIN;
/// The cell of `SysTime::MAX` ("until changed"): above every finite time.
const OPEN_CELL: i64 = i64::MAX;
/// One past the last cell, as a position among cells.
const PAST_CELLS: i128 = i64::MAX as i128 + 1;

/// The order-preserving cell of `v`, and the kind of column it is at home
/// in (`None` for NULL, at home in any). `None` if no cell holds `v`: a
/// string, a double, or one of the three integers the reserved cells
/// displace.
fn cell_of(v: &Value) -> Option<(Option<CellKind>, i64)> {
    match v {
        Value::Null => Some((None, NULL_CELL)),
        Value::Int(i) if *i != NULL_CELL => Some((Some(CellKind::Int), *i)),
        Value::Date(d) if d.0 != NULL_CELL => Some((Some(CellKind::Date), d.0)),
        Value::SysTime(t) if *t == SysTime::MAX => Some((Some(CellKind::SysTime), OPEN_CELL)),
        Value::SysTime(t) => i64::try_from(t.0)
            .ok()
            .filter(|&cell| cell != OPEN_CELL)
            .map(|cell| (Some(CellKind::SysTime), cell)),
        _ => None,
    }
}

/// The cell of `v` in a column of `kind`, if it has one there: NULL does in
/// any column, and a column of unknown kind — nothing but NULLs so far —
/// takes whatever has a cell at all.
fn cell_in(kind: Option<CellKind>, v: &Value) -> Option<i64> {
    let (of, cell) = cell_of(v)?;
    (of.is_none() || kind.is_none() || of == kind).then_some(cell)
}

/// The value a cell of a `kind` column stands for — [`cell_of`] inverted.
/// A column of unknown kind has held nothing but NULLs.
fn value_of(kind: Option<CellKind>, cell: i64) -> Value {
    match (kind, cell) {
        (_, NULL_CELL) | (None, _) => Value::Null,
        (Some(CellKind::Int), _) => Value::Int(cell),
        (Some(CellKind::Date), _) => Value::Date(AppDate(cell)),
        (Some(CellKind::SysTime), OPEN_CELL) => Value::SysTime(SysTime::MAX),
        (Some(CellKind::SysTime), _) => Value::SysTime(SysTime(cell as u64)),
    }
}

/// The values that flat keys of integer cells stand for, cell for cell, in
/// an index whose columns are of `kinds`.
fn values_of<'a>(
    cells: &'a [i64],
    kinds: &'a [Option<CellKind>],
) -> impl Iterator<Item = Value> + 'a {
    let kinds = kinds.iter().cycle();
    cells
        .iter()
        .zip(kinds)
        .map(|(&cell, &kind)| value_of(kind, cell))
}

/// The tree over flat keys (`arity` cells each) and their slots, given in
/// arrival order: one stable sort of the entries' positions by key and
/// slot — the order inserts would leave them in — then a bottom-up build.
fn sorted_tree<C: Ord + Clone>(arity: usize, cells: &[C], slots: Vec<u32>) -> BPlusTree<C, u32> {
    let n = u32::try_from(slots.len()).expect("fewer than 2^32 index entries");
    let entry = |i: &u32| (&cells[*i as usize * arity..][..arity], slots[*i as usize]);
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by(|a, b| entry(a).cmp(&entry(b)));
    let sorted = order.iter().flat_map(|i| entry(i).0.iter().cloned());
    let slots = order.iter().map(|&i| slots[i as usize]);
    BPlusTree::from_sorted(arity, sorted, slots)
}

/// A probe value placed among the cells of one column of a tree over `C`.
trait Probe<C> {
    /// The lowest cell that is not below the value, if there is one.
    fn floor(&self) -> Option<C>;
    /// How `cell` compares with the value.
    fn cmp_cell(&self, cell: &C) -> Ordering;
}

/// Among [`Value`] cells a value is its own place.
impl Probe<Value> for Value {
    fn floor(&self) -> Option<Value> {
        Some(self.clone())
    }

    fn cmp_cell(&self, cell: &Value) -> Ordering {
        cell.cmp(self)
    }
}

/// Where a value falls among integer cells: the cells in `ge..gt` equal it,
/// those below `ge` are less, those from `gt` up greater. A value of the
/// column's own type equals exactly one cell; a `Double` among `Int`s may
/// equal none, or — past 2^53 — several.
#[derive(Debug, Clone, Copy)]
struct Cut {
    ge: i128,
    gt: i128,
}

impl Cut {
    fn at(cell: i64) -> Cut {
        Cut {
            ge: cell.into(),
            gt: i128::from(cell) + 1,
        }
    }

    /// Places `v` among the cells of a `kind` column. A value of another
    /// type (or one no cell holds) goes where [`Value`]'s own ordering puts
    /// it, found by bisecting the column's cells.
    fn place(kind: Option<CellKind>, v: &Value) -> Cut {
        if let Some(cell) = cell_in(kind, v) {
            return Cut::at(cell);
        }
        // The column has held only NULLs: every value is above them.
        let Some(kind) = kind else {
            return Cut {
                ge: PAST_CELLS,
                gt: PAST_CELLS,
            };
        };
        let first_not = |below: &dyn Fn(&Value) -> bool| {
            let lowest = match kind {
                CellKind::SysTime => 0,
                CellKind::Int | CellKind::Date => NULL_CELL + 1,
            };
            let (mut lo, mut hi) = (i128::from(lowest), PAST_CELLS);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if below(&value_of(Some(kind), mid as i64)) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        Cut {
            ge: first_not(&|cell| cell < v),
            gt: first_not(&|cell| cell <= v),
        }
    }
}

impl Probe<i64> for Cut {
    fn floor(&self) -> Option<i64> {
        i64::try_from(self.ge).ok()
    }

    fn cmp_cell(&self, cell: &i64) -> Ordering {
        let cell = i128::from(*cell);
        if cell < self.ge {
            Ordering::Less
        } else if cell < self.gt {
            Ordering::Equal
        } else {
            Ordering::Greater
        }
    }
}

/// Slots whose first cell lies in `(lo, hi)`, counting every leaf entry
/// examined (including the one that ends the walk) into `visits`.
fn walk_range<C: Ord + Clone, P: Probe<C>>(
    tree: &BPlusTree<C, u32>,
    lo: Bound<&P>,
    hi: Bound<&P>,
    visits: &mut u64,
) -> Vec<u64> {
    // A one-cell key is a prefix lower bound of the composite keys.
    // Excluded on the first column means skipping every key whose first
    // cell equals the bound, and [v] <= [v, ...], so seek as if included and
    // filter below. The upper bound must admit any suffix: walk until the
    // first cell exceeds it.
    let floor;
    let lo_key = match lo {
        Bound::Included(p) | Bound::Excluded(p) => match p.floor() {
            Some(cell) => {
                floor = [cell];
                Bound::Included(&floor[..])
            }
            None => return Vec::new(),
        },
        Bound::Unbounded => Bound::Unbounded,
    };
    let mut out = Vec::new();
    for (key, slot) in tree.range((lo_key, Bound::Unbounded)) {
        *visits += 1;
        let first = &key[0];
        // Stop once past the upper bound.
        let past = match hi {
            Bound::Included(p) => p.cmp_cell(first) == Ordering::Greater,
            Bound::Excluded(p) => p.cmp_cell(first) != Ordering::Less,
            Bound::Unbounded => false,
        };
        if past {
            break;
        }
        // Honour an excluded lower bound on the first column.
        if let Bound::Excluded(p) = lo {
            if p.cmp_cell(first) == Ordering::Equal {
                continue;
            }
        }
        out.push(u64::from(*slot));
    }
    out
}

/// Slots whose leading cells equal `key` cell for cell, counting examined
/// leaf entries into `visits`.
fn walk_prefix<C: Ord + Clone, P: Probe<C>>(
    tree: &BPlusTree<C, u32>,
    key: &[P],
    visits: &mut u64,
) -> Vec<u64> {
    // Seek at or before the first entry that is not below `key`: with the
    // floors, up to the first column where no cell equals the probe value —
    // what follows it orders nothing. Without even a first floor every
    // entry is below `key`.
    let mut seek = Vec::with_capacity(key.len());
    for p in key {
        let Some(cell) = p.floor() else { break };
        let equals = p.cmp_cell(&cell).is_eq();
        seek.push(cell);
        if !equals {
            break;
        }
    }
    if seek.is_empty() && !key.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (cells, slot) in tree.range((Bound::Included(&seek[..]), Bound::Unbounded)) {
        let entry_vs_key = key
            .iter()
            .zip(cells)
            .map(|(p, cell)| p.cmp_cell(cell))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal);
        match entry_vs_key {
            // Still before `key`: only when a probe value equals several
            // cells, so that the seek could not land exactly.
            Ordering::Less => {}
            Ordering::Equal => {
                *visits += 1;
                out.push(u64::from(*slot));
            }
            Ordering::Greater => {
                *visits += 1;
                break;
            }
        }
    }
    out
}

/// What an index's tree is made of.
#[derive(Debug, Clone)]
enum Cells {
    /// Every column has held values of one integer-like type (or NULL) so
    /// far: 8-byte cells, integer compares. `kinds[i]` is the type column
    /// `i` holds — fixed for period endpoints, learnt from the first
    /// non-NULL value for a table column.
    Int {
        tree: BPlusTree<i64, u32>,
        kinds: Vec<Option<CellKind>>,
    },
    /// The index has met a value no integer cell holds.
    Wide(BPlusTree<Value, u32>),
}

/// A B-Tree index over versions stored in some slot-addressed container.
#[derive(Debug, Clone)]
pub struct OrderedIndex {
    /// Definition.
    pub def: IndexDef,
    /// One cell per index column, stored flat in the tree's nodes.
    cells: Cells,
    /// The key of the version being inserted or removed, extracted into
    /// one reused buffer so that neither allocates — and, beside it, the
    /// same key as integer cells.
    key: Vec<Value>,
    cell_key: Vec<i64>,
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
        let kinds = def.cols.iter().map(|col| match col {
            IndexedCol::Value(_) => None,
            IndexedCol::AppStart => Some(CellKind::Date),
            IndexedCol::SysStart => Some(CellKind::SysTime),
        });
        OrderedIndex {
            cells: Cells::Int {
                tree: BPlusTree::new(def.cols.len()),
                kinds: kinds.collect(),
            },
            key: Vec::with_capacity(def.cols.len()),
            cell_key: Vec::with_capacity(def.cols.len()),
            def,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            first_col: BTreeMap::new(),
        }
    }

    /// Builds the index over `entries` at once: exactly what inserting them
    /// one by one, in the given order, would hold — the same integer or
    /// [`Value`] cells, column kinds, domain and distinct counts, with equal
    /// keys in slot order — laid out in full B+Tree nodes. The keys
    /// are extracted as [`OrderedIndex::insert`] extracts them, collected
    /// flat, and stable-sorted once; if any has no integer cell, all of
    /// them go on `Value` cells, as [`OrderedIndex::insert`] would have
    /// widened the tree.
    pub fn build<S: IndexSource>(
        def: IndexDef,
        entries: impl IntoIterator<Item = (u64, S)>,
    ) -> OrderedIndex {
        let mut ix = OrderedIndex::new(def);
        let (mut ints, mut wide, mut slots) = (Vec::new(), Vec::new(), Vec::new());
        for (slot, source) in entries {
            let slot = narrow_slot(slot);
            if !ix.extract_key(&source) {
                // The first key integer cells cannot hold (only they can
                // refuse one): the keys so far move onto `Value` cells.
                if let Cells::Int { kinds, .. } = &ix.cells {
                    wide = values_of(&ints, kinds).collect();
                    ints = Vec::new();
                }
                ix.cells = Cells::Wide(BPlusTree::new(ix.def.cols.len()));
            }
            ix.note_key();
            match &ix.cells {
                Cells::Int { .. } => ints.extend_from_slice(&ix.cell_key),
                Cells::Wide(_) => wide.extend_from_slice(&ix.key),
            }
            slots.push(slot);
        }
        let arity = ix.def.cols.len();
        ix.cells = match ix.cells {
            Cells::Int { kinds, .. } => Cells::Int {
                tree: sorted_tree(arity, &ints, slots),
                kinds,
            },
            Cells::Wide(_) => Cells::Wide(sorted_tree(arity, &wide, slots)),
        };
        ix
    }

    /// Extracts the key of `source` into the reused buffers. Returns
    /// whether the tree as it is can hold that key: always on [`Value`]
    /// cells; on integer cells when every value has a cell of its column's
    /// kind (a column of unknown kind takes any).
    fn extract_key(&mut self, source: &impl IndexSource) -> bool {
        self.key.clear();
        let cols = self.def.cols.iter();
        self.key.extend(cols.map(|&c| extract_col(source, c)));
        let Cells::Int { kinds, .. } = &self.cells else {
            return true;
        };
        self.cell_key.clear();
        let cells = self
            .key
            .iter()
            .zip(kinds)
            .map_while(|(v, &kind)| cell_in(kind, v));
        self.cell_key.extend(cells);
        self.cell_key.len() == self.key.len()
    }

    /// Accounts for the key just extracted, which the tree is about to
    /// hold: widens the interpolation domain or counts the leading value,
    /// and fixes the kind of every integer-cell column that had held only
    /// NULLs.
    fn note_key(&mut self) {
        match interpolable(&self.key[0]) {
            Some(x) => {
                self.lo = self.lo.min(x);
                self.hi = self.hi.max(x);
            }
            None => *self.first_col.entry(self.key[0].clone()).or_insert(0) += 1,
        }
        if let Cells::Int { kinds, .. } = &mut self.cells {
            for (kind, v) in kinds.iter_mut().zip(&self.key) {
                if kind.is_none() {
                    *kind = cell_of(v).and_then(|(of, _)| of);
                }
            }
        }
    }

    /// Moves the entries onto [`Value`] cells, already in key order, into
    /// full nodes. One way: the index never narrows again.
    fn widen(&mut self) {
        let Cells::Int { tree, kinds } = &self.cells else {
            return;
        };
        let cells = tree.iter().flat_map(|(key, _)| values_of(key, kinds));
        let slots: Vec<u32> = tree.iter().map(|(_, &slot)| slot).collect();
        self.cells = Cells::Wide(BPlusTree::from_sorted(
            kinds.len(),
            cells,
            slots.into_iter(),
        ));
    }

    /// Indexes `version` under `slot`.
    ///
    /// # Panics
    /// If `slot` does not fit 32 bits, before the index changes.
    pub fn insert(&mut self, version: &impl IndexSource, slot: u64) {
        let slot = narrow_slot(slot);
        if !self.extract_key(version) {
            self.widen();
        }
        self.note_key();
        match &mut self.cells {
            Cells::Int { tree, .. } => tree.insert(&self.cell_key, slot),
            Cells::Wide(tree) => tree.insert(&self.key, slot),
        }
    }

    /// Removes `version`'s entry for `slot` (returns whether it existed).
    pub fn remove(&mut self, version: &impl IndexSource, slot: u64) -> bool {
        // A slot past 32 bits, or a key the integer cells cannot hold, was
        // never inserted.
        let Ok(slot) = u32::try_from(slot) else {
            return false;
        };
        let existed = self.extract_key(version)
            && match &mut self.cells {
                Cells::Int { tree, .. } => tree.remove(&self.cell_key, &slot),
                Cells::Wide(tree) => tree.remove(&self.key, &slot),
            };
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

    /// Slots indexed under exactly `key` (every index column), ascending. It is bookkeeping, not a query access path, so it records no
    /// span and counts no visits.
    pub fn slots_of(&self, key: &[Value]) -> Vec<u64> {
        if key.len() != self.def.cols.len() {
            return Vec::new();
        }
        self.prefix_slots(key, &mut 0)
    }

    /// [`OrderedIndex::slots_of`] a primary key. This is how sequenced DML
    /// on Systems A and B finds a key's open versions in the primary-key
    /// index, once per statement: integer keys over integer cells — every
    /// TPC-BiH key — go in as they are, and the leaf walk widens the slots
    /// straight into the answer.
    pub fn slots_of_key(&self, key: &Key) -> Vec<u64> {
        let (ints, arity) = match key {
            Key::Int(a) => ([*a, 0], 1),
            Key::Int2(a, b) => ([*a, *b], 2),
            Key::General(values) => return self.slots_of(values),
        };
        let ints = &ints[..arity];
        match &self.cells {
            Cells::Int { tree, kinds }
                if kinds.len() == arity
                    && (ints.iter().zip(kinds))
                        .all(|(&i, &kind)| cell_in(kind, &Value::Int(i)) == Some(i)) =>
            {
                let key = Bound::Included(ints);
                let entries = tree.range((key, key));
                entries.map(|(_, &slot)| u64::from(slot)).collect()
            }
            _ => self.slots_of(&key.to_values()),
        }
    }

    /// Bytes the index holds, by capacity: tree nodes (keys are stored
    /// flat in them and own no heap) and the distinct-count map, whose
    /// B-Tree nodes hold 6–11 of 11 slots and are priced at 1.5× their
    /// entries. String payloads are shared with the rows and not counted.
    pub fn memory_bytes(&self) -> usize {
        let value = size_of::<Value>();
        let tree = match &self.cells {
            Cells::Int { tree, kinds } => {
                tree.memory_bytes() + kinds.capacity() * size_of::<Option<CellKind>>()
            }
            Cells::Wide(tree) => tree.memory_bytes(),
        };
        tree + self.key.capacity() * value
            + self.cell_key.capacity() * size_of::<i64>()
            + self.first_col.len() * (value + size_of::<u64>()) * 3 / 2
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        match &self.cells {
            Cells::Int { tree, .. } => tree.len(),
            Cells::Wide(tree) => tree.len(),
        }
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots whose *first* index column lies in `(lo, hi)`. Composite
    /// suffix columns are not constrained (callers re-filter). Counts every
    /// leaf entry examined (including the one that terminates the range
    /// walk) into `visits` — the probe-work number scan metrics report.
    pub fn probe_range(&self, lo: Bound<&Value>, hi: Bound<&Value>, visits: &mut u64) -> Vec<u64> {
        let mut span = obs::span_dyn("index", || format!("probe_range {}", self.def.name));
        let out = match &self.cells {
            // Each bound is placed among the cells once, not per entry.
            Cells::Int { tree, kinds } => {
                let lo = lo.map(|v| Cut::place(kinds[0], v));
                let hi = hi.map(|v| Cut::place(kinds[0], v));
                walk_range(tree, lo.as_ref(), hi.as_ref(), visits)
            }
            Cells::Wide(tree) => walk_range(tree, lo, hi, visits),
        };
        span.arg_with("hits", || out.len().to_string());
        out
    }

    /// Slots matching an exact composite prefix `key`. Counts examined leaf
    /// entries into `visits`.
    pub fn probe_prefix(&self, key: &[Value], visits: &mut u64) -> Vec<u64> {
        let mut span = obs::span_dyn("index", || format!("probe_prefix {}", self.def.name));
        let out = self.prefix_slots(key, visits);
        span.arg_with("hits", || out.len().to_string());
        out
    }

    fn prefix_slots(&self, key: &[Value], visits: &mut u64) -> Vec<u64> {
        if key.len() > self.def.cols.len() {
            return Vec::new();
        }
        match &self.cells {
            Cells::Int { tree, kinds } => {
                let cuts: Vec<Cut> = key
                    .iter()
                    .zip(kinds)
                    .map(|(v, &kind)| Cut::place(kind, v))
                    .collect();
                walk_prefix(tree, &cuts, visits)
            }
            Cells::Wide(tree) => walk_prefix(tree, key, visits),
        }
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
        if self.is_empty() || self.lo > self.hi {
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
pub fn version_rect(version: &impl IndexSource) -> Rect {
    let (app, sys) = (version.app(), version.sys());
    let x_min = app.start.0.max(i64::MIN + 1);
    let x_max = if app.end.0 == i64::MAX {
        i64::MAX - 1
    } else {
        app.end.0 - 1
    };
    let y_min = sys_coord(sys.start);
    let y_max = if sys.end == SysTime::MAX {
        i64::MAX - 1
    } else {
        sys_coord(sys.end) - 1
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

    /// A GiST index over `(slot, version)` entries, inserted one by one in
    /// the given order: the R-Tree keeps an incremental load's shape, and
    /// every probe its visit count.
    pub fn build<S: IndexSource>(
        name: impl Into<String>,
        entries: impl IntoIterator<Item = (u64, S)>,
    ) -> GistIndex {
        let mut g = GistIndex::new(name);
        for (slot, version) in entries {
            g.insert(&version, slot);
        }
        g
    }

    /// Indexes `version` under `slot`.
    pub fn insert(&mut self, version: &impl IndexSource, slot: u64) {
        self.tree.insert(version_rect(version), slot);
    }

    /// Drops `version`'s rectangle for `slot` (returns whether it was
    /// indexed).
    pub fn remove(&mut self, version: &impl IndexSource, slot: u64) -> bool {
        self.tree.remove(&version_rect(version), &slot)
    }

    /// Slots whose rectangle intersects the query window. Counts every
    /// R-Tree entry examined (internal and leaf) into `visits`.
    pub fn probe(&self, query: &Rect, visits: &mut u64) -> Vec<u64> {
        let mut span = obs::span_dyn("index", || format!("gist_probe {}", self.name));
        let out = self.tree.search(query, visits);
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

    /// Bytes the index holds, by capacity.
    pub fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes() + self.name.capacity()
    }
}

#[cfg(test)]
mod props;

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::{AppPeriod, Row, SysPeriod};

    fn version(id: i64, app: (i64, i64), sys: (u64, Option<u64>)) -> Version {
        Version {
            row: Row::new(vec![Value::Int(id), Value::str("payload")]),
            app: AppPeriod::new(AppDate(app.0), AppDate(app.1)),
            sys: SysPeriod::new(SysTime(sys.0), sys.1.map_or(SysTime::MAX, SysTime)),
        }
    }

    /// The 32-bit slot guard at its exact bound: the largest slot indexes,
    /// probes back and removes; one more is refused before the index
    /// changes — not even the string key that would have widened its cells.
    #[test]
    fn slots_fit_32_bits() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "pk".into(),
            cols: vec![IndexedCol::Value(0)],
        });
        let max = u64::from(u32::MAX);
        let v = version(7, (0, 10), (3, None));
        idx.insert(&v, max);
        assert_eq!(idx.slots_of_key(&Key::int(7)), vec![max]);
        assert_eq!(idx.probe_prefix(&[Value::Int(7)], &mut 0), vec![max]);
        let wide = Version {
            row: Row::new(vec![Value::str("k"), Value::Null]),
            ..v.clone()
        };
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.insert(&wide, max + 1);
        }));
        let message = *refused.unwrap_err().downcast::<String>().unwrap();
        assert!(
            message.contains("partition-local slots fit 32 bits"),
            "{message}"
        );
        assert!(
            matches!(idx.cells, Cells::Int { .. }),
            "the tree did not widen"
        );
        assert_eq!(idx.len(), 1);
        assert!(!idx.remove(&v, max + 1));
        assert!(idx.remove(&v, max));
        assert!(idx.is_empty());
    }

    #[test]
    fn ordered_index_insert_probe_remove() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix_id".into(),
            cols: vec![IndexedCol::Value(0)],
        });
        for i in 0..100 {
            idx.insert(&version(i, (0, 10), (0, None)), i as u64);
        }
        assert_eq!(idx.len(), 100);
        let hits = idx.probe_range(
            Bound::Included(&Value::Int(10)),
            Bound::Excluded(&Value::Int(13)),
            &mut 0,
        );
        assert_eq!(hits, vec![10, 11, 12]);
        assert!(idx.remove(&version(10, (0, 10), (0, None)), 10));
        assert!(!idx.remove(&version(10, (0, 10), (0, None)), 10));
        let hits = idx.probe_range(
            Bound::Included(&Value::Int(10)),
            Bound::Included(&Value::Int(12)),
            &mut 0,
        );
        assert_eq!(hits, vec![11, 12]);
    }

    #[test]
    fn excluded_lower_bound() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix".into(),
            cols: vec![IndexedCol::Value(0)],
        });
        for i in 0..5 {
            idx.insert(&version(i, (0, 10), (0, None)), i as u64);
        }
        let hits = idx.probe_range(Bound::Excluded(&Value::Int(2)), Bound::Unbounded, &mut 0);
        assert_eq!(hits, vec![3, 4]);
    }

    #[test]
    fn composite_prefix_probe() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix_key_time".into(),
            cols: vec![IndexedCol::Value(0), IndexedCol::SysStart],
        });
        idx.insert(&version(7, (0, 10), (1, Some(5))), 100);
        idx.insert(&version(7, (0, 10), (5, None)), 101);
        idx.insert(&version(8, (0, 10), (2, None)), 200);
        let hits = idx.probe_prefix(&[Value::Int(7)], &mut 0);
        assert_eq!(hits, vec![100, 101]);
        let hits = idx.probe_prefix(&[Value::Int(9)], &mut 0);
        assert!(hits.is_empty());
    }

    #[test]
    fn time_index_probe() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix_sys_start".into(),
            cols: vec![IndexedCol::SysStart],
        });
        for t in 0..50u64 {
            idx.insert(&version(t as i64, (0, 10), (t, None)), t);
        }
        // sys_start <= 3 → the first four versions.
        let hits = idx.probe_range(
            Bound::Unbounded,
            Bound::Included(&Value::SysTime(SysTime(3))),
            &mut 0,
        );
        assert_eq!(hits, vec![0, 1, 2, 3]);
    }

    #[test]
    fn selectivity_interpolation() {
        let mut idx = OrderedIndex::new(IndexDef {
            name: "ix".into(),
            cols: vec![IndexedCol::Value(0)],
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
        });
        for i in 0..100 {
            idx.insert(&version(i, (0, 10), (0, None)), i as u64);
        }
        let mut visits = 0;
        let hits = idx.probe_range(
            Bound::Included(&Value::Int(10)),
            Bound::Excluded(&Value::Int(13)),
            &mut visits,
        );
        assert_eq!(hits, vec![10, 11, 12]);
        // Three hits plus the entry that terminated the walk.
        assert_eq!(visits, 4);
        let mut visits = 0;
        let hits = idx.probe_prefix(&[Value::Int(7)], &mut visits);
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
        assert_eq!(g.probe(&q, &mut 0), vec![1]);
        // Query: app day 100 at sys time 100 — only the open version.
        let q = Rect::point(100, 100);
        assert_eq!(g.probe(&q, &mut 0), vec![2]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn gist_probe_respects_half_open_boundaries() {
        let mut g = GistIndex::new("gist_b");
        // App period [10, 20), sys period [2, 5).
        g.insert(&version(1, (10, 20), (2, Some(5))), 1);

        // A version ending exactly at the query start must not match:
        // app query window starting at day 20 ([20, 20] after conversion).
        assert!(g.probe(&Rect::new(20, 20, 3, 3), &mut 0).is_empty());
        // ... and the last contained day does.
        assert_eq!(g.probe(&Rect::new(19, 19, 3, 3), &mut 0), vec![1]);
        // Same on the system axis: sys time 5 is outside [2, 5).
        assert!(g.probe(&Rect::new(12, 12, 5, 5), &mut 0).is_empty());
        assert_eq!(g.probe(&Rect::new(12, 12, 4, 4), &mut 0), vec![1]);

        // A query range ending exactly at the version start must not match
        // either: app range [5, 10) converts to [5, 9].
        assert!(g.probe(&Rect::new(5, 9, 3, 3), &mut 0).is_empty());
        assert_eq!(g.probe(&Rect::new(5, 10, 3, 3), &mut 0), vec![1]);
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
        assert!(
            g.probe(&q, &mut 0).is_empty(),
            "empty period: no versions qualify"
        );
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
