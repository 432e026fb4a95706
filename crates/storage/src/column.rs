//! Dictionary-encoded columnar storage with a delta/main split.
//!
//! This is the System C substrate (paper §2.6): a columnar table where new
//! rows land in an appendable *delta* and a *merge* operation periodically
//! seals them into the read-optimized *main*. Strings are dictionary
//! encoded. Row ids are stable across merges (main rows keep their position;
//! delta rows are renumbered onto the end of main in append order, which
//! preserves ids because the delta always sits logically after main).
//! System C's delta merge also moves rows between tables: `split_off`
//! keeps some rows, renumbered densely, and moves others to the end of a
//! second table, column by column, without materialising a row.
//!
//! The main is compressed: every sealed `Int`, `Date`, `SysTime` and
//! string-code column is a frame of reference — a base plus one offset per
//! row, in the narrowest of 1, 2, 4 or 8 bytes that spans the column's
//! values (`Packed`). `Double` columns stay `f64`, bit for bit, and the
//! delta stays unpacked, one typed vector per column.

use bitempo_core::hash::hash_one;
use bitempo_core::time::{AppDate, SysTime};
use bitempo_core::{DataType, Error, Result, Row, Schema, Value};
use std::marker::PhantomData;
use std::sync::Arc;

/// One column's typed delta payload. `u32::MAX` is the dictionary code for
/// NULL; numeric columns carry a separate null mask only when NULLs appear,
/// and hold [`Cell::TOP`] in a NULL cell (a `Double` holds `0.0`).
#[derive(Debug, Clone, PartialEq)]
enum ColumnData {
    Int(Vec<i64>),
    Double(Vec<f64>),
    Str(Vec<u32>),
    Date(Vec<i64>),
    SysTime(Vec<u64>),
}

impl ColumnData {
    fn new(dtype: DataType) -> ColumnData {
        match dtype {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Double => ColumnData::Double(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
            DataType::SysTime => ColumnData::SysTime(Vec::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::SysTime(v) => v.len(),
        }
    }

    /// Makes room for exactly `rows` more cells.
    fn reserve_exact(&mut self, rows: usize) {
        match self {
            ColumnData::Int(v) => v.reserve_exact(rows),
            ColumnData::Double(v) => v.reserve_exact(rows),
            ColumnData::Str(v) => v.reserve_exact(rows),
            ColumnData::Date(v) => v.reserve_exact(rows),
            ColumnData::SysTime(v) => v.reserve_exact(rows),
        }
    }

    /// Bytes the payload vector holds, by capacity.
    fn memory_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) => vec_bytes(v),
            ColumnData::Double(v) => vec_bytes(v),
            ColumnData::Str(v) => vec_bytes(v),
            ColumnData::Date(v) => vec_bytes(v),
            ColumnData::SysTime(v) => vec_bytes(v),
        }
    }

    /// Bytes of the payload vector's capacity past its length.
    fn spare_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) => vec_spare(v),
            ColumnData::Double(v) => vec_spare(v),
            ColumnData::Str(v) => vec_spare(v),
            ColumnData::Date(v) => vec_spare(v),
            ColumnData::SysTime(v) => vec_spare(v),
        }
    }
}

/// One column of the sealed main: `Double`s as they are, every other type
/// packed.
#[derive(Debug, Clone, PartialEq)]
enum Sealed {
    Int(Packed<i64>),
    Double(Vec<f64>),
    Str(Packed<u32>),
    Date(Packed<i64>),
    SysTime(Packed<u64>),
}

impl Sealed {
    fn new(dtype: DataType) -> Sealed {
        match dtype {
            DataType::Int => Sealed::Int(Packed::new()),
            DataType::Double => Sealed::Double(Vec::new()),
            DataType::Str => Sealed::Str(Packed::new()),
            DataType::Date => Sealed::Date(Packed::new()),
            DataType::SysTime => Sealed::SysTime(Packed::new()),
        }
    }

    /// Seals `delta` onto the end of this column, which it leaves with no
    /// spare capacity; an empty delta leaves the column as it is.
    fn seal_from(&mut self, delta: ColumnData) {
        match (self, delta) {
            (Sealed::Int(a), ColumnData::Int(b)) => a.seal(&b),
            (Sealed::Double(a), ColumnData::Double(b)) => seal(a, b),
            (Sealed::Str(a), ColumnData::Str(b)) => a.seal(&b),
            (Sealed::Date(a), ColumnData::Date(b)) => a.seal(&b),
            (Sealed::SysTime(a), ColumnData::SysTime(b)) => a.seal(&b),
            _ => unreachable!("merge between differently-typed columns"),
        }
    }

    /// Bytes the column holds, by capacity.
    fn memory_bytes(&self) -> usize {
        match self {
            Sealed::Double(v) => vec_bytes(v),
            Sealed::Int(p) | Sealed::Date(p) => p.memory_bytes(),
            Sealed::Str(p) => p.memory_bytes(),
            Sealed::SysTime(p) => p.memory_bytes(),
        }
    }

    /// Bytes of the column's capacity past its length.
    fn spare_bytes(&self) -> usize {
        match self {
            Sealed::Double(v) => vec_spare(v),
            Sealed::Int(p) | Sealed::Date(p) => p.spare_bytes(),
            Sealed::Str(p) => p.spare_bytes(),
            Sealed::SysTime(p) => p.spare_bytes(),
        }
    }
}

/// A cell type a sealed column packs, by its order-preserving image in
/// `u64`.
trait Cell: Copy + PartialEq {
    /// The value the top code of every width stands for, so that it never
    /// widens a frame: the type's `MAX` — an open period's end — or, for
    /// dictionary codes, NULL.
    const TOP: Self;
    fn to_raw(self) -> u64;
    fn from_raw(raw: u64) -> Self;
}

// `Date` cells share `Int`'s packing: the open end is the same bits.
const _: () = assert!(AppDate::MAX.0 == i64::MAX);

/// `Int` and `Date` cells, the sign bit flipped.
impl Cell for i64 {
    const TOP: i64 = i64::MAX;
    fn to_raw(self) -> u64 {
        (self as u64) ^ (1 << 63)
    }
    fn from_raw(raw: u64) -> i64 {
        (raw ^ (1 << 63)) as i64
    }
}

/// `SysTime` cells.
impl Cell for u64 {
    const TOP: u64 = SysTime::MAX.0;
    fn to_raw(self) -> u64 {
        self
    }
    fn from_raw(raw: u64) -> u64 {
        raw
    }
}

/// Dictionary codes.
impl Cell for u32 {
    const TOP: u32 = NULL_CODE;
    fn to_raw(self) -> u64 {
        u64::from(self)
    }
    fn from_raw(raw: u64) -> u32 {
        raw as u32
    }
}

/// One code width. Its top code stands for [`Cell::TOP`]; every other code
/// is an offset from the frame's base.
trait Code: Copy + PartialEq {
    const TOP: Self;
    fn widen(self) -> u64;
    fn narrow(offset: u64) -> Self;
}

macro_rules! code_width {
    ($($t:ty),*) => {$(
        impl Code for $t {
            const TOP: $t = <$t>::MAX;
            fn widen(self) -> u64 {
                u64::from(self)
            }
            fn narrow(offset: u64) -> $t {
                offset as $t
            }
        }
    )*};
}

code_width!(u8, u16, u32, u64);

/// A packed column's codes, one typed vector per width: a byte array
/// decoded by width measured 35 % slower column-store scans.
#[derive(Debug, Clone, PartialEq)]
enum Codes {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

/// Runs `$body` on the typed vector of whichever width `$codes` has.
macro_rules! each_width {
    ($codes:expr, $v:ident => $body:expr) => {
        match $codes {
            Codes::U8($v) => $body,
            Codes::U16($v) => $body,
            Codes::U32($v) => $body,
            Codes::U64($v) => $body,
        }
    };
}

impl Codes {
    /// Empty codes of the narrowest width whose codes below the top one
    /// span `span`, with room for exactly `rows`.
    fn for_span(span: u64, rows: usize) -> Codes {
        if span < u64::from(u8::MAX) {
            Codes::U8(Vec::with_capacity(rows))
        } else if span < u64::from(u16::MAX) {
            Codes::U16(Vec::with_capacity(rows))
        } else if span < u64::from(u32::MAX) {
            Codes::U32(Vec::with_capacity(rows))
        } else {
            Codes::U64(Vec::with_capacity(rows))
        }
    }

    /// Bytes per code.
    fn width(&self) -> usize {
        each_width!(self, v => elem_size(v))
    }
}

fn elem_size<T>(_: &[T]) -> usize {
    std::mem::size_of::<T>()
}

/// The smallest and largest raw image of some cells, `TOP` left out;
/// `None` when every cell is `TOP`.
type Bounds = Option<(u64, u64)>;

fn union(a: Bounds, b: Bounds) -> Bounds {
    match (a, b) {
        (Some((lo, hi)), Some((lo2, hi2))) => Some((lo.min(lo2), hi.max(hi2))),
        (a, None) => a,
        (None, b) => b,
    }
}

/// The bounds of the raw images `raws`.
fn bounds_of(raws: impl Iterator<Item = u64>) -> Bounds {
    raws.fold(None, |r, x| union(r, Some((x, x))))
}

/// The code of `x` in the frame at `base`, if the frame holds it.
fn encode<T: Cell, C: Code>(base: u64, x: T) -> Option<C> {
    if x == T::TOP {
        return Some(C::TOP);
    }
    let offset = x.to_raw().checked_sub(base)?;
    (offset < C::TOP.widen()).then(|| C::narrow(offset))
}

/// The code of `x` in a frame at `base` known to hold it.
fn encode_held<T: Cell, C: Code>(base: u64, x: T) -> C {
    if x == T::TOP {
        C::TOP
    } else {
        C::narrow(x.to_raw() - base)
    }
}

/// The cell `code` stands for in the frame at `base`. Both candidates are
/// computed first so that the choice can compile to a select rather than a
/// branch on the data, which a column mixing open ends with other values
/// would make unpredictable.
fn decode<T: Cell, C: Code>(base: u64, code: C) -> T {
    let cell = T::from_raw(base.wrapping_add(code.widen()));
    if code == C::TOP {
        T::TOP
    } else {
        cell
    }
}

/// A sealed column of `T` cells as a frame of reference: cell `i` is
/// `base + codes[i]`, at the narrowest width whose codes below the top one
/// span the cells, `TOP` aside. Only the values choose the width. A merge
/// packs the delta onto the end at the frame that holds both, re-coding
/// main only when that frame differs from its own; a write outside the
/// frame re-packs the column.
#[derive(Debug, Clone, PartialEq)]
struct Packed<T> {
    base: u64,
    codes: Codes,
    cell: PhantomData<T>,
}

impl<T: Cell> Packed<T> {
    fn new() -> Packed<T> {
        Packed {
            base: 0,
            codes: Codes::U8(Vec::new()),
            cell: PhantomData,
        }
    }

    fn len(&self) -> usize {
        each_width!(&self.codes, v => v.len())
    }

    fn get(&self, pos: usize) -> T {
        each_width!(&self.codes, v => decode(self.base, v[pos]))
    }

    fn cells(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len()).map(|pos| self.get(pos))
    }

    /// The bounds of the column's cells, from their codes.
    fn bounds(&self) -> Bounds {
        each_width!(&self.codes, v => code_bounds(self.base, v))
    }

    /// Overwrites cell `pos`, re-packing the column first when its frame
    /// does not hold `x`.
    fn set(&mut self, pos: usize, x: T) {
        let base = self.base;
        let held = each_width!(&mut self.codes, v => encode(base, x).map(|c| v[pos] = c).is_some());
        if !held {
            self.repack(union(self.bounds(), bounds_of(raws(&[x]))), &[]);
            let base = self.base;
            each_width!(&mut self.codes, v => v[pos] = encode_held(base, x));
        }
    }

    /// Appends `delta` at the narrowest frame that holds it and the column.
    fn seal(&mut self, delta: &[T]) {
        if delta.is_empty() {
            return;
        }
        let bounds = union(self.bounds(), bounds_of(raws(delta)));
        let (base, codes) = frame(bounds, 0);
        if base != self.base || codes.width() != self.codes.width() {
            return self.repack(bounds, delta);
        }
        each_width!(&mut self.codes, v => {
            v.reserve_exact(delta.len());
            push_codes(v, base, delta.iter().copied());
        })
    }

    /// Re-codes the column, then `extra` after it, at the narrowest frame
    /// over `bounds`, which holds both.
    fn repack(&mut self, bounds: Bounds, extra: &[T]) {
        let (base, mut codes) = frame(bounds, self.len() + extra.len());
        let cells = self.cells().chain(extra.iter().copied());
        each_width!(&mut codes, v => push_codes(v, base, cells));
        self.base = base;
        self.codes = codes;
    }

    fn memory_bytes(&self) -> usize {
        each_width!(&self.codes, v => vec_bytes(v))
    }

    fn spare_bytes(&self) -> usize {
        each_width!(&self.codes, v => vec_spare(v))
    }
}

/// Appends the codes of `cells` in a frame at `base` known to hold them.
fn push_codes<T: Cell, C: Code>(codes: &mut Vec<C>, base: u64, cells: impl Iterator<Item = T>) {
    codes.extend(cells.map(|x| encode_held::<T, C>(base, x)));
}

/// The bounds of the cells `codes` stand for in the frame at `base`.
fn code_bounds<C: Code>(base: u64, codes: &[C]) -> Bounds {
    let offsets = codes.iter().filter(|&&c| c != C::TOP).map(|&c| c.widen());
    bounds_of(offsets).map(|(lo, hi)| (base + lo, base + hi))
}

/// The raw images of `cells` other than `TOP`.
fn raws<T: Cell>(cells: &[T]) -> impl Iterator<Item = u64> + '_ {
    cells.iter().filter(|&&x| x != T::TOP).map(|&x| x.to_raw())
}

/// The frame over `bounds`: its base, and empty codes of its width with
/// room for `rows`.
fn frame(bounds: Bounds, rows: usize) -> (u64, Codes) {
    let (lo, hi) = bounds.unwrap_or((0, 0));
    (lo, Codes::for_span(hi - lo, rows))
}

/// Seals a delta buffer onto the end of a main buffer, leaving main with no
/// spare capacity and releasing the delta's: an empty main *becomes* the
/// delta (moved, not copied), a non-empty one grows by exactly the delta's
/// length.
fn seal<T: Copy>(main: &mut Vec<T>, mut delta: Vec<T>) {
    if main.is_empty() {
        delta.shrink_to_fit();
        *main = delta;
    } else {
        main.reserve_exact(delta.len());
        main.extend_from_slice(&delta);
    }
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

fn vec_spare<T>(v: &Vec<T>) -> usize {
    (v.capacity() - v.len()) * std::mem::size_of::<T>()
}

/// Whether row `pos` is NULL in a fragment's null mask.
fn is_null(mask: &Option<Vec<bool>>, pos: usize) -> bool {
    mask.as_ref()
        .is_some_and(|m| m.get(pos).copied().unwrap_or(false))
}

/// Records whether delta row `pos` of a column is NULL in its lazily
/// allocated null mask: the first NULL allocates the mask, and once there
/// it covers every row.
fn push_null_flag(mask: &mut Option<Vec<bool>>, pos: usize, is_null: bool) {
    if is_null {
        let mask = mask.get_or_insert_with(|| vec![false; pos]);
        mask.resize(pos, false);
        mask.push(true);
    } else if let Some(mask) = mask.as_mut() {
        mask.resize(pos, false);
        mask.push(false);
    }
}

/// Appends to `dest` the cells of `main ++ delta` whose row's fate is
/// `want`, passed through `map`: the typed loop of one column of
/// [`ColumnTable::split_off`].
fn extend_picked<T: Copy>(
    dest: &mut Vec<T>,
    (main, delta): (impl Iterator<Item = T>, &[T]),
    (fate, want): (&[RowFate], RowFate),
    mut map: impl FnMut(T) -> T,
) {
    dest.reserve_exact(fate.iter().filter(|&&f| f == want).count());
    let cells = main.chain(delta.iter().copied()).zip(fate);
    dest.extend(cells.filter(|(_, f)| **f == want).map(|(x, _)| map(x)));
}

/// NULL sentinel for dictionary codes.
const NULL_CODE: u32 = u32::MAX;

/// An empty slot of a [`Dictionary`]'s code table.
const VACANT: u32 = u32::MAX;

/// A per-column string dictionary: `strings` maps a code to its string, and
/// an open-addressing table of codes (linear probing, a power of two of
/// slots, at most half full) maps a string back to its code. The table
/// holds codes, not strings, so each distinct string lives in one `Arc`,
/// shared with the rows that were appended.
#[derive(Debug, Clone, Default, PartialEq)]
struct Dictionary {
    strings: Vec<Arc<str>>,
    slots: Vec<u32>,
}

impl Dictionary {
    fn encode(&mut self, s: &Arc<str>) -> u32 {
        let hash = hash_one(&**s);
        let mut found = self.find(s, hash);
        if found.is_err() && 2 * (self.strings.len() + 1) > self.slots.len() {
            self.grow();
            found = self.find(s, hash);
        }
        match found {
            Ok(code) => code,
            Err(slot) => {
                let code = self.strings.len() as u32;
                self.slots[slot] = code;
                self.strings.push(Arc::clone(s));
                code
            }
        }
    }

    /// The code of `s`, or the vacant slot where it would go.
    fn find(&self, s: &str, hash: u64) -> std::result::Result<u32, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut slot = hash as usize & mask;
        while let Some(&code) = self.slots.get(slot) {
            match code {
                VACANT => return Err(slot),
                code if *self.strings[code as usize] == *s => return Ok(code),
                _ => slot = (slot + 1) & mask,
            }
        }
        Err(slot)
    }

    /// Doubles the table (eight slots at first) and re-slots every code.
    fn grow(&mut self) {
        self.slots = vec![VACANT; (2 * self.slots.len()).max(8)];
        for code in 0..self.strings.len() {
            let s = &self.strings[code];
            let Err(slot) = self.find(s, hash_one(&**s)) else {
                unreachable!("dictionary strings are distinct");
            };
            self.slots[slot] = code as u32;
        }
    }

    fn decode(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// Bytes the dictionary holds, by capacity: the code → string vector
    /// and the table of codes. String payloads are shared with the rows
    /// that were appended and not counted.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.strings) + vec_bytes(&self.slots)
    }
}

/// What [`ColumnTable::split_off`] does with one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowFate {
    /// Stays, renumbered after the rows kept before it.
    Keep,
    /// Moves to the end of the other table.
    Move,
    /// Is dropped.
    Drop,
}

/// A columnar table: main fragment + delta fragment + per-column dictionary.
#[derive(Debug, Clone)]
pub struct ColumnTable {
    schema: Schema,
    main: Vec<Sealed>,
    delta: Vec<ColumnData>,
    /// Null masks parallel to main/delta, one bit vec per column, lazily
    /// allocated (TPC-BiH data is NOT NULL almost everywhere).
    main_nulls: Vec<Option<Vec<bool>>>,
    delta_nulls: Vec<Option<Vec<bool>>>,
    dicts: Vec<Dictionary>,
    main_len: usize,
}

impl ColumnTable {
    /// Creates an empty table with the given value schema.
    pub fn new(schema: Schema) -> ColumnTable {
        let main = schema
            .columns()
            .iter()
            .map(|c| Sealed::new(c.dtype))
            .collect();
        let delta = schema
            .columns()
            .iter()
            .map(|c| ColumnData::new(c.dtype))
            .collect();
        let n = schema.arity();
        ColumnTable {
            schema,
            main,
            delta,
            main_nulls: vec![None; n],
            delta_nulls: vec![None; n],
            dicts: vec![Dictionary::default(); n],
            main_len: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows (main + delta).
    pub fn len(&self) -> usize {
        self.main_len + self.delta_len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes room in the delta for exactly `rows` more rows, so that a
    /// caller who knows how many it will append before the next merge
    /// (a restore) grows every column once instead of by doubling. Null
    /// masks stay lazy.
    pub fn reserve_rows(&mut self, rows: usize) {
        for col in &mut self.delta {
            col.reserve_exact(rows);
        }
    }

    /// Rows currently sitting in the delta fragment.
    pub fn delta_len(&self) -> usize {
        self.delta.first().map_or(0, ColumnData::len)
    }

    /// Appends a row; returns its stable row id.
    ///
    /// (Named `append_row` rather than `append` so the workspace-unique
    /// name `append` stays reserved for the WAL's blocking append — tblint
    /// TB008 resolves intra-workspace calls by name, one hop deep.)
    pub fn append_row(&mut self, row: &Row) -> Result<usize> {
        self.append_cells(row.values(), &[])
    }

    /// Appends the row whose cells are `head` followed by `tail`, with no
    /// [`Row`] built (System C appends a version's value cells and its
    /// hidden period cells this way); returns its stable row id.
    pub fn append_cells(&mut self, head: &[Value], tail: &[Value]) -> Result<usize> {
        let arity = head.len() + tail.len();
        if arity != self.schema.arity() {
            return Err(Error::Invalid(format!(
                "row arity {arity} vs schema arity {}",
                self.schema.arity()
            )));
        }
        let delta_pos = self.delta_len();
        for (col, value) in head.iter().chain(tail).enumerate() {
            self.push_value(col, value, delta_pos)?;
        }
        Ok(self.main_len + delta_pos)
    }

    fn push_value(&mut self, col: usize, value: &Value, delta_pos: usize) -> Result<()> {
        push_null_flag(&mut self.delta_nulls[col], delta_pos, value.is_null());
        match (&mut self.delta[col], value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(*x),
            (ColumnData::Int(v), Value::Null) => v.push(Cell::TOP),
            (ColumnData::Double(v), Value::Double(x)) => v.push(*x),
            (ColumnData::Double(v), Value::Int(x)) => v.push(*x as f64),
            (ColumnData::Double(v), Value::Null) => v.push(0.0),
            (ColumnData::Str(v), Value::Str(s)) => {
                let code = self.dicts[col].encode(s);
                v.push(code);
            }
            (ColumnData::Str(v), Value::Null) => v.push(NULL_CODE),
            (ColumnData::Date(v), Value::Date(d)) => v.push(d.0),
            (ColumnData::Date(v), Value::Null) => v.push(Cell::TOP),
            (ColumnData::SysTime(v), Value::SysTime(t)) => v.push(t.0),
            (ColumnData::SysTime(v), Value::Null) => v.push(Cell::TOP),
            (col_data, v) => {
                return Err(Error::TypeMismatch {
                    expected: format!("{:?}", self.schema.column(col).dtype),
                    found: format!("{v:?} for column storage {col_data:?}"),
                })
            }
        }
        Ok(())
    }

    /// Reads one cell.
    pub fn get_value(&self, col: usize, row: usize) -> Value {
        if row < self.main_len {
            if is_null(&self.main_nulls[col], row) {
                return Value::Null;
            }
            match &self.main[col] {
                Sealed::Int(p) => Value::Int(p.get(row)),
                Sealed::Double(v) => Value::Double(v[row]),
                Sealed::Str(p) => self.str_value(col, p.get(row)),
                Sealed::Date(p) => Value::Date(AppDate(p.get(row))),
                Sealed::SysTime(p) => Value::SysTime(SysTime(p.get(row))),
            }
        } else {
            let pos = row - self.main_len;
            if is_null(&self.delta_nulls[col], pos) {
                return Value::Null;
            }
            match &self.delta[col] {
                ColumnData::Int(v) => Value::Int(v[pos]),
                ColumnData::Double(v) => Value::Double(v[pos]),
                ColumnData::Str(v) => self.str_value(col, v[pos]),
                ColumnData::Date(v) => Value::Date(AppDate(v[pos])),
                ColumnData::SysTime(v) => Value::SysTime(SysTime(v[pos])),
            }
        }
    }

    /// The string dictionary code `code` of column `col` stands for.
    fn str_value(&self, col: usize, code: u32) -> Value {
        if code == NULL_CODE {
            Value::Null
        } else {
            Value::Str(Arc::clone(self.dicts[col].decode(code)))
        }
    }

    /// Overwrites one cell in place (used by the engine to close the system
    /// period of a superseded version — the only in-place write a column
    /// store performs). A sealed cell is encoded in its column's frame; a
    /// value outside it re-packs that column.
    pub fn set_value(&mut self, col: usize, row: usize, value: &Value) -> Result<()> {
        let main_len = self.main_len;
        let dict = &mut self.dicts[col];
        let mismatch = || Error::TypeMismatch {
            expected: format!("{:?}", self.schema.column(col).dtype),
            found: format!("{value:?}"),
        };
        let (nulls, pos) = if row < main_len {
            match (&mut self.main[col], value) {
                (Sealed::Int(p), Value::Int(x)) => p.set(row, *x),
                (Sealed::Double(v), Value::Double(x)) => v[row] = *x,
                (Sealed::Date(p), Value::Date(d)) => p.set(row, d.0),
                (Sealed::SysTime(p), Value::SysTime(t)) => p.set(row, t.0),
                (Sealed::Str(p), Value::Str(s)) => p.set(row, dict.encode(s)),
                _ => return Err(mismatch()),
            }
            (&mut self.main_nulls[col], row)
        } else {
            let pos = row - main_len;
            match (&mut self.delta[col], value) {
                (ColumnData::Int(v), Value::Int(x)) => v[pos] = *x,
                (ColumnData::Double(v), Value::Double(x)) => v[pos] = *x,
                (ColumnData::Date(v), Value::Date(d)) => v[pos] = d.0,
                (ColumnData::SysTime(v), Value::SysTime(t)) => v[pos] = t.0,
                (ColumnData::Str(v), Value::Str(s)) => v[pos] = dict.encode(s),
                _ => return Err(mismatch()),
            }
            (&mut self.delta_nulls[col], pos)
        };
        // The cell holds a value now, whatever it held before.
        if let Some(bit) = nulls.as_mut().and_then(|mask| mask.get_mut(pos)) {
            *bit = false;
        }
        Ok(())
    }

    /// Materializes a full row.
    pub fn get_row(&self, row: usize) -> Row {
        (0..self.schema.arity())
            .map(|c| self.get_value(c, row))
            .collect()
    }

    /// Merges the delta fragment into main and seals it: main ends up
    /// holding exactly its rows, packed column by column, the delta's
    /// buffers and null masks are released, not kept for the next delta,
    /// and each dictionary's strings are held at their count. Row ids are
    /// unchanged. With an empty delta no column is re-packed.
    pub fn merge(&mut self) {
        let delta_rows = self.delta_len();
        for col in 0..self.schema.arity() {
            // A mask on either side means main needs one over all its rows.
            let delta_mask = self.delta_nulls[col].take();
            if delta_mask.is_some() || self.main_nulls[col].is_some() {
                let mut delta_mask = delta_mask.unwrap_or_default();
                delta_mask.resize(delta_rows, false);
                let main_len = self.main_len;
                let main_mask = self.main_nulls[col].get_or_insert_with(|| vec![false; main_len]);
                seal(main_mask, delta_mask);
            }
            let delta = std::mem::replace(
                &mut self.delta[col],
                ColumnData::new(self.schema.column(col).dtype),
            );
            self.main[col].seal_from(delta);
            self.dicts[col].strings.shrink_to_fit();
        }
        self.main_len += delta_rows;
    }

    /// Splits the table by `fate`, one per row: the kept rows become the
    /// whole table, renumbered densely in their order; the moved rows are
    /// appended to `to`'s delta in their order; the dropped rows are gone.
    /// Works one column at a time on the typed payloads — the kept column
    /// is built, the moved cells appended to `to`, and the source column
    /// released before the next — so the split holds one column (and its
    /// dictionary) beyond the table, not a copy of the kept rows. Each
    /// string is re-encoded on its first use, so every fragment, dictionary
    /// and null mask ends up as appending the same rows one by one would
    /// leave it. Both tables hold their new rows in the delta until their
    /// next merge.
    pub fn split_off(&mut self, fate: &[RowFate], to: &mut ColumnTable) {
        assert_eq!(fate.len(), self.len(), "one fate per row");
        assert_eq!(self.schema.arity(), to.schema.arity(), "same columns");
        let mut kept = ColumnTable::new(self.schema.clone());
        let to_base = to.delta_len();
        for col in 0..self.schema.arity() {
            kept.append_column(col, 0, self, fate, RowFate::Keep);
            to.append_column(col, to_base, self, fate, RowFate::Move);
            let dtype = self.schema.column(col).dtype;
            self.main[col] = Sealed::new(dtype);
            self.delta[col] = ColumnData::new(dtype);
            self.main_nulls[col] = None;
            self.delta_nulls[col] = None;
            self.dicts[col] = Dictionary::default();
        }
        *self = kept;
    }

    /// Appends column `col` of the rows of `src` whose fate is `want` to
    /// this table's delta, whose rows of that column start at `base`.
    fn append_column(
        &mut self,
        col: usize,
        base: usize,
        src: &ColumnTable,
        fate: &[RowFate],
        want: RowFate,
    ) {
        let picked = (fate, want);
        match (&mut self.delta[col], &src.main[col], &src.delta[col]) {
            (ColumnData::Int(d), Sealed::Int(m), ColumnData::Int(t)) => {
                extend_picked(d, (m.cells(), t), picked, |x| x)
            }
            (ColumnData::Double(d), Sealed::Double(m), ColumnData::Double(t)) => {
                extend_picked(d, (m.iter().copied(), t), picked, |x| x)
            }
            (ColumnData::Date(d), Sealed::Date(m), ColumnData::Date(t)) => {
                extend_picked(d, (m.cells(), t), picked, |x| x)
            }
            (ColumnData::SysTime(d), Sealed::SysTime(m), ColumnData::SysTime(t)) => {
                extend_picked(d, (m.cells(), t), picked, |x| x)
            }
            (ColumnData::Str(d), Sealed::Str(m), ColumnData::Str(t)) => {
                let (from, into) = (&src.dicts[col], &mut self.dicts[col]);
                // Old code → new code, `NULL_CODE` until first used.
                let mut codes = vec![NULL_CODE; from.strings.len()];
                extend_picked(d, (m.cells(), t), picked, |code| match code {
                    NULL_CODE => NULL_CODE,
                    code => {
                        let new = &mut codes[code as usize];
                        if *new == NULL_CODE {
                            *new = into.encode(from.decode(code));
                        }
                        *new
                    }
                })
            }
            _ => unreachable!("split between differently-typed columns"),
        }
        let nulls = &mut self.delta_nulls[col];
        if nulls.is_some() || src.main_nulls[col].is_some() || src.delta_nulls[col].is_some() {
            let rows = (0..fate.len()).filter(|&row| fate[row] == want);
            for (i, row) in rows.enumerate() {
                push_null_flag(nulls, base + i, src.get_value(col, row).is_null());
            }
        }
    }

    /// Bytes of capacity past the length of the fragments' payload vectors
    /// and null masks and of the dictionaries' vectors: zero after a
    /// [`ColumnTable::merge`].
    pub fn spare_bytes(&self) -> usize {
        let masks = self.main_nulls.iter().chain(&self.delta_nulls);
        let dicts = self.dicts.iter();
        self.main.iter().map(Sealed::spare_bytes).sum::<usize>()
            + self
                .delta
                .iter()
                .map(ColumnData::spare_bytes)
                .sum::<usize>()
            + masks.flatten().map(vec_spare).sum::<usize>()
            + dicts
                .map(|d| vec_spare(&d.strings) + vec_spare(&d.slots))
                .sum::<usize>()
    }

    /// Bytes the table holds, by capacity: both fragments' payload vectors
    /// and null masks, and the dictionaries.
    pub fn memory_bytes(&self) -> usize {
        let masks = self.main_nulls.iter().chain(&self.delta_nulls);
        self.main.iter().map(Sealed::memory_bytes).sum::<usize>()
            + self
                .delta
                .iter()
                .map(ColumnData::memory_bytes)
                .sum::<usize>()
            + masks.flatten().map(vec_bytes).sum::<usize>()
            + self
                .dicts
                .iter()
                .map(Dictionary::memory_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::Column;
    use std::collections::BTreeMap;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Str),
            Column::new("price", DataType::Double),
            Column::new("since", DataType::Date),
            Column::new("sys_start", DataType::SysTime),
        ])
    }

    fn row(id: i64, name: &str, price: f64) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::str(name),
            Value::Double(price),
            Value::Date(AppDate(100 + id)),
            Value::SysTime(SysTime(id as u64)),
        ])
    }

    #[test]
    fn append_and_read_back() {
        let mut t = ColumnTable::new(schema());
        for i in 0..10 {
            let id = t.append_row(&row(i, "widget", i as f64 * 1.5)).unwrap();
            assert_eq!(id, i as usize);
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.get_row(3), row(3, "widget", 4.5));
        assert_eq!(t.get_value(1, 7), Value::str("widget"));
    }

    #[test]
    fn dictionary_deduplicates() {
        let mut t = ColumnTable::new(schema());
        for i in 0..100 {
            t.append_row(&row(i, if i % 2 == 0 { "even" } else { "odd" }, 1.0))
                .unwrap();
        }
        assert_eq!(t.dicts[1].strings.len(), 2);
    }

    /// The code table against a `BTreeMap` model: codes are dense in first
    /// use order and every string decodes back. It starts with five strings
    /// that share the last slot of the first eight-slot table, so their
    /// probes collide and wrap, and the fifth forces the first growth.
    #[test]
    fn dictionary_matches_a_map_model_through_collisions_and_growth() {
        let colliding: Vec<String> = (0..)
            .map(|i| format!("c{i}"))
            .filter(|s| hash_one(s.as_str()) & 7 == 7)
            .take(5)
            .collect();
        let mut dict = Dictionary::default();
        let mut model: BTreeMap<String, u32> = BTreeMap::new();
        let mut encode = |dict: &mut Dictionary, s: &str| {
            let next = model.len() as u32;
            let want = *model.entry(s.to_string()).or_insert(next);
            assert_eq!(dict.encode(&Arc::from(s)), want, "{s}");
            assert_eq!(&**dict.decode(want), s);
        };
        for s in &colliding[..4] {
            encode(&mut dict, s);
        }
        assert_eq!(dict.slots.len(), 8, "four strings fit in eight slots");
        let wrapped = dict.slots[..3].iter().filter(|&&c| c != VACANT).count();
        assert_eq!(wrapped, 3, "the last three probed past slot 7 to 0, 1, 2");
        for s in colliding.iter().chain(&colliding) {
            encode(&mut dict, s);
        }
        assert_eq!(dict.slots.len(), 16, "the fifth string doubled the table");
        for i in 0..3_000 {
            encode(&mut dict, &format!("s{}", i % 1_000));
        }
        assert_eq!(dict.strings.len(), model.len());
        assert!(dict.slots.len().is_power_of_two() && dict.slots.len() >= 2 * model.len());
        assert_eq!(
            dict.slots.iter().filter(|&&c| c != VACANT).count(),
            model.len()
        );
        for (s, &code) in &model {
            assert_eq!(dict.find(s, hash_one(s.as_str())), Ok(code));
        }
        assert!(dict.find("absent", hash_one("absent")).is_err());
    }

    #[test]
    fn merge_preserves_row_ids_and_values() {
        let mut t = ColumnTable::new(schema());
        for i in 0..20 {
            t.append_row(&row(i, "x", 0.0)).unwrap();
        }
        let before: Vec<Row> = (0..20).map(|i| t.get_row(i)).collect();
        assert_eq!(t.delta_len(), 20);
        t.merge();
        assert_eq!(t.delta_len(), 0);
        assert_eq!(t.len(), 20);
        for (i, b) in before.iter().enumerate() {
            assert_eq!(&t.get_row(i), b);
        }
        // Appends after merge continue the id sequence.
        let id = t.append_row(&row(99, "y", 9.9)).unwrap();
        assert_eq!(id, 20);
        t.merge();
        assert_eq!(t.get_row(20), row(99, "y", 9.9));
    }

    #[test]
    fn merge_seals_main_and_releases_the_delta() {
        let (n, m) = (10_000i64, 3_000i64);
        let name = |i: i64| format!("name-{}", i % 50);
        let mut t = ColumnTable::new(schema());
        for i in 0..n {
            let id = t.append_row(&row(i, &name(i), 0.5)).unwrap();
            assert_eq!(id, i as usize);
        }
        t.merge();
        for i in n..n + m {
            let id = t.append_row(&row(i, &name(i), 0.5)).unwrap();
            assert_eq!(id, i as usize);
        }
        t.merge();
        for i in [0, 1, n - 1, n, n + m - 1] {
            assert_eq!(t.get_row(i as usize), row(i, &name(i), 0.5));
        }
        assert_eq!(t.delta_len(), 0);
        let delta_bytes: usize = t.delta.iter().map(ColumnData::memory_bytes).sum();
        assert_eq!(delta_bytes, 0, "the delta holds no capacity after a merge");
        assert_eq!(t.spare_bytes(), 0, "nor does any other vector");
        assert!(t.delta_nulls.iter().all(Option::is_none));
        // Per row: a 2-byte id (13 000 ids), a 1-byte name code (50
        // names), an 8-byte price, 2-byte dates and system times.
        assert_eq!(widths(&t), [2, 1, 8, 2, 2]);
        let payload = (n + m) as usize * (2 + 1 + 8 + 2 + 2);
        let dictionary: usize = t.dicts.iter().map(Dictionary::memory_bytes).sum();
        assert!(dictionary > 0);
        let held = t.memory_bytes();
        assert!(
            held as f64 <= 1.05 * (payload + dictionary) as f64,
            "{held} B held for {payload} B payload + {dictionary} B dictionary"
        );
    }

    #[test]
    fn nulls_round_trip_across_merge() {
        let mut t = ColumnTable::new(schema());
        t.append_row(&row(1, "a", 1.0)).unwrap();
        t.append_row(&Row::new(vec![
            Value::Int(2),
            Value::Null,
            Value::Null,
            Value::Date(AppDate(5)),
            Value::SysTime(SysTime(0)),
        ]))
        .unwrap();
        t.append_row(&row(3, "c", 3.0)).unwrap();
        assert!(t.get_value(1, 1).is_null());
        assert!(t.get_value(2, 1).is_null());
        assert!(!t.get_value(1, 2).is_null());
        t.merge();
        assert!(t.get_value(1, 1).is_null());
        assert!(t.get_value(2, 1).is_null());
        assert_eq!(t.get_value(1, 2), Value::str("c"));
        // A NULL in a later delta extends the main mask; a column that
        // first sees one then gets a mask over the rows already sealed.
        t.append_row(&Row::new(vec![
            Value::Null,
            Value::Null,
            Value::Double(4.0),
            Value::Date(AppDate(6)),
            Value::SysTime(SysTime(1)),
        ]))
        .unwrap();
        t.append_row(&row(5, "e", 5.0)).unwrap();
        t.merge();
        assert!(t.get_value(0, 3).is_null() && t.get_value(1, 3).is_null());
        assert_eq!(t.get_row(4), row(5, "e", 5.0));
        assert_eq!(t.get_value(0, 0), Value::Int(1));
        assert!(t.get_value(1, 1).is_null());
        assert_eq!(t.main_nulls[0].as_ref().map(Vec::len), Some(5));
        assert_eq!(t.spare_bytes(), 0, "masks sealed exactly too");
    }

    #[test]
    fn set_value_over_a_null_reads_back_the_value() {
        let mut t = ColumnTable::new(schema());
        let nulls = |id: i64| {
            Row::new(vec![
                Value::Int(id),
                Value::Null,
                Value::Null,
                Value::Date(AppDate(id)),
                Value::SysTime(SysTime(0)),
            ])
        };
        t.append_row(&nulls(0)).unwrap();
        t.merge();
        t.append_row(&nulls(1)).unwrap();
        // Row 0 sits in main, row 1 in the delta.
        for row in [0, 1] {
            t.set_value(1, row, &Value::str("set")).unwrap();
            t.set_value(2, row, &Value::Double(2.5)).unwrap();
            assert_eq!(t.get_value(1, row), Value::str("set"));
            assert_eq!(t.get_value(2, row), Value::Double(2.5));
        }
        t.merge();
        for row in [0, 1] {
            assert_eq!(t.get_value(1, row), Value::str("set"));
            assert_eq!(t.get_value(2, row), Value::Double(2.5));
        }
    }

    /// Every field of two tables, capacities included (by `memory_bytes`).
    fn assert_same(got: &ColumnTable, want: &ColumnTable) {
        assert_eq!(got.main_len, want.main_len);
        assert_eq!(got.main, want.main);
        assert_eq!(got.delta, want.delta);
        assert_eq!(got.main_nulls, want.main_nulls);
        assert_eq!(got.delta_nulls, want.delta_nulls);
        assert_eq!(got.dicts, want.dicts);
        let payload = |t: &ColumnTable| -> Vec<usize> {
            let main = t.main.iter().map(Sealed::memory_bytes);
            main.chain(t.delta.iter().map(ColumnData::memory_bytes))
                .collect()
        };
        assert_eq!(payload(got), payload(want));
        let dicts = |t: &ColumnTable| -> Vec<usize> {
            t.dicts.iter().map(Dictionary::memory_bytes).collect()
        };
        assert_eq!(dicts(got), dicts(want));
        assert_eq!(got.memory_bytes(), want.memory_bytes());
    }

    #[test]
    fn split_off_equals_appending_the_rows_one_by_one() {
        let names = ["ant", "bee", "cat", "dog", "eel"];
        let src_row = |i: i64| {
            Row::new(vec![
                Value::Int(i),
                // NULL names in both fragments; the first NULL price
                // comes after the merge, in the delta.
                if i % 6 == 4 {
                    Value::Null
                } else {
                    Value::str(names[i as usize % 5])
                },
                if i == 15 {
                    Value::Null
                } else {
                    Value::Double(i as f64 / 2.0)
                },
                Value::Date(AppDate(i)),
                Value::SysTime(SysTime(i as u64)),
            ])
        };
        let mut src = ColumnTable::new(schema());
        for i in 0..12 {
            src.append_row(&src_row(i)).unwrap();
        }
        src.merge();
        for i in 12..20 {
            src.append_row(&src_row(i)).unwrap();
        }
        // Close two rows in place, one in each fragment.
        for row in [4, 13] {
            src.set_value(4, row, &Value::SysTime(SysTime(99))).unwrap();
        }
        // A history with no NULL yet, and some of the names already coded.
        let mut history = ColumnTable::new(schema());
        for i in [100, 102] {
            history
                .append_row(&row(i, names[(i % 5) as usize], 1.0))
                .unwrap();
        }
        history.merge();
        let fate: Vec<RowFate> = (0..20)
            .map(|i| match i % 4 {
                0 => RowFate::Move,
                1 => RowFate::Drop,
                _ => RowFate::Keep,
            })
            .collect();
        // NULL names go to history (4, 16) and stay (10), as does the
        // NULL price (15).
        assert_eq!([fate[4], fate[16]], [RowFate::Move; 2]);
        assert_eq!([fate[10], fate[15]], [RowFate::Keep; 2]);

        let mut kept_ref = ColumnTable::new(schema());
        let mut history_ref = history.clone();
        for (i, f) in fate.iter().enumerate() {
            match f {
                RowFate::Keep => kept_ref.append_row(&src.get_row(i)).unwrap(),
                RowFate::Move => history_ref.append_row(&src.get_row(i)).unwrap(),
                RowFate::Drop => continue,
            };
        }
        src.split_off(&fate, &mut history);
        assert_eq!(src.len(), 10);
        assert_eq!(history.len(), 2 + 5);
        for t in [&mut src, &mut history, &mut kept_ref, &mut history_ref] {
            t.merge();
        }
        assert_same(&src, &kept_ref);
        assert_same(&history, &history_ref);
        // `assert_same` compares each dictionary's strings and code table;
        // the kept rows use all five names, so re-encoding grew the table.
        assert_eq!(src.dicts[1].strings.len(), 5);
        assert_eq!(src.dicts[1].slots.len(), 16);
        assert!(src.main_nulls[2].is_some(), "the late NULL price was kept");
        assert_eq!(history.get_value(1, 3), Value::Null, "row 4 moved");
        assert_eq!(history.get_value(4, 3), Value::SysTime(SysTime(99)));
    }

    #[test]
    fn set_value_closes_system_period() {
        let mut t = ColumnTable::new(schema());
        t.append_row(&row(1, "a", 1.0)).unwrap();
        t.merge();
        t.set_value(4, 0, &Value::SysTime(SysTime(42))).unwrap();
        assert_eq!(t.get_value(4, 0), Value::SysTime(SysTime(42)));
        // And in the delta fragment too.
        t.append_row(&row(2, "b", 2.0)).unwrap();
        t.set_value(0, 1, &Value::Int(7)).unwrap();
        assert_eq!(t.get_value(0, 1), Value::Int(7));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = ColumnTable::new(schema());
        let bad = Row::new(vec![Value::Int(1)]);
        assert!(t.append_row(&bad).is_err());
        let cells = row(1, "a", 1.0);
        assert!(t.append_cells(cells.values(), cells.values()).is_err());
        assert!(t.is_empty());
    }

    #[test]
    fn appending_cells_in_two_runs_equals_appending_the_row() {
        let (mut by_row, mut by_cells) = (ColumnTable::new(schema()), ColumnTable::new(schema()));
        for i in 0..10 {
            let r = row(i, ["x", "y", "z"][i as usize % 3], 0.5);
            let (head, tail) = r.values().split_at(i as usize % 6);
            assert_eq!(
                by_row.append_row(&r).unwrap(),
                by_cells.append_cells(head, tail).unwrap()
            );
        }
        assert_same(&by_cells, &by_row);
    }

    /// Bytes per cell of each sealed column.
    fn widths(t: &ColumnTable) -> Vec<usize> {
        let width = |c: &Sealed| match c {
            Sealed::Double(_) => 8,
            Sealed::Int(p) | Sealed::Date(p) => p.codes.width(),
            Sealed::Str(p) => p.codes.width(),
            Sealed::SysTime(p) => p.codes.width(),
        };
        t.main.iter().map(width).collect()
    }

    /// The narrowest width, in bytes, whose codes below the top one span
    /// `span`.
    fn narrowest(span: u128) -> usize {
        let fits = |bytes: usize| span < (1u128 << (8 * bytes)) - 1;
        [1, 2, 4, 8].into_iter().find(|&b| fits(b)).unwrap_or(8)
    }

    /// At each width's last span and one past it, with both ends and the
    /// top value in the column: the width is the narrowest, every cell
    /// reads back, and a write one past the frame re-packs at the next.
    #[test]
    fn every_width_boundary_is_exact() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        for (bytes, top) in [(1, 255i64), (2, 65_535), (4, 4_294_967_295)] {
            for (span, want) in [(top - 1, bytes), (top, 2 * bytes)] {
                let base = -7;
                let cells = [base, base + span, i64::MAX, base + span / 2];
                let mut t = ColumnTable::new(schema.clone());
                for x in cells {
                    t.append_row(&Row::new(vec![Value::Int(x)])).unwrap();
                }
                t.merge();
                assert_eq!(widths(&t), [want], "span {span}");
                for (row, x) in cells.iter().enumerate() {
                    assert_eq!(t.get_value(0, row), Value::Int(*x), "span {span}");
                }
                if span == top - 1 {
                    t.set_value(0, 3, &Value::Int(base + top)).unwrap();
                    assert_eq!(widths(&t), [2 * bytes], "span {top} after a write");
                    assert_eq!(t.get_value(0, 3), Value::Int(base + top));
                    assert_eq!(t.get_value(0, 2), Value::Int(i64::MAX));
                }
            }
        }
    }

    /// The open ends never widen a frame: a column of `MAX` cells closed
    /// one by one at nearby times stays one byte wide.
    #[test]
    fn open_ends_keep_a_frame_narrow() {
        let schema = Schema::new(vec![Column::new("$validto", DataType::SysTime)]);
        let mut t = ColumnTable::new(schema);
        for _ in 0..300 {
            t.append_row(&Row::new(vec![Value::SysTime(SysTime::MAX)]))
                .unwrap();
        }
        t.merge();
        assert_eq!(widths(&t), [1]);
        for row in (0..300).step_by(3) {
            let end = SysTime(1_000_000 + row as u64 / 3);
            t.set_value(0, row, &Value::SysTime(end)).unwrap();
            assert_eq!(t.get_value(0, row), Value::SysTime(end));
        }
        assert_eq!(widths(&t), [1]);
        assert_eq!(t.get_value(0, 1), Value::SysTime(SysTime::MAX));
        assert_eq!(t.memory_bytes(), 300);
    }

    /// Spans each column's values are drawn over: every width's last span,
    /// the spans around it, and the whole domain.
    const SPANS: [u128; 16] = [
        0,
        1,
        253,
        254,
        255,
        256,
        65_533,
        65_534,
        65_535,
        65_536,
        (1 << 32) - 3,
        (1 << 32) - 2,
        (1 << 32) - 1,
        1 << 32,
        1 << 40,
        u64::MAX as u128 - 1,
    ];

    /// SplitMix64's finaliser: the bits of one cell from an op's seed.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// One cell of type `dtype` from `r`, over the frame `(span, base)`
    /// indexes: NULL, the type's open end, its bottom, either end of the
    /// frame or a value inside it. Where NULL is drawn and `nullable` is
    /// false, a value anywhere in the type's domain.
    fn cell(dtype: DataType, (span, base): (usize, usize), r: u64, nullable: bool) -> Value {
        let span = SPANS[span];
        let off = match r % 16 {
            3 => 0,
            4 => span,
            _ => u128::from(mix(r)) % (span + 1),
        };
        let far = mix(r ^ 0x5555);
        let int = |top: i128| {
            let base = [i64::MIN as i128, -300, 0, 1 << 40][base];
            base.min(top - 1 - span as i128) + off as i128
        };
        match (dtype, r % 16) {
            (DataType::Double, _) => Value::Double(f64::from_bits(far)),
            (_, 0) if nullable => Value::Null,
            (DataType::Int, 0) => Value::Int(far as i64),
            (DataType::Date, 0) => Value::Date(AppDate(far as i64)),
            (DataType::SysTime, 0) => Value::SysTime(SysTime(far)),
            (DataType::Str, 0) => Value::str(format!("far{}", far % 1_000)),
            (DataType::Int, 1) => Value::Int(i64::MAX),
            (DataType::Int, 2) => Value::Int(i64::MIN),
            (DataType::Date, 1) => Value::Date(AppDate::MAX),
            (DataType::Date, 2) => Value::Date(AppDate::MIN),
            (DataType::SysTime, 1) => Value::SysTime(SysTime::MAX),
            (DataType::SysTime, 2) => Value::SysTime(SysTime(0)),
            (DataType::Int, _) => Value::Int(int(i64::MAX as i128) as i64),
            (DataType::Date, _) => Value::Date(AppDate(int(i64::MAX as i128) as i64)),
            (DataType::SysTime, _) => {
                let base = [0, 1_000, 1 << 40, u128::MAX][base];
                let base = base.min(u64::MAX as u128 - 1 - span);
                Value::SysTime(SysTime((base + off) as u64))
            }
            (DataType::Str, _) => Value::str(format!("s{}", off % 600)),
        }
    }

    /// Equal cells, doubles bit for bit.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    /// The frame a sealed cell of `v` needs, as a signed image: `None` for
    /// NULL and the open end, which the top code stands for.
    fn image(t: &ColumnTable, col: usize, v: &Value) -> Option<i128> {
        match v {
            Value::Int(x) | Value::Date(AppDate(x)) => (*x != i64::MAX).then_some(*x as i128),
            Value::SysTime(SysTime(x)) => (*x != u64::MAX).then_some(*x as i128),
            Value::Str(s) => t.dicts[col].find(s, hash_one(&**s)).ok().map(i128::from),
            _ => None,
        }
    }

    /// Checks `t` cell by cell against `model`.
    fn check(t: &ColumnTable, model: &[Vec<Value>]) -> std::result::Result<(), String> {
        if t.len() != model.len() {
            return Err(format!("{} rows, model {}", t.len(), model.len()));
        }
        for (row, cells) in model.iter().enumerate() {
            for (col, want) in cells.iter().enumerate() {
                let got = t.get_value(col, row);
                if !same(&got, want) {
                    return Err(format!("row {row} col {col}: {got:?}, model {want:?}"));
                }
            }
        }
        Ok(())
    }

    /// Each packed column of `t`'s main against the narrowest width for
    /// the span of its model cells.
    fn check_narrowest(t: &ColumnTable, model: &[Vec<Value>]) -> std::result::Result<(), String> {
        for (col, got) in widths(t).into_iter().enumerate() {
            if t.schema.column(col).dtype == DataType::Double {
                continue;
            }
            let images = model.iter().filter_map(|r| image(t, col, &r[col]));
            let bounds = images.fold(None, |b: Option<(i128, i128)>, x| {
                Some(b.map_or((x, x), |(lo, hi)| (lo.min(x), hi.max(x))))
            });
            let span = bounds.map_or(0, |(lo, hi)| (hi - lo) as u128);
            if got != narrowest(span) {
                return Err(format!("col {col}: {got} B for span {span}"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// Two tables of every column type under interleaved appends,
        /// merges, splits one into the other and in-place writes — NULLs,
        /// open ends, `i64::MIN`, frame ends and writes far outside a
        /// frame included — read back every cell of a plain `Vec<Value>`
        /// model after every op. A merge that sealed rows leaves each
        /// packed column at the narrowest width for its cells; one that
        /// sealed none leaves main exactly as it was.
        #[test]
        fn packed_columns_match_a_value_model(
            frames in proptest::collection::vec((0usize..16, 0usize..4), 5..6),
            ops in proptest::collection::vec(
                (0u8..16, proptest::prelude::any::<u64>(), 0u8..2),
                1..160,
            ),
        ) {
            let schema = schema();
            let dtypes: Vec<DataType> = schema.columns().iter().map(|c| c.dtype).collect();
            let mut tables = [ColumnTable::new(schema.clone()), ColumnTable::new(schema)];
            let mut models: [Vec<Vec<Value>>; 2] = [Vec::new(), Vec::new()];
            for (kind, r, x) in ops {
                let (x, y) = (x as usize, 1 - x as usize);
                match kind {
                    0..=7 => {
                        let row: Vec<Value> = dtypes
                            .iter()
                            .enumerate()
                            .map(|(c, &d)| cell(d, frames[c], mix(r ^ c as u64), true))
                            .collect();
                        tables[x].append_row(&Row::new(row.clone())).unwrap();
                        models[x].push(row);
                    }
                    8 | 9 => {
                        let before = tables[x].main.clone();
                        let sealed = tables[x].delta_len();
                        tables[x].merge();
                        if sealed == 0 {
                            proptest::prop_assert!(tables[x].main == before, "empty merge re-packed");
                        } else {
                            let narrow = check_narrowest(&tables[x], &models[x]);
                            proptest::prop_assert!(narrow.is_ok(), "{:?}", narrow);
                        }
                        proptest::prop_assert_eq!(tables[x].spare_bytes(), 0);
                    }
                    10 => {
                        let fate: Vec<RowFate> = (0..models[x].len() as u64)
                            .map(|i| [RowFate::Keep, RowFate::Move, RowFate::Drop][(mix(r ^ i) % 3) as usize])
                            .collect();
                        let [a, b] = &mut tables;
                        let (from, to) = if x == 0 { (a, b) } else { (b, a) };
                        from.split_off(&fate, to);
                        let rows = std::mem::take(&mut models[x]);
                        for (row, f) in rows.into_iter().zip(&fate) {
                            match f {
                                RowFate::Keep => models[x].push(row),
                                RowFate::Move => models[y].push(row),
                                RowFate::Drop => {}
                            }
                        }
                    }
                    _ if models[x].is_empty() => {}
                    _ => {
                        let row = (mix(r) % models[x].len() as u64) as usize;
                        let col = (r % 5) as usize;
                        let v = cell(dtypes[col], frames[col], mix(r ^ 0xabc), false);
                        tables[x].set_value(col, row, &v).unwrap();
                        models[x][row][col] = v;
                    }
                }
                for t in 0..2 {
                    let checked = check(&tables[t], &models[t]);
                    proptest::prop_assert!(checked.is_ok(), "table {}: {:?}", t, checked);
                }
            }
        }
    }
}
