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
//! Every cell is stored as its raw `u64` image: an `Int` or `Date` with its
//! sign bit flipped, a `SysTime` as it is, a string as its dictionary code
//! and a `Double` as its bits. NULL and every type's `MAX` share the image
//! `u64::MAX`; a lazily allocated null mask per column tells NULL apart.
//! Every column of both fragments is one frame of reference (`Packed`): a
//! base plus one code per row. The delta's frame is its type's natural
//! width from base 0 — 4 bytes for string codes, 8 for every other image —
//! and a merge seals it into main at the narrowest of 1, 2, 4 or 8 bytes
//! that spans the column's images.

use bitempo_core::hash::hash_one;
use bitempo_core::time::{AppDate, SysTime};
use bitempo_core::{DataType, Error, Result, Row, Schema, Value};
use std::sync::Arc;

/// The image NULL and every type's `MAX` (an open period's end) share. The
/// top code of every width stands for it, so it never widens a frame.
const TOP: u64 = u64::MAX;

/// The bit an `Int` or `Date` image flips, so that images order as values.
const SIGN: u64 = 1 << 63;

const _: () = assert!(AppDate::MAX.0 == i64::MAX && SysTime::MAX.0 == TOP);

/// Whether a column of `dtype` takes `value`: NULL, a value of its type or
/// an `Int` into a `Double` column.
fn takes(dtype: DataType, value: &Value) -> bool {
    value
        .data_type()
        .is_none_or(|t| t == dtype || (t, dtype) == (DataType::Int, DataType::Double))
}

/// The raw image of `value` in a column of `dtype`, a string coded in
/// `dict`; `None` when the column does not take it.
fn raw_of(dtype: DataType, value: &Value, dict: &mut Dictionary) -> Option<u64> {
    Some(match (dtype, value) {
        (_, Value::Null) => TOP,
        (DataType::Int, Value::Int(x)) | (DataType::Date, Value::Date(AppDate(x))) => {
            *x as u64 ^ SIGN
        }
        (DataType::SysTime, Value::SysTime(t)) => t.0,
        (DataType::Str, Value::Str(s)) => u64::from(dict.encode(s)),
        (DataType::Double, Value::Double(x)) => x.to_bits(),
        (DataType::Double, Value::Int(x)) => (*x as f64).to_bits(),
        _ => return None,
    })
}

/// The value of the non-NULL cell whose image is `raw` in a column of
/// `dtype` coded in `dict`.
fn value_of(dtype: DataType, raw: u64, dict: &Dictionary) -> Value {
    match dtype {
        DataType::Int => Value::Int((raw ^ SIGN) as i64),
        DataType::Date => Value::Date(AppDate((raw ^ SIGN) as i64)),
        DataType::SysTime => Value::SysTime(SysTime(raw)),
        DataType::Str => Value::Str(Arc::clone(dict.decode(raw as u32))),
        DataType::Double => Value::Double(f64::from_bits(raw)),
    }
}

/// One code width. Its top code stands for [`TOP`]; every other code is an
/// offset from the frame's base.
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

/// The code of `raw` in the frame at `base`, if the frame holds it.
fn encode<C: Code>(base: u64, raw: u64) -> Option<C> {
    if raw == TOP {
        return Some(C::TOP);
    }
    let offset = raw.checked_sub(base)?;
    (offset < C::TOP.widen()).then(|| C::narrow(offset))
}

/// The code of `raw` in a frame at `base` known to hold it.
fn encode_held<C: Code>(base: u64, raw: u64) -> C {
    if raw == TOP {
        C::TOP
    } else {
        C::narrow(raw - base)
    }
}

/// The image `code` stands for in the frame at `base`. Both candidates are
/// computed first so that the choice can compile to a select rather than a
/// branch on the data, which a column mixing open ends with other values
/// would make unpredictable.
fn decode<C: Code>(base: u64, code: C) -> u64 {
    let raw = base.wrapping_add(code.widen());
    if code == C::TOP {
        TOP
    } else {
        raw
    }
}

/// One column of one fragment as a frame of reference: cell `i`'s image is
/// `base + codes[i]`, or `TOP` where the code is its width's top one. A
/// delta column stays at its type's natural width from base 0, which holds
/// every image. A merge packs the delta onto the end of main at the
/// narrowest frame that holds both, re-coding main only when that frame
/// differs from its own; a write outside the frame re-packs the column.
#[derive(Debug, Clone, PartialEq)]
struct Packed {
    base: u64,
    codes: Codes,
}

impl Packed {
    /// An empty column of type `dtype` at its natural width: dictionary
    /// codes in 4 bytes, every other image in 8.
    fn new(dtype: DataType) -> Packed {
        let codes = match dtype {
            DataType::Str => Codes::U32(Vec::new()),
            _ => Codes::U64(Vec::new()),
        };
        Packed { base: 0, codes }
    }

    fn len(&self) -> usize {
        each_width!(&self.codes, v => v.len())
    }

    fn get(&self, pos: usize) -> u64 {
        each_width!(&self.codes, v => decode(self.base, v[pos]))
    }

    fn raws(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(|pos| self.get(pos))
    }

    /// The bounds of the column's images, from their codes.
    fn bounds(&self) -> Bounds {
        each_width!(&self.codes, v => code_bounds(self.base, v))
    }

    /// Makes room for exactly `rows` more cells.
    fn reserve_exact(&mut self, rows: usize) {
        each_width!(&mut self.codes, v => v.reserve_exact(rows))
    }

    /// Appends the image `raw`, which the frame holds.
    fn push(&mut self, raw: u64) {
        let base = self.base;
        each_width!(&mut self.codes, v => v.push(encode_held(base, raw)))
    }

    /// Appends the images `raws`, which the frame holds.
    fn extend(&mut self, raws: impl Iterator<Item = u64>) {
        let base = self.base;
        each_width!(&mut self.codes, v => push_codes(v, base, raws))
    }

    /// Appends the cells of `src`, whose images the frame holds, choosing
    /// both widths once rather than per cell.
    fn extend_from(&mut self, src: &Packed) {
        let from = src.base;
        each_width!(&src.codes, s => self.extend(s.iter().map(|&c| decode(from, c))))
    }

    /// Overwrites cell `pos`, re-packing the column first when its frame
    /// does not hold `raw`.
    fn set(&mut self, pos: usize, raw: u64) {
        let base = self.base;
        let held =
            each_width!(&mut self.codes, v => encode(base, raw).map(|c| v[pos] = c).is_some());
        if !held {
            self.repack(union(self.bounds(), Some((raw, raw))), 0);
            let base = self.base;
            each_width!(&mut self.codes, v => v[pos] = encode_held(base, raw));
        }
    }

    /// Appends `delta`'s cells at the narrowest frame that holds them and
    /// the column's, leaving no spare capacity; an empty delta leaves the
    /// column as it is.
    fn seal(&mut self, delta: &Packed) {
        if delta.len() == 0 {
            return;
        }
        let bounds = union(self.bounds(), delta.bounds());
        let frame = frame(bounds, 0);
        if frame.base != self.base || frame.codes.width() != self.codes.width() {
            self.repack(bounds, delta.len());
        } else {
            self.reserve_exact(delta.len());
        }
        self.extend_from(delta);
    }

    /// Re-codes the column at the narrowest frame over `bounds`, which
    /// holds it, with room for exactly `more` cells after it.
    fn repack(&mut self, bounds: Bounds, more: usize) {
        let mut packed = frame(bounds, self.len() + more);
        packed.extend_from(self);
        *self = packed;
    }

    fn memory_bytes(&self) -> usize {
        each_width!(&self.codes, v => vec_bytes(v))
    }

    fn spare_bytes(&self) -> usize {
        each_width!(&self.codes, v => vec_spare(v))
    }
}

/// Appends the codes of `raws` in a frame at `base` known to hold them.
fn push_codes<C: Code>(codes: &mut Vec<C>, base: u64, raws: impl Iterator<Item = u64>) {
    codes.extend(raws.map(|raw| encode_held::<C>(base, raw)));
}

/// The bounds of the images `codes` stand for in the frame at `base`.
fn code_bounds<C: Code>(base: u64, codes: &[C]) -> Bounds {
    let offsets = codes.iter().filter(|&&c| c != C::TOP).map(|&c| c.widen());
    bounds_of(offsets).map(|(lo, hi)| (base + lo, base + hi))
}

/// The empty frame over `bounds`, with room for `rows`: the narrowest width
/// whose codes below the top one span them, based at their low end — or at
/// 0 for 8-byte codes, which hold every image, so that an 8-byte delta
/// seals onto an 8-byte main in place.
fn frame(bounds: Bounds, rows: usize) -> Packed {
    let (lo, hi) = bounds.unwrap_or((0, 0));
    let codes = Codes::for_span(hi - lo, rows);
    let base = if codes.width() == 8 { 0 } else { lo };
    Packed { base, codes }
}

/// Seals a delta null mask onto the end of a main one, leaving main with
/// no spare capacity and releasing the delta's: an empty main *becomes* the
/// delta (moved, not copied), a non-empty one grows by exactly the delta's
/// length.
fn seal(main: &mut Vec<bool>, mut delta: Vec<bool>) {
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
    main: Vec<Packed>,
    delta: Vec<Packed>,
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
        let empty = || schema.columns().iter().map(|c| Packed::new(c.dtype));
        let (main, delta) = (empty().collect(), empty().collect());
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
        self.delta.first().map_or(0, Packed::len)
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
    /// hidden period cells this way); returns its stable row id. Every
    /// cell is checked against its column's type before any is appended,
    /// so a refused row leaves the table as it was.
    pub fn append_cells(&mut self, head: &[Value], tail: &[Value]) -> Result<usize> {
        let arity = head.len() + tail.len();
        if arity != self.schema.arity() {
            return Err(Error::Invalid(format!(
                "row arity {arity} vs schema arity {}",
                self.schema.arity()
            )));
        }
        let columns = self.schema.columns();
        let cells = || head.iter().chain(tail).zip(columns).enumerate();
        if let Some((col, (value, _))) = cells().find(|(_, (v, c))| !takes(c.dtype, v)) {
            return Err(self.mismatch(col, value));
        }
        let delta_pos = self.delta_len();
        for (col, (value, column)) in cells() {
            push_null_flag(&mut self.delta_nulls[col], delta_pos, value.is_null());
            let raw = raw_of(column.dtype, value, &mut self.dicts[col]);
            self.delta[col].push(raw.expect("a type-checked cell"));
        }
        Ok(self.main_len + delta_pos)
    }

    fn mismatch(&self, col: usize, value: &Value) -> Error {
        Error::TypeMismatch {
            expected: format!("{:?}", self.schema.column(col).dtype),
            found: format!("{value:?}"),
        }
    }

    /// Reads one cell. Inlined into callers in other crates: System C's
    /// scans call it once per cell they test, and an out-of-line call
    /// measured 7.4 ns per delta cell against 4.4 ns inlined (2-core x86
    /// host, 20 000 rows of five integer-like columns).
    #[inline]
    pub fn get_value(&self, col: usize, row: usize) -> Value {
        let (fragment, nulls, pos) = match row.checked_sub(self.main_len) {
            None => (&self.main[col], &self.main_nulls[col], row),
            Some(pos) => (&self.delta[col], &self.delta_nulls[col], pos),
        };
        if is_null(nulls, pos) {
            return Value::Null;
        }
        let dtype = self.schema.column(col).dtype;
        value_of(dtype, fragment.get(pos), &self.dicts[col])
    }

    /// Overwrites one cell with a value other than NULL, in place (used by
    /// the engine to close the system period of a superseded version — the
    /// only in-place write a column store performs). The cell is encoded in
    /// its column's frame; a sealed value outside it re-packs that column.
    pub fn set_value(&mut self, col: usize, row: usize, value: &Value) -> Result<()> {
        let raw = match value {
            Value::Null => None,
            value => raw_of(self.schema.column(col).dtype, value, &mut self.dicts[col]),
        };
        let raw = raw.ok_or_else(|| self.mismatch(col, value))?;
        let (fragment, nulls, pos) = match row.checked_sub(self.main_len) {
            None => (&mut self.main[col], &mut self.main_nulls[col], row),
            Some(pos) => (&mut self.delta[col], &mut self.delta_nulls[col], pos),
        };
        fragment.set(pos, raw);
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
            let empty = Packed::new(self.schema.column(col).dtype);
            let delta = std::mem::replace(&mut self.delta[col], empty);
            self.main[col].seal(&delta);
            self.dicts[col].strings.shrink_to_fit();
        }
        self.main_len += delta_rows;
    }

    /// Splits the table by `fate`, one per row: the kept rows become the
    /// whole table, renumbered densely in their order; the moved rows are
    /// appended to `to`'s delta in their order; the dropped rows are gone.
    /// Works one column at a time on the packed codes — the kept column is
    /// built, the moved cells appended to `to`, and the source column
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
            self.main[col] = Packed::new(dtype);
            self.delta[col] = Packed::new(dtype);
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
        let is_str = self.schema.column(col).dtype == DataType::Str;
        let (from, into) = (&src.dicts[col], &mut self.dicts[col]);
        // Old code → new code, `VACANT` until first used.
        let mut codes = vec![VACANT; from.strings.len()];
        let mut recode = |raw: u64| {
            if !is_str || raw == TOP {
                return raw;
            }
            let new = &mut codes[raw as usize];
            if *new == VACANT {
                *new = into.encode(from.decode(raw as u32));
            }
            u64::from(*new)
        };
        let cells = src.main[col].raws().chain(src.delta[col].raws()).zip(fate);
        let picked = cells
            .filter(|(_, f)| **f == want)
            .map(|(raw, _)| recode(raw));
        let dest = &mut self.delta[col];
        dest.reserve_exact(fate.iter().filter(|&&f| f == want).count());
        dest.extend(picked);
        let nulls = &mut self.delta_nulls[col];
        if nulls.is_some() || src.main_nulls[col].is_some() || src.delta_nulls[col].is_some() {
            let rows = (0..fate.len()).filter(|&row| fate[row] == want);
            for (i, row) in rows.enumerate() {
                push_null_flag(nulls, base + i, src.get_value(col, row).is_null());
            }
        }
    }

    /// Bytes of capacity past the length of the fragments' codes and null
    /// masks and of the dictionaries' vectors: zero after a
    /// [`ColumnTable::merge`].
    pub fn spare_bytes(&self) -> usize {
        let masks = self.main_nulls.iter().chain(&self.delta_nulls);
        let dicts = self.dicts.iter();
        self.main
            .iter()
            .chain(&self.delta)
            .map(Packed::spare_bytes)
            .sum::<usize>()
            + masks.flatten().map(vec_spare).sum::<usize>()
            + dicts
                .map(|d| vec_spare(&d.strings) + vec_spare(&d.slots))
                .sum::<usize>()
    }

    /// Bytes the table holds, by capacity: both fragments' codes and null
    /// masks, and the dictionaries.
    pub fn memory_bytes(&self) -> usize {
        let masks = self.main_nulls.iter().chain(&self.delta_nulls);
        self.main
            .iter()
            .chain(&self.delta)
            .map(Packed::memory_bytes)
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
        let delta_bytes: usize = t.delta.iter().map(Packed::memory_bytes).sum();
        assert_eq!(delta_bytes, 0, "the delta holds no capacity after a merge");
        assert_eq!(t.spare_bytes(), 0, "nor does any other vector");
        assert!(t.delta_nulls.iter().all(Option::is_none));
        // Per row: a 2-byte id (13 000 ids), a 1-byte name code (50
        // names), a 1-byte price (one value), 2-byte dates and system
        // times.
        assert_eq!(widths(&t), [2, 1, 1, 2, 2]);
        let payload = (n + m) as usize * (2 + 1 + 1 + 2 + 2);
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
            let columns = t.main.iter().chain(&t.delta);
            columns.map(Packed::memory_bytes).collect()
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
        // A `Double` column takes an `Int`, as an append does; no column
        // takes a NULL in place.
        t.set_value(2, 0, &Value::Int(3)).unwrap();
        assert_eq!(t.get_value(2, 0), Value::Double(3.0));
        assert!(t.set_value(2, 0, &Value::Null).is_err());
    }

    /// A row refused at a late cell appends none of its earlier ones: the
    /// length, every fragment, every mask and the dictionary stay as they
    /// were.
    #[test]
    fn a_refused_row_leaves_the_table_as_it_was() {
        let ints = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]);
        let mut t = ColumnTable::new(ints);
        assert!(t
            .append_row(&Row::new(vec![Value::Int(1), Value::str("x")]))
            .is_err());
        assert!(t.is_empty());

        let mut t = ColumnTable::new(schema());
        for i in 0..4 {
            t.append_row(&row(i, "a", 1.0)).unwrap();
        }
        t.merge();
        t.append_row(&row(4, "b", 2.0)).unwrap();
        let (before, bytes) = (t.clone(), t.memory_bytes());
        // A NULL id would start a mask and a new name a code before the
        // string price is refused.
        let bad = [
            Value::Null,
            Value::str("new"),
            Value::str("9.99"),
            Value::Date(AppDate(1)),
            Value::SysTime(SysTime(1)),
        ];
        let refused = t.append_cells(&bad[..2], &bad[2..]);
        assert!(
            matches!(refused, Err(Error::TypeMismatch { .. })),
            "{refused:?}"
        );
        assert_eq!(t.len(), 5);
        assert_eq!(
            (t.main_len, &t.main, &t.delta),
            (4, &before.main, &before.delta)
        );
        assert_eq!(t.main_nulls, before.main_nulls);
        assert_eq!(t.delta_nulls, before.delta_nulls);
        assert_eq!(t.dicts, before.dicts);
        assert_eq!(t.memory_bytes(), bytes, "nothing allocated");
        assert_eq!(t.get_row(4), row(4, "b", 2.0));
    }

    /// A double's image is its bits: a column of one value and NULLs seals
    /// at one byte, a price-like one at eight, and both read back bit for
    /// bit — `-0.0`, a NaN payload and the all-ones NaN, whose image is the
    /// top code's, included — across a re-code and an in-place seal.
    #[test]
    fn doubles_pack_by_their_bits() {
        let schema = Schema::new(vec![
            Column::new("flat", DataType::Double),
            Column::new("price", DataType::Double),
        ]);
        let prices = [
            901.0,
            -0.0,
            0.0,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::INFINITY,
            0.07,
            f64::from_bits(u64::MAX),
            1.5e-300,
        ];
        let flat = |i: usize| {
            if i % 3 == 1 {
                Value::Null
            } else {
                Value::Double(0.25)
            }
        };
        let mut t = ColumnTable::new(schema);
        for (i, &p) in prices.iter().enumerate() {
            t.append_row(&Row::new(vec![flat(i), Value::Double(p)]))
                .unwrap();
            if i == 4 {
                t.merge();
            }
        }
        t.merge();
        assert_eq!(widths(&t), [1, 8]);
        for (i, &p) in prices.iter().enumerate() {
            assert!(same(&t.get_value(0, i), &flat(i)), "row {i}");
            assert!(same(&t.get_value(1, i), &Value::Double(p)), "row {i}");
        }
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
        t.main.iter().map(|p| p.codes.width()).collect()
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
    /// NULL and the open end, which the top code stands for. A double's
    /// image is its bits.
    fn image(t: &ColumnTable, col: usize, v: &Value) -> Option<i128> {
        match v {
            Value::Int(x) | Value::Date(AppDate(x)) => (*x != i64::MAX).then_some(*x as i128),
            Value::SysTime(SysTime(x)) => (*x != u64::MAX).then_some(*x as i128),
            Value::Double(x) => (x.to_bits() != u64::MAX).then_some(x.to_bits() as i128),
            Value::Str(s) => t.dicts[col].find(s, hash_one(&**s)).ok().map(i128::from),
            Value::Null => None,
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

    /// Each column of `t`'s main against the narrowest width for the span
    /// of its model cells.
    fn check_narrowest(t: &ColumnTable, model: &[Vec<Value>]) -> std::result::Result<(), String> {
        for (col, got) in widths(t).into_iter().enumerate() {
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
