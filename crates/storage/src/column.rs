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

use bitempo_core::hash::hash_one;
use bitempo_core::time::{AppDate, SysTime};
use bitempo_core::{DataType, Error, Result, Row, Schema, Value};
use std::sync::Arc;

/// One column's typed payload. `u32::MAX` is the dictionary code for NULL;
/// numeric columns carry a separate null mask only when NULLs appear.
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

    /// Seals `delta` onto the end of this main payload (see [`seal`]).
    fn seal_from(&mut self, delta: ColumnData) {
        match (self, delta) {
            (ColumnData::Int(a), ColumnData::Int(b)) => seal(a, b),
            (ColumnData::Double(a), ColumnData::Double(b)) => seal(a, b),
            (ColumnData::Str(a), ColumnData::Str(b)) => seal(a, b),
            (ColumnData::Date(a), ColumnData::Date(b)) => seal(a, b),
            (ColumnData::SysTime(a), ColumnData::SysTime(b)) => seal(a, b),
            _ => unreachable!("merge between differently-typed columns"),
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
    (main, delta): (&[T], &[T]),
    (fate, want): (&[RowFate], RowFate),
    mut map: impl FnMut(T) -> T,
) {
    dest.reserve_exact(fate.iter().filter(|&&f| f == want).count());
    let cells = main.iter().chain(delta).zip(fate);
    dest.extend(cells.filter(|(_, f)| **f == want).map(|(&x, _)| map(x)));
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
    main: Vec<ColumnData>,
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
            .map(|c| ColumnData::new(c.dtype))
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
            (ColumnData::Int(v), Value::Null) => v.push(0),
            (ColumnData::Double(v), Value::Double(x)) => v.push(*x),
            (ColumnData::Double(v), Value::Int(x)) => v.push(*x as f64),
            (ColumnData::Double(v), Value::Null) => v.push(0.0),
            (ColumnData::Str(v), Value::Str(s)) => {
                let code = self.dicts[col].encode(s);
                v.push(code);
            }
            (ColumnData::Str(v), Value::Null) => v.push(NULL_CODE),
            (ColumnData::Date(v), Value::Date(d)) => v.push(d.0),
            (ColumnData::Date(v), Value::Null) => v.push(0),
            (ColumnData::SysTime(v), Value::SysTime(t)) => v.push(t.0),
            (ColumnData::SysTime(v), Value::Null) => v.push(0),
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
        let (data, nulls, pos) = if row < self.main_len {
            (&self.main[col], &self.main_nulls[col], row)
        } else {
            (
                &self.delta[col],
                &self.delta_nulls[col],
                row - self.main_len,
            )
        };
        if let Some(mask) = nulls {
            if mask.get(pos).copied().unwrap_or(false) {
                return Value::Null;
            }
        }
        match data {
            ColumnData::Int(v) => Value::Int(v[pos]),
            ColumnData::Double(v) => Value::Double(v[pos]),
            ColumnData::Str(v) => {
                let code = v[pos];
                if code == NULL_CODE {
                    Value::Null
                } else {
                    Value::Str(Arc::clone(self.dicts[col].decode(code)))
                }
            }
            ColumnData::Date(v) => Value::Date(AppDate(v[pos])),
            ColumnData::SysTime(v) => Value::SysTime(SysTime(v[pos])),
        }
    }

    /// Overwrites one cell in place (used by the engine to close the system
    /// period of a superseded version — the only in-place write a column
    /// store performs).
    pub fn set_value(&mut self, col: usize, row: usize, value: &Value) -> Result<()> {
        let main_len = self.main_len;
        let (data, nulls, pos) = if row < main_len {
            (&mut self.main[col], &mut self.main_nulls[col], row)
        } else {
            (
                &mut self.delta[col],
                &mut self.delta_nulls[col],
                row - main_len,
            )
        };
        match (data, value) {
            (ColumnData::Int(v), Value::Int(x)) => v[pos] = *x,
            (ColumnData::Double(v), Value::Double(x)) => v[pos] = *x,
            (ColumnData::Date(v), Value::Date(d)) => v[pos] = d.0,
            (ColumnData::SysTime(v), Value::SysTime(t)) => v[pos] = t.0,
            (ColumnData::Str(v), Value::Str(s)) => {
                let code = self.dicts[col].encode(s);
                v[pos] = code;
            }
            (_, v) => {
                return Err(Error::TypeMismatch {
                    expected: format!("{:?}", self.schema.column(col).dtype),
                    found: format!("{v:?}"),
                })
            }
        }
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
    /// holding exactly its rows, the delta's buffers and null masks are
    /// released, not kept for the next delta, and each dictionary's strings
    /// are held at their count. Row ids are unchanged.
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
            self.main[col] = ColumnData::new(dtype);
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
            (ColumnData::Int(d), ColumnData::Int(m), ColumnData::Int(t)) => {
                extend_picked(d, (m, t), picked, |x| x)
            }
            (ColumnData::Double(d), ColumnData::Double(m), ColumnData::Double(t)) => {
                extend_picked(d, (m, t), picked, |x| x)
            }
            (ColumnData::Date(d), ColumnData::Date(m), ColumnData::Date(t)) => {
                extend_picked(d, (m, t), picked, |x| x)
            }
            (ColumnData::SysTime(d), ColumnData::SysTime(m), ColumnData::SysTime(t)) => {
                extend_picked(d, (m, t), picked, |x| x)
            }
            (ColumnData::Str(d), ColumnData::Str(m), ColumnData::Str(t)) => {
                let (from, into) = (&src.dicts[col], &mut self.dicts[col]);
                // Old code → new code, `NULL_CODE` until first used.
                let mut codes = vec![NULL_CODE; from.strings.len()];
                extend_picked(d, (m, t), picked, |code| match code {
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
        let payload = self.main.iter().chain(&self.delta);
        let masks = self.main_nulls.iter().chain(&self.delta_nulls);
        let dicts = self.dicts.iter();
        payload.map(ColumnData::spare_bytes).sum::<usize>()
            + masks.flatten().map(vec_spare).sum::<usize>()
            + dicts
                .map(|d| vec_spare(&d.strings) + vec_spare(&d.slots))
                .sum::<usize>()
    }

    /// Bytes the table holds, by capacity: both fragments' payload vectors
    /// and null masks, and the dictionaries.
    pub fn memory_bytes(&self) -> usize {
        let payload = self.main.iter().chain(&self.delta);
        let masks = self.main_nulls.iter().chain(&self.delta_nulls);
        payload.map(ColumnData::memory_bytes).sum::<usize>()
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
        // Four 8-byte columns and one 4-byte dictionary code per row.
        let payload = (n + m) as usize * (4 * 8 + 4);
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
            let data = t.main.iter().chain(&t.delta);
            data.map(ColumnData::memory_bytes).collect()
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
}
