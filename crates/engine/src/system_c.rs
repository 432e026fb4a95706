//! System C: an in-memory column store with native system time only.
//!
//! Archetype (paper §2.6 — the SAP HANA "history table"): a columnar table
//! with hidden `validfrom` / `validto` columns tracking system time; data is
//! horizontally partitioned into a *current* partition and a *history*
//! partition, and a **merge** operation moves superseded records from
//! current to history. Time travel recomputes the snapshot by scanning both
//! partitions. There is *no native application time* — the benchmark's
//! application periods are plain date columns, filtered like any value
//! predicate (paper §3.1: simulated application time).
//!
//! System C "relies much more on scans, and is thus not as sensitive to plan
//! changes as the RDBMSs" (§5.4.1): accordingly, tuning requests are
//! accepted (the paper's team built B-Trees on System C too, Fig 3) but no
//! B-Tree is kept or offered to the scan path — which is exactly what the
//! paper measured. Each partition's `PartIndexes` holds at most a temporal
//! index, the one structure System C consults.
//!
//! Sequenced DML finds a key's open rows through the same system PK index
//! Systems A and B keep (`partindex::system_pk_index`), maintained on append
//! and close and rebuilt in bulk by the delta merge, which renumbers row
//! ids. It is DML bookkeeping only: no partition view ever offers it to the
//! planner.

use crate::api::{AppSpec, ColRange, KeyStructuresFootprint, SysSpec, TableStats, TuningConfig};
use crate::index::{IndexSource, OrderedIndex};
use crate::partindex::{
    built_pk_index, open_slots_in, system_pk_index, tindex_name, Part, PartIndexes,
};
use crate::rowscan::{PartitionView, VersionSource};
use crate::shell::{Engine, TableLayout};
use crate::version::Version;
use bitempo_core::hash::FxHashSet;
use bitempo_core::{
    AppPeriod, Column, DataType, Error, Key, Result, Row, Schema, SysPeriod, SysTime, TableDef,
    Value,
};
use bitempo_storage::{ColumnTable, RowFate};
use bitempo_tindex::TemporalIndex;
use std::ops::Range;

/// The System C engine. See module docs.
pub type SystemC = Engine<TableC>;

/// System C's table layout. See module docs.
#[derive(Debug)]
pub struct TableC {
    /// Current partition (delta + main inside [`ColumnTable`]).
    current: ColumnTable,
    /// History partition.
    history: ColumnTable,
    /// Where the hidden temporal columns sit in both partitions' schema.
    hidden: HiddenCols,
    /// Open versions per key (row ids in `current`), for sequenced DML
    /// only; absent on a table without key columns. See module docs.
    pk: Option<OrderedIndex>,
    /// Rows in `current` that must never be surfaced (non-temporal deletes
    /// and versions that died inside their creating transaction).
    dead: FxHashSet<usize>,
    /// Closed-but-unmerged row count (merge trigger bookkeeping).
    closed_in_current: usize,
    /// The current partition's temporal index, if tuned. Rebuilt at every
    /// delta merge (the merge renumbers rowids), maintained in place between
    /// merges as rows are appended and their `$validto` terminated.
    pub(crate) cur: PartIndexes,
    /// The history partition's temporal index, if tuned, maintained as the
    /// merge appends superseded records. The paper's System C had no such
    /// structure; the `temporal-index` experiment measures what one would
    /// have bought it.
    pub(crate) hist: PartIndexes,
}

/// Positions of the hidden temporal columns within the physical schema.
#[derive(Debug, Clone, Copy)]
struct HiddenCols {
    app_start: Option<usize>,
    sys_start: Option<usize>,
}

/// The physical schema: the value columns, then the hidden period columns
/// in [`TableDef::scan_schema`]'s order — so a physical row *is* a scan
/// output row, laid out as [`Version::output_row`] lays one out.
fn physical_schema(def: &TableDef) -> (Schema, HiddenCols) {
    let mut cols = def.schema.columns().to_vec();
    let mut hidden = HiddenCols {
        app_start: None,
        sys_start: None,
    };
    if def.has_app_time() {
        hidden.app_start = Some(cols.len());
        cols.push(Column::new("$app_start", DataType::Date));
        cols.push(Column::new("$app_end", DataType::Date));
    }
    if def.has_system_time() {
        hidden.sys_start = Some(cols.len());
        cols.push(Column::new("$validfrom", DataType::SysTime));
        cols.push(Column::new("$validto", DataType::SysTime));
    }
    (Schema::new(cols), hidden)
}

impl HiddenCols {
    /// Physical row `rowid` of `part`, read through these hidden columns.
    fn row(self, part: &ColumnTable, rowid: usize) -> FragmentRow<'_> {
        FragmentRow {
            part,
            hidden: self,
            rowid,
        }
    }
}

/// Appends `version` to a fragment as its physical row: the value cells,
/// then the hidden period cells, with no [`Row`] built.
fn append_physical(part: &mut ColumnTable, hidden: HiddenCols, version: &Version) -> Result<u64> {
    let periods = [
        Value::Date(version.app.start),
        Value::Date(version.app.end),
        Value::SysTime(version.sys.start),
        Value::SysTime(version.sys.end),
    ];
    // Application time comes only with system time (bitemporal tables).
    let tail = match (hidden.app_start, hidden.sys_start) {
        (Some(_), _) => periods.as_slice(),
        (None, Some(_)) => periods.split_at(2).1,
        (None, None) => &[],
    };
    let rowid = part.append_cells(version.row.values(), tail)?;
    Ok(rowid as u64)
}

/// One physical row of a fragment, read cell by cell in place with no
/// [`Row`] or [`Version`] materialised: the one reader of a stored row, for
/// scans, the delta merge, the indexes and checkpoints alike. A period the
/// table does not store reads as `ALL` on its axis, as every layout stores
/// it.
struct FragmentRow<'a> {
    part: &'a ColumnTable,
    hidden: HiddenCols,
    rowid: usize,
}

impl FragmentRow<'_> {
    /// The stored version of a table with `arity` value columns.
    fn version(&self, arity: usize) -> Version {
        Version {
            row: (0..arity).map(|c| self.value(c)).collect(),
            app: self.app(),
            sys: self.sys(),
        }
    }
}

/// The hidden columns' types are fixed by [`physical_schema`] at table
/// creation, so decoding a period cell cannot fail.
impl IndexSource for FragmentRow<'_> {
    fn value(&self, col: usize) -> Value {
        self.part.get_value(col, self.rowid)
    }
    fn app(&self) -> AppPeriod {
        self.hidden.app_start.map_or(AppPeriod::ALL, |c| {
            let date = |col| {
                self.value(col)
                    .as_date()
                    // tblint: allow(TB004) hidden-column type is fixed by physical_schema at creation
                    .expect("date column")
            };
            AppPeriod::new(date(c), date(c + 1))
        })
    }
    fn sys(&self) -> SysPeriod {
        self.hidden.sys_start.map_or(SysPeriod::ALL, |c| {
            let time = |col| {
                self.value(col)
                    .as_sys_time()
                    // tblint: allow(TB004) hidden-column type is fixed by physical_schema at creation
                    .expect("systime column")
            };
            SysPeriod::new(time(c), time(c + 1))
        })
    }
}

/// The rows `rowids` of `part`, addressed by their row ids.
fn fragment_rows(
    part: &ColumnTable,
    hidden: HiddenCols,
    rowids: Range<usize>,
) -> impl Iterator<Item = (u64, FragmentRow<'_>)> {
    rowids.map(move |rowid| (rowid as u64, hidden.row(part, rowid)))
}

/// Rebuilds a temporal index over one column-store fragment from scratch
/// (tuning time, and after each delta merge renumbers the current rowids).
fn build_column_tindex(
    index_name: String,
    hidden: HiddenCols,
    part: &ColumnTable,
) -> TemporalIndex {
    TemporalIndex::build(
        index_name,
        bitempo_tindex::timeline::DEFAULT_CHECKPOINT_EVERY,
        fragment_rows(part, hidden, 0..part.len()).map(|(slot, row)| (slot, row.app(), row.sys())),
    )
}

/// One column-store fragment as a scan source. Column-store execution: the
/// temporal filter and the pushed predicates are evaluated on the *columns
/// they touch*, and a full row is materialized only for qualifying
/// positions — the scan discipline that makes System C "not as sensitive to
/// plan changes" (paper §5.4.1). The planner costs a fragment at its
/// physical length, dead rows included.
pub struct ColumnFragment<'a> {
    part: &'a ColumnTable,
    /// Rows never to surface (the current fragment's; history has none).
    dead: Option<&'a FxHashSet<usize>>,
    hidden: HiddenCols,
}

impl VersionSource for ColumnFragment<'_> {
    fn len(&self) -> usize {
        self.part.len()
    }
    /// Index candidates arrive as one-row ranges too, so the per-row check
    /// has this one call site and stays inlined into the loop (a second one
    /// measured 7–17 % slower key-predicate scans).
    fn scan_range(
        &self,
        range: Range<usize>,
        _: &TableDef,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
        out: &mut Vec<Row>,
    ) -> u64 {
        let mut judged = 0;
        for (_, row) in fragment_rows(self.part, self.hidden, range) {
            if self.dead.is_some_and(|d| d.contains(&row.rowid)) {
                continue;
            }
            judged += 1;
            if sys.matches(&row.sys())
                && app.matches(&row.app())
                && preds.iter().all(|p| p.matches(&row.value(p.col)))
            {
                #[cfg(test)]
                tests::MATERIALISED.with(|n| n.set(n.get() + 1));
                // The physical row is the scan-output row.
                out.push(self.part.get_row(row.rowid));
            }
        }
        judged
    }
}

impl TableC {
    /// Open versions: every row of `current` but the closed and the dead
    /// ones (a close does exactly one of the two; the merge clears both).
    fn open_versions(&self) -> usize {
        self.current.len() - self.closed_in_current - self.dead.len()
    }

    /// What the delta merge does with row `rowid` of `current`: keeps it
    /// while its system period is open, moves it to history once closed,
    /// drops it if dead.
    fn fate(&self, rowid: usize) -> RowFate {
        if self.dead.contains(&rowid) {
            RowFate::Drop
        } else if self.hidden.row(&self.current, rowid).sys().is_current() {
            RowFate::Keep
        } else {
            RowFate::Move
        }
    }
}

impl TableLayout for TableC {
    const NAME: &'static str = "System C";
    const ARCHITECTURE: &'static str =
        "in-memory column store; delta/main fragments; hidden validfrom/validto system-time \
         columns; merge moves superseded records to a history partition; application time \
         simulated with plain columns; scan-based execution, indexes unused";

    fn new(def: &TableDef) -> TableC {
        let (phys, hidden) = physical_schema(def);
        TableC {
            current: ColumnTable::new(phys.clone()),
            history: ColumnTable::new(phys),
            hidden,
            pk: system_pk_index(def),
            dead: FxHashSet::default(),
            closed_in_current: 0,
            cur: PartIndexes::default(),
            hist: PartIndexes::default(),
        }
    }

    fn open_slots(&self, key: &Key) -> Vec<u64> {
        open_slots_in(self.pk.as_ref(), key, || {
            (0..self.current.len())
                .filter(|&rowid| self.fate(rowid) == RowFate::Keep)
                .map(|rowid| rowid as u64)
                .collect()
        })
    }

    fn peek(&self, def: &TableDef, slot: u64) -> Option<Version> {
        let rowid = slot as usize;
        if rowid >= self.current.len() || self.dead.contains(&rowid) {
            return None;
        }
        Some(
            self.hidden
                .row(&self.current, rowid)
                .version(def.schema.arity()),
        )
    }

    /// Terminates the row's `$validto` in place; the merge archives it.
    /// Reads only the key and period cells: no version is materialised.
    fn close(&mut self, _: &TableDef, slot: u64, end: SysTime) -> Result<()> {
        let rowid = slot as usize;
        if rowid >= self.current.len() || self.dead.contains(&rowid) {
            return Err(Error::Internal(format!(
                "closing row {rowid} with no live version"
            )));
        }
        let row = self.hidden.row(&self.current, rowid);
        if let Some(pk) = &mut self.pk {
            pk.remove(&row, slot);
        }
        let never_visible = row.sys().start >= end;
        // `sys_start` is `Some` exactly when the table is system-versioned.
        match self.hidden.sys_start {
            Some(c) if !never_visible => {
                self.current
                    .set_value(c + 1, rowid, &Value::SysTime(end))
                    .map_err(|e| Error::Internal(format!("validto update: {e}")))?;
                self.closed_in_current += 1;
            }
            _ => {
                self.dead.insert(rowid);
            }
        }
        self.cur.end(slot, end);
        Ok(())
    }

    fn insert_version(&mut self, _: &TableDef, version: Version) -> u64 {
        let rowid = append_physical(&mut self.current, self.hidden, &version)
            // tblint: allow(TB004) the version was built against this table's own schema
            .expect("physical schema preserved");
        if let Some(pk) = &mut self.pk {
            pk.insert(&version, rowid);
        }
        self.cur.insert(&version, rowid);
        rowid
    }

    fn partitions(
        &self,
        def: &TableDef,
        sys: &SysSpec,
        scan: &mut dyn FnMut(&'static str, &PartitionView<'_>) -> Result<()>,
    ) -> Result<()> {
        let current = ColumnFragment {
            part: &self.current,
            dead: Some(&self.dead),
            hidden: self.hidden,
        };
        // No B-Tree is ever offered (Fig 3), not even the system PK index.
        scan("current", &self.cur.view(&current, None))?;
        if sys.current_only() || !def.has_system_time() {
            return Ok(());
        }
        let history = ColumnFragment {
            part: &self.history,
            dead: None,
            hidden: self.hidden,
        };
        scan("history", &self.hist.view(&history, None))
    }

    /// Accepts the requested B-Trees (an unknown value-index column is
    /// still an error) but builds none: the scan path is the plan (Fig 3).
    fn retune(&mut self, def: &TableDef, tuning: &TuningConfig) -> Result<()> {
        for (tname, cname) in &tuning.value_index {
            if *tname == def.name {
                def.schema.col(cname)?;
            }
        }
        let hidden = self.hidden;
        let build = |part, frag: &ColumnTable| {
            PartIndexes::temporal(
                tindex_name(def, tuning, part).map(|name| build_column_tindex(name, hidden, frag)),
            )
        };
        self.hist = build(Part::History, &self.history);
        self.cur = build(Part::Current, &self.current);
        Ok(())
    }

    /// The HANA-style delta merge: seals the column deltas *and* moves
    /// superseded records from the current to the history partition, column
    /// by column ([`ColumnTable::split_off`]), dropping the dead ones.
    fn checkpoint(&mut self, def: &TableDef) {
        if self.closed_in_current == 0 && self.dead.is_empty() {
            self.current.merge();
            self.history.merge();
            return;
        }
        let hidden = self.hidden;
        let fate: Vec<RowFate> = (0..self.current.len()).map(|r| self.fate(r)).collect();
        // The split renumbers every row the PK index addresses: it goes now
        // and is rebuilt over the kept rows below.
        let pk = self.pk.take().map(|pk| pk.def);
        let moved_from = self.history.len();
        self.current.split_off(&fate, &mut self.history);
        self.dead.clear();
        self.closed_in_current = 0;
        self.current.merge();
        self.history.merge();
        // The physical row leads with the logical columns, so the key
        // columns sit at their logical positions.
        let kept = fragment_rows(&self.current, hidden, 0..self.current.len());
        self.pk = pk.map(|def| OrderedIndex::build(def, kept));
        let moved = fragment_rows(&self.history, hidden, moved_from..self.history.len());
        self.hist.extend(moved);
        self.hist.prepare();
        if self.cur.tindex().is_some() {
            // The rebuild above renumbered every current rowid.
            self.cur = PartIndexes::temporal(Some(build_column_tindex(
                format!("tx_cur_{}", def.name),
                hidden,
                &self.current,
            )));
        }
    }

    fn stats(&self) -> TableStats {
        TableStats {
            current_rows: self.open_versions(),
            history_rows: self.history.len() + self.closed_in_current,
        }
    }

    fn temporal_indexes(&self) -> [Option<&TemporalIndex>; 2] {
        [self.hist.tindex(), self.cur.tindex()]
    }

    fn key_structures_footprint(&self) -> KeyStructuresFootprint {
        KeyStructuresFootprint {
            key_bytes: self.pk.as_ref().map_or(0, OrderedIndex::memory_bytes),
            heap_bytes: self.current.memory_bytes() + self.history.memory_bytes(),
            tuning_index_bytes: 0,
            open_versions: self.open_versions(),
        }
    }

    fn for_each_version(&self, def: &TableDef, f: &mut dyn FnMut(&Version)) {
        let arity = def.schema.arity();
        let current = fragment_rows(&self.current, self.hidden, 0..self.current.len())
            .filter(|(_, row)| !self.dead.contains(&row.rowid));
        let history = fragment_rows(&self.history, self.hidden, 0..self.history.len());
        current
            .chain(history)
            .for_each(|(_, row)| f(&row.version(arity)));
    }

    fn restore_from(def: &TableDef, versions: Vec<Version>) -> Result<TableC> {
        let mut t = TableC::new(def);
        // Each partition's delta grows once, to what it is about to hold.
        let open = versions.iter().filter(|v| v.sys.is_current()).count();
        t.current.reserve_rows(open);
        t.history.reserve_rows(versions.len() - open);
        for v in versions {
            let part = if v.sys.is_current() {
                &mut t.current
            } else {
                &mut t.history
            };
            append_physical(part, t.hidden, &v)
                .map_err(|e| Error::Internal(format!("restore append: {e}")))?;
        }
        // The snapshot was taken from merged fragments; seal the deltas so
        // the restored physical layout matches the uncrashed engine's.
        t.current.merge();
        t.history.merge();
        let open = fragment_rows(&t.current, t.hidden, 0..t.current.len());
        t.pk = built_pk_index(def, open);
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AccessPath, BitemporalEngine};
    use crate::slack_tests::SlotArrays;
    use crate::testutil::{bitemp_table, insert_rows, simple_row};
    use bitempo_core::{AppDate, Period};
    use std::cell::Cell;
    use std::collections::HashMap;

    impl SlotArrays for TableC {
        fn spare_bytes(&self) -> usize {
            self.current.spare_bytes() + self.history.spare_bytes()
        }
    }

    thread_local! {
        /// Rows this thread's [`ColumnFragment`]s have materialised.
        pub(super) static MATERIALISED: Cell<u64> = const { Cell::new(0) };
    }

    #[test]
    fn insert_update_time_travel() {
        let mut e = SystemC::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 10), (2, 20)]);
        let t1 = e.now();
        e.update(t, &Key::int(1), &[(1, Value::Int(11))], None)
            .unwrap();
        e.commit();
        let cur = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(cur.rows.len(), 2);
        assert_eq!(cur.access, AccessPath::FullScan { partitions: 1 });
        let past = e.scan(t, &SysSpec::AsOf(t1), &AppSpec::All, &[]).unwrap();
        let mut vals: Vec<i64> = past
            .rows
            .iter()
            .map(|r| r.get(1).as_int().unwrap())
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![10, 20]);
        assert_eq!(past.access, AccessPath::FullScan { partitions: 2 });
    }

    /// `close` reads no version, but still refuses a row it cannot close.
    #[test]
    fn closing_a_dead_or_missing_row_is_an_internal_error() {
        let def = bitemp_table("t");
        let mut t = TableC::new(&def);
        let version = Version {
            row: simple_row(1, 10),
            app: AppPeriod::ALL,
            sys: SysPeriod::since(SysTime(2)),
        };
        let slot = t.insert_version(&def, version.clone());
        assert_eq!(t.peek(&def, slot), Some(version));
        // Closed by the transaction that made it: never visible, so dead.
        t.close(&def, slot, SysTime(2)).unwrap();
        assert!(t.dead.contains(&(slot as usize)));
        assert_eq!(t.peek(&def, slot), None);
        for (slot, why) in [(slot, "dead"), (slot + 1, "out of range")] {
            let err = t.close(&def, slot, SysTime(3));
            assert!(matches!(err, Err(Error::Internal(_))), "{why}: {err:?}");
        }
        assert_eq!(t.stats().current_rows, 0);
    }

    #[test]
    fn merge_moves_closed_versions_to_history() {
        let mut e = SystemC::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 10)]);
        let t1 = e.now();
        for i in 0..5 {
            e.update(t, &Key::int(1), &[(1, Value::Int(i))], None)
                .unwrap();
            e.commit();
        }
        assert_eq!(e.tables[0].history.len(), 0, "not merged yet");
        let before: Vec<Row> = {
            let mut r = e.scan(t, &SysSpec::All, &AppSpec::All, &[]).unwrap().rows;
            r.sort();
            r
        };
        e.checkpoint();
        assert_eq!(e.tables[0].history.len(), 5);
        assert_eq!(e.tables[0].current.len(), 1);
        let after: Vec<Row> = {
            let mut r = e.scan(t, &SysSpec::All, &AppSpec::All, &[]).unwrap().rows;
            r.sort();
            r
        };
        assert_eq!(before, after, "merge must not change query results");
        // Time travel to before the updates still works post-merge.
        let past = e.scan(t, &SysSpec::AsOf(t1), &AppSpec::All, &[]).unwrap();
        assert_eq!(past.rows.len(), 1);
        assert_eq!(past.rows[0].get(1), &Value::Int(10));
        // DML after merge keeps working.
        e.update(t, &Key::int(1), &[(1, Value::Int(99))], None)
            .unwrap();
        e.commit();
        let cur = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(cur.rows[0].get(1), &Value::Int(99));
    }

    #[test]
    fn merge_renumbers_each_keys_open_slots_in_order() {
        let mut e = SystemC::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        let def = e.table_def(t).clone();
        for k in 1..=6 {
            e.insert(
                t,
                simple_row(k, k),
                Some(Period::new(AppDate(0), AppDate(100))),
            )
            .unwrap();
        }
        e.commit();
        // Splits leave keys 2 and 4 several open rows; key 3 is deleted,
        // key 5 superseded twice and key 7 superseded inside its creating
        // transaction (a dead row), so the merge drops rows between the
        // survivors.
        for (k, lo) in [(2, 10), (4, 50)] {
            let portion = Period::new(AppDate(lo), AppDate(lo + 10));
            e.update(t, &Key::int(k), &[(1, Value::Int(k * 10))], Some(portion))
                .unwrap();
        }
        e.delete(t, &Key::int(3), None).unwrap();
        e.commit();
        for v in [50, 51] {
            e.update(t, &Key::int(5), &[(1, Value::Int(v))], None)
                .unwrap();
            e.commit();
        }
        e.insert(t, simple_row(7, 7), None).unwrap();
        e.update(t, &Key::int(7), &[(1, Value::Int(70))], None)
            .unwrap();
        e.commit();

        let table = &e.tables[0];
        assert!(table.closed_in_current > 0 && !table.dead.is_empty());
        let survivors = (0..table.current.len() as u64)
            .filter(|&rowid| table.peek(&def, rowid).is_some_and(|v| v.sys.is_current()));
        let renumbered: HashMap<u64, u64> = survivors.zip(0..).collect();
        let keys: Vec<Key> = (1..=7).map(Key::int).collect();
        let before: Vec<Vec<u64>> = keys.iter().map(|k| table.open_slots(k)).collect();
        assert!(before.iter().any(|slots| slots.len() > 1));
        e.checkpoint();
        let table = &e.tables[0];
        assert_eq!(table.current.len(), renumbered.len(), "merged");
        for (k, slots) in keys.iter().zip(before) {
            let want: Vec<u64> = slots.iter().map(|slot| renumbered[slot]).collect();
            assert_eq!(table.open_slots(k), want, "{k}");
        }
    }

    #[test]
    fn key_lookup_is_a_scan() {
        let mut e = SystemC::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 1), (2, 2)]);
        let out = e
            .lookup_key(t, &Key::int(1), &SysSpec::Current, &AppSpec::All)
            .unwrap();
        assert!(matches!(out.access, AccessPath::FullScan { .. }));
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn tuning_is_accepted_and_ignored() {
        let mut e = SystemC::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 1)]);
        e.apply_tuning(&TuningConfig::key_time()).unwrap();
        let out = e
            .lookup_key(t, &Key::int(1), &SysSpec::Current, &AppSpec::All)
            .unwrap();
        assert!(
            matches!(out.access, AccessPath::FullScan { .. }),
            "System C never uses indexes (Fig 3)"
        );
    }

    #[test]
    fn sequenced_split_in_column_store() {
        let mut e = SystemC::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        e.insert(
            t,
            simple_row(1, 100),
            Some(Period::new(AppDate(0), AppDate(100))),
        )
        .unwrap();
        e.commit();
        e.update(
            t,
            &Key::int(1),
            &[(1, Value::Int(777))],
            Some(Period::new(AppDate(20), AppDate(40))),
        )
        .unwrap();
        e.commit();
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows.len(), 3);
        let out = e
            .scan(t, &SysSpec::Current, &AppSpec::AsOf(AppDate(30)), &[])
            .unwrap();
        assert_eq!(out.rows[0].get(1), &Value::Int(777));
    }

    #[test]
    fn same_txn_supersede_never_surfaces() {
        let mut e = SystemC::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        e.insert(t, simple_row(1, 1), None).unwrap();
        e.update(t, &Key::int(1), &[(1, Value::Int(2))], None)
            .unwrap();
        e.commit();
        let all = e.scan(t, &SysSpec::All, &AppSpec::All, &[]).unwrap();
        assert_eq!(all.rows.len(), 1);
        assert_eq!(all.rows[0].get(1), &Value::Int(2));
        e.checkpoint();
        let all = e.scan(t, &SysSpec::All, &AppSpec::All, &[]).unwrap();
        assert_eq!(all.rows.len(), 1, "dead row dropped by merge");
    }

    #[test]
    fn temporal_tuning_probes_merged_history() {
        let mut e = SystemC::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 0)]);
        for i in 0..8 {
            e.update(t, &Key::int(1), &[(1, Value::Int(i))], None)
                .unwrap();
            e.commit();
        }
        let early = e.now();
        for i in 0..200 {
            e.update(t, &Key::int(1), &[(1, Value::Int(100 + i))], None)
                .unwrap();
            e.commit();
        }
        e.checkpoint();
        let plain = e
            .scan(t, &SysSpec::AsOf(early), &AppSpec::All, &[])
            .unwrap();
        assert!(matches!(plain.access, AccessPath::FullScan { .. }));
        e.apply_tuning(&TuningConfig::temporal()).unwrap();
        // Maintenance after tuning: versions reaching history through the
        // delta merge keep feeding the index.
        e.update(t, &Key::int(1), &[(1, Value::Int(999))], None)
            .unwrap();
        e.commit();
        e.checkpoint();
        let probed = e
            .scan(t, &SysSpec::AsOf(early), &AppSpec::All, &[])
            .unwrap();
        assert!(
            matches!(probed.access, AccessPath::TemporalProbe(_)),
            "expected a temporal probe, got {}",
            probed.access
        );
        assert!(probed.metrics.index_hits > 0);
        assert_eq!(probed.rows, plain.rows);
    }

    #[test]
    fn pruned_rows_are_never_materialised() {
        let mut e = SystemC::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        let rows: Vec<(i64, i64)> = (1..=60).map(|id| (id, id)).collect();
        insert_rows(&mut e, t, &rows);
        let early = e.now();
        for i in 0..300 {
            e.update(t, &Key::int(i % 60 + 1), &[(1, Value::Int(1000 + i))], None)
                .unwrap();
            e.commit();
        }
        e.checkpoint();
        // One worker: every morsel runs on this thread, where the counter is.
        e.apply_tuning(&TuningConfig::temporal().with_workers(1))
            .unwrap();
        let key7 = [ColRange::eq(0, Value::Int(7))];
        for (sys, preds, path) in [
            (SysSpec::All, &key7[..], "full-scan(2)"),
            (SysSpec::AsOf(early), &key7[..], "tindex(tx_cur_t)"),
            (SysSpec::Current, &[][..], "full-scan(1)"),
        ] {
            MATERIALISED.set(0);
            let out = e.scan(t, &sys, &AppSpec::All, preds).unwrap();
            assert_eq!(out.access.to_string(), path, "{sys:?}");
            assert!(!out.rows.is_empty(), "{sys:?}");
            assert_eq!(
                out.metrics.versions_pruned > 0,
                !preds.is_empty(),
                "{sys:?}: {:?}",
                out.metrics
            );
            assert_eq!(MATERIALISED.get(), out.rows.len() as u64, "{sys:?}");
        }
    }
}
