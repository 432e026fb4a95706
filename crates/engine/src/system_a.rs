//! System A: a disk-based row store with native bitemporal support.
//!
//! Archetype (paper §2, §5.2): horizontal partitioning into a *current
//! table* and a *history table* with identical schemas; superseded versions
//! move to the history table **synchronously** at update time ("System A
//! saves data instantly to the history tables"); a system-defined
//! primary-key index exists on the current table only; the history table has
//! no indexes unless the tuning study adds them.

use crate::api::{
    AppSpec, BitemporalEngine, ColRange, IndexKind, KeyStructuresFootprint, ScanOutput, SysSpec,
    TableStats, TuningConfig,
};
use crate::catalog::Catalog;
use crate::index::{IndexDef, IndexedCol, OrderedIndex};
use crate::morsel::ScanMetrics;
use crate::rowscan::{merge_access, scan_partition, PartitionView, ScanSite};
use crate::sequenced::split_for_portion;
use crate::version::Version;
use bitempo_core::{
    obs, AppPeriod, Error, Key, Result, Row, SysPeriod, SysTime, TableDef, TableId, TemporalClass,
    Value,
};
use bitempo_storage::{Heap, SlotId};
use bitempo_tindex::{IndexFootprint, TemporalIndex};

#[derive(Debug, Default)]
struct TableA {
    current: Heap<Version>,
    history: Heap<Version>,
    /// System-defined PK index over the current partition (absent on a
    /// table without key columns). It is also what sequenced DML resolves a
    /// key's open versions with: every entry is an open version.
    pk: Option<OrderedIndex>,
    /// Tuning indexes over the current partition.
    cur_indexes: Vec<OrderedIndex>,
    /// Tuning indexes over the history partition. The first one whose
    /// leading columns are the key doubles as the history "PK" access path.
    hist_indexes: Vec<OrderedIndex>,
    hist_key_index: Option<usize>,
    /// Temporal index over the history partition, maintained at close time
    /// (only with [`TuningConfig::temporal_index`]).
    tindex: Option<TemporalIndex>,
    /// Temporal index over the current partition, maintained at insert and
    /// close time. Without it, every time-travel scan pays a full pass over
    /// the open versions even when the probe instant predates almost all of
    /// them.
    cur_tindex: Option<TemporalIndex>,
}

/// Rebuilds a temporal index over one heap partition at tuning time —
/// shared by Systems A, B and D, whose partitions are heaps of versions.
/// System A's current heap reuses slots, so correctness there leans on the
/// candidate-superset contract: replay is causal, and the scan re-checks
/// every candidate against its authoritative period.
pub(crate) fn build_heap_tindex(index_name: String, heap: &Heap<Version>) -> TemporalIndex {
    TemporalIndex::build(
        index_name,
        bitempo_tindex::timeline::DEFAULT_CHECKPOINT_EVERY,
        heap.iter()
            .map(|(slot, v)| (u64::from(slot.0), v.app, v.sys)),
    )
}

/// The System A engine. See module docs.
#[derive(Debug, Default)]
pub struct SystemA {
    catalog: Catalog,
    tables: Vec<TableA>,
    now: SysTime,
    tuning: TuningConfig,
}

impl SystemA {
    /// Creates an empty engine.
    pub fn new() -> SystemA {
        SystemA::default()
    }

    fn pending(&self) -> SysTime {
        self.now.next()
    }

    fn insert_version(&mut self, table: TableId, version: Version) -> u64 {
        let t = self.table_mut(table);
        let slot64 = u64::from(t.current.insert(version.clone()).0);
        if let Some(pk) = &mut t.pk {
            pk.insert(&version, slot64);
        }
        for ix in &mut t.cur_indexes {
            ix.insert(&version, slot64);
        }
        if let Some(tix) = &mut t.cur_tindex {
            tix.insert(slot64, version.app, version.sys);
        }
        slot64
    }

    /// Closes the open version in `slot` at `end`, moving it to history.
    /// Versions whose system period would be empty (created and superseded
    /// inside the same transaction) are discarded: they were never visible.
    fn close_version(&mut self, table: TableId, slot64: u64, end: SysTime) -> Result<Version> {
        let nontemporal = self.catalog.def(table).temporal == TemporalClass::NonTemporal;
        let t = self.table_mut(table);
        let slot = SlotId(slot64 as u32);
        let Some(mut v) = t.current.remove(slot) else {
            return Err(Error::Internal(format!(
                "closing slot {slot64} with no live version"
            )));
        };
        if let Some(tix) = &mut t.cur_tindex {
            // The slot leaves the current partition whatever its fate
            // (archived, discarded, or re-inserted in place): invalidating
            // here keeps later probes from resurrecting it, and probes
            // before `end` re-check whatever occupies the slot by then.
            tix.close(slot64, end);
        }
        if let Some(pk) = &mut t.pk {
            pk.remove(&v, slot64);
        }
        for ix in &mut t.cur_indexes {
            ix.remove(&v, slot64);
        }
        let closed = v.clone();
        v.sys = SysPeriod::new(v.sys.start, end);
        if !nontemporal && !v.sys.is_empty() {
            let hslot = t.history.insert(v.clone());
            let h64 = u64::from(hslot.0);
            for ix in &mut t.hist_indexes {
                ix.insert(&v, h64);
            }
            if let Some(tix) = &mut t.tindex {
                tix.insert(h64, v.app, v.sys);
            }
        }
        Ok(closed)
    }

    /// `TableId`s are issued densely by the catalog, so indexing with one it
    /// handed out cannot go out of bounds.
    fn table(&self, table: TableId) -> &TableA {
        // tblint: allow(TB004) TableId is catalog-issued and dense; sole indexing point for reads
        &self.tables[table.0 as usize]
    }

    fn table_mut(&mut self, table: TableId) -> &mut TableA {
        // tblint: allow(TB004) TableId is catalog-issued and dense; sole indexing point for writes
        &mut self.tables[table.0 as usize]
    }
}

/// Applies a sequenced update/delete/overwrite to one engine via its
/// close/insert primitives. Shared verbatim by Systems A, B and D through a
/// tiny adapter trait, so the logical semantics cannot drift apart.
pub(crate) fn sequenced_dml<E: SequencedOps>(
    engine: &mut E,
    table: TableId,
    key: &Key,
    portion: Option<AppPeriod>,
    new_values: Option<&[(usize, Value)]>, // None = delete
) -> Result<usize> {
    let def = engine.def(table).clone();
    if def.temporal != TemporalClass::Bitemporal && portion.is_some() {
        return Err(Error::Unsupported(format!(
            "FOR PORTION OF on table {} without application time",
            def.name
        )));
    }
    let portion = portion.unwrap_or(AppPeriod::ALL);
    let pending = engine.pending_time();
    let slots = engine.open_slots(table, key);
    if slots.is_empty() {
        return Ok(0);
    }
    let mut affected = 0;
    for slot in slots {
        let Some(v) = engine.peek(table, slot) else {
            continue;
        };
        let Some(split) = split_for_portion(v.app, portion) else {
            continue;
        };
        affected += 1;
        let old = engine.close(table, slot, pending)?;
        if def.temporal == TemporalClass::NonTemporal {
            // Non-versioned tables update in place (no history, no residue).
            if let Some(updates) = new_values {
                engine.insert_version_at(
                    table,
                    Version {
                        row: old.row.with_all(updates),
                        app: old.app,
                        sys: old.sys,
                    },
                );
            }
            continue;
        }
        for residue in &split.residues {
            engine.insert_version_at(
                table,
                Version {
                    row: old.row.clone(),
                    app: *residue,
                    sys: SysPeriod::since(pending),
                },
            );
        }
        if let Some(updates) = new_values {
            engine.insert_version_at(
                table,
                Version {
                    row: old.row.with_all(updates),
                    app: split.affected,
                    sys: SysPeriod::since(pending),
                },
            );
        }
    }
    Ok(affected)
}

/// Overwrite of the application period (paper Table 2, "Overwrite
/// App.Time"): all open versions of the key are superseded by a single
/// version, carrying the values of the latest (by application start)
/// version, valid for `period`.
pub(crate) fn overwrite_period<E: SequencedOps>(
    engine: &mut E,
    table: TableId,
    key: &Key,
    period: AppPeriod,
) -> Result<usize> {
    let def = engine.def(table).clone();
    if def.temporal != TemporalClass::Bitemporal {
        return Err(Error::Unsupported(format!(
            "application-period overwrite on table {}",
            def.name
        )));
    }
    if period.is_empty() {
        return Err(Error::EmptyPeriod(format!("{period}")));
    }
    let pending = engine.pending_time();
    let slots = engine.open_slots(table, key);
    if slots.is_empty() {
        return Err(Error::KeyNotFound(format!("{key} in {}", def.name)));
    }
    let mut representative: Option<Version> = None;
    let n = slots.len();
    for slot in slots {
        let closed = engine.close(table, slot, pending)?;
        let better = representative
            .as_ref()
            .is_none_or(|r| closed.app.start >= r.app.start);
        if better {
            representative = Some(closed);
        }
    }
    let Some(rep) = representative else {
        return Err(Error::Internal(
            "overwrite closed no versions despite a non-empty slot list".into(),
        ));
    };
    engine.insert_version_at(
        table,
        Version {
            row: rep.row,
            app: period,
            sys: SysPeriod::since(pending),
        },
    );
    Ok(n)
}

/// The close/insert primitives sequenced DML needs from an engine.
pub(crate) trait SequencedOps {
    fn def(&self, table: TableId) -> &TableDef;
    fn pending_time(&self) -> SysTime;
    fn open_slots(&self, table: TableId, key: &Key) -> Vec<u64>;
    fn peek(&self, table: TableId, slot: u64) -> Option<Version>;
    /// Closes the open version at `slot` and returns it (pre-close periods).
    /// Closing a slot with no live version is an engine bug, reported as
    /// [`Error::Internal`] rather than a panic.
    fn close(&mut self, table: TableId, slot: u64, end: SysTime) -> Result<Version>;
    /// Stores `version` and returns its slot.
    fn insert_version_at(&mut self, table: TableId, version: Version) -> u64;
}

/// The open versions of `key` on an engine whose current partition carries
/// the system-defined PK index (Systems A and B): an exact-key probe, in the
/// order the versions were inserted. A table without key columns has no PK
/// index; its one, empty key covers every open version (`all_open`, in slot
/// order) and no other key matches anything.
pub(crate) fn open_slots_in(
    pk: Option<&OrderedIndex>,
    key: &Key,
    all_open: impl FnOnce() -> Vec<u64>,
) -> Vec<u64> {
    let key = key.to_values();
    match pk {
        Some(pk) => pk.slots_of(key),
        None if key.is_empty() => all_open(),
        None => Vec::new(),
    }
}

impl SequencedOps for SystemA {
    fn def(&self, table: TableId) -> &TableDef {
        self.catalog.def(table)
    }
    fn pending_time(&self) -> SysTime {
        self.pending()
    }
    fn open_slots(&self, table: TableId, key: &Key) -> Vec<u64> {
        let t = self.table(table);
        open_slots_in(t.pk.as_ref(), key, || {
            t.current
                .iter()
                .map(|(slot, _)| u64::from(slot.0))
                .collect()
        })
    }
    fn peek(&self, table: TableId, slot: u64) -> Option<Version> {
        self.table(table).current.get(SlotId(slot as u32)).cloned()
    }
    fn close(&mut self, table: TableId, slot: u64, end: SysTime) -> Result<Version> {
        self.close_version(table, slot, end)
    }
    fn insert_version_at(&mut self, table: TableId, version: Version) -> u64 {
        self.insert_version(table, version)
    }
}

impl BitemporalEngine for SystemA {
    fn name(&self) -> &'static str {
        "System A"
    }

    fn architecture(&self) -> &'static str {
        "row store; current + history tables (same schema); synchronous history writes; \
         system PK index on current table only"
    }

    fn create_table(&mut self, def: TableDef) -> Result<TableId> {
        let pk = (!def.key.is_empty()).then(|| {
            OrderedIndex::new(IndexDef {
                name: format!("pk_{}", def.name),
                cols: def.key.iter().map(|&c| IndexedCol::Value(c)).collect(),
                kind: IndexKind::BTree,
            })
        });
        let id = self.catalog.create(def)?;
        self.tables.push(TableA {
            pk,
            ..TableA::default()
        });
        Ok(id)
    }

    fn resolve(&self, name: &str) -> Result<TableId> {
        self.catalog.resolve(name)
    }

    fn table_names(&self) -> Vec<String> {
        self.catalog.iter().map(|(_, d)| d.name.clone()).collect()
    }

    fn table_def(&self, table: TableId) -> &TableDef {
        self.catalog.def(table)
    }

    fn apply_tuning(&mut self, tuning: &TuningConfig) -> Result<()> {
        self.tuning = tuning.clone();
        let defs: Vec<(TableId, TableDef)> =
            self.catalog.iter().map(|(i, d)| (i, d.clone())).collect();
        for (id, def) in defs {
            let t = self.table_mut(id);
            t.cur_indexes.clear();
            t.hist_indexes.clear();
            t.hist_key_index = None;
            let mut cur_defs = Vec::new();
            let mut hist_defs = Vec::new();
            build_tuning_defs(
                &def,
                tuning,
                &mut cur_defs,
                &mut hist_defs,
                &mut t.hist_key_index,
            )?;
            t.cur_indexes = cur_defs.into_iter().map(OrderedIndex::new).collect();
            t.hist_indexes = hist_defs.into_iter().map(OrderedIndex::new).collect();
            // Populate from existing data.
            let entries: Vec<(u64, Version)> = t
                .current
                .iter()
                .map(|(s, v)| (u64::from(s.0), v.clone()))
                .collect();
            for ix in &mut t.cur_indexes {
                for (slot, v) in &entries {
                    ix.insert(v, *slot);
                }
            }
            let entries: Vec<(u64, Version)> = t
                .history
                .iter()
                .map(|(s, v)| (u64::from(s.0), v.clone()))
                .collect();
            for ix in &mut t.hist_indexes {
                for (slot, v) in &entries {
                    ix.insert(v, *slot);
                }
            }
            t.tindex = (tuning.temporal_index && def.has_system_time())
                .then(|| build_heap_tindex(format!("tx_hist_{}", def.name), &t.history));
            t.cur_tindex = (tuning.temporal_index && def.has_system_time())
                .then(|| build_heap_tindex(format!("tx_cur_{}", def.name), &t.current));
        }
        Ok(())
    }

    fn insert(&mut self, table: TableId, row: Row, app: Option<AppPeriod>) -> Result<()> {
        let def = self.catalog.def(table);
        if row.arity() != def.schema.arity() {
            return Err(Error::Invalid(format!(
                "arity {} vs schema {} for {}",
                row.arity(),
                def.schema.arity(),
                def.name
            )));
        }
        let app = match (def.temporal, app) {
            (TemporalClass::Bitemporal, Some(p)) if p.is_empty() => {
                return Err(Error::EmptyPeriod(format!("{p}")))
            }
            (TemporalClass::Bitemporal, Some(p)) => p,
            (TemporalClass::Bitemporal, None) => AppPeriod::ALL,
            (_, Some(_)) => {
                return Err(Error::Unsupported(format!(
                    "application period on table {}",
                    def.name
                )))
            }
            (_, None) => AppPeriod::ALL,
        };
        let sys = if def.temporal == TemporalClass::NonTemporal {
            SysPeriod::ALL
        } else {
            SysPeriod::since(self.pending())
        };
        self.insert_version(table, Version { row, app, sys });
        Ok(())
    }

    fn update(
        &mut self,
        table: TableId,
        key: &Key,
        updates: &[(usize, Value)],
        portion: Option<AppPeriod>,
    ) -> Result<usize> {
        sequenced_dml(self, table, key, portion, Some(updates))
    }

    fn delete(&mut self, table: TableId, key: &Key, portion: Option<AppPeriod>) -> Result<usize> {
        sequenced_dml(self, table, key, portion, None)
    }

    fn overwrite_app_period(
        &mut self,
        table: TableId,
        key: &Key,
        period: AppPeriod,
    ) -> Result<usize> {
        overwrite_period(self, table, key, period)
    }

    fn commit(&mut self) -> SysTime {
        self.now = self.now.next();
        self.now
    }

    fn now(&self) -> SysTime {
        self.now
    }

    fn advance_clock(&mut self, to: SysTime) {
        if self.now < to {
            self.now = to;
        }
    }

    fn scan(
        &self,
        table: TableId,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
    ) -> Result<ScanOutput> {
        let def = self.catalog.def(table);
        let t = self.table(table);
        let exec = self.tuning.exec();
        let _span = obs::span_dyn("engine", || format!("System A scan {}", def.name));
        let mut rows = Vec::new();
        let mut paths = Vec::new();
        let mut metrics = ScanMetrics::default();
        let site = |partition| ScanSite {
            engine: "System A",
            table: &def.name,
            partition,
        };
        let cur_view = PartitionView {
            source: &t.current,
            pk: t.pk.as_ref(),
            indexes: &t.cur_indexes,
            gist: None,
            tindex: t.cur_tindex.as_ref(),
        };
        paths.push(scan_partition(
            site("current"),
            &cur_view,
            def,
            sys,
            app,
            preds,
            self.now,
            self.tuning.adaptive,
            exec,
            &mut rows,
            &mut metrics,
        )?);
        if !sys.current_only() && def.has_system_time() {
            let hist_view = PartitionView {
                source: &t.history,
                pk: t.hist_key_index.and_then(|i| t.hist_indexes.get(i)),
                indexes: &t.hist_indexes,
                gist: None,
                tindex: t.tindex.as_ref(),
            };
            paths.push(scan_partition(
                site("history"),
                &hist_view,
                def,
                sys,
                app,
                preds,
                self.now,
                self.tuning.adaptive,
                exec,
                &mut rows,
                &mut metrics,
            )?);
        }
        let out = ScanOutput {
            access: merge_access(paths.clone()),
            partition_paths: paths,
            rows,
            metrics,
        };
        #[cfg(debug_assertions)]
        crate::api::validate_scan_output(def, sys, app, preds, &out)
            .unwrap_or_else(|msg| panic!("System A scan postcondition: {msg}"));
        Ok(out)
    }

    fn lookup_key(
        &self,
        table: TableId,
        key: &Key,
        sys: &SysSpec,
        app: &AppSpec,
    ) -> Result<ScanOutput> {
        let def = self.catalog.def(table);
        let preds: Vec<ColRange> = def
            .key
            .iter()
            .zip(key.to_values())
            .map(|(&c, v)| ColRange::eq(c, v))
            .collect();
        self.scan(table, sys, app, &preds)
    }

    fn stats(&self, table: TableId) -> TableStats {
        let t = self.table(table);
        TableStats {
            current_rows: t.current.len(),
            history_rows: t.history.len(),
        }
    }

    fn supports_manual_system_time(&self) -> bool {
        false
    }

    fn bulk_load(
        &mut self,
        _table: TableId,
        _versions: Vec<(Row, AppPeriod, SysPeriod)>,
    ) -> Result<()> {
        Err(Error::Unsupported(
            "bulk load with manual system time".into(),
        ))
    }

    fn checkpoint(&mut self) {
        // History writes are synchronous (§5.2): nothing staged to flush.
        // The temporal index still uses the quiescent point to sort its
        // interval endpoint lists.
        for t in &mut self.tables {
            if let Some(tix) = &mut t.tindex {
                tix.prepare();
            }
            if let Some(tix) = &mut t.cur_tindex {
                tix.prepare();
            }
        }
    }

    fn temporal_index_footprint(&self) -> IndexFootprint {
        self.tables
            .iter()
            .flat_map(|t| t.tindex.iter().chain(t.cur_tindex.iter()))
            .fold(IndexFootprint::default(), |acc, tix| {
                acc.merged(tix.footprint())
            })
    }

    fn key_structures_footprint(&self) -> KeyStructuresFootprint {
        self.tables
            .iter()
            .map(|t| KeyStructuresFootprint {
                key_bytes: t.pk.as_ref().map_or(0, OrderedIndex::memory_bytes),
                heap_bytes: t.current.memory_bytes() + t.history.memory_bytes(),
                open_versions: t.current.len(),
            })
            .sum()
    }

    fn snapshot_versions(&self, table: TableId) -> Result<Vec<Version>> {
        let t = self.table(table);
        let mut out: Vec<Version> = t.current.iter().map(|(_, v)| v.clone()).collect();
        out.extend(t.history.iter().map(|(_, v)| v.clone()));
        Ok(out)
    }

    fn restore(&mut self, table: TableId, versions: Vec<Version>, now: SysTime) -> Result<()> {
        let def = self.catalog.def(table);
        let pk = (!def.key.is_empty()).then(|| {
            OrderedIndex::new(IndexDef {
                name: format!("pk_{}", def.name),
                cols: def.key.iter().map(|&c| IndexedCol::Value(c)).collect(),
                kind: IndexKind::BTree,
            })
        });
        *self.table_mut(table) = TableA {
            pk,
            ..TableA::default()
        };
        for v in versions {
            if v.sys.is_current() {
                // Open (and non-temporal) versions go through the normal
                // insert path so the PK index is rebuilt.
                self.insert_version(table, v);
            } else {
                self.table_mut(table).history.insert(v);
            }
        }
        self.now = now;
        Ok(())
    }
}

/// Builds the tuning index definitions for one table — shared by Systems A
/// and B, which expose the same logical index surface (paper §5.1).
pub(crate) fn build_tuning_defs(
    def: &TableDef,
    tuning: &TuningConfig,
    cur: &mut Vec<IndexDef>,
    hist: &mut Vec<IndexDef>,
    hist_key_index: &mut Option<usize>,
) -> Result<()> {
    if tuning.time_index {
        if def.has_app_time() {
            cur.push(IndexDef {
                name: format!("ix_cur_app_{}", def.name),
                cols: vec![IndexedCol::AppStart],
                kind: IndexKind::BTree,
            });
            hist.push(IndexDef {
                name: format!("ix_hist_app_{}", def.name),
                cols: vec![IndexedCol::AppStart],
                kind: IndexKind::BTree,
            });
        }
        if def.has_system_time() {
            hist.push(IndexDef {
                name: format!("ix_hist_sys_{}", def.name),
                cols: vec![IndexedCol::SysStart],
                kind: IndexKind::BTree,
            });
        }
    }
    if tuning.key_time_index && def.has_system_time() && !def.key.is_empty() {
        let mut cols: Vec<IndexedCol> = def.key.iter().map(|&c| IndexedCol::Value(c)).collect();
        cols.push(IndexedCol::SysStart);
        *hist_key_index = Some(hist.len());
        hist.push(IndexDef {
            name: format!("ix_hist_key_{}", def.name),
            cols,
            kind: IndexKind::BTree,
        });
    }
    for (tname, cname) in &tuning.value_index {
        if *tname == def.name {
            let col = def.schema.col(cname)?;
            let d = IndexDef {
                name: format!("ix_val_{}_{}", def.name, cname),
                cols: vec![IndexedCol::Value(col)],
                kind: IndexKind::BTree,
            };
            cur.push(d.clone());
            if def.has_system_time() {
                hist.push(d);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AccessPath;
    use crate::testutil::{bitemp_table, insert_rows, simple_row};
    use bitempo_core::{AppDate, Period};

    #[test]
    fn insert_commit_scan_current() {
        let mut e = SystemA::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 100), (2, 200)]);
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(e.stats(t).history_rows, 0);
    }

    #[test]
    fn update_moves_old_version_to_history() {
        let mut e = SystemA::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 100)]);
        let t1 = e.now();
        let n = e
            .update(t, &Key::int(1), &[(1, Value::Int(999))], None)
            .unwrap();
        e.commit();
        assert_eq!(n, 1);
        let s = e.stats(t);
        assert_eq!((s.current_rows, s.history_rows), (1, 1));
        // Time travel to before the update sees the old value.
        let out = e.scan(t, &SysSpec::AsOf(t1), &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(1), &Value::Int(100));
        // Current sees the new value.
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows[0].get(1), &Value::Int(999));
    }

    #[test]
    fn sequenced_update_splits_portion() {
        let mut e = SystemA::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        e.insert(
            t,
            simple_row(1, 100),
            Some(Period::new(AppDate(0), AppDate(100))),
        )
        .unwrap();
        e.commit();
        let portion = Period::new(AppDate(20), AppDate(40));
        e.update(t, &Key::int(1), &[(1, Value::Int(777))], Some(portion))
            .unwrap();
        e.commit();
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows.len(), 3, "overlap + two residues");
        // AS OF app day 30 → updated value; day 50 → original.
        let out = e
            .scan(t, &SysSpec::Current, &AppSpec::AsOf(AppDate(30)), &[])
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(1), &Value::Int(777));
        let out = e
            .scan(t, &SysSpec::Current, &AppSpec::AsOf(AppDate(50)), &[])
            .unwrap();
        assert_eq!(out.rows[0].get(1), &Value::Int(100));
    }

    #[test]
    fn delete_leaves_history_only() {
        let mut e = SystemA::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 100)]);
        let before = e.now();
        e.delete(t, &Key::int(1), None).unwrap();
        e.commit();
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert!(out.rows.is_empty());
        let out = e
            .scan(t, &SysSpec::AsOf(before), &AppSpec::All, &[])
            .unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn overwrite_app_period_replaces_versions() {
        let mut e = SystemA::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        e.insert(
            t,
            simple_row(1, 1),
            Some(Period::new(AppDate(0), AppDate(10))),
        )
        .unwrap();
        e.insert(
            t,
            simple_row(1, 2),
            Some(Period::new(AppDate(10), AppDate(20))),
        )
        .unwrap();
        e.commit();
        let n = e
            .overwrite_app_period(t, &Key::int(1), Period::new(AppDate(5), AppDate(50)))
            .unwrap();
        e.commit();
        assert_eq!(n, 2);
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(
            out.rows[0].get(1),
            &Value::Int(2),
            "latest version's values"
        );
        assert_eq!(out.rows[0].get(2), &Value::Date(AppDate(5)));
    }

    #[test]
    fn explicit_as_of_now_still_visits_history() {
        let mut e = SystemA::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 100)]);
        e.update(t, &Key::int(1), &[(1, Value::Int(2))], None)
            .unwrap();
        e.commit();
        let now = e.now();
        let implicit = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        let explicit = e.scan(t, &SysSpec::AsOf(now), &AppSpec::All, &[]).unwrap();
        assert_eq!(implicit.rows, explicit.rows, "same answer...");
        assert_eq!(implicit.access, AccessPath::FullScan { partitions: 1 });
        assert_eq!(
            explicit.access,
            AccessPath::FullScan { partitions: 2 },
            "...but the explicit form pays for both partitions (Fig 6)"
        );
    }

    #[test]
    fn key_lookup_uses_pk_on_current_scan_on_history() {
        let mut e = SystemA::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 100), (2, 200)]);
        e.update(t, &Key::int(1), &[(1, Value::Int(101))], None)
            .unwrap();
        e.commit();
        let cur = e
            .lookup_key(t, &Key::int(1), &SysSpec::Current, &AppSpec::All)
            .unwrap();
        assert!(matches!(cur.access, AccessPath::KeyLookup(_)));
        assert_eq!(cur.rows.len(), 1);
        let all = e
            .lookup_key(t, &Key::int(1), &SysSpec::All, &AppSpec::All)
            .unwrap();
        assert_eq!(all.rows.len(), 2, "current + historical version");
        // With Key+Time tuning the history side gains an index.
        e.apply_tuning(&TuningConfig::key_time()).unwrap();
        let all = e
            .lookup_key(t, &Key::int(1), &SysSpec::All, &AppSpec::All)
            .unwrap();
        assert!(matches!(all.access, AccessPath::KeyLookup(_)));
        assert_eq!(all.rows.len(), 2);
    }

    #[test]
    fn same_transaction_supersede_discards_invisible_version() {
        let mut e = SystemA::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        e.insert(t, simple_row(1, 1), None).unwrap();
        e.update(t, &Key::int(1), &[(1, Value::Int(2))], None)
            .unwrap();
        e.commit();
        let s = e.stats(t);
        assert_eq!(
            (s.current_rows, s.history_rows),
            (1, 0),
            "the never-visible intermediate version must not reach history"
        );
    }

    #[test]
    fn nontemporal_table_updates_in_place() {
        let mut e = SystemA::new();
        let t = e
            .create_table(crate::testutil::plain_table("region"))
            .unwrap();
        e.insert(t, simple_row(1, 5), None).unwrap();
        e.commit();
        e.update(t, &Key::int(1), &[(1, Value::Int(6))], None)
            .unwrap();
        e.commit();
        let s = e.stats(t);
        assert_eq!((s.current_rows, s.history_rows), (1, 0));
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows[0].get(1), &Value::Int(6));
        assert_eq!(out.rows[0].arity(), 2, "no period columns on non-temporal");
    }

    #[test]
    fn portion_on_nontemporal_is_rejected() {
        let mut e = SystemA::new();
        let t = e
            .create_table(crate::testutil::plain_table("region"))
            .unwrap();
        e.insert(t, simple_row(1, 5), None).unwrap();
        e.commit();
        let err = e.update(
            t,
            &Key::int(1),
            &[(1, Value::Int(6))],
            Some(Period::new(AppDate(0), AppDate(1))),
        );
        assert!(matches!(err, Err(Error::Unsupported(_))));
    }

    #[test]
    fn temporal_tuning_probes_history_and_matches_full_scan() {
        let mut e = SystemA::new();
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
        let plain = e
            .scan(t, &SysSpec::AsOf(early), &AppSpec::All, &[])
            .unwrap();
        assert!(matches!(plain.access, AccessPath::FullScan { .. }));
        e.apply_tuning(&TuningConfig::temporal()).unwrap();
        // Maintenance after tuning: close_version keeps feeding the index.
        e.update(t, &Key::int(1), &[(1, Value::Int(999))], None)
            .unwrap();
        e.commit();
        let probed = e
            .scan(t, &SysSpec::AsOf(early), &AppSpec::All, &[])
            .unwrap();
        assert!(
            matches!(probed.access, AccessPath::TemporalProbe(_)),
            "expected a temporal probe, got {}",
            probed.access
        );
        assert!(probed.metrics.index_probes > 0);
        assert!(probed.metrics.index_hits > 0);
        assert_eq!(probed.rows, plain.rows);
    }
}
