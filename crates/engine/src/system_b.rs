//! System B: a row store with vertically partitioned temporal metadata.
//!
//! Archetype (paper §5.2): *"the current table does not contain any temporal
//! information, as it is vertically partitioned into a separate table. The
//! history table extends the schema of the current table with attributes for
//! the system time validity"*; updates go *"first to an undo log"*; the
//! system *"records more detailed metadata, e.g. on transaction identifiers
//! and the update query type"*.
//!
//! Two costs follow and are modelled physically, because they explain the
//! paper's System B results:
//!
//! 1. **Reconstruction.** Every access to the current partition must join
//!    the value part with the temporal part. The paper observed this done
//!    as a sort/merge join *with sorting on both sides* and a system index
//!    on the join attribute going unused (§5.3.1) — so that is literally
//!    what [`SystemB`] does on every scan, even indexed key lookups
//!    (Figs 2, 8, 12).
//! 2. **Undo-log staging.** Superseded versions accumulate in an undo log
//!    drained to the history table in batches; the draining transaction
//!    absorbs the cost, producing the paper's two-orders-of-magnitude 97th
//!    percentile loading latencies (§5.8, Fig 16).

use crate::api::{
    AppSpec, BitemporalEngine, ColRange, IndexKind, KeyStructuresFootprint, ScanOutput, SysSpec,
    TableStats, TuningConfig,
};
use crate::catalog::Catalog;
use crate::index::{IndexDef, IndexedCol, OrderedIndex};
use crate::morsel::ScanMetrics;
use crate::rowscan::{merge_access, scan_partition, PartitionView, Reconstructed, ScanSite};
use crate::system_a::{
    build_heap_tindex, build_tuning_defs, open_slots_in, overwrite_period, sequenced_dml,
    SequencedOps,
};
use crate::version::Version;
use bitempo_core::{
    obs, AppPeriod, Error, Key, Result, Row, SysPeriod, SysTime, TableDef, TableId, TemporalClass,
    Value,
};
use bitempo_storage::{Heap, SlotId};
use bitempo_tindex::{IndexFootprint, TemporalIndex};
use std::collections::BTreeMap;

/// Undo-log entries drained to the history table per batch. Roughly 3 % of
/// single-scenario load transactions trigger a drain, matching the paper's
/// "5 % of the values were two orders of magnitude higher" (§5.8).
const UNDO_DRAIN_THRESHOLD: usize = 32;

/// Operation metadata recorded with each history record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryMeta {
    /// Transaction identifier (the closing commit's logical time).
    pub txn: u64,
    /// Update query type (0 = supersede; reserved codes for future use).
    pub op: u8,
}

#[derive(Debug, Default)]
struct TableB {
    /// Value part of the current table — no temporal columns.
    cur_values: Heap<Row>,
    /// Temporal part of the current table, vertically partitioned away.
    cur_temporal: BTreeMap<u64, (AppPeriod, SysTime)>,
    history: Heap<Version>,
    hist_meta: Vec<HistoryMeta>,
    undo: Vec<(Version, HistoryMeta)>,
    /// System-defined PK index over the current partition; also resolves a
    /// key's open versions for sequenced DML (see `system_a::open_slots_in`).
    pk: Option<OrderedIndex>,
    cur_indexes: Vec<OrderedIndex>,
    hist_indexes: Vec<OrderedIndex>,
    hist_key_index: Option<usize>,
    /// The history table's physical layout: slots ordered by closing time.
    /// System B stores history "in an optimized and compressed format using
    /// a background process" (paper §2.4/§5.8) — this is that format, and
    /// rebuilding it on every undo-log drain is what makes ~3 % of load
    /// transactions orders of magnitude slower than the median (Fig 16).
    hist_layout: Vec<u32>,
    /// Size of the compressed history image after the last rewrite.
    compressed_bytes: u64,
    /// Optional temporal index over the *drained* history partition. Staged
    /// undo entries are invisible to it by design — the staging partition
    /// stays sequential-only, mirroring how System B's background writer is
    /// the only process that touches the optimized history format.
    tindex: Option<TemporalIndex>,
    /// Temporal index over the current partition, keyed by the same uids
    /// the vertically partitioned sides share, so probe candidates resolve
    /// through the reconstructed merge-join view.
    cur_tindex: Option<TemporalIndex>,
}

impl TableB {
    /// The sort/merge reconstruction of the current partition: collects and
    /// *sorts both sides*, then merge-joins them into full versions.
    fn reconstruct_current(&self) -> Reconstructed {
        let mut temporal: Vec<(u64, AppPeriod, SysTime)> = self
            .cur_temporal
            .iter()
            .map(|(&uid, &(app, start))| (uid, app, start))
            .collect();
        // Both sides are sorted explicitly even though they arrive in uid
        // order — System B's observed plan sorts both inputs (paper §5.3.1).
        temporal.sort_unstable_by_key(|e| e.0);
        let mut values: Vec<(u64, Row)> = self
            .cur_values
            .iter()
            .map(|(slot, row)| (u64::from(slot.0), row.clone()))
            .collect();
        values.sort_unstable_by_key(|e| e.0);

        let mut out = Vec::with_capacity(values.len());
        let mut ti = temporal.iter().peekable();
        for (uid, row) in values {
            while ti.peek().is_some_and(|t| t.0 < uid) {
                ti.next();
            }
            if let Some(&&(tuid, app, start)) = ti.peek() {
                if tuid == uid {
                    out.push((
                        uid,
                        Version {
                            row,
                            app,
                            sys: SysPeriod::since(start),
                        },
                    ));
                    ti.next();
                }
            }
        }
        Reconstructed(out)
    }

    fn drain_undo(&mut self) {
        if self.undo.is_empty() {
            return;
        }
        for (v, meta) in self.undo.drain(..) {
            let slot = self.history.insert(v.clone());
            let slot64 = u64::from(slot.0);
            debug_assert_eq!(slot64 as usize, self.hist_meta.len());
            self.hist_meta.push(meta);
            for ix in &mut self.hist_indexes {
                ix.insert(&v, slot64);
            }
            if let Some(tix) = &mut self.tindex {
                tix.insert(slot64, v.app, v.sys);
            }
        }
        if let Some(tix) = &mut self.tindex {
            tix.prepare();
        }
        self.rebuild_compressed_layout();
    }

    /// The background writer maintains the history "in an optimized and
    /// compressed format": merging a drained batch rewrites the whole
    /// compressed archive — an O(H) pass over every stored value plus an
    /// O(H log H) re-sort by closing time, absorbed by whichever
    /// transaction crossed the threshold. This is the mechanism behind
    /// the paper's two-orders-of-magnitude 97th-percentile load spikes.
    /// Checkpoint restore also calls this, because the layout is physical
    /// state an uncrashed engine would have.
    fn rebuild_compressed_layout(&mut self) {
        let mut layout: Vec<(u64, u32)> = self
            .history
            .iter()
            .map(|(slot, v)| (v.sys.end.0, slot.0))
            .collect();
        layout.sort_unstable();
        self.hist_layout = layout.into_iter().map(|(_, s)| s).collect();
        let mut compressed_bytes: u64 = 0;
        for (_, v) in self.history.iter() {
            for value in v.row.values() {
                compressed_bytes = compressed_bytes.wrapping_add(match value {
                    // Re-encoding walks every payload byte, like the real
                    // compressor would.
                    bitempo_core::Value::Str(s) => s.as_bytes().iter().fold(0u64, |acc, &b| {
                        acc.wrapping_mul(31).wrapping_add(u64::from(b))
                    }),
                    bitempo_core::Value::Null => 1,
                    bitempo_core::Value::Int(i) => *i as u64,
                    bitempo_core::Value::Double(d) => d.to_bits(),
                    bitempo_core::Value::Date(d) => d.0 as u64,
                    bitempo_core::Value::SysTime(t) => t.0,
                });
            }
        }
        self.compressed_bytes = compressed_bytes;
    }
}

/// The System B engine. See module docs.
#[derive(Debug, Default)]
pub struct SystemB {
    catalog: Catalog,
    tables: Vec<TableB>,
    now: SysTime,
    tuning: TuningConfig,
}

impl SystemB {
    /// Creates an empty engine.
    pub fn new() -> SystemB {
        SystemB::default()
    }

    fn version_of(&self, table: TableId, uid: u64) -> Option<Version> {
        let t = self.table(table);
        let row = t.cur_values.get(SlotId(uid as u32))?.clone();
        let &(app, start) = t.cur_temporal.get(&uid)?;
        Some(Version {
            row,
            app,
            sys: SysPeriod::since(start),
        })
    }

    /// `TableId`s are issued densely by the catalog, so indexing with one it
    /// handed out cannot go out of bounds.
    fn table(&self, table: TableId) -> &TableB {
        // tblint: allow(TB004) TableId is catalog-issued and dense; sole indexing point for reads
        &self.tables[table.0 as usize]
    }

    fn table_mut(&mut self, table: TableId) -> &mut TableB {
        // tblint: allow(TB004) TableId is catalog-issued and dense; sole indexing point for writes
        &mut self.tables[table.0 as usize]
    }
}

impl SequencedOps for SystemB {
    fn def(&self, table: TableId) -> &TableDef {
        self.catalog.def(table)
    }
    fn pending_time(&self) -> SysTime {
        self.now.next()
    }
    fn open_slots(&self, table: TableId, key: &Key) -> Vec<u64> {
        let t = self.table(table);
        open_slots_in(t.pk.as_ref(), key, || {
            t.cur_values
                .iter()
                .map(|(slot, _)| u64::from(slot.0))
                .collect()
        })
    }
    fn peek(&self, table: TableId, slot: u64) -> Option<Version> {
        self.version_of(table, slot)
    }
    fn close(&mut self, table: TableId, uid: u64, end: SysTime) -> Result<Version> {
        let Some(before) = self.version_of(table, uid) else {
            return Err(Error::Internal(format!(
                "closing uid {uid} with no live version"
            )));
        };
        let nontemporal = self.catalog.def(table).temporal == TemporalClass::NonTemporal;
        let t = self.table_mut(table);
        t.cur_values.remove(SlotId(uid as u32));
        t.cur_temporal.remove(&uid);
        if let Some(tix) = &mut t.cur_tindex {
            tix.close(uid, end);
        }
        if let Some(pk) = &mut t.pk {
            pk.remove(&before, uid);
        }
        for ix in &mut t.cur_indexes {
            ix.remove(&before, uid);
        }
        let mut closed = before.clone();
        closed.sys = SysPeriod::new(closed.sys.start, end);
        if !nontemporal && !closed.sys.is_empty() {
            t.undo.push((closed, HistoryMeta { txn: end.0, op: 0 }));
            if t.undo.len() >= UNDO_DRAIN_THRESHOLD {
                t.drain_undo();
            }
        }
        Ok(before)
    }
    fn insert_version_at(&mut self, table: TableId, version: Version) -> u64 {
        let t = self.table_mut(table);
        let slot = t.cur_values.insert(version.row.clone());
        let uid = u64::from(slot.0);
        t.cur_temporal.insert(uid, (version.app, version.sys.start));
        if let Some(pk) = &mut t.pk {
            pk.insert(&version, uid);
        }
        for ix in &mut t.cur_indexes {
            ix.insert(&version, uid);
        }
        if let Some(tix) = &mut t.cur_tindex {
            tix.insert(uid, version.app, version.sys);
        }
        uid
    }
}

impl BitemporalEngine for SystemB {
    fn name(&self) -> &'static str {
        "System B"
    }

    fn architecture(&self) -> &'static str {
        "row store; current table vertically partitioned (values / temporal metadata, \
         merge-joined at access time); undo-log staging into a history table that carries \
         transaction-id and operation metadata"
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
        self.tables.push(TableB {
            pk,
            ..TableB::default()
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
            t.drain_undo();
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
            let recon = t.reconstruct_current();
            for ix in &mut t.cur_indexes {
                for (uid, v) in &recon.0 {
                    ix.insert(v, *uid);
                }
            }
            let hist_entries: Vec<(u64, Version)> = t
                .history
                .iter()
                .map(|(s, v)| (u64::from(s.0), v.clone()))
                .collect();
            for ix in &mut t.hist_indexes {
                for (slot, v) in &hist_entries {
                    ix.insert(v, *slot);
                }
            }
            t.tindex = (tuning.temporal_index && def.has_system_time())
                .then(|| build_heap_tindex(format!("tx_hist_{}", def.name), &t.history));
            t.cur_tindex = (tuning.temporal_index && def.has_system_time()).then(|| {
                TemporalIndex::build(
                    format!("tx_cur_{}", def.name),
                    bitempo_tindex::timeline::DEFAULT_CHECKPOINT_EVERY,
                    recon.0.iter().map(|(uid, v)| (*uid, v.app, v.sys)),
                )
            });
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
            SysPeriod::since(self.pending_time())
        };
        self.insert_version_at(table, Version { row, app, sys });
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
        let _span = obs::span_dyn("engine", || format!("System B scan {}", def.name));
        let mut rows = Vec::new();
        let mut paths = Vec::new();
        let mut metrics = ScanMetrics::default();
        let site = |partition| ScanSite {
            engine: "System B",
            table: &def.name,
            partition,
        };

        // Current partition: every *temporal* table pays the
        // vertical-partition merge join; non-temporal tables are stored as
        // plain rows (System B only splits tables with system versioning).
        let recon = if def.temporal == TemporalClass::NonTemporal {
            let mut out: Vec<(u64, Version)> = t
                .cur_values
                .iter()
                .map(|(slot, row)| {
                    (
                        u64::from(slot.0),
                        Version {
                            row: row.clone(),
                            app: AppPeriod::ALL,
                            sys: bitempo_core::SysPeriod::ALL,
                        },
                    )
                })
                .collect();
            out.sort_by_key(|(uid, _)| *uid);
            Reconstructed(out)
        } else {
            t.reconstruct_current()
        };
        let cur_view = PartitionView {
            source: &recon,
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
            // Staged, not-yet-drained undo entries form a third partition
            // that only sequential access can see.
            if !t.undo.is_empty() {
                let staged = Reconstructed(
                    t.undo
                        .iter()
                        .enumerate()
                        .map(|(i, (v, _))| (i as u64, v.clone()))
                        .collect(),
                );
                let undo_view = PartitionView {
                    source: &staged,
                    pk: None,
                    indexes: &[],
                    gist: None,
                    tindex: None,
                };
                paths.push(scan_partition(
                    site("staging"),
                    &undo_view,
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
        }
        let out = ScanOutput {
            access: merge_access(paths.clone()),
            partition_paths: paths,
            rows,
            metrics,
        };
        #[cfg(debug_assertions)]
        crate::api::validate_scan_output(def, sys, app, preds, &out)
            .unwrap_or_else(|msg| panic!("System B scan postcondition: {msg}"));
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
            current_rows: t.cur_values.len(),
            history_rows: t.history.len() + t.undo.len(),
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
        for t in &mut self.tables {
            t.drain_undo();
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
                heap_bytes: t.cur_values.memory_bytes() + t.history.memory_bytes(),
                open_versions: t.cur_values.len(),
            })
            .sum()
    }

    fn snapshot_versions(&self, table: TableId) -> Result<Vec<Version>> {
        let t = self.table(table);
        let mut out: Vec<Version> = t
            .reconstruct_current()
            .0
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        out.extend(t.history.iter().map(|(_, v)| v.clone()));
        // Staged undo entries are part of logical history even before the
        // background writer drains them (snapshots taken after checkpoint
        // find this empty).
        out.extend(t.undo.iter().map(|(v, _)| v.clone()));
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
        *self.table_mut(table) = TableB {
            pk,
            ..TableB::default()
        };
        for v in versions {
            if v.sys.is_current() {
                self.insert_version_at(table, v);
            } else {
                // Closed versions land directly in the drained history, with
                // the metadata the undo-log path would have recorded: the
                // closing commit's transaction id and the supersede op code.
                let meta = HistoryMeta {
                    txn: v.sys.end.0,
                    op: 0,
                };
                let t = self.table_mut(table);
                let slot = t.history.insert(v);
                debug_assert_eq!(u64::from(slot.0) as usize, t.hist_meta.len());
                t.hist_meta.push(meta);
            }
        }
        self.table_mut(table).rebuild_compressed_layout();
        self.now = now;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AccessPath;
    use crate::testutil::{bitemp_table, insert_rows, simple_row};
    use bitempo_core::{AppDate, Period};

    #[test]
    fn basic_dml_and_time_travel() {
        let mut e = SystemB::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 10), (2, 20)]);
        let t1 = e.now();
        e.update(t, &Key::int(1), &[(1, Value::Int(11))], None)
            .unwrap();
        e.commit();
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
        let out = e.scan(t, &SysSpec::AsOf(t1), &AppSpec::All, &[]).unwrap();
        let mut vals: Vec<i64> = out
            .rows
            .iter()
            .map(|r| r.get(1).as_int().unwrap())
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![10, 20]);
    }

    #[test]
    fn undo_log_stages_until_threshold() {
        let mut e = SystemB::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 0)]);
        // A handful of updates stays in the undo log...
        for i in 0..5 {
            e.update(t, &Key::int(1), &[(1, Value::Int(i))], None)
                .unwrap();
            e.commit();
        }
        let tb = &e.tables[0];
        assert_eq!(tb.undo.len(), 5);
        assert_eq!(tb.history.len(), 0);
        // ...but history queries still see the staged versions.
        let out = e.scan(t, &SysSpec::All, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows.len(), 6);
        // Crossing the threshold drains.
        for i in 0..(UNDO_DRAIN_THRESHOLD as i64) {
            e.update(t, &Key::int(1), &[(1, Value::Int(100 + i))], None)
                .unwrap();
            e.commit();
        }
        let tb = &e.tables[0];
        assert!(tb.history.len() >= UNDO_DRAIN_THRESHOLD);
        assert_eq!(tb.hist_meta.len(), tb.history.len());
        // checkpoint drains the remainder.
        e.checkpoint();
        assert!(e.tables[0].undo.is_empty());
        let out = e.scan(t, &SysSpec::All, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows.len(), 6 + UNDO_DRAIN_THRESHOLD);
    }

    #[test]
    fn reconstruction_joins_value_and_temporal_parts() {
        let mut e = SystemB::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        e.insert(
            t,
            simple_row(1, 10),
            Some(Period::new(AppDate(5), AppDate(15))),
        )
        .unwrap();
        e.commit();
        let recon = e.tables[0].reconstruct_current();
        assert_eq!(recon.0.len(), 1);
        let v = &recon.0[0].1;
        assert_eq!(v.app, Period::new(AppDate(5), AppDate(15)));
        assert!(v.sys.is_current());
        assert_eq!(v.row.get(1), &Value::Int(10));
    }

    #[test]
    fn key_lookup_uses_pk_but_still_reconstructs() {
        let mut e = SystemB::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 1), (2, 2), (3, 3)]);
        let out = e
            .lookup_key(t, &Key::int(2), &SysSpec::Current, &AppSpec::All)
            .unwrap();
        assert!(matches!(out.access, AccessPath::KeyLookup(_)));
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(1), &Value::Int(2));
    }

    #[test]
    fn sequenced_portion_update_matches_system_a() {
        // The same scenario as SystemA's test, proving engines agree.
        let mut a = crate::SystemA::new();
        let mut b = SystemB::new();
        for e in [&mut a as &mut dyn BitemporalEngine, &mut b] {
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
        }
        let ta = a.resolve("t").unwrap();
        let tb = b.resolve("t").unwrap();
        let mut ra = a.scan(ta, &SysSpec::All, &AppSpec::All, &[]).unwrap().rows;
        let mut rb = b.scan(tb, &SysSpec::All, &AppSpec::All, &[]).unwrap().rows;
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }

    #[test]
    fn tuning_rebuild_covers_staged_history() {
        let mut e = SystemB::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 0)]);
        for i in 0..10 {
            e.update(t, &Key::int(1), &[(1, Value::Int(i))], None)
                .unwrap();
            e.commit();
        }
        e.apply_tuning(&TuningConfig::key_time()).unwrap();
        assert!(e.tables[0].undo.is_empty(), "tuning drains the undo log");
        let out = e
            .lookup_key(t, &Key::int(1), &SysSpec::All, &AppSpec::All)
            .unwrap();
        assert_eq!(out.rows.len(), 11);
        assert!(matches!(out.access, AccessPath::KeyLookup(_)));
    }

    #[test]
    fn temporal_tuning_probes_drained_history() {
        let mut e = SystemB::new();
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
        e.apply_tuning(&TuningConfig::temporal()).unwrap();
        // Maintenance after tuning: versions entering history through the
        // undo-log drain keep feeding the index.
        for i in 0..(UNDO_DRAIN_THRESHOLD as i64 + 1) {
            e.update(t, &Key::int(1), &[(1, Value::Int(500 + i))], None)
                .unwrap();
            e.commit();
        }
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
}
