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

use crate::api::{KeyStructuresFootprint, SysSpec, TableStats, TuningConfig};
use crate::index::OrderedIndex;
use crate::rowscan::{PartitionView, Reconstructed};
use crate::shell::{Engine, TableLayout};
use crate::system_a::{
    build_heap_tindex, heap_entries, open_slots_in, ordered_indexes_bytes, ordered_indexes_over,
    system_pk_index, TuningDefs,
};
use crate::version::Version;
use bitempo_core::{
    AppPeriod, Error, Key, Result, Row, SysPeriod, SysTime, TableDef, TemporalClass,
};
use bitempo_storage::{Heap, SlotId};
use bitempo_tindex::TemporalIndex;
use std::collections::BTreeMap;

/// The System B engine. See module docs.
pub type SystemB = Engine<TableB>;

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

/// System B's table layout. See module docs.
#[derive(Debug, Default)]
pub struct TableB {
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
            let slot64 = u64::from(self.history.insert(v.clone()).0);
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

impl TableB {
    /// Joins the two vertical halves of one open version.
    fn version_of(&self, uid: u64) -> Option<Version> {
        let row = self.cur_values.get(SlotId(uid as u32))?.clone();
        let &(app, start) = self.cur_temporal.get(&uid)?;
        Some(Version {
            row,
            app,
            sys: SysPeriod::since(start),
        })
    }
}

impl TableLayout for TableB {
    const NAME: &'static str = "System B";
    const ARCHITECTURE: &'static str =
        "row store; current table vertically partitioned (values / temporal metadata, \
         merge-joined at access time); undo-log staging into a history table that carries \
         transaction-id and operation metadata";

    fn new(def: &TableDef) -> TableB {
        TableB {
            pk: system_pk_index(def),
            ..TableB::default()
        }
    }

    fn open_slots(&self, key: &Key) -> Vec<u64> {
        open_slots_in(self.pk.as_ref(), key, || {
            self.cur_values
                .iter()
                .map(|(slot, _)| u64::from(slot.0))
                .collect()
        })
    }

    fn peek(&self, _: &TableDef, slot: u64) -> Option<Version> {
        self.version_of(slot)
    }

    /// Stages the closed version in the undo log.
    fn close(&mut self, def: &TableDef, uid: u64, end: SysTime) -> Result<Version> {
        let Some(before) = self.version_of(uid) else {
            return Err(Error::Internal(format!(
                "closing uid {uid} with no live version"
            )));
        };
        self.cur_values.remove(SlotId(uid as u32));
        self.cur_temporal.remove(&uid);
        if let Some(tix) = &mut self.cur_tindex {
            tix.close(uid, end);
        }
        if let Some(pk) = &mut self.pk {
            pk.remove(&before, uid);
        }
        for ix in &mut self.cur_indexes {
            ix.remove(&before, uid);
        }
        let mut closed = before.clone();
        closed.sys = SysPeriod::new(closed.sys.start, end);
        if def.temporal != TemporalClass::NonTemporal && !closed.sys.is_empty() {
            self.undo.push((closed, HistoryMeta { txn: end.0, op: 0 }));
            if self.undo.len() >= UNDO_DRAIN_THRESHOLD {
                self.drain_undo();
            }
        }
        Ok(before)
    }

    fn insert_version(&mut self, _: &TableDef, version: Version) -> u64 {
        let uid = u64::from(self.cur_values.insert(version.row.clone()).0);
        self.cur_temporal
            .insert(uid, (version.app, version.sys.start));
        if let Some(pk) = &mut self.pk {
            pk.insert(&version, uid);
        }
        for ix in &mut self.cur_indexes {
            ix.insert(&version, uid);
        }
        if let Some(tix) = &mut self.cur_tindex {
            tix.insert(uid, version.app, version.sys);
        }
        uid
    }

    fn partitions(
        &self,
        def: &TableDef,
        sys: &SysSpec,
        scan: &mut dyn FnMut(&'static str, &PartitionView<'_>) -> Result<()>,
    ) -> Result<()> {
        // Current partition: every *temporal* table pays the
        // vertical-partition merge join; non-temporal tables are stored as
        // plain rows (System B only splits tables with system versioning).
        let recon = if def.temporal == TemporalClass::NonTemporal {
            let mut out: Vec<(u64, Version)> = self
                .cur_values
                .iter()
                .map(|(slot, row)| {
                    (
                        u64::from(slot.0),
                        Version {
                            row: row.clone(),
                            app: AppPeriod::ALL,
                            sys: SysPeriod::ALL,
                        },
                    )
                })
                .collect();
            out.sort_by_key(|(uid, _)| *uid);
            Reconstructed(out)
        } else {
            self.reconstruct_current()
        };
        scan(
            "current",
            &PartitionView {
                source: &recon,
                pk: self.pk.as_ref(),
                indexes: &self.cur_indexes,
                gist: None,
                tindex: self.cur_tindex.as_ref(),
            },
        )?;
        if sys.current_only() || !def.has_system_time() {
            return Ok(());
        }
        scan(
            "history",
            &PartitionView {
                source: &self.history,
                pk: self.hist_key_index.and_then(|i| self.hist_indexes.get(i)),
                indexes: &self.hist_indexes,
                gist: None,
                tindex: self.tindex.as_ref(),
            },
        )?;
        // Staged, not-yet-drained undo entries form a third partition that
        // only sequential access can see.
        if self.undo.is_empty() {
            return Ok(());
        }
        let staged = Reconstructed(
            self.undo
                .iter()
                .enumerate()
                .map(|(i, (v, _))| (i as u64, v.clone()))
                .collect(),
        );
        scan(
            "staging",
            &PartitionView {
                source: &staged,
                pk: None,
                indexes: &[],
                gist: None,
                tindex: None,
            },
        )
    }

    fn retune(&mut self, def: &TableDef, tuning: &TuningConfig) -> Result<()> {
        self.drain_undo();
        let defs = TuningDefs::build(def, tuning)?;
        let recon = self.reconstruct_current();
        self.cur_indexes =
            ordered_indexes_over(defs.cur, || recon.0.iter().map(|(uid, v)| (*uid, v)));
        self.hist_indexes = ordered_indexes_over(defs.hist, || heap_entries(&self.history));
        self.hist_key_index = defs.hist_key_index;
        let temporal = tuning.temporal_index && def.has_system_time();
        self.tindex =
            temporal.then(|| build_heap_tindex(format!("tx_hist_{}", def.name), &self.history));
        self.cur_tindex = temporal.then(|| {
            TemporalIndex::build(
                format!("tx_cur_{}", def.name),
                bitempo_tindex::timeline::DEFAULT_CHECKPOINT_EVERY,
                recon.0.iter().map(|(uid, v)| (*uid, v.app, v.sys)),
            )
        });
        Ok(())
    }

    fn checkpoint(&mut self, _: &TableDef) {
        self.drain_undo();
        for tix in self.tindex.iter_mut().chain(&mut self.cur_tindex) {
            tix.prepare();
        }
    }

    fn stats(&self) -> TableStats {
        TableStats {
            current_rows: self.cur_values.len(),
            history_rows: self.history.len() + self.undo.len(),
        }
    }

    fn temporal_indexes(&self) -> [Option<&TemporalIndex>; 2] {
        [self.tindex.as_ref(), self.cur_tindex.as_ref()]
    }

    fn key_structures_footprint(&self) -> KeyStructuresFootprint {
        KeyStructuresFootprint {
            key_bytes: self.pk.as_ref().map_or(0, OrderedIndex::memory_bytes),
            heap_bytes: self.cur_values.memory_bytes() + self.history.memory_bytes(),
            tuning_index_bytes: ordered_indexes_bytes(&self.cur_indexes)
                + ordered_indexes_bytes(&self.hist_indexes),
            open_versions: self.cur_values.len(),
        }
    }

    fn snapshot_versions(&self, _: &TableDef) -> Vec<Version> {
        let current = self.reconstruct_current().0;
        let mut out = Vec::with_capacity(current.len() + self.history.len() + self.undo.len());
        out.extend(current.into_iter().map(|(_, v)| v));
        out.extend(self.history.iter().map(|(_, v)| v.clone()));
        // Staged undo entries are part of logical history even before the
        // background writer drains them (snapshots taken after checkpoint
        // find this empty).
        out.extend(self.undo.iter().map(|(v, _)| v.clone()));
        out
    }

    fn restore_from(def: &TableDef, versions: Vec<Version>) -> Result<TableB> {
        let mut t = TableB::new(def);
        for v in versions {
            if v.sys.is_current() {
                t.insert_version(def, v);
            } else {
                // Closed versions land directly in the drained history, with
                // the metadata the undo-log path would have recorded: the
                // closing commit's transaction id and the supersede op code.
                let meta = HistoryMeta {
                    txn: v.sys.end.0,
                    op: 0,
                };
                let slot = t.history.insert(v);
                debug_assert_eq!(slot.0 as usize, t.hist_meta.len());
                t.hist_meta.push(meta);
            }
        }
        t.rebuild_compressed_layout();
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AccessPath, AppSpec, BitemporalEngine};
    use crate::testutil::{bitemp_table, insert_rows, simple_row};
    use bitempo_core::{AppDate, Period, Value};

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
