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
//!    absorbs the cost of rewriting the compressed history's open tail
//!    segment, producing the paper's far-above-median 97th percentile
//!    loading latencies (§5.8, Fig 16) while total load stays linear.

use crate::api::{KeyStructuresFootprint, SysSpec, TableStats, TuningConfig};
use crate::index::OrderedIndex;
use crate::partindex::{
    built_pk_index, heap_entries, open_slots_in, system_pk_index, Part, PartIndexes,
};
use crate::rowscan::{PartitionView, Reconstructed};
use crate::shell::{Engine, TableLayout};
use crate::version::Version;
use bitempo_core::{
    AppPeriod, Error, Key, Result, Row, SysPeriod, SysTime, TableDef, TemporalClass, Value,
};
use bitempo_storage::{Heap, SlotId};
use bitempo_tindex::TemporalIndex;
use std::mem::size_of;

/// The System B engine. See module docs.
pub type SystemB = Engine<TableB>;

// A value-part slot, full or free, takes what `Option<Row>` would.
const _: () = assert!(Heap::<Row>::SLOT_BYTES == 16);

/// Bytes one slot of the current table's temporal part takes: an
/// application period and a system start.
pub const TEMPORAL_SLOT_BYTES: usize = size_of::<(AppPeriod, SysTime)>();
const _: () = assert!(TEMPORAL_SLOT_BYTES == 24);

/// Undo-log entries drained to the history table per batch. Roughly 3 % of
/// single-scenario load transactions trigger a drain, matching the paper's
/// "5 % of the values were two orders of magnitude higher" (§5.8).
const UNDO_DRAIN_THRESHOLD: usize = 32;

/// Drained versions per sealed segment of the compressed history image.
/// Bounds what one drain rewrites — and so the Fig 16 spike — by a model
/// constant instead of the history size.
const HISTORY_SEGMENT: usize = 1024;

/// Operation metadata recorded with each history record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryMeta {
    /// Transaction identifier (the closing commit's logical time).
    pub txn: u64,
    /// Update query type (0 = supersede; reserved codes for future use).
    pub op: u8,
}

impl HistoryMeta {
    /// What superseding `closed` records: the closing commit's transaction
    /// id and the supersede op code.
    fn supersede(closed: &Version) -> HistoryMeta {
        HistoryMeta {
            txn: closed.sys.end.0,
            op: 0,
        }
    }
}

/// System B's table layout. See module docs.
#[derive(Debug, Default)]
pub struct TableB {
    /// Value part of the current table — no temporal columns.
    cur_values: Heap<Row>,
    /// Temporal part of the current table, vertically partitioned away:
    /// the application period and system start of the version in value
    /// slot `i`, at index `i`. A freed slot's entry stays until an insert
    /// reuses the slot; `cur_values` decides liveness, so nothing reads it.
    cur_temporal: Vec<(AppPeriod, SysTime)>,
    history: Heap<Version>,
    hist_meta: Vec<HistoryMeta>,
    /// The undo log: closed versions staged for the history table, which
    /// records their metadata as it drains them.
    undo: Vec<Version>,
    /// System-defined PK index over the current partition; also resolves a
    /// key's open versions for sequenced DML (see `partindex::open_slots_in`).
    pk: Option<OrderedIndex>,
    /// Tuning and temporal indexes over the current partition, keyed by the
    /// uids the vertically partitioned sides share, so probe candidates
    /// resolve through the reconstructed merge-join view.
    pub(crate) cur: PartIndexes,
    /// Tuning and temporal indexes over the *drained* history partition.
    /// Staged undo entries are invisible to them by design — the staging
    /// partition stays sequential-only, mirroring how System B's background
    /// writer is the only process that touches the optimized history format.
    pub(crate) hist: PartIndexes,
    /// The history table's physical layout: slots ordered by closing time
    /// within each `HISTORY_SEGMENT`-sized segment of drain order. System B
    /// stores history "in an optimized and compressed format using a
    /// background process" (paper §2.4/§5.8) — this is that format, and
    /// rewriting its open tail on every undo-log drain is what makes ~3 % of
    /// load transactions far slower than the median (Fig 16).
    hist_layout: Vec<u32>,
    /// Digest of each sealed segment's compressed image, then the open
    /// tail's (recomputed on every drain).
    segment_digests: Vec<u64>,
    /// Versions the history writer has re-encoded, in total.
    rewritten: u64,
}

impl TableB {
    /// The sort/merge reconstruction of the current partition: collects
    /// the value part and the temporal part of every open version, each
    /// side into a buffer sized exactly, and joins them. Both sides are
    /// sorted even though they arrive in uid order — System B's observed
    /// plan sorts both inputs (paper §5.3.1). A non-temporal table is
    /// stored as plain rows (System B only splits tables with system
    /// versioning); its temporal side is "valid at all times".
    fn reconstruct(&self, def: &TableDef) -> Reconstructed<'_> {
        let split = def.temporal != TemporalClass::NonTemporal;
        let open = self.cur_values.len();
        let (mut values, mut periods) = (Vec::with_capacity(open), Vec::with_capacity(open));
        for (uid, v) in self.open_versions() {
            values.push((uid, v.row));
            let (app, start) = if split {
                (v.app, v.sys.start)
            } else {
                (AppPeriod::ALL, SysPeriod::ALL.start)
            };
            periods.push((uid, app, start));
        }
        Reconstructed::join(values, periods)
    }

    fn drain_undo(&mut self) {
        if self.undo.is_empty() {
            return;
        }
        for v in self.undo.drain(..) {
            // History slots are dense (nothing is ever removed from it).
            let slot64 = self.hist_meta.len() as u64;
            self.hist.insert(&v, slot64);
            let meta = HistoryMeta::supersede(&v);
            let slot = self.history.insert(v);
            debug_assert_eq!(u64::from(slot.0), slot64);
            self.hist_meta.push(meta);
        }
        self.hist.prepare();
        self.write_tail();
    }

    /// The background writer keeps the history "in an optimized and
    /// compressed format" as sealed segments of `HISTORY_SEGMENT` versions
    /// in drain order plus one open tail. Each call re-sorts the tail by
    /// closing time and re-encodes every payload byte of it — at most
    /// `HISTORY_SEGMENT + UNDO_DRAIN_THRESHOLD` versions, absorbed by
    /// whichever transaction crossed the threshold: the mechanism behind
    /// the paper's far-above-median 97th-percentile load spikes. A tail
    /// that reaches the segment size is sealed and never rewritten, so the
    /// total work stays linear in the history. Checkpoint restore lays out
    /// the whole history through this one call, because the layout is
    /// physical state an uncrashed engine would have.
    fn write_tail(&mut self) {
        let first = self.hist_layout.len() / HISTORY_SEGMENT * HISTORY_SEGMENT;
        self.hist_layout.truncate(first);
        self.segment_digests.truncate(first / HISTORY_SEGMENT);
        let len = self.history.len();
        for start in (first..len).step_by(HISTORY_SEGMENT) {
            let range = start..len.min(start + HISTORY_SEGMENT);
            let mut tail: Vec<(u64, u32, &Version)> = self
                .history
                .iter_range(range.clone())
                .map(|(slot, v)| (v.sys.end.0, slot.0, v))
                .collect();
            tail.sort_unstable_by_key(|&(end, slot, _)| (end, slot));
            let mut digest: u64 = 0;
            for (_, slot, v) in tail {
                for value in v.row.values() {
                    digest = digest.wrapping_mul(31).wrapping_add(encode(value));
                }
                self.hist_layout.push(slot);
            }
            self.segment_digests.push(digest);
            self.rewritten += range.len() as u64;
        }
    }
}

/// One value's compressed image. Walks every payload byte, like the real
/// compressor would.
fn encode(value: &Value) -> u64 {
    match value {
        Value::Str(s) => s.as_bytes().iter().fold(0u64, |acc, &b| {
            acc.wrapping_mul(31).wrapping_add(u64::from(b))
        }),
        Value::Null => 1,
        Value::Int(i) => *i as u64,
        Value::Double(d) => d.to_bits(),
        Value::Date(d) => d.0 as u64,
        Value::SysTime(t) => t.0,
    }
}

impl TableB {
    /// Every open version, its two vertical halves side by side, in uid
    /// order: one slot of each array at a time, nothing materialised.
    fn open_versions(&self) -> impl Iterator<Item = (u64, Version<&Row>)> {
        self.cur_values.iter().filter_map(|(slot, row)| {
            let &(app, start) = self.cur_temporal.get(slot.0 as usize)?;
            let sys = SysPeriod::since(start);
            Some((u64::from(slot.0), Version { row, app, sys }))
        })
    }

    /// Joins the two vertical halves of one open version.
    fn version_of(&self, uid: u64) -> Option<Version> {
        let row = self.cur_values.get(SlotId(uid as u32))?.clone();
        let &(app, start) = self.cur_temporal.get(uid as usize)?;
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
    fn close(&mut self, def: &TableDef, uid: u64, end: SysTime) -> Result<()> {
        let Some(before) = self.version_of(uid) else {
            return Err(Error::Internal(format!(
                "closing uid {uid} with no live version"
            )));
        };
        self.cur_values.remove(SlotId(uid as u32));
        self.cur.close(&before, uid, end);
        if let Some(pk) = &mut self.pk {
            pk.remove(&before, uid);
        }
        let mut closed = before;
        closed.sys = SysPeriod::new(closed.sys.start, end);
        if def.temporal != TemporalClass::NonTemporal && !closed.sys.is_empty() {
            self.undo.push(closed);
            if self.undo.len() >= UNDO_DRAIN_THRESHOLD {
                self.drain_undo();
            }
        }
        Ok(())
    }

    fn insert_version(&mut self, _: &TableDef, version: Version) -> u64 {
        // The row is shared, not moved into the heap: the temporal part has
        // to grow right after the value part, before the index inserts
        // allocate, and a stored row cannot stay borrowed across that.
        // Indexing first raised `query_scan`'s peak RSS by 1 MiB of 96.
        let slot = self.cur_values.insert(version.row.clone());
        let temporal = (version.app, version.sys.start);
        match self.cur_temporal.get_mut(slot.0 as usize) {
            Some(stale) => *stale = temporal,
            None => {
                // The value part grew past its last slot; the temporal part
                // follows it, to the same capacity.
                let spare = self.cur_values.capacity() - self.cur_temporal.len();
                self.cur_temporal.reserve_exact(spare);
                self.cur_temporal.push(temporal);
            }
        }
        let uid = u64::from(slot.0);
        if let Some(pk) = &mut self.pk {
            pk.insert(&version, uid);
        }
        self.cur.insert(&version, uid);
        uid
    }

    fn partitions(
        &self,
        def: &TableDef,
        sys: &SysSpec,
        scan: &mut dyn FnMut(&'static str, &PartitionView<'_>) -> Result<()>,
    ) -> Result<()> {
        // Current partition: every access pays the vertical-partition
        // merge join.
        let recon = self.reconstruct(def);
        scan("current", &self.cur.view(&recon, self.pk.as_ref()))?;
        if sys.current_only() || !def.has_system_time() {
            return Ok(());
        }
        scan("history", &self.hist.view(&self.history, None))?;
        // Staged, not-yet-drained undo entries form a third partition that
        // only sequential access can see.
        if self.undo.is_empty() {
            return Ok(());
        }
        scan("staging", &PartIndexes::default().view(&self.undo, None))
    }

    fn retune(&mut self, def: &TableDef, tuning: &TuningConfig) -> Result<()> {
        self.drain_undo();
        // Nothing reads the old sets while the new ones are built.
        (self.cur, self.hist) = Default::default();
        // Building an index is no query: it walks the two parts slot by
        // slot and joins nothing.
        self.cur = PartIndexes::build(def, tuning, Part::Current, || self.open_versions())?;
        self.hist = PartIndexes::build(def, tuning, Part::History, || heap_entries(&self.history))?;
        Ok(())
    }

    fn checkpoint(&mut self, _: &TableDef) {
        // The current table's slack goes before the drain grows history.
        self.cur_values.shrink_to_fit();
        self.cur_temporal.shrink_to_fit();
        self.drain_undo();
        self.hist.prepare();
        self.cur.prepare();
        self.history.shrink_to_fit();
        self.hist_meta.shrink_to_fit();
        self.hist_layout.shrink_to_fit();
    }

    fn stats(&self) -> TableStats {
        TableStats {
            current_rows: self.cur_values.len(),
            history_rows: self.history.len() + self.undo.len(),
        }
    }

    fn temporal_indexes(&self) -> [Option<&TemporalIndex>; 2] {
        [self.hist.tindex(), self.cur.tindex()]
    }

    fn key_structures_footprint(&self) -> KeyStructuresFootprint {
        KeyStructuresFootprint {
            key_bytes: self.pk.as_ref().map_or(0, OrderedIndex::memory_bytes),
            heap_bytes: self.cur_values.memory_bytes()
                + self.cur_temporal.capacity() * TEMPORAL_SLOT_BYTES
                + self.history.memory_bytes(),
            tuning_index_bytes: self.cur.tuning_bytes() + self.hist.tuning_bytes(),
            open_versions: self.cur_values.len(),
        }
    }

    fn for_each_version(&self, _: &TableDef, f: &mut dyn FnMut(&Version)) {
        // One open version joined at a time, in uid order — what the
        // reconstruction would yield, without materialising all of it.
        for (slot, _) in self.cur_values.iter() {
            if let Some(v) = self.version_of(u64::from(slot.0)) {
                f(&v);
            }
        }
        self.history.iter().for_each(|(_, v)| f(v));
        // Staged undo entries are part of logical history even before the
        // background writer drains them (snapshots taken after checkpoint
        // find this empty).
        self.undo.iter().for_each(f);
    }

    fn restore_from(def: &TableDef, versions: Vec<Version>) -> Result<TableB> {
        let open = versions.iter().filter(|v| v.sys.is_current()).count();
        let closed = versions.len() - open;
        let mut t = TableB {
            cur_values: Heap::with_capacity(open),
            cur_temporal: Vec::with_capacity(open),
            history: Heap::with_capacity(closed),
            hist_meta: Vec::with_capacity(closed),
            hist_layout: Vec::with_capacity(closed),
            ..TableB::default()
        };
        for v in versions {
            if v.sys.is_current() {
                let slot = t.cur_values.insert(v.row);
                debug_assert_eq!(slot.0 as usize, t.cur_temporal.len());
                t.cur_temporal.push((v.app, v.sys.start));
            } else {
                // Closed versions land directly in the drained history, with
                // the metadata the undo-log path would have recorded.
                let meta = HistoryMeta::supersede(&v);
                let slot = t.history.insert(v);
                debug_assert_eq!(slot.0 as usize, t.hist_meta.len());
                t.hist_meta.push(meta);
            }
        }
        t.write_tail();
        t.pk = built_pk_index(def, t.open_versions());
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AccessPath, AppSpec, BitemporalEngine};
    use crate::rowscan::VersionSource;
    use crate::slack_tests::{vec_spare, SlotArrays};
    use crate::testutil::{bitemp_table, insert_rows, simple_row};
    use bitempo_core::{AppDate, Period, Value};
    use std::collections::BTreeMap;

    impl SlotArrays for TableB {
        fn spare_bytes(&self) -> usize {
            self.cur_values.spare_bytes()
                + vec_spare(&self.cur_temporal)
                + self.history.spare_bytes()
                + vec_spare(&self.hist_meta)
                + vec_spare(&self.hist_layout)
        }
    }

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
    fn updates_leave_the_current_table_one_slot_per_key() {
        let mut e = SystemB::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        let keys: Vec<(i64, i64)> = (0..40).map(|k| (k, 0)).collect();
        insert_rows(&mut e, t, &keys);
        for round in 1..=10 {
            for k in 0..40 {
                e.update(t, &Key::int(k), &[(1, Value::Int(round))], None)
                    .unwrap();
            }
            e.commit();
        }
        let table = &e.tables[0];
        assert_eq!(
            table.cur_values.allocated(),
            40,
            "each successor took a freed uid"
        );
        assert_eq!(table.cur_temporal.len(), table.cur_values.allocated());
        assert_eq!(e.stats(t).history_rows, 400);
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert!(out.rows.iter().all(|r| r.get(1) == &Value::Int(10)));
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
        let recon = e.tables[0].reconstruct(e.table_def(t));
        assert_eq!(recon.len(), 1);
        let (_, v) = recon.versions(0..1).next().unwrap();
        assert_eq!(v.app, Period::new(AppDate(5), AppDate(15)));
        assert!(v.sys.is_current());
        assert_eq!(v.row.get(1), &Value::Int(10));
    }

    /// Updates, deletes, and inserts that take freed uids. A freed uid keeps
    /// its stale temporal entry, yet `peek` finds nothing there, neither a
    /// `Current` scan nor a PK probe surfaces it, and the joined current
    /// partition is `for_each_version`'s open versions, in uid order.
    #[test]
    fn churn_never_surfaces_a_freed_uid() {
        let mut e = SystemB::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        let initial: Vec<(i64, i64)> = (0..24).map(|k| (k, k)).collect();
        insert_rows(&mut e, t, &initial);
        // Key → (value, system start) of its open version.
        let mut model: BTreeMap<i64, (i64, SysTime)> = BTreeMap::new();
        for (k, v) in e
            .scan(t, &SysSpec::Current, &AppSpec::All, &[])
            .unwrap()
            .rows
            .iter()
            .map(key_val_start)
        {
            model.insert(k, v);
        }
        let (mut next_key, mut freed_seen) = (24, 0);
        for round in 0..30i64 {
            let keys: Vec<i64> = model.keys().copied().collect();
            let mut written = Vec::new();
            for &k in keys.iter().filter(|&&k| (k + round) % 3 == 0) {
                e.update(t, &Key::int(k), &[(1, Value::Int(100 + round))], None)
                    .unwrap();
                written.push((k, 100 + round));
            }
            for &k in keys.iter().skip(round as usize % 5).step_by(5) {
                assert_eq!(e.delete(t, &Key::int(k), None).unwrap(), 1);
                written.retain(|&(w, _)| w != k);
                model.remove(&k);
            }
            for _ in 0..round % 6 {
                e.insert(t, simple_row(next_key, round), None).unwrap();
                written.push((next_key, round));
                next_key += 1;
            }
            let at = e.commit();
            model.extend(written.into_iter().map(|(k, v)| (k, (v, at))));

            let (table, def) = (&e.tables[0], e.table_def(t));
            let live: Vec<u64> = table
                .cur_values
                .iter()
                .map(|(s, _)| u64::from(s.0))
                .collect();
            assert_eq!(table.cur_temporal.len(), table.cur_values.allocated());
            for uid in (0..table.cur_values.allocated() as u64).filter(|u| !live.contains(u)) {
                assert!(
                    table.cur_temporal.get(uid as usize).is_some(),
                    "stale entry kept"
                );
                assert_eq!(table.peek(def, uid), None, "round {round}: freed uid {uid}");
                freed_seen += 1;
            }
            let recon = table.reconstruct(def);
            let joined: Vec<(u64, Version)> = recon
                .versions(0..recon.len())
                .map(|(uid, v)| {
                    (
                        uid,
                        Version {
                            row: v.row.clone(),
                            app: v.app,
                            sys: v.sys,
                        },
                    )
                })
                .collect();
            let open: Vec<Version> = versions(table, def)
                .into_iter()
                .filter(|v| v.sys.is_current())
                .collect();
            assert!(joined.iter().map(|(uid, _)| *uid).eq(live), "round {round}");
            assert!(joined.into_iter().map(|(_, v)| v).eq(open), "round {round}");

            let scanned = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
            let mut current: Vec<(i64, (i64, SysTime))> =
                scanned.rows.iter().map(key_val_start).collect();
            current.sort_unstable();
            assert!(current.into_iter().eq(model.clone()), "round {round}");
            for k in 0..next_key {
                let out = e
                    .lookup_key(t, &Key::int(k), &SysSpec::Current, &AppSpec::All)
                    .unwrap();
                assert!(matches!(out.access, AccessPath::KeyLookup(_)));
                let found: Vec<(i64, (i64, SysTime))> =
                    out.rows.iter().map(key_val_start).collect();
                let expected = Vec::from_iter(model.get(&k).map(|&v| (k, v)));
                assert_eq!(found, expected, "round {round}: key {k}");
            }
        }
        assert!(freed_seen > 0, "some rounds end with freed uids");
    }

    /// An output row of `bitemp_table` as (key, (value, system start)).
    fn key_val_start(row: &Row) -> (i64, (i64, SysTime)) {
        let int = |c: usize| row.get(c).as_int().unwrap();
        let Value::SysTime(start) = row.get(4) else {
            panic!("column 4 is sys_start: {row:?}");
        };
        (int(0), (int(1), *start))
    }

    /// Retuning builds its indexes over the current partition slot by slot,
    /// without the access-time join, and every tuning serves the same rows.
    #[test]
    fn retune_builds_without_the_join_and_keeps_the_answers() {
        let mut e = SystemB::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 1), (2, 2), (3, 3)]);
        for i in 0..(UNDO_DRAIN_THRESHOLD as i64 + 3) {
            e.update(t, &Key::int(1 + i % 3), &[(1, Value::Int(10 + i))], None)
                .unwrap();
            e.commit();
        }
        let specs = [SysSpec::Current, SysSpec::All, SysSpec::AsOf(SysTime(4))];
        let rows = |e: &SystemB| -> Vec<Vec<Row>> {
            specs
                .iter()
                .map(|sys| e.scan(t, sys, &AppSpec::All, &[]).unwrap().rows)
                .collect()
        };
        let before = rows(&e);
        for tuning in [
            TuningConfig::none(),
            TuningConfig::key_time(),
            TuningConfig::temporal(),
        ] {
            e.apply_tuning(&tuning).unwrap();
            assert_eq!(rows(&e), before);
        }
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

    /// A table holding one open version of key 1.
    fn one_key_table(def: &TableDef) -> TableB {
        let mut t = TableB::new(def);
        t.insert_version(
            def,
            Version {
                row: simple_row(1, 0),
                app: AppPeriod::ALL,
                sys: SysPeriod::since(SysTime(1)),
            },
        );
        t
    }

    /// Supersedes key 1 `closes` times straight through the layout, calling
    /// `on_drain(t, versions rewritten)` after every threshold drain.
    fn churn(
        t: &mut TableB,
        def: &TableDef,
        closes: usize,
        mut on_drain: impl FnMut(&TableB, u64),
    ) {
        for _ in 0..closes {
            let uid = t.open_slots(&Key::int(1))[0];
            let open = t.peek(def, uid).unwrap();
            let end = SysTime(open.sys.start.0 + 1);
            let before = t.rewritten;
            t.close(def, uid, end).unwrap();
            if t.undo.is_empty() {
                on_drain(t, t.rewritten - before);
            }
            t.insert_version(
                def,
                Version {
                    row: simple_row(1, end.0 as i64),
                    app: open.app,
                    sys: SysPeriod::since(end),
                },
            );
        }
    }

    /// Every version `t` stores, in snapshot order.
    fn versions(t: &TableB, def: &TableDef) -> Vec<Version> {
        let mut out = Vec::new();
        t.for_each_version(def, &mut |v| out.push(v.clone()));
        out
    }

    /// Segment `i` of `hist_layout` is a permutation of history slots
    /// `i * HISTORY_SEGMENT ..`, sorted by closing time; one digest each.
    fn assert_segmented_layout(t: &TableB) {
        let len = t.history.len();
        assert_eq!(t.hist_layout.len(), len);
        assert_eq!(t.segment_digests.len(), len.div_ceil(HISTORY_SEGMENT));
        for (i, seg) in t.hist_layout.chunks(HISTORY_SEGMENT).enumerate() {
            let end = |slot: u32| t.history.get(SlotId(slot)).unwrap().sys.end;
            assert!(
                seg.windows(2).all(|w| end(w[0]) <= end(w[1])),
                "segment {i}"
            );
            let mut slots = seg.to_vec();
            slots.sort_unstable();
            let first = (i * HISTORY_SEGMENT) as u32;
            assert!(
                slots.into_iter().eq(first..first + seg.len() as u32),
                "segment {i}"
            );
        }
    }

    #[test]
    fn history_writer_work_is_linear_in_history() {
        let def = bitemp_table("t");
        let bound = (HISTORY_SEGMENT / UNDO_DRAIN_THRESHOLD) as f64;
        let per_version = |closes| {
            let mut t = one_key_table(&def);
            churn(&mut t, &def, closes, |_, _| {});
            t.rewritten as f64 / t.history.len() as f64
        };
        // A whole-history rewrite per drain re-encodes ≈ H / 64 versions per
        // version: 78 at 5 k closes, 625 at 40 k.
        let (small, large) = (per_version(5_000), per_version(40_000));
        assert!(
            small <= bound && large <= bound,
            "{small:.1} / {large:.1} > {bound}"
        );
        assert!(
            large <= small * 1.1,
            "rewrites per version grow: {small:.1} → {large:.1}"
        );
    }

    #[test]
    fn every_threshold_drain_rewrites_a_bounded_tail() {
        let def = bitemp_table("t");
        let mut t = one_key_table(&def);
        let mut drains = 0;
        churn(&mut t, &def, 3 * HISTORY_SEGMENT + 100, |_, n| {
            drains += 1;
            let n = n as usize;
            assert!(
                (UNDO_DRAIN_THRESHOLD..=HISTORY_SEGMENT + UNDO_DRAIN_THRESHOLD).contains(&n),
                "drain {drains} rewrote {n}"
            );
        });
        assert_eq!(drains, (3 * HISTORY_SEGMENT + 100) / UNDO_DRAIN_THRESHOLD);
    }

    #[test]
    fn sealed_segments_are_never_rewritten() {
        let def = bitemp_table("t");
        let mut t = one_key_table(&def);
        let mut sealed: Vec<(u64, Vec<u32>)> = Vec::new();
        let mut check = |t: &TableB| {
            for i in 0..t.history.len() / HISTORY_SEGMENT {
                let image = (
                    t.segment_digests[i],
                    t.hist_layout[i * HISTORY_SEGMENT..(i + 1) * HISTORY_SEGMENT].to_vec(),
                );
                match sealed.get(i) {
                    Some(before) => assert_eq!(*before, image, "segment {i} was rewritten"),
                    None => sealed.push(image),
                }
            }
        };
        // Checkpoints drain partial batches, so segment boundaries fall
        // mid-batch as well as on one.
        for closes in [1_500, 700, 1_100] {
            churn(&mut t, &def, closes, |t, _| check(t));
            t.checkpoint(&def);
            check(&t);
        }
        assert_eq!(sealed.len(), 3);
    }

    #[test]
    fn layout_is_sorted_within_segments_after_drains_and_restore() {
        let def = bitemp_table("t");
        let mut t = one_key_table(&def);
        churn(&mut t, &def, 2_500, |t, _| assert_segmented_layout(t));
        t.checkpoint(&def);
        assert_segmented_layout(&t);
        // Restored from versions out of closing order, the layout still sorts
        // each segment.
        let mut versions = versions(&t, &def);
        versions[1..].reverse();
        let restored = TableB::restore_from(&def, versions).unwrap();
        assert_eq!(restored.history.len(), 2_500);
        assert_segmented_layout(&restored);
        assert_ne!(restored.hist_layout, t.hist_layout);
    }

    #[test]
    fn restore_then_drains_matches_an_uncrashed_twin() {
        let def = bitemp_table("t");
        let mut twin = one_key_table(&def);
        churn(&mut twin, &def, 1_500, |_, _| {});
        twin.checkpoint(&def);
        let mut restored = TableB::restore_from(&def, versions(&twin, &def)).unwrap();
        assert_eq!(restored.hist_layout, twin.hist_layout);
        assert_eq!(restored.segment_digests, twin.segment_digests);
        for t in [&mut twin, &mut restored] {
            churn(t, &def, 1_300, |_, _| {});
        }
        assert_eq!(versions(&restored, &def), versions(&twin, &def));
        assert_eq!(restored.hist_layout, twin.hist_layout);
        assert_eq!(restored.segment_digests, twin.segment_digests);
    }
}
