//! System A: a disk-based row store with native bitemporal support.
//!
//! Archetype (paper §2, §5.2): horizontal partitioning into a *current
//! table* and a *history table* with identical schemas; superseded versions
//! move to the history table **synchronously** at update time ("System A
//! saves data instantly to the history tables"); a system-defined
//! primary-key index exists on the current table only; the history table has
//! no indexes unless the tuning study adds them.

use crate::api::{KeyStructuresFootprint, SysSpec, TableStats, TuningConfig};
use crate::index::OrderedIndex;
use crate::partindex::{
    built_pk_index, heap_entries, open_slots_in, system_pk_index, Part, PartIndexes,
};
use crate::rowscan::PartitionView;
use crate::shell::{Engine, TableLayout};
use crate::version::Version;
use bitempo_core::{Error, Key, Result, SysPeriod, SysTime, TableDef, TemporalClass};
use bitempo_storage::{Heap, SlotId};
use bitempo_tindex::TemporalIndex;

/// The System A engine. See module docs.
pub type SystemA = Engine<TableA>;

// A version slot, full or free, takes what `Option<Version>` would.
const _: () = assert!(Heap::<Version>::SLOT_BYTES == 48);

/// System A's table layout. See module docs.
#[derive(Debug, Default)]
pub struct TableA {
    current: Heap<Version>,
    history: Heap<Version>,
    /// System-defined PK index over the current partition (absent on a
    /// table without key columns). It is also what sequenced DML resolves a
    /// key's open versions with: every entry is an open version.
    pk: Option<OrderedIndex>,
    /// Tuning and temporal indexes over the current partition. Without a
    /// temporal index, every time-travel scan pays a full pass over the open
    /// versions even when the probe instant predates almost all of them.
    pub(crate) cur: PartIndexes,
    /// Tuning and temporal indexes over the history partition, maintained
    /// at close time. The Key+Time index doubles as its "PK" access path.
    pub(crate) hist: PartIndexes,
}

impl TableLayout for TableA {
    const NAME: &'static str = "System A";
    const ARCHITECTURE: &'static str =
        "row store; current + history tables (same schema); synchronous history writes; \
         system PK index on current table only";

    fn new(def: &TableDef) -> TableA {
        TableA {
            pk: system_pk_index(def),
            ..TableA::default()
        }
    }

    fn open_slots(&self, key: &Key) -> Vec<u64> {
        open_slots_in(self.pk.as_ref(), key, || {
            heap_entries(&self.current).map(|(slot, _)| slot).collect()
        })
    }

    fn peek(&self, _: &TableDef, slot: u64) -> Option<Version> {
        self.current.get(SlotId(slot as u32)).cloned()
    }

    /// Moves the closed version to the history table.
    fn close(&mut self, def: &TableDef, slot64: u64, end: SysTime) -> Result<()> {
        let Some(mut v) = self.current.remove(SlotId(slot64 as u32)) else {
            return Err(Error::Internal(format!(
                "closing slot {slot64} with no live version"
            )));
        };
        // The slot leaves the current partition whatever its fate (archived,
        // discarded, or re-inserted in place).
        self.cur.close(&v, slot64, end);
        if let Some(pk) = &mut self.pk {
            pk.remove(&v, slot64);
        }
        v.sys = SysPeriod::new(v.sys.start, end);
        if def.temporal != TemporalClass::NonTemporal && !v.sys.is_empty() {
            let (h, archived) = self.history.store(v);
            self.hist.insert(archived, u64::from(h.0));
        }
        Ok(())
    }

    fn insert_version(&mut self, _: &TableDef, version: Version) -> u64 {
        let (slot, stored) = self.current.store(version);
        let slot64 = u64::from(slot.0);
        if let Some(pk) = &mut self.pk {
            pk.insert(stored, slot64);
        }
        self.cur.insert(stored, slot64);
        slot64
    }

    fn partitions(
        &self,
        def: &TableDef,
        sys: &SysSpec,
        scan: &mut dyn FnMut(&'static str, &PartitionView<'_>) -> Result<()>,
    ) -> Result<()> {
        scan("current", &self.cur.view(&self.current, self.pk.as_ref()))?;
        if sys.current_only() || !def.has_system_time() {
            return Ok(());
        }
        scan("history", &self.hist.view(&self.history, None))
    }

    fn retune(&mut self, def: &TableDef, tuning: &TuningConfig) -> Result<()> {
        // Nothing reads the old sets while the new ones are built.
        (self.cur, self.hist) = Default::default();
        self.cur = PartIndexes::build(def, tuning, Part::Current, || heap_entries(&self.current))?;
        self.hist = PartIndexes::build(def, tuning, Part::History, || heap_entries(&self.history))?;
        Ok(())
    }

    fn checkpoint(&mut self, _: &TableDef) {
        // History writes are synchronous (§5.2): nothing staged to flush.
        // The temporal index still uses the quiescent point to sort its
        // interval endpoint lists, and the slot arrays give back their
        // growth slack.
        self.hist.prepare();
        self.cur.prepare();
        self.current.shrink_to_fit();
        self.history.shrink_to_fit();
    }

    fn stats(&self) -> TableStats {
        TableStats {
            current_rows: self.current.len(),
            history_rows: self.history.len(),
        }
    }

    fn temporal_indexes(&self) -> [Option<&TemporalIndex>; 2] {
        [self.hist.tindex(), self.cur.tindex()]
    }

    fn key_structures_footprint(&self) -> KeyStructuresFootprint {
        KeyStructuresFootprint {
            key_bytes: self.pk.as_ref().map_or(0, OrderedIndex::memory_bytes),
            heap_bytes: self.current.memory_bytes() + self.history.memory_bytes(),
            tuning_index_bytes: self.cur.tuning_bytes() + self.hist.tuning_bytes(),
            open_versions: self.current.len(),
        }
    }

    fn for_each_version(&self, _: &TableDef, f: &mut dyn FnMut(&Version)) {
        self.current
            .iter()
            .chain(self.history.iter())
            .for_each(|(_, v)| f(v));
    }

    fn restore_from(def: &TableDef, versions: Vec<Version>) -> Result<TableA> {
        let open = versions.iter().filter(|v| v.sys.is_current()).count();
        let mut t = TableA {
            current: Heap::with_capacity(open),
            history: Heap::with_capacity(versions.len() - open),
            ..TableA::default()
        };
        for v in versions {
            // Open (and non-temporal) versions are the current table.
            if v.sys.is_current() {
                t.current.insert(v);
            } else {
                t.history.insert(v);
            }
        }
        t.pk = built_pk_index(def, heap_entries(&t.current));
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AccessPath, AppSpec, BitemporalEngine};
    use crate::slack_tests::SlotArrays;
    use crate::testutil::{bitemp_table, insert_rows, simple_row};
    use bitempo_core::{AppDate, Period, Value};

    impl SlotArrays for TableA {
        fn spare_bytes(&self) -> usize {
            self.current.spare_bytes() + self.history.spare_bytes()
        }
    }

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
    fn updates_leave_the_current_table_one_slot_per_key() {
        let mut e = SystemA::new();
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
            table.current.allocated(),
            40,
            "each successor took a freed slot"
        );
        assert_eq!(table.history.allocated(), 400);
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert!(out.rows.iter().all(|r| r.get(1) == &Value::Int(10)));
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
