//! System D: a conventional RDBMS with *simulated* temporal support.
//!
//! Archetype (paper §2.5 — PostgreSQL): no native temporal features at all.
//! Both periods are ordinary columns in one single table — no current/history
//! split — so the loader may set system timestamps itself and bulk-load the
//! history (paper §5.8: "its cost is much lower since we can set the
//! timestamps manually and perform a bulk load"). The price is paid at query
//! time: even implicit-current queries must wade through all versions
//! ("the missing current/history split of System D makes application time
//! history at current system time more expensive", §5.5.1). B-Tree *and*
//! GiST (R-Tree) indexes are available through tuning.
//!
//! Sequenced DML finds a key's open versions through the same system PK
//! index Systems A and B keep (`partindex::system_pk_index`), over open
//! versions only — the bookkeeping any *application* simulating temporal
//! tables must carry (paper §2.4: DML semantics fall to the application when
//! support is not native). It is not a query access path: the planner's key
//! index stays the Key+Time tuning index `ix_key_<t>`, one of the single
//! table's `PartIndexes` beside the GiST and the temporal index.

use crate::api::{KeyStructuresFootprint, SysSpec, TableStats, TuningConfig};
use crate::index::OrderedIndex;
use crate::partindex::{heap_entries, open_slots_in, system_pk_index, Part, PartIndexes};
use crate::rowscan::PartitionView;
use crate::shell::{Engine, TableLayout};
use crate::version::Version;
use bitempo_core::{Error, Key, Result, SysPeriod, SysTime, TableDef, TemporalClass};
use bitempo_storage::{Heap, SlotId};
use bitempo_tindex::TemporalIndex;

/// The System D engine. See module docs.
pub type SystemD = Engine<TableD>;

/// System D's table layout. See module docs.
#[derive(Debug, Default)]
pub struct TableD {
    /// The single physical table holding every version.
    all: Heap<Version>,
    /// Tuning B-Trees (the Key+Time one serves key lookups), GiST and
    /// temporal index over `all`, maintained at DML time: System D is the
    /// showcase for inline temporal-index maintenance because versions
    /// activate in commit order, keeping the event log monotone (except
    /// after manual-timestamp bulk loads, which the timeline's
    /// segment-skipping replay absorbs).
    pub(crate) indexes: PartIndexes,
    /// Open versions per key, for sequenced DML only; absent on a table
    /// without key columns. See module docs.
    pk: Option<OrderedIndex>,
    /// Open versions in `all`.
    open: usize,
}

impl TableLayout for TableD {
    const NAME: &'static str = "System D";
    const ARCHITECTURE: &'static str =
        "row store without temporal support; single table with explicit period columns; \
         manual timestamps and bulk load; B-Tree and GiST indexes via tuning";
    const MANUAL_SYSTEM_TIME: bool = true;

    fn new(def: &TableDef) -> TableD {
        TableD {
            pk: system_pk_index(def),
            ..TableD::default()
        }
    }

    fn open_slots(&self, key: &Key) -> Vec<u64> {
        open_slots_in(self.pk.as_ref(), key, || {
            heap_entries(&self.all)
                .filter(|(_, v)| v.sys.is_current())
                .map(|(slot, _)| slot)
                .collect()
        })
    }

    fn peek(&self, _: &TableDef, slot: u64) -> Option<Version> {
        self.all.get(SlotId(slot as u32)).cloned()
    }

    /// Ends the version's period in place.
    fn close(&mut self, def: &TableDef, slot64: u64, end: SysTime) -> Result<()> {
        let slot = SlotId(slot64 as u32);
        let Some(before) = self.all.get(slot) else {
            return Err(Error::Internal(format!(
                "closing slot {slot64} with no live version"
            )));
        };
        if let Some(pk) = &mut self.pk {
            pk.remove(before, slot64);
        }
        self.open -= 1;
        let never_visible = before.sys.start >= end;
        if def.temporal == TemporalClass::NonTemporal || never_visible {
            // Non-versioned tables (and never-visible versions) vanish.
            // GiST entries are left stale: the tombstoned slot resolves to
            // nothing at probe time, which is sound (conservative rects).
            if let Some(gone) = self.all.remove(slot) {
                self.indexes.remove(&gone, slot64);
            }
        } else if let Some(v) = self.all.get_mut(slot) {
            // In-place close: the version stays put with an ended period.
            // Period *starts* are the only indexed boundaries, so B-Tree
            // entries remain valid; the GiST rect becomes conservative.
            v.sys = SysPeriod::new(v.sys.start, end);
        }
        // Invalidating removed slots too keeps candidate sets tight; a stale
        // candidate resolves to nothing at probe time anyway.
        self.indexes.end(slot64, end);
        Ok(())
    }

    /// Takes open and closed versions alike (bulk loads and restores carry
    /// both); only open ones enter the PK index.
    fn insert_version(&mut self, _: &TableDef, version: Version) -> u64 {
        let slot64 = u64::from(self.all.insert(version.clone()).0);
        self.indexes.insert(&version, slot64);
        if version.sys.is_current() {
            self.open += 1;
            if let Some(pk) = &mut self.pk {
                pk.insert(&version, slot64);
            }
        }
        slot64
    }

    fn partitions(
        &self,
        _: &TableDef,
        _: &SysSpec,
        scan: &mut dyn FnMut(&'static str, &PartitionView<'_>) -> Result<()>,
    ) -> Result<()> {
        scan("all", &self.indexes.view(&self.all, None))
    }

    fn retune(&mut self, def: &TableDef, tuning: &TuningConfig) -> Result<()> {
        self.indexes = PartIndexes::build(def, tuning, Part::Single, || heap_entries(&self.all))?;
        Ok(())
    }

    fn checkpoint(&mut self, _: &TableDef) {
        // One flat table, no staged reorganization to flush — but a tuned
        // temporal index re-sorts its endpoint lists at quiescent points
        // (and after a bulk load, whose manual timestamps arrive unordered).
        self.indexes.prepare();
    }

    fn stats(&self) -> TableStats {
        TableStats {
            current_rows: self.open,
            history_rows: self.all.len() - self.open,
        }
    }

    fn temporal_indexes(&self) -> [Option<&TemporalIndex>; 2] {
        [self.indexes.tindex(), None]
    }

    fn key_structures_footprint(&self) -> KeyStructuresFootprint {
        KeyStructuresFootprint {
            key_bytes: self.pk.as_ref().map_or(0, OrderedIndex::memory_bytes),
            heap_bytes: self.all.memory_bytes(),
            tuning_index_bytes: self.indexes.tuning_bytes(),
            open_versions: self.open,
        }
    }

    fn for_each_version(&self, _: &TableDef, f: &mut dyn FnMut(&Version)) {
        // One flat table; removed (never-visible / non-temporal-deleted)
        // slots are tombstones the iterator already skips.
        self.all.iter().for_each(|(_, v)| f(v));
    }

    fn restore_from(def: &TableDef, versions: Vec<Version>) -> Result<TableD> {
        let mut t = TableD::new(def);
        for v in versions {
            t.insert_version(def, v);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AccessPath, AppSpec, BitemporalEngine};
    use crate::testutil::{bitemp_table, insert_rows, simple_row};
    use bitempo_core::{AppDate, AppPeriod, Period, Value};

    #[test]
    fn single_partition_even_for_current_queries() {
        let mut e = SystemD::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 1), (2, 2)]);
        e.update(t, &Key::int(1), &[(1, Value::Int(9))], None)
            .unwrap();
        e.commit();
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
        // The scan had to walk all three stored versions in one heap.
        assert_eq!(out.access, AccessPath::FullScan { partitions: 1 });
        let s = e.stats(t);
        assert_eq!((s.current_rows, s.history_rows), (2, 1));
    }

    #[test]
    fn bulk_load_with_manual_timestamps() {
        let mut e = SystemD::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        assert!(e.supports_manual_system_time());
        e.bulk_load(
            t,
            vec![
                (
                    simple_row(1, 10),
                    AppPeriod::ALL,
                    SysPeriod::new(SysTime(1), SysTime(5)),
                ),
                (
                    simple_row(1, 11),
                    AppPeriod::ALL,
                    SysPeriod::since(SysTime(5)),
                ),
            ],
        )
        .unwrap();
        assert_eq!(e.now(), SysTime(5));
        let out = e
            .scan(t, &SysSpec::AsOf(SysTime(2)), &AppSpec::All, &[])
            .unwrap();
        assert_eq!(out.rows[0].get(1), &Value::Int(10));
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows[0].get(1), &Value::Int(11));
        // DML after bulk load continues the timeline.
        e.update(t, &Key::int(1), &[(1, Value::Int(12))], None)
            .unwrap();
        e.commit();
        let out = e.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
        assert_eq!(out.rows[0].get(1), &Value::Int(12));
    }

    #[test]
    fn bulk_load_rejected_on_other_engines() {
        let mut e = crate::SystemA::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        assert!(!e.supports_manual_system_time());
        let err = e.bulk_load(t, vec![]);
        assert!(matches!(err, Err(Error::Unsupported(_))));
    }

    #[test]
    fn gist_tuning_is_used_and_correct() {
        let mut e = SystemD::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        // Bounded app periods [i, i+10): a point probe at day 0 matches only
        // row 0, so the costed GiST estimate beats the sequential scan.
        for i in 0..200 {
            e.insert(
                t,
                simple_row(i, i * 2),
                Some(Period::new(AppDate(i), AppDate(i + 10))),
            )
            .unwrap();
            e.commit();
        }
        let no_index = e
            .scan(t, &SysSpec::Current, &AppSpec::AsOf(AppDate(0)), &[])
            .unwrap();
        // GiST only — with a time B-Tree tuned as well, the cheaper
        // per-row B-Tree probe would legitimately outbid the GiST.
        e.apply_tuning(&TuningConfig {
            gist: true,
            ..Default::default()
        })
        .unwrap();
        let gist = e
            .scan(t, &SysSpec::Current, &AppSpec::AsOf(AppDate(0)), &[])
            .unwrap();
        assert!(
            matches!(gist.access, AccessPath::GistScan(_)),
            "selective probe should pick the GiST, got {}",
            gist.access
        );
        let mut a = no_index.rows.clone();
        let mut b = gist.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "GiST scan must return the same rows as the seq scan");
        // A window covering every period is not worth a probe: the cost
        // model falls back to the sequential scan.
        let wide = e
            .scan(
                t,
                &SysSpec::Current,
                &AppSpec::Range(Period::new(AppDate(0), AppDate(500))),
                &[],
            )
            .unwrap();
        assert_eq!(wide.access, AccessPath::FullScan { partitions: 1 });
        assert_eq!(wide.rows.len(), 200);
    }

    #[test]
    fn gist_stays_correct_after_post_tuning_dml() {
        let mut e = SystemD::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        // Enough rows with bounded periods [i, i+5) that a point probe is
        // worth the GiST's per-row cost.
        for i in 1..=80 {
            e.insert(
                t,
                simple_row(i, i),
                Some(Period::new(AppDate(i), AppDate(i + 5))),
            )
            .unwrap();
            e.commit();
        }
        e.apply_tuning(&TuningConfig {
            gist: true,
            ..Default::default()
        })
        .unwrap();
        // Close a version after the GiST was built (rect goes conservative)
        // and insert a fresh key straddling the probe date.
        e.update(t, &Key::int(2), &[(1, Value::Int(9))], None)
            .unwrap();
        e.commit();
        e.insert(
            t,
            simple_row(81, 81),
            Some(Period::new(AppDate(2), AppDate(7))),
        )
        .unwrap();
        e.commit();
        let out = e
            .scan(t, &SysSpec::Current, &AppSpec::AsOf(AppDate(2)), &[])
            .unwrap();
        assert!(
            matches!(out.access, AccessPath::GistScan(_)),
            "expected a GiST scan, got {}",
            out.access
        );
        let mut vals: Vec<i64> = out
            .rows
            .iter()
            .map(|r| r.get(1).as_int().unwrap())
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![1, 9, 81]);
    }

    #[test]
    fn key_time_index_serves_lookups() {
        let mut e = SystemD::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        for i in 0..100 {
            e.insert(t, simple_row(i, i), None).unwrap();
            e.commit();
        }
        let before = e
            .lookup_key(t, &Key::int(5), &SysSpec::All, &AppSpec::All)
            .unwrap();
        assert_eq!(before.access, AccessPath::FullScan { partitions: 1 });
        e.apply_tuning(&TuningConfig::key_time()).unwrap();
        let after = e
            .lookup_key(t, &Key::int(5), &SysSpec::All, &AppSpec::All)
            .unwrap();
        assert!(matches!(after.access, AccessPath::KeyLookup(_)));
        assert_eq!(after.rows, before.rows);
    }

    #[test]
    fn temporal_tuning_probes_flat_table_with_inline_maintenance() {
        let mut e = SystemD::new();
        let t = e.create_table(bitemp_table("t")).unwrap();
        insert_rows(&mut e, t, &[(1, 0)]);
        e.apply_tuning(&TuningConfig::temporal()).unwrap();
        // All maintenance happens at DML time, after the index was built.
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
        let probed = e
            .scan(t, &SysSpec::AsOf(early), &AppSpec::All, &[])
            .unwrap();
        assert!(
            matches!(probed.access, AccessPath::TemporalProbe(_)),
            "expected a temporal probe, got {}",
            probed.access
        );
        assert!(probed.metrics.index_hits > 0);
        let plain = {
            let mut bare = SystemD::new();
            let t2 = bare.create_table(bitemp_table("t")).unwrap();
            insert_rows(&mut bare, t2, &[(1, 0)]);
            for i in 0..8 {
                bare.update(t2, &Key::int(1), &[(1, Value::Int(i))], None)
                    .unwrap();
                bare.commit();
            }
            for i in 0..200 {
                bare.update(t2, &Key::int(1), &[(1, Value::Int(100 + i))], None)
                    .unwrap();
                bare.commit();
            }
            bare.scan(t2, &SysSpec::AsOf(early), &AppSpec::All, &[])
                .unwrap()
        };
        assert_eq!(probed.rows, plain.rows);
        // Bulk load with manual timestamps stays correct (out-of-order
        // events; the superset re-check filters anything stale).
        e.bulk_load(
            t,
            vec![(
                simple_row(2, 2),
                AppPeriod::ALL,
                SysPeriod::new(SysTime(1), SysTime(3)),
            )],
        )
        .unwrap();
        let past = e
            .scan(t, &SysSpec::AsOf(SysTime(2)), &AppSpec::All, &[])
            .unwrap();
        assert!(past
            .rows
            .iter()
            .any(|r| r.get(0) == &Value::Int(2) && r.get(1) == &Value::Int(2)));
        assert!(e.temporal_index_footprint().events > 0);
    }
}
