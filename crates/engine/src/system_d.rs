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

use crate::api::{
    AppSpec, BitemporalEngine, ColRange, IndexKind, KeyStructuresFootprint, ScanOutput, SysSpec,
    TableStats, TuningConfig,
};
use crate::catalog::Catalog;
use crate::index::{GistIndex, IndexDef, IndexedCol, OrderedIndex};
use crate::keymap::KeyMap;
use crate::morsel::ScanMetrics;
use crate::rowscan::{merge_access, scan_partition, PartitionView, ScanSite};
use crate::system_a::{build_heap_tindex, overwrite_period, sequenced_dml, SequencedOps};
use crate::version::Version;
use bitempo_core::{
    obs, AppPeriod, Error, Key, Result, Row, SysPeriod, SysTime, TableDef, TableId, TemporalClass,
    Value,
};
use bitempo_storage::{Heap, SlotId};
use bitempo_tindex::{IndexFootprint, TemporalIndex};

#[derive(Debug, Default)]
struct TableD {
    /// The single physical table holding every version.
    all: Heap<Version>,
    /// Tuning indexes.
    indexes: Vec<OrderedIndex>,
    /// Index usable for key lookups (built by the Key+Time setting).
    key_index: Option<usize>,
    /// GiST index over the period rectangles.
    gist: Option<GistIndex>,
    /// Open versions per key — the bookkeeping any *application* simulating
    /// temporal tables must carry (the paper's §2.4 note that DML semantics
    /// fall to the application when support is not native).
    key_map: KeyMap,
    /// Optional temporal index over the single flat table, maintained at
    /// DML time: System D is the showcase for inline maintenance because
    /// versions activate in commit order, keeping the event log monotone
    /// (except after manual-timestamp bulk loads, which the timeline's
    /// segment-skipping replay absorbs).
    tindex: Option<TemporalIndex>,
}

/// The System D engine. See module docs.
#[derive(Debug, Default)]
pub struct SystemD {
    catalog: Catalog,
    tables: Vec<TableD>,
    now: SysTime,
    tuning: TuningConfig,
}

impl SystemD {
    /// Creates an empty engine.
    pub fn new() -> SystemD {
        SystemD::default()
    }

    fn insert_version(&mut self, table: TableId, version: Version) -> u64 {
        let def_key = self.catalog.def(table).key.clone();
        let t = self.table_mut(table);
        let slot64 = u64::from(t.all.insert(version.clone()).0);
        for ix in &mut t.indexes {
            ix.insert(&version, slot64);
        }
        if let Some(g) = &mut t.gist {
            g.insert(&version, slot64);
        }
        if let Some(tix) = &mut t.tindex {
            tix.insert(slot64, version.app, version.sys);
        }
        if version.sys.is_current() {
            t.key_map
                .insert(Key::from_row(&version.row, &def_key), slot64);
        }
        slot64
    }

    /// `TableId`s are issued densely by the catalog, so indexing with one it
    /// handed out cannot go out of bounds.
    fn table(&self, table: TableId) -> &TableD {
        // tblint: allow(TB004) TableId is catalog-issued and dense; sole indexing point for reads
        &self.tables[table.0 as usize]
    }

    fn table_mut(&mut self, table: TableId) -> &mut TableD {
        // tblint: allow(TB004) TableId is catalog-issued and dense; sole indexing point for writes
        &mut self.tables[table.0 as usize]
    }
}

impl SequencedOps for SystemD {
    fn def(&self, table: TableId) -> &TableDef {
        self.catalog.def(table)
    }
    fn pending_time(&self) -> SysTime {
        self.now.next()
    }
    fn open_slots(&self, table: TableId, key: &Key) -> Vec<u64> {
        self.table(table).key_map.get(key).to_vec()
    }
    fn peek(&self, table: TableId, slot: u64) -> Option<Version> {
        self.table(table).all.get(SlotId(slot as u32)).cloned()
    }
    fn close(&mut self, table: TableId, slot64: u64, end: SysTime) -> Result<Version> {
        let def_key = self.catalog.def(table).key.clone();
        let nontemporal = self.catalog.def(table).temporal == TemporalClass::NonTemporal;
        let t = self.table_mut(table);
        let slot = SlotId(slot64 as u32);
        let Some(before) = t.all.get(slot).cloned() else {
            return Err(Error::Internal(format!(
                "closing slot {slot64} with no live version"
            )));
        };
        t.key_map
            .remove(&Key::from_row(&before.row, &def_key), slot64);
        let never_visible = before.sys.start >= end;
        if nontemporal || never_visible {
            // Non-versioned tables (and never-visible versions) vanish.
            t.all.remove(slot);
            for ix in &mut t.indexes {
                ix.remove(&before, slot64);
            }
            // GiST entries are left stale: the tombstoned slot resolves to
            // nothing at probe time, which is sound (conservative rects).
        } else if let Some(v) = t.all.get_mut(slot) {
            // In-place close: the version stays put with an ended period.
            // Period *starts* are the only indexed boundaries, so B-Tree
            // entries remain valid; the GiST rect becomes conservative.
            v.sys = SysPeriod::new(v.sys.start, end);
        }
        if let Some(tix) = &mut t.tindex {
            // Invalidating removed slots too keeps candidate sets tight;
            // a stale candidate resolves to nothing at probe time anyway.
            tix.close(slot64, end);
        }
        Ok(before)
    }
    fn insert_version_at(&mut self, table: TableId, version: Version) -> u64 {
        self.insert_version(table, version)
    }
}

impl BitemporalEngine for SystemD {
    fn name(&self) -> &'static str {
        "System D"
    }

    fn architecture(&self) -> &'static str {
        "row store without temporal support; single table with explicit period columns; \
         manual timestamps and bulk load; B-Tree and GiST indexes via tuning"
    }

    fn create_table(&mut self, def: TableDef) -> Result<TableId> {
        let id = self.catalog.create(def)?;
        self.tables.push(TableD::default());
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
            let mut index_defs: Vec<IndexDef> = Vec::new();
            let mut key_index = None;
            if tuning.time_index {
                if def.has_app_time() {
                    index_defs.push(IndexDef {
                        name: format!("ix_app_{}", def.name),
                        cols: vec![IndexedCol::AppStart],
                        kind: IndexKind::BTree,
                    });
                }
                if def.has_system_time() {
                    index_defs.push(IndexDef {
                        name: format!("ix_sys_{}", def.name),
                        cols: vec![IndexedCol::SysStart],
                        kind: IndexKind::BTree,
                    });
                }
            }
            if tuning.key_time_index && !def.key.is_empty() {
                let mut cols: Vec<IndexedCol> =
                    def.key.iter().map(|&c| IndexedCol::Value(c)).collect();
                cols.push(IndexedCol::SysStart);
                key_index = Some(index_defs.len());
                index_defs.push(IndexDef {
                    name: format!("ix_key_{}", def.name),
                    cols,
                    kind: IndexKind::BTree,
                });
            }
            for (tname, cname) in &tuning.value_index {
                if *tname == def.name {
                    let col = def.schema.col(cname)?;
                    index_defs.push(IndexDef {
                        name: format!("ix_val_{}_{}", def.name, cname),
                        cols: vec![IndexedCol::Value(col)],
                        kind: IndexKind::BTree,
                    });
                }
            }
            let t = self.table_mut(id);
            t.indexes = index_defs.into_iter().map(OrderedIndex::new).collect();
            t.key_index = key_index;
            t.gist = (tuning.gist && def.has_system_time())
                .then(|| GistIndex::new(format!("gist_{}", def.name)));
            let entries: Vec<(u64, Version)> = t
                .all
                .iter()
                .map(|(s, v)| (u64::from(s.0), v.clone()))
                .collect();
            for ix in &mut t.indexes {
                for (slot, v) in &entries {
                    ix.insert(v, *slot);
                }
            }
            if let Some(g) = &mut t.gist {
                for (slot, v) in &entries {
                    g.insert(v, *slot);
                }
            }
            t.tindex = (tuning.temporal_index && def.has_system_time())
                .then(|| build_heap_tindex(format!("tx_hist_{}", def.name), &t.all));
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
        let _span = obs::span_dyn("engine", || format!("System D scan {}", def.name));
        let view = PartitionView {
            source: &t.all,
            pk: t.key_index.and_then(|i| t.indexes.get(i)),
            indexes: &t.indexes,
            gist: t.gist.as_ref(),
            tindex: t.tindex.as_ref(),
        };
        let mut rows = Vec::new();
        let mut metrics = ScanMetrics::default();
        let path = scan_partition(
            ScanSite {
                engine: "System D",
                table: &def.name,
                partition: "all",
            },
            &view,
            def,
            sys,
            app,
            preds,
            self.now,
            self.tuning.adaptive,
            self.tuning.exec(),
            &mut rows,
            &mut metrics,
        )?;
        let out = ScanOutput {
            access: merge_access(vec![path.clone()]),
            partition_paths: vec![path],
            rows,
            metrics,
        };
        #[cfg(debug_assertions)]
        crate::api::validate_scan_output(def, sys, app, preds, &out)
            .unwrap_or_else(|msg| panic!("System D scan postcondition: {msg}"));
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
        let current = t.key_map.open_versions();
        TableStats {
            current_rows: current,
            history_rows: t.all.len() - current,
        }
    }

    fn supports_manual_system_time(&self) -> bool {
        true
    }

    fn bulk_load(
        &mut self,
        table: TableId,
        versions: Vec<(Row, AppPeriod, SysPeriod)>,
    ) -> Result<()> {
        for (row, app, sys) in versions {
            if sys.is_empty() {
                return Err(Error::EmptyPeriod(format!("{sys}")));
            }
            self.insert_version(table, Version { row, app, sys });
            if self.now < sys.start {
                self.now = sys.start;
            }
            if sys.end != SysTime::MAX && self.now < sys.end {
                self.now = sys.end;
            }
        }
        // Manual timestamps arrive out of order; re-sort the endpoint lists
        // so the next probe is not stuck on the linear tail.
        if let Some(tix) = &mut self.table_mut(table).tindex {
            tix.prepare();
        }
        Ok(())
    }

    fn checkpoint(&mut self) {
        // One flat table, no staged reorganization to flush — but a tuned
        // temporal index re-sorts its endpoint lists at quiescent points.
        for t in &mut self.tables {
            if let Some(tix) = &mut t.tindex {
                tix.prepare();
            }
        }
    }

    fn temporal_index_footprint(&self) -> IndexFootprint {
        self.tables
            .iter()
            .filter_map(|t| t.tindex.as_ref())
            .fold(IndexFootprint::default(), |acc, tix| {
                acc.merged(tix.footprint())
            })
    }

    fn key_structures_footprint(&self) -> KeyStructuresFootprint {
        self.tables
            .iter()
            .map(|t| KeyStructuresFootprint {
                key_bytes: t.key_map.memory_bytes(),
                heap_bytes: t.all.memory_bytes(),
                open_versions: t.key_map.open_versions(),
            })
            .sum()
    }

    fn snapshot_versions(&self, table: TableId) -> Result<Vec<Version>> {
        // One flat table; removed (never-visible / non-temporal-deleted)
        // slots are tombstones the iterator already skips.
        Ok(self
            .table(table)
            .all
            .iter()
            .map(|(_, v)| v.clone())
            .collect())
    }

    fn restore(&mut self, table: TableId, versions: Vec<Version>, now: SysTime) -> Result<()> {
        *self.table_mut(table) = TableD::default();
        for v in versions {
            // insert_version handles both open and closed versions: key_map
            // entries are only added for currently-open ones, and all tuning
            // indexes are empty until tuning is re-applied.
            self.insert_version(table, v);
        }
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
