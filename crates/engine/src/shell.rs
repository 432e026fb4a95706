//! The one engine shell: everything the four archetypes share.
//!
//! [`Engine<T>`] owns the catalog, the commit clock, the tuning
//! configuration and one `T` per table, and implements
//! [`BitemporalEngine`] exactly once — argument validation, sequenced DML,
//! the clock, catalog pass-throughs, key lookups, footprint roll-ups and the
//! scan driver. A [`TableLayout`] contributes what is genuinely
//! per-archetype: where versions live, which structure resolves a key's open
//! versions, which partitions and indexes a scan may use, and what a
//! checkpoint reorganizes. The paper's thesis — behaviour is explained by
//! physical layout — is the module boundary.

use crate::api::{
    AppSpec, BitemporalEngine, ColRange, KeyStructuresFootprint, ScanOutput, SysSpec, TableStats,
    TuningConfig,
};
use crate::catalog::Catalog;
use crate::morsel::ScanMetrics;
use crate::rowscan::{merge_access, scan_partition, PartitionView, ScanSite};
use crate::sequenced::{overwrite_period, sequenced_dml};
use crate::version::Version;
use bitempo_core::{
    obs, AppPeriod, Error, Key, Result, Row, SysPeriod, SysTime, TableDef, TableId, TemporalClass,
    Value,
};
use bitempo_tindex::{IndexFootprint, TemporalIndex};

/// The physical design of one table under one archetype.
///
/// Slots are layout-private addresses of stored versions; the shell only
/// passes them from [`Self::open_slots`] back into [`Self::peek`] and
/// [`Self::close`]. Every method takes the table's logical definition, which
/// the shell's catalog owns.
pub trait TableLayout: Send + Sync + Sized {
    /// Engine display name ("System A" .. "System D").
    const NAME: &'static str;
    /// One-line physical-architecture description (paper §5.2).
    const ARCHITECTURE: &'static str;
    /// True if system time is an ordinary column the loader may set, which
    /// is what makes bulk-loading a pre-stamped history possible (§5.8).
    const MANUAL_SYSTEM_TIME: bool = false;

    /// An empty table for `def`.
    fn new(def: &TableDef) -> Self;

    /// The open versions of `key`, oldest first.
    fn open_slots(&self, key: &Key) -> Vec<u64>;
    /// The open version at `slot`, if live.
    fn peek(&self, def: &TableDef, slot: u64) -> Option<Version>;
    /// Closes the open version at `slot`. The caller has peeked it already
    /// and keeps that copy, so nothing is handed back. A version whose
    /// system period would be empty was never visible and is discarded, not
    /// archived. Closing a slot with no live version is an engine bug,
    /// reported as [`Error::Internal`] rather than a panic.
    fn close(&mut self, def: &TableDef, slot: u64, end: SysTime) -> Result<()>;
    /// Stores `version` and returns its slot.
    fn insert_version(&mut self, def: &TableDef, version: Version) -> u64;

    /// Hands `scan` each physical partition a scan under `sys` must visit,
    /// current first, with the access structures the planner may choose
    /// from; stops at the first error.
    fn partitions(
        &self,
        def: &TableDef,
        sys: &SysSpec,
        scan: &mut dyn FnMut(&'static str, &PartitionView<'_>) -> Result<()>,
    ) -> Result<()>;

    /// Rebuilds the tuning-dependent indexes over the stored data.
    fn retune(&mut self, def: &TableDef, tuning: &TuningConfig) -> Result<()>;
    /// Forces any staged physical reorganization; see
    /// [`BitemporalEngine::checkpoint`].
    fn checkpoint(&mut self, def: &TableDef);
    /// Partition row counts.
    fn stats(&self) -> TableStats;
    /// The attached temporal indexes (history-side, current-side).
    fn temporal_indexes(&self) -> [Option<&TemporalIndex>; 2];
    /// See [`BitemporalEngine::key_structures_footprint`].
    fn key_structures_footprint(&self) -> KeyStructuresFootprint;
    /// Hands `f` every stored version, in the order
    /// [`BitemporalEngine::snapshot_versions`] reports them; see
    /// [`BitemporalEngine::for_each_version`].
    fn for_each_version(&self, def: &TableDef, f: &mut dyn FnMut(&Version));
    /// A table holding exactly `versions`, laid out as an uncrashed engine
    /// would have them after a checkpoint; tuning indexes are left empty.
    fn restore_from(def: &TableDef, versions: Vec<Version>) -> Result<Self>;
}

/// A bitemporal engine over tables laid out as `T`. See the module docs.
#[derive(Debug)]
pub struct Engine<T: TableLayout> {
    catalog: Catalog,
    pub(crate) tables: Vec<T>,
    now: SysTime,
    tuning: TuningConfig,
}

impl<T: TableLayout> Default for Engine<T> {
    fn default() -> Engine<T> {
        Engine {
            catalog: Catalog::default(),
            tables: Vec::new(),
            now: SysTime::default(),
            tuning: TuningConfig::default(),
        }
    }
}

impl<T: TableLayout> Engine<T> {
    /// Creates an empty engine.
    pub fn new() -> Engine<T> {
        Engine::default()
    }

    /// The system time the open transaction will commit at.
    fn pending(&self) -> SysTime {
        self.now.next()
    }

    fn table(&self, table: TableId) -> (&TableDef, &T) {
        // tblint: allow(TB004) TableId is catalog-issued and dense; sole indexing point for reads
        (self.catalog.def(table), &self.tables[table.0 as usize])
    }

    fn table_mut(&mut self, table: TableId) -> (&TableDef, &mut T) {
        // tblint: allow(TB004) TableId is catalog-issued and dense; sole indexing point for writes
        (self.catalog.def(table), &mut self.tables[table.0 as usize])
    }
}

// The crate's only `impl BitemporalEngine for …` block: every layout gets the
// whole logical engine from here.
impl<T: TableLayout> BitemporalEngine for Engine<T> {
    fn name(&self) -> &'static str {
        T::NAME
    }

    fn architecture(&self) -> &'static str {
        T::ARCHITECTURE
    }

    fn create_table(&mut self, def: TableDef) -> Result<TableId> {
        let id = self.catalog.create(def)?;
        self.tables.push(T::new(self.catalog.def(id)));
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
        for ((_, def), t) in self.catalog.iter().zip(&mut self.tables) {
            t.retune(def, tuning)?;
        }
        Ok(())
    }

    fn insert(&mut self, table: TableId, row: Row, app: Option<AppPeriod>) -> Result<()> {
        let pending = self.pending();
        let (def, t) = self.table_mut(table);
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
            SysPeriod::since(pending)
        };
        t.insert_version(def, Version { row, app, sys });
        Ok(())
    }

    fn update(
        &mut self,
        table: TableId,
        key: &Key,
        updates: &[(usize, Value)],
        portion: Option<AppPeriod>,
    ) -> Result<usize> {
        let pending = self.pending();
        let (def, t) = self.table_mut(table);
        sequenced_dml(t, def, pending, key, portion, Some(updates))
    }

    fn delete(&mut self, table: TableId, key: &Key, portion: Option<AppPeriod>) -> Result<usize> {
        let pending = self.pending();
        let (def, t) = self.table_mut(table);
        sequenced_dml(t, def, pending, key, portion, None)
    }

    fn overwrite_app_period(
        &mut self,
        table: TableId,
        key: &Key,
        period: AppPeriod,
    ) -> Result<usize> {
        let pending = self.pending();
        let (def, t) = self.table_mut(table);
        overwrite_period(t, def, pending, key, period)
    }

    fn commit(&mut self) -> SysTime {
        self.now = self.pending();
        self.now
    }

    fn now(&self) -> SysTime {
        self.now
    }

    fn advance_clock(&mut self, to: SysTime) {
        self.now = self.now.max(to);
    }

    fn scan(
        &self,
        table: TableId,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
    ) -> Result<ScanOutput> {
        let (def, t) = self.table(table);
        let _span = obs::span_dyn("engine", || format!("{} scan {}", T::NAME, def.name));
        let mut rows = Vec::new();
        let mut paths = Vec::new();
        let mut metrics = ScanMetrics::default();
        t.partitions(def, sys, &mut |partition, view| {
            let site = ScanSite {
                engine: T::NAME,
                table: &def.name,
                partition,
            };
            paths.push(scan_partition(
                site,
                view,
                def,
                sys,
                app,
                preds,
                self.now,
                self.tuning.workers,
                &mut rows,
                &mut metrics,
            )?);
            Ok(())
        })?;
        let out = ScanOutput {
            access: merge_access(&paths),
            partition_paths: paths,
            rows,
            metrics,
        };
        #[cfg(debug_assertions)]
        crate::api::validate_scan_output(def, sys, app, preds, &out)
            .unwrap_or_else(|msg| panic!("{} scan postcondition: {msg}", T::NAME));
        Ok(out)
    }

    fn lookup_key(
        &self,
        table: TableId,
        key: &Key,
        sys: &SysSpec,
        app: &AppSpec,
    ) -> Result<ScanOutput> {
        let (def, _) = self.table(table);
        let values = key.to_values();
        // Zipping a short key would silently turn the lookup into a prefix
        // match over other keys' rows; a long one would drop columns.
        if values.len() != def.key.len() {
            return Err(Error::Invalid(format!(
                "key {key} has {} columns, {} is keyed by {}",
                values.len(),
                def.name,
                def.key.len()
            )));
        }
        let preds: Vec<ColRange> = def
            .key
            .iter()
            .zip(values)
            .map(|(&c, v)| ColRange::eq(c, v))
            .collect();
        self.scan(table, sys, app, &preds)
    }

    fn stats(&self, table: TableId) -> TableStats {
        self.table(table).1.stats()
    }

    fn temporal_index_footprint(&self) -> IndexFootprint {
        self.tables
            .iter()
            .flat_map(T::temporal_indexes)
            .flatten()
            .fold(IndexFootprint::default(), |acc, tix| {
                acc.merged(tix.footprint())
            })
    }

    fn key_structures_footprint(&self) -> KeyStructuresFootprint {
        self.tables.iter().map(T::key_structures_footprint).sum()
    }

    fn supports_manual_system_time(&self) -> bool {
        T::MANUAL_SYSTEM_TIME
    }

    fn bulk_load(
        &mut self,
        table: TableId,
        versions: Vec<(Row, AppPeriod, SysPeriod)>,
    ) -> Result<()> {
        if !T::MANUAL_SYSTEM_TIME {
            return Err(Error::Unsupported(
                "bulk load with manual system time".into(),
            ));
        }
        let mut now = self.now;
        let (def, t) = self.table_mut(table);
        for (row, app, sys) in versions {
            if sys.is_empty() {
                self.now = now;
                return Err(Error::EmptyPeriod(format!("{sys}")));
            }
            t.insert_version(def, Version { row, app, sys });
            now = now.max(sys.start);
            if sys.end != SysTime::MAX {
                now = now.max(sys.end);
            }
        }
        // Manual timestamps arrive out of order: a quiescent point lets the
        // temporal index re-sort before the next probe.
        t.checkpoint(def);
        self.now = now;
        Ok(())
    }

    fn checkpoint(&mut self) {
        for ((_, def), t) in self.catalog.iter().zip(&mut self.tables) {
            t.checkpoint(def);
        }
    }

    fn for_each_version(&self, table: TableId, f: &mut dyn FnMut(&Version)) -> Result<()> {
        let (def, t) = self.table(table);
        t.for_each_version(def, f);
        Ok(())
    }

    fn snapshot_versions(&self, table: TableId) -> Result<Vec<Version>> {
        // Sized once: a snapshot is as large as the table, and growing it
        // by doubling holds every outgrown block until the last copy.
        let mut out = Vec::with_capacity(self.stats(table).total());
        self.for_each_version(table, &mut |v| out.push(v.clone()))?;
        Ok(out)
    }

    fn restore(&mut self, table: TableId, versions: Vec<Version>, now: SysTime) -> Result<()> {
        let (def, t) = self.table_mut(table);
        *t = T::restore_from(def, versions)?;
        self.now = now;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::api::{AppSpec, SysSpec, TuningConfig};
    use crate::testutil::{bitemp_table, degenerate_table, plain_table, simple_row};
    use crate::{build_engine, SystemKind};
    use bitempo_core::{
        AppDate, Column, DataType, Error, Key, Period, Row, Schema, SysPeriod, TableDef,
        TemporalClass, Value,
    };

    /// `(a Int, b Int, val Int)` keyed by the given columns.
    fn keyed(name: &str, key: &[usize]) -> TableDef {
        let cols = ["a", "b", "val"].map(|c| Column::new(c, DataType::Int));
        TableDef::new(
            name,
            Schema::new(cols.to_vec()),
            key.to_vec(),
            TemporalClass::Bitemporal,
            Some("vt"),
        )
        .unwrap()
    }

    #[test]
    fn lookup_key_rejects_a_key_of_the_wrong_arity() {
        for kind in SystemKind::ALL {
            let mut e = build_engine(kind);
            let two = e.create_table(keyed("two", &[0, 1])).unwrap();
            let one = e.create_table(keyed("one", &[0])).unwrap();
            let none = e.create_table(keyed("none", &[])).unwrap();
            for table in [two, one, none] {
                for b in [1, 2] {
                    let row = Row::new(vec![Value::Int(5), Value::Int(b), Value::Int(0)]);
                    e.insert(table, row, None).unwrap();
                }
            }
            e.commit();
            let lookup =
                |table, key: &Key| e.lookup_key(table, key, &SysSpec::Current, &AppSpec::All);
            // A short key used to become a prefix match over other keys' rows.
            assert!(
                matches!(lookup(two, &Key::int(5)), Err(Error::Invalid(_))),
                "{kind}"
            );
            assert_eq!(
                lookup(two, &Key::int2(5, 2)).unwrap().rows.len(),
                1,
                "{kind}"
            );
            // A long key used to drop its extra columns.
            assert!(
                matches!(lookup(one, &Key::int2(5, 2)), Err(Error::Invalid(_))),
                "{kind}"
            );
            assert_eq!(lookup(one, &Key::int(5)).unwrap().rows.len(), 2, "{kind}");
            // A keyless table has one key, the empty one.
            let empty = Key::General(Vec::new());
            assert_eq!(lookup(none, &empty).unwrap().rows.len(), 2, "{kind}");
            assert!(
                matches!(lookup(none, &Key::int(5)), Err(Error::Invalid(_))),
                "{kind}"
            );
        }
    }

    #[test]
    fn insert_validation_is_the_same_on_every_layout() {
        let outcomes = SystemKind::ALL.map(|kind| {
            let mut e = build_engine(kind);
            let bitemp = e.create_table(bitemp_table("bitemp")).unwrap();
            let plain = e.create_table(plain_table("plain")).unwrap();
            let degenerate = e.create_table(degenerate_table("degenerate")).unwrap();
            let some = Period::new(AppDate(1), AppDate(9));
            let empty = Period::new(AppDate(5), AppDate(5));
            let errors = [
                e.insert(bitemp, Row::new(vec![Value::Int(1)]), None),
                e.insert(bitemp, simple_row(1, 1), Some(empty)),
                e.insert(plain, simple_row(1, 1), Some(some)),
                e.insert(degenerate, simple_row(1, 1), Some(some)),
            ];
            assert!(matches!(errors[0], Err(Error::Invalid(_))), "{kind}");
            assert!(matches!(errors[1], Err(Error::EmptyPeriod(_))), "{kind}");
            assert!(matches!(errors[2], Err(Error::Unsupported(_))), "{kind}");
            assert!(matches!(errors[3], Err(Error::Unsupported(_))), "{kind}");
            // Nothing was stored by a rejected insert, and a non-temporal
            // row is stamped with the whole system-time axis, not `pending`.
            e.insert(plain, simple_row(1, 1), None).unwrap();
            e.commit();
            assert!(e.snapshot_versions(bitemp).unwrap().is_empty(), "{kind}");
            let stored = e.snapshot_versions(plain).unwrap();
            assert_eq!(stored.len(), 1, "{kind}");
            assert_eq!(stored[0].sys, SysPeriod::ALL, "{kind}");
            format!("{errors:?}")
        });
        assert!(outcomes.iter().all(|o| *o == outcomes[0]), "{outcomes:#?}");
    }

    #[test]
    fn an_unknown_value_index_column_is_the_same_error_on_every_layout() {
        let tuning = TuningConfig {
            value_index: vec![("t".into(), "nope".into())],
            ..TuningConfig::default()
        };
        let errors = SystemKind::ALL.map(|kind| {
            let mut e = build_engine(kind);
            e.create_table(bitemp_table("t")).unwrap();
            e.apply_tuning(&tuning).unwrap_err()
        });
        let kind = |e: &Error| std::mem::discriminant(e);
        assert!(
            errors.iter().all(|e| kind(e) == kind(&errors[0])),
            "{errors:#?}"
        );
    }
}
