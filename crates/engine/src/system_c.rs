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
//! accepted (the paper's team built B-Trees on System C too, Fig 3) but the
//! scan path never uses them — which is exactly what the paper measured.

use crate::api::{
    AccessPath, AppSpec, BitemporalEngine, ColRange, KeyStructuresFootprint, ScanOutput, SysSpec,
    TableStats, TuningConfig,
};
use crate::catalog::Catalog;
use crate::keymap::KeyMap;
use crate::morsel::{run_morsels, ScanMetrics};
use crate::rowscan::{app_probe_for, merge_access, pred_class, sys_probe_for, ScanSite};
use crate::system_a::{overwrite_period, sequenced_dml, SequencedOps};
use crate::version::Version;
use bitempo_core::{
    obs, AppDate, AppPeriod, Column, DataType, Error, Key, Result, Row, Schema, SysPeriod, SysTime,
    TableDef, TableId, TemporalClass, Value,
};
use bitempo_query::optimizer::{self, PathKind};
use bitempo_storage::ColumnTable;
use bitempo_tindex::{IndexFootprint, ProbeCost, TemporalIndex};
use std::collections::HashSet;

#[derive(Debug)]
struct TableC {
    /// Current partition (delta + main inside [`ColumnTable`]).
    current: ColumnTable,
    /// History partition.
    history: ColumnTable,
    /// Open versions per key (row ids in `current`). A column store keeps
    /// no PK index, so this map is the only key structure it has.
    key_map: KeyMap,
    /// Rows in `current` that must never be surfaced (non-temporal deletes
    /// and versions that died inside their creating transaction).
    dead: HashSet<usize>,
    /// Closed-but-unmerged row count (merge trigger bookkeeping).
    closed_in_current: usize,
    /// Indexes built on request and never consulted (see module docs).
    ignored_indexes: Vec<String>,
    /// Optional temporal index over the history partition, maintained as
    /// the merge appends superseded records. Unlike the B-Trees above it
    /// *is* consulted: the paper's System C had no such structure, and the
    /// `temporal-index` experiment measures what one would have bought it.
    tindex: Option<TemporalIndex>,
    /// Temporal index over the current partition. Rebuilt at every delta
    /// merge (the merge renumbers rowids), maintained in place between
    /// merges as rows are appended and their `$validto` terminated.
    cur_tindex: Option<TemporalIndex>,
}

/// Positions of the hidden temporal columns within the physical schema.
#[derive(Debug, Clone, Copy)]
struct HiddenCols {
    app_start: Option<usize>,
    sys_start: Option<usize>,
}

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

/// Decodes a date-typed hidden column. The hidden columns' types are fixed
/// by [`physical_schema`] at table creation, so the decode cannot fail.
fn decode_date(part: &ColumnTable, col: usize, rowid: usize) -> AppDate {
    // tblint: allow(TB004) hidden-column type is fixed by physical_schema at creation
    part.get_value(col, rowid).as_date().expect("date column")
}

/// Decodes a system-time-typed hidden column; see [`decode_date`].
fn decode_sys(part: &ColumnTable, col: usize, rowid: usize) -> SysTime {
    part.get_value(col, rowid)
        .as_sys_time()
        // tblint: allow(TB004) hidden-column type is fixed by physical_schema at creation
        .expect("systime column")
}

/// Decodes both periods of one physical row from the hidden columns.
fn periods_of(part: &ColumnTable, hidden: HiddenCols, rowid: usize) -> (AppPeriod, SysPeriod) {
    let app = match hidden.app_start {
        Some(c) => AppPeriod::new(decode_date(part, c, rowid), decode_date(part, c + 1, rowid)),
        None => AppPeriod::ALL,
    };
    let sys = match hidden.sys_start {
        Some(c) => SysPeriod::new(decode_sys(part, c, rowid), decode_sys(part, c + 1, rowid)),
        None => SysPeriod::ALL,
    };
    (app, sys)
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
        (0..part.len()).map(|rowid| {
            let (app, sys) = periods_of(part, hidden, rowid);
            (rowid as u64, app, sys)
        }),
    )
}

/// The System C engine. See module docs.
#[derive(Debug, Default)]
pub struct SystemC {
    catalog: Catalog,
    tables: Vec<TableC>,
    hidden: Vec<HiddenCols>,
    now: SysTime,
    /// Only [`TuningConfig::workers`] is consulted — the index settings are
    /// accepted but ignored (see [`SystemC::apply_tuning`]).
    tuning: TuningConfig,
}

impl SystemC {
    /// Creates an empty engine.
    pub fn new() -> SystemC {
        SystemC::default()
    }

    fn physical_row(&self, table: TableId, v: &Version) -> Row {
        let def = self.catalog.def(table);
        let mut values = v.row.values().to_vec();
        if def.has_app_time() {
            values.push(Value::Date(v.app.start));
            values.push(Value::Date(v.app.end));
        }
        if def.has_system_time() {
            values.push(Value::SysTime(v.sys.start));
            values.push(Value::SysTime(v.sys.end));
        }
        Row::new(values)
    }

    fn version_from(&self, table: TableId, part: &ColumnTable, rowid: usize) -> Version {
        let def = self.catalog.def(table);
        let hidden = self.hidden_of(table);
        let arity = def.schema.arity();
        let row: Row = (0..arity).map(|c| part.get_value(c, rowid)).collect();
        let app = match hidden.app_start {
            Some(c) => AppPeriod::new(decode_date(part, c, rowid), decode_date(part, c + 1, rowid)),
            None => AppPeriod::ALL,
        };
        let sys = match hidden.sys_start {
            Some(c) => SysPeriod::new(decode_sys(part, c, rowid), decode_sys(part, c + 1, rowid)),
            None => SysPeriod::ALL,
        };
        Version { row, app, sys }
    }

    /// `TableId`s are issued densely by the catalog, so indexing with one it
    /// handed out cannot go out of bounds.
    fn table(&self, table: TableId) -> &TableC {
        // tblint: allow(TB004) TableId is catalog-issued and dense; sole indexing point for reads
        &self.tables[table.0 as usize]
    }

    fn table_mut(&mut self, table: TableId) -> &mut TableC {
        // tblint: allow(TB004) TableId is catalog-issued and dense; sole indexing point for writes
        &mut self.tables[table.0 as usize]
    }

    fn hidden_of(&self, table: TableId) -> HiddenCols {
        // tblint: allow(TB004) hidden-column positions are pushed in lockstep with create_table
        self.hidden[table.0 as usize]
    }

    /// The HANA-style delta merge: seals the column deltas *and* moves
    /// superseded records from the current to the history partition.
    fn merge_table(&mut self, table: TableId) {
        let def = self.catalog.def(table).clone();
        let (phys, _) = physical_schema(&def);
        let hidden = self.hidden_of(table);
        let t = self.table_mut(table);
        if t.closed_in_current == 0 && t.dead.is_empty() {
            t.current.merge();
            t.history.merge();
            return;
        }
        let old = std::mem::replace(&mut t.current, ColumnTable::new(phys));
        t.key_map.clear();
        for rowid in 0..old.len() {
            if t.dead.contains(&rowid) {
                continue;
            }
            let row = old.get_row(rowid);
            let open = match hidden.sys_start {
                Some(c) => decode_sys(&old, c + 1, rowid) == SysTime::MAX,
                None => true,
            };
            if open {
                // tblint: allow(TB004) row came from a fragment with the identical physical schema
                let new_id = t.current.append_row(&row).expect("schema preserved");
                // The physical row leads with the logical columns, so the
                // key columns sit at their logical positions.
                t.key_map
                    .insert(Key::from_row(&row, &def.key), new_id as u64);
            } else {
                // tblint: allow(TB004) row came from a fragment with the identical physical schema
                let hist_id = t.history.append_row(&row).expect("schema preserved");
                if let Some(tix) = &mut t.tindex {
                    let (app, sysp) = periods_of(&old, hidden, rowid);
                    tix.insert(hist_id as u64, app, sysp);
                }
            }
        }
        t.dead.clear();
        t.closed_in_current = 0;
        t.current.merge();
        t.history.merge();
        if let Some(tix) = &mut t.tindex {
            tix.prepare();
        }
        if t.cur_tindex.is_some() {
            // The rebuild above renumbered every current rowid.
            t.cur_tindex = Some(build_column_tindex(
                format!("tx_cur_{}", def.name),
                hidden,
                &t.current,
            ));
        }
    }
}

impl SequencedOps for SystemC {
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
        let t = self.table(table);
        let rowid = slot as usize;
        if rowid >= t.current.len() || t.dead.contains(&rowid) {
            return None;
        }
        Some(self.version_from(table, &t.current, rowid))
    }
    fn close(&mut self, table: TableId, slot: u64, end: SysTime) -> Result<Version> {
        let rowid = slot as usize;
        let Some(before) = self.peek(table, slot) else {
            return Err(Error::Internal(format!(
                "closing row {rowid} with no live version"
            )));
        };
        let def_key = self.catalog.def(table).key.clone();
        let hidden = self.hidden_of(table);
        let t = self.table_mut(table);
        t.key_map
            .remove(&Key::from_row(&before.row, &def_key), slot);
        let never_visible = before.sys.start >= end;
        // `sys_start` is `Some` exactly when the table is system-versioned.
        match hidden.sys_start {
            Some(c) if !never_visible => {
                t.current
                    .set_value(c + 1, rowid, &Value::SysTime(end))
                    .map_err(|e| Error::Internal(format!("validto update: {e}")))?;
                t.closed_in_current += 1;
            }
            _ => {
                t.dead.insert(rowid);
            }
        }
        if let Some(tix) = &mut t.cur_tindex {
            tix.close(slot, end);
        }
        Ok(before)
    }
    fn insert_version_at(&mut self, table: TableId, version: Version) -> u64 {
        let def_key = self.catalog.def(table).key.clone();
        let phys = self.physical_row(table, &version);
        let t = self.table_mut(table);
        // tblint: allow(TB004) physical_row builds against this table's own physical schema
        let rowid = t.current.append_row(&phys).expect("schema matches") as u64;
        t.key_map
            .insert(Key::from_row(&version.row, &def_key), rowid);
        if let Some(tix) = &mut t.cur_tindex {
            tix.insert(rowid, version.app, version.sys);
        }
        rowid
    }
}

impl BitemporalEngine for SystemC {
    fn name(&self) -> &'static str {
        "System C"
    }

    fn architecture(&self) -> &'static str {
        "in-memory column store; delta/main fragments; hidden validfrom/validto system-time \
         columns; merge moves superseded records to a history partition; application time \
         simulated with plain columns; scan-based execution, indexes unused"
    }

    fn create_table(&mut self, def: TableDef) -> Result<TableId> {
        let (phys, hidden) = physical_schema(&def);
        let id = self.catalog.create(def)?;
        self.tables.push(TableC {
            current: ColumnTable::new(phys.clone()),
            history: ColumnTable::new(phys),
            key_map: KeyMap::default(),
            dead: HashSet::new(),
            closed_in_current: 0,
            ignored_indexes: Vec::new(),
            tindex: None,
            cur_tindex: None,
        });
        self.hidden.push(hidden);
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
        // Build (label) the requested indexes so the tuning study can report
        // them, but never consult them: the scan path is the plan (Fig 3).
        for (id, def) in self.catalog.iter() {
            // tblint: allow(TB004) hidden-column positions are pushed in lockstep with create_table
            let hidden = self.hidden[id.0 as usize];
            // tblint: allow(TB004) TableId is catalog-issued and dense (borrow split from catalog)
            let t = &mut self.tables[id.0 as usize];
            t.tindex = (tuning.temporal_index && def.has_system_time())
                .then(|| build_column_tindex(format!("tx_hist_{}", def.name), hidden, &t.history));
            t.cur_tindex = (tuning.temporal_index && def.has_system_time())
                .then(|| build_column_tindex(format!("tx_cur_{}", def.name), hidden, &t.current));
            t.ignored_indexes.clear();
            if tuning.time_index && def.has_system_time() {
                t.ignored_indexes.push(format!("ix_sys_{}", def.name));
            }
            if tuning.key_time_index && !def.key.is_empty() {
                t.ignored_indexes.push(format!("ix_key_{}", def.name));
            }
            for (tname, cname) in &tuning.value_index {
                if *tname == def.name {
                    def.schema.col(cname)?;
                    t.ignored_indexes
                        .push(format!("ix_val_{}_{}", def.name, cname));
                }
            }
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
        let hidden = self.hidden_of(table);
        let t = self.table(table);
        let exec = self.tuning.exec();
        let _span = obs::span_dyn("engine", || format!("System C scan {}", def.name));
        let mut rows = Vec::new();
        let mut metrics = ScanMetrics::default();
        let mut paths: Vec<AccessPath> = Vec::new();

        // Shared residual filter: the authoritative per-row re-check, used
        // by the sequential path and by temporal-index candidates alike so
        // index precision can never change scan results.
        let qualifies = |part: &ColumnTable, rowid: usize| -> bool {
            let sys_ok = match hidden.sys_start {
                Some(c) => {
                    let start = decode_sys(part, c, rowid);
                    let end = decode_sys(part, c + 1, rowid);
                    sys.matches(&SysPeriod::new(start, end))
                }
                None => true,
            };
            let app_ok = sys_ok
                && match hidden.app_start {
                    Some(c) => {
                        let start = decode_date(part, c, rowid);
                        let end = decode_date(part, c + 1, rowid);
                        app.matches(&AppPeriod::new(start, end))
                    }
                    None => true,
                };
            app_ok
                && preds
                    .iter()
                    .all(|p| p.matches(&part.get_value(p.col, rowid)))
        };

        // Column-store execution: evaluate the temporal filter and the
        // pushed predicates on the *columns they touch*, and materialize a
        // full row only for qualifying positions — the scan discipline that
        // makes System C "not as sensitive to plan changes" (paper §5.4.1).
        // Each fragment is scanned in row-range morsels; merging per-morsel
        // buffers in morsel order keeps the output order identical to the
        // single-threaded loop.
        let scan_fragment = |partition: &'static str,
                             part: &ColumnTable,
                             dead: Option<&HashSet<usize>>,
                             tix: Option<&TemporalIndex>,
                             rows: &mut Vec<Row>,
                             metrics: &mut ScanMetrics|
         -> Result<()> {
            let start = obs::trace_clock();
            let (frag_rows, mut m) = run_morsels(part.len(), exec, |range, buf, m| {
                for rowid in range {
                    if dead.is_some_and(|d| d.contains(&rowid)) {
                        continue;
                    }
                    m.rows_visited += 1;
                    if !qualifies(part, rowid) {
                        m.versions_pruned += 1;
                        continue;
                    }
                    let v = self.version_from(table, part, rowid);
                    buf.push(v.output_row(def));
                }
            })?;
            m.planned_rows = part.len() as u64;
            // System C has no B-Tree paths, so the per-fragment trace is
            // assembled here rather than in `rowscan::scan_partition`.
            if let Some(start) = start {
                let end = obs::trace_clock().unwrap_or(start);
                ScanSite {
                    engine: "System C",
                    table: &def.name,
                    partition,
                }
                .record(
                    &AccessPath::FullScan { partitions: 1 },
                    m,
                    frag_rows.len() as u64,
                    exec.workers.max(1),
                    start,
                    end.saturating_sub(start),
                );
            }
            // Closing the loop from the sequential side: a declined probe's
            // estimate is still scored against the rows the scan emitted
            // (its candidate set is a superset of them), so a repeated
            // overestimate re-plans onto the probe.
            if self.tuning.adaptive {
                if let Some(tix) = tix {
                    let sys_probe = sys_probe_for(sys);
                    let app_probe = app_probe_for(app);
                    let n = part.len();
                    if (sys_probe.is_some() || app_probe.is_some()) && n > 0 {
                        let raw = tix.estimate_candidates(sys_probe.as_ref(), app_probe.as_ref(), n)
                            as u64;
                        let fsite = optimizer::FeedbackSite {
                            engine: "System C",
                            table: &def.name,
                            partition,
                        };
                        optimizer::observe(
                            &fsite,
                            &pred_class(sys, app, preds),
                            PathKind::TemporalProbe,
                            raw,
                            frag_rows.len() as u64,
                        );
                    }
                }
            }
            metrics.merge(&m);
            rows.extend(frag_rows);
            Ok(())
        };
        // The temporal index is the one index System C consults: when the
        // estimated candidate fraction for a fragment is selective enough,
        // the probe visits candidate rowids (ascending, so output order
        // matches the sequential scan) instead of walking the fragment.
        let probe_fragment = |partition: &'static str,
                              part: &ColumnTable,
                              dead: Option<&HashSet<usize>>,
                              tix: Option<&TemporalIndex>,
                              rows: &mut Vec<Row>,
                              metrics: &mut ScanMetrics|
         -> Option<AccessPath> {
            let tix = tix?;
            let sys_probe = sys_probe_for(sys);
            let app_probe = app_probe_for(app);
            if sys_probe.is_none() && app_probe.is_none() {
                return None;
            }
            let n = part.len();
            // An empty fragment defeats the estimator (its divisor was once
            // patched with `.max(1)`, making an empty fragment estimate
            // fraction 0 and always "win"); the trivial scan handles it.
            if n == 0 {
                return None;
            }
            let frac = tix.estimate_fraction(sys_probe.as_ref(), app_probe.as_ref(), n);
            let mut memo = optimizer::Memo::new(n);
            memo.add(optimizer::Alternative::seq());
            memo.add(optimizer::Alternative::new(
                PathKind::TemporalProbe,
                tix.name(),
                Some(frac),
            ));
            let class = pred_class(sys, app, preds);
            let fsite = optimizer::FeedbackSite {
                engine: "System C",
                table: &def.name,
                partition,
            };
            let with_feedback = |kind: PathKind, f: f64| {
                (f * optimizer::correction(&fsite, &class, kind)).clamp(0.0, 1.0)
            };
            let identity = |_: PathKind, f: f64| f;
            let decision = if self.tuning.adaptive {
                memo.best(&with_feedback)
            } else {
                memo.best(&identity)
            }?;
            if decision.winner.kind != PathKind::TemporalProbe {
                return None;
            }
            let mut cost = ProbeCost::default();
            let cands = tix.candidates(sys_probe.as_ref(), app_probe.as_ref(), &mut cost)?;
            let start = obs::trace_clock();
            let mut m = ScanMetrics {
                index_node_visits: cost.node_visits,
                planned_rows: decision.winner.est_rows,
                ..ScanMetrics::default()
            };
            let mut buf = Vec::new();
            for slot in cands {
                let rowid = slot as usize;
                m.index_probes += 1;
                if rowid >= part.len() || dead.is_some_and(|d| d.contains(&rowid)) {
                    continue;
                }
                m.rows_visited += 1;
                if !qualifies(part, rowid) {
                    m.versions_pruned += 1;
                    continue;
                }
                m.index_hits += 1;
                let v = self.version_from(table, part, rowid);
                buf.push(v.output_row(def));
            }
            let path = AccessPath::TemporalProbe(tix.name().to_string());
            if let Some(start) = start {
                let end = obs::trace_clock().unwrap_or(start);
                ScanSite {
                    engine: "System C",
                    table: &def.name,
                    partition,
                }
                .record(
                    &path,
                    m,
                    buf.len() as u64,
                    1,
                    start,
                    end.saturating_sub(start),
                );
            }
            if self.tuning.adaptive {
                optimizer::observe(
                    &fsite,
                    &class,
                    PathKind::TemporalProbe,
                    decision.winner.raw_rows,
                    m.rows_visited,
                );
            }
            metrics.merge(&m);
            rows.extend(buf);
            Some(path)
        };

        match probe_fragment(
            "current",
            &t.current,
            Some(&t.dead),
            t.cur_tindex.as_ref(),
            &mut rows,
            &mut metrics,
        ) {
            Some(path) => paths.push(path),
            None => {
                scan_fragment(
                    "current",
                    &t.current,
                    Some(&t.dead),
                    t.cur_tindex.as_ref(),
                    &mut rows,
                    &mut metrics,
                )?;
                paths.push(AccessPath::FullScan { partitions: 1 });
            }
        }
        if !sys.current_only() && def.has_system_time() {
            match probe_fragment(
                "history",
                &t.history,
                None,
                t.tindex.as_ref(),
                &mut rows,
                &mut metrics,
            ) {
                Some(path) => paths.push(path),
                None => {
                    scan_fragment(
                        "history",
                        &t.history,
                        None,
                        t.tindex.as_ref(),
                        &mut rows,
                        &mut metrics,
                    )?;
                    paths.push(AccessPath::FullScan { partitions: 1 });
                }
            }
        }
        let out = ScanOutput {
            rows,
            access: merge_access(paths.clone()),
            partition_paths: paths,
            metrics,
        };
        #[cfg(debug_assertions)]
        crate::api::validate_scan_output(def, sys, app, preds, &out)
            .unwrap_or_else(|msg| panic!("System C scan postcondition: {msg}"));
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
        // Column stores answer even point lookups with scans.
        self.scan(table, sys, app, &preds)
    }

    fn stats(&self, table: TableId) -> TableStats {
        let t = self.table(table);
        TableStats {
            current_rows: t.key_map.open_versions(),
            history_rows: t.history.len() + t.closed_in_current,
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
        for id in 0..self.tables.len() {
            self.merge_table(TableId(id as u32));
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
                key_bytes: t.key_map.memory_bytes(),
                heap_bytes: 0,
                open_versions: t.key_map.open_versions(),
            })
            .sum()
    }

    fn snapshot_versions(&self, table: TableId) -> Result<Vec<Version>> {
        let t = self.table(table);
        let mut out = Vec::with_capacity(t.current.len() + t.history.len());
        for rowid in 0..t.current.len() {
            if t.dead.contains(&rowid) {
                continue;
            }
            out.push(self.version_from(table, &t.current, rowid));
        }
        for rowid in 0..t.history.len() {
            out.push(self.version_from(table, &t.history, rowid));
        }
        Ok(out)
    }

    fn restore(&mut self, table: TableId, versions: Vec<Version>, now: SysTime) -> Result<()> {
        let def = self.catalog.def(table).clone();
        let (phys, _) = physical_schema(&def);
        {
            let t = self.table_mut(table);
            t.current = ColumnTable::new(phys.clone());
            t.history = ColumnTable::new(phys);
            t.key_map.clear();
            t.dead.clear();
            t.closed_in_current = 0;
            t.ignored_indexes.clear();
            t.tindex = None;
            t.cur_tindex = None;
        }
        for v in versions {
            if v.sys.is_current() {
                self.insert_version_at(table, v);
            } else {
                let phys_row = self.physical_row(table, &v);
                let t = self.table_mut(table);
                t.history
                    .append_row(&phys_row)
                    .map_err(|e| Error::Internal(format!("restore history append: {e}")))?;
            }
        }
        // The snapshot was taken from merged fragments; seal the deltas so
        // the restored physical layout matches the uncrashed engine's.
        let t = self.table_mut(table);
        t.current.merge();
        t.history.merge();
        self.now = now;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bitemp_table, insert_rows, simple_row};
    use bitempo_core::{AppDate, Period};

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
        assert!(!e.tables[0].ignored_indexes.is_empty());
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
}
