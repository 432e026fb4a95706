//! The engine-facing API: temporal scan specifications, DML, tuning.

use bitempo_core::{
    AppDate, AppPeriod, Key, Result, Row, SysPeriod, SysTime, TableDef, TableId, Value,
};
use std::ops::Bound;

/// System-time dimension of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysSpec {
    /// *Implicit* current time: no `AS OF` in the query at all. Engines with
    /// a current/history split touch only the current partition (paper
    /// §5.3.4).
    Current,
    /// *Explicit* `AS OF t` — even for `t == now` the optimizers of all
    /// three native systems failed to prune the history partition (Fig 6),
    /// and so do we: `AsOf` always visits both partitions.
    AsOf(SysTime),
    /// `FROM .. TO ..`: all versions whose system period overlaps the range.
    Range(SysPeriod),
    /// Every version ever recorded.
    All,
}

/// Application-time dimension of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSpec {
    /// `AS OF DATE d`.
    AsOf(AppDate),
    /// All versions whose application period overlaps the range.
    Range(AppPeriod),
    /// No application-time constraint.
    All,
}

impl SysSpec {
    /// True if a version with system period `sys` qualifies.
    pub fn matches(&self, sys: &SysPeriod) -> bool {
        match self {
            SysSpec::Current => sys.is_current(),
            SysSpec::AsOf(t) => sys.contains_point(*t),
            SysSpec::Range(p) => sys.overlaps(p),
            SysSpec::All => true,
        }
    }

    /// True if this spec can be answered from the current partition alone.
    /// Only the *implicit* form qualifies — reproducing Fig 6.
    pub fn current_only(&self) -> bool {
        matches!(self, SysSpec::Current)
    }
}

impl AppSpec {
    /// True if a version with application period `app` qualifies.
    pub fn matches(&self, app: &AppPeriod) -> bool {
        match self {
            AppSpec::AsOf(d) => app.contains_point(*d),
            AppSpec::Range(p) => app.overlaps(p),
            AppSpec::All => true,
        }
    }
}

/// A pushable range predicate on a value column: `lo <= col <= hi` with the
/// usual bound semantics. The engines may satisfy these from an index; they
/// always apply them, so callers need no residual filtering for them.
#[derive(Debug, Clone)]
pub struct ColRange {
    /// Column index into the table's *value* schema.
    pub col: usize,
    /// Lower bound.
    pub lo: Bound<Value>,
    /// Upper bound.
    pub hi: Bound<Value>,
}

impl ColRange {
    /// An equality predicate `col = v`.
    pub fn eq(col: usize, v: Value) -> ColRange {
        ColRange {
            col,
            lo: Bound::Included(v.clone()),
            hi: Bound::Included(v),
        }
    }

    /// A range predicate with both bounds optional-inclusive.
    pub fn between(col: usize, lo: Bound<Value>, hi: Bound<Value>) -> ColRange {
        ColRange { col, lo, hi }
    }

    /// True if `v` satisfies the range.
    pub fn matches(&self, v: &Value) -> bool {
        let lo_ok = match &self.lo {
            Bound::Included(b) => v >= b,
            Bound::Excluded(b) => v > b,
            Bound::Unbounded => true,
        };
        let hi_ok = match &self.hi {
            Bound::Included(b) => v <= b,
            Bound::Excluded(b) => v < b,
            Bound::Unbounded => true,
        };
        lo_ok && hi_ok
    }
}

/// Which access path a scan took — surfaced so tests and the tuning study
/// can verify *why* a plan was fast or slow, the way the paper reads
/// EXPLAIN output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Sequential scan; `partitions` is how many physical partitions were
    /// walked (current, history, staging logs...).
    FullScan {
        /// Number of partitions visited.
        partitions: u8,
    },
    /// B-Tree index scan (named index).
    IndexScan(String),
    /// GiST / R-Tree index scan (System D only).
    GistScan(String),
    /// Temporal-index probe (Timeline / interval index, `bitempo-tindex`):
    /// the candidate slots came from the named temporal index instead of a
    /// partition walk.
    TemporalProbe(String),
    /// Primary-key point access through an index.
    KeyLookup(String),
}

impl std::fmt::Display for AccessPath {
    /// Compact EXPLAIN-style rendering, used by access-path traces and the
    /// bench report breakdown tables.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessPath::FullScan { partitions } => write!(f, "full-scan({partitions})"),
            AccessPath::IndexScan(name) => write!(f, "btree({name})"),
            AccessPath::GistScan(name) => write!(f, "gist({name})"),
            AccessPath::TemporalProbe(name) => write!(f, "tindex({name})"),
            AccessPath::KeyLookup(name) => write!(f, "key-lookup({name})"),
        }
    }
}

/// Index families available to the tuning study (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Ordered index (the only kind every system supports).
    BTree,
    /// Generalized search tree over period rectangles (System D only).
    Gist,
}

/// Tuning configuration applied uniformly across engines (paper §5.1):
/// *A) Time Index*, *B) Key+Time Index*, *C) Value Index*. GiST selects the
/// index implementation on System D. `workers` sets the degree of
/// morsel-parallelism for sequential scans.
#[derive(Debug, Clone)]
pub struct TuningConfig {
    /// A) app-time index on the current partition, app+sys time indexes on
    /// the history partition.
    pub time_index: bool,
    /// B) key-based access paths on the history partition.
    pub key_time_index: bool,
    /// C) value indexes: `(table name, column name)` pairs.
    pub value_index: Vec<(String, String)>,
    /// Use GiST instead of B-Tree where the engine supports it (System D).
    pub gist: bool,
    /// Attach the `bitempo-tindex` temporal index (Timeline + interval
    /// index) to history-bearing partitions and let the planner select it
    /// as an access path — the index the benchmarked 2014 systems lacked.
    pub temporal_index: bool,
    /// Worker threads for morsel-parallel sequential scans (see
    /// [`crate::morsel`]). `1` scans single-threaded, exactly as before the
    /// morsel layer existed; any value produces identical results.
    pub workers: usize,
    /// Fault-injection hook: if set, the sequential-scan worker that picks
    /// up this morsel index panics, exercising the engine's panic
    /// containment ([`bitempo_core::Error::WorkerPanicked`]). Never set in
    /// real benchmark configurations.
    pub panic_morsel: Option<u64>,
}

impl Default for TuningConfig {
    /// No extra indexes; scans use every available core.
    fn default() -> TuningConfig {
        TuningConfig {
            time_index: false,
            key_time_index: false,
            value_index: Vec::new(),
            gist: false,
            temporal_index: false,
            workers: default_workers(),
            panic_morsel: None,
        }
    }
}

/// The default scan parallelism: one worker per available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl TuningConfig {
    /// The out-of-the-box configuration: no extra indexes.
    pub fn none() -> TuningConfig {
        TuningConfig::default()
    }

    /// The paper's "Time Index" setting.
    pub fn time() -> TuningConfig {
        TuningConfig {
            time_index: true,
            ..Default::default()
        }
    }

    /// The paper's "Key+Time Index" setting (includes the time indexes).
    pub fn key_time() -> TuningConfig {
        TuningConfig {
            time_index: true,
            key_time_index: true,
            ..Default::default()
        }
    }

    /// The temporal-index setting: no conventional extra indexes, but the
    /// Timeline/interval index attached to every history-bearing partition.
    pub fn temporal() -> TuningConfig {
        TuningConfig {
            temporal_index: true,
            ..Default::default()
        }
    }

    /// This configuration with the temporal index toggled.
    pub fn with_temporal_index(mut self, on: bool) -> TuningConfig {
        self.temporal_index = on;
        self
    }

    /// This configuration with the given scan parallelism.
    pub fn with_workers(mut self, workers: usize) -> TuningConfig {
        self.workers = workers.max(1);
        self
    }

    /// This configuration with a panic injected at the given morsel index
    /// (fault-injection testing only).
    pub fn with_panic_morsel(mut self, morsel: u64) -> TuningConfig {
        self.panic_morsel = Some(morsel);
        self
    }

    /// The morsel execution parameters implied by this configuration.
    pub fn exec(&self) -> crate::morsel::MorselExec {
        crate::morsel::MorselExec {
            workers: self.workers,
            panic_morsel: self.panic_morsel,
        }
    }
}

/// Row counts per physical partition, used by the planner heuristics and
/// reported by the architecture-analysis experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Versions visible at the current system time.
    pub current_rows: usize,
    /// Superseded versions (in history partitions / staging areas).
    pub history_rows: usize,
}

impl TableStats {
    /// Total stored versions.
    pub fn total(&self) -> usize {
        self.current_rows + self.history_rows
    }
}

/// Resident size of an engine's key → open-version structures, by capacity
/// (see [`BitemporalEngine::key_structures_footprint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyStructuresFootprint {
    /// Bytes of the structures that map a key to its open versions: the
    /// system-defined PK indexes on Systems A and B, the key maps on C and D.
    pub key_bytes: usize,
    /// Bytes of what those slots address: the heap slot arrays on A, B and
    /// D (row payloads behind their `Arc` excluded), the column fragments
    /// on System C (payload vectors, null masks and dictionaries — its
    /// rows live nowhere else; shared string payloads excluded).
    pub heap_bytes: usize,
    /// Bytes of the tuning indexes (`OrderedIndex`es beside the system PK,
    /// System D's GiST): zero on an untuned engine, and on System C, which
    /// ignores them.
    pub tuning_index_bytes: usize,
    /// Open versions the key structures address.
    pub open_versions: usize,
}

impl KeyStructuresFootprint {
    /// Key-structure bytes per open version (0 for an empty engine).
    pub fn key_bytes_per_open_version(&self) -> f64 {
        self.key_bytes as f64 / self.open_versions.max(1) as f64
    }
}

/// Field-wise, for rolling an engine's tables up.
impl std::iter::Sum for KeyStructuresFootprint {
    fn sum<I: Iterator<Item = Self>>(tables: I) -> Self {
        tables.fold(Self::default(), |a, b| KeyStructuresFootprint {
            key_bytes: a.key_bytes + b.key_bytes,
            heap_bytes: a.heap_bytes + b.heap_bytes,
            tuning_index_bytes: a.tuning_index_bytes + b.tuning_index_bytes,
            open_versions: a.open_versions + b.open_versions,
        })
    }
}

/// The result of a scan: materialized rows plus the access paths taken.
#[derive(Debug, Clone)]
pub struct ScanOutput {
    /// Rows in the table's [`TableDef::scan_schema`] layout.
    pub rows: Vec<Row>,
    /// Summary access path (the most specific one across partitions).
    pub access: AccessPath,
    /// Per-physical-partition access paths, in scan order (current first) —
    /// the EXPLAIN output of this benchmark, used by the tuning study and
    /// the plan-shape tests.
    pub partition_paths: Vec<AccessPath>,
    /// Work counters (morsels dispatched, versions visited/pruned, index
    /// probes). Deterministic: identical for every worker count.
    pub metrics: crate::morsel::ScanMetrics,
}

/// Statically checks a scan's output against the specification that
/// produced it: every row carries the declared output arity, the surfaced
/// periods satisfy the temporal specs, and every pushed predicate holds
/// (pushed predicates promise "no residual filtering needed" — see
/// [`ColRange`]). The engine shell calls this under `debug_assertions` after
/// every scan, so any drift between an access path and the logical
/// specification fails loudly in tests instead of skewing measurements.
pub fn validate_scan_output(
    def: &TableDef,
    sys: &SysSpec,
    app: &AppSpec,
    preds: &[ColRange],
    out: &ScanOutput,
) -> std::result::Result<(), String> {
    use bitempo_core::TemporalClass;
    let value_arity = def.schema.arity();
    let mut expected = value_arity;
    if def.temporal == TemporalClass::Bitemporal {
        expected += 2;
    }
    if def.temporal != TemporalClass::NonTemporal {
        expected += 2;
    }
    for (i, row) in out.rows.iter().enumerate() {
        if row.arity() != expected {
            return Err(format!(
                "row {i} of `{}` has arity {}, scan schema has {expected}",
                def.name,
                row.arity()
            ));
        }
        if def.temporal == TemporalClass::Bitemporal {
            match (row.get(value_arity), row.get(value_arity + 1)) {
                (Value::Date(s), Value::Date(e)) => {
                    let p = AppPeriod { start: *s, end: *e };
                    if !app.matches(&p) {
                        return Err(format!(
                            "row {i} of `{}` has app period {p} outside {app:?}",
                            def.name
                        ));
                    }
                }
                other => {
                    return Err(format!(
                        "row {i} of `{}` has non-date app period columns {other:?}",
                        def.name
                    ))
                }
            }
        }
        if def.temporal != TemporalClass::NonTemporal {
            let base = if def.temporal == TemporalClass::Bitemporal {
                value_arity + 2
            } else {
                value_arity
            };
            match (row.get(base), row.get(base + 1)) {
                (Value::SysTime(s), Value::SysTime(e)) => {
                    let p = SysPeriod { start: *s, end: *e };
                    if !sys.matches(&p) {
                        return Err(format!(
                            "row {i} of `{}` has sys period {p} outside {sys:?}",
                            def.name
                        ));
                    }
                }
                other => {
                    return Err(format!(
                        "row {i} of `{}` has non-systime period columns {other:?}",
                        def.name
                    ))
                }
            }
        }
        for p in preds {
            if p.col < value_arity && !p.matches(row.get(p.col)) {
                return Err(format!(
                    "row {i} of `{}` violates pushed predicate on column {}",
                    def.name, p.col
                ));
            }
        }
    }
    Ok(())
}

/// The common interface of all four engines.
///
/// DML executes in the context of an open transaction; [`Self::commit`]
/// assigns the system time. The history loader replays the generator archive
/// through exactly this interface (paper §4.2), except on engines that
/// support manually-set system time (System D), where
/// [`Self::bulk_load`] is permitted.
///
/// `Send + Sync`: engines keep no interior mutability — every mutation goes
/// through `&mut self` — so shared `&self` reads from multiple threads are
/// safe by construction. The MVCC layer (`bitempo-txn`) relies on this to
/// serve snapshot reads under a shared lock while a single writer commits.
pub trait BitemporalEngine: Send + Sync {
    /// Engine display name ("System A" .. "System D").
    fn name(&self) -> &'static str;

    /// One-line physical-architecture description (for the architecture
    /// analysis experiment, paper §5.2).
    fn architecture(&self) -> &'static str;

    /// Creates a table.
    fn create_table(&mut self, def: TableDef) -> Result<TableId>;

    /// Resolves a table by name.
    fn resolve(&self, name: &str) -> Result<TableId>;

    /// All table names, in creation order (catalog listing).
    fn table_names(&self) -> Vec<String>;

    /// The logical definition of a table.
    fn table_def(&self, table: TableId) -> &TableDef;

    /// Applies a tuning configuration, building any configured indexes over
    /// existing data. Engines are free to *accept and ignore* indexes their
    /// archetype would not exploit (System C builds but never uses them).
    fn apply_tuning(&mut self, tuning: &TuningConfig) -> Result<()>;

    /// Inserts a row valid for `app` (ignored / must be `None` on
    /// non-bitemporal tables; defaults to the full axis if `None` on
    /// bitemporal ones).
    fn insert(&mut self, table: TableId, row: Row, app: Option<AppPeriod>) -> Result<()>;

    /// Sequenced update: for every version of `key` visible now whose
    /// application period overlaps `portion`, applies `updates` to the
    /// overlap and preserves the residues (paper §2.3). `None` portion means
    /// the full application axis. Returns the number of affected versions.
    fn update(
        &mut self,
        table: TableId,
        key: &Key,
        updates: &[(usize, Value)],
        portion: Option<AppPeriod>,
    ) -> Result<usize>;

    /// Sequenced delete, analogous to [`Self::update`].
    fn delete(&mut self, table: TableId, key: &Key, portion: Option<AppPeriod>) -> Result<usize>;

    /// Replaces the application period of `key`'s visible versions with
    /// `period` (the benchmark's "overwrite application time" operation,
    /// paper §3.2/Table 2). Returns the number of affected versions.
    fn overwrite_app_period(
        &mut self,
        table: TableId,
        key: &Key,
        period: AppPeriod,
    ) -> Result<usize>;

    /// Commits the open transaction and returns its system time.
    fn commit(&mut self) -> SysTime;

    /// The system time of the last committed transaction.
    fn now(&self) -> SysTime;

    /// Advances the commit clock so the *next* [`Self::commit`] lands at
    /// `to.next()` or later. Never moves the clock backwards. A sharded
    /// cluster uses this to stamp every shard's commits with the global
    /// oracle timestamp, so cross-shard snapshots line up byte-for-byte
    /// with a single-engine serial history. Read-only views ignore it.
    fn advance_clock(&mut self, _to: SysTime) {}

    /// Scans `table` under the given temporal specification, applying (and
    /// possibly index-accelerating) the pushed `preds`.
    fn scan(
        &self,
        table: TableId,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
    ) -> Result<ScanOutput>;

    /// Fetches all versions of one key under the temporal specification —
    /// the audit access pattern (K queries). Uses a key index if one exists.
    fn lookup_key(
        &self,
        table: TableId,
        key: &Key,
        sys: &SysSpec,
        app: &AppSpec,
    ) -> Result<ScanOutput>;

    /// Partition row counts.
    fn stats(&self, table: TableId) -> TableStats;

    /// Aggregate footprint of all attached temporal indexes (zero when the
    /// temporal index is off). The `temporal-index` benchmark reports this
    /// next to the probe-time wins so maintenance cost is never hidden.
    fn temporal_index_footprint(&self) -> bitempo_tindex::IndexFootprint {
        bitempo_tindex::IndexFootprint::default()
    }

    /// What the engine holds to answer "which open versions does key *k*
    /// have", next to the heaps those answers point into — the first slice
    /// of the per-layer space accounting. Zero for views that own no data.
    fn key_structures_footprint(&self) -> KeyStructuresFootprint {
        KeyStructuresFootprint::default()
    }

    /// True if the engine lets the loader set system time explicitly and
    /// therefore supports bulk-loading a pre-stamped history (System D;
    /// paper §5.8).
    fn supports_manual_system_time(&self) -> bool {
        false
    }

    /// Bulk-loads fully-stamped versions. Only engines with manual system
    /// time support this; others return [`bitempo_core::Error::Unsupported`].
    fn bulk_load(
        &mut self,
        _table: TableId,
        _versions: Vec<(Row, AppPeriod, SysPeriod)>,
    ) -> Result<()> {
        Err(bitempo_core::Error::Unsupported(
            "bulk load with manual system time".into(),
        ))
    }

    /// Forces any staged/deferred physical reorganization (System B drains
    /// its undo log, System C merges delta into main). A no-op elsewhere.
    /// The benchmark calls this between loading and measuring, like the
    /// paper's warm-up runs.
    fn checkpoint(&mut self) {}

    /// Every logical version of `table` — current and historical — as the
    /// engine would stamp them, in a deterministic order. This is the
    /// engine's contribution to a durability checkpoint: callers should
    /// [`Self::checkpoint`] first so staged state (System B's undo log,
    /// System C's delta) is folded in before the snapshot is taken.
    fn snapshot_versions(&self, table: TableId) -> Result<Vec<crate::version::Version>>;

    /// Rebuilds `table` from a [`Self::snapshot_versions`] snapshot taken
    /// at system time `now`, replacing its current contents. Primary-key
    /// bookkeeping is rebuilt; tuning-dependent indexes are left empty —
    /// recovery re-applies the tuning configuration afterwards, exactly as
    /// the bench runner does after a cold load.
    fn restore(
        &mut self,
        table: TableId,
        versions: Vec<crate::version::Version>,
        now: SysTime,
    ) -> Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::Period;

    #[test]
    fn sys_spec_matching() {
        let closed = SysPeriod::new(SysTime(5), SysTime(10));
        let open = SysPeriod::since(SysTime(7));
        assert!(!SysSpec::Current.matches(&closed));
        assert!(SysSpec::Current.matches(&open));
        assert!(SysSpec::AsOf(SysTime(5)).matches(&closed));
        assert!(!SysSpec::AsOf(SysTime(10)).matches(&closed));
        assert!(SysSpec::AsOf(SysTime(100)).matches(&open));
        assert!(SysSpec::Range(Period::new(SysTime(9), SysTime(20))).matches(&closed));
        assert!(!SysSpec::Range(Period::new(SysTime(10), SysTime(20))).matches(&closed));
        assert!(SysSpec::All.matches(&closed));
        assert!(SysSpec::Current.current_only());
        assert!(!SysSpec::AsOf(SysTime(0)).current_only());
    }

    #[test]
    fn app_spec_matching() {
        let p = AppPeriod::new(AppDate(10), AppDate(20));
        assert!(AppSpec::AsOf(AppDate(10)).matches(&p));
        assert!(!AppSpec::AsOf(AppDate(20)).matches(&p));
        assert!(AppSpec::Range(AppPeriod::new(AppDate(19), AppDate(30))).matches(&p));
        assert!(!AppSpec::Range(AppPeriod::new(AppDate(20), AppDate(30))).matches(&p));
        assert!(AppSpec::All.matches(&p));
    }

    #[test]
    fn col_range_bounds() {
        let r = ColRange::eq(0, Value::Int(5));
        assert!(r.matches(&Value::Int(5)));
        assert!(!r.matches(&Value::Int(6)));
        let r = ColRange::between(
            1,
            Bound::Excluded(Value::Int(10)),
            Bound::Included(Value::Int(20)),
        );
        assert!(!r.matches(&Value::Int(10)));
        assert!(r.matches(&Value::Int(11)));
        assert!(r.matches(&Value::Int(20)));
        assert!(!r.matches(&Value::Int(21)));
        let open = ColRange::between(0, Bound::Unbounded, Bound::Unbounded);
        assert!(open.matches(&Value::str("anything")));
    }

    #[test]
    fn tuning_presets() {
        assert!(!TuningConfig::none().time_index);
        assert!(TuningConfig::time().time_index);
        let kt = TuningConfig::key_time();
        assert!(kt.time_index && kt.key_time_index);
        assert!(kt.workers >= 1, "default parallelism is at least 1");
        assert_eq!(TuningConfig::none().with_workers(0).workers, 1);
        assert_eq!(TuningConfig::none().with_workers(4).workers, 4);
        assert!(!TuningConfig::none().temporal_index);
        assert!(TuningConfig::temporal().temporal_index);
        assert!(
            TuningConfig::none()
                .with_temporal_index(true)
                .temporal_index
        );
    }

    #[test]
    fn stats_total() {
        let s = TableStats {
            current_rows: 3,
            history_rows: 4,
        };
        assert_eq!(s.total(), 7);
    }
}
