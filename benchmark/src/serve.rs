//! The two serve workloads. `serve_txn`: per engine one `TxnManager` over a
//! `dur_async` file WAL. `serve_sharded`: per engine a 4-shard `Cluster`
//! over per-shard file WALs. Both serve the same storm: a 2 000-key table,
//! 2 closed-loop clients, rounds that visit A, B, C, D in turn with one op
//! pattern, the same op counts and the same seeded keys; afterwards every
//! WAL is recovered and must equal the served state.

use crate::layers::Recording;
use crate::manifest::{ENGINES, SERVE_SHARDED, SHARD_CLASSES, TXN_CLASSES};
use crate::measure::{measure_rounds, timed_setups, Outcome};
use crate::stats::{geomean, median};
use crate::trace::{self, maybe_traced, span, SinkCounts, TracedSink};
use crate::RunArgs;
use bitempo_core::{Error, Key, Pcg32, Result, SysTime, TableId, Value};
use bitempo_engine::api::{AppSpec, BitemporalEngine, SysSpec, TuningConfig};
use bitempo_engine::testutil::{bitemp_table, simple_row};
use bitempo_engine::{build_engine, SystemKind};
use bitempo_shard::{partition_checkpoint, recover_cluster, Cluster, ShardInput};
use bitempo_storage::DurabilityMode;
use bitempo_txn::TxnManager;
use bitempo_wal::{canonical_state, Checkpoint, TxnWal, WalSink};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Sizing constants (see README "Sizing"). A full run measures
/// `ROUNDS_PER_SECOND × --seconds` rounds; each round every engine serves
/// `CLIENTS × OPS_PER_CLIENT` ops, the same on both workloads. System A
/// resolves keys through its primary-key index and gets more ops per visit;
/// B, C and D resolve them by scanning the serving table.
pub const ROUNDS_PER_SECOND: u64 = 2;
pub const KEYS: i64 = 2000;
pub const SHARDS: usize = 4;
pub const CLIENTS: usize = 2;
/// Whole patterns, so that exactly one write in four crosses shards.
pub const OPS_PER_CLIENT: [usize; 4] = [800, 240, 200, 240];
/// Complete set-ups per run; `setup_s` is their median, the last one serves.
/// One takes 5-10 ms and the host stalls in bursts of ~0.1 s, so the
/// set-ups have to span several bursts for their median to sit between them.
pub const SETUPS: usize = 75;
/// Ops per (class, engine) cell kept in the trace file.
pub const TRACE_OPS_PER_CELL: usize = 40;

/// The storm's op kinds; a slot of the pattern holds one.
pub const READ_CURRENT: usize = 0;
pub const READ_ASOF: usize = 1;
pub const WRITE_SINGLE: usize = 2;
pub const WRITE_CROSS: usize = 3;

/// A client's op stream, repeated: 30 % `READ_CURRENT`, 20 % `READ_ASOF`,
/// 50 % writes of which every fourth is a `WRITE_CROSS` (its two keys hash
/// to different shards of a 4-shard cluster), the others `WRITE_SINGLE`
/// (both keys on one shard). `serve_txn` serves both kinds as `write`.
pub fn storm_pattern() -> Vec<usize> {
    const W: usize = WRITE_SINGLE;
    const BASE: [usize; 10] = [
        W,
        READ_CURRENT,
        W,
        READ_ASOF,
        W,
        READ_CURRENT,
        W,
        READ_ASOF,
        W,
        READ_CURRENT,
    ];
    let mut writes = 0;
    let mut pattern = Vec::new();
    for _ in 0..4 {
        for kind in BASE {
            writes += usize::from(kind == W);
            let cross = kind == W && writes % 4 == 0;
            pattern.push(if cross { WRITE_CROSS } else { kind });
        }
    }
    pattern
}

pub(crate) const TXN_SPANS: [&str; 3] = ["op.read_current", "op.read_asof", "op.write"];
const SHARD_SPANS: [&str; 4] = [
    "op.read_snapshot",
    "op.read_asof",
    "op.write_single",
    "op.write_cross",
];

fn recovery_tuning() -> TuningConfig {
    TuningConfig::none().with_workers(1)
}

/// A WAL over a fresh file at `path`, counted and spanned when `traced`.
pub fn file_wal(
    path: &Path,
    mode: DurabilityMode,
    traced: bool,
) -> Result<(TxnWal, Option<Arc<SinkCounts>>)> {
    let file = std::fs::File::create(path)?;
    let (sink, counts): (Box<dyn WalSink>, _) = if traced {
        let (sink, counts) = TracedSink::new(file);
        (Box::new(sink), Some(counts))
    } else {
        (Box::new(file), None)
    };
    Ok((TxnWal::create(sink, mode)?, counts))
}

/// A fresh engine holding the serving table with keys `0..keys`, committed,
/// and its checkpoint.
pub fn seeded_engine(
    kind: SystemKind,
    keys: i64,
) -> Result<(Box<dyn BitemporalEngine>, TableId, Checkpoint)> {
    let mut engine = build_engine(kind);
    let table = engine.create_table(bitemp_table("balance"))?;
    for k in 0..keys {
        engine.insert(table, simple_row(k, 0), None)?;
    }
    engine.commit();
    let base = Checkpoint::capture(engine.as_mut(), &[table], 0)?;
    Ok((engine, table, base))
}

/// One served facade: what the clients call.
pub trait Target: Sync {
    /// The op class (index into the workload's classes and spans) this
    /// facade reports an op of `kind` under.
    fn class_of(&self, kind: usize) -> usize;
    /// Runs one op of `kind`; conflict losers retry inside. Returns the
    /// retries it took.
    fn op(&self, kind: usize, keys: [i64; 2], asof: f64, val: i64) -> Result<u32>;
}

/// Keys `0..keys` grouped by the shard of a `shards`-way cluster that owns
/// them. Both workloads draw their keys through the 4-way grouping, so that
/// they serve the same keys and `serve_txn` sees the same single-/cross-
/// shard key pairs `serve_sharded` does.
pub fn keys_by_shard(keys: i64, shards: usize) -> Result<Vec<Vec<i64>>> {
    let mut by_shard = vec![Vec::new(); shards];
    for k in 0..keys {
        by_shard[bitempo_workloads::sharding::shard_of(&Key::int(k), shards)].push(k);
    }
    if by_shard.iter().any(|b| b.len() < 2) {
        return Err(Error::Invalid(format!(
            "{shards}-way partition of {keys} keys left a shard short of keys"
        )));
    }
    Ok(by_shard)
}

/// The seeded parameters of one op of `kind`: a key of a random shard, for
/// a write a second key of the same shard (`WRITE_SINGLE`) or of the next
/// one (`WRITE_CROSS`), and how far back an AS OF read looks (a share of
/// the commits so far). Every kind draws all of them.
fn draw(rng: &mut Pcg32, by_shard: &[Vec<i64>], kind: usize) -> ([i64; 2], f64) {
    let home = rng.int_range(0, by_shard.len() as i64 - 1) as usize;
    let mine = &by_shard[home];
    let a = rng.int_range(0, mine.len() as i64 - 1) as usize;
    let b = (a + rng.int_range(1, mine.len() as i64 - 1) as usize) % mine.len();
    let other = *rng.pick(&by_shard[(home + 1) % by_shard.len()]);
    let asof = rng.int_range(0, 999_999) as f64 / 1e6;
    let second = if kind == WRITE_CROSS { other } else { mine[b] };
    ([mine[a], second], asof)
}

/// The system time a share `asof` of the way from the first commit to `pin`.
fn past_commit(pin: SysTime, asof: f64) -> SysSpec {
    SysSpec::AsOf(SysTime(1 + (asof * pin.0.saturating_sub(1) as f64) as u64))
}

/// `serve_txn`'s facade: one manager, and what recovering it takes.
pub struct TxnTarget {
    pub mgr: TxnManager,
    pub table: TableId,
    /// The encoded checkpoint the WAL starts from.
    pub base: Vec<u8>,
    pub wal_path: PathBuf,
    /// The WAL sink's counters (traced builds only).
    pub sink: Option<Arc<SinkCounts>>,
}

impl TxnTarget {
    pub fn build(
        kind: SystemKind,
        keys: i64,
        wal_path: &Path,
        mode: DurabilityMode,
        traced: bool,
    ) -> Result<TxnTarget> {
        let (engine, table, base) = seeded_engine(kind, keys)?;
        let (wal, sink) = file_wal(wal_path, mode, traced)?;
        Ok(TxnTarget {
            mgr: TxnManager::new(maybe_traced(engine, traced), vec![table], Some(wal))?,
            table,
            base: base.encode(),
            wal_path: wal_path.to_path_buf(),
            sink,
        })
    }

    /// A pinned snapshot `lookup_key` under the system-time spec `sys`
    /// picks once it knows the pin.
    pub fn read(&self, key: i64, sys: impl FnOnce(SysTime) -> SysSpec) -> Result<()> {
        let txn = {
            let _s = span("txn.begin");
            self.mgr.begin()?
        };
        let sys = sys(txn.pin());
        let _s = span("txn.snapshot_read");
        let snap = txn.snapshot();
        let out = snap
            .view()
            .lookup_key(self.table, &Key::int(key), &sys, &AppSpec::All)?;
        if out.rows.is_empty() {
            return Err(Error::Invalid(format!("key {key} read empty at {sys:?}")));
        }
        Ok(())
    }

    /// begin -> update each key -> commit acknowledged; retries on conflict.
    pub fn write(&self, keys: &[i64], val: i64) -> Result<u32> {
        let mut retries = 0;
        loop {
            let mut txn = {
                let _s = span("txn.begin");
                self.mgr.begin()?
            };
            for k in keys {
                txn.update(self.table, &Key::int(*k), &[(1, Value::Int(val))], None)?;
            }
            let _s = span("txn.commit");
            match txn.commit() {
                Ok(_) => return Ok(retries),
                Err(Error::Conflict(_)) => retries += 1,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Target for TxnTarget {
    fn class_of(&self, kind: usize) -> usize {
        // One manager holds every key: both kinds of write are `write`.
        kind.min(WRITE_SINGLE)
    }

    fn op(&self, kind: usize, keys: [i64; 2], asof: f64, val: i64) -> Result<u32> {
        match kind {
            READ_CURRENT => self.read(keys[0], |_| SysSpec::Current).map(|()| 0),
            READ_ASOF => self.read(keys[0], |pin| past_commit(pin, asof)).map(|()| 0),
            _ => self.write(&keys, val),
        }
    }
}

/// `serve_sharded`'s facade: one cluster, and what recovering it takes.
pub struct ShardTarget {
    pub cluster: Cluster,
    pub table: TableId,
    /// Each shard's encoded base checkpoint; its WAL is
    /// `<wal_stem>.<shard>.wal`.
    pub bases: Vec<Vec<u8>>,
    pub wal_stem: PathBuf,
    /// The WAL sinks' counters (traced builds only).
    pub sinks: Vec<Arc<SinkCounts>>,
}

impl ShardTarget {
    /// Builds an N-shard `dur_async` cluster over per-shard file WALs.
    pub fn build(
        kind: SystemKind,
        keys: i64,
        shards: usize,
        wal_stem: &Path,
        traced: bool,
    ) -> Result<ShardTarget> {
        let (_, _, base) = seeded_engine(kind, keys)?;
        let parts = partition_checkpoint(&base, shards);
        let mut mgrs = Vec::new();
        let mut sinks = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let mut engine = build_engine(kind);
            let ids = part.restore_into(engine.as_mut())?;
            let (wal, c) = file_wal(&shard_wal_path(wal_stem, i), DurabilityMode::Async, traced)?;
            sinks.extend(c);
            mgrs.push(TxnManager::new(
                maybe_traced(engine, traced),
                ids,
                Some(wal),
            )?);
        }
        let cluster = Cluster::from_managers(mgrs)?;
        let table = cluster.table_ids()[0];
        Ok(ShardTarget {
            cluster,
            table,
            bases: parts.iter().map(Checkpoint::encode).collect(),
            wal_stem: wal_stem.to_path_buf(),
            sinks,
        })
    }

    /// A `lookup_key` through a cluster-wide snapshot, under the
    /// system-time spec `sys` picks once it knows the snapshot's time.
    pub fn read(&self, key: i64, sys: impl FnOnce(SysTime) -> SysSpec) -> Result<()> {
        let _s = span("shard.snapshot_read");
        let snap = self.cluster.snapshot();
        let sys = sys(snap.at());
        let guards = snap.read()?;
        let out = guards
            .view()
            .lookup_key(self.table, &Key::int(key), &sys, &AppSpec::All)?;
        if out.rows.is_empty() {
            return Err(Error::Invalid(format!("key {key} read empty at {sys:?}")));
        }
        Ok(())
    }

    /// begin -> update each key -> commit acknowledged; retries on conflict.
    pub fn write(&self, keys: &[i64], val: i64) -> Result<u32> {
        let mut retries = 0;
        loop {
            let mut txn = {
                let _s = span("shard.begin");
                self.cluster.begin()?
            };
            for k in keys {
                txn.update(self.table, &Key::int(*k), &[(1, Value::Int(val))], None)?;
            }
            let _s = span("shard.commit");
            match txn.commit() {
                Ok(_) => return Ok(retries),
                Err(Error::Conflict(_)) => retries += 1,
                Err(e) => return Err(e),
            }
        }
    }
}

fn shard_wal_path(stem: &Path, shard: usize) -> PathBuf {
    stem.with_extension(format!("{shard}.wal"))
}

impl Target for ShardTarget {
    fn class_of(&self, kind: usize) -> usize {
        kind
    }

    fn op(&self, kind: usize, keys: [i64; 2], asof: f64, val: i64) -> Result<u32> {
        match kind {
            READ_CURRENT => self.read(keys[0], |_| SysSpec::Current).map(|()| 0),
            READ_ASOF => self.read(keys[0], |at| past_commit(at, asof)).map(|()| 0),
            _ => self.write(&keys, val),
        }
    }
}

/// What one client did in one visit.
#[derive(Default)]
pub struct ClientLog {
    /// `(class, microseconds)` of every completed op, in order.
    pub lat: Vec<(usize, f64)>,
    pub retries: u64,
    pub failures: Vec<String>,
}

/// What a visit serves: the facade, the keys grouped by owning shard, the
/// repeating pattern of op kinds and the span name of each op class.
#[derive(Clone, Copy)]
pub struct Storm<'a> {
    pub target: &'a dyn Target,
    pub by_shard: &'a [Vec<i64>],
    pub pattern: &'a [usize],
    pub spans: &'a [&'static str],
}

/// One closed-loop client: `ops` ops following the pattern, the next sent
/// when the previous one returned.
pub fn client(storm: Storm<'_>, ops: usize, mut rng: Pcg32, serial_base: i64) -> ClientLog {
    let Storm {
        target,
        by_shard,
        pattern,
        spans,
    } = storm;
    let mut log = ClientLog::default();
    for i in 0..ops {
        let kind = pattern[i % pattern.len()];
        let class = target.class_of(kind);
        let (keys, asof) = draw(&mut rng, by_shard, kind);
        let t = Instant::now();
        let res = {
            let _s = span(spans[class]);
            target.op(kind, keys, asof, serial_base + i as i64)
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        match res {
            Ok(retries) => {
                log.lat.push((class, us));
                log.retries += u64::from(retries);
            }
            Err(e) => log.failures.push(format!("{}: {e}", spans[class])),
        }
    }
    log
}

/// One engine's visit: `clients` closed-loop clients side by side (the one
/// traced client runs on this thread, where the recorder is). Returns the
/// clients' logs and the visit's wall seconds.
pub fn visit(
    storm: Storm<'_>,
    clients: usize,
    ops_per_client: usize,
    seed: u64,
    stream: u64,
    serial_base: i64,
) -> (Vec<ClientLog>, f64) {
    let rng = |c: usize| Pcg32::new(seed, stream * 16 + c as u64);
    let serial = |c: usize| serial_base + (c * ops_per_client) as i64;
    let t = Instant::now();
    let logs = if clients == 1 {
        vec![client(storm, ops_per_client, rng(0), serial(0))]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (rng, serial) = (rng(c), serial(c));
                    s.spawn(move || client(storm, ops_per_client, rng, serial))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    (logs, t.elapsed().as_secs_f64())
}

enum Served {
    Txn(TxnTarget),
    Sharded(ShardTarget),
}

impl Served {
    fn target(&self) -> &dyn Target {
        match self {
            Served::Txn(t) => t,
            Served::Sharded(t) => t,
        }
    }

    fn sinks(&self) -> &[Arc<SinkCounts>] {
        match self {
            Served::Txn(t) => t.sink.as_slice(),
            Served::Sharded(t) => &t.sinks,
        }
    }
}

/// One complete set-up: the facade of every engine, ready to serve.
fn set_up(sharded: bool, keys: i64, tmp: &Path, traced: bool) -> Result<Vec<Served>> {
    SystemKind::ALL
        .into_iter()
        .zip(ENGINES)
        .map(|(kind, name)| {
            let path = tmp.join(format!("serve_{name}.wal"));
            Ok(if sharded {
                Served::Sharded(ShardTarget::build(kind, keys, SHARDS, &path, traced)?)
            } else {
                let mode = DurabilityMode::Async;
                Served::Txn(TxnTarget::build(kind, keys, &path, mode, traced)?)
            })
        })
        .collect()
}

/// Recovery wall seconds and commits replayed, summed over the engines.
#[derive(Default)]
struct Recovery {
    wall_s: f64,
    commits: u64,
}

/// Closes the facade, recovers from base checkpoint + WAL bytes and compares
/// with the served state. `acked[..]` = (writes, cross-shard writes)
/// acknowledged to the clients.
fn verify(
    kind: SystemKind,
    served: Served,
    writes: u64,
    cross: u64,
    out: &mut Outcome,
    recovery: &mut Recovery,
) -> Result<()> {
    let mut check = |ok: bool, why: String| out.check(ok, || why);
    match served {
        Served::Txn(t) => {
            let (base, path) = (t.base, t.wal_path);
            let (live, ids, durable) = t.mgr.close()?;
            check(
                durable == writes,
                format!("{kind}: close acknowledged {durable} of {writes} commits"),
            );
            let bytes = std::fs::read(&path)?;
            let started = Instant::now();
            let rec = {
                let _s = span("wal.recover");
                bitempo_wal::recover(kind, &bytes, &[base], &recovery_tuning())?
            };
            recovery.wall_s += started.elapsed().as_secs_f64();
            recovery.commits += rec.report.commits;
            check(
                rec.report.commits == writes,
                format!(
                    "{kind}: recovered {} of {writes} commits",
                    rec.report.commits
                ),
            );
            check(
                canonical_state(rec.engine.as_ref(), &rec.ids)?
                    == canonical_state(live.as_ref(), &ids)?,
                format!("{kind}: recovered state diverges from the served engine"),
            );
        }
        Served::Sharded(t) => {
            let (bases, path) = (t.bases, t.wal_stem);
            let c = t.cluster.counters();
            let (single, crossed) = (
                c.single_shard.load(Ordering::Relaxed),
                c.cross_shard.load(Ordering::Relaxed),
            );
            check(
                single + crossed == writes && crossed == cross && crossed * 4 == writes,
                format!(
                    "{kind}: cluster committed {single} single + {crossed} cross-shard, clients \
                     were acknowledged {writes} writes of which {cross} cross-shard (want 25 %)"
                ),
            );
            let mut served_state = Vec::new();
            let mut records = 0;
            for (live, ids, durable) in t.cluster.close()? {
                served_state.push(canonical_state(live.as_ref(), &ids)?);
                records += durable;
            }
            // One record per single-shard commit; a prepare and a decision
            // on each of the two participants of a cross-shard one.
            check(
                records == single + 4 * crossed,
                format!(
                    "{kind}: close acknowledged {records} WAL records, want {}",
                    single + 4 * crossed
                ),
            );
            let inputs: Vec<ShardInput> = bases
                .into_iter()
                .enumerate()
                .map(|(i, base)| {
                    Ok(ShardInput {
                        wal: std::fs::read(shard_wal_path(&path, i))?,
                        checkpoints: vec![base],
                    })
                })
                .collect::<Result<_>>()?;
            let started = Instant::now();
            let rec = {
                let _s = span("shard.recover_cluster");
                recover_cluster(kind, &inputs, &recovery_tuning())?
            };
            recovery.wall_s += started.elapsed().as_secs_f64();
            recovery.commits += writes;
            check(
                rec.degraded.is_empty() && rec.presumed_aborted.is_empty(),
                format!("{kind}: recovery left degraded shards or undecided prepares"),
            );
            for (i, (r, want)) in rec.shards.iter().zip(&served_state).enumerate() {
                check(
                    &canonical_state(r.engine.as_ref(), &r.ids)? == want,
                    format!("{kind}: shard {i} recovered state diverges from served"),
                );
            }
        }
    }
    Ok(())
}

/// Runs one of the two serve workloads.
pub fn run(args: &RunArgs, out: &mut Outcome) -> Result<()> {
    let sharded = args.workload == SERVE_SHARDED;
    let (classes, spans): (&[&'static str], &[&'static str]) = if sharded {
        (&SHARD_CLASSES, &SHARD_SPANS)
    } else {
        (&TXN_CLASSES, &TXN_SPANS)
    };
    let pattern = storm_pattern();
    let (keys, mut rounds, ops_per_client, setups) = if args.smoke {
        (200, 3, [pattern.len() * 10; 4], 1)
    } else {
        let rounds = (ROUNDS_PER_SECOND * args.seconds) as usize;
        (KEYS, rounds, OPS_PER_CLIENT, SETUPS)
    };
    let clients = if args.trace { 1 } else { CLIENTS };
    if args.trace {
        rounds = (rounds / 2).max(2);
    }
    let by_shard = keys_by_shard(keys, SHARDS)?;
    let tmp = crate::tmp_dir()?;
    let setups = if args.trace { 1 } else { setups };
    let (served, setup_s) = timed_setups(setups, || set_up(sharded, keys, &tmp, args.trace))?;
    out.set("setup_s", setup_s);
    println!(
        "{keys} keys, {clients} client(s) per engine (closed loop), dur_async on file WALs under {}, scan workers=1",
        tmp.display()
    );

    let sink_totals = || {
        let sinks = served.iter().flat_map(Served::sinks);
        sinks.fold((0, 0), |(w, b), c| {
            let (writes, bytes, _) = c.read();
            (w + writes, b + bytes)
        })
    };
    let mut acked = [(0u64, 0u64); 4]; // (writes, cross-shard writes) per engine
    let mut counted = (0u64, 0u64); // (writes, retries) of the measured rounds
    let mut sink0 = (0, 0);
    // The warm-up round's writes stay in the tables, and are verified.
    let measured = measure_rounds(args.trace, classes, rounds, |round, cells| {
        if round == 1 {
            sink0 = sink_totals();
        }
        for (e, s) in served.iter().enumerate() {
            trace::set_lane(e);
            let n = ops_per_client[e];
            let (logs, wall_s) = visit(
                Storm {
                    target: s.target(),
                    by_shard: &by_shard,
                    pattern: &pattern,
                    spans,
                },
                clients,
                n,
                args.seed,
                (round * 4 + e) as u64,
                (round * clients * n) as i64,
            );
            let mut done = 0;
            for log in logs {
                for (class, us) in &log.lat {
                    let write = classes[*class].starts_with("write");
                    acked[e].0 += u64::from(write);
                    acked[e].1 += u64::from(classes[*class] == "write_cross");
                    cells.sample(e, *class, *us);
                    counted.0 += u64::from(write && round > 0);
                }
                done += log.lat.len();
                out.attempted += (log.lat.len() + log.failures.len()) as u64;
                counted.1 += u64::from(round > 0) * log.retries;
                for f in log.failures {
                    out.fail(format!("{}: {f}", ENGINES[e]));
                }
            }
            cells.visit(e, done, wall_s);
        }
    });
    let sink1 = sink_totals();
    println!(
        "measured phase {:.2} s: {rounds} rounds x {clients} client(s) x {ops_per_client:?} ops on A/B/C/D (+1 warm-up round); {} conflict retries",
        measured.wall_s, counted.1
    );
    measured.cells.print_table();

    // Correctness: close acknowledges every commit, recovered == served.
    trace::set_recording(args.trace);
    let mut recovery = Recovery::default();
    if let (true, Some(Served::Txn(a))) = (args.trace, served.first()) {
        crate::probes::checkpoint_probe(&a.mgr, out)?;
    }
    for (e, (kind, s)) in SystemKind::ALL.into_iter().zip(served).enumerate() {
        trace::set_lane(e);
        verify(kind, s, acked[e].0, acked[e].1, out, &mut recovery)?;
    }
    trace::set_recording(false);

    measured.report(out);
    if !args.trace {
        return Ok(());
    }

    // Per-layer metrics, from the recorded (odd) rounds.
    let all = trace::take();
    let rec = Recording::new(&all);
    let (read_roots, write_roots) = spans.split_at(WRITE_SINGLE);
    let mut read_over_engine = Vec::new();
    for (e, name) in ENGINES.iter().enumerate() {
        let dml: Vec<f64> = write_roots
            .iter()
            .flat_map(|r| rec.layer_time_per_op(r, "engine", Some(e)))
            .map(|(_, us)| us)
            .collect();
        out.set(
            &format!("engine.dml_us_per_write_{name}"),
            dml.iter().sum::<f64>() / dml.len().max(1) as f64,
        );
        let reads: Vec<(usize, f64)> = read_roots
            .iter()
            .flat_map(|r| rec.layer_time_per_op(r, "engine", Some(e)))
            .collect();
        let lookups: Vec<f64> = reads.iter().map(|(_, us)| *us).collect();
        out.set(&format!("engine.lookup_us_{name}"), median(&lookups));
        read_over_engine.extend(
            reads
                .iter()
                .map(|(root, us)| rec.spans[*root].dur_us() - us),
        );
    }
    let commits = counted.0.max(1) as f64;
    out.set("wal.bytes_per_commit", (sink1.1 - sink0.1) as f64 / commits);
    out.set(
        "wal.sink_writes_per_commit",
        (sink1.0 - sink0.0) as f64 / commits,
    );
    out.set("wal.submit_us_p50", rec.p50_dur_us("wal.sink_write", None));
    if sharded {
        out.set(
            "shard.snapshot_read_us_p50",
            rec.p50_dur_us(SHARD_SPANS[READ_CURRENT], None),
        );
        let ratios: Vec<f64> = (0..ENGINES.len())
            .map(|e| {
                rec.p50_dur_us(SHARD_SPANS[WRITE_CROSS], Some(e))
                    / rec.p50_dur_us(SHARD_SPANS[WRITE_SINGLE], Some(e))
            })
            .collect();
        out.set("shard.cross_over_single_ratio", geomean(&ratios));
        let (w, x) = acked.iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        out.set("shard.cross_shard_frac", x as f64 / w.max(1) as f64);
        out.set("shard.recover_ms", recovery.wall_s * 1e3);
    } else {
        out.set("txn.begin_us_p50", rec.p50_dur_us("txn.begin", None));
        out.set(
            "txn.commit_self_us_p50",
            rec.p50_self_us("txn.commit", None),
        );
        out.set(
            "txn.snapshot_read_over_engine_us",
            median(&read_over_engine),
        );
        out.set(
            "wal.recover_txn_per_s",
            recovery.commits as f64 / recovery.wall_s.max(1e-9),
        );
    }
    crate::layers::scan_ratios(&rec, "op.", out);
    measured.report_trace(&args.workload, &rec, TRACE_OPS_PER_CELL, out)?;

    // Layer costs no storm isolates (recording stays off).
    if sharded {
        crate::probes::shard_layer(args, &tmp, out)
    } else {
        crate::probes::txn_and_wal_layers(args, &tmp, out)
    }
}
