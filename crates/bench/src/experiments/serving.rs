//! The serving experiments: `durability` (archive replay under each WAL
//! mode), `mvcc` (the snapshot-isolation serving layer) and `sharding` (the
//! hash-sharded cluster). Each cell serves its workload, then recovers from
//! what it logged and must reproduce the served state byte for byte, or the
//! experiment fails — every cell of a report that renders is a number.

use crate::report::{FigureReport, Series};
use crate::runner::BenchConfig;
use bitempo_core::{Error, Key, Pcg32, Result, SysTime, TableId, Value};
use bitempo_dbgen::{ScaleConfig, TpchData};
use bitempo_engine::api::{AppSpec, SysSpec, TuningConfig};
use bitempo_engine::testutil::{bitemp_table, simple_row};
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_histgen::{Archive, HistoryConfig};
use bitempo_shard::{partition_checkpoint, recover_cluster, Cluster, ClusterRecovered, ShardInput};
use bitempo_txn::TxnManager;
use bitempo_wal::{canonical_state, Checkpoint, DurabilityMode, SharedBuf, TxnWal, WalPayload};
use bitempo_workloads::sharding::shard_of;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// Per system, one series `"{kind} {metric}"` per metric, filled one x
/// label at a time by `cell(kind, point)`, which returns one value per
/// metric in order. A failing cell fails the experiment, naming the system
/// and the x label.
fn serving_grid<P>(
    report: &mut FigureReport,
    metrics: &[&str],
    points: &[(String, P)],
    cell: impl Fn(SystemKind, &P) -> Result<Vec<f64>>,
) -> Result<()> {
    for kind in SystemKind::ALL {
        let mut series: Vec<Series> = metrics
            .iter()
            .map(|metric| Series::new(format!("{kind} {metric}")))
            .collect();
        for (x, point) in points {
            let values =
                cell(kind, point).map_err(|e| Error::Invalid(format!("{kind} {x}: {e}")))?;
            for (s, v) in series.iter_mut().zip(values) {
                s.push(x.as_str(), v);
            }
        }
        report.series.extend(series);
    }
    Ok(())
}

/// `durability`: commit throughput and crash-recovery time under the
/// three WAL durability modes — fsync per commit (`dur_strict`), 10 ms
/// group commit (`dur_batched_10ms`), and buffered (`dur_async`) — on
/// every engine, against a real file sink so strict mode pays real syncs.
///
/// Each cell replays the full update archive with write-ahead logging and
/// the default checkpoint cadence, closes the log, then rebuilds a fresh
/// engine from the written bytes plus the captured checkpoints and proves
/// the recovered state is byte-identical to the live one before any
/// timing is reported — a cell that cannot recover fails the experiment,
/// so every engine × mode cell of a report that renders is a number.
pub fn durability(cfg: &BenchConfig) -> Result<FigureReport> {
    let data = bitempo_dbgen::generate(&ScaleConfig::with_h(cfg.h));
    let history = bitempo_histgen::generate_history(&data, &HistoryConfig::with_m(cfg.m));
    let tuning = TuningConfig::none().with_workers(cfg.workers);
    let mut report = FigureReport::new(
        "durability",
        "Commit durability: throughput and recovery time per WAL mode",
        "txn/s (throughput series) · ms (recovery series)",
    );
    let modes = [
        DurabilityMode::Strict,
        DurabilityMode::Batched(10),
        DurabilityMode::Async,
    ];
    serving_grid(
        &mut report,
        &["- commit throughput (txn/s)", "- recovery time (ms)"],
        &modes.map(|mode| (mode.label(), mode)),
        |kind, &mode| {
            with_temp_wal(&format!("durability-{kind}-{}", mode.label()), |path| {
                durability_cell(path, kind, mode, &data, &history.archive, &tuning)
            })
        },
    )?;
    report.note(format!(
        "Expected shape: dur_strict pays one fsync per commit and trails by orders of \
         magnitude on spinning metal (less on fast NVMe); dur_batched_10ms amortizes the \
         sync across the group and sits near dur_async, which never syncs inside the \
         timed region (its single barrier at close is excluded — that is the mode's \
         contract). Recovery time is checkpoint-bounded (cadence: every {CHECKPOINT_EVERY} \
         commits), so it is flat across modes.",
    ));
    Ok(report)
}

/// Checkpoint cadence of the `durability` experiment (commits per
/// checkpoint) — [`bitempo_wal::DurableOptions`]'s default.
const CHECKPOINT_EVERY: u64 = 64;

/// Runs `cell` against a real temp-file WAL path named after `tag`, and
/// removes the file afterwards — even when the cell errors.
fn with_temp_wal<T>(tag: &str, cell: impl FnOnce(&Path) -> Result<T>) -> Result<T> {
    let path = std::env::temp_dir().join(format!("bitempo-{tag}-{}.wal", std::process::id()));
    let out = cell(&path);
    let _ = std::fs::remove_file(&path);
    out
}

/// The serving cells' self-verification, run after the log is closed: the
/// close acknowledged all `commits`, recovering the WAL at `path` (through
/// `recover`, which the caller may time) replays every one of them, and the
/// recovered state is byte-identical to the `live` engine's. A cell that
/// fails any check is an error, not a number.
fn verify_recovery(
    path: &Path,
    (commits, durable): (u64, u64),
    (live, ids): (&dyn BitemporalEngine, &[TableId]),
    recover: impl FnOnce(&[u8]) -> Result<bitempo_wal::Recovered>,
) -> Result<()> {
    let fail = |what: String| Err(Error::Invalid(what));
    if durable != commits {
        return fail(format!("close acknowledged {durable} of {commits} commits"));
    }
    let rec = recover(&std::fs::read(path)?)?;
    if rec.report.commits != commits {
        let recovered = rec.report.commits;
        return fail(format!("recovered {recovered} of {commits} commits"));
    }
    let recovered = canonical_state(rec.engine.as_ref(), &rec.ids)?;
    if let Some(diff) = recovered.first_difference(&canonical_state(live, ids)?) {
        return fail(format!(
            "recovered state diverges from the live engine (recovered vs live): {diff}"
        ));
    }
    Ok(())
}

/// One `durability` cell: log the archive replay through the file at `path`
/// under `mode`, recover from the written bytes, verify equivalence, and
/// return commit throughput in txn/s and recovery wall time in ms.
fn durability_cell(
    path: &Path,
    kind: SystemKind,
    mode: DurabilityMode,
    data: &TpchData,
    archive: &Archive,
    tuning: &TuningConfig,
) -> Result<Vec<f64>> {
    let mut log = TxnWal::create(Box::new(std::fs::File::create(path)?), mode)?;
    let mut engine = build_engine(kind);
    let ids = bitempo_histgen::load_initial(engine.as_mut(), data)?;
    let mut checkpoints = vec![Checkpoint::capture(engine.as_mut(), &ids, 0)?.encode()];
    // Timed region: exactly the commit path — append, apply, commit, plus
    // the checkpoint cadence (identical across modes, so mode deltas are
    // pure durability cost). The closing barrier stays outside the clock:
    // dur_async's contract is that acknowledged commits may still be in
    // flight.
    let t0 = Instant::now();
    let mut commits = 0u64;
    for txn in &archive.transactions {
        let payload = bitempo_histgen::encode_txn(txn)?;
        log.append(&payload)?;
        for op in &txn.ops {
            bitempo_histgen::apply_op(engine.as_mut(), &ids, op)?;
        }
        engine.commit();
        commits += 1;
        if commits.is_multiple_of(CHECKPOINT_EVERY) {
            checkpoints.push(Checkpoint::capture(engine.as_mut(), &ids, commits)?.encode());
        }
    }
    let commit_secs = t0.elapsed().as_secs_f64();
    let durable = log.close()?;
    let mut recovery_ms = 0.0;
    verify_recovery(path, (commits, durable), (engine.as_ref(), &ids), |bytes| {
        let t1 = Instant::now();
        let rec = bitempo_wal::recover(kind, bytes, &checkpoints, tuning);
        recovery_ms = t1.elapsed().as_secs_f64() * 1e3;
        rec
    })?;
    Ok(vec![commits as f64 / commit_secs.max(1e-9), recovery_ms])
}

/// What one storm operation was, with its latency in µs.
enum Op {
    /// A snapshot read, timed from begin to rows.
    Read(f64),
    /// A write transaction, timed over the commit call that succeeded.
    Commit(f64),
}

/// The latency samples of one storm, in µs, and its wall time.
#[derive(Default)]
struct Storm {
    reads: Vec<f64>,
    commits: Vec<f64>,
    secs: f64,
}

impl Storm {
    /// Operations completed per second of wall time.
    fn ops_per_s(&self) -> f64 {
        (self.reads.len() + self.commits.len()) as f64 / self.secs.max(1e-9)
    }
}

/// Runs `per_thread` operations on each of `threads` scoped workers. Worker
/// `w` draws from `Pcg32::new(seed, w)`; `op(rng, serial)` performs the
/// operation numbered `serial`, unique across workers. A worker's first
/// error fails the storm.
fn storm(
    threads: usize,
    per_thread: usize,
    seed: u64,
    op: impl Fn(&mut Pcg32, usize) -> Result<Op> + Sync,
) -> Result<Storm> {
    let t0 = Instant::now();
    let ops: Vec<Result<Vec<Op>>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|worker| {
                let op = &op;
                s.spawn(move || {
                    let mut rng = Pcg32::new(seed, worker as u64);
                    let serials = worker * per_thread..(worker + 1) * per_thread;
                    serials.map(|serial| op(&mut rng, serial)).collect()
                })
            })
            .collect();
        let joined = workers.into_iter().map(|h| h.join());
        joined
            .map(|ops| ops.expect("storm worker panicked"))
            .collect()
    });
    let mut storm = Storm {
        secs: t0.elapsed().as_secs_f64(),
        ..Storm::default()
    };
    for op in ops
        .into_iter()
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .flatten()
    {
        match op {
            Op::Read(us) => storm.reads.push(us),
            Op::Commit(us) => storm.commits.push(us),
        }
    }
    Ok(storm)
}

/// Commits the transaction `build` writes, rebuilding it from scratch
/// while first-committer-wins validation rejects it (the serving layer
/// counts every abort).
fn commit_retrying<T>(
    mut build: impl FnMut() -> Result<T>,
    commit: impl Fn(T) -> Result<SysTime>,
) -> Result<Op> {
    loop {
        let txn = build()?;
        let begun = Instant::now();
        match commit(txn) {
            Ok(_) => return Ok(Op::Commit(begun.elapsed().as_secs_f64() * 1e6)),
            Err(Error::Conflict(_)) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// A fresh `kind` engine holding one `balance` table whose keys
/// `0..hot_keys` are seeded at value 0 in one commit: where every storm
/// starts, before a `TxnManager` or `Cluster` takes the engine over.
fn seed_balance(kind: SystemKind, hot_keys: i64) -> Result<(Box<dyn BitemporalEngine>, TableId)> {
    let mut engine = build_engine(kind);
    let table = engine.create_table(bitemp_table("balance"))?;
    for k in 0..hot_keys {
        // tblint: allow(TB007) pre-serving seed; a TxnManager or Cluster wraps this engine next
        engine.insert(table, simple_row(k, 0), None)?;
    }
    engine.commit();
    Ok((engine, table))
}

/// Nearest-rank percentile of an unsorted latency sample, in place.
fn percentile(sample: &mut [f64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let idx = ((sample.len() - 1) as f64 * p).round() as usize;
    sample[idx]
}

/// `mvcc`: concurrent serving-layer throughput. N worker threads run a
/// seeded mix of snapshot reads (current-state scans and AS OF scans at a
/// random past commit) and write transactions (one unique insert plus one
/// hot-key update) against a [`bitempo_txn::TxnManager`] per engine, with
/// commits logged through the write-ahead log under each durability mode.
/// The storm's table is its own: the configuration's scales do not apply.
///
/// Reported per engine: committed-transaction throughput, the
/// first-committer-wins abort rate on the hot keys, and p50/p99 latency for
/// snapshot reads and durable commits. Every cell self-verifies before it
/// reports a number: the WAL bytes plus the pre-storm checkpoint must
/// recover to a state byte-identical to the served engine, and a cell whose
/// concurrent history is not replayable fails the experiment — so every
/// series × cell of a report that renders is a number.
pub fn mvcc(_: &BenchConfig) -> Result<FigureReport> {
    let mut report = FigureReport::new(
        "mvcc",
        "MVCC serving layer: snapshot transactions under concurrency",
        "txn/s (tput) · % (aborts) · µs (latency)",
    );
    // Group commit and buffered are the interesting regimes for a
    // concurrent commit path (strict mode's per-commit fsync is already
    // characterized by `durability`).
    let points: Vec<_> = [DurabilityMode::Batched(2), DurabilityMode::Async]
        .into_iter()
        .flat_map(|mode| {
            [1, 2, 4, 8].map(|thr| (format!("{thr}thr {}", mode.label()), (mode, thr)))
        })
        .collect();
    serving_grid(
        &mut report,
        &[
            "txn_tput (txn/s)",
            "conflict_abort (%)",
            "snapshot_read_p50 (µs)",
            "snapshot_read_p99 (µs)",
            "txn_commit_p50 (µs)",
            "txn_commit_p99 (µs)",
        ],
        &points,
        |kind, &(mode, thr)| {
            with_temp_wal(&format!("mvcc-{kind}-{}-{thr}", mode.label()), |path| {
                mvcc_cell(path, kind, mode, thr)
            })
        },
    )?;
    report.note(
        "Expected shape: read-mostly snapshot transactions scale with threads (readers \
         share the state lock); commit throughput is bounded by the exclusive publish \
         section plus the durability wait, so dur_batched_2ms trails dur_async at one \
         thread and converges as group commit amortizes the sync across concurrent \
         committers. The conflict_abort series rises with thread count — more \
         first-committer-wins losers per hot key — and is zero at 1 thread by \
         construction. All latencies are end-to-end: pin-to-rows for reads, \
         validate-to-durable for commits.",
    );
    Ok(report)
}

/// Hot keys every `mvcc` writer contends on (more keys, fewer conflicts).
const MVCC_HOT_KEYS: i64 = 32;
/// Transactions attempted per `mvcc` worker thread.
const MVCC_TXNS_PER_THREAD: usize = 64;
/// First id for writer-unique inserts, clear of the hot range.
const MVCC_INSERT_BASE: i64 = 1_000_000;

/// One `mvcc` cell against the WAL file at `path`: throughput, abort
/// percentage, read p50/p99 and commit p50/p99.
fn mvcc_cell(
    path: &Path,
    kind: SystemKind,
    mode: DurabilityMode,
    threads: usize,
) -> Result<Vec<f64>> {
    let log = TxnWal::create(Box::new(std::fs::File::create(path)?), mode)?;
    let (mut engine, table) = seed_balance(kind, MVCC_HOT_KEYS)?;
    let base = Checkpoint::capture(engine.as_mut(), &[table], 0)?.encode();
    let mgr = TxnManager::new(engine, vec![table], Some(log))?;

    // The storm: each worker runs a seeded 40/20/40 mix of current reads,
    // AS OF reads, and write transactions.
    let seed = 0x4D56_4343 ^ kind as u64;
    let mut run = storm(threads, MVCC_TXNS_PER_THREAD, seed, |rng, serial| {
        let roll = rng.int_range(0, 9);
        if roll >= 6 {
            // Writer: one unique insert plus one hot-key update, atomically.
            let val = serial as i64 + 1;
            let hot = rng.int_range(0, MVCC_HOT_KEYS - 1);
            let write = || -> Result<_> {
                let mut txn = mgr.begin()?;
                let row = simple_row(MVCC_INSERT_BASE + serial as i64, val);
                txn.insert(table, row, None)?;
                txn.update(table, &Key::int(hot), &[(1, Value::Int(val))], None)?;
                Ok(txn)
            };
            return commit_retrying(write, |txn| txn.commit());
        }
        // Snapshot read: pin, scan, unpin. 2-in-6 are AS OF scans at a
        // random past commit.
        let begun = Instant::now();
        let txn = mgr.begin()?;
        let sys = if roll < 4 {
            SysSpec::Current
        } else {
            let pin = txn.pin().0.max(1);
            SysSpec::AsOf(SysTime(rng.int_range(1, pin as i64) as u64))
        };
        let out = txn
            .snapshot()
            .view()
            .scan(table, &sys, &AppSpec::All, &[])?;
        if out.rows.is_empty() {
            return Err(Error::Invalid("a snapshot scan saw an empty table".into()));
        }
        Ok(Op::Read(begun.elapsed().as_secs_f64() * 1e6))
    })?;
    let conflicts = mgr.counters().conflicts.load(Relaxed);
    let commits = run.commits.len() as u64;

    // Self-verification: the WAL plus the pre-storm checkpoint must rebuild
    // exactly the served state, or the cell is an error, not a number.
    let (live, ids, durable) = mgr.close()?;
    verify_recovery(path, (commits, durable), (live.as_ref(), &ids), |bytes| {
        bitempo_wal::recover(kind, bytes, &[base], &TuningConfig::none())
    })?;

    Ok(vec![
        run.ops_per_s(),
        conflicts as f64 * 100.0 / (commits + conflicts).max(1) as f64,
        percentile(&mut run.reads, 0.50),
        percentile(&mut run.reads, 0.99),
        percentile(&mut run.commits, 0.50),
        percentile(&mut run.commits, 0.99),
    ])
}

/// Sharded serving layer: committed-txn throughput and commit latency vs
/// shard count × thread count × durability mode, every cell recovery-
/// verified shard by shard against the uncrashed served state — including
/// a crash-at-prepare seed that drops one shard's final commit decision
/// and must converge from the sibling's decision record. A cell that does
/// not verify fails the experiment. Like `mvcc`, the storm's table is its
/// own.
pub fn sharding(_: &BenchConfig) -> Result<FigureReport> {
    let mut report = FigureReport::new(
        "sharding",
        "Hash-sharded cluster: throughput and commit latency vs shard count",
        "txn/s (tput) · µs (latency) · % (cross-shard share)",
    );
    // Strict and group commit are the regimes where the per-shard WAL is
    // the bottleneck worth sharding away; Async's post-crash cross-shard
    // atomicity caveat (DESIGN.md §13) excludes it from the recovery-
    // verified matrix.
    let mut points = Vec::new();
    for mode in [DurabilityMode::Strict, DurabilityMode::Batched(2)] {
        for shards in [1, 2, 4] {
            for thr in [1, 4] {
                let x = format!("{shards}sh {thr}thr {}", mode.label());
                points.push((x, (mode, shards, thr)));
            }
        }
    }
    serving_grid(
        &mut report,
        &[
            "txn_tput (txn/s)",
            "commit_p50 (µs)",
            "commit_p99 (µs)",
            "cross_shard_commits (%)",
        ],
        &points,
        |kind, &(mode, shards, thr)| sharding_cell(kind, mode, shards, thr),
    )?;
    report.note(
        "Expected shape: single-shard commits on different shards never share a commit \
         gate, a WAL, or data — per-shard tables shrink with the shard count — so \
         strict-mode throughput grows with shards where per-commit work dominates \
         (clearest single-threaded on the heavier engines), until the cross-shard \
         share's 2PC (two records per participant, a prepare barrier under the gates; \
         batched-mode p99 near two flush ticks) and the cluster-level validate/publish \
         section eat the gain; at 1 shard the cluster degenerates to the PR 8 serving \
         layer plus one oracle increment, which bounds the coordination overhead from \
         below. Every cell is recovery-verified per shard against the served state, \
         and multi-shard cells replay a crash seed that truncates one shard's final \
         decision record — presumed-abort recovery must finish that commit from the \
         surviving sibling's decision.",
    );
    Ok(report)
}

/// Hot keys pre-seeded for the `sharding` storm.
const SHARD_HOT_KEYS: i64 = 48;
/// Transactions attempted per `sharding` worker thread.
const SHARD_TXNS_PER_THREAD: usize = 96;
/// First id for writer-unique inserts, clear of the hot range.
const SHARD_INSERT_BASE: i64 = 2_000_000;

/// One `sharding` cell: throughput, commit p50/p99 and the cross-shard
/// share of committed transactions.
fn sharding_cell(
    kind: SystemKind,
    mode: DurabilityMode,
    shards: usize,
    threads: usize,
) -> Result<Vec<f64>> {
    // One base engine, partitioned by the stable key hash. In-memory WAL
    // images (one per shard, each with its own group-commit flusher in
    // `mode`) so the crash seed below can truncate at byte boundaries.
    let (mut engine, table) = seed_balance(kind, SHARD_HOT_KEYS)?;
    let base = Checkpoint::capture(engine.as_mut(), &[table], 0)?;
    let bufs: Vec<SharedBuf> = (0..shards).map(|_| SharedBuf::new()).collect();
    let wals = bufs
        .iter()
        .map(|b| TxnWal::create(Box::new(b.clone()), mode).map(Some))
        .collect::<Result<Vec<_>>>()?;
    let cluster = Cluster::from_checkpoint(kind, &base, wals)?;
    let table = cluster.table_ids()[0];

    // Hot keys grouped by owning shard, for steering single- vs
    // cross-shard writers deterministically.
    let mut by_shard: Vec<Vec<i64>> = vec![Vec::new(); shards];
    for k in 0..SHARD_HOT_KEYS {
        by_shard[shard_of(&Key::int(k), shards)].push(k);
    }
    if by_shard.iter().any(|b| b.is_empty()) {
        return Err(Error::Invalid(format!(
            "{shards}-way partition left a shard without hot keys"
        )));
    }

    // The storm: each worker runs a seeded mix of snapshot reads (25 %),
    // single-shard writes (62.5 %) and cross-shard writes (12.5 %, which
    // degenerate to single-shard at 1 shard) — roughly the "mostly
    // partitionable, occasionally entangled" regime sharded deployments
    // aim for; the cross-shard share is deliberately the minority so the
    // 2PC tax does not drown the gate parallelism the sweep is pricing.
    let seed = 0x5348_5244 ^ kind as u64;
    let mut run = storm(threads, SHARD_TXNS_PER_THREAD, seed, |rng, serial| {
        let roll = rng.int_range(0, 7);
        if roll < 2 {
            // Pinned cross-shard snapshot read.
            let begun = Instant::now();
            let snap = cluster.snapshot();
            let out = snap
                .read()?
                .view()
                .scan(table, &SysSpec::Current, &AppSpec::All, &[])?;
            if out.rows.is_empty() {
                return Err(Error::Invalid(
                    "a cluster snapshot saw an empty table".into(),
                ));
            }
            return Ok(Op::Read(begun.elapsed().as_secs_f64() * 1e6));
        }
        let (serial, val) = (serial as i64, serial as i64 + 1);
        // Pick the write set: one hot key, or two on different shards for
        // the cross-shard rolls.
        let home = rng.int_range(0, shards as i64 - 1) as usize;
        let pick = |rng: &mut Pcg32, s: usize| {
            by_shard[s][rng.int_range(0, by_shard[s].len() as i64 - 1) as usize]
        };
        let a = pick(rng, home);
        let b = (roll == 7 && shards > 1).then(|| pick(rng, (home + 1) % shards));
        // Route the filler insert to the hot key's shard: a "single-shard"
        // transaction must genuinely stay on one shard, or the mix silently
        // drifts toward 2PC. Each serial owns a 32-slot stride, so the probe
        // never collides across transactions; a 32-probe miss (a ~1e-4
        // event at 4 shards) falls back to the stride base and commits
        // cross-shard.
        let stride = SHARD_INSERT_BASE + serial * 32;
        let ins = (stride..stride + 32)
            .find(|k| shard_of(&Key::int(*k), shards) == home)
            .unwrap_or(stride);
        let write = || -> Result<_> {
            let mut txn = cluster.begin()?;
            txn.insert(table, simple_row(ins, val), None)?;
            txn.update(table, &Key::int(a), &[(1, Value::Int(val))], None)?;
            if let Some(b) = b {
                txn.update(table, &Key::int(b), &[(1, Value::Int(-val))], None)?;
            }
            Ok(txn)
        };
        commit_retrying(write, |txn| txn.commit())
    })?;
    // One final deterministic cross-shard commit, so every multi-shard
    // cell's WALs end in a prepare/decision pair the crash seed can cut.
    if shards > 1 {
        let mut txn = cluster.begin()?;
        let (a, b) = (Key::int(by_shard[0][0]), Key::int(by_shard[1][0]));
        txn.update(table, &a, &[(1, Value::Int(-1))], None)?;
        txn.update(table, &b, &[(1, Value::Int(-2))], None)?;
        txn.commit()?;
    }
    let counters = cluster.counters();
    let committed = counters.committed.load(Relaxed);
    let cross = counters.cross_shard.load(Relaxed);
    let reads = counters.read_only.load(Relaxed);
    debug_assert_eq!(
        committed,
        run.commits.len() as u64 + reads + u64::from(shards > 1),
        "cluster commit accounting"
    );

    // The uncrashed oracle: the served per-shard states at close.
    let served = cluster
        .close()?
        .into_iter()
        .map(|(live, ids, _durable)| canonical_state(live.as_ref(), &ids))
        .collect::<Result<Vec<_>>>()?;
    let mut inputs: Vec<ShardInput> = partition_checkpoint(&base, shards)
        .iter()
        .zip(&bufs)
        .map(|(part, buf)| ShardInput {
            wal: buf.snapshot(),
            checkpoints: vec![part.encode()],
        })
        .collect();
    // Every shard rebuilt from its own checkpoint and WAL image must match
    // the served state exactly.
    let recover_matching = |inputs: &[ShardInput], when: &str| -> Result<ClusterRecovered> {
        let rec = recover_cluster(kind, inputs, &TuningConfig::none())?;
        for (si, (r, want)) in rec.shards.iter().zip(&served).enumerate() {
            if let Some(diff) = canonical_state(r.engine.as_ref(), &r.ids)?.first_difference(want) {
                return Err(Error::Invalid(format!(
                    "shard {si} diverges from served {when} (recovered vs served): {diff}"
                )));
            }
        }
        Ok(rec)
    };
    recover_matching(&inputs, "on clean recovery")?;

    // The crash-at-prepare seed: drop shard 0's final record (the decision
    // of the closing cross-shard commit), leaving its prepare undecided;
    // recovery must finish it from shard 1's decision.
    if shards > 1 {
        let wal = &mut inputs[0].wal;
        let scan = bitempo_wal::scan(wal);
        let last = scan
            .records
            .last()
            .ok_or_else(|| Error::Invalid("shard 0 logged nothing".into()))?;
        if !matches!(
            bitempo_wal::decode_payload(&last.payload)?,
            WalPayload::Decision { commit: true, .. }
        ) {
            let what = "shard 0's log does not end in the closing commit decision";
            return Err(Error::Invalid(what.into()));
        }
        let frame = bitempo_wal::FRAME_OVERHEAD + bitempo_wal::BODY_OVERHEAD + last.payload.len();
        wal.truncate(wal.len() - frame);
        if recover_matching(&inputs, "after the crash seed")?
            .committed_pending
            .is_empty()
        {
            let what = "the crash seed's undecided prepare was not resolved";
            return Err(Error::Invalid(what.into()));
        }
    }

    Ok(vec![
        run.ops_per_s(),
        percentile(&mut run.commits, 0.50),
        percentile(&mut run.commits, 0.99),
        cross as f64 * 100.0 / committed.max(1) as f64,
    ])
}
