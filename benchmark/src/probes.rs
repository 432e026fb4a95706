//! Layer costs no storm isolates, priced on System A (the engine whose own
//! work is smallest, so a layer's share is largest) in the traced run, with
//! recording off: the facade-tax series, the 2-client/1-client ratio, the
//! `dur_strict` group-commit phase, checkpoints and the commit oracle.

use crate::measure::Outcome;
use crate::serve::{
    keys_by_shard, seeded_engine, storm_pattern, visit, ShardTarget, Storm, TxnTarget, SHARDS,
    TXN_SPANS, WRITE_SINGLE,
};
use crate::stats::median;
use crate::trace::span;
use crate::RunArgs;
use bitempo_core::{Key, Pcg32, Result, SysTime, Value};
use bitempo_engine::api::{AppSpec, SysSpec};
use bitempo_engine::{build_engine, SystemKind};
use bitempo_shard::CommitOracle;
use bitempo_storage::DurabilityMode;
use bitempo_txn::TxnManager;
use bitempo_wal::Checkpoint;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const PROBE_KEYS: i64 = crate::serve::KEYS;
/// Facade series: rounds, and writes + AS OF reads per facade per round.
const FACADE_ROUNDS: usize = 20;
const FACADE_OPS: usize = 100;
/// Ops per phase and alternations of the 2-client/1-client comparison.
const C2C1_OPS: usize = 5_000;
const C2C1_ALTERNATIONS: usize = 6;
/// Commits per client of the `dur_strict` phase.
const STRICT_COMMITS_PER_CLIENT: usize = 100;
const ORACLE_COMMITS: u64 = 200_000;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Checkpoint capture, encode, decode and restore of one served manager
/// (spans recorded when recording is on).
pub fn checkpoint_probe(mgr: &TxnManager, out: &mut Outcome) -> Result<()> {
    let cp = {
        let _s = span("wal.checkpoint_capture");
        mgr.checkpoint()?
    };
    let t = Instant::now();
    let bytes = {
        let _s = span("wal.checkpoint_encode");
        cp.encode()
    };
    let encode_s = t.elapsed().as_secs_f64();
    out.set(
        "wal.checkpoint_encode_mib_per_s",
        bytes.len() as f64 / (1024.0 * 1024.0) / encode_s.max(1e-9),
    );
    let t = Instant::now();
    {
        let _s = span("wal.checkpoint_restore");
        let mut engine = build_engine(SystemKind::A);
        black_box(Checkpoint::decode(&bytes)?.restore_into(engine.as_mut())?);
    }
    out.set("wal.checkpoint_restore_ms", us(t) / 1e3);
    Ok(())
}

/// `serve_txn`'s probes: `txn.c2_over_c1_ops`, `txn.conflict_retry_frac`,
/// `wal.strict_commit_us_p50`, `wal.syncs_per_commit`.
pub fn txn_and_wal_layers(args: &RunArgs, tmp: &Path, out: &mut Outcome) -> Result<()> {
    let shrink = if args.smoke { 20 } else { 1 };
    let by_shard = keys_by_shard(PROBE_KEYS, SHARDS)?;
    let pattern = storm_pattern();

    // The same op stream from 1 client and split over 2, alternating, on
    // one manager, so host drift and history growth hit both alike.
    let target = TxnTarget::build(
        SystemKind::A,
        PROBE_KEYS,
        &tmp.join("probe_c2c1.wal"),
        DurabilityMode::Async,
        false,
    )?;
    let ops = C2C1_OPS / shrink;
    let (mut rate, mut writes2, mut retries2) = ([Vec::new(), Vec::new()], 0u64, 0u64);
    for alt in 0..C2C1_ALTERNATIONS {
        for clients in [1, 2] {
            let storm = Storm {
                target: &target,
                by_shard: &by_shard,
                pattern: &pattern,
                spans: &TXN_SPANS,
            };
            let (logs, wall_s) = visit(
                storm,
                clients,
                ops / clients,
                args.seed,
                (1000 + alt * 2 + clients) as u64,
                0,
            );
            let done: usize = logs.iter().map(|l| l.lat.len()).sum();
            rate[clients - 1].push(done as f64 / wall_s.max(1e-9));
            for l in &logs {
                out.attempted += (l.lat.len() + l.failures.len()) as u64;
                for f in &l.failures {
                    out.fail(format!("c2/c1 probe: {f}"));
                }
                if clients == 2 {
                    writes2 += l.lat.iter().filter(|(c, _)| *c == 2).count() as u64;
                    retries2 += l.retries;
                }
            }
        }
    }
    out.set("txn.c2_over_c1_ops", median(&rate[1]) / median(&rate[0]));
    out.set(
        "txn.conflict_retry_frac",
        retries2 as f64 / (writes2 + retries2).max(1) as f64,
    );
    drop(target);

    // Group commit: 2 clients committing under dur_strict share fsyncs.
    let target = TxnTarget::build(
        SystemKind::A,
        PROBE_KEYS,
        &tmp.join("probe_strict.wal"),
        DurabilityMode::Strict,
        true,
    )?;
    let counts = target.sink.clone().expect("a traced build counts its sink");
    let (_, _, syncs0) = counts.read();
    let per_client = (STRICT_COMMITS_PER_CLIENT / shrink).max(4);
    let storm = Storm {
        target: &target,
        by_shard: &by_shard,
        pattern: &[WRITE_SINGLE],
        spans: &TXN_SPANS,
    };
    let (logs, _) = visit(storm, 2, per_client, args.seed, 2000, 0);
    let lat: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.lat.iter().map(|(_, us)| *us))
        .collect();
    for l in &logs {
        out.attempted += (l.lat.len() + l.failures.len()) as u64;
        for f in &l.failures {
            out.fail(format!("strict probe: {f}"));
        }
    }
    out.set("wal.strict_commit_us_p50", median(&lat));
    out.set(
        "wal.syncs_per_commit",
        (counts.read().2 - syncs0) as f64 / lat.len().max(1) as f64,
    );
    Ok(())
}

/// `serve_sharded`'s probes: the `facade.*` series (one identical
/// single-key write and one AS OF read at engine-direct, `TxnManager`,
/// 1-shard and 4-shard `Cluster`, interleaved per round),
/// `shard.commit_over_txn_us` and `shard.oracle_us_per_commit`.
pub fn shard_layer(args: &RunArgs, tmp: &Path, out: &mut Outcome) -> Result<()> {
    let rounds = if args.smoke { 2 } else { FACADE_ROUNDS };
    let (mut engine, table, _) = seeded_engine(SystemKind::A, PROBE_KEYS)?;
    let txn = TxnTarget::build(
        SystemKind::A,
        PROBE_KEYS,
        &tmp.join("probe_facade_txn.wal"),
        DurabilityMode::Async,
        false,
    )?;
    let shard1 = ShardTarget::build(
        SystemKind::A,
        PROBE_KEYS,
        1,
        &tmp.join("probe_facade_s1"),
        false,
    )?;
    let shard4 = ShardTarget::build(
        SystemKind::A,
        PROBE_KEYS,
        4,
        &tmp.join("probe_facade_s4"),
        false,
    )?;
    let mut write_us = [const { Vec::new() }; 4];
    let mut read_us = [const { Vec::new() }; 4];
    let mut rng = Pcg32::new(args.seed, 3000);
    for round in 0..rounds {
        // The same keys and AS OF points at every facade of a round.
        let keys: Vec<i64> = (0..FACADE_OPS)
            .map(|_| rng.int_range(0, PROBE_KEYS - 1))
            .collect();
        // Every facade has committed the same number of writes, so a past
        // commit is the same fraction of history on each.
        let past: Vec<u64> = (0..FACADE_OPS)
            .map(|_| rng.int_range(1, (1 + round * FACADE_OPS) as i64) as u64)
            .collect();
        let val = round as i64;
        for k in &keys {
            let key = Key::int(*k);
            let t = Instant::now();
            engine.update(table, &key, &[(1, Value::Int(val))], None)?;
            engine.commit();
            write_us[0].push(us(t));
            let t = Instant::now();
            txn.write(&[*k], val)?;
            write_us[1].push(us(t));
            let t = Instant::now();
            shard1.write(&[*k], val)?;
            write_us[2].push(us(t));
            let t = Instant::now();
            shard4.write(&[*k], val)?;
            write_us[3].push(us(t));
        }
        for (k, at) in keys.iter().zip(&past) {
            let sys = SysSpec::AsOf(SysTime(*at));
            let t = Instant::now();
            black_box(engine.lookup_key(table, &Key::int(*k), &sys, &AppSpec::All)?);
            read_us[0].push(us(t));
            let t = Instant::now();
            txn.read(*k, |_| sys)?;
            read_us[1].push(us(t));
            let t = Instant::now();
            shard1.read(*k, |_| sys)?;
            read_us[2].push(us(t));
            let t = Instant::now();
            shard4.read(*k, |_| sys)?;
            read_us[3].push(us(t));
        }
    }
    out.attempted += (rounds * FACADE_OPS * 8) as u64;
    for (f, name) in crate::manifest::FACADES.iter().enumerate() {
        out.set(&format!("facade.write_us_{name}"), median(&write_us[f]));
        out.set(&format!("facade.asof_read_us_{name}"), median(&read_us[f]));
    }
    out.set(
        "shard.commit_over_txn_us",
        median(&write_us[2]) - median(&write_us[1]),
    );

    let oracle = CommitOracle::new(SysTime(1));
    let n = if args.smoke { 1000 } else { ORACLE_COMMITS };
    let t = Instant::now();
    for _ in 0..n {
        oracle.publish(black_box(oracle.begin_commit()));
    }
    out.set("shard.oracle_us_per_commit", us(t) / n as f64);
    Ok(())
}
