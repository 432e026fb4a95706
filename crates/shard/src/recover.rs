//! Cluster crash recovery: per-shard WAL replay plus cross-shard
//! resolution of undecided prepares.
//!
//! Each shard recovers independently with [`bitempo_wal::recover`](fn@bitempo_wal::recover), which
//! applies every stamped commit and decided prepare in its valid WAL
//! prefix and hands back the *undecided* prepares (presumed aborted
//! locally). The cluster step then unions the commit decisions found in
//! every shard's prefix: a prepare whose global id carries a durable
//! commit decision on **any** shard was globally committed — the
//! coordinator only logs the first decision after every participant's
//! prepare is durable — so recovery finishes it here at its original
//! global timestamp. A prepare with no decision anywhere stays aborted,
//! the presumed-abort default.
//!
//! The convergence matrix (also DESIGN.md §13):
//!
//! | crash point                  | evidence on disk            | outcome |
//! |------------------------------|-----------------------------|---------|
//! | before any prepare durable   | nothing                     | abort   |
//! | some prepares durable        | prepares only, no decision  | abort   |
//! | all prepared, no decision    | prepares only               | abort   |
//! | ≥ 1 commit decision durable  | decision + sibling prepares | commit  |
//! | all decisions durable        | decisions                   | commit  |
//!
//! This is exact under the `Strict` and `Batched` durability modes, where
//! a logged decision implies every participant's prepare is durable.
//! Under `Async` a shard may lose its own prepare *after* a sibling
//! logged the decision; the transaction then recovers on the deciding
//! shards but not the lossy one, and the cluster converges only to that
//! shard's shorter durable prefix. The `sharding` experiment therefore
//! verifies recovery per shard against an uncrashed oracle at each
//! shard's own durable watermark, exactly like the single-engine
//! `recovery` experiment does.

use crate::cluster::Cluster;
use bitempo_core::{Error, Result, SysTime};
use bitempo_engine::api::TuningConfig;
use bitempo_engine::SystemKind;
use bitempo_histgen::apply_op;
use bitempo_txn::TxnManager;
use bitempo_wal::{recover, Recovered, TxnWal};
use std::collections::BTreeSet;

/// One shard's surviving durable state: its WAL image and the encoded
/// checkpoints available to start from (newest last, like the per-shard
/// recovery expects).
pub struct ShardInput {
    /// The shard's WAL bytes as found after the crash.
    pub wal: Vec<u8>,
    /// Encoded checkpoints for this shard (each covering a WAL prefix).
    pub checkpoints: Vec<Vec<u8>>,
}

/// What a cluster recovery produced.
pub struct ClusterRecovered {
    /// Per-shard recovery results, index = shard. Each engine already
    /// includes the cross-shard prepares this recovery decided to commit.
    pub shards: Vec<Recovered>,
    /// Pending prepares committed here from sibling decisions, as
    /// `(shard, gts)` pairs.
    pub committed_pending: Vec<(usize, u64)>,
    /// Pending prepares left aborted (no decision anywhere), as
    /// `(shard, gts)` pairs.
    pub presumed_aborted: Vec<(usize, u64)>,
    /// Sibling-decided prepares that failed to replay, as
    /// `(shard, gts, error)` triples. The shard's engine may hold partial
    /// uncommitted state from the failed apply (there is no rollback), so
    /// the shard cannot serve until it is restored from a checkpoint —
    /// but its siblings recovered normally, which is the contract:
    /// one shard's problems never block the rest of the cluster.
    pub degraded: Vec<(usize, u64, String)>,
}

impl ClusterRecovered {
    /// The newest globally consistent timestamp across the recovered
    /// shards: the *minimum* shard clock. Every commit at or below it
    /// landed on every shard it touched; above it, an `Async` shard may
    /// have lost records its siblings kept.
    pub fn consistent_prefix(&self) -> SysTime {
        self.shards
            .iter()
            .map(|r| r.engine.now())
            .min()
            .unwrap_or(SysTime::ZERO)
    }

    /// Rebuilds a live [`Cluster`] over the recovered shards, pairing
    /// shard `i` with `wals[i]` (fresh logs — the old images were
    /// consumed by recovery; checkpoint each shard first if you want the
    /// new logs to start from a compact base). Refuses a degraded shard:
    /// its engine may hold half-applied state that must never serve.
    pub fn into_cluster(self, wals: Vec<Option<TxnWal>>) -> Result<Cluster> {
        if let Some((si, gts, why)) = self.degraded.first() {
            return Err(Error::Invalid(format!(
                "shard {si} is degraded (decided prepare {gts} failed to replay: {why}); \
                 restore it from a checkpoint before serving"
            )));
        }
        let mut mgrs = Vec::with_capacity(self.shards.len());
        for (rec, wal) in self.shards.into_iter().zip(wals) {
            mgrs.push(TxnManager::new(rec.engine, rec.ids, wal)?);
        }
        Cluster::from_managers(mgrs)
    }
}

/// Recovers every shard of a cluster from its durable remains and resolves
/// cross-shard prepares by the presumed-abort rule described in the module
/// docs. Shards are independent: one shard's torn tail, rejected
/// checkpoint, or failed replay of a decided prepare (reported in
/// [`ClusterRecovered::degraded`]) never blocks its siblings, and only a
/// shard with *no* decodable checkpoint at all fails the recovery.
pub fn recover_cluster(
    kind: SystemKind,
    inputs: &[ShardInput],
    tuning: &TuningConfig,
) -> Result<ClusterRecovered> {
    let mut shards = Vec::with_capacity(inputs.len());
    for input in inputs {
        shards.push(recover(kind, &input.wal, &input.checkpoints, tuning)?);
    }
    // The union of durable commit decisions across the cluster: the
    // evidence that a prepare anywhere was part of a globally committed
    // transaction.
    let decided: BTreeSet<u64> = shards
        .iter()
        .flat_map(|r| r.decided_commits.iter().copied())
        .collect();
    let mut committed_pending = Vec::new();
    let mut presumed_aborted = Vec::new();
    let mut degraded: Vec<(usize, u64, String)> = Vec::new();
    for (si, rec) in shards.iter_mut().enumerate() {
        let mut broken = false;
        for p in std::mem::take(&mut rec.pending) {
            if !decided.contains(&p.gid) {
                presumed_aborted.push((si, p.gts));
                continue;
            }
            rec.report.presumed_aborted -= 1;
            if broken {
                // An earlier decided prepare half-applied on this shard:
                // nothing later can safely land on the partial state.
                degraded.push((
                    si,
                    p.gts,
                    "skipped: an earlier decided prepare failed to replay on this shard".into(),
                ));
                continue;
            }
            // Land it exactly where the live commit would have: clock
            // to gts − 1 so the apply stamps at gts.
            rec.engine.advance_clock(SysTime(p.gts.saturating_sub(1)));
            let mut failed = None;
            for op in &p.txn.ops {
                if let Err(e) = apply_op(rec.engine.as_mut(), &rec.ids, op) {
                    failed = Some(e);
                    break;
                }
            }
            if let Some(e) = failed {
                // A decided prepare that cannot apply leaves this shard
                // with partial pending state and no rollback path. Mark
                // the shard degraded and keep going — one shard's
                // problems never block its siblings' recovery.
                rec.report.unreplayable.get_or_insert_with(|| {
                    format!("decided prepare {} failed to apply: {e}", p.gts)
                });
                degraded.push((si, p.gts, e.to_string()));
                broken = true;
                continue;
            }
            let ts = rec.engine.commit();
            debug_assert_eq!(ts, SysTime(p.gts), "recovered commit missed its slot");
            rec.report.replayed += 1;
            rec.report.commits += 1;
            committed_pending.push((si, p.gts));
        }
    }
    Ok(ClusterRecovered {
        shards,
        committed_pending,
        presumed_aborted,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::partition_checkpoint;
    use bitempo_core::{Key, Value};
    use bitempo_engine::build_engine;
    use bitempo_engine::testutil::{bitemp_table, simple_row};
    use bitempo_wal::{canonical_state, Checkpoint, DurabilityMode, SharedBuf};
    use bitempo_workloads::sharding::shard_of;

    /// Byte offset just past the first `n_records` records — a clean
    /// truncation point for crash simulation.
    fn offset_after(bytes: &[u8], n_records: usize) -> usize {
        use bitempo_wal::{scan, BODY_OVERHEAD, FRAME_OVERHEAD, WAL_HEADER_LEN};
        let scan = scan(bytes);
        assert!(
            scan.records.len() >= n_records,
            "fewer records than expected"
        );
        WAL_HEADER_LEN
            + scan.records[..n_records]
                .iter()
                .map(|r| FRAME_OVERHEAD + BODY_OVERHEAD + r.payload.len())
                .sum::<usize>()
    }

    fn base_checkpoint(n: i64) -> Checkpoint {
        let mut engine = build_engine(SystemKind::A);
        let t = engine.create_table(bitemp_table("t")).expect("create");
        for k in 0..n {
            engine
                .insert(t, simple_row(k, 10 * k), None)
                .expect("insert");
        }
        engine.commit();
        Checkpoint::capture(engine.as_mut(), &[t], 0).expect("capture")
    }

    /// Builds a 2-shard cluster, runs one single-shard and one cross-shard
    /// commit, closes cleanly, and returns (wal images, per-shard base
    /// checkpoints, expected canonical states, split keys).
    #[allow(clippy::type_complexity)]
    fn run_and_close() -> (Vec<Vec<u8>>, Vec<Vec<u8>>, Vec<Vec<String>>, (i64, i64)) {
        let base = base_checkpoint(8);
        let parts = partition_checkpoint(&base, 2);
        let bufs: Vec<SharedBuf> = (0..2).map(|_| SharedBuf::new()).collect();
        let wals = bufs
            .iter()
            .map(|b| {
                Some(
                    TxnWal::create(Box::new(b.clone()), DurabilityMode::Strict)
                        .expect("wal create"),
                )
            })
            .collect();
        let cluster = Cluster::from_checkpoint(SystemKind::A, &base, wals).expect("cluster");
        let t = cluster.table_ids()[0];
        let (a, b) = {
            let mut found = (0, 0);
            for k in 1..8 {
                if shard_of(&Key::int(k), 2) != shard_of(&Key::int(0), 2) {
                    found = (0, k);
                    break;
                }
            }
            assert_ne!(found.1, 0, "need keys on both shards");
            found
        };
        let mut txn = cluster.begin().expect("begin");
        txn.update(t, &Key::int(a), &[(1, Value::Int(100))], None)
            .expect("update");
        txn.commit().expect("single-shard commit");
        let mut txn = cluster.begin().expect("begin");
        txn.update(t, &Key::int(a), &[(1, Value::Int(200))], None)
            .expect("update");
        txn.update(t, &Key::int(b), &[(1, Value::Int(300))], None)
            .expect("update");
        txn.commit().expect("cross-shard commit");

        let mut states = Vec::new();
        for closed in cluster.close().expect("close") {
            let (engine, ids, _seq) = closed;
            states.push(canonical_state(engine.as_ref(), &ids).expect("state"));
        }
        (
            bufs.iter().map(|b| b.snapshot()).collect(),
            parts.iter().map(|p| p.encode()).collect(),
            states,
            (a, b),
        )
    }

    #[test]
    fn clean_shutdown_recovers_byte_identical() {
        let (wals, ckpts, expected, _) = run_and_close();
        let inputs: Vec<ShardInput> = wals
            .into_iter()
            .zip(ckpts)
            .map(|(wal, c)| ShardInput {
                wal,
                checkpoints: vec![c],
            })
            .collect();
        let rec = recover_cluster(SystemKind::A, &inputs, &TuningConfig::none()).expect("recover");
        assert!(rec.committed_pending.is_empty());
        assert!(rec.presumed_aborted.is_empty());
        for (r, want) in rec.shards.iter().zip(&expected) {
            let got = canonical_state(r.engine.as_ref(), &r.ids).expect("state");
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn crash_after_decision_commits_the_sibling_prepare() {
        let (wals, ckpts, expected, _) = run_and_close();
        // Truncate shard 1's log right after its *prepare* record (drop its
        // decision): the cross-shard commit is undecided locally, but shard
        // 0's durable decision must finish it.
        let n = bitempo_wal::scan(&wals[1]).records.len();
        assert!(n >= 2, "prepare + decision expected");
        let cut = offset_after(&wals[1], n - 1);
        let truncated = wals[1][..cut].to_vec();
        let inputs = vec![
            ShardInput {
                wal: wals[0].clone(),
                checkpoints: vec![ckpts[0].clone()],
            },
            ShardInput {
                wal: truncated,
                checkpoints: vec![ckpts[1].clone()],
            },
        ];
        let rec = recover_cluster(SystemKind::A, &inputs, &TuningConfig::none()).expect("recover");
        assert_eq!(rec.committed_pending.len(), 1, "shard 1's prepare decided");
        assert_eq!(rec.committed_pending[0].0, 1);
        assert!(rec.presumed_aborted.is_empty());
        for (r, want) in rec.shards.iter().zip(&expected) {
            let got = canonical_state(r.engine.as_ref(), &r.ids).expect("state");
            assert_eq!(&got, want);
        }
        assert_eq!(rec.consistent_prefix(), rec.shards[0].engine.now());
    }

    #[test]
    fn replay_failure_degrades_the_shard_without_blocking_siblings() {
        let base = base_checkpoint(8);
        let parts = partition_checkpoint(&base, 2);
        let gid = 50u64;
        let k0 = (0..8)
            .find(|k| shard_of(&Key::int(*k), 2) == 0)
            .expect("a key on shard 0");
        let mk_wal = |payloads: &[Vec<u8>]| -> Vec<u8> {
            let buf = SharedBuf::new();
            let mut w =
                TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).expect("wal create");
            for p in payloads {
                w.submit(p).expect("submit");
            }
            w.close().expect("close");
            buf.snapshot()
        };
        let good = bitempo_histgen::Transaction {
            scenarios: Vec::new(),
            ops: vec![bitempo_histgen::Op::Update {
                table: 0,
                key: Key::int(k0),
                updates: vec![(1, Value::Int(7))],
                portion: None,
            }],
        };
        // Shard 1's prepared half overwrites the application period of a key
        // that never existed in its partition. Unlike a plain update (a no-op
        // on a missing key), the overwrite raises `KeyNotFound` at the engine,
        // so the sibling-decided replay genuinely cannot apply it.
        let bad = bitempo_histgen::Transaction {
            scenarios: Vec::new(),
            ops: vec![bitempo_histgen::Op::OverwriteApp {
                table: 0,
                key: Key::int(424_242),
                period: bitempo_core::AppPeriod::ALL,
            }],
        };
        let wal0 = mk_wal(&[
            bitempo_wal::encode_prepare(gid, gid, &good).expect("encode"),
            bitempo_wal::encode_decision(gid, gid, true),
        ]);
        let wal1 = mk_wal(&[bitempo_wal::encode_prepare(gid, gid, &bad).expect("encode")]);
        let inputs = vec![
            ShardInput {
                wal: wal0,
                checkpoints: vec![parts[0].encode()],
            },
            ShardInput {
                wal: wal1,
                checkpoints: vec![parts[1].encode()],
            },
        ];
        let rec = recover_cluster(SystemKind::A, &inputs, &TuningConfig::none())
            .expect("one shard's replay failure must not fail the whole cluster recovery");
        // Shard 0 recovered normally from its own prepare + decision...
        assert!(rec.shards[0].report.unreplayable.is_none());
        assert_eq!(rec.shards[0].engine.now(), SysTime(gid));
        // ...while shard 1 is marked degraded, not silently dropped.
        assert_eq!(rec.committed_pending, Vec::new());
        assert!(rec.presumed_aborted.is_empty());
        assert_eq!(rec.degraded.len(), 1);
        assert_eq!((rec.degraded[0].0, rec.degraded[0].1), (1, gid));
        assert!(rec.shards[1].report.unreplayable.is_some());
        // A degraded shard must never go back into service as-is.
        let err = rec
            .into_cluster(vec![None, None])
            .map(|_| ())
            .expect_err("degraded shard must not serve");
        assert!(matches!(err, Error::Invalid(_)), "{err:?}");
    }

    #[test]
    fn crash_at_prepare_presumes_abort_everywhere() {
        let (wals, ckpts, expected, (a, _)) = run_and_close();
        // Truncate *both* shards before their decision records: the
        // cross-shard transaction vanishes atomically — both shards roll
        // back to the single-shard commit's state.
        let mut inputs = Vec::new();
        for (wal, c) in wals.iter().zip(&ckpts) {
            let n = bitempo_wal::scan(wal).records.len();
            assert!(n >= 1, "records expected");
            let cut = offset_after(wal, n - 1);
            inputs.push(ShardInput {
                wal: wal[..cut].to_vec(),
                checkpoints: vec![c.clone()],
            });
        }
        let rec = recover_cluster(SystemKind::A, &inputs, &TuningConfig::none()).expect("recover");
        assert!(rec.committed_pending.is_empty());
        // The shard that hosted key `a` saw a prepare; the truncation cut
        // the decision on both shards, so every surviving prepare aborts.
        assert!(!rec.presumed_aborted.is_empty());
        // Neither shard shows the cross-shard values.
        let owner = shard_of(&Key::int(a), 2);
        let got = canonical_state(rec.shards[owner].engine.as_ref(), &rec.shards[owner].ids)
            .expect("state");
        assert_ne!(
            got, expected[owner],
            "cross-shard commit must not survive an undecided crash"
        );
        assert!(
            got.iter().any(|line| line.contains("100")),
            "the earlier single-shard commit survives: {got:?}"
        );
        assert!(
            !got.iter().any(|line| line.contains("200")),
            "no trace of the aborted cross-shard write"
        );
    }
}
