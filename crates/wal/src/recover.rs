//! Crash recovery: checkpoint + WAL tail = the uncrashed engine.
//!
//! [`durable_replay`] is the logging twin of the histgen loader: it replays
//! the generator archive one transaction per commit, appending each
//! transaction's archive body to a [`TxnWal`] *before* applying it, and
//! snapshots a [`Checkpoint`] every `checkpoint_every` commits. A sink
//! failure mid-run is a simulated crash: the driver stops and reports it,
//! leaving the torn log bytes as the only survivor.
//!
//! [`recover`] rebuilds from those survivors: it picks the newest
//! checkpoint that still decodes (falling back past corrupt ones), restores
//! the engine from it, then reads the WAL's valid prefix one record at a
//! time ([`WalReader`], truncating at the first torn or corrupt record) and
//! decodes, applies and drops each record after the checkpoint through
//! [`bitempo_histgen::apply_txn`] — the exact dispatch of the original load.
//! Its working set beyond the checkpoint and the engine is one record: no
//! payload is copied out of the log and no decoded backlog is kept. Tuning
//! is re-applied afterwards, like a cold load. The crash tests assert the
//! result is query-equivalent to [`oracle_replay`] of the same prefix on
//! all five query classes, and state-equivalent through
//! [`canonical_state`](crate::canonical_state).

use crate::checkpoint::Checkpoint;
use crate::log::TxnWal;
use crate::record::{decode_payload, WalPayload};
use bitempo_core::frame::WalReader;
use bitempo_core::{Error, Result, TableId};
use bitempo_dbgen::TpchData;
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind, TuningConfig};
use bitempo_histgen::{apply_txn, encode_txn, load_initial, Archive};
use bitempo_storage::DurabilityMode;

/// Replay-with-logging options.
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// When appended commit records become durable.
    pub mode: DurabilityMode,
    /// Snapshot a checkpoint every this many commits (0 = only the
    /// checkpoint of the initial load). Recovery replays at most this many
    /// WAL records, so it bounds recovery time.
    pub checkpoint_every: u64,
}

impl Default for DurableOptions {
    /// Async logging, checkpoint every 64 commits.
    fn default() -> DurableOptions {
        DurableOptions {
            mode: DurabilityMode::Async,
            checkpoint_every: 64,
        }
    }
}

/// What a [`durable_replay`] run produced.
#[derive(Debug)]
pub struct DurableRun {
    /// Table ids in creation order.
    pub ids: Vec<TableId>,
    /// Transactions applied and committed (each one appended to the WAL
    /// before it was applied).
    pub commits: u64,
    /// Encoded checkpoints, oldest first. Index 0 is always the snapshot
    /// of the initial load (`seq` 0).
    pub checkpoints: Vec<Vec<u8>>,
    /// Highest WAL sequence number acknowledged durable at close.
    pub durable_seq: u64,
    /// `Some(reason)` if the WAL sink failed mid-run — the simulated
    /// crash. Commits stop at the failure; the engine state past the log
    /// is considered lost.
    pub crashed: Option<String>,
}

/// Replays `archive` against `engine` with write-ahead logging: for each
/// transaction, append its encoded body to `log`, apply its operations,
/// commit, and checkpoint on the configured cadence.
///
/// A WAL append failure stops the run (see [`DurableRun::crashed`]); any
/// other operation failure is a hard error — the archive is trusted input
/// here, and recovery must be able to assume zero skipped ops.
pub fn durable_replay(
    engine: &mut dyn BitemporalEngine,
    data: &TpchData,
    archive: &Archive,
    log: TxnWal,
    opts: &DurableOptions,
) -> Result<DurableRun> {
    let mut log = log;
    let ids = load_initial(engine, data)?;
    let mut checkpoints = vec![Checkpoint::capture(engine, &ids, 0)?.encode()];
    let mut commits = 0u64;
    let mut crashed = None;
    for txn in &archive.transactions {
        let payload = encode_txn(txn)?;
        // A checkpoint must be labelled with the exact WAL sequence number
        // it covers — the one the framing layer assigned, not a commit
        // counter kept on the side. In this single-threaded driver the two
        // coincide (asserted below), but recovery's "skip `rec.seq <=
        // ckpt.seq`" boundary is only safe if the label comes from the log
        // itself; a drifted counter would drop or double-replay the
        // transaction that straddles the checkpoint.
        let seq = match log.append(&payload) {
            Ok(seq) => seq,
            Err(e) => {
                crashed = Some(e.to_string());
                break;
            }
        };
        apply_txn(engine, &ids, &txn.ops, None)?;
        engine.commit();
        commits += 1;
        debug_assert_eq!(seq, commits, "WAL seq diverged from the commit count");
        if opts.checkpoint_every > 0 && commits.is_multiple_of(opts.checkpoint_every) {
            checkpoints.push(Checkpoint::capture(engine, &ids, seq)?.encode());
        }
    }
    let durable_seq = match log.close() {
        Ok(d) => d,
        Err(e) => {
            // A failure surfacing at close (group commit) is the same
            // crash, detected later; keep the first reason we saw.
            crashed.get_or_insert(e.to_string());
            0
        }
    };
    Ok(DurableRun {
        ids,
        commits,
        checkpoints,
        durable_seq,
        crashed,
    })
}

/// How a recovery went: what was salvaged, from where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// Checkpoints that failed to decode and were skipped (newest first
    /// is tried first, so these were all newer than the one used).
    pub checkpoints_rejected: usize,
    /// Valid records found in the WAL prefix.
    pub wal_records: u64,
    /// Records actually replayed on top of the checkpoint.
    pub replayed: u64,
    /// Why the WAL tail was truncated, if it was ([`WalReader::torn`]).
    pub torn: Option<String>,
    /// Byte length of the valid WAL prefix — the clean truncation point.
    pub wal_valid_len: u64,
    /// Committed transactions represented in the recovered state.
    pub commits: u64,
    /// `Some(reason)` if a structurally valid record failed to decode or
    /// apply: replay stopped at its boundary (state continuity past a
    /// skipped record would be fiction) and the recovered state covers
    /// only the records before it. Both log writers append a record only
    /// after (or while trusting that) its transaction applies, so this
    /// indicates corruption that slipped past the frame checksums.
    pub unreplayable: Option<String>,
    /// Prepares left undecided at the end of the valid prefix and
    /// therefore *presumed aborted* (not applied). A cluster recovery may
    /// still commit them from [`Recovered::pending`] when a sibling
    /// shard's WAL holds the commit decision.
    pub presumed_aborted: u64,
}

/// A prepared-but-undecided transaction salvaged from the WAL tail: its
/// full op payload, as durable as the prepare record that carried it.
#[derive(Debug, Clone)]
pub struct PendingPrepare {
    /// Global transaction id.
    pub gid: u64,
    /// Oracle commit timestamp the transaction would land at.
    pub gts: u64,
    /// The prepared ops.
    pub txn: bitempo_histgen::Transaction,
}

/// A recovered engine with its table ids and the recovery accounting.
pub struct Recovered {
    /// The rebuilt engine, tuned and checkpointed.
    pub engine: Box<dyn BitemporalEngine>,
    /// Table ids in creation order (same order as the original run).
    pub ids: Vec<TableId>,
    /// What was salvaged.
    pub report: RecoveryReport,
    /// Undecided prepares, presumed aborted locally. The sharded cluster's
    /// recovery resolves them against every shard's decisions: a commit
    /// decision found anywhere commits the prepare here too.
    pub pending: Vec<PendingPrepare>,
    /// Gids of *commit* decisions present in this WAL's valid prefix —
    /// the evidence cluster recovery unions across shards.
    pub decided_commits: Vec<u64>,
}

/// Rebuilds an engine of `kind` from the newest valid checkpoint in
/// `checkpoints` plus the valid prefix of `wal_bytes`, then re-applies
/// `tuning` exactly as the bench runner does after a cold load.
///
/// Corruption is handled, not propagated: a torn WAL tail is truncated at
/// the last clean record boundary, a corrupt checkpoint falls back to the
/// next older one, and a record that fails to decode or apply truncates
/// replay at its boundary ([`RecoveryReport::unreplayable`]) instead of
/// failing the whole recovery. Only a *total* loss — no decodable
/// checkpoint at all — is an error.
pub fn recover(
    kind: SystemKind,
    wal_bytes: &[u8],
    checkpoints: &[Vec<u8>],
    tuning: &TuningConfig,
) -> Result<Recovered> {
    let mut rejected = 0;
    let mut chosen = None;
    for encoded in checkpoints.iter().rev() {
        match Checkpoint::decode(encoded) {
            Ok(c) => {
                chosen = Some(c);
                break;
            }
            Err(_) => rejected += 1,
        }
    }
    let ckpt = chosen.ok_or_else(|| {
        Error::Archive(format!(
            "recovery found no valid checkpoint among {}",
            checkpoints.len()
        ))
    })?;
    let mut engine = build_engine(kind);
    let ids = ckpt.restore_into(engine.as_mut())?;
    let mut replay = Replay::default();
    let mut decided_commits = Vec::new();
    let mut unreplayable = None;
    // Seq of the record that failed to apply: nothing from it on applies,
    // but later records still decode, for `decided_commits`.
    let mut failed_at = None;
    let mut decoding = true;
    let mut wal_records = 0u64;
    let mut reader = WalReader::new(wal_bytes);
    for (seq, payload) in reader.by_ref() {
        wal_records += 1;
        if seq <= ckpt.seq || !decoding {
            continue;
        }
        // A record that fails to decode truncates replay at its boundary
        // (reported, not propagated — the same philosophy as the torn-tail
        // read); an earlier apply failure stays the reported reason.
        let item = match decode_payload(payload) {
            Ok(item) => item,
            Err(e) => {
                unreplayable.get_or_insert_with(|| format!("record {seq} failed to decode: {e}"));
                decoding = false;
                continue;
            }
        };
        // Commit decisions anywhere in the decodable prefix: cluster
        // recovery unions these across shards to resolve sibling prepares.
        if let WalPayload::Decision {
            gid, commit: true, ..
        } = item
        {
            decided_commits.push(gid);
        }
        if failed_at.is_none() {
            if let Err(e) = replay.apply(engine.as_mut(), &ids, item) {
                unreplayable = Some(format!("record {seq} failed to apply: {e}"));
                failed_at = Some(seq);
            }
        }
    }
    if let Some(failed_at) = failed_at {
        // The failing record left partial pending state; rebuild from the
        // checkpoint and re-read only the known-good prefix (those records
        // are deterministic and already applied once).
        engine = build_engine(kind);
        let restored = ckpt.restore_into(engine.as_mut())?;
        debug_assert_eq!(restored, ids, "checkpoint restore must be deterministic");
        replay = Replay::default();
        for (seq, payload) in WalReader::new(wal_bytes).take_while(|&(seq, _)| seq < failed_at) {
            if seq > ckpt.seq {
                replay.apply(engine.as_mut(), &ids, decode_payload(payload)?)?;
            }
        }
    }
    let Replay {
        replayed,
        stash: pending,
    } = replay;
    engine.apply_tuning(tuning)?;
    engine.checkpoint();
    // Record seqs are dense and 1-based, so for a pure commit-record log
    // (every WAL PR 7 writes) the recovered state covers exactly the
    // checkpoint plus every replayed record. Shard WALs interleave
    // prepare/decision records, so their commit accounting lives with the
    // cluster, not here.
    let commits = ckpt.seq + replayed;
    Ok(Recovered {
        engine,
        ids,
        report: RecoveryReport {
            checkpoint_seq: ckpt.seq,
            checkpoints_rejected: rejected,
            wal_records,
            replayed,
            torn: reader.torn().map(str::to_string),
            wal_valid_len: reader.valid_len(),
            commits,
            unreplayable,
            presumed_aborted: pending.len() as u64,
        },
        pending,
        decided_commits,
    })
}

/// Replay state: commits applied so far and the prepares still undecided
/// (presumed aborted if the log ends before their decision).
#[derive(Default)]
struct Replay {
    replayed: u64,
    stash: Vec<PendingPrepare>,
}

impl Replay {
    /// Applies the next decoded record: a commit applies and lands (at its
    /// carried `gts` when stamped), a prepare stashes, a decision resolves
    /// its stash entry. On an error the engine holds partial state; the
    /// caller rebuilds and replays the records before this one.
    fn apply(
        &mut self,
        engine: &mut dyn BitemporalEngine,
        ids: &[TableId],
        item: WalPayload,
    ) -> Result<()> {
        let (gts, txn) = match item {
            WalPayload::Commit { gts, txn } => (gts, txn),
            WalPayload::Prepare { gid, gts, txn } => {
                self.stash.push(PendingPrepare { gid, gts, txn });
                return Ok(());
            }
            WalPayload::Decision { gid, gts, commit } => {
                let pos = self.stash.iter().position(|p| p.gid == gid);
                match (pos, commit) {
                    (Some(pos), true) => (Some(gts), self.stash.remove(pos).txn),
                    (Some(pos), false) => {
                        self.stash.remove(pos);
                        return Ok(());
                    }
                    // A decision always lands right after its prepare on the
                    // same shard (the gate excludes anything in between), so
                    // an orphaned commit decision means the log lies —
                    // truncate here, like any other unreplayable record.
                    (None, true) => {
                        return Err(Error::Archive(format!(
                            "commit decision for unknown prepare {gid}"
                        )))
                    }
                    // An abort for a prepare the checkpoint already covers
                    // (label advanced past the prepare) decides nothing.
                    (None, false) => return Ok(()),
                }
            }
        };
        apply_txn(engine, ids, &txn.ops, gts)?;
        engine.commit();
        self.replayed += 1;
        Ok(())
    }
}

/// The uncrashed oracle: replays the first `commits` transactions of
/// `archive` with the same commit cadence as [`durable_replay`] (including
/// the physical-checkpoint calls on the same boundaries), then applies
/// `tuning`. Recovery must be equivalent to this.
pub fn oracle_replay(
    kind: SystemKind,
    data: &TpchData,
    archive: &Archive,
    commits: u64,
    opts: &DurableOptions,
    tuning: &TuningConfig,
) -> Result<(Box<dyn BitemporalEngine>, Vec<TableId>)> {
    let mut engine = build_engine(kind);
    let ids = load_initial(engine.as_mut(), data)?;
    engine.checkpoint();
    for (i, txn) in archive.transactions.iter().enumerate() {
        if i as u64 >= commits {
            break;
        }
        apply_txn(engine.as_mut(), &ids, &txn.ops, None)?;
        engine.commit();
        let done = i as u64 + 1;
        if opts.checkpoint_every > 0 && done.is_multiple_of(opts.checkpoint_every) {
            engine.checkpoint();
        }
    }
    engine.apply_tuning(tuning)?;
    engine.checkpoint();
    Ok((engine, ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonical_state;
    use crate::sink::SharedBuf;
    use bitempo_core::fault::FaultyWriter;
    use bitempo_core::frame;
    use bitempo_dbgen::ScaleConfig;
    use bitempo_histgen::{generate_history, HistoryConfig};

    fn tiny_world() -> (TpchData, Archive) {
        let data = bitempo_dbgen::generate(&ScaleConfig {
            h: 0.0004,
            seed: 0xD00D,
        });
        let hist = generate_history(
            &data,
            &HistoryConfig {
                m: 0.00012, // 120 scenario transactions
                seed: 0xFACE,
                scenarios_per_day: 4,
            },
        );
        (data, hist.archive)
    }

    #[test]
    fn clean_run_recovers_identically() {
        let (data, archive) = tiny_world();
        let opts = DurableOptions {
            mode: DurabilityMode::Strict,
            checkpoint_every: 50,
        };
        let tuning = TuningConfig::none().with_workers(1);
        let buf = SharedBuf::new();
        let mut engine = build_engine(SystemKind::A);
        let log = TxnWal::create(Box::new(buf.clone()), opts.mode).unwrap();
        let run = durable_replay(engine.as_mut(), &data, &archive, log, &opts).unwrap();
        assert!(run.crashed.is_none());
        assert_eq!(run.commits, archive.transactions.len() as u64);
        assert_eq!(run.durable_seq, run.commits);
        assert_eq!(run.checkpoints.len(), 1 + (run.commits / 50) as usize);

        let rec = recover(SystemKind::A, &buf.snapshot(), &run.checkpoints, &tuning).unwrap();
        assert!(rec.report.torn.is_none());
        assert_eq!(rec.report.commits, run.commits);
        assert!(rec.report.checkpoint_seq >= 50, "used a late checkpoint");
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(engine.as_ref(), &run.ids).unwrap()
        );
    }

    #[test]
    fn crash_mid_stream_recovers_the_prefix() {
        let (data, archive) = tiny_world();
        let opts = DurableOptions {
            mode: DurabilityMode::Strict,
            checkpoint_every: 32,
        };
        let tuning = TuningConfig::none().with_workers(1);

        // Dry run to size the log, then cut it at two thirds.
        let dry = SharedBuf::new();
        let mut scratch = build_engine(SystemKind::A);
        let log = TxnWal::create(Box::new(dry.clone()), opts.mode).unwrap();
        durable_replay(scratch.as_mut(), &data, &archive, log, &opts).unwrap();
        let cut = (dry.len() as u64) * 2 / 3;

        let buf = SharedBuf::new();
        let sink = FaultyWriter::new(buf.clone(), cut);
        let mut engine = build_engine(SystemKind::A);
        let log = TxnWal::create(Box::new(sink), opts.mode).unwrap();
        let run = durable_replay(engine.as_mut(), &data, &archive, log, &opts).unwrap();
        assert!(run.crashed.is_some(), "the cut must fire");
        assert!(run.commits < archive.transactions.len() as u64);

        let rec = recover(SystemKind::A, &buf.snapshot(), &run.checkpoints, &tuning).unwrap();
        // Strict mode: every acknowledged commit must be recovered.
        assert_eq!(rec.report.commits, run.commits);
        let (oracle, oracle_ids) = oracle_replay(
            SystemKind::A,
            &data,
            &archive,
            rec.report.commits,
            &opts,
            &tuning,
        )
        .unwrap();
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(oracle.as_ref(), &oracle_ids).unwrap()
        );
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_an_older_one() {
        let (data, archive) = tiny_world();
        let opts = DurableOptions {
            mode: DurabilityMode::Async,
            checkpoint_every: 40,
        };
        let tuning = TuningConfig::none().with_workers(1);
        let buf = SharedBuf::new();
        let mut engine = build_engine(SystemKind::A);
        let log = TxnWal::create(Box::new(buf.clone()), opts.mode).unwrap();
        let run = durable_replay(engine.as_mut(), &data, &archive, log, &opts).unwrap();
        assert!(run.checkpoints.len() >= 3, "need checkpoints to corrupt");

        let mut checkpoints = run.checkpoints.clone();
        let last = checkpoints.len() - 1;
        let mid = checkpoints[last].len() / 2;
        checkpoints[last][mid] ^= 0xFF;

        let rec = recover(SystemKind::A, &buf.snapshot(), &checkpoints, &tuning).unwrap();
        assert_eq!(rec.report.checkpoints_rejected, 1);
        assert_eq!(rec.report.commits, run.commits, "the WAL covers the gap");
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(engine.as_ref(), &run.ids).unwrap()
        );
    }

    /// Byte offset of the exact frame boundary after record `k` of a clean
    /// run's WAL bytes. Frames are deterministic given the payload
    /// sequence, so re-encoding the scanned payloads reproduces the sizes.
    fn boundary_after(clean_wal: &[u8], k: usize) -> u64 {
        let scan = frame::scan(clean_wal);
        assert!(scan.is_clean() && scan.records.len() > k);
        let mut appender = frame::WalAppender::new();
        let mut off = frame::header_bytes().len() as u64;
        for rec in &scan.records[..k] {
            let (_, frame) = appender.encode(&rec.payload);
            off += frame.len() as u64;
        }
        off
    }

    /// The checkpoint/WAL boundary: a crash *exactly* at the frame boundary
    /// after the checkpointed commit must recover precisely that commit
    /// count — the checkpointed transaction is neither dropped (off-by-one
    /// toward the past) nor replayed twice (checkpoint label drifting below
    /// the WAL seq it actually covers).
    #[test]
    fn crash_exactly_on_the_checkpoint_boundary() {
        let (data, archive) = tiny_world();
        let opts = DurableOptions {
            mode: DurabilityMode::Strict,
            checkpoint_every: 32,
        };
        let tuning = TuningConfig::none().with_workers(1);

        let dry = SharedBuf::new();
        let mut scratch = build_engine(SystemKind::A);
        let log = TxnWal::create(Box::new(dry.clone()), opts.mode).unwrap();
        durable_replay(scratch.as_mut(), &data, &archive, log, &opts).unwrap();

        // Cut at the boundary right after record 32 — the same commit the
        // cadence checkpoints — and two frames into record 33 (torn tail).
        for extra in [0u64, 2] {
            let cut = boundary_after(&dry.snapshot(), 32) + extra;
            let buf = SharedBuf::new();
            let sink = FaultyWriter::new(buf.clone(), cut);
            let mut engine = build_engine(SystemKind::A);
            let log = TxnWal::create(Box::new(sink), opts.mode).unwrap();
            let run = durable_replay(engine.as_mut(), &data, &archive, log, &opts).unwrap();
            assert!(run.crashed.is_some());
            assert_eq!(run.commits, 32, "strict mode stops at the cut");

            let rec = recover(SystemKind::A, &buf.snapshot(), &run.checkpoints, &tuning).unwrap();
            assert_eq!(rec.report.checkpoint_seq, 32, "newest checkpoint wins");
            assert_eq!(rec.report.replayed, 0, "nothing may be replayed twice");
            assert_eq!(rec.report.commits, 32, "nothing may be dropped");
            let (oracle, oracle_ids) =
                oracle_replay(SystemKind::A, &data, &archive, 32, &opts, &tuning).unwrap();
            assert_eq!(
                canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
                canonical_state(oracle.as_ref(), &oracle_ids).unwrap()
            );
        }
    }

    /// A crash a few commits past a checkpoint replays exactly the records
    /// after the checkpoint's recorded seq — the straddling transaction is
    /// covered by the checkpoint, not double-applied from the WAL.
    #[test]
    fn recovery_replays_only_records_past_the_checkpoint_seq() {
        let (data, archive) = tiny_world();
        let opts = DurableOptions {
            mode: DurabilityMode::Strict,
            checkpoint_every: 32,
        };
        let tuning = TuningConfig::none().with_workers(1);

        let dry = SharedBuf::new();
        let mut scratch = build_engine(SystemKind::A);
        let log = TxnWal::create(Box::new(dry.clone()), opts.mode).unwrap();
        durable_replay(scratch.as_mut(), &data, &archive, log, &opts).unwrap();

        let cut = boundary_after(&dry.snapshot(), 35);
        let buf = SharedBuf::new();
        let sink = FaultyWriter::new(buf.clone(), cut);
        let mut engine = build_engine(SystemKind::A);
        let log = TxnWal::create(Box::new(sink), opts.mode).unwrap();
        let run = durable_replay(engine.as_mut(), &data, &archive, log, &opts).unwrap();
        assert_eq!(run.commits, 35);

        let rec = recover(SystemKind::A, &buf.snapshot(), &run.checkpoints, &tuning).unwrap();
        assert_eq!(rec.report.checkpoint_seq, 32);
        assert_eq!(rec.report.replayed, 3, "records 33..=35, each exactly once");
        assert_eq!(rec.report.commits, 35);
        let (oracle, oracle_ids) =
            oracle_replay(SystemKind::A, &data, &archive, 35, &opts, &tuning).unwrap();
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(oracle.as_ref(), &oracle_ids).unwrap()
        );
    }

    /// A structurally valid record whose transaction cannot apply (here:
    /// an overwrite of a key the state never held) must truncate replay at
    /// its boundary — everything before it recovers, nothing after it is
    /// half-applied, and the report says why — instead of failing the
    /// whole recovery and taking every previously committed transaction
    /// down with it.
    #[test]
    fn unreplayable_record_truncates_replay_instead_of_failing() {
        use bitempo_core::{AppDate, Key, Period};
        use bitempo_engine::testutil::{bitemp_table, simple_row};
        use bitempo_histgen::{Op, Transaction};

        let mut engine = build_engine(SystemKind::A);
        let t = engine.create_table(bitemp_table("t")).unwrap();
        engine.insert(t, simple_row(1, 10), None).unwrap();
        engine.commit();
        let ids = vec![t];
        let base = Checkpoint::capture(engine.as_mut(), &ids, 0)
            .unwrap()
            .encode();

        let insert = |id: i64| Transaction {
            scenarios: Vec::new(),
            ops: vec![Op::Insert {
                table: 0,
                row: simple_row(id, id * 10),
                app: None,
            }],
        };
        let poison = Transaction {
            scenarios: Vec::new(),
            ops: vec![Op::OverwriteApp {
                table: 0,
                key: Key::int(i64::MAX),
                period: Period::new(AppDate(0), AppDate::MAX),
            }],
        };
        let buf = SharedBuf::new();
        let mut log = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).unwrap();
        log.append(&encode_txn(&insert(2)).unwrap()).unwrap();
        log.append(&encode_txn(&poison).unwrap()).unwrap();
        log.append(&encode_txn(&insert(3)).unwrap()).unwrap();
        log.close().unwrap();

        let rec = recover(
            SystemKind::A,
            &buf.snapshot(),
            &[base],
            &TuningConfig::none(),
        )
        .unwrap();
        assert_eq!(rec.report.replayed, 1, "only the good prefix replays");
        assert_eq!(rec.report.commits, 1);
        let reason = rec.report.unreplayable.as_deref().unwrap();
        assert!(reason.contains("record 2"), "got: {reason}");
        // The recovered state is exactly the prefix: rows 1 and 2, no
        // partial residue of the poisoned record, nothing after it.
        use bitempo_engine::api::{AppSpec, SysSpec};
        let rows = rec
            .engine
            .scan(rec.ids[0], &SysSpec::Current, &AppSpec::All, &[])
            .unwrap()
            .rows;
        let mut keys: Vec<i64> = rows
            .iter()
            .map(|r| match r.get(0) {
                bitempo_core::Value::Int(i) => *i,
                other => panic!("unexpected key {other:?}"),
            })
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2]);
    }

    /// One row `(1, 10)` committed in table `t`, checkpointed at seq 0.
    fn one_row_base() -> (Box<dyn BitemporalEngine>, Vec<TableId>, Vec<u8>) {
        use bitempo_engine::testutil::{bitemp_table, simple_row};
        let mut engine = build_engine(SystemKind::A);
        let t = engine.create_table(bitemp_table("t")).unwrap();
        engine.insert(t, simple_row(1, 10), None).unwrap();
        engine.commit();
        let ids = vec![t];
        let base = Checkpoint::capture(engine.as_mut(), &ids, 0)
            .unwrap()
            .encode();
        (engine, ids, base)
    }

    fn insert_txn(id: i64) -> bitempo_histgen::Transaction {
        bitempo_histgen::Transaction {
            scenarios: Vec::new(),
            ops: vec![bitempo_histgen::Op::Insert {
                table: 0,
                row: bitempo_engine::testutil::simple_row(id, id * 10),
                app: None,
            }],
        }
    }

    /// A strict log holding `payloads`, one record each.
    fn log_of(payloads: &[Vec<u8>]) -> Vec<u8> {
        let buf = SharedBuf::new();
        let mut log = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).unwrap();
        for p in payloads {
            log.append(p).unwrap();
        }
        log.close().unwrap();
        buf.snapshot()
    }

    /// A framed record whose payload is no record kind at all.
    const UNDECODABLE: &[u8] = b"B2PC\x09";

    /// A record that fails to decode mid-log stops replay at its boundary:
    /// the records before it recover, the ones after it do not, and every
    /// valid frame still counts toward `wal_records`.
    #[test]
    fn decode_failure_mid_log_truncates_replay() {
        let (_, _, base) = one_row_base();
        let wal = log_of(&[
            encode_txn(&insert_txn(2)).unwrap(),
            UNDECODABLE.to_vec(),
            encode_txn(&insert_txn(3)).unwrap(),
        ]);
        let rec = recover(SystemKind::A, &wal, &[base], &TuningConfig::none()).unwrap();
        assert_eq!(rec.report.wal_records, 3);
        assert_eq!(rec.report.replayed, 1);
        assert_eq!(rec.report.commits, 1);
        assert_eq!(rec.report.wal_valid_len, wal.len() as u64);
        assert!(rec.report.torn.is_none());
        let reason = rec.report.unreplayable.as_deref().unwrap();
        assert!(
            reason.contains("record 2 failed to decode"),
            "got: {reason}"
        );
        assert!(rec.decided_commits.is_empty());
        assert!(rec.pending.is_empty());
        let (mut want, want_ids, _) = one_row_base();
        want.insert(
            want_ids[0],
            bitempo_engine::testutil::simple_row(2, 20),
            None,
        )
        .unwrap();
        want.commit();
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(want.as_ref(), &want_ids).unwrap()
        );
    }

    /// An apply failure, then a commit decision, then a record that fails
    /// to decode: the recovered engine is exactly the prefix before the
    /// apply failure, `unreplayable` names the apply failure, and
    /// `decided_commits` still carries the decision read past it (cluster
    /// recovery unions that evidence across shards).
    #[test]
    fn apply_failure_then_decision_then_corrupt_record() {
        use bitempo_core::{AppDate, Key, Period};
        use bitempo_histgen::{Op, Transaction};
        let (_, _, base) = one_row_base();
        let poison = Transaction {
            scenarios: Vec::new(),
            ops: vec![Op::OverwriteApp {
                table: 0,
                key: Key::int(i64::MAX),
                period: Period::new(AppDate(0), AppDate::MAX),
            }],
        };
        let wal = log_of(&[
            encode_txn(&insert_txn(2)).unwrap(),
            encode_txn(&poison).unwrap(),
            crate::record::encode_prepare(7, 40, &insert_txn(5)).unwrap(),
            crate::record::encode_decision(7, 40, true),
            UNDECODABLE.to_vec(),
            encode_txn(&insert_txn(4)).unwrap(),
        ]);
        let rec = recover(SystemKind::A, &wal, &[base], &TuningConfig::none()).unwrap();
        let reason = rec.report.unreplayable.as_deref().unwrap();
        assert!(reason.contains("record 2 failed to apply"), "got: {reason}");
        assert_eq!(rec.decided_commits, vec![7]);
        assert_eq!(rec.report.replayed, 1);
        assert_eq!(rec.report.commits, 1);
        assert_eq!(rec.report.wal_records, 6);
        assert_eq!(rec.report.presumed_aborted, 0);
        assert!(rec.pending.is_empty());
        let (mut want, want_ids, _) = one_row_base();
        want.insert(
            want_ids[0],
            bitempo_engine::testutil::simple_row(2, 20),
            None,
        )
        .unwrap();
        want.commit();
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(want.as_ref(), &want_ids).unwrap()
        );
    }

    #[test]
    fn no_valid_checkpoint_is_a_hard_error() {
        let res = recover(
            SystemKind::A,
            &frame::header_bytes(),
            &[vec![1, 2, 3]],
            &TuningConfig::none(),
        );
        match res {
            Err(Error::Archive(_)) => {}
            Err(other) => panic!("wrong error kind: {other}"),
            Ok(_) => panic!("recovery without a checkpoint must fail"),
        }
    }
}
