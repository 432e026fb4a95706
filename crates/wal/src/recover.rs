//! Crash recovery: checkpoint + WAL tail = the uncrashed engine.
//!
//! [`durable_replay`] is the logged load: the histgen loader's
//! one-transaction-per-commit replay with a WAL in front. It appends each
//! transaction's archive body to a [`TxnWal`] *before* applying it,
//! commits, and every `checkpoint_every` commits snapshots a
//! [`Checkpoint`] labelled with that record's WAL seq. An append failure is
//! a simulated crash: the loop stops and reports it, leaving the torn log
//! bytes as the only survivor. The caller loads version 0, captures the
//! seq-0 checkpoint and closes the log.
//!
//! [`recover`] rebuilds from those survivors: it picks the newest
//! checkpoint that still decodes (falling back past corrupt ones), restores
//! the engine from it, then reads the WAL's valid prefix one record at a
//! time ([`WalReader`], truncating at the first torn or corrupt record) and
//! decodes, applies and drops each record after the checkpoint through
//! [`bitempo_histgen::apply_txn`] — the exact dispatch of the original load.
//! Its working set beyond the checkpoint and the engine is one record: no
//! payload is copied out of the log and no decoded backlog is kept. Tuning
//! is re-applied afterwards, like a cold load. A shard log also holds
//! two-phase-commit records: replay stashes each prepare and resolves it by
//! the `gts` its decision carries. The crash tests compare the result with
//! the production load path — `load_initial` plus `replay` of the
//! recovered prefix, with no WAL and no checkpoints — on all five query
//! classes, and state-equivalent through
//! [`canonical_state`](crate::canonical_state).

use crate::checkpoint::Checkpoint;
use crate::log::TxnWal;
use crate::record::{decode_payload, WalPayload};
use bitempo_core::frame::WalReader;
use bitempo_core::{Error, Result, TableId};
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind, TuningConfig};
use bitempo_histgen::{apply_txn, encode_txn, Transaction};

/// What a [`durable_replay`] run produced.
#[derive(Debug)]
pub struct DurableRun {
    /// Transactions applied and committed (each one appended to the WAL
    /// before it was applied).
    pub commits: u64,
    /// Encoded cadence checkpoints, oldest first, each labelled with the
    /// WAL seq it covers. The caller's seq-0 checkpoint is not among them.
    pub checkpoints: Vec<Vec<u8>>,
    /// The append failure that stopped the run — the simulated crash.
    /// Commits stop at the failure; the engine state past the log is
    /// considered lost.
    pub crashed: Option<Error>,
}

/// The logged loop over `txns`, on an `engine` already holding version 0
/// under `ids`: for each transaction, append its encoded body to `log`,
/// apply its operations, commit, and every `checkpoint_every` commits
/// (0 = never) capture a checkpoint.
///
/// A WAL append failure stops the run (see [`DurableRun::crashed`]); any
/// other operation failure is a hard error — the archive is trusted input
/// here, and recovery must be able to assume zero skipped ops.
pub fn durable_replay(
    engine: &mut dyn BitemporalEngine,
    ids: &[TableId],
    txns: &[Transaction],
    log: &mut TxnWal,
    checkpoint_every: u64,
) -> Result<DurableRun> {
    let mut run = DurableRun {
        commits: 0,
        checkpoints: Vec::new(),
        crashed: None,
    };
    for txn in txns {
        // A checkpoint is labelled with the WAL seq the framing layer
        // assigned, not a commit counter kept on the side: recovery's
        // "skip `seq <= ckpt.seq`" boundary is only safe if the label
        // comes from the log itself.
        let seq = match log.append(&encode_txn(txn)?) {
            Ok(seq) => seq,
            Err(e) => {
                run.crashed = Some(e);
                break;
            }
        };
        apply_txn(engine, ids, &txn.ops, None)?;
        engine.commit();
        run.commits += 1;
        if checkpoint_every > 0 && run.commits.is_multiple_of(checkpoint_every) {
            run.checkpoints
                .push(Checkpoint::capture(engine, ids, seq)?.try_encode()?);
        }
    }
    Ok(run)
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
    /// Committed transactions represented in the recovered state: the
    /// checkpoint's seq plus the records replayed. Exact for a commit-only
    /// log, where WAL seq == commit number; a shard log also numbers its
    /// prepare and decision records, so there it is exact only from a
    /// seq-0 checkpoint.
    pub commits: u64,
    /// `Some(reason)` if a structurally valid record failed to decode or
    /// apply: replay stopped at its boundary (state continuity past a
    /// skipped record would be fiction) and the recovered state covers
    /// only the records before it. Both log writers append a record only
    /// after (or while trusting that) its transaction applies, so this
    /// indicates corruption that slipped past the frame checksums.
    pub unreplayable: Option<String>,
}

/// A prepared-but-undecided transaction salvaged from the WAL tail: its
/// full op payload, as durable as the prepare record that carried it.
#[derive(Debug, Clone)]
pub struct PendingPrepare {
    /// Oracle commit timestamp the transaction would land at — unique per
    /// transaction, so it is also the id its decision names.
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
    /// Prepares left undecided at the end of the valid prefix, presumed
    /// aborted locally (not applied). The sharded cluster's recovery
    /// resolves them against every shard's decisions: a commit decision
    /// found anywhere commits the prepare here too.
    pub pending: Vec<PendingPrepare>,
    /// The `gts` of every *commit* decision in this WAL's valid prefix —
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
        if let WalPayload::Decision { gts, commit: true } = item {
            decided_commits.push(gts);
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
    // Record seqs are dense and 1-based, so for a commit-only log the
    // recovered state covers exactly the checkpoint plus every replayed
    // record (see `RecoveryReport::commits` for shard logs).
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
            WalPayload::Prepare { gts, txn } => {
                self.stash.push(PendingPrepare { gts, txn });
                return Ok(());
            }
            WalPayload::Decision { gts, commit } => {
                let pos = self.stash.iter().position(|p| p.gts == gts);
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
                            "commit decision for unknown prepare {gts}"
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonical_state;
    use crate::sink::{SharedBuf, WalSink};
    use bitempo_core::fault::FaultyWriter;
    use bitempo_core::frame;
    use bitempo_dbgen::{ScaleConfig, TpchData};
    use bitempo_histgen::{generate_history, load_initial, replay, Archive, HistoryConfig};
    use bitempo_storage::DurabilityMode;

    type World = (TpchData, Archive);

    fn tiny_world() -> World {
        let data = bitempo_dbgen::generate(&ScaleConfig {
            h: 0.0004,
            seed: 0xD00D,
        });
        let hist = generate_history(
            &data,
            &HistoryConfig {
                m: 0.00012, // 120 scenario transactions
                seed: 0xFACE,
            },
        );
        (data, hist.archive)
    }

    /// A logged load on System A, the way every caller drives the loop:
    /// version 0 and its seq-0 checkpoint, the logged loop into `sink`
    /// under `mode`, then `close`. Returns the live engine and its ids, the
    /// run with the seq-0 checkpoint put first, and what `close` returned.
    fn logged_load(
        (data, archive): &World,
        sink: Box<dyn WalSink>,
        mode: DurabilityMode,
        checkpoint_every: u64,
    ) -> (
        Box<dyn BitemporalEngine>,
        Vec<TableId>,
        DurableRun,
        Result<u64>,
    ) {
        let mut engine = build_engine(SystemKind::A);
        let ids = load_initial(engine.as_mut(), data).unwrap();
        let base = Checkpoint::capture(engine.as_mut(), &ids, 0)
            .unwrap()
            .encode();
        let mut log = TxnWal::create(sink, mode).unwrap();
        let txns = &archive.transactions;
        let mut run =
            durable_replay(engine.as_mut(), &ids, txns, &mut log, checkpoint_every).unwrap();
        run.checkpoints.insert(0, base);
        let closed = log.close();
        (engine, ids, run, closed)
    }

    /// The uncrashed oracle is the production load path: version 0, the
    /// first `commits` archive transactions one per commit, a checkpoint.
    /// No WAL and no checkpoints along the way.
    fn oracle((data, archive): &World, commits: u64) -> (Box<dyn BitemporalEngine>, Vec<TableId>) {
        let mut engine = build_engine(SystemKind::A);
        let ids = load_initial(engine.as_mut(), data).unwrap();
        let prefix = Archive {
            dbgen_seed: archive.dbgen_seed,
            hist_seed: archive.hist_seed,
            transactions: archive.transactions[..commits as usize].to_vec(),
        };
        replay(engine.as_mut(), &ids, &prefix, 1).unwrap();
        engine.checkpoint();
        (engine, ids)
    }

    /// The recovered state equals that of [`oracle`] over `commits`.
    fn assert_matches_oracle(rec: &Recovered, world: &World, commits: u64) {
        let (want, want_ids) = oracle(world, commits);
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(want.as_ref(), &want_ids).unwrap()
        );
    }

    #[test]
    fn clean_run_recovers_identically() {
        let world = tiny_world();
        let tuning = TuningConfig::none().with_workers(1);
        let buf = SharedBuf::new();
        let (engine, ids, run, closed) =
            logged_load(&world, Box::new(buf.clone()), DurabilityMode::Strict, 50);
        assert!(run.crashed.is_none());
        assert_eq!(run.commits, world.1.transactions.len() as u64);
        assert_eq!(closed.unwrap(), run.commits);
        assert_eq!(run.checkpoints.len(), 1 + (run.commits / 50) as usize);

        let rec = recover(SystemKind::A, &buf.snapshot(), &run.checkpoints, &tuning).unwrap();
        assert!(rec.report.torn.is_none());
        assert_eq!(rec.report.commits, run.commits);
        assert!(rec.report.checkpoint_seq >= 50, "used a late checkpoint");
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(engine.as_ref(), &ids).unwrap()
        );
        assert_matches_oracle(&rec, &world, run.commits);
    }

    /// The commit-only log the logged loop writes, byte for byte: its
    /// CRC-32 and length for System A under `Strict` at the tiny scales.
    /// Each record is one archive body, so neither how the loop is written
    /// nor its checkpoint cadence may move these.
    #[test]
    fn commit_only_log_is_pinned() {
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        let archive = generate_history(&data, &HistoryConfig::tiny()).archive;
        let buf = SharedBuf::new();
        let (_, _, run, closed) = logged_load(
            &(data, archive),
            Box::new(buf.clone()),
            DurabilityMode::Strict,
            64,
        );
        assert!(run.crashed.is_none());
        closed.unwrap();
        let bytes = buf.snapshot();
        assert_eq!(
            (bitempo_core::crc32(&bytes), bytes.len()),
            (0xC47E_DFDE, 183_086)
        );
    }

    #[test]
    fn crash_mid_stream_recovers_the_prefix() {
        let world = tiny_world();
        let tuning = TuningConfig::none().with_workers(1);

        // Dry run to size the log, then cut it at two thirds.
        let dry = SharedBuf::new();
        logged_load(&world, Box::new(dry.clone()), DurabilityMode::Strict, 32)
            .3
            .unwrap();
        let cut = (dry.len() as u64) * 2 / 3;

        let buf = SharedBuf::new();
        let sink = Box::new(FaultyWriter::new(buf.clone(), cut));
        let (_, _, run, _) = logged_load(&world, sink, DurabilityMode::Strict, 32);
        assert!(run.crashed.is_some(), "the cut must fire");
        assert!(run.commits < world.1.transactions.len() as u64);

        let rec = recover(SystemKind::A, &buf.snapshot(), &run.checkpoints, &tuning).unwrap();
        // Strict mode: every acknowledged commit must be recovered.
        assert_eq!(rec.report.commits, run.commits);
        assert_matches_oracle(&rec, &world, rec.report.commits);
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_an_older_one() {
        let world = tiny_world();
        let tuning = TuningConfig::none().with_workers(1);
        let buf = SharedBuf::new();
        let (engine, ids, run, _) =
            logged_load(&world, Box::new(buf.clone()), DurabilityMode::Async, 40);
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
            canonical_state(engine.as_ref(), &ids).unwrap()
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
            let (_, frame) = appender.encode(&rec.payload).unwrap();
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
        let world = tiny_world();
        let tuning = TuningConfig::none().with_workers(1);

        let dry = SharedBuf::new();
        logged_load(&world, Box::new(dry.clone()), DurabilityMode::Strict, 32)
            .3
            .unwrap();

        // Cut at the boundary right after record 32 — the same commit the
        // cadence checkpoints — and two frames into record 33 (torn tail).
        for extra in [0u64, 2] {
            let cut = boundary_after(&dry.snapshot(), 32) + extra;
            let buf = SharedBuf::new();
            let sink = Box::new(FaultyWriter::new(buf.clone(), cut));
            let (_, _, run, _) = logged_load(&world, sink, DurabilityMode::Strict, 32);
            assert!(run.crashed.is_some());
            assert_eq!(run.commits, 32, "strict mode stops at the cut");

            let rec = recover(SystemKind::A, &buf.snapshot(), &run.checkpoints, &tuning).unwrap();
            assert_eq!(rec.report.checkpoint_seq, 32, "newest checkpoint wins");
            assert_eq!(rec.report.replayed, 0, "nothing may be replayed twice");
            assert_eq!(rec.report.commits, 32, "nothing may be dropped");
            assert_matches_oracle(&rec, &world, 32);
        }
    }

    /// A crash a few commits past a checkpoint replays exactly the records
    /// after the checkpoint's recorded seq — the straddling transaction is
    /// covered by the checkpoint, not double-applied from the WAL.
    #[test]
    fn recovery_replays_only_records_past_the_checkpoint_seq() {
        let world = tiny_world();
        let tuning = TuningConfig::none().with_workers(1);

        let dry = SharedBuf::new();
        logged_load(&world, Box::new(dry.clone()), DurabilityMode::Strict, 32)
            .3
            .unwrap();

        let cut = boundary_after(&dry.snapshot(), 35);
        let buf = SharedBuf::new();
        let sink = Box::new(FaultyWriter::new(buf.clone(), cut));
        let (_, _, run, _) = logged_load(&world, sink, DurabilityMode::Strict, 32);
        assert_eq!(run.commits, 35);

        let rec = recover(SystemKind::A, &buf.snapshot(), &run.checkpoints, &tuning).unwrap();
        assert_eq!(rec.report.checkpoint_seq, 32);
        assert_eq!(rec.report.replayed, 3, "records 33..=35, each exactly once");
        assert_eq!(rec.report.commits, 35);
        assert_matches_oracle(&rec, &world, 35);
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
        let (want, want_ids) = one_row_base_plus(&[2]);
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
            crate::record::encode_prepare(40, &insert_txn(5)).unwrap(),
            crate::record::encode_decision(40, true),
            UNDECODABLE.to_vec(),
            encode_txn(&insert_txn(4)).unwrap(),
        ]);
        let rec = recover(SystemKind::A, &wal, &[base], &TuningConfig::none()).unwrap();
        let reason = rec.report.unreplayable.as_deref().unwrap();
        assert!(reason.contains("record 2 failed to apply"), "got: {reason}");
        assert_eq!(rec.decided_commits, vec![40]);
        assert_eq!(rec.report.replayed, 1);
        assert_eq!(rec.report.commits, 1);
        assert_eq!(rec.report.wal_records, 6);
        assert!(rec.pending.is_empty());
        let (want, want_ids) = one_row_base_plus(&[2]);
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(want.as_ref(), &want_ids).unwrap()
        );
    }

    /// The one-row base plus `keys` inserted, one commit each.
    fn one_row_base_plus(keys: &[i64]) -> (Box<dyn BitemporalEngine>, Vec<TableId>) {
        let (mut engine, ids, _) = one_row_base();
        for &k in keys {
            let row = bitempo_engine::testutil::simple_row(k, k * 10);
            engine.insert(ids[0], row, None).unwrap();
            engine.commit();
        }
        (engine, ids)
    }

    /// A commit decision whose `gts` matches no stashed prepare truncates
    /// replay at its boundary, whether the stash is empty or holds a
    /// prepare of another `gts`: a decision resolves only its own prepare.
    #[test]
    fn commit_decision_for_an_unknown_gts_truncates_replay() {
        use crate::record::{encode_decision, encode_prepare};
        let (_, _, base) = one_row_base();
        let commit = |k| encode_txn(&insert_txn(k)).unwrap();
        for other in [None, Some(41)] {
            let mut payloads = vec![commit(2)];
            payloads.extend(other.map(|g| encode_prepare(g, &insert_txn(5)).unwrap()));
            payloads.push(encode_decision(40, true));
            payloads.push(commit(3));
            let decision_seq = payloads.len() - 1;
            let wal = log_of(&payloads);
            let checkpoints = std::slice::from_ref(&base);
            let rec = recover(SystemKind::A, &wal, checkpoints, &TuningConfig::none()).unwrap();
            let reason = rec.report.unreplayable.as_deref().unwrap();
            assert!(
                reason.contains(&format!("record {decision_seq} failed to apply")),
                "stashed {other:?}, got: {reason}"
            );
            assert_eq!(rec.report.replayed, 1, "stashed {other:?}");
            assert_eq!(rec.decided_commits, vec![40]);
            let pending: Vec<u64> = rec.pending.iter().map(|p| p.gts).collect();
            assert_eq!(
                pending,
                Vec::from_iter(other),
                "the other prepare stays undecided"
            );
            let (want, want_ids) = one_row_base_plus(&[2]);
            assert_eq!(
                canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
                canonical_state(want.as_ref(), &want_ids).unwrap(),
                "stashed {other:?}"
            );
        }
    }

    /// An abort decision for a prepare the checkpoint already covers (its
    /// label is past the prepare record) finds nothing stashed and decides
    /// nothing: replay goes on with the next record.
    #[test]
    fn abort_for_a_checkpointed_prepare_is_a_no_op() {
        use crate::record::{encode_decision, encode_prepare};
        let (mut engine, ids, _) = one_row_base();
        let covers_prepare = Checkpoint::capture(engine.as_mut(), &ids, 1)
            .unwrap()
            .encode();
        let wal = log_of(&[
            encode_prepare(40, &insert_txn(5)).unwrap(),
            encode_decision(40, false),
            encode_txn(&insert_txn(3)).unwrap(),
        ]);
        let rec = recover(
            SystemKind::A,
            &wal,
            &[covers_prepare],
            &TuningConfig::none(),
        )
        .unwrap();
        assert!(rec.report.unreplayable.is_none());
        assert_eq!(rec.report.replayed, 1);
        assert!(rec.pending.is_empty());
        assert!(rec.decided_commits.is_empty());
        let (want, want_ids) = one_row_base_plus(&[3]);
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
