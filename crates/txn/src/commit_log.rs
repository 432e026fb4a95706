//! The first-committer-wins log: what recent commits wrote, and which
//! snapshots may still need to be validated against them.
//!
//! A [`crate::TxnManager`] holds one (timestamps are its engine's commit
//! times) and a sharded cluster holds one (timestamps are oracle-issued);
//! both keep it behind a single mutex. The rule is written once, here: a
//! committer pinned at `pin` conflicts with a logged commit newer than
//! `pin` that wrote the same table and key over an overlapping application
//! period.

use bitempo_core::{AppPeriod, Key, SysTime};
use std::collections::BTreeMap;

/// One write-set entry: the unit of first-committer-wins validation.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteEntry {
    /// Table index (the archive's load-order index, as in
    /// [`bitempo_histgen::Op`]).
    pub table: u8,
    /// Primary key touched.
    pub key: Key,
    /// Application-period range touched; two entries on the same key
    /// conflict only when these overlap (disjoint `FOR PORTION OF` writes
    /// to one key are serializable as-is).
    pub app: AppPeriod,
}

/// Commit records newer than the oldest active pin, plus the pin registry
/// that decides how far the records can be pruned.
#[derive(Debug, Default)]
pub struct CommitLog {
    /// Ascending by timestamp — [`Self::insert`] keeps it so, and
    /// [`Self::first_conflict`]'s early exit depends on it.
    entries: Vec<(SysTime, Vec<WriteEntry>)>,
    /// `pin -> count` of open transactions pinned there.
    pins: BTreeMap<SysTime, usize>,
}

impl CommitLog {
    /// Registers a snapshot pinned at `at`. The caller must read `at` and
    /// call this without releasing whatever excludes a concurrent
    /// [`Self::prune`], or a commit could prune past the pin in between.
    pub fn pin(&mut self, at: SysTime) {
        *self.pins.entry(at).or_insert(0) += 1;
    }

    /// Releases one pin registered at `at`. Releasing a pin that is not
    /// registered (a double release) is a caller bug: debug builds panic.
    pub fn unpin(&mut self, at: SysTime) {
        let n = self.pins.get_mut(&at);
        debug_assert!(n.is_some(), "unpin of an unregistered pin at {at}");
        if let Some(n) = n {
            *n -= 1;
            if *n == 0 {
                self.pins.remove(&at);
            }
        }
    }

    /// Number of registered pins.
    pub fn active_pins(&self) -> usize {
        self.pins.values().sum()
    }

    /// Timestamps of the retained commit records, ascending.
    pub fn timestamps(&self) -> impl Iterator<Item = SysTime> + '_ {
        self.entries.iter().map(|(ts, _)| *ts)
    }

    /// The newest logged write that conflicts with `writes` for a
    /// committer pinned at `pin`, with its commit timestamp.
    pub fn first_conflict(
        &self,
        pin: SysTime,
        writes: &[WriteEntry],
    ) -> Option<(SysTime, &WriteEntry)> {
        debug_assert!(
            self.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "commit log must be strictly ascending for the early exit below"
        );
        self.entries
            .iter()
            .rev()
            .take_while(|(ts, _)| *ts > pin)
            .find_map(|(ts, theirs)| {
                theirs
                    .iter()
                    .find(|t| {
                        writes.iter().any(|ours| {
                            t.table == ours.table && t.key == ours.key && t.app.overlaps(&ours.app)
                        })
                    })
                    .map(|t| (*ts, t))
            })
    }

    /// Records the write set committed at `ts`. A sorted insert, not a
    /// push: commits on disjoint shards publish out of timestamp order.
    pub fn insert(&mut self, ts: SysTime, writes: Vec<WriteEntry>) {
        let at = self.entries.partition_point(|(t, _)| *t < ts);
        self.entries.insert(at, (ts, writes));
    }

    /// Drops the records no snapshot can still conflict with: those at or
    /// below the oldest pin, or at or below `idle_floor` when nothing is
    /// pinned. `idle_floor` must be a timestamp no future pin can fall
    /// below — a manager's own newest commit, a cluster's read watermark
    /// (*not* the timestamp just published, which may be ahead of it).
    pub fn prune(&mut self, idle_floor: SysTime) {
        let floor = self.pins.keys().next().copied().unwrap_or(idle_floor);
        let keep_from = self.entries.partition_point(|(ts, _)| *ts <= floor);
        self.entries.drain(..keep_from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn w(key: i64) -> Vec<WriteEntry> {
        vec![WriteEntry {
            table: 0,
            key: Key::int(key),
            app: AppPeriod::ALL,
        }]
    }

    fn stamps(log: &CommitLog) -> Vec<u64> {
        log.timestamps().map(|ts| ts.0).collect()
    }

    /// PR 10 race 1 at the type level: the newest of three in-flight
    /// commits publishes first. Append order would be [7, 5]; a snapshot
    /// pinned at 5 must still reach 7's write through the early exit.
    #[test]
    fn newest_publishes_first_keeps_the_log_ascending() {
        let mut log = CommitLog::default();
        log.pin(SysTime(4));
        log.insert(SysTime(7), w(1));
        log.insert(SysTime(5), Vec::new());
        assert_eq!(stamps(&log), vec![5, 7]);
        let hit = log.first_conflict(SysTime(5), &w(1));
        assert_eq!(hit.map(|(ts, _)| ts), Some(SysTime(7)));
        assert!(log.first_conflict(SysTime(7), &w(1)).is_none());
    }

    /// PR 10 race 2 at the type level: with an older commit still in
    /// flight the watermark sits below the published timestamp, and the
    /// record must outlive the prune for transactions that pin there.
    #[test]
    fn prune_floors_at_the_oldest_pin_else_the_idle_floor() {
        let mut log = CommitLog::default();
        log.insert(SysTime(6), w(1));
        log.prune(SysTime(4)); // watermark 4 < published 6
        assert_eq!(stamps(&log), vec![6], "never floors at the published ts");

        log.pin(SysTime(5));
        log.insert(SysTime(7), w(2));
        log.prune(SysTime(7));
        assert_eq!(stamps(&log), vec![6, 7], "the oldest pin wins over idle");

        log.unpin(SysTime(5));
        assert_eq!(log.active_pins(), 0);
        log.prune(SysTime(6));
        assert_eq!(stamps(&log), vec![7]);
        log.prune(SysTime(7));
        assert!(stamps(&log).is_empty());
    }

    /// A double release would silently lower the pruning floor's
    /// population; the log refuses it where it can tell.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unpin of an unregistered pin")]
    fn unpinning_an_unregistered_pin_panics_in_debug_builds() {
        let mut log = CommitLog::default();
        log.pin(SysTime(3));
        log.unpin(SysTime(3));
        log.unpin(SysTime(3));
    }

    #[test]
    fn disjoint_portions_and_other_tables_do_not_conflict() {
        use bitempo_core::AppDate;
        let entry = |table, lo, hi| WriteEntry {
            table,
            key: Key::int(1),
            app: AppPeriod::new(AppDate(lo), AppDate(hi)),
        };
        let mut log = CommitLog::default();
        log.insert(SysTime(2), vec![entry(0, 0, 10)]);
        assert!(log
            .first_conflict(SysTime(1), &[entry(0, 10, 20)])
            .is_none());
        assert!(log.first_conflict(SysTime(1), &[entry(1, 0, 10)]).is_none());
        assert!(log.first_conflict(SysTime(1), &[entry(0, 9, 11)]).is_some());
    }

    /// One step of a random schedule over a small key/timestamp space.
    #[derive(Debug, Clone)]
    enum Step {
        Insert(u64, Vec<i64>),
        Pin(u64),
        UnpinOldest,
        Prune(u64),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (1u64..40, proptest::collection::vec(0i64..6, 0..4))
                .prop_map(|(ts, keys)| Step::Insert(ts, keys)),
            (0u64..40).prop_map(Step::Pin),
            Just(Step::UnpinOldest),
            (0u64..40).prop_map(Step::Prune),
        ]
    }

    proptest! {
        /// `first_conflict` agrees with a naive all-pairs scan over every
        /// record the pin registry still protects, whatever the publish
        /// order, and pruning never drops a record a live pin can reach.
        #[test]
        fn first_conflict_matches_a_naive_scan(
            steps in proptest::collection::vec(arb_step(), 1..40),
            probe_keys in proptest::collection::vec(0i64..6, 1..3),
        ) {
            let mut log = CommitLog::default();
            // The model: every record ever inserted, never pruned.
            let mut all: Vec<(u64, Vec<i64>)> = Vec::new();
            // Highest floor any prune has used: pins below it are no
            // longer protected, exactly as in the real protocol (a pin is
            // always taken at or above the current idle floor).
            let mut pruned_to = 0u64;
            for step in steps {
                match step {
                    Step::Insert(ts, keys) => {
                        if all.iter().any(|(t, _)| *t == ts) || ts <= pruned_to {
                            continue; // timestamps are unique and never reissued
                        }
                        let writes = keys.iter().flat_map(|k| w(*k)).collect();
                        log.insert(SysTime(ts), writes);
                        all.push((ts, keys));
                    }
                    Step::Pin(at) => {
                        if at >= pruned_to {
                            log.pin(SysTime(at));
                        }
                    }
                    Step::UnpinOldest => {
                        if let Some(at) = log.pins.keys().next().copied() {
                            log.unpin(at);
                        }
                    }
                    Step::Prune(idle) => {
                        let floor = log.pins.keys().next().map_or(idle, |p| p.0);
                        pruned_to = pruned_to.max(floor);
                        log.prune(SysTime(idle));
                    }
                }
                prop_assert!(log.entries.windows(2).all(|p| p[0].0 < p[1].0));
                // Probe from every live pin (and from the prune floor).
                let probes: Vec<u64> = log.pins.keys().map(|p| p.0).chain([pruned_to]).collect();
                let ours: Vec<WriteEntry> = probe_keys.iter().flat_map(|k| w(*k)).collect();
                for pin in probes {
                    let naive = all.iter().any(|(ts, keys)| {
                        *ts > pin && keys.iter().any(|k| probe_keys.contains(k))
                    });
                    prop_assert_eq!(
                        log.first_conflict(SysTime(pin), &ours).is_some(),
                        naive,
                        "pin {} after floor {}", pin, pruned_to
                    );
                }
            }
        }
    }
}
