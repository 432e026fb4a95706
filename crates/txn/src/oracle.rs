//! The commit-timestamp oracle of a sharded [`crate::TxnManager`].
//!
//! Every committing cluster transaction draws one timestamp here, and every
//! shard it touches commits at *exactly* that timestamp (the engines'
//! `advance_clock` seam) — so shard-local system time and global time are
//! the same axis, and a cross-shard snapshot is just "every shard `AS OF t`"
//! for one `t`.
//!
//! The subtlety is which `t` is safe to read at. A timestamp is *issued*
//! before the commit starts landing on its shards; reading at an issued but
//! unpublished timestamp could observe a transaction on one shard and miss
//! it on another. The oracle therefore publishes a **read watermark**: the
//! largest timestamp `w` such that every commit at or below `w` has fully
//! published (or aborted). Readers snapshot at the watermark, so the cut
//! they see is always a prefix of the global commit order — the same
//! guarantee a single engine's commit counter gives for free.

use bitempo_core::SysTime;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// State behind the oracle's mutex: the issue counter plus the set of
/// issued-but-unresolved timestamps.
struct OracleState {
    /// Next timestamp to issue.
    next: u64,
    /// Issued timestamps whose commits have not yet published or aborted.
    in_flight: BTreeSet<u64>,
}

/// Issues globally unique, strictly ascending commit timestamps and tracks
/// the read watermark. See the module docs for the model.
pub struct CommitOracle {
    state: Mutex<OracleState>,
    /// The published read watermark, cached outside the mutex so readers
    /// never contend with committers. Only ever written under `state`'s
    /// lock, so it advances monotonically.
    watermark: AtomicU64,
}

impl CommitOracle {
    /// Creates an oracle whose first issued timestamp is `now + 1` and
    /// whose initial watermark is `now` — the commit clock all shards
    /// started from (they share one base checkpoint).
    pub fn new(now: SysTime) -> CommitOracle {
        CommitOracle {
            state: Mutex::new(OracleState {
                next: now.0 + 1,
                in_flight: BTreeSet::new(),
            }),
            watermark: AtomicU64::new(now.0),
        }
    }

    /// Issues the next commit timestamp and registers it in flight. The
    /// caller must resolve it with exactly one of [`Self::publish`] or
    /// [`Self::abort`], or the watermark stalls forever.
    pub fn begin_commit(&self) -> u64 {
        let mut st = self.state.lock().expect("oracle state poisoned");
        let ts = st.next;
        st.next += 1;
        st.in_flight.insert(ts);
        ts
    }

    /// Marks `ts` fully published on every shard it touched and advances
    /// the watermark as far as the remaining in-flight set allows.
    pub fn publish(&self, ts: u64) {
        self.resolve(ts);
    }

    /// Marks `ts` abandoned; its slot never blocks the watermark. The
    /// timestamp is burned, not reused — uniqueness is what lets `gts`
    /// identify a transaction in its prepare and decision records.
    pub fn abort(&self, ts: u64) {
        self.resolve(ts);
    }

    fn resolve(&self, ts: u64) {
        let mut st = self.state.lock().expect("oracle state poisoned");
        let removed = st.in_flight.remove(&ts);
        debug_assert!(removed, "timestamp {ts} resolved twice or never issued");
        let new_mark = match st.in_flight.first() {
            Some(&oldest) => oldest - 1,
            None => st.next - 1,
        };
        // Monotonic by construction: the oldest in-flight timestamp only
        // grows, and `next` never shrinks. `fetch_max` (still under the
        // lock) keeps two resolves from racing each other backwards.
        let prev = self.watermark.fetch_max(new_mark, Ordering::Release);
        debug_assert!(new_mark >= prev, "watermark moved backwards");
    }

    /// The read watermark: the newest timestamp at which a cross-shard
    /// snapshot is a consistent prefix of the global commit order.
    pub fn read_ts(&self) -> SysTime {
        SysTime(self.watermark.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_unique_and_ascending() {
        let o = CommitOracle::new(SysTime(5));
        let a = o.begin_commit();
        let b = o.begin_commit();
        assert_eq!((a, b), (6, 7));
        assert_eq!(o.read_ts(), SysTime(5), "nothing published yet");
    }

    #[test]
    fn watermark_waits_for_the_oldest_in_flight_commit() {
        let o = CommitOracle::new(SysTime(0));
        let a = o.begin_commit(); // 1
        let b = o.begin_commit(); // 2
        o.publish(b);
        assert_eq!(o.read_ts(), SysTime(0), "1 still in flight holds it back");
        o.publish(a);
        assert_eq!(o.read_ts(), SysTime(2), "both published");
    }

    #[test]
    fn aborts_release_the_watermark_like_publishes() {
        let o = CommitOracle::new(SysTime(0));
        let a = o.begin_commit(); // 1
        let b = o.begin_commit(); // 2
        o.abort(a);
        assert_eq!(o.read_ts(), SysTime(1), "abort of 1 unblocks up to 2's gap");
        o.publish(b);
        assert_eq!(o.read_ts(), SysTime(2));
        // The aborted slot is burned: the next issue skips past it.
        assert_eq!(o.begin_commit(), 3);
    }
}
