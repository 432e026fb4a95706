//! The interval index: application-time stabbing over sorted endpoint
//! lists.
//!
//! Application periods, unlike system periods, are freely updatable and
//! carry no append-order structure, so the Timeline's event-log trick does
//! not apply. Instead the classic endpoint-list scheme is used: every
//! `(period, slot)` entry is kept in two orders — by period start, and by
//! period end as 4-byte positions into the first list. A timeslice probe
//! at date `d` needs entries with `start <= d` *and* `d` before the
//! period's end; each sorted list gives one of the two conditions as a
//! binary-searched prefix/suffix, and the probe scans whichever side is
//! smaller, filtering by the full containment test. Overlap probes work the same way on the
//! `starts-before-range-end` / `ends-after-range-start` pair.
//!
//! Appends are cheap (a push to the first list); probes treat the unsorted
//! tail beyond the last [`IntervalIndex::prepare`] call linearly, so
//! correctness never depends on re-sorting — only probe cost does.

use bitempo_core::{AppDate, AppPeriod};

/// One indexed entry, in 12 bytes: the period's endpoints as 32-bit days
/// (see [`day_from`] / [`day_until`]) and its partition-local slot.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: i32,
    end: i32,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 12);

/// The 32-bit day of a period start or a probed instant. Every date within
/// ±5.8 million years keeps its value; beyond, the narrowing saturates —
/// monotone, so whatever held between two dates still holds between their
/// days, and a period can only *widen*: probes keep returning a superset of
/// the matching entries, as their contract allows.
fn day_from(d: AppDate) -> i32 {
    d.0.clamp(i64::from(i32::MIN), i64::from(i32::MAX) - 1) as i32
}

/// The 32-bit day of a period end (exclusive): [`day_from`] of the last day
/// inside the period, plus one. So `d < e` implies
/// `day_from(d) < day_until(e)` even where both saturate, and
/// `AppDate::MAX` stays above every probed instant.
fn day_until(e: AppDate) -> i32 {
    e.0.clamp(i64::from(i32::MIN) + 1, i64::from(i32::MAX)) as i32
}

/// The application-time stabbing index. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct IntervalIndex {
    /// Entries; `[..sorted_len]` sorted by period start.
    by_lo: Vec<Entry>,
    /// The positions of `by_lo[..sorted_len]`, sorted by period end.
    by_hi: Vec<u32>,
    /// Length of the sorted prefix of `by_lo`.
    sorted_len: usize,
}

impl IntervalIndex {
    /// Creates an empty index.
    pub fn new() -> IntervalIndex {
        IntervalIndex::default()
    }

    /// Appends an entry. O(1); the entry lands in the unsorted tail until
    /// the next [`IntervalIndex::prepare`].
    ///
    /// # Panics
    /// If `slot` does not fit 32 bits: slots are partition-local.
    pub fn insert(&mut self, slot: u64, app: AppPeriod) {
        self.by_lo.push(Entry {
            start: day_from(app.start),
            end: day_until(app.end),
            slot: crate::narrow_slot(slot),
        });
    }

    /// Sorts the entries by period start and rebuilds the by-end positions
    /// over all of them, growing their list to exactly its length. Engines
    /// call this at quiescent points (index build, checkpoint); probes
    /// between calls scan the tail linearly.
    pub fn prepare(&mut self) {
        let n = u32::try_from(self.by_lo.len()).expect("fewer than 2^32 interval entries");
        self.by_lo.sort_unstable_by_key(|e| (e.start, e.slot));
        let by_lo = &self.by_lo;
        self.by_hi.clear();
        self.by_hi.reserve_exact(n as usize);
        self.by_hi.extend(0..n);
        self.by_hi.sort_unstable_by_key(|&i| {
            let e = by_lo[i as usize];
            (e.end, e.slot)
        });
        self.sorted_len = by_lo.len();
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.by_lo.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.by_lo.is_empty()
    }

    /// Pre-sizes the entry list for `entries` more entries.
    pub fn reserve(&mut self, entries: usize) {
        self.by_lo.reserve(entries);
    }

    /// Releases spare capacity; worth calling once a bulk build is done.
    pub fn shrink_to_fit(&mut self) {
        self.by_lo.shrink_to_fit();
        self.by_hi.shrink_to_fit();
    }

    /// Resident bytes of both endpoint lists, counting allocated capacity
    /// rather than length.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.by_lo.capacity() * size_of::<Entry>() + self.by_hi.capacity() * size_of::<u32>())
            as u64
    }

    /// Slots whose period contains `d`, sorted ascending.
    pub fn stab(&self, d: AppDate, cost: &mut crate::ProbeCost) -> Vec<u64> {
        let d = day_from(d);
        self.probe(|e| e.start <= d && d < e.end, d, d, cost)
    }

    /// Slots whose period overlaps `range`, sorted ascending.
    pub fn overlapping(&self, range: &AppPeriod, cost: &mut crate::ProbeCost) -> Vec<u64> {
        let (from, until) = (day_from(range.start), day_until(range.end));
        self.probe(|e| e.start < until && from < e.end, until - 1, from, cost)
    }

    /// Upper bound on [`IntervalIndex::stab`] output size.
    pub fn estimate_stab(&self, d: AppDate) -> usize {
        let d = day_from(d);
        self.estimate(d, d)
    }

    /// Upper bound on [`IntervalIndex::overlapping`] output size.
    pub fn estimate_overlapping(&self, range: &AppPeriod) -> usize {
        self.estimate(day_until(range.end) - 1, day_from(range.start))
    }

    /// How many sorted entries start at or before `last`, and how many end
    /// at or before `first`: an entry beyond the one or within the other
    /// cannot reach into `[first, last]`.
    fn sorted_sides(&self, last: i32, first: i32) -> (usize, usize) {
        let s = self.sorted_len;
        (
            self.by_lo[..s].partition_point(|e| e.start <= last),
            self.by_hi
                .partition_point(|&i| self.by_lo[i as usize].end <= first),
        )
    }

    fn estimate(&self, last: i32, first: i32) -> usize {
        let s = self.sorted_len;
        let (p, q) = self.sorted_sides(last, first);
        p.min(s - q) + (self.by_lo.len() - s)
    }

    /// Shared probe skeleton for the days `[first, last]`: pick the cheaper
    /// endpoint-list side for the sorted prefix, filter candidates by the
    /// authoritative `matches` test, then walk the unsorted tail.
    fn probe(
        &self,
        matches: impl Fn(&Entry) -> bool,
        last: i32,
        first: i32,
        cost: &mut crate::ProbeCost,
    ) -> Vec<u64> {
        let s = self.sorted_len;
        let (p, q) = self.sorted_sides(last, first);
        let mut out = Vec::new();
        let mut visit = |e: &Entry| {
            cost.node_visits += 1;
            if matches(e) {
                out.push(u64::from(e.slot));
            }
        };
        if p <= s - q {
            self.by_lo[..p].iter().for_each(&mut visit);
        } else {
            let ends = self.by_hi[q..].iter();
            ends.for_each(|&i| visit(&self.by_lo[i as usize]));
        }
        self.by_lo[s..].iter().for_each(visit);
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::Period;
    use proptest::prelude::*;

    fn p(a: i64, b: i64) -> AppPeriod {
        Period::new(AppDate(a), AppDate(b))
    }

    fn sample() -> Vec<(u64, AppPeriod)> {
        vec![
            (0, p(0, 10)),
            (1, p(5, 15)),
            (2, p(10, 20)),
            (3, AppPeriod::ALL),
            (4, p(12, 13)),
            (5, AppPeriod::since(AppDate(18))),
        ]
    }

    fn build(entries: &[(u64, AppPeriod)], prepared: bool) -> IntervalIndex {
        let mut ix = IntervalIndex::new();
        for &(slot, period) in entries {
            ix.insert(slot, period);
        }
        if prepared {
            ix.prepare();
        }
        ix
    }

    #[test]
    fn stab_matches_oracle_prepared_and_not() {
        let entries = sample();
        for prepared in [false, true] {
            let ix = build(&entries, prepared);
            for d in -2..25i64 {
                let mut cost = crate::ProbeCost::default();
                let got = ix.stab(AppDate(d), &mut cost);
                let mut want: Vec<u64> = entries
                    .iter()
                    .filter(|(_, per)| per.contains_point(AppDate(d)))
                    .map(|&(slot, _)| slot)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "stab({d}), prepared={prepared}");
            }
        }
    }

    #[test]
    fn overlap_matches_oracle() {
        let entries = sample();
        let ix = build(&entries, true);
        for (a, b) in [(0, 5), (9, 11), (13, 18), (20, 30), (7, 7)] {
            let range = p(a, b);
            let mut cost = crate::ProbeCost::default();
            let got = ix.overlapping(&range, &mut cost);
            let mut want: Vec<u64> = entries
                .iter()
                .filter(|(_, per)| per.overlaps(&range))
                .map(|&(slot, _)| slot)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "overlap([{a}, {b}))");
        }
    }

    /// The slot guard at its exact bound: the largest 32-bit slot indexes
    /// and stabs back from both endpoint lists; one more is refused before
    /// the index changes.
    #[test]
    fn slots_fit_32_bits() {
        let max = u64::from(u32::MAX);
        let mut ix = build(&[(max, p(0, 10))], true);
        for d in [0, 9] {
            assert_eq!(
                ix.stab(AppDate(d), &mut crate::ProbeCost::default()),
                vec![max]
            );
        }
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ix.insert(max + 1, p(0, 10));
        }));
        let message = *refused.unwrap_err().downcast::<String>().unwrap();
        assert!(
            message.contains("partition-local slots fit 32 bits"),
            "{message}"
        );
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn half_open_boundary_is_exact() {
        let ix = build(&[(0, p(5, 10))], true);
        let mut cost = crate::ProbeCost::default();
        assert!(ix.stab(AppDate(4), &mut cost).is_empty());
        assert_eq!(ix.stab(AppDate(5), &mut cost), vec![0]);
        assert_eq!(ix.stab(AppDate(9), &mut cost), vec![0]);
        assert!(
            ix.stab(AppDate(10), &mut cost).is_empty(),
            "the end of a half-open period is excluded"
        );
    }

    #[test]
    fn probe_scans_cheaper_endpoint_side() {
        // 100 periods all starting at 0, ending staggered: a stab late in
        // time should scan the short ends-after suffix, not the full
        // starts-before prefix.
        let entries: Vec<(u64, AppPeriod)> = (0..100).map(|i| (i, p(0, 1 + i as i64))).collect();
        let ix = build(&entries, true);
        let mut cost = crate::ProbeCost::default();
        let got = ix.stab(AppDate(95), &mut cost);
        assert_eq!(got.len(), 5);
        assert!(
            cost.node_visits <= 10,
            "visits {} should track the small side",
            cost.node_visits
        );
    }

    /// Endpoints around everything the 32-bit days treat specially: the
    /// `AppDate` sentinels, the edges of `i32`, and far beyond them — over a
    /// small everyday domain, so degenerate `[s, s)` periods are common.
    fn endpoint() -> impl Strategy<Value = i64> {
        let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
        prop_oneof![
            -3i64..12,
            -3i64..12,
            -3i64..12,
            prop_oneof![
                Just(i64::MIN),
                Just(i64::MAX),
                Just(-(1 << 40)),
                Just(1 << 40)
            ],
            (lo - 2)..(lo + 3),
            (hi - 2)..(hi + 3),
        ]
    }

    proptest! {
        /// The packed index against a per-entry oracle on the unpacked
        /// periods. Always a superset; and exact wherever the narrowing is:
        /// a false positive needs a period start past `i32::MAX - 1`, a
        /// period end below `i32::MIN + 1`, or a probe beyond those.
        #[test]
        fn packed_entries_answer_like_the_per_entry_oracle(
            ends in proptest::collection::vec((endpoint(), endpoint()), 1..40),
            probes in proptest::collection::vec((endpoint(), endpoint()), 1..12),
            sorted in 0usize..40,
        ) {
            let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
            let entries: Vec<(u64, AppPeriod)> = ends
                .iter()
                .enumerate()
                .map(|(slot, &(a, b))| (slot as u64, p(a.min(b), a.max(b))))
                .collect();
            let mut ix = IntervalIndex::new();
            for (i, &(slot, period)) in entries.iter().enumerate() {
                if i == sorted {
                    ix.prepare();
                }
                ix.insert(slot, period);
            }
            let narrowed = |per: &AppPeriod| per.start.0 > hi - 1 || per.end.0 < lo + 1;
            let check = |got: Vec<u64>, exact_probe: bool, want: &dyn Fn(&AppPeriod) -> bool| {
                for &(slot, per) in &entries {
                    let (got, want) = (got.contains(&slot), want(&per));
                    if got != want && (want || (exact_probe && !narrowed(&per))) {
                        return Err(TestCaseError::fail(format!("slot {slot} {per}: got {got}")));
                    }
                }
                Ok(())
            };
            for &(a, b) in &probes {
                let mut cost = crate::ProbeCost::default();
                let d = AppDate(a);
                prop_assert!(ix.estimate_stab(d) >= ix.stab(d, &mut cost).len());
                check(ix.stab(d, &mut cost), (lo..hi).contains(&a), &|per| per.contains_point(d))?;
                let range = p(a.min(b), a.max(b));
                let exact = (lo..hi).contains(&range.start.0) && (lo + 1..=hi).contains(&range.end.0);
                prop_assert!(
                    ix.estimate_overlapping(&range) >= ix.overlapping(&range, &mut cost).len()
                );
                check(ix.overlapping(&range, &mut cost), exact, &|per| per.overlaps(&range))?;
            }
        }
    }

    #[test]
    fn estimates_bound_results() {
        let entries = sample();
        let ix = build(&entries, true);
        for d in [0i64, 7, 12, 19, 40] {
            let mut cost = crate::ProbeCost::default();
            assert!(ix.estimate_stab(AppDate(d)) >= ix.stab(AppDate(d), &mut cost).len());
        }
        let r = p(8, 14);
        let mut cost = crate::ProbeCost::default();
        assert!(ix.estimate_overlapping(&r) >= ix.overlapping(&r, &mut cost).len());
        assert!(ix.memory_bytes() > 0);
        assert_eq!(ix.len(), entries.len());
        assert!(!ix.is_empty());
    }
}
