//! The interval index: application-time stabbing over sorted endpoint
//! lists.
//!
//! Application periods, unlike system periods, are freely updatable and
//! carry no append-order structure, so the Timeline's event-log trick does
//! not apply. Instead the classic endpoint-list scheme is used: every
//! `(period, slot)` entry is kept in two orders — by period start and by
//! period end. A timeslice probe at date `d` needs entries with
//! `start <= d` *and* `d` before the period's end; each sorted list gives
//! one of the two conditions as a binary-searched prefix/suffix, and the
//! probe scans whichever side is smaller, filtering by the full
//! containment test. Overlap probes work the same way on the
//! `starts-before-range-end` / `ends-after-range-start` pair.
//!
//! Appends are cheap (push to both lists); probes treat the unsorted tail
//! beyond the last [`IntervalIndex::prepare`] call linearly, so
//! correctness never depends on re-sorting — only probe cost does.

use bitempo_core::{AppDate, AppPeriod};

/// One indexed entry: an application period and its partition-local slot.
type Entry = (AppPeriod, u64);

/// The application-time stabbing index. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct IntervalIndex {
    /// Entries; `[..sorted_len]` sorted by period start.
    by_lo: Vec<Entry>,
    /// The same entries; `[..sorted_len]` sorted by period end.
    by_hi: Vec<Entry>,
    /// Length of the sorted prefix in both lists.
    sorted_len: usize,
}

impl IntervalIndex {
    /// Creates an empty index.
    pub fn new() -> IntervalIndex {
        IntervalIndex::default()
    }

    /// Appends an entry. O(1); the entry lands in the unsorted tail until
    /// the next [`IntervalIndex::prepare`].
    pub fn insert(&mut self, slot: u64, app: AppPeriod) {
        self.by_lo.push((app, slot));
        self.by_hi.push((app, slot));
    }

    /// Sorts both endpoint lists. Engines call this at quiescent points
    /// (index build, checkpoint); probes between calls scan the tail
    /// linearly.
    pub fn prepare(&mut self) {
        self.by_lo.sort_unstable_by_key(|e| (e.0.start, e.1));
        self.by_hi.sort_unstable_by_key(|e| (e.0.end, e.1));
        self.sorted_len = self.by_lo.len();
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.by_lo.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.by_lo.is_empty()
    }

    /// Pre-sizes both endpoint lists for `entries` more entries.
    pub fn reserve(&mut self, entries: usize) {
        self.by_lo.reserve(entries);
        self.by_hi.reserve(entries);
    }

    /// Releases spare capacity; worth calling once a bulk build is done.
    pub fn shrink_to_fit(&mut self) {
        self.by_lo.shrink_to_fit();
        self.by_hi.shrink_to_fit();
    }

    /// Resident bytes of both endpoint lists, counting allocated capacity
    /// rather than length.
    pub fn memory_bytes(&self) -> u64 {
        ((self.by_lo.capacity() + self.by_hi.capacity()) * std::mem::size_of::<Entry>()) as u64
    }

    /// Slots whose period contains `d`, sorted ascending.
    pub fn stab(&self, d: AppDate, cost: &mut crate::ProbeCost) -> Vec<u64> {
        self.probe(
            |p| p.contains_point(d),
            // Entries whose period starts after `d` cannot contain it.
            |list| list.partition_point(|e| e.0.start <= d),
            // Entries whose period ends at or before `d` cannot contain it
            // (half-open: the end itself is excluded).
            |list| list.partition_point(|e| e.0.end <= d),
            cost,
        )
    }

    /// Slots whose period overlaps `range`, sorted ascending.
    pub fn overlapping(&self, range: &AppPeriod, cost: &mut crate::ProbeCost) -> Vec<u64> {
        self.probe(
            |p| p.overlaps(range),
            |list| list.partition_point(|e| e.0.start < range.end),
            |list| list.partition_point(|e| e.0.end <= range.start),
            cost,
        )
    }

    /// Upper bound on [`IntervalIndex::stab`] output size.
    pub fn estimate_stab(&self, d: AppDate) -> usize {
        let s = self.sorted_len;
        let lo = self.by_lo[..s].partition_point(|e| e.0.start <= d);
        let hi = s - self.by_hi[..s].partition_point(|e| e.0.end <= d);
        lo.min(hi) + (self.by_lo.len() - s)
    }

    /// Upper bound on [`IntervalIndex::overlapping`] output size.
    pub fn estimate_overlapping(&self, range: &AppPeriod) -> usize {
        let s = self.sorted_len;
        let lo = self.by_lo[..s].partition_point(|e| e.0.start < range.end);
        let hi = s - self.by_hi[..s].partition_point(|e| e.0.end <= range.start);
        lo.min(hi) + (self.by_lo.len() - s)
    }

    /// Shared probe skeleton: pick the cheaper endpoint-list side for the
    /// sorted prefix, filter candidates by the authoritative `matches`
    /// test, then walk the unsorted tail.
    fn probe(
        &self,
        matches: impl Fn(&AppPeriod) -> bool,
        lo_prefix: impl Fn(&[Entry]) -> usize,
        hi_prefix: impl Fn(&[Entry]) -> usize,
        cost: &mut crate::ProbeCost,
    ) -> Vec<u64> {
        let s = self.sorted_len;
        let sorted_lo = &self.by_lo[..s];
        let sorted_hi = &self.by_hi[..s];
        let p = lo_prefix(sorted_lo);
        let q = hi_prefix(sorted_hi);
        let candidates: &[Entry] = if p <= s - q {
            &sorted_lo[..p]
        } else {
            &sorted_hi[q..]
        };
        let mut out = Vec::new();
        for (period, slot) in candidates {
            cost.node_visits += 1;
            if matches(period) {
                out.push(*slot);
            }
        }
        for (period, slot) in &self.by_lo[s..] {
            cost.node_visits += 1;
            if matches(period) {
                out.push(*slot);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::Period;

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
