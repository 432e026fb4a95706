//! # bitempo-tindex
//!
//! The temporal index the 2014 systems did not have.
//!
//! The paper's central architectural observation is that every benchmarked
//! system stores versions in *statically partitioned regular tables* and
//! leans on conventional B-Tree/GiST indexes, so system-time travel
//! degrades linearly with history size (Figs 3, 9, 10). This crate supplies
//! the missing structure, in two halves over the common period model of
//! `bitempo-core`:
//!
//! * [`Timeline`] — a system-time visibility index: an append-only log of
//!   *activation* / *invalidation* events with amortised **checkpoint
//!   version-sets**, so "which slots are visible at system version S" is
//!   answered from the nearest set plus a bounded event replay instead of
//!   a scan over the full history, in space linear in the log.
//! * [`IntervalIndex`] — an application-time stabbing structure over sorted
//!   endpoint lists, answering timeslice (`AS OF` a date) and overlap
//!   (`BETWEEN` two dates) probes without touching every stored period.
//!
//! [`TemporalIndex`] bundles both over one storage partition. Probes return
//! **candidate supersets**: every slot whose version can match the temporal
//! constraint is returned, possibly with false positives (degenerate
//! `[s, s)` periods, reused slots). Callers re-check the authoritative
//! period on each candidate, which keeps the index sound by construction —
//! the engines' scan postconditions never depend on index precision.
//!
//! Everything here is deterministic: probes visit entries in slot/time
//! order and results are returned sorted by slot, so indexed scans produce
//! rows in exactly the order a sequential scan of the same slots would.

pub mod interval;
pub mod timeline;

pub use interval::IntervalIndex;
pub use timeline::{Event, EventKind, Timeline};

use bitempo_core::{AppDate, AppPeriod, SysPeriod, SysTime};

/// Work counters accumulated by index probes, reported through
/// `ScanMetrics` so benchmark rows distinguish "index probed" from "index
/// helped".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCost {
    /// Internal entries examined: replayed timeline events, restored
    /// version-set members, and endpoint-list entries scanned.
    pub node_visits: u64,
}

/// A system-time probe, mirroring the engine's `SysSpec` without depending
/// on the engine crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysProbe {
    /// Slots visible at one system version (`AS OF SYSTEM TIME`).
    At(SysTime),
    /// Slots whose system period overlaps a range.
    During(SysPeriod),
    /// Slots never invalidated (the implicit current snapshot).
    CurrentOnly,
}

/// An application-time probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppProbe {
    /// Slots whose application period contains a date.
    At(AppDate),
    /// Slots whose application period overlaps a range.
    During(AppPeriod),
}

/// Size and maintenance footprint of one [`TemporalIndex`], reported in the
/// `temporal-index` benchmark so probe-time wins are never shown without
/// their memory cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexFootprint {
    /// Resident bytes, by allocated capacity: event log, marks,
    /// version-sets, segment bounds, live mirror and both endpoint lists.
    pub bytes: u64,
    /// Timeline events recorded.
    pub events: u64,
    /// Timeline marks placed (one per `checkpoint_every` events).
    pub marks: u64,
    /// Checkpoint version-sets materialized.
    pub sets: u64,
    /// Slots held across those version-sets.
    pub set_slots: u64,
}

impl IndexFootprint {
    /// Component-wise sum, for aggregating per-table footprints.
    #[must_use]
    pub fn merged(self, other: IndexFootprint) -> IndexFootprint {
        IndexFootprint {
            bytes: self.bytes + other.bytes,
            events: self.events + other.events,
            marks: self.marks + other.marks,
            sets: self.sets + other.sets,
            set_slots: self.set_slots + other.set_slots,
        }
    }
}

/// Both temporal dimensions indexed over one storage partition.
///
/// Slots are partition-local row identifiers (the same `u64`s the engines'
/// `OrderedIndex`/`GistIndex` store). Maintenance mirrors the version
/// lifecycle: [`TemporalIndex::insert`] when a version is stored,
/// [`TemporalIndex::close`] when its system period is terminated in place,
/// and [`TemporalIndex::prepare`] at quiescent points (tuning, checkpoint)
/// to re-sort endpoint lists after out-of-order bulk loads.
#[derive(Debug, Default, Clone)]
pub struct TemporalIndex {
    name: String,
    timeline: Timeline,
    intervals: IntervalIndex,
}

impl TemporalIndex {
    /// Creates an empty index. `checkpoint_every` is the timeline's mark
    /// spacing: the unit of its event replay per probe and of the log
    /// prefixes a checkpoint version-set can be cut at.
    pub fn new(name: impl Into<String>, checkpoint_every: usize) -> TemporalIndex {
        TemporalIndex {
            name: name.into(),
            timeline: Timeline::new(checkpoint_every),
            intervals: IntervalIndex::new(),
        }
    }

    /// Bulk-builds an index over `(slot, application period, system
    /// period)` versions, inserted in iteration order: sized once from the
    /// iterator's lower bound, endpoint lists sorted once, spare capacity
    /// released.
    pub fn build(
        name: impl Into<String>,
        checkpoint_every: usize,
        versions: impl Iterator<Item = (u64, AppPeriod, SysPeriod)>,
    ) -> TemporalIndex {
        let mut tix = TemporalIndex::new(name, checkpoint_every);
        let expected = versions.size_hint().0;
        tix.timeline.reserve(expected);
        tix.intervals.reserve(expected);
        for (slot, app, sys) in versions {
            tix.insert(slot, app, sys);
        }
        tix.prepare();
        tix.timeline.shrink_to_fit();
        tix.intervals.shrink_to_fit();
        tix
    }

    /// The index name, as surfaced in access-path displays.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records a stored version: an activation at `sys.start`, an
    /// invalidation at `sys.end` if the period is already closed, and the
    /// application period in the interval index.
    pub fn insert(&mut self, slot: u64, app: AppPeriod, sys: SysPeriod) {
        self.timeline.activate(slot, sys.start);
        if !sys.is_current() {
            self.timeline.invalidate(slot, sys.end);
        }
        self.intervals.insert(slot, app);
    }

    /// Records the in-place termination of `slot`'s system period.
    pub fn close(&mut self, slot: u64, at: SysTime) {
        self.timeline.invalidate(slot, at);
    }

    /// Re-sorts the endpoint lists after out-of-order maintenance (bulk
    /// loads with manual system time). Engines call this from quiescent
    /// points; probes stay correct without it, only slower.
    pub fn prepare(&mut self) {
        self.intervals.prepare();
    }

    /// Number of timeline events recorded.
    pub fn event_count(&self) -> usize {
        self.timeline.event_count()
    }

    /// Resident size and maintenance counters.
    pub fn footprint(&self) -> IndexFootprint {
        IndexFootprint {
            bytes: self.timeline.memory_bytes() + self.intervals.memory_bytes(),
            events: self.timeline.event_count() as u64,
            marks: self.timeline.mark_count() as u64,
            sets: self.timeline.set_count() as u64,
            set_slots: self.timeline.set_slots() as u64,
        }
    }

    /// Estimated fraction of the partition's `total` slots a probe would
    /// return — the planner compares this against B-Tree selectivity before
    /// committing to the probe. Conservative (an upper bound); with both
    /// dimensions constrained the tighter of the two bounds applies.
    pub fn estimate_fraction(
        &self,
        sys: Option<&SysProbe>,
        app: Option<&AppProbe>,
        total: usize,
    ) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let sys_bound = match sys {
            Some(SysProbe::At(at)) => self.timeline.estimate_at(*at),
            Some(SysProbe::During(r)) => self.timeline.estimate_during(r),
            Some(SysProbe::CurrentOnly) => self.timeline.estimate_at(SysTime::MAX),
            None => total,
        };
        let app_bound = match app {
            Some(AppProbe::At(d)) => self.intervals.estimate_stab(*d),
            Some(AppProbe::During(r)) => self.intervals.estimate_overlapping(r),
            None => total,
        };
        (sys_bound.min(app_bound) as f64 / total as f64).clamp(0.0, 1.0)
    }

    /// Estimated number of candidate slots a probe would return — the
    /// row-denominated companion to [`TemporalIndex::estimate_fraction`]
    /// that cost models and feedback stores consume directly.
    pub fn estimate_candidates(
        &self,
        sys: Option<&SysProbe>,
        app: Option<&AppProbe>,
        total: usize,
    ) -> usize {
        (self.estimate_fraction(sys, app, total) * total as f64).ceil() as usize
    }

    /// Candidate slots for the given probes, sorted ascending. Returns
    /// `None` when neither dimension is constrained (the index cannot
    /// help). With both dimensions constrained the candidate sets are
    /// intersected.
    pub fn candidates(
        &self,
        sys: Option<&SysProbe>,
        app: Option<&AppProbe>,
        cost: &mut ProbeCost,
    ) -> Option<Vec<u64>> {
        let by_sys = sys.map(|s| match s {
            SysProbe::At(at) => self.timeline.visible_at(*at, cost),
            SysProbe::During(r) => self.timeline.visible_during(r, cost),
            SysProbe::CurrentOnly => self.timeline.visible_at(SysTime::MAX, cost),
        });
        let by_app = app.map(|a| match a {
            AppProbe::At(d) => self.intervals.stab(*d, cost),
            AppProbe::During(r) => self.intervals.overlapping(r, cost),
        });
        match (by_sys, by_app) {
            (Some(s), Some(a)) => Some(intersect_sorted(&s, &a)),
            (Some(s), None) => Some(s),
            (None, Some(a)) => Some(a),
            (None, None) => None,
        }
    }
}

/// Intersection of two ascending slot lists.
fn intersect_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::Period;

    fn sysp(a: u64, b: u64) -> SysPeriod {
        Period::new(SysTime(a), SysTime(b))
    }

    fn appp(a: i64, b: i64) -> AppPeriod {
        Period::new(AppDate(a), AppDate(b))
    }

    #[test]
    fn combined_probe_intersects_dimensions() {
        let mut ix = TemporalIndex::new("t", 4);
        // slot 0: sys [1, ∞), app [0, 10)
        ix.insert(0, appp(0, 10), SysPeriod::since(SysTime(1)));
        // slot 1: sys [1, 5), app [20, 30)
        ix.insert(1, appp(20, 30), sysp(1, 5));
        // slot 2: sys [6, ∞), app [0, 10)
        ix.insert(2, appp(0, 10), SysPeriod::since(SysTime(6)));
        ix.prepare();
        let mut cost = ProbeCost::default();
        let got = ix
            .candidates(
                Some(&SysProbe::At(SysTime(3))),
                Some(&AppProbe::At(AppDate(5))),
                &mut cost,
            )
            .unwrap();
        assert_eq!(got, vec![0]);
        assert!(cost.node_visits > 0);
        // Unconstrained: the index declines.
        assert!(ix.candidates(None, None, &mut cost).is_none());
    }

    #[test]
    fn current_only_probe_returns_open_versions() {
        let mut ix = TemporalIndex::new("t", 4);
        ix.insert(0, AppPeriod::ALL, SysPeriod::since(SysTime(1)));
        ix.insert(1, AppPeriod::ALL, sysp(1, 3));
        ix.insert(2, AppPeriod::ALL, SysPeriod::since(SysTime(2)));
        ix.close(2, SysTime(9));
        let mut cost = ProbeCost::default();
        let got = ix
            .candidates(Some(&SysProbe::CurrentOnly), None, &mut cost)
            .unwrap();
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn footprint_tracks_structure_sizes() {
        let mut ix = TemporalIndex::new("t", 2);
        for slot in 0..10 {
            ix.insert(slot, AppPeriod::ALL, sysp(slot, slot + 1));
        }
        let fp = ix.footprint();
        assert_eq!(fp.events, 20, "activate + invalidate per version");
        assert_eq!(fp.marks, 10, "one mark per two events");
        assert!(fp.sets >= 1 && fp.sets <= fp.marks);
        // Capacity-true: at least the 16 B events and the two 12 B endpoint
        // entries every version costs.
        assert!(fp.bytes >= 20 * 16 + 10 * 24, "{fp:?}");
        let doubled = fp.merged(fp);
        assert_eq!(doubled.events, 40);
        assert_eq!(doubled.marks, 20);
    }

    #[test]
    fn bulk_build_answers_like_inserts_and_holds_no_spare_capacity() {
        let versions: Vec<(u64, AppPeriod, SysPeriod)> = (0..300u64)
            .map(|slot| {
                (
                    slot,
                    appp(slot as i64 % 7, 10),
                    sysp(slot, slot + 1 + slot % 3),
                )
            })
            .collect();
        let mut inserted = TemporalIndex::new("t", 16);
        for &(slot, app, sys) in &versions {
            inserted.insert(slot, app, sys);
        }
        inserted.prepare();
        // A filtered iterator reports a lower size bound of zero, like the
        // engines' heap iterators do.
        let built = TemporalIndex::build("t", 16, versions.iter().copied().filter(|_| true));
        let (sys, app) = (SysProbe::At(SysTime(150)), AppProbe::At(AppDate(3)));
        let mut cost = ProbeCost::default();
        assert_eq!(
            built.candidates(Some(&sys), Some(&app), &mut cost),
            inserted.candidates(Some(&sys), Some(&app), &mut cost)
        );
        let fp = built.footprint();
        assert!(fp.bytes <= inserted.footprint().bytes);
        // 600 events at 16 B, 300 entries of 12 B per endpoint list, 37
        // marks and segment bounds at 16 B each; the rest is version-sets
        // and the live bitmap.
        let exact = 600 * 16 + 2 * 300 * 12;
        assert!(fp.bytes >= exact && fp.bytes <= exact + exact / 4, "{fp:?}");
    }

    #[test]
    fn estimate_candidates_is_rows_and_consistent_with_fraction() {
        let mut ix = TemporalIndex::new("t", 8);
        for slot in 0..100u64 {
            ix.insert(slot, AppPeriod::ALL, sysp(slot, slot + 1));
        }
        ix.prepare();
        let probe = SysProbe::At(SysTime(10));
        let frac = ix.estimate_fraction(Some(&probe), None, 100);
        let rows = ix.estimate_candidates(Some(&probe), None, 100);
        assert_eq!(rows, (frac * 100.0).ceil() as usize);
        assert!(rows >= 1, "a matching stab estimates at least one row");
        // An empty partition estimates zero rows, never a phantom minimum.
        assert_eq!(ix.estimate_candidates(Some(&probe), None, 0), 0);
    }

    #[test]
    fn estimate_is_an_upper_bound_on_candidates() {
        let mut ix = TemporalIndex::new("t", 8);
        for slot in 0..100u64 {
            ix.insert(slot, AppPeriod::ALL, sysp(slot, slot + 1));
        }
        ix.prepare();
        for probe_at in [0u64, 17, 50, 99, 100] {
            let probe = SysProbe::At(SysTime(probe_at));
            let mut cost = ProbeCost::default();
            let got = ix
                .candidates(Some(&probe), None, &mut cost)
                .unwrap_or_default();
            let est = ix.estimate_fraction(Some(&probe), None, 100);
            assert!(
                est * 100.0 + 1e-9 >= got.len() as f64,
                "estimate {est} must bound {} candidates at t{probe_at}",
                got.len()
            );
        }
    }

    #[test]
    fn intersect_sorted_basics() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u64>::new());
    }
}
