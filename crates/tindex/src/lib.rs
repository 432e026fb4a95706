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
//!   endpoint lists, answering overlap (`BETWEEN` two dates) probes without
//!   touching every stored period; a timeslice (`AS OF` a date `d`) is the
//!   one-day range `[d, d + 1)`.
//!
//! [`TemporalIndex`] bundles both over one storage partition and is probed
//! with a [`TemporalProbe`]: the axes the scan's own [`SysSpec`] /
//! [`AppSpec`] from `bitempo-core` constrain (`Current` is the slots
//! visible at [`SysTime::MAX`]). Probes return **candidate supersets**:
//! every slot whose version can match the temporal constraint is
//! returned, possibly with false positives (degenerate `[s, s)` periods,
//! reused slots). Callers re-check the authoritative period on each
//! candidate, which keeps the index sound by construction — the engines'
//! scan postconditions never depend on index precision.
//!
//! Everything here is deterministic: probes visit entries in slot/time
//! order and results are returned sorted by slot, so indexed scans produce
//! rows in exactly the order a sequential scan of the same slots would.

pub mod interval;
pub mod timeline;

pub use interval::IntervalIndex;
pub use timeline::{Event, EventKind, Timeline};

use bitempo_core::{AppPeriod, AppSpec, Period, SysPeriod, SysSpec, SysTime};

/// A partition-local slot in the 32 bits every index entry stores it in.
/// The heaps and column tables hand slots out densely from zero, as
/// `u32`s; the public APIs take and return them as `u64`.
///
/// # Panics
/// If `slot` does not fit 32 bits.
pub fn narrow_slot(slot: u64) -> u32 {
    u32::try_from(slot).unwrap_or_else(|_| panic!("slot {slot}: partition-local slots fit 32 bits"))
}

/// Work counters accumulated by index probes, reported through
/// `ScanMetrics` so benchmark rows distinguish "index probed" from "index
/// helped".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCost {
    /// Internal entries examined: replayed timeline events, restored
    /// version-set members, and endpoint-list entries scanned.
    pub node_visits: u64,
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
/// Slots are partition-local row identifiers (the slots the engines'
/// `OrderedIndex`/`GistIndex` address), taken and returned as `u64`s and
/// stored in 32 bits (see [`narrow_slot`]). Maintenance mirrors the version
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

    /// Estimated fraction of the partition's `total` slots `probe` would
    /// return — the planner compares this against B-Tree selectivity before
    /// committing to the probe. Conservative (an upper bound); with both
    /// axes constrained the tighter of the two bounds applies.
    pub fn estimate_fraction(&self, probe: &TemporalProbe, total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let bound = match probe.0 {
            Axes::Sys(sys) => self.estimate_visible(sys),
            Axes::App(app) => self.intervals.estimate_overlapping(&app),
            Axes::Both(sys, app) => {
                let by_app = self.intervals.estimate_overlapping(&app);
                self.estimate_visible(sys).min(by_app)
            }
        };
        (bound as f64 / total as f64).clamp(0.0, 1.0)
    }

    /// Candidate slots for `probe`, sorted ascending. With both axes
    /// constrained the candidate sets are intersected.
    pub fn candidates(&self, probe: &TemporalProbe, cost: &mut ProbeCost) -> Vec<u64> {
        match probe.0 {
            Axes::Sys(sys) => self.visible(sys, cost),
            Axes::App(app) => self.intervals.overlapping(&app, cost),
            Axes::Both(sys, app) => {
                let by_sys = self.visible(sys, cost);
                intersect_sorted(&by_sys, &self.intervals.overlapping(&app, cost))
            }
        }
    }

    /// The slots the timeline holds visible under `sys`.
    fn visible(&self, sys: SysAxis, cost: &mut ProbeCost) -> Vec<u64> {
        match sys {
            SysAxis::At(at) => self.timeline.visible_at(at, cost),
            SysAxis::During(range) => self.timeline.visible_during(&range, cost),
        }
    }

    /// An upper bound on how many slots `visible` returns for `sys`.
    fn estimate_visible(&self, sys: SysAxis) -> usize {
        match sys {
            SysAxis::At(at) => self.timeline.estimate_at(at),
            SysAxis::During(range) => self.timeline.estimate_during(&range),
        }
    }
}

/// The time axes a scan's [`SysSpec`] and [`AppSpec`] constrain, in the
/// terms a [`TemporalIndex`] probes them. It constrains at least one, so
/// a probe the planner priced with [`TemporalIndex::estimate_fraction`]
/// always runs as [`TemporalIndex::candidates`]; [`TemporalProbe::new`]
/// declines a scan the index cannot narrow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalProbe(Axes);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axes {
    Sys(SysAxis),
    App(AppPeriod),
    Both(SysAxis, AppPeriod),
}

/// A system-time constraint: visible at one time (the implicit current
/// snapshot is [`SysTime::MAX`]) or at some time during a range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SysAxis {
    At(SysTime),
    During(SysPeriod),
}

impl TemporalProbe {
    /// The axes `sys` and `app` constrain, or `None` when neither does.
    /// An application `AS OF d` is the one-day range `[d, d + 1)`, which on
    /// the index's days is exactly `start <= d < end`.
    pub fn new(sys: &SysSpec, app: &AppSpec) -> Option<TemporalProbe> {
        let sys = match *sys {
            SysSpec::Current => Some(SysAxis::At(SysTime::MAX)),
            SysSpec::AsOf(at) => Some(SysAxis::At(at)),
            SysSpec::Range(range) => Some(SysAxis::During(range)),
            SysSpec::All => None,
        };
        let app = match *app {
            AppSpec::AsOf(d) => Some(Period::new(d, d.plus_days(1))),
            AppSpec::Range(range) => Some(range),
            AppSpec::All => None,
        };
        let axes = match (sys, app) {
            (Some(sys), Some(app)) => Axes::Both(sys, app),
            (Some(sys), None) => Axes::Sys(sys),
            (None, Some(app)) => Axes::App(app),
            (None, None) => return None,
        };
        Some(TemporalProbe(axes))
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
    use bitempo_core::AppDate;

    fn sysp(a: u64, b: u64) -> SysPeriod {
        Period::new(SysTime(a), SysTime(b))
    }

    fn appp(a: i64, b: i64) -> AppPeriod {
        Period::new(AppDate(a), AppDate(b))
    }

    fn probe(sys: SysSpec, app: AppSpec) -> TemporalProbe {
        TemporalProbe::new(&sys, &app).expect("an axis constrained")
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
        let both = probe(SysSpec::AsOf(SysTime(3)), AppSpec::AsOf(AppDate(5)));
        assert_eq!(ix.candidates(&both, &mut cost), vec![0]);
        assert!(cost.node_visits > 0);
        // Unconstrained: the index declines.
        assert_eq!(TemporalProbe::new(&SysSpec::All, &AppSpec::All), None);
    }

    #[test]
    fn current_only_probe_returns_open_versions() {
        let mut ix = TemporalIndex::new("t", 4);
        ix.insert(0, AppPeriod::ALL, SysPeriod::since(SysTime(1)));
        ix.insert(1, AppPeriod::ALL, sysp(1, 3));
        ix.insert(2, AppPeriod::ALL, SysPeriod::since(SysTime(2)));
        ix.close(2, SysTime(9));
        let mut cost = ProbeCost::default();
        let got = ix.candidates(&probe(SysSpec::Current, AppSpec::All), &mut cost);
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
        // Capacity-true: at least the 12 B events and the 12 B entry every
        // version costs (its 4 B by-end position comes with `prepare`).
        assert!(fp.bytes >= 20 * 12 + 10 * 12, "{fp:?}");
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
        let both = probe(SysSpec::AsOf(SysTime(150)), AppSpec::AsOf(AppDate(3)));
        let mut cost = ProbeCost::default();
        assert_eq!(
            built.candidates(&both, &mut cost),
            inserted.candidates(&both, &mut cost)
        );
        let fp = built.footprint();
        assert!(fp.bytes <= inserted.footprint().bytes);
        // 600 events at 12 B, 300 entries of 12 B by period start and 300
        // positions of 4 B by period end, all without spare capacity; the
        // rest — 37 marks and 38 segment bounds at 16 B each, the
        // version-sets and the live bitmap — stays under a quarter of that.
        let exact = 600 * 12 + 300 * 12 + 300 * 4;
        assert!(fp.bytes >= exact && fp.bytes <= exact + exact / 4, "{fp:?}");
    }

    #[test]
    fn estimate_is_an_upper_bound_on_candidates() {
        let mut ix = TemporalIndex::new("t", 8);
        for slot in 0..100u64 {
            ix.insert(slot, AppPeriod::ALL, sysp(slot, slot + 1));
        }
        ix.prepare();
        for probe_at in [0u64, 17, 50, 99, 100] {
            let at = probe(SysSpec::AsOf(SysTime(probe_at)), AppSpec::All);
            let mut cost = ProbeCost::default();
            let got = ix.candidates(&at, &mut cost);
            let est = ix.estimate_fraction(&at, 100);
            assert!(
                est * 100.0 + 1e-9 >= got.len() as f64,
                "estimate {est} must bound {} candidates at t{probe_at}",
                got.len()
            );
        }
        // An empty partition estimates zero, never a phantom minimum.
        let at = probe(SysSpec::AsOf(SysTime(10)), AppSpec::All);
        assert_eq!(ix.estimate_fraction(&at, 0), 0.0);
    }

    /// The specs at the sentinels and the edges of the index's 32-bit
    /// days: an application `AS OF d` (the one-day range) returns exactly
    /// the periods containing `d` wherever the day mapping is exact — `d`
    /// inside `[i32::MIN, i32::MAX)`, the period neither starting past
    /// `i32::MAX - 1` nor ending below `i32::MIN + 1` — and a superset
    /// elsewhere; the implicit current snapshot probes exactly like
    /// `AS OF SYSTEM TIME ∞`.
    #[test]
    fn specs_map_onto_the_index_exactly_at_the_sentinels() {
        let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
        let periods = [
            AppPeriod::ALL,
            AppPeriod::since(AppDate(0)),
            AppPeriod::since(AppDate(lo)),
            AppPeriod::since(AppDate(hi)),
            appp(i64::MIN, lo),
            appp(i64::MIN, lo + 1),
            appp(lo - 1, lo + 1),
            appp(lo, lo + 1),
            appp(-1, 0),
            appp(0, 1),
            appp(hi - 1, hi),
            appp(hi - 1, hi + 1),
            appp(hi, hi + 1),
            appp(hi + 1, i64::MAX),
            appp(5, 5),
            appp(1, 2),
        ];
        let mut ix = TemporalIndex::new("t", 4);
        for (slot, &app) in periods.iter().enumerate() {
            let slot = slot as u64;
            let sys = match slot % 3 {
                0 => SysPeriod::since(SysTime(slot)),
                1 => sysp(slot, slot + 2),
                _ => SysPeriod::since(SysTime(1)),
            };
            ix.insert(slot, app, sys);
            if sys.is_current() && slot % 4 == 3 {
                ix.close(slot, SysTime(slot + 1));
            }
        }
        ix.prepare();
        let exact_period = |p: &AppPeriod| p.start.0 < hi && p.end.0 > lo;
        let probes = [
            AppDate::MIN,
            AppDate::MAX,
            AppDate(0),
            AppDate(lo - 1),
            AppDate(lo),
            AppDate(lo + 1),
            AppDate(hi - 1),
            AppDate(hi),
            AppDate(hi + 1),
        ];
        for d in probes {
            let mut cost = ProbeCost::default();
            let as_of = probe(SysSpec::All, AppSpec::AsOf(d));
            let got = ix.candidates(&as_of, &mut cost);
            let exact_probe = (lo..hi).contains(&d.0);
            for (slot, p) in periods.iter().enumerate() {
                let (got, want) = (got.contains(&(slot as u64)), p.contains_point(d));
                assert!(got || !want, "AS OF {d} misses slot {slot} {p}");
                if exact_probe && exact_period(p) {
                    assert_eq!(got, want, "AS OF {d}, slot {slot} {p}");
                }
            }
            let est = ix.estimate_fraction(&as_of, periods.len());
            assert!(est * periods.len() as f64 + 1e-9 >= got.len() as f64);
        }
        let (mut implicit, mut at_max) = (ProbeCost::default(), ProbeCost::default());
        let current = ix.candidates(&probe(SysSpec::Current, AppSpec::All), &mut implicit);
        let as_of_max = probe(SysSpec::AsOf(SysTime::MAX), AppSpec::All);
        assert_eq!(current, ix.candidates(&as_of_max, &mut at_max));
        assert_eq!(implicit, at_max);
        assert_eq!(current, vec![0, 2, 5, 6, 8, 9, 12, 14]);
    }

    #[test]
    fn intersect_sorted_basics() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u64>::new());
    }
}
