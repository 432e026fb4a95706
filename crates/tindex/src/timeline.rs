//! The Timeline: a system-time visibility index.
//!
//! System time only ever moves forward, and a version's visibility changes
//! at exactly two moments — when it is recorded (*activation*) and when it
//! is superseded or deleted (*invalidation*). The Timeline therefore stores
//! history as an **append-only event log** in causal order, annotated at
//! two densities:
//!
//! * a **mark** at every `checkpoint_every`-aligned log boundary — the
//!   running maximum event time and the *size* of the visible set there,
//!   two words per segment. Marks are all the planner's estimates read.
//! * a **version-set** (the sorted visible slots themselves) at a mark only
//!   once enough events have accumulated to pay for the copy — see
//!   `SET_SPACING`. That amortisation keeps the whole index linear in
//!   the number of events.
//!
//! A probe "visible at system version S" takes the nearest version-set
//! whose events all precede `S`, collapses the bounded slice of events up
//! to `S` into one final state per touched slot, and merges that delta
//! with the set in a single pass — work proportional to the answer plus
//! the replay bound, not to the length of history. That is the
//! sublinearity the benchmarked 2014 systems lacked (paper Figs 3, 9, 10).
//!
//! Correctness does not depend on events arriving in time order: replay is
//! causal (append order), so a bulk load with manual, out-of-order system
//! times stays correct — the log merely loses the binary-search bound. To
//! keep such logs probeable, every checkpoint-aligned segment of the log
//! also records its min/max event time, and replays skip whole segments
//! whose time window cannot affect the probe. History partitions indexed at
//! *close* time (activation times lag close order) rely on this.

use bitempo_core::{SysPeriod, SysTime};

/// Default checkpoint interval: small enough to bound replays tightly,
/// large enough that marks, segment bounds and version-sets together stay
/// a fraction of the event log (two words of mark per 256 12-byte
/// events; version-set slots, 4 bytes each, are bounded by `SET_SPACING`
/// times the event count whatever the interval).
pub const DEFAULT_CHECKPOINT_EVERY: usize = 256;

/// A version-set is cut at a mark only when the events appended since the
/// previous set number at least `1 / SET_SPACING` of the visible set, which
/// charges every copied slot to the events that precede it:
///
/// * **space** — a set of `L` slots follows at least `L / SET_SPACING`
///   events of its own, so all sets together hold at most
///   `SET_SPACING × events` slots;
/// * **replay** — a mark that declines to cut has fewer than
///   `live / SET_SPACING` events behind it, so a probe replays fewer than
///   `checkpoint_every + live / SET_SPACING` events past its set.
const SET_SPACING: usize = 2;

/// What happened to a slot's visibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The version became visible.
    Activate,
    /// The version stopped being visible (half-open: not visible *at* the
    /// event time).
    Invalidate,
}

/// One visibility change in the log, in 12 bytes: the commit time whole,
/// as two 32-bit halves so that the event aligns to 4 bytes, and the slot
/// in a 32-bit word whose top bit carries the kind.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Event {
    at_lo: u32,
    at_hi: u32,
    word: u32,
}

const _: () = assert!(std::mem::size_of::<Event>() == 12);

/// Set in [`Event::word`] for an invalidation.
const INVALIDATE: u32 = 1 << 31;

/// The largest slot an [`Event`] holds: 31 bits, beside the kind bit.
const MAX_EVENT_SLOT: u64 = INVALIDATE as u64 - 1;

impl Event {
    /// An event of `kind` on `slot`, taking effect at commit time `at`.
    ///
    /// # Panics
    /// If `slot` needs more than 31 bits: slots are partition-local and
    /// dense, and the top bit of the slot word is the kind.
    pub fn new(at: SysTime, slot: u64, kind: EventKind) -> Event {
        assert!(
            slot <= MAX_EVENT_SLOT,
            "slot {slot}: partition-local slots fit 32 bits, and an event's 31 beside its kind bit"
        );
        let slot = slot as u32;
        let word = match kind {
            EventKind::Activate => slot,
            EventKind::Invalidate => slot | INVALIDATE,
        };
        Event {
            at_lo: at.0 as u32,
            at_hi: (at.0 >> 32) as u32,
            word,
        }
    }

    /// Commit time the change took effect.
    pub fn at(&self) -> SysTime {
        SysTime(u64::from(self.at_hi) << 32 | u64::from(self.at_lo))
    }

    /// Partition-local slot of the affected version.
    pub fn slot(&self) -> u64 {
        u64::from(self.word & !INVALIDATE)
    }

    /// Activation or invalidation.
    pub fn kind(&self) -> EventKind {
        if self.word & INVALIDATE == 0 {
            EventKind::Activate
        } else {
            EventKind::Invalidate
        }
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}({}) at {}", self.kind(), self.slot(), self.at())
    }
}

/// The visible set as a bitmap over the partition's slots, which the heaps
/// and column tables hand out densely from zero: a bit per slot ever seen
/// instead of a search-tree entry per visible one.
#[derive(Debug, Clone, Default)]
struct LiveSet {
    words: Vec<u64>,
    len: usize,
}

impl LiveSet {
    fn insert(&mut self, slot: u64) {
        let (word, bit) = ((slot / 64) as usize, 1 << (slot % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.len += usize::from(self.words[word] & bit == 0);
        self.words[word] |= bit;
    }

    fn remove(&mut self, slot: u64) {
        let bit = 1 << (slot % 64);
        if let Some(word) = self.words.get_mut((slot / 64) as usize) {
            self.len -= usize::from(*word & bit != 0);
            *word &= !bit;
        }
    }

    /// The visible slots, ascending. Every slot came in through an
    /// [`Event`], so it fits 32 bits.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(i as u32 * 64 + bit)
            })
        })
    }
}

/// What the planner needs to know about one `every`-aligned log prefix:
/// mark `k` describes `events[..(k + 1) * every]`.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Maximum event time in the prefix: the prefix applies wholesale to a
    /// probe at `S` only when `max_at <= S`.
    max_at: SysTime,
    /// Size of the visible set after the prefix.
    live_len: usize,
}

/// The visible slot set after applying a prefix of the log.
#[derive(Debug, Clone)]
struct VersionSet {
    /// Number of log events this set reflects.
    upto: usize,
    /// Maximum event time in that prefix: the set serves a probe at `S`
    /// only when `max_at <= S`, so every reflected event applies.
    max_at: SysTime,
    /// Sorted visible slots.
    visible: Box<[u32]>,
}

/// Replayed events in causal order, reduced to `(slot, kind)`.
type Delta = Vec<(u64, EventKind)>;

/// The system-time visibility index. See the module docs.
#[derive(Debug, Clone)]
pub struct Timeline {
    events: Vec<Event>,
    /// One per complete segment, in log order.
    marks: Vec<Mark>,
    /// Sparse, in log order; each sits on a mark boundary.
    sets: Vec<VersionSet>,
    every: usize,
    /// `(min, max)` event time per checkpoint-aligned log segment
    /// (`events[k * every .. (k + 1) * every]`), for segment skipping in
    /// non-monotone replays.
    seg_bounds: Vec<(SysTime, SysTime)>,
    /// Running mirror of the visible set, snapshot at version-set cuts.
    live: LiveSet,
    /// Running maximum event time.
    max_at: SysTime,
    /// True while events have arrived in non-decreasing time order, which
    /// allows replays to stop at a binary-searched prefix.
    monotone: bool,
    /// Last invalidation time per slot, kept in debug builds only to back
    /// the causal-reuse assertion in [`Timeline::activate`]. Release
    /// builds pay nothing for it (the assertion compiles out).
    #[cfg(debug_assertions)]
    closed_at: std::collections::BTreeMap<u64, SysTime>,
}

impl Default for Timeline {
    fn default() -> Timeline {
        Timeline::new(DEFAULT_CHECKPOINT_EVERY)
    }
}

impl Timeline {
    /// Creates an empty timeline placing a mark every `checkpoint_every`
    /// events (clamped to at least 1).
    pub fn new(checkpoint_every: usize) -> Timeline {
        Timeline {
            events: Vec::new(),
            marks: Vec::new(),
            sets: Vec::new(),
            every: checkpoint_every.max(1),
            seg_bounds: Vec::new(),
            live: LiveSet::default(),
            max_at: SysTime::ZERO,
            monotone: true,
            #[cfg(debug_assertions)]
            closed_at: std::collections::BTreeMap::new(),
        }
    }

    /// Records that `slot` became visible at `at`.
    ///
    /// **Slot-reuse contract:** a slot may be re-activated only *causally* —
    /// at or after its last invalidation. Re-activating earlier would make
    /// a probe pinned between the two times surface the recycled slot's
    /// *new* lifetime as if it were the old version's: exactly the reader
    /// anomaly the MVCC layer's pinned snapshots must never observe. The
    /// heaps recycle slots — a sequenced update frees its closed version's
    /// slot at the commit time its successor, which may take the slot,
    /// starts at — so every reuse is causal by construction; this
    /// assertion checks it in debug builds.
    pub fn activate(&mut self, slot: u64, at: SysTime) {
        let event = Event::new(at, slot, EventKind::Activate);
        #[cfg(debug_assertions)]
        if let Some(&closed) = self.closed_at.get(&slot) {
            debug_assert!(
                at >= closed,
                "non-causal slot reuse: slot {slot} re-activated at {at} before its \
                 last invalidation at {closed}; a reader pinned to a snapshot between \
                 the two would see the recycled slot's new lifetime"
            );
        }
        self.live.insert(slot);
        self.push(event);
    }

    /// Records that `slot` stopped being visible at `at`.
    pub fn invalidate(&mut self, slot: u64, at: SysTime) {
        let event = Event::new(at, slot, EventKind::Invalidate);
        #[cfg(debug_assertions)]
        {
            let last = self.closed_at.entry(slot).or_insert(at);
            *last = (*last).max(at);
        }
        self.live.remove(slot);
        self.push(event);
    }

    fn push(&mut self, e: Event) {
        if e.at() < self.max_at {
            self.monotone = false;
        }
        self.max_at = self.max_at.max(e.at());
        self.events.push(e);
        let seg = (self.events.len() - 1) / self.every;
        match self.seg_bounds.get_mut(seg) {
            Some((lo, hi)) => {
                *lo = (*lo).min(e.at());
                *hi = (*hi).max(e.at());
            }
            None => self.seg_bounds.push((e.at(), e.at())),
        }
        if self.events.len().is_multiple_of(self.every) {
            self.marks.push(Mark {
                max_at: self.max_at,
                live_len: self.live.len,
            });
            let since = self.events.len() - self.sets.last().map_or(0, |s| s.upto);
            if since * SET_SPACING >= self.live.len {
                self.sets.push(VersionSet {
                    upto: self.events.len(),
                    max_at: self.max_at,
                    visible: self.live.iter().collect(),
                });
            }
        }
    }

    /// Pre-sizes the log for `events` more events.
    pub fn reserve(&mut self, events: usize) {
        self.events.reserve(events);
    }

    /// Releases spare capacity; worth calling once a bulk build is done.
    pub fn shrink_to_fit(&mut self) {
        self.events.shrink_to_fit();
        self.marks.shrink_to_fit();
        self.sets.shrink_to_fit();
        self.seg_bounds.shrink_to_fit();
        self.live.words.shrink_to_fit();
    }

    /// Number of events recorded.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of marks placed so far: one per complete segment.
    pub fn mark_count(&self) -> usize {
        self.marks.len()
    }

    /// Number of version-sets cut so far.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Slots held across all version-sets; at most `SET_SPACING` times
    /// [`Timeline::event_count`].
    pub fn set_slots(&self) -> usize {
        self.sets.iter().map(|s| s.visible.len()).sum()
    }

    /// Resident bytes of the log, marks, version-sets, segment bounds and
    /// live mirror, counting allocated capacity rather than length.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.events.capacity() * size_of::<Event>()
            + self.marks.capacity() * size_of::<Mark>()
            + self.sets.capacity() * size_of::<VersionSet>()
            + self.set_slots() * size_of::<u32>()
            + self.seg_bounds.capacity() * size_of::<(SysTime, SysTime)>()
            + self.live.words.capacity() * size_of::<u64>()) as u64
    }

    /// Walks `events[upto..]` segment by segment, invoking `f` on every
    /// event in segments whose `(min, max)` time window passes `seg_ok`,
    /// and skipping the rest wholesale. `seg_ok` must be conservative:
    /// true whenever any event in the window could matter to the probe.
    fn replay_segments(
        &self,
        upto: usize,
        seg_ok: impl Fn(SysTime, SysTime) -> bool,
        cost: &mut crate::ProbeCost,
        mut f: impl FnMut(&Event),
    ) {
        let mut pos = upto;
        while pos < self.events.len() {
            let seg = pos / self.every;
            let seg_end = ((seg + 1) * self.every).min(self.events.len());
            // One visit to consult the segment's time bounds.
            cost.node_visits += 1;
            let ok = self
                .seg_bounds
                .get(seg)
                .is_none_or(|&(lo, hi)| seg_ok(lo, hi));
            if ok {
                for e in self.events.get(pos..seg_end).unwrap_or(&[]) {
                    cost.node_visits += 1;
                    f(e);
                }
            }
            pos = seg_end;
        }
    }

    /// Number of events in segments passing `seg_ok` that also pass
    /// `event_ok`. Counting individual events (rather than whole segments)
    /// keeps planner estimates tight on non-monotone logs, where a segment
    /// holding one early activation would otherwise count wholesale.
    fn count_events(
        &self,
        upto: usize,
        seg_ok: impl Fn(SysTime, SysTime) -> bool,
        event_ok: impl Fn(&Event) -> bool,
    ) -> usize {
        let mut n = 0;
        let mut pos = upto;
        while pos < self.events.len() {
            let seg = pos / self.every;
            let seg_end = ((seg + 1) * self.every).min(self.events.len());
            let ok = self
                .seg_bounds
                .get(seg)
                .is_none_or(|&(lo, hi)| seg_ok(lo, hi));
            if ok {
                n += self
                    .events
                    .get(pos..seg_end)
                    .unwrap_or(&[])
                    .iter()
                    .filter(|e| event_ok(e))
                    .count();
            }
            pos = seg_end;
        }
        n
    }

    /// The visible set at `at`, unmerged: the latest version-set whose whole
    /// prefix applies (every reflected event is at or before `at`), and the
    /// later events that took effect at or before `at`, in causal order.
    fn state_at(&self, at: SysTime, cost: &mut crate::ProbeCost) -> (&[u32], Delta) {
        let si = self.sets.partition_point(|s| s.max_at <= at);
        let (upto, set): (usize, &[u32]) = match si.checked_sub(1).and_then(|i| self.sets.get(i)) {
            Some(s) => (s.upto, &s.visible),
            None => (0, &[]),
        };
        cost.node_visits += set.len() as u64;
        let mut delta = Delta::new();
        if self.monotone {
            let hi = self.events.partition_point(|e| e.at() <= at);
            let applied = self.events.get(upto..hi).unwrap_or(&[]);
            cost.node_visits += applied.len() as u64;
            delta.extend(applied.iter().map(|e| (e.slot(), e.kind())));
        } else {
            // Segments whose earliest event is already past `at` cannot
            // change visibility at `at`.
            self.replay_segments(
                upto,
                |lo, _| lo <= at,
                cost,
                |e| {
                    if e.at() <= at {
                        delta.push((e.slot(), e.kind()));
                    }
                },
            );
        }
        (set, delta)
    }

    /// Slots visible at system version `at`: activated at or before `at`
    /// and not invalidated at or before it. `SysTime::MAX` yields the
    /// current snapshot (never-invalidated slots). Sorted ascending.
    pub fn visible_at(&self, at: SysTime, cost: &mut crate::ProbeCost) -> Vec<u64> {
        let (set, delta) = self.state_at(at, cost);
        apply_delta(set, delta)
    }

    /// Candidate slots for versions whose system period overlaps `range`:
    /// everything visible when the range opens, plus everything activated
    /// inside it. A superset of the true overlap set (degenerate periods
    /// are filtered by the caller's authoritative re-check). Sorted
    /// ascending.
    pub fn visible_during(&self, range: &SysPeriod, cost: &mut crate::ProbeCost) -> Vec<u64> {
        let (set, mut delta) = self.state_at(range.start, cost);
        // In-range activations go last, so they win over whatever the
        // replay said about the same slot.
        if self.monotone {
            let lo = self.events.partition_point(|e| e.at() < range.start);
            let hi = self.events.partition_point(|e| e.at() < range.end);
            let inside = self.events.get(lo..hi).unwrap_or(&[]);
            cost.node_visits += inside.len() as u64;
            delta.extend(
                inside
                    .iter()
                    .filter(|e| e.kind() == EventKind::Activate)
                    .map(|e| (e.slot(), e.kind())),
            );
        } else {
            self.replay_segments(
                0,
                |lo, hi| lo < range.end && hi >= range.start,
                cost,
                |e| {
                    if e.kind() == EventKind::Activate && range.contains_point(e.at()) {
                        delta.push((e.slot(), e.kind()));
                    }
                },
            );
        }
        apply_delta(set, delta)
    }

    /// Upper bound on the number of slots [`Timeline::visible_at`] can
    /// return: the visible-set size at the nearest mark plus one per
    /// activation a replay from there could insert. Only activations at or
    /// before `at` count — invalidations and later events can never grow
    /// the visible set. Reads marks only, so the bound does not depend on
    /// where version-sets happen to be cut.
    pub fn estimate_at(&self, at: SysTime) -> usize {
        if at >= self.max_at {
            // Every recorded event applies, so the live mirror *is* the
            // visible set — exact, and O(1) for the common current-snapshot
            // probe.
            return self.live.len;
        }
        let mi = self.marks.partition_point(|m| m.max_at <= at);
        let base = mi
            .checked_sub(1)
            .and_then(|i| self.marks.get(i))
            .map_or(0, |m| m.live_len);
        let replay = self.count_events(
            mi * self.every,
            |lo, _| lo <= at,
            |e| e.kind() == EventKind::Activate && e.at() <= at,
        );
        base + replay
    }

    /// Upper bound on [`Timeline::visible_during`] output: everything
    /// possibly visible as the range opens, plus one per activation that
    /// lands inside the range.
    pub fn estimate_during(&self, range: &SysPeriod) -> usize {
        let activations = self.count_events(
            0,
            |lo, hi| lo < range.end && hi >= range.start,
            |e| e.kind() == EventKind::Activate && range.contains_point(e.at()),
        );
        self.estimate_at(range.start) + activations
    }
}

/// Applies replayed events to a restored version-set in one pass: each
/// touched slot ends in the state its *last* event left it in, every other
/// slot keeps its membership in `set`. Sorted ascending.
fn apply_delta(set: &[u32], mut delta: Delta) -> Vec<u64> {
    // Stable, so a slot's events stay in causal order within its run.
    delta.sort_by_key(|&(slot, _)| slot);
    let mut out = Vec::with_capacity(set.len() + delta.len());
    let mut rest = set;
    for run in delta.chunk_by(|a, b| a.0 == b.0) {
        let Some(&(slot, last)) = run.last() else {
            continue;
        };
        // A linear advance: everything skipped is copied anyway.
        let below = rest.iter().take_while(|&&s| u64::from(s) < slot).count();
        let (below, from) = rest.split_at(below);
        out.extend(below.iter().map(|&s| u64::from(s)));
        rest = match from.split_first() {
            Some((&s, after)) if u64::from(s) == slot => after,
            _ => from,
        };
        if last == EventKind::Activate {
            out.push(slot);
        }
    }
    out.extend(rest.iter().map(|&s| u64::from(s)));
    out
}

#[cfg(test)]
mod props;

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::Period;

    fn sysp(a: u64, b: u64) -> SysPeriod {
        Period::new(SysTime(a), SysTime(b))
    }

    /// Applies version periods in causal order and checks `visible_at`
    /// against the naive per-version oracle at every probe point.
    fn check_against_oracle(versions: &[(u64, SysPeriod)], every: usize, probes: &[u64]) {
        let mut tl = Timeline::new(every);
        for &(slot, sys) in versions {
            tl.activate(slot, sys.start);
            if !sys.is_current() {
                tl.invalidate(slot, sys.end);
            }
        }
        for &p in probes {
            let at = SysTime(p);
            let mut cost = crate::ProbeCost::default();
            let got = tl.visible_at(at, &mut cost);
            let mut want: Vec<u64> = versions
                .iter()
                .filter(|(_, sys)| sys.contains_point(at))
                .map(|&(slot, _)| slot)
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(got, want, "visible_at(t{p}) with checkpoint_every={every}");
        }
    }

    /// The event's slot guard at its exact bound: the largest slot beside
    /// the kind bit reads back with its kind and its whole time, and one
    /// more is refused before the timeline changes. (A timeline probe at
    /// that slot would first grow a 256 MiB live bitmap.)
    #[test]
    fn event_slots_fit_31_bits_beside_the_kind() {
        let at = SysTime(u64::MAX - 1);
        for kind in [EventKind::Activate, EventKind::Invalidate] {
            let e = Event::new(at, MAX_EVENT_SLOT, kind);
            assert_eq!((e.at(), e.slot(), e.kind()), (at, MAX_EVENT_SLOT, kind));
        }
        let mut tl = Timeline::new(1);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tl.activate(MAX_EVENT_SLOT + 1, SysTime(1));
        }));
        let message = *refused.unwrap_err().downcast::<String>().unwrap();
        assert!(
            message.contains("partition-local slots fit 32 bits"),
            "{message}"
        );
        assert_eq!((tl.event_count(), tl.live.len), (0, 0));
        assert!(tl.live.words.is_empty());
    }

    #[test]
    fn visibility_matches_oracle_across_checkpoint_intervals() {
        let versions: Vec<(u64, SysPeriod)> = (0..50u64)
            .map(|i| {
                if i % 7 == 0 {
                    (i, SysPeriod::since(SysTime(i + 1)))
                } else {
                    (i, sysp(i + 1, i + 1 + (i % 5) * 3))
                }
            })
            .collect();
        let probes: Vec<u64> = (0..70).collect();
        for every in [1, 2, 3, 8, 64, 1024] {
            check_against_oracle(&versions, every, &probes);
        }
    }

    #[test]
    fn degenerate_same_instant_period_is_never_visible() {
        // A version created and superseded in the same transaction has the
        // empty period [s, s): half-open, so no probe may surface it.
        check_against_oracle(&[(0, sysp(5, 5)), (1, sysp(5, 9))], 1, &[4, 5, 6, 9]);
    }

    #[test]
    fn slot_reuse_follows_causal_order() {
        let mut tl = Timeline::new(2);
        tl.activate(0, SysTime(5));
        tl.invalidate(0, SysTime(8));
        tl.activate(0, SysTime(8)); // slot reused at the same instant
        let mut cost = crate::ProbeCost::default();
        assert_eq!(tl.visible_at(SysTime(7), &mut cost), vec![0]);
        assert_eq!(tl.visible_at(SysTime(8), &mut cost), vec![0]);
        assert!(tl.visible_at(SysTime(4), &mut cost).is_empty());
    }

    /// The satellite regression, positive half: *causal* reuse (new
    /// lifetime begins at or after the old one ended) keeps a probe pinned
    /// to the older snapshot stable — it sees the old lifetime only.
    #[test]
    fn pinned_probe_is_stable_across_causal_slot_reuse() {
        let mut tl = Timeline::new(2);
        tl.activate(0, SysTime(5));
        let mut cost = crate::ProbeCost::default();
        // A reader pins system time 6 while the slot is still live.
        assert_eq!(tl.visible_at(SysTime(6), &mut cost), vec![0]);
        // Writer invalidates at 8 and recycles the slot at 9.
        tl.invalidate(0, SysTime(8));
        tl.activate(0, SysTime(9));
        // The pinned probe still answers from the *old* lifetime; the new
        // one is invisible before 9 and visible from 9 on.
        assert_eq!(tl.visible_at(SysTime(6), &mut cost), vec![0]);
        assert!(tl.visible_at(SysTime(8), &mut cost).is_empty());
        assert_eq!(tl.visible_at(SysTime(9), &mut cost), vec![0]);
    }

    /// The satellite regression, negative half: non-causal reuse would let
    /// a pinned reader surface the recycled slot's new lifetime, so the
    /// debug assertion must reject it outright.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-causal slot reuse")]
    fn non_causal_slot_reuse_is_rejected() {
        let mut tl = Timeline::new(2);
        tl.activate(0, SysTime(5));
        tl.invalidate(0, SysTime(8));
        // Re-activation *before* the last invalidation: a probe at 7 would
        // now see the new lifetime under the old snapshot.
        tl.activate(0, SysTime(6));
    }

    #[test]
    fn out_of_order_bulk_load_stays_correct() {
        // Manual system times arriving out of order (System D bulk load):
        // the log drops its monotone fast path but must stay exact.
        let versions = vec![
            (0, sysp(40, 50)),
            (1, sysp(10, 20)),
            (2, SysPeriod::since(SysTime(30))),
            (3, sysp(15, 45)),
        ];
        let probes: Vec<u64> = (0..60).collect();
        for every in [1, 3, 100] {
            check_against_oracle(&versions, every, &probes);
        }
        let mut tl = Timeline::new(3);
        for &(slot, sys) in &versions {
            tl.activate(slot, sys.start);
            if !sys.is_current() {
                tl.invalidate(slot, sys.end);
            }
        }
        assert!(!tl.monotone);
    }

    #[test]
    fn probe_cost_is_bounded_by_checkpoint_interval() {
        // Monotone history: a probe replays at most `every` events past its
        // checkpoint, no matter how long history grows.
        let every = 16;
        let mut tl = Timeline::new(every);
        for i in 0..10_000u64 {
            tl.activate(i, SysTime(i + 1));
            tl.invalidate(i, SysTime(i + 2));
        }
        let mut cost = crate::ProbeCost::default();
        let visible = tl.visible_at(SysTime(5_000), &mut cost);
        assert_eq!(visible.len(), 1);
        // Replay slice plus restored checkpoint members: far below the
        // 20_000-event log.
        assert!(
            cost.node_visits <= (2 * every + 4) as u64,
            "visits {} should be bounded by the checkpoint interval",
            cost.node_visits
        );
    }

    #[test]
    fn nonmonotone_history_probe_skips_segments() {
        // The close-time indexing pattern of the history partitions: each
        // closed version appends (activate start, invalidate end), and the
        // activation time lags the running close time, so the log is never
        // monotone — yet an early probe must not walk the whole log.
        let every = 16;
        let mut tl = Timeline::new(every);
        for i in 0..10_000u64 {
            tl.activate(i, SysTime(i + 1));
            tl.invalidate(i, SysTime(i + 3));
        }
        assert!(!tl.monotone);
        let mut cost = crate::ProbeCost::default();
        let visible = tl.visible_at(SysTime(100), &mut cost);
        assert_eq!(visible.len(), 2);
        // Checkpoint restore plus a handful of replayed segments plus one
        // bounds check per skipped segment — far below the 20 000 events.
        let segments = (tl.event_count() / every) as u64;
        assert!(
            cost.node_visits <= segments + (4 * every) as u64,
            "visits {} should skip inapplicable segments",
            cost.node_visits
        );
    }

    #[test]
    fn range_candidates_cover_every_overlapping_version() {
        let versions = vec![
            (0, sysp(1, 4)),
            (1, sysp(3, 8)),
            (2, sysp(6, 6)),
            (3, SysPeriod::since(SysTime(7))),
            (4, sysp(9, 12)),
        ];
        let mut tl = Timeline::new(2);
        for &(slot, sys) in &versions {
            tl.activate(slot, sys.start);
            if !sys.is_current() {
                tl.invalidate(slot, sys.end);
            }
        }
        let range = sysp(4, 9);
        let mut cost = crate::ProbeCost::default();
        let got = tl.visible_during(&range, &mut cost);
        for (slot, sys) in &versions {
            if sys.overlaps(&range) && !sys.is_empty() {
                assert!(got.contains(slot), "slot {slot} must be a candidate");
            }
        }
        // Not part of the contract, but pin the expected exact set here:
        // slot 0 ended before the range, slot 4 starts at its end.
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn estimates_bound_results() {
        let mut tl = Timeline::new(8);
        for i in 0..200u64 {
            tl.activate(i, SysTime(i + 1));
            if i % 3 != 0 {
                tl.invalidate(i, SysTime(i + 10));
            }
        }
        for p in [0u64, 5, 100, 150, 300] {
            let mut cost = crate::ProbeCost::default();
            let got = tl.visible_at(SysTime(p), &mut cost);
            assert!(tl.estimate_at(SysTime(p)) >= got.len());
        }
        let range = sysp(50, 120);
        let mut cost = crate::ProbeCost::default();
        let got = tl.visible_during(&range, &mut cost);
        assert!(tl.estimate_during(&range) >= got.len());
    }

    #[test]
    fn memory_and_counts_grow_with_history() {
        let mut tl = Timeline::new(4);
        assert_eq!(tl.event_count(), 0);
        assert_eq!(tl.mark_count(), 0);
        assert_eq!(tl.set_count(), 0);
        for i in 0..20u64 {
            tl.activate(i, SysTime(i));
        }
        assert_eq!(tl.event_count(), 20);
        // Marks stay dense — one per `every` events — while version-sets
        // thin out as the live set outgrows the events between them: the
        // marks at 12 and 20 events have one 4-event segment behind them
        // and 12 and 20 live slots ahead, so they decline to cut.
        assert_eq!(tl.mark_count(), 5);
        assert_eq!(tl.set_count(), 3);
        assert_eq!(tl.set_slots(), 4 + 8 + 16);
        assert!(tl.memory_bytes() > 0);
    }

    /// The linear-space regression: a growth-only history (every slot
    /// activated, none invalidated) is the worst case for version-set
    /// copies — a full set at every mark would hold 1.5 KB per event at
    /// this size.
    #[test]
    fn growth_only_history_stays_linear_in_space() {
        let n = 100_000u64;
        let mut tl = Timeline::default();
        tl.reserve(n as usize);
        for i in 0..n {
            tl.activate(i, SysTime(i + 1));
        }
        assert!(tl.set_slots() <= SET_SPACING * tl.event_count());
        let per_event = tl.memory_bytes() / n;
        assert!(
            per_event <= 64,
            "{per_event} B/event: the index must stay within a small multiple of its log"
        );
        // Sparse sets keep the probe exact and its replay bounded.
        let mut cost = crate::ProbeCost::default();
        let visible = tl.visible_at(SysTime(n / 2), &mut cost);
        assert_eq!(visible.len() as u64, n / 2);
        assert!(
            cost.node_visits <= n / 2 + 1,
            "visits {} must stay within the answer size",
            cost.node_visits
        );
    }

    #[test]
    fn apply_delta_keeps_each_slots_last_event() {
        use EventKind::{Activate, Invalidate};
        let set = [1, 3, 5, 7];
        let delta = vec![
            (5, Invalidate),
            (4, Activate),
            (9, Activate),
            (9, Invalidate),
            (3, Invalidate),
            (3, Activate),
            (7, Activate),
        ];
        assert_eq!(apply_delta(&set, delta), vec![1, 3, 4, 7]);
        assert_eq!(apply_delta(&set, Delta::new()), vec![1, 3, 5, 7]);
        assert_eq!(apply_delta(&[], vec![(2, Activate)]), vec![2]);
    }
}
