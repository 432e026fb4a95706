//! Property tests: random version lifecycles against naive oracles.
//!
//! A program mixes the three maintenance shapes the engines produce — a
//! version opened now and closed later (current partitions, monotone), a
//! version recorded whole at its close time (history partitions: the
//! activation lags the log, so the log is non-monotone), and degenerate
//! `[s, s)` versions — over fresh (sparse, sometimes high) and causally
//! reused slots.

use super::*;
use bitempo_core::Period;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One generated step; `pick` selects the operation and its operands.
#[derive(Debug, Clone, Copy)]
struct Step {
    pick: u64,
    /// System-time advance before the step.
    dt: u64,
    /// Lifetime of a version recorded at close time (0 is degenerate).
    len: u64,
}

fn steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (any::<u64>(), 0u64..3, 0u64..6).prop_map(|(pick, dt, len)| Step { pick, dt, len }),
        1..max,
    )
}

/// A program's outcome: the causal event log it fed the timeline, and the
/// versions it recorded, for the per-version oracle.
#[derive(Debug, Default)]
struct History {
    log: Vec<Event>,
    versions: Vec<(u64, SysPeriod)>,
    end: u64,
}

/// Interprets `steps`. With `close_time_order` off only open-now /
/// close-later steps run and the log stays monotone.
fn run(steps: &[Step], close_time_order: bool) -> History {
    let mut h = History::default();
    let mut now = 1u64;
    // Fresh slots leave gaps and, in half the programs, start high: the
    // live bitmap must not care how densely slots are handed out.
    let mut next_slot = steps.first().map_or(0, |s| s.pick % 2) << 20;
    // Open versions as (slot, index into `versions`).
    let mut open: Vec<(u64, usize)> = Vec::new();
    // Invalidated slots and when, for causal reuse.
    let mut closed: Vec<(u64, u64)> = Vec::new();
    let mut take_slot = |from: u64, pick: u64, closed: &mut Vec<(u64, u64)>| {
        let reusable = closed.iter().position(|&(_, at)| at <= from);
        match reusable {
            Some(i) if pick.is_multiple_of(2) => closed.swap_remove(i).0,
            _ => {
                let slot = next_slot;
                next_slot += 1 + pick / 2 % 3 * 997;
                slot
            }
        }
    };
    for s in steps {
        now += s.dt;
        let op = s.pick % if close_time_order { 3 } else { 2 };
        let operand = s.pick / 6;
        if op == 1 && !open.is_empty() {
            let (slot, v) = open.swap_remove(operand as usize % open.len());
            h.versions[v].1.end = SysTime(now);
            h.log
                .push(Event::new(SysTime(now), slot, EventKind::Invalidate));
            closed.push((slot, now));
        } else if op == 2 {
            let start = now.saturating_sub(s.len).max(1);
            let slot = take_slot(start, operand, &mut closed);
            h.versions
                .push((slot, Period::new(SysTime(start), SysTime(now))));
            h.log
                .push(Event::new(SysTime(start), slot, EventKind::Activate));
            h.log
                .push(Event::new(SysTime(now), slot, EventKind::Invalidate));
            closed.push((slot, now));
        } else {
            let slot = take_slot(now, operand, &mut closed);
            open.push((slot, h.versions.len()));
            h.versions.push((slot, SysPeriod::since(SysTime(now))));
            h.log
                .push(Event::new(SysTime(now), slot, EventKind::Activate));
        }
    }
    h.end = now;
    h
}

fn build(log: &[Event], every: usize) -> Timeline {
    let mut tl = Timeline::new(every);
    for e in log {
        match e.kind() {
            EventKind::Activate => tl.activate(e.slot(), e.at()),
            EventKind::Invalidate => tl.invalidate(e.slot(), e.at()),
        }
    }
    tl
}

fn sorted(mut slots: Vec<u64>) -> Vec<u64> {
    slots.sort_unstable();
    slots.dedup();
    slots
}

/// The per-version oracle: is a version with period `sys` visible at `at`?
/// `SysTime::MAX` asks for the current snapshot, which the half-open
/// `contains_point` cannot express.
fn visible(sys: &SysPeriod, at: SysTime) -> bool {
    sys.contains_point(at) || (at == SysTime::MAX && sys.is_current())
}

/// The visible set after replaying all of `log`, the slow way.
fn live_after(log: &[Event]) -> BTreeSet<u64> {
    let mut live = BTreeSet::new();
    for e in log {
        match e.kind() {
            EventKind::Activate => live.insert(e.slot()),
            EventKind::Invalidate => live.remove(&e.slot()),
        };
    }
    live
}

/// `estimate_at` as the dense-checkpoint timeline defined it: a full
/// version-set at *every* `every`-aligned prefix, the latest one whose
/// events all apply, plus one per later activation at or before `at`.
fn dense_estimate_at(log: &[Event], every: usize, at: SysTime) -> usize {
    let max_at = log.iter().map(|e| e.at()).max().unwrap_or(SysTime::ZERO);
    if at >= max_at {
        return live_after(log).len();
    }
    let upto = (1..=log.len() / every)
        .map(|k| k * every)
        .take_while(|&n| log[..n].iter().all(|e| e.at() <= at))
        .last()
        .unwrap_or(0);
    live_after(&log[..upto]).len()
        + log[upto..]
            .iter()
            .filter(|e| e.kind() == EventKind::Activate && e.at() <= at)
            .count()
}

fn dense_estimate_during(log: &[Event], every: usize, range: &SysPeriod) -> usize {
    dense_estimate_at(log, every, range.start)
        + log
            .iter()
            .filter(|e| e.kind() == EventKind::Activate && range.contains_point(e.at()))
            .count()
}

/// Checks one history at one checkpoint interval: probes against the
/// per-version oracle and estimates against the dense reference at every
/// instant, then the space and replay bounds [`SET_SPACING`] promises.
fn check(h: &History, every: usize) -> Result<(), TestCaseError> {
    let tl = build(&h.log, every);
    // The bitmap mirror against a search-tree one: at every version-set
    // cut, and at the end of the log.
    for set in &tl.sets {
        let want = live_after(&h.log[..set.upto]);
        prop_assert!(
            set.visible
                .iter()
                .map(|&s| u64::from(s))
                .eq(want.iter().copied()),
            "set at {} every={every}",
            set.upto
        );
    }
    let want = live_after(&h.log);
    prop_assert!(
        tl.live.iter().map(u64::from).eq(want.iter().copied()),
        "live mirror every={every}"
    );
    prop_assert_eq!(tl.live.len, want.len());
    let instants = (0..=h.end + 1).map(SysTime).chain([SysTime::MAX]);
    for at in instants.clone() {
        let mut cost = crate::ProbeCost::default();
        let got = tl.visible_at(at, &mut cost);
        let want = sorted(
            h.versions
                .iter()
                .filter(|(_, sys)| visible(sys, at))
                .map(|&(slot, _)| slot)
                .collect(),
        );
        prop_assert_eq!(&got, &want, "visible_at({at}) every={every}");
        prop_assert_eq!(
            tl.estimate_at(at),
            dense_estimate_at(&h.log, every, at),
            "estimate_at({at}) every={every}"
        );
    }
    for start in instants.clone().step_by(3) {
        for len in [0, 1, 5, 40, u64::MAX] {
            let range = Period::new(start, SysTime(start.0.saturating_add(len)));
            let mut cost = crate::ProbeCost::default();
            let got = tl.visible_during(&range, &mut cost);
            // Visible as the range opens, or activated inside it — the
            // latter keeps degenerate versions, as the contract allows.
            let want = sorted(
                h.versions
                    .iter()
                    .filter(|(_, sys)| visible(sys, range.start) || range.contains_point(sys.start))
                    .map(|&(slot, _)| slot)
                    .collect(),
            );
            prop_assert_eq!(&got, &want, "visible_during({range}) every={every}");
            prop_assert_eq!(
                tl.estimate_during(&range),
                dense_estimate_during(&h.log, every, &range),
                "estimate_during({range}) every={every}"
            );
        }
    }
    prop_assert!(
        tl.set_slots() <= SET_SPACING * tl.event_count(),
        "{} set slots over {} events, every={every}",
        tl.set_slots(),
        tl.event_count()
    );
    if tl.monotone {
        let max_live = (0..=h.log.len())
            .map(|n| live_after(&h.log[..n]).len())
            .max()
            .unwrap_or(0);
        let bound = (max_live + every + max_live / SET_SPACING) as u64;
        for at in instants {
            let mut cost = crate::ProbeCost::default();
            tl.visible_at(at, &mut cost);
            prop_assert!(
                cost.node_visits <= bound,
                "visible_at({at}) visited {} > {bound}, every={every}",
                cost.node_visits
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Current-partition shape: versions open now and close later, in
    /// system-time order, over causally reused slots.
    #[test]
    fn monotone_lifecycles_match_the_oracles(program in steps(160)) {
        let h = run(&program, false);
        prop_assert!(h.log.windows(2).all(|w| w[0].at() <= w[1].at()));
        for every in [1, 3, 16, 256] {
            check(&h, every)?;
        }
    }

    /// All shapes mixed: versions recorded at close time (non-monotone
    /// log) and degenerate `[s, s)` versions between open/close steps.
    #[test]
    fn close_time_lifecycles_match_the_oracles(program in steps(160)) {
        let h = run(&program, true);
        for every in [1, 3, 16, 256] {
            check(&h, every)?;
        }
    }
}
