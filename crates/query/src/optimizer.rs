//! Cost-based access-path selection.
//!
//! The engines' per-partition scan used to pick its access path with a
//! priority-ordered if-chain gated on a single hard-coded selectivity
//! threshold — exactly the misplanning regime the paper observed: *"for
//! many workloads these indexes go unused, since they only work on very
//! selective workloads"* (§5.9), and plans flip between index lookups and
//! table scans on small estimate changes (§5.4.1). This module replaces the
//! threshold with a tiny Cascades-style memo: every physical alternative
//! the planner knows (sequential scan, primary-key lookup, B-Tree range,
//! GiST rectangle probe, temporal-index probe) is enumerated as an
//! [`Alternative`], costed from the partition's row count and the
//! estimator-supplied candidate fraction, and the cheapest wins.
//!
//! Two properties are deliberate:
//!
//! * **Costs price total work, not wall clock.** A morsel-parallel
//!   sequential scan visits the same rows at any worker count, so the cost
//!   of a plan — and therefore the chosen plan — is identical for every
//!   `workers` setting. The repo's sequential-equivalence invariant (byte
//!   identical rows *and* equal scan metrics across worker counts) depends
//!   on this.
//! * **Plans depend only on the partition and the query.** Every estimator
//!   here is an upper bound that can be wildly loose (a stab into a gap of
//!   the interval index estimates half the partition and hits nothing). The
//!   estimate is reported next to the rows actually visited, never fed back:
//!   repeating a scan re-plans it identically.

use std::fmt;

/// The physical path families a partition scan can take, listed from least
/// to most specific: ties in cost resolve toward the more specific path (the
/// legacy planner's priority order, preserved as a tie-break only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Morsel-parallel sequential scan over the whole partition.
    SeqScan,
    /// GiST (R-Tree) rectangle probe on the period rectangles.
    GistProbe,
    /// B-Tree range probe on an ordered index's leading column.
    BTreeRange,
    /// Timeline + interval-index probe (`bitempo-tindex`).
    TemporalProbe,
    /// Exact composite-prefix lookup on the primary-key index.
    KeyLookup,
}

impl PathKind {
    /// Tie-break rank: at equal cost the more specific path wins, matching
    /// the legacy priority order (key lookup > temporal probe > B-Tree >
    /// GiST > sequential). In particular a temporal probe still underbids a
    /// B-Tree range at *equal* estimated fraction — the old `<=` tie-break.
    fn rank(self) -> u8 {
        match self {
            PathKind::KeyLookup => 4,
            PathKind::TemporalProbe => 3,
            PathKind::BTreeRange => 2,
            PathKind::GistProbe => 1,
            PathKind::SeqScan => 0,
        }
    }
}

impl fmt::Display for PathKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PathKind::SeqScan => "seq",
            PathKind::GistProbe => "gist",
            PathKind::BTreeRange => "btree",
            PathKind::TemporalProbe => "tindex",
            PathKind::KeyLookup => "key-lookup",
        })
    }
}

// Per-row and startup weights of the cost model. The absolute numbers are
// unitless ("work per version record touched"); only the ratios matter. They
// put the index-vs-scan crossover near the regime the paper measured: a probe
// touches candidate rows through pointer-chasing probe machinery (~6x a
// sequential visit), a GiST probe pays more (~8x, rectangle comparisons on an
// overlap-heavy tree), and index paths pay a logarithmic descent as startup.

/// Work to visit one row sequentially.
const SEQ_ROW: f64 = 1.0;
/// Work per candidate row of a B-Tree or temporal-index probe.
const PROBE_ROW: f64 = 6.0;
/// Work per candidate row of a GiST probe.
const GIST_ROW: f64 = 8.0;
/// Work per candidate row of an exact key lookup. Cheap on purpose: the
/// candidate set is exact (every key column pinned), so a lookup never visits
/// more rows than the scan it replaces.
const KEY_ROW: f64 = 1.0;
/// Startup work per level of index descent (multiplied by `log2(n+1)`).
const NODE_VISIT: f64 = 4.0;

/// One physical alternative for answering a partition scan.
#[derive(Debug, Clone)]
pub struct Alternative {
    /// Path family.
    pub kind: PathKind,
    /// Estimated fraction of the partition's rows the path would visit.
    /// `None` means the path visits every row (sequential scan).
    pub fraction: Option<f64>,
}

impl Alternative {
    /// The always-available sequential scan.
    pub fn seq() -> Alternative {
        Alternative {
            kind: PathKind::SeqScan,
            fraction: None,
        }
    }

    /// An index-backed alternative with an estimated candidate fraction.
    pub fn new(kind: PathKind, fraction: Option<f64>) -> Alternative {
        Alternative { kind, fraction }
    }
}

/// An [`Alternative`] after costing: clamped fraction, estimated rows, and
/// total work.
#[derive(Debug, Clone)]
pub struct CostedAlt {
    /// Path family.
    pub kind: PathKind,
    /// Estimated fraction, clamped to `[0, 1]` (`1` for a sequential scan).
    pub fraction: f64,
    /// Rows the estimate predicts the path visits.
    pub est_rows: u64,
    /// Total estimated work.
    pub cost: f64,
}

/// The memo's verdict: the cheapest alternative and where it was registered.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The winning alternative.
    pub winner: CostedAlt,
    /// Index of the winner in the order alternatives were [`Memo::add`]ed.
    pub winner_index: usize,
}

/// A one-group Cascades-style memo: physical alternatives for a single
/// partition scan, costed against the partition's row count.
#[derive(Debug, Clone)]
pub struct Memo {
    rows: usize,
    alts: Vec<Alternative>,
}

impl Memo {
    /// A memo for a partition holding `rows` live versions.
    pub fn new(rows: usize) -> Memo {
        Memo {
            rows,
            alts: Vec::new(),
        }
    }

    /// Registers one alternative. Insertion order is preserved so callers
    /// can keep a parallel list of execution closures.
    pub fn add(&mut self, alt: Alternative) {
        self.alts.push(alt);
    }

    /// Costs every alternative and returns the cheapest (ties resolve by
    /// [`PathKind`] rank). `None` only when no alternative was registered.
    pub fn best(&self) -> Option<Decision> {
        let n = self.rows as f64;
        let startup = NODE_VISIT * (n + 1.0).log2();
        let costed = self.alts.iter().map(|alt| {
            let fraction = alt.fraction.map_or(1.0, |f| f.clamp(0.0, 1.0));
            let est = (fraction * n).ceil().max(0.0);
            let cost = match alt.kind {
                PathKind::SeqScan => SEQ_ROW * n,
                PathKind::KeyLookup => KEY_ROW * est,
                PathKind::BTreeRange | PathKind::TemporalProbe => startup + PROBE_ROW * est,
                PathKind::GistProbe => startup + GIST_ROW * est,
            };
            CostedAlt {
                kind: alt.kind,
                fraction,
                est_rows: est as u64,
                cost,
            }
        });
        let (winner_index, winner) = costed.enumerate().min_by(|(_, a), (_, b)| {
            a.cost
                .total_cmp(&b.cost)
                .then_with(|| b.kind.rank().cmp(&a.kind.rank()))
        })?;
        Some(Decision {
            winner,
            winner_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selective_probe_beats_seq_and_crossover_flips() {
        let mut memo = Memo::new(1000);
        memo.add(Alternative::seq());
        memo.add(Alternative::new(PathKind::TemporalProbe, Some(0.01)));
        let d = memo.best().unwrap();
        assert_eq!(d.winner.kind, PathKind::TemporalProbe);
        assert_eq!(d.winner.est_rows, 10);

        let mut memo = Memo::new(1000);
        memo.add(Alternative::seq());
        memo.add(Alternative::new(PathKind::TemporalProbe, Some(0.9)));
        let d = memo.best().unwrap();
        assert_eq!(d.winner.kind, PathKind::SeqScan);
    }

    #[test]
    fn btree_vs_tindex_tie_resolves_to_tindex() {
        // Equal fractions -> equal cost -> the legacy `<=` tie-break is
        // preserved through the rank order.
        let mut memo = Memo::new(1000);
        memo.add(Alternative::seq());
        memo.add(Alternative::new(PathKind::BTreeRange, Some(0.01)));
        memo.add(Alternative::new(PathKind::TemporalProbe, Some(0.01)));
        let d = memo.best().unwrap();
        assert_eq!(d.winner.kind, PathKind::TemporalProbe);
        // A strictly cheaper B-Tree wins on cost, not rank.
        let mut memo = Memo::new(1000);
        memo.add(Alternative::seq());
        memo.add(Alternative::new(PathKind::BTreeRange, Some(0.005)));
        memo.add(Alternative::new(PathKind::TemporalProbe, Some(0.01)));
        let d = memo.best().unwrap();
        assert_eq!(d.winner.kind, PathKind::BTreeRange);
    }

    #[test]
    fn key_lookup_never_loses_to_seq() {
        // Even on a tiny partition the exact probe wins (est rows <= n and
        // key_row == seq_row, with rank breaking the tie).
        let mut memo = Memo::new(3);
        memo.add(Alternative::seq());
        memo.add(Alternative::new(PathKind::KeyLookup, Some(1.0)));
        let d = memo.best().unwrap();
        assert_eq!(d.winner.kind, PathKind::KeyLookup);
    }

    #[test]
    fn gist_costs_more_per_row_than_btree() {
        let mut memo = Memo::new(1000);
        memo.add(Alternative::new(PathKind::BTreeRange, Some(0.05)));
        memo.add(Alternative::new(PathKind::GistProbe, Some(0.05)));
        let d = memo.best().unwrap();
        assert_eq!(d.winner.kind, PathKind::BTreeRange);
    }

    #[test]
    fn empty_memo_has_no_decision() {
        assert!(Memo::new(10).best().is_none());
    }
}
