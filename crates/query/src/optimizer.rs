//! Cost-based access-path selection.
//!
//! The engines' per-partition scan used to pick its access path with a
//! priority-ordered if-chain gated on a single hard-coded selectivity
//! threshold — exactly the misplanning regime the paper observed: *"for
//! many workloads these indexes go unused, since they only work on very
//! selective workloads"* (§5.9), and plans flip between index lookups and
//! table scans on small estimate changes (§5.4.1). This module replaces the
//! threshold with a cost model: every physical path the planner knows
//! (sequential scan, primary-key lookup, B-Tree range, GiST rectangle
//! probe, temporal-index probe) is a [`PathKind`], costed by
//! [`PathKind::cost`] from the partition's row count and the
//! estimator-supplied candidate fraction. The planner keeps the cheapest
//! path it has been offered ([`PathKind::beats`]).
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

/// The physical path families a partition scan can take, listed from least
/// to most specific. The declaration order is the tie-break: at equal cost
/// the more specific (greater) path wins, which is the legacy planner's
/// priority order (key lookup > temporal probe > B-Tree > GiST >
/// sequential). In particular a temporal probe still underbids a B-Tree
/// range at *equal* estimated fraction — the old `<=` tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// What a path is estimated to cost on one partition.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Rows the estimate predicts the path visits.
    pub est_rows: u64,
    /// Total estimated work.
    pub work: f64,
}

impl PathKind {
    /// Costs this path on a partition of `rows` live versions, given the
    /// estimated fraction of them it would visit. A sequential scan visits
    /// every row and ignores `fraction`; the other paths clamp it to
    /// `[0, 1]`.
    pub fn cost(self, fraction: f64, rows: usize) -> Cost {
        let n = rows as f64;
        let startup = NODE_VISIT * (n + 1.0).log2();
        let fraction = match self {
            PathKind::SeqScan => 1.0,
            _ => fraction.clamp(0.0, 1.0),
        };
        let est = (fraction * n).ceil().max(0.0);
        let work = match self {
            PathKind::SeqScan => SEQ_ROW * n,
            PathKind::KeyLookup => KEY_ROW * est,
            PathKind::BTreeRange | PathKind::TemporalProbe => startup + PROBE_ROW * est,
            PathKind::GistProbe => startup + GIST_ROW * est,
        };
        Cost {
            est_rows: est as u64,
            work,
        }
    }

    /// True when this path at `cost` should replace the incumbent `best` at
    /// `best_cost`: it does strictly less work, or equal work on a more
    /// specific path. A full tie keeps the incumbent, so among equals the
    /// path offered first wins.
    pub fn beats(self, cost: Cost, best: PathKind, best_cost: Cost) -> bool {
        cost.work
            .total_cmp(&best_cost.work)
            .then(best.cmp(&self))
            .is_lt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PathKind::*;

    /// The path and cost a planner keeps when offered `paths` in order.
    fn best(rows: usize, paths: &[(PathKind, f64)]) -> (PathKind, Cost) {
        let (first, f) = paths[0];
        paths[1..]
            .iter()
            .fold((first, first.cost(f, rows)), |b, &(kind, f)| {
                let cost = kind.cost(f, rows);
                if kind.beats(cost, b.0, b.1) {
                    (kind, cost)
                } else {
                    b
                }
            })
    }

    #[test]
    fn selective_probe_beats_seq_and_crossover_flips() {
        let (kind, cost) = best(1000, &[(SeqScan, 1.0), (TemporalProbe, 0.01)]);
        assert_eq!(kind, TemporalProbe);
        assert_eq!(cost.est_rows, 10);

        let (kind, _) = best(1000, &[(SeqScan, 1.0), (TemporalProbe, 0.9)]);
        assert_eq!(kind, SeqScan);
    }

    #[test]
    fn btree_vs_tindex_tie_resolves_to_tindex() {
        // Equal fractions -> equal cost -> the legacy `<=` tie-break is
        // preserved through the declaration order.
        let paths = [(SeqScan, 1.0), (BTreeRange, 0.01), (TemporalProbe, 0.01)];
        assert_eq!(best(1000, &paths).0, TemporalProbe);
        // A strictly cheaper B-Tree wins on cost, not specificity.
        let paths = [(SeqScan, 1.0), (BTreeRange, 0.005), (TemporalProbe, 0.01)];
        assert_eq!(best(1000, &paths).0, BTreeRange);
    }

    #[test]
    fn key_lookup_never_loses_to_seq() {
        // Even on a tiny partition the exact probe wins (est rows <= n and
        // key_row == seq_row, with specificity breaking the tie).
        assert_eq!(best(3, &[(SeqScan, 1.0), (KeyLookup, 1.0)]).0, KeyLookup);
    }

    #[test]
    fn gist_costs_more_per_row_than_btree() {
        assert_eq!(
            best(1000, &[(BTreeRange, 0.05), (GistProbe, 0.05)]).0,
            BTreeRange
        );
    }
}
