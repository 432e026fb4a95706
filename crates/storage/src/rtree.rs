//! An R-Tree over period rectangles — the GiST stand-in.
//!
//! PostgreSQL (System D in the paper) can index periods with GiST, whose
//! default operator class builds an R-Tree over intervals. A bitemporal
//! version is a rectangle in the (application time × system time) plane, so
//! intersection queries answer "all versions overlapping this time window"
//! directly. The paper found GiST consistently *slower* than B-Trees for
//! these workloads (§5.3.2) — reproducing that requires a faithful R-Tree,
//! not a strawman, so this is a standard quadratic-split Guttman R-Tree.

use std::mem::size_of;

/// An axis-aligned rectangle with inclusive integer coordinates.
///
/// Periods map their half-open `[start, end)` to `[start, end - 1]`.
/// One-dimensional (single period) indexes set the y-axis to `0..=0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Minimum x (e.g. application-time start).
    pub x_min: i64,
    /// Maximum x, inclusive.
    pub x_max: i64,
    /// Minimum y (e.g. system-time start).
    pub y_min: i64,
    /// Maximum y, inclusive.
    pub y_max: i64,
}

impl Rect {
    /// Creates a rectangle.
    pub fn new(x_min: i64, x_max: i64, y_min: i64, y_max: i64) -> Rect {
        Rect {
            x_min,
            x_max,
            y_min,
            y_max,
        }
    }

    /// A 1-D interval `[lo, hi]` embedded on the x-axis.
    pub fn interval(lo: i64, hi: i64) -> Rect {
        Rect::new(lo, hi, 0, 0)
    }

    /// A degenerate point rectangle.
    pub fn point(x: i64, y: i64) -> Rect {
        Rect::new(x, x, y, y)
    }

    /// True if the rectangle contains no point: some axis is inverted
    /// (`min > max`). A half-open period `[s, e)` with `e <= s` converts to
    /// exactly such a rectangle (`[s, e - 1]` with `e - 1 < s`), so empty
    /// query periods become empty rectangles.
    pub fn is_empty(&self) -> bool {
        self.x_min > self.x_max || self.y_min > self.y_max
    }

    /// True if the rectangles share any point. Inclusive on both ends —
    /// rectangles touching only at an edge *do* intersect, which is why
    /// half-open periods must be converted with `end - 1` before indexing
    /// (see [`Rect`] docs). An empty rectangle (inverted axis) intersects
    /// nothing: the coordinate comparisons alone would spuriously accept
    /// `other` ranges that straddle the inversion point.
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.x_min <= other.x_max
            && other.x_min <= self.x_max
            && self.y_min <= other.y_max
            && other.y_min <= self.y_max
    }

    /// The smallest rectangle covering both.
    #[must_use]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x_min: self.x_min.min(other.x_min),
            x_max: self.x_max.max(other.x_max),
            y_min: self.y_min.min(other.y_min),
            y_max: self.y_max.max(other.y_max),
        }
    }

    /// Semi-perimeter based "area" used by the split heuristics. Saturating
    /// so sentinel-valued coordinates (`i64::MAX` period ends) stay finite.
    fn measure(&self) -> u64 {
        let w = self.x_max.saturating_sub(self.x_min).max(0) as u64;
        let h = self.y_max.saturating_sub(self.y_min).max(0) as u64;
        w.saturating_add(h)
    }

    /// How much `self` must grow to cover `other`.
    fn enlargement(&self, other: &Rect) -> u64 {
        self.union(other).measure().saturating_sub(self.measure())
    }
}

const MAX_ENTRIES: usize = 16;
const MIN_ENTRIES: usize = 4;

/// Per-level node budget of [`RTree::estimate_fraction`]'s sampled descent.
const ESTIMATE_NODE_CAP: usize = 8;

#[derive(Debug, Clone)]
struct Entry<T> {
    rect: Rect,
    payload: Payload<T>,
}

#[derive(Debug, Clone)]
enum Payload<T> {
    Child(usize),
    Leaf(T),
}

#[derive(Debug, Clone)]
struct RNode<T> {
    entries: Vec<Entry<T>>,
    is_leaf: bool,
}

/// An empty node vector sized for a whole node: [`MAX_ENTRIES`] and the one
/// entry that overflows it into a split. Allocated once — `Vec`'s own
/// doubling would go 4, 8, 16 and take the 17th entry to 32.
fn node_entries<T>() -> Vec<Entry<T>> {
    Vec::with_capacity(MAX_ENTRIES + 1)
}

/// A Guttman R-Tree with quadratic split.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    nodes: Vec<RNode<T>>,
    root: usize,
    len: usize,
}

impl<T: Clone> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree {
            nodes: vec![RNode {
                entries: node_entries(),
                is_leaf: true,
            }],
            root: 0,
            len: 0,
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the tree holds, by capacity: the node arena plus every node's
    /// entry vector.
    pub fn memory_bytes(&self) -> usize {
        let entries: usize = self.nodes.iter().map(|n| n.entries.capacity()).sum();
        self.nodes.capacity() * size_of::<RNode<T>>() + entries * size_of::<Entry<T>>()
    }

    /// Inserts `value` under `rect`.
    pub fn insert(&mut self, rect: Rect, value: T) {
        if let Some((r1, n1, r2, n2)) = self.insert_into(self.root, rect, value) {
            let mut entries = node_entries();
            entries.extend([(r1, n1), (r2, n2)].map(|(rect, child)| Entry {
                rect,
                payload: Payload::Child(child),
            }));
            self.nodes.push(RNode {
                entries,
                is_leaf: false,
            });
            self.root = self.nodes.len() - 1;
        }
        self.len += 1;
    }

    /// Recursive insert; on split returns both halves' bounding rects/ids.
    fn insert_into(
        &mut self,
        node: usize,
        rect: Rect,
        value: T,
    ) -> Option<(Rect, usize, Rect, usize)> {
        if self.nodes[node].is_leaf {
            self.nodes[node].entries.push(Entry {
                rect,
                payload: Payload::Leaf(value),
            });
            if self.nodes[node].entries.len() > MAX_ENTRIES {
                return Some(self.split(node));
            }
            return None;
        }
        // Choose the child needing least enlargement (ties: smaller rect).
        let best = self.nodes[node]
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.rect.enlargement(&rect), e.rect.measure()))
            .map(|(i, _)| i)
            .expect("internal node has children");
        let child = match self.nodes[node].entries[best].payload {
            Payload::Child(c) => c,
            Payload::Leaf(_) => unreachable!("leaf payload in internal node"),
        };
        self.nodes[node].entries[best].rect = self.nodes[node].entries[best].rect.union(&rect);
        if let Some((r1, n1, r2, n2)) = self.insert_into(child, rect, value) {
            // Replace the split child entry with the two halves.
            self.nodes[node].entries[best] = Entry {
                rect: r1,
                payload: Payload::Child(n1),
            };
            self.nodes[node].entries.push(Entry {
                rect: r2,
                payload: Payload::Child(n2),
            });
            if self.nodes[node].entries.len() > MAX_ENTRIES {
                return Some(self.split(node));
            }
        }
        None
    }

    /// Quadratic split (Guttman 1984).
    fn split(&mut self, node: usize) -> (Rect, usize, Rect, usize) {
        let is_leaf = self.nodes[node].is_leaf;
        let entries = std::mem::take(&mut self.nodes[node].entries);

        // Pick the two seeds wasting the most area if grouped together.
        let (mut seed_a, mut seed_b, mut worst) = (0, 1, 0u64);
        for i in 0..entries.len() {
            for j in (i + 1)..entries.len() {
                let waste = entries[i]
                    .rect
                    .union(&entries[j].rect)
                    .measure()
                    .saturating_sub(entries[i].rect.measure())
                    .saturating_sub(entries[j].rect.measure());
                if waste >= worst {
                    worst = waste;
                    seed_a = i;
                    seed_b = j;
                }
            }
        }

        let mut group_a = node_entries();
        let mut group_b = node_entries();
        let mut rect_a = entries[seed_a].rect;
        let mut rect_b = entries[seed_b].rect;
        for (i, e) in entries.into_iter().enumerate() {
            if i == seed_a {
                group_a.push(e);
            } else if i == seed_b {
                group_b.push(e);
            } else if group_a.len() + MIN_ENTRIES > MAX_ENTRIES {
                // Force remaining into B to respect the minimum fill.
                rect_b = rect_b.union(&e.rect);
                group_b.push(e);
            } else if group_b.len() + MIN_ENTRIES > MAX_ENTRIES
                || rect_a.enlargement(&e.rect) <= rect_b.enlargement(&e.rect)
            {
                rect_a = rect_a.union(&e.rect);
                group_a.push(e);
            } else {
                rect_b = rect_b.union(&e.rect);
                group_b.push(e);
            }
        }

        self.nodes[node] = RNode {
            entries: group_a,
            is_leaf,
        };
        self.nodes.push(RNode {
            entries: group_b,
            is_leaf,
        });
        let new_idx = self.nodes.len() - 1;
        (rect_a, node, rect_b, new_idx)
    }

    /// Removes one entry holding `value` under exactly `rect`; returns
    /// whether there was one. Nodes are not condensed: a bounding rectangle
    /// may stay larger than what is left under it, which probes tolerate,
    /// as they test every leaf rectangle.
    pub fn remove(&mut self, rect: &Rect, value: &T) -> bool
    where
        T: PartialEq,
    {
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            let entries = &mut self.nodes[node].entries;
            for (i, e) in entries.iter().enumerate() {
                match &e.payload {
                    Payload::Child(c) if e.rect.union(rect) == e.rect => stack.push(*c),
                    Payload::Leaf(v) if e.rect == *rect && v == value => {
                        entries.remove(i);
                        self.len -= 1;
                        return true;
                    }
                    _ => {}
                }
            }
        }
        false
    }

    /// All values whose rectangle intersects `query`. Counts every tree
    /// entry examined (internal and leaf) into `visits` — the probe-work
    /// number scan metrics report.
    pub fn search(&self, query: &Rect, visits: &mut u64) -> Vec<T> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            for e in &self.nodes[node].entries {
                *visits += 1;
                if e.rect.intersects(query) {
                    match &e.payload {
                        Payload::Child(c) => stack.push(*c),
                        Payload::Leaf(v) => out.push(v.clone()),
                    }
                }
            }
        }
        out
    }

    /// Estimated fraction of indexed rectangles intersecting `query`, from
    /// a bounded sampled descent: at each level, the fraction of entries
    /// whose MBR intersects the query multiplies into the running estimate;
    /// at most `ESTIMATE_NODE_CAP` intersecting children are descended
    /// into per level, with unsampled intersecting subtrees assumed to
    /// match at the sampled mean. Cost is `O(cap * fanout * depth)` — far
    /// below a probe — and the result is deterministic (the sample is the
    /// first `cap` intersecting entries in tree order).
    pub fn estimate_fraction(&self, query: &Rect) -> f64 {
        if self.len == 0 || query.is_empty() {
            return 0.0;
        }
        let mut frontier = vec![self.root];
        let mut frac = 1.0_f64;
        loop {
            let mut total = 0usize;
            let mut leaf_hits = 0usize;
            let mut children = Vec::new();
            let mut leaf_level = false;
            for &n in &frontier {
                let node = &self.nodes[n];
                leaf_level |= node.is_leaf;
                for e in &node.entries {
                    total += 1;
                    if e.rect.intersects(query) {
                        match &e.payload {
                            Payload::Child(c) => children.push(*c),
                            Payload::Leaf(_) => leaf_hits += 1,
                        }
                    }
                }
            }
            if total == 0 {
                return 0.0;
            }
            if leaf_level {
                return (frac * leaf_hits as f64 / total as f64).clamp(0.0, 1.0);
            }
            frac *= children.len() as f64 / total as f64;
            if children.is_empty() {
                return 0.0;
            }
            children.truncate(ESTIMATE_NODE_CAP);
            frontier = children;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_predicates() {
        let a = Rect::new(0, 10, 0, 10);
        let b = Rect::new(10, 20, 5, 15);
        let c = Rect::new(11, 20, 0, 10);
        assert!(a.intersects(&b), "touching edges intersect (inclusive)");
        assert!(!a.intersects(&c));
        assert_eq!(a.union(&c), Rect::new(0, 20, 0, 10));
        assert!(Rect::point(5, 5).intersects(&a));
    }

    #[test]
    fn empty_rects_intersect_nothing() {
        let a = Rect::new(0, 10, 0, 10);
        // An empty half-open period [5, 5) converts to [5, 4]: inverted.
        let empty_x = Rect::new(5, 4, 0, 10);
        let empty_y = Rect::new(0, 10, 5, 4);
        assert!(empty_x.is_empty());
        assert!(empty_y.is_empty());
        assert!(!a.is_empty());
        // Raw coordinate comparisons would accept these (5 <= 10 && 0 <= 4),
        // matching versions that straddle the inversion point.
        assert!(!empty_x.intersects(&a), "empty query rect matches nothing");
        assert!(!a.intersects(&empty_x), "in either operand position");
        assert!(!empty_y.intersects(&a));
        assert!(!empty_x.intersects(&empty_y));
        // Degenerate-but-nonempty rects (points) still behave.
        assert!(!Rect::point(5, 5).is_empty());
    }

    #[test]
    fn insert_and_search_small() {
        let mut t = RTree::new();
        t.insert(Rect::interval(0, 9), "a");
        t.insert(Rect::interval(10, 19), "b");
        t.insert(Rect::interval(5, 14), "c");
        let mut hits = t.search(&Rect::interval(8, 11), &mut 0);
        hits.sort_unstable();
        assert_eq!(hits, vec!["a", "b", "c"]);
        let hits = t.search(&Rect::interval(30, 40), &mut 0);
        assert!(hits.is_empty());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn search_matches_linear_scan() {
        let mut t = RTree::new();
        let mut rng = bitempo_core::Pcg32::new(17, 4);
        let mut rects = Vec::new();
        for i in 0..2000u32 {
            let x = rng.int_range(0, 10_000);
            let w = rng.int_range(0, 500);
            let y = rng.int_range(0, 1_000);
            let h = rng.int_range(0, 100);
            let r = Rect::new(x, x + w, y, y + h);
            t.insert(r, i);
            rects.push(r);
        }
        for _ in 0..50 {
            let x = rng.int_range(0, 10_000);
            let y = rng.int_range(0, 1_000);
            let q = Rect::new(x, x + 300, y, y + 50);
            let mut got = t.search(&q, &mut 0);
            got.sort_unstable();
            let mut expected: Vec<u32> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.intersects(&q))
                .map(|(i, _)| i as u32)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn no_node_vector_outgrows_a_node() {
        let mut t = RTree::new();
        let mut rng = bitempo_core::Pcg32::new(5, 9);
        for i in 0..20_000u64 {
            let (x, y) = (rng.int_range(0, 100_000), rng.int_range(0, 20_000));
            t.insert(Rect::new(x, x + rng.int_range(0, 300), y, y + 1), i);
        }
        let mut leaf_entries = 0;
        for node in &t.nodes {
            assert!(node.entries.len() <= MAX_ENTRIES);
            assert_eq!(node.entries.capacity(), MAX_ENTRIES + 1);
            leaf_entries += if node.is_leaf { node.entries.len() } else { 0 };
        }
        assert_eq!(leaf_entries, 20_000);
        // Capacity-true: the arena and 17 slots of 48 B per node, which at
        // the quadratic split's ~60 % fill is some 90 B per 48 B entry.
        let want = t.nodes.capacity() * size_of::<RNode<u64>>() + t.nodes.len() * 17 * 48;
        assert_eq!(t.memory_bytes(), want);
        let per_entry = t.memory_bytes() / t.len();
        assert!(per_entry <= 110, "{per_entry} B per entry");
    }

    #[test]
    fn sentinel_coordinates_do_not_overflow() {
        let mut t = RTree::new();
        // Open-ended periods map to i64::MAX - 1 upper bounds.
        for i in 0..100i64 {
            t.insert(Rect::new(i, i64::MAX - 1, 0, 0), i);
        }
        let hits = t.search(&Rect::point(1_000_000, 0), &mut 0);
        assert_eq!(hits.len(), 100, "all open periods cover any future point");
    }
}
