//! In-memory B+Tree over fixed-arity composite keys, with duplicate keys and
//! linked leaves.
//!
//! This is the index structure behind every "B-Tree" setting in the
//! benchmark (paper §5.1: Time Index, Key+Time Index, Value Index). A key is
//! `arity` cells of one type, duplicates are allowed (a time index maps many
//! rows to the same date), and leaves are chained for cheap range scans —
//! the access pattern of `FOR SYSTEM_TIME FROM .. TO ..` queries.
//!
//! Keys are stored *flat*: a node holds the cells of all its keys in one
//! vector (stride = arity), a leaf holds its values in a second one beside
//! it, and no key owns an allocation. Keys go in and out as `&[C]` and
//! compare as slices, so a probe key shorter than the arity is a prefix
//! lower bound: it sorts before every key it is a prefix of.
//!
//! Nodes are packed: a node is split *before* the insert that would
//! overflow it, so no node vector ever holds — or, growing by doubling from
//! 4 keys, has capacity for — more than `MAX_KEYS` keys, and an insert
//! past the right edge of the tree starts a fresh leaf instead of halving
//! the full one. Ascending loads (the initial load in key order, every index
//! led by a system-time start) therefore leave every leaf but the last
//! full; random loads settle around the usual 2/3 fill.
//!
//! Deletion tolerates underfull leaves (no rebalancing): the engines delete
//! only when versions move from the current to the history partition, and a
//! slightly sparse leaf chain changes constants, not complexity. Separator
//! keys in internal nodes remain valid bounds after any delete.

use std::mem::size_of;
use std::ops::Bound;

/// Entries per leaf, and children per internal node, at most.
const MAX_KEYS: usize = 32;

/// Makes room for `n` more items in a node vector that may hold at most
/// `limit`, growing it by doubling (from `4 * n`) but never past `limit`
/// slots — `Vec`'s own doubling would take a 16-key split half to 32 keys
/// and then to 64.
fn grow_capped<T>(v: &mut Vec<T>, n: usize, limit: usize) {
    if v.len() + n > v.capacity() {
        let target = (v.capacity() * 2).clamp(4 * n, limit);
        v.reserve_exact(target - v.len());
    }
}

/// Inserts `item` at `pos` under the [`grow_capped`] rule.
fn insert_capped<T>(v: &mut Vec<T>, pos: usize, item: T, limit: usize) {
    grow_capped(v, 1, limit);
    v.insert(pos, item);
}

/// Inserts the cells of `key` as key number `pos` of the flat key vector
/// `cells`, under the [`grow_capped`] rule (`limit` in cells).
fn insert_key_capped<C>(
    cells: &mut Vec<C>,
    pos: usize,
    key: impl ExactSizeIterator<Item = C>,
    limit: usize,
) {
    let arity = key.len();
    grow_capped(cells, arity, limit);
    cells.extend(key);
    cells[pos * arity..].rotate_right(arity);
}

/// Inserts `(key, value)` as entry number `pos` of a leaf with room for it.
fn insert_entry<C: Clone, V>(
    cells: &mut Vec<C>,
    vals: &mut Vec<V>,
    pos: usize,
    key: &[C],
    value: V,
) {
    insert_key_capped(cells, pos, key.iter().cloned(), MAX_KEYS * key.len());
    insert_capped(vals, pos, value, MAX_KEYS);
}

/// Inserts separator number `pos` and the child to its right into an
/// internal node with room for them.
fn insert_separator<C>(
    keys: &mut Vec<C>,
    children: &mut Vec<usize>,
    pos: usize,
    sep: Vec<C>,
    right: usize,
) {
    let limit = (MAX_KEYS - 1) * sep.len();
    insert_key_capped(keys, pos, sep.into_iter(), limit);
    insert_capped(children, pos + 1, right, MAX_KEYS);
}

/// Key number `i` of a flat key vector.
fn key_at<C>(cells: &[C], arity: usize, i: usize) -> &[C] {
    &cells[i * arity..(i + 1) * arity]
}

/// How many leading keys of the sorted flat key vector `cells` satisfy
/// `pred` — `partition_point` over keys instead of cells.
fn partition_keys<C>(cells: &[C], arity: usize, pred: impl Fn(&[C]) -> bool) -> usize {
    let (mut lo, mut hi) = (0, cells.len() / arity);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(key_at(cells, arity, mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[derive(Debug, Clone)]
enum Node<C, V> {
    Internal {
        /// Key `i` separates `children[i]` (less or equal) from
        /// `children[i + 1]` (greater or equal).
        keys: Vec<C>,
        children: Vec<usize>,
    },
    Leaf {
        /// Key `i` belongs to `vals[i]`.
        cells: Vec<C>,
        vals: Vec<V>,
        next: Option<usize>,
    },
}

/// A B+Tree multimap from `arity`-cell keys to values.
#[derive(Debug, Clone)]
pub struct BPlusTree<C, V> {
    arity: usize,
    nodes: Vec<Node<C, V>>,
    root: usize,
    len: usize,
}

impl<C: Ord + Clone, V: Clone> BPlusTree<C, V> {
    /// Creates an empty tree over keys of `arity` cells (at least one).
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "a key has at least one cell");
        BPlusTree {
            arity,
            nodes: vec![Node::Leaf {
                cells: Vec::new(),
                vals: Vec::new(),
                next: None,
            }],
            root: 0,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the tree holds, by capacity: the node arena plus every node's
    /// key, child and value vectors. What a cell owns outside its own
    /// `size_of` (a string payload behind an `Arc`) is the caller's to price.
    pub fn memory_bytes(&self) -> usize {
        let arena = self.nodes.capacity() * size_of::<Node<C, V>>();
        let nodes: usize = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Internal { keys, children } => {
                    keys.capacity() * size_of::<C>() + children.capacity() * size_of::<usize>()
                }
                Node::Leaf { cells, vals, .. } => {
                    cells.capacity() * size_of::<C>() + vals.capacity() * size_of::<V>()
                }
            })
            .sum();
        arena + nodes
    }

    /// Inserts an entry under `key` (exactly `arity` cells, cloned into the
    /// leaf). Duplicate keys are kept in insertion order.
    pub fn insert(&mut self, key: &[C], value: V) {
        assert_eq!(key.len(), self.arity, "key arity");
        if let Some((sep, right)) = self.insert_into(self.root, key, value) {
            let new_root = Node::Internal {
                keys: sep,
                children: vec![self.root, right],
            };
            self.nodes.push(new_root);
            self.root = self.nodes.len() - 1;
        }
        self.len += 1;
    }

    /// Recursive insert; returns `(separator, new_right_node)` on split.
    fn insert_into(&mut self, node: usize, key: &[C], value: V) -> Option<(Vec<C>, usize)> {
        let arity = self.arity;
        let new_idx = self.nodes.len();
        match &mut self.nodes[node] {
            Node::Leaf { cells, vals, next } => {
                // Upper bound keeps duplicates in insertion order.
                let pos = partition_keys(cells, arity, |k| k <= key);
                if vals.len() < MAX_KEYS {
                    insert_entry(cells, vals, pos, key, value);
                    return None;
                }
                // Past the right edge of the tree the full leaf stays full
                // and the new entry opens the next one; anywhere else the
                // leaf halves.
                let at = if pos == MAX_KEYS && next.is_none() {
                    MAX_KEYS
                } else {
                    MAX_KEYS / 2
                };
                let mut right_cells = cells.split_off(at * arity);
                let mut right_vals = vals.split_off(at);
                if pos < at {
                    insert_entry(cells, vals, pos, key, value);
                } else {
                    insert_entry(&mut right_cells, &mut right_vals, pos - at, key, value);
                }
                let sep = right_cells[..arity].to_vec();
                let right = Node::Leaf {
                    cells: right_cells,
                    vals: right_vals,
                    next: next.replace(new_idx),
                };
                self.nodes.push(right);
                Some((sep, new_idx))
            }
            Node::Internal { keys, children } => {
                let child_pos = partition_keys(keys, arity, |k| k <= key);
                let child = children[child_pos];
                let (sep, right) = self.insert_into(child, key, value)?;
                let new_idx = self.nodes.len();
                let Node::Internal { keys, children } = &mut self.nodes[node] else {
                    unreachable!("node kind changed during insert");
                };
                if children.len() < MAX_KEYS {
                    insert_separator(keys, children, child_pos, sep, right);
                    return None;
                }
                // Full: the middle key moves up, the halves keep the rest,
                // and the new separator joins the half its child is in.
                let mid = keys.len() / arity / 2;
                let mut right_keys = keys.split_off((mid + 1) * arity);
                let mut right_children = children.split_off(mid + 1);
                let up = keys.split_off(mid * arity);
                if child_pos <= mid {
                    insert_separator(keys, children, child_pos, sep, right);
                } else {
                    let pos = child_pos - (mid + 1);
                    insert_separator(&mut right_keys, &mut right_children, pos, sep, right);
                }
                self.nodes.push(Node::Internal {
                    keys: right_keys,
                    children: right_children,
                });
                Some((up, new_idx))
            }
        }
    }

    /// The leaf that may contain `key`, and the index of the first entry
    /// `>= key` within it (following bounds semantics of `lower`).
    fn seek(&self, key: &[C], lower: bool) -> (usize, usize) {
        // For lower-bound seeks descend left of equal separators so
        // duplicates spanning leaves are not skipped.
        let before = |k: &[C]| if lower { k < key } else { k <= key };
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    node = children[partition_keys(keys, self.arity, before)];
                }
                Node::Leaf { cells, .. } => {
                    return (node, partition_keys(cells, self.arity, before));
                }
            }
        }
    }

    /// The leftmost leaf.
    fn leftmost(&self) -> usize {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Internal { children, .. } => node = children[0],
                Node::Leaf { .. } => return node,
            }
        }
    }

    /// All values under exactly `key`, in insertion order.
    pub fn get(&self, key: &[C]) -> Vec<V> {
        self.range((Bound::Included(key), Bound::Included(key)))
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// Iterates entries whose keys fall in `range`, in key order. A bound
    /// shorter than the arity is a prefix: it sorts before every key that
    /// starts with it.
    pub fn range<'a>(
        &'a self,
        range: (Bound<&'a [C]>, Bound<&'a [C]>),
    ) -> impl Iterator<Item = (&'a [C], &'a V)> + 'a {
        let (leaf, pos) = match range.0 {
            Bound::Included(k) => self.seek(k, true),
            Bound::Excluded(k) => self.seek(k, false),
            Bound::Unbounded => (self.leftmost(), 0),
        };
        RangeIter {
            tree: self,
            leaf: Some(leaf),
            pos,
            upper: range.1,
        }
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[C], &V)> + '_ {
        self.range((Bound::Unbounded, Bound::Unbounded))
    }

    /// Removes the first entry equal to `(key, value)`. Returns true if an
    /// entry was removed.
    pub fn remove(&mut self, key: &[C], value: &V) -> bool
    where
        V: PartialEq,
    {
        let arity = self.arity;
        let (mut leaf, mut pos) = self.seek(key, true);
        loop {
            let Node::Leaf { cells, vals, next } = &mut self.nodes[leaf] else {
                unreachable!("seek returned internal node");
            };
            if pos >= vals.len() {
                match *next {
                    Some(n) => {
                        leaf = n;
                        pos = 0;
                        continue;
                    }
                    None => return false,
                }
            }
            if key_at(cells, arity, pos) != key {
                return false;
            }
            if vals[pos] == *value {
                cells.drain(pos * arity..(pos + 1) * arity);
                vals.remove(pos);
                self.len -= 1;
                return true;
            }
            pos += 1;
        }
    }
}

struct RangeIter<'a, C, V> {
    tree: &'a BPlusTree<C, V>,
    leaf: Option<usize>,
    pos: usize,
    upper: Bound<&'a [C]>,
}

impl<'a, C: Ord + Clone, V: Clone> Iterator for RangeIter<'a, C, V> {
    type Item = (&'a [C], &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.leaf?;
            let Node::Leaf { cells, vals, next } = &self.tree.nodes[leaf] else {
                unreachable!("leaf chain contains internal node");
            };
            if self.pos >= vals.len() {
                self.leaf = *next;
                self.pos = 0;
                continue;
            }
            let k = key_at(cells, self.tree.arity, self.pos);
            let in_range = match self.upper {
                Bound::Included(hi) => k <= hi,
                Bound::Excluded(hi) => k < hi,
                Bound::Unbounded => true,
            };
            if !in_range {
                self.leaf = None;
                return None;
            }
            self.pos += 1;
            return Some((k, &vals[self.pos - 1]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::Value;

    fn collect_range(t: &BPlusTree<i64, u32>, lo: Bound<&i64>, hi: Bound<&i64>) -> Vec<(i64, u32)> {
        let (lo, hi) = (lo.map(std::slice::from_ref), hi.map(std::slice::from_ref));
        t.range((lo, hi)).map(|(k, v)| (k[0], *v)).collect()
    }

    #[test]
    fn insert_and_point_lookup() {
        let mut t = BPlusTree::new(1);
        for i in 0..1000i64 {
            t.insert(&[i * 2], i as u32);
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.get(&[10]), vec![5]);
        assert_eq!(t.get(&[11]), Vec::<u32>::new());
        assert_eq!(t.get(&[1998]), vec![999]);
    }

    #[test]
    fn duplicates_kept_in_insertion_order() {
        let mut t = BPlusTree::new(1);
        for v in 0..100u32 {
            t.insert(&[7i64], v);
        }
        t.insert(&[6], 1000);
        t.insert(&[8], 2000);
        assert_eq!(t.get(&[7]), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn range_scans() {
        let mut t = BPlusTree::new(1);
        for i in (0..200i64).rev() {
            t.insert(&[i], i as u32);
        }
        let r = collect_range(&t, Bound::Included(&10), Bound::Excluded(&15));
        assert_eq!(r, vec![(10, 10), (11, 11), (12, 12), (13, 13), (14, 14)]);
        let r = collect_range(&t, Bound::Excluded(&195), Bound::Unbounded);
        assert_eq!(r, vec![(196, 196), (197, 197), (198, 198), (199, 199)]);
        let r = collect_range(&t, Bound::Unbounded, Bound::Included(&2));
        assert_eq!(r, vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(t.iter().count(), 200);
    }

    #[test]
    fn range_with_duplicates_spanning_leaves() {
        let mut t = BPlusTree::new(1);
        // Force many splits with a single hot key surrounded by others.
        for i in 0..50i64 {
            t.insert(&[i], 0);
        }
        for v in 1..=200u32 {
            t.insert(&[25], v);
        }
        let vals = t.get(&[25]);
        assert_eq!(vals.len(), 201);
        assert_eq!(vals[0], 0);
        assert_eq!(*vals.last().unwrap(), 200);
    }

    #[test]
    fn a_short_bound_is_a_prefix_lower_bound() {
        // (a, b) keys with 40 duplicates of every a, so prefix groups span
        // leaves.
        let mut t = BPlusTree::new(2);
        for b in 0..40i64 {
            for a in 0..10i64 {
                t.insert(&[a, b], (a * 100 + b) as u32);
            }
        }
        let from_4: Vec<u32> = t
            .range((Bound::Included(&[4][..]), Bound::Excluded(&[5][..])))
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(from_4, (400..440).collect::<Vec<_>>());
        // A prefix sorts before its extensions: excluding it excludes
        // nothing, and as an upper bound it admits none of them.
        let first = t
            .range((Bound::Excluded(&[4][..]), Bound::Unbounded))
            .next();
        assert_eq!(first, Some((&[4, 0][..], &400)));
        let last = t
            .range((Bound::Unbounded, Bound::Included(&[4][..])))
            .last();
        assert_eq!(last, Some((&[3, 39][..], &339)));
        assert_eq!(t.get(&[4]), Vec::<u32>::new(), "get is exact, not prefix");
        assert_eq!(t.get(&[4, 7]), vec![407]);
    }

    #[test]
    fn ordered_iteration_after_random_inserts() {
        let mut t = BPlusTree::new(1);
        let mut rng = bitempo_core::Pcg32::new(99, 1);
        let mut expected = Vec::new();
        for i in 0..5000u32 {
            let k = rng.int_range(0, 999);
            t.insert(&[k], i);
            expected.push(k);
        }
        expected.sort_unstable();
        let got: Vec<i64> = t.iter().map(|(k, _)| k[0]).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn remove_specific_entries() {
        let mut t = BPlusTree::new(1);
        t.insert(&[1i64], 10u32);
        t.insert(&[1], 11);
        t.insert(&[1], 12);
        t.insert(&[2], 20);
        assert!(t.remove(&[1], &11));
        assert_eq!(t.get(&[1]), vec![10, 12]);
        assert!(!t.remove(&[1], &11), "already gone");
        assert!(!t.remove(&[3], &0), "missing key");
        assert!(t.remove(&[2], &20));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_across_leaf_boundaries() {
        let mut t = BPlusTree::new(2);
        for v in 0..500u32 {
            t.insert(&[42i64, 7], v);
        }
        assert!(
            t.remove(&[42, 7], &499),
            "last duplicate lives in last leaf"
        );
        assert_eq!(t.get(&[42, 7]).len(), 499);
        let kept: Vec<&[i64]> = t.iter().map(|(k, _)| k).collect();
        assert!(kept.iter().all(|k| *k == [42, 7]), "cells stay aligned");
    }

    #[test]
    fn empty_tree_behaviour() {
        let t: BPlusTree<i64, u32> = BPlusTree::new(1);
        assert!(t.is_empty());
        assert_eq!(t.get(&[1]), Vec::<u32>::new());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn large_sequential_and_reverse_load() {
        for reverse in [false, true] {
            let mut t = BPlusTree::new(1);
            let keys: Vec<i64> = if reverse {
                (0..20_000).rev().collect()
            } else {
                (0..20_000).collect()
            };
            for &k in &keys {
                t.insert(&[k], k as u32);
            }
            assert_eq!(t.len(), 20_000);
            assert_eq!(t.get(&[12_345]), vec![12_345]);
            let slice = collect_range(&t, Bound::Included(&100), Bound::Excluded(&110));
            assert_eq!(slice.len(), 10);
        }
    }

    /// `(entries, leaf key slots, leaves)` of a tree.
    fn leaf_stats<C, V>(t: &BPlusTree<C, V>) -> (usize, usize, usize) {
        let mut stats = (0, 0, 0);
        for node in &t.nodes {
            if let Node::Leaf { cells, vals, .. } = node {
                assert_eq!(cells.len(), vals.len() * t.arity);
                assert_eq!(cells.capacity(), vals.capacity() * t.arity);
                stats.0 += vals.len();
                stats.1 += vals.capacity();
                stats.2 += 1;
            }
        }
        stats
    }

    /// The engines' key shape: `arity` 24-byte `Value` cells, `k` leading.
    fn wide(k: i64, arity: usize) -> Vec<Value> {
        let mut key = vec![Value::Int(k)];
        key.resize(arity, Value::Int(0));
        key
    }

    #[test]
    fn ascending_load_fills_leaves() {
        for arity in 1..=3 {
            let mut t = BPlusTree::new(arity);
            for k in 0..50_000i64 {
                t.insert(&wide(k, arity), k as u64);
            }
            let (entries, slots, leaves) = leaf_stats(&t);
            assert_eq!(entries, 50_000);
            assert_eq!(
                leaves,
                50_000usize.div_ceil(MAX_KEYS),
                "every leaf but the last is full"
            );
            assert!(
                entries * 10 >= slots * 9,
                "{entries} entries in {slots} leaf slots"
            );
            // Whole tree per entry of `arity` 24-byte cells and an 8-byte
            // value. On top of the payload: the 64-byte arena node (with
            // the arena's own doubling slack) and, per 16 leaves, one
            // half-full internal node with room for 31 separators.
            let per_entry = t.memory_bytes() as f64 / entries as f64;
            let ceiling = [37.0, 63.0, 88.0][arity - 1];
            assert!(per_entry <= ceiling, "arity {arity}: {per_entry} B");
            // The same load as 8-byte integer cells — what the engines'
            // indexes hold unless a column has strings or doubles.
            let mut ints = BPlusTree::new(arity);
            for k in 0..50_000i64 {
                ints.insert(&[k, 0, 0][..arity], k as u64);
            }
            let per_entry = ints.memory_bytes() as f64 / entries as f64;
            let ceiling = [20.0, 29.0, 37.0][arity - 1];
            assert!(
                per_entry <= ceiling,
                "arity {arity}: {per_entry} B on integers"
            );
        }
    }

    #[test]
    fn no_node_vector_outgrows_a_node() {
        for arity in 1..=3 {
            let mut rng = bitempo_core::Pcg32::new(7, 3);
            let mut t = BPlusTree::new(arity);
            for i in 0..40_000u64 {
                t.insert(&wide(rng.int_range(0, 1_000_000), arity), i);
            }
            for node in &t.nodes {
                match node {
                    Node::Leaf { vals, .. } => assert!(vals.capacity() <= MAX_KEYS),
                    Node::Internal { keys, children } => {
                        assert!(keys.capacity() < MAX_KEYS * arity);
                        assert!(children.capacity() <= MAX_KEYS);
                        assert_eq!(keys.len(), (children.len() - 1) * arity);
                    }
                }
            }
            let (entries, slots, _) = leaf_stats(&t);
            assert_eq!(entries, 40_000);
            assert!(
                entries * 10 >= slots * 6,
                "random fill: {entries} in {slots} slots"
            );
            let per_entry = t.memory_bytes() as f64 / entries as f64;
            let payload = (24 * arity + 8) as f64;
            assert!(per_entry <= 1.6 * payload, "{per_entry} B per entry");
        }
    }

    #[test]
    fn memory_bytes_is_the_arena_plus_every_node_vector() {
        let mut t: BPlusTree<Value, u64> = BPlusTree::new(2);
        for k in 0..1_000i64 {
            t.insert(&wide(k, 2), k as u64);
        }
        let (_, slots, leaves) = leaf_stats(&t);
        // 1 000 ascending entries: 32 leaves under one root.
        assert_eq!(leaves, 32);
        let Node::Internal { keys, children } = &t.nodes[t.root] else {
            panic!("root of a 32-leaf tree is internal");
        };
        assert_eq!(children.len(), leaves, "one separator per leaf boundary");
        let want = t.nodes.capacity() * size_of::<Node<Value, u64>>()
            + slots * (2 * 24 + 8)
            + keys.capacity() * 24
            + children.capacity() * 8;
        assert_eq!(t.memory_bytes(), want);
    }
}
