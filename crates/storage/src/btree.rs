//! In-memory B+Tree with duplicate keys and linked leaves.
//!
//! This is the index structure behind every "B-Tree" setting in the
//! benchmark (paper §5.1: Time Index, Key+Time Index, Value Index). Keys are
//! generic, duplicates are allowed (a time index maps many rows to the same
//! date), and leaves are chained for cheap range scans — the access pattern
//! of `FOR SYSTEM_TIME FROM .. TO ..` queries.
//!
//! Nodes are packed: a node is split *before* the insert that would
//! overflow it, so no node vector ever holds — or, growing by doubling from
//! 4, has capacity for — more than [`MAX_KEYS`] slots, and an insert past
//! the right edge of the tree starts a fresh leaf instead of halving the
//! full one. Ascending loads (the initial load in key order, every index
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

/// Inserts into a node vector that may hold at most `limit` items, growing
/// it by doubling (from 4) but never past `limit` slots — `Vec`'s own
/// doubling would take a 16-slot split half to 32 and then to 64.
fn insert_capped<T>(v: &mut Vec<T>, pos: usize, item: T, limit: usize) {
    if v.len() == v.capacity() {
        let target = (v.capacity() * 2).clamp(4, limit);
        v.reserve_exact(target - v.len());
    }
    v.insert(pos, item);
}

#[derive(Debug, Clone)]
enum Node<K, V> {
    Internal {
        /// `keys[i]` separates `children[i]` (less or equal) from
        /// `children[i + 1]` (greater or equal).
        keys: Vec<K>,
        children: Vec<usize>,
    },
    Leaf {
        entries: Vec<(K, V)>,
        next: Option<usize>,
    },
}

/// A B+Tree multimap.
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    nodes: Vec<Node<K, V>>,
    root: usize,
    len: usize,
}

impl<K: Ord + Clone, V: Clone> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V: Clone> BPlusTree<K, V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        BPlusTree {
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
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
    /// key, child and entry vectors. `key_heap` prices what one key owns
    /// outside its own `size_of` (0 for plain integers), and is asked for
    /// leaf keys and separator copies alike.
    pub fn memory_bytes(&self, key_heap: impl Fn(&K) -> usize) -> usize {
        let arena = self.nodes.capacity() * size_of::<Node<K, V>>();
        let nodes: usize = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Internal { keys, children } => {
                    keys.capacity() * size_of::<K>()
                        + children.capacity() * size_of::<usize>()
                        + keys.iter().map(&key_heap).sum::<usize>()
                }
                Node::Leaf { entries, .. } => {
                    entries.capacity() * size_of::<(K, V)>()
                        + entries.iter().map(|(k, _)| key_heap(k)).sum::<usize>()
                }
            })
            .sum();
        arena + nodes
    }

    /// Inserts an entry. Duplicate keys are kept in insertion order.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some((sep, right)) = self.insert_into(self.root, key, value) {
            let new_root = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.nodes.push(new_root);
            self.root = self.nodes.len() - 1;
        }
        self.len += 1;
    }

    /// Recursive insert; returns `(separator, new_right_node)` on split.
    fn insert_into(&mut self, node: usize, key: K, value: V) -> Option<(K, usize)> {
        let new_idx = self.nodes.len();
        match &mut self.nodes[node] {
            Node::Leaf { entries, next } => {
                // Upper bound keeps duplicates in insertion order.
                let pos = entries.partition_point(|(k, _)| *k <= key);
                if entries.len() < MAX_KEYS {
                    insert_capped(entries, pos, (key, value), MAX_KEYS);
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
                let mut right = entries.split_off(at);
                if pos < at {
                    insert_capped(entries, pos, (key, value), MAX_KEYS);
                } else {
                    insert_capped(&mut right, pos - at, (key, value), MAX_KEYS);
                }
                let sep = right[0].0.clone();
                let right = Node::Leaf {
                    entries: right,
                    next: next.replace(new_idx),
                };
                self.nodes.push(right);
                Some((sep, new_idx))
            }
            Node::Internal { keys, children } => {
                let child_pos = keys.partition_point(|k| *k <= key);
                let child = children[child_pos];
                let (sep, right) = self.insert_into(child, key, value)?;
                let new_idx = self.nodes.len();
                let Node::Internal { keys, children } = &mut self.nodes[node] else {
                    unreachable!("node kind changed during insert");
                };
                if children.len() < MAX_KEYS {
                    insert_capped(keys, child_pos, sep, MAX_KEYS - 1);
                    insert_capped(children, child_pos + 1, right, MAX_KEYS);
                    return None;
                }
                // Full: the middle key moves up, the halves keep the rest,
                // and the new separator joins the half its child is in.
                let mid = keys.len() / 2;
                let mut right_keys = keys.split_off(mid + 1);
                let mut right_children = children.split_off(mid + 1);
                let up = keys.pop().expect("a full internal node has keys");
                if child_pos <= mid {
                    insert_capped(keys, child_pos, sep, MAX_KEYS - 1);
                    insert_capped(children, child_pos + 1, right, MAX_KEYS);
                } else {
                    insert_capped(&mut right_keys, child_pos - (mid + 1), sep, MAX_KEYS - 1);
                    insert_capped(&mut right_children, child_pos - mid, right, MAX_KEYS);
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
    fn seek(&self, key: &K, lower: bool) -> (usize, usize) {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    // For lower-bound seeks descend left of equal separators
                    // so duplicates spanning leaves are not skipped.
                    let pos = if lower {
                        keys.partition_point(|k| k < key)
                    } else {
                        keys.partition_point(|k| k <= key)
                    };
                    node = children[pos];
                }
                Node::Leaf { entries, .. } => {
                    let pos = if lower {
                        entries.partition_point(|(k, _)| k < key)
                    } else {
                        entries.partition_point(|(k, _)| k <= key)
                    };
                    return (node, pos);
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

    /// All values for `key`, in insertion order.
    pub fn get(&self, key: &K) -> Vec<V> {
        self.range((Bound::Included(key), Bound::Included(key)))
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// Iterates entries whose keys fall in `range`, in key order.
    pub fn range<'a>(
        &'a self,
        range: (Bound<&'a K>, Bound<&'a K>),
    ) -> impl Iterator<Item = (&'a K, &'a V)> + 'a {
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
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.range((Bound::Unbounded, Bound::Unbounded))
    }

    /// Removes the first entry equal to `(key, value)`. Returns true if an
    /// entry was removed.
    pub fn remove(&mut self, key: &K, value: &V) -> bool
    where
        V: PartialEq,
    {
        let (mut leaf, mut pos) = self.seek(key, true);
        loop {
            let Node::Leaf { entries, next } = &mut self.nodes[leaf] else {
                unreachable!("seek returned internal node");
            };
            if pos >= entries.len() {
                match *next {
                    Some(n) => {
                        leaf = n;
                        pos = 0;
                        continue;
                    }
                    None => return false,
                }
            }
            if entries[pos].0 != *key {
                return false;
            }
            if entries[pos].1 == *value {
                entries.remove(pos);
                self.len -= 1;
                return true;
            }
            pos += 1;
        }
    }
}

struct RangeIter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: Option<usize>,
    pos: usize,
    upper: Bound<&'a K>,
}

impl<'a, K: Ord + Clone, V: Clone> Iterator for RangeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.leaf?;
            let Node::Leaf { entries, next } = &self.tree.nodes[leaf] else {
                unreachable!("leaf chain contains internal node");
            };
            if self.pos >= entries.len() {
                self.leaf = *next;
                self.pos = 0;
                continue;
            }
            let (k, v) = &entries[self.pos];
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
            return Some((k, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_range(t: &BPlusTree<i64, u32>, lo: Bound<&i64>, hi: Bound<&i64>) -> Vec<(i64, u32)> {
        t.range((lo, hi)).map(|(k, v)| (*k, *v)).collect()
    }

    #[test]
    fn insert_and_point_lookup() {
        let mut t = BPlusTree::new();
        for i in 0..1000i64 {
            t.insert(i * 2, i as u32);
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.get(&10), vec![5]);
        assert_eq!(t.get(&11), Vec::<u32>::new());
        assert_eq!(t.get(&1998), vec![999]);
    }

    #[test]
    fn duplicates_kept_in_insertion_order() {
        let mut t = BPlusTree::new();
        for v in 0..100u32 {
            t.insert(7i64, v);
        }
        t.insert(6, 1000);
        t.insert(8, 2000);
        assert_eq!(t.get(&7), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn range_scans() {
        let mut t = BPlusTree::new();
        for i in (0..200i64).rev() {
            t.insert(i, i as u32);
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
        let mut t = BPlusTree::new();
        // Force many splits with a single hot key surrounded by others.
        for i in 0..50i64 {
            t.insert(i, 0);
        }
        for v in 1..=200u32 {
            t.insert(25, v);
        }
        let vals = t.get(&25);
        assert_eq!(vals.len(), 201);
        assert_eq!(vals[0], 0);
        assert_eq!(*vals.last().unwrap(), 200);
    }

    #[test]
    fn ordered_iteration_after_random_inserts() {
        let mut t = BPlusTree::new();
        let mut rng = bitempo_core::Pcg32::new(99, 1);
        let mut expected = Vec::new();
        for i in 0..5000u32 {
            let k = rng.int_range(0, 999);
            t.insert(k, i);
            expected.push(k);
        }
        expected.sort_unstable();
        let got: Vec<i64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn remove_specific_entries() {
        let mut t = BPlusTree::new();
        t.insert(1i64, 10u32);
        t.insert(1, 11);
        t.insert(1, 12);
        t.insert(2, 20);
        assert!(t.remove(&1, &11));
        assert_eq!(t.get(&1), vec![10, 12]);
        assert!(!t.remove(&1, &11), "already gone");
        assert!(!t.remove(&3, &0), "missing key");
        assert!(t.remove(&2, &20));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_across_leaf_boundaries() {
        let mut t = BPlusTree::new();
        for v in 0..500u32 {
            t.insert(42i64, v);
        }
        assert!(t.remove(&42, &499), "last duplicate lives in last leaf");
        assert_eq!(t.get(&42).len(), 499);
    }

    #[test]
    fn empty_tree_behaviour() {
        let t: BPlusTree<i64, u32> = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&1), Vec::<u32>::new());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn large_sequential_and_reverse_load() {
        for reverse in [false, true] {
            let mut t = BPlusTree::new();
            let keys: Vec<i64> = if reverse {
                (0..20_000).rev().collect()
            } else {
                (0..20_000).collect()
            };
            for &k in &keys {
                t.insert(k, k as u32);
            }
            assert_eq!(t.len(), 20_000);
            assert_eq!(t.get(&12_345), vec![12_345]);
            let slice = collect_range(&t, Bound::Included(&100), Bound::Excluded(&110));
            assert_eq!(slice.len(), 10);
        }
    }

    /// `(entries, leaf slots, leaves)` of a tree.
    fn leaf_stats<K, V>(t: &BPlusTree<K, V>) -> (usize, usize, usize) {
        let mut stats = (0, 0, 0);
        for node in &t.nodes {
            if let Node::Leaf { entries, .. } = node {
                stats.0 += entries.len();
                stats.1 += entries.capacity();
                stats.2 += 1;
            }
        }
        stats
    }

    /// A 24-byte key that owns heap, like the engines' `Vec<Value>` keys.
    fn wide(k: i64) -> Vec<i64> {
        vec![k]
    }

    #[test]
    fn ascending_load_fills_leaves() {
        let mut t = BPlusTree::new();
        for k in 0..50_000i64 {
            t.insert(wide(k), k as u64);
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
        // Whole tree (arena, internal nodes, separators) per 32-byte entry.
        let per_entry = t.memory_bytes(|_| 0) as f64 / entries as f64;
        assert!(per_entry <= 1.2 * 32.0, "{per_entry} B per entry");
    }

    #[test]
    fn no_node_vector_outgrows_a_node() {
        let mut rng = bitempo_core::Pcg32::new(7, 3);
        let mut t = BPlusTree::new();
        for i in 0..40_000u64 {
            t.insert(wide(rng.int_range(0, 1_000_000)), i);
        }
        for node in &t.nodes {
            match node {
                Node::Leaf { entries, .. } => assert!(entries.capacity() <= MAX_KEYS),
                Node::Internal { keys, children } => {
                    assert!(keys.capacity() < MAX_KEYS && children.capacity() <= MAX_KEYS);
                    assert_eq!(keys.len() + 1, children.len());
                }
            }
        }
        let (entries, slots, _) = leaf_stats(&t);
        assert_eq!(entries, 40_000);
        assert!(
            entries * 10 >= slots * 6,
            "random fill: {entries} in {slots} slots"
        );
        let per_entry = t.memory_bytes(|_| 0) as f64 / entries as f64;
        assert!(per_entry <= 1.6 * 32.0, "{per_entry} B per entry");
    }

    #[test]
    fn memory_bytes_prices_key_heap_for_leaves_and_separators() {
        let mut t = BPlusTree::new();
        for k in 0..1_000i64 {
            t.insert(wide(k), k as u64);
        }
        let separators = t.memory_bytes(|_| 1) - t.memory_bytes(|_| 0) - 1_000;
        assert_eq!(
            separators,
            leaf_stats(&t).2 - 1,
            "one separator per leaf boundary"
        );
    }
}
