//! Append-only slotted row heap.
//!
//! The current and history partitions of the row-store engines are heaps of
//! version records. Slots are stable (a record never moves), deletion leaves
//! a tombstone, and full scans skip tombstones. This mirrors how the paper's
//! row stores lay out their regular tables — there is nothing temporal here.

/// Stable identifier of a record within one heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

/// Bytes of the slot array's first block. `Vec` would start at 4 slots, a
/// block small enough to come out of the allocator's per-thread cache of
/// recently freed blocks — which may hand the thread a block of *another*
/// thread's arena (one it freed on that thread's behalf). The array then
/// stays in that arena through every `realloc`, and what its doublings
/// leave behind there is out of reach of everything else the owning thread
/// allocates: recovery of a served engine held ~1 MiB more when that
/// happened, and whether it happened varied from run to run. A block this
/// size is carved from the allocating thread's own arena. An array smaller
/// than it (sized exactly by [`Heap::with_capacity`] or trimmed by
/// [`Heap::shrink_to_fit`]) grows into a fresh first block, not by
/// `realloc`, for the same reason.
///
/// A full array grows to the first block times the least power of two that
/// holds one more slot: doubling from the first block, as `Vec` would, and
/// after an exact sizing or a trim to where that doubling would have put
/// it, so a table's capacity does not depend on when it was last trimmed.
const FIRST_BLOCK_BYTES: usize = 2048;

/// An append-only arena of records with tombstone deletion.
#[derive(Debug, Clone)]
pub struct Heap<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Default for Heap<T> {
    fn default() -> Self {
        Heap {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<T> Heap<T> {
    /// Creates an empty heap.
    pub fn new() -> Heap<T> {
        Heap::default()
    }

    /// Creates an empty heap with capacity for `cap` records.
    pub fn with_capacity(cap: usize) -> Heap<T> {
        Heap {
            slots: Vec::with_capacity(cap),
            live: 0,
        }
    }

    /// Appends a record and returns its slot.
    pub fn insert(&mut self, record: T) -> SlotId {
        let id = SlotId(self.slots.len() as u32);
        if self.slots.len() == self.slots.capacity() {
            self.grow();
        }
        self.slots.push(Some(record));
        self.live += 1;
        id
    }

    /// Grows the full slot array as `FIRST_BLOCK_BYTES` lays out.
    fn grow(&mut self) {
        let first = (FIRST_BLOCK_BYTES / std::mem::size_of::<Option<T>>().max(1)).max(4);
        let len = self.slots.len();
        let mut cap = first;
        while cap <= len {
            cap *= 2;
        }
        if len < first {
            let mut block = Vec::with_capacity(cap);
            block.append(&mut self.slots);
            self.slots = block;
        } else {
            self.slots.reserve_exact(cap - len);
        }
    }

    /// The record in `slot`, if it has not been deleted.
    pub fn get(&self, slot: SlotId) -> Option<&T> {
        self.slots.get(slot.0 as usize)?.as_ref()
    }

    /// Mutable access to the record in `slot`.
    pub fn get_mut(&mut self, slot: SlotId) -> Option<&mut T> {
        self.slots.get_mut(slot.0 as usize)?.as_mut()
    }

    /// Tombstones `slot` and returns the record, if it was live.
    pub fn remove(&mut self, slot: SlotId) -> Option<T> {
        let r = self.slots.get_mut(slot.0 as usize)?.take();
        if r.is_some() {
            self.live -= 1;
        }
        r
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live records remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + tombstoned). This is what a table
    /// scan has to walk, which is why deletes do not make scans cheaper —
    /// an effect the history tables in the paper exhibit too.
    pub fn allocated(&self) -> usize {
        self.slots.len()
    }

    /// Releases the slot array's capacity past its last slot (tombstones
    /// stay: slots are stable). A table calls it at a quiescent point, where
    /// it already does work proportional to the table, so that storage
    /// holds what it stores; the next insert grows the array again.
    pub fn shrink_to_fit(&mut self) {
        self.slots.shrink_to_fit();
    }

    /// Bytes of slot-array capacity past the last slot: zero after
    /// [`Heap::shrink_to_fit`] and after filling [`Heap::with_capacity`].
    pub fn spare_bytes(&self) -> usize {
        (self.slots.capacity() - self.slots.len()) * std::mem::size_of::<Option<T>>()
    }

    /// Bytes the slot array holds, by capacity (tombstones included).
    /// What a record owns outside its own `size_of` — row payloads behind
    /// an `Arc` — is the caller's to price.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<T>>()
    }

    /// Iterates over live records with their slots, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &T)> {
        self.iter_range(0..self.slots.len())
    }

    /// Iterates over live records whose slot index falls in `range`, in
    /// insertion order. This is the chunked-access primitive behind
    /// morsel-parallel scans: slot indices are stable, so disjoint ranges
    /// partition the heap without coordination and concatenating per-range
    /// results in range order reproduces a full [`Heap::iter`] exactly.
    pub fn iter_range(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = (SlotId, &T)> {
        let end = range.end.min(self.slots.len());
        let start = range.start.min(end);
        self.slots[start..end]
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|r| (SlotId((start + i) as u32), r)))
    }
}

impl<'a, T> IntoIterator for &'a Heap<T> {
    type Item = (SlotId, &'a T);
    type IntoIter = Box<dyn Iterator<Item = (SlotId, &'a T)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut h = Heap::new();
        let a = h.insert("alpha");
        let b = h.insert("beta");
        assert_eq!(h.get(a), Some(&"alpha"));
        assert_eq!(h.get(b), Some(&"beta"));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn first_insert_takes_the_first_block() {
        let mut h = Heap::new();
        assert_eq!(h.memory_bytes(), 0);
        h.insert(7u64);
        assert_eq!(h.memory_bytes(), FIRST_BLOCK_BYTES);
        // From there the array doubles as any `Vec` does.
        for i in 0..1000u64 {
            h.insert(i);
        }
        assert!(h.memory_bytes() < 2 * 1001 * std::mem::size_of::<Option<u64>>());
    }

    #[test]
    fn shrink_to_fit_keeps_slots_and_drops_the_rest() {
        let mut h = Heap::new();
        let ids: Vec<_> = (0..200u64).map(|i| h.insert(i)).collect();
        h.remove(ids[3]);
        assert!(h.spare_bytes() > 0);
        h.shrink_to_fit();
        assert_eq!(h.spare_bytes(), 0);
        let slot = std::mem::size_of::<Option<u64>>();
        assert_eq!(h.memory_bytes(), 200 * slot);
        assert_eq!((h.len(), h.allocated()), (199, 200), "the tombstone stays");
        assert_eq!(h.get(ids[199]), Some(&199));
        // The next insert grows the array to where doubling from the first
        // block would have put it.
        assert_eq!(h.insert(200), SlotId(200));
        assert_eq!(h.memory_bytes(), 2 * FIRST_BLOCK_BYTES / slot * slot);
    }

    #[test]
    fn an_array_below_the_first_block_grows_into_it() {
        let mut h = Heap::with_capacity(3);
        for i in 0..3u64 {
            h.insert(i);
        }
        assert_eq!(h.spare_bytes(), 0, "sized exactly");
        h.insert(3);
        assert_eq!(h.memory_bytes(), FIRST_BLOCK_BYTES);
        let seen: Vec<_> = h.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn remove_tombstones() {
        let mut h = Heap::new();
        let a = h.insert(1);
        let b = h.insert(2);
        assert_eq!(h.remove(a), Some(1));
        assert_eq!(h.remove(a), None, "double remove is a no-op");
        assert_eq!(h.get(a), None);
        assert_eq!(h.len(), 1);
        assert_eq!(h.allocated(), 2, "tombstones still occupy slots");
        assert_eq!(h.get(b), Some(&2));
    }

    #[test]
    fn iter_skips_tombstones_preserves_order() {
        let mut h = Heap::new();
        let ids: Vec<_> = (0..5).map(|i| h.insert(i * 10)).collect();
        h.remove(ids[1]);
        h.remove(ids[3]);
        let seen: Vec<_> = h.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![0, 20, 40]);
    }

    #[test]
    fn iter_range_partitions_exactly() {
        let mut h = Heap::new();
        let ids: Vec<_> = (0..10).map(|i| h.insert(i)).collect();
        h.remove(ids[2]);
        h.remove(ids[7]);
        // Disjoint ranges concatenated in order == full iteration.
        let full: Vec<_> = h.iter().map(|(s, v)| (s, *v)).collect();
        let mut chunked = Vec::new();
        for start in (0..h.allocated()).step_by(3) {
            chunked.extend(h.iter_range(start..start + 3).map(|(s, v)| (s, *v)));
        }
        assert_eq!(chunked, full);
        // Out-of-bounds ranges are clamped, not panicking.
        assert_eq!(h.iter_range(8..100).count(), 2);
        assert_eq!(h.iter_range(50..60).count(), 0);
    }

    #[test]
    fn memory_bytes_counts_capacity_and_tombstones() {
        let mut h: Heap<u64> = Heap::with_capacity(100);
        let a = h.insert(1);
        h.remove(a);
        assert_eq!(h.memory_bytes(), 100 * std::mem::size_of::<Option<u64>>());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut h = Heap::new();
        let a = h.insert(vec![1, 2]);
        h.get_mut(a).unwrap().push(3);
        assert_eq!(h.get(a), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn out_of_range_slot_is_none() {
        let h: Heap<i32> = Heap::new();
        assert_eq!(h.get(SlotId(99)), None);
        assert!(h.is_empty());
    }
}
