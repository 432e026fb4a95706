//! Slotted row heap that reuses freed slots.
//!
//! The current and history partitions of the row-store engines are heaps of
//! version records. Slots are stable (a record never moves while it lives),
//! deletion frees its slot, and full scans skip free slots. The next insert
//! takes the slot freed last (a LIFO free list threaded through the free
//! slots themselves, so it costs no memory); only when none is free does
//! the array grow. A table that closes one version for every successor it
//! inserts — every sequenced update on a current table — therefore keeps
//! as many slots as it ever held live versions, not one per version it ever
//! stored. This mirrors how the paper's row stores lay out their regular
//! tables — there is nothing temporal here. An index that still names a
//! freed slot finds whatever record took it since, so its callers re-check
//! every candidate (the temporal index's probes are candidate supersets).

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

/// Ends the free list.
const NO_FREE_SLOT: u32 = u32::MAX;

/// One slot of the array: a record, or a free slot naming the next free
/// one. Where `Option<T>` has a niche to spare, the link fits beside it and
/// the slot takes no more room than `Option<T>` would (pinned for the
/// engines' records where they use the heap).
#[derive(Debug, Clone)]
enum Slot<T> {
    Full(T),
    Free(u32),
}

impl<T> Slot<T> {
    fn full(&self) -> Option<&T> {
        match self {
            Slot::Full(record) => Some(record),
            Slot::Free(_) => None,
        }
    }
}

/// An arena of records whose deleted slots the next inserts reuse.
#[derive(Debug, Clone)]
pub struct Heap<T> {
    slots: Vec<Slot<T>>,
    /// The slot freed last, the head of the free list; `NO_FREE_SLOT` when
    /// every slot is full.
    free: u32,
    /// Full slots (32 bits, as slots are: the heap stays the size of its
    /// array and one word).
    live: u32,
}

impl<T> Default for Heap<T> {
    fn default() -> Self {
        Heap {
            slots: Vec::new(),
            free: NO_FREE_SLOT,
            live: 0,
        }
    }
}

impl<T> Heap<T> {
    /// Bytes one slot of the array takes.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();

    /// Creates an empty heap.
    pub fn new() -> Heap<T> {
        Heap::default()
    }

    /// Creates an empty heap with capacity for `cap` records.
    pub fn with_capacity(cap: usize) -> Heap<T> {
        Heap {
            slots: Vec::with_capacity(cap),
            ..Heap::default()
        }
    }

    /// Stores a record in the slot freed last, or in a new slot past the
    /// last when none is free, and returns its slot.
    #[inline]
    pub fn insert(&mut self, record: T) -> SlotId {
        self.store(record).0
    }

    /// Stores a record as [`Heap::insert`] does and returns its slot with
    /// the record as stored, for a caller that indexes what it stored.
    #[inline]
    pub fn store(&mut self, record: T) -> (SlotId, &T) {
        self.live += 1;
        let id = if self.free == NO_FREE_SLOT {
            let id = SlotId(self.slots.len() as u32);
            debug_assert_ne!(id.0, NO_FREE_SLOT, "fewer than 2^32 - 1 slots");
            if self.slots.len() == self.slots.capacity() {
                self.grow();
            }
            self.slots.push(Slot::Full(record));
            id
        } else {
            let id = SlotId(self.free);
            let slot = &mut self.slots[self.free as usize];
            let Slot::Free(next) = *slot else {
                unreachable!("the free list holds only free slots");
            };
            self.free = next;
            *slot = Slot::Full(record);
            id
        };
        let Slot::Full(stored) = &self.slots[id.0 as usize] else {
            unreachable!("the slot was just filled");
        };
        (id, stored)
    }

    /// Grows the full slot array as `FIRST_BLOCK_BYTES` lays out.
    fn grow(&mut self) {
        let first = (FIRST_BLOCK_BYTES / Self::SLOT_BYTES.max(1)).max(4);
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

    /// The record in `slot`, if the slot is full.
    pub fn get(&self, slot: SlotId) -> Option<&T> {
        self.slots.get(slot.0 as usize)?.full()
    }

    /// Mutable access to the record in `slot`.
    pub fn get_mut(&mut self, slot: SlotId) -> Option<&mut T> {
        match self.slots.get_mut(slot.0 as usize)? {
            Slot::Full(record) => Some(record),
            Slot::Free(_) => None,
        }
    }

    /// Frees `slot` for the next insert and returns its record, if it was
    /// full.
    #[inline]
    pub fn remove(&mut self, slot: SlotId) -> Option<T> {
        let entry = self.slots.get_mut(slot.0 as usize)?;
        match std::mem::replace(entry, Slot::Free(self.free)) {
            Slot::Full(record) => {
                self.free = slot.0;
                self.live -= 1;
                Some(record)
            }
            free => {
                *entry = free;
                None
            }
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// True if no live records remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots in the array, full or free. This is what a table scan has to
    /// walk. Inserts take free slots before they add any, so it never
    /// exceeds the most records the heap has held live at once.
    pub fn allocated(&self) -> usize {
        self.slots.len()
    }

    /// Slots the array has room for before it grows again. A slot-indexed
    /// array kept beside the heap can follow it to this length.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Releases the slot array's capacity past its last slot (free slots
    /// stay, on the free list: slots are stable). A table calls it at a
    /// quiescent point, where it already does work proportional to the
    /// table, so that storage holds what it stores; an insert past the last
    /// slot grows the array again.
    pub fn shrink_to_fit(&mut self) {
        self.slots.shrink_to_fit();
    }

    /// Bytes of slot-array capacity past the last slot: zero after
    /// [`Heap::shrink_to_fit`] and after filling [`Heap::with_capacity`].
    pub fn spare_bytes(&self) -> usize {
        (self.slots.capacity() - self.slots.len()) * Self::SLOT_BYTES
    }

    /// Bytes the slot array holds, by capacity (free slots included).
    /// What a record owns outside its own `size_of` — row payloads behind
    /// an `Arc` — is the caller's to price.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * Self::SLOT_BYTES
    }

    /// Iterates over live records with their slots, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &T)> {
        self.iter_range(0..self.slots.len())
    }

    /// Iterates over live records whose slot index falls in `range`, in
    /// slot order. This is the chunked-access primitive behind
    /// morsel-parallel scans: slot indices are stable, so disjoint ranges
    /// partition the heap without coordination and concatenating per-range
    /// results in range order reproduces a full [`Heap::iter`] exactly.
    pub fn iter_range(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = (SlotId, &T)> {
        let end = range.end.min(self.slots.len());
        let start = range.start.min(end);
        self.slots[start..end]
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.full().map(|r| (SlotId((start + i) as u32), r)))
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
        // `store` hands back the record where it now lives.
        assert_eq!(h.store("gamma"), (SlotId(2), &"gamma"));
        h.remove(a);
        assert_eq!(h.store("delta"), (a, &"delta"), "the freed slot first");
        assert_eq!(h.len(), 3);
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
        assert!(h.memory_bytes() < 2 * 1001 * Heap::<u64>::SLOT_BYTES);
    }

    #[test]
    fn a_slot_takes_no_more_room_than_an_option() {
        assert_eq!(Heap::<u64>::SLOT_BYTES, std::mem::size_of::<Option<u64>>());
        assert_eq!(
            Heap::<Box<u64>>::SLOT_BYTES,
            16,
            "the link sits beside the niche"
        );
    }

    #[test]
    fn shrink_to_fit_keeps_slots_and_drops_the_rest() {
        let mut h = Heap::new();
        let ids: Vec<_> = (0..200u64).map(|i| h.insert(i)).collect();
        h.remove(ids[3]);
        assert!(h.spare_bytes() > 0);
        h.shrink_to_fit();
        assert_eq!(h.spare_bytes(), 0);
        let slot = Heap::<u64>::SLOT_BYTES;
        assert_eq!(h.memory_bytes(), 200 * slot);
        assert_eq!((h.len(), h.allocated()), (199, 200), "the free slot stays");
        assert_eq!(h.get(ids[199]), Some(&199));
        // The next insert takes the free slot: the array neither grows nor
        // moves.
        assert_eq!(h.insert(200), ids[3]);
        assert_eq!((h.len(), h.allocated()), (200, 200));
        assert_eq!(h.memory_bytes(), 200 * slot);
        // Only an insert past the last slot grows the array, to where
        // doubling from the first block would have put it.
        assert_eq!(h.insert(201), SlotId(200));
        assert_eq!(h.memory_bytes(), 2 * FIRST_BLOCK_BYTES / slot * slot);
    }

    #[test]
    fn reuse_is_last_freed_first() {
        let mut h = Heap::new();
        let ids: Vec<_> = (0..6u64).map(|i| h.insert(i)).collect();
        for i in [1, 4, 2] {
            h.remove(ids[i]);
        }
        let reused: Vec<_> = (10..14u64).map(|v| h.insert(v)).collect();
        assert_eq!(reused, vec![ids[2], ids[4], ids[1], SlotId(6)]);
        assert_eq!(h.get(ids[4]), Some(&11));
        assert_eq!(h.allocated(), 7);
    }

    /// A seeded mix of inserts and removes against a map of the live
    /// records: iteration yields exactly the live set in slot order, and
    /// the array never holds more slots than the most records ever live.
    #[test]
    fn iteration_is_the_live_set_and_the_array_stays_at_the_peak() {
        let mut h = Heap::new();
        let mut live = std::collections::BTreeMap::new();
        let (mut peak, mut state) = (0, 0x2545_f491_4f6c_dd1d_u64);
        for step in 0..5_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Removes outnumber inserts for a while, then the reverse, so
            // the free list both runs dry and grows long.
            let removing = (step / 1_000) % 2 == 1;
            if !live.is_empty() && state % 8 < if removing { 5 } else { 3 } {
                let nth = (state >> 8) as usize % live.len();
                let slot = *live.keys().nth(nth).unwrap();
                assert_eq!(h.remove(slot), live.remove(&slot));
                assert_eq!(h.remove(slot), None, "a free slot holds nothing");
            } else {
                let slot = h.insert(step);
                assert_eq!(
                    live.insert(slot, step),
                    None,
                    "a full slot is never handed out"
                );
            }
            peak = peak.max(live.len());
            assert!(h.allocated() <= peak, "step {step}");
            assert_eq!(h.len(), live.len());
        }
        let seen: Vec<_> = h.iter().map(|(s, v)| (s, *v)).collect();
        assert_eq!(seen, live.into_iter().collect::<Vec<_>>());
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
        assert_eq!(h.allocated(), 2, "a free slot stays in the array");
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
        assert_eq!(h.memory_bytes(), 100 * Heap::<u64>::SLOT_BYTES);
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
