//! Open versions per key, for the engines that keep no primary-key index.
//!
//! Systems A and B answer "which open versions does key *k* have" from the
//! system-defined PK index their archetype maintains on the current table
//! anyway. Systems C and D have no such index by archetype — a column store
//! that scans, and an application simulating temporal tables on a plain
//! RDBMS — so they carry this map instead: the bookkeeping sequenced DML
//! needs to resolve its victims without scanning.

use bitempo_core::Key;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::mem::size_of;

/// The open slots of one key, in insertion order. Nearly every key has
/// exactly one open version; only `FOR PORTION OF` splits (and keyless
/// tables) put several under one key, and only those pay for a vector.
#[derive(Debug, Clone)]
enum Slots {
    One(u64),
    Many(Vec<u64>),
}

impl Slots {
    fn as_slice(&self) -> &[u64] {
        match self {
            Slots::One(slot) => std::slice::from_ref(slot),
            Slots::Many(slots) => slots,
        }
    }
}

/// `Key → open slots`, holding no entry for a key without open versions.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyMap {
    map: HashMap<Key, Slots>,
    /// Open versions over all keys.
    open: usize,
}

impl KeyMap {
    /// Records `slot` as the newest open version of `key`.
    pub(crate) fn insert(&mut self, key: Key, slot: u64) {
        self.open += 1;
        match self.map.entry(key) {
            Entry::Vacant(e) => {
                e.insert(Slots::One(slot));
            }
            Entry::Occupied(mut e) => match e.get_mut() {
                Slots::Many(slots) => slots.push(slot),
                Slots::One(first) => *e.get_mut() = Slots::Many(vec![*first, slot]),
            },
        }
    }

    /// Forgets `slot` under `key`; the key goes with its last slot.
    pub(crate) fn remove(&mut self, key: &Key, slot: u64) {
        let Some(slots) = self.map.get_mut(key) else {
            return;
        };
        let before = slots.as_slice().len();
        if let Slots::Many(many) = slots {
            many.retain(|&s| s != slot);
        }
        let kept = match slots.as_slice() {
            [only] if *only == slot => &[],
            kept => kept,
        };
        self.open -= before - kept.len();
        match *kept {
            [] => {
                self.map.remove(key);
            }
            [only] => *slots = Slots::One(only),
            _ => {}
        }
    }

    /// The open slots of `key`, oldest first.
    pub(crate) fn get(&self, key: &Key) -> &[u64] {
        self.map.get(key).map_or(&[], Slots::as_slice)
    }

    /// Open versions over all keys.
    pub(crate) fn open_versions(&self) -> usize {
        self.open
    }

    /// Forgets everything.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.open = 0;
    }

    /// Bytes the map holds, by capacity: the hash table (one entry plus one
    /// control byte per bucket, and `capacity()` is 7/8 of the buckets),
    /// spilled slot vectors and the heap behind `Key::General` keys.
    pub(crate) fn memory_bytes(&self) -> usize {
        let buckets = self.map.capacity() * 8 / 7;
        let spilled: usize = self
            .map
            .iter()
            .map(|(key, slots)| {
                let key_heap = match key {
                    Key::General(values) => values.capacity() * size_of::<bitempo_core::Value>(),
                    Key::Int(_) | Key::Int2(..) => 0,
                };
                let slot_heap = match slots {
                    Slots::One(_) => 0,
                    Slots::Many(many) => many.capacity() * size_of::<u64>(),
                };
                key_heap + slot_heap
            })
            .sum();
        buckets * (size_of::<(Key, Slots)>() + 1) + spilled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_keep_insertion_order_and_spill_only_past_one() {
        let mut m = KeyMap::default();
        m.insert(Key::int(1), 10);
        assert!(matches!(m.map[&Key::int(1)], Slots::One(10)));
        m.insert(Key::int(1), 7);
        m.insert(Key::int(1), 12);
        m.insert(Key::int(2), 11);
        assert_eq!(m.get(&Key::int(1)), &[10, 7, 12]);
        assert_eq!(m.get(&Key::int(2)), &[11]);
        assert_eq!(m.get(&Key::int(3)), &[] as &[u64]);
        assert_eq!(m.open_versions(), 4);
    }

    #[test]
    fn removing_the_last_slot_drops_the_key() {
        let mut m = KeyMap::default();
        m.insert(Key::int(1), 10);
        m.insert(Key::int(1), 11);
        m.remove(&Key::int(1), 99);
        assert_eq!(m.open_versions(), 2, "unknown slot: nothing happens");
        m.remove(&Key::int(1), 10);
        assert!(
            matches!(m.map[&Key::int(1)], Slots::One(11)),
            "back to the inline form"
        );
        m.remove(&Key::int(1), 11);
        assert!(m.map.is_empty(), "no empty entry stays behind");
        assert_eq!(m.open_versions(), 0);
        m.remove(&Key::int(1), 11);
        assert_eq!(m.open_versions(), 0);
    }

    #[test]
    fn an_entry_is_inline_until_it_spills() {
        assert_eq!(size_of::<(Key, Slots)>(), 48, "a key and three words");
        let mut m = KeyMap::default();
        for k in 0..1_000 {
            m.insert(Key::int(k), k as u64);
        }
        let inline = m.memory_bytes();
        assert!(
            inline <= 1_000 * 48 * 7 / 3,
            "{inline} B: the table alone, at no less than 7/16 load"
        );
        m.insert(Key::int(5), 1_000);
        let Slots::Many(spilled) = &m.map[&Key::int(5)] else {
            panic!("two open versions spill");
        };
        assert_eq!(m.memory_bytes(), inline + spilled.capacity() * 8);
    }
}
