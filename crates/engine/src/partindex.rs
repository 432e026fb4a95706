//! The access structures of one physical partition, maintained in one place.
//!
//! Every layout keeps a [`PartIndexes`] per partition — A and B one for the
//! current and one for the history table, C the same pair (temporal index
//! only), D one for its single table — beside the system PK index, which is
//! table-wide DML bookkeeping rather than a partition's tuning. The layout
//! decides *when* a version enters or leaves a partition (paper §2, §5.2);
//! this type decides what that means for the partition's indexes.

use crate::api::TuningConfig;
use crate::index::{GistIndex, IndexDef, IndexSource, IndexedCol, OrderedIndex};
use crate::rowscan::{PartitionView, VersionSource};
use crate::version::Version;
use bitempo_core::{Key, Result, SysTime, TableDef};
use bitempo_storage::Heap;
use bitempo_tindex::TemporalIndex;

/// Which physical partition an index set serves: it fixes which tuning
/// structures the partition gets and their names (paper §5.1 — A and B
/// expose the same logical index surface, D the same over one table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Part {
    /// A's and B's current table: `ix_cur_app_<t>`, value B-Trees, `tx_cur_<t>`.
    Current,
    /// A's and B's history table: `ix_hist_{app,sys,key}_<t>`, value B-Trees
    /// and `tx_hist_<t>`, all but the app-time B-Tree on system-versioned
    /// tables only.
    History,
    /// D's single table: `ix_{app,sys,key}_<t>`, value B-Trees, `gist_<t>`
    /// and `tx_hist_<t>`.
    Single,
}

/// One partition's tuning B-Trees, GiST and temporal index.
#[derive(Debug, Default)]
pub(crate) struct PartIndexes {
    /// Tuning B-Trees.
    ordered: Vec<OrderedIndex>,
    /// Position in `ordered` of the index key lookups use (Key+Time tuning).
    key: Option<usize>,
    /// GiST over the period rectangles (System D). A version closed in
    /// place keeps its rectangle, conservative from then on; a vanished
    /// one's leaves with it, since the heap hands its slot to the next
    /// insert.
    gist: Option<GistIndex>,
    /// Temporal index (only with [`TuningConfig::temporal_index`]).
    tindex: Option<TemporalIndex>,
}

impl PartIndexes {
    /// Builds what `tuning` asks for on partition `part` of `def` over the
    /// partition's `(slot, version)` pairs, walking `entries()` once per
    /// structure. An unknown value-index column is an error.
    pub(crate) fn build<S: IndexSource, I: Iterator<Item = (u64, S)>>(
        def: &TableDef,
        tuning: &TuningConfig,
        part: Part,
        entries: impl Fn() -> I,
    ) -> Result<PartIndexes> {
        use IndexedCol::{AppStart, SysStart, Value};
        let sys = def.has_system_time();
        let (prefix, history) = match part {
            Part::Current => ("cur_", false),
            Part::History => ("hist_", true),
            Part::Single => ("", true),
        };
        let table = &def.name;
        let btree = |name, cols| IndexDef { name, cols };
        let mut defs = Vec::new();
        if tuning.time_index && def.has_app_time() {
            defs.push(btree(format!("ix_{prefix}app_{table}"), vec![AppStart]));
        }
        if tuning.time_index && history && sys {
            defs.push(btree(format!("ix_{prefix}sys_{table}"), vec![SysStart]));
        }
        let mut key = None;
        if tuning.key_time_index && history && (sys || part == Part::Single) && !def.key.is_empty()
        {
            key = Some(defs.len());
            let cols = def.key.iter().map(|&c| Value(c)).chain([SysStart]);
            defs.push(btree(format!("ix_{prefix}key_{table}"), cols.collect()));
        }
        for (tname, cname) in &tuning.value_index {
            if tname == table {
                let col = def.schema.col(cname)?;
                if part != Part::History || sys {
                    defs.push(btree(format!("ix_val_{table}_{cname}"), vec![Value(col)]));
                }
            }
        }
        let ordered = defs
            .into_iter()
            .map(|def| OrderedIndex::build(def, entries()))
            .collect();
        let gist = (part == Part::Single && tuning.gist && sys)
            .then(|| GistIndex::build(format!("gist_{table}"), entries()));
        let tindex = tindex_name(def, tuning, part).map(|name| {
            let every = bitempo_tindex::timeline::DEFAULT_CHECKPOINT_EVERY;
            let periods = |(slot, v): (u64, S)| (slot, v.app(), v.sys());
            if part != Part::Current {
                return TemporalIndex::build(name, every, entries().map(periods));
            }
            // The open versions activate in the order they started, which
            // slot order does not tell once slots are reused: fed in that
            // order, the timeline's log stays monotone.
            let mut open: Vec<(u64, S)> = entries().collect();
            open.sort_unstable_by_key(|(slot, v)| (v.sys().start, *slot));
            TemporalIndex::build(name, every, open.into_iter().map(periods))
        });
        Ok(PartIndexes {
            ordered,
            key,
            gist,
            tindex,
        })
    }

    /// A partition whose only access structure is `tindex` (System C, whose
    /// column fragments are not heaps of versions).
    pub(crate) fn temporal(tindex: Option<TemporalIndex>) -> PartIndexes {
        PartIndexes {
            tindex,
            ..PartIndexes::default()
        }
    }

    /// Indexes a version stored at `slot`.
    pub(crate) fn insert(&mut self, version: &impl IndexSource, slot: u64) {
        for ix in &mut self.ordered {
            ix.insert(version, slot);
        }
        if let Some(g) = &mut self.gist {
            g.insert(version, slot);
        }
        if let Some(tix) = &mut self.tindex {
            tix.insert(slot, version.app(), version.sys());
        }
    }

    /// Indexes every `(slot, version)` of `entries`, in order: the rows a
    /// delta merge moves into the partition.
    pub(crate) fn extend<S: IndexSource>(&mut self, entries: impl IntoIterator<Item = (u64, S)>) {
        for (slot, version) in entries {
            self.insert(&version, slot);
        }
    }

    /// Drops `version`'s B-Tree and GiST entries for `slot`; the temporal
    /// index keeps its events (see [`Self::end`]).
    pub(crate) fn remove(&mut self, version: &Version, slot: u64) {
        for ix in &mut self.ordered {
            ix.remove(version, slot);
        }
        if let Some(g) = &mut self.gist {
            g.remove(version, slot);
        }
    }

    /// Records in the temporal index that `slot`'s system period ended at
    /// `end` — or that the slot left the partition then, which keeps later
    /// probes from resurrecting it; probes before `end` re-check whatever
    /// occupies the slot by then.
    pub(crate) fn end(&mut self, slot: u64, end: SysTime) {
        if let Some(tix) = &mut self.tindex {
            tix.close(slot, end);
        }
    }

    /// The version at `slot` leaves the partition at `end`.
    pub(crate) fn close(&mut self, version: &Version, slot: u64, end: SysTime) {
        self.remove(version, slot);
        self.end(slot, end);
    }

    /// Sorts the temporal index's endpoint lists at a quiescent point.
    pub(crate) fn prepare(&mut self) {
        if let Some(tix) = &mut self.tindex {
            tix.prepare();
        }
    }

    /// Resident bytes of the tuning B-Trees and the GiST.
    pub(crate) fn tuning_bytes(&self) -> usize {
        self.ordered
            .iter()
            .map(OrderedIndex::memory_bytes)
            .sum::<usize>()
            + self.gist.as_ref().map_or(0, GistIndex::memory_bytes)
    }

    /// The temporal index, if built.
    pub(crate) fn tindex(&self) -> Option<&TemporalIndex> {
        self.tindex.as_ref()
    }

    /// The partition as the planner sees it. `pk` is the system PK index
    /// where the archetype offers it to the planner (A's and B's current
    /// table); otherwise key lookups get the Key+Time index, if built.
    pub(crate) fn view<'a>(
        &'a self,
        source: &'a dyn VersionSource,
        pk: Option<&'a OrderedIndex>,
    ) -> PartitionView<'a> {
        PartitionView {
            source,
            pk: pk.or_else(|| self.key.and_then(|i| self.ordered.get(i))),
            indexes: &self.ordered,
            gist: self.gist.as_ref(),
            tindex: self.tindex.as_ref(),
        }
    }
}

/// The temporal index name for partition `part` of `def` when `tuning` asks
/// for one and the table has system time to index.
pub(crate) fn tindex_name(def: &TableDef, tuning: &TuningConfig, part: Part) -> Option<String> {
    let side = if part == Part::Current { "cur" } else { "hist" };
    (tuning.temporal_index && def.has_system_time()).then(|| format!("tx_{side}_{}", def.name))
}

/// The system-defined primary-key index every layout keeps over its open
/// versions; a table without key columns has none. Only A and B hand it to
/// the scan planner; on C and D it is sequenced-DML bookkeeping.
pub(crate) fn system_pk_index(def: &TableDef) -> Option<OrderedIndex> {
    system_pk_def(def).map(OrderedIndex::new)
}

/// [`system_pk_index`] over a restored partition's open versions, given
/// with their slots, built at once: the keys sorted once and laid out in
/// full nodes, where inserting them in the checkpoint's order would split
/// half-full ones.
pub(crate) fn built_pk_index<S: IndexSource>(
    def: &TableDef,
    open: impl Iterator<Item = (u64, S)>,
) -> Option<OrderedIndex> {
    system_pk_def(def).map(|ix| OrderedIndex::build(ix, open))
}

fn system_pk_def(def: &TableDef) -> Option<IndexDef> {
    (!def.key.is_empty()).then(|| IndexDef {
        name: format!("pk_{}", def.name),
        cols: def.key.iter().map(|&c| IndexedCol::Value(c)).collect(),
    })
}

/// The open versions of `key` through the system-defined PK index: an
/// exact-key probe, in ascending slot order. A table without
/// key columns has no PK index; its one, empty key covers every open version
/// (`all_open`, in slot order) and no other key matches anything.
pub(crate) fn open_slots_in(
    pk: Option<&OrderedIndex>,
    key: &Key,
    all_open: impl FnOnce() -> Vec<u64>,
) -> Vec<u64> {
    match pk {
        Some(pk) => pk.slots_of_key(key),
        None if matches!(key, Key::General(values) if values.is_empty()) => all_open(),
        None => Vec::new(),
    }
}

/// `(slot, version)` pairs of a heap partition, in slot order.
pub(crate) fn heap_entries(heap: &Heap<Version>) -> impl Iterator<Item = (u64, &Version)> {
    heap.iter().map(|(slot, v)| (u64::from(slot.0), v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::BitemporalEngine;
    use crate::shell::{Engine, TableLayout};
    use crate::testutil::{bitemp_table, simple_row};
    use crate::{SystemA, SystemB, SystemD};
    use bitempo_core::{AppDate, Period, Value};
    use std::ops::Bound;

    /// Key+Time, time, value-index and temporal tuning (plus GiST on D).
    fn tuning(gist: bool) -> TuningConfig {
        TuningConfig {
            time_index: true,
            key_time_index: true,
            value_index: vec![("t".into(), "val".into())],
            gist,
            temporal_index: true,
            ..TuningConfig::temporal().with_workers(1)
        }
    }

    /// Tunes an empty table, then runs a seeded mix of inserts, sequenced
    /// updates, `DELETE … FOR PORTION OF` and `overwrite_app_period` —
    /// several statements per transaction now and then, so that some
    /// versions die unseen — and checkpoints.
    fn run_program(e: &mut dyn BitemporalEngine, tuning: &TuningConfig) {
        let t = e.create_table(bitemp_table("t")).unwrap();
        e.apply_tuning(tuning).unwrap();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for step in 0..600 {
            let id = next(24) as i64;
            let key = Key::int(id);
            let lo = next(60) as i64;
            let portion = Period::new(AppDate(lo), AppDate(lo + 1 + next(30) as i64));
            // Rejected statements (an overlapping insert) change nothing.
            let _ = match next(4) {
                0 => e.insert(t, simple_row(id, step), Some(portion)).map(|()| 1),
                1 => e.update(t, &key, &[(1, Value::Int(step))], Some(portion)),
                2 => e.delete(t, &key, Some(portion)),
                _ => e.overwrite_app_period(t, &key, portion),
            };
            if next(3) > 0 {
                e.commit();
            }
        }
        e.commit();
        e.checkpoint();
    }

    /// Per B-Tree, its entry count and every slot in key order; then the
    /// partition's tuning bytes.
    type Contents = (Vec<(usize, Vec<u64>)>, usize);

    fn contents(p: &PartIndexes) -> Contents {
        let trees = p.ordered.iter().map(|ix| {
            (
                ix.len(),
                ix.probe_range(Bound::Unbounded, Bound::Unbounded, &mut 0),
            )
        });
        (trees.collect(), p.tuning_bytes())
    }

    /// The incrementally maintained index sets of every partition hold what
    /// a fresh `apply_tuning` rebuild over the same data holds. Bytes are
    /// counted by capacity: the rebuild lays every tree out in full nodes,
    /// so it never holds more than the trees inserts and removals left.
    fn maintained_equals_rebuilt<T: TableLayout>(
        mut e: Engine<T>,
        gist: bool,
        parts: impl Fn(&T) -> Vec<&PartIndexes>,
    ) {
        let tuning = tuning(gist);
        run_program(&mut e, &tuning);
        let snapshot = |t: &T| -> Vec<Contents> { parts(t).into_iter().map(contents).collect() };
        let maintained = snapshot(&e.tables[0]);
        e.apply_tuning(&tuning).unwrap();
        let rebuilt = snapshot(&e.tables[0]);
        for (i, ((trees, bytes), (want, rebuilt_bytes))) in
            maintained.iter().zip(&rebuilt).enumerate()
        {
            let name = T::NAME;
            assert!(
                !trees.is_empty() && trees.iter().all(|(len, _)| *len > 0),
                "{name} {i}"
            );
            assert_eq!(trees, want, "{name} partition {i}");
            assert!(
                rebuilt_bytes <= bytes,
                "{name} partition {i}: {rebuilt_bytes} > {bytes}"
            );
        }
    }

    /// Fails when any layout drops a maintenance call — checked by deleting,
    /// one at a time, A's archive insert into `hist` and its `cur.close`
    /// (`TableA::close`), B's insert in `drain_undo` and D's `remove` of a
    /// vanishing version.
    #[test]
    fn maintained_indexes_equal_a_rebuild() {
        maintained_equals_rebuilt(SystemA::new(), false, |t| vec![&t.cur, &t.hist]);
        maintained_equals_rebuilt(SystemB::new(), false, |t| vec![&t.cur, &t.hist]);
        maintained_equals_rebuilt(SystemD::new(), true, |t| vec![&t.indexes]);
    }
}
