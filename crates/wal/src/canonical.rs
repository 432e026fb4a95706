//! A compact, order-independent image of an engine's logical state — what
//! "recovered == served" compares.
//!
//! Every version is written with the checkpoint's binary writer
//! (`put_version`: row arity, tagged values, then the four period bounds).
//! That encoding is prefix-free, hence injective: two states compare equal
//! exactly when every table, in order, has the same name and holds the same
//! multiset of versions — as strict as comparing `Debug` renderings, and
//! stricter for doubles, which compare by their bits. All images share one
//! byte buffer; each table's `(start, end)` spans into it are sorted by the
//! bytes they cover, so the order a layout stores its versions in does not
//! matter. A table's name is kept once, beside its span count. For a
//! two-integer row that is 60 bytes per version, where a `Debug` line cost
//! ≈ 280.

use crate::checkpoint::{get_version, put_version, Checkpoint};
use bitempo_core::{Error, Result, TableId};
use bitempo_engine::{BitemporalEngine, Version};
use std::fmt;

/// The canonical state of a list of tables; see the module docs.
#[derive(Default)]
pub struct CanonicalState {
    /// Every version's image, in the order the tables handed them over.
    bytes: Vec<u8>,
    /// `(start, end)` of each image in `bytes`; per table, sorted by the
    /// bytes they cover.
    spans: Vec<(u32, u32)>,
    /// Each table's name and number of spans, in table order.
    tables: Vec<(String, usize)>,
}

/// The canonical state of `ids` in `engine`. Two engines are
/// state-equivalent iff these compare equal — the strongest equivalence the
/// crash tests assert, on top of the per-query-class checks. Versions are
/// visited one at a time ([`BitemporalEngine::for_each_version`]); no copy
/// of a table is made.
pub fn canonical_state(engine: &dyn BitemporalEngine, ids: &[TableId]) -> Result<CanonicalState> {
    let mut state = CanonicalState::default();
    state
        .spans
        .reserve_exact(ids.iter().map(|&id| engine.stats(id).total()).sum());
    for &id in ids {
        state.add_table(&engine.table_def(id).name, |f| {
            engine.for_each_version(id, f)
        })?;
    }
    Ok(state.finish())
}

impl CanonicalState {
    /// The canonical state of a checkpoint's tables — what an engine
    /// restored from it would report.
    pub fn of_checkpoint(ckpt: &Checkpoint) -> Result<CanonicalState> {
        let mut state = CanonicalState::default();
        for (def, versions) in &ckpt.tables {
            state.add_table(&def.name, |f| {
                versions.iter().for_each(f);
                Ok(())
            })?;
        }
        Ok(state.finish())
    }

    /// Number of versions, over all tables.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no table holds a version.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Every version, decoded, with its table's name: tables in order, each
    /// table's versions in canonical order.
    pub fn versions(&self) -> impl Iterator<Item = (&str, Version)> + '_ {
        self.tables
            .iter()
            .flat_map(|(name, n)| std::iter::repeat_n(name.as_str(), *n))
            .zip(&self.spans)
            .map(|(name, &span)| (name, self.decode(span)))
    }

    /// Names the first version, in canonical order, where `self` and
    /// `other` differ — or the first table whose name differs — with both
    /// sides decoded; `None` when the states are equal.
    pub fn first_difference(&self, other: &CanonicalState) -> Option<String> {
        let (mut ours, mut theirs) = (self.spans.as_slice(), other.spans.as_slice());
        for t in 0..self.tables.len().max(other.tables.len()) {
            let (a, b) = (self.tables.get(t), other.tables.get(t));
            let (Some((name, n)), Some((other_name, m))) = (a, b) else {
                let name = |side: Option<&(String, usize)>| side.map(|(name, _)| name.clone());
                return Some(format!("table {t}: {:?} vs {:?}", name(a), name(b)));
            };
            if name != other_name {
                return Some(format!("table {t}: {name} vs {other_name}"));
            }
            let (mine, rest) = ours.split_at(*n);
            let (yours, other_rest) = theirs.split_at(*m);
            (ours, theirs) = (rest, other_rest);
            for k in 0..(*n).max(*m) {
                let (x, y) = (mine.get(k), yours.get(k));
                if x.map(|&s| self.image(s)) != y.map(|&s| other.image(s)) {
                    let show = |state: &CanonicalState, s: Option<&(u32, u32)>| {
                        s.map_or("nothing".to_string(), |&s| format!("{:?}", state.decode(s)))
                    };
                    return Some(format!(
                        "{name}: version {k} of {n} vs {m} in canonical order: {} vs {}",
                        show(self, x),
                        show(other, y)
                    ));
                }
            }
        }
        None
    }

    /// Appends one table, fed version by version through `each`, and puts
    /// its spans in canonical order.
    fn add_table(
        &mut self,
        name: &str,
        each: impl FnOnce(&mut dyn FnMut(&Version)) -> Result<()>,
    ) -> Result<()> {
        let first = self.spans.len();
        let (bytes, spans) = (&mut self.bytes, &mut self.spans);
        let mut refused = None;
        each(&mut |v| {
            // Offsets past `u32::MAX` wrap here and are refused below,
            // before any span is used.
            let start = bytes.len() as u32;
            if let Err(e) = put_version(bytes, v) {
                refused.get_or_insert(e);
            }
            spans.push((start, bytes.len() as u32));
        })?;
        if let Some(e) = refused {
            return Err(e);
        }
        if u32::try_from(self.bytes.len()).is_err() {
            return Err(Error::Invalid(format!(
                "canonical state of {name} exceeds 4 GiB"
            )));
        }
        let bytes = &self.bytes;
        self.spans[first..].sort_unstable_by(|&a, &b| image(bytes, a).cmp(image(bytes, b)));
        self.tables
            .push((name.to_string(), self.spans.len() - first));
        Ok(())
    }

    /// Releases growth slack: the state is compared, never extended.
    fn finish(mut self) -> CanonicalState {
        self.bytes.shrink_to_fit();
        self.spans.shrink_to_fit();
        self
    }

    fn image(&self, span: (u32, u32)) -> &[u8] {
        image(&self.bytes, span)
    }

    fn decode(&self, span: (u32, u32)) -> Version {
        get_version(self.image(span)).expect("every span covers one put_version image")
    }
}

fn image(bytes: &[u8], (start, end): (u32, u32)) -> &[u8] {
    &bytes[start as usize..end as usize]
}

impl PartialEq for CanonicalState {
    fn eq(&self, other: &CanonicalState) -> bool {
        self.tables == other.tables
            && self
                .spans
                .iter()
                .zip(&other.spans)
                .all(|(&a, &b)| self.image(a) == other.image(b))
    }
}

impl Eq for CanonicalState {}

impl fmt::Debug for CanonicalState {
    /// The version count and the first few versions, decoded: a served
    /// state runs to tens of thousands of versions, and raw bytes say
    /// nothing. [`CanonicalState::first_difference`] locates a mismatch.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const SHOWN: usize = 3;
        let first: Vec<String> = self
            .versions()
            .take(SHOWN)
            .map(|(table, v)| format!("{table}|{v:?}"))
            .collect();
        f.debug_struct("CanonicalState")
            .field("versions", &self.len())
            .field("first", &first)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::{Key, Value};
    use bitempo_engine::testutil::{bitemp_table, simple_row};
    use bitempo_engine::{build_engine, SystemKind};

    /// `keys` keys in table `t`, then `updates` single-key updates spread
    /// round-robin over them, one commit each.
    fn churned(kind: SystemKind, keys: i64, updates: i64) -> (Box<dyn BitemporalEngine>, TableId) {
        let mut e = build_engine(kind);
        let t = e.create_table(bitemp_table("t")).unwrap();
        for k in 0..keys {
            e.insert(t, simple_row(k, 0), None).unwrap();
        }
        e.commit();
        for i in 0..updates {
            e.update(t, &Key::int(i % keys), &[(1, Value::Int(i))], None)
                .unwrap();
            e.commit();
        }
        (e, t)
    }

    /// The footprint gate: a canonical state holds at most 64 bytes per
    /// version of a two-integer table (60 exactly: a 52-byte image and an
    /// 8-byte span), on every layout.
    #[test]
    fn canonical_state_stays_within_64_bytes_per_version() {
        for kind in SystemKind::ALL {
            let (e, t) = churned(kind, 2_000, 20_000);
            let state = canonical_state(e.as_ref(), &[t]).unwrap();
            assert_eq!(state.len(), 22_000, "{kind}");
            let held =
                state.bytes.capacity() + state.spans.capacity() * std::mem::size_of::<(u32, u32)>();
            let per_version = held as f64 / state.len() as f64;
            assert!(
                per_version <= 64.0,
                "{kind}: {per_version:.1} B per version"
            );
        }
    }

    /// Equality ignores storage order but sees every field of every
    /// version; the mismatch report decodes the first differing version.
    #[test]
    fn equality_is_order_free_and_differences_are_named() {
        let (a, ta) = churned(SystemKind::A, 5, 12);
        let (d, td) = churned(SystemKind::D, 5, 12);
        let (sa, sd) = (
            canonical_state(a.as_ref(), &[ta]).unwrap(),
            canonical_state(d.as_ref(), &[td]).unwrap(),
        );
        assert_eq!(sa, sd, "A and D store versions in different orders");
        assert_eq!(sa.first_difference(&sd), None);

        let (b, tb) = churned(SystemKind::B, 5, 11);
        let sb = canonical_state(b.as_ref(), &[tb]).unwrap();
        assert_ne!(sa, sb);
        let diff = sa.first_difference(&sb).unwrap();
        assert!(diff.starts_with("t: version "), "{diff}");
        assert!(diff.contains("Version {"), "decoded, not raw: {diff}");

        let shown = format!("{sa:?}");
        assert!(shown.contains("versions: 17"), "{shown}");
        assert!(shown.contains("t|Version {"), "{shown}");
    }

    /// A checkpoint's tables and the engine restored from it have the same
    /// canonical state.
    #[test]
    fn checkpoint_and_restored_engine_agree() {
        let (mut c, t) = churned(SystemKind::C, 7, 30);
        let ckpt = Checkpoint::capture(c.as_mut(), &[t], 0).unwrap();
        let mut fresh = build_engine(SystemKind::B);
        let ids = ckpt.restore_into(fresh.as_mut()).unwrap();
        assert_eq!(
            CanonicalState::of_checkpoint(&ckpt).unwrap(),
            canonical_state(fresh.as_ref(), &ids).unwrap()
        );
    }

    #[test]
    fn a_renamed_table_is_a_difference() {
        let (a, t) = churned(SystemKind::A, 3, 3);
        let mut e = build_engine(SystemKind::A);
        let u = e.create_table(bitemp_table("u")).unwrap();
        for k in 0..3 {
            e.insert(u, simple_row(k, 0), None).unwrap();
        }
        let (sa, su) = (
            canonical_state(a.as_ref(), &[t]).unwrap(),
            canonical_state(e.as_ref(), &[u]).unwrap(),
        );
        assert_eq!(sa.first_difference(&su).unwrap(), "table 0: t vs u");
    }
}
