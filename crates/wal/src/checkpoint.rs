//! Engine checkpoints: a serialized snapshot of every table's versions.
//!
//! A checkpoint bounds recovery work: instead of replaying the whole
//! history, recovery loads the newest valid checkpoint and replays only
//! the WAL records after it. The snapshot is *logical* — table definitions
//! plus every [`Version`] as [`BitemporalEngine::snapshot_versions`]
//! reports them — so one format serves all four engine architectures, and
//! [`BitemporalEngine::restore`] rebuilds each engine's physical layout
//! from it.
//!
//! The byte format is magic + version, a whole-body CRC-32 checked *before*
//! parsing, and a body written with `bitempo_core::codec` and read through
//! its bounded [`Cursor`], so a lying length prefix surfaces as
//! [`Error::Archive`], never as an over-allocation. Corrupt checkpoints are
//! an expected input — recovery falls back to the next-older one.

use bitempo_core::codec::{put_i64, put_len, put_row, put_str, put_u64, row_len, Cursor};
use bitempo_core::crc::crc32;
use bitempo_core::{
    AppDate, Column, DataType, Error, Period, Result, Schema, SysTime, TableDef, TableId,
    TemporalClass,
};
use bitempo_engine::{BitemporalEngine, Version};

/// Checkpoint blob magic.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"BICK";
/// Checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Magic, version and body CRC-32: the bytes before the body.
const HEADER_LEN: usize = 12;

/// A decoded checkpoint: the engine state as of WAL sequence number `seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The WAL sequence number of the last transaction folded into this
    /// snapshot (0 = the initial load only).
    pub seq: u64,
    /// The engine's commit clock at snapshot time.
    pub now: SysTime,
    /// Per table, in creation order: definition plus every stored version.
    pub tables: Vec<(TableDef, Vec<Version>)>,
}

impl Checkpoint {
    /// Snapshots `engine` as of WAL sequence `seq`. Forces the engine's
    /// deferred reorganization first ([`BitemporalEngine::checkpoint`]) so
    /// staged state — System B's undo log, System C's delta — is folded in.
    pub fn capture(
        engine: &mut dyn BitemporalEngine,
        ids: &[TableId],
        seq: u64,
    ) -> Result<Checkpoint> {
        engine.checkpoint();
        let mut tables = Vec::with_capacity(ids.len());
        for &id in ids {
            tables.push((engine.table_def(id).clone(), engine.snapshot_versions(id)?));
        }
        Ok(Checkpoint {
            seq,
            now: engine.now(),
            tables,
        })
    }

    /// Serializes the checkpoint ([`Checkpoint::try_encode`]).
    ///
    /// # Panics
    ///
    /// On a table past the format's `u16` bounds — more columns, key
    /// columns or row values than a `u16` counts, or a key column past
    /// one — which no engine table reaches and `try_encode` refuses.
    pub fn encode(&self) -> Vec<u8> {
        self.try_encode()
            .unwrap_or_else(|e| panic!("unencodable checkpoint: {e}"))
    }

    /// Serializes the checkpoint: `magic | version | crc32(body) | body`,
    /// into one buffer of exactly its length whose CRC field is patched
    /// once the body is in. A count past its field's width is an
    /// [`Error::Archive`], with none of it written.
    pub fn try_encode(&self) -> Result<Vec<u8>> {
        // Header; seq, clock and table count; each table.
        let len = HEADER_LEN
            + (8 + 8 + 4)
            + self
                .tables
                .iter()
                .map(|(def, versions)| {
                    def_len(def) + versions.iter().map(version_len).sum::<usize>()
                })
                .sum::<usize>();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        put_u64(&mut out, self.seq);
        put_u64(&mut out, self.now.0);
        put_len::<u32>(&mut out, self.tables.len(), "table count")?;
        for (def, versions) in &self.tables {
            put_str(&mut out, &def.name)?;
            put_len::<u16>(&mut out, def.schema.arity(), "column count")?;
            for col in def.schema.columns() {
                put_str(&mut out, &col.name)?;
                out.push(dtype_tag(col.dtype));
            }
            put_len::<u16>(&mut out, def.key.len(), "key arity")?;
            for &k in &def.key {
                put_len::<u16>(&mut out, k, "key column")?;
            }
            out.push(match def.temporal {
                TemporalClass::NonTemporal => 0,
                TemporalClass::Degenerate => 1,
                TemporalClass::Bitemporal => 2,
            });
            match &def.app_time_name {
                None => out.push(0),
                Some(n) => {
                    out.push(1);
                    put_str(&mut out, n)?;
                }
            }
            put_u64(&mut out, versions.len() as u64);
            for v in versions {
                put_version(&mut out, v)?;
            }
        }
        let crc = crc32(&out[HEADER_LEN..]);
        out[8..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        Ok(out)
    }

    /// Deserializes and validates a checkpoint blob. Any malformation —
    /// bad magic, checksum mismatch, lying length, trailing bytes — is
    /// [`Error::Archive`]; recovery treats that as "try the older one".
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint> {
        let mut cur = Cursor::new(bytes);
        if cur.take(4, "checkpoint magic")? != CHECKPOINT_MAGIC {
            return Err(Error::Archive("bad checkpoint magic".into()));
        }
        let version = cur.u32("checkpoint version")?;
        if version != CHECKPOINT_VERSION {
            return Err(Error::Archive(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let expect = cur.u32("checkpoint checksum")?;
        if crc32(&bytes[HEADER_LEN..]) != expect {
            return Err(Error::Archive("checkpoint checksum mismatch".into()));
        }
        let seq = cur.u64("seq")?;
        let now = SysTime(cur.u64("now")?);
        let n_tables = cur.u32("table count")?;
        let mut tables = Vec::with_capacity(n_tables.min(64) as usize);
        for _ in 0..n_tables {
            let name = cur.string("table name")?;
            let n_cols = cur.u16("column count")?;
            let mut cols = Vec::with_capacity(usize::from(n_cols));
            for _ in 0..n_cols {
                let cname = cur.string("column name")?;
                cols.push(Column::new(cname, dtype_from(cur.u8("column type")?)?));
            }
            let n_key = cur.u16("key arity")?;
            let mut key = Vec::with_capacity(usize::from(n_key));
            for _ in 0..n_key {
                key.push(usize::from(cur.u16("key column")?));
            }
            let temporal = match cur.u8("temporal class")? {
                0 => TemporalClass::NonTemporal,
                1 => TemporalClass::Degenerate,
                2 => TemporalClass::Bitemporal,
                t => return Err(Error::Archive(format!("unknown temporal class {t}"))),
            };
            let app_time_name = match cur.u8("app-time tag")? {
                0 => None,
                1 => Some(cur.string("app-time name")?),
                t => return Err(Error::Archive(format!("bad option tag {t}"))),
            };
            let def = TableDef::new(
                name,
                Schema::new(cols),
                key,
                temporal,
                app_time_name.as_deref(),
            )?;
            let n_versions = cur.u64("version count")?;
            // Pre-check the claim so a hostile count cannot drive a huge
            // reservation.
            if n_versions > (cur.remaining() as u64) / MIN_VERSION_BYTES {
                return Err(Error::Archive(format!(
                    "version count {n_versions} exceeds checkpoint size"
                )));
            }
            let mut versions = Vec::with_capacity(n_versions as usize);
            for _ in 0..n_versions {
                versions.push(read_version(&mut cur)?);
            }
            tables.push((def, versions));
        }
        cur.finish("checkpoint")?;
        Ok(Checkpoint { seq, now, tables })
    }

    /// Restores `engine` (fresh, no tables) to this checkpoint's state,
    /// returning the table ids in creation order.
    pub fn restore_into(&self, engine: &mut dyn BitemporalEngine) -> Result<Vec<TableId>> {
        let mut ids = Vec::with_capacity(self.tables.len());
        for (def, _) in &self.tables {
            ids.push(engine.create_table(def.clone())?);
        }
        for (&id, (_, versions)) in ids.iter().zip(&self.tables) {
            engine.restore(id, versions.clone(), self.now)?;
        }
        Ok(ids)
    }
}

/// The smallest [`put_version`] image: a zero-column row's `u16` arity and
/// four `u64` period bounds.
const MIN_VERSION_BYTES: u64 = 2 + 4 * 8;

/// The length of a table definition's image in [`Checkpoint::encode`],
/// version count included.
fn def_len(def: &TableDef) -> usize {
    let cols: usize = def.schema.columns().iter().map(|c| 5 + c.name.len()).sum();
    let app_time = def.app_time_name.as_ref().map_or(0, |n| 4 + n.len());
    4 + def.name.len() + 2 + cols + 2 + 2 * def.key.len() + 1 + 1 + app_time + 8
}

/// The length of [`put_version`]'s image of `v`.
fn version_len(v: &Version) -> usize {
    row_len(v.row.values()) + 4 * 8
}

/// Appends one version's image: the row, then the application and system
/// period bounds. The encoding is prefix-free — values are tagged, strings
/// length-prefixed, doubles written as their bits — so distinct versions
/// never share an image.
pub(crate) fn put_version(out: &mut Vec<u8>, v: &Version) -> Result<()> {
    put_row(out, v.row.values())?;
    put_i64(out, v.app.start.0);
    put_i64(out, v.app.end.0);
    put_u64(out, v.sys.start.0);
    put_u64(out, v.sys.end.0);
    Ok(())
}

fn read_version(cur: &mut Cursor<'_>) -> Result<Version> {
    Ok(Version {
        row: cur.row()?,
        app: Period {
            start: AppDate(cur.i64("app start")?),
            end: AppDate(cur.i64("app end")?),
        },
        sys: Period {
            start: SysTime(cur.u64("sys start")?),
            end: SysTime(cur.u64("sys end")?),
        },
    })
}

/// Decodes a [`put_version`] image that fills `bytes` exactly.
pub(crate) fn get_version(bytes: &[u8]) -> Result<Version> {
    let mut cur = Cursor::new(bytes);
    let v = read_version(&mut cur)?;
    cur.finish("a version")?;
    Ok(v)
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Str => 2,
        DataType::Date => 3,
        DataType::SysTime => 4,
    }
}

fn dtype_from(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Double,
        2 => DataType::Str,
        3 => DataType::Date,
        4 => DataType::SysTime,
        t => return Err(Error::Archive(format!("unknown data type tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CanonicalState;
    use bitempo_core::{AppPeriod, Key, Row, SysPeriod, Value};
    use bitempo_engine::{build_engine, SystemKind};
    use bitempo_histgen::{generate_history, load_initial, replay, HistoryConfig};

    fn sample() -> Checkpoint {
        let def = TableDef::new(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Str),
                Column::new("price", DataType::Double),
            ]),
            vec![0],
            TemporalClass::Bitemporal,
            Some("vt"),
        )
        .unwrap();
        let v1 = Version {
            row: Row::new(vec![
                Value::Int(1),
                Value::str("widget"),
                Value::Double(9.5),
            ]),
            app: Period::new(AppDate(10), AppDate::MAX),
            sys: SysPeriod::since(SysTime(1)),
        };
        let v2 = Version {
            row: Row::new(vec![Value::Int(2), Value::Null, Value::Double(-0.0)]),
            app: AppPeriod::ALL,
            sys: SysPeriod::new(SysTime(1), SysTime(3)),
        };
        Checkpoint {
            seq: 7,
            now: SysTime(9),
            tables: vec![(def, vec![v1, v2])],
        }
    }

    #[test]
    fn roundtrip() {
        let c = sample();
        let bytes = c.encode();
        assert_eq!(bytes.capacity(), bytes.len());
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, c);
    }

    /// A table at the format's `u16` bounds — columns, key columns, a key
    /// column's index and a row's values — reads back; one past any of
    /// them is refused, with no buffer returned.
    #[test]
    fn counts_at_the_bound_read_back_and_one_over_is_refused() {
        let at = usize::from(u16::MAX);
        let table = |cols: usize, key: Vec<usize>| {
            let schema = (0..cols).map(|c| Column::new(format!("c{c}"), DataType::Int));
            let def = TableDef {
                name: "wide".into(),
                schema: Schema::new(schema.collect()),
                key,
                temporal: TemporalClass::NonTemporal,
                app_time_name: None,
            };
            let v = Version {
                row: Row::new(vec![Value::Null; cols]),
                app: AppPeriod::ALL,
                sys: SysPeriod::ALL,
            };
            Checkpoint {
                seq: 1,
                now: SysTime(1),
                tables: vec![(def, vec![v])],
            }
        };
        let at_bound = table(at + 1, (1..=at).collect());
        let refused = at_bound.try_encode().unwrap_err();
        assert!(matches!(&refused, Error::Archive(m) if m.contains("column count")));
        let at_bound = table(at, (0..at).collect());
        let bytes = at_bound.try_encode().unwrap();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), at_bound);
        for (over, what) in [
            (table(at, (0..=at).map(|k| k % at).collect()), "key arity"),
            (table(at, vec![at + 1]), "key column"),
        ] {
            let err = over.try_encode().unwrap_err();
            assert!(
                matches!(&err, Error::Archive(m) if m.contains(what)),
                "{err}"
            );
        }
    }

    #[test]
    fn every_corruption_is_detected() {
        let bytes = sample().encode();
        // Any single bit flip anywhere must be rejected (magic, version,
        // CRC, or body — the CRC covers the body, the header is validated).
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "flip at byte {pos} was accepted"
            );
        }
        // Truncation at every length is rejected, never a panic.
        for cut in 0..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(Checkpoint::decode(&padded).is_err());
    }

    /// A version image is at least 34 bytes, so a count the rest of the body
    /// cannot hold at that size is refused by the pre-check, before any
    /// reservation — including counts an 18-byte bound let through.
    #[test]
    fn lying_version_count_is_rejected_before_reserving() {
        let full = sample();
        let mut empty = full.clone();
        empty.tables[0].1.clear();
        // The version count is the last field before the versions.
        let count_end = empty.encode().len();
        let mut bytes = full.encode();
        let remaining = (bytes.len() - count_end) as u64;
        let lying = remaining / 18;
        assert!(lying > remaining / 34, "between the bounds");
        bytes[count_end - 8..count_end].copy_from_slice(&lying.to_le_bytes());
        let crc = crc32(&bytes[12..]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        match Checkpoint::decode(&bytes) {
            Err(Error::Archive(why)) => assert!(why.contains("exceeds checkpoint size"), "{why}"),
            other => panic!("a lying count got past the pre-check: {other:?}"),
        }
    }

    /// The checkpoint bytes, pinned: CRC-32 and length of `encode` for
    /// System A after the initial load and the archive replay at the tiny
    /// scales, captured at seq 0. Only a checkpoint format change, or a
    /// change to what the load stores or to the order A stores it in (A
    /// hands its current versions over in slot order), may move these.
    #[test]
    fn encoded_checkpoint_is_pinned() {
        let bytes = tiny_checkpoint_a().encode();
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "encode sizes its buffer exactly"
        );
        assert_eq!((crc32(&bytes), bytes.len()), (0x2AC7_3333, 1_724_818));
    }

    /// What that checkpoint holds, pinned whatever order System A hands its
    /// versions over in: CRC-32 and length of every version's canonical
    /// image, each after its table's name, in canonical order. A layout
    /// change that only reorders the stored versions moves the pin above,
    /// not this one.
    #[test]
    fn checkpoint_content_is_pinned() {
        let state = CanonicalState::of_checkpoint(&tiny_checkpoint_a()).unwrap();
        let mut bytes = Vec::new();
        for (table, v) in state.versions() {
            bytes.extend_from_slice(table.as_bytes());
            put_version(&mut bytes, &v).unwrap();
        }
        assert_eq!((crc32(&bytes), bytes.len()), (0xF174_9071, 1_800_950));
    }

    /// System A after the initial load and the archive replay at the tiny
    /// scales, captured at seq 0.
    fn tiny_checkpoint_a() -> Checkpoint {
        let data = bitempo_dbgen::generate(&bitempo_dbgen::ScaleConfig::tiny());
        let archive = generate_history(&data, &HistoryConfig::tiny()).archive;
        let mut eng = build_engine(SystemKind::A);
        let ids = load_initial(eng.as_mut(), &data).unwrap();
        replay(eng.as_mut(), &ids, &archive, 1).unwrap();
        Checkpoint::capture(eng.as_mut(), &ids, 0).unwrap()
    }

    #[test]
    fn capture_and_restore_round_trip_through_an_engine() {
        let mut eng = build_engine(SystemKind::A);
        let def = sample().tables[0].0.clone();
        let id = eng.create_table(def).unwrap();
        eng.insert(
            id,
            Row::new(vec![Value::Int(1), Value::str("a"), Value::Double(1.0)]),
            None,
        )
        .unwrap();
        eng.commit();
        eng.update(id, &Key::int(1), &[(2, Value::Double(2.0))], None)
            .unwrap();
        eng.commit();
        let ids = vec![id];
        let ck = Checkpoint::capture(eng.as_mut(), &ids, 2).unwrap();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();

        let mut fresh = build_engine(SystemKind::A);
        let new_ids = back.restore_into(fresh.as_mut()).unwrap();
        assert_eq!(new_ids.len(), 1);
        assert_eq!(fresh.now(), eng.now());
        let mut a = eng.snapshot_versions(id).unwrap();
        let mut b = fresh.snapshot_versions(new_ids[0]).unwrap();
        let key = |v: &Version| format!("{v:?}");
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }
}
