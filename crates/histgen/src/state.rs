//! The generator's lightweight in-memory bitemporal database (paper §4.1).
//!
//! The paper's generator keeps, per key, the application-time versions
//! visible at the current system time (it used per-key doubly-linked lists;
//! we keep a compact per-key `Vec` sorted by application start — the same
//! linear retrieval with better locality), and streams invalidated tuples
//! out as they die ("it is guaranteed that these tuples will never become
//! visible again").
//!
//! `GenDb` serves three roles:
//!
//! 1. validity state for scenario generation (which orders are open, etc.);
//! 2. a **correctness oracle**: [`GenDb::scan`] answers any bitemporal scan
//!    independently of the engines, so the integration tests can compare
//!    all five implementations;
//! 3. the source of fully-stamped versions for System D's bulk load (§5.8).

use bitempo_core::{
    AppPeriod, Error, Key, Result, Row, SysPeriod, SysTime, TableDef, TemporalClass, Value,
};
use bitempo_dbgen::TpchData;
use bitempo_engine::api::{AppSpec, SysSpec};
use bitempo_engine::sequenced::split_for_portion;
use bitempo_engine::Version;
use std::collections::HashMap;

use crate::ops::Op;

/// A version still visible at the generator's current system time.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentVersion {
    /// Value columns.
    pub row: Row,
    /// Application validity.
    pub app: AppPeriod,
    /// When this version became visible.
    pub sys_start: SysTime,
}

/// A version that has been superseded (fully stamped).
#[derive(Debug, Clone, PartialEq)]
pub struct StampedVersion {
    /// Value columns.
    pub row: Row,
    /// Application validity.
    pub app: AppPeriod,
    /// Closed system period.
    pub sys: SysPeriod,
}

#[derive(Debug)]
struct GenTable {
    def: TableDef,
    current: HashMap<Key, Vec<CurrentVersion>>,
    invalidated: Vec<StampedVersion>,
}

/// The in-memory bitemporal generator state.
#[derive(Debug)]
pub struct GenDb {
    tables: Vec<GenTable>,
    now: SysTime,
}

impl GenDb {
    /// Builds the generator state from the version-0 data, committed as one
    /// initial-load transaction at `t1`.
    pub fn from_initial(data: &TpchData) -> GenDb {
        let mut db = GenDb {
            tables: data
                .tables
                .iter()
                .map(|t| GenTable {
                    def: t.def.clone(),
                    current: HashMap::new(),
                    invalidated: Vec::new(),
                })
                .collect(),
            now: SysTime::ZERO,
        };
        let t1 = SysTime(1);
        for (idx, table) in data.tables.iter().enumerate() {
            for (row, app) in &table.rows {
                db.insert_version(idx, row.clone(), *app, t1);
            }
        }
        db.now = t1;
        db
    }

    /// The current system time (last committed transaction).
    pub fn now(&self) -> SysTime {
        self.now
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Definition of table `idx`.
    pub fn def(&self, idx: usize) -> &TableDef {
        &self.tables[idx].def
    }

    /// Index of the table named `name`.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.def.name == name)
    }

    /// Currently visible versions of `key`.
    pub fn current_of(&self, table: usize, key: &Key) -> &[CurrentVersion] {
        self.tables[table]
            .current
            .get(key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of currently visible versions in a table.
    pub fn current_len(&self, table: usize) -> usize {
        self.tables[table].current.values().map(Vec::len).sum()
    }

    /// Number of invalidated (superseded) versions in a table.
    pub fn invalidated_len(&self, table: usize) -> usize {
        self.tables[table].invalidated.len()
    }

    fn insert_version(&mut self, table: usize, row: Row, app: Option<AppPeriod>, at: SysTime) {
        let t = &mut self.tables[table];
        let app = app.unwrap_or(AppPeriod::ALL);
        let key = Key::from_row(&row, &t.def.key);
        let sys_start = if t.def.temporal == TemporalClass::NonTemporal {
            SysTime::ZERO
        } else {
            at
        };
        // Nearly every key has one current version: start its chain at
        // that, not at `Vec`'s first growth step of four.
        let chain = t
            .current
            .entry(key)
            .or_insert_with(|| Vec::with_capacity(1));
        let pos = chain.partition_point(|v| v.app.start <= app.start);
        chain.insert(
            pos,
            CurrentVersion {
                row,
                app,
                sys_start,
            },
        );
    }

    /// Applies one operation with pending commit time `at`. Never-visible
    /// versions (created and superseded at the same `at`) are dropped, as
    /// in the engines.
    pub fn apply(&mut self, op: &Op, at: SysTime) -> Result<()> {
        match op {
            Op::Insert { table, row, app } => {
                self.insert_version(*table as usize, row.clone(), *app, at);
                Ok(())
            }
            Op::Update {
                table,
                key,
                updates,
                portion,
            } => self.sequenced(*table as usize, key, Some(updates), *portion, at),
            Op::Delete {
                table,
                key,
                portion,
            } => self.sequenced(*table as usize, key, None, *portion, at),
            Op::OverwriteApp { table, key, period } => {
                self.overwrite(*table as usize, key, *period, at)
            }
        }
    }

    /// Commits the pending transaction at `at`.
    pub fn commit(&mut self, at: SysTime) {
        debug_assert!(at > self.now, "commits are monotone");
        self.now = at;
    }

    fn take_chain(&mut self, table: usize, key: &Key) -> Result<Vec<CurrentVersion>> {
        self.tables[table]
            .current
            .remove(key)
            .ok_or_else(|| Error::KeyNotFound(format!("{key} in {}", self.tables[table].def.name)))
    }

    fn retire(&mut self, table: usize, v: CurrentVersion, at: SysTime) {
        // Same-transaction supersede: never visible, never archived.
        if v.sys_start >= at {
            return;
        }
        if self.tables[table].def.temporal == TemporalClass::NonTemporal {
            return;
        }
        self.tables[table].invalidated.push(StampedVersion {
            row: v.row,
            app: v.app,
            sys: SysPeriod::new(v.sys_start, at),
        });
    }

    fn sequenced(
        &mut self,
        table: usize,
        key: &Key,
        updates: Option<&[(u16, Value)]>,
        portion: Option<AppPeriod>,
        at: SysTime,
    ) -> Result<()> {
        let def_temporal = self.tables[table].def.temporal;
        if def_temporal != TemporalClass::Bitemporal && portion.is_some() {
            return Err(Error::Unsupported(format!(
                "FOR PORTION OF on {}",
                self.tables[table].def.name
            )));
        }
        let portion = portion.unwrap_or(AppPeriod::ALL);
        let chain = self.take_chain(table, key)?;
        let mut new_chain: Vec<CurrentVersion> = Vec::with_capacity(chain.len() + 2);
        for v in chain {
            let Some(split) = split_for_portion(v.app, portion) else {
                new_chain.push(v);
                continue;
            };
            if def_temporal == TemporalClass::NonTemporal {
                if let Some(updates) = updates {
                    let assignments: Vec<(usize, Value)> = updates
                        .iter()
                        .map(|(c, val)| (*c as usize, val.clone()))
                        .collect();
                    new_chain.push(CurrentVersion {
                        row: v.row.with_all(&assignments),
                        app: v.app,
                        sys_start: v.sys_start,
                    });
                }
                continue;
            }
            for residue in &split.residues {
                new_chain.push(CurrentVersion {
                    row: v.row.clone(),
                    app: *residue,
                    sys_start: at,
                });
            }
            if let Some(updates) = updates {
                let assignments: Vec<(usize, Value)> = updates
                    .iter()
                    .map(|(c, val)| (*c as usize, val.clone()))
                    .collect();
                new_chain.push(CurrentVersion {
                    row: v.row.with_all(&assignments),
                    app: split.affected,
                    sys_start: at,
                });
            }
            self.retire(table, v, at);
        }
        if !new_chain.is_empty() {
            new_chain.sort_by_key(|v| v.app.start);
            self.tables[table].current.insert(key.clone(), new_chain);
        }
        Ok(())
    }

    fn overwrite(&mut self, table: usize, key: &Key, period: AppPeriod, at: SysTime) -> Result<()> {
        if self.tables[table].def.temporal != TemporalClass::Bitemporal {
            return Err(Error::Unsupported(format!(
                "period overwrite on {}",
                self.tables[table].def.name
            )));
        }
        if period.is_empty() {
            return Err(Error::EmptyPeriod(format!("{period}")));
        }
        let chain = self.take_chain(table, key)?;
        let rep = chain
            .iter()
            .max_by_key(|v| v.app.start)
            .expect("non-empty chain")
            .row
            .clone();
        for v in chain {
            self.retire(table, v, at);
        }
        self.tables[table].current.insert(
            key.clone(),
            vec![CurrentVersion {
                row: rep,
                app: period,
                sys_start: at,
            }],
        );
        Ok(())
    }

    /// Oracle scan: all versions of `table` matching the temporal specs, in
    /// the engines' scan-schema layout. Sequential over current +
    /// invalidated — this is a reference implementation, not a fast one.
    pub fn scan(&self, table: usize, sys: &SysSpec, app: &AppSpec) -> Vec<Row> {
        let t = &self.tables[table];
        let mut out = Vec::new();
        for chain in t.current.values() {
            for v in chain {
                let version = Version {
                    row: v.row.clone(),
                    app: v.app,
                    sys: SysPeriod::since(v.sys_start),
                };
                if version.matches(sys, app) {
                    out.push(version.output_row(&t.def));
                }
            }
        }
        if !sys.current_only() {
            for v in &t.invalidated {
                let version = Version {
                    row: v.row.clone(),
                    app: v.app,
                    sys: v.sys,
                };
                if version.matches(sys, app) {
                    out.push(version.output_row(&t.def));
                }
            }
        }
        out
    }

    /// All versions ever recorded for `table`, fully stamped — the bulk-load
    /// feed for engines with manual system time.
    pub fn all_versions(&self, table: usize) -> Vec<(Row, AppPeriod, SysPeriod)> {
        let t = &self.tables[table];
        let mut out: Vec<(Row, AppPeriod, SysPeriod)> = t
            .invalidated
            .iter()
            .map(|v| (v.row.clone(), v.app, v.sys))
            .collect();
        for chain in t.current.values() {
            for v in chain {
                out.push((v.row.clone(), v.app, SysPeriod::since(v.sys_start)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::{AppDate, Period};
    use bitempo_dbgen::ScaleConfig;

    fn tiny_db() -> GenDb {
        GenDb::from_initial(&bitempo_dbgen::generate(&ScaleConfig::tiny()))
    }

    #[test]
    fn initial_load_counts() {
        let db = tiny_db();
        let orders = db.table_index("orders").unwrap();
        assert_eq!(db.current_len(orders), 1_500);
        assert_eq!(db.invalidated_len(orders), 0);
        assert_eq!(db.now(), SysTime(1));
    }

    #[test]
    fn single_version_chains_hold_one_slot() {
        let db = tiny_db();
        let orders = &db.tables[db.table_index("orders").unwrap()];
        assert!(orders
            .current
            .values()
            .all(|chain| chain.len() == 1 && chain.capacity() == 1));
    }

    #[test]
    fn update_creates_invalidated_version() {
        let mut db = tiny_db();
        let orders = db.table_index("orders").unwrap() as u8;
        let at = SysTime(2);
        db.apply(
            &Op::Update {
                table: orders,
                key: Key::int(1),
                updates: vec![(2, Value::str("F"))],
                portion: None,
            },
            at,
        )
        .unwrap();
        db.commit(at);
        assert_eq!(db.invalidated_len(orders as usize), 1);
        let cur = db.current_of(orders as usize, &Key::int(1));
        assert_eq!(cur.len(), 1);
        assert_eq!(cur[0].row.get(2), &Value::str("F"));
        assert_eq!(cur[0].sys_start, at);
    }

    #[test]
    fn portion_update_grows_chain() {
        let mut db = tiny_db();
        let part = db.table_index("part").unwrap() as u8;
        let existing = db.current_of(part as usize, &Key::int(1))[0].clone();
        let mid = existing.app.start.plus_days(100);
        let portion = Period::new(mid, mid.plus_days(30));
        db.apply(
            &Op::Update {
                table: part,
                key: Key::int(1),
                updates: vec![(5, Value::Int(99))],
                portion: Some(portion),
            },
            SysTime(2),
        )
        .unwrap();
        db.commit(SysTime(2));
        let chain = db.current_of(part as usize, &Key::int(1));
        assert_eq!(chain.len(), 3, "left residue + affected + right residue");
        // Chain stays sorted by app start and tiles the original period.
        for w in chain.windows(2) {
            assert!(w[0].app.start <= w[1].app.start);
            assert_eq!(w[0].app.end, w[1].app.start);
        }
        assert_eq!(chain[0].app.start, existing.app.start);
        assert_eq!(chain[2].app.end, AppDate::MAX);
    }

    #[test]
    fn overwrite_collapses_chain() {
        let mut db = tiny_db();
        let part = db.table_index("part").unwrap() as u8;
        let mid = AppDate::from_ymd(1995, 1, 1);
        db.apply(
            &Op::Update {
                table: part,
                key: Key::int(1),
                updates: vec![(5, Value::Int(7))],
                portion: Some(Period::new(mid, mid.plus_days(10))),
            },
            SysTime(2),
        )
        .ok();
        db.commit(SysTime(2));
        let new_period = Period::new(AppDate::from_ymd(1996, 1, 1), AppDate::MAX);
        db.apply(
            &Op::OverwriteApp {
                table: part,
                key: Key::int(1),
                period: new_period,
            },
            SysTime(3),
        )
        .unwrap();
        db.commit(SysTime(3));
        let chain = db.current_of(part as usize, &Key::int(1));
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].app, new_period);
    }

    #[test]
    fn delete_empties_chain_and_archives() {
        let mut db = tiny_db();
        let orders = db.table_index("orders").unwrap() as u8;
        db.apply(
            &Op::Delete {
                table: orders,
                key: Key::int(5),
                portion: None,
            },
            SysTime(2),
        )
        .unwrap();
        db.commit(SysTime(2));
        assert!(db.current_of(orders as usize, &Key::int(5)).is_empty());
        assert_eq!(db.invalidated_len(orders as usize), 1);
        // Deleting a missing key is an error.
        let err = db.apply(
            &Op::Delete {
                table: orders,
                key: Key::int(5),
                portion: None,
            },
            SysTime(3),
        );
        assert!(matches!(err, Err(Error::KeyNotFound(_))));
    }

    #[test]
    fn oracle_scan_time_travel() {
        let mut db = tiny_db();
        let orders = db.table_index("orders").unwrap();
        let before = db.scan(orders, &SysSpec::AsOf(SysTime(1)), &AppSpec::All);
        assert_eq!(before.len(), 1_500);
        db.apply(
            &Op::Delete {
                table: orders as u8,
                key: Key::int(1),
                portion: None,
            },
            SysTime(2),
        )
        .unwrap();
        db.commit(SysTime(2));
        let after = db.scan(orders, &SysSpec::Current, &AppSpec::All);
        assert_eq!(after.len(), 1_499);
        let past = db.scan(orders, &SysSpec::AsOf(SysTime(1)), &AppSpec::All);
        assert_eq!(past.len(), 1_500, "time travel sees the deleted order");
    }

    #[test]
    fn bulk_feed_covers_everything() {
        let mut db = tiny_db();
        let orders = db.table_index("orders").unwrap();
        db.apply(
            &Op::Update {
                table: orders as u8,
                key: Key::int(2),
                updates: vec![(3, Value::Double(1.0))],
                portion: None,
            },
            SysTime(2),
        )
        .unwrap();
        db.commit(SysTime(2));
        let all = db.all_versions(orders);
        assert_eq!(all.len(), 1_501);
        let closed = all.iter().filter(|(_, _, s)| !s.is_current()).count();
        assert_eq!(closed, 1);
    }
}
