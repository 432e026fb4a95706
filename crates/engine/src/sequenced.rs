//! Sequenced application-time DML semantics (Snodgrass; paper §2.3).
//!
//! SQL:2011's `FOR PORTION OF BUSINESS_TIME FROM x TO y` changes a row only
//! for the overlap of its application period with `[x, y)`. Where the row's
//! period overhangs the portion, unchanged *residue* rows must be created —
//! "deletes or updates may introduce additional rows when the time interval
//! of the update does not exactly correspond to the intervals of the
//! affected rows". This module computes those splits as pure data and applies
//! them through a layout's close/insert primitives, so every engine runs
//! identical logic over its own physical structures.

use crate::shell::TableLayout;
use crate::version::Version;
use bitempo_core::{
    AppPeriod, Error, Key, Result, SysPeriod, SysTime, TableDef, TemporalClass, Value,
};

/// The application-time pieces resulting from applying a portion to one
/// existing version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortionSplit {
    /// The overlap that receives the update (absent for disjoint versions).
    pub affected: AppPeriod,
    /// Up to two unchanged residue periods that must be re-inserted.
    pub residues: Vec<AppPeriod>,
}

/// Computes the split of an existing version's `app` period by `portion`.
/// Returns `None` when the version is untouched (no overlap).
pub fn split_for_portion(app: AppPeriod, portion: AppPeriod) -> Option<PortionSplit> {
    let affected = app.intersect(&portion)?;
    let (left, right) = app.difference(&portion);
    let residues = [left, right].into_iter().flatten().collect();
    Some(PortionSplit { affected, residues })
}

/// Applies a sequenced update (or delete, when `new_values` is `None`) to
/// one table via its layout's close/insert primitives; `pending` is the
/// system time the open transaction will commit at. Returns the number of
/// affected versions.
pub(crate) fn sequenced_dml<T: TableLayout>(
    t: &mut T,
    def: &TableDef,
    pending: SysTime,
    key: &Key,
    portion: Option<AppPeriod>,
    new_values: Option<&[(usize, Value)]>,
) -> Result<usize> {
    if def.temporal != TemporalClass::Bitemporal && portion.is_some() {
        return Err(Error::Unsupported(format!(
            "FOR PORTION OF on table {} without application time",
            def.name
        )));
    }
    let portion = portion.unwrap_or(AppPeriod::ALL);
    let mut affected = 0;
    for slot in t.open_slots(key) {
        let Some(v) = t.peek(def, slot) else {
            continue;
        };
        let Some(split) = split_for_portion(v.app, portion) else {
            continue;
        };
        affected += 1;
        let old = t.close(def, slot, pending)?;
        if def.temporal == TemporalClass::NonTemporal {
            // Non-versioned tables update in place (no history, no residue).
            if let Some(updates) = new_values {
                t.insert_version(
                    def,
                    Version {
                        row: old.row.with_all(updates),
                        app: old.app,
                        sys: old.sys,
                    },
                );
            }
            continue;
        }
        for residue in &split.residues {
            t.insert_version(
                def,
                Version {
                    row: old.row.clone(),
                    app: *residue,
                    sys: SysPeriod::since(pending),
                },
            );
        }
        if let Some(updates) = new_values {
            t.insert_version(
                def,
                Version {
                    row: old.row.with_all(updates),
                    app: split.affected,
                    sys: SysPeriod::since(pending),
                },
            );
        }
    }
    Ok(affected)
}

/// Overwrite of the application period (paper Table 2, "Overwrite
/// App.Time"): all open versions of the key are superseded by a single
/// version, carrying the values of the latest (by application start)
/// version, valid for `period`.
pub(crate) fn overwrite_period<T: TableLayout>(
    t: &mut T,
    def: &TableDef,
    pending: SysTime,
    key: &Key,
    period: AppPeriod,
) -> Result<usize> {
    if def.temporal != TemporalClass::Bitemporal {
        return Err(Error::Unsupported(format!(
            "application-period overwrite on table {}",
            def.name
        )));
    }
    if period.is_empty() {
        return Err(Error::EmptyPeriod(format!("{period}")));
    }
    let slots = t.open_slots(key);
    if slots.is_empty() {
        return Err(Error::KeyNotFound(format!("{key} in {}", def.name)));
    }
    let mut representative: Option<Version> = None;
    let n = slots.len();
    for slot in slots {
        let closed = t.close(def, slot, pending)?;
        let better = representative
            .as_ref()
            .is_none_or(|r| closed.app.start >= r.app.start);
        if better {
            representative = Some(closed);
        }
    }
    let Some(rep) = representative else {
        return Err(Error::Internal(
            "overwrite closed no versions despite a non-empty slot list".into(),
        ));
    };
    t.insert_version(
        def,
        Version {
            row: rep.row,
            app: period,
            sys: SysPeriod::since(pending),
        },
    );
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::{AppDate, Period};

    fn p(a: i64, b: i64) -> AppPeriod {
        Period::new(AppDate(a), AppDate(b))
    }

    #[test]
    fn portion_inside_splits_into_three() {
        let s = split_for_portion(p(0, 100), p(20, 40)).unwrap();
        assert_eq!(s.affected, p(20, 40));
        assert_eq!(s.residues, vec![p(0, 20), p(40, 100)]);
    }

    #[test]
    fn portion_covering_start() {
        let s = split_for_portion(p(10, 100), p(0, 50)).unwrap();
        assert_eq!(s.affected, p(10, 50));
        assert_eq!(s.residues, vec![p(50, 100)]);
    }

    #[test]
    fn portion_covering_all() {
        let s = split_for_portion(p(10, 20), p(0, 100)).unwrap();
        assert_eq!(s.affected, p(10, 20));
        assert!(s.residues.is_empty());
    }

    #[test]
    fn disjoint_portion_leaves_version_alone() {
        assert_eq!(split_for_portion(p(0, 10), p(10, 20)), None);
        assert_eq!(split_for_portion(p(30, 40), p(10, 20)), None);
    }

    #[test]
    fn residues_and_affected_partition_the_original() {
        // The pieces must tile the original period exactly (no gap/overlap).
        for (a, b, x, y) in [
            (0, 50, 10, 20),
            (0, 50, 0, 50),
            (5, 30, 0, 10),
            (5, 30, 25, 60),
        ] {
            let s = split_for_portion(p(a, b), p(x, y)).unwrap();
            let mut pieces = s.residues.clone();
            pieces.push(s.affected);
            pieces.sort_by_key(|q| q.start);
            assert_eq!(pieces.first().unwrap().start, AppDate(a));
            assert_eq!(pieces.last().unwrap().end, AppDate(b));
            for w in pieces.windows(2) {
                assert_eq!(w[0].end, w[1].start, "pieces must tile contiguously");
            }
        }
    }
}
