//! The table, its fresh-phase load, its staged-phase churn and the scans
//! the counter goldens run over it. `scan_counters_golden` and
//! `alloc_counters_golden` both pin lines for exactly this data.

use bitempo_core::{AppDate, Key, Pcg32, Period, Row, SysTime, TableId, Value};
use bitempo_engine::api::{AppSpec, SysSpec};
use bitempo_engine::BitemporalEngine;

/// Keys loaded in the fresh phase: more than one 1024-row morsel.
pub const KEYS: i64 = 1200;
/// Random statements of the staged phase.
const STATEMENTS: usize = 700;

fn app(start: i64, len: i64) -> Period<AppDate> {
    Period::new(AppDate(start), AppDate(start + len))
}

/// The 11-spec grid of `tindex_equivalence` (its 8-spec `spec_grid` plus the
/// three load-boundary probes of the incremental-maintenance test).
pub fn grid(now: u64, loaded: u64) -> Vec<(SysSpec, AppSpec)> {
    let (sys_probe, app_probe) = (now / 2, 50);
    vec![
        (SysSpec::Current, AppSpec::All),
        (SysSpec::All, AppSpec::All),
        (SysSpec::AsOf(SysTime(2)), AppSpec::All),
        (SysSpec::AsOf(SysTime(sys_probe)), AppSpec::All),
        (
            SysSpec::AsOf(SysTime(sys_probe)),
            AppSpec::AsOf(AppDate(app_probe)),
        ),
        (SysSpec::Current, AppSpec::AsOf(AppDate(app_probe))),
        (
            SysSpec::Range(Period::new(SysTime(sys_probe / 2), SysTime(sys_probe + 1))),
            AppSpec::All,
        ),
        (
            SysSpec::Range(Period::new(SysTime(sys_probe), SysTime::MAX)),
            AppSpec::Range(Period::new(AppDate(app_probe / 2), AppDate(app_probe + 1))),
        ),
        (SysSpec::AsOf(SysTime(loaded / 2)), AppSpec::All),
        (SysSpec::AsOf(SysTime(loaded)), AppSpec::All),
        (
            SysSpec::Range(Period::new(SysTime(loaded), SysTime(loaded + 10))),
            AppSpec::All,
        ),
    ]
}

/// The audit pattern of the key lookups: a hot key with a deep history and a
/// cold one.
pub fn key_specs(loaded: u64) -> [(i64, SysSpec); 4] {
    [
        (7, SysSpec::Current),
        (7, SysSpec::All),
        (KEYS - 1, SysSpec::AsOf(SysTime(loaded))),
        (KEYS - 1, SysSpec::All),
    ]
}

fn row(id: i64, val: i64) -> Row {
    Row::new(vec![Value::Int(id), Value::Int(val)])
}

/// Fresh phase: `KEYS` inserts, a commit per hundred. History stays empty,
/// so every non-current scan meets an empty partition on A, B and C.
pub fn load(engine: &mut dyn BitemporalEngine, t: TableId) {
    for id in 0..KEYS {
        engine
            .insert(t, row(id, 0), Some(app(id * 7 % 60, 20 + id % 30)))
            .unwrap();
        if id % 100 == 99 {
            engine.commit();
        }
    }
}

/// Staged phase: a seeded mix of sequenced updates and deletes (with and
/// without portions), re-inserts, period overwrites and same-transaction
/// supersedes, skewed onto 50 hot keys so some histories run deep. Enough
/// closes that System B drains its undo log many times and is left with a
/// staged remainder; System C merges nothing until the checkpoint.
pub fn churn(engine: &mut dyn BitemporalEngine, t: TableId) {
    let mut rng = Pcg32::new(17, 0x90_1d);
    for step in 0..STATEMENTS {
        let id = if rng.chance(0.5) {
            rng.int_range(0, 49)
        } else {
            rng.int_range(0, KEYS - 1)
        };
        let key = Key::int(id);
        let val = Value::Int(step as i64);
        let portion = rng
            .chance(0.3)
            .then(|| app(rng.int_range(0, 70), rng.int_range(1, 25)));
        match rng.int_range(0, 19) {
            0..=11 => {
                engine.update(t, &key, &[(1, val)], portion).unwrap();
            }
            12..=13 => {
                engine.delete(t, &key, portion).unwrap();
            }
            14..=15 => {
                let p = app(rng.int_range(0, 60), rng.int_range(5, 40));
                engine.insert(t, row(id, step as i64), Some(p)).unwrap();
            }
            16..=17 => {
                // Born and superseded by the same commit: never visible.
                engine.update(t, &key, &[(1, val.clone())], None).unwrap();
                engine.update(t, &key, &[(1, val)], None).unwrap();
            }
            _ => {
                let p = app(rng.int_range(0, 60), rng.int_range(5, 40));
                // A deleted key has nothing to overwrite.
                let _ = engine.overwrite_app_period(t, &key, p);
            }
        }
        if rng.chance(0.8) {
            engine.commit();
        }
    }
    engine.commit();
}
