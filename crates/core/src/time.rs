//! The bitemporal time model: system time, application time, and periods.
//!
//! Both dimensions use half-open periods `[start, end)`. This is the SQL:2011
//! convention and makes adjacency tests exact: two periods *meet* when one's
//! `end` equals the other's `start`, with no off-by-one corrections.

use crate::date;
use std::fmt;

/// A point in **system time**: a monotone logical commit timestamp.
///
/// The engines assign one `SysTime` per committed transaction, exactly like
/// the commercial systems in the paper assign a commit timestamp — except
/// ours is a logical counter, which keeps history replay deterministic
/// (see DESIGN.md, substitution table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SysTime(pub u64);

impl SysTime {
    /// The dawn of history: no transaction has committed yet.
    pub const ZERO: SysTime = SysTime(0);
    /// "Until changed": the end of the system period of a current version.
    pub const MAX: SysTime = SysTime(u64::MAX);

    /// The next commit timestamp.
    #[must_use]
    pub fn next(self) -> SysTime {
        SysTime(self.0 + 1)
    }
}

impl fmt::Display for SysTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SysTime::MAX {
            write!(f, "∞")
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

/// A point in **application time**: a civil date, stored as days since
/// 1970-01-01 (see [`crate::date`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppDate(pub i64);

impl AppDate {
    /// Sentinel for "valid forever" (the open end of an application period).
    pub const MAX: AppDate = AppDate(i64::MAX);
    /// Sentinel for "since the beginning of time".
    pub const MIN: AppDate = AppDate(i64::MIN);

    /// Constructs an `AppDate` from a civil date.
    pub const fn from_ymd(year: i32, month: u32, day: u32) -> AppDate {
        AppDate(date::days_from_civil(year, month, day))
    }

    /// This date plus `days` (may be negative). Saturates at the sentinels.
    #[must_use]
    pub fn plus_days(self, days: i64) -> AppDate {
        if self == AppDate::MAX || self == AppDate::MIN {
            self
        } else {
            AppDate(self.0.saturating_add(days))
        }
    }
}

impl fmt::Display for AppDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == AppDate::MAX {
            write!(f, "forever")
        } else if *self == AppDate::MIN {
            write!(f, "-∞")
        } else {
            write!(f, "{}", date::format_iso_date(self.0))
        }
    }
}

/// A half-open period `[start, end)` over an ordered time domain.
///
/// ```
/// use bitempo_core::{AppDate, Period};
///
/// let q1 = Period::new(AppDate::from_ymd(2024, 1, 1), AppDate::from_ymd(2024, 4, 1));
/// let q2 = Period::new(AppDate::from_ymd(2024, 4, 1), AppDate::from_ymd(2024, 7, 1));
/// assert!(q1.meets(&q2));
/// assert!(!q1.overlaps(&q2), "half-open periods that meet do not overlap");
/// assert!(q1.contains_point(AppDate::from_ymd(2024, 3, 31)));
/// assert!(!q1.contains_point(AppDate::from_ymd(2024, 4, 1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Period<T> {
    /// Inclusive start.
    pub start: T,
    /// Exclusive end.
    pub end: T,
}

/// A system-time period.
pub type SysPeriod = Period<SysTime>;
/// An application-time period.
pub type AppPeriod = Period<AppDate>;

impl<T: Copy + Ord> Period<T> {
    /// Creates a period. Callers must ensure `start <= end`; user-supplied
    /// bounds are validated where they enter (the archive reader)
    /// before they reach this constructor, so an inverted period here is a
    /// bug in engine code, caught in debug builds.
    pub fn new(start: T, end: T) -> Period<T> {
        debug_assert!(start <= end, "inverted period: start > end");
        Period { start, end }
    }

    /// True if the period contains no point (`start >= end`).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// True if `point` lies inside `[start, end)`.
    pub fn contains_point(&self, point: T) -> bool {
        self.start <= point && point < self.end
    }

    /// True if `other` is fully contained in `self` (Allen: contains/equals).
    pub fn contains_period(&self, other: &Period<T>) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// True if the two periods share at least one point (Allen: overlaps,
    /// during, starts, finishes, equals — anything but before/after/meets).
    pub fn overlaps(&self, other: &Period<T>) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// True if `self` ends exactly where `other` begins (Allen: meets).
    pub fn meets(&self, other: &Period<T>) -> bool {
        self.end == other.start
    }

    /// True if `self` lies entirely before `other` with a gap or meeting it.
    pub fn before(&self, other: &Period<T>) -> bool {
        self.end <= other.start
    }

    /// The intersection of two periods, or `None` when disjoint.
    pub fn intersect(&self, other: &Period<T>) -> Option<Period<T>> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(Period { start, end })
        } else {
            None
        }
    }

    /// The parts of `self` *not* covered by `other`: zero, one or two pieces.
    ///
    /// This is the core of sequenced DML: updating `FOR PORTION OF` an
    /// application period leaves these residues as additional rows
    /// (Snodgrass's SEQUENCED model, paper §2.3).
    pub fn difference(&self, other: &Period<T>) -> (Option<Period<T>>, Option<Period<T>>) {
        let left = if self.start < other.start {
            let p = Period::new(self.start, self.end.min(other.start));
            (!p.is_empty()).then_some(p)
        } else {
            None
        };
        let right = if other.end < self.end {
            let p = Period::new(self.start.max(other.end), self.end);
            (!p.is_empty()).then_some(p)
        } else {
            None
        };
        (left, right)
    }
}

impl SysPeriod {
    /// A period that is current as of `start` and still visible.
    pub const fn since(start: SysTime) -> SysPeriod {
        Period {
            start,
            end: SysTime::MAX,
        }
    }

    /// True if this version is still visible (its system period is open).
    pub fn is_current(&self) -> bool {
        self.end == SysTime::MAX
    }

    /// The full system-time axis.
    pub const ALL: SysPeriod = Period {
        start: SysTime::ZERO,
        end: SysTime::MAX,
    };
}

impl AppPeriod {
    /// The full application-time axis.
    pub const ALL: AppPeriod = Period {
        start: AppDate::MIN,
        end: AppDate::MAX,
    };

    /// A period valid from `start` until forever.
    pub const fn since(start: AppDate) -> AppPeriod {
        Period {
            start,
            end: AppDate::MAX,
        }
    }
}

/// System-time dimension of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysSpec {
    /// *Implicit* current time: no `AS OF` in the query at all. Engines with
    /// a current/history split touch only the current partition (paper
    /// §5.3.4).
    Current,
    /// *Explicit* `AS OF t` — even for `t == now` the optimizers of all
    /// three native systems failed to prune the history partition (Fig 6),
    /// and so do we: `AsOf` always visits both partitions.
    AsOf(SysTime),
    /// `FROM .. TO ..`: all versions whose system period overlaps the range.
    Range(SysPeriod),
    /// Every version ever recorded.
    All,
}

/// Application-time dimension of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSpec {
    /// `AS OF DATE d`.
    AsOf(AppDate),
    /// All versions whose application period overlaps the range.
    Range(AppPeriod),
    /// No application-time constraint.
    All,
}

impl SysSpec {
    /// True if a version with system period `sys` qualifies.
    pub fn matches(&self, sys: &SysPeriod) -> bool {
        match self {
            SysSpec::Current => sys.is_current(),
            SysSpec::AsOf(t) => sys.contains_point(*t),
            SysSpec::Range(p) => sys.overlaps(p),
            SysSpec::All => true,
        }
    }

    /// True if this spec can be answered from the current partition alone.
    /// Only the *implicit* form qualifies — reproducing Fig 6.
    pub fn current_only(&self) -> bool {
        matches!(self, SysSpec::Current)
    }
}

impl AppSpec {
    /// True if a version with application period `app` qualifies.
    pub fn matches(&self, app: &AppPeriod) -> bool {
        match self {
            AppSpec::AsOf(d) => app.contains_point(*d),
            AppSpec::Range(p) => app.overlaps(p),
            AppSpec::All => true,
        }
    }
}

impl<T: fmt::Display> fmt::Display for Period<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: i64, b: i64) -> AppPeriod {
        Period::new(AppDate(a), AppDate(b))
    }

    #[test]
    fn point_containment_is_half_open() {
        let period = p(10, 20);
        assert!(!period.contains_point(AppDate(9)));
        assert!(period.contains_point(AppDate(10)));
        assert!(period.contains_point(AppDate(19)));
        assert!(!period.contains_point(AppDate(20)));
    }

    #[test]
    fn overlap_excludes_meeting() {
        assert!(p(0, 10).overlaps(&p(9, 20)));
        assert!(!p(0, 10).overlaps(&p(10, 20)));
        assert!(p(0, 10).meets(&p(10, 20)));
        assert!(p(0, 10).before(&p(10, 20)));
        assert!(p(0, 10).before(&p(15, 20)));
        assert!(!p(5, 10).before(&p(0, 6)));
    }

    #[test]
    fn intersection() {
        assert_eq!(p(0, 10).intersect(&p(5, 15)), Some(p(5, 10)));
        assert_eq!(p(0, 10).intersect(&p(10, 15)), None);
        assert_eq!(p(0, 10).intersect(&p(2, 8)), Some(p(2, 8)));
    }

    #[test]
    fn difference_splits() {
        // portion strictly inside: two residues
        assert_eq!(
            p(0, 10).difference(&p(3, 7)),
            (Some(p(0, 3)), Some(p(7, 10)))
        );
        // portion covers start: right residue only
        assert_eq!(p(0, 10).difference(&p(0, 7)), (None, Some(p(7, 10))));
        // portion covers everything: nothing left
        assert_eq!(p(0, 10).difference(&p(0, 10)), (None, None));
        // disjoint portion leaves self intact on the left
        assert_eq!(p(0, 10).difference(&p(20, 30)), (Some(p(0, 10)), None));
    }

    #[test]
    fn sys_period_current() {
        let cur = SysPeriod::since(SysTime(5));
        assert!(cur.is_current());
        assert!(cur.contains_point(SysTime(5)));
        assert!(cur.contains_point(SysTime(u64::MAX - 1)));
        let closed = SysPeriod::new(SysTime(5), SysTime(9));
        assert!(!closed.is_current());
    }

    #[test]
    fn app_date_arithmetic_and_display() {
        let d = AppDate::from_ymd(1995, 6, 17);
        assert_eq!(d.plus_days(1), AppDate::from_ymd(1995, 6, 18));
        assert_eq!(d.to_string(), "1995-06-17");
        assert_eq!(AppDate::MAX.to_string(), "forever");
        assert_eq!(AppDate::MAX.plus_days(5), AppDate::MAX);
        assert_eq!(SysTime::MAX.to_string(), "∞");
        assert_eq!(SysTime(7).to_string(), "t7");
    }

    #[test]
    fn sys_spec_matching() {
        let closed = SysPeriod::new(SysTime(5), SysTime(10));
        let open = SysPeriod::since(SysTime(7));
        assert!(!SysSpec::Current.matches(&closed));
        assert!(SysSpec::Current.matches(&open));
        assert!(SysSpec::AsOf(SysTime(5)).matches(&closed));
        assert!(!SysSpec::AsOf(SysTime(10)).matches(&closed));
        assert!(SysSpec::AsOf(SysTime(100)).matches(&open));
        assert!(SysSpec::Range(Period::new(SysTime(9), SysTime(20))).matches(&closed));
        assert!(!SysSpec::Range(Period::new(SysTime(10), SysTime(20))).matches(&closed));
        assert!(SysSpec::All.matches(&closed));
        assert!(SysSpec::Current.current_only());
        assert!(!SysSpec::AsOf(SysTime(0)).current_only());
    }

    #[test]
    fn app_spec_matching() {
        let period = p(10, 20);
        assert!(AppSpec::AsOf(AppDate(10)).matches(&period));
        assert!(!AppSpec::AsOf(AppDate(20)).matches(&period));
        assert!(AppSpec::Range(p(19, 30)).matches(&period));
        assert!(!AppSpec::Range(p(20, 30)).matches(&period));
        assert!(AppSpec::All.matches(&period));
    }

    #[test]
    fn empty_period_detection() {
        assert!(p(5, 5).is_empty());
        // Inverted bounds can only be written by hand — `Period::new`
        // debug-asserts against them — yet `is_empty` must still hold.
        let inverted = Period {
            start: AppDate(6),
            end: AppDate(5),
        };
        assert!(inverted.is_empty());
        assert!(!p(5, 6).is_empty());
    }
}
