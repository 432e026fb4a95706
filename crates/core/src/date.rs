//! Proleptic-Gregorian civil date arithmetic.
//!
//! Application time in TPC-BiH is date-granular (the TPC-H date columns it is
//! derived from are `DATE`s). We represent dates as a day count since the
//! Unix epoch (1970-01-01 = day 0), which makes period arithmetic integral
//! and branch-free. The conversions below are the classic Howard Hinnant
//! `days_from_civil` / `civil_from_days` algorithms, valid far beyond the
//! TPC-H range (1992-01-01 .. 1998-12-31).

/// Days since 1970-01-01 for the given civil date.
///
/// Months are 1-based, days are 1-based. Dates before the epoch yield
/// negative numbers.
pub const fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (month as i64 + 9) % 12; // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + day as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Civil date `(year, month, day)` for the given day count since 1970-01-01.
pub const fn civil_from_days(days: i64) -> (i32, u32, u32) {
    let z = days + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    let year = if m <= 2 { y + 1 } else { y } as i32;
    (year, m, d)
}

/// Formats a day count as `YYYY-MM-DD`.
pub fn format_iso_date(days: i64) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn tpch_date_range() {
        // TPC-H orderdate domain: 1992-01-01 .. 1998-08-02.
        let start = days_from_civil(1992, 1, 1);
        let end = days_from_civil(1998, 8, 2);
        assert_eq!(start, 8035);
        assert_eq!(end - start, 2405);
    }

    #[test]
    fn round_trip_across_decades() {
        for days in (-200_000..200_000).step_by(97) {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days, "day {days} ({y}-{m}-{d})");
        }
    }

    #[test]
    fn iso_parse_and_format() {
        assert_eq!(format_iso_date(8035), "1992-01-01");
    }

    #[test]
    fn consecutive_days_are_consecutive() {
        let mut prev = days_from_civil(1991, 12, 31);
        for &(y, m, d) in &[(1992, 1, 1), (1992, 1, 2), (1992, 1, 3)] {
            let cur = days_from_civil(y, m, d);
            assert_eq!(cur, prev + 1);
            prev = cur;
        }
    }
}
