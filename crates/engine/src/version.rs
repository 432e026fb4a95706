//! The version record and scan-row assembly shared by the engines.

use crate::api::{AppSpec, ColRange, SysSpec};
use bitempo_core::{AppPeriod, Row, SysPeriod, TableDef, TemporalClass, Value};
use std::borrow::Borrow;

/// One stored version of a logical row: value columns plus both periods.
/// A layout that stores the value columns apart from the periods (System
/// B's current table) judges a `Version<&Row>` assembled from borrowed
/// parts, without cloning the row.
#[derive(Debug, Clone, PartialEq)]
pub struct Version<R = Row> {
    /// The value columns.
    pub row: R,
    /// Application-time validity. [`AppPeriod::ALL`] on tables without a
    /// native application time.
    pub app: AppPeriod,
    /// System-time validity; open-ended while the version is current.
    pub sys: SysPeriod,
}

impl<R: Borrow<Row>> Version<R> {
    /// True if the version qualifies under both temporal specs.
    pub fn matches(&self, sys: &SysSpec, app: &AppSpec) -> bool {
        sys.matches(&self.sys) && app.matches(&self.app)
    }

    /// True if all pushed predicates hold on the value columns.
    pub fn matches_preds(&self, preds: &[ColRange]) -> bool {
        preds
            .iter()
            .all(|p| p.matches(self.row.borrow().get(p.col)))
    }

    /// Assembles the scan output row for this version under `def`'s layout:
    /// value columns, then `app_start`/`app_end` if bitemporal, then
    /// `sys_start`/`sys_end` if system-versioned.
    pub fn output_row(&self, def: &TableDef) -> Row {
        // One exact-size allocation: each arm chains fixed-length pieces.
        let row = self.row.borrow().values().iter().cloned();
        let app = [Value::Date(self.app.start), Value::Date(self.app.end)];
        let sys = [Value::SysTime(self.sys.start), Value::SysTime(self.sys.end)];
        match def.temporal {
            TemporalClass::Bitemporal => row.chain(app).chain(sys).collect(),
            TemporalClass::Degenerate => row.chain(sys).collect(),
            TemporalClass::NonTemporal => row.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SysSpec;
    use bitempo_core::{
        AppDate, Column, DataType, Key, Period, Schema, SysTime, TableDef, TemporalClass,
    };

    fn version() -> Version {
        Version {
            row: Row::new(vec![Value::Int(1), Value::str("x")]),
            app: Period::new(AppDate(10), AppDate(20)),
            sys: Period::new(SysTime(3), SysTime::MAX),
        }
    }

    fn def(class: TemporalClass) -> TableDef {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Str),
        ]);
        let app = (class == TemporalClass::Bitemporal).then_some("vt");
        TableDef::new("t", schema, vec![0], class, app).unwrap()
    }

    #[test]
    fn matches_combines_both_dimensions() {
        let v = version();
        assert!(v.matches(&SysSpec::Current, &AppSpec::AsOf(AppDate(15))));
        assert!(!v.matches(&SysSpec::Current, &AppSpec::AsOf(AppDate(25))));
        assert!(!v.matches(&SysSpec::AsOf(SysTime(2)), &AppSpec::All));
        assert!(v.matches(&SysSpec::AsOf(SysTime(3)), &AppSpec::All));
    }

    #[test]
    fn output_layouts_per_class() {
        let v = version();
        let bt = v.output_row(&def(TemporalClass::Bitemporal));
        assert_eq!(bt.arity(), 6);
        assert_eq!(bt.get(2), &Value::Date(AppDate(10)));
        assert_eq!(bt.get(5), &Value::SysTime(SysTime::MAX));

        let deg = v.output_row(&def(TemporalClass::Degenerate));
        assert_eq!(deg.arity(), 4);
        assert_eq!(deg.get(2), &Value::SysTime(SysTime(3)));

        let nt = v.output_row(&def(TemporalClass::NonTemporal));
        assert_eq!(nt.arity(), 2);
    }

    #[test]
    fn pred_matching() {
        let v = version();
        let preds = vec![ColRange::eq(0, Value::Int(1))];
        assert!(v.matches_preds(&preds));
        let preds = vec![ColRange::eq(0, Value::Int(2))];
        assert!(!v.matches_preds(&preds));
        assert!(v.matches_preds(&[]));
        // Key extraction from version rows still works.
        assert_eq!(Key::from_row(&v.row, &[0]), Key::Int(1));
    }
}
