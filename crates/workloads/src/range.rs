//! Range-timeslice queries (R group, paper §3.3 and §5.6): application
//! oriented workloads that keep one time dimension at a point while
//! analysing the other.

use crate::Ctx;
use bitempo_core::{Result, Row, SysTime, Value};
use bitempo_dbgen::col;
use bitempo_engine::api::{AppSpec, SysSpec};
use bitempo_query::expr::col as c;
use bitempo_query::{
    aggregate, filter, temporal_aggregate, temporal_aggregate_naive, temporal_join, top_n,
    version_delta, AggExpr, SortKey,
};

/// R1: state *changes* — order-status transitions along system time, at
/// the current application slice. Two temporal evaluations of ORDERS joined
/// on adjacent versions, counting transitions per `(from, to)` pair.
pub fn r1(ctx: &Ctx<'_>) -> Result<Vec<Row>> {
    let (sys_start, _) = ctx.sys_cols(ctx.t.orders);
    let rows = ctx.scan(ctx.t.orders, &SysSpec::All, &AppSpec::All, &[])?;
    let pairs = version_delta(&rows, &[col::orders::ORDERKEY], sys_start);
    let arity = rows.first().map_or(0, Row::arity);
    let from_status = col::orders::ORDERSTATUS;
    let to_status = arity + col::orders::ORDERSTATUS;
    let changed = filter(&pairs, &c(from_status).ne(c(to_status)))?;
    let mut out = aggregate(&changed, &[from_status, to_status], &[AggExpr::count()])?;
    bitempo_query::sort_by(&mut out, &[SortKey::asc(0), SortKey::asc(1)]);
    Ok(out)
}

/// R2: state *durations* — how long versions stayed current, per order
/// status, measured in commits of system time (average and count).
pub fn r2(ctx: &Ctx<'_>, now: SysTime) -> Result<Vec<Row>> {
    let (sys_start, sys_end) = ctx.sys_cols(ctx.t.orders);
    let rows = ctx.scan(ctx.t.orders, &SysSpec::All, &AppSpec::All, &[])?;
    let durations: Vec<Row> = rows
        .iter()
        .map(|r| {
            let s = r.get(sys_start).as_sys_time().expect("sys start").0;
            let e = match r.get(sys_end).as_sys_time().expect("sys end") {
                t if t == bitempo_core::SysTime::MAX => now.0,
                t => t.0,
            };
            Row::new(vec![
                r.get(col::orders::ORDERSTATUS).clone(),
                Value::Int(e.saturating_sub(s) as i64),
            ])
        })
        .collect();
    let mut out = aggregate(&durations, &[0], &[AggExpr::avg(c(1)), AggExpr::count()])?;
    bitempo_query::sort_by(&mut out, &[SortKey::asc(0)]);
    Ok(out)
}

/// R3a: temporal aggregation (SUM of `o_totalprice` along application
/// time), in the *naive* boundary-points formulation — the plan SQL:2011
/// forces and the paper measured at two orders of magnitude over ALL.
pub fn r3a_naive(ctx: &Ctx<'_>, sys: SysSpec) -> Result<Vec<Row>> {
    let (app_start, app_end) = ctx.app_cols(ctx.t.orders);
    let rows = ctx.scan(ctx.t.orders, &sys, &AppSpec::All, &[])?;
    let (agg, _) =
        temporal_aggregate_naive(&rows, app_start, app_end, &c(col::orders::TOTALPRICE))?;
    Ok(agg)
}

/// R3a in the efficient event-sweep formulation (what a native temporal
/// operator would do — the paper's envisioned optimization target).
pub fn r3a_sweep(ctx: &Ctx<'_>, sys: SysSpec) -> Result<Vec<Row>> {
    let (app_start, app_end) = ctx.app_cols(ctx.t.orders);
    let rows = ctx.scan(ctx.t.orders, &sys, &AppSpec::All, &[])?;
    let (agg, _) = temporal_aggregate(&rows, app_start, app_end, &c(col::orders::TOTALPRICE))?;
    Ok(agg)
}

/// R3b: the second aggregation function of R3 — active-order COUNT per
/// elementary interval (naive formulation).
pub fn r3b_naive(ctx: &Ctx<'_>, sys: SysSpec) -> Result<Vec<Row>> {
    let (app_start, app_end) = ctx.app_cols(ctx.t.orders);
    let rows = ctx.scan(ctx.t.orders, &sys, &AppSpec::All, &[])?;
    let (agg, _) =
        temporal_aggregate_naive(&rows, app_start, app_end, &c(col::orders::TOTALPRICE))?;
    // Keep (start, end, count).
    Ok(agg.iter().map(|r| r.project(&[0, 1, 3])).collect())
}

/// R4: the parts with the *smallest* difference in stock levels over the
/// whole history (PARTSUPP availqty max − min per part; 10 smallest).
pub fn r4(ctx: &Ctx<'_>) -> Result<Vec<Row>> {
    let rows = ctx.scan(ctx.t.partsupp, &SysSpec::All, &AppSpec::All, &[])?;
    let per_part = aggregate(
        &rows,
        &[col::partsupp::PARTKEY],
        &[
            AggExpr::max(c(col::partsupp::AVAILQTY)),
            AggExpr::min(c(col::partsupp::AVAILQTY)),
        ],
    )?;
    let spread: Vec<Row> = per_part
        .iter()
        .map(|r| {
            let max = r.get(1).as_double().expect("max qty");
            let min = r.get(2).as_double().expect("min qty");
            Row::new(vec![r.get(0).clone(), Value::Double(max - min)])
        })
        .collect();
    Ok(top_n(&spread, &[SortKey::asc(1), SortKey::asc(0)], 10))
}

/// R5: temporal join — how often a customer had a balance below
/// `balance_limit` *while* having an order above `price_limit` recorded
/// (correlation along system time). Returns the match count.
pub fn r5(ctx: &Ctx<'_>, balance_limit: f64, price_limit: f64) -> Result<Vec<Row>> {
    let customers = ctx.scan(ctx.t.customer, &SysSpec::All, &AppSpec::All, &[])?;
    let poor = filter(
        &customers,
        &c(col::customer::ACCTBAL).lt(bitempo_query::expr::lit(balance_limit)),
    )?;
    let orders = ctx.scan(ctx.t.orders, &SysSpec::All, &AppSpec::All, &[])?;
    let pricey = filter(
        &orders,
        &c(col::orders::TOTALPRICE).gt(bitempo_query::expr::lit(price_limit)),
    )?;
    let c_sys = ctx.sys_cols(ctx.t.customer);
    let o_sys = ctx.sys_cols(ctx.t.orders);
    let joined = temporal_join(
        &poor,
        &pricey,
        &[col::customer::CUSTKEY],
        &[col::orders::CUSTKEY],
        c_sys,
        o_sys,
    );
    aggregate(&joined, &[], &[AggExpr::count()])
}

/// R6: temporal aggregation over a temporal join — total open-order value
/// per elementary application interval, joining ORDERS and LINEITEM on
/// overlapping active periods.
pub fn r6(ctx: &Ctx<'_>, sys: SysSpec) -> Result<Vec<Row>> {
    let orders = ctx.scan(ctx.t.orders, &sys, &AppSpec::All, &[])?;
    let lineitems = ctx.scan(ctx.t.lineitem, &sys, &AppSpec::All, &[])?;
    let o_app = ctx.app_cols(ctx.t.orders);
    let l_app = ctx.app_cols(ctx.t.lineitem);
    let joined = temporal_join(
        &orders,
        &lineitems,
        &[col::orders::ORDERKEY],
        &[col::lineitem::ORDERKEY],
        o_app,
        l_app,
    );
    // The appended intersection period is the join's temporal extent.
    let arity = joined.first().map_or(0, Row::arity);
    if arity == 0 {
        return Ok(Vec::new());
    }
    let (ix_start, ix_end) = (arity - 2, arity - 1);
    let o_arity = orders.first().map_or(0, Row::arity);
    let price = o_arity + col::lineitem::EXTENDEDPRICE;
    let (agg, _) = temporal_aggregate(&joined, ix_start, ix_end, &c(price))?;
    Ok(agg)
}

/// R7: suppliers who raised a price by more than 7.5 % in one update —
/// generalizing K4/K5's previous-version retrieval to *all* keys.
pub fn r7(ctx: &Ctx<'_>) -> Result<Vec<Row>> {
    let (sys_start, _) = ctx.sys_cols(ctx.t.partsupp);
    let rows = ctx.scan(ctx.t.partsupp, &SysSpec::All, &AppSpec::All, &[])?;
    let pairs = version_delta(
        &rows,
        &[col::partsupp::PARTKEY, col::partsupp::SUPPKEY],
        sys_start,
    );
    let arity = rows.first().map_or(0, Row::arity);
    let old_cost = col::partsupp::SUPPLYCOST;
    let new_cost = arity + col::partsupp::SUPPLYCOST;
    let raised = filter(
        &pairs,
        &c(new_cost).gt(c(old_cost).mul(bitempo_query::expr::lit(1.075))),
    )?;
    let mut suppliers: Vec<Row> = bitempo_query::distinct(
        &raised
            .iter()
            .map(|r| r.project(&[col::partsupp::SUPPKEY]))
            .collect::<Vec<_>>(),
    );
    bitempo_query::sort_by(&mut suppliers, &[SortKey::asc(0)]);
    Ok(suppliers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{assert_equivalent, fixture};

    #[test]
    fn r1_counts_status_transitions() {
        let rows = assert_equivalent(r1);
        // Deliveries (O→F) happen in every history.
        let of = rows
            .iter()
            .find(|r| r.get(0) == &Value::str("O") && r.get(1) == &Value::str("F"));
        assert!(of.is_some(), "O→F transitions must exist: {rows:?}");
    }

    #[test]
    fn r2_durations_per_status() {
        let p = fixture().params.clone();
        let rows = assert_equivalent(|ctx| r2(ctx, p.sys_now));
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.get(1).as_double().unwrap() >= 0.0);
            assert!(r.get(2).as_int().unwrap() > 0);
        }
    }

    #[test]
    fn r3_naive_equals_sweep() {
        let naive = assert_equivalent(|ctx| r3a_naive(ctx, SysSpec::Current));
        let sweep = assert_equivalent(|ctx| r3a_sweep(ctx, SysSpec::Current));
        assert_eq!(
            crate::rows_approx_diff(&naive, &sweep, 1e-9),
            None,
            "both formulations must agree"
        );
        assert!(!naive.is_empty());
        let counts = assert_equivalent(|ctx| r3b_naive(ctx, SysSpec::Current));
        assert_eq!(counts.len(), naive.len());
        assert_eq!(counts[0].arity(), 3);
    }

    #[test]
    fn r4_smallest_stock_spread() {
        let rows = assert_equivalent(r4);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.get(1).as_double().unwrap() >= 0.0);
        }
    }

    #[test]
    fn r5_temporal_join_counts() {
        let rows = assert_equivalent(|ctx| r5(ctx, 5_000.0, 100_000.0));
        assert_eq!(rows.len(), 1);
        assert!(rows[0].get(0).as_int().unwrap() >= 0);
        // Relaxing both limits can only increase matches.
        let relaxed = assert_equivalent(|ctx| r5(ctx, 1_000_000.0, 0.0));
        assert!(relaxed[0].get(0).as_int().unwrap() >= rows[0].get(0).as_int().unwrap());
    }

    #[test]
    fn r6_join_then_aggregate() {
        let rows = assert_equivalent(|ctx| r6(ctx, SysSpec::Current));
        assert!(!rows.is_empty());
        // Sums are positive and intervals ordered.
        for r in &rows {
            assert!(r.get(2).as_double().unwrap() > 0.0);
        }
    }

    #[test]
    fn r7_price_raisers() {
        let rows = assert_equivalent(r7);
        // The Change-Price scenario draws factors up to 1.15, so some
        // raises exceed 7.5 % in any non-trivial history.
        assert!(!rows.is_empty(), "expected at least one >7.5 % price raise");
    }
}
