//! The 22 TPC-H queries under bitemporal time travel (H workload, §5.4).
//!
//! Every query takes the two temporal coordinates and applies them to each
//! scan of a temporal table — "we use the 22 standard TPC-H queries and
//! extend them to allow the specification of both a system and an
//! application time point". Run with `Tt::none()` against a non-temporally
//! loaded engine to obtain the paper's non-temporal baseline (Fig 7's
//! denominators).
//!
//! Parameters are fixed to the TPC-H validation values, with scale-dependent
//! ones surfaced as function arguments.

use crate::Ctx;
use bitempo_core::{AppDate, Result, Row, Value};
use bitempo_dbgen::col::{
    customer as cu, lineitem as l, nation as n, orders as o, part as p, partsupp as ps,
    region as rg, supplier as s,
};
use bitempo_engine::api::{AppSpec, SysSpec};
use bitempo_query::expr::{col as c, lit, Expr};
use bitempo_query::{
    aggregate, distinct, filter, hash_join, project, sort_by, top_n, AggExpr, JoinKind, SortKey,
};

/// The time-travel coordinates applied to every temporal scan.
#[derive(Debug, Clone, Copy)]
pub struct Tt {
    /// System-time dimension.
    pub sys: SysSpec,
    /// Application-time dimension.
    pub app: AppSpec,
}

impl Tt {
    /// No time travel: the plain current state (also correct on
    /// non-temporally loaded baseline engines, whose scans ignore specs).
    pub fn none() -> Tt {
        Tt {
            sys: SysSpec::Current,
            app: AppSpec::All,
        }
    }

    /// Application-time travel at the current system time (Fig 7a).
    pub fn app(at: AppDate) -> Tt {
        Tt {
            sys: SysSpec::Current,
            app: AppSpec::AsOf(at),
        }
    }

    /// System-time travel (Fig 7b).
    pub fn sys(at: bitempo_core::SysTime) -> Tt {
        Tt {
            sys: SysSpec::AsOf(at),
            app: AppSpec::All,
        }
    }
}

fn date(y: i32, m: u32, d: u32) -> Expr {
    lit(Value::Date(AppDate::from_ymd(y, m, d)))
}

impl Ctx<'_> {
    fn tscan(&self, table: bitempo_core::TableId, tt: &Tt) -> Result<Vec<Row>> {
        self.scan(table, &tt.sys, &tt.app, &[])
    }
}

/// Scan arity of a table *on the engine at hand*. The non-temporal baseline
/// engines (Fig 7 denominators) emit no period columns, so join offsets must
/// be derived from the live schema, not hard-coded.
fn ar(ctx: &Ctx<'_>, table: bitempo_core::TableId) -> usize {
    ctx.engine.table_def(table).scan_schema().arity()
}

/// Q1: pricing summary report.
pub fn q1(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let rows = ctx.tscan(ctx.t.lineitem, tt)?;
    let rows = filter(&rows, &c(l::SHIPDATE).le(date(1998, 9, 2)))?;
    let disc_price = c(l::EXTENDEDPRICE).mul(lit(1.0).sub(c(l::DISCOUNT)));
    let charge = disc_price.clone().mul(lit(1.0).add(c(l::TAX)));
    let mut out = aggregate(
        &rows,
        &[l::RETURNFLAG, l::LINESTATUS],
        &[
            AggExpr::sum(c(l::QUANTITY)),
            AggExpr::sum(c(l::EXTENDEDPRICE)),
            AggExpr::sum(disc_price),
            AggExpr::sum(charge),
            AggExpr::avg(c(l::QUANTITY)),
            AggExpr::avg(c(l::EXTENDEDPRICE)),
            AggExpr::avg(c(l::DISCOUNT)),
            AggExpr::count(),
        ],
    )?;
    sort_by(&mut out, &[SortKey::asc(0), SortKey::asc(1)]);
    Ok(out)
}

/// Q2: minimum-cost supplier (size 15, `%BRASS`, EUROPE).
pub fn q2(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let part = ctx.tscan(ctx.t.part, tt)?;
    let part = filter(
        &part,
        &c(p::SIZE).eq(lit(15)).and(c(p::TYPE).like("%BRASS")),
    )?;
    let partsupp = ctx.tscan(ctx.t.partsupp, tt)?;
    let supplier = ctx.tscan(ctx.t.supplier, tt)?;
    let nation = ctx.tscan(ctx.t.nation, tt)?;
    let region = filter(
        &ctx.tscan(ctx.t.region, tt)?,
        &c(rg::NAME).eq(lit("EUROPE")),
    )?;
    // ps ⋈ part ⋈ supplier ⋈ nation ⋈ region.
    let j = hash_join(
        &partsupp,
        &part,
        &[ps::PARTKEY],
        &[p::PARTKEY],
        JoinKind::Inner,
    );
    let o_part = ar(ctx, ctx.t.partsupp);
    let j = hash_join(
        &j,
        &supplier,
        &[ps::SUPPKEY],
        &[s::SUPPKEY],
        JoinKind::Inner,
    );
    let o_supp = o_part + ar(ctx, ctx.t.part);
    let j = hash_join(
        &j,
        &nation,
        &[o_supp + s::NATIONKEY],
        &[n::NATIONKEY],
        JoinKind::Inner,
    );
    let o_nat = o_supp + ar(ctx, ctx.t.supplier);
    let j = hash_join(
        &j,
        &region,
        &[o_nat + n::REGIONKEY],
        &[rg::REGIONKEY],
        JoinKind::Inner,
    );
    // Min supplycost per part (over the qualifying European offers).
    let mins = aggregate(&j, &[ps::PARTKEY], &[AggExpr::min(c(ps::SUPPLYCOST))])?;
    let arity = ar(ctx, ctx.t.partsupp)
        + ar(ctx, ctx.t.part)
        + ar(ctx, ctx.t.supplier)
        + ar(ctx, ctx.t.nation)
        + ar(ctx, ctx.t.region);
    let j = hash_join(&j, &mins, &[ps::PARTKEY], &[0], JoinKind::Inner);
    let j = filter(&j, &c(ps::SUPPLYCOST).eq(c(arity + 1)))?;
    let out = project(
        &j,
        &[
            c(o_supp + s::ACCTBAL),
            c(o_supp + s::NAME),
            c(o_nat + n::NAME),
            c(ps::PARTKEY),
            c(o_part + p::MFGR),
            c(o_supp + s::PHONE),
        ],
    )?;
    Ok(top_n(
        &out,
        &[
            SortKey::desc(0),
            SortKey::asc(2),
            SortKey::asc(1),
            SortKey::asc(3),
        ],
        100,
    ))
}

/// Q3: shipping priority (BUILDING, 1995-03-15).
pub fn q3(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let customer = filter(
        &ctx.tscan(ctx.t.customer, tt)?,
        &c(cu::MKTSEGMENT).eq(lit("BUILDING")),
    )?;
    let orders = filter(
        &ctx.tscan(ctx.t.orders, tt)?,
        &c(o::ORDERDATE).lt(date(1995, 3, 15)),
    )?;
    let lineitem = filter(
        &ctx.tscan(ctx.t.lineitem, tt)?,
        &c(l::SHIPDATE).gt(date(1995, 3, 15)),
    )?;
    let j = hash_join(
        &customer,
        &orders,
        &[cu::CUSTKEY],
        &[o::CUSTKEY],
        JoinKind::Inner,
    );
    let o_ord = ar(ctx, ctx.t.customer);
    let j = hash_join(
        &j,
        &lineitem,
        &[o_ord + o::ORDERKEY],
        &[l::ORDERKEY],
        JoinKind::Inner,
    );
    let o_li = o_ord + ar(ctx, ctx.t.orders);
    let revenue = c(o_li + l::EXTENDEDPRICE).mul(lit(1.0).sub(c(o_li + l::DISCOUNT)));
    let keyed = project(
        &j,
        &[
            c(o_ord + o::ORDERKEY),
            c(o_ord + o::ORDERDATE),
            c(o_ord + o::SHIPPRIORITY),
            revenue,
        ],
    )?;
    let grouped = aggregate(&keyed, &[0, 1, 2], &[AggExpr::sum(c(3))])?;
    Ok(top_n(
        &grouped,
        &[SortKey::desc(3), SortKey::asc(1), SortKey::asc(0)],
        10,
    ))
}

/// Q4: order-priority checking (1993-Q3).
pub fn q4(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let orders = filter(
        &ctx.tscan(ctx.t.orders, tt)?,
        &c(o::ORDERDATE)
            .ge(date(1993, 7, 1))
            .and(c(o::ORDERDATE).lt(date(1993, 10, 1))),
    )?;
    let lineitem = filter(
        &ctx.tscan(ctx.t.lineitem, tt)?,
        &c(l::COMMITDATE).lt(c(l::RECEIPTDATE)),
    )?;
    let j = hash_join(
        &orders,
        &lineitem,
        &[o::ORDERKEY],
        &[l::ORDERKEY],
        JoinKind::Semi,
    );
    let mut out = aggregate(&j, &[o::ORDERPRIORITY], &[AggExpr::count()])?;
    sort_by(&mut out, &[SortKey::asc(0)]);
    Ok(out)
}

/// Q5: local supplier volume (ASIA, 1994).
pub fn q5(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let region = filter(&ctx.tscan(ctx.t.region, tt)?, &c(rg::NAME).eq(lit("ASIA")))?;
    let nation = ctx.tscan(ctx.t.nation, tt)?;
    let customer = ctx.tscan(ctx.t.customer, tt)?;
    let orders = filter(
        &ctx.tscan(ctx.t.orders, tt)?,
        &c(o::ORDERDATE)
            .ge(date(1994, 1, 1))
            .and(c(o::ORDERDATE).lt(date(1995, 1, 1))),
    )?;
    let lineitem = ctx.tscan(ctx.t.lineitem, tt)?;
    let supplier = ctx.tscan(ctx.t.supplier, tt)?;

    let j = hash_join(
        &region,
        &nation,
        &[rg::REGIONKEY],
        &[n::REGIONKEY],
        JoinKind::Inner,
    );
    let o_nat = ar(ctx, ctx.t.region);
    let j = hash_join(
        &j,
        &customer,
        &[o_nat + n::NATIONKEY],
        &[cu::NATIONKEY],
        JoinKind::Inner,
    );
    let o_cust = o_nat + ar(ctx, ctx.t.nation);
    let j = hash_join(
        &j,
        &orders,
        &[o_cust + cu::CUSTKEY],
        &[o::CUSTKEY],
        JoinKind::Inner,
    );
    let o_ord = o_cust + ar(ctx, ctx.t.customer);
    let j = hash_join(
        &j,
        &lineitem,
        &[o_ord + o::ORDERKEY],
        &[l::ORDERKEY],
        JoinKind::Inner,
    );
    let o_li = o_ord + ar(ctx, ctx.t.orders);
    // Local suppliers: same nation as the customer.
    let j = hash_join(
        &j,
        &supplier,
        &[o_li + l::SUPPKEY, o_nat + n::NATIONKEY],
        &[s::SUPPKEY, s::NATIONKEY],
        JoinKind::Inner,
    );
    let revenue = c(o_li + l::EXTENDEDPRICE).mul(lit(1.0).sub(c(o_li + l::DISCOUNT)));
    let keyed = project(&j, &[c(o_nat + n::NAME), revenue])?;
    let mut out = aggregate(&keyed, &[0], &[AggExpr::sum(c(1))])?;
    sort_by(&mut out, &[SortKey::desc(1)]);
    Ok(out)
}

/// Q6: forecasting revenue change (1994, discount 0.05–0.07, qty < 24).
pub fn q6(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let rows = ctx.tscan(ctx.t.lineitem, tt)?;
    let rows = filter(
        &rows,
        &c(l::SHIPDATE)
            .ge(date(1994, 1, 1))
            .and(c(l::SHIPDATE).lt(date(1995, 1, 1)))
            .and(c(l::DISCOUNT).ge(lit(0.05)))
            .and(c(l::DISCOUNT).le(lit(0.07)))
            .and(c(l::QUANTITY).lt(lit(24.0))),
    )?;
    aggregate(
        &rows,
        &[],
        &[AggExpr::sum(c(l::EXTENDEDPRICE).mul(c(l::DISCOUNT)))],
    )
}

/// Q7: volume shipping between FRANCE and GERMANY (1995–1996).
pub fn q7(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let nation = ctx.tscan(ctx.t.nation, tt)?;
    let fr_de = filter(
        &nation,
        &c(n::NAME)
            .eq(lit("FRANCE"))
            .or(c(n::NAME).eq(lit("GERMANY"))),
    )?;
    let supplier = ctx.tscan(ctx.t.supplier, tt)?;
    let customer = ctx.tscan(ctx.t.customer, tt)?;
    let orders = ctx.tscan(ctx.t.orders, tt)?;
    let lineitem = filter(
        &ctx.tscan(ctx.t.lineitem, tt)?,
        &c(l::SHIPDATE)
            .ge(date(1995, 1, 1))
            .and(c(l::SHIPDATE).le(date(1996, 12, 31))),
    )?;
    // supplier ⋈ n1
    let sj = hash_join(
        &supplier,
        &fr_de,
        &[s::NATIONKEY],
        &[n::NATIONKEY],
        JoinKind::Inner,
    );
    let o_n1 = ar(ctx, ctx.t.supplier);
    // customer ⋈ n2
    let cj = hash_join(
        &customer,
        &fr_de,
        &[cu::NATIONKEY],
        &[n::NATIONKEY],
        JoinKind::Inner,
    );
    // lineitem ⋈ sj
    let j = hash_join(
        &lineitem,
        &sj,
        &[l::SUPPKEY],
        &[s::SUPPKEY],
        JoinKind::Inner,
    );
    let o_sj = ar(ctx, ctx.t.lineitem);
    // ⋈ orders
    let j = hash_join(&j, &orders, &[l::ORDERKEY], &[o::ORDERKEY], JoinKind::Inner);
    let o_ord = o_sj + ar(ctx, ctx.t.supplier) + ar(ctx, ctx.t.nation);
    // ⋈ cj on custkey
    let j = hash_join(
        &j,
        &cj,
        &[o_ord + o::CUSTKEY],
        &[cu::CUSTKEY],
        JoinKind::Inner,
    );
    let o_cj = o_ord + ar(ctx, ctx.t.orders);
    let supp_nation = o_sj + o_n1 + n::NAME;
    let cust_nation = o_cj + ar(ctx, ctx.t.customer) + n::NAME;
    // Cross-country only.
    let j = filter(&j, &c(supp_nation).ne(c(cust_nation)))?;
    let year = Expr::If(
        Box::new(c(l::SHIPDATE).lt(date(1996, 1, 1))),
        Box::new(lit(1995)),
        Box::new(lit(1996)),
    );
    let volume = c(l::EXTENDEDPRICE).mul(lit(1.0).sub(c(l::DISCOUNT)));
    let keyed = project(&j, &[c(supp_nation), c(cust_nation), year, volume])?;
    let mut out = aggregate(&keyed, &[0, 1, 2], &[AggExpr::sum(c(3))])?;
    sort_by(
        &mut out,
        &[SortKey::asc(0), SortKey::asc(1), SortKey::asc(2)],
    );
    Ok(out)
}

/// Q8: national market share (BRAZIL in AMERICA, ECONOMY ANODIZED STEEL).
pub fn q8(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let part = filter(
        &ctx.tscan(ctx.t.part, tt)?,
        &c(p::TYPE).eq(lit("ECONOMY ANODIZED STEEL")),
    )?;
    let region = filter(
        &ctx.tscan(ctx.t.region, tt)?,
        &c(rg::NAME).eq(lit("AMERICA")),
    )?;
    let nation = ctx.tscan(ctx.t.nation, tt)?;
    let customer = ctx.tscan(ctx.t.customer, tt)?;
    let supplier = ctx.tscan(ctx.t.supplier, tt)?;
    let orders = filter(
        &ctx.tscan(ctx.t.orders, tt)?,
        &c(o::ORDERDATE)
            .ge(date(1995, 1, 1))
            .and(c(o::ORDERDATE).le(date(1996, 12, 31))),
    )?;
    let lineitem = ctx.tscan(ctx.t.lineitem, tt)?;

    let j = hash_join(
        &lineitem,
        &part,
        &[l::PARTKEY],
        &[p::PARTKEY],
        JoinKind::Inner,
    );
    let j = hash_join(&j, &orders, &[l::ORDERKEY], &[o::ORDERKEY], JoinKind::Inner);
    let o_ord = ar(ctx, ctx.t.lineitem) + ar(ctx, ctx.t.part);
    let j = hash_join(
        &j,
        &customer,
        &[o_ord + o::CUSTKEY],
        &[cu::CUSTKEY],
        JoinKind::Inner,
    );
    let o_cust = o_ord + ar(ctx, ctx.t.orders);
    // Customer's nation must lie in AMERICA.
    let cn = hash_join(
        &nation,
        &region,
        &[n::REGIONKEY],
        &[rg::REGIONKEY],
        JoinKind::Semi,
    );
    let j = hash_join(
        &j,
        &cn,
        &[o_cust + cu::NATIONKEY],
        &[n::NATIONKEY],
        JoinKind::Semi,
    );
    // Supplier nation names the competitor.
    let j = hash_join(&j, &supplier, &[l::SUPPKEY], &[s::SUPPKEY], JoinKind::Inner);
    let o_supp = o_cust + ar(ctx, ctx.t.customer);
    let j = hash_join(
        &j,
        &nation,
        &[o_supp + s::NATIONKEY],
        &[n::NATIONKEY],
        JoinKind::Inner,
    );
    let o_nat = o_supp + ar(ctx, ctx.t.supplier);
    let year = Expr::If(
        Box::new(c(o_ord + o::ORDERDATE).lt(date(1996, 1, 1))),
        Box::new(lit(1995)),
        Box::new(lit(1996)),
    );
    let volume = c(l::EXTENDEDPRICE).mul(lit(1.0).sub(c(l::DISCOUNT)));
    let brazil_volume = Expr::If(
        Box::new(c(o_nat + n::NAME).eq(lit("BRAZIL"))),
        Box::new(volume.clone()),
        Box::new(lit(0.0)),
    );
    let keyed = project(&j, &[year, brazil_volume, volume])?;
    let grouped = aggregate(&keyed, &[0], &[AggExpr::sum(c(1)), AggExpr::sum(c(2))])?;
    let mut out = project(&grouped, &[c(0), c(1).div(c(2))])?;
    sort_by(&mut out, &[SortKey::asc(0)]);
    Ok(out)
}

/// Q9: product-type profit (`%green%`).
pub fn q9(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let part = filter(&ctx.tscan(ctx.t.part, tt)?, &c(p::NAME).like("%green%"))?;
    let lineitem = ctx.tscan(ctx.t.lineitem, tt)?;
    let supplier = ctx.tscan(ctx.t.supplier, tt)?;
    let partsupp = ctx.tscan(ctx.t.partsupp, tt)?;
    let orders = ctx.tscan(ctx.t.orders, tt)?;
    let nation = ctx.tscan(ctx.t.nation, tt)?;

    let j = hash_join(
        &lineitem,
        &part,
        &[l::PARTKEY],
        &[p::PARTKEY],
        JoinKind::Semi,
    );
    let j = hash_join(
        &j,
        &partsupp,
        &[l::PARTKEY, l::SUPPKEY],
        &[ps::PARTKEY, ps::SUPPKEY],
        JoinKind::Inner,
    );
    let o_ps = ar(ctx, ctx.t.lineitem);
    let j = hash_join(&j, &supplier, &[l::SUPPKEY], &[s::SUPPKEY], JoinKind::Inner);
    let o_supp = o_ps + ar(ctx, ctx.t.partsupp);
    let j = hash_join(&j, &orders, &[l::ORDERKEY], &[o::ORDERKEY], JoinKind::Inner);
    let o_ord = o_supp + ar(ctx, ctx.t.supplier);
    let j = hash_join(
        &j,
        &nation,
        &[o_supp + s::NATIONKEY],
        &[n::NATIONKEY],
        JoinKind::Inner,
    );
    let o_nat = o_ord + ar(ctx, ctx.t.orders);
    // Profit = extprice*(1-disc) − supplycost*qty; year from orderdate.
    let profit = c(l::EXTENDEDPRICE)
        .mul(lit(1.0).sub(c(l::DISCOUNT)))
        .sub(c(o_ps + ps::SUPPLYCOST).mul(c(l::QUANTITY)));
    // Integer year via date bucketing by thresholds 1992..1998.
    let mut year = lit(1992);
    for y in 1993..=1999 {
        year = Expr::If(
            Box::new(c(o_ord + o::ORDERDATE).ge(date(y, 1, 1))),
            Box::new(lit(y as i64)),
            Box::new(year),
        );
    }
    let keyed = project(&j, &[c(o_nat + n::NAME), year, profit])?;
    let mut out = aggregate(&keyed, &[0, 1], &[AggExpr::sum(c(2))])?;
    sort_by(&mut out, &[SortKey::asc(0), SortKey::desc(1)]);
    Ok(out)
}

/// Q10: returned-item reporting (1993-Q4 orders, R flag); top 20 customers.
pub fn q10(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let customer = ctx.tscan(ctx.t.customer, tt)?;
    let orders = filter(
        &ctx.tscan(ctx.t.orders, tt)?,
        &c(o::ORDERDATE)
            .ge(date(1993, 10, 1))
            .and(c(o::ORDERDATE).lt(date(1994, 1, 1))),
    )?;
    let lineitem = filter(
        &ctx.tscan(ctx.t.lineitem, tt)?,
        &c(l::RETURNFLAG).eq(lit("R")),
    )?;
    let nation = ctx.tscan(ctx.t.nation, tt)?;
    let j = hash_join(
        &customer,
        &orders,
        &[cu::CUSTKEY],
        &[o::CUSTKEY],
        JoinKind::Inner,
    );
    let o_ord = ar(ctx, ctx.t.customer);
    let j = hash_join(
        &j,
        &lineitem,
        &[o_ord + o::ORDERKEY],
        &[l::ORDERKEY],
        JoinKind::Inner,
    );
    let o_li = o_ord + ar(ctx, ctx.t.orders);
    let j = hash_join(
        &j,
        &nation,
        &[cu::NATIONKEY],
        &[n::NATIONKEY],
        JoinKind::Inner,
    );
    let o_nat = o_li + ar(ctx, ctx.t.lineitem);
    let revenue = c(o_li + l::EXTENDEDPRICE).mul(lit(1.0).sub(c(o_li + l::DISCOUNT)));
    let keyed = project(
        &j,
        &[
            c(cu::CUSTKEY),
            c(cu::NAME),
            c(cu::ACCTBAL),
            c(o_nat + n::NAME),
            revenue,
        ],
    )?;
    let grouped = aggregate(&keyed, &[0, 1, 2, 3], &[AggExpr::sum(c(4))])?;
    Ok(top_n(&grouped, &[SortKey::desc(4), SortKey::asc(0)], 20))
}

/// Q11: important stock identification (GERMANY; threshold as a fraction
/// of total value — scale-dependent, so exposed as a parameter).
pub fn q11(ctx: &Ctx<'_>, tt: &Tt, fraction: f64) -> Result<Vec<Row>> {
    let partsupp = ctx.tscan(ctx.t.partsupp, tt)?;
    let supplier = ctx.tscan(ctx.t.supplier, tt)?;
    let nation = filter(
        &ctx.tscan(ctx.t.nation, tt)?,
        &c(n::NAME).eq(lit("GERMANY")),
    )?;
    let sj = hash_join(
        &supplier,
        &nation,
        &[s::NATIONKEY],
        &[n::NATIONKEY],
        JoinKind::Semi,
    );
    let j = hash_join(
        &partsupp,
        &sj,
        &[ps::SUPPKEY],
        &[s::SUPPKEY],
        JoinKind::Semi,
    );
    let value = c(ps::SUPPLYCOST).mul(c(ps::AVAILQTY));
    let keyed = project(&j, &[c(ps::PARTKEY), value])?;
    let per_part = aggregate(&keyed, &[0], &[AggExpr::sum(c(1))])?;
    let total = aggregate(&keyed, &[], &[AggExpr::sum(c(1))])?;
    let threshold = total[0].get(0).as_double()? * fraction;
    let mut out = filter(&per_part, &c(1).gt(lit(threshold)))?;
    sort_by(&mut out, &[SortKey::desc(1), SortKey::asc(0)]);
    Ok(out)
}

/// Q12: shipping-mode priority (MAIL, SHIP; 1994 receipts).
pub fn q12(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let lineitem = filter(
        &ctx.tscan(ctx.t.lineitem, tt)?,
        &c(l::SHIPMODE)
            .in_list(vec![Value::str("MAIL"), Value::str("SHIP")])
            .and(c(l::COMMITDATE).lt(c(l::RECEIPTDATE)))
            .and(c(l::SHIPDATE).lt(c(l::COMMITDATE)))
            .and(c(l::RECEIPTDATE).ge(date(1994, 1, 1)))
            .and(c(l::RECEIPTDATE).lt(date(1995, 1, 1))),
    )?;
    let orders = ctx.tscan(ctx.t.orders, tt)?;
    let j = hash_join(
        &lineitem,
        &orders,
        &[l::ORDERKEY],
        &[o::ORDERKEY],
        JoinKind::Inner,
    );
    let o_ord = ar(ctx, ctx.t.lineitem);
    let high = Expr::If(
        Box::new(
            c(o_ord + o::ORDERPRIORITY)
                .eq(lit("1-URGENT"))
                .or(c(o_ord + o::ORDERPRIORITY).eq(lit("2-HIGH"))),
        ),
        Box::new(lit(1)),
        Box::new(lit(0)),
    );
    let low = Expr::If(
        Box::new(
            c(o_ord + o::ORDERPRIORITY)
                .eq(lit("1-URGENT"))
                .or(c(o_ord + o::ORDERPRIORITY).eq(lit("2-HIGH"))),
        ),
        Box::new(lit(0)),
        Box::new(lit(1)),
    );
    let keyed = project(&j, &[c(l::SHIPMODE), high, low])?;
    let mut out = aggregate(&keyed, &[0], &[AggExpr::sum(c(1)), AggExpr::sum(c(2))])?;
    sort_by(&mut out, &[SortKey::asc(0)]);
    Ok(out)
}

/// Q13: customer distribution (orders not about `%special%requests%`).
pub fn q13(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let customer = ctx.tscan(ctx.t.customer, tt)?;
    let orders = filter(
        &ctx.tscan(ctx.t.orders, tt)?,
        &c(o::COMMENT).like("%special%requests%").negate(),
    )?;
    let j = hash_join(
        &customer,
        &orders,
        &[cu::CUSTKEY],
        &[o::CUSTKEY],
        JoinKind::Left,
    );
    let o_ord = ar(ctx, ctx.t.customer);
    // Count orders per customer; NULL orderkey (no match) contributes 0.
    let keyed = project(
        &j,
        &[
            c(cu::CUSTKEY),
            Expr::If(
                Box::new(Expr::IsNull(Box::new(c(o_ord + o::ORDERKEY)))),
                Box::new(lit(0)),
                Box::new(lit(1)),
            ),
        ],
    )?;
    let per_customer = aggregate(&keyed, &[0], &[AggExpr::sum(c(1))])?;
    let dist = aggregate(&per_customer, &[1], &[AggExpr::count()])?;
    let mut out = dist;
    sort_by(&mut out, &[SortKey::desc(1), SortKey::desc(0)]);
    Ok(out)
}

/// Q14: promotion effect (1995-09).
pub fn q14(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let lineitem = filter(
        &ctx.tscan(ctx.t.lineitem, tt)?,
        &c(l::SHIPDATE)
            .ge(date(1995, 9, 1))
            .and(c(l::SHIPDATE).lt(date(1995, 10, 1))),
    )?;
    let part = ctx.tscan(ctx.t.part, tt)?;
    let j = hash_join(
        &lineitem,
        &part,
        &[l::PARTKEY],
        &[p::PARTKEY],
        JoinKind::Inner,
    );
    let o_part = ar(ctx, ctx.t.lineitem);
    let revenue = c(l::EXTENDEDPRICE).mul(lit(1.0).sub(c(l::DISCOUNT)));
    let promo = Expr::If(
        Box::new(c(o_part + p::TYPE).like("PROMO%")),
        Box::new(revenue.clone()),
        Box::new(lit(0.0)),
    );
    let keyed = project(&j, &[promo, revenue])?;
    let sums = aggregate(&keyed, &[], &[AggExpr::sum(c(0)), AggExpr::sum(c(1))])?;
    project(&sums, &[lit(100.0).mul(c(0)).div(c(1))])
}

/// Q15: top supplier (revenue in 1996-Q1).
pub fn q15(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let lineitem = filter(
        &ctx.tscan(ctx.t.lineitem, tt)?,
        &c(l::SHIPDATE)
            .ge(date(1996, 1, 1))
            .and(c(l::SHIPDATE).lt(date(1996, 4, 1))),
    )?;
    let revenue = c(l::EXTENDEDPRICE).mul(lit(1.0).sub(c(l::DISCOUNT)));
    let keyed = project(&lineitem, &[c(l::SUPPKEY), revenue])?;
    let per_supplier = aggregate(&keyed, &[0], &[AggExpr::sum(c(1))])?;
    let max = aggregate(&per_supplier, &[], &[AggExpr::max(c(1))])?;
    let best = max[0].get(0).clone();
    let winners = filter(&per_supplier, &c(1).eq(lit(best)))?;
    let supplier = ctx.tscan(ctx.t.supplier, tt)?;
    let j = hash_join(&winners, &supplier, &[0], &[s::SUPPKEY], JoinKind::Inner);
    let o_supp = 2;
    let mut out = project(
        &j,
        &[
            c(0),
            c(o_supp + s::NAME),
            c(o_supp + s::ADDRESS),
            c(o_supp + s::PHONE),
            c(1),
        ],
    )?;
    sort_by(&mut out, &[SortKey::asc(0)]);
    Ok(out)
}

/// Q16: parts/supplier relationship (excluding Brand#45, complaints).
pub fn q16(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let part = filter(
        &ctx.tscan(ctx.t.part, tt)?,
        &c(p::BRAND)
            .eq(lit("Brand#45"))
            .negate()
            .and(c(p::TYPE).like("MEDIUM POLISHED%").negate())
            .and(
                c(p::SIZE).in_list(
                    [49i64, 14, 23, 45, 19, 3, 36, 9]
                        .into_iter()
                        .map(Value::Int)
                        .collect(),
                ),
            ),
    )?;
    let partsupp = ctx.tscan(ctx.t.partsupp, tt)?;
    let complainers = filter(
        &ctx.tscan(ctx.t.supplier, tt)?,
        &c(s::COMMENT).like("%Customer%Complaints%"),
    )?;
    let j = hash_join(
        &partsupp,
        &part,
        &[ps::PARTKEY],
        &[p::PARTKEY],
        JoinKind::Inner,
    );
    let j = hash_join(
        &j,
        &complainers,
        &[ps::SUPPKEY],
        &[s::SUPPKEY],
        JoinKind::Anti,
    );
    let o_part = ar(ctx, ctx.t.partsupp);
    let keyed = project(
        &j,
        &[
            c(o_part + p::BRAND),
            c(o_part + p::TYPE),
            c(o_part + p::SIZE),
            c(ps::SUPPKEY),
        ],
    )?;
    let mut out = aggregate(&keyed, &[0, 1, 2], &[AggExpr::count_distinct(c(3))])?;
    sort_by(
        &mut out,
        &[
            SortKey::desc(3),
            SortKey::asc(0),
            SortKey::asc(1),
            SortKey::asc(2),
        ],
    );
    Ok(out)
}

/// Q17: small-quantity-order revenue (Brand#23, MED BOX).
pub fn q17(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let part = filter(
        &ctx.tscan(ctx.t.part, tt)?,
        &c(p::BRAND)
            .eq(lit("Brand#23"))
            .and(c(p::CONTAINER).eq(lit("MED BOX"))),
    )?;
    let lineitem = ctx.tscan(ctx.t.lineitem, tt)?;
    let j = hash_join(
        &lineitem,
        &part,
        &[l::PARTKEY],
        &[p::PARTKEY],
        JoinKind::Semi,
    );
    let avg_qty = aggregate(&j, &[l::PARTKEY], &[AggExpr::avg(c(l::QUANTITY))])?;
    let j2 = hash_join(&j, &avg_qty, &[l::PARTKEY], &[0], JoinKind::Inner);
    let threshold_col = ar(ctx, ctx.t.lineitem) + 1;
    let small = filter(&j2, &c(l::QUANTITY).lt(lit(0.2).mul(c(threshold_col))))?;
    let sums = aggregate(&small, &[], &[AggExpr::sum(c(l::EXTENDEDPRICE))])?;
    project(&sums, &[c(0).div(lit(7.0))])
}

/// Q18: large-volume customers (order quantity > `min_qty`).
pub fn q18(ctx: &Ctx<'_>, tt: &Tt, min_qty: f64) -> Result<Vec<Row>> {
    let lineitem = ctx.tscan(ctx.t.lineitem, tt)?;
    let per_order = aggregate(&lineitem, &[l::ORDERKEY], &[AggExpr::sum(c(l::QUANTITY))])?;
    let big = filter(&per_order, &c(1).gt(lit(min_qty)))?;
    let orders = ctx.tscan(ctx.t.orders, tt)?;
    let customer = ctx.tscan(ctx.t.customer, tt)?;
    let j = hash_join(&orders, &big, &[o::ORDERKEY], &[0], JoinKind::Inner);
    let o_qty = ar(ctx, ctx.t.orders) + 1;
    let j = hash_join(
        &j,
        &customer,
        &[o::CUSTKEY],
        &[cu::CUSTKEY],
        JoinKind::Inner,
    );
    let o_cust = ar(ctx, ctx.t.orders) + 2;
    let keyed = project(
        &j,
        &[
            c(o_cust + cu::NAME),
            c(o_cust + cu::CUSTKEY),
            c(o::ORDERKEY),
            c(o::ORDERDATE),
            c(o::TOTALPRICE),
            c(o_qty),
        ],
    )?;
    Ok(top_n(
        &keyed,
        &[SortKey::desc(4), SortKey::asc(3), SortKey::asc(2)],
        100,
    ))
}

/// Q19: discounted revenue (three brand/container/quantity brackets).
pub fn q19(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let lineitem = filter(
        &ctx.tscan(ctx.t.lineitem, tt)?,
        &c(l::SHIPINSTRUCT)
            .eq(lit("DELIVER IN PERSON"))
            .and(c(l::SHIPMODE).in_list(vec![Value::str("AIR"), Value::str("REG AIR")])),
    )?;
    let part = ctx.tscan(ctx.t.part, tt)?;
    let j = hash_join(
        &lineitem,
        &part,
        &[l::PARTKEY],
        &[p::PARTKEY],
        JoinKind::Inner,
    );
    let op = ar(ctx, ctx.t.lineitem);
    let bracket = |brand: &str, containers: &[&str], lo: f64, hi: f64| {
        c(op + p::BRAND)
            .eq(lit(brand))
            .and(c(op + p::CONTAINER).in_list(containers.iter().map(|&x| Value::str(x)).collect()))
            .and(c(l::QUANTITY).ge(lit(lo)))
            .and(c(l::QUANTITY).le(lit(hi)))
            .and(c(op + p::SIZE).between(lit(1), lit(15)))
    };
    let cond = bracket(
        "Brand#12",
        &["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
        1.0,
        11.0,
    )
    .or(bracket(
        "Brand#23",
        &["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
        10.0,
        20.0,
    ))
    .or(bracket(
        "Brand#34",
        &["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
        20.0,
        30.0,
    ));
    let matched = filter(&j, &cond)?;
    aggregate(
        &matched,
        &[],
        &[AggExpr::sum(
            c(l::EXTENDEDPRICE).mul(lit(1.0).sub(c(l::DISCOUNT))),
        )],
    )
}

/// Q20: potential part promotion (forest parts, CANADA, 1994).
pub fn q20(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let part = filter(&ctx.tscan(ctx.t.part, tt)?, &c(p::NAME).like("forest%"))?;
    let partsupp = ctx.tscan(ctx.t.partsupp, tt)?;
    let ps_forest = hash_join(
        &partsupp,
        &part,
        &[ps::PARTKEY],
        &[p::PARTKEY],
        JoinKind::Semi,
    );
    // Half the quantity shipped of that part/supplier in 1994.
    let lineitem = filter(
        &ctx.tscan(ctx.t.lineitem, tt)?,
        &c(l::SHIPDATE)
            .ge(date(1994, 1, 1))
            .and(c(l::SHIPDATE).lt(date(1995, 1, 1))),
    )?;
    let shipped = aggregate(
        &lineitem,
        &[l::PARTKEY, l::SUPPKEY],
        &[AggExpr::sum(c(l::QUANTITY))],
    )?;
    let j = hash_join(
        &ps_forest,
        &shipped,
        &[ps::PARTKEY, ps::SUPPKEY],
        &[0, 1],
        JoinKind::Inner,
    );
    let qty_col = ar(ctx, ctx.t.partsupp) + 2;
    let plenty = filter(&j, &c(ps::AVAILQTY).gt(lit(0.5).mul(c(qty_col))))?;
    // Suppliers of those offers, in CANADA.
    let nation = filter(&ctx.tscan(ctx.t.nation, tt)?, &c(n::NAME).eq(lit("CANADA")))?;
    let supplier = ctx.tscan(ctx.t.supplier, tt)?;
    let canadians = hash_join(
        &supplier,
        &nation,
        &[s::NATIONKEY],
        &[n::NATIONKEY],
        JoinKind::Semi,
    );
    let chosen = hash_join(
        &canadians,
        &plenty,
        &[s::SUPPKEY],
        &[ps::SUPPKEY],
        JoinKind::Semi,
    );
    let mut out = project(&chosen, &[c(s::NAME), c(s::ADDRESS)])?;
    out = distinct(&out);
    sort_by(&mut out, &[SortKey::asc(0)]);
    Ok(out)
}

/// Q21: suppliers who kept orders waiting (SAUDI ARABIA).
pub fn q21(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let lineitem = ctx.tscan(ctx.t.lineitem, tt)?;
    let late = filter(&lineitem, &c(l::RECEIPTDATE).gt(c(l::COMMITDATE)))?;
    let orders = filter(
        &ctx.tscan(ctx.t.orders, tt)?,
        &c(o::ORDERSTATUS).eq(lit("F")),
    )?;
    // l1: late lines of finished orders.
    let l1 = hash_join(
        &late,
        &orders,
        &[l::ORDERKEY],
        &[o::ORDERKEY],
        JoinKind::Semi,
    );
    // Another supplier also touched the order...
    let mut l1_other = Vec::new();
    {
        use std::collections::HashMap;
        let mut per_order: HashMap<i64, Vec<i64>> = HashMap::new();
        for row in &lineitem {
            per_order
                .entry(row.get(l::ORDERKEY).as_int()?)
                .or_default()
                .push(row.get(l::SUPPKEY).as_int()?);
        }
        let mut late_per_order: HashMap<i64, Vec<i64>> = HashMap::new();
        for row in &late {
            late_per_order
                .entry(row.get(l::ORDERKEY).as_int()?)
                .or_default()
                .push(row.get(l::SUPPKEY).as_int()?);
        }
        for row in &l1 {
            let ok = row.get(l::ORDERKEY).as_int()?;
            let sk = row.get(l::SUPPKEY).as_int()?;
            let others_exist = per_order[&ok].iter().any(|&x| x != sk);
            let others_late = late_per_order[&ok].iter().any(|&x| x != sk);
            // EXISTS another supplier on the order, NOT EXISTS another
            // *late* supplier — this one is solely to blame.
            if others_exist && !others_late {
                l1_other.push(row.clone());
            }
        }
    }
    let nation = filter(
        &ctx.tscan(ctx.t.nation, tt)?,
        &c(n::NAME).eq(lit("SAUDI ARABIA")),
    )?;
    let supplier = ctx.tscan(ctx.t.supplier, tt)?;
    let saudis = hash_join(
        &supplier,
        &nation,
        &[s::NATIONKEY],
        &[n::NATIONKEY],
        JoinKind::Semi,
    );
    let j = hash_join(
        &l1_other,
        &saudis,
        &[l::SUPPKEY],
        &[s::SUPPKEY],
        JoinKind::Inner,
    );
    let o_supp = ar(ctx, ctx.t.lineitem);
    let keyed = project(&j, &[c(o_supp + s::NAME)])?;
    let grouped = aggregate(&keyed, &[0], &[AggExpr::count()])?;
    Ok(top_n(&grouped, &[SortKey::desc(1), SortKey::asc(0)], 100))
}

/// Q22: global sales opportunity (dormant customers with above-average
/// balances in seven country codes).
pub fn q22(ctx: &Ctx<'_>, tt: &Tt) -> Result<Vec<Row>> {
    let codes = ["13", "31", "23", "29", "30", "18", "17"];
    let customer = ctx.tscan(ctx.t.customer, tt)?;
    // cntrycode = first two digits of the phone number.
    let with_code: Vec<Row> = customer
        .iter()
        .map(|r| {
            let phone = r.get(cu::PHONE).as_str().unwrap_or("");
            let code = phone.split('-').next().unwrap_or("").to_string();
            let mut values = r.values().to_vec();
            values.push(Value::str(code));
            Row::new(values)
        })
        .collect();
    let code_col = ar(ctx, ctx.t.customer);
    let in_codes = filter(
        &with_code,
        &c(code_col).in_list(codes.iter().map(|&x| Value::str(x)).collect()),
    )?;
    // Average positive balance among those customers.
    let positive = filter(&in_codes, &c(cu::ACCTBAL).gt(lit(0.0)))?;
    let avg = aggregate(&positive, &[], &[AggExpr::avg(c(cu::ACCTBAL))])?;
    let avg_bal = avg[0].get(0).as_double().unwrap_or(0.0);
    let rich = filter(&in_codes, &c(cu::ACCTBAL).gt(lit(avg_bal)))?;
    // ...with no orders at all.
    let orders = ctx.tscan(ctx.t.orders, tt)?;
    let dormant = hash_join(
        &rich,
        &orders,
        &[cu::CUSTKEY],
        &[o::CUSTKEY],
        JoinKind::Anti,
    );
    let keyed = project(&dormant, &[c(code_col), c(cu::ACCTBAL)])?;
    let mut out = aggregate(&keyed, &[0], &[AggExpr::count(), AggExpr::sum(c(1))])?;
    sort_by(&mut out, &[SortKey::asc(0)]);
    Ok(out)
}

/// Runs query `number` (1–22) with default parameters.
pub fn run_query(ctx: &Ctx<'_>, number: u8, tt: &Tt) -> Result<Vec<Row>> {
    match number {
        1 => q1(ctx, tt),
        2 => q2(ctx, tt),
        3 => q3(ctx, tt),
        4 => q4(ctx, tt),
        5 => q5(ctx, tt),
        6 => q6(ctx, tt),
        7 => q7(ctx, tt),
        8 => q8(ctx, tt),
        9 => q9(ctx, tt),
        10 => q10(ctx, tt),
        11 => q11(ctx, tt, 0.01),
        12 => q12(ctx, tt),
        13 => q13(ctx, tt),
        14 => q14(ctx, tt),
        15 => q15(ctx, tt),
        16 => q16(ctx, tt),
        17 => q17(ctx, tt),
        18 => q18(ctx, tt, 300.0),
        19 => q19(ctx, tt),
        20 => q20(ctx, tt),
        21 => q21(ctx, tt),
        22 => q22(ctx, tt),
        other => Err(bitempo_core::Error::Invalid(format!(
            "TPC-H query {other} (valid: 1..=22)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{assert_equivalent, fixture};

    #[test]
    fn all_22_queries_agree_across_engines_current() {
        let tt = Tt::none();
        for q in 1..=22u8 {
            let rows = assert_equivalent(|ctx| run_query(ctx, q, &tt));
            // Aggregation queries always return at least one row.
            if [1, 6, 14, 17, 19].contains(&q) {
                assert!(!rows.is_empty(), "Q{q} must produce output");
            }
        }
    }

    #[test]
    fn all_22_queries_agree_under_app_time_travel() {
        let p = fixture().params.clone();
        let tt = Tt::app(p.app_mid);
        for q in 1..=22u8 {
            assert_equivalent(|ctx| run_query(ctx, q, &tt));
        }
    }

    #[test]
    fn all_22_queries_agree_under_sys_time_travel() {
        let p = fixture().params.clone();
        let tt = Tt::sys(p.sys_initial);
        for q in 1..=22u8 {
            assert_equivalent(|ctx| run_query(ctx, q, &tt));
        }
    }

    #[test]
    fn q1_aggregates_are_consistent() {
        let rows = assert_equivalent(|ctx| q1(ctx, &Tt::none()));
        assert!(!rows.is_empty());
        for r in &rows {
            let sum_qty = r.get(2).as_double().unwrap();
            let count = r.get(9).as_int().unwrap();
            let avg_qty = r.get(6).as_double().unwrap();
            assert!((sum_qty / count as f64 - avg_qty).abs() < 1e-6);
        }
    }

    #[test]
    fn q6_matches_manual_computation() {
        let fx = fixture();
        let ctx = Ctx::new(fx.engines[0].1.as_ref()).unwrap();
        let rows = ctx.tscan(ctx.t.lineitem, &Tt::none()).unwrap();
        let mut expected = 0.0;
        for r in &rows {
            let ship = r.get(l::SHIPDATE).as_date().unwrap();
            let disc = r.get(l::DISCOUNT).as_double().unwrap();
            let qty = r.get(l::QUANTITY).as_double().unwrap();
            if ship >= AppDate::from_ymd(1994, 1, 1)
                && ship < AppDate::from_ymd(1995, 1, 1)
                && (0.05..=0.07).contains(&disc)
                && qty < 24.0
            {
                expected += r.get(l::EXTENDEDPRICE).as_double().unwrap() * disc;
            }
        }
        let got = q6(&ctx, &Tt::none()).unwrap()[0]
            .get(0)
            .as_double()
            .unwrap();
        assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
    }

    #[test]
    fn sys_time_travel_changes_results() {
        let p = fixture().params.clone();
        // Q1 over the initial version vs now: history adds lineitems.
        let early = assert_equivalent(|ctx| q1(ctx, &Tt::sys(p.sys_initial)));
        let now = assert_equivalent(|ctx| q1(ctx, &Tt::none()));
        let total = |rows: &[Row]| -> i64 { rows.iter().map(|r| r.get(9).as_int().unwrap()).sum() };
        // The history both adds (new orders) and removes (cancellations)
        // qualifying lineitems; the two snapshots must simply differ.
        assert_ne!(total(&now), total(&early), "history must be visible");
    }

    #[test]
    fn invalid_query_number() {
        let fx = fixture();
        let ctx = Ctx::new(fx.engines[0].1.as_ref()).unwrap();
        assert!(run_query(&ctx, 0, &Tt::none()).is_err());
        assert!(run_query(&ctx, 23, &Tt::none()).is_err());
    }
}
