//! Per-table row generation.
//!
//! Each row is produced from a PCG substream keyed by `(table tag, primary
//! key)`, making generation order-independent and reproducible. Application
//! periods are derived from the generated time attributes (paper §4.1);
//! customer visibility uses a Zipf-skewed offset so the application-time
//! dimension is non-uniform, as the benchmark requires (§3: "The data also
//! features non-uniform distributions along the application time
//! dimension").

use crate::schema::table_defs;
use crate::text;
use crate::{ScaleConfig, LAST_ORDER_DATE, START_DATE, SUPPLIERS_PER_PART};
use bitempo_core::hash::FxHashSet;
use bitempo_core::{AppDate, AppPeriod, Pcg32, Period, Row, TableDef, Value};
use std::sync::Arc;

/// TPC-H CURRENTDATE (1995-06-17), used for order status derivation.
pub const CURRENT_DATE: AppDate = AppDate::from_ymd(1995, 6, 17);

/// Substream tags per table.
mod tag {
    pub const SUPPLIER: u64 = 1 << 40;
    pub const CUSTOMER: u64 = 2 << 40;
    pub const PART: u64 = 3 << 40;
    pub const PARTSUPP: u64 = 4 << 40;
    pub const ORDERS: u64 = 5 << 40;
}

/// One generated table: definition plus rows with their application periods.
#[derive(Debug, Clone)]
pub struct GeneratedTable {
    /// Logical definition.
    pub def: TableDef,
    /// Rows paired with their application period (`None` for tables without
    /// a native application time).
    pub rows: Vec<(Row, Option<AppPeriod>)>,
}

/// The full version-0 population.
#[derive(Debug, Clone)]
pub struct TpchData {
    /// Tables in load order.
    pub tables: Vec<GeneratedTable>,
}

impl TpchData {
    /// The generated table named `name`. Panics on unknown names (static
    /// table set).
    pub fn table(&self, name: &str) -> &GeneratedTable {
        self.tables
            .iter()
            .find(|t| t.def.name == name)
            .unwrap_or_else(|| panic!("unknown table {name}"))
    }
}

/// TPC-H retail price formula (4.2.3).
pub fn retail_price(partkey: i64) -> f64 {
    (90_000.0 + ((partkey / 10) % 20_001) as f64 + 100.0 * (partkey % 1_000) as f64) / 100.0
}

/// The `i`-th (0..=3) supplier of `partkey` among `s_count` suppliers
/// (TPC-H 4.2.3 PS_SUPPKEY formula).
pub fn supplier_of_part(partkey: i64, i: i64, s_count: i64) -> i64 {
    (partkey + i * (s_count / 4 + (partkey - 1) / s_count)) % s_count + 1
}

fn ints(v: i64) -> Value {
    Value::Int(v)
}

/// One shared string per distinct value of the low-cardinality columns
/// (flags, statuses, modes, segments, brands, types, containers, clerks):
/// a cell of those is a reference-count bump on the value's one `Arc<str>`
/// instead of an allocation of its own, in the generated data and in every
/// engine loaded from it.
#[derive(Default)]
struct Interner(FxHashSet<Arc<str>>);

impl Interner {
    fn value(&mut self, s: impl AsRef<str>) -> Value {
        let s = s.as_ref();
        if let Some(shared) = self.0.get(s) {
            return Value::Str(Arc::clone(shared));
        }
        let shared: Arc<str> = Arc::from(s);
        self.0.insert(Arc::clone(&shared));
        Value::Str(shared)
    }
}

/// Generates all eight tables.
pub fn generate(config: &ScaleConfig) -> TpchData {
    let defs = table_defs();
    let root = Pcg32::new(config.seed, 0xB17E);
    let mut shared = Interner::default();
    let (orders, lineitems) = gen_orders_and_lineitems(config, &root, &mut shared);
    let mut orders = Some(orders);
    let mut lineitems = Some(lineitems);
    let mut tables = Vec::with_capacity(8);
    for def in defs {
        let rows = match def.name.as_str() {
            "region" => gen_region(),
            "nation" => gen_nation(),
            "supplier" => gen_supplier(config, &root),
            "customer" => gen_customer(config, &root, &mut shared),
            "part" => gen_part(config, &root, &mut shared),
            "partsupp" => gen_partsupp(config, &root),
            "orders" => orders.take().expect("orders generated once"),
            "lineitem" => lineitems.take().expect("lineitems generated once"),
            other => unreachable!("unknown table {other}"),
        };
        tables.push(GeneratedTable { def, rows });
    }
    TpchData { tables }
}

fn gen_region() -> Vec<(Row, Option<AppPeriod>)> {
    text::REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| (Row::new(vec![ints(i as i64), Value::str(*name)]), None))
        .collect()
}

fn gen_nation() -> Vec<(Row, Option<AppPeriod>)> {
    text::NATIONS
        .iter()
        .enumerate()
        .map(|(i, (name, region))| {
            (
                Row::new(vec![ints(i as i64), Value::str(*name), ints(*region)]),
                None,
            )
        })
        .collect()
}

fn gen_supplier(config: &ScaleConfig, root: &Pcg32) -> Vec<(Row, Option<AppPeriod>)> {
    (1..=config.suppliers() as i64)
        .map(|k| {
            let mut rng = root.derive_stream(tag::SUPPLIER | k as u64);
            let nation = rng.int_range(0, 24);
            let row = Row::new(vec![
                ints(k),
                Value::str(format!("Supplier#{k:09}")),
                Value::str(text::address(&mut rng)),
                ints(nation),
                Value::str(text::phone(&mut rng, nation)),
                Value::Double(rng.int_range(-99_999, 999_999) as f64 / 100.0),
                Value::str(text::supplier_comment(&mut rng)),
            ]);
            (row, None) // degenerate table: no native application time
        })
        .collect()
}

fn gen_customer(
    config: &ScaleConfig,
    root: &Pcg32,
    shared: &mut Interner,
) -> Vec<(Row, Option<AppPeriod>)> {
    (1..=config.customers() as i64)
        .map(|k| {
            let mut rng = root.derive_stream(tag::CUSTOMER | k as u64);
            let nation = rng.int_range(0, 24);
            let row = Row::new(vec![
                ints(k),
                Value::str(format!("Customer#{k:09}")),
                Value::str(text::address(&mut rng)),
                ints(nation),
                Value::str(text::phone(&mut rng, nation)),
                Value::Double(rng.int_range(-99_999, 999_999) as f64 / 100.0),
                shared.value(rng.pick(&text::SEGMENTS)),
            ]);
            // Non-uniform application time: most customers became visible
            // early in the TPC-H epoch (Zipf-skewed offset).
            let offset = rng.zipf(2_000, 1.05) as i64 - 1;
            let visible = Period::new(START_DATE.plus_days(offset), AppDate::MAX);
            (row, Some(visible))
        })
        .collect()
}

fn gen_part(
    config: &ScaleConfig,
    root: &Pcg32,
    shared: &mut Interner,
) -> Vec<(Row, Option<AppPeriod>)> {
    let span = LAST_ORDER_DATE.0 - START_DATE.0;
    (1..=config.parts() as i64)
        .map(|k| {
            let mut rng = root.derive_stream(tag::PART | k as u64);
            let mfgr = rng.int_range(1, 5);
            let brand = mfgr * 10 + rng.int_range(1, 5);
            let row = Row::new(vec![
                ints(k),
                Value::str(text::part_name(&mut rng)),
                shared.value(format!("Manufacturer#{mfgr}")),
                shared.value(format!("Brand#{brand}")),
                shared.value(format!(
                    "{} {} {}",
                    rng.pick(&text::TYPE_S1),
                    rng.pick(&text::TYPE_S2),
                    rng.pick(&text::TYPE_S3)
                )),
                ints(rng.int_range(1, 50)),
                shared.value(format!(
                    "{} {}",
                    rng.pick(&text::CONTAINER_S1),
                    rng.pick(&text::CONTAINER_S2)
                )),
                Value::Double(retail_price(k)),
            ]);
            // Parts become available somewhere in the first half of the
            // epoch and stay available.
            let avail_from = START_DATE.plus_days(rng.int_range(0, span / 2));
            (row, Some(Period::new(avail_from, AppDate::MAX)))
        })
        .collect()
}

fn gen_partsupp(config: &ScaleConfig, root: &Pcg32) -> Vec<(Row, Option<AppPeriod>)> {
    let s_count = config.suppliers() as i64;
    let span = LAST_ORDER_DATE.0 - START_DATE.0;
    const PER_PART: usize = SUPPLIERS_PER_PART as usize;
    let mut rows = Vec::with_capacity(config.parts() as usize * PER_PART);
    for p in 1..=config.parts() as i64 {
        let mut used = [0i64; PER_PART];
        for i in 0..PER_PART as i64 {
            // The TPC-H formula can collide at tiny supplier counts; probe
            // forward deterministically to keep (partkey, suppkey) unique
            // (`ScaleConfig::suppliers` leaves at least PER_PART to find).
            let mut s = supplier_of_part(p, i, s_count);
            while used[..i as usize].contains(&s) {
                s = s % s_count + 1;
            }
            used[i as usize] = s;
            let mut rng = root.derive_stream(tag::PARTSUPP | ((p as u64) << 2) | i as u64);
            let row = Row::new(vec![
                ints(p),
                ints(s),
                ints(rng.int_range(1, 9_999)),
                Value::Double(rng.int_range(100, 100_000) as f64 / 100.0),
            ]);
            let valid_from = START_DATE.plus_days(rng.int_range(0, span / 2));
            rows.push((row, Some(Period::new(valid_from, AppDate::MAX))));
        }
    }
    rows
}

/// Rows of one generated table, paired with their application periods.
type TableRows = Vec<(Row, Option<AppPeriod>)>;

/// Orders and lineitems are generated together: the order's status, total
/// price and both application times derive from its lines.
fn gen_orders_and_lineitems(
    config: &ScaleConfig,
    root: &Pcg32,
    shared: &mut Interner,
) -> (TableRows, TableRows) {
    let customers = config.customers() as i64;
    let parts = config.parts() as i64;
    let suppliers = config.suppliers() as i64;
    let clerks = ((1_000.0 * config.h).round() as i64).max(1);
    let order_span = LAST_ORDER_DATE.0 - START_DATE.0;

    let n_orders = config.orders() as usize;
    let mut orders = Vec::with_capacity(n_orders);
    let mut lineitems = Vec::with_capacity(n_orders * 4);

    for ok in 1..=config.orders() as i64 {
        let mut rng = root.derive_stream(tag::ORDERS | ok as u64);
        let custkey = rng.int_range(1, customers);
        let orderdate = START_DATE.plus_days(rng.int_range(0, order_span));
        let n_lines = rng.int_range(1, 7);

        let mut total = 0.0;
        let mut last_receipt = orderdate;
        let mut shipped = 0;
        for ln in 1..=n_lines {
            let partkey = rng.int_range(1, parts);
            let suppkey = supplier_of_part(partkey, rng.int_range(0, 3), suppliers);
            let quantity = rng.int_range(1, 50) as f64;
            let extended = quantity * retail_price(partkey);
            let discount = rng.int_range(0, 10) as f64 / 100.0;
            let tax = rng.int_range(0, 8) as f64 / 100.0;
            let shipdate = orderdate.plus_days(rng.int_range(1, 121));
            let commitdate = orderdate.plus_days(rng.int_range(30, 90));
            let receiptdate = shipdate.plus_days(rng.int_range(1, 30));
            if receiptdate > last_receipt {
                last_receipt = receiptdate;
            }
            let is_shipped = shipdate <= CURRENT_DATE;
            if is_shipped {
                shipped += 1;
            }
            let returnflag = if receiptdate <= CURRENT_DATE {
                if rng.chance(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            let linestatus = if is_shipped { "F" } else { "O" };
            total += extended * (1.0 + tax) * (1.0 - discount);
            let row = Row::new(vec![
                ints(ok),
                ints(partkey),
                ints(suppkey),
                ints(ln),
                Value::Double(quantity),
                Value::Double(extended),
                Value::Double(discount),
                Value::Double(tax),
                shared.value(returnflag),
                shared.value(linestatus),
                Value::Date(shipdate),
                Value::Date(commitdate),
                Value::Date(receiptdate),
                shared.value(rng.pick(&text::INSTRUCTIONS)),
                shared.value(rng.pick(&text::MODES)),
            ]);
            // A lineitem is "active" from shipment to receipt.
            lineitems.push((row, Some(Period::new(shipdate, receiptdate))));
        }

        let status = if shipped == n_lines {
            "F"
        } else if shipped == 0 {
            "O"
        } else {
            "P"
        };
        // active_time: placed → fully delivered (open for undelivered).
        let active_end = if status == "F" {
            last_receipt
        } else {
            AppDate::MAX
        };
        // receivable_time: invoiced at last receipt, paid after 10–60 days
        // (open while undelivered) — the second application time, stored as
        // plain columns.
        let (recv_start, recv_end) = if status == "F" {
            (last_receipt, last_receipt.plus_days(rng.int_range(10, 60)))
        } else {
            (last_receipt, AppDate::MAX)
        };
        let row = Row::new(vec![
            ints(ok),
            ints(custkey),
            shared.value(status),
            Value::Double((total * 100.0).round() / 100.0),
            Value::Date(orderdate),
            shared.value(rng.pick(&text::PRIORITIES)),
            shared.value(format!("Clerk#{:09}", rng.int_range(1, clerks))),
            ints(0),
            Value::str(text::order_comment(&mut rng)),
            Value::Date(recv_start),
            Value::Date(recv_end),
        ]);
        orders.push((row, Some(Period::new(orderdate, active_end))));
    }
    (orders, lineitems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::col;

    fn data() -> TpchData {
        generate(&ScaleConfig::tiny())
    }

    #[test]
    fn cardinalities() {
        let d = data();
        assert_eq!(d.table("region").rows.len(), 5);
        assert_eq!(d.table("nation").rows.len(), 25);
        assert_eq!(d.table("supplier").rows.len(), 10);
        assert_eq!(d.table("customer").rows.len(), 150);
        assert_eq!(d.table("part").rows.len(), 200);
        assert_eq!(d.table("partsupp").rows.len(), 800);
        assert_eq!(d.table("orders").rows.len(), 1_500);
        let li = d.table("lineitem").rows.len();
        assert!((1_500..=10_500).contains(&li), "lineitems: {li}");
    }

    #[test]
    fn determinism_across_runs() {
        let a = data();
        let b = data();
        for (ta, tb) in a.tables.iter().zip(&b.tables) {
            assert_eq!(ta.rows, tb.rows, "table {}", ta.def.name);
        }
    }

    #[test]
    fn low_cardinality_strings_are_shared_not_copied() {
        let d = data();
        // Every cell of these columns points at its value's one allocation,
        // across tables too (`F`/`O` are line and order statuses).
        let mut allocations: std::collections::HashMap<&str, *const u8> = Default::default();
        let shared_cols: [(&str, &[usize]); 4] = [
            (
                "lineitem",
                &[
                    col::lineitem::RETURNFLAG,
                    col::lineitem::LINESTATUS,
                    col::lineitem::SHIPINSTRUCT,
                    col::lineitem::SHIPMODE,
                ],
            ),
            (
                "orders",
                &[
                    col::orders::ORDERSTATUS,
                    col::orders::ORDERPRIORITY,
                    col::orders::CLERK,
                ],
            ),
            ("customer", &[col::customer::MKTSEGMENT]),
            (
                "part",
                &[
                    col::part::MFGR,
                    col::part::BRAND,
                    col::part::TYPE,
                    col::part::CONTAINER,
                ],
            ),
        ];
        for (table, cols) in shared_cols {
            for (row, _) in &d.table(table).rows {
                for &c in cols {
                    let s = row.get(c).as_str().unwrap();
                    let first = *allocations.entry(s).or_insert(s.as_ptr());
                    assert_eq!(first, s.as_ptr(), "{table} column {c}: {s:?} was copied");
                }
            }
        }
        assert!(allocations.len() > 50, "flags, modes, types, clerks…");
        // High-cardinality text keeps its own payload per cell.
        let comments: std::collections::HashSet<*const u8> = d
            .table("orders")
            .rows
            .iter()
            .map(|(row, _)| row.get(col::orders::COMMENT).as_str().unwrap().as_ptr())
            .collect();
        assert_eq!(comments.len(), d.table("orders").rows.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&ScaleConfig { h: 0.001, seed: 1 });
        let b = generate(&ScaleConfig { h: 0.001, seed: 2 });
        assert_ne!(a.table("customer").rows, b.table("customer").rows);
    }

    #[test]
    fn foreign_keys_are_valid() {
        let d = data();
        let customers = d.table("customer").rows.len() as i64;
        let parts = d.table("part").rows.len() as i64;
        let suppliers = d.table("supplier").rows.len() as i64;
        for (row, _) in &d.table("orders").rows {
            let ck = row.get(col::orders::CUSTKEY).as_int().unwrap();
            assert!((1..=customers).contains(&ck));
        }
        for (row, _) in &d.table("lineitem").rows {
            let pk = row.get(col::lineitem::PARTKEY).as_int().unwrap();
            let sk = row.get(col::lineitem::SUPPKEY).as_int().unwrap();
            assert!((1..=parts).contains(&pk));
            assert!((1..=suppliers).contains(&sk));
        }
        for (row, _) in &d.table("partsupp").rows {
            let sk = row.get(col::partsupp::SUPPKEY).as_int().unwrap();
            assert!((1..=suppliers).contains(&sk));
        }
    }

    #[test]
    fn lineitem_date_ordering_and_app_period() {
        let d = data();
        for (row, app) in &d.table("lineitem").rows {
            let ship = row.get(col::lineitem::SHIPDATE).as_date().unwrap();
            let receipt = row.get(col::lineitem::RECEIPTDATE).as_date().unwrap();
            assert!(ship < receipt);
            let app = app.expect("lineitem is bitemporal");
            assert_eq!(app.start, ship);
            assert_eq!(app.end, receipt);
            assert!(!app.is_empty());
        }
    }

    #[test]
    fn order_status_consistent_with_lines() {
        let d = data();
        let mut f = 0;
        let mut o = 0;
        let mut p = 0;
        for (row, app) in &d.table("orders").rows {
            let status = row
                .get(col::orders::ORDERSTATUS)
                .as_str()
                .unwrap()
                .to_string();
            let app = app.expect("orders is bitemporal");
            match status.as_str() {
                "F" => {
                    f += 1;
                    assert_ne!(app.end, AppDate::MAX, "finished orders close");
                }
                "O" => {
                    o += 1;
                    assert_eq!(app.end, AppDate::MAX, "open orders stay open");
                }
                "P" => p += 1,
                other => panic!("unexpected status {other}"),
            }
            let total = row.get(col::orders::TOTALPRICE).as_double().unwrap();
            assert!(total > 0.0);
        }
        // TPC-H's date spread yields roughly half finished orders, some
        // open, and a small partial share.
        assert!(f > 0 && o > 0, "F = {f}, O = {o}, P = {p}");
        assert!(p < f, "partial orders are the minority");
    }

    #[test]
    fn customer_visibility_is_skewed_early() {
        let d = data();
        let offsets: Vec<i64> = d
            .table("customer")
            .rows
            .iter()
            .map(|(_, app)| app.unwrap().start.0 - START_DATE.0)
            .collect();
        let early = offsets.iter().filter(|&&o| o < 100).count();
        assert!(
            early * 2 > offsets.len(),
            "Zipf skew: {} of {} within 100 days",
            early,
            offsets.len()
        );
    }

    #[test]
    fn partsupp_keys_unique_and_linked() {
        let d = data();
        let mut seen = std::collections::HashSet::new();
        for (row, _) in &d.table("partsupp").rows {
            let pk = row.get(0).as_int().unwrap();
            let sk = row.get(1).as_int().unwrap();
            assert!(seen.insert((pk, sk)), "duplicate partsupp ({pk}, {sk})");
        }
    }

    #[test]
    fn retail_price_formula() {
        assert_eq!(retail_price(1), 901.00);
        assert_eq!(retail_price(5), 905.00);
        assert_eq!(retail_price(1_000), 901.00);
    }
}
