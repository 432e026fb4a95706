//! Scenario execution: turning the Table-1 mix into concrete transactions.
//!
//! Each scenario execution emits one transaction of DML operations, applies
//! them to the generator's own state, and appends them to the archive. That
//! state keeps versions only for [`READ_TABLES`], the tables whose current
//! versions a scenario reads; the full oracle is rebuilt from the archive
//! when it is asked for ([`crate::generate_history_with_state`]). When
//! a scenario's precondition fails (e.g. `Cancel Order` with no open
//! orders), it degrades to `New Order (existing customer)` — keeping the
//! transaction stream total without skewing long-run frequencies, since
//! open orders are plentiful in steady state.

use crate::ops::{Op, ScenarioKind, Transaction};
use crate::state::GenDb;
use crate::stats::HistoryStats;
use crate::{History, HistoryConfig};
use bitempo_core::hash::FxHashMap;
use bitempo_core::{AppDate, Key, Pcg32, Period, Row, Value};
use bitempo_dbgen::tables::retail_price;
use bitempo_dbgen::{col, text, TpchData, LAST_ORDER_DATE};

/// Table indexes in load order (see [`bitempo_dbgen::TPCH_TABLES`]).
mod t {
    pub const SUPPLIER: u8 = 2;
    pub const CUSTOMER: u8 = 3;
    pub const PART: u8 = 4;
    pub const PARTSUPP: u8 = 5;
    pub const ORDERS: u8 = 6;
    pub const LINEITEM: u8 = 7;
}

/// The tables whose current versions the scenarios read, and so the only
/// ones the scenario loop keeps versions for: ORDERS (`receive_payment`'s
/// customer, `manipulate_order`'s total and period) and PARTSUPP
/// (`change_price`'s old cost). A scenario that reads another table must
/// add it here; [`GenDb::current_of`] debug-asserts it.
pub const READ_TABLES: [u8; 2] = [t::PARTSUPP, t::ORDERS];

/// Scenarios per application-time day (the paper's history spans months of
/// simulated business on top of the TPC-H epoch).
const SCENARIOS_PER_DAY: u64 = 4;

/// A pool of int keys with O(1) random pick and removal.
#[derive(Debug, Default)]
struct KeyPool {
    keys: Vec<i64>,
    index: FxHashMap<i64, usize>,
}

impl KeyPool {
    fn insert(&mut self, key: i64) {
        if self.index.contains_key(&key) {
            return;
        }
        self.index.insert(key, self.keys.len());
        self.keys.push(key);
    }

    fn remove(&mut self, key: i64) -> bool {
        let Some(pos) = self.index.remove(&key) else {
            return false;
        };
        let last = self.keys.len() - 1;
        self.keys.swap(pos, last);
        self.keys.pop();
        if pos < self.keys.len() {
            self.index.insert(self.keys[pos], pos);
        }
        true
    }

    fn pick(&self, rng: &mut Pcg32) -> Option<i64> {
        if self.keys.is_empty() {
            return None;
        }
        Some(self.keys[rng.int_range(0, self.keys.len() as i64 - 1) as usize])
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

#[derive(Debug, Clone, Copy)]
struct OrderInfo {
    orderdate: AppDate,
    lines: i64,
}

/// Mutable scenario-side state (which keys exist, which orders are open).
struct Runner {
    rng: Pcg32,
    next_custkey: i64,
    next_orderkey: i64,
    customers: Vec<i64>,
    suppliers: i64,
    parts: i64,
    partsupp_keys: Vec<(i64, i64)>,
    /// Orders still existing (not cancelled).
    live_orders: KeyPool,
    /// Open (undelivered) orders.
    open_orders: KeyPool,
    /// Delivered, not yet paid.
    receivable: KeyPool,
    order_info: FxHashMap<i64, OrderInfo>,
}

impl Runner {
    fn from_data(data: &TpchData, seed: u64) -> Runner {
        let customers: Vec<i64> = data
            .table("customer")
            .rows
            .iter()
            .map(|(r, _)| r.get(col::customer::CUSTKEY).as_int().expect("custkey"))
            .collect();
        let partsupp_keys: Vec<(i64, i64)> = data
            .table("partsupp")
            .rows
            .iter()
            .map(|(r, _)| {
                (
                    r.get(col::partsupp::PARTKEY).as_int().expect("partkey"),
                    r.get(col::partsupp::SUPPKEY).as_int().expect("suppkey"),
                )
            })
            .collect();
        let mut live_orders = KeyPool::default();
        let mut open_orders = KeyPool::default();
        let mut receivable = KeyPool::default();
        let mut order_info = FxHashMap::default();
        let mut max_order = 0;
        for (row, _) in &data.table("orders").rows {
            let ok = row.get(col::orders::ORDERKEY).as_int().expect("orderkey");
            let status = row.get(col::orders::ORDERSTATUS).as_str().expect("status");
            let orderdate = row.get(col::orders::ORDERDATE).as_date().expect("date");
            live_orders.insert(ok);
            match status {
                "O" | "P" => open_orders.insert(ok),
                // Half the finished orders still await payment at cut-over.
                _ if ok % 2 == 0 => receivable.insert(ok),
                _ => {}
            }
            order_info.insert(
                ok,
                OrderInfo {
                    orderdate,
                    lines: 0,
                },
            );
            max_order = max_order.max(ok);
        }
        // Count lines per order for cancel scenarios.
        for (row, _) in &data.table("lineitem").rows {
            let ok = row.get(col::lineitem::ORDERKEY).as_int().expect("orderkey");
            if let Some(info) = order_info.get_mut(&ok) {
                info.lines += 1;
            }
        }
        Runner {
            rng: Pcg32::new(seed, 0x5CE7),
            next_custkey: customers.iter().copied().max().unwrap_or(0) + 1,
            next_orderkey: max_order + 1,
            customers,
            suppliers: data.table("supplier").rows.len() as i64,
            parts: data.table("part").rows.len() as i64,
            partsupp_keys,
            live_orders,
            open_orders,
            receivable,
            order_info,
        }
    }

    fn pick_weighted_kind(&mut self) -> ScenarioKind {
        let weights: Vec<f64> = ScenarioKind::WEIGHTED.iter().map(|(_, w)| *w).collect();
        let idx = self.rng.pick_weighted(&weights);
        ScenarioKind::WEIGHTED[idx].0
    }

    /// Degrades scenarios whose preconditions fail.
    fn resolve_kind(&mut self, kind: ScenarioKind) -> ScenarioKind {
        let ok = match kind {
            ScenarioKind::CancelOrder | ScenarioKind::DeliverOrder => self.open_orders.len() > 0,
            ScenarioKind::ReceivePayment => self.receivable.len() > 0,
            ScenarioKind::ManipulateOrderData => self.live_orders.len() > 0,
            _ => true,
        };
        if ok {
            kind
        } else {
            ScenarioKind::NewOrderExistingCustomer
        }
    }
}

/// Runs the configured number of scenarios.
pub fn run(data: &TpchData, config: &HistoryConfig) -> History {
    let mut db = GenDb::keeping(data, &READ_TABLES);
    let mut runner = Runner::from_data(data, config.seed);
    let mut stats = HistoryStats::new(
        data.tables.iter().map(|t| t.def.name.clone()).collect(),
        data.tables.iter().map(|t| t.rows.len() as u64).collect(),
    );
    let mut transactions = Vec::with_capacity(config.scenarios() as usize);

    for i in 0..config.scenarios() {
        let today = LAST_ORDER_DATE.plus_days(1 + (i / SCENARIOS_PER_DAY) as i64);
        let kind = runner.pick_weighted_kind();
        let kind = runner.resolve_kind(kind);
        let mut ops = build_ops(kind, &mut runner, &db, today);
        // The archive keeps every transaction for the whole load: at its
        // length, not at the capacity its pushes grew it to.
        ops.shrink_to_fit();
        let at = db.now().next();
        for op in &ops {
            let has_app = db.def(op.table() as usize).has_app_time();
            stats.record(op, has_app);
            db.apply(op, at).expect("generated op must be valid");
        }
        db.commit(at);
        stats.scenario_counts[kind.tag() as usize] += 1;
        transactions.push(Transaction {
            scenarios: vec![kind],
            ops,
        });
    }

    History {
        archive: crate::Archive {
            dbgen_seed: 0,
            hist_seed: config.seed,
            transactions,
        },
        stats,
    }
}

fn build_ops(kind: ScenarioKind, r: &mut Runner, db: &GenDb, today: AppDate) -> Vec<Op> {
    match kind {
        ScenarioKind::NewOrderNewCustomer => new_order(r, today, true),
        ScenarioKind::NewOrderExistingCustomer => new_order(r, today, false),
        ScenarioKind::CancelOrder => cancel_order(r),
        ScenarioKind::DeliverOrder => deliver_order(r, today),
        ScenarioKind::ReceivePayment => receive_payment(r, db, today),
        ScenarioKind::UpdateStock => update_stock(r, today),
        ScenarioKind::DelayAvailability => delay_availability(r, today),
        ScenarioKind::ChangePriceBySupplier => change_price(r, db, today),
        ScenarioKind::UpdateSupplier => update_supplier(r),
        ScenarioKind::ManipulateOrderData => manipulate_order(r, db, today),
    }
}

fn new_order(r: &mut Runner, today: AppDate, new_customer: bool) -> Vec<Op> {
    let mut ops = Vec::new();
    let custkey = if new_customer {
        let k = r.next_custkey;
        r.next_custkey += 1;
        let nation = r.rng.int_range(0, 24);
        ops.push(Op::Insert {
            table: t::CUSTOMER,
            row: Row::new(vec![
                Value::Int(k),
                Value::str(format!("Customer#{k:09}")),
                Value::str(text::address(&mut r.rng)),
                Value::Int(nation),
                Value::str(text::phone(&mut r.rng, nation)),
                Value::Double(r.rng.int_range(-99_999, 999_999) as f64 / 100.0),
                Value::str(*r.rng.pick(&text::SEGMENTS)),
            ]),
            app: Some(Period::new(today, AppDate::MAX)),
        });
        r.customers.push(k);
        k
    } else {
        let i = r.rng.int_range(0, r.customers.len() as i64 - 1) as usize;
        let k = r.customers[i];
        // Placing an order changes the customer's balance going forward —
        // the dominant source of CUSTOMER updates (Table 2: > 70 % of
        // CUSTOMER operations are updates).
        ops.push(Op::Update {
            table: t::CUSTOMER,
            key: Key::int(k),
            updates: vec![(
                col::customer::ACCTBAL as u16,
                Value::Double(r.rng.int_range(-99_999, 999_999) as f64 / 100.0),
            )],
            portion: Some(Period::new(today, AppDate::MAX)),
        });
        // Occasionally the visibility period itself is corrected (Table 2:
        // CUSTOMER overwrites application time).
        if r.rng.chance(0.1) {
            ops.push(Op::OverwriteApp {
                table: t::CUSTOMER,
                key: Key::int(k),
                period: Period::new(today.plus_days(-r.rng.int_range(30, 2_000)), AppDate::MAX),
            });
        }
        k
    };

    let orderkey = r.next_orderkey;
    r.next_orderkey += 1;
    let n_lines = r.rng.int_range(1, 7);
    let mut total = 0.0;
    for ln in 1..=n_lines {
        let i = r.rng.int_range(0, r.partsupp_keys.len() as i64 - 1) as usize;
        let (partkey, suppkey) = r.partsupp_keys[i];
        let quantity = r.rng.int_range(1, 50) as f64;
        let extended = quantity * retail_price(partkey);
        let discount = r.rng.int_range(0, 10) as f64 / 100.0;
        let tax = r.rng.int_range(0, 8) as f64 / 100.0;
        let ship = today.plus_days(r.rng.int_range(1, 30));
        let commit = today.plus_days(r.rng.int_range(20, 60));
        let receipt = ship.plus_days(r.rng.int_range(1, 30));
        total += extended * (1.0 + tax) * (1.0 - discount);
        ops.push(Op::Insert {
            table: t::LINEITEM,
            row: Row::new(vec![
                Value::Int(orderkey),
                Value::Int(partkey),
                Value::Int(suppkey),
                Value::Int(ln),
                Value::Double(quantity),
                Value::Double(extended),
                Value::Double(discount),
                Value::Double(tax),
                Value::str("N"),
                Value::str("O"),
                Value::Date(ship),
                Value::Date(commit),
                Value::Date(receipt),
                Value::str(*r.rng.pick(&text::INSTRUCTIONS)),
                Value::str(*r.rng.pick(&text::MODES)),
            ]),
            app: Some(Period::new(ship, receipt)),
        });
    }
    ops.push(Op::Insert {
        table: t::ORDERS,
        row: Row::new(vec![
            Value::Int(orderkey),
            Value::Int(custkey),
            Value::str("O"),
            Value::Double((total * 100.0).round() / 100.0),
            Value::Date(today),
            Value::str(*r.rng.pick(&text::PRIORITIES)),
            Value::str(format!("Clerk#{:09}", r.rng.int_range(1, 1_000))),
            Value::Int(0),
            Value::str(text::order_comment(&mut r.rng)),
            Value::Date(today),
            Value::Date(AppDate::MAX),
        ]),
        app: Some(Period::new(today, AppDate::MAX)),
    });
    r.live_orders.insert(orderkey);
    r.open_orders.insert(orderkey);
    r.order_info.insert(
        orderkey,
        OrderInfo {
            orderdate: today,
            lines: n_lines,
        },
    );
    ops
}

fn cancel_order(r: &mut Runner) -> Vec<Op> {
    let orderkey = r
        .open_orders
        .pick(&mut r.rng)
        .expect("precondition checked");
    let info = r.order_info[&orderkey];
    let mut ops = Vec::new();
    for ln in 1..=info.lines {
        ops.push(Op::Delete {
            table: t::LINEITEM,
            key: Key::int2(orderkey, ln),
            portion: None,
        });
    }
    ops.push(Op::Delete {
        table: t::ORDERS,
        key: Key::int(orderkey),
        portion: None,
    });
    r.open_orders.remove(orderkey);
    r.live_orders.remove(orderkey);
    r.order_info.remove(&orderkey);
    ops
}

fn deliver_order(r: &mut Runner, today: AppDate) -> Vec<Op> {
    let orderkey = r
        .open_orders
        .pick(&mut r.rng)
        .expect("precondition checked");
    let info = r.order_info[&orderkey];
    let active_end = today.max(info.orderdate.plus_days(1));
    let ops = vec![
        // Status flips and the invoice is issued: a non-temporal update.
        Op::Update {
            table: t::ORDERS,
            key: Key::int(orderkey),
            updates: vec![
                (col::orders::ORDERSTATUS as u16, Value::str("F")),
                (col::orders::RECEIVABLE_START as u16, Value::Date(today)),
            ],
            portion: None,
        },
        // The active period closes: an application-time overwrite.
        Op::OverwriteApp {
            table: t::ORDERS,
            key: Key::int(orderkey),
            period: Period::new(info.orderdate, active_end),
        },
    ];
    r.open_orders.remove(orderkey);
    r.receivable.insert(orderkey);
    ops
}

fn receive_payment(r: &mut Runner, db: &GenDb, today: AppDate) -> Vec<Op> {
    let orderkey = r.receivable.pick(&mut r.rng).expect("precondition checked");
    r.receivable.remove(orderkey);
    let mut ops = vec![Op::Update {
        table: t::ORDERS,
        key: Key::int(orderkey),
        updates: vec![(col::orders::RECEIVABLE_END as u16, Value::Date(today))],
        portion: None,
    }];
    // The payment lands on the customer's balance from today onward.
    let custkey = db
        .current_of(t::ORDERS as usize, &Key::int(orderkey))
        .first()
        .and_then(|v| v.row.get(col::orders::CUSTKEY).as_int().ok());
    if let Some(ck) = custkey {
        ops.push(Op::Update {
            table: t::CUSTOMER,
            key: Key::int(ck),
            updates: vec![(
                col::customer::ACCTBAL as u16,
                Value::Double(r.rng.int_range(-99_999, 999_999) as f64 / 100.0),
            )],
            portion: Some(Period::new(today, AppDate::MAX)),
        });
    }
    ops
}

fn update_stock(r: &mut Runner, today: AppDate) -> Vec<Op> {
    let i = r.rng.int_range(0, r.partsupp_keys.len() as i64 - 1) as usize;
    let (p, s) = r.partsupp_keys[i];
    let qty = r.rng.int_range(1, 9_999);
    let mut ops = vec![Op::Update {
        table: t::PARTSUPP,
        key: Key::int2(p, s),
        updates: vec![(col::partsupp::AVAILQTY as u16, Value::Int(qty))],
        portion: Some(Period::new(today, AppDate::MAX)),
    }];
    // A stock correction sometimes re-dates the whole validity period
    // (Table 2: PARTSUPP overwrites application time).
    if r.rng.chance(0.2) {
        ops.push(Op::OverwriteApp {
            table: t::PARTSUPP,
            key: Key::int2(p, s),
            period: Period::new(today.plus_days(-r.rng.int_range(0, 365)), AppDate::MAX),
        });
    }
    ops
}

fn delay_availability(r: &mut Runner, today: AppDate) -> Vec<Op> {
    let partkey = r.rng.int_range(1, r.parts);
    let delay = r.rng.int_range(1, 60);
    vec![Op::OverwriteApp {
        table: t::PART,
        key: Key::int(partkey),
        period: Period::new(today.plus_days(delay), AppDate::MAX),
    }]
}

fn change_price(r: &mut Runner, db: &GenDb, today: AppDate) -> Vec<Op> {
    let i = r.rng.int_range(0, r.partsupp_keys.len() as i64 - 1) as usize;
    let (p, s) = r.partsupp_keys[i];
    let key = Key::int2(p, s);
    let table = t::PARTSUPP as usize;
    let old_cost = db
        .current_of(table, &key)
        .iter()
        .max_by_key(|v| v.app.start)
        .and_then(|v| v.row.get(col::partsupp::SUPPLYCOST).as_double().ok())
        .unwrap_or(100.0);
    // Factor in [0.93, 1.15): some increases exceed the 7.5 % threshold
    // that query R7 hunts for.
    let factor = 0.93 + r.rng.unit_f64() * 0.22;
    let new_cost = (old_cost * factor * 100.0).round() / 100.0;
    vec![Op::Update {
        table: t::PARTSUPP,
        key,
        updates: vec![(col::partsupp::SUPPLYCOST as u16, Value::Double(new_cost))],
        portion: Some(Period::new(today, AppDate::MAX)),
    }]
}

fn update_supplier(r: &mut Runner) -> Vec<Op> {
    let suppkey = r.rng.int_range(1, r.suppliers);
    vec![Op::Update {
        table: t::SUPPLIER,
        key: Key::int(suppkey),
        updates: vec![(
            col::supplier::ACCTBAL as u16,
            Value::Double(r.rng.int_range(-99_999, 999_999) as f64 / 100.0),
        )],
        portion: None,
    }]
}

fn manipulate_order(r: &mut Runner, db: &GenDb, today: AppDate) -> Vec<Op> {
    let orderkey = r
        .live_orders
        .pick(&mut r.rng)
        .expect("precondition checked");
    let key = Key::int(orderkey);
    let table = t::ORDERS as usize;
    let current = db.current_of(table, &key);
    let old_total = current
        .first()
        .and_then(|v| v.row.get(col::orders::TOTALPRICE).as_double().ok())
        .unwrap_or(1_000.0);
    let factor = 0.9 + r.rng.unit_f64() * 0.2;
    let mut ops = vec![Op::Update {
        table: t::ORDERS,
        key: key.clone(),
        updates: vec![(
            col::orders::TOTALPRICE as u16,
            Value::Double((old_total * factor * 100.0).round() / 100.0),
        )],
        portion: None,
    }];
    // Half the manipulations also rewrite the recorded active period — the
    // audit-relevant case.
    if r.rng.chance(0.5) {
        let start = current
            .iter()
            .map(|v| v.app.start)
            .min()
            .unwrap_or(today.plus_days(-30));
        ops.push(Op::OverwriteApp {
            table: t::ORDERS,
            key,
            period: Period::new(start, today.plus_days(r.rng.int_range(1, 30))),
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_dbgen::ScaleConfig;

    fn history() -> History {
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        run(&data, &HistoryConfig::tiny())
    }

    #[test]
    fn produces_one_transaction_per_scenario() {
        let h = history();
        assert_eq!(h.archive.transactions.len(), 500);
        assert!(h.archive.transactions.iter().all(|t| !t.ops.is_empty()));
    }

    #[test]
    fn deterministic() {
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        let a = run(&data, &HistoryConfig::tiny());
        let b = run(&data, &HistoryConfig::tiny());
        assert_eq!(a.archive.transactions, b.archive.transactions);
    }

    #[test]
    fn scenario_frequencies_match_table1() {
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        let h = run(&data, &HistoryConfig::with_m(0.005)); // 5 000 scenarios
        let total: u64 = h.stats.scenario_counts.iter().sum();
        assert_eq!(total, 5_000);
        for (kind, p) in ScenarioKind::WEIGHTED {
            let observed = h.stats.scenario_counts[kind.tag() as usize] as f64 / total as f64;
            // Fallbacks shift a little probability mass toward new orders;
            // allow a generous band.
            assert!(
                (observed - p).abs() < 0.05,
                "{}: observed {observed:.3}, spec {p:.3}",
                kind.name()
            );
        }
    }

    #[test]
    fn table2_qualitative_shape() {
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        let h = run(&data, &HistoryConfig::with_m(0.005));
        let s = &h.stats;
        let idx = |n: &str| s.tables.iter().position(|t| t == n).unwrap();

        // NATION and REGION are never touched.
        assert_eq!(s.ops[idx("region")].total(), 0);
        assert_eq!(s.ops[idx("nation")].total(), 0);

        // LINEITEM is strongly dominated by inserts (> 60 %).
        let li = &s.ops[idx("lineitem")];
        assert!(
            li.app_insert as f64 > 0.6 * li.total() as f64,
            "lineitem inserts: {} of {}",
            li.app_insert,
            li.total()
        );

        // ORDERS sees a rich mix: inserts and updates both prominent.
        let ord = &s.ops[idx("orders")];
        assert!(ord.app_insert > 0 && (ord.app_update + ord.nontemp_update) > 0);
        let upd_share = (ord.app_update + ord.nontemp_update) as f64 / ord.total() as f64;
        assert!(upd_share > 0.3, "orders update share {upd_share:.2}");

        // CUSTOMER sees mostly UPDATE operations (> 70 %).
        let cust = &s.ops[idx("customer")];
        let upd = cust.app_update + cust.nontemp_update;
        assert!(
            upd as f64 > 0.7 * cust.total() as f64,
            "customer updates: {} of {}",
            upd,
            cust.total()
        );

        // PART and PARTSUPP receive only updates.
        for t in ["part", "partsupp"] {
            let o = &s.ops[idx(t)];
            assert_eq!(o.app_insert + o.nontemp_insert + o.delete, 0, "{t}");
            assert!(o.app_update > 0, "{t}");
        }

        // SUPPLIER: high growth ratio (few tuples, steady updates), and
        // CUSTOMER gets new tuples plus updates via new-customer orders.
        assert!(s.growth_ratio(idx("supplier")) > s.growth_ratio(idx("lineitem")));

        // Overwrite flags (Table 2's last column): CUSTOMER, PART,
        // PARTSUPP and ORDERS all overwrite application periods.
        for t in ["customer", "part", "partsupp", "orders"] {
            assert!(s.overwrites_app_time(idx(t)), "{t}");
        }
        assert!(!s.overwrites_app_time(idx("lineitem")));
        assert!(!s.overwrites_app_time(idx("supplier")));
    }

    #[test]
    fn generator_state_consistent_after_run() {
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        let (h, db) = crate::generate_history_with_state(&data, &HistoryConfig::tiny());
        let orders = db.table_index("orders").unwrap();
        let lineitem = db.table_index("lineitem").unwrap();
        // Orders inserted minus cancelled equals current count.
        let s = &h.stats;
        let oi = s.tables.iter().position(|t| t == "orders").unwrap();
        let expected = 1_500 + s.ops[oi].app_insert - s.ops[oi].delete;
        assert_eq!(db.current_len(orders) as u64, expected);
        assert!(db.current_len(lineitem) > 0);
        // System time advanced once per scenario plus the initial load.
        assert_eq!(db.now().0, 1 + 500);
    }
}
