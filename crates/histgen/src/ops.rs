//! Operations, transactions and scenario kinds.

use bitempo_core::{AppPeriod, Key, Row, Value};

/// The nine update scenarios of Table 1 (plus the New-Order split into
/// new-customer and existing-customer variants, which the table lists as
/// sub-cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// New order from a brand-new customer (0.15 overall).
    NewOrderNewCustomer,
    /// New order from an existing customer (0.15 overall).
    NewOrderExistingCustomer,
    /// Cancel an open order (0.05).
    CancelOrder,
    /// Deliver an open order (0.25).
    DeliverOrder,
    /// Receive payment for a delivered order (0.20).
    ReceivePayment,
    /// Update a part's stock level (0.05).
    UpdateStock,
    /// Delay a part's availability (0.05).
    DelayAvailability,
    /// A supplier changes a price (0.05).
    ChangePriceBySupplier,
    /// Update supplier master data (0.04).
    UpdateSupplier,
    /// Manipulate recorded order data — the audit scenario (0.01).
    ManipulateOrderData,
}

impl ScenarioKind {
    /// All scenario kinds with their Table-1 probabilities.
    pub const WEIGHTED: [(ScenarioKind, f64); 10] = [
        (ScenarioKind::NewOrderNewCustomer, 0.15),
        (ScenarioKind::NewOrderExistingCustomer, 0.15),
        (ScenarioKind::CancelOrder, 0.05),
        (ScenarioKind::DeliverOrder, 0.25),
        (ScenarioKind::ReceivePayment, 0.20),
        (ScenarioKind::UpdateStock, 0.05),
        (ScenarioKind::DelayAvailability, 0.05),
        (ScenarioKind::ChangePriceBySupplier, 0.05),
        (ScenarioKind::UpdateSupplier, 0.04),
        (ScenarioKind::ManipulateOrderData, 0.01),
    ];

    /// Display name matching Table 1.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::NewOrderNewCustomer => "New Order (new customer)",
            ScenarioKind::NewOrderExistingCustomer => "New Order (existing customer)",
            ScenarioKind::CancelOrder => "Cancel Order",
            ScenarioKind::DeliverOrder => "Deliver Order",
            ScenarioKind::ReceivePayment => "Receive Payment",
            ScenarioKind::UpdateStock => "Update Stock",
            ScenarioKind::DelayAvailability => "Delay Availability",
            ScenarioKind::ChangePriceBySupplier => "Change Price by Supplier",
            ScenarioKind::UpdateSupplier => "Update Supplier",
            ScenarioKind::ManipulateOrderData => "Manipulate Order Data",
        }
    }

    /// Stable wire tag for archive serialization.
    pub fn tag(self) -> u8 {
        match self {
            ScenarioKind::NewOrderNewCustomer => 0,
            ScenarioKind::NewOrderExistingCustomer => 1,
            ScenarioKind::CancelOrder => 2,
            ScenarioKind::DeliverOrder => 3,
            ScenarioKind::ReceivePayment => 4,
            ScenarioKind::UpdateStock => 5,
            ScenarioKind::DelayAvailability => 6,
            ScenarioKind::ChangePriceBySupplier => 7,
            ScenarioKind::UpdateSupplier => 8,
            ScenarioKind::ManipulateOrderData => 9,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<ScenarioKind> {
        Self::WEIGHTED
            .iter()
            .map(|(k, _)| *k)
            .find(|k| k.tag() == tag)
    }
}

/// One DML operation against a named table. Tables are addressed by their
/// index in [`bitempo_dbgen::TPCH_TABLES`] load order.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Insert a row valid for `app`.
    Insert {
        /// Table index.
        table: u8,
        /// Value columns.
        row: Row,
        /// Application period (`None` on tables without app time).
        app: Option<AppPeriod>,
    },
    /// Sequenced update of `key` for `portion`.
    Update {
        /// Table index.
        table: u8,
        /// Primary key.
        key: Key,
        /// `(column, new value)` assignments.
        updates: Vec<(u16, Value)>,
        /// `FOR PORTION OF` period; `None` = full axis / non-temporal.
        portion: Option<AppPeriod>,
    },
    /// Sequenced delete of `key` for `portion`.
    Delete {
        /// Table index.
        table: u8,
        /// Primary key.
        key: Key,
        /// Deleted portion; `None` = full axis.
        portion: Option<AppPeriod>,
    },
    /// Replace the application period of `key` (Table 2 "Overwrite App.Time").
    OverwriteApp {
        /// Table index.
        table: u8,
        /// Primary key.
        key: Key,
        /// The replacement period.
        period: AppPeriod,
    },
}

impl Op {
    /// The table this op touches.
    pub fn table(&self) -> u8 {
        match self {
            Op::Insert { table, .. }
            | Op::Update { table, .. }
            | Op::Delete { table, .. }
            | Op::OverwriteApp { table, .. } => *table,
        }
    }
}

/// One transaction: one or more scenarios' operations, committed atomically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Transaction {
    /// The scenarios bundled into this transaction (one, unless the loader
    /// batches; Fig 13 varies this).
    pub scenarios: Vec<ScenarioKind>,
    /// The operations, in execution order.
    pub ops: Vec<Op>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one() {
        let total: f64 = ScenarioKind::WEIGHTED.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn tags_round_trip() {
        for (k, _) in ScenarioKind::WEIGHTED {
            assert_eq!(ScenarioKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(ScenarioKind::from_tag(99), None);
    }

    #[test]
    fn new_order_split_matches_table1() {
        // Table 1: New Order 0.3, split evenly between new and existing
        // customers (DESIGN.md §6).
        let p = |k: ScenarioKind| {
            ScenarioKind::WEIGHTED
                .iter()
                .find(|(x, _)| *x == k)
                .unwrap()
                .1
        };
        assert_eq!(
            p(ScenarioKind::NewOrderNewCustomer) + p(ScenarioKind::NewOrderExistingCustomer),
            0.30
        );
        assert_eq!(p(ScenarioKind::DeliverOrder), 0.25);
        assert_eq!(p(ScenarioKind::ReceivePayment), 0.20);
    }
}
