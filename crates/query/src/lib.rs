//! # bitempo-query
//!
//! Relational and temporal query processing over engine scan outputs.
//!
//! The paper's point about query execution is architectural: none of the
//! systems has temporal operators, so every temporal query compiles into
//! *standard* relational plans — scans, filters, joins, grouping — plus
//! SQL:2011 workarounds for the unsupported operators (temporal aggregation
//! via interval-boundary joins, temporal joins via overlap predicates,
//! §5.6). This crate supplies exactly those building blocks:
//!
//! * [`expr`] — scalar expressions evaluated against rows;
//! * [`ops`] — filter / project / hash join / aggregation / sort / top-N /
//!   distinct / union over materialized row sets;
//! * [`temporal`] — temporal aggregation (both the efficient event sweep
//!   and the *naive* boundary-points formulation the paper measured),
//!   overlap joins, and version-delta extraction (R7, K4/K5);
//! * [`optimizer`] — cost-based access-path selection: the cost of every
//!   physical path a partition scan has (sequential, key lookup, B-Tree,
//!   GiST, temporal index) and the rule that keeps the cheapest, from the
//!   partition and the query alone.
//!
//! There is no separate plan description: a query's plan is the workload
//! function that calls these operators (`bitempo-workloads`).
//!
//! Operators are materialized (`Vec<Row>` in, `Vec<Row>` out): with all
//! data memory-resident — the paper's setup too ("all read requests ...
//! served from main memory") — execution cost is dominated by the volume of
//! rows each operator touches, which is the quantity the benchmark varies.

pub mod expr;
pub mod ops;
pub mod optimizer;
pub mod temporal;

pub use expr::Expr;
pub use ops::{
    aggregate, distinct, filter, hash_join, project, sort_by, top_n, union, AggExpr, AggFunc,
    JoinKind, SortKey,
};
pub use temporal::{temporal_aggregate, temporal_aggregate_naive, temporal_join, version_delta};
