//! # bitempo-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§5). DESIGN.md §4 maps experiment ids to the paper.
//!
//! * [`runner`] — builds benchmark instances (generate → load → tune) for
//!   all four engines plus the non-temporal baselines, and measures query
//!   latencies with the paper's repetition discipline (§5.1: repeat, discard
//!   warm-up runs, report the median).
//! * [`report`] — figure/table data structures and markdown rendering.
//! * [`experiments`] — one function per paper artifact (fig2…fig16,
//!   table1/2, the §5.2 architecture analysis) and per extension, a timing
//!   figure declared as its list of cells, and the `EXPERIMENTS` registry.
//!
//! The `experiments` binary runs the registry:
//! `cargo run --release -p bitempo-bench --bin experiments -- <id|run-all|list>`.

pub mod experiments;
pub mod report;
pub mod runner;

pub use report::{FaultSummary, FigureReport, Series};
pub use runner::{BenchConfig, Instance, Measurement};
