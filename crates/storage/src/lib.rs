//! # bitempo-storage
//!
//! Physical storage primitives for the bitemporal engines:
//!
//! * [`heap`] — an append-only slotted row heap (the row-store substrate for
//!   Systems A, B and D).
//! * [`mod@column`] — a dictionary-encoded columnar store with a delta/main
//!   split and an explicit merge operation (the System C substrate; the
//!   paper's §2.6 "delta/main approach").
//! * [`btree`] — an in-memory B+Tree with duplicate keys and linked leaves,
//!   used for every B-Tree index setting in the benchmark (paper §5.1).
//! * [`rtree`] — an R-Tree over period rectangles, the stand-in for
//!   PostgreSQL's GiST index (paper §2.5, §5.3.2).
//! * [`wal`] — the labeled durability modes of the write-ahead log (its
//!   framing lives in `core::frame`).
//!
//! None of the commercial systems in the paper uses temporal-specific storage
//! — and neither does this crate, deliberately: engines compose exactly these
//! conventional structures, which is the architectural finding under test.

pub mod btree;
pub mod column;
pub mod heap;
pub mod rtree;
pub mod wal;

pub use btree::BPlusTree;
pub use column::{ColumnTable, RowFate};
pub use heap::{Heap, SlotId};
pub use rtree::{RTree, Rect};
pub use wal::DurabilityMode;
