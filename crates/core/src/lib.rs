//! # bitempo-core
//!
//! Foundation types for the TPC-BiH bitemporal benchmark suite: the bitemporal
//! time model (system time and application time as half-open periods), typed
//! values and rows, table schemas with temporal column annotations, a
//! deterministic PCG random number generator used by the data generators, the
//! byte codec ([`codec`]) and record framing ([`frame`]) shared by the
//! generator archive, the WAL and checkpoints, a deterministic hasher for
//! the maps on the load path ([`hash`]), and the shared error type.
//!
//! ## The bitemporal data model
//!
//! Following TSQL2 / SQL:2011 (and the paper's terminology), every versioned
//! fact carries up to two orthogonal time dimensions:
//!
//! * **System time** ([`SysTime`], [`SysPeriod`]) — *when the database knew
//!   the fact*. Immutable, assigned by the engine at transaction commit.
//!   Modelled here as a monotone logical commit timestamp.
//! * **Application time** ([`AppDate`], [`AppPeriod`]) — *when the fact was
//!   true in the real world*. Supplied by the application and freely
//!   updatable (sequenced semantics).
//!
//! All periods are half-open `[start, end)`. A system period whose end is
//! [`SysTime::MAX`] denotes the *current* (still visible) version; an
//! application period ending at [`AppDate::MAX`] is valid "until forever".

pub mod codec;
pub mod crc;
pub mod date;
pub mod error;
pub mod fault;
pub mod frame;
pub mod hash;
pub mod key;
pub mod obs;
pub mod rng;
pub mod row;
pub mod schema;
pub mod time;
pub mod value;

pub use crc::{crc32, Crc32};
pub use error::{Error, Result};
pub use fault::FaultyWriter;
pub use key::Key;
pub use rng::Pcg32;
pub use row::Row;
pub use schema::{Column, DataType, Schema, TableDef, TableId, TemporalClass};
pub use time::{AppDate, AppPeriod, Period, SysPeriod, SysTime};
pub use value::Value;
