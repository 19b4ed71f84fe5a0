//! Core types for the Spider payment channel network stack.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! - [`Amount`] — exact fixed-point currency arithmetic,
//! - [`NodeId`], [`ChannelId`], [`PaymentId`] — identifier newtypes,
//! - [`Network`] / [`Channel`] — the payment channel network graph `G(V,E)`,
//! - [`Path`] — validated trails through the network,
//! - [`DemandMatrix`] — the payment graph `H(V,E_H)` of desired rates,
//! - [`BalanceView`] — read access to live or initial channel balances,
//! - [`ChannelSet`] / [`PairTable`] — dense id-indexed hot-path tables,
//! - [`Enc`] / [`Dec`] / [`crc32`] — the little-endian codec and checksum
//!   behind snapshots and traces.
//!
//! Everything here is deterministic and allocation-conscious; there is no
//! randomness and no I/O in this crate. A [`Network`] is built in memory
//! by the topology generators and has no serialized form.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod amount;
pub mod binio;
pub mod dense;
pub mod error;
pub mod graph;
pub mod ids;
pub mod path;
pub mod payment_graph;

pub use amount::{Amount, MICROS_PER_TOKEN};
pub use binio::{crc32, BinError, Dec, Enc};
pub use dense::{ChannelSet, PairTable};
pub use error::CoreError;
pub use graph::{BalanceView, Channel, Network};
pub use ids::{ChannelId, Direction, NodeId, PaymentId};
pub use path::Path;
pub use payment_graph::DemandMatrix;
