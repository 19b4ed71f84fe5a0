//! Topology generators for payment channel network evaluation.
//!
//! - [`generators`] — standard random/structured graphs (ring, grid,
//!   Erdős–Rényi, Barabási–Albert, Watts–Strogatz, trees),
//! - [`isp`] — the deterministic 32-node/152-edge ISP-like topology of the
//!   paper's evaluation,
//! - [`ripple`] — scale-free Ripple-like credit network stand-ins,
//! - [`partition`] — deterministic landmark partitioning for the
//!   shard-parallel engine.
//!
//! All generators are deterministic given a seed and produce connected
//! graphs with evenly split channel balances (or, through
//! [`with_skewed_balances`], a seeded skew of them). Networks are built in
//! memory; the crate reads and writes no topology files.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod generators;
pub mod isp;
pub mod partition;
pub mod ripple;

pub use generators::{
    barabasi_albert, complete, erdos_renyi, grid, line, ring, with_skewed_balances,
};
pub use isp::{isp_topology, ISP_EDGES, ISP_NODES};
pub use partition::Partition;
pub use ripple::{ripple_topology_scaled, RIPPLE_EDGES, RIPPLE_NODES};
