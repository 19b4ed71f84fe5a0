//! Optimization substrates for the Spider payment channel network.
//!
//! Everything the paper's routing analysis needs, implemented from scratch:
//!
//! - [`simplex`] — a dense two-phase simplex LP solver,
//! - [`maxflow`] — Edmonds–Karp maximum flow with path decomposition (the
//!   max-flow routing baseline),
//! - [`mincostflow`] — successive-shortest-path min-cost flow,
//! - [`circulation`] — exact maximum-circulation / DAG decomposition of
//!   payment graphs (Proposition 1),
//! - [`fluid`] — the fluid-model routing LPs of §5.2 (eqs. (1)–(18)),
//! - [`primal_dual`] — the decentralized primal-dual algorithm of §5.3
//!   (eqs. (19)–(24)).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod circulation;
pub mod fluid;
pub mod maxflow;
pub mod mincostflow;
pub mod primal_dual;
pub mod simplex;

pub use circulation::{decompose, peel_cycles, route_on_spanning_tree, Decomposition};
pub use fluid::{enumerate_demand_paths, enumerate_paths, FluidProblem, FluidSolution};
pub use maxflow::{balance_limited_flow, ChannelFlow, FlowNetwork, MaxFlowSolver};
pub use mincostflow::{FlowCost, MinCostFlow};
pub use primal_dual::{project_capped_simplex, PrimalDualConfig, PrimalDualSolution, Utility};
pub use simplex::{LinearProgram, LpOutcome, LpSolution, Relation};
