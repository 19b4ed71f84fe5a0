//! Routing schemes for payment channel networks.
//!
//! Path machinery plus the six schemes of the paper's evaluation (§6.1):
//!
//! | scheme | module | kind |
//! |---|---|---|
//! | SilentWhispers (landmarks) | [`landmark`] | atomic |
//! | SpeedyMurmurs (embeddings) | [`embedding`] | atomic |
//! | Max-flow | [`maxflow_scheme`] | atomic |
//! | Shortest-path (packet-switched) | [`shortest_path`](mod@shortest_path) | non-atomic |
//! | Spider (Waterfilling) | [`waterfilling`] | non-atomic |
//! | Spider (LP) | [`lp_scheme`] | non-atomic |
//!
//! All schemes implement [`RoutingScheme`] and are deterministic. A path
//! is judged by its balances alone: as in the paper's evaluation (§6), no
//! relay charges a routing fee.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod embedding;
pub mod landmark;
pub mod lp_scheme;
pub mod maxflow_scheme;
pub mod paths;
pub mod price_scheme;
pub mod scheme;
pub mod shortest_path;
pub mod waterfilling;

pub use embedding::{SpanningTree, SpeedyMurmursScheme};
pub use landmark::SilentWhispersScheme;
pub use lp_scheme::LpScheme;
pub use maxflow_scheme::MaxFlowScheme;
pub use paths::{
    edge_disjoint_paths, k_shortest_paths, path_bottleneck, shortest_path, widest_paths, PathCache,
    PathCacheStats, PathStrategy,
};
pub use price_scheme::PriceScheme;
pub use scheme::{split_evenly, BalanceOverlay, RoutingScheme, SchemeKind, UnitDecision};
pub use shortest_path::ShortestPathScheme;
pub use waterfilling::WaterfillingScheme;
