//! # ccsim-topo — routed multi-bottleneck topologies
//!
//! The topology layer between scenario configuration and the live
//! simulator: value-type [`Topology`] descriptions (nodes, directed links
//! with per-link rate/delay/buffer/AQM, static per-flow route tables),
//! generators for the shapes the fairness literature sweeps
//! (single-bottleneck, dumbbell, parking-lot, asymmetric reverse path),
//! and deterministic instantiation into `ccsim-net` [`Link`]s chained by
//! lightweight per-flow [`Router`]s.
//!
//! Design constraints, in order:
//!
//! 1. **Digest fidelity.** The default [`TopologyKind::SingleBottleneck`]
//!    instantiates to exactly the component layout and event sequence of
//!    the pre-topology engine (one drop-tail link, id 0, direct ACK
//!    delivery), so every existing baseline digest stays valid.
//! 2. **Pay only for divergence.** Routers are elided wherever the
//!    next hop is static ([`plan_wiring`]); a dumbbell is two chained
//!    links and zero routers.
//! 3. **Descriptions are data.** [`Topology`] round-trips through
//!    single-line JSON byte-identically, so specs can embed, log, and
//!    diff topologies like any other configuration.
//!
//! [`Link`]: ccsim_net::Link

pub mod instantiate;
pub mod router;
pub mod topology;

pub use instantiate::{
    instantiate, plan_wiring, BuiltTopology, PlannedNextHop, RouterPlan, WiringPlan,
};
pub use router::Router;
pub use topology::{LinkSpec, Topology, TopologyError, TopologyKind, MAX_PARKING_LOT_HOPS};
