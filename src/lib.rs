//! Umbrella crate for the ICDCS 2014 MCSS reproduction.
//!
//! Re-exports the workspace crates under one roof:
//!
//! * [`model`] — pub/sub workload model (topics, subscribers, rates);
//! * [`traces`] — synthetic Spotify-like / Twitter-like trace generators and
//!   trace analysis;
//! * [`cost`] — EC2-style cost model (`C1`, `C2`, instance catalogue);
//! * [`solver`] — the MCSS two-stage heuristic, lower bound, exact solver,
//!   and NP-hardness reduction;
//! * [`sim`] — discrete-event pub/sub broker simulation for validating
//!   allocations operationally.

#![warn(missing_docs)]

pub use cloud_cost as cost;
pub use mcss_core as solver;
pub use pubsub_model as model;
pub use pubsub_sim as sim;
pub use pubsub_traces as traces;

/// Convenience prelude pulling in the types most programs need.
pub mod prelude {
    pub use cloud_cost::{
        CostModel, Ec2CostModel, FleetCostModel, InstanceType, LinearCostModel, Money,
    };
    pub use mcss_core::{
        Allocation, AllocatorKind, FleetTyping, LowerBound, McssInstance, MixedSolveOutcome,
        SelectorKind, SolveReport, Solver, SolverParams,
    };
    pub use pubsub_model::{Bandwidth, Pair, Rate, SubscriberId, TopicId, Workload};
    pub use pubsub_sim::{SimConfig, Simulation};
    pub use pubsub_traces::{SpotifyLike, TwitterLike};
}
