//! IaaS cost substrate for the MCSS reproduction.
//!
//! The paper (§II, §IV-A) adopts the Amazon EC2 on-demand cost model: a
//! deployment pays `C1(|B|)` for renting `|B|` virtual machines over the
//! evaluation window plus `C2(Σ_b bw_b)` for the bandwidth they move in and
//! out of the cloud. This crate provides:
//!
//! * [`Money`] — exact fixed-point currency (micro-dollars);
//! * [`InstanceType`] — the VM catalogue used in the evaluation
//!   ([`instances::C3_LARGE`] at $0.15/h & 64 mbps,
//!   [`instances::C3_XLARGE`] at $0.30/h & 128 mbps, plus extension sizes);
//! * [`CostModel`] — the `C1`/`C2` abstraction consumed by the solver;
//! * [`Ec2CostModel`] — the paper's concrete pricing (hourly VM rate +
//!   $0.12/GB transfer, 200-byte messages, 240 h window), including the
//!   capacity conversion from mbps to events-per-window and optional volume
//!   scaling for shape-preserving scaled-down experiments;
//! * [`LinearCostModel`] — trivially parameterized costs for unit tests and
//!   the NP-hardness reduction (`C1(x) = x`, `C2 = 0`);
//! * [`FleetCostModel`] — a heterogeneous catalogue of instance tiers
//!   sharing one bandwidth price, ranked by cost density (extension: the
//!   mixed-fleet scenario the solver's `MixedFleetPacker` consumes).
//!
//! # Example
//!
//! ```
//! use cloud_cost::{instances, CostModel, Ec2CostModel};
//!
//! // The paper's setting: c3.large, 10-day window, 200-byte messages.
//! let model = Ec2CostModel::paper_default(instances::C3_LARGE);
//! let vm_cost = model.vm_cost(10); // 10 VMs × $0.15/h × 240 h
//! assert_eq!(vm_cost.to_string(), "$360.00");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fleet;
mod instance;
mod money;
mod pricing;

pub use fleet::FleetCostModel;
pub use instance::{instances, InstanceType};
pub use money::Money;
pub use pricing::{BillingWindow, CostModel, Ec2CostModel, LinearCostModel};
