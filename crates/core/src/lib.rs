//! MCSS — Minimum Cost Subscriber Satisfaction.
//!
//! This crate implements the contribution of Setty, Vitenberg, Kreitz,
//! Urdaneta & van Steen, *"Cost-Effective Resource Allocation for Deploying
//! Pub/Sub on Cloud"* (ICDCS 2014): given a pub/sub workload, a
//! per-subscriber satisfaction threshold `τ`, per-VM bandwidth capacity
//! `BC`, and IaaS cost functions `C1`/`C2`, allocate topic-subscriber pairs
//! to virtual machines so that every subscriber stays satisfied, no VM
//! exceeds its capacity, and `C1(|B|) + C2(Σ_b bw_b)` is minimized.
//!
//! # Layout (paper artifact → module)
//!
//! | Paper | Module |
//! |---|---|
//! | Problem definition §II | [`McssInstance`], [`Selection`], [`Allocation`] |
//! | Alg. 1–2 GreedySelectPairs | [`stage1::GreedySelectPairs`] |
//! | Alg. 6 RandomSelectPairs | [`stage1::RandomSelectPairs`] |
//! | per-subscriber optimum (knapsack remark, §III-A) | [`stage1::OptimalSelectPairs`] |
//! | Alg. 3 FFBinPacking | [`stage2::FirstFitBinPacking`] |
//! | Alg. 4 CustomBinPacking + opts (b)–(e) | [`stage2::CustomBinPacking`], [`stage2::CbpConfig`] |
//! | Alg. 7 CheaperToDistribute | [`stage2::cheaper_to_distribute`] |
//! | Alg. 5 / Thm. A.1 lower bound | [`lower_bound`], [`LowerBound::cost_on_fleet`] |
//! | FFD baseline, Dósa 2007 `11/9·OPT + 6/9` bound (extension) | [`stage2::FfdBinPacking`] |
//! | anytime Stage-2 local search with LB certificate (extension) | [`stage2::improve`], [`SearchBudget`] |
//! | Thm. II.2 NP-hardness reduction | [`reduction`] |
//! | exact baseline for tiny instances | [`exact`] |
//! | §VI dynamic re-provisioning (future work) | [`dynamic`] |
//! | §VI online repair (future work, extension) | [`incremental`] |
//! | O(Δ) churn ledger (extension) | [`FleetLedger`] |
//! | event-sourced serving + crash recovery (extension) | [`serve`] |
//! | zero-rebuild single-file store (extension) | [`store`], `mcss_store` |
//! | Best-/Next-Fit baselines (extension) | [`stage2::BestFitBinPacking`], [`stage2::NextFitBinPacking`] |
//! | heterogeneous (mixed) fleets (extension) | [`stage2::MixedFleetPacker`], [`FleetTyping`], [`Solver::solve_mixed`] |
//! | instance-type planning (conclusion's "provisioning tool") | [`planner::plan_instance_type`], [`planner::plan_mixed`] |
//!
//! # Quick start
//!
//! ```
//! use cloud_cost::{instances, Ec2CostModel};
//! use mcss_core::{AllocatorKind, McssInstance, SelectorKind, Solver, SolverParams};
//! use pubsub_model::{Rate, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Workload::builder();
//! let news = b.add_topic(Rate::new(20))?;
//! let music = b.add_topic(Rate::new(10))?;
//! b.add_subscriber([news, music])?;
//! b.add_subscriber([music])?;
//! let workload = b.build();
//!
//! let cost = Ec2CostModel::paper_default(instances::C3_LARGE);
//! let instance = McssInstance::new(workload, Rate::new(15), cost.capacity())?;
//! let solver = Solver::new(SolverParams {
//!     selector: SelectorKind::Greedy,
//!     allocator: AllocatorKind::custom_full(),
//!     ..SolverParams::default()
//! });
//! let outcome = solver.solve(&instance, &cost)?;
//! assert!(outcome.allocation.validate(instance.workload(), instance.tau()).is_ok());
//! println!("{}", outcome.report);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod allocation;
pub mod dynamic;
mod error;
pub mod exact;
mod footprint;
pub mod ilp;
pub mod incremental;
mod ledger;
mod lower_bound;
mod pipeline;
pub mod planner;
mod problem;
pub mod reduction;
mod selection;
pub mod serve;
pub mod stage1;
pub mod stage2;
pub mod store;

pub use allocation::{Allocation, AllocationError, FleetTyping, VmView};
pub use error::McssError;
pub use footprint::MemoryFootprint;
pub use ledger::{FleetLedger, LedgerSlots, SlotState};
pub use lower_bound::{lower_bound, LowerBound};
pub use pipeline::{
    AllocatorKind, MixedSolveOutcome, MixedSolveReport, SelectorKind, SolveOutcome, SolveReport,
    Solver, SolverParams,
};
pub use problem::McssInstance;
pub use selection::{Selection, SelectionBuilder, SelectionDiff, TopicGroups};
pub use stage2::{ImproveReport, SearchBudget};
