//! Stage 2 of the MCSS heuristic: allocating selected pairs to VMs.
//!
//! Given the pair set `S` from Stage 1, Stage 2 packs pairs onto VMs of
//! capacity `BC` (paper §III-B). Two allocators:
//!
//! * [`FirstFitBinPacking`] — Alg. 3, the classical first-fit strategy that
//!   treats pairs individually;
//! * [`CustomBinPacking`] — Alg. 4, the paper's customized packing with the
//!   incremental optimizations (b)–(e) of §III-B/§IV-D, toggled through
//!   [`CbpConfig`]:
//!   * (b) grouping all pairs of a topic and placing them together,
//!   * (c) most expensive topic first ([`ExpensiveOrder`]),
//!   * (d) most-free-VM-first when spilling onto existing VMs,
//!   * (e) the cost-model-driven spill-vs-new-VM decision
//!     ([`cheaper_to_distribute`], Alg. 7);
//! * [`MixedFleetPacker`] — *extension*: packing onto a heterogeneous
//!   fleet of several instance types ranked by cost density, never worse
//!   than the best homogeneous fleet on the same selection.
//!
//! Both allocators maintain the exact marginal-cost invariant: placing a
//! pair `(t, v)` on VM `b` consumes `2·ev_t` if `t` is new to `b`
//! (incoming stream + delivery) and `ev_t` otherwise. See
//! "Deviations from the paper" in `docs/PAPER_MAP.md` for why this departs
//! from the paper's (looser) pseudocode checks.
//!
//! Every packer records its placements as runs in one fleet builder,
//! which writes the [`Allocation`] arena once at the end: nothing is
//! copied or sorted while packing.

mod baselines;
mod cbp;
mod cheaper;
mod ffbp;
mod ffd;
mod fleet;
mod improve;
mod mixed;

pub use baselines::{BestFitBinPacking, NextFitBinPacking};
pub use cbp::{CbpConfig, CustomBinPacking, ExpensiveOrder};
pub use cheaper::cheaper_to_distribute;
pub use ffbp::FirstFitBinPacking;
pub use ffd::FfdBinPacking;
pub use improve::{improve, improve_mixed, ImproveReport, SearchBudget};
pub use mixed::{mixed_cost_split, MixedFleetPacker};

pub(crate) use fleet::FleetBuilder;

use crate::{Allocation, McssError, Selection};
use cloud_cost::CostModel;
use pubsub_model::{Bandwidth, Workload};

/// A Stage-2 algorithm: packs a selection onto VMs.
pub trait Allocator: std::fmt::Debug {
    /// Short name used in reports and experiment tables.
    fn name(&self) -> &'static str;

    /// Packs every pair of `selection`, a selection over `workload`, onto
    /// VMs of the given capacity.
    ///
    /// The cost model is consulted only by allocators with cost-driven
    /// decisions (CBP optimization (e)); others ignore it.
    ///
    /// # Errors
    ///
    /// [`McssError::InfeasibleTopic`] if a selected topic cannot fit on an
    /// empty VM (`2·ev_t > BC`).
    fn allocate(
        &self,
        workload: &Workload,
        selection: &Selection,
        capacity: Bandwidth,
        cost: &dyn CostModel,
    ) -> Result<Allocation, McssError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::{GreedySelectPairs, PairSelector};
    use crate::McssInstance;
    use cloud_cost::{LinearCostModel, Money};
    use pubsub_model::{Rate, Workload};

    /// Contract shared by every allocator: output validates against the
    /// MCSS constraints whenever Stage 1 satisfied the subscribers.
    #[test]
    fn all_allocators_produce_valid_allocations() {
        let mut b = Workload::builder();
        let mut ts = Vec::new();
        for r in [30u64, 22, 15, 9, 4, 2] {
            ts.push(b.add_topic(Rate::new(r)).unwrap());
        }
        b.add_subscriber([ts[0], ts[1], ts[2]]).unwrap();
        b.add_subscriber([ts[1], ts[3], ts[4]]).unwrap();
        b.add_subscriber([ts[0], ts[5]]).unwrap();
        b.add_subscriber([ts[2], ts[3], ts[5]]).unwrap();
        let w = b.build();
        let inst = McssInstance::new(w, Rate::new(25), Bandwidth::new(100)).unwrap();
        let sel = GreedySelectPairs::new().select(&inst).unwrap();
        let cost = LinearCostModel::new(Money::from_dollars(1), Money::from_micros(1));

        let allocators: Vec<Box<dyn Allocator>> = vec![
            Box::new(FirstFitBinPacking::new()),
            Box::new(CustomBinPacking::new(CbpConfig::grouping_only())),
            Box::new(CustomBinPacking::new(CbpConfig::full())),
        ];
        for a in allocators {
            let alloc = a
                .allocate(inst.workload(), &sel, inst.capacity(), &cost)
                .expect("feasible instance");
            alloc
                .validate(inst.workload(), inst.tau())
                .unwrap_or_else(|e| panic!("{} produced invalid allocation: {e}", a.name()));
            assert_eq!(
                alloc.pair_count(),
                sel.pair_count(),
                "{} lost pairs",
                a.name()
            );
        }
    }
}
