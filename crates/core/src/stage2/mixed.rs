//! Heterogeneous-fleet packing: Stage 2 over several instance types.
//!
//! The paper's Stage-2 allocators assume one instance type — a single
//! capacity `BC` and a `C1` that is linear in the VM count. The
//! [`MixedFleetPacker`] generalizes that to a [`FleetCostModel`] of
//! *tiers* (instance type + capacity + window price), in the spirit of
//! cost-aware heterogeneous packing (Armani et al.; Beaumont et al.):
//!
//! 1. **Density-first packing.** Tiers are ranked by cost density
//!    (window price per event-unit, the fleet model's native order).
//!    Topic groups are processed most-expensive-first (CBP optimization
//!    (c)) and each group targets the cheapest-density tier whose
//!    capacity holds the *whole* group — splitting a group across VMs
//!    replicates its incoming stream, so "fits whole" is the criterion
//!    that preserves CBP's grouping advantage. A group too large for any
//!    tier goes to the largest tier and splits there. Within a tier,
//!    placement mirrors CBP: the most recently opened VM first, then the
//!    most-free VM (an exact scan of the tier's VMs), then fresh VMs.
//! 2. **Downsize pass.** After packing, every VM is re-homed onto the
//!    cheapest tier (by absolute window price) whose capacity still holds
//!    its load. Placements do not move, so the pass is trivially
//!    cost-non-increasing — it converts the under-full tail VMs of a big
//!    tier into small cheap VMs.
//! 3. **Homogeneous fallback.** The packer also builds one candidate per
//!    feasible tier by running the paper's [`CustomBinPacking`] at that
//!    tier's capacity and downsizing the result. The cheapest candidate
//!    (mixed or downsized-homogeneous) wins, so the returned fleet
//!    **never costs more than the best single-type fleet** on the same
//!    selection — the invariant the `mixed_fleet` property tests and the
//!    `fig_mixed_fleet` experiment assert. Satisfaction is unaffected by
//!    fleet shape: every candidate places the identical Stage-1
//!    selection in full.
//!
//! ```
//! use cloud_cost::{instances, Ec2CostModel, FleetCostModel};
//! use mcss_core::stage2::MixedFleetPacker;
//! use mcss_core::{McssInstance, Selection};
//! use pubsub_model::{Rate, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Workload::builder();
//! let loud = b.add_topic(Rate::new(20))?;
//! let quiet = b.add_topic(Rate::new(5))?;
//! b.add_subscriber([loud, quiet])?;
//! b.add_subscriber([quiet])?;
//! let w = b.build();
//! let selection = Selection::from_per_subscriber(vec![vec![loud, quiet], vec![quiet]]);
//!
//! // A scaled-down c3 family: equal cost density, capacities 25 and 50.
//! let fleet = FleetCostModel::new(vec![
//!     Ec2CostModel::paper_default(instances::C3_LARGE).with_capacity_events(25),
//!     Ec2CostModel::paper_default(instances::C3_XLARGE).with_capacity_events(50),
//! ]);
//! let allocation = MixedFleetPacker::new().allocate(&w, &selection, &fleet)?;
//! let typing = allocation.typing().expect("mixed output is always typed");
//! // The loud topic (2·20 = 40) needs the big tier; the quiet tail
//! // (3·5 = 15) rents the cheap one.
//! assert_eq!(typing.mix(), "1\u{d7}c3.large + 1\u{d7}c3.xlarge");
//! assert!(allocation.validate(&w, Rate::new(25)).is_ok());
//! # Ok(())
//! # }
//! ```

use super::{Allocator, CbpConfig, CustomBinPacking, FleetBuilder};
use crate::{Allocation, FleetTyping, McssError, Selection, TopicGroups};
use cloud_cost::{FleetCostModel, Money};
use pubsub_model::{Bandwidth, Workload};
use std::cmp::Reverse;

/// Stage-2 packing onto a heterogeneous fleet (see the module docs).
///
/// Not an [`Allocator`](super::Allocator): the trait packs against one
/// capacity and prices through `C1(|B|)`, while mixed packing needs the
/// whole tier table. Output allocations always carry a
/// [`FleetTyping`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MixedFleetPacker;

/// One tier's in-progress VM pool during density-first packing.
struct TierPool {
    capacity: Bandwidth,
    vms: FleetBuilder,
}

impl MixedFleetPacker {
    /// Creates the packer.
    pub fn new() -> Self {
        MixedFleetPacker
    }

    /// Packs every pair of `selection`, a selection over `workload`, onto
    /// a mixed fleet drawn from `fleet`'s tiers.
    ///
    /// # Errors
    ///
    /// [`McssError::InfeasibleTopic`] if a selected topic fits no tier
    /// (`2·ev_t` exceeds even the largest capacity).
    pub fn allocate(
        &self,
        workload: &Workload,
        selection: &Selection,
        fleet: &FleetCostModel,
    ) -> Result<Allocation, McssError> {
        let max_capacity = fleet.max_capacity();
        let groups = selection.topic_groups(workload);
        // CBP optimization (c): most expensive (total remaining volume)
        // topic first — large groups grab whole VMs before the tail
        // fragments the pools. A cached index permutation; the CSR itself
        // stays topic-ordered.
        let order = groups.order_by_total_volume(workload);
        for (topic, _) in groups.iter() {
            let required = workload.rate(topic).pair_cost();
            if required > max_capacity {
                return Err(McssError::InfeasibleTopic {
                    topic,
                    required,
                    capacity: max_capacity,
                });
            }
        }

        let mut best = self.pack_density_first(workload, &groups, &order, fleet);
        let mut best_cost = best.cost_on_fleet(fleet);

        // Homogeneous fallback candidates: the paper's CBP at each tier
        // that can host every selected topic, downsized afterwards. The
        // cheapest candidate wins, which guarantees the mixed fleet never
        // costs more than the best single-type fleet.
        for tier in 0..fleet.tier_count() {
            let capacity = fleet.capacity(tier);
            if groups
                .iter()
                .any(|(t, _)| workload.rate(t).pair_cost() > capacity)
            {
                continue;
            }
            let homogeneous = CustomBinPacking::new(CbpConfig::full()).allocate(
                workload,
                selection,
                capacity,
                fleet.tier(tier),
            )?;
            let candidate = retype_downsized(homogeneous, tier, fleet);
            let cost = candidate.cost_on_fleet(fleet);
            if cost < best_cost {
                best = candidate;
                best_cost = cost;
            }
        }
        Ok(best)
    }

    /// Candidate 1: density-first mixed packing plus the downsize pass.
    /// `order` is the group-index permutation to process (most expensive
    /// first).
    fn pack_density_first(
        &self,
        workload: &Workload,
        groups: &TopicGroups,
        order: &[u32],
        fleet: &FleetCostModel,
    ) -> Allocation {
        let mut pools: Vec<TierPool> = (0..fleet.tier_count())
            .map(|i| TierPool {
                capacity: fleet.capacity(i),
                vms: FleetBuilder::default(),
            })
            .collect();
        let largest = pools
            .iter()
            .enumerate()
            .max_by_key(|(i, p)| (p.capacity, Reverse(*i)))
            .map(|(i, _)| i)
            .expect("fleet is non-empty");

        for &g in order {
            let g = g as usize;
            let topic = groups.topic(g);
            let n = groups.subscribers(g).len();
            let rate = workload.rate(topic);
            let whole = u128::from(rate.get()) * (n as u128 + 1);
            let charge = |k: usize| rate * (k as u64 + 1);
            // Cheapest-density tier that holds the group whole; groups too
            // large for every tier split across the largest tier's VMs.
            let tier = match u64::try_from(whole)
                .ok()
                .and_then(|w| fleet.cheapest_fitting(Bandwidth::new(w)))
            {
                Some(tier) => tier,
                None => largest,
            };
            let TierPool { capacity, vms } = &mut pools[tier];
            let capacity = *capacity;

            // Most recently opened VM of the tier first (Alg. 4 line 8).
            if let Some(current) = vms.used().len().checked_sub(1) {
                if whole <= u128::from(vms.free(current, capacity).get()) {
                    vms.place(current, g, 0..n, charge(n));
                    continue;
                }
            }

            // Spill onto the most-free VMs of the tier (optimization (d)),
            // then open fresh VMs.
            let mut placed = 0;
            while placed < n {
                let Some(vm) = vms.most_free(capacity) else {
                    break;
                };
                let free = vms.free(vm, capacity);
                if free < rate.pair_cost() {
                    break;
                }
                let take = (free.div_rate(rate) as usize - 1).min(n - placed);
                vms.place(vm, g, placed..placed + take, charge(take));
                placed += take;
            }
            while placed < n {
                let vm = vms.open();
                let fit = capacity.div_rate(rate) - 1; // ≥ 1 by feasibility
                let take = (fit as usize).min(n - placed);
                vms.place(vm, g, placed..placed + take, charge(take));
                placed += take;
            }
        }

        // Deploy tier by tier, and downsize each VM to the cheapest tier
        // that still holds its load.
        let (mut vms, mut assignment) = (FleetBuilder::default(), Vec::new());
        for (tier, pool) in pools.into_iter().enumerate() {
            assignment.extend(pool.vms.used().iter().map(|&u| downsize(tier, u, fleet)));
            vms.append(pool.vms);
        }
        vms.finish_groups(groups, fleet.max_capacity())
            .with_typing(typing_for(fleet, assignment))
    }
}

/// The cheapest tier (by absolute window price) that holds `used`,
/// defaulting to the current tier when no strictly cheaper home exists.
pub(crate) fn downsize(current: usize, used: Bandwidth, fleet: &FleetCostModel) -> u32 {
    match fleet.cheapest_absolute_fitting(used) {
        Some(tier) if fleet.vm_window_cost(tier) < fleet.vm_window_cost(current) => tier as u32,
        _ => current as u32,
    }
}

/// Builds the [`FleetTyping`] for `fleet`'s tier table.
pub(crate) fn typing_for(fleet: &FleetCostModel, assignment: Vec<u32>) -> FleetTyping {
    let tiers = fleet
        .tiers()
        .iter()
        .map(|t| (t.instance(), t.capacity()))
        .collect();
    FleetTyping::new(tiers, assignment)
}

/// Re-types a homogeneous CBP packing as a fleet allocation of `tier`,
/// applies the downsize pass, and rebases its fleet-wide capacity bound
/// to the fleet maximum.
fn retype_downsized(homogeneous: Allocation, tier: usize, fleet: &FleetCostModel) -> Allocation {
    let assignment: Vec<u32> = homogeneous
        .vms()
        .map(|vm| downsize(tier, vm.used(), fleet))
        .collect();
    homogeneous
        .with_capacity_bound(fleet.max_capacity())
        .with_typing(typing_for(fleet, assignment))
}

/// Convenience for reports: the objective of a typed allocation under its
/// fleet, split into the `C1` (per-tier VM rental) and `C2` (bandwidth)
/// shares.
pub fn mixed_cost_split(allocation: &Allocation, fleet: &FleetCostModel) -> (Money, Money) {
    let bandwidth = fleet.bandwidth_cost(allocation.total_bandwidth());
    (allocation.cost_on_fleet(fleet) - bandwidth, bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::{GreedySelectPairs, PairSelector};
    use crate::McssInstance;
    use cloud_cost::{CostModel, Ec2CostModel};
    use pubsub_model::{Rate, TopicId};

    fn tier(hourly_micros: i64, cap: u64, name: &'static str) -> Ec2CostModel {
        Ec2CostModel::paper_default(cloud_cost::InstanceType::new(name, hourly_micros, 64))
            .with_capacity_events(cap)
    }

    fn workload(rates: &[u64], interests: &[&[u32]]) -> Workload {
        let mut b = Workload::builder();
        for &r in rates {
            b.add_topic(Rate::new(r)).unwrap();
        }
        for tv in interests {
            b.add_subscriber(tv.iter().map(|&t| TopicId::new(t)))
                .unwrap();
        }
        b.build()
    }

    fn select_all(w: &Workload) -> Selection {
        Selection::from_per_subscriber(w.subscribers().map(|v| w.interests(v).to_vec()).collect())
    }

    #[test]
    fn mixed_never_costs_more_than_any_homogeneous_tier() {
        let w = workload(
            &[40, 12, 5, 3],
            &[&[0, 1], &[0, 2], &[1, 3], &[2, 3], &[0, 3], &[1, 2]],
        );
        let sel = select_all(&w);
        let fleet = FleetCostModel::new(vec![
            tier(150_000, 120, "small"),
            tier(300_000, 240, "large"),
        ]);
        let mixed = MixedFleetPacker::new().allocate(&w, &sel, &fleet).unwrap();
        mixed.validate(&w, Rate::new(u64::MAX)).unwrap();
        assert_eq!(mixed.pair_count(), sel.pair_count());
        let mixed_cost = mixed.cost_on_fleet(&fleet);
        for t in 0..fleet.tier_count() {
            let homog = CustomBinPacking::new(CbpConfig::full())
                .allocate(&w, &sel, fleet.capacity(t), fleet.tier(t))
                .unwrap();
            let homog_cost = fleet
                .tier(t)
                .total_cost(homog.vm_count(), homog.total_bandwidth());
            assert!(
                mixed_cost <= homog_cost,
                "mixed {mixed_cost} beat by {} tier {t}",
                homog_cost
            );
        }
    }

    #[test]
    fn loud_topic_forces_big_tier_while_tail_downsizes() {
        // The loud topic needs 2·45 = 90 > small cap 25, and fills the big
        // VM to 90/100 — no room for the quiet group whole, so the quiet
        // tail rents its own cheap small VM.
        let w = workload(&[45, 5], &[&[0, 1], &[1]]);
        let sel = select_all(&w);
        let fleet =
            FleetCostModel::new(vec![tier(150_000, 25, "small"), tier(600_000, 100, "big")]);
        let mixed = MixedFleetPacker::new().allocate(&w, &sel, &fleet).unwrap();
        mixed.validate(&w, Rate::new(50)).unwrap();
        let typing = mixed.typing().unwrap();
        let by_name = |name: &str| {
            fleet
                .tiers()
                .iter()
                .position(|t| t.instance().name() == name)
                .unwrap()
        };
        let counts = typing.tier_counts();
        assert_eq!(
            counts[by_name("big")],
            1,
            "the loud topic needs exactly one big VM"
        );
        assert_eq!(
            counts[by_name("small")],
            1,
            "the tail must land on the cheap tier"
        );
    }

    #[test]
    fn homogeneous_fallback_wins_when_one_tier_dominates() {
        // A pathological tier table: the "small" tier is absurdly dense
        // ($4/h for 10 units), so the best plan is all-"large"; the mixed
        // packer must fall back rather than scatter across tiers.
        let w = workload(&[6, 4, 3], &[&[0, 1, 2], &[0, 2], &[1, 2]]);
        let sel = select_all(&w);
        let fleet = FleetCostModel::new(vec![
            tier(4_000_000, 10, "overpriced"),
            tier(150_000, 60, "large"),
        ]);
        let mixed = MixedFleetPacker::new().allocate(&w, &sel, &fleet).unwrap();
        mixed.validate(&w, Rate::new(u64::MAX)).unwrap();
        let large = fleet
            .tiers()
            .iter()
            .position(|t| t.instance().name() == "large")
            .unwrap();
        let homog = CustomBinPacking::new(CbpConfig::full())
            .allocate(&w, &sel, fleet.capacity(large), fleet.tier(large))
            .unwrap();
        let homog_cost = fleet
            .tier(large)
            .total_cost(homog.vm_count(), homog.total_bandwidth());
        assert!(mixed.cost_on_fleet(&fleet) <= homog_cost);
        // Nothing rents the overpriced tier.
        let op = fleet
            .tiers()
            .iter()
            .position(|t| t.instance().name() == "overpriced")
            .unwrap();
        assert_eq!(mixed.typing().unwrap().tier_counts()[op], 0);
    }

    #[test]
    fn infeasible_topic_reports_the_largest_capacity() {
        let w = workload(&[80], &[&[0]]);
        let fleet = FleetCostModel::new(vec![tier(150_000, 50, "s"), tier(300_000, 100, "l")]);
        let err = MixedFleetPacker::new()
            .allocate(&w, &select_all(&w), &fleet)
            .unwrap_err();
        assert_eq!(
            err,
            McssError::InfeasibleTopic {
                topic: TopicId::new(0),
                required: Bandwidth::new(160),
                capacity: Bandwidth::new(100),
            }
        );
    }

    #[test]
    fn oversized_group_splits_across_the_largest_tier() {
        // 9 pairs of rate 10: whole group needs 100 > both caps; the
        // largest tier (cap 40 → 3 pairs/VM) absorbs the split.
        let interests: Vec<&[u32]> = (0..9).map(|_| &[0u32][..]).collect();
        let w = workload(&[10], &interests);
        let fleet = FleetCostModel::new(vec![tier(100_000, 30, "s"), tier(120_000, 40, "l")]);
        let mixed = MixedFleetPacker::new()
            .allocate(&w, &select_all(&w), &fleet)
            .unwrap();
        mixed.validate(&w, Rate::new(10)).unwrap();
        assert_eq!(mixed.pair_count(), 9);
        for (i, vm) in mixed.vms().enumerate() {
            assert!(vm.used() <= mixed.vm_capacity(i));
        }
    }

    #[test]
    fn empty_selection_yields_empty_typed_fleet() {
        let w = workload(&[5], &[&[0]]);
        let fleet = FleetCostModel::new(vec![tier(150_000, 100, "s")]);
        let empty = Selection::from_per_subscriber(vec![Vec::new()]);
        let a = MixedFleetPacker::new()
            .allocate(&w, &empty, &fleet)
            .unwrap();
        assert_eq!(a.vm_count(), 0);
        assert_eq!(a.typing().unwrap().mix(), "empty");
        assert_eq!(a.cost_on_fleet(&fleet), Money::ZERO);
    }

    #[test]
    fn mixed_satisfaction_matches_homogeneous_exactly() {
        // Same GSP selection packed mixed and homogeneous: delivered
        // rates are identical because fleet shape never drops a pair.
        let w = workload(
            &[30, 18, 12, 9, 6, 4],
            &[&[0, 1, 2], &[1, 3, 4], &[2, 4, 5], &[0, 5]],
        );
        let inst = McssInstance::new(w.clone(), Rate::new(20), Bandwidth::new(120)).unwrap();
        let sel = GreedySelectPairs::new().select(&inst).unwrap();
        let fleet = FleetCostModel::new(vec![
            tier(150_000, 120, "small"),
            tier(280_000, 240, "large"),
        ]);
        let mixed = MixedFleetPacker::new().allocate(&w, &sel, &fleet).unwrap();
        let homog = CustomBinPacking::new(CbpConfig::full())
            .allocate(&w, &sel, fleet.capacity(0), fleet.tier(0))
            .unwrap();
        assert_eq!(mixed.delivered_rates(&w), homog.delivered_rates(&w));
        mixed.validate(&w, inst.tau()).unwrap();
    }

    #[test]
    fn cost_split_sums_to_total() {
        let w = workload(&[10, 5], &[&[0, 1], &[1]]);
        let sel = select_all(&w);
        let fleet = FleetCostModel::new(vec![tier(150_000, 60, "s")]);
        let a = MixedFleetPacker::new().allocate(&w, &sel, &fleet).unwrap();
        let (vm, bw) = mixed_cost_split(&a, &fleet);
        assert_eq!(vm + bw, a.cost_on_fleet(&fleet));
        assert_eq!(bw, fleet.bandwidth_cost(a.total_bandwidth()));
    }
}
