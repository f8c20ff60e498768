//! The lower bound of Alg. 5 / Theorem A.1.

use cloud_cost::{CostModel, FleetCostModel, Money};
use pubsub_model::{Bandwidth, Rate, Workload};

/// The (possibly non-tight) lower bound on any MCSS solution.
///
/// For each subscriber the cheapest conceivable service is
/// `max(τ_v, min_{t∈T_v} ev_t)` of outgoing volume — either exactly the
/// threshold, or, when every interesting topic alone overshoots it, the
/// smallest such topic (pairs are indivisible). Summing gives a volume
/// bound; dividing by `BC` bounds the VM count (Alg. 5; incoming volume is
/// bounded below by zero, see Theorem A.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LowerBound {
    /// Lower bound on total bandwidth volume.
    pub volume: Bandwidth,
    /// Lower bound on the number of VMs.
    pub vms: u64,
}

impl LowerBound {
    /// The bound on the objective: `C1(vms) + C2(volume)`.
    pub fn cost(&self, model: &dyn CostModel) -> Money {
        model.total_cost(self.vms as usize, self.volume)
    }

    /// The bound on the mixed-fleet objective
    /// `Σ_i C1_i(n_i) + C2(Σ bw)` over any tier assignment.
    ///
    /// Every VM of tier `i` hosting `bw ≤ cap_i` pays
    /// `price_i ≥ (price_i / cap_i) · bw ≥ density_min · bw`, where
    /// `density_min` is the cheapest per-bandwidth-unit rental in the
    /// catalogue (tier 0: [`FleetCostModel`] sorts density-ascending).
    /// Summing over the fleet, the rental term of *any* feasible typed
    /// allocation is at least `density_min · volume`; the bandwidth term
    /// is shared across tiers. Evaluated in exact u128 arithmetic and
    /// floored, so the bound is never overstated.
    pub fn cost_on_fleet(&self, fleet: &FleetCostModel) -> Money {
        let price = fleet.vm_window_cost(0).micros().max(0) as u128;
        let cap = u128::from(fleet.capacity(0).get());
        let volume = u128::from(self.volume.get());
        let rental_floor = price * volume / cap;
        let rental = Money::from_micros(i64::try_from(rental_floor).unwrap_or(i64::MAX));
        rental + fleet.bandwidth_cost(self.volume)
    }
}

/// Computes the Alg. 5 lower bound for a workload under threshold `τ` and
/// per-VM capacity `BC`.
///
/// Subscribers without interests need nothing and contribute nothing.
///
/// Like GSP, the bound reads the workload's rate-ranked interest arena
/// ([`Workload::ranked_interests`]): `τ_v` comes from
/// [`Workload::ranked_sum_past`], which stops once the row's sum passes
/// `τ`, and the row's smallest rate is its last topic's. It allocates
/// nothing.
///
/// # Panics
///
/// Panics if `capacity` is zero.
///
/// ```
/// use mcss_core::lower_bound;
/// use pubsub_model::{Bandwidth, Rate, Workload};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Workload::builder();
/// let t = b.add_topic(Rate::new(30))?;
/// b.add_subscriber([t])?;
/// let lb = lower_bound(&b.build(), Rate::new(10), Bandwidth::new(25));
/// // τ_v = 10 but the only topic delivers 30 at minimum.
/// assert_eq!(lb.volume, Bandwidth::new(30));
/// assert_eq!(lb.vms, 2);
/// # Ok(())
/// # }
/// ```
pub fn lower_bound(workload: &Workload, tau: Rate, capacity: Bandwidth) -> LowerBound {
    assert!(!capacity.is_zero(), "capacity must be positive");
    let mut volume = Bandwidth::ZERO;
    for v in workload.subscribers() {
        let Some(&smallest) = workload.ranked_interests(v).last() else {
            continue;
        };
        let tau_v = workload.ranked_sum_past(v, tau).min(tau);
        volume += tau_v.max(workload.rate(smallest));
    }
    LowerBound {
        volume,
        vms: volume.div_ceil_by(capacity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::{GreedySelectPairs, PairSelector, RandomSelectPairs};
    use crate::stage2::{Allocator, CbpConfig, CustomBinPacking, FirstFitBinPacking};
    use crate::McssInstance;
    use cloud_cost::{LinearCostModel, Money};
    use proptest::strategy::Strategy;
    use pubsub_model::TopicId;

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

    #[test]
    fn tau_dominates_when_small_topics_exist() {
        let w = workload(&[5, 3], &[&[0, 1]]);
        let lb = lower_bound(&w, Rate::new(6), Bandwidth::new(10));
        assert_eq!(lb.volume, Bandwidth::new(6));
        assert_eq!(lb.vms, 1);
    }

    #[test]
    fn indivisible_pairs_raise_the_bound() {
        let w = workload(&[50, 40], &[&[0, 1]]);
        let lb = lower_bound(&w, Rate::new(10), Bandwidth::new(100));
        assert_eq!(lb.volume, Bandwidth::new(40)); // min topic rate
    }

    #[test]
    fn sums_over_subscribers() {
        let w = workload(&[10, 20], &[&[0], &[1], &[0, 1]]);
        let lb = lower_bound(&w, Rate::new(15), Bandwidth::new(25));
        // v0: max(10, 10) = 10 (τ_v = min(15, 10) = 10);
        // v1: max(15, 20) = 20 (τ_v = 15, min rate 20);
        // v2: max(15, 10) = 15.
        assert_eq!(lb.volume, Bandwidth::new(45));
        assert_eq!(lb.vms, 2);
    }

    #[test]
    fn empty_interests_contribute_nothing() {
        let mut b = Workload::builder();
        b.add_topic(Rate::new(5)).unwrap();
        b.add_subscriber([]).unwrap();
        let lb = lower_bound(&b.build(), Rate::new(10), Bandwidth::new(10));
        assert_eq!(lb.volume, Bandwidth::ZERO);
        assert_eq!(lb.vms, 0);
    }

    /// Alg. 5 as it reads, over the primary interest rows: one pass sums
    /// the row for `τ_v`, another takes its smallest rate. Kept as the
    /// oracle for the ranked walk of [`lower_bound`].
    fn two_pass_bound(workload: &Workload, tau: Rate, capacity: Bandwidth) -> LowerBound {
        let mut volume = Bandwidth::ZERO;
        for v in workload.subscribers() {
            let interests = workload.interests(v);
            let Some(min_rate) = interests.iter().map(|&t| workload.rate(t)).min() else {
                continue;
            };
            volume += workload.tau_v(v, tau).max(min_rate);
        }
        LowerBound {
            volume,
            vms: volume.div_ceil_by(capacity),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The ranked walk gives the two-pass bound, with zero-rate topics
        /// (a third of the draws), empty rows, and τ from 0 to past every
        /// row's total.
        #[test]
        fn ranked_bound_matches_the_two_pass_formula(
            rates in proptest::collection::vec((0u64..60).prop_map(|r| r.saturating_sub(20)), 1..8),
            rows in proptest::collection::vec(proptest::collection::vec(0u32..8, 0..7), 0..12),
            tau in 0u64..300,
            capacity in 1u64..200,
        ) {
            let w = Workload::from_parts(
                rates.into_iter().map(Rate::new).collect(),
                rows.into_iter()
                    .map(|row| row.into_iter().map(TopicId::new).collect())
                    .collect(),
            );
            let (tau, capacity) = (Rate::new(tau), Bandwidth::new(capacity));
            proptest::prop_assert_eq!(
                lower_bound(&w, tau, capacity),
                two_pass_bound(&w, tau, capacity)
            );
        }
    }

    #[test]
    fn cost_combines_both_terms() {
        let lb = LowerBound {
            volume: Bandwidth::new(100),
            vms: 3,
        };
        let m = LinearCostModel::new(Money::from_dollars(2), Money::from_micros(5));
        assert_eq!(
            lb.cost(&m),
            Money::from_dollars(6) + Money::from_micros(500)
        );
    }

    /// On a one-tier catalogue the fleet bound is the homogeneous bound
    /// with the VM ceiling relaxed to an exact ratio — never above it.
    #[test]
    fn fleet_bound_is_floor_of_single_tier_bound() {
        use cloud_cost::{instances, Ec2CostModel, FleetCostModel};
        let w = workload(&[10, 20], &[&[0], &[1], &[0, 1]]);
        let model = Ec2CostModel::paper_default(instances::C3_LARGE);
        let fleet = FleetCostModel::new(vec![model.clone()]);
        let lb = lower_bound(&w, Rate::new(15), model.capacity());
        assert!(lb.cost_on_fleet(&fleet) <= lb.cost(&model));
    }

    /// The mixed bound must hold for every typed allocation the mixed
    /// packer produces, across thresholds.
    #[test]
    fn fleet_bound_never_above_mixed_packing() {
        use cloud_cost::{Ec2CostModel, FleetCostModel, InstanceType};
        let w = workload(
            &[40, 25, 16, 9, 5, 3],
            &[&[0, 1, 2], &[1, 3, 4], &[2, 4, 5], &[0, 5], &[3, 4, 5]],
        );
        let fleet = FleetCostModel::new(vec![
            Ec2CostModel::paper_default(InstanceType::new("small", 150_000, 64))
                .with_capacity_events(120),
            Ec2CostModel::paper_default(InstanceType::new("big", 290_000, 128))
                .with_capacity_events(260),
        ]);
        for tau in [1u64, 8, 20, 50] {
            let inst = McssInstance::new(w.clone(), Rate::new(tau), fleet.max_capacity()).unwrap();
            let lb = lower_bound(&w, inst.tau(), fleet.max_capacity());
            let mixed = crate::Solver::default().solve_mixed(&inst, &fleet).unwrap();
            assert!(
                mixed.report.total_cost >= lb.cost_on_fleet(&fleet),
                "mixed packing beat the fleet bound at τ={tau}"
            );
        }
    }

    /// Theorem A.1's actual claim: every heuristic solution costs at least
    /// the bound. Exercised across selectors × allocators × τ.
    #[test]
    fn bound_holds_for_all_heuristic_combinations() {
        let w = workload(
            &[40, 25, 16, 9, 5, 3],
            &[&[0, 1, 2], &[1, 3, 4], &[2, 4, 5], &[0, 5], &[3, 4, 5]],
        );
        let cost = LinearCostModel::new(Money::from_dollars(1), Money::from_micros(3));
        let capacity = Bandwidth::new(120);
        for tau in [1u64, 8, 20, 50, 500] {
            let inst = McssInstance::new(w.clone(), Rate::new(tau), capacity).unwrap();
            let lb = lower_bound(&w, inst.tau(), capacity);
            let selectors: Vec<Box<dyn PairSelector>> = vec![
                Box::new(GreedySelectPairs::new()),
                Box::new(RandomSelectPairs::new(9)),
            ];
            for sel in &selectors {
                let s = sel.select(&inst).unwrap();
                let allocators: Vec<Box<dyn Allocator>> = vec![
                    Box::new(FirstFitBinPacking::new()),
                    Box::new(CustomBinPacking::new(CbpConfig::full())),
                ];
                for alloc in &allocators {
                    let a = alloc.allocate(&w, &s, capacity, &cost).unwrap();
                    assert!(
                        a.cost(&cost) >= lb.cost(&cost),
                        "{}+{} beat the lower bound at τ={tau}",
                        sel.name(),
                        alloc.name()
                    );
                    assert!(a.total_bandwidth() >= lb.volume);
                    assert!(a.vm_count() as u64 >= lb.vms);
                }
            }
        }
    }
}
