//! VM failure injection and repair.
//!
//! A deployment sized by MCSS runs on rented VMs that *fail*. This module
//! quantifies the blast radius of losing brokers mid-window — which
//! subscribers drop below `τ_v`, how much delivery volume disappears — and
//! exercises the natural repair path: re-solving the instance for the
//! surviving regime. This goes beyond the paper (which models a static
//! window) but directly supports its §VI "dynamic on-demand provisioning"
//! agenda, and gives the test suite a failure-injection axis.

use mcss_core::{Allocation, McssInstance};
use pubsub_model::{Rate, SubscriberId};

/// The effect of removing a set of VMs from an allocation.
#[derive(Clone, Debug)]
pub struct FailureImpact {
    /// The surviving allocation (failed VMs dropped, ids re-packed).
    pub degraded: Allocation,
    /// Rate still delivered to each subscriber (unique pairs only).
    pub delivered: Vec<Rate>,
    /// Subscribers whose delivered rate fell below `τ_v`.
    pub starved: Vec<SubscriberId>,
    /// Pairs lost with the failed VMs.
    pub pairs_lost: u64,
    /// Bandwidth capacity lost with the failed VMs (their `bw_b`).
    pub volume_lost: u64,
    /// Distinct in-range VMs that actually failed.
    pub vms_failed: usize,
    /// Out-of-range indices from the kill list, deduped and sorted —
    /// reported so a typo'd drill spec doesn't silently kill nothing.
    pub invalid: Vec<usize>,
}

/// Simulates the loss of the given VM indices.
///
/// Duplicate indices collapse to a single failure (the loss accounting
/// never double-counts); out-of-range indices are reported in
/// [`FailureImpact::invalid`] rather than silently ignored.
pub fn fail_vms(
    instance: &McssInstance,
    allocation: &Allocation,
    failed: &[usize],
) -> FailureImpact {
    let workload = instance.workload();
    let mut wanted: Vec<usize> = failed.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    let mut keep = vec![true; allocation.vm_count()];
    let mut vms_failed = 0usize;
    let mut invalid = Vec::new();
    for &i in &wanted {
        if i < keep.len() {
            keep[i] = false;
            vms_failed += 1;
        } else {
            invalid.push(i);
        }
    }
    let mut pairs_lost = 0;
    let mut volume_lost = 0;
    for (vm, _) in allocation.vms().zip(&keep).filter(|(_, &kept)| !kept) {
        pairs_lost += vm.pair_count();
        volume_lost += vm.used().get();
    }
    let degraded = allocation.retain_vms(|vm| keep[vm]);
    let delivered = degraded.delivered_rates(workload);
    let starved = workload
        .subscribers()
        .filter(|&v| delivered[v.index()] < instance.tau_v(v))
        .collect();
    FailureImpact {
        degraded,
        delivered,
        starved,
        pairs_lost,
        volume_lost,
        vms_failed,
        invalid,
    }
}

/// Convenience: how many subscribers a single VM's failure would starve,
/// for every VM — a fragility profile of the allocation.
pub fn fragility_profile(instance: &McssInstance, allocation: &Allocation) -> Vec<usize> {
    (0..allocation.vm_count())
        .map(|i| fail_vms(instance, allocation, &[i]).starved.len())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_cost::{LinearCostModel, Money};
    use mcss_core::Solver;
    use pubsub_model::{Bandwidth, TopicId, Workload};

    fn solved() -> (McssInstance, Allocation) {
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = [20u64, 12, 8, 5]
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        b.add_subscriber([ts[0], ts[1]]).unwrap();
        b.add_subscriber([ts[1], ts[2], ts[3]]).unwrap();
        b.add_subscriber([ts[0], ts[3]]).unwrap();
        let inst = McssInstance::new(b.build(), Rate::new(15), Bandwidth::new(70)).unwrap();
        let cost = LinearCostModel::vm_only(Money::from_dollars(1));
        let alloc = Solver::default().solve(&inst, &cost).unwrap().allocation;
        (inst, alloc)
    }

    #[test]
    fn no_failures_no_impact() {
        let (inst, alloc) = solved();
        let impact = fail_vms(&inst, &alloc, &[]);
        assert_eq!(impact.pairs_lost, 0);
        assert_eq!(impact.volume_lost, 0);
        assert!(impact.starved.is_empty());
        assert_eq!(impact.degraded.pair_count(), alloc.pair_count());
    }

    #[test]
    fn losing_everything_starves_everyone_with_interests() {
        let (inst, alloc) = solved();
        let all: Vec<usize> = (0..alloc.vm_count()).collect();
        let impact = fail_vms(&inst, &alloc, &all);
        assert_eq!(impact.degraded.vm_count(), 0);
        assert_eq!(impact.pairs_lost, alloc.pair_count());
        assert_eq!(impact.starved.len(), inst.workload().num_subscribers());
    }

    #[test]
    fn partial_failure_accounts_exactly() {
        let (inst, alloc) = solved();
        if alloc.vm_count() < 2 {
            return; // packing landed on one VM; nothing partial to test
        }
        let impact = fail_vms(&inst, &alloc, &[0]);
        assert_eq!(
            impact.pairs_lost + impact.degraded.pair_count(),
            alloc.pair_count(),
            "lost + surviving pairs must cover the original"
        );
        assert_eq!(impact.volume_lost, alloc.vm(0).used().get());
    }

    #[test]
    fn out_of_range_and_duplicate_indices_are_safe() {
        let (inst, alloc) = solved();
        let impact = fail_vms(&inst, &alloc, &[999, 999, 1_000]);
        assert_eq!(impact.pairs_lost, 0);
        assert_eq!(impact.vms_failed, 0);
        assert_eq!(impact.invalid, vec![999, 1_000], "typos reported, deduped");
        let impact2 = fail_vms(&inst, &alloc, &[0, 0, 0]);
        assert_eq!(impact2.vms_failed, 1, "duplicates collapse to one failure");
        assert_eq!(impact2.volume_lost, alloc.vm(0).used().get());
        assert!(impact2.invalid.is_empty());
        // Duplicates must not double-count the loss: one kill of VM 0
        // and three kills of VM 0 are the same event.
        let once = fail_vms(&inst, &alloc, &[0]);
        assert_eq!(impact2.pairs_lost, once.pairs_lost);
        assert_eq!(impact2.volume_lost, once.volume_lost);
    }

    #[test]
    fn repair_by_resolve_restores_satisfaction() {
        let (inst, alloc) = solved();
        let all: Vec<usize> = (0..alloc.vm_count()).collect();
        let impact = fail_vms(&inst, &alloc, &all);
        assert!(!impact.starved.is_empty());
        // Repair: re-solve the same instance (fresh fleet).
        let cost = LinearCostModel::vm_only(Money::from_dollars(1));
        let repaired = Solver::default().solve(&inst, &cost).unwrap().allocation;
        assert!(repaired.validate(inst.workload(), inst.tau()).is_ok());
    }

    #[test]
    fn survivors_keep_their_rows_as_the_nested_route_rebuilds_them() {
        // `fail_vms` keeps surviving VMs by row range; rebuilding them
        // from nested rows through `Allocation::from_groups` must give the
        // same fleet, on generated fleets and kill lists with duplicate
        // and out-of-range indices.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cost = LinearCostModel::vm_only(Money::from_dollars(1));
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = Workload::builder();
            let ts: Vec<TopicId> = (0..rng.gen_range(2usize..12))
                .map(|_| b.add_topic(Rate::new(rng.gen_range(1u64..=9))).unwrap())
                .collect();
            for _ in 0..rng.gen_range(1usize..40) {
                let mut row: Vec<TopicId> = (0..rng.gen_range(1usize..=4))
                    .map(|_| ts[rng.gen_range(0..ts.len())])
                    .collect();
                row.sort_unstable();
                row.dedup();
                b.add_subscriber(row).unwrap();
            }
            let capacity = Bandwidth::new(rng.gen_range(20u64..=60));
            let inst = McssInstance::new(b.build(), Rate::new(8), capacity).unwrap();
            let alloc = Solver::default().solve(&inst, &cost).unwrap().allocation;
            let vms = alloc.vm_count();
            let kill: Vec<usize> = (0..rng.gen_range(0usize..=vms + 2))
                .map(|_| rng.gen_range(0..vms + 3))
                .collect();
            let impact = fail_vms(&inst, &alloc, &kill);
            let kept = alloc
                .vms()
                .enumerate()
                .filter(|(b, _)| !kill.contains(b))
                .map(|(_, vm)| vm.rows().map(|(t, vs)| (t, vs.to_vec())).collect())
                .collect();
            let nested = Allocation::from_groups(kept, inst.workload(), alloc.capacity());
            assert_eq!(impact.degraded, nested, "seed {seed}, kill {kill:?}");
            assert_eq!(impact.delivered, nested.delivered_rates(inst.workload()));
            assert_eq!(
                impact.pairs_lost + impact.degraded.pair_count(),
                alloc.pair_count()
            );
        }
    }

    #[test]
    fn fragility_profile_has_one_entry_per_vm() {
        let (inst, alloc) = solved();
        let profile = fragility_profile(&inst, &alloc);
        assert_eq!(profile.len(), alloc.vm_count());
        // Starving more subscribers than exist is impossible.
        for &s in &profile {
            assert!(s <= inst.workload().num_subscribers());
        }
    }
}
