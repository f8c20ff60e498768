//! FFBinPacking — Alg. 3, the first-fit baseline for Stage 2.

use super::baselines::PairFleet;
use super::Allocator;
use crate::{Allocation, McssError, Selection};
use cloud_cost::CostModel;
use pubsub_model::{Bandwidth, Workload};

/// First-fit bin packing over individual pairs (Alg. 3).
///
/// Pairs are consumed in the selection's subscriber-major order (the
/// paper's "no particular sequence", pinned for determinism). Each pair
/// lands on the first VM with room for its marginal cost; a new VM is
/// deployed when none fits.
///
/// Because every pair is considered individually against every deployed
/// VM, the running time is `O(|S| · |B|)` — the quadratic behaviour that
/// Figs. 6–7 contrast against CustomBinPacking's grouped passes — and
/// pairs of one topic scatter across VMs, paying the incoming stream once
/// per VM (Fig. 1b).
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstFitBinPacking {}

impl FirstFitBinPacking {
    /// Creates the allocator.
    pub fn new() -> Self {
        FirstFitBinPacking {}
    }
}

impl Allocator for FirstFitBinPacking {
    fn name(&self) -> &'static str {
        "FFBP"
    }

    fn allocate(
        &self,
        workload: &Workload,
        selection: &Selection,
        capacity: Bandwidth,
        _cost: &dyn CostModel,
    ) -> Result<Allocation, McssError> {
        PairFleet::pack(workload, selection, capacity, |vms, t, rate| {
            (0..vms.vm_count()).find(|&vm| vms.delta(vm, t, rate) <= vms.free(vm, capacity))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_cost::{LinearCostModel, Money};
    use pubsub_model::{Rate, SubscriberId, TopicId, Workload};

    fn nocost() -> LinearCostModel {
        LinearCostModel::new(Money::ZERO, Money::ZERO)
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
    fn single_vm_when_everything_fits() {
        let w = workload(&[10, 5], &[&[0, 1], &[0]]);
        // Volume: t0 pairs 2 ×10 + in 10 = 30; t1 pair 5 + in 5 = 10 → 40.
        let a = FirstFitBinPacking::new()
            .allocate(&w, &select_all(&w), Bandwidth::new(40), &nocost())
            .unwrap();
        assert_eq!(a.vm_count(), 1);
        assert_eq!(a.total_bandwidth(), Bandwidth::new(40));
    }

    #[test]
    fn deploys_new_vm_when_full() {
        let w = workload(&[10], &[&[0], &[0], &[0]]);
        // Capacity 30: first VM takes (t0,v0) at 20, (t0,v1) at +10 = 30;
        // (t0,v2) opens a second VM at 20.
        let a = FirstFitBinPacking::new()
            .allocate(&w, &select_all(&w), Bandwidth::new(30), &nocost())
            .unwrap();
        assert_eq!(a.vm_count(), 2);
        assert_eq!(a.total_bandwidth(), Bandwidth::new(50));
        assert!(a.validate(&w, Rate::new(10)).is_ok());
    }

    #[test]
    fn first_fit_revisits_earlier_vms() {
        // Pairs: big topic fills VM0; small topic pair fits back on VM0's
        // leftover? Construct: capacity 50. t0 rate 20 (pair cost 40),
        // t1 rate 4 (pair cost 8).
        // Order: (t0,v0) -> VM0 (40). (t1,v0): delta 8 ≤ 10 -> VM0 (48).
        let w = workload(&[20, 4], &[&[0, 1]]);
        let a = FirstFitBinPacking::new()
            .allocate(&w, &select_all(&w), Bandwidth::new(50), &nocost())
            .unwrap();
        assert_eq!(a.vm_count(), 1);
        assert_eq!(a.total_bandwidth(), Bandwidth::new(48));
    }

    #[test]
    fn splits_topics_across_vms_paying_incoming_twice() {
        // Fig. 1b's pathology: same topic on two VMs => incoming twice.
        let w = workload(&[10], &[&[0], &[0]]);
        let a = FirstFitBinPacking::new()
            .allocate(&w, &select_all(&w), Bandwidth::new(20), &nocost())
            .unwrap();
        assert_eq!(a.vm_count(), 2);
        assert_eq!(a.incoming_volume(&w), Bandwidth::new(20));
    }

    #[test]
    fn infeasible_topic_is_reported() {
        let w = workload(&[100], &[&[0]]);
        let err = FirstFitBinPacking::new()
            .allocate(&w, &select_all(&w), Bandwidth::new(199), &nocost())
            .unwrap_err();
        assert_eq!(
            err,
            McssError::InfeasibleTopic {
                topic: TopicId::new(0),
                required: Bandwidth::new(200),
                capacity: Bandwidth::new(199),
            }
        );
    }

    #[test]
    fn empty_selection_uses_no_vms() {
        let w = workload(&[5], &[&[0]]);
        let empty = Selection::from_per_subscriber(vec![Vec::new()]);
        let a = FirstFitBinPacking::new()
            .allocate(&w, &empty, Bandwidth::new(100), &nocost())
            .unwrap();
        assert_eq!(a.vm_count(), 0);
        assert_eq!(a.pair_count(), 0);
    }

    #[test]
    fn respects_capacity_invariant_under_stress() {
        // Many topics/pairs, tight capacity: validator must stay green.
        let rates: Vec<u64> = (1..=30).collect();
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = rates
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        for vi in 0..25u32 {
            let tv: Vec<TopicId> = ts
                .iter()
                .copied()
                .filter(|t| (t.raw() + vi) % 4 != 0)
                .collect();
            b.add_subscriber(tv).unwrap();
        }
        let w = b.build();
        let sel = select_all(&w);
        let a = FirstFitBinPacking::new()
            .allocate(&w, &sel, Bandwidth::new(120), &nocost())
            .unwrap();
        assert!(a.validate(&w, Rate::new(u64::MAX)).is_ok());
        for vm in a.vms() {
            assert!(vm.used() <= Bandwidth::new(120));
        }
        assert_eq!(a.pair_count(), sel.pair_count());
        let _ = SubscriberId::new(0);
    }
}
