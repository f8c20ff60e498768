//! FFDBinPacking — first-fit-decreasing over whole topic groups.
//!
//! The classical bin-packing yardstick: sort items by size descending,
//! place each in the first bin with room. With all pairs of a topic
//! grouped into one indivisible item of size `(n+1)·ev_t`, this is the
//! textbook algorithm Dósa proved tight at `FFD(I) ≤ 11/9·OPT(I) + 6/9`
//! bins (doi:10.1007/978-3-540-74450-4_1) — the quoted reference baseline
//! the oracle suite checks against
//! [`ExactSolver`](crate::exact::ExactSolver).

use super::{Allocator, FleetBuilder};
use crate::{Allocation, McssError, Selection};
use cloud_cost::CostModel;
use pubsub_model::{Bandwidth, Workload};
use std::cmp::Reverse;

/// First-fit-decreasing over whole topic groups.
///
/// Topics are placed largest-first by whole-group cost `(n+1)·ev_t`
/// (ties broken by ascending topic id, so the order — and the packing —
/// is deterministic), each onto the lowest-index VM whose headroom holds
/// the entire group. Keeping groups whole pays every incoming stream
/// exactly once, like CBP; unlike CBP the order is by item size rather
/// than topic cost, matching the analyzed algorithm bin for bin.
///
/// A group too big for an empty VM falls back to pair-by-pair first-fit
/// (the bound applies to instances where every item fits in a bin;
/// oversized topics are outside it but must still pack feasibly). That
/// fills each VM's headroom in index order, one run per VM.
#[derive(Clone, Copy, Debug, Default)]
pub struct FfdBinPacking {}

impl FfdBinPacking {
    /// Creates the allocator.
    pub fn new() -> Self {
        FfdBinPacking {}
    }
}

impl Allocator for FfdBinPacking {
    fn name(&self) -> &'static str {
        "FFD"
    }

    fn allocate(
        &self,
        workload: &Workload,
        selection: &Selection,
        capacity: Bandwidth,
        _cost: &dyn CostModel,
    ) -> Result<Allocation, McssError> {
        let groups = selection.topic_groups(workload);
        // Largest whole-group cost first; ascending topic id on ties.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_unstable_by_key(|&g| {
            let rate = workload.rate(groups.topic(g));
            (
                Reverse(u128::from(rate.get()) * (groups.subscribers(g).len() as u128 + 1)),
                groups.topic(g),
            )
        });

        let mut fleet = FleetBuilder::with_room(groups.len(), 0);
        for g in order {
            let topic = groups.topic(g);
            let rate = workload.rate(topic);
            if rate.pair_cost() > capacity {
                return Err(McssError::InfeasibleTopic {
                    topic,
                    required: rate.pair_cost(),
                    capacity,
                });
            }
            let n = groups.subscribers(g).len();
            let whole = rate * (n as u64 + 1);
            if whole <= capacity {
                // The analyzed case: the group is one item; first fit.
                let vm = (0..fleet.used().len())
                    .find(|&vm| whole <= fleet.free(vm, capacity))
                    .unwrap_or_else(|| fleet.open());
                fleet.place(vm, g, 0..n, whole);
            } else {
                // Oversized group: split pair by pair, still first-fit.
                let (mut vm, mut placed) = (0, 0);
                while placed < n {
                    if vm == fleet.used().len() {
                        fleet.open();
                    }
                    let free = fleet.free(vm, capacity);
                    if free >= rate.pair_cost() {
                        let take = (free.div_rate(rate) as usize - 1).min(n - placed);
                        fleet.place(vm, g, placed..placed + take, rate * (take as u64 + 1));
                        placed += take;
                    }
                    vm += 1;
                }
            }
        }
        Ok(fleet.finish_groups(&groups, capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_cost::{LinearCostModel, Money};
    use pubsub_model::{Rate, TopicId, Workload};

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
    fn places_decreasing_and_fills_gaps() {
        // Groups (whole cost): t0 = 2 subs × 20 → 60; t1 = 1 sub × 25 → 50;
        // t2 = 1 sub × 8 → 16. Capacity 76: t0 on VM0 (60), t1 opens VM1
        // (50), t2 fits back on VM0 (76).
        let w = workload(&[20, 25, 8], &[&[0], &[0, 1], &[2]]);
        let a = FfdBinPacking::new()
            .allocate(&w, &select_all(&w), Bandwidth::new(76), &nocost())
            .unwrap();
        assert_eq!(a.vm_count(), 2);
        assert_eq!(a.total_bandwidth(), Bandwidth::new(126));
        assert!(a.validate(&w, Rate::new(u64::MAX)).is_ok());
    }

    #[test]
    fn never_splits_a_fitting_group() {
        let w = workload(&[10, 9], &[&[0, 1], &[0, 1], &[0, 1]]);
        let a = FfdBinPacking::new()
            .allocate(&w, &select_all(&w), Bandwidth::new(40), &nocost())
            .unwrap();
        // Each topic pays its incoming stream exactly once.
        assert_eq!(a.incoming_volume(&w), Bandwidth::new(19));
        assert!(a.validate(&w, Rate::new(u64::MAX)).is_ok());
    }

    #[test]
    fn oversized_group_splits_but_packs_feasibly() {
        // One topic, 9 subscribers at rate 10: whole cost 100 > capacity 45.
        let w = workload(
            &[10],
            &[&[0], &[0], &[0], &[0], &[0], &[0], &[0], &[0], &[0]],
        );
        let sel = select_all(&w);
        let a = FfdBinPacking::new()
            .allocate(&w, &sel, Bandwidth::new(45), &nocost())
            .unwrap();
        assert_eq!(a.pair_count(), sel.pair_count());
        assert!(a.validate(&w, Rate::new(u64::MAX)).is_ok());
        for vm in a.vms() {
            assert!(vm.used() <= Bandwidth::new(45));
        }
    }

    #[test]
    fn infeasible_topic_is_reported() {
        let w = workload(&[100], &[&[0]]);
        let err = FfdBinPacking::new()
            .allocate(&w, &select_all(&w), Bandwidth::new(150), &nocost())
            .unwrap_err();
        assert_eq!(
            err,
            McssError::InfeasibleTopic {
                topic: TopicId::new(0),
                required: Bandwidth::new(200),
                capacity: Bandwidth::new(150),
            }
        );
    }

    #[test]
    fn deterministic_under_rate_ties() {
        let w = workload(&[7, 7, 7, 7], &[&[0, 1, 2, 3], &[0, 2], &[1, 3]]);
        let sel = select_all(&w);
        let a = FfdBinPacking::new()
            .allocate(&w, &sel, Bandwidth::new(40), &nocost())
            .unwrap();
        let b = FfdBinPacking::new()
            .allocate(&w, &sel, Bandwidth::new(40), &nocost())
            .unwrap();
        assert_eq!(a, b);
    }
}
