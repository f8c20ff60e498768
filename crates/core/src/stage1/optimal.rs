//! Per-subscriber optimal pair selection via covering-knapsack DP.
//!
//! §III-A notes that each subscriber's sub-problem "is basically a variant
//! of the knapsack problem that can be solved optimally using dynamic
//! programming", which the paper rejects at scale in favour of the greedy.
//! This module implements that optimum — selecting a subset of `T_v` whose
//! total rate reaches `τ_v` with minimum total rate (equivalently minimum
//! Stage-1 cost, which is `2×` the total) — so tests can sandwich the
//! greedy between the lower bound and the true Stage-1 optimum.

use super::PairSelector;
use crate::{McssError, McssInstance, Selection, SelectionBuilder};
use pubsub_model::{Rate, SubscriberId, TopicId, Workload};

/// Exact Stage-1 selector (per-subscriber covering knapsack).
///
/// The DP table holds `τ_v` cells per subscriber; instances whose total
/// cell count exceeds [`OptimalSelectPairs::budget`] are rejected rather
/// than silently thrashing memory.
#[derive(Clone, Copy, Debug)]
pub struct OptimalSelectPairs {
    budget: u64,
}

impl OptimalSelectPairs {
    /// Default budget: 50 million DP cells (hundreds of MB at the worst).
    pub fn new() -> Self {
        OptimalSelectPairs { budget: 50_000_000 }
    }

    /// Sets an explicit DP cell budget.
    pub fn with_budget(budget: u64) -> Self {
        OptimalSelectPairs { budget }
    }

    /// The configured DP cell budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

impl Default for OptimalSelectPairs {
    fn default() -> Self {
        OptimalSelectPairs::new()
    }
}

impl PairSelector for OptimalSelectPairs {
    fn name(&self) -> &'static str {
        "OPT1"
    }

    fn select(&self, instance: &McssInstance) -> Result<Selection, McssError> {
        let (workload, tau) = (instance.workload(), instance.tau());
        // Pre-flight the budget across all subscribers.
        let mut cells: u64 = 0;
        for v in workload.subscribers() {
            let tau_v = workload.tau_v(v, tau);
            cells = cells.saturating_add(tau_v.get());
            if cells > self.budget {
                return Err(McssError::TooLargeForOptimalSelection {
                    cells,
                    budget: self.budget,
                });
            }
        }
        let mut builder = SelectionBuilder::with_capacity(workload.num_subscribers(), 0);
        for v in workload.subscribers() {
            builder.push_row(optimal_for_subscriber(workload, v, tau));
        }
        Ok(builder.build())
    }
}

/// Covering knapsack for one subscriber: minimize the selected total rate
/// subject to `total ≥ τ_v`.
fn optimal_for_subscriber(workload: &Workload, v: SubscriberId, tau: Rate) -> Vec<TopicId> {
    let interests = workload.interests(v);
    if interests.is_empty() {
        return Vec::new();
    }
    let tau_v = workload.tau_v(v, tau).get();
    let total = workload.subscriber_total_rate(v).get();
    if total <= tau_v {
        return interests.to_vec();
    }
    let target = tau_v as usize;
    if target == 0 {
        return Vec::new();
    }

    // filler[s] = index into `interests` of the topic that last reached
    // partial sum s (< τ_v); usize::MAX = unreachable. Sum 0 is the seed.
    const UNREACHED: u32 = u32::MAX;
    let mut filler: Vec<u32> = vec![UNREACHED; target];
    let mut reachable: Vec<bool> = vec![false; target];
    reachable[0] = true;

    // Best completion: smallest total ≥ τ_v, as (total, topic idx, prev sum).
    let mut best: Option<(u64, usize, usize)> = None;

    for (i, &t) in interests.iter().enumerate() {
        let ev = workload.rate(t).get();
        // Descending sums: classic 0/1 knapsack order.
        for s in (0..target).rev() {
            if !reachable[s] {
                continue;
            }
            let ns = s as u64 + ev;
            if ns >= tau_v {
                if best.is_none_or(|(b, _, _)| ns < b) {
                    best = Some((ns, i, s));
                }
            } else {
                let ns = ns as usize;
                if !reachable[ns] {
                    reachable[ns] = true;
                    filler[ns] = i as u32;
                }
            }
        }
    }

    let (_, last_topic, mut s) = best.expect("total > tau_v > 0 guarantees some completion exists");
    let mut chosen = vec![interests[last_topic]];
    while s > 0 {
        let i = filler[s] as usize;
        chosen.push(interests[i]);
        s -= workload.rate(interests[i]).get() as usize;
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::GreedySelectPairs;
    use crate::McssInstance;
    use pubsub_model::{Bandwidth, Workload};

    fn instance(rates: &[u64], interests: &[&[u32]], tau: u64) -> McssInstance {
        let mut b = Workload::builder();
        for &r in rates {
            b.add_topic(Rate::new(r)).unwrap();
        }
        for tv in interests {
            b.add_subscriber(tv.iter().map(|&t| TopicId::new(t)))
                .unwrap();
        }
        McssInstance::new(b.build(), Rate::new(tau), Bandwidth::new(1 << 40)).unwrap()
    }

    #[test]
    fn finds_exact_cover_when_one_exists() {
        // τ = 12 from {9, 7, 5, 3}: optimum is {9, 3} or {7, 5} (total 12).
        let inst = instance(&[9, 7, 5, 3], &[&[0, 1, 2, 3]], 12);
        let s = OptimalSelectPairs::new().select(&inst).unwrap();
        assert_eq!(
            s.delivered_rate(inst.workload(), SubscriberId::new(0)),
            Rate::new(12)
        );
    }

    #[test]
    fn beats_greedy_where_greedy_overshoots() {
        // τ = 10 from {6, 5, 5}: greedy picks 6 then 5 (total 11);
        // optimum is {5, 5} (total 10).
        let inst = instance(&[6, 5, 5], &[&[0, 1, 2]], 10);
        let opt = OptimalSelectPairs::new().select(&inst).unwrap();
        let gsp = GreedySelectPairs::new().select(&inst).unwrap();
        let w = inst.workload();
        let v = SubscriberId::new(0);
        assert_eq!(opt.delivered_rate(w, v), Rate::new(10));
        assert_eq!(gsp.delivered_rate(w, v), Rate::new(11));
        assert!(opt.stage1_cost(w) < gsp.stage1_cost(w));
    }

    #[test]
    fn never_worse_than_greedy_exhaustively() {
        let alphabet = [2u64, 3, 5, 7, 11];
        for a in alphabet {
            for b in alphabet {
                for c in alphabet {
                    for tau in [1u64, 5, 9, 14, 20] {
                        let inst = instance(&[a, b, c], &[&[0, 1, 2]], tau);
                        let opt = OptimalSelectPairs::new().select(&inst).unwrap();
                        let gsp = GreedySelectPairs::new().select(&inst).unwrap();
                        let w = inst.workload();
                        assert!(opt.satisfies(w, inst.tau()), "({a},{b},{c}) τ={tau}");
                        assert!(
                            opt.stage1_cost(w) <= gsp.stage1_cost(w),
                            "opt worse than greedy on ({a},{b},{c}) τ={tau}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn selects_all_when_tau_dominates() {
        let inst = instance(&[4, 4], &[&[0, 1]], 100);
        let s = OptimalSelectPairs::new().select(&inst).unwrap();
        assert_eq!(s.selected(SubscriberId::new(0)).len(), 2);
    }

    #[test]
    fn budget_is_enforced() {
        let inst = instance(&[1_000_000], &[&[0]], 999_999);
        let err = OptimalSelectPairs::with_budget(10)
            .select(&inst)
            .unwrap_err();
        assert!(matches!(err, McssError::TooLargeForOptimalSelection { .. }));
        assert!(OptimalSelectPairs::new().budget() > 10);
    }

    #[test]
    fn empty_interest_subscribers_ok() {
        let mut b = pubsub_model::Workload::builder();
        b.add_topic(Rate::new(5)).unwrap();
        b.add_subscriber([]).unwrap();
        let inst = McssInstance::new(b.build(), Rate::new(3), Bandwidth::new(100)).unwrap();
        let s = OptimalSelectPairs::new().select(&inst).unwrap();
        assert_eq!(s.pair_count(), 0);
    }
}
