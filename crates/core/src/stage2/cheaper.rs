//! CheaperToDistribute — Alg. 7, the cost-model-driven spill decision.

use cloud_cost::CostModel;
use pubsub_model::{Bandwidth, Rate};

/// Decides whether spilling the remaining pairs of a topic onto existing
/// VMs is cheaper than deploying fresh VMs for them (Alg. 7; CBP
/// optimization (e) of §III-B).
///
/// Both branches are *estimates*, faithful to the paper:
///
/// * the new-VM branch estimates `⌈|P|·ev_t / BC⌉` machines (Alg. 7
///   line 3 — it ignores the incoming stream when counting machines;
///   pass `exact_new_vm_estimate = true` to count
///   `⌈|P| / (⌊BC/ev⌋ − 1)⌉` instead, an ablation measured in the bench
///   suite) and adds one incoming stream per new VM (line 4);
/// * the distribute branch greedily fills existing VMs most-free-first,
///   charging `(taken + 1)·ev_t` per touched VM, then prices any
///   leftover pairs like the new-VM branch (lines 5–18).
///
/// Returns `true` when distributing is strictly cheaper (line 19; the
/// paper's comparison reads a stale loop variable — we compare the
/// completed estimates, see "Deviations from the paper" in
/// `docs/PAPER_MAP.md`).
///
/// `free_capacities` is the per-VM headroom of the currently deployed VMs,
/// in any order; it is sorted in place, most free first, so the estimate
/// needs no copy. `current_bw` is the running `Σ_b bw_b`.
///
/// # Panics
///
/// Panics if `rate` is zero or `2·rate > capacity` (callers reject
/// infeasible topics before consulting the decision).
#[allow(clippy::too_many_arguments)]
pub fn cheaper_to_distribute(
    free_capacities: &mut [Bandwidth],
    capacity: Bandwidth,
    rate: Rate,
    pairs: u64,
    current_vms: usize,
    current_bw: Bandwidth,
    cost: &dyn CostModel,
    exact_new_vm_estimate: bool,
) -> bool {
    assert!(!rate.is_zero(), "topic rates are positive");
    assert!(
        rate.pair_cost() <= capacity,
        "infeasible topic reached the spill decision"
    );
    if pairs == 0 {
        return false;
    }

    let new_vms_for = |n: u64| -> u64 {
        if n == 0 {
            return 0;
        }
        if exact_new_vm_estimate {
            let per_vm = capacity.div_rate(rate) - 1; // ≥ 1 by the assert
            n.div_ceil(per_vm)
        } else {
            // Alg. 7 line 3: ⌈n·ev / BC⌉ (pure volume, no incoming).
            mul(rate, n).div_ceil_by(capacity).max(1)
        }
    };

    // Branch 1: deploy new VMs for everything (Alg. 7 lines 2–4).
    let newvms = new_vms_for(pairs);
    let newvms_bw = current_bw + mul(rate, pairs + newvms);
    let cost_new = cost.total_cost(current_vms + newvms as usize, newvms_bw);

    // Branch 2: spill most-free-first, then new VMs for leftovers
    // (lines 5–18).
    free_capacities.sort_unstable_by(|a, b| b.cmp(a));
    let mut remaining = pairs;
    let mut spill_bw = current_bw;
    for &free in free_capacities.iter() {
        if remaining == 0 {
            break;
        }
        if free < rate.pair_cost() {
            break; // sorted descending: nothing below fits a first pair
        }
        let fit = free.div_rate(rate) - 1;
        let take = fit.min(remaining);
        spill_bw += mul(rate, take + 1);
        remaining -= take;
    }
    let extra = new_vms_for(remaining);
    if remaining > 0 {
        spill_bw += mul(rate, remaining + extra);
    }
    let cost_spill = cost.total_cost(current_vms + extra as usize, spill_bw);

    cost_spill < cost_new
}

/// `rate × n` with an overflow panic — volumes here are bounded by the
/// workload's own totals, which the builder keeps far below `u64::MAX`.
fn mul(rate: Rate, n: u64) -> Bandwidth {
    rate.checked_mul(n)
        .expect("volume overflow in spill estimate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_cost::{LinearCostModel, Money};

    /// VM $10 each, bandwidth 1 micro-dollar per event-unit.
    fn balanced() -> LinearCostModel {
        LinearCostModel::new(Money::from_dollars(10), Money::from_micros(1))
    }

    #[test]
    fn distribute_wins_when_vm_cost_dominates() {
        // 4 pairs of rate 10 fit comfortably in existing headroom; a new
        // VM would cost $10 versus a few micro-dollars of extra volume.
        let mut frees = [Bandwidth::new(100), Bandwidth::new(80)];
        assert!(cheaper_to_distribute(
            &mut frees,
            Bandwidth::new(200),
            Rate::new(10),
            4,
            2,
            Bandwidth::new(320),
            &balanced(),
            false,
        ));
    }

    #[test]
    fn new_vm_wins_when_bandwidth_dominates() {
        // Bandwidth extremely expensive, VMs free: scattering the topic
        // over many existing VMs multiplies incoming streams, so fresh
        // VMs are cheaper.
        let pricey_bw = LinearCostModel::new(Money::ZERO, Money::from_dollars(1));
        // 9 pairs, rate 10; VMs with 30 of headroom take 2 pairs each →
        // 5 VMs × incoming vs 1 new VM of capacity 200 taking all 9 with
        // one incoming stream.
        let mut frees = [Bandwidth::new(30); 5];
        assert!(!cheaper_to_distribute(
            &mut frees,
            Bandwidth::new(200),
            Rate::new(10),
            9,
            5,
            Bandwidth::ZERO,
            &pricey_bw,
            false,
        ));
    }

    #[test]
    fn no_existing_capacity_forces_new_vms() {
        let mut frees = [Bandwidth::new(5)]; // below pair cost 20
        assert!(!cheaper_to_distribute(
            &mut frees,
            Bandwidth::new(100),
            Rate::new(10),
            3,
            1,
            Bandwidth::ZERO,
            &balanced(),
            false,
        ));
    }

    #[test]
    fn zero_pairs_never_distribute() {
        assert!(!cheaper_to_distribute(
            &mut [Bandwidth::new(100)],
            Bandwidth::new(100),
            Rate::new(10),
            0,
            1,
            Bandwidth::ZERO,
            &balanced(),
            false,
        ));
    }

    #[test]
    fn paper_estimate_can_undercount_vms() {
        // rate 10, capacity 30: a real VM holds ⌊30/10⌋−1 = 2 pairs.
        // Paper's line-3 estimate for 6 pairs: ⌈60/30⌉ = 2 VMs; exact: 3.
        // The flag switches between them — observable through the cost
        // of the new-VM branch when VMs are expensive.
        let vm_only = LinearCostModel::vm_only(Money::from_dollars(1));
        // With no existing VMs both branches resolve to "new VMs"; spill
        // equals new then (not strictly cheaper) -> false either way, so
        // compare through headroom that takes exactly 0 pairs.
        let mut frees: [Bandwidth; 0] = [];
        let paper = cheaper_to_distribute(
            &mut frees,
            Bandwidth::new(30),
            Rate::new(10),
            6,
            0,
            Bandwidth::ZERO,
            &vm_only,
            false,
        );
        let exact = cheaper_to_distribute(
            &mut frees,
            Bandwidth::new(30),
            Rate::new(10),
            6,
            0,
            Bandwidth::ZERO,
            &vm_only,
            true,
        );
        // Both false (identical branches), but they must not panic and
        // the estimates differ internally; assert the public contract:
        assert!(!paper && !exact);
    }

    #[test]
    fn spill_fills_most_free_first() {
        // Headroom [50, 200] with rate 10: most-free-first puts
        // ⌊200/10⌋−1 = 19 pairs on the big VM; 10 pairs all land there,
        // costing (10+1)·10 = 110 volume and zero new VMs → distribute
        // beats a $10 VM.
        let mut frees = [Bandwidth::new(50), Bandwidth::new(200)];
        assert!(cheaper_to_distribute(
            &mut frees,
            Bandwidth::new(300),
            Rate::new(10),
            10,
            2,
            Bandwidth::ZERO,
            &balanced(),
            false,
        ));
    }

    #[test]
    #[should_panic(expected = "infeasible topic")]
    fn infeasible_topic_panics() {
        let _ = cheaper_to_distribute(
            &mut [],
            Bandwidth::new(10),
            Rate::new(10),
            1,
            0,
            Bandwidth::ZERO,
            &balanced(),
            false,
        );
    }
}
