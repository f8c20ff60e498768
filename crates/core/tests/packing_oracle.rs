//! Property suite proving the anytime Stage-2 machinery against the
//! exhaustive [`ExactSolver`] oracle on small instances:
//!
//! - the cost sandwich `greedy ≥ refined ≥ exact ≥ lower bound`;
//! - the Dósa bound for FFD on pure bin-packing instances,
//!   `9·FFD ≤ 11·OPT + 6`;
//! - certificate soundness: when the search stops because the Alg. 5
//!   bound is met, the refined cost *is* the exact optimum;
//! - delivery invariance and bit-for-bit determinism of `improve`;
//! - the mixed-fleet lower bound never exceeds the achievable cost.
//!
//! The serve-daemon side of the same machinery (crash mid-compaction,
//! deterministic replay) lives in `serve_replay.rs`.

use cloud_cost::{Ec2CostModel, FleetCostModel, InstanceType, LinearCostModel, Money};
use mcss_core::exact::ExactSolver;
use mcss_core::stage1::{GreedySelectPairs, PairSelector};
use mcss_core::stage2::{
    improve, Allocator, CbpConfig, CustomBinPacking, FfdBinPacking, SearchBudget,
};
use mcss_core::{lower_bound, McssInstance, Solver, SolverParams};
use proptest::collection::vec;
use proptest::prelude::*;
use pubsub_model::{Bandwidth, Rate, TopicId, Workload};

fn nocost() -> LinearCostModel {
    LinearCostModel::new(Money::from_dollars(1), Money::from_micros(5))
}

/// VM rental only — makes the exact optimum a pure bin-count minimum.
fn vm_only_cost() -> LinearCostModel {
    LinearCostModel::new(Money::from_dollars(1), Money::ZERO)
}

/// Tiny instances whose pair count stays ≤ 7, well under the
/// [`ExactSolver`] default limit of 12: subscribers over prefixes of
/// the topic list (all topics, first two, first one).
fn arb_small_instance() -> impl Strategy<Value = McssInstance> {
    (vec(1u64..=12, 1..=4), 1u64..=20, 0u64..=60).prop_map(|(rates, tau, cap_slack)| {
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = rates
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        b.add_subscriber(ts.iter().copied()).unwrap();
        b.add_subscriber(ts.iter().copied().take(2)).unwrap();
        b.add_subscriber(ts.iter().copied().take(1)).unwrap();
        let max_rate = rates.iter().copied().max().unwrap();
        let cap = Bandwidth::new(2 * max_rate + cap_slack);
        McssInstance::new(b.build(), Rate::new(tau), cap).unwrap()
    })
}

/// Random workload mirroring the `proptests.rs` generator: 1..=8 topics
/// with rates 1..=30, 1..=8 subscribers with non-empty interests. Pair
/// counts routinely exceed the exact limit — only used where no oracle
/// is needed.
fn arb_workload() -> impl Strategy<Value = Workload> {
    vec(1u64..=30, 1..=8).prop_flat_map(|rates| {
        let nt = rates.len() as u32;
        vec(vec(0..nt, 1..=6), 1..=8).prop_map(move |interests| {
            let mut b = Workload::builder();
            for &r in &rates {
                b.add_topic(Rate::new(r)).unwrap();
            }
            for tv in &interests {
                b.add_subscriber(tv.iter().map(|&t| TopicId::new(t)))
                    .unwrap();
            }
            b.build()
        })
    })
}

fn arb_instance() -> impl Strategy<Value = McssInstance> {
    (arb_workload(), 1u64..=80, 60u64..=400).prop_map(|(w, tau, cap)| {
        McssInstance::new(w, Rate::new(tau), Bandwidth::new(cap)).unwrap()
    })
}

/// A random two/three-tier fleet whose smallest tier always fits the
/// largest `arb_workload` topic (rate ≤ 30 → pair cost ≤ 60).
fn arb_fleet() -> impl Strategy<Value = FleetCostModel> {
    (
        60u64..=150,         // small capacity
        1u64..=4,            // big capacity multiplier
        50_000u64..=400_000, // small hourly micro-price
        1u64..=5,            // big price multiplier
        0u64..=1,            // 1 = add a third (mid) tier
    )
        .prop_map(|(small_cap, cap_mul, small_price, price_mul, three)| {
            let three = three == 1;
            let small_price = small_price as i64;
            let mut tiers = vec![
                Ec2CostModel::paper_default(InstanceType::new("oracle-small", small_price, 64))
                    .with_capacity_events(small_cap),
                Ec2CostModel::paper_default(InstanceType::new(
                    "oracle-big",
                    small_price * price_mul as i64,
                    128,
                ))
                .with_capacity_events(small_cap * cap_mul),
            ];
            if three {
                tiers.push(
                    Ec2CostModel::paper_default(InstanceType::new(
                        "oracle-mid",
                        small_price * 2,
                        96,
                    ))
                    .with_capacity_events(small_cap * 3 / 2),
                );
            }
            FleetCostModel::new(tiers)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full anytime sandwich on oracle-sized instances:
    /// `greedy ≥ refined ≥ exact ≥ lower bound`. The refined pipeline is
    /// the greedy one plus an unbounded improvement pass, so the first
    /// inequality also certifies that refinement never regresses.
    #[test]
    fn sandwich_greedy_refined_exact_lb(inst in arb_small_instance()) {
        let cost = nocost();
        let greedy = Solver::default().solve(&inst, &cost).unwrap();
        let refined = Solver::new(SolverParams::default().with_refinement(SearchBudget::UNBOUNDED))
            .solve(&inst, &cost)
            .unwrap();
        let exact = ExactSolver::new().solve(&inst, &cost).unwrap();
        let lb = lower_bound(inst.workload(), inst.tau(), inst.capacity());

        prop_assert!(
            refined.report.total_cost <= greedy.report.total_cost,
            "refined {} above greedy {}",
            refined.report.total_cost,
            greedy.report.total_cost
        );
        prop_assert!(
            exact.cost <= refined.report.total_cost,
            "exact {} above refined {}",
            exact.cost,
            refined.report.total_cost
        );
        prop_assert!(
            lb.cost(&cost) <= exact.cost,
            "lower bound {} above exact {}",
            lb.cost(&cost),
            exact.cost
        );
        refined
            .allocation
            .validate(inst.workload(), inst.tau())
            .map_err(|e| TestCaseError::fail(format!("refined allocation invalid: {e}")))?;
    }

    /// When the certificate fires (search stopped because the Alg. 5
    /// bound was reached), the refined cost must *be* the exact optimum
    /// — a sound certificate never stops the search above it.
    #[test]
    fn certificate_never_stops_above_exact(inst in arb_small_instance()) {
        let cost = nocost();
        let refined = Solver::new(SolverParams::default().with_refinement(SearchBudget::UNBOUNDED))
            .solve(&inst, &cost)
            .unwrap();
        let report = refined.refinement.expect("refinement was requested");
        prop_assert_eq!(report.final_cost, refined.report.total_cost);
        if report.certificate_met {
            let exact = ExactSolver::new().solve(&inst, &cost).unwrap();
            prop_assert_eq!(
                refined.report.total_cost, exact.cost,
                "certificate claimed optimality but exact found cheaper"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dósa's tight FFD guarantee, `FFD ≤ 11/9·OPT + 6/9`, checked as
    /// the integer inequality `9·FFD ≤ 11·OPT + 6` against the exact
    /// oracle. Singleton interests over distinct topics make the
    /// instance a pure bin-packing problem (items of size `2·rate`),
    /// and a VM-only cost model makes the exact optimum a bin count.
    #[test]
    fn ffd_respects_dosa_bound(
        rates in vec(1u64..=30, 2..=9),
        cap_slack in 0u64..=80,
    ) {
        let mut b = Workload::builder();
        for &r in &rates {
            let t = b.add_topic(Rate::new(r)).unwrap();
            b.add_subscriber([t]).unwrap();
        }
        let w = b.build();
        let max_rate = rates.iter().copied().max().unwrap();
        let cap = Bandwidth::new(2 * max_rate + cap_slack);
        let inst = McssInstance::new(w, Rate::new(1), cap).unwrap();
        let cost = vm_only_cost();

        let exact = ExactSolver::new().solve(&inst, &cost).unwrap();
        let sel = GreedySelectPairs::new().select(&inst).unwrap();
        let ffd = FfdBinPacking::new()
            .allocate(inst.workload(), &sel, inst.capacity(), &cost)
            .unwrap();
        ffd.validate(inst.workload(), inst.tau())
            .map_err(|e| TestCaseError::fail(format!("FFD allocation invalid: {e}")))?;

        let ffd_bins = ffd.vm_count() as u64;
        let opt_bins = exact.vms;
        prop_assert!(
            9 * ffd_bins <= 11 * opt_bins + 6,
            "Dósa bound violated: FFD used {ffd_bins} bins vs OPT {opt_bins}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `improve` is a pure repacking: the delivered per-pair rates are
    /// bit-identical before and after, the result still validates, the
    /// cost never rises below the certificate, and two runs from the
    /// same start produce bit-equal allocations and reports.
    #[test]
    fn improve_preserves_delivery_and_is_deterministic(inst in arb_instance()) {
        let w = inst.workload();
        let cost = nocost();
        let sel = GreedySelectPairs::new().select(&inst).unwrap();
        let start = CustomBinPacking::new(CbpConfig::full())
            .allocate(w, &sel, inst.capacity(), &cost)
            .unwrap();
        let baseline_rates = start.delivered_rates(w);
        let certificate = lower_bound(w, inst.tau(), inst.capacity()).cost(&cost);

        let (r1, rep1) = improve(start.clone(), w, &cost, certificate, SearchBudget::UNBOUNDED);
        let (r2, rep2) = improve(start.clone(), w, &cost, certificate, SearchBudget::UNBOUNDED);
        prop_assert_eq!(&r1, &r2, "improve must be deterministic");
        // `elapsed` is wall-clock and legitimately differs between runs;
        // everything else must agree bit for bit.
        prop_assert_eq!(rep1.steps, rep2.steps);
        prop_assert_eq!(rep1.final_cost, rep2.final_cost);
        prop_assert_eq!(rep1.certificate_met, rep2.certificate_met);

        r1.validate(w, inst.tau())
            .map_err(|e| TestCaseError::fail(format!("refined allocation invalid: {e}")))?;
        prop_assert_eq!(
            r1.delivered_rates(w),
            baseline_rates,
            "improve changed what a subscriber receives"
        );
        prop_assert!(rep1.final_cost <= rep1.initial_cost, "cost rose");
        prop_assert_eq!(rep1.initial_cost, start.cost(&cost));
        prop_assert_eq!(rep1.final_cost, r1.cost(&cost));
        prop_assert!(rep1.final_cost >= certificate, "refined below the lower bound");

        // A truncated budget still yields a valid, never-worse packing.
        let (partial, prep) = improve(start.clone(), w, &cost, certificate, SearchBudget::steps(2));
        prop_assert!(prep.steps <= 2, "step budget overrun");
        prop_assert!(prep.final_cost <= prep.initial_cost);
        partial
            .validate(w, inst.tau())
            .map_err(|e| TestCaseError::fail(format!("partial refinement invalid: {e}")))?;
        prop_assert_eq!(partial.delivered_rates(w), r1.delivered_rates(w));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The mixed-fleet lower bound is a true floor: the refined
    /// heterogeneous packing never beats `lb.cost_on_fleet`, and the
    /// reported gap is therefore ≥ 1.
    #[test]
    fn mixed_lower_bound_is_a_floor(
        w in arb_workload(),
        tau in 1u64..=80,
        fleet in arb_fleet(),
    ) {
        let inst = McssInstance::new(w, Rate::new(tau), fleet.max_capacity()).unwrap();
        let outcome = Solver::new(SolverParams::default().with_refinement(SearchBudget::UNBOUNDED))
            .solve_mixed(&inst, &fleet)
            .unwrap();
        outcome
            .allocation
            .validate(inst.workload(), inst.tau())
            .map_err(|e| TestCaseError::fail(format!("refined mixed allocation invalid: {e}")))?;
        prop_assert!(
            outcome.report.lower_bound_cost <= outcome.report.total_cost,
            "mixed lower bound {} above achieved cost {}",
            outcome.report.lower_bound_cost,
            outcome.report.total_cost
        );
        prop_assert!(outcome.report.optimality_gap() >= 1.0);
        let report = outcome.refinement.expect("refinement was requested");
        prop_assert!(report.final_cost <= report.initial_cost);
    }
}
