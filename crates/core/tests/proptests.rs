//! Property-based tests over the full solver stack.

use cloud_cost::{CostModel, Ec2CostModel, FleetCostModel, InstanceType, LinearCostModel, Money};
use mcss_core::dynamic::{DriftModel, WorkloadDelta};
use mcss_core::exact::ExactSolver;
use mcss_core::incremental::{IncrementalConfig, IncrementalReallocator};
use mcss_core::reduction::{partition_to_dcss, subset_sum_partitionable};
use mcss_core::stage1::{
    GreedySelectPairs, OptimalSelectPairs, PairSelector, RandomSelectPairs, SharedAwareGreedy,
};
use mcss_core::stage2::{
    Allocator, BestFitBinPacking, CbpConfig, CustomBinPacking, FirstFitBinPacking,
    MixedFleetPacker, NextFitBinPacking,
};
use mcss_core::{lower_bound, McssInstance};
use proptest::collection::vec;
use proptest::prelude::*;
use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId, Workload, WorkloadEdit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Random workload: 1..=8 topics with rates 1..=30, 1..=8 subscribers
/// with non-empty interests.
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

/// Capacity large enough for the biggest topic (2·30), with headroom
/// variety.
fn arb_instance() -> impl Strategy<Value = McssInstance> {
    (arb_workload(), 1u64..=80, 60u64..=400).prop_map(|(w, tau, cap)| {
        McssInstance::new(w, Rate::new(tau), Bandwidth::new(cap)).unwrap()
    })
}

fn nocost() -> LinearCostModel {
    LinearCostModel::new(Money::from_dollars(1), Money::from_micros(5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every Stage-1 selector satisfies every subscriber.
    #[test]
    fn stage1_always_satisfies(inst in arb_instance(), seed in 0u64..100) {
        let selectors: Vec<Box<dyn PairSelector>> = vec![
            Box::new(GreedySelectPairs::new()),
            Box::new(GreedySelectPairs::with_threads(3)),
            Box::new(RandomSelectPairs::new(seed)),
            Box::new(SharedAwareGreedy::new()),
        ];
        for s in selectors {
            let sel = s.select(&inst).unwrap();
            prop_assert!(
                sel.satisfies(inst.workload(), inst.tau()),
                "{} left a subscriber short", s.name()
            );
        }
    }

    /// The DP optimum never pays more Stage-1 cost than the greedy, and
    /// both satisfy.
    #[test]
    fn optimal_stage1_lower_or_equal_greedy(inst in arb_instance()) {
        let opt = OptimalSelectPairs::new().select(&inst).unwrap();
        let gsp = GreedySelectPairs::new().select(&inst).unwrap();
        let w = inst.workload();
        prop_assert!(opt.satisfies(w, inst.tau()));
        prop_assert!(opt.stage1_cost(w) <= gsp.stage1_cost(w));
    }

    /// Stage 2 invariants for every allocator preset: capacity respected,
    /// no pair lost or duplicated, bandwidth accounting exact.
    #[test]
    fn stage2_invariants(inst in arb_instance(), seed in 0u64..50) {
        let w = inst.workload();
        let sel = RandomSelectPairs::new(seed).select(&inst).unwrap();
        let allocators: Vec<Box<dyn Allocator>> = vec![
            Box::new(FirstFitBinPacking::new()),
            Box::new(BestFitBinPacking::new()),
            Box::new(NextFitBinPacking::new()),
            Box::new(CustomBinPacking::new(CbpConfig::grouping_only())),
            Box::new(CustomBinPacking::new(CbpConfig::expensive_first())),
            Box::new(CustomBinPacking::new(CbpConfig::most_free())),
            Box::new(CustomBinPacking::new(CbpConfig::full())),
        ];
        for a in allocators {
            let alloc = a.allocate(w, &sel, inst.capacity(), &nocost()).unwrap();
            prop_assert_eq!(alloc.pair_count(), sel.pair_count(), "{} lost pairs", a.name());
            alloc.validate(w, inst.tau()).map_err(|e| {
                TestCaseError::fail(format!("{} invalid: {e}", a.name()))
            })?;
        }
    }

    /// The Alg. 5 lower bound holds for every pipeline combination.
    #[test]
    fn lower_bound_holds(inst in arb_instance(), seed in 0u64..50) {
        let w = inst.workload();
        let lb = lower_bound(w, inst.tau(), inst.capacity());
        let cost = nocost();
        let selections = [
            GreedySelectPairs::new().select(&inst).unwrap(),
            RandomSelectPairs::new(seed).select(&inst).unwrap(),
        ];
        for sel in &selections {
            for alloc in [
                &CustomBinPacking::new(CbpConfig::full()) as &dyn Allocator,
                &FirstFitBinPacking::new() as &dyn Allocator,
            ] {
                let a = alloc.allocate(w, sel, inst.capacity(), &cost).unwrap();
                prop_assert!(a.total_bandwidth() >= lb.volume);
                prop_assert!(a.vm_count() as u64 >= lb.vms);
                prop_assert!(a.cost(&cost) >= lb.cost(&cost));
            }
        }
    }

    /// The `TopicGroups` CSR inversion agrees exactly with a reference
    /// `HashMap<TopicId, Vec<SubscriberId>>` grouping on random
    /// selections: same topics (ascending), same subscribers per topic in
    /// selection order.
    #[test]
    fn topic_groups_match_hashmap_grouping(inst in arb_instance(), seed in 0u64..100) {
        use std::collections::HashMap;
        let w = inst.workload();
        let sel = RandomSelectPairs::new(seed).select(&inst).unwrap();
        let groups = sel.topic_groups(w);

        let mut reference: HashMap<TopicId, Vec<pubsub_model::SubscriberId>> = HashMap::new();
        for p in sel.iter_pairs() {
            reference.entry(p.topic).or_default().push(p.subscriber);
        }
        prop_assert_eq!(groups.len(), reference.len());
        let mut total = 0u64;
        for (t, vs) in groups.iter() {
            let expected = reference.get(&t).expect("topic present in reference");
            prop_assert_eq!(vs, expected.as_slice(), "group of {} differs", t);
            total += vs.len() as u64;
        }
        prop_assert_eq!(total, sel.pair_count());
        // Topics come out ascending.
        for g in 1..groups.len() {
            prop_assert!(groups.topic(g - 1) < groups.topic(g));
        }
    }

    /// The rate-ranked interest arena stays sorted by (descending rate,
    /// ascending id) and consistent with `rate()` across random
    /// `DriftModel::evolve_tracked` sequences (the incremental
    /// maintenance path), and always matches a from-scratch rebuild.
    #[test]
    fn ranked_arena_consistent_across_drift(
        inst in arb_instance(),
        sigma_pct in 0u64..60,
        churn_pct in 0u64..90,
        seed in 0u64..1000,
        epochs in 1u64..6,
    ) {
        let drift = DriftModel {
            rate_sigma: sigma_pct as f64 / 100.0,
            churn_prob: churn_pct as f64 / 100.0,
            seed,
        };
        let mut w = inst.workload().clone();
        for epoch in 0..epochs {
            (w, _) = drift.evolve_tracked(&w, epoch);
            for v in w.subscribers() {
                let ranked = w.ranked_interests(v);
                for pair in ranked.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    prop_assert!(
                        w.rate(a) > w.rate(b) || (w.rate(a) == w.rate(b) && a < b),
                        "epoch {}: ranked row of {} out of order", epoch, v
                    );
                }
                let mut sorted: Vec<TopicId> = ranked.to_vec();
                sorted.sort_unstable();
                prop_assert_eq!(sorted.as_slice(), w.interests(v), "epoch {}", epoch);
            }
            let rebuilt = Workload::from_parts(
                w.rates().to_vec(),
                w.subscribers().map(|v| w.interests(v).to_vec()).collect(),
            );
            for v in w.subscribers() {
                prop_assert_eq!(
                    w.ranked_interests(v),
                    rebuilt.ranked_interests(v),
                    "epoch {}: incremental arena diverged from rebuild", epoch
                );
            }
        }
    }

    /// `DriftModel::evolve_tracked` builds exactly what the nested-row
    /// reference `nested_evolve_tracked` builds: the same workload (all
    /// six arenas) and the same delta, epoch after epoch, for any σ,
    /// churn and seed — so every generated drift stream, and everything
    /// solved from one, is the same whichever construction made it.
    #[test]
    fn evolve_tracked_matches_the_nested_rebuild(
        (rates, interests) in (1usize..=20, 0usize..=60).prop_flat_map(|(nt, nv)| {
            (vec(1u64..=50, nt), vec(vec(0..nt as u32, 0..=8), nv))
        }),
        sigma_pct in 0u64..150,
        churn_pct in 0u64..=100,
        seed in 0u64..1000,
        epochs in 1u64..5,
    ) {
        let drift = DriftModel {
            rate_sigma: sigma_pct as f64 / 100.0,
            churn_prob: churn_pct as f64 / 100.0,
            seed,
        };
        let mut w = Workload::from_parts(
            rates.into_iter().map(Rate::new).collect(),
            interests
                .iter()
                .map(|row| row.iter().map(|&t| TopicId::new(t)).collect())
                .collect(),
        );
        for epoch in 0..epochs {
            let (expected, expected_delta) = nested_evolve_tracked(&drift, &w, epoch);
            let (next, delta) = drift.evolve_tracked(&w, epoch);
            prop_assert_eq!(&next, &expected, "epoch {}", epoch);
            prop_assert_eq!(&delta.changed_topics, &expected_delta.changed_topics);
            prop_assert_eq!(&delta.changed_subscribers, &expected_delta.changed_subscribers);
            w = next;
        }
    }

    /// The incremental re-allocator maintains every MCSS invariant across
    /// an arbitrary sequence of workload snapshots (treating each fresh
    /// instance as the "next epoch" of the previous one).
    #[test]
    fn incremental_repair_stays_valid(
        instances in proptest::collection::vec(arb_instance(), 2..5)
    ) {
        // Re-use the first instance's capacity so epochs are comparable.
        let capacity = instances[0].capacity();
        let mut inc = IncrementalReallocator::default();
        let mut last = instances[0].workload();
        for inst in &instances {
            let delta = WorkloadDelta::between(last, inst.workload());
            last = inst.workload();
            let inst = inst.with_capacity(capacity).unwrap();
            let out = inc.step_with_delta(&inst, &nocost(), &delta).unwrap();
            out.allocation.validate(inst.workload(), inst.tau()).map_err(|e| {
                TestCaseError::fail(format!("incremental epoch invalid: {e}"))
            })?;
        }
    }

    /// Dirty-subscriber re-selection is bit-identical to a full GSP
    /// re-selection across random drift sequences — for the delta
    /// `WorkloadDelta::between` finds by comparing the workloads and for
    /// the drift-provided one — and the repaired fleet stays valid either
    /// way.
    #[test]
    fn dirty_reselection_bit_identical_across_drift(
        inst in arb_instance(),
        sigma_pct in 0u64..50,
        churn_pct in 0u64..80,
        seed in 0u64..1000,
        epochs in 2u64..6,
    ) {
        let drift = DriftModel {
            rate_sigma: sigma_pct as f64 / 100.0,
            churn_prob: churn_pct as f64 / 100.0,
            seed,
        };
        let mut compared = IncrementalReallocator::default();
        let mut delta_fed = IncrementalReallocator::default();
        let mut w = inst.workload().clone();
        let mut last = w.clone();
        let mut delta = WorkloadDelta::default();
        // Headroom so drifted rates stay feasible for the capacity.
        let capacity = Bandwidth::new(inst.capacity().get().saturating_mul(8));
        for epoch in 0..epochs {
            let step = McssInstance::new(w.clone(), inst.tau(), capacity).unwrap();
            let fresh = GreedySelectPairs::new().select(&step).unwrap();
            let between = WorkloadDelta::between(&last, &w);
            let a = compared.step_with_delta(&step, &nocost(), &between).unwrap();
            let b = delta_fed.step_with_delta(&step, &nocost(), &delta).unwrap();
            prop_assert_eq!(&a.selection, &fresh, "between-fed diverged at epoch {}", epoch);
            prop_assert_eq!(&b.selection, &fresh, "delta-fed diverged at epoch {}", epoch);
            for out in [&a, &b] {
                out.allocation.validate(step.workload(), step.tau()).map_err(|e| {
                    TestCaseError::fail(format!("epoch {epoch} invalid: {e}"))
                })?;
            }
            last = w.clone();
            (w, delta) = drift.evolve_tracked(&w, epoch);
        }
    }

    /// Ranged epoch repair is bit-identical to the one-thread dirty loop
    /// across random drift sequences × thread counts (1, 2, 3, 7),
    /// ending in a mass-unsubscribe epoch that dirties every subscriber
    /// at once; the repaired fleet stays valid throughout.
    #[test]
    fn parallel_repair_bit_identical_across_drift(
        inst in arb_instance(),
        sigma_pct in 0u64..50,
        churn_pct in 0u64..80,
        seed in 0u64..1000,
        epochs in 2u64..5,
        threads_idx in 0usize..4,
    ) {
        let threads = [1usize, 2, 3, 7][threads_idx];
        let drift = DriftModel {
            rate_sigma: sigma_pct as f64 / 100.0,
            churn_prob: churn_pct as f64 / 100.0,
            seed,
        };
        let mut seq = IncrementalReallocator::default();
        let mut par =
            IncrementalReallocator::new(IncrementalConfig::default().with_repair_threads(threads));
        let mut w = inst.workload().clone();
        let mut last = w.clone();
        let mut delta = WorkloadDelta::default();
        // Headroom so drifted rates stay feasible for the capacity.
        let capacity = Bandwidth::new(inst.capacity().get().saturating_mul(8));
        for epoch in 0..=epochs {
            if epoch == epochs {
                // Mass unsubscribe: every interest list empties at once.
                w = Workload::from_parts(
                    w.rates().to_vec(),
                    vec![Vec::new(); w.num_subscribers()],
                );
                delta = WorkloadDelta::between(&last, &w);
            }
            last = w.clone();
            let step = McssInstance::new(w.clone(), inst.tau(), capacity).unwrap();
            let s = seq.step_with_delta(&step, &nocost(), &delta).unwrap();
            let p = par.step_with_delta(&step, &nocost(), &delta).unwrap();
            prop_assert_eq!(
                &p.selection, &s.selection,
                "epoch {} diverged ({} threads)", epoch, threads
            );
            prop_assert_eq!(p.pairs_reused, s.pairs_reused, "epoch {}", epoch);
            p.allocation.validate(step.workload(), step.tau()).map_err(|e| {
                TestCaseError::fail(format!("epoch {epoch} invalid: {e}"))
            })?;
            if epoch < epochs {
                (w, delta) = drift.evolve_tracked(&w, epoch);
            }
        }
    }

    /// Epochs that re-select at most half the rows splice them into the
    /// remembered selection in place. Over stable-rate drift with sparse
    /// churn through one long-lived edit, plus a halved topic rate and an
    /// appended subscriber each epoch, every epoch's selection equals a
    /// fresh GSP selection at every thread count, and the fleet stays
    /// valid.
    #[test]
    fn sparse_epochs_match_fresh_selection(
        inst in arb_instance(),
        churn_pct in 0u64..30,
        seed in 0u64..1000,
        epochs in 2u64..7,
        threads_idx in 0usize..4,
    ) {
        let threads = [1usize, 2, 3, 7][threads_idx];
        let drift = DriftModel {
            rate_sigma: 0.0,
            churn_prob: churn_pct as f64 / 100.0,
            seed,
        };
        let mut inc =
            IncrementalReallocator::new(IncrementalConfig::default().with_repair_threads(threads));
        let mut edit = WorkloadEdit::from_workload(inst.workload().clone());
        let mut delta = WorkloadDelta::default();
        for epoch in 0..epochs {
            let step = McssInstance::new(Arc::clone(edit.base()), inst.tau(), inst.capacity())
                .unwrap();
            let fresh = GreedySelectPairs::new().select(&step).unwrap();
            let out = inc.step_with_delta(&step, &nocost(), &delta).unwrap();
            prop_assert_eq!(&out.selection, &fresh, "epoch {} diverged ({} threads)", epoch, threads);
            out.allocation.validate(step.workload(), step.tau()).map_err(|e| {
                TestCaseError::fail(format!("epoch {epoch} invalid: {e}"))
            })?;
            drop(step);

            drift.evolve_edit(&mut edit, epoch);
            let t = TopicId::new((epoch % edit.num_topics() as u64) as u32);
            let halved = Rate::new((edit.base().rate(t).get() / 2).max(1));
            edit.rerate(t, halved).unwrap();
            let newcomer = SubscriberId::new(edit.num_subscribers() as u32);
            edit.subscribe(newcomer, t).unwrap();
            let (_, changed_topics, changed_subscribers) = edit.commit_shared();
            delta = WorkloadDelta { changed_topics, changed_subscribers };
        }
    }

    /// Determinism: identical inputs give identical outputs for the whole
    /// pipeline (greedy path).
    #[test]
    fn pipeline_is_deterministic(inst in arb_instance()) {
        let run = || {
            let sel = GreedySelectPairs::new().select(&inst).unwrap();
            let alloc = CustomBinPacking::new(CbpConfig::full())
                .allocate(inst.workload(), &sel, inst.capacity(), &nocost())
                .unwrap();
            (sel, alloc)
        };
        let (s1, a1) = run();
        let (s2, a2) = run();
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(a1, a2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tiny instances: lower bound ≤ exact optimum ≤ heuristic.
    #[test]
    fn exact_sandwich(
        rates in vec(1u64..=12, 1..=3),
        tau in 1u64..=20,
        cap_slack in 0u64..=60,
    ) {
        let mut b = Workload::builder();
        let ts: Vec<TopicId> =
            rates.iter().map(|&r| b.add_topic(Rate::new(r)).unwrap()).collect();
        // Two subscribers over all topics keeps pair counts ≤ 6.
        b.add_subscriber(ts.iter().copied()).unwrap();
        b.add_subscriber(ts.iter().copied().take(2)).unwrap();
        let w = b.build();
        let max_rate = rates.iter().copied().max().unwrap();
        let cap = Bandwidth::new(2 * max_rate + cap_slack);
        let inst = McssInstance::new(w, Rate::new(tau), cap).unwrap();
        let cost = nocost();

        let exact = ExactSolver::new().solve(&inst, &cost).unwrap();
        let lb = lower_bound(inst.workload(), inst.tau(), inst.capacity());
        prop_assert!(lb.cost(&cost) <= exact.cost, "LB above exact");

        let sel = GreedySelectPairs::new().select(&inst).unwrap();
        let heur = CustomBinPacking::new(CbpConfig::full())
            .allocate(inst.workload(), &sel, inst.capacity(), &cost)
            .unwrap();
        prop_assert!(exact.cost <= heur.cost(&cost), "exact above heuristic");
    }

    /// Theorem II.2: the reduced DCSS instance answers exactly the
    /// Partition question.
    #[test]
    fn reduction_equivalence(xs in vec(1u64..=9, 1..=5)) {
        let reduced = partition_to_dcss(&xs).unwrap();
        let dcss = ExactSolver::new()
            .decide_dcss(&reduced.instance, &reduced.cost, reduced.budget)
            .unwrap();
        prop_assert_eq!(dcss, subset_sum_partitionable(&xs), "multiset {:?}", xs);
    }
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
                Ec2CostModel::paper_default(InstanceType::new("prop-small", small_price, 64))
                    .with_capacity_events(small_cap),
                Ec2CostModel::paper_default(InstanceType::new(
                    "prop-big",
                    small_price * price_mul as i64,
                    128,
                ))
                .with_capacity_events(small_cap * cap_mul),
            ];
            if three {
                tiers.push(
                    Ec2CostModel::paper_default(InstanceType::new("prop-mid", small_price * 2, 96))
                        .with_capacity_events(small_cap * 3 / 2),
                );
            }
            FleetCostModel::new(tiers)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The mixed-fleet invariants of ISSUE 4: on random workloads the
    /// heterogeneous packing (a) never costs more than the best
    /// single-type fleet over the same selection, (b) keeps every VM
    /// within its *own* tier's capacity, and (c) places every selected
    /// pair (same satisfaction as any homogeneous packing).
    #[test]
    fn mixed_fleet_never_beaten_by_homogeneous_and_respects_tier_caps(
        w in arb_workload(),
        tau in 1u64..=80,
        fleet in arb_fleet(),
    ) {
        let inst = McssInstance::new(w, Rate::new(tau), fleet.max_capacity()).unwrap();
        let sel = GreedySelectPairs::new().select(&inst).unwrap();
        let mixed = MixedFleetPacker::new()
            .allocate(inst.workload(), &sel, &fleet)
            .unwrap();

        // (b) + (c): validation enforces per-tier capacities, no foreign
        // or duplicated pairs, and τ_v satisfaction; pair_count equality
        // rules out silently dropped placements.
        prop_assert!(mixed.typing().is_some(), "mixed output must be typed");
        mixed
            .validate(inst.workload(), inst.tau())
            .map_err(|e| TestCaseError::fail(format!("invalid mixed fleet: {e}")))?;
        prop_assert_eq!(mixed.pair_count(), sel.pair_count(), "pairs lost");
        for (vm, &tier) in mixed.vms().zip(
            mixed.typing().unwrap().assignment(),
        ) {
            let (_, cap) = mixed.typing().unwrap().tiers()[tier as usize];
            prop_assert!(vm.used() <= cap, "VM over its own tier capacity");
        }

        // (a): cheaper-or-equal versus every feasible homogeneous tier,
        // each priced under its own Ec2 model.
        let mixed_cost = mixed.cost_on_fleet(&fleet);
        for t in 0..fleet.tier_count() {
            let cap = fleet.capacity(t);
            if inst.workload().rates().iter().any(|r| r.pair_cost() > cap) {
                continue; // this tier alone cannot host the workload
            }
            let homog = CustomBinPacking::new(CbpConfig::full())
                .allocate(inst.workload(), &sel, cap, fleet.tier(t))
                .unwrap();
            let homog_cost =
                fleet.tier(t).total_cost(homog.vm_count(), homog.total_bandwidth());
            prop_assert!(
                mixed_cost <= homog_cost,
                "mixed {} dearer than tier {} at {}",
                mixed_cost, t, homog_cost
            );
        }
    }

    /// Mixed repair over drift epochs: selections stay bit-identical to
    /// the homogeneous churn path and tier capacities hold every epoch.
    #[test]
    fn mixed_fleet_repair_stays_valid_under_drift(
        w in arb_workload(),
        tau in 1u64..=60,
        seed in 0u64..100,
    ) {
        let fleet = FleetCostModel::new(vec![
            Ec2CostModel::paper_default(InstanceType::new("drift-small", 150_000, 64))
                .with_capacity_events(80),
            Ec2CostModel::paper_default(InstanceType::new("drift-big", 290_000, 128))
                .with_capacity_events(160),
        ]);
        let drift = DriftModel { rate_sigma: 0.0, churn_prob: 0.5, seed };
        let mut mixed = IncrementalReallocator::default().with_fleet(fleet.clone());
        let mut homog = IncrementalReallocator::default();
        let mut w = w;
        let mut delta = WorkloadDelta::default();
        for epoch in 0..4 {
            let mixed_inst =
                McssInstance::new(w.clone(), Rate::new(tau), fleet.max_capacity()).unwrap();
            let homog_inst =
                McssInstance::new(w.clone(), Rate::new(tau), fleet.capacity(0)).unwrap();
            let m = mixed.step_with_delta(&mixed_inst, &nocost(), &delta).unwrap();
            let h = homog.step_with_delta(&homog_inst, &nocost(), &delta).unwrap();
            prop_assert_eq!(&m.selection, &h.selection, "selections diverged");
            m.allocation
                .validate(mixed_inst.workload(), mixed_inst.tau())
                .map_err(|e| TestCaseError::fail(format!("epoch {epoch}: {e}")))?;
            (w, delta) = drift.evolve_tracked(&w, epoch);
        }
    }
}

/// `DriftModel::evolve_tracked` built the direct way: the same RNG loop
/// into a nested `Vec<Vec>` copy of every row, then
/// `Workload::from_parts`. The reference the evolve property checks the
/// `WorkloadEdit`-based construction against.
fn nested_evolve_tracked(
    drift: &DriftModel,
    workload: &Workload,
    epoch: u64,
) -> (Workload, WorkloadDelta) {
    let mut rng = StdRng::seed_from_u64(drift.seed.wrapping_add(epoch));
    let mut delta = WorkloadDelta::default();
    let rates: Vec<Rate> = workload
        .rates()
        .iter()
        .enumerate()
        .map(|(ti, r)| {
            let noise = (drift.rate_sigma * standard_normal(&mut rng)).exp();
            let evolved = Rate::new(((r.get() as f64) * noise).round().max(1.0) as u64);
            if evolved != *r {
                delta.changed_topics.push(TopicId::new(ti as u32));
            }
            evolved
        })
        .collect();
    let num_topics = workload.num_topics();
    let interests: Vec<Vec<TopicId>> = workload
        .subscribers()
        .map(|v| {
            let mut tv = workload.interests(v).to_vec();
            if !tv.is_empty() && num_topics > 1 && rng.gen::<f64>() < drift.churn_prob {
                let drop = rng.gen_range(0..tv.len());
                tv.swap_remove(drop);
                let add = TopicId::new(rng.gen_range(0..num_topics as u32));
                if !tv.contains(&add) {
                    tv.push(add);
                }
                delta.changed_subscribers.push(v);
            }
            tv
        })
        .collect();
    (Workload::from_parts(rates, interests), delta)
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}
