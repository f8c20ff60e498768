//! Cross-crate exercises for the §VI extensions: incremental repair over
//! drifting generated traces, failure injection on solved deployments,
//! and the IP export on real instances.

use mcss::prelude::*;
use mcss::sim::failure::{fail_vms, fragility_profile};
use mcss::solver::dynamic::{DriftModel, WorkloadDelta};
use mcss::solver::ilp::{export_lp, IlpOptions};
use mcss::solver::incremental::{IncrementalConfig, IncrementalReallocator};
use mcss_bench::scenario::Scenario;

#[test]
fn incremental_tracks_a_drifting_spotify_trace() {
    let s = Scenario::spotify(2_000, 41);
    let cost = s.cost_model(cloud_cost::instances::C3_LARGE);
    let drift = DriftModel {
        rate_sigma: 0.15,
        churn_prob: 0.1,
        seed: 8,
    };
    let mut inc = IncrementalReallocator::new(IncrementalConfig::default());

    let mut workload = (*s.workload).clone();
    let mut delta = WorkloadDelta::default();
    let mut total_churn = 0u64;
    for epoch in 0..5 {
        let inst = McssInstance::new(workload.clone(), Rate::new(100), cost.capacity()).unwrap();
        let out = inc.step_with_delta(&inst, &cost, &delta).unwrap();
        out.allocation
            .validate(inst.workload(), inst.tau())
            .unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
        if epoch > 0 && !out.full_resolve {
            // Churn must stay a fraction of the full placement.
            assert!(
                out.pairs_placed < out.allocation.pair_count(),
                "epoch {epoch} re-placed everything"
            );
            total_churn += out.pairs_placed;
        }
        (workload, delta) = drift.evolve_tracked(&workload, epoch);
    }
    // Mild drift should not force anywhere near full re-placement.
    assert!(total_churn > 0, "drift produced no churn at all");
}

/// A long-running re-rate loop must not accumulate ledger state. Every
/// epoch re-rates every topic, so each VM's usage changes many times; the
/// ledger's footprint after 150 epochs must stay within twice what it was
/// after 10 (the fleet itself barely changes size under this drift).
#[test]
fn ledger_state_stays_bounded_over_rerate_epochs() {
    let s = Scenario::spotify(2_000, 7);
    let cost = s.cost_model(cloud_cost::instances::C3_LARGE);
    let drift = DriftModel {
        rate_sigma: 0.02,
        churn_prob: 0.05,
        seed: 8,
    };
    let mut inc = IncrementalReallocator::new(IncrementalConfig::default());
    let mut workload = (*s.workload).clone();
    let inst = McssInstance::new(workload.clone(), Rate::new(100), cost.capacity()).unwrap();
    inc.step_with_delta(&inst, &cost, &WorkloadDelta::default())
        .unwrap();
    let mut after_ten = 0;
    for epoch in 1..=150 {
        let (next, delta) = drift.evolve_tracked(&workload, epoch);
        workload = next;
        let inst = McssInstance::new(workload.clone(), Rate::new(100), cost.capacity()).unwrap();
        inc.step_with_delta(&inst, &cost, &delta)
            .unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
        if epoch == 10 {
            after_ten = inc.checkpoint().unwrap().1.heap_bytes();
        }
    }
    let (_, ledger, capacity) = inc.checkpoint().unwrap();
    ledger
        .to_allocation(capacity)
        .validate(&workload, Rate::new(100))
        .unwrap();
    let last = ledger.heap_bytes();
    assert!(
        last <= 2 * after_ten,
        "ledger grew from {after_ten} B after epoch 10 to {last} B after epoch 150"
    );
}

#[test]
fn fragile_vms_exist_and_failures_account_exactly() {
    let s = Scenario::twitter(1_500, 42);
    let cost = s.cost_model(cloud_cost::instances::C3_LARGE);
    let inst = s.instance(50, cloud_cost::instances::C3_LARGE).unwrap();
    let alloc = Solver::default().solve(&inst, &cost).unwrap().allocation;
    assert!(alloc.vm_count() >= 2, "need a fleet to kill parts of");

    let profile = fragility_profile(&inst, &alloc);
    assert_eq!(profile.len(), alloc.vm_count());
    assert!(
        profile.iter().any(|&s| s > 0),
        "no VM failure starves anyone?"
    );

    let impact = fail_vms(&inst, &alloc, &[0, 1]);
    assert_eq!(
        impact.pairs_lost + impact.degraded.pair_count(),
        alloc.pair_count(),
        "pair accounting must be exact"
    );
    assert!(!impact.starved.is_empty());
    // Repair restores satisfaction.
    let repaired = Solver::default().solve(&inst, &cost).unwrap().allocation;
    assert!(repaired.validate(inst.workload(), inst.tau()).is_ok());
}

#[test]
fn ilp_export_scales_with_instance() {
    let s = Scenario::spotify(60, 43);
    let inst = s.instance(50, cloud_cost::instances::C3_LARGE).unwrap();
    let cost = s.cost_model(cloud_cost::instances::C3_LARGE);
    let heuristic_vms = Solver::default()
        .solve(&inst, &cost)
        .unwrap()
        .report
        .vm_count
        .max(1);
    let lp = export_lp(
        &inst,
        &cost,
        IlpOptions {
            max_vms: heuristic_vms,
        },
    );
    // One capacity row per candidate VM, one satisfaction row per
    // subscriber with τ_v > 0.
    assert_eq!(lp.matches("cap_").count(), heuristic_vms);
    let sat_rows = lp.matches(" sat_").count();
    assert!(sat_rows > 0 && sat_rows <= inst.workload().num_subscribers());
    assert!(lp.ends_with("End\n"));
}
