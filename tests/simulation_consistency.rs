//! The analytic model (paper Eq. 2) versus the discrete-event simulator:
//! under a deterministic publication schedule the two must agree exactly,
//! per VM and in total, on generated traces.

use mcss::prelude::*;
use mcss::sim::ScheduleKind;
use mcss_bench::scenario::Scenario;

fn check_exact(inst: &McssInstance, cost: &Ec2CostModel) {
    let outcome = Solver::default().solve(inst, cost).unwrap();
    outcome
        .allocation
        .validate(inst.workload(), inst.tau())
        .unwrap();
    let report = Simulation::new(SimConfig::default()).run(inst.workload(), &outcome.allocation);
    assert_eq!(
        report.total_bandwidth_events(),
        outcome.allocation.total_bandwidth().get(),
        "total simulated traffic diverged from the analytic model"
    );
    for (i, (meter, vm)) in report.vms.iter().zip(outcome.allocation.vms()).enumerate() {
        assert_eq!(
            meter.total_events(),
            vm.used().get(),
            "vm{i} traffic diverged"
        );
        assert_eq!(
            meter.ingress_events,
            vm.incoming_volume(inst.workload()).get(),
            "vm{i} ingress diverged"
        );
        assert_eq!(
            meter.egress_events,
            vm.outgoing_volume(inst.workload()).get(),
            "vm{i} egress diverged"
        );
    }
    assert!(report.all_satisfied(inst.workload(), inst.tau()));
}

#[test]
fn spotify_trace_simulates_exactly() {
    let s = Scenario::spotify(1_500, 31);
    let inst = s.instance(50, cloud_cost::instances::C3_LARGE).unwrap();
    check_exact(&inst, &s.cost_model(cloud_cost::instances::C3_LARGE));
}

#[test]
fn twitter_trace_simulates_exactly() {
    let s = Scenario::twitter(1_200, 32);
    let inst = s.instance(30, cloud_cost::instances::C3_LARGE).unwrap();
    check_exact(&inst, &s.cost_model(cloud_cost::instances::C3_LARGE));
}

#[test]
fn poisson_schedule_stays_satisfied_with_headroom() {
    // With τ far below the selected rates, Poisson count noise cannot
    // starve anyone.
    let s = Scenario::spotify(800, 33);
    let inst = s.instance(5, cloud_cost::instances::C3_LARGE).unwrap();
    let cost = s.cost_model(cloud_cost::instances::C3_LARGE);
    let outcome = Solver::default().solve(&inst, &cost).unwrap();
    let report = Simulation::new(SimConfig {
        schedule: ScheduleKind::Poisson { seed: 77 },
        ..SimConfig::default()
    })
    .run(inst.workload(), &outcome.allocation);
    // Published counts are random but close to the model in aggregate.
    let expected = outcome.selection.outgoing_volume(inst.workload()).get();
    let measured: u64 = report.vms.iter().map(|m| m.egress_events).sum();
    let ratio = measured as f64 / expected as f64;
    assert!((0.8..1.2).contains(&ratio), "egress ratio {ratio}");
}

#[test]
fn naive_and_paper_pipelines_both_satisfy_operationally() {
    let s = Scenario::twitter(800, 34);
    let inst = s.instance(20, cloud_cost::instances::C3_LARGE).unwrap();
    let cost = s.cost_model(cloud_cost::instances::C3_LARGE);
    for params in [
        SolverParams {
            selector: SelectorKind::Random { seed: 3 },
            allocator: AllocatorKind::FirstFit,
            ..SolverParams::default()
        },
        SolverParams::default(),
    ] {
        let outcome = Solver::new(params).solve(&inst, &cost).unwrap();
        let report =
            Simulation::new(SimConfig::default()).run(inst.workload(), &outcome.allocation);
        assert_eq!(
            report.unsatisfied_count(inst.workload(), inst.tau()),
            0,
            "{params:?}"
        );
    }
}
