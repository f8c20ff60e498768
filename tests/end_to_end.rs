//! End-to-end pipeline tests over generated traces: every selector ×
//! allocator combination must produce valid, bound-respecting allocations,
//! and the paper's quality ordering must hold.

use mcss::prelude::*;
use mcss::solver::stage2::CbpConfig;
use mcss_bench::scenario::Scenario;

fn spotify_instance(tau: u64) -> (McssInstance, Ec2CostModel) {
    let s = Scenario::spotify(4_000, 11);
    let inst = s.instance(tau, cloud_cost::instances::C3_LARGE).unwrap();
    (inst, s.cost_model(cloud_cost::instances::C3_LARGE))
}

fn twitter_instance(tau: u64) -> (McssInstance, Ec2CostModel) {
    let s = Scenario::twitter(3_000, 22);
    let inst = s.instance(tau, cloud_cost::instances::C3_LARGE).unwrap();
    (inst, s.cost_model(cloud_cost::instances::C3_LARGE))
}

fn all_pipelines() -> Vec<SolverParams> {
    vec![
        SolverParams {
            selector: SelectorKind::Random { seed: 5 },
            allocator: AllocatorKind::FirstFit,
            ..SolverParams::default()
        },
        SolverParams {
            selector: SelectorKind::Greedy,
            allocator: AllocatorKind::FirstFit,
            ..SolverParams::default()
        },
        SolverParams {
            selector: SelectorKind::Greedy,
            allocator: AllocatorKind::Custom(CbpConfig::grouping_only()),
            ..SolverParams::default()
        },
        SolverParams {
            selector: SelectorKind::Greedy,
            allocator: AllocatorKind::Custom(CbpConfig::expensive_first()),
            ..SolverParams::default()
        },
        SolverParams {
            selector: SelectorKind::Greedy,
            allocator: AllocatorKind::Custom(CbpConfig::most_free()),
            ..SolverParams::default()
        },
        SolverParams {
            selector: SelectorKind::Greedy,
            allocator: AllocatorKind::custom_full(),
            ..SolverParams::default()
        },
        SolverParams {
            selector: SelectorKind::SharedAware,
            allocator: AllocatorKind::custom_full(),
            ..SolverParams::default()
        },
        SolverParams {
            selector: SelectorKind::GreedyParallel { threads: 4 },
            allocator: AllocatorKind::custom_full(),
            ..SolverParams::default()
        },
    ]
}

#[test]
fn every_pipeline_is_valid_and_bounded_on_spotify() {
    for tau in [10u64, 100] {
        let (inst, cost) = spotify_instance(tau);
        for params in all_pipelines() {
            let outcome = Solver::new(params).solve(&inst, &cost).unwrap();
            outcome
                .allocation
                .validate(inst.workload(), inst.tau())
                .unwrap_or_else(|e| panic!("{params:?} invalid at τ={tau}: {e}"));
            assert!(
                outcome.report.total_cost >= outcome.report.lower_bound_cost,
                "{params:?} beat the lower bound at τ={tau}"
            );
        }
    }
}

#[test]
fn every_pipeline_is_valid_and_bounded_on_twitter() {
    let (inst, cost) = twitter_instance(50);
    for params in all_pipelines() {
        let outcome = Solver::new(params).solve(&inst, &cost).unwrap();
        outcome
            .allocation
            .validate(inst.workload(), inst.tau())
            .unwrap_or_else(|e| panic!("{params:?} invalid: {e}"));
        assert!(outcome.report.total_cost >= outcome.report.lower_bound_cost);
    }
}

/// The §IV headline: the paper's pipeline saves substantially versus the
/// naive baseline on a Twitter-shaped workload at low τ.
#[test]
fn paper_pipeline_beats_naive_baseline_on_twitter() {
    let (inst, cost) = twitter_instance(10);
    let paper = Solver::default().solve(&inst, &cost).unwrap();
    let naive_avg_micros: f64 = (0..5)
        .map(|seed| {
            Solver::new(SolverParams {
                selector: SelectorKind::Random { seed },
                allocator: AllocatorKind::FirstFit,
                ..SolverParams::default()
            })
            .solve(&inst, &cost)
            .unwrap()
            .report
            .total_cost
            .micros() as f64
        })
        .sum::<f64>()
        / 5.0;
    let paper_micros = paper.report.total_cost.micros() as f64;
    let savings = 1.0 - paper_micros / naive_avg_micros;
    assert!(
        savings > 0.15,
        "expected substantial savings at τ=10, got {:.1}% (paper: up to 71%)",
        savings * 100.0
    );
}

/// Savings shrink as τ grows (§IV-C: "higher values of τ leave little
/// room for optimization").
#[test]
fn savings_shrink_with_tau_on_spotify() {
    let mut savings = Vec::new();
    for tau in [10u64, 1000] {
        let (inst, cost) = spotify_instance(tau);
        let paper = Solver::default().solve(&inst, &cost).unwrap();
        let naive = Solver::new(SolverParams {
            selector: SelectorKind::Random { seed: 1 },
            allocator: AllocatorKind::FirstFit,
            ..SolverParams::default()
        })
        .solve(&inst, &cost)
        .unwrap();
        savings.push(
            1.0 - paper.report.total_cost.micros() as f64 / naive.report.total_cost.micros() as f64,
        );
    }
    assert!(
        savings[0] > savings[1] - 0.02,
        "low-τ savings {:.3} should not be below high-τ savings {:.3}",
        savings[0],
        savings[1]
    );
}

/// GSP must never select more Stage-1 volume than RSP needs — the whole
/// point of the benefit-cost heuristic.
#[test]
fn gsp_selects_less_volume_than_rsp() {
    let (inst, cost) = twitter_instance(100);
    let gsp = Solver::new(SolverParams {
        selector: SelectorKind::Greedy,
        allocator: AllocatorKind::FirstFit,
        ..SolverParams::default()
    })
    .solve(&inst, &cost)
    .unwrap();
    let rsp = Solver::new(SolverParams {
        selector: SelectorKind::Random { seed: 2 },
        allocator: AllocatorKind::FirstFit,
        ..SolverParams::default()
    })
    .solve(&inst, &cost)
    .unwrap();
    assert!(
        gsp.selection.outgoing_volume(inst.workload())
            <= rsp.selection.outgoing_volume(inst.workload()),
        "greedy selected more volume than random"
    );
}

/// Doubling per-VM capacity (c3.large → c3.xlarge) must not increase the
/// VM count and roughly halves it (Figs. 2a vs 2b).
#[test]
fn larger_instances_need_fewer_vms() {
    let s = Scenario::spotify(4_000, 13);
    let large = s.cost_model(cloud_cost::instances::C3_LARGE);
    let xlarge = s.cost_model(cloud_cost::instances::C3_XLARGE);
    let inst_l = s.instance(100, cloud_cost::instances::C3_LARGE).unwrap();
    let inst_x = s.instance(100, cloud_cost::instances::C3_XLARGE).unwrap();
    let vms_l = Solver::default()
        .solve(&inst_l, &large)
        .unwrap()
        .report
        .vm_count;
    let vms_x = Solver::default()
        .solve(&inst_x, &xlarge)
        .unwrap()
        .report
        .vm_count;
    assert!(
        vms_x <= vms_l,
        "xlarge used more VMs ({vms_x}) than large ({vms_l})"
    );
    assert!(
        vms_x as f64 >= vms_l as f64 / 3.0,
        "implausible drop: {vms_l} -> {vms_x}"
    );
    assert!(
        vms_l > 1,
        "capacity should bind at this scale (got {vms_l} VM)"
    );
}
