//! Quickstart: build a tiny pub/sub workload, solve MCSS, inspect the
//! allocation, and verify it operationally in the simulator.
//!
//! Run with: `cargo run --release --example quickstart`

use mcss::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A miniature social feed: three publishers, four followers.
    let mut b = Workload::builder();
    let band = b.add_topic(Rate::new(120))?; // events per 10-day window
    let dj = b.add_topic(Rate::new(45))?;
    let label = b.add_topic(Rate::new(20))?;
    b.add_subscriber([band, dj])?;
    b.add_subscriber([band, label])?;
    b.add_subscriber([dj, label])?;
    b.add_subscriber([band, dj, label])?;
    let workload = b.build();
    println!("workload:\n{}\n", workload.stats());

    // Price it like the paper: c3.large instances, $0.12/GB, 200 B events.
    let cost = Ec2CostModel::paper_default(cloud_cost::instances::C3_LARGE);

    // Satisfaction threshold τ = 100 events per window; capacity from the
    // instance type. (The tiny workload fits one VM easily — quickstart is
    // about the API, the benches are about scale.)
    let instance = McssInstance::new(workload, Rate::new(100), cost.capacity())?;

    // GSP + fully-optimized CBP: the paper's recommended pipeline.
    let solver = Solver::new(SolverParams {
        selector: SelectorKind::Greedy,
        allocator: AllocatorKind::custom_full(),
        ..SolverParams::default()
    });
    let outcome = solver.solve(&instance, &cost)?;
    println!("{}\n", outcome.report);

    // Every constraint of the MCSS definition, checked.
    outcome
        .allocation
        .validate(instance.workload(), instance.tau())?;
    for (i, vm) in outcome.allocation.vms().enumerate() {
        println!(
            "vm{i}: {} topics, {} pairs, {} used",
            vm.topic_count(),
            vm.pair_count(),
            vm.used()
        );
    }

    // Replay the window through the broker topology and confirm the
    // analytic bandwidth is what actually flows.
    let sim = Simulation::new(SimConfig::default());
    let report = sim.run(instance.workload(), &outcome.allocation);
    println!("\nsimulation:\n{report}");
    assert_eq!(
        report.total_bandwidth_events(),
        outcome.allocation.total_bandwidth().get(),
        "simulated traffic must equal the analytic bw_b"
    );
    assert!(report.all_satisfied(instance.workload(), instance.tau()));
    println!("\nall subscribers satisfied; simulation matches the model exactly");
    Ok(())
}
