//! Periodic re-provisioning over a drifting workload (§IV-F / §VI).
//!
//! The paper argues the solver is fast enough to re-run periodically —
//! "for example, every hour, to adapt to the changes in the event rates,
//! new subscriptions, unsubscriptions". This example simulates that mode:
//! the workload drifts each epoch (rates wander, subscribers churn) and
//! the re-provisioner re-solves, reporting VM fleet changes and cumulative
//! spend.
//!
//! Run with: `cargo run --release --example dynamic_reprovisioning`

use mcss::prelude::*;
use mcss::solver::dynamic::{DriftModel, Reprovisioner, WorkloadDelta};
use mcss::traces::SpotifyLike;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut workload = SpotifyLike::new(20_000, 7).generate();
    let cost = Ec2CostModel::paper_effective(cloud_cost::instances::C3_LARGE)
        .with_volume_scale(workload.num_subscribers() as u64, 4_900_000);

    let drift = DriftModel {
        rate_sigma: 0.25,
        churn_prob: 0.05,
        seed: 99,
    };
    let mut reprovisioner = Reprovisioner::new(Solver::default());
    let mut delta = WorkloadDelta::default();

    println!(
        "{:>5} {:>6} {:>8} {:>12} {:>14}",
        "epoch", "VMs", "ΔVMs", "epoch cost", "cumulative"
    );
    for epoch in 0..12 {
        let inst = McssInstance::new(workload.clone(), Rate::new(100), cost.capacity())?;
        let r = reprovisioner.step(&inst, &cost, &delta)?;
        println!(
            "{:>5} {:>6} {:>+8} {:>12} {:>14}",
            r.epoch,
            r.report.vm_count,
            r.vm_delta,
            r.report.total_cost.to_string(),
            r.cumulative_cost.to_string(),
        );
        (workload, delta) = drift.evolve_tracked(&workload, epoch);
    }
    println!(
        "\n{} epochs, cumulative objective {} (each epoch re-priced as a full billing window)",
        reprovisioner.epochs(),
        reprovisioner.cumulative_cost()
    );
    Ok(())
}
