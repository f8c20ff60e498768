//! Mixed-fleet deployment: pack one workload onto several instance types
//! at once, compare against the best single-type fleet, and keep the
//! heterogeneous fleet repaired as the workload drifts.
//!
//! Run with: `cargo run --release --example mixed_fleet`

use mcss::prelude::*;
use mcss::solver::dynamic::{DriftModel, Reprovisioner, WorkloadDelta};
use mcss::solver::incremental::IncrementalConfig;
use mcss::solver::planner::plan_mixed;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A Spotify-like workload: a loud head of popular artists and a long
    // quiet tail — exactly the shape where one VM size fits nobody.
    let workload = Arc::new(SpotifyLike::new(2_000, 7).generate());
    println!("workload:\n{}\n", workload.stats());

    // The c3 catalogue, scale-compensated so 2k synthetic subscribers
    // price like the paper's 4.9M. The fleet model ranks tiers by cost
    // density (window price per event-unit of capacity).
    let scale = (workload.num_subscribers() as u64, 4_900_000);
    let tier =
        |i: InstanceType| Ec2CostModel::paper_effective(i).with_volume_scale(scale.0, scale.1);
    let fleet = FleetCostModel::new(vec![
        tier(cloud_cost::instances::C3_LARGE),
        tier(cloud_cost::instances::C3_XLARGE),
        tier(cloud_cost::instances::C3_2XLARGE),
    ]);
    println!("catalogue: {fleet}");

    // Plan both ways: every homogeneous flavour, plus one heterogeneous
    // fleet over the whole catalogue. The mixed fleet is never dearer —
    // the packer keeps a downsized copy of each homogeneous candidate.
    let tau = Rate::new(100);
    let plan = plan_mixed(Arc::clone(&workload), tau, &fleet, Solver::default())?;
    for option in &plan.homogeneous.ranked {
        println!(
            "  {:<12} {} ({} VMs)",
            option.name, option.report.total_cost, option.report.vm_count
        );
    }
    let typing = plan.mixed.allocation.typing().expect("mixed is typed");
    println!(
        "  {:<12} {} ({} VMs: {})",
        "mixed",
        plan.mixed.report.total_cost,
        plan.mixed.report.vm_count,
        typing.mix()
    );
    if let Some(savings) = plan.savings() {
        println!("  mixing saves {savings} per 10-day window\n");
    }

    // The typed allocation validates against each VM's own tier capacity,
    // and the simulator meters every VM against that same budget.
    plan.mixed
        .allocation
        .validate(&workload, tau)
        .expect("mixed fleet satisfies every subscriber");
    let sim = Simulation::new(SimConfig::default()).run(&workload, &plan.mixed.allocation);
    println!(
        "replay: {} events, peak VM utilization {:.0}%, {} overloaded VMs\n",
        sim.published_events,
        100.0 * sim.peak_utilization().unwrap_or(0.0),
        sim.overloaded_vms()
    );

    // Drift the workload and repair the mixed fleet in place: the O(Δ)
    // churn path works per-slot, so big VMs shed to big VMs and the tail
    // keeps renting small ones.
    let drift = DriftModel {
        rate_sigma: 0.05,
        churn_prob: 0.05,
        seed: 11,
    };
    let mut re = Reprovisioner::incremental(Solver::default(), IncrementalConfig::default())
        .with_fleet(fleet.clone());
    let lb_model = fleet
        .tiers()
        .iter()
        .max_by_key(|t| t.capacity())
        .expect("fleet has tiers")
        .clone();
    let mut current = (*workload).clone();
    let mut delta = WorkloadDelta::default();
    for epoch in 0..4 {
        let inst = McssInstance::new(current.clone(), tau, fleet.max_capacity())?;
        let r = re.step(&inst, &lb_model, &delta)?;
        let mix = r
            .allocation
            .typing()
            .map(|t| t.mix())
            .unwrap_or_else(|| "untyped".into());
        println!(
            "epoch {epoch}: {} VMs ({mix}), cost {}, moved {} pairs",
            r.report.vm_count, r.report.total_cost, r.pairs_moved
        );
        (current, delta) = drift.evolve_tracked(&current, epoch);
    }
    Ok(())
}
