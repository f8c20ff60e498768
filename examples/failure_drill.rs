//! Operational drill: broker failures and incremental repair.
//!
//! Sizes a deployment with the MCSS solver, profiles how fragile the
//! resulting fleet is (how many subscribers each VM's failure would
//! starve), kills the most loaded brokers, measures the blast radius, and
//! repairs with the incremental re-allocator — the §VI "dynamic
//! on-demand provisioning" story made concrete.
//!
//! Run with: `cargo run --release --example failure_drill`

use mcss::prelude::*;
use mcss::sim::failure::{fail_vms, fragility_profile};
use mcss::solver::dynamic::WorkloadDelta;
use mcss::solver::incremental::{IncrementalConfig, IncrementalReallocator};
use mcss::traces::SpotifyLike;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = SpotifyLike::new(20_000, 99).generate();
    let cost = Ec2CostModel::paper_effective(cloud_cost::instances::C3_LARGE)
        .with_volume_scale(workload.num_subscribers() as u64, 4_900_000);
    let instance = McssInstance::new(workload, Rate::new(100), cost.capacity())?;

    let mut reallocator = IncrementalReallocator::new(IncrementalConfig {
        compaction_threshold: 0.4,
        ..IncrementalConfig::default()
    });
    let deployed = reallocator.step_with_delta(&instance, &cost, &WorkloadDelta::default())?;
    println!(
        "deployed {} VMs for {} pairs ({} total)",
        deployed.allocation.vm_count(),
        deployed.allocation.pair_count(),
        deployed.allocation.cost(&cost)
    );

    // Fragility: subscribers starved per single-VM failure.
    let profile = fragility_profile(&instance, &deployed.allocation);
    let worst = profile
        .iter()
        .enumerate()
        .max_by_key(|&(_, s)| *s)
        .map(|(i, &s)| (i, s));
    let (worst_vm, starved) = worst.expect("non-empty fleet");
    println!(
        "fragility: worst single failure is vm{worst_vm} -> {starved} starved \
         (mean {:.1} per VM)",
        profile.iter().sum::<usize>() as f64 / profile.len() as f64
    );

    // Kill the three most fragile brokers at once.
    let mut ranked: Vec<usize> = (0..profile.len()).collect();
    ranked.sort_by_key(|&i| std::cmp::Reverse(profile[i]));
    let killed: Vec<usize> = ranked.into_iter().take(3).collect();
    let impact = fail_vms(&instance, &deployed.allocation, &killed);
    println!(
        "killed VMs {killed:?}: {} pairs lost, {} subscribers starved",
        impact.pairs_lost,
        impact.starved.len()
    );

    // Repair: adopt the degraded fleet, then let the incremental
    // re-allocator re-place exactly the lost pairs onto survivors (and
    // fresh VMs where needed). The workload did not change.
    reallocator.adopt(&deployed.selection, &impact.degraded);
    let repaired = reallocator.step_with_delta(&instance, &cost, &WorkloadDelta::default())?;
    repaired
        .allocation
        .validate(instance.workload(), instance.tau())?;
    println!(
        "repaired: {} VMs, {} pairs re-placed, full re-solve: {} ({})",
        repaired.allocation.vm_count(),
        repaired.pairs_placed,
        repaired.full_resolve,
        repaired.allocation.cost(&cost)
    );
    println!("all subscribers satisfied again");
    Ok(())
}
