//! Capacity planning for a Spotify-like feed: which instance type and
//! threshold is cheapest for the workload?
//!
//! Mirrors the paper's §IV framing: generate a Spotify-shaped trace, sweep
//! τ ∈ {10, 100, 1000} over c3.large and c3.xlarge, and print the cost
//! table a deployment engineer would use. Scaled to paper magnitudes via
//! the volume-scale mechanism described under "Deviations from the paper"
//! in `docs/PAPER_MAP.md`.
//!
//! Run with: `cargo run --release --example spotify_capacity_planning`

use mcss::prelude::*;
use mcss::traces::SpotifyLike;

/// The paper's Spotify trace has 4.9 M subscribers; we generate a scaled
/// sample and let the cost model compensate.
const PAPER_SUBSCRIBERS: u64 = 4_900_000;
const SYNTH_SUBSCRIBERS: usize = 60_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("generating Spotify-like trace ({SYNTH_SUBSCRIBERS} subscribers)...");
    let workload = SpotifyLike::new(SYNTH_SUBSCRIBERS, 20140415).generate();
    println!("{}\n", workload.stats());

    println!(
        "{:<10} {:>6} {:>8} {:>14} {:>14} {:>14}",
        "instance", "tau", "VMs", "bandwidth GB", "total cost", "LB cost"
    );
    let mut best: Option<(String, u64, Money)> = None;
    for instance_type in [
        cloud_cost::instances::C3_LARGE,
        cloud_cost::instances::C3_XLARGE,
    ] {
        // `paper_effective` uses the per-VM event budget implied by the
        // paper's reported VM counts (see docs/PAPER_MAP.md), scaled to our
        // synthetic size so fleet sizes match the paper's figures.
        let cost = Ec2CostModel::paper_effective(instance_type)
            .with_volume_scale(SYNTH_SUBSCRIBERS as u64, PAPER_SUBSCRIBERS);
        for tau in [10u64, 100, 1000] {
            let inst = McssInstance::new(workload.clone(), Rate::new(tau), cost.capacity())?;
            let outcome = Solver::default().solve(&inst, &cost)?;
            outcome.allocation.validate(inst.workload(), inst.tau())?;
            println!(
                "{:<10} {:>6} {:>8} {:>14.1} {:>14} {:>14}",
                instance_type.name(),
                tau,
                outcome.report.vm_count,
                cost.volume_to_gb(outcome.report.total_bandwidth),
                outcome.report.total_cost.to_string(),
                outcome.report.lower_bound_cost.to_string(),
            );
            let key = (
                instance_type.name().to_string(),
                tau,
                outcome.report.total_cost,
            );
            if best.as_ref().is_none_or(|(_, _, c)| key.2 < *c) {
                best = Some(key);
            }
        }
    }
    let (name, tau, cost) = best.expect("sweep is non-empty");
    println!("\ncheapest configuration: {name} at τ={tau} → {cost} for the 10-day window");
    println!("(costs are extrapolated to the paper's 4.9M-subscriber scale)");
    Ok(())
}
