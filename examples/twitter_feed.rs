//! Deploying a Twitter-like firehose: trace analysis, solve, and an
//! operational check in the simulator.
//!
//! Walks the full pipeline the paper describes: generate a Twitter-shaped
//! workload (Appendix D statistics), inspect its distributions, solve MCSS
//! under the EC2 model, compare the paper pipeline against the naive
//! baseline, and replay the window through the broker simulation.
//!
//! Run with: `cargo run --release --example twitter_feed`

use mcss::prelude::*;
use mcss::traces::analysis;
use mcss::traces::TwitterLike;

const PAPER_SUBSCRIBERS: u64 = 30_000_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let users = 30_000;
    println!("generating Twitter-like trace ({users} users)...");
    let mut generator = TwitterLike::new(users, 20141030);
    // At this scaled-down size the fattest bot streams would exceed a
    // single scaled VM; rein the bot tail in (a scale artifact — at full
    // scale every topic fits, see docs/PAPER_MAP.md).
    generator.bot_rate_range = (1_000, 10_000);
    let workload = generator.generate();
    let stats = workload.stats();
    println!("{stats}\n");

    // Appendix D-style analysis: heavy tails everywhere.
    let followers = workload.follower_counts();
    for (threshold, fraction) in analysis::ccdf_at(&followers, &[1, 10, 100, 1000]) {
        println!("P(#followers > {threshold:>5}) = {fraction:.4}");
    }
    let rates = workload.rate_values();
    for (threshold, fraction) in analysis::ccdf_at(&rates, &[10, 100, 1000]) {
        println!("P(#tweets   > {threshold:>5}) = {fraction:.4}");
    }
    println!();

    let cost = Ec2CostModel::paper_effective(cloud_cost::instances::C3_LARGE)
        .with_volume_scale(stats.num_subscribers as u64, PAPER_SUBSCRIBERS);
    let inst = McssInstance::new(workload, Rate::new(100), cost.capacity())?;

    // The paper's pipeline vs the naive baseline (§IV headline numbers).
    let paper = Solver::new(SolverParams {
        selector: SelectorKind::Greedy,
        allocator: AllocatorKind::custom_full(),
        ..SolverParams::default()
    })
    .solve(&inst, &cost)?;
    let naive = Solver::new(SolverParams {
        selector: SelectorKind::Random { seed: 1 },
        allocator: AllocatorKind::FirstFit,
        ..SolverParams::default()
    })
    .solve(&inst, &cost)?;
    println!("paper pipeline (GSP + CBP):\n{}\n", paper.report);
    println!("naive baseline (RSP + FFBP):\n{}\n", naive.report);
    let saved = naive.report.total_cost - paper.report.total_cost;
    let pct = 100.0 * saved.as_dollars_f64() / naive.report.total_cost.as_dollars_f64();
    println!("savings vs naive: {saved} ({pct:.1}%)");

    paper.allocation.validate(inst.workload(), inst.tau())?;

    // Operational check on the deployed topology.
    let report = Simulation::new(SimConfig::default()).run(inst.workload(), &paper.allocation);
    assert!(report.all_satisfied(inst.workload(), inst.tau()));
    println!(
        "\nsimulated {} events through {} VMs; every subscriber satisfied",
        report.published_events,
        paper.allocation.vm_count()
    );
    Ok(())
}
