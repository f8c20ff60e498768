//! Memory-footprint probe: prints the bytes/subscriber report for the
//! standard Spotify churn scenario after one cold solve — the number the
//! arena diet is judged against.
//!
//! Run with:
//! `cargo test -p mcss_bench --release --test footprint -- --ignored --nocapture`

use cloud_cost::instances;
use mcss_bench::scenario::Scenario;
use mcss_core::dynamic::WorkloadDelta;
use mcss_core::incremental::IncrementalReallocator;
use mcss_core::MemoryFootprint;

#[test]
#[ignore = "measurement probe, run explicitly with --ignored --nocapture"]
fn spotify_100k_bytes_per_subscriber() {
    let scenario = Scenario::spotify(100_000, 20140113);
    let instance = scenario
        .instance(100, instances::C3_LARGE)
        .expect("feasible instance");
    let cost = scenario.cost_model(instances::C3_LARGE);
    let mut inc = IncrementalReallocator::default();
    inc.step_with_delta(&instance, &cost, &WorkloadDelta::default())
        .expect("cold solve");
    let (selection, ledger, _) = inc.checkpoint().expect("stepped");
    let fp = MemoryFootprint::measure(instance.workload(), Some(selection), Some(ledger));
    println!("{fp}");
}
