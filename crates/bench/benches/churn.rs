//! Churn-path benchmark: one `IncrementalReallocator` epoch over a
//! drifting trace-scale workload, the O(Δ) delta-fed step versus the
//! pre-ledger implementation (`legacy-full`), at 1% / 5% / 20%
//! subscription churn.
//!
//! Each measured iteration ping-pongs between two pre-drifted epochs (A→B
//! then B→A), so every step repairs a real delta without cloning
//! re-allocator state inside the timing loop. The same `WorkloadDelta`
//! describes both directions — it lists what differs between the two
//! epochs, which is direction-symmetric.
//!
//! Size override: `MCSS_CHURN_SUBS` (default 100000). Set
//! `MCSS_CHURN_THREADS` > 1 to add a `dirty-delta-mt` variant that runs
//! the shard-parallel epoch repair with that many worker threads.

use cloud_cost::instances;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcss_bench::legacy::LegacyReallocator;
use mcss_bench::scenario::{env_size, Scenario};
use mcss_core::dynamic::{DriftModel, WorkloadDelta};
use mcss_core::incremental::{IncrementalConfig, IncrementalReallocator};
use mcss_core::McssInstance;
use std::hint::black_box;

fn bench_churn(c: &mut Criterion) {
    let subs = env_size("MCSS_CHURN_SUBS", 100_000);
    let scenario = Scenario::spotify(subs, 20140113);
    let cost = scenario.cost_model(instances::C3_LARGE);
    let base = scenario
        .instance(100, instances::C3_LARGE)
        .expect("valid capacity");
    let tau = base.tau();
    let capacity = base.capacity();

    let mut group = c.benchmark_group("churn/epoch");
    group.sample_size(10);
    for churn_pct in [1u64, 5, 20] {
        // Pure subscription churn: rates stay put so the dirty set is the
        // churned subscribers, which is what the O(Δ) claim is about.
        let drift = DriftModel {
            rate_sigma: 0.0,
            churn_prob: churn_pct as f64 / 100.0,
            seed: 42,
        };
        let (wa, _) = drift.evolve_tracked(base.workload(), 0);
        let (wb, dab) = drift.evolve_tracked(&wa, 1);
        let inst_a = McssInstance::new(wa, tau, capacity).expect("feasible epoch");
        let inst_b = McssInstance::new(wb, tau, capacity).expect("feasible epoch");
        let prime = |inc: &mut IncrementalReallocator| {
            inc.step_with_delta(&inst_a, &cost, &WorkloadDelta::default())
                .expect("first epoch solves");
        };

        // The pre-PR implementation, ported verbatim into `legacy.rs`.
        let mut old = LegacyReallocator::default();
        old.step(&inst_a, &cost).expect("first epoch solves");
        group.bench_with_input(BenchmarkId::new("legacy-full", churn_pct), &(), |b, _| {
            b.iter(|| {
                black_box(old.step(&inst_b, &cost).expect("repairable"));
                black_box(old.step(&inst_a, &cost).expect("repairable"));
            })
        });

        let mut tracked = IncrementalReallocator::default();
        prime(&mut tracked);
        group.bench_with_input(BenchmarkId::new("dirty-delta", churn_pct), &(), |b, _| {
            b.iter(|| {
                black_box(
                    tracked
                        .step_with_delta(&inst_b, &cost, &dab)
                        .expect("repairable"),
                );
                black_box(
                    tracked
                        .step_with_delta(&inst_a, &cost, &dab)
                        .expect("repairable"),
                );
            })
        });

        // Shard-parallel repair (bit-identical selections), opt-in so the
        // default run stays comparable to older baselines.
        let threads = env_size("MCSS_CHURN_THREADS", 1);
        if threads > 1 {
            let mut mt = IncrementalReallocator::new(
                IncrementalConfig::default().with_repair_threads(threads),
            );
            prime(&mut mt);
            group.bench_with_input(
                BenchmarkId::new("dirty-delta-mt", churn_pct),
                &(),
                |b, _| {
                    b.iter(|| {
                        black_box(
                            mt.step_with_delta(&inst_b, &cost, &dab)
                                .expect("repairable"),
                        );
                        black_box(
                            mt.step_with_delta(&inst_a, &cost, &dab)
                                .expect("repairable"),
                        );
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
