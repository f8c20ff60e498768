//! Ablations for the design choices listed under "Deviations from the
//! paper" in `docs/PAPER_MAP.md`, plus Stage-1 parallelism:
//!
//! * CBP's "expensive" ordering: pseudocode's total volume vs prose's raw
//!   rate (Alg. 4 line 3);
//! * Alg. 7's new-VM estimate: paper formula vs exact count;
//! * Stage-1 selector: plain GSP vs the shared-incoming-aware extension;
//! * Stage-1 parallelism: 1 vs 4 threads.
//!
//! Each configuration's cost impact is printed once via stderr so the
//! quality side of the ablation lands next to the runtime numbers.

use cloud_cost::{instances, CostModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcss_bench::scenario::Scenario;
use mcss_core::stage1::{GreedySelectPairs, PairSelector, SharedAwareGreedy};
use mcss_core::stage2::{Allocator, CbpConfig, CustomBinPacking, ExpensiveOrder};
use std::hint::black_box;

fn bench_ablation(c: &mut Criterion) {
    let scenario = Scenario::twitter(10_000, 20131030);
    let cost = scenario.cost_model(instances::C3_LARGE);
    let inst = scenario
        .instance(100, instances::C3_LARGE)
        .expect("valid capacity");
    let selection = GreedySelectPairs::new().select(&inst).expect("gsp");

    // Quality impact, reported once.
    for (name, cfg) in [
        ("volume-order", CbpConfig::full()),
        (
            "rate-order",
            CbpConfig {
                expensive_order: ExpensiveOrder::Rate,
                ..CbpConfig::full()
            },
        ),
        (
            "exact-vm-estimate",
            CbpConfig {
                exact_new_vm_estimate: true,
                ..CbpConfig::full()
            },
        ),
    ] {
        let a = CustomBinPacking::new(cfg)
            .allocate(inst.workload(), &selection, inst.capacity(), &cost)
            .expect("feasible");
        eprintln!(
            "# ablation {}: cost {}, {} VMs, bw {}",
            name,
            cost.total_cost(a.vm_count(), a.total_bandwidth()),
            a.vm_count(),
            a.total_bandwidth()
        );
    }
    let shared = SharedAwareGreedy::new().select(&inst).expect("shared");
    eprintln!(
        "# ablation stage1 volume: GSP {} vs shared-aware {}",
        selection.outgoing_volume(inst.workload()),
        shared.outgoing_volume(inst.workload())
    );

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    for (name, cfg) in [
        ("cbp/volume-order", CbpConfig::full()),
        (
            "cbp/rate-order",
            CbpConfig {
                expensive_order: ExpensiveOrder::Rate,
                ..CbpConfig::full()
            },
        ),
        (
            "cbp/exact-vm-estimate",
            CbpConfig {
                exact_new_vm_estimate: true,
                ..CbpConfig::full()
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, &cfg| {
            let alloc = CustomBinPacking::new(cfg);
            b.iter(|| {
                black_box(
                    alloc
                        .allocate(inst.workload(), &selection, inst.capacity(), &cost)
                        .expect("feasible"),
                )
            });
        });
    }
    group.bench_function("stage1/gsp-shared-aware", |b| {
        let sel = SharedAwareGreedy::new();
        b.iter(|| black_box(sel.select(&inst).expect("shared")));
    });
    group.bench_function("stage1/gsp-threads-1", |b| {
        let sel = GreedySelectPairs::new();
        b.iter(|| black_box(sel.select(&inst).expect("gsp")));
    });
    group.bench_function("stage1/gsp-threads-4", |b| {
        let sel = GreedySelectPairs::with_threads(4);
        b.iter(|| black_box(sel.select(&inst).expect("gsp")));
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
