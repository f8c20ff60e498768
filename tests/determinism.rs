//! Full-stack determinism: generators, selectors, allocators, and the
//! simulator must be byte-identical across runs with the same seeds, and
//! sensitive to seed changes.

use mcss::prelude::*;
use mcss::traces::io::{read_workload, write_workload};
use mcss::traces::SpotifyLike;
use mcss_bench::scenario::Scenario;
use std::io::BufReader;

fn solve_fingerprint(params: SolverParams, inst: &McssInstance, cost: &Ec2CostModel) -> String {
    let outcome = Solver::new(params).solve(inst, cost).unwrap();
    let mut fp = format!(
        "pairs={} vms={} bw={}",
        outcome.report.pairs_selected, outcome.report.vm_count, outcome.report.total_bandwidth
    );
    for vm in outcome.allocation.vms() {
        fp.push_str(&format!("|{}", vm.used()));
        for (t, vs) in vm.rows() {
            fp.push_str(&format!(",{}x{}", t, vs.len()));
        }
    }
    fp
}

#[test]
fn identical_seeds_identical_results() {
    for params in [
        SolverParams::default(),
        SolverParams {
            selector: SelectorKind::Random { seed: 8 },
            allocator: AllocatorKind::FirstFit,
            ..SolverParams::default()
        },
        SolverParams {
            selector: SelectorKind::GreedyParallel { threads: 3 },
            allocator: AllocatorKind::custom_full(),
            ..SolverParams::default()
        },
    ] {
        let run = || {
            let s = Scenario::twitter(1_000, 77);
            let inst = s.instance(25, cloud_cost::instances::C3_LARGE).unwrap();
            let cost = s.cost_model(cloud_cost::instances::C3_LARGE);
            solve_fingerprint(params, &inst, &cost)
        };
        assert_eq!(run(), run(), "{params:?} was not deterministic");
    }
}

#[test]
fn different_trace_seeds_differ() {
    let a = SpotifyLike::new(1_000, 1).generate();
    let b = SpotifyLike::new(1_000, 2).generate();
    assert!(a.rates() != b.rates() || a.pair_count() != b.pair_count());
}

#[test]
fn trace_roundtrip_preserves_solver_output() {
    let s = Scenario::spotify(1_000, 55);
    let mut buf = Vec::new();
    write_workload(&mut buf, &s.workload).unwrap();
    let w2 = read_workload(BufReader::new(buf.as_slice())).unwrap();

    let cost = s.cost_model(cloud_cost::instances::C3_LARGE);
    let i1 = s.instance(40, cloud_cost::instances::C3_LARGE).unwrap();
    let i2 = McssInstance::new(w2, Rate::new(40), cost.capacity()).unwrap();
    assert_eq!(
        solve_fingerprint(SolverParams::default(), &i1, &cost),
        solve_fingerprint(SolverParams::default(), &i2, &cost),
        "solver output changed across trace round-trip"
    );
}

#[test]
fn simulation_is_deterministic_per_seed() {
    let s = Scenario::spotify(600, 4);
    let inst = s.instance(30, cloud_cost::instances::C3_LARGE).unwrap();
    let cost = s.cost_model(cloud_cost::instances::C3_LARGE);
    let outcome = Solver::default().solve(&inst, &cost).unwrap();
    let run = |seed| {
        let report = Simulation::new(SimConfig {
            schedule: mcss::sim::ScheduleKind::Poisson { seed },
            ..SimConfig::default()
        })
        .run(inst.workload(), &outcome.allocation);
        (report.published_events, report.total_bandwidth_events())
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

/// One line per packer run: VM count, total bandwidth, and a CRC32 over
/// every VM's placements (topic, subscriber count, subscribers) plus, for
/// a typed fleet, each VM's tier.
fn packer_fingerprint(label: &str, allocation: &Allocation) -> String {
    let mut bytes = Vec::new();
    for (i, vm) in allocation.vms().enumerate() {
        bytes.extend_from_slice(&(vm.topic_count() as u32).to_le_bytes());
        for (t, vs) in vm.rows() {
            bytes.extend_from_slice(&t.raw().to_le_bytes());
            bytes.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for v in vs {
                bytes.extend_from_slice(&v.raw().to_le_bytes());
            }
        }
        if let Some(typing) = allocation.typing() {
            bytes.extend_from_slice(&typing.assignment()[i].to_le_bytes());
        }
    }
    format!(
        "{label}: vms={} bw={} crc={:08x}\n",
        allocation.vm_count(),
        allocation.total_bandwidth().get(),
        mcss_store::crc32(&bytes)
    )
}

/// Every Stage-2 packer on small generated traces, fingerprinted against
/// `tests/golden/packers.txt`. The file pins each packer's output bit for
/// bit, so a change to the packers' internals that alters any placement
/// shows here. Regenerate (only for a deliberate packing change) with
/// `MCSS_BLESS=1 cargo test --test determinism packers_match_golden`.
#[test]
fn packers_match_golden() {
    use cloud_cost::instances::{C3_2XLARGE, C3_LARGE, C3_XLARGE};
    use mcss::solver::stage1::{GreedySelectPairs, PairSelector};
    use mcss::solver::stage2::{
        Allocator, BestFitBinPacking, CbpConfig, CustomBinPacking, ExpensiveOrder, FfdBinPacking,
        FirstFitBinPacking, MixedFleetPacker, NextFitBinPacking,
    };

    let packers: Vec<(&str, Box<dyn Allocator>)> = vec![
        (
            "cbp-grouping",
            Box::new(CustomBinPacking::new(CbpConfig::grouping_only())),
        ),
        (
            "cbp-expensive",
            Box::new(CustomBinPacking::new(CbpConfig::expensive_first())),
        ),
        (
            "cbp-most-free",
            Box::new(CustomBinPacking::new(CbpConfig::most_free())),
        ),
        (
            "cbp-full",
            Box::new(CustomBinPacking::new(CbpConfig::full())),
        ),
        (
            "cbp-full-rate",
            Box::new(CustomBinPacking::new(CbpConfig {
                expensive_order: ExpensiveOrder::Rate,
                ..CbpConfig::full()
            })),
        ),
        ("ffd", Box::new(FfdBinPacking::new())),
        ("ffbp", Box::new(FirstFitBinPacking::new())),
        ("bfbp", Box::new(BestFitBinPacking::new())),
        ("nfbp", Box::new(NextFitBinPacking::new())),
    ];
    let mut out = String::new();
    for scenario in [Scenario::spotify(2_000, 7), Scenario::twitter(2_000, 7)] {
        let cost = scenario.cost_model(C3_LARGE);
        let fleet = FleetCostModel::new(vec![
            cost.clone(),
            scenario.cost_model(C3_XLARGE),
            scenario.cost_model(C3_2XLARGE),
        ]);
        for tau in [10u64, 100] {
            let inst = scenario.instance(tau, C3_LARGE).unwrap();
            let selection = GreedySelectPairs::new().select(&inst).unwrap();
            let prefix = format!("{} tau={tau}", scenario.name);
            for (name, packer) in &packers {
                let allocation = packer
                    .allocate(inst.workload(), &selection, inst.capacity(), &cost)
                    .unwrap();
                out.push_str(&packer_fingerprint(
                    &format!("{prefix} {name}"),
                    &allocation,
                ));
            }
            let mixed = MixedFleetPacker::new()
                .allocate(inst.workload(), &selection, &fleet)
                .unwrap();
            out.push_str(&packer_fingerprint(&format!("{prefix} mixed"), &mixed));
        }
    }

    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/packers.txt");
    if std::env::var_os("MCSS_BLESS").is_some() {
        std::fs::write(golden, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(golden)
        .expect("tests/golden/packers.txt missing; regenerate with MCSS_BLESS=1");
    assert_eq!(
        out, want,
        "packer output drifted from tests/golden/packers.txt; \
         if the change is deliberate, regenerate with MCSS_BLESS=1"
    );
}

/// The incremental repair path, fingerprinted against
/// `tests/golden/repair.txt`, one line per epoch or repair round:
/// - on Spotify- and Twitter-like traces at τ 100, an epoch-0 solve and
///   12 delta-fed drift epochs whose rate drift evicts whole topic
///   groups (so placement falls through to the most-free pass);
/// - a two-VM failure drill under a 50-pair budget, drained to empty,
///   then one compaction;
/// - a typed (mixed-fleet) run over the same drift.
///
/// The file pins the ledger's placement decisions bit for bit.
/// Regenerate (only for a deliberate placement change) with
/// `MCSS_BLESS=1 cargo test --test determinism repair_matches_golden`.
#[test]
fn repair_matches_golden() {
    use cloud_cost::instances::{C3_2XLARGE, C3_LARGE, C3_XLARGE};
    use mcss::solver::dynamic::{DriftModel, WorkloadDelta};
    use mcss::solver::incremental::{IncrementalConfig, IncrementalReallocator, SlaBudget};
    use mcss::solver::SearchBudget;

    let drift = DriftModel {
        rate_sigma: 0.1,
        churn_prob: 0.05,
        seed: 3,
    };
    let tau = Rate::new(100);
    let mut out = String::new();
    let mut evicted = 0u64;
    for scenario in [Scenario::spotify(2_000, 7), Scenario::twitter(2_000, 7)] {
        let cost = scenario.cost_model(C3_LARGE);
        let capacity = cost.capacity();
        let mut inc = IncrementalReallocator::new(IncrementalConfig::default());
        let mut workload = (*scenario.workload).clone();
        let mut inst = McssInstance::new(workload.clone(), tau, capacity).unwrap();
        let first = inc
            .step_with_delta(&inst, &cost, &WorkloadDelta::default())
            .unwrap();
        out.push_str(&packer_fingerprint(
            &format!("{} epoch=0", scenario.name),
            &first.allocation,
        ));
        for epoch in 1..=12 {
            let (next, delta) = drift.evolve_tracked(&workload, epoch);
            workload = next;
            inst = McssInstance::new(workload.clone(), tau, capacity).unwrap();
            let step = inc.step_with_delta(&inst, &cost, &delta).unwrap();
            step.allocation.validate(inst.workload(), tau).unwrap();
            evicted += step.pairs_evicted;
            out.push_str(&packer_fingerprint(
                &format!(
                    "{} epoch={epoch} placed={} removed={} evicted={} full={}",
                    scenario.name,
                    step.pairs_placed,
                    step.pairs_removed,
                    step.pairs_evicted,
                    step.full_resolve
                ),
                &step.allocation,
            ));
        }

        // Fail the two slots hosting the most pairs and drain their
        // orphans.
        let (_, ledger, _) = inc.checkpoint().unwrap();
        let mut live: Vec<(usize, usize)> = ledger
            .snapshot_slots()
            .iter()
            .enumerate()
            .filter(|(_, slot)| !slot.tombstone)
            .map(|(i, slot)| (slot.rows.iter().map(|(_, subs)| subs.len()).sum(), i))
            .collect();
        live.sort_unstable_by_key(|&(pairs, i)| (std::cmp::Reverse(pairs), i));
        let live: Vec<usize> = live.iter().take(2).map(|&(_, i)| i).collect();
        let mut failed = live.as_slice();
        let mut round = 0;
        loop {
            let report = inc
                .repair_failures(&inst, failed, SlaBudget::pairs(50))
                .unwrap();
            out.push_str(&packer_fingerprint(
                &format!(
                    "{} repair={round} failed={} orphaned={} replaced={} deferred={} starved={} shortfall={}",
                    scenario.name,
                    report.vms_failed,
                    report.pairs_orphaned,
                    report.pairs_replaced,
                    report.pairs_deferred,
                    report.starved.len(),
                    report.shortfall
                ),
                &report.allocation,
            ));
            failed = &[];
            round += 1;
            if report.drained {
                break;
            }
        }
        assert!(round > 1, "the budget must defer part of the drill");
        let (_, ledger, capacity) = inc.checkpoint().unwrap();
        ledger
            .to_allocation(capacity)
            .validate(inst.workload(), tau)
            .unwrap();
        for &slot in &live {
            assert!(inc.recover_slot(slot));
        }
        let compacted = inc
            .compact(&inst, &cost, SearchBudget::steps(200))
            .expect("nothing deferred, nothing down");
        let (_, ledger, capacity) = inc.checkpoint().unwrap();
        out.push_str(&packer_fingerprint(
            &format!("{} compact steps={}", scenario.name, compacted.steps),
            &ledger.to_allocation(capacity),
        ));
    }
    assert!(
        evicted > 0,
        "the drift must evict, or the most-free pass goes untested"
    );

    // A typed fleet: per-slot tier capacities and cheapest-tier fresh VMs.
    let scenario = Scenario::spotify(2_000, 7);
    let fleet = FleetCostModel::new(vec![
        scenario.cost_model(C3_LARGE),
        scenario.cost_model(C3_XLARGE),
        scenario.cost_model(C3_2XLARGE),
    ]);
    let cost = scenario.cost_model(C3_LARGE);
    let mut inc =
        IncrementalReallocator::new(IncrementalConfig::default()).with_fleet(fleet.clone());
    let mut workload = (*scenario.workload).clone();
    let inst = McssInstance::new(workload.clone(), tau, fleet.max_capacity()).unwrap();
    let first = inc
        .step_with_delta(&inst, &cost, &WorkloadDelta::default())
        .unwrap();
    out.push_str(&packer_fingerprint("typed epoch=0", &first.allocation));
    for epoch in 1..=6 {
        let (next, delta) = drift.evolve_tracked(&workload, epoch);
        workload = next;
        let inst = McssInstance::new(workload.clone(), tau, fleet.max_capacity()).unwrap();
        let step = inc.step_with_delta(&inst, &cost, &delta).unwrap();
        step.allocation.validate(inst.workload(), tau).unwrap();
        out.push_str(&packer_fingerprint(
            &format!(
                "typed epoch={epoch} placed={} evicted={} full={}",
                step.pairs_placed, step.pairs_evicted, step.full_resolve
            ),
            &step.allocation,
        ));
    }

    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/repair.txt");
    if std::env::var_os("MCSS_BLESS").is_some() {
        std::fs::write(golden, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(golden)
        .expect("tests/golden/repair.txt missing; regenerate with MCSS_BLESS=1");
    assert_eq!(
        out, want,
        "repair output drifted from tests/golden/repair.txt; \
         if the change is deliberate, regenerate with MCSS_BLESS=1"
    );
}

/// A store file's layout: its length, header CRC and a CRC over every
/// byte (inter-section padding included), then one line per section
/// with its id, offset, length and payload CRC.
fn store_fingerprint(label: &str, path: &std::path::Path) -> String {
    let bytes = std::fs::read(path).unwrap();
    let header_crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    let mut out = format!(
        "{label}: len={} header_crc={header_crc:08x} file_crc={:08x}\n",
        bytes.len(),
        mcss_store::crc32(&bytes)
    );
    for s in mcss_store::StoreReader::open(path).unwrap().sections() {
        out.push_str(&format!(
            "  {} id={:#04x} offset={} len={} crc={:08x}\n",
            s.name, s.id, s.offset, s.len, s.crc
        ));
    }
    out
}

/// The bytes every store writer puts on disk, fingerprinted against
/// `tests/golden/store_bytes.txt`:
/// - a serve daemon's snapshot after a bootstrap and three drift epochs
///   of a 2k- and of an 8k-subscriber Spotify-like trace, with one slot
///   failed (and left down) and another failed then recovered, so its
///   slot table holds live, failed and tombstoned slots;
/// - `Snapshot::write` of a hand-built snapshot with an empty ledger;
/// - `to_store` of the 2k trace.
///
/// The file pins the on-disk format byte for byte. Regenerate (only
/// for a deliberate format change) with
/// `MCSS_BLESS=1 cargo test --test determinism store_bytes_match_golden`.
#[test]
fn store_bytes_match_golden() {
    use cloud_cost::instances::C3_LARGE;
    use mcss::solver::dynamic::DriftModel;
    use mcss::solver::serve::{Daemon, Driver, Event, ServeConfig, Snapshot};
    use mcss::solver::Selection;
    use mcss_store::WorkloadStoreExt;

    let dir = std::env::temp_dir().join(format!("mcss-store-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut out = String::new();
    // At 8k subscribers the arena sections outgrow a 64 KiB write buffer.
    for subscribers in [2_000, 8_000] {
        let scenario = Scenario::spotify(subscribers, 7);
        let cost = scenario.cost_model(C3_LARGE);
        let config = ServeConfig::new(Rate::new(100), cost.capacity()).with_snapshot_every(0);
        let serve_dir = dir.join(format!("serve-{subscribers}"));
        let mut daemon = Daemon::create(&serve_dir, config, Box::new(cost)).unwrap();
        let drift = DriftModel {
            rate_sigma: 0.1,
            churn_prob: 0.05,
            seed: 3,
        };
        let mut driver = Driver::new((*scenario.workload).clone(), drift);
        let mut batches = vec![driver.initial_events()];
        for _ in 0..3 {
            batches.push(driver.next_epoch_events());
        }
        batches.push(vec![Event::VmFail { slot: 0 }, Event::VmFail { slot: 1 }]);
        batches.push(vec![Event::VmRecover { slot: 1 }]);
        for batch in batches {
            for event in batch {
                daemon.submit(event).unwrap();
            }
            daemon.tick().unwrap().expect("a non-empty epoch closes");
        }
        let snapshot = daemon.snapshot_now().unwrap();
        let slots = Snapshot::load(&snapshot).unwrap().slots;
        assert!(slots[0].failed, "slot 0 stays failed");
        assert!(
            slots[1].tombstone && !slots[1].failed,
            "slot 1 is a tombstone"
        );
        assert!(slots.iter().any(|s| !s.tombstone), "live slots remain");
        out.push_str(&store_fingerprint(
            &format!("daemon snapshot, {subscribers} subscribers"),
            &snapshot,
        ));
    }

    let path = dir.join("hand-built.bin");
    Snapshot {
        last_seq: 3,
        epochs_applied: 1,
        tau: Rate::new(10),
        capacity: Bandwidth::new(50),
        workload: Workload::from_parts(
            vec![Rate::new(10), Rate::new(4)],
            vec![
                vec![TopicId::new(0)],
                vec![TopicId::new(0), TopicId::new(1)],
            ],
        ),
        selection: Selection::from_csr(vec![0, 1, 2], vec![TopicId::new(0), TopicId::new(1)]),
        slots: Vec::new(),
    }
    .write(&path)
    .unwrap();
    out.push_str(&store_fingerprint("hand-built snapshot", &path));

    let path = dir.join("workload.mcss");
    Scenario::spotify(2_000, 7)
        .workload
        .to_store(&path)
        .unwrap();
    out.push_str(&store_fingerprint("workload store", &path));
    std::fs::remove_dir_all(&dir).unwrap();

    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/store_bytes.txt");
    if std::env::var_os("MCSS_BLESS").is_some() {
        std::fs::write(golden, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(golden)
        .expect("tests/golden/store_bytes.txt missing; regenerate with MCSS_BLESS=1");
    assert_eq!(
        out, want,
        "store bytes drifted from tests/golden/store_bytes.txt; \
         if the change is deliberate, regenerate with MCSS_BLESS=1"
    );
}
