//! Heap allocations of a cold store load, a cold plan and its Stage 2,
//! the serve daemon's event path, epoch close, fleet export, snapshot
//! write, resume and drill epoch, counted by a counting global
//! allocator. The binary holds this one test, so no other test's
//! allocations reach the counters.

use cloud_cost::{LinearCostModel, Money};
use mcss_core::dynamic::DriftModel;
use mcss_core::serve::{Daemon, Driver, Event, ServeConfig};
use mcss_core::stage1::{GreedySelectPairs, PairSelector};
use mcss_core::stage2::{Allocator, CbpConfig, CustomBinPacking};
use mcss_core::{lower_bound, McssInstance, Solver};
use mcss_store::WorkloadStoreExt;
use pubsub_model::{Bandwidth, Rate, TopicId, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation and the bytes each asks
/// for, then defers to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far.
fn counters() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// 10,000 subscribers of three topics each over 300 topics.
fn workload() -> Workload {
    let mut b = Workload::builder();
    let topics: Vec<TopicId> = (0..300u64)
        .map(|i| b.add_topic(Rate::new(1 + i % 17)).unwrap())
        .collect();
    for v in 0..10_000usize {
        b.add_subscriber([0, 1, 2].map(|k| topics[(v * 7 + k * 101) % topics.len()]))
            .unwrap();
    }
    b.build()
}

/// Ceiling on one cold `Solver::solve` (Stage 1, Stage 2, the bound and
/// the report), ~10% above the 24 measured when it was set.
const SOLVE: u64 = 26;

/// Ceilings on the serve path's allocation counts, each at most ~10%
/// above the count measured when it was set: 103 for an epoch close (the
/// ledger allocates its edit lists and splice buffers afresh each epoch
/// and keeps none between epochs), 5 for an export, 209 for a resume and
/// 53 for the epoch that repairs two failed slots.
const TICK: u64 = 113;
const EXPORT: u64 = 5;
const RESUME: u64 = 229;
const DRILL: u64 = 58;

#[test]
fn loads_plans_submits_and_snapshots_allocate_a_bounded_amount() {
    const EVENTS: usize = 2_000;
    let (tau, capacity) = (Rate::new(20), Bandwidth::new(4_000));
    let cost = LinearCostModel::vm_only(Money::from_dollars(1));
    let dir = std::env::temp_dir().join(format!("mcss-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A cold store load reads each section straight into its arena: one
    // allocation per section plus the header's, and no buffer beside
    // them, so it allocates fewer bytes than the file holds.
    let store = dir.join("workload.mcss");
    let written = workload();
    written.to_store(&store).unwrap();
    let (before, before_bytes) = counters();
    let loaded = Workload::from_store(&store).unwrap();
    let (after, after_bytes) = counters();
    let (load, load_bytes) = (after - before, after_bytes - before_bytes);
    let store_len = std::fs::metadata(&store).unwrap().len();
    println!("from_store, a {store_len}-byte store: {load} allocations, {load_bytes} bytes");
    assert_eq!(loaded, written);
    assert!(load <= 9, "{load} allocations for one store load");
    assert!(
        load_bytes < store_len,
        "{load_bytes} bytes allocated to load a {store_len}-byte store"
    );
    drop((written, loaded));

    // A cold plan, layer by layer. The bound allocates nothing, and
    // validating a valid plan allocates a constant (its transpose and
    // marks), whatever the plan's VMs, rows and pairs.
    let instance = McssInstance::new(workload(), tau, capacity).unwrap();
    let (before, _) = counters();
    let outcome = Solver::default().solve(&instance, &cost).unwrap();
    let solve = counters().0 - before;
    let (before, _) = counters();
    let bound = lower_bound(instance.workload(), tau, capacity);
    let bound_allocations = counters().0 - before;
    let (before, _) = counters();
    let valid = outcome.allocation.validate(instance.workload(), tau);
    let validate = counters().0 - before;
    println!(
        "cold plan of {} pairs on {} VMs: Solver::solve {solve} allocations, \
         lower_bound {bound_allocations}, validate {validate}",
        outcome.allocation.pair_count(),
        outcome.allocation.vm_count()
    );
    assert_eq!(valid, Ok(()));
    assert_eq!(bound.volume, outcome.report.lower_bound_volume);
    assert_eq!(bound_allocations, 0, "lower_bound allocated");
    assert!(solve <= SOLVE, "{solve} allocations for one Solver::solve");
    assert!(validate <= 8, "{validate} allocations to validate one plan");

    // Stage 2 alone records runs of the topic groups and writes the
    // fleet's arena once: a constant number of buffers, not one per row.
    let selection = GreedySelectPairs::new().select(&instance).unwrap();
    let (before, _) = counters();
    let packed = CustomBinPacking::new(CbpConfig::full())
        .allocate(instance.workload(), &selection, capacity, &cost)
        .unwrap();
    let stage2 = counters().0 - before;
    let rows: usize = packed.vms().map(|vm| vm.topic_count()).sum();
    println!(
        "CBP of {} pairs into {rows} rows on {} VMs: {stage2} allocations",
        packed.pair_count(),
        packed.vm_count()
    );
    assert_eq!(packed, outcome.allocation);
    assert!(stage2 <= 24, "{stage2} allocations for one Stage 2");
    drop((instance, outcome, selection, packed));

    // Stable rates and 12% churn: each churned subscriber emits an
    // unsubscribe and a subscribe, ~2,400 events per epoch.
    let drift = DriftModel {
        rate_sigma: 0.0,
        churn_prob: 0.12,
        seed: 5,
    };
    let mut driver = Driver::new(workload(), drift);
    let config = ServeConfig::new(tau, capacity);
    let mut daemon = Daemon::create(&dir.join("state"), config, Box::new(cost)).unwrap();

    // Warm up: the bootstrap epoch and two drift epochs size the edit's
    // working rows and the log's write buffer.
    let mut batches = vec![driver.initial_events()];
    for _ in 0..3 {
        batches.push(driver.next_epoch_events());
    }
    let measured = batches.pop().expect("three drift batches");
    assert!(measured.len() >= EVENTS, "only {} events", measured.len());
    for batch in batches {
        for event in batch {
            daemon.submit(event).unwrap();
        }
        daemon.tick().unwrap().expect("a non-empty epoch closes");
    }

    let (before, _) = counters();
    for &event in &measured[..EVENTS] {
        daemon.submit(event).unwrap();
    }
    let submit = counters().0 - before;
    let (before, _) = counters();
    daemon.tick().unwrap().expect("a non-empty epoch closes");
    let tick = counters().0 - before;
    println!("{EVENTS} submitted events: {submit} allocations; their epoch close: {tick}");
    assert!(
        submit * 20 < EVENTS as u64,
        "{submit} allocations for {EVENTS} submitted events"
    );
    assert!(tick <= TICK, "{tick} allocations for one epoch close");

    // Exporting the fleet copies the ledger's arenas, each allocated at
    // its final size: a constant, whatever the fleet's VMs, rows or pairs.
    let (before, _) = counters();
    let fleet = daemon.allocation().expect("an epoch was applied");
    let export = counters().0 - before;
    println!(
        "Daemon::allocation of {} pairs in {} rows on {} VMs: {export} allocations",
        fleet.pair_count(),
        fleet.vms().map(|vm| vm.topic_count()).sum::<usize>(),
        fleet.vm_count()
    );
    assert!(
        export <= EXPORT,
        "{export} allocations for one fleet export"
    );
    drop(fleet);

    // A snapshot streams the live state through one fixed buffer: its
    // allocations are a constant, not a function of the slots, rows or
    // sections it writes, and its bytes stay well under the file's.
    let (before, before_bytes) = counters();
    let pairs = daemon
        .selection()
        .expect("an epoch was applied")
        .pair_count();
    let path = daemon.snapshot_now().unwrap();
    let (after, after_bytes) = counters();
    let (snapshot, snapshot_bytes) = (after - before, after_bytes - before_bytes);
    let file_len = std::fs::metadata(&path).unwrap().len();
    println!(
        "snapshot_now, a {file_len}-byte file: {snapshot} allocations, {snapshot_bytes} bytes"
    );
    assert!(snapshot <= 16, "{snapshot} allocations for one snapshot");
    assert!(
        snapshot_bytes * 4 < file_len,
        "{snapshot_bytes} bytes allocated for a {file_len}-byte snapshot"
    );
    drop(daemon);

    // Resuming the state directory loads that snapshot and re-derives the
    // ledger's index from its arena.
    let (before, _) = counters();
    let mut resumed = Daemon::resume(&dir.join("state"), config, Box::new(cost)).unwrap();
    let resume = counters().0 - before;
    println!("Daemon::resume of that snapshot: {resume} allocations");
    assert_eq!(resumed.selection().map(|s| s.pair_count()), Some(pairs));
    assert!(resume <= RESUME, "{resume} allocations for one resume");

    // A drill: two live slots fail, and the epoch that closes repairs
    // their pairs onto the rest of the fleet.
    let vms = resumed.vm_count();
    for slot in [0, 1] {
        resumed.submit(Event::VmFail { slot }).unwrap();
    }
    let (before, _) = counters();
    let stats = resumed.tick().unwrap().expect("the drill epoch closes");
    let drill = counters().0 - before;
    println!(
        "drill epoch, 2 of {vms} slots failed, {} pairs repaired: {drill} allocations",
        stats.pairs_repaired
    );
    assert_eq!(stats.vms_failed, 2);
    assert!(stats.pairs_repaired > 0, "the failed slots hosted pairs");
    assert!(drill <= DRILL, "{drill} allocations for one drill epoch");
    drop(resumed);
    std::fs::remove_dir_all(&dir).unwrap();
}
