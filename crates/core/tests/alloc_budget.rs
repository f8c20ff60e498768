//! Heap allocations on the serve daemon's event path, counted by a
//! counting global allocator. The binary holds this one test, so no other
//! test's allocations reach the counter.

use cloud_cost::{LinearCostModel, Money};
use mcss_core::dynamic::DriftModel;
use mcss_core::serve::{Daemon, Driver, ServeConfig};
use pubsub_model::{Bandwidth, Rate, TopicId, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

#[test]
fn submitting_an_epoch_allocates_far_less_than_once_per_event() {
    const EVENTS: usize = 2_000;
    let dir = std::env::temp_dir().join(format!("mcss-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Stable rates and 12% churn: each churned subscriber emits an
    // unsubscribe and a subscribe, ~2,400 events per epoch.
    let drift = DriftModel {
        rate_sigma: 0.0,
        churn_prob: 0.12,
        seed: 5,
    };
    let mut driver = Driver::new(workload(), drift);
    let config = ServeConfig::new(Rate::new(20), Bandwidth::new(4_000));
    let cost = Box::new(LinearCostModel::vm_only(Money::from_dollars(1)));
    let mut daemon = Daemon::create(&dir, config, cost).unwrap();

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

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for &event in &measured[..EVENTS] {
        daemon.submit(event).unwrap();
    }
    let submit = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    daemon.tick().unwrap().expect("a non-empty epoch closes");
    let tick = ALLOCATIONS.load(Ordering::Relaxed) - before;
    println!("{EVENTS} submitted events: {submit} allocations; their epoch close: {tick}");
    assert!(
        submit * 20 < EVENTS as u64,
        "{submit} allocations for {EVENTS} submitted events"
    );
    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}
