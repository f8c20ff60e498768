//! Crash-recovery property test for the event-sourced serve daemon.
//!
//! The contract under test (ISSUE: "crash-consistent recovery"): kill a
//! daemon at an *arbitrary* event index — losing every log byte buffered
//! since the last epoch fsync — then recover from snapshot + log replay
//! and finish the stream. The recovered daemon must be **bit-identical**
//! to one that never stopped: same workload arenas, same Stage-1
//! selection, same fleet allocation, same epoch count.

use cloud_cost::{CostModel, LinearCostModel, Money};
use mcss_core::dynamic::DriftModel;
use mcss_core::serve::Driver;
use mcss_core::serve::{Daemon, EpochStats, Event, ServeConfig, Snapshot, SNAPSHOT_FILE};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use pubsub_model::{Bandwidth, Rate, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mcss-serve-replay-{}-{}-{tag}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cost() -> Box<dyn CostModel> {
    Box::new(LinearCostModel::new(
        Money::from_dollars(1),
        Money::from_micros(3),
    ))
}

/// A fixed base workload; all variation comes from the drift seed.
fn base_workload() -> Workload {
    let mut b = Workload::builder();
    let ts: Vec<_> = [30u64, 18, 12, 9, 6, 4]
        .iter()
        .map(|&r| b.add_topic(Rate::new(r)).unwrap())
        .collect();
    b.add_subscriber([ts[0], ts[1], ts[4]]).unwrap();
    b.add_subscriber([ts[1], ts[2]]).unwrap();
    b.add_subscriber([ts[2], ts[3], ts[5]]).unwrap();
    b.add_subscriber([ts[0], ts[5]]).unwrap();
    b.build()
}

/// The full deterministic event script: bootstrap + `batches` drift
/// epochs, exactly what `mcss serve --trace ...` would feed.
fn script(seed: u64, batches: usize) -> Vec<Event> {
    let drift = DriftModel {
        rate_sigma: 0.3,
        churn_prob: 0.4,
        seed,
    };
    let mut driver = Driver::new(base_workload(), drift);
    let mut events = driver.initial_events();
    for _ in 0..batches {
        events.extend(driver.next_epoch_events());
    }
    events
}

/// Checks one closed epoch: its stats read the VM count and fleet cost
/// from ledger counters, which must equal an export of the fleet.
/// Returns whether the epoch repaired the ledger in place and placed
/// pairs.
fn check_stats(daemon: &Daemon, stats: Option<EpochStats>) -> Result<bool, TestCaseError> {
    if let Some(stats) = stats {
        let fleet = daemon.allocation().unwrap();
        prop_assert_eq!(stats.vm_count, fleet.vm_count(), "epoch {}", stats.epoch);
        prop_assert_eq!(
            stats.fleet_cost,
            fleet.cost(cost().as_ref()),
            "epoch {}",
            stats.epoch
        );
    }
    Ok(stats.is_some_and(|s| !s.full_resolve && s.pairs_placed > 0))
}

/// Submits every event, checking each epoch the watermark closes, and
/// counts the epochs that repaired in place.
fn submit_all(daemon: &mut Daemon, events: &[Event]) -> Result<usize, TestCaseError> {
    let mut repaired = 0;
    for &e in events {
        let stats = daemon.submit(e).unwrap();
        repaired += usize::from(check_stats(daemon, stats)?);
    }
    Ok(repaired)
}

/// Closes the current epoch, checking it; `true` if it repaired in place.
fn tick(daemon: &mut Daemon) -> Result<bool, TestCaseError> {
    let stats = daemon.tick().unwrap();
    check_stats(daemon, stats)
}

/// A drift source heavy enough to repair in place. The proptests over
/// `base_workload` are light enough that nearly every epoch falls below
/// the compaction floor and re-solves; here 400 subscribers keep about
/// twenty VMs busy (at τ 40 and capacity 1000), so drift epochs repair
/// the ledger in place (removals, evictions, most-free and fresh-VM
/// placement) between compaction passes.
fn repair_driver() -> Driver {
    let mut b = Workload::builder();
    let ts: Vec<_> = (0..60u64)
        .map(|i| b.add_topic(Rate::new(5 + i * 37 % 40)).unwrap())
        .collect();
    let mut x = 7u64;
    for _ in 0..400 {
        let mut row = Vec::new();
        for _ in 0..3 + x % 4 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            row.push(ts[(x >> 33) as usize % ts.len()]);
        }
        row.sort_unstable();
        row.dedup();
        b.add_subscriber(row).unwrap();
    }
    let drift = DriftModel {
        rate_sigma: 0.1,
        churn_prob: 0.1,
        seed: 5,
    };
    Driver::new(b.build(), drift)
}

/// Each epoch's counters must equal an export on in-place repair epochs
/// too, not only on re-solves.
#[test]
fn epoch_counters_equal_an_export_on_repair_epochs() {
    let mut driver = repair_driver();
    let config = ServeConfig::new(Rate::new(40), Bandwidth::new(1_000))
        .with_snapshot_every(0)
        .with_compaction(3, 20);
    let dir = scratch("repair-counters");
    let mut daemon = Daemon::create(&dir, config, cost()).unwrap();
    let mut repaired = 0;
    let mut evicted = 0;
    let mut batch = driver.initial_events();
    for _ in 0..12 {
        for &e in &batch {
            assert!(daemon.submit(e).unwrap().is_none(), "no watermark is set");
        }
        let stats = daemon.tick().unwrap().expect("a batch closes an epoch");
        repaired += usize::from(check_stats(&daemon, Some(stats)).unwrap());
        evicted += stats.pairs_evicted;
        batch = driver.next_epoch_events();
    }
    assert!(repaired >= 6, "only {repaired} epochs repaired in place");
    assert!(evicted > 0, "no epoch evicted, so pass 2 went untested");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    // Each case runs three daemons with real fsyncs; keep the count low
    // enough for CI while still sweeping kill points, watermarks, and
    // snapshot cadences (including 0 = pure log replay).
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn crash_at_any_event_index_recovers_bit_identically(
        seed in 0u64..1_000,
        cut_raw in 0usize..100_000,
        watermark in 2u64..9,
        snap_every in 0u64..4,
    ) {
        let events = script(seed, 4);
        let cut = cut_raw % (events.len() + 1);
        let config = ServeConfig::new(Rate::new(15), Bandwidth::new(2_000))
            .with_epoch_events(watermark)
            .with_snapshot_every(snap_every);

        // The uninterrupted reference run.
        let dir_a = scratch("live");
        let mut live = Daemon::create(&dir_a, config, cost()).unwrap();
        submit_all(&mut live, &events)?;
        tick(&mut live)?;

        // The crashed run: stop at `cut` and leak the daemon so its
        // BufWriter never flushes — everything buffered since the last
        // epoch fsync is lost, exactly like a kill -9.
        let dir_b = scratch("crash");
        let mut crashed = Daemon::create(&dir_b, config, cost()).unwrap();
        submit_all(&mut crashed, &events[..cut])?;
        std::mem::forget(crashed);

        // Recover and finish the stream. The on-disk log always ends at
        // an epoch mark (fsync happens there), so the daemon has absorbed
        // `epochs * watermark` submitted events plus any replayed tail.
        let mut recovered = Daemon::resume(&dir_b, config, cost()).unwrap();
        let absorbed =
            (recovered.epochs_applied() * watermark + recovered.pending_events()) as usize;
        prop_assert!(absorbed <= cut, "recovery cannot invent events");
        submit_all(&mut recovered, &events[absorbed..])?;
        tick(&mut recovered)?;

        // Bit-identical: epochs, selection, fleet, and workload arenas.
        prop_assert_eq!(live.epochs_applied(), recovered.epochs_applied());
        prop_assert_eq!(live.selection(), recovered.selection());
        prop_assert_eq!(live.allocation(), recovered.allocation());
        let lw = live.workload().unwrap();
        let rw = recovered.workload().unwrap();
        // Whole-struct equality covers every arena — primaries, the
        // derived follower CSR, and the rate-ranked interest rows that a
        // store-format snapshot loads verbatim instead of re-deriving.
        prop_assert_eq!(lw, rw);
        prop_assert_eq!(lw.rates(), rw.rates());
        prop_assert_eq!(lw.num_subscribers(), rw.num_subscribers());
        for v in lw.subscribers() {
            prop_assert_eq!(lw.interests(v), rw.interests(v));
            prop_assert_eq!(lw.ranked_interests(v), rw.ranked_interests(v));
        }
        for t in lw.topics() {
            prop_assert_eq!(lw.subscribers_of(t), rw.subscribers_of(t));
        }

        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    /// A stop after two snapshots, one more epoch, and a few events past
    /// the last epoch mark. Resume keeps only the log records past the
    /// snapshot's (nonzero) sequence number: it re-applies the one epoch
    /// past the snapshot, re-buffers the trailing events, and finishing
    /// the stream lands bit-identically.
    #[test]
    fn resume_past_the_last_snapshot_replays_only_the_suffix(
        seed in 0u64..1_000,
        watermark in 2u64..6,
        tail_raw in 0u64..100_000,
    ) {
        let events = script(seed, 5);
        let config = ServeConfig::new(Rate::new(15), Bandwidth::new(2_000))
            .with_epoch_events(watermark)
            .with_snapshot_every(2);
        let tail = 1 + tail_raw % (watermark - 1);
        let stop = (5 * watermark + tail) as usize;
        prop_assert!(stop < events.len(), "the script outlasts the stop");

        let dir_a = scratch("live-suffix");
        let mut live = Daemon::create(&dir_a, config, cost()).unwrap();
        submit_all(&mut live, &events)?;
        tick(&mut live)?;

        // Snapshots at epochs 2 and 4, epoch 5 past them, then `tail`
        // events of epoch 6. A clean stop flushes them to the log.
        let dir_b = scratch("stopped-suffix");
        let mut stopped = Daemon::create(&dir_b, config, cost()).unwrap();
        submit_all(&mut stopped, &events[..stop])?;
        prop_assert_eq!(stopped.epochs_applied(), 5);
        prop_assert_eq!(stopped.pending_events(), tail);
        drop(stopped);

        let snapshot = Snapshot::load(&dir_b.join(SNAPSHOT_FILE)).unwrap();
        prop_assert_eq!(snapshot.epochs_applied, 4);
        prop_assert!(snapshot.last_seq > 0);
        let mut recovered = Daemon::resume(&dir_b, config, cost()).unwrap();
        let stats = recovered.recovery().unwrap();
        // Every record is one submitted event or one epoch mark.
        prop_assert_eq!(stats.records_verified, stop as u64 + 5);
        prop_assert_eq!(stats.records_replayed, stats.records_verified - snapshot.last_seq);
        prop_assert_eq!(stats.records_replayed, watermark + 1 + tail);
        prop_assert_eq!(stats.epochs_replayed, 1);
        prop_assert_eq!(stats.torn_bytes, 0);
        prop_assert_eq!(recovered.epochs_applied(), 5);
        prop_assert_eq!(recovered.pending_events(), tail);

        submit_all(&mut recovered, &events[stop..])?;
        tick(&mut recovered)?;
        prop_assert_eq!(live.epochs_applied(), recovered.epochs_applied());
        prop_assert_eq!(live.selection(), recovered.selection());
        prop_assert_eq!(live.allocation(), recovered.allocation());
        prop_assert_eq!(live.workload(), recovered.workload());

        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    /// Same crash sweep with periodic ledger compaction enabled. The
    /// compaction pass runs *inside* `apply_epoch` on a steps-only
    /// budget, so a daemon killed right after (or before) a compacting
    /// epoch must re-run the identical moves during replay and land on
    /// the same slot-renumbered ledger as the uninterrupted run.
    #[test]
    fn crash_mid_compaction_replays_identically(
        seed in 0u64..1_000,
        cut_raw in 0usize..100_000,
        compact_every in 1u64..4,
        compact_steps in 1u64..64,
    ) {
        let events = script(seed, 5);
        let cut = cut_raw % (events.len() + 1);
        let config = ServeConfig::new(Rate::new(15), Bandwidth::new(2_000))
            .with_epoch_events(4)
            .with_snapshot_every(0)
            .with_compaction(compact_every, compact_steps);

        let dir_a = scratch("live-compact");
        let mut live = Daemon::create(&dir_a, config, cost()).unwrap();
        submit_all(&mut live, &events)?;
        tick(&mut live)?;

        let dir_b = scratch("crash-compact");
        let mut crashed = Daemon::create(&dir_b, config, cost()).unwrap();
        submit_all(&mut crashed, &events[..cut])?;
        std::mem::forget(crashed);

        let mut recovered = Daemon::resume(&dir_b, config, cost()).unwrap();
        let absorbed = (recovered.epochs_applied() * 4 + recovered.pending_events()) as usize;
        prop_assert!(absorbed <= cut, "recovery cannot invent events");
        submit_all(&mut recovered, &events[absorbed..])?;
        tick(&mut recovered)?;

        prop_assert_eq!(live.epochs_applied(), recovered.epochs_applied());
        prop_assert_eq!(live.selection(), recovered.selection());
        prop_assert_eq!(live.allocation(), recovered.allocation());

        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}

proptest! {
    // Two daemons over ~3k events per case; six cases sweep kill points
    // and snapshot cadences (0 = pure log replay). A block of its own,
    // since a block takes one config.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The crash sweep on `repair_driver`'s workload, whose epochs repair
    /// the ledger in place between compaction passes: a daemon killed at
    /// any event resumes and finishes the stream bit-identically.
    #[test]
    fn crash_across_in_place_repair_epochs_recovers_bit_identically(
        cut_raw in 0usize..100_000,
        snap_every in 0u64..3,
    ) {
        let mut driver = repair_driver();
        let mut events = driver.initial_events();
        for _ in 0..12 {
            events.extend(driver.next_epoch_events());
        }
        let cut = cut_raw % (events.len() + 1);
        let config = ServeConfig::new(Rate::new(40), Bandwidth::new(1_000))
            .with_epoch_events(150)
            .with_snapshot_every(snap_every)
            .with_compaction(3, 20);

        let dir_a = scratch("live-repair");
        let mut live = Daemon::create(&dir_a, config, cost()).unwrap();
        let repaired = submit_all(&mut live, &events)? + usize::from(tick(&mut live)?);
        prop_assert!(repaired >= 10, "only {} epochs repaired in place", repaired);

        let dir_b = scratch("crash-repair");
        let mut crashed = Daemon::create(&dir_b, config, cost()).unwrap();
        submit_all(&mut crashed, &events[..cut])?;
        std::mem::forget(crashed);

        let mut recovered = Daemon::resume(&dir_b, config, cost()).unwrap();
        let absorbed =
            (recovered.epochs_applied() * 150 + recovered.pending_events()) as usize;
        prop_assert!(absorbed <= cut, "recovery cannot invent events");
        submit_all(&mut recovered, &events[absorbed..])?;
        tick(&mut recovered)?;

        prop_assert_eq!(live.epochs_applied(), recovered.epochs_applied());
        prop_assert_eq!(live.selection(), recovered.selection());
        prop_assert_eq!(live.allocation(), recovered.allocation());
        prop_assert_eq!(live.workload(), recovered.workload());

        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
