//! Disk-fault property tests for the event-sourced serve daemon.
//!
//! The contract under test (ISSUE: "never a panic, never silent
//! corruption"): inject disk faults — short writes from a dying device,
//! transient fsync failures, at-rest bit flips — at arbitrary points in
//! a serve run, across snapshot cadences. Recovery must either
//! reconstruct state **bit-identically** to an uninterrupted run (after
//! replaying whatever the durable prefix lost) or fail closed with a
//! clean [`ServeError`] diagnostic. A panic or a silently-wrong
//! recovered state is a bug.

use cloud_cost::{CostModel, LinearCostModel, Money};
use mcss_core::dynamic::DriftModel;
use mcss_core::serve::{
    Daemon, Driver, Event, FaultInjector, IoFault, ServeConfig, Snapshot, LOG_FILE, SNAPSHOT_FILE,
};
use mcss_core::{Allocation, Selection};
use proptest::prelude::*;
use pubsub_model::{Bandwidth, Rate, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mcss-fault-inject-{}-{}-{tag}",
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

/// Everything that must come back bit-identical after recovery.
fn fingerprint(d: &Daemon) -> (u64, Option<Selection>, Option<Allocation>) {
    (d.epochs_applied(), d.selection().cloned(), d.allocation())
}

/// The uninterrupted reference run every faulted run is judged against.
fn run_clean(events: &[Event], config: ServeConfig, dir: &Path) -> Daemon {
    let mut d = Daemon::create(dir, config, cost()).unwrap();
    for &e in events {
        d.submit(e).unwrap();
    }
    d.tick().unwrap();
    d
}

proptest! {
    // Real files and real fsyncs per case; the case count stays CI-sized
    // while the sweep still covers fault point x fault kind x snapshot
    // cadence (including 0 = pure log replay).
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Write-path faults: a dying disk (short write, then every later
    /// write fails) or a transient fsync failure, armed at an arbitrary
    /// event index. If the daemon survives (retries absorbed the fault)
    /// its state must equal the reference; if it errors out, resume on
    /// the durable prefix plus a replay of the lost tail must equal the
    /// reference.
    #[test]
    fn write_faults_never_panic_or_corrupt_recovery(
        seed in 0u64..1_000,
        kind in 0usize..2,
        keep in 0usize..32,
        times in 1u32..4,
        arm_at_raw in 0usize..100_000,
        watermark in 2u64..7,
        snap_every in 0u64..3,
    ) {
        let events = script(seed, 3);
        let config = ServeConfig::new(Rate::new(15), Bandwidth::new(2_000))
            .with_epoch_events(watermark)
            .with_snapshot_every(snap_every)
            .with_sync_retries(1, 0);
        let dir_ref = scratch("write-ref");
        let reference = run_clean(&events, config, &dir_ref);

        let injector = FaultInjector::new();
        let dir = scratch("write-fault");
        let mut daemon =
            Daemon::create_with_faults(&dir, config, cost(), Some(injector.clone())).unwrap();
        let arm_at = arm_at_raw % events.len();
        let mut crashed = false;
        for (i, &e) in events.iter().enumerate() {
            if i == arm_at {
                match kind {
                    0 => injector.arm(IoFault::ShortWrite { keep }),
                    _ => injector.arm(IoFault::SyncFail { times }),
                }
            }
            if let Err(err) = daemon.submit(e) {
                prop_assert!(!err.to_string().is_empty(), "diagnostic must name the fault");
                crashed = true;
                break;
            }
        }
        if !crashed {
            if let Err(err) = daemon.tick() {
                prop_assert!(!err.to_string().is_empty());
                crashed = true;
            }
        }

        if crashed {
            // kill -9 the poisoned daemon, revive the "device", recover.
            std::mem::forget(daemon);
            injector.disarm();
            let mut recovered = Daemon::resume(&dir, config, cost()).unwrap();
            let absorbed = ((recovered.epochs_applied() * watermark
                + recovered.pending_events()) as usize)
                .min(events.len());
            for &e in &events[absorbed..] {
                recovered.submit(e).unwrap();
            }
            recovered.tick().unwrap();
            prop_assert_eq!(fingerprint(&reference), fingerprint(&recovered));
        } else {
            // The fault was absorbed (fsync retry) or never fired; state
            // must be exactly the reference's either way.
            prop_assert_eq!(fingerprint(&reference), fingerprint(&daemon));
        }

        std::fs::remove_dir_all(&dir_ref).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// At-rest corruption: flip one byte somewhere in the log or the
    /// snapshot of a completed run. Resume must either recover a valid
    /// prefix (finishing the stream then matches the reference exactly)
    /// or refuse with a clean diagnostic — never panic, never come back
    /// with silently-wrong state. A flip in the log header or in a record
    /// the snapshot covers must fail closed, name the record, and leave
    /// `events.log` byte-identical: covered records were fsynced before
    /// the snapshot existed, so they are never a torn tail to cut.
    #[test]
    fn bit_flips_recover_a_valid_prefix_or_fail_closed(
        seed in 0u64..1_000,
        watermark in 2u64..7,
        snap_every in 0u64..3,
        hit_snapshot_raw in 0usize..2,
        flip_raw in 0usize..100_000,
    ) {
        let events = script(seed, 3);
        let config = ServeConfig::new(Rate::new(15), Bandwidth::new(2_000))
            .with_epoch_events(watermark)
            .with_snapshot_every(snap_every);
        let dir_ref = scratch("flip-ref");
        let reference = run_clean(&events, config, &dir_ref);
        let dir = scratch("flip");
        drop(run_clean(&events, config, &dir));

        let snap_path = dir.join(SNAPSHOT_FILE);
        let hit_snapshot = hit_snapshot_raw == 1;
        let path = if hit_snapshot && snap_path.exists() {
            snap_path.clone()
        } else {
            dir.join(LOG_FILE)
        };
        let mut bytes = std::fs::read(&path).unwrap();
        let at = flip_raw % bytes.len();
        // The log record the flip lands in (0 = the header) and its byte
        // offset, from the clean file's framing: a 12-byte header, then
        // per record a CRC32, a payload length and the payload.
        let hit_log = path == dir.join(LOG_FILE);
        let (mut record, mut start) = (0u64, 12usize);
        while hit_log && at >= start {
            let len = u32::from_le_bytes(bytes[start + 4..start + 8].try_into().unwrap());
            record += 1;
            if at < start + 8 + len as usize {
                break;
            }
            start += 8 + len as usize;
        }
        let covered = if hit_log && snap_path.exists() {
            Snapshot::load(&snap_path).unwrap().last_seq
        } else {
            0
        };
        let must_fail_closed = hit_log && record <= covered;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        match Daemon::resume(&dir, config, cost()) {
            Ok(_) if must_fail_closed => {
                prop_assert!(false, "resume accepted a flip in covered record {}", record);
            }
            Ok(mut recovered) => {
                // Valid-prefix recovery: the flip truncated the log at
                // the damaged record (or landed in slack the decoder
                // never trusts). Finishing the stream must converge on
                // the reference state exactly.
                let absorbed = ((recovered.epochs_applied() * watermark
                    + recovered.pending_events()) as usize)
                    .min(events.len());
                for &e in &events[absorbed..] {
                    recovered.submit(e).unwrap();
                }
                recovered.tick().unwrap();
                prop_assert_eq!(fingerprint(&reference), fingerprint(&recovered));
            }
            Err(err) => {
                // Fail closed: a clean, printable diagnostic.
                prop_assert!(!err.to_string().is_empty());
                if must_fail_closed {
                    prop_assert_eq!(&std::fs::read(&path).unwrap(), &bytes, "the log was touched");
                    if record > 0 {
                        let named = format!("record {record} at byte offset {start}");
                        prop_assert!(err.to_string().contains(&named), "{}", err);
                    }
                }
            }
        }

        std::fs::remove_dir_all(&dir_ref).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A failed snapshot write must not clobber the previous snapshot: the
/// write goes to a temp file and renames only on success, so resume
/// falls back to old-snapshot + log replay and lands bit-identically.
#[test]
fn snapshot_write_faults_keep_the_old_snapshot_usable() {
    let events = script(7, 3);
    let config = ServeConfig::new(Rate::new(15), Bandwidth::new(2_000))
        .with_epoch_events(5)
        .with_snapshot_every(0);
    let dir_ref = scratch("snapfault-ref");
    let reference = run_clean(&events, config, &dir_ref);

    let injector = FaultInjector::new();
    let dir = scratch("snapfault");
    let mut daemon =
        Daemon::create_with_faults(&dir, config, cost(), Some(injector.clone())).unwrap();
    let half = events.len() / 2;
    for &e in &events[..half] {
        daemon.submit(e).unwrap();
    }
    daemon.tick().unwrap();
    daemon.snapshot_now().unwrap();
    let good_snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();

    for &e in &events[half..] {
        daemon.submit(e).unwrap();
    }
    daemon.tick().unwrap();
    injector.arm(IoFault::ShortWrite { keep: 5 });
    let err = daemon.snapshot_now().unwrap_err();
    assert!(
        err.to_string().contains("injected fault"),
        "unexpected error: {err}"
    );
    assert_eq!(
        std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
        good_snapshot,
        "failed snapshot write must not touch the published snapshot"
    );

    // The "device" died mid-snapshot; crash, revive, recover from the
    // old snapshot plus the (fully synced) log tail.
    std::mem::forget(daemon);
    injector.disarm();
    let mut recovered = Daemon::resume(&dir, config, cost()).unwrap();
    let absorbed =
        ((recovered.epochs_applied() * 5 + recovered.pending_events()) as usize).min(events.len());
    for &e in &events[absorbed..] {
        recovered.submit(e).unwrap();
    }
    recovered.tick().unwrap();
    assert_eq!(fingerprint(&reference), fingerprint(&recovered));

    std::fs::remove_dir_all(&dir_ref).ok();
    std::fs::remove_dir_all(&dir).ok();
}
