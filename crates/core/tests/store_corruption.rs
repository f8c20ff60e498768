//! Corruption sweep for the `MCSSTOR1` store (ISSUE 10 satellite): flip
//! one byte in *every* section of a valid store — a workload store and
//! a full daemon snapshot — and assert the load fails closed with the
//! damaged section *named*, never a panic and never silent success.
//! Also sweeps short writes through the PR 8 `FaultInjector` (a torn
//! snapshot write must leave the previous snapshot intact) and checks
//! drift-evolved workloads round-trip bit-identically.

use cloud_cost::{CostModel, LinearCostModel, Money};
use mcss_core::dynamic::DriftModel;
use mcss_core::serve::{
    Daemon, Driver, FaultInjector, IoFault, ServeConfig, ServeError, Snapshot, SNAPSHOT_FILE,
};
use mcss_store::{section, section_name, StoreBuilder, StoreReader, WorkloadStoreExt};
use proptest::prelude::*;
use pubsub_model::{Bandwidth, Rate, TopicId, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mcss-store-corrupt-{}-{}-{tag}",
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

/// A workload evolved through `batches` drift epochs — richer section
/// contents than the base workload (tombstoned rates, churned rows).
fn drifted_workload(seed: u64, batches: usize) -> Workload {
    let drift = DriftModel {
        rate_sigma: 0.3,
        churn_prob: 0.4,
        seed,
    };
    let mut driver = Driver::new(base_workload(), drift);
    driver.initial_events();
    for _ in 0..batches {
        driver.next_epoch_events();
    }
    driver.workload().clone()
}

/// The configuration of [`daemon_snapshot`]'s session.
fn snapshot_config() -> ServeConfig {
    ServeConfig::new(Rate::new(15), Bandwidth::new(2_000))
        .with_epoch_events(4)
        .with_snapshot_every(0)
}

/// Runs a short daemon session and snapshots it, returning the
/// snapshot path — a store file with *all* section kinds populated
/// (serve meta, workload, selection, ledger).
fn daemon_snapshot(dir: &Path) -> PathBuf {
    let drift = DriftModel {
        rate_sigma: 0.3,
        churn_prob: 0.4,
        seed: 42,
    };
    let mut driver = Driver::new(base_workload(), drift);
    let mut daemon = Daemon::create(dir, snapshot_config(), cost()).unwrap();
    for e in driver.initial_events() {
        daemon.submit(e).unwrap();
    }
    for _ in 0..3 {
        for e in driver.next_epoch_events() {
            daemon.submit(e).unwrap();
        }
    }
    daemon.tick().unwrap();
    daemon.snapshot_now().unwrap()
}

/// The satellite contract, verbatim: one flipped byte per section, the
/// load names the section, and no input panics.
#[test]
fn flipping_any_section_byte_fails_closed_with_the_section_named() {
    let dir = scratch("snapshot-sweep");
    let path = daemon_snapshot(&dir);
    let pristine = std::fs::read(&path).unwrap();
    let reader = StoreReader::open(&path).unwrap();
    let sections: Vec<_> = reader
        .sections()
        .iter()
        .map(|s| (s.name, s.offset, s.len))
        .collect();
    assert!(
        sections.len() >= 13,
        "a daemon snapshot should populate every section kind, found {sections:?}"
    );
    // Sanity: the pristine file loads.
    Snapshot::load(&path).unwrap();

    for (name, offset, len) in sections {
        if len == 0 {
            continue; // an empty payload has no byte to flip
        }
        let mut damaged = pristine.clone();
        let target = (offset + len / 2) as usize;
        damaged[target] ^= 0x01;
        std::fs::write(&path, &damaged).unwrap();
        let err = Snapshot::load(&path).expect_err(&format!(
            "flipping a byte of section `{name}` must not load silently"
        ));
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("`{name}`")),
            "error for damaged section `{name}` must name it, got: {msg}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Same sweep against a plain workload store written by `to_store`.
#[test]
fn workload_store_corruption_names_each_section() {
    let dir = scratch("workload-sweep");
    let path = dir.join("workload.mcss");
    drifted_workload(7, 4).to_store(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let reader = StoreReader::open(&path).unwrap();
    let sections: Vec<_> = reader
        .sections()
        .iter()
        .map(|s| (s.name, s.offset, s.len))
        .collect();
    assert_eq!(sections.len(), 7, "workload stores hold seven sections");
    for (name, offset, len) in sections {
        if len == 0 {
            continue;
        }
        let mut damaged = pristine.clone();
        damaged[(offset + len - 1) as usize] ^= 0x80;
        std::fs::write(&path, &damaged).unwrap();
        let err = Workload::from_store(&path).expect_err(&format!(
            "flipping a byte of section `{name}` must not load silently"
        ));
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("`{name}`")),
            "error for damaged section `{name}` must name it, got: {msg}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Arena sections longer than two of the reader's 512 KiB chunks: the
/// store round-trips bit-identically, and a byte flipped in the last
/// chunk of each such section fails closed with that section named —
/// the chained per-chunk checksum covers every chunk, not just the first.
#[test]
fn multi_chunk_sections_roundtrip_and_fail_closed() {
    const CHUNK: u64 = 512 * 1024;
    let topics = 4_000u32;
    let rates = (0..topics)
        .map(|t| Rate::new(1 + u64::from(t % 97)))
        .collect();
    let interests = (0..20_000u32)
        .map(|v| {
            let first = v.wrapping_mul(2_654_435_761) >> 8;
            (0..16u32)
                .map(|k| TopicId::new(first.wrapping_add(k * 251) % topics))
                .collect()
        })
        .collect();
    let workload = Workload::from_parts(rates, interests);
    assert!(workload.pair_count() >= 300_000);

    let dir = scratch("multi-chunk");
    let path = dir.join("large.mcss");
    workload.to_store(&path).unwrap();
    let loaded = Workload::from_store(&path).unwrap();
    assert_eq!(loaded, workload);
    for v in workload.subscribers() {
        assert_eq!(loaded.ranked_interests(v), workload.ranked_interests(v));
    }

    let pristine = std::fs::read(&path).unwrap();
    let large: Vec<_> = StoreReader::open(&path)
        .unwrap()
        .sections()
        .iter()
        .filter(|s| s.len > 2 * CHUNK)
        .map(|s| (s.name, s.offset, s.len))
        .collect();
    let names: Vec<_> = large.iter().map(|s| s.0).collect();
    assert_eq!(names, ["interest-topics", "ranked-topics", "follower-ids"]);
    for (name, offset, len) in large {
        let last_chunk = offset + (len - 1) / CHUNK * CHUNK;
        for target in [last_chunk, offset + len - 1] {
            let mut damaged = pristine.clone();
            damaged[target as usize] ^= 0x10;
            std::fs::write(&path, &damaged).unwrap();
            let msg = Workload::from_store(&path)
                .expect_err(&format!("a flipped byte in `{name}` must not load"))
                .to_string();
            assert!(
                msg.contains(&format!("`{name}`")) && msg.contains("CRC32"),
                "damage in the last chunk of `{name}` must name it, got: {msg}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot whose checksums all hold but one of whose id arenas names
/// an id at its bound (subscriber `|V|` or topic `|T|`, one past the
/// last) fails closed: `Snapshot::load` and `Daemon::resume` both report
/// it corrupt, naming the section. The reader range-checks the id arenas
/// of the workload, the selection and the ledger as it reads them.
#[test]
fn snapshot_with_an_id_at_its_bound_fails_closed() {
    let bounds = |w: &Workload| {
        [
            (section::FOLLOWER_IDS, w.num_subscribers()),
            (section::SELECTION_TOPICS, w.num_topics()),
            (section::LEDGER_ROW_TOPICS, w.num_topics()),
            (section::LEDGER_SUBSCRIBERS, w.num_subscribers()),
        ]
    };
    for case in 0..4 {
        let dir = scratch("snapshot-bound");
        let path = daemon_snapshot(&dir);
        let (id, bound) = bounds(&Snapshot::load(&path).unwrap().workload)[case];
        let (name, bound) = (section_name(id), bound as u32);
        let mut reader = StoreReader::open(&path).unwrap();
        let table = reader.sections().to_vec();
        let mut rebuilt = StoreBuilder::new();
        for info in table {
            let mut bytes = reader.read_bytes(info.id).unwrap();
            if info.id == id {
                assert!(bytes.len() >= 4, "section `{name}` holds no id");
                bytes[..4].copy_from_slice(&bound.to_le_bytes());
            }
            rebuilt.section(info.id, bytes);
        }
        rebuilt.write(&path).unwrap();
        let expected = format!("`{name}` is malformed: element 0 is id {bound}");
        match Snapshot::load(&path) {
            Err(ServeError::Corrupt { detail, .. }) => {
                assert!(detail.contains(&expected), "load: got {detail}")
            }
            other => panic!("load with `{name}` at its bound: {:?}", other.map(|_| ())),
        }
        match Daemon::resume(&dir, snapshot_config(), cost()) {
            Err(ServeError::Corrupt { detail, .. }) => {
                assert!(detail.contains(&expected), "resume: got {detail}")
            }
            other => panic!("resume with `{name}` at its bound: {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A snapshot whose checksums all hold but whose ledger arena breaks the
/// canonical layout the ledger searches and splices in place (rows out of
/// topic order, subscribers out of order, an empty row, rows on a
/// tombstoned slot) fails closed: `Snapshot::load` and `Daemon::resume`
/// both report it corrupt, naming the section.
#[test]
fn snapshot_with_a_non_canonical_ledger_fails_closed() {
    // Swaps the u32s at `at` and `at + 1`.
    let swap = |bytes: &mut [u8], at: usize| {
        let (a, b) = bytes[at * 4..at * 4 + 8].split_at_mut(4);
        a.swap_with_slice(b);
    };
    for case in 0..4 {
        let dir = scratch("snapshot-canonical");
        let path = daemon_snapshot(&dir);
        // From the valid arena: the first row of the first slot with two
        // rows, the first pair of the first row with two subscribers, and
        // the first slot that owns rows.
        let slots = Snapshot::load(&path).unwrap().slots;
        let (mut row, mut pair) = (0, 0);
        let (mut two_rows, mut two_pairs, mut owner) = (None, None, None);
        for slot in 0..slots.len() {
            let vm = slots.vm(slot);
            if vm.topic_count() > 0 {
                owner.get_or_insert(slot);
            }
            if vm.topic_count() >= 2 {
                two_rows.get_or_insert(row);
            }
            for (_, subs) in vm.rows() {
                if subs.len() >= 2 {
                    two_pairs.get_or_insert(pair);
                }
                row += 1;
                pair += subs.len();
            }
        }
        let (id, expected) = match case {
            0 => (
                section::LEDGER_ROW_TOPICS,
                "rows are not strictly ascending by topic",
            ),
            1 => (
                section::LEDGER_SUBSCRIBERS,
                "subscribers are not strictly ascending",
            ),
            2 => (
                section::LEDGER_ROW_OFFSETS,
                "row offsets must climb strictly",
            ),
            _ => (
                section::LEDGER_SLOTS,
                "is tombstoned or failed but owns rows",
            ),
        };
        let name = section_name(id);
        let mut reader = StoreReader::open(&path).unwrap();
        let table = reader.sections().to_vec();
        let mut rebuilt = StoreBuilder::new();
        for info in table {
            let mut bytes = reader.read_bytes(info.id).unwrap();
            if info.id == id {
                match case {
                    0 => swap(&mut bytes, two_rows.expect("a slot with two rows")),
                    1 => swap(&mut bytes, two_pairs.expect("a row with two subscribers")),
                    // Row 0 ends where it starts.
                    2 => bytes[4..8].copy_from_slice(&0u32.to_le_bytes()),
                    _ => {
                        let at = owner.expect("a slot with rows") * 24 + 16;
                        bytes[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
                    }
                }
            }
            rebuilt.section(info.id, bytes);
        }
        rebuilt.write(&path).unwrap();
        let named = format!("`{name}` is malformed");
        match Snapshot::load(&path) {
            Err(ServeError::Corrupt { detail, .. }) => assert!(
                detail.contains(&named) && detail.contains(expected),
                "load: got {detail}"
            ),
            other => panic!("load with a broken `{name}`: {:?}", other.map(|_| ())),
        }
        match Daemon::resume(&dir, snapshot_config(), cost()) {
            Err(ServeError::Corrupt { detail, .. }) => assert!(
                detail.contains(&named) && detail.contains(expected),
                "resume: got {detail}"
            ),
            other => panic!("resume with a broken `{name}`: {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Header damage (the page before any section) also fails closed.
#[test]
fn header_damage_fails_closed() {
    let dir = scratch("header");
    let path = dir.join("workload.mcss");
    drifted_workload(3, 2).to_store(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    for target in [9usize, 13, 20, 40, 50] {
        let mut damaged = pristine.clone();
        damaged[target] ^= 0xFF;
        std::fs::write(&path, &damaged).unwrap();
        assert!(
            Workload::from_store(&path).is_err(),
            "header byte {target} flipped but the store still loaded"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A short write torn mid-snapshot (the PR 8 injector kills the fake
/// device partway through the tmp file) must leave the previous
/// snapshot loadable — the atomic tmp+rename contract on the new
/// container format.
#[test]
fn short_write_leaves_previous_snapshot_intact() {
    let dir = scratch("short-write");
    let path = daemon_snapshot(&dir);
    let before = Snapshot::load(&path).unwrap();

    let injector = FaultInjector::new();
    let config = ServeConfig::new(Rate::new(15), Bandwidth::new(2_000))
        .with_epoch_events(4)
        .with_snapshot_every(0);
    let mut daemon = Daemon::resume_with_faults(&dir, config, cost(), Some(injector.clone()))
        .expect("resume from the store snapshot");
    let drift = DriftModel {
        rate_sigma: 0.3,
        churn_prob: 0.4,
        seed: 99,
    };
    let mut driver = Driver::new(daemon.workload().unwrap().clone(), drift);
    for e in driver.next_epoch_events() {
        daemon.submit(e).unwrap();
    }
    daemon.tick().unwrap();
    injector.arm(IoFault::ShortWrite { keep: 100 });
    daemon
        .snapshot_now()
        .expect_err("a torn snapshot write must surface as an error");
    drop(daemon);

    // The half-written tmp never replaced the real snapshot.
    let after = Snapshot::load(dir.join(SNAPSHOT_FILE).as_path()).unwrap();
    assert_eq!(after.last_seq, before.last_seq);
    assert_eq!(after.workload, before.workload);
    assert_eq!(after.selection, before.selection);
    assert_eq!(after.slots, before.slots);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Drift-sequence round-trip (the tentpole's property contract):
    /// however far a workload has churned from its seed, the store
    /// reproduces it bit-identically, ranked and follower arenas
    /// included.
    #[test]
    fn drift_sequences_roundtrip_bit_identically(
        seed in 0u64..1_000,
        batches in 0usize..6,
    ) {
        let dir = scratch("drift-rt");
        let path = dir.join("drifted.mcss");
        let workload = drifted_workload(seed, batches);
        workload.to_store(&path).unwrap();
        let loaded = Workload::from_store(&path).unwrap();
        prop_assert_eq!(&loaded, &workload);
        for v in workload.subscribers() {
            prop_assert_eq!(loaded.ranked_interests(v), workload.ranked_interests(v));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
