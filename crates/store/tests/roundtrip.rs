//! Property tests for the `MCSSTOR1` container and the workload codec:
//! random workloads round-trip bit-identically, sections land
//! page-aligned, header-level damage fails closed, and an id arena whose
//! checksum holds but whose ids overrun their bound is refused by name.

use mcss_store::{
    crc32, read_workload_sections, section, write_workload_sections, SectionSink, StoreBuilder,
    StoreError, StoreReader, WorkloadStoreExt, PAGE,
};
use proptest::prelude::*;
use pubsub_model::{Rate, TopicId, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mcss-store-rt-{}-{}-{tag}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A random workload: `topics` rates in 1..=max_rate, each subscriber
/// interested in a random subset (possibly with duplicates — the
/// builder normalizes them).
fn arb_workload() -> impl Strategy<Value = Workload> {
    (1usize..12, 0usize..24).prop_flat_map(|(topics, subs)| {
        (
            proptest::collection::vec(1u64..500, topics),
            proptest::collection::vec(proptest::collection::vec(0..topics as u32, 0..8), subs),
        )
            .prop_map(|(rates, interests)| {
                Workload::from_parts(
                    rates.into_iter().map(Rate::new).collect(),
                    interests
                        .into_iter()
                        .map(|row| row.into_iter().map(TopicId::new).collect())
                        .collect(),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole contract: `to_store` → `from_store` is the identity
    /// on every arena, primaries and derived tables alike.
    #[test]
    fn workload_roundtrips_bit_identically(workload in arb_workload()) {
        let dir = scratch("wl");
        let path = dir.join("workload.mcss");
        workload.to_store(&path).unwrap();
        let loaded = Workload::from_store(&path).unwrap();
        prop_assert_eq!(&loaded, &workload);
        for v in workload.subscribers() {
            prop_assert_eq!(loaded.interests(v), workload.interests(v));
            prop_assert_eq!(loaded.ranked_interests(v), workload.ranked_interests(v));
        }
        for t in workload.topics() {
            prop_assert_eq!(loaded.subscribers_of(t), workload.subscribers_of(t));
        }
        prop_assert_eq!(loaded.pair_count(), workload.pair_count());
        prop_assert_eq!(loaded.total_rate(), workload.total_rate());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every section payload sits at a page-aligned offset with the
    /// exact length and CRC the table declares.
    #[test]
    fn sections_are_page_aligned_and_checksummed(workload in arb_workload()) {
        let dir = scratch("align");
        let path = dir.join("workload.mcss");
        workload.to_store(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        prop_assert_eq!(reader.file_len(), bytes.len() as u64);
        for info in reader.sections() {
            prop_assert_eq!(info.offset % PAGE as u64, 0);
            prop_assert!(info.offset >= PAGE as u64);
            let payload = &bytes[info.offset as usize..(info.offset + info.len) as usize];
            prop_assert_eq!(crc32(payload), info.crc);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating the file anywhere makes open fail closed — either the
    /// header length check or (cut inside the header page) the magic /
    /// checksum checks — never a panic, never silent success.
    #[test]
    fn truncation_fails_closed(workload in arb_workload(), cut_raw in 0usize..1_000_000) {
        let dir = scratch("trunc");
        let path = dir.join("workload.mcss");
        workload.to_store(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = cut_raw % bytes.len();
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = StoreReader::open(&path).unwrap_err();
        prop_assert!(
            matches!(
                err,
                StoreError::BadMagic | StoreError::HeaderCorrupt(_)
            ),
            "unexpected error for cut at {cut}: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn empty_workload_roundtrips() {
    let dir = scratch("empty");
    let path = dir.join("empty.mcss");
    let workload = Workload::from_parts(Vec::new(), Vec::new());
    workload.to_store(&path).unwrap();
    let loaded = Workload::from_store(&path).unwrap();
    assert_eq!(loaded, workload);
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a store image to a fresh scratch file and opens it.
fn open_image(tag: &str, image: &[u8]) -> (PathBuf, Result<StoreReader, StoreError>) {
    let dir = scratch(tag);
    let path = dir.join("image.mcss");
    std::fs::write(&path, image).unwrap();
    let reader = StoreReader::open(&path);
    (dir, reader)
}

#[test]
fn wrong_magic_is_rejected() {
    let (dir, reader) = open_image("magic", &b"NOTASTOR".repeat(PAGE / 8));
    let err = reader.unwrap_err();
    assert!(matches!(err, StoreError::BadMagic), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn future_version_is_rejected_by_number() {
    let dir = scratch("version");
    let path = dir.join("v.mcss");
    Workload::from_parts(vec![Rate::new(5)], vec![vec![TopicId::new(0)]])
        .to_store(&path)
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    // Re-seal the header so the version check, not the checksum, fires.
    bytes[24..28].copy_from_slice(&[0; 4]);
    let reseal = crc32(&bytes[..PAGE]);
    bytes[24..28].copy_from_slice(&reseal.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = StoreReader::open(&path).unwrap_err();
    assert!(
        matches!(err, StoreError::UnsupportedVersion(99)),
        "got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_section_is_named() {
    let (dir, reader) = open_image("missing", &StoreBuilder::new().to_bytes());
    let err = reader.unwrap().read_bytes(section::RATES).unwrap_err();
    assert!(
        err.to_string().contains("`rates`"),
        "missing-section error must name the section: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_sections_are_preserved_for_future_writers() {
    let mut b = StoreBuilder::new();
    b.section(0x7F, vec![1, 2, 3]);
    let (dir, reader) = open_image("unknown", &b.to_bytes());
    let mut reader = reader.unwrap();
    assert_eq!(reader.sections().len(), 1);
    assert_eq!(reader.sections()[0].name, "unknown");
    assert_eq!(reader.read_bytes(0x7F).unwrap(), [1, 2, 3]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The reader's chunk size: an arena past two of them spans three reads.
const CHUNK: usize = 512 * 1024;

/// 40,000 subscribers of eight topics each over 2,000 topics: 320k pairs,
/// so each id arena is 1.28 MB, past two reader chunks.
fn large_workload() -> Workload {
    let topics = 2_000u32;
    let rates = (0..topics)
        .map(|t| Rate::new(1 + u64::from(t % 89)))
        .collect();
    let interests = (0..40_000u32)
        .map(|v| {
            let first = v.wrapping_mul(2_654_435_761) >> 9;
            (0..8u32)
                .map(|k| TopicId::new(first.wrapping_add(k * 241) % topics))
                .collect()
        })
        .collect();
    Workload::from_parts(rates, interests)
}

/// The store at `pristine` rebuilt section by section with
/// `ids[index] = value` in the id arena `target`. Every checksum is valid.
fn store_with_id(pristine: &Path, target: u32, index: usize, value: u32) -> Vec<u8> {
    let mut reader = StoreReader::open(pristine).unwrap();
    let mut rebuilt = StoreBuilder::new();
    for info in reader.sections().to_vec() {
        let mut bytes = reader.read_bytes(info.id).unwrap();
        if info.id == target {
            bytes[index * 4..index * 4 + 4].copy_from_slice(&value.to_le_bytes());
        }
        rebuilt.section(info.id, bytes);
    }
    rebuilt.to_bytes()
}

/// An id equal to its arena's bound, first in the section, mid-section or
/// in the last of its three chunks, fails the load with
/// `SectionMalformed` naming that section and element; the id one below
/// the bound, last in the section, still loads.
#[test]
fn an_id_at_its_bound_fails_closed_with_the_section_named() {
    let workload = large_workload();
    let (topics, subscribers) = (
        workload.num_topics() as u32,
        workload.num_subscribers() as u32,
    );
    let pairs = workload.pair_count() as usize;
    assert!(
        pairs * 4 > 2 * CHUNK,
        "each id arena must span three chunks"
    );

    let dir = scratch("bounds");
    let pristine = dir.join("pristine.mcss");
    let mut written = StoreBuilder::new();
    write_workload_sections(&mut written, &workload).unwrap();
    written.write(&pristine).unwrap();
    let path = dir.join("hostile.mcss");

    let arenas = [
        (section::INTEREST_TOPICS, "interest-topics", topics),
        (section::RANKED_TOPICS, "ranked-topics", topics),
        (section::FOLLOWER_IDS, "follower-ids", subscribers),
    ];
    for (id, name, bound) in arenas {
        for index in [0, pairs / 2, pairs - 1] {
            std::fs::write(&path, store_with_id(&pristine, id, index, bound)).unwrap();
            match Workload::from_store(&path) {
                Err(StoreError::SectionMalformed { section, detail }) => {
                    assert_eq!(section, name, "{detail}");
                    assert!(
                        detail.contains(&format!("element {index} is id {bound}")),
                        "`{name}` must name element {index}: {detail}"
                    );
                }
                other => panic!("id {bound} at {index} of `{name}` gave {other:?}"),
            }
        }
        std::fs::write(&path, store_with_id(&pristine, id, pairs - 1, bound - 1)).unwrap();
        let loaded = Workload::from_store(&path)
            .unwrap_or_else(|e| panic!("id {} last in `{name}`: {e}", bound - 1));
        assert_eq!(loaded.pair_count(), workload.pair_count());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The reader's range check on its own: `read_ids` returns ids all below
/// their bound and names the first that is not, across chunks; a
/// workload with no topics (a bound of 0 over empty arenas) loads.
#[test]
fn read_ids_names_the_first_id_past_the_bound() {
    let bound = 1_000u32;
    let ids: Vec<u32> = (0..(3 * CHUNK / 4) as u32).map(|i| i % bound).collect();
    let image = |ids: &[u32]| {
        let mut b = StoreBuilder::new();
        b.put_section(0x40, ids, |v| v.to_le_bytes()).unwrap();
        b.to_bytes()
    };
    let (dir, reader) = open_image("read-ids", &image(&ids));
    assert_eq!(reader.unwrap().read_ids(0x40, bound).unwrap(), ids);
    std::fs::remove_dir_all(&dir).ok();

    // Offenders in the second and third chunks: the second's is named.
    let mut hostile = ids.clone();
    let (second, third) = (CHUNK / 4 + 3, CHUNK / 2 + 5);
    hostile[second] = bound;
    hostile[third] = u32::MAX;
    let (dir, reader) = open_image("read-ids-hostile", &image(&hostile));
    let err = reader.unwrap().read_ids(0x40, bound).unwrap_err();
    assert!(
        err.to_string().contains(&format!(
            "element {second} is id {bound}, not below the bound {bound}"
        )),
        "got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();

    let no_topics = Workload::from_parts(Vec::new(), vec![Vec::new()]);
    let mut b = StoreBuilder::new();
    write_workload_sections(&mut b, &no_topics).unwrap();
    let (dir, reader) = open_image("no-topics", &b.to_bytes());
    assert_eq!(
        read_workload_sections(&mut reader.unwrap()).unwrap(),
        no_topics
    );
    std::fs::remove_dir_all(&dir).ok();
}
