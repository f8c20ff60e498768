//! Workload sections: writing a [`Workload`]'s six arenas into a store
//! and reassembling them with zero per-row work.

use crate::format::{section, SectionSink, StoreBuilder, StoreError, StoreReader};
use pubsub_model::{Rate, SubscriberId, TopicId, Workload};
use std::io;
use std::path::Path;

fn malformed(section_id: u32, detail: impl Into<String>) -> StoreError {
    StoreError::SectionMalformed {
        section: crate::format::section_name(section_id).to_string(),
        detail: detail.into(),
    }
}

/// Writes the seven workload sections (meta + six arenas) to `store`.
/// The arenas are written verbatim from [`Workload::arenas`], so the
/// payload bytes *are* the in-memory representation (little-endian).
/// This list is the workload layout of both `to_store` and the serve
/// daemon's snapshots.
///
/// # Errors
///
/// An I/O error from a streaming sink.
pub fn write_workload_sections<S: SectionSink>(
    store: &mut S,
    workload: &Workload,
) -> io::Result<()> {
    let a = workload.arenas();
    let shape = [a.rates.len() as u64, (a.interest_offsets.len() - 1) as u64];
    store.put_section(section::WORKLOAD_META, &shape, |n| n.to_le_bytes())?;
    store.put_section(section::RATES, a.rates, |r| r.get().to_le_bytes())?;
    store.put_section(section::INTEREST_OFFSETS, a.interest_offsets, |o| {
        o.to_le_bytes()
    })?;
    store.put_section(section::INTEREST_TOPICS, a.interest_topics, |t| {
        t.raw().to_le_bytes()
    })?;
    store.put_section(section::RANKED_TOPICS, a.ranked_topics, |t| {
        t.raw().to_le_bytes()
    })?;
    store.put_section(section::FOLLOWER_OFFSETS, a.follower_offsets, |o| {
        o.to_le_bytes()
    })?;
    store.put_section(section::FOLLOWER_IDS, a.follower_ids, |v| {
        v.raw().to_le_bytes()
    })
}

/// Reassembles a [`Workload`] from the seven workload sections: one
/// streamed, checksummed widening pass per section, then the bounds
/// scans of [`Workload::from_arenas`] — no transpose, no sorting, no
/// ranking.
///
/// # Errors
///
/// Any container error from the reader; [`StoreError::SectionMalformed`]
/// (naming the section) when the meta counts disagree with the arena
/// lengths or the arenas fail the structural scans.
pub fn read_workload_sections(store: &mut StoreReader) -> Result<Workload, StoreError> {
    let meta = store.read_u64s(section::WORKLOAD_META)?;
    let [num_topics, num_subscribers] = meta[..] else {
        return Err(malformed(
            section::WORKLOAD_META,
            format!("expected 2 u64s, found {}", meta.len()),
        ));
    };
    let rates: Vec<Rate> = store
        .read_u64s(section::RATES)?
        .into_iter()
        .map(Rate::new)
        .collect();
    if rates.len() as u64 != num_topics {
        return Err(malformed(
            section::RATES,
            format!(
                "{} rates but meta declares {num_topics} topics",
                rates.len()
            ),
        ));
    }
    let interest_offsets = store.read_u32s(section::INTEREST_OFFSETS)?;
    if interest_offsets.len() as u64 != num_subscribers + 1 {
        return Err(malformed(
            section::INTEREST_OFFSETS,
            format!(
                "{} offsets but meta declares {num_subscribers} subscribers",
                interest_offsets.len()
            ),
        ));
    }
    let to_topics = |raw: Vec<u32>| -> Vec<TopicId> { raw.into_iter().map(TopicId::new).collect() };
    let interest_topics = to_topics(store.read_u32s(section::INTEREST_TOPICS)?);
    let ranked_topics = to_topics(store.read_u32s(section::RANKED_TOPICS)?);
    let follower_offsets = store.read_u32s(section::FOLLOWER_OFFSETS)?;
    let follower_ids: Vec<SubscriberId> = store
        .read_u32s(section::FOLLOWER_IDS)?
        .into_iter()
        .map(SubscriberId::new)
        .collect();
    Workload::from_arenas(
        rates,
        interest_offsets,
        interest_topics,
        ranked_topics,
        follower_offsets,
        follower_ids,
    )
    .map_err(|e| malformed(section::WORKLOAD_META, e.to_string()))
}

/// `Workload::to_store` / `Workload::from_store` — the single-file
/// persistence surface for workloads.
///
/// ```
/// use mcss_store::WorkloadStoreExt;
/// use pubsub_model::{Rate, Workload};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join(format!("mcss-store-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("workload.mcss");
///
/// let mut b = Workload::builder();
/// let news = b.add_topic(Rate::new(20))?;
/// let music = b.add_topic(Rate::new(10))?;
/// b.add_subscriber([news, music])?;
/// b.add_subscriber([music])?;
/// let workload = b.build();
///
/// workload.to_store(&path)?;
/// let loaded = Workload::from_store(&path)?;
/// assert_eq!(loaded, workload); // bit-identical arenas, zero rebuild
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
pub trait WorkloadStoreExt: Sized {
    /// Writes the workload to a single-file store, atomically.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] from the filesystem.
    fn to_store(&self, path: &Path) -> Result<(), StoreError>;

    /// Loads a workload from a store with zero derived-state rebuild.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]; corruption always names the failing section.
    fn from_store(path: &Path) -> Result<Self, StoreError>;
}

impl WorkloadStoreExt for Workload {
    fn to_store(&self, path: &Path) -> Result<(), StoreError> {
        let mut store = StoreBuilder::new();
        write_workload_sections(&mut store, self)?;
        store.write(path)
    }

    fn from_store(path: &Path) -> Result<Workload, StoreError> {
        read_workload_sections(&mut StoreReader::open(path)?)
    }
}
