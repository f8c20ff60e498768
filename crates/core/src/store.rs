//! Solver-side section codecs for the `MCSSTOR1` store: the Stage-1
//! [`Selection`] CSR and the [`crate::FleetLedger`] slot table, written
//! from borrowed [`SlotView`]s and read back as [`LedgerSlot`] rows. The
//! container itself — header, section table, checksums, atomic writes —
//! lives in the [`mcss_store`] crate; this module only maps solver types
//! onto sections, so daemon snapshots and ad-hoc tools share one on-disk
//! vocabulary (`docs/STORE.md`).

use crate::{LedgerSlot, Selection, SlotView};
use mcss_store::{section, section_name, SectionSink, StoreError, StoreReader};
use pubsub_model::{Bandwidth, SubscriberId, TopicId, Workload};
use std::io;

fn malformed(section_id: u32, detail: impl Into<String>) -> StoreError {
    StoreError::SectionMalformed {
        section: section_name(section_id).to_string(),
        detail: detail.into(),
    }
}

/// Writes the two selection sections (CSR offsets + flat topic arena)
/// verbatim from the in-memory packed representation.
///
/// # Errors
///
/// An I/O error from a streaming sink.
pub fn write_selection_sections<S: SectionSink>(
    store: &mut S,
    selection: &Selection,
) -> io::Result<()> {
    let (offsets, topics) = selection.raw_csr();
    store.put_section(section::SELECTION_OFFSETS, offsets, |o| o.to_le_bytes())?;
    store.put_section(section::SELECTION_TOPICS, topics, |t| t.raw().to_le_bytes())
}

/// Reassembles a [`Selection`] over `workload` from its two sections.
///
/// # Errors
///
/// Container errors from the reader, or
/// [`StoreError::SectionMalformed`] when the CSR is structurally
/// inconsistent or a topic id is not below `workload`'s topic count.
pub fn read_selection_sections(
    store: &mut StoreReader,
    workload: &Workload,
) -> Result<Selection, StoreError> {
    let offsets = store.read_u32s(section::SELECTION_OFFSETS)?;
    // A stored workload's counts fit `u32`: its reader checks them.
    let topics: Vec<TopicId> = store
        .read_ids(section::SELECTION_TOPICS, workload.num_topics() as u32)?
        .into_iter()
        .map(TopicId::new)
        .collect();
    Selection::try_from_csr_u32(offsets, topics)
        .map_err(|detail| malformed(section::SELECTION_OFFSETS, detail))
}

/// Slot-state encoding: 0 live, 1 tombstoned, 2 failed (failure implies
/// tombstone).
fn slot_state(slot: &SlotView<'_>) -> u32 {
    if slot.failed {
        2
    } else {
        u32::from(slot.tombstone)
    }
}

/// Writes the four fleet-ledger sections from borrowed slots, in four
/// passes over them: a fixed-width slot table (`cap`, `used`, state, row
/// count — two u64s + two u32s per slot), then a three-arena CSR of the
/// placement rows (one topic id per row, running row offsets into the
/// flat subscriber arena, the subscribers).
///
/// # Errors
///
/// An I/O error from a streaming sink.
pub fn write_ledger_sections<'a, S: SectionSink>(
    store: &mut S,
    slots: impl Iterator<Item = SlotView<'a>> + Clone,
) -> io::Result<()> {
    store.begin(section::LEDGER_SLOTS)?;
    for slot in slots.clone() {
        let mut record = [0u8; 24];
        record[0..8].copy_from_slice(&slot.cap.get().to_le_bytes());
        record[8..16].copy_from_slice(&slot.used.get().to_le_bytes());
        record[16..20].copy_from_slice(&slot_state(&slot).to_le_bytes());
        record[20..24].copy_from_slice(&(slot.rows.len() as u32).to_le_bytes());
        store.put(&[record], |r| *r)?;
    }
    store.end()?;
    store.begin(section::LEDGER_ROW_TOPICS)?;
    for slot in slots.clone() {
        store.put(slot.rows, |(topic, _)| topic.raw().to_le_bytes())?;
    }
    store.end()?;
    store.begin(section::LEDGER_ROW_OFFSETS)?;
    store.put(&[0u32], |o| o.to_le_bytes())?;
    let mut offset = 0u32;
    for slot in slots.clone() {
        store.put(slot.rows, |(_, subs)| {
            offset += subs.len() as u32;
            offset.to_le_bytes()
        })?;
    }
    store.end()?;
    store.begin(section::LEDGER_SUBSCRIBERS)?;
    for slot in slots {
        for (_, subs) in slot.rows {
            store.put(subs, |v| v.raw().to_le_bytes())?;
        }
    }
    store.end()
}

/// Reassembles the slot table written by [`write_ledger_sections`] over
/// `workload`, suitable for [`crate::FleetLedger::from_slots`].
///
/// # Errors
///
/// Container errors from the reader, or
/// [`StoreError::SectionMalformed`] naming the first section whose
/// contents are inconsistent (bad state byte, non-monotone row offsets,
/// row counts that disagree with the arena lengths, a topic or subscriber
/// id not below `workload`'s count).
pub fn read_ledger_sections(
    store: &mut StoreReader,
    workload: &Workload,
) -> Result<Vec<LedgerSlot>, StoreError> {
    const SLOT_BYTES: usize = 24;
    let table = store.read_bytes(section::LEDGER_SLOTS)?;
    if table.len() % SLOT_BYTES != 0 {
        return Err(malformed(
            section::LEDGER_SLOTS,
            format!("{} bytes is not a whole number of slots", table.len()),
        ));
    }
    let row_topics = store.read_ids(section::LEDGER_ROW_TOPICS, workload.num_topics() as u32)?;
    let row_offsets = store.read_u32s(section::LEDGER_ROW_OFFSETS)?;
    let subscribers = store.read_ids(
        section::LEDGER_SUBSCRIBERS,
        workload.num_subscribers() as u32,
    )?;
    if row_offsets.len() != row_topics.len() + 1 {
        return Err(malformed(
            section::LEDGER_ROW_OFFSETS,
            "row offsets must hold one entry per row plus a total",
        ));
    }
    if row_offsets.first().copied() != Some(0)
        || row_offsets.last().map(|&o| o as usize) != Some(subscribers.len())
        || row_offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(malformed(
            section::LEDGER_ROW_OFFSETS,
            "row offsets must climb from 0 to the subscriber-arena length",
        ));
    }

    let mut slots = Vec::with_capacity(table.len() / SLOT_BYTES);
    let mut row = 0usize;
    for record in table.chunks_exact(SLOT_BYTES) {
        let cap = Bandwidth::new(u64::from_le_bytes(record[0..8].try_into().unwrap()));
        let used = Bandwidth::new(u64::from_le_bytes(record[8..16].try_into().unwrap()));
        let state = u32::from_le_bytes(record[16..20].try_into().unwrap());
        let row_count = u32::from_le_bytes(record[20..24].try_into().unwrap()) as usize;
        let (tombstone, failed) = match state {
            0 => (false, false),
            1 => (true, false),
            2 => (true, true),
            other => {
                return Err(malformed(
                    section::LEDGER_SLOTS,
                    format!("slot state {other} is not live/tombstoned/failed"),
                ));
            }
        };
        if row + row_count > row_topics.len() {
            return Err(malformed(
                section::LEDGER_SLOTS,
                "slot row counts overrun the row arenas",
            ));
        }
        let rows = (row..row + row_count)
            .map(|r| {
                let subs = subscribers[row_offsets[r] as usize..row_offsets[r + 1] as usize]
                    .iter()
                    .map(|&v| SubscriberId::new(v))
                    .collect();
                (TopicId::new(row_topics[r]), subs)
            })
            .collect();
        row += row_count;
        slots.push(LedgerSlot {
            tombstone,
            failed,
            cap,
            used,
            rows,
        });
    }
    if row != row_topics.len() {
        return Err(malformed(
            section::LEDGER_SLOTS,
            "slot row counts do not cover the row arenas",
        ));
    }
    Ok(slots)
}
