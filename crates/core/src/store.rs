//! Solver-side section codecs for the `MCSSTOR1` store: the Stage-1
//! [`Selection`] CSR and the [`crate::FleetLedger`]'s arena
//! ([`LedgerSlots`]), each written verbatim from memory and read straight
//! back into its arenas. The container itself — header, section table,
//! checksums, atomic writes — lives in the [`mcss_store`] crate; this
//! module only maps solver types onto sections, so daemon snapshots and
//! ad-hoc tools share one on-disk vocabulary (`docs/STORE.md`).

use crate::{LedgerSlots, Selection, SlotState};
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

/// Slot-state encoding: 0 live, 1 tombstoned, 2 failed.
fn slot_state(state: SlotState) -> u32 {
    match state {
        SlotState::Live => 0,
        SlotState::Tombstoned => 1,
        SlotState::Failed => 2,
    }
}

/// Writes the four fleet-ledger sections verbatim from the ledger's
/// arena: a fixed-width slot table (`cap`, `used`, state, row count — two
/// u64s + two u32s per slot), then the row arenas as they lie in memory
/// (one topic id per row, running row offsets into the subscriber arena,
/// the subscribers).
///
/// # Errors
///
/// An I/O error from a streaming sink.
pub fn write_ledger_sections<S: SectionSink>(store: &mut S, slots: &LedgerSlots) -> io::Result<()> {
    store.begin(section::LEDGER_SLOTS)?;
    for slot in 0..slots.len() {
        let rows = slots.slot_rows[slot + 1] - slots.slot_rows[slot];
        let mut record = [0u8; 24];
        record[0..8].copy_from_slice(&slots.cap[slot].get().to_le_bytes());
        record[8..16].copy_from_slice(&slots.used[slot].get().to_le_bytes());
        record[16..20].copy_from_slice(&slot_state(slots.state[slot]).to_le_bytes());
        record[20..24].copy_from_slice(&rows.to_le_bytes());
        store.put(&[record], |r| *r)?;
    }
    store.end()?;
    store.put_section(section::LEDGER_ROW_TOPICS, &slots.row_topics, |t| {
        t.raw().to_le_bytes()
    })?;
    store.put_section(section::LEDGER_ROW_OFFSETS, &slots.row_offsets, |o| {
        o.to_le_bytes()
    })?;
    store.put_section(section::LEDGER_SUBSCRIBERS, &slots.subscribers, |v| {
        v.raw().to_le_bytes()
    })
}

/// Reads the ledger written by [`write_ledger_sections`] over `workload`
/// straight into its arenas, suitable for
/// [`crate::FleetLedger::from_slots`].
///
/// The ledger searches and splices this arena in place, so the reader
/// also requires its canonical layout: every row non-empty, each slot's
/// rows strictly ascending by topic and each row's subscribers strictly
/// ascending, and no rows on a tombstoned or failed slot.
///
/// # Errors
///
/// Container errors from the reader, or
/// [`StoreError::SectionMalformed`] naming the first section whose
/// contents are inconsistent (bad state byte, row offsets that do not
/// climb strictly, row counts that disagree with the arena lengths, a
/// topic or subscriber id not below `workload`'s count, rows out of
/// order).
pub fn read_ledger_sections(
    store: &mut StoreReader,
    workload: &Workload,
) -> Result<LedgerSlots, StoreError> {
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
        || row_offsets.windows(2).any(|w| w[0] >= w[1])
    {
        return Err(malformed(
            section::LEDGER_ROW_OFFSETS,
            "row offsets must climb strictly (no empty row) from 0 to the subscriber-arena length",
        ));
    }
    let ascending = |ids: &[u32]| ids.windows(2).all(|w| w[0] < w[1]);
    if let Some(row) = row_offsets
        .windows(2)
        .position(|w| !ascending(&subscribers[w[0] as usize..w[1] as usize]))
    {
        return Err(malformed(
            section::LEDGER_SUBSCRIBERS,
            format!("row {row}'s subscribers are not strictly ascending"),
        ));
    }

    let slots = table.len() / SLOT_BYTES;
    let mut ledger = LedgerSlots {
        cap: Vec::with_capacity(slots),
        used: Vec::with_capacity(slots),
        state: Vec::with_capacity(slots),
        slot_rows: Vec::with_capacity(slots + 1),
        row_topics: row_topics.into_iter().map(TopicId::new).collect(),
        row_offsets,
        subscribers: subscribers.into_iter().map(SubscriberId::new).collect(),
    };
    ledger.slot_rows.push(0);
    let mut row = 0usize;
    for record in table.chunks_exact(SLOT_BYTES) {
        let field = |at: usize| u64::from_le_bytes(record[at..at + 8].try_into().unwrap());
        let state = u32::from_le_bytes(record[16..20].try_into().unwrap());
        let row_count = u32::from_le_bytes(record[20..24].try_into().unwrap()) as usize;
        ledger.state.push(match state {
            0 => SlotState::Live,
            1 => SlotState::Tombstoned,
            2 => SlotState::Failed,
            other => {
                return Err(malformed(
                    section::LEDGER_SLOTS,
                    format!("slot state {other} is not live/tombstoned/failed"),
                ));
            }
        });
        if row + row_count > ledger.row_topics.len() {
            return Err(malformed(
                section::LEDGER_SLOTS,
                "slot row counts overrun the row arenas",
            ));
        }
        let slot = ledger.state.len() - 1;
        if ledger.state[slot] != SlotState::Live && row_count > 0 {
            return Err(malformed(
                section::LEDGER_SLOTS,
                format!("slot {slot} is tombstoned or failed but owns rows"),
            ));
        }
        if !ledger.row_topics[row..row + row_count].is_sorted_by(|a, b| a < b) {
            return Err(malformed(
                section::LEDGER_ROW_TOPICS,
                format!("slot {slot}'s rows are not strictly ascending by topic"),
            ));
        }
        row += row_count;
        ledger.cap.push(Bandwidth::new(field(0)));
        ledger.used.push(Bandwidth::new(field(8)));
        ledger.slot_rows.push(row as u32);
    }
    if row != ledger.row_topics.len() {
        return Err(malformed(
            section::LEDGER_SLOTS,
            "slot row counts do not cover the row arenas",
        ));
    }
    Ok(ledger)
}
