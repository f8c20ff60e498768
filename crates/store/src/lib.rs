//! `MCSSTOR1` — the durable single-file store for MCSS arenas.
//!
//! Every other persistence path in the repo (TSV traces, the serve
//! daemon's legacy snapshots) stores *primary* data and rebuilds derived
//! state on load: transposing the interest CSR into the follower CSR and
//! ranking every interest row by rate. At a million subscribers that
//! rebuild dominates cold start. This crate stores the arenas
//! *themselves* — primaries and derived tables alike — as raw
//! little-endian sections in one page-aligned, checksummed file, so a
//! load reads each section once, straight into its final arena, and
//! checksums each chunk (range-checking the id arenas too) while it is
//! still in cache: zero per-row work and no second pass.
//!
//! Layout (field-by-field spec in `docs/STORE.md`):
//!
//! * a 4096-byte header page: magic `MCSSTOR1`, version, header CRC32,
//!   and a section table of `{id, offset, len, crc32}` entries;
//! * each section's payload at a 4096-byte-aligned offset.
//!
//! Corruption fails closed with the *section named* in the error — see
//! [`StoreError`]. Unknown section ids pass through readers untouched,
//! so the format is forward-extensible without a version bump.
//!
//! The container is generic: section encoders write to a [`SectionSink`]
//! — [`StoreBuilder`], which holds each section in memory, or
//! [`StoreWriter`], which streams them in whole pages through one
//! page-aligned buffer, fit for a file opened with `O_DIRECT` — and
//! [`StoreReader`] reads them back, with [`crc32`] as the one checksum
//! and [`StoreReader::read_ids`] as the one id range check.
//! This crate also ships the workload codec ([`WorkloadStoreExt`]). The
//! solver-side sections (Stage-1 selection, fleet ledger, serve
//! metadata) are encoded by `mcss_core::store` on top of the same
//! container.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod crc;
mod format;
mod range;
mod workload;

pub use crc::crc32;
pub use format::{
    section, section_name, sync_parent, SectionInfo, SectionSink, StoreBuilder, StoreError,
    StoreFile, StoreReader, StoreWriter, MAGIC, MAX_SECTIONS, PAGE, VERSION,
};
pub use workload::{read_workload_sections, write_workload_sections, WorkloadStoreExt};
