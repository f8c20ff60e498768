//! The `MCSSTOR1` container: a single file holding named, checksummed,
//! page-aligned byte sections. Field-by-field layout in `docs/STORE.md`.
//!
//! The format is deliberately dumb: a 4096-byte header page (magic,
//! version, section table) followed by each section's raw payload at a
//! 4096-byte-aligned offset. Payloads are the in-memory arenas written
//! little-endian, so loading a section is a streamed read, a CRC sweep
//! and a widening pass over the same warm chunk — no parsing, no per-row
//! work.

use crate::crc::{self, crc32};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic: the first eight bytes of every store.
pub const MAGIC: &[u8; 8] = b"MCSSTOR1";

/// Current (and only) container version.
pub const VERSION: u32 = 1;

/// Section payloads start at offsets aligned to this many bytes; the
/// header occupies exactly one such page.
pub const PAGE: usize = 4096;

/// Bytes of the header page reserved before the section table.
const TABLE_START: usize = 32;

/// Bytes per section-table entry.
const ENTRY_BYTES: usize = 32;

/// Maximum sections a store can hold (the table must fit the header
/// page): `(4096 - 32) / 32 = 127`.
pub const MAX_SECTIONS: usize = (PAGE - TABLE_START) / ENTRY_BYTES;

/// Well-known section ids. Unknown ids are preserved and readable, so
/// future writers can add sections without breaking old readers.
pub mod section {
    /// Workload shape: `[num_topics, num_subscribers]` as u64s.
    pub const WORKLOAD_META: u32 = 0x01;
    /// Per-topic event rates `ev_t` (u64 each).
    pub const RATES: u32 = 0x02;
    /// Interest CSR offsets, `|V| + 1` u32s (shared with the ranked arena).
    pub const INTEREST_OFFSETS: u32 = 0x03;
    /// Flat interest arena `T_v` (u32 topic ids).
    pub const INTEREST_TOPICS: u32 = 0x04;
    /// Flat rate-ranked interest arena (u32 topic ids).
    pub const RANKED_TOPICS: u32 = 0x05;
    /// Follower CSR offsets, `|T| + 1` u32s.
    pub const FOLLOWER_OFFSETS: u32 = 0x06;
    /// Flat derived follower arena `V_t` (u32 subscriber ids).
    pub const FOLLOWER_IDS: u32 = 0x07;
    /// Stage-1 selection CSR offsets, `|V| + 1` u32s.
    pub const SELECTION_OFFSETS: u32 = 0x10;
    /// Flat selection arena (u32 topic ids).
    pub const SELECTION_TOPICS: u32 = 0x11;
    /// Fleet ledger slot table: `[cap, used, state, row_count]` per slot.
    pub const LEDGER_SLOTS: u32 = 0x20;
    /// One u32 topic id per ledger row, slots concatenated in order.
    pub const LEDGER_ROW_TOPICS: u32 = 0x21;
    /// Row offsets into the ledger subscriber arena, `rows + 1` u32s.
    pub const LEDGER_ROW_OFFSETS: u32 = 0x22;
    /// Flat ledger subscriber arena (u32 subscriber ids).
    pub const LEDGER_SUBSCRIBERS: u32 = 0x23;
    /// Serve-daemon snapshot metadata: `[last_seq, epochs_applied, tau,
    /// capacity]` as u64s.
    pub const SERVE_META: u32 = 0x30;
}

/// Human-readable name for a section id, used in diagnostics and the
/// `mcss analyze --store` breakdown. Unknown ids report as `"unknown"`.
pub fn section_name(id: u32) -> &'static str {
    match id {
        section::WORKLOAD_META => "workload-meta",
        section::RATES => "rates",
        section::INTEREST_OFFSETS => "interest-offsets",
        section::INTEREST_TOPICS => "interest-topics",
        section::RANKED_TOPICS => "ranked-topics",
        section::FOLLOWER_OFFSETS => "follower-offsets",
        section::FOLLOWER_IDS => "follower-ids",
        section::SELECTION_OFFSETS => "selection-offsets",
        section::SELECTION_TOPICS => "selection-topics",
        section::LEDGER_SLOTS => "ledger-slots",
        section::LEDGER_ROW_TOPICS => "ledger-row-topics",
        section::LEDGER_ROW_OFFSETS => "ledger-row-offsets",
        section::LEDGER_SUBSCRIBERS => "ledger-subscribers",
        section::SERVE_META => "serve-meta",
        _ => "unknown",
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Errors raised while writing or reading a store. Every corruption
/// variant that concerns a specific section *names* that section — the
/// fail-closed contract the corruption sweeps assert.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a store at all.
    BadMagic,
    /// The header declares a version this build cannot read.
    UnsupportedVersion(u32),
    /// The header page or section table is inconsistent (bad checksum,
    /// out-of-bounds entry, truncated file).
    HeaderCorrupt(String),
    /// A section the caller requires is absent from the table.
    MissingSection {
        /// Name of the absent section.
        section: String,
    },
    /// A section's payload failed its CRC32 check.
    SectionCrc {
        /// Name of the corrupted section.
        section: String,
    },
    /// A section passed its checksum but its contents are inconsistent
    /// (wrong element width, impossible lengths, out-of-range ids).
    SectionMalformed {
        /// Name of the inconsistent section.
        section: String,
        /// What exactly is wrong.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not an MCSSTOR1 store (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(
                f,
                "unsupported store version {v} (this build reads up to {VERSION})"
            ),
            StoreError::HeaderCorrupt(detail) => write!(f, "corrupted store header: {detail}"),
            StoreError::MissingSection { section } => {
                write!(f, "store is missing required section `{section}`")
            }
            StoreError::SectionCrc { section } => {
                write!(f, "store section `{section}` failed its CRC32 check")
            }
            StoreError::SectionMalformed { section, detail } => {
                write!(f, "store section `{section}` is malformed: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Assembles a store: accumulate sections, then serialize with
/// [`StoreBuilder::to_bytes`] or write atomically with
/// [`StoreBuilder::write`]. Sections land in the file in insertion
/// order, each at the next 4096-byte boundary.
#[derive(Debug, Default)]
pub struct StoreBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl StoreBuilder {
    /// An empty store.
    pub fn new() -> StoreBuilder {
        StoreBuilder::default()
    }

    /// Adds a raw byte section.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate section id or when the table would exceed
    /// [`MAX_SECTIONS`] — both are writer bugs, not runtime conditions.
    pub fn section(&mut self, id: u32, bytes: Vec<u8>) -> &mut StoreBuilder {
        assert!(
            self.sections.iter().all(|&(other, _)| other != id),
            "duplicate store section id {id:#x} ({})",
            section_name(id)
        );
        assert!(
            self.sections.len() < MAX_SECTIONS,
            "store exceeds {MAX_SECTIONS} sections"
        );
        self.sections.push((id, bytes));
        self
    }

    /// Adds a section of little-endian u32s.
    pub fn u32s(&mut self, id: u32, values: &[u32]) -> &mut StoreBuilder {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for &v in values {
            put_u32(&mut bytes, v);
        }
        self.section(id, bytes)
    }

    /// Adds a section of little-endian u64s.
    pub fn u64s(&mut self, id: u32, values: &[u64]) -> &mut StoreBuilder {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for &v in values {
            put_u64(&mut bytes, v);
        }
        self.section(id, bytes)
    }

    /// Serializes the container: header page, then each payload at the
    /// next page boundary. Inter-section gaps are zero padding (not
    /// covered by any checksum — never read back); the file ends exactly
    /// at the last payload byte, and the header records that length.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload_at = Vec::with_capacity(self.sections.len());
        let mut cursor = PAGE;
        for (_, bytes) in &self.sections {
            cursor = cursor.next_multiple_of(PAGE);
            payload_at.push(cursor);
            cursor += bytes.len();
        }
        let file_len = cursor;

        let mut out = vec![0u8; PAGE];
        out.reserve(file_len - PAGE);
        out[..8].copy_from_slice(MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out[16..24].copy_from_slice(&(file_len as u64).to_le_bytes());
        // out[24..28] is the header CRC, patched below; out[28..32] reserved.
        for (i, ((id, bytes), &offset)) in self.sections.iter().zip(&payload_at).enumerate() {
            let e = TABLE_START + i * ENTRY_BYTES;
            out[e..e + 4].copy_from_slice(&id.to_le_bytes());
            out[e + 8..e + 16].copy_from_slice(&(offset as u64).to_le_bytes());
            out[e + 16..e + 24].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
            out[e + 24..e + 28].copy_from_slice(&crc32(bytes).to_le_bytes());
        }
        let header_crc = crc32(&out[..PAGE]);
        out[24..28].copy_from_slice(&header_crc.to_le_bytes());

        for ((_, bytes), &offset) in self.sections.iter().zip(&payload_at) {
            out.resize(offset, 0);
            out.extend_from_slice(bytes);
        }
        debug_assert_eq!(out.len(), file_len);
        out
    }

    /// Writes the store atomically: bytes go to `<path>.tmp`, which is
    /// fsynced and renamed over `path`, so a crash mid-write leaves any
    /// previous store intact.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] from writing, syncing, or renaming.
    pub fn write(&self, path: &Path) -> Result<(), StoreError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("mcss.tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, path)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// One validated entry of a store's section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section id (see [`section`]).
    pub id: u32,
    /// Human-readable name ([`section_name`]).
    pub name: &'static str,
    /// Absolute payload offset; always a multiple of [`PAGE`].
    pub offset: u64,
    /// Exact payload length in bytes.
    pub len: u64,
    /// Expected CRC32 of the payload.
    pub crc: u32,
}

/// Validates a store header page against the file's actual byte count
/// and returns the section table: magic, version, header checksum, and
/// every table entry's bounds and alignment. `bytes` may be the whole
/// file or just its first page — only `bytes[..PAGE]` is inspected.
fn validate_header(bytes: &[u8], actual_len: u64) -> Result<Vec<SectionInfo>, StoreError> {
    if bytes.len() < 8 || &bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    if bytes.len() < PAGE || actual_len < PAGE as u64 {
        return Err(StoreError::HeaderCorrupt(
            "file shorter than the header page".into(),
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version == 0 || version > VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let mut header = bytes[..PAGE].to_vec();
    let stored_crc = u32::from_le_bytes(header[24..28].try_into().unwrap());
    header[24..28].copy_from_slice(&[0; 4]);
    if crc32(&header) != stored_crc {
        return Err(StoreError::HeaderCorrupt("header checksum mismatch".into()));
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    if count > MAX_SECTIONS {
        return Err(StoreError::HeaderCorrupt(format!(
            "section count {count} exceeds the table capacity {MAX_SECTIONS}"
        )));
    }
    let file_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    if file_len != actual_len {
        return Err(StoreError::HeaderCorrupt(format!(
            "header records {file_len} bytes but the file holds {actual_len} (truncated?)"
        )));
    }
    let mut sections: Vec<SectionInfo> = Vec::with_capacity(count);
    for i in 0..count {
        let e = TABLE_START + i * ENTRY_BYTES;
        let id = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
        let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[e + 24..e + 28].try_into().unwrap());
        let name = section_name(id);
        if offset % PAGE as u64 != 0 || offset < PAGE as u64 {
            return Err(StoreError::HeaderCorrupt(format!(
                "section `{name}` offset {offset} is not page-aligned past the header"
            )));
        }
        if offset.checked_add(len).is_none_or(|end| end > file_len) {
            return Err(StoreError::HeaderCorrupt(format!(
                "section `{name}` ({offset}+{len} bytes) overruns the {file_len}-byte file"
            )));
        }
        if sections.iter().any(|s| s.id == id) {
            return Err(StoreError::HeaderCorrupt(format!(
                "section `{name}` (id {id:#x}) appears twice in the table"
            )));
        }
        sections.push(SectionInfo {
            id,
            name,
            offset,
            len,
            crc,
        });
    }
    Ok(sections)
}

/// Bytes streamed per `read` — large enough to amortize syscalls, small
/// enough to stay cache-resident, so the checksum and the widening pass
/// both read the kernel's copy out of L2 instead of sweeping the whole
/// section through DRAM a second time.
const STREAM_CHUNK: usize = 512 * 1024;

/// A store opened for reading. Opening validates the header page against
/// the file's on-disk length; each requested section is then streamed
/// through a fixed cache-sized scratch buffer, checksummed chunk by chunk
/// while the bytes are warm, and widened into the section's final `Vec`.
/// Sections fail closed: a payload whose checksum mismatches is reported
/// by name, and its data is never returned.
#[derive(Debug)]
pub struct StoreReader {
    file: File,
    file_len: u64,
    sections: Vec<SectionInfo>,
    scratch: Vec<u8>,
}

impl StoreReader {
    /// Opens a store and validates its header page: magic, version,
    /// header checksum, and every table entry's bounds and alignment
    /// against the file's length. No section payload is read yet.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, otherwise
    /// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`], or
    /// [`StoreError::HeaderCorrupt`] naming what is inconsistent.
    pub fn open(path: &Path) -> Result<StoreReader, StoreError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut header = vec![0u8; file_len.min(PAGE as u64) as usize];
        file.read_exact(&mut header)?;
        let sections = validate_header(&header, file_len)?;
        Ok(StoreReader {
            file,
            file_len,
            sections,
            scratch: vec![0u8; STREAM_CHUNK],
        })
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The validated section table, in file order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// The table entry of section `id`, checking that its payload is a
    /// whole number of `width`-byte elements.
    fn entry(&self, id: u32, width: u64) -> Result<SectionInfo, StoreError> {
        let info = *self.sections.iter().find(|s| s.id == id).ok_or_else(|| {
            StoreError::MissingSection {
                section: section_name(id).to_string(),
            }
        })?;
        if !info.len.is_multiple_of(width) {
            return Err(StoreError::SectionMalformed {
                section: info.name.to_string(),
                detail: format!(
                    "{} bytes is not a whole number of u{}s",
                    info.len,
                    width * 8
                ),
            });
        }
        Ok(info)
    }

    /// Streams section `info` through the scratch buffer, feeding each
    /// chunk to `sink` while running the payload CRC. The caller must
    /// discard what `sink` built if this returns an error: the checksum
    /// verdict lands only after the final chunk.
    fn stream(&mut self, info: SectionInfo, mut sink: impl FnMut(&[u8])) -> Result<(), StoreError> {
        self.file.seek(SeekFrom::Start(info.offset))?;
        let mut remaining = info.len;
        let mut state = !0u32;
        while remaining > 0 {
            let n = remaining.min(STREAM_CHUNK as u64) as usize;
            let chunk = &mut self.scratch[..n];
            self.file.read_exact(chunk)?;
            state = crc::update(state, chunk);
            sink(chunk);
            remaining -= n as u64;
        }
        if !state != info.crc {
            return Err(StoreError::SectionCrc {
                section: info.name.to_string(),
            });
        }
        Ok(())
    }

    /// A section's raw payload, checksum-verified.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] when the table lacks `id`;
    /// [`StoreError::SectionCrc`] naming the section when its payload
    /// fails the checksum; [`StoreError::Io`] on a failed read.
    pub fn read_bytes(&mut self, id: u32) -> Result<Vec<u8>, StoreError> {
        let info = self.entry(id, 1)?;
        let mut out = Vec::with_capacity(info.len as usize);
        self.stream(info, |chunk| out.extend_from_slice(chunk))?;
        Ok(out)
    }

    /// A section decoded as little-endian u32s, checksum-verified.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::read_bytes`], plus
    /// [`StoreError::SectionMalformed`] when the payload length is not a
    /// multiple of 4.
    pub fn read_u32s(&mut self, id: u32) -> Result<Vec<u32>, StoreError> {
        let info = self.entry(id, 4)?;
        let mut out = Vec::with_capacity(info.len as usize / 4);
        // STREAM_CHUNK is a multiple of 4, so no u32 straddles chunks.
        self.stream(info, |chunk| {
            out.extend(
                chunk
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
            );
        })?;
        Ok(out)
    }

    /// A section decoded as little-endian u64s, checksum-verified.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::read_bytes`], plus
    /// [`StoreError::SectionMalformed`] when the payload length is not a
    /// multiple of 8.
    pub fn read_u64s(&mut self, id: u32) -> Result<Vec<u64>, StoreError> {
        let info = self.entry(id, 8)?;
        let mut out = Vec::with_capacity(info.len as usize / 8);
        self.stream(info, |chunk| {
            out.extend(
                chunk
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
            );
        })?;
        Ok(out)
    }
}
