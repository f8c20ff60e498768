//! The `MCSSTOR1` container: a single file holding named, checksummed,
//! page-aligned byte sections. Field-by-field layout in `docs/STORE.md`.
//!
//! The format is deliberately dumb: a 4096-byte header page (magic,
//! version, section table) followed by each section's raw payload at a
//! 4096-byte-aligned offset. Payloads are the in-memory arenas written
//! little-endian, so loading a section is a positional read straight
//! into its final `Vec`, a chunk at a time, with the CRC sweep (and, for
//! an id arena, the range check) run over each chunk while it is still
//! in cache — no parsing, no per-row work, no second pass.

use crate::crc::{self, crc32};
use crate::range;
use std::cell::Cell;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Cursor, Read, Seek, SeekFrom, Write};
use std::mem::MaybeUninit;
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

/// Encodes the header page into `page`, exactly [`PAGE`] zeroed bytes:
/// magic, version, section count, file length and the section table,
/// then the CRC32 of the whole page taken with its own field still zero.
/// The one header encoder behind [`StoreBuilder`] and [`StoreWriter`].
fn encode_header(page: &mut [u8], sections: &[SectionInfo], file_len: u64) {
    page[..8].copy_from_slice(MAGIC);
    page[8..12].copy_from_slice(&VERSION.to_le_bytes());
    page[12..16].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    page[16..24].copy_from_slice(&file_len.to_le_bytes());
    // page[24..28] is the header CRC, patched below; page[28..32] reserved.
    for (i, s) in sections.iter().enumerate() {
        let e = TABLE_START + i * ENTRY_BYTES;
        page[e..e + 4].copy_from_slice(&s.id.to_le_bytes());
        page[e + 8..e + 16].copy_from_slice(&s.offset.to_le_bytes());
        page[e + 16..e + 24].copy_from_slice(&s.len.to_le_bytes());
        page[e + 24..e + 28].copy_from_slice(&s.crc.to_le_bytes());
    }
    let header_crc = crc32(page);
    page[24..28].copy_from_slice(&header_crc.to_le_bytes());
}

/// Panics unless section `id` may join a table holding `ids`: a
/// duplicate id or a table past [`MAX_SECTIONS`] is a writer bug, not a
/// runtime condition.
fn admit_section(id: u32, mut ids: impl ExactSizeIterator<Item = u32>) {
    let count = ids.len();
    assert!(
        ids.all(|other| other != id),
        "duplicate store section id {id:#x} ({})",
        section_name(id)
    );
    assert!(
        count < MAX_SECTIONS,
        "store exceeds {MAX_SECTIONS} sections"
    );
}

/// Fsyncs the directory that holds `path`, so an entry created or
/// renamed there survives a power loss: POSIX makes a directory entry
/// durable only once its directory is synced.
///
/// # Errors
///
/// Any I/O error from opening or syncing the directory.
pub fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Where section encoders write: [`StoreBuilder`] keeps each section in
/// memory, [`StoreWriter`] streams it to a file. An encoder written
/// against this trait lays down the same bytes through either, so each
/// section layout (workload, selection, ledger, serve metadata) is
/// defined once. Errors are I/O errors from a streaming sink.
pub trait SectionSink {
    /// Opens section `id` at the next page boundary.
    ///
    /// # Panics
    ///
    /// On a duplicate id or a table past [`MAX_SECTIONS`] — writer bugs,
    /// not runtime conditions.
    fn begin(&mut self, id: u32) -> io::Result<()>;

    /// Appends `values` to the open section, each as the `N` bytes
    /// `encode` returns.
    fn put<T, const N: usize>(
        &mut self,
        values: &[T],
        encode: impl FnMut(&T) -> [u8; N],
    ) -> io::Result<()>;

    /// Closes the open section, fixing its length and CRC32.
    fn end(&mut self) -> io::Result<()>;

    /// A whole section in one call: [`begin`](SectionSink::begin), one
    /// [`put`](SectionSink::put), then [`end`](SectionSink::end).
    fn put_section<T, const N: usize>(
        &mut self,
        id: u32,
        values: &[T],
        encode: impl FnMut(&T) -> [u8; N],
    ) -> io::Result<()> {
        self.begin(id)?;
        self.put(values, encode)?;
        self.end()
    }
}

/// Assembles a store in memory, one byte buffer per section, then
/// serializes it with [`StoreBuilder::to_bytes`] or writes it atomically
/// with [`StoreBuilder::write`]. Sections land in the file in insertion
/// order, each at the next 4096-byte boundary. [`StoreWriter`] writes
/// the same bytes without holding them.
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
        admit_section(id, self.sections.iter().map(|&(other, _)| other));
        self.sections.push((id, bytes));
        self
    }

    /// Serializes the container: header page, then each payload at the
    /// next page boundary. Inter-section gaps are zero padding (not
    /// covered by any checksum — never read back); the file ends exactly
    /// at the last payload byte, and the header records that length.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut table = Vec::with_capacity(self.sections.len());
        let mut cursor = PAGE as u64;
        for (id, bytes) in &self.sections {
            cursor = cursor.next_multiple_of(PAGE as u64);
            table.push(SectionInfo {
                id: *id,
                name: section_name(*id),
                offset: cursor,
                len: bytes.len() as u64,
                crc: crc32(bytes),
            });
            cursor += bytes.len() as u64;
        }
        let file_len = cursor as usize;

        let mut out = vec![0u8; PAGE];
        out.reserve(file_len - PAGE);
        encode_header(&mut out, &table, cursor);
        for ((_, bytes), info) in self.sections.iter().zip(&table) {
            out.resize(info.offset as usize, 0);
            out.extend_from_slice(bytes);
        }
        debug_assert_eq!(out.len(), file_len);
        out
    }

    /// Writes the store atomically: bytes go to `<path>.tmp`, which is
    /// fsynced and renamed over `path`, and then the directory is
    /// fsynced, so a crash mid-write leaves any previous store intact
    /// and a finished write survives a power loss.
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
        sync_parent(path)?;
        Ok(())
    }
}

impl SectionSink for StoreBuilder {
    fn begin(&mut self, id: u32) -> io::Result<()> {
        self.section(id, Vec::new());
        Ok(())
    }

    fn put<T, const N: usize>(
        &mut self,
        values: &[T],
        mut encode: impl FnMut(&T) -> [u8; N],
    ) -> io::Result<()> {
        let (_, bytes) = self.sections.last_mut().expect("no section is open");
        bytes.reserve(values.len() * N);
        for v in values {
            bytes.extend_from_slice(&encode(v));
        }
        Ok(())
    }

    fn end(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Bytes a [`StoreWriter`] buffers between writes: 32 whole pages. Each
/// `write` call hands the device at most this much, and the section CRC
/// folds over the bytes while they are still cache-warm.
const WRITE_CHUNK: usize = 128 * 1024;

/// What a [`StoreWriter`] streams to: a seekable byte sink that can be
/// cut to a length — a [`File`], or a `Cursor<Vec<u8>>` standing in for
/// one.
pub trait StoreFile: Write + Seek {
    /// Cuts (or zero-extends) the sink to exactly `len` bytes.
    ///
    /// # Errors
    ///
    /// Any I/O error from the sink.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

impl StoreFile for File {
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }
}

impl StoreFile for Cursor<Vec<u8>> {
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len).map_err(|_| io::Error::other("length exceeds memory"))?;
        self.get_mut().resize(len, 0);
        Ok(())
    }
}

/// The section a [`StoreWriter`] is filling.
#[derive(Debug)]
struct OpenSection {
    id: u32,
    /// File offset of the payload's first byte.
    offset: u64,
    /// Running CRC state over the payload bytes folded so far.
    crc: u32,
    /// Buffer index of the first payload byte not yet folded.
    unfolded: usize,
}

/// Streams a store to `out` through one fixed 128 KiB buffer, so neither
/// a section nor the file image is ever held whole. It reserves the
/// header page, writes each section at the next page boundary,
/// converting typed arenas into the buffer a chunk at a time, and folds
/// each section's CRC32 as the buffer flushes. [`StoreWriter::finish`]
/// then seeks back, writes the header page last and cuts the file to the
/// store's length. The bytes are exactly those [`StoreBuilder::to_bytes`]
/// lays out for the same sections.
///
/// Every write is whole pages, from a page-aligned buffer, at a
/// page-aligned offset, so `out` may be a file opened with `O_DIRECT`: a
/// flush writes the buffer's whole pages and carries its unfinished page
/// over to the next, the last write is padded with zeros to a page, and
/// the cut drops the padding. Every sink takes the same path.
///
/// ```
/// use mcss_store::{SectionSink, StoreBuilder, StoreWriter};
/// use std::io::Cursor;
///
/// # fn main() -> std::io::Result<()> {
/// let values = [7u32, 8, 9];
/// let mut writer = StoreWriter::new(Cursor::new(Vec::new()))?;
/// writer.put_section(0x40, &values, |v| v.to_le_bytes())?;
/// let streamed = writer.finish()?.into_inner();
///
/// let mut builder = StoreBuilder::new();
/// builder.put_section(0x40, &values, |v| v.to_le_bytes())?;
/// assert_eq!(streamed, builder.to_bytes());
/// # Ok(())
/// # }
/// ```
pub struct StoreWriter<W: StoreFile> {
    out: W,
    /// `WRITE_CHUNK + PAGE` bytes, so that a page-aligned buffer of
    /// `WRITE_CHUNK` bytes lies inside it at `start`.
    alloc: Box<[u8]>,
    /// Index in `alloc` of the buffer's first byte.
    start: usize,
    /// Bytes of the buffer filled.
    len: usize,
    /// File offset of the buffer's first byte, a multiple of [`PAGE`]:
    /// everything before it has been written.
    flushed: u64,
    sections: Vec<SectionInfo>,
    open: Option<OpenSection>,
}

impl<W: StoreFile> fmt::Debug for StoreWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreWriter")
            .field("cursor", &self.cursor())
            .field("sections", &self.sections)
            .field("open", &self.open)
            .finish_non_exhaustive()
    }
}

impl<W: StoreFile> StoreWriter<W> {
    /// A writer over `out`, positioned past the header page it reserves.
    ///
    /// # Errors
    ///
    /// Any I/O error from seeking `out`.
    pub fn new(mut out: W) -> io::Result<StoreWriter<W>> {
        out.seek(SeekFrom::Start(PAGE as u64))?;
        let alloc = vec![0; WRITE_CHUNK + PAGE].into_boxed_slice();
        let start = alloc.as_ptr().align_offset(PAGE);
        assert!(start < PAGE, "a byte buffer can always be page-aligned");
        Ok(StoreWriter {
            out,
            alloc,
            start,
            len: 0,
            flushed: PAGE as u64,
            sections: Vec::with_capacity(16),
            open: None,
        })
    }

    /// File offset of the next byte.
    fn cursor(&self) -> u64 {
        self.flushed + self.len as u64
    }

    /// The page-aligned buffer.
    fn buf(&mut self) -> &mut [u8] {
        &mut self.alloc[self.start..self.start + WRITE_CHUNK]
    }

    /// Zero-fills the buffer up to its next page boundary. The buffer
    /// starts on a page and holds whole pages, so the padding always
    /// fits.
    fn pad_to_page(&mut self) {
        let (len, end) = (self.len, self.len.next_multiple_of(PAGE));
        self.buf()[len..end].fill(0);
        self.len = end;
    }

    /// Folds the open section's unfolded bytes into its CRC, writes the
    /// buffer's whole pages and moves its unfinished page to the front.
    fn flush(&mut self) -> io::Result<()> {
        let buf = &mut self.alloc[self.start..self.start + WRITE_CHUNK];
        if let Some(open) = &mut self.open {
            open.crc = crc::update(open.crc, &buf[open.unfolded..self.len]);
        }
        let whole = self.len - self.len % PAGE;
        self.out.write_all(&buf[..whole])?;
        buf.copy_within(whole..self.len, 0);
        self.flushed += whole as u64;
        self.len -= whole;
        if let Some(open) = &mut self.open {
            open.unfolded = self.len;
        }
        Ok(())
    }

    /// Writes the last buffered bytes, padded with zeros to a whole page,
    /// then the header page at offset 0 — section table, file length and
    /// header CRC — cuts the file to the store's length, which drops the
    /// padding, and hands back the sink for the caller to sync.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing, seeking or cutting `out`.
    ///
    /// # Panics
    ///
    /// If a section is still open.
    pub fn finish(mut self) -> io::Result<W> {
        assert!(self.open.is_none(), "a store section is still open");
        let file_len = self.cursor();
        self.pad_to_page();
        self.flush()?;
        let page = &mut self.alloc[self.start..self.start + PAGE];
        page.fill(0);
        encode_header(page, &self.sections, file_len);
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(page)?;
        self.out.set_len(file_len)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: StoreFile> SectionSink for StoreWriter<W> {
    fn begin(&mut self, id: u32) -> io::Result<()> {
        assert!(self.open.is_none(), "a store section is still open");
        admit_section(id, self.sections.iter().map(|s| s.id));
        // Zero padding up to the page boundary, outside every CRC.
        self.pad_to_page();
        self.open = Some(OpenSection {
            id,
            offset: self.cursor(),
            crc: !0,
            unfolded: self.len,
        });
        Ok(())
    }

    fn put<T, const N: usize>(
        &mut self,
        mut values: &[T],
        mut encode: impl FnMut(&T) -> [u8; N],
    ) -> io::Result<()> {
        // A flush leaves less than a page buffered, so a value up to a
        // page long always fits after one.
        const { assert!(N > 0 && N <= PAGE) };
        assert!(self.open.is_some(), "no store section is open");
        while !values.is_empty() {
            let room = (WRITE_CHUNK - self.len) / N;
            if room == 0 {
                self.flush()?;
                continue;
            }
            // Convert as many values as fit in one tight loop, with no
            // flush check per value.
            let (now, rest) = values.split_at(room.min(values.len()));
            let (len, end) = (self.len, self.len + now.len() * N);
            for (dst, v) in self.buf()[len..end].chunks_exact_mut(N).zip(now) {
                dst.copy_from_slice(&encode(v));
            }
            self.len = end;
            values = rest;
        }
        Ok(())
    }

    fn end(&mut self) -> io::Result<()> {
        let open = self.open.take().expect("no store section is open");
        let len = self.len;
        let crc = crc::update(open.crc, &self.buf()[open.unfolded..len]);
        self.sections.push(SectionInfo {
            id: open.id,
            name: section_name(open.id),
            offset: open.offset,
            len: self.cursor() - open.offset,
            crc: !crc,
        });
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
    // The checksum covers the page with its own field zeroed.
    let stored_crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    let crc = crc::update(
        crc::update(crc::update(!0, &bytes[..24]), &[0; 4]),
        &bytes[28..PAGE],
    );
    if !crc != stored_crc {
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

/// Bytes read per positional read: large enough to amortize syscalls,
/// small enough to stay in L2, so the checksum and the range check read
/// each chunk from cache right after it lands instead of sweeping the
/// whole section through DRAM a second time.
const READ_CHUNK: usize = 512 * 1024;

/// Element types a section decodes into.
///
/// # Safety
///
/// Implementors are primitive integers: every bit pattern is a value and
/// there is no padding, so file bytes may land in a `Vec` of them as is.
unsafe trait Word: Copy {}

// SAFETY: primitive integers.
unsafe impl Word for u8 {}

// SAFETY: primitive integers.
unsafe impl Word for u32 {}

// SAFETY: primitive integers.
unsafe impl Word for u64 {}

/// Fills `buf` with the file's bytes from `offset` on and returns them,
/// now initialized. `pread` writes into the uninitialized buffer, which
/// std has no stable way to do; `off_t` is 64 bits on every 64-bit unix.
/// Zeroing each chunk first, as `zeroed_read_exact_at` does, made the
/// benchmark's plan-twitter store load 1.5 ms slower on a 2-vCPU Xeon
/// guest (9.7 against 8.2 ms, medians of 10 alternated runs), so this
/// target reads without it.
#[cfg(all(unix, target_pointer_width = "64"))]
fn read_exact_at<'a>(
    file: &File,
    buf: &'a mut [MaybeUninit<u8>],
    offset: u64,
) -> io::Result<&'a mut [u8]> {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;
    extern "C" {
        fn pread(fd: c_int, buf: *mut c_void, count: usize, offset: i64) -> isize;
    }
    let mut filled = 0;
    while filled < buf.len() {
        let at = i64::try_from(offset + filled as u64)
            .map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
        let rest = &mut buf[filled..];
        // SAFETY: `rest` is valid for writes of `rest.len()` bytes, and
        // `pread` writes at most that many.
        let read = unsafe { pread(file.as_raw_fd(), rest.as_mut_ptr().cast(), rest.len(), at) };
        match read {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n if n > 0 => filled += n as usize,
            _ => {
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
        }
    }
    // SAFETY: the loop above initialized every byte of `buf`.
    Ok(unsafe { &mut *(buf as *mut [MaybeUninit<u8>] as *mut [u8]) })
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
use zeroed_read_exact_at as read_exact_at;

/// `read_exact_at` on every other target: zeroes the chunk, then reads
/// into it. Tests compile it everywhere and check it against the `pread`
/// form.
#[cfg(any(test, not(all(unix, target_pointer_width = "64"))))]
fn zeroed_read_exact_at<'a>(
    mut file: &File,
    buf: &'a mut [MaybeUninit<u8>],
    offset: u64,
) -> io::Result<&'a mut [u8]> {
    for byte in buf.iter_mut() {
        byte.write(0);
    }
    // SAFETY: every byte was just written.
    let buf = unsafe { &mut *(buf as *mut [MaybeUninit<u8>] as *mut [u8]) };
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)?;
    Ok(buf)
}

/// A store opened for reading. Opening validates the header page against
/// the file's on-disk length. Each requested section is then read once,
/// straight into its final `Vec` in cache-sized chunks, and every chunk
/// is checksummed (and, for [`StoreReader::read_ids`], range-checked)
/// right after it lands, while it is still in cache. Sections fail
/// closed: a payload whose checksum mismatches, or whose ids overrun
/// their bound, is reported by name, and its data is never returned.
#[derive(Debug)]
pub struct StoreReader {
    file: File,
    file_len: u64,
    sections: Vec<SectionInfo>,
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

    /// Reads section `id` as little-endian `T`s: one exact-capacity `Vec`
    /// whose spare capacity fills [`READ_CHUNK`] bytes at a time. Each
    /// chunk is folded into the payload CRC as it lands (then byte-swapped
    /// on a big-endian target), the `Vec`'s length grows over it, and
    /// `landed` sees it with the index of its first element. The checksum
    /// verdict comes after the last chunk.
    fn read_words<T: Word>(
        &mut self,
        id: u32,
        mut checksum: impl FnMut(u32, &[u8]) -> u32,
        mut landed: impl FnMut(usize, &[T]),
    ) -> Result<Vec<T>, StoreError> {
        let width = std::mem::size_of::<T>();
        let info = self.entry(id, width as u64)?;
        let len =
            usize::try_from(info.len / width as u64).map_err(|_| StoreError::SectionMalformed {
                section: info.name.to_string(),
                detail: format!("{} bytes do not fit this target's memory", info.len),
            })?;
        let mut out: Vec<T> = Vec::with_capacity(len);
        let mut state = !0u32;
        while out.len() < len {
            let start = out.len();
            let n = (READ_CHUNK / width).min(len - start);
            let spare = out.spare_capacity_mut()[..n].as_mut_ptr();
            // SAFETY: `n` spare elements are `n * width` bytes of the
            // `Vec`'s buffer, and `MaybeUninit<u8>` may hold any byte.
            let spare = unsafe { std::slice::from_raw_parts_mut(spare.cast(), n * width) };
            let offset = info.offset + (start * width) as u64;
            let bytes = read_exact_at(&self.file, spare, offset)?;
            state = checksum(state, bytes);
            if cfg!(target_endian = "big") {
                for word in bytes.chunks_exact_mut(width) {
                    word.reverse();
                }
            }
            // SAFETY: the read initialized these `n` elements, and `T` is a
            // primitive integer, for which any bytes are a value.
            unsafe { out.set_len(start + n) };
            landed(start, &out[start..]);
        }
        if !state != info.crc {
            return Err(StoreError::SectionCrc {
                section: info.name.to_string(),
            });
        }
        Ok(out)
    }

    /// A section's raw payload, checksum-verified.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] when the table lacks `id`;
    /// [`StoreError::SectionCrc`] naming the section when its payload
    /// fails the checksum; [`StoreError::Io`] on a failed read.
    pub fn read_bytes(&mut self, id: u32) -> Result<Vec<u8>, StoreError> {
        self.read_words(id, crc::update, |_, _: &[u8]| {})
    }

    /// A section decoded as little-endian u32s, checksum-verified.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::read_bytes`], plus
    /// [`StoreError::SectionMalformed`] when the payload length is not a
    /// multiple of 4.
    pub fn read_u32s(&mut self, id: u32) -> Result<Vec<u32>, StoreError> {
        self.read_words(id, crc::update, |_, _: &[u32]| {})
    }

    /// A section of little-endian u32 ids, each below `bound`, checksum-
    /// and range-checked. Where the CRC's folding kernel runs, it takes
    /// each chunk's maximum from the lanes it loads; elsewhere the range
    /// check folds the maximum while the chunk is still in cache. Either
    /// way it costs no second read of the section.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::read_u32s`], plus
    /// [`StoreError::SectionMalformed`] naming the section and its first
    /// id not below `bound`. A payload that fails its checksum reports
    /// [`StoreError::SectionCrc`] instead.
    pub fn read_ids(&mut self, id: u32, bound: u32) -> Result<Vec<u32>, StoreError> {
        let mut overrun = None;
        let folded = Cell::new(None);
        let checksum = |state, bytes: &[u8]| {
            let (state, max) = crc::update_max(state, bytes);
            folded.set(max);
            state
        };
        let ids = self.read_words(id, checksum, |start, chunk: &[u32]| {
            let max = folded.take().unwrap_or_else(|| range::max(chunk));
            if overrun.is_none() && max >= bound {
                overrun = chunk
                    .iter()
                    .position(|&v| v >= bound)
                    .map(|i| (start + i, chunk[i]));
            }
        })?;
        match overrun {
            None => Ok(ids),
            Some((index, value)) => Err(StoreError::SectionMalformed {
                section: section_name(id).to_string(),
                detail: format!("element {index} is id {value}, not below the bound {bound}"),
            }),
        }
    }

    /// A section decoded as little-endian u64s, checksum-verified.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::read_bytes`], plus
    /// [`StoreError::SectionMalformed`] when the payload length is not a
    /// multiple of 8.
    pub fn read_u64s(&mut self, id: u32) -> Result<Vec<u64>, StoreError> {
        self.read_words(id, crc::update, |_, _: &[u64]| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    /// Payload lengths around the writer's buffer size as well as small
    /// and multi-buffer ones, so sections and padding straddle flushes.
    fn arb_len() -> impl Strategy<Value = usize> {
        (0usize..3, 0usize..3 * WRITE_CHUNK).prop_map(|(kind, raw)| match kind {
            0 => raw % 300,
            1 => WRITE_CHUNK - 5_000 + raw % 10_000,
            _ => raw,
        })
    }

    /// Both read forms return the file's bytes from any offset, a whole
    /// chunk or less, and fail with `UnexpectedEof` past the end.
    #[test]
    fn both_read_forms_return_the_files_bytes() {
        type ReadAt = for<'a> fn(&File, &'a mut [MaybeUninit<u8>], u64) -> io::Result<&'a mut [u8]>;
        let dir = std::env::temp_dir().join(format!("mcss-read-at-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bytes");
        let bytes: Vec<u8> = (0..READ_CHUNK + 5_000).map(|i| (i % 251) as u8).collect();
        fs::write(&path, &bytes).unwrap();
        let file = File::open(&path).unwrap();
        let forms: [(&str, ReadAt); 2] = [
            ("read_exact_at", read_exact_at),
            ("zeroed_read_exact_at", zeroed_read_exact_at),
        ];
        for (name, read) in forms {
            let reads = [
                (0, READ_CHUNK),
                (READ_CHUNK, 5_000),
                (3, 4_093),
                (bytes.len(), 0),
            ];
            for (offset, len) in reads {
                let mut buf = vec![MaybeUninit::uninit(); len];
                let got = read(&file, &mut buf, offset as u64).unwrap();
                assert!(
                    got == &bytes[offset..offset + len],
                    "{name} at {offset}+{len}"
                );
            }
            let mut buf = [MaybeUninit::uninit(); 10];
            let err = read(&file, &mut buf, bytes.len() as u64 - 4).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{name}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// An in-memory sink that holds every write to the `O_DIRECT`
    /// contract: whole pages, from a page-aligned buffer, at a
    /// page-aligned offset.
    struct PagedSink(Cursor<Vec<u8>>);

    impl Write for PagedSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            assert_eq!(buf.len() % PAGE, 0, "a write of {} bytes", buf.len());
            assert_eq!(buf.as_ptr().align_offset(PAGE), 0, "an unaligned buffer");
            assert_eq!(self.0.position() % PAGE as u64, 0, "an unaligned offset");
            self.0.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.0.flush()
        }
    }

    impl Seek for PagedSink {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.0.seek(pos)
        }
    }

    impl StoreFile for PagedSink {
        fn set_len(&mut self, len: u64) -> io::Result<()> {
            self.0.set_len(len)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Streamed through `put` in pieces of 1-, 4- and 24-byte
        /// elements, any run of sections comes out byte-identical to the
        /// in-memory builder's image, written in whole aligned pages.
        #[test]
        fn streamed_bytes_equal_the_builders(
            sections in proptest::collection::vec((arb_len(), 0usize..3, 1usize..4, 0u8..=255), 0..6),
        ) {
            let mut builder = StoreBuilder::new();
            let mut writer = StoreWriter::new(PagedSink(Cursor::new(Vec::new()))).unwrap();
            for (i, &(len, width, pieces, seed)) in sections.iter().enumerate() {
                let width = [1, 4, 24][width];
                let payload: Vec<u8> = (0..len - len % width)
                    .map(|k| (k as u8).wrapping_mul(31) ^ seed)
                    .collect();
                let id = 0x40 + i as u32;
                builder.section(id, payload.clone());
                writer.begin(id).unwrap();
                let piece = payload.len().div_ceil(pieces).next_multiple_of(width).max(width);
                for part in payload.chunks(piece) {
                    match width {
                        1 => writer.put(part, |&b| [b]).unwrap(),
                        4 => writer.put(part.as_chunks::<4>().0, |c| *c).unwrap(),
                        _ => writer.put(part.as_chunks::<24>().0, |c| *c).unwrap(),
                    }
                }
                writer.end().unwrap();
            }
            let streamed = writer.finish().unwrap().0.into_inner();
            prop_assert!(streamed == builder.to_bytes(), "streamed image differs");
        }
    }
}
