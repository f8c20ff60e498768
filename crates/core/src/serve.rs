//! Event-sourced drift daemon: an append-only operation log folded into
//! epochs through the O(Δ) churn path, with checksummed snapshots and
//! bit-identical crash recovery.
//!
//! The paper evaluates MCSS as a batch solver, but its premise — the
//! fleet stays cost-optimal *as the workload drifts* (§IV-F, §VI) —
//! only pays off when the solver runs continuously. This module is that
//! run-forever layer:
//!
//! * [`Event`] — the three raw operations a pub/sub control plane
//!   emits (`Rerate`, `Subscribe`, `Unsubscribe`) plus the
//!   daemon-written `EpochMark` that pins epoch boundaries into the log;
//! * [`EventLog`] — an append-only, CRC-checksummed log with monotonic
//!   sequence numbers and torn-tail-tolerant replay;
//! * [`Snapshot`] — a point-in-time capture written as an `MCSSTOR1`
//!   store container: the full workload arenas (primaries *and* derived
//!   tables), the Stage-1 [`Selection`] CSR, the [`FleetLedger`] slot
//!   table, and the last applied sequence number, each a checksummed
//!   section, written atomically;
//! * [`Daemon`] — the serve loop: buffer events into the current epoch,
//!   close the epoch on a watermark ([`ServeConfig::with_epoch_events`])
//!   or an external tick ([`Daemon::tick`]), fold the buffered
//!   operations into a [`WorkloadDelta`] via
//!   [`pubsub_model::WorkloadEdit`], and apply them through the
//!   counter-only core of [`IncrementalReallocator::step_with_delta`],
//!   so steady-state epoch cost is O(Δ): an epoch exports no fleet and
//!   reads its VM count and bandwidth from the ledger's counters
//!   ([`Daemon::allocation`] exports on demand);
//! * [`Driver`] — feeds the log from [`DriftModel`], making
//!   `mcss serve --trace spotify` self-exercising offline.
//!
//! # Crash consistency
//!
//! Recovery ([`Daemon::resume`]) loads the latest snapshot (if any),
//! then makes one verifying pass over the log through a fixed
//! 1 MiB buffer: every record's checksum, decoding and sequence number
//! is checked, but only the records past the snapshot's sequence number
//! are kept and replayed, re-applying an epoch at every `EpochMark`
//! (redo from the checkpoint, as in ARIES). A snapshot already holds
//! every workload arena, so the daemon adopts it with zero rebuild —
//! only the ledger's reuse heap and reverse index
//! ([`FleetLedger::from_slots`]) and the re-allocator basis
//! ([`IncrementalReallocator::restore`]) are reconstructed, both cheap
//! and deterministic. Every derived structure is a deterministic
//! function of the persisted state, so the recovered
//! daemon is **bit-identical** to one that never stopped: same
//! selections, same placements, same future decisions. The crash-replay
//! property test (`crates/core/tests/serve_replay.rs`) kills a daemon
//! at an arbitrary event index and asserts exactly that — ranked and
//! follower arenas included.
//!
//! A bad record past the snapshot is a torn tail and is truncated. A
//! bad record the snapshot covers was fsynced before the snapshot
//! existed, so it cannot be torn: recovery fails closed and leaves the
//! log as it was.
//!
//! On-disk formats are documented field-by-field in `docs/SERVE.md`
//! (event log) and `docs/STORE.md` (the store container snapshots are
//! written in).

use crate::dynamic::{DriftModel, WorkloadDelta};
use crate::incremental::{IncrementalConfig, IncrementalReallocator, SlaBudget};
use crate::ledger::{FleetLedger, LedgerSlots};
use crate::stage2::SearchBudget;
use crate::store::{read_ledger_sections, read_selection_sections};
use crate::{Allocation, McssError, McssInstance, Selection};
use cloud_cost::{CostModel, Money};
use mcss_store::{
    section as store_section, SectionSink, StoreError, StoreFile, StoreReader, StoreWriter,
};
use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId, Workload, WorkloadEdit};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Event-log file name inside a serve directory.
pub const LOG_FILE: &str = "events.log";
/// Snapshot file name inside a serve directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

const LOG_MAGIC: &[u8; 8] = b"MCSSLOG1";
/// The event-log format this build reads and writes; any other version
/// fails closed on open.
const LOG_VERSION: u32 = 2;
/// Log header: magic, then the format version.
const LOG_HEADER: usize = 12;
/// Record framing ahead of the payload: CRC32, then payload length.
const RECORD_FRAME: usize = 8;
/// Longest valid payload (a `Rerate`: sequence, kind, topic, rate). A
/// longer length field can only belong to a damaged record.
const MAX_PAYLOAD: usize = 8 + 1 + 4 + 8;
/// The log scanner's one reused read buffer. Recovery streams the log
/// through it, so its memory stays flat however long the log grows.
const SCAN_BUFFER: usize = 1 << 20;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Everything that can go wrong in the serve layer.
#[derive(Debug)]
pub enum ServeError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A log or snapshot file failed validation (bad magic, version,
    /// checksum, or internally inconsistent contents).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to validate.
        detail: String,
    },
    /// An event or configuration was rejected before touching any state.
    Rejected(String),
    /// The solver could not apply an epoch (e.g. an infeasible topic).
    Solve(McssError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Corrupt { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
            ServeError::Rejected(why) => write!(f, "{why}"),
            ServeError::Solve(e) => write!(f, "epoch apply failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<McssError> for ServeError {
    fn from(e: McssError) -> Self {
        ServeError::Solve(e)
    }
}

// ---------------------------------------------------------------------
// CRC32 and little-endian codec helpers
// ---------------------------------------------------------------------

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), shared with the store
// container so log records and snapshot sections checksum identically.
use mcss_store::crc32;

/// One framed log record — CRC32 and length of the payload, then the
/// payload — encoded into a stack buffer that fits the longest record, so
/// appending an event allocates nothing.
struct Record {
    buf: [u8; RECORD_FRAME + MAX_PAYLOAD],
    len: usize,
}

impl Record {
    fn put_u8(&mut self, x: u8) {
        self.buf[self.len] = x;
        self.len += 1;
    }

    fn put_u32(&mut self, x: u32) {
        self.buf[self.len..self.len + 4].copy_from_slice(&x.to_le_bytes());
        self.len += 4;
    }

    fn put_u64(&mut self, x: u64) {
        self.buf[self.len..self.len + 8].copy_from_slice(&x.to_le_bytes());
        self.len += 8;
    }

    /// The encoded record.
    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }
}

// ---------------------------------------------------------------------
// Disk-fault injection
// ---------------------------------------------------------------------

/// One injected disk fault, armed on a [`FaultInjector`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// The next write persists only the first `keep` bytes of its buffer
    /// and then errors; every later write on that file errors too (the
    /// device is gone). This is the torn-write / dying-disk case.
    ShortWrite {
        /// Bytes of the faulted write that still reach the file.
        keep: usize,
    },
    /// The next `times` fsync calls fail (and persist nothing extra);
    /// writes keep working. This is the transient-controller case the
    /// daemon's retry/backoff knobs exist for.
    SyncFail {
        /// How many consecutive sync calls fail before syncs recover.
        times: u32,
    },
    /// The next snapshot file opened for direct I/O is refused with
    /// `EINVAL`, as a filesystem without `O_DIRECT` refuses it; the
    /// writer then opens the file plainly. Nothing is refused on targets
    /// that never ask for direct I/O.
    RefuseDirect,
}

#[derive(Debug, Default)]
struct FaultState {
    short_write: Option<usize>,
    sync_fails: u32,
    refuse_direct: bool,
    /// Set after a short write fired: the "device" stays broken.
    dead: bool,
}

/// Shared handle that arms disk faults on the files wrapped by
/// [`EventLog::create_with_faults`] and
/// [`Snapshot::write_with_faults`]. Cloning shares the armed state, so a
/// test can hold one handle while the daemon owns the wrapped file.
///
/// Bit-flip faults have no injection point here on purpose: they model
/// at-rest corruption, which tests apply by rewriting the file bytes
/// directly (see `crates/core/tests/fault_injection.rs`).
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    state: Arc<std::sync::Mutex<FaultState>>,
}

impl FaultInjector {
    /// A fresh injector with no faults armed.
    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    /// Arms one fault. `ShortWrite` replaces any armed short write;
    /// `SyncFail` replaces the armed sync-failure count.
    pub fn arm(&self, fault: IoFault) {
        let mut s = self.state.lock().unwrap();
        match fault {
            IoFault::ShortWrite { keep } => s.short_write = Some(keep),
            IoFault::SyncFail { times } => s.sync_fails = times,
            IoFault::RefuseDirect => s.refuse_direct = true,
        }
    }

    /// Clears all armed faults and revives a dead device.
    pub fn disarm(&self) {
        *self.state.lock().unwrap() = FaultState::default();
    }

    fn injected(detail: &str) -> std::io::Error {
        std::io::Error::other(format!("injected fault: {detail}"))
    }
}

/// A [`File`] wrapper that consults a [`FaultInjector`] on every write,
/// seek, cut and sync. With no injector it is a zero-overhead
/// passthrough — the production [`EventLog`] and snapshot writes always
/// run through this type so the faulted and unfaulted paths cannot drift
/// apart.
#[derive(Debug)]
struct FaultFile {
    file: File,
    injector: Option<FaultInjector>,
}

impl FaultFile {
    /// Fails once an injected short write has killed the device.
    fn alive(&self) -> std::io::Result<()> {
        match &self.injector {
            Some(inj) if inj.state.lock().unwrap().dead => {
                Err(FaultInjector::injected("device failed"))
            }
            _ => Ok(()),
        }
    }

    fn sync_data(&self) -> std::io::Result<()> {
        if let Some(inj) = &self.injector {
            let mut s = inj.state.lock().unwrap();
            if s.dead {
                return Err(FaultInjector::injected("device failed"));
            }
            if s.sync_fails > 0 {
                s.sync_fails -= 1;
                return Err(FaultInjector::injected("fsync failed"));
            }
        }
        self.file.sync_data()
    }
}

impl std::io::Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(inj) = &self.injector {
            let mut s = inj.state.lock().unwrap();
            if s.dead {
                return Err(FaultInjector::injected("device failed"));
            }
            if let Some(keep) = s.short_write.take() {
                s.dead = true;
                drop(s);
                // A file opened with `O_DIRECT` refuses a write that is
                // not whole blocks, so the kept prefix may not land; the
                // caller sees the injected fault either way.
                let _ = self.file.write_all(&buf[..keep.min(buf.len())]);
                return Err(FaultInjector::injected("short write"));
            }
        }
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl Seek for FaultFile {
    /// Moves the write position (the store writer seeks back to write
    /// its header page last). A dead device fails here as it fails every
    /// write.
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.alive()?;
        self.file.seek(pos)
    }
}

impl StoreFile for FaultFile {
    /// Cuts the file to `len` bytes (the store writer drops its last
    /// page's padding). A dead device fails here as it fails every write.
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.alive()?;
        self.file.set_len(len)
    }
}

/// `O_DIRECT` on x86_64 Linux. The value differs by architecture, so
/// only this target asks for direct I/O.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const O_DIRECT: i32 = 0o40000;

/// Creates (or truncates) `path` for writing with `O_DIRECT`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn create_direct(path: &Path) -> std::io::Result<File> {
    use std::os::unix::fs::OpenOptionsExt as _;
    OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .custom_flags(O_DIRECT)
        .open(path)
}

/// Creates `path` for a snapshot's bytes. On Linux x86_64 it asks for
/// `O_DIRECT`, so the store writer's page-aligned buffer goes straight to
/// the device and no page of the file enters the page cache, or has to
/// be freed when the next snapshot's rename replaces it. A filesystem
/// that refuses the flag with `EINVAL` (tmpfs before Linux 6.6), an
/// injected [`IoFault::RefuseDirect`], and every other target get the
/// plain open; the writer is the same either way.
fn create_snapshot_file(path: &Path, injector: Option<&FaultInjector>) -> std::io::Result<File> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        /// `EINVAL` on Linux.
        const EINVAL: i32 = 22;
        let refused = injector
            .is_some_and(|inj| std::mem::take(&mut inj.state.lock().unwrap().refuse_direct));
        if !refused {
            match create_direct(path) {
                Err(e) if e.raw_os_error() == Some(EINVAL) => {}
                opened => return opened,
            }
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    let _ = injector;
    File::create(path)
}

// ---------------------------------------------------------------------
// Events and the append-only log
// ---------------------------------------------------------------------

/// One logged operation (module docs; on-disk layout in `docs/SERVE.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Sets (or, for the next unused topic id, introduces) a topic's
    /// event rate.
    Rerate {
        /// The re-rated topic.
        topic: TopicId,
        /// Its new `ev_t`.
        rate: Rate,
    },
    /// Adds the pair `(topic, subscriber)` to the interest relation.
    Subscribe {
        /// The subscriber gaining an interest.
        subscriber: SubscriberId,
        /// The topic subscribed to (must have a rate already).
        topic: TopicId,
    },
    /// Removes the pair `(topic, subscriber)`; a no-op if absent.
    Unsubscribe {
        /// The subscriber losing an interest.
        subscriber: SubscriberId,
        /// The topic unsubscribed from.
        topic: TopicId,
    },
    /// Epoch boundary, written by the daemon itself when it closes an
    /// epoch — never submitted by callers. Pinning boundaries into the
    /// log makes replay group events into exactly the original epochs,
    /// whether they were closed by watermark or by wall-clock tick.
    EpochMark {
        /// The (0-based) index of the epoch this mark closed.
        epoch: u64,
    },
    /// A VM died (log format v2). The ledger slot is quarantined at the
    /// next epoch close and its orphaned pairs are re-placed under the
    /// configured [`ServeConfig::repair_budget`].
    VmFail {
        /// Ledger slot index of the failed VM.
        slot: u32,
    },
    /// A failed VM came back (log format v2): its quarantined slot
    /// rejoins the fresh-VM reuse pool at the next epoch close.
    VmRecover {
        /// Ledger slot index of the recovered VM.
        slot: u32,
    },
}

const KIND_RERATE: u8 = 0;
const KIND_SUBSCRIBE: u8 = 1;
const KIND_UNSUBSCRIBE: u8 = 2;
const KIND_EPOCH_MARK: u8 = 3;
const KIND_VM_FAIL: u8 = 4;
const KIND_VM_RECOVER: u8 = 5;

impl Event {
    /// The event's log record with sequence number `seq`.
    fn record(self, seq: u64) -> Record {
        let mut r = Record {
            buf: [0; RECORD_FRAME + MAX_PAYLOAD],
            len: RECORD_FRAME,
        };
        r.put_u64(seq);
        match self {
            Event::Rerate { topic, rate } => {
                r.put_u8(KIND_RERATE);
                r.put_u32(topic.index() as u32);
                r.put_u64(rate.get());
            }
            Event::Subscribe { subscriber, topic } => {
                r.put_u8(KIND_SUBSCRIBE);
                r.put_u32(subscriber.index() as u32);
                r.put_u32(topic.index() as u32);
            }
            Event::Unsubscribe { subscriber, topic } => {
                r.put_u8(KIND_UNSUBSCRIBE);
                r.put_u32(subscriber.index() as u32);
                r.put_u32(topic.index() as u32);
            }
            Event::EpochMark { epoch } => {
                r.put_u8(KIND_EPOCH_MARK);
                r.put_u64(epoch);
            }
            Event::VmFail { slot } => {
                r.put_u8(KIND_VM_FAIL);
                r.put_u32(slot);
            }
            Event::VmRecover { slot } => {
                r.put_u8(KIND_VM_RECOVER);
                r.put_u32(slot);
            }
        }
        let payload = RECORD_FRAME..r.len;
        let crc = crc32(&r.buf[payload.clone()]);
        r.buf[..4].copy_from_slice(&crc.to_le_bytes());
        r.buf[4..RECORD_FRAME].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        r
    }

    fn decode_payload(payload: &[u8]) -> Option<(u64, Event)> {
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let event = match r.u8()? {
            KIND_RERATE => Event::Rerate {
                topic: TopicId::new(r.u32()?),
                rate: Rate::new(r.u64()?),
            },
            KIND_SUBSCRIBE => Event::Subscribe {
                subscriber: SubscriberId::new(r.u32()?),
                topic: TopicId::new(r.u32()?),
            },
            KIND_UNSUBSCRIBE => Event::Unsubscribe {
                subscriber: SubscriberId::new(r.u32()?),
                topic: TopicId::new(r.u32()?),
            },
            KIND_EPOCH_MARK => Event::EpochMark { epoch: r.u64()? },
            KIND_VM_FAIL => Event::VmFail { slot: r.u32()? },
            KIND_VM_RECOVER => Event::VmRecover { slot: r.u32()? },
            _ => return None,
        };
        if r.remaining() != 0 {
            return None;
        }
        Some((seq, event))
    }
}

/// A replayed log record: the event and its sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SequencedEvent {
    /// Monotonic sequence number (1-based).
    pub seq: u64,
    /// The logged event.
    pub event: Event,
}

/// What one verifying pass over the log found, beyond the records it
/// kept (see [`EventLog::open_past`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LogScan {
    /// Records whose checksum, decoding and sequence number held.
    verified: u64,
    /// Bytes past the last valid record, cut off as a torn tail.
    torn_bytes: u64,
}

/// Reads into `buf` until it is full or the file ends, returning the
/// byte count.
fn read_up_to(file: &mut File, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

fn log_header() -> [u8; LOG_HEADER] {
    let mut header = [0u8; LOG_HEADER];
    header[..8].copy_from_slice(LOG_MAGIC);
    header[8..].copy_from_slice(&LOG_VERSION.to_le_bytes());
    header
}

/// Append-only, checksummed event log (module docs).
///
/// Every record carries a CRC32 and a monotonic sequence number; replay
/// stops at the first record that fails validation and truncates the
/// file there, so a write torn by a crash costs at most the torn record
/// — never the log.
///
/// ```
/// use mcss_core::serve::{Event, EventLog};
/// use pubsub_model::{Rate, TopicId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join(format!("mcss-log-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("events.log");
///
/// let mut log = EventLog::create(&path)?;
/// let seq = log.append(Event::Rerate { topic: TopicId::new(0), rate: Rate::new(20) })?;
/// assert_eq!(seq, 1);
/// log.sync()?;
/// drop(log);
///
/// let (log, records) = EventLog::open(&path)?;
/// assert_eq!(records.len(), 1);
/// assert_eq!(records[0].seq, 1);
/// assert_eq!(log.next_seq(), 2);
/// # drop(log);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EventLog {
    writer: BufWriter<FaultFile>,
    next_seq: u64,
}

impl EventLog {
    /// Creates (or truncates) the log at `path` and writes the header.
    ///
    /// # Errors
    ///
    /// Any [`ServeError::Io`] from creating or writing the file.
    pub fn create(path: &Path) -> Result<EventLog, ServeError> {
        EventLog::create_with_faults(path, None)
    }

    /// Like [`EventLog::create`], with every write and sync routed
    /// through `injector` — the hook the disk-fault tests use.
    ///
    /// # Errors
    ///
    /// Any [`ServeError::Io`] from creating or writing the file.
    pub fn create_with_faults(
        path: &Path,
        injector: Option<FaultInjector>,
    ) -> Result<EventLog, ServeError> {
        let mut file = FaultFile {
            file: File::create(path)?,
            injector,
        };
        file.write_all(&log_header())?;
        Ok(EventLog {
            writer: BufWriter::new(file),
            next_seq: 1,
        })
    }

    /// Opens an existing log, replaying every valid record. A torn or
    /// corrupt tail is truncated (replay keeps the valid prefix); the
    /// returned log appends after the last valid record.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] if the header itself is invalid (bad
    /// magic, or a format version other than this build's),
    /// [`ServeError::Io`] on filesystem failures.
    pub fn open(path: &Path) -> Result<(EventLog, Vec<SequencedEvent>), ServeError> {
        EventLog::open_with_faults(path, None)
    }

    /// Like [`EventLog::open`], with every write and sync routed through
    /// `injector`.
    ///
    /// # Errors
    ///
    /// As [`EventLog::open`].
    pub fn open_with_faults(
        path: &Path,
        injector: Option<FaultInjector>,
    ) -> Result<(EventLog, Vec<SequencedEvent>), ServeError> {
        let (log, records, _) = EventLog::open_past(path, injector, 0)?;
        Ok((log, records))
    }

    /// The one log reader: streams the file through a reused
    /// [`SCAN_BUFFER`], verifies every record exactly once (checksum,
    /// decoding, sequence continuity) and keeps only the records past
    /// sequence number `after`.
    ///
    /// The first invalid record ends the valid prefix. If it lies past
    /// `after` it is a torn tail: the file is truncated there. If
    /// `after` covers it, it was fsynced before the snapshot taken at
    /// `after` existed, so it cannot be torn: the call fails closed and
    /// leaves the file as it was. An empty file (a crash before the
    /// header reached the disk) starts a fresh log unless `after` says
    /// records should be there.
    fn open_past(
        path: &Path,
        injector: Option<FaultInjector>,
        after: u64,
    ) -> Result<(EventLog, Vec<SequencedEvent>, LogScan), ServeError> {
        let corrupt = |detail: String| ServeError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len();
        if file_len == 0 {
            if after > 0 {
                return Err(corrupt(format!(
                    "event log is empty but the snapshot was taken at sequence {after}"
                )));
            }
            let mut file = FaultFile { file, injector };
            file.write_all(&log_header())?;
            let log = EventLog {
                writer: BufWriter::new(file),
                next_seq: 1,
            };
            return Ok((log, Vec::new(), LogScan::default()));
        }

        let mut buf = vec![0u8; SCAN_BUFFER];
        let mut hi = read_up_to(&mut file, &mut buf)?;
        let mut eof = hi < buf.len();
        if hi < LOG_HEADER || buf[..8] != LOG_MAGIC[..] {
            return Err(corrupt("not an mcss event log (bad magic)".into()));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != LOG_VERSION {
            return Err(corrupt(format!(
                "unsupported event log version {version} (this build reads {LOG_VERSION})"
            )));
        }

        // `buf[lo..hi]` is the unread window; `pos` is its file offset.
        let mut lo = LOG_HEADER;
        let mut pos = LOG_HEADER as u64;
        let mut records = Vec::new();
        let mut last_seq = 0u64;
        let failure = loop {
            if hi - lo < RECORD_FRAME + MAX_PAYLOAD && !eof {
                buf.copy_within(lo..hi, 0);
                hi -= lo;
                lo = 0;
                let read = read_up_to(&mut file, &mut buf[hi..])?;
                eof = hi + read < buf.len();
                hi += read;
            }
            let mut r = Reader::new(&buf[lo..hi]);
            if r.remaining() == 0 {
                break None;
            }
            let (Some(crc), Some(len)) = (r.u32(), r.u32()) else {
                break Some("torn record frame".to_string());
            };
            let len = len as usize;
            if len > MAX_PAYLOAD {
                break Some(format!("payload length {len} exceeds the longest record"));
            }
            let Some(payload) = r.take(len) else {
                break Some("torn payload".to_string());
            };
            if crc32(payload) != crc {
                break Some("checksum mismatch".to_string());
            }
            let Some((seq, event)) = Event::decode_payload(payload) else {
                break Some("undecodable payload".to_string());
            };
            if seq != last_seq + 1 {
                break Some(format!("sequence number {seq} out of order"));
            }
            last_seq = seq;
            if seq > after {
                records.push(SequencedEvent { seq, event });
            }
            lo += RECORD_FRAME + len;
            pos += (RECORD_FRAME + len) as u64;
        };
        if let Some(reason) = failure {
            if last_seq < after {
                return Err(corrupt(format!(
                    "record {} at byte offset {pos} fails validation ({reason}) but the \
                     snapshot taken at sequence {after} covers it; the log is left as it was",
                    last_seq + 1
                )));
            }
        }
        let torn_bytes = file_len.saturating_sub(pos);
        if torn_bytes > 0 {
            file.set_len(pos)?;
        }
        file.seek(SeekFrom::Start(pos))?;
        let log = EventLog {
            writer: BufWriter::new(FaultFile { file, injector }),
            next_seq: last_seq + 1,
        };
        let scan = LogScan {
            // Valid sequence numbers run 1, 2, … without a gap.
            verified: last_seq,
            torn_bytes,
        };
        Ok((log, records, scan))
    }

    /// Appends one event, returning the sequence number it was assigned.
    /// Writes are buffered, and the record is encoded on the stack, so an
    /// append allocates nothing; call [`EventLog::sync`] to make them
    /// durable (the daemon does so at every epoch boundary).
    ///
    /// # Errors
    ///
    /// Any [`ServeError::Io`] from the buffered write.
    pub fn append(&mut self, event: Event) -> Result<u64, ServeError> {
        let seq = self.next_seq;
        self.writer.write_all(event.record(seq).bytes())?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Flushes buffered records and fsyncs the file.
    ///
    /// # Errors
    ///
    /// Any [`ServeError::Io`] from the flush or sync.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// The sequence number the next append will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// A checksummed point-in-time capture of the daemon's state (module
/// docs; on-disk layout in `docs/STORE.md` and `docs/SERVE.md`).
///
/// A snapshot is an `MCSSTOR1` store container whose sections are the
/// raw arenas — the full workload (primaries *and* derived tables), the
/// Stage-1 selection CSR, and the ledger slot table — so
/// [`Snapshot::load`] performs **zero rebuild**: no interest transpose,
/// no rate ranking, just checksum sweeps and bounds checks.
///
/// ```
/// use mcss_core::serve::Snapshot;
/// use mcss_core::{LedgerSlots, Selection};
/// use pubsub_model::{Bandwidth, Rate, TopicId, Workload};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join(format!("mcss-snap-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("snapshot.bin");
///
/// let snapshot = Snapshot {
///     last_seq: 3,
///     epochs_applied: 1,
///     tau: Rate::new(10),
///     capacity: Bandwidth::new(50),
///     workload: Workload::from_parts(vec![Rate::new(10)], vec![vec![TopicId::new(0)]]),
///     selection: Selection::from_csr(vec![0, 1], vec![TopicId::new(0)]),
///     slots: LedgerSlots::default(),
/// };
/// snapshot.write(&path)?;   // atomically: tmp file + rename
/// let loaded = Snapshot::load(&path)?;
/// assert_eq!(loaded.last_seq, 3);
/// assert_eq!(loaded.workload, snapshot.workload); // bit-identical, zero rebuild
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Sequence number of the last applied `EpochMark`; replay resumes
    /// with the first record after it.
    pub last_seq: u64,
    /// Number of epochs applied so far.
    pub epochs_applied: u64,
    /// The satisfaction threshold the daemon runs at.
    pub tau: Rate,
    /// The per-VM capacity the daemon runs at.
    pub capacity: Bandwidth,
    /// The full workload as of the last applied epoch — all six arenas,
    /// persisted verbatim so recovery never re-derives them.
    pub workload: Workload,
    /// The Stage-1 selection as of the last applied epoch.
    pub selection: Selection,
    /// The fleet ledger's arena, tombstoned slots included.
    pub slots: LedgerSlots,
}

impl Snapshot {
    /// Loads and validates a snapshot with zero derived-state rebuild,
    /// streaming each section through the store reader.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] on bad magic, unsupported version,
    /// checksum mismatch, or truncated/inconsistent contents — naming
    /// the failing store section where one is attributable;
    /// [`ServeError::Io`] on filesystem failures.
    pub fn load(path: &Path) -> Result<Snapshot, ServeError> {
        let as_corrupt = |e: StoreError| match e {
            StoreError::Io(e) => ServeError::Io(e),
            e => ServeError::Corrupt {
                path: path.to_path_buf(),
                detail: format!("corrupted snapshot: {e}"),
            },
        };
        let mut reader = StoreReader::open(path).map_err(as_corrupt)?;
        let meta = reader
            .read_u64s(store_section::SERVE_META)
            .map_err(as_corrupt)?;
        let [last_seq, epochs_applied, tau, capacity] = meta[..] else {
            return Err(ServeError::Corrupt {
                path: path.to_path_buf(),
                detail: format!(
                    "corrupted snapshot: section `serve-meta` must hold 4 u64s, found {}",
                    meta.len()
                ),
            });
        };
        let workload = mcss_store::read_workload_sections(&mut reader).map_err(as_corrupt)?;
        let selection = read_selection_sections(&mut reader, &workload).map_err(as_corrupt)?;
        let slots = read_ledger_sections(&mut reader, &workload).map_err(as_corrupt)?;
        Ok(Snapshot {
            last_seq,
            epochs_applied,
            tau: Rate::new(tau),
            capacity: Bandwidth::new(capacity),
            workload,
            selection,
            slots,
        })
    }

    /// Writes the snapshot atomically: the sections stream to
    /// `<path>.tmp`, which is fsynced and renamed over `path`, and then
    /// the directory is fsynced — a crash mid-write leaves the previous
    /// snapshot intact.
    ///
    /// # Errors
    ///
    /// Any [`ServeError::Io`] from writing, syncing or renaming.
    pub fn write(&self, path: &Path) -> Result<(), ServeError> {
        self.write_with_faults(path, None)
    }

    /// Like [`Snapshot::write`], with the tmp-file write and sync routed
    /// through `injector`. The atomicity contract is what the fault
    /// tests probe: a fault anywhere before the rename leaves the
    /// previous snapshot untouched.
    ///
    /// # Errors
    ///
    /// As [`Snapshot::write`].
    pub fn write_with_faults(
        &self,
        path: &Path,
        injector: Option<FaultInjector>,
    ) -> Result<(), ServeError> {
        SnapshotRef {
            last_seq: self.last_seq,
            epochs_applied: self.epochs_applied,
            tau: self.tau,
            capacity: self.capacity,
            workload: &self.workload,
            selection: &self.selection,
            slots: &self.slots,
        }
        .write(path, injector)
    }
}

/// A [`Snapshot`]'s contents by reference: the one encoder behind both
/// [`Snapshot::write`] and the daemon's periodic snapshot, which streams
/// its live workload, selection and ledger without copying them.
struct SnapshotRef<'a> {
    last_seq: u64,
    epochs_applied: u64,
    tau: Rate,
    capacity: Bandwidth,
    workload: &'a Workload,
    selection: &'a Selection,
    /// The ledger's arena, written verbatim.
    slots: &'a LedgerSlots,
}

impl SnapshotRef<'_> {
    /// [`Snapshot::write_with_faults`]: the serve metadata and every
    /// arena section stream to the tmp file, opened for direct I/O where
    /// it can be ([`create_snapshot_file`]), in whole pages through the
    /// store writer's one aligned buffer; the header page goes last, the
    /// file is cut to the store's length, then sync, rename and
    /// directory sync.
    fn write(self, path: &Path, injector: Option<FaultInjector>) -> Result<(), ServeError> {
        let tmp = path.with_extension("bin.tmp");
        let mut store = StoreWriter::new(FaultFile {
            file: create_snapshot_file(&tmp, injector.as_ref())?,
            injector,
        })?;
        let meta = [
            self.last_seq,
            self.epochs_applied,
            self.tau.get(),
            self.capacity.get(),
        ];
        store.put_section(store_section::SERVE_META, &meta, |v| v.to_le_bytes())?;
        mcss_store::write_workload_sections(&mut store, self.workload)?;
        crate::store::write_selection_sections(&mut store, self.selection)?;
        crate::store::write_ledger_sections(&mut store, self.slots)?;
        let file = store.finish()?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, path)?;
        mcss_store::sync_parent(path)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The serve loop
// ---------------------------------------------------------------------

/// Serve-loop configuration, builder style.
///
/// ```
/// use mcss_core::serve::ServeConfig;
/// use pubsub_model::{Bandwidth, Rate};
///
/// let config = ServeConfig::new(Rate::new(40), Bandwidth::new(1_000))
///     .with_epoch_events(500)   // close an epoch every 500 events
///     .with_snapshot_every(4);  // snapshot every 4 epochs
/// assert_eq!(config.epoch_events, Some(500));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Satisfaction threshold `τ`.
    pub tau: Rate,
    /// Per-VM bandwidth capacity `BC`.
    pub capacity: Bandwidth,
    /// Watermark: close an epoch after this many buffered events. `None`
    /// means epochs close only on [`Daemon::tick`] (e.g. a wall-clock
    /// timer). Must be positive when set.
    pub epoch_events: Option<u64>,
    /// Write a snapshot every this many applied epochs; `0` disables
    /// periodic snapshots ([`Daemon::snapshot_now`] still works).
    pub snapshot_every: u64,
    /// Threads for the epoch's dirty re-selection
    /// ([`IncrementalConfig::repair_threads`]); `1` runs it on the calling
    /// thread. The repaired selection is bit-identical either way,
    /// so this is a runtime knob — it is not recorded in snapshots and may
    /// differ across [`Daemon::resume`] calls. Must be positive.
    pub threads: usize,
    /// Per-epoch SLA budget for VM-failure repair: at most this many
    /// orphaned pairs are re-placed per epoch close, the rest carry over.
    /// `None` drains every orphan in the epoch it is noticed. It counts
    /// pairs, never wall-clock time, so crash replay repeats it exactly
    /// ([`crate::incremental::SlaBudget`]). This budget shapes state
    /// evolution, so resume with the value the log was written under
    /// (like `tau`, unlike `threads`).
    pub repair_budget: Option<u64>,
    /// Extra attempts after a failed epoch-boundary fsync before the
    /// error propagates; `0` fails fast. Runtime knob, like `threads`.
    pub sync_retries: u32,
    /// Sleep between fsync retries, in milliseconds.
    pub retry_backoff_ms: u64,
    /// Run a Stage-2 compaction pass
    /// ([`IncrementalReallocator::compact`]) every this many applied
    /// epochs; `None` disables compaction. Like `repair_budget` this
    /// shapes state evolution, so resume with the value the log was
    /// written under. Must be positive when set.
    pub compact_every: Option<u64>,
    /// Local-search step budget per compaction pass. Steps, not
    /// wall-clock: a time budget would make crash replay
    /// non-deterministic (the replayed pass could stop at a different
    /// move and rebuild a different fleet). Must be positive when
    /// compaction is enabled.
    pub compact_steps: u64,
}

impl ServeConfig {
    /// A configuration with no watermark and snapshots every 8 epochs.
    pub fn new(tau: Rate, capacity: Bandwidth) -> ServeConfig {
        ServeConfig {
            tau,
            capacity,
            epoch_events: None,
            snapshot_every: 8,
            threads: 1,
            repair_budget: None,
            sync_retries: 0,
            retry_backoff_ms: 0,
            compact_every: None,
            compact_steps: 0,
        }
    }

    /// Enables periodic Stage-2 compaction: every `epochs` applied
    /// epochs, spend up to `steps` local-search moves re-packing the
    /// fleet (see [`ServeConfig::compact_every`]).
    pub fn with_compaction(mut self, epochs: u64, steps: u64) -> ServeConfig {
        self.compact_every = Some(epochs);
        self.compact_steps = steps;
        self
    }

    /// Sets the per-epoch repair budget (see
    /// [`ServeConfig::repair_budget`]).
    pub fn with_repair_budget(mut self, pairs: u64) -> ServeConfig {
        self.repair_budget = Some(pairs);
        self
    }

    /// Sets fsync retry count and backoff (see
    /// [`ServeConfig::sync_retries`]).
    pub fn with_sync_retries(mut self, retries: u32, backoff_ms: u64) -> ServeConfig {
        self.sync_retries = retries;
        self.retry_backoff_ms = backoff_ms;
        self
    }

    /// Sets the event-count watermark (see [`ServeConfig::epoch_events`]).
    pub fn with_epoch_events(mut self, events: u64) -> ServeConfig {
        self.epoch_events = Some(events);
        self
    }

    /// Sets the snapshot cadence (see [`ServeConfig::snapshot_every`]).
    pub fn with_snapshot_every(mut self, epochs: u64) -> ServeConfig {
        self.snapshot_every = epochs;
        self
    }

    /// Sets the repair worker-thread count (see [`ServeConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> ServeConfig {
        self.threads = threads;
        self
    }
}

/// One applied epoch's statistics, as printed by `mcss serve` and
/// aggregated into the run summary.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// 0-based index of the applied epoch.
    pub epoch: u64,
    /// Events folded into this epoch.
    pub events_applied: u64,
    /// Pairs newly placed (selection growth plus evictions).
    pub pairs_placed: u64,
    /// Pairs removed from the fleet.
    pub pairs_removed: u64,
    /// Pairs evicted from overflowing VMs and re-placed.
    pub pairs_evicted: u64,
    /// Selection rows reused verbatim by dirty tracking.
    pub pairs_reused: u64,
    /// Whether the compaction floor forced a full re-solve.
    pub full_resolve: bool,
    /// VMs failed by `VmFail` events folded into this epoch.
    pub vms_failed: usize,
    /// Orphaned pairs re-placed by failure repair this epoch (within
    /// [`ServeConfig::repair_budget`]).
    pub pairs_repaired: u64,
    /// Orphaned pairs still deferred after this epoch's repair round.
    pub repair_deferred: u64,
    /// Local-search moves applied by this epoch's compaction pass
    /// (0 when compaction is disabled, skipped, or found no move).
    pub compaction_moves: u64,
    /// Fleet cost saved by this epoch's compaction pass.
    pub compaction_saved: Money,
    /// Live VMs after the epoch.
    pub vm_count: usize,
    /// Fleet cost `C1(|B|) + C2(Σ bw)` after the epoch.
    pub fleet_cost: Money,
    /// Wall-clock time to fold and apply the epoch.
    pub apply_time: Duration,
}

/// What [`Daemon::resume`] did, as counters. They are pure functions of
/// the state directory — no timings — so two recoveries of the same
/// directory report the same numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Log records whose checksum, decoding and sequence number were
    /// verified, snapshot-covered ones included.
    pub records_verified: u64,
    /// Verified records past the snapshot, replayed into the daemon.
    pub records_replayed: u64,
    /// Epochs re-applied at the `EpochMark` records past the snapshot.
    pub epochs_replayed: u64,
    /// Bytes cut from the log's torn tail.
    pub torn_bytes: u64,
}

/// The event-sourced serve loop (module docs).
///
/// Build one with [`Daemon::create`] (fresh state directory) or
/// [`Daemon::resume`] (recover from snapshot + log). Feed it events with
/// [`Daemon::submit`]; epochs close on the configured watermark or an
/// explicit [`Daemon::tick`].
///
/// ```
/// use cloud_cost::{LinearCostModel, Money};
/// use mcss_core::serve::{Daemon, Event, ServeConfig};
/// use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join(format!("mcss-daemon-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
///
/// let config = ServeConfig::new(Rate::new(10), Bandwidth::new(50))
///     .with_epoch_events(2)
///     .with_snapshot_every(1);
/// let cost = Box::new(LinearCostModel::vm_only(Money::from_dollars(1)));
/// let mut daemon = Daemon::create(&dir, config, cost)?;
///
/// daemon.submit(Event::Rerate { topic: TopicId::new(0), rate: Rate::new(10) })?;
/// // The second event reaches the watermark and applies epoch 0.
/// let stats = daemon
///     .submit(Event::Subscribe { subscriber: SubscriberId::new(0), topic: TopicId::new(0) })?
///     .expect("watermark closes the epoch");
/// assert_eq!(stats.epoch, 0);
/// assert_eq!(stats.vm_count, 1);
/// assert_eq!(daemon.epochs_applied(), 1);
/// # drop(daemon);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Daemon {
    dir: PathBuf,
    config: ServeConfig,
    cost: Box<dyn CostModel>,
    log: EventLog,
    /// The workload edit, whose base is the workload as of the last
    /// applied epoch. The daemon holds no other handle to it across an
    /// epoch, so each commit edits it in place.
    edit: WorkloadEdit,
    realloc: IncrementalReallocator,
    epochs_applied: u64,
    pending: u64,
    last_applied: u64,
    /// Buffered `VmFail`/`VmRecover` events of the open epoch — they
    /// bypass the workload edit and fold into the ledger at the next
    /// epoch close, after the drift step.
    fleet_ops: Vec<Event>,
    faults: Option<FaultInjector>,
    /// Set by [`Daemon::resume`].
    recovery: Option<RecoveryStats>,
}

/// Creates the state directory if it is missing, and then fsyncs the
/// parent of each level it made, so the new entries survive a power loss
/// with the log the directory will hold.
fn create_state_dir(dir: &Path) -> std::io::Result<()> {
    if dir.is_dir() {
        return Ok(());
    }
    // The levels `create_dir_all` makes, `dir` first.
    let missing: Vec<&Path> = dir
        .ancestors()
        .take_while(|level| !level.as_os_str().is_empty() && !level.exists())
        .collect();
    fs::create_dir_all(dir)?;
    for level in missing.iter().rev() {
        mcss_store::sync_parent(level)?;
    }
    Ok(())
}

impl Daemon {
    /// Starts a daemon with a fresh state directory (created if needed;
    /// an existing log is truncated).
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] on an invalid configuration
    /// (`epoch_events == Some(0)`), [`ServeError::Io`] on filesystem
    /// failures.
    pub fn create(
        dir: &Path,
        config: ServeConfig,
        cost: Box<dyn CostModel>,
    ) -> Result<Daemon, ServeError> {
        Daemon::create_with_faults(dir, config, cost, None)
    }

    /// Like [`Daemon::create`], with every log and snapshot write routed
    /// through `injector` — the disk-fault test hook.
    ///
    /// # Errors
    ///
    /// As [`Daemon::create`].
    pub fn create_with_faults(
        dir: &Path,
        config: ServeConfig,
        cost: Box<dyn CostModel>,
        faults: Option<FaultInjector>,
    ) -> Result<Daemon, ServeError> {
        Daemon::check_config(&config)?;
        create_state_dir(dir)?;
        let log_path = dir.join(LOG_FILE);
        let log = EventLog::create_with_faults(&log_path, faults.clone())?;
        mcss_store::sync_parent(&log_path)?;
        Ok(Daemon {
            dir: dir.to_path_buf(),
            config,
            cost,
            log,
            edit: WorkloadEdit::new(),
            realloc: IncrementalReallocator::new(
                IncrementalConfig::default().with_repair_threads(config.threads),
            ),
            epochs_applied: 0,
            pending: 0,
            last_applied: 0,
            fleet_ops: Vec::new(),
            faults,
            recovery: None,
        })
    }

    /// Recovers a daemon from a state directory: loads the snapshot (if
    /// one exists), hands its workload to the workload edit as the base,
    /// verifies the whole log in one streaming pass and replays
    /// only the suffix past the snapshot — re-applying an epoch at every
    /// `EpochMark` and leaving trailing events buffered, exactly as they
    /// were before the crash. `config` and the cost model must match the
    /// original run; `τ`/capacity mismatches are rejected against the
    /// snapshot. [`Daemon::recovery`] reports what the recovery did.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] for an invalid snapshot, an invalid log
    /// header, a log inconsistent with the snapshot, or an invalid
    /// record the snapshot covers (the log is then left untouched);
    /// [`ServeError::Rejected`] on config mismatch; [`ServeError::Solve`]
    /// if a replayed epoch fails to apply.
    pub fn resume(
        dir: &Path,
        config: ServeConfig,
        cost: Box<dyn CostModel>,
    ) -> Result<Daemon, ServeError> {
        Daemon::resume_with_faults(dir, config, cost, None)
    }

    /// Like [`Daemon::resume`], with every log and snapshot write routed
    /// through `injector`.
    ///
    /// # Errors
    ///
    /// As [`Daemon::resume`].
    pub fn resume_with_faults(
        dir: &Path,
        config: ServeConfig,
        cost: Box<dyn CostModel>,
        faults: Option<FaultInjector>,
    ) -> Result<Daemon, ServeError> {
        Daemon::check_config(&config)?;
        create_state_dir(dir)?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let log_path = dir.join(LOG_FILE);

        let mut edit = WorkloadEdit::new();
        let mut realloc = IncrementalReallocator::new(
            IncrementalConfig::default().with_repair_threads(config.threads),
        );
        let mut epochs_applied = 0u64;
        let mut last_applied = 0u64;
        if snap_path.exists() {
            let snap = Snapshot::load(&snap_path)?;
            if snap.tau != config.tau || snap.capacity != config.capacity {
                return Err(ServeError::Rejected(format!(
                    "snapshot was taken at tau {} / capacity {}, resume requested tau {} / \
                     capacity {} — restart with matching flags",
                    snap.tau.get(),
                    snap.capacity.get(),
                    config.tau.get(),
                    config.capacity.get()
                )));
            }
            // Adopt the snapshot's workload as-is: the snapshot carries
            // every derived arena — follower CSR, rate ranking — so
            // nothing is re-derived here, and the edit edits it in place.
            let rates = snap.workload.rates().to_vec();
            edit = WorkloadEdit::from_workload(snap.workload);
            realloc.restore(
                snap.selection,
                FleetLedger::from_slots(snap.slots),
                snap.capacity,
                rates,
                config.tau,
            );
            epochs_applied = snap.epochs_applied;
            last_applied = snap.last_seq;
        }

        let (log, records, scan) = if log_path.exists() {
            EventLog::open_past(&log_path, faults.clone(), last_applied)?
        } else {
            let log = EventLog::create_with_faults(&log_path, faults.clone())?;
            mcss_store::sync_parent(&log_path)?;
            (log, Vec::new(), LogScan::default())
        };
        if log.next_seq() <= last_applied {
            return Err(ServeError::Corrupt {
                path: log_path,
                detail: format!(
                    "event log ends at sequence {} but the snapshot was taken at {}",
                    log.next_seq() - 1,
                    last_applied
                ),
            });
        }

        let mut daemon = Daemon {
            dir: dir.to_path_buf(),
            config,
            cost,
            log,
            edit,
            realloc,
            epochs_applied,
            pending: 0,
            last_applied,
            fleet_ops: Vec::new(),
            faults,
            recovery: None,
        };
        let mut recovery = RecoveryStats {
            records_verified: scan.verified,
            records_replayed: records.len() as u64,
            epochs_replayed: 0,
            torn_bytes: scan.torn_bytes,
        };

        for record in records {
            match record.event {
                Event::EpochMark { epoch } => {
                    if epoch != daemon.epochs_applied {
                        return Err(ServeError::Corrupt {
                            path: daemon.dir.join(LOG_FILE),
                            detail: format!(
                                "epoch mark {epoch} at sequence {} but {} epochs were applied",
                                record.seq, daemon.epochs_applied
                            ),
                        });
                    }
                    let events = daemon.pending;
                    daemon.pending = 0;
                    daemon.apply_epoch(events)?;
                    daemon.last_applied = record.seq;
                    daemon.epochs_applied += 1;
                    recovery.epochs_replayed += 1;
                }
                event @ (Event::VmFail { .. } | Event::VmRecover { .. }) => {
                    daemon.fleet_ops.push(event);
                    daemon.pending += 1;
                }
                event => {
                    daemon
                        .apply_to_edit(event)
                        .map_err(|e| ServeError::Corrupt {
                            path: daemon.dir.join(LOG_FILE),
                            detail: format!(
                                "replayed event at sequence {} rejected: {e}",
                                record.seq
                            ),
                        })?;
                    daemon.pending += 1;
                }
            }
        }
        daemon.recovery = Some(recovery);
        Ok(daemon)
    }

    fn check_config(config: &ServeConfig) -> Result<(), ServeError> {
        if config.epoch_events == Some(0) {
            return Err(ServeError::Rejected(
                "epoch watermark must be positive".into(),
            ));
        }
        if config.threads == 0 {
            return Err(ServeError::Rejected(
                "repair thread count must be positive".into(),
            ));
        }
        if config.repair_budget == Some(0) {
            return Err(ServeError::Rejected(
                "repair budget must be positive (omit it to drain unbounded)".into(),
            ));
        }
        if config.compact_every == Some(0) {
            return Err(ServeError::Rejected(
                "compaction cadence must be positive (omit it to disable compaction)".into(),
            ));
        }
        if config.compact_every.is_some() && config.compact_steps == 0 {
            return Err(ServeError::Rejected(
                "compaction step budget must be positive".into(),
            ));
        }
        Ok(())
    }

    fn apply_to_edit(&mut self, event: Event) -> Result<(), pubsub_model::WorkloadError> {
        match event {
            Event::Rerate { topic, rate } => self.edit.rerate(topic, rate),
            Event::Subscribe { subscriber, topic } => self.edit.subscribe(subscriber, topic),
            Event::Unsubscribe { subscriber, topic } => {
                self.edit.unsubscribe(subscriber, topic);
                Ok(())
            }
            Event::EpochMark { .. } | Event::VmFail { .. } | Event::VmRecover { .. } => {
                unreachable!("marks and fleet ops never reach the edit")
            }
        }
    }

    /// Validates and buffers one event (appending it to the log). When a
    /// watermark is configured and reached, the epoch closes and its
    /// stats are returned.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] for an `EpochMark` (daemon-internal), a
    /// `Rerate` whose pair cost `2·rate` exceeds the VM capacity, or an
    /// event the workload edit rejects (unknown topic, zero rate) — a
    /// rejected event is *not* logged; log-write and epoch-apply errors
    /// pass through.
    pub fn submit(&mut self, event: Event) -> Result<Option<EpochStats>, ServeError> {
        match event {
            Event::EpochMark { .. } => {
                return Err(ServeError::Rejected(
                    "epoch marks are written by the daemon, not submitted".into(),
                ));
            }
            // A topic no VM can host would fail every later epoch, and
            // every replay of this one: refuse it before it is logged.
            Event::Rerate { topic, rate } if rate.pair_cost() > self.config.capacity => {
                return Err(ServeError::Rejected(format!(
                    "topic {topic} at {rate} fits no VM: its pair cost {} exceeds the capacity {}",
                    rate.pair_cost(),
                    self.config.capacity
                )));
            }
            // Fleet ops carry no workload change; they wait for the
            // epoch close, where the ledger validates the slot index.
            Event::VmFail { .. } | Event::VmRecover { .. } => self.fleet_ops.push(event),
            _ => self
                .apply_to_edit(event)
                .map_err(|e| ServeError::Rejected(e.to_string()))?,
        }
        self.log.append(event)?;
        self.pending += 1;
        if let Some(watermark) = self.config.epoch_events {
            if self.pending >= watermark {
                return Ok(Some(self.close_epoch()?));
            }
        }
        Ok(None)
    }

    /// Closes the current epoch regardless of the watermark — the entry
    /// point for wall-clock ticks (`mcss serve --epoch-ms`). Returns
    /// `None` when there is nothing to apply: no buffered events *and*
    /// no deferred failure repairs (a degraded fleet keeps closing
    /// repair-only epochs until the carry-over queue drains, even with
    /// no incoming traffic).
    ///
    /// # Errors
    ///
    /// Log-write, snapshot-write and epoch-apply errors pass through.
    pub fn tick(&mut self) -> Result<Option<EpochStats>, ServeError> {
        if self.pending == 0 && self.realloc.pending_repair_pairs() == 0 {
            return Ok(None);
        }
        Ok(Some(self.close_epoch()?))
    }

    /// Epoch-boundary durability with the configured retry/backoff: an
    /// fsync that keeps failing past `sync_retries` propagates, leaving
    /// recovery to the log's torn-tail truncation.
    fn sync_log(&mut self) -> Result<(), ServeError> {
        let mut attempts = 0u32;
        loop {
            match self.log.sync() {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if attempts >= self.config.sync_retries {
                        return Err(e);
                    }
                    attempts += 1;
                    if self.config.retry_backoff_ms > 0 {
                        std::thread::sleep(Duration::from_millis(self.config.retry_backoff_ms));
                    }
                }
            }
        }
    }

    fn close_epoch(&mut self) -> Result<EpochStats, ServeError> {
        let mark_seq = self.log.append(Event::EpochMark {
            epoch: self.epochs_applied,
        })?;
        self.sync_log()?;
        let events = self.pending;
        self.pending = 0;
        let stats = self.apply_epoch(events)?;
        self.last_applied = mark_seq;
        self.epochs_applied += 1;
        if self.config.snapshot_every > 0
            && self
                .epochs_applied
                .is_multiple_of(self.config.snapshot_every)
        {
            self.write_snapshot()?;
        }
        Ok(stats)
    }

    fn apply_epoch(&mut self, events: u64) -> Result<EpochStats, ServeError> {
        let started = Instant::now();
        // A second handle alive here would make the commit copy the whole
        // workload instead of editing it in place.
        debug_assert_eq!(
            Arc::strong_count(self.edit.base()),
            1,
            "only the edit may hold the workload across epochs"
        );
        let (workload, changed_topics, changed_subscribers) = self.edit.commit_shared();
        let delta = WorkloadDelta {
            changed_topics,
            changed_subscribers,
        };
        // The instance's handle drops when this epoch closes, before the
        // next commit.
        let instance = McssInstance::new(workload, self.config.tau, self.config.capacity)?;
        // The counter-only step: the fleet stays in the ledger, whose
        // counters the stats read below.
        let step = self
            .realloc
            .advance(&instance, self.cost.as_ref(), &delta)?;

        // Fold the epoch's fleet ops: fail + budgeted repair first (the
        // repair also drains any carry-over from earlier epochs), then
        // recoveries, whose slots rejoin the reuse pool next epoch.
        let mut fails: Vec<usize> = Vec::new();
        let mut recovers: Vec<usize> = Vec::new();
        for op in std::mem::take(&mut self.fleet_ops) {
            match op {
                Event::VmFail { slot } => fails.push(slot as usize),
                Event::VmRecover { slot } => recovers.push(slot as usize),
                _ => unreachable!("only fleet ops are buffered"),
            }
        }
        let mut vms_failed = 0usize;
        let mut pairs_repaired = 0u64;
        if !fails.is_empty() || self.realloc.pending_repair_pairs() > 0 {
            let budget = SlaBudget {
                max_pairs: self.config.repair_budget,
            };
            let round = self.realloc.repair_round(&instance, &fails, budget)?;
            vms_failed = round.vms_failed;
            pairs_repaired = round.pairs_replaced;
        }
        for slot in recovers {
            self.realloc.recover_slot(slot);
        }

        // Periodic compaction: a budgeted local-search pass over the
        // repaired fleet. Steps-only — deadlines would break crash
        // replay — and skipped by `compact` itself while repairs are
        // still deferred or failed slots are down.
        let mut compaction_moves = 0u64;
        let mut compaction_saved = Money::ZERO;
        if let Some(every) = self.config.compact_every {
            if (self.epochs_applied + 1).is_multiple_of(every) {
                if let Some(report) = self.realloc.compact(
                    &instance,
                    self.cost.as_ref(),
                    SearchBudget::steps(self.config.compact_steps),
                ) {
                    compaction_moves = report.steps;
                    compaction_saved = report.saved();
                }
            }
        }

        // The fleet's size and Eq. 2 bandwidth are ledger counters, kept
        // exact through every repair, failure and compaction.
        let (_, ledger, _) = self
            .realloc
            .checkpoint()
            .expect("an applied epoch implies a checkpoint");
        let vm_count = ledger.vm_count();
        Ok(EpochStats {
            epoch: self.epochs_applied,
            events_applied: events,
            pairs_placed: step.pairs_placed,
            pairs_removed: step.pairs_removed,
            pairs_evicted: step.pairs_evicted,
            pairs_reused: step.pairs_reused,
            full_resolve: step.full_resolve,
            vms_failed,
            pairs_repaired,
            repair_deferred: self.realloc.pending_repair_pairs(),
            compaction_moves,
            compaction_saved,
            vm_count,
            fleet_cost: self.cost.total_cost(vm_count, ledger.total_bandwidth()),
            apply_time: started.elapsed(),
        })
    }

    /// Writes a snapshot now, returning its path. Requires at least one
    /// applied epoch (there is no state worth capturing before that).
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] before the first epoch; otherwise any
    /// [`ServeError::Io`] from the write.
    pub fn snapshot_now(&mut self) -> Result<PathBuf, ServeError> {
        self.write_snapshot()
    }

    fn write_snapshot(&mut self) -> Result<PathBuf, ServeError> {
        let Some((selection, ledger, capacity)) = self.realloc.checkpoint() else {
            return Err(ServeError::Rejected(
                "nothing to snapshot before the first epoch".into(),
            ));
        };
        let path = self.dir.join(SNAPSHOT_FILE);
        SnapshotRef {
            last_seq: self.last_applied,
            epochs_applied: self.epochs_applied,
            tau: self.config.tau,
            capacity,
            workload: self.edit.base(),
            selection,
            slots: ledger.slots(),
        }
        .write(&path, self.faults.clone())?;
        Ok(path)
    }

    /// Number of epochs applied so far.
    pub fn epochs_applied(&self) -> u64 {
        self.epochs_applied
    }

    /// Events buffered in the (not yet closed) current epoch.
    pub fn pending_events(&self) -> u64 {
        self.pending
    }

    /// What [`Daemon::resume`] did to build this daemon; `None` for a
    /// daemon from [`Daemon::create`].
    pub fn recovery(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// Sequence number of the last applied `EpochMark` (0 before any).
    pub fn last_applied_seq(&self) -> u64 {
        self.last_applied
    }

    /// Orphaned pairs still deferred by the repair budget — drained a
    /// budget's worth per epoch close until zero.
    pub fn pending_repairs(&self) -> u64 {
        self.realloc.pending_repair_pairs()
    }

    /// The workload as of the last applied epoch; `None` before the
    /// first.
    pub fn workload(&self) -> Option<&Workload> {
        self.realloc.checkpoint().map(|_| &**self.edit.base())
    }

    /// The Stage-1 selection as of the last applied epoch.
    pub fn selection(&self) -> Option<&Selection> {
        self.realloc.checkpoint().map(|(s, _, _)| s)
    }

    /// Live VMs in the current fleet, read from the ledger's counter
    /// without exporting the fleet; 0 before the first epoch.
    pub fn vm_count(&self) -> usize {
        self.realloc
            .checkpoint()
            .map_or(0, |(_, ledger, _)| ledger.vm_count())
    }

    /// The current fleet, exported from the ledger.
    pub fn allocation(&self) -> Option<Allocation> {
        self.realloc
            .checkpoint()
            .map(|(_, ledger, capacity)| ledger.to_allocation(capacity))
    }
}

// ---------------------------------------------------------------------
// Drift-fed driver
// ---------------------------------------------------------------------

/// Feeds a [`Daemon`] from a [`DriftModel`], translating per-epoch
/// workload evolution into the raw event stream a control plane would
/// emit — which makes `mcss serve --trace spotify` self-exercising with
/// no external event source.
#[derive(Clone, Debug)]
pub struct Driver {
    drift: DriftModel,
    current: Workload,
    epoch: u64,
}

impl Driver {
    /// A driver whose first batch ([`Driver::initial_events`]) loads
    /// `initial`, and whose subsequent batches follow `drift`.
    pub fn new(initial: Workload, drift: DriftModel) -> Driver {
        Driver {
            drift,
            current: initial,
            epoch: 0,
        }
    }

    /// The generator-side workload the last emitted batch leads to.
    pub fn workload(&self) -> &Workload {
        &self.current
    }

    /// The bootstrap batch: one `Rerate` per topic (introducing it),
    /// then one `Subscribe` per interest pair.
    pub fn initial_events(&self) -> Vec<Event> {
        let w = &self.current;
        let mut events = Vec::with_capacity(w.num_topics() + w.pair_count() as usize);
        for (ti, &rate) in w.rates().iter().enumerate() {
            events.push(Event::Rerate {
                topic: TopicId::new(ti as u32),
                rate,
            });
        }
        for v in w.subscribers() {
            for &topic in w.interests(v) {
                events.push(Event::Subscribe {
                    subscriber: v,
                    topic,
                });
            }
        }
        events
    }

    /// Evolves one drift epoch and emits the difference as events:
    /// `Rerate` for every re-rated (or new) topic, then sorted
    /// `Unsubscribe`/`Subscribe` diffs per changed subscriber.
    pub fn next_epoch_events(&mut self) -> Vec<Event> {
        let (next, delta) = self.drift.evolve_tracked(&self.current, self.epoch);
        self.epoch += 1;
        let mut events = Vec::new();

        let mut topics = delta.changed_topics;
        topics.extend(
            (self.current.num_topics()..next.num_topics()).map(|ti| TopicId::new(ti as u32)),
        );
        topics.sort_unstable();
        topics.dedup();
        for t in topics {
            let fresh = t.index() >= self.current.num_topics();
            if fresh || self.current.rate(t) != next.rate(t) {
                events.push(Event::Rerate {
                    topic: t,
                    rate: next.rate(t),
                });
            }
        }

        let mut subs = delta.changed_subscribers;
        subs.extend(
            (self.current.num_subscribers()..next.num_subscribers())
                .map(|vi| SubscriberId::new(vi as u32)),
        );
        subs.sort_unstable();
        subs.dedup();
        for v in subs {
            if v.index() >= next.num_subscribers() {
                continue;
            }
            let mut old: Vec<TopicId> = if v.index() < self.current.num_subscribers() {
                self.current.interests(v).to_vec()
            } else {
                Vec::new()
            };
            let mut new: Vec<TopicId> = next.interests(v).to_vec();
            old.sort_unstable();
            new.sort_unstable();
            let (mut i, mut j) = (0usize, 0usize);
            while i < old.len() || j < new.len() {
                match (old.get(i), new.get(j)) {
                    (Some(&o), Some(&n)) if o == n => {
                        i += 1;
                        j += 1;
                    }
                    (Some(&o), Some(&n)) if o < n => {
                        events.push(Event::Unsubscribe {
                            subscriber: v,
                            topic: o,
                        });
                        i += 1;
                    }
                    (Some(_), Some(&n)) => {
                        events.push(Event::Subscribe {
                            subscriber: v,
                            topic: n,
                        });
                        j += 1;
                    }
                    (Some(&o), None) => {
                        events.push(Event::Unsubscribe {
                            subscriber: v,
                            topic: o,
                        });
                        i += 1;
                    }
                    (None, Some(&n)) => {
                        events.push(Event::Subscribe {
                            subscriber: v,
                            topic: n,
                        });
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        self.current = next;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_cost::{LinearCostModel, Money};

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mcss-serve-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cost() -> Box<dyn CostModel> {
        Box::new(LinearCostModel::new(
            Money::from_dollars(1),
            Money::from_micros(5),
        ))
    }

    fn t(i: u32) -> TopicId {
        TopicId::new(i)
    }
    fn v(i: u32) -> SubscriberId {
        SubscriberId::new(i)
    }

    /// The whole-buffer loop the log reader ran before the streaming
    /// scanner: the records of the valid prefix and the byte offset
    /// where that prefix ends.
    fn reference_parse(bytes: &[u8]) -> (Vec<SequencedEvent>, usize) {
        assert!(bytes.len() >= LOG_HEADER && bytes[..8] == LOG_MAGIC[..]);
        let mut records = Vec::new();
        let mut pos = LOG_HEADER;
        let mut last_seq = 0u64;
        loop {
            let mut r = Reader::new(&bytes[pos..]);
            let Some(crc) = r.u32() else { break };
            let Some(len) = r.u32() else { break };
            let Some(payload) = r.take(len as usize) else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            let Some((seq, event)) = Event::decode_payload(payload) else {
                break;
            };
            if seq != last_seq + 1 {
                break;
            }
            last_seq = seq;
            records.push(SequencedEvent { seq, event });
            pos += 8 + len as usize;
        }
        (records, pos)
    }

    /// A state directory several missing levels deep is created (each
    /// new level's parent synced), creating it again leaves it be, and a
    /// file in its place is an error.
    #[test]
    fn a_state_dir_is_created_through_missing_levels() {
        let root = scratch("nested-state");
        let dir = root.join("a").join("b").join("state");
        create_state_dir(&dir).unwrap();
        assert!(dir.is_dir());
        create_state_dir(&dir).unwrap();
        let file = root.join("file");
        fs::write(&file, b"").unwrap();
        assert!(create_state_dir(&file).is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    /// Writes `events` as a fresh log at `path` and returns its bytes.
    fn write_log(path: &Path, events: &[Event]) -> Vec<u8> {
        let mut log = EventLog::create(path).unwrap();
        for &e in events {
            log.append(e).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        fs::read(path).unwrap()
    }

    /// Opens `bytes` as the log at `path`, keeping records past `after`,
    /// and checks the scanner against [`reference_parse`]. If the valid
    /// prefix ends on a bad record that `after` covers, the open must
    /// fail closed naming that record and its byte offset, and leave the
    /// file byte-identical. Otherwise it must return the reference's
    /// records past `after` and the same next sequence number, and cut
    /// the file back to the same valid prefix.
    fn check_scan(path: &Path, bytes: &[u8], after: u64) {
        fs::write(path, bytes).unwrap();
        let (want, end) = reference_parse(bytes);
        let valid = want.len() as u64;
        if valid < after && end < bytes.len() {
            let err = EventLog::open_past(path, None, after).unwrap_err();
            assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
            let named = format!("record {} at byte offset {end}", valid + 1);
            assert!(err.to_string().contains(&named), "{err}");
            assert_eq!(fs::read(path).unwrap(), bytes, "the log must be untouched");
            return;
        }
        let (log, records, scan) = EventLog::open_past(path, None, after).unwrap();
        let past: Vec<SequencedEvent> = want.iter().copied().filter(|r| r.seq > after).collect();
        assert_eq!(records, past);
        assert_eq!(log.next_seq(), valid + 1);
        assert_eq!(
            scan,
            LogScan {
                verified: valid,
                torn_bytes: (bytes.len() - end) as u64,
            }
        );
        drop(log);
        assert_eq!(fs::read(path).unwrap(), bytes[..end]);
    }

    /// Event `i` of a mix of all six kinds, with its framed size: fleet
    /// ops frame to 21 bytes, `Subscribe`, `Unsubscribe` and `EpochMark`
    /// to 25, `Rerate` to 29.
    fn sized_event(i: u32) -> (Event, usize) {
        let (subscriber, topic) = (v(i), t(i / 2));
        match i % 6 {
            0 => (Event::VmFail { slot: i }, 21),
            1 => (Event::Subscribe { subscriber, topic }, 25),
            2 => (
                Event::Rerate {
                    topic,
                    rate: Rate::new(u64::from(i) + 1),
                },
                29,
            ),
            3 => (Event::VmRecover { slot: i }, 21),
            4 => (Event::Unsubscribe { subscriber, topic }, 25),
            _ => (
                Event::EpochMark {
                    epoch: u64::from(i),
                },
                25,
            ),
        }
    }

    #[test]
    fn scanner_matches_the_reference_on_a_log_larger_than_its_buffer() {
        let dir = scratch("scan-large");
        let path = dir.join(LOG_FILE);
        // An irregular mix of the three record sizes, so records straddle
        // the buffer's read boundaries at varying offsets.
        let mut events = Vec::new();
        let mut starts = Vec::new();
        let mut end = LOG_HEADER;
        let mut i = 0u32;
        while end < 2 * SCAN_BUFFER + 4096 {
            let (event, size) = sized_event(i.wrapping_mul(2_654_435_761) >> 7);
            events.push(event);
            starts.push(end);
            end += size;
            i += 1;
        }
        let bytes = write_log(&path, &events);
        assert_eq!(bytes.len(), end, "record sizes are 21, 25 and 29 bytes");
        // Every kind round-trips, numbered 1, 2, … in append order.
        let (decoded, _) = reference_parse(&bytes);
        assert!(decoded.iter().map(|r| r.event).eq(events.iter().copied()));
        assert!(decoded.iter().map(|r| r.seq).eq(1..=events.len() as u64));
        for boundary in [SCAN_BUFFER, 2 * SCAN_BUFFER] {
            let at = starts.partition_point(|&s| s <= boundary) - 1;
            assert!(
                starts[at] < boundary,
                "a record straddles offset {boundary}"
            );
        }
        // A damaged record deep past the first buffer is found, and cut
        // unless covered.
        let mut damaged = bytes.clone();
        damaged[starts[starts.len() * 3 / 4] + RECORD_FRAME + 2] ^= 0x01;
        let n = events.len() as u64;
        for after in [0, 1, n / 2, n - 1, n] {
            check_scan(&path, &bytes, after);
            check_scan(&path, &damaged, after);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scanner_cuts_a_torn_tail_at_every_byte_of_the_last_record() {
        let dir = scratch("scan-torn");
        let path = dir.join(LOG_FILE);
        let events: Vec<Event> = (0..9).map(|i| sized_event(i).0).collect();
        let bytes = write_log(&path, &events);
        let last = bytes.len() - 29;
        let n = events.len() as u64;
        for cut in last..bytes.len() {
            // A snapshot taken at the last record (`after == n`) covers
            // it: torn, it cannot be, so the open fails closed.
            for after in [0, n - 1, n] {
                check_scan(&path, &bytes[..cut], after);
            }
        }
        // Appends after the cut continue the sequence.
        let (mut log, _) = EventLog::open(&path).unwrap();
        assert_eq!(log.append(Event::EpochMark { epoch: 0 }).unwrap(), n);
        log.sync().unwrap();
        drop(log);
        let (_, records) = EventLog::open(&path).unwrap();
        assert_eq!(records.len() as u64, n);
        assert_eq!(records[n as usize - 1].event, Event::EpochMark { epoch: 0 });
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scanner_stops_at_a_corrupt_length_or_sequence() {
        let dir = scratch("scan-corrupt");
        let path = dir.join(LOG_FILE);
        let events: Vec<Event> = (0..12).map(|i| sized_event(i).0).collect();
        let bytes = write_log(&path, &events);
        // Record 6 (1-based) starts after 5 records of 21, 25, 29, 21, 25 bytes.
        let at = LOG_HEADER + 21 + 25 + 29 + 21 + 25;
        for len in [0u32, 5, 16, 22, 1_000, u32::MAX] {
            let mut damaged = bytes.clone();
            damaged[at + 4..at + 8].copy_from_slice(&len.to_le_bytes());
            for after in [0, 5, 6] {
                check_scan(&path, &damaged, after);
            }
        }
        // A record whose checksum holds but whose sequence number skips.
        let mut skipped = bytes[..at].to_vec();
        skipped.extend_from_slice(Event::EpochMark { epoch: 0 }.record(7).bytes());
        for after in [0, 5, 6] {
            check_scan(&path, &skipped, after);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scanner_handles_empty_header_only_and_foreign_files() {
        let dir = scratch("scan-edges");
        let path = dir.join(LOG_FILE);
        // Empty: a crash before the header reached the disk starts fresh,
        // unless a snapshot says records should be there.
        fs::write(&path, b"").unwrap();
        assert!(EventLog::open_past(&path, None, 3).is_err());
        assert!(fs::read(&path).unwrap().is_empty(), "left untouched");
        let (log, records) = EventLog::open(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(log.next_seq(), 1);
        drop(log);
        assert_eq!(fs::read(&path).unwrap(), log_header());

        // Header only: no records, nothing to cut.
        check_scan(&path, &log_header(), 0);

        // Foreign magic and other format versions fail closed, untouched.
        for version in [1u32, 3, 99] {
            let mut bytes = write_log(&path, &[Event::EpochMark { epoch: 0 }]);
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            let err = EventLog::open(&path).unwrap_err();
            let want = format!("unsupported event log version {version}");
            assert!(err.to_string().contains(&want), "{err}");
            assert_eq!(fs::read(&path).unwrap(), bytes);
        }
        fs::write(&path, b"MCSSNAP1\x02\0\0\0").unwrap();
        let err = EventLog::open(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_fails_closed_on_a_bad_record_the_snapshot_covers() {
        let dir = scratch("covered-flip");
        let config = ServeConfig::new(Rate::new(10), Bandwidth::new(100)).with_snapshot_every(1);
        let mut daemon = Daemon::create(&dir, config, cost()).unwrap();
        for i in 0..3 {
            daemon
                .submit(Event::Rerate {
                    topic: t(i),
                    rate: Rate::new(10),
                })
                .unwrap();
            daemon
                .submit(Event::Subscribe {
                    subscriber: v(i),
                    topic: t(i),
                })
                .unwrap();
            daemon.tick().unwrap().expect("an epoch applies");
        }
        drop(daemon);
        let path = dir.join(LOG_FILE);

        // Flip a payload byte of record 2 (after one 29-byte record).
        let at = LOG_HEADER + 29;
        let mut flipped = fs::read(&path).unwrap();
        flipped[at + RECORD_FRAME + 12] ^= 0x20;
        fs::write(&path, &flipped).unwrap();
        let err = Daemon::resume(&dir, config, cost()).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("record 2 at byte offset {at}")),
            "{err}"
        );
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert_eq!(
            fs::read(&path).unwrap(),
            flipped,
            "the log must be untouched"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Whether `file` was opened with `O_DIRECT`, from the flags
    /// `/proc/self/fdinfo` lists for it; false where no file is.
    fn opened_direct(file: &File) -> bool {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            use std::os::fd::AsRawFd as _;
            let info = fs::read_to_string(format!("/proc/self/fdinfo/{}", file.as_raw_fd()))
                .expect("fdinfo of an open file");
            let flags = info
                .lines()
                .find_map(|line| line.strip_prefix("flags:"))
                .expect("fdinfo lists the file's flags");
            i32::from_str_radix(flags.trim(), 8).expect("octal flags") & O_DIRECT != 0
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            let _ = file;
            false
        }
    }

    /// Whether the filesystem holding `dir` opens a file with `O_DIRECT`.
    fn direct_io_supported(dir: &Path) -> bool {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            create_direct(&dir.join("direct-probe")).is_ok()
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            let _ = dir;
            false
        }
    }

    /// A one-subscriber snapshot: one live slot of capacity 50 using 20,
    /// topic 0 for subscriber 0.
    fn small_snapshot() -> Snapshot {
        let workload = Workload::from_parts(vec![Rate::new(10)], vec![vec![t(0)]]);
        let fleet = Allocation::from_groups(
            vec![vec![(t(0), vec![v(0)])]],
            &workload,
            Bandwidth::new(50),
        );
        Snapshot {
            last_seq: 2,
            epochs_applied: 1,
            tau: Rate::new(10),
            capacity: Bandwidth::new(50),
            workload,
            selection: Selection::from_csr(vec![0, 1], vec![t(0)]),
            slots: FleetLedger::from_allocation(&fleet).snapshot_slots(),
        }
    }

    #[test]
    fn a_store_of_several_buffers_streams_through_the_direct_path() {
        // Three sections over several of the writer's buffers: 24-byte
        // records put in uneven pieces (a buffer is no whole number of
        // them, so records reach each buffer's end and the unfinished
        // page carries over), u32 words and a short byte section whose
        // end pads the last page.
        fn put_all(
            sink: &mut impl SectionSink,
            records: &[[u8; 24]],
            words: &[u32],
            bytes: &[u8],
        ) -> std::io::Result<()> {
            sink.begin(0x40)?;
            for part in records.chunks(7_001) {
                sink.put(part, |r| *r)?;
            }
            sink.end()?;
            sink.put_section(0x41, words, |w| w.to_le_bytes())?;
            sink.put_section(0x42, bytes, |&b| [b])
        }
        let records: Vec<[u8; 24]> = (0..20_000u32)
            .map(|i| {
                let mut record = [0; 24];
                for (k, word) in record.chunks_exact_mut(4).enumerate() {
                    word.copy_from_slice(&(i * 6 + k as u32).to_le_bytes());
                }
                record
            })
            .collect();
        let words: Vec<u32> = (0..70_001u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let bytes: Vec<u8> = (0..5_003u32).map(|i| (i % 251) as u8).collect();

        let dir = scratch("direct-store");
        let path = dir.join("store.bin");
        let file = create_snapshot_file(&path, None).unwrap();
        assert_eq!(opened_direct(&file), direct_io_supported(&dir));
        let mut writer = StoreWriter::new(FaultFile {
            file,
            injector: None,
        })
        .unwrap();
        put_all(&mut writer, &records, &words, &bytes).unwrap();
        writer.finish().unwrap().sync_data().unwrap();
        let mut builder = mcss_store::StoreBuilder::new();
        put_all(&mut builder, &records, &words, &bytes).unwrap();
        let expected = builder.to_bytes();
        assert!(expected.len() > 5 * 128 * 1024, "{} bytes", expected.len());
        assert!(
            fs::read(&path).unwrap() == expected,
            "streamed file differs"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_refused_direct_open_falls_back_to_the_plain_open() {
        let dir = scratch("refuse-direct");
        let injector = FaultInjector::new();
        // The refusal is spent by the next direct open, and only by it.
        injector.arm(IoFault::RefuseDirect);
        let plain = create_snapshot_file(&dir.join("plain"), Some(&injector)).unwrap();
        assert!(!opened_direct(&plain));
        let next = create_snapshot_file(&dir.join("next"), Some(&injector)).unwrap();
        assert_eq!(opened_direct(&next), direct_io_supported(&dir));

        // A snapshot written through the fallback has the direct write's
        // bytes and loads.
        let snapshot = small_snapshot();
        let (direct, fallback) = (dir.join("direct.bin"), dir.join("fallback.bin"));
        snapshot.write(&direct).unwrap();
        injector.arm(IoFault::RefuseDirect);
        snapshot
            .write_with_faults(&fallback, Some(injector.clone()))
            .unwrap();
        let spent = !injector.state.lock().unwrap().refuse_direct;
        assert_eq!(
            spent,
            cfg!(all(target_os = "linux", target_arch = "x86_64")),
            "only a direct open takes the refusal"
        );
        assert_eq!(fs::read(&fallback).unwrap(), fs::read(&direct).unwrap());
        assert_eq!(Snapshot::load(&fallback).unwrap().slots, snapshot.slots);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_dead_device_fails_the_cut() {
        let dir = scratch("dead-cut");
        let injector = FaultInjector::new();
        let mut file = FaultFile {
            file: File::create(dir.join("file")).unwrap(),
            injector: Some(injector.clone()),
        };
        injector.arm(IoFault::ShortWrite { keep: 5 });
        let err = file.write(&[0; 4096]).unwrap_err();
        assert!(
            err.to_string().contains("injected fault: short write"),
            "{err}"
        );
        let err = file.set_len(3).unwrap_err();
        assert!(
            err.to_string().contains("injected fault: device failed"),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_reports_checksum_mismatch() {
        let dir = scratch("corrupt-snap");
        let path = dir.join(SNAPSHOT_FILE);
        let snapshot = small_snapshot();
        assert_eq!(snapshot.slots.vm(0).used(), Bandwidth::new(20));
        snapshot.write(&path).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded.last_seq, 2);
        assert_eq!(loaded.slots, snapshot.slots);
        assert_eq!(loaded.workload, snapshot.workload);

        // Flip one payload byte (the last byte of the file lands in the
        // final section): load must fail closed, naming the section.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let err = Snapshot::load(&path).unwrap_err();
        assert!(
            err.to_string().contains("corrupted snapshot"),
            "unexpected error: {err}"
        );
        assert!(
            err.to_string().contains("CRC32 check"),
            "corruption should be attributed to a section checksum: {err}"
        );

        // A pre-store `MCSSNAP1` envelope has no reader: it fails closed.
        let mut legacy = b"MCSSNAP1".to_vec();
        legacy.extend_from_slice(&[2, 0, 0, 0]);
        legacy.resize(4096, 0);
        fs::write(&path, &legacy).unwrap();
        let err = Snapshot::load(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn daemon_resumes_bit_identically_after_kill() {
        // Two daemons fed the same stream; one is "kill -9"ed mid-epoch
        // (its buffered, unsynced log bytes are lost) and resumed. The
        // recovered daemon must land in exactly the state of one that
        // never stopped.
        let drift = DriftModel {
            rate_sigma: 0.3,
            churn_prob: 0.4,
            seed: 11,
        };
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = [20u64, 12, 8, 5]
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        b.add_subscriber([ts[0], ts[1]]).unwrap();
        b.add_subscriber([ts[1], ts[2]]).unwrap();
        b.add_subscriber([ts[2], ts[3]]).unwrap();
        let initial = b.build();

        let mut driver = Driver::new(initial, drift);
        let mut events = driver.initial_events();
        for _ in 0..4 {
            events.extend(driver.next_epoch_events());
        }

        const WATERMARK: u64 = 5;
        let config = ServeConfig::new(Rate::new(15), Bandwidth::new(1_000))
            .with_epoch_events(WATERMARK)
            .with_snapshot_every(2);
        let dir_a = scratch("resume-a");
        let dir_b = scratch("resume-b");
        let mut live = Daemon::create(&dir_a, config, cost()).unwrap();
        let mut crashed = Daemon::create(&dir_b, config, cost()).unwrap();

        // Pick a cut that is guaranteed to land mid-epoch.
        let mut cut = events.len() * 2 / 3 + 1;
        if (cut as u64).is_multiple_of(WATERMARK) {
            cut += 1;
        }
        for &e in &events[..cut] {
            crashed.submit(e).unwrap();
        }
        assert!(crashed.pending_events() > 0, "cut should land mid-epoch");
        // kill -9: leak the daemon so the BufWriter never flushes; the
        // on-disk log ends at the last synced epoch mark.
        std::mem::forget(crashed);

        for &e in &events {
            live.submit(e).unwrap();
        }
        let mut recovered = Daemon::resume(&dir_b, config, cost()).unwrap();
        // Only whole epochs survived the crash (syncs happen at marks).
        assert_eq!(recovered.pending_events(), 0);
        assert!(recovered.epochs_applied() > 0);
        let absorbed = (recovered.epochs_applied() * WATERMARK) as usize;
        assert!(absorbed < cut, "the crash lost the buffered tail");
        for &e in &events[absorbed..] {
            recovered.submit(e).unwrap();
        }
        live.tick().unwrap();
        recovered.tick().unwrap();

        assert_eq!(live.epochs_applied(), recovered.epochs_applied());
        assert_eq!(live.selection(), recovered.selection());
        assert_eq!(live.allocation(), recovered.allocation());
        let (lw, rw) = (live.workload().unwrap(), recovered.workload().unwrap());
        assert_eq!(lw.rates(), rw.rates());
        assert_eq!(lw.num_subscribers(), rw.num_subscribers());
        for vi in lw.subscribers() {
            assert_eq!(lw.interests(vi), rw.interests(vi));
        }
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn a_rerate_no_vm_can_host_is_rejected_before_logging() {
        // Capacity 50 hosts topics up to rate 25 (pair cost 2·rate). A
        // logged re-rate past that would fail every later tick and every
        // resume with `InfeasibleTopic`, so `submit` must refuse it.
        let dir = scratch("infeasible-rerate");
        let config = ServeConfig::new(Rate::new(10), Bandwidth::new(50));
        let mut daemon = Daemon::create(&dir, config, cost()).unwrap();
        daemon
            .submit(Event::Rerate {
                topic: t(0),
                rate: Rate::new(10),
            })
            .unwrap();
        daemon
            .submit(Event::Subscribe {
                subscriber: v(0),
                topic: t(0),
            })
            .unwrap();
        daemon.tick().unwrap().expect("the bootstrap epoch applies");

        for (topic, rate) in [(t(0), 40), (t(1), 26)] {
            let rerate = Event::Rerate {
                topic,
                rate: Rate::new(rate),
            };
            let err = daemon.submit(rerate).unwrap_err();
            assert!(matches!(err, ServeError::Rejected(_)), "{err}");
        }
        assert_eq!(
            daemon.pending_events(),
            0,
            "rejected events are not buffered"
        );
        // A pair cost of exactly the capacity still fits.
        daemon
            .submit(Event::Rerate {
                topic: t(0),
                rate: Rate::new(25),
            })
            .unwrap();
        daemon.tick().unwrap().expect("the re-rate epoch applies");
        drop(daemon);

        let resumed = Daemon::resume(&dir, config, cost()).unwrap();
        assert_eq!(resumed.epochs_applied(), 2);
        assert_eq!(resumed.workload().unwrap().rate(t(0)), Rate::new(25));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_fsync_failures_are_absorbed_by_retries() {
        let dir = scratch("fsync-retry");
        let injector = FaultInjector::new();
        let config = ServeConfig::new(Rate::new(10), Bandwidth::new(100))
            .with_snapshot_every(0)
            .with_sync_retries(3, 0);
        let mut daemon =
            Daemon::create_with_faults(&dir, config, cost(), Some(injector.clone())).unwrap();
        daemon
            .submit(Event::Rerate {
                topic: t(0),
                rate: Rate::new(10),
            })
            .unwrap();
        daemon
            .submit(Event::Subscribe {
                subscriber: v(0),
                topic: t(0),
            })
            .unwrap();
        injector.arm(IoFault::SyncFail { times: 2 });
        let stats = daemon.tick().unwrap().expect("epoch closes despite faults");
        assert_eq!(stats.epoch, 0);
        assert_eq!(daemon.epochs_applied(), 1);

        // More consecutive failures than retries: the epoch fails closed.
        daemon
            .submit(Event::Subscribe {
                subscriber: v(1),
                topic: t(0),
            })
            .unwrap();
        injector.arm(IoFault::SyncFail { times: 10 });
        let err = daemon.tick().unwrap_err();
        assert!(
            err.to_string().contains("injected fault"),
            "unexpected error: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vm_failure_drill_repairs_within_budget_and_drains() {
        // Every epoch's VM count and fleet cost come from ledger counters;
        // they must equal an export of the fleet through failure, deferred
        // repair and recovery epochs.
        fn check(daemon: &Daemon, stats: EpochStats) -> EpochStats {
            let fleet = daemon.allocation().expect("allocated");
            assert_eq!(stats.vm_count, fleet.vm_count(), "epoch {}", stats.epoch);
            assert_eq!(
                stats.fleet_cost,
                fleet.cost(cost().as_ref()),
                "epoch {}",
                stats.epoch
            );
            stats
        }
        let dir = scratch("drill");
        let config = ServeConfig::new(Rate::new(15), Bandwidth::new(60))
            .with_snapshot_every(0)
            .with_repair_budget(1);
        let mut daemon = Daemon::create(&dir, config, cost()).unwrap();
        for event in [
            Event::Rerate {
                topic: t(0),
                rate: Rate::new(20),
            },
            Event::Rerate {
                topic: t(1),
                rate: Rate::new(12),
            },
            Event::Subscribe {
                subscriber: v(0),
                topic: t(0),
            },
            Event::Subscribe {
                subscriber: v(1),
                topic: t(0),
            },
            Event::Subscribe {
                subscriber: v(2),
                topic: t(1),
            },
        ] {
            daemon.submit(event).unwrap();
        }
        let stats = daemon.tick().unwrap().expect("bootstrap epoch");
        check(&daemon, stats);
        let baseline = daemon.allocation().expect("allocated");

        daemon.submit(Event::VmFail { slot: 0 }).unwrap();
        let stats = daemon.tick().unwrap().expect("drill epoch");
        let stats = check(&daemon, stats);
        assert_eq!(stats.vms_failed, 1);
        assert!(stats.pairs_repaired <= 1, "budget respected");
        assert!(stats.repair_deferred > 0, "budget of 1 must defer");

        // Repair-only epochs keep closing with no incoming traffic
        // until the carry-over queue drains.
        let mut guard = 0;
        while daemon.pending_repairs() > 0 {
            let stats = daemon.tick().unwrap().expect("repair-only epoch");
            let stats = check(&daemon, stats);
            assert!(stats.pairs_repaired <= 1, "budget respected while draining");
            guard += 1;
            assert!(guard < 16, "repair queue failed to drain");
        }
        assert!(daemon.tick().unwrap().is_none(), "nothing left to apply");
        let healed = daemon.allocation().expect("allocated");
        assert_eq!(healed.pair_count(), baseline.pair_count());
        assert!(
            healed
                .validate(daemon.workload().unwrap(), Rate::new(15))
                .is_ok(),
            "drained repair restores satisfaction"
        );

        // Recovery returns the slot to the pool on the next epoch.
        daemon.submit(Event::VmRecover { slot: 0 }).unwrap();
        let stats = daemon.tick().unwrap().expect("recovery epoch");
        check(&daemon, stats);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vm_count_matches_the_exported_fleet_through_failure_and_repair() {
        let dir = scratch("vm-count");
        let config = ServeConfig::new(Rate::new(15), Bandwidth::new(60))
            .with_snapshot_every(0)
            .with_repair_budget(1);
        let mut daemon = Daemon::create(&dir, config, cost()).unwrap();
        let exported = |d: &Daemon| d.allocation().map_or(0, |a| a.vm_count());
        assert_eq!(daemon.vm_count(), 0);
        assert_eq!(daemon.vm_count(), exported(&daemon));
        let mut events = vec![
            Event::Rerate {
                topic: t(0),
                rate: Rate::new(20),
            },
            Event::Rerate {
                topic: t(1),
                rate: Rate::new(12),
            },
        ];
        events.extend((0..3).map(|i| Event::Subscribe {
            subscriber: v(i),
            topic: t(i / 2),
        }));
        for event in events {
            daemon.submit(event).unwrap();
        }
        daemon.tick().unwrap().expect("bootstrap epoch");
        assert!(daemon.vm_count() > 1);
        assert_eq!(daemon.vm_count(), exported(&daemon));

        // The failed VM leaves the count at once; the budget of one pair
        // defers the rest of its repair to later epochs.
        daemon.submit(Event::VmFail { slot: 0 }).unwrap();
        daemon.tick().unwrap().expect("drill epoch");
        assert!(daemon.pending_repairs() > 0);
        assert_eq!(daemon.vm_count(), exported(&daemon));
        for _ in 0..16 {
            if daemon.pending_repairs() == 0 {
                break;
            }
            daemon.tick().unwrap().expect("repair-only epoch");
            assert_eq!(daemon.vm_count(), exported(&daemon));
        }
        assert_eq!(daemon.pending_repairs(), 0, "repair queue failed to drain");
        daemon.submit(Event::VmRecover { slot: 0 }).unwrap();
        daemon.tick().unwrap().expect("recovery epoch");
        assert_eq!(daemon.vm_count(), exported(&daemon));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drill_recovery_is_crash_consistent() {
        // Two daemons run the same drill; one is "kill -9"ed right after
        // the partially-repaired epoch syncs, then resumed. The snapshot
        // must carry the failed-slot quarantine and the resume must
        // re-derive the carry-over repair queue.
        let config = ServeConfig::new(Rate::new(15), Bandwidth::new(60))
            .with_snapshot_every(1)
            .with_repair_budget(1);
        let dir_a = scratch("drill-live");
        let dir_b = scratch("drill-crashed");
        let mut live = Daemon::create(&dir_a, config, cost()).unwrap();
        let mut crashed = Daemon::create(&dir_b, config, cost()).unwrap();
        let events = [
            Event::Rerate {
                topic: t(0),
                rate: Rate::new(20),
            },
            Event::Rerate {
                topic: t(1),
                rate: Rate::new(12),
            },
            Event::Subscribe {
                subscriber: v(0),
                topic: t(0),
            },
            Event::Subscribe {
                subscriber: v(1),
                topic: t(0),
            },
            Event::Subscribe {
                subscriber: v(2),
                topic: t(1),
            },
        ];
        for &e in &events {
            live.submit(e).unwrap();
            crashed.submit(e).unwrap();
        }
        live.tick().unwrap();
        crashed.tick().unwrap();
        live.submit(Event::VmFail { slot: 0 }).unwrap();
        crashed.submit(Event::VmFail { slot: 0 }).unwrap();
        live.tick().unwrap();
        crashed.tick().unwrap(); // partial repair: 1 placed, 1 deferred

        std::mem::forget(crashed);
        let mut resumed = Daemon::resume(&dir_b, config, cost()).unwrap();
        assert_eq!(
            resumed.pending_repairs(),
            live.pending_repairs(),
            "carry-over queue re-derived from the snapshot"
        );
        assert!(resumed.pending_repairs() > 0);

        // Drain both and compare bit-for-bit.
        live.tick().unwrap().expect("live drains");
        resumed.tick().unwrap().expect("resumed drains");
        assert_eq!(live.epochs_applied(), resumed.epochs_applied());
        assert_eq!(live.pending_repairs(), 0);
        assert_eq!(resumed.pending_repairs(), 0);
        assert_eq!(live.selection(), resumed.selection());
        assert_eq!(live.allocation(), resumed.allocation());
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }
}
