//! Incrementally-maintained fleet state for the churn path.
//!
//! The [`FleetLedger`] holds the live fleet the O(Δ) epoch repairs, in
//! flat state whose maintenance cost scales with the *migration delta*:
//!
//! * one CSR arena laid out as the snapshot's four ledger sections
//!   ([`LedgerSlots`]): per-slot row ranges, row topics, and row offsets
//!   into one subscriber arena, beside each slot's used bandwidth,
//!   capacity and state. Each slot's rows ascend by topic and each row's
//!   subscribers by id, so the layout is canonical;
//! * a topic → hosting-VMs index that also holds each hosted group's live
//!   size, so rate refreshes, removals, evictions and co-host placement
//!   touch only the VMs that host the topic, and read no row to price a
//!   group;
//! * used-bandwidth counters per slot, adjusted pair-by-pair and re-based
//!   only for topics whose rate actually changed;
//! * "most-free VM" placement by an exact scan of the slots' headroom:
//!   the fleet is tens of slots, so the scan costs less than keeping an
//!   index in step with every usage change, and it holds no history;
//! * tombstoned VM slots: released VMs keep their index (the host index
//!   stays valid) and are reused lowest-first by new VMs.
//!
//! # Recorded edits and one splice
//!
//! An epoch's decisions ([`FleetLedger::refresh_rate`],
//! [`FleetLedger::remove_pair`], [`FleetLedger::evict_overflowing`],
//! [`FleetLedger::place_group`], …) update the counters and the host index
//! at once, but only *record* what they do to the rows: the arena position
//! of a removed pair, a row dropped whole, a run of subscribers placed
//! into a row. [`FleetLedger::splice`] then applies every recorded edit in
//! one pass through [`pubsub_model::csr`], moving the untouched runs
//! between edits as blocks, as the workload commit does. Removals find
//! their pair by binary search in the arena row and skip pairs already
//! removed this epoch; placements read only counters and the index. A
//! removal or drop after unspliced placements splices them first, so the
//! recorded removals and drops always name arena rows. The splice frees
//! the edit lists and its own buffers, so between epochs the ledger keeps
//! beside the arena only a removal bitmap of one bit per pair.
//!
//! The recording methods and the splice are crate-private: the
//! [`IncrementalReallocator`](crate::incremental::IncrementalReallocator)
//! splices before each epoch step, repair round or compaction returns, so
//! the whole-fleet readers — [`FleetLedger::to_allocation`],
//! [`FleetLedger::slots`] and [`FleetLedger::snapshot_slots`] — always
//! copy a spliced arena (they assert it).
//!
//! The ledger is deliberately policy-free: eviction order and the
//! three-pass placement (co-host → most-free → fresh VM) mirror the
//! repair policy documented on
//! [`IncrementalReallocator`](crate::incremental::IncrementalReallocator).
//!
//! # Heterogeneous fleets
//!
//! Every slot carries its own capacity. A ledger built from a *typed*
//! allocation (one with a [`FleetTyping`](crate::FleetTyping), as the
//! mixed-fleet packer produces) remembers each VM's tier: overflow
//! eviction and placement respect per-slot capacities, the most-free
//! scan ranks by *headroom* rather than raw usage (the two orders agree
//! on homogeneous fleets), fresh VMs pick the cheapest-density tier that
//! holds the group whole (largest tier when none does), and
//! [`FleetLedger::to_allocation`] re-attaches the typing. Untyped
//! ledgers behave exactly as before: one capacity everywhere.

use crate::{Allocation, FleetTyping, VmView};
use cloud_cost::InstanceType;
use pubsub_model::csr::{shift_offsets, splice_in_place};
use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// A ledger slot's state, as a snapshot encodes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotState {
    /// Hosts a VM, or was emptied this epoch and awaits release.
    Live,
    /// Released: empty, and reused lowest-first by the next fresh VM.
    /// Tombstones must round-trip: slot indices affect the order future
    /// VMs are opened in.
    Tombstoned,
    /// Quarantined after a VM failure
    /// ([`IncrementalReallocator::repair_failures`](crate::incremental::IncrementalReallocator::repair_failures)):
    /// empty, and not reusable until
    /// [`IncrementalReallocator::recover_slot`](crate::incremental::IncrementalReallocator::recover_slot)
    /// lifts the quarantine.
    Failed,
}

/// The ledger's primary state, laid out as the snapshot's four ledger
/// sections (`docs/STORE.md`): slot `s` owns rows
/// `slot_rows[s]..slot_rows[s + 1]`, row `r` places topic `row_topics[r]`
/// for the subscribers `subscribers[row_offsets[r]..row_offsets[r + 1]]`,
/// and each slot keeps its capacity, recorded bandwidth and state. Each
/// slot's rows ascend by topic and each row's subscribers by id;
/// tombstoned and failed slots own no rows.
///
/// [`FleetLedger::snapshot_slots`] copies it out of a live ledger and
/// [`FleetLedger::from_slots`] rebuilds a ledger from it: everything else
/// the ledger keeps — the host index, the slot-reuse heap, the usage
/// aggregates — is derived from these arrays, and the rebuilt state is
/// behaviourally identical to the incrementally-maintained one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerSlots {
    pub(crate) cap: Vec<Bandwidth>,
    pub(crate) used: Vec<Bandwidth>,
    pub(crate) state: Vec<SlotState>,
    pub(crate) slot_rows: Vec<u32>,
    pub(crate) row_topics: Vec<TopicId>,
    pub(crate) row_offsets: Vec<u32>,
    pub(crate) subscribers: Vec<SubscriberId>,
}

impl Default for LedgerSlots {
    fn default() -> Self {
        LedgerSlots {
            cap: Vec::new(),
            used: Vec::new(),
            state: Vec::new(),
            slot_rows: vec![0],
            row_topics: Vec::new(),
            row_offsets: vec![0],
            subscribers: Vec::new(),
        }
    }
}

impl LedgerSlots {
    /// Number of slots, tombstones included.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// `true` iff there are no slots.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Slot `slot`'s state.
    pub fn state(&self, slot: usize) -> SlotState {
        self.state[slot]
    }

    /// Slot `slot`'s capacity.
    pub fn capacity(&self, slot: usize) -> Bandwidth {
        self.cap[slot]
    }

    /// Slot `slot`'s rows and recorded bandwidth, borrowed from the arena.
    pub fn vm(&self, slot: usize) -> VmView<'_> {
        let rows = self.rows(slot);
        VmView::new(
            &self.row_topics[rows.clone()],
            &self.row_offsets[rows.start..=rows.end],
            &self.subscribers,
            self.used[slot],
        )
    }

    /// The arena rows of slot `slot`.
    fn rows(&self, slot: usize) -> Range<usize> {
        self.slot_rows[slot] as usize..self.slot_rows[slot + 1] as usize
    }

    /// The subscriber-arena positions of row `row`.
    fn span(&self, row: usize) -> Range<usize> {
        self.row_offsets[row] as usize..self.row_offsets[row + 1] as usize
    }

    /// The arena row of topic `t` on slot `slot`: `Ok` where it is, `Err`
    /// where it would go.
    fn find_row(&self, slot: usize, t: TopicId) -> Result<usize, usize> {
        let rows = self.rows(slot);
        match self.row_topics[rows.clone()].binary_search(&t) {
            Ok(i) => Ok(rows.start + i),
            Err(i) => Err(rows.start + i),
        }
    }
}

/// Outcome of [`FleetLedger::fail_slots`]: the pairs orphaned by the dead
/// VMs, plus an exact account of which indices were acted on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct FailedSlots {
    /// Orphaned pairs, exactly as they were hosted: slots ascending, each
    /// slot's rows by topic, each row's subscribers ascending. A topic
    /// repeats when several failed VMs hosted it.
    pub orphans: Vec<(TopicId, SubscriberId)>,
    /// Slot indices actually failed by this call (deduped, ascending).
    pub failed: Vec<usize>,
    /// Indices that named nothing to fail — out of range, or already
    /// tombstoned/failed — reported rather than silently ignored
    /// (ascending). Repeated indices collapse into one failure and are
    /// not counted here.
    pub rejected: Vec<usize>,
}

/// One slot hosting a topic, and the live size of the group it holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Host {
    slot: u32,
    pairs: u32,
}

/// One topic's entry in the host index. At scale nearly every topic is
/// hosted by exactly one VM (38 of 22 000 topics are multi-host on the
/// 100k-subscriber Spotify trace), so the common case is stored inline
/// and only multi-host topics pay for a host list in the shared spill
/// arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum TopicHosts {
    /// Not hosted anywhere.
    #[default]
    Empty,
    /// Hosted by exactly one VM slot.
    One(Host),
    /// Hosted by several VMs: index into `FleetLedger::host_spill`,
    /// whose entry lists the hosts by ascending slot.
    Spilled(u32),
}

/// Tier table and per-slot assignment for a typed (mixed-fleet) ledger.
#[derive(Clone, Debug)]
struct LedgerTyping {
    /// `(instance type, capacity)` per tier, in the packer's density
    /// order (fresh VMs scan this order for the cheapest fit).
    tiers: Vec<(InstanceType, Bandwidth)>,
    /// Tier index per slot.
    slot_tier: Vec<u32>,
}

/// Subscribers placed into the row of `topic` on `slot`: `added[from..to]`.
#[derive(Clone, Copy, Debug)]
struct Placed {
    slot: u32,
    topic: TopicId,
    from: u32,
    to: u32,
}

/// The row edits recorded since the last splice.
#[derive(Clone, Debug, Default)]
struct Edits {
    /// `(arena position, row)` of each removed pair.
    removed: Vec<(u32, u32)>,
    /// One bit per subscriber-arena position, set for `removed`'s.
    removed_bits: Vec<u64>,
    /// `(row, slot)` of each arena row dropped whole.
    dropped: Vec<(u32, u32)>,
    /// Placements, in the order they were decided.
    placed: Vec<Placed>,
    /// The placed subscribers.
    added: Vec<SubscriberId>,
}

impl Edits {
    fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.dropped.is_empty() && self.placed.is_empty()
    }

    fn is_removed(&self, at: usize) -> bool {
        self.removed_bits[at / 64] & (1 << (at % 64)) != 0
    }

    fn remove(&mut self, at: usize, row: usize) {
        self.removed_bits[at / 64] |= 1 << (at % 64);
        self.removed.push((at as u32, row as u32));
    }

    fn heap_bytes(&self) -> usize {
        bytes(&self.removed)
            + bytes(&self.removed_bits)
            + bytes(&self.dropped)
            + bytes(&self.placed)
            + bytes(&self.added)
    }
}

/// The row of `topic` on `slot` that placements go to: arena row `row`, or
/// a new row just before it; its placed subscribers are `Scratch::ids[ids]`.
#[derive(Clone, Debug)]
struct PlacedRow {
    row: usize,
    existing: bool,
    slot: u32,
    topic: TopicId,
    ids: Range<usize>,
}

/// The splice's buffers, allocated per splice at the sizes its edits
/// bound and dropped with it.
struct Scratch {
    /// Subscriber-arena edits and where each one's new items start in
    /// `ids`.
    sub_edits: Vec<(Range<usize>, usize)>,
    sub_from: Vec<usize>,
    /// The rows placements go to, in arena order.
    groups: Vec<PlacedRow>,
    /// Placed subscribers, gathered per row and sorted.
    ids: Vec<SubscriberId>,
    /// Row-table edits (deleted and new rows) and their topics.
    topic_edits: Vec<(Range<usize>, usize)>,
    topic_fill: Vec<TopicId>,
    /// Row-count change per slot, slots ascending.
    slot_deltas: Vec<(usize, isize)>,
}

impl Scratch {
    /// Buffers for splicing `e`. Every removal, dropped row and placed
    /// subscriber makes at most one subscriber-arena edit, and each
    /// placement at most one new row.
    fn for_edits(e: &Edits) -> Scratch {
        let row_edits = e.dropped.len() + e.placed.len();
        let sub_edits = e.removed.len() + e.dropped.len() + e.added.len();
        Scratch {
            sub_edits: Vec::with_capacity(sub_edits),
            sub_from: Vec::with_capacity(sub_edits),
            groups: Vec::with_capacity(e.placed.len()),
            ids: Vec::with_capacity(e.added.len()),
            topic_edits: Vec::with_capacity(row_edits),
            topic_fill: Vec::with_capacity(row_edits),
            slot_deltas: Vec::with_capacity(row_edits),
        }
    }

    fn slot_delta(&mut self, slot: u32, delta: isize) {
        match self.slot_deltas.last_mut() {
            Some((last, d)) if *last == slot as usize => *d += delta,
            _ => self.slot_deltas.push((slot as usize, delta)),
        }
    }
}

/// Allocated bytes behind a vector (its capacity, not its length).
fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Flat, incrementally-maintained fleet state (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct FleetLedger {
    /// The arena as of the last splice, with each slot's live `used`,
    /// capacity and state.
    slots: LedgerSlots,
    /// Rows per slot after the recorded edits; 0 means the slot is empty
    /// (mid-epoch) or tombstoned (after release).
    live_rows: Vec<u32>,
    /// Topic index → hosts of the topic, by ascending slot (inline for
    /// the dominant single-host case, spilled for the rest).
    hosts: Vec<TopicHosts>,
    /// Host lists for multi-host topics ([`TopicHosts::Spilled`] points
    /// here); freed entries are recycled via `spill_free`.
    host_spill: Vec<Vec<Host>>,
    /// Recyclable `host_spill` indices (their lists are empty).
    spill_free: Vec<u32>,
    /// Tombstoned slots available for reuse, lowest index first.
    free_slots: BinaryHeap<Reverse<usize>>,
    /// Slots that may have become empty since the last release sweep.
    maybe_empty: Vec<usize>,
    /// Slots whose usage may have grown past capacity this epoch.
    overflow_candidates: Vec<usize>,
    /// `Σ used` over live slots.
    total_used: u128,
    /// `Σ cap` over live slots (the utilization denominator).
    live_cap: u128,
    /// Number of live (non-tombstone, non-empty) VMs.
    live: usize,
    /// Present iff the ledger mirrors a mixed (typed) fleet.
    typing: Option<LedgerTyping>,
    /// Row edits not yet spliced into the arena.
    edits: Edits,
}

impl FleetLedger {
    /// Builds a ledger mirroring an existing allocation (used after full
    /// re-solves and [`adopt`](crate::incremental::IncrementalReallocator::adopt)):
    /// the allocation's arenas are copied as they are. A typed allocation
    /// yields a typed ledger with per-slot tier capacities.
    pub fn from_allocation(allocation: &Allocation) -> FleetLedger {
        let (vm_rows, row_topics, row_offsets, subscribers, used) = allocation.arena();
        let slots = LedgerSlots {
            cap: (0..used.len()).map(|b| allocation.vm_capacity(b)).collect(),
            used: used.to_vec(),
            state: vec![SlotState::Live; used.len()],
            slot_rows: vm_rows.to_vec(),
            row_topics: row_topics.to_vec(),
            row_offsets: row_offsets.to_vec(),
            subscribers: subscribers.to_vec(),
        };
        let typing = allocation.typing().map(|typing| LedgerTyping {
            tiers: typing.tiers().to_vec(),
            slot_tier: typing.assignment().to_vec(),
        });
        FleetLedger::derive(slots, typing)
    }

    /// Rebuilds an (untyped) ledger from snapshotted slots: the host index,
    /// the slot-reuse heap and the aggregate counters are derived from the
    /// arena. Restoring [`FleetLedger::snapshot_slots`] output yields a
    /// ledger whose every future operation takes the same decisions as the
    /// original.
    pub fn from_slots(slots: LedgerSlots) -> FleetLedger {
        FleetLedger::derive(slots, None)
    }

    /// The ledger over `slots`, with everything else derived from them.
    fn derive(slots: LedgerSlots, typing: Option<LedgerTyping>) -> FleetLedger {
        let mut ledger = FleetLedger {
            live_rows: Vec::with_capacity(slots.len()),
            typing,
            ..FleetLedger::default()
        };
        let topics = slots.row_topics.iter().map(|t| t.index() + 1).max();
        ledger.ensure_topics(topics.unwrap_or(0));
        for slot in 0..slots.len() {
            let rows = slots.rows(slot);
            for row in rows.clone() {
                let host = Host {
                    slot: slot as u32,
                    pairs: slots.span(row).len() as u32,
                };
                ledger.host_insert(slots.row_topics[row], host);
            }
            ledger.live_rows.push(rows.len() as u32);
            match slots.state[slot] {
                // Quarantined: not reusable, so not in free_slots.
                SlotState::Failed => {}
                SlotState::Tombstoned => ledger.free_slots.push(Reverse(slot)),
                SlotState::Live => {
                    ledger.total_used += u128::from(slots.used[slot].get());
                    if rows.is_empty() {
                        ledger.maybe_empty.push(slot);
                    } else {
                        ledger.live += 1;
                        ledger.live_cap += u128::from(slots.cap[slot].get());
                    }
                }
            }
        }
        ledger.edits.removed_bits = vec![0; slots.subscribers.len().div_ceil(64)];
        ledger.slots = slots;
        ledger
    }

    /// Lends the ledger's primary state — every slot, tombstones included,
    /// in slot order — for an on-disk snapshot (see [`crate::serve`])
    /// written straight from the live arena.
    ///
    /// # Panics
    ///
    /// Panics on typed (mixed-fleet) ledgers: the serve layer that
    /// snapshots ledgers is homogeneous-only and a silent typing loss
    /// would corrupt capacities on restore.
    pub fn slots(&self) -> &LedgerSlots {
        assert!(self.typing.is_none(), "typed ledgers cannot be snapshotted");
        self.assert_spliced();
        &self.slots
    }

    /// Copies the ledger's primary state out ([`FleetLedger::slots`],
    /// owned). The inverse, [`FleetLedger::from_slots`], rebuilds a
    /// ledger whose future behaviour is bit-identical to this one's.
    ///
    /// # Panics
    ///
    /// As [`FleetLedger::slots`].
    pub fn snapshot_slots(&self) -> LedgerSlots {
        self.slots().clone()
    }

    /// Number of live (non-empty) VMs.
    pub fn vm_count(&self) -> usize {
        self.live
    }

    /// `Σ used` over live VMs: the fleet's Eq. 2 bandwidth, equal to the
    /// exported allocation's [`Allocation::total_bandwidth`] without the
    /// export.
    pub fn total_bandwidth(&self) -> Bandwidth {
        Bandwidth::new(u64::try_from(self.total_used).expect("fleet bandwidth fits in u64"))
    }

    /// `true` iff the ledger carries per-slot instance typing.
    pub fn is_typed(&self) -> bool {
        self.typing.is_some()
    }

    /// Allocated heap bytes across the arena, the indexes, the recorded
    /// edits and the work queues (capacities, not lengths) — one input to
    /// the [`MemoryFootprint`](crate::MemoryFootprint) report.
    pub fn heap_bytes(&self) -> usize {
        let s = &self.slots;
        let mut total = bytes(&s.cap)
            + bytes(&s.used)
            + bytes(&s.state)
            + bytes(&s.slot_rows)
            + bytes(&s.row_topics)
            + bytes(&s.row_offsets)
            + bytes(&s.subscribers)
            + bytes(&self.live_rows)
            + bytes(&self.hosts)
            + bytes(&self.maybe_empty)
            + bytes(&self.overflow_candidates)
            + self.free_slots.capacity() * std::mem::size_of::<Reverse<usize>>()
            + self.edits.heap_bytes();
        total += bytes(&self.host_spill) + bytes(&self.spill_free);
        total += self.host_spill.iter().map(bytes).sum::<usize>();
        if let Some(typing) = &self.typing {
            total += bytes(&typing.tiers) + bytes(&typing.slot_tier);
        }
        total
    }

    /// `Σ used / Σ cap` over live VMs (1.0 for an empty fleet). Both
    /// sums are maintained incrementally, so this stays O(1) even on
    /// typed fleets with per-slot capacities.
    pub fn utilization(&self) -> f64 {
        if self.live_cap == 0 {
            1.0
        } else {
            self.total_used as f64 / self.live_cap as f64
        }
    }

    /// Whether slot `slot` is tombstoned or failed.
    #[inline]
    fn tombstoned(&self, slot: usize) -> bool {
        self.slots.state[slot] != SlotState::Live
    }

    /// Free headroom of slot `slot`.
    #[inline]
    fn slot_free(&self, slot: usize) -> Bandwidth {
        self.slots.cap[slot].saturating_sub(self.slots.used[slot])
    }

    /// Rewrites every slot's capacity to `capacity` — the untyped
    /// ledger's response to a changed `BC` between epochs (`O(fleet)`,
    /// but only on an actual capacity change). Typed ledgers keep their
    /// tier capacities; calling this on one is a logic error.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is typed.
    pub(crate) fn reset_capacity(&mut self, capacity: Bandwidth) {
        assert!(
            self.typing.is_none(),
            "typed fleets derive capacities from their tiers"
        );
        self.live_cap = 0;
        for slot in 0..self.slots.len() {
            self.slots.cap[slot] = capacity;
            if !self.tombstoned(slot) && self.live_rows[slot] > 0 {
                self.live_cap += u128::from(capacity.get());
            }
        }
    }

    /// Exports the live VMs as an [`Allocation`], in slot order. Empty
    /// slots own no rows, so the ledger's row and subscriber arenas are
    /// the allocation's: they are copied whole, with no re-sort and no
    /// bandwidth recompute. Typed ledgers re-attach their
    /// [`FleetTyping`](crate::FleetTyping).
    pub fn to_allocation(&self, capacity: Bandwidth) -> Allocation {
        self.assert_spliced();
        let s = &self.slots;
        let live = (0..s.len()).filter(|&slot| !s.rows(slot).is_empty());
        let mut vm_rows = Vec::with_capacity(self.live + 1);
        vm_rows.push(0);
        vm_rows.extend(live.clone().map(|slot| s.slot_rows[slot + 1]));
        let mut used = Vec::with_capacity(self.live);
        used.extend(live.clone().map(|slot| s.used[slot]));
        let allocation = Allocation::from_arena(
            capacity,
            vm_rows,
            s.row_topics.clone(),
            s.row_offsets.clone(),
            s.subscribers.clone(),
            used,
        );
        match &self.typing {
            Some(typing) => allocation.with_typing(FleetTyping::new(
                typing.tiers.clone(),
                live.map(|slot| typing.slot_tier[slot]).collect(),
            )),
            None => allocation,
        }
    }

    /// Grows the host index to cover `num_topics` topics.
    pub(crate) fn ensure_topics(&mut self, num_topics: usize) {
        if self.hosts.len() < num_topics {
            self.hosts.resize_with(num_topics, TopicHosts::default);
        }
    }

    /// The hosts of topic `t`, by ascending slot (none beyond the indexed
    /// range).
    #[inline]
    fn hosts(&self, t: TopicId) -> &[Host] {
        match self.hosts.get(t.index()) {
            None | Some(TopicHosts::Empty) => &[],
            Some(TopicHosts::One(host)) => std::slice::from_ref(host),
            Some(TopicHosts::Spilled(i)) => &self.host_spill[*i as usize],
        }
    }

    /// [`FleetLedger::hosts`], mutably.
    #[inline]
    fn hosts_mut(&mut self, t: TopicId) -> &mut [Host] {
        match self.hosts.get_mut(t.index()) {
            None | Some(TopicHosts::Empty) => &mut [],
            Some(TopicHosts::One(host)) => std::slice::from_mut(host),
            Some(TopicHosts::Spilled(i)) => &mut self.host_spill[*i as usize],
        }
    }

    /// The live size of topic `t`'s group on `slot`, if the slot hosts it.
    fn group_pairs(&self, t: TopicId, slot: usize) -> Option<u32> {
        let hosts = self.hosts(t);
        let at = hosts
            .binary_search_by_key(&(slot as u32), |h| h.slot)
            .ok()?;
        Some(hosts[at].pairs)
    }

    /// Records `host` as a host of topic `t`, keeping the list ascending.
    /// Callers guarantee the slot is not already present.
    fn host_insert(&mut self, t: TopicId, host: Host) {
        let entry = &mut self.hosts[t.index()];
        match *entry {
            TopicHosts::Empty => *entry = TopicHosts::One(host),
            TopicHosts::One(prev) => {
                debug_assert_ne!(prev.slot, host.slot, "host_insert of a present slot");
                let list = match self.spill_free.pop() {
                    Some(i) => i,
                    None => {
                        self.host_spill.push(Vec::new());
                        (self.host_spill.len() - 1) as u32
                    }
                };
                let spill = &mut self.host_spill[list as usize];
                let (low, high) = if prev.slot < host.slot {
                    (prev, host)
                } else {
                    (host, prev)
                };
                spill.push(low);
                spill.push(high);
                *entry = TopicHosts::Spilled(list);
            }
            TopicHosts::Spilled(i) => {
                let spill = &mut self.host_spill[i as usize];
                let at = spill.partition_point(|h| h.slot < host.slot);
                spill.insert(at, host);
            }
        }
    }

    /// Forgets `slot` as a host of topic `t` (no-op when absent). A spill
    /// list that shrinks to one host collapses back inline and its arena
    /// entry is recycled.
    fn host_remove(&mut self, t: TopicId, slot: u32) {
        let entry = &mut self.hosts[t.index()];
        match *entry {
            TopicHosts::Empty => {}
            TopicHosts::One(host) => {
                if host.slot == slot {
                    *entry = TopicHosts::Empty;
                }
            }
            TopicHosts::Spilled(i) => {
                let spill = &mut self.host_spill[i as usize];
                if let Ok(at) = spill.binary_search_by_key(&slot, |h| h.slot) {
                    spill.remove(at);
                }
                if spill.len() == 1 {
                    let last = spill[0];
                    spill.clear();
                    self.spill_free.push(i);
                    *entry = TopicHosts::One(last);
                }
            }
        }
    }

    /// Empties topic `t`'s host list, recycling any spill entry.
    fn host_clear(&mut self, t: TopicId) {
        if t.index() >= self.hosts.len() {
            return;
        }
        let entry = &mut self.hosts[t.index()];
        if let TopicHosts::Spilled(i) = *entry {
            self.host_spill[i as usize].clear();
            self.spill_free.push(i);
        }
        *entry = TopicHosts::Empty;
    }

    /// Re-bases every hosting VM's used counter after topic `t`'s rate
    /// changed from `old_rate` to `new_rate` — `O(hosts of t)`, reading
    /// each group's size from the host index.
    pub(crate) fn refresh_rate(&mut self, t: TopicId, old_rate: Rate, new_rate: Rate) {
        if old_rate == new_rate || t.index() >= self.hosts.len() {
            return;
        }
        for hi in 0..self.hosts(t).len() {
            let Host { slot, pairs } = self.hosts(t)[hi];
            let slot = slot as usize;
            let old_contrib = old_rate * (u64::from(pairs) + 1);
            let new_contrib = new_rate * (u64::from(pairs) + 1);
            let before = self.slots.used[slot];
            self.slots.used[slot] = before.saturating_sub(old_contrib) + new_contrib;
            self.total_used =
                self.total_used - u128::from(old_contrib.get()) + u128::from(new_contrib.get());
            if new_rate > old_rate {
                self.overflow_candidates.push(slot);
            }
        }
    }

    /// Records arena row `row` of slot `slot` as dropped whole; the slot
    /// queues for release when its last row goes.
    fn drop_row(&mut self, slot: usize, row: usize) {
        self.edits.dropped.push((row as u32, slot as u32));
        self.live_rows[slot] -= 1;
        if self.live_rows[slot] == 0 {
            self.mark_emptied(slot);
        }
    }

    /// The arena row of a group the index names. Removals and drops splice
    /// placements first, so every hosted group has one.
    fn hosted_row(&self, slot: usize, t: TopicId) -> usize {
        self.slots
            .find_row(slot, t)
            .expect("a hosted group has an arena row once placements are spliced")
    }

    /// Splices the recorded edits if any of them are placements: a removal
    /// or drop then names an arena row, and placements stay last.
    fn splice_placements(&mut self) {
        if !self.edits.placed.is_empty() {
            self.splice();
        }
    }

    /// Drops every group of topic `t` (the topic left the workload),
    /// charging usage at `old_rate`. Later [`FleetLedger::remove_pair`]
    /// calls for its pairs become no-ops.
    pub(crate) fn drop_topic(&mut self, t: TopicId, old_rate: Rate) {
        if t.index() >= self.hosts.len() {
            return;
        }
        self.splice_placements();
        for hi in 0..self.hosts(t).len() {
            let Host { slot, pairs } = self.hosts(t)[hi];
            let slot = slot as usize;
            let contrib = old_rate * (u64::from(pairs) + 1);
            self.slots.used[slot] = self.slots.used[slot].saturating_sub(contrib);
            self.total_used -= u128::from(contrib.get());
            let row = self.hosted_row(slot, t);
            self.drop_row(slot, row);
        }
        self.host_clear(t);
    }

    /// Removes the pair `(t, v)` if the ledger holds it, updating usage at
    /// the topic's current `rate`. `O(hosts of t · log)` — the host index
    /// names the candidate VMs, binary search finds the subscriber in the
    /// arena row, and the removal is recorded for the next splice.
    pub(crate) fn remove_pair(&mut self, t: TopicId, v: SubscriberId, rate: Rate) -> bool {
        if t.index() >= self.hosts.len() {
            return false;
        }
        self.splice_placements();
        let found = self.hosts(t).iter().enumerate().find_map(|(hi, host)| {
            let slot = host.slot as usize;
            let row = self.hosted_row(slot, t);
            let span = self.slots.span(row);
            let at = span.start + self.slots.subscribers[span].binary_search(&v).ok()?;
            (!self.edits.is_removed(at)).then_some((hi, slot, row, at))
        });
        let Some((hi, slot, row, at)) = found else {
            return false;
        };
        self.edits.remove(at, row);
        let host = &mut self.hosts_mut(t)[hi];
        host.pairs -= 1;
        let emptied = host.pairs == 0;
        let mut freed = rate.volume(); // the outgoing stream
        if emptied {
            // Last pair: the incoming stream goes too.
            self.host_remove(t, slot as u32);
            self.drop_row(slot, row);
            freed += rate.volume();
        }
        self.slots.used[slot] = self.slots.used[slot].saturating_sub(freed);
        self.total_used -= u128::from(freed.get());
        true
    }

    /// The subscribers of arena row `row` that no recorded removal took.
    fn live_subscribers(&self, row: usize) -> impl Iterator<Item = SubscriberId> + '_ {
        self.slots
            .span(row)
            .filter(|&at| !self.edits.is_removed(at))
            .map(|at| self.slots.subscribers[at])
    }

    /// Bookkeeping for a slot whose last row just left: it stops counting
    /// toward `live`/`live_cap` and queues for the next release sweep.
    fn mark_emptied(&mut self, slot: usize) {
        self.live -= 1;
        self.live_cap -= u128::from(self.slots.cap[slot].get());
        self.maybe_empty.push(slot);
    }

    /// Bookkeeping for a slot that just went live (first row placed).
    fn mark_live(&mut self, slot: usize) {
        self.live += 1;
        self.live_cap += u128::from(self.slots.cap[slot].get());
    }

    /// Queues every live VM for the next overflow check (used when the
    /// capacity constraint itself changed between epochs).
    pub(crate) fn mark_all_for_overflow(&mut self) {
        for slot in 0..self.slots.len() {
            if !self.tombstoned(slot) && self.live_rows[slot] > 0 {
                self.overflow_candidates.push(slot);
            }
        }
    }

    /// Sheds load from every queued VM whose usage exceeds its own slot
    /// capacity: whole topic groups are evicted cheapest-first (cost
    /// `ev_t · (|group| + 1)`, ties to the lowest topic id) and appended
    /// to `spill` for re-placement. Returns the number of evicted pairs.
    pub(crate) fn evict_overflowing(
        &mut self,
        workload: &Workload,
        spill: &mut Vec<(TopicId, SubscriberId)>,
    ) -> u64 {
        self.splice_placements();
        let mut evicted = 0u64;
        let candidates = std::mem::take(&mut self.overflow_candidates);
        for slot in candidates {
            let capacity = self.slots.cap[slot];
            if self.tombstoned(slot) || self.slots.used[slot] <= capacity {
                continue;
            }
            // Group costs do not change while evicting siblings, so one
            // ascending sort stands in for the eviction min-heap.
            let mut order: Vec<(Bandwidth, TopicId, usize, u32)> = self
                .slots
                .rows(slot)
                .filter_map(|row| {
                    let t = self.slots.row_topics[row];
                    let pairs = self.group_pairs(t, slot)?; // None: dropped
                    Some((workload.rate(t) * (u64::from(pairs) + 1), t, row, pairs))
                })
                .collect();
            order.sort_unstable();
            for (cost, t, row, pairs) in order {
                if self.slots.used[slot] <= capacity {
                    break;
                }
                spill.extend(self.live_subscribers(row).map(|v| (t, v)));
                self.host_remove(t, slot as u32);
                self.drop_row(slot, row);
                self.slots.used[slot] = self.slots.used[slot].saturating_sub(cost);
                self.total_used -= u128::from(cost.get());
                evicted += u64::from(pairs);
            }
        }
        evicted
    }

    /// Records `subs` as placed into topic `t`'s row on `slot`.
    fn record_placement(&mut self, slot: usize, t: TopicId, subs: &[SubscriberId]) {
        let from = self.edits.added.len() as u32;
        self.edits.added.extend_from_slice(subs);
        self.edits.placed.push(Placed {
            slot: slot as u32,
            topic: t,
            from,
            to: self.edits.added.len() as u32,
        });
    }

    /// Places one topic group from a subscriber slice: VMs already hosting the
    /// topic first (marginal cost `ev` per pair), then most-free VMs
    /// (`(k+1)·ev`), then fresh VMs (tombstoned slots are
    /// reused lowest-first). `capacity` sizes fresh VMs on untyped
    /// fleets; typed fleets pick the cheapest-density tier that holds
    /// the remaining group whole (the largest tier when none does). The
    /// caller must have checked `rate.pair_cost()` against the fleet's
    /// largest capacity. The placements are recorded for the next
    /// [`FleetLedger::splice`].
    pub(crate) fn place_group(
        &mut self,
        t: TopicId,
        rate: Rate,
        mut subs: &[SubscriberId],
        capacity: Bandwidth,
    ) {
        debug_assert!(
            rate.pair_cost() <= self.max_fleet_capacity(capacity),
            "caller must reject infeasible topics"
        );
        self.ensure_topics(t.index() + 1);

        // Pass 1: co-hosts in ascending slot order.
        for hi in 0..self.hosts(t).len() {
            if subs.is_empty() {
                break;
            }
            let slot = self.hosts(t)[hi].slot as usize;
            let free = self.slot_free(slot);
            let take = (free.div_rate(rate) as usize).min(subs.len());
            if take == 0 {
                continue;
            }
            let (head, rest) = subs.split_at(take);
            subs = rest;
            self.record_placement(slot, t, head);
            self.hosts_mut(t)[hi].pairs += take as u32;
            let added = rate * take as u64;
            self.slots.used[slot] += added;
            self.total_used += u128::from(added.get());
        }

        // Pass 2: the live VM with the most headroom.
        while !subs.is_empty() {
            let Some(slot) = self.most_free_slot() else {
                break;
            };
            let free = self.slot_free(slot);
            if free < rate.pair_cost() {
                break; // no existing VM can take a first pair
            }
            let take = ((free.div_rate(rate) - 1) as usize).min(subs.len());
            let hosted = self.group_pairs(t, slot).is_some();
            if !hosted {
                self.host_insert(
                    t,
                    Host {
                        slot: slot as u32,
                        pairs: 0,
                    },
                );
                self.live_rows[slot] += 1;
                if self.live_rows[slot] == 1 {
                    self.mark_live(slot);
                }
            }
            let (head, rest) = subs.split_at(take);
            subs = rest;
            self.record_placement(slot, t, head);
            let hosts = self.hosts_mut(t);
            let hi = hosts.partition_point(|h| (h.slot as usize) < slot);
            hosts[hi].pairs += take as u32;
            let added = rate * (take as u64 + if hosted { 0 } else { 1 });
            self.slots.used[slot] += added;
            self.total_used += u128::from(added.get());
        }

        // Pass 3: fresh VMs.
        while !subs.is_empty() {
            let vm_cap = self.fresh_vm_capacity(rate, subs.len(), capacity);
            let take = ((vm_cap.div_rate(rate) - 1) as usize).min(subs.len());
            let (head, rest) = subs.split_at(take);
            subs = rest;
            let used = rate * (take as u64 + 1);
            let slot = match self.free_slots.pop() {
                Some(Reverse(slot)) => {
                    debug_assert_ne!(
                        self.slots.state[slot],
                        SlotState::Failed,
                        "failed slots never enter free_slots"
                    );
                    self.slots.state[slot] = SlotState::Live;
                    self.slots.used[slot] = used;
                    self.slots.cap[slot] = vm_cap;
                    slot
                }
                None => {
                    let s = &mut self.slots;
                    s.used.push(used);
                    s.cap.push(vm_cap);
                    s.state.push(SlotState::Live);
                    s.slot_rows
                        .push(*s.slot_rows.last().expect("slot_rows starts at 0"));
                    self.live_rows.push(0);
                    s.state.len() - 1
                }
            };
            if let Some(typing) = &mut self.typing {
                let tier = typing
                    .tiers
                    .iter()
                    .position(|&(_, cap)| cap == vm_cap)
                    .expect("fresh_vm_capacity returns a tier capacity")
                    as u32;
                if slot < typing.slot_tier.len() {
                    typing.slot_tier[slot] = tier;
                } else {
                    typing.slot_tier.push(tier);
                }
            }
            self.record_placement(slot, t, head);
            self.host_insert(
                t,
                Host {
                    slot: slot as u32,
                    pairs: take as u32,
                },
            );
            self.live_rows[slot] = 1;
            self.total_used += u128::from(used.get());
            self.mark_live(slot);
        }
    }

    /// The non-tombstoned slot with the most free headroom, ties to the
    /// higher slot. A scan, `O(slots)`: pass 2 of
    /// [`FleetLedger::place_group`] runs at most a few hundred times per
    /// epoch on fleets of tens of slots.
    fn most_free_slot(&self) -> Option<usize> {
        let s = &self.slots;
        let mut best: Option<(Bandwidth, usize)> = None;
        for (slot, ((&cap, &used), &state)) in s.cap.iter().zip(&s.used).zip(&s.state).enumerate() {
            let free = cap.saturating_sub(used);
            if state == SlotState::Live && best.is_none_or(|(most, _)| free >= most) {
                best = Some((free, slot));
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// The largest capacity a fresh VM could have: the biggest tier on a
    /// typed fleet, `fallback` otherwise.
    fn max_fleet_capacity(&self, fallback: Bandwidth) -> Bandwidth {
        match &self.typing {
            Some(typing) => typing
                .tiers
                .iter()
                .map(|&(_, cap)| cap)
                .max()
                .unwrap_or(fallback),
            None => fallback,
        }
    }

    /// Capacity of the next fresh VM for a group of `pending` pairs of
    /// `rate` — the mixed packer's tier rule on typed fleets (cheapest
    /// density that holds the group whole, largest otherwise), the
    /// caller's capacity on untyped ones.
    fn fresh_vm_capacity(&self, rate: Rate, pending: usize, fallback: Bandwidth) -> Bandwidth {
        let Some(typing) = &self.typing else {
            return fallback;
        };
        let whole = u128::from(rate.get()) * (pending as u128 + 1);
        typing
            .tiers
            .iter()
            .map(|&(_, cap)| cap)
            .find(|cap| u128::from(cap.get()) >= whole && *cap >= rate.pair_cost())
            .unwrap_or_else(|| {
                typing
                    .tiers
                    .iter()
                    .map(|&(_, cap)| cap)
                    .max()
                    .expect("typed fleets have at least one tier")
            })
    }

    /// Tombstones every VM emptied since the last sweep (their slots are
    /// reused by future fresh VMs). Returns how many were released.
    pub(crate) fn release_empty(&mut self) -> usize {
        let mut released = 0usize;
        let pending = std::mem::take(&mut self.maybe_empty);
        for slot in pending {
            if !self.tombstoned(slot) && self.live_rows[slot] == 0 {
                self.slots.state[slot] = SlotState::Tombstoned;
                self.free_slots.push(Reverse(slot));
                released += 1;
            }
        }
        released
    }

    /// Recomputes every live VM's used counter from its groups under the
    /// current rates — the `O(fleet)` fallback for resyncing after
    /// [`adopt`](crate::incremental::IncrementalReallocator::adopt), where
    /// no previous-epoch rates exist to delta against. Topics at or above
    /// the workload's topic count must have been dropped first.
    pub(crate) fn recompute_used(&mut self, workload: &Workload) {
        self.splice_placements();
        self.total_used = 0;
        for slot in 0..self.slots.len() {
            if self.tombstoned(slot) {
                continue;
            }
            let used = self
                .slots
                .rows(slot)
                .filter_map(|row| {
                    let t = self.slots.row_topics[row];
                    let pairs = self.group_pairs(t, slot)?; // None: dropped
                    Some(workload.rate(t) * (u64::from(pairs) + 1))
                })
                .sum();
            self.slots.used[slot] = used;
            self.total_used += u128::from(used.get());
        }
    }

    /// Drops every group whose topic index is `>= num_topics` (the
    /// workload shrank), charging usage at the rates recorded in `used` —
    /// callers pass the previous epoch's rate via
    /// [`FleetLedger::drop_topic`]; this sweep exists for the adopt path
    /// where [`FleetLedger::recompute_used`] follows anyway.
    pub(crate) fn drop_topics_at_or_above(&mut self, num_topics: usize) {
        self.splice_placements();
        for ti in num_topics..self.hosts.len() {
            let t = TopicId::new(ti as u32);
            for hi in 0..self.hosts(t).len() {
                let slot = self.hosts(t)[hi].slot as usize;
                let row = self.hosted_row(slot, t);
                self.drop_row(slot, row);
            }
            self.host_clear(t);
        }
    }

    /// Fails a set of VM slots in place: every pair they hosted is
    /// orphaned (returned for re-placement), their usage leaves the
    /// aggregates, and the slots are *quarantined* — tombstoned but kept
    /// out of the fresh-VM reuse pool until [`FleetLedger::recover_slot`]
    /// declares the underlying machine healthy again. Duplicate indices
    /// collapse into one failure; out-of-range and already-dead indices
    /// are reported in [`FailedSlots::rejected`], never acted on.
    ///
    /// Quarantine is what keeps a dead VM's identity from being
    /// resurrected with stale state: a recovered slot re-enters the pool
    /// empty, and reuse by [`FleetLedger::place_group`] always rewrites
    /// its capacity.
    pub(crate) fn fail_slots(&mut self, slots: &[usize]) -> FailedSlots {
        self.splice_placements();
        let mut wanted: Vec<usize> = slots.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let mut out = FailedSlots::default();
        for slot in wanted {
            if slot >= self.slots.len() || self.tombstoned(slot) {
                out.rejected.push(slot);
                continue;
            }
            for row in self.slots.rows(slot) {
                let t = self.slots.row_topics[row];
                if self.group_pairs(t, slot).is_none() {
                    continue; // dropped this epoch
                }
                out.orphans
                    .extend(self.live_subscribers(row).map(|v| (t, v)));
                self.host_remove(t, slot as u32);
                self.edits.dropped.push((row as u32, slot as u32));
            }
            self.total_used -= u128::from(self.slots.used[slot].get());
            self.slots.used[slot] = Bandwidth::ZERO;
            if self.live_rows[slot] > 0 {
                // Empty slots already left live/live_cap via mark_emptied.
                self.live -= 1;
                self.live_cap -= u128::from(self.slots.cap[slot].get());
            }
            self.live_rows[slot] = 0;
            self.slots.state[slot] = SlotState::Failed;
            out.failed.push(slot);
        }
        out
    }

    /// Lifts the quarantine on a failed slot, returning it to the
    /// lowest-first reuse pool (the machine was replaced or came back).
    /// Returns `false` — and does nothing — for indices that are not
    /// currently quarantined.
    pub(crate) fn recover_slot(&mut self, slot: usize) -> bool {
        if slot >= self.slots.len() || self.slots.state[slot] != SlotState::Failed {
            return false;
        }
        self.slots.state[slot] = SlotState::Tombstoned;
        self.free_slots.push(Reverse(slot));
        true
    }

    /// Number of slots currently quarantined after VM failures.
    pub fn failed_slot_count(&self) -> usize {
        self.slots
            .state
            .iter()
            .filter(|&&s| s == SlotState::Failed)
            .count()
    }

    /// The hosted pairs transposed to one CSR row per subscriber:
    /// `offsets[v]..offsets[v + 1]` delimits the topics hosted for `v`
    /// in `topics`, in slot order (a topic repeats if several slots host
    /// the pair). A counting sort builds it in two sequential sweeps of
    /// the arena. Subscribers at or past `num_subscribers` are left out.
    /// Like every whole-fleet reader, it needs a spliced ledger.
    pub(crate) fn hosted_by_subscriber(&self, num_subscribers: usize) -> (Vec<u32>, Vec<TopicId>) {
        self.assert_spliced();
        let s = &self.slots;
        let mut offsets = vec![0u32; num_subscribers + 1];
        for v in &s.subscribers {
            if v.index() < num_subscribers {
                offsets[v.index() + 1] += 1;
            }
        }
        for vi in 0..num_subscribers {
            offsets[vi + 1] += offsets[vi];
        }
        let mut next = offsets.clone();
        let mut topics = vec![TopicId::new(0); offsets[num_subscribers] as usize];
        for (row, &t) in s.row_topics.iter().enumerate() {
            for v in &s.subscribers[s.span(row)] {
                if v.index() < num_subscribers {
                    let at = &mut next[v.index()];
                    topics[*at as usize] = t;
                    *at += 1;
                }
            }
        }
        (offsets, topics)
    }

    fn assert_spliced(&self) {
        assert!(
            self.edits.is_empty(),
            "the ledger's recorded edits must be spliced first"
        );
    }

    /// Applies every recorded edit to the arena in one pass: removed pairs
    /// and dropped rows leave, placed subscribers merge into their rows in
    /// id order, and new rows open in topic order, so the arena stays
    /// canonical. One walk over the touched rows in arena order lists the
    /// subscriber-arena edits and rewrites the row offsets; untouched runs
    /// of subscribers then move as blocks through
    /// [`pubsub_model::csr::splice_in_place`]. `O(edits · log)` to order
    /// the edits plus one pass over the arena past the first one.
    pub(crate) fn splice(&mut self) {
        if self.edits.is_empty() {
            return;
        }
        let FleetLedger { slots, edits, .. } = self;
        let s: &LedgerSlots = slots;
        let e = edits;
        e.removed.sort_unstable_by_key(|&(at, _)| at);
        e.dropped.sort_unstable();
        e.placed.sort_unstable_by_key(|p| (p.slot, p.topic));
        let mut scratch = Scratch::for_edits(e);

        // The placed rows, one per (slot, topic): where the row is, and
        // its subscribers gathered into `ids` and sorted.
        for group in e
            .placed
            .chunk_by(|a, b| (a.slot, a.topic) == (b.slot, b.topic))
        {
            let from = scratch.ids.len();
            for p in group {
                scratch
                    .ids
                    .extend_from_slice(&e.added[p.from as usize..p.to as usize]);
            }
            scratch.ids[from..].sort_unstable();
            let (slot, topic) = (group[0].slot, group[0].topic);
            let (row, existing) = match s.find_row(slot as usize, topic) {
                Ok(row) => (row, true),
                Err(row) => (row, false),
            };
            scratch.groups.push(PlacedRow {
                row,
                existing,
                slot,
                topic,
                ids: from..scratch.ids.len(),
            });
        }

        // Walk the touched rows in arena order: a new row before the arena
        // row it precedes. Untouched rows' offsets shift by the length
        // change before them; touched rows list their subscriber edits:
        // removals and runs of placed subscribers that share an insertion
        // point (insertions first where the two meet), a dropped row
        // replaced whole, a new row opened where it belongs.
        let old = &s.row_offsets;
        let new_rows = scratch.groups.iter().filter(|p| !p.existing).count();
        let mut offsets: Vec<u32> = Vec::with_capacity(old.len() + new_rows);
        offsets.push(0);
        let mut copied = 0;
        let (mut g, mut d, mut r) = (0, 0, 0);
        loop {
            let from_group = scratch.groups.get(g).map(|p| (p.row, p.existing));
            let from_dropped = e.dropped.get(d).map(|&(row, _)| (row as usize, true));
            let from_removed = e.removed.get(r).map(|&(_, row)| (row as usize, true));
            let Some((row, existing)) = [from_group, from_dropped, from_removed]
                .into_iter()
                .flatten()
                .min()
            else {
                break;
            };
            // Untouched rows before this one keep their length.
            let shift = offsets[offsets.len() - 1].wrapping_sub(old[copied]);
            offsets.extend(old[copied + 1..=row].iter().map(|o| o.wrapping_add(shift)));
            copied = row;
            let end = offsets[offsets.len() - 1];
            let ids = if from_group == Some((row, existing)) {
                g += 1;
                scratch.groups[g - 1].ids.clone()
            } else {
                0..0
            };
            if !existing {
                let PlacedRow { slot, topic, .. } = scratch.groups[g - 1];
                let at = old[row] as usize;
                scratch.sub_edits.push((at..at, ids.len()));
                scratch.sub_from.push(ids.start);
                scratch.topic_edits.push((row..row, 1));
                scratch.topic_fill.push(topic);
                scratch.slot_delta(slot, 1);
                offsets.push(end + ids.len() as u32);
                continue;
            }
            copied = row + 1;
            let span = s.span(row);
            let removed_from = r;
            while e.removed.get(r).is_some_and(|&(_, rr)| rr as usize == row) {
                r += 1;
            }
            if from_dropped == Some((row, true)) {
                let slot = e.dropped[d].1;
                d += 1;
                scratch.sub_edits.push((span, ids.len()));
                scratch.sub_from.push(ids.start);
                if ids.is_empty() {
                    scratch.topic_edits.push((row..row + 1, 0));
                    scratch.topic_fill.push(s.row_topics[row]);
                    scratch.slot_delta(slot, -1);
                } else {
                    offsets.push(end + ids.len() as u32);
                }
                continue;
            }
            let removed = &e.removed[removed_from..r];
            let subs = &s.subscribers[span.clone()];
            let point = |v: SubscriberId| span.start + subs.partition_point(|&u| u < v);
            let (mut i, mut j) = (ids.start, 0);
            while i < ids.end || j < removed.len() {
                let q = if i < ids.end {
                    point(scratch.ids[i])
                } else {
                    usize::MAX
                };
                let p = removed.get(j).map_or(usize::MAX, |&(at, _)| at as usize);
                if q <= p {
                    let first = i;
                    i += 1;
                    while i < ids.end && point(scratch.ids[i]) == q {
                        i += 1;
                    }
                    scratch.sub_edits.push((q..q, i - first));
                    scratch.sub_from.push(first);
                } else {
                    match scratch.sub_edits.last_mut() {
                        Some((run, 0)) if run.end == p => run.end = p + 1,
                        _ => {
                            scratch.sub_edits.push((p..p + 1, 0));
                            scratch.sub_from.push(0);
                        }
                    }
                    j += 1;
                }
            }
            offsets.push(end + (span.len() - removed.len() + ids.len()) as u32);
        }
        let shift = offsets[offsets.len() - 1].wrapping_sub(old[copied]);
        offsets.extend(old[copied + 1..].iter().map(|o| o.wrapping_add(shift)));

        // Every set bit is a removed position's, so zeroing their words
        // clears the bitmap.
        for &(at, _) in &e.removed {
            e.removed_bits[at as usize / 64] = 0;
        }
        let s = slots;
        let Scratch {
            sub_edits,
            sub_from,
            ids,
            topic_edits,
            topic_fill,
            slot_deltas,
            ..
        } = scratch;
        splice_in_place(&mut s.subscribers, &sub_edits, |j, slot| {
            slot.copy_from_slice(&ids[sub_from[j]..sub_from[j] + slot.len()]);
        });
        splice_in_place(&mut s.row_topics, &topic_edits, |j, slot| {
            slot.fill(topic_fill[j]);
        });
        s.row_offsets = offsets;
        shift_offsets(&mut s.slot_rows, s.state.len(), slot_deltas);
        debug_assert_eq!(s.row_offsets.len(), s.row_topics.len() + 1);
        debug_assert_eq!(
            s.row_offsets.last().map(|&o| o as usize),
            Some(s.subscribers.len())
        );

        // The edit buffers go with the scratch: between splices the ledger
        // keeps only the removal bitmap, one bit per arena position.
        let mut removed_bits = std::mem::take(&mut e.removed_bits);
        removed_bits.resize(s.subscribers.len().div_ceil(64), 0);
        *e = Edits {
            removed_bits,
            ..Edits::default()
        };
    }
}

#[cfg(test)]
impl FleetLedger {
    /// Checks a spliced ledger against state derived from its arena alone:
    /// canonical rows, the host index with its group sizes, the live row
    /// counts, the aggregates and the reuse pool.
    pub(crate) fn assert_consistent(&self) {
        self.assert_spliced();
        let s = &self.slots;
        assert_eq!(s.slot_rows.len(), s.len() + 1);
        assert_eq!(s.row_offsets.len(), s.row_topics.len() + 1);
        assert_eq!(
            s.slot_rows.last().map(|&r| r as usize),
            Some(s.row_topics.len())
        );
        assert_eq!(
            s.row_offsets.last().map(|&o| o as usize),
            Some(s.subscribers.len())
        );
        for slot in 0..s.len() {
            let vm = s.vm(slot);
            let topics: Vec<TopicId> = vm.rows().map(|(t, _)| t).collect();
            assert!(topics.windows(2).all(|w| w[0] < w[1]), "slot {slot} rows");
            for (t, subs) in vm.rows() {
                assert!(!subs.is_empty(), "slot {slot} keeps an empty row of {t}");
                assert!(subs.windows(2).all(|w| w[0] < w[1]), "slot {slot}, {t}");
            }
            if s.state[slot] != SlotState::Live {
                assert_eq!(vm.topic_count(), 0, "tombstoned slot {slot} owns rows");
            }
        }
        let derived = FleetLedger::derive(self.slots.clone(), self.typing.clone());
        for ti in 0..self.hosts.len().max(derived.hosts.len()) {
            let t = TopicId::new(ti as u32);
            assert_eq!(self.hosts(t), derived.hosts(t), "hosts of {t}");
        }
        assert_eq!(self.live_rows, derived.live_rows);
        assert_eq!(self.live, derived.live);
        assert_eq!(self.live_cap, derived.live_cap);
        assert_eq!(self.total_used, derived.total_used);
        let pool = |heap: &BinaryHeap<Reverse<usize>>| {
            let mut slots: Vec<usize> = heap.iter().map(|r| r.0).collect();
            slots.sort_unstable();
            slots
        };
        assert_eq!(pool(&self.free_slots), pool(&derived.free_slots));
        assert!(self.edits.removed_bits.iter().all(|&w| w == 0));
        assert_eq!(
            self.edits.removed_bits.len(),
            s.subscribers.len().div_ceil(64)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{DriftModel, WorkloadDelta};
    use crate::incremental::{IncrementalReallocator, SlaBudget};
    use crate::stage2::SearchBudget;
    use crate::McssInstance;
    use cloud_cost::{LinearCostModel, Money};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn t(i: u32) -> TopicId {
        TopicId::new(i)
    }
    fn v(i: u32) -> SubscriberId {
        SubscriberId::new(i)
    }

    fn workload(rates: &[u64]) -> Workload {
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = rates
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        // Everyone follows everything so any pair is legal.
        for _ in 0..24 {
            b.add_subscriber(ts.iter().copied()).unwrap();
        }
        b.build()
    }

    /// An allocation of per-VM `(topic, subscribers)` rows, by raw ids.
    fn fleet(vms: &[&[(u32, &[u32])]], w: &Workload, capacity: Bandwidth) -> Allocation {
        let groups = vms
            .iter()
            .map(|rows| {
                rows.iter()
                    .map(|&(topic, subs)| (t(topic), subs.iter().map(|&s| v(s)).collect()))
                    .collect()
            })
            .collect();
        Allocation::from_groups(groups, w, capacity)
    }

    fn ledger_with(vms: &[&[(u32, &[u32])]], w: &Workload, capacity: Bandwidth) -> FleetLedger {
        FleetLedger::from_allocation(&fleet(vms, w, capacity))
    }

    /// Slot `slot`'s pair count in a spliced ledger.
    fn pairs(ledger: &FleetLedger, slot: usize) -> u64 {
        ledger.slots().vm(slot).pair_count()
    }

    #[test]
    fn from_allocation_round_trips() {
        let w = workload(&[10, 5]);
        let cap = Bandwidth::new(100);
        let vms: &[&[(u32, &[u32])]] = &[&[(0, &[0, 1]), (1, &[2])], &[(1, &[0])]];
        let ledger = ledger_with(vms, &w, cap);
        assert_eq!(ledger.vm_count(), 2);
        assert_eq!(ledger.to_allocation(cap), fleet(vms, &w, cap));
        ledger.assert_consistent();
    }

    #[test]
    fn remove_pair_updates_usage_and_releases_empties() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(&[&[(0, &[0, 1])]], &w, cap);
        assert!(ledger.remove_pair(t(0), v(0), Rate::new(10)));
        ledger.splice();
        // 2 pairs + incoming = 30 → one pair + incoming = 20.
        assert_eq!(ledger.to_allocation(cap).total_bandwidth().get(), 20);
        assert!(ledger.remove_pair(t(0), v(1), Rate::new(10)));
        assert!(
            !ledger.remove_pair(t(0), v(1), Rate::new(10)),
            "no-op twice"
        );
        assert_eq!(ledger.release_empty(), 1);
        assert_eq!(ledger.vm_count(), 0);
        ledger.splice();
        assert_eq!(ledger.to_allocation(cap).vm_count(), 0);
        ledger.assert_consistent();
    }

    #[test]
    fn removals_recorded_in_one_epoch_skip_removed_pairs() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(&[&[(0, &[0, 1, 2])]], &w, cap);
        assert!(ledger.remove_pair(t(0), v(1), Rate::new(10)));
        assert!(
            !ledger.remove_pair(t(0), v(1), Rate::new(10)),
            "no-op twice"
        );
        assert!(ledger.remove_pair(t(0), v(2), Rate::new(10)));
        assert!(!ledger.remove_pair(t(0), v(3), Rate::new(10)), "never held");
        ledger.splice();
        let a = ledger.to_allocation(cap);
        assert_eq!(a.vm(0).rows().next(), Some((t(0), &[v(0)][..])));
        assert_eq!(a.total_bandwidth().get(), 20);
        ledger.assert_consistent();
    }

    #[test]
    fn refresh_rate_flags_overflow_and_eviction_sheds_cheapest_group() {
        let w = workload(&[30, 4]);
        let cap = Bandwidth::new(100);
        // used = 30·(2+1) + 4·(1+1) = 98.
        let mut ledger = ledger_with(&[&[(0, &[0, 1]), (1, &[2])]], &w, cap);
        ledger.refresh_rate(t(0), Rate::new(30), Rate::new(31));
        let mut spill = Vec::new();
        let evicted = ledger.evict_overflowing(&w, &mut spill);
        // New usage 101 > 100: the cheap t1 group (cost 8) goes first.
        assert_eq!(evicted, 1);
        assert_eq!(spill, vec![(t(1), v(2))]);
        ledger.splice();
        ledger.assert_consistent();
    }

    #[test]
    fn place_group_prefers_cohost_then_most_free_then_fresh() {
        let w = workload(&[10, 2]);
        let cap = Bandwidth::new(64);
        // VM0 hosts t0 with room for 1 more pair; VM1 is nearly full.
        let mut ledger = ledger_with(
            &[
                &[(0, &[0, 1, 2])], // used 40, free 24
                &[(1, &[0, 1])],    // used 6, free 58
            ],
            &w,
            cap,
        );
        let subs = vec![v(3), v(4), v(5), v(6), v(7), v(8), v(9), v(10)];
        ledger.place_group(t(0), Rate::new(10), &subs, cap);
        ledger.splice();
        let a = ledger.to_allocation(cap);
        assert_eq!(a.pair_count(), 5 + subs.len() as u64, "all pairs placed");
        // Co-host takes 2 (24/10), most-free VM1 takes 4 (58/10 − 1),
        // fresh VM takes the remaining 2.
        assert_eq!(a.vm_count(), 3);
        assert_eq!(a.vm(0).pair_count(), 5);
        assert_eq!(a.vm(1).pair_count(), 2 + 4);
        assert_eq!(a.vm(2).pair_count(), 2);
        for vm in a.vms() {
            assert!(vm.used() <= cap);
        }
        ledger.assert_consistent();
    }

    #[test]
    fn tombstoned_slots_are_reused_lowest_first() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(&[&[(0, &[0])], &[(0, &[1, 2, 3, 4])]], &w, cap);
        ledger.remove_pair(t(0), v(0), Rate::new(10));
        assert_eq!(ledger.release_empty(), 1);
        assert_eq!(ledger.vm_count(), 1);
        // A fresh placement must first fill the co-host, then reuse slot 0.
        let subs = (5..14).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &subs, cap);
        assert_eq!(ledger.vm_count(), 2);
        ledger.splice();
        let a = ledger.to_allocation(cap);
        assert_eq!(a.vm_count(), 2);
        assert_eq!(a.pair_count(), 4 + subs.len() as u64, "all pairs placed");
        assert_eq!(pairs(&ledger, 0), 4, "slot 0 reused");
        ledger.assert_consistent();
    }

    #[test]
    fn host_index_spills_and_collapses_across_multi_vm_topics() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        // Topic 0 hosted by three VMs: the host index must spill.
        let mut ledger = ledger_with(&[&[(0, &[0])], &[(0, &[1])], &[(0, &[2])]], &w, cap);
        assert_eq!(ledger.hosts(t(0)).len(), 3);
        assert_eq!(ledger.hosts(t(0)).iter().map(|h| h.slot).max(), Some(2));
        // Emptying two VMs collapses the spill back inline...
        assert!(ledger.remove_pair(t(0), v(0), Rate::new(10)));
        assert!(ledger.remove_pair(t(0), v(2), Rate::new(10)));
        assert_eq!(ledger.hosts(t(0)).len(), 1);
        assert_eq!(ledger.hosts(t(0))[0].slot, 1);
        assert_eq!(ledger.spill_free.len(), 1, "spill entry recycled");
        // ...and growing again reuses the recycled spill entry.
        let subs = (3..15).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &subs, cap);
        assert!(ledger.hosts(t(0)).len() > 1);
        assert!(ledger.spill_free.is_empty());
        ledger.splice();
        let a = ledger.to_allocation(cap);
        assert_eq!(a.pair_count(), 1 + subs.len() as u64);
        assert!(a.validate(&w, Rate::new(0)).is_ok());
        ledger.assert_consistent();
    }

    #[test]
    fn slot_snapshot_round_trips_tombstones_and_placement_behaviour() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(&[&[(0, &[0])], &[(0, &[1, 2, 3, 4])]], &w, cap);
        // Tombstone slot 0 so the restore has to rebuild free_slots too.
        ledger.remove_pair(t(0), v(0), Rate::new(10));
        ledger.release_empty();
        ledger.splice();

        let mut restored = FleetLedger::from_slots(ledger.snapshot_slots());
        assert_eq!(restored.vm_count(), ledger.vm_count());
        assert!((restored.utilization() - ledger.utilization()).abs() < 1e-12);
        assert_eq!(restored.to_allocation(cap), ledger.to_allocation(cap));

        // Identical future behaviour: the same placement lands the same
        // way (co-host fill, then reuse of tombstoned slot 0).
        let subs = (5..14).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &subs, cap);
        restored.place_group(t(0), Rate::new(10), &subs, cap);
        ledger.splice();
        restored.splice();
        assert_eq!(restored.to_allocation(cap), ledger.to_allocation(cap));
        assert_eq!(restored.snapshot_slots(), ledger.snapshot_slots());
    }

    #[test]
    fn drop_topic_clears_groups_everywhere() {
        let w = workload(&[10, 5]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(&[&[(0, &[0]), (1, &[1])], &[(1, &[2])]], &w, cap);
        ledger.drop_topic(t(1), Rate::new(5));
        assert!(
            !ledger.remove_pair(t(1), v(1), Rate::new(5)),
            "already gone"
        );
        ledger.splice();
        let a = ledger.to_allocation(cap);
        assert_eq!(a.pair_count(), 1);
        assert_eq!(ledger.release_empty(), 1);
        assert_eq!(ledger.vm_count(), 1);
        ledger.assert_consistent();
    }

    #[test]
    fn utilization_tracks_live_vms_only() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(40);
        let mut ledger = ledger_with(&[&[(0, &[0])], &[(0, &[1])]], &w, cap);
        // Each VM: 20/40.
        assert!((ledger.utilization() - 0.5).abs() < 1e-9);
        ledger.remove_pair(t(0), v(1), Rate::new(10));
        ledger.release_empty();
        assert!((ledger.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reset_capacity_rescales_untyped_slots() {
        let w = workload(&[10]);
        let mut ledger = ledger_with(&[&[(0, &[0])], &[(0, &[1])]], &w, Bandwidth::new(40));
        assert!((ledger.utilization() - 0.5).abs() < 1e-9);
        ledger.reset_capacity(Bandwidth::new(80));
        assert!((ledger.utilization() - 0.25).abs() < 1e-9);
        // Shrinking below usage flags overflow on the next sweep.
        ledger.reset_capacity(Bandwidth::new(15));
        ledger.mark_all_for_overflow();
        let mut spill = Vec::new();
        assert_eq!(ledger.evict_overflowing(&w, &mut spill), 2);
    }

    #[test]
    fn typed_ledger_round_trips_typing_and_respects_tier_caps() {
        use crate::FleetTyping;
        use cloud_cost::instances;
        let w = workload(&[10, 2]);
        let tiers = vec![
            (instances::C3_LARGE, Bandwidth::new(24)),
            (instances::C3_XLARGE, Bandwidth::new(64)),
        ];
        // VM0 (small): t1 group, used 6/24. VM1 (big): t0 group, 40/64.
        let typed = fleet(
            &[&[(1, &[0, 1])], &[(0, &[0, 1, 2])]],
            &w,
            Bandwidth::new(64),
        )
        .with_typing(FleetTyping::new(tiers.clone(), vec![0, 1]));
        let mut ledger = FleetLedger::from_allocation(&typed);
        assert!(ledger.is_typed());
        assert_eq!(ledger.to_allocation(Bandwidth::new(64)), typed);

        // Place 8 more t0 pairs (rate 10): the small VM0 has free 18 but
        // the most-free scan must rank VM1 (free 24) by *headroom*; the
        // co-host VM1 takes 2 (24/10), spill takes VM0's 18 → 1 pair,
        // fresh VMs host the rest on the cheapest tier that fits whole.
        let subs = (3..11).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &subs, Bandwidth::new(64));
        ledger.splice();
        let out = ledger.to_allocation(Bandwidth::new(64));
        out.validate(&w, Rate::ZERO).unwrap();
        for (i, vm) in out.vms().enumerate() {
            assert!(
                vm.used() <= out.vm_capacity(i),
                "vm {i} used {} over its tier cap {}",
                vm.used(),
                out.vm_capacity(i)
            );
        }
        assert_eq!(out.pair_count(), 2 + 3 + 8);
    }

    #[test]
    fn fail_slots_orphans_rows_and_reports_invalid_indices() {
        let w = workload(&[10, 5]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(&[&[(0, &[0, 1]), (1, &[2])], &[(1, &[3])]], &w, cap);
        // Duplicates collapse, out-of-range indices are reported.
        let fail = ledger.fail_slots(&[0, 0, 7]);
        assert_eq!(fail.failed, vec![0]);
        assert_eq!(fail.rejected, vec![7]);
        assert_eq!(fail.orphans, vec![(t(0), v(0)), (t(0), v(1)), (t(1), v(2))]);
        assert_eq!(ledger.vm_count(), 1);
        assert_eq!(ledger.failed_slot_count(), 1);
        // The dead VM is gone from the export; the survivor remains.
        ledger.splice();
        let a = ledger.to_allocation(cap);
        assert_eq!(a.vm_count(), 1);
        assert_eq!(a.pair_count(), 1);
        // Failing a dead slot again names nothing.
        let again = ledger.fail_slots(&[0]);
        assert!(again.failed.is_empty());
        assert_eq!(again.rejected, vec![0]);
        // Usage aggregates dropped with the slot.
        assert_eq!(a.total_bandwidth().get(), 5 * 2);
        ledger.assert_consistent();
    }

    #[test]
    fn failed_slots_are_quarantined_until_recovered() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(
            &[&[(0, &[0, 1])], &[(0, &[2, 3, 4, 5, 6, 7, 8, 9])]],
            &w,
            cap,
        );
        let fail = ledger.fail_slots(&[0]);
        assert_eq!(fail.failed, vec![0]);
        // Re-placing the orphans must NOT resurrect the dead slot 0: the
        // co-host (slot 1, free 10) takes one pair, the rest opens a
        // fresh VM — which lands on a brand-new slot 2.
        let topic = fail.orphans[0].0;
        assert!(fail.orphans.iter().all(|&(tt, _)| tt == topic));
        let subs: Vec<SubscriberId> = fail.orphans.iter().map(|&(_, s)| s).collect();
        ledger.place_group(topic, Rate::new(10), &subs, cap);
        ledger.splice();
        let slots = ledger.snapshot_slots();
        assert!(slots.state(0) == SlotState::Failed && slots.vm(0).topic_count() == 0);
        assert_eq!(slots.len(), 3, "fresh VM opened a new slot, not slot 0");
        assert!(slots.vm(2).topic_count() > 0);
        // Recovery returns the slot to the pool; the next fresh VM reuses
        // it lowest-first with a *fresh* capacity, not the stale one.
        assert!(ledger.recover_slot(0));
        assert!(!ledger.recover_slot(0), "already recovered");
        assert!(!ledger.recover_slot(9), "never failed");
        assert_eq!(ledger.failed_slot_count(), 0);
        // 10 new pairs: 8 fill slot 2's remaining headroom (co-host pass),
        // the spill opens a fresh VM — which must reuse recovered slot 0.
        let more = (10..20).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &more, Bandwidth::new(64));
        ledger.splice();
        let slots = ledger.snapshot_slots();
        assert_eq!(
            slots.state(0),
            SlotState::Live,
            "slot 0 reused after recovery"
        );
        assert_eq!(
            slots.capacity(0),
            Bandwidth::new(64),
            "capacity rewritten on reuse"
        );
        let a = ledger.to_allocation(cap);
        assert!(a.validate(&w, Rate::ZERO).is_ok());
        ledger.assert_consistent();
    }

    #[test]
    fn failed_slots_round_trip_through_slot_snapshots() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(&[&[(0, &[0])], &[(0, &[1, 2, 3, 4])]], &w, cap);
        ledger.fail_slots(&[0]);
        ledger.splice();
        let mut restored = FleetLedger::from_slots(ledger.snapshot_slots());
        assert_eq!(restored.failed_slot_count(), 1);
        assert_eq!(restored.to_allocation(cap), ledger.to_allocation(cap));
        // The quarantine survives the round trip: both ledgers open a
        // fresh slot rather than reusing slot 0.
        let subs = (5..9).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &subs, cap);
        restored.place_group(t(0), Rate::new(10), &subs, cap);
        ledger.splice();
        restored.splice();
        assert_eq!(restored.snapshot_slots(), ledger.snapshot_slots());
        assert_eq!(ledger.snapshot_slots().state(0), SlotState::Failed);
    }

    #[test]
    fn hosted_by_subscriber_transposes_placement() {
        let w = workload(&[10, 5, 2]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(
            &[&[(0, &[0, 1]), (2, &[1, 3])], &[(1, &[0]), (2, &[0])]],
            &w,
            cap,
        );
        let (offsets, topics) = ledger.hosted_by_subscriber(3);
        assert_eq!(offsets, [0, 3, 5, 5], "v(3) is past the range");
        assert_eq!(topics, [t(0), t(1), t(2), t(0), t(2)], "slot order");
        ledger.remove_pair(t(0), v(0), Rate::new(10));
        ledger.fail_slots(&[0]);
        ledger.splice();
        let (offsets, topics) = ledger.hosted_by_subscriber(2);
        assert_eq!(offsets, [0, 2, 2], "failed slots host nothing");
        assert_eq!(topics, [t(1), t(2)]);
    }

    #[test]
    fn typed_fresh_vms_pick_the_cheapest_fitting_tier() {
        use crate::FleetTyping;
        use cloud_cost::instances;
        let w = workload(&[10]);
        let tiers = vec![
            (instances::C3_LARGE, Bandwidth::new(30)),
            (instances::C3_XLARGE, Bandwidth::new(100)),
        ];
        // Start from one full small VM so placement must open fresh VMs.
        let typed = fleet(&[&[(0, &[0, 1])]], &w, Bandwidth::new(100))
            .with_typing(FleetTyping::new(tiers.clone(), vec![0]));
        let mut ledger = FleetLedger::from_allocation(&typed);

        // A 6-pair group (whole = 70) only fits the big tier.
        let subs = (2..8).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &subs, Bandwidth::new(100));
        ledger.splice();
        let out = ledger.to_allocation(Bandwidth::new(100));
        out.validate(&w, Rate::ZERO).unwrap();
        assert_eq!(out.pair_count(), 2 + subs.len() as u64, "all pairs placed");
        let typing = out.typing().expect("typed ledger exports typing");
        // Fleet now holds the original small VM plus one big VM.
        assert_eq!(typing.tier_counts(), vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "spliced first")]
    fn exports_refuse_unspliced_edits() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(&[&[(0, &[0, 1])]], &w, cap);
        ledger.remove_pair(t(0), v(0), Rate::new(10));
        ledger.to_allocation(cap);
    }

    /// Every hosted pair of a spliced ledger.
    fn hosted(ledger: &FleetLedger) -> BTreeSet<(TopicId, SubscriberId)> {
        let slots = ledger.slots();
        (0..slots.len())
            .flat_map(|slot| slots.vm(slot).rows())
            .flat_map(|(t, subs)| subs.iter().map(move |&s| (t, s)))
            .collect()
    }

    #[test]
    fn random_edit_sequences_keep_the_arena_canonical() {
        // Random removals, drops, evictions, failures and placements,
        // spliced at random points, against a set of the pairs that
        // should be hosted; every splice leaves the arena canonical and
        // the index and counters equal to ones derived from it.
        const TOPICS: u32 = 12;
        const SUBS: u32 = 40;
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rates: Vec<u64> = (0..TOPICS).map(|_| rng.gen_range(1..=6)).collect();
            let mut b = Workload::builder();
            for &r in &rates {
                b.add_topic(Rate::new(r)).unwrap();
            }
            for _ in 0..SUBS {
                b.add_subscriber((0..TOPICS).map(t)).unwrap();
            }
            let w = b.build();
            let cap = Bandwidth::new(rng.gen_range(40..=120));
            let mut ledger =
                FleetLedger::from_allocation(&Allocation::from_groups(Vec::new(), &w, cap));
            ledger.ensure_topics(TOPICS as usize);
            let mut want: BTreeSet<(TopicId, SubscriberId)> = BTreeSet::new();
            for _ in 0..60 {
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        let topic = t(rng.gen_range(0..TOPICS));
                        let mut subs: Vec<SubscriberId> = (0..SUBS)
                            .map(v)
                            .filter(|&s| !want.contains(&(topic, s)) && rng.gen_bool(0.3))
                            .collect();
                        // Placements arrive in any order.
                        if rng.gen_bool(0.5) {
                            subs.reverse();
                        }
                        let rate = w.rate(topic);
                        ledger.place_group(topic, rate, &subs, cap);
                        want.extend(subs.iter().map(|&s| (topic, s)));
                    }
                    4..=6 => {
                        for _ in 0..rng.gen_range(1u32..8) {
                            let pair = (t(rng.gen_range(0..TOPICS)), v(rng.gen_range(0..SUBS)));
                            let held = want.remove(&pair);
                            let rate = w.rate(pair.0);
                            assert_eq!(ledger.remove_pair(pair.0, pair.1, rate), held);
                        }
                    }
                    7 => {
                        let topic = t(rng.gen_range(0..TOPICS));
                        ledger.drop_topic(topic, w.rate(topic));
                        want.retain(|&(tt, _)| tt != topic);
                    }
                    8 => {
                        let slots = ledger.slots.len().max(1);
                        let kill: Vec<usize> = (0..rng.gen_range(1u32..3))
                            .map(|_| rng.gen_range(0..slots + 1))
                            .collect();
                        for (tt, s) in ledger.fail_slots(&kill).orphans {
                            assert!(want.remove(&(tt, s)), "orphan ({tt}, {s}) was not hosted");
                        }
                        for slot in kill {
                            if rng.gen_bool(0.5) {
                                ledger.recover_slot(slot);
                            }
                        }
                    }
                    _ => {
                        // A capacity cut overflows VMs; evict, then restore.
                        ledger.reset_capacity(Bandwidth::new(cap.get() * 2 / 3));
                        ledger.mark_all_for_overflow();
                        let mut spill = Vec::new();
                        ledger.evict_overflowing(&w, &mut spill);
                        ledger.reset_capacity(cap);
                        for pair in spill {
                            assert!(want.remove(&pair), "evicted {pair:?} was not hosted");
                        }
                    }
                }
                if rng.gen_bool(0.3) {
                    ledger.release_empty();
                }
                if rng.gen_bool(0.4) {
                    ledger.splice();
                    ledger.assert_consistent();
                    assert_eq!(hosted(&ledger), want, "seed {seed}");
                    ledger
                        .to_allocation(cap)
                        .validate(&w, Rate::ZERO)
                        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                }
            }
            ledger.splice();
            ledger.assert_consistent();
            assert_eq!(hosted(&ledger), want, "seed {seed}");
        }
    }

    #[test]
    fn random_epochs_keep_the_ledger_valid_indexed_and_restorable() {
        // Churn, re-rates that overflow VMs, VM failures with budgeted
        // repair, recoveries and compaction, driven through the
        // re-allocator. After every epoch the exported fleet validates,
        // the host index equals one derived from the arena, and a ledger
        // restored from a snapshot takes the next epoch exactly as the
        // live one does.
        let cost = LinearCostModel::new(Money::from_dollars(1), Money::from_micros(1));
        let tau = Rate::new(25);
        let (mut evicted, mut failed, mut compacted) = (0, 0, 0);
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = Workload::builder();
            let topics: Vec<TopicId> = (0..30)
                .map(|_| b.add_topic(Rate::new(rng.gen_range(1..=12))).unwrap())
                .collect();
            for _ in 0..160 {
                let picks = (0..rng.gen_range(1u32..=5)).map(|_| topics[rng.gen_range(0usize..30)]);
                let mut row: Vec<TopicId> = picks.collect();
                row.sort_unstable();
                row.dedup();
                b.add_subscriber(row).unwrap();
            }
            let mut workload = b.build();
            let capacity = Bandwidth::new(240);
            let drift = DriftModel {
                rate_sigma: 0.25,
                churn_prob: 0.2,
                seed,
            };
            let mut inc = IncrementalReallocator::default();
            let mut delta = WorkloadDelta::default();
            // The rates the remembered selection was made at; `None` after
            // a failed epoch, whose successor re-bases from scratch.
            let mut rates: Option<Vec<Rate>> = None;
            for epoch in 0..14u64 {
                let inst = McssInstance::new(workload.clone(), tau, capacity).unwrap();
                let restored = inc
                    .checkpoint()
                    .zip(rates.take())
                    .map(|(checkpoint, rates)| {
                        let (selection, ledger, capacity) = checkpoint;
                        let mut restored = IncrementalReallocator::default();
                        restored.restore(
                            selection.clone(),
                            FleetLedger::from_slots(ledger.snapshot_slots()),
                            capacity,
                            rates,
                            tau,
                        );
                        restored
                    });
                let Ok(out) = inc.step_with_delta(&inst, &cost, &delta) else {
                    // A topic re-rated past what a VM hosts: the epoch
                    // fails and keeps the state.
                    (workload, delta) = drift.evolve_tracked(&workload, epoch);
                    continue;
                };
                rates = Some(workload.rates().to_vec());
                evicted += out.pairs_evicted;
                if let Some(mut restored) = restored {
                    let again = restored.step_with_delta(&inst, &cost, &delta).unwrap();
                    assert_eq!(
                        again.allocation, out.allocation,
                        "seed {seed}, epoch {epoch}"
                    );
                    assert_eq!(again.selection, out.selection);
                    assert_eq!(again.pairs_placed, out.pairs_placed);
                    assert_eq!(again.pairs_evicted, out.pairs_evicted);
                }
                let (_, ledger, _) = inc.checkpoint().unwrap();
                ledger.assert_consistent();
                out.allocation
                    .validate(
                        &workload,
                        if inc.pending_repair_pairs() == 0 {
                            tau
                        } else {
                            Rate::ZERO
                        },
                    )
                    .unwrap_or_else(|e| panic!("seed {seed}, epoch {epoch}: {e}"));

                // Fleet operations between epochs.
                let vms = ledger.slots().len();
                if rng.gen_bool(0.3) && vms > 0 {
                    let kill: Vec<usize> = (0..rng.gen_range(1u32..=2))
                        .map(|_| rng.gen_range(0..vms + 1))
                        .collect();
                    let budget = SlaBudget::pairs(rng.gen_range(5..60));
                    let report = inc.repair_failures(&inst, &kill, budget).unwrap();
                    failed += report.vms_failed;
                    let limit = if report.drained { tau } else { Rate::ZERO };
                    report.allocation.validate(&workload, limit).unwrap();
                    inc.checkpoint().unwrap().1.assert_consistent();
                    if rng.gen_bool(0.5) {
                        for slot in kill {
                            inc.recover_slot(slot);
                        }
                    }
                }
                if rng.gen_bool(0.25) {
                    if let Some(report) = inc.compact(&inst, &cost, SearchBudget::steps(40)) {
                        compacted += 1;
                        let (_, ledger, capacity) = inc.checkpoint().unwrap();
                        ledger.assert_consistent();
                        ledger
                            .to_allocation(capacity)
                            .validate(&workload, tau)
                            .unwrap();
                        assert!(report.steps <= 40);
                    }
                }
                (workload, delta) = drift.evolve_tracked(&workload, epoch);
            }
        }
        assert!(evicted > 0, "the re-rates must overflow a VM");
        assert!(failed > 0, "the drill must fail a VM");
        assert!(compacted > 0, "a compaction must run");
    }
}
