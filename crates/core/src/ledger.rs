//! Incrementally-maintained fleet state for the churn path.
//!
//! The epoch-repair loop of [`crate::incremental`] used to keep the fleet
//! as `Vec<HashMap<TopicId, Vec<SubscriberId>>>` and pay full-fleet scans
//! every epoch: usage recomputes per VM, `retain`-based pair removal, and
//! linear sweeps to find eviction victims and placement targets. The
//! [`FleetLedger`] replaces that with flat state whose maintenance cost
//! scales with the *migration delta*:
//!
//! * per-VM `(topic, subscribers)` rows sorted by topic id (binary-search
//!   host lookup) with subscriber lists kept sorted (binary-search pair
//!   removal);
//! * per-VM used-bandwidth counters, adjusted pair-by-pair and re-based
//!   only for topics whose rate actually changed;
//! * a topic → hosting-VMs reverse index, so rate refreshes, removals and
//!   co-host placement touch only the VMs that host the topic;
//! * "most-free VM" placement by an exact scan of the slots' headroom:
//!   the fleet is tens of slots, so the scan costs less than keeping an
//!   index in step with every usage change, and it holds no history;
//! * tombstoned VM slots: released VMs keep their index (the reverse
//!   index stays valid) and are reused lowest-first by new VMs.
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

use crate::{Allocation, FleetTyping};
use cloud_cost::InstanceType;
use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One VM's placement rows: `(topic, subscribers)` sorted by topic id,
/// subscribers sorted by id.
type VmRows = Vec<(TopicId, Vec<SubscriberId>)>;

/// Primary state of one VM slot, owned: exported by
/// [`FleetLedger::snapshot_slots`] and consumed by
/// [`FleetLedger::from_slots`]. Everything else the ledger keeps — the
/// topic reverse index, the slot-reuse heap, the usage aggregates — is
/// derived from these fields on restore, and the rebuilt derived state
/// is behaviourally identical to the incrementally-maintained one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerSlot {
    /// Whether the slot is tombstoned (released, awaiting reuse by a
    /// fresh VM). Tombstones must round-trip: slot indices affect the
    /// order future VMs are opened in.
    pub tombstone: bool,
    /// Whether the slot is quarantined after a VM failure
    /// ([`FleetLedger::fail_slots`]): tombstoned but *not* reusable
    /// until [`FleetLedger::recover_slot`] lifts the quarantine. Implies
    /// `tombstone`.
    pub failed: bool,
    /// The slot's capacity.
    pub cap: Bandwidth,
    /// Recorded bandwidth usage (Eq. 2 under current rates).
    pub used: Bandwidth,
    /// `(topic, subscribers)` rows, topics ascending, subscribers sorted.
    pub rows: Vec<(TopicId, Vec<SubscriberId>)>,
}

impl LedgerSlot {
    /// This slot by reference, as a snapshot encodes it.
    pub fn view(&self) -> SlotView<'_> {
        SlotView {
            tombstone: self.tombstone,
            failed: self.failed,
            cap: self.cap,
            used: self.used,
            rows: &self.rows,
        }
    }
}

/// Primary state of one VM slot by reference — what a snapshot encodes.
/// A live ledger lends one per slot ([`FleetLedger::slot_views`]) and an
/// owned [`LedgerSlot`] lends its own ([`LedgerSlot::view`]), so a
/// snapshot is encoded from either without copying a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotView<'a> {
    /// Whether the slot is tombstoned (see [`LedgerSlot::tombstone`]).
    pub tombstone: bool,
    /// Whether the slot is quarantined (see [`LedgerSlot::failed`]).
    pub failed: bool,
    /// The slot's capacity.
    pub cap: Bandwidth,
    /// Recorded bandwidth usage.
    pub used: Bandwidth,
    /// `(topic, subscribers)` rows, topics ascending, subscribers sorted.
    pub rows: &'a [(TopicId, Vec<SubscriberId>)],
}

/// Outcome of [`FleetLedger::fail_slots`]: the topic groups orphaned by
/// the dead VMs, plus an exact account of which indices were acted on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailedSlots {
    /// Orphaned topic groups, exactly as they were hosted: one
    /// `(topic, subscribers)` row per dead row, topics may repeat across
    /// rows when a topic was hosted on several failed VMs. Subscriber
    /// lists stay sorted.
    pub orphans: Vec<(TopicId, Vec<SubscriberId>)>,
    /// Slot indices actually failed by this call (deduped, ascending).
    pub failed: Vec<usize>,
    /// Indices that named nothing to fail — out of range, or already
    /// tombstoned/failed — reported rather than silently ignored
    /// (ascending). Repeated indices collapse into one failure and are
    /// not counted here.
    pub rejected: Vec<usize>,
}

/// One topic's entry in the reverse host index. At scale nearly every
/// topic is hosted by exactly one VM (38 of 22 000 topics are multi-host
/// on the 100k-subscriber Spotify trace), so the common case is stored
/// inline in 8 bytes and only multi-host topics pay for a heap-allocated
/// slot list in the shared spill arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum TopicHosts {
    /// Not hosted anywhere.
    #[default]
    Empty,
    /// Hosted by exactly one VM slot.
    One(u32),
    /// Hosted by several VMs: index into `FleetLedger::host_spill`,
    /// whose entry is the ascending slot list.
    Spilled(u32),
}

/// Tier table and per-slot assignment for a typed (mixed-fleet) ledger.
#[derive(Clone, Debug)]
struct LedgerTyping {
    /// `(instance type, capacity)` per tier, in the packer's density
    /// order (fresh VMs scan this order for the cheapest fit).
    tiers: Vec<(InstanceType, Bandwidth)>,
    /// Tier index per slot, parallel to `rows`.
    slot_tier: Vec<u32>,
}

/// Flat, incrementally-maintained fleet state (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct FleetLedger {
    /// Placement rows per VM slot; empty rows mean the slot is empty
    /// (mid-epoch) or tombstoned (after release).
    rows: Vec<VmRows>,
    /// Recorded bandwidth per VM slot (Eq. 2 under current rates).
    used: Vec<Bandwidth>,
    /// Capacity per VM slot — the tier capacity for typed fleets, the
    /// shared `BC` otherwise.
    cap: Vec<Bandwidth>,
    /// Tombstoned slots: released, invisible to placement until reused.
    tombstone: Vec<bool>,
    /// Quarantined slots (subset of tombstones): the VM died rather than
    /// drained, so the slot must not be handed to a fresh VM until the
    /// operator recovers it ([`FleetLedger::recover_slot`]).
    failed: Vec<bool>,
    /// Topic index → VM slots hosting the topic, ascending (inline for
    /// the dominant single-host case, spilled for the rest).
    hosts: Vec<TopicHosts>,
    /// Slot lists for multi-host topics ([`TopicHosts::Spilled`] points
    /// here); freed entries are recycled via `spill_free`.
    host_spill: Vec<Vec<u32>>,
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
}

impl FleetLedger {
    /// Builds a ledger mirroring an existing allocation (used after full
    /// re-solves and [`adopt`](crate::incremental::IncrementalReallocator::adopt)).
    /// A typed allocation yields a typed ledger with per-slot tier
    /// capacities.
    pub fn from_allocation(allocation: &Allocation) -> FleetLedger {
        let mut ledger = FleetLedger {
            typing: allocation.typing().map(|typing| LedgerTyping {
                tiers: typing.tiers().to_vec(),
                slot_tier: typing.assignment().to_vec(),
            }),
            ..FleetLedger::default()
        };
        for (slot, vm) in allocation.vms().enumerate() {
            let rows: VmRows = vm.rows().map(|(t, vs)| (t, vs.to_vec())).collect();
            for &(t, _) in &rows {
                ledger.ensure_topics(t.index() + 1);
                ledger.host_insert(t, slot as u32);
            }
            let cap = allocation.vm_capacity(slot);
            ledger.rows.push(rows);
            ledger.used.push(vm.used());
            ledger.cap.push(cap);
            ledger.tombstone.push(false);
            ledger.failed.push(false);
            ledger.total_used += u128::from(vm.used().get());
            if !ledger.rows[slot].is_empty() {
                ledger.live += 1;
                ledger.live_cap += u128::from(cap.get());
            } else {
                ledger.maybe_empty.push(slot);
            }
        }
        ledger.hosts.shrink_to_fit();
        ledger
    }

    /// Lends every slot's primary state — including tombstones — in slot
    /// order, for an on-disk snapshot (see [`crate::serve`]) encoded
    /// straight from the live ledger.
    ///
    /// # Panics
    ///
    /// Panics on typed (mixed-fleet) ledgers: the serve layer that
    /// snapshots ledgers is homogeneous-only and a silent typing loss
    /// would corrupt capacities on restore.
    pub fn slot_views(&self) -> impl ExactSizeIterator<Item = SlotView<'_>> + Clone {
        assert!(self.typing.is_none(), "typed ledgers cannot be snapshotted");
        (0..self.rows.len()).map(|slot| SlotView {
            tombstone: self.tombstone[slot],
            failed: self.failed[slot],
            cap: self.cap[slot],
            used: self.used[slot],
            rows: &self.rows[slot],
        })
    }

    /// Copies every slot's primary state out of the ledger
    /// ([`FleetLedger::slot_views`], owned). The inverse,
    /// [`FleetLedger::from_slots`], rebuilds a ledger whose future
    /// behaviour is bit-identical to this one's.
    ///
    /// # Panics
    ///
    /// As [`FleetLedger::slot_views`].
    pub fn snapshot_slots(&self) -> Vec<LedgerSlot> {
        self.slot_views()
            .map(|slot| LedgerSlot {
                tombstone: slot.tombstone,
                failed: slot.failed,
                cap: slot.cap,
                used: slot.used,
                rows: slot.rows.to_vec(),
            })
            .collect()
    }

    /// Rebuilds an (untyped) ledger from snapshotted slot state: the
    /// reverse index, the slot-reuse heap and the aggregate counters are
    /// reconstructed from the rows. Restoring
    /// [`FleetLedger::snapshot_slots`] output yields a ledger whose every
    /// future operation takes the same decisions as the original.
    pub fn from_slots(slots: Vec<LedgerSlot>) -> FleetLedger {
        let mut ledger = FleetLedger::default();
        for (slot, s) in slots.into_iter().enumerate() {
            for &(t, _) in &s.rows {
                ledger.ensure_topics(t.index() + 1);
                ledger.host_insert(t, slot as u32);
            }
            ledger.rows.push(s.rows);
            ledger.used.push(s.used);
            ledger.cap.push(s.cap);
            // A failed slot is a quarantined tombstone; tolerate inputs
            // that set `failed` without `tombstone`.
            ledger.tombstone.push(s.tombstone || s.failed);
            ledger.failed.push(s.failed);
            if s.failed {
                // Quarantined: not reusable, so not in free_slots.
            } else if s.tombstone {
                ledger.free_slots.push(Reverse(slot));
            } else {
                ledger.total_used += u128::from(s.used.get());
                if ledger.rows[slot].is_empty() {
                    ledger.maybe_empty.push(slot);
                } else {
                    ledger.live += 1;
                    ledger.live_cap += u128::from(s.cap.get());
                }
            }
        }
        ledger.hosts.shrink_to_fit();
        ledger
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

    /// Allocated heap bytes across every slot's rows, indexes, and work
    /// queues (capacities, not lengths) — one input to the
    /// [`MemoryFootprint`](crate::MemoryFootprint) report.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let mut total = bytes(&self.rows)
            + bytes(&self.used)
            + bytes(&self.cap)
            + bytes(&self.tombstone)
            + bytes(&self.failed)
            + bytes(&self.hosts)
            + bytes(&self.maybe_empty)
            + bytes(&self.overflow_candidates)
            + self.free_slots.capacity() * std::mem::size_of::<Reverse<usize>>();
        for vm in &self.rows {
            total += bytes(vm);
            for (_, subs) in vm {
                total += bytes(subs);
            }
        }
        total += bytes(&self.host_spill) + bytes(&self.spill_free);
        for spill in &self.host_spill {
            total += bytes(spill);
        }
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

    /// Capacity of slot `slot` — its tier capacity (typed) or the shared
    /// capacity recorded at creation.
    #[inline]
    fn slot_cap(&self, slot: usize) -> Bandwidth {
        self.cap[slot]
    }

    /// Free headroom of slot `slot`.
    #[inline]
    fn slot_free(&self, slot: usize) -> Bandwidth {
        self.cap[slot].saturating_sub(self.used[slot])
    }

    /// Rewrites every slot's capacity to `capacity` — the untyped
    /// ledger's response to a changed `BC` between epochs (`O(fleet)`,
    /// but only on an actual capacity change). Typed ledgers keep their
    /// tier capacities; calling this on one is a logic error.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is typed.
    pub fn reset_capacity(&mut self, capacity: Bandwidth) {
        assert!(
            self.typing.is_none(),
            "typed fleets derive capacities from their tiers"
        );
        self.live_cap = 0;
        for slot in 0..self.rows.len() {
            self.cap[slot] = capacity;
            if !self.tombstone[slot] && !self.rows[slot].is_empty() {
                self.live_cap += u128::from(capacity.get());
            }
        }
    }

    /// Snapshots the live VMs as an [`Allocation`], in slot order. The
    /// ledger's rows are already sorted and its used counters exact, so
    /// the export writes them straight into the arena — no re-sort, no
    /// bandwidth recompute. Typed ledgers re-attach their
    /// [`FleetTyping`](crate::FleetTyping).
    pub fn to_allocation(&self, capacity: Bandwidth) -> Allocation {
        let live_slots: Vec<usize> = (0..self.rows.len())
            .filter(|&slot| !self.rows[slot].is_empty())
            .collect();
        let mut allocation = Allocation::with_room(capacity, live_slots.len(), 0, 0);
        for &slot in &live_slots {
            debug_assert!(self.rows[slot].windows(2).all(|w| w[0].0 < w[1].0));
            for (topic, subscribers) in &self.rows[slot] {
                debug_assert!(subscribers.windows(2).all(|w| w[0] < w[1]));
                allocation.push_row(*topic, subscribers);
            }
            allocation.close_vm(self.used[slot]);
        }
        match &self.typing {
            Some(typing) => allocation.with_typing(FleetTyping::new(
                typing.tiers.clone(),
                live_slots
                    .iter()
                    .map(|&slot| typing.slot_tier[slot])
                    .collect(),
            )),
            None => allocation,
        }
    }

    /// Grows the reverse index to cover `num_topics` topics.
    pub fn ensure_topics(&mut self, num_topics: usize) {
        if self.hosts.len() < num_topics {
            self.hosts.resize_with(num_topics, TopicHosts::default);
        }
    }

    /// Number of VMs hosting topic `t` (0 beyond the indexed range).
    #[inline]
    fn host_count(&self, t: TopicId) -> usize {
        match self.hosts.get(t.index()) {
            None | Some(TopicHosts::Empty) => 0,
            Some(TopicHosts::One(_)) => 1,
            Some(TopicHosts::Spilled(i)) => self.host_spill[*i as usize].len(),
        }
    }

    /// The `hi`-th hosting slot of topic `t`, slots ascending.
    #[inline]
    fn host_at(&self, t: TopicId, hi: usize) -> usize {
        match self.hosts[t.index()] {
            TopicHosts::Empty => unreachable!("host_at past host_count"),
            TopicHosts::One(slot) => {
                debug_assert_eq!(hi, 0);
                slot as usize
            }
            TopicHosts::Spilled(i) => self.host_spill[i as usize][hi] as usize,
        }
    }

    /// Records `slot` as a host of topic `t`, keeping the list ascending.
    /// Callers guarantee the slot is not already present.
    fn host_insert(&mut self, t: TopicId, slot: u32) {
        let entry = &mut self.hosts[t.index()];
        match *entry {
            TopicHosts::Empty => *entry = TopicHosts::One(slot),
            TopicHosts::One(prev) => {
                debug_assert_ne!(prev, slot, "host_insert of a present slot");
                let list = match self.spill_free.pop() {
                    Some(i) => i,
                    None => {
                        self.host_spill.push(Vec::new());
                        (self.host_spill.len() - 1) as u32
                    }
                };
                let spill = &mut self.host_spill[list as usize];
                spill.push(prev.min(slot));
                spill.push(prev.max(slot));
                *entry = TopicHosts::Spilled(list);
            }
            TopicHosts::Spilled(i) => {
                let spill = &mut self.host_spill[i as usize];
                let at = spill.binary_search(&slot).unwrap_or_else(|at| at);
                spill.insert(at, slot);
            }
        }
    }

    /// Forgets `slot` as a host of topic `t` (no-op when absent). A spill
    /// list that shrinks to one slot collapses back inline and its arena
    /// entry is recycled.
    fn host_remove(&mut self, t: TopicId, slot: u32) {
        let entry = &mut self.hosts[t.index()];
        match *entry {
            TopicHosts::Empty => {}
            TopicHosts::One(s) => {
                if s == slot {
                    *entry = TopicHosts::Empty;
                }
            }
            TopicHosts::Spilled(i) => {
                let spill = &mut self.host_spill[i as usize];
                if let Ok(at) = spill.binary_search(&slot) {
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
    /// changed from `old_rate` to `new_rate` — `O(hosts of t)`.
    pub fn refresh_rate(&mut self, t: TopicId, old_rate: Rate, new_rate: Rate) {
        if old_rate == new_rate || t.index() >= self.hosts.len() {
            return;
        }
        for hi in 0..self.host_count(t) {
            let slot = self.host_at(t, hi);
            let pairs = match self.rows[slot].binary_search_by_key(&t, |&(tt, _)| tt) {
                Ok(pos) => self.rows[slot][pos].1.len() as u64,
                Err(_) => continue, // stale index entry
            };
            let old_contrib = old_rate * (pairs + 1);
            let new_contrib = new_rate * (pairs + 1);
            let before = self.used[slot];
            let after = before.saturating_sub(old_contrib) + new_contrib;
            self.used[slot] = after;
            self.total_used =
                self.total_used - u128::from(old_contrib.get()) + u128::from(new_contrib.get());
            if new_rate > old_rate {
                self.overflow_candidates.push(slot);
            }
        }
    }

    /// Drops every group of topic `t` (the topic left the workload),
    /// charging usage at `old_rate`. Later [`FleetLedger::remove_pair`]
    /// calls for its pairs become no-ops.
    pub fn drop_topic(&mut self, t: TopicId, old_rate: Rate) {
        if t.index() >= self.hosts.len() {
            return;
        }
        for hi in 0..self.host_count(t) {
            let slot = self.host_at(t, hi);
            if let Ok(pos) = self.rows[slot].binary_search_by_key(&t, |&(tt, _)| tt) {
                let (_, subs) = self.rows[slot].remove(pos);
                let contrib = old_rate * (subs.len() as u64 + 1);
                self.used[slot] = self.used[slot].saturating_sub(contrib);
                self.total_used -= u128::from(contrib.get());
                if self.rows[slot].is_empty() {
                    self.mark_emptied(slot);
                }
            }
        }
        self.host_clear(t);
    }

    /// Removes the pair `(t, v)` if the ledger holds it, updating usage at
    /// the topic's current `rate`. `O(hosts of t · log)` — the reverse
    /// index names the candidate VMs, binary search finds the subscriber.
    pub fn remove_pair(&mut self, t: TopicId, v: SubscriberId, rate: Rate) -> bool {
        if t.index() >= self.hosts.len() {
            return false;
        }
        let mut found: Option<(usize, usize)> = None;
        for hi in 0..self.host_count(t) {
            let slot = self.host_at(t, hi);
            if let Ok(pos) = self.rows[slot].binary_search_by_key(&t, |&(tt, _)| tt) {
                if self.rows[slot][pos].1.binary_search(&v).is_ok() {
                    found = Some((slot, pos));
                    break;
                }
            }
        }
        let Some((slot, pos)) = found else {
            return false;
        };
        let subs = &mut self.rows[slot][pos].1;
        let at = subs.binary_search(&v).expect("membership just checked");
        subs.remove(at);
        let mut freed = rate.volume(); // the outgoing stream
        if subs.is_empty() {
            // Last pair: the incoming stream goes too.
            self.rows[slot].remove(pos);
            self.host_remove(t, slot as u32);
            freed += rate.volume();
            if self.rows[slot].is_empty() {
                self.mark_emptied(slot);
            }
        }
        self.used[slot] = self.used[slot].saturating_sub(freed);
        self.total_used -= u128::from(freed.get());
        true
    }

    /// Bookkeeping for a slot whose last row just left: it stops counting
    /// toward `live`/`live_cap` and queues for the next release sweep.
    fn mark_emptied(&mut self, slot: usize) {
        self.live -= 1;
        self.live_cap -= u128::from(self.cap[slot].get());
        self.maybe_empty.push(slot);
    }

    /// Bookkeeping for a slot that just went live (first row placed).
    fn mark_live(&mut self, slot: usize) {
        self.live += 1;
        self.live_cap += u128::from(self.cap[slot].get());
    }

    /// Queues every live VM for the next overflow check (used when the
    /// capacity constraint itself changed between epochs).
    pub fn mark_all_for_overflow(&mut self) {
        for slot in 0..self.rows.len() {
            if !self.tombstone[slot] && !self.rows[slot].is_empty() {
                self.overflow_candidates.push(slot);
            }
        }
    }

    /// Sheds load from every queued VM whose usage exceeds its own slot
    /// capacity: whole topic groups are evicted cheapest-first (cost
    /// `ev_t · (|group| + 1)`, ties to the lowest topic id) and appended
    /// to `spill` for re-placement. Returns the number of evicted pairs.
    pub fn evict_overflowing(
        &mut self,
        workload: &Workload,
        spill: &mut Vec<(TopicId, SubscriberId)>,
    ) -> u64 {
        let mut evicted = 0u64;
        let candidates = std::mem::take(&mut self.overflow_candidates);
        for slot in candidates {
            let capacity = self.slot_cap(slot);
            if self.tombstone[slot] || self.used[slot] <= capacity {
                continue;
            }
            // Group costs do not change while evicting siblings, so one
            // ascending sort stands in for the eviction min-heap.
            let mut order: Vec<(Bandwidth, TopicId)> = self.rows[slot]
                .iter()
                .map(|(t, subs)| (workload.rate(*t) * (subs.len() as u64 + 1), *t))
                .collect();
            order.sort_unstable();
            for (cost, t) in order {
                if self.used[slot] <= capacity {
                    break;
                }
                let pos = self.rows[slot]
                    .binary_search_by_key(&t, |&(tt, _)| tt)
                    .expect("group present while over capacity");
                let (_, subs) = self.rows[slot].remove(pos);
                self.host_remove(t, slot as u32);
                self.used[slot] = self.used[slot].saturating_sub(cost);
                self.total_used -= u128::from(cost.get());
                evicted += subs.len() as u64;
                spill.extend(subs.into_iter().map(|v| (t, v)));
            }
            if self.rows[slot].is_empty() {
                self.mark_emptied(slot);
            }
        }
        evicted
    }

    /// Places one topic group from a subscriber slice: VMs already hosting the
    /// topic first (marginal cost `ev` per pair), then most-free VMs
    /// (`(k+1)·ev`), then fresh VMs (tombstoned slots are
    /// reused lowest-first). `capacity` sizes fresh VMs on untyped
    /// fleets; typed fleets pick the cheapest-density tier that holds
    /// the remaining group whole (the largest tier when none does). The
    /// caller must have checked `rate.pair_cost()` against the fleet's
    /// largest capacity.
    pub fn place_group(
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
        for hi in 0..self.host_count(t) {
            if subs.is_empty() {
                break;
            }
            let slot = self.host_at(t, hi);
            let free = self.slot_free(slot);
            let take = (free.div_rate(rate) as usize).min(subs.len());
            if take == 0 {
                continue;
            }
            let pos = self.rows[slot]
                .binary_search_by_key(&t, |&(tt, _)| tt)
                .expect("reverse index names a host");
            let row = &mut self.rows[slot][pos].1;
            let (head, rest) = subs.split_at(take);
            subs = rest;
            for &v in head {
                let at = row.binary_search(&v).unwrap_or_else(|at| at);
                row.insert(at, v);
            }
            let added = rate * take as u64;
            self.used[slot] += added;
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
            let (pos, hosted) = match self.rows[slot].binary_search_by_key(&t, |&(tt, _)| tt) {
                Ok(pos) => (pos, true),
                Err(pos) => (pos, false),
            };
            if !hosted {
                self.rows[slot].insert(pos, (t, Vec::new()));
                self.host_insert(t, slot as u32);
            }
            let was_empty = self.rows[slot].len() == 1 && self.rows[slot][0].1.is_empty();
            let row = &mut self.rows[slot][pos].1;
            let (head, rest) = subs.split_at(take);
            subs = rest;
            for &v in head {
                let at = row.binary_search(&v).unwrap_or_else(|at| at);
                row.insert(at, v);
            }
            if was_empty {
                self.mark_live(slot);
            }
            let added = rate * (take as u64 + if hosted { 0 } else { 1 });
            self.used[slot] += added;
            self.total_used += u128::from(added.get());
        }

        // Pass 3: fresh VMs.
        while !subs.is_empty() {
            let vm_cap = self.fresh_vm_capacity(rate, subs.len(), capacity);
            let take = ((vm_cap.div_rate(rate) - 1) as usize).min(subs.len());
            let (head, rest) = subs.split_at(take);
            subs = rest;
            let mut moved: Vec<SubscriberId> = head.to_vec();
            moved.sort_unstable();
            let used = rate * (take as u64 + 1);
            let slot = match self.free_slots.pop() {
                Some(Reverse(slot)) => {
                    debug_assert!(!self.failed[slot], "failed slots never enter free_slots");
                    self.tombstone[slot] = false;
                    self.rows[slot] = vec![(t, moved)];
                    self.used[slot] = used;
                    self.cap[slot] = vm_cap;
                    slot
                }
                None => {
                    self.rows.push(vec![(t, moved)]);
                    self.used.push(used);
                    self.cap.push(vm_cap);
                    self.tombstone.push(false);
                    self.failed.push(false);
                    self.rows.len() - 1
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
            self.host_insert(t, slot as u32);
            self.total_used += u128::from(used.get());
            self.mark_live(slot);
        }
    }

    /// The non-tombstoned slot with the most free headroom, ties to the
    /// higher slot. A scan, `O(slots)`: pass 2 of
    /// [`FleetLedger::place_group`] runs at most a few hundred times per
    /// epoch on fleets of tens of slots.
    fn most_free_slot(&self) -> Option<usize> {
        (0..self.rows.len())
            .filter(|&slot| !self.tombstone[slot])
            .max_by_key(|&slot| (self.slot_free(slot), slot))
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
    pub fn release_empty(&mut self) -> usize {
        let mut released = 0usize;
        let pending = std::mem::take(&mut self.maybe_empty);
        for slot in pending {
            if !self.tombstone[slot] && self.rows[slot].is_empty() {
                self.tombstone[slot] = true;
                self.free_slots.push(Reverse(slot));
                released += 1;
            }
        }
        released
    }

    /// Recomputes every live VM's used counter from its rows under the
    /// current rates — the `O(fleet)` fallback for resyncing after
    /// [`adopt`](crate::incremental::IncrementalReallocator::adopt), where
    /// no previous-epoch rates exist to delta against. Topics at or above
    /// the workload's topic count must have been dropped first.
    pub fn recompute_used(&mut self, workload: &Workload) {
        self.total_used = 0;
        for slot in 0..self.rows.len() {
            if self.tombstone[slot] {
                continue;
            }
            let mut used = Bandwidth::ZERO;
            for (t, subs) in &self.rows[slot] {
                used += workload.rate(*t) * (subs.len() as u64 + 1);
            }
            self.used[slot] = used;
            self.total_used += u128::from(used.get());
        }
    }

    /// Drops every group whose topic index is `>= num_topics` (the
    /// workload shrank), charging usage at the rates recorded in `used` —
    /// callers pass the previous epoch's rate via
    /// [`FleetLedger::drop_topic`]; this sweep exists for the adopt path
    /// where [`FleetLedger::recompute_used`] follows anyway.
    pub fn drop_topics_at_or_above(&mut self, num_topics: usize) {
        for ti in num_topics..self.hosts.len() {
            let t = TopicId::new(ti as u32);
            for hi in 0..self.host_count(t) {
                let slot = self.host_at(t, hi);
                if let Ok(pos) = self.rows[slot].binary_search_by_key(&t, |&(tt, _)| tt) {
                    self.rows[slot].remove(pos);
                    if self.rows[slot].is_empty() {
                        self.mark_emptied(slot);
                    }
                }
            }
            self.host_clear(t);
        }
    }

    /// Fails a set of VM slots in place: every row they hosted is
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
    pub fn fail_slots(&mut self, slots: &[usize]) -> FailedSlots {
        let mut wanted: Vec<usize> = slots.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let mut out = FailedSlots::default();
        for slot in wanted {
            if slot >= self.rows.len() || self.tombstone[slot] {
                out.rejected.push(slot);
                continue;
            }
            let rows = std::mem::take(&mut self.rows[slot]);
            let was_live = !rows.is_empty();
            for (t, subs) in rows {
                self.host_remove(t, slot as u32);
                out.orphans.push((t, subs));
            }
            self.total_used -= u128::from(self.used[slot].get());
            self.used[slot] = Bandwidth::ZERO;
            if was_live {
                // Empty slots already left live/live_cap via mark_emptied.
                self.live -= 1;
                self.live_cap -= u128::from(self.cap[slot].get());
            }
            self.tombstone[slot] = true;
            self.failed[slot] = true;
            out.failed.push(slot);
        }
        out
    }

    /// Lifts the quarantine on a failed slot, returning it to the
    /// lowest-first reuse pool (the machine was replaced or came back).
    /// Returns `false` — and does nothing — for indices that are not
    /// currently quarantined.
    pub fn recover_slot(&mut self, slot: usize) -> bool {
        if slot >= self.rows.len() || !self.failed[slot] {
            return false;
        }
        self.failed[slot] = false;
        self.free_slots.push(Reverse(slot));
        true
    }

    /// Number of slots currently quarantined by [`FleetLedger::fail_slots`].
    pub fn failed_slot_count(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }

    /// The hosted pairs transposed to one CSR row per subscriber:
    /// `offsets[v]..offsets[v + 1]` delimits the topics hosted for `v`
    /// in `topics`, in slot order (a topic repeats if several slots host
    /// the pair). A counting sort builds it in two sequential sweeps of
    /// the slot rows. Subscribers at or past `num_subscribers` are left
    /// out.
    pub(crate) fn hosted_by_subscriber(&self, num_subscribers: usize) -> (Vec<u32>, Vec<TopicId>) {
        let mut offsets = vec![0u32; num_subscribers + 1];
        for (_, subs) in self.rows.iter().flatten() {
            for v in subs {
                if v.index() < num_subscribers {
                    offsets[v.index() + 1] += 1;
                }
            }
        }
        for vi in 0..num_subscribers {
            offsets[vi + 1] += offsets[vi];
        }
        let mut next = offsets.clone();
        let mut topics = vec![TopicId::new(0); offsets[num_subscribers] as usize];
        for (t, subs) in self.rows.iter().flatten() {
            for v in subs {
                if v.index() < num_subscribers {
                    let at = &mut next[v.index()];
                    topics[*at as usize] = *t;
                    *at += 1;
                }
            }
        }
        (offsets, topics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_model::Workload;

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

    fn ledger_with(groups: Vec<VmRows>, w: &Workload, capacity: Bandwidth) -> FleetLedger {
        FleetLedger::from_allocation(&Allocation::from_groups(groups, w, capacity))
    }

    #[test]
    fn from_allocation_round_trips() {
        let w = workload(&[10, 5]);
        let cap = Bandwidth::new(100);
        let groups = vec![
            vec![(t(0), vec![v(0), v(1)]), (t(1), vec![v(2)])],
            vec![(t(1), vec![v(0)])],
        ];
        let ledger = ledger_with(groups.clone(), &w, cap);
        assert_eq!(ledger.vm_count(), 2);
        assert_eq!(
            ledger.to_allocation(cap),
            Allocation::from_groups(groups, &w, cap)
        );
    }

    #[test]
    fn remove_pair_updates_usage_and_releases_empties() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(vec![vec![(t(0), vec![v(0), v(1)])]], &w, cap);
        assert!(ledger.remove_pair(t(0), v(0), Rate::new(10)));
        // 2 pairs + incoming = 30 → one pair + incoming = 20.
        assert_eq!(ledger.to_allocation(cap).total_bandwidth().get(), 20);
        assert!(ledger.remove_pair(t(0), v(1), Rate::new(10)));
        assert!(
            !ledger.remove_pair(t(0), v(1), Rate::new(10)),
            "no-op twice"
        );
        assert_eq!(ledger.release_empty(), 1);
        assert_eq!(ledger.vm_count(), 0);
        assert_eq!(ledger.to_allocation(cap).vm_count(), 0);
    }

    #[test]
    fn refresh_rate_flags_overflow_and_eviction_sheds_cheapest_group() {
        let w = workload(&[30, 4]);
        let cap = Bandwidth::new(100);
        // used = 30·(2+1) + 4·(1+1) = 98.
        let mut ledger = ledger_with(
            vec![vec![(t(0), vec![v(0), v(1)]), (t(1), vec![v(2)])]],
            &w,
            cap,
        );
        ledger.refresh_rate(t(0), Rate::new(30), Rate::new(31));
        let mut spill = Vec::new();
        let evicted = ledger.evict_overflowing(&w, &mut spill);
        // New usage 101 > 100: the cheap t1 group (cost 8) goes first.
        assert_eq!(evicted, 1);
        assert_eq!(spill, vec![(t(1), v(2))]);
    }

    #[test]
    fn place_group_prefers_cohost_then_most_free_then_fresh() {
        let w = workload(&[10, 2]);
        let cap = Bandwidth::new(64);
        // VM0 hosts t0 with room for 1 more pair; VM1 is nearly full.
        let mut ledger = ledger_with(
            vec![
                vec![(t(0), vec![v(0), v(1), v(2)])], // used 40, free 24
                vec![(t(1), vec![v(0), v(1)])],       // used 6, free 58
            ],
            &w,
            cap,
        );
        let subs = vec![v(3), v(4), v(5), v(6), v(7), v(8), v(9), v(10)];
        ledger.place_group(t(0), Rate::new(10), &subs, cap);
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
    }

    #[test]
    fn tombstoned_slots_are_reused_lowest_first() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(
            vec![
                vec![(t(0), vec![v(0)])],
                vec![(t(0), vec![v(1), v(2), v(3), v(4)])],
            ],
            &w,
            cap,
        );
        ledger.remove_pair(t(0), v(0), Rate::new(10));
        assert_eq!(ledger.release_empty(), 1);
        assert_eq!(ledger.vm_count(), 1);
        // A fresh placement must first fill the co-host, then reuse slot 0.
        let subs = (5..14).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &subs, cap);
        assert_eq!(ledger.vm_count(), 2);
        let a = ledger.to_allocation(cap);
        assert_eq!(a.vm_count(), 2);
        assert_eq!(a.pair_count(), 4 + subs.len() as u64, "all pairs placed");
    }

    #[test]
    fn host_index_spills_and_collapses_across_multi_vm_topics() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        // Topic 0 hosted by three VMs: the reverse index must spill.
        let mut ledger = ledger_with(
            vec![
                vec![(t(0), vec![v(0)])],
                vec![(t(0), vec![v(1)])],
                vec![(t(0), vec![v(2)])],
            ],
            &w,
            cap,
        );
        assert_eq!(ledger.host_count(t(0)), 3);
        assert_eq!((0..3).map(|hi| ledger.host_at(t(0), hi)).max(), Some(2));
        // Emptying two VMs collapses the spill back inline...
        assert!(ledger.remove_pair(t(0), v(0), Rate::new(10)));
        assert!(ledger.remove_pair(t(0), v(2), Rate::new(10)));
        assert_eq!(ledger.host_count(t(0)), 1);
        assert_eq!(ledger.host_at(t(0), 0), 1);
        assert_eq!(ledger.spill_free.len(), 1, "spill entry recycled");
        // ...and growing again reuses the recycled spill entry.
        let subs = (3..15).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &subs, cap);
        assert!(ledger.host_count(t(0)) > 1);
        assert!(ledger.spill_free.is_empty());
        let a = ledger.to_allocation(cap);
        assert_eq!(a.pair_count(), 1 + subs.len() as u64);
        assert!(a.validate(&w, Rate::new(0)).is_ok());
    }

    #[test]
    fn slot_snapshot_round_trips_tombstones_and_placement_behaviour() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(
            vec![
                vec![(t(0), vec![v(0)])],
                vec![(t(0), vec![v(1), v(2), v(3), v(4)])],
            ],
            &w,
            cap,
        );
        // Tombstone slot 0 so the restore has to rebuild free_slots too.
        ledger.remove_pair(t(0), v(0), Rate::new(10));
        ledger.release_empty();

        let mut restored = FleetLedger::from_slots(ledger.snapshot_slots());
        assert_eq!(restored.vm_count(), ledger.vm_count());
        assert!((restored.utilization() - ledger.utilization()).abs() < 1e-12);
        assert_eq!(restored.to_allocation(cap), ledger.to_allocation(cap));

        // Identical future behaviour: the same placement lands the same
        // way (co-host fill, then reuse of tombstoned slot 0).
        let subs = (5..14).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &subs, cap);
        restored.place_group(t(0), Rate::new(10), &subs, cap);
        assert_eq!(restored.to_allocation(cap), ledger.to_allocation(cap));
        assert_eq!(restored.snapshot_slots(), ledger.snapshot_slots());
    }

    #[test]
    fn drop_topic_clears_groups_everywhere() {
        let w = workload(&[10, 5]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(
            vec![
                vec![(t(0), vec![v(0)]), (t(1), vec![v(1)])],
                vec![(t(1), vec![v(2)])],
            ],
            &w,
            cap,
        );
        ledger.drop_topic(t(1), Rate::new(5));
        assert!(
            !ledger.remove_pair(t(1), v(1), Rate::new(5)),
            "already gone"
        );
        let a = ledger.to_allocation(cap);
        assert_eq!(a.pair_count(), 1);
        assert_eq!(ledger.release_empty(), 1);
        assert_eq!(ledger.vm_count(), 1);
    }

    #[test]
    fn utilization_tracks_live_vms_only() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(40);
        let mut ledger = ledger_with(
            vec![vec![(t(0), vec![v(0)])], vec![(t(0), vec![v(1)])]],
            &w,
            cap,
        );
        // Each VM: 20/40.
        assert!((ledger.utilization() - 0.5).abs() < 1e-9);
        ledger.remove_pair(t(0), v(1), Rate::new(10));
        ledger.release_empty();
        assert!((ledger.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reset_capacity_rescales_untyped_slots() {
        let w = workload(&[10]);
        let mut ledger = ledger_with(
            vec![vec![(t(0), vec![v(0)])], vec![(t(0), vec![v(1)])]],
            &w,
            Bandwidth::new(40),
        );
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
        let groups = vec![
            vec![(t(1), vec![v(0), v(1)])],
            vec![(t(0), vec![v(0), v(1), v(2)])],
        ];
        let typed = Allocation::from_groups(groups, &w, Bandwidth::new(64))
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
        let mut ledger = ledger_with(
            vec![
                vec![(t(0), vec![v(0), v(1)]), (t(1), vec![v(2)])],
                vec![(t(1), vec![v(3)])],
            ],
            &w,
            cap,
        );
        // Duplicates collapse, out-of-range indices are reported.
        let fail = ledger.fail_slots(&[0, 0, 7]);
        assert_eq!(fail.failed, vec![0]);
        assert_eq!(fail.rejected, vec![7]);
        assert_eq!(
            fail.orphans,
            vec![(t(0), vec![v(0), v(1)]), (t(1), vec![v(2)])]
        );
        assert_eq!(ledger.vm_count(), 1);
        assert_eq!(ledger.failed_slot_count(), 1);
        // The dead VM is gone from the export; the survivor remains.
        let a = ledger.to_allocation(cap);
        assert_eq!(a.vm_count(), 1);
        assert_eq!(a.pair_count(), 1);
        // Failing a dead slot again names nothing.
        let again = ledger.fail_slots(&[0]);
        assert!(again.failed.is_empty());
        assert_eq!(again.rejected, vec![0]);
        // Usage aggregates dropped with the slot.
        assert_eq!(a.total_bandwidth().get(), 5 * 2);
    }

    #[test]
    fn failed_slots_are_quarantined_until_recovered() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(
            vec![
                vec![(t(0), vec![v(0), v(1)])],
                vec![(t(0), vec![v(2), v(3), v(4), v(5), v(6), v(7), v(8), v(9)])],
            ],
            &w,
            cap,
        );
        let fail = ledger.fail_slots(&[0]);
        assert_eq!(fail.failed, vec![0]);
        // Re-placing the orphans must NOT resurrect the dead slot 0: the
        // co-host (slot 1, free 10) takes one pair, the rest opens a
        // fresh VM — which lands on a brand-new slot 2.
        let (topic, subs) = &fail.orphans[0];
        ledger.place_group(*topic, Rate::new(10), subs, cap);
        let slots = ledger.snapshot_slots();
        assert!(slots[0].failed && slots[0].tombstone && slots[0].rows.is_empty());
        assert_eq!(slots.len(), 3, "fresh VM opened a new slot, not slot 0");
        assert!(!slots[2].rows.is_empty());
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
        let slots = ledger.snapshot_slots();
        assert!(!slots[0].tombstone, "slot 0 reused after recovery");
        assert_eq!(
            slots[0].cap,
            Bandwidth::new(64),
            "capacity rewritten on reuse"
        );
        let a = ledger.to_allocation(cap);
        assert!(a.validate(&w, Rate::ZERO).is_ok());
    }

    #[test]
    fn failed_slots_round_trip_through_slot_snapshots() {
        let w = workload(&[10]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(
            vec![
                vec![(t(0), vec![v(0)])],
                vec![(t(0), vec![v(1), v(2), v(3), v(4)])],
            ],
            &w,
            cap,
        );
        ledger.fail_slots(&[0]);
        let mut restored = FleetLedger::from_slots(ledger.snapshot_slots());
        assert_eq!(restored.failed_slot_count(), 1);
        assert_eq!(restored.to_allocation(cap), ledger.to_allocation(cap));
        // The quarantine survives the round trip: both ledgers open a
        // fresh slot rather than reusing slot 0.
        let subs = (5..9).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &subs, cap);
        restored.place_group(t(0), Rate::new(10), &subs, cap);
        assert_eq!(restored.snapshot_slots(), ledger.snapshot_slots());
        assert!(ledger.snapshot_slots()[0].failed);
    }

    #[test]
    fn hosted_by_subscriber_transposes_placement() {
        let w = workload(&[10, 5, 2]);
        let cap = Bandwidth::new(100);
        let mut ledger = ledger_with(
            vec![
                vec![(t(0), vec![v(0), v(1)]), (t(2), vec![v(1), v(3)])],
                vec![(t(1), vec![v(0)]), (t(2), vec![v(0)])],
            ],
            &w,
            cap,
        );
        let (offsets, topics) = ledger.hosted_by_subscriber(3);
        assert_eq!(offsets, [0, 3, 5, 5], "v(3) is past the range");
        assert_eq!(topics, [t(0), t(1), t(2), t(0), t(2)], "slot order");
        ledger.remove_pair(t(0), v(0), Rate::new(10));
        ledger.fail_slots(&[0]);
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
        let typed = Allocation::from_groups(
            vec![vec![(t(0), vec![v(0), v(1)])]],
            &w,
            Bandwidth::new(100),
        )
        .with_typing(FleetTyping::new(tiers.clone(), vec![0]));
        let mut ledger = FleetLedger::from_allocation(&typed);

        // A 6-pair group (whole = 70) only fits the big tier.
        let subs = (2..8).map(v).collect::<Vec<_>>();
        ledger.place_group(t(0), Rate::new(10), &subs, Bandwidth::new(100));
        let out = ledger.to_allocation(Bandwidth::new(100));
        out.validate(&w, Rate::ZERO).unwrap();
        assert_eq!(out.pair_count(), 2 + subs.len() as u64, "all pairs placed");
        let typing = out.typing().expect("typed ledger exports typing");
        // Fleet now holds the original small VM plus one big VM.
        assert_eq!(typing.tier_counts(), vec![1, 1]);
    }
}
