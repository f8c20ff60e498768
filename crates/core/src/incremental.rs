//! Incremental re-allocation — the online algorithm the paper leaves as
//! future work (§VI), with an O(Δ) churn path.
//!
//! Re-running the full pipeline every epoch (see [`crate::dynamic`])
//! recomputes everything and may produce a completely different placement,
//! which in a real deployment means mass subscriber migration. The
//! [`IncrementalReallocator`] instead *repairs* the previous allocation,
//! and every phase of the repair scales with the epoch's churn rather
//! than the fleet:
//!
//! 1. Stage 1 re-runs `select_for_subscriber` only for *dirty*
//!    subscribers — those the caller's [`WorkloadDelta`] names as
//!    changed, or who follow a topic whose rate differs from the one the
//!    re-allocator remembers — and reuses the previous epoch's selection
//!    rows verbatim for everyone else.
//!    The result is bit-identical to a full re-selection (a clean
//!    subscriber's greedy choice depends only on its own interests, their
//!    rates, and `τ`). When at most half the rows are dirty, the
//!    re-selected rows go into a side selection that is spliced into the
//!    remembered one in place, so clean rows are not even copied. A
//!    re-selected row that names a topic no VM can host fails the epoch
//!    before the ledger or the selection changes, so the remembered
//!    state survives it;
//! 2. dirty rows are diffed old-vs-new in place ([`crate::SelectionDiff`];
//!    no clone, no sort): pairs that left the selection are removed from
//!    the [`FleetLedger`], which finds the hosting VM through its topic
//!    reverse index; pairs whose topics got louder may overflow a VM, in
//!    which case whole topic groups are evicted cheapest-first until the
//!    VM fits again;
//! 3. new and evicted pairs are placed topic-grouped — VMs already
//!    hosting the topic first (no extra incoming stream), then the
//!    most-free VM (an exact scan of the slots' headroom, so the ledger
//!    keeps no placement history), then fresh VMs;
//! 4. emptied VMs are released (their ledger slots are tombstoned and
//!    reused), and if overall utilization drops below a configurable
//!    floor the allocator falls back to a full CustomBinPacking re-solve
//!    (placement debt has accumulated).
//!
//! The outcome reports exactly how many pairs moved — and how many rows
//! dirty tracking skipped — so the operational cost of adaptation is
//! visible: the metric a re-provisioning interval would be tuned against.

use crate::dynamic::WorkloadDelta;
use crate::ledger::FleetLedger;
use crate::lower_bound::lower_bound;
use crate::stage1::{build_in_ranges, select_for_subscriber_into, GreedySelectPairs, PairSelector};
use crate::stage2::{
    improve, Allocator, CbpConfig, CustomBinPacking, ImproveReport, MixedFleetPacker, SearchBudget,
};
use crate::{
    Allocation, McssError, McssInstance, Selection, SelectionBuilder, SelectionDiff, TopicGroups,
};
use cloud_cost::{CostModel, FleetCostModel};
use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId, Workload};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Configuration for [`IncrementalReallocator`].
#[derive(Clone, Copy, Debug)]
pub struct IncrementalConfig {
    /// Utilization floor: when `Σ used / (|B| · BC)` falls below this
    /// after repair, a full re-solve replaces the repaired allocation.
    pub compaction_threshold: f64,
    /// Threads that re-select an epoch's dirty rows. The subscribers are
    /// split into this many contiguous ranges, the first on the calling
    /// thread and the rest on scoped threads. Per-subscriber greedy
    /// selection reads nothing outside the subscriber's own rows, so the
    /// selection is the same for every count. `1` (the default) spawns
    /// nothing.
    pub repair_threads: usize,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            compaction_threshold: 0.5,
            repair_threads: 1,
        }
    }
}

impl IncrementalConfig {
    /// Convenience for CLI-style thread counts: sets
    /// [`IncrementalConfig::repair_threads`], reading `0` as `1`.
    pub fn with_repair_threads(mut self, threads: usize) -> Self {
        self.repair_threads = threads.max(1);
        self
    }
}

/// One epoch's outcome.
#[derive(Clone, Debug)]
pub struct IncrementalOutcome {
    /// The repaired (or re-solved) allocation.
    pub allocation: Allocation,
    /// The Stage-1 selection this epoch serves (useful with
    /// [`IncrementalReallocator::adopt`]).
    pub selection: Selection,
    /// Pairs newly placed this epoch (selection growth plus evictions).
    pub pairs_placed: u64,
    /// Pairs removed because they left the Stage-1 selection.
    pub pairs_removed: u64,
    /// Pairs evicted from overflowing VMs and re-placed elsewhere.
    pub pairs_evicted: u64,
    /// Pairs whose selection rows were reused verbatim because dirty
    /// tracking proved their subscriber untouched this epoch.
    pub pairs_reused: u64,
    /// Whether the utilization floor forced a full re-solve.
    pub full_resolve: bool,
}

/// What one [`IncrementalReallocator::advance`] did, as counters (see
/// [`IncrementalOutcome`] for their meaning).
pub(crate) struct EpochStep {
    pub(crate) pairs_placed: u64,
    pub(crate) pairs_removed: u64,
    pub(crate) pairs_evicted: u64,
    pub(crate) pairs_reused: u64,
    pub(crate) full_resolve: bool,
    /// The packer's allocation after a full re-solve; `None` after a
    /// repair, whose fleet lives only in the ledger.
    packed: Option<Allocation>,
}

/// What one [`IncrementalReallocator::repair_round`] did, as counters
/// (see [`RepairReport`] for their meaning).
pub(crate) struct RepairRound {
    pub(crate) vms_failed: usize,
    invalid_slots: Vec<usize>,
    pairs_orphaned: u64,
    pub(crate) pairs_replaced: u64,
}

/// Per-epoch repair budget for [`IncrementalReallocator::repair_failures`]
/// — the SLA knob: how much re-placement work one repair call may do
/// before it yields and carries the remainder over to the next epoch.
///
/// The budget counts pairs, never wall-clock time, so a replayed repair
/// repeats its epochs exactly. `None` (the [`SlaBudget::UNBOUNDED`]
/// default) drains the whole orphan queue in one call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlaBudget {
    /// Maximum topic-subscriber pairs re-placed per call.
    pub max_pairs: Option<u64>,
}

impl SlaBudget {
    /// No limit: drain everything in one call.
    pub const UNBOUNDED: SlaBudget = SlaBudget { max_pairs: None };

    /// Budget of at most `max` pairs re-placed per call.
    pub fn pairs(max: u64) -> Self {
        SlaBudget {
            max_pairs: Some(max),
        }
    }
}

/// Outcome of one [`IncrementalReallocator::repair_failures`] call:
/// the (possibly still degraded) allocation plus exact accounting of
/// what the failure orphaned, what this call restored, and who is still
/// waiting.
#[derive(Clone, Debug)]
pub struct RepairReport {
    /// The fleet after this repair round — degraded (missing the
    /// deferred pairs) until [`RepairReport::drained`] is true.
    pub allocation: Allocation,
    /// Slots actually failed by this call (deduplicated).
    pub vms_failed: usize,
    /// Requested slot indices that were out of range or already dead.
    pub invalid_slots: Vec<usize>,
    /// Pairs newly orphaned by this call's failures.
    pub pairs_orphaned: u64,
    /// Pairs re-placed this call (from this call's orphans and any
    /// carry-over queue from earlier calls), `≤ budget.max_pairs`.
    pub pairs_replaced: u64,
    /// Pairs still waiting in the carry-over queue after this call.
    pub pairs_deferred: u64,
    /// Subscribers whose delivered rate is below their satisfaction
    /// target while pairs stay deferred (ascending id order).
    pub starved: Vec<SubscriberId>,
    /// Total event-rate shortfall across starved subscribers
    /// (Σ max(0, τ_v − delivered_v)).
    pub shortfall: u64,
    /// True when the carry-over queue is empty: the allocation serves
    /// the full selection again, bit-identical in satisfaction to a
    /// fresh solve.
    pub drained: bool,
    /// Wall-clock time this repair call spent.
    pub elapsed: Duration,
}

/// Epoch-to-epoch allocator that minimizes placement churn.
#[derive(Clone, Debug, Default)]
pub struct IncrementalReallocator {
    config: IncrementalConfig,
    /// When set, full re-solves pack onto a heterogeneous fleet through
    /// [`MixedFleetPacker`] and the ledger repairs per-slot (tier)
    /// capacities; instance capacities must equal
    /// [`FleetCostModel::max_capacity`].
    fleet: Option<FleetCostModel>,
    previous: Option<State>,
}

#[derive(Clone, Debug)]
struct State {
    selection: Selection,
    ledger: FleetLedger,
    capacity: Bandwidth,
    /// The rates, subscriber count and `τ` the selection was produced
    /// against — what the next epoch's delta is applied to. Absent after
    /// [`IncrementalReallocator::adopt`] (the adopted allocation carries
    /// no epoch context) and after a failed step (the caller's next delta
    /// starts from the failed epoch's workload), in which case the next
    /// step ignores its delta, treats every subscriber as dirty and
    /// resyncs the ledger's usage counters.
    basis: Option<EpochBasis>,
    /// Selected pairs orphaned by VM failures that an exhausted
    /// [`SlaBudget`] deferred — drained by later
    /// [`IncrementalReallocator::repair_failures`] calls, filtered by
    /// every step against the new selection (a pair whose subscriber
    /// dropped the topic no longer needs re-placing), cleared by full
    /// re-solves (which place the whole selection anyway).
    pending: Vec<(TopicId, SubscriberId)>,
}

#[derive(Clone, Debug)]
struct EpochBasis {
    /// The previous epoch's event rates — what the ledger's used counters
    /// are denominated in; compared with the new rates, they name the
    /// re-rated topics whose counters must be re-based.
    rates: Vec<Rate>,
    /// The previous epoch's subscriber count.
    num_subscribers: usize,
    tau: Rate,
}

impl IncrementalReallocator {
    /// Creates a re-allocator with the given configuration.
    pub fn new(config: IncrementalConfig) -> Self {
        IncrementalReallocator {
            config,
            fleet: None,
            previous: None,
        }
    }

    /// Switches the re-allocator to a heterogeneous fleet: full re-solves
    /// pack through [`MixedFleetPacker`], repairs respect each VM's own
    /// tier capacity, and fresh VMs pick the cheapest-density tier that
    /// holds their group. Epoch instances must use
    /// [`FleetCostModel::max_capacity`] as their capacity. Stage-1
    /// selections are unaffected — they stay bit-identical to the
    /// homogeneous run at the same `τ`.
    pub fn with_fleet(mut self, fleet: FleetCostModel) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Repairs the previous allocation against the instance's current
    /// workload, the one epoch step (the first call performs a full
    /// solve). `delta` names what changed since the previous step — drift
    /// sources such as
    /// [`DriftModel::evolve_tracked`](crate::dynamic::DriftModel::evolve_tracked)
    /// and the serve daemon's edit commit produce it, and callers holding
    /// only two workloads use [`WorkloadDelta::between`]. It is ignored on
    /// the first step, after [`IncrementalReallocator::adopt`] and after a
    /// failed step, which treat every subscriber as changed.
    ///
    /// The step reads the delta's subscribers; re-rated topics it finds
    /// itself by comparing the rates it remembers, O(topics). The
    /// subscriber list may over-approximate but must not miss a change: a
    /// missed interest change leaves a stale selection row.
    ///
    /// ```
    /// use cloud_cost::{LinearCostModel, Money};
    /// use mcss_core::dynamic::WorkloadDelta;
    /// use mcss_core::incremental::IncrementalReallocator;
    /// use mcss_core::McssInstance;
    /// use pubsub_model::{Bandwidth, Rate, Workload};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = Workload::builder();
    /// let t = b.add_topic(Rate::new(10))?;
    /// b.add_subscriber([t])?;
    /// // Capacity 25 keeps utilization (20/25) above the compaction
    /// // floor, so the steady-state epoch really is a no-op repair.
    /// let inst = McssInstance::new(b.build(), Rate::new(10), Bandwidth::new(25))?;
    /// let cost = LinearCostModel::vm_only(Money::from_dollars(1));
    ///
    /// let mut inc = IncrementalReallocator::default();
    /// let unchanged = WorkloadDelta::default();
    /// let first = inc.step_with_delta(&inst, &cost, &unchanged)?; // epoch 0: full solve
    /// assert!(first.full_resolve);
    /// let second = inc.step_with_delta(&inst, &cost, &unchanged)?; // nothing moves
    /// assert_eq!(second.pairs_placed + second.pairs_removed, 0);
    /// assert_eq!(second.pairs_reused, first.selection.pair_count());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`McssError::InfeasibleTopic`] if a selected topic no longer fits
    /// on any VM. The failed epoch leaves the remembered fleet and
    /// selection as they were; the next step re-selects every row, since
    /// its delta is relative to a workload the state never reached.
    pub fn step_with_delta(
        &mut self,
        instance: &McssInstance,
        cost: &dyn CostModel,
        delta: &WorkloadDelta,
    ) -> Result<IncrementalOutcome, McssError> {
        let step = self.advance(instance, cost, delta)?;
        Ok(self.outcome(step))
    }

    /// Builds a step's [`IncrementalOutcome`] from the remembered state:
    /// the packer's allocation after a full re-solve, the ledger's export
    /// after a repair.
    fn outcome(&self, step: EpochStep) -> IncrementalOutcome {
        let state = self
            .previous
            .as_ref()
            .expect("a step leaves remembered state");
        IncrementalOutcome {
            allocation: step
                .packed
                .unwrap_or_else(|| state.ledger.to_allocation(state.capacity)),
            selection: state.selection.clone(),
            pairs_placed: step.pairs_placed,
            pairs_removed: step.pairs_removed,
            pairs_evicted: step.pairs_evicted,
            pairs_reused: step.pairs_reused,
            full_resolve: step.full_resolve,
        }
    }

    /// Fails VMs and re-places their orphaned pairs within `budget`.
    ///
    /// `failed_slots` are *ledger slot* indices (equal to allocation VM
    /// indices until slots have been tombstoned and reused); call with an
    /// empty slice to keep draining the carry-over queue an exhausted
    /// budget left behind. Failed slots are quarantined — they rejoin
    /// the reuse pool only through
    /// [`IncrementalReallocator::recover_slot`]. `instance` must describe
    /// the same workload, `τ`, and capacity as the last epoch step:
    /// repair re-places pairs, it does not absorb drift (that is what
    /// [`IncrementalReallocator::step_with_delta`] is for, and steps
    /// interleave freely with repair rounds — deferred pairs survive
    /// them).
    ///
    /// Orphans are re-grouped by topic and placed in ascending topic
    /// order through the same host-first/most-free/fresh-VM machinery as
    /// epoch repair, so a fully drained repair is bit-identical in
    /// satisfaction to a fresh solve. When the budget runs out first,
    /// the returned [`RepairReport`] quantifies the degraded mode:
    /// deferred pairs, starved subscribers, and the satisfaction
    /// shortfall.
    ///
    /// # Panics
    ///
    /// If no epoch has been stepped yet — there is no fleet to repair.
    ///
    /// # Errors
    ///
    /// [`McssError::InfeasibleTopic`] if an orphaned topic fits on no VM
    /// (only possible when `instance` disagrees with the last step's).
    /// Nothing is placed in that case and the queue is preserved.
    pub fn repair_failures(
        &mut self,
        instance: &McssInstance,
        failed_slots: &[usize],
        budget: SlaBudget,
    ) -> Result<RepairReport, McssError> {
        let started = Instant::now();
        let round = self.repair_round(instance, failed_slots, budget)?;
        let workload = instance.workload();
        let prev = self
            .previous
            .as_ref()
            .expect("a repair round leaves remembered state");

        // Degraded-mode accounting: a waiting subscriber's delivered
        // rate is its selection row minus whatever is still deferred.
        let mut missing: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for &(t, v) in &prev.pending {
            *missing.entry(v.index()).or_insert(0) += workload.rate(t).get();
        }
        let mut waiting: Vec<(usize, u64)> = missing.into_iter().collect();
        waiting.sort_unstable();
        let mut starved: Vec<SubscriberId> = Vec::new();
        let mut shortfall = 0u64;
        for (vi, miss) in waiting {
            let v = SubscriberId::new(vi as u32);
            let row_sum: u64 = prev
                .selection
                .selected(v)
                .iter()
                .map(|&t| workload.rate(t).get())
                .sum();
            let target = instance.tau_v(v).get();
            let delivered = row_sum.saturating_sub(miss);
            if delivered < target {
                starved.push(v);
                shortfall += target - delivered;
            }
        }

        let pairs_deferred = prev.pending.len() as u64;
        Ok(RepairReport {
            allocation: prev.ledger.to_allocation(prev.capacity),
            vms_failed: round.vms_failed,
            invalid_slots: round.invalid_slots,
            pairs_orphaned: round.pairs_orphaned,
            pairs_replaced: round.pairs_replaced,
            pairs_deferred,
            starved,
            shortfall,
            drained: pairs_deferred == 0,
            elapsed: started.elapsed(),
        })
    }

    /// The placement half of [`IncrementalReallocator::repair_failures`]:
    /// fails the slots and re-places queued orphans within `budget`,
    /// returning counters only.
    /// The serve daemon calls this directly, reading what is still
    /// deferred from [`IncrementalReallocator::pending_repair_pairs`].
    pub(crate) fn repair_round(
        &mut self,
        instance: &McssInstance,
        failed_slots: &[usize],
        budget: SlaBudget,
    ) -> Result<RepairRound, McssError> {
        let workload = instance.workload();
        let prev = self
            .previous
            .as_mut()
            .expect("repair_failures requires a prior epoch: call step_with_delta() first");
        let capacity = prev.capacity;

        let failed = prev.ledger.fail_slots(failed_slots);
        let vms_failed = failed.failed.len();
        let mut pairs_orphaned = 0u64;
        for (t, subs) in failed.orphans {
            pairs_orphaned += subs.len() as u64;
            prev.pending.extend(subs.into_iter().map(|v| (t, v)));
        }

        // Re-group the whole queue by topic (the counting-sort CSR
        // inversion yields ascending topic order, keeping the drain
        // deterministic) and pre-check feasibility so an error never
        // leaves the queue half-placed.
        let groups = TopicGroups::from_pairs(&prev.pending, workload.num_topics());
        for (topic, _) in groups.iter() {
            let rate = workload.rate(topic);
            if rate.pair_cost() > capacity {
                return Err(McssError::InfeasibleTopic {
                    topic,
                    required: rate.pair_cost(),
                    capacity,
                });
            }
        }

        let mut pairs_left = budget.max_pairs.unwrap_or(u64::MAX);
        let mut pairs_replaced = 0u64;
        let mut deferred: Vec<(TopicId, SubscriberId)> = Vec::new();
        for (topic, subs) in groups.iter() {
            let rate = workload.rate(topic);
            let mut rest = subs;
            while !rest.is_empty() {
                if pairs_left == 0 {
                    deferred.extend(rest.iter().map(|&v| (topic, v)));
                    break;
                }
                // At most 1,024 pairs per call: on a typed fleet,
                // `place_group` picks each fresh VM's tier from the pairs
                // still pending in its call, so the chunk size shapes the
                // tiers and is part of the placement.
                let chunk = (rest.len() as u64).min(pairs_left).min(1024) as usize;
                let (head, tail) = rest.split_at(chunk);
                prev.ledger.place_group(topic, rate, head, capacity);
                pairs_replaced += chunk as u64;
                pairs_left -= chunk as u64;
                rest = tail;
            }
        }
        prev.pending = deferred;
        Ok(RepairRound {
            vms_failed,
            invalid_slots: failed.rejected,
            pairs_orphaned,
            pairs_replaced,
        })
    }

    /// Returns a recovered slot to the fresh-VM reuse pool — the inverse
    /// of a failure. `false` when no epoch has been stepped or the slot
    /// is not currently failed.
    pub fn recover_slot(&mut self, slot: usize) -> bool {
        self.previous
            .as_mut()
            .is_some_and(|s| s.ledger.recover_slot(slot))
    }

    /// Pairs waiting in the failure-repair carry-over queue.
    pub fn pending_repair_pairs(&self) -> u64 {
        self.previous.as_ref().map_or(0, |s| s.pending.len() as u64)
    }

    /// The epoch step behind [`IncrementalReallocator::step_with_delta`]:
    /// repairs (or re-solves) the remembered fleet and returns the epoch's
    /// counters, exporting nothing. The new selection replaces the
    /// remembered one, or on a sparse epoch is spliced into it; a full
    /// re-solve also hands back the packer's allocation. The serve daemon calls this directly and reads the
    /// fleet's size and bandwidth from the ledger's counters.
    pub(crate) fn advance(
        &mut self,
        instance: &McssInstance,
        cost: &dyn CostModel,
        delta: &WorkloadDelta,
    ) -> Result<EpochStep, McssError> {
        let workload = instance.workload();
        let capacity = instance.capacity();
        let tau = instance.tau();
        let n = workload.num_subscribers();

        let Some(mut prev) = self.previous.take() else {
            let selection = GreedySelectPairs::new().select(instance)?;
            let allocation = self.full_allocate(instance, &selection, cost)?;
            let placed = selection.pair_count();
            self.remember(selection, &allocation, workload, tau, capacity);
            return Ok(EpochStep {
                pairs_placed: placed,
                pairs_removed: 0,
                pairs_evicted: 0,
                pairs_reused: 0,
                full_resolve: true,
                packed: Some(allocation),
            });
        };
        let prev_n = prev.selection.num_subscribers();

        // --- Dirty detection -------------------------------------------
        // A subscriber's greedy row depends only on its interest set, the
        // rates of those topics, and τ; it must be re-selected iff any of
        // those changed. `changed_rates` additionally drives the ledger's
        // used-counter refresh. It comes from the remembered rates, not
        // the delta: one O(topics) compare, each topic once, and a delta
        // that misses a re-rate cannot leave the counters at the old rate.
        let mut changed_rates: Vec<(TopicId, Rate, Rate)> = Vec::new();
        if let Some(basis) = &prev.basis {
            changed_rates.extend(
                basis
                    .rates
                    .iter()
                    .zip(workload.rates())
                    .enumerate()
                    .filter(|(_, (old, new))| old != new)
                    .map(|(ti, (&old, &new))| (TopicId::new(ti as u32), old, new)),
            );
        }
        // Ascending subscriber ids.
        let dirty: Vec<u32> = match &prev.basis {
            Some(basis) if basis.tau == tau => {
                dirty_rows(workload, delta, basis.num_subscribers, &changed_rates)
            }
            _ => (0..n as u32).collect(),
        };

        // The topic → hosts index lives as long as the ledger; growing it
        // before Stage 1's temporaries keeps it below them on the heap.
        // New entries are empty, so the fleet itself does not change.
        prev.ledger.ensure_topics(workload.num_topics());

        // --- Stage 1: re-select dirty rows, reuse the rest -------------
        // Reads no ledger state, so it runs before the ledger changes. A
        // sparse epoch re-selects its dirty rows into a side selection,
        // spliced into the remembered one once the epoch can no longer
        // fail. A dense one (more than half the rows dirty, or fewer
        // subscribers than before) builds a new selection, copying the
        // clean runs.
        let threads = self.config.repair_threads;
        let stage1 = if n >= prev_n && dirty.len() * 2 <= n {
            // Room for the dirty rows' previous lengths; new rows get the
            // mean.
            let mean = (prev.selection.pair_count() as usize).div_ceil(prev_n.max(1));
            let pairs = dirty
                .iter()
                .map(|&vi| match vi as usize {
                    vi if vi < prev_n => {
                        prev.selection.selected(SubscriberId::new(vi as u32)).len()
                    }
                    _ => mean,
                })
                .sum();
            let (side, _) = build_in_ranges(dirty.len(), threads, pairs, |range, builder| {
                for &vi in &dirty[range] {
                    let v = SubscriberId::new(vi);
                    builder.push_row_with(|row| select_for_subscriber_into(workload, v, tau, row));
                }
                0
            });
            Stage1::Side(side)
        } else {
            let (selection, reused) = build_in_ranges(
                n,
                threads,
                prev.selection.pair_count() as usize,
                |range, builder| {
                    reselect_dirty(workload, &prev.selection, &dirty, tau, range, builder)
                },
            );
            Stage1::Full(selection, reused)
        };
        // The epoch's row for dirty row `j`, subscriber `vi`.
        let new_row = |j: usize, vi: u32| match &stage1 {
            Stage1::Side(side) => side.selected(SubscriberId::new(j as u32)),
            Stage1::Full(selection, _) => selection.selected(SubscriberId::new(vi)),
        };

        // --- Feasibility, before the ledger changes --------------------
        // A failed epoch keeps the remembered state. Only a topic no VM
        // hosts can fail it; most workloads have none, and then no row is
        // read. A clean row kept its topics and their rates, which fit
        // last epoch, so only dirty rows can select one — unless the
        // capacity changed.
        let too_big = |t: &TopicId| workload.rate(*t).pair_cost() > capacity;
        let infeasible = if workload.rates().iter().all(|r| r.pair_cost() <= capacity) {
            None
        } else if capacity != prev.capacity {
            (0..n as u32)
                .flat_map(|vi| match dirty.binary_search(&vi) {
                    Ok(j) => new_row(j, vi),
                    Err(_) => prev.selection.selected(SubscriberId::new(vi)),
                })
                .copied()
                .filter(too_big)
                .min()
        } else {
            dirty
                .iter()
                .enumerate()
                .flat_map(|(j, &vi)| new_row(j, vi))
                .copied()
                .filter(too_big)
                .min()
        };
        if let Some(topic) = infeasible {
            // The caller's next delta is relative to this epoch's
            // workload, which the remembered state never reached: without
            // a basis the next step ignores it, as after `adopt`.
            prev.basis = None;
            self.previous = Some(prev);
            return Err(McssError::InfeasibleTopic {
                topic,
                required: workload.rate(topic).pair_cost(),
                capacity,
            });
        }
        let mut pending = std::mem::take(&mut prev.pending);

        // --- Ledger re-basing ------------------------------------------
        match &prev.basis {
            Some(basis) => {
                // Vanished topics lose their groups wholesale; the diff
                // below re-reports their pairs as removed (no-ops).
                for ti in workload.num_topics()..basis.rates.len() {
                    prev.ledger
                        .drop_topic(TopicId::new(ti as u32), basis.rates[ti]);
                }
                for &(t, old, new) in &changed_rates {
                    prev.ledger.refresh_rate(t, old, new);
                }
            }
            None => {
                // Adopted fleet: no previous rates to delta against.
                prev.ledger.drop_topics_at_or_above(workload.num_topics());
                prev.ledger.recompute_used(workload);
                prev.ledger.mark_all_for_overflow();
            }
        }
        if capacity != prev.capacity {
            // A typed ledger's capacities come from its tiers; untyped
            // slots are re-sized to the new shared BC.
            if !prev.ledger.is_typed() {
                prev.ledger.reset_capacity(capacity);
            }
            prev.ledger.mark_all_for_overflow();
        }

        // --- Diff dirty rows, splice, and repair the ledger ------------
        let mut removed: Vec<(TopicId, SubscriberId)> = Vec::new();
        let mut to_place: Vec<(TopicId, SubscriberId)> = Vec::new();
        let mut differ = SelectionDiff::new();
        for (j, &vi) in dirty.iter().enumerate() {
            let v = SubscriberId::new(vi);
            let old_row: &[TopicId] = if (vi as usize) < prev_n {
                prev.selection.selected(v)
            } else {
                &[]
            };
            differ.diff_rows(
                old_row,
                new_row(j, vi),
                |t| removed.push((t, v)),
                |t| to_place.push((t, v)),
            );
        }
        // Subscribers that disappeared entirely (shrunk workload).
        for vi in n..prev_n {
            let v = SubscriberId::new(vi as u32);
            for &t in prev.selection.selected(v) {
                removed.push((t, v));
            }
        }
        let pairs_reused = match stage1 {
            Stage1::Side(side) => {
                prev.selection.splice_rows(&dirty, &side, n);
                prev.selection.pair_count() - side.pair_count()
            }
            Stage1::Full(selection, reused) => {
                prev.selection = selection;
                reused
            }
        };
        let pairs_removed = removed.len() as u64;
        for &(t, v) in &removed {
            if t.index() < workload.num_topics() {
                prev.ledger.remove_pair(t, v, workload.rate(t));
            }
            // else: the topic vanished and its groups were dropped above.
        }

        // Evict from overflowing VMs, cheapest topic group first.
        let pairs_evicted = prev.ledger.evict_overflowing(workload, &mut to_place);
        let pairs_placed = to_place.len() as u64;

        // Group the work by topic (counting-sort CSR inversion, ascending
        // topic order) and place: host VMs first, then most-free, then
        // fresh VMs. Every pair here is selected, so it fits one VM.
        let groups = TopicGroups::from_pairs(&to_place, workload.num_topics());
        for (topic, subs) in groups.iter() {
            let rate = workload.rate(topic);
            debug_assert!(
                rate.pair_cost() <= capacity,
                "checked before the ledger changed"
            );
            prev.ledger.place_group(topic, rate, subs, capacity);
        }

        // Release empty VMs and check the compaction floor.
        prev.ledger.release_empty();
        if prev.ledger.utilization() < self.config.compaction_threshold {
            let allocation = self.full_allocate(instance, &prev.selection, cost)?;
            let placed = prev.selection.pair_count();
            self.remember(prev.selection, &allocation, workload, tau, capacity);
            return Ok(EpochStep {
                pairs_placed: placed,
                pairs_removed,
                pairs_evicted,
                pairs_reused,
                full_resolve: true,
                packed: Some(allocation),
            });
        }

        // Carry deferred repair pairs forward, dropping any the new
        // selection no longer wants (rows are small, so a linear
        // `contains` beats assuming a sort order they don't have).
        pending.retain(|&(t, v)| {
            t.index() < workload.num_topics()
                && v.index() < n
                && prev.selection.selected(v).contains(&t)
        });
        self.previous = Some(State {
            selection: prev.selection,
            ledger: prev.ledger,
            capacity,
            pending,
            basis: Some(EpochBasis {
                rates: workload.rates().to_vec(),
                num_subscribers: n,
                tau,
            }),
        });
        Ok(EpochStep {
            pairs_placed,
            pairs_removed,
            pairs_evicted,
            pairs_reused,
            full_resolve: false,
            packed: None,
        })
    }

    /// Packs `selection` from scratch — mixed-fleet when a fleet is
    /// configured, CustomBinPacking otherwise.
    fn full_allocate(
        &self,
        instance: &McssInstance,
        selection: &Selection,
        cost: &dyn CostModel,
    ) -> Result<Allocation, McssError> {
        match &self.fleet {
            Some(fleet) => MixedFleetPacker::new().allocate(instance.workload(), selection, fleet),
            None => CustomBinPacking::new(CbpConfig::full()).allocate(
                instance.workload(),
                selection,
                instance.capacity(),
                cost,
            ),
        }
    }

    /// The remembered epoch state — previous selection, fleet ledger and
    /// epoch capacity — exported for crash-consistent snapshots (see
    /// [`crate::serve`]). `None` before the first epoch.
    pub fn checkpoint(&self) -> Option<(&Selection, &FleetLedger, Bandwidth)> {
        self.previous
            .as_ref()
            .map(|s| (&s.selection, &s.ledger, s.capacity))
    }

    /// Replaces the remembered fleet with a budget-bounded local-search
    /// refinement of it ([`crate::stage2::improve`]) — the compaction
    /// half of the serve loop's epoch cycle. The Stage-1 selection, the
    /// epoch basis, and the carry-over repair queue are untouched: only
    /// the packing changes, so delivered rates are bit-identical before
    /// and after.
    ///
    /// Returns `None` without touching anything when there is nothing
    /// safe to compact: no remembered state yet, orphaned pairs still
    /// deferred by the repair budget, failed slots still down (their
    /// slot indices must stay stable for `VmRecover`), or a
    /// heterogeneous fleet (typed ledgers re-pack through
    /// [`MixedFleetPacker`] full re-solves instead).
    ///
    /// Compaction renumbers ledger slots (empty slots are dropped on
    /// export), so callers that address VMs by slot — `VmFail` events —
    /// must only do so against post-compaction state, which is exactly
    /// what deterministic epoch replay guarantees when the budget is a
    /// step budget. Wall-clock budgets are rejected by [`crate::serve`]
    /// for this reason; library callers get what they ask for.
    pub fn compact(
        &mut self,
        instance: &McssInstance,
        cost: &dyn CostModel,
        budget: SearchBudget,
    ) -> Option<ImproveReport> {
        if self.fleet.is_some() {
            return None;
        }
        let state = self.previous.as_mut()?;
        if !state.pending.is_empty() || state.ledger.failed_slot_count() > 0 {
            return None;
        }
        let allocation = state.ledger.to_allocation(state.capacity);
        let certificate =
            lower_bound(instance.workload(), instance.tau(), state.capacity).cost(cost);
        let (refined, report) = improve(allocation, instance.workload(), cost, certificate, budget);
        if report.steps > 0 {
            let mut ledger = FleetLedger::from_allocation(&refined);
            ledger.ensure_topics(instance.workload().num_topics());
            state.ledger = ledger;
        }
        Some(report)
    }

    /// Rebuilds the remembered state from snapshot primaries — the
    /// restore half of [`IncrementalReallocator::checkpoint`]. `rates`
    /// and `tau` must describe the workload `selection` was produced
    /// against; the next step then applies its delta to them exactly as
    /// if the allocator had never stopped.
    pub fn restore(
        &mut self,
        selection: Selection,
        ledger: FleetLedger,
        capacity: Bandwidth,
        rates: Vec<Rate>,
        tau: Rate,
    ) {
        let num_subscribers = selection.num_subscribers();
        // Selected pairs the ledger does not host are repairs a crashed
        // process had deferred — rebuild the carry-over queue so
        // `repair_failures` resumes exactly where it stopped. Snapshots
        // need no pending list of their own for this. Each subscriber's
        // hosted topics are stamped into a topic-indexed table, then its
        // selection row is checked against the stamps, in row order.
        let (offsets, hosted) = ledger.hosted_by_subscriber(num_subscribers);
        let mut stamp = vec![0u32; rates.len()];
        let mut pending = Vec::new();
        for (vi, row) in selection.rows().enumerate() {
            let mark = vi as u32 + 1;
            for t in &hosted[offsets[vi] as usize..offsets[vi + 1] as usize] {
                // Grown, not clamped: a hosted topic past the rate table
                // must still match a selected one.
                if t.index() >= stamp.len() {
                    stamp.resize(t.index() + 1, 0);
                }
                stamp[t.index()] = mark;
            }
            for &t in row {
                if stamp.get(t.index()) != Some(&mark) {
                    pending.push((t, SubscriberId::new(vi as u32)));
                }
            }
        }
        self.previous = Some(State {
            selection,
            ledger,
            capacity,
            pending,
            basis: Some(EpochBasis {
                rates,
                num_subscribers,
                tau,
            }),
        });
    }

    /// Seeds the re-allocator's state from an externally produced
    /// allocation — e.g. a degraded fleet after broker failures, so the
    /// next [`IncrementalReallocator::step_with_delta`] re-places exactly
    /// the lost pairs onto the surviving machines.
    ///
    /// `selection` must be the Stage-1 selection the allocation serves
    /// (possibly partially, after failures). The adopted state carries no
    /// epoch basis, so the next step ignores its delta, treats every
    /// subscriber as dirty and resyncs the ledger before repairing.
    pub fn adopt(&mut self, selection: &Selection, allocation: &Allocation) {
        // Keep only the pairs that are actually placed: the next diff
        // then treats missing ones as "added" and re-places them.
        let placed_pairs: std::collections::HashSet<(TopicId, SubscriberId)> = allocation
            .vms()
            .flat_map(|vm| vm.rows())
            .flat_map(|(t, vs)| vs.iter().map(move |&v| (t, v)))
            .collect();
        let mut surviving =
            SelectionBuilder::with_capacity(selection.num_subscribers(), placed_pairs.len());
        for (vi, row) in selection.rows().enumerate() {
            let v = SubscriberId::new(vi as u32);
            surviving.push_row(
                row.iter()
                    .copied()
                    .filter(|&t| placed_pairs.contains(&(t, v))),
            );
        }
        self.previous = Some(State {
            selection: surviving.build(),
            ledger: FleetLedger::from_allocation(allocation),
            capacity: allocation.capacity(),
            pending: Vec::new(),
            basis: None,
        });
    }

    fn remember(
        &mut self,
        selection: Selection,
        allocation: &Allocation,
        workload: &Workload,
        tau: Rate,
        capacity: Bandwidth,
    ) {
        self.previous = Some(State {
            selection,
            ledger: FleetLedger::from_allocation(allocation),
            capacity,
            pending: Vec::new(),
            basis: Some(EpochBasis {
                rates: workload.rates().to_vec(),
                num_subscribers: workload.num_subscribers(),
                tau,
            }),
        });
    }
}

/// What an epoch's Stage 1 produced: the re-selected dirty rows alone,
/// or the whole new selection with the pairs its clean runs copied.
enum Stage1 {
    Side(Selection),
    Full(Selection, u64),
}

/// The rows an epoch must re-select, ascending: the delta's changed
/// subscribers, those the previous epoch never saw (from `known` on) and
/// the followers of re-rated topics. Without re-rates the list is sorted;
/// a re-rate can dirty any share of the rows, so those epochs gather them
/// through an n-sized mark table.
fn dirty_rows(
    workload: &Workload,
    delta: &WorkloadDelta,
    known: usize,
    changed_rates: &[(TopicId, Rate, Rate)],
) -> Vec<u32> {
    let n = workload.num_subscribers();
    let mut rows: Vec<u32> = delta
        .changed_subscribers
        .iter()
        .map(|v| v.raw())
        .filter(|&vi| (vi as usize) < n)
        .collect();
    rows.extend(known.min(n) as u32..n as u32);
    if changed_rates.is_empty() {
        rows.sort_unstable();
        rows.dedup();
        return rows;
    }
    let mut marked = vec![false; n];
    for &vi in &rows {
        marked[vi as usize] = true;
    }
    for &(t, _, _) in changed_rates {
        for v in workload.subscribers_of(t) {
            marked[v.index()] = true;
        }
    }
    (0..n as u32).filter(|&vi| marked[vi as usize]).collect()
}

/// The dense dirty loop over subscribers `range`: re-selects the `dirty`
/// rows (ascending) and block-copies the runs of clean rows between them
/// from the previous selection (a clean subscriber always has a previous
/// row — dirty tracking lists everyone past the old subscriber count).
/// Returns the pairs copied.
fn reselect_dirty(
    workload: &Workload,
    prev: &Selection,
    dirty: &[u32],
    tau: Rate,
    range: Range<usize>,
    builder: &mut SelectionBuilder,
) -> u64 {
    let mut pairs_reused = 0u64;
    let mut copy_clean = |rows: Range<usize>, builder: &mut SelectionBuilder| {
        if !rows.is_empty() {
            pairs_reused += builder.push_rows_from(prev, rows);
        }
    };
    let first = dirty.partition_point(|&vi| (vi as usize) < range.start);
    let mut next = range.start;
    for &vi in dirty[first..]
        .iter()
        .take_while(|&&vi| (vi as usize) < range.end)
    {
        copy_clean(next..vi as usize, builder);
        let v = SubscriberId::new(vi);
        builder.push_row_with(|row| select_for_subscriber_into(workload, v, tau, row));
        next = vi as usize + 1;
    }
    copy_clean(next..range.end, builder);
    pairs_reused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DriftModel;
    use cloud_cost::{LinearCostModel, Money};
    use pubsub_model::{Rate, Workload};

    fn cost() -> LinearCostModel {
        LinearCostModel::new(Money::from_dollars(1), Money::from_micros(1))
    }

    fn base_workload() -> Workload {
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = [30u64, 18, 12, 9, 6, 4]
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        b.add_subscriber([ts[0], ts[1], ts[2]]).unwrap();
        b.add_subscriber([ts[1], ts[3], ts[4]]).unwrap();
        b.add_subscriber([ts[2], ts[4], ts[5]]).unwrap();
        b.add_subscriber([ts[0], ts[5]]).unwrap();
        b.build()
    }

    fn instance(w: Workload) -> McssInstance {
        McssInstance::new(w, Rate::new(20), Bandwidth::new(120)).unwrap()
    }

    /// Steps with an empty delta: a first step (which ignores its delta),
    /// or an epoch whose workload did not change since the last step.
    fn step_unchanged(inc: &mut IncrementalReallocator, inst: &McssInstance) -> IncrementalOutcome {
        inc.step_with_delta(inst, &cost(), &WorkloadDelta::default())
            .unwrap()
    }

    #[test]
    fn first_step_is_full_solve() {
        let mut inc = IncrementalReallocator::default();
        let inst = instance(base_workload());
        let out = step_unchanged(&mut inc, &inst);
        assert!(out.full_resolve);
        assert_eq!(out.pairs_placed, out.allocation.pair_count());
        assert_eq!(out.pairs_reused, 0);
        out.allocation
            .validate(inst.workload(), inst.tau())
            .unwrap();
    }

    #[test]
    fn unchanged_workload_moves_nothing_and_reuses_every_row() {
        let mut inc = IncrementalReallocator::default();
        let inst = instance(base_workload());
        let first = step_unchanged(&mut inc, &inst);
        let second = step_unchanged(&mut inc, &inst);
        assert!(!second.full_resolve);
        assert_eq!(second.pairs_placed, 0);
        assert_eq!(second.pairs_removed, 0);
        assert_eq!(second.pairs_evicted, 0);
        assert_eq!(second.pairs_reused, first.selection.pair_count());
        assert_eq!(second.selection, first.selection);
        assert_eq!(
            second.allocation.pair_count(),
            first.allocation.pair_count()
        );
        second
            .allocation
            .validate(inst.workload(), inst.tau())
            .unwrap();
    }

    #[test]
    fn drifted_workload_stays_valid_across_epochs() {
        // Seed pinned so eight epochs of drift keep every topic feasible
        // for capacity 120 under the workspace RNG's stream.
        let drift = DriftModel {
            rate_sigma: 0.4,
            churn_prob: 0.5,
            seed: 7,
        };
        let mut inc = IncrementalReallocator::default();
        let mut w = base_workload();
        let mut delta = WorkloadDelta::default();
        for epoch in 0..8 {
            let inst = instance(w.clone());
            let out = inc.step_with_delta(&inst, &cost(), &delta).unwrap();
            out.allocation
                .validate(inst.workload(), inst.tau())
                .unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
            (w, delta) = drift.evolve_tracked(&w, epoch);
        }
    }

    #[test]
    fn threaded_repair_matches_one_thread_across_epochs() {
        // Ranged epoch repair must be bit-identical to the one-thread
        // dirty loop every epoch, including thread counts that exceed
        // the subscriber count.
        for threads in [1, 2, 3, 7] {
            let drift = DriftModel {
                rate_sigma: 0.0, // rate drift could outgrow the fixed capacity
                churn_prob: 0.5,
                seed: 29,
            };
            let mut seq = IncrementalReallocator::default();
            let mut par = IncrementalReallocator::new(
                IncrementalConfig::default().with_repair_threads(threads),
            );
            let mut w = base_workload();
            let mut delta = WorkloadDelta::default();
            for epoch in 0..6 {
                let inst = instance(w.clone());
                let s = seq.step_with_delta(&inst, &cost(), &delta).unwrap();
                let p = par.step_with_delta(&inst, &cost(), &delta).unwrap();
                assert_eq!(p.selection, s.selection, "epoch {epoch}, {threads} threads");
                assert_eq!(p.pairs_reused, s.pairs_reused, "epoch {epoch}");
                assert_eq!(p.pairs_placed, s.pairs_placed, "epoch {epoch}");
                p.allocation.validate(inst.workload(), inst.tau()).unwrap();
                (w, delta) = drift.evolve_tracked(&w, epoch);
            }
        }
    }

    #[test]
    fn with_repair_threads_reads_zero_as_one() {
        let threads = |n| {
            IncrementalConfig::default()
                .with_repair_threads(n)
                .repair_threads
        };
        assert_eq!(IncrementalConfig::default().repair_threads, 1);
        assert_eq!(threads(0), 1);
        assert_eq!(threads(1), 1);
        assert_eq!(threads(4), 4);
    }

    #[test]
    fn dirty_path_matches_full_reselect_bitwise() {
        // The headline O(Δ) guarantee: the selection each epoch must be
        // bit-identical to re-running GSP over everyone, whether the delta
        // comes from comparing the workloads or from the drift source.
        let drift = DriftModel {
            rate_sigma: 0.3,
            churn_prob: 0.4,
            seed: 13,
        };
        let mut compared = IncrementalReallocator::default();
        let mut delta_fed = IncrementalReallocator::default();
        let mut w = base_workload();
        let mut last = w.clone();
        let mut delta = WorkloadDelta::default();
        for epoch in 0..6 {
            let inst = instance(w.clone());
            let fresh = GreedySelectPairs::new().select(&inst).unwrap();
            let between = WorkloadDelta::between(&last, &w);
            let a = compared.step_with_delta(&inst, &cost(), &between).unwrap();
            let b = delta_fed.step_with_delta(&inst, &cost(), &delta).unwrap();
            assert_eq!(a.selection, fresh, "between-fed diverged at epoch {epoch}");
            assert_eq!(b.selection, fresh, "delta-fed diverged at epoch {epoch}");
            for out in [&a, &b] {
                out.allocation
                    .validate(inst.workload(), inst.tau())
                    .unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
            }
            last = w.clone();
            (w, delta) = drift.evolve_tracked(&w, epoch);
        }
    }

    #[test]
    fn rerates_rebase_counters_once_whatever_the_delta_lists() {
        // The step finds re-rated topics from its remembered rates: a
        // topic the delta repeats is re-based once, and one it misses is
        // still re-based (validate cross-checks recorded vs recomputed
        // bandwidth) and its followers re-selected.
        let inst = instance(base_workload());
        let mut rates: Vec<Rate> = inst.workload().rates().to_vec();
        rates[1] = Rate::new(5); // 18 → 5, a decrease
        let interests = inst
            .workload()
            .subscribers()
            .map(|v| inst.workload().interests(v).to_vec())
            .collect();
        let inst2 = instance(Workload::from_parts(rates, interests));
        let fresh = GreedySelectPairs::new().select(&inst2).unwrap();
        for changed_topics in [vec![TopicId::new(1); 3], Vec::new()] {
            let mut inc = IncrementalReallocator::default();
            step_unchanged(&mut inc, &inst);
            let delta = WorkloadDelta {
                changed_topics,
                changed_subscribers: vec![SubscriberId::new(0), SubscriberId::new(0)],
            };
            let out = inc.step_with_delta(&inst2, &cost(), &delta).unwrap();
            assert_eq!(out.selection, fresh);
            out.allocation
                .validate(inst2.workload(), inst2.tau())
                .unwrap();
        }
    }

    #[test]
    fn rate_spike_triggers_eviction_not_violation() {
        let mut inc = IncrementalReallocator::default();
        let inst = instance(base_workload());
        step_unchanged(&mut inc, &inst);

        // Same interests, but topic 0's rate triples: VMs hosting it may
        // overflow and must shed load.
        let mut rates: Vec<Rate> = inst.workload().rates().to_vec();
        rates[0] = Rate::new(55);
        let interests = inst
            .workload()
            .subscribers()
            .map(|v| inst.workload().interests(v).to_vec())
            .collect();
        let spiked = Workload::from_parts(rates, interests);
        let delta = WorkloadDelta::between(inst.workload(), &spiked);
        let inst2 = instance(spiked);
        let out = inc.step_with_delta(&inst2, &cost(), &delta).unwrap();
        out.allocation
            .validate(inst2.workload(), inst2.tau())
            .unwrap();
        for vm in out.allocation.vms() {
            assert!(vm.used() <= inst2.capacity());
        }
    }

    #[test]
    fn failed_epoch_keeps_the_remembered_fleet() {
        // Six subscribers follow topics 0 and 1 (rate 5 each) on VMs of
        // 60; nobody follows topic 2, whose rate of 40 no VM can host.
        let build = |rate0: u64, v0_moves_to_2: bool| {
            let mut b = Workload::builder();
            let ts: Vec<TopicId> = [rate0, 5, 40]
                .iter()
                .map(|&r| b.add_topic(Rate::new(r)).unwrap())
                .collect();
            for vi in 0..6 {
                let row = if vi == 0 && v0_moves_to_2 {
                    &ts[2..]
                } else {
                    &ts[..2]
                };
                b.add_subscriber(row.iter().copied()).unwrap();
            }
            b.build()
        };
        let mk =
            |w, capacity| McssInstance::new(w, Rate::new(10), Bandwidth::new(capacity)).unwrap();
        let base = mk(build(5, false), 60);
        let infeasible = |topic, required, capacity| McssError::InfeasibleTopic {
            topic: TopicId::new(topic),
            required: Bandwidth::new(required),
            capacity: Bandwidth::new(capacity),
        };
        // A re-rate, a move to an unchanged topic that only the churned
        // row shows, and a capacity cut.
        for (bad, want) in [
            (mk(build(40, false), 60), infeasible(0, 80, 60)),
            (mk(build(5, true), 60), infeasible(2, 80, 60)),
            (mk(build(5, false), 8), infeasible(0, 10, 8)),
        ] {
            let mut inc = IncrementalReallocator::default();
            let first = step_unchanged(&mut inc, &base);
            assert_eq!(first.selection.pair_count(), 12);
            let remembered = |inc: &IncrementalReallocator| {
                let (selection, ledger, capacity) = inc.checkpoint().expect("stepped");
                (selection.clone(), ledger.snapshot_slots(), capacity)
            };
            let kept = remembered(&inc);
            let delta = WorkloadDelta::between(base.workload(), bad.workload());
            let err = inc.step_with_delta(&bad, &cost(), &delta).unwrap_err();
            assert_eq!(err, want);
            assert_eq!(remembered(&inc), kept, "a failed epoch changed the state");
            // Back on the workload the state was built on, the epoch
            // repairs in place and moves nothing.
            let delta = WorkloadDelta::between(bad.workload(), base.workload());
            let back = inc.step_with_delta(&base, &cost(), &delta).unwrap();
            assert!(!back.full_resolve, "{want}");
            assert_eq!(back.pairs_placed, 0, "{want}");
        }
    }

    #[test]
    fn step_after_a_failed_epoch_takes_the_chained_delta() {
        // The failed epoch re-rates topic 0 past what a VM of 60 hosts and
        // drops it from subscriber 5; the next one puts the rate back and
        // keeps the drop. A caller chaining deltas lists only topic 0, yet
        // subscriber 5's row must lose topic 0 and the ledger its pair.
        let inst = |rate0: u64| {
            let mut b = Workload::builder();
            let t0 = b.add_topic(Rate::new(rate0)).unwrap();
            let t1 = b.add_topic(Rate::new(5)).unwrap();
            for _ in 0..5 {
                b.add_subscriber([t0, t1]).unwrap();
            }
            b.add_subscriber([t1]).unwrap();
            McssInstance::new(b.build(), Rate::new(10), Bandwidth::new(60)).unwrap()
        };
        let base = McssInstance::new(
            Workload::from_parts(
                vec![Rate::new(5); 2],
                vec![vec![TopicId::new(0), TopicId::new(1)]; 6],
            ),
            Rate::new(10),
            Bandwidth::new(60),
        )
        .unwrap();
        let (failed, next) = (inst(40), inst(5));
        let mut inc = IncrementalReallocator::default();
        step_unchanged(&mut inc, &base);
        let delta = WorkloadDelta::between(base.workload(), failed.workload());
        assert!(inc.step_with_delta(&failed, &cost(), &delta).is_err());
        let delta = WorkloadDelta::between(failed.workload(), next.workload());
        assert_eq!(delta.changed_topics, [TopicId::new(0)]);
        assert!(delta.changed_subscribers.is_empty());
        let out = inc.step_with_delta(&next, &cost(), &delta).unwrap();
        let fresh = GreedySelectPairs::new().select(&next).unwrap();
        assert_eq!(out.selection, fresh);
        assert_eq!(fresh.pair_count(), 11);
        out.allocation
            .validate(next.workload(), next.tau())
            .unwrap();
    }

    #[test]
    fn collapse_triggers_full_resolve() {
        // Epoch 1: rich workload. Epoch 2: almost everything unsubscribes
        // (interests shrink), utilization collapses, expect a re-solve.
        let mut inc = IncrementalReallocator::new(IncrementalConfig {
            compaction_threshold: 0.6,
            ..IncrementalConfig::default()
        });
        let inst = instance(base_workload());
        step_unchanged(&mut inc, &inst);

        let w = inst.workload();
        let rates: Vec<Rate> = w.rates().to_vec();
        let mut interests: Vec<Vec<TopicId>> =
            w.subscribers().map(|v| w.interests(v).to_vec()).collect();
        for tv in interests.iter_mut().skip(1) {
            tv.clear(); // only subscriber 0 remains interested
        }
        let shrunk = Workload::from_parts(rates, interests);
        let delta = WorkloadDelta::between(w, &shrunk);
        let inst2 = instance(shrunk);
        let out = inc.step_with_delta(&inst2, &cost(), &delta).unwrap();
        assert!(out.pairs_removed > 0);
        assert!(
            out.full_resolve,
            "utilization collapse should force a re-solve"
        );
        out.allocation
            .validate(inst2.workload(), inst2.tau())
            .unwrap();
    }

    #[test]
    fn workload_shrinking_below_previous_subscriber_count() {
        // The edge the diff loop indexes around: epoch 2's workload has
        // fewer subscribers than epoch 1's selection covers. The vanished
        // subscribers' pairs must be removed, the survivors repaired.
        let mut inc = IncrementalReallocator::default();
        let w = base_workload();
        let inst = instance(w.clone());
        let first = step_unchanged(&mut inc, &inst);

        let rates: Vec<Rate> = w.rates().to_vec();
        let interests: Vec<Vec<TopicId>> = w
            .subscribers()
            .take(2)
            .map(|v| w.interests(v).to_vec())
            .collect();
        let shrunk = Workload::from_parts(rates, interests);
        let delta = WorkloadDelta::between(&w, &shrunk);
        let inst2 = instance(shrunk);
        let out = inc.step_with_delta(&inst2, &cost(), &delta).unwrap();
        assert_eq!(out.selection.num_subscribers(), 2);
        assert!(out.pairs_removed > 0);
        assert_eq!(
            out.selection.pair_count() + out.pairs_removed,
            first.selection.pair_count(),
            "removals must account exactly for the lost subscribers' rows"
        );
        out.allocation
            .validate(inst2.workload(), inst2.tau())
            .unwrap();

        // And a third epoch on the shrunk workload is steady-state.
        let third = step_unchanged(&mut inc, &inst2);
        assert_eq!(third.pairs_placed, 0);
        assert_eq!(third.pairs_removed, 0);
    }

    #[test]
    fn mass_unsubscribe_removes_ten_thousand_pairs() {
        // The pre-ledger removal path was O(|subs|·|gone|); this case —
        // 10k pairs leaving in one epoch — must both stay correct and
        // come back in sane time via the reverse-index removal.
        let topics = 50u32;
        let subscribers = 5_000u32;
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = (0..topics)
            .map(|i| b.add_topic(Rate::new(1 + (i as u64 % 7))).unwrap())
            .collect();
        for vi in 0..subscribers {
            let a = ts[(vi % topics) as usize];
            let bb = ts[((vi + 1) % topics) as usize];
            b.add_subscriber(if a < bb { [a, bb] } else { [bb, a] })
                .unwrap();
        }
        let w = b.build();
        let mk =
            |w: Workload| McssInstance::new(w, Rate::new(100), Bandwidth::new(10_000)).unwrap();
        let inst = mk(w.clone());
        let mut inc = IncrementalReallocator::default();
        let first = step_unchanged(&mut inc, &inst);
        assert_eq!(first.allocation.pair_count(), 2 * subscribers as u64);

        // Everyone but the first 100 subscribers drops both interests.
        let rates: Vec<Rate> = w.rates().to_vec();
        let interests: Vec<Vec<TopicId>> = w
            .subscribers()
            .map(|v| {
                if v.index() < 100 {
                    w.interests(v).to_vec()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let shrunk = mk(Workload::from_parts(rates, interests));
        let delta = WorkloadDelta::between(&w, shrunk.workload());
        let out = inc.step_with_delta(&shrunk, &cost(), &delta).unwrap();
        assert_eq!(out.pairs_removed, 2 * (subscribers as u64 - 100));
        assert!(out.pairs_removed >= 9_800);
        out.allocation
            .validate(shrunk.workload(), shrunk.tau())
            .unwrap();
        assert_eq!(out.allocation.pair_count(), 200);
    }

    #[test]
    fn incremental_cost_stays_close_to_full_resolve() {
        // After several drift epochs, the repaired allocation should not
        // cost wildly more than a from-scratch solve (placement debt is
        // bounded by the compaction rule).
        let drift = DriftModel {
            rate_sigma: 0.2,
            churn_prob: 0.2,
            seed: 5,
        };
        let mut inc = IncrementalReallocator::default();
        let mut w = base_workload();
        let mut delta = WorkloadDelta::default();
        let mut last: Option<(Money, Money)> = None;
        for epoch in 0..6 {
            let inst = instance(w.clone());
            let out = inc.step_with_delta(&inst, &cost(), &delta).unwrap();
            let fresh = crate::Solver::default().solve(&inst, &cost()).unwrap();
            last = Some((out.allocation.cost(&cost()), fresh.report.total_cost));
            (w, delta) = drift.evolve_tracked(&w, epoch);
        }
        let (incremental, fresh) = last.expect("ran epochs");
        assert!(
            incremental.micros() <= fresh.micros() * 2,
            "incremental {incremental} vs fresh {fresh}"
        );
    }

    #[test]
    fn mixed_fleet_repair_keeps_selections_bit_identical_and_fleets_valid() {
        use cloud_cost::{Ec2CostModel, FleetCostModel, InstanceType};
        // The acceptance invariant for `mcss reprovision` on a mixed
        // fleet: Stage-1 selections are bit-identical to the homogeneous
        // run every epoch, and every repaired VM respects its own tier.
        let fleet = FleetCostModel::new(vec![
            Ec2CostModel::paper_default(InstanceType::new("tiny", 150_000, 64))
                .with_capacity_events(120),
            Ec2CostModel::paper_default(InstanceType::new("big", 290_000, 128))
                .with_capacity_events(240),
        ]);
        let drift = DriftModel {
            rate_sigma: 0.3,
            churn_prob: 0.4,
            seed: 13,
        };
        let mut mixed = IncrementalReallocator::default().with_fleet(fleet.clone());
        let mut homog = IncrementalReallocator::default();
        let mut w = base_workload();
        let mut delta = WorkloadDelta::default();
        for epoch in 0..6 {
            let mixed_inst =
                McssInstance::new(w.clone(), Rate::new(20), fleet.max_capacity()).unwrap();
            let homog_inst =
                McssInstance::new(w.clone(), Rate::new(20), Bandwidth::new(120)).unwrap();
            let m = mixed.step_with_delta(&mixed_inst, &cost(), &delta).unwrap();
            let h = homog.step_with_delta(&homog_inst, &cost(), &delta).unwrap();
            assert_eq!(
                m.selection, h.selection,
                "mixed fleet changed the selection at epoch {epoch}"
            );
            m.allocation
                .validate(mixed_inst.workload(), mixed_inst.tau())
                .unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
            let typing = m.allocation.typing().expect("mixed epochs stay typed");
            for (i, vm) in m.allocation.vms().enumerate() {
                assert!(vm.used() <= typing.tier_of(i).1, "epoch {epoch}, vm {i}");
            }
            (w, delta) = drift.evolve_tracked(&w, epoch);
        }
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        // Snapshot after epoch k, restore into a fresh re-allocator, and
        // the next delta-fed epoch must match the uninterrupted run
        // exactly — selection and allocation both.
        let drift = DriftModel {
            rate_sigma: 0.3,
            churn_prob: 0.4,
            seed: 21,
        };
        let mut live = IncrementalReallocator::default();
        let mut w = base_workload();
        let mut delta = WorkloadDelta::default();
        for epoch in 0..3 {
            let inst = instance(w.clone());
            live.step_with_delta(&inst, &cost(), &delta).unwrap();
            if epoch < 2 {
                (w, delta) = drift.evolve_tracked(&w, epoch);
            }
        }

        // `w` is the workload the checkpoint was taken against, so its
        // rates are what the ledger's counters are denominated in.
        let mut restored = IncrementalReallocator::default();
        {
            let (selection, ledger, capacity) = live.checkpoint().expect("stepped");
            restored.restore(
                selection.clone(),
                crate::FleetLedger::from_slots(ledger.snapshot_slots()),
                capacity,
                w.rates().to_vec(),
                Rate::new(20),
            );
        }

        let (next, delta) = drift.evolve_tracked(&w, 2);
        let inst = instance(next);
        let a = live.step_with_delta(&inst, &cost(), &delta).unwrap();
        let b = restored.step_with_delta(&inst, &cost(), &delta).unwrap();
        assert_eq!(a.selection, b.selection);
        assert_eq!(a.allocation, b.allocation);
        assert_eq!(a.pairs_reused, b.pairs_reused);
    }

    #[test]
    fn adopt_replaces_exactly_the_missing_pairs() {
        let mut inc = IncrementalReallocator::default();
        let inst = instance(base_workload());
        let deployed = step_unchanged(&mut inc, &inst);
        assert!(deployed.allocation.vm_count() >= 1);

        // Drop the first VM (simulated failure) and adopt the remains.
        let degraded = crate::Allocation::from_groups(
            deployed
                .allocation
                .vms()
                .skip(1)
                .map(|vm| vm.rows().map(|(t, vs)| (t, vs.to_vec())).collect())
                .collect(),
            inst.workload(),
            inst.capacity(),
        );
        let lost = deployed.allocation.pair_count() - degraded.pair_count();
        inc.adopt(&deployed.selection, &degraded);
        let repaired = step_unchanged(&mut inc, &inst);
        assert_eq!(
            repaired.pairs_placed, lost,
            "repair must re-place the lost pairs"
        );
        repaired
            .allocation
            .validate(inst.workload(), inst.tau())
            .unwrap();
    }

    #[test]
    fn drained_failure_repair_matches_fresh_solve_satisfaction() {
        let mut inc = IncrementalReallocator::default();
        let inst = instance(base_workload());
        let first = step_unchanged(&mut inc, &inst);
        let baseline = first.allocation.delivered_rates(inst.workload());

        let mut last = inc
            .repair_failures(&inst, &[0], SlaBudget::pairs(2))
            .unwrap();
        assert_eq!(last.vms_failed, 1);
        assert!(last.invalid_slots.is_empty());
        assert!(last.pairs_orphaned > 0);
        let mut rounds = 0;
        loop {
            assert!(last.pairs_replaced <= 2, "budget exceeded");
            if last.drained {
                break;
            }
            assert!(last.pairs_deferred > 0);
            last = inc
                .repair_failures(&inst, &[], SlaBudget::pairs(2))
                .unwrap();
            rounds += 1;
            assert!(rounds < 64, "repair failed to drain");
        }
        assert_eq!(inc.pending_repair_pairs(), 0);
        assert!(last.starved.is_empty());
        assert_eq!(last.shortfall, 0);
        assert_eq!(
            last.allocation.delivered_rates(inst.workload()),
            baseline,
            "drained repair must restore satisfaction bit-identically"
        );
        last.allocation
            .validate(inst.workload(), inst.tau())
            .unwrap();
    }

    #[test]
    fn exhausted_budget_defers_and_survives_epoch_steps() {
        // compaction_threshold 0 keeps the interleaved step incremental
        // even though the fleet loss tanks utilization.
        let mut inc = IncrementalReallocator::new(IncrementalConfig {
            compaction_threshold: 0.0,
            ..IncrementalConfig::default()
        });
        let inst = instance(base_workload());
        let first = step_unchanged(&mut inc, &inst);
        let baseline = first.allocation.delivered_rates(inst.workload());
        let vm_count = first.allocation.vm_count();

        // Kill the whole fleet; a one-pair budget must queue the rest
        // and report the degradation.
        let all: Vec<usize> = (0..vm_count).collect();
        let rep = inc
            .repair_failures(&inst, &all, SlaBudget::pairs(1))
            .unwrap();
        assert_eq!(rep.vms_failed, vm_count);
        assert_eq!(rep.pairs_replaced, 1);
        assert_eq!(rep.pairs_deferred, rep.pairs_orphaned - 1);
        assert!(!rep.drained);
        assert!(!rep.starved.is_empty());
        assert!(rep.shortfall > 0);

        // An ordinary epoch on the same workload neither loses nor
        // places the deferred pairs.
        let queued = inc.pending_repair_pairs();
        let mid = step_unchanged(&mut inc, &inst);
        assert!(!mid.full_resolve);
        assert_eq!(mid.pairs_placed, 0);
        assert_eq!(inc.pending_repair_pairs(), queued);

        let mut last = rep;
        while !last.drained {
            last = inc
                .repair_failures(&inst, &[], SlaBudget::pairs(1))
                .unwrap();
            assert!(last.pairs_replaced <= 1);
        }
        assert_eq!(last.allocation.delivered_rates(inst.workload()), baseline);
        last.allocation
            .validate(inst.workload(), inst.tau())
            .unwrap();
    }

    #[test]
    fn recover_slot_rejoins_the_reuse_pool_once() {
        let mut inc = IncrementalReallocator::default();
        let inst = instance(base_workload());
        step_unchanged(&mut inc, &inst);
        let rep = inc
            .repair_failures(&inst, &[0], SlaBudget::UNBOUNDED)
            .unwrap();
        assert!(rep.drained);
        assert!(inc.recover_slot(0));
        assert!(!inc.recover_slot(0), "recovery is one-shot");
        assert!(!inc.recover_slot(999));
    }

    /// `restore`'s carry-over queue against the per-pair sweep it
    /// replaced: every selected pair, in selection order, that the
    /// exported allocation does not place.
    fn per_pair_queue(
        selection: &Selection,
        allocation: &Allocation,
    ) -> Vec<(TopicId, SubscriberId)> {
        let placed: std::collections::HashSet<(TopicId, SubscriberId)> = allocation
            .vms()
            .flat_map(|vm| vm.rows())
            .flat_map(|(t, vs)| vs.iter().map(move |&v| (t, v)))
            .collect();
        let mut queue = Vec::new();
        for (vi, row) in selection.rows().enumerate() {
            let v = SubscriberId::new(vi as u32);
            queue.extend(row.iter().map(|&t| (t, v)).filter(|p| !placed.contains(p)));
        }
        queue
    }

    #[test]
    fn restore_queue_matches_the_per_pair_sweep_on_drill_states() {
        // One popular topic spread over several VMs plus a tail of small
        // topics; the drill fails every slot hosting the popular topic
        // (and one more) under budgets that leave repairs deferred.
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = [5u64, 9, 7, 4, 3, 6]
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        for i in 0..48usize {
            b.add_subscriber([ts[0], ts[1 + i % 5], ts[1 + (i * 7 + 2) % 5]])
                .unwrap();
        }
        let inst = McssInstance::new(b.build(), Rate::new(14), Bandwidth::new(70)).unwrap();
        for budget in [1u64, 3, 10, 25] {
            let mut live = IncrementalReallocator::default();
            step_unchanged(&mut live, &inst);
            let slots = live.checkpoint().unwrap().1.snapshot_slots();
            let mut kill: Vec<usize> = (0..slots.len())
                .filter(|&k| slots[k].rows.iter().any(|(t, _)| *t == ts[0]))
                .collect();
            assert!(kill.len() >= 3, "the popular topic spans several VMs");
            kill.push((0..slots.len()).find(|k| !kill.contains(k)).unwrap());
            live.repair_failures(&inst, &kill, SlaBudget::pairs(budget))
                .unwrap();
            assert!(live.pending_repair_pairs() > 0, "budget {budget} defers");

            for drained in 0..2 {
                let (selection, ledger, capacity) = live.checkpoint().unwrap();
                let want = per_pair_queue(selection, &ledger.to_allocation(capacity));
                let mut restored = IncrementalReallocator::default();
                restored.restore(
                    selection.clone(),
                    FleetLedger::from_slots(ledger.snapshot_slots()),
                    capacity,
                    inst.workload().rates().to_vec(),
                    inst.tau(),
                );
                let got = &restored.previous.as_ref().unwrap().pending;
                assert_eq!(*got, want, "budget {budget}, round {drained}");
                let mut live_queue = live.previous.as_ref().unwrap().pending.clone();
                live_queue.sort_unstable();
                let mut sorted = want.clone();
                sorted.sort_unstable();
                assert_eq!(live_queue, sorted, "the same pairs wait");
                // Drained, the restored allocator lands on the live fleet.
                let a = live
                    .clone()
                    .repair_failures(&inst, &[], SlaBudget::UNBOUNDED)
                    .unwrap();
                let b = restored
                    .repair_failures(&inst, &[], SlaBudget::UNBOUNDED)
                    .unwrap();
                assert!(a.drained && b.drained);
                assert_eq!(a.allocation, b.allocation);
                // One more budgeted round: a partly drained queue.
                live.repair_failures(&inst, &[], SlaBudget::pairs(budget))
                    .unwrap();
            }
        }
    }
}
