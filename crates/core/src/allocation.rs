//! The output of Stage 2: topic-subscriber pairs placed on VMs.

use cloud_cost::{CostModel, FleetCostModel, InstanceType, Money};
use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId, Workload};
use std::fmt;

/// Per-VM instance typing of a heterogeneous fleet.
///
/// A homogeneous [`Allocation`] carries one capacity for every VM; a
/// mixed-fleet allocation additionally records *which tier* each VM rents,
/// so validation can enforce per-VM capacities and reporting can price the
/// fleet tier by tier. Tiers are `(instance type, capacity)` pairs — the
/// capacity is the scale-adjusted event budget the packer enforced, which
/// the nominal [`InstanceType`] alone cannot reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetTyping {
    tiers: Vec<(InstanceType, Bandwidth)>,
    assignment: Vec<u32>,
}

impl FleetTyping {
    /// Builds a typing from the tier table and a per-VM tier assignment.
    ///
    /// # Panics
    ///
    /// Panics if an assignment entry indexes past the tier table or a
    /// tier's capacity is zero.
    pub fn new(tiers: Vec<(InstanceType, Bandwidth)>, assignment: Vec<u32>) -> Self {
        assert!(
            tiers.iter().all(|(_, cap)| !cap.is_zero()),
            "tier capacity must be positive"
        );
        assert!(
            assignment.iter().all(|&t| (t as usize) < tiers.len()),
            "assignment references an unknown tier"
        );
        FleetTyping { tiers, assignment }
    }

    /// The tier table, in the order the packer ranked it (cost density
    /// ascending for [`MixedFleetPacker`](crate::stage2::MixedFleetPacker)
    /// output).
    #[inline]
    pub fn tiers(&self) -> &[(InstanceType, Bandwidth)] {
        &self.tiers
    }

    /// Per-VM tier indices, parallel to [`Allocation::vms`].
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The tier of VM `vm`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    #[inline]
    pub fn tier_of(&self, vm: usize) -> (InstanceType, Bandwidth) {
        self.tiers[self.assignment[vm] as usize]
    }

    /// VMs per tier, parallel to [`FleetTyping::tiers`].
    pub fn tier_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.tiers.len()];
        for &t in &self.assignment {
            counts[t as usize] += 1;
        }
        counts
    }

    /// Human-readable fleet mix, e.g. `"3×c3.large + 1×c3.xlarge"`
    /// (tiers with zero VMs are omitted; an empty fleet reads `"empty"`).
    pub fn mix(&self) -> String {
        let counts = self.tier_counts();
        let parts: Vec<String> = self
            .tiers
            .iter()
            .zip(&counts)
            .filter(|(_, &n)| n > 0)
            .map(|((ty, _), &n)| format!("{n}\u{d7}{}", ty.name()))
            .collect();
        if parts.is_empty() {
            "empty".to_string()
        } else {
            parts.join(" + ")
        }
    }
}

/// All pairs of one topic placed on one VM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopicPlacement {
    /// The topic whose stream this VM ingests.
    pub topic: TopicId,
    /// The subscribers served from this VM (sorted by id).
    pub subscribers: Vec<SubscriberId>,
}

/// One virtual machine and its assigned pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmAllocation {
    placements: Vec<TopicPlacement>,
    used: Bandwidth,
}

impl VmAllocation {
    /// Wraps pre-sorted placements with an externally maintained
    /// bandwidth counter — the [`FleetLedger`](crate::FleetLedger) export
    /// path, which keeps both invariants (placements sorted by topic,
    /// subscribers sorted by id, `used` exact per Eq. 2) incrementally
    /// and must not pay a full re-sort + recompute per epoch.
    /// [`Allocation::validate`] still cross-checks `used` against the
    /// placements.
    pub(crate) fn from_sorted_parts(placements: Vec<TopicPlacement>, used: Bandwidth) -> Self {
        debug_assert!(placements.windows(2).all(|w| w[0].topic < w[1].topic));
        debug_assert!(placements
            .iter()
            .all(|p| p.subscribers.windows(2).all(|w| w[0] < w[1])));
        VmAllocation { placements, used }
    }
}

impl VmAllocation {
    /// Bandwidth in use:
    /// `bw_b = Σ_pairs ev_t + Σ_unique-topics ev_t` (paper Eq. 2).
    #[inline]
    pub fn used(&self) -> Bandwidth {
        self.used
    }

    /// The topic placements on this VM, ordered by topic id.
    #[inline]
    pub fn placements(&self) -> &[TopicPlacement] {
        &self.placements
    }

    /// Number of distinct topics (each contributes one incoming stream).
    pub fn topic_count(&self) -> usize {
        self.placements.len()
    }

    /// Number of pairs (outgoing delivery streams).
    pub fn pair_count(&self) -> u64 {
        self.placements
            .iter()
            .map(|p| p.subscribers.len() as u64)
            .sum()
    }

    /// Recomputes outgoing volume from the placements.
    pub fn outgoing_volume(&self, workload: &Workload) -> Bandwidth {
        self.placements
            .iter()
            .map(|p| workload.rate(p.topic) * p.subscribers.len() as u64)
            .sum()
    }

    /// Recomputes incoming volume (one stream per distinct topic).
    pub fn incoming_volume(&self, workload: &Workload) -> Bandwidth {
        self.placements
            .iter()
            .map(|p| Bandwidth::from(workload.rate(p.topic)))
            .sum()
    }
}

/// Why an allocation failed validation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocationError {
    /// A VM's bandwidth exceeds the capacity constraint `bw_b ≤ BC`.
    CapacityExceeded {
        /// Index of the offending VM.
        vm: usize,
        /// Its recomputed bandwidth.
        used: Bandwidth,
        /// The capacity it violates.
        capacity: Bandwidth,
    },
    /// A VM's recorded bandwidth disagrees with its placements (internal
    /// accounting bug).
    BandwidthMismatch {
        /// Index of the offending VM.
        vm: usize,
        /// The value stored during packing.
        recorded: Bandwidth,
        /// The value recomputed from placements.
        actual: Bandwidth,
    },
    /// The same pair appears twice on one VM.
    DuplicatePair {
        /// Index of the offending VM.
        vm: usize,
        /// The duplicated topic.
        topic: TopicId,
        /// The duplicated subscriber.
        subscriber: SubscriberId,
    },
    /// A subscriber receives less than `τ_v` across all VMs.
    UnsatisfiedSubscriber {
        /// The starved subscriber.
        subscriber: SubscriberId,
        /// Rate actually delivered.
        delivered: Rate,
        /// Rate required (`τ_v`).
        required: Rate,
    },
    /// A placement references a pair that is not in the workload (the
    /// subscriber is not interested in the topic).
    ForeignPair {
        /// Index of the offending VM.
        vm: usize,
        /// The topic placed.
        topic: TopicId,
        /// The subscriber that never subscribed to it.
        subscriber: SubscriberId,
    },
    /// A row without pairs names a topic the workload does not have. (A
    /// row with pairs and such a topic is a [`ForeignPair`].)
    ///
    /// [`ForeignPair`]: AllocationError::ForeignPair
    UnknownTopic {
        /// Index of the offending VM.
        vm: usize,
        /// The topic placed.
        topic: TopicId,
    },
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::CapacityExceeded { vm, used, capacity } => {
                write!(f, "vm {vm} uses {used} but capacity is {capacity}")
            }
            AllocationError::BandwidthMismatch {
                vm,
                recorded,
                actual,
            } => {
                write!(
                    f,
                    "vm {vm} recorded {recorded} but placements total {actual}"
                )
            }
            AllocationError::DuplicatePair {
                vm,
                topic,
                subscriber,
            } => {
                write!(f, "vm {vm} holds pair ({topic}, {subscriber}) twice")
            }
            AllocationError::UnsatisfiedSubscriber {
                subscriber,
                delivered,
                required,
            } => {
                write!(f, "{subscriber} receives {delivered}, needs {required}")
            }
            AllocationError::ForeignPair {
                vm,
                topic,
                subscriber,
            } => {
                write!(f, "vm {vm} serves ({topic}, {subscriber}) but {subscriber} never subscribed to {topic}")
            }
            AllocationError::UnknownTopic { vm, topic } => {
                write!(f, "vm {vm} hosts {topic}, which the workload does not have")
            }
        }
    }
}

impl std::error::Error for AllocationError {}

/// A complete Stage-2 output: the VM set `B` with all pair placements.
///
/// See [`Allocation::validate`] for the invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allocation {
    vms: Vec<VmAllocation>,
    capacity: Bandwidth,
    /// Per-VM instance typing for mixed fleets; `None` means every VM has
    /// capacity [`Allocation::capacity`] (the homogeneous case).
    typing: Option<FleetTyping>,
}

impl Allocation {
    /// Wraps pre-assembled VMs without re-sorting or recomputing
    /// bandwidth (see [`VmAllocation::from_sorted_parts`]).
    pub(crate) fn from_vm_allocations(vms: Vec<VmAllocation>, capacity: Bandwidth) -> Allocation {
        Allocation {
            vms,
            capacity,
            typing: None,
        }
    }

    /// Attaches per-VM instance typing (heterogeneous fleets). The
    /// `capacity` the allocation was built with remains the *fleet-wide*
    /// bound (the largest tier); [`Allocation::validate`] then enforces
    /// each VM's own tier capacity instead.
    ///
    /// # Panics
    ///
    /// Panics if the typing's assignment length differs from the VM count.
    pub fn with_typing(mut self, typing: FleetTyping) -> Allocation {
        assert_eq!(
            typing.assignment().len(),
            self.vms.len(),
            "typing must assign a tier to every VM"
        );
        self.typing = Some(typing);
        self
    }

    /// The per-VM instance typing, if this is a mixed-fleet allocation.
    #[inline]
    pub fn typing(&self) -> Option<&FleetTyping> {
        self.typing.as_ref()
    }

    /// The capacity constraint of VM `vm`: its tier's capacity for typed
    /// fleets, the homogeneous [`Allocation::capacity`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range on a typed allocation.
    #[inline]
    pub fn vm_capacity(&self, vm: usize) -> Bandwidth {
        match &self.typing {
            Some(typing) => typing.tier_of(vm).1,
            None => self.capacity,
        }
    }

    /// The mixed-fleet objective `Σ_i C1_i(n_i) + C2(Σ_b bw_b)` under a
    /// [`FleetCostModel`]: each VM is priced at its own tier's window
    /// rate; bandwidth is priced once, fleet-wide. Untyped allocations are
    /// priced as a homogeneous fleet of the fleet's tier whose capacity
    /// equals [`Allocation::capacity`].
    ///
    /// # Panics
    ///
    /// Panics if a typed VM's instance name is missing from `fleet`, or if
    /// an untyped allocation's capacity matches no tier.
    pub fn cost_on_fleet(&self, fleet: &FleetCostModel) -> Money {
        let vm_cost: Money = match &self.typing {
            Some(typing) => typing
                .tiers()
                .iter()
                .zip(typing.tier_counts())
                .map(|((ty, _), count)| {
                    let tier = fleet
                        .tiers()
                        .iter()
                        .position(|t| t.instance().name() == ty.name())
                        .unwrap_or_else(|| panic!("tier {:?} not in fleet", ty.name()));
                    fleet.tier(tier).vm_cost(count)
                })
                .sum(),
            None => {
                let tier = fleet
                    .tiers()
                    .iter()
                    .position(|t| t.capacity() == self.capacity)
                    .expect("no fleet tier matches the homogeneous capacity");
                fleet.tier(tier).vm_cost(self.vm_count())
            }
        };
        vm_cost + fleet.bandwidth_cost(self.total_bandwidth())
    }

    /// The VMs in deployment order.
    #[inline]
    pub fn vms(&self) -> &[VmAllocation] {
        &self.vms
    }

    /// Consumes the allocation, yielding per-VM `(topic, subscribers)`
    /// rows sorted by topic id (used by the anytime search and the
    /// mixed-fleet re-typing to take the fleet over without cloning the
    /// placement lists).
    pub(crate) fn into_vm_groups(self) -> Vec<Vec<(TopicId, Vec<SubscriberId>)>> {
        self.vms
            .into_iter()
            .map(|vm| {
                vm.placements
                    .into_iter()
                    .map(|p| (p.topic, p.subscribers))
                    .collect()
            })
            .collect()
    }

    /// Assembles an allocation from per-VM `(topic, subscribers)` rows —
    /// the ledger-native constructor: the Stage-2 allocators and the
    /// incremental [`FleetLedger`](crate::FleetLedger) both keep their
    /// fleets in this layout, so assembly is a sort + bandwidth
    /// recompute with no hashing pass. No constraint is checked here; call
    /// [`Allocation::validate`] afterwards.
    ///
    /// Rows may come in any order, but each VM must list a topic at most
    /// once. This is the one place Stage 2's output is ordered: each VM's
    /// placements are sorted by topic and each placement's subscribers by
    /// id. The topic-at-a-time packers (CBP, FFD, the mixed-fleet packer)
    /// rely on it — they finish one topic before starting the next, append
    /// rows in arrival order, and never sort while packing.
    ///
    /// ```
    /// use mcss_core::Allocation;
    /// use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId, Workload};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = Workload::builder();
    /// let t = b.add_topic(Rate::new(10))?;
    /// let v = b.add_subscriber([t])?;
    /// let w = b.build();
    ///
    /// let a = Allocation::from_groups(vec![vec![(t, vec![v])]], &w, Bandwidth::new(100));
    /// assert_eq!(a.vm_count(), 1);
    /// assert_eq!(a.total_bandwidth(), Bandwidth::new(20)); // in + out
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_groups(
        groups: Vec<Vec<(TopicId, Vec<SubscriberId>)>>,
        workload: &Workload,
        capacity: Bandwidth,
    ) -> Allocation {
        let vms = groups
            .into_iter()
            .map(|rows| {
                let mut placements: Vec<TopicPlacement> = rows
                    .into_iter()
                    .map(|(topic, mut subscribers)| {
                        subscribers.sort_unstable();
                        TopicPlacement { topic, subscribers }
                    })
                    .collect();
                placements.sort_unstable_by_key(|p| p.topic);
                let mut used = Bandwidth::ZERO;
                for p in &placements {
                    let rate = workload.rate(p.topic);
                    used += rate * (p.subscribers.len() as u64 + 1);
                }
                VmAllocation { placements, used }
            })
            .collect();
        Allocation {
            vms,
            capacity,
            typing: None,
        }
    }

    /// `|B|` — the number of VMs deployed.
    #[inline]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// The fleet-wide capacity bound this allocation was packed under —
    /// every VM's capacity in the homogeneous case, the largest tier's
    /// capacity for a typed (mixed) fleet. Per-VM bounds come from
    /// [`Allocation::vm_capacity`].
    #[inline]
    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }

    /// `Σ_b bw_b` — total bandwidth consumption.
    pub fn total_bandwidth(&self) -> Bandwidth {
        self.vms.iter().map(VmAllocation::used).sum()
    }

    /// Total outgoing delivery volume across VMs.
    pub fn outgoing_volume(&self, workload: &Workload) -> Bandwidth {
        self.vms.iter().map(|vm| vm.outgoing_volume(workload)).sum()
    }

    /// Total incoming publication volume across VMs. Splitting a topic
    /// over `k` VMs counts its rate `k` times — the replication overhead
    /// the Stage-2 optimizations fight (§II-A).
    pub fn incoming_volume(&self, workload: &Workload) -> Bandwidth {
        self.vms.iter().map(|vm| vm.incoming_volume(workload)).sum()
    }

    /// Total pairs placed.
    pub fn pair_count(&self) -> u64 {
        self.vms.iter().map(VmAllocation::pair_count).sum()
    }

    /// The objective value `C1(|B|) + C2(Σ_b bw_b)` under a cost model.
    pub fn cost(&self, model: &dyn CostModel) -> Money {
        model.total_cost(self.vm_count(), self.total_bandwidth())
    }

    /// Rate delivered to each subscriber, counting a pair once even if
    /// (contrary to our packers' behaviour) it appears on several VMs —
    /// the `max_b x_tvb` semantics of Eq. 3.
    ///
    /// It reads the placed pairs transposed by subscriber, as
    /// [`Allocation::validate`]'s verdict pass does. Pairs outside the
    /// interest relation (possible only on invalid input; `validate`
    /// rejects them) count once too. A pair whose subscriber id is not in
    /// the workload is skipped: there is no subscriber to credit.
    ///
    /// # Panics
    ///
    /// Panics if a placement names a topic the workload does not have, or
    /// if the allocation places more than `u32::MAX` pairs.
    pub fn delivered_rates(&self, workload: &Workload) -> Vec<Rate> {
        let mut placed = PlacedBySubscriber::new(self, workload)
            .expect("an allocation places at most u32::MAX pairs");
        workload
            .subscribers()
            .map(|v| placed.distinct(v).map(|t| workload.rate(t)).sum())
            .collect()
    }

    /// Verifies every MCSS constraint (paper Eq. 2–3) plus internal
    /// accounting. VM by VM, in deployment order, it checks each row
    /// (topic placement) in turn:
    ///
    /// 1. the row's topic is not the previous row's topic
    ///    ([`AllocationError::DuplicatePair`] naming the row's first
    ///    subscriber);
    /// 2. no subscriber repeats within the row (`DuplicatePair`);
    /// 3. each of the row's pairs is a real interest of a subscriber the
    ///    workload has ([`AllocationError::ForeignPair`]), and a row
    ///    without pairs names a topic the workload has
    ///    ([`AllocationError::UnknownTopic`]);
    ///
    /// and then the VM as a whole:
    ///
    /// 4. its recorded bandwidth equals the Eq. 2 value recomputed from
    ///    its rows ([`AllocationError::BandwidthMismatch`]);
    /// 5. `bw_b ≤ BC` — the VM's *own tier* capacity on a typed
    ///    (mixed-fleet) allocation, the shared capacity otherwise
    ///    ([`AllocationError::CapacityExceeded`]).
    ///
    /// After every VM passed, 6. every subscriber receives at least `τ_v`
    /// ([`AllocationError::UnsatisfiedSubscriber`]).
    ///
    /// A verdict pass decides whether all six hold. It checks each VM's
    /// rows and bandwidth, then transposes the placed pairs by subscriber
    /// (a count, a prefix sum and a scatter) and walks the subscribers in
    /// id order. Each subscriber's placed topics are searched in its
    /// interest row, which the walk reads in arena order; a per-topic mark
    /// credits each distinct pair once. The row's rates are summed for
    /// `τ_v` only when the delivered rate is below `τ` and some interest
    /// is still undelivered. Only when a check fails does `validate`
    /// re-run the checks as a sweep in the order above to name the first
    /// violation: one interest-row search per placed pair for step 3, and
    /// the delivered rates of [`Allocation::delivered_rates`], read from
    /// the same transpose, for step 6. The two passes share each row and
    /// VM rule of steps 1, 2, 4 and 5. Both read only the primary
    /// interest CSR and the rates, never the derived arenas, so `validate`
    /// stays an oracle independent of them.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in the order above.
    ///
    /// # Panics
    ///
    /// Panics if the allocation places more than `u32::MAX` pairs and
    /// passes steps 1–5, since the transpose indexes its pairs with `u32`.
    pub fn validate(&self, workload: &Workload, tau: Rate) -> Result<(), AllocationError> {
        if self.holds(workload, tau) {
            return Ok(());
        }
        self.first_violation(workload, tau)
    }

    /// Calls `f` with every placed pair, VM by VM and row by row.
    fn for_each_pair(&self, mut f: impl FnMut(SubscriberId, TopicId)) {
        for vm in &self.vms {
            for p in &vm.placements {
                for &v in &p.subscribers {
                    f(v, p.topic);
                }
            }
        }
    }

    /// The verdict pass of [`Allocation::validate`]: whether every check
    /// holds, without naming a violation.
    fn holds(&self, workload: &Workload, tau: Rate) -> bool {
        for (i, vm) in self.vms.iter().enumerate() {
            let mut prev: Option<TopicId> = None;
            let mut actual = Bandwidth::ZERO;
            for p in vm.placements() {
                // A topic past the workload's fails step 3, which the walk
                // below checks; rejecting it here lets the rate be read.
                if p.topic.index() >= workload.num_topics() || row_error(i, prev, p).is_some() {
                    return false;
                }
                prev = Some(p.topic);
                actual += workload.rate(p.topic) * (p.subscribers.len() as u64 + 1);
            }
            if self.vm_error(i, actual).is_some() {
                return false;
            }
        }
        let Some(mut placed) = PlacedBySubscriber::new(self, workload) else {
            return false;
        };
        placed.every_subscriber_known
            && workload.subscribers().all(|v| {
                let interests = workload.interests(v);
                let (mut delivered, mut distinct) = (Rate::ZERO, 0);
                for t in placed.distinct(v) {
                    if interests.binary_search(&t).is_err() {
                        return false;
                    }
                    delivered += workload.rate(t);
                    distinct += 1;
                }
                delivered >= tau
                    || distinct == interests.len()
                    || delivered >= workload.tau_v(v, tau)
            })
    }

    /// The sweep of [`Allocation::validate`]: the checks in their
    /// documented order, returning the first violation.
    fn first_violation(&self, workload: &Workload, tau: Rate) -> Result<(), AllocationError> {
        for (i, vm) in self.vms.iter().enumerate() {
            let mut prev: Option<TopicId> = None;
            let mut actual = Bandwidth::ZERO;
            for p in vm.placements() {
                if let Some(error) = row_error(i, prev, p) {
                    return Err(error);
                }
                prev = Some(p.topic);
                let foreign = p.subscribers.iter().find(|&&v| {
                    v.index() >= workload.num_subscribers()
                        || workload.interests(v).binary_search(&p.topic).is_err()
                });
                if let Some(&v) = foreign {
                    return Err(AllocationError::ForeignPair {
                        vm: i,
                        topic: p.topic,
                        subscriber: v,
                    });
                }
                if p.topic.index() >= workload.num_topics() {
                    return Err(AllocationError::UnknownTopic {
                        vm: i,
                        topic: p.topic,
                    });
                }
                actual += workload.rate(p.topic) * (p.subscribers.len() as u64 + 1);
            }
            if let Some(error) = self.vm_error(i, actual) {
                return Err(error);
            }
        }
        let delivered = self.delivered_rates(workload);
        for v in workload.subscribers() {
            let required = workload.tau_v(v, tau);
            if delivered[v.index()] < required {
                return Err(AllocationError::UnsatisfiedSubscriber {
                    subscriber: v,
                    delivered: delivered[v.index()],
                    required,
                });
            }
        }
        Ok(())
    }

    /// Steps 4–5 of [`Allocation::validate`] for VM `i`, whose rows
    /// total `actual` under Eq. 2.
    fn vm_error(&self, i: usize, actual: Bandwidth) -> Option<AllocationError> {
        let used = self.vms[i].used();
        if actual != used {
            return Some(AllocationError::BandwidthMismatch {
                vm: i,
                recorded: used,
                actual,
            });
        }
        let capacity = self.vm_capacity(i);
        (used > capacity).then_some(AllocationError::CapacityExceeded {
            vm: i,
            used,
            capacity,
        })
    }
}

/// Steps 1–2 of [`Allocation::validate`] for row `p` of VM `vm`, whose
/// previous row placed `prev`.
fn row_error(vm: usize, prev: Option<TopicId>, p: &TopicPlacement) -> Option<AllocationError> {
    let duplicate = |subscriber| AllocationError::DuplicatePair {
        vm,
        topic: p.topic,
        subscriber,
    };
    if prev == Some(p.topic) {
        let first = p.subscribers.first().copied();
        return Some(duplicate(first.unwrap_or(SubscriberId::new(0))));
    }
    p.subscribers
        .windows(2)
        .find(|pair| pair[0] == pair[1])
        .map(|pair| duplicate(pair[0]))
}

/// The placed pairs transposed by subscriber: row `v` holds the topic of
/// every pair placed for `v`, repeats included, in VM order reversed. The
/// offset table is the scatter's cursor, so the transpose is two `u32`
/// buffers.
struct PlacedBySubscriber {
    /// Row `v` is `topics[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    topics: Vec<TopicId>,
    /// Per topic, one more than the last subscriber whose row met it, so
    /// a repeat within a row is seen without clearing between rows.
    marks: Vec<u32>,
    /// Whether every placed pair names a subscriber of the workload; the
    /// others are left out.
    every_subscriber_known: bool,
}

impl PlacedBySubscriber {
    /// Transposes `allocation`'s pairs over `workload`'s subscribers, or
    /// `None` past `u32::MAX` pairs.
    fn new(allocation: &Allocation, workload: &Workload) -> Option<PlacedBySubscriber> {
        let n = workload.num_subscribers();
        // Count each row into `offsets[v]`; the running sum then leaves
        // each row's end there, and the scatter steps it back to the start.
        let mut offsets = vec![0u32; n + 1];
        let mut known = 0u64;
        allocation.for_each_pair(|v, _| {
            if let Some(count) = offsets[..n].get_mut(v.index()) {
                *count += 1;
                known += 1;
            }
        });
        let total = u32::try_from(known).ok()?;
        let mut end = 0u32;
        for offset in &mut offsets[..n] {
            end += *offset;
            *offset = end;
        }
        offsets[n] = total;
        let mut topics = vec![TopicId::new(0); total as usize];
        allocation.for_each_pair(|v, t| {
            if let Some(cursor) = offsets[..n].get_mut(v.index()) {
                *cursor -= 1;
                topics[*cursor as usize] = t;
            }
        });
        Some(PlacedBySubscriber {
            offsets,
            topics,
            marks: vec![0; workload.num_topics()],
            every_subscriber_known: known == allocation.pair_count(),
        })
    }

    /// The distinct topics placed for `v`. A row may be visited once.
    ///
    /// # Panics
    ///
    /// Panics on a topic past the workload's.
    fn distinct(&mut self, v: SubscriberId) -> impl Iterator<Item = TopicId> + '_ {
        let row = self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize;
        let (marks, mark) = (&mut self.marks, v.raw() + 1);
        self.topics[row]
            .iter()
            .copied()
            .filter(move |t| std::mem::replace(&mut marks[t.index()], mark) != mark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        let mut b = Workload::builder();
        let t0 = b.add_topic(Rate::new(20)).unwrap();
        let t1 = b.add_topic(Rate::new(10)).unwrap();
        b.add_subscriber([t0, t1]).unwrap(); // v0
        b.add_subscriber([t1]).unwrap(); // v1
        b.build()
    }

    /// One VM's `(topic, subscribers)` rows.
    fn rows(entries: &[(u32, &[u32])]) -> Vec<(TopicId, Vec<SubscriberId>)> {
        entries
            .iter()
            .map(|&(t, vs)| {
                (
                    TopicId::new(t),
                    vs.iter().map(|&v| SubscriberId::new(v)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn bandwidth_accounting_matches_eq2() {
        let w = workload();
        // One VM with both pairs of t1 and the single pair of t0:
        // outgoing 20+10+10 = 40, incoming 20+10 = 30, total 70.
        let a = Allocation::from_groups(
            vec![rows(&[(0, &[0]), (1, &[0, 1])])],
            &w,
            Bandwidth::new(100),
        );
        assert_eq!(a.vm_count(), 1);
        assert_eq!(a.total_bandwidth(), Bandwidth::new(70));
        assert_eq!(a.outgoing_volume(&w), Bandwidth::new(40));
        assert_eq!(a.incoming_volume(&w), Bandwidth::new(30));
        assert_eq!(a.pair_count(), 3);
        assert!(a.validate(&w, Rate::new(30)).is_ok());
    }

    #[test]
    fn splitting_topic_doubles_incoming() {
        let w = workload();
        let a = Allocation::from_groups(
            vec![rows(&[(1, &[0])]), rows(&[(1, &[1])])],
            &w,
            Bandwidth::new(100),
        );
        // Each VM: 10 out + 10 in = 20.
        assert_eq!(a.total_bandwidth(), Bandwidth::new(40));
        assert_eq!(a.incoming_volume(&w), Bandwidth::new(20));
    }

    #[test]
    fn validate_catches_capacity_violation() {
        let w = workload();
        let a = Allocation::from_groups(
            vec![rows(&[(0, &[0]), (1, &[0, 1])])],
            &w,
            Bandwidth::new(69),
        );
        assert_eq!(
            a.validate(&w, Rate::ZERO),
            Err(AllocationError::CapacityExceeded {
                vm: 0,
                used: Bandwidth::new(70),
                capacity: Bandwidth::new(69),
            })
        );
    }

    #[test]
    fn validate_catches_starvation() {
        let w = workload();
        // Only v0 served; v1 needs 10 (τ_v = min(30, 10)).
        let a =
            Allocation::from_groups(vec![rows(&[(0, &[0]), (1, &[0])])], &w, Bandwidth::new(100));
        assert_eq!(
            a.validate(&w, Rate::new(30)),
            Err(AllocationError::UnsatisfiedSubscriber {
                subscriber: SubscriberId::new(1),
                delivered: Rate::ZERO,
                required: Rate::new(10),
            })
        );
    }

    #[test]
    fn validate_catches_duplicate_subscriber() {
        let w = workload();
        let mut vm0 = rows(&[(1, &[0])]);
        vm0[0].1.push(SubscriberId::new(0));
        let a = Allocation::from_groups(vec![vm0], &w, Bandwidth::new(100));
        assert_eq!(
            a.validate(&w, Rate::ZERO),
            Err(AllocationError::DuplicatePair {
                vm: 0,
                topic: TopicId::new(1),
                subscriber: SubscriberId::new(0),
            })
        );
    }

    #[test]
    fn validate_catches_foreign_pair() {
        let w = workload();
        // v1 never subscribed to t0.
        let a = Allocation::from_groups(vec![rows(&[(0, &[1])])], &w, Bandwidth::new(100));
        assert_eq!(
            a.validate(&w, Rate::ZERO),
            Err(AllocationError::ForeignPair {
                vm: 0,
                topic: TopicId::new(0),
                subscriber: SubscriberId::new(1),
            })
        );
    }

    /// A VM built field by field, bypassing `from_groups`' sort and
    /// bandwidth recompute, so a test can plant any inconsistency.
    fn vm(rows: &[(u32, &[u32])], used: u64) -> VmAllocation {
        VmAllocation {
            placements: rows
                .iter()
                .map(|&(t, vs)| TopicPlacement {
                    topic: TopicId::new(t),
                    subscribers: vs.iter().map(|&v| SubscriberId::new(v)).collect(),
                })
                .collect(),
            used: Bandwidth::new(used),
        }
    }

    #[test]
    fn validate_catches_bandwidth_mismatch() {
        let w = workload();
        // (t1, {v0, v1}) costs 10·2 out + 10 in = 30, recorded as 31.
        let a = Allocation::from_vm_allocations(vec![vm(&[(1, &[0, 1])], 31)], Bandwidth::new(100));
        assert_eq!(
            a.validate(&w, Rate::ZERO),
            Err(AllocationError::BandwidthMismatch {
                vm: 0,
                recorded: Bandwidth::new(31),
                actual: Bandwidth::new(30),
            })
        );
    }

    #[test]
    fn validate_catches_a_topic_placed_twice_on_one_vm() {
        let w = workload();
        // The error names the second row's first subscriber ...
        let a = Allocation::from_vm_allocations(
            vec![vm(&[(1, &[0]), (1, &[1])], 40)],
            Bandwidth::new(100),
        );
        assert_eq!(
            a.validate(&w, Rate::ZERO),
            Err(AllocationError::DuplicatePair {
                vm: 0,
                topic: TopicId::new(1),
                subscriber: SubscriberId::new(1),
            })
        );
        // ... or subscriber 0 when that row is empty.
        let a = Allocation::from_vm_allocations(
            vec![vm(&[(0, &[0]), (1, &[0]), (1, &[])], 70)],
            Bandwidth::new(100),
        );
        assert_eq!(
            a.validate(&w, Rate::ZERO),
            Err(AllocationError::DuplicatePair {
                vm: 0,
                topic: TopicId::new(1),
                subscriber: SubscriberId::new(0),
            })
        );
    }

    #[test]
    fn validate_reports_the_first_violation_in_vm_order() {
        // t0 (rate 20) is followed by v0 and v2, t1 (rate 10) by all three.
        let w = Workload::from_parts(
            vec![Rate::new(20), Rate::new(10)],
            vec![
                vec![TopicId::new(0), TopicId::new(1)],
                vec![TopicId::new(1)],
                vec![TopicId::new(0), TopicId::new(1)],
            ],
        );
        let fleet =
            |vms: Vec<VmAllocation>| Allocation::from_vm_allocations(vms, Bandwidth::new(60));
        let valid = || vm(&[(1, &[0])], 20);
        // VM 1 holds a foreign pair in its first row and a duplicate
        // subscriber in its second; VM 2 misrecords its bandwidth; VM 3
        // exceeds the capacity; nobody serves v1 its τ_v.
        let mut vms = vec![
            valid(),
            vm(&[(0, &[1]), (1, &[2, 2])], 50),
            vm(&[(1, &[1])], 25),
            vm(&[(0, &[0, 2]), (1, &[2])], 80),
        ];
        let tau = Rate::new(10);
        let error = |vms: &[VmAllocation]| fleet(vms.to_vec()).validate(&w, tau);
        assert_eq!(
            error(&vms),
            Err(AllocationError::ForeignPair {
                vm: 1,
                topic: TopicId::new(0),
                subscriber: SubscriberId::new(1),
            })
        );
        // An empty row of an unknown topic fails step 3 in its turn: after
        // an earlier row's foreign pair, before a later one's.
        vms[1] = vm(&[(0, &[1]), (7, &[])], 0);
        assert_eq!(
            error(&vms),
            Err(AllocationError::ForeignPair {
                vm: 1,
                topic: TopicId::new(0),
                subscriber: SubscriberId::new(1),
            })
        );
        vms[1] = vm(&[(7, &[]), (0, &[1])], 0);
        assert_eq!(
            error(&vms),
            Err(AllocationError::UnknownTopic {
                vm: 1,
                topic: TopicId::new(7),
            })
        );
        // Within one row, a duplicate subscriber outranks an earlier
        // foreign one.
        vms[1] = vm(&[(0, &[1, 2, 2])], 80);
        assert_eq!(
            error(&vms),
            Err(AllocationError::DuplicatePair {
                vm: 1,
                topic: TopicId::new(0),
                subscriber: SubscriberId::new(2),
            })
        );
        vms[1] = valid();
        assert_eq!(
            error(&vms),
            Err(AllocationError::BandwidthMismatch {
                vm: 2,
                recorded: Bandwidth::new(25),
                actual: Bandwidth::new(20),
            })
        );
        vms[2] = valid();
        assert_eq!(
            error(&vms),
            Err(AllocationError::CapacityExceeded {
                vm: 3,
                used: Bandwidth::new(80),
                capacity: Bandwidth::new(60),
            })
        );
        vms[3] = valid();
        assert_eq!(
            error(&vms),
            Err(AllocationError::UnsatisfiedSubscriber {
                subscriber: SubscriberId::new(1),
                delivered: Rate::ZERO,
                required: Rate::new(10),
            })
        );
        vms.push(vm(&[(1, &[1, 2])], 30));
        vms.push(vm(&[(0, &[2])], 40));
        assert_eq!(error(&vms), Ok(()));
    }

    /// `validate` as it stood before the one-sweep rewrite: a binary
    /// search of the interest row per placed pair for the foreign check,
    /// then a second `pair_index` search per pair for delivery. Kept as
    /// the oracle `validate` must match result for result.
    fn validate_two_search(
        a: &Allocation,
        workload: &Workload,
        tau: Rate,
    ) -> Result<(), AllocationError> {
        for (i, vm) in a.vms.iter().enumerate() {
            let mut prev: Option<TopicId> = None;
            for p in vm.placements() {
                if prev == Some(p.topic) {
                    return Err(AllocationError::DuplicatePair {
                        vm: i,
                        topic: p.topic,
                        subscriber: p
                            .subscribers
                            .first()
                            .copied()
                            .unwrap_or(SubscriberId::new(0)),
                    });
                }
                prev = Some(p.topic);
                for pair in p.subscribers.windows(2) {
                    if pair[0] == pair[1] {
                        return Err(AllocationError::DuplicatePair {
                            vm: i,
                            topic: p.topic,
                            subscriber: pair[0],
                        });
                    }
                }
                for &v in &p.subscribers {
                    if v.index() >= workload.num_subscribers()
                        || workload.interests(v).binary_search(&p.topic).is_err()
                    {
                        return Err(AllocationError::ForeignPair {
                            vm: i,
                            topic: p.topic,
                            subscriber: v,
                        });
                    }
                }
                if p.subscribers.is_empty() && p.topic.index() >= workload.num_topics() {
                    return Err(AllocationError::UnknownTopic {
                        vm: i,
                        topic: p.topic,
                    });
                }
            }
            let actual = vm.outgoing_volume(workload) + vm.incoming_volume(workload);
            if actual != vm.used() {
                return Err(AllocationError::BandwidthMismatch {
                    vm: i,
                    recorded: vm.used(),
                    actual,
                });
            }
            let vm_capacity = a.vm_capacity(i);
            if vm.used() > vm_capacity {
                return Err(AllocationError::CapacityExceeded {
                    vm: i,
                    used: vm.used(),
                    capacity: vm_capacity,
                });
            }
        }
        let mut seen = vec![false; workload.pair_count() as usize];
        let mut delivered = vec![Rate::ZERO; workload.num_subscribers()];
        for vm in &a.vms {
            for p in vm.placements() {
                for &v in &p.subscribers {
                    let i = workload
                        .pair_index(v, p.topic)
                        .expect("foreign pairs returned above");
                    if !seen[i] {
                        seen[i] = true;
                        delivered[v.index()] += workload.rate(p.topic);
                    }
                }
            }
        }
        for v in workload.subscribers() {
            let required = workload.tau_v(v, tau);
            if delivered[v.index()] < required {
                return Err(AllocationError::UnsatisfiedSubscriber {
                    subscriber: v,
                    delivered: delivered[v.index()],
                    required,
                });
            }
        }
        Ok(())
    }

    /// Number of mutation kinds [`mutated_case`] knows, the last being
    /// "no mutation".
    const MUTATIONS: u8 = 11;

    /// A random small instance — workload (a fifth of its rates zero), an
    /// allocation of a random subset of its pairs over a few VMs
    /// (sometimes typed), and τ (zero, past every row's total, or drawn)
    /// — with one injected mutation:
    ///
    /// 0. a dropped pair;
    /// 1. an added foreign pair;
    /// 2. an out-of-range topic id;
    /// 3. a duplicated subscriber;
    /// 4. a duplicated topic row;
    /// 5. a perturbed `used`;
    /// 6. a shrunken (tier) capacity;
    /// 7. a pair naming a subscriber the workload does not have;
    /// 8. one pair placed on two VMs;
    /// 9. an empty row naming a topic past the workload's;
    /// 10. none.
    ///
    /// A mutation with no target in the drawn instance is skipped.
    fn mutated_case(seed: u64, mutation: u8) -> (Workload, Allocation, Rate) {
        use cloud_cost::instances;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let mut rng = StdRng::seed_from_u64(seed);
        let topics = rng.gen_range(1..6usize);
        let rates = (0..topics)
            .map(|_| match rng.gen_bool(0.2) {
                true => Rate::ZERO,
                false => Rate::new(rng.gen_range(1..50u64)),
            })
            .collect();
        let interests = (0..rng.gen_range(1..8usize))
            .map(|_| {
                (0..topics as u32)
                    .filter(|_| rng.gen_bool(0.6))
                    .map(TopicId::new)
                    .collect()
            })
            .collect();
        let w = Workload::from_parts(rates, interests);
        let vm_count = rng.gen_range(1..4usize);
        let mut groups: Vec<BTreeMap<TopicId, Vec<SubscriberId>>> = vec![BTreeMap::new(); vm_count];
        for t in w.topics() {
            for &v in w.subscribers_of(t) {
                if rng.gen_bool(0.85) {
                    let b = rng.gen_range(0..vm_count);
                    groups[b].entry(t).or_default().push(v);
                }
            }
        }
        let mut pick_row = |groups: &mut [BTreeMap<TopicId, Vec<SubscriberId>>]| {
            let rows: Vec<(usize, TopicId)> = groups
                .iter()
                .enumerate()
                .flat_map(|(b, g)| g.keys().map(move |&t| (b, t)))
                .collect();
            (!rows.is_empty()).then(|| rows[rng.gen_range(0..rows.len())])
        };
        match mutation {
            0 => {
                if let Some((b, t)) = pick_row(&mut groups) {
                    let subs = groups[b].get_mut(&t).unwrap();
                    subs.remove(seed as usize % subs.len());
                }
            }
            1 => {
                let foreign: Vec<(TopicId, SubscriberId)> = w
                    .topics()
                    .flat_map(|t| w.subscribers().map(move |v| (t, v)))
                    .filter(|&(t, v)| w.pair_index(v, t).is_none())
                    .collect();
                if !foreign.is_empty() {
                    let (t, v) = foreign[seed as usize % foreign.len()];
                    groups[seed as usize % vm_count]
                        .entry(t)
                        .or_default()
                        .push(v);
                }
            }
            3 => {
                if let Some((b, t)) = pick_row(&mut groups) {
                    let subs = groups[b].get_mut(&t).unwrap();
                    let v = subs[seed as usize % subs.len()];
                    subs.push(v);
                }
            }
            7 => {
                let t = TopicId::new((seed % topics as u64) as u32);
                let v = w.num_subscribers() as u32 + rng.gen_range(0..3u32);
                groups[seed as usize % vm_count]
                    .entry(t)
                    .or_default()
                    .push(SubscriberId::new(v));
            }
            8 => {
                if let Some((b, t)) = pick_row(&mut groups) {
                    let subs = &groups[b][&t];
                    let v = subs[seed as usize % subs.len()];
                    if groups.len() == 1 {
                        groups.push(BTreeMap::new());
                    }
                    let other = (b + 1) % groups.len();
                    groups[other].entry(t).or_default().push(v);
                }
            }
            _ => {}
        }
        let groups = groups
            .into_iter()
            .map(|g| g.into_iter().collect())
            .collect();
        let mut a = Allocation::from_groups(groups, &w, Bandwidth::new(1));
        let max_used = a
            .vms
            .iter()
            .map(|vm| vm.used())
            .max()
            .unwrap_or(Bandwidth::ZERO);
        a.capacity = max_used + Bandwidth::new(rng.gen_range(1..20u64));
        if rng.gen_bool(0.3) {
            let tiers = vec![
                (instances::C3_LARGE, max_used + Bandwidth::new(1)),
                (instances::C3_XLARGE, a.capacity),
            ];
            let assignment = (0..a.vm_count()).map(|_| rng.gen_range(0..2u32)).collect();
            a = a.with_typing(FleetTyping::new(tiers, assignment));
        }
        let rows: Vec<(usize, usize)> = a
            .vms
            .iter()
            .enumerate()
            .flat_map(|(b, vm)| (0..vm.placements.len()).map(move |j| (b, j)))
            .collect();
        let row = (!rows.is_empty()).then(|| rows[rng.gen_range(0..rows.len())]);
        match (mutation, row) {
            (2, Some((b, j))) if !a.vms[b].placements[j].subscribers.is_empty() => {
                let t = topics as u32 + rng.gen_range(0..3u32);
                a.vms[b].placements[j].topic = TopicId::new(t);
            }
            (4, Some((b, j))) => {
                let copy = a.vms[b].placements[j].clone();
                a.vms[b].placements.insert(j + 1, copy);
            }
            (5, Some((b, _))) => {
                let delta = Bandwidth::new(rng.gen_range(1..5u64));
                let used = &mut a.vms[b].used;
                *used = if rng.gen_bool(0.5) && *used >= delta {
                    *used - delta
                } else {
                    *used + delta
                };
            }
            (9, Some((b, j))) => {
                let unknown = TopicPlacement {
                    topic: TopicId::new(topics as u32 + rng.gen_range(0..3u32)),
                    subscribers: Vec::new(),
                };
                a.vms[b]
                    .placements
                    .insert(j + usize::from(rng.gen_bool(0.5)), unknown);
            }
            (6, _) => {
                let shrunk = Bandwidth::new(rng.gen_range(1..=max_used.get().max(1)));
                match a.typing.take() {
                    Some(typing) => {
                        let mut tiers = typing.tiers().to_vec();
                        let tier = rng.gen_range(0..tiers.len());
                        tiers[tier].1 = shrunk;
                        a.typing = Some(FleetTyping::new(tiers, typing.assignment().to_vec()));
                    }
                    None => a.capacity = shrunk,
                }
            }
            _ => {}
        }
        let tau = match rng.gen_range(0..4u32) {
            0 => Rate::ZERO,
            1 => w.total_rate() + Rate::new(1),
            _ => Rate::new(rng.gen_range(0..60u64)),
        };
        (w, a, tau)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// `validate` returns exactly the two-search oracle's `Result` —
        /// the same variant, VM and payload — and its verdict pass alone
        /// passes exactly the allocations the oracle passes.
        #[test]
        fn validate_matches_the_two_search_oracle(seed in 0u64..u64::MAX, mutation in 0u8..MUTATIONS) {
            let (w, a, tau) = mutated_case(seed, mutation);
            let oracle = validate_two_search(&a, &w, tau);
            proptest::prop_assert_eq!(a.holds(&w, tau), oracle.is_ok());
            proptest::prop_assert_eq!(a.validate(&w, tau), oracle);
        }
    }

    /// The mutations above reach every `AllocationError` variant and the
    /// valid case, so the differential test is not vacuous.
    #[test]
    fn mutated_cases_reach_every_verdict() {
        let mut reached = [false; 7];
        for seed in 0..2_000u64 {
            let (w, a, tau) = mutated_case(seed, (seed % u64::from(MUTATIONS)) as u8);
            let verdict = match validate_two_search(&a, &w, tau) {
                Ok(()) => 0,
                Err(AllocationError::ForeignPair { .. }) => 1,
                Err(AllocationError::DuplicatePair { .. }) => 2,
                Err(AllocationError::BandwidthMismatch { .. }) => 3,
                Err(AllocationError::CapacityExceeded { .. }) => 4,
                Err(AllocationError::UnsatisfiedSubscriber { .. }) => 5,
                Err(AllocationError::UnknownTopic { .. }) => 6,
            };
            reached[verdict] = true;
        }
        assert_eq!(reached, [true; 7]);
    }

    /// `delivered_rates` equals Eq. 3 counted over a set of the placed
    /// pairs: each distinct pair once, foreign pairs included, pairs of
    /// unknown subscribers left out.
    #[test]
    fn delivered_rates_count_each_distinct_pair_once() {
        use std::collections::BTreeSet;
        for seed in 0..2_000u64 {
            let mutation = (seed % u64::from(MUTATIONS)) as u8;
            if mutation == 2 {
                continue; // an out-of-range topic has no rate to deliver
            }
            let (w, a, _) = mutated_case(seed, mutation);
            let pairs: BTreeSet<(SubscriberId, TopicId)> = a
                .vms
                .iter()
                .flat_map(|vm| &vm.placements)
                .flat_map(|p| p.subscribers.iter().map(move |&v| (v, p.topic)))
                .filter(|&(v, _)| v.index() < w.num_subscribers())
                .collect();
            let mut expected = vec![Rate::ZERO; w.num_subscribers()];
            for (v, t) in pairs {
                expected[v.index()] += w.rate(t);
            }
            assert_eq!(a.delivered_rates(&w), expected, "seed {seed}");
        }
    }

    /// An empty row naming a topic past the workload's is reported, not a
    /// panic: the sweep once read its rate after the verdict pass had
    /// rejected it.
    #[test]
    fn an_empty_row_of_an_unknown_topic_is_reported() {
        let w = workload();
        let a = Allocation::from_vm_allocations(vec![vm(&[(7, &[])], 0)], Bandwidth::new(100));
        let error = AllocationError::UnknownTopic {
            vm: 0,
            topic: TopicId::new(7),
        };
        assert_eq!(a.validate(&w, Rate::ZERO), Err(error));
        assert_eq!(validate_two_search(&a, &w, Rate::ZERO), Err(error));
        assert_eq!(
            error.to_string(),
            "vm 0 hosts t7, which the workload does not have"
        );
    }

    /// A placement may name a subscriber id past the workload's; that is
    /// a foreign pair, not a panic.
    #[test]
    fn an_unknown_subscriber_is_a_foreign_pair() {
        let mut b = Workload::builder();
        let t = b.add_topic(Rate::new(10)).unwrap();
        b.add_subscriber([t]).unwrap();
        let w = b.build();
        let a = Allocation::from_groups(vec![rows(&[(0, &[0, 1])])], &w, Bandwidth::new(100));
        assert_eq!(
            a.validate(&w, Rate::new(10)),
            Err(AllocationError::ForeignPair {
                vm: 0,
                topic: TopicId::new(0),
                subscriber: SubscriberId::new(1),
            })
        );
        assert_eq!(a.delivered_rates(&w), vec![Rate::new(10)]);
    }

    #[test]
    fn cross_vm_duplicates_count_once_for_delivery() {
        let w = workload();
        let a = Allocation::from_groups(
            vec![rows(&[(1, &[1])]), rows(&[(1, &[1])])],
            &w,
            Bandwidth::new(100),
        );
        // (t1, v1) on two VMs: delivered rate counts it once (Eq. 3's max).
        assert_eq!(a.delivered_rates(&w)[1], Rate::new(10));
        // But both VMs pay bandwidth for it.
        assert_eq!(a.total_bandwidth(), Bandwidth::new(40));
    }

    #[test]
    fn cost_uses_model() {
        use cloud_cost::LinearCostModel;
        let w = workload();
        let a = Allocation::from_groups(
            vec![rows(&[(1, &[0, 1])]), rows(&[(0, &[0])])],
            &w,
            Bandwidth::new(100),
        );
        let m = LinearCostModel::new(Money::from_dollars(10), Money::from_micros(1));
        // 2 VMs, bandwidth = (10in + 20out) + (20in + 20out) = 70... compute:
        // vm0: t1 pairs v0,v1: out 20, in 10 => 30; vm1: t0 pair v0: out 20, in 20 => 40.
        assert_eq!(a.total_bandwidth(), Bandwidth::new(70));
        assert_eq!(a.cost(&m), Money::from_dollars(20) + Money::from_micros(70));
    }

    #[test]
    fn typed_allocation_enforces_per_vm_capacity() {
        use cloud_cost::instances;
        let w = workload();
        // VM0 uses 70 (needs the big tier), VM1 uses 20 (fits the small).
        let a = Allocation::from_groups(
            vec![rows(&[(0, &[0]), (1, &[0, 1])]), rows(&[(1, &[1])])],
            &w,
            Bandwidth::new(100),
        );
        let tiers = vec![
            (instances::C3_LARGE, Bandwidth::new(25)),
            (instances::C3_XLARGE, Bandwidth::new(100)),
        ];
        let good = a
            .clone()
            .with_typing(FleetTyping::new(tiers.clone(), vec![1, 0]));
        assert!(good.validate(&w, Rate::new(30)).is_ok());
        assert_eq!(good.vm_capacity(0), Bandwidth::new(100));
        assert_eq!(good.vm_capacity(1), Bandwidth::new(25));
        assert_eq!(good.typing().unwrap().tier_counts(), vec![1, 1]);
        assert_eq!(
            good.typing().unwrap().mix(),
            "1\u{d7}c3.large + 1\u{d7}c3.xlarge"
        );

        // Assigning the 70-unit VM to the 25-unit tier must fail.
        let bad = a.with_typing(FleetTyping::new(tiers, vec![0, 1]));
        assert_eq!(
            bad.validate(&w, Rate::new(30)),
            Err(AllocationError::CapacityExceeded {
                vm: 0,
                used: Bandwidth::new(70),
                capacity: Bandwidth::new(25),
            })
        );
    }

    #[test]
    fn cost_on_fleet_prices_each_tier() {
        use cloud_cost::{instances, Ec2CostModel, FleetCostModel};
        let w = workload();
        let a = Allocation::from_groups(
            vec![rows(&[(0, &[0]), (1, &[0, 1])]), rows(&[(1, &[1])])],
            &w,
            Bandwidth::new(100),
        );
        let fleet = FleetCostModel::new(vec![
            Ec2CostModel::paper_default(instances::C3_LARGE).with_capacity_events(25),
            Ec2CostModel::paper_default(instances::C3_XLARGE).with_capacity_events(100),
        ]);
        let typed = a.with_typing(FleetTyping::new(
            vec![
                (instances::C3_LARGE, Bandwidth::new(25)),
                (instances::C3_XLARGE, Bandwidth::new(100)),
            ],
            vec![1, 0],
        ));
        // One c3.large ($36/window) + one c3.xlarge ($72) + bandwidth.
        let expected =
            cloud_cost::Money::from_dollars(108) + fleet.bandwidth_cost(typed.total_bandwidth());
        assert_eq!(typed.cost_on_fleet(&fleet), expected);
    }

    #[test]
    #[should_panic(expected = "tier to every VM")]
    fn typing_length_mismatch_panics() {
        use cloud_cost::instances;
        let w = workload();
        let a = Allocation::from_groups(vec![rows(&[(1, &[0])])], &w, Bandwidth::new(100));
        let _ = a.with_typing(FleetTyping::new(
            vec![(instances::C3_LARGE, Bandwidth::new(100))],
            vec![0, 0],
        ));
    }

    #[test]
    fn empty_allocation_is_valid_for_zero_tau() {
        let mut b = Workload::builder();
        b.add_topic(Rate::new(5)).unwrap();
        let w = b.build(); // no subscribers
        let a = Allocation::from_groups(Vec::new(), &w, Bandwidth::new(10));
        assert_eq!(a.vm_count(), 0);
        assert!(a.validate(&w, Rate::new(100)).is_ok());
    }
}
