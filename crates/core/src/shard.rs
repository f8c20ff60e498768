//! Shard-parallel solving: partition the subscribers, solve every shard's
//! two-stage pipeline concurrently, and merge the fleets.
//!
//! The paper's algorithms are sequential; their runtime (Figs. 4–7) grows
//! with the subscriber count. Subscribers are independent in Stage 1 and
//! nearly independent in Stage 2 (they only couple through shared topic
//! incoming streams), which makes the classic partitioned-solver shape a
//! natural fit:
//!
//! 1. **Partition** the subscribers into `k` shards — either uniformly by
//!    [hash](PartitionerKind::Hash), or by
//!    [topic locality](PartitionerKind::TopicLocality), which keeps the
//!    followers of a topic in one shard so fewer incoming streams are
//!    duplicated across shard fleets;
//! 2. **Solve** each shard as an ordinary MCSS instance over a zero-copy
//!    [`WorkloadView`](pubsub_model::WorkloadView) subset, on scoped
//!    threads;
//! 3. **Merge** by concatenating the shard fleets (subscriber sets are
//!    disjoint, so no pair collides) and running a cross-shard
//!    *topic-group compaction* pass: a topic split across shards pays its
//!    incoming stream once per hosting VM, so whole groups are re-homed
//!    onto co-hosting VMs with headroom, saving `ev_t` per merge.
//!
//! Every subscriber's `τ_v` depends only on its own interests, so the
//! merged allocation satisfies exactly the same thresholds as a
//! monolithic solve; the compaction pass claws back most of the
//! replication overhead partitioning introduces. Both the partitioners
//! and the merge are deterministic, so a sharded solve is reproducible
//! for a fixed configuration.

use crate::stage2::{group_pos, vm_usage, VmGroups};
use crate::{Allocation, McssError, McssInstance, Selection, SolverParams};
use cloud_cost::CostModel;
use pubsub_model::{Bandwidth, SubscriberId, TopicId, Workload};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How subscribers are divided into shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Uniform pseudo-random assignment: shard = `splitmix64(seed ⊕ v) mod k`.
    /// Best load balance, worst topic locality.
    Hash {
        /// Mixing seed; the same seed always yields the same partition.
        seed: u64,
    },
    /// Keeps each topic's followers together: every subscriber anchors to
    /// its highest-rate interest, anchor groups are assigned to shards
    /// largest-first onto the least-loaded shard (LPT balancing).
    /// Minimizes cross-shard topic splits at a small balance cost.
    #[default]
    TopicLocality,
}

/// Configuration of a sharded solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardingConfig {
    /// Number of shards (≥ 1; 1 behaves like a monolithic solve).
    pub shards: usize,
    /// Worker threads for the per-shard solves; 0 means one per shard.
    pub threads: usize,
    /// Subscriber partitioning strategy.
    pub partitioner: PartitionerKind,
}

impl ShardingConfig {
    /// `shards` shards, one worker thread each, topic-locality partitioning.
    pub fn new(shards: usize) -> Self {
        ShardingConfig {
            shards,
            threads: 0,
            partitioner: PartitionerKind::default(),
        }
    }

    /// Overrides the worker thread count (0 = one per shard).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the partitioner.
    pub fn with_partitioner(mut self, partitioner: PartitionerKind) -> Self {
        self.partitioner = partitioner;
        self
    }

    pub(crate) fn workers(&self) -> usize {
        let requested = if self.threads == 0 {
            self.shards
        } else {
            self.threads
        };
        requested.min(self.shards).max(1)
    }
}

/// What the merge step did to the concatenated shard fleets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Topic groups moved onto a VM already hosting the topic (each such
    /// move removes one duplicated incoming stream).
    pub groups_rehomed: usize,
    /// Bandwidth recovered by co-host re-homes.
    pub bandwidth_saved: Bandwidth,
    /// VMs emptied — by re-homing or by dissolving an under-full VM into
    /// the rest of the fleet — and released.
    pub vms_released: usize,
}

/// Everything a sharded solve produces.
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// The merged, compaction-passed allocation (arena subscriber ids).
    pub allocation: Allocation,
    /// The union of the shard selections, in arena indexing.
    pub selection: Selection,
    /// Subscribers per shard, in shard order.
    pub shard_sizes: Vec<usize>,
    /// Compaction statistics.
    pub merge: MergeStats,
    /// Critical-path Stage-1 time (slowest shard).
    pub stage1_time: Duration,
    /// Critical-path Stage-2 time (slowest shard) plus the merge pass.
    pub stage2_time: Duration,
}

/// Partitions a workload's subscribers into `shards` disjoint groups,
/// each sorted by subscriber id. Deterministic for a fixed strategy.
///
/// # Panics
///
/// Panics if `shards` is zero (checked by callers via
/// [`McssError::ZeroShards`]).
pub fn partition_subscribers(
    workload: &Workload,
    shards: usize,
    partitioner: PartitionerKind,
) -> Vec<Vec<SubscriberId>> {
    assert!(shards > 0, "shard count must be at least 1");
    let mut parts: Vec<Vec<SubscriberId>> = vec![Vec::new(); shards];
    if shards == 1 {
        parts[0] = workload.subscribers().collect();
        return parts;
    }
    match partitioner {
        PartitionerKind::Hash { seed } => {
            for v in workload.subscribers() {
                let h = splitmix64(seed ^ u64::from(v.raw()).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                parts[(h % shards as u64) as usize].push(v);
            }
        }
        PartitionerKind::TopicLocality => {
            // Anchor each subscriber to its loudest interest (ties to the
            // lowest topic id) — the head of its rate-ranked row, an O(1)
            // lookup. Anchor groups invert through the shared counting-
            // sort CSR (no hashing, no per-topic Vecs); anchorless
            // subscribers balance in afterwards.
            let mut pairs: Vec<(TopicId, SubscriberId)> =
                Vec::with_capacity(workload.num_subscribers());
            let mut anchorless: Vec<SubscriberId> = Vec::new();
            for v in workload.subscribers() {
                match workload.ranked_interests(v).first() {
                    Some(&t) => pairs.push((t, v)),
                    None => anchorless.push(v),
                }
            }
            let groups = crate::TopicGroups::from_pairs(&pairs, workload.num_topics());
            // Largest group first onto the least-loaded shard (LPT), ties
            // by topic id then shard index — deterministic.
            let mut ordered: Vec<u32> = (0..groups.len() as u32).collect();
            ordered.sort_unstable_by_key(|&g| {
                (
                    Reverse(groups.subscribers(g as usize).len()),
                    groups.topic(g as usize),
                )
            });
            let mut load = vec![0usize; shards];
            for g in ordered {
                let vs = groups.subscribers(g as usize);
                let target = least_loaded(&load);
                load[target] += vs.len();
                parts[target].extend_from_slice(vs);
            }
            for v in anchorless {
                let target = least_loaded(&load);
                load[target] += 1;
                parts[target].push(v);
            }
        }
    }
    for p in &mut parts {
        p.sort_unstable();
    }
    parts
}

fn least_loaded(load: &[usize]) -> usize {
    let mut best = 0usize;
    for (i, &l) in load.iter().enumerate() {
        if l < load[best] {
            best = i;
        }
    }
    best
}

/// `splitmix64` finalizer — a cheap, well-mixed stateless hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard-parallel two-stage solver.
///
/// ```
/// use cloud_cost::{LinearCostModel, Money};
/// use mcss_core::{McssInstance, ShardedSolver, ShardingConfig, SolverParams};
/// use pubsub_model::{Bandwidth, Rate, Workload};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Workload::builder();
/// let t = b.add_topic(Rate::new(10))?;
/// for _ in 0..8 {
///     b.add_subscriber([t])?;
/// }
/// let inst = McssInstance::new(b.build(), Rate::new(10), Bandwidth::new(100))?;
/// let cost = LinearCostModel::new(Money::from_dollars(1), Money::from_micros(1));
///
/// let solver = ShardedSolver::new(SolverParams::default(), ShardingConfig::new(2));
/// let outcome = solver.solve(&inst, &cost)?;
/// outcome.allocation.validate(inst.workload(), inst.tau())?;
/// assert_eq!(outcome.shard_sizes.iter().sum::<usize>(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ShardedSolver {
    params: SolverParams,
    sharding: ShardingConfig,
}

/// One shard's solve products, in arrival order.
struct ShardSolve {
    selection: Selection,
    allocation: Allocation,
    stage1: Duration,
    stage2: Duration,
}

impl ShardedSolver {
    /// Creates a sharded solver running `params`' selector and allocator
    /// per shard. Any `sharding` already present in `params` is ignored
    /// in favour of the explicit configuration.
    pub fn new(params: SolverParams, sharding: ShardingConfig) -> Self {
        ShardedSolver { params, sharding }
    }

    /// The sharding configuration.
    pub fn sharding(&self) -> ShardingConfig {
        self.sharding
    }

    /// Partitions, solves every shard on scoped threads, and merges.
    ///
    /// # Errors
    ///
    /// [`McssError::ZeroShards`] for a zero shard count; otherwise the
    /// first per-shard selector/allocator error in shard order.
    pub fn solve(
        &self,
        instance: &McssInstance,
        cost: &dyn CostModel,
    ) -> Result<ShardedOutcome, McssError> {
        if self.sharding.shards == 0 {
            return Err(McssError::ZeroShards);
        }
        let workload = instance.workload();
        let partition =
            partition_subscribers(workload, self.sharding.shards, self.sharding.partitioner);
        let tau = instance.tau();
        let capacity = instance.capacity();
        let params = self.params;

        let shard_solves = run_shards(&partition, self.sharding.workers(), |subs| {
            let view = workload.subset_view(subs);
            let selector = params.selector.build();
            let allocator = params.allocator.build();
            let t0 = Instant::now();
            let selection = selector.select_view(view, tau)?;
            let stage1 = t0.elapsed();
            let t1 = Instant::now();
            let allocation = allocator.allocate_view(view, &selection, capacity, cost)?;
            let stage2 = t1.elapsed();
            Ok(ShardSolve {
                selection,
                allocation,
                stage1,
                stage2,
            })
        })?;

        let stage1_time = shard_solves
            .iter()
            .map(|s| s.stage1)
            .max()
            .unwrap_or_default();
        let shard2_time = shard_solves
            .iter()
            .map(|s| s.stage2)
            .max()
            .unwrap_or_default();

        // Scatter shard-local selection rows back to arena indexing: one
        // pass sizes every arena row, a second copies the rows into a
        // global CSR selection — no per-subscriber allocation.
        let merge_start = Instant::now();
        let n = workload.num_subscribers();
        let mut offsets = vec![0usize; n + 1];
        for (subs, solve) in partition.iter().zip(&shard_solves) {
            for (local, row) in solve.selection.rows().enumerate() {
                offsets[subs[local].index() + 1] = row.len();
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut topics = vec![TopicId::new(0); offsets[n]];
        let mut fleet: Vec<VmGroups> = Vec::new();
        for (subs, solve) in partition.iter().zip(shard_solves) {
            for (local, row) in solve.selection.rows().enumerate() {
                let start = offsets[subs[local].index()];
                topics[start..start + row.len()].copy_from_slice(row);
            }
            fleet.extend(solve.allocation.into_vm_groups());
        }
        let selection = Selection::from_csr(offsets, topics);
        let merge = compact_topic_groups(&mut fleet, workload, capacity);
        let allocation = Allocation::from_groups(fleet, workload, capacity);
        let stage2_time = shard2_time + merge_start.elapsed();

        Ok(ShardedOutcome {
            allocation,
            selection,
            shard_sizes: partition.iter().map(Vec::len).collect(),
            merge,
            stage1_time,
            stage2_time,
        })
    }

    /// Packs an existing whole-workload `selection` shard-by-shard and
    /// merges — the Stage-2-only entry point used by the incremental
    /// re-allocator's full-resolve path (Stage 1 there has already run on
    /// the new workload).
    ///
    /// # Errors
    ///
    /// [`McssError::ZeroShards`] for a zero shard count; otherwise the
    /// first per-shard allocator error in shard order.
    pub fn allocate(
        &self,
        instance: &McssInstance,
        selection: &Selection,
        cost: &dyn CostModel,
    ) -> Result<(Allocation, MergeStats), McssError> {
        if self.sharding.shards == 0 {
            return Err(McssError::ZeroShards);
        }
        let workload = instance.workload();
        let partition =
            partition_subscribers(workload, self.sharding.shards, self.sharding.partitioner);
        let capacity = instance.capacity();
        let params = self.params;

        let allocations = run_shards(&partition, self.sharding.workers(), |subs| {
            let view = workload.subset_view(subs);
            let mut local = crate::SelectionBuilder::with_capacity(subs.len(), 0);
            for &v in subs {
                local.push_row_slice(selection.selected(v));
            }
            params
                .allocator
                .build()
                .allocate_view(view, &local.build(), capacity, cost)
        })?;

        let mut fleet: Vec<VmGroups> = Vec::new();
        for allocation in allocations {
            fleet.extend(allocation.into_vm_groups());
        }
        let merge = compact_topic_groups(&mut fleet, workload, capacity);
        Ok((Allocation::from_groups(fleet, workload, capacity), merge))
    }
}

/// Runs `f` once per shard across `workers` scoped threads, preserving
/// shard order in the result and reporting the first error in shard order.
fn run_shards<T: Send>(
    partition: &[Vec<SubscriberId>],
    workers: usize,
    f: impl Fn(&[SubscriberId]) -> Result<T, McssError> + Sync,
) -> Result<Vec<T>, McssError> {
    let shards = partition.len();
    let mut slots: Vec<Option<Result<T, McssError>>> = Vec::new();
    slots.resize_with(shards, || None);
    if workers <= 1 || shards <= 1 {
        for (s, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(&partition[s]));
        }
    } else {
        let chunk = shards.div_ceil(workers);
        std::thread::scope(|scope| {
            for (ci, chunk_slots) in slots.chunks_mut(chunk).enumerate() {
                let start = ci * chunk;
                let f = &f;
                scope.spawn(move || {
                    for (off, slot) in chunk_slots.iter_mut().enumerate() {
                        *slot = Some(f(&partition[start + off]));
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every shard slot is filled"))
        .collect()
}

/// The cross-shard merge pass, in two phases:
///
/// 1. **Topic-group re-homing** — while a topic is hosted on several VMs
///    and another of its hosts has headroom for a whole group, move the
///    smallest group there. Every move removes one incoming stream
///    (`ev_t`) and never adds a VM.
/// 2. **Under-full VM dissolution** — lightest VM first, try to relocate
///    *every* group of a VM onto the rest of the fleet (co-hosts
///    preferred: those moves also save an incoming stream); commit only
///    when the whole VM empties, then release it.
///
/// Both phases keep bandwidth non-increasing and only ever shrink the
/// fleet, so total cost is non-increasing under any monotone cost model;
/// both visit VMs and topics in sorted order, so the merge is
/// deterministic.
fn compact_topic_groups(
    fleet: &mut Vec<VmGroups>,
    workload: &Workload,
    capacity: Bandwidth,
) -> MergeStats {
    let mut used: Vec<Bandwidth> = fleet.iter().map(|vm| vm_usage(vm, workload)).collect();

    // Topic → hosting VM indices, discovered in VM order; topics visited
    // in ascending id order for determinism. The index is append-only —
    // a VM that later loses the topic is detected by re-probing its rows.
    let mut host_index: HashMap<TopicId, Vec<usize>> = HashMap::new();
    for (i, vm) in fleet.iter().enumerate() {
        for &(t, _) in vm.iter() {
            host_index.entry(t).or_default().push(i);
        }
    }
    let mut split_topics: Vec<TopicId> = host_index
        .iter()
        .filter(|(_, vms)| vms.len() > 1)
        .map(|(&t, _)| t)
        .collect();
    split_topics.sort_unstable();

    let mut stats = MergeStats::default();
    for t in split_topics {
        let rate = workload.rate(t);
        loop {
            // Hosts still holding the topic, smallest group first.
            let mut live: Vec<(usize, usize)> = host_index[&t]
                .iter()
                .filter_map(|&i| group_pos(&fleet[i], t).map(|pos| (i, pos)))
                .collect();
            if live.len() < 2 {
                break;
            }
            live.sort_unstable_by_key(|&(i, pos)| (fleet[i][pos].1.len(), i));
            let (src, src_pos) = live[0];
            let group_out = rate * fleet[src][src_pos].1.len() as u64;
            // Destination: co-host with the most free room (ties to the
            // lowest VM index) that can absorb the whole group.
            let dst = live[1..]
                .iter()
                .copied()
                .filter(|&(i, _)| capacity.saturating_sub(used[i]) >= group_out)
                .max_by_key(|&(i, _)| (capacity.saturating_sub(used[i]), Reverse(i)));
            let Some((dst, dst_pos)) = dst else {
                break; // nothing can take the smallest group whole
            };
            let (_, moved) = fleet[src].remove(src_pos);
            used[src] = used[src].saturating_sub(group_out + rate.volume());
            used[dst] += group_out;
            fleet[dst][dst_pos].1.extend(moved);
            stats.groups_rehomed += 1;
            stats.bandwidth_saved += rate.volume();
        }
    }

    // Phase 2: dissolve under-full VMs wholesale, one lightest-first
    // pass. Plan a new home for each of the source VM's groups (a
    // co-host needs `n·ev_t` and saves an incoming stream; any other VM
    // needs `(n+1)·ev_t` and is bandwidth-neutral); commit only if the
    // whole VM empties. Dissolving only ever raises the rest of the
    // fleet's load, so later candidates never become newly dissolvable —
    // a single pass suffices.
    let mut total_free: u128 = used
        .iter()
        .map(|&u| u128::from(capacity.saturating_sub(u).get()))
        .sum();
    // Only VMs at ≤ 75% utilization are dissolution candidates — heavier
    // ones almost never fit elsewhere once the fleet is packed, and
    // probing one costs a full plan — capped to the 16 lightest so merge
    // time stays bounded at any fleet size. The CBP tails this pass
    // exists for (the last, part-filled VM of each shard fleet) are
    // always among them.
    let mut order: Vec<usize> = (0..fleet.len())
        .filter(|&i| {
            !fleet[i].is_empty() && u128::from(used[i].get()) * 4 <= u128::from(capacity.get()) * 3
        })
        .collect();
    order.sort_unstable_by_key(|&i| (used[i], i));
    order.truncate(16);
    // Lightest-first means feasibility only degrades along the order;
    // after a few consecutive failures the rest of the fleet is packed
    // too tight for anything heavier, so stop probing.
    const MAX_CONSECUTIVE_FAILURES: usize = 4;
    let mut consecutive_failures = 0usize;
    for &src in &order {
        if consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
            break;
        }
        // Cheap necessary condition: the rest of the fleet must have at
        // least the source's volume free (re-homing can only need less).
        let src_free = u128::from(capacity.saturating_sub(used[src]).get());
        if u128::from(used[src].get()) > total_free - src_free {
            consecutive_failures += 1;
            continue;
        }
        // Plan with tentative headroom so one destination is not
        // promised to two groups. Rows are sorted by topic, so the plan
        // is deterministic.
        let mut claimed: HashMap<usize, Bandwidth> = HashMap::new();
        let mut plan: Vec<(usize, bool)> = Vec::with_capacity(fleet[src].len());
        let mut feasible = true;
        for &(t, ref subs) in &fleet[src] {
            let rate = workload.rate(t);
            let pairs = subs.len() as u64;
            let free_at = |i: usize, claimed: &HashMap<usize, Bandwidth>| {
                capacity
                    .saturating_sub(used[i])
                    .saturating_sub(claimed.get(&i).copied().unwrap_or(Bandwidth::ZERO))
            };
            let cohost = host_index
                .get(&t)
                .into_iter()
                .flatten()
                .copied()
                // Skip stale index entries (topic lost to a phase-1 move
                // or an earlier dissolution).
                .filter(|&i| i != src && group_pos(&fleet[i], t).is_some())
                .filter(|&i| free_at(i, &claimed) >= rate * pairs)
                .max_by_key(|&i| (free_at(i, &claimed), Reverse(i)));
            let (dst, is_cohost) = match cohost {
                Some(i) => {
                    *claimed.entry(i).or_insert(Bandwidth::ZERO) += rate * pairs;
                    (i, true)
                }
                None => {
                    let other = (0..fleet.len())
                        .filter(|&i| i != src && !fleet[i].is_empty())
                        .filter(|&i| free_at(i, &claimed) >= rate * (pairs + 1))
                        .max_by_key(|&i| (free_at(i, &claimed), Reverse(i)));
                    let Some(i) = other else {
                        feasible = false;
                        break;
                    };
                    *claimed.entry(i).or_insert(Bandwidth::ZERO) += rate * (pairs + 1);
                    (i, false)
                }
            };
            plan.push((dst, is_cohost));
        }
        if !feasible {
            consecutive_failures += 1;
            continue;
        }
        consecutive_failures = 0;
        let rows = std::mem::take(&mut fleet[src]);
        used[src] = Bandwidth::ZERO;
        for ((t, moved), (dst, is_cohost)) in rows.into_iter().zip(plan) {
            let rate = workload.rate(t);
            let pairs = moved.len() as u64;
            total_free += u128::from((rate * (pairs + 1)).get());
            if is_cohost {
                used[dst] += rate * pairs;
                total_free -= u128::from((rate * pairs).get());
                let pos = group_pos(&fleet[dst], t).expect("co-host still hosts the topic");
                fleet[dst][pos].1.extend(moved);
                stats.groups_rehomed += 1;
                stats.bandwidth_saved += rate.volume();
            } else {
                used[dst] += rate * (pairs + 1);
                total_free -= u128::from((rate * (pairs + 1)).get());
                let pos = fleet[dst]
                    .binary_search_by_key(&t, |&(tt, _)| tt)
                    .expect_err("dst does not host the topic");
                fleet[dst].insert(pos, (t, moved));
                host_index.entry(t).or_default().push(dst);
            }
        }
    }

    let before = fleet.len();
    fleet.retain(|vm| !vm.is_empty());
    stats.vms_released = before - fleet.len();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::PairSelector;
    use cloud_cost::{LinearCostModel, Money};
    use pubsub_model::Rate;

    fn cost() -> LinearCostModel {
        LinearCostModel::new(Money::from_dollars(2), Money::from_micros(3))
    }

    /// 12 topics, 60 subscribers with overlapping interests.
    fn workload() -> Workload {
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = (0..12)
            .map(|i| b.add_topic(Rate::new(5 + i * 7)).unwrap())
            .collect();
        for vi in 0..60u32 {
            let tv: Vec<TopicId> = ts
                .iter()
                .copied()
                .filter(|t| (t.raw() * 5 + vi) % 4 != 0)
                .collect();
            b.add_subscriber(tv).unwrap();
        }
        b.build()
    }

    fn instance() -> McssInstance {
        McssInstance::new(workload(), Rate::new(60), Bandwidth::new(700)).unwrap()
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let w = workload();
        for partitioner in [
            PartitionerKind::Hash { seed: 9 },
            PartitionerKind::TopicLocality,
        ] {
            let parts = partition_subscribers(&w, 4, partitioner);
            assert_eq!(parts.len(), 4);
            let mut seen = vec![false; w.num_subscribers()];
            for p in &parts {
                assert!(p.windows(2).all(|w| w[0] < w[1]), "unsorted shard");
                for v in p {
                    assert!(!seen[v.index()], "{v} in two shards ({partitioner:?})");
                    seen[v.index()] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "subscriber lost ({partitioner:?})");
        }
    }

    #[test]
    fn hash_partition_is_seed_deterministic_and_roughly_balanced() {
        let w = workload();
        let a = partition_subscribers(&w, 4, PartitionerKind::Hash { seed: 1 });
        let b = partition_subscribers(&w, 4, PartitionerKind::Hash { seed: 1 });
        let c = partition_subscribers(&w, 4, PartitionerKind::Hash { seed: 2 });
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should shuffle differently");
        for p in &a {
            assert!(p.len() >= 5, "badly skewed shard: {}", p.len());
        }
    }

    #[test]
    fn topic_locality_groups_followers() {
        // Two loud topics, disjoint follower sets bigger than half: the
        // partitioner must not split either follower group.
        let mut b = Workload::builder();
        let loud0 = b.add_topic(Rate::new(1000)).unwrap();
        let loud1 = b.add_topic(Rate::new(900)).unwrap();
        let quiet = b.add_topic(Rate::new(1)).unwrap();
        for i in 0..20u32 {
            if i % 2 == 0 {
                b.add_subscriber([loud0, quiet]).unwrap();
            } else {
                b.add_subscriber([loud1, quiet]).unwrap();
            }
        }
        let w = b.build();
        let parts = partition_subscribers(&w, 2, PartitionerKind::TopicLocality);
        for p in &parts {
            let anchors: std::collections::BTreeSet<TopicId> = p
                .iter()
                .map(|&v| {
                    w.interests(v)
                        .iter()
                        .copied()
                        .max_by_key(|&t| (w.rate(t), Reverse(t)))
                        .unwrap()
                })
                .collect();
            assert_eq!(anchors.len(), 1, "anchor group split across shards");
        }
    }

    #[test]
    fn sharded_solve_is_valid_and_complete() {
        let inst = instance();
        for shards in [1usize, 2, 3, 8, 100] {
            let solver = ShardedSolver::new(SolverParams::default(), ShardingConfig::new(shards));
            let out = solver.solve(&inst, &cost()).unwrap();
            out.allocation
                .validate(inst.workload(), inst.tau())
                .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
            assert_eq!(out.shard_sizes.len(), shards);
            assert_eq!(
                out.shard_sizes.iter().sum::<usize>(),
                inst.workload().num_subscribers()
            );
            assert!(out.selection.satisfies(inst.workload(), inst.tau()));
        }
    }

    #[test]
    fn sharded_selection_matches_monolithic_gsp() {
        // GSP is per-subscriber independent: the union of the shard
        // selections must equal the monolithic selection exactly.
        let inst = instance();
        let mono = crate::stage1::GreedySelectPairs::new()
            .select(&inst)
            .unwrap();
        let sharded = ShardedSolver::new(SolverParams::default(), ShardingConfig::new(4))
            .solve(&inst, &cost())
            .unwrap();
        assert_eq!(mono, sharded.selection);
    }

    #[test]
    fn zero_shards_is_an_error() {
        let inst = instance();
        let solver = ShardedSolver::new(SolverParams::default(), ShardingConfig::new(0));
        assert_eq!(
            solver.solve(&inst, &cost()).unwrap_err(),
            McssError::ZeroShards
        );
        let sel = crate::stage1::GreedySelectPairs::new()
            .select(&inst)
            .unwrap();
        assert_eq!(
            solver.allocate(&inst, &sel, &cost()).unwrap_err(),
            McssError::ZeroShards
        );
    }

    #[test]
    fn sharded_solve_is_deterministic() {
        let inst = instance();
        for partitioner in [
            PartitionerKind::Hash { seed: 5 },
            PartitionerKind::TopicLocality,
        ] {
            let solver = ShardedSolver::new(
                SolverParams::default(),
                ShardingConfig::new(4)
                    .with_threads(3)
                    .with_partitioner(partitioner),
            );
            let a = solver.solve(&inst, &cost()).unwrap();
            let b = solver.solve(&inst, &cost()).unwrap();
            assert_eq!(a.allocation, b.allocation, "{partitioner:?}");
            assert_eq!(a.selection, b.selection);
            assert_eq!(a.merge, b.merge);
        }
    }

    #[test]
    fn compaction_rehomes_duplicated_topic_groups() {
        // Two VMs both hosting topic 0 with room to merge: compaction
        // must fuse them and release a VM.
        let w = {
            let mut b = Workload::builder();
            let t = b.add_topic(Rate::new(10)).unwrap();
            for _ in 0..4 {
                b.add_subscriber([t]).unwrap();
            }
            b.build()
        };
        let v = SubscriberId::new;
        let mut fleet: Vec<VmGroups> = vec![
            vec![(TopicId::new(0), vec![v(0), v(1)])],
            vec![(TopicId::new(0), vec![v(2), v(3)])],
        ];
        let stats = compact_topic_groups(&mut fleet, &w, Bandwidth::new(100));
        assert_eq!(stats.groups_rehomed, 1);
        assert_eq!(stats.bandwidth_saved, Bandwidth::new(10));
        assert_eq!(stats.vms_released, 1);
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet[0][0].1.len(), 4);
    }

    #[test]
    fn compaction_respects_capacity() {
        // Both hosts nearly full: no legal move, nothing happens.
        let w = {
            let mut b = Workload::builder();
            let t = b.add_topic(Rate::new(10)).unwrap();
            for _ in 0..4 {
                b.add_subscriber([t]).unwrap();
            }
            b.build()
        };
        let v = SubscriberId::new;
        let mut fleet: Vec<VmGroups> = vec![
            vec![(TopicId::new(0), vec![v(0), v(1)])],
            vec![(TopicId::new(0), vec![v(2), v(3)])],
        ];
        // Each VM uses 30; moving a 2-pair group needs 20 free but only
        // 9 is available.
        let stats = compact_topic_groups(&mut fleet, &w, Bandwidth::new(39));
        assert_eq!(stats.groups_rehomed, 0);
        assert_eq!(fleet.len(), 2);
    }

    #[test]
    fn sharded_cost_stays_close_to_monolithic() {
        let inst = instance();
        let c = cost();
        let mono = crate::Solver::default().solve(&inst, &c).unwrap();
        let sharded = ShardedSolver::new(SolverParams::default(), ShardingConfig::new(4))
            .solve(&inst, &c)
            .unwrap();
        let mono_cost = mono.allocation.cost(&c).micros() as f64;
        let shard_cost = sharded.allocation.cost(&c).micros() as f64;
        assert!(
            shard_cost <= mono_cost * 1.25,
            "sharded {shard_cost} vs monolithic {mono_cost}"
        );
    }

    #[test]
    fn allocate_entry_point_matches_solve() {
        let inst = instance();
        let c = cost();
        let solver = ShardedSolver::new(SolverParams::default(), ShardingConfig::new(3));
        let solved = solver.solve(&inst, &c).unwrap();
        let (alloc, merge) = solver.allocate(&inst, &solved.selection, &c).unwrap();
        assert_eq!(alloc, solved.allocation);
        assert_eq!(merge, solved.merge);
    }
}
