//! Pre-optimization implementations, preserved verbatim as measured
//! baselines.
//!
//! Two generations of hot path live here so the benches always compare
//! the current code against **what actually shipped before**, not
//! against a baseline that quietly benefits from the new flat state:
//!
//! * [`LegacyReallocator`] — the pre-ledger epoch-repair path (full GSP
//!   re-selection every epoch, per-subscriber clone+sort row diffs,
//!   `HashMap<TopicId, Vec<SubscriberId>>` VM tables repaired with
//!   `retain(|v| gone.contains(v))` scans, from-scratch `table_usage`
//!   recomputes, linear `min_by_key` eviction sweeps), the baseline of
//!   `benches/churn.rs` and `fig_churn_speedup`;
//! * [`legacy_solve`] — the pre-arena **cold solve** path (per-subscriber
//!   `sort_unstable_by` + chosen-bitmap greedy selection, dense
//!   per-topic-`Vec` grouping feeding CustomBinPacking), the baseline of
//!   `benches/solve.rs` and `fig_solve_speedup`.
//!
//! Behaviourally both match the current pipeline where it matters: the
//! same selections bit for bit, the same packing decisions, the same
//! repair policy — the experiments assert it, so every reported speedup
//! is for *equivalent output*.

use cloud_cost::CostModel;
use mcss_core::stage2::{cheaper_to_distribute, Allocator, CbpConfig, CustomBinPacking};
use mcss_core::{Allocation, McssError, McssInstance, Selection, SelectionBuilder};
use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId, Workload, WorkloadView};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The pre-arena greedy Stage-1 selection: for every subscriber, clone
/// the interest list, `sort_unstable_by` it into (descending rate,
/// ascending id) order, sweep with a `chosen` bitmap, and pick the
/// cheapest unchosen exceeder by a final filtered scan — the exact hot
/// loop before the rate-ranked arena made the sweep sort-free.
/// Bit-identical to `GreedySelectPairs` by construction.
pub fn legacy_gsp_select(instance: &McssInstance) -> Selection {
    let view = instance.workload().view();
    let tau = instance.tau();
    let n = view.num_subscribers();
    let mut builder = SelectionBuilder::with_capacity(n, n);
    let mut order: Vec<TopicId> = Vec::new();
    let mut chosen: Vec<bool> = Vec::new();
    for vi in 0..n {
        let v = SubscriberId::new(vi as u32);
        builder.push_row_with(|row| {
            legacy_select_for_subscriber_into(view, v, tau, &mut order, &mut chosen, row)
        });
    }
    builder.build()
}

fn legacy_select_for_subscriber_into(
    view: WorkloadView<'_>,
    v: SubscriberId,
    tau: Rate,
    order: &mut Vec<TopicId>,
    chosen: &mut Vec<bool>,
    out: &mut Vec<TopicId>,
) {
    let interests = view.interests(v);
    if interests.is_empty() {
        return;
    }
    let tau_v = view.tau_v(v, tau);
    let total = view.subscriber_total_rate(v);
    if total <= tau_v {
        out.extend_from_slice(interests);
        return;
    }

    // The per-subscriber sort the arena path eliminated.
    order.clear();
    order.extend_from_slice(interests);
    order.sort_unstable_by(|&a, &b| view.rate(b).cmp(&view.rate(a)).then(a.cmp(&b)));

    chosen.clear();
    chosen.resize(order.len(), false);
    let mut rem = tau_v;
    for (i, &t) in order.iter().enumerate() {
        if rem.is_zero() {
            break;
        }
        let ev = view.rate(t);
        if ev <= rem {
            out.push(t);
            chosen[i] = true;
            rem = rem.saturating_sub(ev);
        }
    }
    if !rem.is_zero() {
        let cheapest_exceeder = order
            .iter()
            .zip(chosen.iter())
            .filter(|(_, &c)| !c)
            .map(|(&t, _)| t)
            .min_by_key(|&t| (view.rate(t), t))
            .expect("total > tau_v guarantees an unchosen topic remains");
        out.push(cheapest_exceeder);
    }
}

/// The pre-CSR topic grouping: one `Vec<SubscriberId>` allocated per
/// topic of the universe, filled row-major, then filtered and collected
/// into per-topic vectors — the allocation pattern `TopicGroups`
/// replaced with two counting-sort passes over three flat buffers.
pub fn legacy_group_by_topic(
    selection: &Selection,
    workload: &Workload,
) -> Vec<(TopicId, Vec<SubscriberId>)> {
    let mut groups: Vec<Vec<SubscriberId>> = vec![Vec::new(); workload.num_topics()];
    for (vi, tv) in selection.rows().enumerate() {
        let v = SubscriberId::new(vi as u32);
        for &t in tv {
            groups[t.index()].push(v);
        }
    }
    groups
        .into_iter()
        .enumerate()
        .filter(|(_, vs)| !vs.is_empty())
        .map(|(ti, vs)| (TopicId::new(ti as u32), vs))
        .collect()
}

/// One VM being filled by [`legacy_cbp_allocate`] — the layout
/// `CustomBinPacking` used before it built rows in arrival order: rows
/// kept sorted by topic id, each new topic placed by binary search and a
/// `Vec::insert`. The packing decisions stay identical to today's CBP.
#[derive(Default)]
struct LegacyVm {
    rows: Vec<(TopicId, Vec<SubscriberId>)>,
    used: Bandwidth,
}

impl LegacyVm {
    fn free(&self, capacity: Bandwidth) -> Bandwidth {
        capacity.saturating_sub(self.used)
    }

    fn add_batch(&mut self, t: TopicId, rate: Rate, vs: &[SubscriberId]) {
        if vs.is_empty() {
            return;
        }
        let n = vs.len() as u64;
        match self.rows.binary_search_by_key(&t, |&(tt, _)| tt) {
            Ok(pos) => {
                self.used += rate * n;
                self.rows[pos].1.extend_from_slice(vs);
            }
            Err(pos) => {
                self.used += rate * (n + 1);
                self.rows.insert(pos, (t, vs.to_vec()));
            }
        }
    }
}

/// The pre-CSR CustomBinPacking (full preset): identical packing
/// decisions to today's CBP, fed by [`legacy_group_by_topic`]'s
/// per-topic vectors instead of the `TopicGroups` CSR.
///
/// # Errors
///
/// [`McssError::InfeasibleTopic`] if a selected topic cannot fit on an
/// empty VM.
pub fn legacy_cbp_allocate(
    workload: &Workload,
    selection: &Selection,
    capacity: Bandwidth,
    cost: &dyn CostModel,
) -> Result<Allocation, McssError> {
    let mut groups = legacy_group_by_topic(selection, workload);
    // Optimization (c), TotalVolume order (ties by ascending topic id;
    // the sort is stable over the id-ordered groups).
    groups.sort_by_key(|(t, vs)| Reverse(u128::from(workload.rate(*t).get()) * vs.len() as u128));

    let mut vms: Vec<LegacyVm> = Vec::new();
    let mut total_bw = Bandwidth::ZERO;
    let mut free_heap: BinaryHeap<(Bandwidth, Reverse<usize>)> = BinaryHeap::new();

    for (topic, subscribers) in &groups {
        let rate = workload.rate(*topic);
        if rate.pair_cost() > capacity {
            return Err(McssError::InfeasibleTopic {
                topic: *topic,
                required: rate.pair_cost(),
                capacity,
            });
        }

        let all = u128::from(rate.get()) * (subscribers.len() as u128 + 1);
        if let Some(current) = vms.last_mut() {
            if all <= u128::from(current.free(capacity).get()) {
                current.add_batch(*topic, rate, subscribers);
                total_bw += rate * (subscribers.len() as u64 + 1);
                free_heap.push((current.free(capacity), Reverse(vms.len() - 1)));
                continue;
            }
        }

        let mut remaining: &[SubscriberId] = subscribers;
        let distribute = if vms.is_empty() {
            false
        } else {
            // Optimization (e): the Alg. 7 cost comparison.
            let frees: Vec<Bandwidth> = vms.iter().map(|vm| vm.free(capacity)).collect();
            cheaper_to_distribute(
                &frees,
                capacity,
                rate,
                remaining.len() as u64,
                vms.len(),
                total_bw,
                cost,
                false,
            )
        };

        if distribute {
            // Optimization (d): most-free VM first via the lazy heap.
            while !remaining.is_empty() {
                let Some((free, Reverse(idx))) = free_heap.pop() else {
                    break;
                };
                if vms[idx].free(capacity) != free {
                    continue; // stale entry; the fresh one is queued
                }
                if free < rate.pair_cost() {
                    free_heap.push((free, Reverse(idx)));
                    break;
                }
                let fit = free.div_rate(rate) - 1;
                let take = (fit as usize).min(remaining.len());
                vms[idx].add_batch(*topic, rate, &remaining[..take]);
                total_bw += rate * (take as u64 + 1);
                free_heap.push((vms[idx].free(capacity), Reverse(idx)));
                remaining = &remaining[take..];
            }
        }

        while !remaining.is_empty() {
            let mut vm = LegacyVm::default();
            let fit = capacity.div_rate(rate) - 1; // ≥ 1 by feasibility
            let take = (fit as usize).min(remaining.len());
            vm.add_batch(*topic, rate, &remaining[..take]);
            total_bw += rate * (take as u64 + 1);
            vms.push(vm);
            free_heap.push((
                vms.last().expect("just pushed").free(capacity),
                Reverse(vms.len() - 1),
            ));
            remaining = &remaining[take..];
        }
    }

    Ok(Allocation::from_groups(
        vms.into_iter().map(|vm| vm.rows).collect(),
        workload,
        capacity,
    ))
}

/// The full pre-arena cold solve: [`legacy_gsp_select`] +
/// [`legacy_cbp_allocate`] — Stage 1 with a sort per subscriber, Stage 2
/// with a `Vec` allocation per topic. `fig_solve_speedup` asserts its
/// output bit-identical to today's pipeline every measured run.
///
/// # Errors
///
/// [`McssError::InfeasibleTopic`] if a selected topic cannot fit on an
/// empty VM.
pub fn legacy_solve(
    instance: &McssInstance,
    cost: &dyn CostModel,
) -> Result<(Selection, Allocation), McssError> {
    let selection = legacy_gsp_select(instance);
    let allocation =
        legacy_cbp_allocate(instance.workload(), &selection, instance.capacity(), cost)?;
    Ok((selection, allocation))
}

/// One legacy epoch's outcome (the counters the bench reports).
#[derive(Clone, Debug)]
pub struct LegacyOutcome {
    /// The repaired (or re-solved) allocation.
    pub allocation: Allocation,
    /// The Stage-1 selection this epoch serves.
    pub selection: Selection,
    /// Pairs newly placed this epoch.
    pub pairs_placed: u64,
    /// Pairs removed because they left the selection.
    pub pairs_removed: u64,
    /// Whether the utilization floor forced a full re-solve.
    pub full_resolve: bool,
}

/// The pre-ledger incremental re-allocator (see the module docs).
#[derive(Debug, Default)]
pub struct LegacyReallocator {
    previous: Option<State>,
}

#[derive(Debug)]
struct State {
    selection: Selection,
    tables: Vec<HashMap<TopicId, Vec<SubscriberId>>>,
}

const COMPACTION_THRESHOLD: f64 = 0.5;

impl LegacyReallocator {
    /// Repairs the previous allocation against the instance's current
    /// workload (first call performs a full solve).
    ///
    /// # Errors
    ///
    /// [`McssError::InfeasibleTopic`] if a selected topic no longer fits
    /// on any VM.
    pub fn step(
        &mut self,
        instance: &McssInstance,
        cost: &dyn CostModel,
    ) -> Result<LegacyOutcome, McssError> {
        let workload = instance.workload();
        let capacity = instance.capacity();
        // The pre-arena GSP (sort per subscriber) — what epoch repair ran
        // before either rework; bit-identical to today's selection.
        let selection = legacy_gsp_select(instance);

        let Some(prev) = self.previous.take() else {
            let allocation = full_allocate(instance, &selection, cost)?;
            let placed = selection.pair_count();
            self.remember(&selection, &allocation);
            return Ok(LegacyOutcome {
                allocation,
                selection,
                pairs_placed: placed,
                pairs_removed: 0,
                full_resolve: true,
            });
        };

        // Diff old vs new selection per subscriber (both sides cloned and
        // sorted — the per-row cost the CSR diff view eliminated).
        let mut removed: Vec<(TopicId, SubscriberId)> = Vec::new();
        let mut added: Vec<(TopicId, SubscriberId)> = Vec::new();
        let subscribers = workload.num_subscribers();
        for vi in 0..subscribers {
            let v = SubscriberId::new(vi as u32);
            let mut old: Vec<TopicId> = if vi < prev.selection.num_subscribers() {
                prev.selection.selected(v).to_vec()
            } else {
                Vec::new()
            };
            let mut new: Vec<TopicId> = selection.selected(v).to_vec();
            old.sort_unstable();
            new.sort_unstable();
            diff_sorted(&old, &new, |t| removed.push((t, v)), |t| added.push((t, v)));
        }
        for vi in subscribers..prev.selection.num_subscribers() {
            let v = SubscriberId::new(vi as u32);
            for &t in prev.selection.selected(v) {
                removed.push((t, v));
            }
        }
        let pairs_removed = removed.len() as u64;

        // Rebuild VM tables, dropping removed pairs (the quadratic
        // `gone.contains` retain the ledger replaced).
        let mut tables = prev.tables;
        let mut removal: HashMap<TopicId, Vec<SubscriberId>> = HashMap::new();
        for (t, v) in removed {
            removal.entry(t).or_default().push(v);
        }
        for table in &mut tables {
            table.retain(|t, subs| {
                if t.index() >= workload.num_topics() {
                    return false;
                }
                if let Some(gone) = removal.get(t) {
                    subs.retain(|v| !gone.contains(v));
                }
                !subs.is_empty()
            });
        }

        // Recompute per-VM usage under the *new* rates and evict from
        // overflowing VMs, cheapest topic group first.
        let mut to_place = added;
        for table in &mut tables {
            let mut used = table_usage(table, workload);
            while used > capacity {
                let evict = table
                    .iter()
                    .min_by_key(|(t, subs)| (workload.rate(**t) * (subs.len() as u64 + 1), t.raw()))
                    .map(|(t, _)| *t)
                    .expect("non-empty table while over capacity");
                let subs = table.remove(&evict).expect("key just found");
                used -= workload.rate(evict) * (subs.len() as u64 + 1);
                to_place.extend(subs.into_iter().map(|v| (evict, v)));
            }
        }
        let pairs_placed = to_place.len() as u64;

        // Place topic-grouped: host VMs first, then most-free, then fresh
        // VMs — with `table_usage` recomputed from scratch per probe.
        let mut groups: HashMap<TopicId, Vec<SubscriberId>> = HashMap::new();
        for (t, v) in to_place {
            groups.entry(t).or_default().push(v);
        }
        let mut group_list: Vec<(TopicId, Vec<SubscriberId>)> = groups.into_iter().collect();
        group_list.sort_unstable_by_key(|(t, _)| *t);
        for (topic, mut subs) in group_list {
            let rate = workload.rate(topic);
            if rate.pair_cost() > capacity {
                return Err(McssError::InfeasibleTopic {
                    topic,
                    required: rate.pair_cost(),
                    capacity,
                });
            }
            for table in tables.iter_mut() {
                if subs.is_empty() {
                    break;
                }
                if !table.contains_key(&topic) {
                    continue;
                }
                let free = capacity.saturating_sub(table_usage(table, workload));
                let fit = free.div_rate(rate) as usize;
                let take = fit.min(subs.len());
                if take > 0 {
                    let moved: Vec<SubscriberId> = subs.drain(..take).collect();
                    table.get_mut(&topic).expect("host checked").extend(moved);
                }
            }
            while !subs.is_empty() {
                let best = tables
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (capacity.saturating_sub(table_usage(t, workload)), i))
                    .max();
                match best {
                    Some((free, i)) if free >= rate.pair_cost() => {
                        let fit = (free.div_rate(rate) - 1) as usize;
                        let take = fit.min(subs.len());
                        let moved: Vec<SubscriberId> = subs.drain(..take).collect();
                        tables[i].entry(topic).or_default().extend(moved);
                    }
                    _ => break,
                }
            }
            while !subs.is_empty() {
                let fit = (capacity.div_rate(rate) - 1) as usize;
                let take = fit.min(subs.len());
                let moved: Vec<SubscriberId> = subs.drain(..take).collect();
                let mut table = HashMap::new();
                table.insert(topic, moved);
                tables.push(table);
            }
        }

        tables.retain(|t| !t.is_empty());

        let total_used: Bandwidth = tables.iter().map(|t| table_usage(t, workload)).sum();
        let fleet_capacity = capacity.get().saturating_mul(tables.len() as u64);
        let utilization = if fleet_capacity == 0 {
            1.0
        } else {
            total_used.get() as f64 / fleet_capacity as f64
        };
        if utilization < COMPACTION_THRESHOLD {
            let allocation = full_allocate(instance, &selection, cost)?;
            let placed = selection.pair_count();
            self.remember(&selection, &allocation);
            return Ok(LegacyOutcome {
                allocation,
                selection,
                pairs_placed: placed,
                pairs_removed,
                full_resolve: true,
            });
        }

        let allocation = Allocation::from_tables(tables, workload, capacity);
        self.remember(&selection, &allocation);
        Ok(LegacyOutcome {
            allocation,
            selection,
            pairs_placed,
            pairs_removed,
            full_resolve: false,
        })
    }

    fn remember(&mut self, selection: &Selection, allocation: &Allocation) {
        let tables = allocation
            .vms()
            .iter()
            .map(|vm| {
                vm.placements()
                    .iter()
                    .map(|p| (p.topic, p.subscribers.clone()))
                    .collect::<HashMap<_, _>>()
            })
            .collect();
        self.previous = Some(State {
            selection: selection.clone(),
            tables,
        });
    }
}

fn full_allocate(
    instance: &McssInstance,
    selection: &Selection,
    cost: &dyn CostModel,
) -> Result<Allocation, McssError> {
    CustomBinPacking::new(CbpConfig::full()).allocate(
        instance.workload(),
        selection,
        instance.capacity(),
        cost,
    )
}

/// Recomputes a table's bandwidth under current rates.
fn table_usage(table: &HashMap<TopicId, Vec<SubscriberId>>, workload: &Workload) -> Bandwidth {
    let mut used = Bandwidth::ZERO;
    for (t, subs) in table {
        used += workload.rate(*t) * (subs.len() as u64 + 1);
    }
    used
}

/// Walks two sorted slices calling `on_removed` for elements only in
/// `old` and `on_added` for elements only in `new`.
fn diff_sorted(
    old: &[TopicId],
    new: &[TopicId],
    mut on_removed: impl FnMut(TopicId),
    mut on_added: impl FnMut(TopicId),
) {
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                on_removed(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                on_added(new[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    old[i..].iter().for_each(|&t| on_removed(t));
    new[j..].iter().for_each(|&t| on_added(t));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use cloud_cost::{instances, LinearCostModel, Money};
    use mcss_core::dynamic::{DriftModel, WorkloadDelta};
    use mcss_core::incremental::IncrementalReallocator;
    use pubsub_model::Rate;

    /// Runs the legacy and the arena cold solve on `inst` and asserts
    /// they agree bit for bit; returns the allocation.
    fn assert_same_cold_solve(
        inst: &McssInstance,
        cost: &dyn CostModel,
        label: &str,
    ) -> Allocation {
        use mcss_core::stage1::{GreedySelectPairs, PairSelector};
        let (legacy_sel, legacy_alloc) = legacy_solve(inst, cost).unwrap();
        let arena_sel = GreedySelectPairs::new().select(inst).unwrap();
        let arena_alloc = CustomBinPacking::new(CbpConfig::full())
            .allocate(inst.workload(), &arena_sel, inst.capacity(), cost)
            .unwrap();
        assert_eq!(legacy_sel, arena_sel, "{label}: selections diverged");
        assert_eq!(legacy_alloc, arena_alloc, "{label}: allocations diverged");
        legacy_alloc.validate(inst.workload(), inst.tau()).unwrap();
        legacy_alloc
    }

    /// The legacy cold solve must agree with the arena pipeline bit for
    /// bit — selection *and* allocation — otherwise `fig_solve_speedup`
    /// compares different algorithms, not implementations.
    #[test]
    fn legacy_cold_solve_bit_identical_to_arena_path() {
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = [30u64, 18, 18, 12, 9, 6, 4, 4]
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        for vi in 0..40u32 {
            let tv: Vec<TopicId> = ts
                .iter()
                .copied()
                .filter(|t| (t.raw() * 3 + vi) % 4 != 0)
                .collect();
            b.add_subscriber(tv).unwrap();
        }
        let w = b.build();
        let cost = LinearCostModel::new(Money::from_dollars(1), Money::from_micros(1));
        for tau in [10u64, 25, 60] {
            let inst = McssInstance::new(w.clone(), Rate::new(tau), Bandwidth::new(150)).unwrap();
            assert_same_cold_solve(&inst, &cost, &format!("tau {tau}"));
        }

        // Generated traces reach what the hand-built input never does:
        // hundreds of rows per VM, and topics split across VMs.
        let (mut most_rows, mut split_topics) = (0, 0);
        for scenario in [
            Scenario::twitter(2_000, 7),
            Scenario::twitter(5_000, 7),
            Scenario::spotify(2_000, 7),
            Scenario::spotify(5_000, 7),
        ] {
            let cost = scenario.cost_model(instances::C3_LARGE);
            for tau in [10u64, 100, 1000] {
                let inst = scenario.instance(tau, instances::C3_LARGE).unwrap();
                let label = format!(
                    "{} {} subscribers, tau {tau}",
                    scenario.name,
                    inst.workload().num_subscribers()
                );
                let alloc = assert_same_cold_solve(&inst, &cost, &label);
                let mut hosts = vec![0u32; inst.workload().num_topics()];
                for vm in alloc.vms() {
                    most_rows = most_rows.max(vm.topic_count());
                    for p in vm.placements() {
                        hosts[p.topic.index()] += 1;
                    }
                }
                split_topics = split_topics.max(hosts.iter().filter(|&&n| n > 1).count());
            }
        }
        assert!(
            most_rows >= 200 && split_topics > 0,
            "inputs too easy: {most_rows} rows on the fullest VM, \
             at most {split_topics} split topics per solve"
        );
    }

    /// The legacy baseline must agree with the new path — otherwise the
    /// bench compares different algorithms, not implementations.
    #[test]
    fn legacy_matches_new_path_selection_and_validates() {
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = [30u64, 18, 12, 9, 6, 4]
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        b.add_subscriber([ts[0], ts[1], ts[2]]).unwrap();
        b.add_subscriber([ts[1], ts[3], ts[4]]).unwrap();
        b.add_subscriber([ts[2], ts[4], ts[5]]).unwrap();
        b.add_subscriber([ts[0], ts[5]]).unwrap();
        let mut w = b.build();
        let cost = LinearCostModel::new(Money::from_dollars(1), Money::from_micros(1));
        let drift = DriftModel {
            rate_sigma: 0.3,
            churn_prob: 0.4,
            seed: 21,
        };
        let mut legacy = LegacyReallocator::default();
        let mut new = IncrementalReallocator::default();
        let mut delta = WorkloadDelta::default();
        for epoch in 0..5 {
            let inst = McssInstance::new(w.clone(), Rate::new(20), Bandwidth::new(120)).unwrap();
            let l = legacy.step(&inst, &cost).unwrap();
            let n = new.step_with_delta(&inst, &cost, &delta).unwrap();
            assert_eq!(l.selection, n.selection, "epoch {epoch}");
            l.allocation
                .validate(inst.workload(), inst.tau())
                .unwrap_or_else(|e| panic!("legacy epoch {epoch}: {e}"));
            n.allocation
                .validate(inst.workload(), inst.tau())
                .unwrap_or_else(|e| panic!("new epoch {epoch}: {e}"));
            (w, delta) = drift.evolve_tracked(&w, epoch);
        }
    }
}
