//! The pre-arena cold solve, kept as an independent test oracle.
//!
//! [`legacy_solve`] is the Stage 1 → grouping → Stage 2 path as it ran
//! before the rate-ranked interest arena and the `TopicGroups` CSR: a
//! `sort_unstable_by` per subscriber with a chosen bitmap
//! ([`legacy_gsp_select`]), a `Vec` per topic
//! ([`legacy_group_by_topic`]), and CustomBinPacking over VMs whose rows
//! stay sorted by topic id ([`legacy_cbp_allocate`]). It makes the same
//! decisions as the current pipeline by a different route, so the tests
//! below assert the two agree bit for bit, selection and allocation, on
//! hand-built and generated workloads.

use cloud_cost::CostModel;
use mcss_core::stage2::cheaper_to_distribute;
use mcss_core::{Allocation, McssError, McssInstance, Selection, SelectionBuilder};
use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The pre-arena greedy Stage-1 selection: for every subscriber, clone
/// the interest list, `sort_unstable_by` it into (descending rate,
/// ascending id) order, sweep with a `chosen` bitmap, and pick the
/// cheapest unchosen exceeder by a final filtered scan — the exact hot
/// loop before the rate-ranked arena made the sweep sort-free.
/// Bit-identical to `GreedySelectPairs` by construction.
pub fn legacy_gsp_select(instance: &McssInstance) -> Selection {
    let workload = instance.workload();
    let tau = instance.tau();
    let n = workload.num_subscribers();
    let mut builder = SelectionBuilder::with_capacity(n, n);
    let mut order: Vec<TopicId> = Vec::new();
    let mut chosen: Vec<bool> = Vec::new();
    for vi in 0..n {
        let v = SubscriberId::new(vi as u32);
        builder.push_row_with(|row| {
            legacy_select_for_subscriber_into(workload, v, tau, &mut order, &mut chosen, row)
        });
    }
    builder.build()
}

fn legacy_select_for_subscriber_into(
    workload: &Workload,
    v: SubscriberId,
    tau: Rate,
    order: &mut Vec<TopicId>,
    chosen: &mut Vec<bool>,
    out: &mut Vec<TopicId>,
) {
    let interests = workload.interests(v);
    if interests.is_empty() {
        return;
    }
    let tau_v = workload.tau_v(v, tau);
    let total = workload.subscriber_total_rate(v);
    if total <= tau_v {
        out.extend_from_slice(interests);
        return;
    }

    // The per-subscriber sort the arena path eliminated.
    order.clear();
    order.extend_from_slice(interests);
    order.sort_unstable_by(|&a, &b| workload.rate(b).cmp(&workload.rate(a)).then(a.cmp(&b)));

    chosen.clear();
    chosen.resize(order.len(), false);
    let mut rem = tau_v;
    for (i, &t) in order.iter().enumerate() {
        if rem.is_zero() {
            break;
        }
        let ev = workload.rate(t);
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
            .min_by_key(|&t| (workload.rate(t), t))
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
            let mut frees: Vec<Bandwidth> = vms.iter().map(|vm| vm.free(capacity)).collect();
            cheaper_to_distribute(
                &mut frees,
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
/// with a `Vec` allocation per topic. The tests below assert its output
/// bit-identical to today's pipeline.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use cloud_cost::{instances, LinearCostModel, Money};
    use mcss_core::stage1::{GreedySelectPairs, PairSelector};
    use mcss_core::stage2::{Allocator, CbpConfig, CustomBinPacking};

    /// Runs the legacy and the arena cold solve on `inst` and asserts
    /// they agree bit for bit; returns the allocation.
    fn assert_same_cold_solve(
        inst: &McssInstance,
        cost: &dyn CostModel,
        label: &str,
    ) -> Allocation {
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
    /// bit — selection *and* allocation — on hand-built inputs and on
    /// generated traces up to 5k subscribers.
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
                    for (t, _) in vm.rows() {
                        hosts[t.index()] += 1;
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
}
