//! The fleet a Stage-2 packer fills, and its one write into the
//! [`Allocation`] arena.

use crate::{Allocation, TopicGroups};
use pubsub_model::{Bandwidth, SubscriberId, TopicId};
use std::cmp::Reverse;
use std::ops::Range;

/// Pairs of one topic placed on one VM in one step: subscribers
/// `start..end` of those `key` names.
#[derive(Clone, Copy, Debug, Default)]
struct Run {
    vm: u32,
    key: u32,
    start: u32,
    end: u32,
}

/// A fleet under construction: each VM's Eq. 2 bandwidth and every run of
/// pairs placed on it, in placement order. A run's key is a
/// [`TopicGroups`] group for the topic-at-a-time packers (CBP, FFD, the
/// mixed-fleet packer) and a topic for the pair-at-a-time baselines; key
/// order is topic order either way. Nothing is copied while packing:
/// [`FleetBuilder::finish`] orders the runs and copies each one once.
#[derive(Debug, Default)]
pub(crate) struct FleetBuilder {
    used: Vec<Bandwidth>,
    runs: Vec<Run>,
}

impl FleetBuilder {
    /// A builder with room for `runs` runs on `vms` VMs.
    pub(crate) fn with_room(runs: usize, vms: usize) -> FleetBuilder {
        FleetBuilder {
            used: Vec::with_capacity(vms),
            runs: Vec::with_capacity(runs),
        }
    }

    /// Each VM's bandwidth in use (`bw_b`), in opening order.
    pub(crate) fn used(&self) -> &[Bandwidth] {
        &self.used
    }

    /// VM `vm`'s headroom `BC − bw_b` under `capacity`.
    pub(crate) fn free(&self, vm: usize, capacity: Bandwidth) -> Bandwidth {
        capacity.saturating_sub(self.used[vm])
    }

    /// The VM with the most headroom, lowest index on ties (optimization
    /// (d)'s spill order). An exact scan: a fleet has hundreds of VMs, and
    /// few groups spill.
    pub(crate) fn most_free(&self, capacity: Bandwidth) -> Option<usize> {
        (0..self.used.len()).min_by_key(|&vm| (Reverse(self.free(vm, capacity)), vm))
    }

    /// Opens an empty VM and returns its index.
    pub(crate) fn open(&mut self) -> usize {
        self.used.push(Bandwidth::ZERO);
        self.used.len() - 1
    }

    /// Places subscribers `range` of `key` on VM `vm`, whose bandwidth
    /// grows by `bandwidth`. One key's runs must come in ascending order
    /// of their subscribers.
    pub(crate) fn place(
        &mut self,
        vm: usize,
        key: usize,
        range: Range<usize>,
        bandwidth: Bandwidth,
    ) {
        self.used[vm] += bandwidth;
        let [vm, key, start, end] = [vm, key, range.start, range.end]
            .map(|i| u32::try_from(i).expect("a fleet indexes its runs with u32"));
        self.runs.push(Run {
            vm,
            key,
            start,
            end,
        });
    }

    /// Appends `other`'s VMs, with their runs, after this fleet's.
    pub(crate) fn append(&mut self, other: FleetBuilder) {
        let base = u32::try_from(self.used.len()).expect("a fleet indexes its VMs with u32");
        let shifted = other.runs.iter().map(|&run| Run {
            vm: base + run.vm,
            ..run
        });
        self.runs.extend(shifted);
        self.used.extend(other.used);
    }

    /// The allocation of a topic-at-a-time packing over `groups`.
    pub(crate) fn finish_groups(self, groups: &TopicGroups, capacity: Bandwidth) -> Allocation {
        self.finish(
            groups.len(),
            |g| groups.topic(g),
            |g| groups.subscribers(g),
            capacity,
        )
    }

    /// Writes the arena. Two stable counting sorts order the runs by key,
    /// then by VM, so each VM's runs come out in topic order and one
    /// key's runs in placement order. `topic(key)` names a key's topic
    /// and `subscribers(key)` the subscribers its runs index. A run of
    /// the previous run's VM and key extends that run's row.
    pub(crate) fn finish<'s>(
        mut self,
        keys: usize,
        topic: impl Fn(usize) -> TopicId,
        subscribers: impl Fn(usize) -> &'s [SubscriberId],
        capacity: Bandwidth,
    ) -> Allocation {
        let mut by_key = vec![Run::default(); self.runs.len()];
        counting_sort(&self.runs, &mut by_key, keys, |r| r.key);
        counting_sort(&by_key, &mut self.runs, self.used.len(), |r| r.vm);
        let pairs = self.runs.iter().map(|r| (r.end - r.start) as usize).sum();
        let mut allocation =
            Allocation::with_room(capacity, self.used.len(), self.runs.len(), pairs);
        let mut runs = self.runs.iter().peekable();
        for (vm, &used) in self.used.iter().enumerate() {
            let mut last = None;
            while let Some(run) = runs.next_if(|r| r.vm as usize == vm) {
                let key = run.key as usize;
                let placed = &subscribers(key)[run.start as usize..run.end as usize];
                if last == Some(key) {
                    allocation.extend_row(placed);
                } else {
                    allocation.push_row(topic(key), placed);
                }
                last = Some(key);
            }
            allocation.close_vm(used);
        }
        allocation
    }
}

/// Stable counting sort of `from` into `to` by `key`, which is below
/// `buckets`.
fn counting_sort(from: &[Run], to: &mut [Run], buckets: usize, key: impl Fn(&Run) -> u32) {
    let mut next = vec![0u32; buckets];
    for run in from {
        next[key(run) as usize] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        (*slot, start) = (start, start + *slot);
    }
    for run in from {
        let at = &mut next[key(run) as usize];
        to[*at as usize] = *run;
        *at += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_model::{Rate, Workload};

    fn v(i: u32) -> SubscriberId {
        SubscriberId::new(i)
    }

    /// Runs placed out of topic order on interleaved VMs come out in the
    /// canonical layout, and the Eq. 2 records follow the placements.
    #[test]
    fn groups_come_out_in_topic_order_per_vm() {
        let mut b = Workload::builder();
        let rates = [3u64, 5, 7];
        let ts: Vec<TopicId> = rates
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        for _ in 0..4 {
            b.add_subscriber(ts.iter().copied()).unwrap();
        }
        let w = b.build();
        let all: Vec<(TopicId, SubscriberId)> = w
            .subscribers()
            .flat_map(|s| w.interests(s).iter().map(move |&t| (t, s)))
            .collect();
        let groups = TopicGroups::from_pairs(&all, w.num_topics());
        let mut fleet = FleetBuilder::default();
        let (a, c) = (fleet.open(), fleet.open());
        fleet.place(a, 2, 0..3, Rate::new(7) * 4);
        fleet.place(c, 2, 3..4, Rate::new(7) * 2);
        fleet.place(c, 0, 0..4, Rate::new(3) * 5);
        fleet.place(a, 1, 1..2, Rate::new(5) * 2);
        assert_eq!(fleet.most_free(Bandwidth::new(100)), Some(c));
        let allocation = fleet.finish_groups(&groups, Bandwidth::new(100));
        let expected = Allocation::from_groups(
            vec![
                vec![(ts[1], vec![v(1)]), (ts[2], vec![v(0), v(1), v(2)])],
                vec![(ts[0], (0..4).map(v).collect()), (ts[2], vec![v(3)])],
            ],
            &w,
            Bandwidth::new(100),
        );
        assert_eq!(allocation, expected);
    }

    /// Runs of one key on one VM merge into one row, subscribers in
    /// placement order, whatever the VMs and keys placed in between.
    #[test]
    fn runs_of_one_key_merge_into_one_row() {
        let mut b = Workload::builder();
        let t0 = b.add_topic(Rate::new(2)).unwrap();
        let t1 = b.add_topic(Rate::new(3)).unwrap();
        for _ in 0..3 {
            b.add_subscriber([t0, t1]).unwrap();
        }
        let w = b.build();
        let placed = [v(0), v(0), v(1), v(1), v(2), v(2)];
        let mut fleet = FleetBuilder::default();
        let (a, c) = (fleet.open(), fleet.open());
        for (i, (vm, t, cost)) in [
            (a, 1, 6),
            (c, 0, 4),
            (a, 0, 4),
            (a, 1, 3),
            (c, 0, 2),
            (a, 1, 3),
        ]
        .into_iter()
        .enumerate()
        {
            fleet.place(vm, t, i..i + 1, Bandwidth::new(cost));
        }
        let topic = |t| TopicId::new(t as u32);
        let allocation = fleet.finish(2, topic, |_| &placed, Bandwidth::new(100));
        let expected = Allocation::from_groups(
            vec![
                vec![(t0, vec![v(1)]), (t1, vec![v(0), v(1), v(2)])],
                vec![(t0, vec![v(0), v(2)])],
            ],
            &w,
            Bandwidth::new(100),
        );
        assert_eq!(allocation, expected);
    }

    /// `append` moves VMs with their rows and records.
    #[test]
    fn append_moves_whole_vms() {
        let mut b = Workload::builder();
        let t = b.add_topic(Rate::new(4)).unwrap();
        b.add_subscriber([t]).unwrap();
        b.add_subscriber([t]).unwrap();
        let w = b.build();
        let groups = TopicGroups::from_pairs(&[(t, v(0)), (t, v(1))], 1);
        let (mut fleet, mut other) = (FleetBuilder::default(), FleetBuilder::default());
        let (a, c) = (other.open(), fleet.open());
        other.place(a, 0, 0..1, Rate::new(4) * 2);
        fleet.place(c, 0, 1..2, Rate::new(4) * 2);
        fleet.append(other);
        let allocation = fleet.finish_groups(&groups, Bandwidth::new(100));
        let expected = Allocation::from_groups(
            vec![vec![(t, vec![v(1)])], vec![(t, vec![v(0)])]],
            &w,
            Bandwidth::new(100),
        );
        assert_eq!(allocation, expected);
    }
}
