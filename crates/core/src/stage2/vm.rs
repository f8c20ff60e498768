//! Mutable VM state used while packing.

use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId};

/// A VM being filled by a topic-at-a-time Stage-2 allocator (CBP, FFD,
/// the mixed-fleet packer): `(topic, subscribers)` rows in arrival order
/// plus incrementally tracked bandwidth.
///
/// **Contract:** the packer finishes one topic before it starts the
/// next, so a topic already hosted here is always the *last* row.
/// [`VmBuild::delta`], [`VmBuild::add_pair`] and [`VmBuild::add_batch`]
/// therefore look at the last row only — O(1) per call, with no search
/// and no sorted insert — and debug builds assert on every new row that
/// the topic is not hosted further up. Pair-at-a-time packers, whose
/// topics interleave, use the baselines' sorted-row builder instead.
///
/// Nothing is sorted while packing:
/// [`Allocation::from_groups`](crate::Allocation::from_groups) is the one
/// place that orders the rows (placements by topic, subscribers by id).
#[derive(Clone, Debug, Default)]
pub(crate) struct VmBuild {
    rows: Vec<(TopicId, Vec<SubscriberId>)>,
    used: Bandwidth,
}

impl VmBuild {
    pub(crate) fn new() -> Self {
        VmBuild::default()
    }

    /// Bandwidth currently in use (`bw_b`). The allocators track totals
    /// incrementally and query headroom via [`VmBuild::free`]; the
    /// mixed-fleet downsize pass reads it to find each VM's smallest
    /// fitting tier.
    #[inline]
    pub(crate) fn used(&self) -> Bandwidth {
        self.used
    }

    /// Free headroom `BC − bw_b`.
    #[inline]
    pub(crate) fn free(&self, capacity: Bandwidth) -> Bandwidth {
        capacity.saturating_sub(self.used)
    }

    /// Marginal cost of adding one pair of topic `t`: `2·ev_t` when the
    /// topic is new to this VM (incoming stream + delivery), `ev_t`
    /// otherwise. By the contract, a hosted `t` is the last row.
    #[inline]
    pub(crate) fn delta(&self, t: TopicId, rate: Rate) -> Bandwidth {
        if self.rows.last().is_some_and(|&(last, _)| last == t) {
            rate.volume()
        } else {
            rate.pair_cost()
        }
    }

    /// Adds a single pair, updating bandwidth. The caller must have
    /// checked capacity via [`VmBuild::delta`].
    pub(crate) fn add_pair(&mut self, t: TopicId, rate: Rate, v: SubscriberId) {
        self.add_batch(t, rate, &[v]);
    }

    /// Adds several pairs of the same topic at once. Bandwidth grows by
    /// `(n+1)·ev_t` if the topic is new, `n·ev_t` otherwise.
    pub(crate) fn add_batch(&mut self, t: TopicId, rate: Rate, vs: &[SubscriberId]) {
        if vs.is_empty() {
            return;
        }
        let n = vs.len() as u64;
        match self.rows.last_mut() {
            Some((last, row)) if *last == t => {
                self.used += rate * n;
                row.extend_from_slice(vs);
            }
            _ => {
                debug_assert!(
                    self.rows.iter().all(|&(u, _)| u != t),
                    "topic {t} came back to a VM after another topic: \
                     a VmBuild packer must finish one topic before the next"
                );
                self.used += rate * (n + 1);
                self.rows.push((t, vs.to_vec()));
            }
        }
    }

    /// Consumes the build, yielding its rows in arrival order for
    /// [`Allocation::from_groups`](crate::Allocation::from_groups), which
    /// sorts them.
    pub(crate) fn into_groups(self) -> Vec<(TopicId, Vec<SubscriberId>)> {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TopicId {
        TopicId::new(i)
    }
    fn v(i: u32) -> SubscriberId {
        SubscriberId::new(i)
    }

    #[test]
    fn delta_depends_on_topic_presence() {
        let mut vm = VmBuild::new();
        let rate = Rate::new(10);
        assert_eq!(vm.delta(t(0), rate), Bandwidth::new(20));
        vm.add_pair(t(0), rate, v(0));
        assert_eq!(vm.used(), Bandwidth::new(20));
        assert_eq!(vm.delta(t(0), rate), Bandwidth::new(10));
        vm.add_pair(t(0), rate, v(1));
        assert_eq!(vm.used(), Bandwidth::new(30));
    }

    #[test]
    fn batch_matches_individual_adds() {
        let rate = Rate::new(7);
        let subs = [v(0), v(1), v(2)];
        let mut one = VmBuild::new();
        for &s in &subs {
            one.add_pair(t(3), rate, s);
        }
        let mut batch = VmBuild::new();
        batch.add_batch(t(3), rate, &subs);
        assert_eq!(one.used(), batch.used());
        assert_eq!(one.into_groups(), batch.into_groups());
    }

    #[test]
    fn rows_keep_arrival_order() {
        // Topics arrive one at a time, out of id order; each row stays
        // where it arrived and a topic's later pairs join its (last) row.
        let rate = Rate::new(2);
        let mut vm = VmBuild::new();
        for i in [5u32, 1, 3, 0, 4] {
            vm.add_pair(t(i), rate, v(i));
            vm.add_batch(t(i), rate, &[v(10 + i)]);
            assert_eq!(vm.delta(t(i), rate), Bandwidth::new(2));
        }
        assert_eq!(vm.used(), Bandwidth::new(5 * 3 * 2));
        let rows = vm.into_groups();
        let topics: Vec<u32> = rows.iter().map(|(tt, _)| tt.raw()).collect();
        assert_eq!(topics, [5, 1, 3, 0, 4]);
        assert!(rows
            .iter()
            .all(|(tt, vs)| vs == &[v(tt.raw()), v(10 + tt.raw())]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must finish one topic before the next")]
    fn returning_topic_breaks_the_contract() {
        let mut vm = VmBuild::new();
        vm.add_pair(t(0), Rate::new(2), v(0));
        vm.add_pair(t(1), Rate::new(2), v(1));
        vm.add_pair(t(0), Rate::new(2), v(2));
    }

    #[test]
    fn second_batch_of_same_topic_pays_no_incoming() {
        let rate = Rate::new(5);
        let mut vm = VmBuild::new();
        vm.add_batch(t(1), rate, &[v(0)]);
        assert_eq!(vm.used(), Bandwidth::new(10));
        vm.add_batch(t(1), rate, &[v(1), v(2)]);
        assert_eq!(vm.used(), Bandwidth::new(20));
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut vm = VmBuild::new();
        vm.add_batch(t(0), Rate::new(5), &[]);
        assert_eq!(vm.used(), Bandwidth::ZERO);
        assert!(vm.into_groups().is_empty());
    }

    #[test]
    fn free_saturates() {
        let mut vm = VmBuild::new();
        vm.add_pair(t(0), Rate::new(10), v(0));
        assert_eq!(vm.free(Bandwidth::new(25)), Bandwidth::new(5));
        assert_eq!(vm.free(Bandwidth::new(15)), Bandwidth::ZERO);
    }
}
