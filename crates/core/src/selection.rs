//! The output of Stage 1: a set of topic-subscriber pairs.

use pubsub_model::csr::{shift_offsets, splice_in_place};
use pubsub_model::{Bandwidth, Pair, Rate, SubscriberId, TopicId, Workload};
use std::ops::Range;

/// A set `S` of topic-subscriber pairs chosen to satisfy every subscriber
/// (the output of Stage 1, §III-A), stored as a CSR arena: one flat topic
/// buffer plus per-subscriber row offsets, rows in selection order. Row
/// `v` belongs to the workload's subscriber `v`.
///
/// ```
/// use mcss_core::Selection;
/// use pubsub_model::{Rate, TopicId, Workload};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Workload::builder();
/// let t = b.add_topic(Rate::new(10))?;
/// b.add_subscriber([t])?;
/// let w = b.build();
///
/// let s = Selection::from_per_subscriber(vec![vec![t]]);
/// assert_eq!(s.pair_count(), 1);
/// assert!(s.satisfies(&w, Rate::new(10)));
/// assert_eq!(s.outgoing_volume(&w).get(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Selection {
    /// `offsets[v]..offsets[v + 1]` delimits subscriber `v`'s row in
    /// `topics`. Always `num_subscribers() + 1` entries, first 0, last
    /// `topics.len()`. Packed to u32 (at most `u32::MAX` selected pairs,
    /// checked at construction) — half the offset-table bytes of machine
    /// words at millions of subscribers.
    offsets: Vec<u32>,
    /// All selected topics, rows concatenated in subscriber order. Within
    /// a row, topics keep the order the selector chose them in — First-Fit
    /// bin packing (Alg. 3) consumes pairs "in no particular sequence",
    /// which we pin to this order for determinism.
    topics: Vec<TopicId>,
}

impl Selection {
    /// Wraps per-subscriber topic lists (indexed by subscriber id) —
    /// convenience constructor for tests and small literals; hot paths
    /// should use [`SelectionBuilder`] or [`Selection::from_csr`].
    pub fn from_per_subscriber(per_subscriber: Vec<Vec<TopicId>>) -> Self {
        let mut b = SelectionBuilder::with_capacity(
            per_subscriber.len(),
            per_subscriber.iter().map(Vec::len).sum(),
        );
        for row in per_subscriber {
            b.push_row(row);
        }
        b.build()
    }

    /// Assembles a selection directly from its CSR parts: `offsets[v]..
    /// offsets[v + 1]` must delimit subscriber `v`'s row in `topics`.
    ///
    /// ```
    /// use mcss_core::Selection;
    /// use pubsub_model::{SubscriberId, TopicId};
    ///
    /// let t = TopicId::new;
    /// // Two subscribers: row [t2, t0] and row [t1].
    /// let s = Selection::from_csr(vec![0, 2, 3], vec![t(2), t(0), t(1)]);
    /// assert_eq!(s.num_subscribers(), 2);
    /// assert_eq!(s.selected(SubscriberId::new(0)), &[t(2), t(0)]);
    /// assert_eq!(s.selected(SubscriberId::new(1)), &[t(1)]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty, does not start at 0, does not end at
    /// `topics.len()`, is not monotonically non-decreasing, or addresses
    /// more than `u32::MAX` pairs (the packed-offset limit).
    pub fn from_csr(offsets: Vec<usize>, topics: Vec<TopicId>) -> Self {
        assert!(!offsets.is_empty(), "offsets needs at least the leading 0");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("non-empty"),
            topics.len(),
            "offsets must end at the topic buffer length"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert!(
            topics.len() <= u32::MAX as usize,
            "selection exceeds u32::MAX pairs"
        );
        Selection {
            offsets: offsets.into_iter().map(|o| o as u32).collect(),
            topics,
        }
    }

    /// The raw packed CSR (offset table + flat topic arena), for
    /// arena-preserving serialization (the `MCSSTOR1` store).
    pub(crate) fn raw_csr(&self) -> (&[u32], &[TopicId]) {
        (&self.offsets, &self.topics)
    }

    /// Rebuilds a selection from a raw packed CSR as written by
    /// [`Selection::raw_csr`] — the fallible twin of
    /// [`Selection::from_csr`], for untrusted on-disk input.
    pub(crate) fn try_from_csr_u32(
        offsets: Vec<u32>,
        topics: Vec<TopicId>,
    ) -> Result<Selection, String> {
        if offsets.first() != Some(&0) {
            return Err("selection offsets must start at 0".into());
        }
        if offsets.last().map(|&o| o as usize) != Some(topics.len()) {
            return Err("selection offsets must end at the topic buffer length".into());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("selection offsets must be monotone".into());
        }
        Ok(Selection { offsets, topics })
    }

    /// Replaces rows `rows` (ascending) with the rows of `side`, in
    /// order, where they lie ([`pubsub_model::csr`]): only the runs
    /// between replaced rows whose position changes move. The selection
    /// grows to `n` rows; rows past its end append, and unlisted ones
    /// among them come into being empty.
    pub(crate) fn splice_rows(&mut self, rows: &[u32], side: &Selection, n: usize) {
        debug_assert_eq!(rows.len(), side.num_subscribers());
        let end = self.topics.len();
        let edits: Vec<(Range<usize>, usize)> = rows
            .iter()
            .enumerate()
            .map(|(j, &vi)| {
                let vi = vi as usize;
                let old = match self.offsets.get(vi + 1) {
                    Some(&hi) => self.offsets[vi] as usize..hi as usize,
                    None => end..end,
                };
                (old, side.row(j).len())
            })
            .collect();
        splice_in_place(&mut self.topics, &edits, |j, slot| {
            slot.copy_from_slice(side.row(j));
        });
        assert!(
            self.topics.len() <= u32::MAX as usize,
            "selection exceeds u32::MAX pairs"
        );
        let deltas = rows
            .iter()
            .zip(&edits)
            .map(|(&vi, (old, len))| (vi as usize, *len as isize - old.len() as isize));
        shift_offsets(&mut self.offsets, n, deltas);
    }

    /// Starts an empty row-by-row builder.
    pub fn builder() -> SelectionBuilder {
        SelectionBuilder::new()
    }

    /// Number of subscribers covered (equals the workload's subscriber
    /// count for any selector output).
    pub fn num_subscribers(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The topics selected for subscriber `v`, in selection order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn selected(&self, v: SubscriberId) -> &[TopicId] {
        self.row(v.index())
    }

    /// Row of subscriber `vi` (plain-index twin of
    /// [`Selection::selected`]).
    #[inline]
    fn row(&self, vi: usize) -> &[TopicId] {
        &self.topics[self.offsets[vi] as usize..self.offsets[vi + 1] as usize]
    }

    /// Iterates the rows in subscriber order, as borrowed slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[TopicId]> + '_ {
        (0..self.num_subscribers()).map(|vi| self.row(vi))
    }

    /// Total number of selected pairs `|S|`.
    pub fn pair_count(&self) -> u64 {
        self.topics.len() as u64
    }

    /// Allocated heap bytes behind the selection's CSR (capacities, so
    /// builder slack shows up) — one input to the
    /// [`MemoryFootprint`](crate::MemoryFootprint) report.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.offsets) + bytes(&self.topics)
    }

    /// Iterates all pairs in subscriber-major selection order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = Pair> + '_ {
        (0..self.num_subscribers()).flat_map(move |vi| {
            let v = SubscriberId::new(vi as u32);
            self.row(vi).iter().map(move |&t| Pair::new(t, v))
        })
    }

    /// Total outgoing delivery volume `Σ_{(t,v)∈S} ev_t`.
    pub fn outgoing_volume(&self, workload: &Workload) -> Bandwidth {
        let mut total = Bandwidth::ZERO;
        for &t in &self.topics {
            total += workload.rate(t);
        }
        total
    }

    /// The Stage-1 heuristic's bandwidth cost `Σ_{(t,v)∈S} 2·ev_t`
    /// (incoming + outgoing per pair; Alg. 1's cost notion, which charges
    /// the incoming stream once per pair rather than once per topic).
    pub fn stage1_cost(&self, workload: &Workload) -> Bandwidth {
        let mut total = Bandwidth::ZERO;
        for &t in &self.topics {
            total += workload.rate(t).pair_cost();
        }
        total
    }

    /// Rate delivered to subscriber `v` under this selection
    /// (`Σ_{t : (t,v)∈S} ev_t`).
    pub fn delivered_rate(&self, workload: &Workload, v: SubscriberId) -> Rate {
        self.row(v.index()).iter().map(|&t| workload.rate(t)).sum()
    }

    /// Checks the Stage-1 constraint `Σ_v f_v = |V|`: every subscriber of
    /// the workload receives at least `τ_v = min(τ, Σ_{t∈T_v} ev_t)`.
    pub fn satisfies(&self, workload: &Workload, tau: Rate) -> bool {
        if self.num_subscribers() != workload.num_subscribers() {
            return false;
        }
        workload
            .subscribers()
            .all(|v| self.delivered_rate(workload, v) >= workload.tau_v(v, tau))
    }

    /// Groups the selected pairs by topic as a [`TopicGroups`] CSR
    /// inversion: `(t, subscribers of t in S)`, ordered by topic id, only
    /// topics with at least one selected pair. This is the "grouping of
    /// pairs" optimization (b) of §III-B, built by two counting-sort passes
    /// over the selection arena — no hashing, no per-topic `Vec`
    /// allocation.
    pub fn topic_groups(&self, workload: &Workload) -> TopicGroups {
        // Pass 1: size each topic's group, then compact into the group
        // index (counts become write cursors).
        let mut cursor = vec![0usize; workload.num_topics()];
        for &t in &self.topics {
            cursor[t.index()] += 1;
        }
        let (topics, offsets) = compact_group_index(&mut cursor);
        // Pass 2: scatter subscriber ids in row-major selection order, so
        // each group lists its subscribers exactly as the selection visits
        // them.
        let mut subscribers =
            vec![SubscriberId::new(0); *offsets.last().expect("leading 0") as usize];
        for (vi, tv) in self.rows().enumerate() {
            let v = SubscriberId::new(vi as u32);
            for &t in tv {
                subscribers[cursor[t.index()]] = v;
                cursor[t.index()] += 1;
            }
        }
        TopicGroups {
            topics,
            offsets,
            subscribers,
        }
    }
}

/// CSR inversion of a pair list: subscribers grouped by topic, topics in
/// ascending id order, one flat subscriber arena plus group offsets.
///
/// This is the layout Stage-2 packers and the incremental repairer walk:
/// two counting-sort passes and three flat buffers, with no per-topic
/// `Vec` and no hashing.
///
/// ```
/// use mcss_core::{Selection, TopicGroups};
/// use pubsub_model::{Rate, SubscriberId, TopicId, Workload};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Workload::builder();
/// let t0 = b.add_topic(Rate::new(10))?;
/// let t1 = b.add_topic(Rate::new(5))?;
/// let v0 = b.add_subscriber([t0, t1])?;
/// let v1 = b.add_subscriber([t1])?;
/// let w = b.build();
///
/// let s = Selection::from_per_subscriber(vec![vec![t1, t0], vec![t1]]);
/// let groups = s.topic_groups(&w);
/// assert_eq!(groups.len(), 2);
/// assert_eq!(groups.topic(0), t0);
/// assert_eq!(groups.subscribers(0), &[v0]);
/// assert_eq!(groups.subscribers(1), &[v0, v1]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopicGroups {
    /// Topics with at least one pair, ascending.
    topics: Vec<TopicId>,
    /// `offsets[g]..offsets[g + 1]` delimits group `g` in `subscribers`.
    /// Packed to u32 like every other CSR offset table.
    offsets: Vec<u32>,
    /// Flat subscriber arena, groups concatenated in topic order.
    subscribers: Vec<SubscriberId>,
}

impl TopicGroups {
    /// Groups a flat pair list by topic: topics ascending, each group's
    /// subscribers in list order — the same output shape as
    /// [`Selection::topic_groups`]. Every topic index must be below
    /// `num_topics`.
    ///
    /// Dense lists group by the two counting-sort passes; a list tiny
    /// relative to the topic universe (the O(Δ) churn path's case) is
    /// stably sorted instead, so the cost tracks the pairs, never `|T|`.
    pub fn from_pairs(pairs: &[(TopicId, SubscriberId)], num_topics: usize) -> TopicGroups {
        if pairs.len() * 8 < num_topics {
            return TopicGroups::from_sparse_pairs(pairs);
        }
        let mut cursor = vec![0usize; num_topics];
        for &(t, _) in pairs {
            cursor[t.index()] += 1;
        }
        let (topics, offsets) = compact_group_index(&mut cursor);
        let mut subscribers = vec![SubscriberId::new(0); pairs.len()];
        for &(t, v) in pairs {
            subscribers[cursor[t.index()]] = v;
            cursor[t.index()] += 1;
        }
        TopicGroups {
            topics,
            offsets,
            subscribers,
        }
    }

    /// `O(Δ log Δ)` twin of the counting-sort grouping for pair lists much
    /// smaller than the topic universe: a *stable* sort by topic keeps
    /// each group's subscribers in list order, so the output is
    /// bit-identical to the counting-sort path.
    fn from_sparse_pairs(pairs: &[(TopicId, SubscriberId)]) -> TopicGroups {
        let mut sorted: Vec<(TopicId, SubscriberId)> = pairs.to_vec();
        sorted.sort_by_key(|&(t, _)| t);
        let mut topics: Vec<TopicId> = Vec::new();
        let mut offsets = vec![0u32];
        let mut subscribers: Vec<SubscriberId> = Vec::with_capacity(sorted.len());
        for (t, v) in sorted {
            if topics.last() != Some(&t) {
                if !topics.is_empty() {
                    offsets.push(group_offset(subscribers.len()));
                }
                topics.push(t);
            }
            subscribers.push(v);
        }
        if !topics.is_empty() {
            offsets.push(group_offset(subscribers.len()));
        }
        TopicGroups {
            topics,
            offsets,
            subscribers,
        }
    }

    /// Number of non-empty topic groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    /// `true` when no pair was grouped.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// Total pairs across all groups.
    #[inline]
    pub fn pair_count(&self) -> u64 {
        self.subscribers.len() as u64
    }

    /// The topic of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    pub fn topic(&self, g: usize) -> TopicId {
        self.topics[g]
    }

    /// The subscribers of group `g`, in selection order.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    pub fn subscribers(&self, g: usize) -> &[SubscriberId] {
        &self.subscribers[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Iterates `(topic, subscribers)` in ascending topic order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TopicId, &[SubscriberId])> + '_ {
        (0..self.len()).map(|g| (self.topic(g), self.subscribers(g)))
    }

    /// Group-index permutation in decreasing total remaining volume
    /// (`ev_t · |pairs|`), ties by ascending topic id — CBP optimization
    /// (c)'s processing order, shared by every packer that consumes the
    /// CSR directly.
    pub fn order_by_total_volume(&self, workload: &Workload) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by_key(|&g| {
            let g = g as usize;
            std::cmp::Reverse(
                u128::from(workload.rate(self.topic(g)).get()) * self.subscribers(g).len() as u128,
            )
        });
        order
    }
}

/// Packs a group-arena position to u32 (checked, never truncating).
#[inline]
fn group_offset(pos: usize) -> u32 {
    u32::try_from(pos).expect("topic groups exceed u32::MAX pairs")
}

/// Compacts a per-topic count array into the group index — non-empty
/// topics (ascending) plus group offsets — while rewriting the counts
/// into global write cursors for the scatter pass. Shared by both
/// [`TopicGroups`] constructors.
fn compact_group_index(cursor: &mut [usize]) -> (Vec<TopicId>, Vec<u32>) {
    let present = cursor.iter().filter(|&&c| c > 0).count();
    let mut topics = Vec::with_capacity(present);
    let mut offsets = Vec::with_capacity(present + 1);
    offsets.push(0u32);
    let mut total = 0usize;
    for (ti, slot) in cursor.iter_mut().enumerate() {
        let count = *slot;
        *slot = total;
        if count > 0 {
            topics.push(TopicId::new(ti as u32));
            total += count;
            offsets.push(group_offset(total));
        }
    }
    (topics, offsets)
}

/// Row-by-row [`Selection`] assembler writing straight into the CSR
/// arena — no per-subscriber allocation.
///
/// ```
/// use mcss_core::{Selection, SelectionBuilder};
/// use pubsub_model::{SubscriberId, TopicId};
///
/// let t = TopicId::new;
/// let mut b = SelectionBuilder::with_capacity(2, 3);
/// b.push_row([t(2), t(0)]);
/// // Hot paths can build a row in place instead of collecting it first:
/// b.push_row_with(|row| row.push(t(1)));
/// let s = b.build();
/// assert_eq!(s.selected(SubscriberId::new(0)), &[t(2), t(0)]);
/// assert_eq!(s.selected(SubscriberId::new(1)), &[t(1)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SelectionBuilder {
    offsets: Vec<u32>,
    topics: Vec<TopicId>,
}

impl SelectionBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        SelectionBuilder {
            offsets: vec![0],
            topics: Vec::new(),
        }
    }

    /// An empty builder with room for `rows` subscribers and `pairs`
    /// total topics.
    pub fn with_capacity(rows: usize, pairs: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        SelectionBuilder {
            offsets,
            topics: Vec::with_capacity(pairs),
        }
    }

    /// Current end of the topic arena as a packed offset.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` pairs — the packed-offset limit; one
    /// compare per row, never a silent truncation.
    #[inline]
    fn end_offset(&self) -> u32 {
        u32::try_from(self.topics.len()).expect("selection exceeds u32::MAX pairs")
    }

    /// Appends the next subscriber's row.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = TopicId>) {
        self.topics.extend(row);
        let end = self.end_offset();
        self.offsets.push(end);
    }

    /// Appends the next subscriber's row by letting `fill` write directly
    /// into the topic arena (everything it pushes becomes the row).
    pub fn push_row_with(&mut self, fill: impl FnOnce(&mut Vec<TopicId>)) {
        fill(&mut self.topics);
        let end = self.end_offset();
        self.offsets.push(end);
    }

    /// Appends rows `range` of `src` verbatim: one topic-arena memcpy
    /// plus a shifted offset extend — the bulk row-reuse fast path the
    /// incremental re-allocator takes for runs of clean subscribers.
    /// Returns the number of pairs copied.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds `src.num_subscribers()`.
    pub fn push_rows_from(&mut self, src: &Selection, range: std::ops::Range<usize>) -> u64 {
        let src_start = src.offsets[range.start];
        let src_end = src.offsets[range.end];
        let base = self.end_offset();
        self.topics
            .extend_from_slice(&src.topics[src_start as usize..src_end as usize]);
        let _ = self.end_offset(); // the copied block must stay addressable
        self.offsets.extend(
            src.offsets[range.start + 1..=range.end]
                .iter()
                .map(|&o| o - src_start + base),
        );
        u64::from(src_end - src_start)
    }

    /// Appends every row of `part` after this builder's rows (used to
    /// stitch per-thread chunks back together in subscriber order).
    pub fn append(&mut self, part: SelectionBuilder) {
        let base = self.end_offset();
        self.topics.extend_from_slice(&part.topics);
        let _ = self.end_offset(); // the appended chunk must stay addressable
        self.offsets
            .extend(part.offsets[1..].iter().map(|&o| base + o));
    }

    /// Rows pushed so far.
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Finishes the arena. Buffers that over-reserved by more than 1/8
    /// (cold solves size the topic arena by guess) are shrunk to fit;
    /// steady-state incremental builds reserve from the previous epoch's
    /// exact pair count and skip the realloc.
    pub fn build(mut self) -> Selection {
        if self.topics.capacity() > self.topics.len() + self.topics.len() / 8 {
            self.topics.shrink_to_fit();
        }
        if self.offsets.capacity() > self.offsets.len() + self.offsets.len() / 8 {
            self.offsets.shrink_to_fit();
        }
        Selection {
            offsets: self.offsets,
            topics: self.topics,
        }
    }
}

/// Reusable scratch state for diffing two selection rows without cloning
/// or sorting either side.
///
/// One call to [`SelectionDiff::diff_rows`] is `O(|old| + |new|)`: topics
/// of the old row are stamped with a fresh epoch in a topic-indexed mark
/// array, the new row then classifies each topic by its stamp, and the
/// old row is re-walked for unmatched stamps. Rows must not repeat a
/// topic (selector rows never do).
#[derive(Clone, Debug, Default)]
pub struct SelectionDiff {
    mark: Vec<u64>,
    epoch: u64,
}

impl SelectionDiff {
    /// Fresh scratch (grows to the topic universe on first use).
    pub fn new() -> Self {
        SelectionDiff::default()
    }

    /// Calls `on_removed` for topics only in `old` and `on_added` for
    /// topics only in `new`, in their row order.
    pub fn diff_rows(
        &mut self,
        old: &[TopicId],
        new: &[TopicId],
        mut on_removed: impl FnMut(TopicId),
        mut on_added: impl FnMut(TopicId),
    ) {
        let max_index = old
            .iter()
            .chain(new)
            .map(|t| t.index())
            .max()
            .map_or(0, |m| m + 1);
        if self.mark.len() < max_index {
            self.mark.resize(max_index, 0);
        }
        self.epoch += 2;
        let e = self.epoch;
        for t in old {
            self.mark[t.index()] = e;
        }
        for &t in new {
            let slot = &mut self.mark[t.index()];
            if *slot == e {
                *slot = e + 1; // present in both rows
            } else {
                on_added(t);
            }
        }
        for &t in old {
            if self.mark[t.index()] == e {
                on_removed(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        let mut b = Workload::builder();
        let t0 = b.add_topic(Rate::new(20)).unwrap();
        let t1 = b.add_topic(Rate::new(10)).unwrap();
        let t2 = b.add_topic(Rate::new(5)).unwrap();
        b.add_subscriber([t0, t1, t2]).unwrap();
        b.add_subscriber([t1, t2]).unwrap();
        b.build()
    }

    fn t(i: u32) -> TopicId {
        TopicId::new(i)
    }

    #[test]
    fn pair_iteration_preserves_selection_order() {
        let s = Selection::from_per_subscriber(vec![vec![t(2), t(0)], vec![t(1)]]);
        let pairs: Vec<Pair> = s.iter_pairs().collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0], Pair::new(t(2), SubscriberId::new(0)));
        assert_eq!(pairs[1], Pair::new(t(0), SubscriberId::new(0)));
        assert_eq!(pairs[2], Pair::new(t(1), SubscriberId::new(1)));
    }

    #[test]
    fn volumes() {
        let w = workload();
        let s = Selection::from_per_subscriber(vec![vec![t(0), t(2)], vec![t(1)]]);
        assert_eq!(s.outgoing_volume(&w), Bandwidth::new(35));
        assert_eq!(s.stage1_cost(&w), Bandwidth::new(70));
        assert_eq!(s.pair_count(), 3);
    }

    #[test]
    fn satisfaction_respects_tau_v() {
        let w = workload();
        // v0 can receive 35 total, v1 15.
        let all = Selection::from_per_subscriber(vec![vec![t(0), t(1), t(2)], vec![t(1), t(2)]]);
        assert!(all.satisfies(&w, Rate::new(1000))); // τ_v caps at totals
        let partial = Selection::from_per_subscriber(vec![vec![t(0)], vec![t(1)]]);
        assert!(partial.satisfies(&w, Rate::new(10)));
        assert!(!partial.satisfies(&w, Rate::new(15))); // v1 delivers 10 < 15 cap... τ_v1 = 15
    }

    #[test]
    fn satisfaction_requires_full_cover() {
        let w = workload();
        let wrong_len = Selection::from_per_subscriber(vec![vec![t(0)]]);
        assert!(!wrong_len.satisfies(&w, Rate::new(1)));
    }

    #[test]
    fn topic_groups_inversion_matches_grouping() {
        let w = workload();
        let s = Selection::from_per_subscriber(vec![vec![t(2), t(1)], vec![t(1)]]);
        let groups = s.topic_groups(&w);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups.pair_count(), 3);
        assert_eq!(groups.topic(0), t(1));
        assert_eq!(
            groups.subscribers(0),
            &[SubscriberId::new(0), SubscriberId::new(1)]
        );
        assert_eq!(groups.topic(1), t(2));
        assert_eq!(groups.subscribers(1), &[SubscriberId::new(0)]);
    }

    #[test]
    fn topic_groups_from_pairs_preserves_list_order() {
        let v = SubscriberId::new;
        let pairs = vec![(t(3), v(5)), (t(1), v(2)), (t(3), v(0)), (t(1), v(9))];
        let groups = TopicGroups::from_pairs(&pairs, 5);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups.topic(0), t(1));
        assert_eq!(groups.subscribers(0), &[v(2), v(9)]);
        assert_eq!(groups.topic(1), t(3));
        assert_eq!(groups.subscribers(1), &[v(5), v(0)]);
        let empty = TopicGroups::from_pairs(&[], 5);
        assert!(empty.is_empty());
        assert_eq!(empty.pair_count(), 0);
    }

    #[test]
    fn sparse_pair_grouping_matches_counting_sort() {
        // A pair list tiny relative to the topic universe takes the
        // stable-sort path; force both paths over the same input by
        // varying `num_topics` and compare.
        let v = SubscriberId::new;
        let pairs = vec![
            (t(900), v(5)),
            (t(3), v(2)),
            (t(900), v(0)),
            (t(3), v(9)),
            (t(41), v(1)),
        ];
        let sparse = TopicGroups::from_pairs(&pairs, 1_000_000); // sorted path
        let dense = TopicGroups::from_pairs(&pairs, 1_000); // counting path
        assert_eq!(sparse, dense);
        assert_eq!(sparse.len(), 3);
        assert_eq!(sparse.subscribers(0), &[v(2), v(9)]);
        assert_eq!(sparse.subscribers(2), &[v(5), v(0)]);
        assert!(TopicGroups::from_pairs(&[], 1_000_000).is_empty());
    }

    #[test]
    fn delivered_rate_sums_selected_only() {
        let w = workload();
        let s = Selection::from_per_subscriber(vec![vec![t(1)], vec![]]);
        assert_eq!(s.delivered_rate(&w, SubscriberId::new(0)), Rate::new(10));
        assert_eq!(s.delivered_rate(&w, SubscriberId::new(1)), Rate::ZERO);
    }

    #[test]
    fn csr_and_per_subscriber_constructors_agree() {
        let nested = Selection::from_per_subscriber(vec![vec![t(2), t(0)], vec![], vec![t(1)]]);
        let flat = Selection::from_csr(vec![0, 2, 2, 3], vec![t(2), t(0), t(1)]);
        assert_eq!(nested, flat);
        assert_eq!(flat.rows().count(), 3);
        assert_eq!(flat.selected(SubscriberId::new(1)), &[] as &[TopicId]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_csr_rejects_descending_offsets() {
        Selection::from_csr(vec![0, 2, 1, 3], vec![t(0), t(1), t(2)]);
    }

    #[test]
    fn builder_append_stitches_chunks() {
        let mut left = SelectionBuilder::new();
        left.push_row([t(0), t(1)]);
        let mut right = SelectionBuilder::new();
        right.push_row([t(2)]);
        right.push_row([]);
        let mut all = SelectionBuilder::new();
        all.append(left);
        assert_eq!(all.num_rows(), 1);
        all.append(right);
        let s = all.build();
        assert_eq!(
            s,
            Selection::from_per_subscriber(vec![vec![t(0), t(1)], vec![t(2)], vec![]])
        );
    }

    #[test]
    fn splice_rows_replaces_and_appends_in_place() {
        let mut s = Selection::from_per_subscriber(vec![vec![t(0)], vec![t(1), t(2)], vec![t(3)]]);
        let side = Selection::from_per_subscriber(vec![vec![], vec![t(5), t(6)], vec![t(7)]]);
        // Row 0 empties, row 2 grows, row 4 appends past an empty row 3.
        s.splice_rows(&[0, 2, 4], &side, 5);
        assert_eq!(
            s,
            Selection::from_per_subscriber(vec![
                vec![],
                vec![t(1), t(2)],
                vec![t(5), t(6)],
                vec![],
                vec![t(7)],
            ])
        );
    }

    #[test]
    fn diff_rows_reports_exact_symmetric_difference() {
        let mut diff = SelectionDiff::new();
        let mut removed = Vec::new();
        let mut added = Vec::new();
        // Unsorted rows on both sides: the differ must not care.
        diff.diff_rows(
            &[t(5), t(1), t(2)],
            &[t(9), t(2), t(3), t(5)],
            |x| removed.push(x),
            |x| added.push(x),
        );
        assert_eq!(removed, vec![t(1)]);
        assert_eq!(added, vec![t(9), t(3)]);

        // Scratch reuse: a second diff must not leak stale stamps.
        removed.clear();
        added.clear();
        diff.diff_rows(&[t(1)], &[t(1)], |x| removed.push(x), |x| added.push(x));
        assert!(removed.is_empty() && added.is_empty());
    }

    #[test]
    fn diff_rows_handles_empty_sides() {
        let mut diff = SelectionDiff::new();
        let mut removed = Vec::new();
        let mut added = Vec::new();
        diff.diff_rows(&[], &[t(3)], |x| removed.push(x), |x| added.push(x));
        diff.diff_rows(&[t(7)], &[], |x| removed.push(x), |x| added.push(x));
        assert_eq!(removed, vec![t(7)]);
        assert_eq!(added, vec![t(3)]);
    }
}
