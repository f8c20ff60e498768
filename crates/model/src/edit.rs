//! Mutable workload edit: folds raw subscribe/unsubscribe/re-rate
//! operations into per-epoch [`Workload`]s plus exact change lists.
//!
//! The solver side of the repository consumes *immutable* workloads —
//! CSR arenas built once per epoch — while an event-sourced daemon
//! receives a stream of individual operations. [`WorkloadEdit`] bridges
//! the two. It keeps the last committed rate table and interest CSR as
//! its *base*, and gives each subscriber an operation changes a
//! copy-on-write row in one flat arena, found in O(1) through a
//! per-subscriber slot table. [`WorkloadEdit::commit`] emits the epoch's
//! workload together with the exact sets of changed topics and
//! subscribers.
//!
//! # Cost model
//!
//! An operation costs a binary search in its subscriber's row, plus a
//! copy of that row the first time the epoch changes it. With Δ the
//! epoch's changed subscribers and pairs, a commit against the previous
//! epoch's workload is one splice pass over its arenas: **O(Δ log Δ)
//! work** — sorting the change lists, re-ranking the changed rows and
//! merging the follower rows of the topics whose subscriber set changed —
//! **plus O(pairs) memcpy** of the clean runs between them, their offsets
//! shifted. Rows that follow a re-rated topic are re-ranked too; when
//! they and the changed rows make up more than half the workload, the
//! ranked arena comes from the global counting-sort scatter instead.
//!
//! The splice trusts `prev` only after a memcmp shows its rates and
//! interest arenas are the edit's base. Any other `prev`, or none,
//! rebuilds the derived arenas from scratch: a wrong `prev` costs time,
//! never correctness.

use crate::ids::{SubscriberId, TopicId};
use crate::units::{Rate, MAX_RATE};
use crate::workload::{rank_by_scatter, Workload, WorkloadError};
use std::cmp::Reverse;
use std::ops::Range;

/// The slot of a subscriber whose row is still the base's.
const CLEAN: u32 = u32::MAX;

/// A changed subscriber's working row: `len` sorted topics at `start` in
/// the copy-on-write arena, with room for `cap` before it must move.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: usize,
    len: usize,
    cap: usize,
}

/// Mutable edit of a workload under an operation stream (module docs).
///
/// Operations validate eagerly — a rejected operation leaves the edit
/// untouched — and changed topics/subscribers are tracked exactly: an
/// operation that turns out to be a no-op (re-rating a topic to its
/// current rate, subscribing twice) marks nothing.
///
/// ```
/// use pubsub_model::{Rate, SubscriberId, TopicId, WorkloadEdit};
///
/// # fn main() -> Result<(), pubsub_model::WorkloadError> {
/// let mut edit = WorkloadEdit::new();
/// edit.rerate(TopicId::new(0), Rate::new(20))?; // introduces topic 0
/// edit.subscribe(SubscriberId::new(0), TopicId::new(0))?;
/// let (w, topics, subs) = edit.commit(None);
/// assert_eq!(w.pair_count(), 1);
/// assert_eq!(topics, vec![TopicId::new(0)]);
/// assert_eq!(subs, vec![SubscriberId::new(0)]);
///
/// // The next epoch splices the last: clean rows copy verbatim.
/// edit.subscribe(SubscriberId::new(1), TopicId::new(0))?;
/// let (w2, _, subs) = edit.commit(Some(&w));
/// assert_eq!(w2.pair_count(), 2);
/// assert_eq!(subs, vec![SubscriberId::new(1)]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadEdit {
    /// Event rates as of the last commit.
    base_rates: Vec<Rate>,
    /// Interest CSR offsets as of the last commit.
    base_offsets: Vec<u32>,
    /// Interest CSR topics as of the last commit.
    base_topics: Vec<TopicId>,
    /// Current event rates: the base plus this epoch's re-rates and new
    /// topics.
    rates: Vec<Rate>,
    /// Per current subscriber, the index in `spans` of its working row,
    /// or [`CLEAN`] while its row is the base's (empty past the base).
    slots: Vec<u32>,
    /// Working rows of the subscribers changed this epoch.
    spans: Vec<Span>,
    /// Copy-on-write arena the working rows live in.
    cow: Vec<TopicId>,
    /// Current number of pairs.
    pairs: usize,
    changed_topics: Vec<TopicId>,
    changed_subscribers: Vec<SubscriberId>,
}

impl Default for WorkloadEdit {
    fn default() -> WorkloadEdit {
        WorkloadEdit {
            base_rates: Vec::new(),
            base_offsets: vec![0],
            base_topics: Vec::new(),
            rates: Vec::new(),
            slots: Vec::new(),
            spans: Vec::new(),
            cow: Vec::new(),
            pairs: 0,
            changed_topics: Vec::new(),
            changed_subscribers: Vec::new(),
        }
    }
}

impl WorkloadEdit {
    /// An empty edit: no topics, no subscribers, nothing pending.
    pub fn new() -> WorkloadEdit {
        WorkloadEdit::default()
    }

    /// An edit based on an existing workload with no pending changes —
    /// the starting point when resuming from a snapshot. Copies the rate
    /// table and interest arenas verbatim.
    pub fn from_workload(workload: &Workload) -> WorkloadEdit {
        let arenas = workload.arenas();
        WorkloadEdit {
            base_rates: arenas.rates.to_vec(),
            base_offsets: arenas.interest_offsets.to_vec(),
            base_topics: arenas.interest_topics.to_vec(),
            rates: arenas.rates.to_vec(),
            slots: vec![CLEAN; workload.num_subscribers()],
            pairs: arenas.interest_topics.len(),
            ..WorkloadEdit::default()
        }
    }

    /// Number of topics the edit currently knows.
    pub fn num_topics(&self) -> usize {
        self.rates.len()
    }

    /// Number of subscribers the edit currently knows.
    pub fn num_subscribers(&self) -> usize {
        self.slots.len()
    }

    /// Sets topic `t`'s event rate, introducing the topic when `t` is
    /// the next unused id. Re-rating to the current rate is a no-op and
    /// marks nothing.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::UnknownTopic`] if `t` would leave an id gap,
    /// [`WorkloadError::ZeroEventRate`] / [`WorkloadError::RateTooLarge`]
    /// for rates outside `1..=MAX_RATE` (§II-B assumes `ev_t > 0`).
    pub fn rerate(&mut self, t: TopicId, rate: Rate) -> Result<(), WorkloadError> {
        if rate.is_zero() {
            return Err(WorkloadError::ZeroEventRate);
        }
        if rate.get() > MAX_RATE {
            return Err(WorkloadError::RateTooLarge { rate });
        }
        let ti = t.index();
        if ti > self.rates.len() {
            // Topics are dense: the next topic must take the next id.
            return Err(WorkloadError::UnknownTopic {
                topic: t,
                num_topics: self.rates.len(),
            });
        }
        if ti == self.rates.len() {
            self.rates.push(rate);
            self.changed_topics.push(t);
        } else if self.rates[ti] != rate {
            self.rates[ti] = rate;
            self.changed_topics.push(t);
        }
        Ok(())
    }

    /// Adds the pair `(t, v)`, growing the subscriber table as needed
    /// (subscribers between the current count and `v` come into being
    /// with empty interest sets). Subscribing twice is a no-op.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::UnknownTopic`] if `t` has no rate yet — a topic
    /// is introduced by its first [`WorkloadEdit::rerate`];
    /// [`WorkloadError::TooManyPairs`] past the packed u32 CSR limit.
    pub fn subscribe(&mut self, v: SubscriberId, t: TopicId) -> Result<(), WorkloadError> {
        if t.index() >= self.rates.len() {
            return Err(WorkloadError::UnknownTopic {
                topic: t,
                num_topics: self.rates.len(),
            });
        }
        let vi = v.index();
        let Err(at) = self.row(vi).binary_search(&t) else {
            return Ok(());
        };
        if self.pairs >= u32::MAX as usize {
            return Err(WorkloadError::TooManyPairs);
        }
        if vi >= self.slots.len() {
            self.slots.resize(vi + 1, CLEAN);
        }
        let slot = self.writable(vi);
        let span = &mut self.spans[slot];
        if span.len == span.cap {
            // Full: make the row end the arena (moving it if it does not;
            // the old copy stays dead until the commit clears the arena),
            // then double its room in place.
            if span.start + span.cap != self.cow.len() {
                let start = self.cow.len();
                self.cow
                    .extend_from_within(span.start..span.start + span.len);
                span.start = start;
                span.cap = span.len;
            }
            let room = span.cap.max(2);
            self.cow.resize(self.cow.len() + room, t);
            span.cap += room;
        }
        let row = &mut self.cow[span.start..=span.start + span.len];
        row.copy_within(at..span.len, at + 1);
        row[at] = t;
        span.len += 1;
        self.pairs += 1;
        self.changed_subscribers.push(v);
        Ok(())
    }

    /// Removes the pair `(t, v)`. Unsubscribing from a topic the
    /// subscriber does not follow (or an unknown subscriber) is a no-op.
    pub fn unsubscribe(&mut self, v: SubscriberId, t: TopicId) {
        let vi = v.index();
        let Ok(at) = self.row(vi).binary_search(&t) else {
            return;
        };
        let slot = self.writable(vi);
        let span = &mut self.spans[slot];
        self.cow
            .copy_within(span.start + at + 1..span.start + span.len, span.start + at);
        span.len -= 1;
        self.pairs -= 1;
        self.changed_subscribers.push(v);
    }

    /// Number of topic/subscriber changes recorded since the last commit
    /// (`(changed topics, changed subscribers)`, before deduplication).
    pub fn pending_changes(&self) -> (usize, usize) {
        (self.changed_topics.len(), self.changed_subscribers.len())
    }

    /// Builds the epoch's workload and returns it with the deduplicated,
    /// ascending lists of changed topics and subscribers, clearing the
    /// pending-change state; the committed workload becomes the edit's
    /// new base. With `prev` the previous commit's workload, the derived
    /// arenas splice from it (module docs); otherwise they are rebuilt.
    /// Either path yields bit-identical arenas.
    pub fn commit(
        &mut self,
        prev: Option<&Workload>,
    ) -> (Workload, Vec<TopicId>, Vec<SubscriberId>) {
        let mut topics = std::mem::take(&mut self.changed_topics);
        topics.sort_unstable();
        topics.dedup();
        // Exactly the subscribers with a working row.
        let mut subs = std::mem::take(&mut self.changed_subscribers);
        subs.sort_unstable();
        subs.dedup();

        let base = prev.filter(|prev| {
            let arenas = prev.arenas();
            arenas.rates == self.base_rates.as_slice()
                && arenas.interest_offsets == self.base_offsets.as_slice()
                && arenas.interest_topics == self.base_topics.as_slice()
        });
        let (offsets, interests) = splice(
            self.slots.len(),
            self.pairs,
            &self.base_offsets,
            &self.base_topics,
            subs.iter().map(|v| v.index()),
            |vi, out| out.extend_from_slice(self.row(vi)),
        );
        self.base_offsets.clone_from(&offsets);
        self.base_topics.clone_from(&interests);
        let workload = match base {
            Some(prev) => {
                splice_derived(prev, self.rates.clone(), &topics, &subs, offsets, interests)
            }
            None => Workload::from_csr_u32(self.rates.clone(), offsets, interests),
        };

        self.base_rates.clone_from(&self.rates);
        for v in &subs {
            self.slots[v.index()] = CLEAN;
        }
        // Keep room for an epoch like this one, not for the bootstrap.
        let (rows, used) = (self.spans.len(), self.cow.len());
        self.spans.clear();
        self.spans.shrink_to(rows);
        self.cow.clear();
        self.cow.shrink_to(used);
        (workload, topics, subs)
    }

    /// Subscriber `vi`'s current interest row, sorted (empty for an
    /// unknown subscriber).
    fn row(&self, vi: usize) -> &[TopicId] {
        match self.slots.get(vi) {
            None => &[],
            Some(&CLEAN) => &self.base_topics[self.base_range(vi)],
            Some(&slot) => {
                let span = self.spans[slot as usize];
                &self.cow[span.start..span.start + span.len]
            }
        }
    }

    /// Where subscriber `vi`'s base row lies in `base_topics`.
    fn base_range(&self, vi: usize) -> Range<usize> {
        match self.base_offsets.get(vi + 1) {
            Some(&end) => self.base_offsets[vi] as usize..end as usize,
            None => 0..0,
        }
    }

    /// The index in `spans` of subscriber `vi`'s working row, copying its
    /// base row into the arena on the epoch's first change.
    fn writable(&mut self, vi: usize) -> usize {
        if self.slots[vi] == CLEAN {
            let base = self.base_range(vi);
            let start = self.cow.len();
            self.cow.extend_from_slice(&self.base_topics[base.clone()]);
            self.slots[vi] = self.spans.len() as u32;
            self.spans.push(Span {
                start,
                len: base.len(),
                cap: base.len(),
            });
        }
        self.slots[vi] as usize
    }
}

/// Builds an `n`-row CSR arena of exact length `len` from an older one
/// (`src_offsets`, `src`; at most `n` rows) in one pass: each run of rows
/// between consecutive `dirty` rows (ascending, below `n`) is one memcpy
/// of `src` with its offsets shifted, rows past `src`'s end are empty,
/// and `write_row` appends each dirty row.
fn splice<T: Copy>(
    n: usize,
    len: usize,
    src_offsets: &[u32],
    src: &[T],
    dirty: impl Iterator<Item = usize>,
    mut write_row: impl FnMut(usize, &mut Vec<T>),
) -> (Vec<u32>, Vec<T>) {
    let src_rows = src_offsets.len() - 1;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut items = Vec::with_capacity(len);
    offsets.push(0u32);
    let copy_clean = |from: usize, to: usize, offsets: &mut Vec<u32>, items: &mut Vec<T>| {
        let mid = to.min(src_rows).max(from);
        if from < mid {
            let lo = src_offsets[from];
            let shift = (items.len() as u32).wrapping_sub(lo);
            items.extend_from_slice(&src[lo as usize..src_offsets[mid] as usize]);
            offsets.extend(
                src_offsets[from + 1..=mid]
                    .iter()
                    .map(|&o| o.wrapping_add(shift)),
            );
        }
        offsets.resize(offsets.len() + (to - mid), items.len() as u32);
    };
    let mut next = 0;
    for row in dirty {
        copy_clean(next, row, &mut offsets, &mut items);
        write_row(row, &mut items);
        offsets.push(items.len() as u32);
        next = row + 1;
    }
    copy_clean(next, n, &mut offsets, &mut items);
    debug_assert_eq!(items.len(), len);
    (offsets, items)
}

/// The workload with interest CSR (`offsets`, `interests`) whose ranked
/// and follower arenas splice from `prev`, the workload the edit's pending
/// changes apply to: `topics` and `subs` are the commit's change lists.
fn splice_derived(
    prev: &Workload,
    rates: Vec<Rate>,
    topics: &[TopicId],
    subs: &[SubscriberId],
    offsets: Vec<u32>,
    interests: Vec<TopicId>,
) -> Workload {
    let old = prev.arenas();
    let n = offsets.len() - 1;
    let row = |vi: usize| &interests[offsets[vi] as usize..offsets[vi + 1] as usize];

    // Follower arena: the changed pairs, grouped by topic, merge into
    // their topics' old rows; every other row copies.
    let mut changes: Vec<(TopicId, SubscriberId, bool)> = Vec::new();
    for &v in subs {
        let before: &[TopicId] = if v.index() < prev.num_subscribers() {
            prev.interests(v)
        } else {
            &[]
        };
        let after = row(v.index());
        let (mut i, mut j) = (0, 0);
        while i < before.len() || j < after.len() {
            if j == after.len() || (i < before.len() && before[i] < after[j]) {
                changes.push((before[i], v, false));
                i += 1;
            } else if i == before.len() || after[j] < before[i] {
                changes.push((after[j], v, true));
                j += 1;
            } else {
                (i, j) = (i + 1, j + 1);
            }
        }
    }
    changes.sort_unstable();
    let mut rest = changes.as_slice();
    let (follower_offsets, follower_ids) = splice(
        rates.len(),
        interests.len(),
        old.follower_offsets,
        old.follower_ids,
        changes
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| group[0].0.index()),
        |ti, out| {
            let (group, tail) = rest.split_at(rest.partition_point(|c| c.0.index() == ti));
            rest = tail;
            let old_row: &[SubscriberId] = if ti < old.rates.len() {
                prev.subscribers_of(TopicId::new(ti as u32))
            } else {
                &[]
            };
            let mut i = 0;
            for &(_, v, added) in group {
                let keep = old_row[i..].partition_point(|&u| u < v);
                out.extend_from_slice(&old_row[i..i + keep]);
                i += keep;
                if added {
                    out.push(v);
                } else {
                    i += 1; // old_row[i] == v leaves the row
                }
            }
            out.extend_from_slice(&old_row[i..]);
        },
    );

    // Ranked arena: changed rows and the followers of re-rated topics
    // re-rank; clean runs copy. Mostly-dirty epochs use the scatter.
    let mut dirty: Vec<usize> = subs.iter().map(|v| v.index()).collect();
    let rerated: Vec<TopicId> = topics
        .iter()
        .copied()
        .filter(|t| t.index() < old.rates.len() && old.rates[t.index()] != rates[t.index()])
        .collect();
    if !rerated.is_empty() {
        let mut marked = vec![false; n];
        for &vi in &dirty {
            marked[vi] = true;
        }
        for t in rerated {
            for &v in prev.subscribers_of(t) {
                if !std::mem::replace(&mut marked[v.index()], true) {
                    dirty.push(v.index());
                }
            }
            if dirty.len() * 2 > n {
                break;
            }
        }
    }
    let ranked_topics = if dirty.len() * 2 > n {
        rank_by_scatter(&rates, &offsets, &follower_offsets, &follower_ids)
    } else {
        dirty.sort_unstable();
        let old_rows = old.interest_offsets.len() - 1;
        let mut ranked = Vec::with_capacity(interests.len());
        let mut next = 0;
        for vi in dirty.into_iter().chain([n]) {
            let (lo, hi) = (next.min(old_rows), vi.min(old_rows));
            if lo < hi {
                let src = old.interest_offsets[lo] as usize..old.interest_offsets[hi] as usize;
                ranked.extend_from_slice(&old.ranked_topics[src]);
            }
            if vi < n {
                let start = ranked.len();
                ranked.extend_from_slice(row(vi));
                ranked[start..].sort_unstable_by_key(|&t| (Reverse(rates[t.index()]), t));
            }
            next = vi + 1;
        }
        ranked
    };
    Workload::assemble(
        rates,
        offsets,
        interests,
        ranked_topics,
        follower_offsets,
        follower_ids,
    )
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
    fn operations_fold_into_a_workload_with_exact_change_lists() {
        let mut edit = WorkloadEdit::new();
        edit.rerate(t(0), Rate::new(10)).unwrap();
        edit.rerate(t(1), Rate::new(5)).unwrap();
        edit.subscribe(v(0), t(0)).unwrap();
        edit.subscribe(v(0), t(1)).unwrap();
        edit.subscribe(v(1), t(1)).unwrap();
        let (w, topics, subs) = edit.commit(None);
        assert_eq!(w.num_topics(), 2);
        assert_eq!(w.pair_count(), 3);
        assert_eq!(topics, vec![t(0), t(1)]);
        assert_eq!(subs, vec![v(0), v(1)]);

        // No-ops mark nothing.
        edit.rerate(t(0), Rate::new(10)).unwrap();
        edit.subscribe(v(0), t(0)).unwrap();
        edit.unsubscribe(v(1), t(0));
        assert_eq!(edit.pending_changes(), (0, 0));

        edit.unsubscribe(v(0), t(1));
        edit.rerate(t(1), Rate::new(7)).unwrap();
        let (w2, topics, subs) = edit.commit(Some(&w));
        assert_eq!(w2.pair_count(), 2);
        assert_eq!(w2.rate(t(1)), Rate::new(7));
        assert_eq!(w2.interests(v(0)), &[t(0)]);
        assert_eq!(topics, vec![t(1)]);
        assert_eq!(subs, vec![v(0)]);
    }

    #[test]
    fn evolved_commit_matches_from_scratch_commit() {
        let mut a = WorkloadEdit::new();
        for i in 0..6u32 {
            a.rerate(t(i), Rate::new(3 + u64::from(i))).unwrap();
        }
        for vi in 0..10u32 {
            a.subscribe(v(vi), t(vi % 6)).unwrap();
            a.subscribe(v(vi), t((vi + 2) % 6)).unwrap();
        }
        let (w0, _, _) = a.commit(None);

        a.rerate(t(2), Rate::new(40)).unwrap();
        a.unsubscribe(v(3), t(3));
        a.subscribe(v(3), t(5)).unwrap();
        let mut b = a.clone();
        let (evolved, _, _) = a.commit(Some(&w0));
        let (scratch, _, _) = b.commit(None);
        assert_eq!(evolved.rates(), scratch.rates());
        for vi in evolved.subscribers() {
            assert_eq!(evolved.interests(vi), scratch.interests(vi));
            assert_eq!(evolved.ranked_interests(vi), scratch.ranked_interests(vi));
        }
    }

    #[test]
    fn rejected_operations_leave_the_mirror_untouched() {
        let mut edit = WorkloadEdit::new();
        assert!(matches!(
            edit.subscribe(v(0), t(0)),
            Err(WorkloadError::UnknownTopic { .. })
        ));
        assert!(matches!(
            edit.rerate(t(3), Rate::new(5)),
            Err(WorkloadError::UnknownTopic { .. })
        ));
        assert!(matches!(
            edit.rerate(t(0), Rate::ZERO),
            Err(WorkloadError::ZeroEventRate)
        ));
        assert!(matches!(
            edit.rerate(t(0), Rate::new(MAX_RATE + 1)),
            Err(WorkloadError::RateTooLarge { .. })
        ));
        assert_eq!(edit.num_topics(), 0);
        assert_eq!(edit.pending_changes(), (0, 0));
    }

    #[test]
    fn subscriber_gaps_come_into_being_empty() {
        let mut edit = WorkloadEdit::new();
        edit.rerate(t(0), Rate::new(8)).unwrap();
        edit.subscribe(v(4), t(0)).unwrap();
        let (w, _, subs) = edit.commit(None);
        assert_eq!(w.num_subscribers(), 5);
        assert_eq!(w.interests(v(0)), &[]);
        assert_eq!(w.interests(v(4)), &[t(0)]);
        assert_eq!(subs, vec![v(4)]);
    }

    #[test]
    fn from_workload_round_trips() {
        let mut b = Workload::builder();
        let t0 = b.add_topic(Rate::new(12)).unwrap();
        let t1 = b.add_topic(Rate::new(4)).unwrap();
        b.add_subscriber([t0, t1]).unwrap();
        b.add_subscriber([t1]).unwrap();
        let w = b.build();

        let mut edit = WorkloadEdit::from_workload(&w);
        assert_eq!(edit.pending_changes(), (0, 0));
        let (rebuilt, topics, subs) = edit.commit(None);
        assert!(topics.is_empty() && subs.is_empty());
        assert_eq!(rebuilt.rates(), w.rates());
        for vi in w.subscribers() {
            assert_eq!(rebuilt.interests(vi), w.interests(vi));
        }
    }
}
