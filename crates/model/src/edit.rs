//! Mutable workload edit: folds raw subscribe/unsubscribe/re-rate
//! operations into per-epoch [`Workload`]s plus exact change lists.
//!
//! The solver side of the repository consumes *immutable* workloads —
//! CSR arenas — while an event-sourced daemon receives a stream of
//! individual operations. [`WorkloadEdit`] bridges the two. Its *base* is
//! the last committed workload itself, held as an `Arc<Workload>`, and
//! each subscriber an operation changes gets a copy-on-write row in one
//! flat arena, found in O(1) through a per-subscriber slot table.
//! [`WorkloadEdit::commit_shared`] edits the base into the epoch's
//! workload and returns it with the exact sets of changed topics and
//! subscribers.
//!
//! # Cost model
//!
//! An operation costs a binary search in its subscriber's row, plus a
//! copy of that row the first time the epoch changes it. With Δ the
//! epoch's changed subscribers and pairs, a commit edits the base's
//! arenas where they lie, through [`crate::csr`]: **O(Δ log Δ) work** —
//! sorting the change lists, rewriting and re-ranking the changed
//! interest rows, one insert or removal per changed pair in the follower
//! arena — **plus the runs that move**: the items between two edits
//! move, one memmove per run, only where the edits before them changed
//! the arena's length, and offsets shift likewise. No arena is copied
//! whole. Rows that follow a re-rated topic are re-ranked in place; when
//! they and the changed rows make up more than half the subscribers, the
//! ranked arena comes from the global counting-sort scatter instead.
//!
//! **Rebuild.** When more than half the subscribers changed (a bootstrap
//! batch), the commit splices the interest rows and rebuilds the derived
//! arenas from them by counting sort, as a fresh workload is built.
//!
//! **Copy-on-write.** The commit edits the base through `Arc::make_mut`.
//! If another handle to the base is alive, the base is copied first and
//! that handle keeps its workload: the commit then costs O(pairs) again,
//! never correctness. Callers that want O(Δ) commits drop their handles
//! to the last commit's workload before the next one.

use crate::ids::{SubscriberId, TopicId};
use crate::units::{Rate, MAX_RATE};
use crate::workload::{Workload, WorkloadError};
use std::ops::Range;
use std::sync::Arc;

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
/// let (w, topics, subs) = edit.commit_shared();
/// assert_eq!(w.pair_count(), 1);
/// assert_eq!(topics, vec![TopicId::new(0)]);
/// assert_eq!(subs, vec![SubscriberId::new(0)]);
/// drop(w); // the edit's base is unshared again: the next commit is O(Δ)
///
/// // The next epoch edits the last in place.
/// edit.subscribe(SubscriberId::new(1), TopicId::new(0))?;
/// let (w2, _, subs) = edit.commit_shared();
/// assert_eq!(w2.pair_count(), 2);
/// assert_eq!(subs, vec![SubscriberId::new(1)]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadEdit {
    /// The last committed workload, which pending operations apply to.
    base: Arc<Workload>,
    /// Current event rates: the base's plus this epoch's re-rates and new
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
        WorkloadEdit::from_workload(Workload::builder().build())
    }
}

impl WorkloadEdit {
    /// An empty edit: no topics, no subscribers, nothing pending.
    pub fn new() -> WorkloadEdit {
        WorkloadEdit::default()
    }

    /// An edit based on an existing workload with no pending changes —
    /// the starting point when resuming from a snapshot. The workload
    /// becomes the base as it is; only its rate table is copied.
    pub fn from_workload(workload: impl Into<Arc<Workload>>) -> WorkloadEdit {
        let base: Arc<Workload> = workload.into();
        WorkloadEdit {
            rates: base.rates().to_vec(),
            slots: vec![CLEAN; base.num_subscribers()],
            spans: Vec::new(),
            cow: Vec::new(),
            pairs: base.pair_count() as usize,
            changed_topics: Vec::new(),
            changed_subscribers: Vec::new(),
            base,
        }
    }

    /// The last committed workload (the one [`WorkloadEdit::from_workload`]
    /// was given, before the first commit), which pending operations
    /// apply to.
    pub fn base(&self) -> &Arc<Workload> {
        &self.base
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

    /// Commits the pending operations: edits the base into the epoch's
    /// workload (module docs) and returns a handle to it with the
    /// deduplicated, ascending lists of changed topics and subscribers,
    /// clearing the pending-change state. The committed workload is the
    /// edit's new base; drop the returned handle before the next commit,
    /// or that commit copies the base first.
    pub fn commit_shared(&mut self) -> (Arc<Workload>, Vec<TopicId>, Vec<SubscriberId>) {
        let mut topics = std::mem::take(&mut self.changed_topics);
        topics.sort_unstable();
        topics.dedup();
        // Exactly the subscribers with a working row.
        let mut subs = std::mem::take(&mut self.changed_subscribers);
        subs.sort_unstable();
        subs.dedup();

        let n = self.slots.len();
        let working = self.working_rows(&subs);
        let row = |j: usize| &self.cow[working[j].clone()];
        if subs.len() * 2 > n {
            Workload::rebuild_rows(&mut self.base, self.rates.clone(), &subs, n, row);
        } else {
            Arc::make_mut(&mut self.base).edit_rows(&self.rates, &topics, &subs, n, row);
        }

        for v in &subs {
            self.slots[v.index()] = CLEAN;
        }
        // Keep room for an epoch like this one, not for the bootstrap.
        let (rows, used) = (self.spans.len(), self.cow.len());
        self.spans.clear();
        self.spans.shrink_to(rows);
        self.cow.clear();
        self.cow.shrink_to(used);
        (Arc::clone(&self.base), topics, subs)
    }

    /// [`WorkloadEdit::commit_shared`], returning a copy of the committed
    /// workload. `_prev` is not read: the edit holds the workload its
    /// operations apply to. The copy costs O(pairs); callers that keep
    /// the edit across epochs use [`WorkloadEdit::commit_shared`].
    pub fn commit(
        &mut self,
        _prev: Option<&Workload>,
    ) -> (Workload, Vec<TopicId>, Vec<SubscriberId>) {
        let (workload, topics, subs) = self.commit_shared();
        (Workload::clone(&workload), topics, subs)
    }

    /// Subscriber `vi`'s current interest row, sorted (empty for an
    /// unknown subscriber).
    fn row(&self, vi: usize) -> &[TopicId] {
        match self.slots.get(vi) {
            None | Some(&CLEAN) => base_row(&self.base, vi),
            Some(&slot) => {
                let span = self.spans[slot as usize];
                &self.cow[span.start..span.start + span.len]
            }
        }
    }

    /// Where the working rows of `subs` (each must have one) lie in the
    /// copy-on-write arena.
    fn working_rows(&self, subs: &[SubscriberId]) -> Vec<Range<usize>> {
        subs.iter()
            .map(|v| {
                let span = self.spans[self.slots[v.index()] as usize];
                span.start..span.start + span.len
            })
            .collect()
    }

    /// The index in `spans` of subscriber `vi`'s working row, copying its
    /// base row into the arena on the epoch's first change.
    fn writable(&mut self, vi: usize) -> usize {
        if self.slots[vi] == CLEAN {
            let base = base_row(&self.base, vi);
            let start = self.cow.len();
            self.cow.extend_from_slice(base);
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

/// Subscriber `vi`'s row in `base` (empty past its subscribers).
fn base_row(base: &Workload, vi: usize) -> &[TopicId] {
    if vi < base.num_subscribers() {
        base.interests(SubscriberId::new(vi as u32))
    } else {
        &[]
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

        let mut edit = WorkloadEdit::from_workload(w.clone());
        assert_eq!(edit.pending_changes(), (0, 0));
        let (rebuilt, topics, subs) = edit.commit(None);
        assert!(topics.is_empty() && subs.is_empty());
        assert_eq!(rebuilt, w);
    }

    #[test]
    fn a_commit_while_the_base_is_shared_copies_it_first() {
        let mut edit = WorkloadEdit::new();
        for i in 0..4u32 {
            edit.rerate(t(i), Rate::new(10 + u64::from(i))).unwrap();
        }
        for vi in 0..8u32 {
            edit.subscribe(v(vi), t(vi % 4)).unwrap();
        }
        let (first, _, _) = edit.commit_shared();
        let snapshot = Workload::clone(&first);

        // `first` still shares the base: this commit must leave it alone.
        edit.unsubscribe(v(2), t(2));
        edit.subscribe(v(2), t(3)).unwrap();
        edit.rerate(t(1), Rate::new(40)).unwrap();
        let (second, _, subs) = edit.commit_shared();
        assert_eq!(subs, vec![v(2)], "one changed row takes the in-place path");
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(*first, snapshot);
        assert_eq!(second.interests(v(2)), &[t(3)]);
        assert_eq!(second.rate(t(1)), Rate::new(40));
        assert_eq!(second.subscribers_of(t(2)), &[v(6)]);

        // Unshared, the next commit edits the base where it lies.
        drop((first, second));
        let before = Arc::as_ptr(edit.base());
        edit.subscribe(v(3), t(0)).unwrap();
        let (third, _, _) = edit.commit_shared();
        assert_eq!(Arc::as_ptr(&third), before);
        assert_eq!(third.ranked_interests(v(3)), &[t(3), t(0)]);
    }
}
