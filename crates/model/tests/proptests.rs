//! Property-based tests for the workload model.

use proptest::collection::vec;
use proptest::prelude::*;
use pubsub_model::csr::{shift_offsets, splice_in_place};
use pubsub_model::{Rate, SubscriberId, TopicId, Workload, WorkloadEdit, WorkloadError, MAX_RATE};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

thread_local! {
    /// (in-place, rebuilt) commits seen by `chained_commit_cases`.
    static COMMIT_PATHS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Strategy producing a raw (rates, interests) pair with `1..=max_t` topics
/// and `0..=max_v` subscribers whose interests index into the topic range.
fn raw_workload(max_t: usize, max_v: usize) -> impl Strategy<Value = (Vec<u64>, Vec<Vec<u32>>)> {
    vec(1u64..1000, 1..=max_t).prop_flat_map(move |rates| {
        let nt = rates.len() as u32;
        let interests = vec(vec(0..nt, 0..12), 0..=max_v);
        (Just(rates), interests)
    })
}

fn build(rates: &[u64], interests: &[Vec<u32>]) -> Workload {
    let mut b = Workload::builder();
    for &r in rates {
        b.add_topic(Rate::new(r)).unwrap();
    }
    for tv in interests {
        b.add_subscriber(tv.iter().map(|&t| TopicId::new(t)))
            .unwrap();
    }
    b.build()
}

proptest! {
    /// The derived V_t tables are exactly the transpose of the interests.
    #[test]
    fn derived_tables_are_transpose((rates, interests) in raw_workload(20, 20)) {
        let w = build(&rates, &interests);
        // every interest edge appears in subscribers_of
        for v in w.subscribers() {
            for &t in w.interests(v) {
                prop_assert!(w.subscribers_of(t).contains(&v));
            }
        }
        // and vice versa
        for t in w.topics() {
            for &v in w.subscribers_of(t) {
                prop_assert!(w.interests(v).contains(&t));
            }
        }
        // pair_count counts each edge once
        let edges: u64 = w.subscribers().map(|v| w.interests(v).len() as u64).sum();
        prop_assert_eq!(edges, w.pair_count());
    }

    /// Interests are sorted and deduplicated regardless of input order.
    #[test]
    fn interests_sorted_dedup((rates, interests) in raw_workload(15, 15)) {
        let w = build(&rates, &interests);
        for v in w.subscribers() {
            let tv = w.interests(v);
            for pair in tv.windows(2) {
                prop_assert!(pair[0] < pair[1]);
            }
        }
    }

    /// tau_v is min(tau, total) and is monotone in tau.
    #[test]
    fn tau_v_is_min((rates, interests) in raw_workload(15, 15), tau1 in 0u64..5000, tau2 in 0u64..5000) {
        let w = build(&rates, &interests);
        let (lo, hi) = if tau1 <= tau2 { (tau1, tau2) } else { (tau2, tau1) };
        for v in w.subscribers() {
            let total = w.subscriber_total_rate(v);
            let tv_lo = w.tau_v(v, Rate::new(lo));
            let tv_hi = w.tau_v(v, Rate::new(hi));
            prop_assert!(tv_lo <= tv_hi);
            prop_assert!(tv_hi <= total);
            prop_assert_eq!(tv_hi, total.min(Rate::new(hi)));
            // The ranked walk that stops past τ gives the same τ_v and
            // passes τ exactly when the whole row does.
            let past = w.ranked_sum_past(v, Rate::new(hi));
            prop_assert_eq!(past.min(Rate::new(hi)), tv_hi);
            prop_assert_eq!(past > Rate::new(hi), total > Rate::new(hi));
        }
    }

    /// Serialize/deserialize via serde (JSON-free: use the WorkloadData shape
    /// through from_parts) preserves all primary and derived data.
    #[test]
    fn from_parts_is_idempotent((rates, interests) in raw_workload(15, 15)) {
        let w = build(&rates, &interests);
        let rates2: Vec<Rate> = w.rates().to_vec();
        let interests2: Vec<Vec<TopicId>> =
            w.subscribers().map(|v| w.interests(v).to_vec()).collect();
        let w2 = Workload::from_parts(rates2, interests2);
        prop_assert_eq!(w.pair_count(), w2.pair_count());
        prop_assert_eq!(w.total_rate(), w2.total_rate());
        for v in w.subscribers() {
            prop_assert_eq!(w.interests(v), w2.interests(v));
        }
        for t in w.topics() {
            prop_assert_eq!(w.subscribers_of(t), w2.subscribers_of(t));
        }
    }

    /// The rate-ranked arena holds the same interest set per row, in
    /// strict (descending rate, ascending id) order.
    #[test]
    fn ranked_rows_are_rate_ordered_permutations((rates, interests) in raw_workload(20, 20)) {
        let w = build(&rates, &interests);
        for v in w.subscribers() {
            let ranked = w.ranked_interests(v);
            for pair in ranked.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                prop_assert!(
                    w.rate(a) > w.rate(b) || (w.rate(a) == w.rate(b) && a < b),
                    "row of {v} out of order: {a} before {b}"
                );
            }
            let mut sorted: Vec<TopicId> = ranked.to_vec();
            sorted.sort_unstable();
            prop_assert_eq!(sorted.as_slice(), w.interests(v));
        }
    }

    /// Every commit of a chained `WorkloadEdit` equals `from_parts` over a
    /// naive `Vec<Vec>` model of the same op stream, with the model's
    /// change lists and exact-capacity arenas — through new topics,
    /// rank-reordering re-rates, subscriber-id gaps, duplicate and no-op
    /// ops, a `from_workload` resume partway, a `prev` that is not the
    /// edit's base, and a commit while another handle shares the base
    /// (which must keep its workload). Epochs of at most three ops take
    /// the in-place path; [`chained_commits_match_a_naive_model`] checks
    /// that both paths ran.
    fn chained_commit_cases(
        initial_rates in vec(1u64..9, 1..8),
        epochs in vec((0u8..2, vec((0u8..6, 0u32..64, 0u32..64), 0..40)), 1..9),
        resume_at in 0usize..10,
        wrong_prev_at in 0usize..10,
        shared_at in 0usize..10,
    ) {
        let mut edit = WorkloadEdit::new();
        let mut model = Model::default();
        for (ti, &r) in initial_rates.iter().enumerate() {
            let op = Op::Rerate(TopicId::new(ti as u32), Rate::new(r));
            prop_assert_eq!(op.apply(&mut edit), model.apply(op));
        }
        let mut history: Vec<Workload> = Vec::new();
        for (epoch, (size, ops)) in epochs.iter().enumerate() {
            if epoch == resume_at {
                if let Some(last) = history.last() {
                    edit = WorkloadEdit::from_workload(last.clone());
                    prop_assert_eq!(edit.pending_changes(), (0, 0));
                }
            }
            let mut last_op = None;
            let limit = if *size == 0 { 3 } else { ops.len() };
            for &(kind, a, b) in ops.iter().take(limit) {
                let nt = model.rates.len() as u32;
                let (v, t) = (SubscriberId::new(a % 26), TopicId::new(b % (nt + 1)));
                let batch = match kind {
                    0 => {
                        let rate = match b % 10 {
                            0 => 0,
                            9 => MAX_RATE + 1,
                            r => u64::from(r),
                        };
                        vec![Op::Rerate(TopicId::new(a % (nt + 2)), Rate::new(rate))]
                    }
                    1 | 2 => vec![Op::Subscribe(v, t)],
                    3 => vec![Op::Unsubscribe(v, t)],
                    4 => vec![Op::Subscribe(v, t), Op::Unsubscribe(v, t)],
                    _ => last_op.into_iter().collect(),
                };
                for op in batch {
                    prop_assert_eq!(op.apply(&mut edit), model.apply(op));
                    last_op = Some(op);
                }
            }
            prop_assert_eq!(edit.pending_changes(), std::mem::take(&mut model.pending));
            // Commit against the last workload, or, at `wrong_prev_at`,
            // against an older one the pending ops do not apply to; at
            // `shared_at`, hold a second handle to the base meanwhile.
            let prev = match (epoch == wrong_prev_at, history.len()) {
                (true, len) if len >= 2 => history.get(len - 2),
                _ => history.last(),
            };
            let held = (epoch == shared_at).then(|| Arc::clone(edit.base()));
            let (w, topics, subs) = edit.commit(prev);
            if let (Some(held), Some(last)) = (held, history.last()) {
                prop_assert_eq!(&*held, last);
            }
            let expected = Workload::from_parts(model.rates.clone(), model.rows.clone());
            prop_assert_eq!(&w, &expected);
            prop_assert_eq!(topics, std::mem::take(&mut model.topics).into_iter().collect::<Vec<_>>());
            COMMIT_PATHS.with(|paths| {
                let (in_place, rebuilt) = paths.get();
                if subs.len() * 2 > w.num_subscribers() {
                    paths.set((in_place, rebuilt + 1));
                } else {
                    paths.set((in_place + 1, rebuilt));
                }
            });
            prop_assert_eq!(subs, std::mem::take(&mut model.subscribers).into_iter().collect::<Vec<_>>());
            let (arenas, footprint) = (w.arenas(), w.footprint());
            prop_assert_eq!(footprint.rates, std::mem::size_of_val(arenas.rates));
            prop_assert_eq!(footprint.interest_offsets, std::mem::size_of_val(arenas.interest_offsets));
            prop_assert_eq!(footprint.interest_topics, std::mem::size_of_val(arenas.interest_topics));
            prop_assert_eq!(footprint.ranked_topics, std::mem::size_of_val(arenas.ranked_topics));
            prop_assert_eq!(footprint.follower_offsets, std::mem::size_of_val(arenas.follower_offsets));
            prop_assert_eq!(footprint.follower_ids, std::mem::size_of_val(arenas.follower_ids));
            prop_assert_eq!(&**edit.base(), &w);
            history.push(w);
        }
    }

    /// Row edits through `splice_in_place` and `shift_offsets` — rows that
    /// grow, shrink, keep their length or are appended, on tables whose
    /// arena may start empty — give exactly the CSR a fresh build of the
    /// edited rows gives, with capacity equal to length.
    #[test]
    fn csr_row_splices_match_a_fresh_build(
        rows in vec(vec(0u32..100, 0..6), 0..12),
        edits in vec((0u8..3, vec(0u32..100, 0..6)), 0..12),
        appended in vec(vec(0u32..100, 0..6), 0..4),
    ) {
        let (mut offsets, mut items) = fresh_csr(&rows);
        let mut expected = rows.clone();
        let (mut changed, mut contents) = (Vec::new(), Vec::new());
        for (row, (kind, new)) in edits.iter().enumerate().take(rows.len()) {
            if *kind > 0 {
                changed.push(row);
                contents.push(new.clone());
                expected[row] = new.clone();
            }
        }
        for (k, new) in appended.iter().enumerate() {
            changed.push(rows.len() + 2 * k); // rows between them come into being empty
            contents.push(new.clone());
        }
        let total = changed.last().map_or(rows.len(), |&r| r + 1).max(rows.len());
        expected.resize(total, Vec::new());
        for (&row, new) in changed.iter().zip(&contents) {
            expected[row] = new.clone();
        }
        let arena_edits: Vec<(Range<usize>, usize)> = changed
            .iter()
            .zip(&contents)
            .map(|(&row, new)| {
                let old = match offsets.get(row + 1) {
                    Some(&hi) => offsets[row] as usize..hi as usize,
                    None => items.len()..items.len(),
                };
                (old, new.len())
            })
            .collect();
        splice_in_place(&mut items, &arena_edits, |j, slot| slot.copy_from_slice(&contents[j]));
        let deltas = changed
            .iter()
            .zip(&arena_edits)
            .map(|(&row, (old, len))| (row, *len as isize - old.len() as isize));
        shift_offsets(&mut offsets, total, deltas);
        let (want_offsets, want_items) = fresh_csr(&expected);
        prop_assert_eq!(&offsets, &want_offsets);
        prop_assert_eq!(&items, &want_items);
        prop_assert_eq!(items.capacity(), items.len());
        prop_assert_eq!(offsets.capacity(), offsets.len());
    }

    /// Single-item inserts and removals in sorted rows, the follower
    /// arena's edits, match a fresh build of the edited rows.
    #[test]
    fn csr_item_inserts_and_removals_match_a_fresh_build(
        rows in vec(vec(0u32..40, 0..8), 0..10),
        toggles in vec((0usize..12, 0u32..40), 0..30),
    ) {
        let rows: Vec<Vec<u32>> = rows
            .into_iter()
            .map(|mut row| {
                row.sort_unstable();
                row.dedup();
                row
            })
            .collect();
        let (mut offsets, mut items) = fresh_csr(&rows);
        // Each (row, id) toggles once: an insert if absent, else a removal.
        let mut toggles: Vec<(usize, u32)> = toggles;
        toggles.sort_unstable();
        toggles.dedup();
        let total = toggles.iter().map(|&(r, _)| r + 1).max().unwrap_or(0).max(rows.len());
        let mut expected = rows.clone();
        expected.resize(total, Vec::new());
        let mut arena_edits = Vec::new();
        let mut values = Vec::new();
        for &(row, id) in &toggles {
            let old: &[u32] = match offsets.get(row + 1) {
                Some(&hi) => &items[offsets[row] as usize..hi as usize],
                None => &[],
            };
            let base = offsets.get(row).map_or(items.len(), |&lo| lo as usize);
            let at = base + old.partition_point(|&x| x < id);
            let present = old.binary_search(&id).is_ok();
            arena_edits.push(if present { (at..at + 1, 0) } else { (at..at, 1) });
            values.push(id);
            match expected[row].binary_search(&id) {
                Ok(i) => expected[row].remove(i),
                Err(i) => {
                    expected[row].insert(i, id);
                    id
                }
            };
        }
        let deltas: Vec<(usize, isize)> = toggles
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let row = group[0].0;
                (row, expected[row].len() as isize - rows.get(row).map_or(0, Vec::len) as isize)
            })
            .collect();
        splice_in_place(&mut items, &arena_edits, |j, slot| slot.fill(values[j]));
        shift_offsets(&mut offsets, total, deltas);
        let (want_offsets, want_items) = fresh_csr(&expected);
        prop_assert_eq!(&offsets, &want_offsets);
        prop_assert_eq!(&items, &want_items);
    }

    /// Subscription cardinalities over all subscribers of a fully-subscribed
    /// workload are each within [0, 100].
    #[test]
    fn sc_bounds((rates, interests) in raw_workload(15, 15)) {
        let w = build(&rates, &interests);
        for v in w.subscribers() {
            let sc = w.subscription_cardinality(v);
            prop_assert!((0.0..=100.0 + 1e-9).contains(&sc));
        }
    }
}

/// Runs [`chained_commit_cases`] and checks that its epochs reached both
/// commit paths: at least a third in place, and some rebuilds.
#[test]
fn chained_commits_match_a_naive_model() {
    chained_commit_cases();
    let (in_place, rebuilt) = COMMIT_PATHS.with(Cell::get);
    println!("commits: {in_place} in place, {rebuilt} rebuilt");
    assert!(
        in_place * 3 >= in_place + rebuilt,
        "{in_place} in-place commits of {}",
        in_place + rebuilt
    );
    assert!(rebuilt > 0, "no commit took the rebuild path");
}

/// A CSR table built fresh: offsets and the concatenated rows.
fn fresh_csr(rows: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32];
    let mut items = Vec::new();
    for row in rows {
        items.extend_from_slice(row);
        offsets.push(items.len() as u32);
    }
    offsets.shrink_to_fit();
    items.shrink_to_fit();
    (offsets, items)
}

#[test]
fn subscriber_ids_are_insertion_ordered() {
    let w = build(&[5, 6], &[vec![0], vec![1], vec![0, 1]]);
    let ids: Vec<SubscriberId> = w.subscribers().collect();
    assert_eq!(
        ids,
        vec![
            SubscriberId::new(0),
            SubscriberId::new(1),
            SubscriberId::new(2)
        ]
    );
}

/// One `WorkloadEdit` operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    Rerate(TopicId, Rate),
    Subscribe(SubscriberId, TopicId),
    Unsubscribe(SubscriberId, TopicId),
}

impl Op {
    fn apply(self, edit: &mut WorkloadEdit) -> Result<(), WorkloadError> {
        match self {
            Op::Rerate(t, rate) => edit.rerate(t, rate),
            Op::Subscribe(v, t) => edit.subscribe(v, t),
            Op::Unsubscribe(v, t) => {
                edit.unsubscribe(v, t);
                Ok(())
            }
        }
    }
}

/// The documented `WorkloadEdit` contract over a nested `Vec<Vec>`: the
/// oracle the differential commit test checks against.
#[derive(Default)]
struct Model {
    rates: Vec<Rate>,
    rows: Vec<Vec<TopicId>>,
    topics: BTreeSet<TopicId>,
    subscribers: BTreeSet<SubscriberId>,
    /// State-changing ops since the last commit: (re-rates, pair edits).
    pending: (usize, usize),
}

impl Model {
    fn apply(&mut self, op: Op) -> Result<(), WorkloadError> {
        let num_topics = self.rates.len();
        match op {
            Op::Rerate(_, rate) if rate.is_zero() => return Err(WorkloadError::ZeroEventRate),
            Op::Rerate(_, rate) if rate.get() > MAX_RATE => {
                return Err(WorkloadError::RateTooLarge { rate })
            }
            Op::Rerate(t, rate) => {
                if t.index() > num_topics {
                    return Err(WorkloadError::UnknownTopic {
                        topic: t,
                        num_topics,
                    });
                }
                if t.index() == num_topics {
                    self.rates.push(rate);
                } else if self.rates[t.index()] != rate {
                    self.rates[t.index()] = rate;
                } else {
                    return Ok(());
                }
                self.topics.insert(t);
                self.pending.0 += 1;
            }
            Op::Subscribe(_, t) if t.index() >= num_topics => {
                return Err(WorkloadError::UnknownTopic {
                    topic: t,
                    num_topics,
                })
            }
            Op::Subscribe(v, t) => {
                if v.index() >= self.rows.len() {
                    self.rows.resize_with(v.index() + 1, Vec::new);
                }
                let row = &mut self.rows[v.index()];
                if let Err(at) = row.binary_search(&t) {
                    row.insert(at, t);
                    self.subscribers.insert(v);
                    self.pending.1 += 1;
                }
            }
            Op::Unsubscribe(v, t) => {
                if let Some(row) = self.rows.get_mut(v.index()) {
                    if let Ok(at) = row.binary_search(&t) {
                        row.remove(at);
                        self.subscribers.insert(v);
                        self.pending.1 += 1;
                    }
                }
            }
        }
        Ok(())
    }
}
