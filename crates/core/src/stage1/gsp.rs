//! GreedySelectPairs — Alg. 1 and Alg. 2 of the paper.

use super::PairSelector;
use crate::{McssError, McssInstance, Selection, SelectionBuilder};
use pubsub_model::{Rate, SubscriberId, TopicId, Workload};
use std::ops::Range;

/// The paper's Stage-1 greedy (Alg. 2), selecting pairs per subscriber by
/// maximum benefit-cost ratio (Alg. 1):
///
/// * cost of `(t, v)` is `2·ev_t` (incoming + outgoing);
/// * benefit is `min(1, ev_t / rem_v)` where `rem_v` is the rate still
///   missing towards `τ_v`.
///
/// Topics that fit within `rem_v` therefore all share the ratio
/// `1/(2·rem_v)` and beat any threshold-exceeding topic, whose ratio
/// `1/(2·ev_t)` penalizes overshoot proportionally to its cost. Ties are
/// broken towards the **largest** event rate (fills `rem_v` fastest; the
/// paper leaves ties unspecified — see "Deviations from the paper" in
/// `docs/PAPER_MAP.md`), then the lowest topic id.
///
/// That closed form lets each subscriber be served with one descending
/// sweep over its interests instead of re-scoring every topic per
/// iteration (the `O(|T_v|²)` literal reading of Alg. 2): select every
/// topic that fits the remaining need in descending rate order; if need
/// remains, add the smallest-rate leftover topic (all leftovers exceed the
/// need, and the smallest has the best ratio). The sweep provably picks
/// the same set as the literal greedy under our tie-break.
///
/// The sweep is **sort-free**: it walks the workload's rate-ranked
/// interest arena ([`Workload::ranked_interests`]), which stores every
/// row pre-sorted in exactly the (descending rate, ascending id) order the
/// greedy needs, and tracks the cheapest skipped exceeder inline — no
/// per-subscriber `sort_unstable`, no scratch buffers, no chosen bitmap.
///
/// Subscribers are independent, so selection parallelizes losslessly:
/// [`GreedySelectPairs::with_threads`] splits them over scoped threads and
/// produces bit-identical output to the sequential run.
#[derive(Clone, Copy, Debug)]
pub struct GreedySelectPairs {
    threads: usize,
}

impl GreedySelectPairs {
    /// Sequential greedy selection.
    pub fn new() -> Self {
        GreedySelectPairs { threads: 1 }
    }

    /// Greedy selection over `threads` worker threads (1 = sequential).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        GreedySelectPairs { threads }
    }
}

impl Default for GreedySelectPairs {
    fn default() -> Self {
        GreedySelectPairs::new()
    }
}

impl PairSelector for GreedySelectPairs {
    fn name(&self) -> &'static str {
        "GSP"
    }

    fn select(&self, instance: &McssInstance) -> Result<Selection, McssError> {
        let (workload, tau) = (instance.workload(), instance.tau());
        let n = workload.num_subscribers();
        let (selection, _) = build_in_ranges(n, self.threads, n, |range, builder| {
            for vi in range {
                let v = SubscriberId::new(vi as u32);
                builder.push_row_with(|row| select_for_subscriber_into(workload, v, tau, row));
            }
            0
        });
        Ok(selection)
    }
}

/// Builds a selection over subscribers `0..n` from up to `threads`
/// contiguous subscriber ranges. `fill` appends one range's rows, in
/// order, to the builder it is given and returns a count; the counts are
/// summed. Range 0 fills, on the calling thread, a builder with room for
/// `n` rows and `pairs` topics; the other ranges fill their own builders
/// on scoped threads, which are then appended to it in range order, so
/// the selection is the same for every thread count. With one thread (or
/// fewer than two subscribers) nothing is spawned and nothing is copied.
pub(crate) fn build_in_ranges(
    n: usize,
    threads: usize,
    pairs: usize,
    fill: impl Fn(Range<usize>, &mut SelectionBuilder) -> u64 + Sync,
) -> (Selection, u64) {
    let ranges = threads.clamp(1, n.max(1));
    let mut head = SelectionBuilder::with_capacity(n, pairs);
    if ranges == 1 {
        let count = fill(0..n, &mut head);
        return (head.build(), count);
    }
    let chunk = n.div_ceil(ranges);
    let fill = &fill;
    std::thread::scope(|scope| {
        let tails: Vec<_> = (chunk..n)
            .step_by(chunk)
            .map(|start| {
                let range = start..(start + chunk).min(n);
                scope.spawn(move || {
                    let mut part = SelectionBuilder::with_capacity(range.len(), pairs / ranges);
                    let count = fill(range, &mut part);
                    (part, count)
                })
            })
            .collect();
        let mut count = fill(0..chunk, &mut head);
        for tail in tails {
            let (part, tail_count) = tail
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            head.append(part);
            count += tail_count;
        }
        (head.build(), count)
    })
}

/// One subscriber's greedy selection (Alg. 1 + Alg. 2 inner loop, via the
/// descending sweep described on [`GreedySelectPairs`]), appended to
/// `out`.
///
/// Pure linear sweep over the rate-ranked interest arena: topics that fit
/// the remaining need are taken in place; skipped topics only ever get
/// cheaper along the row, so the cheapest skipped exceeder — the fallback
/// pick when the sweep ends short — is tracked in one register (first
/// strict improvement wins, which preserves the lowest-id tie-break
/// because equal-rate topics arrive in ascending id order).
///
/// A row whose total is at most `τ` is selected whole, in topic-id order.
/// Whether it is comes from [`Workload::ranked_sum_past`], which stops
/// once the ranked row's sum passes `τ` instead of summing the whole row.
pub(crate) fn select_for_subscriber_into(
    workload: &Workload,
    v: SubscriberId,
    tau: Rate,
    out: &mut Vec<TopicId>,
) {
    if workload.ranked_sum_past(v, tau) <= tau {
        // τ_v = min(τ, total) = total: everything is needed.
        out.extend_from_slice(workload.interests(v));
        return;
    }

    // The total passes τ, so τ_v = τ.
    let mut rem = tau;
    let mut cheapest_skipped: Option<(Rate, TopicId)> = None;
    for &t in workload.ranked_interests(v) {
        if rem.is_zero() {
            break;
        }
        let ev = workload.rate(t);
        if ev <= rem {
            out.push(t);
            rem = rem.saturating_sub(ev);
        } else if cheapest_skipped.is_none_or(|(best, _)| ev < best) {
            cheapest_skipped = Some((ev, t));
        }
    }
    if !rem.is_zero() {
        // Every skipped topic exceeds the remaining need; the best ratio
        // 1/(2·ev_t) belongs to the smallest rate, ties to the lowest id.
        let (_, exceeder) =
            cheapest_skipped.expect("a total above tau guarantees a skipped topic remains");
        out.push(exceeder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::McssInstance;
    use pubsub_model::{Bandwidth, Workload};

    fn build(rates: &[u64], interests: &[&[u32]]) -> Workload {
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

    fn select(w: &Workload, tau: u64) -> Selection {
        let inst =
            McssInstance::new(w.clone(), Rate::new(tau), Bandwidth::new(u64::MAX / 4)).unwrap();
        GreedySelectPairs::new().select(&inst).unwrap()
    }

    #[test]
    fn selects_everything_when_tau_exceeds_total() {
        let w = build(&[5, 3], &[&[0, 1]]);
        let s = select(&w, 100);
        assert_eq!(s.selected(SubscriberId::new(0)).len(), 2);
    }

    #[test]
    fn prefers_non_exceeding_topics() {
        // τ = 10; rates 9 and 50. Selecting 9 then 50 would cost 118;
        // greedy picks 9 (non-exceeder) first, then must take 50.
        // Actually: after 9, rem=1, only 50 remains (exceeder) -> both.
        // Compare with rates 9 and 10: 10 fits exactly -> only 10.
        let w = build(&[9, 10], &[&[0, 1]]);
        let s = select(&w, 10);
        assert_eq!(s.selected(SubscriberId::new(0)), &[TopicId::new(1)]);
    }

    #[test]
    fn overshoot_picks_cheapest_exceeder() {
        // τ = 10, rates {40, 15}: both exceed; ratio 1/(2·15) > 1/(2·40).
        let w = build(&[40, 15], &[&[0, 1]]);
        let s = select(&w, 10);
        assert_eq!(s.selected(SubscriberId::new(0)), &[TopicId::new(1)]);
    }

    #[test]
    fn descending_fill_then_smallest_exceeder() {
        // τ = 9, rates {10, 7, 7, 3}: select 7, rem 2; skip 7, skip 3? No:
        // 7 ≤ 9 select (rem 2); second 7 > 2 skip; 3 > 2 skip; rem 2 > 0:
        // smallest unchosen is 3.
        let w = build(&[10, 7, 7, 3], &[&[0, 1, 2, 3]]);
        let s = select(&w, 9);
        let sel = s.selected(SubscriberId::new(0));
        let rates: Vec<u64> = sel.iter().map(|&t| w.rate(t).get()).collect();
        assert_eq!(rates, vec![7, 3]);
    }

    /// A row whose total is at most τ, equal to it included, is selected
    /// whole in topic-id order; a row past τ is swept in ranked order.
    /// The literal-greedy test below compares only sets, so this pins the
    /// order.
    #[test]
    fn a_row_totalling_tau_is_selected_whole_in_id_order() {
        let v = SubscriberId::new(0);
        let ids = |ts: &[u32]| ts.iter().map(|&t| TopicId::new(t)).collect::<Vec<_>>();
        // Ranked order t1 (5), t0 (3), t2 (2); total 10.
        let w = build(&[3, 5, 2], &[&[0, 1, 2]]);
        assert_eq!(select(&w, 10).selected(v), ids(&[0, 1, 2]));
        assert_eq!(select(&w, 11).selected(v), ids(&[0, 1, 2]));
        // τ = 9: t1 and t0 fit (rem 1), then the cheapest exceeder t2.
        assert_eq!(select(&w, 9).selected(v), ids(&[1, 0, 2]));
        // Zero-rate topics never pass τ = 0, so an all-zero row is taken
        // whole; with a positive rate in it, nothing is needed.
        let zero = |rates: Vec<u64>| {
            let row = ids(&[1, 0]);
            Workload::from_parts(rates.into_iter().map(Rate::new).collect(), vec![row])
        };
        assert_eq!(select(&zero(vec![0, 0]), 0).selected(v), ids(&[0, 1]));
        assert_eq!(select(&zero(vec![0, 4]), 0).selected(v), ids(&[]));
    }

    #[test]
    fn matches_literal_greedy_on_exhaustive_small_cases() {
        // Cross-check the sweep against a direct implementation of
        // Alg. 1/2 (re-scoring every topic each iteration) on all rate
        // combinations from a small alphabet.
        let alphabet = [1u64, 2, 3, 5, 8, 13];
        for a in alphabet {
            for b in alphabet {
                for c in alphabet {
                    for tau in [1u64, 3, 6, 10, 20, 30] {
                        let w = build(&[a, b, c], &[&[0, 1, 2]]);
                        let fast = select(&w, tau);
                        let slow = literal_greedy(&w, SubscriberId::new(0), Rate::new(tau));
                        let fast_set: std::collections::BTreeSet<_> = fast
                            .selected(SubscriberId::new(0))
                            .iter()
                            .copied()
                            .collect();
                        let slow_set: std::collections::BTreeSet<_> = slow.into_iter().collect();
                        assert_eq!(fast_set, slow_set, "rates ({a},{b},{c}) tau {tau}");
                    }
                }
            }
        }
    }

    /// Direct transcription of Alg. 1 + Alg. 2 with the same tie-breaks
    /// (max ratio, then max rate, then min id). The benefit-cost ratio
    /// `min(1, ev/rem) / (2·ev)` simplifies exactly to
    /// `1/(2·max(ev, rem))`, so candidates are compared in integers —
    /// no floating-point tie ambiguity.
    fn literal_greedy(w: &Workload, v: SubscriberId, tau: Rate) -> Vec<TopicId> {
        use std::cmp::Reverse;
        let tau_v = w.tau_v(v, tau);
        let mut selected: Vec<TopicId> = Vec::new();
        let mut delivered = Rate::ZERO;
        while delivered < tau_v {
            let rem = tau_v.saturating_sub(delivered);
            // Max ratio == min max(ev, rem); then max rate; then min id.
            let t = w
                .interests(v)
                .iter()
                .copied()
                .filter(|t| !selected.contains(t))
                .min_by_key(|&t| {
                    let ev = w.rate(t).get();
                    (ev.max(rem.get()), Reverse(ev), t.raw())
                })
                .expect("tau_v <= total ensures progress");
            selected.push(t);
            delivered += w.rate(t);
        }
        selected
    }

    #[test]
    fn parallel_matches_sequential() {
        // Sizes cover an empty workload, fewer subscribers than threads,
        // and ranges of unequal length.
        for n in [0u32, 1, 3, 100] {
            let mut b = Workload::builder();
            for r in 1..=40 {
                b.add_topic(Rate::new(r)).unwrap();
            }
            for vi in 0..n {
                let tv: Vec<TopicId> = (0..40)
                    .filter(|t| (t + vi) % 3 != 0)
                    .map(TopicId::new)
                    .collect();
                b.add_subscriber(tv).unwrap();
            }
            let inst =
                McssInstance::new(b.build(), Rate::new(50), Bandwidth::new(1 << 40)).unwrap();
            let seq = GreedySelectPairs::new().select(&inst).unwrap();
            assert_eq!(seq.num_subscribers(), n as usize);
            for threads in [2, 3, 4, 7] {
                let par = GreedySelectPairs::with_threads(threads)
                    .select(&inst)
                    .unwrap();
                assert_eq!(seq, par, "{n} subscribers, {threads} threads");
            }
        }
    }

    #[test]
    fn empty_interests_select_nothing() {
        let mut b = Workload::builder();
        b.add_topic(Rate::new(5)).unwrap();
        b.add_subscriber([]).unwrap();
        let inst = McssInstance::new(b.build(), Rate::new(5), Bandwidth::new(100)).unwrap();
        let s = GreedySelectPairs::new().select(&inst).unwrap();
        assert_eq!(s.pair_count(), 0);
        assert!(s.satisfies(inst.workload(), inst.tau())); // τ_v = 0
    }

    #[test]
    fn satisfies_across_tau_range() {
        let w = build(
            &[100, 50, 25, 12, 6, 3],
            &[&[0, 1, 2], &[2, 3, 4, 5], &[0, 5]],
        );
        for tau in [1u64, 10, 50, 150, 1000] {
            let s = select(&w, tau);
            assert!(s.satisfies(&w, Rate::new(tau)), "tau {tau}");
        }
    }
}
