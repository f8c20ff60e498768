//! Shared-incoming-aware greedy selection (extension).
//!
//! Alg. 1 prices every pair at `2·ev_t`, charging the incoming stream once
//! per pair. In the real objective the incoming stream of a topic is paid
//! once per VM hosting it, so when some earlier subscriber already pulled
//! topic `t` into `S`, the *marginal* cost of `(t, v)` is only the
//! outgoing `ev_t`. This selector exploits that: the benefit-cost ratio of
//! Alg. 1 becomes `min(1, ev/rem) / ev` for already-selected topics and
//! `min(1, ev/rem) / (2·ev)` for fresh ones.
//!
//! The closed forms of those ratios (`1/rem` for shared non-exceeders,
//! `1/(2·rem)` for fresh non-exceeders, `1/ev` / `1/(2·ev)` for
//! exceeders) yield the same sweep structure as GSP: consume shared
//! non-exceeders first (strictly the best class), then repeatedly compare
//! the best fresh non-exceeder against the cheapest exceeder until
//! satisfied. This is the paper's machinery taken one step further, kept
//! as an explicitly-labelled extension (see "Deviations from the paper"
//! in `docs/PAPER_MAP.md`) and measured in the ablation bench.

use super::PairSelector;
use crate::{McssError, McssInstance, Selection, SelectionBuilder};
use pubsub_model::{Rate, SubscriberId, TopicId, Workload};

/// Greedy Stage-1 selector that charges shared incoming streams once.
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedAwareGreedy {}

impl SharedAwareGreedy {
    /// Creates the selector.
    pub fn new() -> Self {
        SharedAwareGreedy {}
    }
}

impl PairSelector for SharedAwareGreedy {
    fn name(&self) -> &'static str {
        "GSP-shared"
    }

    fn select(&self, instance: &McssInstance) -> Result<Selection, McssError> {
        let (workload, tau) = (instance.workload(), instance.tau());
        let mut in_solution = vec![false; workload.num_topics()];
        let mut builder = SelectionBuilder::with_capacity(workload.num_subscribers(), 0);
        for v in workload.subscribers() {
            let chosen = select_one(workload, v, tau, &in_solution);
            for &t in &chosen {
                in_solution[t.index()] = true;
            }
            builder.push_row(chosen);
        }
        Ok(builder.build())
    }
}

/// Candidate classes for phase 2, in tie-break priority order.
// "Exceeder" is this algorithm's term for a topic whose rate exceeds the
// remaining demand `rem`; the shared postfix is domain vocabulary.
#[allow(clippy::enum_variant_names)]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    FreshNonExceeder,
    SharedExceeder,
    FreshExceeder,
}

/// Selection for one subscriber given the set of topics already in `S`.
fn select_one(
    workload: &Workload,
    v: SubscriberId,
    tau: Rate,
    in_solution: &[bool],
) -> Vec<TopicId> {
    let interests = workload.interests(v);
    if interests.is_empty() {
        return Vec::new();
    }
    let tau_v = workload.tau_v(v, tau);
    if workload.subscriber_total_rate(v) <= tau_v {
        return interests.to_vec();
    }

    // Split interests into shared (already in S) and fresh. The ranked
    // arena is already in (descending rate, ascending id) order, so the
    // partition preserves it — no sort.
    let ranked = workload.ranked_interests(v);
    let shared: Vec<TopicId> = ranked
        .iter()
        .copied()
        .filter(|t| in_solution[t.index()])
        .collect();
    let fresh: Vec<TopicId> = ranked
        .iter()
        .copied()
        .filter(|t| !in_solution[t.index()])
        .collect();

    let mut selected = Vec::new();
    let mut rem = tau_v;

    // Phase 1: shared non-exceeders have ratio 1/rem — strictly the best
    // class. A descending sweep consumes them; every shared topic left
    // unselected afterwards exceeds the final rem.
    let mut shared_taken = vec![false; shared.len()];
    for (i, &t) in shared.iter().enumerate() {
        if rem.is_zero() {
            break;
        }
        let ev = workload.rate(t);
        if ev <= rem {
            selected.push(t);
            shared_taken[i] = true;
            rem = rem.saturating_sub(ev);
        }
    }

    // Phase 2: pick the candidate with the smallest cost key each round:
    // fresh non-exceeder key = 2·rem, shared exceeder key = ev, fresh
    // exceeder key = 2·ev (keys are the reciprocals of the benefit-cost
    // ratios). Selecting an exceeder satisfies the subscriber and ends
    // the loop; selecting a non-exceeder shrinks rem and continues.
    let mut fresh_ptr = 0usize;
    let mut fresh_taken: Vec<bool> = vec![false; fresh.len()];
    while !rem.is_zero() {
        // Largest fresh non-exceeder: rem only shrinks, so items skipped
        // for exceeding once exceed forever and the pointer is monotone.
        while fresh_ptr < fresh.len()
            && (fresh_taken[fresh_ptr] || workload.rate(fresh[fresh_ptr]) > rem)
        {
            fresh_ptr += 1;
        }
        let fresh_nonexc: Option<TopicId> = fresh.get(fresh_ptr).copied();

        // Smallest shared exceeder: last untaken entry of the shared list.
        let shared_exc: Option<TopicId> = shared
            .iter()
            .zip(&shared_taken)
            .rev()
            .find(|&(_, &taken)| !taken)
            .map(|(&t, _)| t);

        // Smallest fresh exceeder: exceeders form the descending prefix
        // `[0, p)` of the current rem. Items taken in earlier rounds (as
        // non-exceeders of a larger rem) may have drifted into the prefix,
        // so skip taken entries.
        let p = fresh.partition_point(|&t| workload.rate(t) > rem);
        let fresh_exc: Option<TopicId> = fresh[..p]
            .iter()
            .zip(&fresh_taken[..p])
            .rev()
            .find(|&(_, &taken)| !taken)
            .map(|(&t, _)| t);

        let mut best: Option<(u128, Class, TopicId)> = None;
        let mut consider = |key: u128, class: Class, t: TopicId| {
            if best.is_none_or(|(bk, bc, _)| (key, class) < (bk, bc)) {
                best = Some((key, class, t));
            }
        };
        if let Some(t) = fresh_nonexc {
            consider(2 * u128::from(rem.get()), Class::FreshNonExceeder, t);
        }
        if let Some(t) = shared_exc {
            consider(u128::from(workload.rate(t).get()), Class::SharedExceeder, t);
        }
        if let Some(t) = fresh_exc {
            consider(
                2 * u128::from(workload.rate(t).get()),
                Class::FreshExceeder,
                t,
            );
        }

        let (_, class, t) = best.expect("total > tau_v guarantees an unselected candidate exists");
        selected.push(t);
        match class {
            Class::FreshNonExceeder => {
                fresh_taken[fresh_ptr] = true;
                rem = rem.saturating_sub(workload.rate(t));
            }
            // Exceeders overshoot the remaining need: done.
            Class::SharedExceeder | Class::FreshExceeder => break,
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::GreedySelectPairs;
    use crate::McssInstance;
    use pubsub_model::{Bandwidth, Workload};

    fn instance(rates: &[u64], interests: &[&[u32]], tau: u64) -> McssInstance {
        let mut b = Workload::builder();
        for &r in rates {
            b.add_topic(Rate::new(r)).unwrap();
        }
        for tv in interests {
            b.add_subscriber(tv.iter().map(|&t| TopicId::new(t)))
                .unwrap();
        }
        McssInstance::new(b.build(), Rate::new(tau), Bandwidth::new(1 << 40)).unwrap()
    }

    /// True marginal bandwidth of a selection: outgoing per pair plus one
    /// incoming stream per distinct selected topic (single-VM view).
    fn true_volume(s: &Selection, w: &Workload) -> u64 {
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0u64;
        for p in s.iter_pairs() {
            total += w.rate(p.topic).get();
            if seen.insert(p.topic) {
                total += w.rate(p.topic).get();
            }
        }
        total
    }

    #[test]
    fn reuses_topics_selected_for_earlier_subscribers() {
        // Both subscribers can be satisfied by t0 (rate 10) or t1 (rate 10).
        // Plain GSP treats them independently; tie-break picks the same
        // topic for both — but make the interesting case explicit: v0 only
        // knows t0; v1 knows both and should reuse t0 (marginal cost 10)
        // rather than open t1 (marginal cost 20).
        let inst = instance(&[10, 12], &[&[0], &[0, 1]], 10);
        let s = SharedAwareGreedy::new().select(&inst).unwrap();
        assert_eq!(s.selected(SubscriberId::new(1)), &[TopicId::new(0)]);
    }

    #[test]
    fn shared_exceeder_can_beat_fresh_nonexceeder() {
        // v0 pulls t0 (rate 12) into S. v1 needs 10 and knows t0 plus
        // fresh t1 (rate 8): shared exceeder key = 12 beats fresh
        // non-exceeder key = 2·10 = 20 — reuse t0 even though it
        // overshoots.
        let inst = instance(&[12, 8], &[&[0], &[0, 1]], 10);
        let s = SharedAwareGreedy::new().select(&inst).unwrap();
        assert_eq!(s.selected(SubscriberId::new(1)), &[TopicId::new(0)]);
    }

    #[test]
    fn fresh_nonexceeder_wins_when_cheaper() {
        // Shared t0 rate 25; fresh t1 rate 9, τ = 10: fresh non-exceeder
        // key 20 < shared exceeder key 25 → take t1 first; then rem = 1,
        // shared exceeder key 25 vs fresh none → t0. Hmm, that makes both.
        // Use τ = 9 so t1 alone satisfies.
        let inst = instance(&[25, 9], &[&[0], &[0, 1]], 9);
        let s = SharedAwareGreedy::new().select(&inst).unwrap();
        assert_eq!(s.selected(SubscriberId::new(1)), &[TopicId::new(1)]);
    }

    #[test]
    fn satisfies_everywhere_and_never_truly_costlier_than_gsp() {
        // On single-VM marginal volume, sharing awareness should not lose
        // to plain GSP on workloads with heavy interest overlap.
        let rates = [40u64, 25, 16, 9, 5, 3, 2];
        let interests: Vec<&[u32]> = vec![
            &[0, 1, 2],
            &[0, 1, 3],
            &[1, 2, 4, 5],
            &[0, 4, 5, 6],
            &[2, 3, 6],
        ];
        for tau in [5u64, 15, 30, 60] {
            let inst = instance(&rates, &interests, tau);
            let shared = SharedAwareGreedy::new().select(&inst).unwrap();
            let plain = GreedySelectPairs::new().select(&inst).unwrap();
            let w = inst.workload();
            assert!(shared.satisfies(w, inst.tau()), "tau {tau}");
            assert!(
                true_volume(&shared, w) <= true_volume(&plain, w) + tau, // allow slack: greedy, not optimal
                "tau {tau}: shared {} plain {}",
                true_volume(&shared, w),
                true_volume(&plain, w)
            );
        }
    }

    #[test]
    fn first_subscriber_matches_plain_gsp() {
        // With an empty shared set the selector degenerates to GSP.
        let inst = instance(&[10, 7, 7, 3], &[&[0, 1, 2, 3]], 9);
        let shared = SharedAwareGreedy::new().select(&inst).unwrap();
        let plain = GreedySelectPairs::new().select(&inst).unwrap();
        let v = SubscriberId::new(0);
        let norm = |s: &Selection| {
            let mut v: Vec<TopicId> = s.selected(v).to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(norm(&shared), norm(&plain));
    }

    #[test]
    fn empty_interests_ok() {
        let mut b = Workload::builder();
        b.add_topic(Rate::new(5)).unwrap();
        b.add_subscriber([]).unwrap();
        let inst = McssInstance::new(b.build(), Rate::new(5), Bandwidth::new(100)).unwrap();
        let s = SharedAwareGreedy::new().select(&inst).unwrap();
        assert_eq!(s.pair_count(), 0);
    }
}
