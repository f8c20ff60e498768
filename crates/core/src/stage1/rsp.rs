//! RandomSelectPairs — Alg. 6, the naive Stage-1 baseline.

use super::PairSelector;
use crate::{McssError, McssInstance, Selection, SelectionBuilder};
use pubsub_model::{Rate, TopicId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's naive baseline (Alg. 6): for each subscriber, take pairs
/// "in no particular order" until `τ_v` is reached.
///
/// "No particular order" is pinned to a seeded shuffle, so the same seed
/// over the same workload (interests *and* rates — the shuffle reads the
/// rate-ranked interest arena, the row every other selector consumes, so
/// RSP touches the same cache lines as GSP in back-to-back comparisons)
/// yields the same selection.
#[derive(Clone, Copy, Debug)]
pub struct RandomSelectPairs {
    seed: u64,
}

impl RandomSelectPairs {
    /// Creates the baseline with a shuffle seed.
    pub fn new(seed: u64) -> Self {
        RandomSelectPairs { seed }
    }
}

impl PairSelector for RandomSelectPairs {
    fn name(&self) -> &'static str {
        "RSP"
    }

    fn select(&self, instance: &McssInstance) -> Result<Selection, McssError> {
        let (workload, tau) = (instance.workload(), instance.tau());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut builder = SelectionBuilder::with_capacity(workload.num_subscribers(), 0);
        let mut order: Vec<TopicId> = Vec::new();
        for v in workload.subscribers() {
            let tau_v = workload.tau_v(v, tau);
            order.clear();
            order.extend_from_slice(workload.ranked_interests(v));
            shuffle(&mut order, &mut rng);
            builder.push_row_with(|row| {
                let mut delivered = Rate::ZERO;
                for &t in &order {
                    if delivered >= tau_v {
                        break;
                    }
                    delivered += workload.rate(t);
                    row.push(t);
                }
            });
        }
        Ok(builder.build())
    }
}

fn shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::GreedySelectPairs;
    use crate::McssInstance;
    use pubsub_model::{Bandwidth, Workload};

    fn instance(tau: u64) -> McssInstance {
        let mut b = Workload::builder();
        let mut topics = Vec::new();
        for r in [50u64, 30, 20, 10, 5, 2, 1] {
            topics.push(b.add_topic(Rate::new(r)).unwrap());
        }
        b.add_subscriber(topics.iter().copied()).unwrap();
        b.add_subscriber(topics[2..].iter().copied()).unwrap();
        McssInstance::new(b.build(), Rate::new(tau), Bandwidth::new(1 << 40)).unwrap()
    }

    #[test]
    fn satisfies_all_subscribers() {
        for tau in [1u64, 10, 40, 1_000] {
            let inst = instance(tau);
            let s = RandomSelectPairs::new(7).select(&inst).unwrap();
            assert!(s.satisfies(inst.workload(), inst.tau()), "tau {tau}");
        }
    }

    #[test]
    fn stops_once_satisfied() {
        let inst = instance(5);
        let s = RandomSelectPairs::new(7).select(&inst).unwrap();
        for v in inst.workload().subscribers() {
            let sel = s.selected(v);
            // Dropping the last pick must leave the subscriber short:
            // RSP adds pairs only while delivered < τ_v.
            let without_last: Rate = sel[..sel.len() - 1]
                .iter()
                .map(|&t| inst.workload().rate(t))
                .sum();
            assert!(without_last < inst.tau_v(v));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = instance(30);
        let a = RandomSelectPairs::new(1).select(&inst).unwrap();
        let b = RandomSelectPairs::new(1).select(&inst).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ_eventually() {
        let inst = instance(30);
        let outcomes: Vec<Selection> = (0..10)
            .map(|seed| RandomSelectPairs::new(seed).select(&inst).unwrap())
            .collect();
        assert!(
            outcomes.windows(2).any(|w| w[0] != w[1]),
            "ten seeds produced identical random selections"
        );
    }

    #[test]
    fn costlier_than_greedy_on_average() {
        // The headline claim of §IV-C at the Stage-1 level: RSP pays more
        // Stage-1 bandwidth than GSP (averaged over seeds to avoid a
        // lucky shuffle).
        let inst = instance(25);
        let g = GreedySelectPairs::new().select(&inst).unwrap();
        let g_cost = g.stage1_cost(inst.workload()).get();
        let avg_r: f64 = (0..20)
            .map(|seed| {
                RandomSelectPairs::new(seed)
                    .select(&inst)
                    .unwrap()
                    .stage1_cost(inst.workload())
                    .get() as f64
            })
            .sum::<f64>()
            / 20.0;
        assert!(
            avg_r >= g_cost as f64,
            "random ({avg_r}) beat greedy ({g_cost}) on average"
        );
    }
}
