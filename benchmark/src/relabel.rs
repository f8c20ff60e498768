//! Seeded relabelling of topic and subscriber ids.
//!
//! Each workload's trace and drift come from one fixed generator seed;
//! `--seed` picks a random relabelling of their ids. At 100k subscribers
//! the generators' heavy tails make the amount of work itself differ from
//! one generator seed to the next (over generator seeds 1–8 the
//! Twitter-like plan needed 170–297 VMs and took 207–270 ms on a 2-vCPU
//! Xeon VM), so a run-to-run seed that regenerated the trace would mostly
//! measure the seed. A relabelling keeps the work and changes what ids
//! decide: tie-breaks and memory layout.

use mcss_core::serve::Event;
use pubsub_model::{Rate, SubscriberId, TopicId, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator seed every workload's trace and drift are drawn from.
pub const TRACE_SEED: u64 = 1;

/// A bijection on topic ids and one on subscriber ids (old → new).
pub struct Relabel {
    topics: Vec<u32>,
    subscribers: Vec<u32>,
}

fn permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    ids
}

impl Relabel {
    pub fn new(workload: &Workload, seed: u64) -> Relabel {
        let mut rng = StdRng::seed_from_u64(seed);
        let topics = permutation(workload.num_topics(), &mut rng);
        let subscribers = permutation(workload.num_subscribers(), &mut rng);
        Relabel {
            topics,
            subscribers,
        }
    }

    fn topic(&self, t: TopicId) -> TopicId {
        TopicId::new(self.topics[t.index()])
    }

    fn subscriber(&self, v: SubscriberId) -> SubscriberId {
        SubscriberId::new(self.subscribers[v.index()])
    }

    /// The workload under the new ids.
    pub fn workload(&self, workload: &Workload) -> Workload {
        let mut rates = vec![Rate::new(1); workload.num_topics()];
        for t in workload.topics() {
            rates[self.topic(t).index()] = workload.rate(t);
        }
        let mut interests = vec![Vec::new(); workload.num_subscribers()];
        for v in workload.subscribers() {
            interests[self.subscriber(v).index()] = workload
                .interests(v)
                .iter()
                .map(|&t| self.topic(t))
                .collect();
        }
        Workload::from_parts(rates, interests)
    }

    /// An event under the new ids.
    pub fn event(&self, event: Event) -> Event {
        match event {
            Event::Rerate { topic, rate } => Event::Rerate {
                topic: self.topic(topic),
                rate,
            },
            Event::Subscribe { subscriber, topic } => Event::Subscribe {
                subscriber: self.subscriber(subscriber),
                topic: self.topic(topic),
            },
            Event::Unsubscribe { subscriber, topic } => Event::Unsubscribe {
                subscriber: self.subscriber(subscriber),
                topic: self.topic(topic),
            },
            other => other,
        }
    }
}
