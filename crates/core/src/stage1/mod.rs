//! Stage 1 of the MCSS heuristic: selecting topic-subscriber pairs.
//!
//! Stage 1 solves the relaxed problem of §III-A — one hypothetical VM of
//! unlimited capacity — choosing a pair set `S` that satisfies every
//! subscriber while minimizing the Stage-1 bandwidth notion
//! `Σ_{(t,v)∈S} 2·ev_t`. Selectors:
//!
//! * [`GreedySelectPairs`] — the paper's benefit-cost greedy (Alg. 1–2),
//!   optionally parallelized over subscribers;
//! * [`RandomSelectPairs`] — the naive baseline (Alg. 6);
//! * [`OptimalSelectPairs`] — the per-subscriber covering-knapsack optimum
//!   the paper deems too slow at scale (§III-A); bounded by a DP budget,
//!   used to sandwich the greedy in tests;
//! * [`SharedAwareGreedy`] — *extension*: charges only `ev_t` for a topic
//!   some earlier subscriber already pulled into `S`, exploiting the fact
//!   that the true incoming stream is shared (Alg. 1 charges `2·ev_t`
//!   unconditionally).

mod gsp;
mod optimal;
mod rsp;
mod shared;

pub use gsp::GreedySelectPairs;
pub(crate) use gsp::{build_in_ranges, select_for_subscriber_into};
pub use optimal::OptimalSelectPairs;
pub use rsp::RandomSelectPairs;
pub use shared::SharedAwareGreedy;

use crate::{McssError, McssInstance, Selection};

/// A Stage-1 algorithm: chooses the pair set `S`.
pub trait PairSelector: std::fmt::Debug {
    /// Short name used in reports and experiment tables.
    fn name(&self) -> &'static str;

    /// Selects pairs satisfying every subscriber of the instance's
    /// workload at its threshold `τ`.
    ///
    /// # Errors
    ///
    /// Implementations with resource budgets (the optimal DP) return an
    /// [`McssError`] when the instance exceeds them; the heuristics never
    /// fail.
    fn select(&self, instance: &McssInstance) -> Result<Selection, McssError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_model::{Bandwidth, Rate, Workload};

    /// All selectors must produce satisfying selections on a shared
    /// scenario (the trait-level contract).
    #[test]
    fn all_selectors_satisfy() {
        let mut b = Workload::builder();
        let t0 = b.add_topic(Rate::new(30)).unwrap();
        let t1 = b.add_topic(Rate::new(12)).unwrap();
        let t2 = b.add_topic(Rate::new(7)).unwrap();
        b.add_subscriber([t0, t1, t2]).unwrap();
        b.add_subscriber([t1, t2]).unwrap();
        b.add_subscriber([t0]).unwrap();
        let inst = McssInstance::new(b.build(), Rate::new(15), Bandwidth::new(1_000)).unwrap();

        let selectors: Vec<Box<dyn PairSelector>> = vec![
            Box::new(GreedySelectPairs::new()),
            Box::new(GreedySelectPairs::with_threads(2)),
            Box::new(RandomSelectPairs::new(42)),
            Box::new(OptimalSelectPairs::new()),
            Box::new(SharedAwareGreedy::new()),
        ];
        for s in selectors {
            let sel = s.select(&inst).expect("small instance");
            assert!(
                sel.satisfies(inst.workload(), inst.tau()),
                "{} failed to satisfy",
                s.name()
            );
        }
    }
}
