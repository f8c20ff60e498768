//! Periodic re-provisioning over an evolving workload.
//!
//! §IV-F and §VI position the solver as fast enough "to be run
//! periodically to adapt to the changes in the event rates, new
//! subscriptions, unsubscriptions, etc." and leave an online algorithm to
//! future work. This module implements that periodic mode: a workload
//! drift model, the [`WorkloadDelta`] record of what changed between two
//! epochs, and a re-provisioner that re-solves (or repairs) per epoch and
//! tracks VM churn and cumulative spend.

use crate::incremental::{IncrementalConfig, IncrementalReallocator};
use crate::stage2::mixed_cost_split;
use crate::{lower_bound, McssError, McssInstance, SolveReport, Solver};
use cloud_cost::{CostModel, FleetCostModel, Money};
use pubsub_model::{Rate, SubscriberId, TopicId, Workload, WorkloadEdit, MAX_RATE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What changed between two workload epochs — the churn record a drift
/// source hands to the O(Δ) repair path so it never has to re-derive the
/// delta by scanning the whole workload.
///
/// Both lists may over-approximate (listing an unchanged topic or
/// subscriber only costs a wasted re-check) but must never miss a change:
/// every topic both epochs have whose event rate differs and every
/// subscriber both epochs have whose interest set differs has to be
/// listed. Topics and subscribers only one epoch has need not be: the
/// epoch step compares the counts itself.
#[derive(Clone, Debug, Default)]
pub struct WorkloadDelta {
    /// Topics whose event rate may have changed. The epoch step does not
    /// read it: it finds re-rated topics by comparing the rates it
    /// remembers, O(topics).
    pub changed_topics: Vec<TopicId>,
    /// Subscribers whose interest set may have changed.
    pub changed_subscribers: Vec<SubscriberId>,
}

impl WorkloadDelta {
    /// The exact delta from `old` to `new`, found by comparing them: every
    /// topic both have whose rate differs and every subscriber both have
    /// whose interest set differs, in ascending order. For callers that
    /// hold two workloads and no drift source; it reads every interest
    /// row, O(pairs), where a drift source's own record is O(Δ).
    pub fn between(old: &Workload, new: &Workload) -> WorkloadDelta {
        let changed_topics = old
            .rates()
            .iter()
            .zip(new.rates())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(ti, _)| TopicId::new(ti as u32))
            .collect();
        let common = old.num_subscribers().min(new.num_subscribers());
        let changed_subscribers = (0..common as u32)
            .map(SubscriberId::new)
            .filter(|&v| old.interests(v) != new.interests(v))
            .collect();
        WorkloadDelta {
            changed_topics,
            changed_subscribers,
        }
    }

    /// `true` when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.changed_topics.is_empty() && self.changed_subscribers.is_empty()
    }
}

/// Multiplicative event-rate drift plus subscription churn, applied once
/// per epoch.
///
/// Rates are multiplied by `exp(σ·N(0,1))` (mean-preserving in log space)
/// and clamped to `1..=MAX_RATE` events; each subscriber independently
/// resubscribes one interest with probability `churn_prob` (dropping a
/// current topic for a uniformly random other topic).
#[derive(Clone, Copy, Debug)]
pub struct DriftModel {
    /// Log-std of the per-epoch rate noise.
    pub rate_sigma: f64,
    /// Per-subscriber probability of swapping one interest.
    pub churn_prob: f64,
    /// Base seed; epoch `e` uses `seed + e`.
    pub seed: u64,
}

impl DriftModel {
    /// Evolves a workload by one epoch and records what changed, so the
    /// incremental re-allocator can repair in O(Δ) without diffing the
    /// workloads (see [`IncrementalReallocator::step_with_delta`]).
    ///
    /// The delta is exact on topics (a topic is listed iff its rounded
    /// rate differs) and a tight over-approximation on subscribers (a
    /// subscriber is listed iff the churn branch fired, which can
    /// occasionally re-produce the same interest set).
    ///
    /// The evolved workload starts as one copy of `workload`, which
    /// [`DriftModel::evolve_edit`] and the commit then edit in place; a
    /// caller that keeps a [`WorkloadEdit`] across epochs skips the copy.
    ///
    /// # Panics
    ///
    /// Panics if `rate_sigma` is negative or `churn_prob` is outside
    /// `[0, 1]`.
    pub fn evolve_tracked(&self, workload: &Workload, epoch: u64) -> (Workload, WorkloadDelta) {
        let mut edit = WorkloadEdit::from_workload(workload.clone());
        self.evolve_edit(&mut edit, epoch);
        let (evolved, changed_topics, changed_subscribers) = edit.commit_shared();
        drop(edit);
        let evolved =
            Arc::into_inner(evolved).expect("the dropped edit held the only other handle");
        (
            evolved,
            WorkloadDelta {
                changed_topics,
                changed_subscribers,
            },
        )
    }

    /// Feeds one epoch of drift into `edit` as operations on its base
    /// workload: a `rerate` of every topic, then an `unsubscribe` and a
    /// `subscribe` per churning subscriber. The edit's change lists, once
    /// committed, are the delta [`DriftModel::evolve_tracked`] returns: a
    /// topic is listed iff its rate moved, a subscriber iff it churned
    /// (the unsubscribe always lands).
    ///
    /// # Panics
    ///
    /// As [`DriftModel::evolve_tracked`].
    pub fn evolve_edit(&self, edit: &mut WorkloadEdit, epoch: u64) {
        assert!(self.rate_sigma >= 0.0, "sigma must be non-negative");
        assert!(
            (0.0..=1.0).contains(&self.churn_prob),
            "churn must be a probability"
        );
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(epoch));
        // A second handle for reading while the edit takes operations;
        // dropped before the caller commits.
        let workload = Arc::clone(edit.base());
        for (ti, r) in workload.rates().iter().enumerate() {
            let noise = (self.rate_sigma * standard_normal(&mut rng)).exp();
            let evolved = ((r.get() as f64) * noise)
                .round()
                .clamp(1.0, MAX_RATE as f64);
            edit.rerate(TopicId::new(ti as u32), Rate::new(evolved as u64))
                .expect("a drifted rate lies in 1..=MAX_RATE");
        }
        let num_topics = workload.num_topics();
        for v in workload.subscribers() {
            let tv = workload.interests(v);
            if !tv.is_empty() && num_topics > 1 && rng.gen::<f64>() < self.churn_prob {
                // Swap one interest for a uniformly random topic (which
                // may be the dropped one, or one already followed).
                let dropped = tv[rng.gen_range(0..tv.len())];
                let add = TopicId::new(rng.gen_range(0..num_topics as u32));
                edit.unsubscribe(v, dropped);
                edit.subscribe(v, add).expect("drift picks existing topics");
            }
        }
    }
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Outcome of one re-provisioning epoch.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// The deployed allocation this epoch (what `--simulate` replays).
    pub allocation: crate::Allocation,
    /// The solve metrics of this epoch.
    pub report: SolveReport,
    /// Change in VM count versus the previous epoch (positive = grown).
    pub vm_delta: i64,
    /// Cumulative objective across all epochs so far.
    pub cumulative_cost: Money,
    /// Pairs whose Stage-1 rows were reused verbatim because their
    /// subscriber was untouched by the epoch's churn (always 0 when the
    /// re-provisioner re-solves from scratch).
    pub pairs_reused: u64,
    /// Pairs that physically moved this epoch: placements plus removals
    /// (a from-scratch re-solve counts every selected pair as placed).
    pub pairs_moved: u64,
    /// Whether the epoch re-packed the whole fleet (always true for the
    /// from-scratch mode; true for the incremental mode only on the first
    /// epoch or after a utilization collapse).
    pub full_resolve: bool,
}

/// Re-provisions each epoch and tracks churn and spend — either by
/// re-running the full solver, or by repairing the previous fleet through
/// an [`IncrementalReallocator`] (see [`Reprovisioner::incremental`]).
#[derive(Debug)]
pub struct Reprovisioner {
    solver: Solver,
    incremental: Option<IncrementalReallocator>,
    /// When set, every epoch deploys onto a heterogeneous fleet: full
    /// solves go through [`Solver::solve_mixed`] / the mixed packer, and
    /// epoch costs are priced per tier. Stage-1 selections stay
    /// bit-identical to a homogeneous run at the same `τ`.
    fleet: Option<FleetCostModel>,
    previous_vms: Option<usize>,
    cumulative_cost: Money,
    epoch: u64,
}

impl Reprovisioner {
    /// Creates a re-provisioner that re-solves from scratch each epoch.
    pub fn new(solver: Solver) -> Self {
        Reprovisioner {
            solver,
            incremental: None,
            fleet: None,
            previous_vms: None,
            cumulative_cost: Money::ZERO,
            epoch: 0,
        }
    }

    /// Creates a re-provisioner that repairs the previous allocation each
    /// epoch (O(Δ) churn path) instead of re-solving. `solver` is kept
    /// for reporting defaults; the repair policy comes from `config`.
    pub fn incremental(solver: Solver, config: IncrementalConfig) -> Self {
        Reprovisioner {
            solver,
            incremental: Some(IncrementalReallocator::new(config)),
            fleet: None,
            previous_vms: None,
            cumulative_cost: Money::ZERO,
            epoch: 0,
        }
    }

    /// Deploys onto a heterogeneous fleet instead of a single instance
    /// type (both modes): epoch instances must use
    /// [`FleetCostModel::max_capacity`] as their capacity, and the
    /// `cost` handed to [`Reprovisioner::step`] is used only for the
    /// informational lower bound — epoch costs come from the fleet.
    pub fn with_fleet(mut self, fleet: FleetCostModel) -> Self {
        if let Some(inc) = self.incremental.take() {
            self.incremental = Some(inc.with_fleet(fleet.clone()));
        }
        self.fleet = Some(fleet);
        self
    }

    /// Solves the given epoch instance and accumulates statistics. The
    /// incremental mode repairs the previous fleet against `delta`, what
    /// changed since the previous step (see
    /// [`IncrementalReallocator::step_with_delta`]); the from-scratch mode
    /// ignores it.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; failed epochs do not advance the state,
    /// and the incremental step after one re-selects every row whatever
    /// its delta lists.
    pub fn step(
        &mut self,
        instance: &McssInstance,
        cost: &dyn CostModel,
        delta: &WorkloadDelta,
    ) -> Result<EpochReport, McssError> {
        let fleet = self.fleet.clone();
        let (allocation, report, pairs_reused, pairs_moved, full_resolve) =
            match &mut self.incremental {
                None => match &fleet {
                    Some(fleet) => {
                        let outcome = self.solver.solve_mixed(instance, fleet)?;
                        let elapsed = outcome.report.stage1_time + outcome.report.stage2_time;
                        let moved = outcome.report.pairs_selected;
                        let report = priced_report(
                            instance,
                            cost,
                            &outcome.allocation,
                            "mixed",
                            outcome.report.pairs_selected,
                            Some(fleet),
                            elapsed,
                        );
                        (outcome.allocation, report, 0, moved, true)
                    }
                    None => {
                        let outcome = self.solver.solve(instance, cost)?;
                        let moved = outcome.report.pairs_selected;
                        (outcome.allocation, outcome.report, 0, moved, true)
                    }
                },
                Some(inc) => {
                    let started = Instant::now();
                    let out = inc.step_with_delta(instance, cost, delta)?;
                    let elapsed = started.elapsed();
                    let report = priced_report(
                        instance,
                        cost,
                        &out.allocation,
                        if out.full_resolve {
                            if fleet.is_some() {
                                "mixed"
                            } else {
                                "CBP"
                            }
                        } else {
                            "repair"
                        },
                        out.selection.pair_count(),
                        fleet.as_ref(),
                        elapsed,
                    );
                    let moved = out.pairs_placed + out.pairs_removed;
                    (
                        out.allocation,
                        report,
                        out.pairs_reused,
                        moved,
                        out.full_resolve,
                    )
                }
            };
        let vms = report.vm_count;
        let vm_delta = match self.previous_vms {
            Some(prev) => vms as i64 - prev as i64,
            None => vms as i64,
        };
        self.previous_vms = Some(vms);
        self.cumulative_cost += report.total_cost;
        let report = EpochReport {
            epoch: self.epoch,
            allocation,
            report,
            vm_delta,
            cumulative_cost: self.cumulative_cost,
            pairs_reused,
            pairs_moved,
            full_resolve,
        };
        self.epoch += 1;
        Ok(report)
    }

    /// Epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// Total objective across completed epochs.
    pub fn cumulative_cost(&self) -> Money {
        self.cumulative_cost
    }
}

/// Builds a [`SolveReport`] for a repair or mixed-fleet epoch (no stage
/// split, so the wall-clock lands on the Stage-2 slot). Typed allocations
/// with a fleet are priced per tier; everything else goes through the
/// scalar cost model.
fn priced_report(
    instance: &McssInstance,
    cost: &dyn CostModel,
    allocation: &crate::Allocation,
    allocator: &'static str,
    pairs_selected: u64,
    fleet: Option<&FleetCostModel>,
    elapsed: Duration,
) -> SolveReport {
    let workload = instance.workload();
    let lb = lower_bound(workload, instance.tau(), instance.capacity());
    let total_bandwidth = allocation.total_bandwidth();
    let (vm_cost, bandwidth_cost) = match fleet {
        Some(fleet) if allocation.typing().is_some() => mixed_cost_split(allocation, fleet),
        _ => (
            cost.vm_cost(allocation.vm_count()),
            cost.bandwidth_cost(total_bandwidth),
        ),
    };
    SolveReport {
        selector: "GSP",
        allocator,
        pairs_selected,
        vm_count: allocation.vm_count(),
        total_bandwidth,
        outgoing: allocation.outgoing_volume(workload),
        incoming: allocation.incoming_volume(workload),
        vm_cost,
        bandwidth_cost,
        total_cost: vm_cost + bandwidth_cost,
        lower_bound_vms: lb.vms,
        lower_bound_volume: lb.volume,
        lower_bound_cost: lb.cost(cost),
        stage1_time: Duration::ZERO,
        stage2_time: elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_cost::LinearCostModel;
    use pubsub_model::Bandwidth;

    fn base_workload() -> Workload {
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = [20u64, 12, 8, 5]
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        b.add_subscriber([ts[0], ts[1]]).unwrap();
        b.add_subscriber([ts[1], ts[2], ts[3]]).unwrap();
        b.add_subscriber([ts[0], ts[3]]).unwrap();
        b.build()
    }

    #[test]
    fn drift_is_deterministic_per_epoch() {
        let w = base_workload();
        let drift = DriftModel {
            rate_sigma: 0.3,
            churn_prob: 0.5,
            seed: 11,
        };
        let (a, _) = drift.evolve_tracked(&w, 4);
        let (b, _) = drift.evolve_tracked(&w, 4);
        assert_eq!(a.rates(), b.rates());
        let (c, _) = drift.evolve_tracked(&w, 5);
        assert!(a.rates() != c.rates());
    }

    #[test]
    fn drift_keeps_rates_positive_and_counts_stable() {
        let w = base_workload();
        let drift = DriftModel {
            rate_sigma: 1.5,
            churn_prob: 1.0,
            seed: 7,
        };
        let (evolved, _) = drift.evolve_tracked(&w, 0);
        assert_eq!(evolved.num_topics(), w.num_topics());
        assert_eq!(evolved.num_subscribers(), w.num_subscribers());
        for t in evolved.topics() {
            assert!(!evolved.rate(t).is_zero());
        }
    }

    #[test]
    fn zero_drift_is_identity_on_rates() {
        let w = base_workload();
        let drift = DriftModel {
            rate_sigma: 0.0,
            churn_prob: 0.0,
            seed: 1,
        };
        let (evolved, delta) = drift.evolve_tracked(&w, 9);
        assert_eq!(evolved.rates(), w.rates());
        for v in w.subscribers() {
            assert_eq!(evolved.interests(v), w.interests(v));
        }
        assert!(delta.is_empty());
    }

    #[test]
    fn between_lists_exactly_what_differs() {
        let w = base_workload();
        let drift = DriftModel {
            rate_sigma: 0.5,
            churn_prob: 1.0,
            seed: 4,
        };
        // The drift record is exact on topics and may over-list
        // subscribers whose swap re-produced their interest set.
        let (next, tracked) = drift.evolve_tracked(&w, 0);
        let exact = WorkloadDelta::between(&w, &next);
        assert_eq!(exact.changed_topics, tracked.changed_topics);
        let moved: Vec<SubscriberId> = tracked
            .changed_subscribers
            .iter()
            .copied()
            .filter(|&v| w.interests(v) != next.interests(v))
            .collect();
        assert_eq!(exact.changed_subscribers, moved);
        assert!(!exact.changed_topics.is_empty() && !moved.is_empty());
        assert!(WorkloadDelta::between(&next, &next).is_empty());
        // Topics and subscribers only one side has are not listed.
        let shrunk = Workload::from_parts(w.rates()[..2].to_vec(), vec![vec![TopicId::new(0)]]);
        let delta = WorkloadDelta::between(&w, &shrunk);
        assert!(delta.changed_topics.is_empty());
        assert_eq!(delta.changed_subscribers, vec![SubscriberId::new(0)]);
    }

    #[test]
    fn reprovisioner_accumulates_over_epochs() {
        let drift = DriftModel {
            rate_sigma: 0.2,
            churn_prob: 0.3,
            seed: 3,
        };
        let cost = LinearCostModel::new(Money::from_dollars(1), Money::from_micros(1));
        let mut re = Reprovisioner::new(Solver::default());
        let mut w = base_workload();
        let mut delta = WorkloadDelta::default();
        let mut last_cumulative = Money::ZERO;
        for epoch in 0..5 {
            let inst = McssInstance::new(w.clone(), Rate::new(15), Bandwidth::new(120)).unwrap();
            let r = re.step(&inst, &cost, &delta).unwrap();
            assert_eq!(r.epoch, epoch);
            assert!(r.cumulative_cost >= last_cumulative);
            last_cumulative = r.cumulative_cost;
            (w, delta) = drift.evolve_tracked(&w, epoch);
        }
        assert_eq!(re.epochs(), 5);
        assert_eq!(re.cumulative_cost(), last_cumulative);
    }

    #[test]
    fn first_epoch_delta_is_full_fleet() {
        let cost = LinearCostModel::vm_only(Money::from_dollars(1));
        let mut re = Reprovisioner::new(Solver::default());
        let inst = McssInstance::new(base_workload(), Rate::new(10), Bandwidth::new(100)).unwrap();
        let r = re.step(&inst, &cost, &WorkloadDelta::default()).unwrap();
        assert_eq!(r.vm_delta, r.report.vm_count as i64);
    }
}
