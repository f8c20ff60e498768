//! The discrete-event engine: publishers → VM brokers → subscribers.

use crate::{PublicationSchedule, ScheduleKind, SimReport, VmMeter};
use mcss_core::Allocation;
use pubsub_model::{SubscriberId, TopicId, Workload};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Window length in abstract ticks (rates are events-per-window).
    pub window_ticks: u64,
    /// Publication schedule model.
    pub schedule: ScheduleKind,
    /// Bytes per event, for byte-level meters (the paper uses 200).
    pub message_bytes: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            window_ticks: 1 << 20,
            schedule: ScheduleKind::Deterministic,
            message_bytes: 200,
        }
    }
}

/// The discrete-event pub/sub simulation.
///
/// Construction is cheap; [`Simulation::run`] does the work. The engine
/// routes each published event through the allocation's broker topology
/// in timestamp order (a binary-heap event queue) and meters per-VM
/// ingress/egress and per-subscriber delivery. See the
/// [crate docs](crate) for an end-to-end example.
#[derive(Clone, Copy, Debug, Default)]
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// Creates a simulation with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulation { config }
    }

    /// The active configuration.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Replays the workload's publications through the allocation.
    ///
    /// Topics without any placement simply publish into the void (their
    /// pairs were not selected by Stage 1); subscribers of such topics
    /// receive nothing from them, exactly as the solver's model assumes.
    pub fn run(&self, workload: &Workload, allocation: &Allocation) -> SimReport {
        // Routing table: topic → [(vm index, subscribers served there)].
        let mut routes: Vec<Vec<(usize, &[SubscriberId])>> =
            vec![Vec::new(); workload.num_topics()];
        for (vm_idx, vm) in allocation.vms().enumerate() {
            for (topic, subscribers) in vm.rows() {
                routes[topic.index()].push((vm_idx, subscribers));
            }
        }

        // Event queue: (tick, topic, sequence) — sequence breaks ties
        // deterministically.
        let mut queue: BinaryHeap<Reverse<(u64, u32, u64)>> = BinaryHeap::new();
        let mut published = 0u64;
        for t in workload.topics() {
            if routes[t.index()].is_empty() {
                // No broker hosts this topic: skip scheduling entirely
                // (saves work; nothing would be metered anyway).
                continue;
            }
            let schedule = PublicationSchedule::generate(
                t,
                workload.rate(t),
                self.config.window_ticks,
                self.config.schedule,
            );
            published += schedule.event_count();
            for (seq, &tick) in schedule.instants().iter().enumerate() {
                queue.push(Reverse((tick, t.raw(), seq as u64)));
            }
        }

        // Per-VM capacity metering: each meter knows its own VM's budget —
        // the tier capacity on a mixed (typed) fleet, the shared BC
        // otherwise — so reports can flag operational overloads per VM.
        let mut vms: Vec<VmMeter> = (0..allocation.vm_count())
            .map(|vm| VmMeter {
                capacity_events: allocation.vm_capacity(vm).get(),
                ..VmMeter::default()
            })
            .collect();
        let mut delivered_copies = vec![0u64; workload.num_subscribers()];
        let mut processed = 0u64;
        // Unique-delivery bookkeeping: pairs replicated across VMs count
        // once toward satisfaction (Eq. 3). Track which (t, v) pairs are
        // duplicated to avoid a per-event set; duplicates are rare (our
        // packers never produce them), so count uniquely per topic fanout.
        let mut delivered_unique = vec![0u64; workload.num_subscribers()];

        while let Some(Reverse((_tick, topic_raw, _seq))) = queue.pop() {
            processed += 1;
            let topic = TopicId::new(topic_raw);
            let fanout = &routes[topic.index()];
            let mut seen_this_event: Option<HashSet<SubscriberId>> = if fanout.len() > 1 {
                Some(HashSet::new())
            } else {
                None
            };
            for &(vm_idx, subscribers) in fanout {
                let meter = &mut vms[vm_idx];
                meter.ingress_events += 1;
                meter.ingress_bytes += self.config.message_bytes;
                meter.egress_events += subscribers.len() as u64;
                meter.egress_bytes += subscribers.len() as u64 * self.config.message_bytes;
                for &v in subscribers {
                    delivered_copies[v.index()] += 1;
                    match &mut seen_this_event {
                        Some(seen) => {
                            if seen.insert(v) {
                                delivered_unique[v.index()] += 1;
                            }
                        }
                        None => delivered_unique[v.index()] += 1,
                    }
                }
            }
        }

        SimReport {
            vms,
            delivered_events: delivered_unique,
            delivered_copies,
            published_events: published,
            processed_events: processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_cost::{LinearCostModel, Money};
    use mcss_core::{McssInstance, Solver};
    use pubsub_model::{Bandwidth, Rate};

    fn solve(
        rates: &[u64],
        interests: &[&[u32]],
        tau: u64,
        cap: u64,
    ) -> (McssInstance, Allocation) {
        let mut b = Workload::builder();
        for &r in rates {
            b.add_topic(Rate::new(r)).unwrap();
        }
        for tv in interests {
            b.add_subscriber(tv.iter().map(|&t| TopicId::new(t)))
                .unwrap();
        }
        let inst = McssInstance::new(b.build(), Rate::new(tau), Bandwidth::new(cap)).unwrap();
        let cost = LinearCostModel::vm_only(Money::from_dollars(1));
        let outcome = Solver::default().solve(&inst, &cost).unwrap();
        (inst, outcome.allocation)
    }

    #[test]
    fn deterministic_bandwidth_matches_analytic_exactly() {
        let (inst, alloc) = solve(&[20, 10, 5], &[&[0, 1], &[1, 2], &[0, 2]], 15, 100);
        let sim = Simulation::new(SimConfig::default());
        let report = sim.run(inst.workload(), &alloc);
        assert_eq!(
            report.total_bandwidth_events(),
            alloc.total_bandwidth().get()
        );
        // Per-VM equality, not just the total.
        for (meter, vm) in report.vms.iter().zip(alloc.vms()) {
            assert_eq!(meter.total_events(), vm.used().get());
            assert_eq!(
                meter.ingress_events,
                vm.incoming_volume(inst.workload()).get()
            );
            assert_eq!(
                meter.egress_events,
                vm.outgoing_volume(inst.workload()).get()
            );
        }
    }

    #[test]
    fn satisfaction_holds_operationally() {
        let (inst, alloc) = solve(&[30, 12, 7, 4], &[&[0, 1, 2], &[1, 2, 3], &[0, 3]], 14, 120);
        let report = Simulation::new(SimConfig::default()).run(inst.workload(), &alloc);
        assert!(report.all_satisfied(inst.workload(), inst.tau()));
        assert_eq!(report.unsatisfied_count(inst.workload(), inst.tau()), 0);
    }

    #[test]
    fn bytes_scale_with_message_size() {
        let (inst, alloc) = solve(&[10], &[&[0]], 10, 100);
        let small = Simulation::new(SimConfig {
            message_bytes: 100,
            ..SimConfig::default()
        })
        .run(inst.workload(), &alloc);
        let large = Simulation::new(SimConfig {
            message_bytes: 200,
            ..SimConfig::default()
        })
        .run(inst.workload(), &alloc);
        assert_eq!(
            small.total_bandwidth_bytes() * 2,
            large.total_bandwidth_bytes()
        );
        assert_eq!(
            small.total_bandwidth_events(),
            large.total_bandwidth_events()
        );
    }

    #[test]
    fn unselected_topics_do_not_flow() {
        // τ = 5 with rates {5, 50}: Stage 1 selects only the 5-rate topic.
        let (inst, alloc) = solve(&[5, 50], &[&[0, 1]], 5, 200);
        let report = Simulation::new(SimConfig::default()).run(inst.workload(), &alloc);
        assert_eq!(report.published_events, 5);
        assert_eq!(report.delivered_events[0], 5);
    }

    #[test]
    fn poisson_mode_satisfies_in_expectation() {
        // With rates comfortably above τ, random counts still satisfy.
        let (inst, alloc) = solve(&[200, 100], &[&[0], &[1]], 50, 2_000);
        let report = Simulation::new(SimConfig {
            schedule: ScheduleKind::Poisson { seed: 42 },
            ..SimConfig::default()
        })
        .run(inst.workload(), &alloc);
        assert!(report.all_satisfied(inst.workload(), inst.tau()));
        // Counts near expectation.
        let total: u64 = report.delivered_events.iter().sum();
        assert!((150..=450).contains(&total), "delivered {total}");
    }

    #[test]
    fn replicated_pairs_count_once_for_satisfaction() {
        // Hand-build an allocation with (t0, v0) on two VMs.
        let mut b = Workload::builder();
        let t0 = b.add_topic(Rate::new(10)).unwrap();
        b.add_subscriber([t0]).unwrap();
        let w = b.build();
        let rows = |vs: &[u32]| -> Vec<(TopicId, Vec<SubscriberId>)> {
            vec![(t0, vs.iter().map(|&v| SubscriberId::new(v)).collect())]
        };
        let alloc = Allocation::from_groups(vec![rows(&[0]), rows(&[0])], &w, Bandwidth::new(100));
        let report = Simulation::new(SimConfig::default()).run(&w, &alloc);
        assert_eq!(report.delivered_events[0], 10); // unique
        assert_eq!(report.delivered_copies[0], 20); // both replicas
        assert_eq!(report.total_bandwidth_events(), 40);
    }

    #[test]
    fn meters_carry_per_vm_capacity_and_flag_no_overload_when_valid() {
        let (inst, alloc) = solve(&[20, 10, 5], &[&[0, 1], &[1, 2], &[0, 2]], 15, 100);
        let report = Simulation::new(SimConfig::default()).run(inst.workload(), &alloc);
        for meter in &report.vms {
            assert_eq!(meter.capacity_events, inst.capacity().get());
        }
        // Deterministic replay of a valid allocation never overloads.
        assert_eq!(report.overloaded_vms(), 0);
        assert!(report.peak_utilization().unwrap() <= 1.0);
    }

    #[test]
    fn mixed_fleet_meters_use_each_tier_capacity() {
        use cloud_cost::instances;
        use mcss_core::FleetTyping;
        // Two VMs: t0 (rate 20, one pair → 40 units) on a big tier, t1
        // (rate 10, one pair → 20 units) on a small one.
        let mut b = Workload::builder();
        let t0 = b.add_topic(Rate::new(20)).unwrap();
        let t1 = b.add_topic(Rate::new(10)).unwrap();
        b.add_subscriber([t0, t1]).unwrap();
        let w = b.build();
        let rows = |t: TopicId, vs: &[u32]| -> Vec<(TopicId, Vec<SubscriberId>)> {
            vec![(t, vs.iter().map(|&v| SubscriberId::new(v)).collect())]
        };
        let alloc =
            Allocation::from_groups(vec![rows(t0, &[0]), rows(t1, &[0])], &w, Bandwidth::new(50))
                .with_typing(FleetTyping::new(
                    vec![
                        (instances::C3_LARGE, Bandwidth::new(25)),
                        (instances::C3_XLARGE, Bandwidth::new(50)),
                    ],
                    vec![1, 0],
                ));
        let report = Simulation::new(SimConfig::default()).run(&w, &alloc);
        assert_eq!(report.vms[0].capacity_events, 50);
        assert_eq!(report.vms[1].capacity_events, 25);
        assert_eq!(report.vms[0].utilization(), Some(0.8)); // 40/50
        assert_eq!(report.vms[1].utilization(), Some(0.8)); // 20/25
        assert_eq!(report.overloaded_vms(), 0);
    }

    #[test]
    fn empty_allocation_reports_zeroes() {
        let mut b = Workload::builder();
        b.add_topic(Rate::new(5)).unwrap();
        b.add_subscriber([]).unwrap();
        let w = b.build();
        let alloc = Allocation::from_groups(Vec::new(), &w, Bandwidth::new(10));
        let report = Simulation::new(SimConfig::default()).run(&w, &alloc);
        assert_eq!(report.published_events, 0);
        assert_eq!(report.total_bandwidth_events(), 0);
        assert!(report.all_satisfied(&w, Rate::new(100))); // τ_v = 0
    }
}
