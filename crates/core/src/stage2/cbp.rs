//! CustomBinPacking — Alg. 4 with the incremental optimizations (b)–(e).

use super::{cheaper_to_distribute, Allocator, FleetBuilder};
use crate::{Allocation, McssError, Selection};
use cloud_cost::CostModel;
use pubsub_model::{Bandwidth, Workload};
use std::cmp::Reverse;

/// Which "expensive" metric orders topics for optimization (c).
///
/// Alg. 4 line 3 selects `argmax_t Σ_{(t,v)∈S} ev_t` — the topic's total
/// remaining outgoing volume — while the prose of §III-B says "topics with
/// maximum event rate". Both readings are implemented; the pseudocode's is
/// the default and the ablation bench compares them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExpensiveOrder {
    /// `|pairs| · ev_t` (Alg. 4 line 3).
    #[default]
    TotalVolume,
    /// `ev_t` (§III-B prose).
    Rate,
}

/// Toggles for the incremental optimizations of §III-B / §IV-D.
///
/// Optimization (b) — grouping all pairs of a topic — is CustomBinPacking
/// itself; (c)–(e) stack on top. The presets mirror the bars of
/// Figs. 2–3:
///
/// | Figure bar | Preset |
/// |---|---|
/// | (b) GSP + grouping | [`CbpConfig::grouping_only`] |
/// | (c) + expensive topic first | [`CbpConfig::expensive_first`] |
/// | (d) + most free VM first | [`CbpConfig::most_free`] |
/// | (e) + cost-based decision | [`CbpConfig::full`] |
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CbpConfig {
    /// (c): process topics in decreasing [`ExpensiveOrder`] key instead of
    /// topic-id order.
    pub expensive_topic_first: bool,
    /// The key used when `expensive_topic_first` is set.
    pub expensive_order: ExpensiveOrder,
    /// (d): spill onto the VM with the most free capacity first instead of
    /// scanning first-fit.
    pub most_free_vm_first: bool,
    /// (e): consult [`cheaper_to_distribute`] (Alg. 7) before spilling
    /// onto existing VMs; without it CBP always prefers existing VMs.
    pub cost_based_decision: bool,
    /// Ablation: replace Alg. 7's `⌈|P|·ev/BC⌉` new-VM estimate with the
    /// exact count (see [`cheaper_to_distribute`]).
    pub exact_new_vm_estimate: bool,
}

impl CbpConfig {
    /// Optimization (b) only: grouping by topic.
    pub fn grouping_only() -> Self {
        CbpConfig::default()
    }

    /// Optimizations (b)+(c).
    pub fn expensive_first() -> Self {
        CbpConfig {
            expensive_topic_first: true,
            ..CbpConfig::default()
        }
    }

    /// Optimizations (b)+(c)+(d).
    pub fn most_free() -> Self {
        CbpConfig {
            expensive_topic_first: true,
            most_free_vm_first: true,
            ..CbpConfig::default()
        }
    }

    /// All optimizations (b)+(c)+(d)+(e) — the paper's full solution.
    pub fn full() -> Self {
        CbpConfig {
            expensive_topic_first: true,
            most_free_vm_first: true,
            cost_based_decision: true,
            ..CbpConfig::default()
        }
    }
}

/// The paper's customized bin packing (Alg. 4).
///
/// Topics are placed group-at-a-time: all selected pairs of the current
/// topic try the most recently deployed VM first; if they do not all fit,
/// the remainder spills onto existing VMs (optionally most-free-first,
/// optionally gated by the Alg. 7 cost comparison) and finally onto fresh
/// VMs. Grouping keeps each topic on few VMs — each split VM costs one
/// extra incoming stream — and drops the packing complexity from
/// `O(|S|·|B|)` to `O(|S| + |T| log |T| + k·|B|)`, the speedup of
/// Figs. 6–7. A topic that fits whole on the newest VM records one run
/// of its group, copying no subscriber; only the `k` topics that do not
/// fit pay the `O(|B|)` Alg. 7 estimate and the most-free scan or
/// first-fit sweep. The `|T| log |T|` term is the expensive-first order;
/// two counting sorts and one copy per run then write the [`Allocation`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CustomBinPacking {
    config: CbpConfig,
}

impl CustomBinPacking {
    /// Creates the allocator with the given optimization toggles.
    pub fn new(config: CbpConfig) -> Self {
        CustomBinPacking { config }
    }

    /// The active configuration.
    pub fn config(&self) -> CbpConfig {
        self.config
    }
}

impl Allocator for CustomBinPacking {
    fn name(&self) -> &'static str {
        "CBP"
    }

    fn allocate(
        &self,
        workload: &Workload,
        selection: &Selection,
        capacity: Bandwidth,
        cost: &dyn CostModel,
    ) -> Result<Allocation, McssError> {
        let cfg = self.config;
        // CSR inversion (no hashing, no per-topic Vecs); the processing
        // order is a cached index permutation over the groups.
        let groups = selection.topic_groups(workload);
        // Decreasing key, ties by ascending topic id (the sorts are
        // stable over the id-ordered groups).
        let order: Vec<u32> = match (cfg.expensive_topic_first, cfg.expensive_order) {
            (false, _) => (0..groups.len() as u32).collect(),
            (true, ExpensiveOrder::TotalVolume) => groups.order_by_total_volume(workload),
            (true, ExpensiveOrder::Rate) => {
                let mut order: Vec<u32> = (0..groups.len() as u32).collect();
                order.sort_by_key(|&g| Reverse(workload.rate(groups.topic(g as usize))));
                order
            }
        };

        // The fleet needs at least ⌈Σ_t (|P_t| + 1)·ev_t / BC⌉ VMs, and at
        // most one per pair.
        let volume: Bandwidth = groups
            .iter()
            .map(|(t, vs)| workload.rate(t) * (vs.len() as u64 + 1))
            .sum();
        let vms = volume
            .div_ceil_by(capacity.max(Bandwidth::new(1)))
            .min(groups.pair_count()) as usize;
        let mut fleet = FleetBuilder::with_room(groups.len(), vms);
        // Alg. 7's headroom list, refilled for each spill decision.
        let mut frees: Vec<Bandwidth> = Vec::with_capacity(vms);

        for &g in &order {
            let g = g as usize;
            let topic = groups.topic(g);
            let n = groups.subscribers(g).len();
            let rate = workload.rate(topic);
            if rate.pair_cost() > capacity {
                return Err(McssError::InfeasibleTopic {
                    topic,
                    required: rate.pair_cost(),
                    capacity,
                });
            }
            // Eq. 2: `k` pairs of a topic new to a VM cost `(k + 1)·ev_t`.
            let charge = |k: usize| rate * (k as u64 + 1);

            // Try the most recently deployed VM for the whole group
            // (Alg. 4 line 8's complement).
            let all = u128::from(rate.get()) * (n as u128 + 1);
            if let Some(current) = fleet.used().len().checked_sub(1) {
                if all <= u128::from(fleet.free(current, capacity).get()) {
                    fleet.place(current, g, 0..n, charge(n));
                    continue;
                }
            }

            let mut placed = 0;
            let deployed = fleet.used().len();
            let distribute = if deployed == 0 {
                false
            } else if cfg.cost_based_decision {
                frees.clear();
                frees.extend(fleet.used().iter().map(|&u| capacity.saturating_sub(u)));
                cheaper_to_distribute(
                    &mut frees,
                    capacity,
                    rate,
                    n as u64,
                    deployed,
                    fleet.used().iter().copied().sum(),
                    cost,
                    cfg.exact_new_vm_estimate,
                )
            } else {
                true // without (e), existing VMs are always preferred
            };

            if distribute {
                // Most free VM first, or first fit in deployment order.
                let mut sweep = 0..deployed;
                while placed < n {
                    let next = if cfg.most_free_vm_first {
                        fleet.most_free(capacity)
                    } else {
                        sweep.next()
                    };
                    let Some(vm) = next else {
                        break;
                    };
                    let free = fleet.free(vm, capacity);
                    if free < rate.pair_cost() {
                        if cfg.most_free_vm_first {
                            break; // the largest headroom cannot take a first pair
                        }
                        continue;
                    }
                    let take = (free.div_rate(rate) as usize - 1).min(n - placed);
                    fleet.place(vm, g, placed..placed + take, charge(take));
                    placed += take;
                }
            }

            // Fresh VMs for whatever is left (Alg. 4 lines 15–20).
            while placed < n {
                let vm = fleet.open();
                let fit = capacity.div_rate(rate) - 1; // ≥ 1 by feasibility
                let take = (fit as usize).min(n - placed);
                fleet.place(vm, g, placed..placed + take, charge(take));
                placed += take;
            }
        }

        Ok(fleet.finish_groups(&groups, capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage2::FirstFitBinPacking;
    use cloud_cost::{LinearCostModel, Money};
    use pubsub_model::{Rate, TopicId, Workload};

    fn nocost() -> LinearCostModel {
        LinearCostModel::new(Money::ZERO, Money::ZERO)
    }

    fn workload(rates: &[u64], interests: &[&[u32]]) -> Workload {
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

    fn select_all(w: &Workload) -> Selection {
        Selection::from_per_subscriber(w.subscribers().map(|v| w.interests(v).to_vec()).collect())
    }

    fn cbp(cfg: CbpConfig) -> CustomBinPacking {
        CustomBinPacking::new(cfg)
    }

    #[test]
    fn groups_topic_pairs_on_one_vm() {
        // Fig. 1c/1d versus 1b: grouping keeps both pairs of the topic
        // together, paying incoming once.
        let w = workload(&[10], &[&[0], &[0]]);
        let a = cbp(CbpConfig::grouping_only())
            .allocate(&w, &select_all(&w), Bandwidth::new(30), &nocost())
            .unwrap();
        assert_eq!(a.vm_count(), 1);
        assert_eq!(a.incoming_volume(&w), Bandwidth::new(10));
        // FFBP at the same capacity also manages one VM here; tighten:
        let tight = cbp(CbpConfig::grouping_only())
            .allocate(&w, &select_all(&w), Bandwidth::new(30), &nocost())
            .unwrap();
        assert!(tight.validate(&w, Rate::new(10)).is_ok());
    }

    #[test]
    fn expensive_first_changes_processing_order() {
        // Two topics: t0 rate 2 with 1 pair (volume 2), t1 rate 1 with 10
        // pairs (volume 10). TotalVolume order processes t1 first; Rate
        // order processes t0 first. Capacity fits everything in one VM, so
        // observe through which topic lands on VM0 first: both land on
        // vm0; instead use tight capacity to see different VM counts.
        let w = workload(
            &[2, 1],
            &[
                &[0, 1],
                &[1],
                &[1],
                &[1],
                &[1],
                &[1],
                &[1],
                &[1],
                &[1],
                &[1],
            ],
        );
        let sel = select_all(&w);
        let by_volume = cbp(CbpConfig {
            expensive_topic_first: true,
            expensive_order: ExpensiveOrder::TotalVolume,
            ..CbpConfig::default()
        })
        .allocate(&w, &sel, Bandwidth::new(12), &nocost())
        .unwrap();
        let by_rate = cbp(CbpConfig {
            expensive_topic_first: true,
            expensive_order: ExpensiveOrder::Rate,
            ..CbpConfig::default()
        })
        .allocate(&w, &sel, Bandwidth::new(12), &nocost())
        .unwrap();
        // Both valid; volume ordering fills VM0 with t1's 10 pairs
        // (11 units of 12), leaving no room for t0 (needs 4); rate
        // ordering places t0 on VM0 first.
        assert!(by_volume.validate(&w, Rate::new(100)).is_ok());
        assert!(by_rate.validate(&w, Rate::new(100)).is_ok());
        assert_eq!(by_volume.vm(0).pair_count(), 10);
        assert!(by_volume.vm(0).rows().all(|(t, _)| t == TopicId::new(1)));
        assert!(by_rate.vm(0).rows().any(|(t, _)| t == TopicId::new(0)));
    }

    #[test]
    fn paper_worked_example_fig1() {
        // Fig. 1: t1 = 20 KB/min, t2 = 10, pairs (t1,v1),(t1,v2),(t2,v1),
        // (t2,v2),(t2,v3); two VMs pre-loaded to 30 and 50 KB/min free.
        // FFBP splits topics (80 KB/min total); CBP with expensive-first +
        // most-free keeps each topic whole (50 KB/min total). We model the
        // pre-loading with a filler topic per VM.
        //
        // Capacity 110: VM A filler uses 80 => 30 free; VM B filler uses
        // 60 => 50 free. Our allocators deploy VMs on demand rather than
        // accept pre-loaded ones, so emulate by capacity choice: run CBP
        // on just the five pairs with capacity 50 — expensive topic t1
        // (2 pairs + incoming = 60 > 50) splits... choose capacity 70:
        // t1 whole (3·20=60 ≤ 70), then t2 (4·10=40) fits beside? 60+40 >
        // 70, so t2 opens VM2 whole. Total bw = 60 + 40 = 100 vs FFBP's
        // pair-ordered scatter.
        let w = workload(&[20, 10], &[&[0, 1], &[0, 1], &[1]]);
        let sel = select_all(&w);
        let cap = Bandwidth::new(70);
        let custom = cbp(CbpConfig::most_free())
            .allocate(&w, &sel, cap, &nocost())
            .unwrap();
        let ff = FirstFitBinPacking::new()
            .allocate(&w, &sel, cap, &nocost())
            .unwrap();
        assert!(custom.total_bandwidth() <= ff.total_bandwidth());
        // CBP: each topic's incoming paid once.
        assert_eq!(custom.incoming_volume(&w), Bandwidth::new(30));
        assert!(custom.validate(&w, Rate::new(30)).is_ok());
    }

    #[test]
    fn most_free_spill_targets_emptiest_vm() {
        // Three topics sized to leave VM0 nearly full and VM1 roomy, then
        // a topic that must spill: it should land on the roomier VM,
        // minimizing splits.
        let w = workload(
            &[40, 20, 10],
            &[&[0], &[1], &[2], &[2], &[2], &[2], &[2], &[2], &[2], &[2]],
        );
        let sel = select_all(&w);
        // Capacity 90. Volume order: t2 total 80, t0 80, t1 40.
        let a = cbp(CbpConfig::most_free())
            .allocate(&w, &sel, Bandwidth::new(90), &nocost())
            .unwrap();
        assert!(a.validate(&w, Rate::new(1000)).is_ok());
        for vm in a.vms() {
            assert!(vm.used() <= Bandwidth::new(90));
        }
    }

    #[test]
    fn cost_based_decision_can_refuse_to_split() {
        // One pair of an expensive topic (rate 30) remains; existing VMs
        // have headroom for it (60 needed) only by splitting? Craft:
        // bandwidth pricey, VMs cheap — Alg. 7 chooses new VMs even
        // though spilling is feasible.
        let pricey_bw = LinearCostModel::new(Money::from_micros(1), Money::from_dollars(5));
        let w = workload(&[10, 10, 3], &[&[0], &[1], &[2], &[2], &[2], &[2]]);
        let sel = select_all(&w);
        let cap = Bandwidth::new(40);
        let with_e = cbp(CbpConfig::full())
            .allocate(&w, &sel, cap, &pricey_bw)
            .unwrap();
        let without_e = cbp(CbpConfig::most_free())
            .allocate(&w, &sel, cap, &pricey_bw)
            .unwrap();
        assert!(with_e.validate(&w, Rate::new(100)).is_ok());
        assert!(without_e.validate(&w, Rate::new(100)).is_ok());
        // With (e), total cost never exceeds the (d)-only packing under
        // the model it optimizes for.
        assert!(with_e.cost(&pricey_bw) <= without_e.cost(&pricey_bw));
    }

    #[test]
    fn single_topic_spanning_many_vms() {
        // 25 pairs of rate 10, capacity 40 → 3 pairs per VM ((40/10)-1),
        // 9 VMs, first 8 full with 3, last with 1.
        let interests: Vec<&[u32]> = (0..25).map(|_| &[0u32][..]).collect();
        let w = workload(&[10], &interests);
        let sel = select_all(&w);
        let a = cbp(CbpConfig::full())
            .allocate(&w, &sel, Bandwidth::new(40), &nocost())
            .unwrap();
        assert_eq!(a.vm_count(), 9);
        assert_eq!(a.pair_count(), 25);
        assert!(a.validate(&w, Rate::new(10)).is_ok());
    }

    #[test]
    fn infeasible_topic_reported() {
        let w = workload(&[50], &[&[0]]);
        let err = cbp(CbpConfig::full())
            .allocate(&w, &select_all(&w), Bandwidth::new(99), &nocost())
            .unwrap_err();
        assert!(matches!(err, McssError::InfeasibleTopic { .. }));
    }

    #[test]
    fn all_presets_preserve_pairs_and_capacity() {
        let rates: Vec<u64> = (1..=20).map(|i| i * 3).collect();
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = rates
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        for vi in 0..30u32 {
            let tv: Vec<TopicId> = ts
                .iter()
                .copied()
                .filter(|t| (t.raw() * 7 + vi) % 3 != 0)
                .collect();
            b.add_subscriber(tv).unwrap();
        }
        let w = b.build();
        let sel = select_all(&w);
        let cap = Bandwidth::new(400);
        let cost = LinearCostModel::new(Money::from_dollars(1), Money::from_micros(2));
        for cfg in [
            CbpConfig::grouping_only(),
            CbpConfig::expensive_first(),
            CbpConfig::most_free(),
            CbpConfig::full(),
        ] {
            let a = cbp(cfg).allocate(&w, &sel, cap, &cost).unwrap();
            assert_eq!(a.pair_count(), sel.pair_count());
            a.validate(&w, Rate::new(u64::MAX))
                .expect("valid under every preset");
        }
    }

    #[test]
    fn empty_selection_is_empty_allocation() {
        let w = workload(&[5], &[&[0]]);
        let empty = Selection::from_per_subscriber(vec![Vec::new()]);
        let a = cbp(CbpConfig::full())
            .allocate(&w, &empty, Bandwidth::new(100), &nocost())
            .unwrap();
        assert_eq!(a.vm_count(), 0);
    }
}
