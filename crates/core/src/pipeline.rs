//! The end-to-end two-stage solver pipeline with timing and reporting.

use crate::stage1::{
    GreedySelectPairs, OptimalSelectPairs, PairSelector, RandomSelectPairs, SharedAwareGreedy,
};
use crate::stage2::{
    improve, improve_mixed, mixed_cost_split, Allocator, CbpConfig, CustomBinPacking,
    FfdBinPacking, FirstFitBinPacking, ImproveReport, MixedFleetPacker, SearchBudget,
};
use crate::{lower_bound, Allocation, McssError, McssInstance, Selection};
use cloud_cost::{CostModel, FleetCostModel, Money};
use pubsub_model::Bandwidth;
use std::fmt;
use std::time::{Duration, Instant};

/// Which Stage-1 selector the pipeline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectorKind {
    /// GreedySelectPairs (Alg. 2).
    Greedy,
    /// GreedySelectPairs parallelized over subscribers.
    GreedyParallel {
        /// Number of worker threads.
        threads: usize,
    },
    /// RandomSelectPairs (Alg. 6) with a shuffle seed.
    Random {
        /// Shuffle seed.
        seed: u64,
    },
    /// Per-subscriber covering-knapsack optimum (budgeted).
    Optimal,
    /// Shared-incoming-aware greedy (extension).
    SharedAware,
}

impl SelectorKind {
    pub(crate) fn build(&self) -> Box<dyn PairSelector> {
        match *self {
            SelectorKind::Greedy => Box::new(GreedySelectPairs::new()),
            SelectorKind::GreedyParallel { threads } => {
                Box::new(GreedySelectPairs::with_threads(threads))
            }
            SelectorKind::Random { seed } => Box::new(RandomSelectPairs::new(seed)),
            SelectorKind::Optimal => Box::new(OptimalSelectPairs::new()),
            SelectorKind::SharedAware => Box::new(SharedAwareGreedy::new()),
        }
    }

    /// The short report name of the selector this kind builds.
    pub fn name(&self) -> &'static str {
        match self {
            SelectorKind::Greedy | SelectorKind::GreedyParallel { .. } => "GSP",
            SelectorKind::Random { .. } => "RSP",
            SelectorKind::Optimal => "OPT1",
            SelectorKind::SharedAware => "GSP-shared",
        }
    }
}

/// Which Stage-2 allocator the pipeline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocatorKind {
    /// FFBinPacking (Alg. 3).
    FirstFit,
    /// FFD over whole topic groups — the Dósa-bounded reference baseline.
    FirstFitDecreasing,
    /// CustomBinPacking (Alg. 4) with explicit optimization toggles.
    Custom(CbpConfig),
}

impl AllocatorKind {
    /// CBP with every optimization enabled — the paper's full solution.
    pub fn custom_full() -> Self {
        AllocatorKind::Custom(CbpConfig::full())
    }

    pub(crate) fn build(&self) -> Box<dyn Allocator> {
        match *self {
            AllocatorKind::FirstFit => Box::new(FirstFitBinPacking::new()),
            AllocatorKind::FirstFitDecreasing => Box::new(FfdBinPacking::new()),
            AllocatorKind::Custom(cfg) => Box::new(CustomBinPacking::new(cfg)),
        }
    }

    /// The short report name of the allocator this kind builds.
    pub fn name(&self) -> &'static str {
        match self {
            AllocatorKind::FirstFit => "FFBP",
            AllocatorKind::FirstFitDecreasing => "FFD",
            AllocatorKind::Custom(_) => "CBP",
        }
    }
}

/// Pipeline configuration: one selector, one allocator, and an optional
/// refinement budget.
#[derive(Clone, Copy, Debug)]
pub struct SolverParams {
    /// Stage-1 algorithm.
    pub selector: SelectorKind,
    /// Stage-2 algorithm.
    pub allocator: AllocatorKind,
    /// When set, Stage 2's output is post-processed by the anytime
    /// improvement engine ([`stage2::improve`](crate::stage2::improve))
    /// under this budget, stopping early at the Alg. 5 lower-bound
    /// certificate; `None` skips refinement (the classic pipeline).
    pub refine: Option<SearchBudget>,
}

impl SolverParams {
    /// Returns these parameters with an anytime refinement budget.
    pub fn with_refinement(mut self, budget: SearchBudget) -> Self {
        self.refine = Some(budget);
        self
    }
}

impl Default for SolverParams {
    /// The paper's recommended combination: GSP + fully-optimized CBP.
    fn default() -> Self {
        SolverParams {
            selector: SelectorKind::Greedy,
            allocator: AllocatorKind::custom_full(),
            refine: None,
        }
    }
}

/// The two-stage MCSS solver.
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Clone, Copy, Debug, Default)]
pub struct Solver {
    params: SolverParams,
}

/// Everything `solve` produces: the allocation, the Stage-1 selection it
/// packed, and the metrics report.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// The VM allocation (Stage-2 output), refined when
    /// [`SolverParams::refine`] is set.
    pub allocation: Allocation,
    /// The pair selection (Stage-1 output).
    pub selection: Selection,
    /// Metrics, costs, timings, and the Alg. 5 lower bound.
    pub report: SolveReport,
    /// What the anytime refinement did; `None` when
    /// [`SolverParams::refine`] is unset.
    pub refinement: Option<ImproveReport>,
}

/// Metrics of one pipeline run — the quantities plotted in Figs. 2–7.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Stage-1 algorithm name.
    pub selector: &'static str,
    /// Stage-2 algorithm name.
    pub allocator: &'static str,
    /// `|S|` — pairs selected.
    pub pairs_selected: u64,
    /// VMs deployed `|B|`.
    pub vm_count: usize,
    /// `Σ_b bw_b`.
    pub total_bandwidth: Bandwidth,
    /// Outgoing share of the bandwidth.
    pub outgoing: Bandwidth,
    /// Incoming share (replicated per VM hosting each topic).
    pub incoming: Bandwidth,
    /// `C1(|B|)`.
    pub vm_cost: Money,
    /// `C2(Σ bw)`.
    pub bandwidth_cost: Money,
    /// The objective `C1 + C2`.
    pub total_cost: Money,
    /// Alg. 5 bound on VMs.
    pub lower_bound_vms: u64,
    /// Alg. 5 bound on volume.
    pub lower_bound_volume: Bandwidth,
    /// Alg. 5 bound on cost.
    pub lower_bound_cost: Money,
    /// Wall-clock time of Stage 1.
    pub stage1_time: Duration,
    /// Wall-clock time of Stage 2.
    pub stage2_time: Duration,
}

impl SolveReport {
    /// Ratio of achieved cost to the lower bound (≥ 1.0; the paper reports
    /// "only 15% worse than the lower bound in many cases", i.e. ≈ 1.15).
    pub fn optimality_gap(&self) -> f64 {
        let lb = self.lower_bound_cost.micros();
        if lb <= 0 {
            return 1.0;
        }
        self.total_cost.micros() as f64 / lb as f64
    }
}

impl fmt::Display for SolveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pipeline:        {} + {}", self.selector, self.allocator)?;
        writeln!(f, "pairs selected:  {}", self.pairs_selected)?;
        writeln!(
            f,
            "VMs:             {} (lower bound {})",
            self.vm_count, self.lower_bound_vms
        )?;
        writeln!(
            f,
            "bandwidth:       {} (out {}, in {}; lower bound {})",
            self.total_bandwidth, self.outgoing, self.incoming, self.lower_bound_volume
        )?;
        writeln!(
            f,
            "cost:            {} = {} VMs + {} bandwidth (lower bound {}, gap {:.2}x)",
            self.total_cost,
            self.vm_cost,
            self.bandwidth_cost,
            self.lower_bound_cost,
            self.optimality_gap()
        )?;
        write!(
            f,
            "time:            stage1 {:.3}s, stage2 {:.3}s",
            self.stage1_time.as_secs_f64(),
            self.stage2_time.as_secs_f64()
        )
    }
}

/// Everything [`Solver::solve_mixed`] produces: the typed allocation, the
/// Stage-1 selection, and the mixed-fleet metrics.
#[derive(Clone, Debug)]
pub struct MixedSolveOutcome {
    /// The mixed-fleet allocation; always carries a
    /// [`FleetTyping`](crate::FleetTyping).
    pub allocation: Allocation,
    /// The pair selection (identical to what any homogeneous solve of the
    /// same `τ` selects — Stage 1 never reads capacities).
    pub selection: Selection,
    /// Metrics of the mixed solve.
    pub report: MixedSolveReport,
    /// What the anytime refinement did; `None` when
    /// [`SolverParams::refine`] is unset.
    pub refinement: Option<ImproveReport>,
}

/// Metrics of one mixed-fleet solve.
#[derive(Clone, Debug)]
pub struct MixedSolveReport {
    /// Stage-1 algorithm name.
    pub selector: &'static str,
    /// `|S|` — pairs selected.
    pub pairs_selected: u64,
    /// VMs per tier: `(instance name, count)`, density order, zero-count
    /// tiers included.
    pub tier_counts: Vec<(&'static str, usize)>,
    /// Total VMs across tiers.
    pub vm_count: usize,
    /// `Σ_b bw_b`.
    pub total_bandwidth: Bandwidth,
    /// `Σ_i C1_i(n_i)` — per-tier VM rental.
    pub vm_cost: Money,
    /// `C2(Σ bw)`.
    pub bandwidth_cost: Money,
    /// The mixed objective `Σ_i C1_i(n_i) + C2(Σ bw)`.
    pub total_cost: Money,
    /// Human-readable fleet mix, e.g. `"3×c3.large + 1×c3.xlarge"`.
    pub mix: String,
    /// Alg. 5 bound on VMs (at the fleet-wide `max_capacity`).
    pub lower_bound_vms: u64,
    /// Alg. 5 bound on volume.
    pub lower_bound_volume: Bandwidth,
    /// Mixed-fleet bound on cost
    /// ([`LowerBound::cost_on_fleet`](crate::LowerBound::cost_on_fleet)).
    pub lower_bound_cost: Money,
    /// Wall-clock time of Stage 1.
    pub stage1_time: Duration,
    /// Wall-clock time of Stage 2.
    pub stage2_time: Duration,
}

impl MixedSolveReport {
    /// Ratio of achieved cost to the mixed-fleet lower bound (≥ 1.0).
    pub fn optimality_gap(&self) -> f64 {
        let lb = self.lower_bound_cost.micros();
        if lb <= 0 {
            return 1.0;
        }
        self.total_cost.micros() as f64 / lb as f64
    }
}

impl fmt::Display for MixedSolveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline:        {} + mixed-fleet packing",
            self.selector
        )?;
        writeln!(f, "pairs selected:  {}", self.pairs_selected)?;
        writeln!(f, "fleet:           {} VMs ({})", self.vm_count, self.mix)?;
        writeln!(
            f,
            "bandwidth:       {} (lower bound {})",
            self.total_bandwidth, self.lower_bound_volume
        )?;
        writeln!(
            f,
            "cost:            {} = {} VMs + {} bandwidth (lower bound {}, gap {:.2}x)",
            self.total_cost,
            self.vm_cost,
            self.bandwidth_cost,
            self.lower_bound_cost,
            self.optimality_gap()
        )?;
        write!(
            f,
            "time:            stage1 {:.3}s, stage2 {:.3}s",
            self.stage1_time.as_secs_f64(),
            self.stage2_time.as_secs_f64()
        )
    }
}

impl Solver {
    /// Creates a solver with the given parameters.
    pub fn new(params: SolverParams) -> Self {
        Solver { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> SolverParams {
        self.params
    }

    /// Runs Stage 1 then Stage 2, validates nothing (callers validate via
    /// [`Allocation::validate`]), and reports metrics including the Alg. 5
    /// lower bound.
    ///
    /// ```
    /// use cloud_cost::{instances, Ec2CostModel};
    /// use mcss_core::{McssInstance, Solver};
    /// use pubsub_model::{Rate, Workload};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = Workload::builder();
    /// let t = b.add_topic(Rate::new(20))?;
    /// b.add_subscriber([t])?;
    /// let cost = Ec2CostModel::paper_default(instances::C3_LARGE);
    /// let instance = McssInstance::new(b.build(), Rate::new(10), cost.capacity())?;
    ///
    /// let outcome = Solver::default().solve(&instance, &cost)?;
    /// outcome.allocation.validate(instance.workload(), instance.tau())?;
    /// assert_eq!(outcome.report.total_cost,
    ///            outcome.report.vm_cost + outcome.report.bandwidth_cost);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates selector and allocator errors ([`McssError`]).
    pub fn solve(
        &self,
        instance: &McssInstance,
        cost: &dyn CostModel,
    ) -> Result<SolveOutcome, McssError> {
        let selector = self.params.selector.build();
        let allocator = self.params.allocator.build();
        let workload = instance.workload();

        let t0 = Instant::now();
        let selection = selector.select(instance)?;
        let stage1_time = t0.elapsed();

        let t1 = Instant::now();
        let allocation = allocator.allocate(workload, &selection, instance.capacity(), cost)?;
        let stage2_time = t1.elapsed();
        let lb = lower_bound(workload, instance.tau(), instance.capacity());
        let (allocation, refinement) = match self.params.refine {
            Some(budget) => {
                let (refined, report) = improve(allocation, workload, cost, lb.cost(cost), budget);
                (refined, Some(report))
            }
            None => (allocation, None),
        };

        let total_bandwidth = allocation.total_bandwidth();
        let vm_cost = cost.vm_cost(allocation.vm_count());
        let bandwidth_cost = cost.bandwidth_cost(total_bandwidth);
        let report = SolveReport {
            selector: self.params.selector.name(),
            allocator: self.params.allocator.name(),
            pairs_selected: selection.pair_count(),
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
            stage1_time,
            stage2_time,
        };
        Ok(SolveOutcome {
            allocation,
            selection,
            report,
            refinement,
        })
    }

    /// Runs Stage 1 with the configured selector, then packs onto a
    /// **heterogeneous fleet** through
    /// [`MixedFleetPacker`](crate::stage2::MixedFleetPacker). The
    /// instance's capacity should be [`FleetCostModel::max_capacity`]
    /// (the fleet-wide feasibility bound); the allocator parameter is
    /// ignored — mixed packing is always CBP-derived.
    ///
    /// The returned fleet never costs more than the best homogeneous
    /// fleet over the same selection (the packer keeps a
    /// downsized-homogeneous candidate per tier and returns the cheapest),
    /// and satisfaction is identical — Stage 1 never reads capacities, so
    /// the selection is the same one a homogeneous solve places.
    ///
    /// ```
    /// use cloud_cost::{instances, Ec2CostModel, FleetCostModel};
    /// use mcss_core::{McssInstance, Solver};
    /// use pubsub_model::{Rate, Workload};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = Workload::builder();
    /// let news = b.add_topic(Rate::new(20))?;
    /// let music = b.add_topic(Rate::new(10))?;
    /// b.add_subscriber([news, music])?;
    /// b.add_subscriber([music])?;
    /// let fleet = FleetCostModel::new(vec![
    ///     Ec2CostModel::paper_default(instances::C3_LARGE).with_capacity_events(60),
    ///     Ec2CostModel::paper_default(instances::C3_XLARGE).with_capacity_events(120),
    /// ]);
    /// let instance = McssInstance::new(b.build(), Rate::new(15), fleet.max_capacity())?;
    /// let outcome = Solver::default().solve_mixed(&instance, &fleet)?;
    /// assert!(outcome.allocation.typing().is_some());
    /// assert_eq!(outcome.report.total_cost,
    ///            outcome.allocation.cost_on_fleet(&fleet));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates selector errors and
    /// [`McssError::InfeasibleTopic`] when a selected topic exceeds even
    /// the largest tier.
    pub fn solve_mixed(
        &self,
        instance: &McssInstance,
        fleet: &FleetCostModel,
    ) -> Result<MixedSolveOutcome, McssError> {
        let selector = self.params.selector.build();
        let workload = instance.workload();

        let t0 = Instant::now();
        let selection = selector.select(instance)?;
        let stage1_time = t0.elapsed();

        let t1 = Instant::now();
        let allocation = MixedFleetPacker::new().allocate(workload, &selection, fleet)?;
        let stage2_time = t1.elapsed();

        let lb = lower_bound(workload, instance.tau(), fleet.max_capacity());
        let (allocation, refinement) = match self.params.refine {
            Some(budget) => {
                let (refined, report) =
                    improve_mixed(allocation, workload, fleet, lb.cost_on_fleet(fleet), budget);
                (refined, Some(report))
            }
            None => (allocation, None),
        };

        let typing = allocation.typing().expect("mixed output is always typed");
        let tier_counts: Vec<(&'static str, usize)> = typing
            .tiers()
            .iter()
            .zip(typing.tier_counts())
            .map(|((ty, _), n)| (ty.name(), n))
            .collect();
        let (vm_cost, bandwidth_cost) = mixed_cost_split(&allocation, fleet);
        let report = MixedSolveReport {
            selector: self.params.selector.name(),
            pairs_selected: selection.pair_count(),
            vm_count: allocation.vm_count(),
            total_bandwidth: allocation.total_bandwidth(),
            vm_cost,
            bandwidth_cost,
            total_cost: vm_cost + bandwidth_cost,
            mix: typing.mix(),
            tier_counts,
            lower_bound_vms: lb.vms,
            lower_bound_volume: lb.volume,
            lower_bound_cost: lb.cost_on_fleet(fleet),
            stage1_time,
            stage2_time,
        };
        Ok(MixedSolveOutcome {
            allocation,
            selection,
            report,
            refinement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_cost::LinearCostModel;
    use pubsub_model::{Rate, TopicId, Workload};

    fn instance() -> McssInstance {
        let mut b = Workload::builder();
        let ts: Vec<TopicId> = [30u64, 18, 12, 7, 4, 2]
            .iter()
            .map(|&r| b.add_topic(Rate::new(r)).unwrap())
            .collect();
        b.add_subscriber([ts[0], ts[1], ts[2]]).unwrap();
        b.add_subscriber([ts[1], ts[3], ts[4]]).unwrap();
        b.add_subscriber([ts[2], ts[4], ts[5]]).unwrap();
        b.add_subscriber([ts[0], ts[5]]).unwrap();
        McssInstance::new(b.build(), Rate::new(16), Bandwidth::new(90)).unwrap()
    }

    fn cost() -> LinearCostModel {
        LinearCostModel::new(Money::from_dollars(3), Money::from_micros(10))
    }

    #[test]
    fn default_pipeline_solves_and_validates() {
        let inst = instance();
        let outcome = Solver::default().solve(&inst, &cost()).unwrap();
        outcome
            .allocation
            .validate(inst.workload(), inst.tau())
            .unwrap();
        assert_eq!(outcome.report.selector, "GSP");
        assert_eq!(outcome.report.allocator, "CBP");
        assert!(outcome.report.vm_count >= 1);
        assert_eq!(
            outcome.report.total_cost,
            outcome.report.vm_cost + outcome.report.bandwidth_cost
        );
    }

    #[test]
    fn report_costs_are_consistent_with_allocation() {
        let inst = instance();
        let outcome = Solver::default().solve(&inst, &cost()).unwrap();
        assert_eq!(outcome.report.total_cost, outcome.allocation.cost(&cost()));
        assert_eq!(
            outcome.report.total_bandwidth,
            outcome.report.outgoing + outcome.report.incoming
        );
    }

    #[test]
    fn lower_bound_never_above_any_pipeline() {
        let inst = instance();
        let pipelines = [
            SolverParams {
                selector: SelectorKind::Greedy,
                allocator: AllocatorKind::FirstFit,
                ..SolverParams::default()
            },
            SolverParams {
                selector: SelectorKind::Random { seed: 3 },
                allocator: AllocatorKind::FirstFit,
                ..SolverParams::default()
            },
            SolverParams {
                selector: SelectorKind::Greedy,
                allocator: AllocatorKind::Custom(CbpConfig::grouping_only()),
                ..SolverParams::default()
            },
            SolverParams::default(),
            SolverParams {
                selector: SelectorKind::SharedAware,
                allocator: AllocatorKind::custom_full(),
                ..SolverParams::default()
            },
        ];
        for p in pipelines {
            let outcome = Solver::new(p).solve(&inst, &cost()).unwrap();
            assert!(
                outcome.report.total_cost >= outcome.report.lower_bound_cost,
                "{:?} beat the bound",
                p
            );
            assert!(outcome.report.optimality_gap() >= 1.0);
            outcome
                .allocation
                .validate(inst.workload(), inst.tau())
                .unwrap();
        }
    }

    #[test]
    fn greedy_beats_random_on_average() {
        // The paper's headline: GSP+CBP cheaper than RSP+FFBP. A single
        // lucky shuffle can win on a tiny instance, so compare against
        // the seed-averaged naive cost.
        let inst = instance();
        let good = Solver::default().solve(&inst, &cost()).unwrap();
        let naive_avg: f64 = (0..16)
            .map(|seed| {
                Solver::new(SolverParams {
                    selector: SelectorKind::Random { seed },
                    allocator: AllocatorKind::FirstFit,
                    ..SolverParams::default()
                })
                .solve(&inst, &cost())
                .unwrap()
                .report
                .total_cost
                .micros() as f64
            })
            .sum::<f64>()
            / 16.0;
        assert!(
            good.report.total_cost.micros() as f64 <= naive_avg,
            "GSP+CBP {} vs average RSP+FFBP {naive_avg}",
            good.report.total_cost
        );
    }

    #[test]
    fn parallel_greedy_matches_sequential() {
        let inst = instance();
        let seq = Solver::new(SolverParams {
            selector: SelectorKind::Greedy,
            allocator: AllocatorKind::custom_full(),
            ..SolverParams::default()
        })
        .solve(&inst, &cost())
        .unwrap();
        let par = Solver::new(SolverParams {
            selector: SelectorKind::GreedyParallel { threads: 3 },
            allocator: AllocatorKind::custom_full(),
            ..SolverParams::default()
        })
        .solve(&inst, &cost())
        .unwrap();
        assert_eq!(seq.selection, par.selection);
        assert_eq!(seq.allocation, par.allocation);
    }

    #[test]
    fn kind_names_match_built_implementations() {
        for kind in [
            SelectorKind::Greedy,
            SelectorKind::GreedyParallel { threads: 2 },
            SelectorKind::Random { seed: 1 },
            SelectorKind::Optimal,
            SelectorKind::SharedAware,
        ] {
            assert_eq!(kind.name(), kind.build().name());
        }
        for kind in [
            AllocatorKind::FirstFit,
            AllocatorKind::FirstFitDecreasing,
            AllocatorKind::custom_full(),
        ] {
            assert_eq!(kind.name(), kind.build().name());
        }
    }

    #[test]
    fn solve_mixed_is_typed_consistent_and_never_worse_than_homogeneous() {
        use cloud_cost::{Ec2CostModel, FleetCostModel, InstanceType};
        let inst0 = instance();
        let fleet = FleetCostModel::new(vec![
            Ec2CostModel::paper_default(InstanceType::new("tiny", 150_000, 64))
                .with_capacity_events(90),
            Ec2CostModel::paper_default(InstanceType::new("big", 290_000, 128))
                .with_capacity_events(180),
        ]);
        let inst = McssInstance::new(
            std::sync::Arc::clone(&inst0.workload_arc()),
            inst0.tau(),
            fleet.max_capacity(),
        )
        .unwrap();
        let mixed = Solver::default().solve_mixed(&inst, &fleet).unwrap();
        mixed
            .allocation
            .validate(inst.workload(), inst.tau())
            .unwrap();
        assert_eq!(
            mixed.report.total_cost,
            mixed.allocation.cost_on_fleet(&fleet)
        );
        assert_eq!(
            mixed.report.vm_count,
            mixed
                .report
                .tier_counts
                .iter()
                .map(|(_, n)| n)
                .sum::<usize>()
        );
        // Same selection as any homogeneous solve of the same τ.
        for tier in 0..fleet.tier_count() {
            let homog_inst = inst.with_capacity(fleet.capacity(tier)).unwrap();
            let homog = Solver::default()
                .solve(&homog_inst, fleet.tier(tier))
                .unwrap();
            assert_eq!(mixed.selection, homog.selection);
            assert!(
                mixed.report.total_cost <= homog.report.total_cost,
                "mixed {} beat by tier {tier} at {}",
                mixed.report.total_cost,
                homog.report.total_cost
            );
        }
        let text = mixed.report.to_string();
        assert!(text.contains("mixed-fleet"));
        assert!(text.contains("VMs"));
    }

    #[test]
    fn refinement_never_raises_cost_and_is_deterministic() {
        let inst = instance();
        let base = Solver::default().solve(&inst, &cost()).unwrap();
        let params = SolverParams::default().with_refinement(SearchBudget::UNBOUNDED);
        let a = Solver::new(params).solve(&inst, &cost()).unwrap();
        let b = Solver::new(params).solve(&inst, &cost()).unwrap();
        assert!(a.report.total_cost <= base.report.total_cost);
        assert!(a.report.total_cost >= a.report.lower_bound_cost);
        assert_eq!(
            a.allocation, b.allocation,
            "refinement must be deterministic"
        );
        a.allocation.validate(inst.workload(), inst.tau()).unwrap();
        let refinement = a.refinement.expect("refine was requested");
        assert_eq!(refinement.final_cost, a.report.total_cost);
        assert!(refinement.final_cost <= refinement.initial_cost);
    }

    #[test]
    fn zero_step_budget_is_a_no_op_refinement() {
        let inst = instance();
        let base = Solver::default().solve(&inst, &cost()).unwrap();
        let params = SolverParams::default().with_refinement(SearchBudget::steps(0));
        let frozen = Solver::new(params).solve(&inst, &cost()).unwrap();
        assert_eq!(base.allocation, frozen.allocation);
        assert_eq!(frozen.refinement.expect("refine was requested").steps, 0);
    }

    #[test]
    fn report_display_mentions_key_metrics() {
        let inst = instance();
        let outcome = Solver::default().solve(&inst, &cost()).unwrap();
        let text = outcome.report.to_string();
        assert!(text.contains("GSP"));
        assert!(text.contains("VMs"));
        assert!(text.contains("lower bound"));
    }
}
