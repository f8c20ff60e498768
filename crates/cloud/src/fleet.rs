//! Heterogeneous fleets: several instance types priced side by side.
//!
//! The paper's Stage-2 packs onto a *homogeneous* fleet — one instance
//! type, one capacity `BC` — and evaluates c3.large against c3.xlarge as
//! separate deployments (Figs. 2a/2b). Real deployments mix sizes: a few
//! large VMs absorb the loud topics while small VMs mop up the tail at a
//! better price per idle unit. [`FleetCostModel`] is the pricing substrate
//! for that scenario: an ordered catalogue of [`Ec2CostModel`] *tiers*
//! sharing one bandwidth price, ranked by **cost density** (window price
//! per event-unit of capacity, cheapest first), so a packer can ask "what
//! is the cheapest tier that fits this load?" and a report can price a
//! fleet with per-VM types.
//!
//! ```
//! use cloud_cost::{instances, Ec2CostModel, FleetCostModel, Money};
//! use pubsub_model::Bandwidth;
//!
//! let fleet = FleetCostModel::new(vec![
//!     Ec2CostModel::paper_effective(instances::C3_XLARGE),
//!     Ec2CostModel::paper_effective(instances::C3_LARGE),
//! ]);
//! // The c3 family scales linearly, so both tiers share one cost density;
//! // ties rank the smaller type first.
//! assert_eq!(fleet.tier(0).instance().name(), "c3.large");
//! // One c3.large + one c3.xlarge over the 10-day window: $36 + $72.
//! assert_eq!(fleet.fleet_vm_cost(&[1, 1]), Money::from_dollars(108));
//! assert_eq!(fleet.max_capacity(), fleet.capacity(1));
//! assert_eq!(fleet.cheapest_fitting(Bandwidth::new(60_000_000)), Some(1));
//! ```

use crate::{CostModel, Ec2CostModel, Money};
use pubsub_model::Bandwidth;
use serde::Serialize;
use std::fmt;

/// A catalogue of instance-type tiers priced for one deployment window.
///
/// Tiers are stored in ascending **cost density** — window VM price per
/// event-unit of capacity — with ties broken by ascending capacity. A
/// linearly-priced family (the c3 series) therefore ranks smallest-first:
/// under equal density the smaller tier wastes less headroom on the tail,
/// while the larger tiers remain available for topic groups that do not
/// fit a small VM.
///
/// Every tier must agree on the volume scale, so `C2` (bandwidth cost) is
/// a property of the fleet rather than of any one tier.
#[derive(Clone, Debug, Serialize)]
pub struct FleetCostModel {
    tiers: Vec<Ec2CostModel>,
}

impl FleetCostModel {
    /// Builds a fleet model from candidate tiers, sorting them by cost
    /// density (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty, if two tiers share an instance-type
    /// name, or if the tiers disagree on the volume scale.
    pub fn new(mut tiers: Vec<Ec2CostModel>) -> Self {
        assert!(!tiers.is_empty(), "a fleet needs at least one tier");
        let scale = tiers[0].volume_scale();
        assert!(
            tiers.iter().all(|tier| tier.volume_scale() == scale),
            "fleet tiers must share the volume scale"
        );
        tiers.sort_by(|a, b| density_cmp(a, b).then(a.capacity().cmp(&b.capacity())));
        // Tier names must be unique fleet-wide (reports resolve tiers by
        // name), and the density sort can interleave duplicates — check
        // every pair, not just neighbours.
        for (i, a) in tiers.iter().enumerate() {
            for b in &tiers[i + 1..] {
                assert!(
                    a.instance().name() != b.instance().name(),
                    "duplicate fleet tier {:?}",
                    a.instance().name()
                );
            }
        }
        FleetCostModel { tiers }
    }

    /// The tiers in ascending cost-density order.
    #[inline]
    pub fn tiers(&self) -> &[Ec2CostModel] {
        &self.tiers
    }

    /// Number of tiers.
    #[inline]
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// The tier at `index` (density order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn tier(&self, index: usize) -> &Ec2CostModel {
        &self.tiers[index]
    }

    /// Per-VM capacity of the tier at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn capacity(&self, index: usize) -> Bandwidth {
        self.tiers[index].capacity()
    }

    /// Window rental price of one VM of the tier at `index` (`C1` share).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn vm_window_cost(&self, index: usize) -> Money {
        self.tiers[index].vm_cost(1)
    }

    /// The largest per-VM capacity across tiers — the feasibility bound
    /// for a heterogeneous deployment (a topic fits the fleet iff
    /// `2·ev_t ≤ max_capacity`).
    pub fn max_capacity(&self) -> Bandwidth {
        self.tiers
            .iter()
            .map(Ec2CostModel::capacity)
            .max()
            .expect("fleet is non-empty")
    }

    /// The first tier in density order whose capacity is at least `need`,
    /// i.e. the cheapest-per-unit tier that can host the load whole.
    pub fn cheapest_fitting(&self, need: Bandwidth) -> Option<usize> {
        self.tiers.iter().position(|t| t.capacity() >= need)
    }

    /// The cheapest tier *by absolute window price* whose capacity is at
    /// least `need` — the downsize target when re-homing an under-full VM.
    pub fn cheapest_absolute_fitting(&self, need: Bandwidth) -> Option<usize> {
        self.tiers
            .iter()
            .enumerate()
            .filter(|(_, t)| t.capacity() >= need)
            .min_by(|(ai, a), (bi, b)| a.vm_cost(1).cmp(&b.vm_cost(1)).then(ai.cmp(bi)))
            .map(|(i, _)| i)
    }

    /// `C2`: price of the fleet's aggregate event volume. All tiers share
    /// the transfer price and the volume scale, so this is
    /// tier-independent.
    pub fn bandwidth_cost(&self, volume: Bandwidth) -> Money {
        self.tiers[0].bandwidth_cost(volume)
    }

    /// `C1` of a mixed fleet: `counts[i]` VMs of tier `i` rented for the
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is longer than the tier list.
    pub fn fleet_vm_cost(&self, counts: &[usize]) -> Money {
        assert!(counts.len() <= self.tiers.len(), "more counts than tiers");
        counts
            .iter()
            .zip(&self.tiers)
            .map(|(&n, tier)| tier.vm_cost(n))
            .sum()
    }

    /// The full mixed objective `Σ_i C1_i(counts[i]) + C2(volume)`.
    pub fn fleet_cost(&self, counts: &[usize], volume: Bandwidth) -> Money {
        self.fleet_vm_cost(counts) + self.bandwidth_cost(volume)
    }
}

impl fmt::Display for FleetCostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fleet[")?;
        for (i, tier) in self.tiers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", tier.instance().name())?;
        }
        write!(f, "]")
    }
}

/// Exact cost-density comparison — `price_a / cap_a` versus
/// `price_b / cap_b` by cross-multiplication in `u128`, so equal-density
/// families (the c3 series) compare exactly equal instead of drifting
/// through a float.
fn density_cmp(a: &Ec2CostModel, b: &Ec2CostModel) -> std::cmp::Ordering {
    let price = |m: &Ec2CostModel| m.vm_cost(1).micros().max(0) as u128;
    let cap = |m: &Ec2CostModel| u128::from(m.capacity().get().max(1));
    (price(a) * cap(b)).cmp(&(price(b) * cap(a)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances;

    fn tier(name: &'static str, hourly_micros: i64, cap_events: u64) -> Ec2CostModel {
        Ec2CostModel::paper_default(crate::InstanceType::new(name, hourly_micros, 64))
            .with_capacity_events(cap_events)
    }

    #[test]
    fn sorts_by_density_then_capacity() {
        // dense: $0.30/h for 100 events; cheap: $0.15/h for 100; big:
        // $0.30/h for 200 (same density as cheap).
        let fleet = FleetCostModel::new(vec![
            tier("dense", 300_000, 100),
            tier("big", 300_000, 200),
            tier("cheap", 150_000, 100),
        ]);
        let names: Vec<&str> = fleet.tiers().iter().map(|t| t.instance().name()).collect();
        assert_eq!(names, ["cheap", "big", "dense"]);
        assert_eq!(fleet.max_capacity(), Bandwidth::new(200));
    }

    #[test]
    fn paper_family_ties_rank_smallest_first() {
        let fleet = FleetCostModel::new(vec![
            Ec2CostModel::paper_effective(instances::C3_2XLARGE),
            Ec2CostModel::paper_effective(instances::C3_LARGE),
            Ec2CostModel::paper_effective(instances::C3_XLARGE),
        ]);
        let names: Vec<&str> = fleet.tiers().iter().map(|t| t.instance().name()).collect();
        assert_eq!(names, ["c3.large", "c3.xlarge", "c3.2xlarge"]);
    }

    #[test]
    fn fitting_queries() {
        let fleet = FleetCostModel::new(vec![tier("s", 150_000, 100), tier("l", 450_000, 300)]);
        assert_eq!(fleet.cheapest_fitting(Bandwidth::new(80)), Some(0));
        assert_eq!(fleet.cheapest_fitting(Bandwidth::new(150)), Some(1));
        assert_eq!(fleet.cheapest_fitting(Bandwidth::new(400)), None);
        // "l" is denser per unit but dearer absolutely; for a tiny need the
        // absolute-cheapest fitting tier is still "s".
        assert_eq!(fleet.cheapest_absolute_fitting(Bandwidth::new(80)), Some(0));
        assert_eq!(
            fleet.cheapest_absolute_fitting(Bandwidth::new(200)),
            Some(1)
        );
    }

    #[test]
    fn fleet_cost_sums_tiers_and_bandwidth() {
        let fleet = FleetCostModel::new(vec![
            Ec2CostModel::paper_default(instances::C3_LARGE),
            Ec2CostModel::paper_default(instances::C3_XLARGE),
        ]);
        // 2 × $36 + 1 × $72 = $144.
        assert_eq!(fleet.fleet_vm_cost(&[2, 1]), Money::from_dollars(144));
        // 5M events × 200 B = 1 GB => $0.12 regardless of tier mix.
        let volume = Bandwidth::new(5_000_000);
        assert_eq!(fleet.bandwidth_cost(volume), Money::from_micros(120_000));
        assert_eq!(
            fleet.fleet_cost(&[2, 1], volume),
            Money::from_dollars(144) + Money::from_micros(120_000)
        );
        // Short count slices price the missing tiers at zero VMs.
        assert_eq!(fleet.fleet_vm_cost(&[2]), Money::from_dollars(72));
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_fleet_rejected() {
        let _ = FleetCostModel::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "duplicate fleet tier")]
    fn duplicate_tier_rejected() {
        let _ = FleetCostModel::new(vec![
            Ec2CostModel::paper_default(instances::C3_LARGE),
            Ec2CostModel::paper_default(instances::C3_LARGE),
        ]);
    }

    #[test]
    #[should_panic(expected = "duplicate fleet tier")]
    fn duplicate_tier_rejected_even_when_density_sort_separates_them() {
        // Same name, different prices: the density sort puts "y" between
        // the two "x" tiers, so an adjacency-only check would miss them.
        let _ = FleetCostModel::new(vec![
            tier("x", 100_000, 100),
            tier("y", 150_000, 100),
            tier("x", 300_000, 100),
        ]);
    }

    #[test]
    #[should_panic(expected = "must share")]
    fn mismatched_scale_rejected() {
        let _ = FleetCostModel::new(vec![
            Ec2CostModel::paper_default(instances::C3_LARGE),
            Ec2CostModel::paper_default(instances::C3_XLARGE).with_volume_scale(1, 2),
        ]);
    }

    #[test]
    fn display_lists_tiers() {
        let fleet = FleetCostModel::new(vec![
            Ec2CostModel::paper_effective(instances::C3_LARGE),
            Ec2CostModel::paper_effective(instances::C3_XLARGE),
        ]);
        assert_eq!(fleet.to_string(), "fleet[c3.large, c3.xlarge]");
    }
}
