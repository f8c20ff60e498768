//! The `C1`/`C2` cost functions and concrete pricing models.
//!
//! The MCSS objective is `C1(|B|) + C2(Σ_b bw_b)` (paper §II-B): a VM
//! rental term and a bandwidth term. [`CostModel`] is the abstraction
//! the solver consumes; [`Ec2CostModel`] is the paper's concrete EC2
//! pricing, [`LinearCostModel`] the affine stand-in for tests and the
//! NP-hardness reduction.
//!
//! ```
//! use cloud_cost::{instances, CostModel, Ec2CostModel};
//! use pubsub_model::Bandwidth;
//!
//! let model = Ec2CostModel::paper_default(instances::C3_LARGE);
//! // 10 VMs for the 10-day window plus 1 GB of deliveries.
//! let bill = model.total_cost(10, Bandwidth::new(5_000_000));
//! assert_eq!(bill.to_string(), "$360.12");
//! ```

use crate::{InstanceType, Money};
use pubsub_model::Bandwidth;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The billing period over which a deployment is evaluated.
///
/// The paper evaluates 10-day traces billed hourly (§IV-A/B); VMs rented for
/// the whole window cost `hourly × hours`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct BillingWindow {
    seconds: u64,
}

impl BillingWindow {
    /// The paper's evaluation window: 10 days.
    pub const PAPER: BillingWindow = BillingWindow::from_days(10);

    /// A window of whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        BillingWindow {
            seconds: hours * 3600,
        }
    }

    /// A window of whole days.
    pub const fn from_days(days: u64) -> Self {
        BillingWindow {
            seconds: days * 86_400,
        }
    }

    /// Window length in seconds.
    #[inline]
    pub const fn seconds(self) -> u64 {
        self.seconds
    }

    /// Window length in whole hours (rounded up — IaaS providers bill
    /// started hours).
    #[inline]
    pub const fn billed_hours(self) -> u64 {
        self.seconds.div_ceil(3600)
    }
}

impl fmt::Display for BillingWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} h", self.billed_hours())
    }
}

/// The cost abstraction of the MCSS objective:
/// `C1(|B|) + C2(Σ_b bw_b)` (paper §II-B).
///
/// Implementations must be deterministic and monotone in both arguments —
/// the solver's `CheaperToDistribute` decision (Alg. 7) compares these
/// outputs directly.
pub trait CostModel: fmt::Debug + Send + Sync {
    /// `C1`: price of renting `vms` virtual machines for the billing window.
    fn vm_cost(&self, vms: usize) -> Money;

    /// `C2`: price of moving `volume` event-units in and out of the cloud.
    fn bandwidth_cost(&self, volume: Bandwidth) -> Money;

    /// The full objective `C1(vms) + C2(volume)`.
    fn total_cost(&self, vms: usize, volume: Bandwidth) -> Money {
        self.vm_cost(vms) + self.bandwidth_cost(volume)
    }
}

/// The paper's Amazon EC2 pricing (§IV-A): on-demand hourly VM rental plus
/// $0.12/GB transfer (incoming and outgoing priced identically), with
/// event-volume↔bytes conversion via a fixed message size.
///
/// # Scaled-down experiments
///
/// The paper's traces have 4.9–30 M subscribers; the default reproduction
/// scale is a few percent of that. To preserve the *shape* of the
/// VM-count-vs-bandwidth trade-off, [`Ec2CostModel::with_volume_scale`]
/// declares that one synthetic subscriber stands for `paper/synthetic` real
/// ones: per-VM capacity shrinks by that factor while each transferred byte
/// is priced up by it, so VM counts, total dollar costs, and the
/// cost-model-driven decisions inside the solver all match the full-scale
/// system. See "Deviations from the paper" in `docs/PAPER_MAP.md`.
///
/// ```
/// use cloud_cost::{instances, CostModel, Ec2CostModel};
/// use pubsub_model::Bandwidth;
///
/// let m = Ec2CostModel::paper_default(instances::C3_LARGE);
/// assert_eq!(m.vm_cost(1).to_string(), "$36.00");          // $0.15 × 240 h
/// // 5_000_000 events × 200 B = 1 GB  =>  $0.12
/// assert_eq!(m.bandwidth_cost(Bandwidth::new(5_000_000)).to_string(), "$0.12");
/// // 64 mbps over 240 h at 200 B/event:
/// assert_eq!(m.capacity().get(), 34_560_000_000);
/// ```
#[derive(Clone, Debug, Serialize)]
pub struct Ec2CostModel {
    instance: InstanceType,
    /// One synthetic event represents `scale_paper / scale_synth` real events.
    scale_paper: u64,
    scale_synth: u64,
    /// When set, `capacity()` uses this events-per-window figure (before
    /// scale adjustment) instead of the nominal line-rate conversion.
    capacity_events_override: Option<u64>,
}

impl Ec2CostModel {
    /// Transfer price from the paper: $0.12 per GB, both directions.
    pub const PAPER_TRANSFER_PER_GB: Money = Money::from_micros(120_000);

    /// Message size used for both traces in the paper: 200 bytes.
    pub const PAPER_MESSAGE_BYTES: u64 = 200;

    /// Effective per-VM capacity implied by the paper's evaluation, in
    /// events per 10-day window per 64 mbps of nominal bandwidth.
    ///
    /// The nominal conversion (64 mbps × 240 h ÷ 200 B ≈ 3.5 × 10¹⁰
    /// events) would let one VM absorb either full trace, yet Figs. 2–3
    /// report 100–550 VMs. Dividing the figures' reported bandwidth
    /// volumes by their VM counts gives ≈ 5 × 10⁷ events per c3.large on
    /// *both* traces (Spotify: 9 × 10⁹ events / ~180 VMs; Twitter:
    /// 2.75 × 10¹⁰ / ~550) and twice that per c3.xlarge — so this is the
    /// capacity the authors' implementation effectively enforced. See
    /// "Deviations from the paper" in `docs/PAPER_MAP.md`.
    pub const PAPER_EFFECTIVE_EVENTS_PER_64MBPS: u64 = 50_000_000;

    /// The paper's configuration for a given instance type: 10-day window,
    /// 200-byte messages, $0.12/GB, nominal line-rate capacity.
    pub fn paper_default(instance: InstanceType) -> Self {
        Ec2CostModel {
            instance,
            scale_paper: 1,
            scale_synth: 1,
            capacity_events_override: None,
        }
    }

    /// Like [`Ec2CostModel::paper_default`] but with the *effective*
    /// capacity implied by the paper's reported VM counts
    /// ([`Ec2CostModel::PAPER_EFFECTIVE_EVENTS_PER_64MBPS`], scaled
    /// linearly in the instance's nominal mbps). This is the model to use
    /// when reproducing Figs. 2–7.
    pub fn paper_effective(instance: InstanceType) -> Self {
        let events = Self::PAPER_EFFECTIVE_EVENTS_PER_64MBPS * instance.bandwidth_mbps() / 64;
        Self::paper_default(instance).with_capacity_events(events)
    }

    /// Overrides the per-VM capacity in events per window (before scale
    /// adjustment).
    ///
    /// # Panics
    ///
    /// Panics if `events` is zero.
    pub fn with_capacity_events(mut self, events: u64) -> Self {
        assert!(events > 0, "capacity must be positive");
        self.capacity_events_override = Some(events);
        self
    }

    /// Declares the experiment scale: the synthetic workload has
    /// `synthetic` subscribers standing in for `paper` real ones.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn with_volume_scale(mut self, synthetic: u64, paper: u64) -> Self {
        assert!(synthetic > 0 && paper > 0, "scale counts must be positive");
        self.scale_synth = synthetic;
        self.scale_paper = paper;
        self
    }

    /// The instance type being priced.
    pub fn instance(&self) -> InstanceType {
        self.instance
    }

    /// The declared `(synthetic, paper)` volume scale (see
    /// [`Ec2CostModel::with_volume_scale`]); `(1, 1)` means full scale.
    pub fn volume_scale(&self) -> (u64, u64) {
        (self.scale_synth, self.scale_paper)
    }

    /// Per-VM bandwidth capacity `BC` in event-units per window, after
    /// scale adjustment (scaled *down* by `synthetic/paper` so that VM
    /// counts match the full-scale deployment).
    ///
    /// Saturates at one event-unit — a capacity of zero would make every
    /// instance infeasible.
    pub fn capacity(&self) -> Bandwidth {
        let events = match self.capacity_events_override {
            Some(e) => u128::from(e),
            None => {
                self.instance.capacity_bytes(BillingWindow::PAPER.seconds())
                    / u128::from(Self::PAPER_MESSAGE_BYTES)
            }
        };
        let scaled = events * u128::from(self.scale_synth) / u128::from(self.scale_paper);
        Bandwidth::new(u64::try_from(scaled).unwrap_or(u64::MAX).max(1))
    }

    /// Bytes represented by an event volume at full (paper) scale.
    pub fn volume_to_bytes(&self, volume: Bandwidth) -> u128 {
        u128::from(volume.get())
            * u128::from(Self::PAPER_MESSAGE_BYTES)
            * u128::from(self.scale_paper)
            / u128::from(self.scale_synth)
    }

    /// GB represented by an event volume at full scale (for reporting).
    pub fn volume_to_gb(&self, volume: Bandwidth) -> f64 {
        self.volume_to_bytes(volume) as f64 / 1e9
    }
}

impl CostModel for Ec2CostModel {
    fn vm_cost(&self, vms: usize) -> Money {
        self.instance.hourly_price() * (vms as u64) * BillingWindow::PAPER.billed_hours()
    }

    fn bandwidth_cost(&self, volume: Bandwidth) -> Money {
        Self::PAPER_TRANSFER_PER_GB.mul_ratio(self.volume_to_bytes(volume), 1_000_000_000)
    }
}

/// Affine cost functions for tests and the NP-hardness reduction:
/// `C1(x) = per_vm · x`, `C2(v) = per_event · v`.
///
/// The Partition reduction of Theorem II.2 uses `C1(x) = x` (dollars) and
/// `C2 = 0`, i.e. [`LinearCostModel::vm_only`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinearCostModel {
    per_vm: Money,
    per_event: Money,
}

impl LinearCostModel {
    /// Costs `per_vm` per VM and `per_event` per event-unit of bandwidth.
    pub const fn new(per_vm: Money, per_event: Money) -> Self {
        LinearCostModel { per_vm, per_event }
    }

    /// VM-count-only objective: `C1(x) = per_vm · x`, `C2 = 0`.
    pub const fn vm_only(per_vm: Money) -> Self {
        LinearCostModel {
            per_vm,
            per_event: Money::ZERO,
        }
    }

    /// Bandwidth-only objective: `C1 = 0`, `C2(v) = per_event · v`.
    pub const fn bandwidth_only(per_event: Money) -> Self {
        LinearCostModel {
            per_vm: Money::ZERO,
            per_event,
        }
    }
}

impl CostModel for LinearCostModel {
    fn vm_cost(&self, vms: usize) -> Money {
        self.per_vm * (vms as u64)
    }

    fn bandwidth_cost(&self, volume: Bandwidth) -> Money {
        self.per_event * volume.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances;

    #[test]
    fn billing_window_hours() {
        assert_eq!(BillingWindow::PAPER.billed_hours(), 240);
        assert_eq!(BillingWindow::from_hours(5).seconds(), 18_000);
        // started hours are billed in full
        assert_eq!(BillingWindow { seconds: 3601 }.billed_hours(), 2);
    }

    #[test]
    fn paper_vm_cost() {
        let large = Ec2CostModel::paper_default(instances::C3_LARGE);
        assert_eq!(large.vm_cost(1), Money::from_dollars(36));
        assert_eq!(large.vm_cost(100), Money::from_dollars(3600));
        let xlarge = Ec2CostModel::paper_default(instances::C3_XLARGE);
        assert_eq!(xlarge.vm_cost(1), Money::from_dollars(72));
    }

    #[test]
    fn paper_bandwidth_cost() {
        let m = Ec2CostModel::paper_default(instances::C3_LARGE);
        // 5M events × 200 B = 1 GB => $0.12
        assert_eq!(
            m.bandwidth_cost(Bandwidth::new(5_000_000)),
            Money::from_micros(120_000)
        );
        assert_eq!(m.bandwidth_cost(Bandwidth::ZERO), Money::ZERO);
        assert!((m.volume_to_gb(Bandwidth::new(5_000_000)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_capacity() {
        let m = Ec2CostModel::paper_default(instances::C3_LARGE);
        // 64 mbps = 8e6 B/s; ×864000 s = 6.912e12 B; /200 B = 3.456e10 events
        assert_eq!(m.capacity(), Bandwidth::new(34_560_000_000));
        let x = Ec2CostModel::paper_default(instances::C3_XLARGE);
        assert_eq!(x.capacity().get(), 2 * m.capacity().get());
    }

    #[test]
    fn volume_scaling_preserves_dollar_figures() {
        let full = Ec2CostModel::paper_default(instances::C3_LARGE);
        let scaled = Ec2CostModel::paper_default(instances::C3_LARGE).with_volume_scale(1, 100);
        // capacity shrinks 100×
        assert_eq!(scaled.capacity().get(), full.capacity().get() / 100);
        // a 100×-smaller volume costs the same dollars
        let v_full = Bandwidth::new(5_000_000);
        let v_scaled = Bandwidth::new(50_000);
        assert_eq!(scaled.bandwidth_cost(v_scaled), full.bandwidth_cost(v_full));
        // VM cost is scale-independent
        assert_eq!(scaled.vm_cost(7), full.vm_cost(7));
    }

    #[test]
    fn effective_capacity_matches_figure_calibration() {
        let large = Ec2CostModel::paper_effective(instances::C3_LARGE);
        assert_eq!(large.capacity(), Bandwidth::new(50_000_000));
        let xlarge = Ec2CostModel::paper_effective(instances::C3_XLARGE);
        assert_eq!(xlarge.capacity(), Bandwidth::new(100_000_000));
        // Scale compensation applies to the override too.
        let scaled =
            Ec2CostModel::paper_effective(instances::C3_LARGE).with_volume_scale(49, 4_900_000);
        assert_eq!(scaled.capacity(), Bandwidth::new(500));
        // Pricing is unchanged by the capacity override.
        assert_eq!(large.vm_cost(1), Money::from_dollars(36));
    }

    #[test]
    fn capacity_never_zero() {
        let tiny = Ec2CostModel::paper_default(instances::C3_LARGE).with_volume_scale(1, u64::MAX);
        assert!(tiny.capacity().get() >= 1);
    }

    #[test]
    fn total_cost_is_sum() {
        let m = Ec2CostModel::paper_default(instances::C3_LARGE);
        let v = Bandwidth::new(10_000_000);
        assert_eq!(m.total_cost(3, v), m.vm_cost(3) + m.bandwidth_cost(v));
    }

    #[test]
    fn linear_model() {
        let lm = LinearCostModel::new(Money::from_dollars(1), Money::from_micros(2));
        assert_eq!(lm.vm_cost(5), Money::from_dollars(5));
        assert_eq!(
            lm.bandwidth_cost(Bandwidth::new(10)),
            Money::from_micros(20)
        );
        let vm_only = LinearCostModel::vm_only(Money::from_dollars(1));
        assert_eq!(
            vm_only.bandwidth_cost(Bandwidth::new(1_000_000)),
            Money::ZERO
        );
        let bw_only = LinearCostModel::bandwidth_only(Money::from_micros(1));
        assert_eq!(bw_only.vm_cost(99), Money::ZERO);
    }

    #[test]
    fn cost_model_is_object_safe() {
        let m = Ec2CostModel::paper_default(instances::C3_LARGE);
        let as_dyn: &dyn CostModel = &m;
        assert_eq!(as_dyn.vm_cost(1), Money::from_dollars(36));
    }
}
