//! Timing and order statistics over timing samples.

use crate::sys::cpu_seconds;
use crate::{metric, Metric};
use std::time::Instant;

/// The start of a timed call, on two clocks: the process's CPU time, which
/// every reported timing uses, and the wall clock, printed beside it.
#[derive(Clone, Copy)]
pub struct Stamp {
    cpu_s: f64,
    wall: Instant,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu_s: cpu_seconds(),
        }
    }

    /// CPU milliseconds since the stamp.
    pub fn ms(&self) -> f64 {
        (cpu_seconds() - self.cpu_s) * 1e3
    }

    /// Wall-clock milliseconds since the stamp.
    pub fn wall_ms(&self) -> f64 {
        self.wall.elapsed().as_secs_f64() * 1e3
    }
}

/// Per-operation samples of named layer metrics, reported as medians.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, &'static str, Samples)>);

impl Layers {
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, samples)) => samples.push(value),
            None => {
                let mut samples = Samples::default();
                samples.push(value);
                self.0.push((name, unit, samples));
            }
        }
    }

    pub fn medians(&self) -> Vec<Metric> {
        self.0
            .iter()
            .map(|(name, unit, samples)| metric(name, samples.median(), unit))
            .collect()
    }
}

/// A set of samples (milliseconds, seconds, ...) in arrival order.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median; the mean of the two middle samples for an even count.
    /// `NaN` when empty, which the report rejects.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile `p` in (0, 100].
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// Samples strictly above the nearest-rank percentile `p`'s position.
    pub fn beyond(&self, p: f64) -> usize {
        let rank = ((p / 100.0) * self.0.len() as f64).ceil() as usize;
        self.0.len() - rank.min(self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        Samples(values.to_vec())
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(of(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(of(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert!(of(&[]).median().is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank_with_ten_beyond() {
        let s = Samples((1..=200).map(f64::from).collect());
        assert_eq!(s.percentile(95.0), 190.0);
        assert_eq!(s.beyond(95.0), 10);
        assert_eq!(s.percentile(100.0), 200.0);
    }
}
