//! Error type for the MCSS solver.

use pubsub_model::{Bandwidth, TopicId};
use std::fmt;

/// Errors raised by solver construction and execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McssError {
    /// The per-VM bandwidth capacity was zero; no pair can ever be placed.
    ZeroCapacity,
    /// A selected topic cannot be placed on any VM: its single-pair cost
    /// `2·ev_t` (incoming + one outgoing stream) exceeds the capacity.
    InfeasibleTopic {
        /// The topic that does not fit.
        topic: TopicId,
        /// The minimum bandwidth a VM hosting it would need.
        required: Bandwidth,
        /// The configured per-VM capacity.
        capacity: Bandwidth,
    },
    /// The exact solver's work budget would be exceeded; use the heuristic
    /// pipeline instead.
    TooLargeForExact {
        /// Number of pairs in the instance.
        pairs: u64,
        /// The solver's configured pair limit.
        limit: u64,
    },
    /// The optimal Stage-1 selector's dynamic program would need more cells
    /// than its configured budget.
    TooLargeForOptimalSelection {
        /// Cells the DP would allocate.
        cells: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for McssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McssError::ZeroCapacity => write!(f, "per-VM bandwidth capacity must be positive"),
            McssError::InfeasibleTopic {
                topic,
                required,
                capacity,
            } => write!(
                f,
                "topic {topic} needs {required} on a single VM but capacity is {capacity}"
            ),
            McssError::TooLargeForExact { pairs, limit } => {
                write!(
                    f,
                    "exact solver limited to {limit} pairs, instance has {pairs}"
                )
            }
            McssError::TooLargeForOptimalSelection { cells, budget } => {
                write!(
                    f,
                    "optimal selection needs {cells} DP cells, budget is {budget}"
                )
            }
        }
    }
}

impl std::error::Error for McssError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_facts() {
        let e = McssError::InfeasibleTopic {
            topic: TopicId::new(3),
            required: Bandwidth::new(40),
            capacity: Bandwidth::new(30),
        };
        let msg = e.to_string();
        assert!(msg.contains("t3"));
        assert!(msg.contains("40"));
        assert!(msg.contains("30"));
        assert!(McssError::ZeroCapacity.to_string().contains("positive"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(McssError::ZeroCapacity, McssError::ZeroCapacity);
        assert_ne!(
            McssError::ZeroCapacity,
            McssError::TooLargeForExact { pairs: 1, limit: 0 }
        );
    }
}
