//! Domain model for topic-based publish/subscribe workloads.
//!
//! This crate is the foundational substrate for the MCSS (Minimum Cost
//! Subscriber Satisfaction) reproduction of Setty et al., *"Cost-Effective
//! Resource Allocation for Deploying Pub/Sub on Cloud"* (ICDCS 2014). It
//! defines the vocabulary of the paper's §II-B model:
//!
//! * [`TopicId`], [`SubscriberId`], [`Pair`] — identities for the topic set
//!   `T`, the subscriber set `V`, and topic-subscriber pairs `(t, v)`;
//! * [`Rate`] — the per-topic event rate `ev_t` (events per evaluation
//!   window) and [`Bandwidth`] — aggregated event volume;
//! * [`Workload`] — an immutable instance of `(T, V, ev, Int)` with the
//!   derived subscriber sets `V_t`, built through [`WorkloadBuilder`] and
//!   stored as flat CSR (compressed sparse row) adjacency arenas;
//! * [`WorkloadStats`] — summary statistics used by trace analysis and the
//!   experiment harness;
//! * [`WorkloadEdit`] — folds subscribe/unsubscribe/re-rate operations into
//!   per-epoch workloads, editing the CSR arenas in place through the
//!   [`csr`] primitives.
//!
//! # Example
//!
//! ```
//! use pubsub_model::{Rate, Workload};
//!
//! # fn main() -> Result<(), pubsub_model::WorkloadError> {
//! let mut b = Workload::builder();
//! let rock = b.add_topic(Rate::new(20))?;
//! let jazz = b.add_topic(Rate::new(10))?;
//! let alice = b.add_subscriber([rock, jazz])?;
//! let bob = b.add_subscriber([jazz])?;
//! let w = b.build();
//!
//! assert_eq!(w.num_topics(), 2);
//! assert_eq!(w.num_subscribers(), 2);
//! assert_eq!(w.pair_count(), 3);
//! assert_eq!(w.subscriber_total_rate(alice), Rate::new(30));
//! assert_eq!(w.subscribers_of(rock), &[alice]);
//! assert_eq!(w.subscribers_of(jazz), &[alice, bob]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod csr;
mod edit;
mod ids;
mod stats;
mod units;
mod workload;

pub use edit::WorkloadEdit;
pub use ids::{Pair, SubscriberId, TopicId};
pub use stats::WorkloadStats;
pub use units::{Bandwidth, Rate, MAX_RATE};
pub use workload::{
    ValidationIssue, Workload, WorkloadArenas, WorkloadBuilder, WorkloadError, WorkloadFootprint,
};
