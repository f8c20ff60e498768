//! Identifier newtypes for topics, subscribers, and topic-subscriber pairs.
//!
//! Identifiers are dense indices (`u32`) assigned by [`WorkloadBuilder`] in
//! insertion order, which keeps per-topic and per-subscriber lookup tables as
//! flat vectors and halves memory versus `usize` at the multi-million scale
//! the paper evaluates.
//!
//! [`WorkloadBuilder`]: crate::WorkloadBuilder

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a topic `t ∈ T` (paper §II-B).
///
/// In the social pub/sub systems the paper targets (Spotify, Twitter), a
/// topic is a user being followed; its publications are that user's events.
///
/// ```
/// use pubsub_model::TopicId;
/// let t = TopicId::new(7);
/// assert_eq!(t.index(), 7);
/// assert_eq!(format!("{t}"), "t7");
/// ```
#[derive(
    Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct TopicId(u32);

impl TopicId {
    /// Creates a topic id from a dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        TopicId(index)
    }

    /// Returns the dense index backing this id.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a subscriber `v ∈ V` (paper §II-B).
///
/// ```
/// use pubsub_model::SubscriberId;
/// let v = SubscriberId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(format!("{v}"), "v3");
/// ```
#[derive(
    Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SubscriberId(u32);

impl SubscriberId {
    /// Creates a subscriber id from a dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        SubscriberId(index)
    }

    /// Returns the dense index backing this id.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SubscriberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A topic-subscriber pair `(t, v)` — the unit of allocation in MCSS.
///
/// The paper chooses workload subsets *at the granularity of pairs*
/// (§II-A): a subscriber may receive a topic from one VM while another
/// subscriber of the same topic is served from a different VM.
///
/// ```
/// use pubsub_model::{Pair, SubscriberId, TopicId};
/// let p = Pair::new(TopicId::new(1), SubscriberId::new(2));
/// assert_eq!(format!("{p}"), "(t1, v2)");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Pair {
    /// The topic being delivered.
    pub topic: TopicId,
    /// The subscriber receiving it.
    pub subscriber: SubscriberId,
}

impl Pair {
    /// Creates a pair from its components.
    #[inline]
    pub const fn new(topic: TopicId, subscriber: SubscriberId) -> Self {
        Pair { topic, subscriber }
    }
}

impl fmt::Display for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.topic, self.subscriber)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_id_roundtrip() {
        let t = TopicId::new(42);
        assert_eq!(t.index(), 42);
        assert_eq!(t.raw(), 42);
        assert_eq!(t, TopicId::new(42));
        assert!(TopicId::new(1) < TopicId::new(2));
    }

    #[test]
    fn subscriber_id_roundtrip() {
        let v = SubscriberId::new(7);
        assert_eq!(v.index(), 7);
        assert!(SubscriberId::new(0) < v);
    }

    #[test]
    fn pair_ordering_is_topic_major() {
        let a = Pair::new(TopicId::new(1), SubscriberId::new(9));
        let b = Pair::new(TopicId::new(2), SubscriberId::new(0));
        assert!(a < b);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TopicId::new(3).to_string(), "t3");
        assert_eq!(SubscriberId::new(4).to_string(), "v4");
        assert_eq!(
            Pair::new(TopicId::new(3), SubscriberId::new(4)).to_string(),
            "(t3, v4)"
        );
    }

    #[test]
    fn ids_are_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(TopicId::new(1));
        s.insert(TopicId::new(1));
        assert_eq!(s.len(), 1);
    }
}
