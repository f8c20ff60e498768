//! The pub/sub workload instance `(T, V, ev, Int)` and its builder.

use crate::csr::{shift_offsets, splice_in_place};
use crate::{Bandwidth, Rate, SubscriberId, TopicId, MAX_RATE};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Errors raised while constructing a [`Workload`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadError {
    /// A subscriber interest referenced a topic id that was never added.
    UnknownTopic {
        /// The offending topic id.
        topic: TopicId,
        /// Number of topics registered at the time of the error.
        num_topics: usize,
    },
    /// A topic was added with a zero event rate; the paper assumes
    /// `ev_t > 0` (§II-B).
    ZeroEventRate,
    /// A topic rate exceeded [`MAX_RATE`], which would void the crate's
    /// overflow guarantees.
    RateTooLarge {
        /// The rejected rate.
        rate: Rate,
    },
    /// More than `u32::MAX` topics or subscribers were added.
    TooManyEntities,
    /// The flat interest arena would exceed `u32::MAX` pairs, which the
    /// packed u32 CSR offsets cannot address.
    TooManyPairs,
    /// A raw arena handed to [`Workload::from_arenas`] is structurally
    /// inconsistent (offsets not monotone, ids out of range, mismatched
    /// lengths). The message names the failing arena.
    MalformedArenas(&'static str),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::UnknownTopic { topic, num_topics } => write!(
                f,
                "interest references unknown topic {topic} (only {num_topics} topics exist)"
            ),
            WorkloadError::ZeroEventRate => {
                write!(
                    f,
                    "topic event rate must be positive (paper assumes ev_t > 0)"
                )
            }
            WorkloadError::RateTooLarge { rate } => {
                write!(
                    f,
                    "topic event rate {rate} exceeds the supported maximum {MAX_RATE}"
                )
            }
            WorkloadError::TooManyEntities => {
                write!(f, "workload exceeds u32::MAX topics or subscribers")
            }
            WorkloadError::TooManyPairs => {
                write!(
                    f,
                    "workload exceeds u32::MAX topic-subscriber pairs (the u32 CSR offset limit)"
                )
            }
            WorkloadError::MalformedArenas(detail) => {
                write!(f, "malformed workload arenas: {detail}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Non-fatal irregularities reported by [`Workload::validate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValidationIssue {
    /// A topic has no subscribers. The paper requires `V_t` non-empty
    /// (§II-B); such topics never form pairs and are dead weight.
    TopicWithoutSubscribers(TopicId),
    /// A subscriber has an empty interest set; its threshold `τ_v` is zero
    /// and it is trivially satisfied.
    SubscriberWithoutInterests(SubscriberId),
}

impl fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationIssue::TopicWithoutSubscribers(t) => {
                write!(f, "topic {t} has no subscribers")
            }
            ValidationIssue::SubscriberWithoutInterests(v) => {
                write!(f, "subscriber {v} has no interests")
            }
        }
    }
}

/// Heap bytes held by each arena of a [`Workload`], counted by *capacity*
/// (allocated, not merely initialized), so construction slack shows up in
/// the report. Produced by [`Workload::footprint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadFootprint {
    /// `ev_t` table (`|T|` rates).
    pub rates: usize,
    /// Shared CSR row-offset table for the `T_v` *and* rate-ranked
    /// arenas (`|V| + 1` offsets, stored once).
    pub interest_offsets: usize,
    /// Flat `T_v` arena (one id per pair).
    pub interest_topics: usize,
    /// Flat rate-ranked `T_v` arena (one id per pair).
    pub ranked_topics: usize,
    /// Follower CSR offsets (`|T| + 1`).
    pub follower_offsets: usize,
    /// Flat derived `V_t` arena (one id per pair).
    pub follower_ids: usize,
}

impl WorkloadFootprint {
    /// Total heap bytes across all arenas.
    pub fn total(&self) -> usize {
        self.rates
            + self.interest_offsets
            + self.interest_topics
            + self.ranked_topics
            + self.follower_offsets
            + self.follower_ids
    }
}

impl fmt::Display for WorkloadFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  rates:            {:>12} B", self.rates)?;
        writeln!(
            f,
            "  interest offsets: {:>12} B (shared with ranked arena)",
            self.interest_offsets
        )?;
        writeln!(f, "  interest topics:  {:>12} B", self.interest_topics)?;
        writeln!(f, "  ranked topics:    {:>12} B", self.ranked_topics)?;
        writeln!(f, "  follower offsets: {:>12} B", self.follower_offsets)?;
        writeln!(f, "  follower ids:     {:>12} B", self.follower_ids)?;
        write!(f, "  workload total:   {:>12} B", self.total())
    }
}

/// Allocated heap bytes behind a `Vec` (capacity, not length).
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// A borrowed view of every CSR arena backing a [`Workload`] — primaries
/// *and* derived tables — in the exact in-memory layout. This is the
/// serialization surface for arena-preserving stores: writing these six
/// slices verbatim (little-endian) and handing them back to
/// [`Workload::from_arenas`] reconstructs the workload with zero per-row
/// work. Produced by [`Workload::arenas`].
#[derive(Clone, Copy, Debug)]
pub struct WorkloadArenas<'a> {
    /// `ev_t`, indexed by topic.
    pub rates: &'a [Rate],
    /// CSR offsets into `interest_topics` (and `ranked_topics`);
    /// `len = |V| + 1`.
    pub interest_offsets: &'a [u32],
    /// Flat `T_v` arena; each row sorted, deduplicated.
    pub interest_topics: &'a [TopicId],
    /// Flat rate-ranked `T_v` arena; same row boundaries as
    /// `interest_topics`.
    pub ranked_topics: &'a [TopicId],
    /// CSR offsets into `follower_ids`; `len = |T| + 1`.
    pub follower_offsets: &'a [u32],
    /// Flat derived `V_t` arena; each row sorted.
    pub follower_ids: &'a [SubscriberId],
}

/// Serialized form of a [`Workload`]: only the primary data (in the same
/// CSR layout the workload stores); derived tables are rebuilt on
/// deserialization.
#[derive(Serialize, Deserialize)]
struct WorkloadData {
    rates: Vec<Rate>,
    interest_offsets: Vec<usize>,
    interest_topics: Vec<TopicId>,
}

impl From<WorkloadData> for Workload {
    fn from(d: WorkloadData) -> Workload {
        Workload::from_csr(d.rates, d.interest_offsets, d.interest_topics)
    }
}

impl From<Workload> for WorkloadData {
    fn from(w: Workload) -> WorkloadData {
        WorkloadData {
            rates: w.rates,
            // The wire format keeps machine-word offsets; the packed u32
            // table widens losslessly.
            interest_offsets: w.interest_offsets.iter().map(|&o| o as usize).collect(),
            interest_topics: w.interest_topics,
        }
    }
}

/// An immutable pub/sub workload: topics `T` with event rates `ev`,
/// subscribers `V` with interests `Int = {T_v}`, and the derived subscriber
/// sets `V_t` (paper §II-B).
///
/// Construct with [`Workload::builder`]. Interests are stored sorted by
/// topic id and deduplicated; `V_t` lists are sorted by subscriber id.
///
/// Both adjacencies are held in CSR (compressed sparse row) form: one flat
/// id arena plus an offset array per direction. A workload with millions
/// of pairs is therefore a handful of allocations and walks contiguously
/// in the solver hot loops.
///
/// A third arena, the **rate-ranked interest arena**, shares the interest
/// row boundaries but stores each subscriber's interests pre-sorted by
/// (descending `ev_t`, ascending topic id) — the order every greedy
/// Stage-1 sweep consumes, so selectors never sort per subscriber. It is
/// built in one counting-sort pass at construction (see
/// [`Workload::ranked_interests`]) and edited in place by
/// [`WorkloadEdit::commit_shared`](crate::WorkloadEdit::commit_shared).
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(from = "WorkloadData", into = "WorkloadData")]
pub struct Workload {
    /// `ev_t`, indexed by topic.
    rates: Vec<Rate>,
    /// CSR offsets into `interest_topics`; `len = |V| + 1`. Packed to u32
    /// — the arena holds at most `u32::MAX` pairs, enforced at
    /// construction ([`WorkloadError::TooManyPairs`]) — which halves the
    /// offset table versus machine words at 10⁶–10⁷ subscribers.
    interest_offsets: Vec<u32>,
    /// Flat `T_v` arena; each row sorted, deduplicated.
    interest_topics: Vec<TopicId>,
    /// Flat rate-ranked `T_v` arena: same row boundaries as
    /// `interest_topics` (via `interest_offsets`), each row ordered by
    /// (descending `ev_t`, ascending topic id).
    ranked_topics: Vec<TopicId>,
    /// CSR offsets into `follower_ids`; `len = |T| + 1`. Packed like
    /// `interest_offsets`.
    follower_offsets: Vec<u32>,
    /// Flat derived `V_t` arena; each row sorted.
    follower_ids: Vec<SubscriberId>,
    /// Total number of `(t, v)` pairs (`Σ_v |T_v|`).
    pair_count: u64,
    /// `Σ_t ev_t` over all topics.
    total_rate: Rate,
}

impl Workload {
    /// Starts building a workload.
    pub fn builder() -> WorkloadBuilder {
        WorkloadBuilder::new()
    }

    /// Rebuilds a workload from primary data (used by deserialization and
    /// trace I/O). Interests are sorted and deduplicated; out-of-range
    /// topic ids are dropped silently — use the builder for checked input.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` total pairs — the packed CSR offset limit.
    /// The builder path reports this as [`WorkloadError::TooManyPairs`]
    /// instead.
    pub fn from_parts(rates: Vec<Rate>, interests: Vec<Vec<TopicId>>) -> Workload {
        let (interest_offsets, interest_topics) = normalize_interests(rates.len(), interests);
        Workload::from_csr_u32(rates, interest_offsets, interest_topics)
    }

    /// Reassembles a workload from *all six* raw arenas — primaries and
    /// derived tables alike — exactly as exposed by
    /// [`Workload::arenas`]. Unlike [`Workload::from_parts`] this never
    /// transposes, sorts, or ranks anything: the cost is a handful of
    /// O(|T| + |V| + P) bounds scans (offset monotonicity, id ranges)
    /// plus an O(|T|) total-rate sum, so loading a million-subscriber
    /// workload from an arena-preserving store is memory-bandwidth
    /// bound, not rebuild bound.
    ///
    /// The scans guarantee memory safety (every accessor index stays in
    /// bounds); *semantic* consistency — rows sorted and deduplicated,
    /// the follower CSR being the true transpose, the ranked arena's
    /// rate order — is the writer's contract, normally guarded by the
    /// store's per-section checksums.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::MalformedArenas`] naming the inconsistent arena
    /// when offsets are not monotone from 0 to the payload length, the
    /// ranked arena's length differs from the interest arena's, an id is
    /// out of range, or the pair count exceeds the packed u32 limit.
    pub fn from_arenas(
        rates: Vec<Rate>,
        interest_offsets: Vec<u32>,
        interest_topics: Vec<TopicId>,
        ranked_topics: Vec<TopicId>,
        follower_offsets: Vec<u32>,
        follower_ids: Vec<SubscriberId>,
    ) -> Result<Workload, WorkloadError> {
        fn check_offsets(
            offsets: &[u32],
            payload_len: usize,
            what: &'static str,
        ) -> Result<(), WorkloadError> {
            let malformed = WorkloadError::MalformedArenas(what);
            if offsets.first() != Some(&0) {
                return Err(malformed);
            }
            if offsets.last().map(|&o| o as usize) != Some(payload_len) {
                return Err(malformed);
            }
            // A branchless monotonicity fold (rather than an early-exit
            // `any`) so the scan vectorizes; million-entry offset arenas
            // cross this on every store load.
            let monotone = offsets
                .iter()
                .zip(&offsets[1..])
                .fold(true, |ok, (a, b)| ok & (a <= b));
            if !monotone {
                return Err(malformed);
            }
            Ok(())
        }
        if interest_topics.len() > u32::MAX as usize {
            return Err(WorkloadError::TooManyPairs);
        }
        if rates.len() > u32::MAX as usize || interest_offsets.len() > u32::MAX as usize {
            return Err(WorkloadError::TooManyEntities);
        }
        check_offsets(
            &interest_offsets,
            interest_topics.len(),
            "interest offsets must climb from 0 to the interest-arena length",
        )?;
        if ranked_topics.len() != interest_topics.len() {
            return Err(WorkloadError::MalformedArenas(
                "ranked arena length must equal the interest arena length",
            ));
        }
        if follower_offsets.len() != rates.len() + 1 {
            return Err(WorkloadError::MalformedArenas(
                "follower offsets must have one entry per topic plus a total",
            ));
        }
        check_offsets(
            &follower_offsets,
            follower_ids.len(),
            "follower offsets must climb from 0 to the follower-arena length",
        )?;
        if follower_ids.len() != interest_topics.len() {
            return Err(WorkloadError::MalformedArenas(
                "follower arena must hold exactly one id per interest pair",
            ));
        }
        // Range checks as max-folds instead of early-exit `any` scans:
        // the reduction vectorizes, and on valid data (the only hot
        // case — every store load) both forms scan the full arena.
        let num_topics = rates.len() as u32;
        let max_topic = |ids: &[TopicId]| ids.iter().map(|t| t.raw()).max();
        if max_topic(&interest_topics).is_some_and(|m| m >= num_topics)
            || max_topic(&ranked_topics).is_some_and(|m| m >= num_topics)
        {
            return Err(WorkloadError::MalformedArenas(
                "interest/ranked arenas reference a topic id out of range",
            ));
        }
        let num_subscribers = (interest_offsets.len() - 1) as u32;
        let max_follower = follower_ids.iter().map(|v| v.raw()).max();
        if max_follower.is_some_and(|m| m >= num_subscribers) {
            return Err(WorkloadError::MalformedArenas(
                "follower arena references a subscriber id out of range",
            ));
        }
        Ok(Workload::assemble(
            rates,
            interest_offsets,
            interest_topics,
            ranked_topics,
            follower_offsets,
            follower_ids,
        ))
    }

    /// Wraps six consistent arenas, deriving the two cached totals. Every
    /// constructor ends here; consistency is the caller's obligation.
    pub(crate) fn assemble(
        rates: Vec<Rate>,
        interest_offsets: Vec<u32>,
        interest_topics: Vec<TopicId>,
        ranked_topics: Vec<TopicId>,
        follower_offsets: Vec<u32>,
        follower_ids: Vec<SubscriberId>,
    ) -> Workload {
        let pair_count = interest_topics.len() as u64;
        let total_rate = rates.iter().copied().sum();
        Workload {
            rates,
            interest_offsets,
            interest_topics,
            ranked_topics,
            follower_offsets,
            follower_ids,
            pair_count,
            total_rate,
        }
    }

    /// Edits the workload in place into the next epoch's — the in-place
    /// commit of [`WorkloadEdit`](crate::WorkloadEdit), whose module docs
    /// give its cost. `rates` is the new rate table (this one's topics,
    /// some re-rated, then any new ones) and `topics` (ascending) lists
    /// every topic whose rate may differ; `subs` (ascending) are the
    /// subscribers whose interest rows change, `row(j)` the new sorted row
    /// of `subs[j]`; the table grows to `n` subscribers.
    pub(crate) fn edit_rows<'a>(
        &mut self,
        rates: &[Rate],
        topics: &[TopicId],
        subs: &[SubscriberId],
        n: usize,
        row: impl Fn(usize) -> &'a [TopicId],
    ) {
        // Read the old rows before they change: each changed pair becomes
        // one insert or one removal at its place in the follower arena.
        let old_topics = self.num_topics();
        let mut changes: Vec<(TopicId, SubscriberId, bool)> = Vec::new();
        for (j, &v) in subs.iter().enumerate() {
            let before = if v.index() < self.num_subscribers() {
                self.interests(v)
            } else {
                &[]
            };
            let after = row(j);
            let (mut i, mut k) = (0, 0);
            while i < before.len() || k < after.len() {
                if k == after.len() || (i < before.len() && before[i] < after[k]) {
                    changes.push((before[i], v, false));
                    i += 1;
                } else if i == before.len() || after[k] < before[i] {
                    changes.push((after[k], v, true));
                    k += 1;
                } else {
                    (i, k) = (i + 1, k + 1);
                }
            }
        }
        changes.sort_unstable();
        let follower_edits: Vec<(Range<usize>, usize)> = changes
            .iter()
            .map(|&(t, v, added)| {
                let at = if t.index() < old_topics {
                    self.follower_offsets[t.index()] as usize
                        + self.subscribers_of(t).partition_point(|&u| u < v)
                } else {
                    self.follower_ids.len()
                };
                if added {
                    (at..at, 1)
                } else {
                    (at..at + 1, 0)
                }
            })
            .collect();
        let rerated: Vec<TopicId> = topics
            .iter()
            .copied()
            .filter(|t| t.index() < old_topics && self.rates[t.index()] != rates[t.index()])
            .collect();

        // Rates: re-rated topics in place, new topics appended.
        for t in topics.iter().take_while(|t| t.index() < old_topics) {
            let (old, new) = (self.rates[t.index()], rates[t.index()]);
            self.total_rate = self.total_rate - old + new;
            self.rates[t.index()] = new;
        }
        let fresh = &rates[old_topics..];
        self.total_rate += fresh.iter().copied().sum();
        self.rates.reserve_exact(fresh.len());
        self.rates.extend_from_slice(fresh);

        splice_in_place(&mut self.follower_ids, &follower_edits, |j, slot| {
            slot.fill(changes[j].1);
        });
        let topic_deltas = changes.chunk_by(|a, b| a.0 == b.0).map(|group| {
            let added = group.iter().filter(|c| c.2).count() as isize;
            (group[0].0.index(), 2 * added - group.len() as isize)
        });
        shift_offsets(&mut self.follower_offsets, rates.len(), topic_deltas);

        let row_edits = splice_rows(
            &mut self.interest_offsets,
            &mut self.interest_topics,
            n,
            subs,
            &row,
        );
        self.pair_count = self.interest_topics.len() as u64;

        // Ranked arena: the changed rows re-rank as they are spliced in,
        // then the other followers of re-rated topics re-rank where they
        // lie. Mostly-dirty epochs use the scatter.
        let rank =
            |row: &mut [TopicId]| row.sort_unstable_by_key(|&t| (Reverse(rates[t.index()]), t));
        let mut rerank: Vec<usize> = Vec::new();
        if !rerated.is_empty() {
            let mut marked = vec![false; n];
            for v in subs {
                marked[v.index()] = true;
            }
            for &t in &rerated {
                for &v in self.subscribers_of(t) {
                    if !std::mem::replace(&mut marked[v.index()], true) {
                        rerank.push(v.index());
                    }
                }
                if (subs.len() + rerank.len()) * 2 > n {
                    break;
                }
            }
        }
        if (subs.len() + rerank.len()) * 2 > n {
            drop(std::mem::take(&mut self.ranked_topics));
            self.ranked_topics = rank_by_scatter(
                &self.rates,
                &self.interest_offsets,
                &self.follower_offsets,
                &self.follower_ids,
            );
        } else {
            splice_in_place(&mut self.ranked_topics, &row_edits, |j, slot| {
                slot.copy_from_slice(row(j));
                rank(slot);
            });
            for vi in rerank {
                let span =
                    self.interest_offsets[vi] as usize..self.interest_offsets[vi + 1] as usize;
                rank(&mut self.ranked_topics[span]);
            }
        }
    }

    /// Replaces `base` with the next epoch's workload — the rebuild commit
    /// of [`WorkloadEdit`](crate::WorkloadEdit): interest rows `subs`
    /// (ascending) become `row(j)` and the table grows to `n`
    /// subscribers, in place when `base` is unshared, and the derived
    /// arenas are rebuilt by counting sort against `rates`.
    pub(crate) fn rebuild_rows<'a>(
        base: &mut Arc<Workload>,
        rates: Vec<Rate>,
        subs: &[SubscriberId],
        n: usize,
        row: impl Fn(usize) -> &'a [TopicId],
    ) {
        // Only the interest CSR survives (copied if the base is shared).
        let (mut offsets, mut interests) = match Arc::get_mut(base) {
            Some(w) => (
                std::mem::take(&mut w.interest_offsets),
                std::mem::take(&mut w.interest_topics),
            ),
            None => (base.interest_offsets.clone(), base.interest_topics.clone()),
        };
        splice_rows(&mut offsets, &mut interests, n, subs, &row);
        *base = Arc::new(Workload::from_csr_u32(rates, offsets, interests));
    }

    /// Borrows all six raw arenas at once (primaries and derived
    /// tables), in construction layout — the write-side counterpart of
    /// [`Workload::from_arenas`].
    pub fn arenas(&self) -> WorkloadArenas<'_> {
        WorkloadArenas {
            rates: &self.rates,
            interest_offsets: &self.interest_offsets,
            interest_topics: &self.interest_topics,
            ranked_topics: &self.ranked_topics,
            follower_offsets: &self.follower_offsets,
            follower_ids: &self.follower_ids,
        }
    }

    /// Rebuilds a workload from a wire-format CSR interest table with
    /// machine-word offsets (deserialization), packing the offsets to u32.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` total pairs.
    fn from_csr(
        rates: Vec<Rate>,
        interest_offsets: Vec<usize>,
        interest_topics: Vec<TopicId>,
    ) -> Workload {
        let interest_offsets =
            shrink_offsets(interest_offsets).expect("interest arena exceeds u32::MAX pairs");
        Workload::from_csr_u32(rates, interest_offsets, interest_topics)
    }

    /// Rebuilds a workload from an already-normalized CSR interest table:
    /// `interest_offsets` has one entry per subscriber plus a trailing
    /// total, and each row of `interest_topics` is sorted, deduplicated,
    /// and in range. The derived follower CSR is recomputed by counting
    /// sort, and the rate-ranked arena by one global ranking plus a
    /// counting-sort scatter (no per-row sort). Primary arenas are shrunk
    /// to fit, so builder growth slack does not outlive construction.
    pub(crate) fn from_csr_u32(
        mut rates: Vec<Rate>,
        mut interest_offsets: Vec<u32>,
        mut interest_topics: Vec<TopicId>,
    ) -> Workload {
        debug_assert!(interest_offsets.first() == Some(&0));
        debug_assert!(interest_offsets.last().map(|&o| o as usize) == Some(interest_topics.len()));
        rates.shrink_to_fit();
        interest_offsets.shrink_to_fit();
        interest_topics.shrink_to_fit();
        let (follower_offsets, follower_ids) =
            transpose(rates.len(), &interest_offsets, &interest_topics);
        let ranked_topics =
            rank_by_scatter(&rates, &interest_offsets, &follower_offsets, &follower_ids);
        Workload::assemble(
            rates,
            interest_offsets,
            interest_topics,
            ranked_topics,
            follower_offsets,
            follower_ids,
        )
    }

    /// Number of topics `|T|`.
    #[inline]
    pub fn num_topics(&self) -> usize {
        self.rates.len()
    }

    /// Number of subscribers `|V|`.
    #[inline]
    pub fn num_subscribers(&self) -> usize {
        self.interest_offsets.len() - 1
    }

    /// Total number of topic-subscriber pairs `Σ_v |T_v|`.
    #[inline]
    pub fn pair_count(&self) -> u64 {
        self.pair_count
    }

    /// Event rate `ev_t` of a topic.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range for this workload.
    #[inline]
    pub fn rate(&self, t: TopicId) -> Rate {
        self.rates[t.index()]
    }

    /// All event rates, indexed by topic.
    #[inline]
    pub fn rates(&self) -> &[Rate] {
        &self.rates
    }

    /// The interest set `T_v` of a subscriber (sorted by topic id).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this workload.
    #[inline]
    pub fn interests(&self, v: SubscriberId) -> &[TopicId] {
        &self.interest_topics[self.interest_offsets[v.index()] as usize
            ..self.interest_offsets[v.index() + 1] as usize]
    }

    /// The interest set `T_v` pre-sorted by (descending `ev_t`, ascending
    /// topic id) — the order every greedy Stage-1 sweep consumes. The row
    /// is the same set as [`Workload::interests`], served from the
    /// rate-ranked arena so selectors never sort per subscriber.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this workload.
    #[inline]
    pub fn ranked_interests(&self, v: SubscriberId) -> &[TopicId] {
        &self.ranked_topics[self.interest_offsets[v.index()] as usize
            ..self.interest_offsets[v.index() + 1] as usize]
    }

    /// The global interest-arena position of the pair `(t, v)`, if `v` is
    /// interested in `t`. Positions are dense in `0..pair_count()`, so a
    /// flat bitmap indexed by them replaces per-subscriber hash sets in
    /// pair-dedup passes (e.g. allocation validation).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this workload.
    #[inline]
    pub fn pair_index(&self, v: SubscriberId, t: TopicId) -> Option<usize> {
        let start = self.interest_offsets[v.index()] as usize;
        let row = &self.interest_topics[start..self.interest_offsets[v.index() + 1] as usize];
        row.binary_search(&t).ok().map(|pos| start + pos)
    }

    /// The subscriber set `V_t` of a topic (sorted by subscriber id).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range for this workload.
    #[inline]
    pub fn subscribers_of(&self, t: TopicId) -> &[SubscriberId] {
        &self.follower_ids[self.follower_offsets[t.index()] as usize
            ..self.follower_offsets[t.index() + 1] as usize]
    }

    /// Iterates over all topic ids in index order.
    pub fn topics(&self) -> impl ExactSizeIterator<Item = TopicId> + '_ {
        (0..self.rates.len() as u32).map(TopicId::new)
    }

    /// Iterates over all subscriber ids in index order.
    pub fn subscribers(&self) -> impl ExactSizeIterator<Item = SubscriberId> + '_ {
        (0..self.num_subscribers() as u32).map(SubscriberId::new)
    }

    /// `Σ_t ev_t` — total publication rate across all topics.
    #[inline]
    pub fn total_rate(&self) -> Rate {
        self.total_rate
    }

    /// `Σ_{t ∈ T_v} ev_t` — the total event rate a subscriber could receive.
    pub fn subscriber_total_rate(&self, v: SubscriberId) -> Rate {
        self.interests(v).iter().map(|&t| self.rate(t)).sum()
    }

    /// The subscriber-specific satisfaction threshold
    /// `τ_v = min(τ, Σ_{t∈T_v} ev_t)` (paper §II-B).
    pub fn tau_v(&self, v: SubscriberId, tau: Rate) -> Rate {
        self.subscriber_total_rate(v).min(tau)
    }

    /// `v`'s rate-ranked row summed until the sum passes `tau`: the row's
    /// total when that is at most `tau`, otherwise the first prefix sum
    /// above `tau`. So it exceeds `tau` exactly when the total does, and
    /// its minimum with `tau` is `τ_v`. The row runs from the largest
    /// rate down, so the walk stops after as few topics as any order
    /// allows, where [`Workload::tau_v`] sums the whole row.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this workload.
    pub fn ranked_sum_past(&self, v: SubscriberId, tau: Rate) -> Rate {
        let mut sum = Rate::ZERO;
        for &t in self.ranked_interests(v) {
            sum += self.rate(t);
            if sum > tau {
                break;
            }
        }
        sum
    }

    /// Total *outgoing* delivery volume if every pair were served:
    /// `Σ_v Σ_{t∈T_v} ev_t`.
    pub fn full_outgoing_volume(&self) -> Bandwidth {
        self.subscribers()
            .map(|v| Bandwidth::from(self.subscriber_total_rate(v)))
            .sum()
    }

    /// Measures the heap bytes each arena holds (by capacity, so
    /// construction slack is visible). Divide by
    /// [`Workload::num_subscribers`] for a bytes-per-subscriber figure.
    pub fn footprint(&self) -> WorkloadFootprint {
        WorkloadFootprint {
            rates: vec_bytes(&self.rates),
            interest_offsets: vec_bytes(&self.interest_offsets),
            interest_topics: vec_bytes(&self.interest_topics),
            ranked_topics: vec_bytes(&self.ranked_topics),
            follower_offsets: vec_bytes(&self.follower_offsets),
            follower_ids: vec_bytes(&self.follower_ids),
        }
    }

    /// Checks the paper's structural assumptions; returns all violations
    /// found (an empty vector means the workload is fully regular).
    pub fn validate(&self) -> Vec<ValidationIssue> {
        let mut issues = Vec::new();
        for t in self.topics() {
            if self.subscribers_of(t).is_empty() {
                issues.push(ValidationIssue::TopicWithoutSubscribers(t));
            }
        }
        for v in self.subscribers() {
            if self.interests(v).is_empty() {
                issues.push(ValidationIssue::SubscriberWithoutInterests(v));
            }
        }
        issues
    }
}

/// Replaces rows `subs` (ascending) of an interest CSR (`offsets`,
/// `items`) with `row(j)` in place, growing the table to `n` rows; a row
/// past the table appends. Returns the arena edits made, which the ranked
/// arena shares.
fn splice_rows<'a>(
    offsets: &mut Vec<u32>,
    items: &mut Vec<TopicId>,
    n: usize,
    subs: &[SubscriberId],
    row: &impl Fn(usize) -> &'a [TopicId],
) -> Vec<(Range<usize>, usize)> {
    let end = items.len();
    let edits: Vec<(Range<usize>, usize)> = subs
        .iter()
        .enumerate()
        .map(|(j, v)| {
            let old = match offsets.get(v.index() + 1) {
                Some(&hi) => offsets[v.index()] as usize..hi as usize,
                None => end..end,
            };
            (old, row(j).len())
        })
        .collect();
    splice_in_place(items, &edits, |j, slot| slot.copy_from_slice(row(j)));
    let deltas = subs
        .iter()
        .zip(&edits)
        .map(|(v, (old, len))| (v.index(), *len as isize - old.len() as isize));
    shift_offsets(offsets, n, deltas);
    edits
}

/// Packs a machine-word offset table to u32, rejecting (never truncating)
/// tables whose arena would be unaddressable by u32 offsets.
fn shrink_offsets(offsets: Vec<usize>) -> Result<Vec<u32>, WorkloadError> {
    if offsets.last().is_some_and(|&o| o > u32::MAX as usize) {
        return Err(WorkloadError::TooManyPairs);
    }
    Ok(offsets.into_iter().map(|o| o as u32).collect())
}

/// Normalizes raw per-subscriber interest lists into the CSR shape every
/// constructor stores: out-of-range topics dropped, rows sorted and
/// deduplicated, one flat arena plus offsets. The arena is reserved to
/// the input pair count up front (dedup/drop only ever shrinks it), so
/// the hot epoch path never pays doubling-growth slack.
///
/// # Panics
///
/// Panics past `u32::MAX` total pairs.
fn normalize_interests(
    num_topics: usize,
    mut interests: Vec<Vec<TopicId>>,
) -> (Vec<u32>, Vec<TopicId>) {
    let mut interest_offsets = Vec::with_capacity(interests.len() + 1);
    interest_offsets.push(0u32);
    let mut interest_topics = Vec::with_capacity(interests.iter().map(Vec::len).sum());
    for tv in &mut interests {
        tv.retain(|t| t.index() < num_topics);
        tv.sort_unstable();
        tv.dedup();
        interest_topics.extend_from_slice(tv);
        let end =
            u32::try_from(interest_topics.len()).expect("interest arena exceeds u32::MAX pairs");
        interest_offsets.push(end);
    }
    (interest_offsets, interest_topics)
}

/// Transposes a normalized interest CSR into the follower CSR by counting
/// sort: one pass to size each follower row, a prefix sum for the
/// offsets, one pass to scatter the ids. Rows come out sorted by
/// subscriber id because subscribers are visited in ascending order.
pub(crate) fn transpose(
    num_topics: usize,
    interest_offsets: &[u32],
    interest_topics: &[TopicId],
) -> (Vec<u32>, Vec<SubscriberId>) {
    let num_subscribers = interest_offsets.len() - 1;
    let mut follower_offsets = vec![0u32; num_topics + 1];
    for &t in interest_topics {
        follower_offsets[t.index() + 1] += 1;
    }
    for i in 1..=num_topics {
        follower_offsets[i] += follower_offsets[i - 1];
    }
    let mut follower_ids = vec![SubscriberId::new(0); interest_topics.len()];
    let mut cursor = follower_offsets.clone();
    for vi in 0..num_subscribers {
        let row =
            &interest_topics[interest_offsets[vi] as usize..interest_offsets[vi + 1] as usize];
        for &t in row {
            follower_ids[cursor[t.index()] as usize] = SubscriberId::new(vi as u32);
            cursor[t.index()] += 1;
        }
    }
    (follower_offsets, follower_ids)
}

/// Builds the rate-ranked arena (same row boundaries as
/// `interest_offsets`): visit topics in one global (descending rate,
/// ascending id) order and scatter through the follower rows — every
/// interest row comes out in exactly that order, one O(|T| log |T|)
/// ranking plus an O(P) pass instead of a sort per row.
fn rank_by_scatter(
    rates: &[Rate],
    interest_offsets: &[u32],
    follower_offsets: &[u32],
    follower_ids: &[SubscriberId],
) -> Vec<TopicId> {
    let mut by_rate: Vec<u32> = (0..rates.len() as u32).collect();
    by_rate.sort_unstable_by_key(|&t| (Reverse(rates[t as usize]), t));
    let mut ranked_topics = vec![TopicId::new(0); follower_ids.len()];
    let mut cursor: Vec<u32> = interest_offsets[..interest_offsets.len() - 1].to_vec();
    for &ti in &by_rate {
        let t = TopicId::new(ti);
        for &v in &follower_ids
            [follower_offsets[ti as usize] as usize..follower_offsets[ti as usize + 1] as usize]
        {
            ranked_topics[cursor[v.index()] as usize] = t;
            cursor[v.index()] += 1;
        }
    }
    ranked_topics
}

/// Incremental constructor for [`Workload`].
///
/// Topics must be added before the subscribers that reference them; ids are
/// assigned densely in insertion order. Interests accumulate directly into
/// the flat CSR arena the finished [`Workload`] stores, so building a
/// multi-million-pair trace performs no per-subscriber heap allocation.
#[derive(Clone, Debug)]
pub struct WorkloadBuilder {
    rates: Vec<Rate>,
    interest_offsets: Vec<u32>,
    interest_topics: Vec<TopicId>,
}

impl Default for WorkloadBuilder {
    fn default() -> Self {
        WorkloadBuilder {
            rates: Vec::new(),
            interest_offsets: vec![0],
            interest_topics: Vec::new(),
        }
    }
}

impl WorkloadBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        WorkloadBuilder::default()
    }

    /// Creates a builder with capacity hints for large traces.
    pub fn with_capacity(topics: usize, subscribers: usize) -> Self {
        let mut interest_offsets = Vec::with_capacity(subscribers + 1);
        interest_offsets.push(0);
        WorkloadBuilder {
            rates: Vec::with_capacity(topics),
            interest_offsets,
            interest_topics: Vec::new(),
        }
    }

    /// Registers a topic with event rate `ev_t`, returning its id.
    ///
    /// # Errors
    ///
    /// * [`WorkloadError::ZeroEventRate`] if `rate` is zero;
    /// * [`WorkloadError::RateTooLarge`] if `rate > MAX_RATE`;
    /// * [`WorkloadError::TooManyEntities`] past `u32::MAX` topics.
    pub fn add_topic(&mut self, rate: Rate) -> Result<TopicId, WorkloadError> {
        if rate.is_zero() {
            return Err(WorkloadError::ZeroEventRate);
        }
        if rate.get() > MAX_RATE {
            return Err(WorkloadError::RateTooLarge { rate });
        }
        let idx = u32::try_from(self.rates.len()).map_err(|_| WorkloadError::TooManyEntities)?;
        self.rates.push(rate);
        Ok(TopicId::new(idx))
    }

    /// Registers a subscriber with the given interest set, returning its id.
    /// Duplicate topics in the interest list are deduplicated.
    ///
    /// # Errors
    ///
    /// * [`WorkloadError::UnknownTopic`] if any interest references a topic
    ///   that was not added first;
    /// * [`WorkloadError::TooManyEntities`] past `u32::MAX` subscribers;
    /// * [`WorkloadError::TooManyPairs`] if the flat interest arena would
    ///   exceed `u32::MAX` pairs (the packed CSR offset limit).
    pub fn add_subscriber<I>(&mut self, topics: I) -> Result<SubscriberId, WorkloadError>
    where
        I: IntoIterator<Item = TopicId>,
    {
        let idx =
            u32::try_from(self.num_subscribers()).map_err(|_| WorkloadError::TooManyEntities)?;
        let start = self.interest_topics.len();
        self.interest_topics.extend(topics);
        for &t in &self.interest_topics[start..] {
            if t.index() >= self.rates.len() {
                self.interest_topics.truncate(start);
                return Err(WorkloadError::UnknownTopic {
                    topic: t,
                    num_topics: self.rates.len(),
                });
            }
        }
        self.interest_topics[start..].sort_unstable();
        // In-row dedup (cross-row duplicates are different subscribers'
        // interests and must survive).
        let row = &mut self.interest_topics[start..];
        let mut write = 0usize;
        for read in 0..row.len() {
            if read == 0 || row[read] != row[read - 1] {
                row[write] = row[read];
                write += 1;
            }
        }
        let new_len = start + write;
        let Ok(end) = u32::try_from(new_len) else {
            self.interest_topics.truncate(start);
            return Err(WorkloadError::TooManyPairs);
        };
        self.interest_topics.truncate(new_len);
        self.interest_offsets.push(end);
        Ok(SubscriberId::new(idx))
    }

    /// Number of topics added so far.
    pub fn num_topics(&self) -> usize {
        self.rates.len()
    }

    /// Number of subscribers added so far.
    pub fn num_subscribers(&self) -> usize {
        self.interest_offsets.len() - 1
    }

    /// Finalizes the workload, computing the derived `V_t` tables.
    pub fn build(self) -> Workload {
        Workload::from_csr_u32(self.rates, self.interest_offsets, self.interest_topics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        let mut b = Workload::builder();
        let t0 = b.add_topic(Rate::new(20)).unwrap();
        let t1 = b.add_topic(Rate::new(10)).unwrap();
        b.add_subscriber([t0, t1]).unwrap();
        b.add_subscriber([t1]).unwrap();
        b.add_subscriber([t1, t0, t1]).unwrap(); // duplicate t1 deduped
        b.build()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = Workload::builder();
        assert_eq!(b.add_topic(Rate::new(1)).unwrap(), TopicId::new(0));
        assert_eq!(b.add_topic(Rate::new(2)).unwrap(), TopicId::new(1));
        assert_eq!(b.add_subscriber([]).unwrap(), SubscriberId::new(0));
        assert_eq!(b.num_topics(), 2);
        assert_eq!(b.num_subscribers(), 1);
    }

    #[test]
    fn derived_tables_are_consistent() {
        let w = tiny();
        assert_eq!(w.num_topics(), 2);
        assert_eq!(w.num_subscribers(), 3);
        assert_eq!(w.pair_count(), 5);
        assert_eq!(w.total_rate(), Rate::new(30));
        assert_eq!(
            w.subscribers_of(TopicId::new(0)),
            &[SubscriberId::new(0), SubscriberId::new(2)]
        );
        assert_eq!(
            w.subscribers_of(TopicId::new(1)),
            &[
                SubscriberId::new(0),
                SubscriberId::new(1),
                SubscriberId::new(2)
            ]
        );
    }

    #[test]
    fn interests_are_sorted_and_deduped() {
        let w = tiny();
        assert_eq!(
            w.interests(SubscriberId::new(2)),
            &[TopicId::new(0), TopicId::new(1)]
        );
    }

    #[test]
    fn tau_v_caps_at_total_rate() {
        let w = tiny();
        let v0 = SubscriberId::new(0);
        assert_eq!(w.subscriber_total_rate(v0), Rate::new(30));
        assert_eq!(w.tau_v(v0, Rate::new(100)), Rate::new(30));
        assert_eq!(w.tau_v(v0, Rate::new(25)), Rate::new(25));
        let v1 = SubscriberId::new(1);
        assert_eq!(w.tau_v(v1, Rate::new(100)), Rate::new(10));
    }

    #[test]
    fn ranked_sum_stops_at_the_first_prefix_past_tau() {
        let w = tiny();
        let v0 = SubscriberId::new(0); // ranked row: t0 (20), t1 (10)
        assert_eq!(w.ranked_sum_past(v0, Rate::new(100)), Rate::new(30));
        // A total equal to τ has not passed it.
        assert_eq!(w.ranked_sum_past(v0, Rate::new(30)), Rate::new(30));
        assert_eq!(w.ranked_sum_past(v0, Rate::new(25)), Rate::new(30));
        assert_eq!(w.ranked_sum_past(v0, Rate::new(19)), Rate::new(20));
        assert_eq!(w.ranked_sum_past(v0, Rate::ZERO), Rate::new(20));
        let empty = Workload::from_parts(vec![Rate::new(5)], vec![vec![]]);
        assert_eq!(
            empty.ranked_sum_past(SubscriberId::new(0), Rate::ZERO),
            Rate::ZERO
        );
    }

    #[test]
    fn zero_rate_rejected() {
        let mut b = Workload::builder();
        assert_eq!(b.add_topic(Rate::ZERO), Err(WorkloadError::ZeroEventRate));
    }

    #[test]
    fn oversized_rate_rejected() {
        let mut b = Workload::builder();
        let huge = Rate::new(MAX_RATE + 1);
        assert_eq!(
            b.add_topic(huge),
            Err(WorkloadError::RateTooLarge { rate: huge })
        );
        assert!(b.add_topic(Rate::new(MAX_RATE)).is_ok());
    }

    #[test]
    fn unknown_topic_rejected() {
        let mut b = Workload::builder();
        b.add_topic(Rate::new(1)).unwrap();
        let err = b.add_subscriber([TopicId::new(5)]).unwrap_err();
        assert_eq!(
            err,
            WorkloadError::UnknownTopic {
                topic: TopicId::new(5),
                num_topics: 1
            }
        );
    }

    #[test]
    fn validate_flags_irregularities() {
        let mut b = Workload::builder();
        let t0 = b.add_topic(Rate::new(1)).unwrap();
        let _t1 = b.add_topic(Rate::new(2)).unwrap(); // never subscribed
        b.add_subscriber([t0]).unwrap();
        b.add_subscriber([]).unwrap(); // empty interests
        let w = b.build();
        let issues = w.validate();
        assert_eq!(issues.len(), 2);
        assert!(issues.contains(&ValidationIssue::TopicWithoutSubscribers(TopicId::new(1))));
        assert!(
            issues.contains(&ValidationIssue::SubscriberWithoutInterests(
                SubscriberId::new(1)
            ))
        );
        assert!(tiny().validate().is_empty());
    }

    #[test]
    fn full_outgoing_volume_counts_every_pair() {
        let w = tiny();
        // v0: 30, v1: 10, v2: 30
        assert_eq!(w.full_outgoing_volume(), Bandwidth::new(70));
    }

    #[test]
    fn ranked_interests_are_rate_descending_id_ascending() {
        let mut b = Workload::builder();
        let t0 = b.add_topic(Rate::new(10)).unwrap();
        let t1 = b.add_topic(Rate::new(20)).unwrap();
        let t2 = b.add_topic(Rate::new(10)).unwrap();
        let t3 = b.add_topic(Rate::new(30)).unwrap();
        b.add_subscriber([t0, t1, t2, t3]).unwrap();
        b.add_subscriber([t2, t0]).unwrap();
        let w = b.build();
        // Rates 30, 20, then the 10-rate tie broken by ascending id.
        assert_eq!(w.ranked_interests(SubscriberId::new(0)), &[t3, t1, t0, t2]);
        assert_eq!(w.ranked_interests(SubscriberId::new(1)), &[t0, t2]);
        // Same set as the id-ordered row.
        for v in w.subscribers() {
            let mut ranked: Vec<TopicId> = w.ranked_interests(v).to_vec();
            ranked.sort_unstable();
            assert_eq!(ranked, w.interests(v));
        }
    }

    #[test]
    fn pair_index_is_dense_and_exact() {
        let w = tiny();
        let mut seen = vec![false; w.pair_count() as usize];
        for v in w.subscribers() {
            for &t in w.interests(v) {
                let i = w.pair_index(v, t).expect("interest pair has an index");
                assert!(!seen[i], "pair index {i} reused");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Non-interests have none.
        assert_eq!(w.pair_index(SubscriberId::new(1), TopicId::new(0)), None);
    }

    #[test]
    fn from_parts_drops_out_of_range_interests() {
        let w = Workload::from_parts(
            vec![Rate::new(5)],
            vec![vec![TopicId::new(0), TopicId::new(9)]],
        );
        assert_eq!(w.interests(SubscriberId::new(0)), &[TopicId::new(0)]);
        assert_eq!(w.pair_count(), 1);
    }

    #[test]
    fn u32_offset_construction_rejects_overflow_with_typed_error() {
        // A pair arena past u32::MAX offsets must be rejected, never
        // silently truncated. The overflowing table can't be materialized
        // through real interests in a test, so exercise the checked
        // conversion every wire-format path funnels through.
        assert_eq!(
            shrink_offsets(vec![0, u32::MAX as usize + 1]),
            Err(WorkloadError::TooManyPairs)
        );
        assert_eq!(
            shrink_offsets(vec![0, 3, u32::MAX as usize]),
            Ok(vec![0, 3, u32::MAX])
        );
        assert!(WorkloadError::TooManyPairs.to_string().contains("u32"));
    }

    #[test]
    fn arenas_are_shrunk_to_fit_after_build() {
        // Builder growth slack must not outlive construction: every arena
        // the finished workload holds is capacity == length.
        let w = tiny();
        let fp = w.footprint();
        assert_eq!(fp.rates, w.num_topics() * std::mem::size_of::<Rate>());
        assert_eq!(
            fp.interest_offsets,
            (w.num_subscribers() + 1) * std::mem::size_of::<u32>()
        );
        assert_eq!(
            fp.interest_topics,
            w.pair_count() as usize * std::mem::size_of::<TopicId>()
        );
        assert_eq!(fp.ranked_topics, fp.interest_topics);
        assert_eq!(
            fp.follower_offsets,
            (w.num_topics() + 1) * std::mem::size_of::<u32>()
        );
        assert_eq!(
            fp.follower_ids,
            w.pair_count() as usize * std::mem::size_of::<SubscriberId>()
        );
    }

    #[test]
    fn error_messages_render() {
        let e = WorkloadError::UnknownTopic {
            topic: TopicId::new(5),
            num_topics: 1,
        };
        assert!(e.to_string().contains("t5"));
        assert!(WorkloadError::ZeroEventRate
            .to_string()
            .contains("positive"));
    }
}
