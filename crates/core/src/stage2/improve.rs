//! Anytime Stage-2 improvement — certificate-guided local search.
//!
//! Takes any feasible allocation (CBP, mixed-fleet, or ledger-exported)
//! and applies deterministic, cost-non-increasing moves until the cost
//! meets the Alg. 5 [`lower_bound`](crate::lower_bound) certificate, the
//! [`SearchBudget`] runs out, or no move improves:
//!
//! * **group re-home** — a topic split across VMs loses one incoming
//!   stream when its smallest group moves to a co-host with room;
//! * **pairwise group swap** — two VMs that both host topics `t` and `u`
//!   exchange whole groups, saving both incoming streams even when
//!   neither single re-home fits on its own;
//! * **under-full VM dissolution** — relocate *every* group of a light
//!   VM (co-hosts preferred) and release it, checked against each VM's
//!   own tier capacity;
//! * **tier re-type** (mixed fleets) — re-run the mixed packer's
//!   downsize rule per VM after loads shrank.
//!
//! Every move strictly shrinks bandwidth, the fleet, or the rental bill
//! and never grows any of them, so cost is non-increasing under any
//! monotone cost model and the search terminates. Moves relocate whole
//! pair sets — the Stage-1 selection and every delivered rate are
//! bit-identical before and after. All scans visit VMs and topics in
//! sorted order: given the same input and step budget, the result is
//! identical on every run (wall-clock budgets stop early at a
//! machine-dependent point and are therefore kept out of replayed
//! contexts like `serve` compaction).

use super::mixed::{downsize, typing_for};
use crate::Allocation;
use cloud_cost::{CostModel, FleetCostModel, Money};
use pubsub_model::{Bandwidth, SubscriberId, TopicId, Workload};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// One VM of a fleet under search: `(topic, subscribers)` rows sorted by
/// topic id — the same layout `Allocation` placements use, so fleets move
/// in and out of the search without re-hashing.
type VmGroups = Vec<(TopicId, Vec<SubscriberId>)>;

/// Position of topic `t` in a VM's sorted rows, if hosted.
#[inline]
fn group_pos(vm: &VmGroups, t: TopicId) -> Option<usize> {
    vm.binary_search_by_key(&t, |&(tt, _)| tt).ok()
}

/// Recomputes a VM's bandwidth (Eq. 2) under current rates.
fn vm_usage(vm: &VmGroups, workload: &Workload) -> Bandwidth {
    let mut total = Bandwidth::ZERO;
    for (t, subs) in vm {
        total += workload.rate(*t) * (subs.len() as u64 + 1);
    }
    total
}

/// How long the anytime search may run. The default is unbounded (run to
/// local optimality); either limit alone stops the search early, and the
/// certificate can stop it earlier still.
///
/// Step budgets (`max_steps` = applied moves) are deterministic and safe
/// to replay; wall-clock budgets (`max_time`) stop at a machine-dependent
/// point and must not be used where bit-identical replay matters (the
/// serve daemon's compaction epochs use steps only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum number of applied moves; `None` = unlimited.
    pub max_steps: Option<u64>,
    /// Wall-clock limit; `None` = unlimited.
    pub max_time: Option<Duration>,
}

impl SearchBudget {
    /// No limits: search until the certificate or local optimality.
    pub const UNBOUNDED: SearchBudget = SearchBudget {
        max_steps: None,
        max_time: None,
    };

    /// A deterministic budget of at most `n` applied moves.
    pub fn steps(n: u64) -> SearchBudget {
        SearchBudget {
            max_steps: Some(n),
            max_time: None,
        }
    }

    /// A wall-clock budget (non-deterministic stopping point).
    pub fn time(limit: Duration) -> SearchBudget {
        SearchBudget {
            max_steps: None,
            max_time: Some(limit),
        }
    }
}

/// What one improvement run did: move counts, the cost trajectory, and
/// whether the certificate closed the gap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImproveReport {
    /// Total applied moves.
    pub steps: u64,
    /// Whole-group re-homes onto co-hosts.
    pub rehomed: u64,
    /// Pairwise group swaps.
    pub swapped: u64,
    /// VMs dissolved (wholesale relocation + release).
    pub dissolved: u64,
    /// VMs re-typed to a cheaper tier (mixed fleets only).
    pub retyped: u64,
    /// Objective before any move.
    pub initial_cost: Money,
    /// Objective after the last move.
    pub final_cost: Money,
    /// The lower-bound certificate the search ran against.
    pub certificate: Money,
    /// `final_cost ≤ certificate`: the solution is provably optimal and
    /// the search stopped early.
    pub certificate_met: bool,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

impl ImproveReport {
    fn new(certificate: Money) -> ImproveReport {
        ImproveReport {
            steps: 0,
            rehomed: 0,
            swapped: 0,
            dissolved: 0,
            retyped: 0,
            initial_cost: Money::ZERO,
            final_cost: Money::ZERO,
            certificate,
            certificate_met: false,
            elapsed: Duration::ZERO,
        }
    }

    /// `initial_cost − final_cost` (never negative).
    pub fn saved(&self) -> Money {
        self.initial_cost - self.final_cost
    }
}

impl fmt::Display for ImproveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} moves ({} rehome, {} swap, {} dissolve, {} retype): {} -> {} \
             in {:.3}s (certificate {}, {})",
            self.steps,
            self.rehomed,
            self.swapped,
            self.dissolved,
            self.retyped,
            self.initial_cost,
            self.final_cost,
            self.elapsed.as_secs_f64(),
            self.certificate,
            if self.certificate_met {
                "met: provably optimal"
            } else {
                "open"
            }
        )
    }
}

/// How the search prices the fleet and bounds each VM.
#[derive(Clone, Copy)]
enum Pricing<'a> {
    Homogeneous {
        capacity: Bandwidth,
        model: &'a dyn CostModel,
    },
    Mixed {
        fleet: &'a FleetCostModel,
    },
}

struct Search<'a> {
    workload: &'a Workload,
    fleet: Vec<VmGroups>,
    used: Vec<Bandwidth>,
    /// Per-VM fleet-tier index (parallel to `fleet`); empty when
    /// homogeneous.
    tier: Vec<u32>,
    /// Live (non-empty) VMs per tier; only maintained when mixed.
    tier_counts: Vec<usize>,
    live_vms: usize,
    total_bw: Bandwidth,
    pricing: Pricing<'a>,
    certificate: Money,
    deadline: Option<Instant>,
    steps_left: Option<u64>,
    report: ImproveReport,
    done: bool,
}

impl<'a> Search<'a> {
    fn new(
        workload: &'a Workload,
        fleet: Vec<VmGroups>,
        tier: Vec<u32>,
        pricing: Pricing<'a>,
        certificate: Money,
        budget: SearchBudget,
    ) -> Search<'a> {
        let used: Vec<Bandwidth> = fleet.iter().map(|vm| vm_usage(vm, workload)).collect();
        let total_bw = used.iter().fold(Bandwidth::ZERO, |acc, &u| acc + u);
        let live_vms = fleet.iter().filter(|vm| !vm.is_empty()).count();
        let tier_counts = match pricing {
            Pricing::Homogeneous { .. } => Vec::new(),
            Pricing::Mixed { fleet: model } => {
                let mut counts = vec![0usize; model.tier_count()];
                for (vm, &t) in fleet.iter().zip(&tier) {
                    if !vm.is_empty() {
                        counts[t as usize] += 1;
                    }
                }
                counts
            }
        };
        Search {
            workload,
            fleet,
            used,
            tier,
            tier_counts,
            live_vms,
            total_bw,
            pricing,
            certificate,
            deadline: budget.max_time.map(|limit| Instant::now() + limit),
            steps_left: budget.max_steps,
            done: budget.max_steps == Some(0),
            report: ImproveReport::new(certificate),
        }
    }

    #[inline]
    fn cap(&self, i: usize) -> Bandwidth {
        match self.pricing {
            Pricing::Homogeneous { capacity, .. } => capacity,
            Pricing::Mixed { fleet } => fleet.capacity(self.tier[i] as usize),
        }
    }

    #[inline]
    fn free(&self, i: usize) -> Bandwidth {
        self.cap(i).saturating_sub(self.used[i])
    }

    fn current_cost(&self) -> Money {
        match self.pricing {
            Pricing::Homogeneous { model, .. } => model.total_cost(self.live_vms, self.total_bw),
            Pricing::Mixed { fleet } => fleet.fleet_cost(&self.tier_counts, self.total_bw),
        }
    }

    fn vm_emptied(&mut self, i: usize) {
        self.live_vms -= 1;
        if matches!(self.pricing, Pricing::Mixed { .. }) {
            self.tier_counts[self.tier[i] as usize] -= 1;
        }
    }

    fn check_certificate(&mut self) {
        if self.current_cost() <= self.certificate {
            self.report.certificate_met = true;
            self.done = true;
        }
    }

    fn check_time(&mut self) {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.done = true;
            }
        }
    }

    /// Bookkeeping after every applied move: step accounting, then the
    /// certificate and budget stop conditions.
    fn after_move(&mut self) {
        self.report.steps += 1;
        if let Some(left) = &mut self.steps_left {
            *left -= 1;
            if *left == 0 {
                self.done = true;
            }
        }
        self.check_certificate();
        self.check_time();
    }

    /// Topic → hosting VM indices in VM order (entries unique — a VM
    /// hosts each topic in at most one row).
    fn host_index(&self) -> HashMap<TopicId, Vec<usize>> {
        let mut index: HashMap<TopicId, Vec<usize>> = HashMap::new();
        for (i, vm) in self.fleet.iter().enumerate() {
            for &(t, _) in vm.iter() {
                index.entry(t).or_default().push(i);
            }
        }
        index
    }

    /// Topics hosted on more than one VM, ascending.
    fn split_topics(index: &HashMap<TopicId, Vec<usize>>) -> Vec<TopicId> {
        let mut split: Vec<TopicId> = index
            .iter()
            .filter(|(_, vms)| vms.len() > 1)
            .map(|(&t, _)| t)
            .collect();
        split.sort_unstable();
        split
    }

    fn run(&mut self) {
        self.report.initial_cost = self.current_cost();
        if !self.done {
            self.check_certificate();
        }
        while !self.done {
            let mut any = self.rehome_pass();
            if self.done {
                break;
            }
            any |= self.swap_pass();
            if self.done {
                break;
            }
            any |= self.dissolve_pass();
            if self.done {
                break;
            }
            any |= self.retype_pass();
            if !any {
                break;
            }
        }
        self.report.final_cost = self.current_cost();
        debug_assert!(
            self.report.final_cost <= self.report.initial_cost,
            "improvement moves must never raise cost"
        );
    }

    /// Phase-1 re-homing under per-VM capacities: while a topic is split
    /// and another of its hosts can absorb the whole smallest group, move
    /// it there — each move saves one incoming stream.
    fn rehome_pass(&mut self) -> bool {
        let host_index = self.host_index();
        let mut moved_any = false;
        for t in Self::split_topics(&host_index) {
            self.check_time();
            if self.done {
                break;
            }
            let rate = self.workload.rate(t);
            if rate.volume().is_zero() {
                continue; // nothing to save
            }
            loop {
                let mut live: Vec<(usize, usize)> = host_index[&t]
                    .iter()
                    .filter_map(|&i| group_pos(&self.fleet[i], t).map(|pos| (i, pos)))
                    .collect();
                if live.len() < 2 {
                    break;
                }
                live.sort_unstable_by_key(|&(i, pos)| (self.fleet[i][pos].1.len(), i));
                let (src, src_pos) = live[0];
                let group_out = rate * self.fleet[src][src_pos].1.len() as u64;
                let dst = live[1..]
                    .iter()
                    .copied()
                    .filter(|&(i, _)| self.free(i) >= group_out)
                    .max_by_key(|&(i, _)| (self.free(i), Reverse(i)));
                let Some((dst, dst_pos)) = dst else {
                    break; // nothing can take the smallest group whole
                };
                let (_, moved) = self.fleet[src].remove(src_pos);
                self.used[src] = self.used[src].saturating_sub(group_out + rate.volume());
                self.used[dst] += group_out;
                self.fleet[dst][dst_pos].1.extend(moved);
                self.total_bw = self.total_bw.saturating_sub(rate.volume());
                if self.fleet[src].is_empty() {
                    self.vm_emptied(src);
                }
                self.report.rehomed += 1;
                moved_any = true;
                self.after_move();
                if self.done {
                    return moved_any;
                }
            }
        }
        moved_any
    }

    /// Pairwise group swap: VMs `a` and `b` both host topics `t` and `u`;
    /// exchanging `a`'s `t`-group for `b`'s `u`-group removes both
    /// incoming streams at once, succeeding where neither single re-home
    /// has room.
    fn swap_pass(&mut self) -> bool {
        let host_index = self.host_index();
        let mut moved_any = false;
        for t in Self::split_topics(&host_index) {
            self.check_time();
            if self.done {
                break;
            }
            loop {
                let hosts: Vec<usize> = host_index[&t]
                    .iter()
                    .copied()
                    .filter(|&i| group_pos(&self.fleet[i], t).is_some())
                    .collect();
                if hosts.len() < 2 {
                    break;
                }
                let mut applied = false;
                'pairs: for &a in &hosts {
                    for &b in &hosts {
                        if a == b {
                            continue;
                        }
                        if let Some((u, new_a, new_b)) = self.find_swap(t, a, b) {
                            self.apply_swap(t, u, a, b, new_a, new_b);
                            applied = true;
                            moved_any = true;
                            break 'pairs;
                        }
                    }
                }
                if !applied {
                    break;
                }
                self.after_move();
                if self.done {
                    return moved_any;
                }
            }
        }
        moved_any
    }

    /// First topic `u` (ascending) such that swapping `a`'s `t`-group for
    /// `b`'s `u`-group is feasible, with both VMs' new loads.
    fn find_swap(&self, t: TopicId, a: usize, b: usize) -> Option<(TopicId, Bandwidth, Bandwidth)> {
        let pa_t = group_pos(&self.fleet[a], t)?;
        group_pos(&self.fleet[b], t)?;
        let ev_t = self.workload.rate(t);
        let nt = self.fleet[a][pa_t].1.len() as u64;
        for (u, subs_u) in &self.fleet[b] {
            let u = *u;
            if u == t || group_pos(&self.fleet[a], u).is_none() {
                continue;
            }
            let ev_u = self.workload.rate(u);
            if ev_t.volume().is_zero() && ev_u.volume().is_zero() {
                continue; // no saving
            }
            let nu = subs_u.len() as u64;
            // a drops its whole t-group ((nt+1)·ev_t) and absorbs b's u
            // pairs (nu·ev_u, incoming already paid); b mirrors this.
            let new_a = (self.used[a] + ev_u * nu).saturating_sub(ev_t * (nt + 1));
            let new_b = (self.used[b] + ev_t * nt).saturating_sub(ev_u * (nu + 1));
            if new_a <= self.cap(a) && new_b <= self.cap(b) {
                return Some((u, new_a, new_b));
            }
        }
        None
    }

    fn apply_swap(
        &mut self,
        t: TopicId,
        u: TopicId,
        a: usize,
        b: usize,
        new_a: Bandwidth,
        new_b: Bandwidth,
    ) {
        let pa_t = group_pos(&self.fleet[a], t).expect("a hosts t");
        let (_, subs_t) = self.fleet[a].remove(pa_t);
        let pb_t = group_pos(&self.fleet[b], t).expect("b hosts t");
        self.fleet[b][pb_t].1.extend(subs_t);
        let pb_u = group_pos(&self.fleet[b], u).expect("b hosts u");
        let (_, subs_u) = self.fleet[b].remove(pb_u);
        let pa_u = group_pos(&self.fleet[a], u).expect("a hosts u");
        self.fleet[a][pa_u].1.extend(subs_u);
        self.used[a] = new_a;
        self.used[b] = new_b;
        let saved = self.workload.rate(t).volume() + self.workload.rate(u).volume();
        self.total_bw = self.total_bw.saturating_sub(saved);
        // Neither VM empties: a keeps its u-group, b keeps its t-group.
        self.report.swapped += 1;
    }

    /// Phase-2 dissolution under per-VM capacities: lightest candidates
    /// first, plan a home for every group (co-hosts save an incoming
    /// stream, any other VM is bandwidth-neutral), commit only when the
    /// whole VM empties. Candidates are the VMs at ≤ 75% utilization,
    /// the 16 lightest of them, and the pass stops after 4 consecutive
    /// infeasible plans.
    fn dissolve_pass(&mut self) -> bool {
        let mut host_index = self.host_index();
        let mut total_free: u128 = (0..self.fleet.len())
            .filter(|&i| !self.fleet[i].is_empty())
            .map(|i| u128::from(self.free(i).get()))
            .sum();
        let mut order: Vec<usize> = (0..self.fleet.len())
            .filter(|&i| {
                !self.fleet[i].is_empty()
                    && u128::from(self.used[i].get()) * 4 <= u128::from(self.cap(i).get()) * 3
            })
            .collect();
        order.sort_unstable_by_key(|&i| (self.used[i], i));
        order.truncate(16);
        const MAX_CONSECUTIVE_FAILURES: usize = 4;
        let mut consecutive_failures = 0usize;
        let mut any = false;
        for &src in &order {
            self.check_time();
            if self.done || consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
                break;
            }
            // Cheap necessary condition: the rest of the fleet must have
            // at least the source's volume free.
            let src_free = u128::from(self.free(src).get());
            if u128::from(self.used[src].get()) > total_free - src_free {
                consecutive_failures += 1;
                continue;
            }
            // Plan with tentative headroom so one destination is not
            // promised to two groups; rows are topic-sorted, so the plan
            // is deterministic.
            let mut claimed: HashMap<usize, Bandwidth> = HashMap::new();
            let mut plan: Vec<(usize, bool)> = Vec::with_capacity(self.fleet[src].len());
            let mut feasible = true;
            for &(t, ref subs) in &self.fleet[src] {
                let rate = self.workload.rate(t);
                let pairs = subs.len() as u64;
                let free_at = |i: usize, claimed: &HashMap<usize, Bandwidth>| {
                    self.free(i)
                        .saturating_sub(claimed.get(&i).copied().unwrap_or(Bandwidth::ZERO))
                };
                let cohost = host_index
                    .get(&t)
                    .into_iter()
                    .flatten()
                    .copied()
                    // Skip stale index entries (topic lost to an earlier
                    // move or dissolution).
                    .filter(|&i| i != src && group_pos(&self.fleet[i], t).is_some())
                    .filter(|&i| free_at(i, &claimed) >= rate * pairs)
                    .max_by_key(|&i| (free_at(i, &claimed), Reverse(i)));
                let (dst, is_cohost) = match cohost {
                    Some(i) => {
                        *claimed.entry(i).or_insert(Bandwidth::ZERO) += rate * pairs;
                        (i, true)
                    }
                    None => {
                        let other = (0..self.fleet.len())
                            .filter(|&i| i != src && !self.fleet[i].is_empty())
                            .filter(|&i| free_at(i, &claimed) >= rate * (pairs + 1))
                            .max_by_key(|&i| (free_at(i, &claimed), Reverse(i)));
                        let Some(i) = other else {
                            feasible = false;
                            break;
                        };
                        *claimed.entry(i).or_insert(Bandwidth::ZERO) += rate * (pairs + 1);
                        (i, false)
                    }
                };
                plan.push((dst, is_cohost));
            }
            if !feasible {
                consecutive_failures += 1;
                continue;
            }
            consecutive_failures = 0;
            let rows = std::mem::take(&mut self.fleet[src]);
            total_free -= src_free;
            self.used[src] = Bandwidth::ZERO;
            for ((t, moved), (dst, is_cohost)) in rows.into_iter().zip(plan) {
                let rate = self.workload.rate(t);
                let pairs = moved.len() as u64;
                if is_cohost {
                    self.used[dst] += rate * pairs;
                    total_free -= u128::from((rate * pairs).get());
                    let pos =
                        group_pos(&self.fleet[dst], t).expect("co-host still hosts the topic");
                    self.fleet[dst][pos].1.extend(moved);
                    self.total_bw = self.total_bw.saturating_sub(rate.volume());
                } else {
                    self.used[dst] += rate * (pairs + 1);
                    total_free -= u128::from((rate * (pairs + 1)).get());
                    let pos = self.fleet[dst]
                        .binary_search_by_key(&t, |&(tt, _)| tt)
                        .expect_err("dst does not host the topic");
                    self.fleet[dst].insert(pos, (t, moved));
                    host_index.entry(t).or_default().push(dst);
                }
            }
            self.vm_emptied(src);
            self.report.dissolved += 1;
            any = true;
            self.after_move();
            if self.done {
                break;
            }
        }
        any
    }

    /// Mixed fleets only: re-apply the packer's downsize rule — after
    /// moves shrank a VM's load, a strictly cheaper tier may now fit it.
    fn retype_pass(&mut self) -> bool {
        let Pricing::Mixed { fleet } = self.pricing else {
            return false;
        };
        let mut any = false;
        for i in 0..self.fleet.len() {
            if self.done {
                break;
            }
            if self.fleet[i].is_empty() {
                continue;
            }
            let current = self.tier[i] as usize;
            let new = downsize(current, self.used[i], fleet);
            if new as usize != current {
                self.tier_counts[current] -= 1;
                self.tier_counts[new as usize] += 1;
                self.tier[i] = new;
                self.report.retyped += 1;
                any = true;
                self.after_move();
            }
        }
        self.check_time();
        any
    }
}

/// Refines a homogeneous allocation in place of re-solving: runs the
/// move set under `budget`, stopping early when the objective reaches
/// `certificate` (use [`lower_bound`](crate::lower_bound)`.cost(...)`).
/// Returns the refined allocation and what the search did.
///
/// Pair placement is permuted, never changed: the refined allocation
/// serves exactly the input's `(topic, subscriber)` pairs, so Stage-1
/// selection and delivered rates are bit-identical.
///
/// # Panics
///
/// Panics if the allocation carries a [`FleetTyping`](crate::FleetTyping)
/// — use [`improve_mixed`] for heterogeneous fleets.
pub fn improve(
    allocation: Allocation,
    workload: &Workload,
    cost: &dyn CostModel,
    certificate: Money,
    budget: SearchBudget,
) -> (Allocation, ImproveReport) {
    assert!(
        allocation.typing().is_none(),
        "improve() is homogeneous; use improve_mixed() for typed allocations"
    );
    let start = Instant::now();
    let capacity = allocation.capacity();
    let groups = allocation.to_vm_groups();
    let mut search = Search::new(
        workload,
        groups,
        Vec::new(),
        Pricing::Homogeneous {
            capacity,
            model: cost,
        },
        certificate,
        budget,
    );
    search.run();
    let mut report = search.report;
    let fleet: Vec<VmGroups> = search
        .fleet
        .into_iter()
        .filter(|vm| !vm.is_empty())
        .collect();
    report.elapsed = start.elapsed();
    (Allocation::from_groups(fleet, workload, capacity), report)
}

/// The mixed-fleet twin of [`improve`]: per-VM tier capacities bound
/// every move, dissolution releases the VM's own tier rental, and the
/// downsize re-type pass runs after loads shrink. Use
/// [`LowerBound::cost_on_fleet`](crate::LowerBound::cost_on_fleet) for
/// the certificate.
///
/// # Panics
///
/// Panics if the allocation is untyped, or typed with an instance the
/// fleet catalogue does not carry.
pub fn improve_mixed(
    allocation: Allocation,
    workload: &Workload,
    fleet: &FleetCostModel,
    certificate: Money,
    budget: SearchBudget,
) -> (Allocation, ImproveReport) {
    let start = Instant::now();
    let typing = allocation
        .typing()
        .expect("improve_mixed() needs a typed allocation; use improve() for homogeneous fleets")
        .clone();
    // Map the allocation's tier table onto the catalogue by instance
    // name — robust to orderings that differ from the fleet's.
    let tier_map: Vec<u32> = typing
        .tiers()
        .iter()
        .map(|(ty, _)| {
            fleet
                .tiers()
                .iter()
                .position(|m| m.instance().name() == ty.name())
                .unwrap_or_else(|| {
                    panic!(
                        "allocation typed with {} outside the fleet catalogue",
                        ty.name()
                    )
                }) as u32
        })
        .collect();
    let tier: Vec<u32> = typing
        .assignment()
        .iter()
        .map(|&t| tier_map[t as usize])
        .collect();
    let capacity = allocation.capacity();
    let groups = allocation.to_vm_groups();
    let mut search = Search::new(
        workload,
        groups,
        tier,
        Pricing::Mixed { fleet },
        certificate,
        budget,
    );
    search.run();
    let mut report = search.report;
    let mut kept: Vec<VmGroups> = Vec::with_capacity(search.fleet.len());
    let mut assignment: Vec<u32> = Vec::with_capacity(search.fleet.len());
    for (vm, t) in search.fleet.into_iter().zip(search.tier) {
        if !vm.is_empty() {
            kept.push(vm);
            assignment.push(t);
        }
    }
    report.elapsed = start.elapsed();
    (
        Allocation::from_groups(kept, workload, capacity)
            .with_typing(typing_for(fleet, assignment)),
        report,
    )
}
