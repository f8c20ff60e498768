//! `plan-twitter`: back-to-back cold plans of the Twitter-like trace.
//!
//! Set-up is `mcss ingest` (TSV trace → `read_workload` → `to_store`). One
//! operation is what `mcss solve --store` runs: `Workload::from_store`, then
//! `Solver::solve` (GSP, CBP and the Alg. 5 bound), then
//! `Allocation::validate`. A traced plan makes the same calls one layer at
//! a time so each can be timed, and must produce the same plan.

use crate::relabel::{Relabel, TRACE_SEED};
use crate::stats::{Layers, Samples, Stamp};
use crate::{check, generate, metric, same_bytes, Ctx, Report};
use cloud_cost::{instances, Ec2CostModel};
use mcss_bench::scenario::{Scenario, PAPER_TWITTER_SUBSCRIBERS};
use mcss_core::stage1::{GreedySelectPairs, PairSelector};
use mcss_core::stage2::{Allocator, CbpConfig, CustomBinPacking};
use mcss_core::{lower_bound, Allocation, McssInstance, MemoryFootprint, Selection, Solver};
use mcss_store::WorkloadStoreExt;
use pubsub_model::{Rate, Workload};
use pubsub_traces::io::{read_workload, write_workload};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

const USERS: usize = 100_000;
const SMOKE_USERS: usize = 2_000;
const TAU: u64 = 100;
/// Ingests per run; `setup_s` is their median.
const INGESTS: usize = 11;
/// The tail percentile. A run plans at least `MIN_PLANS` times, so ten or
/// more plans lie beyond it.
const TAIL: f64 = 90.0;
const MIN_PLANS: usize = 100;
/// Untraced and traced plans a traced run makes at the least.
const MIN_TRACED: usize = 5;
/// The generated trace, in the input directory.
const TRACE_FILE: &str = "twitter.tsv";

/// The plan every later plan of the run must reproduce bit for bit.
struct Reference {
    selection: Selection,
    allocation: Allocation,
}

impl Reference {
    fn check(&self, selection: &Selection, allocation: &Allocation) -> Result<(), String> {
        check(
            *selection == self.selection && *allocation == self.allocation,
            || "a plan differs from the run's first plan".into(),
        )
    }
}

/// Generates the Twitter-like trace, relabels it by `seed`, and writes it
/// into `dir` as TSV.
pub fn write_trace(seed: u64, smoke: bool, dir: &Path) -> Result<(), String> {
    let users = if smoke { SMOKE_USERS } else { USERS };
    let scenario = Scenario::twitter(users, TRACE_SEED);
    let workload = Relabel::new(&scenario.workload, seed).workload(&scenario.workload);
    write_tsv(&dir.join(TRACE_FILE), &workload)
}

/// Writes `workload` to `path` in the trace format.
pub fn write_tsv(path: &Path, workload: &Workload) -> Result<(), String> {
    let mut out =
        BufWriter::new(File::create(path).map_err(|e| format!("{}: {e}", path.display()))?);
    write_workload(&mut out, workload)
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `mcss ingest`: parse the trace and write the store.
fn ingest(trace: &Path, store: &Path) -> Result<(), String> {
    let file = File::open(trace).map_err(|e| format!("opening {}: {e}", trace.display()))?;
    let workload = read_workload(BufReader::new(file)).map_err(|e| e.to_string())?;
    workload.to_store(store).map_err(|e| e.to_string())
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let (ingests, min_plans) = if ctx.smoke {
        (2, 10)
    } else {
        (INGESTS, MIN_PLANS)
    };
    let min_plans = if ctx.trace { MIN_TRACED } else { min_plans };
    let tau = Rate::new(TAU);

    // The input, generated before anything is timed.
    let input = ctx.state.join("input");
    generate(ctx, &input)?;
    let trace = input.join(TRACE_FILE);
    let store = ctx.state.join("twitter.store");
    let again = ctx.state.join("again.store");

    // setup_s: `mcss ingest`, several times. The first ingest that succeeds
    // writes `store`; every later one must write the same bytes.
    let mut setup_s = Samples::default();
    for _ in 0..ingests {
        let target = if setup_s.is_empty() { &store } else { &again };
        let t = Stamp::now();
        let result = ingest(&trace, target);
        let elapsed = t.ms() / 1e3;
        if ctx.call("ingest", result).is_none() {
            continue;
        }
        setup_s.push(elapsed);
        if target == &again {
            check(same_bytes(&again, &store)?, || {
                "two ingests of one trace wrote different stores".into()
            })?;
        }
    }
    check(!setup_s.is_empty(), || "every ingest failed".into())?;
    // The store loads back to the trace it was ingested from.
    let stored =
        Workload::from_store(&store).map_err(|e| format!("reading back the store: {e}"))?;
    let reloaded = ctx.state.join("reloaded.tsv");
    write_tsv(&reloaded, &stored)?;
    check(same_bytes(&reloaded, &trace)?, || {
        "the store differs from the ingested trace".into()
    })?;
    // Priced as `Scenario::cost_model` prices the generated trace.
    let cost = Ec2CostModel::paper_effective(instances::C3_LARGE)
        .with_volume_scale(stored.num_subscribers() as u64, PAPER_TWITTER_SUBSCRIBERS);
    let capacity = cost.capacity();
    let (topics, pairs) = (stored.num_topics(), stored.pair_count());
    println!(
        "input: twitter-like, {} users, {topics} topics, {pairs} interest pairs, tau {TAU}, capacity {}",
        stored.num_subscribers(),
        capacity.get()
    );
    drop(stored);

    ctx.start_measuring()?;
    let mut reference: Option<Reference> = None;
    let mut cost_gap = f64::NAN;
    let (mut plan_ms, mut load_ms, mut busy_s) = (Samples::default(), Samples::default(), 0.0);
    let (mut wall_ms, mut traced_ms) = (Samples::default(), Samples::default());
    let mut layers = Layers::default();
    while ctx.keep_going(plan_ms.len(), min_plans) {
        // One untraced plan, exactly as `mcss solve --store` runs it.
        let t0 = Stamp::now();
        let planned = (|| {
            let workload = Workload::from_store(&store).map_err(|e| e.to_string())?;
            let load = t0.ms();
            let instance = McssInstance::new(workload, tau, capacity).map_err(|e| e.to_string())?;
            let outcome = Solver::default()
                .solve(&instance, &cost)
                .map_err(|e| e.to_string())?;
            let valid = outcome.allocation.validate(instance.workload(), tau);
            Ok::<_, String>((load, instance, outcome, valid))
        })();
        let (elapsed_ms, elapsed_wall_ms) = (t0.ms(), t0.wall_ms());
        let Some((load, instance, outcome, valid)) = ctx.call("plan", planned) else {
            continue;
        };
        check(valid.is_ok(), || {
            format!("a plan failed validation: {valid:?}")
        })?;
        match &reference {
            Some(r) => r.check(&outcome.selection, &outcome.allocation)?,
            None => {
                cost_gap = outcome.report.optimality_gap();
                let lb = lower_bound(instance.workload(), tau, capacity).cost(&cost);
                let recomputed =
                    outcome.allocation.cost(&cost).micros() as f64 / lb.micros() as f64;
                check(
                    lb == outcome.report.lower_bound_cost && recomputed == cost_gap,
                    || {
                        format!("cost_gap {cost_gap} does not match {recomputed} recomputed from lower_bound")
                    },
                )?;
                reference = Some(Reference {
                    selection: outcome.selection,
                    allocation: outcome.allocation,
                });
            }
        }
        plan_ms.push(elapsed_ms);
        wall_ms.push(elapsed_wall_ms);
        load_ms.push(load);
        busy_s += elapsed_ms / 1e3;
        drop(instance);

        if ctx.trace {
            let r = reference.as_ref().expect("set by the first plan");
            if let Some(total) = traced_plan(ctx, &store, tau, &cost, r, &mut layers)? {
                traced_ms.push(total);
            }
        }
    }

    let (p50, tail) = (plan_ms.median(), plan_ms.percentile(TAIL));
    println!(
        "latency: p50 {p50:.3} ms, tail p{TAIL} {tail:.3} ms over {} plans ({} beyond); \
         wall clock p50 {:.3} ms, p{TAIL} {:.3} ms",
        plan_ms.len(),
        plan_ms.beyond(TAIL),
        wall_ms.median(),
        wall_ms.percentile(TAIL)
    );
    let end_to_end = vec![
        metric("setup_s", setup_s.median(), "s"),
        metric("latency_ms_p50", p50, "ms"),
        metric("latency_ms_tail", tail, "ms"),
        // Each plan consumes the whole relation: one rate per topic and
        // one subscription per interest pair.
        metric(
            "events_per_s",
            (topics as f64 + pairs as f64) * plan_ms.len() as f64 / busy_s,
            "1/s",
        ),
        metric("recover_ms_p50", load_ms.median(), "ms"),
        metric("cost_gap", cost_gap, "ratio"),
        metric("peak_rss_mb", crate::sys::peak_rss_mb()?, "MiB"),
    ];
    let mut layers = layers.medians();
    if ctx.trace {
        layers.push(metric(
            "run.trace_overhead_frac",
            traced_ms.median() / p50 - 1.0,
            "frac",
        ));
    }
    Ok(Report { end_to_end, layers })
}

/// One plan made layer by layer, each call timed. Returns its end-to-end
/// milliseconds, or `None` when a call failed; the spans go to `layers`.
fn traced_plan(
    ctx: &mut Ctx,
    store: &Path,
    tau: Rate,
    cost: &Ec2CostModel,
    reference: &Reference,
    layers: &mut Layers,
) -> Result<Option<f64>, String> {
    let t0 = Stamp::now();
    let planned = (|| {
        let t = Stamp::now();
        let workload = Workload::from_store(store).map_err(|e| e.to_string())?;
        let load = t.ms();
        let instance =
            McssInstance::new(workload, tau, cost.capacity()).map_err(|e| e.to_string())?;
        let t = Stamp::now();
        let selection = GreedySelectPairs::new()
            .select(&instance)
            .map_err(|e| e.to_string())?;
        let select = t.ms();
        let t = Stamp::now();
        let allocation = CustomBinPacking::new(CbpConfig::full())
            .allocate(instance.workload(), &selection, cost.capacity(), cost)
            .map_err(|e| e.to_string())?;
        let allocate = t.ms();
        let t = Stamp::now();
        let bound = lower_bound(instance.workload(), tau, cost.capacity());
        let bound_ms = t.ms();
        // The rest of the report `Solver::solve` builds; no span of its own.
        let incoming = allocation.incoming_volume(instance.workload());
        let outgoing = allocation.outgoing_volume(instance.workload());
        let _ = (bound.cost(cost), allocation.cost(cost));
        let t = Stamp::now();
        let valid = allocation.validate(instance.workload(), tau);
        let validate = t.ms();
        let spans = [load, select, allocate, bound_ms, validate];
        Ok::<_, String>((
            instance, selection, allocation, incoming, outgoing, valid, spans,
        ))
    })();
    let total = t0.ms();
    let Some((instance, selection, allocation, incoming, outgoing, valid, spans)) =
        ctx.call("traced plan", planned)
    else {
        return Ok(None);
    };
    check(valid.is_ok(), || {
        format!("a traced plan failed validation: {valid:?}")
    })?;
    reference.check(&selection, &allocation)?;
    check(incoming + outgoing == allocation.total_bandwidth(), || {
        "incoming + outgoing bandwidth differs from the total".into()
    })?;
    let [load, select, allocate, bound_ms, validate] = spans;
    let workload = instance.workload();
    layers.add("store.load_ms", "ms", load);
    layers.add("stage1.select_ms", "ms", select);
    layers.add(
        "stage1.kept_frac",
        "frac",
        selection.pair_count() as f64 / workload.pair_count() as f64,
    );
    layers.add("stage2.allocate_ms", "ms", allocate);
    layers.add("stage2.vms", "count", allocation.vm_count() as f64);
    layers.add(
        "stage2.incoming_frac",
        "frac",
        incoming.get() as f64 / allocation.total_bandwidth().get() as f64,
    );
    layers.add("lower_bound.ms", "ms", bound_ms);
    layers.add("allocation.validate_ms", "ms", validate);
    layers.add(
        "footprint.bytes_per_subscriber",
        "B",
        MemoryFootprint::measure(workload, Some(&selection), None).bytes_per_subscriber(),
    );
    layers.add("run.traced_op_ms", "ms", total);
    layers.add("run.attributed_ms", "ms", spans.iter().sum());
    layers.add(
        "run.unattributed_ms",
        "ms",
        total - spans.iter().sum::<f64>(),
    );
    Ok(Some(total))
}
