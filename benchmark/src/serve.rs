//! `serve-trickle` and `serve-rerate`: the event-sourced `Daemon` on the
//! Spotify-like trace, fed drift epochs by the library's `Driver`.
//!
//! A child copy of the program generates the trace and drift and writes
//! every epoch's events to a file of its own. A round creates a daemon in
//! a fresh state directory (set-up: `Daemon::create`, the bootstrap batch
//! and the first `tick`, a cold solve), submits and closes `EPOCHS` drift
//! epochs one `tick` each, reading each epoch's file before its timed
//! window, checks the final state, and resumes the state directory
//! `RESUMES` times. Rounds end 4 epochs past the last snapshot (one every 8
//! epochs), so every resume loads a snapshot and replays a log suffix.
//!
//! A traced round also sends every event through a shadow pipeline made of
//! the public calls `Daemon` composes: per event a `WorkloadEdit` op and an
//! `EventLog::append`; per epoch the mark's `append`, `sync`,
//! `WorkloadEdit::commit`, `IncrementalReallocator::step_with_delta` and,
//! when due, `Snapshot::write`. The shadow must match the daemon at every
//! epoch, so its spans attribute the time spent inside `tick`.

use crate::plan::write_tsv;
use crate::relabel::{Relabel, TRACE_SEED};
use crate::stats::{Layers, Samples, Stamp};
use crate::{check, generate, metric, same_bytes, Ctx, Report};
use cloud_cost::{instances, CostModel, Ec2CostModel};
use mcss_bench::scenario::{Scenario, PAPER_SPOTIFY_SUBSCRIBERS};
use mcss_core::dynamic::{DriftModel, WorkloadDelta};
use mcss_core::incremental::{IncrementalConfig, IncrementalOutcome, IncrementalReallocator};
use mcss_core::serve::{
    Daemon, Driver, EpochStats, Event, EventLog, ServeConfig, Snapshot, LOG_FILE, SNAPSHOT_FILE,
};
use mcss_core::stage1::{GreedySelectPairs, PairSelector};
use mcss_core::stage2::{Allocator, CbpConfig, CustomBinPacking};
use mcss_core::{lower_bound, McssInstance, MemoryFootprint};
use pubsub_model::{Rate, SubscriberId, TopicId, Workload, WorkloadEdit};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Per-epoch drift: rate noise and the share of subscribers that swap one
/// interest (two events each).
#[derive(Clone, Copy, Debug)]
pub struct Drift {
    rate_sigma: f64,
    churn_prob: f64,
}

/// Stable rates, 1% churn: a small delta against a large state.
pub const TRICKLE: Drift = Drift {
    rate_sigma: 0.0,
    churn_prob: 0.01,
};

/// Every topic re-rated, 5% churn: the delta is about as large as the state.
pub const RERATE: Drift = Drift {
    rate_sigma: 0.05,
    churn_prob: 0.05,
};

impl Drift {
    fn model(self) -> DriftModel {
        DriftModel {
            rate_sigma: self.rate_sigma,
            churn_prob: self.churn_prob,
            seed: TRACE_SEED,
        }
    }
}

const SUBSCRIBERS: usize = 100_000;
const SMOKE_SUBSCRIBERS: usize = 2_000;
const TAU: u64 = 100;
/// Drift epochs per round after the bootstrap epoch: 44 epochs in all,
/// four past the snapshot written at epoch 40.
const EPOCHS: usize = 43;
const RESUMES: usize = 3;
/// Snapshot epochs, 1 in 8, are the top mode of tick latency (5 of 43
/// samples a round, ~12%); p95 lies well inside it. A run closes at least
/// `MIN_TICKS` epochs, so ten or more lie beyond p95.
const TAIL: f64 = 95.0;
const MIN_TICKS: usize = 200;

/// Files in the input directory: the generated trace's subscriber count,
/// and where the generator's own workload ended, which the daemon's must
/// equal. Epoch `e`'s events are in `epoch-<e>.ev`, the bootstrap's in
/// `epoch-0.ev`.
const SUBSCRIBERS_FILE: &str = "subscribers";
const EXPECTED_FILE: &str = "expected.tsv";

/// What every round replays, generated once per run before timing.
struct Inputs {
    config: ServeConfig,
    cost: Ec2CostModel,
    dir: PathBuf,
}

impl Inputs {
    /// Epoch `epoch`'s events, read from their file.
    fn events(&self, epoch: usize) -> Result<Vec<Event>, String> {
        let path = epoch_file(&self.dir, epoch);
        let bytes = fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        check(bytes.len() % EVENT_BYTES == 0, || {
            format!("{} is not a whole number of events", path.display())
        })?;
        bytes.chunks_exact(EVENT_BYTES).map(decode).collect()
    }
}

fn epoch_file(dir: &Path, epoch: usize) -> PathBuf {
    dir.join(format!("epoch-{epoch}.ev"))
}

/// An event on file: kind, topic and subscriber or rate, little-endian.
const EVENT_BYTES: usize = 16;

fn encode(event: Event) -> Result<[u8; EVENT_BYTES], String> {
    let (kind, topic, value) = match event {
        Event::Rerate { topic, rate } => (0u32, topic, rate.get()),
        Event::Subscribe { subscriber, topic } => (1, topic, u64::from(subscriber.raw())),
        Event::Unsubscribe { subscriber, topic } => (2, topic, u64::from(subscriber.raw())),
        other => return Err(format!("the driver emitted {other:?}")),
    };
    let mut bytes = [0u8; EVENT_BYTES];
    bytes[..4].copy_from_slice(&kind.to_le_bytes());
    bytes[4..8].copy_from_slice(&topic.raw().to_le_bytes());
    bytes[8..].copy_from_slice(&value.to_le_bytes());
    Ok(bytes)
}

fn decode(bytes: &[u8]) -> Result<Event, String> {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let value = u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes"));
    let topic = TopicId::new(word(4));
    let subscriber = || {
        u32::try_from(value)
            .map(SubscriberId::new)
            .map_err(|_| format!("subscriber id {value} out of range"))
    };
    Ok(match word(0) {
        0 => Event::Rerate {
            topic,
            rate: Rate::new(value),
        },
        1 => Event::Subscribe {
            subscriber: subscriber()?,
            topic,
        },
        2 => Event::Unsubscribe {
            subscriber: subscriber()?,
            topic,
        },
        kind => return Err(format!("unknown event kind {kind} in an input file")),
    })
}

fn write_events(path: &Path, events: &[Event]) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(events.len() * EVENT_BYTES);
    for &event in events {
        bytes.extend_from_slice(&encode(event)?);
    }
    fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Generates the Spotify-like trace and `EPOCHS` epochs of `drift` under
/// the generator's ids, relabels every event by `seed`, and writes the
/// input files into `dir`.
pub fn write_inputs(seed: u64, smoke: bool, drift: Drift, dir: &Path) -> Result<(), String> {
    let subscribers = if smoke {
        SMOKE_SUBSCRIBERS
    } else {
        SUBSCRIBERS
    };
    let scenario = Scenario::spotify(subscribers, TRACE_SEED);
    let relabel = Relabel::new(&scenario.workload, seed);
    let initial = relabel.workload(&scenario.workload);
    write_events(
        &epoch_file(dir, 0),
        &Driver::new(initial, drift.model()).initial_events(),
    )?;
    let mut driver = Driver::new(scenario.workload.as_ref().clone(), drift.model());
    let mut events = 0;
    for epoch in 1..=EPOCHS {
        let batch: Vec<Event> = driver
            .next_epoch_events()
            .into_iter()
            .map(|e| relabel.event(e))
            .collect();
        events += batch.len();
        write_events(&epoch_file(dir, epoch), &batch)?;
    }
    write_tsv(
        &dir.join(EXPECTED_FILE),
        &relabel.workload(driver.workload()),
    )?;
    let path = dir.join(SUBSCRIBERS_FILE);
    fs::write(&path, scenario.workload.num_subscribers().to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "input: spotify-like, {} subscribers, {} topics, {} interest pairs, tau {TAU}; \
         {EPOCHS} epochs of {:.0} events (rate sigma {}, churn {})",
        scenario.workload.num_subscribers(),
        scenario.workload.num_topics(),
        scenario.workload.pair_count(),
        events as f64 / EPOCHS as f64,
        drift.rate_sigma,
        drift.churn_prob
    );
    Ok(())
}

/// Samples gathered across rounds.
#[derive(Default)]
struct Acc {
    setup_s: Samples,
    tick_ms: Samples,
    tick_wall_ms: Samples,
    traced_tick_ms: Samples,
    events: u64,
    busy_s: f64,
    recover_ms: Samples,
    cost_gap: Option<f64>,
    layers: Layers,
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let min_ticks = if ctx.smoke { EPOCHS } else { MIN_TICKS };

    // Inputs, generated before anything is timed (`write_inputs`).
    let dir = ctx.state.join("input");
    generate(ctx, &dir)?;
    let path = dir.join(SUBSCRIBERS_FILE);
    let subscribers: u64 = fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .parse()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    // Priced as `Scenario::cost_model` prices the generated trace.
    let cost = Ec2CostModel::paper_effective(instances::C3_LARGE)
        .with_volume_scale(subscribers, PAPER_SPOTIFY_SUBSCRIBERS);
    // The default configuration: no watermark, a snapshot every 8 epochs,
    // repair on the calling thread.
    let config = ServeConfig::new(Rate::new(TAU), cost.capacity());
    println!("c3.large effective capacity {}", cost.capacity().get());
    let inputs = Inputs { config, cost, dir };

    ctx.start_measuring()?;
    let mut acc = Acc::default();
    let mut rounds = 0usize;
    loop {
        let (done, min) = if ctx.trace {
            (rounds, 2)
        } else {
            (acc.tick_ms.len(), min_ticks)
        };
        if !ctx.keep_going(done, min) {
            break;
        }
        // A traced run alternates untraced and traced rounds, so the two
        // can be compared for the cost of tracing.
        round(ctx, &inputs, ctx.trace && rounds % 2 == 1, &mut acc)?;
        rounds += 1;
    }

    let (p50, tail) = (acc.tick_ms.median(), acc.tick_ms.percentile(TAIL));
    println!(
        "latency: p50 {p50:.3} ms, tail p{TAIL} {tail:.3} ms over {} ticks ({} beyond), \
         {rounds} rounds; wall clock p50 {:.3} ms, p{TAIL} {:.3} ms",
        acc.tick_ms.len(),
        acc.tick_ms.beyond(TAIL),
        acc.tick_wall_ms.median(),
        acc.tick_wall_ms.percentile(TAIL)
    );
    let end_to_end = vec![
        metric("setup_s", acc.setup_s.median(), "s"),
        metric("latency_ms_p50", p50, "ms"),
        metric("latency_ms_tail", tail, "ms"),
        metric("events_per_s", acc.events as f64 / acc.busy_s, "1/s"),
        metric("recover_ms_p50", acc.recover_ms.median(), "ms"),
        metric("cost_gap", acc.cost_gap.unwrap_or(f64::NAN), "ratio"),
        metric("peak_rss_mb", crate::sys::peak_rss_mb()?, "MiB"),
    ];
    let mut layers = acc.layers.medians();
    if ctx.trace {
        layers.push(metric(
            "run.trace_overhead_frac",
            acc.traced_tick_ms.median() / p50 - 1.0,
            "frac",
        ));
    }
    Ok(Report { end_to_end, layers })
}

/// Submits a batch, returning how many submits failed and the first error.
fn submit_all(daemon: &mut Daemon, batch: &[Event]) -> Option<(usize, String)> {
    let mut failures: Option<(usize, String)> = None;
    for &event in batch {
        if let Err(e) = daemon.submit(event) {
            match &mut failures {
                Some((n, _)) => *n += 1,
                None => failures = Some((1, e.to_string())),
            }
        }
    }
    failures
}

/// The tick's result, once counted: the epoch's stats, `None` when the call
/// failed, or a failed check when it applied nothing or the wrong epoch.
fn ticked(
    ctx: &mut Ctx,
    result: Result<Option<EpochStats>, mcss_core::serve::ServeError>,
    epoch: u64,
    events: usize,
) -> Result<Option<EpochStats>, String> {
    let Some(stats) = ctx.call("Daemon::tick", result) else {
        return Ok(None);
    };
    let stats = stats.ok_or("tick applied no epoch")?;
    check(
        stats.epoch == epoch && stats.events_applied == events as u64,
        || {
            format!(
                "tick applied epoch {} with {} events, expected epoch {epoch} with {events}",
                stats.epoch, stats.events_applied
            )
        },
    )?;
    Ok(Some(stats))
}

/// One round. A call that fails ends the round early, counted in
/// `error_rate`; a failed check ends the run.
fn round(ctx: &mut Ctx, inputs: &Inputs, traced: bool, acc: &mut Acc) -> Result<(), String> {
    let dir = ctx.state.join("daemon");
    let _ = fs::remove_dir_all(&dir);
    let bootstrap = inputs.events(0)?;

    // Set-up: create, bootstrap, and the first tick, a cold solve.
    let t = Stamp::now();
    let created = Daemon::create(&dir, inputs.config, Box::new(inputs.cost.clone()));
    let Some(mut daemon) = ctx.call("Daemon::create", created) else {
        return Ok(());
    };
    let failures = submit_all(&mut daemon, &bootstrap);
    if !ctx.calls("Daemon::submit", bootstrap.len(), failures) {
        return Ok(());
    }
    let result = daemon.tick();
    let setup_s = t.ms() / 1e3;
    let Some(mut last) = ticked(ctx, result, 0, bootstrap.len())? else {
        return Ok(());
    };
    if !traced {
        acc.setup_s.push(setup_s);
    }
    let mut shadow = match traced {
        true => Some(Shadow::bootstrap(
            &ctx.state.join("shadow"),
            inputs,
            &bootstrap,
            &daemon,
            &mut acc.layers,
        )?),
        false => None,
    };
    drop(bootstrap);

    let mut log_len = file_len(&dir.join(LOG_FILE))?;
    for epoch in 1..=EPOCHS {
        let batch = inputs.events(epoch)?;
        let t = Stamp::now();
        let failures = submit_all(&mut daemon, &batch);
        let submit_ms = t.ms();
        if !ctx.calls("Daemon::submit", batch.len(), failures) {
            return Ok(());
        }
        let t = Stamp::now();
        let result = daemon.tick();
        let (tick_ms, tick_wall_ms) = (t.ms(), t.wall_ms());
        let Some(stats) = ticked(ctx, result, epoch as u64, batch.len())? else {
            return Ok(());
        };
        last = stats;
        let Some(shadow) = &mut shadow else {
            acc.tick_ms.push(tick_ms);
            acc.tick_wall_ms.push(tick_wall_ms);
            acc.events += batch.len() as u64;
            acc.busy_s += (submit_ms + tick_ms) / 1e3;
            continue;
        };
        acc.traced_tick_ms.push(tick_ms);
        let layers = &mut acc.layers;
        layers.add("serve.submit_ms", "ms", submit_ms);
        layers.add("serve.tick_ms", "ms", tick_ms);
        layers.add("serve.apply_ms", "ms", stats.apply_time.as_secs_f64() * 1e3);
        let len = file_len(&dir.join(LOG_FILE))?;
        layers.add("serve.log_bytes", "B", (len - log_len) as f64);
        log_len = len;
        shadow.submit(&batch, layers)?;
        let (outcome, spans_ms) = shadow.close_epoch(layers)?;
        shadow.check_matches(&daemon)?;
        layers.add("run.traced_op_ms", "ms", tick_ms);
        layers.add("run.attributed_ms", "ms", spans_ms);
        layers.add("run.unattributed_ms", "ms", tick_ms - spans_ms);
        layers.add(
            "incremental.pairs_moved",
            "count",
            (outcome.pairs_placed + outcome.pairs_removed) as f64,
        );
        layers.add(
            "incremental.pairs_evicted",
            "count",
            outcome.pairs_evicted as f64,
        );
        layers.add(
            "incremental.reused_frac",
            "frac",
            outcome.pairs_reused as f64 / outcome.selection.pair_count() as f64,
        );
    }

    // The final state: the generator's workload, a valid fleet, and the
    // cost gap recomputed from the Alg. 5 bound. These are the benchmark's
    // checks, not the daemon's work, and are not timed.
    let workload = daemon.workload().ok_or("no workload after the round")?;
    let written = ctx.state.join("final.tsv");
    write_tsv(&written, workload)?;
    check(
        same_bytes(&written, &inputs.dir.join(EXPECTED_FILE))?,
        || "the daemon's workload differs from the generator's".into(),
    )?;
    let allocation = daemon.allocation().ok_or("no allocation after the round")?;
    let valid = allocation.validate(workload, inputs.config.tau);
    check(valid.is_ok(), || {
        format!("the final allocation is invalid: {valid:?}")
    })?;
    let bound = lower_bound(workload, inputs.config.tau, inputs.config.capacity);
    check(last.fleet_cost == allocation.cost(&inputs.cost), || {
        "the last epoch's fleet cost differs from its allocation's".into()
    })?;
    let gap = last.fleet_cost.micros() as f64 / bound.cost(&inputs.cost).micros() as f64;
    check(acc.cost_gap.is_none_or(|g| g == gap), || {
        format!("cost_gap {gap} differs from an earlier round's")
    })?;
    acc.cost_gap = Some(gap);
    if let Some(shadow) = &shadow {
        let layers = &mut acc.layers;
        shadow.check_files(&dir)?;
        let (selection, ledger, _) = shadow.realloc.checkpoint().ok_or("shadow never stepped")?;
        layers.add(
            "footprint.bytes_per_subscriber",
            "B",
            MemoryFootprint::measure(workload, Some(selection), Some(ledger))
                .bytes_per_subscriber(),
        );
        layers.add(
            "serve.fsyncs",
            "count",
            shadow.fsyncs as f64 / shadow.epochs as f64,
        );
        layers.add(
            "incremental.full_resolves",
            "count",
            shadow.full_resolves as f64,
        );
        let snapshot = file_len(&dir.join(SNAPSHOT_FILE))?;
        layers.add(
            "serve.snapshot_mb",
            "MiB",
            snapshot as f64 / (1 << 20) as f64,
        );
    }

    for _ in 0..RESUMES {
        let t = Stamp::now();
        let resumed = Daemon::resume(&dir, inputs.config, Box::new(inputs.cost.clone()));
        let resume_ms = t.ms();
        let Some(resumed) = ctx.call("Daemon::resume", resumed) else {
            return Ok(());
        };
        check(
            resumed.epochs_applied() == daemon.epochs_applied()
                && resumed.pending_events() == 0
                && resumed.workload() == daemon.workload()
                && resumed.selection() == daemon.selection()
                && resumed.allocation() == daemon.allocation(),
            || "a resumed daemon differs from the live one".into(),
        )?;
        drop(resumed);
        if traced {
            recovery_spans(&dir, resume_ms, &mut acc.layers)?;
        } else {
            acc.recover_ms.push(resume_ms);
        }
    }
    Ok(())
}

/// Times the two reads `Daemon::resume` starts with, next to a resume of
/// the same directory: the rest of the resume is replay.
fn recovery_spans(dir: &Path, resume_ms: f64, layers: &mut Layers) -> Result<(), String> {
    let t = Stamp::now();
    let snapshot = Snapshot::load(&dir.join(SNAPSHOT_FILE)).map_err(|e| e.to_string())?;
    let load_ms = t.ms();
    let t = Stamp::now();
    let (log, records) = EventLog::open(&dir.join(LOG_FILE)).map_err(|e| e.to_string())?;
    let open_ms = t.ms();
    drop(log);
    let useful = records.iter().filter(|r| r.seq > snapshot.last_seq).count();
    layers.add("store.snapshot_load_ms", "ms", load_ms);
    layers.add("serve.log_open_ms", "ms", open_ms);
    layers.add("serve.log_records", "count", records.len() as f64);
    layers.add(
        "serve.replay_useful_frac",
        "frac",
        useful as f64 / records.len() as f64,
    );
    layers.add("serve.replay_ms", "ms", resume_ms - open_ms - load_ms);
    Ok(())
}

fn file_len(path: &Path) -> Result<u64, String> {
    fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn err(e: impl std::fmt::Display) -> String {
    format!("shadow pipeline: {e}")
}

/// The daemon's pipeline rebuilt from its public parts (module docs).
struct Shadow {
    dir: PathBuf,
    config: ServeConfig,
    cost: Ec2CostModel,
    log: EventLog,
    edit: WorkloadEdit,
    prev: Option<Arc<Workload>>,
    realloc: IncrementalReallocator,
    epochs: u64,
    fsyncs: u64,
    full_resolves: u64,
    /// This epoch's `EventLog::append` time so far.
    append_ms: f64,
}

impl Shadow {
    /// Builds the shadow, folds the bootstrap batch, and checks it against
    /// the daemon's first epoch. The cold solve inside that epoch is also
    /// made as its two stages, each timed.
    fn bootstrap(
        dir: &Path,
        inputs: &Inputs,
        events: &[Event],
        daemon: &Daemon,
        layers: &mut Layers,
    ) -> Result<Shadow, String> {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).map_err(err)?;
        let mut shadow = Shadow {
            dir: dir.to_path_buf(),
            config: inputs.config,
            cost: inputs.cost.clone(),
            log: EventLog::create(&dir.join(LOG_FILE)).map_err(err)?,
            edit: WorkloadEdit::new(),
            prev: None,
            realloc: IncrementalReallocator::new(
                IncrementalConfig::default().with_repair_threads(inputs.config.threads),
            ),
            epochs: 0,
            fsyncs: 0,
            full_resolves: 0,
            append_ms: 0.0,
        };
        let mut scratch = Layers::default();
        shadow.submit(events, &mut scratch)?;
        let (outcome, _) = shadow.close_epoch(&mut scratch)?;
        shadow.check_matches(daemon)?;
        shadow.full_resolves = 0;

        let workload = shadow.prev.clone().ok_or("shadow never committed")?;
        let instance =
            McssInstance::new(workload, inputs.config.tau, inputs.config.capacity).map_err(err)?;
        let t = Stamp::now();
        let selection = GreedySelectPairs::new().select(&instance).map_err(err)?;
        let select_ms = t.ms();
        let t = Stamp::now();
        let allocation = CustomBinPacking::new(CbpConfig::full())
            .allocate(
                instance.workload(),
                &selection,
                instance.capacity(),
                &inputs.cost,
            )
            .map_err(err)?;
        let allocate_ms = t.ms();
        check(
            selection == outcome.selection && allocation == outcome.allocation,
            || "the cold solve's stages differ from the daemon's first epoch".into(),
        )?;
        layers.add("stage1.select_ms", "ms", select_ms);
        layers.add(
            "stage1.kept_frac",
            "frac",
            selection.pair_count() as f64 / instance.workload().pair_count() as f64,
        );
        layers.add("stage2.allocate_ms", "ms", allocate_ms);
        layers.add("stage2.vms", "count", allocation.vm_count() as f64);
        layers.add(
            "stage2.incoming_frac",
            "frac",
            allocation.incoming_volume(instance.workload()).get() as f64
                / allocation.total_bandwidth().get() as f64,
        );
        Ok(shadow)
    }

    /// What `Daemon::submit` does per event: an edit op, then an append.
    /// Each kind is timed once over the whole batch.
    fn submit(&mut self, batch: &[Event], layers: &mut Layers) -> Result<(), String> {
        let t = Stamp::now();
        for &event in batch {
            match event {
                Event::Rerate { topic, rate } => self.edit.rerate(topic, rate),
                Event::Subscribe { subscriber, topic } => self.edit.subscribe(subscriber, topic),
                Event::Unsubscribe { subscriber, topic } => {
                    self.edit.unsubscribe(subscriber, topic);
                    Ok(())
                }
                other => return Err(err(format!("the driver emitted {other:?}"))),
            }
            .map_err(err)?;
        }
        layers.add("model.edit_ops_ms", "ms", t.ms());
        let t = Stamp::now();
        for &event in batch {
            self.log.append(event).map_err(err)?;
        }
        self.append_ms = t.ms();
        Ok(())
    }

    /// What `Daemon::tick` does: log the epoch mark and sync, commit the
    /// edits, step the re-allocator with the delta, and snapshot when due.
    /// Returns the step's outcome and the milliseconds these spans took.
    fn close_epoch(&mut self, layers: &mut Layers) -> Result<(IncrementalOutcome, f64), String> {
        let t = Stamp::now();
        let mark = self
            .log
            .append(Event::EpochMark { epoch: self.epochs })
            .map_err(err)?;
        let mark_ms = t.ms();
        let t = Stamp::now();
        self.log.sync().map_err(err)?;
        let sync_ms = t.ms();
        self.fsyncs += 1;

        let t = Stamp::now();
        let (workload, changed_topics, changed_subscribers) =
            self.edit.commit(self.prev.as_deref());
        let commit_ms = t.ms();
        let workload = Arc::new(workload);
        let instance =
            McssInstance::new(Arc::clone(&workload), self.config.tau, self.config.capacity)
                .map_err(err)?;
        let delta = WorkloadDelta {
            changed_topics,
            changed_subscribers,
        };
        let t = Stamp::now();
        let outcome = self
            .realloc
            .step_with_delta(&instance, &self.cost as &dyn CostModel, &delta)
            .map_err(err)?;
        let step_ms = t.ms();
        self.full_resolves += u64::from(outcome.full_resolve);
        self.prev = Some(workload);
        self.epochs += 1;

        let mut snapshot_ms = 0.0;
        if self.config.snapshot_every > 0 && self.epochs.is_multiple_of(self.config.snapshot_every)
        {
            let t = Stamp::now();
            let (selection, ledger, capacity) =
                self.realloc.checkpoint().ok_or("shadow never stepped")?;
            let snapshot = Snapshot {
                last_seq: mark,
                epochs_applied: self.epochs,
                tau: self.config.tau,
                capacity,
                workload: self
                    .prev
                    .as_deref()
                    .cloned()
                    .ok_or("shadow never committed")?,
                selection: selection.clone(),
                slots: ledger.snapshot_slots(),
            };
            snapshot.write(&self.dir.join(SNAPSHOT_FILE)).map_err(err)?;
            snapshot_ms = t.ms();
            self.fsyncs += 1;
            layers.add("serve.snapshot_write_ms", "ms", snapshot_ms);
        }
        layers.add("serve.log_append_ms", "ms", self.append_ms + mark_ms);
        layers.add("serve.log_sync_ms", "ms", sync_ms);
        layers.add("model.edit_commit_ms", "ms", commit_ms);
        layers.add("incremental.step_ms", "ms", step_ms);
        Ok((
            outcome,
            mark_ms + sync_ms + commit_ms + step_ms + snapshot_ms,
        ))
    }

    /// The shadow holds the daemon's selection and fleet.
    fn check_matches(&self, daemon: &Daemon) -> Result<(), String> {
        let checkpoint = self.realloc.checkpoint();
        let allocation = checkpoint.map(|(_, ledger, capacity)| ledger.to_allocation(capacity));
        check(
            daemon.epochs_applied() == self.epochs
                && daemon.selection() == checkpoint.map(|(selection, _, _)| selection)
                && daemon.allocation() == allocation,
            || {
                format!(
                    "the shadow pipeline differs from the daemon at epoch {}",
                    self.epochs
                )
            },
        )
    }

    /// The shadow wrote the same log and snapshot bytes as the daemon.
    fn check_files(&self, dir: &Path) -> Result<(), String> {
        for name in [LOG_FILE, SNAPSHOT_FILE] {
            let ours = fs::read(self.dir.join(name)).map_err(err)?;
            let theirs = fs::read(dir.join(name)).map_err(|e| format!("{name}: {e}"))?;
            check(ours == theirs, || {
                format!("the shadow's {name} differs from the daemon's")
            })?;
        }
        Ok(())
    }
}
