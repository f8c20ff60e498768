//! `mcss` — command-line front end for the MCSS solver.
//!
//! ```text
//! mcss generate spotify --size 50000 --seed 7 --out trace.tsv
//! mcss analyze trace.tsv
//! mcss solve trace.tsv --tau 100 --instance c3.large --effective --simulate
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency) and table-driven:
//! each subcommand has one flag table, `Flags::parse` scans the
//! arguments against it once, and typed getters build the `Command`.
//! `tests/golden/cli_parse.txt` pins the grammar that `mcss help` documents.

use cloud_cost::{instances, CostModel, Ec2CostModel, FleetCostModel, InstanceType};
use mcss_core::dynamic::{DriftModel, Reprovisioner, WorkloadDelta};
use mcss_core::ilp::{export_lp, IlpOptions};
use mcss_core::incremental::{IncrementalConfig, IncrementalReallocator, SlaBudget};
use mcss_core::planner::{plan_instance_type, plan_mixed};
use mcss_core::serve::{Daemon, Driver, EpochStats, Event, ServeConfig};
use mcss_core::{AllocatorKind, McssInstance, SearchBudget, SelectorKind, Solver, SolverParams};
use mcss_store::{StoreReader, WorkloadStoreExt};
use pubsub_model::{Rate, Workload};
use pubsub_sim::failure::{fail_vms, fragility_profile};
use pubsub_sim::{SimConfig, Simulation};
use pubsub_traces::io::{read_workload, write_workload};
use pubsub_traces::{SpotifyLike, TwitterLike};
use std::fmt::Display;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

const HELP: &str = "mcss — Minimum Cost Subscriber Satisfaction solver (ICDCS 2014)

USAGE:
  mcss solve <trace.tsv> --tau N [options]   solve MCSS over a trace file
  mcss pack <trace.tsv> --tau N [options]    compare Stage-2 packers (greedy
                                             CBP, FFD, anytime-refined)
                                             against the Alg. 5 lower bound
  mcss plan <trace.tsv> --tau N [options]    rank instance types by cost
  mcss reprovision <trace.tsv> --tau N [options]
                                             drift the workload and repair
                                             the fleet epoch by epoch
  mcss serve --trace <spotify|twitter> [options]
                                             run the event-sourced drift
                                             daemon against a synthetic
                                             subscription stream
  mcss drill <trace.tsv> --tau N --kill SPEC [options]
                                             kill VMs and repair the fleet
                                             under an SLA pairs budget
  mcss generate <spotify|twitter> [options]  write a synthetic trace
  mcss ingest <trace.tsv> --out <file.mcss>  convert a trace to the binary
                                             MCSSTOR1 store (load it back
                                             with --store, zero rebuild)
  mcss analyze <trace.tsv> [options]         print workload statistics
  mcss help                                  this text

Commands that take <trace.tsv> positionally (solve, reprovision,
analyze) accept --store FILE instead: the workload then loads from an
ingested MCSSTOR1 store — one read plus checksums, no per-row parsing.

SOLVE OPTIONS:
  --tau N                satisfaction threshold (required)
  --instance NAME        c3.large | c3.xlarge | c3.2xlarge  [c3.large]
  --selector NAME        gsp | rsp | shared | optimal       [gsp]
  --allocator NAME       cbp | ffbp                         [cbp]
  --threads N            GSP threads (needs --selector gsp)  [1]
  --refine BUDGET        post-process the packing with the anytime local
                         search: \"500\" caps moves, \"100ms\"/\"2s\" caps
                         wall-clock (wall-clock runs are not
                         reproducible step for step)     [off]
  --store FILE           load the workload from an MCSSTOR1 store
                         instead of the positional trace path
  --effective            use the figure-calibrated capacity (see
                         docs/PAPER_MAP.md, \"Deviations from the paper\")
  --scale SYNTH/PAPER    volume-scale compensation ratio
  --simulate             replay the window through the broker simulation

PACK OPTIONS:
  --tau N                satisfaction threshold (required)
  --instance NAME        c3.large | c3.xlarge | c3.2xlarge  [c3.large]
  --refine BUDGET        local-search budget, as in solve --refine
                         [unbounded: run until no move improves or the
                         lower-bound certificate is met]
  --mixed                pack onto the heterogeneous catalogue fleet
                         (FFD and --export-lp are homogeneous-only)
  --export-lp FILE       also write the exact integer program in CPLEX
                         LP format, sized by the greedy VM count
  --effective            use the figure-calibrated capacity
  --scale SYNTH/PAPER    volume-scale compensation ratio

PLAN OPTIONS:
  --tau N                satisfaction threshold (required)
  --mixed                also solve one heterogeneous fleet over the whole
                         catalogue and report it against the homogeneous
                         winner (never more expensive)
  --effective            use the figure-calibrated capacity
  --scale SYNTH/PAPER    volume-scale compensation ratio

REPROVISION OPTIONS:
  --tau N                satisfaction threshold (required)
  --epochs N             drift/repair epochs to run              [5]
  --churn P              per-subscriber interest-swap probability [0.1]
  --sigma S              log-std of per-epoch rate noise          [0.1]
  --drift-seed N         drift RNG seed                           [42]
  --fresh                re-solve from scratch each epoch instead of the
                         O(Δ) incremental repair
  --threads N            threads for the epoch's dirty re-selection
                         (bit-identical selections)               [1]
  --instance NAME        c3.large | c3.xlarge | c3.2xlarge  [c3.large]
  --mixed                deploy on a heterogeneous fleet over the whole
                         catalogue (--instance is ignored); selections
                         stay bit-identical to the homogeneous run
  --store FILE           load the workload from an MCSSTOR1 store
                         instead of the positional trace path
  --effective            use the figure-calibrated capacity
  --scale SYNTH/PAPER    volume-scale compensation ratio
  --simulate             replay each epoch through the broker simulation

SERVE OPTIONS:
  --trace FAMILY         spotify | twitter (required unless --store)
  --store FILE           seed the stream from an ingested MCSSTOR1
                         store instead of a generated --trace family
                         (--size and --seed are then ignored)
  --size N               subscribers (spotify) or users (twitter) [2000]
  --seed N               trace RNG seed                           [42]
  --tau N                satisfaction threshold                   [100]
  --instance NAME        c3.large | c3.xlarge | c3.2xlarge  [c3.large]
  --epochs N             drift batches to stream                  [10]
  --epoch-events N       close an epoch every N buffered events
                         (watermark); default: one epoch per batch
  --epoch-ms N           close an epoch once N wall-clock ms have
                         elapsed, checked at batch boundaries
  --churn P              per-subscriber interest-swap probability [0.1]
  --sigma S              log-std of per-epoch rate noise          [0.1]
  --drift-seed N         drift RNG seed                           [42]
  --dir PATH             state directory (event log + snapshots)
                         [fresh directory under the system tmpdir]
  --snapshot-every N     snapshot every N applied epochs (0 = never) [8]
  --threads N            threads for the epoch's dirty re-selection
                         (bit-identical selections)               [1]
  --resume               recover from --dir (snapshot load + log
                         replay), then continue the stream
  --drill SPEC           schedule VM failures: \"EPOCH:KILL;...\" where
                         KILL is a kill list (see drill --kill); e.g.
                         \"2:0-3;5:20%\" (incompatible with --resume)
  --repair-budget N      SLA budget: at most N orphaned pairs re-placed
                         per epoch; the rest carry over  [unbounded]
  --compact-every N      run a Stage-2 compaction pass every N applied
                         epochs (skipped while repairs are deferred or
                         failed VMs are down)            [off]
  --compact-steps N      local-search moves per compaction pass (steps,
                         never wall-clock — replay stays deterministic)
                         [2048]
  --sync-retries N       retry a failed epoch fsync N times       [0]
  --retry-backoff-ms N   sleep between fsync retries              [0]
  --effective            use the figure-calibrated capacity
  --scale SYNTH/PAPER    volume-scale compensation ratio
  --summary FILE         write a machine-readable run summary (JSON)
  --simulate             replay the final fleet through the broker sim

DRILL OPTIONS:
  --tau N                satisfaction threshold (required)
  --kill SPEC            kill list (required): indices \"0,3,9\", a range
                         \"0-7\", mixed \"0,4-6\", or a fleet share \"20%\"
  --sla-pairs N          repair at most N pairs per epoch   [unbounded]
  --max-epochs N         give up if not drained after N repair epochs [64]
  --instance NAME        c3.large | c3.xlarge | c3.2xlarge  [c3.large]
  --effective            use the figure-calibrated capacity
  --scale SYNTH/PAPER    volume-scale compensation ratio

ANALYZE OPTIONS:
  --store FILE           analyze an MCSSTOR1 store instead of a trace;
                         also prints on-disk bytes per section next to
                         the resident footprint
  --blast-radius K       solve the trace and print the top-K VMs by
                         blast radius (subscribers starved if that VM
                         dies); needs --tau
  --tau N                satisfaction threshold (with --blast-radius)
  --instance NAME        c3.large | c3.xlarge | c3.2xlarge  [c3.large]
  --effective            use the figure-calibrated capacity
  --scale SYNTH/PAPER    volume-scale compensation ratio

GENERATE OPTIONS:
  --size N               subscribers (spotify) or users (twitter) [10000]
  --seed N               RNG seed                                 [42]
  --out FILE             output path                              [stdout]

INGEST OPTIONS:
  --out FILE             output store path (required)
";

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
enum Command {
    Solve {
        source: WorkloadSource,
        tau: u64,
        instance: InstanceType,
        selector: SelectorKind,
        allocator: AllocatorKind,
        threads: usize,
        refine: Option<SearchBudget>,
        effective: bool,
        scale: Option<(u64, u64)>,
        simulate: bool,
    },
    Pack {
        trace: String,
        tau: u64,
        instance: InstanceType,
        mixed: bool,
        refine: SearchBudget,
        export_lp: Option<String>,
        effective: bool,
        scale: Option<(u64, u64)>,
    },
    Plan {
        trace: String,
        tau: u64,
        mixed: bool,
        effective: bool,
        scale: Option<(u64, u64)>,
    },
    Reprovision {
        source: WorkloadSource,
        tau: u64,
        instance: InstanceType,
        epochs: u64,
        churn: f64,
        sigma: f64,
        drift_seed: u64,
        fresh: bool,
        threads: usize,
        mixed: bool,
        effective: bool,
        scale: Option<(u64, u64)>,
        simulate: bool,
    },
    Generate {
        family: String,
        size: usize,
        seed: u64,
        out: Option<String>,
    },
    Ingest {
        trace: String,
        out: String,
    },
    Analyze {
        source: WorkloadSource,
        blast_radius: Option<usize>,
        tau: Option<u64>,
        instance: InstanceType,
        effective: bool,
        scale: Option<(u64, u64)>,
    },
    Drill {
        trace: String,
        tau: u64,
        kill: KillSpec,
        sla_pairs: Option<u64>,
        max_epochs: u64,
        instance: InstanceType,
        effective: bool,
        scale: Option<(u64, u64)>,
    },
    Serve {
        family: Option<String>,
        store: Option<String>,
        size: usize,
        seed: u64,
        tau: u64,
        instance: InstanceType,
        epochs: u64,
        epoch_events: Option<u64>,
        epoch_ms: Option<u64>,
        churn: f64,
        sigma: f64,
        drift_seed: u64,
        dir: Option<String>,
        snapshot_every: u64,
        threads: usize,
        resume: bool,
        drill: Vec<(u64, KillSpec)>,
        repair_budget: Option<u64>,
        compact_every: Option<u64>,
        compact_steps: u64,
        sync_retries: u32,
        retry_backoff_ms: u64,
        effective: bool,
        scale: Option<(u64, u64)>,
        summary: Option<String>,
        simulate: bool,
    },
    Help,
}

/// Where a command's workload comes from: a TSV trace (parsed row by
/// row) or an ingested `MCSSTOR1` store (one read plus checksums, zero
/// per-row work — see `docs/STORE.md`).
#[derive(Clone, Debug, PartialEq)]
enum WorkloadSource {
    /// A `pubsub-trace v1` TSV path (the positional argument).
    Trace(String),
    /// An `MCSSTOR1` store path (the `--store` flag).
    Store(String),
}

/// A parsed kill list: explicit VM indices or a share of the fleet.
#[derive(Clone, Debug, PartialEq)]
enum KillSpec {
    /// Explicit slot indices — `0,3,9`, `0-7`, or mixed `0,4-6`.
    List(Vec<usize>),
    /// A leading share of the fleet — `20%` kills the first ⌈20%·n⌉ VMs
    /// (a correlated-rack / region-outage stand-in).
    Percent(u32),
}

/// The most slots one kill list may name. A list is expanded when it is
/// parsed, and fleets here have tens to hundreds of VMs.
const MAX_KILL_SLOTS: u64 = 65_536;

fn parse_kill(spec: &str) -> Result<KillSpec, String> {
    if let Some(pct) = spec.strip_suffix('%') {
        let pct: u32 = pct
            .parse()
            .map_err(|e| format!("bad kill share {spec:?}: {e}"))?;
        if pct == 0 || pct > 100 {
            return Err(format!("kill share {spec:?} must be in 1%..=100%"));
        }
        return Ok(KillSpec::Percent(pct));
    }
    // Indices parse as u32, the slot id type of the event log and the
    // fleet ledger, so no index wraps onto another VM.
    let mut indices = Vec::new();
    for item in spec.split(',') {
        // A single index is the range from itself to itself.
        let (a, b, form) = match item.split_once('-') {
            Some((a, b)) => (a, b, "range"),
            None => (item, item, "index"),
        };
        let end = |s: &str| -> Result<u32, String> {
            s.parse()
                .map_err(|e| format!("bad kill {form} {item:?}: {e}"))
        };
        let (a, b) = (end(a)?, end(b)?);
        if a > b {
            return Err(format!("kill range {item:?} runs backwards"));
        }
        if indices.len() as u64 + u64::from(b - a) >= MAX_KILL_SLOTS {
            return Err(format!(
                "kill list {spec:?} names more than {MAX_KILL_SLOTS} slots"
            ));
        }
        indices.extend((a..=b).map(|i| i as usize));
    }
    Ok(KillSpec::List(indices))
}

/// Turns a kill spec into concrete slot indices for an `n`-VM fleet.
fn resolve_kill(spec: &KillSpec, n: usize) -> Vec<usize> {
    match spec {
        KillSpec::List(indices) => indices.clone(),
        KillSpec::Percent(pct) => {
            let k = (n * *pct as usize).div_ceil(100).min(n);
            (0..k).collect()
        }
    }
}

/// Parses a serve drill schedule: `"EPOCH:KILL;EPOCH:KILL"`.
fn parse_drill_schedule(spec: &str) -> Result<Vec<(u64, KillSpec)>, String> {
    let mut schedule = Vec::new();
    for entry in spec.split(';') {
        let (epoch, kill) = entry
            .split_once(':')
            .ok_or_else(|| format!("bad drill entry {entry:?}, want EPOCH:KILL"))?;
        let epoch: u64 = epoch
            .parse()
            .map_err(|e| format!("bad drill epoch {epoch:?}: {e}"))?;
        schedule.push((epoch, parse_kill(kill)?));
    }
    schedule.sort_by_key(|&(epoch, _)| epoch);
    Ok(schedule)
}

fn parse_instance(name: &str) -> Result<InstanceType, String> {
    instances::ALL
        .iter()
        .copied()
        .find(|i| i.name() == name)
        .ok_or_else(|| format!("unknown instance type {name:?}"))
}

fn parse_family(name: &str) -> Result<String, String> {
    match name {
        "spotify" | "twitter" => Ok(name.to_string()),
        other => Err(format!("unknown trace family {other:?}")),
    }
}

/// Rejects a size the family's generator cannot build: a Spotify-like
/// trace needs one subscriber, a Twitter-like follow graph two users.
fn check_size(family: &str, size: usize) -> Result<(), String> {
    let least = if family == "spotify" { 1 } else { 2 };
    if size < least {
        return Err(format!("--size must be at least {least} for {family}"));
    }
    Ok(())
}

fn parse_selector(name: &str) -> Result<SelectorKind, String> {
    match name {
        "gsp" => Ok(SelectorKind::Greedy),
        "rsp" => Ok(SelectorKind::Random { seed: 42 }),
        "shared" => Ok(SelectorKind::SharedAware),
        "optimal" => Ok(SelectorKind::Optimal),
        other => Err(format!("unknown selector {other:?}")),
    }
}

fn parse_allocator(name: &str) -> Result<AllocatorKind, String> {
    match name {
        "cbp" => Ok(AllocatorKind::custom_full()),
        "ffbp" => Ok(AllocatorKind::FirstFit),
        other => Err(format!("unknown allocator {other:?}")),
    }
}

fn parse_scale(spec: &str) -> Result<(u64, u64), String> {
    let (a, b) = spec
        .split_once('/')
        .ok_or_else(|| format!("bad scale {spec:?}, want SYNTH/PAPER"))?;
    let a: u64 = a.parse().map_err(|e| format!("bad scale numerator: {e}"))?;
    let b: u64 = b
        .parse()
        .map_err(|e| format!("bad scale denominator: {e}"))?;
    if a == 0 || b == 0 {
        return Err("scale parts must be positive".into());
    }
    Ok((a, b))
}

/// Budget grammar for `--refine`: a bare integer caps local-search
/// moves (deterministic, replay-safe); an `ms`/`s` suffix caps
/// wall-clock instead.
fn parse_budget(spec: &str) -> Result<SearchBudget, String> {
    if let Some(ms) = spec.strip_suffix("ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|e| format!("bad --refine budget {spec:?}: {e}"))?;
        if ms == 0 {
            return Err(format!("--refine budget {spec:?} must be positive"));
        }
        return Ok(SearchBudget::time(std::time::Duration::from_millis(ms)));
    }
    if let Some(secs) = spec.strip_suffix('s') {
        let secs: u64 = secs
            .parse()
            .map_err(|e| format!("bad --refine budget {spec:?}: {e}"))?;
        if secs == 0 {
            return Err(format!("--refine budget {spec:?} must be positive"));
        }
        return Ok(SearchBudget::time(std::time::Duration::from_secs(secs)));
    }
    let steps: u64 = spec
        .parse()
        .map_err(|_| format!("bad --refine budget {spec:?}: want moves, Nms, or Ns"))?;
    Ok(SearchBudget::steps(steps))
}

/// One row of a subcommand's flag table: the flag, and the noun its
/// `<flag> needs …` error uses, or `None` for a switch.
type Flag = (&'static str, Option<&'static str>);

const SOLVE_FLAGS: &[Flag] = &[
    ("--tau", Some("a value")),
    ("--instance", Some("a name")),
    ("--selector", Some("a name")),
    ("--allocator", Some("a name")),
    ("--threads", Some("a value")),
    ("--refine", Some("a budget")),
    ("--store", Some("a path")),
    ("--effective", None),
    ("--scale", Some("SYNTH/PAPER")),
    ("--simulate", None),
];

const PACK_FLAGS: &[Flag] = &[
    ("--tau", Some("a value")),
    ("--instance", Some("a name")),
    ("--refine", Some("a budget")),
    ("--mixed", None),
    ("--export-lp", Some("a path")),
    ("--effective", None),
    ("--scale", Some("SYNTH/PAPER")),
];

const PLAN_FLAGS: &[Flag] = &[
    ("--tau", Some("a value")),
    ("--mixed", None),
    ("--effective", None),
    ("--scale", Some("SYNTH/PAPER")),
];

const REPROVISION_FLAGS: &[Flag] = &[
    ("--tau", Some("a value")),
    ("--epochs", Some("a value")),
    ("--churn", Some("a value")),
    ("--sigma", Some("a value")),
    ("--drift-seed", Some("a value")),
    ("--fresh", None),
    ("--threads", Some("a value")),
    ("--instance", Some("a name")),
    ("--mixed", None),
    ("--store", Some("a path")),
    ("--effective", None),
    ("--scale", Some("SYNTH/PAPER")),
    ("--simulate", None),
];

const SERVE_FLAGS: &[Flag] = &[
    ("--trace", Some("a family: spotify | twitter")),
    ("--store", Some("a path")),
    ("--size", Some("a value")),
    ("--seed", Some("a value")),
    ("--tau", Some("a value")),
    ("--instance", Some("a name")),
    ("--epochs", Some("a value")),
    ("--epoch-events", Some("a value")),
    ("--epoch-ms", Some("a value")),
    ("--churn", Some("a value")),
    ("--sigma", Some("a value")),
    ("--drift-seed", Some("a value")),
    ("--dir", Some("a path")),
    ("--snapshot-every", Some("a value")),
    ("--threads", Some("a value")),
    ("--resume", None),
    ("--drill", Some("a schedule spec")),
    ("--repair-budget", Some("a value")),
    ("--compact-every", Some("a value")),
    ("--compact-steps", Some("a value")),
    ("--sync-retries", Some("a value")),
    ("--retry-backoff-ms", Some("a value")),
    ("--effective", None),
    ("--scale", Some("SYNTH/PAPER")),
    ("--summary", Some("a path")),
    ("--simulate", None),
];

const DRILL_FLAGS: &[Flag] = &[
    ("--tau", Some("a value")),
    ("--kill", Some("a spec")),
    ("--sla-pairs", Some("a value")),
    ("--max-epochs", Some("a value")),
    ("--instance", Some("a name")),
    ("--effective", None),
    ("--scale", Some("SYNTH/PAPER")),
];

const ANALYZE_FLAGS: &[Flag] = &[
    ("--store", Some("a path")),
    ("--blast-radius", Some("a value")),
    ("--tau", Some("a value")),
    ("--instance", Some("a name")),
    ("--effective", None),
    ("--scale", Some("SYNTH/PAPER")),
];

const GENERATE_FLAGS: &[Flag] = &[
    ("--size", Some("a value")),
    ("--seed", Some("a value")),
    ("--out", Some("a path")),
];

const INGEST_FLAGS: &[Flag] = &[("--out", Some("a path"))];

/// How a subcommand takes its leading positional argument.
#[derive(Clone, Copy)]
enum Positional {
    /// None: every argument is a flag or a flag's value.
    Absent,
    /// A trace path unless the first argument is a flag: the commands
    /// that also take `--store`.
    Optional,
    /// Always the first argument; the text is the noun of the
    /// `<cmd> needs …` error when there is none.
    Required(&'static str),
}

/// A subcommand's arguments after one scan over its flag table: the
/// positional, and each flag given, in order, with its value (empty for
/// a switch). The getters read values back; every occurrence is checked
/// and the last one wins.
struct Flags<'a> {
    positional: Option<&'a str>,
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Scans `args`: a token the table lacks is an unknown flag, and a
    /// flag with a noun takes the next token as its value, which must
    /// not itself start with `--`.
    fn parse(
        cmd: &str,
        args: &'a [String],
        positional: Positional,
        table: &[Flag],
    ) -> Result<Self, String> {
        let (positional, rest) = match (positional, args.split_first()) {
            (Positional::Required(_), Some((first, rest))) => (Some(first.as_str()), rest),
            (Positional::Optional, Some((first, rest))) if !first.starts_with("--") => {
                (Some(first.as_str()), rest)
            }
            (Positional::Required(noun), None) => return Err(format!("{cmd} needs {noun}")),
            _ => (None, args),
        };
        let mut given = Vec::new();
        let mut rest = rest.iter();
        while let Some(token) = rest.next() {
            let &(flag, noun) = table
                .iter()
                .find(|(flag, _)| flag == token)
                .ok_or_else(|| format!("unknown {cmd} flag {token:?}"))?;
            let value = match noun {
                Some(noun) => rest
                    .next()
                    .filter(|value| !value.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs {noun}"))?,
                None => "",
            };
            given.push((flag, value));
        }
        Ok(Flags { positional, given })
    }

    /// The required positional, which `parse` has checked is there.
    fn first(&self) -> String {
        self.positional
            .expect("parse rejects a missing required positional")
            .to_string()
    }

    /// The optional positional trace path or `--store`: exactly one.
    fn source(&self, cmd: &str) -> Result<WorkloadSource, String> {
        match (self.positional, self.text("--store")) {
            (Some(t), None) => Ok(WorkloadSource::Trace(t.to_string())),
            (None, Some(s)) => Ok(WorkloadSource::Store(s)),
            (Some(_), Some(_)) => Err(format!(
                "{cmd} takes either a trace path or --store, not both"
            )),
            (None, None) => Err(format!("{cmd} needs a trace path or --store FILE")),
        }
    }

    /// Whether `flag` was given at all.
    fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|&(f, _)| f == flag)
    }

    /// The last value given for `flag`.
    fn text(&self, flag: &str) -> Option<String> {
        self.given
            .iter()
            .rev()
            .find(|&&(f, _)| f == flag)
            .map(|&(_, value)| value.to_string())
    }

    /// Every value given for `flag`, through `parse`; the last one kept.
    fn parsed<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for &(f, value) in &self.given {
            if f == flag {
                last = Some(parse(value)?);
            }
        }
        Ok(last)
    }

    /// A number that `bad` does not reject; if it does, the error reads
    /// `<flag> <rule>`.
    fn checked<T: FromStr<Err: Display>>(
        &self,
        flag: &str,
        bad: impl Fn(&T) -> bool,
        rule: &str,
    ) -> Result<Option<T>, String> {
        self.parsed(flag, |raw| {
            let n: T = raw
                .parse()
                .map_err(|e| format!("bad {flag} value {raw:?}: {e}"))?;
            if bad(&n) {
                return Err(format!("{flag} {rule}"));
            }
            Ok(n)
        })
    }

    fn num<T: FromStr<Err: Display>>(&self, flag: &str) -> Result<Option<T>, String> {
        self.checked(flag, |_| false, "")
    }

    /// A number other than zero, which reads `<flag> <rule>`.
    fn nonzero<T: FromStr<Err: Display> + Default + PartialEq>(
        &self,
        flag: &str,
        rule: &str,
    ) -> Result<Option<T>, String> {
        self.checked(flag, |n| *n == T::default(), rule)
    }

    fn tau(&self) -> Result<u64, String> {
        self.num("--tau")?
            .ok_or_else(|| "--tau is required".to_string())
    }

    fn instance(&self) -> Result<InstanceType, String> {
        Ok(self
            .parsed("--instance", parse_instance)?
            .unwrap_or(instances::C3_LARGE))
    }

    fn scale(&self) -> Result<Option<(u64, u64)>, String> {
        self.parsed("--scale", parse_scale)
    }

    fn churn(&self) -> Result<f64, String> {
        let bad = |c: &f64| !(0.0..=1.0).contains(c);
        let churn = self.checked("--churn", bad, "must be a probability in [0, 1]")?;
        Ok(churn.unwrap_or(0.1))
    }

    fn sigma(&self) -> Result<f64, String> {
        let bad = |s: &f64| !(s.is_finite() && *s >= 0.0);
        let sigma = self.checked("--sigma", bad, "must be finite and non-negative")?;
        Ok(sigma.unwrap_or(0.1))
    }
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some((cmd, args)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let cmd = cmd.as_str();
    let trace_path = Positional::Required("a trace path");
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "analyze" => {
            let f = Flags::parse(cmd, args, Positional::Optional, ANALYZE_FLAGS)?;
            let analyze = Command::Analyze {
                source: f.source(cmd)?,
                blast_radius: f.nonzero("--blast-radius", "must be at least 1")?,
                tau: f.num("--tau")?,
                instance: f.instance()?,
                effective: f.has("--effective"),
                scale: f.scale()?,
            };
            if f.has("--blast-radius") && !f.has("--tau") {
                return Err("--blast-radius needs --tau (it solves the trace)".into());
            }
            Ok(analyze)
        }
        "drill" => {
            let f = Flags::parse(cmd, args, trace_path, DRILL_FLAGS)?;
            Ok(Command::Drill {
                trace: f.first(),
                tau: f.tau()?,
                kill: f
                    .parsed("--kill", parse_kill)?
                    .ok_or_else(|| "--kill is required".to_string())?,
                sla_pairs: f.nonzero(
                    "--sla-pairs",
                    "must be positive (omit it to drain unbounded)",
                )?,
                max_epochs: f
                    .nonzero("--max-epochs", "must be at least 1")?
                    .unwrap_or(64),
                instance: f.instance()?,
                effective: f.has("--effective"),
                scale: f.scale()?,
            })
        }
        "generate" => {
            let f = Flags::parse(
                cmd,
                args,
                Positional::Required("a family: spotify | twitter"),
                GENERATE_FLAGS,
            )?;
            let family = parse_family(&f.first())?;
            let size = f.num("--size")?.unwrap_or(10_000);
            check_size(&family, size)?;
            Ok(Command::Generate {
                family,
                size,
                seed: f.num("--seed")?.unwrap_or(42),
                out: f.text("--out"),
            })
        }
        "ingest" => {
            let f = Flags::parse(cmd, args, trace_path, INGEST_FLAGS)?;
            Ok(Command::Ingest {
                trace: f.first(),
                out: f
                    .text("--out")
                    .ok_or_else(|| "--out is required (the store path)".to_string())?,
            })
        }
        "plan" => {
            let f = Flags::parse(cmd, args, trace_path, PLAN_FLAGS)?;
            Ok(Command::Plan {
                trace: f.first(),
                tau: f.tau()?,
                mixed: f.has("--mixed"),
                effective: f.has("--effective"),
                scale: f.scale()?,
            })
        }
        "reprovision" => {
            let f = Flags::parse(cmd, args, Positional::Optional, REPROVISION_FLAGS)?;
            Ok(Command::Reprovision {
                // A missing --tau is reported before a missing trace.
                tau: f.tau()?,
                source: f.source(cmd)?,
                instance: f.instance()?,
                epochs: f.nonzero("--epochs", "must be at least 1")?.unwrap_or(5),
                churn: f.churn()?,
                sigma: f.sigma()?,
                drift_seed: f.num("--drift-seed")?.unwrap_or(42),
                fresh: f.has("--fresh"),
                threads: f.nonzero("--threads", "must be at least 1")?.unwrap_or(1),
                mixed: f.has("--mixed"),
                effective: f.has("--effective"),
                scale: f.scale()?,
                simulate: f.has("--simulate"),
            })
        }
        "solve" => {
            let f = Flags::parse(cmd, args, Positional::Optional, SOLVE_FLAGS)?;
            let solve = Command::Solve {
                // A missing --tau is reported before a missing trace.
                tau: f.tau()?,
                source: f.source(cmd)?,
                instance: f.instance()?,
                selector: f
                    .parsed("--selector", parse_selector)?
                    .unwrap_or(SelectorKind::Greedy),
                allocator: f
                    .parsed("--allocator", parse_allocator)?
                    .unwrap_or_else(AllocatorKind::custom_full),
                threads: f.nonzero("--threads", "must be at least 1")?.unwrap_or(0),
                refine: f.parsed("--refine", parse_budget)?,
                effective: f.has("--effective"),
                scale: f.scale()?,
                simulate: f.has("--simulate"),
            };
            // Only GSP has a threaded variant.
            if matches!(solve, Command::Solve { selector, threads, .. }
                if threads > 1 && selector != SelectorKind::Greedy)
            {
                return Err("--threads needs --selector gsp".into());
            }
            Ok(solve)
        }
        "pack" => {
            let f = Flags::parse(cmd, args, trace_path, PACK_FLAGS)?;
            let pack = Command::Pack {
                trace: f.first(),
                tau: f.tau()?,
                instance: f.instance()?,
                mixed: f.has("--mixed"),
                refine: f
                    .parsed("--refine", parse_budget)?
                    .unwrap_or(SearchBudget::UNBOUNDED),
                export_lp: f.text("--export-lp"),
                effective: f.has("--effective"),
                scale: f.scale()?,
            };
            if f.has("--mixed") && f.has("--export-lp") {
                return Err(
                    "--export-lp cannot be combined with --mixed: the LP formulation is \
                     homogeneous (one capacity for every candidate VM)"
                        .into(),
                );
            }
            Ok(pack)
        }
        "serve" => {
            let f = Flags::parse(cmd, args, Positional::Absent, SERVE_FLAGS)?;
            let serve = Command::Serve {
                family: f.parsed("--trace", parse_family)?,
                store: f.text("--store"),
                size: f.num("--size")?.unwrap_or(2_000),
                seed: f.num("--seed")?.unwrap_or(42),
                tau: f.num("--tau")?.unwrap_or(100),
                instance: f.instance()?,
                epochs: f.nonzero("--epochs", "must be at least 1")?.unwrap_or(10),
                epoch_events: f.nonzero("--epoch-events", "must be positive")?,
                epoch_ms: f.nonzero("--epoch-ms", "must be positive")?,
                churn: f.churn()?,
                sigma: f.sigma()?,
                drift_seed: f.num("--drift-seed")?.unwrap_or(42),
                dir: f.text("--dir"),
                snapshot_every: f.num("--snapshot-every")?.unwrap_or(8),
                threads: f.nonzero("--threads", "must be at least 1")?.unwrap_or(1),
                resume: f.has("--resume"),
                drill: f
                    .parsed("--drill", parse_drill_schedule)?
                    .unwrap_or_default(),
                repair_budget: f.nonzero(
                    "--repair-budget",
                    "must be positive (omit it to drain unbounded)",
                )?,
                compact_every: f.nonzero(
                    "--compact-every",
                    "must be positive (omit it to disable compaction)",
                )?,
                compact_steps: f
                    .nonzero("--compact-steps", "must be positive")?
                    .unwrap_or(2_048),
                sync_retries: f.num("--sync-retries")?.unwrap_or(0),
                retry_backoff_ms: f.num("--retry-backoff-ms")?.unwrap_or(0),
                effective: f.has("--effective"),
                scale: f.scale()?,
                summary: f.text("--summary"),
                simulate: f.has("--simulate"),
            };
            // Every value parsed above, so a flag given is a field set.
            let (trace, store) = (f.has("--trace"), f.has("--store"));
            let resume = f.has("--resume");
            if trace && store {
                return Err(
                    "--trace and --store are mutually exclusive (one initial workload)".into(),
                );
            }
            if !trace && !store {
                return Err("--trace is required: spotify | twitter (or --store FILE)".into());
            }
            if f.has("--epoch-events") && f.has("--epoch-ms") {
                return Err("--epoch-events and --epoch-ms are mutually exclusive".into());
            }
            if resume && f.has("--epoch-ms") {
                return Err(
                    "--resume cannot replay wall-clock epochs; use --epoch-events or the \
                     default one-epoch-per-batch mode"
                        .into(),
                );
            }
            if resume && !f.has("--dir") {
                return Err("--resume needs --dir (the state directory to recover)".into());
            }
            if resume && f.has("--drill") {
                return Err(
                    "--drill cannot be combined with --resume: the drill's failure events \
                     are already in the recovered log"
                        .into(),
                );
            }
            if f.has("--compact-steps") && !f.has("--compact-every") {
                return Err("--compact-steps needs --compact-every".into());
            }
            // --store ignores --size, so only a generated trace checks it.
            if let Command::Serve {
                family: Some(family),
                size,
                ..
            } = &serve
            {
                check_size(family, *size)?;
            }
            Ok(serve)
        }
        other => Err(format!("unknown command {other:?}; try `mcss help`")),
    }
}

fn load_trace(path: &str) -> Result<Workload, String> {
    let file = File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    read_workload(BufReader::new(file)).map_err(|e| e.to_string())
}

fn load_source(source: &WorkloadSource) -> Result<Workload, String> {
    match source {
        WorkloadSource::Trace(path) => load_trace(path),
        WorkloadSource::Store(path) => {
            Workload::from_store(Path::new(path)).map_err(|e| format!("loading store {path}: {e}"))
        }
    }
}

/// The whole instance catalogue priced under the chosen calibration —
/// the candidate list for `plan` and the tier table for `--mixed`.
fn catalogue(effective: bool, scale: Option<(u64, u64)>) -> Vec<Ec2CostModel> {
    instances::ALL
        .iter()
        .map(|&i| cost_model(i, effective, scale))
        .collect()
}

/// The paper's EC2 cost model for `instance` (§II, §IV-A): the default
/// or the figure-calibrated (`--effective`) capacity, then the
/// `--scale` volume compensation.
fn cost_model(instance: InstanceType, effective: bool, scale: Option<(u64, u64)>) -> Ec2CostModel {
    let cost = if effective {
        Ec2CostModel::paper_effective(instance)
    } else {
        Ec2CostModel::paper_default(instance)
    };
    match scale {
        Some((synth, paper)) => cost.with_volume_scale(synth, paper),
        None => cost,
    }
}

fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Help => {
            print!("{HELP}");
            Ok(())
        }
        Command::Analyze {
            source,
            blast_radius,
            tau,
            instance,
            effective,
            scale,
        } => {
            let workload = load_source(&source)?;
            println!("{}", workload.stats());
            let issues = workload.validate();
            if issues.is_empty() {
                println!("structure:         regular (every topic followed, every subscriber interested)");
            } else {
                println!(
                    "structure:         {} irregularities (first: {})",
                    issues.len(),
                    issues[0]
                );
            }
            println!(
                "{}",
                mcss_core::MemoryFootprint::measure(&workload, None, None)
            );
            if let WorkloadSource::Store(path) = &source {
                // The on-disk shape of what we just loaded: one line
                // per section next to the resident footprint above.
                let reader = StoreReader::open(Path::new(path))
                    .map_err(|e| format!("reopening store {path}: {e}"))?;
                let subs = workload.num_subscribers().max(1) as f64;
                println!(
                    "\non-disk store:     {} bytes in {} sections ({:.1} bytes/subscriber)",
                    reader.file_len(),
                    reader.sections().len(),
                    reader.file_len() as f64 / subs
                );
                for info in reader.sections() {
                    println!("  {:<18} {:>12} bytes", info.name, info.len);
                }
            }
            if let Some(k) = blast_radius {
                let tau = tau.expect("parser enforces --tau with --blast-radius");
                let cost = cost_model(instance, effective, scale);
                let inst = McssInstance::new(workload, Rate::new(tau), cost.capacity())
                    .map_err(|e| e.to_string())?;
                let outcome = Solver::default()
                    .solve(&inst, &cost)
                    .map_err(|e| e.to_string())?;
                let profile = fragility_profile(&inst, &outcome.allocation);
                let mut ranked: Vec<(usize, usize)> = profile.iter().copied().enumerate().collect();
                // Starved-count descending, VM index ascending for ties.
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                println!(
                    "\nblast radius (top {} of {} VMs — subscribers starved if that VM dies):",
                    k.min(ranked.len()),
                    ranked.len()
                );
                for &(vm, starved) in ranked.iter().take(k) {
                    let m = outcome.allocation.vm(vm);
                    println!(
                        "  vm {vm:>4}: {starved:>6} starved  ({} pairs, {} bandwidth)",
                        m.pair_count(),
                        m.used()
                    );
                }
            }
            Ok(())
        }
        Command::Drill {
            trace,
            tau,
            kill,
            sla_pairs,
            max_epochs,
            instance,
            effective,
            scale,
        } => {
            let workload = load_trace(&trace)?;
            let cost = cost_model(instance, effective, scale);
            let inst = McssInstance::new(workload, Rate::new(tau), cost.capacity())
                .map_err(|e| e.to_string())?;
            let mut realloc = IncrementalReallocator::new(IncrementalConfig::default());
            let outcome = realloc
                .step_with_delta(&inst, &cost, &WorkloadDelta::default())
                .map_err(|e| e.to_string())?;
            let baseline = outcome.allocation;
            let baseline_delivered = baseline.delivered_rates(inst.workload());
            let kills = resolve_kill(&kill, baseline.vm_count());
            println!(
                "baseline: {} VMs, {} pairs; killing {:?}",
                baseline.vm_count(),
                baseline.pair_count(),
                kills
            );

            // Blast radius first — what the outage looks like before any
            // repair runs.
            let impact = fail_vms(&inst, &baseline, &kills);
            if !impact.invalid.is_empty() {
                println!("  kill list names missing VMs: {:?}", impact.invalid);
            }
            println!(
                "impact: {} VMs down, {} pairs lost, {} delivery volume lost, {} starved",
                impact.vms_failed,
                impact.pairs_lost,
                impact.volume_lost,
                impact.starved.len()
            );

            // Repair under the SLA budget, epoch by epoch.
            let budget = sla_pairs.map_or(SlaBudget::UNBOUNDED, SlaBudget::pairs);
            let mut fails: &[usize] = &kills;
            let mut epoch = 0u64;
            let healed = loop {
                epoch += 1;
                let report = realloc
                    .repair_failures(&inst, fails, budget)
                    .map_err(|e| e.to_string())?;
                fails = &[];
                println!(
                    "repair epoch {epoch}: +{} pairs ({} deferred, {} starved, shortfall {}), {:.2} ms",
                    report.pairs_replaced,
                    report.pairs_deferred,
                    report.starved.len(),
                    report.shortfall,
                    report.elapsed.as_secs_f64() * 1e3
                );
                if report.drained {
                    break report.allocation;
                }
                if epoch >= max_epochs {
                    return Err(format!(
                        "SLA budget left {} pairs unplaced after {max_epochs} epochs; raise \
                         --sla-pairs or --max-epochs",
                        report.pairs_deferred
                    ));
                }
            };

            // The drained repair must restore every subscriber to exactly
            // the satisfaction the fresh solve delivered.
            let healed_delivered = healed.delivered_rates(inst.workload());
            healed
                .validate(inst.workload(), inst.tau())
                .map_err(|e| format!("internal error — repaired fleet invalid: {e}"))?;
            if healed_delivered == baseline_delivered {
                println!(
                    "verdict: drained in {epoch} epochs; satisfaction bit-identical to the \
                     fresh solve ({} VMs vs {} before the drill)",
                    healed.vm_count(),
                    baseline.vm_count()
                );
                Ok(())
            } else {
                Err("repair drained but satisfaction diverged from the fresh solve".into())
            }
        }
        Command::Generate {
            family,
            size,
            seed,
            out,
        } => {
            let workload = match family.as_str() {
                "spotify" => SpotifyLike::new(size, seed).generate(),
                _ => TwitterLike::new(size, seed).generate(),
            };
            match out {
                Some(path) => {
                    let file = File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
                    write_workload(BufWriter::new(file), &workload).map_err(|e| e.to_string())?;
                    eprintln!(
                        "wrote {} topics / {} subscribers / {} pairs to {path}",
                        workload.num_topics(),
                        workload.num_subscribers(),
                        workload.pair_count()
                    );
                }
                None => {
                    let stdout = std::io::stdout();
                    write_workload(stdout.lock(), &workload).map_err(|e| e.to_string())?;
                }
            }
            Ok(())
        }
        Command::Ingest { trace, out } => {
            let parse_started = Instant::now();
            let workload = load_trace(&trace)?;
            let parse_ms = parse_started.elapsed().as_secs_f64() * 1e3;
            workload
                .to_store(Path::new(&out))
                .map_err(|e| format!("writing store {out}: {e}"))?;
            let reader = StoreReader::open(Path::new(&out))
                .map_err(|e| format!("verifying store {out}: {e}"))?;
            println!(
                "ingested {} topics / {} subscribers / {} pairs into {out}",
                workload.num_topics(),
                workload.num_subscribers(),
                workload.pair_count()
            );
            println!(
                "store: {} bytes in {} sections (trace parsed in {parse_ms:.1} ms; \
                 store loads skip that entirely)",
                reader.file_len(),
                reader.sections().len()
            );
            Ok(())
        }
        Command::Plan {
            trace,
            tau,
            mixed,
            effective,
            scale,
        } => {
            let workload = Arc::new(load_trace(&trace)?);
            let candidates = catalogue(effective, scale);
            let print_ranking = |report: &mcss_core::planner::PlannerReport| {
                for option in &report.ranked {
                    println!(
                        "{:<12} {} ({} VMs, {} bandwidth)",
                        option.name,
                        option.report.total_cost,
                        option.report.vm_count,
                        option.report.total_bandwidth
                    );
                }
                for (name, err) in &report.skipped {
                    println!("{name:<12} infeasible: {err}");
                }
            };
            if mixed {
                let fleet = FleetCostModel::new(candidates);
                let report = match plan_mixed(
                    Arc::clone(&workload),
                    Rate::new(tau),
                    &fleet,
                    Solver::default(),
                ) {
                    Ok(report) => report,
                    Err(e) => {
                        // The mixed solve only fails when even the largest
                        // tier cannot host a selected topic — every flavour
                        // is then individually infeasible too. Print the
                        // per-candidate diagnosis before bailing, like the
                        // plain plan does.
                        if let Ok(homogeneous) = plan_instance_type(
                            workload,
                            Rate::new(tau),
                            fleet.tiers(),
                            Solver::default(),
                        ) {
                            print_ranking(&homogeneous);
                        }
                        return Err(e.to_string());
                    }
                };
                print_ranking(&report.homogeneous);
                match report.homogeneous.best() {
                    Some(best) => println!(
                        "cheapest homogeneous: {} ({})",
                        best.name, best.report.total_cost
                    ),
                    None => println!("no single instance type can host this workload"),
                }
                println!(
                    "mixed fleet:          {} ({} VMs: {})",
                    report.mixed.report.total_cost,
                    report.mixed.report.vm_count,
                    report.mixed.report.mix
                );
                println!(
                    "mixed lower bound:    {} (gap {:.2}x)",
                    report.mixed.report.lower_bound_cost,
                    report.mixed.report.optimality_gap()
                );
                if let Some(savings) = report.savings() {
                    let best_cost = report
                        .homogeneous
                        .best()
                        .expect("savings imply a baseline")
                        .report
                        .total_cost;
                    if best_cost.is_zero() {
                        println!("mixed saves:          {savings}");
                    } else {
                        println!(
                            "mixed saves:          {savings} ({:.1}% of the homogeneous bill)",
                            100.0 * savings.as_dollars_f64() / best_cost.as_dollars_f64()
                        );
                    }
                }
                return Ok(());
            }
            let report =
                plan_instance_type(workload, Rate::new(tau), &candidates, Solver::default())
                    .map_err(|e| e.to_string())?;
            print_ranking(&report);
            let best = report
                .best()
                .ok_or_else(|| "no instance type can host this workload".to_string())?;
            println!("cheapest: {}", best.name);
            if let Some(spread) = report.spread() {
                println!("spread:   {spread}");
            }
            Ok(())
        }
        Command::Pack {
            trace,
            tau,
            instance,
            mixed,
            refine,
            export_lp: lp_path,
            effective,
            scale,
        } => {
            let workload = load_trace(&trace)?;
            if mixed {
                let fleet = FleetCostModel::new(catalogue(effective, scale));
                let inst = McssInstance::new(workload, Rate::new(tau), fleet.max_capacity())
                    .map_err(|e| e.to_string())?;
                let solve = |params| Solver::new(params).solve_mixed(&inst, &fleet);
                let greedy = solve(SolverParams::default()).map_err(|e| e.to_string())?;
                let refined = solve(SolverParams::default().with_refinement(refine))
                    .map_err(|e| e.to_string())?;
                refined
                    .allocation
                    .validate(inst.workload(), inst.tau())
                    .map_err(|e| format!("internal error — invalid refined allocation: {e}"))?;
                for (label, outcome) in [("greedy (mixed):", &greedy), ("refined:", &refined)] {
                    let r = &outcome.report;
                    println!(
                        "{label:<17}{} ({} VMs: {})",
                        r.total_cost, r.vm_count, r.mix
                    );
                }
                println!(
                    "lower bound:     {} (gap {:.2}x)",
                    refined.report.lower_bound_cost,
                    refined.report.optimality_gap()
                );
                if let Some(r) = &refined.refinement {
                    println!("refinement: {r}");
                }
                return Ok(());
            }
            let cost = cost_model(instance, effective, scale);
            let inst = McssInstance::new(workload, Rate::new(tau), cost.capacity())
                .map_err(|e| e.to_string())?;
            let solve = |params| {
                Solver::new(params)
                    .solve(&inst, &cost)
                    .map_err(|e| e.to_string())
            };
            let greedy = solve(SolverParams::default())?;
            let ffd = solve(SolverParams {
                allocator: AllocatorKind::FirstFitDecreasing,
                ..SolverParams::default()
            })?;
            let refined = solve(SolverParams::default().with_refinement(refine))?;
            refined
                .allocation
                .validate(inst.workload(), inst.tau())
                .map_err(|e| format!("internal error — invalid refined allocation: {e}"))?;
            for (label, outcome) in [
                ("greedy (CBP):", &greedy),
                ("FFD:", &ffd),
                ("refined:", &refined),
            ] {
                let r = &outcome.report;
                let (total, vms, bandwidth) = (r.total_cost, r.vm_count, r.total_bandwidth);
                println!("{label:<15}{total} ({vms} VMs, {bandwidth} bandwidth)");
            }
            println!(
                "lower bound:   {} ({} VMs, {} volume)",
                refined.report.lower_bound_cost,
                refined.report.lower_bound_vms,
                refined.report.lower_bound_volume
            );
            if let Some(r) = &refined.refinement {
                println!("refinement: {r}");
            }
            if let Some(path) = lp_path {
                let lp = export_lp(
                    &inst,
                    &cost,
                    IlpOptions {
                        max_vms: greedy.report.vm_count,
                    },
                );
                std::fs::write(&path, lp).map_err(|e| format!("writing {path}: {e}"))?;
                println!("LP written to {path}");
            }
            Ok(())
        }
        Command::Reprovision {
            source,
            tau,
            instance,
            epochs,
            churn,
            sigma,
            drift_seed,
            fresh,
            threads,
            mixed,
            effective,
            scale,
            simulate,
        } => {
            let mut workload = load_source(&source)?;
            // In mixed mode the scalar cost model (largest tier) only
            // feeds the informational lower bound; epoch costs and
            // capacities come from the fleet.
            let fleet = mixed.then(|| FleetCostModel::new(catalogue(effective, scale)));
            let cost = match &fleet {
                Some(fleet) => fleet
                    .tiers()
                    .iter()
                    .max_by_key(|t| t.capacity())
                    .expect("catalogue is non-empty")
                    .clone(),
                None => cost_model(instance, effective, scale),
            };
            let drift = DriftModel {
                rate_sigma: sigma,
                churn_prob: churn,
                seed: drift_seed,
            };
            let mut re = if fresh {
                Reprovisioner::new(Solver::default())
            } else {
                Reprovisioner::incremental(
                    Solver::default(),
                    IncrementalConfig::default().with_repair_threads(threads),
                )
            };
            if let Some(fleet) = &fleet {
                re = re.with_fleet(fleet.clone());
            }
            println!(
                "reprovisioning {} epochs ({}{}; churn {churn}, sigma {sigma}, seed {drift_seed})",
                epochs,
                if fresh {
                    "full re-solve per epoch"
                } else {
                    "incremental O(Δ) repair"
                },
                if mixed { ", mixed fleet" } else { "" }
            );
            let mut delta = WorkloadDelta::default();
            for epoch in 0..epochs {
                let inst = McssInstance::new(workload.clone(), Rate::new(tau), cost.capacity())
                    .map_err(|e| e.to_string())?;
                let r = re
                    .step(&inst, &cost, &delta)
                    .map_err(|e| format!("epoch {epoch}: {e}"))?;
                r.allocation
                    .validate(inst.workload(), inst.tau())
                    .map_err(|e| format!("internal error — invalid epoch {epoch}: {e}"))?;
                let mut line = format!(
                    "epoch {:>3}: {:>4} VMs ({:+}), cost {}, moved {} pairs, reused {}{}",
                    r.epoch,
                    r.report.vm_count,
                    r.vm_delta,
                    r.report.total_cost,
                    r.pairs_moved,
                    r.pairs_reused,
                    if r.full_resolve { " [full solve]" } else { "" },
                );
                if let Some(typing) = r.allocation.typing() {
                    line.push_str(&format!(", fleet {}", typing.mix()));
                }
                if simulate {
                    let sim =
                        Simulation::new(SimConfig::default()).run(inst.workload(), &r.allocation);
                    let ok = sim.all_satisfied(inst.workload(), inst.tau());
                    line.push_str(if ok {
                        ", sim: satisfied"
                    } else {
                        ", sim: VIOLATED"
                    });
                }
                println!("{line}");
                if epoch + 1 < epochs {
                    (workload, delta) = drift.evolve_tracked(&workload, epoch);
                }
            }
            println!(
                "cumulative cost over {} epochs: {}",
                re.epochs(),
                re.cumulative_cost()
            );
            Ok(())
        }
        Command::Solve {
            source,
            tau,
            instance,
            selector,
            allocator,
            threads,
            refine,
            effective,
            scale,
            simulate,
        } => {
            let workload = load_source(&source)?;
            let cost = cost_model(instance, effective, scale);
            let mcss_instance = McssInstance::new(workload, Rate::new(tau), cost.capacity())
                .map_err(|e| e.to_string())?;
            // The parser admits --threads above 1 only with GSP.
            let selector = if threads > 1 {
                SelectorKind::GreedyParallel { threads }
            } else {
                selector
            };
            let solver = Solver::new(SolverParams {
                selector,
                allocator,
                refine,
            });
            let outcome = solver
                .solve(&mcss_instance, &cost)
                .map_err(|e| e.to_string())?;
            outcome
                .allocation
                .validate(mcss_instance.workload(), mcss_instance.tau())
                .map_err(|e| format!("internal error — invalid allocation: {e}"))?;
            println!("{}", outcome.report);
            if let Some(r) = &outcome.refinement {
                println!("refinement: {r}");
            }
            println!(
                "bandwidth at full scale: {:.2} GB",
                cost.volume_to_gb(outcome.report.total_bandwidth)
            );
            if simulate {
                let report = Simulation::new(SimConfig::default())
                    .run(mcss_instance.workload(), &outcome.allocation);
                println!("\nsimulation:\n{report}");
                let ok = report.all_satisfied(mcss_instance.workload(), mcss_instance.tau());
                println!("operational satisfaction: {}", verdict(ok));
            }
            Ok(())
        }
        Command::Serve {
            family,
            store,
            size,
            seed,
            tau,
            instance,
            epochs,
            epoch_events,
            epoch_ms,
            churn,
            sigma,
            drift_seed,
            dir,
            snapshot_every,
            threads,
            resume,
            drill,
            repair_budget,
            compact_every,
            compact_steps,
            sync_retries,
            retry_backoff_ms,
            effective,
            scale,
            summary,
            simulate,
        } => {
            let cost = cost_model(instance, effective, scale);
            let capacity = cost.capacity();
            let state_dir = dir.map(PathBuf::from).unwrap_or_else(|| {
                std::env::temp_dir().join(format!("mcss-serve-{}", std::process::id()))
            });
            let mut config = ServeConfig::new(Rate::new(tau), capacity)
                .with_snapshot_every(snapshot_every)
                .with_threads(threads)
                .with_sync_retries(sync_retries, retry_backoff_ms);
            if let Some(events) = epoch_events {
                config = config.with_epoch_events(events);
            }
            if let Some(pairs) = repair_budget {
                config = config.with_repair_budget(pairs);
            }
            if let Some(every) = compact_every {
                config = config.with_compaction(every, compact_steps);
            }
            let cost_box: Box<dyn CostModel> = Box::new(cost);
            let mut daemon = if resume {
                Daemon::resume(&state_dir, config, cost_box)
            } else {
                Daemon::create(&state_dir, config, cost_box)
            }
            .map_err(|e| e.to_string())?;
            let recovery = daemon.recovery();
            if let Some(r) = recovery {
                println!(
                    "recovered {} applied epochs, {} pending events from {} \
                     ({} log records verified, {} replayed past the snapshot, \
                     {} epochs replayed, {} torn bytes truncated)",
                    daemon.epochs_applied(),
                    daemon.pending_events(),
                    state_dir.display(),
                    r.records_verified,
                    r.records_replayed,
                    r.epochs_replayed,
                    r.torn_bytes
                );
            }

            // The stream label doubles as the summary JSON's "trace".
            let (initial, label) = match (&store, family.as_deref()) {
                (Some(path), _) => (
                    Workload::from_store(Path::new(path))
                        .map_err(|e| format!("loading store {path}: {e}"))?,
                    format!("store:{path}"),
                ),
                (None, Some("spotify")) => {
                    (SpotifyLike::new(size, seed).generate(), "spotify".into())
                }
                (None, _) => (TwitterLike::new(size, seed).generate(), "twitter".into()),
            };
            let size = if store.is_some() {
                initial.num_subscribers()
            } else {
                size
            };
            let mut driver = Driver::new(
                initial,
                DriftModel {
                    rate_sigma: sigma,
                    churn_prob: churn,
                    seed: drift_seed,
                },
            );
            println!(
                "serving {epochs} {label} drift batches (tau {tau}, capacity {}, state {})",
                capacity.get(),
                state_dir.display()
            );

            // A resumed daemon has already absorbed a prefix of the
            // deterministic driver stream: whole batches in per-batch
            // mode, an exact event count in watermark mode. Skip it.
            let mut skip_events = match (resume, epoch_events) {
                (true, Some(watermark)) => {
                    daemon.epochs_applied() * watermark + daemon.pending_events()
                }
                _ => 0,
            };
            let skip_batches = if resume && epoch_events.is_none() {
                daemon.epochs_applied()
            } else {
                0
            };

            let mut stats: Vec<EpochStats> = Vec::new();
            // Prints and keeps the epoch a call closed, if any; says
            // whether one closed.
            let mut record = |closed: Option<EpochStats>| {
                let Some(s) = closed else { return false };
                print_epoch(&s);
                stats.push(s);
                true
            };
            let mut total_events = 0u64;
            let started = Instant::now();
            let mut last_tick = Instant::now();
            for batch_index in 0..epochs {
                let events = if batch_index == 0 {
                    driver.initial_events()
                } else {
                    driver.next_epoch_events()
                };
                if batch_index < skip_batches {
                    continue; // the driver still had to advance its RNG
                }
                for event in events {
                    if skip_events > 0 {
                        skip_events -= 1;
                        continue;
                    }
                    total_events += 1;
                    record(daemon.submit(event).map_err(|e| e.to_string())?);
                }
                // Scheduled failure drills land after the batch's drift
                // events, so the kill and its budgeted repair fold into
                // this epoch.
                for (epoch_at, spec) in &drill {
                    if *epoch_at != batch_index {
                        continue;
                    }
                    let kills = resolve_kill(spec, daemon.vm_count());
                    println!("drill at batch {batch_index}: killing VMs {kills:?}");
                    for slot in kills {
                        total_events += 1;
                        let slot = u32::try_from(slot).expect("kill indices parse as u32 slot ids");
                        record(
                            daemon
                                .submit(Event::VmFail { slot })
                                .map_err(|e| e.to_string())?,
                        );
                    }
                }
                match (epoch_events, epoch_ms) {
                    (Some(_), _) => {} // the watermark closes epochs
                    (None, Some(ms)) => {
                        if last_tick.elapsed().as_millis() as u64 >= ms {
                            record(daemon.tick().map_err(|e| e.to_string())?);
                            last_tick = Instant::now();
                        }
                    }
                    (None, None) => {
                        record(daemon.tick().map_err(|e| e.to_string())?);
                    }
                }
            }
            // Flush whatever is still buffered in the final epoch.
            record(daemon.tick().map_err(|e| e.to_string())?);
            // A tight --repair-budget can leave orphans queued past the
            // last batch; keep closing repair-only epochs until healed.
            while daemon.pending_repairs() > 0 && record(daemon.tick().map_err(|e| e.to_string())?)
            {
            }
            let elapsed = started.elapsed();

            if let Some(allocation) = daemon.allocation() {
                let workload = daemon.workload().expect("an allocation implies a workload");
                allocation
                    .validate(workload, Rate::new(tau))
                    .map_err(|e| format!("internal error — invalid allocation: {e}"))?;
                if simulate {
                    let report = Simulation::new(SimConfig::default()).run(workload, &allocation);
                    let ok = report.all_satisfied(workload, Rate::new(tau));
                    println!("simulation: {}", verdict(ok));
                }
            }
            let events_per_sec = total_events as f64 / elapsed.as_secs_f64().max(1e-9);
            println!(
                "served {} epochs / {} events in {:.2}s ({:.0} events/s); state in {}",
                stats.len(),
                total_events,
                elapsed.as_secs_f64(),
                events_per_sec,
                state_dir.display()
            );

            if let Some(path) = summary {
                let mut apply_ms: Vec<f64> = stats
                    .iter()
                    .map(|s| s.apply_time.as_secs_f64() * 1e3)
                    .collect();
                apply_ms.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
                let pct = |p: f64| -> f64 {
                    if apply_ms.is_empty() {
                        0.0
                    } else {
                        apply_ms[(((apply_ms.len() - 1) as f64) * p).round() as usize]
                    }
                };
                let compaction_moves: u64 = stats.iter().map(|s| s.compaction_moves).sum();
                let recovery = recovery.map_or(String::new(), |r| {
                    format!(
                        ",\n  \"recovery\": {{\"records_verified\": {}, \
                         \"records_replayed\": {}, \"epochs_replayed\": {}, \
                         \"torn_bytes\": {}}}",
                        r.records_verified, r.records_replayed, r.epochs_replayed, r.torn_bytes
                    )
                });
                let json = format!(
                    "{{\n  \"trace\": \"{label}\",\n  \"subscribers\": {size},\n  \
                     \"epochs\": {},\n  \"events\": {total_events},\n  \
                     \"duration_s\": {:.3},\n  \"events_per_sec\": {events_per_sec:.1},\n  \
                     \"apply_ms_p50\": {:.3},\n  \"apply_ms_p99\": {:.3},\n  \
                     \"compaction_moves\": {compaction_moves},\n  \
                     \"final_vms\": {},\n  \"final_cost\": \"{}\",\n  \
                     \"resumed\": {resume}{recovery}\n}}\n",
                    stats.len(),
                    elapsed.as_secs_f64(),
                    pct(0.5),
                    pct(0.99),
                    stats.last().map(|s| s.vm_count).unwrap_or(0),
                    stats
                        .last()
                        .map(|s| s.fleet_cost.to_string())
                        .unwrap_or_default(),
                );
                std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
                println!("summary written to {path}");
            }
            Ok(())
        }
    }
}

/// The broker simulation's verdict on a fleet, as `solve` and `serve`
/// print it.
fn verdict(all_satisfied: bool) -> &'static str {
    if all_satisfied {
        "all subscribers satisfied"
    } else {
        "VIOLATED"
    }
}

/// One stdout line per applied epoch, shared by every serve mode.
fn print_epoch(s: &EpochStats) {
    let repair = if s.vms_failed > 0 || s.pairs_repaired > 0 || s.repair_deferred > 0 {
        format!(
            " [{} VMs failed, {} pairs repaired, {} deferred]",
            s.vms_failed, s.pairs_repaired, s.repair_deferred
        )
    } else {
        String::new()
    };
    let compaction = if s.compaction_moves > 0 {
        format!(
            " [compacted: {} moves, saved {}]",
            s.compaction_moves, s.compaction_saved
        )
    } else {
        String::new()
    };
    println!(
        "epoch {:>3}: {:>5} events, {:>4} VMs, cost {}, +{} -{} pairs (evicted {}, reused {}), {:.2} ms{}{}{compaction}",
        s.epoch,
        s.events_applied,
        s.vm_count,
        s.fleet_cost,
        s.pairs_placed,
        s.pairs_removed,
        s.pairs_evicted,
        s.pairs_reused,
        s.apply_time.as_secs_f64() * 1e3,
        if s.full_resolve { " [full solve]" } else { "" },
        repair,
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("try `mcss help`");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Command, String> {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn solve_defaults_and_flags() {
        let cmd = parse(&[
            "solve",
            "t.tsv",
            "--tau",
            "100",
            "--instance",
            "c3.xlarge",
            "--effective",
            "--scale",
            "100/4900",
            "--simulate",
        ])
        .unwrap();
        match cmd {
            Command::Solve {
                source,
                tau,
                instance,
                effective,
                scale,
                simulate,
                ..
            } => {
                assert_eq!(source, WorkloadSource::Trace("t.tsv".into()));
                assert_eq!(tau, 100);
                assert_eq!(instance.name(), "c3.xlarge");
                assert!(effective);
                assert_eq!(scale, Some((100, 4900)));
                assert!(simulate);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn solve_requires_tau() {
        let err = parse(&["solve", "t.tsv"]).unwrap_err();
        assert!(err.contains("--tau"));
    }

    #[test]
    fn store_source_parses_everywhere() {
        for cmd in ["solve", "reprovision", "analyze"] {
            // --store replaces the positional trace path.
            let parsed = if cmd == "analyze" {
                parse(&[cmd, "--store", "w.mcss"])
            } else {
                parse(&[cmd, "--store", "w.mcss", "--tau", "10"])
            }
            .unwrap_or_else(|e| panic!("{cmd} --store failed: {e}"));
            let source = match parsed {
                Command::Solve { source, .. }
                | Command::Reprovision { source, .. }
                | Command::Analyze { source, .. } => source,
                other => panic!("parsed {other:?}"),
            };
            assert_eq!(source, WorkloadSource::Store("w.mcss".into()));
            // Both sources at once is ambiguous; neither is missing input.
            let err = parse(&[cmd, "t.tsv", "--store", "w.mcss", "--tau", "10"]).unwrap_err();
            assert!(err.contains("not both"), "{cmd}: {err}");
            let err = if cmd == "analyze" {
                parse(&[cmd])
            } else {
                parse(&[cmd, "--tau", "10"])
            }
            .unwrap_err();
            assert!(err.contains("--store"), "{cmd}: {err}");
        }
    }

    #[test]
    fn serve_store_replaces_the_trace_family() {
        let cmd = parse(&["serve", "--store", "w.mcss", "--epochs", "2"]).unwrap();
        match cmd {
            Command::Serve { family, store, .. } => {
                assert_eq!(family, None);
                assert_eq!(store, Some("w.mcss".into()));
            }
            other => panic!("parsed {other:?}"),
        }
        let err = parse(&["serve", "--trace", "spotify", "--store", "w.mcss"]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "unexpected: {err}");
        let err = parse(&["serve", "--epochs", "2"]).unwrap_err();
        assert!(err.contains("--store"), "unexpected: {err}");
    }

    #[test]
    fn ingest_parses_and_requires_out() {
        let cmd = parse(&["ingest", "t.tsv", "--out", "w.mcss"]).unwrap();
        assert_eq!(
            cmd,
            Command::Ingest {
                trace: "t.tsv".into(),
                out: "w.mcss".into()
            }
        );
        assert!(parse(&["ingest", "t.tsv"]).unwrap_err().contains("--out"));
        assert!(parse(&["ingest"]).is_err());
        assert!(parse(&["ingest", "t.tsv", "--out", "w.mcss", "--frob"]).is_err());
    }

    #[test]
    fn rejects_unknown_inputs() {
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["solve", "t.tsv", "--tau", "1", "--selector", "magic"]).is_err());
        assert!(parse(&["solve", "t.tsv", "--tau", "1", "--instance", "m1.tiny"]).is_err());
        assert!(parse(&["generate", "facebook"]).is_err());
        assert!(parse(&["solve", "t.tsv", "--tau", "xyz"]).is_err());
        assert!(parse(&["solve", "t.tsv", "--tau", "1", "--scale", "5"]).is_err());
        assert!(parse(&["solve", "t.tsv", "--tau", "1", "--scale", "0/5"]).is_err());
    }

    #[test]
    fn generate_parses() {
        let cmd = parse(&[
            "generate", "twitter", "--size", "500", "--seed", "9", "--out", "x.tsv",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                family: "twitter".into(),
                size: 500,
                seed: 9,
                out: Some("x.tsv".into())
            }
        );
    }

    #[test]
    fn end_to_end_generate_and_solve_via_tempfile() {
        let dir = std::env::temp_dir().join("mcss-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tsv");
        run(Command::Generate {
            family: "spotify".into(),
            size: 300,
            seed: 3,
            out: Some(path.display().to_string()),
        })
        .unwrap();
        run(Command::Analyze {
            source: WorkloadSource::Trace(path.display().to_string()),
            blast_radius: None,
            tau: None,
            instance: instances::C3_LARGE,
            effective: false,
            scale: None,
        })
        .unwrap();
        run(Command::Analyze {
            source: WorkloadSource::Trace(path.display().to_string()),
            blast_radius: Some(3),
            tau: Some(50),
            instance: instances::C3_LARGE,
            effective: true,
            scale: Some((300, 100_000)),
        })
        .unwrap();
        // Ingest the trace into a store and drive the same commands
        // from it — the store path must be a drop-in replacement.
        let store = dir.join("trace.mcss");
        run(Command::Ingest {
            trace: path.display().to_string(),
            out: store.display().to_string(),
        })
        .unwrap();
        run(Command::Analyze {
            source: WorkloadSource::Store(store.display().to_string()),
            blast_radius: None,
            tau: None,
            instance: instances::C3_LARGE,
            effective: false,
            scale: None,
        })
        .unwrap();
        // A gentle scale ratio: at 300/4.9M the effective capacity would
        // shrink below a single loud topic's pair cost (the scale
        // artifact described under "Deviations from the paper" in
        // docs/PAPER_MAP.md — the Scenario harness clamps for that; the
        // raw CLI intentionally does not).
        run(Command::Solve {
            source: WorkloadSource::Store(store.display().to_string()),
            tau: 50,
            instance: instances::C3_LARGE,
            selector: SelectorKind::Greedy,
            allocator: AllocatorKind::custom_full(),
            threads: 0,
            refine: None,
            effective: true,
            scale: Some((300, 100_000)),
            simulate: true,
        })
        .unwrap();
        // The same trace again, on two GSP threads with refinement, and
        // ranked by the planner.
        run(Command::Solve {
            source: WorkloadSource::Trace(path.display().to_string()),
            tau: 50,
            instance: instances::C3_LARGE,
            selector: SelectorKind::Greedy,
            allocator: AllocatorKind::custom_full(),
            threads: 2,
            refine: Some(SearchBudget::steps(256)),
            effective: true,
            scale: Some((300, 100_000)),
            simulate: true,
        })
        .unwrap();
        run(Command::Plan {
            trace: path.display().to_string(),
            tau: 50,
            mixed: false,
            effective: true,
            scale: Some((300, 100_000)),
        })
        .unwrap();
        run(Command::Plan {
            trace: path.display().to_string(),
            tau: 50,
            mixed: true,
            effective: true,
            scale: Some((300, 100_000)),
        })
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_threads_need_the_greedy_selector() {
        let solve = |extra: &[&str]| parse(&[&["solve", "t.tsv", "--tau", "10"], extra].concat());
        match solve(&["--threads", "4"]).unwrap() {
            Command::Solve {
                selector, threads, ..
            } => {
                assert_eq!(selector, SelectorKind::Greedy);
                assert_eq!(threads, 4);
            }
            other => panic!("parsed {other:?}"),
        }
        for selector in ["rsp", "shared", "optimal"] {
            for args in [
                ["--selector", selector, "--threads", "2"],
                ["--threads", "2", "--selector", selector],
            ] {
                assert_eq!(
                    solve(&args).unwrap_err(),
                    "--threads needs --selector gsp",
                    "{args:?}"
                );
            }
            assert!(solve(&["--selector", selector, "--threads", "1"]).is_ok());
        }
        assert!(solve(&["--selector", "gsp", "--threads", "2"]).is_ok());
        assert!(solve(&["--threads", "0"]).is_err());
    }

    #[test]
    fn refine_budget_grammar() {
        assert_eq!(parse_budget("500").unwrap(), SearchBudget::steps(500));
        assert_eq!(
            parse_budget("100ms").unwrap(),
            SearchBudget::time(std::time::Duration::from_millis(100))
        );
        assert_eq!(
            parse_budget("2s").unwrap(),
            SearchBudget::time(std::time::Duration::from_secs(2))
        );
        assert!(parse_budget("0ms").is_err());
        assert!(parse_budget("0s").is_err());
        assert!(parse_budget("fast").is_err());
        // A zero step budget is legal: an explicit no-op refinement.
        assert_eq!(parse_budget("0").unwrap(), SearchBudget::steps(0));

        let cmd = parse(&["solve", "t.tsv", "--tau", "10", "--refine", "64"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Solve {
                refine: Some(b),
                ..
            } if b == SearchBudget::steps(64)
        ));
        assert!(parse(&["solve", "t.tsv", "--tau", "10", "--refine"]).is_err());
    }

    #[test]
    fn pack_parses_and_validates() {
        let cmd = parse(&["pack", "t.tsv", "--tau", "100"]).unwrap();
        match cmd {
            Command::Pack {
                trace,
                tau,
                mixed,
                refine,
                export_lp,
                ..
            } => {
                assert_eq!(trace, "t.tsv");
                assert_eq!(tau, 100);
                assert!(!mixed);
                assert_eq!(refine, SearchBudget::UNBOUNDED);
                assert_eq!(export_lp, None);
            }
            other => panic!("parsed {other:?}"),
        }
        let cmd = parse(&[
            "pack",
            "t.tsv",
            "--tau",
            "100",
            "--refine",
            "100ms",
            "--export-lp",
            "prog.lp",
        ])
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Pack {
                export_lp: Some(ref p),
                ..
            } if p == "prog.lp"
        ));
        assert!(parse(&["pack", "t.tsv"]).unwrap_err().contains("--tau"));
        // The LP formulation is homogeneous-only.
        let err = parse(&[
            "pack",
            "t.tsv",
            "--tau",
            "1",
            "--mixed",
            "--export-lp",
            "p.lp",
        ])
        .unwrap_err();
        assert!(err.contains("--export-lp"), "unexpected: {err}");
        assert!(parse(&["pack", "t.tsv", "--tau", "1", "--frob"]).is_err());
    }

    #[test]
    fn pack_runs_end_to_end() {
        let dir = std::env::temp_dir().join(format!("mcss-cli-pack-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.tsv");
        let lp = dir.join("prog.lp");
        run(Command::Generate {
            family: "spotify".into(),
            size: 300,
            seed: 3,
            out: Some(trace.display().to_string()),
        })
        .unwrap();
        run(Command::Pack {
            trace: trace.display().to_string(),
            tau: 50,
            instance: instances::C3_LARGE,
            mixed: false,
            refine: SearchBudget::steps(512),
            export_lp: Some(lp.display().to_string()),
            effective: true,
            scale: Some((300, 100_000)),
        })
        .unwrap();
        let program = std::fs::read_to_string(&lp).unwrap();
        assert!(program.starts_with("\\ MCSS integer program"));
        assert!(program.contains("Minimize"));
        run(Command::Pack {
            trace: trace.display().to_string(),
            tau: 50,
            instance: instances::C3_LARGE,
            mixed: true,
            refine: SearchBudget::steps(512),
            export_lp: None,
            effective: true,
            scale: Some((300, 100_000)),
        })
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_compaction_flags_parse_and_validate() {
        let cmd = parse(&[
            "serve",
            "--trace",
            "spotify",
            "--compact-every",
            "4",
            "--compact-steps",
            "128",
        ])
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                compact_every: Some(4),
                compact_steps: 128,
                ..
            }
        ));
        // Defaults: compaction off, 2048 steps when enabled bare.
        let cmd = parse(&["serve", "--trace", "spotify"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                compact_every: None,
                compact_steps: 2_048,
                ..
            }
        ));
        assert!(parse(&["serve", "--trace", "spotify", "--compact-every", "0"]).is_err());
        assert!(parse(&[
            "serve",
            "--trace",
            "spotify",
            "--compact-every",
            "4",
            "--compact-steps",
            "0"
        ])
        .is_err());
        assert!(parse(&["serve", "--trace", "spotify", "--compact-steps", "64"]).is_err());
    }

    #[test]
    fn reprovision_parses_and_validates() {
        let cmd = parse(&[
            "reprovision",
            "t.tsv",
            "--tau",
            "50",
            "--epochs",
            "3",
            "--churn",
            "0.25",
            "--sigma",
            "0.2",
            "--drift-seed",
            "9",
            "--threads",
            "4",
            "--fresh",
            "--simulate",
        ])
        .unwrap();
        match cmd {
            Command::Reprovision {
                source,
                tau,
                epochs,
                churn,
                sigma,
                drift_seed,
                fresh,
                threads,
                simulate,
                ..
            } => {
                assert_eq!(source, WorkloadSource::Trace("t.tsv".into()));
                assert_eq!(tau, 50);
                assert_eq!(epochs, 3);
                assert_eq!(churn, 0.25);
                assert_eq!(sigma, 0.2);
                assert_eq!(drift_seed, 9);
                assert!(fresh);
                assert_eq!(threads, 4);
                assert!(simulate);
            }
            other => panic!("parsed {other:?}"),
        }
        let cmd = parse(&["reprovision", "t.tsv", "--tau", "5", "--mixed"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Reprovision {
                mixed: true,
                threads: 1,
                ..
            }
        ));
        assert!(parse(&["reprovision", "t.tsv"])
            .unwrap_err()
            .contains("--tau"));
        assert!(parse(&["reprovision", "t.tsv", "--tau", "1", "--epochs", "0"]).is_err());
        assert!(parse(&["reprovision", "t.tsv", "--tau", "1", "--churn", "1.5"]).is_err());
        for sigma in ["-0.1", "NaN", "inf"] {
            for args in [
                &["reprovision", "t.tsv", "--tau", "1", "--sigma", sigma][..],
                &["serve", "--trace", "spotify", "--sigma", sigma],
            ] {
                let err = parse(args).unwrap_err();
                assert_eq!(err, "--sigma must be finite and non-negative", "{args:?}");
            }
        }
        assert!(parse(&["reprovision", "t.tsv", "--tau", "1", "--threads", "0"]).is_err());
    }

    #[test]
    fn reprovision_runs_end_to_end() {
        let dir = std::env::temp_dir().join("mcss-cli-reprovision-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tsv");
        run(Command::Generate {
            family: "spotify".into(),
            size: 250,
            seed: 4,
            out: Some(path.display().to_string()),
        })
        .unwrap();
        for fresh in [false, true] {
            for mixed in [false, true] {
                run(Command::Reprovision {
                    source: WorkloadSource::Trace(path.display().to_string()),
                    tau: 40,
                    instance: instances::C3_LARGE,
                    epochs: 3,
                    churn: 0.3,
                    sigma: 0.0,
                    drift_seed: 11,
                    fresh,
                    threads: 2,
                    mixed,
                    effective: true,
                    scale: Some((250, 100_000)),
                    simulate: true,
                })
                .unwrap();
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn plan_parses_and_requires_tau() {
        let cmd = parse(&["plan", "t.tsv", "--tau", "25", "--effective"]).unwrap();
        assert_eq!(
            cmd,
            Command::Plan {
                trace: "t.tsv".into(),
                tau: 25,
                mixed: false,
                effective: true,
                scale: None,
            }
        );
        let cmd = parse(&["plan", "t.tsv", "--tau", "25", "--mixed"]).unwrap();
        assert!(matches!(cmd, Command::Plan { mixed: true, .. }));
        assert!(parse(&["plan", "t.tsv"]).unwrap_err().contains("--tau"));
    }

    #[test]
    fn serve_flags_parse_and_validate() {
        let cmd = parse(&[
            "serve",
            "--trace",
            "spotify",
            "--size",
            "500",
            "--tau",
            "30",
            "--epochs",
            "4",
            "--epoch-events",
            "64",
            "--snapshot-every",
            "2",
            "--threads",
            "3",
            "--dir",
            "/tmp/d",
            "--summary",
            "s.json",
            "--simulate",
        ])
        .unwrap();
        match cmd {
            Command::Serve {
                family,
                size,
                tau,
                epochs,
                epoch_events,
                snapshot_every,
                threads,
                dir,
                summary,
                simulate,
                resume,
                ..
            } => {
                assert_eq!(family.as_deref(), Some("spotify"));
                assert_eq!(size, 500);
                assert_eq!(tau, 30);
                assert_eq!(epochs, 4);
                assert_eq!(epoch_events, Some(64));
                assert_eq!(snapshot_every, 2);
                assert_eq!(threads, 3);
                assert_eq!(dir.as_deref(), Some("/tmp/d"));
                assert_eq!(summary.as_deref(), Some("s.json"));
                assert!(simulate && !resume);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&["serve"]).unwrap_err().contains("--trace"));
        assert!(parse(&["serve", "--trace", "spotify", "--threads", "0"]).is_err());
        assert!(parse(&["serve", "--trace", "mastodon"]).is_err());
        let err = parse(&["serve", "--trace", "spotify", "--epoch-events", "0"]).unwrap_err();
        assert!(err.contains("--epoch-events must be positive"));
        assert!(parse(&[
            "serve",
            "--trace",
            "spotify",
            "--epoch-events",
            "5",
            "--epoch-ms",
            "10"
        ])
        .is_err());
        assert!(parse(&["serve", "--trace", "spotify", "--resume"])
            .unwrap_err()
            .contains("--dir"));
        assert!(parse(&[
            "serve",
            "--trace",
            "spotify",
            "--resume",
            "--dir",
            "d",
            "--epoch-ms",
            "5"
        ])
        .is_err());
        assert!(parse(&["serve", "--trace", "spotify", "--epochs", "0"]).is_err());
    }

    #[test]
    fn serve_runs_and_resumes_end_to_end() {
        let dir = std::env::temp_dir().join(format!("mcss-cli-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let state = dir.join("state");
        let summary = dir.join("summary.json");
        run(Command::Serve {
            family: Some("spotify".into()),
            store: None,
            size: 250,
            seed: 4,
            tau: 40,
            instance: instances::C3_LARGE,
            epochs: 3,
            epoch_events: None,
            epoch_ms: None,
            churn: 0.2,
            sigma: 0.1,
            drift_seed: 7,
            dir: Some(state.display().to_string()),
            snapshot_every: 1,
            threads: 2,
            resume: false,
            drill: Vec::new(),
            repair_budget: None,
            compact_every: Some(2),
            compact_steps: 512,
            sync_retries: 0,
            retry_backoff_ms: 0,
            effective: true,
            scale: Some((250, 100_000)),
            summary: Some(summary.display().to_string()),
            simulate: true,
        })
        .unwrap();
        let json = std::fs::read_to_string(&summary).unwrap();
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"epochs\": 3"));
        // Recover from the state directory and stream two more batches.
        run(Command::Serve {
            family: Some("spotify".into()),
            store: None,
            size: 250,
            seed: 4,
            tau: 40,
            instance: instances::C3_LARGE,
            epochs: 5,
            epoch_events: None,
            epoch_ms: None,
            churn: 0.2,
            sigma: 0.1,
            drift_seed: 7,
            // Resuming with a different repair thread count is legal —
            // threads is a runtime knob, not part of the snapshot.
            dir: Some(state.display().to_string()),
            snapshot_every: 1,
            threads: 1,
            resume: true,
            drill: Vec::new(),
            repair_budget: None,
            compact_every: Some(2),
            compact_steps: 512,
            sync_retries: 0,
            retry_backoff_ms: 0,
            effective: true,
            scale: Some((250, 100_000)),
            summary: Some(summary.display().to_string()),
            simulate: true,
        })
        .unwrap();
        let json = std::fs::read_to_string(&summary).unwrap();
        assert!(json.contains("\"resumed\": true"));
        assert!(
            json.contains("\"epochs\": 2"),
            "resume applies only the new batches: {json}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_trace_file_is_reported() {
        let err = run(Command::Analyze {
            source: WorkloadSource::Trace("/definitely/not/here.tsv".into()),
            blast_radius: None,
            tau: None,
            instance: instances::C3_LARGE,
            effective: false,
            scale: None,
        })
        .unwrap_err();
        assert!(err.contains("opening"));
    }

    #[test]
    fn kill_spec_grammar() {
        assert_eq!(parse_kill("0,3,9").unwrap(), KillSpec::List(vec![0, 3, 9]));
        assert_eq!(
            parse_kill("0-7").unwrap(),
            KillSpec::List((0..=7).collect())
        );
        assert_eq!(
            parse_kill("1,4-6,9").unwrap(),
            KillSpec::List(vec![1, 4, 5, 6, 9])
        );
        assert_eq!(parse_kill("20%").unwrap(), KillSpec::Percent(20));
        assert!(parse_kill("5-3").unwrap_err().contains("backwards"));
        assert!(parse_kill("0%").is_err());
        assert!(parse_kill("150%").is_err());
        assert!(parse_kill("").is_err());
        assert!(parse_kill("a,b").is_err());

        assert_eq!(resolve_kill(&KillSpec::List(vec![2, 5]), 4), vec![2, 5]);
        assert_eq!(resolve_kill(&KillSpec::Percent(20), 10), vec![0, 1]);
        // Shares round up: 20% of a 3-VM fleet is still one whole VM.
        assert_eq!(resolve_kill(&KillSpec::Percent(20), 3), vec![0]);
        assert_eq!(resolve_kill(&KillSpec::Percent(100), 2), vec![0, 1]);
        assert!(resolve_kill(&KillSpec::Percent(50), 0).is_empty());
    }

    #[test]
    fn kill_lists_stay_within_slot_ids_and_the_slot_bound() {
        // Slot ids are u32, so 2^32 is rejected rather than wrapped to 0.
        assert_eq!(
            parse_kill("4294967295").unwrap(),
            KillSpec::List(vec![4_294_967_295])
        );
        assert!(parse_kill("4294967296")
            .unwrap_err()
            .contains("bad kill index"));
        assert!(parse_kill("4294967290-4294967296")
            .unwrap_err()
            .contains("bad kill range"));
        // A list names at most 65,536 slots, ranges and indices together.
        assert_eq!(
            parse_kill("0-65535").unwrap(),
            KillSpec::List((0..=65_535).collect())
        );
        for spec in ["0-65536", "1-65536,0", "0-65535,7"] {
            let err = parse_kill(spec).unwrap_err();
            assert!(err.contains("more than 65536 slots"), "{spec}: {err}");
        }
    }

    /// Every flag a subcommand's table parses starts one option line of
    /// that subcommand's `HELP` section, and nothing else does.
    #[test]
    fn help_documents_exactly_the_flag_tables() {
        let tables: [(&str, &[Flag]); 9] = [
            ("SOLVE", SOLVE_FLAGS),
            ("PACK", PACK_FLAGS),
            ("PLAN", PLAN_FLAGS),
            ("REPROVISION", REPROVISION_FLAGS),
            ("SERVE", SERVE_FLAGS),
            ("DRILL", DRILL_FLAGS),
            ("ANALYZE", ANALYZE_FLAGS),
            ("GENERATE", GENERATE_FLAGS),
            ("INGEST", INGEST_FLAGS),
        ];
        let mut sections: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in HELP.lines() {
            if let Some(heading) = line.strip_suffix(" OPTIONS:") {
                sections.push((heading, Vec::new()));
            } else if let (true, Some((_, flags))) = (line.starts_with("  --"), sections.last_mut())
            {
                flags.extend(line.split_whitespace().next());
            }
        }
        let headings: Vec<&str> = sections.iter().map(|&(heading, _)| heading).collect();
        assert_eq!(headings, tables.map(|(heading, _)| heading));
        for ((heading, mut documented), (_, table)) in sections.into_iter().zip(tables) {
            let mut parsed: Vec<&str> = table.iter().map(|&(flag, _)| flag).collect();
            documented.sort_unstable();
            parsed.sort_unstable();
            assert_eq!(documented, parsed, "{heading} OPTIONS vs its flag table");
        }
    }

    #[test]
    fn drill_parses_and_validates() {
        let cmd = parse(&[
            "drill",
            "t.tsv",
            "--tau",
            "40",
            "--kill",
            "0-3",
            "--sla-pairs",
            "100",
            "--max-epochs",
            "8",
            "--effective",
        ])
        .unwrap();
        match cmd {
            Command::Drill {
                trace,
                tau,
                kill,
                sla_pairs,
                max_epochs,
                effective,
                ..
            } => {
                assert_eq!(trace, "t.tsv");
                assert_eq!(tau, 40);
                assert_eq!(kill, KillSpec::List(vec![0, 1, 2, 3]));
                assert_eq!(sla_pairs, Some(100));
                assert_eq!(max_epochs, 8);
                assert!(effective);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&["drill", "t.tsv", "--kill", "0"])
            .unwrap_err()
            .contains("--tau"));
        assert!(parse(&["drill", "t.tsv", "--tau", "5"])
            .unwrap_err()
            .contains("--kill"));
        assert!(parse(&[
            "drill",
            "t.tsv",
            "--tau",
            "5",
            "--kill",
            "0",
            "--sla-pairs",
            "0"
        ])
        .is_err());
        assert!(parse(&["drill", "t.tsv", "--tau", "5", "--kill", "7-2"]).is_err());
    }

    #[test]
    fn serve_drill_flags_parse_and_validate() {
        let cmd = parse(&[
            "serve",
            "--trace",
            "spotify",
            "--drill",
            "5:20%;2:0-3",
            "--repair-budget",
            "50",
            "--sync-retries",
            "2",
            "--retry-backoff-ms",
            "10",
        ])
        .unwrap();
        match cmd {
            Command::Serve {
                drill,
                repair_budget,
                sync_retries,
                retry_backoff_ms,
                ..
            } => {
                // Schedule comes back sorted by epoch.
                assert_eq!(
                    drill,
                    vec![
                        (2, KillSpec::List(vec![0, 1, 2, 3])),
                        (5, KillSpec::Percent(20)),
                    ]
                );
                assert_eq!(repair_budget, Some(50));
                assert_eq!(sync_retries, 2);
                assert_eq!(retry_backoff_ms, 10);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&["serve", "--trace", "spotify", "--drill", "nope"]).is_err());
        assert!(parse(&["serve", "--trace", "spotify", "--repair-budget", "0"]).is_err());
        assert!(parse(&[
            "serve", "--trace", "spotify", "--resume", "--dir", "d", "--drill", "1:0"
        ])
        .unwrap_err()
        .contains("--resume"));
    }

    #[test]
    fn analyze_blast_radius_parses_and_validates() {
        let cmd = parse(&[
            "analyze",
            "t.tsv",
            "--blast-radius",
            "5",
            "--tau",
            "40",
            "--effective",
        ])
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Analyze {
                blast_radius: Some(5),
                tau: Some(40),
                effective: true,
                ..
            }
        ));
        assert!(parse(&["analyze", "t.tsv", "--blast-radius", "5"])
            .unwrap_err()
            .contains("--tau"));
        assert!(parse(&["analyze", "t.tsv", "--blast-radius", "0"]).is_err());
    }

    #[test]
    fn drill_runs_end_to_end() {
        let dir = std::env::temp_dir().join(format!("mcss-cli-drill-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tsv");
        run(Command::Generate {
            family: "spotify".into(),
            size: 300,
            seed: 3,
            out: Some(path.display().to_string()),
        })
        .unwrap();
        // Unbounded repair drains in one epoch; a tight budget takes
        // several; both must end bit-identical (run() errors otherwise).
        for sla_pairs in [None, Some(25)] {
            run(Command::Drill {
                trace: path.display().to_string(),
                tau: 50,
                kill: KillSpec::Percent(20),
                sla_pairs,
                max_epochs: 64,
                instance: instances::C3_LARGE,
                effective: true,
                scale: Some((300, 100_000)),
            })
            .unwrap();
        }
        // A kill list with typos still drills the valid indices.
        run(Command::Drill {
            trace: path.display().to_string(),
            tau: 50,
            kill: KillSpec::List(vec![0, 9_999]),
            sla_pairs: None,
            max_epochs: 4,
            instance: instances::C3_LARGE,
            effective: true,
            scale: Some((300, 100_000)),
        })
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_drill_runs_end_to_end() {
        let dir =
            std::env::temp_dir().join(format!("mcss-cli-serve-drill-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let state = dir.join("state");
        run(Command::Serve {
            family: Some("spotify".into()),
            store: None,
            size: 250,
            seed: 4,
            tau: 40,
            instance: instances::C3_LARGE,
            epochs: 4,
            epoch_events: None,
            epoch_ms: None,
            churn: 0.2,
            sigma: 0.1,
            drift_seed: 7,
            dir: Some(state.display().to_string()),
            snapshot_every: 1,
            threads: 1,
            resume: false,
            drill: vec![(1, KillSpec::List(vec![0])), (2, KillSpec::Percent(20))],
            repair_budget: Some(10),
            compact_every: None,
            compact_steps: 2_048,
            sync_retries: 1,
            retry_backoff_ms: 0,
            effective: true,
            scale: Some((250, 100_000)),
            summary: None,
            simulate: true,
        })
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Per subcommand: its minimal valid argument list, then each of its
    /// flags with the values to try after it (valid first, malformed
    /// last; a switch lists none), then a flag only another subcommand
    /// takes.
    type Grammar = (
        &'static str,
        &'static [(&'static str, &'static [&'static str])],
        &'static str,
    );

    const TAU: &[&str] = &["7", "0", "18446744073709551616", "x"];
    const COUNT: &[&str] = &["3", "0", "18446744073709551616", "-1"];
    const SEED: &[&str] = &["9", "0", "18446744073709551616", "x"];
    const CHURN: &[&str] = &["0.25", "0", "1.5", "NaN", "x"];
    const SIGMA: &[&str] = &["0.2", "0", "-0.1", "NaN", "x"];
    const INSTANCE: &[&str] = &["c3.xlarge", "c3.2xlarge", "m1.tiny"];
    const REFINE: &[&str] = &[
        "500",
        "100ms",
        "2s",
        "0",
        "0ms",
        "0s",
        "18446744073709551616",
        "fast",
    ];
    const SCALE: &[&str] = &["100/4900", "0/5", "5/0", "5", "5/x", "x/5"];
    const PATH: &[&str] = &["w.mcss", ""];
    const SIZE: &[&str] = &["500", "0", "1", "x"];
    const SWITCH: &[&str] = &[];

    const GRAMMAR: &[Grammar] = &[
        (
            "solve t.tsv --tau 10",
            &[
                ("--tau", TAU),
                ("--instance", INSTANCE),
                ("--selector", &["rsp", "shared", "optimal", "gsp", "magic"]),
                ("--allocator", &["ffbp", "cbp", "magic"]),
                ("--threads", COUNT),
                ("--refine", REFINE),
                ("--store", PATH),
                ("--effective", SWITCH),
                ("--scale", SCALE),
                ("--simulate", SWITCH),
            ],
            "--kill 0",
        ),
        (
            "pack t.tsv --tau 10",
            &[
                ("--tau", TAU),
                ("--instance", INSTANCE),
                ("--refine", REFINE),
                ("--mixed", SWITCH),
                ("--export-lp", PATH),
                ("--effective", SWITCH),
                ("--scale", SCALE),
            ],
            "--fresh",
        ),
        (
            "plan t.tsv --tau 10",
            &[
                ("--tau", TAU),
                ("--mixed", SWITCH),
                ("--effective", SWITCH),
                ("--scale", SCALE),
            ],
            "--instance c3.large",
        ),
        (
            "reprovision t.tsv --tau 10",
            &[
                ("--tau", TAU),
                ("--epochs", COUNT),
                ("--churn", CHURN),
                ("--sigma", SIGMA),
                ("--drift-seed", SEED),
                ("--fresh", SWITCH),
                ("--threads", COUNT),
                ("--instance", INSTANCE),
                ("--mixed", SWITCH),
                ("--store", PATH),
                ("--effective", SWITCH),
                ("--scale", SCALE),
                ("--simulate", SWITCH),
            ],
            "--selector gsp",
        ),
        (
            "serve --trace spotify",
            &[
                ("--trace", &["twitter", "spotify", "mastodon"]),
                ("--store", PATH),
                ("--size", SIZE),
                ("--seed", SEED),
                ("--tau", TAU),
                ("--instance", INSTANCE),
                ("--epochs", COUNT),
                ("--epoch-events", COUNT),
                ("--epoch-ms", COUNT),
                ("--churn", CHURN),
                ("--sigma", SIGMA),
                ("--drift-seed", SEED),
                ("--dir", PATH),
                ("--snapshot-every", SEED),
                ("--threads", COUNT),
                ("--resume", SWITCH),
                (
                    "--drill",
                    &[
                        "5:20%;2:0-3",
                        "2:0",
                        "1:4294967295",
                        "1:4294967296",
                        "x:0",
                        "1:",
                        "nope",
                    ],
                ),
                ("--repair-budget", COUNT),
                ("--compact-every", COUNT),
                ("--compact-steps", COUNT),
                ("--sync-retries", &["2", "0", "4294967296", "x"]),
                ("--retry-backoff-ms", SEED),
                ("--effective", SWITCH),
                ("--scale", SCALE),
                ("--summary", PATH),
                ("--simulate", SWITCH),
            ],
            "--kill 0",
        ),
        (
            "drill t.tsv --tau 10 --kill 0",
            &[
                ("--tau", TAU),
                (
                    "--kill",
                    &[
                        "0,3,9",
                        "0-7",
                        "1,4-6,9",
                        "20%",
                        "100%",
                        "4294967295",
                        "4294967296",
                        "4294967296-4294967297",
                        "0%",
                        "150%",
                        "x%",
                        "5-3",
                        "1-x",
                        "",
                        "a,b",
                    ],
                ),
                ("--sla-pairs", COUNT),
                ("--max-epochs", COUNT),
                ("--instance", INSTANCE),
                ("--effective", SWITCH),
                ("--scale", SCALE),
            ],
            "--simulate",
        ),
        (
            "analyze t.tsv",
            &[
                ("--store", PATH),
                ("--blast-radius", COUNT),
                ("--tau", TAU),
                ("--instance", INSTANCE),
                ("--effective", SWITCH),
                ("--scale", SCALE),
            ],
            "--simulate",
        ),
        (
            "generate spotify",
            &[
                ("--size", SIZE),
                ("--seed", SEED),
                ("--out", &["x.tsv", ""]),
            ],
            "--tau 10",
        ),
        (
            "ingest t.tsv --out w.mcss",
            &[("--out", &["v.mcss", ""])],
            "--tau 10",
        ),
    ];

    /// Argument lists no flag-by-flag sweep produces: each cross-flag
    /// rule, positionals out of place, and sources given twice or not
    /// at all. Words are split at spaces; `""` is an empty argument.
    const HAND_PICKED: &[&str] = &[
        "",
        "help",
        "--help",
        "-h",
        "frobnicate",
        "solve",
        "solve t.tsv",
        "solve --tau 10",
        "solve --tau 10 t.tsv",
        "solve --store w.mcss --tau 10",
        "solve t.tsv --store w.mcss --tau 10",
        "solve t.tsv --tau 10 --selector rsp --threads 4",
        "solve t.tsv --tau 10 --threads 4 --selector optimal",
        "solve t.tsv --tau 10 --selector shared --threads 1",
        "solve t.tsv u.tsv --tau 10",
        "solve t.tsv --tau 10 extra",
        "solve t.tsv --tau --simulate",
        "solve t.tsv --tau=10",
        "solve t.tsv --tau 10 --effective=true",
        "pack",
        "pack t.tsv",
        "pack --tau 10 t.tsv",
        "pack t.tsv --tau 1 --mixed --export-lp p.lp",
        "pack t.tsv --tau 1 --export-lp p.lp --mixed",
        "plan",
        "plan t.tsv",
        "plan t.tsv u.tsv --tau 10",
        "reprovision",
        "reprovision t.tsv",
        "reprovision --tau 10",
        "reprovision --tau 10 t.tsv",
        "reprovision --store w.mcss --tau 10",
        "reprovision t.tsv --store w.mcss --tau 10",
        "serve",
        "serve t.tsv",
        "serve --epochs 2",
        "serve --store w.mcss --epochs 2",
        "serve --store w.mcss --size 0",
        "serve --trace spotify --store w.mcss",
        "serve --trace --store",
        "serve --trace spotify --drill \"\"",
        "serve --trace spotify --drill 1:0;1:2",
        "serve --trace twitter --size 0",
        "serve --trace twitter --size 1",
        "serve --trace twitter --size 2",
        "serve --trace spotify --epoch-events 5 --epoch-ms 10",
        "serve --trace spotify --resume",
        "serve --trace spotify --resume --dir d",
        "serve --trace spotify --resume --dir d --epoch-events 5",
        "serve --trace spotify --resume --dir d --epoch-ms 5",
        "serve --trace spotify --resume --dir d --drill 1:0",
        "serve --trace spotify --compact-every 4 --compact-steps 128",
        "serve --trace spotify --compact-steps 128 --compact-every 4",
        "drill",
        "drill t.tsv",
        "drill t.tsv --kill 0",
        "drill t.tsv --tau 5",
        "drill --tau 5 --kill 0",
        "drill t.tsv --tau 5 --kill --sla-pairs",
        "analyze",
        "analyze t.tsv --store --tau",
        "analyze --tau 5 t.tsv",
        "analyze --store w.mcss",
        "analyze t.tsv --store w.mcss",
        "analyze t.tsv --blast-radius 5 --tau 40",
        "analyze t.tsv --tau 40 --blast-radius 5",
        "generate",
        "generate facebook",
        "generate twitter",
        "generate twitter --size 0",
        "generate twitter --size 1",
        "generate twitter --size 2",
        "generate spotify --out --seed",
        "generate spotify extra",
        "ingest",
        "ingest t.tsv",
        "ingest --out w.mcss",
        "ingest t.tsv --out w.mcss extra",
    ];

    /// The corpus of argument lists the parser golden file pins, each
    /// with at most one invalid argument.
    fn parse_corpus() -> Vec<Vec<&'static str>> {
        let words = |line: &'static str| -> Vec<&'static str> {
            line.split_whitespace()
                .map(|w| if w == "\"\"" { "" } else { w })
                .collect()
        };
        let mut corpus: Vec<Vec<&str>> = Vec::new();
        for &(minimal, flags, foreign) in GRAMMAR {
            let minimal = words(minimal);
            let with = |extra: &[&'static str]| [&minimal[..], extra].concat();
            corpus.push(minimal.clone());
            for &(flag, values) in flags {
                // Bare: a switch, or a value flag missing its value.
                corpus.push(with(&[flag]));
                for &value in values {
                    corpus.push(with(&[flag, value]));
                }
                match *values {
                    [] => corpus.push(with(&[flag, flag])),
                    [first, .., last] => {
                        // The last occurrence wins; every one is checked.
                        corpus.push(with(&[flag, first, flag, values[1]]));
                        corpus.push(with(&[flag, last, flag, first]));
                    }
                    [only] => corpus.push(with(&[flag, only, flag, only])),
                }
            }
            corpus.push(with(&words(foreign)));
            corpus.push(with(&["--frob"]));
        }
        corpus.extend(HAND_PICKED.iter().map(|&line| words(line)));
        corpus
    }

    /// Pins the whole command-line grammar: every corpus argument list,
    /// with the `Command` it parses to or the error it reports, against
    /// `tests/golden/cli_parse.txt`. Regenerate (only for a deliberate
    /// grammar change) with
    /// `MCSS_BLESS=1 cargo test --bin mcss parse_args_matches_golden`.
    #[test]
    fn parse_args_matches_golden() {
        let mut out = String::new();
        for args in parse_corpus() {
            let words: Vec<String> = args
                .iter()
                .map(|a| {
                    if a.is_empty() || a.contains(|c: char| c.is_whitespace() || c == ';') {
                        format!("{a:?}")
                    } else {
                        a.to_string()
                    }
                })
                .collect();
            let outcome = match parse(&args) {
                Ok(cmd) => format!("ok {cmd:?}"),
                Err(e) => format!("err {e}"),
            };
            out.push_str(&format!("mcss {} => {outcome}\n", words.join(" ")));
        }
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cli_parse.txt");
        if std::env::var_os("MCSS_BLESS").is_some() {
            std::fs::write(golden, &out).unwrap();
            return;
        }
        let want = std::fs::read_to_string(golden)
            .expect("tests/golden/cli_parse.txt missing; regenerate with MCSS_BLESS=1");
        assert_eq!(
            out, want,
            "the parsed grammar drifted from tests/golden/cli_parse.txt; \
             if the change is deliberate, regenerate with MCSS_BLESS=1"
        );
    }
}
