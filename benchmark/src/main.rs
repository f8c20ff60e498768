//! End-to-end and per-layer benchmark for the MCSS planner and serve daemon.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload plan-twitter --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Every workload is a closed loop with one client in one thread: the next
//! plan, or the next epoch's events, is sent only after the previous one
//! has applied. Inputs come from the seed alone and are generated before
//! any timed window. The run checks every output and prints the metrics,
//! one per line, then a last line of JSON: with `--trace 0` the end-to-end
//! metrics, with `--trace 1` the per-layer metrics. See `README.md`.

mod plan;
mod relabel;
mod serve;
mod stats;
mod sys;

use std::fmt::Display;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The end-to-end metrics `BENCHMARK.json` lists, printed by every
/// untraced run.
const END_TO_END: &[&str] = &[
    "setup_s",
    "latency_ms_p50",
    "latency_ms_tail",
    "events_per_s",
    "recover_ms_p50",
    "cost_gap",
    "peak_rss_mb",
];

/// The per-layer metrics `BENCHMARK.json` lists: the ones every workload
/// measures. Layers only one workload reaches (the store reader, bound and
/// validation on plans; edit, incremental and serve on the daemon) print on
/// their own lines.
const PER_LAYER: &[&str] = &[
    "stage1.select_ms",
    "stage1.kept_frac",
    "stage2.allocate_ms",
    "stage2.vms",
    "stage2.incoming_frac",
    "footprint.bytes_per_subscriber",
    "run.unattributed_ms",
    "run.trace_overhead_frac",
    "run.steal_frac",
    "run.runqueue_wait_ms",
];

/// A run may stretch past `--seconds` to collect enough samples for its
/// tail percentile, but never past this, so it exits well within 180 s.
const HARD_CAP_S: f64 = 120.0;

const USAGE: &str = "usage: mcss_perfbench --workload plan-twitter|serve-trickle|serve-rerate \
                     --seed N --seconds S --trace 0|1 [--smoke]";

/// The flag a run passes to a child copy of itself to have it write the
/// generated inputs into a directory and exit (see `generate`).
const WRITE_INPUT: &str = "--write-input";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PlanTwitter,
    ServeTrickle,
    ServeRerate,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::PlanTwitter => "plan-twitter",
            Workload::ServeTrickle => "serve-trickle",
            Workload::ServeRerate => "serve-rerate",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    write_input: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut write_input = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "plan-twitter" => Workload::PlanTwitter,
                    "serve-trickle" => Workload::ServeTrickle,
                    "serve-rerate" => Workload::ServeRerate,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: u32 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            WRITE_INPUT => write_input = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        write_input,
    })
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload measured: end-to-end metrics from its untraced
/// operations, and, in a traced run, every layer metric it reached.
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
}

/// State shared by a run: its arguments, the call counters behind
/// `error_rate`, the measuring window, and the state directory.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch space under the current directory for traces, stores, logs
    /// and snapshots; removed when the run ends.
    pub state: PathBuf,
    seconds: f64,
    measuring_since: Option<Instant>,
    contention_start: Option<sys::Contention>,
    attempted: u64,
    failed: u64,
}

impl Ctx {
    /// Counts one call into the system; an `Err` counts as failed, is
    /// printed, and yields `None`.
    pub fn call<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(value) => {
                self.calls(what, 1, None);
                Some(value)
            }
            Err(e) => {
                self.calls(what, 1, Some((1, e.to_string())));
                None
            }
        }
    }

    /// Counts `n` calls made in one timed batch; `failures` is how many
    /// failed and the first error. Returns whether every call succeeded.
    pub fn calls(&mut self, what: &str, n: usize, failures: Option<(usize, String)>) -> bool {
        self.attempted += n as u64;
        match failures {
            None => true,
            Some((failed, first)) => {
                self.failed += failed as u64;
                println!("call failed: {what} ({failed} of {n}): {first}");
                false
            }
        }
    }

    /// Starts the measuring window and the contention counters, and resets
    /// the memory peak so `peak_rss_mb` covers the measured operations.
    /// Input generation and any one-off set-up happen before this.
    pub fn start_measuring(&mut self) -> Result<(), String> {
        println!(
            "memory before measuring: peak {:.1} MiB, resident {:.1} MiB",
            sys::peak_rss_mb()?,
            sys::rss_mb()?
        );
        sys::reset_peak_rss()?;
        println!(
            "resident after releasing freed memory: {:.1} MiB",
            sys::rss_mb()?
        );
        self.measuring_since = Some(Instant::now());
        self.contention_start = Some(sys::Contention::now()?);
        Ok(())
    }

    /// Whether to start another operation: until `--seconds` have passed
    /// and, past that, until `samples` reaches `min` (bounded by the cap).
    pub fn keep_going(&self, samples: usize, min: usize) -> bool {
        let elapsed = self
            .measuring_since
            .expect("start_measuring precedes the loop")
            .elapsed()
            .as_secs_f64();
        elapsed < self.seconds || (samples < min && elapsed < HARD_CAP_S)
    }

    /// `(run.steal_frac, run.runqueue_wait_ms)` over the measuring window.
    pub fn contention(&self) -> Result<(f64, f64), String> {
        let start = self.contention_start.ok_or("measuring never started")?;
        Ok(sys::Contention::now()?.since(&start))
    }
}

/// Removes the run's state directory however the run ends.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly when
        // another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// Writes the run's inputs into `dir` from a child copy of this program, so
/// the generator's memory stays out of `peak_rss_mb`, this process's peak.
pub fn generate(ctx: &Ctx, dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut child = Command::new(exe);
    child.args([
        "--workload",
        ctx.workload.name(),
        "--seed",
        &ctx.seed.to_string(),
    ]);
    child.args(["--seconds", "1", "--trace", "0", WRITE_INPUT]);
    child.arg(dir);
    if ctx.smoke {
        child.arg("--smoke");
    }
    let status = child
        .status()
        .map_err(|e| format!("running the generator: {e}"))?;
    check(status.success(), || {
        format!("the generator exited with {status}")
    })
}

/// Whether two files hold the same bytes, compared a chunk at a time so
/// neither is held whole.
pub fn same_bytes(a: &Path, b: &Path) -> Result<bool, String> {
    let open = |p: &Path| File::open(p).map_err(|e| format!("opening {}: {e}", p.display()));
    let (mut fa, mut fb) = (open(a)?, open(b)?);
    let (mut ba, mut bb) = (vec![0u8; 1 << 16], vec![0u8; 1 << 16]);
    loop {
        let na = fill(&mut fa, &mut ba).map_err(|e| format!("reading {}: {e}", a.display()))?;
        let nb = fill(&mut fb, &mut bb).map_err(|e| format!("reading {}: {e}", b.display()))?;
        if ba[..na] != bb[..nb] {
            return Ok(false);
        }
        if na == 0 {
            return Ok(true);
        }
    }
}

/// Reads until `buf` is full or the file ends; returns the bytes read.
fn fill(file: &mut File, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match file.read(&mut buf[n..])? {
            0 => break,
            k => n += k,
        }
    }
    Ok(n)
}

/// A failed output check: the run stops and prints no metrics.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("check failed: {}", what()))
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Picks `names` out of `metrics`, in that order; every one must be there
/// and finite.
fn select(metrics: &[Metric], names: &[&str]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|name| {
            let m = metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            check(m.value.is_finite(), || {
                format!("metric {name} is {}", m.value)
            })?;
            Ok(m.clone())
        })
        .collect()
}

fn print_metrics(heading: &str, metrics: &[Metric]) {
    println!("{heading}:");
    for m in metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn run(args: &Args, ctx: &mut Ctx) -> Result<Vec<Metric>, String> {
    let report = match args.workload {
        Workload::PlanTwitter => plan::run(ctx)?,
        Workload::ServeTrickle | Workload::ServeRerate => serve::run(ctx)?,
    };
    let (steal, wait_ms) = ctx.contention()?;
    println!(
        "error_rate: {} ({} failed of {} calls)",
        ctx.failed as f64 / ctx.attempted.max(1) as f64,
        ctx.failed,
        ctx.attempted
    );
    println!("contention: steal_frac {steal:.6}, runqueue_wait_ms {wait_ms:.3}");
    print_metrics("end-to-end", &report.end_to_end);
    if !args.trace {
        return select(&report.end_to_end, END_TO_END);
    }
    let mut layers = report.layers;
    layers.push(metric("run.steal_frac", steal, "frac"));
    layers.push(metric("run.runqueue_wait_ms", wait_ms, "ms"));
    print_metrics("per-layer", &layers);
    select(&layers, PER_LAYER)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.write_input {
        let written = match args.workload {
            Workload::PlanTwitter => plan::write_trace(args.seed, args.smoke, dir),
            Workload::ServeTrickle => {
                serve::write_inputs(args.seed, args.smoke, serve::TRICKLE, dir)
            }
            Workload::ServeRerate => serve::write_inputs(args.seed, args.smoke, serve::RERATE, dir),
        };
        return match written {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: writing the input: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let state = PathBuf::from(".bench_state").join(format!("{}-{}", std::process::id(), args.seed));
    let _ = fs::remove_dir_all(&state);
    if let Err(e) = fs::create_dir_all(&state) {
        eprintln!("error: creating {}: {e}", state.display());
        return ExitCode::FAILURE;
    }
    let _cleanup = StateDir(state.clone());
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke sizes)" } else { "" }
    );
    let mut ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        trace: args.trace,
        smoke: args.smoke,
        state,
        seconds: args.seconds,
        measuring_since: None,
        contention_start: None,
        attempted: 0,
        failed: 0,
    };
    match run(&args, &mut ctx) {
        Ok(metrics) => {
            println!("{}", json(true, ctx.attempted.max(1), ctx.failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            println!("{}", json(false, ctx.attempted.max(1), ctx.failed, &[]));
            ExitCode::FAILURE
        }
    }
}
