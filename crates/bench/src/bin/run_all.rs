//! Runs every experiment (Figs. 1–12 plus the extension figures) and
//! archives the reports under `results/`, along with the machine-readable
//! perf baselines (`BENCH_*.json`) at the repository root. Any `BENCH_*`
//! write failure makes the run exit non-zero — the perf trajectory must
//! never silently go missing.
//!
//! Run with: `cargo run --release -p mcss_bench --bin run_all`
//! A single figure: `cargo run --release -p mcss_bench --bin run_all -- --only fig_store_load`
//! Size overrides: `MCSS_SPOTIFY_SUBS`, `MCSS_TWITTER_USERS`,
//! `MCSS_CHURN_XL_SUBS`, `MCSS_STORE_XL_SUBS`, `MCSS_CHURN_THREADS`.

use cloud_cost::instances;
use mcss_bench::experiments;
use mcss_bench::scenario::{env_size, Scenario};
use std::cell::LazyCell;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Names accepted by `--only`, one per figure block below.
const FIGURES: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4_5",
    "fig6_7",
    "fig8_12",
    "fig_ablation",
    "fig_churn",
    "fig_serve",
    "fig_failures",
    "fig_mixed",
    "fig_packing",
    "fig_store_load",
];

fn save(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    fs::write(&path, content).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("{content}");
    println!("-> saved {}\n", path.display());
}

/// Writes a machine-readable benchmark baseline; returns false (instead
/// of panicking) so `main` can finish the remaining experiments and still
/// exit non-zero.
fn save_bench_json(path: &Path, content: &str) -> bool {
    match fs::write(path, content) {
        Ok(()) => {
            println!("-> saved {}\n", path.display());
            true
        }
        Err(e) => {
            eprintln!("error: writing {}: {e}", path.display());
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--only" => match it.next() {
                Some(name) => only = Some(name.clone()),
                None => {
                    eprintln!(
                        "error: --only needs a figure name (one of: {})",
                        FIGURES.join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}` (usage: run_all [--only FIGURE])");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(name) = &only {
        if !FIGURES.contains(&name.as_str()) {
            eprintln!(
                "error: unknown figure `{name}` (one of: {})",
                FIGURES.join(", ")
            );
            return ExitCode::FAILURE;
        }
    }
    let wants = |name: &str| only.as_deref().is_none_or(|o| o == name);

    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let started = Instant::now();
    let mut bench_writes_ok = true;

    // Built on first use, so `--only` runs skip the scenarios they never
    // touch (a `--only fig_store_load` CI leg never builds twitter).
    let spotify =
        LazyCell::new(|| Scenario::spotify(env_size("MCSS_SPOTIFY_SUBS", 100_000), 20140113));
    let twitter =
        LazyCell::new(|| Scenario::twitter(env_size("MCSS_TWITTER_USERS", 20_000), 20131030));

    if wants("fig1") {
        save(dir, "fig1_example.txt", &experiments::fig1_example());
    }

    if wants("fig2") {
        let mut fig2 = String::from("== Fig. 2a ==\n");
        fig2.push_str(&experiments::fig_cost_metrics(
            &spotify,
            instances::C3_LARGE,
        ));
        fig2.push_str("\n== Fig. 2b ==\n");
        fig2.push_str(&experiments::fig_cost_metrics(
            &spotify,
            instances::C3_XLARGE,
        ));
        save(dir, "fig2_spotify_cost.txt", &fig2);
    }

    if wants("fig3") {
        let mut fig3 = String::from("== Fig. 3a ==\n");
        fig3.push_str(&experiments::fig_cost_metrics(
            &twitter,
            instances::C3_LARGE,
        ));
        fig3.push_str("\n== Fig. 3b ==\n");
        fig3.push_str(&experiments::fig_cost_metrics(
            &twitter,
            instances::C3_XLARGE,
        ));
        save(dir, "fig3_twitter_cost.txt", &fig3);
    }

    if wants("fig4_5") {
        let mut fig45 = String::from("== Fig. 4 (Spotify) ==\n");
        fig45.push_str(&experiments::fig_stage1_runtime(
            &spotify,
            instances::C3_LARGE,
            3,
        ));
        fig45.push_str("\n== Fig. 5 (Twitter) ==\n");
        fig45.push_str(&experiments::fig_stage1_runtime(
            &twitter,
            instances::C3_LARGE,
            3,
        ));
        save(dir, "fig4_5_stage1_runtime.txt", &fig45);
    }

    if wants("fig6_7") {
        let mut fig67 = String::from("== Fig. 6 (Spotify, c3.large) ==\n");
        fig67.push_str(&experiments::fig_stage2_runtime(
            &spotify,
            instances::C3_LARGE,
            3,
        ));
        fig67.push_str("\n== Fig. 7 (Twitter, c3.large) ==\n");
        fig67.push_str(&experiments::fig_stage2_runtime(
            &twitter,
            instances::C3_LARGE,
            2,
        ));
        save(dir, "fig6_7_stage2_runtime.txt", &fig67);
    }

    if wants("fig8_12") {
        save(
            dir,
            "fig8_12_trace_analysis.txt",
            &experiments::fig_trace_analysis(env_size("MCSS_TWITTER_USERS", 100_000), 20131030),
        );
    }

    if wants("fig_ablation") {
        let (ablation_text, ablation_json) =
            experiments::fig_ablation(&[&spotify, &twitter], instances::C3_LARGE, 100, 5);
        let mut ablation = String::from("== design ablation (Spotify + Twitter) ==\n");
        ablation.push_str(&ablation_text);
        save(dir, "ablation.txt", &ablation);
        bench_writes_ok &= save_bench_json(Path::new("BENCH_ablation.json"), &ablation_json);
    }

    if wants("fig_churn") {
        // Scale-up case: a million-subscriber Spotify workload, 1% churn,
        // with the threaded repair column enabled.
        let churn_threads = env_size("MCSS_CHURN_THREADS", 4);
        let churn_xl = Scenario::spotify(env_size("MCSS_CHURN_XL_SUBS", 1_000_000), 20140113);
        let churn_cases = [
            experiments::ChurnCase {
                scenario: &spotify,
                churn_levels: &[1, 5, 20],
                threads: churn_threads,
            },
            experiments::ChurnCase {
                scenario: &churn_xl,
                churn_levels: &[1],
                threads: churn_threads,
            },
        ];
        let (churn_text, churn_json) =
            experiments::fig_churn_speedup(&churn_cases, instances::C3_LARGE, 100, 6);
        let mut churn = String::from("== churn-path repair vs full solve (Spotify) ==\n");
        churn.push_str(&churn_text);
        save(dir, "churn_speedup.txt", &churn);
        bench_writes_ok &= save_bench_json(Path::new("BENCH_churn.json"), &churn_json);
    }

    if wants("fig_serve") {
        let (serve_text, serve_json) =
            experiments::fig_serve(&spotify, instances::C3_LARGE, 100, 6);
        let mut serve = String::from("== event-sourced serve daemon (Spotify) ==\n");
        serve.push_str(&serve_text);
        save(dir, "serve_daemon.txt", &serve);
        bench_writes_ok &= save_bench_json(Path::new("BENCH_serve.json"), &serve_json);
    }

    if wants("fig_failures") {
        let (drill_text, drill_json) =
            experiments::fig_failure_drills(&spotify, instances::C3_LARGE, 100);
        let mut drills = String::from("== SLA-budgeted failure drills (Spotify) ==\n");
        drills.push_str(&drill_text);
        save(dir, "failure_drills.txt", &drills);
        bench_writes_ok &= save_bench_json(Path::new("BENCH_failures.json"), &drill_json);
    }

    if wants("fig_mixed") {
        let (mixed_text, mixed_json) = experiments::fig_mixed_fleet(&[&spotify, &twitter], 100, 4);
        let mut mixed = String::from("== mixed fleet vs best homogeneous (Spotify + Twitter) ==\n");
        mixed.push_str(&mixed_text);
        save(dir, "mixed_fleet.txt", &mixed);
        bench_writes_ok &= save_bench_json(Path::new("BENCH_mixed.json"), &mixed_json);
    }

    if wants("fig_packing") {
        let (packing_text, packing_json) =
            experiments::fig_packing_frontier(&[&spotify, &twitter], 100);
        let mut packing =
            String::from("== anytime Stage-2 packing frontier (Spotify + Twitter) ==\n");
        packing.push_str(&packing_text);
        save(dir, "packing_frontier.txt", &packing);
        bench_writes_ok &= save_bench_json(Path::new("BENCH_packing.json"), &packing_json);
    }

    if wants("fig_store_load") {
        // Scale-up case: the zero-rebuild claim matters most at a
        // million subscribers, where the trace re-parse pays seconds.
        let store_xl = Scenario::spotify(env_size("MCSS_STORE_XL_SUBS", 1_000_000), 20140113);
        let (store_text, store_json) =
            experiments::fig_store_load(&[&spotify, &store_xl], instances::C3_LARGE, 100, 3);
        let mut store =
            String::from("== zero-rebuild cold start: MCSSTOR1 store vs trace parse ==\n");
        store.push_str(&store_text);
        save(dir, "store_load.txt", &store);
        bench_writes_ok &= save_bench_json(Path::new("BENCH_store.json"), &store_json);
    }

    println!(
        "all experiments done in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    if bench_writes_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: one or more BENCH_*.json baselines failed to write");
        ExitCode::FAILURE
    }
}
