//! End-to-end smoke tests driving the compiled `mcss` binary, so the CLI
//! path (hand-rolled parser included) is covered by `cargo test`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mcss(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcss"))
        .args(args)
        .output()
        .expect("spawn mcss binary")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Per-test scratch dir so concurrent tests never collide.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcss-cli-smoke-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [&["help"][..], &["--help"][..], &[][..]] {
        let out = mcss(args);
        assert!(
            out.status.success(),
            "mcss {args:?} failed: {}",
            stderr(&out)
        );
        let text = stdout(&out);
        assert!(text.contains("USAGE"), "no USAGE section in: {text}");
        assert!(text.contains("mcss solve"), "no solve docs in: {text}");
    }
}

#[test]
fn unknown_command_fails_with_hint() {
    let out = mcss(&["frobnicate"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown command"), "unexpected stderr: {err}");
    assert!(err.contains("mcss help"), "no help hint in: {err}");
}

#[test]
fn generate_writes_a_parsable_trace() {
    let dir = scratch("generate");
    let path = dir.join("spotify.tsv");
    let path_str = path.display().to_string();

    let out = mcss(&[
        "generate", "spotify", "--size", "100", "--seed", "7", "--out", &path_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));
    assert!(
        stderr(&out).contains("wrote"),
        "no summary line: {}",
        stderr(&out)
    );
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    assert!(!trace.is_empty(), "empty trace file");

    // The same trace must round-trip through analyze.
    let out = mcss(&["analyze", &path_str]);
    assert!(out.status.success(), "analyze failed: {}", stderr(&out));
    assert!(
        stdout(&out).contains("subscribers"),
        "no stats in: {}",
        stdout(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_to_stdout_is_deterministic_per_seed() {
    let a = mcss(&["generate", "twitter", "--size", "50", "--seed", "9"]);
    let b = mcss(&["generate", "twitter", "--size", "50", "--seed", "9"]);
    let c = mcss(&["generate", "twitter", "--size", "50", "--seed", "10"]);
    assert!(a.status.success() && b.status.success() && c.status.success());
    assert_eq!(stdout(&a), stdout(&b), "same seed must reproduce the trace");
    assert_ne!(stdout(&a), stdout(&c), "different seeds must differ");
}

#[test]
fn solve_reports_on_a_tiny_trace() {
    let dir = scratch("solve");
    let path = dir.join("tiny.tsv");
    let path_str = path.display().to_string();

    let out = mcss(&[
        "generate", "spotify", "--size", "100", "--seed", "7", "--out", &path_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    let out = mcss(&["solve", &path_str, "--tau", "50"]);
    assert!(out.status.success(), "solve failed: {}", stderr(&out));
    let report = stdout(&out);
    assert!(
        report.contains("bandwidth at full scale"),
        "no bandwidth line in: {report}"
    );

    // The RSP/FFBP baseline path and the simulation replay must also run.
    let out = mcss(&[
        "solve",
        &path_str,
        "--tau",
        "50",
        "--selector",
        "rsp",
        "--allocator",
        "ffbp",
        "--simulate",
    ]);
    assert!(
        out.status.success(),
        "baseline solve failed: {}",
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("operational satisfaction"),
        "no simulation verdict in: {}",
        stdout(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_with_threads_runs_parallel_gsp() {
    let dir = scratch("threads");
    let path = dir.join("threads.tsv");
    let path_str = path.display().to_string();

    let out = mcss(&[
        "generate", "spotify", "--size", "200", "--seed", "5", "--out", &path_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    // --threads drives the parallel Stage-1 path.
    let out = mcss(&["solve", &path_str, "--tau", "50", "--threads", "3"]);
    assert!(out.status.success(), "threaded solve: {}", stderr(&out));

    // Only GSP has a parallel variant; another selector is a usage error.
    let out = mcss(&[
        "solve",
        &path_str,
        "--tau",
        "50",
        "--selector",
        "rsp",
        "--threads",
        "3",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("--threads needs --selector gsp"),
        "unexpected stderr: {}",
        stderr(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_ranks_instance_types() {
    let dir = scratch("plan");
    let path = dir.join("plan.tsv");
    let path_str = path.display().to_string();

    let out = mcss(&[
        "generate", "spotify", "--size", "150", "--seed", "6", "--out", &path_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    let out = mcss(&["plan", &path_str, "--tau", "40"]);
    assert!(out.status.success(), "plan failed: {}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("cheapest:"), "no verdict in: {report}");
    assert!(report.contains("c3.large"), "no candidates in: {report}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_mixed_reports_fleet_against_homogeneous_winner() {
    let dir = scratch("plan-mixed");
    let path = dir.join("plan.tsv");
    let path_str = path.display().to_string();

    let out = mcss(&[
        "generate", "spotify", "--size", "150", "--seed", "6", "--out", &path_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    let out = mcss(&["plan", &path_str, "--tau", "40", "--mixed"]);
    assert!(
        out.status.success(),
        "plan --mixed failed: {}",
        stderr(&out)
    );
    let report = stdout(&out);
    assert!(
        report.contains("cheapest homogeneous:"),
        "no homogeneous verdict in: {report}"
    );
    assert!(
        report.contains("mixed fleet:"),
        "no mixed line in: {report}"
    );
    assert!(
        report.contains("\u{d7}"),
        "no per-tier breakdown in: {report}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_prints_each_infeasible_candidate_with_its_reason() {
    // One topic at 6e7 events: its pair cost (1.2e8) exceeds the
    // effective capacity of c3.large (5e7) and c3.xlarge (1e8) but fits
    // c3.2xlarge (2e8) — the plan must name both skipped flavours and
    // say why instead of only counting them.
    let dir = scratch("plan-skip");
    let path = dir.join("loud.tsv");
    let path_str = path.display().to_string();
    std::fs::write(
        &path,
        "pubsub-trace v1\ntopics\t1\n60000000\nsubscribers\t1\n0\n",
    )
    .expect("write trace");

    let out = mcss(&["plan", &path_str, "--tau", "1", "--effective"]);
    assert!(out.status.success(), "plan failed: {}", stderr(&out));
    let report = stdout(&out);
    for flavour in ["c3.large", "c3.xlarge"] {
        let line = report
            .lines()
            .find(|l| l.starts_with(flavour) && l.contains("infeasible"))
            .unwrap_or_else(|| panic!("no infeasible line for {flavour} in: {report}"));
        assert!(
            line.contains("needs") && line.contains("capacity"),
            "skip reason missing from: {line}"
        );
    }
    assert!(
        report.contains("cheapest: c3.2xlarge"),
        "feasible flavour must still rank: {report}"
    );

    // The mixed plan routes the loud topic to the big tier instead.
    let out = mcss(&["plan", &path_str, "--tau", "1", "--effective", "--mixed"]);
    assert!(
        out.status.success(),
        "plan --mixed failed: {}",
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("c3.2xlarge"),
        "mixed plan must use the big tier: {}",
        stdout(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_mixed_still_diagnoses_a_workload_no_tier_can_host() {
    // One topic at 2e8 events: its pair cost (4e8) exceeds even the
    // effective c3.2xlarge capacity (2e8). The plain plan lists every
    // flavour as infeasible before erroring; --mixed must do the same
    // instead of printing nothing.
    let dir = scratch("plan-mixed-infeasible");
    let path = dir.join("too-loud.tsv");
    let path_str = path.display().to_string();
    std::fs::write(
        &path,
        "pubsub-trace v1\ntopics\t1\n200000000\nsubscribers\t1\n0\n",
    )
    .expect("write trace");

    for extra in [&[][..], &["--mixed"][..]] {
        let mut args = vec!["plan", path_str.as_str(), "--tau", "1", "--effective"];
        args.extend_from_slice(extra);
        let out = mcss(&args);
        assert!(!out.status.success(), "plan {extra:?} must fail");
        let report = stdout(&out);
        for flavour in ["c3.large", "c3.xlarge", "c3.2xlarge"] {
            assert!(
                report.contains(flavour) && report.contains("infeasible"),
                "plan {extra:?} lost the {flavour} diagnosis: {report}"
            );
        }
        assert!(
            stderr(&out).contains("error"),
            "no error line for {extra:?}: {}",
            stderr(&out)
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reprovision_mixed_fleet_reports_tier_mix() {
    let dir = scratch("reprovision-mixed");
    let path = dir.join("drift.tsv");
    let path_str = path.display().to_string();

    let out = mcss(&[
        "generate", "spotify", "--size", "200", "--seed", "12", "--out", &path_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    let out = mcss(&[
        "reprovision",
        &path_str,
        "--tau",
        "40",
        "--epochs",
        "3",
        "--churn",
        "0.3",
        "--sigma",
        "0.0",
        "--mixed",
        "--effective",
        "--scale",
        "200/100000",
        "--simulate",
    ]);
    assert!(
        out.status.success(),
        "reprovision --mixed failed: {}",
        stderr(&out)
    );
    let report = stdout(&out);
    assert!(
        report.contains("mixed fleet"),
        "no mixed banner in: {report}"
    );
    assert!(
        report.contains(", fleet "),
        "no per-epoch tier mix in: {report}"
    );
    assert!(
        report.contains("sim: satisfied"),
        "no simulation verdict in: {report}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reprovision_reports_epoch_churn_counters() {
    let dir = scratch("reprovision");
    let path = dir.join("drift.tsv");
    let path_str = path.display().to_string();

    let out = mcss(&[
        "generate", "spotify", "--size", "200", "--seed", "12", "--out", &path_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    // Incremental repair with simulation: every epoch line must surface
    // the churn counters (moved / reused) and the sim verdict.
    let out = mcss(&[
        "reprovision",
        &path_str,
        "--tau",
        "40",
        "--epochs",
        "3",
        "--churn",
        "0.3",
        "--sigma",
        "0.0",
        "--effective",
        "--scale",
        "200/100000",
        "--simulate",
    ]);
    assert!(out.status.success(), "reprovision failed: {}", stderr(&out));
    let report = stdout(&out);
    assert!(
        report.contains("incremental O(Δ) repair"),
        "no mode banner in: {report}"
    );
    assert!(report.contains("epoch   0"), "no epoch lines in: {report}");
    assert!(report.contains("reused"), "no reuse counter in: {report}");
    assert!(
        report.contains("sim: satisfied"),
        "no simulation verdict in: {report}"
    );
    assert!(
        report.contains("cumulative cost over 3 epochs"),
        "no summary in: {report}"
    );

    // Fresh mode re-solves every epoch.
    let out = mcss(&[
        "reprovision",
        &path_str,
        "--tau",
        "40",
        "--epochs",
        "2",
        "--fresh",
        "--effective",
        "--scale",
        "200/100000",
    ]);
    assert!(out.status.success(), "fresh failed: {}", stderr(&out));
    let report = stdout(&out);
    assert!(
        report.contains("full re-solve per epoch"),
        "no fresh banner in: {report}"
    );
    assert!(
        report.contains("[full solve]"),
        "no full-solve tag: {report}"
    );

    // Bad flags are rejected.
    let out = mcss(&["reprovision", &path_str, "--tau", "40", "--churn", "2"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--churn"),
        "unexpected stderr: {}",
        stderr(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_rejects_missing_tau() {
    let dir = scratch("notau");
    let path = dir.join("t.tsv");
    let path_str = path.display().to_string();
    let out = mcss(&[
        "generate", "spotify", "--size", "20", "--seed", "1", "--out", &path_str,
    ]);
    assert!(out.status.success());

    let out = mcss(&["solve", &path_str]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--tau"),
        "unexpected stderr: {}",
        stderr(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_happy_path_streams_epochs_and_writes_summary() {
    let dir = scratch("serve-happy");
    let state = dir.join("state");
    let summary = dir.join("summary.json");
    let out = mcss(&[
        "serve",
        "--trace",
        "spotify",
        "--size",
        "200",
        "--tau",
        "30",
        "--epochs",
        "3",
        "--snapshot-every",
        "1",
        "--dir",
        &state.display().to_string(),
        "--summary",
        &summary.display().to_string(),
    ]);
    assert!(out.status.success(), "serve failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("epoch   0:"), "no epoch lines in: {text}");
    assert!(text.contains("served 3 epochs"), "no run footer in: {text}");
    let json = std::fs::read_to_string(&summary).expect("summary written");
    assert!(json.contains("\"events_per_sec\""), "bad summary: {json}");
    assert!(
        state.join("events.log").exists() && state.join("snapshot.bin").exists(),
        "state files missing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_zero_watermark() {
    let out = mcss(&["serve", "--trace", "spotify", "--epoch-events", "0"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--epoch-events must be positive"),
        "unexpected stderr: {err}"
    );
}

#[test]
fn serve_resume_reports_corrupted_snapshot() {
    let dir = scratch("serve-corrupt");
    let state = dir.join("state");
    let state_str = state.display().to_string();
    let out = mcss(&[
        "serve",
        "--trace",
        "spotify",
        "--size",
        "150",
        "--tau",
        "30",
        "--epochs",
        "2",
        "--snapshot-every",
        "1",
        "--dir",
        &state_str,
    ]);
    assert!(out.status.success(), "serve failed: {}", stderr(&out));

    // Flip one byte of the snapshot body: recovery must refuse it.
    let snap = state.join("snapshot.bin");
    let mut bytes = std::fs::read(&snap).expect("snapshot written");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&snap, &bytes).expect("rewrite snapshot");

    let out = mcss(&[
        "serve", "--trace", "spotify", "--size", "150", "--tau", "30", "--epochs", "3", "--resume",
        "--dir", &state_str,
    ]);
    assert!(!out.status.success(), "resume must fail on a bad snapshot");
    let err = stderr(&out);
    assert!(
        err.contains("corrupted snapshot"),
        "unexpected stderr: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drill_repairs_a_killed_fleet_under_budget() {
    let dir = scratch("drill");
    let path = dir.join("trace.tsv");
    let path_str = path.display().to_string();
    let out = mcss(&[
        "generate", "spotify", "--size", "200", "--seed", "5", "--out", &path_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    // A 20% fleet kill, repaired 25 pairs per epoch: must drain and
    // report satisfaction bit-identical to the fresh solve.
    let out = mcss(&[
        "drill",
        &path_str,
        "--tau",
        "50",
        "--kill",
        "20%",
        "--sla-pairs",
        "25",
        "--effective",
        "--scale",
        "200/100000",
    ]);
    assert!(out.status.success(), "drill failed: {}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("impact:"), "no impact line in: {report}");
    assert!(report.contains("bit-identical"), "no verdict in: {report}");

    // Kill-spec typos are parse errors, not silent no-ops.
    let out = mcss(&["drill", &path_str, "--tau", "50", "--kill", "7-2"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("backwards"),
        "bad error: {}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_blast_radius_ranks_vms() {
    let dir = scratch("blast");
    let path = dir.join("trace.tsv");
    let path_str = path.display().to_string();
    let out = mcss(&[
        "generate", "spotify", "--size", "200", "--seed", "5", "--out", &path_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    let out = mcss(&[
        "analyze",
        &path_str,
        "--blast-radius",
        "3",
        "--tau",
        "50",
        "--effective",
        "--scale",
        "200/100000",
    ]);
    assert!(out.status.success(), "analyze failed: {}", stderr(&out));
    let report = stdout(&out);
    assert!(
        report.contains("blast radius"),
        "no blast radius section in: {report}"
    );
    assert!(report.contains("starved"), "no starved counts in: {report}");

    let out = mcss(&["analyze", &path_str, "--blast-radius", "3"]);
    assert!(
        !out.status.success(),
        "--blast-radius without --tau must fail"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_store_is_a_drop_in_for_the_trace() {
    let dir = scratch("ingest");
    let trace = dir.join("trace.tsv");
    let trace_str = trace.display().to_string();
    let store = dir.join("workload.mcss");
    let store_str = store.display().to_string();

    let out = mcss(&[
        "generate", "spotify", "--size", "200", "--seed", "5", "--out", &trace_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    let out = mcss(&["ingest", &trace_str, "--out", &store_str]);
    assert!(out.status.success(), "ingest failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ingested"), "no summary line in: {text}");
    assert!(text.contains("sections"), "no section count in: {text}");

    // analyze --store prints the on-disk bytes of every section next to
    // the resident footprint.
    let out = mcss(&["analyze", "--store", &store_str]);
    assert!(
        out.status.success(),
        "analyze --store failed: {}",
        stderr(&out)
    );
    let report = stdout(&out);
    assert!(
        report.contains("on-disk store"),
        "no store section: {report}"
    );
    assert!(report.contains("bytes/subscriber"), "no ratio: {report}");
    for section in ["rates", "interest-offsets", "ranked-topics", "follower-ids"] {
        assert!(report.contains(section), "missing {section} in: {report}");
    }

    // Solving from the store must print byte-for-byte what the trace
    // path prints — the store load is a drop-in replacement — except the
    // wall-clock `time:` line, which differs between any two runs.
    let via_trace = mcss(&["solve", &trace_str, "--tau", "50"]);
    let via_store = mcss(&["solve", "--store", &store_str, "--tau", "50"]);
    assert!(via_trace.status.success(), "{}", stderr(&via_trace));
    assert!(via_store.status.success(), "{}", stderr(&via_store));
    let untimed = |text: String| -> Vec<String> {
        text.lines()
            .filter(|line| !line.starts_with("time:"))
            .map(str::to_owned)
            .collect()
    };
    let (trace_lines, store_lines) = (untimed(stdout(&via_trace)), untimed(stdout(&via_store)));
    assert!(trace_lines.len() > 3, "too little output: {trace_lines:?}");
    assert_eq!(
        trace_lines, store_lines,
        "store and trace solves must agree bit for bit"
    );

    // Both sources at once is refused up front.
    let out = mcss(&["solve", &trace_str, "--store", &store_str, "--tau", "50"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("not both"),
        "bad error: {}",
        stderr(&out)
    );

    // A flipped payload byte fails closed with the section named.
    let mut bytes = std::fs::read(&store).expect("store written");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&store, &bytes).expect("rewrite store");
    let out = mcss(&["solve", "--store", &store_str, "--tau", "50"]);
    assert!(!out.status.success(), "corrupted store must not solve");
    assert!(
        stderr(&out).contains("CRC32"),
        "no checksum diagnostic: {}",
        stderr(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_streams_from_an_ingested_store() {
    let dir = scratch("serve-store");
    let trace = dir.join("trace.tsv");
    let trace_str = trace.display().to_string();
    let store = dir.join("workload.mcss");
    let store_str = store.display().to_string();
    let state = dir.join("state");

    let out = mcss(&[
        "generate", "spotify", "--size", "150", "--seed", "4", "--out", &trace_str,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));
    let out = mcss(&["ingest", &trace_str, "--out", &store_str]);
    assert!(out.status.success(), "ingest failed: {}", stderr(&out));

    let out = mcss(&[
        "serve",
        "--store",
        &store_str,
        "--tau",
        "30",
        "--epochs",
        "2",
        "--snapshot-every",
        "1",
        "--dir",
        &state.display().to_string(),
    ]);
    assert!(
        out.status.success(),
        "serve --store failed: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("epoch   0:"), "no epoch lines in: {text}");
    assert!(text.contains("served 2 epochs"), "no run footer in: {text}");

    // --trace and --store together are ambiguous.
    let out = mcss(&["serve", "--trace", "spotify", "--store", &store_str]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("mutually exclusive"),
        "bad error: {}",
        stderr(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_drill_schedule_kills_and_heals() {
    let dir = scratch("serve-drill");
    let state = dir.join("state");
    let state_str = state.display().to_string();
    let out = mcss(&[
        "serve",
        "--trace",
        "spotify",
        "--size",
        "150",
        "--tau",
        "30",
        "--epochs",
        "3",
        "--drill",
        "1:0;2:50%",
        "--repair-budget",
        "10",
        "--snapshot-every",
        "1",
        "--dir",
        &state_str,
    ]);
    assert!(
        out.status.success(),
        "serve --drill failed: {}",
        stderr(&out)
    );
    let report = stdout(&out);
    assert!(
        report.contains("drill at batch 1: killing VMs [0]"),
        "no drill line in: {report}"
    );
    // A percentage kill share is resolved against the live fleet: half
    // of this one-VM fleet, rounded up, is VM 0.
    assert!(
        report.contains("drill at batch 2: killing VMs [0]"),
        "no percentage drill line in: {report}"
    );
    assert!(
        report.contains("VMs failed"),
        "no repair stats in epoch lines: {report}"
    );

    // The drill's VmFail records live in the log now; replaying them on
    // resume is the only sane semantics, so --drill + --resume is refused.
    let out = mcss(&[
        "serve", "--trace", "spotify", "--size", "150", "--tau", "30", "--epochs", "4", "--resume",
        "--dir", &state_str, "--drill", "3:0",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--resume"),
        "bad error: {}",
        stderr(&out)
    );

    // Plain resume over the drilled log must recover and continue. The
    // first run closed four epochs (the second drill left repairs that a
    // repair-only epoch drained) and snapshotted after every one, so the
    // snapshot covers every record: recovery verifies them all and
    // replays none.
    let summary = dir.join("summary.json");
    let out = mcss(&[
        "serve",
        "--trace",
        "spotify",
        "--size",
        "150",
        "--tau",
        "30",
        "--epochs",
        "5",
        "--resume",
        "--dir",
        &state_str,
        "--summary",
        &summary.display().to_string(),
    ]);
    assert!(
        out.status.success(),
        "resume over a drilled log failed: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    let line = text
        .lines()
        .find(|l| l.starts_with("recovered 4 applied epochs"))
        .unwrap_or_else(|| panic!("no recovered line in: {text}"));
    assert!(
        line.contains(" 0 replayed past the snapshot, 0 epochs replayed, 0 torn bytes truncated)"),
        "unexpected recovery counters: {line}"
    );
    let verified: u64 = line
        .split('(')
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no verified count in: {line}"));
    assert!(verified > 0, "{line}");
    let json = std::fs::read_to_string(&summary).expect("summary written");
    assert!(json.contains("\"resumed\": true"), "bad summary: {json}");
    let want = format!(
        "\"recovery\": {{\"records_verified\": {verified}, \"records_replayed\": 0, \
         \"epochs_replayed\": 0, \"torn_bytes\": 0}}"
    );
    assert!(json.contains(&want), "bad summary: {json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generators_reject_sizes_they_cannot_build() {
    // A Spotify-like trace needs one subscriber and a Twitter-like
    // follow graph two users; smaller sizes are usage errors, not
    // generator panics.
    let dir = scratch("sizes");
    let state = dir.join("state").display().to_string();
    for args in [
        &["generate", "spotify", "--size", "0"][..],
        &["generate", "twitter", "--size", "1"],
        &[
            "serve", "--trace", "spotify", "--size", "0", "--dir", &state,
        ],
        &[
            "serve", "--trace", "twitter", "--size", "1", "--dir", &state,
        ],
    ] {
        let out = mcss(args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "mcss {args:?}: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("--size must be at least"),
            "mcss {args:?}: {}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_indices_past_the_slot_ids_are_rejected() {
    // Slot ids are u32: index 2^32 must not wrap around to VM 0.
    let dir = scratch("kill-index");
    let path = dir.join("trace.tsv").display().to_string();
    let state = dir.join("state").display().to_string();
    let out = mcss(&[
        "generate", "spotify", "--size", "300", "--seed", "5", "--out", &path,
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));
    for args in [
        &[
            "serve",
            "--trace",
            "spotify",
            "--size",
            "300",
            "--epochs",
            "2",
            "--drill",
            "1:4294967296",
            "--dir",
            &state,
        ][..],
        &["drill", &path, "--tau", "50", "--kill", "4294967296"],
    ] {
        let out = mcss(args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "mcss {args:?}: {}",
            stdout(&out)
        );
        assert!(
            stderr(&out).contains("bad kill index \"4294967296\""),
            "mcss {args:?}: {}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
