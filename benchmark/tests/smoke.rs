//! A tiny-size run of every workload in both modes. Each must pass its
//! output checks and end with one JSON line holding exactly the metrics
//! `BENCHMARK.json` names for that mode, each with its unit.

use std::fs;
use std::process::Command;

/// `(name, unit)` of every entry in `section` of `BENCHMARK.json`, read
/// without a JSON parser: each entry is one line holding `"name"`, and
/// `"unit"` when it has one.
fn entries(json: &str, section: &str) -> Vec<(String, Option<String>)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit"))))
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let json = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads = entries(&json, "workloads");
    assert_eq!(workloads.len(), 3);
    for (workload, _) in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_mcss_perfbench"))
                .args(["--workload", workload, "--seed", "2", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0, "), "{last}");
            let metrics = entries(&json, section);
            assert_eq!(last.matches("\"value\": ").count(), metrics.len(), "{last}");
            for (name, unit) in metrics {
                let unit = unit.expect("every metric has a unit");
                let key = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload}: no {name} in {last}"));
                let rest = &last[at + key.len()..];
                let end = rest.find(',').expect("value ends");
                let value: f64 = rest[..end]
                    .parse()
                    .unwrap_or_else(|e| panic!("{workload}: {name} is not a number: {e}"));
                assert!(value.is_finite());
                assert!(
                    rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} is not in {unit}: {last}"
                );
            }
        }
    }
}
