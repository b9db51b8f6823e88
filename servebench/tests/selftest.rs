//! Harness self-test: tiny runs of every workload emit every metric
//! `BENCHMARK.json` names, with well-formed names, and a deliberately
//! corrupted report fails the output check.
//!
//! ```sh
//! cargo test --release --offline --manifest-path servebench/Cargo.toml
//! ```

use std::process::Command;

const WORKLOADS: [&str; 3] = ["cold_fleet", "durable_warm", "skewed_mitigate"];

/// Runs the benchmark on a tiny fleet and returns its result line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The `"name"` values of one metric list in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside the package");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section listed");
    let body = &text[start..start + text[start..].find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("quoted name");
            value.to_string()
        })
        .collect()
}

/// Metric names in a result line, in order.
fn emitted(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    let chunks: Vec<&str> = metrics.split("\": {\"value\"").collect();
    // Every chunk but the last ends with `"<name>`.
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| chunk.rsplit('"').next().unwrap_or_default().to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn field(line: &str, key: &str) -> String {
    let at = line.find(&format!("\"{key}\": ")).expect("field present") + key.len() + 4;
    line[at..]
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric())
        .collect()
}

#[test]
fn every_listed_metric_is_emitted_by_every_workload() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let expected = listed(section);
        assert!(!expected.is_empty(), "{section} lists metrics");
        for workload in WORKLOADS {
            let line = run(workload, trace, &[]);
            let names = emitted(&line);
            for name in &names {
                assert!(well_formed(name), "{workload}: bad metric name {name:?}");
            }
            for name in &expected {
                assert!(
                    names.contains(name),
                    "{workload} --trace {trace}: {name} missing"
                );
            }
            assert_eq!(
                names.len(),
                expected.len(),
                "{workload} --trace {trace}: {names:?}"
            );
        }
    }
}

#[test]
fn listed_workloads_pass_their_output_check() {
    for workload in ["cold_fleet", "skewed_mitigate"] {
        let line = run(workload, 0, &[]);
        assert_eq!(field(&line, "correct"), "true", "{workload}: {line}");
        assert_eq!(field(&line, "failed"), "0", "{workload}: {line}");
    }
}

#[test]
fn a_corrupted_report_fails_the_output_check() {
    for workload in ["cold_fleet", "skewed_mitigate"] {
        let line = run(workload, 0, &["--corrupt-report"]);
        assert_eq!(field(&line, "correct"), "false", "{workload}: {line}");
        assert_ne!(field(&line, "failed"), "0", "{workload}: {line}");
    }
}
