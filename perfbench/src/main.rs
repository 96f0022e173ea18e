//! The ObliDB benchmark: one command, three workloads, every metric with
//! its unit, every output checked.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload bdb|point|served --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! run instead and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the set-up, the workloads and the map from
//! layer metrics to end-to-end metrics.

mod bdb;
mod inproc;
mod point;
mod served;
mod spans;
mod stats;
mod timed;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::RunReport;

/// End-to-end metrics, `(name, unit)`: every workload reports all of them.
/// `opN` are the workload's statement kinds, most frequent first:
/// `bdb` q1/q2/q3, `point` get/insert/delete, `served` write/read/commit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op1_p50_ms", "ms"),
    ("op2_p50_ms", "ms"),
    ("op3_p50_ms", "ms"),
];

/// Statement kinds with per-kind layer metrics (`stmt` = every statement).
const KINDS: &[&str] = &["q1", "q2", "q3", "get", "insert", "delete"];

/// Per-layer metrics, `(name, unit, better)`. A workload reports 0 for a
/// kind or a layer it does not run.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for kind in KINDS {
        for (metric, unit, better) in [
            ("plan.prepare_ms", "ms", "lower"),
            ("exec.run_ms", "ms", "lower"),
            ("exec.self_ms", "ms", "lower"),
            ("storage.blocks_sealed", "count", "lower"),
            ("storage.blocks_opened", "count", "lower"),
            ("oram.accesses", "count", "lower"),
            ("trace.coverage", "ratio", "higher"),
        ] {
            out.push((format!("{metric}.{kind}"), unit, better));
        }
    }
    for kind in KINDS.iter().chain(&["stmt"]) {
        for (metric, unit) in [
            ("enclave.crossings", "count"),
            ("enclave.blocks_read", "count"),
            ("enclave.blocks_written", "count"),
            ("enclave.bytes_read", "bytes"),
            ("enclave.bytes_written", "bytes"),
        ] {
            out.push((format!("{metric}.{kind}"), unit, "lower"));
        }
    }
    for (metric, unit, better) in [
        ("plan.cache_hit_ratio", "ratio", "higher"),
        ("substrate.calls_per_stmt", "count", "lower"),
        ("substrate.ms_per_stmt", "ms", "lower"),
        ("substrate.fsyncs_per_stmt", "count", "lower"),
        ("substrate.fsync_ms_per_stmt", "ms", "lower"),
        ("txn.stmts_per_fsync", "count", "higher"),
        ("wal.appends_per_write", "count", "lower"),
        ("txn.epochs", "count", "lower"),
        ("server.ping_ms", "ms", "lower"),
        ("server.bytes_per_stmt", "bytes", "lower"),
        ("server.other_ms_per_stmt", "ms", "lower"),
        ("store.bytes_per_row", "bytes/row", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("tail.op1_p90_ms", "ms", "lower"),
    ] {
        out.push((metric.to_string(), unit, better));
    }
    out
}

/// Reads counters from the telemetry registry by name.
pub fn registry_counters<const N: usize>(names: &[&str; N]) -> [u64; N] {
    let snap = oblidb_telemetry::snapshot();
    names.map(|name| snap.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v))
}

/// Table sizes and run lengths.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    bdb_rows: usize,
    point_rows: usize,
    served_rows: usize,
    /// `served` cycles per connection per second of `--seconds`; fixed, so
    /// every run with the same `--seconds` does the same work.
    served_cycles_per_s: f64,
}

/// The benchmark's sizes.
pub const FULL: Scale =
    Scale { bdb_rows: 30_000, point_rows: 50_000, served_rows: 2_000, served_cycles_per_s: 30.0 };

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Runs one workload and returns its report, or an error that aborts the
/// run without a result.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    dir: &Path,
) -> Result<RunReport, String> {
    let mut report = RunReport::default();
    let spans = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    match workload {
        "bdb" => {
            let w = bdb::Bdb::new(scale.bdb_rows, seed);
            inproc::run(&w, seconds, trace, &spans, &mut report).map_err(|e| e.to_string())?
        }
        "point" => {
            let w = point::Point::new(scale.point_rows, seed);
            inproc::run(&w, seconds, trace, &spans, &mut report).map_err(|e| e.to_string())?
        }
        "served" => {
            let root = dir.join(format!("served-{}", std::process::id()));
            let w = served::Served {
                rows: scale.served_rows,
                cycles: ((seconds * scale.served_cycles_per_s).round() as usize).max(1),
                seed,
                root: root.clone(),
            };
            let out = if trace { w.traced(&spans, &mut report) } else { w.timed(&mut report) };
            let _ = std::fs::remove_dir_all(&root);
            out?
        }
        other => return Err(format!("unknown workload {other} (bdb, point, served)")),
    }
    Ok(report)
}

/// The result line: every metric of the run's set, with its unit.
fn result_json(report: &RunReport, trace: bool) -> Result<String, String> {
    let names: Vec<(String, &str)> = if trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = match report.metrics.get(&name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scratch space inside the working directory: served stores, spans.
    let dir = PathBuf::from(".perfbench");
    let report = run(&args.workload, args.seed, args.seconds, args.trace, FULL, &dir)
        .and_then(|r| result_json(&r, args.trace).map(|json| (r, json)));
    let (report, json) = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed {} ({} s, trace {}): simd {:?}, {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        oblidb_crypto::simd::detected(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, value) in &report.metrics {
        println!("  {name} = {value}");
    }
    println!("{json}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small tables and short runs: the self-test checks wiring and
    /// correctness, not speed.
    const SMALL: Scale =
        Scale { bdb_rows: 2_000, point_rows: 2_000, served_rows: 200, served_cycles_per_s: 20.0 };

    fn metric(json: &str, name: &str) -> f64 {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
        json[at..].split(',').next().unwrap().parse().unwrap()
    }

    #[test]
    fn every_workload_reports_every_metric_and_no_error() {
        let dir = PathBuf::from(".perfbench").join("self-test");
        for workload in ["bdb", "point", "served"] {
            for trace in [false, true] {
                let report = run(workload, 7, 1.0, trace, SMALL, &dir)
                    .unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert!(report.attempted > 0, "{workload}: nothing ran");
                assert_eq!(report.failed, 0, "{workload} trace {trace}: error ratio not 0");
                let json = result_json(&report, trace).unwrap();
                assert!(json.starts_with("{\"correct\": true,"), "{json}");
                if trace {
                    for (name, unit, _) in per_layer() {
                        assert!(json.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
                        assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
                    }
                    assert!(metric(&json, "trace.overhead") > 0.0);
                    let kinds: &[&str] = match workload {
                        "bdb" => &["q1", "q2", "q3"],
                        "point" => &["get", "insert", "delete"],
                        _ => &[],
                    };
                    for kind in kinds {
                        let coverage = metric(&json, &format!("trace.coverage.{kind}"));
                        assert!((0.99..=1.0).contains(&coverage), "{workload} {kind}: {coverage}");
                    }
                } else {
                    for (name, unit) in END_TO_END {
                        let value = metric(&json, name);
                        assert!(value > 0.0, "{workload} {name} = {value}");
                        assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entries = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\": [")).expect(section);
            let body = &text[start..start + text[start..].find(']').unwrap()];
            body.split('{').skip(1).map(|e| e.split('}').next().unwrap().to_string()).collect()
        };
        let e2e = entries("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for ((name, unit), entry) in END_TO_END.iter().zip(&e2e) {
            assert!(
                entry.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{entry}"
            );
        }
        let layers = entries("per_layer");
        let catalog = per_layer();
        assert_eq!(layers.len(), catalog.len());
        for ((name, unit, better), entry) in catalog.iter().zip(&layers) {
            let want =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(entry.contains(&want), "{entry}");
        }
    }
}
