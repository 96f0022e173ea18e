//! Result reporting for the bench binaries: tables printed to stdout and
//! the `BENCH_<name>.json` artifacts the perf sweeps record.
//!
//! Each figure binary prints the rows/series its paper figure reports,
//! with the paper's numbers alongside for shape comparison (absolute
//! values differ: our substrate is a simulator, not the authors' SGX
//! testbed).

use std::path::{Path, PathBuf};

use oblidb_telemetry::metrics::json_str;

/// A printable results table.
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report with a figure title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} ==", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:<w$}", w = widths[i]))
            .collect();
        println!("{}", header.join("  "));
        println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().enumerate().map(|(i, c)| format!("{c:<w$}", w = widths[i])).collect();
            println!("{}", line.join("  "));
        }
    }
}

/// One value in a `BENCH_<name>.json` artifact.
#[derive(Debug)]
pub enum Field {
    /// A string, JSON-escaped on output.
    Str(String),
    /// An integer (wide enough for every `u64` and `i64` count).
    Int(i128),
    /// A float printed with this many decimals.
    Float(f64, usize),
    /// `true` or `false`.
    Bool(bool),
}

impl From<&str> for Field {
    fn from(s: &str) -> Self {
        Field::Str(s.to_string())
    }
}

impl From<String> for Field {
    fn from(s: String) -> Self {
        Field::Str(s)
    }
}

impl From<u64> for Field {
    fn from(n: u64) -> Self {
        Field::Int(n.into())
    }
}

impl From<usize> for Field {
    fn from(n: usize) -> Self {
        Field::Int(n as i128)
    }
}

impl From<i64> for Field {
    fn from(n: i64) -> Self {
        Field::Int(n.into())
    }
}

impl From<bool> for Field {
    fn from(b: bool) -> Self {
        Field::Bool(b)
    }
}

impl std::fmt::Display for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Field::Str(s) => f.write_str(&json_str(s)),
            Field::Int(n) => write!(f, "{n}"),
            Field::Float(x, decimals) => write!(f, "{x:.decimals$}"),
            Field::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One result row: `(key, value)` pairs in output order. A key without a
/// value is left out of the row rather than written as `null`.
pub type Row = Vec<(&'static str, Field)>;

/// Writes `dir/BENCH_<name>.json` (hand-rolled JSON — the workspace is
/// dependency-free) in the layout every bench artifact shares, and
/// returns the path written:
///
/// ```text
/// {
///   "bench": <name>,
///   <one "key": value line per meta pair>,
///   "results": [
///     {<one flat object per row>},
///     …
///   ]
/// }
/// ```
pub fn write_bench_json(
    dir: &Path,
    name: &str,
    meta: &[(&str, Field)],
    rows: &[Row],
) -> std::io::Result<PathBuf> {
    let mut out = format!("{{\n  \"bench\": {},\n", json_str(name));
    for (key, value) in meta {
        out.push_str(&format!("  {}: {value},\n", json_str(key)));
    }
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> =
            row.iter().map(|(key, value)| format!("{}: {value}", json_str(key))).collect();
        out.push_str(&format!(
            "    {{{}}}{}\n",
            fields.join(", "),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::Field::{Bool, Float};
    use super::*;

    // Recorded from the per-bench writers this module replaced, on the
    // inputs below; the single writer must reproduce them byte for byte.
    const BATCH_IO: &str = r#"{
  "bench": "batch_io_test",
  "results": [
    {"name": "read/64B", "blocks": 256, "per_block_s": 0.002000000, "batched_s": 0.001000000, "speedup": 2.000},
    {"name": "write/64B", "blocks": 256, "per_block_s": 0.003000000, "batched_s": 0.001000000, "speedup": 3.000}
  ]
}
"#;

    const TELEMETRY: &str = r#"{
  "bench": "telemetry_test",
  "iters": 7,
  "results": [
    {"workload": "select_scan", "off_seconds": 0.010000000, "on_seconds": 0.010200000, "overhead": 0.0200, "spans_per_iter": 12},
    {"workload": "join", "off_seconds": 0.020000000, "on_seconds": 0.020100000, "overhead": 0.0050, "spans_per_iter": 30}
  ]
}
"#;

    const SUBSTRATES: &str = r#"{
  "bench": "substrates_test",
  "results": [
    {"substrate": "disk", "workload": "scan", "seconds": 0.500000000, "reads": 5, "writes": 2, "bytes_read": 100, "bytes_written": 40, "crossings": 3, "stall_nanos": 9},
    {"substrate": "cached-disk", "workload": "scan", "seconds": 0.250000000, "reads": 5, "writes": 2, "bytes_read": 100, "bytes_written": 40, "crossings": 3, "stall_nanos": 9, "backing_crossings": 1}
  ]
}
"#;

    const PARALLEL: &str = r#"{
  "bench": "parallel_test",
  "shards": 8,
  "rows_per_shard": 512,
  "stall_nanos_nominal": 1000000,
  "stall_nanos_measured": 1110000,
  "available_parallelism": 1,
  "results": [
    {"workers": 1, "seconds": 0.016000000, "speedup": 1.000, "crossings": 16},
    {"workers": 4, "seconds": 0.004000000, "speedup": 4.000, "crossings": 16}
  ]
}
"#;

    const CRYPTO: &str = r#"{
  "bench": "crypto_test",
  "detected_backend": "avx2",
  "results": [
    {"op": "seal", "backend": "scalar", "batch_blocks": 256, "block_bytes": 1024, "mib_s": 400.000, "speedup_vs_scalar": 1.000},
    {"op": "seal", "backend": "avx2", "batch_blocks": 256, "block_bytes": 1024, "mib_s": 1200.000, "speedup_vs_scalar": 3.000}
  ]
}
"#;

    const TXN: &str = r#"{
  "bench": "txn_test",
  "statements": 256,
  "results": [
    {"mode": "per-statement", "epoch_statements": 1, "seconds": 0.800000000, "stmts_per_sec": 320.000, "speedup": 1.000},
    {"mode": "epoch/32", "epoch_statements": 32, "seconds": 0.100000000, "stmts_per_sec": 2560.000, "speedup": 8.000}
  ]
}
"#;

    const SERVER: &str = r#"{
  "bench": "server_test",
  "rows": 48,
  "statements_per_session": 32,
  "reads_per_write": 15,
  "stall_nanos_nominal": 1000000,
  "available_parallelism": 2,
  "results": [
    {"sessions": 1, "seconds": 0.500000000, "stmts_per_sec": 64.000, "speedup": 1.000},
    {"sessions": 4, "seconds": 0.625000000, "stmts_per_sec": 204.800, "speedup": 3.200}
  ]
}
"#;

    const PLANNER: &str = r#"{
  "bench": "planner",
  "results": [
    {"profile": "host", "shape": "half-tiny-om", "rows": 512, "om_bytes": 128, "selectivity": 0.5000, "host": "Hash", "costed": "Hash", "costed_weighted": 1536.2, "flip": false},
    {"profile": "disk", "shape": "sparse-tiny-om", "rows": 512, "om_bytes": 128, "selectivity": 0.0312, "host": "Hash", "costed": "Small", "costed_weighted": 98765.4, "flip": true}
  ]
}
"#;

    const ESCAPED: &str = r#"{
  "bench": "escape_test",
  "results": [
    {"name": "q\"b\\s\u0001\n", "blocks": 1, "per_block_s": 1.000000000, "batched_s": 0.500000000, "speedup": 2.000}
  ]
}
"#;

    #[test]
    fn writer_reproduces_recorded_artifacts_byte_for_byte() {
        let substrate = |name: &str, seconds: f64| -> Row {
            vec![
                ("substrate", name.into()),
                ("workload", "scan".into()),
                ("seconds", Float(seconds, 9)),
                ("reads", 5u64.into()),
                ("writes", 2u64.into()),
                ("bytes_read", 100u64.into()),
                ("bytes_written", 40u64.into()),
                ("crossings", 3u64.into()),
                ("stall_nanos", 9u64.into()),
            ]
        };
        let mut cached = substrate("cached-disk", 0.25);
        cached.push(("backing_crossings", 1u64.into()));
        let planner = |profile: &str, shape: &str, modulus: i64, costed: &str, cost: f64| -> Row {
            vec![
                ("profile", profile.into()),
                ("shape", shape.into()),
                ("rows", 512i64.into()),
                ("om_bytes", 128usize.into()),
                ("selectivity", Float(1.0 / modulus as f64, 4)),
                ("host", "Hash".into()),
                ("costed", costed.into()),
                ("costed_weighted", Float(cost, 1)),
                ("flip", Bool(costed != "Hash")),
            ]
        };

        let cases: Vec<(&str, Vec<(&str, Field)>, Vec<Row>, &str)> = vec![
            (
                "batch_io_test",
                vec![],
                vec![
                    vec![
                        ("name", "read/64B".into()),
                        ("blocks", 256usize.into()),
                        ("per_block_s", Float(2e-3, 9)),
                        ("batched_s", Float(1e-3, 9)),
                        ("speedup", Float(2.0, 3)),
                    ],
                    vec![
                        ("name", "write/64B".into()),
                        ("blocks", 256usize.into()),
                        ("per_block_s", Float(3e-3, 9)),
                        ("batched_s", Float(1e-3, 9)),
                        ("speedup", Float(3e-3 / 1e-3, 3)),
                    ],
                ],
                BATCH_IO,
            ),
            (
                "telemetry_test",
                vec![("iters", 7usize.into())],
                vec![
                    vec![
                        ("workload", "select_scan".into()),
                        ("off_seconds", Float(0.010, 9)),
                        ("on_seconds", Float(0.0102, 9)),
                        ("overhead", Float(0.02, 4)),
                        ("spans_per_iter", 12u64.into()),
                    ],
                    vec![
                        ("workload", "join".into()),
                        ("off_seconds", Float(0.020, 9)),
                        ("on_seconds", Float(0.0201, 9)),
                        ("overhead", Float(0.005, 4)),
                        ("spans_per_iter", 30u64.into()),
                    ],
                ],
                TELEMETRY,
            ),
            ("substrates_test", vec![], vec![substrate("disk", 0.5), cached], SUBSTRATES),
            (
                "parallel_test",
                vec![
                    ("shards", 8usize.into()),
                    ("rows_per_shard", 512u64.into()),
                    ("stall_nanos_nominal", 1_000_000u64.into()),
                    ("stall_nanos_measured", 1_110_000u64.into()),
                    ("available_parallelism", 1usize.into()),
                ],
                vec![
                    vec![
                        ("workers", 1usize.into()),
                        ("seconds", Float(0.016, 9)),
                        ("speedup", Float(1.0, 3)),
                        ("crossings", 16u64.into()),
                    ],
                    vec![
                        ("workers", 4usize.into()),
                        ("seconds", Float(0.004, 9)),
                        ("speedup", Float(4.0, 3)),
                        ("crossings", 16u64.into()),
                    ],
                ],
                PARALLEL,
            ),
            (
                "crypto_test",
                vec![("detected_backend", "avx2".into())],
                vec![
                    vec![
                        ("op", "seal".into()),
                        ("backend", "scalar".into()),
                        ("batch_blocks", 256usize.into()),
                        ("block_bytes", 1024usize.into()),
                        ("mib_s", Float(400.0, 3)),
                        ("speedup_vs_scalar", Float(1.0, 3)),
                    ],
                    vec![
                        ("op", "seal".into()),
                        ("backend", "avx2".into()),
                        ("batch_blocks", 256usize.into()),
                        ("block_bytes", 1024usize.into()),
                        ("mib_s", Float(1200.0, 3)),
                        ("speedup_vs_scalar", Float(3.0, 3)),
                    ],
                ],
                CRYPTO,
            ),
            (
                "txn_test",
                vec![("statements", 256u64.into())],
                vec![
                    vec![
                        ("mode", "per-statement".into()),
                        ("epoch_statements", 1u64.into()),
                        ("seconds", Float(0.8, 9)),
                        ("stmts_per_sec", Float(320.0, 3)),
                        ("speedup", Float(1.0, 3)),
                    ],
                    vec![
                        ("mode", "epoch/32".into()),
                        ("epoch_statements", 32u64.into()),
                        ("seconds", Float(0.1, 9)),
                        ("stmts_per_sec", Float(2560.0, 3)),
                        ("speedup", Float(8.0, 3)),
                    ],
                ],
                TXN,
            ),
            (
                "server_test",
                vec![
                    ("rows", 48u64.into()),
                    ("statements_per_session", 32u64.into()),
                    ("reads_per_write", 15u64.into()),
                    ("stall_nanos_nominal", 1_000_000u64.into()),
                    ("available_parallelism", 2usize.into()),
                ],
                vec![
                    vec![
                        ("sessions", 1usize.into()),
                        ("seconds", Float(0.5, 9)),
                        ("stmts_per_sec", Float(64.0, 3)),
                        ("speedup", Float(1.0, 3)),
                    ],
                    vec![
                        ("sessions", 4usize.into()),
                        ("seconds", Float(0.625, 9)),
                        ("stmts_per_sec", Float(204.8, 3)),
                        ("speedup", Float(3.2, 3)),
                    ],
                ],
                SERVER,
            ),
            (
                "planner",
                vec![],
                vec![
                    planner("host", "half-tiny-om", 2, "Hash", 1536.25),
                    planner("disk", "sparse-tiny-om", 32, "Small", 98765.43),
                ],
                PLANNER,
            ),
            (
                "escape_test",
                vec![],
                vec![vec![
                    ("name", "q\"b\\s\u{1}\n".into()),
                    ("blocks", 1usize.into()),
                    ("per_block_s", Float(1.0, 9)),
                    ("batched_s", Float(0.5, 9)),
                    ("speedup", Float(2.0, 3)),
                ]],
                ESCAPED,
            ),
        ];

        let dir = std::env::temp_dir().join(format!("oblidb-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, meta, rows, expected) in cases {
            let path = write_bench_json(&dir, name, &meta, &rows).unwrap();
            assert_eq!(path, dir.join(format!("BENCH_{name}.json")));
            assert_eq!(std::fs::read_to_string(&path).unwrap(), expected, "{name}");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn builds_and_renders() {
        let mut r = Report::new("Fig X", &["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        r.print();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut r = Report::new("Fig X", &["a", "b"]);
        r.row(&["1".into()]);
    }
}
