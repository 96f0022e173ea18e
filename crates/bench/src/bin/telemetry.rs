//! Telemetry overhead: the same query workloads with spans + metrics off
//! vs on, recorded as `BENCH_telemetry.json`.
//!
//! The disabled cost is one relaxed atomic load per instrumentation
//! site; the enabled cost is a monotonic clock read and a ring push per
//! span plus relaxed counter bumps — all in enclave memory, no host
//! crossings either way (the conformance suite asserts trace equality).
//! This binary quantifies the wall-clock side: spans-on must stay under
//! 5% of spans-off on every workload, and the assertion is enforced in
//! full mode (smoke runs are too short to time reliably but still
//! exercise the pipeline and emit the artifact).

use oblidb_bench::report::{write_bench_json, Field, Report, Row};
use oblidb_bench::timing::{fmt_duration, time_mean};
use oblidb_core::{Database, DbConfig};
use std::time::Duration;

fn smoke() -> bool {
    oblidb_bench::harness::smoke_mode()
}

fn iters() -> usize {
    if smoke() {
        2
    } else {
        15
    }
}

fn table_rows() -> u64 {
    if smoke() {
        64
    } else {
        1024
    }
}

/// A fresh engine with the benchmark tables loaded.
fn seeded() -> Database {
    let rows = table_rows();
    let mut db = Database::new(DbConfig::default());
    db.execute(&format!("CREATE TABLE t (k INT, v INT) CAPACITY {}", rows * 2)).unwrap();
    for i in 0..rows {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 3)).unwrap();
    }
    db.execute("CREATE TABLE d (g INT, label CHAR(8)) CAPACITY 16").unwrap();
    for g in 0..8 {
        db.execute(&format!("INSERT INTO d VALUES ({g}, 'g{g}')")).unwrap();
    }
    db
}

/// The measured workloads: one mid-selectivity select, one aggregate,
/// one join — the operator spectrum the spans instrument.
const WORKLOADS: &[(&str, &str)] = &[
    ("select_scan", "SELECT * FROM t WHERE k >= 16 AND k < 48"),
    ("aggregate", "SELECT COUNT(*), SUM(v) FROM t WHERE v < 300"),
    ("join", "SELECT * FROM d JOIN t ON d.g = t.k WHERE v < 18"),
];

/// One batch: mean seconds per run of `sql` on a prepared engine,
/// telemetry in whatever state the caller set. Draining the span ring
/// between runs makes the enabled case pay ring-overwrite costs honestly
/// rather than saturating and short-circuiting.
fn batch(db: &mut Database, sql: &str) -> f64 {
    time_mean(iters(), || {
        std::hint::black_box(db.execute(sql).unwrap());
        let _ = oblidb_telemetry::take_spans();
    })
    .as_secs_f64()
}

/// Cost floors for off and on, from *interleaved* batches: alternating
/// off/on exposes both phases to the same machine drift (thermal,
/// scheduler, allocator), and the per-phase min rejects the jitter —
/// the overhead compares floors, not means of unequal noise.
fn measure_pair(db_off: &mut Database, db_on: &mut Database, sql: &str) -> (f64, f64) {
    let batches = if smoke() { 1 } else { 5 };
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..batches {
        oblidb_telemetry::set_enabled(false);
        off = off.min(batch(db_off, sql));
        oblidb_telemetry::set_enabled(true);
        on = on.min(batch(db_on, sql));
    }
    oblidb_telemetry::set_enabled(false);
    (off, on)
}

fn main() {
    let mut report = Report::new(
        format!(
            "Telemetry overhead ({} rows, {} iters{})",
            table_rows(),
            iters(),
            if smoke() { ", smoke" } else { "" },
        ),
        &["workload", "off", "on", "overhead", "spans/iter"],
    );
    let mut rows: Vec<Row> = Vec::new();
    // (workload, overhead) for the acceptance bar below.
    let mut overheads: Vec<(&str, f64)> = Vec::new();

    for &(workload, sql) in WORKLOADS {
        // A fresh engine per phase so plan-cache state matches.
        oblidb_telemetry::set_enabled(false);
        let mut db_off = seeded();
        db_off.execute(sql).unwrap(); // warm
        let mut db_on = seeded();
        oblidb_telemetry::set_enabled(true);
        db_on.execute(sql).unwrap();
        let _ = oblidb_telemetry::take_spans();
        db_on.execute(sql).unwrap();
        let spans_per_iter = oblidb_telemetry::take_spans().len() as u64;

        let (off_seconds, on_seconds) = measure_pair(&mut db_off, &mut db_on, sql);
        // As a fraction: 0.03 = 3%.
        let overhead = on_seconds / off_seconds - 1.0;
        report.row(&[
            workload.to_string(),
            fmt_duration(Duration::from_secs_f64(off_seconds)),
            fmt_duration(Duration::from_secs_f64(on_seconds)),
            format!("{:+.1}%", overhead * 100.0),
            spans_per_iter.to_string(),
        ]);
        rows.push(vec![
            ("workload", workload.into()),
            ("off_seconds", Field::Float(off_seconds, 9)),
            ("on_seconds", Field::Float(on_seconds, 9)),
            ("overhead", Field::Float(overhead, 4)),
            ("spans_per_iter", spans_per_iter.into()),
        ]);
        overheads.push((workload, overhead));
    }
    report.print();

    let path = write_bench_json(
        std::path::Path::new("."),
        "telemetry",
        &[("iters", iters().into())],
        &rows,
    )
    .expect("write BENCH_telemetry.json");
    println!("\nwrote {}", path.display());

    // The acceptance bar: spans-on stays under 5% of spans-off. Smoke
    // iterations are far below timer noise, so the bar is only enforced
    // on full runs.
    if !smoke() {
        for (workload, overhead) in overheads {
            assert!(
                overhead < 0.05,
                "{workload}: telemetry-on overhead {:.1}% exceeds the 5% budget",
                overhead * 100.0
            );
        }
        println!("all workloads under the 5% spans-on budget");
    }
}
