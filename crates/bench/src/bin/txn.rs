//! Group commit: write-heavy throughput on a disk store under the
//! per-statement-fsync discipline vs epoch group commit at several epoch
//! sizes, recorded as `BENCH_txn.json`.
//!
//! The baseline logs every mutation as a standalone durable record — one
//! `sync_region` (data fsync + region-table rewrite) per statement. The
//! epoch rows pool the same statements into open epochs that the
//! transaction manager seals every k statements: one commit marker and
//! one group fsync amortized over the whole window, exactly what
//! `oblidb-serve --epoch-ms` buys a write-heavy client. The acceptance
//! bar — group commit at least 3× the baseline — is enforced on full
//! runs (smoke runs still exercise the pipeline and emit the artifact).

use oblidb_bench::report::{write_bench_json, Field, Report, Row};
use oblidb_bench::timing::fmt_duration;
use oblidb_core::{DbConfig, EpochConfig, SharedDatabase, WalConfig};
use oblidb_substrates::DiskMemory;
use oblidb_txn::TxnManager;
use std::time::{Duration, Instant};

fn smoke() -> bool {
    oblidb_bench::harness::smoke_mode()
}

/// Mutations per measured run. Small even in full mode: the baseline
/// pays a real fsync per statement.
fn statements() -> u64 {
    if smoke() {
        48
    } else {
        384
    }
}

/// Epoch sizes swept (statements per group fsync).
const EPOCH_SIZES: &[usize] = &[8, 32, 128];

/// Runs the write-heavy stream — 3 inserts : 1 update — through a
/// transaction-manager session over a fresh disk store, and returns the
/// wall seconds for the stream plus the final flush. `epoch_cap` of
/// `None` is the per-statement-fsync baseline.
fn run(epoch_cap: Option<usize>) -> f64 {
    let epoch = epoch_cap.map(|k| EpochConfig { duration_ms: 3_600_000, max_statements: k });
    let config = DbConfig { wal: Some(WalConfig::default()), epoch, ..DbConfig::default() };
    let store = DiskMemory::temp().expect("temp disk store");
    let shared = SharedDatabase::new(store, config.clone()).expect("shared engine");
    let mgr = TxnManager::new(shared, config.epoch);
    let mut session = mgr.session();
    session
        .execute(&format!("CREATE TABLE t (k INT, v INT) CAPACITY {}", statements() * 2))
        .unwrap();
    let start = Instant::now();
    for i in 0..statements() {
        if i % 4 == 3 {
            session.execute(&format!("UPDATE t SET v = -1 WHERE k = {}", i / 2)).unwrap();
        } else {
            session.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
        }
    }
    mgr.flush().unwrap();
    start.elapsed().as_secs_f64()
}

fn main() {
    let n = statements();
    let base_seconds = run(None);
    // (mode, statements per group fsync, wall seconds); the
    // per-statement baseline comes first.
    let mut results = vec![("per-statement".to_string(), 1u64, base_seconds)];
    for &k in EPOCH_SIZES {
        results.push((format!("epoch/{k}"), k as u64, run(Some(k))));
    }
    let speedup = |seconds: f64| base_seconds / seconds.max(f64::MIN_POSITIVE);

    let mut report = Report::new(
        format!(
            "Group commit vs per-statement fsync ({n} statements, disk{})",
            if smoke() { ", smoke" } else { "" },
        ),
        &["mode", "wall", "stmts/s", "speedup"],
    );
    let mut rows: Vec<Row> = Vec::new();
    for (mode, epoch_statements, seconds) in &results {
        let stmts_per_sec = n as f64 / seconds;
        report.row(&[
            mode.clone(),
            fmt_duration(Duration::from_secs_f64(*seconds)),
            format!("{stmts_per_sec:.0}"),
            format!("{:.2}x", speedup(*seconds)),
        ]);
        rows.push(vec![
            ("mode", mode.as_str().into()),
            ("epoch_statements", (*epoch_statements).into()),
            ("seconds", Field::Float(*seconds, 9)),
            ("stmts_per_sec", Field::Float(stmts_per_sec, 3)),
            ("speedup", Field::Float(speedup(*seconds), 3)),
        ]);
    }
    report.print();

    let path =
        write_bench_json(std::path::Path::new("."), "txn", &[("statements", n.into())], &rows)
            .expect("write BENCH_txn.json");
    println!("\nwrote {}", path.display());

    // The acceptance bar: some epoch size reaches 3× the per-statement
    // baseline. Smoke runs are too short to time reliably.
    if !smoke() {
        let best = results[1..].iter().map(|r| speedup(r.2)).fold(0.0, f64::max);
        assert!(best >= 3.0, "group commit best speedup {best:.2}x is under the 3x acceptance bar");
        println!("group commit clears the 3x bar (best {best:.2}x)");
    }
}
