//! Serving-throughput scaling: N concurrent TCP connections (one
//! engine session each) driving a read-heavy statement mix against one
//! `oblidb-server` under SGX-priced crossings, recorded as
//! `BENCH_server.json`.
//!
//! The mechanism under test is the shared-database concurrency split:
//! snapshot selects fork off the shared store and pay their crossing
//! stalls *outside* the store lock, so N sessions' stalls overlap —
//! while the occasional insert serializes on the master under the
//! write latch, exactly like a single-owner engine. With stalls
//! dominating statement latency (1 ms per crossing, the paper-era
//! OCALL round-trip), read-heavy throughput should scale near-linearly
//! until the machine runs out of cores.
//!
//! Each sweep point gets a fresh engine and server so table growth from
//! earlier points cannot tilt the comparison; every client runs the
//! same per-session statement budget and the row reports aggregate
//! statements per wall second.

use std::time::Instant;

use oblidb_bench::report::{write_bench_json, Field, Report, Row};
use oblidb_core::{DbConfig, SharedDatabase};
use oblidb_enclave::{CrossingCost, Host};
use oblidb_server::client::{Connection, StatementResult};
use oblidb_server::server::{serve, ServerConfig};

/// OCALL round-trip stall per crossing (see `parallel.rs`).
const STALL_NANOS: u64 = 1_000_000;

/// Selects per insert in each client's mix.
const READS_PER_WRITE: u64 = 15;

fn smoke() -> bool {
    oblidb_bench::harness::smoke_mode()
}

fn table_rows() -> u64 {
    if smoke() {
        48
    } else {
        256
    }
}

fn statements_per_session() -> u64 {
    if smoke() {
        32
    } else {
        128
    }
}

fn session_counts() -> Vec<usize> {
    if smoke() {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 16, 32]
    }
}

/// Builds a fresh served engine: flat table, unpriced bulk load, then
/// SGX-priced crossings at the shared layer.
fn start_point(sessions: usize) -> (oblidb_server::server::ServerHandle, String) {
    let config = DbConfig { seed: 7, ..DbConfig::default() };
    let db = SharedDatabase::new(Host::new(), config).expect("engine");
    let mut setup = db.session();
    setup.execute("CREATE TABLE t (k INT, v INT) STORAGE = FLAT CAPACITY 8192").expect("create");
    for k in 0..table_rows() as i64 {
        setup.execute(&format!("INSERT INTO t VALUES ({k}, {})", (k * 7) % 1000)).expect("load");
    }
    db.store().set_crossing_cost(CrossingCost { spins: 0, stall_nanos: STALL_NANOS });
    let handle =
        serve(db, ServerConfig { addr: "127.0.0.1:0".to_string(), workers: sessions, epoch: None })
            .expect("serve");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// One client's budget: cycling cache-friendly selects with one insert
/// per [`READS_PER_WRITE`] reads, at client-unique keys.
fn drive_client(addr: &str, client: usize, statements: u64) {
    let mut conn = Connection::connect(addr).expect("connect");
    let selects = [
        "SELECT v FROM t WHERE k = 11",
        "SELECT v FROM t WHERE k < 8",
        "SELECT COUNT(*) FROM t",
        "SELECT v FROM t WHERE v > 900",
    ];
    let mut inserted = 0u64;
    for i in 0..statements {
        if i % (READS_PER_WRITE + 1) == READS_PER_WRITE {
            let k = 1_000_000 + client as u64 * 10_000 + inserted;
            inserted += 1;
            match conn.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).expect("insert") {
                StatementResult::RowsAffected(1) => {}
                other => panic!("unexpected insert result: {other:?}"),
            }
        } else {
            match conn.execute(selects[(i % READS_PER_WRITE) as usize % selects.len()]) {
                Ok(StatementResult::Rows { .. }) => {}
                other => panic!("unexpected select result: {other:?}"),
            }
        }
    }
}

fn main() {
    let statements = statements_per_session();
    let mut rows: Vec<Row> = Vec::new();
    let mut base_stmts_per_sec = None;
    let mut report = Report::new(
        "Serving throughput vs concurrent sessions (read-heavy, 1 ms crossings)",
        &["sessions", "seconds", "stmts/s", "speedup"],
    );
    for sessions in session_counts() {
        let (handle, addr) = start_point(sessions);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for client in 0..sessions {
                let addr = addr.clone();
                scope.spawn(move || drive_client(&addr, client, statements));
            }
        });
        let seconds = started.elapsed().as_secs_f64();
        handle.shutdown();
        let stmts_per_sec = (sessions as u64 * statements) as f64 / seconds;
        let speedup = stmts_per_sec / *base_stmts_per_sec.get_or_insert(stmts_per_sec);
        report.row(&[
            sessions.to_string(),
            format!("{seconds:.3}"),
            format!("{stmts_per_sec:.1}"),
            format!("{speedup:.2}"),
        ]);
        rows.push(vec![
            ("sessions", sessions.into()),
            ("seconds", Field::Float(seconds, 9)),
            ("stmts_per_sec", Field::Float(stmts_per_sec, 3)),
            ("speedup", Field::Float(speedup, 3)),
        ]);
    }
    report.print();
    // The fixed experimental conditions; the stall is paid at the
    // shared-store layer, outside the store lock.
    let meta = [
        ("rows", table_rows().into()),
        ("statements_per_session", statements.into()),
        ("reads_per_write", READS_PER_WRITE.into()),
        ("stall_nanos_nominal", STALL_NANOS.into()),
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()).into(),
        ),
    ];
    let path = write_bench_json(std::path::Path::new("."), "server", &meta, &rows)
        .expect("write BENCH_server.json");
    println!("\nwrote {}", path.display());
}
