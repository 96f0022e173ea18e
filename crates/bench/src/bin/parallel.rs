//! Worker-per-shard parallel scan scaling: the same sharded table scan
//! at 1/2/4/8 workers under SGX-priced crossings, recorded as
//! `BENCH_parallel.json`.
//!
//! Each of the 8 shards holds one partition of the table as its own
//! [`FlatTable`]; a scan hands every worker exclusive access to whole
//! shards via [`ShardedMemory::for_each_shard`], so each shard sees
//! exactly the serial access sequence whatever the worker count — the
//! conformance suite asserts that trace equality; this binary measures
//! what the concurrency buys.
//!
//! Crossing pricing: real SGX enclave exits are *stalls* — the enclave
//! thread does nothing while the untrusted host services the OCALL — so
//! each crossing sleeps [`STALL_NANOS`] rather than spinning. Stalls
//! overlap across workers even on a single hardware thread (the artifact
//! records `available_parallelism` so single-core runs read honestly);
//! the AEAD CPU under the stalls is what does not parallelize on one
//! core, which is exactly the Amdahl split the planner's
//! `CostProfile::with_threads` models.

use oblidb_bench::report::{write_bench_json, Field, Report, Row};
use oblidb_bench::timing::{fmt_duration, time_mean};
use oblidb_core::table::FlatTable;
use oblidb_core::{Column, DataType, Schema, Value};
use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{CrossingCost, EnclaveMemory, Host, ThreadPool};
use oblidb_substrates::ShardedMemory;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// OCALL round-trip stall per crossing. ~1 ms is the paper-era cost of
/// an enclave exit that performs real untrusted work (positioned I/O,
/// syscall, return); large enough to dominate the per-batch AEAD CPU.
const STALL_NANOS: u64 = 1_000_000;

/// Shards = the maximum worker count measured.
const SHARDS: usize = 8;

fn smoke() -> bool {
    oblidb_bench::harness::smoke_mode()
}

fn rows_per_shard() -> u64 {
    if smoke() {
        256
    } else {
        1024
    }
}

fn iters() -> usize {
    if smoke() {
        2
    } else {
        5
    }
}

/// Bulk-loads one table partition per shard (serially, unpriced) and
/// then prices every shard's crossings as stalls.
fn setup(mem: &mut ShardedMemory<Host>) -> Vec<Mutex<FlatTable>> {
    let rows = rows_per_shard();
    let serial = ThreadPool::serial();
    let tables = mem.for_each_shard(&serial, |i, shard| {
        let schema =
            Schema::new(vec![Column::new("k", DataType::Int), Column::new("v", DataType::Int)]);
        let encoded: Vec<Vec<u8>> = (0..rows as i64)
            .map(|r| {
                let k = i as i64 * rows as i64 + r;
                schema.encode_row(&[Value::Int(k), Value::Int((k * 7) % 1000)]).unwrap()
            })
            .collect();
        let mut key = [0u8; 32];
        key[0] = i as u8 + 1;
        Mutex::new(
            FlatTable::from_encoded_rows(shard, AeadKey(key), schema, &encoded, rows).unwrap(),
        )
    });
    mem.set_crossing_cost(CrossingCost { spins: 0, stall_nanos: STALL_NANOS });
    mem.reset_stats();
    tables
}

/// One full scan of every shard: each worker drains whole shards,
/// reading in the table's batched chunks and folding a checksum so the
/// reads cannot be optimized away. The per-shard access sequence is
/// independent of `pool`.
fn scan(mem: &mut ShardedMemory<Host>, tables: &[Mutex<FlatTable>], pool: &ThreadPool) -> u64 {
    let sums = mem.for_each_shard(pool, |i, shard| {
        let mut table = tables[i].lock().expect("one worker per shard");
        let row_len = table.schema().row_len();
        let cap = table.capacity();
        let chunk = table.io_chunk_rows();
        let mut acc = 0u64;
        let mut start = 0u64;
        while start < cap {
            let n = chunk.min((cap - start) as usize);
            let data = table.read_rows(shard, start, n).unwrap();
            for row in data.chunks_exact(row_len) {
                acc = acc.wrapping_add(u64::from(row[1])).wrapping_add(u64::from(row[9]));
            }
            start += n as u64;
        }
        acc
    });
    sums.into_iter().fold(0u64, u64::wrapping_add)
}

/// Measures the sleep a nominal stall actually costs on this machine
/// (timer granularity inflates short sleeps).
fn measured_stall() -> u64 {
    const PROBES: u32 = 16;
    let start = Instant::now();
    for _ in 0..PROBES {
        std::thread::sleep(Duration::from_nanos(STALL_NANOS));
    }
    (start.elapsed() / PROBES).as_nanos() as u64
}

fn main() {
    let mut mem = ShardedMemory::from_fn(SHARDS, |_| Host::new());
    let tables = setup(&mut mem);

    let reference = scan(&mut mem, &tables, &ThreadPool::serial());
    let crossings_per_scan: u64 = (0..SHARDS).map(|s| mem.shard_stats(s).crossings).sum();

    // (workers, mean seconds per scan); the serial row comes first.
    let mut results: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(workers);
        // Warm outside the timing; every run must agree with the serial
        // checksum — a wrong parallel result would make speedup moot.
        assert_eq!(scan(&mut mem, &tables, &pool), reference, "{workers} workers");
        let mean = time_mean(iters(), || {
            std::hint::black_box(scan(&mut mem, &tables, &pool));
        });
        results.push((workers, mean.as_secs_f64()));
    }
    let serial_seconds = results[0].1;

    let stall_nanos_measured = measured_stall();
    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The fixed experimental conditions, recorded so a reader can judge
    // the numbers: the speedup comes from overlapping per-crossing
    // *stalls*, which parallelize even when `available_parallelism` is 1.
    let meta = [
        ("shards", SHARDS.into()),
        ("rows_per_shard", rows_per_shard().into()),
        ("stall_nanos_nominal", STALL_NANOS.into()),
        ("stall_nanos_measured", stall_nanos_measured.into()),
        ("available_parallelism", available_parallelism.into()),
    ];

    let mut report = Report::new(
        format!(
            "Worker-per-shard scan scaling ({SHARDS} shards x {} rows, {} stall per crossing)",
            rows_per_shard(),
            fmt_duration(Duration::from_nanos(STALL_NANOS)),
        ),
        &["workers", "mean", "speedup", "crossings"],
    );
    let mut rows: Vec<Row> = Vec::new();
    for &(workers, seconds) in &results {
        let speedup = serial_seconds / seconds;
        report.row(&[
            workers.to_string(),
            fmt_duration(Duration::from_secs_f64(seconds)),
            format!("{speedup:.2}x"),
            crossings_per_scan.to_string(),
        ]);
        rows.push(vec![
            ("workers", workers.into()),
            ("seconds", Field::Float(seconds, 9)),
            ("speedup", Field::Float(speedup, 3)),
            ("crossings", crossings_per_scan.into()),
        ]);
    }
    report.print();
    println!(
        "measured stall {} (nominal {}), available_parallelism {}",
        fmt_duration(Duration::from_nanos(stall_nanos_measured)),
        fmt_duration(Duration::from_nanos(STALL_NANOS)),
        available_parallelism,
    );
    if let Some(&(_, seconds)) = results.iter().find(|r| r.0 == 4) {
        let speedup = serial_seconds / seconds;
        if speedup < 3.0 {
            eprintln!("warning: {speedup:.2}x at 4 workers (target >= 3x)");
        }
    }

    let path = write_bench_json(std::path::Path::new("."), "parallel", &meta, &rows)
        .expect("write BENCH_parallel.json");
    println!("\nwrote {}", path.display());
}
