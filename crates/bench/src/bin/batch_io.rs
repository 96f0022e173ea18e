//! Batched vs. per-block sealed I/O, recorded for the perf trajectory.
//!
//! Measures the full enclave-boundary cost (AEAD + crossing) of moving a
//! run of sealed blocks one block at a time versus in batched calls, at
//! the block geometries the engine actually uses (row blocks, ORAM
//! buckets, 4 KB vORAM nodes), plus an end-to-end operator scan. Emits
//! `BENCH_batch_io.json` next to the working directory so successive PRs
//! can diff the speedup.

use oblidb_bench::report::{write_bench_json, Field, Report, Row};
use oblidb_bench::timing::{fmt_duration, time_mean};
use oblidb_core::predicate::Predicate;
use oblidb_core::table::FlatTable;
use oblidb_core::types::{Column, DataType, Schema, Value};
use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{CrossingCost, EnclaveMemory, Host};
use oblidb_storage::SealedRegion;
use std::time::Duration;

fn iters() -> usize {
    if oblidb_bench::harness::smoke_mode() {
        1
    } else {
        30
    }
}

/// Spin count modeling one SGX enclave transition: ~8k cycles / ~2.7 µs
/// (Intel's published OCALL cost), at the ~11 ns-per-`spin_loop` rate
/// measured on the reference container. `0` prices the boundary at zero,
/// isolating pure AEAD/copy costs.
const SGX_CROSSING_SPINS: u32 = 250;

/// One case's label, blocks moved per measured operation, and mean
/// per-block-loop and batched durations.
type Case = (String, usize, Duration, Duration);

/// Per-block vs. batched read+write of `blocks` sealed blocks over a host
/// whose boundary transitions cost `spins` spin iterations each.
fn storage_case(name: &str, blocks: usize, payload: usize, spins: u32) -> Case {
    let mut host = Host::new();
    host.set_crossing_cost(CrossingCost { spins, stall_nanos: 0 });
    let mut region = SealedRegion::create(&mut host, AeadKey([7u8; 32]), blocks, payload).unwrap();
    let payloads = vec![0xA5u8; blocks * payload];

    let per_block = time_mean(iters(), || {
        for i in 0..blocks {
            region.write(&mut host, i as u64, &payloads[i * payload..(i + 1) * payload]).unwrap();
        }
        for i in 0..blocks {
            std::hint::black_box(region.read(&mut host, i as u64).unwrap());
        }
    });
    let batched = time_mean(iters(), || {
        region.write_batch(&mut host, 0, &payloads).unwrap();
        std::hint::black_box(region.read_batch(&mut host, 0, blocks).unwrap());
    });
    (name.to_string(), blocks, per_block, batched)
}

/// End-to-end operator check: a full oblivious table scan (aggregate)
/// before/after is not separable here, so compare the raw row loop the
/// pre-batching operators used against the batched streaming the current
/// ones use.
fn scan_case(rows: usize, spins: u32) -> Case {
    let schema =
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]);
    let mut host = Host::new();
    host.set_crossing_cost(CrossingCost { spins, stall_nanos: 0 });
    let encoded: Vec<Vec<u8>> = (0..rows as i64)
        .map(|i| schema.encode_row(&[Value::Int(i), Value::Int(i * 3)]).unwrap())
        .collect();
    let mut table =
        FlatTable::from_encoded_rows(&mut host, AeadKey([1u8; 32]), schema, &encoded, rows as u64)
            .unwrap();
    let pred = Predicate::True;

    let per_block = time_mean(iters(), || {
        let mut n = 0u64;
        for i in 0..table.capacity() {
            let bytes = table.read_row(&mut host, i).unwrap();
            if oblidb_core::types::Schema::row_used(&bytes) && pred.eval(table.schema(), &bytes) {
                n += 1;
            }
        }
        std::hint::black_box(n);
    });
    let batched = time_mean(iters(), || {
        let mut n = 0u64;
        let schema = table.schema().clone();
        table
            .for_each_row(&mut host, |_, bytes| {
                if oblidb_core::types::Schema::row_used(bytes) && pred.eval(&schema, bytes) {
                    n += 1;
                }
            })
            .unwrap();
        std::hint::black_box(n);
    });
    let name = format!(
        "table_scan/{rows}rows/{}",
        if spins == 0 { "free-crossing" } else { "sgx-crossing" }
    );
    (name, rows, per_block, batched)
}

fn main() {
    let cases = vec![
        storage_case("rw/64B/free-crossing", 1024, 64, 0),
        storage_case("rw/256B/free-crossing", 1024, 256, 0),
        storage_case("rw/64B/sgx-crossing", 1024, 64, SGX_CROSSING_SPINS),
        storage_case("rw/256B/sgx-crossing", 1024, 256, SGX_CROSSING_SPINS),
        storage_case("rw/4096B/sgx-crossing", 256, 4096, SGX_CROSSING_SPINS),
        scan_case(4096, 0),
        scan_case(4096, SGX_CROSSING_SPINS),
    ];

    let mut report = Report::new(
        "Batched sealed-block I/O (per-block loop vs batched crossings)",
        &["case", "blocks", "per-block", "batched", "speedup"],
    );
    let mut rows: Vec<Row> = Vec::new();
    for (name, blocks, per_block, batched) in cases {
        let (per_block_s, batched_s) = (per_block.as_secs_f64(), batched.as_secs_f64());
        let speedup = per_block_s / batched_s.max(f64::MIN_POSITIVE);
        report.row(&[
            name.clone(),
            blocks.to_string(),
            fmt_duration(per_block),
            fmt_duration(batched),
            format!("{speedup:.2}x"),
        ]);
        rows.push(vec![
            ("name", name.into()),
            ("blocks", blocks.into()),
            ("per_block_s", Field::Float(per_block_s, 9)),
            ("batched_s", Field::Float(batched_s, 9)),
            ("speedup", Field::Float(speedup, 3)),
        ]);
    }
    report.print();

    let path = write_bench_json(std::path::Path::new("."), "batch_io", &[], &rows)
        .expect("write BENCH_batch_io.json");
    println!("\nwrote {}", path.display());
}
