//! Substrate comparison: the same engine workloads over in-RAM, disk,
//! cached-disk, and sharded backends, recorded for the perf trajectory.
//!
//! Runs scan-, select-, and ORAM-shaped workloads through the full
//! engine over each [`SubstrateSpec`] and emits `BENCH_substrates.json`
//! (one row per substrate × workload: wall-clock + the uniform
//! [`oblidb_enclave::StatsReport`] counters + backing crossings for
//! cached substrates).
//! The logical counters are identical across substrates by construction —
//! that is the conformance property — so the interesting columns are
//! seconds and, for the cache, how much backing traffic was absorbed.

use oblidb_bench::report::{write_bench_json, Field, Report, Row};
use oblidb_bench::timing::{fmt_duration, time_mean};
use oblidb_core::{Database, DbConfig, StorageMethod, Value};
use oblidb_enclave::{CrossingCost, EnclaveMemory, StatsReport};
use oblidb_substrates::{CachedMemory, DiskMemory, SubstrateSpec};
use std::time::Duration;

/// Same SGX-transition model as `batch_io`: ~8k cycles per crossing.
const SGX_CROSSING_SPINS: u32 = 250;

fn smoke() -> bool {
    oblidb_bench::harness::smoke_mode()
}

fn rows() -> i64 {
    if smoke() {
        128
    } else {
        2048
    }
}

fn iters() -> usize {
    if smoke() {
        1
    } else {
        5
    }
}

fn specs() -> Vec<SubstrateSpec> {
    // Sized for the hot set (flat table + ORAM buckets): the cache's
    // intended operating point. The conformance suite covers the
    // larger-than-cache regime; the ROADMAP notes the follow-up that
    // would soften it here (coalescing batched misses).
    let cache = rows() as usize * 2;
    vec![
        SubstrateSpec::Host,
        SubstrateSpec::Disk { dir: None },
        SubstrateSpec::CachedDisk { dir: None, capacity_blocks: cache },
        SubstrateSpec::ShardedHost { shards: 4 },
        SubstrateSpec::ShardedDisk { dir: None, shards: 4 },
    ]
}

/// Builds the experiment database: a flat fact table and an ORAM-indexed
/// point-lookup table, bulk-loaded.
fn setup<M: EnclaveMemory>(substrate: M) -> Database<M> {
    let n = rows();
    let mut db = Database::with_memory(substrate, DbConfig::default());
    let schema = oblidb_core::Schema::new(vec![
        oblidb_core::Column::new("k", oblidb_core::DataType::Int),
        oblidb_core::Column::new("v", oblidb_core::DataType::Int),
    ]);
    let data: Vec<Vec<Value>> =
        (0..n).map(|i| vec![Value::Int(i), Value::Int((i * 7) % 1000)]).collect();
    db.create_table_with_rows("t", schema.clone(), StorageMethod::Flat, None, &data, n as u64)
        .unwrap();
    let idx_n = n / 8;
    let idx_data: Vec<Vec<Value>> =
        (0..idx_n).map(|i| vec![Value::Int(i), Value::Int(i * 3)]).collect();
    db.create_table_with_rows(
        "idx",
        schema,
        StorageMethod::Indexed,
        Some("k"),
        &idx_data,
        idx_n as u64,
    )
    .unwrap();
    db
}

/// One workload measurement: wall-clock, the substrate's counters, and
/// the inner-substrate crossings after cache absorption (`None` when the
/// substrate has no cache layer).
type Measurement = (f64, StatsReport, Option<u64>);

/// Times `iters()` runs, then captures the counters of exactly one
/// further run, so the JSON row pairs mean-per-iteration seconds with
/// per-iteration counters whatever the iteration count (smoke and full
/// artifacts stay comparable). `backing` reads the cache's inner-substrate
/// crossings, for stacks that have a cache layer.
fn measure<M: EnclaveMemory>(
    db: &mut Database<M>,
    label: &str,
    backing: impl Fn(&M) -> Option<u64>,
    mut f: impl FnMut(&mut Database<M>),
) -> Measurement {
    // Warm once (page cache, allocator, ORAM stash) outside the timing.
    f(db);
    let mean = time_mean(iters(), || f(db));
    db.host_mut().reset_stats();
    let backing_before = backing(db.host_mut());
    f(db);
    let m = db.host_mut();
    let backing = backing(m).map(|b| b - backing_before.unwrap_or(0));
    (mean.as_secs_f64(), m.stats().report(label), backing)
}

/// Prices the boundary, loads the experiment tables over `substrate`, and
/// records the scan, select and ORAM point workloads.
fn run<M: EnclaveMemory>(
    mut substrate: M,
    label: &str,
    backing: impl Fn(&M) -> Option<u64>,
    record: &mut impl FnMut(&str, Measurement),
) -> Database<M> {
    let n = rows();
    substrate.set_crossing_cost(CrossingCost { spins: SGX_CROSSING_SPINS, stall_nanos: 0 });
    let mut db = setup(substrate);
    record(
        "scan",
        measure(&mut db, label, &backing, |db| {
            let out = db.execute("SELECT COUNT(*), SUM(v) FROM t WHERE k >= 0").unwrap();
            std::hint::black_box(out.rows()[0][0].as_int());
        }),
    );
    record(
        "select",
        measure(&mut db, label, &backing, |db| {
            let out = db.execute(&format!("SELECT * FROM t WHERE k < {}", n / 8)).unwrap();
            std::hint::black_box(out.len());
        }),
    );
    record(
        "oram_point",
        measure(&mut db, label, &backing, |db| {
            for probe in [1i64, n / 16, n / 8 - 1] {
                let out = db.execute(&format!("SELECT * FROM idx WHERE k = {probe}")).unwrap();
                std::hint::black_box(out.len());
            }
        }),
    );
    db
}

fn main() {
    let n = rows();
    let mut report = Report::new(
        format!("Engine workloads across substrates ({n} rows, SGX-priced crossings)"),
        &["substrate", "workload", "mean", "crossings", "backing-crossings"],
    );
    let mut rows: Vec<Row> = Vec::new();
    let mut record = |workload: &str, (seconds, stats, backing): Measurement| {
        let s = stats.stats;
        report.row(&[
            stats.name.clone(),
            workload.to_string(),
            fmt_duration(Duration::from_secs_f64(seconds)),
            s.crossings.to_string(),
            backing.map_or_else(|| "-".into(), |b| b.to_string()),
        ]);
        let mut row: Row = vec![
            ("substrate", stats.name.into()),
            ("workload", workload.into()),
            ("seconds", Field::Float(seconds, 9)),
            ("reads", s.reads.into()),
            ("writes", s.writes.into()),
            ("bytes_read", s.bytes_read.into()),
            ("bytes_written", s.bytes_written.into()),
            ("crossings", s.crossings.into()),
            ("stall_nanos", s.stall_nanos.into()),
        ];
        if let Some(b) = backing {
            row.push(("backing_crossings", b.into()));
        }
        rows.push(row);
    };
    let mut cache_notes: Vec<String> = Vec::new();

    for spec in specs() {
        let label = spec.profile_name();
        // The cached stack runs concretely, so its cache and backing
        // counters stay readable.
        if let SubstrateSpec::CachedDisk { dir: None, capacity_blocks } = spec {
            let cached =
                CachedMemory::new(DiskMemory::temp().expect("disk builds"), capacity_blocks);
            let backing = |m: &CachedMemory<DiskMemory>| Some(m.inner().stats().crossings);
            let mut db = run(cached, label, backing, &mut record);
            let cs = db.host_mut().cache_stats();
            cache_notes.push(format!(
                "{label}: cache hit rate {:.1}% ({} hits / {} misses, {} evictions)",
                cs.hit_rate() * 100.0,
                cs.hits,
                cs.misses,
                cs.evictions
            ));
        } else {
            run(spec.build().expect("substrate builds"), label, |_| None, &mut record);
        }
    }

    report.print();
    for note in &cache_notes {
        println!("{note}");
    }

    let path = write_bench_json(std::path::Path::new("."), "substrates", &[], &rows)
        .expect("write BENCH_substrates.json");
    println!("\nwrote {}", path.display());
}
