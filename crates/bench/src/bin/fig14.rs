//! Figure 14: join-algorithm grid — foreign-key joins across table sizes
//! and oblivious-memory budgets, for the Hash, Opaque, and 0-OM joins.
//!
//! Paper shape: hash wins when T2 is small or OM is plentiful; the
//! sort-merge (Opaque) join takes over as T2 grows with OM scarce; the
//! 0-OM join always trails the Opaque join (same algorithm, no
//! oblivious-memory quicksort) but speeds up with plain enclave scratch.
//! The planner must pick the measured-fastest of {Hash, Opaque} per cell.
//!
//! Note: on this substrate random and sequential block accesses cost the
//! same, so the hash→sort crossover needs a smaller OM than on the
//! paper's SGX testbed; the orderings within each column hold.

use oblidb_bench::report::Report;
use oblidb_bench::setup::{scale, Scale};
use oblidb_bench::timing::fmt_duration;
use oblidb_core::exec::{hash_join, sort_merge_join, SortMergeVariant};
use oblidb_core::plan::cost::{choose_join_costed, JoinShape};
use oblidb_core::planner::JoinAlgo;
use oblidb_core::table::FlatTable;
use oblidb_core::{CostProfile, DbConfig, Value};
use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{Host, OmBudget};
use oblidb_workloads::synthetic;
use std::time::{Duration, Instant};

fn load(host: &mut Host, rows: &[Vec<Value>], seed: u8) -> FlatTable {
    let schema = synthetic::schema(8);
    let encoded: Vec<Vec<u8>> = rows.iter().map(|r| schema.encode_row(r).unwrap()).collect();
    FlatTable::from_encoded_rows(host, AeadKey([seed; 32]), schema, &encoded, rows.len() as u64)
        .unwrap()
}

fn run_cell(n1: usize, n2: usize, om_rows: usize, algo: JoinAlgo) -> Duration {
    let mut host = Host::new();
    let (p, f) = synthetic::fk_join_tables(n1, n2, 3);
    let mut t1 = load(&mut host, &p, 1);
    let mut t2 = load(&mut host, &f, 2);
    let row_len = t1.row_len();
    let om = OmBudget::new(om_rows * row_len);
    let key = AeadKey([9u8; 32]);
    let start = Instant::now();
    let out = match algo {
        JoinAlgo::Hash => hash_join(&mut host, &om, &mut t1, 0, &mut t2, 0, key).unwrap(),
        JoinAlgo::Opaque => {
            sort_merge_join(&mut host, &om, &mut t1, 0, &mut t2, 0, key, SortMergeVariant::Opaque)
                .unwrap()
        }
        JoinAlgo::ZeroOm => {
            // Same *bytes* of plain enclave scratch as the OM column, in
            // union-row units (paper: the 0-OM join speeds up with enclave
            // memory "regardless of whether the memory is oblivious").
            let scratch_rows = (om_rows * row_len / (18 + row_len)).max(1);
            sort_merge_join(
                &mut host,
                &om,
                &mut t1,
                0,
                &mut t2,
                0,
                key,
                SortMergeVariant::ZeroOm { scratch_rows },
            )
            .unwrap()
        }
    };
    let elapsed = start.elapsed();
    assert_eq!(out.num_rows(), n2 as u64, "FK join must match every foreign row");
    elapsed
}

fn main() {
    let (t1_sizes, t2_sizes, om_rows): (Vec<usize>, Vec<usize>, Vec<usize>) = match scale() {
        Scale::Small => (vec![2_000, 5_000], vec![100, 1_000, 5_000, 10_000], vec![50, 500, 7_500]),
        Scale::Paper => {
            (vec![5_000, 10_000], vec![100, 1_000, 5_000, 10_000, 25_000], vec![500, 7_500])
        }
    };

    for &om in &om_rows {
        let mut report = Report::new(
            format!("Figure 14 — FK joins, {om} rows of oblivious memory"),
            &["T1", "T2", "Hash", "Opaque", "0-OM", "fastest", "planner pick"],
        );
        for &n1 in &t1_sizes {
            for &n2 in &t2_sizes {
                let hash_t = run_cell(n1, n2, om, JoinAlgo::Hash);
                let opaque_t = run_cell(n1, n2, om, JoinAlgo::Opaque);
                let zero_t = run_cell(n1, n2, om, JoinAlgo::ZeroOm);
                let fastest = [("Hash", hash_t), ("Opaque", opaque_t), ("0-OM", zero_t)]
                    .into_iter()
                    .min_by_key(|(_, t)| *t)
                    .unwrap()
                    .0;
                // What the engine's planner picks given this budget.
                let schema = synthetic::schema(8);
                let shape = JoinShape {
                    left_schema: schema.clone(),
                    left_capacity: n1 as u64,
                    right_schema: schema.clone(),
                    right_capacity: n2 as u64,
                    om_bytes: om * schema.row_len(),
                    zero_om_scratch_rows: DbConfig::default().zero_om_scratch_rows,
                };
                let (pick, _) = choose_join_costed(&shape, &CostProfile::host()).unwrap();
                report.row(&[
                    n1.to_string(),
                    n2.to_string(),
                    fmt_duration(hash_t),
                    fmt_duration(opaque_t),
                    fmt_duration(zero_t),
                    fastest.to_string(),
                    format!("{pick:?}"),
                ]);
            }
        }
        report.print();
    }
    println!(
        "\nPaper shape: more OM speeds every algorithm; Opaque ≥ 0-OM always;\n\
         hash is fastest for small T2 and loses ground as T2/OM grows. The\n\
         planner's pick should match the fastest of Hash/Opaque per row."
    );
}
