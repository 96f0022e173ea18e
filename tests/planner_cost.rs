//! Planner-parity properties for the cost-calibrated, CountingMemory-
//! driven planner:
//!
//! 1. **Estimate exactness** — `explain()`'s estimated block counts (a
//!    `CountingMemory` dry run) equal the measured actuals for *every*
//!    SELECT algorithm, forced one at a time.
//! 2. **Never worse than any admissible candidate** — across randomized
//!    shapes, the cost-based choice's measured weighted cost never exceeds
//!    that of any operator the planner could have picked, forced in its
//!    place, on `Host`.
//! 3. **Substrate-calibrated divergence** (acceptance) — the same query
//!    picks a different, and cheaper-by-weighted-crossings, operator under
//!    the disk profile than under the host profile; and the conformance
//!    property (byte-identical results + traces across substrates) holds
//!    through the prepare/execute path when the profiles agree.
//! 4. **Trace pin** — default-config operator choices and access-trace
//!    hashes are fixed constants, so a planner change that alters what the
//!    adversary observes cannot pass unnoticed.

use oblidb::core::audit::trace_hash;
use oblidb::core::plan::{PlanNode, SelectChoice};
use oblidb::core::{
    Column, CostProfile, DataType, Database, DbConfig, Schema, SelectAlgo, StorageMethod, Value,
};
use oblidb::enclave::EnclaveRng;
use oblidb::workloads::bdb;

fn filter_of(root: &PlanNode) -> &oblidb::core::plan::FilterNode {
    root.find_filter().expect("plan has a filter stage")
}

fn build_db(config: DbConfig, rows: u64, modulus: i64) -> Database {
    let mut db = Database::new(config);
    db.execute(&format!("CREATE TABLE t (id INT, v INT) CAPACITY {rows}")).unwrap();
    for i in 0..rows as i64 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % modulus)).unwrap();
    }
    db
}

/// 1. Estimated block counts match `CountingMemory` actuals for every
///    SELECT algorithm — the dry run is exact, not approximate.
#[test]
fn estimates_match_actuals_for_every_select_algorithm() {
    for algo in [
        SelectAlgo::Small,
        SelectAlgo::Large,
        SelectAlgo::Continuous,
        SelectAlgo::Hash,
        SelectAlgo::Naive,
        SelectAlgo::Padded,
    ] {
        let mut config = DbConfig { om_bytes: 2048, ..DbConfig::default() };
        config.planner.force_select = Some(algo);
        let mut db = build_db(config, 96, 96);
        // Contiguous range so Continuous is valid too.
        let mut stmt = db.prepare("SELECT * FROM t WHERE id >= 16 AND id < 48").unwrap();
        let est = filter_of(stmt.plan().select_root().unwrap())
            .est
            .unwrap_or_else(|| panic!("{algo:?}: forced choice must still be costed"));
        let out = stmt.run().unwrap();
        assert_eq!(out.len(), 32, "{algo:?}");
        let actual = filter_of(stmt.plan().select_root().unwrap()).actual.unwrap();
        assert_eq!(
            (est.reads, est.writes, est.crossings),
            (actual.reads, actual.writes, actual.crossings),
            "{algo:?}: dry-run estimate must equal measured cost"
        );
    }
}

/// Padding mode: the padded estimate is exact too (pass count and output
/// size come from the public bound).
#[test]
fn padded_estimates_match_actuals() {
    let config = DbConfig {
        padding: Some(oblidb::core::padding::PaddingConfig::uniform(48)),
        ..DbConfig::default()
    };
    let mut db = build_db(config, 64, 64);
    let mut stmt = db.prepare("SELECT * FROM t WHERE id < 5").unwrap();
    let est = filter_of(stmt.plan().select_root().unwrap()).est.unwrap();
    stmt.run().unwrap();
    let actual = filter_of(stmt.plan().select_root().unwrap()).actual.unwrap();
    assert_eq!(
        (est.reads, est.writes, est.crossings),
        (actual.reads, actual.writes, actual.crossings)
    );
}

/// 2. Property: across randomized table sizes, OM budgets and
///    selectivities, the cost-based choice never costs more (measured,
///    host-weighted) than any admissible candidate forced in its place:
///    Small and Hash always, Continuous for a contiguous result, Large
///    for a near-total one.
#[test]
fn cost_based_choice_never_exceeds_any_admissible_candidate() {
    let mut rng = EnclaveRng::seed_from_u64(0xC057_CA1B);
    let large_threshold = DbConfig::default().planner.large_threshold;
    for case in 0..12 {
        let rows = 32 + (rng.next_u64() % 160);
        let om = 64 + (rng.next_u64() % 4096) as usize;
        let cut = (rng.next_u64() % rows) as i64;
        let scattered = rng.next_u64() % 2 == 0;
        // Matches are `id < lo || id >= hi`; the tail run is empty unless
        // scattered, and two runs are not continuous.
        let (lo, hi) = if scattered {
            (cut / 2, rows as i64 - (cut - cut / 2).max(1))
        } else {
            (cut, rows as i64)
        };
        let query = if scattered {
            format!("SELECT * FROM t WHERE id < {lo} OR id >= {hi}")
        } else {
            format!("SELECT * FROM t WHERE id < {lo}")
        };
        let ids: Vec<i64> = (0..rows as i64).filter(|&id| id < lo || id >= hi).collect();
        let matches = ids.len() as u64;
        let contiguous = !ids.is_empty() && ids.windows(2).all(|w| w[1] == w[0] + 1);

        let run_with = |force: Option<SelectAlgo>| {
            let mut config = DbConfig { om_bytes: om, ..DbConfig::default() };
            config.planner.force_select = force;
            let mut db = build_db(config, rows, rows as i64);
            let mut stmt = db.prepare(&query).unwrap();
            assert_eq!(stmt.run().unwrap().len() as u64, matches, "case {case} ({query})");
            let f = filter_of(stmt.plan().select_root().unwrap());
            (f.choice.algo().unwrap(), f.actual.unwrap())
        };
        let (costed_algo, costed) = run_with(None);

        let mut admissible = vec![SelectAlgo::Small, SelectAlgo::Hash];
        if contiguous {
            admissible.push(SelectAlgo::Continuous);
        }
        if matches as f64 >= large_threshold * rows as f64 {
            admissible.push(SelectAlgo::Large);
        }
        assert!(admissible.contains(&costed_algo), "case {case}: chose {costed_algo:?}");
        for algo in admissible {
            let (_, forced) = run_with(Some(algo));
            assert!(
                costed.weighted <= forced.weighted + 1e-6,
                "case {case} ({query}): costed {costed_algo:?} = {} must not exceed \
                 forced {algo:?} = {}",
                costed.weighted,
                forced.weighted,
            );
        }
    }
}

/// 3a. Acceptance: the same query picks a different operator under the
/// disk profile than under the host profile, and each choice is cheaper
/// than the other's under its own weighting — counted, not assumed.
#[test]
fn disk_and_host_profiles_pick_different_cheaper_operators() {
    let plan_with = |profile: CostProfile| {
        let mut config = DbConfig { om_bytes: 128, ..DbConfig::default() };
        config.planner.profile = profile;
        let mut db = build_db(config, 512, 2);
        let mut stmt = db.prepare("SELECT * FROM t WHERE v = 1").unwrap();
        stmt.run().unwrap();
        let f = filter_of(stmt.plan().select_root().unwrap());
        let candidates = match &f.choice {
            SelectChoice::Chosen { candidates, .. } => candidates.clone(),
            other => panic!("expected a cost-chosen filter, got {other:?}"),
        };
        (f.choice.algo().unwrap(), candidates, f.actual.unwrap())
    };

    let (host_algo, host_candidates, host_actual) = plan_with(CostProfile::host());
    let (disk_algo, disk_candidates, disk_actual) = plan_with(CostProfile::disk());
    assert_ne!(
        host_algo, disk_algo,
        "the crossing price must flip the operator choice between substrates"
    );
    assert_eq!(host_algo, SelectAlgo::Hash, "cheap crossings favor fewest block accesses");
    assert_eq!(disk_algo, SelectAlgo::Small, "dear crossings favor fewest crossings");

    // Cheaper by counted weighted crossings, each under its own profile:
    // the disk choice beats the host choice when both are priced for disk,
    // and vice versa.
    let cost_of = |cands: &[oblidb::core::plan::CandidateCost], algo: SelectAlgo| {
        cands.iter().find(|c| c.algo == algo).map(|c| c.cost.weighted).unwrap()
    };
    assert!(cost_of(&disk_candidates, disk_algo) < cost_of(&disk_candidates, host_algo));
    assert!(cost_of(&host_candidates, host_algo) < cost_of(&host_candidates, disk_algo));

    // And the estimates the decisions rested on were exact.
    assert_eq!(cost_of(&host_candidates, host_algo), host_actual.weighted);
    assert_eq!(cost_of(&disk_candidates, disk_algo), disk_actual.weighted);
}

/// 3b. EXPLAIN SELECT works end to end and surfaces the per-substrate
/// divergence textually.
#[test]
fn explain_select_shows_the_calibrated_choice() {
    let explain_with = |profile: CostProfile| {
        let mut config = DbConfig { om_bytes: 128, ..DbConfig::default() };
        config.planner.profile = profile;
        let mut db = build_db(config, 512, 2);
        let out = db.execute("EXPLAIN SELECT * FROM t WHERE v = 1").unwrap();
        out.rows().iter().map(|r| r[0].as_text().unwrap().to_string()).collect::<Vec<_>>()
    };
    let host = explain_with(CostProfile::host());
    let disk = explain_with(CostProfile::disk());
    assert!(host.iter().any(|l| l.contains("Filter [Hash]")), "{host:?}");
    assert!(disk.iter().any(|l| l.contains("Filter [Small]")), "{disk:?}");
    assert!(host.iter().any(|l| l.contains("candidates:")), "{host:?}");
}

/// Joins are costed by the same machinery: the chosen join's estimate
/// matches its measured cost (flat inputs make the estimate exact).
#[test]
fn join_estimates_match_actuals() {
    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE d (k INT, name INT) CAPACITY 16").unwrap();
    db.execute("CREATE TABLE f (k INT, v INT) CAPACITY 48").unwrap();
    for i in 0..16 {
        db.execute(&format!("INSERT INTO d VALUES ({i}, {i})")).unwrap();
    }
    for i in 0..48 {
        db.execute(&format!("INSERT INTO f VALUES ({}, {i})", i % 16)).unwrap();
    }
    let mut stmt = db.prepare("SELECT * FROM d JOIN f ON d.k = f.k").unwrap();
    let (est, algo) = match stmt.plan().select_root().unwrap() {
        PlanNode::Join(j) => {
            (j.est.expect("join over flat inputs is costed at prepare"), j.choice.algo().unwrap())
        }
        other => panic!("expected join root, got {other:?}"),
    };
    let out = stmt.run().unwrap();
    assert_eq!(out.len(), 48);
    let actual = match stmt.plan().select_root().unwrap() {
        PlanNode::Join(j) => {
            assert_eq!(j.choice.algo().unwrap(), algo, "pinned choice survives run");
            j.actual.unwrap()
        }
        _ => unreachable!(),
    };
    assert_eq!(
        (est.reads, est.writes, est.crossings),
        (actual.reads, actual.writes, actual.crossings),
        "join dry-run estimate must equal measured cost"
    );
}

/// Runs one statement traced end to end (prepare, preliminary scan,
/// execution) and renders what the adversary sees of it: the chosen
/// operators and the hash of the untrusted-memory access trace.
fn pinned_run(db: &mut Database, label: &str, sql: &str) -> String {
    db.start_trace();
    let out = db.execute(sql).unwrap_or_else(|e| panic!("{label}: {e}"));
    let hash = trace_hash(&db.take_trace());
    format!("{label}: {:?} {:?} {hash:#018x}", out.plan.select_algo, out.plan.join_algo)
}

fn two_int_table(db: &mut Database, name: &str, cols: [&str; 2], rows: &[[i64; 2]]) {
    let schema =
        Schema::new(cols.iter().map(|c| Column::new(*c, DataType::Int)).collect::<Vec<_>>());
    let data: Vec<Vec<Value>> =
        rows.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect()).collect();
    db.create_table_with_rows(name, schema, StorageMethod::Flat, None, &data, rows.len() as u64)
        .unwrap();
}

/// 4. Trace pin: under `DbConfig::default()` (only the shape's OM budget
///    varied), the operator choices and per-statement access-trace hashes
///    of BDB Q1–Q3, the `planner` bench's shapes and flat joins are fixed
///    constants. Plan choice is deliberate leakage, so any planner change
///    that moves one of these changes what the adversary observes.
#[test]
fn default_plans_and_traces_are_pinned() {
    let mut got = Vec::new();

    // BDB at small scale, laid out as the benchmark loads it.
    let n = 400;
    let mut db = Database::new(DbConfig::default());
    db.create_table_with_rows(
        "rankings",
        bdb::rankings_schema(),
        StorageMethod::Both,
        Some("pageRank"),
        &bdb::rankings(n, 7),
        n as u64,
    )
    .unwrap();
    db.create_table_with_rows(
        "uservisits",
        bdb::uservisits_schema(),
        StorageMethod::Flat,
        None,
        &bdb::uservisits(n, n, 7),
        n as u64,
    )
    .unwrap();
    got.push(pinned_run(&mut db, "bdb-q1", &bdb::q1_sql()));
    got.push(pinned_run(&mut db, "bdb-q2", &bdb::q2_sql()));
    got.push(pinned_run(&mut db, "bdb-q3", &bdb::q3_sql()));
    // An index-range side defers the join decision to run time.
    got.push(pinned_run(
        &mut db,
        "bdb-q3-indexed",
        "SELECT AVG(pageRank), SUM(adRevenue) FROM rankings \
         JOIN uservisits ON rankings.pageURL = uservisits.destURL WHERE pageRank > 1000",
    ));

    // The `planner` bench's shapes: WHERE v = 1 with v = id % modulus.
    for (shape, rows, om_bytes, modulus) in [
        ("half-tiny-om", 512, 128, 2),
        ("half-big-om", 512, 1 << 20, 2),
        ("sparse-tiny-om", 512, 128, 32),
        ("half-mid-om", 1024, 512, 2),
        ("dense-tiny-om", 1024, 256, 8),
    ] {
        let mut db = Database::new(DbConfig { om_bytes, ..DbConfig::default() });
        let data: Vec<[i64; 2]> = (0..rows).map(|i| [i, i % modulus]).collect();
        two_int_table(&mut db, "t", ["id", "v"], &data);
        got.push(pinned_run(&mut db, shape, "SELECT * FROM t WHERE v = 1"));
    }

    // Flat foreign-key joins, decided at prepare time, across budgets.
    for (budget, om_bytes) in [("default", DbConfig::default().om_bytes), ("256", 256), ("0", 0)] {
        let mut db = Database::new(DbConfig { om_bytes, ..DbConfig::default() });
        two_int_table(&mut db, "d", ["k", "name"], &(0..16).map(|i| [i, i]).collect::<Vec<_>>());
        two_int_table(&mut db, "f", ["k", "v"], &(0..48).map(|i| [i % 16, i]).collect::<Vec<_>>());
        let label = format!("join-om-{budget}");
        got.push(pinned_run(&mut db, &label, "SELECT * FROM d JOIN f ON d.k = f.k"));
        got.push(pinned_run(
            &mut db,
            &format!("{label}-filtered"),
            "SELECT * FROM d JOIN f ON d.k = f.k WHERE v < 20",
        ));
    }

    let expected = [
        "bdb-q1: Some(Small) None 0x43a6e9f6bd1bdb31",
        "bdb-q2: None None 0x370b7d01a23ddaa5",
        "bdb-q3: Some(Small) Some(Hash) 0xa83c31b371614b28",
        "bdb-q3-indexed: Some(Small) Some(Hash) 0x83c88ecb61f812df",
        "half-tiny-om: Some(Hash) None 0xb8535eeda29a9c0d",
        "half-big-om: Some(Small) None 0x4b69898b98dd3d25",
        "sparse-tiny-om: Some(Small) None 0x608710a598b4bd25",
        "half-mid-om: Some(Small) None 0xbf7553e0388afb25",
        "dense-tiny-om: Some(Small) None 0x5dca48c8129f6f25",
        "join-om-default: None Some(Hash) 0xe4644b94c0e66025",
        "join-om-default-filtered: Some(Small) Some(Hash) 0x4cdca7eaa303c6a5",
        "join-om-256: None Some(Hash) 0x9c5e6b2e7f231625",
        "join-om-256-filtered: Some(Small) Some(Hash) 0xed3c1fd622c5dc25",
        "join-om-0: None Some(ZeroOm) 0xe2f4d86208de8525",
        "join-om-0-filtered: Some(Continuous) Some(ZeroOm) 0x683a7c8278b5abe5",
    ];
    assert_eq!(got, expected);
}

/// Branch and bound does stop early: on a BDB-schema join of 2k × 2k rows
/// (counts only, no data), the bitonic ZeroOm dry run is stopped within
/// one batched call of the winner's cost instead of running its
/// n·log²n compare-exchanges to the end.
#[test]
fn priced_out_join_candidates_stop_within_one_batch_of_the_winner() {
    use oblidb::core::plan::cost::{choose_join_costed, JoinShape};
    use oblidb::core::JoinAlgo;
    use oblidb::storage::batch_chunk_blocks;

    let config = DbConfig::default();
    let shape = JoinShape {
        left_schema: bdb::rankings_schema(),
        left_capacity: 2000,
        right_schema: bdb::uservisits_schema(),
        right_capacity: 2000,
        om_bytes: config.om_bytes,
        zero_om_scratch_rows: config.zero_om_scratch_rows,
    };
    let profile = CostProfile::host();
    let (algo, costed) = choose_join_costed(&shape, &profile).unwrap();
    let winner = costed.iter().find(|c| c.algo == algo).unwrap();
    assert!(!winner.pruned);
    let zero_om = costed.iter().find(|c| c.algo == JoinAlgo::ZeroOm).unwrap();
    assert_ne!(algo, JoinAlgo::ZeroOm);
    assert!(zero_om.pruned, "{costed:?}");
    // The largest batch any one call of this join can move: a chunk of
    // the narrowest row, priced at the dearer block weight plus a crossing.
    let narrowest = [shape.left_schema.row_len(), shape.right_schema.row_len()].into_iter().min();
    let chunk = batch_chunk_blocks(narrowest.unwrap()) as f64;
    let one_batch = chunk * profile.read_block.max(profile.write_block) + profile.crossing;
    assert!(zero_om.cost.weighted > winner.cost.weighted);
    assert!(
        zero_om.cost.weighted <= winner.cost.weighted + one_batch,
        "ZeroOm ran {} past the winner's {}",
        zero_om.cost.weighted - winner.cost.weighted,
        winner.cost.weighted
    );
}
