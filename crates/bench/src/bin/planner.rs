//! Planner calibration: cost-calibrated operator choices across substrate
//! profiles, recorded for the perf trajectory.
//!
//! For a sweep of query shapes (selectivity × oblivious-memory budget)
//! the same SELECT is planned by the measured, `CountingMemory`-driven
//! planner under the host, disk, and cached-disk [`CostProfile`]s. Emits
//! `BENCH_planner.json`: one row per profile × shape with the choice, its
//! counted, profile-weighted cost (crossings priced per substrate; the
//! host profile's crossing weight is the SGX OCALL model), and whether it
//! differs from the host profile's choice for the same shape. The
//! interesting rows are those flips — plans a substrate-blind planner
//! would get wrong.

use oblidb_bench::report::{write_bench_json, Field, Row};
use oblidb_core::{CostProfile, Database, DbConfig, SelectAlgo, StorageMethod, Value};

fn smoke() -> bool {
    oblidb_bench::harness::smoke_mode()
}

struct Shape {
    name: &'static str,
    rows: i64,
    om_bytes: usize,
    /// WHERE v = 1 with v = i % modulus: selectivity 1/modulus.
    modulus: i64,
}

fn shapes() -> Vec<Shape> {
    let mut all = vec![
        Shape { name: "half-tiny-om", rows: 512, om_bytes: 128, modulus: 2 },
        Shape { name: "half-big-om", rows: 512, om_bytes: 1 << 20, modulus: 2 },
        Shape { name: "sparse-tiny-om", rows: 512, om_bytes: 128, modulus: 32 },
    ];
    if !smoke() {
        all.push(Shape { name: "half-mid-om", rows: 1024, om_bytes: 512, modulus: 2 });
        all.push(Shape { name: "dense-tiny-om", rows: 1024, om_bytes: 256, modulus: 8 });
    }
    all
}

fn profiles() -> Vec<CostProfile> {
    vec![CostProfile::host(), CostProfile::disk(), CostProfile::cached_disk()]
}

fn build(shape: &Shape, profile: CostProfile) -> Database {
    let mut config = DbConfig { om_bytes: shape.om_bytes, ..DbConfig::default() };
    config.planner.profile = profile;
    let mut db = Database::new(config);
    let schema = oblidb_core::Schema::new(vec![
        oblidb_core::Column::new("id", oblidb_core::DataType::Int),
        oblidb_core::Column::new("v", oblidb_core::DataType::Int),
    ]);
    let data: Vec<Vec<Value>> =
        (0..shape.rows).map(|i| vec![Value::Int(i), Value::Int(i % shape.modulus)]).collect();
    db.create_table_with_rows("t", schema, StorageMethod::Flat, None, &data, shape.rows as u64)
        .unwrap();
    db
}

/// Plans (without running) and reports the filter's chosen operator plus
/// its estimated weighted cost.
fn plan_choice(shape: &Shape, profile: CostProfile) -> (SelectAlgo, f64) {
    let mut db = build(shape, profile);
    let stmt = db.prepare("SELECT * FROM t WHERE v = 1").unwrap();
    let filter = stmt.plan().select_root().unwrap().find_filter().unwrap();
    let algo = filter.choice.algo().expect("flat base filter is decided at prepare");
    (algo, filter.est.map(|c| c.weighted).unwrap_or(f64::NAN))
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    let mut flips = 0;
    let mut table = oblidb_bench::report::Report::new(
        "planner: cost-calibrated choice per profile vs host",
        &["profile", "shape", "host", "costed", "costed w-cost", "flip"],
    );

    for profile in profiles() {
        for shape in shapes() {
            let (host_algo, _) = plan_choice(&shape, CostProfile::host());
            let (costed_algo, costed_cost) = plan_choice(&shape, profile.clone());
            let flip = host_algo != costed_algo;
            flips += usize::from(flip);
            table.row(&[
                profile.name.clone(),
                shape.name.to_string(),
                format!("{host_algo:?}"),
                format!("{costed_algo:?}"),
                format!("{costed_cost:.0}"),
                if flip { "FLIP".into() } else { String::new() },
            ]);
            rows.push(vec![
                ("profile", profile.name.as_str().into()),
                ("shape", shape.name.into()),
                ("rows", shape.rows.into()),
                ("om_bytes", shape.om_bytes.into()),
                ("selectivity", Field::Float(1.0 / shape.modulus as f64, 4)),
                ("host", format!("{host_algo:?}").into()),
                ("costed", format!("{costed_algo:?}").into()),
                ("costed_weighted", Field::Float(costed_cost, 1)),
                ("flip", flip.into()),
            ]);
        }
    }
    table.print();

    let path = write_bench_json(std::path::Path::new("."), "planner", &[], &rows)
        .expect("write BENCH_planner.json");
    println!("\nwrote {} ({} rows)", path.display(), rows.len());

    // The artifact must contain at least one flip, or the calibration adds
    // nothing — fail the bench run loudly rather than rot silently.
    assert!(flips > 0, "expected at least one profile-driven plan flip");
}
