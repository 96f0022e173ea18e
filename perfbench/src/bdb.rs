//! `bdb`: Big Data Benchmark Q1–Q3 in process, as in the paper's Figure 7.
//!
//! RANKINGS (`StorageMethod::Both`, indexed on `pageRank`) and USERVISITS
//! (flat), 20 MB of oblivious memory, the Continuous select disabled as in
//! `fig07`. One client runs Q1 ×8, Q2 ×1 and Q3 ×1 per cycle. Q1 and Q3
//! draw their literal per run, so they miss the plan cache; Q2's fixed
//! text hits it. Only Q1 reaches ORAM, and nothing writes.
//!
//! Results are checked against `PlainTable`, the no-security engine, over
//! the same generated rows.
//!
//! The tables come from one fixed generator seed; the run's seed draws the
//! Q1 and Q3 literals. Q1 reads the index for exactly the rows it returns
//! (its output size is public), so its cost follows the number of high
//! ranks in the table, which varies by about ±12% between generator seeds:
//! regenerating the tables per run would add that much noise to `q1`.

use std::collections::HashMap;

use oblidb_baselines::plain::PlainTable;
use oblidb_core::exec::AggFunc;
use oblidb_core::predicate::{CmpOp, Predicate};
use oblidb_core::{
    Database, DbConfig, DbError, ExecConfig, QueryOutput, Schema, StorageMethod, Value,
};
use oblidb_enclave::{EnclaveMemory, EnclaveRng};
use oblidb_workloads::bdb;

use crate::inproc::{InProcess, Mix};

/// Generator seed of both tables.
const TABLE_SEED: u64 = 42;

/// Relative tolerance for float aggregates, whose summation order differs
/// between the engines.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// The generated tables and their plaintext reference.
pub struct Bdb {
    rankings: PlainTable,
    visits: PlainTable,
    seed: u64,
    q2: Vec<(String, f64)>,
}

impl Bdb {
    /// Generates `rows` rows of each table; `seed` seeds the statement
    /// stream.
    pub fn new(rows: usize, seed: u64) -> Self {
        let rankings = PlainTable::new(bdb::rankings_schema(), bdb::rankings(rows, TABLE_SEED));
        let visits =
            PlainTable::new(bdb::uservisits_schema(), bdb::uservisits(rows, rows, TABLE_SEED));
        let mut q2: Vec<(String, f64)> = visits
            .group_aggregate(1, AggFunc::Sum, Some(4), &Predicate::True)
            .into_iter()
            .filter_map(|(g, s)| Some((g.as_text()?.to_string(), num(&s)?)))
            .collect();
        q2.sort_by(|a, b| a.0.cmp(&b.0));
        Bdb { rankings, visits, seed, q2 }
    }

    fn q1_expected(&self, cutoff: i64) -> Vec<(String, i64)> {
        let pred = Predicate::cmp(&self.rankings.schema, "pageRank", CmpOp::Gt, Value::Int(cutoff))
            .expect("pageRank is a RANKINGS column");
        let mut rows: Vec<(String, i64)> = self
            .rankings
            .select(&pred)
            .iter()
            .filter_map(|r| Some((r[0].as_text()?.to_string(), r[1].as_int()?)))
            .collect();
        rows.sort();
        rows
    }

    fn q3_expected(&self, date: i64) -> (f64, f64) {
        let pred = Predicate::cmp(&self.visits.schema, "visitDate", CmpOp::Lt, Value::Int(date))
            .expect("visitDate is a USERVISITS column");
        let filtered = PlainTable::new(self.visits.schema.clone(), self.visits.select(&pred));
        let joined = self.rankings.join(0, &filtered, 2);
        let mut columns = self.rankings.schema.columns.clone();
        columns.extend(self.visits.schema.columns.iter().cloned());
        let joined = PlainTable::new(Schema::new(columns), joined);
        let avg = joined.aggregate(AggFunc::Avg, Some(1), &Predicate::True);
        let sum = joined.aggregate(AggFunc::Sum, Some(7), &Predicate::True);
        (num(&avg).unwrap_or(f64::NAN), num(&sum).unwrap_or(f64::NAN))
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Text(_) => None,
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

impl InProcess for Bdb {
    const KINDS: [&'static str; 3] = ["q1", "q2", "q3"];
    const WARMUP: usize = 10;
    const COUNTS_PASS: usize = 10;
    const CYCLE: usize = 10;
    const TABLES: &'static [&'static str] = &["rankings", "uservisits"];

    fn load<M: EnclaveMemory>(&self, host: M) -> Result<Database<M>, DbError> {
        let config = DbConfig { exec: ExecConfig::SERIAL, audit: false, ..DbConfig::default() };
        let mut db = Database::try_with_memory(host, config)?;
        db.config_mut().planner.enable_continuous = false;
        let r = &self.rankings;
        db.create_table_with_rows(
            "rankings",
            r.schema.clone(),
            StorageMethod::Both,
            Some("pageRank"),
            &r.rows,
            r.rows.len() as u64,
        )?;
        let v = &self.visits;
        db.create_table_with_rows(
            "uservisits",
            v.schema.clone(),
            StorageMethod::Flat,
            None,
            &v.rows,
            v.rows.len() as u64,
        )?;
        Ok(db)
    }

    fn mix(&self) -> Box<dyn Mix + '_> {
        Box::new(BdbMix {
            bdb: self,
            rng: EnclaveRng::seed_from_u64(self.seed ^ 0xBDB0_0001),
            step: 0,
            last: Query::Q2,
            q1: HashMap::new(),
            q3: HashMap::new(),
        })
    }
}

#[derive(Clone, Copy)]
enum Query {
    Q1(i64),
    Q2,
    Q3(i64),
}

struct BdbMix<'a> {
    bdb: &'a Bdb,
    rng: EnclaveRng,
    step: usize,
    last: Query,
    q1: HashMap<i64, Vec<(String, i64)>>,
    q3: HashMap<i64, (f64, f64)>,
}

impl Mix for BdbMix<'_> {
    fn next(&mut self) -> (usize, String) {
        let pos = self.step % Bdb::CYCLE;
        self.step += 1;
        let (kind, query, sql) = match pos {
            0..=7 => {
                let cutoff = self.rng.int_in(1000, 2000);
                (
                    0,
                    Query::Q1(cutoff),
                    format!("SELECT pageURL, pageRank FROM rankings WHERE pageRank > {cutoff}"),
                )
            }
            8 => (1, Query::Q2, bdb::q2_sql()),
            _ => {
                let date = self.rng.int_in(3000, 4500);
                let sql = format!(
                    "SELECT AVG(pageRank), SUM(adRevenue) FROM rankings \
                     JOIN uservisits ON rankings.pageURL = uservisits.destURL \
                     WHERE visitDate < {date}"
                );
                (2, Query::Q3(date), sql)
            }
        };
        self.last = query;
        (kind, sql)
    }

    fn check(&mut self, out: &Result<QueryOutput, DbError>) -> bool {
        let Ok(out) = out else { return false };
        let rows = out.rows();
        match self.last {
            Query::Q1(cutoff) => {
                let bdb = self.bdb;
                let expected = self.q1.entry(cutoff).or_insert_with(|| bdb.q1_expected(cutoff));
                let mut got: Vec<(String, i64)> = rows
                    .iter()
                    .filter_map(|r| Some((r.first()?.as_text()?.to_string(), r.get(1)?.as_int()?)))
                    .collect();
                got.sort();
                got.len() == rows.len() && got == *expected
            }
            Query::Q2 => {
                let mut got: Vec<(String, f64)> = rows
                    .iter()
                    .filter_map(|r| Some((r.first()?.as_text()?.to_string(), num(r.get(1)?)?)))
                    .collect();
                got.sort_by(|a, b| a.0.cmp(&b.0));
                let expected = &self.bdb.q2;
                got.len() == rows.len()
                    && got.len() == expected.len()
                    && got.iter().zip(expected).all(|(g, e)| g.0 == e.0 && close(g.1, e.1))
            }
            Query::Q3(date) => {
                let bdb = self.bdb;
                let (avg, sum) = *self.q3.entry(date).or_insert_with(|| bdb.q3_expected(date));
                match rows {
                    [row] if row.len() == 2 => match (num(&row[0]), num(&row[1])) {
                        (Some(a), Some(s)) => close(a, avg) && close(s, sum),
                        _ => false,
                    },
                    _ => false,
                }
            }
        }
    }
}
