//! `point`: point operations on the oblivious index, as in the paper's
//! Figures 9 and 11.
//!
//! One `synthetic` table, `StorageMethod::Indexed` on `id`. One client runs
//! 80% `SELECT * FROM t WHERE id = k` with `k` uniform over the loaded keys,
//! 10% INSERT of a fresh key and 10% DELETE of the oldest key this run
//! inserted (an INSERT while there is none), so live rows stay near the
//! loaded count. This loads the B+ tree, ORAM and sealing, with writes
//! beside reads; it bypasses the planner's dry runs, flat scans, disk and
//! the WAL.
//!
//! Results are checked against a key→row model kept by the benchmark.

use std::collections::VecDeque;

use oblidb_core::{Database, DbConfig, DbError, ExecConfig, QueryOutput, Row, StorageMethod};
use oblidb_enclave::{EnclaveMemory, EnclaveRng};
use oblidb_workloads::synthetic;

use crate::inproc::{InProcess, Mix};

/// Width of the `pad` column.
const PAD: usize = 8;
/// Index capacity beyond the loaded rows, for the inserts not yet deleted.
const HEADROOM: usize = 4096;

/// The generated table.
pub struct Point {
    rows: Vec<Row>,
    seed: u64,
}

impl Point {
    /// Generates `rows` rows.
    pub fn new(rows: usize, seed: u64) -> Self {
        Point { rows: synthetic::table(rows, PAD, seed), seed }
    }
}

impl InProcess for Point {
    const KINDS: [&'static str; 3] = ["get", "insert", "delete"];
    const WARMUP: usize = 200;
    const COUNTS_PASS: usize = 200;
    const CYCLE: usize = 1;
    const TABLES: &'static [&'static str] = &["t"];

    fn load<M: EnclaveMemory>(&self, host: M) -> Result<Database<M>, DbError> {
        let config = DbConfig { exec: ExecConfig::SERIAL, audit: false, ..DbConfig::default() };
        let mut db = Database::try_with_memory(host, config)?;
        db.create_table_with_rows(
            "t",
            synthetic::schema(PAD),
            StorageMethod::Indexed,
            Some("id"),
            &self.rows,
            (self.rows.len() + HEADROOM) as u64,
        )?;
        Ok(db)
    }

    fn mix(&self) -> Box<dyn Mix + '_> {
        Box::new(PointMix {
            rows: &self.rows,
            rng: EnclaveRng::seed_from_u64(self.seed ^ 0x9017_0001),
            inserted: VecDeque::new(),
            next_key: self.rows.len() as i64,
            last: Op::Get(0),
        })
    }
}

enum Op {
    Get(usize),
    Insert(i64),
    Delete,
}

struct PointMix<'a> {
    rows: &'a [Row],
    rng: EnclaveRng,
    /// Keys inserted and not yet deleted, oldest first.
    inserted: VecDeque<i64>,
    next_key: i64,
    last: Op,
}

impl Mix for PointMix<'_> {
    fn next(&mut self) -> (usize, String) {
        let draw = self.rng.below(10);
        if draw < 8 {
            let k = self.rng.below(self.rows.len() as u64) as usize;
            self.last = Op::Get(k);
            return (0, format!("SELECT * FROM t WHERE id = {k}"));
        }
        match self.inserted.front() {
            Some(&key) if draw == 9 => {
                self.last = Op::Delete;
                (2, format!("DELETE FROM t WHERE id = {key}"))
            }
            _ => {
                let key = self.next_key;
                self.next_key += 1;
                self.last = Op::Insert(key);
                (1, format!("INSERT INTO t VALUES ({key}, {}, 'y')", key % 1000))
            }
        }
    }

    fn check(&mut self, out: &Result<QueryOutput, DbError>) -> bool {
        match self.last {
            Op::Get(k) => {
                out.as_ref().is_ok_and(|o| o.rows() == std::slice::from_ref(&self.rows[k]))
            }
            Op::Insert(key) => {
                let ok = out.as_ref().is_ok_and(|o| o.rows_affected == Some(1));
                if ok {
                    self.inserted.push_back(key);
                }
                ok
            }
            Op::Delete => {
                // The key leaves the model either way, so a failed delete
                // is not retried.
                self.inserted.pop_front();
                out.as_ref().is_ok_and(|o| o.rows_affected == Some(1))
            }
        }
    }
}
