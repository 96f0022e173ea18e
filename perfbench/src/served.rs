//! `served`: OLTP statements over TCP against a disk store with epoch group
//! commit.
//!
//! The engine is built the way `oblidb-serve --substrate disk:<dir>
//! --epoch-ms 5` builds it: `SubstrateSpec` → `Database::try_with_memory`
//! (WAL with `WalConfig::default()`, epochs of 5 ms or 64 statements) →
//! `SharedDatabase::adopt` → `serve` with 2 workers. Telemetry stays off.
//! This is the one workload that loads the server, the shared engine's read
//! fork and write latch, transactions with WAL group commit, and disk
//! fsyncs; it bypasses ORAM.
//!
//! Two closed-loop connections each own half of a flat `t(k INT, v INT)`
//! table. A cycle is a point SELECT of an own key, an UPDATE of an own key,
//! an INSERT of a fresh own key and a DELETE of the connection's oldest
//! inserted key (the load gives each connection a queue of such keys).
//! Every 8th write is `BEGIN; UPDATE; UPDATE; COMMIT` instead. Fast inserts
//! append, so the table grows over a run and read latency drifts: every run
//! therefore does a fixed number of cycles, not a fixed time.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use oblidb_core::{
    Column, DataType, Database, DbConfig, DbError, EpochConfig, ExecConfig, Schema, SharedDatabase,
    StorageMethod, Value, WalConfig,
};
use oblidb_enclave::{EnclaveMemory, EnclaveRng, HostStats};
use oblidb_server::{serve, ClientError, Connection, ServerConfig, StatementResult};
use oblidb_substrates::{AnySubstrate, SubstrateSpec};

use crate::spans::{Recorder, Span};
use crate::stats::{add_delta, mean, median, percentile, ratio, set_enclave, RunReport};
use crate::timed::{Clock, Timed};

/// Concurrent connections.
pub const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Group commit: 5 ms epochs, closed early at 64 statements.
const EPOCH: EpochConfig = EpochConfig { duration_ms: 5, max_statements: 64 };
/// Every `TXN_EVERY`-th write of a connection is a two-update transaction.
const TXN_EVERY: u64 = 8;
/// Engine set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Cycles per connection before measuring.
const WARMUP_CYCLES: usize = 10;
/// Cycles per connection in the counts pass.
const COUNTS_CYCLES: usize = 20;

/// Latency classes, most frequent first: they fill `op1`..`op3`.
const KINDS: [&str; 3] = ["write", "read", "commit"];
const WRITE: usize = 0;
const READ: usize = 1;
const COMMIT: usize = 2;

/// The workload: table size, cycles per connection, seed, scratch root.
pub struct Served {
    pub rows: usize,
    pub cycles: usize,
    pub seed: u64,
    pub root: PathBuf,
}

/// One engine being served, and where its store lives.
struct Running<M: EnclaveMemory + Send + 'static> {
    db: SharedDatabase<M>,
    handle: oblidb_server::ServerHandle,
    dir: PathBuf,
}

impl Served {
    fn initial_rows(&self) -> Vec<Vec<Value>> {
        let mut rng = EnclaveRng::seed_from_u64(self.seed ^ 0x5E4E_0001);
        (0..self.rows as i64)
            .map(|k| vec![Value::Int(k), Value::Int(rng.int_in(0, 1_000_000))])
            .collect()
    }

    /// Empty engine on a fresh disk store to the loaded table; returns the
    /// shared engine and the seconds it took.
    fn load<M: EnclaveMemory + Send>(
        &self,
        dir: &Path,
        rows: &[Vec<Value>],
        wrap: impl FnOnce(AnySubstrate) -> M,
    ) -> Result<(SharedDatabase<M>, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        let start = Instant::now();
        let spec: SubstrateSpec = format!("disk:{}", dir.display())
            .parse()
            .map_err(|e| format!("substrate spec: {e}"))?;
        let host = wrap(spec.build().map_err(|e| format!("disk store: {e}"))?);
        let config = DbConfig {
            seed: self.seed,
            wal: Some(WalConfig::default()),
            epoch: Some(EPOCH),
            exec: ExecConfig::SERIAL,
            audit: false,
            ..DbConfig::default()
        };
        let mut db = Database::try_with_memory(host, config).map_err(|e| format!("engine: {e}"))?;
        let schema =
            Schema::new(vec![Column::new("k", DataType::Int), Column::new("v", DataType::Int)]);
        db.create_table_with_rows("t", schema, StorageMethod::Flat, None, rows, rows.len() as u64)
            .map_err(|e: DbError| format!("load: {e}"))?;
        let db = SharedDatabase::adopt(db);
        Ok((db, start.elapsed().as_secs_f64()))
    }

    fn start<M: EnclaveMemory + Send + 'static>(
        &self,
        name: &str,
        rows: &[Vec<Value>],
        wrap: impl FnOnce(AnySubstrate) -> M,
    ) -> Result<(Running<M>, f64), String> {
        let dir = self.root.join(name);
        let (db, setup) = self.load(&dir, rows, wrap)?;
        let config =
            ServerConfig { addr: "127.0.0.1:0".into(), workers: WORKERS, epoch: Some(EPOCH) };
        let handle = serve(db.clone(), config).map_err(|e| format!("serve: {e}"))?;
        Ok((Running { db, handle, dir }, setup))
    }

    fn clients(&self) -> Vec<Client> {
        (0..CLIENTS).map(|c| Client::new(c, self.rows, self.seed)).collect()
    }

    /// Timed run: `SETUPS` set-ups, then every connection runs `cycles`.
    pub fn timed(&self, report: &mut RunReport) -> Result<(), String> {
        let rows = self.initial_rows();
        let mut setups = Vec::new();
        for i in 0..SETUPS - 1 {
            let dir = self.root.join(format!("setup-{i}"));
            let (db, secs) = self.load(&dir, &rows, |s| s)?;
            setups.push(secs);
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let (running, secs) = self.start("timed", &rows, |s| s)?;
        setups.push(secs);
        let addr = running.handle.addr();
        let mut clients = self.clients();
        let phase = drive(addr, &mut clients, WARMUP_CYCLES, self.cycles, None)?;
        running.handle.shutdown();
        let _ = std::fs::remove_dir_all(&running.dir);
        phase.fold_outcomes(report);
        report.set("setup_s", median(&setups));
        report.set("ops_per_s", phase.ops_per_s());
        report.set("op1_p50_ms", median(&phase.lat[WRITE]));
        report.set("op2_p50_ms", median(&phase.lat[READ]));
        report.set("op3_p50_ms", median(&phase.lat[COMMIT]));
        for (kind, l) in KINDS.iter().zip(&phase.lat) {
            report.notes.push(format!("{kind}: {} samples", l.len()));
        }
        Ok(())
    }

    /// Traced run: untraced phase, traced phase, counts pass.
    pub fn traced(&self, spans_path: &Path, report: &mut RunReport) -> Result<(), String> {
        let rows = self.initial_rows();
        let untraced_ops = {
            let (running, _) = self.start("untraced", &rows, |s| s)?;
            let mut clients = self.clients();
            let phase =
                drive(running.handle.addr(), &mut clients, WARMUP_CYCLES, self.cycles, None)?;
            running.handle.shutdown();
            let _ = std::fs::remove_dir_all(&running.dir);
            phase.fold_outcomes(report);
            report.set("tail.op1_p90_ms", percentile(&phase.lat[WRITE], 90.0));
            phase.ops_per_s()
        };

        let mut clock: Option<Arc<Clock>> = None;
        let (running, _) = self.start("traced", &rows, |s| {
            let (timed, c) = Timed::new(s);
            clock = Some(c);
            timed
        })?;
        let clock = clock.expect("wrap ran");
        let addr = running.handle.addr();
        let mut clients = self.clients();
        // Warm up outside the measured window, then measure.
        drive(addr, &mut clients, WARMUP_CYCLES, 0, None)?.fold_outcomes(report);
        let store_before = running.db.store().store_stats();
        let cache_before = running.db.plan_cache_stats();
        let clock_before = clock.read();
        let mut rec = Recorder::default();
        let phase = drive(addr, &mut clients, 0, self.cycles, Some(&mut rec))?;
        let sub = clock.read().since(&clock_before);
        let mut store = HostStats::default();
        add_delta(&mut store, &store_before, &running.db.store().store_stats());
        let cache = running.db.plan_cache_stats();
        phase.fold_outcomes(report);

        let n = phase.statements as f64;
        let round_trips: Vec<f64> =
            phase.lat.iter().flatten().chain(&phase.other).copied().collect();
        let sub_ms = ratio(sub.nanos as f64 / 1e6, n);
        report.set("substrate.calls_per_stmt", ratio(sub.calls as f64, n));
        report.set("substrate.ms_per_stmt", sub_ms);
        report.set("substrate.fsyncs_per_stmt", ratio(sub.fsyncs as f64, n));
        report.set("substrate.fsync_ms_per_stmt", ratio(sub.fsync_nanos as f64 / 1e6, n));
        report.set("server.ping_ms", median(&phase.pings));
        report.set("server.other_ms_per_stmt", mean(&round_trips) - sub_ms);
        set_enclave(report, "stmt", &store, n);
        let (hits, misses) = (cache.hits - cache_before.hits, cache.misses - cache_before.misses);
        report.set("plan.cache_hit_ratio", ratio(hits as f64, (hits + misses) as f64));
        report.set("trace.overhead", ratio(untraced_ops, phase.ops_per_s()));
        report.notes.push(format!(
            "traced phase: {} statements, {} pings",
            phase.statements,
            phase.pings.len()
        ));

        // Counts pass: the telemetry registry on, for a few cycles only.
        oblidb_telemetry::reset_metrics();
        oblidb_telemetry::set_enabled(true);
        let counted = drive(addr, &mut clients, 0, COUNTS_CYCLES, None);
        oblidb_telemetry::set_enabled(false);
        let counted = counted?;
        counted.fold_outcomes(report);
        let [appends, fsyncs] = crate::registry_counters(&["wal_appends", "epoch_fsyncs"]);
        report.set("wal.appends_per_write", ratio(appends as f64, counted.applied_writes as f64));
        report.set("txn.stmts_per_fsync", ratio(counted.applied_writes as f64, fsyncs as f64));
        report.set("txn.epochs", fsyncs as f64);

        let stats = running.handle.shutdown();
        report.set(
            "server.bytes_per_stmt",
            ratio((stats.bytes_in + stats.bytes_out) as f64, stats.statements as f64),
        );
        let live: usize = clients.iter().map(Client::live_rows).sum();
        report.set("store.bytes_per_row", ratio(dir_bytes(&running.dir) as f64, live as f64));
        drop(running.db);
        let _ = std::fs::remove_dir_all(&running.dir);
        if let Err(e) = rec.write_jsonl(spans_path) {
            eprintln!("could not write spans to {}: {e}", spans_path.display());
        }
        Ok(())
    }
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One connection's keys and the values the server should hold for them.
struct Client {
    id: usize,
    rng: EnclaveRng,
    /// Own keys that are read and updated, with their expected `v`.
    stable: Vec<i64>,
    values: HashMap<i64, i64>,
    /// Own keys to delete, oldest first.
    queue: VecDeque<i64>,
    next_fresh: i64,
    writes: u64,
}

impl Client {
    /// Connection `id` owns the loaded keys `k` with `k % CLIENTS == id`:
    /// those below `rows / 2` are read and updated, the rest are its first
    /// keys to delete. Its fresh keys start above every loaded key.
    fn new(id: usize, rows: usize, seed: u64) -> Client {
        let own = (0..rows as i64).filter(|k| *k as usize % CLIENTS == id);
        let (stable, queue): (Vec<i64>, Vec<i64>) = own.partition(|k| (*k as usize) < rows / 2);
        let mut rng = EnclaveRng::seed_from_u64(seed ^ 0x5E4E_0001);
        // The values the load wrote, from the same stream as `initial_rows`.
        let all: Vec<i64> = (0..rows).map(|_| rng.int_in(0, 1_000_000)).collect();
        let values = stable.iter().map(|&k| (k, all[k as usize])).collect();
        Client {
            id,
            rng: EnclaveRng::seed_from_u64(seed ^ (0xC11E_0000 + id as u64)),
            stable,
            values,
            queue: queue.into(),
            next_fresh: 1_000_000_000 * (id as i64 + 1),
            writes: 0,
        }
    }

    fn live_rows(&self) -> usize {
        self.stable.len() + self.queue.len()
    }

    fn stable_key(&mut self) -> i64 {
        self.stable[self.rng.below(self.stable.len() as u64) as usize]
    }
}

/// What a phase measured, over every connection.
#[derive(Default)]
struct Phase {
    lat: [Vec<f64>; 3],
    /// Round trips of `BEGIN` and of buffered transaction statements.
    other: Vec<f64>,
    pings: Vec<f64>,
    statements: u64,
    failed: u64,
    /// Write statements the engine applied (a committed transaction
    /// counts its two updates).
    applied_writes: u64,
    wall_s: f64,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        ratio(self.statements as f64, self.wall_s)
    }

    fn fold_outcomes(&self, report: &mut RunReport) {
        report.attempted += self.statements;
        report.failed += self.failed;
    }

    fn absorb(&mut self, other: Phase) {
        for (a, b) in self.lat.iter_mut().zip(other.lat) {
            a.extend(b);
        }
        self.other.extend(other.other);
        self.pings.extend(other.pings);
        self.statements += other.statements;
        self.failed += other.failed;
        self.applied_writes += other.applied_writes;
    }
}

/// Runs `warmup` unmeasured then `cycles` measured cycles on every
/// connection at once. With a recorder, every round trip is a span and a
/// ping precedes each cycle.
fn drive(
    addr: std::net::SocketAddr,
    clients: &mut [Client],
    warmup: usize,
    cycles: usize,
    rec: Option<&mut Recorder>,
) -> Result<Phase, String> {
    let barrier = Barrier::new(clients.len() + 1);
    let traced = rec.is_some();
    let forks: Vec<Option<Recorder>> =
        clients.iter().map(|_| rec.as_ref().map(|r| r.fork())).collect();
    let (results, wall_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(forks)
            .map(|(client, fork)| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<(Phase, Option<Recorder>), String> {
                    let conn = Connection::connect(addr);
                    let mut link = match conn {
                        Ok(c) => Some(Link { conn: c, phase: Phase::default(), rec: fork }),
                        Err(_) => None,
                    };
                    if let Some(s) = link.as_mut() {
                        for _ in 0..warmup {
                            s.cycle(client, false);
                        }
                        s.phase = Phase::default();
                    }
                    barrier.wait();
                    let Some(mut s) = link else {
                        return Err(format!("connection {} could not connect", client.id));
                    };
                    for _ in 0..cycles {
                        s.cycle(client, traced);
                    }
                    Ok((s.phase, s.rec))
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect();
        (results, start.elapsed().as_secs_f64())
    });
    let mut phase = Phase { wall_s, ..Phase::default() };
    let mut rec = rec;
    for r in results {
        let (p, fork) = r?;
        phase.absorb(p);
        if let (Some(rec), Some(fork)) = (rec.as_deref_mut(), fork) {
            rec.absorb(fork);
        }
    }
    Ok(phase)
}

/// One connection inside a phase.
struct Link {
    conn: Connection,
    phase: Phase,
    rec: Option<Recorder>,
}

impl Link {
    /// Sends one statement, times it, and checks the reply with `ok`.
    fn statement(
        &mut self,
        kind: Option<usize>,
        span_kind: &'static str,
        sql: &str,
        ok: impl FnOnce(&StatementResult) -> bool,
    ) -> bool {
        let t0 = self.rec.as_ref().map(Recorder::now);
        let start = Instant::now();
        let out: Result<StatementResult, ClientError> = self.conn.execute(sql);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.span("round_trip", span_kind, t0);
        match kind {
            Some(k) => self.phase.lat[k].push(ms),
            None => self.phase.other.push(ms),
        }
        self.phase.statements += 1;
        let good = out.as_ref().is_ok_and(ok);
        if !good {
            self.phase.failed += 1;
        }
        good
    }

    fn ping(&mut self) {
        let t0 = self.rec.as_ref().map(Recorder::now);
        let start = Instant::now();
        let ok = self.conn.ping().is_ok();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.span("ping", "ping", t0);
        if ok {
            self.phase.pings.push(ms);
        }
    }

    /// Records a root span from `start_ns` to now, when tracing.
    fn span(&mut self, name: &'static str, kind: &'static str, start_ns: Option<u64>) {
        if let (Some(rec), Some(start_ns)) = (self.rec.as_mut(), start_ns) {
            let stmt = rec.next_statement();
            let end_ns = rec.now();
            rec.record(Span {
                name,
                kind,
                stmt,
                id: 0,
                parent: 0,
                start_ns,
                end_ns,
                substrate_ns: 0,
            });
        }
    }

    /// SELECT, UPDATE, INSERT, DELETE; every `TXN_EVERY`-th write is a
    /// two-update transaction instead.
    fn cycle(&mut self, c: &mut Client, ping: bool) {
        if ping {
            self.ping();
        }
        let k = c.stable_key();
        let want = c.values.get(&k).copied();
        self.statement(Some(READ), "read", &format!("SELECT k, v FROM t WHERE k = {k}"), |r| {
            matches!(r, StatementResult::Rows { rows, .. }
                if rows.len() == 1 && rows[0] == [Value::Int(k), Value::Int(want.unwrap_or(-1))])
        });
        for slot in 0..3 {
            c.writes += 1;
            if c.writes.is_multiple_of(TXN_EVERY) {
                self.transaction(c);
                continue;
            }
            let v = c.rng.int_in(0, 1_000_000);
            let applied = match slot {
                0 => {
                    let k = c.stable_key();
                    let sql = format!("UPDATE t SET v = {v} WHERE k = {k}");
                    let ok = self.statement(Some(WRITE), "write", &sql, affected(1));
                    if ok {
                        c.values.insert(k, v);
                    }
                    ok
                }
                1 => {
                    let f = c.next_fresh;
                    c.next_fresh += 1;
                    let sql = format!("INSERT INTO t VALUES ({f}, {v})");
                    let ok = self.statement(Some(WRITE), "write", &sql, affected(1));
                    if ok {
                        c.queue.push_back(f);
                    }
                    ok
                }
                _ => match c.queue.pop_front() {
                    Some(old) => {
                        let sql = format!("DELETE FROM t WHERE k = {old}");
                        self.statement(Some(WRITE), "write", &sql, affected(1))
                    }
                    None => false,
                },
            };
            self.phase.applied_writes += u64::from(applied);
        }
    }

    fn transaction(&mut self, c: &mut Client) {
        let (a, b) = (c.stable_key(), c.stable_key());
        let (va, vb) = (c.rng.int_in(0, 1_000_000), c.rng.int_in(0, 1_000_000));
        let mut ok = self.statement(None, "begin", "BEGIN", affected(0));
        ok &= self.statement(
            None,
            "buffered",
            &format!("UPDATE t SET v = {va} WHERE k = {a}"),
            affected(0),
        );
        ok &= self.statement(
            None,
            "buffered",
            &format!("UPDATE t SET v = {vb} WHERE k = {b}"),
            affected(0),
        );
        if self.statement(Some(COMMIT), "commit", "COMMIT", affected(2)) && ok {
            c.values.insert(a, va);
            c.values.insert(b, vb);
            self.phase.applied_writes += 2;
        }
    }
}

fn affected(n: u64) -> impl FnOnce(&StatementResult) -> bool {
    move |r| *r == StatementResult::RowsAffected(n)
}
