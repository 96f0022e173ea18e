//! The loop shared by the in-process workloads (`bdb`, `point`): one
//! closed-loop client calling `Database::prepare` and
//! `PreparedStatement::run` on an engine over the in-memory `Host`.
//!
//! Timed run: several set-ups (median reported), a warm-up, then statements
//! until `--seconds` have passed; no wrapper, no spans, telemetry off.
//!
//! Traced run, three phases on fresh engines built from the same seed:
//! 1. untraced, as in the timed run: the `trace.overhead` base and the
//!    `op1` tail;
//! 2. traced: the engine sits on [`Timed`]`<Host>`, and spans are recorded
//!    around `prepare` and `run` of every statement;
//! 3. a short counts pass that enables the telemetry counter registry.

use std::path::Path;
use std::time::Instant;

use oblidb_core::{Database, DbError, QueryOutput};
use oblidb_enclave::{EnclaveMemory, Host, HostStats};

use crate::spans::{Recorder, Span};
use crate::stats::{add_delta, median, percentile, ratio, set_enclave, RunReport};
use crate::timed::Timed;

/// A statement stream with its own output model.
pub trait Mix {
    /// The next statement: its kind (an index into [`InProcess::KINDS`])
    /// and its SQL.
    fn next(&mut self) -> (usize, String);

    /// Checks the outcome of the statement `next` returned last, and
    /// advances the model. Never panics on a wrong or failed result.
    fn check(&mut self, out: &Result<QueryOutput, DbError>) -> bool;
}

/// An in-process workload.
pub trait InProcess {
    /// Statement kinds, most frequent first: they fill `op1`..`op3`.
    const KINDS: [&'static str; 3];
    /// Statements per warm-up.
    const WARMUP: usize;
    /// Statements in the counts pass.
    const COUNTS_PASS: usize;
    /// Statements that end a cycle of the mix; a timed loop stops only
    /// at a cycle boundary.
    const CYCLE: usize;
    /// Tables whose rows count as live rows.
    const TABLES: &'static [&'static str];

    /// Loads the workload's tables into a fresh engine on `host`.
    fn load<M: EnclaveMemory>(&self, host: M) -> Result<Database<M>, DbError>;

    /// The statement stream; the same seed gives the same stream.
    fn mix(&self) -> Box<dyn Mix + '_>;
}

/// Engine set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `w` once and fills `report`. Set-up errors abort the run.
pub fn run<W: InProcess>(
    w: &W,
    seconds: f64,
    trace: bool,
    spans_path: &Path,
    report: &mut RunReport,
) -> Result<(), DbError> {
    if trace {
        traced(w, seconds, spans_path, report)
    } else {
        timed(w, seconds, report)
    }
}

/// Loads `SETUPS` engines one after another and keeps the last, so that
/// the measured engine never runs on memory fresh from the OS.
fn load_repeatedly<W: InProcess>(w: &W) -> Result<(Database<Host>, Vec<f64>), DbError> {
    let mut setups = Vec::new();
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take());
        let start = Instant::now();
        db = Some(w.load(Host::new())?);
        setups.push(secs(start));
    }
    Ok((db.expect("at least one set-up"), setups))
}

fn timed<W: InProcess>(w: &W, seconds: f64, report: &mut RunReport) -> Result<(), DbError> {
    let (mut db, setups) = load_repeatedly(w)?;
    let mut mix = w.mix();
    warm_up::<W, _>(&mut db, mix.as_mut(), report);
    let lat = untraced_loop::<W, _>(&mut db, mix.as_mut(), seconds, report);
    report.set("setup_s", median(&setups));
    report.set("ops_per_s", ops_per_s(&lat));
    report.set("op1_p50_ms", median(&lat[0]));
    report.set("op2_p50_ms", median(&lat[1]));
    report.set("op3_p50_ms", median(&lat[2]));
    for (kind, l) in W::KINDS.iter().zip(&lat) {
        report.notes.push(format!("{kind}: {} samples", l.len()));
    }
    Ok(())
}

/// Statements per second of statement time (one client, no think time).
fn ops_per_s(lat: &[Vec<f64>; 3]) -> f64 {
    let n: usize = lat.iter().map(Vec::len).sum();
    let ms: f64 = lat.iter().flatten().sum();
    ratio(n as f64, ms / 1e3)
}

fn warm_up<W: InProcess, M: EnclaveMemory>(
    db: &mut Database<M>,
    mix: &mut dyn Mix,
    report: &mut RunReport,
) {
    for _ in 0..W::WARMUP {
        let (_, sql) = mix.next();
        let out = db.execute(&sql);
        report.outcome(mix.check(&out));
    }
}

/// Latencies in ms per kind, for whole cycles until `seconds` have passed.
fn untraced_loop<W: InProcess, M: EnclaveMemory>(
    db: &mut Database<M>,
    mix: &mut dyn Mix,
    seconds: f64,
    report: &mut RunReport,
) -> [Vec<f64>; 3] {
    let mut lat: [Vec<f64>; 3] = Default::default();
    let start = Instant::now();
    while secs(start) < seconds {
        for _ in 0..W::CYCLE {
            let (kind, sql) = mix.next();
            let t = Instant::now();
            let out = db.execute(&sql);
            lat[kind].push(secs(t) * 1e3);
            report.outcome(mix.check(&out));
        }
    }
    lat
}

fn traced<W: InProcess>(
    w: &W,
    seconds: f64,
    spans_path: &Path,
    report: &mut RunReport,
) -> Result<(), DbError> {
    // Phase 1: untraced, as in the timed run: the base for
    // `trace.overhead`, and the op1 tail.
    let untraced_ops = {
        let (mut db, _) = load_repeatedly(w)?;
        let mut mix = w.mix();
        warm_up::<W, _>(&mut db, mix.as_mut(), report);
        let lat = untraced_loop::<W, _>(&mut db, mix.as_mut(), seconds, report);
        report.set("tail.op1_p90_ms", percentile(&lat[0], 90.0));
        ops_per_s(&lat)
    };

    // Phase 2: spans around every statement, substrate time from the wrapper.
    let (host, clock) = Timed::new(Host::new());
    let mut db = w.load(host)?;
    let mut mix = w.mix();
    warm_up::<W, _>(&mut db, mix.as_mut(), report);
    let mut rec = Recorder::default();
    let mut sums = [HostStats::default(); 3];
    let cache_before = db.plan_cache_stats();
    let clock_before = clock.read();
    let start = Instant::now();
    while secs(start) < seconds {
        for _ in 0..W::CYCLE {
            let (kind, sql) = mix.next();
            let kind_name = W::KINDS[kind];
            let stmt = rec.next_statement();
            // The statement span is what the caller waits for; the
            // `prepare` and `run` spans inside it exclude the benchmark's
            // own bookkeeping, which `trace.coverage` therefore shows.
            let t0 = rec.now();
            let h0 = db.host_mut().stats();
            let c0 = clock.read();
            let p0 = rec.now();
            let prepared = db.prepare(&sql);
            let p1 = rec.now();
            let c1 = clock.read();
            let r0 = rec.now();
            let out = prepared.and_then(|mut p| p.run());
            let r1 = rec.now();
            let c2 = clock.read();
            add_delta(&mut sums[kind], &h0, &db.host_mut().stats());
            let t1 = rec.now();
            let root = rec.record(Span {
                name: "statement",
                kind: kind_name,
                stmt,
                id: 0,
                parent: 0,
                start_ns: t0,
                end_ns: t1,
                substrate_ns: c2.since(&c0).nanos,
            });
            for (span, a, b, ca, cb) in [("prepare", p0, p1, c0, c1), ("run", r0, r1, c1, c2)] {
                rec.record(Span {
                    name: span,
                    kind: kind_name,
                    stmt,
                    id: 0,
                    parent: root,
                    start_ns: a,
                    end_ns: b,
                    substrate_ns: cb.since(&ca).nanos,
                });
            }
            report.outcome(mix.check(&out));
        }
    }
    let phase_clock = clock.read().since(&clock_before);
    let cache = db.plan_cache_stats();
    let (hits, misses) = (cache.hits - cache_before.hits, cache.misses - cache_before.misses);

    // Per-kind layer times from the spans.
    let mut stmt_ns = [0u64; 3];
    let mut counts = [0u64; 3];
    let mut prepare_ns = [0u64; 3];
    let mut run_ns = [0u64; 3];
    let mut run_substrate_ns = [0u64; 3];
    for s in rec.spans() {
        let k = W::KINDS.iter().position(|k| *k == s.kind).expect("kind of this workload");
        match s.name {
            "statement" => {
                stmt_ns[k] += s.dur_ns();
                counts[k] += 1;
            }
            "prepare" => prepare_ns[k] += s.dur_ns(),
            _ => {
                run_ns[k] += s.dur_ns();
                run_substrate_ns[k] += s.substrate_ns;
            }
        }
    }
    let mut all = HostStats::default();
    for (k, kind) in W::KINDS.iter().enumerate() {
        let n = counts[k] as f64;
        let ms = |ns: u64| ratio(ns as f64 / 1e6, n);
        report.set(format!("plan.prepare_ms.{kind}"), ms(prepare_ns[k]));
        report.set(format!("exec.run_ms.{kind}"), ms(run_ns[k]));
        report
            .set(format!("exec.self_ms.{kind}"), ms(run_ns[k].saturating_sub(run_substrate_ns[k])));
        report.set(
            format!("trace.coverage.{kind}"),
            ratio((prepare_ns[k] + run_ns[k]) as f64, stmt_ns[k] as f64),
        );
        set_enclave(report, kind, &sums[k], n);
        add_delta(&mut all, &HostStats::default(), &sums[k]);
    }
    let n: f64 = counts.iter().sum::<u64>() as f64;
    let total_ms: f64 = stmt_ns.iter().sum::<u64>() as f64 / 1e6;
    set_enclave(report, "stmt", &all, n);
    report.set("substrate.calls_per_stmt", ratio(phase_clock.calls as f64, n));
    report.set("substrate.ms_per_stmt", ratio(phase_clock.nanos as f64 / 1e6, n));
    report.set("substrate.fsyncs_per_stmt", ratio(phase_clock.fsyncs as f64, n));
    report.set("substrate.fsync_ms_per_stmt", ratio(phase_clock.fsync_nanos as f64 / 1e6, n));
    report.set("plan.cache_hit_ratio", ratio(hits as f64, (hits + misses) as f64));
    report.set("trace.overhead", ratio(untraced_ops, ratio(n, total_ms / 1e3)));
    let rows: u64 = W::TABLES.iter().map(|t| db.table_rows(t).unwrap_or(0)).sum();
    report.set("store.bytes_per_row", ratio(clock.read().store_bytes as f64, rows as f64));
    report.notes.push(format!("traced phase: {n} statements, counts {counts:?}"));

    // Phase 3: counts from the telemetry registry, per statement kind.
    let mut counted = [[0u64; 3]; 3];
    let mut count_n = [0u64; 3];
    oblidb_telemetry::reset_metrics();
    oblidb_telemetry::set_enabled(true);
    for _ in 0..W::COUNTS_PASS {
        let (kind, sql) = mix.next();
        let before = crate::registry_counters(&["blocks_sealed", "blocks_opened", "oram_accesses"]);
        let out = db.execute(&sql);
        let after = crate::registry_counters(&["blocks_sealed", "blocks_opened", "oram_accesses"]);
        for i in 0..3 {
            counted[kind][i] += after[i] - before[i];
        }
        count_n[kind] += 1;
        report.outcome(mix.check(&out));
    }
    oblidb_telemetry::set_enabled(false);
    for (k, kind) in W::KINDS.iter().enumerate() {
        let n = count_n[k] as f64;
        report.set(format!("storage.blocks_sealed.{kind}"), ratio(counted[k][0] as f64, n));
        report.set(format!("storage.blocks_opened.{kind}"), ratio(counted[k][1] as f64, n));
        report.set(format!("oram.accesses.{kind}"), ratio(counted[k][2] as f64, n));
    }
    if let Err(e) = rec.write_jsonl(spans_path) {
        eprintln!("could not write spans to {}: {e}", spans_path.display());
    }
    Ok(())
}
