//! `Timed<M>`: an [`EnclaveMemory`] wrapper that times every call into the
//! substrate and counts fsyncs and the bytes the store holds.
//!
//! It forwards every trait method, the batched ones included, so the
//! per-block default fallbacks of the trait never run: the wrapped engine
//! makes exactly the calls, crossings and trace events it would make on the
//! bare substrate (the tests below check this).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use oblidb_enclave::{EnclaveMemory, HostError, HostStats, RegionId, Trace};

/// Counters shared between the wrapper and the benchmark. Atomics, because
/// the served workload reaches the wrapper from the server's threads.
#[derive(Debug, Default)]
pub struct Clock {
    calls: AtomicU64,
    nanos: AtomicU64,
    fsyncs: AtomicU64,
    fsync_nanos: AtomicU64,
    store_bytes: AtomicI64,
}

/// A point-in-time copy of a [`Clock`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockReading {
    /// Substrate calls, fsyncs included.
    pub calls: u64,
    /// Time inside substrate calls, fsyncs included.
    pub nanos: u64,
    /// `sync` and `sync_region` calls.
    pub fsyncs: u64,
    /// Time inside `sync` and `sync_region`.
    pub fsync_nanos: u64,
    /// Bytes of the regions currently allocated.
    pub store_bytes: i64,
}

impl ClockReading {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ClockReading) -> ClockReading {
        ClockReading {
            calls: self.calls - earlier.calls,
            nanos: self.nanos - earlier.nanos,
            fsyncs: self.fsyncs - earlier.fsyncs,
            fsync_nanos: self.fsync_nanos - earlier.fsync_nanos,
            store_bytes: self.store_bytes - earlier.store_bytes,
        }
    }
}

impl Clock {
    /// Current counter values.
    pub fn read(&self) -> ClockReading {
        ClockReading {
            calls: self.calls.load(Relaxed),
            nanos: self.nanos.load(Relaxed),
            fsyncs: self.fsyncs.load(Relaxed),
            fsync_nanos: self.fsync_nanos.load(Relaxed),
            store_bytes: self.store_bytes.load(Relaxed),
        }
    }

    fn charge(&self, start: Instant) {
        self.calls.fetch_add(1, Relaxed);
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    }

    fn charge_fsync(&self, start: Instant) {
        let nanos = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Relaxed);
        self.nanos.fetch_add(nanos, Relaxed);
        self.fsyncs.fetch_add(1, Relaxed);
        self.fsync_nanos.fetch_add(nanos, Relaxed);
    }
}

/// The timing wrapper. See the module docs.
pub struct Timed<M> {
    inner: M,
    clock: Arc<Clock>,
}

impl<M: EnclaveMemory> Timed<M> {
    /// Wraps `inner`; the returned clock reads the wrapper's counters.
    pub fn new(inner: M) -> (Self, Arc<Clock>) {
        let clock = Arc::new(Clock::default());
        (Timed { inner, clock: Arc::clone(&clock) }, clock)
    }

    fn region_bytes(&self, region: RegionId) -> i64 {
        match (self.inner.region_len(region), self.inner.region_block_size(region)) {
            (Ok(blocks), Ok(size)) => (blocks * size as u64) as i64,
            _ => 0,
        }
    }

    /// Times one forwarded call.
    fn timed<R>(&mut self, f: impl FnOnce(&mut M) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.clock.charge(start);
        out
    }
}

impl<M: EnclaveMemory> EnclaveMemory for Timed<M> {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        let region = self.timed(|m| m.alloc_region(blocks, block_size))?;
        self.clock.store_bytes.fetch_add((blocks * block_size) as i64, Relaxed);
        Ok(region)
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        let bytes = self.region_bytes(region);
        self.timed(|m| m.free_region(region))?;
        self.clock.store_bytes.fetch_sub(bytes, Relaxed);
        Ok(())
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        let before = self.region_bytes(region);
        self.timed(|m| m.grow_region(region, new_blocks))?;
        self.clock.store_bytes.fetch_add(self.region_bytes(region) - before, Relaxed);
        Ok(())
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        self.inner.region_len(region)
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        self.inner.region_block_size(region)
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        let start = Instant::now();
        let out = self.inner.read(region, index);
        self.clock.charge(start);
        out
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        self.timed(|m| m.write(region, index, data))
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        self.timed(|m| m.read_blocks(region, start, count, out))
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        self.timed(|m| m.read_blocks_at(region, indices, out))
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        self.timed(|m| m.write_blocks(region, start, data))
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        self.timed(|m| m.write_blocks_at(region, indices, data))
    }

    fn start_trace(&mut self) {
        self.inner.start_trace()
    }

    fn take_trace(&mut self) -> Trace {
        self.inner.take_trace()
    }

    fn tracing(&self) -> bool {
        self.inner.tracing()
    }

    fn stats(&self) -> HostStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn retains_payloads(&self) -> bool {
        self.inner.retains_payloads()
    }

    fn sync(&mut self) -> Result<(), HostError> {
        let start = Instant::now();
        let out = self.inner.sync();
        self.clock.charge_fsync(start);
        out
    }

    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        let start = Instant::now();
        let out = self.inner.sync_region(region);
        self.clock.charge_fsync(start);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_core::{Database, DbConfig, ExecConfig, StorageMethod};
    use oblidb_enclave::Host;
    use oblidb_workloads::{bdb, synthetic};

    /// One engine per substrate, loaded with small BDB tables, an indexed
    /// point table and a flat key-value table.
    fn loaded<M: EnclaveMemory>(host: M) -> Database<M> {
        let config = DbConfig { exec: ExecConfig::SERIAL, audit: false, ..DbConfig::default() };
        let mut db = Database::with_memory(host, config);
        db.config_mut().planner.enable_continuous = false;
        let rankings = bdb::rankings(600, 5);
        let visits = bdb::uservisits(600, 600, 5);
        db.create_table_with_rows(
            "rankings",
            bdb::rankings_schema(),
            StorageMethod::Both,
            Some("pageRank"),
            &rankings,
            600,
        )
        .unwrap();
        db.create_table_with_rows(
            "uservisits",
            bdb::uservisits_schema(),
            StorageMethod::Flat,
            None,
            &visits,
            600,
        )
        .unwrap();
        let rows = synthetic::table(500, 8, 5);
        db.create_table_with_rows(
            "t",
            synthetic::schema(8),
            StorageMethod::Indexed,
            Some("id"),
            &rows,
            600,
        )
        .unwrap();
        db.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
        for k in 0..50 {
            db.execute(&format!("INSERT INTO kv VALUES ({k}, {})", k * 3)).unwrap();
        }
        db
    }

    /// One statement of every kind the benchmark runs.
    const STATEMENTS: &[&str] = &[
        "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 1500",
        "SELECT ipPrefix8, SUM(adRevenue) FROM uservisits GROUP BY ipPrefix8",
        "SELECT AVG(pageRank), SUM(adRevenue) FROM rankings \
         JOIN uservisits ON rankings.pageURL = uservisits.destURL WHERE visitDate < 3500",
        "SELECT * FROM t WHERE id = 17",
        "INSERT INTO t VALUES (900, 4, 'x')",
        "DELETE FROM t WHERE id = 900",
        "SELECT k, v FROM kv WHERE k = 7",
        "UPDATE kv SET v = 99 WHERE k = 7",
        "INSERT INTO kv VALUES (500, 1)",
        "DELETE FROM kv WHERE k = 500",
    ];

    #[test]
    fn wrapper_leaves_stats_and_traces_identical() {
        let mut bare = loaded(Host::new());
        let (timed, clock) = Timed::new(Host::new());
        let mut wrapped = loaded(timed);
        assert_eq!(bare.host_mut().stats(), wrapped.host_mut().stats(), "after load");
        for sql in STATEMENTS {
            bare.start_trace();
            let bare_out = bare.execute(sql).unwrap();
            let bare_trace = bare.take_trace();
            wrapped.start_trace();
            let wrapped_out = wrapped.execute(sql).unwrap();
            let wrapped_trace = wrapped.take_trace();
            assert!(!bare_trace.is_empty(), "{sql}: empty trace");
            assert_eq!(bare_trace, wrapped_trace, "{sql}: trace");
            assert_eq!(bare.host_mut().stats(), wrapped.host_mut().stats(), "{sql}: stats");
            assert_eq!(bare_out.rows(), wrapped_out.rows(), "{sql}: rows");
        }
        let reading = clock.read();
        assert!(reading.calls > 0 && reading.nanos > 0 && reading.store_bytes > 0);
    }
}
