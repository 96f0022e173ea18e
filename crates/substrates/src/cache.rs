//! A write-back LRU of hot sealed blocks over any inner substrate.

use std::collections::{BTreeMap, HashMap};

use oblidb_enclave::{
    batch_count, AccessEvent, AccessKind, CrossingCost, EnclaveMemory, HostError, HostStats,
    RegionId, Trace,
};

/// Cache-level counters, separate from the [`HostStats`] access counters
/// (which describe the *logical* stream the enclave issued).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Logical accesses served from the cache.
    pub hits: u64,
    /// Logical accesses that had to touch the inner substrate.
    pub misses: u64,
    /// Blocks dropped to make room.
    pub evictions: u64,
    /// Dirty blocks written back to the inner substrate on eviction.
    pub writebacks: u64,
    /// Dirty blocks flushed by [`EnclaveMemory::sync`].
    pub flushed: u64,
}

impl CacheStats {
    /// Hit fraction of all logical accesses (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    data: Vec<u8>,
    dirty: bool,
    tick: u64,
}

/// An LRU cache of hot sealed blocks wrapping any [`EnclaveMemory`].
///
/// The cache models (and later exploits) host-side caching **without
/// weakening the trace model**: every logical block access is recorded in
/// the wrapper's trace and [`HostStats`] exactly as a raw
/// [`Host`](oblidb_enclave::Host) would record it — same events, same
/// order, same counters, failed attempts included — so obliviousness
/// tests comparing transcripts are oblivious to the cache's existence.
/// What changes is the *inner* substrate's traffic: hits never touch it,
/// and `inner().stats()` shows the savings (the interesting number when
/// the inner store is [`DiskMemory`](crate::DiskMemory)).
///
/// Policy: write-back with per-block dirty bits. Writes update only the
/// cache; dirty blocks reach the inner substrate on eviction or
/// [`EnclaveMemory::sync`] (which flushes in deterministic region/index
/// order, coalescing consecutive runs into batched inner writes, then
/// syncs the inner substrate). Evictions are paid the same way: a batched
/// operation pre-evicts everything it displaces in one wave, so
/// consecutive dirty victims drain as one batched inner write per run
/// instead of one single-block write per eviction. Capacity is counted in
/// blocks; a batched read larger than the capacity still completes — it
/// just cannot retain the whole run.
///
/// Consecutive misses inside a batched read are coalesced into one
/// batched inner fetch (one inner crossing per run); a failing run is
/// replayed per block, preserving `Host`-exact failure ordering inside
/// batches.
pub struct CachedMemory<M: EnclaveMemory> {
    inner: M,
    capacity: usize,
    entries: HashMap<(RegionId, u64), Entry>,
    /// LRU order: tick → key. Ticks are unique (monotone counter), so the
    /// first entry is always the least recently used block.
    lru: BTreeMap<u64, (RegionId, u64)>,
    tick: u64,
    trace: Option<Vec<AccessEvent>>,
    stats: HostStats,
    cache_stats: CacheStats,
    crossing: CrossingCost,
}

impl<M: EnclaveMemory> CachedMemory<M> {
    /// Wraps `inner` with an LRU holding at most `capacity_blocks` blocks.
    pub fn new(inner: M, capacity_blocks: usize) -> Self {
        assert!(capacity_blocks > 0, "cache capacity must be at least one block");
        CachedMemory {
            inner,
            capacity: capacity_blocks,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            trace: None,
            stats: HostStats::default(),
            cache_stats: CacheStats::default(),
            crossing: CrossingCost::default(),
        }
    }

    /// The inner substrate (e.g. to read its stats: the backing traffic
    /// after cache absorption).
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutable access to the inner substrate. Mutating blocks directly
    /// through this bypasses the cache and can make cached copies stale —
    /// meant for substrate-level configuration (crossing costs, traces of
    /// backing traffic), not block I/O.
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Cache-level counters (hits/misses/evictions/writebacks/flushes).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.entries.len()
    }

    fn record(&mut self, region: RegionId, index: u64, kind: AccessKind) {
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent { region, index, kind });
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Moves `key` to most-recently-used.
    fn touch(&mut self, key: (RegionId, u64)) {
        let tick = self.next_tick();
        if let Some(e) = self.entries.get_mut(&key) {
            self.lru.remove(&e.tick);
            e.tick = tick;
            self.lru.insert(tick, key);
        }
    }

    /// Evicts the `count` least-recently-used blocks in one wave.
    ///
    /// Dirty victims are written back first, sorted by (region, index)
    /// with consecutive runs **coalesced** into single batched inner
    /// writes — a cache full of sequentially-written dirty blocks drains
    /// in one inner crossing per run instead of one per block. A failed
    /// write-back aborts the wave before any victim is dropped: every
    /// entry stays cached (dirty ones still dirty), so the only
    /// up-to-date copy of a block is never lost to an inner I/O error.
    fn evict_many(&mut self, count: usize) -> Result<(), HostError> {
        let count = count.min(self.entries.len());
        if count == 0 {
            return Ok(());
        }
        let victims: Vec<(RegionId, u64)> = self.lru.values().copied().take(count).collect();
        let mut dirty: Vec<(RegionId, u64)> =
            victims.iter().copied().filter(|k| self.entries[k].dirty).collect();
        dirty.sort_unstable();
        let mut i = 0;
        while i < dirty.len() {
            let (region, start) = dirty[i];
            let mut run = 1;
            while i + run < dirty.len()
                && dirty[i + run].0 == region
                && dirty[i + run].1 == start + run as u64
            {
                run += 1;
            }
            let mut buf = Vec::new();
            for k in &dirty[i..i + run] {
                buf.extend_from_slice(&self.entries[k].data);
            }
            self.inner.write_blocks(region, start, &buf)?;
            for k in &dirty[i..i + run] {
                self.entries.get_mut(k).expect("dirty key cached").dirty = false;
                self.cache_stats.writebacks += 1;
            }
            i += run;
        }
        // Every write-back landed; now the victims can be dropped.
        for key in victims {
            let e = self.entries.remove(&key).expect("victim cached");
            self.lru.remove(&e.tick);
            self.cache_stats.evictions += 1;
        }
        Ok(())
    }

    /// Pre-evicts enough blocks for `incoming` new keys in one coalesced
    /// wave, so a batched operation pays one write-back run per dirty
    /// stretch instead of one single-block inner write per install.
    fn reserve(&mut self, incoming: usize) -> Result<(), HostError> {
        let need = (self.entries.len() + incoming.min(self.capacity)).saturating_sub(self.capacity);
        self.evict_many(need)
    }

    /// Inserts (or replaces) a cached block, evicting as needed.
    fn install(
        &mut self,
        key: (RegionId, u64),
        data: Vec<u8>,
        dirty: bool,
    ) -> Result<(), HostError> {
        if let Some(e) = self.entries.get_mut(&key) {
            e.data = data;
            e.dirty = e.dirty || dirty;
            self.touch(key);
            return Ok(());
        }
        if self.entries.len() >= self.capacity {
            self.evict_many(1)?;
        }
        let tick = self.next_tick();
        self.entries.insert(key, Entry { data, dirty, tick });
        self.lru.insert(tick, key);
        Ok(())
    }

    /// Counts the distinct in-bounds indices a batch will newly cache —
    /// the slot count [`CachedMemory::reserve`] frees up front.
    fn incoming(&self, region: RegionId, len: u64, idx: &[u64]) -> usize {
        let mut uniq: Vec<u64> = idx
            .iter()
            .copied()
            .filter(|&i| i < len && !self.entries.contains_key(&(region, i)))
            .collect();
        uniq.sort_unstable();
        uniq.dedup();
        uniq.len()
    }

    /// Ensures `key`'s block is cached (fetching from inner on a miss)
    /// and LRU-touched; returns its payload length. Trace/bounds must be
    /// handled by the caller.
    fn load(&mut self, key: (RegionId, u64)) -> Result<usize, HostError> {
        if self.entries.contains_key(&key) {
            self.cache_stats.hits += 1;
            self.touch(key);
        } else {
            let data = self.inner.read(key.0, key.1)?.to_vec();
            self.cache_stats.misses += 1;
            self.install(key, data, false)?;
        }
        Ok(self.entries[&key].data.len())
    }

    /// Shared body of the batched reads: per-block trace/validate/load
    /// through the cache (Host's per-block contract), one logical
    /// crossing. `region_len` is pre-fetched by the caller (Host checks
    /// the region before recording any batch event).
    ///
    /// Consecutive cache misses are **coalesced**: a run of
    /// block-consecutive, uncached, in-bounds indices is fetched from the
    /// inner substrate with one batched `read_blocks` call — one inner
    /// crossing for the whole run, where the per-block path paid one per
    /// miss (the decisive saving when the inner store is
    /// [`DiskMemory`](crate::DiskMemory)). A run whose batched fetch
    /// fails is replayed per block so errors keep Host-exact ordering,
    /// state, and identity.
    fn read_gather(
        &mut self,
        region: RegionId,
        len: u64,
        indices: impl Iterator<Item = u64>,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        let block_size = self.inner.region_block_size(region)?;
        let idx: Vec<u64> = indices.collect();
        // One coalesced eviction wave up front, instead of a single-block
        // write-back per miss installed below.
        let incoming = self.incoming(region, len, &idx);
        self.reserve(incoming)?;
        let mut crossed = false;
        let mut fetched = Vec::new();
        let mut i = 0;
        while i < idx.len() {
            let index = idx[i];
            self.record(region, index, AccessKind::Read);
            if index >= len {
                return Err(HostError::OutOfBounds { region, index, len });
            }
            let key = (region, index);
            if self.entries.contains_key(&key) || block_size == 0 {
                // Hit (or a degenerate zero-size block region, which the
                // batch buffer cannot express): the per-block path.
                let payload = self.load(key)?;
                if !crossed {
                    self.crossing.cross(&mut self.stats);
                    crossed = true;
                }
                out.extend_from_slice(&self.entries[&key].data);
                self.stats.reads += 1;
                self.stats.bytes_read += payload as u64;
                i += 1;
                continue;
            }
            // Miss: extend the run while the request keeps asking for the
            // next consecutive block and it is uncached and in bounds.
            // (Cached blocks stop the run — they may hold dirty data the
            // inner substrate has not seen.)
            let mut run = 1;
            while i + run < idx.len()
                && idx[i + run] == index + run as u64
                && idx[i + run] < len
                && !self.entries.contains_key(&(region, idx[i + run]))
            {
                run += 1;
            }
            match self.inner.read_blocks(region, index, run, &mut fetched) {
                Ok(()) => {
                    for (j, chunk) in fetched.chunks_exact(block_size).enumerate() {
                        let j_index = index + j as u64;
                        if j > 0 {
                            self.record(region, j_index, AccessKind::Read);
                        }
                        self.cache_stats.misses += 1;
                        self.install((region, j_index), chunk.to_vec(), false)?;
                        if !crossed {
                            self.crossing.cross(&mut self.stats);
                            crossed = true;
                        }
                        out.extend_from_slice(chunk);
                        self.stats.reads += 1;
                        self.stats.bytes_read += block_size as u64;
                    }
                    i += run;
                }
                Err(_) => {
                    // The run contains a failing block. Replay the WHOLE
                    // run per block (not just the first index, which would
                    // rebuild ever-shorter doomed batches): blocks before
                    // the failure load and cache exactly as the unbatched
                    // path would, and the failing index surfaces its own
                    // error with its trace event already recorded.
                    for j in 0..run {
                        let j_index = index + j as u64;
                        if j > 0 {
                            self.record(region, j_index, AccessKind::Read);
                        }
                        let payload = self.load((region, j_index))?;
                        if !crossed {
                            self.crossing.cross(&mut self.stats);
                            crossed = true;
                        }
                        out.extend_from_slice(&self.entries[&(region, j_index)].data);
                        self.stats.reads += 1;
                        self.stats.bytes_read += payload as u64;
                    }
                    i += run;
                }
            }
        }
        Ok(())
    }

    /// Shared body of the batched writes: install each chunk dirty, one
    /// logical crossing.
    fn write_scatter(
        &mut self,
        region: RegionId,
        len: u64,
        indices: impl Iterator<Item = u64>,
        data: &[u8],
        block_size: usize,
    ) -> Result<(), HostError> {
        let idx: Vec<u64> = indices.collect();
        // As in `read_gather`: drain the needed capacity in one coalesced
        // write-back wave before the per-block installs.
        let incoming = self.incoming(region, len, &idx);
        self.reserve(incoming)?;
        let mut crossed = false;
        for (index, chunk) in idx.iter().copied().zip(data.chunks_exact(block_size)) {
            self.record(region, index, AccessKind::Write);
            if index >= len {
                return Err(HostError::OutOfBounds { region, index, len });
            }
            self.install((region, index), chunk.to_vec(), true)?;
            if !crossed {
                self.crossing.cross(&mut self.stats);
                crossed = true;
            }
            self.stats.writes += 1;
            self.stats.bytes_written += block_size as u64;
        }
        Ok(())
    }

    /// Flushes every dirty block (region/index order, consecutive runs
    /// coalesced into one batched inner write each) without syncing inner.
    /// `only` restricts the flush to one region (the `sync_region` path).
    fn flush_dirty(&mut self, only: Option<RegionId>) -> Result<(), HostError> {
        let mut dirty: Vec<(RegionId, u64)> = self
            .entries
            .iter()
            .filter(|(k, e)| e.dirty && only.is_none_or(|r| k.0 == r))
            .map(|(k, _)| *k)
            .collect();
        dirty.sort_unstable();
        let mut i = 0;
        while i < dirty.len() {
            let (region, start) = dirty[i];
            let mut run = 1;
            while i + run < dirty.len()
                && dirty[i + run].0 == region
                && dirty[i + run].1 == start + run as u64
            {
                run += 1;
            }
            let mut buf = Vec::new();
            for k in &dirty[i..i + run] {
                buf.extend_from_slice(&self.entries[k].data);
            }
            self.inner.write_blocks(region, start, &buf)?;
            for k in &dirty[i..i + run] {
                self.entries.get_mut(k).expect("dirty key cached").dirty = false;
                self.cache_stats.flushed += 1;
            }
            i += run;
        }
        Ok(())
    }
}

impl<M: EnclaveMemory> EnclaveMemory for CachedMemory<M> {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        self.inner.alloc_region(blocks, block_size)
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        // Cached copies (dirty or clean) die with the region.
        let keys: Vec<(RegionId, u64)> =
            self.entries.keys().filter(|(r, _)| *r == region).copied().collect();
        for key in keys {
            let e = self.entries.remove(&key).expect("key just listed");
            self.lru.remove(&e.tick);
        }
        self.inner.free_region(region)
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        self.inner.grow_region(region, new_blocks)
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        self.inner.region_len(region)
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        self.inner.region_block_size(region)
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        self.record(region, index, AccessKind::Read);
        let len = self.inner.region_len(region)?;
        if index >= len {
            return Err(HostError::OutOfBounds { region, index, len });
        }
        let key = (region, index);
        let payload = self.load(key)?;
        self.crossing.cross(&mut self.stats);
        self.stats.reads += 1;
        self.stats.bytes_read += payload as u64;
        Ok(&self.entries[&key].data)
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        self.record(region, index, AccessKind::Write);
        let expected = self.inner.region_block_size(region)?;
        if data.len() != expected {
            return Err(HostError::BlockSizeMismatch { region, expected, got: data.len() });
        }
        let len = self.inner.region_len(region)?;
        if index >= len {
            return Err(HostError::OutOfBounds { region, index, len });
        }
        self.install((region, index), data.to_vec(), true)?;
        self.crossing.cross(&mut self.stats);
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        // Clear before the region check too: Host never leaves stale
        // bytes in the caller's buffer, even on UnknownRegion.
        out.clear();
        let len = self.inner.region_len(region)?;
        self.read_gather(region, len, start..start + count as u64, out)
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        let len = self.inner.region_len(region)?;
        self.read_gather(region, len, indices.iter().copied(), out)
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        let block_size = self.inner.region_block_size(region)?;
        let count = batch_count(region, block_size, data.len())? as u64;
        let len = self.inner.region_len(region)?;
        self.write_scatter(region, len, start..start + count, data, block_size)
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        let block_size = self.inner.region_block_size(region)?;
        if batch_count(region, block_size, data.len())? != indices.len() {
            return Err(HostError::BlockSizeMismatch {
                region,
                expected: indices.len() * block_size,
                got: data.len(),
            });
        }
        let len = self.inner.region_len(region)?;
        self.write_scatter(region, len, indices.iter().copied(), data, block_size)
    }

    fn start_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    fn take_trace(&mut self) -> Trace {
        Trace(self.trace.take().unwrap_or_default())
    }

    fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    fn stats(&self) -> HostStats {
        self.stats
    }

    /// Zeroes both the logical [`HostStats`] and the [`CacheStats`]; the
    /// configured crossing cost is preserved. The inner substrate's stats
    /// are its own (`inner_mut().reset_stats()`).
    fn reset_stats(&mut self) {
        self.stats = HostStats::default();
        self.cache_stats = CacheStats::default();
    }

    fn retains_payloads(&self) -> bool {
        self.inner.retains_payloads()
    }

    fn sync(&mut self) -> Result<(), HostError> {
        self.flush_dirty(None)?;
        self.inner.sync()
    }

    /// Writes back just this region's dirty blocks (coalesced runs), then
    /// region-syncs the inner substrate — the WAL's durable-append path
    /// pays one region flush, not a whole-cache flush.
    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        self.flush_dirty(Some(region))?;
        self.inner.sync_region(region)
    }

    /// Prices the *logical* boundary only: every cached or uncached access
    /// crosses it once, while a miss's inner fetch is a host-side cache
    /// fill, not a second enclave transition, so the inner substrate keeps
    /// its own (normally zero) price.
    fn set_crossing_cost(&mut self, cost: CrossingCost) {
        self.crossing = cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_enclave::Host;

    #[test]
    fn hits_avoid_inner_traffic() {
        let mut m = CachedMemory::new(Host::new(), 8);
        let r = m.alloc_region(4, 4).unwrap();
        m.write(r, 0, &[1; 4]).unwrap();
        for _ in 0..5 {
            assert_eq!(m.read(r, 0).unwrap(), &[1; 4]);
        }
        assert_eq!(m.inner().stats().total_accesses(), 0, "write-back + hits: inner untouched");
        assert_eq!(m.cache_stats().hits, 5);
        assert_eq!(m.stats().reads, 5, "logical stats still count every read");
    }

    #[test]
    fn eviction_writes_back_dirty_blocks() {
        let mut m = CachedMemory::new(Host::new(), 2);
        let r = m.alloc_region(8, 4).unwrap();
        m.write(r, 0, &[0; 4]).unwrap();
        m.write(r, 1, &[1; 4]).unwrap();
        m.write(r, 2, &[2; 4]).unwrap(); // evicts block 0 → inner
        let cs = m.cache_stats();
        assert_eq!((cs.evictions, cs.writebacks), (1, 1));
        assert_eq!(m.inner().stats().writes, 1);
        // Re-reading block 0 misses and fetches the written-back copy.
        assert_eq!(m.read(r, 0).unwrap(), &[0; 4]);
        assert_eq!(m.cache_stats().misses, 1);
    }

    #[test]
    fn sync_flushes_dirty_runs_batched() {
        let mut m = CachedMemory::new(Host::new(), 16);
        let r = m.alloc_region(8, 4).unwrap();
        m.write_blocks(r, 2, &[7u8; 12]).unwrap(); // blocks 2,3,4 dirty
        m.write(r, 6, &[9; 4]).unwrap();
        assert_eq!(m.inner().stats().writes, 0);
        m.sync().unwrap();
        let inner = m.inner().stats();
        assert_eq!(inner.writes, 4);
        assert_eq!(inner.crossings, 2, "one run of 3 + one single = two batched writes");
        assert_eq!(m.cache_stats().flushed, 4);
        m.sync().unwrap();
        assert_eq!(m.cache_stats().flushed, 4, "clean blocks are not re-flushed");
    }

    #[test]
    fn eviction_waves_coalesce_dirty_writebacks() {
        // Fill an 8-block cache with sequential dirty blocks, then read a
        // cold range from another region: the 8 evictions must drain as
        // ONE batched inner write (one inner crossing), not eight singles.
        let mut m = CachedMemory::new(Host::new(), 8);
        let r = m.alloc_region(8, 4).unwrap();
        m.write_blocks(r, 0, &[5u8; 32]).unwrap();
        let cold = m.alloc_region(8, 4).unwrap();
        m.inner_mut().write_blocks(cold, 0, &[1u8; 32]).unwrap();
        m.inner_mut().reset_stats();
        let mut out = Vec::new();
        m.read_blocks(cold, 0, 8, &mut out).unwrap();
        assert_eq!(out, vec![1u8; 32]);
        let cs = m.cache_stats();
        assert_eq!((cs.evictions, cs.writebacks), (8, 8));
        let inner = m.inner().stats();
        assert_eq!(inner.writes, 8);
        assert_eq!(inner.crossings, 2, "one coalesced write-back wave + one coalesced fetch");
    }

    #[test]
    fn eviction_wave_splits_nonconsecutive_runs() {
        let mut m = CachedMemory::new(Host::new(), 4);
        let r = m.alloc_region(16, 4).unwrap();
        for i in [0u64, 1, 8, 9] {
            m.write(r, i, &[i as u8; 4]).unwrap();
        }
        let cold = m.alloc_region(4, 4).unwrap();
        m.inner_mut().write_blocks(cold, 0, &[2u8; 16]).unwrap();
        m.inner_mut().reset_stats();
        let mut out = Vec::new();
        m.read_blocks(cold, 0, 4, &mut out).unwrap();
        assert_eq!(out, vec![2u8; 16]);
        let inner = m.inner().stats();
        assert_eq!(inner.writes, 4);
        assert_eq!(
            inner.crossings, 3,
            "dirty runs 0..2 and 8..10 drain as two batched writes, plus one coalesced fetch"
        );
    }

    #[test]
    fn failed_writeback_keeps_entries_cached_and_dirty() {
        let mut m = CachedMemory::new(Host::new(), 2);
        let r = m.alloc_region(2, 4).unwrap();
        m.write(r, 0, &[3; 4]).unwrap();
        // Sabotage: drop the inner region behind the cache's back, so the
        // eventual write-back of (r, 0) must fail.
        m.inner_mut().free_region(r).unwrap();
        let r2 = m.alloc_region(2, 4).unwrap();
        m.write(r2, 0, &[1; 4]).unwrap();
        let err = m.write(r2, 1, &[1; 4]).unwrap_err();
        assert_eq!(err, HostError::UnknownRegion(r));
        // The wave aborted before dropping anything: both victims stay
        // cached, the dirty block keeps its only up-to-date copy.
        assert_eq!(m.cached_blocks(), 2);
        assert_eq!(m.cache_stats().evictions, 0);
    }

    #[test]
    fn trace_and_stats_match_host_exactly() {
        fn drive<M: EnclaveMemory>(m: &mut M) -> (Trace, HostStats, Vec<u8>) {
            let r = m.alloc_region(8, 4).unwrap();
            m.start_trace();
            m.reset_stats();
            let data: Vec<u8> = (0..32).collect();
            m.write_blocks(r, 0, &data).unwrap();
            let mut out = Vec::new();
            m.read_blocks(r, 2, 4, &mut out).unwrap();
            m.write_blocks_at(r, &[7, 0], &data[..8]).unwrap();
            let mut gathered = Vec::new();
            m.read_blocks_at(r, &[7, 1, 0], &mut gathered).unwrap();
            out.extend_from_slice(&gathered);
            out.extend_from_slice(m.read(r, 5).unwrap());
            (m.take_trace(), m.stats(), out)
        }
        let (ht, hs, hb) = drive(&mut Host::new());
        // A tiny cache (forced evictions) must still look identical.
        let (ct, cs, cb) = drive(&mut CachedMemory::new(Host::new(), 2));
        assert_eq!(ht, ct, "logical trace must not betray the cache");
        assert_eq!(hs, cs, "logical stats must not betray the cache");
        assert_eq!(hb, cb, "payloads must round-trip through evictions");
    }

    #[test]
    fn error_contract_matches_host() {
        let mut m = CachedMemory::new(Host::new(), 4);
        let r = m.alloc_region(4, 8).unwrap();
        assert_eq!(m.read(r, 0), Err(HostError::EmptyBlock(r, 0)));
        assert!(matches!(m.write(r, 9, &[0; 8]), Err(HostError::OutOfBounds { .. })));
        assert!(matches!(
            m.write(r, 0, &[0; 7]),
            Err(HostError::BlockSizeMismatch { expected: 8, got: 7, .. })
        ));
        m.free_region(r).unwrap();
        assert_eq!(m.read(r, 0), Err(HostError::UnknownRegion(r)));
    }

    #[test]
    fn free_region_discards_cached_blocks() {
        let mut m = CachedMemory::new(Host::new(), 4);
        let r = m.alloc_region(2, 4).unwrap();
        m.write(r, 0, &[1; 4]).unwrap();
        m.free_region(r).unwrap();
        assert_eq!(m.cached_blocks(), 0);
        // A new region may reuse block addresses; stale data must be gone.
        let r2 = m.alloc_region(2, 4).unwrap();
        assert_eq!(m.read(r2, 0), Err(HostError::EmptyBlock(r2, 0)));
    }

    #[test]
    fn batched_misses_coalesce_into_one_inner_fetch() {
        // 16 cold blocks, written straight through to inner so the cache
        // holds nothing: one batched read must cost ONE inner crossing,
        // not sixteen.
        let mut m = CachedMemory::new(Host::new(), 32);
        let r = m.alloc_region(16, 4).unwrap();
        m.write_blocks(r, 0, &[9u8; 64]).unwrap();
        // Fill the cache from another region so every region-r entry is
        // evicted (written back), then sync so the cache holds only clean
        // blocks — the measured read then pays no writeback traffic.
        let spill = m.alloc_region(32, 4).unwrap();
        m.write_blocks(spill, 0, &[0u8; 128]).unwrap();
        assert_eq!(m.cached_blocks(), 32, "region-r entries were evicted");
        m.sync().unwrap();
        m.inner_mut().reset_stats();
        m.reset_stats();

        let mut out = Vec::new();
        m.read_blocks(r, 0, 16, &mut out).unwrap();
        assert_eq!(out, vec![9u8; 64]);
        let cs = m.cache_stats();
        assert_eq!((cs.hits, cs.misses), (0, 16), "all cold");
        assert_eq!(
            m.inner().stats().crossings,
            1,
            "16 consecutive misses coalesce into one batched inner read"
        );
        assert_eq!(m.inner().stats().reads, 16);
        assert_eq!(m.stats().crossings, 1, "wrapper still reports one logical crossing");

        // A cached block mid-range splits the run — it may hold dirty
        // data the inner substrate has not seen, and must be served from
        // the cache, never refetched.
        let mut m2 = CachedMemory::new(Host::new(), 16);
        let r2 = m2.alloc_region(8, 4).unwrap();
        // Seed inner directly (substrate-level population the cache never
        // saw), then dirty block 4 through the wrapper.
        m2.inner_mut().write_blocks(r2, 0, &[1u8; 32]).unwrap();
        m2.write(r2, 4, &[7u8; 4]).unwrap();
        m2.inner_mut().reset_stats();
        let mut out2 = Vec::new();
        m2.read_blocks(r2, 0, 8, &mut out2).unwrap();
        let mut expect = vec![1u8; 32];
        expect[16..20].copy_from_slice(&[7u8; 4]);
        assert_eq!(out2, expect, "the dirty cached block wins over inner");
        let cs2 = m2.cache_stats();
        assert_eq!((cs2.hits, cs2.misses), (1, 7));
        assert_eq!(
            m2.inner().stats().crossings,
            2,
            "runs 0..4 and 5..8 are one coalesced fetch each; the hit splits them"
        );
    }

    #[test]
    fn coalesced_misses_keep_host_error_contract() {
        // Blocks 0..2 written, 2 empty, 3 written: a batched read of 0..4
        // must fail with EmptyBlock(2) after successfully tracing 0,1,2 —
        // exactly as Host would.
        fn drive<M: EnclaveMemory>(m: &mut M) -> (Trace, Result<(), HostError>) {
            let r = m.alloc_region(4, 2).unwrap();
            m.write_blocks(r, 0, &[1, 1, 2, 2]).unwrap();
            m.write(r, 3, &[3, 3]).unwrap();
            m.start_trace();
            let mut out = Vec::new();
            let res = m.read_blocks(r, 0, 4, &mut out).map(|_| ());
            (m.take_trace(), res)
        }
        let (ht, hr) = drive(&mut Host::new());
        let mut cached = CachedMemory::new(Host::new(), 8);
        // Push the written blocks down to inner and clear the cache so the
        // miss path (and its fallback) is what gets exercised.
        let (ct, cr) = {
            let r = cached.alloc_region(4, 2).unwrap();
            cached.write_blocks(r, 0, &[1, 1, 2, 2]).unwrap();
            cached.write(r, 3, &[3, 3]).unwrap();
            cached.sync().unwrap();
            let spill = cached.alloc_region(8, 2).unwrap();
            cached.write_blocks(spill, 0, &[0u8; 16]).unwrap();
            cached.start_trace();
            let mut out = Vec::new();
            let res = cached.read_blocks(r, 0, 4, &mut out).map(|_| ());
            (cached.take_trace(), res)
        };
        assert_eq!(hr, cr, "same error, same identity");
        assert_eq!(ht, ct, "same per-block trace up to and including the failure");
    }

    #[test]
    fn batch_larger_than_capacity_completes() {
        let mut m = CachedMemory::new(Host::new(), 2);
        let r = m.alloc_region(16, 4).unwrap();
        let data = vec![3u8; 64];
        m.write_blocks(r, 0, &data).unwrap();
        m.sync().unwrap();
        let mut out = Vec::new();
        m.read_blocks(r, 0, 16, &mut out).unwrap();
        assert_eq!(out, data);
        assert!(m.cache_stats().evictions > 0);
    }
}
