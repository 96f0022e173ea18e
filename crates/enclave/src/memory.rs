//! The block-store seam every layer of the engine is written against.
//!
//! ObliDB's trusted code never cares *where* untrusted blocks live — only
//! that each boundary crossing is observable. [`EnclaveMemory`] captures
//! exactly the surface the engine needs (allocate / free / grow / read /
//! write / stats / trace), so the same operators run unchanged over the
//! in-memory [`Host`], the payload-free [`CountingMemory`] cost model, and
//! — in later iterations — disk-backed or sharded backends.

use crate::host::{
    batch_count, AccessEvent, AccessKind, CrossingCost, Host, HostError, HostStats, RegionId, Trace,
};

/// Abstract untrusted block memory, as seen from inside the enclave.
///
/// Everything the engine does to the outside world goes through this trait;
/// region identity, block indices and access direction are public (the
/// adversary's view), payload bytes are sealed before they arrive here.
///
/// Implementors: [`Host`] (stores sealed payloads, the default substrate)
/// and [`CountingMemory`] (drops payloads, counts accesses — a fast cost
/// model). Code generic over `M: EnclaveMemory` must keep its *access
/// pattern* independent of payload contents; that is the obliviousness
/// property the test suite asserts via trace equality.
pub trait EnclaveMemory {
    /// Allocates a region of `blocks` blocks, each `block_size` bytes.
    ///
    /// Allocation size is public (the paper leaks data-structure sizes).
    /// Allocation is **fallible**: a disk-backed substrate that cannot
    /// create or size the backing file (ENOSPC, lost permissions) surfaces
    /// [`HostError::Io`] with [`IoOp::Alloc`](crate::IoOp) context instead
    /// of panicking; in-memory substrates always return `Ok`.
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError>;

    /// Frees a region (e.g. an intermediate table that was consumed).
    /// Fallible for the same reason as [`EnclaveMemory::alloc_region`]
    /// (deleting a region file can fail); freeing an unknown region is a
    /// no-op, as before.
    fn free_region(&mut self, region: RegionId) -> Result<(), HostError>;

    /// Grows a region to `new_blocks` blocks (growth is public).
    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError>;

    /// Number of blocks in a region.
    fn region_len(&self, region: RegionId) -> Result<u64, HostError>;

    /// The sealed-block size of a region.
    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError>;

    /// Reads a sealed block. Observable by the adversary.
    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError>;

    /// Writes a sealed block. Observable by the adversary.
    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError>;

    /// Reads `count` consecutive sealed blocks starting at `start` into
    /// `out` (cleared first). The adversary observes every block index
    /// either way; batching only amortizes the per-crossing cost, so
    /// [`HostStats::crossings`](crate::HostStats) is the one counter where
    /// substrates with native support differ from this per-block fallback.
    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        for i in 0..count as u64 {
            let block = self.read(region, start + i)?;
            out.extend_from_slice(block);
        }
        Ok(())
    }

    /// Gather read: the sealed blocks at `indices`, in order, into `out`
    /// (cleared first). Used for non-contiguous batches such as an ORAM
    /// root-to-leaf path. Same fallback semantics as
    /// [`EnclaveMemory::read_blocks`].
    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        for &index in indices {
            let block = self.read(region, index)?;
            out.extend_from_slice(block);
        }
        Ok(())
    }

    /// Writes `data` — a whole number of sealed blocks — to consecutive
    /// indices starting at `start`. Fallback: one `write` per block.
    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        let block_size = self.region_block_size(region)?;
        batch_count(region, block_size, data.len())?;
        for (i, chunk) in data.chunks_exact(block_size).enumerate() {
            self.write(region, start + i as u64, chunk)?;
        }
        Ok(())
    }

    /// Scatter write: one sealed block from `data` per index in `indices`,
    /// in order. Fallback: one `write` per block.
    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        let block_size = self.region_block_size(region)?;
        if batch_count(region, block_size, data.len())? != indices.len() {
            return Err(HostError::BlockSizeMismatch {
                region,
                expected: indices.len() * block_size,
                got: data.len(),
            });
        }
        for (&index, chunk) in indices.iter().zip(data.chunks_exact(block_size)) {
            self.write(region, index, chunk)?;
        }
        Ok(())
    }

    /// Starts recording accesses (clearing any previous recording).
    fn start_trace(&mut self);

    /// Stops recording and returns the transcript.
    fn take_trace(&mut self) -> Trace;

    /// Whether a trace is being recorded.
    fn tracing(&self) -> bool;

    /// Aggregate statistics since the last [`EnclaveMemory::reset_stats`].
    fn stats(&self) -> HostStats;

    /// Zeroes the aggregate counters.
    fn reset_stats(&mut self);

    /// Whether reads return the payload bytes that were written.
    ///
    /// `true` for real substrates. [`CountingMemory`] returns `false`: it
    /// discards payloads, so the sealed-storage layer skips decryption and
    /// synthesizes zeroed plaintext instead of failing authentication.
    /// Oblivious code paths have payload-independent access patterns, so
    /// access counts and trace shapes are preserved.
    fn retains_payloads(&self) -> bool {
        true
    }

    /// Flushes any buffered state down to the substrate's durable medium.
    ///
    /// Durable substrates (disk-backed files) fsync; caching substrates
    /// write back dirty blocks to their inner store and then sync it;
    /// purely in-memory substrates ([`Host`], [`CountingMemory`]) have
    /// nothing to flush and keep this default no-op. Called from WAL
    /// checkpoint paths, so a checkpoint means the same thing on every
    /// substrate. Flush writes are driven by which blocks are dirty —
    /// state the adversary already observed being written — so syncing
    /// adds no new leakage.
    fn sync(&mut self) -> Result<(), HostError> {
        Ok(())
    }

    /// Flushes one region's buffered state down to the durable medium.
    ///
    /// The write-ahead-log append path uses this: a log record must be
    /// durable *before* its mutation executes, without paying a full-store
    /// flush per statement. Disk substrates fsync just that region's file;
    /// caching substrates write back just that region's dirty blocks. The
    /// default falls back to a full [`EnclaveMemory::sync`], which is
    /// always correct (it flushes a superset).
    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        let _ = region;
        self.sync()
    }

    /// Sets the simulated price of one boundary crossing (~8,000+ cycles on
    /// real SGX whatever the payload size: the fixed cost batching
    /// amortizes). Substrates start unpriced, so traces and unit tests are
    /// unaffected, and the price survives [`EnclaveMemory::reset_stats`].
    /// The default ignores it: a substrate with no modelled boundary, such
    /// as [`CountingMemory`].
    fn set_crossing_cost(&mut self, cost: CrossingCost) {
        let _ = cost;
    }
}

/// A boxed substrate is a substrate: every call, defaulted ones included,
/// reaches the boxed value's own implementation. This is what lets a
/// runtime-selected stack (`Box<dyn EnclaveMemory + Send>`) stand in for
/// a concrete one.
impl<M: EnclaveMemory + ?Sized> EnclaveMemory for Box<M> {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        (**self).alloc_region(blocks, block_size)
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        (**self).free_region(region)
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        (**self).grow_region(region, new_blocks)
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        (**self).region_len(region)
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        (**self).region_block_size(region)
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        (**self).read(region, index)
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        (**self).write(region, index, data)
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        (**self).read_blocks(region, start, count, out)
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        (**self).read_blocks_at(region, indices, out)
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        (**self).write_blocks(region, start, data)
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        (**self).write_blocks_at(region, indices, data)
    }

    fn start_trace(&mut self) {
        (**self).start_trace()
    }

    fn take_trace(&mut self) -> Trace {
        (**self).take_trace()
    }

    fn tracing(&self) -> bool {
        (**self).tracing()
    }

    fn stats(&self) -> HostStats {
        (**self).stats()
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }

    fn retains_payloads(&self) -> bool {
        (**self).retains_payloads()
    }

    fn sync(&mut self) -> Result<(), HostError> {
        (**self).sync()
    }

    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        (**self).sync_region(region)
    }

    fn set_crossing_cost(&mut self, cost: CrossingCost) {
        (**self).set_crossing_cost(cost)
    }
}

impl EnclaveMemory for Host {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        Host::alloc_region(self, blocks, block_size)
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        Host::free_region(self, region)
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        Host::grow_region(self, region, new_blocks)
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        Host::region_len(self, region)
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        Host::region_block_size(self, region)
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        Host::read(self, region, index)
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        Host::write(self, region, index, data)
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        Host::read_blocks(self, region, start, count, out)
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        Host::read_blocks_at(self, region, indices, out)
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        Host::write_blocks(self, region, start, data)
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        Host::write_blocks_at(self, region, indices, data)
    }

    fn start_trace(&mut self) {
        Host::start_trace(self)
    }

    fn take_trace(&mut self) -> Trace {
        Host::take_trace(self)
    }

    fn tracing(&self) -> bool {
        Host::tracing(self)
    }

    fn stats(&self) -> HostStats {
        Host::stats(self)
    }

    fn reset_stats(&mut self) {
        Host::reset_stats(self)
    }

    fn set_crossing_cost(&mut self, cost: CrossingCost) {
        self.crossing = cost;
    }
}

struct CountingRegion {
    block_size: usize,
    blocks: u64,
    /// One bit per block: whether it was ever written. Keeps the
    /// [`HostError::EmptyBlock`] contract identical to [`Host`] without
    /// storing payloads.
    written: Vec<u64>,
}

impl CountingRegion {
    fn new(blocks: u64, block_size: usize) -> Self {
        CountingRegion { block_size, blocks, written: vec![0; blocks.div_ceil(64) as usize] }
    }

    fn is_written(&self, index: u64) -> bool {
        self.written[(index / 64) as usize] & (1 << (index % 64)) != 0
    }

    fn mark_written(&mut self, index: u64) {
        self.written[(index / 64) as usize] |= 1 << (index % 64);
    }
}

/// A payload-free [`EnclaveMemory`]: tracks region shapes, access counts
/// and (optionally) the full trace, but never copies a payload byte.
///
/// Reads return a zeroed scratch slice of the region's block size; writes
/// are bounds- and size-checked, then dropped (only a written bit per
/// block is kept, so unwritten reads fail with the same
/// [`HostError::EmptyBlock`] as [`Host`]). For structures whose access
/// pattern is independent of substrate payloads — flat tables, scan
/// operators, direct-posmap ORAM — driving them over `CountingMemory`
/// yields exactly the trace and counters a [`Host`] run would produce,
/// at a fraction of the cost. Recursive-posmap ORAM stores its leaf
/// assignments *in* payloads, so there only aggregate access counts
/// match (paths differ event-by-event). Use it for cost-model tests and
/// capacity planning, never for data correctness.
///
/// Scope: flat tables, raw ORAM and scan operators cost-model exactly;
/// structures that route through payload contents (the oblivious B+
/// tree, so `Indexed`/`Both` storage) refuse payload-free substrates
/// with a typed error.
#[derive(Default)]
pub struct CountingMemory {
    regions: Vec<Option<CountingRegion>>,
    trace: Option<Vec<AccessEvent>>,
    stats: HostStats,
    scratch: Vec<u8>,
    ceiling: Option<Ceiling>,
}

/// A weighted-cost bound on a dry run (see [`CountingMemory::set_ceiling`]).
struct Ceiling {
    limit: f64,
    weigh: Box<dyn Fn(&HostStats) -> f64 + Send>,
    exceeded: bool,
}

impl CountingMemory {
    /// Creates an empty counting memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the rest of a dry run by a weighted cost. After every counted
    /// call, per-block or batched, the running [`HostStats`] are weighed
    /// with `weigh`; once that total is strictly greater than `limit`, the
    /// memory latches. The call that passed the limit and every later
    /// access then fail with [`HostError::CostCeiling`], and the counters
    /// keep their values from that call. A planner gives each candidate the
    /// best complete cost so far as its limit, so a priced-out candidate
    /// stops at most one call past it. When `weigh` never decreases as a
    /// counter grows, the latched counts weigh no more than a full run's.
    pub fn set_ceiling(&mut self, limit: f64, weigh: impl Fn(&HostStats) -> f64 + Send + 'static) {
        self.ceiling = Some(Ceiling { limit, weigh: Box::new(weigh), exceeded: false });
    }

    /// Whether the ceiling from [`CountingMemory::set_ceiling`] was passed.
    pub fn ceiling_exceeded(&self) -> bool {
        self.ceiling.as_ref().is_some_and(|c| c.exceeded)
    }

    /// Refuses every access once the ceiling has latched.
    fn admit(&self) -> Result<(), HostError> {
        if self.ceiling_exceeded() {
            return Err(HostError::CostCeiling);
        }
        Ok(())
    }

    /// Weighs the counts so far against the ceiling, latching past it.
    fn charge(&mut self) -> Result<(), HostError> {
        if let Some(c) = &mut self.ceiling {
            if (c.weigh)(&self.stats) > c.limit {
                c.exceeded = true;
                return Err(HostError::CostCeiling);
            }
        }
        Ok(())
    }

    fn region(&self, region: RegionId) -> Result<&CountingRegion, HostError> {
        self.regions
            .get(region.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or(HostError::UnknownRegion(region))
    }

    fn record(&mut self, region: RegionId, index: u64, kind: AccessKind) {
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent { region, index, kind });
        }
    }

    /// Native batched gather: identical accounting to [`Host::read_blocks`]
    /// (per-block trace events and counters, one crossing), zeroed payload.
    fn read_gather(
        &mut self,
        region: RegionId,
        indices: impl Iterator<Item = u64>,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        self.admit()?;
        let mut crossed = false;
        let CountingMemory { regions, trace, stats, .. } = self;
        let r = regions
            .get(region.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or(HostError::UnknownRegion(region))?;
        for index in indices {
            if let Some(t) = trace {
                t.push(AccessEvent { region, index, kind: AccessKind::Read });
            }
            if index >= r.blocks {
                return Err(HostError::OutOfBounds { region, index, len: r.blocks });
            }
            if !r.is_written(index) {
                return Err(HostError::EmptyBlock(region, index));
            }
            if !crossed {
                // Counted only once a block validates — per-block parity.
                stats.crossings += 1;
                crossed = true;
            }
            out.resize(out.len() + r.block_size, 0);
            stats.reads += 1;
            stats.bytes_read += r.block_size as u64;
        }
        self.charge()
    }

    fn write_scatter(
        &mut self,
        region: RegionId,
        indices: impl Iterator<Item = u64>,
        data: &[u8],
    ) -> Result<(), HostError> {
        self.admit()?;
        let mut crossed = false;
        let CountingMemory { regions, trace, stats, .. } = self;
        let r = regions
            .get_mut(region.0 as usize)
            .and_then(|r| r.as_mut())
            .ok_or(HostError::UnknownRegion(region))?;
        for (index, chunk) in indices.zip(data.chunks_exact(r.block_size)) {
            if let Some(t) = trace {
                t.push(AccessEvent { region, index, kind: AccessKind::Write });
            }
            if index >= r.blocks {
                return Err(HostError::OutOfBounds { region, index, len: r.blocks });
            }
            if !crossed {
                stats.crossings += 1;
                crossed = true;
            }
            r.mark_written(index);
            stats.writes += 1;
            stats.bytes_written += chunk.len() as u64;
        }
        self.charge()
    }
}

impl EnclaveMemory for CountingMemory {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Some(CountingRegion::new(blocks as u64, block_size)));
        Ok(id)
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        if let Some(slot) = self.regions.get_mut(region.0 as usize) {
            *slot = None;
        }
        Ok(())
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        let r = self
            .regions
            .get_mut(region.0 as usize)
            .and_then(|r| r.as_mut())
            .ok_or(HostError::UnknownRegion(region))?;
        r.blocks = r.blocks.max(new_blocks as u64);
        r.written.resize(r.blocks.div_ceil(64) as usize, 0);
        Ok(())
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        Ok(self.region(region)?.blocks)
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        Ok(self.region(region)?.block_size)
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        self.admit()?;
        self.record(region, index, AccessKind::Read);
        let r = self
            .regions
            .get(region.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or(HostError::UnknownRegion(region))?;
        if index >= r.blocks {
            return Err(HostError::OutOfBounds { region, index, len: r.blocks });
        }
        if !r.is_written(index) {
            // Same contract as `Host`: the attempt is traced (above), but
            // the read fails and the success counters stay untouched.
            return Err(HostError::EmptyBlock(region, index));
        }
        let block_size = r.block_size;
        self.stats.crossings += 1;
        self.stats.reads += 1;
        self.stats.bytes_read += block_size as u64;
        self.charge()?;
        // The scratch is only ever zeroed; resize covers changing sizes.
        self.scratch.resize(block_size, 0);
        Ok(&self.scratch[..block_size])
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        self.admit()?;
        self.record(region, index, AccessKind::Write);
        let r = self
            .regions
            .get_mut(region.0 as usize)
            .and_then(|r| r.as_mut())
            .ok_or(HostError::UnknownRegion(region))?;
        if data.len() != r.block_size {
            return Err(HostError::BlockSizeMismatch {
                region,
                expected: r.block_size,
                got: data.len(),
            });
        }
        if index >= r.blocks {
            return Err(HostError::OutOfBounds { region, index, len: r.blocks });
        }
        r.mark_written(index);
        self.stats.crossings += 1;
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        self.charge()
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        self.read_gather(region, start..start + count as u64, out)
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        self.read_gather(region, indices.iter().copied(), out)
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        let block_size = self.region(region)?.block_size;
        let count = batch_count(region, block_size, data.len())?;
        self.write_scatter(region, start..start + count as u64, data)
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        let block_size = self.region(region)?.block_size;
        let count = batch_count(region, block_size, data.len())?;
        if count != indices.len() {
            return Err(HostError::BlockSizeMismatch {
                region,
                expected: indices.len() * block_size,
                got: data.len(),
            });
        }
        self.write_scatter(region, indices.iter().copied(), data)
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

    fn reset_stats(&mut self) {
        self.stats = HostStats::default();
    }

    fn retains_payloads(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_memory_counts_without_storing() {
        let mut m = CountingMemory::new();
        let r = EnclaveMemory::alloc_region(&mut m, 4, 8).unwrap();
        m.write(r, 1, &[7u8; 8]).unwrap();
        assert_eq!(m.read(r, 1).unwrap(), &[0u8; 8], "payloads are dropped");
        let s = m.stats();
        assert_eq!((s.reads, s.writes), (1, 1));
        assert_eq!((s.bytes_read, s.bytes_written), (8, 8));
    }

    #[test]
    fn counting_memory_traces_like_host() {
        let mut h = Host::new();
        let mut m = CountingMemory::new();
        let rh = EnclaveMemory::alloc_region(&mut h, 4, 8).unwrap();
        let rm = EnclaveMemory::alloc_region(&mut m, 4, 8).unwrap();
        EnclaveMemory::start_trace(&mut h);
        m.start_trace();
        for i in 0..4 {
            EnclaveMemory::write(&mut h, rh, i, &[1u8; 8]).unwrap();
            m.write(rm, i, &[1u8; 8]).unwrap();
            EnclaveMemory::read(&mut h, rh, i).unwrap();
            m.read(rm, i).unwrap();
        }
        assert_eq!(EnclaveMemory::take_trace(&mut h), m.take_trace());
    }

    #[test]
    fn counting_memory_checks_bounds_and_sizes() {
        let mut m = CountingMemory::new();
        let r = EnclaveMemory::alloc_region(&mut m, 2, 8).unwrap();
        assert!(matches!(m.write(r, 5, &[0u8; 8]), Err(HostError::OutOfBounds { .. })));
        assert!(matches!(m.write(r, 0, &[0u8; 7]), Err(HostError::BlockSizeMismatch { .. })));
        assert_eq!(m.read(r, 1), Err(HostError::EmptyBlock(r, 1)), "unwritten reads fail as Host");
        m.free_region(r).unwrap();
        assert_eq!(m.read(r, 0), Err(HostError::UnknownRegion(r)));
    }

    #[test]
    fn counting_memory_grow_extends_bounds() {
        let mut m = CountingMemory::new();
        let r = EnclaveMemory::alloc_region(&mut m, 2, 4).unwrap();
        EnclaveMemory::grow_region(&mut m, r, 10).unwrap();
        assert_eq!(EnclaveMemory::region_len(&m, r).unwrap(), 10);
        m.write(r, 9, &[0u8; 4]).unwrap();
    }

    #[test]
    fn ceiling_latches_after_the_call_that_passes_it() {
        let weigh = |s: &HostStats| (s.reads + s.writes + s.crossings) as f64;
        // Per-block calls: each costs 2 (one block, one crossing).
        let mut m = CountingMemory::new();
        let r = m.alloc_region(8, 4).unwrap();
        m.set_ceiling(4.0, weigh);
        m.write(r, 0, &[0u8; 4]).unwrap();
        m.write(r, 1, &[0u8; 4]).unwrap();
        assert!(!m.ceiling_exceeded(), "a total equal to the ceiling is not past it");
        assert_eq!(m.read(r, 0), Err(HostError::CostCeiling));
        assert!(m.ceiling_exceeded());
        let at_abort = m.stats();
        assert_eq!((at_abort.reads, at_abort.writes, at_abort.crossings), (1, 2, 3));
        // Latched: every later access fails and counts nothing.
        assert_eq!(m.write(r, 2, &[0u8; 4]), Err(HostError::CostCeiling));
        assert_eq!(m.read_blocks(r, 0, 2, &mut Vec::new()), Err(HostError::CostCeiling));
        assert_eq!(m.write_blocks_at(r, &[3], &[0u8; 4]), Err(HostError::CostCeiling));
        assert_eq!(m.stats(), at_abort);

        // Batched calls are checked too, once per call.
        let mut m = CountingMemory::new();
        let r = m.alloc_region(8, 4).unwrap();
        m.set_ceiling(10.0, weigh);
        m.write_blocks(r, 0, &[0u8; 32]).unwrap();
        assert_eq!(m.read_blocks_at(r, &[0, 1], &mut Vec::new()), Err(HostError::CostCeiling));
        assert_eq!((m.stats().reads, m.stats().crossings), (2, 2));
        assert!(m.ceiling_exceeded());

        // No ceiling, no latch.
        let mut m = CountingMemory::new();
        let r = m.alloc_region(8, 4).unwrap();
        m.write_blocks(r, 0, &[0u8; 32]).unwrap();
        assert!(!m.ceiling_exceeded());
    }

    #[test]
    fn host_retains_payloads_counting_does_not() {
        assert!(EnclaveMemory::retains_payloads(&Host::new()));
        assert!(!CountingMemory::new().retains_payloads());
        let boxed: Box<dyn EnclaveMemory> = Box::new(CountingMemory::new());
        assert!(!boxed.retains_payloads(), "a boxed substrate keeps its own answer");
    }

    type Calls = std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>;
    type R = Result<(), HostError>;

    /// Logs every call to a method that has a default body, so a `Box`
    /// forwarding impl that forgets one (letting the default run) shows.
    struct Spy(Calls);

    impl EnclaveMemory for Spy {
        fn alloc_region(&mut self, _: usize, _: usize) -> Result<RegionId, HostError> {
            Ok(RegionId(0))
        }
        fn free_region(&mut self, _: RegionId) -> R {
            Ok(())
        }
        fn grow_region(&mut self, _: RegionId, _: usize) -> R {
            Ok(())
        }
        fn region_len(&self, _: RegionId) -> Result<u64, HostError> {
            Ok(0)
        }
        fn region_block_size(&self, _: RegionId) -> Result<usize, HostError> {
            Ok(0)
        }
        fn read(&mut self, _: RegionId, _: u64) -> Result<&[u8], HostError> {
            Ok(&[])
        }
        fn write(&mut self, _: RegionId, _: u64, _: &[u8]) -> R {
            Ok(())
        }
        fn start_trace(&mut self) {}
        fn take_trace(&mut self) -> Trace {
            Trace::default()
        }
        fn tracing(&self) -> bool {
            false
        }
        fn stats(&self) -> HostStats {
            HostStats::default()
        }
        fn reset_stats(&mut self) {}

        fn read_blocks(&mut self, _: RegionId, _: u64, _: usize, _: &mut Vec<u8>) -> R {
            self.0.borrow_mut().push("read_blocks");
            Ok(())
        }
        fn read_blocks_at(&mut self, _: RegionId, _: &[u64], _: &mut Vec<u8>) -> R {
            self.0.borrow_mut().push("read_blocks_at");
            Ok(())
        }
        fn write_blocks(&mut self, _: RegionId, _: u64, _: &[u8]) -> R {
            self.0.borrow_mut().push("write_blocks");
            Ok(())
        }
        fn write_blocks_at(&mut self, _: RegionId, _: &[u64], _: &[u8]) -> R {
            self.0.borrow_mut().push("write_blocks_at");
            Ok(())
        }
        fn retains_payloads(&self) -> bool {
            self.0.borrow_mut().push("retains_payloads");
            false
        }
        fn sync(&mut self) -> R {
            self.0.borrow_mut().push("sync");
            Ok(())
        }
        fn sync_region(&mut self, _: RegionId) -> R {
            self.0.borrow_mut().push("sync_region");
            Ok(())
        }
        fn set_crossing_cost(&mut self, _: CrossingCost) {
            self.0.borrow_mut().push("set_crossing_cost");
        }
    }

    #[test]
    fn box_forwards_every_defaulted_method() {
        let calls = Calls::default();
        let mut m: Box<dyn EnclaveMemory> = Box::new(Spy(Calls::clone(&calls)));
        let r = RegionId(0);
        m.read_blocks(r, 0, 1, &mut Vec::new()).unwrap();
        m.read_blocks_at(r, &[0], &mut Vec::new()).unwrap();
        m.write_blocks(r, 0, &[]).unwrap();
        m.write_blocks_at(r, &[], &[]).unwrap();
        m.retains_payloads();
        m.sync().unwrap();
        m.sync_region(r).unwrap();
        m.set_crossing_cost(CrossingCost::default());
        assert_eq!(
            *calls.borrow(),
            [
                "read_blocks",
                "read_blocks_at",
                "write_blocks",
                "write_blocks_at",
                "retains_payloads",
                "sync",
                "sync_region",
                "set_crossing_cost",
            ]
        );
    }

    #[test]
    fn batched_io_is_one_crossing_on_both_substrates() {
        fn drive<M: EnclaveMemory>(m: &mut M) -> (Trace, crate::HostStats) {
            let r = m.alloc_region(8, 4).unwrap();
            m.start_trace();
            m.reset_stats();
            let data: Vec<u8> = (0..24).collect();
            m.write_blocks(r, 1, &data).unwrap();
            let mut out = Vec::new();
            m.read_blocks(r, 1, 6, &mut out).unwrap();
            assert_eq!(out.len(), 24);
            m.write_blocks_at(r, &[7, 2, 0], &data[..12]).unwrap();
            m.read_blocks_at(r, &[0, 7], &mut out).unwrap();
            assert_eq!(out.len(), 8);
            (m.take_trace(), m.stats())
        }
        let (trace_h, stats_h) = drive(&mut Host::new());
        let (trace_c, stats_c) = drive(&mut CountingMemory::new());
        assert_eq!(trace_h, trace_c, "batched traces must be identical across substrates");
        assert_eq!(stats_h, stats_c);
        let mut boxed: Box<dyn EnclaveMemory> = Box::new(Host::new());
        assert_eq!(drive(&mut boxed), (trace_h.clone(), stats_h), "boxing changes nothing");
        assert_eq!(stats_h.crossings, 4, "one crossing per batched call");
        assert_eq!(stats_h.reads, 8);
        assert_eq!(stats_h.writes, 9);
        // Per-block events are still all recorded for the adversary.
        assert_eq!(trace_h.len(), 17);
    }

    #[test]
    fn batched_matches_per_block_loop_except_crossings() {
        let mut a = Host::new();
        let mut b = Host::new();
        let ra = EnclaveMemory::alloc_region(&mut a, 4, 2).unwrap();
        let rb = EnclaveMemory::alloc_region(&mut b, 4, 2).unwrap();
        let data = [1u8, 2, 3, 4, 5, 6];
        EnclaveMemory::write_blocks(&mut a, ra, 0, &data).unwrap();
        for (i, chunk) in data.chunks(2).enumerate() {
            EnclaveMemory::write(&mut b, rb, i as u64, chunk).unwrap();
        }
        let mut out = Vec::new();
        EnclaveMemory::read_blocks(&mut a, ra, 0, 3, &mut out).unwrap();
        let mut per_block = Vec::new();
        for i in 0..3 {
            per_block.extend_from_slice(EnclaveMemory::read(&mut b, rb, i).unwrap());
        }
        assert_eq!(out, per_block, "batched read returns the same bytes");
        let (sa, sb) = (EnclaveMemory::stats(&a), EnclaveMemory::stats(&b));
        assert_eq!((sa.reads, sa.writes, sa.bytes_read), (sb.reads, sb.writes, sb.bytes_read));
        assert_eq!(sa.crossings, 2);
        assert_eq!(sb.crossings, 6);
    }

    #[test]
    fn batched_errors_match_per_block_contract() {
        let mut m = CountingMemory::new();
        let r = EnclaveMemory::alloc_region(&mut m, 4, 2).unwrap();
        let mut out = Vec::new();
        // Unwritten block inside the batch: same EmptyBlock as per-block.
        m.write_blocks(r, 0, &[0u8; 4]).unwrap();
        assert_eq!(m.read_blocks(r, 0, 4, &mut out), Err(HostError::EmptyBlock(r, 2)));
        // Out of bounds inside the batch.
        assert!(matches!(
            m.write_blocks(r, 3, &[0u8; 4]),
            Err(HostError::OutOfBounds { index: 4, .. })
        ));
        // Ragged buffers are rejected up front.
        assert!(matches!(
            m.write_blocks(r, 0, &[0u8; 3]),
            Err(HostError::BlockSizeMismatch { .. })
        ));
        assert!(matches!(
            m.write_blocks_at(r, &[0, 1], &[0u8; 2]),
            Err(HostError::BlockSizeMismatch { .. })
        ));
    }
}
