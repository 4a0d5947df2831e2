//! The block heap: format/open, block and chain allocation, free, headers,
//! root slots and free-queue reconstruction.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use jnvm_pmem::Pmem;
use parking_lot::Mutex;

use crate::error::HeapError;
use crate::layout::{
    BlockHeader, HEADER_BYTES, HEAP_MAGIC, HEAP_VERSION, NULL_BLOCK, ROOT_SLOT_COUNT,
    SB_BLOCK_SIZE, SB_BUMP, SB_DATA_START, SB_MAGIC, SB_NBLOCKS, SB_ROOT_SLOTS, SB_VERSION,
    SUPERBLOCK_BYTES,
};
use crate::par::partition_range;
use crate::scan::LiveBitmap;

/// Heap geometry parameters.
#[derive(Debug, Clone, Copy)]
pub struct HeapConfig {
    /// Block size in bytes. Must be a power of two, at least 64. The paper
    /// measures 256 B (Optane's internal write unit) to be optimal (§5.3.5).
    pub block_size: u64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig { block_size: 256 }
    }
}

/// Fresh blocks the persistent bump pointer advances by at a time. Recovery
/// sweeps everything below the persisted bump into the free queue, so the
/// part of a stride a crash leaves unreached is ordinary free space.
///
/// Invariant (kept where [`BlockHeap::alloc_block`] writes `SB_BUMP`): a
/// reservation is fenced before any of its blocks is handed out, so the
/// *persisted* bump is above every block any thread ever held.
const BUMP_STRIDE: u64 = 1024;

/// An object's chain as its allocation wrote it or one walk read it: the
/// master header and the block indexes, master first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// The master block's header.
    pub head: BlockHeader,
    /// Every block of the chain, master first.
    pub blocks: Vec<u64>,
}

/// Volatile counters describing heap occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Blocks handed out since this handle was created.
    pub blocks_allocated: u64,
    /// Blocks returned since this handle was created.
    pub blocks_freed: u64,
    /// Current bump index (first never-allocated block).
    pub bump: u64,
    /// Blocks currently in the volatile free queue.
    pub free_queue_len: u64,
    /// Total allocatable blocks in the pool.
    pub capacity_blocks: u64,
}

/// The persistent block heap (§4.1).
///
/// A `BlockHeap` is a volatile *view* over a [`Pmem`] pool: the free queue
/// lives in volatile memory and is rebuilt by recovery, exactly as in the
/// paper. Dropping the view loses nothing.
pub struct BlockHeap {
    pmem: Arc<Pmem>,
    block_size: u64,
    nblocks: u64,
    data_start: u64,
    free: Mutex<VecDeque<u64>>,
    /// Never-allocated blocks already reserved from the persistent bump
    /// pointer: `start` is the next one to hand out, `end` what `SB_BUMP`
    /// holds. Taken only when the free queue is empty.
    fresh: Mutex<Range<u64>>,
    allocated: AtomicU64,
    freed: AtomicU64,
}

impl BlockHeap {
    /// Format a fresh heap over `pmem`, erasing any previous content of the
    /// superblock region. The rest of the device must read zero, as
    /// [`Pmem::new`] makes it: a pool block carved from the bump cursor
    /// takes its zero slot mini-headers as already cleared.
    pub fn format(pmem: Arc<Pmem>, cfg: HeapConfig) -> Result<Arc<BlockHeap>, HeapError> {
        if !cfg.block_size.is_power_of_two() || cfg.block_size < 64 {
            return Err(HeapError::BadSuperblock(format!(
                "block size {} must be a power of two >= 64",
                cfg.block_size
            )));
        }
        let nblocks = pmem.len() / cfg.block_size;
        let data_start = SUPERBLOCK_BYTES.div_ceil(cfg.block_size);
        if nblocks <= data_start + 1 {
            return Err(HeapError::BadSuperblock(format!(
                "pool of {} bytes too small for block size {}",
                pmem.len(),
                cfg.block_size
            )));
        }
        pmem.zero_range(0, SUPERBLOCK_BYTES);
        pmem.write_u64(SB_MAGIC, HEAP_MAGIC);
        pmem.write_u32(SB_VERSION, HEAP_VERSION);
        pmem.write_u32(SB_BLOCK_SIZE, cfg.block_size as u32);
        pmem.write_u64(SB_NBLOCKS, nblocks);
        pmem.write_u64(SB_BUMP, data_start);
        pmem.write_u64(SB_DATA_START, data_start);
        pmem.pwb_range(0, SUPERBLOCK_BYTES);
        pmem.psync();
        Ok(Arc::new(BlockHeap {
            pmem,
            block_size: cfg.block_size,
            nblocks,
            data_start,
            free: Mutex::new(VecDeque::new()),
            fresh: Mutex::new(data_start..data_start),
            allocated: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }))
    }

    /// Attach to an existing heap. The free queue starts empty — run the
    /// `jnvm` recovery procedure (or [`BlockHeap::rebuild_free_queue`]) to
    /// repopulate it; until then, allocation falls back to the bump pointer.
    pub fn open(pmem: Arc<Pmem>) -> Result<Arc<BlockHeap>, HeapError> {
        if pmem.len() < SUPERBLOCK_BYTES {
            return Err(HeapError::BadSuperblock("pool smaller than superblock".into()));
        }
        if pmem.read_u64(SB_MAGIC) != HEAP_MAGIC {
            return Err(HeapError::BadSuperblock("bad magic".into()));
        }
        let version = pmem.read_u32(SB_VERSION);
        if version != HEAP_VERSION {
            return Err(HeapError::BadSuperblock(format!("unsupported version {version}")));
        }
        let block_size = pmem.read_u32(SB_BLOCK_SIZE) as u64;
        if !block_size.is_power_of_two() || block_size < 64 {
            return Err(HeapError::BadSuperblock(format!("corrupt block size {block_size}")));
        }
        let nblocks = pmem.read_u64(SB_NBLOCKS);
        if nblocks > pmem.len() / block_size {
            return Err(HeapError::BadSuperblock("block count exceeds pool".into()));
        }
        let data_start = pmem.read_u64(SB_DATA_START);
        // Whatever an earlier view had reserved and not handed out lies
        // below the persisted bump: recovery's sweep finds it.
        let bump = pmem.read_u64(SB_BUMP).min(nblocks);
        Ok(Arc::new(BlockHeap {
            pmem,
            block_size,
            nblocks,
            data_start,
            free: Mutex::new(VecDeque::new()),
            fresh: Mutex::new(bump..bump),
            allocated: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }))
    }

    /// The underlying device.
    pub fn pmem(&self) -> &Arc<Pmem> {
        &self.pmem
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Usable payload bytes per block (block size minus the header word).
    pub fn payload_size(&self) -> u64 {
        self.block_size - HEADER_BYTES
    }

    /// Total number of blocks (including the superblock region).
    pub fn nblocks(&self) -> u64 {
        self.nblocks
    }

    /// First allocatable block index.
    pub fn data_start(&self) -> u64 {
        self.data_start
    }

    /// Byte address of block `idx`.
    pub fn block_addr(&self, idx: u64) -> u64 {
        idx * self.block_size
    }

    /// Byte address of the payload of block `idx` (just past the header).
    pub fn payload_addr(&self, idx: u64) -> u64 {
        idx * self.block_size + HEADER_BYTES
    }

    /// Block index containing byte address `addr` (the block size is a
    /// power of two: a shift, not a division).
    pub fn block_of_addr(&self, addr: u64) -> u64 {
        addr >> self.block_size.trailing_zeros()
    }

    /// Current occupancy counters.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            blocks_allocated: self.allocated.load(Ordering::Relaxed),
            blocks_freed: self.freed.load(Ordering::Relaxed),
            bump: self.fresh.lock().start,
            free_queue_len: self.free.lock().len() as u64,
            capacity_blocks: self.nblocks - self.data_start,
        }
    }

    // ------------------------------------------------------------------
    // Headers.
    // ------------------------------------------------------------------

    /// Read the header of block `idx`.
    pub fn read_header(&self, idx: u64) -> BlockHeader {
        debug_assert!(idx >= self.data_start && idx < self.nblocks, "block {idx}");
        BlockHeader::decode(self.pmem.read_u64(self.block_addr(idx)))
    }

    /// Write the header of block `idx` (no flush — callers decide when the
    /// header must persist, per the paper's fence-minimization discipline).
    pub fn write_header(&self, idx: u64, h: BlockHeader) {
        debug_assert!(idx >= self.data_start && idx < self.nblocks, "block {idx}");
        self.pmem.write_u64(self.block_addr(idx), h.encode());
    }

    /// Write the header of block `idx` and enqueue its line for write-back.
    pub fn write_header_pwb(&self, idx: u64, h: BlockHeader) {
        self.write_header(idx, h);
        self.pmem.pwb(self.block_addr(idx));
    }

    /// Set or clear the valid bit of a master block and `pwb` the header
    /// line. Does **not** fence (§3.2.3: validation is fence-free so several
    /// validations can share one fence).
    pub fn set_valid(&self, idx: u64, valid: bool) {
        let mut h = self.read_header(idx);
        h.valid = valid;
        self.write_header_pwb(idx, h);
    }

    // ------------------------------------------------------------------
    // Allocation (§4.1.2, §4.1.4).
    // ------------------------------------------------------------------

    /// Allocate one raw block. Tries the volatile free queue first, then the
    /// blocks reserved from the persistent bump pointer, which advances a
    /// stride at a time. The block's header is *not* initialized.
    pub fn alloc_block(&self) -> Result<u64, HeapError> {
        Ok(self.take_block()?.0)
    }

    /// [`BlockHeap::alloc_block`], also telling whether the block came from
    /// the bump cursor (`true`) rather than the free queue. Such a block
    /// reads all zero: nothing is ever stored above the persisted bump (see
    /// `BUMP_STRIDE`), and [`BlockHeap::format`] leaves the data region as
    /// the device holds it.
    pub(crate) fn take_block(&self) -> Result<(u64, bool), HeapError> {
        let recycled = self.free.lock().pop_front();
        let (idx, from_bump) = match recycled {
            Some(idx) => (idx, false),
            None => {
                let mut fresh = self.fresh.lock();
                if fresh.is_empty() {
                    // Clamped: the bump never passes the end of the pool.
                    let stride = BUMP_STRIDE.min(self.nblocks - fresh.end);
                    if stride == 0 {
                        return Err(HeapError::OutOfMemory { requested: 1 });
                    }
                    // The reservation is durable before any block of the
                    // stride leaves this lock. A fence drains only its own
                    // thread's write-backs, so without one here another
                    // thread could take a block, commit into it and fence
                    // while SB_BUMP is still pending in this thread's
                    // domain — and a crash would leave acked data above
                    // `scan_end`, where no header scan looks.
                    fresh.end += stride;
                    self.pmem.write_u64(SB_BUMP, fresh.end);
                    self.pmem.pwb(SB_BUMP);
                    self.pmem.pfence();
                }
                (fresh.next().expect("a stride was just reserved"), true)
            }
        };
        self.allocated.fetch_add(1, Ordering::Relaxed);
        Ok((idx, from_bump))
    }

    /// Number of blocks needed for an object with `payload_bytes` of fields.
    pub fn blocks_for(&self, payload_bytes: u64) -> u64 {
        payload_bytes.max(1).div_ceil(self.payload_size())
    }

    /// Allocate the chain of blocks for an object of class `class_id` with
    /// `payload_bytes` of field data (§4.1.4).
    ///
    /// The returned master block is in the **invalid** state; the object
    /// becomes alive only once reachable *and* validated. No fence is
    /// executed. Returns the master block index; [`BlockHeap::new_chain`]
    /// also returns what the allocation wrote.
    pub fn alloc_chain(&self, class_id: u16, payload_bytes: u64) -> Result<u64, HeapError> {
        Ok(self.new_chain(class_id, payload_bytes)?.blocks[0])
    }

    /// [`BlockHeap::alloc_chain`], returning the chain it linked and the
    /// master header it wrote — what a caller would otherwise read back.
    pub fn new_chain(&self, class_id: u16, payload_bytes: u64) -> Result<Chain, HeapError> {
        let n = self.blocks_for(payload_bytes);
        let mut blocks = Vec::with_capacity(n as usize);
        for _ in 0..n {
            match self.alloc_block() {
                Ok(b) => blocks.push(b),
                Err(e) => {
                    // Return the partial chain to the free queue.
                    self.release_blocks(blocks);
                    return Err(e);
                }
            }
        }
        // Link slaves back-to-front, then the master.
        for w in (1..blocks.len()).rev() {
            let next = if w + 1 < blocks.len() { blocks[w + 1] } else { NULL_BLOCK };
            self.write_header(blocks[w], BlockHeader::slave(next));
        }
        let next = if blocks.len() > 1 { blocks[1] } else { NULL_BLOCK };
        let head = BlockHeader::master(class_id, next)?;
        self.write_header(blocks[0], head);
        Ok(Chain { head, blocks })
    }

    /// Walk the chain of the object whose master block is `master`, reading
    /// each header once.
    ///
    /// # Panics
    ///
    /// Panics, naming the master's address, if the chain holds more blocks
    /// than the heap does: a `next` link cycles, and the walk would
    /// otherwise grow its block list until the allocator aborts.
    pub fn walk_chain(&self, master: u64) -> Chain {
        let head = self.read_header(master);
        let mut blocks = vec![master];
        let mut cur = head.next;
        while cur != NULL_BLOCK {
            assert!(
                (blocks.len() as u64) < self.nblocks,
                "chain of master {:#x}: chain does not terminate",
                self.block_addr(master)
            );
            blocks.push(cur);
            cur = self.read_header(cur).next;
        }
        Chain { head, blocks }
    }

    /// Collect the block indexes of the object whose master block is
    /// `master` (the master itself first). See [`BlockHeap::walk_chain`].
    pub fn chain_blocks(&self, master: u64) -> Vec<u64> {
        self.walk_chain(master).blocks
    }

    /// Grow the chain of `master` by `extra` blocks, returning the indexes
    /// of the new blocks. New blocks are appended at the tail; the tail link
    /// is published with a `pwb` but no fence.
    pub fn extend_chain(&self, master: u64, extra: u64) -> Result<Vec<u64>, HeapError> {
        let Chain { head, blocks } = self.walk_chain(master);
        let mut tail = *blocks.last().expect("chain contains at least the master");
        // The walk read the tail's header: a slave's is `slave(NULL)`, a
        // lone master's `head`.
        let mut tail_header = if tail == master {
            head
        } else {
            BlockHeader::slave(NULL_BLOCK)
        };
        let mut added = Vec::with_capacity(extra as usize);
        for _ in 0..extra {
            let b = self.alloc_block()?;
            // The new tail's header must be written back, not just written:
            // the link publishing it is pwb'ed below, and a crash that
            // persists the link but not this header leaves `next` pointing
            // at a block whose media header is stale. For a recycled block
            // that stale header is the block's *previous* life — e.g. a
            // slave link into some other chain — and the chain walk wanders
            // into foreign blocks after recovery.
            self.write_header_pwb(b, BlockHeader::slave(NULL_BLOCK));
            tail_header.next = b;
            self.write_header_pwb(tail, tail_header);
            self.pmem.publish_point(
                "chain-extend",
                &[(self.block_addr(b), HEADER_BYTES), (self.block_addr(tail), HEADER_BYTES)],
            );
            added.push(b);
            tail = b;
            tail_header = BlockHeader::slave(NULL_BLOCK);
        }
        Ok(added)
    }

    // ------------------------------------------------------------------
    // Deletion (§4.1.5).
    // ------------------------------------------------------------------

    /// Free the object rooted at master block `master`: invalidate the
    /// master (one header write + `pwb`, **no fence** — the paper lets the
    /// caller batch a single fence over a whole graph of frees) and recycle
    /// every block of the chain through the volatile free queue.
    pub fn free_object(&self, master: u64) {
        let blocks = self.invalidate_object(master);
        self.release_blocks(blocks);
    }

    /// The first half of [`BlockHeap::free_object`]: invalidate the master
    /// (one header store + `pwb`, no fence) and return the chain's blocks,
    /// which stay out of the allocator until [`BlockHeap::release_blocks`].
    pub fn invalidate_object(&self, master: u64) -> Vec<u64> {
        let Chain { mut head, blocks } = self.walk_chain(master);
        head.valid = false;
        self.write_header_pwb(master, head);
        blocks
    }

    /// The second half of [`BlockHeap::free_object`]: recycle `blocks`
    /// through the volatile free queue, touching no NVMM.
    pub fn release_blocks(&self, blocks: Vec<u64>) {
        self.freed.fetch_add(blocks.len() as u64, Ordering::Relaxed);
        self.free.lock().extend(blocks);
    }

    /// Push a block onto the volatile free queue without touching NVMM
    /// (recovery path).
    pub fn push_free(&self, idx: u64) {
        self.free.lock().push_back(idx);
    }

    // ------------------------------------------------------------------
    // Root slots.
    // ------------------------------------------------------------------

    /// Read persistent root slot `slot` (0-based, 8 slots). Slots anchor the
    /// runtime's class table, root map and failure-atomic log directory.
    pub fn root_slot(&self, slot: u64) -> u64 {
        assert!(slot < ROOT_SLOT_COUNT, "root slot {slot} out of range");
        self.pmem.read_u64(SB_ROOT_SLOTS + slot * 8)
    }

    /// Write persistent root slot `slot`, with `pwb` + `pfence` (root slots
    /// are written once per pool lifetime; durability simplicity wins).
    pub fn set_root_slot(&self, slot: u64, value: u64) {
        assert!(slot < ROOT_SLOT_COUNT, "root slot {slot} out of range");
        self.pmem.write_u64(SB_ROOT_SLOTS + slot * 8, value);
        self.pmem.pwb(SB_ROOT_SLOTS + slot * 8);
        self.pmem.pfence();
        self.pmem.ordering_point("root-publish", &[(SB_ROOT_SLOTS + slot * 8, 8)]);
    }

    // ------------------------------------------------------------------
    // Recovery support (§4.1.3).
    // ------------------------------------------------------------------

    /// Rebuild the volatile free queue from a completed liveness bitmap:
    /// every unmarked block in `[data_start, effective_bump)` is zeroed
    /// (clearing its valid bit so a future allocation starts invalid) and
    /// queued. Also repairs the persistent bump pointer. Ends with `psync`,
    /// as the paper's recovery procedure does.
    ///
    /// The block range is partitioned over `threads` sweep workers (one
    /// worker is the calling thread — see [`crate::par::run_workers_timed`]).
    /// Every header clear is idempotent, so a crash mid-sweep followed by a
    /// second recovery converges to the same heap; each worker issues its
    /// own `pfence`, since a persistence domain drains only its owner's
    /// write-backs. Free blocks enter the queue in ascending block order
    /// regardless of the thread count.
    ///
    /// Returns the free-block count plus each sweep worker's modeled
    /// device time.
    pub fn rebuild_free_queue(&self, live: &LiveBitmap, threads: usize) -> (u64, Vec<Duration>) {
        let persisted_bump = self.scan_end();
        let effective_bump = persisted_bump.max(live.highest_marked().map_or(0, |b| b + 1));
        let chunks = partition_range(self.data_start, effective_bump, threads);
        let swept = crate::par::run_workers_timed(chunks, |(lo, hi)| {
            let mut freed = Vec::new();
            for idx in lo..hi {
                if !live.is_marked(idx) {
                    // Ensure a recycled block cannot resurrect as a stale
                    // valid master: persistently clear its header.
                    self.write_header_pwb(idx, BlockHeader::FREE);
                    freed.push(idx);
                }
            }
            // Drain this worker's header-clear write-backs (a persistence
            // domain drains only its owner's queue).
            self.pmem.pfence();
            freed
        });
        let (freed_lists, worker_times): (Vec<Vec<u64>>, Vec<Duration>) = swept.into_iter().unzip();
        let freed = freed_lists.iter().map(|l| l.len() as u64).sum();
        self.free.lock().extend(freed_lists.into_iter().flatten());
        // Every block below the bump is now live or queued: nothing is
        // left reserved.
        *self.fresh.lock() = effective_bump..effective_bump;
        if effective_bump != persisted_bump {
            self.pmem.write_u64(SB_BUMP, effective_bump);
            self.pmem.pwb(SB_BUMP);
        }
        self.pmem.psync();
        (freed, worker_times)
    }

    /// Create a liveness bitmap sized for this heap.
    pub fn new_bitmap(&self) -> LiveBitmap {
        LiveBitmap::new(self.nblocks)
    }

    /// Iterate over every block header in `[data_start, scan_end)`, the
    /// header-inspection pass used by the fast `nogc` recovery variant
    /// (§5.3.3, J-PFA-nogc).
    pub fn for_each_header(&self, mut f: impl FnMut(u64, BlockHeader)) {
        for idx in self.data_start..self.scan_end() {
            f(idx, self.read_header(idx));
        }
    }

    /// One past the last block a header scan must visit: the persisted
    /// bump, clamped to `nblocks`. No header above it was ever written,
    /// because a stride's reservation is durable before its first block is
    /// handed out (see `BUMP_STRIDE`) — the pool rebuild and the
    /// header-only recovery scan both rely on that. Parallel recovery
    /// passes partition `[data_start, scan_end)` among their workers.
    pub fn scan_end(&self) -> u64 {
        self.pmem.read_u64(SB_BUMP).min(self.nblocks)
    }
}

impl std::fmt::Debug for BlockHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockHeap")
            .field("block_size", &self.block_size)
            .field("nblocks", &self.nblocks)
            .field("data_start", &self.data_start)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jnvm_pmem::{CrashPolicy, PmemConfig};

    fn heap(bytes: u64) -> Arc<BlockHeap> {
        let pmem = Pmem::new(PmemConfig::crash_sim(bytes));
        BlockHeap::format(pmem, HeapConfig::default()).unwrap()
    }

    #[test]
    fn format_and_open() {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let h = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        assert_eq!(h.block_size(), 256);
        assert_eq!(h.payload_size(), 248);
        assert_eq!(h.data_start(), 16); // 4096 / 256
        drop(h);
        let h2 = BlockHeap::open(pmem).unwrap();
        assert_eq!(h2.block_size(), 256);
        assert_eq!(h2.nblocks(), (1 << 20) / 256);
    }

    #[test]
    fn open_rejects_unformatted_pool() {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        assert!(BlockHeap::open(pmem).is_err());
    }

    #[test]
    fn open_refuses_an_older_format_version() {
        for old in 1..HEAP_VERSION {
            let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
            drop(BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap());
            pmem.write_u32(SB_VERSION, old);
            match BlockHeap::open(pmem) {
                Err(HeapError::BadSuperblock(msg)) => {
                    assert_eq!(msg, format!("unsupported version {old}"))
                }
                other => panic!(
                    "a version-{old} pool must be refused, got {:?}",
                    other.map(drop)
                ),
            }
        }
    }

    #[test]
    fn format_rejects_bad_block_size() {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        assert!(BlockHeap::format(Arc::clone(&pmem), HeapConfig { block_size: 100 }).is_err());
        assert!(BlockHeap::format(pmem, HeapConfig { block_size: 32 }).is_err());
    }

    #[test]
    fn alloc_bumps_sequentially() {
        let h = heap(1 << 20);
        let a = h.alloc_block().unwrap();
        let b = h.alloc_block().unwrap();
        assert_eq!(a, h.data_start());
        assert_eq!(b, a + 1);
    }

    #[test]
    fn alloc_prefers_free_queue() {
        let h = heap(1 << 20);
        let a = h.alloc_block().unwrap();
        let _b = h.alloc_block().unwrap();
        h.push_free(a);
        assert_eq!(h.alloc_block().unwrap(), a);
    }

    #[test]
    fn oom_when_exhausted() {
        let h = heap(8 * 1024); // 32 blocks, 16 reserved
        let capacity = h.nblocks() - h.data_start();
        for _ in 0..capacity {
            h.alloc_block().unwrap();
        }
        assert!(matches!(h.alloc_block(), Err(HeapError::OutOfMemory { .. })));
    }

    #[test]
    fn chain_allocation_links_blocks() {
        let h = heap(1 << 20);
        // 3 blocks: 248 * 2 + 10 bytes.
        let master = h.alloc_chain(42, 248 * 2 + 10).unwrap();
        let chain = h.chain_blocks(master);
        assert_eq!(chain.len(), 3);
        let mh = h.read_header(master);
        assert_eq!(mh.id, 42);
        assert!(!mh.valid, "fresh master must be invalid");
        assert_eq!(mh.next, chain[1]);
        let s1 = h.read_header(chain[1]);
        assert!(s1.is_free_or_slave());
        assert_eq!(s1.next, chain[2]);
        assert_eq!(h.read_header(chain[2]).next, NULL_BLOCK);
    }

    #[test]
    fn new_chain_returns_what_a_walk_reads_back() {
        let h = heap(1 << 20);
        for payload in [8, 248, 248 * 2 + 10] {
            let before = h.pmem().stats();
            let chain = h.new_chain(42, payload).unwrap();
            let reads = h.pmem().stats().delta(&before).reads;
            assert_eq!(reads, 0, "allocation reads nothing");
            assert_eq!(h.walk_chain(chain.blocks[0]), chain);
            assert_eq!(chain.blocks.len() as u64, h.blocks_for(payload));
        }
    }

    /// Regression: a `next` link that cycles back into its chain made every
    /// walk grow its block list until the allocator aborted. The walk is
    /// bounded by the heap's block count; past it, a catchable panic names
    /// the master.
    #[test]
    fn a_cyclic_chain_is_a_catchable_panic_not_an_endless_walk() {
        let h = heap(1 << 20);
        let master = h.alloc_chain(7, 248 + 10).unwrap();
        let slave = h.chain_blocks(master)[1];
        h.write_header(slave, BlockHeader::slave(master));
        let walk = std::panic::catch_unwind(|| h.chain_blocks(master));
        let panic = walk.expect_err("a cyclic chain must not walk to completion");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(message.contains("chain does not terminate"), "{message}");
        assert!(
            message.contains(&format!("{:#x}", h.block_addr(master))),
            "{message}"
        );
    }

    #[test]
    fn blocks_for_rounding() {
        let h = heap(1 << 20);
        assert_eq!(h.blocks_for(0), 1);
        assert_eq!(h.blocks_for(1), 1);
        assert_eq!(h.blocks_for(248), 1);
        assert_eq!(h.blocks_for(249), 2);
        assert_eq!(h.blocks_for(248 * 5), 5);
    }

    #[test]
    fn free_object_invalidates_and_recycles() {
        let h = heap(1 << 20);
        let master = h.alloc_chain(7, 500).unwrap();
        let chain = h.chain_blocks(master);
        h.set_valid(master, true);
        h.free_object(master);
        assert!(h.read_header(master).is_invalid_master());
        // All chain blocks are reallocatable.
        let mut got = Vec::new();
        for _ in 0..chain.len() {
            got.push(h.alloc_block().unwrap());
        }
        got.sort_unstable();
        let mut want = chain.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn extend_chain_appends() {
        let h = heap(1 << 20);
        let master = h.alloc_chain(7, 100).unwrap();
        let added = h.extend_chain(master, 2).unwrap();
        assert_eq!(added.len(), 2);
        let chain = h.chain_blocks(master);
        assert_eq!(chain.len(), 3);
        assert_eq!(&chain[1..], &added[..]);
    }

    #[test]
    fn extend_chain_onto_recycled_block_survives_crash() {
        // Regression: extend_chain published the tail link with a pwb but
        // wrote the new tail's own header *without* one. For a fresh bump
        // block the lost header happens to equal slave(NULL) = 0 on media,
        // but a recycled block still carries its previous life's header —
        // here a slave link into the freed object's chain — and a crash
        // after the caller's batching fence left the extended chain
        // wandering into foreign blocks.
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let h = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        // A 3-block object whose slave links are durable on media.
        let victim = h.alloc_chain(7, 248 * 2 + 10).unwrap();
        for b in h.chain_blocks(victim) {
            let hd = h.read_header(b);
            h.write_header_pwb(b, hd);
        }
        pmem.pfence();
        // Free it: its blocks enter the free queue with their stale slave
        // links still on media (free_object touches only the master header).
        h.free_object(victim);
        pmem.pfence();
        // Reuse: a fresh single-block object out of the free queue...
        let master = h.alloc_chain(9, 10).unwrap();
        h.write_header_pwb(master, h.read_header(master));
        pmem.pfence();
        // ...extended by one recycled block, then the caller's batching
        // fence, then power failure.
        let added = h.extend_chain(master, 1).unwrap();
        pmem.pfence();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let h2 = BlockHeap::open(pmem).unwrap();
        let chain = h2.chain_blocks(master);
        assert_eq!(
            chain,
            vec![master, added[0]],
            "chain walk wandered into the recycled block's previous life"
        );
        assert_eq!(h2.read_header(added[0]).next, NULL_BLOCK);
    }

    #[test]
    fn root_slots_persist() {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let h = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        h.set_root_slot(2, 0xabcd);
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let h2 = BlockHeap::open(pmem).unwrap();
        assert_eq!(h2.root_slot(2), 0xabcd);
        assert_eq!(h2.root_slot(3), 0);
    }

    #[test]
    fn set_valid_persists_with_fence() {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let h = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        let m = h.alloc_chain(9, 8).unwrap();
        h.set_valid(m, true);
        pmem.pfence();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let h2 = BlockHeap::open(pmem).unwrap();
        assert!(h2.read_header(m).is_valid_master());
    }

    #[test]
    fn rebuild_free_queue_frees_unmarked() {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let h = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        let live = h.alloc_chain(5, 400).unwrap(); // 2 blocks
        let dead = h.alloc_chain(5, 8).unwrap(); // 1 block
        h.set_valid(live, true);
        h.set_valid(dead, true);
        let bm = h.new_bitmap();
        for b in h.chain_blocks(live) {
            bm.mark(b);
        }
        let (freed, _) = h.rebuild_free_queue(&bm, 1);
        // The dead block and the 1 021 the first stride had not handed out.
        assert_eq!(freed, BUMP_STRIDE - 2);
        // The dead block's header is persistently cleared.
        assert_eq!(h.read_header(dead), BlockHeader::FREE);
        assert_eq!(h.alloc_block().unwrap(), dead);
    }

    #[test]
    fn rebuild_repairs_stale_bump() {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let h = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        let a = h.alloc_chain(5, 8).unwrap();
        h.set_valid(a, true);
        // Pretend the bump never persisted: reset it to data_start.
        pmem.write_u64(super::SB_BUMP, h.data_start());
        let bm = h.new_bitmap();
        bm.mark(a);
        h.rebuild_free_queue(&bm, 1);
        // Allocating must not hand out block `a` again.
        let b = h.alloc_block().unwrap();
        assert_ne!(a, b);
    }

    /// The bump pointer is persisted a stride at a time. A crash part of
    /// the way through a stride loses nothing: recovery's sweep queues the
    /// unreached tail, so allocating to exhaustion yields every non-live
    /// block exactly once. The stride that would straddle the end of the
    /// pool is clamped, and exhaustion leaves `SB_BUMP` where it is.
    #[test]
    fn crash_mid_stride_leaks_no_block_and_hands_none_out_twice() {
        let nblocks = 16 + BUMP_STRIDE + 500;
        let pmem = Pmem::new(PmemConfig::crash_sim(nblocks * 256));
        let h = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        let live: Vec<u64> = (0..10).map(|_| h.alloc_chain(5, 8).unwrap()).collect();
        for m in &live {
            h.set_valid(*m, true);
        }
        let before = pmem.stats();
        let more: Vec<u64> = (0..10).map(|_| h.alloc_block().unwrap()).collect();
        let d = pmem.stats().delta(&before);
        assert_eq!((d.writes, d.pwbs), (0, 0), "mid-stride blocks cost no NVMM");
        assert_eq!(
            more,
            (h.data_start() + 10..h.data_start() + 20).collect::<Vec<_>>()
        );
        assert_eq!(pmem.read_u64(SB_BUMP), h.data_start() + BUMP_STRIDE);
        assert_eq!(h.stats().bump, h.data_start() + 20);
        pmem.pfence();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        drop(h);

        let h2 = BlockHeap::open(Arc::clone(&pmem)).unwrap();
        let bm = h2.new_bitmap();
        for m in &live {
            bm.mark(*m);
        }
        let (freed, _) = h2.rebuild_free_queue(&bm, 1);
        assert_eq!(freed, BUMP_STRIDE - live.len() as u64);
        let mut got = std::collections::HashSet::new();
        while let Ok(b) = h2.alloc_block() {
            assert!(got.insert(b), "block {b} handed out twice");
        }
        let capacity = h2.stats().capacity_blocks;
        assert_eq!(
            got.len() as u64,
            capacity - live.len() as u64,
            "blocks leaked"
        );
        assert!(
            live.iter().all(|m| !got.contains(m)),
            "a live block was handed out"
        );
        assert_eq!(
            pmem.read_u64(SB_BUMP),
            nblocks,
            "the last stride is clamped"
        );
        for _ in 0..3 {
            assert!(matches!(
                h2.alloc_block(),
                Err(HeapError::OutOfMemory { .. })
            ));
        }
        assert_eq!(pmem.read_u64(SB_BUMP), nblocks, "exhaustion moved the bump");
    }

    /// A stride is reserved by one thread and spent by others, and a fence
    /// drains only its own thread's write-backs. Thread A reserves and never
    /// fences again; thread B takes a block of A's stride, validates it and
    /// fences. After a strict crash B's master is below `scan_end`, so the
    /// header scan finds it, and fresh allocation restarts above it.
    #[test]
    fn another_threads_stride_is_durable_before_its_blocks_are_used() {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let h = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        let fences = pmem.stats().pfences;
        std::thread::scope(|s| {
            s.spawn(|| h.alloc_block().unwrap()).join().unwrap();
        });
        assert_eq!(
            pmem.stats().pfences - fences,
            1,
            "the reservation is fenced by the thread that made it"
        );
        let master = std::thread::scope(|s| {
            s.spawn(|| {
                let before = pmem.stats();
                let m = h.alloc_chain(5, 8).unwrap();
                let d = pmem.stats().delta(&before);
                assert_eq!(d.pfences + d.psyncs, 0, "mid-stride: no fence");
                h.set_valid(m, true);
                pmem.pfence();
                m
            })
            .join()
            .unwrap()
        });
        pmem.crash(&CrashPolicy::strict()).unwrap();
        drop(h);

        let h2 = BlockHeap::open(Arc::clone(&pmem)).unwrap();
        assert!(master < h2.scan_end(), "acked master above the scan range");
        let mut valid = Vec::new();
        h2.for_each_header(|idx, hd| {
            if hd.valid {
                valid.push(idx);
            }
        });
        assert_eq!(valid, [master]);
        // No recovery sweep ran (the header-only variant runs none): fresh
        // allocation must still stay clear of everything handed out before.
        assert!(h2.alloc_block().unwrap() > master);
    }

    #[test]
    fn stats_track_occupancy() {
        let h = heap(1 << 20);
        let m = h.alloc_chain(3, 600).unwrap(); // 3 blocks
        h.free_object(m);
        let s = h.stats();
        assert_eq!(s.blocks_allocated, 3);
        assert_eq!(s.blocks_freed, 3);
        assert_eq!(s.free_queue_len, 3);
    }
}
