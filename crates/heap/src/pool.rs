//! Memory-pool allocators for small fixed-size objects (§4.4).
//!
//! A whole 256-B block per 20-byte string wastes NVMM to internal
//! fragmentation. Pool allocators pack several objects of the same size
//! class into one block. The paper pools *immutable* objects only, because
//! its failure-atomic algorithm of §4.2 copies whole blocks and two mutable
//! objects sharing one would make the in-flight copies diverge. This
//! runtime's failure-atomic blocks log the words they write, never a block
//! (DESIGN.md §3), so a slot holds any object that never grows: the map's
//! entries and the kvstore's records as well as strings and byte blobs.
//!
//! Layout of a pool block:
//!
//! ```text
//! +0   block header   id = CLASS_ID_POOL, valid = 1, next = 0
//! +8   meta word      slot payload bytes (u32) | slot count (u32)
//! +16  slot[0]        mini-header (1 word, same encoding as Table 2,
//!                     next field unused) followed by the payload
//! ...  slot[i]        at +16 + i * (8 + payload)
//! ```
//!
//! A pooled object is addressed by the byte address of its mini-header,
//! which is never block-aligned — that is how the runtime tells pooled
//! references and block references apart.
//!
//! Which slot class a pool block holds is also kept in DRAM, one byte per
//! block (the class index + 1, 0 while unknown), so that locating, sizing
//! and freeing a slot read nothing from the device. The byte is written
//! when a block is carved and when recovery reads the block's meta word
//! anyway ([`PoolManager::rebuild`], [`PoolManager::scan_block_slots`]); a
//! lookup that finds 0 reads the meta word once and fills it in. A byte may
//! outlive its pool block (recovery reclaims an empty one whole): carving
//! overwrites it, and no pooled address points into a block that is not a
//! pool block.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use jnvm_pmem::CACHE_LINE;
use parking_lot::Mutex;

use crate::alloc::BlockHeap;
use crate::error::HeapError;
use crate::layout::{BlockHeader, CLASS_ID_POOL, HEADER_BYTES};
use crate::scan::LiveBitmap;

/// Slot payload sizes (bytes) of the pool size classes, ascending.
pub const POOL_SLOT_CLASSES: &[u64] = &[16, 32, 72, 112, 232];

/// Per-size-class pool allocators over a [`BlockHeap`].
pub struct PoolManager {
    heap: Arc<BlockHeap>,
    /// Payload size per active class (classes that fit the block size).
    classes: Vec<u64>,
    /// Volatile free-slot queues, one per class; rebuilt at recovery.
    queues: Vec<Mutex<VecDeque<u64>>>,
    /// The slot-class table: per block, its class index + 1, or 0 while
    /// unknown (see the module doc). Accessed `Relaxed`: a byte publishes
    /// nothing but itself, and a reader that still finds 0 reads the meta
    /// word, which the carve stored before any slot left this manager.
    slot_class: Box<[AtomicU8]>,
}

impl PoolManager {
    /// Create the pool manager for `heap`. Size classes whose slots do not
    /// fit the heap's block size are dropped.
    pub fn new(heap: Arc<BlockHeap>) -> PoolManager {
        let slots_area = heap.payload_size() - 8;
        let classes: Vec<u64> = POOL_SLOT_CLASSES
            .iter()
            .copied()
            .filter(|payload| payload + HEADER_BYTES <= slots_area)
            .collect();
        let queues = classes.iter().map(|_| Mutex::new(VecDeque::new())).collect();
        // Zeroed by the allocator, not by a loop: a page of the table costs
        // DRAM only once a pool block in its range is known.
        // SAFETY: all-zero bytes are an `AtomicU8` of value 0.
        let slot_class = unsafe { Box::new_zeroed_slice(heap.nblocks() as usize).assume_init() };
        PoolManager {
            heap,
            classes,
            queues,
            slot_class,
        }
    }

    /// The heap this manager allocates from.
    pub fn heap(&self) -> &Arc<BlockHeap> {
        &self.heap
    }

    /// Largest payload a pooled object may have on this heap.
    pub fn max_payload(&self) -> u64 {
        self.classes.last().copied().unwrap_or(0)
    }

    /// Whether `addr` refers to a pooled object (mini-header address) rather
    /// than a block object (block-aligned master address).
    pub fn is_pooled_addr(&self, addr: u64) -> bool {
        addr & (self.heap.block_size() - 1) != 0
    }

    fn class_for(&self, payload: u64) -> Result<usize, HeapError> {
        self.classes
            .iter()
            .position(|c| *c >= payload)
            .ok_or(HeapError::ObjectTooLargeForPool(payload))
    }

    fn slot_total(payload: u64) -> u64 {
        payload + HEADER_BYTES
    }

    fn slots_per_block(&self, payload: u64) -> u64 {
        (self.heap.payload_size() - 8) / Self::slot_total(payload)
    }

    /// Allocate a slot of at least `payload` bytes. Returns the mini-header
    /// address, and stores nothing to it: the slot's mini-header is the
    /// FREE word its last free stored, or the zero of a freshly carved
    /// slot — invalid either way, as a fresh allocation must be (§4.1.4).
    /// The caller stores the object's header: in place when it allocates
    /// outside a failure-atomic block, at commit inside one.
    pub fn alloc(&self, payload: u64) -> Result<u64, HeapError> {
        let ci = self.class_for(payload)?;
        let recycled = self.queues[ci].lock().pop_front();
        match recycled {
            Some(addr) => Ok(addr),
            None => self.carve(ci),
        }
    }

    /// Carve a new pool block of class index `ci`: queue every slot but the
    /// first, and return the first.
    fn carve(&self, ci: usize) -> Result<u64, HeapError> {
        let slot_payload = self.classes[ci];
        let (block, from_bump) = self.heap.take_block()?;
        let base = self.heap.block_addr(block);
        let pmem = self.heap.pmem();
        let nslots = self.slots_per_block(slot_payload);
        self.know(block, ci);
        let slots: Vec<u64> = (0..nslots)
            .map(|i| base + 16 + i * Self::slot_total(slot_payload))
            .collect();
        if !from_bump {
            // A recycled block holds its previous life's bytes, which a
            // header scan of a pool block reads as mini-headers: clear every
            // slot's, and fence before the pool header below can reach
            // media — else eviction could persist the header's line without
            // another line's cleared word, and a stale word that decodes as
            // a valid header would count as a live object. (A block from
            // the bump cursor reads zero: its slots are free already.)
            for &slot in &slots {
                pmem.write_u64(slot, 0);
            }
            let mut lines: Vec<u64> = slots.iter().map(|s| s / CACHE_LINE).collect();
            lines.dedup();
            for line in lines {
                pmem.pwb(line * CACHE_LINE);
            }
            pmem.pfence();
            let footprint: Vec<(u64, u64)> = slots.iter().map(|&s| (s, HEADER_BYTES)).collect();
            pmem.ordering_point("pool-carve", &footprint);
        }
        // The header and the meta word, neighbours on the block's first
        // line, in one store. Their line must be durable before any slot
        // inside this block is validated; pwb now, the allocating thread's
        // next pfence (always executed before an object becomes reachable)
        // orders it.
        let header = BlockHeader {
            id: CLASS_ID_POOL,
            valid: true,
            next: 0,
        };
        let mut head = [0u8; 16];
        head[..8].copy_from_slice(&header.encode().to_le_bytes());
        head[8..].copy_from_slice(&(slot_payload | nslots << 32).to_le_bytes());
        pmem.write_bytes(base, &head);
        pmem.pwb(base);
        pmem.publish_point("pool-carve", &[(base, 16)]);
        self.queues[ci].lock().extend(&slots[1..]);
        Ok(slots[0])
    }

    /// Free a pooled object: [`PoolManager::invalidate`], then
    /// [`PoolManager::release`]. Reads nothing from the device.
    ///
    /// Fails with [`HeapError::UnknownPoolClass`] if the table does not know
    /// the block and its meta word is corrupt; the slot is then invalid but
    /// never recycled.
    pub fn free(&self, addr: u64) -> Result<(), HeapError> {
        self.invalidate(addr);
        self.release(addr)
    }

    /// Persistently clear the mini-header of the pooled object at `addr`
    /// (store + `pwb`, no fence, like [`BlockHeap::invalidate_object`]). The
    /// cleared word is what a carved free slot holds; both recoveries keep
    /// only a slot whose mini-header is valid, so nothing reads the old one
    /// back.
    pub fn invalidate(&self, addr: u64) {
        self.write_mini_pwb(addr, BlockHeader::FREE);
    }

    /// Recycle the slot at `addr` through its class's free queue, touching
    /// no NVMM: the slot class comes from the DRAM table. See
    /// [`PoolManager::free`] for the error.
    pub fn release(&self, addr: u64) -> Result<(), HeapError> {
        let ci = self.locate(addr)?;
        self.queues[ci].lock().push_back(addr);
        Ok(())
    }

    /// Read the mini-header of the pooled object at `addr`.
    pub fn read_mini(&self, addr: u64) -> BlockHeader {
        BlockHeader::decode(self.heap.pmem().read_u64(addr))
    }

    /// Store the mini-header of the pooled object at `addr` (no flush).
    pub fn write_mini(&self, addr: u64, h: BlockHeader) {
        self.heap.pmem().write_u64(addr, h.encode());
    }

    fn write_mini_pwb(&self, addr: u64, h: BlockHeader) {
        self.write_mini(addr, h);
        self.heap.pmem().pwb(addr);
    }

    /// Set the validity of a pooled object and `pwb` its line (fence-free,
    /// as with [`BlockHeap::set_valid`]).
    pub fn set_valid(&self, addr: u64, valid: bool) {
        let mut h = self.read_mini(addr);
        h.valid = valid;
        self.write_mini_pwb(addr, h);
    }

    /// Slot payload capacity of the pooled object at `addr`, from the DRAM
    /// slot-class table (see [`PoolManager::free`] for the error).
    pub fn slot_payload(&self, addr: u64) -> Result<u64, HeapError> {
        Ok(self.classes[self.class_index(addr)?])
    }

    /// The slot payload the DRAM table holds for block `idx`, without a
    /// device read: `None` while the table does not know the block.
    pub fn known_slot_payload(&self, idx: u64) -> Option<u64> {
        match self.slot_class[idx as usize].load(Ordering::Relaxed) {
            0 => None,
            k => Some(self.classes[k as usize - 1]),
        }
    }

    /// Record that pool block `idx` holds slots of class `ci`.
    fn know(&self, idx: u64, ci: usize) {
        self.slot_class[idx as usize].store(ci as u8 + 1, Ordering::Relaxed);
    }

    /// The class index of the slot payload `payload` read from a meta word.
    fn class_of_payload(&self, payload: u64) -> Option<usize> {
        self.classes.iter().position(|c| *c == payload)
    }

    /// The size class index of the pooled address `addr`: from the DRAM
    /// table, or — on a miss — from the pool block's meta word, read once
    /// and remembered.
    ///
    /// Fails with [`HeapError::UnknownPoolClass`] if the meta word names a
    /// slot class the allocator was not configured with.
    fn class_index(&self, addr: u64) -> Result<usize, HeapError> {
        let block = self.heap.block_of_addr(addr);
        match self.slot_class[block as usize].load(Ordering::Relaxed) {
            0 => {
                let meta = self.heap.block_addr(block) + 8;
                let payload = self.heap.pmem().read_u32(meta) as u64;
                let ci = self
                    .class_of_payload(payload)
                    .ok_or(HeapError::UnknownPoolClass { block, payload })?;
                self.know(block, ci);
                Ok(ci)
            }
            k => Ok(k as usize - 1),
        }
    }

    /// [`PoolManager::class_index`] of a slot about to be recycled.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not lie on a slot boundary of a pool block —
    /// that indicates heap corruption or a non-pooled address.
    fn locate(&self, addr: u64) -> Result<usize, HeapError> {
        let ci = self.class_index(addr)?;
        assert!(
            self.on_slot_boundary(addr, ci),
            "address {addr:#x} is not on a slot boundary"
        );
        Ok(ci)
    }

    /// Whether `addr` is the mini-header address of one of the slots of
    /// class index `ci` its block holds.
    fn on_slot_boundary(&self, addr: u64, ci: usize) -> bool {
        let total = Self::slot_total(self.classes[ci]);
        let first = self.heap.block_addr(self.heap.block_of_addr(addr)) + 16;
        addr >= first
            && (addr - first).is_multiple_of(total)
            && (addr - first) / total < self.slots_per_block(self.classes[ci])
    }

    /// Whether `addr` can be the mini-header address of a slot: it lies in
    /// a pool block of the heap's data area — one the DRAM table knows, or,
    /// on a miss, whose header says `CLASS_ID_POOL` and whose meta word
    /// names a configured class (one 16-byte read, remembered) — on a slot
    /// boundary. What recovery checks before it trusts a reference word:
    /// any other word would read past the device or take a payload word of
    /// some object for a header.
    pub fn is_slot_addr(&self, addr: u64) -> bool {
        let heap = &self.heap;
        let block = heap.block_of_addr(addr);
        if block < heap.data_start() || block >= heap.nblocks() {
            return false;
        }
        let ci = match self.slot_class[block as usize].load(Ordering::Relaxed) {
            0 => {
                let mut head = [0u8; 16];
                heap.pmem().read_bytes(heap.block_addr(block), &mut head);
                let [header, meta] =
                    [0, 8].map(|at| u64::from_le_bytes(head[at..at + 8].try_into().unwrap()));
                match self.class_of_payload(meta as u32 as u64) {
                    Some(ci) if BlockHeader::decode(header).id == CLASS_ID_POOL => {
                        self.know(block, ci);
                        ci
                    }
                    _ => return false,
                }
            }
            k => k as usize - 1,
        };
        self.on_slot_boundary(addr, ci)
    }

    /// Recovery (§4.1.3 extension for pools): for every *marked* pool block,
    /// keep slots in `live_slots`, persistently clear the rest and rebuild
    /// the free-slot queues. Unmarked pool blocks are reclaimed wholesale by
    /// [`BlockHeap::rebuild_free_queue`]. Call this *before* that.
    ///
    /// The pool-block scan is partitioned over `threads` sweep workers (one
    /// worker is the calling thread — see [`crate::par::run_workers_timed`]).
    /// Slot clears are idempotent (a crashed sweep redone from scratch
    /// converges), and each worker `pfence`s its own persistence domain.
    /// Free slots enter the queues in ascending block order regardless of
    /// the thread count.
    ///
    /// Returns each sweep worker's modeled device time.
    pub fn rebuild(
        &self,
        bitmap: &LiveBitmap,
        live_slots: &HashSet<u64>,
        threads: usize,
    ) -> Vec<Duration> {
        let pmem = self.heap.pmem();
        let chunks =
            crate::par::partition_range(self.heap.data_start(), self.heap.scan_end(), threads);
        // Each worker sweeps its `[lo, hi)` of the block range, clearing
        // dead slots in marked pool blocks, and returns the (class index,
        // slot addr) pairs to queue, in block order.
        let swept = crate::par::run_workers_timed(chunks, |(lo, hi)| {
            let mut freed = Vec::new();
            for idx in lo..hi {
                let h = self.heap.read_header(idx);
                if h.id != CLASS_ID_POOL || !bitmap.is_marked(idx) {
                    continue;
                }
                let base = self.heap.block_addr(idx);
                let payload = pmem.read_u32(base + 8) as u64;
                let Some(ci) = self.class_of_payload(payload) else {
                    continue;
                };
                self.know(idx, ci);
                let nslots = pmem.read_u32(base + 12) as u64;
                for i in 0..nslots {
                    let slot = base + 16 + i * Self::slot_total(payload);
                    if live_slots.contains(&slot) {
                        continue;
                    }
                    if pmem.read_u64(slot) != 0 {
                        pmem.write_u64(slot, 0);
                        pmem.pwb(slot);
                    }
                    freed.push((ci, slot));
                }
            }
            // Drain this worker's slot-clear write-backs (a persistence
            // domain drains only its owner's queue).
            pmem.pfence();
            freed
        });
        let mut worker_times = Vec::with_capacity(swept.len());
        for (list, dt) in swept {
            for (ci, slot) in list {
                self.queues[ci].lock().push_back(slot);
            }
            worker_times.push(dt);
        }
        worker_times
    }

    /// Iterate the slots of the pool block `idx`, yielding each slot's
    /// mini-header address and decoded mini-header, and record the block's
    /// slot class in the DRAM table. Used by the header-scan recovery
    /// variant. No-op if `idx` is not a recognizable pool block.
    pub fn scan_block_slots(&self, idx: u64, mut f: impl FnMut(u64, BlockHeader)) {
        let base = self.heap.block_addr(idx);
        let pmem = self.heap.pmem();
        let payload = pmem.read_u32(base + 8) as u64;
        let Some(ci) = self.class_of_payload(payload) else {
            return;
        };
        self.know(idx, ci);
        let nslots = pmem.read_u32(base + 12) as u64;
        let max_slots = (self.heap.payload_size() - 8) / Self::slot_total(payload);
        for i in 0..nslots.min(max_slots) {
            let slot = base + 16 + i * Self::slot_total(payload);
            f(slot, BlockHeader::decode(pmem.read_u64(slot)));
        }
    }

    /// Number of free slots currently queued (all classes).
    pub fn free_slots(&self) -> u64 {
        self.queues.iter().map(|q| q.lock().len() as u64).sum()
    }
}

impl std::fmt::Debug for PoolManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolManager")
            .field("classes", &self.classes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::HeapConfig;
    use jnvm_pmem::{Pmem, PmemConfig};

    fn mk() -> (Arc<BlockHeap>, PoolManager) {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let heap = BlockHeap::format(pmem, HeapConfig::default()).unwrap();
        let pm = PoolManager::new(Arc::clone(&heap));
        (heap, pm)
    }

    /// A slot of `payload` bytes holding a valid object of class `id`, its
    /// header stored and written back as an allocation outside a
    /// failure-atomic block, validated, stores it.
    fn alloc_valid(pm: &PoolManager, id: u16, payload: u64) -> u64 {
        let a = pm.alloc(payload).unwrap();
        pm.write_mini(
            a,
            BlockHeader {
                id,
                valid: true,
                next: 0,
            },
        );
        pm.heap().pmem().pwb(a);
        a
    }

    #[test]
    fn classes_fit_block() {
        let (_h, pm) = mk();
        assert_eq!(pm.max_payload(), 232);
    }

    #[test]
    fn alloc_packs_many_objects_per_block() {
        let (heap, pm) = mk();
        let before = heap.stats().blocks_allocated;
        // 16-byte payloads: slot total 24, (248-8)/24 = 10 per block.
        let addrs: Vec<u64> = (0..10).map(|_| pm.alloc(10).unwrap()).collect();
        assert_eq!(heap.stats().blocks_allocated - before, 1);
        let blocks: HashSet<u64> = addrs.iter().map(|a| heap.block_of_addr(*a)).collect();
        assert_eq!(blocks.len(), 1);
        // 11th allocation opens a second block.
        pm.alloc(10).unwrap();
        assert_eq!(heap.stats().blocks_allocated - before, 2);
    }

    #[test]
    fn pooled_addresses_are_not_block_aligned() {
        let (_h, pm) = mk();
        let a = pm.alloc(30).unwrap();
        assert!(pm.is_pooled_addr(a));
    }

    #[test]
    fn corrupt_pool_meta_reports_unknown_class() {
        let (heap, pm) = mk();
        let a = pm.alloc(16).unwrap();
        // Scribble an impossible slot class into the block's meta word. The
        // manager that carved the block knows its class without reading
        // it; a fresh one (a reopened pool's) has to read the meta word.
        let base = heap.block_addr(heap.block_of_addr(a));
        heap.pmem().write_u32(base + 8, 3);
        assert_eq!(pm.slot_payload(a).unwrap(), 16);
        let pm2 = PoolManager::new(Arc::clone(&heap));
        match pm2.free(a) {
            Err(HeapError::UnknownPoolClass { payload: 3, .. }) => {}
            other => panic!("expected UnknownPoolClass, got {other:?}"),
        }
    }

    #[test]
    fn free_recycles_slot() {
        let (_h, pm) = mk();
        let a = alloc_valid(&pm, 20, 16);
        let before = pm.heap().pmem().stats();
        pm.free(a).unwrap();
        let d = pm.heap().pmem().stats().delta(&before);
        assert_eq!(pm.read_mini(a), BlockHeader::FREE, "a carved slot's word");
        // Neither the mini-header it clears nor the meta word: the slot
        // class is in the DRAM table (4 B while it came from the meta word).
        assert_eq!(d.bytes_read, 0, "bytes a free reads");
        // Freed slot is preferred over the block's remaining fresh slots?
        // Not guaranteed (queue order), but the slot must eventually return.
        let mut seen = false;
        for _ in 0..20 {
            if pm.alloc(16).unwrap() == a {
                seen = true;
                break;
            }
        }
        assert!(seen, "freed slot was never reallocated");
    }

    /// The DRAM slot-class table holds what each pool block's meta word
    /// does — after carving, after recovery's `rebuild` and after the header
    /// scan `HeaderScanOnly` recovery runs — and once it knows a block,
    /// sizing and freeing its slots read nothing. A miss reads the meta word
    /// once.
    #[test]
    fn slot_class_table_matches_every_meta_word() {
        let (heap, pm) = mk();
        // Two blocks of every class, the second one partly used.
        let mut addrs = Vec::new();
        for &payload in POOL_SLOT_CLASSES {
            for _ in 0..pm.slots_per_block(payload) + 1 {
                addrs.push(alloc_valid(&pm, 9, payload));
            }
        }
        let pool_blocks: Vec<u64> = (heap.data_start()..heap.scan_end())
            .filter(|i| heap.read_header(*i).id == CLASS_ID_POOL)
            .collect();
        assert_eq!(pool_blocks.len(), 2 * POOL_SLOT_CLASSES.len());
        let meta = |idx: u64| heap.pmem().read_u32(heap.block_addr(idx) + 8) as u64;
        let agrees = |pm: &PoolManager| {
            let known = |i: &u64| pm.known_slot_payload(*i) == Some(meta(*i));
            pool_blocks.iter().all(known)
        };
        assert!(agrees(&pm), "after carving");

        let before = heap.pmem().stats();
        for a in &addrs {
            pm.slot_payload(*a).unwrap();
        }
        pm.free(addrs[0]).unwrap();
        let d = heap.pmem().stats().delta(&before);
        assert_eq!((d.reads, d.bytes_read), (0, 0), "slot_payload and free");

        // A restarted manager knows no block until recovery reads them.
        let rebuilt = PoolManager::new(Arc::clone(&heap));
        assert!(pool_blocks
            .iter()
            .all(|i| rebuilt.known_slot_payload(*i).is_none()));
        let bm = heap.new_bitmap();
        for i in &pool_blocks {
            bm.mark(*i);
        }
        rebuilt.rebuild(&bm, &addrs[1..].iter().copied().collect(), 1);
        assert!(agrees(&rebuilt), "after rebuild");
        let scanned = PoolManager::new(Arc::clone(&heap));
        for i in &pool_blocks {
            scanned.scan_block_slots(*i, |_, _| {});
        }
        assert!(agrees(&scanned), "after the header scan");

        let missed = PoolManager::new(Arc::clone(&heap));
        let before = heap.pmem().stats();
        assert_eq!(missed.slot_payload(addrs[1]).unwrap(), 16);
        assert_eq!(missed.slot_payload(addrs[2]).unwrap(), 16);
        let d = heap.pmem().stats().delta(&before);
        assert_eq!(
            (d.reads, d.bytes_read),
            (1, 4),
            "one meta word per missed block"
        );
    }

    /// Only a slot boundary of a pool block is a slot address — known to
    /// the table or, for a manager that has not met the block, read from
    /// its header and meta word — not a word past the heap, inside a chain
    /// block, or inside a slot.
    #[test]
    fn slot_addresses_are_slot_boundaries_of_pool_blocks() {
        let (heap, pm) = mk();
        let slots: Vec<u64> = (0..3).map(|_| pm.alloc(100).unwrap()).collect();
        let chain = heap.block_addr(heap.alloc_chain(7, 8).unwrap());
        let fresh = PoolManager::new(Arc::clone(&heap));
        for pm in [&pm, &fresh] {
            assert!(slots.iter().all(|s| pm.is_slot_addr(*s)));
            let past = heap.nblocks() * heap.block_size() + 16;
            for bad in [slots[0] + 8, slots[2] + 64, chain + 16, past, 16] {
                assert!(!pm.is_slot_addr(bad), "{bad:#x}");
            }
        }
    }

    #[test]
    fn size_class_selection() {
        let (_h, pm) = mk();
        let a = pm.alloc(16).unwrap();
        let b = pm.alloc(17).unwrap();
        assert_eq!(pm.slot_payload(a).unwrap(), 16);
        assert_eq!(pm.slot_payload(b).unwrap(), 32);
        assert!(matches!(
            pm.alloc(233),
            Err(HeapError::ObjectTooLargeForPool(233))
        ));
    }

    /// An allocation stores no mini-header: a carved slot holds the zero
    /// of a fresh block, a recycled one the FREE word of its free — both
    /// invalid. Taking a recycled slot touches the device not at all.
    #[test]
    fn alloc_stores_no_mini_header() {
        let (heap, pm) = mk();
        let a = pm.alloc(60).unwrap();
        assert_eq!(pm.read_mini(a), BlockHeader::FREE, "a carved slot");
        let head = BlockHeader {
            id: 321,
            valid: false,
            next: 0,
        };
        pm.write_mini(a, head);
        pm.set_valid(a, true);
        assert_eq!(pm.read_mini(a), BlockHeader { valid: true, ..head });
        pm.free(a).unwrap();
        let before = heap.pmem().stats();
        let again = (0..3).map(|_| pm.alloc(60).unwrap()).find(|s| *s == a);
        let d = heap.pmem().stats().delta(&before);
        assert_eq!(again, Some(a), "the freed slot comes back");
        assert_eq!((d.reads, d.writes, d.pwbs), (0, 0, 0), "a recycled slot");
        assert_eq!(pm.read_mini(a), BlockHeader::FREE, "a recycled slot");
    }

    /// A block from the bump cursor has never been written: carving it
    /// stores the block header and the meta word — one store, one `pwb` —
    /// and leaves every slot's zero alone. The slots read zero before and
    /// after a power failure.
    #[test]
    fn a_block_from_the_bump_cursor_reads_zero_past_its_head() {
        let (heap, pm) = mk();
        let pmem = Arc::clone(heap.pmem());
        heap.alloc_block().unwrap(); // reserves the bump stride
        let before = pmem.stats();
        let a = pm.alloc(16).unwrap();
        let d = pmem.stats().delta(&before);
        assert_eq!(
            (d.writes, d.bytes_written, d.pwbs),
            (1, 16, 1),
            "the carve of a fresh block"
        );
        let base = heap.block_addr(heap.block_of_addr(a));
        let rest = |pmem: &Pmem| {
            let mut bytes = vec![0xAAu8; (heap.block_size() - 16) as usize];
            pmem.read_bytes(base + 16, &mut bytes);
            bytes.iter().all(|b| *b == 0)
        };
        assert!(rest(&pmem), "before the crash");
        pmem.pfence();
        pmem.crash(&jnvm_pmem::CrashPolicy::strict()).unwrap();
        let heap2 = BlockHeap::open(Arc::clone(&pmem)).unwrap();
        assert_eq!(heap2.read_header(heap2.block_of_addr(a)).id, CLASS_ID_POOL);
        assert!(rest(&pmem), "after the crash");
    }

    /// Regression: carving a block the free queue recycled cleared its slot
    /// mini-headers with stores nothing wrote back, so after a power failure
    /// the block showed its previous life's bytes at those offsets — here,
    /// words that decode as valid headers, which a header scan keeps. The
    /// carve writes back every cleared line, ordered by the allocating
    /// thread's next fence.
    #[test]
    fn carving_a_recycled_block_makes_its_cleared_headers_durable() {
        let (heap, pm) = mk();
        let pmem = Arc::clone(heap.pmem());
        let old = heap.alloc_chain(7, 8).unwrap();
        let valid = BlockHeader {
            id: 7,
            valid: true,
            next: 0,
        }
        .encode();
        let words: Vec<u8> = (0..heap.payload_size() / 8)
            .flat_map(|_| valid.to_le_bytes())
            .collect();
        pmem.write_bytes(heap.payload_addr(old), &words);
        pmem.pwb_range(heap.block_addr(old), heap.block_size());
        heap.set_valid(old, true);
        pmem.pfence();
        heap.free_object(old);
        let a = pm.alloc(16).unwrap();
        assert_eq!(heap.block_of_addr(a), old, "the carve recycled the block");
        pmem.pfence();
        pmem.crash(&jnvm_pmem::CrashPolicy::strict()).unwrap();
        let heap2 = BlockHeap::open(Arc::clone(&pmem)).unwrap();
        let mut slots = 0;
        PoolManager::new(heap2).scan_block_slots(old, |slot, mini| {
            assert!(!mini.valid, "slot {slot:#x}: {mini:?}");
            slots += 1;
        });
        assert_eq!(slots, 10);
    }

    #[test]
    fn rebuild_keeps_live_frees_dead() {
        let (heap, pm) = mk();
        let live = alloc_valid(&pm, 9, 16);
        let dead = alloc_valid(&pm, 9, 16);
        heap.pmem().pfence();

        // Simulate restart: new manager with empty queues.
        let pm2 = PoolManager::new(Arc::clone(&heap));
        let bm = heap.new_bitmap();
        bm.mark(heap.block_of_addr(live));
        let mut live_slots = HashSet::new();
        live_slots.insert(live);
        pm2.rebuild(&bm, &live_slots, 1);

        assert!(pm2.read_mini(live).valid);
        assert_eq!(heap.pmem().read_u64(dead), 0, "dead slot cleared");
        // 10 slots per block, one live -> 9 free.
        assert_eq!(pm2.free_slots(), 9);
    }

    #[test]
    fn pool_block_header_is_flushed_with_first_fence() {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let heap = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        let pm = PoolManager::new(Arc::clone(&heap));
        let a = alloc_valid(&pm, 9, 16);
        pmem.pfence();
        pmem.crash(&jnvm_pmem::CrashPolicy::strict()).unwrap();
        let heap2 = BlockHeap::open(Arc::clone(&pmem)).unwrap();
        let h = heap2.read_header(heap2.block_of_addr(a));
        assert_eq!(h.id, CLASS_ID_POOL);
        assert!(h.valid);
        let pm2 = PoolManager::new(heap2);
        assert!(pm2.read_mini(a).valid);
        assert_eq!(pm2.read_mini(a).id, 9);
    }
}
