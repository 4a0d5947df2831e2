//! Volatile proxies over chained persistent data structures.
//!
//! A persistent object occupies one or more fixed-size blocks. Instead of a
//! single address, a proxy caches **the addresses of all its blocks**
//! (§4.1: "the proxy actually contains an array that holds the addresses of
//! all its blocks"), so locating the block of a field is a division.
//!
//! A small object that never grows may live in a pool slot instead (§4.4).
//! Its proxy is the same chain of one "block": the slot, whose one-word
//! mini-header stands where a block's header does, and whose payload is the
//! slot's. Opening one reads nothing from the device — the slot class comes
//! from the pool's DRAM table.
//!
//! Field accessors are *mediated*: each load/store checks the per-thread
//! failure-atomic nesting counter (§3.2). Inside a failure-atomic block,
//! writes to valid objects are staged in the block's volatile overlay and
//! reads observe them; outside, accesses go straight to NVMM.

use jnvm_heap::{BlockHeader, BlockHeap, Chain, HeapError, HEADER_BYTES, NULL_BLOCK};

use crate::fa;
use crate::runtime::{Jnvm, JnvmRuntime};

/// Address computation over a chain of blocks — or over one pool slot, a
/// chain of one — without transactional mediation. Shared by proxies, the
/// failure-atomic log and the recovery code.
#[derive(Debug, Clone)]
pub struct RawChain {
    /// Byte addresses of the chain's blocks, master first; for a pooled
    /// object, its mini-header's.
    pub blocks: Blocks,
    /// Usable payload bytes per block (per slot, for a pooled object).
    pub payload: u64,
}

/// The block addresses of a [`RawChain`], master first, read as a slice.
/// One address — a pooled object's or a one-block chain's — is held
/// inline, so that opening such an object allocates nothing.
#[derive(Debug, Clone)]
pub enum Blocks {
    /// A single block or pool slot.
    One(u64),
    /// Two blocks or more.
    Many(Vec<u64>),
}

impl Blocks {
    /// Append the addresses `more` at the tail.
    pub(crate) fn extend(&mut self, more: impl IntoIterator<Item = u64>) {
        if let Blocks::One(one) = *self {
            *self = Blocks::Many(vec![one]);
        }
        if let Blocks::Many(all) = self {
            all.extend(more);
        }
    }
}

impl From<Vec<u64>> for Blocks {
    fn from(blocks: Vec<u64>) -> Blocks {
        match blocks[..] {
            [one] => Blocks::One(one),
            _ => Blocks::Many(blocks),
        }
    }
}

impl std::ops::Deref for Blocks {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Blocks::One(one) => std::slice::from_ref(one),
            Blocks::Many(many) => many,
        }
    }
}

impl RawChain {
    /// The chain of the object at `addr`: a walk of the chain headers from
    /// its master block, or, for a pooled object, its slot — no device
    /// read.
    ///
    /// # Panics
    ///
    /// Panics, naming `addr`, if it is a pooled address whose block's slot
    /// class is unknown and whose meta word is corrupt; and as
    /// [`BlockHeap::walk_chain`] does.
    pub fn open(rt: &JnvmRuntime, addr: u64) -> RawChain {
        let pools = rt.pools();
        if pools.is_pooled_addr(addr) {
            let payload = pools
                .slot_payload(addr)
                .unwrap_or_else(|e| panic!("pooled object at {addr:#x}: {e}"));
            return RawChain {
                blocks: Blocks::One(addr),
                payload,
            };
        }
        let heap = rt.heap();
        RawChain::of(heap, heap.chain_blocks(heap.block_of_addr(addr)))
    }

    /// The chain of the block indexes `blocks`, master first.
    fn of(heap: &BlockHeap, mut blocks: Vec<u64>) -> RawChain {
        for b in &mut blocks {
            *b = heap.block_addr(*b);
        }
        RawChain {
            blocks: Blocks::from(blocks),
            payload: heap.payload_size(),
        }
    }

    /// Total payload capacity of the chain.
    pub fn capacity(&self) -> u64 {
        self.blocks.len() as u64 * self.payload
    }

    /// Map a logical payload offset to `(block index in chain, offset from
    /// block start)`.
    #[inline]
    pub fn locate(&self, logical: u64) -> (usize, u64) {
        if logical < self.payload {
            // The first block, where a small object's fields all are: no
            // division.
            return (0, HEADER_BYTES + logical);
        }
        let bi = (logical / self.payload) as usize;
        let off = HEADER_BYTES + logical % self.payload;
        (bi, off)
    }

    /// Physical byte address of a logical payload offset.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is beyond the chain's capacity.
    #[inline]
    pub fn phys(&self, logical: u64) -> u64 {
        let (bi, off) = self.locate(logical);
        self.blocks[bi] + off
    }

    /// Iterate the `(physical address, length)` segments covering the
    /// logical range `[logical, logical + len)`.
    pub fn segments(&self, mut logical: u64, mut len: u64, mut f: impl FnMut(u64, u64)) {
        while len > 0 {
            let (bi, off) = self.locate(logical);
            let in_block = (self.payload - (off - HEADER_BYTES)).min(len);
            f(self.blocks[bi] + off, in_block);
            logical += in_block;
            len -= in_block;
        }
    }

    /// Read bytes at a logical offset, block-segment safe. Unmediated
    /// (bypasses the failure-atomic overlay) — low-level interface only.
    pub fn read_bytes(&self, pmem: &jnvm_pmem::Pmem, logical: u64, out: &mut [u8]) {
        let mut done = 0usize;
        self.segments(logical, out.len() as u64, |addr, len| {
            pmem.read_bytes(addr, &mut out[done..done + len as usize]);
            done += len as usize;
        });
    }

    /// Write bytes at a logical offset, block-segment safe, no flush.
    /// Unmediated — low-level interface only.
    pub fn write_bytes(&self, pmem: &jnvm_pmem::Pmem, logical: u64, data: &[u8]) {
        let mut done = 0usize;
        self.segments(logical, data.len() as u64, |addr, len| {
            pmem.write_bytes(addr, &data[done..done + len as usize]);
            done += len as usize;
        });
    }

    /// `pwb` every line covering the logical range.
    pub fn pwb_range(&self, pmem: &jnvm_pmem::Pmem, logical: u64, len: u64) {
        self.segments(logical, len.max(1), |addr, seg| {
            pmem.pwb_range(addr, seg);
        });
    }
}

/// A proxy to a persistent object: a chain of blocks, or a pool slot.
///
/// Cloning a proxy is cheap and yields another view of the same persistent
/// data structure — like copying a Java reference.
#[derive(Clone)]
pub struct Proxy {
    rt: Jnvm,
    chain: RawChain,
}

impl Proxy {
    /// Allocate the persistent data structure for a new object of class
    /// `class_id` with `payload` bytes of fields, returning its proxy.
    ///
    /// The object starts **invalid** (§4.1.4); it becomes alive once
    /// flushed, validated and reachable. Inside a failure-atomic block the
    /// allocation is logged and validation happens at commit (§4.2).
    ///
    /// # Panics
    ///
    /// Panics on heap exhaustion. (Persistent-heap OOM is unrecoverable for
    /// the workloads this crate targets; a fallible variant is
    /// [`Proxy::try_alloc`].)
    pub fn alloc(rt: &Jnvm, class_id: u16, payload: u64) -> Proxy {
        Proxy::try_alloc(rt, class_id, payload).expect("persistent heap exhausted")
    }

    /// Fallible [`Proxy::alloc`].
    pub fn try_alloc(rt: &Jnvm, class_id: u16, payload: u64) -> Result<Proxy, crate::JnvmError> {
        let heap = rt.heap();
        let Chain { head, blocks } = heap.new_chain(class_id, payload)?;
        let chain = RawChain::of(heap, blocks);
        fa::note_alloc(chain.blocks[0], payload, head, &chain.blocks);
        Ok(Proxy {
            rt: rt.clone(),
            chain,
        })
    }

    /// [`Proxy::try_alloc`] for an object that never grows: a pool slot
    /// (§4.4) when `payload` fits the largest slot class, a chain
    /// otherwise. The object starts invalid either way, and is flushed and
    /// validated the same way.
    ///
    /// A slot's mini-header is stored once: here, invalid, outside a
    /// failure-atomic block; inside one, whole and valid by the block's
    /// commit — until then the slot holds the invalid word it was freed or
    /// carved with, and header reads inside the block see the one staged.
    pub fn try_alloc_small(
        rt: &Jnvm,
        class_id: u16,
        payload: u64,
    ) -> Result<Proxy, crate::JnvmError> {
        let pools = rt.pools();
        if payload > pools.max_payload() {
            return Proxy::try_alloc(rt, class_id, payload);
        }
        let head = BlockHeader::master(class_id, NULL_BLOCK)?;
        let addr = pools.alloc(payload)?;
        if !fa::note_alloc(addr, payload, head, &[addr]) {
            pools.write_mini(addr, head);
        }
        Ok(Proxy::open(rt, addr))
    }

    /// Open a proxy over the existing object at `addr`: one walk of its
    /// chain, or nothing read at all for a pooled object.
    pub fn open(rt: &Jnvm, addr: u64) -> Proxy {
        Proxy {
            rt: rt.clone(),
            chain: RawChain::open(rt, addr),
        }
    }

    /// The runtime this proxy belongs to.
    pub fn runtime(&self) -> &Jnvm {
        &self.rt
    }

    /// Master-block byte address (the persistent identity of the object).
    pub fn addr(&self) -> u64 {
        self.chain.blocks[0]
    }

    /// Class id, read from the object's (mini-)header.
    pub fn class_id(&self) -> u16 {
        self.rt.class_id_of_addr(self.addr())
    }

    /// Payload capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.chain.capacity()
    }

    /// Number of blocks in the chain.
    pub fn block_count(&self) -> usize {
        self.chain.blocks.len()
    }

    /// The underlying chain (low-level interface).
    pub fn chain(&self) -> &RawChain {
        &self.chain
    }

    /// Grow the object by `extra_blocks`, refreshing the cached block
    /// array. Fence-free append (§4.1.6 relies on this for extensible
    /// arrays).
    ///
    /// # Errors
    ///
    /// A pooled object cannot grow: it fails with
    /// [`HeapError::ObjectTooLargeForPool`] of the size asked for.
    pub fn extend(&mut self, extra_blocks: u64) -> Result<(), crate::JnvmError> {
        let heap = self.rt.heap();
        if self.rt.pools().is_pooled_addr(self.addr()) {
            let asked = self.capacity() + extra_blocks * heap.payload_size();
            return Err(HeapError::ObjectTooLargeForPool(asked).into());
        }
        let master_idx = heap.block_of_addr(self.addr());
        let added = heap.extend_chain(master_idx, extra_blocks)?;
        let added: Vec<u64> = added.into_iter().map(|b| heap.block_addr(b)).collect();
        fa::note_extend(self.addr(), &added);
        self.chain.blocks.extend(added);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Mediated field accessors.
    // ------------------------------------------------------------------

    /// Read a `u64` field at logical payload offset `off` (8-byte aligned).
    #[inline]
    pub fn read_u64(&self, off: u64) -> u64 {
        debug_assert!(off.is_multiple_of(8), "word fields must be 8-byte aligned");
        let addr = self.chain.phys(off);
        let staged = if fa::depth() > 0 {
            fa::overlay_word(addr)
        } else {
            None
        };
        staged.unwrap_or_else(|| self.rt.pmem().read_u64(addr))
    }

    /// Write a `u64` field at logical payload offset `off` (8-byte aligned).
    #[inline]
    pub fn write_u64(&self, off: u64, v: u64) {
        debug_assert!(off.is_multiple_of(8), "word fields must be 8-byte aligned");
        let addr = self.chain.phys(off);
        if !self.stage_write(addr, &v.to_le_bytes()) {
            self.rt.pmem().write_u64(addr, v);
        }
    }

    /// Read an `i64` field.
    #[inline]
    pub fn read_i64(&self, off: u64) -> i64 {
        self.read_u64(off) as i64
    }

    /// Write an `i64` field.
    #[inline]
    pub fn write_i64(&self, off: u64, v: i64) {
        self.write_u64(off, v as u64)
    }

    /// Read an `i32` field (stored in a full word).
    #[inline]
    pub fn read_i32(&self, off: u64) -> i32 {
        self.read_u64(off) as u32 as i32
    }

    /// Write an `i32` field (stored in a full word).
    #[inline]
    pub fn write_i32(&self, off: u64, v: i32) {
        self.write_u64(off, v as u32 as u64)
    }

    /// Read an `f64` field.
    #[inline]
    pub fn read_f64(&self, off: u64) -> f64 {
        f64::from_bits(self.read_u64(off))
    }

    /// Write an `f64` field.
    #[inline]
    pub fn write_f64(&self, off: u64, v: f64) {
        self.write_u64(off, v.to_bits())
    }

    /// Read a `bool` field (stored in a full word).
    #[inline]
    pub fn read_bool(&self, off: u64) -> bool {
        self.read_u64(off) != 0
    }

    /// Write a `bool` field (stored in a full word).
    #[inline]
    pub fn write_bool(&self, off: u64, v: bool) {
        self.write_u64(off, v as u64)
    }

    /// Read raw bytes from the logical payload range starting at `off`.
    pub fn read_bytes(&self, off: u64, out: &mut [u8]) {
        let in_fa = fa::depth() > 0;
        let mut done = 0usize;
        self.chain.segments(off, out.len() as u64, |addr, len| {
            let seg = &mut out[done..done + len as usize];
            self.rt.pmem().read_bytes(addr, seg);
            if in_fa {
                fa::overlay_patch(addr, seg);
            }
            done += len as usize;
        });
    }

    /// Write raw bytes into the logical payload range starting at `off`.
    pub fn write_bytes(&self, off: u64, data: &[u8]) {
        let mut done = 0usize;
        self.chain.segments(off, data.len() as u64, |addr, len| {
            let seg = &data[done..done + len as usize];
            if !self.stage_write(addr, seg) {
                self.rt.pmem().write_bytes(addr, seg);
            }
            done += len as usize;
        });
    }

    /// Read a persistent reference field: the byte address of the referenced
    /// object's data structure, or `None` for null.
    #[inline]
    pub fn read_ref(&self, off: u64) -> Option<u64> {
        match self.read_u64(off) {
            0 => None,
            a => Some(a),
        }
    }

    /// Write a persistent reference field (`None` stores null). The Java
    /// type system of the paper guarantees NVMM never holds references to
    /// volatile objects; here the guarantee comes from `addr` always
    /// originating from a [`crate::PObject::addr`].
    #[inline]
    pub fn write_ref(&self, off: u64, addr: Option<u64>) {
        self.write_u64(off, addr.unwrap_or(0));
    }

    /// Inside a failure-atomic block, stage the store of `data` at `addr`
    /// in the block's overlay. `false`: the caller stores in place (no
    /// block is active, or it allocated this object itself).
    #[inline]
    fn stage_write(&self, addr: u64, data: &[u8]) -> bool {
        fa::depth() > 0 && fa::overlay_write(&self.rt, self.addr(), addr, data)
    }

    // ------------------------------------------------------------------
    // Persistence control (low-level interface, §3.2.2).
    // ------------------------------------------------------------------

    /// `pwb()` of the paper: enqueue every cache line of the object
    /// (headers included) for write-back — whole blocks for a chain, the
    /// slot and no further for a pooled object. No-op inside a
    /// failure-atomic block, where the commit protocol owns flushing.
    pub fn pwb(&self) {
        if fa::depth() > 0 {
            return;
        }
        for b in self.chain.blocks.iter() {
            self.rt
                .pmem()
                .pwb_range(*b, HEADER_BYTES + self.chain.payload);
        }
    }

    /// `pwbX()` of the paper: enqueue only the lines holding the field at
    /// logical offset `off` (length `len`). No-op inside a failure-atomic
    /// block.
    pub fn pwb_field(&self, off: u64, len: u64) {
        if fa::depth() > 0 {
            return;
        }
        self.chain.segments(off, len.max(1), |addr, seg| {
            self.rt.pmem().pwb_range(addr, seg);
        });
    }

    /// Declare a labeled persist-ordering point over the field at logical
    /// offset `off` (length `len`): execution passing here asserts the
    /// field's cache lines are persisted (see
    /// [`jnvm_pmem::Pmem::ordering_point`]). No-op inside a failure-atomic
    /// block, where the commit protocol owns durability and declares its
    /// own ordering points.
    pub fn ordering_point(&self, label: &'static str, off: u64, len: u64) {
        if fa::depth() > 0 {
            return;
        }
        let pmem = self.rt.pmem();
        if pmem.sanitizer_active() {
            let mut fp: Vec<(u64, u64)> = Vec::new();
            self.chain.segments(off, len.max(1), |addr, seg| fp.push((addr, seg)));
            pmem.ordering_point(label, &fp);
        } else {
            pmem.ordering_point(label, &[]);
        }
    }

    /// Whether the object is currently valid (§3.2.3).
    pub fn is_valid(&self) -> bool {
        self.rt.is_valid_addr(self.addr())
    }

    /// Validate the object: set the header valid bit and enqueue its line.
    /// Deliberately fence-free so several validations can share one fence
    /// (Figure 5 of the paper). See [`JnvmRuntime::set_valid_addr`].
    pub fn validate(&self) {
        self.rt.set_valid_addr(self.addr(), true);
    }

    /// Atomic reference update (Figure 6): validate `new`, fence, then
    /// store the reference — guaranteeing the recovery pass can never find
    /// the slot pointing at an invalid object.
    pub fn update_ref(&self, off: u64, new: Option<&Proxy>) {
        if let Some(n) = new {
            n.validate();
        }
        self.rt.pfence();
        self.write_ref(off, new.map(|n| n.addr()));
        self.pwb_field(off, 8);
    }

    /// Atomic replace-and-free (§4.1.6 second helper): like
    /// [`Proxy::update_ref`], additionally freeing the previously referenced
    /// object, all under the same single fence.
    pub fn replace_ref_and_free(&self, off: u64, new: Option<&Proxy>) {
        let old = self.read_ref(off);
        self.update_ref(off, new);
        if let Some(old_addr) = old {
            self.rt.free_addr(old_addr);
        }
    }
}

impl std::fmt::Debug for Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proxy")
            .field("addr", &self.addr())
            .field("blocks", &self.chain.blocks.len())
            .field("payload", &self.chain.payload)
            .finish()
    }
}
