//! # jnvm-heap — the J-NVM persistent block heap
//!
//! Implements §4.1 of the paper: the persistent heap is an array of
//! **fixed-size blocks** (256 B by default, matching Optane's internal
//! 256-B write unit). Fragmentation is eliminated by design — a large object
//! is a linked list of blocks — at the price of indirection, which the
//! volatile proxies of `jnvm` hide.
//!
//! Each block starts with a one-word header (Table 2 of the paper):
//!
//! ```text
//!   id (15 bits) | valid (1 bit) | next (48 bits)
//!   id != 0, valid = 1  ->  valid master block of class `id`
//!   id != 0, valid = 0  ->  invalid master block (freed at recovery)
//!   id == 0, valid = 0  ->  slave block or free block
//! ```
//!
//! Allocation uses a **volatile free queue** plus a **persistent bump
//! pointer** (§4.1.2): the allocator touches NVMM only when bumping. Small
//! objects that never grow avoid internal fragmentation through
//! per-size-class pool allocators ([`PoolManager`]) that pack several
//! objects per block (§4.4).
//!
//! The recovery procedure of §4.1.3 is split between this crate (header
//! scanning, the live bitmap, free-queue reconstruction) and the `jnvm`
//! runtime (the object-graph traversal, which needs class information).

mod alloc;
mod error;
mod layout;
pub mod par;
mod pool;
#[cfg(test)]
mod proptests;
mod scan;

pub use alloc::{BlockHeap, Chain, HeapConfig, HeapStats};
pub use error::HeapError;
pub use layout::{
    BlockHeader, CLASS_ID_MAX, CLASS_ID_POOL, FIRST_USER_CLASS_ID, HEADER_BYTES, NULL_BLOCK,
    REF_ADDR_MASK, SUPERBLOCK_BYTES,
};
pub use pool::{PoolManager, POOL_SLOT_CLASSES};
pub use scan::LiveBitmap;
