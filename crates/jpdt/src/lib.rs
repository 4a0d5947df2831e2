//! # jnvm-jpdt — the J-PDT persistent data type library (§4.3)
//!
//! Hand-crafted, crash-consistent persistent data types built **directly on
//! the low-level J-NVM interface** — no failure-atomic blocks. Internally
//! every mutation of a structure boils down to a single reference write in
//! NVMM, so the persistent representation is consistent at every instant;
//! fences are placed only where the paper's validation protocol requires
//! them.
//!
//! The map/set family follows the paper's decoupling pattern (§4.3.2): the
//! *content* (an extensible persistent array of entry references) lives in
//! NVMM, while the *logic* lives in a volatile **index** — a compact hash
//! table over a per-map key slab, a `BTreeMap` or a skip list mapping keys
//! to array cells, rebuilt at resurrection. Three proxy-caching variants are offered: `Base`,
//! `Cached` and `Eager` (§4.3.2). A map entry never grows, so it takes a
//! pool slot (§4.4), not a block.
//!
//! Types:
//!
//! * [`PString`], [`PBytes`] — small immutable blobs (pool-allocated when
//!   they fit, block chains otherwise; §4.4),
//! * [`PLongArray`], [`PByteArray`], [`PRefArray`] — fixed-size arrays,
//! * [`PRefVec`] — the extensible array (`ArrayList` drop-in, §4.3.1),
//! * [`PQueue`] — a persistent FIFO ring queue,
//! * [`PStringHashMap`] / [`PStringTreeMap`] / [`PStringSkipMap`] and the
//!   `i64`-keyed variants — persistent maps,
//! * [`PStringSet`], [`PI64Set`] — sets as self-referencing maps,
//! * [`SkipListMap`] — the volatile skip list used as a mirror (and as the
//!   volatile baseline in Figure 12).
//!
//! Call [`register_jpdt`] on your [`jnvm::JnvmBuilder`] to register every
//! J-PDT class.

mod blob;
mod parray;
mod pmap;
mod pqueue;
#[cfg(test)]
mod proptests;
mod pvec;
mod register;
mod skiplist;

pub use blob::{PBytes, PString};
pub use parray::{PByteArray, PLongArray, PRefArray};
pub use pmap::{
    CacheMode, HashIndex, Index, MapEntry, Mirror, Ordered, PI64HashMap, PI64Set, PI64SkipMap,
    PI64TreeMap, PKey, PMapCore, PStringHashMap, PStringSet, PStringSkipMap, PStringTreeMap,
    SkipMirror, TreeMirror,
};
pub use pqueue::PQueue;
pub use pvec::PRefVec;
pub use register::register_jpdt;
pub use skiplist::SkipListMap;
