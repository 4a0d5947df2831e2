//! # jnvm — the J-NVM runtime in Rust
//!
//! A reproduction of the J-NVM framework (Lefort et al., SOSP '21) for
//! accessing Non-Volatile Main Memory through **off-heap persistent
//! objects**. A persistent object is decoupled into:
//!
//! * a **persistent data structure** living in the simulated NVMM pool
//!   (`jnvm-pmem`), laid out in fixed-size blocks (`jnvm-heap`), and
//! * a **volatile proxy** — an ordinary Rust value — that carries the
//!   methods and caches the block addresses.
//!
//! Because the persistent structures live outside any managed heap, no
//! garbage collector ever traverses them at runtime. Liveness is *by
//! reachability from the persistent root map*, enforced by a
//! **recovery-time GC** that runs when a pool is re-opened after a crash
//! (§2.4, §4.1.3). Deletion is explicit ([`JnvmRuntime::free`]).
//!
//! Two programming levels are offered, as in the paper:
//!
//! * the **high-level interface**: wrap mutations in failure-atomic blocks
//!   ([`JnvmRuntime::fa`]) — they execute entirely or not at all;
//! * the **low-level interface**: raw mediated accessors plus `pwb` /
//!   `pfence` / `psync` and the validation protocol (§3.2), from which
//!   hand-crafted crash-consistent data types (the `jnvm-jpdt` crate) are
//!   built.
//!
//! ```
//! use jnvm::{persistent_class, JnvmBuilder};
//! use jnvm_heap::HeapConfig;
//! use jnvm_pmem::{Pmem, PmemConfig};
//!
//! persistent_class! {
//!     pub class Counter {
//!         val count, set_count: i64;
//!     }
//! }
//!
//! let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
//! let rt = JnvmBuilder::new()
//!     .register::<Counter>()
//!     .create(pmem, HeapConfig::default())
//!     .unwrap();
//! let c = rt.fa(|| {
//!     let c = Counter::alloc_uninit(&rt);
//!     c.set_count(41);
//!     rt.root_put("counter", &c).unwrap();
//!     c
//! });
//! c.set_count(c.count() + 1);
//! assert_eq!(c.count(), 42);
//! ```

mod error;
mod fa;
mod field;
mod object;
mod proxy;
mod recovery;
mod registry;
mod rootmap;
mod runtime;

#[macro_use]
mod macros;

mod replica;

pub use error::JnvmError;
pub use fa::depth as fa_depth;
pub use fa::{commit_phase, CommitPhase, StagedTx};
pub use field::PVal;
pub use object::{PAny, PObject};
pub use proxy::{Blocks, Proxy, RawChain};
pub use recovery::{RecoveryMode, RecoveryOptions, RecoveryReport};
pub use replica::ReplicaSet;
pub use registry::{ClassOps, ClassRegistry};
pub use runtime::{Jnvm, JnvmBuilder, JnvmRuntime};

#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_recovery_hooks;
