//! Umbrella crate for the `jnvm-rs` workspace.
//!
//! Re-exports the public crates of the J-NVM reproduction so that examples
//! and integration tests can use a single dependency root. See `README.md`
//! for the architecture overview and `DESIGN.md` for the system inventory.

pub use jnvm;
pub use jnvm_faultsim as faultsim;
pub use jnvm_gcsim as gcsim;
pub use jnvm_heap as heap;
pub use jnvm_jpdt as jpdt;
pub use jnvm_kvstore as kvstore;
pub use jnvm_lincheck as lincheck;
pub use jnvm_obs as obs;
pub use jnvm_pmem as pmem;
pub use jnvm_server as server;
pub use jnvm_tpcb as tpcb;
pub use jnvm_ycsb as ycsb;
