//! The J-NVM runtime: pool lifecycle (create / open with recovery), object
//! allocation and deletion, validation, and the mediated persistence
//! primitives.

use std::sync::{Arc, OnceLock};

use jnvm_heap::{BlockHeap, HeapConfig, PoolManager};
use jnvm_pmem::Pmem;
use parking_lot::Mutex;

use crate::error::JnvmError;
use crate::fa::{self, FaManager};
use crate::object::PObject;
use crate::recovery::{self, RecoveryOptions, RecoveryReport};
use crate::registry::{ClassOps, ClassRegistry};
use crate::rootmap::RootState;

/// Shared handle to a [`JnvmRuntime`]. Proxies clone this freely.
pub type Jnvm = Arc<JnvmRuntime>;

/// Builder collecting class registrations before a pool is created or
/// opened. Registration order determines class ids on a fresh pool; on an
/// existing pool, persisted names win.
#[derive(Default)]
pub struct JnvmBuilder {
    classes: Vec<ClassOps>,
}

impl JnvmBuilder {
    /// Start an empty builder.
    pub fn new() -> JnvmBuilder {
        JnvmBuilder::default()
    }

    /// Register persistent class `T`. Idempotent per class name.
    pub fn register<T: PObject>(mut self) -> JnvmBuilder {
        if !self.classes.iter().any(|c| c.name == T::CLASS_NAME) {
            self.classes.push(ClassOps::of::<T>());
        }
        self
    }

    /// Format a fresh persistent heap over `pmem` and bring up the runtime.
    pub fn create(self, pmem: Arc<Pmem>, cfg: HeapConfig) -> Result<Jnvm, JnvmError> {
        let heap = BlockHeap::format(pmem, cfg)?;
        let rt = JnvmRuntime::bare(heap);
        let registry = ClassRegistry::create(&rt, &self.classes)?;
        rt.registry
            .set(registry)
            .unwrap_or_else(|_| unreachable!("fresh runtime has no registry"));
        rt.create_root_map();
        FaManager::create_dir(&rt);
        rt.pmem().psync();
        Ok(rt)
    }

    /// Open an existing heap: replay failure-atomic logs and run the
    /// recovery procedure (sequential [`crate::RecoveryMode::Full`]).
    pub fn open(self, pmem: Arc<Pmem>) -> Result<(Jnvm, RecoveryReport), JnvmError> {
        self.open_with_options(pmem, RecoveryOptions::default())
    }

    /// Open with full control over the recovery pass: its mode (J-PFA-nogc
    /// uses [`crate::RecoveryMode::HeaderScanOnly`]) and the number of worker
    /// threads for mark and sweep. Any thread count yields the same
    /// recovered heap (`threads: 1` is the sequential oracle the
    /// equivalence suite compares against).
    pub fn open_with_options(
        self,
        pmem: Arc<Pmem>,
        opts: RecoveryOptions,
    ) -> Result<(Jnvm, RecoveryReport), JnvmError> {
        let heap = BlockHeap::open(pmem)?;
        let rt = JnvmRuntime::bare(heap);
        let registry = ClassRegistry::open(&rt, &self.classes)?;
        rt.registry
            .set(registry)
            .unwrap_or_else(|_| unreachable!("fresh runtime has no registry"));
        let report = recovery::run(&rt, opts)?;
        Ok((rt, report))
    }
}

/// The runtime: every persistent-object operation flows through it.
pub struct JnvmRuntime {
    heap: Arc<BlockHeap>,
    pools: PoolManager,
    registry: OnceLock<ClassRegistry>,
    root: Mutex<RootState>,
    fa: FaManager,
}

impl JnvmRuntime {
    fn bare(heap: Arc<BlockHeap>) -> Jnvm {
        let pools = PoolManager::new(Arc::clone(&heap));
        Arc::new(JnvmRuntime {
            heap,
            pools,
            registry: OnceLock::new(),
            root: Mutex::new(RootState::default()),
            fa: FaManager::new(),
        })
    }

    /// The underlying device.
    pub fn pmem(&self) -> &Arc<Pmem> {
        self.heap.pmem()
    }

    /// The block heap.
    pub fn heap(&self) -> &Arc<BlockHeap> {
        &self.heap
    }

    /// The pools of small fixed-size objects.
    pub fn pools(&self) -> &PoolManager {
        &self.pools
    }

    /// The class registry.
    ///
    /// # Panics
    ///
    /// Panics if called on a runtime that failed mid-construction (never
    /// observable through the public API).
    pub fn registry(&self) -> &ClassRegistry {
        self.registry.get().expect("runtime fully constructed")
    }

    pub(crate) fn root_state(&self) -> &Mutex<RootState> {
        &self.root
    }

    pub(crate) fn fa_manager(&self) -> &FaManager {
        &self.fa
    }

    // ------------------------------------------------------------------
    // Allocation and deletion.
    // ------------------------------------------------------------------

    /// Allocate an object of class `T` with `payload` bytes of fields that
    /// never grows, returning its proxy: a pool slot (§4.4) when it fits
    /// one, a chain otherwise (see [`crate::Proxy::try_alloc_small`]).
    /// Failure-atomic-block aware.
    pub fn alloc_small<T: PObject>(self: &Jnvm, payload: u64) -> Result<crate::Proxy, JnvmError> {
        let id = self.registry().id_of::<T>()?;
        crate::Proxy::try_alloc_small(self, id, payload)
    }

    /// Allocate a block-chained object of class `T` with `payload` bytes of
    /// fields, returning its proxy. Failure-atomic-block aware.
    pub fn alloc_proxy<T: PObject>(self: &Jnvm, payload: u64) -> Result<crate::Proxy, JnvmError> {
        let id = self.registry().id_of::<T>()?;
        crate::Proxy::try_alloc(self, id, payload)
    }

    /// `JNVM.free`: explicitly delete a persistent object (§4.1.5). Inside
    /// a failure-atomic block the free is logged and deferred to commit.
    pub fn free<T: PObject>(self: &Jnvm, obj: T) {
        self.free_addr(obj.addr());
    }

    /// [`JnvmRuntime::free`] by address.
    pub fn free_addr(self: &Jnvm, addr: u64) {
        if !fa::note_free(addr) {
            self.free_addr_now(addr);
        }
    }

    /// Immediate free, bypassing any failure-atomic block (used by an
    /// aborted block and outside blocks).
    pub(crate) fn free_addr_now(&self, addr: u64) {
        let blocks = self.invalidate_addr(addr);
        self.release_addr(addr, blocks);
    }

    /// The first half of a free: invalidate the object at `addr` (one
    /// header store + `pwb`, no fence) — clear a slot's mini-header, or a
    /// master's valid bit — and return its chain's blocks (none for a
    /// slot), which [`JnvmRuntime::release_addr`] recycles.
    pub(crate) fn invalidate_addr(&self, addr: u64) -> Vec<u64> {
        if self.pools.is_pooled_addr(addr) {
            self.pools.invalidate(addr);
            Vec::new()
        } else {
            self.heap.invalidate_object(self.heap.block_of_addr(addr))
        }
    }

    /// The second half of a free: hand the slot at `addr`, or the chain
    /// `blocks`, back to the allocator. Touches no NVMM.
    pub(crate) fn release_addr(&self, addr: u64, blocks: Vec<u64>) {
        if self.pools.is_pooled_addr(addr) {
            // A corrupt span makes the slot unfreeable; leak it rather
            // than abort — recovery-time GC reclaims whatever stays
            // unreachable.
            let _ = self.pools.release(addr);
        } else {
            self.heap.release_blocks(blocks);
        }
    }

    /// Set the validity bit of the object at `addr` (pooled or chained) and
    /// enqueue the header line — fence-free (§3.2.3). Validating an object
    /// the active failure-atomic block allocated is a no-op: it becomes
    /// valid when the block commits (§4.2).
    pub fn set_valid_addr(&self, addr: u64, valid: bool) {
        if valid && fa::staged_header(addr).is_some() {
            return;
        }
        if self.pools.is_pooled_addr(addr) {
            self.pools.set_valid(addr, valid);
        } else {
            self.heap.set_valid(self.heap.block_of_addr(addr), valid);
        }
    }

    /// Whether the object at `addr` is valid. One the active
    /// failure-atomic block allocated is not, until the block commits.
    pub fn is_valid_addr(&self, addr: u64) -> bool {
        if let Some(head) = fa::staged_header(addr) {
            return head.valid;
        }
        if self.pools.is_pooled_addr(addr) {
            self.pools.read_mini(addr).valid
        } else {
            self.heap
                .read_header(self.heap.block_of_addr(addr))
                .is_valid_master()
        }
    }

    /// Class id of the object at `addr`.
    pub fn class_id_of_addr(&self, addr: u64) -> u16 {
        crate::registry::class_id_of_addr(self, addr)
    }

    /// `readPObject` (§3.1): resurrect the object at `addr` as `T`, with a
    /// class check against the header.
    pub fn read_pobject<T: PObject>(self: &Jnvm, addr: u64) -> Result<T, JnvmError> {
        let expected = self.registry().id_of::<T>()?;
        let found = self.class_id_of_addr(addr);
        if expected != found {
            return Err(JnvmError::ClassMismatch { expected, found });
        }
        Ok(T::resurrect(self, addr))
    }

    // ------------------------------------------------------------------
    // Persistence primitives (mediated).
    // ------------------------------------------------------------------

    /// `pfence` (§3.2.2). Inside a failure-atomic block this is a no-op:
    /// the commit protocol owns ordering, exactly as the paper's mediation
    /// makes low-level flushes transparent under `faStart`/`faEnd`.
    pub fn pfence(&self) {
        if fa::depth() == 0 {
            self.pmem().pfence();
        }
    }

    /// `psync` (§3.2.2). No-op inside a failure-atomic block.
    pub fn psync(&self) {
        if fa::depth() == 0 {
            self.pmem().psync();
        }
    }
}

impl std::fmt::Debug for JnvmRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JnvmRuntime")
            .field("heap", &self.heap)
            .finish()
    }
}
