//! Class registry and the persistent class table.
//!
//! The paper stores, for each master block, a 15-bit class id; a persistent
//! array maps ids to proxy class names so objects can be resurrected after a
//! restart (§4.1.1). This module implements that table plus the volatile
//! registry mapping ids to the per-class operations (trace / recover /
//! resurrect support) the recovery GC needs.

use std::collections::HashMap;

use jnvm_heap::FIRST_USER_CLASS_ID;

use crate::error::JnvmError;
use crate::object::PObject;
use crate::proxy::{Proxy, RawChain};
use crate::runtime::{Jnvm, JnvmRuntime};

/// Reserved class id of the class table itself.
pub const CLASS_ID_CLASSTABLE: u16 = 2;
/// Reserved class id of the root map.
pub const CLASS_ID_ROOTMAP: u16 = 3;
/// Reserved class id of a root map entry.
pub const CLASS_ID_ROOTENTRY: u16 = 4;
/// Reserved class id of a failure-atomic redo log.
pub const CLASS_ID_FALOG: u16 = 5;
/// Reserved class id of the failure-atomic log directory.
pub const CLASS_ID_FALOGDIR: u16 = 6;

/// Maximum classes the persistent table can hold.
const TABLE_CAPACITY: u64 = 512;
/// Bytes per table entry: id (2), name length (2), padding (4), name (56).
const ENTRY_BYTES: u64 = 64;
/// Maximum persisted class-name length.
const NAME_MAX: usize = 56;

/// Per-class operations used by the recovery GC.
#[derive(Clone, Copy)]
pub struct ClassOps {
    /// Fully-qualified class name.
    pub name: &'static str,
    /// Logical offsets of fixed reference fields.
    pub ref_offsets: &'static [u64],
    /// Whether a reference word's tag decodes ([`PObject::reference_ok`]).
    pub reference_ok: fn(&Jnvm, u64) -> bool,
    /// Tracer for dynamically-located reference slots (physical addresses),
    /// given the reference word the mark resolved.
    pub trace_extra: fn(&Jnvm, u64, &mut dyn FnMut(u64)),
    /// Consistency hook run on each live object at recovery.
    pub recover: fn(&Jnvm, u64),
}

impl ClassOps {
    /// Derive the operations of a [`PObject`] implementation.
    pub fn of<T: PObject>() -> ClassOps {
        ClassOps {
            name: T::CLASS_NAME,
            ref_offsets: T::REF_OFFSETS,
            reference_ok: T::reference_ok,
            trace_extra: T::trace_extra,
            recover: T::recover,
        }
    }

    fn internal(name: &'static str, trace_extra: fn(&Jnvm, u64, &mut dyn FnMut(u64))) -> ClassOps {
        ClassOps {
            name,
            ref_offsets: &[],
            reference_ok: |_, _| true,
            trace_extra,
            recover: |_, _| {},
        }
    }
}

impl std::fmt::Debug for ClassOps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassOps")
            .field("name", &self.name)
            .finish()
    }
}

/// Volatile id/name/ops tables, frozen once the runtime is constructed.
/// Neither lookup hashes: ops are indexed by class id, and a name is
/// found by a scan of the few registered classes, newest first — an
/// application registers its own classes after the libraries' (the
/// kvstore's records and values after J-PDT's), so its hot allocations
/// find theirs in a compare or two instead of hashing the name.
pub struct ClassRegistry {
    by_id: Vec<Option<ClassOps>>,
    by_name: Vec<(&'static str, u16)>,
    table_addr: u64,
}

impl ClassRegistry {
    /// Operations for class `id`, if registered.
    pub fn ops_of_id(&self, id: u16) -> Option<&ClassOps> {
        self.by_id.get(id as usize)?.as_ref()
    }

    /// Id of the class named `name`, if registered.
    pub fn id_of_name(&self, name: &str) -> Option<u16> {
        self.by_name
            .iter()
            .rev()
            .find(|(known, _)| *known == name)
            .map(|(_, id)| *id)
    }

    /// Id registered for `T`.
    ///
    /// # Errors
    ///
    /// [`JnvmError::UnregisteredClass`] if `T` was not passed to the
    /// builder.
    pub fn id_of<T: PObject>(&self) -> Result<u16, JnvmError> {
        self.id_of_name(T::CLASS_NAME)
            .ok_or(JnvmError::UnregisteredClass(T::CLASS_NAME))
    }

    /// Address of the persistent class table object.
    pub fn table_addr(&self) -> u64 {
        self.table_addr
    }

    /// Number of registered classes (user classes only).
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True when no user class is registered.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// A registry holding the internal classes alone.
    fn internal(table_addr: u64) -> ClassRegistry {
        let mut reg = ClassRegistry {
            by_id: Vec::new(),
            by_name: Vec::new(),
            table_addr,
        };
        for (id, ops) in ClassRegistry::internal_ops() {
            reg.insert_ops(id, ops);
        }
        reg
    }

    fn insert_ops(&mut self, id: u16, ops: ClassOps) {
        let at = id as usize;
        if self.by_id.len() <= at {
            self.by_id.resize(at + 1, None);
        }
        self.by_id[at] = Some(ops);
    }

    fn internal_ops() -> [(u16, ClassOps); 5] {
        [
            (
                CLASS_ID_CLASSTABLE,
                ClassOps::internal("jnvm.internal.ClassTable", |_, _, _| {}),
            ),
            (
                CLASS_ID_ROOTMAP,
                ClassOps::internal("jnvm.internal.RootMap", crate::rootmap::trace_root_map),
            ),
            (
                CLASS_ID_ROOTENTRY,
                ClassOps::internal("jnvm.internal.RootEntry", crate::rootmap::trace_root_entry),
            ),
            (
                CLASS_ID_FALOG,
                ClassOps::internal("jnvm.internal.FaLog", |_, _, _| {}),
            ),
            (
                CLASS_ID_FALOGDIR,
                ClassOps::internal("jnvm.internal.FaLogDir", crate::fa::trace_log_dir),
            ),
        ]
    }

    /// Create the persistent table on a fresh pool and assign ids to the
    /// builder's classes in registration order.
    pub(crate) fn create(rt: &Jnvm, classes: &[ClassOps]) -> Result<ClassRegistry, JnvmError> {
        let payload = 16 + TABLE_CAPACITY * ENTRY_BYTES;
        let table = Proxy::alloc(rt, CLASS_ID_CLASSTABLE, payload);
        table.write_u64(0, 0); // count
        table.pwb();
        table.validate();
        rt.pmem().pfence();
        rt.heap().set_root_slot(0, table.addr());

        let mut reg = ClassRegistry::internal(table.addr());
        for (next_id, ops) in (FIRST_USER_CLASS_ID..).zip(classes.iter()) {
            reg.append_entry(rt, next_id, ops)?;
        }
        rt.pmem().psync();
        Ok(reg)
    }

    /// Load the persistent table from an existing pool, match persisted
    /// names to the builder's classes, and append entries for new classes.
    pub(crate) fn open(rt: &Jnvm, classes: &[ClassOps]) -> Result<ClassRegistry, JnvmError> {
        let table_addr = rt.heap().root_slot(0);
        let chain = RawChain::open(rt, table_addr);
        let pmem = rt.pmem();
        let count = pmem.read_u64(chain.phys(0));
        let mut persisted: HashMap<String, u16> = HashMap::new();
        for i in 0..count {
            let base = 16 + i * ENTRY_BYTES;
            let id = pmem.read_u16(chain.phys(base));
            let len = pmem.read_u16(chain.phys(base + 2)) as usize;
            let mut name = vec![0u8; len.min(NAME_MAX)];
            // Entries are 64-byte aligned within the payload and never
            // straddle a block (payload 248 is not a multiple of 64, so use
            // segment-safe reads).
            chain.read_bytes(pmem, base + 8, &mut name);
            let name = String::from_utf8_lossy(&name).into_owned();
            persisted.insert(name, id);
        }

        let mut reg = ClassRegistry::internal(table_addr);
        let mut matched: HashMap<&'static str, ClassOps> = HashMap::new();
        for ops in classes {
            matched.insert(ops.name, *ops);
        }
        let mut max_id = FIRST_USER_CLASS_ID.saturating_sub(1);
        for (name, id) in &persisted {
            max_id = max_id.max(*id);
            match matched.remove(name.as_str()) {
                Some(ops) => reg.register(*id, ops),
                None => return Err(JnvmError::UnknownPersistedClass(name.clone())),
            }
        }
        // Remaining classes are new: append them.
        let mut next_id = max_id + 1;
        for ops in classes {
            if reg.id_of_name(ops.name).is_some() {
                continue;
            }
            reg.append_entry(rt, next_id, ops)?;
            next_id += 1;
        }
        rt.pmem().psync();
        Ok(reg)
    }

    fn append_entry(&mut self, rt: &Jnvm, id: u16, ops: &ClassOps) -> Result<(), JnvmError> {
        if ops.name.len() > NAME_MAX {
            return Err(JnvmError::ClassNameTooLong(ops.name.to_string()));
        }
        let chain = RawChain::open(rt, self.table_addr);
        let pmem = rt.pmem();
        let count = pmem.read_u64(chain.phys(0));
        if count >= TABLE_CAPACITY {
            return Err(JnvmError::ClassTableFull);
        }
        let base = 16 + count * ENTRY_BYTES;
        pmem.write_u16(chain.phys(base), id);
        pmem.write_u16(chain.phys(base + 2), ops.name.len() as u16);
        chain.write_bytes(pmem, base + 8, ops.name.as_bytes());
        chain.segments(base, ENTRY_BYTES, |addr, len| pmem.pwb_range(addr, len));
        // Entry persists before the count that publishes it.
        pmem.pfence();
        pmem.write_u64(chain.phys(0), count + 1);
        pmem.pwb(chain.phys(0));
        self.register(id, *ops);
        Ok(())
    }

    fn register(&mut self, id: u16, ops: ClassOps) {
        self.insert_ops(id, ops);
        self.by_name.push((ops.name, id));
    }
}

impl std::fmt::Debug for ClassRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassRegistry")
            .field("classes", &self.by_name)
            .finish()
    }
}

/// Read the class id of the object at `addr` (pooled or block) — the
/// staged header's for an object the active failure-atomic block allocated.
pub(crate) fn class_id_of_addr(rt: &JnvmRuntime, addr: u64) -> u16 {
    if let Some(head) = crate::fa::staged_header(addr) {
        return head.id;
    }
    if rt.pools().is_pooled_addr(addr) {
        rt.pools().read_mini(addr).id
    } else {
        rt.heap().read_header(rt.heap().block_of_addr(addr)).id
    }
}
