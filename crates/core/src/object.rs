//! The persistent object model: the [`PObject`] trait (the Rust analogue of
//! the paper's `PObject` Java interface) and the type-erased [`PAny`]
//! handle.

use jnvm_heap::REF_ADDR_MASK;

use crate::error::JnvmError;
use crate::runtime::Jnvm;

/// A persistent class.
///
/// A `PObject` value is a **volatile proxy**: a plain Rust value holding the
/// address of a persistent data structure that lives off-heap in NVMM. The
/// proxy carries the methods; the data structure carries the fields. This is
/// the paper's decoupling principle (§2.1).
///
/// Implementations are usually generated by [`crate::persistent_class!`],
/// the analogue of the paper's bytecode generator. Hand-written
/// implementations (the J-PDT library) use [`crate::Proxy`] or the pooled
/// allocation API directly.
pub trait PObject: Sized {
    /// Fully-qualified class name, persisted in the class table so objects
    /// can be resurrected after a restart.
    const CLASS_NAME: &'static str;

    /// Logical payload offsets of the fixed persistent-reference fields of
    /// this class, used by the recovery GC to trace the object graph.
    const REF_OFFSETS: &'static [u64] = &[];

    /// The *resurrect constructor* (§3.1): build a proxy for the existing
    /// persistent data structure referenced by `addr` — the reference word
    /// its holder stored: a master-block or pooled-slot byte address, plus,
    /// for a class that tags its references ([`PObject::reference`]), the
    /// tag above [`jnvm_heap::REF_ADDR_MASK`]. May initialize transient
    /// state.
    fn resurrect(rt: &Jnvm, addr: u64) -> Self;

    /// Address of the associated persistent data structure.
    fn addr(&self) -> u64;

    /// The word a holder stores to reference this object: its address,
    /// and in the 16 bits above [`jnvm_heap::REF_ADDR_MASK`] whatever the
    /// class keeps there about the object (none by default). The root map
    /// stores it, and [`PObject::resurrect`] and [`PObject::trace_extra`]
    /// get it back.
    fn reference(&self) -> u64 {
        self.addr()
    }

    /// Whether the reference word `word` to a valid object of this class
    /// carries a tag the class can decode (always, for a class that tags
    /// nothing). Recovery asks before it visits the object, and nullifies
    /// and counts a reference refused here as it does a dangling one.
    fn reference_ok(_rt: &Jnvm, _word: u64) -> bool {
        true
    }

    /// Trace dynamically-located persistent references (e.g. cells of a
    /// persistent array). `word` is the reference the mark resolved, tag
    /// included (mask it with [`jnvm_heap::REF_ADDR_MASK`] for the
    /// address); `visit` receives the *physical byte address* of each
    /// reference slot. Fixed slots are covered by [`PObject::REF_OFFSETS`]
    /// and need not be reported here.
    fn trace_extra(_rt: &Jnvm, _word: u64, _visit: &mut dyn FnMut(u64)) {}

    /// Consistency hook called for every live object during the recovery
    /// pass (§3.2.1). Low-level classes that shun failure-atomic blocks
    /// repair partially-applied operations here.
    fn recover(_rt: &Jnvm, _addr: u64) {}
}

/// A type-erased reference to a persistent object, as returned by the root
/// map: the reference word stored, tag and all ([`PObject::reference`]),
/// and the class id read from the object header, so a typed downcast can
/// be checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PAny {
    pub(crate) word: u64,
    pub(crate) class_id: u16,
}

impl PAny {
    /// Address of the persistent data structure.
    pub fn addr(&self) -> u64 {
        self.word & REF_ADDR_MASK
    }

    /// Class id from the object header.
    pub fn class_id(&self) -> u16 {
        self.class_id
    }

    /// Checked typed dereference: resurrect as `T` if the stored class id
    /// matches `T`'s registered id.
    ///
    /// # Errors
    ///
    /// [`JnvmError::ClassMismatch`] if the object belongs to another class,
    /// [`JnvmError::UnregisteredClass`] if `T` was never registered.
    pub fn get_as<T: PObject>(&self, rt: &Jnvm) -> Result<T, JnvmError> {
        let expected = rt
            .registry()
            .id_of_name(T::CLASS_NAME)
            .ok_or(JnvmError::UnregisteredClass(T::CLASS_NAME))?;
        if expected != self.class_id {
            return Err(JnvmError::ClassMismatch {
                expected,
                found: self.class_id,
            });
        }
        Ok(T::resurrect(rt, self.word))
    }
}
