//! Runtime error type.

use std::fmt;

use jnvm_heap::HeapError;
use jnvm_pmem::PmemError;

/// Errors reported by the J-NVM runtime.
#[derive(Debug)]
pub enum JnvmError {
    /// Underlying heap failure (allocation, superblock...).
    Heap(HeapError),
    /// Underlying device failure.
    Pmem(PmemError),
    /// A class was found in the persistent class table but was not
    /// registered with the [`crate::JnvmBuilder`]; recovery cannot trace it.
    UnknownPersistedClass(String),
    /// A class was used before being registered.
    UnregisteredClass(&'static str),
    /// The persistent class table is full.
    ClassTableFull,
    /// A class name exceeds the persistent table's field width.
    ClassNameTooLong(String),
    /// Typed dereference found an object of a different class.
    ClassMismatch {
        /// Class id expected by the caller.
        expected: u16,
        /// Class id found in the object header.
        found: u16,
    },
    /// Dereference of a freed or never-valid proxy.
    StaleProxy,
    /// The root map has no free slot left.
    RootMapFull,
    /// A root key exceeds the maximum persisted length.
    RootKeyTooLong(usize),
    /// The failure-atomic log directory is full (too many concurrent
    /// threads in failure-atomic blocks).
    TooManyFaThreads,
    /// A failure-atomic block was started on a different runtime than the
    /// one already active on this thread.
    ForeignTransaction,
    /// A committed redo log failed validation during replay (unknown
    /// entry kind, a length running past the log, an address outside its
    /// block's payload) — the log (or the directory pointing at it) is
    /// damaged. Reported instead of aborting so a server re-open on a
    /// damaged pool can surface the failure to its operator.
    CorruptLog {
        /// The offending entry's head word (the committed length itself
        /// when that is what overruns the log).
        entry: u64,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for JnvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JnvmError::Heap(e) => write!(f, "heap error: {e}"),
            JnvmError::Pmem(e) => write!(f, "pmem error: {e}"),
            JnvmError::UnknownPersistedClass(n) => {
                write!(f, "class `{n}` persisted in pool but not registered")
            }
            JnvmError::UnregisteredClass(n) => write!(f, "class `{n}` not registered"),
            JnvmError::ClassTableFull => write!(f, "persistent class table full"),
            JnvmError::ClassNameTooLong(n) => write!(f, "class name too long: `{n}`"),
            JnvmError::ClassMismatch { expected, found } => {
                write!(f, "class mismatch: expected id {expected}, found {found}")
            }
            JnvmError::StaleProxy => write!(f, "access through a freed proxy"),
            JnvmError::RootMapFull => write!(f, "root map full"),
            JnvmError::RootKeyTooLong(n) => write!(f, "root key too long ({n} bytes)"),
            JnvmError::TooManyFaThreads => write!(f, "failure-atomic log directory full"),
            JnvmError::ForeignTransaction => {
                write!(f, "failure-atomic block already active on another runtime")
            }
            JnvmError::CorruptLog { entry, reason } => {
                write!(f, "corrupt redo log: {reason} (entry word {entry:#x})")
            }
        }
    }
}

impl std::error::Error for JnvmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JnvmError::Heap(e) => Some(e),
            JnvmError::Pmem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for JnvmError {
    fn from(e: HeapError) -> Self {
        JnvmError::Heap(e)
    }
}

impl From<PmemError> for JnvmError {
    fn from(e: PmemError) -> Self {
        JnvmError::Pmem(e)
    }
}
