//! Heap error type.

use std::fmt;

/// Errors reported by the persistent block heap.
#[derive(Debug)]
pub enum HeapError {
    /// No free block and the bump pointer reached the end of the pool.
    OutOfMemory {
        /// Number of blocks requested by the failing allocation.
        requested: u64,
    },
    /// The pool does not contain a heap, or the superblock is corrupt.
    BadSuperblock(String),
    /// A block index outside the heap's data area.
    BadBlockIndex(u64),
    /// A class id outside the 15-bit header field.
    BadClassId(u16),
    /// Requested pooled-object size exceeds every pool slot class.
    ObjectTooLargeForPool(u64),
    /// A pool span's meta word names no slot class of the ladder — the
    /// span (or the address used to reach it) is corrupt. Reported instead of aborting so a reopen on a damaged pool
    /// can surface the failure to its operator.
    UnknownPoolClass {
        /// Number of the offending span.
        span: u64,
        /// The unrecognized slot-payload size found in its meta word.
        payload: u64,
    },
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfMemory { requested } => {
                write!(
                    f,
                    "persistent heap out of memory ({requested} blocks requested)"
                )
            }
            HeapError::BadSuperblock(msg) => write!(f, "bad heap superblock: {msg}"),
            HeapError::BadBlockIndex(idx) => write!(f, "bad block index {idx}"),
            HeapError::BadClassId(id) => write!(f, "class id {id} exceeds 15-bit header field"),
            HeapError::ObjectTooLargeForPool(sz) => {
                write!(f, "object of {sz} bytes too large for pool allocation")
            }
            HeapError::UnknownPoolClass { span, payload } => {
                write!(f, "pool span {span} has unknown class {payload}")
            }
        }
    }
}

impl std::error::Error for HeapError {}
