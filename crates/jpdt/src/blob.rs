//! Small immutable blobs: [`PString`] and [`PBytes`].
//!
//! Layout: `[length u64][bytes]`. Blobs that fit a pool slot (§4.4) are
//! pool-allocated to avoid internal fragmentation; larger ones get a block
//! chain. Either way a blob is read through its proxy's [`RawChain`],
//! whose capacity — the slot's payload, or the chain's — bounds the length
//! word. Reads and the writes of construction are unmediated: a blob is
//! immutable once built, and built by the block that allocated it.

use jnvm::{Jnvm, JnvmError, PObject, Proxy, RawChain};

fn blob_alloc<T: PObject>(rt: &Jnvm, data: &[u8]) -> Result<Proxy, JnvmError> {
    let proxy = rt.alloc_small::<T>(8 + data.len() as u64)?;
    let (chain, pmem) = (proxy.chain(), rt.pmem());
    pmem.write_u64(chain.phys(0), data.len() as u64);
    chain.write_bytes(pmem, 8, data);
    // Fence-free: the creator batches a fence before publication (§3.2.3).
    // Inside a failure-atomic block the commit owns the write-back and the
    // validation.
    proxy.pwb();
    proxy.validate();
    Ok(proxy)
}

/// The blob's length word, bounded by what its storage can hold **before**
/// any caller sizes a buffer by it: a torn or corrupt word is a catchable
/// panic, never an allocator abort — nor a read of a neighbouring slot.
fn blob_len(rt: &Jnvm, chain: &RawChain) -> u64 {
    let len = rt.pmem().read_u64(chain.phys(0));
    let cap = chain.capacity();
    assert!(
        len <= cap.saturating_sub(8),
        "blob at {:#x}: length word {len} exceeds its storage ({cap} B)",
        chain.blocks[0]
    );
    len
}

/// Copy the content of the blob on `chain`, from its first byte, into
/// `out`.
fn blob_read(rt: &Jnvm, chain: &RawChain, out: &mut [u8]) {
    chain.read_bytes(rt.pmem(), 8, out);
}

macro_rules! blob_type {
    ($(#[$meta:meta])* $name:ident, $class:literal) => {
        $(#[$meta])*
        #[derive(Clone)]
        pub struct $name {
            proxy: Proxy,
        }

        impl $name {
            /// Create a new blob holding `data`. The object is flushed and
            /// validated, fence-free: issue a `pfence` (directly or through
            /// a publishing structure) before relying on durability.
            pub fn new(rt: &Jnvm, data: &[u8]) -> Result<$name, JnvmError> {
                Ok($name { proxy: blob_alloc::<$name>(rt, data)? })
            }

            /// Content length in bytes.
            pub fn len(&self) -> u64 {
                blob_len(self.proxy.runtime(), self.proxy.chain())
            }

            /// True for a zero-length blob.
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            /// Copy the content into a fresh `Vec`.
            pub fn to_vec(&self) -> Vec<u8> {
                let mut out = vec![0u8; self.len() as usize];
                blob_read(self.proxy.runtime(), self.proxy.chain(), &mut out);
                out
            }

            /// Copy up to `out.len()` bytes of content into `out`,
            /// returning the number of bytes copied.
            pub fn read_into(&self, out: &mut [u8]) -> usize {
                let n = (self.len() as usize).min(out.len());
                blob_read(self.proxy.runtime(), self.proxy.chain(), &mut out[..n]);
                n
            }

            /// Content equality against a byte slice (lengths first; equal
            /// lengths copy the content out to compare).
            pub fn eq_bytes(&self, other: &[u8]) -> bool {
                if self.len() as usize != other.len() {
                    return false;
                }
                self.to_vec() == other
            }

            /// Whether this blob is pool-allocated (§4.4).
            pub fn is_pooled(&self) -> bool {
                self.proxy.runtime().pools().is_pooled_addr(self.addr())
            }

            /// Free the blob (`JNVM.free`).
            pub fn free(self) {
                self.proxy.runtime().free_addr(self.addr());
            }
        }

        impl PObject for $name {
            const CLASS_NAME: &'static str = $class;

            fn resurrect(rt: &Jnvm, addr: u64) -> Self {
                $name {
                    proxy: Proxy::open(rt, addr),
                }
            }

            fn addr(&self) -> u64 {
                self.proxy.addr()
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name))
                    .field("addr", &self.addr())
                    .field("len", &self.len())
                    .finish()
            }
        }
    };
}

blob_type!(
    /// An immutable persistent byte string (`PString` in the paper's
    /// Figure 3 — the drop-in replacement for `java.lang.String`).
    PString,
    "jnvm_jpdt.PString"
);

blob_type!(
    /// An immutable persistent byte array (the replacement for `byte[]`,
    /// used for YCSB field values).
    PBytes,
    "jnvm_jpdt.PBytes"
);

impl PString {
    /// Create from a `&str`.
    pub fn from_str_in(rt: &Jnvm, s: &str) -> Result<PString, JnvmError> {
        PString::new(rt, s.as_bytes())
    }

    /// Copy the content into a `String` (lossy for non-UTF-8 content).
    pub fn to_string_lossy(&self) -> String {
        String::from_utf8_lossy(&self.to_vec()).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jnvm::JnvmBuilder;
    use jnvm_heap::HeapConfig;
    use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};
    use std::sync::Arc;

    fn rt() -> (Arc<Pmem>, Jnvm) {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let rt = crate::register_jpdt(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        (pmem, rt)
    }

    #[test]
    fn small_strings_are_pooled() {
        let (_p, rt) = rt();
        let s = PString::from_str_in(&rt, "Hello, NVMM!").unwrap();
        assert!(s.is_pooled());
        assert_eq!(s.len(), 12);
        assert_eq!(s.to_string_lossy(), "Hello, NVMM!");
        assert!(s.eq_bytes(b"Hello, NVMM!"));
        assert!(!s.eq_bytes(b"Hello"));
    }

    #[test]
    fn large_blobs_use_chains() {
        let (_p, rt) = rt();
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 253) as u8).collect();
        let b = PBytes::new(&rt, &data).unwrap();
        assert!(!b.is_pooled());
        assert_eq!(b.to_vec(), data);
    }

    #[test]
    fn empty_blob() {
        let (_p, rt) = rt();
        let b = PBytes::new(&rt, &[]).unwrap();
        assert!(b.is_empty());
        assert_eq!(b.to_vec(), Vec::<u8>::new());
    }

    #[test]
    fn boundary_sizes_round_trip() {
        let (_p, rt) = rt();
        // Around the pool/chain boundary (max pooled payload 232 => 224
        // data bytes) and around block payload multiples.
        for n in [
            1usize, 7, 8, 223, 224, 225, 232, 240, 247, 248, 249, 495, 496, 497,
        ] {
            let data: Vec<u8> = (0..n).map(|i| (i * 7 % 251) as u8).collect();
            let b = PBytes::new(&rt, &data).unwrap();
            assert_eq!(b.to_vec(), data, "size {n}");
        }
    }

    #[test]
    fn blob_survives_crash_when_reachable() {
        let (pmem, rt) = rt();
        let s = PString::from_str_in(&rt, "durable").unwrap();
        rt.root_put("s", &s).unwrap();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = crate::register_jpdt(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        let s2 = rt2.root_get_as::<PString>("s").unwrap().unwrap();
        assert_eq!(s2.to_string_lossy(), "durable");
    }

    #[test]
    fn unreachable_pooled_blob_is_collected() {
        let (pmem, rt) = rt();
        let keep = PString::from_str_in(&rt, "keep").unwrap();
        rt.root_put("keep", &keep).unwrap();
        let leak = PString::from_str_in(&rt, "leak").unwrap();
        rt.pmem().pfence();
        let leak_addr = leak.addr();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = crate::register_jpdt(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        // The leaked slot was persistently cleared by pool rebuild.
        assert_eq!(rt2.pmem().read_u64(leak_addr), 0);
        assert!(rt2.root_get_as::<PString>("keep").unwrap().is_some());
    }

    #[test]
    fn read_into_truncates() {
        let (_p, rt) = rt();
        let s = PString::from_str_in(&rt, "abcdef").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(s.read_into(&mut buf), 4);
        assert_eq!(&buf, b"abcd");
    }

    #[test]
    fn free_invalidates() {
        let (_p, rt) = rt();
        let s = PString::from_str_in(&rt, "bye").unwrap();
        let addr = s.addr();
        assert!(rt.is_valid_addr(addr));
        s.free();
        assert!(!rt.is_valid_addr(addr));
    }
}
