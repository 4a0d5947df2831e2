//! Fixed-size persistent arrays (§4.3.1).
//!
//! An array stores its length at offset 0 and the elements afterwards.
//! Element accessors go through the mediated [`Proxy`] interface, so the
//! same array is usable from the low-level interface *and* inside
//! failure-atomic blocks. The length never changes: a handle reads it once,
//! when it resurrects the array, and bounds-checks every access against
//! that value.

use jnvm::{Jnvm, JnvmError, PObject, Proxy};

macro_rules! array_common {
    ($name:ident) => {
        impl $name {
            /// Open the array at `addr`: its one read of the length word.
            fn open(rt: &Jnvm, addr: u64) -> $name {
                let proxy = Proxy::open(rt, addr);
                let len = proxy.read_u64(0);
                $name { proxy, len }
            }

            /// Number of elements.
            pub fn len(&self) -> u64 {
                self.len
            }

            /// True for zero-length arrays.
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            /// The underlying proxy (low-level interface).
            pub fn proxy(&self) -> &Proxy {
                &self.proxy
            }

            /// Flush the whole array (§4.3.1: "methods to flush either an
            /// element, or the array in full").
            pub fn pwb(&self) {
                self.proxy.pwb();
            }

            /// Validate the array (fence-free).
            pub fn validate(&self) {
                self.proxy.validate();
            }

            /// Free the array (`JNVM.free`). Does not free referenced
            /// objects.
            pub fn free(self) {
                let rt = self.proxy.runtime().clone();
                rt.free_addr(self.proxy.addr());
            }

            #[inline]
            #[allow(dead_code)] // not every array type indexes elements
            fn check(&self, i: u64) {
                let n = self.len;
                assert!(i < n, "array index {i} out of bounds (len {n})");
            }
        }
    };
}

/// A persistent array of `i64` (`long[]` replacement).
#[derive(Clone)]
pub struct PLongArray {
    proxy: Proxy,
    len: u64,
}

array_common!(PLongArray);

impl PLongArray {
    /// Allocate an array of `len` elements, zero-initialized, flushed and
    /// validated (fence-free).
    pub fn new(rt: &Jnvm, len: u64) -> Result<PLongArray, JnvmError> {
        let proxy = rt.alloc_proxy::<PLongArray>(8 + len * 8)?;
        proxy.write_u64(0, len);
        for i in 0..len {
            proxy.write_u64(8 + i * 8, 0);
        }
        proxy.pwb();
        proxy.validate();
        Ok(PLongArray { proxy, len })
    }

    /// Element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: u64) -> i64 {
        self.check(i);
        self.proxy.read_i64(8 + i * 8)
    }

    /// Store element `i` (no flush).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&self, i: u64, v: i64) {
        self.check(i);
        self.proxy.write_i64(8 + i * 8, v);
    }

    /// Flush the lines holding element `i`.
    pub fn pwb_element(&self, i: u64) {
        self.proxy.pwb_field(8 + i * 8, 8);
    }
}

impl PObject for PLongArray {
    const CLASS_NAME: &'static str = "jnvm_jpdt.PLongArray";

    fn resurrect(rt: &Jnvm, addr: u64) -> Self {
        PLongArray::open(rt, addr)
    }

    fn addr(&self) -> u64 {
        self.proxy.addr()
    }
}

/// A persistent byte array (`byte[]` replacement, mutable — contrast with
/// the immutable [`crate::PBytes`]).
#[derive(Clone)]
pub struct PByteArray {
    proxy: Proxy,
    len: u64,
}

array_common!(PByteArray);

impl PByteArray {
    /// Allocate `len` zeroed bytes, flushed and validated (fence-free).
    pub fn new(rt: &Jnvm, len: u64) -> Result<PByteArray, JnvmError> {
        let proxy = rt.alloc_proxy::<PByteArray>(8 + len)?;
        proxy.write_u64(0, len);
        let zeros = vec![0u8; len as usize];
        proxy.write_bytes(8, &zeros);
        proxy.pwb();
        proxy.validate();
        Ok(PByteArray { proxy, len })
    }

    /// Copy `data` into the array at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_at(&self, off: u64, data: &[u8]) {
        assert!(off + data.len() as u64 <= self.len(), "byte range out of bounds");
        self.proxy.write_bytes(8 + off, data);
    }

    /// Copy bytes out of the array starting at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_at(&self, off: u64, out: &mut [u8]) {
        assert!(off + out.len() as u64 <= self.len(), "byte range out of bounds");
        self.proxy.read_bytes(8 + off, out);
    }

    /// Flush the lines holding `[off, off+len)`.
    pub fn pwb_range(&self, off: u64, len: u64) {
        self.proxy.pwb_field(8 + off, len);
    }
}

impl PObject for PByteArray {
    const CLASS_NAME: &'static str = "jnvm_jpdt.PByteArray";

    fn resurrect(rt: &Jnvm, addr: u64) -> Self {
        PByteArray::open(rt, addr)
    }

    fn addr(&self) -> u64 {
        self.proxy.addr()
    }
}

/// A persistent array of object references — the backbone of the extensible
/// structures and maps. Cells hold raw persistent addresses (0 = null); the
/// recovery GC traces every cell.
#[derive(Clone)]
pub struct PRefArray {
    proxy: Proxy,
    len: u64,
}

array_common!(PRefArray);

impl PRefArray {
    /// Allocate `len` null cells, flushed and validated (fence-free).
    pub fn new(rt: &Jnvm, len: u64) -> Result<PRefArray, JnvmError> {
        PRefArray::with_cells(rt, len, &[])
    }

    /// Allocate `len` cells that begin with a copy of `from`'s and are null
    /// past them, flushed and validated (fence-free): the copied cells are
    /// read in one pass and every cell is stored once.
    ///
    /// # Panics
    ///
    /// Panics if `len` is shorter than `from`.
    pub fn grown_from(from: &PRefArray, len: u64) -> Result<PRefArray, JnvmError> {
        assert!(
            len >= from.len,
            "grown array of {len} cells shorter than {}",
            from.len
        );
        let mut cells = vec![0u8; (from.len * 8) as usize];
        from.proxy.read_bytes(8, &mut cells);
        PRefArray::with_cells(from.proxy.runtime(), len, &cells)
    }

    /// Allocate `len` cells, the first ones `prefix` (raw cell words) and
    /// the rest null, in one store of the length word and every cell.
    fn with_cells(rt: &Jnvm, len: u64, prefix: &[u8]) -> Result<PRefArray, JnvmError> {
        let proxy = rt.alloc_proxy::<PRefArray>(8 + len * 8)?;
        let mut words = vec![0u8; (8 + len * 8) as usize];
        words[..8].copy_from_slice(&len.to_le_bytes());
        words[8..8 + prefix.len()].copy_from_slice(prefix);
        proxy.write_bytes(0, &words);
        proxy.pwb();
        proxy.validate();
        Ok(PRefArray { proxy, len })
    }

    /// Reference in cell `i` (`None` = null).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get_ref(&self, i: u64) -> Option<u64> {
        self.check(i);
        self.proxy.read_ref(8 + i * 8)
    }

    /// Store a reference in cell `i` (no flush, no fence — callers follow
    /// the validation protocol).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set_ref(&self, i: u64, r: Option<u64>) {
        self.check(i);
        self.proxy.write_ref(8 + i * 8, r);
    }

    /// Flush the line of cell `i`.
    pub fn pwb_cell(&self, i: u64) {
        self.proxy.pwb_field(8 + i * 8, 8);
    }

    /// Atomic reference update of cell `i` (Figure 6 semantics).
    pub fn update_cell(&self, i: u64, target: Option<u64>) {
        self.check(i);
        let rt = self.proxy.runtime();
        if let Some(t) = target {
            rt.set_valid_addr(t, true);
        }
        rt.pfence();
        self.proxy.write_ref(8 + i * 8, target);
        self.pwb_cell(i);
    }
}

impl PObject for PRefArray {
    const CLASS_NAME: &'static str = "jnvm_jpdt.PRefArray";

    fn resurrect(rt: &Jnvm, addr: u64) -> Self {
        PRefArray::open(rt, addr)
    }

    fn addr(&self) -> u64 {
        self.proxy.addr()
    }

    fn trace_extra(rt: &Jnvm, addr: u64, visit: &mut dyn FnMut(u64)) {
        let chain = jnvm::RawChain::open(rt, addr);
        let len = rt.pmem().read_u64(chain.phys(0));
        for i in 0..len {
            visit(chain.phys(8 + i * 8));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PString;
    use jnvm::JnvmBuilder;
    use jnvm_heap::HeapConfig;
    use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};
    use std::sync::Arc;

    fn rt() -> (Arc<Pmem>, Jnvm) {
        let pmem = Pmem::new(PmemConfig::crash_sim(4 << 20));
        let rt = crate::register_jpdt(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        (pmem, rt)
    }

    #[test]
    fn long_array_round_trip() {
        let (_p, rt) = rt();
        let a = PLongArray::new(&rt, 100).unwrap();
        assert_eq!(a.len(), 100);
        for i in 0..100 {
            a.set(i, (i as i64) * -3);
        }
        for i in 0..100 {
            assert_eq!(a.get(i), (i as i64) * -3);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn long_array_bounds_checked() {
        let (_p, rt) = rt();
        let a = PLongArray::new(&rt, 3).unwrap();
        a.get(3);
    }

    #[test]
    fn byte_array_spans_blocks() {
        let (_p, rt) = rt();
        let a = PByteArray::new(&rt, 1000).unwrap();
        let data: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        a.write_at(300, &data);
        let mut out = vec![0u8; 500];
        a.read_at(300, &mut out);
        assert_eq!(out, data);
        let mut pre = [1u8; 10];
        a.read_at(0, &mut pre);
        assert_eq!(pre, [0u8; 10]);
    }

    #[test]
    fn ref_array_traces_and_survives() {
        let (pmem, rt) = rt();
        let arr = PRefArray::new(&rt, 8).unwrap();
        let s = PString::from_str_in(&rt, "element").unwrap();
        arr.update_cell(3, Some(jnvm::PObject::addr(&s)));
        rt.root_put("arr", &arr).unwrap();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = crate::register_jpdt(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        let arr2 = rt2.root_get_as::<PRefArray>("arr").unwrap().unwrap();
        let sa = arr2.get_ref(3).expect("cell survives");
        let s2 = rt2.read_pobject::<PString>(sa).unwrap();
        assert_eq!(s2.to_string_lossy(), "element");
        assert_eq!(arr2.get_ref(0), None);
    }

    #[test]
    fn ref_array_dangling_cell_nullified_at_recovery() {
        let (pmem, rt) = rt();
        let arr = PRefArray::new(&rt, 4).unwrap();
        // A reference to a never-validated object.
        let dangling = rt.alloc_proxy::<PLongArray>(16).unwrap();
        arr.set_ref(1, Some(dangling.addr()));
        arr.pwb_cell(1);
        rt.root_put("arr", &arr).unwrap();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, report) = crate::register_jpdt(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        assert!(report.nullified_refs >= 1);
        let arr2 = rt2.root_get_as::<PRefArray>("arr").unwrap().unwrap();
        assert_eq!(arr2.get_ref(1), None);
    }

    #[test]
    fn arrays_work_inside_fa_blocks() {
        let (_p, rt) = rt();
        let a = PLongArray::new(&rt, 4).unwrap();
        rt.pfence();
        rt.fa(|| {
            a.set(0, 10);
            a.set(1, 20);
            assert_eq!(a.get(0), 10, "read own write in fa block");
        });
        assert_eq!(a.get(0), 10);
        assert_eq!(a.get(1), 20);
    }
}
