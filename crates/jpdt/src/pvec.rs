//! The extensible persistent array (§4.3.1): the `ArrayList` drop-in.
//!
//! Layout: the vec object is `[array ref u64][len u64]`; the storage is a
//! [`PRefArray`], referenced from `new` on. Growth doubles the array in
//! place ([`PRefArray::grow`]): its chain gains blocks, the new cells are
//! nulled, and the array's length word publishes them — no cell is copied,
//! so the structure is consistent at every instant.

use parking_lot::Mutex;

use jnvm::{Jnvm, JnvmError, PObject, Proxy};

use crate::parray::PRefArray;

/// An extensible persistent array of object references.
pub struct PRefVec {
    proxy: Proxy,
    /// Cached storage-array proxy, grown in place.
    array: Mutex<PRefArray>,
}

const OFF_ARRAY: u64 = 0;
const OFF_LEN: u64 = 8;

impl PRefVec {
    /// Create an empty vec with the given initial capacity (min 4),
    /// validated and fenced.
    pub fn new(rt: &Jnvm, capacity: u64) -> Result<PRefVec, JnvmError> {
        let array = PRefArray::new(rt, capacity.max(4))?;
        let proxy = rt.alloc_proxy::<PRefVec>(16)?;
        proxy.write_ref(OFF_ARRAY, Some(array.addr()));
        proxy.write_u64(OFF_LEN, 0);
        proxy.pwb();
        proxy.validate();
        rt.pfence();
        Ok(PRefVec {
            proxy,
            array: Mutex::new(array),
        })
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.proxy.read_u64(OFF_LEN)
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current storage capacity.
    pub fn capacity(&self) -> u64 {
        self.array.lock().len()
    }

    /// The underlying proxy.
    pub fn proxy(&self) -> &Proxy {
        &self.proxy
    }

    /// Element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: u64) -> Option<u64> {
        let n = self.len();
        assert!(i < n, "index {i} out of bounds (len {n})");
        self.array.lock().get_ref(i)
    }

    /// Overwrite element `i` with the atomic-update protocol.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&self, i: u64, target: Option<u64>) {
        let n = self.len();
        assert!(i < n, "index {i} out of bounds (len {n})");
        self.array.lock().update_cell(i, target);
    }

    /// Append a reference. Crash-consistent: the cell is written and fenced
    /// before the length that publishes it.
    pub fn push(&self, target: u64) -> Result<(), JnvmError> {
        let rt = self.proxy.runtime().clone();
        let mut array = self.array.lock();
        let len = self.len();
        if len == array.len() {
            array.grow(len * 2)?;
        }
        rt.set_valid_addr(target, true);
        array.set_ref(len, Some(target));
        array.pwb_cell(len);
        rt.pfence();
        self.proxy.write_u64(OFF_LEN, len + 1);
        self.proxy.pwb_field(OFF_LEN, 8);
        rt.pfence();
        self.proxy.ordering_point("pvec-publish", OFF_LEN, 8);
        Ok(())
    }

    /// Remove and return the last element. The vacated cell is nulled so
    /// the recovery GC cannot keep it alive.
    pub fn pop(&self) -> Option<u64> {
        let rt = self.proxy.runtime().clone();
        let array = self.array.lock();
        let len = self.len();
        if len == 0 {
            return None;
        }
        let v = array.get_ref(len - 1);
        self.proxy.write_u64(OFF_LEN, len - 1);
        self.proxy.pwb_field(OFF_LEN, 8);
        rt.pfence();
        array.set_ref(len - 1, None);
        array.pwb_cell(len - 1);
        v
    }

    /// Iterate `(index, reference)` over the live elements.
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        let array = self.array.lock();
        for i in 0..self.len() {
            if let Some(r) = array.get_ref(i) {
                f(i, r);
            }
        }
    }

    /// Free the vec and its storage array (not the referenced objects).
    pub fn free(self) {
        let rt = self.proxy.runtime().clone();
        let array = self.array.into_inner();
        array.free();
        rt.free_addr(self.proxy.addr());
    }
}

impl PObject for PRefVec {
    const CLASS_NAME: &'static str = "jnvm_jpdt.PRefVec";
    const REF_OFFSETS: &'static [u64] = &[OFF_ARRAY];

    fn resurrect(rt: &Jnvm, addr: u64) -> Self {
        let proxy = Proxy::open(rt, addr);
        let arr_addr = proxy.read_ref(OFF_ARRAY).expect("vec always has storage");
        PRefVec {
            array: Mutex::new(PRefArray::resurrect(rt, arr_addr)),
            proxy,
        }
    }

    fn addr(&self) -> u64 {
        self.proxy.addr()
    }
}

impl std::fmt::Debug for PRefVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PRefVec")
            .field("addr", &self.proxy.addr())
            .field("len", &self.len())
            .finish()
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
        let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
        let rt = crate::register_jpdt(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        (pmem, rt)
    }

    #[test]
    fn push_get_pop() {
        let (_p, rt) = rt();
        let v = PRefVec::new(&rt, 4).unwrap();
        let strings: Vec<PString> = (0..10)
            .map(|i| PString::from_str_in(&rt, &format!("s{i}")).unwrap())
            .collect();
        for s in &strings {
            v.push(s.addr()).unwrap();
        }
        assert_eq!(v.len(), 10);
        assert!(v.capacity() >= 10, "grew beyond initial capacity");
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(v.get(i as u64), Some(s.addr()));
        }
        assert_eq!(v.pop(), Some(strings[9].addr()));
        assert_eq!(v.len(), 9);
    }

    #[test]
    fn pop_empty_is_none() {
        let (_p, rt) = rt();
        let v = PRefVec::new(&rt, 4).unwrap();
        assert_eq!(v.pop(), None);
    }

    #[test]
    fn growth_survives_crash() {
        let (pmem, rt) = rt();
        let v = PRefVec::new(&rt, 2).unwrap();
        rt.root_put("v", &v).unwrap();
        let strings: Vec<PString> = (0..50)
            .map(|i| PString::from_str_in(&rt, &format!("x{i}")).unwrap())
            .collect();
        for s in &strings {
            v.push(s.addr()).unwrap();
        }
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = crate::register_jpdt(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        let v2 = rt2.root_get_as::<PRefVec>("v").unwrap().unwrap();
        assert_eq!(v2.len(), 50);
        for i in 0..50u64 {
            let s = rt2.read_pobject::<PString>(v2.get(i).unwrap()).unwrap();
            assert_eq!(s.to_string_lossy(), format!("x{i}"));
        }
    }

    #[test]
    fn popped_elements_are_collectable() {
        let (pmem, rt) = rt();
        let v = PRefVec::new(&rt, 4).unwrap();
        rt.root_put("v", &v).unwrap();
        let s = PString::from_str_in(&rt, "gone").unwrap();
        v.push(s.addr()).unwrap();
        assert_eq!(v.pop(), Some(s.addr()));
        rt.pmem().pfence();
        // s is now unreachable: recovery must collect it.
        let s_block = rt.heap().block_of_addr(s.addr());
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = crate::register_jpdt(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        // The span hosting only the dead string was reclaimed whole.
        assert!(rt2.heap().read_header(s_block).is_free_or_slave());
    }
}
