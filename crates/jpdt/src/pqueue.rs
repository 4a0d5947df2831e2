//! A persistent FIFO queue — a J-PDT type built on the same
//! single-write-per-mutation discipline as the maps (§4.3).
//!
//! Layout: the queue object is `[array ref][head u64][tail u64]`; storage
//! is a [`PRefArray`] used as a ring buffer. `head` and `tail` are
//! monotonically increasing logical indices (cell = index % capacity), so
//! each enqueue/dequeue publishes with **one** counter write:
//!
//! * enqueue: write the cell, flush, fence, bump `tail` (the publish),
//! * dequeue: read the cell, bump `head` (the publish), fence, null the
//!   cell (so the recovery GC cannot keep the element alive).
//!
//! A crash between the cell write and the counter write leaves the
//! structure exactly as before the operation — all-or-nothing without
//! failure-atomic blocks. Growth copies into a double-size ring and
//! publishes it with the atomic-update protocol (§4.1.6).

use parking_lot::Mutex;

use jnvm::{Jnvm, JnvmError, PObject, Proxy};

use crate::parray::PRefArray;

const OFF_ARRAY: u64 = 0;
const OFF_HEAD: u64 = 8;
const OFF_TAIL: u64 = 16;

/// A persistent FIFO queue of object references.
pub struct PQueue {
    proxy: Proxy,
    ring: Mutex<PRefArray>,
}

impl PQueue {
    /// Create an empty queue with the given initial capacity (min 4),
    /// validated and fenced.
    pub fn new(rt: &Jnvm, capacity: u64) -> Result<PQueue, JnvmError> {
        let ring = PRefArray::new(rt, capacity.max(4))?;
        let proxy = rt.alloc_proxy::<PQueue>(24)?;
        proxy.write_ref(OFF_ARRAY, Some(ring.addr()));
        proxy.write_u64(OFF_HEAD, 0);
        proxy.write_u64(OFF_TAIL, 0);
        proxy.pwb();
        proxy.validate();
        rt.pfence();
        Ok(PQueue {
            proxy,
            ring: Mutex::new(ring),
        })
    }

    /// Number of queued elements.
    pub fn len(&self) -> u64 {
        self.proxy.read_u64(OFF_TAIL) - self.proxy.read_u64(OFF_HEAD)
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current ring capacity.
    pub fn capacity(&self) -> u64 {
        self.ring.lock().len()
    }

    /// Append a reference at the tail.
    pub fn enqueue(&self, target: u64) -> Result<(), JnvmError> {
        let rt = self.proxy.runtime().clone();
        let mut ring = self.ring.lock();
        let head = self.proxy.read_u64(OFF_HEAD);
        let tail = self.proxy.read_u64(OFF_TAIL);
        if tail - head == ring.len() {
            // Grow: unroll the ring into a double-size array starting at
            // cell (head % new_cap), publish atomically.
            let old_cap = ring.len();
            let bigger = PRefArray::new(&rt, old_cap * 2)?;
            for i in 0..old_cap {
                let idx = head + i;
                bigger.set_ref(idx % (old_cap * 2), ring.get_ref(idx % old_cap));
            }
            bigger.pwb();
            rt.set_valid_addr(bigger.addr(), true);
            rt.pfence();
            self.proxy.write_ref(OFF_ARRAY, Some(bigger.addr()));
            self.proxy.pwb_field(OFF_ARRAY, 8);
            rt.pfence();
            let old = std::mem::replace(&mut *ring, bigger);
            old.free();
        }
        rt.set_valid_addr(target, true);
        let cell = tail % ring.len();
        ring.set_ref(cell, Some(target));
        ring.pwb_cell(cell);
        rt.pfence();
        self.proxy.write_u64(OFF_TAIL, tail + 1); // the publish
        self.proxy.pwb_field(OFF_TAIL, 8);
        rt.pfence();
        self.proxy.ordering_point("pqueue-publish", OFF_TAIL, 8);
        Ok(())
    }

    /// Remove and return the head reference (ownership passes to the
    /// caller — deletion stays explicit).
    pub fn dequeue(&self) -> Option<u64> {
        let rt = self.proxy.runtime().clone();
        let ring = self.ring.lock();
        let head = self.proxy.read_u64(OFF_HEAD);
        let tail = self.proxy.read_u64(OFF_TAIL);
        if head == tail {
            return None;
        }
        let cell = head % ring.len();
        let v = ring.get_ref(cell);
        self.proxy.write_u64(OFF_HEAD, head + 1); // the publish
        self.proxy.pwb_field(OFF_HEAD, 8);
        rt.pfence();
        self.proxy.ordering_point("pqueue-consume", OFF_HEAD, 8);
        // Unreachable garbage must not be kept alive by the stale cell.
        ring.set_ref(cell, None);
        ring.pwb_cell(cell);
        v
    }

    /// Head reference without removing it.
    pub fn peek(&self) -> Option<u64> {
        let ring = self.ring.lock();
        let head = self.proxy.read_u64(OFF_HEAD);
        if head == self.proxy.read_u64(OFF_TAIL) {
            return None;
        }
        ring.get_ref(head % ring.len())
    }

    /// Iterate `(logical index, reference)` head to tail.
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        let ring = self.ring.lock();
        let head = self.proxy.read_u64(OFF_HEAD);
        let tail = self.proxy.read_u64(OFF_TAIL);
        for i in head..tail {
            if let Some(r) = ring.get_ref(i % ring.len()) {
                f(i - head, r);
            }
        }
    }

    /// Free the queue and its ring (not the referenced objects).
    pub fn free(self) {
        let rt = self.proxy.runtime().clone();
        self.ring.into_inner().free();
        rt.free_addr(self.proxy.addr());
    }
}

impl PObject for PQueue {
    const CLASS_NAME: &'static str = "jnvm_jpdt.PQueue";
    const REF_OFFSETS: &'static [u64] = &[OFF_ARRAY];

    fn resurrect(rt: &Jnvm, addr: u64) -> Self {
        let proxy = Proxy::open(rt, addr);
        let ring_addr = proxy.read_ref(OFF_ARRAY).expect("queue always has a ring");
        PQueue {
            ring: Mutex::new(PRefArray::resurrect(rt, ring_addr)),
            proxy,
        }
    }

    fn addr(&self) -> u64 {
        self.proxy.addr()
    }
}

impl std::fmt::Debug for PQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PQueue")
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
    use std::collections::VecDeque;
    use std::sync::Arc;

    fn rt() -> (Arc<Pmem>, Jnvm) {
        let pmem = Pmem::new(PmemConfig::crash_sim(16 << 20));
        let rt = crate::register_jpdt(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        (pmem, rt)
    }

    #[test]
    fn fifo_order() {
        let (_p, rt) = rt();
        let q = PQueue::new(&rt, 4).unwrap();
        assert!(q.is_empty());
        assert_eq!(q.dequeue(), None);
        let items: Vec<PString> = (0..10)
            .map(|i| PString::from_str_in(&rt, &format!("item-{i}")).unwrap())
            .collect();
        for it in &items {
            q.enqueue(it.addr()).unwrap();
        }
        assert_eq!(q.len(), 10);
        assert!(q.capacity() >= 10, "ring grew");
        assert_eq!(q.peek(), Some(items[0].addr()));
        for it in &items {
            assert_eq!(q.dequeue(), Some(it.addr()));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn ring_wraps_around() {
        let (_p, rt) = rt();
        let q = PQueue::new(&rt, 4).unwrap();
        let mut model: VecDeque<u64> = VecDeque::new();
        // Interleave so head/tail wrap the 4-cell ring many times without
        // growing.
        for round in 0..40u64 {
            let s = PString::from_str_in(&rt, &format!("r{round}")).unwrap();
            q.enqueue(s.addr()).unwrap();
            model.push_back(s.addr());
            if round % 2 == 1 {
                assert_eq!(q.dequeue(), model.pop_front());
                assert_eq!(q.dequeue(), model.pop_front());
            }
        }
        assert_eq!(q.capacity(), 4, "never needed to grow");
        assert_eq!(q.len() as usize, model.len());
    }

    #[test]
    fn survives_crash_with_wrapped_state() {
        let (pmem, rt) = rt();
        let q = PQueue::new(&rt, 4).unwrap();
        rt.root_put("q", &q).unwrap();
        let mut expected = VecDeque::new();
        for i in 0..11u64 {
            let s = PString::from_str_in(&rt, &format!("e{i}")).unwrap();
            q.enqueue(s.addr()).unwrap();
            expected.push_back(format!("e{i}"));
            if i % 3 == 2 {
                let got = q.dequeue().unwrap();
                let want = expected.pop_front().unwrap();
                assert_eq!(PString::resurrect(&rt, got).to_string_lossy(), want);
                rt.free_addr(got);
                rt.pfence();
            }
        }
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = crate::register_jpdt(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        let q2 = rt2.root_get_as::<PQueue>("q").unwrap().unwrap();
        assert_eq!(q2.len() as usize, expected.len());
        while let Some(want) = expected.pop_front() {
            let got = q2.dequeue().unwrap();
            assert_eq!(PString::resurrect(&rt2, got).to_string_lossy(), want);
        }
    }

    #[test]
    fn dequeued_elements_are_collectable() {
        let (pmem, rt) = rt();
        let q = PQueue::new(&rt, 4).unwrap();
        rt.root_put("q", &q).unwrap();
        let s = PString::from_str_in(&rt, "transient").unwrap();
        q.enqueue(s.addr()).unwrap();
        let got = q.dequeue().unwrap();
        assert_eq!(got, s.addr());
        // Caller "forgets" to free: the element is unreachable (the cell
        // was nulled), so recovery must reclaim it.
        rt.pfence();
        let s_block = rt.heap().block_of_addr(s.addr());
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = crate::register_jpdt(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        assert!(rt2.heap().read_header(s_block).is_free_or_slave());
    }

    #[test]
    fn crash_mid_enqueue_is_all_or_nothing() {
        // Model the torn enqueue: cell written and fenced, tail bump
        // unflushed. After the crash the element must be invisible.
        let (pmem, rt) = rt();
        let q = PQueue::new(&rt, 4).unwrap();
        rt.root_put("q", &q).unwrap();
        let s = PString::from_str_in(&rt, "torn").unwrap();
        rt.pfence();
        // Hand-drive the first half of enqueue.
        {
            let ring = rt.root_get_as::<PQueue>("q").unwrap().unwrap();
            let _ = ring; // the public API has no way to tear — drive via proxy
        }
        // Write cell 0 + flush, but never bump tail.
        let ring_addr = q.proxy.read_ref(OFF_ARRAY).unwrap();
        let ring = PRefArray::resurrect(&rt, ring_addr);
        ring.set_ref(0, Some(s.addr()));
        ring.pwb_cell(0);
        rt.pfence();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = crate::register_jpdt(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        let q2 = rt2.root_get_as::<PQueue>("q").unwrap().unwrap();
        assert!(q2.is_empty(), "unpublished element must be invisible");
    }
}
