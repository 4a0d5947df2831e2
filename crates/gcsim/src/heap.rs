//! The managed object arena the simulated collectors trace.

/// Index of an object in the arena.
pub type ObjId = u32;

/// Sentinel for "no object".
pub const NIL: ObjId = u32::MAX;

/// Handle on a GC root slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootId(pub(crate) u32);

#[derive(Debug)]
pub(crate) struct Obj {
    pub size: u32,
    pub marked: bool,
    /// 0 = young, 1 = old (used by the generational collector).
    pub generation: u8,
    pub live: bool,
    pub refs: Vec<ObjId>,
}

/// Occupancy counters of a [`ManagedHeap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStatsSnapshot {
    /// Objects currently allocated (live + unreclaimed garbage).
    pub objects: u64,
    /// Bytes currently allocated.
    pub bytes: u64,
    /// Bytes allocated since the last collection.
    pub bytes_since_gc: u64,
    /// Bytes allocated over the heap's lifetime.
    pub total_allocated: u64,
    /// Root slots in use.
    pub roots: u64,
}

/// A managed heap: objects with sizes and reference lists, root slots, and
/// the bookkeeping collectors need. Allocation is arena-based; reclamation
/// only ever happens through a collector.
#[derive(Debug, Default)]
pub struct ManagedHeap {
    pub(crate) objs: Vec<Obj>,
    pub(crate) free: Vec<ObjId>,
    pub(crate) roots: Vec<ObjId>,
    root_free: Vec<u32>,
    pub(crate) bytes: u64,
    pub(crate) bytes_since_gc: u64,
    total_allocated: u64,
    live_roots: u64,
}

impl ManagedHeap {
    /// An empty heap.
    pub fn new() -> ManagedHeap {
        ManagedHeap::default()
    }

    /// Allocate an object of `size` bytes referencing `refs`.
    pub fn alloc(&mut self, size: u32, refs: Vec<ObjId>) -> ObjId {
        self.bytes += size as u64;
        self.bytes_since_gc += size as u64;
        self.total_allocated += size as u64;
        let obj = Obj {
            size,
            marked: false,
            generation: 0,
            live: true,
            refs,
        };
        match self.free.pop() {
            Some(id) => {
                self.objs[id as usize] = obj;
                id
            }
            None => {
                self.objs.push(obj);
                (self.objs.len() - 1) as ObjId
            }
        }
    }

    /// Overwrite reference slot `slot` of `obj`. Collectors with barriers
    /// wrap this ([`crate::GenerationalGc::write_ref`]).
    pub fn set_ref(&mut self, obj: ObjId, slot: usize, target: ObjId) {
        let o = &mut self.objs[obj as usize];
        debug_assert!(o.live, "write to reclaimed object {obj}");
        if slot >= o.refs.len() {
            o.refs.resize(slot + 1, NIL);
        }
        o.refs[slot] = target;
    }

    /// Read reference slot `slot` of `obj`.
    pub fn get_ref(&self, obj: ObjId, slot: usize) -> ObjId {
        self.objs[obj as usize]
            .refs
            .get(slot)
            .copied()
            .unwrap_or(NIL)
    }

    /// Whether `obj` is currently allocated.
    pub fn is_live(&self, obj: ObjId) -> bool {
        (obj as usize) < self.objs.len() && self.objs[obj as usize].live
    }

    /// Pin `obj` as a GC root; returns the slot handle.
    pub fn add_root(&mut self, obj: ObjId) -> RootId {
        self.live_roots += 1;
        match self.root_free.pop() {
            Some(i) => {
                self.roots[i as usize] = obj;
                RootId(i)
            }
            None => {
                self.roots.push(obj);
                RootId((self.roots.len() - 1) as u32)
            }
        }
    }

    /// Release a root slot.
    pub fn remove_root(&mut self, root: RootId) {
        self.roots[root.0 as usize] = NIL;
        self.root_free.push(root.0);
        self.live_roots -= 1;
    }

    /// Re-point a root slot at a different object.
    pub fn set_root(&mut self, root: RootId, obj: ObjId) {
        self.roots[root.0 as usize] = obj;
    }

    /// Current occupancy.
    pub fn stats(&self) -> HeapStatsSnapshot {
        HeapStatsSnapshot {
            objects: (self.objs.len() - self.free.len()) as u64,
            bytes: self.bytes,
            bytes_since_gc: self.bytes_since_gc,
            total_allocated: self.total_allocated,
            roots: self.live_roots,
        }
    }

    pub(crate) fn reclaim(&mut self, id: ObjId) {
        let o = &mut self.objs[id as usize];
        debug_assert!(o.live);
        o.live = false;
        self.bytes -= o.size as u64;
        o.refs = Vec::new();
        self.free.push(id);
    }

    /// Mark from the roots following `filter` (a generation gate); returns
    /// the number of objects marked. Marks are left set — the caller
    /// sweeps and clears.
    pub(crate) fn mark<F: Fn(&Obj) -> bool>(&mut self, extra_roots: &[ObjId], filter: F) -> u64 {
        let mut stack: Vec<ObjId> = self
            .roots
            .iter()
            .chain(extra_roots.iter())
            .copied()
            .filter(|r| *r != NIL)
            .collect();
        let mut marked = 0;
        while let Some(id) = stack.pop() {
            if id == NIL {
                continue;
            }
            let o = &mut self.objs[id as usize];
            if !o.live || o.marked || !filter(o) {
                continue;
            }
            o.marked = true;
            marked += 1;
            // Children: push a snapshot (mark-bits make re-push harmless).
            let refs = o.refs.clone();
            stack.extend(refs);
        }
        marked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roots() {
        let mut h = ManagedHeap::new();
        let a = h.alloc(100, vec![]);
        let b = h.alloc(50, vec![a]);
        let r = h.add_root(b);
        let s = h.stats();
        assert_eq!(s.objects, 2);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.roots, 1);
        assert_eq!(h.get_ref(b, 0), a);
        h.remove_root(r);
        assert_eq!(h.stats().roots, 0);
    }

    #[test]
    fn set_ref_grows_slots() {
        let mut h = ManagedHeap::new();
        let a = h.alloc(8, vec![]);
        let b = h.alloc(8, vec![]);
        h.set_ref(a, 3, b);
        assert_eq!(h.get_ref(a, 3), b);
        assert_eq!(h.get_ref(a, 0), NIL);
        assert_eq!(h.get_ref(a, 10), NIL);
    }

    #[test]
    fn root_slot_reuse() {
        let mut h = ManagedHeap::new();
        let a = h.alloc(8, vec![]);
        let r1 = h.add_root(a);
        h.remove_root(r1);
        let r2 = h.add_root(a);
        assert_eq!(r1.0, r2.0, "slot recycled");
    }
}
