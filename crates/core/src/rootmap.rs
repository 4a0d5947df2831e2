//! The persistent root map (`JNVM.root` in the paper, §2.5): a persistent
//! name → object table anchoring liveness by reachability.
//!
//! Layout:
//!
//! * map object (class [`CLASS_ID_ROOTMAP`]): `[capacity u64][slot u64 × capacity]`
//!   where each slot references an entry object or is null;
//! * entry object (class [`CLASS_ID_ROOTENTRY`]):
//!   `[value ref u64][key length u64][key bytes ≤ 184]` — one block.
//!
//! A volatile mirror (name → slot/entry) is rebuilt lazily after open. Every
//! mutation of the persistent structure is a single reference write, so the
//! map is crash-consistent without failure-atomic blocks — the same pattern
//! J-PDT uses (§4.3.2). Inside a block those writes are staged, while the
//! mirror and the free slots change at once: an abort of the block puts
//! them back ([`JnvmRuntime::on_abort`]).
//!
//! Both the fenced `put`/`remove` and the weak `wput` of Figure 5 are
//! provided.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::JnvmError;
use crate::object::{PAny, PObject};
use crate::proxy::{Proxy, RawChain};
use crate::registry::{CLASS_ID_ROOTENTRY, CLASS_ID_ROOTMAP};
use crate::runtime::{Jnvm, JnvmRuntime};

/// Number of root slots.
const CAPACITY: u64 = 1024;
/// Maximum key length in bytes.
const KEY_MAX: usize = 184;

/// Volatile mirror of the root map.
#[derive(Default)]
pub(crate) struct RootState {
    loaded: bool,
    /// name -> (slot index, entry address).
    mirror: HashMap<String, (u64, u64)>,
    free_slots: Vec<u64>,
}

/// Inside a failure-atomic block, have an abort of the block run `undo`
/// over the mirror: the block's slot and entry writes never reach media.
fn on_abort(rt: &Jnvm, undo: impl FnOnce(&mut RootState) + Send + 'static) {
    if rt.in_fa() {
        let owner = Arc::clone(rt);
        rt.on_abort(move || undo(&mut owner.root_state().lock()));
    }
}

fn slot_off(slot: u64) -> u64 {
    8 + slot * 8
}

fn entry_key(rt: &JnvmRuntime, entry_addr: u64) -> String {
    let chain = RawChain::open(rt, entry_addr);
    let pmem = rt.pmem();
    let len = pmem.read_u64(chain.phys(8)) as usize;
    let mut buf = vec![0u8; len.min(KEY_MAX)];
    chain.read_bytes(pmem, 16, &mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

impl JnvmRuntime {
    pub(crate) fn create_root_map(self: &Jnvm) {
        let map = Proxy::alloc(self, CLASS_ID_ROOTMAP, 8 + CAPACITY * 8);
        map.write_u64(0, CAPACITY);
        // Zero every slot (blocks may be recycled).
        map.chain().segments(8, CAPACITY * 8, |addr, len| {
            self.pmem().zero_range(addr, len);
        });
        map.pwb();
        map.validate();
        self.pmem().pfence();
        self.heap().set_root_slot(1, map.addr());
    }

    fn with_root<R>(
        self: &Jnvm,
        f: impl FnOnce(&Jnvm, &Proxy, &mut RootState) -> R,
    ) -> R {
        let map = Proxy::open(self, self.heap().root_slot(1));
        let mut state = self.root_state().lock();
        if !state.loaded {
            let cap = map.read_u64(0);
            let mut stale_entries = Vec::new();
            for slot in 0..cap {
                let entry = map.read_u64(slot_off(slot));
                if entry == 0 {
                    state.free_slots.push(slot);
                    continue;
                }
                let chain = RawChain::open(self, entry);
                let value = self.pmem().read_u64(chain.phys(0));
                if value == 0 {
                    // The recovery GC nullified this entry's value (the
                    // object was invalid at the crash): drop the husk.
                    map.write_u64(slot_off(slot), 0);
                    map.pwb_field(slot_off(slot), 8);
                    stale_entries.push(entry);
                    state.free_slots.push(slot);
                    continue;
                }
                let key = entry_key(self, entry);
                state.mirror.insert(key, (slot, entry));
            }
            if !stale_entries.is_empty() {
                self.pfence();
                for e in stale_entries {
                    self.free_addr(e);
                }
            }
            state.loaded = true;
        }
        f(self, &map, &mut state)
    }

    /// Associate `name` with a persistent object in the root map, durably
    /// (`JNVM.root.put`). Replaces any previous association (the previous
    /// *object* is not freed — deletion stays explicit, §2.6).
    ///
    /// # Errors
    ///
    /// [`JnvmError::RootKeyTooLong`] or [`JnvmError::RootMapFull`].
    pub fn root_put<T: PObject>(self: &Jnvm, name: &str, obj: &T) -> Result<(), JnvmError> {
        self.root_put_addr(name, obj.addr(), true)
    }

    /// Weak variant of [`JnvmRuntime::root_put`] (`wput` in Figure 5): no
    /// fence is executed and the value is not validated; the caller batches
    /// `validate` + a single `pfence` over several objects.
    pub fn root_wput<T: PObject>(self: &Jnvm, name: &str, obj: &T) -> Result<(), JnvmError> {
        self.root_put_addr(name, obj.addr(), false)
    }

    pub(crate) fn root_put_addr(
        self: &Jnvm,
        name: &str,
        value: u64,
        strong: bool,
    ) -> Result<(), JnvmError> {
        if name.len() > KEY_MAX {
            return Err(JnvmError::RootKeyTooLong(name.len()));
        }
        // Inside a failure-atomic block, commit owns validation and
        // ordering; the put degrades to the weak protocol.
        let strong = strong && !self.in_fa();
        self.with_root(|rt, map, state| {
            if strong {
                // The association must never expose an invalid object.
                rt.set_valid_addr(value, true);
                rt.pfence();
            }
            if let Some((_slot, entry)) = state.mirror.get(name).copied() {
                // Update the existing entry's value reference in place.
                let e = Proxy::open(rt, entry);
                e.write_u64(0, value);
                e.pwb_field(0, 8);
                if strong {
                    rt.pfence();
                }
                return Ok(());
            }
            let Some(slot) = state.free_slots.pop() else {
                return Err(JnvmError::RootMapFull);
            };
            let entry = Proxy::alloc(rt, CLASS_ID_ROOTENTRY, 16 + KEY_MAX as u64);
            entry.write_u64(0, value);
            entry.write_u64(8, name.len() as u64);
            entry.write_bytes(16, name.as_bytes());
            entry.pwb();
            entry.validate();
            if strong {
                rt.pfence();
            }
            map.write_u64(slot_off(slot), entry.addr());
            map.pwb_field(slot_off(slot), 8);
            if strong {
                rt.pfence();
            }
            state.mirror.insert(name.to_string(), (slot, entry.addr()));
            let name = name.to_string();
            on_abort(rt, move |state| {
                state.mirror.remove(&name);
                state.free_slots.push(slot);
            });
            Ok(())
        })
    }

    /// Look up `name` in the root map.
    pub fn root_get(self: &Jnvm, name: &str) -> Option<PAny> {
        self.with_root(|rt, _map, state| {
            let (_slot, entry) = state.mirror.get(name).copied()?;
            let chain = RawChain::open(rt, entry);
            let value = rt.pmem().read_u64(chain.phys(0));
            if value == 0 {
                return None;
            }
            Some(PAny {
                addr: value,
                class_id: rt.class_id_of_addr(value),
            })
        })
    }

    /// Typed lookup: [`JnvmRuntime::root_get`] + checked downcast.
    pub fn root_get_as<T: PObject>(self: &Jnvm, name: &str) -> Result<Option<T>, JnvmError> {
        match self.root_get(name) {
            None => Ok(None),
            Some(any) => any.get_as::<T>(self).map(Some),
        }
    }

    /// Whether `name` is present in the root map.
    pub fn root_exists(self: &Jnvm, name: &str) -> bool {
        self.with_root(|_rt, _map, state| state.mirror.contains_key(name))
    }

    /// Remove the association for `name` durably. The referenced object is
    /// **not** freed (deletion is explicit in J-NVM). Returns the removed
    /// object's address, if any.
    pub fn root_remove(self: &Jnvm, name: &str) -> Option<u64> {
        self.with_root(|rt, map, state| {
            let (slot, entry) = state.mirror.remove(name)?;
            let chain = RawChain::open(rt, entry);
            let value = rt.pmem().read_u64(chain.phys(0));
            map.write_u64(slot_off(slot), 0);
            map.pwb_field(slot_off(slot), 8);
            rt.pfence();
            rt.free_addr(entry);
            state.free_slots.push(slot);
            let name = name.to_string();
            on_abort(rt, move |state| {
                state.free_slots.retain(|s| *s != slot);
                state.mirror.insert(name, (slot, entry));
            });
            if value == 0 {
                None
            } else {
                Some(value)
            }
        })
    }

    /// Names currently present in the root map.
    pub fn root_names(self: &Jnvm) -> Vec<String> {
        self.with_root(|_rt, _map, state| state.mirror.keys().cloned().collect())
    }

    /// Number of root associations.
    pub fn root_len(self: &Jnvm) -> usize {
        self.with_root(|_rt, _map, state| state.mirror.len())
    }
}

/// Tracer for the root map object: every non-null slot references an entry.
pub(crate) fn trace_root_map(rt: &Jnvm, addr: u64, visit: &mut dyn FnMut(u64)) {
    let chain = RawChain::open(rt, addr);
    let cap = rt.pmem().read_u64(chain.phys(0));
    for slot in 0..cap {
        visit(chain.phys(slot_off(slot)));
    }
}

/// Tracer for a root entry: the value reference at payload offset 0.
pub(crate) fn trace_root_entry(rt: &Jnvm, addr: u64, visit: &mut dyn FnMut(u64)) {
    let chain = RawChain::open(rt, addr);
    visit(chain.phys(0));
}
