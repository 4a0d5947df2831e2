//! Failure-atomic blocks (§4.2): a per-thread persistent redo log, inspired
//! by Romulus and adapted to the block heap.
//!
//! During a failure-atomic block every modification — allocation, payload
//! write, free — is recorded, leaving original data intact. A payload write
//! to a valid object lands in a **volatile overlay** (one new value per
//! written word; mediated reads consult it first). When the block's closure
//! returns, each maximal run of written words becomes one self-contained
//! redo entry, and the commit stores the entries of its whole group in one
//! persistent log — the log carries the words, never the enclosing block.
//! (The paper redirects writes to in-flight NVMM block copies instead;
//! DESIGN.md §3 says why this departs from it.)
//!
//! A log's payload is `[committed flag][length in words]` on its first
//! cache line and the entries from its second one on, an entry
//! `[n << 48 | address | kind][payload words]`: the kind sits in the three
//! idle low bits of the 8-aligned address. A write entry carries `n` ≥ 1
//! words to store at `address`, all inside one block's payload; an
//! allocation carries none, and `n` is the class id of the object
//! allocated; a free carries none, and `n` is 0.
//!
//! Commit, of a group of one or more blocks — the group is the transaction
//! and has **one** log, the paper's per-thread log of the committing thread:
//!
//! 1. store the group's entries, in apply order, into one log; `pwb` them
//!    and the fresh allocations, `pfence`,
//! 2. set the log's committed flag + length, `pwb`, `pfence` — the
//!    durability point,
//! 3. apply, from the entries still in DRAM (only recovery reads a log
//!    back): validate allocations, invalidate frees, copy each write
//!    entry's words onto the original, `pwb`, `pfence` — the
//!    applies must be durable *before* step 4, or a crash could persist the
//!    cleared flag while losing an applied line, and nothing would replay
//!    the torn block. A live commit validates an allocation by storing its
//!    whole header word, valid bit set, from DRAM: a pool slot's mini-header
//!    is stored here and nowhere else (until then the slot holds the invalid
//!    word of its free or its carve), a chain's master header was also
//!    stored at allocation, for its links. Replay, which has no DRAM state,
//!    stores a slot's header from the entry's class id and flips a master's
//!    valid bit. A free is invalidated here too — a slot's mini-header
//!    cleared, a master's valid bit cleared — behind the same fence, so that
//!    no freed object outlives the commit valid on media,
//! 4. clear the committed flag, `pwb`, `pfence` (so the log is reusable
//!    and the storage the group freed may be recycled).
//!
//! That is 4 fences per group whatever its size. The protocol is written
//! once: [`JnvmRuntime::fa_stage`] builds a block's entries in DRAM and
//! touches no log, [`JnvmRuntime::fa_commit_group`] runs the four steps, a
//! solo [`JnvmRuntime::fa`] is a group of one, and steps 3–4
//! (`apply_and_retire`) are also what recovery runs over each log it finds
//! committed.
//!
//! Updates to *invalid* objects — typically objects allocated inside the
//! same block — are applied in place: if the block aborts, recovery deletes
//! them anyway.
//!
//! After a failure, committed logs are replayed and uncommitted ones
//! abandoned **before** the recovery GC runs; the GC then reaps invalid
//! allocations.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::thread::ThreadId;

use jnvm_heap::{BlockHeader, HeapError, HEADER_BYTES, NULL_BLOCK};
use jnvm_pmem::CACHE_LINE;
use parking_lot::Mutex;

use crate::error::JnvmError;
use crate::proxy::{Proxy, RawChain};
use crate::registry::CLASS_ID_FALOG;
use crate::runtime::{Jnvm, JnvmRuntime};

/// Initial capacity of the log directory. The directory doubles on demand
/// (see `grow_dir`), so this no longer bounds how many threads may enter
/// failure-atomic blocks over the pool's lifetime.
const DIR_CAPACITY: u64 = 64;

/// Initial log capacity in entry words; logs grow on demand.
const LOG_INIT_WORDS: u64 = 768;

/// Logical offset of the committed flag within a log's payload.
const LOG_COMMITTED: u64 = 0;
/// Logical offset of the committed length, in words of entries.
const LOG_LEN: u64 = 8;
/// Logical offset of the first entry: the first payload byte of the log's
/// second cache line. The flag/length line holds no entry words, so its only
/// write-backs are the commit point's and the retire's.
const LOG_ENTRIES: u64 = CACHE_LINE - HEADER_BYTES;

const KIND_ALLOC: u64 = 1;
const KIND_FREE: u64 = 2;
const KIND_WRITE: u64 = 3;
/// An entry's head is one word: the kind in the low 3 bits of the 8-aligned
/// address it targets, and above [`RUN_SHIFT`] the number of payload words
/// that follow.
const KIND_MASK: u64 = 7;
const RUN_SHIFT: u32 = 48;
/// The longest run one WRITE entry carries.
const RUN_MAX: u64 = u64::MAX >> RUN_SHIFT;
const ADDR_MASK: u64 = !(KIND_MASK | RUN_MAX << RUN_SHIFT);

fn entry_head(kind: u64, addr: u64) -> u64 {
    debug_assert_eq!(addr & !ADDR_MASK, 0, "{addr:#x}");
    addr | kind
}

/// A handle on one persistent redo log.
pub(crate) struct LogHandle {
    chain: RawChain,
}

impl LogHandle {
    fn addr(&self) -> u64 {
        self.chain.blocks[0]
    }

    /// Grow the log's chain until it holds `words` words of entries. On
    /// heap exhaustion the chain may have grown part of the way on media;
    /// the handle then re-reads it, so it still describes the log whole and
    /// can go back to the pool.
    fn reserve(&mut self, rt: &Jnvm, words: u64) -> Result<(), HeapError> {
        let heap = rt.heap();
        let have = self.chain.blocks.len() as u64;
        let need = heap.blocks_for(LOG_ENTRIES + words * 8);
        if need > have {
            match heap.extend_chain(heap.block_of_addr(self.addr()), need - have) {
                Ok(added) => self
                    .chain
                    .blocks
                    .extend(added.into_iter().map(|b| heap.block_addr(b))),
                Err(e) => {
                    self.chain = RawChain::open(rt, self.addr());
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

/// Pool of redo logs plus the persistent log directory.
pub(crate) struct FaManager {
    free_logs: Mutex<VecDeque<LogHandle>>,
    /// Guards directory appends; holds the next free directory slot.
    dir_cursor: Mutex<u64>,
}

impl FaManager {
    pub(crate) fn new() -> FaManager {
        FaManager {
            free_logs: Mutex::new(VecDeque::new()),
            dir_cursor: Mutex::new(0),
        }
    }

    /// Create the persistent log directory on a fresh pool and anchor it in
    /// root slot 2.
    pub(crate) fn create_dir(rt: &Jnvm) {
        let dir = Proxy::alloc(rt, crate::registry::CLASS_ID_FALOGDIR, 8 + DIR_CAPACITY * 8);
        dir.write_u64(0, DIR_CAPACITY);
        dir.pwb();
        dir.validate();
        rt.pmem().pfence();
        rt.heap().set_root_slot(2, dir.addr());
    }

    fn acquire_log(&self, rt: &Jnvm) -> LogHandle {
        let pooled = self.free_logs.lock().pop_front();
        if let Some(log) = pooled {
            return log;
        }
        // Create a new log and publish it in the directory.
        let log = Proxy::alloc(rt, CLASS_ID_FALOG, LOG_ENTRIES + LOG_INIT_WORDS * 8);
        log.write_u64(LOG_COMMITTED, 0);
        log.write_u64(LOG_LEN, 0);
        log.pwb();
        log.validate();
        rt.pmem().pfence();

        let mut cursor = self.dir_cursor.lock();
        let mut dir = Proxy::open(rt, rt.heap().root_slot(2));
        let cap = dir.read_u64(0);
        if *cursor >= cap {
            grow_dir(rt, &mut dir, cap);
        }
        dir.write_u64(8 + *cursor * 8, log.addr());
        dir.pwb_field(8 + *cursor * 8, 8);
        rt.pmem().pfence();
        *cursor += 1;
        let chain = RawChain::open(rt, log.addr());
        // The directory now durably references the log; its initialized
        // committed-flag/length words must be persisted with it, or recovery
        // could chase the slot into an uninitialized log.
        rt.pmem()
            .ordering_point("log-publish", &[(chain.phys(LOG_COMMITTED), 16)]);
        LogHandle { chain }
    }

    fn release_log(&self, log: LogHandle) {
        self.free_logs.lock().push_back(log);
    }

    /// After restart: replay committed logs, abandon uncommitted ones, and
    /// repopulate the volatile log pool. Returns the number replayed (an
    /// abandoned log is not observable: retire clears the flag and leaves
    /// the length, exactly what a log cut short before its commit point
    /// holds). Must run before the recovery GC. A damaged log (see
    /// `decode_log`) surfaces as [`JnvmError::CorruptLog`] rather than
    /// aborting, so a server re-open on a damaged pool can report the
    /// failure.
    ///
    /// Logs replay on the caller in **directory-slot order**, the only
    /// order there is: a commit group is one log, so a committer leaves at
    /// most one committed log behind and two logs that touch the same
    /// block (two committers frozen between commit point and retire) apply
    /// in the same order on every recovery.
    pub(crate) fn recover_logs(&self, rt: &Jnvm) -> Result<u64, JnvmError> {
        let pmem = rt.pmem();
        let dir = RawChain::open(rt, rt.heap().root_slot(2));
        let cap = pmem.read_u64(dir.phys(0));
        let mut cursor = self.dir_cursor.lock();
        let mut free_logs = self.free_logs.lock();
        let mut replayed = 0;
        let mut retired_fp: Vec<(u64, u64)> = Vec::new();
        for slot in 0..cap {
            let log_addr = pmem.read_u64(dir.phys(8 + slot * 8));
            if log_addr == 0 {
                continue;
            }
            let chain = RawChain::open(rt, log_addr);
            if pmem.read_u64(chain.phys(LOG_COMMITTED)) == 1 {
                // Steps 3–4 of the commit protocol. Both are idempotent, so
                // a crash anywhere in here re-replays on the next recovery
                // and converges.
                let (len, bytes) = read_log(pmem, &chain);
                apply_and_retire(rt, &chain, len, &bytes, &[], false, &mut retired_fp)?;
                replayed += 1;
            }
            *cursor = slot + 1;
            free_logs.push_back(LogHandle { chain });
        }
        pmem.pfence();
        // Every flag the replay cleared is durable behind the closing fence.
        pmem.ordering_point("recovery-retire", &retired_fp);
        Ok(replayed)
    }
}

/// Double the log directory's slot count (caller holds the `dir_cursor`
/// lock). Used to be a hard panic — "directory full: too many threads" —
/// which a long-lived pool with thread churn eventually hit, since
/// directory slots are never reclaimed while their log lives.
///
/// Crash-safe ordering: the extension blocks are linked and the fresh
/// slot range is zeroed and **fenced before** the enlarged capacity is
/// published at offset 0. A crash mid-growth therefore leaves either the
/// old capacity (extension invisible to recovery) or the new capacity
/// over all-null slots — never uninitialized slots that `recover_logs`
/// would chase as log addresses.
fn grow_dir(rt: &Jnvm, dir: &mut Proxy, cap: u64) {
    let heap = rt.heap();
    let new_cap = cap * 2;
    let need = heap.blocks_for(8 + new_cap * 8);
    let have = dir.block_count() as u64;
    if need > have {
        dir.extend(need - have)
            .expect("persistent heap exhausted growing the fa log directory");
    }
    let zeros = vec![0u8; ((new_cap - cap) * 8) as usize];
    dir.write_bytes(8 + cap * 8, &zeros);
    dir.pwb_field(8 + cap * 8, zeros.len() as u64);
    rt.pmem().pfence();
    dir.write_u64(0, new_cap);
    dir.pwb_field(0, 8);
    rt.pmem().pfence();
}

/// Tracer for the log directory: every non-null slot references a log.
pub(crate) fn trace_log_dir(rt: &Jnvm, addr: u64, visit: &mut dyn FnMut(u64)) {
    let chain = RawChain::open(rt, addr);
    let cap = rt.pmem().read_u64(chain.phys(0));
    for slot in 0..cap {
        visit(chain.phys(8 + slot * 8));
    }
}

// ----------------------------------------------------------------------
// Thread-local transaction state.
// ----------------------------------------------------------------------

struct TxState {
    rt: Jnvm,
    /// The block's redo entries as log words: ALLOC and FREE entries in
    /// program order; `seal` appends the WRITE entries.
    entries: Vec<u64>,
    /// Number of entries in `entries`.
    ops: u64,
    /// The volatile overlay: word address -> staged value, for every word
    /// of a valid object the block wrote. Ordered (as is `allocated`) so
    /// the flush phase emits its entries and write-backs in address order:
    /// crash point `i` names the same op on every run.
    overlay: BTreeMap<u64, u64>,
    /// Objects allocated inside this block (written in place, validated
    /// and flushed by the commit), by master address.
    allocated: BTreeMap<u64, Allocated>,
    /// Each ALLOC entry's header word with the valid bit set, in entry
    /// order: what a live commit stores to validate the allocation.
    valid_words: Vec<u64>,
    /// DRAM state the block changed ahead of its commit, as the closures
    /// that put it back (see [`JnvmRuntime::on_abort`]).
    undo: Undo,
}

/// Closures that put back DRAM state a failure-atomic block changed ahead
/// of its commit. Dropped, they run newest first — an abort drops them
/// with its block; a commit takes them out and clears them once its
/// durability point is behind it.
#[derive(Default)]
struct Undo(Vec<Box<dyn FnOnce() + Send>>);

impl Drop for Undo {
    fn drop(&mut self) {
        for undo in self.0.drain(..).rev() {
            undo();
        }
    }
}

/// What the commit needs of an object the block allocated, so that it
/// never reads the object's headers back.
struct Allocated {
    /// Payload bytes the commit flushes: what the allocation asked for, or
    /// the whole chain once grown.
    payload: u64,
    /// Index of its header word in [`TxState::valid_words`].
    word: usize,
    /// Byte addresses of the chain's blocks, master first, when it has
    /// more than one; empty for one block or a pooled object.
    blocks: Vec<u64>,
}

impl TxState {
    /// Append a one-word entry (an ALLOC or a FREE) with head `head`.
    fn push_entry(&mut self, head: u64) {
        self.entries.push(head);
        self.ops += 1;
    }

    /// The block's closure has returned: emit each maximal run of overlay
    /// words as one WRITE entry. DRAM only — the commit stores the entries
    /// in its group's log. A run never leaves its block: consecutive
    /// payload words of two blocks have a header word between them.
    fn seal(&mut self) {
        let mut head = 0;
        let mut next = None;
        for (&addr, &v) in &self.overlay {
            if next != Some(addr) || self.entries[head] >> RUN_SHIFT == RUN_MAX {
                head = self.entries.len();
                self.entries.push(entry_head(KIND_WRITE, addr));
                self.ops += 1;
            }
            self.entries.push(v);
            self.entries[head] += 1 << RUN_SHIFT;
            next = Some(addr + 8);
        }
    }

    /// What step 1 of the commit protocol must persist for a sealed block
    /// besides its log entries, as `(address, length)` ranges: the header
    /// and payload of every object it allocated (written in place with
    /// their own flushes suppressed by the mediation — the commit owns
    /// their write-back). A chain grown since is taken whole (see
    /// [`note_extend`]); a pooled object, whose payload fits one block's,
    /// is one range from its mini-header. From DRAM: no chain is walked.
    fn allocated_ranges(&self, out: &mut Vec<(u64, u64)>) {
        let heap = self.rt.heap();
        for (master, a) in &self.allocated {
            let blocks = if a.blocks.is_empty() {
                std::slice::from_ref(master)
            } else {
                &a.blocks
            };
            let mut left = a.payload.max(1);
            for &b in blocks {
                let used = left.min(heap.payload_size());
                out.push((b, HEADER_BYTES + used));
                left -= used;
            }
        }
    }
}

thread_local! {
    static TX_DEPTH: Cell<u32> = const { Cell::new(0) };
    static TX: RefCell<Option<TxState>> = const { RefCell::new(None) };
    static PHASE: Cell<CommitPhase> = const { Cell::new(CommitPhase::Idle) };
}

/// Where this thread's most recent failure-atomic block is (or was) in the
/// §4.2 commit protocol. Diagnostic only: crash-point sweeps read it after
/// an injected crash to label the point and to select interesting pool
/// states (e.g. "committed but not yet applied"). The marker is *not*
/// reset when a block unwinds — it keeps the phase the crash interrupted —
/// and is overwritten when the next outermost block starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitPhase {
    /// No commit activity since the last completed block.
    #[default]
    Idle,
    /// Inside the user closure: mutations are being staged and logged.
    Mutate,
    /// Step 1: flushing log entries and fresh allocations.
    FlushStaged,
    /// Step 2: writing + flushing the committed flag and entry count.
    CommitPoint,
    /// Step 3: copying the logged words onto the originals.
    Apply,
    /// Step 4: clearing the committed flag so the log can be reused.
    Retire,
}

impl CommitPhase {
    /// Short label for sweep tables.
    pub fn name(self) -> &'static str {
        match self {
            CommitPhase::Idle => "idle",
            CommitPhase::Mutate => "mutate",
            CommitPhase::FlushStaged => "flush-staged",
            CommitPhase::CommitPoint => "commit-point",
            CommitPhase::Apply => "apply",
            CommitPhase::Retire => "retire",
        }
    }

    /// True once the log is durably committed: a crash here must replay
    /// the block to completion, never roll it back.
    pub fn is_committed(self) -> bool {
        matches!(self, CommitPhase::Apply | CommitPhase::Retire)
    }
}

/// This thread's current [`CommitPhase`].
pub fn commit_phase() -> CommitPhase {
    PHASE.with(|p| p.get())
}

fn set_phase(p: CommitPhase) {
    PHASE.with(|c| c.set(p));
}

/// Current failure-atomic nesting depth of this thread. This is the paper's
/// per-thread counter that every mediated accessor checks (§3.2).
#[inline]
pub fn depth() -> u32 {
    TX_DEPTH.with(|d| d.get())
}

/// Run `f` on the calling thread's active transaction.
fn with_tx<R>(f: impl FnOnce(&mut TxState) -> R) -> R {
    TX.with(|tx| {
        f(tx.borrow_mut()
            .as_mut()
            .expect("depth > 0 implies an active transaction"))
    })
}

/// The staged value of the word at `addr`, if the active block wrote it.
#[inline]
pub(crate) fn overlay_word(addr: u64) -> Option<u64> {
    with_tx(|tx| tx.overlay.get(&addr).copied())
}

/// Patch `out`, the device content of `[addr, addr + out.len())`, with the
/// words the active block staged inside that range.
pub(crate) fn overlay_patch(addr: u64, out: &mut [u8]) {
    let end = addr + out.len() as u64;
    with_tx(|tx| {
        for (&w, &v) in tx.overlay.range(addr & !7..end) {
            let (lo, hi) = (w.max(addr), (w + 8).min(end));
            out[(lo - addr) as usize..(hi - addr) as usize]
                .copy_from_slice(&v.to_le_bytes()[(lo - w) as usize..(hi - w) as usize]);
        }
    });
}

/// Stage a mediated store of `data` at `addr` into the active block's
/// overlay; a partly covered word merges with its staged-or-NVMM value.
/// Returns `false` — nothing staged, the caller stores in place (§4.2) —
/// when the object at `master_addr` was allocated inside this block.
pub(crate) fn overlay_write(rt: &Jnvm, master_addr: u64, addr: u64, data: &[u8]) -> bool {
    let end = addr + data.len() as u64;
    with_tx(|tx| {
        assert!(
            Arc::ptr_eq(&tx.rt, rt),
            "failure-atomic block active on a different runtime"
        );
        if tx.allocated.contains_key(&master_addr) {
            return false;
        }
        for w in (addr & !7..end).step_by(8) {
            let (lo, hi) = (w.max(addr), (w + 8).min(end));
            let mut bytes = [0u8; 8];
            if hi - lo < 8 {
                let old = tx.overlay.get(&w).copied();
                bytes = old.unwrap_or_else(|| rt.pmem().read_u64(w)).to_le_bytes();
            }
            bytes[(lo - w) as usize..(hi - w) as usize]
                .copy_from_slice(&data[(lo - addr) as usize..(hi - addr) as usize]);
            tx.overlay.insert(w, u64::from_le_bytes(bytes));
        }
        true
    })
}

/// Record the allocation of an object of `payload` bytes performed inside
/// the active failure-atomic block: `head` is its (mini-)header, as the
/// allocation stored it (a chain's master) or as the commit will (a
/// slot's), `blocks` the byte addresses of its blocks, master first. The
/// commit will flush and validate it. Returns `false`, recording nothing,
/// outside a block.
pub(crate) fn note_alloc(
    master_addr: u64,
    payload: u64,
    head: BlockHeader,
    blocks: &[u64],
) -> bool {
    if depth() == 0 {
        return false;
    }
    with_tx(|tx| {
        tx.push_entry(entry_head(KIND_ALLOC, master_addr) | u64::from(head.id) << RUN_SHIFT);
        let mut valid = head;
        valid.valid = true;
        let word = tx.valid_words.len();
        tx.valid_words.push(valid.encode());
        let blocks = if blocks.len() > 1 {
            blocks.to_vec()
        } else {
            Vec::new()
        };
        let allocated = Allocated {
            payload,
            word,
            blocks,
        };
        tx.allocated.insert(master_addr, allocated);
    });
    true
}

/// Record that the chain at `master_addr` grew by the blocks at `added`
/// (no-op unless the active block allocated it). A one-block chain's
/// master was its tail, so its header now links the first added block.
/// The whole grown chain is the object's payload from then on: the block
/// may have written anywhere in it.
pub(crate) fn note_extend(master_addr: u64, added: &[u64]) {
    if depth() == 0 {
        return;
    }
    with_tx(|tx| {
        let heap = tx.rt.heap();
        let (Some(a), Some(&first)) = (tx.allocated.get_mut(&master_addr), added.first()) else {
            return;
        };
        if a.blocks.is_empty() {
            let word = &mut tx.valid_words[a.word];
            let mut head = BlockHeader::decode(*word);
            head.next = heap.block_of_addr(first);
            *word = head.encode();
            a.blocks.push(master_addr);
        }
        a.blocks.extend_from_slice(added);
        a.payload = a.blocks.len() as u64 * heap.payload_size();
    });
}

/// The header of the object at `addr` if the failure-atomic block active
/// on this thread allocated it (`None` outside one): its class and links,
/// invalid until the block commits. What a header read returns for such an
/// object, as a field read returns the overlay — a slot's mini-header is
/// not on media before the commit stores it.
pub(crate) fn staged_header(addr: u64) -> Option<BlockHeader> {
    if depth() == 0 {
        return None;
    }
    with_tx(|tx| {
        let a = tx.allocated.get(&addr)?;
        let head = BlockHeader::decode(tx.valid_words[a.word]);
        Some(BlockHeader {
            valid: false,
            ..head
        })
    })
}

/// Record a free inside the active failure-atomic block. Returns `true` if
/// the free was deferred to commit, `false` if no block is active and the
/// caller must free immediately.
pub(crate) fn note_free(addr: u64) -> bool {
    if depth() == 0 {
        return false;
    }
    with_tx(|tx| tx.push_entry(entry_head(KIND_FREE, addr)));
    true
}

/// One decoded redo entry.
#[cfg_attr(test, derive(Debug, PartialEq))]
enum Entry {
    /// Validate the object of class `class` at `addr`.
    Alloc {
        addr: u64,
        class: u16,
    },
    Free(u64),
    /// Store the log bytes `words` (a range into the log's buffer) at `addr`.
    Write {
        addr: u64,
        words: Range<usize>,
    },
}

/// Read a log back: its length word and the entry bytes it describes.
/// Recovery's half — a live commit applies the bytes it stored. The length
/// is not trusted: this reads no further than the chain holds, and
/// [`decode_log`] refuses the rest.
fn read_log(pmem: &jnvm_pmem::Pmem, chain: &RawChain) -> (u64, Vec<u8>) {
    let len = pmem.read_u64(chain.phys(LOG_LEN));
    let held = len.min((chain.capacity() - LOG_ENTRIES) / 8);
    let mut bytes = vec![0u8; (held * 8) as usize];
    chain.read_bytes(pmem, LOG_ENTRIES, &mut bytes);
    (len, bytes)
}

/// Decode the entries of `chain`'s log from `bytes`, its first `len` words
/// of entries — the bytes a live commit has just stored, or what recovery
/// read back. Nothing is trusted: a length the chain cannot hold, an entry
/// running past `len`, an unknown kind, an address outside the heap, an
/// allocation of a class the registry does not know and a write range
/// leaving its block's payload are all [`JnvmError::CorruptLog`] —
/// reported before anything is applied.
fn decode_log(
    rt: &JnvmRuntime,
    chain: &RawChain,
    len: u64,
    bytes: &[u8],
) -> Result<Vec<Entry>, JnvmError> {
    let heap = rt.heap();
    let corrupt = |entry, reason| Err(JnvmError::CorruptLog { entry, reason });
    if len > (chain.capacity() - LOG_ENTRIES) / 8 {
        return corrupt(len, "committed length exceeds the log");
    }
    debug_assert_eq!(bytes.len() as u64, len * 8);
    let word = |i: u64| {
        let at = (i * 8) as usize;
        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("slice of 8"))
    };
    let mut entries = Vec::new();
    let mut i = 0;
    while i < len {
        let head = word(i);
        let (kind, high, addr) = (head & KIND_MASK, head >> RUN_SHIFT, head & ADDR_MASK);
        // An ALLOC's high bits are its class id, not a run of words.
        let n = if kind == KIND_ALLOC { 0 } else { high };
        if n > len - i - 1 {
            return corrupt(head, "entry runs past the committed length");
        }
        let block = heap.block_of_addr(addr);
        if block < heap.data_start() || block >= heap.nblocks() {
            return corrupt(head, "address outside the heap");
        }
        entries.push(match (kind, n) {
            (KIND_ALLOC, _) => {
                let class = high as u16;
                if rt.registry().ops_of_id(class).is_none() {
                    return corrupt(head, "allocation of an unregistered class");
                }
                Entry::Alloc { addr, class }
            }
            (KIND_FREE, 0) => Entry::Free(addr),
            (KIND_WRITE, 1..) => {
                let off = addr - heap.block_addr(block);
                if off < HEADER_BYTES || n * 8 > heap.block_size() - off {
                    return corrupt(head, "write range leaves its block's payload");
                }
                Entry::Write {
                    addr,
                    words: ((i + 1) * 8) as usize..((i + 1 + n) * 8) as usize,
                }
            }
            _ => return corrupt(head, "unknown entry kind"),
        });
        i += 1 + n;
    }
    Ok(entries)
}

/// Steps 3–4 of the commit protocol over the durably committed log `chain`
/// of `len` words, whose entry bytes are `bytes` (see [`decode_log`]): apply
/// its entries, fence, and only then clear the committed flag and queue its
/// write-back. The caller owns the closing fence and declares `retired_fp`
/// (the cleared flag, collected only while the sanitizer is on) behind it.
///
/// A live commit passes `valid_words`, its ALLOC entries' header words with
/// the valid bit set (see [`TxState::valid_words`]), and stores each one;
/// replay passes none, stores a slot's header from the entry's class and
/// flips the bit of a master header it reads — the same words.
///
/// Both invalidate every free here, behind the apply fence. The storage is
/// released later: a live commit (`runtime_commit`) gets back each freed
/// object with its blocks (see [`JnvmRuntime::invalidate_addr`]) and may
/// hand them to the shared allocator only once that closing fence has run.
/// Releasing them earlier is a race: another thread can take such a block
/// and scribble on it while the log is still committed on media — a crash
/// in that window replays the log and re-invalidates the other thread's
/// allocation. After replay (false) the recovery GC rebuilds the free
/// queues.
///
/// The applies must be durable before the flag clears: under partial line
/// eviction a crash could otherwise persist a flag-clear while losing
/// applied data, and — the log no longer being committed — nothing would
/// ever replay the torn block. Hence the fence between the two steps,
/// convicted by the ordering point right behind it.
fn apply_and_retire(
    rt: &Jnvm,
    chain: &RawChain,
    len: u64,
    bytes: &[u8],
    valid_words: &[u64],
    runtime_commit: bool,
    retired_fp: &mut Vec<(u64, u64)>,
) -> Result<Vec<(u64, Vec<u64>)>, JnvmError> {
    let pmem = rt.pmem();
    let collect = pmem.sanitizer_active();
    let mut applied_fp: Vec<(u64, u64)> = Vec::new();
    let mut applied = |addr, len| {
        if collect {
            applied_fp.push((addr, len));
        }
    };
    let mut frees = Vec::new();
    let mut valid_words = valid_words.iter();
    for entry in decode_log(rt, chain, len, bytes)? {
        match entry {
            Entry::Alloc { addr: a, class } => {
                let store = |word: u64| {
                    pmem.write_u64(a, word);
                    pmem.pwb(a);
                };
                match valid_words.next() {
                    Some(&word) => store(word),
                    // Replay: a slot's header is not on media, a master's
                    // is — with its links.
                    None if rt.pools().is_pooled_addr(a) => store(
                        BlockHeader {
                            id: class,
                            valid: true,
                            next: NULL_BLOCK,
                        }
                        .encode(),
                    ),
                    None => rt.set_valid_addr(a, true),
                }
                applied(a, 8);
            }
            Entry::Free(a) => {
                let blocks = rt.invalidate_addr(a);
                if runtime_commit {
                    frees.push((a, blocks));
                }
                applied(a, 8);
            }
            Entry::Write { addr, words } => {
                let len = words.len() as u64;
                pmem.write_bytes(addr, &bytes[words]);
                pmem.pwb_range(addr, len);
                applied(addr, len);
            }
        }
    }
    debug_assert!(valid_words.next().is_none(), "a word per ALLOC entry");
    pmem.pfence();
    let label = if runtime_commit {
        "fa-retire"
    } else {
        "recovery-retire"
    };
    pmem.ordering_point(label, &applied_fp);
    if runtime_commit {
        set_phase(CommitPhase::Retire);
    }
    pmem.write_u64(chain.phys(LOG_COMMITTED), 0);
    pmem.pwb(chain.phys(LOG_COMMITTED));
    if collect {
        retired_fp.push((chain.phys(LOG_COMMITTED), 8));
    }
    Ok(frees)
}

impl JnvmRuntime {
    /// Execute `f` as a failure-atomic block (§4.2): it runs entirely or —
    /// if a crash intervenes — not at all. Nested calls fold into the
    /// outermost block. If `f` panics, the block aborts: in-place state is
    /// untouched, allocations are released.
    ///
    /// # Panics
    ///
    /// Panics if a block from *another* runtime is active on this thread,
    /// or on persistent-heap exhaustion.
    pub fn fa<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        if depth() > 0 {
            // Nested: `f` runs in place, the outermost block commits it.
            with_tx(|tx| {
                assert!(
                    Arc::ptr_eq(&tx.rt, self),
                    "failure-atomic block active on a different runtime"
                )
            });
            return f();
        }
        // A solo block is a commit group of one.
        let (tx, r) = self.fa_stage(f);
        self.fa_commit_group(vec![tx]);
        r
    }

    /// Explicit `faStart()`/`faEnd()` pairs are not exposed; use
    /// [`JnvmRuntime::fa`]. This reports whether the calling thread is
    /// currently inside a failure-atomic block.
    pub fn in_fa(&self) -> bool {
        depth() > 0
    }

    /// Register `undo`, which puts back DRAM state that the active
    /// failure-atomic block changed ahead of its commit (a structure's
    /// volatile index, say): it runs if the block does not reach its
    /// group's durability point — its closure unwinds, its [`StagedTx`]
    /// drops uncommitted, or the commit unwinds before the commit-point
    /// fence —, newest first, and is dropped unrun once that fence has
    /// run. A no-op outside a block, where a change is made on media as it
    /// is made in DRAM.
    pub fn on_abort(&self, undo: impl FnOnce() + Send + 'static) {
        if depth() > 0 {
            with_tx(|tx| tx.undo.0.push(Box::new(undo)));
        }
    }

    /// Execute `f` as a failure-atomic block whose mutations are **staged**
    /// rather than committed: every modification is staged exactly as in
    /// [`JnvmRuntime::fa`] and the block's redo entries are built — in
    /// DRAM: staging touches no log, queues no write-back and issues no
    /// fence (the objects `f` allocates are the only NVMM it writes). The
    /// returned [`StagedTx`] must be handed to
    /// [`JnvmRuntime::fa_commit_group`] (with any number of siblings) to
    /// make the block durable as part of *one* transaction behind one pass
    /// of fences — the group commit of the server write path. Dropping the
    /// handle aborts the block as if `f` had panicked.
    ///
    /// # Footprint discipline
    ///
    /// Staged blocks in one group stage writes independently: a block never
    /// reads a sibling's overlay, and of two blocks writing the **same
    /// word** the last apply wins (lost update). The caller must guarantee
    /// that no block of a group reads or writes what a sibling writes (the
    /// kvstore committer derives this from shard/stripe disjointness);
    /// `fa_commit_group` debug-asserts the write-write half.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread is already inside a failure-atomic
    /// block: staging cannot nest.
    pub fn fa_stage<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> (StagedTx, R) {
        assert_eq!(depth(), 0, "fa_stage cannot nest inside an active failure-atomic block");
        let obs_begin = jnvm_obs::span_begin();
        set_phase(CommitPhase::Mutate);
        TX.with(|tx| {
            *tx.borrow_mut() = Some(TxState {
                rt: Arc::clone(self),
                entries: Vec::new(),
                ops: 0,
                overlay: BTreeMap::new(),
                allocated: BTreeMap::new(),
                valid_words: Vec::new(),
                undo: Undo::default(),
            });
        });
        TX_DEPTH.with(|d| d.set(1));
        struct Guard {
            done: bool,
        }
        impl Drop for Guard {
            fn drop(&mut self) {
                TX_DEPTH.with(|d| d.set(0));
                if !self.done {
                    // `f` unwound: abort the block it was building.
                    if let Some(state) = TX.with(|tx| tx.borrow_mut().take()) {
                        abort_state(state);
                    }
                }
            }
        }
        let mut guard = Guard { done: false };
        let r = f();
        guard.done = true;
        drop(guard);
        let mut state = TX.with(|tx| tx.borrow_mut().take().expect("stage without transaction"));
        state.seal();
        let tx = StagedTx {
            state: Some(state),
            thread: std::thread::current().id(),
        };
        jnvm_obs::span_end(jnvm_obs::SpanKind::FaStage, obs_begin);
        (tx, r)
    }

    /// Commit a group of [staged](JnvmRuntime::fa_stage) failure-atomic
    /// blocks as **one** transaction, in one log, behind one pass of the
    /// §4.2 protocol: the group's entries are stored in a single log and a
    /// single step-1 fence covers them, a single commit-point fence makes
    /// the whole group durable (this is the group's *durability point* — an
    /// acknowledgement released after this call covers every block in the
    /// group, and a crash leaves all of the group or none of it), the
    /// entries are applied behind a single apply fence (the applies must be
    /// durable before the committed flag clears), and a single retire fence
    /// closes the pass. `K` independent commits thus cost 4 fences and one
    /// flag line instead of `4K` and `K`.
    ///
    /// Blocks that staged no mutations are released for free. The order of
    /// `group` is the apply order; footprints must be pairwise disjoint
    /// (see [`JnvmRuntime::fa_stage`]).
    ///
    /// # Panics
    ///
    /// Panics if a staged block came from another thread (the write-backs
    /// its allocations queued would not be covered by this thread's
    /// fences) or from another runtime, and on persistent-heap exhaustion
    /// while growing the log — every block of the group is then aborted.
    pub fn fa_commit_group(self: &Arc<Self>, group: Vec<StagedTx>) {
        let me = std::thread::current().id();
        for tx in &group {
            assert_eq!(
                tx.thread, me,
                "staged block committed from a different thread than staged it \
                 (per-thread persistence domains: the write-backs its \
                 allocations queued are not in this thread's queue)"
            );
            assert!(
                Arc::ptr_eq(&tx.state().rt, self),
                "staged block belongs to a different runtime"
            );
        }
        #[cfg(debug_assertions)]
        {
            let mut seen = std::collections::HashSet::new();
            for word in group.iter().flat_map(|tx| tx.state().overlay.keys()) {
                assert!(
                    seen.insert(*word),
                    "group contains two staged blocks writing word {word:#x}: \
                     footprints must be pairwise disjoint"
                );
            }
        }
        // The group is the transaction: its blocks' entries, in apply
        // order, are the content of one log.
        let bytes = entry_bytes(&group);
        if bytes.is_empty() {
            // Nothing staged, nothing to abort when the handles drop.
            set_phase(CommitPhase::Idle);
            return;
        }
        let words = bytes.len() as u64 / 8;
        let obs_begin = jnvm_obs::span_begin();
        let pmem = self.pmem();
        // 1. Store the entries; write back each of their lines and of the
        // fresh allocations' once (sorted: pooled neighbours share lines,
        // and crash point `i` names the same op on every run); fence.
        set_phase(CommitPhase::FlushStaged);
        let mut log = self.fa_manager().acquire_log(self);
        if let Err(e) = log.reserve(self, words) {
            // The log goes back to the pool first; then heap exhaustion
            // unwinds from here while `group` still owns every block, so
            // each one aborts.
            self.fa_manager().release_log(log);
            panic!("heap exhausted growing redo log: {e}");
        }
        let chain = &log.chain;
        chain.write_bytes(pmem, LOG_ENTRIES, &bytes);
        let mut staged: Vec<(u64, u64)> = Vec::new();
        chain.segments(LOG_ENTRIES, words * 8, |addr, len| staged.push((addr, len)));
        // The group's ALLOC header words, in entry order (a group of one
        // keeps its block's vector). The blocks' DRAM changes stay
        // undoable until the durability point: a crash before it unwinds
        // from here with none of the group on media, and what the group
        // staged must not outlive it in DRAM either — a reader of the
        // crashed replica would find it there.
        let mut valid_words: Vec<u64> = Vec::new();
        let mut undo = Undo::default();
        for mut tx in group {
            let mut state = tx
                .state
                .take()
                .expect("staged state present until commit or drop");
            undo.0.append(&mut state.undo.0);
            state.allocated_ranges(&mut staged);
            if valid_words.is_empty() {
                valid_words = std::mem::take(&mut state.valid_words);
            } else {
                valid_words.extend_from_slice(&state.valid_words);
            }
        }
        let mut lines: Vec<u64> = staged
            .iter()
            .flat_map(|&(addr, len)| addr / CACHE_LINE..=(addr + len - 1) / CACHE_LINE)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        for line in lines {
            pmem.pwb(line * CACHE_LINE);
        }
        pmem.pfence();
        // 2. Commit point of the whole group.
        set_phase(CommitPhase::CommitPoint);
        pmem.write_u64(chain.phys(LOG_LEN), words);
        pmem.write_u64(chain.phys(LOG_COMMITTED), 1);
        // Flag and length are neighbours: one write-back covers both.
        chain.pwb_range(pmem, LOG_COMMITTED, LOG_ENTRIES);
        // ---- the group's durability point ----
        pmem.pfence();
        undo.0.clear();
        // The whole group is durably committed behind the one fence: what
        // step 1 flushed, and the log's flag and length words.
        staged.push((chain.phys(LOG_COMMITTED), LOG_ENTRIES));
        pmem.ordering_point("fa-commit", &staged);
        // 3–4. Apply the entries, fence, clear the flag; then retire the
        // log behind the closing fence. The entries are applied from
        // `bytes` and the allocations validated from `valid_words`: what
        // step 1 stored and what the blocks allocated are never read back.
        set_phase(CommitPhase::Apply);
        let mut retired_fp: Vec<(u64, u64)> = Vec::new();
        let frees = apply_and_retire(
            self,
            chain,
            words,
            &bytes,
            &valid_words,
            true,
            &mut retired_fp,
        )
        .expect("entries staged by this commit are well-formed");
        pmem.pfence();
        pmem.ordering_point("fa-retire", &retired_fp);
        // Only now — the retire is durable, the log cannot replay again —
        // may what this group freed (invalidated in step 3) re-enter the
        // shared allocator.
        for (a, blocks) in frees {
            self.release_addr(a, blocks);
        }
        self.fa_manager().release_log(log);
        jnvm_obs::span_end(jnvm_obs::SpanKind::FaCommitGroup, obs_begin);
        set_phase(CommitPhase::Idle);
    }
}

/// A staged failure-atomic block: mutations staged, logged and queued
/// for write-back, but not yet durable. Produced by
/// [`JnvmRuntime::fa_stage`]; consumed by [`JnvmRuntime::fa_commit_group`].
/// Dropping an uncommitted handle aborts the block.
pub struct StagedTx {
    state: Option<TxState>,
    thread: ThreadId,
}

impl StagedTx {
    fn state(&self) -> &TxState {
        self.state
            .as_ref()
            .expect("staged state present until commit or drop")
    }

    /// Number of log entries the block staged (0 = read-only block).
    pub fn op_count(&self) -> u64 {
        self.state().ops
    }
}

impl Drop for StagedTx {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            abort_state(state);
        }
    }
}

impl std::fmt::Debug for StagedTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagedTx")
            .field("ops", &self.op_count())
            .finish()
    }
}

/// The content of a group's log: its blocks' entries, in apply order.
fn entry_bytes(group: &[StagedTx]) -> Vec<u8> {
    let words = group.iter().flat_map(|tx| &tx.state().entries);
    words.flat_map(|w| w.to_le_bytes()).collect()
}

/// Abort a block from its captured state (shared by a stage whose closure
/// unwound and [`StagedTx`]'s drop).
fn abort_state(state: TxState) {
    // Put back the DRAM state the block changed, newest change first, so
    // each undo finds the state its change left.
    drop(state.undo);
    // Release objects allocated inside the aborted block; its entries
    // never left DRAM.
    for master in state.allocated.keys() {
        state.rt.free_addr_now(*master);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JnvmBuilder;
    use jnvm_heap::HeapConfig;
    use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The committed log `chain` as recovery reads it back: its entry bytes
    /// and what they decode to.
    fn read_back(rt: &Jnvm, chain: &RawChain) -> (Vec<u8>, Vec<Entry>) {
        let (len, bytes) = read_log(rt.pmem(), chain);
        let entries = decode_log(rt, chain, len, &bytes).expect("well-formed log");
        (bytes, entries)
    }

    fn used_slots(rt: &Jnvm) -> u64 {
        let dir = RawChain::open(rt, rt.heap().root_slot(2));
        let cap = rt.pmem().read_u64(dir.phys(0));
        (0..cap)
            .filter(|s| rt.pmem().read_u64(dir.phys(8 + s * 8)) != 0)
            .count() as u64
    }

    /// Regression: the commit used to hand freed masters back to the
    /// volatile allocator during apply, *before* the log's committed flag
    /// was durably cleared. Another thread could then allocate such a
    /// block and scribble on it; a crash in that window replays the
    /// still-committed log over the other thread's allocation (observed in
    /// the concurrent torture harness as torn record fields and
    /// off-by-a-few block accounting).
    ///
    /// Single-threaded, deterministic form of the invariant: at **every**
    /// crash point of a commit, any block referenced by a log that is
    /// still committed on media must be unavailable to the allocator.
    #[test]
    fn commit_never_recycles_blocks_while_log_is_committed_on_media() {
        use jnvm_pmem::{catch_crash, silence_crash_panics, FaultPlan};
        silence_crash_panics();
        let setup = || {
            let pmem = Pmem::new(PmemConfig::crash_sim(2 << 20));
            let rt = JnvmBuilder::new()
                .create(Arc::clone(&pmem), HeapConfig::default())
                .unwrap();
            let x = Proxy::alloc(&rt, CLASS_ID_FALOG, 16);
            x.write_u64(0, 7);
            x.pwb();
            x.validate();
            let y = Proxy::alloc(&rt, CLASS_ID_FALOG, 16);
            y.pwb();
            y.validate();
            pmem.psync();
            (pmem, rt, x, y)
        };
        let workload = |rt: &Jnvm, x: &Proxy, y: &Proxy| {
            rt.fa(|| {
                x.write_u64(0, 99); // a WRITE entry of one word
                rt.free_addr(y.addr()); // KIND_FREE, deferred to commit
            });
        };
        let total = {
            let (pmem, rt, x, y) = setup();
            pmem.arm_faults(FaultPlan::count());
            workload(&rt, &x, &y);
            pmem.disarm_faults()
        };
        assert!(total > 0);
        for point in 0..total {
            let (pmem, rt, x, y) = setup();
            pmem.arm_faults(FaultPlan::crash_at(point));
            let outcome = catch_crash(|| workload(&rt, &x, &y));
            pmem.disarm_faults();
            if outcome.is_ok() {
                continue;
            }
            pmem.resync_cache();
            // Every block the volatile allocator would hand out right now.
            let heap = rt.heap();
            let mut allocatable = HashSet::new();
            while let Ok(b) = heap.alloc_block() {
                allocatable.insert(b);
            }
            // Blocks referenced by logs still committed on the media image.
            let dir = RawChain::open(&rt, rt.heap().root_slot(2));
            let cap = pmem.read_u64(dir.phys(0));
            for slot in 0..cap {
                let log_addr = pmem.read_u64(dir.phys(8 + slot * 8));
                if log_addr == 0 {
                    continue;
                }
                let chain = RawChain::open(&rt, log_addr);
                if pmem.read_u64(chain.phys(LOG_COMMITTED)) != 1 {
                    continue;
                }
                for entry in read_back(&rt, &chain).1 {
                    if let Entry::Free(a) = entry {
                        assert!(
                            !allocatable.contains(&heap.block_of_addr(a)),
                            "crash point {point}: freed master recycled \
                             while its log is still committed on media"
                        );
                    }
                }
            }
        }
    }

    fn stage_setup() -> (Arc<jnvm_pmem::Pmem>, Jnvm, Vec<Proxy>) {
        let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
        let rt = JnvmBuilder::new()
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        let objs: Vec<Proxy> = (0..4)
            .map(|i| {
                let p = Proxy::alloc(&rt, CLASS_ID_FALOG, 16);
                p.write_u64(0, i);
                p.pwb();
                p.validate();
                p
            })
            .collect();
        pmem.psync();
        (pmem, rt, objs)
    }

    /// The first log the directory publishes.
    fn first_log(rt: &Jnvm) -> RawChain {
        let dir = RawChain::open(rt, rt.heap().root_slot(2));
        RawChain::open(rt, rt.pmem().read_u64(dir.phys(8)))
    }

    /// A group of K staged blocks is one transaction in one log: staging
    /// touches no log, the commit takes exactly one, sets one flag and one
    /// length, clears one flag, and costs 4 fences total, not 4K (flush,
    /// commit point, apply — durable before the flag clears —, retire);
    /// every block's effect lands.
    #[test]
    fn group_commits_as_one_transaction_in_one_log() {
        use jnvm_pmem::{FaultOp, FaultPlan};
        let (pmem, rt, objs) = stage_setup();
        let stage = |base: u64| -> Vec<StagedTx> {
            let block =
                |(i, obj): (usize, &Proxy)| rt.fa_stage(|| obj.write_u64(0, base + i as u64)).0;
            objs.iter().enumerate().map(block).collect()
        };
        // The first commit creates the group's log — fresh-log creation
        // pays fences of its own; the second is the steady state.
        let before = pmem.stats();
        let group = stage(50);
        let d = pmem.stats().delta(&before);
        assert_eq!(
            (d.writes, d.pwbs, d.pfences, used_slots(&rt)),
            (0, 0, 0, 0),
            "fa_stage stores, writes back and fences nothing, and takes no log"
        );
        assert!(group.iter().all(|tx| tx.op_count() == 1));
        rt.fa_commit_group(group);
        assert_eq!(used_slots(&rt), 1, "K staged blocks, one log");

        let group = stage(100);
        let before = pmem.stats();
        pmem.arm_faults(FaultPlan::count());
        rt.fa_commit_group(group);
        let trace = pmem.fault_trace();
        pmem.disarm_faults();
        let d = pmem.stats().delta(&before);
        assert_eq!(d.pfences, 4, "K staged blocks share one 4-fence pass");
        assert_eq!(
            (d.reads, d.bytes_read),
            (0, 0),
            "a commit of writes applies from DRAM: it reads neither its log nor anything else"
        );
        assert_eq!(used_slots(&rt), 1, "the one log is reused");
        let log = first_log(&rt);
        let stores = |logical| {
            let to =
                |r: &&jnvm_pmem::TraceRecord| r.op == FaultOp::Write && r.addr == log.phys(logical);
            trace.iter().filter(to).count()
        };
        assert_eq!(stores(LOG_COMMITTED), 2, "one flag set, one flag cleared");
        assert_eq!(stores(LOG_LEN), 1, "one length");
        assert_eq!(pmem.read_u64(log.phys(LOG_LEN)), 2 * objs.len() as u64);
        assert_ne!(
            log.phys(LOG_ENTRIES) / CACHE_LINE,
            log.phys(LOG_LEN) / CACHE_LINE,
            "the flag/length line holds no entry words"
        );
        for (i, obj) in objs.iter().enumerate() {
            assert_eq!(obj.read_u64(0), 100 + i as u64);
        }
    }

    /// Dropping a staged handle aborts the block: masters untouched,
    /// fresh allocations released.
    #[test]
    fn dropped_stage_aborts() {
        let (_pmem, rt, objs) = stage_setup();
        let free_before = rt.heap().stats().blocks_freed;
        {
            let (_tx, _) = rt.fa_stage(|| {
                objs[0].write_u64(0, 999);
                Proxy::alloc(&rt, CLASS_ID_FALOG, 16)
            });
            // _tx dropped here, uncommitted
        }
        assert_eq!(objs[0].read_u64(0), 0, "aborted stage must not apply");
        assert!(
            rt.heap().stats().blocks_freed > free_before,
            "abort releases the fresh allocation"
        );
        // Read-only (empty) stages commit for free.
        let (tx, v) = rt.fa_stage(|| objs[1].read_u64(0));
        assert_eq!(v, 1);
        assert_eq!(tx.op_count(), 0);
        rt.fa_commit_group(vec![tx]);
    }

    /// Crash-point sweep over an entire staged group commit: at every
    /// injected crash point the group must be all-or-nothing — after
    /// replay each object holds either its old or its new value, and all
    /// of them the same one.
    #[test]
    fn group_commit_crash_sweep_is_all_or_nothing() {
        use jnvm_pmem::{catch_crash, silence_crash_panics, FaultPlan};
        silence_crash_panics();
        let workload = |rt: &Jnvm, objs: &[Proxy]| {
            let mut group = Vec::new();
            for (i, obj) in objs.iter().enumerate() {
                let (tx, ()) = rt.fa_stage(|| obj.write_u64(0, 100 + i as u64));
                group.push(tx);
            }
            rt.fa_commit_group(group);
        };
        let total = {
            let (pmem, rt, objs) = stage_setup();
            pmem.arm_faults(FaultPlan::count());
            workload(&rt, &objs);
            pmem.disarm_faults()
        };
        assert!(total > 0);
        for point in 0..total {
            let (pmem, rt, objs) = stage_setup();
            let addrs: Vec<u64> = objs.iter().map(|o| o.addr()).collect();
            pmem.arm_faults(FaultPlan::crash_at(point));
            let outcome = catch_crash(|| workload(&rt, &objs));
            drop(objs);
            drop(rt);
            pmem.disarm_faults();
            if outcome.is_ok() {
                continue;
            }
            let (rt2, _report) = JnvmBuilder::new().open(Arc::clone(&pmem)).unwrap();
            let values: Vec<u64> = addrs
                .iter()
                .map(|a| Proxy::open(&rt2, *a).read_u64(0))
                .collect();
            let mut news = 0;
            for (i, v) in values.iter().enumerate() {
                let old = i as u64;
                let new = 100 + i as u64;
                assert!(
                    *v == old || *v == new,
                    "crash point {point}: object {i} torn ({v})"
                );
                if *v == new {
                    news += 1;
                }
            }
            // The group is one log with one commit point: after it, every
            // block replays; before it, none do.
            assert!(
                news == 0 || news == values.len(),
                "crash point {point}: group split {news}/{} — one log \
                 must make the group all-or-nothing",
                values.len()
            );
        }
    }

    /// A pool image holding one committed, unapplied log — `FREE objs[1]`
    /// then `WRITE objs[0].word0 = 99`, three words — that `damage` (given
    /// the device, the log's chain and the objects' addresses) has edited by
    /// hand; plus those addresses.
    fn committed_image(damage: impl FnOnce(&Pmem, &RawChain, &[u64])) -> (Arc<Pmem>, Vec<u64>) {
        let (pmem, rt, objs) = stage_setup();
        let addrs: Vec<u64> = objs.iter().map(|o| o.addr()).collect();
        let (tx, ()) = rt.fa_stage(|| {
            objs[0].write_u64(0, 99);
            rt.free_addr(objs[1].addr());
        });
        // The first half of the commit, by hand. (Dropping `tx` aborts a
        // block that allocated nothing: a no-op.)
        assert_eq!(
            tx.state().entries,
            [
                addrs[1] | KIND_FREE,
                1 << RUN_SHIFT | (addrs[0] + 8) | KIND_WRITE,
                99
            ]
        );
        let bytes = entry_bytes(std::slice::from_ref(&tx));
        let chain = rt.fa_manager().acquire_log(&rt).chain;
        chain.write_bytes(&pmem, LOG_ENTRIES, &bytes);
        pmem.write_u64(chain.phys(LOG_LEN), 3);
        pmem.write_u64(chain.phys(LOG_COMMITTED), 1);
        damage(&pmem, &chain, &addrs);
        pmem.drain_all();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        (pmem, addrs)
    }

    /// A head's run length is 16 bits: a run of more than `RUN_MAX` words
    /// — possible only with blocks above 512 KiB — is split into two WRITE
    /// entries, and the count never carries into the head's address bits.
    /// The commit decodes both from DRAM and the words land, durably.
    #[test]
    fn a_run_longer_than_a_head_can_count_is_split() {
        let pmem = Pmem::new(PmemConfig::crash_sim(32 << 20));
        let cfg = HeapConfig {
            block_size: 1 << 20,
        };
        let rt = JnvmBuilder::new().create(Arc::clone(&pmem), cfg).unwrap();
        let words = RUN_MAX + 3;
        let obj = Proxy::alloc(&rt, CLASS_ID_FALOG, words * 8);
        obj.pwb();
        obj.validate();
        pmem.psync();
        let first = obj.addr() + HEADER_BYTES;
        let (tx, ()) = rt.fa_stage(|| (0..words).for_each(|i| obj.write_u64(i * 8, i + 1)));
        let entries = &tx.state().entries;
        assert_eq!(tx.op_count(), 2);
        assert_eq!(entries.len() as u64, 2 + words);
        assert_eq!(entries[0], RUN_MAX << RUN_SHIFT | first | KIND_WRITE);
        assert_eq!(
            entries[RUN_MAX as usize + 1],
            3 << RUN_SHIFT | (first + RUN_MAX * 8) | KIND_WRITE
        );
        rt.fa_commit_group(vec![tx]);
        let addr = obj.addr();
        drop(obj);
        drop(rt);
        pmem.crash(&jnvm_pmem::CrashPolicy::strict()).unwrap();
        let (rt2, report) = JnvmBuilder::new().open(Arc::clone(&pmem)).unwrap();
        assert_eq!(report.replayed_logs, 0);
        let obj = Proxy::open(&rt2, addr);
        assert!((0..words).all(|i| obj.read_u64(i * 8) == i + 1));
    }

    /// Replay never trusts a length, an address, a run length or a kind:
    /// each hand-corrupted committed log is refused with a typed error — no
    /// panic, not a word applied — and the undamaged image replays.
    #[test]
    fn replay_refuses_a_damaged_committed_log() {
        fn entry(i: u64) -> u64 {
            LOG_ENTRIES + i * 8
        }
        /// A WRITE head of `n` words at `addr`.
        fn write(n: u64, addr: u64) -> u64 {
            n << RUN_SHIFT | addr | KIND_WRITE
        }
        let (pmem, addrs) = committed_image(|_, _, _| ());
        let (rt, report) = JnvmBuilder::new().open(Arc::clone(&pmem)).unwrap();
        assert_eq!(report.replayed_logs, 1);
        assert_eq!(Proxy::open(&rt, addrs[0]).read_u64(0), 99);
        assert!(!Proxy::open(&rt, addrs[1]).is_valid());

        type Damage = fn(&Pmem, &RawChain, &[u64]);
        let cases: [(&str, Damage); 15] = [
            ("committed length exceeds the log", |p, c, _| {
                p.write_u64(c.phys(LOG_LEN), u64::MAX)
            }),
            // The length cuts the WRITE entry's payload off.
            ("entry runs past the committed length", |p, c, _| {
                p.write_u64(c.phys(LOG_LEN), 2)
            }),
            // The run length passes the committed length.
            ("entry runs past the committed length", |p, c, a| {
                p.write_u64(c.phys(entry(1)), write(2, a[0] + 8))
            }),
            ("entry runs past the committed length", |p, c, a| {
                p.write_u64(c.phys(entry(1)), write(RUN_MAX, a[0] + 8))
            }),
            // Past the end of the pool, and inside the superblock.
            ("address outside the heap", |p, c, _| {
                p.write_u64(c.phys(entry(1)), write(1, p.len()))
            }),
            ("address outside the heap", |p, c, _| {
                p.write_u64(c.phys(entry(0)), 64 | KIND_FREE)
            }),
            // Onto a block's header word.
            ("write range leaves its block's payload", |p, c, a| {
                p.write_u64(c.phys(entry(1)), write(1, a[2]))
            }),
            // Two words from a block's last one, in a log long enough.
            ("write range leaves its block's payload", |p, c, a| {
                p.write_u64(c.phys(entry(1)), write(2, a[2] + 248));
                p.write_u64(c.phys(LOG_LEN), 4)
            }),
            // Kind 0, and the word a retired-and-zeroed log would hold.
            ("unknown entry kind", |p, c, a| {
                p.write_u64(c.phys(entry(0)), a[1])
            }),
            // Kinds 4-7: a set bit 2 is not part of any address.
            ("unknown entry kind", |p, c, a| {
                p.write_u64(c.phys(entry(0)), a[1] | 4 | KIND_FREE)
            }),
            // An allocation or a free carries no words; a write carries some.
            ("unknown entry kind", |p, c, a| {
                p.write_u64(c.phys(entry(0)), 1 << RUN_SHIFT | a[1] | KIND_FREE)
            }),
            ("unknown entry kind", |p, c, a| {
                p.write_u64(c.phys(entry(1)), write(0, a[0] + 8));
                p.write_u64(c.phys(LOG_LEN), 2)
            }),
            // An ALLOC's high bits are a class id: 0, the pool blocks' 1 and
            // an id nothing was registered under are no object's class.
            ("allocation of an unregistered class", |p, c, a| {
                p.write_u64(c.phys(entry(0)), a[1] | KIND_ALLOC)
            }),
            ("allocation of an unregistered class", |p, c, a| {
                p.write_u64(c.phys(entry(0)), 1 << RUN_SHIFT | a[1] | KIND_ALLOC)
            }),
            ("allocation of an unregistered class", |p, c, a| {
                p.write_u64(c.phys(entry(0)), 0x7fff << RUN_SHIFT | a[1] | KIND_ALLOC)
            }),
        ];
        for (reason, damage) in cases {
            let (pmem, addrs) = committed_image(damage);
            let words = |pmem: &Pmem| -> Vec<u64> {
                let object = |a: &u64| [pmem.read_u64(*a), pmem.read_u64(a + 8)];
                addrs.iter().flat_map(object).collect()
            };
            let before = words(&pmem);
            match JnvmBuilder::new().open(Arc::clone(&pmem)) {
                Err(JnvmError::CorruptLog { reason: r, .. }) => assert_eq!(r, reason),
                other => panic!("{reason}: expected CorruptLog, got {:?}", other.map(drop)),
            }
            assert_eq!(words(&pmem), before, "{reason}: a refused log was applied");
        }
        // Every kind the 3 bits can hold besides the three defined.
        for kind in (0..=KIND_MASK).filter(|k| ![KIND_ALLOC, KIND_FREE, KIND_WRITE].contains(k)) {
            let (_pmem, rt, objs) = stage_setup();
            let chain = rt.fa_manager().acquire_log(&rt).chain;
            let bytes = (objs[0].addr() | kind).to_le_bytes();
            match decode_log(&rt, &chain, 1, &bytes) {
                Err(JnvmError::CorruptLog { reason, .. }) => {
                    assert_eq!(reason, "unknown entry kind")
                }
                other => panic!("kind {kind}: {:?}", other.map(drop)),
            }
        }
    }

    /// Four valid objects `[i, ref]` whose second word references a valid
    /// one-word blob, the committer's log created; plus every address a
    /// [`mixed_group`] touches or will allocate (the allocator is
    /// deterministic: the next four fresh blocks).
    fn mixed_setup() -> (Arc<Pmem>, Jnvm, Vec<Proxy>, Vec<u64>) {
        let (pmem, rt, objs) = stage_setup();
        let mut addrs: Vec<u64> = objs.iter().map(|o| o.addr()).collect();
        for obj in &objs {
            let blob = Proxy::alloc(&rt, CLASS_ID_FALOG, 8);
            blob.write_u64(0, 0xB10B);
            blob.pwb();
            blob.validate();
            obj.write_u64(8, blob.addr());
            obj.pwb();
            addrs.push(blob.addr());
        }
        rt.fa(|| objs[0].write_u64(0, 0));
        pmem.psync();
        let heap = rt.heap();
        addrs.extend((0..4).map(|i| heap.block_addr(heap.stats().bump + i)));
        (pmem, rt, objs, addrs)
    }

    /// One group in the three shapes of the server's writes: a field update
    /// (fresh blob, one reference swapped, old blob freed), an insert (a
    /// fresh record of two fresh blobs published in two words of a valid
    /// object) and a delete (a reference cleared, object and blob freed).
    fn mixed_group(rt: &Jnvm, objs: &[Proxy]) -> Vec<StagedTx> {
        let blob = |fill: u64| {
            let blob = Proxy::alloc(rt, CLASS_ID_FALOG, 8);
            blob.write_u64(0, fill);
            blob.addr()
        };
        let setf = rt.fa_stage(|| {
            let old = objs[0].read_u64(8);
            objs[0].write_u64(8, blob(0x5E7F));
            rt.free_addr(old);
        });
        let set = rt.fa_stage(|| {
            let rec = Proxy::alloc(rt, CLASS_ID_FALOG, 16);
            rec.write_u64(0, blob(0x5E70));
            rec.write_u64(8, blob(0x5E71));
            objs[1].write_u64(0, 101);
            objs[1].write_u64(8, rec.addr());
        });
        let del = rt.fa_stage(|| {
            rt.free_addr(objs[3].read_u64(8));
            rt.free_addr(objs[3].addr());
            objs[2].write_u64(0, 102);
        });
        vec![setf.0, set.0, del.0]
    }

    /// `(valid, word 0, word 1)` of each one-block object at `addrs`, zeroes
    /// for what is not a valid object.
    fn mixed_image(rt: &Jnvm, addrs: &[u64]) -> Vec<(bool, u64, u64)> {
        let heap = rt.heap();
        let object = |a: &u64| {
            let valid = heap.read_header(heap.block_of_addr(*a)).is_valid_master();
            let word = |off| {
                if valid {
                    rt.pmem().read_u64(a + off)
                } else {
                    0
                }
            };
            (valid, word(8), word(16))
        };
        addrs.iter().map(object).collect()
    }

    /// Differential, live commit against recovery: the live commit applies
    /// the entries it holds in DRAM and never reads its log, recovery has
    /// only the log. At every crash point of a mixed group's commit past
    /// the commit point, the log on media is byte for byte what the commit
    /// staged and decodes to the same entries — its four ALLOC entries
    /// carrying their class id —, and replaying it converges to the image
    /// the uninterrupted commit leaves, as does a crash after the retire,
    /// frees invalidated; before the commit point, nothing of the group
    /// survives. Strict power failures and 8 adversarial eviction seeds.
    #[test]
    fn media_log_replays_to_what_the_live_commit_applied_from_dram() {
        use jnvm_pmem::{catch_crash, silence_crash_panics, FaultPlan};
        silence_crash_panics();
        let staged = RefCell::new(Vec::new());
        let workload = |rt: &Jnvm, objs: &[Proxy]| {
            let group = mixed_group(rt, objs);
            *staged.borrow_mut() = entry_bytes(&group);
            rt.fa_commit_group(group);
        };
        let settled = |run: bool| {
            let (pmem, rt, objs, addrs) = mixed_setup();
            pmem.arm_faults(FaultPlan::count());
            if run {
                workload(&rt, &objs);
            }
            let total = pmem.disarm_faults();
            drop((objs, rt));
            pmem.crash(&CrashPolicy::strict()).unwrap();
            (mixed_image(&big_reopen(&pmem).0, &addrs), total)
        };
        let ((before, _), (after, total)) = (settled(false), settled(true));
        assert_ne!(before, after);
        assert!(
            after[8..].iter().all(|o| o.0),
            "the fresh objects are valid"
        );
        assert!(
            !after[4].0 && !after[3].0 && !after[7].0,
            "the freed ones are not"
        );

        let policies =
            std::iter::once(CrashPolicy::strict()).chain((0..8).map(CrashPolicy::adversarial));
        let mut compared = 0;
        for (p, policy) in policies.enumerate() {
            for point in 0..total {
                let (pmem, rt, objs, addrs) = mixed_setup();
                pmem.arm_faults(FaultPlan::crash_at(point).with_policy(policy));
                let outcome = catch_crash(|| workload(&rt, &objs));
                pmem.disarm_faults();
                assert!(outcome.is_err(), "crash point {point} not reached");
                let committed = commit_phase().is_committed();
                let log = first_log(&rt);
                let on_media = pmem.read_u64(log.phys(LOG_COMMITTED)) == 1;
                if on_media {
                    let (bytes, entries) = read_back(&rt, &log);
                    let dram = staged.borrow();
                    let applied = decode_log(&rt, &log, dram.len() as u64 / 8, &dram).unwrap();
                    assert_eq!(
                        bytes, *dram,
                        "policy {p}, point {point}: log bytes on media"
                    );
                    assert_eq!(
                        entries, applied,
                        "policy {p}, point {point}: decoded entries"
                    );
                    let allocs = entries.iter().filter(|e| {
                        matches!(
                            e,
                            Entry::Alloc {
                                class: CLASS_ID_FALOG,
                                ..
                            }
                        )
                    });
                    assert_eq!(allocs.count(), 4, "ALLOC entries carry the class id");
                    compared += 1;
                }
                drop((objs, rt));
                let image = mixed_image(&big_reopen(&pmem).0, &addrs);
                if on_media {
                    assert_eq!(image, after, "policy {p}, point {point}: replayed image");
                } else if committed {
                    // Retired: every apply is durable, the invalidation of
                    // what the group freed included.
                    assert_eq!(image, after, "policy {p}, point {point}: retired image");
                } else if p == 0 {
                    assert_eq!(
                        image, before,
                        "point {point}: uncommitted group left a trace"
                    );
                } else {
                    assert!(
                        image == before || image == after,
                        "policy {p}, point {point}: torn"
                    );
                }
            }
        }
        assert!(
            compared as u64 > total / 4,
            "{compared} logs compared over {total} points"
        );
    }

    /// Regression: the recovery report counted as "abandoned" every log
    /// with a clear flag and a non-zero length — which is what retire
    /// leaves behind (it clears the flag only), so every log ever used was
    /// reported. Media cannot tell the two apart; the count is gone, and a
    /// cleanly retired log replays nothing and is pooled again.
    #[test]
    fn a_cleanly_retired_log_is_not_reported_abandoned() {
        let (pmem, rt, objs) = stage_setup();
        rt.fa(|| objs[0].write_u64(0, 5));
        rt.fa(|| objs[1].write_u64(0, 6));
        let log = first_log(&rt);
        let words = |pmem: &Pmem| [LOG_COMMITTED, LOG_LEN].map(|at| pmem.read_u64(log.phys(at)));
        assert_eq!(words(&pmem), [0, 2]);
        drop((objs, rt));
        pmem.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!(words(&pmem), [0, 2], "retire is durable");
        let (rt2, report) = JnvmBuilder::new().open(Arc::clone(&pmem)).unwrap();
        assert_eq!(report.replayed_logs, 0);
        assert!(!format!("{report:?}").contains("abandoned"));
        let fresh = Proxy::alloc(&rt2, CLASS_ID_FALOG, 16);
        fresh.validate();
        rt2.fa(|| fresh.write_u64(0, 1));
        assert_eq!(
            used_slots(&rt2),
            1,
            "the retired log serves the next commit"
        );
    }

    /// Bytes per big object: eight whole blocks of payload, so a block
    /// overwriting one stages 8 × (1 + 31) = 256 words of entries.
    const BIG: u64 = 8 * 248;

    /// Small pool with four valid, zero-filled [`BIG`] objects and the
    /// committer's log created, at its initial size.
    fn big_setup() -> (Arc<Pmem>, Jnvm, Vec<Proxy>) {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let rt = JnvmBuilder::new()
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        let objs: Vec<Proxy> = (0..4)
            .map(|_| {
                let p = Proxy::alloc(&rt, CLASS_ID_FALOG, BIG);
                p.pwb();
                p.validate();
                p
            })
            .collect();
        rt.fa(|| objs[0].write_u64(0, 0));
        pmem.psync();
        (pmem, rt, objs)
    }

    /// Reopen a [`big_setup`] pool. Its objects are valid but unrooted:
    /// the header scan keeps them, the reachability GC would not.
    fn big_reopen(pmem: &Arc<Pmem>) -> (Jnvm, crate::RecoveryReport) {
        let opts = crate::RecoveryOptions::with_mode(crate::RecoveryMode::HeaderScanOnly);
        JnvmBuilder::new()
            .open_with_options(Arc::clone(pmem), opts)
            .unwrap()
    }

    /// One staged block per object, filling it with `fill`.
    fn stage_fills(rt: &Jnvm, objs: &[Proxy], fill: u8) -> Vec<StagedTx> {
        let block = |obj: &Proxy| rt.fa_stage(|| obj.write_bytes(0, &[fill; BIG as usize])).0;
        objs.iter().map(block).collect()
    }

    fn fills(rt: &Jnvm, addrs: &[u64]) -> Vec<Option<u8>> {
        let fill = |addr: &u64| {
            let mut bytes = [0u8; BIG as usize];
            Proxy::open(rt, *addr).read_bytes(0, &mut bytes);
            bytes.iter().all(|b| *b == bytes[0]).then_some(bytes[0])
        };
        addrs.iter().map(fill).collect()
    }

    /// A group whose entries outgrow the log's initial chain extends it
    /// *inside* the commit. Every crash point of that commit (strict
    /// policy) leaves all of the group or none of it, and the log that
    /// recovery pools again — grown, half-grown or not — carries the same
    /// group to completion.
    #[test]
    fn group_outgrowing_its_log_is_all_or_nothing_at_every_crash_point() {
        use jnvm_pmem::{catch_crash, silence_crash_panics, FaultPlan};
        silence_crash_panics();
        let workload = |rt: &Jnvm, objs: &[Proxy]| rt.fa_commit_group(stage_fills(rt, objs, 7));
        let total = {
            let (pmem, rt, objs) = big_setup();
            let before = first_log(&rt).capacity();
            assert_eq!(
                before,
                rt.heap().blocks_for(LOG_ENTRIES + LOG_INIT_WORDS * 8) * 248
            );
            pmem.arm_faults(FaultPlan::count());
            workload(&rt, &objs);
            let total = pmem.disarm_faults();
            let words = 4 * 8 * (1 + 31);
            assert_eq!(pmem.read_u64(first_log(&rt).phys(LOG_LEN)), words);
            assert!(words > LOG_INIT_WORDS && first_log(&rt).capacity() > before);
            total
        };
        let mut outcomes = HashSet::new();
        for point in 0..total {
            let (pmem, rt, objs) = big_setup();
            let addrs: Vec<u64> = objs.iter().map(|o| o.addr()).collect();
            pmem.arm_faults(FaultPlan::crash_at(point));
            let outcome = catch_crash(|| workload(&rt, &objs));
            drop(objs);
            drop(rt);
            pmem.disarm_faults();
            assert!(outcome.is_err(), "crash point {point} not reached");
            let (rt2, _report) = big_reopen(&pmem);
            let seen = fills(&rt2, &addrs);
            assert!(
                seen == [Some(0); 4] || seen == [Some(7); 4],
                "crash point {point}: group torn or split: {seen:?}"
            );
            outcomes.insert(seen[0]);
            let objs2: Vec<Proxy> = addrs.iter().map(|a| Proxy::open(&rt2, *a)).collect();
            rt2.fa_commit_group(stage_fills(&rt2, &objs2, 9));
            assert_eq!(
                fills(&rt2, &addrs),
                [Some(9); 4],
                "crash point {point}: rerun"
            );
        }
        assert_eq!(
            outcomes.len(),
            2,
            "the sweep saw both sides of the commit point"
        );
    }

    /// Growing the group's log can exhaust the heap, mid-commit. Every
    /// block of the group then aborts — fresh allocations released, no
    /// original touched — and no flag is set: nothing replays. The log,
    /// grown part of the way, is back in the pool: once there is space the
    /// same group commits in it and no second log is created.
    #[test]
    fn heap_exhaustion_growing_the_log_aborts_the_whole_group() {
        let (pmem, rt, objs) = big_setup();
        let addrs: Vec<u64> = objs.iter().map(|o| o.addr()).collect();
        // Leave the allocator 3 blocks: one for the group's fresh object,
        // two of the nine the log must grow by.
        let heap = rt.heap();
        let mut drained = Vec::new();
        while let Ok(b) = heap.alloc_block() {
            drained.push(b);
        }
        for b in drained.drain(..3) {
            heap.push_free(b);
        }
        let mut group = stage_fills(&rt, &objs, 7);
        group.push(
            rt.fa_stage(|| Proxy::alloc(&rt, CLASS_ID_FALOG, 16).write_u64(0, 1))
                .0,
        );
        let freed = heap.stats().blocks_freed;
        let commit = std::panic::AssertUnwindSafe(|| rt.fa_commit_group(group));
        jnvm_pmem::silence_crash_panics();
        let hush = jnvm_pmem::hush_panics();
        let panic = std::panic::catch_unwind(commit).expect_err("the heap cannot hold the log");
        drop(hush);
        let message = panic.downcast_ref::<String>().expect("a message");
        assert!(
            message.contains("heap exhausted growing redo log"),
            "{message}"
        );
        assert_eq!(
            heap.stats().blocks_freed,
            freed + 1,
            "the fresh object was released"
        );
        assert_eq!(fills(&rt, &addrs), [Some(0); 4], "an aborted block applied");
        let flag = first_log(&rt).phys(LOG_COMMITTED);
        assert_eq!((pmem.read_u64(flag), pmem.media_read_u64(flag)), (0, 0));

        // Free space and commit the same group again.
        for b in drained {
            heap.push_free(b);
        }
        let cursor = *rt.fa_manager().dir_cursor.lock();
        rt.fa_commit_group(stage_fills(&rt, &objs, 7));
        assert_eq!(fills(&rt, &addrs), [Some(7); 4]);
        assert_eq!(
            (*rt.fa_manager().dir_cursor.lock(), used_slots(&rt)),
            (cursor, 1),
            "the aborted commit leaked its log: a second one was created"
        );
        drop((objs, rt));
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, report) = big_reopen(&pmem);
        assert_eq!(report.replayed_logs, 0);
        assert_eq!(fills(&rt2, &addrs), [Some(7); 4]);
    }

    crate::persistent_class! {
        /// A one-word class: the objects of the properties below.
        pub class Word {
            val word, set_word: i64;
        }
    }

    /// One allocation a staged block of the property below makes.
    #[derive(Debug, Clone)]
    enum Alloc {
        /// A pooled object of this many payload bytes.
        Pooled(u64),
        /// A chain of this many payload bytes: one block or several.
        Chain(u64),
        /// A chain of this many payload bytes grown, inside the block that
        /// allocated it, by this many blocks.
        Grown(u64, u64),
    }

    fn alloc_op() -> impl Strategy<Value = Alloc> {
        prop_oneof![
            (1u64..=232).prop_map(Alloc::Pooled),
            (1u64..800).prop_map(Alloc::Chain),
            ((1u64..600), (1u64..3)).prop_map(|(p, n)| Alloc::Grown(p, n)),
        ]
    }

    /// The step-1 ranges as the commit derived them before it kept each
    /// chain's blocks in DRAM: by walking every allocated chain on media.
    fn walked_ranges(state: &TxState) -> Vec<(u64, u64)> {
        let heap = state.rt.heap();
        let mut out = Vec::new();
        for (&master, a) in &state.allocated {
            if state.rt.pools().is_pooled_addr(master) {
                out.push((master, HEADER_BYTES + a.payload));
                continue;
            }
            let mut left = a.payload.max(1);
            for b in heap.chain_blocks(heap.block_of_addr(master)) {
                let used = left.min(heap.payload_size());
                out.push((heap.block_addr(b), HEADER_BYTES + used));
                left -= used;
            }
        }
        out
    }

    /// The addresses and class ids of a block's ALLOC entries, in entry
    /// order.
    fn alloc_entries(entries: &[u64]) -> Vec<(u64, u16)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < entries.len() {
            let head = entries[i];
            if head & KIND_MASK == KIND_ALLOC {
                out.push((head & ADDR_MASK, (head >> RUN_SHIFT) as u16));
                i += 1;
            } else {
                i += 1 + (head >> RUN_SHIFT) as usize;
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A live commit validates each allocation by storing the header
        /// word its block kept and flushes the ranges its block kept, where
        /// it used to read both back: over random groups of pooled objects,
        /// one- and multi-block chains and chains grown inside their block,
        /// every stored word equals what replay stores — `set_valid`'s
        /// read-modify-write of a master header, a slot's header from the
        /// ALLOC entry's class — and the step-1 ranges from DRAM equal a
        /// `chain_blocks` walk's. Until the commit, a slot's mini-header on
        /// media is the invalid word of its carve, and header reads inside
        /// the block see the staged one.
        #[test]
        fn commit_stores_what_the_read_back_paths_computed(
            group in proptest::collection::vec(proptest::collection::vec(alloc_op(), 0..5), 1..4),
        ) {
            let pmem = Pmem::new(PmemConfig::crash_sim(4 << 20));
            let rt = JnvmBuilder::new()
                .register::<Word>()
                .create(Arc::clone(&pmem), HeapConfig::default())
                .unwrap();
            let id = rt.registry().id_of::<Word>().unwrap();
            let staged: Vec<StagedTx> = group
                .iter()
                .map(|allocs| {
                    rt.fa_stage(|| {
                        for (i, a) in allocs.iter().enumerate() {
                            let fill = i as u64 + 1;
                            match *a {
                                Alloc::Pooled(payload) => {
                                    let p = Proxy::try_alloc_small(&rt, id, payload).unwrap();
                                    p.write_u64(0, fill);
                                    assert_eq!(pmem.read_u64(p.addr()), 0, "a slot's media header");
                                    assert_eq!((p.class_id(), p.is_valid()), (id, false));
                                }
                                Alloc::Chain(payload) => {
                                    Proxy::alloc(&rt, id, payload).write_u64(0, fill);
                                }
                                Alloc::Grown(payload, extra) => {
                                    let mut p = Proxy::alloc(&rt, id, payload);
                                    p.extend(extra).unwrap();
                                    p.write_u64(p.capacity() - 8, fill);
                                }
                            }
                        }
                    })
                    .0
                })
                .collect();
            let mut expected = Vec::new();
            for tx in &staged {
                let state = tx.state();
                let mut dram = Vec::new();
                state.allocated_ranges(&mut dram);
                prop_assert_eq!(dram, walked_ranges(state));
                let masters = alloc_entries(&state.entries);
                let replayed: Vec<u64> = masters
                    .iter()
                    .map(|&(a, class)| {
                        let head = if rt.pools().is_pooled_addr(a) {
                            BlockHeader { id: class, valid: false, next: 0 }
                        } else {
                            BlockHeader::decode(pmem.read_u64(a))
                        };
                        BlockHeader { valid: true, ..head }.encode()
                    })
                    .collect();
                prop_assert_eq!(&state.valid_words, &replayed);
                expected.extend(masters.into_iter().map(|(a, _)| a).zip(replayed));
            }
            rt.fa_commit_group(staged);
            for (master, word) in expected {
                prop_assert_eq!(pmem.read_u64(master), word, "header at {:#x}", master);
                prop_assert!(rt.is_valid_addr(master));
            }
        }
    }

    /// Bytes of the neighbouring slots, which no store may reach.
    const NEIGHBOUR: u8 = 0xEE;

    /// `[lo, hi)`, the payload bytes block `j` of a group of `k` may store
    /// to: a run of whole words, so that no two blocks of a group write one
    /// word (the footprint discipline of `fa_stage`).
    fn share(payload: u64, j: usize, k: usize) -> (u64, u64) {
        let words = payload.div_ceil(8);
        let word = |j: usize| words * j as u64 / k as u64 * 8;
        (word(j), word(j + 1).min(payload))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A pooled object is a chain of one slot to the commit: the same
        /// random staged groups of stores — unaligned byte ranges, each
        /// block reading the whole payload back through the overlay — on a
        /// pooled proxy and on a one-block chained proxy of the same payload
        /// leave the same payload bytes, after the live commit and after
        /// recovery replays the group's log from the media onto the image
        /// from before the group. Every WRITE entry of the pooled object
        /// stays inside its slot, and the slots around it keep their bytes.
        /// A store is `(offset, length, fill)`, reduced to the storing
        /// block's share of the payload.
        #[test]
        fn a_pooled_object_commits_and_replays_like_a_chained_one(
            payload in 8u64..=232,
            groups in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((any::<u64>(), 1u64..40, any::<u8>()), 1..4),
                    1..4,
                ),
                1..4,
            ),
        ) {
            let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
            let mut rt = JnvmBuilder::new()
                .register::<Word>()
                .create(Arc::clone(&pmem), HeapConfig::default())
                .unwrap();
            let id = rt.registry().id_of::<Word>().unwrap();
            // The pooled object between two neighbours of its class, and its
            // chained twin.
            let mut made: Vec<Proxy> = (0..3)
                .map(|_| Proxy::try_alloc_small(&rt, id, payload).unwrap())
                .collect();
            made.push(Proxy::try_alloc(&rt, id, payload).unwrap());
            let slot = made[1].chain().clone();
            prop_assert_eq!((slot.blocks.len(), made[3].block_count()), (1, 1));
            prop_assert!(rt.pools().is_pooled_addr(slot.blocks[0]));
            for (i, p) in made.iter().enumerate() {
                let fill = if i == 0 || i == 2 { NEIGHBOUR } else { 0 };
                p.write_bytes(0, &vec![fill; payload as usize]);
                p.pwb();
                p.validate();
            }
            rt.pmem().pfence();
            let addrs: Vec<u64> = made.iter().map(Proxy::addr).collect();
            let mut model = vec![0u8; payload as usize];
            for stores in groups {
                let objs: Vec<Proxy> = addrs.iter().map(|a| Proxy::open(&rt, *a)).collect();
                let (pooled, chained) = (&objs[1], &objs[3]);
                let before = model.clone();
                let k = stores.len();
                let mut staged = Vec::new();
                for (j, block) in stores.iter().enumerate() {
                    let (lo, hi) = share(payload, j, k);
                    let mut view = before.clone();
                    let (tx, ok) = rt.fa_stage(|| {
                        for &(off, len, fill) in block {
                            if lo == hi {
                                break;
                            }
                            let at = lo + off % (hi - lo);
                            let bytes = vec![fill; len.min(hi - at) as usize];
                            pooled.write_bytes(at, &bytes);
                            chained.write_bytes(at, &bytes);
                            view[at as usize..at as usize + bytes.len()].copy_from_slice(&bytes);
                        }
                        let mut seen = [vec![0u8; payload as usize], vec![0u8; payload as usize]];
                        pooled.read_bytes(0, &mut seen[0]);
                        chained.read_bytes(0, &mut seen[1]);
                        // A share starts on a word: read that word as one, too.
                        let word = |p: &Proxy| p.read_u64(lo).to_le_bytes();
                        let at = lo as usize;
                        seen == [view.clone(), view.clone()]
                            && (lo + 8 > payload
                                || [word(pooled), word(chained)] == [&view[at..at + 8]; 2])
                    });
                    prop_assert!(ok, "block {} of the group reads what it staged", j);
                    model[lo as usize..hi as usize].copy_from_slice(&view[lo as usize..hi as usize]);
                    staged.push(tx);
                }
                rt.fa_commit_group(staged);
                let image = |rt: &Jnvm| -> Vec<Vec<u8>> {
                    let read = |a: &u64| {
                        let mut out = vec![0u8; payload as usize];
                        Proxy::open(rt, *a).read_bytes(0, &mut out);
                        out
                    };
                    addrs.iter().map(read).collect()
                };
                let neighbour = vec![NEIGHBOUR; payload as usize];
                let want = vec![neighbour.clone(), model.clone(), neighbour, model.clone()];
                prop_assert_eq!(&image(&rt), &want, "after the live commit");

                // The log on media: every WRITE entry inside its object.
                let log = first_log(&rt);
                for entry in read_back(&rt, &log).1 {
                    if let Entry::Write { addr, words } = entry {
                        let end = addr + words.len() as u64;
                        let inside = |(first, cap): (u64, u64)| first + 8 <= addr && end <= first + 8 + cap;
                        prop_assert!(
                            inside((slot.blocks[0], slot.payload)) || inside((addrs[3], rt.heap().payload_size())),
                            "WRITE [{:#x}, {:#x}) leaves its object", addr, end
                        );
                    }
                }
                // Put the image from before the group back, commit the log
                // again on media, and let recovery replay it.
                for p in [pooled, chained] {
                    p.chain().write_bytes(&pmem, 0, &before);
                    p.chain().pwb_range(&pmem, 0, payload);
                }
                pmem.write_u64(log.phys(LOG_COMMITTED), 1);
                pmem.pwb(log.phys(LOG_COMMITTED));
                pmem.pfence();
                drop(objs);
                drop(rt);
                pmem.crash(&CrashPolicy::strict()).unwrap();
                let opts = crate::RecoveryOptions::with_mode(crate::RecoveryMode::HeaderScanOnly);
                let (reopened, report) = JnvmBuilder::new()
                    .register::<Word>()
                    .open_with_options(Arc::clone(&pmem), opts)
                    .unwrap();
                prop_assert_eq!(report.replayed_logs, 1);
                prop_assert_eq!(&image(&reopened), &want, "after replay");
                rt = reopened;
            }
        }
    }

    #[test]
    fn log_directory_grows_past_initial_capacity() {
        let pmem = Pmem::new(PmemConfig::crash_sim(16 << 20));
        let rt = JnvmBuilder::new()
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        let fam = rt.fa_manager();
        let want = DIR_CAPACITY + 8;
        // Acquire more logs than the directory's initial capacity without
        // releasing any — the 65th acquisition used to panic ("directory
        // full: too many threads").
        let logs: Vec<LogHandle> = (0..want).map(|_| fam.acquire_log(&rt)).collect();
        let addrs: HashSet<u64> = logs.iter().map(|l| l.addr()).collect();
        assert_eq!(addrs.len() as u64, want, "every log published at a distinct address");
        let dir = RawChain::open(&rt, rt.heap().root_slot(2));
        assert_eq!(pmem.read_u64(dir.phys(0)), DIR_CAPACITY * 2, "capacity doubled");
        assert_eq!(used_slots(&rt), want);
        for log in logs {
            fam.release_log(log);
        }
        // The grown directory survives recovery: every published log is
        // found and pooled again.
        pmem.drain_all();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        drop(rt);
        let (rt2, _report) = JnvmBuilder::new().open(Arc::clone(&pmem)).unwrap();
        let fam2 = rt2.fa_manager();
        assert_eq!(used_slots(&rt2), want);
        // Acquiring that many again drains the recovered pool: no new
        // logs are created, no directory slots consumed.
        let logs2: Vec<LogHandle> = (0..want).map(|_| fam2.acquire_log(&rt2)).collect();
        assert_eq!(used_slots(&rt2), want, "recovery must repopulate the log pool");
        for log in logs2 {
            fam2.release_log(log);
        }
    }
}
