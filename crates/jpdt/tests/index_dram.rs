//! The DRAM a hash map keeps per key, pinned with a counting global
//! allocator: J-NVM keeps the data off-heap, so what a `PStringHashMap`
//! holds in DRAM is its volatile index alone (§4.3.2).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use jnvm::{JnvmBuilder, PObject as _};
use jnvm_heap::HeapConfig;
use jnvm_jpdt::{register_jpdt, PBytes, PStringHashMap};
use jnvm_pmem::{Pmem, PmemConfig};

/// The system allocator, counting the bytes it has handed out and not
/// taken back.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

const KEYS: usize = 35_500;
const MAPS: usize = 16;

/// 35 500 `user%012d` keys over 16 maps, as the benchmark's keys spread
/// over a server's shards: at most 64 B of live heap per key — index,
/// cell records and key bytes — and at most 80 B per live key once every
/// fifth key is removed (a removal frees no cell and shrinks no table).
#[test]
fn a_hash_map_keeps_at_most_64_bytes_of_dram_per_key() {
    let pmem = Pmem::new(PmemConfig::perf(64 << 20));
    let rt = register_jpdt(JnvmBuilder::new())
        .create(pmem, HeapConfig::default())
        .unwrap();
    let value = PBytes::new(&rt, &[7; 64]).unwrap().addr();
    let key = |i: usize| format!("user{i:012}");

    let before = live();
    let maps: Vec<PStringHashMap> = (0..MAPS)
        .map(|_| PStringHashMap::new(&rt).unwrap())
        .collect();
    for i in 0..KEYS {
        maps[i % MAPS].put(key(i), value).unwrap();
    }
    let per_key = (live() - before) as f64 / KEYS as f64;

    for i in (0..KEYS).step_by(5) {
        assert_eq!(maps[i % MAPS].remove(&key(i)), Some(value));
    }
    let left = KEYS - KEYS.div_ceil(5);
    let per_live_key = (live() - before) as f64 / left as f64;

    println!("dram per key: {per_key:.1} B full, {per_live_key:.1} B after removing a fifth");
    assert_eq!(maps.iter().map(|m| m.len()).sum::<usize>(), left);
    assert!(per_key <= 64.0, "{per_key:.1} B of DRAM per key");
    assert!(
        per_live_key <= 80.0,
        "{per_live_key:.1} B of DRAM per live key"
    );
}
