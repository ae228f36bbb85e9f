//! The memory plan of the partitioner's helper threads: a helper draws
//! its buffers from the pool the calling thread lends it, so threads other
//! than the caller allocate next to nothing. Memory a helper allocated
//! itself would stay in its allocator arena after it exits.
//!
//! One test per binary: the counting allocator sees every thread of the
//! process, and another test running beside this one would count as a
//! helper.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use s2d_gen::fem::fem_like;
use s2d_hypergraph::models::column_net_model;
use s2d_hypergraph::{partition_kway, PartitionConfig};

/// Counts the bytes allocated while `ON`, split by whether the calling
/// thread is the one that set `CALLER`, and the frees by other threads.
struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLER_BYTES: AtomicU64 = AtomicU64::new(0);
static OTHER_BYTES: AtomicU64 = AtomicU64::new(0);
static OTHER_FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if ON.load(Relaxed) {
        let counter = if CALLER.with(Cell::get) { &CALLER_BYTES } else { &OTHER_BYTES };
        counter.fetch_add(bytes as u64, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) && !CALLER.with(Cell::get) {
            OTHER_FREES.fetch_add(1, Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn helpers_allocate_under_two_percent_of_what_the_caller_does() {
    let hg = column_net_model(&fem_like(1 << 13, 27.0, 27, 5), true);
    CALLER.with(|c| c.set(true));
    ON.store(true, Relaxed);
    let parts = partition_kway(&hg, 64, &PartitionConfig::default()).parts;
    ON.store(false, Relaxed);
    assert_eq!(parts.len(), hg.nvtx());

    let (caller, other) = (CALLER_BYTES.load(Relaxed), OTHER_BYTES.load(Relaxed));
    eprintln!("caller allocated {caller} B, other threads {other} B");
    assert!(other * 50 < caller, "helpers allocated {other} B against the caller's {caller} B");
    // With two cores a helper runs, and frees the lent pool when done.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        assert!(OTHER_FREES.load(Relaxed) > 0, "no helper ran");
    }
}
