//! Heap allocations per completed URB on the sharded storage path.
//!
//! The ixy lesson this repo keeps relearning is that a safe-language
//! driver stack loses to per-item allocation, not to the language. This
//! test pins the number: a `tar` to and from four flash LUNs over the
//! 4-shard URB path may allocate at most [`BUDGET`] times per completed
//! data URB, so a refactor that quietly re-adds a `Vec` per URB fails
//! here instead of showing up as a slower benchmark later.
//!
//! The count comes from a counting `#[global_allocator]` — the one
//! `unsafe impl` in the tree. It lives in this test crate (every
//! integration test file is a crate of its own), so the
//! `#![forbid(unsafe_code)]` of every product crate is untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use decaf_core::drivers::{uhci, workloads};
use decaf_core::simkernel::Kernel;

/// Allocations per completed data URB the storage path may spend. The
/// count is deterministic (virtual time, no threads): 24.55 before the
/// chain store, the borrowed device reads and the sized command buffer,
/// 9.55 with them (3,667 over 384 URBs) — the bound is that plus one.
const BUDGET: f64 = 10.55;

thread_local! {
    /// Allocations made by this thread while it is counting — per
    /// thread, so the test harness's own threads never leak in.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds (`try_with` covers thread teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(Some(0)));
    let out = f();
    let allocs = ALLOCS.with(|n| n.take()).expect("counting was on");
    (out, allocs)
}

#[test]
fn storage_path_stays_inside_its_allocation_budget() {
    const LUNS: u32 = 4;
    const FILES: u32 = 2;
    const SECTORS: u32 = 24;
    let kernel = Kernel::new();
    let drv = uhci::install_sharded(&kernel, "uhci0", 4).unwrap();
    let ((wrote, read), allocs) = counted(|| {
        let wrote = workloads::tar_to_flash_luns(&kernel, "uhci0", LUNS, FILES, SECTORS).unwrap();
        let read = workloads::tar_from_flash_luns(&kernel, "uhci0", LUNS, FILES, SECTORS).unwrap();
        (wrote, read)
    });

    let urbs = wrote.ops + read.ops;
    assert_eq!(
        urbs,
        2 * (LUNS * FILES * SECTORS) as u64,
        "every URB completed"
    );
    assert_eq!(kernel.stats().bytes_copied, 0, "still zero-copy");
    assert!(drv.urb_path.set().pool().conserved());
    let per_urb = allocs as f64 / urbs as f64;
    println!("{allocs} allocations / {urbs} URBs = {per_urb:.2} per URB");
    assert!(
        per_urb <= BUDGET,
        "{per_urb:.2} heap allocations per completed URB, budget {BUDGET}"
    );
}
