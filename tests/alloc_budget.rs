//! Heap allocations per completed URB on the sharded storage path, per
//! packet sent on the sharded NIC path and per packet received in poll
//! mode.
//!
//! The ixy lesson this repo keeps relearning is that a safe-language
//! driver stack loses to per-item allocation, not to the language. These
//! tests pin the numbers: a `tar` to and from four flash LUNs over the
//! 4-shard URB path may allocate at most [`BUDGET`] times per completed
//! data URB, a paced netperf send over the 4-shard e1000 at most
//! [`SEND_BUDGET`] times per packet and a poll-mode receive at most
//! [`RECV_BUDGET`], so a refactor that quietly re-adds a `Vec` per item
//! fails here instead of showing up as a slower benchmark later.
//!
//! The count comes from a counting `#[global_allocator]` — the one
//! `unsafe impl` in the tree. It lives in this test crate (every
//! integration test file is a crate of its own), so the
//! `#![forbid(unsafe_code)]` of every product crate is untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use decaf_core::drivers::{e1000, uhci, workloads};
use decaf_core::simkernel::{costs, Kernel};

/// Allocations per completed data URB the storage path may spend. The
/// count is deterministic (virtual time, no threads): 24.55 before the
/// chain store, the borrowed device reads and the sized command buffer,
/// 9.55 with them (3,667 over 384 URBs) — the bound is that plus one
/// (8.82 since the doorbell crossing stopped allocating).
const BUDGET: f64 = 10.55;

/// Allocations per packet sent over the 4-shard zero-copy e1000 TX path
/// (each packet also comes back through the loopback RX path): 29.27
/// (351,181 over 12,000 packets) before doorbells became resolved,
/// allocation-free crossings and ring drains filled reused batches, 5.51
/// (66,073) with them — the stack's skb, the received skb and the 3.5
/// boxed work items. The bound is that plus one.
const SEND_BUDGET: f64 = 6.51;

/// Allocations per packet received through the 50 µs poll grid: 6.25
/// (300,024 over 48,000 packets) before, 2.25 (108,033) with the drains
/// filling reused batches and the device reusing its frame buffers — the
/// received skb and the 1.25 boxed work items. The bound is that plus one.
const RECV_BUDGET: f64 = 3.25;

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

#[test]
fn sharded_send_path_stays_inside_its_allocation_budget() {
    const PPS: u32 = 4_000;
    let kernel = Kernel::new();
    let drv = e1000::decaf::install_sharded(&kernel, "eth0", 4).unwrap();
    kernel.netdev_open("eth0").unwrap();
    kernel.schedule_point();
    let (sent, allocs) = counted(|| {
        let sent: u64 = [64, 512, 1500]
            .into_iter()
            .map(|len| {
                workloads::netperf_send(&kernel, "eth0", 1, PPS, len)
                    .unwrap()
                    .ops
            })
            .sum();
        // Settling is part of sending: coalesced doorbells flush, parked
        // crossings launch and are harvested.
        kernel.run_for(4 * costs::DOORBELL_COALESCE_NS);
        drv.channels.flush_all(&kernel).unwrap();
        drv.channels.harvest_all(&kernel);
        sent
    });

    assert_eq!(sent, 3 * PPS as u64);
    let net = kernel.net_stats("eth0");
    assert_eq!(
        (net.tx_packets, net.rx_packets, net.tx_errors),
        (sent, sent, 0)
    );
    assert!(drv.tx_set.conserved() && drv.rx_set.conserved());
    assert_eq!((drv.tx_set.in_flight(), drv.rx_set.in_flight()), (0, 0));
    let s = drv.channels.stats();
    assert_eq!(s.tokens_issued, s.tokens_harvested + s.tokens_cancelled);
    assert_eq!(drv.channels.tokens_outstanding(), 0);
    assert!(kernel.violations().is_empty(), "{:?}", kernel.violations());
    let per_packet = allocs as f64 / sent as f64;
    println!("{allocs} allocations / {sent} packets sent = {per_packet:.2} per packet");
    assert!(
        per_packet <= SEND_BUDGET,
        "{per_packet:.2} heap allocations per sent packet, budget {SEND_BUDGET}"
    );
}

#[test]
fn poll_receive_path_stays_inside_its_allocation_budget() {
    const PPS: u32 = 16_000;
    let kernel = Kernel::new();
    let drv = e1000::decaf::install_shmring_poll(&kernel, "eth0").unwrap();
    kernel.netdev_open("eth0").unwrap();
    kernel.schedule_point();
    let doorbells_before = drv.channel.stats().doorbells;
    let ((), allocs) = counted(|| {
        let inject = |k: &Kernel, frame: &[u8]| drv.dev.borrow_mut().inject_rx(k, frame);
        for len in [64, 512, 1500] {
            workloads::netperf_recv(&kernel, "eth0", 1, PPS, len, &inject).unwrap();
        }
        // The last frame waits in the RX ring for the next probe.
        kernel.run_for(decaf_core::drivers::support::RX_POLL_TICK_NS);
    });

    let received = kernel.net_stats("eth0").rx_packets;
    assert_eq!(received, 3 * PPS as u64, "every injected frame delivered");
    assert_eq!(drv.channel.stats().doorbells, doorbells_before);
    assert_eq!(drv.rx_path.as_ref().unwrap().pending(), 0);
    assert!(kernel.violations().is_empty(), "{:?}", kernel.violations());
    let per_packet = allocs as f64 / received as f64;
    println!("{allocs} allocations / {received} packets received = {per_packet:.2} per packet");
    assert!(
        per_packet <= RECV_BUDGET,
        "{per_packet:.2} heap allocations per received packet, budget {RECV_BUDGET}"
    );
}
