//! Heap allocations per completed URB on the sharded storage path, per
//! packet sent on the sharded NIC path and on the 8139's one-shard ring
//! build, per packet received in poll mode, per driver load, per
//! object-carrying XPC call, per regeneration of Table 3 and per instant
//! on a metrics-only tracer.
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
use std::rc::Rc;

use decaf_core::drivers::{e1000, ens1371, psmouse, rtl8139, uhci, workloads};
use decaf_core::drivers::{install, Build, DriverKind, Hosting, Loaded};
use decaf_core::experiments;
use decaf_core::simkernel::{costs, Kernel};
use decaf_core::xdr::mask::MaskSet;
use decaf_core::xdr::{XdrSpec, XdrValue};
use decaf_core::xpc::{ChannelConfig, Domain, ProcDef, XpcChannel};

/// Allocations per completed data URB the storage path may spend. The
/// count is deterministic (virtual time, no threads): 24.55 before the
/// chain store, the borrowed device reads and the sized command buffer,
/// 9.55 with them (3,667 over 384 URBs), 8.82 once the doorbell crossing
/// stopped allocating, 8.76 (3,363) with the coalescing tick's work
/// queued by handle, 4.17 (1,603) with the sector pool's run and
/// chain maps, the pending-URB map and the flash store turned into slabs
/// and the reclaim batch kept, and 3.68 (1,412) with one no-op completion
/// shared by every stage command of the read — what is left is the
/// workload's own command `Vec`s and data-URB completion closures and
/// each IN URB's data. The bound is that plus one.
const BUDGET: f64 = 4.68;

/// Allocations per packet sent over the 4-shard zero-copy e1000 TX path
/// (each packet also comes back through the loopback RX path): 29.27
/// (351,181 over 12,000 packets) before doorbells became resolved,
/// allocation-free crossings and ring drains filled reused batches, 5.51
/// (66,073) with them — the stack's skb, the received skb and the 3.5
/// boxed work items — and 0.00 (59: scratch growing to its working size)
/// with the skb drawn from the kernel's free list, the received frame
/// lent to `netif_rx` and the recurring work items queued by handle. The
/// bound is that plus one.
const SEND_BUDGET: f64 = 1.0;

/// Allocations per packet sent over the 8139's ring build — the
/// one-shard instance of the glue the e1000 runs on four shards, each
/// packet looped back through the byte-packed RX ring: 0.00 (19 over
/// 6,000 packets: scratch growing to its working size), like the
/// e1000's. The bound is that plus one.
const RTL_SEND_BUDGET: f64 = 1.0;

/// Allocations per packet received through the 50 µs poll grid: 6.25
/// (300,024 over 48,000 packets) before, 2.25 (108,033) with the drains
/// filling reused batches and the device reusing its frame buffers — the
/// received skb and the 1.25 boxed work items — and 0.00 (15) with the
/// frame lent and the poll task queued by handle. The bound is that plus
/// one.
const RECV_BUDGET: f64 = 1.0;

/// Allocations per driver load over the `ctl_init` loop (a fresh machine,
/// the five decaf installs, both NICs opened, 2 virtual s idle, removed):
/// 180.8 (18,080 over 100 loads) while every crossing interpreted the
/// spec by name — a field-name `String` per field of every default
/// object, a masked-field `Vec` per object per crossing, a `String` per
/// tracker look-up, a name and a type list per registered procedure —
/// 103.2 (10,320) with marshaling compiled into the image, objects
/// holding a shared layout and stubs holding the image's names (102.2
/// since PR 22), and 73.6 (7,360) with registration and calls by handle —
/// a registered procedure is its handler alone (slots inline, argument
/// types resolved once per image, tables sized from the image), no call
/// searches a name, and the e1000 updates its embedded `hw` struct in
/// place instead of cloning it. The bound is that plus one.
const LOAD_BUDGET: f64 = 74.6;

/// Allocations per synchronous call carrying two objects (an adapter and
/// the ring it points at) over an in-proc channel, both directions
/// marshaled in full: 26 by name, 4.00 compiled — the wire, the walk's
/// tables and the argument list are channel-owned scratch; what is left
/// is the four decoded byte strings themselves (`mac` and `pad`, each
/// way). The bound is that plus one.
const CALL_BUDGET: f64 = 5.0;

/// Allocations per `experiments::table3()` call — 68,000 packets on
/// kernel-resident data paths (native and decaf builds of both NICs)
/// plus the sound, storage and mouse rows, fourteen driver loads in all:
/// 194,934 (2.9 per packet: a `Vec` for the sent skb, one per received
/// frame, one for the simulated 8139's TX fetch, a box per recurring
/// work item, a `Vec` per 8139 harvest) before packets had an owner,
/// 2,957 with them pooled, lent and queued by handle — what is left is
/// the loads (3,000 since the 8139's ring load builds two ring sets like
/// the e1000's, 2,990 since both directions build through one sharded
/// ring path, 2,988 with the flash store a dense table, 2,654 with
/// registration and calls by handle). The bound is 2,654 plus 5 %.
const TABLE3_BUDGET: u64 = 2_787;

/// Bytes freshly allocated per `experiments::table3()` call: 165 MB
/// (two 1,500-byte `Vec`s a packet) before, 1.01 MB with
/// the packets pooled and lent. Growth of a buffer in place (`realloc`:
/// the DMA regions materialising a page at a time, 2.4 MB a call on both
/// sides) counts as an allocation but not here.
const TABLE3_BYTES_BUDGET: u64 = 2_000_000;

thread_local! {
    /// Allocations made by this thread while it is counting, and the
    /// bytes its fresh allocations asked for — per thread, so the test
    /// harness's own threads never leak in.
    static ALLOCS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds (`try_with` covers thread teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size() as u64;
        let _ = ALLOCS.try_with(|n| n.set(n.get().map(|(n, b)| (n + 1, b + size))));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get().map(|(n, b)| (n + 1, b))));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made and the
/// bytes the fresh ones asked for.
fn counted_with_bytes<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCS.with(|n| n.set(Some((0, 0))));
    let out = f();
    let (allocs, bytes) = ALLOCS.with(|n| n.take()).expect("counting was on");
    (out, allocs, bytes)
}

/// Runs `f` and returns its result with the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (out, allocs, _) = counted_with_bytes(f);
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
fn rtl8139_ring_send_path_stays_inside_its_allocation_budget() {
    const PPS: u32 = 2_000;
    let kernel = Kernel::new();
    let build = Build::new(DriverKind::Rtl8139, Hosting::Shmring);
    let Ok(Loaded::Ring(drv)) = install(&kernel, "eth1", build) else {
        panic!("the 8139 ring build installs");
    };
    kernel.netdev_open("eth1").unwrap();
    kernel.schedule_point();
    let (sent, allocs) = counted(|| {
        let sent: u64 = [64, 512, 1500]
            .into_iter()
            .map(|len| {
                workloads::netperf_send(&kernel, "eth1", 1, PPS, len)
                    .unwrap()
                    .ops
            })
            .sum();
        kernel.run_for(4 * costs::DOORBELL_COALESCE_NS);
        sent
    });

    assert_eq!(sent, 3 * PPS as u64);
    let net = kernel.net_stats("eth1");
    assert_eq!(
        (net.tx_packets, net.rx_packets, net.tx_errors),
        (sent, sent, 0)
    );
    let (tx_set, rx_set) = (&drv.tx_set, &drv.rx_set);
    assert!(tx_set.conserved() && rx_set.conserved());
    assert_eq!((tx_set.in_flight(), rx_set.in_flight()), (0, 0));
    assert!(kernel.violations().is_empty(), "{:?}", kernel.violations());
    let per_packet = allocs as f64 / sent as f64;
    println!("{allocs} allocations / {sent} packets sent = {per_packet:.2} per packet");
    assert!(
        per_packet <= RTL_SEND_BUDGET,
        "{per_packet:.2} heap allocations per sent packet, budget {RTL_SEND_BUDGET}"
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

#[test]
fn table3_stays_inside_its_allocation_budget() {
    // The first call of a process builds the five driver images.
    let warm = experiments::table3();
    let (rows, allocs, bytes) = counted_with_bytes(experiments::table3);
    assert_eq!(rows.len(), warm.len());
    for (row, first) in rows.iter().zip(&warm) {
        assert_eq!(
            (row.driver, row.workload, row.relative_perf.to_bits()),
            (first.driver, first.workload, first.relative_perf.to_bits()),
            "the counted call regenerated the same table"
        );
    }
    println!("{allocs} allocations, {bytes} fresh bytes / table3() call");
    assert!(
        allocs <= TABLE3_BUDGET,
        "{allocs} heap allocations per table3() call, budget {TABLE3_BUDGET}"
    );
    assert!(
        bytes <= TABLE3_BYTES_BUDGET,
        "{bytes} bytes allocated per table3() call, budget {TABLE3_BYTES_BUDGET}"
    );
}

/// One machine's life, as the `ctl_init` benchmark workload lives it.
fn load_five() {
    let k = Kernel::new();
    let e = e1000::decaf::install(&k, "eth0").unwrap();
    let r = rtl8139::install_decaf(&k, "eth1").unwrap();
    let s = ens1371::install_decaf(&k, "card0").unwrap();
    let u = uhci::install_decaf(&k, "uhci0").unwrap();
    let m = psmouse::install_decaf(&k, "mouse0").unwrap();
    k.netdev_open("eth0").unwrap();
    k.netdev_open("eth1").unwrap();
    k.schedule_point();
    k.run_for(2_000_000_000);
    assert!(e.crossings() > 0 && r.crossings() > 0 && u.crossings() > 0);
    assert!(k.violations().is_empty(), "{:?}", k.violations());
    e.remove();
    r.remove();
    drop((s, u, m));
}

/// [`load_five`] with every driver loaded through the build table
/// ([`install`]) instead of its typed installer.
fn load_five_through_the_table() {
    let k = Kernel::new();
    let name = |driver| match driver {
        DriverKind::E1000 => "eth0",
        DriverKind::Rtl8139 => "eth1",
        DriverKind::Ens1371 => "card0",
        DriverKind::UhciHcd => "uhci0",
        DriverKind::Psmouse => "mouse0",
    };
    // In `load_five`'s order; an array, so the erased handles live on
    // the stack as the typed ones do.
    let [e, r, s, u, m] = [
        DriverKind::E1000,
        DriverKind::Rtl8139,
        DriverKind::Ens1371,
        DriverKind::UhciHcd,
        DriverKind::Psmouse,
    ]
    .map(|driver| install(&k, name(driver), Build::new(driver, Hosting::Decaf)).unwrap());
    k.netdev_open("eth0").unwrap();
    k.netdev_open("eth1").unwrap();
    k.schedule_point();
    k.run_for(2_000_000_000);
    let crossings = |d: &Loaded| match d {
        Loaded::Split(d) => d.crossings(),
        _ => panic!("{}: a decaf build is a split", d.name()),
    };
    assert!(crossings(&e) > 0 && crossings(&r) > 0 && crossings(&u) > 0);
    assert!(k.violations().is_empty(), "{:?}", k.violations());
    e.remove();
    r.remove();
    drop((s, u, m));
}

#[test]
fn driver_load_stays_inside_its_allocation_budget() {
    const MACHINES: u64 = 20;
    // The first load of a process builds the five images; not counted.
    load_five();
    let ((), allocs) = counted(|| (0..MACHINES).for_each(|_| load_five()));
    let per_load = allocs as f64 / (5 * MACHINES) as f64;
    println!(
        "{allocs} allocations / {} driver loads = {per_load:.1} per load",
        5 * MACHINES
    );
    assert!(
        per_load <= LOAD_BUDGET,
        "{per_load:.1} heap allocations per driver load, budget {LOAD_BUDGET}"
    );
}

/// The build table erases each handle's hardware and device types
/// (`Rc<H>` → `Rc<dyn Any>`): a coercion, not a copy. The same
/// machines loaded through [`install`] allocate exactly what the typed
/// installers do, inside the same per-load budget.
#[test]
fn loading_through_the_build_table_allocates_what_the_typed_installers_do() {
    const MACHINES: u64 = 20;
    load_five();
    load_five_through_the_table();
    let ((), typed) = counted(|| (0..MACHINES).for_each(|_| load_five()));
    let ((), table) = counted(|| (0..MACHINES).for_each(|_| load_five_through_the_table()));
    let per_load = table as f64 / (5 * MACHINES) as f64;
    println!(
        "{typed} allocations typed, {table} through the table / {} driver loads",
        5 * MACHINES
    );
    assert_eq!(table, typed, "erasing a handle allocates");
    assert!(
        per_load <= LOAD_BUDGET,
        "{per_load:.1} heap allocations per driver load, budget {LOAD_BUDGET}"
    );
}

#[test]
fn two_object_call_stays_inside_its_allocation_budget() {
    const CALLS: u64 = 100;
    let spec = XdrSpec::parse(
        "struct ring { int count; int next; opaque pad[32]; };\n\
         struct adapter { int msg_enable; int link_up; int speed; hyper stats; \
         opaque mac[6]; struct ring *tx; struct ring *rx; };",
    )
    .unwrap();
    let config = ChannelConfig::kernel_user();
    let ch = XpcChannel::new(
        spec.clone(),
        MaskSet::full(),
        config,
        Domain::Nucleus,
        Domain::Decaf,
    );
    ch.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "touch".into(),
            arg_types: vec!["adapter".into()],
            handler: Rc::new(|_, _, _, _| XdrValue::Int(0)),
        },
    )
    .unwrap();
    let adapter = {
        let heap = ch.heap(Domain::Nucleus);
        let mut h = heap.borrow_mut();
        let tx = h.alloc_default("ring", &spec).unwrap();
        let a = h.alloc_default("adapter", &spec).unwrap();
        h.set_ptr(a, "tx", Some(tx)).unwrap();
        a
    };
    let k = Kernel::new();
    let call = || ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[]);
    // The first call allocates the peer's copies and grows the scratch.
    assert_eq!(call(), Ok(XdrValue::Int(0)));
    let (before, ((), allocs)) = (
        ch.stats(),
        counted(|| (0..CALLS).for_each(|_| drop(call()))),
    );
    let s = ch.stats();
    assert_eq!(s.round_trips - before.round_trips, CALLS);
    assert_eq!(
        s.full_objects - before.full_objects,
        4 * CALLS,
        "two objects, both ways"
    );
    let per_call = allocs as f64 / CALLS as f64;
    println!("{allocs} allocations / {CALLS} calls = {per_call:.2} per call");
    assert!(
        per_call <= CALL_BUDGET,
        "{per_call:.2} heap allocations per two-object call, budget {CALL_BUDGET}"
    );
}

/// What `experiments::Window` installs for all eight ablations is a
/// metrics-only tracer: it keeps histograms, charge attribution and the
/// flame summary but no event buffer, so it must never build an event —
/// an instant used to collect its arguments into a `Vec` before the
/// buffer was consulted, one allocation per traced ring post, thrown
/// away.
#[test]
fn a_metrics_only_tracer_never_materialises_an_event() {
    use decaf_core::simkernel::decaf_trace::{CostClass, Tracer};

    /// The same calls on either kind of tracer; returns the allocations
    /// its 1,000 three-argument instants made.
    fn drive(t: &Tracer) -> u64 {
        let mut allocs = 0;
        for i in 0..1_000u64 {
            let ts = i * 100;
            t.begin_span(ts, "ring", "drain", 1);
            t.req_begin(ts, "net.rx", i, 1);
            t.attribute(CostClass::Kernel, 7);
            let args = [("shard", 1), ("occupancy", i), ("len", 1500)];
            allocs += counted(|| t.instant(ts + 1, "ring", "post", 1, &args)).1;
            t.req_end(ts + 40, "net.rx", i, 1);
            t.end_span(ts + 50);
        }
        allocs
    }

    let (lean, full) = (Tracer::metrics_only(), Tracer::new());
    let lean_allocs = drive(&lean);
    let full_allocs = drive(&full);
    assert_eq!(lean_allocs, 0, "a metrics-only tracer built its events");
    assert!(full_allocs >= 1_000, "the event buffer keeps each instant");
    assert_eq!(lean.event_count(), 0);
    assert_eq!(full.event_count(), 5 * 1_000);
    // Everything but the buffer reads the same on both.
    assert_eq!(lean.coverage(), full.coverage());
    assert_eq!(lean.coverage().attributed, [7_000, 0]);
    assert_eq!(lean.flame_summary(), full.flame_summary());
    let (lean_hist, full_hist) = (
        lean.registry().histogram("net.rx").unwrap(),
        full.registry().histogram("net.rx").unwrap(),
    );
    assert_eq!(lean_hist.count(), 1_000);
    assert_eq!(
        (lean_hist.p50(), lean_hist.p99(), lean_hist.sum()),
        (full_hist.p50(), full_hist.p99(), full_hist.sum())
    );
}
