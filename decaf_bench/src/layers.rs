//! Unit drives: host ns per call of one public function (or one short
//! fixed sequence) of each layer, timed from outside.
//!
//! Layers are the crates. A drive builds its fixture once, then times
//! *batches* of calls with `Instant` — a batch is long enough (tens of
//! µs) that the clock read is noise — and keeps one sample per batch in
//! memory. The reported cost is the lower quartile of the per-call
//! samples: interference on a shared box only ever adds time, so the low
//! end of the distribution is the part that belongs to the code. The
//! median is kept beside it in the `run` document.
//!
//! Each drive is a benchmark-side host-time span around calls into the
//! program; spans *inside* the program are a later change.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use decaf_core::drivers::support::{install_open_loop_net, install_open_loop_storage};
use decaf_core::drivers::{e1000, uhci, DriverKind};
use decaf_core::loadgen;
use decaf_core::shmring::{
    BufHandle, BufPool, Descriptor, RingSet, SectorPool, ShmRing, UrbDescriptor, UrbRingSet,
};
use decaf_core::simdev::uhci::{ep_bulk_out, FLASH_CMD_WRITE, SECTOR_SIZE};
use decaf_core::simkernel::decaf_trace::Tracer;
use decaf_core::simkernel::usb::{Urb, UrbDir};
use decaf_core::simkernel::{CpuClass, Kernel, SkBuff};
use decaf_core::slicer::{slice, SliceConfig};
use decaf_core::xdr::graph::{self, NullTracker, ObjHeap};
use decaf_core::xdr::mask::{Access, Direction, FieldMask, MaskSet};
use decaf_core::xdr::{codec, XdrSpec, XdrType, XdrValue};
use decaf_core::xpc::{
    AdmissionController, AdmissionPolicy, ChannelConfig, Domain, ProcDef, TokenBucket,
    TrafficClass, TransportKind, XpcChannel,
};

use crate::stats::Summary;

/// One drive's result.
#[derive(Debug, Clone)]
pub struct Drive {
    /// Metric name (`<layer>.<what>_ns`).
    pub name: &'static str,
    /// Calls timed.
    pub calls: u64,
    /// Per-call host ns over the batches.
    pub ns: Summary,
}

/// Host time one drive may use, and the calls it stops at if it gets
/// there first. Cheap calls reach the count in well under the budget;
/// a driver install (≈ 0.5 ms a call) stops on the budget.
const DRIVE_BUDGET_NS: u128 = 60_000_000;
const DRIVE_CALLS: u64 = 4_000;
const MIN_BATCHES: usize = 16;

struct Runner {
    out: Vec<Drive>,
}

impl Runner {
    /// Times `call` in batches of `batch` calls.
    fn drive<R>(&mut self, name: &'static str, batch: u64, call: impl FnMut() -> R) {
        self.drive_units(name, batch, 1, call);
    }

    /// [`Runner::drive`] for a call that does `units` of the thing being
    /// priced (a schedule of 4,000 arrivals): the cost is per unit.
    fn drive_units<R>(
        &mut self,
        name: &'static str,
        batch: u64,
        units: u64,
        mut call: impl FnMut() -> R,
    ) {
        // One untimed batch: first-call allocation and cache misses are
        // set-up, not the cost of a call.
        for _ in 0..batch {
            black_box(call());
        }
        let start = Instant::now();
        let mut samples = Vec::new();
        let mut calls = 0;
        while samples.len() < MIN_BATCHES
            || (calls < DRIVE_CALLS && start.elapsed().as_nanos() < DRIVE_BUDGET_NS)
        {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(call());
            }
            samples.push(t.elapsed().as_nanos() as f64 / (batch * units) as f64);
            calls += batch * units;
        }
        let ns = Summary::of(&samples).expect("at least MIN_BATCHES samples");
        self.out.push(Drive { name, calls, ns });
    }
}

/// Names of every drive, in the order [`run_all`] runs them.
pub const NAMES: [&str; 37] = [
    "xdr.encode_ns",
    "xdr.decode_ns",
    "xdr.marshal_graph_full_ns",
    "xdr.marshal_graph_selective_ns",
    "xdr.unmarshal_graph_ns",
    "xdr.spec_parse_ns",
    "xpc.call_inproc_ns",
    "xpc.batched8_flush_ns",
    "xpc.async8_flush_harvest_ns",
    "xpc.datapath_send_reclaim_ns",
    "xpc.urbpath_submit_giveback_ns",
    "xpc.admission_offer_ns",
    "xpc.recover_shard_ns",
    "shmring.ring_push_pop_ns",
    "shmring.bufpool_write_free_ns",
    "shmring.sector_alloc_free_ns",
    "shmring.sector_alloc_sg_free_ns",
    "shmring.ringset_post_complete_ns",
    "shmring.urbset_submit_complete_ns",
    "simkernel.kernel_new_ns",
    "simkernel.charge_ns",
    "simkernel.run_for_idle_ns",
    "simkernel.timer_arm_fire_ns",
    "simkernel.timer_fire_64pending_ns",
    "simkernel.irq_dispatch_ns",
    "simdev.e1000_tx_desc_ns",
    "simdev.e1000_rx_inject_ns",
    "simdev.uhci_td_ns",
    "slicer.slice_e1000_ns",
    "slicer.slice_all5_ns",
    "trace.span_ns",
    "trace.req_span_ns",
    "trace.disabled_span_ns",
    "drivers.e1000_install_ns",
    "drivers.e1000_sharded4_install_ns",
    "drivers.uhci_sharded4_install_ns",
    "core.poisson_arrival_ns",
];

const ADAPTER_SPEC: &str = "struct ring { int count; int next; opaque pad[32]; };\n\
     struct adapter { int msg_enable; int link_up; int speed; hyper stats; \
     opaque mac[6]; struct ring *tx; struct ring *rx; };";

fn adapter_spec() -> XdrSpec {
    XdrSpec::parse(ADAPTER_SPEC).expect("static spec parses")
}

/// A channel with one registered `touch(adapter)` procedure and one
/// adapter object (with a ring hanging off it) in the nucleus heap.
fn touch_channel(config: ChannelConfig) -> (Kernel, XpcChannel, u64) {
    let spec = adapter_spec();
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
    .expect("touch registers");
    let adapter = {
        let heap = ch.heap(Domain::Nucleus);
        let mut h = heap.borrow_mut();
        let tx = h.alloc_default("ring", &spec).expect("ring allocates");
        let a = h
            .alloc_default("adapter", &spec)
            .expect("adapter allocates");
        h.set_ptr(a, "tx", Some(tx)).expect("tx links");
        a
    };
    (Kernel::new(), ch, adapter)
}

/// Runs every drive once and returns the results in [`NAMES`] order.
pub fn run_all() -> Vec<Drive> {
    let mut r = Runner {
        out: Vec::with_capacity(NAMES.len()),
    };
    xdr(&mut r);
    xpc(&mut r);
    shmring(&mut r);
    simkernel(&mut r);
    simdev(&mut r);
    rest(&mut r);
    assert!(
        r.out.iter().map(|d| d.name).eq(NAMES),
        "every drive in NAMES ran, in order"
    );
    r.out
}

fn xdr(r: &mut Runner) {
    let spec = adapter_spec();
    let ty = XdrType::Struct("adapter".into());
    let value = graph::default_value(&ty, &spec).expect("default adapter");
    let bytes = codec::encode(&value, &ty, &spec).expect("adapter encodes");
    r.drive("xdr.encode_ns", 64, || {
        codec::encode(&value, &ty, &spec).unwrap()
    });
    r.drive("xdr.decode_ns", 64, || {
        codec::decode(&bytes, &ty, &spec).unwrap()
    });

    let mut heap = ObjHeap::new();
    let tx = heap.alloc_default("ring", &spec).unwrap();
    let rx = heap.alloc_default("ring", &spec).unwrap();
    let a = heap.alloc_default("adapter", &spec).unwrap();
    heap.set_ptr(a, "tx", Some(tx)).unwrap();
    heap.set_ptr(a, "rx", Some(rx)).unwrap();
    heap.set_scalar(a, "stats", XdrValue::Hyper(123_456))
        .unwrap();
    let full = MaskSet::full();
    r.drive("xdr.marshal_graph_full_ns", 32, || {
        graph::marshal_graph(&heap, Some(a), &spec, &full, Direction::In).unwrap()
    });
    let mut selective = MaskSet::selective();
    let mut m = FieldMask::new();
    m.record("msg_enable", Access::ReadWrite);
    m.record("link_up", Access::Write);
    selective.insert("adapter", m);
    r.drive("xdr.marshal_graph_selective_ns", 32, || {
        graph::marshal_graph(&heap, Some(a), &spec, &selective, Direction::In).unwrap()
    });
    let wire = graph::marshal_graph(&heap, Some(a), &spec, &full, Direction::In).unwrap();
    r.drive("xdr.unmarshal_graph_ns", 32, || {
        let mut dst = ObjHeap::with_base(0x9000_0000);
        graph::unmarshal_graph(
            &wire,
            "adapter",
            &mut dst,
            &spec,
            &full,
            Direction::In,
            &mut NullTracker,
        )
        .unwrap()
    });
    r.drive("xdr.spec_parse_ns", 32, || {
        XdrSpec::parse(ADAPTER_SPEC).unwrap()
    });
}

fn xpc(r: &mut Runner) {
    let (k, ch, a) = touch_channel(ChannelConfig {
        domain_crossing: true,
        cross_language: true,
        transport: TransportKind::InProc,
        delta: false,
        shmring: false,
        ..ChannelConfig::kernel_user()
    });
    r.drive("xpc.call_inproc_ns", 16, || {
        ch.call(&k, Domain::Nucleus, "touch", &[Some(a)], &[])
            .unwrap()
    });
    for (name, config) in [
        (
            "xpc.batched8_flush_ns",
            ChannelConfig::kernel_user_batched(),
        ),
        (
            "xpc.async8_flush_harvest_ns",
            ChannelConfig::kernel_user_async(),
        ),
    ] {
        let (k, ch, a) = touch_channel(config);
        r.drive(name, 4, || {
            for _ in 0..8 {
                ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(a)], &[])
                    .unwrap();
            }
            ch.flush(&k).unwrap();
            ch.harvest(&k).len()
        });
    }

    // One descriptor through a pool-less shmring data path and back:
    // post, doorbell (an async crossing), harvest, reclaim.
    let k = Kernel::new();
    let net = install_open_loop_net(1, 64, 8).expect("net rig");
    let mut cookie = 0u64;
    r.drive("xpc.datapath_send_reclaim_ns", 16, || {
        cookie += 1;
        let dp = &net.paths[0];
        dp.post(
            &k,
            Descriptor {
                buf: BufHandle(cookie as u32 % 64),
                len: 1500,
                cookie,
            },
        )
        .unwrap();
        dp.ring_doorbell(&k).unwrap();
        net.channels.harvest_all(&k);
        dp.reclaim_completions(&k).len()
    });

    // One 512-byte OUT URB through the sharded URB path and back.
    let k = Kernel::new();
    let (_channels, storage) = install_open_loop_storage(2, 256, 32, 8).expect("storage rig");
    let payload = [0xA5u8; SECTOR_SIZE];
    let mut cookie = 0u64;
    r.drive("xpc.urbpath_submit_giveback_ns", 16, || {
        cookie += 1;
        let shard = storage
            .submit_out(&k, cookie % 8, 2, &payload, cookie)
            .unwrap();
        storage.path(shard).ring_doorbell(&k).unwrap();
        storage.reclaim(&k).len()
    });

    let ctrl = AdmissionController::new(AdmissionPolicy::RejectAtAdmission, 24)
        .with_bucket(TrafficClass::Net, TokenBucket::new(1_000_000, 24))
        .with_bucket(TrafficClass::Storage, TokenBucket::new(1_000_000, 24));
    let mut now = 0u64;
    r.drive("xpc.admission_offer_ns", 256, || {
        // 1.5× the bucket rate: two offers in three are admitted.
        now += 667;
        let class = if now.is_multiple_of(2) {
            TrafficClass::Net
        } else {
            TrafficClass::Storage
        };
        ctrl.offer(now, class, (now % 24) as usize)
    });

    // Recovery of a shard holding four pinned, undrained URBs.
    let mut cookie = 0u64;
    r.drive("xpc.recover_shard_ns", 4, || {
        for _ in 0..4 {
            cookie += 1;
            storage.submit_out(&k, 0, 2, &payload, cookie).unwrap();
        }
        let shard = storage.steer(0);
        let requeued = storage.recover_shard(&k, shard, Domain::Decaf).unwrap();
        storage.path(shard).ring_doorbell(&k).unwrap();
        storage.reclaim(&k);
        requeued
    });
}

fn shmring(r: &mut Runner) {
    let k = Kernel::new();
    let ring = ShmRing::new("bench", 64);
    let desc = Descriptor {
        buf: BufHandle(0),
        len: 1500,
        cookie: 0,
    };
    r.drive("shmring.ring_push_pop_ns", 256, || {
        ring.push(&k, CpuClass::Kernel, desc).unwrap();
        ring.pop(&k, CpuClass::User)
    });
    let pool = BufPool::with_capacity(2048, 64);
    let payload = vec![0x5au8; 1500];
    r.drive("shmring.bufpool_write_free_ns", 64, || {
        let h = pool.alloc().unwrap();
        pool.write_payload(&k, CpuClass::Kernel, h, &payload)
            .unwrap();
        pool.free(h).unwrap();
    });
    let sectors = SectorPool::with_capacity(SECTOR_SIZE, 256);
    r.drive("shmring.sector_alloc_free_ns", 64, || {
        let h = sectors.alloc(8 * SECTOR_SIZE).unwrap();
        sectors.free(h).unwrap()
    });
    // Half the pool pinned in scattered single sectors: no free extent is
    // longer than one sector, so a 4-sector request must chain four.
    let fragmented = SectorPool::with_capacity(SECTOR_SIZE, 256);
    let singles: Vec<_> = (0..256)
        .map(|_| fragmented.alloc(SECTOR_SIZE).unwrap())
        .collect();
    for h in singles.into_iter().step_by(2) {
        fragmented.free(h).unwrap();
    }
    r.drive("shmring.sector_alloc_sg_free_ns", 64, || {
        let h = fragmented.alloc_sg(4 * SECTOR_SIZE).unwrap();
        fragmented.free_sg(h).unwrap()
    });
    let set = RingSet::new("bench", 4, 64, 128);
    let mut cookie = 0u64;
    r.drive("shmring.ringset_post_complete_ns", 64, || {
        cookie += 1;
        let shard = set.steer(cookie);
        set.post(&k, CpuClass::Kernel, shard, Descriptor { cookie, ..desc })
            .unwrap();
        let d = set.ring(shard).pop(&k, CpuClass::User).unwrap();
        set.complete(&k, CpuClass::User, d).unwrap();
        set.reclaim(&k, CpuClass::Kernel, shard).len()
    });
    let urbs = UrbRingSet::new(
        "bench",
        4,
        64,
        128,
        Rc::new(SectorPool::with_capacity(SECTOR_SIZE, 64)),
    );
    let mut cookie = 0u64;
    r.drive("shmring.urbset_submit_complete_ns", 64, || {
        cookie += 1;
        let shard = urbs.steer(cookie);
        urbs.note_submit(shard, cookie);
        let d = UrbDescriptor {
            cookie,
            ..UrbDescriptor::default()
        };
        urbs.submit_ring(shard)
            .push(&k, CpuClass::Kernel, d)
            .unwrap();
        let d = urbs.submit_ring(shard).pop(&k, CpuClass::User).unwrap();
        urbs.complete(&k, CpuClass::User, d.completed(0, 0))
            .unwrap();
        urbs.reclaim(&k, CpuClass::Kernel, shard).len()
    });
}

fn simkernel(r: &mut Runner) {
    r.drive("simkernel.kernel_new_ns", 64, Kernel::new);
    let k = Kernel::new();
    r.drive("simkernel.charge_ns", 1024, || {
        k.charge(CpuClass::Kernel, 100)
    });
    r.drive("simkernel.run_for_idle_ns", 256, || k.run_for(1_000));

    let k = Kernel::new();
    let t = k.timer_create("bench.timer", Rc::new(|_| {}));
    r.drive("simkernel.timer_arm_fire_ns", 64, || {
        k.timer_arm(t, 100);
        k.run_for(100);
    });
    // The same with 64 other timers armed far in the future — what a
    // poll tick costs on a machine with drivers loaded.
    for i in 0..64 {
        let idle = k.timer_create(format!("bench.idle{i}"), Rc::new(|_| {}));
        k.timer_arm(idle, u64::MAX / 4);
    }
    r.drive("simkernel.timer_fire_64pending_ns", 64, || {
        k.timer_arm(t, 100);
        k.run_for(100);
    });

    let k = Kernel::new();
    k.request_irq(7, "bench.irq", Rc::new(|_| {}))
        .expect("irq line is free");
    r.drive("simkernel.irq_dispatch_ns", 64, || {
        k.raise_irq(7);
        k.schedule_point();
    });
}

fn simdev(r: &mut Runner) {
    // Through the native drivers, so the cost is the device model plus
    // the thinnest driver there is: one descriptor, one interrupt.
    let k = Kernel::new();
    let nic = e1000::native::install(&k, "eth0").expect("native e1000 installs");
    k.netdev_open("eth0").expect("eth0 opens");
    k.schedule_point();
    r.drive("simdev.e1000_tx_desc_ns", 32, || {
        k.net_xmit("eth0", SkBuff::synthetic(64, 0x5a, 0x0800))
            .unwrap();
        k.schedule_point();
    });
    let frame = [0x5au8; 64];
    r.drive("simdev.e1000_rx_inject_ns", 32, || {
        nic.dev.borrow_mut().inject_rx(&k, &frame);
        k.schedule_point();
    });

    let k = Kernel::new();
    let _hcd = uhci::install_native(&k, "uhci0").expect("native uhci installs");
    let done: decaf_core::simkernel::usb::UrbCompletion = Rc::new(|_, _| {});
    let mut sector = 0u32;
    r.drive("simdev.uhci_td_ns", 32, || {
        sector = (sector + 1) % 64;
        let mut data = vec![FLASH_CMD_WRITE];
        data.extend_from_slice(&sector.to_le_bytes());
        data.extend_from_slice(&[0xA5; SECTOR_SIZE]);
        k.usb_submit_urb(
            "uhci0",
            Urb {
                endpoint: ep_bulk_out(0) as u8,
                dir: UrbDir::Out,
                data,
            },
            Rc::clone(&done),
        )
        .unwrap();
        k.schedule_point();
    });
}

fn rest(r: &mut Runner) {
    let config = SliceConfig::default();
    r.drive("slicer.slice_e1000_ns", 1, || {
        slice(DriverKind::E1000.minic_source(), &config).unwrap()
    });
    r.drive("slicer.slice_all5_ns", 1, || {
        for kind in DriverKind::all() {
            black_box(slice(kind.minic_source(), &config).unwrap());
        }
    });

    let k = Kernel::new();
    k.set_tracer(Some(Tracer::metrics_only()));
    r.drive("trace.span_ns", 256, || drop(k.trace_span("bench", "span")));
    let mut id = 0u64;
    r.drive("trace.req_span_ns", 256, || {
        id += 1;
        k.trace_req_begin("bench.req_ns", id);
        k.trace_req_end("bench.req_ns", id);
    });
    let k = Kernel::new();
    r.drive("trace.disabled_span_ns", 1024, || {
        drop(k.trace_span("bench", "span"))
    });

    r.drive("drivers.e1000_install_ns", 1, || {
        e1000::decaf::install(&Kernel::new(), "eth0").unwrap()
    });
    r.drive("drivers.e1000_sharded4_install_ns", 1, || {
        e1000::decaf::install_sharded(&Kernel::new(), "eth0", 4).unwrap()
    });
    r.drive("drivers.uhci_sharded4_install_ns", 1, || {
        uhci::install_sharded(&Kernel::new(), "uhci0", 4).unwrap()
    });

    // One call schedules 4 virtual ms at 1 M arrivals/s: 4,000 arrivals
    // give or take the Poisson draw, which the quartiles absorb.
    let mut seed = 0u64;
    r.drive_units("core.poisson_arrival_ns", 1, 4_000, || {
        seed += 1;
        loadgen::poisson_schedule(seed, 1_000_000, 4_000_000)
    });
}
