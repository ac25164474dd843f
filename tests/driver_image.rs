//! The driver image: what `insmod` links instead of re-slicing.
//!
//! Each driver module builds DriverSlicer's output for its static mini-C
//! source once and shares it with every load. These tests pin the three
//! things that must stay true of that arrangement: the image *is* the
//! slicer's output, loads share it rather than copy it, and nothing the
//! model counts — virtual time, wire bytes, crossings — can tell whether
//! a buffer was reused. The last test is the regression for the leak the
//! shared image made visible: a dropped machine frees its drivers.

use std::mem::discriminant;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use decaf_core::drivers::{e1000, ens1371, install, psmouse, rtl8139, uhci};
use decaf_core::drivers::{Build, DriverKind, Hosting, Loaded};
use decaf_core::shmring::AllocMode;
use decaf_core::simkernel::{KError, Kernel};
use decaf_core::slicer::{slice, SliceConfig};
use decaf_core::xdr::mask::MaskSet;
use decaf_core::xdr::{XdrSpec, XdrValue};
use decaf_core::xpc::{ChannelConfig, Domain, ProcDef, ShardedChannel, TransportKind, XpcChannel};

/// `SlicePlan: PartialEq` compares every field — the five function
/// lists, both entry-point lists, the kernel imports, masks, spec,
/// annotations, placement, line counts and boundary structs.
#[test]
fn image_is_exactly_the_slicers_output() {
    for kind in DriverKind::all() {
        let fresh = slice(kind.minic_source(), &SliceConfig::default()).unwrap();
        let image = kind.image();
        assert_eq!(image.spec, fresh.spec, "{}: spec", kind.name());
        assert_eq!(image.masks, fresh.masks, "{}: masks", kind.name());
        assert_eq!(*image, fresh, "{}: plan", kind.name());
        assert!(
            Arc::ptr_eq(&image, &kind.image()),
            "{}: the accessor hands out one allocation",
            kind.name()
        );
    }
}

#[test]
fn loads_share_the_image_instead_of_copying_it() {
    let (k1, k2) = (Kernel::new(), Kernel::new());
    let a = e1000::decaf::install(&k1, "eth0").unwrap();
    let b = e1000::decaf::install(&k2, "eth0").unwrap();
    assert!(Arc::ptr_eq(&a.plan, &b.plan));
    assert!(Arc::ptr_eq(&a.plan, &DriverKind::E1000.image()));
    assert!(Arc::ptr_eq(a.channel.spec(), b.channel.spec()));
    assert!(Arc::ptr_eq(a.channel.spec(), &a.plan.spec));

    // One spec behind all four shards, and it is the image's.
    let k = Kernel::new();
    let sharded = e1000::decaf::install_sharded(&k, "eth0", 4).unwrap();
    for i in 0..4 {
        assert!(
            Arc::ptr_eq(sharded.channels.shard(i).spec(), &sharded.plan.spec),
            "shard {i} holds its own spec"
        );
    }
    let k = Kernel::new();
    let storage = uhci::install_sharded(&k, "uhci0", 4).unwrap();
    for i in 0..4 {
        assert!(Arc::ptr_eq(
            storage.channels.shard(i).spec(),
            &DriverKind::UhciHcd.image().spec
        ));
    }

    let k = Kernel::new();
    let r = rtl8139::install_decaf(&k, "eth1").unwrap();
    let s = ens1371::install_decaf(&k, "card0").unwrap();
    let u = uhci::install_decaf(&k, "uhci0").unwrap();
    let m = psmouse::install_decaf(&k, "mouse0").unwrap();
    assert!(Arc::ptr_eq(&r.plan, &DriverKind::Rtl8139.image()));
    assert!(Arc::ptr_eq(&s.plan, &DriverKind::Ens1371.image()));
    assert!(Arc::ptr_eq(&u.plan, &DriverKind::UhciHcd.image()));
    assert!(Arc::ptr_eq(&m.plan, &DriverKind::Psmouse.image()));
}

/// Marshaling is part of the image: compiled when the image is built,
/// once per process, and every channel of every shard of every load runs
/// that one plan — an install compiles nothing.
#[test]
fn every_channel_of_every_load_runs_the_images_compiled_plan() {
    for kind in DriverKind::all() {
        let image = kind.image();
        assert!(Arc::ptr_eq(&image.marshal, &kind.image().marshal));
        assert!(
            Arc::ptr_eq(image.marshal.layouts(), image.spec.layouts()),
            "{}: the plan is compiled against the image's own spec",
            kind.name()
        );
    }
    let image = DriverKind::E1000.image();
    for _load in 0..2 {
        let k = Kernel::new();
        let single = e1000::decaf::install(&k, "eth0").unwrap();
        assert!(Arc::ptr_eq(single.channel.plan(), &image.marshal));
        let k = Kernel::new();
        let sharded = e1000::decaf::install_sharded(&k, "eth0", 4).unwrap();
        for i in 0..4 {
            assert!(
                Arc::ptr_eq(sharded.channels.shard(i).plan(), &image.marshal),
                "shard {i} compiled a plan of its own"
            );
        }
    }
    let k = Kernel::new();
    let storage = uhci::install_sharded(&k, "uhci0", 4).unwrap();
    for i in 0..4 {
        assert!(Arc::ptr_eq(
            storage.channels.shard(i).plan(),
            &DriverKind::UhciHcd.image().marshal
        ));
    }
    // The adapter a load allocates is built from the image's layout, so
    // it crosses by index, not by field name.
    let k = Kernel::new();
    let drv = e1000::decaf::install(&k, "eth0").unwrap();
    let heap = drv.channel.heap(Domain::Nucleus);
    let heap = heap.borrow();
    let adapter = heap.get(drv.root).unwrap();
    assert!(Arc::ptr_eq(
        adapter.layout(),
        image.spec.layout("e1000_adapter").unwrap()
    ));
}

/// `ObjHeap::get_mut` cannot know which field its caller will write, so
/// it marks every one dirty: the next delta carries every masked field,
/// the one after that none.
#[test]
fn get_mut_makes_the_next_delta_carry_every_masked_field() {
    let k = Kernel::new();
    let spec = XdrSpec::parse(SPEC).unwrap();
    let config = ChannelConfig::kernel_user_batched();
    let ch = XpcChannel::new(
        spec.clone(),
        MaskSet::full(),
        config,
        Domain::Nucleus,
        Domain::Decaf,
    );
    ch.register_proc(
        Domain::Decaf,
        ProcDef::entry("touch", ["ring"], |_, _, _, _| XdrValue::Int(0)),
    )
    .unwrap();
    let heap = ch.heap(Domain::Nucleus);
    let ring = heap.borrow_mut().alloc_default("ring", &spec).unwrap();
    let call = || {
        let before = ch.stats();
        ch.call(&k, Domain::Nucleus, "touch", &[Some(ring)], &[])
            .unwrap();
        let after = ch.stats();
        (
            after.delta_objects - before.delta_objects,
            after.delta_fields_elided - before.delta_fields_elided,
            after.bytes_in - before.bytes_in,
        )
    };
    let (_, _, full_bytes) = call();
    let (deltas, elided, clean_bytes) = call();
    assert_eq!(
        (deltas, elided),
        (2, 6),
        "both ways, all three fields clean"
    );
    heap.borrow_mut()
        .set_scalar(ring, "next", XdrValue::Int(1))
        .unwrap();
    assert_eq!(call().1, 5, "one tracked write: one field crosses, once");
    assert!(heap.borrow_mut().get_mut(ring).is_ok());
    let (deltas, elided, dirty_bytes) = call();
    assert_eq!((deltas, elided), (2, 3), "in: every field; out: none");
    // A delta of every field is a full transfer plus its bitmap word.
    assert_eq!(dirty_bytes, full_bytes + 4);
    assert_eq!(call(), (2, 6, clean_bytes));
}

const SPEC: &str = "struct ring { int count; int next; opaque pad[32]; };\n\
     struct adapter { int msg_enable; int link_up; hyper stats; opaque mac[6]; \
     struct ring *tx; };\n\
     struct blob { opaque data[4096]; };";

/// What the model sees of a stretch of channel traffic.
#[derive(Debug, PartialEq, Eq)]
struct Seen {
    bytes_in: u64,
    bytes_out: u64,
    one_way_crossings: u64,
    kernel_busy_ns: u64,
    user_busy_ns: u64,
}

/// One synchronous call, then eight deferred calls flushed (and, on the
/// async transport, harvested) — on a channel whose wire scratch is
/// either still empty or was first grown by a 4 KiB message.
fn traffic(config: ChannelConfig, grow_scratch_first: bool) -> Seen {
    let k = Kernel::new();
    let spec = XdrSpec::parse(SPEC).unwrap();
    let ch = XpcChannel::new(
        spec.clone(),
        MaskSet::full(),
        config,
        Domain::Nucleus,
        Domain::Decaf,
    );
    for (name, ty) in [("touch", "adapter"), ("sink", "blob")] {
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: name.into(),
                arg_types: vec![ty.into()],
                handler: Rc::new(|_, _, _, _| XdrValue::Int(0)),
            },
        )
        .unwrap();
    }
    let (adapter, blob) = {
        let heap = ch.heap(Domain::Nucleus);
        let mut h = heap.borrow_mut();
        let tx = h.alloc_default("ring", &spec).unwrap();
        let a = h.alloc_default("adapter", &spec).unwrap();
        h.set_ptr(a, "tx", Some(tx)).unwrap();
        (a, h.alloc_default("blob", &spec).unwrap())
    };
    if grow_scratch_first {
        ch.call(&k, Domain::Nucleus, "sink", &[Some(blob)], &[])
            .unwrap();
    }

    let (before, clock) = (ch.stats(), k.snapshot());
    ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
        .unwrap();
    for _ in 0..8 {
        ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
    }
    ch.flush(&k).unwrap();
    ch.harvest(&k);
    let (after, now) = (ch.stats(), k.snapshot());
    assert_eq!(ch.tokens_outstanding(), 0);
    Seen {
        bytes_in: after.bytes_in - before.bytes_in,
        bytes_out: after.bytes_out - before.bytes_out,
        one_way_crossings: after.one_way_crossings - before.one_way_crossings,
        kernel_busy_ns: now.kernel_busy_ns - clock.kernel_busy_ns,
        user_busy_ns: now.user_busy_ns - clock.user_busy_ns,
    }
}

#[test]
fn wire_scratch_reuse_is_invisible_to_the_model() {
    let inproc = ChannelConfig {
        transport: TransportKind::InProc,
        delta: false,
        ..ChannelConfig::kernel_user()
    };
    for (name, config) in [
        ("inproc", inproc),
        ("batched", ChannelConfig::kernel_user_batched()),
        ("async", ChannelConfig::kernel_user_async()),
    ] {
        let cold = traffic(config, false);
        assert!(cold.bytes_in > 0 && cold.bytes_out > 0 && cold.one_way_crossings >= 4);
        assert_eq!(cold, traffic(config, true), "{name}: grown scratch");
        assert_eq!(cold, traffic(config, false), "{name}: repeatable");
    }
}

/// `ctl_init` used to leak ~120 KiB per five-driver load: the runtimes
/// and a few channel procedures owned `Kernel` clones, the kernel stored
/// the closures that owned *them*, and three of the five drivers have no
/// `remove` to break the loop. Stored closures now use the `&Kernel` they
/// are handed, so dropping the machine frees it and everything on it.
#[test]
fn a_dropped_kernel_frees_its_drivers() {
    let k = Kernel::new();
    let decaf = Build::ALL
        .into_iter()
        .filter(|b| b.hosting == Hosting::Decaf);
    let loaded: Vec<Loaded> = decaf
        .map(|b| install(&k, name_of(b.driver), b).unwrap())
        .collect();
    assert_eq!(loaded.len(), 5, "one decaf build per driver");
    k.netdev_open("eth0").unwrap();
    k.netdev_open("eth1").unwrap();
    k.schedule_point();
    k.run_for(2_000_000_000);
    let mut channels = Vec::new();
    let mut hw = Vec::new();
    for d in &loaded {
        let Loaded::Split(d) = d else {
            panic!("{}: a decaf build is a split", d.name());
        };
        channels.push(Rc::downgrade(&d.channel));
        hw.push(Rc::downgrade(&d.hw));
    }

    // Unload exactly as `decaf_bench`'s `load_five` does: the NICs are
    // removed, the rest dropped.
    for d in loaded {
        if d.name().starts_with("eth") {
            d.remove();
        }
    }
    let machine = k.downgrade();
    assert!(machine.upgrade().is_some(), "the test still holds it");
    drop(k);
    assert!(machine.upgrade().is_none(), "the kernel outlived its owner");
    for (i, ch) in channels.iter().enumerate() {
        assert!(ch.upgrade().is_none(), "channel {i} outlived the kernel");
    }
    for (i, hw) in hw.iter().enumerate() {
        assert!(
            hw.upgrade().is_none(),
            "hardware state {i} (and its DMA region) leaked"
        );
    }
}

/// The ring builds had a second loop of their own: channel → the
/// `request_irq` procedure → the ring interrupt handler → its receive
/// paths → the channel.
#[test]
fn a_dropped_ring_build_frees_its_channels() {
    let k = Kernel::new();
    let e = e1000::decaf::install_sharded(&k, "eth0", 4).unwrap();
    let shmring = Build::new(DriverKind::Rtl8139, Hosting::Shmring);
    let Ok(Loaded::Ring(r)) = install(&k, "eth1", shmring) else {
        panic!("the 8139 ring build installs");
    };
    k.netdev_open("eth0").unwrap();
    k.netdev_open("eth1").unwrap();
    k.run_for(1_000_000);
    let channels = [
        Rc::downgrade(e.channels.shard(0)),
        Rc::downgrade(e.channels.shard(3)),
        Rc::downgrade(&r.channel),
    ];
    e.remove();
    r.remove();
    drop(k);
    for (i, ch) in channels.iter().enumerate() {
        assert!(ch.upgrade().is_none(), "ring-build channel {i} leaked");
    }
}

/// Probes of what removing `d` must free — its hardware state, its
/// device model, its channels, its data paths: each says whether its
/// object is still alive.
fn freed_by_remove(d: &Loaded) -> Vec<Box<dyn Fn() -> bool>> {
    fn alive<T: ?Sized + 'static>(rc: &Rc<T>) -> Box<dyn Fn() -> bool> {
        let weak: Weak<T> = Rc::downgrade(rc);
        Box::new(move || weak.upgrade().is_some())
    }
    let shards = |c: &ShardedChannel| {
        (0..c.shard_count())
            .map(|i| alive(c.shard(i)))
            .collect::<Vec<_>>()
    };
    let mut freed = vec![alive(&d.dev())];
    match d {
        Loaded::Native(d) => freed.push(alive(&d.hw)),
        Loaded::Split(d) => freed.extend([alive(&d.hw), alive(&d.channel)]),
        Loaded::ValueUhci(d) => freed.extend([alive(&d.hw), alive(&d.channel)]),
        Loaded::Ring(d) => {
            freed.extend([alive(&d.hw), alive(&d.channels)]);
            freed.extend(shards(&d.channels));
            for i in 0..d.channels.shard_count() {
                freed.extend([alive(d.tx.path(i)), alive(d.rx.path(i))]);
            }
        }
        Loaded::ShardedUhci(d) => {
            freed.extend([alive(&d.hw), alive(&d.urb_path)]);
            freed.extend(shards(&d.channels));
        }
    }
    freed
}

/// The name each driver registers in these checks; the two NICs differ,
/// so both fit on one kernel.
fn name_of(driver: DriverKind) -> &'static str {
    match driver {
        DriverKind::E1000 => "eth0",
        DriverKind::Rtl8139 => "eth1",
        DriverKind::Ens1371 => "card0",
        DriverKind::UhciHcd => "uhci0",
        DriverKind::Psmouse => "mouse0",
    }
}

/// A removed driver is gone *then*, not when the machine is — every build
/// of all five drivers, on one kernel. `timer_del` used to keep each
/// deleted timer's closure — the watchdog's runtime and sharded channel,
/// the poll timer's data paths — until the kernel itself was dropped, so
/// twenty load/remove rounds on one kernel (`ctl_init`) held twenty
/// generations of dead channels. Seven builds had no `remove` at all:
/// their module, IRQ handler and card/HCD/input registration stayed, so
/// installing them again under the same name was `Busy`. And every build
/// but the mouse's registered its device model on a simulated PCI bus no
/// teardown cleared, so the model — the e1000's with 512 KiB of DMA —
/// lived as long as the kernel.
#[test]
fn a_removed_driver_is_freed_while_the_kernel_lives_on() {
    // The uhci ring build in every pool mode: each allocator keeps its
    // own bookkeeping, and all of it must go with the driver.
    let modes = [AllocMode::FirstFit, AllocMode::Buddy, AllocMode::BuddySg];
    let builds = Build::ALL.into_iter().flat_map(|b| match b.hosting {
        Hosting::ShardedUrb(n, _) => modes
            .map(|mode| Build::new(b.driver, Hosting::ShardedUrb(n, mode)))
            .to_vec(),
        _ => vec![b],
    });
    let k = Kernel::new();
    for build in builds {
        let name = name_of(build.driver);
        // Installed twice under one name: the second load finds the
        // name, the IRQ line and the module free again.
        for round in 0..2 {
            let d = install(&k, name, build).unwrap();
            let freed = freed_by_remove(&d);
            if name.starts_with("eth") {
                // `open` requests the IRQ line of a split NIC.
                k.netdev_open(name).unwrap();
            }
            k.run_for(2_500_000_000); // past a watchdog period
            d.remove();
            for (i, alive) in freed.iter().enumerate() {
                let what = format!("{build:?}, load {round}: object {i}");
                assert!(!alive(), "{what} outlived remove()");
            }
            assert!(k.modules().is_empty(), "{build:?}: {:?}", k.modules());
        }
    }
    assert!(k.violations().is_empty(), "{:?}", k.violations());
}

/// A build the table does not list is refused before the kernel sees it:
/// every driver in every hosting the table uses for some other driver,
/// and each sharded hosting at width zero, on one kernel. Nothing —
/// module, IRQ line, timer or name — is left behind, so each driver's
/// first listed build still installs under the same name.
#[test]
fn a_build_outside_the_table_is_refused_before_the_kernel_sees_it() {
    let mut hostings: Vec<Hosting> = Vec::new();
    for b in Build::ALL {
        if !hostings
            .iter()
            .any(|h| discriminant(h) == discriminant(&b.hosting))
        {
            hostings.push(b.hosting);
        }
    }
    hostings.extend([
        Hosting::Sharded(0),
        Hosting::ShardedUrb(0, AllocMode::BuddySg),
    ]);
    let k = Kernel::new();
    let mut refused = 0;
    for driver in DriverKind::all() {
        for &hosting in &hostings {
            let build = Build::new(driver, hosting);
            if build.is_listed() {
                continue;
            }
            let got = install(&k, name_of(driver), build).map(|_| ());
            assert_eq!(got, Err(KError::Inval), "{build:?}");
            refused += 1;
        }
    }
    // Five drivers in eight hostings less the eighteen listed, and every
    // driver at the two zero widths.
    assert_eq!(refused, 5 * 8 - 18 + 5 * 2, "every pair outside the table");
    assert!(k.modules().is_empty(), "{:?}", k.modules());
    k.run_for(2_500_000_000); // past a watchdog period
    let stats = k.stats();
    assert_eq!((stats.timers_fired, stats.work_executed), (0, 0), "armed");
    assert!(k.violations().is_empty(), "{:?}", k.violations());
    for driver in DriverKind::all() {
        let build = Build::ALL.into_iter().find(|b| b.driver == driver).unwrap();
        let d = install(&k, name_of(driver), build).unwrap();
        assert_eq!(d.name(), name_of(driver));
        d.remove();
    }
    assert!(k.modules().is_empty(), "{:?}", k.modules());
}

/// The load path's fixed point: what one `insmod` of each decaf driver on
/// a fresh kernel costs in virtual time, round trips and wire bytes
/// (`bytes_in + bytes_out` of the control channel). The constants were
/// read at 99be6ce, the parent of the PR that moved the entry-point stubs
/// and the `insmod` prologue into `drivers::support`; before that only
/// `decaf_bench` (outside `cargo test`) and Table 3's rounded cells saw
/// them.
#[test]
fn load_cost_of_each_driver_is_what_it_was_at_99be6ce() {
    let seen = |latency: u64, crossings: u64, ch: &XpcChannel| {
        let wire = ch.stats();
        (latency, crossings, wire.bytes_in + wire.bytes_out)
    };
    let k = Kernel::new();
    let e = e1000::decaf::install(&k, "eth0").unwrap();
    assert_eq!(
        seen(e.init_latency_ns, e.crossings(), &e.channel),
        (223_162, 22, 352),
        "e1000"
    );
    let k = Kernel::new();
    let r = rtl8139::install_decaf(&k, "eth1").unwrap();
    assert_eq!(
        seen(r.init_latency_ns, r.crossings(), &r.channel),
        (70_072, 5, 100),
        "8139too"
    );
    let k = Kernel::new();
    let s = ens1371::install_decaf(&k, "card0").unwrap();
    assert_eq!(
        seen(s.init_latency_ns, s.crossings(), &s.channel),
        (79_234, 3, 160),
        "ens1371"
    );
    let k = Kernel::new();
    let u = uhci::install_decaf(&k, "uhci0").unwrap();
    assert_eq!(
        seen(u.init_latency_ns, u.crossings(), &u.channel),
        (141_356, 7, 188),
        "uhci-hcd"
    );
    let k = Kernel::new();
    let m = psmouse::install_decaf(&k, "mouse0").unwrap();
    assert_eq!(
        seen(m.init_latency_ns, m.crossings(), &m.channel),
        (247_112, 25, 300),
        "psmouse"
    );
}

/// Decaf-side procedures that are not entry points of any image: the
/// data-path doorbells the ring builds ring (`DataPathChannel` /
/// `ShardedUrbPath` drains) and the by-value ablation's submit call.
/// They carry descriptors or scalars, never a marshaled object, so the
/// image has no signature for them.
const DOORBELLS: [&str; 6] = [
    "e1000_tx_drain",
    "e1000_rx_drain",
    "rtl8139_tx_drain",
    "rtl8139_rx_drain",
    "uhci_urb_drain",
    "uhci_submit_value",
];

/// The one nucleus procedure that is not a kernel import of its image:
/// the 8139too mini-C source lists `rtl8139_hw_start` as a *user*
/// function, but this build keeps the ring start in the nucleus and
/// `rtl8139_open` reaches it through this downcall.
const NUCLEUS_EXTRAS: [&str; 1] = ["hw_start_datapath"];

/// Every procedure an install registered is one the image declares.
fn assert_linked_against<'a>(
    kind: DriverKind,
    install: &str,
    channels: impl IntoIterator<Item = &'a Rc<XpcChannel>>,
) {
    let image = kind.image();
    for (shard, ch) in channels.into_iter().enumerate() {
        let decaf = ch.proc_names(Domain::Decaf);
        assert!(
            !decaf.is_empty(),
            "{install}: shard {shard} has no handlers"
        );
        for name in decaf {
            assert!(
                image.user_entry_point(&name).is_some() || DOORBELLS.contains(&name.as_str()),
                "{install}: decaf procedure `{name}` on shard {shard} is not a user entry point"
            );
        }
        for name in ch.proc_names(Domain::Nucleus) {
            assert!(
                image.kernel_imports_from_user.contains(&name)
                    || NUCLEUS_EXTRAS.contains(&name.as_str()),
                "{install}: nucleus procedure `{name}` on shard {shard} is not a kernel import"
            );
        }
    }
}

#[test]
fn every_installer_registers_only_what_its_image_declares() {
    for build in Build::ALL {
        let d = install(&Kernel::new(), name_of(build.driver), build).unwrap();
        let channels: Vec<&Rc<XpcChannel>> = match &d {
            Loaded::Native(_) => continue,
            Loaded::Split(d) => vec![&d.channel],
            Loaded::ValueUhci(d) => vec![&d.channel],
            Loaded::Ring(d) => (0..d.shards()).map(|i| d.channels.shard(i)).collect(),
            Loaded::ShardedUhci(d) => (0..d.shards()).map(|i| d.channels.shard(i)).collect(),
        };
        let label = format!("{build:?}");
        assert_linked_against(build.driver, &label, channels.iter().copied());
        if let (DriverKind::E1000, Hosting::Sharded(n)) = (build.driver, build.hosting) {
            let registered: usize = channels
                .iter()
                .map(|ch| ch.proc_names(Domain::Decaf).len() + ch.proc_names(Domain::Nucleus).len())
                .sum();
            assert_eq!(
                registered,
                21 * n,
                "8 decaf + 13 nucleus procedures per shard"
            );
        }
    }
}

/// The by-name lookup the stubs resolve through agrees with the list it
/// searches, on every image.
#[test]
fn by_name_lookup_finds_every_entry_point_of_every_image() {
    for kind in DriverKind::all() {
        let image = kind.image();
        assert!(!image.user_entry_points.is_empty(), "{}", kind.name());
        for ep in &image.user_entry_points {
            assert_eq!(image.user_entry_point(&ep.name), Some(ep), "{}", ep.name);
        }
        for kernel_fn in &image.kernel_fns {
            assert_eq!(image.user_entry_point(kernel_fn), None, "{kernel_fn}");
        }
    }
}
