//! Tests for the paper's secondary mechanisms: incremental conversion
//! through the driver library (§5.3), the sound-core locking change
//! (§3.1.3), the GC-finalizer analogue (§5.1), UDP small-packet behaviour
//! (§4.2), and DriverSlicer invariants across all five drivers.

use std::rc::Rc;

#[path = "fault_harness/mod.rs"]
mod fault_harness;

use decaf_core::drivers::DriverKind;
use decaf_core::simkernel::sound::SoundLockMode;
use decaf_core::simkernel::{Kernel, ViolationKind};
use decaf_core::slicer::callgraph::CallGraph;
use decaf_core::slicer::{parse, slice, SliceConfig};
use decaf_core::xdr::mask::Direction;
use decaf_core::xdr::XdrValue;
use decaf_core::xpc::{ChannelConfig, Domain, ProcDef, SharedObject, XpcChannel};

/// §5.3: "when migrating code to Java, it is convenient to move one
/// function at a time and then test the system" — the same entry point
/// can execute as user-level C (driver library) first, then as managed
/// code (decaf driver), with identical observable behaviour.
#[test]
fn incremental_conversion_library_then_decaf() {
    let spec = decaf_core::xdr::XdrSpec::parse("struct st { int calls; int value; };").unwrap();
    let run = |target: Domain| -> (i32, i32) {
        let kernel = Kernel::new();
        let ch = Rc::new(XpcChannel::new(
            spec.clone(),
            decaf_core::xdr::mask::MaskSet::full(),
            // Library staging: same process, still C → no cross-language
            // conversion cost; Decaf: full configuration.
            if target == Domain::Library {
                ChannelConfig {
                    cross_language: false,
                    transport: decaf_core::xpc::TransportKind::InProc,
                    delta: false,
                    ..ChannelConfig::kernel_user()
                }
            } else {
                ChannelConfig::kernel_user()
            },
            Domain::Nucleus,
            target,
        ));
        // The *same logic*, registered at whichever user-level domain is
        // hosting it during the migration.
        ch.register_proc(
            target,
            ProcDef {
                name: "configure".into(),
                arg_types: vec!["st".into()],
                handler: Rc::new(move |_, ch, args, scalars| {
                    let obj = args[0].unwrap();
                    let heap = ch.heap(target);
                    let mut h = heap.borrow_mut();
                    let calls = h.scalar(obj, "calls").unwrap().as_int().unwrap();
                    h.set_scalar(obj, "calls", XdrValue::Int(calls + 1))
                        .unwrap();
                    h.set_scalar(
                        obj,
                        "value",
                        XdrValue::Int(scalars[0].as_int().unwrap() * 2),
                    )
                    .unwrap();
                    XdrValue::Int(0)
                }),
            },
        )
        .unwrap();
        let obj = ch.alloc_shared(Domain::Nucleus, "st").unwrap();
        ch.call(
            &kernel,
            Domain::Nucleus,
            "configure",
            &[Some(obj)],
            &[XdrValue::Int(21)],
        )
        .unwrap();
        let heap = ch.heap(Domain::Nucleus);
        let h = heap.borrow();
        (
            h.scalar(obj, "calls").unwrap().as_int().unwrap(),
            h.scalar(obj, "value").unwrap().as_int().unwrap(),
        )
    };
    // "eliminate any new bugs in our Java implementation by comparing its
    // behavior to that of the original C code".
    let c_version = run(Domain::Library);
    let managed_version = run(Domain::Decaf);
    assert_eq!(c_version, managed_version);
    assert_eq!(c_version, (1, 42));
}

/// §3.1.3: with the *original* spinlock-holding sound core, invoking a
/// blocking decaf driver records a violation; with the paper's
/// mutex-based core it is clean. This is why they modified the kernel.
#[test]
fn sound_core_spinlock_ablation() {
    for (mode, expect_violation) in [
        (SoundLockMode::Mutex, false),
        (SoundLockMode::Spinlock, true),
    ] {
        let k = Kernel::new();
        let _drv = decaf_core::drivers::ens1371::install_decaf(&k, "card0").unwrap();
        k.snd_set_lock_mode("card0", mode).unwrap();
        k.clear_violations();
        let _ = k.snd_pcm_open("card0");
        let has_violation = k.violations().iter().any(|v| {
            matches!(
                v.kind,
                ViolationKind::BlockingInAtomic | ViolationKind::UpcallInAtomic
            )
        });
        assert_eq!(
            has_violation,
            expect_violation,
            "mode {mode:?}: violations {:?}",
            k.violations()
        );
        let _ = k.snd_pcm_close("card0");
    }
}

/// §4.2: E1000 UDP with 1-byte messages — throughput parity with native,
/// the decaf build works at the smallest packet sizes too.
#[test]
fn e1000_udp_one_byte_messages() {
    let run = |decaf: bool| {
        let k = Kernel::new();
        if decaf {
            let _ = decaf_core::drivers::e1000::decaf::install(&k, "eth0").unwrap();
        } else {
            let _ = decaf_core::drivers::e1000::native::install(&k, "eth0").unwrap();
        }
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        decaf_core::drivers::workloads::netperf_send(&k, "eth0", 1, 2_000, 1).unwrap()
    };
    let native = run(false);
    let decaf = run(true);
    assert_eq!(native.ops, decaf.ops, "same packet count");
    let ratio = decaf.ops as f64 / native.ops as f64;
    assert!((0.99..=1.01).contains(&ratio));
    // CPU is "slightly higher" for decaf in the paper: allow equal or a
    // bit above, never lower by more than noise.
    assert!(decaf.cpu_util >= native.cpu_util * 0.95);
}

/// Partition invariants that must hold for every driver source:
/// completeness, closure of the kernel set, masks referring to real
/// fields, and entry points living in the user partition.
#[test]
fn slicer_invariants_hold_for_all_drivers() {
    for kind in DriverKind::all() {
        let program = parse::parse(kind.minic_source()).unwrap();
        let plan = slice(kind.minic_source(), &SliceConfig::default()).unwrap();

        // Completeness: every function is placed exactly once.
        let placed = plan.kernel_fns.len() + plan.library_fns.len() + plan.decaf_fns.len();
        assert_eq!(placed, program.functions.len(), "{}", kind.name());

        // Closure: a kernel function never calls a user function except
        // through an upcall entry point.
        let graph = CallGraph::build(&program);
        let user: std::collections::HashSet<_> = plan.user_fns.iter().map(String::as_str).collect();
        let entry: std::collections::HashSet<_> =
            plan.user_entry_points.iter().map(|e| &*e.name).collect();
        for kfn in &plan.kernel_fns {
            for callee in graph.calls.get(kfn).into_iter().flatten() {
                if user.contains(callee.as_str()) {
                    assert!(
                        entry.contains(callee.as_str()),
                        "{}: kernel `{kfn}` calls user `{callee}` without an entry point",
                        kind.name()
                    );
                }
            }
        }

        // Masks only name fields that exist in their structs.
        for s in &plan.boundary_structs {
            if let Some(mask) = plan.masks.mask(s) {
                let def = program.find_struct(s).unwrap();
                for (field, _) in mask.iter() {
                    assert!(
                        def.fields.iter().any(|f| f.name == field),
                        "{}: mask field `{s}.{field}` does not exist",
                        kind.name()
                    );
                }
            }
        }

        // Upcall entry points are user functions; downcall entry points
        // are kernel functions.
        for ep in &plan.user_entry_points {
            assert!(user.contains(&*ep.name), "{}: {}", kind.name(), ep.name);
        }
        for ep in &plan.kernel_entry_points {
            assert!(
                plan.kernel_fns.iter().any(|f| **f == *ep.name),
                "{}: {}",
                kind.name(),
                ep.name
            );
        }
    }
}

/// The masks of every driver spec transfer at least one field in each
/// direction (otherwise the split driver could not communicate results).
#[test]
fn every_driver_has_bidirectional_masks() {
    for kind in DriverKind::all() {
        let plan = slice(kind.minic_source(), &SliceConfig::default()).unwrap();
        let program = parse::parse(kind.minic_source()).unwrap();
        let mut any_in = false;
        let mut any_out = false;
        for s in &plan.boundary_structs {
            let def = program.find_struct(s).unwrap();
            for f in &def.fields {
                any_in |= plan.masks.includes(s, &f.name, Direction::In);
                any_out |= plan.masks.includes(s, &f.name, Direction::Out);
            }
        }
        assert!(any_in, "{}: nothing crosses inward", kind.name());
        assert!(any_out, "{}: nothing crosses outward", kind.name());
    }
}

/// Tentpole acceptance: on the *same* repeated-configuration call
/// sequence, the `Batched` transport + delta marshaling yields strictly
/// fewer one-way crossings and marshaled bytes than the seed `InProc`
/// per-call path — and the middle layer (delta alone) already cuts
/// bytes without changing crossing counts.
#[test]
fn batched_delta_transport_beats_seed_inproc_path() {
    let rows = decaf_core::experiments::transport_ablation();
    assert_eq!(rows.len(), 3);
    let (seed, delta, batch) = (&rows[0].m.channel, &rows[1].m.channel, &rows[2].m.channel);

    assert!(
        batch.one_way_crossings < seed.one_way_crossings,
        "batched {} vs seed {} one-way crossings",
        batch.one_way_crossings,
        seed.one_way_crossings
    );
    assert!(
        batch.bytes_in < seed.bytes_in,
        "batched {} vs seed {} bytes in",
        batch.bytes_in,
        seed.bytes_in
    );
    assert!(
        rows[2].m.busy_ns < rows[0].m.busy_ns,
        "batching + delta must also cost less virtual time"
    );
    // Delta alone: same crossings, fewer bytes.
    assert_eq!(delta.one_way_crossings, seed.one_way_crossings);
    assert!(delta.bytes_in < seed.bytes_in);
    // The batched flushes actually carried the deferred register writes.
    assert!(batch.flushes > 0 && batch.batched_calls >= 3 * batch.flushes);
}

/// All five decaf driver builds run their control paths over the batched
/// transport (the `Transport` trait's third implementation), and their
/// initialization actually exercises it: every build defers at least one
/// posted register write into a batched flush.
#[test]
fn all_five_decaf_builds_use_batched_transport() {
    use decaf_core::xpc::TransportKind;
    let k = Kernel::new();
    let checks: Vec<(&str, TransportKind, u64)> = vec![
        {
            let d = decaf_core::drivers::e1000::decaf::install(&k, "eth0").unwrap();
            (
                "E1000",
                d.channel.transport_kind(),
                d.channel.stats().batched_calls,
            )
        },
        {
            let d = decaf_core::drivers::rtl8139::install_decaf(&k, "eth1").unwrap();
            (
                "8139too",
                d.channel.transport_kind(),
                d.channel.stats().batched_calls,
            )
        },
        {
            let d = decaf_core::drivers::ens1371::install_decaf(&k, "card0").unwrap();
            (
                "ens1371",
                d.channel.transport_kind(),
                d.channel.stats().batched_calls,
            )
        },
        {
            let d = decaf_core::drivers::uhci::install_decaf(&k, "uhci0").unwrap();
            (
                "uhci-hcd",
                d.channel.transport_kind(),
                d.channel.stats().batched_calls,
            )
        },
        {
            let d = decaf_core::drivers::psmouse::install_decaf(&k, "mouse0").unwrap();
            (
                "psmouse",
                d.channel.transport_kind(),
                d.channel.stats().batched_calls,
            )
        },
    ];
    for (name, kind, batched) in checks {
        assert_eq!(kind, TransportKind::Batched, "{name} transport");
        assert!(batched > 0, "{name} deferred no calls during init");
    }
}

/// SharedObject guards compose with real driver channels: allocating a
/// scratch object for a one-off diagnostic call and dropping it leaks
/// nothing.
#[test]
fn shared_object_guard_with_real_driver() {
    let k = Kernel::new();
    let drv = decaf_core::drivers::e1000::decaf::install(&k, "eth0").unwrap();
    let before = drv.channel.heap(Domain::Nucleus).borrow().len();
    {
        let scratch =
            SharedObject::new(Rc::clone(&drv.channel), Domain::Nucleus, "e1000_tx_ring").unwrap();
        assert!(drv
            .channel
            .heap(Domain::Nucleus)
            .borrow()
            .contains(scratch.addr()));
    }
    assert_eq!(drv.channel.heap(Domain::Nucleus).borrow().len(), before);
}

/// The PR 2 acceptance claim at workload level: a netperf-shaped run on
/// the shmring e1000 build crosses zero payload bytes through the XDR
/// marshaler — the channel's marshaled-byte counters are identical no
/// matter the packet size, and throughput matches the kernel data path.
#[test]
fn shmring_netperf_crosses_zero_payload_bytes() {
    let run = |pkt_len: usize| {
        let k = Kernel::new();
        let drv = decaf_core::drivers::e1000::decaf::install_shmring(&k, "eth0").unwrap();
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let before = drv.channel.stats();
        let stats =
            decaf_core::drivers::workloads::netperf_send(&k, "eth0", 1, 2_000, pkt_len).unwrap();
        k.run_for(2 * decaf_core::simkernel::costs::DOORBELL_COALESCE_NS);
        let after = drv.channel.stats();
        assert!(k.violations().is_empty(), "{:?}", k.violations());
        (
            stats,
            after.bytes_in - before.bytes_in,
            after.bytes_out - before.bytes_out,
            after.ring_posts - before.ring_posts,
            k.net_stats("eth0"),
        )
    };
    let (small_stats, small_in, small_out, small_posts, small_net) = run(64);
    let (big_stats, big_in, big_out, big_posts, big_net) = run(1500);
    assert_eq!(small_stats.ops, 2_000);
    assert_eq!(big_stats.ops, 2_000);
    assert!(small_net.tx_packets >= 1_999, "{small_net:?}");
    assert!(big_net.tx_packets >= 1_999, "{big_net:?}");
    // 23× more payload, identical marshaled bytes: the payload rides the
    // ring, only descriptors and doorbells cross by value.
    assert_eq!(
        small_in, big_in,
        "marshaled bytes must not scale with payload"
    );
    assert_eq!(small_out, big_out);
    assert_eq!(small_posts, big_posts);
}

/// The copy audit across builds: the same transmit workload copies the
/// same payload bytes whether the data path is native (kernel),
/// decaf-with-kernel-data-path, or shmring-hosted at user level. A
/// double charge anywhere in the stack breaks the equality.
#[test]
fn copy_accounting_consistent_across_e1000_builds() {
    const PKTS: u64 = 50;
    const LEN: usize = 1000;
    let run = |install: &dyn Fn(&Kernel)| {
        let k = Kernel::new();
        install(&k);
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let before = k.stats().bytes_copied;
        for i in 0..PKTS {
            k.net_xmit(
                "eth0",
                decaf_core::simkernel::SkBuff::synthetic(LEN, i as u8, 0x0800),
            )
            .unwrap();
            k.schedule_point();
            k.run_for(300_000);
        }
        k.run_for(2 * decaf_core::simkernel::costs::DOORBELL_COALESCE_NS);
        let st = k.net_stats("eth0");
        assert_eq!(st.tx_packets, PKTS);
        assert_eq!(st.rx_packets, PKTS, "loopback delivers every frame");
        k.stats().bytes_copied - before
    };
    let native = run(&|k| {
        decaf_core::drivers::e1000::native::install(k, "eth0").unwrap();
    });
    let decaf = run(&|k| {
        decaf_core::drivers::e1000::decaf::install(k, "eth0").unwrap();
    });
    let shmring = run(&|k| {
        decaf_core::drivers::e1000::decaf::install_shmring(k, "eth0").unwrap();
    });
    // One copy into the device buffer (TX) + one into the stack (RX),
    // per packet, in every build.
    assert_eq!(native, 2 * PKTS * LEN as u64, "native copies");
    assert_eq!(decaf, native, "decaf build must copy exactly like native");
    assert_eq!(
        shmring, native,
        "shmring build must copy exactly like native"
    );
}

/// Adaptive batching (ROADMAP item): a lone deferred register write on a
/// batched transport flushes once the virtual-time deadline passes, via
/// the `flush_if_due` polling hook — low-rate control paths do not hold
/// posted writes indefinitely.
#[test]
fn adaptive_batching_flushes_lone_write_on_deadline() {
    use decaf_core::simkernel::costs::DOORBELL_COALESCE_NS;
    let k = Kernel::new();
    let spec = decaf_core::xdr::XdrSpec::parse("struct s { int x; };").unwrap();
    let ch = XpcChannel::new(
        spec,
        decaf_core::xdr::mask::MaskSet::full(),
        ChannelConfig::kernel_user_batched(),
        Domain::Nucleus,
        Domain::Decaf,
    );
    let hits = Rc::new(std::cell::Cell::new(0u32));
    let h = Rc::clone(&hits);
    ch.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "writel".into(),
            arg_types: vec![],
            handler: Rc::new(move |_, _, _, _| {
                h.set(h.get() + 1);
                XdrValue::Void
            }),
        },
    )
    .unwrap();
    ch.call_deferred(&k, Domain::Nucleus, "writel", &[], &[XdrValue::UInt(1)])
        .unwrap();
    assert_eq!(hits.get(), 0, "parked below capacity");
    assert!(!ch.flush_if_due(&k).unwrap(), "deadline not reached");
    k.run_for(DOORBELL_COALESCE_NS + 1);
    assert!(ch.flush_if_due(&k).unwrap(), "deadline flush fired");
    assert_eq!(hits.get(), 1, "the posted write landed");
    assert_eq!(ch.pending_deferred(), 0);
}

/// Fault injection on the sharded facade — the `examples/fault_recovery.rs`
/// scenario extended to multi-channel sharding: one shard's decaf end is
/// killed mid-burst and must requeue its parked calls onto the fresh
/// channel without double-applying deltas. Once a hand-written scenario,
/// now a *named instance* of the general fault sweep
/// (`decaf_core::sched::fault_sweep` + `tests/fault_harness`): the same
/// replay driver that explores every (step, shard) injection point in
/// `tests/shard_sched.rs` runs the historical plan here — kill shard 1
/// right after its second op — plus the double-fault variant (shard 1
/// dies again during the same burst) the hand-written case never tried.
/// The harness asserts exactly-once execution, the closed token ledger
/// and post-reset full-marshal convergence at every step.
#[test]
fn sharded_fault_recovery_requeues_without_double_applying_deltas() {
    use decaf_core::sched::{FaultPlan, FaultPoint};
    let schedule = [0usize, 1, 2, 0, 1, 2];
    fault_harness::run_nic_fault_schedule(3, &schedule, &FaultPlan::single(4, 1));
    fault_harness::run_nic_fault_schedule(
        3,
        &schedule,
        &FaultPlan::double(
            FaultPoint { step: 1, shard: 1 },
            FaultPoint { step: 4, shard: 1 },
        ),
    );
}

/// Fault injection on the *storage* sharded path — the uhci mirror of
/// the NIC case above: one shard's decaf end dies with URB requests
/// still parked (below the doorbell watermark) in its pinned submit
/// ring; recovery resets the dead end, requeues surviving control calls
/// and re-rings the doorbell, so every URB completes exactly once with
/// flash byte-identical to a fault-free hosting. Also now a named
/// instance of the general sweep (`tests/storage_sched.rs` explores
/// every injection point): the historical mid-burst plan plus a
/// double-fault variant, replayed on the driver-level harness against
/// the native-hosting golden flash image.
#[test]
fn sharded_storage_fault_recovery_redrains_pinned_urbs() {
    use decaf_core::sched::{FaultPlan, FaultPoint};
    let golden = fault_harness::storage_golden_flash(3, 2);
    let schedule = [0usize, 1, 2, 0, 1, 2];
    fault_harness::run_storage_fault_schedule(3, &schedule, &FaultPlan::single(3, 1), &golden);
    fault_harness::run_storage_fault_schedule(
        3,
        &schedule,
        &FaultPlan::double(
            FaultPoint { step: 2, shard: 2 },
            FaultPoint { step: 4, shard: 2 },
        ),
        &golden,
    );
}

/// The shmring rtl8139 build: the second NIC exposes the same user-level
/// data path, and its four-slot transmit pool applies backpressure
/// rather than overwriting in-flight buffers.
#[test]
fn shmring_rtl8139_runs_netperf_shape() {
    let k = Kernel::new();
    let drv = decaf_core::drivers::rtl8139::install_shmring(&k, "eth1").unwrap();
    k.netdev_open("eth1").unwrap();
    let before = drv.channel.stats();
    let stats = decaf_core::drivers::workloads::netperf_send(&k, "eth1", 1, 1_000, 1200).unwrap();
    k.run_for(3 * decaf_core::simkernel::costs::DOORBELL_COALESCE_NS);
    assert_eq!(stats.ops, 1_000);
    let st = k.net_stats("eth1");
    assert!(st.tx_packets >= 999, "{st:?}");
    let after = drv.channel.stats();
    assert!(after.doorbells > before.doorbells);
    assert!(
        (after.bytes_in + after.bytes_out) - (before.bytes_in + before.bytes_out)
            < st.tx_packets * 64,
        "payload must not reach the marshaler"
    );
    assert!(k.violations().is_empty(), "{:?}", k.violations());
}
