//! Cross-crate integration tests: the full pipeline from mini-C source
//! through DriverSlicer to a running split driver over XPC.

use std::rc::Rc;

use decaf_core::drivers::{workloads, DriverKind};
use decaf_core::simkernel::{Kernel, SkBuff, ViolationKind};
use decaf_core::slicer::{slice, SliceConfig};
use decaf_core::xpc::Domain;

/// Every driver's mini-C source parses, slices, and produces a valid XDR
/// spec whose IDL round-trips through the XDR parser.
#[test]
fn all_driver_sources_slice_and_generate_valid_xdr() {
    for kind in DriverKind::all() {
        let plan = slice(kind.minic_source(), &SliceConfig::default())
            .unwrap_or_else(|e| panic!("{} failed to slice: {e}", kind.name()));
        assert!(
            !plan.kernel_fns.is_empty(),
            "{} has kernel functions",
            kind.name()
        );
        assert!(
            !plan.decaf_fns.is_empty(),
            "{} has decaf functions",
            kind.name()
        );
        assert!(
            !plan.user_entry_points.is_empty(),
            "{} has upcall entry points",
            kind.name()
        );
        let idl = plan.spec.to_idl();
        decaf_core::xdr::XdrSpec::parse(&idl)
            .unwrap_or_else(|e| panic!("{} generated invalid XDR: {e}\n{idl}", kind.name()));
    }
}

/// The slicer's split source trees re-parse, and the partition of the
/// re-parsed user tree matches the plan (the user tree contains exactly
/// the user functions).
#[test]
fn split_source_trees_reparse_consistently() {
    for kind in DriverKind::all() {
        let program = decaf_core::slicer::parse::parse(kind.minic_source()).unwrap();
        let plan = slice(kind.minic_source(), &SliceConfig::default()).unwrap();
        let out = decaf_core::slicer::emit::split_source(&program, &plan, kind.name());
        let user = decaf_core::slicer::parse::parse(&out.user)
            .unwrap_or_else(|e| panic!("{} user tree: {e}", kind.name()));
        for f in &plan.user_fns {
            assert!(
                user.find_function(f).is_some(),
                "{}: `{f}` missing from user tree",
                kind.name()
            );
        }
        for f in &plan.kernel_fns {
            assert!(
                user.find_function(f).is_none(),
                "{}: kernel `{f}` leaked into user tree",
                kind.name()
            );
        }
    }
}

/// All five decaf builds install, initialize through XPC, run their
/// workload, and never violate a kernel rule.
#[test]
fn all_five_decaf_builds_run_their_workloads_cleanly() {
    // 8139too.
    {
        let k = Kernel::new();
        let drv = decaf_core::drivers::rtl8139::install_decaf(&k, "eth0").unwrap();
        k.netdev_open("eth0").unwrap();
        let s = workloads::netperf_send(&k, "eth0", 1, 500, 1500).unwrap();
        assert_eq!(s.ops, 500);
        assert!(k.violations().is_empty(), "8139too: {:?}", k.violations());
        assert!(drv.crossings() > 0);
    }
    // E1000.
    {
        let k = Kernel::new();
        let drv = decaf_core::drivers::e1000::decaf::install(&k, "eth0").unwrap();
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let s = workloads::netperf_send(&k, "eth0", 1, 1000, 1500).unwrap();
        assert_eq!(s.ops, 1000);
        assert!(k.violations().is_empty(), "e1000: {:?}", k.violations());
        assert!(drv.crossings() > 10);
    }
    // ens1371.
    {
        let k = Kernel::new();
        let drv = decaf_core::drivers::ens1371::install_decaf(&k, "card0").unwrap();
        let s = workloads::mpg123(&k, "card0", 1).unwrap();
        assert_eq!(s.ops, 44_100);
        assert!(k.violations().is_empty(), "ens1371: {:?}", k.violations());
        assert!(drv.crossings() > 0);
    }
    // uhci-hcd.
    {
        let k = Kernel::new();
        let drv = decaf_core::drivers::uhci::install_decaf(&k, "uhci0").unwrap();
        let s = workloads::tar_to_flash(&k, "uhci0", 2, 8).unwrap();
        assert_eq!(s.ops, 16);
        assert_eq!(drv.dev.borrow().flash_sector_count(), 16);
        assert!(k.violations().is_empty(), "uhci: {:?}", k.violations());
    }
    // psmouse.
    {
        let k = Kernel::new();
        let drv = decaf_core::drivers::psmouse::install_decaf(&k, "mouse0").unwrap();
        let dev = Rc::clone(&drv.dev);
        let s = workloads::move_and_click(&k, "mouse0", 1, 50, &move |k, dx, dy, b| {
            dev.borrow_mut().inject_move(k, dx, dy, b);
        })
        .unwrap();
        assert!(s.ops >= 100);
        assert!(k.violations().is_empty(), "psmouse: {:?}", k.violations());
    }
}

/// The object tracker keeps one user-level copy per shared object across
/// many upcalls, and masks keep kernel-private state at home.
#[test]
fn shared_adapter_is_tracked_not_duplicated() {
    let k = Kernel::new();
    let drv = decaf_core::drivers::e1000::decaf::install(&k, "eth0").unwrap();
    let decaf_objects_after_init = drv.channel.heap(Domain::Decaf).borrow().len();
    // Force many watchdog upcalls (each carries the adapter).
    k.netdev_open("eth0").unwrap();
    k.run_for(20_000_000_000);
    assert_eq!(
        drv.channel.heap(Domain::Decaf).borrow().len(),
        decaf_objects_after_init,
        "repeat transfers must update, not duplicate"
    );
}

/// An upcall attempted from interrupt context is flagged by the kernel —
/// the rule the whole §3.1.3 machinery (IRQ disabling, timer deferral,
/// mutex sound core) exists to uphold.
#[test]
fn upcall_from_interrupt_context_is_flagged() {
    let k = Kernel::new();
    let drv = decaf_core::drivers::e1000::decaf::install(&k, "eth0").unwrap();
    let nuc = Rc::clone(&drv.nuc);
    let adapter = drv.root;
    let watchdog = drv
        .channel
        .resolve_proc(Domain::Nucleus, "e1000_watchdog_task")
        .unwrap();
    let t = k.timer_create(
        "bad_timer",
        Rc::new(move |k| {
            // A timer (softirq) calling the decaf driver directly: illegal.
            let _ = nuc.upcall(k, watchdog, &[Some(adapter)], &[]);
        }),
    );
    k.timer_arm(t, 1_000);
    k.run_for(10_000);
    assert!(
        k.violations()
            .iter()
            .any(|v| v.kind == ViolationKind::UpcallInAtomic),
        "violations: {:?}",
        k.violations()
    );
}

/// Native and decaf builds deliver identical packet streams (functional
/// equivalence of the split).
#[test]
fn native_and_decaf_e1000_are_functionally_equivalent() {
    let run = |decaf: bool| -> (u64, u64) {
        let k = Kernel::new();
        if decaf {
            let _d = decaf_core::drivers::e1000::decaf::install(&k, "eth0").unwrap();
        } else {
            let _n = decaf_core::drivers::e1000::native::install(&k, "eth0").unwrap();
        }
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        for i in 0..50u32 {
            k.net_xmit(
                "eth0",
                SkBuff::synthetic(64 + i as usize * 7, i as u8, 0x0800),
            )
            .unwrap();
            k.schedule_point();
        }
        let st = k.net_stats("eth0");
        (st.rx_packets, st.rx_bytes)
    };
    assert_eq!(run(false), run(true));
}

/// The audit pass finds the planted ignored-return bugs in the E1000
/// source and no false positives in fully-checked functions.
#[test]
fn audit_findings_are_stable() {
    let f = decaf_core::figures::figure5();
    assert!(f.ignored_returns >= 2);
    assert!(f.propagation_lines >= 8);
    // config_dsp-style functions are clean.
    let program = decaf_core::slicer::parse::parse(DriverKind::E1000.minic_source()).unwrap();
    let report = decaf_core::slicer::audit::audit(&program);
    assert!(
        !report
            .ignored_returns
            .iter()
            .any(|f| f.function == "e1000_config_dsp_after_link_change"
                && f.callee == "phy_read"
                && f.line < 5),
        "no false positives on the checked preamble"
    );
}
