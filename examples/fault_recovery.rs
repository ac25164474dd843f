//! Fault isolation: a panicking decaf driver does not take the kernel
//! down; the decaf runtime restarts it and the driver keeps working.
//!
//! Run with: `cargo run --example fault_recovery`

use std::rc::Rc;

use decaf_core::simkernel::Kernel;
use decaf_core::xdr::XdrValue;
use decaf_core::xpc::{DecafRuntime, Domain, ProcDef, XpcError};

fn main() {
    let kernel = Kernel::new();
    let drv = decaf_core::drivers::e1000::decaf::install(&kernel, "eth0").expect("install");

    // Plant a buggy decaf handler (a null dereference in user code).
    let buggy_diag = drv
        .channel
        .register_proc(
            Domain::Decaf,
            ProcDef {
                name: "e1000_buggy_diag".into(),
                arg_types: vec![],
                handler: Rc::new(|_, _, _, _| panic!("NullPointerException in decaf driver")),
            },
        )
        .unwrap();

    // The kernel invokes it; the fault is contained in the XPC layer.
    let err = drv.nuc.upcall(&kernel, buggy_diag, &[], &[]).unwrap_err();
    match &err {
        XpcError::DecafFault(msg) => println!("decaf driver fault caught: {msg}"),
        other => println!("unexpected: {other}"),
    }
    println!("kernel still running at t={} ns", kernel.now_ns());
    println!("channel faults recorded: {}", drv.channel.stats().faults);

    // Restart the decaf driver (clears its heap and tracker) and re-probe.
    let decaf_rt = DecafRuntime::new(Rc::clone(&drv.channel));
    decaf_rt.restart().expect("restart");
    println!("decaf driver restarted (restart #{})", decaf_rt.restarts());

    let probe = drv.channel.resolve_proc(Domain::Nucleus, "e1000_probe");
    let ret = drv
        .nuc
        .upcall(
            &kernel,
            probe.expect("probe registered"),
            &[Some(drv.root)],
            &[],
        )
        .expect("re-probe after restart");
    assert_eq!(ret, XdrValue::Int(0));
    println!("re-probe after restart: OK");

    // The device keeps serving traffic.
    kernel.netdev_open("eth0").expect("open");
    kernel.schedule_point();
    for _ in 0..10 {
        kernel
            .net_xmit(
                "eth0",
                decaf_core::simkernel::SkBuff::synthetic(800, 1, 0x0800),
            )
            .expect("xmit");
        kernel.schedule_point();
    }
    println!(
        "post-recovery traffic: {} packets",
        kernel.net_stats("eth0").rx_packets
    );
}
