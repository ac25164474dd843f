//! Quickstart: slice a driver, load its decaf build, push traffic.
//!
//! Run with: `cargo run --example quickstart`

use decaf_core::simkernel::{Kernel, SkBuff};
use decaf_core::slicer::{slice, SliceConfig};
use decaf_core::xpc::Domain;

fn main() {
    // 1. DriverSlicer: partition the E1000 driver from its source.
    let source = decaf_core::drivers::DriverKind::E1000.minic_source();
    let plan = slice(source, &SliceConfig::default()).expect("slice");
    println!("== DriverSlicer ==");
    println!("kernel (nucleus) functions : {}", plan.kernel_fns.len());
    println!("decaf driver functions     : {}", plan.decaf_fns.len());
    println!("annotations in source      : {}", plan.annotations);
    println!(
        "upcall entry points        : {}",
        plan.user_entry_points.len()
    );
    println!(
        "functions moved to user    : {:.0}%",
        plan.user_fraction() * 100.0
    );

    // 2. Load the decaf build into a simulated kernel. The channel's XDR
    //    spec and field masks are the slicer's output.
    let kernel = Kernel::new();
    let drv = decaf_core::drivers::e1000::decaf::install(&kernel, "eth0").expect("install");
    println!("\n== insmod ==");
    println!(
        "init latency (virtual)     : {:.3} ms",
        drv.init_latency_ns as f64 / 1e6
    );
    println!("user/kernel crossings      : {}", drv.crossings());

    // 3. Bring the interface up and transmit: the data path never leaves
    //    the kernel.
    kernel.netdev_open("eth0").expect("open");
    kernel.schedule_point();
    let before = drv.crossings();
    for i in 0..100u32 {
        kernel
            .net_xmit("eth0", SkBuff::synthetic(1500, i as u8, 0x0800))
            .expect("xmit");
        kernel.schedule_point();
    }
    let stats = kernel.net_stats("eth0");
    println!("\n== traffic (loopback) ==");
    println!("tx packets                 : {}", stats.tx_packets);
    println!("rx packets                 : {}", stats.rx_packets);
    println!(
        "crossings during traffic   : {} (data path is kernel-only)",
        drv.crossings() - before
    );

    // 4. The shared adapter object lives in both domains; the nucleus
    //    sees what the decaf driver wrote.
    let heap = drv.channel.heap(Domain::Nucleus);
    let mac = heap.borrow().scalar(drv.root, "mac").unwrap().clone();
    println!(
        "\nMAC assembled by the decaf driver: {:02x?}",
        mac.as_opaque().unwrap()
    );
    assert!(kernel.violations().is_empty());
    println!("kernel rule violations     : 0");
}
