//! Load and unload the five decaf drivers over and over on fresh
//! machines and watch the process's peak resident set: it must not grow
//! with the number of loads.
//!
//! Run with: `cargo run --release --example reload_rss [loads...]`
//! (default `10 100 1000`; prints `VmHWM` after each cumulative count).

use decaf_core::drivers::{e1000, ens1371, psmouse, rtl8139, uhci};
use decaf_core::simkernel::Kernel;

/// One machine's life, unloaded the way the `ctl_init` benchmark does it:
/// the two NICs by `remove`, the other three by drop, then the kernel.
fn load_five() {
    let k = Kernel::new();
    let e = e1000::decaf::install(&k, "eth0").expect("e1000");
    let r = rtl8139::install_decaf(&k, "eth1").expect("rtl8139");
    let s = ens1371::install_decaf(&k, "card0").expect("ens1371");
    let u = uhci::install_decaf(&k, "uhci0").expect("uhci");
    let m = psmouse::install_decaf(&k, "mouse0").expect("psmouse");
    k.netdev_open("eth0").expect("eth0");
    k.netdev_open("eth1").expect("eth1");
    k.schedule_point();
    k.run_for(2_000_000_000);
    e.remove();
    r.remove();
    drop((s, u, m));
}

fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let mut targets: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a load count"))
        .collect();
    if targets.is_empty() {
        targets = vec![10, 100, 1000];
    }
    let mut done = 0;
    for target in targets {
        while done < target {
            load_five();
            done += 1;
        }
        match vm_hwm_kib() {
            Some(kib) => println!("{done:>6} five-driver loads: VmHWM {kib} KiB"),
            None => println!("{done:>6} five-driver loads: VmHWM unavailable on this platform"),
        }
    }
}
