//! Load and unload the five decaf drivers over and over on fresh
//! machines and watch the process's peak resident set: it must not grow
//! with the number of loads.
//!
//! Run with: `cargo run --release --example reload_rss [loads...]`
//! (default `10 100 1000`; prints `VmHWM` after each cumulative count and
//! exits non-zero if the last reading exceeds the first by more than
//! [`SLACK_KIB`] — a per-load leak through image-level compiled state,
//! channel-owned scratch or a DMA region fails CI here instead of
//! waiting for a benchmark run).

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

/// Growth of `VmHWM` between the first and the last count that is still
/// "flat": allocator arenas settle over the first loads; a leak of even
/// one kilobyte per load is four times this by the thousandth.
const SLACK_KIB: u64 = 256;

fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> std::process::ExitCode {
    let mut targets: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a load count"))
        .collect();
    if targets.is_empty() {
        targets = vec![10, 100, 1000];
    }
    let mut done = 0;
    let mut readings = Vec::new();
    for target in targets {
        while done < target {
            load_five();
            done += 1;
        }
        let reading = vm_hwm_kib();
        match reading {
            Some(kib) => println!("{done:>6} five-driver loads: VmHWM {kib} KiB"),
            None => println!("{done:>6} five-driver loads: VmHWM unavailable on this platform"),
        }
        readings.extend(reading);
    }
    match (readings.first(), readings.last()) {
        (Some(first), Some(last)) if last.saturating_sub(*first) > SLACK_KIB => {
            eprintln!(
                "VmHWM grew {} KiB over the run (allowed: {SLACK_KIB})",
                last - first
            );
            std::process::ExitCode::FAILURE
        }
        _ => std::process::ExitCode::SUCCESS,
    }
}
