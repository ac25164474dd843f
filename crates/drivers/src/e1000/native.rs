//! Native (kernel-only) E1000 build: the Table 3 baseline.
//!
//! All logic runs in the kernel, including initialization and the
//! watchdog: the decaf build's own entry points, run on a
//! `support::Direct` hosting, so the only latency difference between the
//! two is the cost of crossing domains and marshaling, and the
//! allowances the bodies name.

use std::rc::Rc;

use decaf_simdev::E1000Device;
use decaf_simkernel::kernel::WorkBody;
use decaf_simkernel::{KResult, Kernel};

use super::{attach, E1000Hw, IRQ_LINE};
use crate::support::{self, Body, Direct, Io, Native, Unload};

/// Runs `body` on `hw` in the kernel; returns its errno and what it left
/// in `link_up`.
fn run(hw: &E1000Hw, k: &Kernel, body: Body) -> (i32, bool) {
    let nucleus = |k: &Kernel, proc: usize, args: &[_]| super::nucleus(hw, k, proc, args);
    let io = Direct::mmio(&hw.bar, &nucleus);
    (body(&io, k, &[]), io.get(super::LINK_UP) != 0)
}

/// Loads the native driver: attaches the device, probes, registers the
/// netdevice and the watchdog.
pub fn install(kernel: &Kernel, ifname: &str) -> KResult<Native<E1000Hw, E1000Device>> {
    let unload = Unload::new("e1000", IRQ_LINE, Kernel::unregister_netdev);
    let (bar, dma, dev) = attach();
    let hw = Rc::new(E1000Hw::new(bar, dma));
    let mut native = unload.native(kernel, ifname, (Rc::clone(&hw), dev), |k, unload| {
        support::kresult(run(&hw, k, super::probe).0)?;
        let (hw_open, hw_stop, hw_ops) = (Rc::clone(&hw), Rc::clone(&hw), Rc::clone(&hw));
        k.register_netdev(
            ifname,
            decaf_simkernel::net::NetDeviceOps {
                open: Rc::new(move |k| support::kresult(run(&hw_open, k, super::open).0)),
                stop: Rc::new(move |k| support::kresult(run(&hw_stop, k, super::close).0)),
                xmit: Rc::new(move |k, skb| hw_ops.xmit(k, skb)),
            },
        )?;
        let (hw_irq, name) = (Rc::clone(&hw), ifname.to_string());
        unload.request_irq(k, Rc::new(move |k| _ = hw_irq.handle_irq(k, &name)))
    })?;

    // The watchdog: a 2-second periodic timer. Native drivers can do the
    // link check directly from the deferred work item, whose body is built
    // here, once, and queued by handle.
    let watchdog_task: WorkBody = {
        let (hw, name) = (Rc::clone(&hw), ifname.to_string());
        Rc::new(move |k, _| {
            let (_, up) = run(&hw, k, super::watchdog);
            k.netif_carrier(&name, up);
        })
    };
    let unload = &mut native.unload;
    unload.arm_every(
        kernel,
        "e1000_watchdog",
        2_000_000_000,
        watchdog_task,
        || Some(0),
    );
    Ok(native)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_simkernel::SkBuff;

    #[test]
    fn install_open_transmit() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        assert!(drv.init_latency_ns > 0);
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        for _ in 0..5 {
            k.net_xmit("eth0", SkBuff::synthetic(1000, 7, 0x0800))
                .unwrap();
            k.schedule_point();
        }
        let st = k.net_stats("eth0");
        assert_eq!(st.tx_packets, 5);
        assert_eq!(st.rx_packets, 5);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn watchdog_keeps_carrier_fresh() {
        let k = Kernel::new();
        let _drv = install(&k, "eth0").unwrap();
        k.netdev_open("eth0").unwrap();
        k.run_for(5_000_000_000);
        assert!(k.carrier_ok("eth0"));
        assert!(k.stats().timers_fired >= 2, "watchdog fired every 2s");
    }

    #[test]
    fn remove_unregisters() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        drv.remove();
        assert!(!k.netdev_exists("eth0"));
        assert!(k.request_irq(IRQ_LINE, "again", Rc::new(|_| {})).is_ok());
    }
}
