//! Native (kernel-only) E1000 build: the Table 3 baseline.
//!
//! All logic runs in the kernel, including initialization and the
//! watchdog. The initialization sequence mirrors the decaf build step for
//! step so the only latency difference between the two is the cost of
//! crossing domains and marshaling.

use std::rc::Rc;

use decaf_simdev::E1000Device;
use decaf_simkernel::kernel::WorkBody;
use decaf_simkernel::{KResult, Kernel};

use super::{attach, E1000Hw, IRQ_LINE};
use crate::support::{Native, Unload};

/// Loads the native driver: attaches the device, probes, registers the
/// netdevice and the watchdog.
pub fn install(kernel: &Kernel, ifname: &str) -> KResult<Native<E1000Hw, E1000Device>> {
    let mut unload = Unload::new("e1000", IRQ_LINE, Kernel::unregister_netdev);
    let (bar, dma, dev) = attach();
    let hw = Rc::new(E1000Hw::new(bar, dma));

    let init_latency_ns = unload.init(kernel, |k| {
        // The same logical steps the decaf build runs through XPC:
        // sw_init, check_options, EEPROM, reset, PHY link setup.
        let _mac = hw.read_mac(k);
        let _checksum = hw.eeprom_read(k, 63);
        hw.reset(k);
        let _ctrl = hw.phy_read(k, 0);
        hw.phy_write(k, 0, 0x1140);
        hw.phy_write(k, 4, 0x0de0);
        hw.phy_write(k, 9, 0x0300);
        let _status = hw.phy_read(k, 1);
        // The Figure 5 DSP sequence.
        for (reg, val) in [
            (29u32, 0x001f_u16),
            (30, 0x0646),
            (29, 0x001b),
            (30, 0x8fae),
        ] {
            hw.phy_write(k, reg, val);
        }
        let _ = hw.phy_read(k, 30);

        let hw_ops = Rc::clone(&hw);
        let hw_open = Rc::clone(&hw);
        let hw_stop = Rc::clone(&hw);
        k.register_netdev(
            ifname,
            decaf_simkernel::net::NetDeviceOps {
                open: Rc::new(move |k| {
                    hw_open.setup_tx(k)?;
                    hw_open.setup_rx(k)?;
                    hw_open.up(k);
                    Ok(())
                }),
                stop: Rc::new(move |k| {
                    hw_stop.down(k);
                    Ok(())
                }),
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
            let up = hw.link_up(k);
            k.netif_carrier(&name, up);
        })
    };
    unload.arm_every(
        kernel,
        "e1000_watchdog",
        2_000_000_000,
        watchdog_task,
        || Some(0),
    );

    Ok(Native {
        kernel: kernel.clone(),
        hw,
        name: ifname.to_string(),
        init_latency_ns,
        dev,
        unload,
    })
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
