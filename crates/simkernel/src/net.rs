//! Network stack: `sk_buff`s, netdevice registration, transmit/receive.

use std::rc::Rc;

use crate::error::{KError, KResult};
use crate::kernel::Kernel;

/// A socket buffer: the unit of packet data in the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkBuff {
    /// Packet payload (includes the Ethernet header in this model).
    pub data: Vec<u8>,
    /// Ethernet protocol id (e.g. `0x0800` for IPv4).
    pub protocol: u16,
}

impl SkBuff {
    /// Builds a packet of `len` bytes with a repeating fill pattern.
    pub fn synthetic(len: usize, fill: u8, protocol: u16) -> Self {
        SkBuff {
            data: vec![fill; len],
            protocol,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the packet is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A fallible driver callback taking only the kernel handle.
pub type KernelOp = Rc<dyn Fn(&Kernel) -> KResult<()>>;
/// The transmit callback: consumes one packet.
pub type XmitOp = Rc<dyn Fn(&Kernel, SkBuff) -> KResult<()>>;

/// Driver callbacks for a network device (`net_device_ops`).
#[derive(Clone)]
pub struct NetDeviceOps {
    /// Brings the interface up (`ndo_open`).
    pub open: KernelOp,
    /// Brings the interface down (`ndo_stop`).
    pub stop: KernelOp,
    /// Transmits one packet (`ndo_start_xmit`).
    pub xmit: XmitOp,
}

/// Per-device packet counters (`rtnl_link_stats`-alike).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Packets handed to the stack by the driver.
    pub rx_packets: u64,
    /// Bytes handed to the stack by the driver.
    pub rx_bytes: u64,
    /// Packets the driver reported as transmitted.
    pub tx_packets: u64,
    /// Bytes the driver reported as transmitted.
    pub tx_bytes: u64,
    /// Transmit attempts that failed.
    pub tx_errors: u64,
}

struct NetDev {
    name: String,
    ops: NetDeviceOps,
    stats: NetStats,
    carrier: bool,
    open: bool,
}

/// Network-subsystem state stored inside the kernel. A machine has a
/// NIC or two, and the per-packet entry points find theirs by comparing
/// names, not by hashing one.
#[derive(Default)]
pub struct NetState {
    devices: Vec<NetDev>,
}

impl NetState {
    fn dev(&self, name: &str) -> Option<&NetDev> {
        self.devices.iter().find(|d| d.name == name)
    }

    fn dev_mut(&mut self, name: &str) -> Option<&mut NetDev> {
        self.devices.iter_mut().find(|d| d.name == name)
    }
}

impl Kernel {
    /// Registers a network device (like `register_netdev`).
    pub fn register_netdev(&self, name: impl Into<String>, ops: NetDeviceOps) -> KResult<()> {
        let name = name.into();
        let mut net = self.inner().net.borrow_mut();
        if net.dev(&name).is_some() {
            return Err(KError::Busy);
        }
        net.devices.push(NetDev {
            name,
            ops,
            stats: NetStats::default(),
            carrier: false,
            open: false,
        });
        Ok(())
    }

    /// Unregisters a network device.
    pub fn unregister_netdev(&self, name: &str) {
        let mut net = self.inner().net.borrow_mut();
        net.devices.retain(|d| d.name != name);
    }

    /// Whether a device with this name is registered.
    pub fn netdev_exists(&self, name: &str) -> bool {
        self.inner().net.borrow().dev(name).is_some()
    }

    fn netdev_ops(&self, name: &str) -> KResult<NetDeviceOps> {
        let net = self.inner().net.borrow();
        net.dev(name).map(|d| d.ops.clone()).ok_or(KError::NoDev)
    }

    /// Brings the interface up, invoking the driver's `open`.
    pub fn netdev_open(&self, name: &str) -> KResult<()> {
        let ops = self.netdev_ops(name)?;
        (ops.open)(self)?;
        if let Some(d) = self.inner().net.borrow_mut().dev_mut(name) {
            d.open = true;
        }
        Ok(())
    }

    /// Brings the interface down, invoking the driver's `stop`.
    pub fn netdev_stop(&self, name: &str) -> KResult<()> {
        let ops = self.netdev_ops(name)?;
        (ops.stop)(self)?;
        if let Some(d) = self.inner().net.borrow_mut().dev_mut(name) {
            d.open = false;
        }
        Ok(())
    }

    /// Transmits a packet through the driver (stack → driver).
    pub fn net_xmit(&self, name: &str, skb: SkBuff) -> KResult<()> {
        let xmit = {
            let net = self.inner().net.borrow();
            let d = net.dev(name).filter(|d| d.open).ok_or(KError::NoDev)?;
            Rc::clone(&d.ops.xmit)
        };
        let result = xmit(self, skb);
        if result.is_err() {
            if let Some(d) = self.inner().net.borrow_mut().dev_mut(name) {
                d.stats.tx_errors += 1;
            }
        }
        result
    }

    /// Delivers a received packet to the stack (driver → stack), like
    /// `netif_rx`. Charges per-byte copy cost.
    pub fn netif_rx(&self, name: &str, skb: SkBuff) -> KResult<()> {
        self.charge_copy(crate::CpuClass::Kernel, skb.len() as u64);
        let mut net = self.inner().net.borrow_mut();
        let d = net.dev_mut(name).ok_or(KError::NoDev)?;
        d.stats.rx_packets += 1;
        d.stats.rx_bytes += skb.len() as u64;
        Ok(())
    }

    /// Records completed transmissions (driver bookkeeping on TX IRQ).
    pub fn net_tx_done(&self, name: &str, packets: u64, bytes: u64) {
        if let Some(d) = self.inner().net.borrow_mut().dev_mut(name) {
            d.stats.tx_packets += packets;
            d.stats.tx_bytes += bytes;
        }
    }

    /// Sets link carrier state (like `netif_carrier_on`/`_off`).
    pub fn netif_carrier(&self, name: &str, on: bool) {
        if let Some(d) = self.inner().net.borrow_mut().dev_mut(name) {
            d.carrier = on;
        }
    }

    /// Reads link carrier state.
    pub fn carrier_ok(&self, name: &str) -> bool {
        let net = self.inner().net.borrow();
        net.dev(name).is_some_and(|d| d.carrier)
    }

    /// Reads the device's packet counters.
    pub fn net_stats(&self, name: &str) -> NetStats {
        let net = self.inner().net.borrow();
        net.dev(name).map(|d| d.stats).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn dummy_ops(sent: Rc<Cell<u64>>) -> NetDeviceOps {
        NetDeviceOps {
            open: Rc::new(|_| Ok(())),
            stop: Rc::new(|_| Ok(())),
            xmit: Rc::new(move |_, skb| {
                sent.set(sent.get() + skb.len() as u64);
                Ok(())
            }),
        }
    }

    #[test]
    fn register_open_xmit_flow() {
        let k = Kernel::new();
        let sent = Rc::new(Cell::new(0));
        k.register_netdev("eth0", dummy_ops(Rc::clone(&sent)))
            .unwrap();
        assert!(k.netdev_exists("eth0"));
        // Transmit before open fails.
        assert_eq!(
            k.net_xmit("eth0", SkBuff::synthetic(100, 0xab, 0x0800)),
            Err(KError::NoDev)
        );
        k.netdev_open("eth0").unwrap();
        k.net_xmit("eth0", SkBuff::synthetic(100, 0xab, 0x0800))
            .unwrap();
        assert_eq!(sent.get(), 100);
        k.netdev_stop("eth0").unwrap();
    }

    #[test]
    fn duplicate_registration_rejected() {
        let k = Kernel::new();
        let s = Rc::new(Cell::new(0));
        k.register_netdev("eth0", dummy_ops(Rc::clone(&s))).unwrap();
        assert_eq!(k.register_netdev("eth0", dummy_ops(s)), Err(KError::Busy));
    }

    #[test]
    fn stats_accumulate() {
        let k = Kernel::new();
        let s = Rc::new(Cell::new(0));
        k.register_netdev("eth0", dummy_ops(s)).unwrap();
        k.netif_rx("eth0", SkBuff::synthetic(60, 1, 0x0800))
            .unwrap();
        k.netif_rx("eth0", SkBuff::synthetic(1500, 2, 0x0800))
            .unwrap();
        k.net_tx_done("eth0", 3, 4500);
        let st = k.net_stats("eth0");
        assert_eq!(st.rx_packets, 2);
        assert_eq!(st.rx_bytes, 1560);
        assert_eq!(st.tx_packets, 3);
        assert_eq!(st.tx_bytes, 4500);
    }

    #[test]
    fn carrier_toggles() {
        let k = Kernel::new();
        let s = Rc::new(Cell::new(0));
        k.register_netdev("eth0", dummy_ops(s)).unwrap();
        assert!(!k.carrier_ok("eth0"));
        k.netif_carrier("eth0", true);
        assert!(k.carrier_ok("eth0"));
    }

    #[test]
    fn xmit_error_counts() {
        let k = Kernel::new();
        let ops = NetDeviceOps {
            open: Rc::new(|_| Ok(())),
            stop: Rc::new(|_| Ok(())),
            xmit: Rc::new(|_, _| Err(KError::Busy)),
        };
        k.register_netdev("eth0", ops).unwrap();
        k.netdev_open("eth0").unwrap();
        assert_eq!(
            k.net_xmit("eth0", SkBuff::synthetic(10, 0, 0)),
            Err(KError::Busy)
        );
        assert_eq!(k.net_stats("eth0").tx_errors, 1);
    }
}
