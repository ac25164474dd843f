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
    /// Builds a packet of `len` bytes with a repeating fill pattern, in a
    /// buffer of its own — for callers without a kernel at hand; a packet
    /// source inside the simulation draws from [`Kernel::alloc_skb`].
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
/// The transmit callback: borrows one packet for the length of the call
/// (the stack keeps the buffer, and recycles it when the call returns).
pub type XmitOp = Rc<dyn Fn(&Kernel, &SkBuff) -> KResult<()>>;

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

crate::counters! {
    /// Per-device packet counters (`rtnl_link_stats`-alike).
    pub struct NetStats {
        /// Packets handed to the stack by the driver.
        rx_packets: sum,
        /// Bytes handed to the stack by the driver.
        rx_bytes: sum,
        /// Packets the driver reported as transmitted.
        tx_packets: sum,
        /// Bytes the driver reported as transmitted.
        tx_bytes: sum,
        /// Transmit attempts that failed.
        tx_errors: sum,
    }
}

struct NetDev {
    name: String,
    ops: NetDeviceOps,
    stats: NetStats,
    carrier: bool,
    open: bool,
}

/// Packet buffers the free list keeps at most: a burst of live packets
/// beyond it is served by the allocator and freed back to it. 32 MTU-sized
/// buffers are under 64 KiB.
const SKB_POOL_CAP: usize = 32;

/// Network-subsystem state stored inside the kernel. A machine has a
/// NIC or two, and the per-packet entry points find theirs by comparing
/// names, not by hashing one.
#[derive(Default)]
pub struct NetState {
    devices: Vec<NetDev>,
    /// Buffers of freed packets, waiting for the next
    /// [`Kernel::alloc_skb`]: alloc is a pop, free is a push, and the
    /// list goes with the kernel.
    free_skbs: Vec<Vec<u8>>,
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

    /// A packet of `len` bytes of `fill`, in a recycled buffer when the
    /// free list has one (like `alloc_skb`). Whatever the buffer held
    /// before is gone: the packet is exactly `len` bytes of `fill`.
    pub fn alloc_skb(&self, len: usize, fill: u8, protocol: u16) -> SkBuff {
        let recycled = self.inner().net.borrow_mut().free_skbs.pop();
        let mut data = recycled.unwrap_or_default();
        data.clear();
        data.resize(len, fill);
        SkBuff { data, protocol }
    }

    /// Gives a packet's buffer back to the free list (like `kfree_skb`);
    /// past the list's cap it is simply dropped.
    pub fn free_skb(&self, skb: SkBuff) {
        let mut net = self.inner().net.borrow_mut();
        if net.free_skbs.len() < SKB_POOL_CAP {
            net.free_skbs.push(skb.data);
        }
    }

    /// Transmits a packet through the driver (stack → driver). The driver
    /// borrows the packet; its buffer is recycled when the driver returns.
    pub fn net_xmit(&self, name: &str, skb: SkBuff) -> KResult<()> {
        let xmit = {
            let net = self.inner().net.borrow();
            let d = net.dev(name).filter(|d| d.open).ok_or(KError::NoDev)?;
            Rc::clone(&d.ops.xmit)
        };
        let result = xmit(self, &skb);
        self.free_skb(skb);
        if result.is_err() {
            if let Some(d) = self.inner().net.borrow_mut().dev_mut(name) {
                d.stats.tx_errors += 1;
            }
        }
        result
    }

    /// Delivers a received frame to the stack (driver → stack), like
    /// `netif_rx`. Charges per-byte copy cost. The frame is lent — a
    /// driver hands over its view of the receive buffer
    /// ([`DmaMemory::with_bytes`](crate::DmaMemory::with_bytes)); the
    /// stack's copy out of it is the charge, not a host allocation.
    pub fn netif_rx(&self, name: &str, frame: &[u8], _protocol: u16) -> KResult<()> {
        self.charge_copy(crate::CpuClass::Kernel, frame.len() as u64);
        let mut net = self.inner().net.borrow_mut();
        let d = net.dev_mut(name).ok_or(KError::NoDev)?;
        d.stats.rx_packets += 1;
        d.stats.rx_bytes += frame.len() as u64;
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
        k.netif_rx("eth0", &[1; 60], 0x0800).unwrap();
        k.netif_rx("eth0", &[2; 1500], 0x0800).unwrap();
        k.net_tx_done("eth0", 3, 4500);
        let st = k.net_stats("eth0");
        assert_eq!(st.rx_packets, 2);
        assert_eq!(st.rx_bytes, 1560);
        assert_eq!(st.tx_packets, 3);
        assert_eq!(st.tx_bytes, 4500);
    }

    #[test]
    fn lent_netif_rx_moves_what_the_owned_form_moved() {
        // What `netif_rx(name, SkBuff)` did to the counters and the clock
        // for a 60-byte and a 1,500-byte frame, pinned as numbers.
        let k = Kernel::new();
        let s = Rc::new(Cell::new(0));
        k.register_netdev("eth0", dummy_ops(s)).unwrap();
        k.netif_rx("eth0", &[1; 60], 0x0800).unwrap();
        assert_eq!((k.now_ns(), k.stats().bytes_copied), (60, 60));
        k.netif_rx("eth0", &[2; 1500], 0x0800).unwrap();
        assert_eq!((k.now_ns(), k.stats().bytes_copied), (1_560, 1_560));
        assert_eq!(k.snapshot().kernel_busy_ns, 1_560, "charged as kernel time");
        let st = k.net_stats("eth0");
        assert_eq!((st.rx_packets, st.rx_bytes), (2, 1_560));
        // No such device: the copy is still charged, nothing is counted.
        assert_eq!(k.netif_rx("eth9", &[0; 40], 0x0800), Err(KError::NoDev));
        assert_eq!((k.now_ns(), k.stats().bytes_copied), (1_600, 1_600));
        assert_eq!(k.net_stats("eth0").rx_packets, 2);
    }

    fn free_skbs(k: &Kernel) -> usize {
        k.inner().net.borrow().free_skbs.len()
    }

    #[test]
    fn a_recycled_skb_is_exactly_its_length_of_its_fill() {
        let k = Kernel::new();
        k.free_skb(k.alloc_skb(1500, 0xaa, 0x0800));
        assert_eq!(free_skbs(&k), 1);
        let skb = k.alloc_skb(64, 0x5b, 0x0806);
        assert_eq!(free_skbs(&k), 0, "drawn from the list");
        assert!(skb.data.capacity() >= 1500, "the longer packet's buffer");
        assert_eq!(skb, SkBuff::synthetic(64, 0x5b, 0x0806));
        // And growing back past the short packet refills every byte.
        k.free_skb(skb);
        assert_eq!(k.alloc_skb(900, 0x11, 0x0800).data, vec![0x11; 900]);
    }

    #[test]
    fn net_xmit_recycles_the_packet_whatever_the_driver_answers() {
        let k = Kernel::new();
        let sent = Rc::new(Cell::new(0));
        k.register_netdev("eth0", dummy_ops(Rc::clone(&sent)))
            .unwrap();
        k.netdev_open("eth0").unwrap();
        k.net_xmit("eth0", k.alloc_skb(700, 3, 0x0800)).unwrap();
        assert_eq!((sent.get(), free_skbs(&k)), (700, 1));
        let refusing = NetDeviceOps {
            xmit: Rc::new(|_, _| Err(KError::Busy)),
            ..dummy_ops(sent)
        };
        k.register_netdev("eth1", refusing).unwrap();
        k.netdev_open("eth1").unwrap();
        assert_eq!(k.net_xmit("eth1", k.alloc_skb(10, 0, 0)), Err(KError::Busy));
        assert_eq!(free_skbs(&k), 1, "one buffer went round twice");
    }

    #[test]
    fn the_free_list_stops_at_its_cap_and_goes_with_the_kernel() {
        let k = Kernel::new();
        let burst: Vec<SkBuff> = (0..SKB_POOL_CAP + 9)
            .map(|i| k.alloc_skb(256, i as u8, 0x0800))
            .collect();
        for skb in burst {
            k.free_skb(skb);
        }
        assert_eq!(free_skbs(&k), SKB_POOL_CAP, "the overflow was dropped");
        let weak = k.downgrade();
        drop(k);
        assert!(weak.upgrade().is_none(), "nothing pooled keeps the kernel");
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
