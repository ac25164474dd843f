//! The Intel E1000 gigabit driver: shared hardware logic, native build,
//! decaf build, and the mini-C source for DriverSlicer.

pub mod decaf;
pub mod minic;
pub mod native;

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use decaf_shmring::BufPool;
use decaf_simdev::e1000 as hwreg;
use decaf_simdev::E1000Device;
use decaf_simkernel::{DmaMemory, KError, KResult, Kernel, MmioHandle, MmioRegion, SkBuff};
use decaf_slicer::{slice, SliceConfig, SlicePlan};

use crate::ringnic::{IrqCause, RingNic};

/// Descriptors per ring.
pub const N_DESC: u32 = 64;
/// Per-buffer size.
pub const BUF_SIZE: usize = 2048;
/// DMA offset of the transmit descriptor ring.
pub const TX_RING_OFF: usize = 0x0000;
/// DMA offset of the receive descriptor ring.
pub const RX_RING_OFF: usize = 0x0400;
/// DMA offset of the first transmit buffer.
pub const TX_BUF_OFF: usize = 0x1_0000;
/// DMA offset of the first receive buffer.
pub const RX_BUF_OFF: usize = 0x3_0000;
/// The MAC programmed into the simulated EEPROM.
pub const MAC: [u8; 6] = [0x00, 0x1b, 0x21, 0x6a, 0x7b, 0x8c];
/// IRQ line the platform assigns the adapter.
pub const IRQ_LINE: u32 = 11;

/// The driver image: DriverSlicer's output for [`minic::SOURCE`] —
/// partition, entry points, XDR spec, field masks. In the paper this is
/// a build-time artefact compiled into the nucleus and the decaf driver;
/// here it is built on first use and shared immutably by every load
/// (`insmod` links a prebuilt image, it does not re-slice the source).
pub fn image() -> Arc<SlicePlan> {
    static IMAGE: OnceLock<Arc<SlicePlan>> = OnceLock::new();
    crate::support::shared_image(&IMAGE, || slice(minic::SOURCE, &SliceConfig::default()))
}

/// Creates the device model.
///
/// Returns the register window, the DMA region, and a handle to the
/// model (workloads use it to inject external traffic).
pub fn attach() -> (MmioRegion, DmaMemory, Rc<RefCell<E1000Device>>) {
    let dma = DmaMemory::new(512 * 1024);
    let dev = Rc::new(RefCell::new(E1000Device::new(MAC, IRQ_LINE, dma.clone())));
    let handle: MmioHandle = dev.clone();
    (MmioRegion::new(handle), dma, dev)
}

/// Kernel-resident E1000 hardware state: descriptor rings and the
/// register window. Shared verbatim by the native and decaf builds — the
/// data path never leaves the kernel in either.
pub struct E1000Hw {
    /// BAR 0 register window.
    pub bar: MmioRegion,
    /// Shared DMA region.
    pub dma: DmaMemory,
    next_tx: Cell<u32>,
    next_rx: Cell<u32>,
    tx_inflight_bytes: Cell<u64>,
    tx_inflight_pkts: Cell<u64>,
}

impl E1000Hw {
    /// Wraps the register window and DMA region.
    pub fn new(bar: MmioRegion, dma: DmaMemory) -> Self {
        E1000Hw {
            bar,
            dma,
            next_tx: Cell::new(0),
            next_rx: Cell::new(0),
            tx_inflight_bytes: Cell::new(0),
            tx_inflight_pkts: Cell::new(0),
        }
    }

    /// Reads one EEPROM word through EERD.
    pub fn eeprom_read(&self, kernel: &Kernel, word: u32) -> u16 {
        self.bar.write32(kernel, hwreg::EERD, (word << 8) | 1);
        (self.bar.read32(kernel, hwreg::EERD) >> 16) as u16
    }

    /// Reads the MAC address from the EEPROM.
    pub fn read_mac(&self, kernel: &Kernel) -> [u8; 6] {
        let w0 = self.eeprom_read(kernel, 0).to_le_bytes();
        let w1 = self.eeprom_read(kernel, 1).to_le_bytes();
        let w2 = self.eeprom_read(kernel, 2).to_le_bytes();
        [w0[0], w0[1], w1[0], w1[1], w2[0], w2[1]]
    }

    /// Reads a PHY register through MDIC.
    pub fn phy_read(&self, kernel: &Kernel, reg: u32) -> u16 {
        self.bar
            .write32(kernel, hwreg::MDIC, (0b10 << 26) | ((reg & 0x1f) << 16));
        (self.bar.read32(kernel, hwreg::MDIC) & 0xffff) as u16
    }

    /// Writes a PHY register through MDIC.
    pub fn phy_write(&self, kernel: &Kernel, reg: u32, value: u16) {
        self.bar.write32(
            kernel,
            hwreg::MDIC,
            (0b01 << 26) | ((reg & 0x1f) << 16) | value as u32,
        );
    }

    /// Issues a software reset.
    pub fn reset(&self, kernel: &Kernel) {
        self.bar.write32(kernel, hwreg::CTRL, hwreg::CTRL_RST);
        self.next_tx.set(0);
        self.next_rx.set(0);
    }

    /// Programs the transmit ring registers.
    pub fn setup_tx(&self, kernel: &Kernel) -> KResult<()> {
        self.bar.write32(kernel, hwreg::TDBAL, TX_RING_OFF as u32);
        self.bar
            .write32(kernel, hwreg::TDLEN, N_DESC * hwreg::DESC_SIZE as u32);
        self.bar.write32(kernel, hwreg::TDH, 0);
        self.bar.write32(kernel, hwreg::TDT, 0);
        self.bar.write32(kernel, hwreg::TCTL, hwreg::TCTL_EN);
        self.next_tx.set(0);
        Ok(())
    }

    /// Fills the receive ring with buffers and enables the receiver.
    pub fn setup_rx(&self, kernel: &Kernel) -> KResult<()> {
        for i in 0..N_DESC as usize {
            let desc = RX_RING_OFF + i * hwreg::DESC_SIZE;
            self.dma.write_u64(desc, (RX_BUF_OFF + i * BUF_SIZE) as u64);
            self.dma.write_u32(desc + 8, 0);
            self.dma.write_u32(desc + 12, 0);
        }
        self.bar.write32(kernel, hwreg::RDBAL, RX_RING_OFF as u32);
        self.bar
            .write32(kernel, hwreg::RDLEN, N_DESC * hwreg::DESC_SIZE as u32);
        self.bar.write32(kernel, hwreg::RDH, 0);
        self.bar.write32(kernel, hwreg::RDT, N_DESC - 1);
        self.bar.write32(kernel, hwreg::RCTL, hwreg::RCTL_EN);
        self.next_rx.set(0);
        Ok(())
    }

    /// Enables link and the interrupt causes the driver handles.
    pub fn up(&self, kernel: &Kernel) {
        self.bar.write32(
            kernel,
            hwreg::IMS,
            hwreg::ICR_TXDW | hwreg::ICR_RXT0 | hwreg::ICR_LSC,
        );
        self.bar.write32(kernel, hwreg::CTRL, hwreg::CTRL_SLU);
    }

    /// Masks all interrupts and drops the link.
    pub fn down(&self, kernel: &Kernel) {
        self.bar.write32(kernel, hwreg::IMC, 0xffff_ffff);
        self.bar.write32(kernel, hwreg::RCTL, 0);
        self.bar.write32(kernel, hwreg::TCTL, 0);
    }

    /// Whether STATUS reports link-up.
    pub fn link_up(&self, kernel: &Kernel) -> bool {
        self.bar.read32(kernel, hwreg::STATUS) & hwreg::STATUS_LU != 0
    }

    /// Transmits one frame (the kernel-resident data path): one audited
    /// payload copy into the DMA buffer, one descriptor, one TDT write.
    pub fn xmit(&self, kernel: &Kernel, skb: &SkBuff) -> KResult<()> {
        if skb.len() > BUF_SIZE {
            return Err(KError::Inval);
        }
        let slot = self.next_tx.get();
        let buf = TX_BUF_OFF + slot as usize * BUF_SIZE;
        self.dma.write_bytes(buf, &skb.data);
        kernel.charge_copy(decaf_simkernel::CpuClass::Kernel, skb.len() as u64);
        self.xmit_desc(kernel, buf, skb.len())?;
        self.tx_kick(kernel);
        Ok(())
    }

    /// Interrupt service: reads ICR, reclaims TX, receives RX.
    ///
    /// Returns the interrupt causes handled.
    pub fn handle_irq(&self, kernel: &Kernel, ifname: &str) -> u32 {
        let icr = self.bar.read32(kernel, hwreg::ICR);
        if icr & hwreg::ICR_TXDW != 0 {
            kernel.net_tx_done(
                ifname,
                self.tx_inflight_pkts.get(),
                self.tx_inflight_bytes.get(),
            );
            self.tx_inflight_pkts.set(0);
            self.tx_inflight_bytes.set(0);
        }
        if icr & hwreg::ICR_RXT0 != 0 {
            self.rx_poll(kernel, ifname);
        }
        if icr & hwreg::ICR_LSC != 0 {
            kernel.netif_carrier(ifname, self.link_up(kernel));
        }
        icr
    }

    /// DMA offset of one receive buffer slot.
    pub fn rx_buf_off(slot: u32) -> usize {
        RX_BUF_OFF + slot as usize * BUF_SIZE
    }

    /// Drains completed receive descriptors into the network stack.
    fn rx_poll(&self, kernel: &Kernel, ifname: &str) {
        loop {
            let slot = self.next_rx.get();
            let desc = RX_RING_OFF + slot as usize * hwreg::DESC_SIZE;
            let status = self.dma.read_u32(desc + 12);
            if status & hwreg::TXD_STAT_DD == 0 {
                break;
            }
            let len = (self.dma.read_u32(desc + 8) & 0xffff) as usize;
            // The stack copies out of the receive buffer itself: lent,
            // not copied into a packet of our own first.
            let _ = self.dma.with_bytes(Self::rx_buf_off(slot), len, |frame| {
                kernel.netif_rx(ifname, frame, 0x0800)
            });
            // Return the descriptor to the hardware.
            self.dma.write_u32(desc + 12, 0);
            self.bar.write32(kernel, hwreg::RDT, slot);
            self.next_rx.set((slot + 1) % N_DESC);
        }
    }
}

/// The e1000 as a ring-hosted NIC: descriptor rings in DMA, a tail
/// register per direction, a read-to-clear cause register.
impl RingNic for E1000Hw {
    const NAME: &'static str = "e1000";
    const TX_SLOTS: usize = N_DESC as usize;
    const TX_WATERMARK: usize = decaf::TX_DOORBELL_WATERMARK;
    const RX_SLOTS: usize = N_DESC as usize;
    const MAX_FRAME: usize = BUF_SIZE;

    fn tx_pool(&self) -> BufPool {
        BufPool::new(self.dma.clone(), TX_BUF_OFF, BUF_SIZE, N_DESC as usize)
    }

    /// ICR is read-to-clear: the read is the acknowledgement.
    fn irq_cause(&self, kernel: &Kernel) -> IrqCause {
        let raw = self.bar.read32(kernel, hwreg::ICR);
        IrqCause {
            raw,
            tx_done: raw & hwreg::ICR_TXDW != 0,
            rx: raw & hwreg::ICR_RXT0 != 0,
        }
    }

    fn irq_mask_rx(&self, kernel: &Kernel) {
        self.bar.write32(kernel, hwreg::IMC, hwreg::ICR_RXT0);
    }

    fn irq_end(&self, kernel: &Kernel, ifname: &str, raw: u32) {
        if raw & hwreg::ICR_LSC != 0 {
            kernel.netif_carrier(ifname, self.link_up(kernel));
        }
    }

    /// No payload copy, no copy charge, and no TDT write: one
    /// [`RingNic::tx_kick`] per batch is the MMIO-doorbell-coalescing
    /// half of the shmring win.
    fn xmit_desc(&self, _kernel: &Kernel, buf: usize, len: usize) -> KResult<()> {
        if len > BUF_SIZE {
            return Err(KError::Inval);
        }
        let slot = self.next_tx.get();
        let desc = TX_RING_OFF + slot as usize * hwreg::DESC_SIZE;
        self.dma.write_u64(desc, buf as u64);
        self.dma.write_u32(
            desc + 8,
            len as u32 | ((hwreg::TXD_CMD_EOP | hwreg::TXD_CMD_RS) << 24),
        );
        self.dma.write_u32(desc + 12, 0);
        self.next_tx.set((slot + 1) % N_DESC);
        self.tx_inflight_bytes
            .set(self.tx_inflight_bytes.get() + len as u64);
        self.tx_inflight_pkts.set(self.tx_inflight_pkts.get() + 1);
        Ok(())
    }

    /// One TDT write publishes every queued transmit descriptor.
    fn tx_kick(&self, kernel: &Kernel) {
        self.bar.write32(kernel, hwreg::TDT, self.next_tx.get());
    }

    /// The cookie is the descriptor slot. The buffers stay
    /// software-owned until [`RingNic::rx_slot_done`] hands them back;
    /// the chip cannot fill more slots than a ring has, so the caller's
    /// bound never binds.
    fn rx_harvest<'a>(&'a self, _kernel: &Kernel) -> impl Iterator<Item = (u32, usize)> + 'a {
        std::iter::from_fn(move || {
            let slot = self.next_rx.get();
            let desc = RX_RING_OFF + slot as usize * hwreg::DESC_SIZE;
            if self.dma.read_u32(desc + 12) & hwreg::TXD_STAT_DD == 0 {
                return None;
            }
            let len = (self.dma.read_u32(desc + 8) & 0xffff) as usize;
            self.next_rx.set((slot + 1) % N_DESC);
            Some((slot, len))
        })
    }

    fn rx_frame<R>(&self, slot: u32, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.dma.with_bytes(Self::rx_buf_off(slot), len, f)
    }

    /// Clears the harvested descriptor's status.
    fn rx_slot_done(&self, _kernel: &Kernel, slot: u32) {
        let desc = RX_RING_OFF + slot as usize * hwreg::DESC_SIZE;
        self.dma.write_u32(desc + 12, 0);
    }

    /// Advances RDT to `last` — one MMIO write returning the whole batch
    /// of recycled buffers to the device. Each slot is returned on its
    /// own, whatever else is still in flight.
    fn rx_delivered(&self, kernel: &Kernel, last: u32, _in_flight: usize) {
        self.bar.write32(kernel, hwreg::RDT, last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eeprom_mac_roundtrip() {
        let k = Kernel::new();
        let (bar, dma, _dev) = attach();
        let hw = E1000Hw::new(bar, dma);
        assert_eq!(hw.read_mac(&k), MAC);
    }

    #[test]
    fn tx_rx_loopback_through_rings() {
        let k = Kernel::new();
        let (bar, dma, _dev) = attach();
        let hw = Rc::new(E1000Hw::new(bar, dma));
        k.register_netdev(
            "eth0",
            decaf_simkernel::net::NetDeviceOps {
                open: Rc::new(|_| Ok(())),
                stop: Rc::new(|_| Ok(())),
                xmit: {
                    let hw = Rc::clone(&hw);
                    Rc::new(move |k, skb| hw.xmit(k, skb))
                },
            },
        )
        .unwrap();
        let hw_irq = Rc::clone(&hw);
        k.request_irq(
            IRQ_LINE,
            "e1000",
            Rc::new(move |k| {
                hw_irq.handle_irq(k, "eth0");
            }),
        )
        .unwrap();
        hw.setup_tx(&k).unwrap();
        hw.setup_rx(&k).unwrap();
        hw.up(&k);
        k.schedule_point(); // deliver LSC
        assert!(k.carrier_ok("eth0"));

        k.netdev_open("eth0").unwrap();
        for i in 0..10 {
            k.net_xmit("eth0", SkBuff::synthetic(512 + i, 0x42, 0x0800))
                .unwrap();
            k.schedule_point();
        }
        let st = k.net_stats("eth0");
        assert_eq!(st.tx_packets, 10);
        assert_eq!(st.rx_packets, 10, "loopback returns every frame");
        assert!(st.rx_bytes >= 5120);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }
}
