//! The Intel E1000 gigabit driver: shared hardware logic, native build,
//! decaf build, and the mini-C source for DriverSlicer.

pub mod decaf;
pub mod minic;
pub mod native;

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::OnceLock;

use decaf_shmring::BufPool;
use decaf_simdev::e1000 as hwreg;
use decaf_simdev::E1000Device;
use decaf_simkernel::{DmaMemory, KError, KResult, Kernel, MmioHandle, MmioRegion, SkBuff};

use decaf_xdr::XdrValue;

use crate::ringnic::{IrqCause, RingNic};
use crate::support::{self, Io, Linked};
use crate::DriverKind;

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

// ------------------------------------------------------ control path

/// The adapter fields the bodies touch, by index into `linked().fields`.
const MSG_ENABLE: usize = 0;
const ITR: usize = 1;
const RX_CSUM: usize = 2;
const HW: usize = 3;
const SPEED: usize = 4;
const DUPLEX: usize = 5;
const MAC_FIELD: usize = 6;
const LINK_UP: usize = 7;
const WATCHDOG_EVENTS: usize = 8;

/// The nucleus imports the bodies call, by index: the decaf build's
/// import table, in this order ([`nucleus`] serves the native build).
const EEPROM_READ: usize = 0;
const PHY_READ: usize = 1;
const PHY_WRITE: usize = 2;
const SETUP_TX: usize = 3;
const SETUP_RX: usize = 4;
const REQUEST_IRQ: usize = 5;
const FREE_IRQ: usize = 6;
const UP: usize = 7;
const FREE_TX: usize = 8;
const FREE_RX: usize = 9;
const DOWN: usize = 10;

/// The decaf driver's six entry points and the adapter fields they read
/// or write, resolved once against the image.
fn linked() -> &'static Linked<6, 9> {
    static LINKED: OnceLock<Linked<6, 9>> = OnceLock::new();
    let entries = [
        "e1000_probe",
        "e1000_open",
        "e1000_close",
        "e1000_watchdog_task",
        "e1000_get_settings",
        "e1000_set_settings",
    ];
    let fields = [
        "msg_enable",
        "itr",
        "rx_csum",
        "hw",
        "speed",
        "duplex",
        "mac",
        "link_up",
        "watchdog_events",
    ];
    LINKED.get_or_init(|| Linked::new(&DriverKind::E1000.image(), entries, "e1000_adapter", fields))
}

/// The imports as the native build calls them: straight into `hw`.
/// Freeing either ring's resources and stopping the data path are the
/// same quiesce on this hardware model; the line is the decaf build's
/// only ([`open`]).
fn nucleus(hw: &E1000Hw, k: &Kernel, proc: usize, args: &[XdrValue]) -> XdrValue {
    let arg = |i: usize| args[i].as_uint().unwrap_or(0);
    match proc {
        EEPROM_READ => XdrValue::UInt(hw.eeprom_read(k, arg(0)) as u32),
        PHY_READ => XdrValue::UInt(hw.phy_read(k, arg(0)) as u32),
        PHY_WRITE => {
            hw.phy_write(k, arg(0), arg(1) as u16);
            XdrValue::Int(0)
        }
        SETUP_TX => support::errno_value(hw.setup_tx(k)),
        SETUP_RX => support::errno_value(hw.setup_rx(k)),
        UP => {
            hw.up(k);
            XdrValue::Int(0)
        }
        FREE_TX | FREE_RX | DOWN => {
            hw.down(k);
            XdrValue::Int(0)
        }
        _ => XdrValue::Void,
    }
}

/// `e1000_probe`: sw_init, check_options, the EEPROM, reset and link
/// setup, mirroring the mini-C bodies.
fn probe(io: &dyn Io, k: &Kernel, _: &[XdrValue]) -> i32 {
    // e1000_sw_init.
    io.set(MSG_ENABLE, XdrValue::Int(3));
    io.set(ITR, XdrValue::Int(8000));
    io.set(RX_CSUM, XdrValue::Int(1));
    io.set_member(HW, "mac_type", XdrValue::Int(5));
    io.set_member(HW, "media_type", XdrValue::Int(1));
    io.set_member(HW, "autoneg", XdrValue::Int(1));
    // e1000_check_options: range/set-membership validation.
    io.set(SPEED, XdrValue::Int(1000));
    io.set(DUPLEX, XdrValue::Int(1));
    // e1000_init_eeprom: MAC + checksum.
    let mut mac = [0u8; 6];
    for w in 0..3u32 {
        let word = io.import(k, EEPROM_READ, &[XdrValue::UInt(w)]);
        let word = word.as_uint().unwrap_or(0) as u16;
        mac[w as usize * 2..][..2].copy_from_slice(&word.to_le_bytes());
    }
    let _checksum = io.import(k, EEPROM_READ, &[XdrValue::UInt(63)]);
    io.set_bytes(MAC_FIELD, &mac);
    io.set_member(HW, "fc_mode", XdrValue::Int(3));
    // e1000_reset_hw.
    io.writel(k, hwreg::CTRL, hwreg::CTRL_RST);
    // Allowance `e1000-reset`: the decaf reset also reads STATUS, masks
    // and acknowledges every interrupt cause, and saves PCI config space
    // (the @exp(PCI_LEN) array exists for this path).
    if io.decaf() {
        let _ = io.readl(k, hwreg::STATUS);
        io.writel(k, hwreg::IMC, 0xffff_ffff);
        let _ = io.readl(k, hwreg::ICR);
        for w in 0..8u64 {
            let _ = io.readl(k, w * 4);
        }
    }
    // e1000_setup_link + the Figure 5 DSP sequence. PHY writes are
    // posted: a whole DSP programming sequence crosses in one batch.
    let phy_read = |reg: u32| io.import(k, PHY_READ, &[XdrValue::UInt(reg)]);
    let phy_write = |reg: u32, val: u32| {
        io.post(k, PHY_WRITE, &[XdrValue::UInt(reg), XdrValue::UInt(val)]);
    };
    let _ctrl = phy_read(0);
    phy_write(0, 0x1140);
    phy_write(4, 0x0de0);
    phy_write(9, 0x0300);
    let _status = phy_read(1);
    for (reg, val) in [(29, 0x001f), (30, 0x0646), (29, 0x001b), (30, 0x8fae)] {
        phy_write(reg, val);
    }
    let _ = phy_read(30);
    0
}

/// `e1000_open`: the Figure 4 function. Result-based staged cleanup —
/// the Rust rendition of the nested exception handlers.
fn open(io: &dyn Io, k: &Kernel, _: &[XdrValue]) -> i32 {
    let call = |proc: usize| match io.import(k, proc, &[]) {
        XdrValue::Int(0) => Ok(()),
        e => Err(support::errno_of(e)),
    };
    // Stage 1: transmit resources.
    if let Err(e) = call(SETUP_TX) {
        let _ = call(DOWN); // e1000_reset
        return e;
    }
    // Stage 2: receive resources; on failure free stage 1.
    if let Err(e) = call(SETUP_RX) {
        let _ = call(FREE_TX);
        return e;
    }
    // Stage 3, allowance `e1000-irq-at-open`: the decaf driver requests
    // its line here and frees it at close; the native one holds it from
    // init to remove. On failure free stages 1-2.
    if io.decaf() {
        if let Err(e) = call(REQUEST_IRQ) {
            let _ = call(FREE_RX);
            let _ = call(FREE_TX);
            return e;
        }
        // Allowance `e1000-open-phy-power`: power up the PHY.
        let _ = io.import(k, PHY_READ, &[XdrValue::UInt(0)]);
        io.post(k, PHY_WRITE, &[XdrValue::UInt(0), XdrValue::UInt(0x1000)]);
    }
    // Start the data path.
    if let Err(e) = call(UP) {
        if io.decaf() {
            let _ = call(FREE_IRQ);
        }
        let _ = call(FREE_RX);
        let _ = call(FREE_TX);
        return e;
    }
    io.set(LINK_UP, XdrValue::Int(1));
    0
}

/// `e1000_close`.
fn close(io: &dyn Io, k: &Kernel, _: &[XdrValue]) -> i32 {
    io.set(LINK_UP, XdrValue::Int(0));
    let _ = io.import(k, DOWN, &[]);
    if io.decaf() {
        let _ = io.import(k, FREE_IRQ, &[]);
    }
    0
}

/// `e1000_watchdog_task`: the link check, recorded in `link_up`.
fn watchdog(io: &dyn Io, k: &Kernel, _: &[XdrValue]) -> i32 {
    let up = io.readl(k, hwreg::STATUS) & hwreg::STATUS_LU != 0;
    io.set(LINK_UP, XdrValue::Int(up as i32));
    let events = io.get(WATCHDOG_EVENTS);
    io.set(WATCHDOG_EVENTS, XdrValue::Int(events + 1));
    0
}

/// `e1000_get_settings`: an ethtool analogue only the decaf build
/// exposes.
fn get_settings(io: &dyn Io, _: &Kernel, _: &[XdrValue]) -> i32 {
    io.get(SPEED)
}

/// `e1000_set_settings`: an ethtool analogue only the decaf build
/// exposes.
fn set_settings(io: &dyn Io, k: &Kernel, scalars: &[XdrValue]) -> i32 {
    let value = scalars.first().and_then(|v| v.as_int()).unwrap_or(1000);
    io.set(SPEED, XdrValue::Int(value));
    io.writel(k, hwreg::CTRL, hwreg::CTRL_RST);
    0
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
        let words = [0, 1, 2].map(|w| hw.eeprom_read(&k, w).to_le_bytes());
        assert_eq!(words.concat(), MAC);
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
