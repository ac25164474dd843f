//! Behavioural model of an Intel 8254x ("E1000") gigabit Ethernet
//! controller.
//!
//! Register offsets follow the 8254x family software developer's manual.
//! Implemented behaviour: software reset, EEPROM MAC reads through EERD,
//! PHY access through MDIC, interrupt cause/mask (ICR/IMS/IMC, read-clear
//! ICR), legacy transmit and receive descriptor rings, link bring-up via
//! CTRL.SLU, internal loopback of transmitted frames into the receive
//! ring, and packet counters (TPT/TPR).
//!
//! Simplifications: descriptor "physical addresses" are offsets into one
//! shared [`DmaMemory`] region; checksum offload, VLANs and flow control
//! are not modelled.

use std::collections::VecDeque;

use decaf_simkernel::{costs, DmaMemory, Kernel, MmioDevice};

/// Device control register.
pub const CTRL: u64 = 0x0000;
/// Device status register.
pub const STATUS: u64 = 0x0008;
/// EEPROM read register.
pub const EERD: u64 = 0x0014;
/// PHY management register.
pub const MDIC: u64 = 0x0020;
/// Interrupt cause read (read-to-clear).
pub const ICR: u64 = 0x00C0;
/// Interrupt cause set.
pub const ICS: u64 = 0x00C8;
/// Interrupt mask set/read.
pub const IMS: u64 = 0x00D0;
/// Interrupt mask clear.
pub const IMC: u64 = 0x00D8;
/// Receive control.
pub const RCTL: u64 = 0x0100;
/// Transmit control.
pub const TCTL: u64 = 0x0400;
/// Receive descriptor base address low.
pub const RDBAL: u64 = 0x2800;
/// Receive descriptor ring length (bytes).
pub const RDLEN: u64 = 0x2808;
/// Receive descriptor head.
pub const RDH: u64 = 0x2810;
/// Receive descriptor tail.
pub const RDT: u64 = 0x2818;
/// Transmit descriptor base address low.
pub const TDBAL: u64 = 0x3800;
/// Transmit descriptor ring length (bytes).
pub const TDLEN: u64 = 0x3808;
/// Transmit descriptor head.
pub const TDH: u64 = 0x3810;
/// Transmit descriptor tail.
pub const TDT: u64 = 0x3818;
/// Total packets received counter.
pub const TPR: u64 = 0x40D0;
/// Total packets transmitted counter.
pub const TPT: u64 = 0x40D4;

/// CTRL: software reset.
pub const CTRL_RST: u32 = 1 << 26;
/// CTRL: set link up.
pub const CTRL_SLU: u32 = 1 << 6;
/// STATUS: link up.
pub const STATUS_LU: u32 = 1 << 1;
/// ICR/IMS: transmit descriptor written back.
pub const ICR_TXDW: u32 = 1 << 0;
/// ICR/IMS: link status change.
pub const ICR_LSC: u32 = 1 << 2;
/// ICR/IMS: receiver timer interrupt (packet received).
pub const ICR_RXT0: u32 = 1 << 7;
/// RCTL: receiver enable.
pub const RCTL_EN: u32 = 1 << 1;
/// TCTL: transmitter enable.
pub const TCTL_EN: u32 = 1 << 1;
/// Descriptor status: descriptor done.
pub const TXD_STAT_DD: u32 = 1 << 0;
/// Descriptor command: report status.
pub const TXD_CMD_RS: u32 = 1 << 3;
/// Descriptor command: end of packet.
pub const TXD_CMD_EOP: u32 = 1 << 0;

/// Size of one legacy descriptor in bytes.
pub const DESC_SIZE: usize = 16;

/// PHY register: control.
pub const PHY_CTRL: u32 = 0;
/// PHY register: status.
pub const PHY_STATUS: u32 = 1;
/// PHY status: link established.
pub const PHY_STATUS_LINK: u32 = 1 << 2;

/// The E1000 device model.
pub struct E1000Device {
    irq_line: u32,
    dma: DmaMemory,
    mac: [u8; 6],
    ctrl: u32,
    status: u32,
    icr: u32,
    ims: u32,
    rctl: u32,
    tctl: u32,
    eerd: u32,
    mdic: u32,
    tdbal: u32,
    tdlen: u32,
    tdh: u32,
    tdt: u32,
    rdbal: u32,
    rdlen: u32,
    rdh: u32,
    rdt: u32,
    tpt: u32,
    tpr: u32,
    /// Frames waiting to enter the RX ring (loopback + injected traffic).
    pending_rx: VecDeque<Vec<u8>>,
    /// Emptied frame buffers, reused by the next frame to wait.
    spare_rx: Vec<Vec<u8>>,
    /// Frames dropped because no RX descriptor was available.
    pub rx_dropped: u64,
}

impl E1000Device {
    /// Creates an E1000 with the given MAC, IRQ line and DMA window.
    pub fn new(mac: [u8; 6], irq_line: u32, dma: DmaMemory) -> Self {
        E1000Device {
            irq_line,
            dma,
            mac,
            ctrl: 0,
            status: 0,
            icr: 0,
            ims: 0,
            rctl: 0,
            tctl: 0,
            eerd: 0,
            mdic: 0,
            tdbal: 0,
            tdlen: 0,
            tdh: 0,
            tdt: 0,
            rdbal: 0,
            rdlen: 0,
            rdh: 0,
            rdt: 0,
            tpt: 0,
            tpr: 0,
            pending_rx: VecDeque::new(),
            spare_rx: Vec::new(),
            rx_dropped: 0,
        }
    }

    /// The EEPROM image: words 0-2 hold the MAC address.
    fn eeprom_word(&self, addr: u32) -> u16 {
        match addr {
            0 => u16::from_le_bytes([self.mac[0], self.mac[1]]),
            1 => u16::from_le_bytes([self.mac[2], self.mac[3]]),
            2 => u16::from_le_bytes([self.mac[4], self.mac[5]]),
            _ => 0xffff,
        }
    }

    fn assert_cause(&mut self, kernel: &Kernel, cause: u32) {
        self.icr |= cause;
        if self.icr & self.ims != 0 {
            kernel.raise_irq(self.irq_line);
        }
    }

    fn reset(&mut self) {
        let mac = self.mac;
        let irq = self.irq_line;
        let dma = self.dma.clone();
        *self = E1000Device::new(mac, irq, dma);
    }

    fn tx_ring_count(&self) -> u32 {
        self.tdlen / DESC_SIZE as u32
    }

    fn rx_ring_count(&self) -> u32 {
        self.rdlen / DESC_SIZE as u32
    }

    /// Processes transmit descriptors from TDH up to TDT.
    fn process_tx(&mut self, kernel: &Kernel) {
        if self.tctl & TCTL_EN == 0 || self.tx_ring_count() == 0 {
            return;
        }
        let mut sent_any = false;
        while self.tdh != self.tdt {
            let desc = self.tdbal as usize + self.tdh as usize * DESC_SIZE;
            let buf_addr = self.dma.read_u64(desc) as usize;
            let len = (self.dma.read_u32(desc + 8) & 0xffff) as usize;
            let cmd = self.dma.read_u32(desc + 8) >> 24;
            kernel.charge_kernel(costs::DMA_DESC_NS);
            // The payload is fetched through a borrowed view (a bounds
            // panic for a descriptor pointing outside the region, like
            // any DMA access) and copied only if it has somewhere to go.
            let dma = self.dma.clone();
            dma.with_bytes(buf_addr, len, |payload| {
                if cmd & TXD_CMD_EOP != 0 {
                    self.tpt = self.tpt.wrapping_add(1);
                    // Internal loopback: the link reflects every frame.
                    if self.status & STATUS_LU != 0 {
                        self.queue_rx(payload);
                    }
                }
            });
            if cmd & TXD_CMD_RS != 0 {
                // Write back descriptor-done status.
                let st = self.dma.read_u32(desc + 12) | TXD_STAT_DD;
                self.dma.write_u32(desc + 12, st);
            }
            self.tdh = (self.tdh + 1) % self.tx_ring_count();
            sent_any = true;
        }
        if sent_any {
            self.assert_cause(kernel, ICR_TXDW);
            self.deliver_rx(kernel);
        }
    }

    /// Moves pending frames into available receive descriptors.
    fn deliver_rx(&mut self, kernel: &Kernel) {
        if self.rctl & RCTL_EN == 0 || self.rx_ring_count() == 0 {
            return;
        }
        let mut delivered = false;
        while !self.pending_rx.is_empty() {
            let next = (self.rdh + 1) % self.rx_ring_count();
            if self.rdh == self.rdt {
                // Ring full (hardware convention: head==tail means empty
                // of free buffers once software owns them all).
                self.rx_dropped += self.pending_rx.len() as u64;
                self.pending_rx.clear();
                break;
            }
            let Some(frame) = self.pending_rx.pop_front() else {
                break;
            };
            let desc = self.rdbal as usize + self.rdh as usize * DESC_SIZE;
            let buf_addr = self.dma.read_u64(desc) as usize;
            kernel.charge_kernel(costs::DMA_DESC_NS);
            self.dma.write_bytes(buf_addr, &frame);
            // length | DD+EOP status in the write-back word.
            self.dma.write_u32(desc + 8, frame.len() as u32 & 0xffff);
            self.dma.write_u32(desc + 12, TXD_STAT_DD | 0x2);
            self.tpr = self.tpr.wrapping_add(1);
            self.rdh = next;
            delivered = true;
            self.spare_rx.push(frame);
        }
        if delivered {
            self.assert_cause(kernel, ICR_RXT0);
        }
    }

    /// Injects an externally received frame (a peer on the wire).
    pub fn inject_rx(&mut self, kernel: &Kernel, frame: &[u8]) {
        self.queue_rx(frame);
        self.deliver_rx(kernel);
    }

    /// Copies `frame` into the wait queue, in a buffer a delivered frame
    /// left behind when there is one.
    fn queue_rx(&mut self, frame: &[u8]) {
        let mut buf = self.spare_rx.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(frame);
        self.pending_rx.push_back(buf);
    }

    /// Whether the model currently reports link-up.
    pub fn link_up(&self) -> bool {
        self.status & STATUS_LU != 0
    }

    /// Total frames transmitted (TPT mirror, test convenience).
    pub fn frames_transmitted(&self) -> u32 {
        self.tpt
    }

    /// Total frames received into the ring (TPR mirror).
    pub fn frames_received(&self) -> u32 {
        self.tpr
    }
}

#[allow(clippy::collapsible_match)] // register dispatch reads clearer with inner guards
impl MmioDevice for E1000Device {
    fn read32(&mut self, _kernel: &Kernel, offset: u64) -> u32 {
        match offset {
            CTRL => self.ctrl,
            STATUS => self.status,
            EERD => self.eerd,
            MDIC => self.mdic,
            ICR => {
                // Read-to-clear semantics.
                let v = self.icr;
                self.icr = 0;
                v
            }
            IMS => self.ims,
            RCTL => self.rctl,
            TCTL => self.tctl,
            RDBAL => self.rdbal,
            RDLEN => self.rdlen,
            RDH => self.rdh,
            RDT => self.rdt,
            TDBAL => self.tdbal,
            TDLEN => self.tdlen,
            TDH => self.tdh,
            TDT => self.tdt,
            TPR => self.tpr,
            TPT => self.tpt,
            _ => 0,
        }
    }

    fn write32(&mut self, kernel: &Kernel, offset: u64, value: u32) {
        match offset {
            CTRL => {
                if value & CTRL_RST != 0 {
                    self.reset();
                    return;
                }
                let had_link = self.status & STATUS_LU != 0;
                self.ctrl = value;
                if value & CTRL_SLU != 0 && !had_link {
                    self.status |= STATUS_LU;
                    self.assert_cause(kernel, ICR_LSC);
                }
            }
            EERD => {
                // START bit 0; address in bits 15:8; result in 31:16 with
                // DONE in bit 4.
                if value & 1 != 0 {
                    let addr = (value >> 8) & 0xff;
                    let data = self.eeprom_word(addr) as u32;
                    self.eerd = (data << 16) | (1 << 4) | (addr << 8);
                }
            }
            MDIC => {
                // Opcode bits 27:26 (01 write, 10 read), phy reg 20:16,
                // data 15:0; ready bit 28.
                let op = (value >> 26) & 0x3;
                let reg = (value >> 16) & 0x1f;
                let mut data = value & 0xffff;
                if op == 0b10 {
                    data = match reg {
                        PHY_STATUS => {
                            if self.link_up() {
                                PHY_STATUS_LINK
                            } else {
                                0
                            }
                        }
                        PHY_CTRL => 0x1140,
                        _ => 0,
                    };
                }
                self.mdic = (value & 0xffff_0000) | data | (1 << 28);
            }
            ICS => self.assert_cause(kernel, value),
            IMS => self.ims |= value,
            IMC => self.ims &= !value,
            RCTL => {
                self.rctl = value;
                self.deliver_rx(kernel);
            }
            TCTL => self.tctl = value,
            RDBAL => self.rdbal = value,
            RDLEN => self.rdlen = value,
            RDH => self.rdh = value,
            RDT => {
                self.rdt = value;
                self.deliver_rx(kernel);
            }
            TDBAL => self.tdbal = value,
            TDLEN => self.tdlen = value,
            TDH => self.tdh = value,
            TDT => {
                self.tdt = value;
                self.process_tx(kernel);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAC: [u8; 6] = [0x00, 0x1b, 0x21, 0xaa, 0xbb, 0xcc];

    fn setup() -> (Kernel, E1000Device, DmaMemory) {
        let k = Kernel::new();
        let dma = DmaMemory::new(64 * 1024);
        let dev = E1000Device::new(MAC, 11, dma.clone());
        (k, dev, dma)
    }

    /// Programs an 8-descriptor TX ring at 0x0 and RX ring at 0x200 with
    /// buffers carved further up.
    fn setup_rings(k: &Kernel, dev: &mut E1000Device, dma: &DmaMemory) {
        dev.write32(k, TDBAL, 0x0);
        dev.write32(k, TDLEN, 8 * DESC_SIZE as u32);
        dev.write32(k, TDH, 0);
        dev.write32(k, TDT, 0);
        dev.write32(k, RDBAL, 0x200);
        dev.write32(k, RDLEN, 8 * DESC_SIZE as u32);
        for i in 0..8usize {
            // RX buffers at 0x1000 + i*2048.
            dma.write_u64(0x200 + i * DESC_SIZE, (0x1000 + i * 2048) as u64);
        }
        dev.write32(k, RDH, 0);
        dev.write32(k, RDT, 7);
        dev.write32(k, TCTL, TCTL_EN);
        dev.write32(k, RCTL, RCTL_EN);
    }

    #[test]
    fn eeprom_returns_mac() {
        let (k, mut dev, _) = setup();
        dev.write32(&k, EERD, 1); // word 0, START
        let v = dev.read32(&k, EERD);
        assert!(v & (1 << 4) != 0, "DONE set");
        assert_eq!((v >> 16) as u16, u16::from_le_bytes([MAC[0], MAC[1]]));
        dev.write32(&k, EERD, (2 << 8) | 1);
        assert_eq!(
            (dev.read32(&k, EERD) >> 16) as u16,
            u16::from_le_bytes([MAC[4], MAC[5]])
        );
    }

    #[test]
    fn link_comes_up_with_slu_and_fires_lsc() {
        let (k, mut dev, _) = setup();
        dev.write32(&k, IMS, ICR_LSC);
        assert!(!dev.link_up());
        dev.write32(&k, CTRL, CTRL_SLU);
        assert!(dev.link_up());
        assert!(k.irq_pending(11), "LSC interrupt raised");
        assert_eq!(dev.read32(&k, ICR) & ICR_LSC, ICR_LSC);
        assert_eq!(dev.read32(&k, ICR), 0, "ICR is read-to-clear");
    }

    #[test]
    fn phy_status_tracks_link() {
        let (k, mut dev, _) = setup();
        dev.write32(&k, MDIC, (0b10 << 26) | (PHY_STATUS << 16));
        assert_eq!(dev.read32(&k, MDIC) & PHY_STATUS_LINK, 0);
        dev.write32(&k, CTRL, CTRL_SLU);
        dev.write32(&k, MDIC, (0b10 << 26) | (PHY_STATUS << 16));
        let v = dev.read32(&k, MDIC);
        assert!(v & (1 << 28) != 0, "ready bit");
        assert_eq!(v & PHY_STATUS_LINK, PHY_STATUS_LINK);
    }

    #[test]
    fn transmit_loops_back_to_receive_ring() {
        let (k, mut dev, dma) = setup();
        dev.write32(&k, CTRL, CTRL_SLU);
        setup_rings(&k, &mut dev, &dma);
        dev.write32(&k, IMS, ICR_TXDW | ICR_RXT0);

        // Stage a 64-byte frame at 0x8000 and a TX descriptor 0.
        dma.write_bytes(0x8000, &[0xab; 64]);
        dma.write_u64(0, 0x8000);
        dma.write_u32(8, 64 | ((TXD_CMD_EOP | TXD_CMD_RS) << 24));
        dma.write_u32(12, 0);
        dev.write32(&k, TDT, 1);

        // TX descriptor written back with DD.
        assert_eq!(dma.read_u32(12) & TXD_STAT_DD, TXD_STAT_DD);
        assert_eq!(dev.frames_transmitted(), 1);
        // Frame appears in RX buffer 0 with DD status.
        assert_eq!(dma.read_bytes(0x1000, 64), vec![0xab; 64]);
        assert_eq!(dma.read_u32(0x200 + 8) & 0xffff, 64);
        assert_eq!(dma.read_u32(0x200 + 12) & TXD_STAT_DD, TXD_STAT_DD);
        assert_eq!(dev.frames_received(), 1);
        assert!(k.irq_pending(11));
        let icr = dev.read32(&k, ICR);
        assert!(icr & ICR_TXDW != 0 && icr & ICR_RXT0 != 0);
    }

    #[test]
    fn no_loopback_when_link_down() {
        let (k, mut dev, dma) = setup();
        setup_rings(&k, &mut dev, &dma);
        dma.write_u64(0, 0x8000);
        dma.write_u32(8, 64 | ((TXD_CMD_EOP | TXD_CMD_RS) << 24));
        dev.write32(&k, TDT, 1);
        assert_eq!(dev.frames_transmitted(), 1);
        assert_eq!(dev.frames_received(), 0);
    }

    #[test]
    fn injected_frames_reach_rx_ring() {
        let (k, mut dev, dma) = setup();
        dev.write32(&k, CTRL, CTRL_SLU);
        setup_rings(&k, &mut dev, &dma);
        dev.write32(&k, IMS, ICR_RXT0);
        dev.inject_rx(&k, &[0x55; 128]);
        assert_eq!(dev.frames_received(), 1);
        assert_eq!(dma.read_bytes(0x1000, 128), vec![0x55; 128]);
        assert!(k.irq_pending(11));
    }

    #[test]
    fn rx_overflow_drops_frames() {
        let (k, mut dev, dma) = setup();
        dev.write32(&k, CTRL, CTRL_SLU);
        setup_rings(&k, &mut dev, &dma);
        // Only 7 free descriptors (rdh=0, rdt=7): the 8th injection drops.
        for _ in 0..9 {
            dev.inject_rx(&k, &[1; 32]);
        }
        assert!(dev.rx_dropped > 0);
        assert_eq!(dev.frames_received(), 7);
    }

    #[test]
    fn reset_clears_state_but_keeps_mac() {
        let (k, mut dev, _) = setup();
        dev.write32(&k, CTRL, CTRL_SLU);
        dev.write32(&k, IMS, 0xff);
        dev.write32(&k, CTRL, CTRL_RST);
        assert!(!dev.link_up());
        assert_eq!(dev.read32(&k, IMS), 0);
        dev.write32(&k, EERD, 1);
        assert_eq!(
            (dev.read32(&k, EERD) >> 16) as u16,
            u16::from_le_bytes([MAC[0], MAC[1]])
        );
    }

    #[test]
    fn masked_interrupts_do_not_fire() {
        let (k, mut dev, _) = setup();
        // LSC not in IMS: no IRQ raised.
        dev.write32(&k, CTRL, CTRL_SLU);
        assert!(!k.irq_pending(11));
        // Cause is still latched in ICR.
        assert_eq!(dev.read32(&k, ICR) & ICR_LSC, ICR_LSC);
    }
}
