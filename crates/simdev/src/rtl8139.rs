//! Behavioural model of a Realtek RTL8139 fast-ethernet controller.
//!
//! The RTL8139 uses four fixed transmit slots (TSD0-3/TSAD0-3) and a
//! single contiguous receive ring that the hardware fills with
//! `[status u16][len u16][frame]` records. Implemented behaviour: reset,
//! MAC ID registers, transmit slots with OWN/TOK status, the RX ring with
//! CBR (current buffer write pointer), IMR/ISR (write-1-to-clear), and
//! internal loopback.
//!
//! Simplifications: all registers are accessed as aligned 32-bit words
//! (the real chip mixes widths); DMA addresses are offsets into one
//! shared [`DmaMemory`].

use decaf_simkernel::{costs, DmaMemory, Kernel, MmioDevice};

/// MAC address bytes 0-3.
pub const IDR0: u64 = 0x00;
/// MAC address bytes 4-5.
pub const IDR4: u64 = 0x04;
/// Transmit status of descriptor 0 (1-3 follow at +4).
pub const TSD0: u64 = 0x10;
/// Transmit start address of descriptor 0 (1-3 follow at +4).
pub const TSAD0: u64 = 0x20;
/// Receive buffer start address.
pub const RBSTART: u64 = 0x30;
/// Command register (32-bit here; bits as on hardware's 8-bit CR).
pub const CR: u64 = 0x38;
/// Interrupt mask register.
pub const IMR: u64 = 0x3C;
/// Interrupt status register (write 1 to clear).
pub const ISR: u64 = 0x40;
/// Current buffer register: device write offset into the RX ring.
pub const CBR: u64 = 0x44;

/// CR: reset.
pub const CR_RST: u32 = 1 << 4;
/// CR: receiver enable.
pub const CR_RE: u32 = 1 << 3;
/// CR: transmitter enable.
pub const CR_TE: u32 = 1 << 2;
/// TSD: transmit OK.
pub const TSD_TOK: u32 = 1 << 15;
/// TSD: host owns the slot (DMA complete).
pub const TSD_OWN: u32 = 1 << 13;
/// ISR/IMR: receive OK.
pub const INT_ROK: u32 = 1 << 0;
/// ISR/IMR: transmit OK.
pub const INT_TOK: u32 = 1 << 2;

/// Size of the receive ring, 8 KiB + 16 bytes like the common config.
pub const RX_RING_LEN: usize = 8 * 1024 + 16;

/// The RTL8139 device model.
pub struct Rtl8139Device {
    irq_line: u32,
    dma: DmaMemory,
    mac: [u8; 6],
    cr: u32,
    imr: u32,
    isr: u32,
    tsd: [u32; 4],
    tsad: [u32; 4],
    rbstart: u32,
    cbr: u32,
    tx_count: u64,
    rx_count: u64,
    /// Where a transmitted frame is fetched to before it loops back (the
    /// chip's TX FIFO): one buffer, reused from frame to frame.
    tx_fifo: Vec<u8>,
    /// Frames dropped for lack of ring space.
    pub rx_dropped: u64,
}

impl Rtl8139Device {
    /// Creates an RTL8139 with the given MAC, IRQ line and DMA window.
    pub fn new(mac: [u8; 6], irq_line: u32, dma: DmaMemory) -> Self {
        Rtl8139Device {
            irq_line,
            dma,
            mac,
            cr: 0,
            imr: 0,
            isr: 0,
            tsd: [TSD_OWN; 4],
            tsad: [0; 4],
            rbstart: 0,
            cbr: 0,
            tx_count: 0,
            rx_count: 0,
            tx_fifo: Vec::new(),
            rx_dropped: 0,
        }
    }

    fn assert_int(&mut self, kernel: &Kernel, cause: u32) {
        self.isr |= cause;
        if self.isr & self.imr != 0 {
            kernel.raise_irq(self.irq_line);
        }
    }

    /// Appends a frame to the RX ring in hardware record format.
    fn receive(&mut self, kernel: &Kernel, frame: &[u8]) {
        if self.cr & CR_RE == 0 {
            return;
        }
        let record_len = 4 + frame.len();
        if self.cbr as usize + record_len > RX_RING_LEN {
            // Simplified: no wrap handling; the driver resets CBR when it
            // drains the ring. Drop on overflow.
            self.rx_dropped += 1;
            return;
        }
        let base = self.rbstart as usize + self.cbr as usize;
        kernel.charge_kernel(costs::DMA_DESC_NS);
        // status: ROK (bit 0); then length including 4-byte CRC.
        self.dma
            .write_u32(base, 1 | (((frame.len() as u32 + 4) & 0xffff) << 16));
        self.dma.write_bytes(base + 4, frame);
        self.cbr += record_len as u32;
        // Records are 4-byte aligned on hardware.
        self.cbr = (self.cbr + 3) & !3;
        self.rx_count += 1;
        self.assert_int(kernel, INT_ROK);
    }

    /// Injects an externally received frame.
    pub fn inject_rx(&mut self, kernel: &Kernel, frame: &[u8]) {
        self.receive(kernel, frame);
    }

    /// Frames transmitted so far.
    pub fn frames_transmitted(&self) -> u64 {
        self.tx_count
    }

    /// Frames received into the ring so far.
    pub fn frames_received(&self) -> u64 {
        self.rx_count
    }
}

impl MmioDevice for Rtl8139Device {
    fn read32(&mut self, _kernel: &Kernel, offset: u64) -> u32 {
        match offset {
            IDR0 => u32::from_le_bytes([self.mac[0], self.mac[1], self.mac[2], self.mac[3]]),
            IDR4 => u32::from_le_bytes([self.mac[4], self.mac[5], 0, 0]),
            TSD0..=0x1C => self.tsd[((offset - TSD0) / 4) as usize],
            TSAD0..=0x2C => self.tsad[((offset - TSAD0) / 4) as usize],
            RBSTART => self.rbstart,
            CR => self.cr,
            IMR => self.imr,
            ISR => self.isr,
            CBR => self.cbr,
            _ => 0,
        }
    }

    fn write32(&mut self, kernel: &Kernel, offset: u64, value: u32) {
        match offset {
            TSD0..=0x1C => {
                let slot = ((offset - TSD0) / 4) as usize;
                // Writing the size with OWN cleared starts transmission.
                let len = (value & 0x1fff) as usize;
                if value & TSD_OWN == 0 && self.cr & CR_TE != 0 {
                    let addr = self.tsad[slot] as usize;
                    kernel.charge_kernel(costs::DMA_DESC_NS);
                    // Fetched, not lent: the loopback below writes the
                    // region the view would keep borrowed.
                    let mut frame = std::mem::take(&mut self.tx_fifo);
                    frame.clear();
                    self.dma
                        .with_bytes(addr, len, |payload| frame.extend_from_slice(payload));
                    self.tx_count += 1;
                    self.tsd[slot] = TSD_OWN | TSD_TOK | value;
                    self.assert_int(kernel, INT_TOK);
                    // Internal loopback.
                    self.receive(kernel, &frame);
                    self.tx_fifo = frame;
                } else {
                    self.tsd[slot] = value;
                }
            }
            TSAD0..=0x2C => self.tsad[((offset - TSAD0) / 4) as usize] = value,
            RBSTART => self.rbstart = value,
            CR => {
                if value & CR_RST != 0 {
                    let mac = self.mac;
                    let irq = self.irq_line;
                    let dma = self.dma.clone();
                    *self = Rtl8139Device::new(mac, irq, dma);
                } else {
                    self.cr = value;
                }
            }
            IMR => self.imr = value,
            ISR => self.isr &= !value, // write 1 to clear
            CBR => self.cbr = value,   // model convenience: driver rewinds
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAC: [u8; 6] = [0x52, 0x54, 0x00, 0x12, 0x34, 0x56];

    fn setup() -> (Kernel, Rtl8139Device, DmaMemory) {
        let k = Kernel::new();
        let dma = DmaMemory::new(64 * 1024);
        let mut dev = Rtl8139Device::new(MAC, 10, dma.clone());
        let _ = &mut dev;
        (k, dev, dma)
    }

    #[test]
    fn mac_readable_from_idr() {
        let (k, mut dev, _) = setup();
        let lo = dev.read32(&k, IDR0).to_le_bytes();
        let hi = dev.read32(&k, IDR4).to_le_bytes();
        assert_eq!([lo[0], lo[1], lo[2], lo[3], hi[0], hi[1]], MAC);
    }

    #[test]
    fn transmit_sets_tok_and_loops_back() {
        let (k, mut dev, dma) = setup();
        dev.write32(&k, CR, CR_TE | CR_RE);
        dev.write32(&k, RBSTART, 0x4000);
        dev.write32(&k, IMR, INT_TOK | INT_ROK);
        dma.write_bytes(0x100, &[0xcd; 60]);
        dev.write32(&k, TSAD0, 0x100);
        dev.write32(&k, TSD0, 60); // OWN clear → transmit
        let tsd = dev.read32(&k, TSD0);
        assert!(tsd & TSD_TOK != 0 && tsd & TSD_OWN != 0);
        assert_eq!(dev.frames_transmitted(), 1);
        assert_eq!(dev.frames_received(), 1);
        // RX record: status word then frame.
        assert_eq!(dma.read_u32(0x4000) & 1, 1);
        assert_eq!((dma.read_u32(0x4000) >> 16) & 0xffff, 64); // len + CRC
        assert_eq!(dma.read_bytes(0x4004, 60), vec![0xcd; 60]);
        assert!(k.irq_pending(10));
    }

    #[test]
    fn isr_write_one_to_clear() {
        let (k, mut dev, dma) = setup();
        dev.write32(&k, CR, CR_TE | CR_RE);
        dev.write32(&k, RBSTART, 0x4000);
        dma.write_bytes(0x100, &[1; 60]);
        dev.write32(&k, TSAD0, 0x100);
        dev.write32(&k, TSD0, 60);
        let isr = dev.read32(&k, ISR);
        assert!(isr & INT_TOK != 0);
        dev.write32(&k, ISR, INT_TOK);
        assert_eq!(dev.read32(&k, ISR) & INT_TOK, 0);
        assert!(dev.read32(&k, ISR) & INT_ROK != 0, "ROK still latched");
    }

    #[test]
    fn rx_disabled_drops_silently() {
        let (k, mut dev, _) = setup();
        dev.write32(&k, CR, CR_TE); // RE off
        dev.inject_rx(&k, &[1; 40]);
        assert_eq!(dev.frames_received(), 0);
    }

    #[test]
    fn ring_overflow_drops() {
        let (k, mut dev, _) = setup();
        dev.write32(&k, CR, CR_RE);
        dev.write32(&k, RBSTART, 0);
        // Fill the ring with 1.5 KB frames until overflow.
        for _ in 0..8 {
            dev.inject_rx(&k, &[0; 1500]);
        }
        assert!(dev.rx_dropped > 0);
    }

    #[test]
    fn reset_restores_defaults() {
        let (k, mut dev, _) = setup();
        dev.write32(&k, IMR, 0xffff);
        dev.write32(&k, CR, CR_RST);
        assert_eq!(dev.read32(&k, IMR), 0);
        assert_eq!(dev.read32(&k, CR) & (CR_TE | CR_RE), 0);
        assert_eq!(dev.read32(&k, TSD0) & TSD_OWN, TSD_OWN);
    }
}
