//! Memory-mapped I/O and DMA memory shared between drivers and devices.

use std::cell::RefCell;
use std::rc::Rc;

use crate::costs;
use crate::kernel::Kernel;

/// A register-level device model.
///
/// Device models receive a kernel handle so they can raise interrupts and
/// charge device-side processing time.
pub trait MmioDevice {
    /// Reads a 32-bit register at byte `offset`.
    fn read32(&mut self, kernel: &Kernel, offset: u64) -> u32;
    /// Writes a 32-bit register at byte `offset`.
    fn write32(&mut self, kernel: &Kernel, offset: u64, value: u32);
}

/// Shared handle to a device model (one BAR or I/O port window).
pub type MmioHandle = Rc<RefCell<dyn MmioDevice>>;

/// Wraps an [`MmioHandle`] with cost-charging register accessors, the way
/// `readl`/`writel` wrap MMIO in Linux drivers.
#[derive(Clone)]
pub struct MmioRegion {
    handle: MmioHandle,
}

impl MmioRegion {
    /// Creates a region over a device handle.
    pub fn new(handle: MmioHandle) -> Self {
        MmioRegion { handle }
    }

    /// Reads a 32-bit register (charges MMIO read cost).
    pub fn read32(&self, kernel: &Kernel, offset: u64) -> u32 {
        kernel.charge_kernel(costs::MMIO_READ_NS);
        self.handle.borrow_mut().read32(kernel, offset)
    }

    /// Writes a 32-bit register (charges MMIO write cost).
    pub fn write32(&self, kernel: &Kernel, offset: u64, value: u32) {
        kernel.charge_kernel(costs::MMIO_WRITE_NS);
        self.handle.borrow_mut().write32(kernel, offset, value);
    }

    /// Reads as a port I/O access (slower; used by UHCI and psmouse).
    pub fn inl(&self, kernel: &Kernel, offset: u64) -> u32 {
        kernel.charge_kernel(costs::PORT_IO_NS);
        self.handle.borrow_mut().read32(kernel, offset)
    }

    /// Writes as a port I/O access.
    pub fn outl(&self, kernel: &Kernel, offset: u64, value: u32) {
        kernel.charge_kernel(costs::PORT_IO_NS);
        self.handle.borrow_mut().write32(kernel, offset, value);
    }

    /// The underlying shared handle.
    pub fn handle(&self) -> MmioHandle {
        Rc::clone(&self.handle)
    }
}

/// A DMA-capable memory region shared between a driver and a device model.
///
/// Values are little-endian, matching descriptor layouts of the real
/// hardware the models imitate.
#[derive(Debug, Clone)]
pub struct DmaMemory {
    bytes: Rc<RefCell<Vec<u8>>>,
}

impl DmaMemory {
    /// Allocates a zeroed region of `size` bytes.
    pub fn new(size: usize) -> Self {
        DmaMemory {
            bytes: Rc::new(RefCell::new(vec![0; size])),
        }
    }

    /// Size of the region in bytes.
    pub fn len(&self) -> usize {
        self.bytes.borrow().len()
    }

    /// Whether the region has zero size.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads a `u32` at byte `offset` (little-endian).
    ///
    /// # Panics
    /// Panics if the access is out of bounds — a DMA fault in real
    /// hardware, which is always a simulator-usage bug here.
    pub fn read_u32(&self, offset: usize) -> u32 {
        let b = self.bytes.borrow();
        assert!(
            offset + 4 <= b.len(),
            "dma read_u32 bounds: {offset}+4 > {}",
            b.len()
        );
        u32::from_le_bytes(b[offset..offset + 4].try_into().expect("length checked"))
    }

    /// Writes a `u32` at byte `offset` (little-endian).
    pub fn write_u32(&self, offset: usize, value: u32) {
        let mut b = self.bytes.borrow_mut();
        b[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a `u64` at byte `offset` (little-endian).
    pub fn read_u64(&self, offset: usize) -> u64 {
        let b = self.bytes.borrow();
        u64::from_le_bytes(
            b[offset..offset + 8]
                .try_into()
                .expect("dma read_u64 bounds"),
        )
    }

    /// Writes a `u64` at byte `offset` (little-endian).
    pub fn write_u64(&self, offset: usize, value: u64) {
        let mut b = self.bytes.borrow_mut();
        b[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Lends `len` bytes at `offset` to `f` as one bounds-checked
    /// borrowed view — how a device model reads a descriptor, a frame
    /// list or a payload without a borrow per dword or a `Vec` per read.
    ///
    /// The region stays borrowed while `f` runs, so `f` must not write
    /// it (`write_*` from inside the closure is a `RefCell` panic): take
    /// what is needed out of the view, return, then write.
    ///
    /// # Panics
    /// Panics if `offset + len` exceeds the region — a DMA fault in real
    /// hardware, which is always a simulator-usage bug here.
    pub fn with_bytes<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let b = self.bytes.borrow();
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= b.len()),
            "dma with_bytes bounds: {offset}+{len} > {}",
            b.len()
        );
        f(&b[offset..offset + len])
    }

    /// Copies bytes out of the region.
    pub fn read_bytes(&self, offset: usize, len: usize) -> Vec<u8> {
        self.with_bytes(offset, len, <[u8]>::to_vec)
    }

    /// Copies bytes into the region.
    pub fn write_bytes(&self, offset: usize, data: &[u8]) {
        self.bytes.borrow_mut()[offset..offset + data.len()].copy_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scratch {
        regs: [u32; 4],
    }

    impl MmioDevice for Scratch {
        fn read32(&mut self, _k: &Kernel, offset: u64) -> u32 {
            self.regs[(offset / 4) as usize]
        }
        fn write32(&mut self, _k: &Kernel, offset: u64, value: u32) {
            self.regs[(offset / 4) as usize] = value;
        }
    }

    #[test]
    fn mmio_region_reads_writes_and_charges() {
        let k = Kernel::new();
        let dev: MmioHandle = Rc::new(RefCell::new(Scratch { regs: [0; 4] }));
        let bar = MmioRegion::new(dev);
        let t0 = k.now_ns();
        bar.write32(&k, 8, 0xdead_beef);
        assert_eq!(bar.read32(&k, 8), 0xdead_beef);
        assert!(k.now_ns() > t0, "MMIO charges virtual time");
    }

    #[test]
    fn dma_little_endian_layout() {
        let m = DmaMemory::new(64);
        m.write_u32(0, 0x0102_0304);
        assert_eq!(m.read_bytes(0, 4), vec![0x04, 0x03, 0x02, 0x01]);
        m.write_u64(8, 0xa1b2_c3d4_e5f6_0708);
        assert_eq!(m.read_u64(8), 0xa1b2_c3d4_e5f6_0708);
        m.write_bytes(16, &[1, 2, 3]);
        assert_eq!(m.read_bytes(16, 3), vec![1, 2, 3]);
        assert_eq!(m.len(), 64);
    }

    #[test]
    fn with_bytes_lends_the_bytes_read_bytes_copies() {
        let m = DmaMemory::new(64);
        m.write_bytes(8, &[9, 8, 7, 6, 5]);
        let seen = m.with_bytes(8, 5, |view| view.to_vec());
        assert_eq!(seen, m.read_bytes(8, 5));
        assert_eq!(m.with_bytes(64, 0, |view| view.len()), 0, "empty tail view");
        // The view is a read borrow: reads nest, and the value returns.
        assert_eq!(m.with_bytes(8, 4, |_| m.read_u32(8)), 0x0607_0809);
    }

    #[test]
    #[should_panic(expected = "dma with_bytes bounds: 60+8 > 64")]
    fn with_bytes_out_of_bounds_panics_with_offset_and_length() {
        DmaMemory::new(64).with_bytes(60, 8, |_| ());
    }

    #[test]
    #[should_panic(expected = "dma read_u32 bounds")]
    fn dma_out_of_bounds_panics() {
        let m = DmaMemory::new(4);
        let _ = m.read_u32(2);
    }
}
