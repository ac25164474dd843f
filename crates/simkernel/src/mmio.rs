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

/// One register access a driver made through an [`MmioRegion`], as the
/// device saw it: no virtual time, so two builds that charge differently
/// but drive the device alike record the same sequence
/// ([`Kernel::record_device_traffic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Register offset in the window.
    pub offset: u64,
    /// The value written, or the value the read returned.
    pub value: u32,
    /// A write, not a read.
    pub write: bool,
    /// Port I/O (`inl` / `outl`), not MMIO.
    pub port: bool,
}

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
    #[inline]
    pub fn read32(&self, kernel: &Kernel, offset: u64) -> u32 {
        kernel.charge_kernel(costs::MMIO_READ_NS);
        self.read(kernel, offset, false)
    }

    /// Writes a 32-bit register (charges MMIO write cost).
    #[inline]
    pub fn write32(&self, kernel: &Kernel, offset: u64, value: u32) {
        kernel.charge_kernel(costs::MMIO_WRITE_NS);
        self.write(kernel, offset, value, false);
    }

    /// Reads as a port I/O access (slower; used by UHCI and psmouse).
    #[inline]
    pub fn inl(&self, kernel: &Kernel, offset: u64) -> u32 {
        kernel.charge_kernel(costs::PORT_IO_NS);
        self.read(kernel, offset, true)
    }

    /// Writes as a port I/O access.
    #[inline]
    pub fn outl(&self, kernel: &Kernel, offset: u64, value: u32) {
        kernel.charge_kernel(costs::PORT_IO_NS);
        self.write(kernel, offset, value, true);
    }

    #[inline]
    fn read(&self, kernel: &Kernel, offset: u64, port: bool) -> u32 {
        let value = self.handle.borrow_mut().read32(kernel, offset);
        kernel.note_access(offset, value, false, port);
        value
    }

    #[inline]
    fn write(&self, kernel: &Kernel, offset: u64, value: u32, port: bool) {
        kernel.note_access(offset, value, true, port);
        self.handle.borrow_mut().write32(kernel, offset, value);
    }

    /// The underlying shared handle.
    pub fn handle(&self) -> MmioHandle {
        Rc::clone(&self.handle)
    }
}

/// Granularity at which a [`DmaMemory`] materialises what a write touches.
const PAGE: usize = 4096;

/// A DMA-capable memory region shared between a driver and a device model.
///
/// Values are little-endian, matching descriptor layouts of the real
/// hardware the models imitate.
///
/// A region costs what is touched: it holds — zero-filled — only the
/// prefix up to the highest byte written or lent so far. Bytes beyond
/// that prefix read as zero, and every bounds check is against the
/// declared size. An access inside the prefix is one borrow and one
/// compare; the rest is the cold path.
///
/// A device model that scans a table in the region for changes arms a
/// write window over it ([`DmaMemory::watch`]) and asks which of its 64
/// lines were written since it last looked ([`DmaMemory::take_dirty`]).
#[derive(Debug, Clone)]
pub struct DmaMemory {
    held: Rc<RefCell<Held>>,
    size: usize,
}

/// What a region's clones share: the bytes and the write window, in one
/// cell, so watching costs a region no allocation of its own.
#[derive(Debug)]
struct Held {
    /// The materialised prefix; never longer than `size`.
    bytes: Vec<u8>,
    window: Window,
}

/// Lines of a write window: one bit each in [`Window::dirty`].
const WINDOW_LINES: usize = 64;

/// A write window: `[start, end)` split into [`WINDOW_LINES`] lines of
/// `1 << shift` bytes, and the lines written since the last
/// [`DmaMemory::take_dirty`]. Unarmed it is empty (`end` 0), so a write
/// to an unwatched region pays one compare.
#[derive(Debug, Default)]
struct Window {
    start: usize,
    end: usize,
    shift: u32,
    dirty: u64,
}

impl Window {
    /// Marks the lines `[offset, end)` overlaps.
    #[inline]
    fn note(&mut self, offset: usize, end: usize) {
        if offset < self.end && end > self.start && end > offset {
            let first = (offset.max(self.start) - self.start) >> self.shift;
            let last = (end.min(self.end) - 1 - self.start) >> self.shift;
            self.dirty |= (u64::MAX >> (63 - last)) & (u64::MAX << first);
        }
    }
}

/// The end of `len` bytes at `offset` if that is within `limit`.
#[inline]
fn end_within(offset: usize, len: usize, limit: usize) -> Option<usize> {
    offset.checked_add(len).filter(|&end| end <= limit)
}

impl DmaMemory {
    /// Allocates a zeroed region of `size` bytes.
    pub fn new(size: usize) -> Self {
        DmaMemory {
            held: Rc::new(RefCell::new(Held {
                bytes: Vec::new(),
                window: Window::default(),
            })),
            size,
        }
    }

    /// Size of the region in bytes.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the region has zero size.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The end of the access `op` makes of `len` bytes at `offset`.
    ///
    /// # Panics
    /// Panics if the access is out of bounds — a DMA fault in real
    /// hardware, which is always a simulator-usage bug here.
    fn end_of(&self, op: &str, offset: usize, len: usize) -> usize {
        let end = end_within(offset, len, self.size);
        end.unwrap_or_else(|| panic!("dma {op} bounds: {offset}+{len} > {}", self.size))
    }

    #[inline]
    fn read<const N: usize>(&self, op: &str, offset: usize) -> [u8; N] {
        let held = &self.held.borrow().bytes;
        match end_within(offset, N, held.len()) {
            Some(end) => held[offset..end].try_into().expect("length checked"),
            None => self.read_past_prefix(op, offset, held),
        }
    }

    /// A read that reaches past the materialised prefix: zeros there,
    /// after the bounds check.
    #[cold]
    fn read_past_prefix<const N: usize>(&self, op: &str, offset: usize, held: &[u8]) -> [u8; N] {
        self.end_of(op, offset, N);
        let mut bytes = [0; N];
        let held = held.get(offset..).unwrap_or(&[]);
        bytes[..held.len()].copy_from_slice(held);
        bytes
    }

    #[inline]
    fn write(&self, op: &str, offset: usize, data: &[u8]) {
        let held = &mut *self.held.borrow_mut();
        let end = match end_within(offset, data.len(), held.bytes.len()) {
            Some(end) => {
                held.bytes[offset..end].copy_from_slice(data);
                end
            }
            None => self.write_past_prefix(op, offset, data, &mut held.bytes),
        };
        held.window.note(offset, end);
    }

    /// A write that reaches past the materialised prefix grows it — a
    /// page at a time ([`DmaMemory::materialise`]), so that filling a
    /// ring or a frame list entry by entry grows it once per page, not
    /// once per entry. Returns the end of the write.
    #[cold]
    fn write_past_prefix(&self, op: &str, offset: usize, data: &[u8], held: &mut Vec<u8>) -> usize {
        let end = self.end_of(op, offset, data.len());
        self.materialise(held, end);
        held[offset..end].copy_from_slice(data);
        end
    }

    /// Zero-fills the prefix up to the page holding `end`.
    fn materialise(&self, held: &mut Vec<u8>, end: usize) {
        held.resize(end.next_multiple_of(PAGE).min(self.size), 0);
    }

    /// Reads a `u32` at byte `offset` (little-endian).
    ///
    /// # Panics
    /// Every accessor panics with `dma <op> bounds: <offset>+<len> >
    /// <size>` if the access is out of bounds.
    #[inline]
    pub fn read_u32(&self, offset: usize) -> u32 {
        u32::from_le_bytes(self.read("read_u32", offset))
    }

    /// Writes a `u32` at byte `offset` (little-endian).
    #[inline]
    pub fn write_u32(&self, offset: usize, value: u32) {
        self.write("write_u32", offset, &value.to_le_bytes());
    }

    /// Reads a `u64` at byte `offset` (little-endian).
    #[inline]
    pub fn read_u64(&self, offset: usize) -> u64 {
        u64::from_le_bytes(self.read("read_u64", offset))
    }

    /// Writes a `u64` at byte `offset` (little-endian).
    #[inline]
    pub fn write_u64(&self, offset: usize, value: u64) {
        self.write("write_u64", offset, &value.to_le_bytes());
    }

    /// Lends `len` bytes at `offset` to `f` as one bounds-checked
    /// borrowed view — how a device model reads a descriptor, a frame
    /// list or a payload without a borrow per dword or a `Vec` per read.
    ///
    /// The region stays borrowed while `f` runs, so `f` must not write
    /// it (`write_*` from inside the closure is a `RefCell` panic): take
    /// what is needed out of the view, return, then write. Reads nest;
    /// only a view that reaches past everything touched so far takes
    /// the region mutably, for as long as filling the gap takes.
    pub fn with_bytes<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let mut held = self.held.borrow();
        if end_within(offset, len, held.bytes.len()).is_none() {
            drop(held);
            self.materialise_view(offset, len);
            held = self.held.borrow();
        }
        f(&held.bytes[offset..offset + len])
    }

    /// Grows the prefix to hold the view [`DmaMemory::with_bytes`] lends.
    #[cold]
    fn materialise_view(&self, offset: usize, len: usize) {
        let end = self.end_of("with_bytes", offset, len);
        self.materialise(&mut self.held.borrow_mut().bytes, end);
    }

    /// Copies bytes out of the region.
    pub fn read_bytes(&self, offset: usize, len: usize) -> Vec<u8> {
        self.with_bytes(offset, len, <[u8]>::to_vec)
    }

    /// Copies bytes into the region.
    pub fn write_bytes(&self, offset: usize, data: &[u8]) {
        self.write("write_bytes", offset, data);
    }

    /// Arms the region's one write window over the `len` bytes at
    /// `offset`, replacing any window armed before: the window is split
    /// into 64 lines of `len / 64` bytes, every one of them marked
    /// dirty. From then on every write that overlaps a line marks it,
    /// through whichever clone of the region it is made. Nothing is
    /// bounds-checked here: a window may reach past the region, and its
    /// lines there are never written.
    ///
    /// # Panics
    /// Panics unless `len` is a power of two of at least 64 bytes.
    pub fn watch(&self, offset: usize, len: usize) {
        assert!(
            len >= WINDOW_LINES && len.is_power_of_two(),
            "dma watch: {len} bytes is not 64 lines of a power-of-two size"
        );
        self.held.borrow_mut().window = Window {
            start: offset,
            end: offset.saturating_add(len),
            shift: (len / WINDOW_LINES).trailing_zeros(),
            dirty: u64::MAX,
        };
    }

    /// The lines of the write window written since the window was armed
    /// or last asked, bit `i` for line `i`; clears them. A region never
    /// watched reports 0.
    pub fn take_dirty(&self) -> u64 {
        std::mem::take(&mut self.held.borrow_mut().window.dirty)
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
    #[should_panic(expected = "dma read_u32 bounds: 2+4 > 4")]
    fn dma_out_of_bounds_panics() {
        let m = DmaMemory::new(4);
        let _ = m.read_u32(2);
    }

    #[test]
    #[should_panic(expected = "dma read_u64 bounds: 60+8 > 64")]
    fn read_u64_out_of_bounds_names_the_region_size() {
        let _ = DmaMemory::new(64).read_u64(60);
    }

    #[test]
    #[should_panic(expected = "dma write_u32 bounds: 62+4 > 64")]
    fn write_u32_out_of_bounds_names_the_region_size() {
        DmaMemory::new(64).write_u32(62, 1);
    }

    #[test]
    #[should_panic(expected = "dma write_u64 bounds: 64+8 > 64")]
    fn write_u64_out_of_bounds_names_the_region_size() {
        DmaMemory::new(64).write_u64(64, 1);
    }

    #[test]
    #[should_panic(expected = "dma write_bytes bounds: 18446744073709551615+2 > 64")]
    fn write_bytes_offset_overflow_is_a_bounds_fault_not_a_wrap() {
        DmaMemory::new(64).write_bytes(usize::MAX, &[1, 2]);
    }

    #[test]
    fn the_write_window_reports_the_lines_written_since_last_asked() {
        // 256 bytes at 0x100: 64 lines of 4 bytes.
        let m = DmaMemory::new(1024);
        m.watch(0x100, 256);
        assert_eq!(m.take_dirty(), u64::MAX, "arming marks every line");
        assert_eq!(m.take_dirty(), 0, "asking clears");
        m.write_u32(0x100, 1);
        m.write_u32(0x100 + 4 * 9, 1);
        m.write_bytes(0x100 + 4 * 63 + 3, &[1]);
        assert_eq!(m.take_dirty(), 1 | 1 << 9 | 1 << 63);
        // Straddling a line boundary marks both; straddling either edge
        // of the window marks the line inside it.
        m.write_u64(0x100 + 4 * 20 + 2, 1);
        m.write_u32(0x100 - 2, 1);
        m.write_u32(0x200 - 2, 1);
        assert_eq!(m.take_dirty(), 1 | 0b111 << 20 | 1 << 63);
        m.write_bytes(0x100 + 8, &[7; 20]);
        assert_eq!(m.take_dirty(), 0b11111 << 2, "a long write marks its run");
        // Outside the window, and an empty write inside it: nothing.
        m.write_u64(0xf8, 1);
        m.write_u32(0x200, 1);
        m.write_bytes(0x3fc, &[1, 2, 3, 4]);
        m.write_bytes(0x140, &[]);
        assert_eq!(m.take_dirty(), 0);
        // A read is never a change.
        let _ = (m.read_u64(0x100), m.read_bytes(0x100, 256));
        assert_eq!(m.take_dirty(), 0);
    }

    #[test]
    fn re_arming_moves_the_window_and_clones_share_it() {
        let m = DmaMemory::new(8192);
        let device_side = m.clone();
        m.watch(0, 4096);
        device_side.watch(4096, 4096);
        assert_eq!(m.take_dirty(), u64::MAX, "one window per region");
        m.write_u32(64, 1);
        assert_eq!(device_side.take_dirty(), 0, "the old window is gone");
        m.write_u32(4096 + 64 * 5, 1);
        assert_eq!(device_side.take_dirty(), 1 << 5, "written through a clone");
        assert_eq!(m.take_dirty(), 0, "asked through the other");
    }

    #[test]
    fn a_region_never_watched_reports_nothing() {
        let m = DmaMemory::new(4096);
        m.write_u32(0, 1);
        m.write_bytes(4000, &[1; 96]);
        assert_eq!(m.take_dirty(), 0);
    }

    #[test]
    #[should_panic(expected = "dma watch: 96 bytes is not 64 lines")]
    fn a_window_is_64_lines_of_a_power_of_two() {
        DmaMemory::new(4096).watch(0, 96);
    }

    #[test]
    fn a_fresh_region_reads_zero_before_and_after_an_unrelated_write() {
        let m = DmaMemory::new(1 << 20);
        let reads_zero = |m: &DmaMemory| {
            for offset in [0, 1 << 19, (1 << 20) - 4] {
                assert_eq!(m.read_u32(offset), 0, "offset {offset}");
            }
            assert_eq!(m.read_u64((1 << 20) - 8), 0);
            assert_eq!(m.read_bytes(1 << 19, 3), [0, 0, 0]);
        };
        reads_zero(&m);
        m.write_u32(4096, 0xdead_beef);
        reads_zero(&m);
        assert_eq!(m.read_u32(4096), 0xdead_beef);
        // A read straddling the touched prefix sees its bytes, then zeros.
        m.write_u32(2 * PAGE - 4, 0xfeed_f00d);
        assert_eq!(m.read_u64(2 * PAGE - 4), 0xfeed_f00d);
        assert_eq!(m.read_u32(2 * PAGE - 2), 0xfeed);
        assert_eq!(m.len(), 1 << 20, "the declared size, whatever was touched");
    }
}
