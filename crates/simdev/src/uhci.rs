//! Behavioural model of a UHCI USB 1.0 host controller with an attached
//! bulk-only flash drive.
//!
//! Implemented behaviour: host-controller reset, run/stop, the frame list
//! in DMA memory (1024 dword entries, terminate bit 0), a simplified
//! transfer descriptor (four dwords: link, status, token, buffer), port
//! status with an attached device, completion interrupts through USBSTS,
//! and a sector-addressable flash drive reached through bulk endpoints.
//!
//! Simplifications: the schedule is walked to completion whenever the
//! controller is kicked (run bit written or a new frame list installed)
//! instead of once per 1 ms frame; queue heads are not modelled (TDs link
//! directly); the flash protocol is a two-command subset of bulk-only
//! transport (`W` = write sector, `R` = stage sector for reading). A
//! kick reads only the frame-list lines (16 entries each) that held a
//! live entry when last read or were written since — the write window
//! [`DmaMemory::watch`] arms over the list when it is installed — which
//! runs the same TDs in the same order as re-reading all 1,024 entries,
//! because a line it skips was all-terminated when read and has not been
//! written since.
//!
//! The drive exposes [`MAX_LUNS`] logical units, each with its own
//! sector store and staged-read state, addressed by per-LUN endpoint
//! pairs ([`ep_bulk_out`]/[`ep_bulk_in`]) — real bulk-only devices put
//! the LUN in the CBW; the model spends endpoint numbers instead so a
//! TD's 4-bit endpoint field still names the full target. Endpoints
//! [`EP_BULK_OUT`]/[`EP_BULK_IN`] remain LUN 0, so single-LUN callers
//! are unchanged.

use decaf_simkernel::{costs, DmaMemory, Kernel, MmioDevice};

/// USB command register.
pub const USBCMD: u64 = 0x00;
/// USB status register (write 1 to clear).
pub const USBSTS: u64 = 0x04;
/// USB interrupt enable.
pub const USBINTR: u64 = 0x08;
/// Frame number register.
pub const FRNUM: u64 = 0x0C;
/// Frame list base address.
pub const FRBASEADD: u64 = 0x10;
/// Port 1 status/control.
pub const PORTSC1: u64 = 0x14;

/// USBCMD: run/stop.
pub const CMD_RS: u32 = 1 << 0;
/// USBCMD: host controller reset.
pub const CMD_HCRESET: u32 = 1 << 1;
/// USBSTS: interrupt (transfer complete).
pub const STS_USBINT: u32 = 1 << 0;
/// USBSTS: host controller halted.
pub const STS_HCHALTED: u32 = 1 << 5;
/// PORTSC: device connected.
pub const PORT_CCS: u32 = 1 << 0;
/// PORTSC: port enabled.
pub const PORT_PE: u32 = 1 << 2;

/// TD status: active (device owns it).
pub const TD_ACTIVE: u32 = 1 << 23;
/// TD status: stalled (error).
pub const TD_STALLED: u32 = 1 << 22;
/// TD token: more TDs of the same transfer follow (scatter-gather
/// chaining). On OUT the device accumulates the TD's bytes and defers
/// command execution until a TD *without* this bit arrives; on IN the
/// device streams the staged data across consecutive TDs, retaining the
/// unsent remainder only while every TD fills completely — a short
/// packet terminates the transfer, exactly as on a real bus. TDs
/// without the bit behave exactly as before, so single-TD callers are
/// unchanged. (Stands in for the data-toggle bit real UHCI spends on
/// packet sequencing — this model has no packet loss to sequence
/// against.)
pub const TD_TOKEN_MORE: u32 = 1 << 19;
/// Frame-list/link terminate bit.
pub const LINK_TERMINATE: u32 = 1;
/// Entries in the frame list (one dword each).
const FRAME_LIST_ENTRIES: usize = 1024;
/// Entries per line of the frame list's write window: 64 lines of 64
/// bytes ([`DmaMemory::watch`]).
const LINE_ENTRIES: usize = FRAME_LIST_ENTRIES / 64;

/// The little-endian dword at the head of `bytes`.
fn le_dword(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("four bytes sliced"))
}

/// Bulk OUT endpoint of the flash drive (LUN 0).
pub const EP_BULK_OUT: u32 = 2;
/// Bulk IN endpoint of the flash drive (LUN 0).
pub const EP_BULK_IN: u32 = 1;
/// Flash sector size in bytes.
pub const SECTOR_SIZE: usize = 512;
/// Logical units on the flash drive. Each LUN owns an endpoint pair —
/// OUT on `EP_BULK_OUT + 2·lun`, IN on `EP_BULK_IN + 2·lun` — and the
/// TD token's endpoint field is 4 bits, so seven LUNs exhaust the
/// endpoint space (OUT endpoints 2..=14, IN endpoints 1..=13).
pub const MAX_LUNS: usize = 7;

/// The bulk OUT endpoint of logical unit `lun`.
///
/// # Panics
/// Panics if `lun` is not below [`MAX_LUNS`].
pub fn ep_bulk_out(lun: usize) -> u32 {
    assert!(lun < MAX_LUNS, "LUN {lun} outside 0..{MAX_LUNS}");
    EP_BULK_OUT + 2 * lun as u32
}

/// The bulk IN endpoint of logical unit `lun`.
///
/// # Panics
/// Panics if `lun` is not below [`MAX_LUNS`].
pub fn ep_bulk_in(lun: usize) -> u32 {
    assert!(lun < MAX_LUNS, "LUN {lun} outside 0..{MAX_LUNS}");
    EP_BULK_IN + 2 * lun as u32
}

/// The logical unit an endpoint addresses (IN endpoints are odd, OUT
/// endpoints even — both pairs stride by 2), or `None` for endpoint 0
/// (control) and endpoints beyond the LUN space.
pub fn lun_of_endpoint(endpoint: u32) -> Option<usize> {
    let lun = match endpoint {
        0 => return None,
        ep if ep % 2 == 0 => ((ep - EP_BULK_OUT) / 2) as usize,
        ep => ((ep - EP_BULK_IN) / 2) as usize,
    };
    (lun < MAX_LUNS).then_some(lun)
}

/// Flash command byte: write the following sector payload.
pub const FLASH_CMD_WRITE: u8 = b'W';
/// Flash command byte: stage a sector for the next IN transfer.
pub const FLASH_CMD_READ: u8 = b'R';
/// Sectors on each LUN's media (2 MiB of 512-byte sectors) — more than
/// any workload addresses. A sector number arrives in a command the host
/// wrote, so a `W` or `R` naming a sector at or past this stalls its TD
/// instead of growing the store.
pub const MEDIA_SECTORS: u32 = 4096;

/// What an IN transfer of a never-written sector delivers.
const BLANK_SECTOR: [u8; SECTOR_SIZE] = [0; SECTOR_SIZE];

/// A bulk-only flash drive: a sector store plus a staged read, plus the
/// per-LUN scatter-gather reassembly state ([`TD_TOKEN_MORE`]).
#[derive(Default)]
struct FlashDrive {
    /// Sector contents indexed by sector number, `None` where never
    /// written. Grows to the highest sector written, never past
    /// [`MEDIA_SECTORS`]; a rewrite reuses the sector's buffer.
    sectors: Vec<Option<Vec<u8>>>,
    staged_read: Option<u32>,
    /// OUT bytes accumulated from `MORE`-marked TDs, awaiting the
    /// chain-final TD that executes them as one command.
    out_accum: Vec<u8>,
    /// Unsent remainder of a staged read being streamed across a
    /// `MORE`-marked IN chain. `Some(vec![])` is meaningful: an
    /// exactly-filled TD leaves an empty remainder whose next TD reads
    /// zero bytes — the ZLP that tells the host the transfer is over.
    in_stream: Option<Vec<u8>>,
    writes: u64,
    reads: u64,
}

impl FlashDrive {
    fn handle_out(&mut self, data: &[u8]) -> Result<(), ()> {
        let sector = match data {
            [_, a, b, c, d, ..] => u32::from_le_bytes([*a, *b, *c, *d]),
            _ => return Err(()),
        };
        if sector >= MEDIA_SECTORS {
            return Err(());
        }
        match data[0] {
            FLASH_CMD_WRITE => {
                self.store(sector, &data[5..]);
                self.writes += 1;
                Ok(())
            }
            FLASH_CMD_READ => {
                self.staged_read = Some(sector);
                Ok(())
            }
            _ => Err(()),
        }
    }

    /// The table entry of `sector` (below [`MEDIA_SECTORS`]), growing
    /// the table to reach it.
    fn entry(&mut self, sector: u32) -> &mut Option<Vec<u8>> {
        let at = sector as usize;
        if at >= self.sectors.len() {
            self.sectors.resize_with(at + 1, || None);
        }
        &mut self.sectors[at]
    }

    /// Writes `data` to `sector` (below [`MEDIA_SECTORS`]).
    fn store(&mut self, sector: u32, data: &[u8]) {
        match self.entry(sector) {
            Some(held) => {
                held.clear();
                held.extend_from_slice(data);
            }
            empty => *empty = Some(data.to_vec()),
        }
    }

    /// A written sector's contents.
    fn sector(&self, sector: u32) -> Option<&[u8]> {
        self.sectors.get(sector as usize)?.as_deref()
    }
}

/// The UHCI device model.
pub struct UhciDevice {
    irq_line: u32,
    dma: DmaMemory,
    usbcmd: u32,
    usbsts: u32,
    usbintr: u32,
    frnum: u32,
    frbase: u32,
    frbase_installed: bool,
    /// The frame-list lines that held a non-terminated entry when last
    /// read, plus those written behind the cursor of the last walk: with
    /// the window's dirty lines, every line the next walk must read. A
    /// line outside both was all-terminated when read and has not been
    /// written since.
    live_lines: u64,
    portsc1: u32,
    /// One flash drive per logical unit, each with its own sector store
    /// *and its own staged-read state* — concurrent per-LUN streams must
    /// not clobber each other's `R`-command staging, which is what lets
    /// the sharded build interleave LUNs safely.
    luns: Vec<FlashDrive>,
    /// Transfer descriptors completed.
    pub tds_completed: u64,
}

impl UhciDevice {
    /// Creates a UHCI controller with an attached [`MAX_LUNS`]-unit
    /// flash drive.
    pub fn new(irq_line: u32, dma: DmaMemory) -> Self {
        UhciDevice {
            irq_line,
            dma,
            usbcmd: 0,
            usbsts: STS_HCHALTED,
            usbintr: 0,
            frnum: 0,
            frbase: 0,
            frbase_installed: false,
            live_lines: u64::MAX,
            portsc1: PORT_CCS, // flash drive present
            luns: (0..MAX_LUNS).map(|_| FlashDrive::default()).collect(),
            tds_completed: 0,
        }
    }

    /// Logical units on the attached drive.
    pub fn lun_count(&self) -> usize {
        self.luns.len()
    }

    /// Sectors currently stored across every LUN.
    pub fn flash_sector_count(&self) -> usize {
        let written = |l: &FlashDrive| l.sectors.iter().flatten().count();
        self.luns.iter().map(written).sum()
    }

    /// LUN 0 sector contents, if written.
    pub fn flash_sector(&self, sector: u32) -> Option<Vec<u8>> {
        self.flash_sector_lun(0, sector)
    }

    /// One LUN's sector contents, if written.
    pub fn flash_sector_lun(&self, lun: usize, sector: u32) -> Option<Vec<u8>> {
        self.luns.get(lun)?.sector(sector).map(<[u8]>::to_vec)
    }

    /// Completed write commands across every LUN.
    pub fn flash_writes(&self) -> u64 {
        self.luns.iter().map(|l| l.writes).sum()
    }

    /// Completed read commands across every LUN.
    pub fn flash_reads(&self) -> u64 {
        self.luns.iter().map(|l| l.reads).sum()
    }

    /// Places `data` in a LUN 0 sector directly, bypassing the bus —
    /// models media that already holds an archive (streaming-read
    /// workloads start from preloaded flash instead of paying write
    /// traffic inside their measurement window).
    pub fn preload_sector(&mut self, sector: u32, data: Vec<u8>) {
        self.preload_sector_lun(0, sector, data);
    }

    /// Places `data` in a sector of one LUN directly, bypassing the bus.
    ///
    /// # Panics
    /// Panics if `lun` is not below [`MAX_LUNS`] or `sector` not below
    /// [`MEDIA_SECTORS`].
    pub fn preload_sector_lun(&mut self, lun: usize, sector: u32, data: Vec<u8>) {
        assert!(sector < MEDIA_SECTORS, "sector {sector} past the media");
        *self.luns[lun].entry(sector) = Some(data);
    }

    /// A sorted snapshot of the entire media: `(lun, sector, contents)`
    /// for every stored sector. The differential oracle compares these
    /// across driver builds — two hostings of the same workload must
    /// leave byte-identical flash.
    pub fn flash_contents(&self) -> Vec<(usize, u32, Vec<u8>)> {
        let mut out = Vec::new();
        for (lun, drive) in self.luns.iter().enumerate() {
            for (sector, data) in drive.sectors.iter().enumerate() {
                if let Some(data) = data {
                    out.push((lun, sector as u32, data.clone()));
                }
            }
        }
        out
    }

    /// Walks the frame list, executing every active TD chain.
    ///
    /// The walk reads memory, never a snapshot: after each executed
    /// chain the scan resumes *from memory* at the next frame — so an
    /// entry is read only after every TD of every earlier frame has run,
    /// exactly as a controller stepping frame by frame would see it.
    ///
    /// It reads only the lines that can hold a live entry: those live
    /// when last read and those written since ([`DmaMemory::take_dirty`]),
    /// in ascending order, one borrowed view per line. A chain's writes
    /// to lines ahead of the cursor join this walk; writes at or behind
    /// it carry over to the next.
    fn run_schedule(&mut self, kernel: &Kernel) {
        if self.usbcmd & CMD_RS == 0 || !self.frbase_installed {
            return;
        }
        let mut completed = false;
        let mut todo = self.live_lines | self.dma.take_dirty();
        let mut next = 0u64;
        while todo != 0 {
            let line = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let mut frame = line * LINE_ENTRIES;
            while let Some((live, entry)) = self.next_live_frame(frame, line) {
                completed |= self.run_chain(kernel, (entry & !0xf) as usize);
                self.frnum = live as u32;
                frame = live + 1;
                next |= 1 << line;
                let written = self.dma.take_dirty();
                let ahead = u64::MAX << line << 1;
                todo |= written & ahead;
                next |= written & !ahead;
            }
        }
        self.live_lines = next;
        if completed {
            self.usbsts |= STS_USBINT;
            if self.usbintr != 0 {
                kernel.raise_irq(self.irq_line);
            }
        }
    }

    /// The first frame at or after `from`, within `line`, whose list
    /// entry lacks the terminate bit, with that entry — the rest of the
    /// line read under a single borrow. A frame list reaching past the
    /// DMA region is a bounds panic, as every out-of-range DMA access is.
    fn next_live_frame(&self, from: usize, line: usize) -> Option<(usize, u32)> {
        let end = (line + 1) * LINE_ENTRIES;
        let at = self.frbase as usize + from * 4;
        self.dma.with_bytes(at, (end - from) * 4, |rest| {
            let live = rest
                .chunks_exact(4)
                .position(|entry| le_dword(entry) & LINK_TERMINATE == 0)?;
            Some((from + live, le_dword(&rest[live * 4..])))
        })
    }

    /// Executes one frame's TD chain starting at `td_addr`; returns
    /// whether any TD completed.
    fn run_chain(&mut self, kernel: &Kernel, mut td_addr: usize) -> bool {
        let mut completed = false;
        // Bounded walk to tolerate malformed schedules.
        for _ in 0..256 {
            let [link, status, token, buffer] = self.dma.with_bytes(td_addr, 16, |td| {
                [0, 4, 8, 12].map(|at| le_dword(&td[at..]))
            });
            if status & TD_ACTIVE != 0 {
                kernel.charge_kernel(costs::DMA_DESC_NS);
                let new_status = match self.execute_td(token, buffer as usize) {
                    Ok(actual) => (actual as u32) & 0x7ff,
                    Err(()) => TD_STALLED,
                };
                self.dma.write_u32(td_addr + 4, new_status);
                self.tds_completed += 1;
                completed = true;
            }
            if link & LINK_TERMINATE != 0 {
                break;
            }
            td_addr = (link & !0xf) as usize;
        }
        completed
    }

    /// Moves one active TD's data between `buffer` and the LUN its
    /// endpoint names; returns the bytes actually transferred.
    fn execute_td(&mut self, token: u32, buffer: usize) -> Result<usize, ()> {
        let endpoint = (token >> 15) & 0xf;
        let more = token & TD_TOKEN_MORE != 0;
        let max_len = ((token >> 21) & 0x7ff) as usize;
        let len = if max_len == 0x7ff { 0 } else { max_len + 1 };
        // Each LUN owns an endpoint pair: odd endpoints are IN, even
        // (non-zero) endpoints OUT, striding by 2.
        let lun = lun_of_endpoint(endpoint).ok_or(())?;
        let drive = &mut self.luns[lun];
        if endpoint.is_multiple_of(2) {
            // The payload is read where it sits, as the device's DMA
            // engine would: a borrowed view, no staging copy.
            return self.dma.with_bytes(buffer, len, |data| {
                if more {
                    // Mid-chain: accumulate, execute later.
                    drive.out_accum.extend_from_slice(data);
                    Ok(len)
                } else if drive.out_accum.is_empty() {
                    drive.handle_out(data).map(|_| len)
                } else {
                    // Chain-final TD: the accumulated bytes plus this
                    // TD's are one flash command.
                    drive.out_accum.extend_from_slice(data);
                    let cmd = std::mem::take(&mut drive.out_accum);
                    drive.handle_out(&cmd).map(|_| len)
                }
            });
        }
        // The TD's maxlen bounds the transfer: a staged sector longer
        // than the buffer the TD names is truncated, never written past
        // it — and `actual` reports the truncated length, honouring the
        // TD contract the OUT path enforces via its read window. With
        // MORE set the remainder streams into the next TD of the chain —
        // but only after a *full* packet: a short packet terminates the
        // transfer and drops the stream, like a real bulk pipe.
        let stream = drive.in_stream.take();
        let data: &[u8] = match &stream {
            Some(stream) => stream,
            None => {
                let sector = drive.staged_read.take().ok_or(())?;
                drive.reads += 1;
                // The sector goes out from the store in place.
                let stored = drive.sectors.get(sector as usize);
                stored.and_then(Option::as_deref).unwrap_or(&BLANK_SECTOR)
            }
        };
        let n = data.len().min(len);
        self.dma.write_bytes(buffer, &data[..n]);
        if more && n == len {
            // Only the remainder the chain's next TD takes is copied.
            drive.in_stream = Some(data[n..].to_vec());
        }
        Ok(n)
    }
}

impl MmioDevice for UhciDevice {
    fn read32(&mut self, _kernel: &Kernel, offset: u64) -> u32 {
        match offset {
            USBCMD => self.usbcmd,
            USBSTS => self.usbsts,
            USBINTR => self.usbintr,
            FRNUM => self.frnum,
            FRBASEADD => self.frbase,
            PORTSC1 => self.portsc1,
            _ => 0,
        }
    }

    fn write32(&mut self, kernel: &Kernel, offset: u64, value: u32) {
        match offset {
            USBCMD => {
                if value & CMD_HCRESET != 0 {
                    let irq = self.irq_line;
                    let dma = self.dma.clone();
                    let luns = std::mem::take(&mut self.luns);
                    *self = UhciDevice::new(irq, dma);
                    self.luns = luns; // media survives controller reset
                    return;
                }
                self.usbcmd = value;
                if value & CMD_RS != 0 {
                    self.usbsts &= !STS_HCHALTED;
                    self.run_schedule(kernel);
                } else {
                    self.usbsts |= STS_HCHALTED;
                }
            }
            USBSTS => self.usbsts &= !value,
            USBINTR => self.usbintr = value,
            FRNUM => self.frnum = value & 0x3ff,
            FRBASEADD => {
                self.frbase = value;
                self.frbase_installed = true;
                self.dma.watch(value as usize, FRAME_LIST_ENTRIES * 4);
                self.run_schedule(kernel);
            }
            PORTSC1 => {
                // Software may enable the port; connect status is ours.
                self.portsc1 = (self.portsc1 & PORT_CCS) | (value & PORT_PE);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Kernel, UhciDevice, DmaMemory) {
        let k = Kernel::new();
        let dma = DmaMemory::new(128 * 1024);
        let dev = UhciDevice::new(9, dma.clone());
        (k, dev, dma)
    }

    /// Builds a single-TD schedule in frame 0.
    fn build_td(dma: &DmaMemory, td_at: usize, endpoint: u32, buf: usize, len: usize) {
        build_td_flags(dma, td_at, endpoint, buf, len, 0);
    }

    /// Builds a TD with extra token bits (e.g. [`TD_TOKEN_MORE`]).
    fn build_td_flags(
        dma: &DmaMemory,
        td_at: usize,
        endpoint: u32,
        buf: usize,
        len: usize,
        token_flags: u32,
    ) {
        dma.write_u32(td_at, LINK_TERMINATE); // link: end of chain
        dma.write_u32(td_at + 4, TD_ACTIVE);
        let maxlen = if len == 0 {
            0x7ff
        } else {
            (len - 1) as u32 & 0x7ff
        };
        dma.write_u32(td_at + 8, (maxlen << 21) | (endpoint << 15) | token_flags);
        dma.write_u32(td_at + 12, buf as u32);
    }

    fn install_frame_list(k: &Kernel, dev: &mut UhciDevice, dma: &DmaMemory, td_at: usize) {
        // Frame list at 0x0; all terminate except frame 0.
        for f in 0..1024 {
            dma.write_u32(f * 4, LINK_TERMINATE);
        }
        dma.write_u32(0, td_at as u32);
        dev.write32(k, FRBASEADD, 0);
    }

    #[test]
    fn port_reports_connected_device() {
        let (k, mut dev, _) = setup();
        assert!(dev.read32(&k, PORTSC1) & PORT_CCS != 0);
        dev.write32(&k, PORTSC1, PORT_PE);
        assert!(dev.read32(&k, PORTSC1) & PORT_PE != 0);
    }

    #[test]
    fn bulk_out_writes_flash_sector() {
        let (k, mut dev, dma) = setup();
        dev.write32(&k, USBINTR, 1);
        // Payload: 'W' + sector 7 + 512 bytes of 0x5a at buffer 0x6000.
        let mut payload = vec![FLASH_CMD_WRITE];
        payload.extend_from_slice(&7u32.to_le_bytes());
        payload.extend_from_slice(&[0x5a; SECTOR_SIZE]);
        dma.write_bytes(0x6000, &payload);
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, payload.len());
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);

        assert_eq!(dev.flash_sector(7).unwrap(), vec![0x5a; SECTOR_SIZE]);
        assert_eq!(dev.tds_completed, 1);
        assert!(dev.read32(&k, USBSTS) & STS_USBINT != 0);
        assert!(k.irq_pending(9));
        // TD no longer active.
        assert_eq!(dma.read_u32(0x2004) & TD_ACTIVE, 0);
    }

    #[test]
    fn bulk_read_roundtrip() {
        let (k, mut dev, dma) = setup();
        // First write sector 3.
        let mut w = vec![FLASH_CMD_WRITE];
        w.extend_from_slice(&3u32.to_le_bytes());
        w.extend_from_slice(&[0xa7; SECTOR_SIZE]);
        dma.write_bytes(0x6000, &w);
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, w.len());
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);

        // Then stage a read and fetch it via IN.
        let mut r = vec![FLASH_CMD_READ];
        r.extend_from_slice(&3u32.to_le_bytes());
        dma.write_bytes(0x6000, &r);
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, r.len());
        dma.write_u32(0x2000, 0x2010); // link to the IN TD
        build_td(&dma, 0x2010, EP_BULK_IN, 0x7000, SECTOR_SIZE);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);

        assert_eq!(dma.read_bytes(0x7000, SECTOR_SIZE), vec![0xa7; SECTOR_SIZE]);
    }

    #[test]
    fn in_td_maxlen_truncates_a_longer_staged_sector() {
        // The TD contract: the device must never DMA past the buffer
        // the TD names. A 512-byte staged sector read through a
        // 64-byte IN TD delivers exactly 64 bytes, reports actual=64,
        // and leaves the bytes beyond the buffer untouched.
        let (k, mut dev, dma) = setup();
        let mut w = vec![FLASH_CMD_WRITE];
        w.extend_from_slice(&6u32.to_le_bytes());
        w.extend_from_slice(&[0xee; SECTOR_SIZE]);
        dma.write_bytes(0x6000, &w);
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, w.len());
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);

        let mut r = vec![FLASH_CMD_READ];
        r.extend_from_slice(&6u32.to_le_bytes());
        dma.write_bytes(0x6000, &r);
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, r.len());
        dma.write_u32(0x2000, 0x2010);
        build_td(&dma, 0x2010, EP_BULK_IN, 0x7000, 64);
        dma.write_bytes(0x7000 + 64, &[0u8; 16]); // guard canary
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);

        assert_eq!(dma.read_bytes(0x7000, 64), vec![0xee; 64]);
        assert_eq!(dma.read_bytes(0x7000 + 64, 16), vec![0u8; 16], "overrun");
        assert_eq!(
            dma.read_u32(0x2010 + 4) & 0x7ff,
            64,
            "actual reports the truncated length"
        );
    }

    #[test]
    fn in_without_staged_read_stalls() {
        let (k, mut dev, dma) = setup();
        build_td(&dma, 0x2000, EP_BULK_IN, 0x7000, SECTOR_SIZE);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);
        assert!(dma.read_u32(0x2004) & TD_STALLED != 0);
    }

    #[test]
    fn commands_past_the_media_stall_and_store_nothing() {
        // A sector number is host input: the last sector takes a write,
        // one past it stalls a `W` or an `R` without growing the store.
        let (k, mut dev, dma) = setup();
        let len = stage_write(&dma, 0x6000, MEDIA_SECTORS - 1, 0x3c);
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, len);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);
        assert_eq!(dma.read_u32(0x2004) & TD_STALLED, 0);
        assert_eq!(dev.flash_sector_count(), 1);
        for sector in [MEDIA_SECTORS, u32::MAX] {
            let len = stage_write(&dma, 0x6000, sector, 0x3d);
            build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, len);
            dev.write32(&k, USBCMD, CMD_RS);
            assert!(dma.read_u32(0x2004) & TD_STALLED != 0, "W {sector}");
            let mut r = vec![FLASH_CMD_READ];
            r.extend_from_slice(&sector.to_le_bytes());
            dma.write_bytes(0x6000, &r);
            build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, r.len());
            dev.write32(&k, USBCMD, CMD_RS);
            assert!(dma.read_u32(0x2004) & TD_STALLED != 0, "R {sector}");
        }
        assert_eq!(dev.flash_sector_count(), 1, "the store did not grow");
        assert_eq!((dev.flash_writes(), dev.flash_reads()), (1, 0));
        // Nothing was staged, so an IN still stalls.
        build_td(&dma, 0x2000, EP_BULK_IN, 0x7000, SECTOR_SIZE);
        dev.write32(&k, USBCMD, CMD_RS);
        assert!(dma.read_u32(0x2004) & TD_STALLED != 0);
    }

    #[test]
    fn a_never_written_sector_reads_blank() {
        let (k, mut dev, dma) = setup();
        dma.write_bytes(0x7000, &[0xff; SECTOR_SIZE]);
        let mut r = vec![FLASH_CMD_READ];
        r.extend_from_slice(&12u32.to_le_bytes());
        dma.write_bytes(0x6000, &r);
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, r.len());
        dma.write_u32(0x2000, 0x2010);
        build_td(&dma, 0x2010, EP_BULK_IN, 0x7000, SECTOR_SIZE);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);
        assert_eq!(dma.read_u32(0x2014) & 0x7ff, SECTOR_SIZE as u32);
        assert_eq!(dma.read_bytes(0x7000, SECTOR_SIZE), vec![0; SECTOR_SIZE]);
        assert_eq!(dev.flash_sector_count(), 0, "a read stores nothing");
    }

    #[test]
    fn halted_controller_ignores_schedule() {
        let (k, mut dev, dma) = setup();
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, 5);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        // RS never set.
        assert_eq!(dev.tds_completed, 0);
        assert!(dev.read32(&k, USBSTS) & STS_HCHALTED != 0);
    }

    #[test]
    fn luns_have_independent_stores_and_staged_reads() {
        let (k, mut dev, dma) = setup();
        assert_eq!(dev.lun_count(), MAX_LUNS);
        assert_eq!(lun_of_endpoint(EP_BULK_OUT), Some(0));
        assert_eq!(lun_of_endpoint(EP_BULK_IN), Some(0));
        assert_eq!(lun_of_endpoint(ep_bulk_out(3)), Some(3));
        assert_eq!(lun_of_endpoint(ep_bulk_in(6)), Some(6));
        assert_eq!(lun_of_endpoint(0), None, "control endpoint is no LUN");
        assert_eq!(lun_of_endpoint(15), None, "beyond the LUN space");

        // Write sector 4 on LUN 0 and LUN 2 with different fill bytes.
        for (lun, fill) in [(0usize, 0x11u8), (2, 0x22)] {
            let mut w = vec![FLASH_CMD_WRITE];
            w.extend_from_slice(&4u32.to_le_bytes());
            w.extend_from_slice(&[fill; SECTOR_SIZE]);
            dma.write_bytes(0x6000, &w);
            build_td(&dma, 0x2000, ep_bulk_out(lun), 0x6000, w.len());
            install_frame_list(&k, &mut dev, &dma, 0x2000);
            dev.write32(&k, USBCMD, CMD_RS);
        }
        assert_eq!(dev.flash_sector_lun(0, 4).unwrap(), vec![0x11; SECTOR_SIZE]);
        assert_eq!(dev.flash_sector_lun(2, 4).unwrap(), vec![0x22; SECTOR_SIZE]);
        assert_eq!(dev.flash_sector_count(), 2, "counts span LUNs");

        // Staged reads are per LUN: stage both, then fetch in the
        // *opposite* order — a single shared staging slot would cross
        // the streams.
        for lun in [0usize, 2] {
            let mut r = vec![FLASH_CMD_READ];
            r.extend_from_slice(&4u32.to_le_bytes());
            dma.write_bytes(0x6000, &r);
            build_td(&dma, 0x2000, ep_bulk_out(lun), 0x6000, r.len());
            install_frame_list(&k, &mut dev, &dma, 0x2000);
            dev.write32(&k, USBCMD, CMD_RS);
        }
        for (lun, fill) in [(2usize, 0x22u8), (0, 0x11)] {
            build_td(&dma, 0x2000, ep_bulk_in(lun), 0x7000, SECTOR_SIZE);
            install_frame_list(&k, &mut dev, &dma, 0x2000);
            dev.write32(&k, USBCMD, CMD_RS);
            assert_eq!(
                dma.read_bytes(0x7000, SECTOR_SIZE),
                vec![fill; SECTOR_SIZE],
                "LUN {lun} staged read"
            );
        }
        let contents = dev.flash_contents();
        assert_eq!(contents.len(), 2);
        assert_eq!(contents[0].0, 0, "snapshot sorted by (lun, sector)");
        assert_eq!(contents[1].0, 2);
    }

    #[test]
    fn sg_out_chain_reassembles_one_flash_command() {
        // A 'W' command scattered across three MORE-chained TDs must
        // execute as *one* command once the chain-final TD lands —
        // byte-identical to the single-TD submission.
        let (k, mut dev, dma) = setup();
        let mut payload = vec![FLASH_CMD_WRITE];
        payload.extend_from_slice(&9u32.to_le_bytes());
        payload.extend_from_slice(&(0..SECTOR_SIZE).map(|i| i as u8).collect::<Vec<_>>());
        // Scatter the command into discontiguous buffers.
        let cuts = [0usize, 100, 300, payload.len()];
        let bufs = [0x6000usize, 0x6800, 0x7000];
        for (i, buf) in bufs.iter().enumerate() {
            dma.write_bytes(*buf, &payload[cuts[i]..cuts[i + 1]]);
        }
        for (i, buf) in bufs.iter().enumerate() {
            let flags = if i + 1 < bufs.len() { TD_TOKEN_MORE } else { 0 };
            let seg = &payload[cuts[i]..cuts[i + 1]];
            build_td_flags(&dma, 0x2000, ep_bulk_out(0), *buf, seg.len(), flags);
            install_frame_list(&k, &mut dev, &dma, 0x2000);
            dev.write32(&k, USBCMD, CMD_RS);
            // Mid-chain TDs complete successfully without executing.
            assert_eq!(dma.read_u32(0x2004) & TD_STALLED, 0, "TD {i}");
            if i + 1 < bufs.len() {
                assert_eq!(dev.flash_writes(), 0, "command must not run early");
            }
        }
        assert_eq!(dev.flash_writes(), 1, "one command, three TDs");
        assert_eq!(dev.flash_sector(9).unwrap(), payload[5..].to_vec());
    }

    #[test]
    fn sg_in_chain_streams_a_staged_sector() {
        // A staged 512-byte sector fetched through two 256-byte
        // MORE-chained IN TDs: each TD fills completely, the stream
        // state carries the remainder, nothing leaks to a later
        // unrelated IN.
        let (k, mut dev, dma) = setup();
        dev.preload_sector(5, (0..SECTOR_SIZE).map(|i| (i ^ 0x37) as u8).collect());
        let mut r = vec![FLASH_CMD_READ];
        r.extend_from_slice(&5u32.to_le_bytes());
        dma.write_bytes(0x6000, &r);
        build_td(&dma, 0x2000, ep_bulk_out(0), 0x6000, r.len());
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);

        build_td_flags(&dma, 0x2000, ep_bulk_in(0), 0x7000, 256, TD_TOKEN_MORE);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);
        assert_eq!(dma.read_u32(0x2004) & 0x7ff, 256, "first TD full");

        build_td(&dma, 0x2000, ep_bulk_in(0), 0x7800, 256);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);
        assert_eq!(dma.read_u32(0x2004) & 0x7ff, 256, "second TD full");

        let expect: Vec<u8> = (0..SECTOR_SIZE).map(|i| (i ^ 0x37) as u8).collect();
        assert_eq!(dma.read_bytes(0x7000, 256), expect[..256]);
        assert_eq!(dma.read_bytes(0x7800, 256), expect[256..]);
        // The chain-final TD (no MORE) dropped the stream: a later IN
        // with nothing staged stalls instead of reading stale bytes.
        build_td(&dma, 0x2000, ep_bulk_in(0), 0x7000, SECTOR_SIZE);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);
        assert!(dma.read_u32(0x2004) & TD_STALLED != 0, "no stale stream");
    }

    #[test]
    fn sg_in_short_packet_terminates_the_stream() {
        // A short packet ends the transfer like a real bulk pipe: a
        // 100-byte staged sector through a 256-byte MORE TD delivers
        // 100, and the stream does NOT survive to the next TD.
        let (k, mut dev, dma) = setup();
        dev.preload_sector(8, vec![0xab; 100]);
        let mut r = vec![FLASH_CMD_READ];
        r.extend_from_slice(&8u32.to_le_bytes());
        dma.write_bytes(0x6000, &r);
        build_td(&dma, 0x2000, ep_bulk_out(0), 0x6000, r.len());
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);

        build_td_flags(&dma, 0x2000, ep_bulk_in(0), 0x7000, 256, TD_TOKEN_MORE);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);
        assert_eq!(dma.read_u32(0x2004) & 0x7ff, 100, "short packet");
        assert_eq!(dma.read_bytes(0x7000, 100), vec![0xab; 100]);

        build_td(&dma, 0x2000, ep_bulk_in(0), 0x7800, 256);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);
        assert!(
            dma.read_u32(0x2004) & TD_STALLED != 0,
            "short packet terminated the stream"
        );
    }

    #[test]
    fn sg_in_exact_fill_yields_zlp_on_next_td() {
        // Exactly-filled MORE TD: the empty remainder is retained, so
        // the next TD of the chain reads zero bytes — the ZLP that
        // tells the host the transfer is complete (not a stall).
        let (k, mut dev, dma) = setup();
        dev.preload_sector(2, vec![0x44; 256]);
        let mut r = vec![FLASH_CMD_READ];
        r.extend_from_slice(&2u32.to_le_bytes());
        dma.write_bytes(0x6000, &r);
        build_td(&dma, 0x2000, ep_bulk_out(0), 0x6000, r.len());
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);

        build_td_flags(&dma, 0x2000, ep_bulk_in(0), 0x7000, 256, TD_TOKEN_MORE);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);
        assert_eq!(dma.read_u32(0x2004) & 0x7ff, 256);

        build_td(&dma, 0x2000, ep_bulk_in(0), 0x7800, 256);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);
        let status = dma.read_u32(0x2004);
        assert_eq!(status & TD_STALLED, 0, "ZLP is a success, not a stall");
        assert_eq!(status & 0x7ff, 0, "zero-length packet");
    }

    /// A `W` command for `sector` filled with `fill`, placed at `buf`.
    fn stage_write(dma: &DmaMemory, buf: usize, sector: u32, fill: u8) -> usize {
        let mut w = vec![FLASH_CMD_WRITE];
        w.extend_from_slice(&sector.to_le_bytes());
        w.extend_from_slice(&[fill; SECTOR_SIZE]);
        dma.write_bytes(buf, &w);
        w.len()
    }

    #[test]
    fn live_frames_far_apart_run_in_frame_order_in_one_kick() {
        // Both writes target sector 1: the later frame's fill must win,
        // and FRNUM must end at the last live frame.
        let (k, mut dev, dma) = setup();
        let len = stage_write(&dma, 0x6000, 1, 0x0a);
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, len);
        stage_write(&dma, 0x6800, 1, 0x0b);
        build_td(&dma, 0x2010, EP_BULK_OUT, 0x6800, len);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dma.write_u32(700 * 4, 0x2010);
        dev.write32(&k, USBCMD, CMD_RS);
        assert_eq!(dev.tds_completed, 2, "one kick ran both frames");
        assert_eq!(dev.flash_sector(1).unwrap(), vec![0x0b; SECTOR_SIZE]);
        assert_eq!(dev.read32(&k, FRNUM), 700);
    }

    #[test]
    fn the_last_frame_is_walked_too() {
        // Frame 1023 sits past the last whole block of the bulk skip
        // once the scan resumes from frame 1.
        let (k, mut dev, dma) = setup();
        let len = stage_write(&dma, 0x6000, 2, 0x0c);
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, len);
        stage_write(&dma, 0x6800, 3, 0x0d);
        build_td(&dma, 0x2010, EP_BULK_OUT, 0x6800, len);
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dma.write_u32(1023 * 4, 0x2010);
        dev.write32(&k, USBCMD, CMD_RS);
        assert_eq!(dev.flash_sector(3).unwrap(), vec![0x0d; SECTOR_SIZE]);
        assert_eq!(dev.read32(&k, FRNUM), 1023);
    }

    #[test]
    fn entry_rewritten_by_an_earlier_frame_is_seen_in_the_same_kick() {
        // The walk reads memory, not a snapshot: frame 0's IN TD lands
        // its data on frame-list entry 9, turning it from "terminate"
        // into a pointer at a second live TD — which this kick must run,
        // because entry 9 is read only after frame 0's chain finished.
        let (k, mut dev, dma) = setup();
        dev.preload_sector(3, 0x2010u32.to_le_bytes().to_vec());
        let mut r = vec![FLASH_CMD_READ];
        r.extend_from_slice(&3u32.to_le_bytes());
        dma.write_bytes(0x6000, &r);
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, r.len());
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);

        build_td(&dma, 0x2000, EP_BULK_IN, 9 * 4, 4);
        let len = stage_write(&dma, 0x6800, 5, 0xc4);
        build_td(&dma, 0x2010, EP_BULK_OUT, 0x6800, len);
        assert_eq!(dma.read_u32(9 * 4), LINK_TERMINATE, "dead before the kick");
        dev.write32(&k, USBCMD, CMD_RS);
        assert_eq!(dma.read_u32(9 * 4), 0x2010, "frame 0 rewrote entry 9");
        assert_eq!(dev.flash_sector(5).unwrap(), vec![0xc4; SECTOR_SIZE]);
        assert_eq!(dev.read32(&k, FRNUM), 9);
    }

    #[test]
    #[should_panic(expected = "dma with_bytes bounds")]
    fn frame_list_reaching_past_the_dma_region_is_a_bounds_panic() {
        let (k, mut dev, dma) = setup();
        dev.write32(&k, USBCMD, CMD_RS);
        dev.write32(&k, FRBASEADD, (dma.len() - 4092) as u32);
    }

    #[test]
    fn all_terminated_list_completes_nothing() {
        let (k, mut dev, dma) = setup();
        dev.write32(&k, USBINTR, 1);
        dev.write32(&k, FRNUM, 77);
        install_frame_list(&k, &mut dev, &dma, LINK_TERMINATE as usize);
        dev.write32(&k, USBCMD, CMD_RS);
        assert_eq!(dev.tds_completed, 0);
        assert_eq!(dev.read32(&k, USBSTS) & STS_USBINT, 0);
        assert!(!k.irq_pending(9));
        assert_eq!(dev.read32(&k, FRNUM), 77, "no live frame, FRNUM untouched");
    }

    /// The walk the line walk must refine: every kick re-reads all 1,024
    /// entries, each from memory after every chain of every earlier frame
    /// has run.
    fn reference_walk(dev: &mut UhciDevice, k: &Kernel) {
        if dev.usbcmd & CMD_RS == 0 || !dev.frbase_installed {
            return;
        }
        let mut completed = false;
        for frame in 0..FRAME_LIST_ENTRIES {
            let entry = dev.dma.read_u32(dev.frbase as usize + frame * 4);
            if entry & LINK_TERMINATE == 0 {
                completed |= dev.run_chain(k, (entry & !0xf) as usize);
                dev.frnum = frame as u32;
            }
        }
        if completed {
            dev.usbsts |= STS_USBINT;
            if dev.usbintr != 0 {
                k.raise_irq(dev.irq_line);
            }
        }
    }

    /// `write32` with [`reference_walk`] in place of the line walk.
    fn reference_write32(dev: &mut UhciDevice, k: &Kernel, offset: u64, value: u32) {
        match offset {
            USBCMD if value & CMD_HCRESET == 0 => {
                dev.usbcmd = value;
                if value & CMD_RS != 0 {
                    dev.usbsts &= !STS_HCHALTED;
                    reference_walk(dev, k);
                } else {
                    dev.usbsts |= STS_HCHALTED;
                }
            }
            FRBASEADD => {
                dev.frbase = value;
                dev.frbase_installed = true;
                reference_walk(dev, k);
            }
            _ => dev.write32(k, offset, value),
        }
    }

    /// Layout of a refinement case's 64 KiB region. Every dword a case
    /// can leave in a frame list is terminated or points at a TD inside
    /// the region, and no stray dword carries `TD_ACTIVE`.
    mod walk {
        use super::*;

        /// The region: the laid-out 64 KiB, and large enough that a
        /// stalled TD's status read as a frame-list entry (`TD_STALLED`,
        /// a pointer at 0x400000) names a TD inside it — zeros, which
        /// link to trap 0.
        pub const SIZE: usize = 0x40_1000;
        /// What a case lays out and compares.
        pub const LAID_OUT: usize = 0x1_0000;
        /// Two frame lists, so a re-install can switch between them.
        pub const LISTS: [usize; 2] = [0x1000, 0x2000];
        /// 128 one-dword-payload log TDs at 0x000..0x800: a frame-list
        /// entry `16·j` points at trap `j`.
        pub const TRAPS: usize = 128;
        /// 64 TDs the driver rebuilds at will.
        pub const POOL: usize = 0x4000;
        /// OUT payloads of the log TDs, two bytes per TD id.
        const LOG_BUF: usize = 0x5000;
        /// Odd payload addresses of TDs placed inside a frame list.
        const IN_LIST_BUF: usize = 0x6001;
        /// `R` commands, one per preloaded sector.
        const CMD_BUF: usize = 0xb000;
        /// IN buffers outside the frame lists.
        const IN_BUF: usize = 0xc000;
        /// The LUN whose `MORE` chain never ends: its accumulator is the
        /// log of every log TD executed, in execution order.
        pub const LOG_LUN: usize = 1;
        /// LUN 0 sectors holding frame-list-safe dwords.
        const SECTORS: u32 = 8;

        /// SplitMix64: one case is one seed.
        pub struct Rng(u64);

        impl Rng {
            pub fn new(seed: u64) -> Self {
                Rng(seed)
            }

            pub fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }

            pub fn below(&mut self, n: usize) -> usize {
                (self.next() % n as u64) as usize
            }
        }

        /// One step of a case, applied alike to both machines.
        pub enum Op {
            Dword(usize, u32),
            Bytes(usize, Vec<u8>),
            Reg(u64, u32),
        }

        fn maxlen(len: usize) -> u32 {
            if len == 0 {
                0x7ff
            } else {
                (len as u32 - 1) & 0x7ff
            }
        }

        /// A TD token. Bit 0 is spare in this model's token: set, it keeps
        /// a TD's token dword terminated when the TD sits in a frame list.
        fn token(endpoint: u32, len: usize, more: bool) -> u32 {
            let more = if more { TD_TOKEN_MORE } else { 0 };
            maxlen(len) << 21 | endpoint << 15 | more | 1
        }

        /// The four dwords of a TD at `at`.
        fn td(ops: &mut Vec<Op>, at: usize, [link, status, token, buffer]: [u32; 4]) {
            for (i, dword) in [link, status, token, buffer].into_iter().enumerate() {
                ops.push(Op::Dword(at + 4 * i, dword));
            }
        }

        /// An active TD appending its id to the log when it runs.
        fn log_td(ops: &mut Vec<Op>, at: usize, link: u32, id: usize) {
            let buf = LOG_BUF + 2 * id;
            ops.push(Op::Bytes(buf, vec![(id >> 8) as u8, id as u8]));
            let token = token(ep_bulk_out(LOG_LUN), 2, true);
            td(ops, at, [link, TD_ACTIVE, token, buf as u32]);
        }

        fn pool_td(i: usize) -> u32 {
            (POOL + 16 * i) as u32
        }

        /// A dword safe to leave in a frame list: terminated, a trap, a
        /// pool TD, or a small odd number.
        pub fn entry_value(rng: &mut Rng) -> u32 {
            match rng.below(4) {
                0 => LINK_TERMINATE,
                1 => 16 * rng.below(TRAPS) as u32,
                2 => pool_td(rng.below(64)),
                _ => rng.below(0x8000) as u32 | 1,
            }
        }

        /// What both machines start from: both lists all terminated, the
        /// traps armed, LUN 0 sectors of frame-list-safe dwords, list 0
        /// installed, interrupts on.
        pub fn setup(rng: &mut Rng) -> (Vec<Op>, Vec<Vec<u8>>) {
            let mut ops = Vec::new();
            for base in LISTS {
                (0..FRAME_LIST_ENTRIES).for_each(|f| ops.push(Op::Dword(base + 4 * f, 1)));
            }
            for j in 0..TRAPS {
                log_td(&mut ops, 16 * j, LINK_TERMINATE, j);
            }
            let sectors = (0..SECTORS)
                .map(|_| {
                    let dwords = (0..SECTOR_SIZE / 4).map(|_| entry_value(rng));
                    dwords.flat_map(u32::to_le_bytes).collect()
                })
                .collect();
            ops.push(Op::Reg(USBINTR, 1));
            ops.push(Op::Reg(FRBASEADD, LISTS[0] as u32));
            (ops, sectors)
        }

        /// One driver action or register write; `list` is the frame list
        /// the driver writes (usually the installed one).
        pub fn action(rng: &mut Rng, ops: &mut Vec<Op>, installed: &mut usize) {
            let list = if rng.below(4) == 0 {
                LISTS[rng.below(2)]
            } else {
                *installed
            };
            let frame = |rng: &mut Rng| list + 4 * rng.below(FRAME_LIST_ENTRIES);
            match rng.below(16) {
                // A log TD (sometimes chained to another) in frame f.
                0 | 1 => {
                    let i = rng.below(64);
                    let link = match rng.below(4) {
                        0 => pool_td(rng.below(64)),
                        _ => LINK_TERMINATE,
                    };
                    log_td(ops, pool_td(i) as usize, link, TRAPS + i);
                    ops.push(Op::Dword(frame(rng), pool_td(i)));
                }
                // Stage a sector, then read it — half the time onto a
                // frame list, where it rewrites entries.
                2 => {
                    let (cmd, data) = (rng.below(64), rng.below(64));
                    if cmd == data {
                        return;
                    }
                    let sector = rng.below(SECTORS as usize) as u32;
                    let buf = CMD_BUF + 8 * sector as usize;
                    let mut r = vec![FLASH_CMD_READ];
                    r.extend_from_slice(&sector.to_le_bytes());
                    ops.push(Op::Bytes(buf, r));
                    let out = token(ep_bulk_out(0), 5, false);
                    td(
                        ops,
                        pool_td(cmd) as usize,
                        [pool_td(data), TD_ACTIVE, out, buf as u32],
                    );
                    let len = 4 * (1 + rng.below(8));
                    let dest = match rng.below(2) {
                        0 => frame(rng).min(list + 4 * FRAME_LIST_ENTRIES - len),
                        _ => IN_BUF,
                    };
                    let tok = token(ep_bulk_in(0), len, false);
                    td(
                        ops,
                        pool_td(data) as usize,
                        [1, TD_ACTIVE, tok, dest as u32],
                    );
                    ops.push(Op::Dword(frame(rng), pool_td(cmd)));
                }
                // A log TD inside the frame list, pointed at from frame
                // f: its status write lands on the entry after it, ahead
                // of the cursor or behind it, as a terminated length or
                // a pointer at a trap.
                3 | 4 => {
                    let k = 4 * rng.below(FRAME_LIST_ENTRIES / 4);
                    let at = list + 4 * k;
                    let len = [1, 3, 5, 16, 32, 48, 64][rng.below(7)];
                    let buf = IN_LIST_BUF + 64 * (k / 4);
                    let id = 0x100 + k / 4;
                    ops.push(Op::Bytes(buf, vec![id as u8; len]));
                    let link = match rng.below(2) {
                        0 => pool_td(rng.below(64)),
                        _ => LINK_TERMINATE,
                    };
                    let tok = token(ep_bulk_out(LOG_LUN), len, true);
                    td(ops, at, [link, TD_ACTIVE | 1, tok, buf as u32]);
                    let f = loop {
                        let f = frame(rng);
                        if !(at..at + 16).contains(&f) {
                            break f;
                        }
                    };
                    ops.push(Op::Dword(f, at as u32));
                }
                5 => ops.push(Op::Dword(frame(rng), LINK_TERMINATE)),
                6 => ops.push(Op::Dword(frame(rng), entry_value(rng))),
                // Re-arm a few traps.
                7 => {
                    for _ in 0..4 {
                        ops.push(Op::Dword(16 * rng.below(TRAPS) + 4, TD_ACTIVE));
                    }
                }
                8..=12 => ops.push(Op::Reg(USBCMD, CMD_RS)),
                13 => ops.push(Op::Reg(USBCMD, 0)),
                14 => {
                    *installed = LISTS[rng.below(2)];
                    ops.push(Op::Reg(FRBASEADD, *installed as u32));
                }
                _ => ops.push(Op::Reg(USBCMD, CMD_HCRESET)),
            }
        }
    }

    /// A kernel, a region and a controller walking it one way or the
    /// other.
    struct Machine {
        k: Kernel,
        dma: DmaMemory,
        dev: UhciDevice,
        reference: bool,
    }

    impl Machine {
        fn new(reference: bool, sectors: &[Vec<u8>]) -> Self {
            let dma = DmaMemory::new(walk::SIZE);
            let mut dev = UhciDevice::new(9, dma.clone());
            for (sector, data) in sectors.iter().enumerate() {
                dev.preload_sector(sector as u32, data.clone());
            }
            Machine {
                k: Kernel::new(),
                dma,
                dev,
                reference,
            }
        }

        fn apply(&mut self, op: &walk::Op) {
            match *op {
                walk::Op::Dword(at, value) => self.dma.write_u32(at, value),
                walk::Op::Bytes(at, ref data) => self.dma.write_bytes(at, data),
                walk::Op::Reg(offset, value) if self.reference => {
                    reference_write32(&mut self.dev, &self.k, offset, value)
                }
                walk::Op::Reg(offset, value) => self.dev.write32(&self.k, offset, value),
            }
        }

        /// Everything a walk leaves behind, TD order included (the log
        /// LUN's accumulator).
        fn observed(&self) -> (u32, u64, u32, u64, bool, &[u8], u64) {
            let d = &self.dev;
            let log = &d.luns[walk::LOG_LUN].out_accum;
            let irq = self.k.irq_pending(9);
            let reads = d.flash_reads();
            (
                d.frnum,
                d.tds_completed,
                d.usbsts,
                self.k.now_ns(),
                irq,
                log,
                reads,
            )
        }
    }

    /// One seeded case: both machines take the same `steps` actions and
    /// must agree after every register write.
    fn walk_refinement_case(seed: u64, steps: usize) {
        let mut rng = walk::Rng::new(seed);
        let (setup, sectors) = walk::setup(&mut rng);
        let mut lines = Machine::new(false, &sectors);
        let mut reference = Machine::new(true, &sectors);
        let mut installed = walk::LISTS[0];
        let mut ops = setup;
        for step in 0..steps {
            for op in &ops {
                lines.apply(op);
                reference.apply(op);
                if let walk::Op::Reg(offset, value) = *op {
                    let ctx = || format!("seed {seed} step {step}: reg {offset:#x} = {value:#x}");
                    assert_eq!(lines.observed(), reference.observed(), "{}", ctx());
                    let end = walk::LAID_OUT;
                    let theirs = |a: &[u8]| reference.dma.with_bytes(0, end, |b| a == b);
                    let same = lines.dma.with_bytes(0, end, theirs);
                    assert!(same, "DMA bytes differ, {}", ctx());
                }
            }
            ops.clear();
            walk::action(&mut rng, &mut ops, &mut installed);
        }
    }

    #[test]
    fn the_line_walk_refines_the_full_walk() {
        // Live entries in random frames, driver rewrites between kicks,
        // TDs inside the frame list whose status writes land ahead of the
        // cursor and behind it, IN data landing on the list, re-installs
        // of either list and resets, all against the full re-read.
        for seed in 0..160 {
            walk_refinement_case(seed, 120);
        }
    }

    #[test]
    fn reset_keeps_flash_media() {
        let (k, mut dev, dma) = setup();
        let mut w = vec![FLASH_CMD_WRITE];
        w.extend_from_slice(&1u32.to_le_bytes());
        w.extend_from_slice(&[9; SECTOR_SIZE]);
        dma.write_bytes(0x6000, &w);
        build_td(&dma, 0x2000, EP_BULK_OUT, 0x6000, w.len());
        install_frame_list(&k, &mut dev, &dma, 0x2000);
        dev.write32(&k, USBCMD, CMD_RS);
        assert_eq!(dev.flash_sector_count(), 1);
        dev.write32(&k, USBCMD, CMD_HCRESET);
        assert_eq!(dev.flash_sector_count(), 1, "media outlives the controller");
        assert!(dev.read32(&k, USBSTS) & STS_HCHALTED != 0);
    }
}
