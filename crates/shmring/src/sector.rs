//! The sector-granular payload pool for variable-length storage
//! transfers.
//!
//! The NIC-shaped [`crate::BufPool`] hands out fixed-size buffers — the
//! right shape for MTU-bounded frames, the wrong one for storage, where
//! a transfer is "some number of sectors" (a 5-byte flash command, a
//! 512-byte sector, a multi-sector scatter write). A [`SectorPool`]
//! carves a [`DmaMemory`] region into sectors and allocates *runs* of
//! them sized to the transfer, so one descriptor handle still names the
//! whole payload and the device can DMA the run(s) directly.
//!
//! Three properties distinguish it from the frame pool:
//!
//! * **Variable-length runs** — [`SectorPool::alloc`] takes the byte
//!   length and reserves `ceil(len / sector_size)` contiguous sectors;
//!   [`SectorPool::free`] reclaims the whole run from the handle alone.
//!   Frees may arrive out of order — storage devices complete out of
//!   order just like NICs.
//! * **Fragmentation-proof scatter-gather** — a fragmented pool can hold
//!   the bytes for a transfer without holding them *contiguously*. Real
//!   HCDs chain transfer descriptors across discontiguous pages rather
//!   than refusing; [`SectorPool::alloc_sg`] does the same, returning an
//!   [`SgHandle`] naming a **chain** of contiguous segments. Under
//!   [`AllocMode::BuddySg`] (the default) an allocation is refused only
//!   when the pool genuinely lacks the sectors — never for shape. The
//!   allocator behind it is a buddy system (order-bucketed free lists,
//!   block split on alloc, buddy merge on free, `O(log n)` per
//!   operation); the first-fit scan survives behind
//!   [`AllocMode::FirstFit`] for the fragmentation ablation.
//! * **Zero-copy adoption** — storage payloads reach the kernel in
//!   page-granular buffers the device can DMA directly (the page cache,
//!   an `O_DIRECT` user buffer). [`SectorPool::adopt_payload`] /
//!   [`SectorPool::adopt_payload_sg`] model that donation: the run is
//!   *mapped*, not memcpy'd, charging [`costs::SECTOR_MAP_NS`] per
//!   sector instead of a per-byte copy, and
//!   [`decaf_simkernel::kernel::KernelStats::bytes_copied`] stays
//!   untouched. [`SectorPool::write_payload`] remains for paths that
//!   genuinely copy (and charges them honestly).
//!
//! Conservation is a checked invariant: every sector ever allocated is
//! either reclaimed or still in use ([`SectorPool::conserved`]), and two
//! live runs never alias — the property tests in `tests/prop.rs` drive
//! both across arbitrary alloc/free interleavings, and check the buddy
//! modes against a first-fit oracle for the completeness property
//! (buddy+SG never refuses a transfer the pool has the bytes for).
//!
//! The bookkeeping is two slabs, not hash maps: run lengths sit in a
//! dense per-sector table indexed by a run's first sector, and chains
//! sit in a table of slots whose index *is* the [`SgHandle`] — alloc is
//! a pop of a free slot, free is a push, and a warm pool allocates
//! nothing per chain (the mempool shape of the ixy paper).

use std::cell::{Cell, RefCell};

use decaf_simkernel::counters::Bump;
use decaf_simkernel::{costs, CpuClass, DmaMemory, Kernel};

use crate::pool::PoolError;

/// Handle to one allocated sector run: the index of its first sector.
/// Like [`crate::BufHandle`], 4 bytes standing in for a whole payload —
/// the run length is the pool's bookkeeping, not the descriptor's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SectorHandle(pub u32);

/// Bits of an [`SgHandle`] naming the chain's slot; the bits above them
/// carry the slot's generation.
const SG_SLOT_BITS: u32 = 16;
const SG_SLOT_MASK: u32 = (1 << SG_SLOT_BITS) - 1;

/// Handle to one scatter-gather chain: an ordered list of contiguous
/// sector runs that together back one transfer. Allocated by
/// [`SectorPool::alloc_sg`]; the segment list is the pool's bookkeeping
/// ([`SectorPool::sg_segments_into`]), so the handle stays 4 bytes and
/// rides a ring descriptor unchanged. A zero-length transfer is a valid
/// chain with **no** segments — it allocates nothing.
///
/// The value is `slot | generation << 16`: the low half indexes the
/// pool's chain table, the high half is that slot's generation, bumped
/// on every [`SectorPool::free_sg`]. A handle is a number the completer
/// hands back, so the pool trusts neither half: a slot out of range, a
/// vacant slot, or a freed handle whose slot has since been reused all
/// read as [`PoolError::NotAllocated`] — never as another chain's
/// segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SgHandle(pub u32);

/// One contiguous segment of a scatter-gather chain, in DMA terms: what
/// a transfer descriptor points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgSegment {
    /// Byte offset of the segment inside the pool's DMA region.
    pub offset: usize,
    /// Segment capacity in bytes (a whole number of sectors).
    pub bytes: usize,
}

/// Which allocator backs the pool — the axis of the fragmentation
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocMode {
    /// The original linear first-fit scan. Contiguous only: a fragmented
    /// pool refuses transfers it has the bytes for (the bug this enum
    /// exists to measure).
    FirstFit,
    /// Buddy allocator, contiguous runs only: `O(log n)` alloc and
    /// buddy-merge on free recover contiguity that first-fit loses, but
    /// a chain is never formed — scattered singles still refuse a
    /// multi-sector transfer.
    Buddy,
    /// Buddy allocator plus scatter-gather chaining (the default):
    /// [`SectorPool::alloc_sg`] falls back to chaining the largest free
    /// blocks when no single block fits, so an allocation fails only on
    /// true exhaustion.
    #[default]
    BuddySg,
}

decaf_simkernel::counters! {
    /// Conservation counters for one sector pool.
    pub struct SectorPoolStats {
        /// Successful allocations (contiguous runs and SG chains alike; a
        /// chain counts once however many segments it spans).
        allocs: sum,
        /// Runs/chains handed back.
        frees: sum,
        /// Allocations refused with *too few free sectors in total* — true
        /// out-of-space, which no allocator shape can fix.
        exhausted: sum,
        /// Allocations refused while the pool held **enough free sectors**
        /// but no fitting contiguous run — fragmentation refusals, the
        /// spurious-failure class that scatter-gather chaining eliminates.
        frag_refusals: sum,
        /// Sectors ever allocated (summed over runs).
        sectors_allocated: sum,
        /// Sectors ever reclaimed.
        sectors_reclaimed: sum,
        /// Most sectors simultaneously in use.
        in_use_hwm: max,
    }
}

/// Order-bucketed buddy free lists over sector indices.
///
/// `lists[k]` holds the start sectors of free blocks of `2^k` sectors,
/// sorted ascending so every pop is deterministic (lowest address
/// first). Blocks are split on allocation and merged with their buddy
/// (`start ^ (1 << k)`) on free. Non-power-of-two pool sizes are
/// covered by the greedy aligned decomposition in `insert_range`.
#[derive(Debug)]
struct Buddy {
    lists: Vec<Vec<u32>>,
}

impl Buddy {
    fn new(count: usize) -> Self {
        let orders = count.ilog2() as usize + 1;
        let mut b = Buddy {
            lists: vec![Vec::new(); orders],
        };
        b.insert_range(0, count);
        b
    }

    /// Decomposes `[start, start + len)` into maximal aligned
    /// power-of-two blocks and inserts each (merging as it goes).
    fn insert_range(&mut self, mut start: usize, mut len: usize) {
        while len > 0 {
            let align = if start == 0 {
                self.lists.len() - 1
            } else {
                start.trailing_zeros() as usize
            };
            let k = align.min(len.ilog2() as usize).min(self.lists.len() - 1);
            self.insert_block(start, k);
            start += 1 << k;
            len -= 1 << k;
        }
    }

    /// Inserts a free block of order `k`, merging with its buddy
    /// repeatedly while the buddy is also free.
    fn insert_block(&mut self, mut start: usize, mut k: usize) {
        while k + 1 < self.lists.len() {
            let buddy = start ^ (1 << k);
            if !self.remove_block(buddy, k) {
                break;
            }
            start &= !(1 << k);
            k += 1;
        }
        let list = &mut self.lists[k];
        let pos = list.partition_point(|&s| (s as usize) < start);
        list.insert(pos, start as u32);
    }

    /// Removes a specific block from order `k` if it is free there.
    fn remove_block(&mut self, start: usize, k: usize) -> bool {
        match self.lists[k].binary_search(&(start as u32)) {
            Ok(pos) => {
                self.lists[k].remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Allocates `need` contiguous sectors: smallest sufficient order,
    /// lowest address within it, exact-trim of the tail back into the
    /// free lists (so accounting stays sector-exact — no internal
    /// fragmentation is ever held by a run).
    fn alloc_contig(&mut self, need: usize) -> Option<usize> {
        let kmin = need.next_power_of_two().ilog2() as usize;
        for k in kmin..self.lists.len() {
            if !self.lists[k].is_empty() {
                let start = self.lists[k].remove(0) as usize;
                let size = 1usize << k;
                if size > need {
                    self.insert_range(start + need, size - need);
                }
                return Some(start);
            }
        }
        None
    }

    /// Pops the largest free block whole (lowest address among the
    /// largest order) — the scatter-gather fallback when no single
    /// block covers the remainder of a transfer.
    fn grab_largest(&mut self) -> Option<(usize, usize)> {
        for k in (0..self.lists.len()).rev() {
            if !self.lists[k].is_empty() {
                let start = self.lists[k].remove(0) as usize;
                return Some((start, 1usize << k));
            }
        }
        None
    }

    /// Free blocks as sorted `(start, sectors)` pairs — exposed for the
    /// merge-correctness property tests.
    fn blocks(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = self
            .lists
            .iter()
            .enumerate()
            .flat_map(|(k, l)| l.iter().map(move |&s| (s as usize, 1usize << k)))
            .collect();
        out.sort_unstable();
        out
    }
}

/// One slot of the chain table. The segment `Vec` stays with the slot
/// across reuse, so a warm pool allocates nothing per chain.
#[derive(Debug, Default)]
struct ChainSlot {
    /// Bumped on every free: a handle to an earlier occupant is stale.
    generation: u16,
    live: bool,
    segs: Vec<SgSegment>,
}

/// The chain table: slots indexed by [`SgHandle`], and the vacant ones.
#[derive(Debug, Default)]
struct Chains {
    slots: Vec<ChainSlot>,
    /// Vacant slot indices; the most recently freed is reused first.
    free: Vec<u32>,
}

impl Chains {
    /// The slot `h` names, if it holds the live chain `h` was issued for.
    fn slot_of(&self, h: SgHandle) -> Option<usize> {
        let slot = (h.0 & SG_SLOT_MASK) as usize;
        let c = self.slots.get(slot)?;
        (c.live && u32::from(c.generation) == h.0 >> SG_SLOT_BITS).then_some(slot)
    }

    /// The handle of the chain in `slot`.
    fn handle(&self, slot: usize) -> SgHandle {
        SgHandle(slot as u32 | u32::from(self.slots[slot].generation) << SG_SLOT_BITS)
    }

    /// A vacant slot — popped from the free list, or appended — or
    /// `None` once every slot value a handle can name is live.
    fn vacant(&mut self) -> Option<usize> {
        if let Some(slot) = self.free.pop() {
            return Some(slot as usize);
        }
        if self.slots.len() > SG_SLOT_MASK as usize {
            return None;
        }
        self.slots.push(ChainSlot::default());
        Some(self.slots.len() - 1)
    }

    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// A pool of `sector_size`-byte sectors carved out of a [`DmaMemory`]
/// region, allocated as variable-length runs — contiguous
/// ([`SectorPool::alloc`]) or chained across fragmentation
/// ([`SectorPool::alloc_sg`]).
///
/// # Example
///
/// ```
/// use decaf_shmring::SectorPool;
/// use decaf_simkernel::Kernel;
///
/// let kernel = Kernel::new();
/// let pool = SectorPool::with_capacity(512, 8);
/// // A 517-byte flash write command spans two sectors.
/// let run = pool.alloc(517).unwrap();
/// assert_eq!(pool.run_sectors(run).unwrap(), 2);
/// // Adoption maps the caller's pages instead of copying them.
/// pool.adopt_payload(&kernel, &vec![0xa5; 517], run).unwrap();
/// assert_eq!(kernel.stats().bytes_copied, 0);
/// assert_eq!(pool.read_payload(run, 517).unwrap(), vec![0xa5; 517]);
/// pool.free(run).unwrap();
///
/// // The scatter-gather shape: a chain of segments backs one transfer,
/// // and a zero-length (status-stage) transfer allocates nothing.
/// let chain = pool.alloc_sg(1024).unwrap();
/// assert_eq!(pool.sg_capacity(chain).unwrap(), 1024);
/// let status = pool.alloc_sg(0).unwrap();
/// assert_eq!(pool.sg_segments(status).unwrap().len(), 0);
/// pool.free_sg(chain).unwrap();
/// pool.free_sg(status).unwrap();
/// assert!(pool.conserved());
/// ```
#[derive(Debug)]
pub struct SectorPool {
    dma: DmaMemory,
    base: usize,
    sector_size: usize,
    mode: AllocMode,
    /// Per-sector in-use flags (authoritative occupancy, every mode).
    in_use: RefCell<Vec<bool>>,
    /// How many flags are set — kept beside them so occupancy is a read,
    /// not a scan; [`SectorPool::conserved`] recounts the flags against
    /// it.
    used: Cell<usize>,
    /// Run length in sectors, indexed by the run's first sector; 0 where
    /// no live run starts.
    runs: RefCell<Vec<u32>>,
    /// Buddy free lists — maintained in the buddy modes, absent under
    /// first-fit.
    buddy: RefCell<Option<Buddy>>,
    /// The chain table: each live chain's DMA extents, resolved once at
    /// allocation (its runs cannot move or die before
    /// [`SectorPool::free_sg`]) and read in place by every accessor.
    chains: RefCell<Chains>,
    stats: Cell<SectorPoolStats>,
}

impl SectorPool {
    /// Builds a pool of `count` sectors of `sector_size` bytes starting
    /// at byte `base` of `dma`, under the default allocator
    /// ([`AllocMode::BuddySg`]).
    ///
    /// # Panics
    /// Panics if the region does not fit inside `dma`, or `count` or
    /// `sector_size` is zero.
    pub fn new(dma: DmaMemory, base: usize, sector_size: usize, count: usize) -> Self {
        SectorPool::new_with_mode(dma, base, sector_size, count, AllocMode::default())
    }

    /// Builds a pool with an explicit [`AllocMode`] — the knob the
    /// fragmentation ablation turns.
    ///
    /// # Panics
    /// Panics if the region does not fit inside `dma`, or `count` or
    /// `sector_size` is zero.
    pub fn new_with_mode(
        dma: DmaMemory,
        base: usize,
        sector_size: usize,
        count: usize,
        mode: AllocMode,
    ) -> Self {
        assert!(count > 0, "a pool needs at least one sector");
        assert!(sector_size > 0, "sectors need a size");
        assert!(
            base + sector_size * count <= dma.len(),
            "sector region {base}+{sector_size}x{count} exceeds DMA size {}",
            dma.len()
        );
        let buddy = match mode {
            AllocMode::FirstFit => None,
            AllocMode::Buddy | AllocMode::BuddySg => Some(Buddy::new(count)),
        };
        SectorPool {
            dma,
            base,
            sector_size,
            mode,
            in_use: RefCell::new(vec![false; count]),
            used: Cell::new(0),
            runs: RefCell::new(vec![0; count]),
            buddy: RefCell::new(buddy),
            chains: RefCell::default(),
            stats: Cell::new(SectorPoolStats::default()),
        }
    }

    /// Builds a standalone pool over its own fresh DMA region (tests and
    /// the storage ablation, where no device model is attached).
    pub fn with_capacity(sector_size: usize, count: usize) -> Self {
        SectorPool::new(DmaMemory::new(sector_size * count), 0, sector_size, count)
    }

    /// [`SectorPool::with_capacity`] with an explicit [`AllocMode`].
    pub fn with_capacity_mode(sector_size: usize, count: usize, mode: AllocMode) -> Self {
        SectorPool::new_with_mode(
            DmaMemory::new(sector_size * count),
            0,
            sector_size,
            count,
            mode,
        )
    }

    /// The allocator mode this pool runs under.
    pub fn mode(&self) -> AllocMode {
        self.mode
    }

    /// Bytes per sector.
    pub fn sector_size(&self) -> usize {
        self.sector_size
    }

    /// Total sectors.
    pub fn capacity_sectors(&self) -> usize {
        self.in_use.borrow().len()
    }

    /// Sectors currently free (not necessarily contiguous).
    pub fn available_sectors(&self) -> usize {
        self.capacity_sectors() - self.used.get()
    }

    /// Sectors currently allocated.
    pub fn in_use_sectors(&self) -> usize {
        self.used.get()
    }

    /// Live contiguous runs (SG chains count once per segment).
    pub fn live_runs(&self) -> usize {
        self.runs.borrow().iter().filter(|&&len| len > 0).count()
    }

    /// Live scatter-gather chains.
    pub fn live_chains(&self) -> usize {
        self.chains.borrow().live()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SectorPoolStats {
        self.stats.get()
    }

    /// The conservation invariant: every sector ever allocated is either
    /// reclaimed or still in use — none lost, none double-counted. The
    /// occupancy counter must equal a recount of the flags, and in the
    /// buddy modes the free lists must agree exactly with both. The two
    /// slabs must agree with them too: the run table's lengths sum to the
    /// occupancy counter; every segment of a live chain is a live run of
    /// the same length; a vacant chain slot holds no segments, and the
    /// free list names exactly the vacant slots.
    pub fn conserved(&self) -> bool {
        let s = self.stats.get();
        let flagged = self.in_use.borrow().iter().filter(|u| **u).count();
        let counters = flagged == self.used.get()
            && s.sectors_allocated == s.sectors_reclaimed + flagged as u64;
        let buddy_sync = match &*self.buddy.borrow() {
            None => true,
            Some(b) => {
                let free: usize = b.blocks().iter().map(|&(_, n)| n).sum();
                free == self.available_sectors()
            }
        };
        let runs = self.runs.borrow();
        let run_sum: usize = runs.iter().map(|&len| len as usize).sum();
        let is_run = |seg: &SgSegment| {
            let len = runs.get(self.run_of(seg).0 as usize).copied().unwrap_or(0);
            len > 0 && len as usize * self.sector_size == seg.bytes
        };
        let chains = self.chains.borrow();
        let slots_sync = chains.slots.iter().all(|c| {
            if c.live {
                c.segs.iter().all(is_run)
            } else {
                c.segs.is_empty()
            }
        });
        let vacant = chains.slots.iter().filter(|c| !c.live).count();
        let free_sync = vacant == chains.free.len()
            && chains
                .free
                .iter()
                .all(|&i| chains.slots.get(i as usize).is_some_and(|c| !c.live));
        counters && buddy_sync && run_sum == self.used.get() && slots_sync && free_sync
    }

    /// Sectors a `len`-byte transfer occupies. Zero-length transfers
    /// (USB status-stage shape) occupy **zero** sectors — they are
    /// represented as empty segment chains, not a burned sector.
    pub fn sectors_for(&self, len: usize) -> usize {
        len.div_ceil(self.sector_size)
    }

    /// The pool's current free extents as sorted `(first_sector,
    /// sectors)` pairs — the buddy free lists in the buddy modes, a
    /// linear scan of the occupancy flags under first-fit. Exposed so
    /// the property tests can check buddy-merge correctness against the
    /// canonical decomposition of a fresh pool.
    pub fn free_extents(&self) -> Vec<(usize, usize)> {
        match &*self.buddy.borrow() {
            Some(b) => b.blocks(),
            None => {
                let in_use = self.in_use.borrow();
                let mut out = Vec::new();
                let mut start = None;
                for (i, used) in in_use.iter().enumerate() {
                    match (used, start) {
                        (false, None) => start = Some(i),
                        (true, Some(s)) => {
                            out.push((s, i - s));
                            start = None;
                        }
                        _ => {}
                    }
                }
                if let Some(s) = start {
                    out.push((s, in_use.len() - s));
                }
                out
            }
        }
    }

    /// Classifies a refusal: enough free sectors in total means a
    /// fragmentation refusal, too few means true exhaustion. Both
    /// surface as [`PoolError::Exhausted`] so backpressure handling
    /// upstream stays uniform — the *counters* carry the distinction.
    fn refuse(&self, need: usize) -> PoolError {
        if need <= self.available_sectors() {
            self.stats.bump(|s| s.frag_refusals += 1);
        } else {
            self.stats.bump(|s| s.exhausted += 1);
        }
        PoolError::Exhausted
    }

    /// Marks `[start, start + need)` in use and registers the run. No
    /// stats: callers account allocations at their own granularity.
    fn mark_run(&self, start: usize, need: usize) {
        let mut in_use = self.in_use.borrow_mut();
        for flag in in_use.iter_mut().skip(start).take(need) {
            debug_assert!(!*flag, "allocator handed out a sector already in use");
            *flag = true;
        }
        self.used.set(self.used.get() + need);
        let prev = std::mem::replace(&mut self.runs.borrow_mut()[start], need as u32);
        debug_assert_eq!(prev, 0, "run start reused while live");
    }

    /// Grabs `need` contiguous sectors under the pool's mode and
    /// registers the run. No stats.
    fn grab_contig(&self, need: usize) -> Option<usize> {
        let start = match self.mode {
            AllocMode::FirstFit => {
                let in_use = self.in_use.borrow();
                let mut run_start = 0usize;
                let mut run_len = 0usize;
                let mut found = None;
                for (i, used) in in_use.iter().enumerate() {
                    if *used {
                        run_len = 0;
                        run_start = i + 1;
                    } else {
                        run_len += 1;
                        if run_len == need {
                            found = Some(run_start);
                            break;
                        }
                    }
                }
                found?
            }
            AllocMode::Buddy | AllocMode::BuddySg => self
                .buddy
                .borrow_mut()
                .as_mut()
                .expect("buddy modes keep free lists")
                .alloc_contig(need)?,
        };
        self.mark_run(start, need);
        Some(start)
    }

    /// Unregisters a run and clears its sectors (returning them to the
    /// buddy lists in the buddy modes). No stats.
    fn release_run(&self, h: SectorHandle) -> Result<usize, PoolError> {
        if h.0 as usize >= self.capacity_sectors() {
            return Err(PoolError::BadHandle(h.0));
        }
        let len = std::mem::take(&mut self.runs.borrow_mut()[h.0 as usize]);
        if len == 0 {
            return Err(PoolError::NotAllocated(h.0));
        }
        let mut in_use = self.in_use.borrow_mut();
        for flag in in_use.iter_mut().skip(h.0 as usize).take(len as usize) {
            debug_assert!(*flag, "freed run covers a sector not in use");
            *flag = false;
        }
        drop(in_use);
        self.used.set(self.used.get() - len as usize);
        if let Some(b) = self.buddy.borrow_mut().as_mut() {
            b.insert_range(h.0 as usize, len as usize);
        }
        Ok(len as usize)
    }

    fn note_alloc(&self, need: usize) {
        let in_use_now = self.in_use_sectors() as u64;
        self.stats.bump(|s| {
            s.allocs += 1;
            s.sectors_allocated += need as u64;
            s.in_use_hwm = s.in_use_hwm.max(in_use_now);
        });
    }

    /// Allocates a contiguous run of sectors for a `len`-byte transfer.
    /// Returns [`PoolError::Exhausted`] when no contiguous run is free
    /// (see [`SectorPoolStats::frag_refusals`] vs
    /// [`SectorPoolStats::exhausted`] for which kind of refusal it
    /// was), [`PoolError::TooLarge`] when `len` exceeds the whole pool.
    /// Zero-length transfers still pin one sector here — only the
    /// scatter-gather path ([`SectorPool::alloc_sg`]) can represent
    /// "no payload" as "no sectors".
    pub fn alloc(&self, len: usize) -> Result<SectorHandle, PoolError> {
        let need = self.sectors_for(len).max(1);
        if need > self.capacity_sectors() {
            return Err(PoolError::TooLarge {
                len,
                buf_size: self.capacity_sectors() * self.sector_size,
            });
        }
        let Some(first) = self.grab_contig(need) else {
            return Err(self.refuse(need));
        };
        self.note_alloc(need);
        Ok(SectorHandle(first as u32))
    }

    /// Returns a run to the pool. Order-independent; double frees and
    /// stale handles are rejected. Returns the number of sectors
    /// reclaimed.
    pub fn free(&self, h: SectorHandle) -> Result<usize, PoolError> {
        let len = self.release_run(h)?;
        self.stats.bump(|s| {
            s.frees += 1;
            s.sectors_reclaimed += len as u64;
        });
        Ok(len)
    }

    /// Allocates a scatter-gather chain for a `len`-byte transfer.
    ///
    /// * `len == 0` → an empty chain holding **no** sectors (the USB
    ///   status-stage shape) — nothing is allocated, nothing leaks.
    /// * [`AllocMode::FirstFit`] / [`AllocMode::Buddy`] → a chain of
    ///   exactly one contiguous run (so the ablation's non-SG modes ride
    ///   the same descriptor plumbing).
    /// * [`AllocMode::BuddySg`] → one contiguous run when a free block
    ///   covers it, else a chain of the largest free blocks — which
    ///   makes allocation **complete**: it succeeds whenever the pool
    ///   has `sectors_for(len)` sectors free, fragmented or not.
    ///
    /// Returns [`PoolError::TooLarge`] when `len` exceeds the whole
    /// pool, [`PoolError::Exhausted`] otherwise on refusal (classified
    /// into [`SectorPoolStats::frag_refusals`] vs
    /// [`SectorPoolStats::exhausted`]).
    pub fn alloc_sg(&self, len: usize) -> Result<SgHandle, PoolError> {
        let need = self.sectors_for(len);
        if need > self.capacity_sectors() {
            return Err(PoolError::TooLarge {
                len,
                buf_size: self.capacity_sectors() * self.sector_size,
            });
        }
        let mut chains = self.chains.borrow_mut();
        let Some(slot) = chains.vacant() else {
            // Every handle value names a live chain — a table only a
            // flood of zero-length chains can fill. Out of handles is
            // out of space.
            self.stats.bump(|s| s.exhausted += 1);
            return Err(PoolError::Exhausted);
        };
        if let Err(e) = self.fill_chain(need, &mut chains.slots[slot].segs) {
            chains.free.push(slot as u32);
            return Err(e);
        }
        chains.slots[slot].live = true;
        let h = chains.handle(slot);
        drop(chains);
        self.note_alloc(need);
        Ok(h)
    }

    /// Grabs `need` sectors into the empty `segs`: one contiguous run
    /// when a free block covers them, else (buddy+SG only) the largest
    /// free blocks in turn. A refusal rolls the partial chain back —
    /// the pool is left exactly as it was found, `segs` empty.
    fn fill_chain(&self, need: usize, segs: &mut Vec<SgSegment>) -> Result<(), PoolError> {
        let mut remaining = need;
        while remaining > 0 {
            if let Some(start) = self.grab_contig(remaining) {
                segs.push(self.segment(start, remaining));
                break;
            }
            let grabbed = match self.mode {
                AllocMode::BuddySg => self
                    .buddy
                    .borrow_mut()
                    .as_mut()
                    .expect("buddy modes keep free lists")
                    .grab_largest(),
                _ => None,
            };
            let Some((start, size)) = grabbed else {
                for s in segs.drain(..) {
                    self.release_run(self.run_of(&s))
                        .expect("rollback frees what it grabbed");
                }
                return Err(self.refuse(need));
            };
            debug_assert!(size < remaining, "a covering block would have been taken");
            self.mark_run(start, size);
            segs.push(self.segment(start, size));
            remaining -= size;
        }
        Ok(())
    }

    /// Returns a whole chain to the pool. Order-independent; double
    /// frees and stale handles are rejected. Returns the number of
    /// sectors reclaimed (zero for an empty chain).
    pub fn free_sg(&self, h: SgHandle) -> Result<usize, PoolError> {
        let mut chains = self.chains.borrow_mut();
        let slot = chains.slot_of(h).ok_or(PoolError::NotAllocated(h.0))?;
        let c = &mut chains.slots[slot];
        c.live = false;
        c.generation = c.generation.wrapping_add(1);
        let mut total = 0usize;
        for s in c.segs.drain(..) {
            total += self
                .release_run(self.run_of(&s))
                .expect("chain segments are live until the chain is freed");
        }
        chains.free.push(slot as u32);
        drop(chains);
        self.stats.bump(|s| {
            s.frees += 1;
            s.sectors_reclaimed += total as u64;
        });
        Ok(total)
    }

    /// The DMA extent of the run `[start, start + sectors)`.
    fn segment(&self, start: usize, sectors: usize) -> SgSegment {
        SgSegment {
            offset: self.base + start * self.sector_size,
            bytes: sectors * self.sector_size,
        }
    }

    /// The run a chain segment was resolved from.
    fn run_of(&self, seg: &SgSegment) -> SectorHandle {
        SectorHandle(((seg.offset - self.base) / self.sector_size) as u32)
    }

    /// Runs `f` on the live chain `h`'s segments, read in place.
    fn with_chain<R>(
        &self,
        h: SgHandle,
        f: impl FnOnce(&[SgSegment]) -> R,
    ) -> Result<R, PoolError> {
        let chains = self.chains.borrow();
        let slot = chains.slot_of(h).ok_or(PoolError::NotAllocated(h.0))?;
        Ok(f(&chains.slots[slot].segs))
    }

    /// Copies the chain's segments, in transfer order, into `out`
    /// (cleared first) — what the HCD programs one transfer descriptor
    /// per entry from. A caller on a per-URB path keeps `out` and reuses
    /// it, and holds no pool borrow while it programs the device. The
    /// extents are the ones resolved at [`SectorPool::alloc_sg`]; once
    /// the chain is freed they name sectors the pool may hand to another
    /// chain.
    pub fn sg_segments_into(&self, h: SgHandle, out: &mut Vec<SgSegment>) -> Result<(), PoolError> {
        self.with_chain(h, |segs| {
            out.clear();
            out.extend_from_slice(segs);
        })
    }

    /// The chain's segments as a fresh `Vec` — for tests and diagnostics;
    /// see [`SectorPool::sg_segments_into`].
    pub fn sg_segments(&self, h: SgHandle) -> Result<Vec<SgSegment>, PoolError> {
        self.with_chain(h, <[SgSegment]>::to_vec)
    }

    /// Total byte capacity of a chain (zero for an empty chain).
    pub fn sg_capacity(&self, h: SgHandle) -> Result<usize, PoolError> {
        self.with_chain(h, |segs| segs.iter().map(|s| s.bytes).sum())
    }

    fn check(&self, h: SectorHandle) -> Result<(usize, usize), PoolError> {
        if h.0 as usize >= self.capacity_sectors() {
            return Err(PoolError::BadHandle(h.0));
        }
        match self.runs.borrow()[h.0 as usize] {
            0 => Err(PoolError::NotAllocated(h.0)),
            len => Ok((
                self.base + h.0 as usize * self.sector_size,
                len as usize * self.sector_size,
            )),
        }
    }

    /// Sectors in a live run.
    pub fn run_sectors(&self, h: SectorHandle) -> Result<usize, PoolError> {
        self.check(h).map(|(_, bytes)| bytes / self.sector_size)
    }

    /// DMA offset of a run — what a transfer descriptor points at.
    pub fn offset_of(&self, h: SectorHandle) -> Result<usize, PoolError> {
        self.check(h).map(|(off, _)| off)
    }

    /// Copies `data` into the run, charging the copy through
    /// [`Kernel::charge_copy`] — for callers whose payload really does
    /// move through the CPU (the by-value baselines).
    pub fn write_payload(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        h: SectorHandle,
        data: &[u8],
    ) -> Result<(), PoolError> {
        let (off, run_bytes) = self.check(h)?;
        if data.len() > run_bytes {
            return Err(PoolError::TooLarge {
                len: data.len(),
                buf_size: run_bytes,
            });
        }
        self.dma.write_bytes(off, data);
        kernel.charge_copy(class, data.len() as u64);
        Ok(())
    }

    /// Donates `data`'s pages to the run *without a CPU copy*: the
    /// storage stack's zero-copy submission path (page cache or
    /// `O_DIRECT` pages are DMA-able where they sit; the "write" below
    /// only keeps the simulated [`DmaMemory`] coherent). Charges
    /// [`costs::SECTOR_MAP_NS`] per sector — the page-table/IOMMU work of
    /// mapping the run — and *not* [`Kernel::charge_copy`].
    pub fn adopt_payload(
        &self,
        kernel: &Kernel,
        data: &[u8],
        h: SectorHandle,
    ) -> Result<(), PoolError> {
        let (off, run_bytes) = self.check(h)?;
        if data.len() > run_bytes {
            return Err(PoolError::TooLarge {
                len: data.len(),
                buf_size: run_bytes,
            });
        }
        self.dma.write_bytes(off, data);
        kernel.charge_kernel(self.sectors_for(data.len()) as u64 * costs::SECTOR_MAP_NS);
        Ok(())
    }

    /// [`SectorPool::adopt_payload`] for a scatter-gather chain: the
    /// payload's pages are mapped segment by segment, still copy-free —
    /// the same [`costs::SECTOR_MAP_NS`]-per-sector mapping charge,
    /// never [`Kernel::charge_copy`].
    pub fn adopt_payload_sg(
        &self,
        kernel: &Kernel,
        data: &[u8],
        h: SgHandle,
    ) -> Result<(), PoolError> {
        self.with_chain(h, |segs| {
            let cap: usize = segs.iter().map(|s| s.bytes).sum();
            if data.len() > cap {
                return Err(PoolError::TooLarge {
                    len: data.len(),
                    buf_size: cap,
                });
            }
            let mut written = 0usize;
            for seg in segs {
                if written >= data.len() {
                    break;
                }
                let n = seg.bytes.min(data.len() - written);
                self.dma
                    .write_bytes(seg.offset, &data[written..written + n]);
                written += n;
            }
            Ok(())
        })??;
        kernel.charge_kernel(self.sectors_for(data.len()) as u64 * costs::SECTOR_MAP_NS);
        Ok(())
    }

    /// Reads `len` payload bytes back out of a run.
    ///
    /// No copy cost is charged: the consumer reads the payload *in
    /// place* — the `Vec` is a simulation artifact, not a modeled copy.
    /// This is the IN-direction ownership handback: the completion hands
    /// the *run* back, never a copied payload.
    pub fn read_payload(&self, h: SectorHandle, len: usize) -> Result<Vec<u8>, PoolError> {
        let (off, run_bytes) = self.check(h)?;
        if len > run_bytes {
            return Err(PoolError::TooLarge {
                len,
                buf_size: run_bytes,
            });
        }
        Ok(self.dma.read_bytes(off, len))
    }

    /// Gathers `len` payload bytes back out of a chain, segment by
    /// segment. Like [`SectorPool::read_payload`], in place and
    /// copy-free.
    pub fn read_payload_sg(&self, h: SgHandle, len: usize) -> Result<Vec<u8>, PoolError> {
        self.with_chain(h, |segs| {
            let cap: usize = segs.iter().map(|s| s.bytes).sum();
            if len > cap {
                return Err(PoolError::TooLarge { len, buf_size: cap });
            }
            let mut out = Vec::with_capacity(len);
            for seg in segs {
                if out.len() >= len {
                    break;
                }
                let n = seg.bytes.min(len - out.len());
                self.dma
                    .with_bytes(seg.offset, n, |bytes| out.extend_from_slice(bytes));
            }
            Ok(out)
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_length_runs_allocate_and_reclaim() {
        let p = SectorPool::with_capacity(512, 8);
        let a = p.alloc(5).unwrap(); // 1 sector
        let b = p.alloc(517).unwrap(); // 2 sectors
        let c = p.alloc(1536).unwrap(); // 3 sectors
        assert_eq!(p.run_sectors(a).unwrap(), 1);
        assert_eq!(p.run_sectors(b).unwrap(), 2);
        assert_eq!(p.run_sectors(c).unwrap(), 3);
        assert_eq!(p.in_use_sectors(), 6);
        // Out-of-order reclaim.
        assert_eq!(p.free(b).unwrap(), 2);
        assert_eq!(p.free(a).unwrap(), 1);
        assert_eq!(p.free(c).unwrap(), 3);
        assert_eq!(p.available_sectors(), 8);
        assert!(p.conserved());
        assert_eq!(p.stats().sectors_allocated, 6);
        assert_eq!(p.stats().sectors_reclaimed, 6);
    }

    #[test]
    fn first_fit_runs_never_alias_and_fragmentation_refuses() {
        // The original first-fit allocator, kept for the ablation: two
        // scattered free singles cannot satisfy a 2-sector transfer,
        // and the refusal is classified as *fragmentation*, not
        // exhaustion — the pool has the bytes.
        let p = SectorPool::with_capacity_mode(64, 4, AllocMode::FirstFit);
        let a = p.alloc(64).unwrap();
        let b = p.alloc(128).unwrap();
        let c = p.alloc(64).unwrap();
        let offs = [
            (p.offset_of(a).unwrap(), 64),
            (p.offset_of(b).unwrap(), 128),
            (p.offset_of(c).unwrap(), 64),
        ];
        for (i, &(o1, l1)) in offs.iter().enumerate() {
            for &(o2, l2) in offs.iter().skip(i + 1) {
                assert!(o1 + l1 <= o2 || o2 + l2 <= o1, "live runs alias");
            }
        }
        // Free the two singles: 2 sectors free but not contiguous.
        p.free(a).unwrap();
        p.free(c).unwrap();
        assert_eq!(p.available_sectors(), 2);
        assert_eq!(p.alloc(128), Err(PoolError::Exhausted));
        assert_eq!(
            p.stats().frag_refusals,
            1,
            "bytes were there: frag, not OOM"
        );
        assert_eq!(p.stats().exhausted, 0);
        // A single still fits in either hole.
        let d = p.alloc(10).unwrap();
        assert_eq!(p.run_sectors(d).unwrap(), 1);
    }

    #[test]
    fn refusal_counters_split_frag_from_true_exhaustion() {
        // Regression for the conflated counter: a fragmented refusal
        // and a true out-of-space refusal bump *different* counters.
        let p = SectorPool::with_capacity_mode(64, 4, AllocMode::FirstFit);
        let held: Vec<_> = (0..4).map(|_| p.alloc(1).unwrap()).collect();
        // Pool completely full: true exhaustion.
        assert_eq!(p.alloc(64), Err(PoolError::Exhausted));
        assert_eq!(p.stats().exhausted, 1);
        assert_eq!(p.stats().frag_refusals, 0);
        // Free alternating singles: 2 sectors free, none adjacent.
        p.free(held[0]).unwrap();
        p.free(held[2]).unwrap();
        assert_eq!(p.alloc(128), Err(PoolError::Exhausted));
        assert_eq!(p.stats().exhausted, 1, "unchanged");
        assert_eq!(p.stats().frag_refusals, 1, "the pool had the bytes");
        // More free bytes than requested but still no contiguous fit is
        // *also* fragmentation: three scattered frees.
        p.free(held[1]).unwrap();
        assert!(p.conserved());
    }

    #[test]
    fn buddy_merge_restores_contiguity() {
        // Four singles carve the pool to pieces; freeing them all must
        // merge back to one max-order block so a full-pool contiguous
        // alloc succeeds — the recovery first-fit never spoils but
        // buddy must *prove* (merge correctness).
        let p = SectorPool::with_capacity_mode(64, 8, AllocMode::Buddy);
        let held: Vec<_> = (0..8).map(|_| p.alloc(1).unwrap()).collect();
        assert_eq!(p.available_sectors(), 0);
        // Free in a scrambled order: merges must cascade regardless.
        for i in [3, 0, 6, 1, 7, 2, 5, 4] {
            p.free(held[i]).unwrap();
        }
        assert_eq!(
            p.free_extents(),
            vec![(0, 8)],
            "buddies merged to one block"
        );
        let big = p.alloc(8 * 64).unwrap();
        assert_eq!(p.run_sectors(big).unwrap(), 8);
        p.free(big).unwrap();
        assert!(p.conserved());
    }

    #[test]
    fn buddy_contiguous_still_refuses_when_scattered() {
        // Buddy without SG recovers *merge-able* fragmentation but not
        // scattered singles whose buddies are live.
        let p = SectorPool::with_capacity_mode(64, 4, AllocMode::Buddy);
        let held: Vec<_> = (0..4).map(|_| p.alloc(1).unwrap()).collect();
        p.free(held[0]).unwrap();
        p.free(held[2]).unwrap();
        // Sectors 0 and 2 are free but their buddies (1, 3) are live:
        // no merge possible, no 2-sector block exists.
        assert_eq!(p.alloc(128), Err(PoolError::Exhausted));
        assert_eq!(p.stats().frag_refusals, 1);
        assert_eq!(p.stats().exhausted, 0);
    }

    #[test]
    fn buddy_sg_chains_across_fragmentation() {
        // The headline fix: the same scattered-singles pool that
        // refuses a contiguous 2-sector alloc satisfies it as a
        // 2-segment chain, and the payload round-trips across the
        // segment boundary.
        let k = Kernel::new();
        let p = SectorPool::with_capacity(64, 4); // BuddySg default
        let held: Vec<_> = (0..4).map(|_| p.alloc(1).unwrap()).collect();
        p.free(held[0]).unwrap();
        p.free(held[2]).unwrap();
        let chain = p.alloc_sg(128).unwrap();
        let segs = p.sg_segments(chain).unwrap();
        assert_eq!(segs.len(), 2, "two scattered singles chained");
        assert_eq!(p.sg_capacity(chain).unwrap(), 128);
        assert_eq!(
            p.available_sectors(),
            0,
            "chain used exactly the free sectors"
        );
        let payload: Vec<u8> = (0..128u8).collect();
        p.adopt_payload_sg(&k, &payload, chain).unwrap();
        assert_eq!(k.stats().bytes_copied, 0, "SG adoption maps, never copies");
        assert_eq!(p.read_payload_sg(chain, 128).unwrap(), payload);
        assert_eq!(p.free_sg(chain).unwrap(), 2);
        assert_eq!(p.stats().frag_refusals, 0, "never refused");
        assert!(p.conserved());
    }

    #[test]
    fn stored_chain_matches_its_runs_and_outlives_other_traffic() {
        // Pin every other sector so a 3-sector transfer must chain.
        let p = SectorPool::with_capacity(64, 8);
        let pins: Vec<_> = (0..8).map(|_| p.alloc(1).unwrap()).collect();
        for pin in pins.iter().step_by(2) {
            p.free(*pin).unwrap();
        }
        let chain = p.alloc_sg(3 * 64).unwrap();
        let segs = p.sg_segments(chain).unwrap();
        assert_eq!(segs.len(), 3, "three scattered singles");
        // Segment for segment, the store agrees with the per-run view.
        for seg in segs.iter() {
            let run = SectorHandle((seg.offset / 64) as u32);
            assert_eq!(p.offset_of(run).unwrap(), seg.offset);
            assert_eq!(p.run_sectors(run).unwrap() * 64, seg.bytes);
        }
        assert_eq!(p.sg_capacity(chain).unwrap(), 3 * 64);
        // Other chains coming and going do not disturb it.
        let other = p.alloc_sg(64).unwrap();
        p.free(pins[1]).unwrap();
        let third = p.alloc_sg(64).unwrap();
        p.free_sg(other).unwrap();
        p.free_sg(third).unwrap();
        assert_eq!(p.sg_segments(chain).unwrap(), segs);
        // Freed, the handle is dead to every accessor.
        p.free_sg(chain).unwrap();
        let gone = Some(PoolError::NotAllocated(chain.0));
        assert_eq!(p.sg_segments(chain).err(), gone);
        assert_eq!(p.sg_capacity(chain).err(), gone);
        assert_eq!(p.adopt_payload_sg(&Kernel::new(), &[1], chain).err(), gone);
        assert_eq!(p.read_payload_sg(chain, 1).err(), gone);
        assert_eq!(p.free_sg(chain).err(), gone);
        assert!(p.conserved());
    }

    #[test]
    fn stale_handle_after_slot_reuse_is_dead_to_every_accessor() {
        // The handle is the slot: a freed chain's slot goes to the next
        // chain, and the old handle — a number a completer could hand
        // back — must read as not allocated, never as the new chain.
        let k = Kernel::new();
        let p = SectorPool::with_capacity(64, 8);
        let old = p.alloc_sg(2 * 64).unwrap();
        p.free_sg(old).unwrap();
        let new = p.alloc_sg(3 * 64).unwrap();
        assert_eq!(new.0 & 0xffff, old.0 & 0xffff, "the slot was reused");
        assert_ne!(new, old, "under a new generation");
        let gone = Some(PoolError::NotAllocated(old.0));
        assert_eq!(p.sg_segments(old).err(), gone);
        assert_eq!(p.sg_segments_into(old, &mut Vec::new()).err(), gone);
        assert_eq!(p.sg_capacity(old).err(), gone);
        assert_eq!(p.adopt_payload_sg(&k, &[1], old).err(), gone);
        assert_eq!(p.read_payload_sg(old, 1).err(), gone);
        assert_eq!(p.free_sg(old).err(), gone);
        // The new chain is untouched by the attempts.
        assert_eq!(p.sg_capacity(new).unwrap(), 3 * 64);
        assert_eq!(p.in_use_sectors(), 3);
        assert!(p.conserved());
        // A forged handle naming a slot never handed out is dead too.
        assert_eq!(
            p.sg_capacity(SgHandle(7)).err(),
            Some(PoolError::NotAllocated(7))
        );
        p.free_sg(new).unwrap();
        assert_eq!((p.live_chains(), p.live_runs()), (0, 0));
        assert!(p.conserved());
    }

    #[test]
    fn occupancy_counter_tracks_the_flags() {
        // Every path that sets or clears a flag moves the counter: runs,
        // chains, a rolled-back chain, in all three modes.
        for mode in [AllocMode::FirstFit, AllocMode::Buddy, AllocMode::BuddySg] {
            let p = SectorPool::with_capacity_mode(64, 12, mode);
            let a = p.alloc(3 * 64).unwrap();
            let b = p.alloc_sg(2 * 64).unwrap();
            let c = p.alloc(64).unwrap();
            assert_eq!((p.in_use_sectors(), p.available_sectors()), (6, 6));
            p.free(a).unwrap();
            assert_eq!(p.alloc_sg(10 * 64), Err(PoolError::Exhausted));
            assert_eq!((p.in_use_sectors(), p.available_sectors()), (3, 9));
            assert!(p.conserved(), "{mode:?}: counter equals a flag recount");
            p.free_sg(b).unwrap();
            p.free(c).unwrap();
            assert_eq!((p.in_use_sectors(), p.available_sectors()), (0, 12));
            assert_eq!(p.stats().in_use_hwm, 6);
            assert!(p.conserved());
        }
    }

    #[test]
    fn failed_sg_alloc_rolls_back_cleanly() {
        // A chain that cannot complete must leave the pool untouched:
        // 3 sectors free, 4 requested.
        let p = SectorPool::with_capacity(64, 4);
        let pin = p.alloc(64).unwrap();
        let extents_before = p.free_extents();
        assert_eq!(p.alloc_sg(256), Err(PoolError::Exhausted));
        assert_eq!(p.stats().exhausted, 1, "3 < 4 free: true exhaustion");
        assert_eq!(p.free_extents(), extents_before, "rollback exact");
        assert_eq!(p.available_sectors(), 3);
        p.free(pin).unwrap();
        assert!(p.conserved());
    }

    #[test]
    fn zero_length_chain_allocates_nothing() {
        // Regression for the burned status-stage sector: a zero-length
        // transfer is an empty chain — no sectors pinned, ledger still
        // closed.
        let k = Kernel::new();
        let p = SectorPool::with_capacity(512, 2);
        let zlp = p.alloc_sg(0).unwrap();
        assert_eq!(p.sg_segments(zlp).unwrap().len(), 0);
        assert_eq!(p.sg_capacity(zlp).unwrap(), 0);
        assert_eq!(p.in_use_sectors(), 0, "nothing burned");
        // The whole pool is still allocatable around the live ZLP.
        let full = p.alloc_sg(1024).unwrap();
        p.adopt_payload_sg(&k, &[], zlp).unwrap();
        assert_eq!(p.read_payload_sg(zlp, 0).unwrap(), Vec::<u8>::new());
        assert_eq!(p.free_sg(zlp).unwrap(), 0);
        p.free_sg(full).unwrap();
        let s = p.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 2);
        assert_eq!(s.sectors_allocated, s.sectors_reclaimed);
        assert!(p.conserved());
        assert_eq!(k.stats().bytes_copied, 0);
    }

    #[test]
    fn adopt_is_zero_copy_and_write_is_not() {
        let k = Kernel::new();
        let p = SectorPool::with_capacity(512, 4);
        let a = p.alloc(512).unwrap();
        p.adopt_payload(&k, &[7u8; 512], a).unwrap();
        assert_eq!(k.stats().bytes_copied, 0, "adoption maps, never copies");
        assert_eq!(p.read_payload(a, 512).unwrap(), [7u8; 512]);
        let b = p.alloc(512).unwrap();
        p.write_payload(&k, CpuClass::Kernel, b, &[9u8; 512])
            .unwrap();
        assert_eq!(k.stats().bytes_copied, 512, "the by-value path pays");
    }

    #[test]
    fn double_free_and_stale_handles_rejected() {
        let p = SectorPool::with_capacity(512, 2);
        let a = p.alloc(1024).unwrap();
        p.free(a).unwrap();
        assert!(matches!(p.free(a), Err(PoolError::NotAllocated(_))));
        assert!(matches!(
            p.free(SectorHandle(99)),
            Err(PoolError::BadHandle(_))
        ));
        assert!(matches!(
            p.read_payload(SectorHandle(1), 4),
            Err(PoolError::NotAllocated(_))
        ));
        // A transfer bigger than the whole pool is TooLarge, not
        // Exhausted: no amount of reclaim will ever satisfy it.
        assert!(matches!(p.alloc(4096), Err(PoolError::TooLarge { .. })));
        assert!(matches!(p.alloc_sg(4096), Err(PoolError::TooLarge { .. })));
        // SG double frees and stale chain handles likewise.
        let c = p.alloc_sg(512).unwrap();
        p.free_sg(c).unwrap();
        assert!(matches!(p.free_sg(c), Err(PoolError::NotAllocated(_))));
        assert!(matches!(
            p.sg_segments(SgHandle(1234)),
            Err(PoolError::NotAllocated(_))
        ));
        assert!(p.conserved());
    }

    #[test]
    fn oversize_payload_for_run_rejected() {
        let k = Kernel::new();
        let p = SectorPool::with_capacity(512, 4);
        let a = p.alloc(512).unwrap();
        assert!(matches!(
            p.adopt_payload(&k, &[0; 513], a),
            Err(PoolError::TooLarge { .. })
        ));
        assert!(matches!(
            p.write_payload(&k, CpuClass::Kernel, a, &[0; 513]),
            Err(PoolError::TooLarge { .. })
        ));
        let c = p.alloc_sg(512).unwrap();
        assert!(matches!(
            p.adopt_payload_sg(&k, &[0; 513], c),
            Err(PoolError::TooLarge { .. })
        ));
        assert!(matches!(
            p.read_payload_sg(c, 513),
            Err(PoolError::TooLarge { .. })
        ));
    }

    #[test]
    fn non_power_of_two_pools_cover_every_sector() {
        // 20 sectors decompose to 16 + 4; every sector must still be
        // reachable and conservation must hold through a full drain.
        let p = SectorPool::with_capacity(64, 20);
        let extents: usize = p.free_extents().iter().map(|&(_, n)| n).sum();
        assert_eq!(extents, 20, "decomposition covers the whole pool");
        let chain = p.alloc_sg(20 * 64).unwrap();
        assert_eq!(p.available_sectors(), 0);
        assert_eq!(p.sg_capacity(chain).unwrap(), 20 * 64);
        p.free_sg(chain).unwrap();
        assert_eq!(p.available_sectors(), 20);
        assert!(p.conserved());
    }
}
