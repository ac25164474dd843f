//! The shared payload-buffer pool.

use std::cell::{Cell, RefCell};

use decaf_simkernel::counters::Bump;
use decaf_simkernel::{CpuClass, DmaMemory, Kernel};

/// Handle to one pool buffer. Handles are what descriptors carry across
/// the boundary — 4 bytes standing in for a whole payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BufHandle(pub u32);

/// Pool failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// No free buffer: the producer must reclaim completions first.
    Exhausted,
    /// The handle does not name a pool buffer (the payload is the raw
    /// handle index — shared between [`BufHandle`] and
    /// [`crate::SectorHandle`] pools).
    BadHandle(u32),
    /// The buffer is not currently allocated (double free, stale handle).
    NotAllocated(u32),
    /// The payload does not fit one buffer.
    TooLarge {
        /// Bytes offered.
        len: usize,
        /// Buffer size.
        buf_size: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Exhausted => write!(f, "buffer pool exhausted"),
            PoolError::BadHandle(h) => write!(f, "bad buffer handle {h}"),
            PoolError::NotAllocated(h) => write!(f, "buffer {h} not allocated"),
            PoolError::TooLarge { len, buf_size } => {
                write!(f, "payload of {len} B exceeds buffer size {buf_size} B")
            }
        }
    }
}

impl std::error::Error for PoolError {}

decaf_simkernel::counters! {
    /// Counters for one pool.
    pub struct PoolStats {
        /// Successful allocations.
        allocs: sum,
        /// Buffers handed back.
        frees: sum,
        /// Allocations refused for want of a free buffer.
        exhausted: sum,
        /// Most buffers simultaneously in use.
        in_use_hwm: max,
    }
}

/// A pool of fixed-size payload buffers carved out of a [`DmaMemory`]
/// region.
///
/// Because the buffers live in the *device's* DMA region, a payload
/// written here is already where the hardware will read it — handing the
/// buffer's offset to a descriptor ring is genuinely zero-copy. Frees may
/// arrive in any order (devices complete out of order); the free list
/// absorbs that.
#[derive(Debug)]
pub struct BufPool {
    dma: DmaMemory,
    base: usize,
    buf_size: usize,
    free: RefCell<Vec<u32>>,
    allocated: RefCell<Vec<bool>>,
    stats: Cell<PoolStats>,
}

impl BufPool {
    /// Builds a pool of `count` buffers of `buf_size` bytes starting at
    /// byte `base` of `dma`.
    ///
    /// # Panics
    /// Panics if the region does not fit inside `dma` or `count` is zero.
    pub fn new(dma: DmaMemory, base: usize, buf_size: usize, count: usize) -> Self {
        assert!(count > 0, "a pool needs at least one buffer");
        assert!(
            base + buf_size * count <= dma.len(),
            "pool region {base}+{}x{count} exceeds DMA size {}",
            buf_size,
            dma.len()
        );
        BufPool {
            dma,
            base,
            buf_size,
            // LIFO free list: reuse the warmest buffer first.
            free: RefCell::new((0..count as u32).rev().collect()),
            allocated: RefCell::new(vec![false; count]),
            stats: Cell::new(PoolStats::default()),
        }
    }

    /// Builds a standalone pool over its own fresh DMA region (tests and
    /// the data-path ablation, where no device model is attached).
    pub fn with_capacity(buf_size: usize, count: usize) -> Self {
        BufPool::new(DmaMemory::new(buf_size * count), 0, buf_size, count)
    }

    /// Number of buffers.
    pub fn capacity(&self) -> usize {
        self.allocated.borrow().len()
    }

    /// Bytes per buffer.
    pub fn buf_size(&self) -> usize {
        self.buf_size
    }

    /// Buffers currently free.
    pub fn available(&self) -> usize {
        self.free.borrow().len()
    }

    /// Buffers currently allocated.
    pub fn in_use(&self) -> usize {
        self.capacity() - self.available()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        self.stats.get()
    }

    /// Allocates one buffer, or [`PoolError::Exhausted`].
    pub fn alloc(&self) -> Result<BufHandle, PoolError> {
        let Some(idx) = self.free.borrow_mut().pop() else {
            self.stats.bump(|s| s.exhausted += 1);
            return Err(PoolError::Exhausted);
        };
        self.allocated.borrow_mut()[idx as usize] = true;
        let in_use = self.in_use() as u64;
        self.stats.bump(|s| {
            s.allocs += 1;
            s.in_use_hwm = s.in_use_hwm.max(in_use);
        });
        Ok(BufHandle(idx))
    }

    /// Returns a buffer to the pool. Order-independent; double frees and
    /// stale handles are rejected.
    pub fn free(&self, h: BufHandle) -> Result<(), PoolError> {
        let mut allocated = self.allocated.borrow_mut();
        match allocated.get_mut(h.0 as usize) {
            None => Err(PoolError::BadHandle(h.0)),
            Some(a) if !*a => Err(PoolError::NotAllocated(h.0)),
            Some(a) => {
                *a = false;
                self.free.borrow_mut().push(h.0);
                self.stats.bump(|s| s.frees += 1);
                Ok(())
            }
        }
    }

    fn check(&self, h: BufHandle) -> Result<usize, PoolError> {
        match self.allocated.borrow().get(h.0 as usize) {
            None => Err(PoolError::BadHandle(h.0)),
            Some(false) => Err(PoolError::NotAllocated(h.0)),
            Some(true) => Ok(self.base + h.0 as usize * self.buf_size),
        }
    }

    /// DMA offset of a buffer — what a device descriptor points at.
    pub fn offset_of(&self, h: BufHandle) -> Result<usize, PoolError> {
        self.check(h)
    }

    /// Writes `data` into the buffer: the *single* CPU copy a payload
    /// pays on the shmring path, charged via
    /// [`Kernel::charge_copy`] so the audit counter sees it.
    pub fn write_payload(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        h: BufHandle,
        data: &[u8],
    ) -> Result<(), PoolError> {
        if data.len() > self.buf_size {
            return Err(PoolError::TooLarge {
                len: data.len(),
                buf_size: self.buf_size,
            });
        }
        let off = self.check(h)?;
        self.dma.write_bytes(off, data);
        kernel.charge_copy(class, data.len() as u64);
        Ok(())
    }

    /// Reads `len` payload bytes back out of a buffer.
    ///
    /// No copy cost is charged here: the consumer reads the payload *in
    /// place* — the `Vec` is a simulation artifact, not a modeled copy.
    /// Whoever moves the bytes onward (e.g. `netif_rx` into the stack)
    /// charges that copy itself.
    pub fn read_payload(&self, h: BufHandle, len: usize) -> Result<Vec<u8>, PoolError> {
        if len > self.buf_size {
            return Err(PoolError::TooLarge {
                len,
                buf_size: self.buf_size,
            });
        }
        let off = self.check(h)?;
        Ok(self.dma.read_bytes(off, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let k = Kernel::new();
        let p = BufPool::with_capacity(64, 4);
        let h = p.alloc().unwrap();
        p.write_payload(&k, CpuClass::Kernel, h, b"hello").unwrap();
        assert_eq!(p.read_payload(h, 5).unwrap(), b"hello");
        assert_eq!(k.stats().bytes_copied, 5, "one audited copy");
        p.free(h).unwrap();
        assert_eq!(p.available(), 4);
    }

    #[test]
    fn exhaustion_and_double_free_detected() {
        let p = BufPool::with_capacity(16, 2);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_eq!(p.alloc(), Err(PoolError::Exhausted));
        p.free(a).unwrap();
        assert_eq!(p.free(a), Err(PoolError::NotAllocated(a.0)));
        assert_eq!(p.free(BufHandle(99)), Err(PoolError::BadHandle(99)));
        p.free(b).unwrap();
        assert_eq!(p.stats().in_use_hwm, 2);
    }

    #[test]
    fn oversize_payload_rejected() {
        let k = Kernel::new();
        let p = BufPool::with_capacity(8, 1);
        let h = p.alloc().unwrap();
        assert!(matches!(
            p.write_payload(&k, CpuClass::Kernel, h, &[0; 9]),
            Err(PoolError::TooLarge { .. })
        ));
    }

    #[test]
    fn buffers_map_to_distinct_dma_offsets() {
        let dma = DmaMemory::new(256);
        let p = BufPool::new(dma, 64, 32, 4);
        let handles: Vec<_> = (0..4).map(|_| p.alloc().unwrap()).collect();
        let mut offsets: Vec<_> = handles.iter().map(|&h| p.offset_of(h).unwrap()).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, vec![64, 96, 128, 160]);
    }
}
