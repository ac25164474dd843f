//! The virtual-time cost model.
//!
//! Costs are rough 2009-era x86 magnitudes in nanoseconds. Their absolute
//! values do not matter for reproducing the paper's *shape* — what matters
//! is the ordering: register I/O ≪ lock ops ≪ interrupt entry ≪
//! kernel/user crossing ≪ cross-language marshaling, which is exactly the
//! ordering that makes decaf steady-state performance native-like while
//! initialization (hundreds of crossings) visibly slows down.

/// One MMIO register read (uncached PCI access).
pub const MMIO_READ_NS: u64 = 250;
/// One MMIO register write (posted).
pub const MMIO_WRITE_NS: u64 = 150;
/// One port I/O access (slower than MMIO).
pub const PORT_IO_NS: u64 = 600;
/// Taking or releasing an uncontended spinlock.
pub const SPINLOCK_NS: u64 = 40;
/// Taking or releasing a kernel mutex/semaphore.
pub const MUTEX_NS: u64 = 150;
/// Hardware interrupt entry/exit overhead.
pub const IRQ_ENTRY_NS: u64 = 2_000;
/// Dispatching one timer or work item.
pub const SOFTIRQ_DISPATCH_NS: u64 = 500;
/// One DMA descriptor processed by the device model.
pub const DMA_DESC_NS: u64 = 300;
/// Copying one byte of packet/sample data (amortized memcpy).
pub const COPY_BYTE_NS: u64 = 1;
/// A kernel/user protection-domain crossing (one way).
pub const DOMAIN_CROSSING_NS: u64 = 4_000;
/// Per-byte cost of XDR marshaling work (encode or decode).
pub const MARSHAL_BYTE_NS: u64 = 6;
/// Fixed per-object overhead of cross-language (C↔Java analogue)
/// conversion: the extra unmarshal-in-C + remarshal-in-Java step the paper
/// identifies as its main initialization cost (§4.2).
pub const CROSS_LANGUAGE_OBJECT_NS: u64 = 25_000;
/// Appending one deferred call to a batched transport's shared ring
/// (a couple of cache-line writes, no crossing).
pub const BATCH_ENQUEUE_NS: u64 = 40;
/// The doorbell write that triggers a batched flush — charged once per
/// crossing on a batched transport, taking the §2.3 thread-reuse
/// optimization one step further: many calls, one doorbell.
pub const BATCH_DOORBELL_NS: u64 = 250;
/// Per-object generation-counter bookkeeping when delta marshaling
/// decides which fields to elide.
pub const DELTA_TRACK_NS: u64 = 60;
/// Posting one descriptor into a pinned shared-memory ring: two cache-line
/// writes (descriptor body, then the ownership flag release-store). No
/// crossing, no marshaling — this is what replaces `MARSHAL_BYTE_NS` on
/// the shmring data path.
pub const RING_POST_NS: u64 = 60;
/// The consumer pulling one descriptor's dirtied cache line across cores
/// (a coherence miss, 2009-era magnitudes).
pub const RING_CACHELINE_NS: u64 = 120;
/// Mapping one sector-granular buffer for device DMA (page-table/IOMMU
/// work): what the zero-copy storage submission path pays *instead of* a
/// per-byte payload copy. Page-cache and `O_DIRECT` pages are DMA-able
/// where they sit; donating them to a sector pool costs a mapping per
/// sector, never a memcpy.
pub const SECTOR_MAP_NS: u64 = 200;
/// Doorbell-coalescing window: descriptors parked in a ring (or deferred
/// calls parked in a batched transport) are flushed no later than this
/// much virtual time after the first post, so low-rate paths do not hold
/// posted work indefinitely while high-rate paths amortize the crossing
/// over a watermark's worth of descriptors.
pub const DOORBELL_COALESCE_NS: u64 = 100_000;
/// One budgeted poll-mode probe of a ring's head cache line: a read of
/// the producer index plus the branch — what a poll-mode receive loop
/// pays per iteration *instead of* interrupt entry and doorbell
/// crossings. Cheap per probe, but charged continuously whether or not
/// traffic arrives: the interrupt-vs-poll crossover falls out of this
/// trade.
pub const POLL_SPIN_NS: u64 = 120;
