//! The nucleus-side glue of a ring-hosted NIC, said once for every chip.
//!
//! A channel configuration with `shmring` set hosts a NIC's *data path*
//! at user level: transmit payloads are written once into a buffer pool
//! carved from the device's DMA region, 16-byte descriptors cross through
//! per-shard [`RingSet`] rings, the decaf driver's drain handlers program
//! the hardware from the shared mapping, and received frames flow back
//! the same way. Everything that is not a register or a ring layout — the
//! rings and pool, the netdev transmit op, the two decaf drains, the
//! harvest/deliver pair, the interrupt handler, the coalescing poll and
//! the poll-mode receive tick — lives here, after the ixy paper's shape
//! (PAPERS.md: one driver-independent queue/mempool layer under a small
//! per-chip driver). A chip is a [`RingNic`] implementation:
//! [`crate::e1000::E1000Hw`] at any shard count,
//! [`crate::rtl8139::Rtl8139Hw`] as the one-shard instance.
//!
//! One shard *is* the unsharded build: steering is the constant 0 and
//! every completion's home is the only ring there is, so a single-queue
//! chip's descriptors sit under the same conservation ledger
//! ([`RingSet::conserved`]) as a multi-queue chip's.
//!
//! *When* a timer is armed is the installer's call ([`tx_poll_timer`],
//! [`rx_poll_timer`]): its phase against `insmod` and the traffic is part
//! of what the tables pin.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use decaf_shmring::{BufHandle, BufPool, Descriptor, RingSet};
use decaf_simkernel::kernel::{IrqHandler, WorkBody};
use decaf_simkernel::net::XmitOp;
use decaf_simkernel::{costs, CpuClass, KError, KResult, Kernel, TimerId};
use decaf_slicer::SlicePlan;
use decaf_xdr::graph::CAddr;
use decaf_xdr::XdrValue;
use decaf_xpc::{
    DataPathChannel, Domain, NuclearRuntime, RingEnd, ShardedChannel, ShardedRingPath, XpcChannel,
    XpcResult,
};

use crate::support::{RxMode, Split, Unload, RX_POLL_BUDGET, RX_POLL_TICK_NS};

/// What one read of a chip's interrupt cause register said.
pub struct IrqCause {
    /// The register value, for [`RingNic::irq_end`].
    pub raw: u32,
    /// Transmit descriptors completed.
    pub tx_done: bool,
    /// Received frames wait in the hardware ring.
    pub rx: bool,
}

/// The register and ring facts in which ring-hosted NICs differ. The
/// glue in this module is written against these and never asks which
/// chip it serves.
///
/// A receive *cookie* is whatever names a harvested frame to the chip: a
/// descriptor slot on the e1000, a byte offset into the packed ring on
/// the 8139. It rides the shm rings as the descriptor's cookie, so it
/// must be unique among the frames in flight.
pub trait RingNic: 'static {
    /// Prefix of the ring, drain-procedure and timer names.
    const NAME: &'static str;
    /// Slots of each shard's TX descriptor ring.
    const TX_SLOTS: usize;
    /// TX descriptors per doorbell at line rate.
    const TX_WATERMARK: usize;
    /// Slots of each shard's RX descriptor ring (and its doorbell
    /// watermark: the RX doorbell is rung explicitly, per harvest).
    const RX_SLOTS: usize;
    /// Longest frame the chip transmits; longer ones are refused at the
    /// ring mouth, so the rings never carry a descriptor it would reject.
    const MAX_FRAME: usize;

    /// The transmit payload pool, carved from the chip's own DMA region
    /// so a posted descriptor already points where the chip reads.
    fn tx_pool(&self) -> BufPool;

    /// Reads the interrupt cause (and, where the read does that, clears
    /// it).
    fn irq_cause(&self, kernel: &Kernel) -> IrqCause;
    /// Masks the receive interrupt (the NAPI-style handoff to the poll
    /// tick); transmit completions keep interrupting.
    fn irq_mask_rx(&self, kernel: &Kernel);
    /// Ends interrupt service: whatever the cause read left undone —
    /// acknowledging `raw`, mirroring a link change into the stack.
    fn irq_end(&self, kernel: &Kernel, ifname: &str, raw: u32);

    /// Queues transmission of `len` payload bytes already resident in
    /// DMA at `off` — the zero-copy path.
    fn xmit_desc(&self, kernel: &Kernel, off: usize, len: usize) -> KResult<()>;
    /// Publishes a batch of queued descriptors to the chip.
    fn tx_kick(&self, kernel: &Kernel);

    /// Walks the frames the chip has received *without copying
    /// payloads*: yields `(cookie, len)` as it finds them. The read
    /// position advances only past what the caller takes, so a caller
    /// that stops early loses nothing.
    fn rx_harvest<'a>(&'a self, kernel: &Kernel) -> impl Iterator<Item = (u32, usize)> + 'a;
    /// Lends the `len` bytes of the frame `cookie` names to `f`.
    fn rx_frame<R>(&self, cookie: u32, len: usize, f: impl FnOnce(&[u8]) -> R) -> R;
    /// The stack has taken frame `cookie`: software is done with it.
    fn rx_slot_done(&self, kernel: &Kernel, cookie: u32);
    /// A delivery pass ended with frame `last`; `in_flight` harvested
    /// frames are still on their way through the rings. Where receive
    /// memory goes back to the chip.
    fn rx_delivered(&self, kernel: &Kernel, last: u32, in_flight: usize);
}

/// One direction's rings: a [`decaf_xpc::DataPathChannel`] per shard
/// over a [`RingSet`], flow-steered, completions steered home.
pub type NicPath = ShardedRingPath<Descriptor>;

/// The per-shard rings and data paths of a ring-hosted build, over the
/// channel facade they ride.
pub struct Rings<H> {
    /// The transmit paths.
    pub tx: Rc<NicPath>,
    /// The receive paths.
    pub rx: Rc<NicPath>,
    rx_side: Rc<RxSide<H>>,
    channels: Rc<ShardedChannel>,
    rx_mode: RxMode,
}

/// A NIC's split load as its installer built it: the kernel-path handle
/// and, when the configuration hosts the data path at user level, its
/// rings ([`RingSplit::new`] makes the two one handle).
pub(crate) type SplitLoad<H, D> = (Split<H, D>, Option<Rings<H>>);

/// A split NIC build whose data path is hosted at user level on
/// per-shard rings, at any width: both NICs'
/// [`Hosting::Shmring`](crate::Hosting::Shmring) and
/// [`Hosting::Poll`](crate::Hosting::Poll) builds and the e1000's
/// [`Hosting::Sharded`](crate::Hosting::Sharded).
pub struct RingSplit<H: ?Sized, D: ?Sized> {
    /// Kernel handle.
    pub kernel: Kernel,
    /// Kernel-resident hardware state.
    pub hw: Rc<H>,
    /// Interface name.
    pub name: String,
    /// The sharded channel facade (shard 0 is the control shard).
    pub channels: Rc<ShardedChannel>,
    /// The control shard's channel.
    pub channel: Rc<XpcChannel>,
    /// The nuclear runtime guarding upcalls (control shard).
    pub nuc: Rc<NuclearRuntime>,
    /// The driver's root object (homed on shard 0).
    pub root: CAddr,
    /// Measured `insmod` latency (virtual ns).
    pub init_latency_ns: u64,
    /// The slicing plan this build implements (the shared driver image).
    pub plan: Arc<SlicePlan>,
    /// Handle to the device model.
    pub dev: Rc<RefCell<D>>,
    /// The transmit paths, one per shard.
    pub tx: Rc<NicPath>,
    /// The receive paths, one per shard.
    pub rx: Rc<NicPath>,
    /// The TX ring set (flow steering + completion steering).
    pub tx_set: Rc<RingSet>,
    /// The RX ring set.
    pub rx_set: Rc<RingSet>,
    /// Shard 0's receive path (always `Some`).
    pub rx_path: Option<Rc<DataPathChannel>>,
    /// How this build collects received frames.
    pub rx_mode: RxMode,
    unload: Unload,
}

impl<H: ?Sized, D: ?Sized> RingSplit<H, D> {
    /// The ring build of a split load: `split` as installed (or erased),
    /// with the rings its data path runs on — which a shmring
    /// configuration has.
    pub(crate) fn new<R>((split, rings): (Split<H, D>, Option<Rings<R>>)) -> Self {
        let rings = rings.expect("a shmring configuration has rings");
        RingSplit {
            kernel: split.kernel,
            hw: split.hw,
            name: split.name,
            channel: split.channel,
            nuc: split.nuc,
            root: split.root,
            init_latency_ns: split.init_latency_ns,
            plan: split.plan,
            dev: split.dev,
            unload: split.unload,
            tx_set: Rc::clone(rings.tx.set()),
            rx_set: Rc::clone(rings.rx.set()),
            rx_path: Some(Rc::clone(rings.rx.path(0))),
            tx: rings.tx,
            rx: rings.rx,
            channels: rings.channels,
            rx_mode: rings.rx_mode,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.channels.shard_count()
    }

    /// Unloads the driver.
    pub fn remove(self) {
        self.unload.run(&self.kernel, &self.name);
    }
}

/// Builds the rings of `hw` over `channels` (one TX/RX pair per shard),
/// registers their decaf-side drains, and returns them with the nucleus
/// interrupt handler `request_irq` installs and the netdev transmit op.
pub fn link<H: RingNic>(
    channels: &Rc<ShardedChannel>,
    hw: &Rc<H>,
    ifname: &str,
    rx_mode: RxMode,
) -> XpcResult<(Rings<H>, IrqHandler, XmitOp)> {
    let rings = build_rings(channels, hw, ifname, rx_mode)?;
    let inflight = register_drains(hw, &rings)?;
    let irq = irq_handler(hw, ifname, &rings, inflight, rx_mode);
    let xmit = xmit_op(Rc::clone(&rings.tx), H::MAX_FRAME);
    Ok((rings, irq, xmit))
}

/// Builds the per-shard rings and data paths over one shared
/// DMA-resident pool.
fn build_rings<H: RingNic>(
    channels: &Rc<ShardedChannel>,
    hw: &Rc<H>,
    ifname: &str,
    rx_mode: RxMode,
) -> XpcResult<Rings<H>> {
    let shards = channels.shard_count();
    let paths = |dir, slots, pool, watermark| {
        let name = format!("{}-{dir}", H::NAME);
        let drain = format!("{}_{dir}_drain", H::NAME);
        let set = RingSet::with_pool(&name, shards, slots, 2 * slots, pool);
        NicPath::new(Rc::clone(channels), Domain::Nucleus, drain, set, watermark)
    };
    let tx_pool = Some(Rc::new(hw.tx_pool()));
    let tx = paths("tx", H::TX_SLOTS, tx_pool, H::TX_WATERMARK)?;
    // RX descriptors reference receive memory the chip owns (no pool);
    // the IRQ handler posts, a work item rings, the decaf driver drains.
    let rx = paths("rx", H::RX_SLOTS, None, H::RX_SLOTS)?;
    let rx_side = Rc::new(RxSide {
        hw: Rc::clone(hw),
        ifname: ifname.to_string(),
        ends: (0..shards).map(|i| rx.path(i).end(Domain::Decaf)).collect(),
        rings: Rc::clone(&rx),
        cut_short: Cell::new(false),
    });
    Ok(Rings {
        tx,
        rx,
        rx_side,
        channels: Rc::clone(channels),
        rx_mode,
    })
}

/// Builds the netdev transmit op: frames over `max_len` fail with
/// `Inval` (and `tx_errors` accounting through `net_xmit`), as on the
/// kernel-resident paths; every other frame is steered to a shard by an
/// RSS-style flow hash over its protocol and leading payload bytes and
/// posted into that shard's ring ([`NicPath::post_on`]), so the IRQ-side
/// completion steers back to the posting shard.
fn xmit_op(tx: Rc<NicPath>, max_len: usize) -> XmitOp {
    let seq = Cell::new(0u64);
    Rc::new(move |k, skb| {
        if skb.len() > max_len {
            return Err(KError::Inval);
        }
        let cookie = seq.get();
        seq.set(cookie + 1);
        // The flow identity of the synthetic workloads lives in the
        // frame's protocol and fill bytes; hashing them keeps one flow
        // on one queue while distinct flows spread (RSS semantics).
        let flow = skb.data.first().copied().unwrap_or(0) as u64
            | ((skb.protocol as u64) << 8)
            | ((skb.len() as u64) << 24);
        tx.post_on(k, tx.steer(flow), cookie, |path| {
            path.send(k, &skb.data, cookie)
        })
        .map_err(|_| KError::Busy)
    })
}

/// TX descriptors queued to hardware by a decaf drain, completed
/// (ownership handed back through the completion ring) by the IRQ.
type TxInflight = Rc<RefCell<VecDeque<Descriptor>>>;

/// Registers the decaf-side drains of both directions. Completions go
/// through the ring sets so every handback steers home to the posting
/// shard.
fn register_drains<H: RingNic>(hw: &Rc<H>, rings: &Rings<H>) -> XpcResult<TxInflight> {
    let inflight: TxInflight = Rc::new(RefCell::new(VecDeque::new()));
    // TX drain: the user-level driver programs the hardware straight from
    // its mapping of the shared pool — no payload copy — and publishes the
    // whole batch with one kick.
    rings.tx.register_drains(|end, set| {
        let (hw, inflight) = (Rc::clone(hw), Rc::clone(&inflight));
        move |k| {
            let pool = end.pool().as_ref().expect("tx path owns a pool");
            let mut queued = 0;
            end.consume(k, |d| {
                let off = pool.offset_of(d.buf).expect("live pool handle");
                match hw.xmit_desc(k, off, d.len as usize) {
                    Ok(()) => {
                        inflight.borrow_mut().push_back(d);
                        queued += 1;
                    }
                    // A frame the hardware rejects never becomes in-flight
                    // (it would be counted as sent at the next TX-done
                    // interrupt); it is completed on the spot — steered
                    // home like any other.
                    Err(_) => {
                        let _ = set.complete(k, CpuClass::User, d);
                    }
                }
            });
            if queued > 0 {
                hw.tx_kick(k);
            }
            XdrValue::Int(queued)
        }
    })?;
    // RX drain: user-level receive processing sees every descriptor, then
    // hands buffer ownership back in completion order.
    rings.rx.register_drains(|end, set| {
        move |k| {
            let n = end.consume(k, |d| {
                let _ = set.complete(k, CpuClass::User, d);
            });
            XdrValue::Int(n as i32)
        }
    })?;
    Ok(inflight)
}

/// The nucleus side of the receive rings: what the interrupt handler,
/// its drain work item and the poll tick share.
struct RxSide<H> {
    hw: Rc<H>,
    ifname: String,
    rings: Rc<NicPath>,
    /// The decaf end of each path, for the poll tick: kept, so the batch
    /// its probes fill is reused from tick to tick.
    ends: Vec<RingEnd<Descriptor>>,
    /// The last harvest stopped for want of ring slots, not of frames:
    /// the rest wait in the hardware, and no interrupt will announce
    /// them again.
    cut_short: Cell<bool>,
}

impl<H: RingNic> RxSide<H> {
    /// Harvests the hardware into the RX rings — each frame flow-hashes
    /// to a shard — taking no more than any one ring can hold, so a
    /// burst larger than the rings waits in the hardware for the next
    /// harvest instead of being dropped.
    fn harvest(&self, k: &Kernel) {
        let free = |i| self.rings.path(i).ring().capacity() - self.rings.path(i).pending();
        let free = (0..self.rings.shards()).map(free).min().unwrap_or(0);
        let mut frames = self.hw.rx_harvest(k);
        for _ in 0..free {
            let Some((cookie, len)) = frames.next() else {
                return self.cut_short.set(false);
            };
            // Not through `post_on`: a harvest is charged outside any
            // shard's scope, and a bare post rings no doorbell.
            let shard = self.rings.steer(cookie as u64);
            let posted = self.rings.path(shard).post(
                k,
                Descriptor {
                    buf: BufHandle(cookie),
                    len: len as u32,
                    cookie: cookie as u64,
                },
            );
            if posted.is_ok() {
                self.rings.set().note_post(shard, cookie as u64);
            }
        }
        self.cut_short.set(true);
    }

    /// Delivers every completed receive descriptor to the stack and
    /// gives its receive memory back to the chip. Returns whether there
    /// was any.
    fn deliver(&self, k: &Kernel) -> bool {
        let mut last = None;
        for i in 0..self.rings.shards() {
            self.rings.path(i).reclaim_completions_with(k, |d| {
                let cookie = d.cookie as u32;
                let _ = self.hw.rx_frame(cookie, d.len as usize, |frame| {
                    k.netif_rx(&self.ifname, frame, 0x0800)
                });
                self.hw.rx_slot_done(k, cookie);
                last = Some(cookie);
            });
        }
        if let Some(cookie) = last {
            self.hw
                .rx_delivered(k, cookie, self.rings.set().in_flight());
        }
        last.is_some()
    }
}

/// The nucleus IRQ handler of a ring build: TX completions steer home
/// through the ring set, harvested RX frames flow-hash across the
/// per-shard RX rings, and the doorbell upcall is deferred to a work
/// item (process context — §3.1.3 forbids upcalls from atomic context).
fn irq_handler<H: RingNic>(
    hw: &Rc<H>,
    ifname: &str,
    rings: &Rings<H>,
    inflight: TxInflight,
    rx_mode: RxMode,
) -> IrqHandler {
    let hw = Rc::clone(hw);
    let name = ifname.to_string();
    let tx_set = Rc::clone(rings.tx.set());
    let rx = Rc::clone(&rings.rx_side);
    // The drain is the same work after every receive interrupt: built
    // once here, queued by handle from the handler.
    let drain: WorkBody = {
        let rx = Rc::clone(&rx);
        Rc::new(move |k, _| {
            let _span = k.trace_span("rx", "drain");
            loop {
                let _ = rx.rings.ring_all(k);
                // Slots came free: pick up what the last harvest had to
                // leave behind. A pass that delivered nothing freed none.
                if !rx.deliver(k) || !rx.cut_short.get() {
                    break;
                }
                rx.harvest(k);
            }
        })
    };
    Rc::new(move |k| {
        let cause = hw.irq_cause(k);
        if cause.tx_done {
            let (mut pkts, mut bytes) = (0u64, 0u64);
            // Popped one at a time, so no borrow is held across the
            // completion and nothing is collected.
            while let Some(d) = { inflight.borrow_mut().pop_front() } {
                pkts += 1;
                bytes += d.len as u64;
                // Completion steering: handback lands on the ring of
                // the shard that posted the descriptor.
                let _ = tx_set.complete(k, CpuClass::Kernel, d);
            }
            k.net_tx_done(&name, pkts, bytes);
        }
        if cause.rx && rx_mode == RxMode::Poll {
            // NAPI-style handoff: the first receive interrupt masks
            // further ones; the frames wait in the hardware ring for the
            // next poll tick.
            hw.irq_mask_rx(k);
        } else if cause.rx {
            let _span = k.trace_span("rx", "irq");
            rx.harvest(k);
            if rx.rings.pending() > 0 {
                k.schedule_work_handle(&drain, 0);
            }
        }
        hw.irq_end(k, &name, cause.raw);
    })
}

/// Arms the periodic coalescing poll of the TX paths: one timer, one
/// work item, each busy shard polled under its cost scope. The work
/// item's body is built here, once; a tick queues it by handle with the
/// busy set ([`NicPath::busy`]) as its argument word, and allocates
/// nothing.
pub fn tx_poll_timer<H: RingNic>(kernel: &Kernel, rings: &Rings<H>) -> TimerId {
    let tx = Rc::clone(&rings.tx);
    let poll: WorkBody = {
        let tx = Rc::clone(&tx);
        Rc::new(move |k, busy| {
            let _ = tx.sweep(k, |i, path| match busy >> i & 1 {
                0 => Ok(false),
                _ => path.poll(k),
            });
        })
    };
    let timer = kernel.timer_create(
        format!("{}_shard_poll", H::NAME),
        Rc::new(move |k| {
            let busy = tx.busy();
            if busy != 0 {
                k.schedule_work_handle(&poll, busy);
            }
        }),
    );
    kernel.timer_arm_periodic(timer, costs::DOORBELL_COALESCE_NS);
    timer
}

/// Arms poll-mode receive: a fixed-grid tick replaces the RX doorbell
/// upcall. Each tick harvests the hardware into the shm rings, probes
/// each from the decaf side under a budget (paying the spin tax whether
/// or not frames arrived), and delivers completions — no interrupt
/// entry, no crossing.
pub fn rx_poll_timer<H: RingNic>(kernel: &Kernel, rings: &Rings<H>) -> TimerId {
    let rx = Rc::clone(&rings.rx_side);
    let poll: WorkBody = Rc::new(move |k, _| {
        let _span = k.trace_span("rx", "poll");
        rx.harvest(k);
        for (i, end) in rx.ends.iter().enumerate() {
            k.shard_scope(i, || {
                end.poll_and_reclaim(k, RX_POLL_BUDGET, |d| {
                    let _ = rx.rings.set().complete(k, CpuClass::User, d);
                });
            });
        }
        rx.deliver(k);
    });
    let timer = kernel.timer_create(
        format!("{}_rx_poll", H::NAME),
        Rc::new(move |k| k.schedule_work_handle(&poll, 0)),
    );
    kernel.timer_arm_periodic(timer, RX_POLL_TICK_NS);
    timer
}
