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

use decaf_shmring::{BufHandle, BufPool, Descriptor, RingSet};
use decaf_simkernel::kernel::{IrqHandler, WorkBody};
use decaf_simkernel::net::XmitOp;
use decaf_simkernel::{costs, CpuClass, KError, KResult, Kernel, TimerId};
use decaf_xdr::XdrValue;
use decaf_xpc::{DataPathChannel, Domain, ProcDef, RingEnd, ShardedChannel, XpcResult};

use crate::support::{RxMode, RX_POLL_BUDGET, RX_POLL_TICK_NS};

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

/// The per-shard rings and data paths of a ring-hosted build.
pub struct Rings<H> {
    /// Per-shard transmit data paths.
    pub tx_paths: Vec<Rc<DataPathChannel>>,
    /// The TX ring set (flow steering + completion steering).
    pub tx_set: Rc<RingSet>,
    /// Per-shard receive data paths.
    pub rx_paths: Vec<Rc<DataPathChannel>>,
    /// The RX ring set.
    pub rx_set: Rc<RingSet>,
    rx: Rc<RxSide<H>>,
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
    let rings = build_rings(channels, hw, ifname)?;
    let inflight = register_drains(channels, hw, &rings)?;
    let irq = irq_handler(hw, ifname, &rings, inflight, rx_mode);
    let xmit = xmit_op(
        Rc::clone(&rings.tx_set),
        rings.tx_paths.clone(),
        H::MAX_FRAME,
    );
    Ok((rings, irq, xmit))
}

/// Builds the per-shard rings and data paths over one shared
/// DMA-resident pool.
fn build_rings<H: RingNic>(
    channels: &Rc<ShardedChannel>,
    hw: &Rc<H>,
    ifname: &str,
) -> XpcResult<Rings<H>> {
    let shards = channels.shard_count();
    let set = |dir, slots| RingSet::new(&format!("{}-{dir}", H::NAME), shards, slots, 2 * slots);
    let (tx_set, rx_set) = (set("tx", H::TX_SLOTS), set("rx", H::RX_SLOTS));
    let paths = |set: &RingSet, dir, pool, watermark| {
        let drain = format!("{}_{dir}_drain", H::NAME);
        DataPathChannel::per_shard(channels, Domain::Nucleus, drain, set, pool, watermark)
    };
    let tx_paths = paths(&tx_set, "tx", Some(Rc::new(hw.tx_pool())), H::TX_WATERMARK)?;
    // RX descriptors reference receive memory the chip owns (no pool);
    // the IRQ handler posts, a work item rings, the decaf driver drains.
    let rx_paths = paths(&rx_set, "rx", None, H::RX_SLOTS)?;
    Ok(Rings {
        tx_paths,
        tx_set,
        rx: Rc::new(RxSide {
            hw: Rc::clone(hw),
            ifname: ifname.to_string(),
            set: Rc::clone(&rx_set),
            ends: rx_paths.iter().map(|p| p.end(Domain::Decaf)).collect(),
            paths: rx_paths.clone(),
            cut_short: Cell::new(false),
        }),
        rx_paths,
        rx_set,
    })
}

/// Builds the netdev transmit op: frames over `max_len` fail with
/// `Inval` (and `tx_errors` accounting through `net_xmit`), as on the
/// kernel-resident paths; every other frame is steered to a shard by an
/// RSS-style flow hash over its protocol and leading payload bytes,
/// posted into that shard's ring under the shard's cost scope, and
/// recorded in the [`RingSet`] so the IRQ-side completion steers back to
/// the posting shard.
fn xmit_op(tx_set: Rc<RingSet>, tx_paths: Vec<Rc<DataPathChannel>>, max_len: usize) -> XmitOp {
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
        let shard = tx_set.steer(flow);
        k.shard_scope(shard, || {
            // Record the origin *before* sending: a watermark or
            // pool-exhaustion doorbell inside send() runs the decaf
            // drain synchronously, and its reject path steers the
            // descriptor home through this record.
            tx_set.note_post(shard, cookie);
            tx_paths[shard].send(k, &skb.data, cookie).map_err(|_| {
                tx_set.cancel_post(cookie);
                KError::Busy
            })
        })
    })
}

/// TX descriptors queued to hardware by a decaf drain, completed
/// (ownership handed back through the completion ring) by the IRQ.
type TxInflight = Rc<RefCell<VecDeque<Descriptor>>>;

/// Registers the decaf-side drains, one pair per shard, each charged to
/// its shard. Completions go through the ring sets so every handback
/// steers home to the posting shard.
fn register_drains<H: RingNic>(
    channels: &Rc<ShardedChannel>,
    hw: &Rc<H>,
    rings: &Rings<H>,
) -> XpcResult<TxInflight> {
    let inflight: TxInflight = Rc::new(RefCell::new(VecDeque::new()));
    for (i, (tx_path, rx_path)) in rings.tx_paths.iter().zip(&rings.rx_paths).enumerate() {
        // TX drain: the user-level driver programs the hardware straight
        // from its mapping of the shared pool — no payload copy — and
        // publishes the whole batch with one kick.
        let end = tx_path.end(Domain::Decaf);
        let hw = Rc::clone(hw);
        let inflight = Rc::clone(&inflight);
        let set = Rc::clone(&rings.tx_set);
        channels.shard(i).register_proc(
            Domain::Decaf,
            ProcDef::scalar(format!("{}_tx_drain", H::NAME), move |k, _| {
                k.shard_scope(i, || {
                    let pool = end.pool().as_ref().expect("tx path owns a pool");
                    let mut queued = 0;
                    end.consume(k, |d| {
                        let off = pool.offset_of(d.buf).expect("live pool handle");
                        match hw.xmit_desc(k, off, d.len as usize) {
                            Ok(()) => {
                                inflight.borrow_mut().push_back(d);
                                queued += 1;
                            }
                            // A frame the hardware rejects never becomes
                            // in-flight (it would be counted as sent at
                            // the next TX-done interrupt); it is completed
                            // on the spot — steered home like any other.
                            Err(_) => {
                                let _ = set.complete(k, CpuClass::User, d);
                            }
                        }
                    });
                    if queued > 0 {
                        hw.tx_kick(k);
                    }
                    XdrValue::Int(queued)
                })
            }),
        )?;

        // RX drain: user-level receive processing sees every descriptor,
        // then hands buffer ownership back in completion order.
        let end = rx_path.end(Domain::Decaf);
        let set = Rc::clone(&rings.rx_set);
        channels.shard(i).register_proc(
            Domain::Decaf,
            ProcDef::scalar(format!("{}_rx_drain", H::NAME), move |k, _| {
                k.shard_scope(i, || {
                    let n = end.consume(k, |d| {
                        let _ = set.complete(k, CpuClass::User, d);
                    });
                    XdrValue::Int(n as i32)
                })
            }),
        )?;
    }
    Ok(inflight)
}

/// The nucleus side of the receive rings: what the interrupt handler,
/// its drain work item and the poll tick share.
struct RxSide<H> {
    hw: Rc<H>,
    ifname: String,
    set: Rc<RingSet>,
    paths: Vec<Rc<DataPathChannel>>,
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
        let free = |p: &Rc<DataPathChannel>| p.ring().capacity() - p.pending();
        let free = self.paths.iter().map(free).min().unwrap_or(0);
        let mut frames = self.hw.rx_harvest(k);
        for _ in 0..free {
            let Some((cookie, len)) = frames.next() else {
                return self.cut_short.set(false);
            };
            let shard = self.set.steer(cookie as u64);
            let posted = self.paths[shard].post(
                k,
                Descriptor {
                    buf: BufHandle(cookie),
                    len: len as u32,
                    cookie: cookie as u64,
                },
            );
            if posted.is_ok() {
                self.set.note_post(shard, cookie as u64);
            }
        }
        self.cut_short.set(true);
    }

    /// Delivers every completed receive descriptor to the stack and
    /// gives its receive memory back to the chip. Returns whether there
    /// was any.
    fn deliver(&self, k: &Kernel) -> bool {
        let mut last = None;
        for path in &self.paths {
            path.reclaim_completions_with(k, |d| {
                let cookie = d.cookie as u32;
                let _ = self.hw.rx_frame(cookie, d.len as usize, |frame| {
                    k.netif_rx(&self.ifname, frame, 0x0800)
                });
                self.hw.rx_slot_done(k, cookie);
                last = Some(cookie);
            });
        }
        if let Some(cookie) = last {
            self.hw.rx_delivered(k, cookie, self.set.in_flight());
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
    let tx_set = Rc::clone(&rings.tx_set);
    let rx = Rc::clone(&rings.rx);
    // The drain is the same work after every receive interrupt: built
    // once here, queued by handle from the handler.
    let drain: WorkBody = {
        let rx = Rc::clone(&rx);
        Rc::new(move |k, _| {
            let _span = k.trace_span("rx", "drain");
            loop {
                for (i, path) in rx.paths.iter().enumerate() {
                    k.shard_scope(i, || {
                        let _ = path.ring_doorbell(k);
                    });
                }
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
            if rx.paths.iter().any(|p| p.pending() > 0) {
                k.schedule_work_handle(&drain, 0);
            }
        }
        hw.irq_end(k, &name, cause.raw);
    })
}

/// Arms the periodic coalescing poll of the TX paths: one timer, one
/// work item, each busy shard polled under its cost scope. The work
/// item's body is built here, once; a tick queues it by handle with the
/// busy set — one bit per shard — as its argument word, and allocates
/// nothing.
pub fn tx_poll_timer<H: RingNic>(kernel: &Kernel, rings: &Rings<H>) -> TimerId {
    assert!(rings.tx_paths.len() <= 64, "the busy set is one word");
    let paths: Rc<[Rc<DataPathChannel>]> = rings.tx_paths.as_slice().into();
    let poll: WorkBody = {
        let paths = Rc::clone(&paths);
        Rc::new(move |k, busy| {
            for i in (0..paths.len()).filter(|i| busy >> i & 1 != 0) {
                k.shard_scope(i, || {
                    let _ = paths[i].poll(k);
                });
            }
        })
    };
    let timer = kernel.timer_create(
        format!("{}_shard_poll", H::NAME),
        Rc::new(move |k| {
            let busy = paths.iter().enumerate().fold(0u64, |busy, (i, p)| {
                let is_busy = p.pending() > 0 || !p.completions().is_empty();
                busy | (is_busy as u64) << i
            });
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
    let rx = Rc::clone(&rings.rx);
    let poll: WorkBody = Rc::new(move |k, _| {
        let _span = k.trace_span("rx", "poll");
        rx.harvest(k);
        for (i, end) in rx.ends.iter().enumerate() {
            k.shard_scope(i, || {
                end.poll_and_reclaim(k, RX_POLL_BUDGET, |d| {
                    let _ = rx.set.complete(k, CpuClass::User, d);
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
