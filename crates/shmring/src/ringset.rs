//! Multi-queue ring sets: RSS-style per-shard descriptor rings with a
//! completion-steering policy, generic over the descriptor they carry.
//!
//! One [`crate::ShmRing`] per direction is enough for one producer and
//! one consumer. Scaling the user-level data path across CPUs needs N
//! parallel rings feeding one device — per-CPU (or per-flow) queues,
//! exactly the receive-side-scaling shape real NICs expose. A
//! [`ShardedRings`] groups N descriptor rings and their N completion
//! rings behind one object and adds the two policies sharding requires:
//!
//! * **steering** ([`ShardedRings::steer`]) — a deterministic hash maps
//!   a key to a shard, so one key's descriptors stay on one ring
//!   (ordering within the key is preserved; different keys spread);
//! * **completion steering** ([`ShardedRings::complete`]) — the
//!   consumer hands a finished descriptor back *to the shard that posted
//!   it*, looked up from the cookie recorded at post time. Completions
//!   must come home: a descriptor handed back on the wrong shard's ring
//!   would corrupt that shard's in-flight accounting and break
//!   per-shard conservation.
//!
//! The two instantiations differ only in what [`RingDescriptor`] says
//! about the descriptor:
//!
//! * [`RingSet`] carries NIC frame [`Descriptor`]s: a TX (or RX) ring
//!   and its completion ring per shard, steered per **flow**, with no
//!   shared pool of its own.
//! * [`UrbRingSet`] carries [`UrbDescriptor`]s: a **submit/giveback
//!   ring pair** per shard (the giveback carries `status` and the
//!   *actual* transferred length, and for IN transfers the payload
//!   run's ownership), steered per **LUN** — a storage transaction is a
//!   *sequence* of URBs (stage command, then data transfer) whose FIFO
//!   order is load-bearing, so every URB of one LUN must ride one
//!   shard's rings — with every shard allocating out of **one shared
//!   [`SectorPool`]** (the pool is carved from the device's DMA region,
//!   and the device is singular), so pool conservation is a cross-shard
//!   invariant while descriptor conservation is tracked per shard.
//!
//! A set with one shard *is* the unsharded data path: steering is the
//! constant 0 and every completion's home is the only ring there is.
//!
//! The set keeps per-shard conservation counters: every descriptor
//! noted as posted is either still in flight or has been completed on
//! the shard that posted it. The `tests/shard_sched.rs` and
//! `tests/storage_sched.rs` harnesses assert these invariants over
//! hundreds of enumerated interleavings.

use std::cell::RefCell;
use std::rc::Rc;

use decaf_simkernel::{CpuClass, Kernel};

use crate::ring::{Descriptor, RingError, ShmRing};
use crate::sector::SectorPool;
use crate::urb::UrbDescriptor;

/// Oracle-sensitivity seam for the storage fault-exploration harness
/// (`tests/storage_sched.rs`): a one-shot, thread-local switch that
/// plants a *deliberate* completion-steering bug so the harness can
/// prove its differential oracle rejects one. Debug-build only
/// (`debug_assertions`) — `#[cfg(test)]` would not reach an
/// integration-test dependency build of this crate, and the release
/// build the ablations measure must not carry the seam.
#[cfg(debug_assertions)]
pub mod mutation {
    use std::cell::Cell;

    thread_local! {
        static DOUBLE_COMPLETE: Cell<bool> = const { Cell::new(false) };
    }

    /// Arms the planted bug: the next [`super::ShardedRings::complete`]
    /// on this thread pushes the completed descriptor onto the home ring
    /// *twice* — the producer reclaims the same descriptor two times,
    /// which the exactly-once-completion / pool-conservation oracle must
    /// reject.
    pub fn arm_double_complete() {
        DOUBLE_COMPLETE.with(|c| c.set(true));
    }

    /// Disarms without consuming (cleanup after a caught failure).
    pub fn disarm() {
        DOUBLE_COMPLETE.with(|c| c.set(false));
    }

    pub(crate) fn take_double_complete() -> bool {
        DOUBLE_COMPLETE.with(|c| c.replace(false))
    }
}

/// Failure modes specific to multi-queue steering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingSetError {
    /// The descriptor's cookie was never noted as posted (or was already
    /// completed): the completion cannot be steered home.
    UnknownOrigin(u64),
    /// The posting shard's completion ring is full.
    CompletionFull(usize),
    /// The target shard's descriptor ring is full (backpressure).
    RingFull(usize),
    /// The cookie is already in flight: a second post of it would leave
    /// two descriptors that one completion steers home.
    InFlight(u64),
}

impl std::fmt::Display for RingSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingSetError::UnknownOrigin(cookie) => {
                write!(f, "completion for unknown cookie {cookie}")
            }
            RingSetError::CompletionFull(shard) => {
                write!(f, "completion ring of shard {shard} full")
            }
            RingSetError::RingFull(shard) => {
                write!(f, "descriptor ring of shard {shard} full")
            }
            RingSetError::InFlight(cookie) => {
                write!(f, "cookie {cookie} posted while in flight")
            }
        }
    }
}

impl std::error::Error for RingSetError {}

decaf_simkernel::counters! {
    /// Conservation counters: one shard's, or the merged view
    /// ([`ShardedRings::stats`]: sums across shards, max for the high-water
    /// mark).
    pub struct RingSetStats {
        /// Descriptors noted as posted.
        posted: sum,
        /// Descriptors completed (steered home).
        completed: sum,
        /// Most descriptors simultaneously in flight on one shard.
        in_flight_hwm: max,
        /// Notes refused because their cookie was already in flight
        /// ([`RingSetError::InFlight`]).
        refused: sum,
    }
}

/// A deterministic 64-bit mix (SplitMix64 finalizer) used for flow
/// steering: uniform, seedless, and stable across runs.
pub fn flow_hash(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a ring set needs to know about the descriptor it carries.
pub trait RingDescriptor: Copy + Default {
    /// The payload pool a data path over these rings draws from: the
    /// [`SectorPool`] every shard of a URB set shares; for NIC frames a
    /// [`crate::BufPool`] when the paths send payloads, `None` when
    /// descriptors name device memory (what [`RingSet::new`] builds).
    type Pool: std::fmt::Debug + Clone;

    /// The cookie identifying this descriptor while it is in flight.
    fn cookie(&self) -> u64;
}

impl RingDescriptor for Descriptor {
    type Pool = Option<Rc<crate::BufPool>>;

    fn cookie(&self) -> u64 {
        self.cookie
    }
}

impl RingDescriptor for UrbDescriptor {
    type Pool = Rc<SectorPool>;

    fn cookie(&self) -> u64 {
        self.cookie
    }
}

/// One noted post: where it went, and the shard's high-water mark
/// before the note (restored on cancel).
#[derive(Debug, Clone, Copy)]
struct Noted {
    shard: usize,
    hwm_before: u64,
}

/// The origin ledger: every in-flight cookie and its [`Noted`] record,
/// in an open-addressed table indexed by the cookie's own low bits —
/// no hashing, because cookies are minted by the drivers as slot
/// indices and sequence numbers (a uhci cookie's slot sits in its low
/// bits, its generation above), so consecutive cookies land in
/// consecutive slots. Any `u64` is a valid cookie: two that share their
/// low bits probe forward (linear probing), and a removal shifts the
/// probe run behind it back instead of leaving a tombstone, so a lookup
/// stops at the first empty slot. At least half the slots stay empty:
/// the table doubles when a note would fill more. It starts empty, so
/// it is sized by the most descriptors ever in flight at once.
#[derive(Debug, Default)]
struct Origins {
    /// A power of two long (or empty).
    slots: Vec<Option<(u64, Noted)>>,
    len: usize,
}

impl Origins {
    fn mask(&self) -> usize {
        self.slots.len().wrapping_sub(1)
    }

    /// The slot holding `cookie`, if it is in flight.
    fn find(&self, cookie: u64) -> Option<usize> {
        let mask = self.mask();
        let mut i = cookie as usize & mask;
        loop {
            match self.slots.get(i)? {
                Some((held, _)) if *held == cookie => return Some(i),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    fn get(&self, cookie: u64) -> Option<&Noted> {
        self.find(cookie)
            .and_then(|i| self.slots[i].as_ref())
            .map(|(_, n)| n)
    }

    /// Records `cookie`; `false`, recording nothing, if it is already in
    /// flight.
    fn insert(&mut self, cookie: u64, noted: Noted) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.mask();
        let mut i = cookie as usize & mask;
        while let Some((held, _)) = &self.slots[i] {
            if *held == cookie {
                return false;
            }
            i = (i + 1) & mask;
        }
        self.slots[i] = Some((cookie, noted));
        self.len += 1;
        true
    }

    /// Takes `cookie`'s record out, moving each later entry of its probe
    /// run back into the hole when the hole lies on that entry's path
    /// from its home slot.
    fn remove(&mut self, cookie: u64) -> Option<Noted> {
        let mut hole = self.find(cookie)?;
        let (_, noted) = self.slots[hole].take()?;
        self.len -= 1;
        let mask = self.mask();
        let mut next = (hole + 1) & mask;
        while let Some((held, _)) = self.slots[next] {
            let home = held as usize & mask;
            // Distance from home to `next` at least that from the hole:
            // the hole is on the probe path.
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[next].take();
                hole = next;
            }
            next = (next + 1) & mask;
        }
        Some(noted)
    }

    /// Doubles the table (eight slots the first time), re-placing every
    /// record.
    #[cold]
    fn grow(&mut self) {
        let slots = (2 * self.slots.len()).max(8);
        let old = std::mem::replace(&mut self.slots, vec![None; slots]);
        self.len = 0;
        for (cookie, noted) in old.into_iter().flatten() {
            self.insert(cookie, noted);
        }
    }
}

/// One shard's counters plus its in-flight count (denormalized from the
/// origin ledger so the per-shard conservation check is O(1)).
#[derive(Debug, Default, Clone, Copy)]
struct ShardLedger {
    stats: RingSetStats,
    in_flight: u64,
}

/// N parallel descriptor rings plus their completion rings, with
/// steering and completion steering.
///
/// Cookie discipline: a cookie identifies one in-flight descriptor. The
/// same cookie may be reused only after its previous incarnation has
/// been completed (device RX slots naturally satisfy this: a slot is
/// recycled only after its completion comes home; the uhci build draws
/// URB cookies from its completion slab — slot plus generation — so no
/// two in-flight URBs share one, across shards too).
#[derive(Debug)]
pub struct ShardedRings<D: RingDescriptor> {
    rings: Vec<Rc<ShmRing<D>>>,
    completions: Vec<Rc<ShmRing<D>>>,
    pool: D::Pool,
    /// Posting shard of every in-flight cookie, plus the shard's
    /// in-flight high-water mark *before* the note — what
    /// [`ShardedRings::cancel_post`] restores when the post the note
    /// announced never happened.
    origin: RefCell<Origins>,
    shards: RefCell<Vec<ShardLedger>>,
}

/// The NIC instantiation: per-shard TX (or RX) rings and completion
/// rings of frame [`Descriptor`]s, steered per flow.
pub type RingSet = ShardedRings<Descriptor>;

/// The storage instantiation: per-shard URB submit/giveback ring pairs
/// over one shared [`SectorPool`], steered per LUN.
pub type UrbRingSet = ShardedRings<UrbDescriptor>;

impl RingSet {
    /// Builds `shards` descriptor rings of `capacity` slots (named
    /// `{name}-{i}`) and completion rings of `completion_capacity`
    /// (named `{name}-done-{i}`).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(name: &str, shards: usize, capacity: usize, completion_capacity: usize) -> Rc<Self> {
        Self::with_pool(name, shards, capacity, completion_capacity, None)
    }
}

impl UrbRingSet {
    /// Builds `shards` submit rings of `capacity` slots (named
    /// `{name}-{i}`) and giveback rings of `giveback_capacity` (named
    /// `{name}-done-{i}`), all allocating out of `pool`.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(
        name: &str,
        shards: usize,
        capacity: usize,
        giveback_capacity: usize,
        pool: Rc<SectorPool>,
    ) -> Rc<Self> {
        Self::with_pool(name, shards, capacity, giveback_capacity, pool)
    }

    /// Shard `i`'s submit ring (requests, submitter → completer) —
    /// [`ShardedRings::ring`] in storage vocabulary.
    pub fn submit_ring(&self, shard: usize) -> &Rc<ShmRing<UrbDescriptor>> {
        self.ring(shard)
    }

    /// [`ShardedRings::note_post`] in storage vocabulary, for a caller
    /// that mints fresh cookies: a refused note is only counted
    /// ([`RingSetStats::refused`]). A caller that must see the refusal
    /// calls `note_post`.
    pub fn note_submit(&self, shard: usize, cookie: u64) {
        let _ = self.note_post(shard, cookie);
    }
}

impl<D: RingDescriptor> ShardedRings<D> {
    /// Builds `shards` descriptor rings of `capacity` slots (named
    /// `{name}-{i}`) and completion rings of `completion_capacity`
    /// (named `{name}-done-{i}`), over `pool`, the payload pool every
    /// data path on these rings draws from.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_pool(
        name: &str,
        shards: usize,
        capacity: usize,
        completion_capacity: usize,
        pool: D::Pool,
    ) -> Rc<Self> {
        assert!(shards > 0, "a ring set needs at least one shard");
        let rings = |suffix: &str, slots: usize| {
            (0..shards)
                .map(|i| Rc::new(ShmRing::new(format!("{name}{suffix}-{i}"), slots)))
                .collect()
        };
        Rc::new(ShardedRings {
            rings: rings("", capacity),
            completions: rings("-done", completion_capacity),
            pool,
            origin: RefCell::default(),
            shards: RefCell::new(vec![ShardLedger::default(); shards]),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// The payload pool every shard's data path draws from.
    pub fn pool(&self) -> &D::Pool {
        &self.pool
    }

    /// Shard `i`'s descriptor ring (producer → consumer).
    pub fn ring(&self, shard: usize) -> &Rc<ShmRing<D>> {
        &self.rings[shard]
    }

    /// Shard `i`'s completion ring (consumer → producer).
    pub fn completions(&self, shard: usize) -> &Rc<ShmRing<D>> {
        &self.completions[shard]
    }

    /// Maps a steering key (a flow, a LUN) to its shard. Deterministic:
    /// the same key always lands on the same ring, so per-key FIFO order
    /// is preserved while distinct keys spread.
    pub fn steer(&self, key: u64) -> usize {
        (flow_hash(key) % self.rings.len() as u64) as usize
    }

    /// Records that `cookie` was posted on `shard` without touching the
    /// ring — for producers that post through a higher-level path (an
    /// XPC `RingPath` holding the same ring `Rc`).
    /// Note first, [`ShardedRings::cancel_post`] if the post never
    /// happens: a synchronously-triggered consumer must be able to steer
    /// the completion home. A cookie already in flight is refused
    /// ([`RingSetError::InFlight`], counted in `shard`'s
    /// [`RingSetStats::refused`]) and changes nothing else.
    pub fn note_post(&self, shard: usize, cookie: u64) -> Result<(), RingSetError> {
        let mut shards = self.shards.borrow_mut();
        let s = &mut shards[shard];
        let hwm_before = s.stats.in_flight_hwm;
        if !self
            .origin
            .borrow_mut()
            .insert(cookie, Noted { shard, hwm_before })
        {
            s.stats.refused += 1;
            return Err(RingSetError::InFlight(cookie));
        }
        s.in_flight += 1;
        s.stats.posted += 1;
        s.stats.in_flight_hwm = s.stats.in_flight_hwm.max(s.in_flight);
        Ok(())
    }

    /// Cancels an origin record whose post failed after being noted.
    /// Conservation treats the descriptor as never posted, and the
    /// high-water mark is restored: a refused descriptor was never in
    /// flight, so a backpressured burst must not report a peak the ring
    /// could not even hold. The cancel must immediately follow its
    /// failed note (with at most completions in between — the
    /// forced-doorbell drain only ever *lowers* in-flight), which is the
    /// only way the note/cancel pair is used.
    pub fn cancel_post(&self, cookie: u64) {
        if let Some(noted) = self.origin.borrow_mut().remove(cookie) {
            let mut shards = self.shards.borrow_mut();
            let s = &mut shards[noted.shard];
            s.in_flight -= 1;
            s.stats.posted -= 1;
            s.stats.in_flight_hwm = s.stats.in_flight_hwm.min(noted.hwm_before.max(s.in_flight));
        }
    }

    /// Posts one descriptor directly onto `shard`'s ring and records its
    /// origin — noted first, so a cookie already in flight is refused
    /// before the ring is touched.
    pub fn post(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        shard: usize,
        desc: D,
    ) -> Result<(), RingSetError> {
        self.note_post(shard, desc.cookie())?;
        if let Err(RingError::Full) = self.rings[shard].push(kernel, class, desc) {
            self.cancel_post(desc.cookie());
            return Err(RingSetError::RingFull(shard));
        }
        kernel.trace_instant(
            "ring",
            "post",
            &[
                ("shard", shard as u64),
                ("occupancy", self.rings[shard].len() as u64),
            ],
        );
        Ok(())
    }

    /// Steers a finished descriptor home: pushes it onto the *posting*
    /// shard's completion ring and retires the origin record. Returns the
    /// shard the completion was routed to.
    pub fn complete(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        desc: D,
    ) -> Result<usize, RingSetError> {
        let cookie = desc.cookie();
        // One lookup: the record comes out here, and goes back if the
        // completion cannot land.
        let noted = self.origin.borrow_mut().remove(cookie);
        let noted = noted.ok_or(RingSetError::UnknownOrigin(cookie))?;
        let shard = noted.shard;
        match self.completions[shard].push(kernel, class, desc) {
            Ok(()) => {
                #[cfg(debug_assertions)]
                if mutation::take_double_complete() {
                    // Planted bug (oracle-sensitivity harness): the same
                    // completion lands on the home ring twice.
                    let _ = self.completions[shard].push(kernel, class, desc);
                }
                let mut shards = self.shards.borrow_mut();
                shards[shard].in_flight -= 1;
                shards[shard].stats.completed += 1;
                kernel.trace_instant("ring", "complete", &[("shard", shard as u64)]);
                Ok(shard)
            }
            Err(RingError::Full) => {
                self.origin.borrow_mut().insert(cookie, noted);
                Err(RingSetError::CompletionFull(shard))
            }
        }
    }

    /// Drains `shard`'s completion ring (the producer reclaiming its
    /// handed-back descriptors, oldest first).
    pub fn reclaim(&self, kernel: &Kernel, class: CpuClass, shard: usize) -> Vec<D> {
        let mut done = Vec::new();
        self.completions[shard].drain(kernel, class, &mut done);
        if !done.is_empty() {
            kernel.trace_instant(
                "ring",
                "reclaim",
                &[("shard", shard as u64), ("completions", done.len() as u64)],
            );
        }
        done
    }

    /// Descriptors posted but not yet completed, across all shards.
    pub fn in_flight(&self) -> usize {
        self.origin.borrow().len
    }

    /// Descriptors in flight on one shard.
    pub fn shard_in_flight(&self, shard: usize) -> u64 {
        self.shards.borrow()[shard].in_flight
    }

    /// The posting shard of an in-flight cookie.
    pub fn origin_of(&self, cookie: u64) -> Option<usize> {
        self.origin.borrow().get(cookie).map(|n| n.shard)
    }

    /// One shard's conservation counters.
    pub fn shard_stats(&self, shard: usize) -> RingSetStats {
        self.shards.borrow()[shard].stats
    }

    /// Merged counters: sums across shards, max for high-water marks.
    pub fn stats(&self) -> RingSetStats {
        let mut total = RingSetStats::default();
        for s in self.shards.borrow().iter() {
            total.merge(&s.stats);
        }
        total
    }

    /// Per-shard conservation: every descriptor ever posted on `shard`
    /// is either completed (home) or still in flight there.
    pub fn shard_conserved(&self, shard: usize) -> bool {
        let s = self.shards.borrow()[shard];
        s.stats.posted == s.stats.completed + s.in_flight
    }

    /// The full conservation invariant: every shard conserves — none
    /// lost, none double-completed — and the origin ledger agrees with
    /// the denormalized per-shard counts.
    pub fn conserved(&self) -> bool {
        let per_shard_sum: u64 = self.shards.borrow().iter().map(|s| s.in_flight).sum();
        per_shard_sum == self.in_flight() as u64
            && (0..self.shards()).all(|i| self.shard_conserved(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufHandle;

    fn desc(cookie: u64) -> Descriptor {
        Descriptor {
            buf: BufHandle(cookie as u32),
            len: 64,
            cookie,
        }
    }

    /// Everything posted on `ring`, popped as the consumer.
    fn drained<D: Copy + Default>(ring: &ShmRing<D>, k: &Kernel) -> Vec<D> {
        let mut out = Vec::new();
        ring.drain(k, CpuClass::User, &mut out);
        out
    }

    #[test]
    fn flow_steering_is_deterministic_and_spreads() {
        let set = RingSet::new("tx", 4, 8, 16);
        let mut hits = [0u32; 4];
        for flow in 0..256u64 {
            let a = set.steer(flow);
            let b = set.steer(flow);
            assert_eq!(a, b, "same flow, same shard");
            hits[a] += 1;
        }
        for (shard, h) in hits.iter().enumerate() {
            assert!(*h > 32, "shard {shard} starved: {hits:?}");
        }
    }

    #[test]
    fn completions_steer_to_the_posting_shard() {
        let k = Kernel::new();
        let set = RingSet::new("tx", 3, 8, 16);
        for cookie in 0..9u64 {
            let shard = set.steer(cookie);
            set.post(&k, CpuClass::Kernel, shard, desc(cookie)).unwrap();
        }
        // A consumer drains every ring (order immaterial), completing
        // each descriptor; the completion must come home.
        for shard in 0..3 {
            for d in drained(set.ring(shard), &k) {
                let home = set.complete(&k, CpuClass::User, d).unwrap();
                assert_eq!(home, shard, "cookie {} steered astray", d.cookie);
            }
        }
        for shard in 0..3 {
            for d in set.reclaim(&k, CpuClass::Kernel, shard) {
                assert_eq!(set.steer(d.cookie), shard);
            }
        }
        assert!(set.conserved());
        assert_eq!(set.in_flight(), 0);
        assert_eq!(set.stats().posted, 9);
        assert_eq!(set.stats().completed, 9);
    }

    #[test]
    fn unknown_origin_rejected() {
        let k = Kernel::new();
        let set = RingSet::new("tx", 2, 4, 8);
        assert_eq!(
            set.complete(&k, CpuClass::Kernel, desc(7)),
            Err(RingSetError::UnknownOrigin(7))
        );
        // Double completion is also a conservation violation.
        set.post(&k, CpuClass::Kernel, 0, desc(1)).unwrap();
        drained(set.ring(0), &k);
        set.complete(&k, CpuClass::User, desc(1)).unwrap();
        assert_eq!(
            set.complete(&k, CpuClass::User, desc(1)),
            Err(RingSetError::UnknownOrigin(1))
        );
        assert!(set.conserved());
    }

    #[test]
    fn a_completion_that_cannot_land_stays_in_flight() {
        // `complete` takes the origin record out before the push; a full
        // completion ring must put it back, or the descriptor would leave
        // the ledger without landing and its retry be refused as unknown.
        let k = Kernel::new();
        let set = RingSet::new("tx", 2, 4, 2);
        for cookie in 0..3 {
            set.post(&k, CpuClass::Kernel, 1, desc(cookie)).unwrap();
        }
        drained(set.ring(1), &k);
        set.complete(&k, CpuClass::User, desc(0)).unwrap();
        set.complete(&k, CpuClass::User, desc(1)).unwrap();
        assert_eq!(
            set.complete(&k, CpuClass::User, desc(2)),
            Err(RingSetError::CompletionFull(1))
        );
        assert_eq!(set.origin_of(2), Some(1));
        assert_eq!((set.in_flight(), set.shard_in_flight(1)), (1, 1));
        assert!(set.conserved());
        assert_eq!(set.reclaim(&k, CpuClass::Kernel, 1).len(), 2);
        assert_eq!(set.complete(&k, CpuClass::User, desc(2)), Ok(1));
        assert_eq!(set.in_flight(), 0);
        assert_eq!(set.stats().completed, 3);
        assert!(set.conserved());
    }

    #[test]
    fn cookie_reuse_after_completion_is_legal() {
        // RX slots recycle their cookies once the completion came home.
        let k = Kernel::new();
        let set = RingSet::new("rx", 2, 4, 8);
        for round in 0..3 {
            set.post(&k, CpuClass::Kernel, 1, desc(5)).unwrap();
            drained(set.ring(1), &k);
            assert_eq!(set.complete(&k, CpuClass::User, desc(5)).unwrap(), 1);
            assert_eq!(
                set.reclaim(&k, CpuClass::Kernel, 1).len(),
                1,
                "round {round}"
            );
        }
        assert_eq!(set.stats().posted, 3);
        assert!(set.conserved());
    }

    #[test]
    fn cancel_post_unwinds_a_noted_origin() {
        let k = Kernel::new();
        let set = RingSet::new("tx", 2, 4, 8);
        // note-first producer pattern: the post never happens.
        set.note_post(1, 9).unwrap();
        assert_eq!(set.in_flight(), 1);
        set.cancel_post(9);
        assert_eq!(set.in_flight(), 0);
        assert_eq!(set.stats().posted, 0);
        assert!(set.conserved());
        // Cancelling an already-completed (or unknown) cookie is a no-op.
        set.post(&k, CpuClass::Kernel, 0, desc(1)).unwrap();
        drained(set.ring(0), &k);
        set.complete(&k, CpuClass::User, desc(1)).unwrap();
        set.cancel_post(1);
        assert_eq!(set.stats().posted, 1);
        assert!(set.conserved());
    }

    #[test]
    fn cancelled_post_does_not_inflate_the_high_water_mark() {
        // Regression: the NIC set's cancel used to leave `in_flight_hwm`
        // at a peak that never held a descriptor (the URB set had the
        // restore; its sibling never got it). A sharded xmit whose send
        // is refused notes, then cancels.
        let k = Kernel::new();
        let set = RingSet::new("tx", 2, 4, 8);
        set.note_post(0, 7).unwrap();
        set.cancel_post(7);
        assert_eq!(set.shard_stats(0).in_flight_hwm, 0, "phantom peak recorded");
        // A real peak of two…
        set.post(&k, CpuClass::Kernel, 0, desc(0)).unwrap();
        set.post(&k, CpuClass::Kernel, 0, desc(1)).unwrap();
        assert_eq!(set.stats().in_flight_hwm, 2);
        set.note_post(0, 2).unwrap();
        set.cancel_post(2);
        assert_eq!(set.stats().in_flight_hwm, 2, "phantom peak recorded");
        // …survives a refused post after the ring has drained to zero.
        for d in drained(set.ring(0), &k) {
            set.complete(&k, CpuClass::User, d).unwrap();
        }
        assert_eq!(set.shard_in_flight(0), 0);
        set.note_post(0, 3).unwrap();
        set.cancel_post(3);
        assert_eq!(set.stats().in_flight_hwm, 2, "legitimate peak erased");
        assert!(set.conserved());
    }

    #[test]
    fn full_shard_ring_applies_backpressure() {
        let k = Kernel::new();
        let set = RingSet::new("tx", 2, 1, 2);
        set.post(&k, CpuClass::Kernel, 0, desc(0)).unwrap();
        assert_eq!(
            set.post(&k, CpuClass::Kernel, 0, desc(1)),
            Err(RingSetError::RingFull(0))
        );
        // The refused post must not count toward conservation.
        assert_eq!(set.stats().posted, 1);
        assert!(set.conserved());
    }
}
