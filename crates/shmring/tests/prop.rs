//! Property-based tests for the shmring subsystem: the ring against a
//! queue model (wrap-around, backpressure, ownership handback), the
//! pool against an allocation model (out-of-order completion reclaim),
//! and the sector pool against an interval model (variable-length runs
//! never alias, conservation counters survive arbitrary interleavings).

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use decaf_shmring::{
    AllocMode, BufHandle, BufPool, Descriptor, PoolError, RingError, SectorHandle, SectorPool,
    SgHandle, SgSegment, ShmRing, UrbDescriptor, UrbRingSet,
};
use decaf_simkernel::{CpuClass, Kernel};
use proptest::prelude::*;

fn desc(n: u32) -> Descriptor {
    Descriptor {
        buf: BufHandle(n),
        len: n.wrapping_mul(7) & 0x7ff,
        cookie: n as u64,
    }
}

/// Everything posted on `ring`, popped as the consumer.
fn drained<D: Copy + Default>(ring: &ShmRing<D>, k: &Kernel) -> Vec<D> {
    let mut out = Vec::new();
    ring.drain(k, CpuClass::User, &mut out);
    out
}

proptest! {
    /// Any interleaving of pushes and pops behaves exactly like a bounded
    /// FIFO: order preserved across wrap-around, fullness refused with
    /// backpressure, emptiness returns `None`.
    #[test]
    fn ring_behaves_like_bounded_fifo(
        capacity in 1usize..9,
        ops in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let k = Kernel::new();
        let ring = ShmRing::new("prop", capacity);
        let mut model: VecDeque<Descriptor> = VecDeque::new();
        let mut seq = 0u32;
        let mut refused = 0u64;
        for op in ops {
            // Bias 2:1 toward pushes so the ring wraps and fills often.
            if op % 3 != 0 {
                let d = desc(seq);
                seq += 1;
                match ring.push(&k, CpuClass::Kernel, d) {
                    Ok(()) => {
                        prop_assert!(model.len() < capacity);
                        model.push_back(d);
                    }
                    Err(RingError::Full) => {
                        refused += 1;
                        prop_assert_eq!(model.len(), capacity, "refused only when full");
                    }
                }
            } else {
                let got = ring.pop(&k, CpuClass::User);
                prop_assert_eq!(got, model.pop_front(), "FIFO order across wrap-around");
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.is_full(), model.len() == capacity);
        }
        let stats = ring.stats();
        prop_assert_eq!(stats.backpressure, refused);
        prop_assert_eq!(stats.posts - stats.pops, model.len() as u64);
        prop_assert!(stats.occupancy_hwm as usize <= capacity);
    }

    /// Ownership handback: every slot a consumer drains becomes writable
    /// again, so after any history the producer can always post exactly
    /// `capacity - len` more descriptors before hitting backpressure.
    #[test]
    fn drained_slots_are_reusable(
        capacity in 1usize..7,
        rounds in 1usize..12,
    ) {
        let k = Kernel::new();
        let ring = ShmRing::new("prop", capacity);
        let mut seq = 0u32;
        for _ in 0..rounds {
            while ring.push(&k, CpuClass::Kernel, desc(seq)).is_ok() {
                seq += 1;
            }
            prop_assert!(ring.is_full());
            let drained = drained(&ring, &k);
            prop_assert_eq!(drained.len(), capacity, "full ring drains completely");
            prop_assert!(ring.is_empty(), "every slot handed back");
        }
        prop_assert_eq!(ring.stats().posts, seq as u64);
    }

    /// Out-of-order completion reclaim: buffers freed in an arbitrary
    /// order (devices complete out of order) are all reusable, handles
    /// stay distinct, and double frees are always rejected.
    #[test]
    fn pool_reclaims_out_of_order(
        count in 1usize..17,
        shuffle in proptest::collection::vec(any::<u16>(), 1..17),
    ) {
        let pool = BufPool::with_capacity(64, count);
        let mut held: Vec<BufHandle> = (0..count).map(|_| pool.alloc().unwrap()).collect();
        prop_assert_eq!(pool.alloc(), Err(PoolError::Exhausted));
        // Free in an order driven by the random shuffle keys.
        for (i, key) in shuffle.iter().enumerate() {
            if held.is_empty() {
                break;
            }
            let victim = held.remove((*key as usize + i) % held.len());
            pool.free(victim).unwrap();
            prop_assert_eq!(pool.free(victim), Err(PoolError::NotAllocated(victim.0)));
        }
        let freed = count - held.len();
        prop_assert_eq!(pool.available(), freed);
        // Everything freed is allocatable again, with distinct handles.
        let mut again: Vec<u32> = (0..freed).map(|_| pool.alloc().unwrap().0).collect();
        again.sort_unstable();
        again.dedup();
        prop_assert_eq!(again.len(), freed, "reallocated handles are distinct");
    }

    /// Arbitrary alloc/free interleavings of variable-length transfers:
    /// live sector runs never alias, and the conservation counters hold
    /// under out-of-order reclaim at every step.
    #[test]
    fn sector_runs_never_alias_and_conserve(
        ops in proptest::collection::vec(any::<u16>(), 1..200),
    ) {
        const SECTOR: usize = 64;
        const COUNT: usize = 16;
        let pool = SectorPool::with_capacity(SECTOR, COUNT);
        // Live runs as (handle, byte offset, byte length).
        let mut live: Vec<(SectorHandle, usize, usize)> = Vec::new();
        for op in ops {
            // Bias 3:2 toward allocs so the map fragments and refills;
            // lengths span sub-sector to multi-sector transfers.
            if op % 5 < 3 {
                let len = 1 + (op as usize * 37) % (4 * SECTOR);
                match pool.alloc(len) {
                    Ok(h) => {
                        let off = pool.offset_of(h).unwrap();
                        let bytes = pool.run_sectors(h).unwrap() * SECTOR;
                        prop_assert!(bytes >= len, "run covers the transfer");
                        for &(_, o, b) in &live {
                            prop_assert!(
                                off + bytes <= o || o + b <= off,
                                "run [{off}, {}) aliases live run [{o}, {})",
                                off + bytes,
                                o + b
                            );
                        }
                        live.push((h, off, bytes));
                    }
                    Err(PoolError::Exhausted) => {
                        // Legal whenever no contiguous hole fits; never
                        // legal with an empty pool and a fitting length.
                        prop_assert!(
                            !live.is_empty() || len > SECTOR * COUNT,
                            "empty pool refused a fitting alloc"
                        );
                    }
                    Err(e) => prop_assert!(false, "unexpected alloc error: {e}"),
                }
            } else if !live.is_empty() {
                // Out-of-order reclaim: free a pseudo-random live run.
                let (h, _, _) = live.remove(op as usize % live.len());
                pool.free(h).unwrap();
                prop_assert_eq!(pool.free(h), Err(PoolError::NotAllocated(h.0)));
            }
            // Conservation holds at every step, not just at quiescence.
            prop_assert!(pool.conserved(), "conservation broke mid-history");
            let in_use: usize = live.iter().map(|&(_, _, b)| b / SECTOR).sum();
            prop_assert_eq!(pool.in_use_sectors(), in_use);
            prop_assert_eq!(pool.live_runs(), live.len());
        }
        // Draining everything returns the pool to pristine capacity.
        for (h, _, _) in live.drain(..) {
            pool.free(h).unwrap();
        }
        prop_assert_eq!(pool.available_sectors(), COUNT);
        prop_assert!(pool.conserved());
        let s = pool.stats();
        prop_assert_eq!(s.sectors_allocated, s.sectors_reclaimed);
    }

    /// Adopted payloads survive the handoff bit-for-bit, in place: no
    /// audited copy is ever charged on the sector path, whatever the
    /// interleaving of writes and reads.
    #[test]
    fn adopted_payloads_survive_without_copies(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..200), 1..8),
    ) {
        let k = Kernel::new();
        let pool = SectorPool::with_capacity(64, 32);
        let runs: Vec<_> = payloads
            .iter()
            .map(|p| {
                let h = pool.alloc(p.len()).unwrap();
                pool.adopt_payload(&k, p, h).unwrap();
                h
            })
            .collect();
        // Reads in arbitrary (reverse) order see exactly what was
        // adopted; nothing ever hits the copy audit.
        for (h, p) in runs.iter().zip(&payloads).rev() {
            prop_assert_eq!(&pool.read_payload(*h, p.len()).unwrap(), p);
            pool.free(*h).unwrap();
        }
        prop_assert_eq!(k.stats().bytes_copied, 0, "adoption and in-place reads");
        prop_assert!(pool.conserved());
    }

    /// One sector pool under *concurrent multi-shard* traffic: several
    /// shards allocate, adopt and reclaim out of the same pool in an
    /// arbitrary interleaving. Conservation holds at every step, live
    /// runs never alias across shards, adopted payloads survive
    /// bit-for-bit, and nothing is ever CPU-copied.
    #[test]
    fn sector_pool_survives_multi_shard_interleavings(
        shards in 2usize..5,
        ops in proptest::collection::vec(any::<u16>(), 1..150),
    ) {
        const SECTOR: usize = 64;
        const COUNT: usize = 20;
        let k = Kernel::new();
        let pool = SectorPool::with_capacity(SECTOR, COUNT);
        // Per-shard live runs: (handle, offset, run bytes, payload).
        type LiveRun = (SectorHandle, usize, usize, Vec<u8>);
        let mut live: Vec<Vec<LiveRun>> = vec![Vec::new(); shards];
        for (step, op) in ops.iter().enumerate() {
            let shard = (*op as usize) % shards;
            if op % 5 < 3 {
                let len = 1 + (*op as usize * 37 + step) % (3 * SECTOR);
                let payload: Vec<u8> = (0..len)
                    .map(|i| (shard as u8) ^ (i as u8).wrapping_mul(17))
                    .collect();
                match pool.alloc(len) {
                    Ok(h) => {
                        pool.adopt_payload(&k, &payload, h).unwrap();
                        let off = pool.offset_of(h).unwrap();
                        let bytes = pool.run_sectors(h).unwrap() * SECTOR;
                        // Alias freedom across *all* shards' live runs.
                        for runs in &live {
                            for &(_, o, b, _) in runs {
                                prop_assert!(
                                    off + bytes <= o || o + b <= off,
                                    "shard {shard}: run [{off}, {}) aliases [{o}, {})",
                                    off + bytes,
                                    o + b
                                );
                            }
                        }
                        live[shard].push((h, off, bytes, payload));
                    }
                    Err(PoolError::Exhausted) => {
                        let in_use: usize = live.iter().flatten().count();
                        prop_assert!(in_use > 0, "empty pool refused a fitting alloc");
                    }
                    Err(e) => prop_assert!(false, "unexpected alloc error: {e}"),
                }
            } else if !live[shard].is_empty() {
                // Out-of-order reclaim on the acting shard.
                let idx = (*op as usize / 5) % live[shard].len();
                let (h, _, _, payload) = live[shard].remove(idx);
                prop_assert_eq!(
                    pool.read_payload(h, payload.len()).unwrap(),
                    payload,
                    "shard {}'s payload corrupted by its siblings", shard
                );
                pool.free(h).unwrap();
            }
            prop_assert!(pool.conserved(), "conservation broke mid-history");
            let in_use: usize = live.iter().flatten().map(|&(_, _, b, _)| b / SECTOR).sum();
            prop_assert_eq!(pool.in_use_sectors(), in_use);
        }
        for runs in &mut live {
            for (h, _, _, _) in runs.drain(..) {
                pool.free(h).unwrap();
            }
        }
        prop_assert!(pool.conserved());
        prop_assert_eq!(pool.available_sectors(), COUNT);
        prop_assert_eq!(k.stats().bytes_copied, 0, "adoption never copies");
    }

    /// UrbRingSet completion-steering round trips: URBs submitted on
    /// arbitrary shards, completed by a consumer draining shards in an
    /// arbitrary order, always come home to the submitting shard; the
    /// per-shard conservation counters balance after any history.
    #[test]
    fn urb_ring_set_completions_always_come_home(
        shards in 1usize..5,
        ops in proptest::collection::vec(any::<u16>(), 1..120),
    ) {
        let k = Kernel::new();
        let pool = Rc::new(SectorPool::with_capacity(64, 64));
        let set = UrbRingSet::new("prop", shards, 64, 128, pool);
        let mut submitted_by: HashMap<u64, usize> = HashMap::new();
        let mut next_cookie = 0u64;
        let mut reclaimed = vec![0u64; shards];
        for op in &ops {
            match op % 3 {
                // Submit on the op-selected shard (bounded in flight by
                // the pool; skip when exhausted — that path is the
                // backpressure suite's business).
                0 | 1 => {
                    let shard = (*op as usize / 3) % shards;
                    if let Ok(run) = set.pool().alloc_sg(64) {
                        let cookie = next_cookie;
                        next_cookie += 1;
                        set.submit_ring(shard)
                            .push(
                                &k,
                                CpuClass::Kernel,
                                UrbDescriptor::request_out(run, 64, 2, cookie),
                            )
                            .unwrap();
                        set.note_submit(shard, cookie);
                        submitted_by.insert(cookie, shard);
                    }
                }
                // Complete: drain an arbitrary victim shard's submit
                // ring; every giveback must steer home.
                _ => {
                    let victim = (*op as usize / 7) % shards;
                    for d in drained(set.submit_ring(victim), &k) {
                        let home = set
                            .complete(&k, CpuClass::User, d.completed(0, d.len))
                            .unwrap();
                        prop_assert_eq!(home, submitted_by[&d.cookie]);
                        prop_assert_eq!(home, victim, "submit rings are per shard");
                    }
                    // And reclaim whatever has come home on that shard.
                    for d in set.reclaim(&k, CpuClass::Kernel, victim) {
                        prop_assert_eq!(submitted_by[&d.cookie], victim);
                        set.pool().free_sg(d.buf).unwrap();
                        reclaimed[victim] += 1;
                    }
                }
            }
            prop_assert!(set.conserved(), "mid-history conservation");
        }
        // Quiesce.
        for (shard, count) in reclaimed.iter_mut().enumerate() {
            for d in drained(set.submit_ring(shard), &k) {
                let home = set.complete(&k, CpuClass::User, d.completed(0, d.len)).unwrap();
                prop_assert_eq!(home, shard);
            }
            for d in set.reclaim(&k, CpuClass::Kernel, shard) {
                prop_assert_eq!(submitted_by[&d.cookie], shard);
                set.pool().free_sg(d.buf).unwrap();
                *count += 1;
            }
        }
        prop_assert_eq!(set.in_flight(), 0);
        for (shard, &count) in reclaimed.iter().enumerate() {
            prop_assert!(set.shard_conserved(shard), "shard {} not conserved", shard);
            prop_assert_eq!(count, set.shard_stats(shard).posted);
            prop_assert_eq!(
                set.shard_stats(shard).completed,
                set.shard_stats(shard).posted
            );
        }
        prop_assert!(set.pool().conserved());
        prop_assert_eq!(set.pool().in_use_sectors(), 0);
    }

    /// A descriptor round trip through ring + pool preserves the payload
    /// bytes and charges exactly one audited copy per payload.
    #[test]
    fn payload_survives_ring_handoff(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..8),
    ) {
        let k = Kernel::new();
        let ring = ShmRing::new("prop", 8);
        let pool = BufPool::with_capacity(64, 8);
        let mut expected_bytes = 0u64;
        for (i, payload) in payloads.iter().enumerate() {
            let h = pool.alloc().unwrap();
            pool.write_payload(&k, CpuClass::Kernel, h, payload).unwrap();
            expected_bytes += payload.len() as u64;
            ring.push(&k, CpuClass::Kernel, Descriptor {
                buf: h,
                len: payload.len() as u32,
                cookie: i as u64,
            }).unwrap();
        }
        prop_assert_eq!(k.stats().bytes_copied, expected_bytes, "one copy per payload");
        for (i, payload) in payloads.iter().enumerate() {
            let d = ring.pop(&k, CpuClass::User).unwrap();
            prop_assert_eq!(d.cookie, i as u64);
            prop_assert_eq!(&pool.read_payload(d.buf, d.len as usize).unwrap(), payload);
            pool.free(d.buf).unwrap();
        }
        prop_assert_eq!(k.stats().bytes_copied, expected_bytes, "reads are in place");
    }

    /// Scatter-gather chains under adversarial alloc/free interleavings:
    /// no byte of any live chain ever aliases another chain, the
    /// conservation counters hold at every step, and draining everything
    /// returns the pool to pristine capacity.
    #[test]
    fn sg_chains_never_alias_and_conserve(
        ops in proptest::collection::vec(any::<u16>(), 1..200),
    ) {
        const SECTOR: usize = 64;
        const COUNT: usize = 16;
        let pool = SectorPool::with_capacity(SECTOR, COUNT);
        // Live chains as (handle, requested bytes, segments).
        let mut live: Vec<(SgHandle, usize, Vec<SgSegment>)> = Vec::new();
        // Freed handles. Their slots go to later chains (the handle is
        // the slot), so each stays a forgery the pool must refuse.
        let mut dead: Vec<SgHandle> = Vec::new();
        for op in ops {
            if op % 5 < 3 {
                let len = 1 + (op as usize * 37) % (4 * SECTOR);
                match pool.alloc_sg(len) {
                    Ok(h) => {
                        let segs = pool.sg_segments(h).unwrap();
                        let cap: usize = segs.iter().map(|s| s.bytes).sum();
                        prop_assert!(cap >= len, "chain covers the transfer");
                        for s in segs.iter() {
                            for (_, _, other) in &live {
                                for o in other.iter() {
                                    prop_assert!(
                                        s.offset + s.bytes <= o.offset
                                            || o.offset + o.bytes <= s.offset,
                                        "segment [{}, {}) aliases live [{}, {})",
                                        s.offset,
                                        s.offset + s.bytes,
                                        o.offset,
                                        o.offset + o.bytes
                                    );
                                }
                            }
                        }
                        live.push((h, len, segs));
                    }
                    Err(PoolError::Exhausted) => {
                        // Scatter-gather refuses only on true exhaustion:
                        // more sectors requested than are free at all.
                        prop_assert!(
                            len.div_ceil(SECTOR) > pool.available_sectors(),
                            "SG refused a transfer it had the bytes for"
                        );
                    }
                    Err(e) => prop_assert!(false, "unexpected alloc error: {e}"),
                }
            } else if !live.is_empty() {
                let (h, _, _) = live.remove(op as usize % live.len());
                pool.free_sg(h).unwrap();
                prop_assert_eq!(pool.free_sg(h), Err(PoolError::NotAllocated(h.0)));
                dead.push(h);
            }
            // A stale handle whose slot now holds another chain reads as
            // not allocated from every accessor — never as that chain.
            for &d in &dead {
                let gone = Some(PoolError::NotAllocated(d.0));
                prop_assert_eq!(pool.sg_segments(d).err(), gone);
                prop_assert_eq!(pool.sg_capacity(d).err(), gone);
                prop_assert_eq!(pool.read_payload_sg(d, 0).err(), gone);
                prop_assert_eq!(pool.free_sg(d).err(), gone);
            }
            prop_assert!(pool.conserved(), "conservation broke mid-history");
            let in_use: usize =
                live.iter().map(|(_, _, s)| s.iter().map(|x| x.bytes).sum::<usize>()).sum();
            prop_assert_eq!(pool.in_use_sectors() * SECTOR, in_use);
            prop_assert_eq!(
                pool.in_use_sectors() + pool.available_sectors(),
                pool.capacity_sectors(),
                "the occupancy counter and its complement cover the pool"
            );
            prop_assert_eq!(pool.live_chains(), live.len());
            // The chain store: what a chain resolved to at allocation is
            // what it reads as now, whatever came and went in between.
            for (h, _, segs) in &live {
                prop_assert_eq!(&pool.sg_segments(*h).unwrap()[..], &segs[..]);
            }
        }
        for (h, _, _) in live.drain(..) {
            pool.free_sg(h).unwrap();
        }
        prop_assert_eq!(pool.available_sectors(), COUNT);
        prop_assert!(pool.conserved());
        let s = pool.stats();
        prop_assert_eq!(s.sectors_allocated, s.sectors_reclaimed);
        prop_assert_eq!(s.frag_refusals, 0, "buddy+SG never frag-refuses");
    }

    /// Buddy merge correctness: after any alloc/free history drains,
    /// splits have re-merged all the way back to the canonical free-list
    /// decomposition a fresh pool starts with — fragmentation leaves no
    /// permanent scars. Exercised over a non-power-of-two pool so the
    /// multi-block canonical decomposition is the target, not `[(0, N)]`.
    #[test]
    fn buddy_merge_restores_canonical_free_extents(
        count in 5usize..24,
        ops in proptest::collection::vec(any::<u16>(), 1..150),
    ) {
        const SECTOR: usize = 64;
        let pool = SectorPool::with_capacity(SECTOR, count);
        let canonical = SectorPool::with_capacity(SECTOR, count).free_extents();
        let mut live: Vec<SgHandle> = Vec::new();
        for op in ops {
            if op % 5 < 3 {
                let len = 1 + (op as usize * 53) % (3 * SECTOR);
                if let Ok(h) = pool.alloc_sg(len) {
                    live.push(h);
                }
            } else if !live.is_empty() {
                let h = live.remove(op as usize % live.len());
                pool.free_sg(h).unwrap();
            }
        }
        for h in live.drain(..) {
            pool.free_sg(h).unwrap();
        }
        prop_assert_eq!(
            pool.free_extents(),
            canonical,
            "drained pool's free lists differ from a fresh pool's"
        );
        prop_assert!(pool.conserved());
    }

    /// The completeness property, with the first-fit scan replaying the
    /// same adversarial schedule as the incompleteness oracle: the
    /// buddy+SG pool refuses only when the requested sectors outnumber
    /// the free ones, while every first-fit refusal is correctly split
    /// between fragmentation (free bytes sufficed) and true exhaustion.
    #[test]
    fn buddy_sg_is_complete_where_first_fit_fragments(
        ops in proptest::collection::vec(any::<u16>(), 1..200),
    ) {
        const SECTOR: usize = 64;
        const COUNT: usize = 16;
        let sg = SectorPool::with_capacity_mode(SECTOR, COUNT, AllocMode::BuddySg);
        let ff = SectorPool::with_capacity_mode(SECTOR, COUNT, AllocMode::FirstFit);
        let mut live_sg: Vec<SgHandle> = Vec::new();
        let mut live_ff: Vec<SectorHandle> = Vec::new();
        for op in ops {
            if op % 5 < 3 {
                let len = 1 + (op as usize * 37) % (4 * SECTOR);
                let need = len.div_ceil(SECTOR);
                match sg.alloc_sg(len) {
                    Ok(h) => live_sg.push(h),
                    Err(PoolError::Exhausted) => prop_assert!(
                        need > sg.available_sectors(),
                        "buddy+SG refused {need} sectors with {} free",
                        sg.available_sectors()
                    ),
                    Err(e) => prop_assert!(false, "unexpected alloc error: {e}"),
                }
                let before = ff.stats();
                match ff.alloc(len) {
                    Ok(h) => live_ff.push(h),
                    Err(PoolError::Exhausted) => {
                        let after = ff.stats();
                        if need <= ff.available_sectors() {
                            prop_assert_eq!(
                                after.frag_refusals, before.frag_refusals + 1,
                                "refusal with free bytes must count as fragmentation"
                            );
                        } else {
                            prop_assert_eq!(
                                after.exhausted, before.exhausted + 1,
                                "refusal without free bytes must count as exhaustion"
                            );
                        }
                    }
                    Err(e) => prop_assert!(false, "unexpected alloc error: {e}"),
                }
            } else {
                // Mirror the free schedule on both pools, each against
                // its own live set (their histories legally diverge once
                // first-fit starts refusing).
                if !live_sg.is_empty() {
                    let h = live_sg.remove(op as usize % live_sg.len());
                    sg.free_sg(h).unwrap();
                }
                if !live_ff.is_empty() {
                    let h = live_ff.remove(op as usize % live_ff.len());
                    ff.free(h).unwrap();
                }
            }
            prop_assert!(sg.conserved() && ff.conserved());
        }
        prop_assert_eq!(sg.stats().frag_refusals, 0, "completeness: no frag refusals");
    }
}
