//! Deterministic schedule exploration for the sharded XPC layer.
//!
//! A sharded channel's invariants must hold under *every* ordering of
//! per-shard work, not just the one a happy-path test happens to
//! produce. This harness enumerates interleavings of 2–4 shards'
//! op streams exhaustively (lexicographic multiset permutations — no
//! randomness, every run identical) and replays each schedule against a
//! fresh kernel at deterministic virtual-time offsets, asserting:
//!
//! * **home-channel pinning** — after any schedule, every shared object
//!   has crossed on exactly one shard (its home): no object is dirtied
//!   or delta-encoded on two shards in one generation, and shards that
//!   home no touched object marshaled no objects at all;
//! * **descriptor conservation under completion steering** — every
//!   descriptor posted into a [`RingSet`] is eventually completed back
//!   to the shard that posted it, none lost, none duplicated, regardless
//!   of how producer and consumer steps interleave;
//! * **completion-token lifecycle** — on the async transport, every
//!   token a schedule launches is harvested exactly once (never lost,
//!   never double-resolved) and the ledger `tokens_issued ==
//!   tokens_harvested + tokens_cancelled` closes, including across a
//!   mid-schedule `recover_shard`.

use std::any::Any;
use std::cell::RefMut;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use decaf_core::drivers::ringnic::RingSplit;
use decaf_core::drivers::{install, Build, DriverKind, Hosting, Loaded};
use decaf_core::sched::{
    self, fault_sweep, interleavings, interleavings_spread, schedule_sweep, FaultPlan, SweepConfig,
};
use decaf_core::simdev::Rtl8139Device;

#[path = "fault_harness/mod.rs"]
mod fault_harness;
use decaf_core::shmring::{BufHandle, Descriptor, RingSet, ShmRing};
use decaf_core::simkernel::kernel::WorkBody;
use decaf_core::simkernel::{CpuClass, Kernel};
use decaf_core::xdr::mask::MaskSet;
use decaf_core::xdr::{XdrSpec, XdrValue};
use decaf_core::xpc::{ChannelConfig, Domain, ProcDef, ShardedChannel};

/// Everything posted on `ring`, popped as the consumer.
fn drained<D: Copy + Default>(ring: &ShmRing<D>, k: &Kernel) -> Vec<D> {
    let mut out = Vec::new();
    ring.drain(k, CpuClass::User, &mut out);
    out
}

fn spec() -> XdrSpec {
    XdrSpec::parse("struct st { int id; int value; };").unwrap()
}

/// Replays one schedule against a sharded channel: step t runs the next
/// op of shard `schedule[t]` (dirty the shard's homed object, then call
/// through the facade), with virtual time advancing by a
/// schedule-dependent amount between steps so the adaptive-batching
/// deadlines interleave differently per schedule.
fn run_home_pinning(shards: usize, schedule: &[usize]) {
    let kernel = Kernel::new();
    let sc = ShardedChannel::new(
        spec(),
        MaskSet::full(),
        ChannelConfig::kernel_user_batched(),
        Domain::Nucleus,
        Domain::Decaf,
        shards,
    );
    sc.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "touch".into(),
            arg_types: vec!["st".into()],
            handler: Rc::new(|_, _, _, _| XdrValue::Void),
        },
    )
    .unwrap();
    let objects: Vec<_> = (0..shards)
        .map(|i| {
            let addr = sc.alloc_shared_at(i, Domain::Nucleus, "st").unwrap();
            sc.heap(i, Domain::Nucleus)
                .borrow_mut()
                .set_scalar(addr, "id", XdrValue::Int(i as i32))
                .unwrap();
            addr
        })
        .collect();

    let mut op_index = vec![0usize; shards];
    let mut last_value = vec![0i32; shards];
    for (t, &shard) in schedule.iter().enumerate() {
        let n = op_index[shard];
        op_index[shard] += 1;
        let value = (t as i32 + 1) * 100 + shard as i32;
        sc.heap(shard, Domain::Nucleus)
            .borrow_mut()
            .set_scalar(objects[shard], "value", XdrValue::Int(value))
            .unwrap();
        if n.is_multiple_of(2) {
            sc.call_deferred(
                &kernel,
                Domain::Nucleus,
                "touch",
                &[Some(objects[shard])],
                &[],
            )
            .unwrap();
        } else {
            sc.call(
                &kernel,
                Domain::Nucleus,
                "touch",
                &[Some(objects[shard])],
                &[],
            )
            .unwrap();
        }
        last_value[shard] = value;
        // Deterministic, schedule-dependent virtual-time progression.
        kernel.run_for(1 + (shard as u64 + 1) * 500 + (t as u64 % 3) * 137);
        sc.flush_if_due(&kernel).unwrap();
    }
    sc.flush_all(&kernel).unwrap();

    // Home pinning: each shard's decaf heap holds exactly its homed
    // object, converged to the last value written on that shard.
    for (shard, &want) in last_value.iter().enumerate() {
        let heap = sc.heap(shard, Domain::Decaf);
        let h = heap.borrow();
        assert_eq!(
            h.len(),
            1,
            "schedule {schedule:?}: shard {shard} hosts {} objects",
            h.len()
        );
        let addr = h.iter().map(|(a, _)| a).next().unwrap();
        assert_eq!(
            h.scalar(addr, "id").unwrap(),
            &XdrValue::Int(shard as i32),
            "schedule {schedule:?}: foreign object on shard {shard}"
        );
        assert_eq!(
            h.scalar(addr, "value").unwrap(),
            &XdrValue::Int(want),
            "schedule {schedule:?}: shard {shard} did not converge"
        );
    }
    assert_eq!(sc.stats().faults, 0, "schedule {schedule:?}");
    assert_eq!(sc.pending_deferred(), 0, "schedule {schedule:?}");
}

/// Replays one schedule against a [`RingSet`]: each step posts one
/// descriptor on the scheduled shard; every third step a consumer
/// drains one shard's ring and completes what it took. The quiesce
/// phase drains, completes and reclaims everything, then checks
/// conservation and completion-steering.
fn run_ring_conservation(shards: usize, schedule: &[usize]) {
    let kernel = Kernel::new();
    let set = RingSet::new("sched", shards, 16, 32);
    let mut posted_by: HashMap<u64, usize> = HashMap::new();
    for (t, &shard) in schedule.iter().enumerate() {
        let cookie = t as u64;
        set.post(
            &kernel,
            CpuClass::Kernel,
            shard,
            Descriptor {
                buf: BufHandle(cookie as u32),
                len: 64,
                cookie,
            },
        )
        .unwrap();
        posted_by.insert(cookie, shard);
        if t % 3 == 2 {
            let victim = (shard + t) % shards;
            for d in drained(set.ring(victim), &kernel) {
                let home = set.complete(&kernel, CpuClass::User, d).unwrap();
                assert_eq!(home, posted_by[&d.cookie], "schedule {schedule:?}");
            }
        }
    }
    // Quiesce: everything still in a ring gets consumed and completed.
    for shard in 0..shards {
        for d in drained(set.ring(shard), &kernel) {
            let home = set.complete(&kernel, CpuClass::User, d).unwrap();
            assert_eq!(home, posted_by[&d.cookie], "schedule {schedule:?}");
        }
    }
    // Conservation: every posted descriptor is reclaimed exactly once,
    // on the shard that posted it.
    let mut reclaimed = 0u64;
    for shard in 0..shards {
        for d in set.reclaim(&kernel, CpuClass::Kernel, shard) {
            assert_eq!(
                posted_by[&d.cookie], shard,
                "schedule {schedule:?}: cookie {} reclaimed on the wrong shard",
                d.cookie
            );
            reclaimed += 1;
        }
    }
    assert_eq!(reclaimed, set.stats().posted, "schedule {schedule:?}");
    assert_eq!(reclaimed, schedule.len() as u64, "schedule {schedule:?}");
    assert!(set.conserved(), "schedule {schedule:?}");
    assert_eq!(set.in_flight(), 0, "schedule {schedule:?}");
}

/// Replays one schedule against an async-transport sharded channel:
/// step t launches the next completion-token call on shard
/// `schedule[t]`, virtual time advances by a schedule-dependent amount
/// (so deadline launches interleave differently per schedule), every
/// third step harvests all shards, and at the schedule's midpoint the
/// decaf end of the scheduled shard dies and is recovered. Asserts
/// exactly-once harvest per token and ledger conservation.
fn run_token_lifecycle(shards: usize, schedule: &[usize]) {
    let kernel = Kernel::new();
    let sc = ShardedChannel::new(
        spec(),
        MaskSet::full(),
        ChannelConfig::kernel_user_async(),
        Domain::Nucleus,
        Domain::Decaf,
        shards,
    );
    sc.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "touch".into(),
            arg_types: vec!["st".into()],
            handler: Rc::new(|_, _, _, _| XdrValue::Void),
        },
    )
    .unwrap();
    let objects: Vec<_> = (0..shards)
        .map(|i| {
            let addr = sc.alloc_shared_at(i, Domain::Nucleus, "st").unwrap();
            sc.heap(i, Domain::Nucleus)
                .borrow_mut()
                .set_scalar(addr, "id", XdrValue::Int(i as i32))
                .unwrap();
            addr
        })
        .collect();

    // Token IDs are per-shard counters, so the exactly-once ledger keys
    // on (shard, token). Object-arg steering pins each call to the
    // shard homing its object, making the issuing shard deterministic.
    let mut issued: HashSet<(usize, u64)> = HashSet::new();
    let mut resolved: HashSet<(usize, u64)> = HashSet::new();
    let collect = |resolved: &mut HashSet<(usize, u64)>| {
        for i in 0..shards {
            for tok in sc.shard(i).harvest(&kernel) {
                assert!(
                    resolved.insert((i, tok.0)),
                    "schedule {schedule:?}: token {} harvested twice on shard {i}",
                    tok.0
                );
            }
        }
    };
    let fault_step = schedule.len() / 2;
    for (t, &shard) in schedule.iter().enumerate() {
        sc.heap(shard, Domain::Nucleus)
            .borrow_mut()
            .set_scalar(objects[shard], "value", XdrValue::Int(t as i32 + 1))
            .unwrap();
        let token = sc
            .call_deferred(
                &kernel,
                Domain::Nucleus,
                "touch",
                &[Some(objects[shard])],
                &[],
            )
            .unwrap()
            .expect("an async channel issues a token");
        assert!(
            issued.insert((shard, token.0)),
            "schedule {schedule:?}: token {} issued twice on shard {shard}",
            token.0
        );
        // Deterministic, schedule-dependent virtual-time progression.
        kernel.run_for(1 + (shard as u64 + 1) * 500 + (t as u64 % 3) * 137);
        sc.flush_if_due(&kernel).unwrap();
        if t == fault_step {
            // Harvest first so the internal harvest inside recovery has
            // nothing left to resolve invisibly, then kill + recover the
            // decaf end of the shard the schedule is touching. Parked
            // nucleus-originated calls survive with their tokens.
            collect(&mut resolved);
            sc.recover_shard(&kernel, shard, Domain::Decaf).unwrap();
        }
        if t % 3 == 2 {
            collect(&mut resolved);
        }
    }
    sc.flush_all(&kernel).unwrap();
    collect(&mut resolved);

    // Exactly-once: the harvested set IS the issued set (the decaf-end
    // fault requeues nucleus-originated calls, cancelling none), and the
    // stats ledger agrees.
    assert_eq!(resolved, issued, "schedule {schedule:?}");
    let s = sc.stats();
    assert_eq!(
        s.tokens_issued,
        issued.len() as u64,
        "schedule {schedule:?}"
    );
    assert_eq!(
        s.tokens_issued,
        s.tokens_harvested + s.tokens_cancelled,
        "schedule {schedule:?}: token ledger does not close"
    );
    assert_eq!(s.tokens_cancelled, 0, "schedule {schedule:?}");
    assert_eq!(sc.tokens_outstanding(), 0, "schedule {schedule:?}");
    assert!(s.overlap_ns > 0, "schedule {schedule:?}: no overlap credit");
}

#[test]
fn interleaving_enumeration_is_exhaustive_and_deterministic() {
    assert_eq!(interleavings(&[1, 1], 100), vec![vec![0, 1], vec![1, 0]]);
    // C(4,2) = 6 interleavings of two shards with two ops each.
    assert_eq!(interleavings(&[2, 2], 100).len(), 6);
    // Multinomial 6!/(2!2!2!) = 90 for three shards with two ops each.
    assert_eq!(interleavings(&[2, 2, 2], 1_000).len(), 90);
    // Deterministic: two enumerations are identical.
    assert_eq!(interleavings(&[2, 2, 2], 50), interleavings(&[2, 2, 2], 50));
}

#[test]
fn capped_selection_spreads_across_the_schedule_space() {
    // The lexicographic prefix a plain cap keeps is shard-0-heavy: all
    // 140 of 2520 four-shard schedules it admits start with shard 0.
    // The spread selection the sweeps now use sees every shard lead.
    let spread = interleavings_spread(&[2; 4], 140);
    assert_eq!(spread.len(), 140);
    let leaders: HashSet<usize> = spread.iter().map(|s| s[0]).collect();
    assert_eq!(leaders, (0..4).collect(), "every shard leads some schedule");
    assert_eq!(spread, interleavings_spread(&[2; 4], 140), "deterministic");
}

#[test]
fn enumerated_interleavings_preserve_shard_invariants() {
    // The shared sweep (20 + 90 + 140-of-2520 = 250 schedules, spread
    // across each space) replayed against the facade, the ring set and
    // the token lifecycle. The acceptance floor is 100 interleavings.
    let total = schedule_sweep(&sched::default_sweep(), |shards, schedule| {
        run_home_pinning(shards, schedule);
        run_ring_conservation(shards, schedule);
        run_token_lifecycle(shards, schedule);
    });
    assert!(total >= 100, "only {total} interleavings enumerated");
    assert_eq!(total, 250, "the documented sweep size");
}

/// One configuration's fault sweep: every schedule × every (step,
/// shard) single-fault point × capped double-fault plans, each replayed
/// with the per-step ledger oracle.
fn nic_fault_sweep(cfg: SweepConfig) {
    let stats = fault_sweep(
        &[cfg],
        fault_harness::DOUBLE_CAP,
        |shards, schedule, plan| {
            fault_harness::run_nic_fault_schedule(shards, schedule, plan);
        },
    );
    println!(
        "nic fault sweep shards={}: {} schedules, {} single fault points, \
         {} double plans, {} replays",
        cfg.shards, stats.schedules, stats.single_points, stats.double_plans, stats.replays
    );
    let steps = cfg.shards * cfg.ops;
    assert_eq!(
        stats.single_points,
        stats.schedules * steps * cfg.shards,
        "every (step, shard) injection point of every schedule"
    );
    assert_eq!(
        stats.double_plans,
        stats.schedules * fault_harness::DOUBLE_CAP
    );
}

#[test]
fn nic_fault_sweep_two_shards() {
    nic_fault_sweep(SweepConfig {
        shards: 2,
        ops: 3,
        cap: 1_000,
    });
}

#[test]
fn nic_fault_sweep_three_shards() {
    nic_fault_sweep(SweepConfig {
        shards: 3,
        ops: 2,
        cap: 1_000,
    });
}

#[test]
fn nic_fault_sweep_four_shards() {
    nic_fault_sweep(SweepConfig {
        shards: 4,
        ops: 2,
        cap: 140,
    });
}

/// Oracle sensitivity: with the planted drop-one-requeue bug armed,
/// the same replay that passes the sweep must *fail* — recovery loses
/// a surviving call and its token leaks, which the exactly-once ledger
/// has to reject. An oracle that blesses a planted bug proves nothing.
#[test]
#[cfg(debug_assertions)] // the mutation seam exists in debug builds only
fn fault_oracle_rejects_planted_requeue_drop() {
    use decaf_core::xpc::shard::mutation;
    // A plan whose fault point has calls parked on the victim: two
    // back-to-back ops on shard 0, faulted right after the second.
    let schedule = [0usize, 0, 1, 1];
    let plan = FaultPlan::single(1, 0);
    fault_harness::expect_oracle_failure("drop-one-requeue", || {
        mutation::arm_drop_one_requeue();
        fault_harness::run_nic_fault_schedule(2, &schedule, &plan);
    });
    mutation::disarm();
    // The identical replay passes clean — the failure above was the
    // planted bug, not the harness.
    fault_harness::run_nic_fault_schedule(2, &schedule, &plan);
}

/// Runs a traced shards=4 netperf stream on the sharded e1000 build
/// and returns the tracer plus the serialized Chrome JSON.
fn traced_sharded_netperf() -> (Rc<decaf_core::simkernel::decaf_trace::Tracer>, String, u64) {
    use decaf_core::simkernel::decaf_trace::{chrome_trace_json, Tracer};
    let kernel = Kernel::new();
    let tracer = Tracer::new();
    kernel.set_tracer(Some(Rc::clone(&tracer)));
    let drv = decaf_core::drivers::e1000::decaf::install_sharded(&kernel, "eth0", 4)
        .expect("sharded e1000 installs");
    kernel.netdev_open("eth0").expect("open");
    kernel.schedule_point();
    decaf_core::drivers::workloads::netperf_send(&kernel, "eth0", 1, 2_000, 1500).expect("netperf");
    drv.channels.flush_all(&kernel).expect("final flush");
    drv.channels.harvest_all(&kernel);
    let json = chrome_trace_json(&tracer.events());
    (tracer, json, kernel.now_ns())
}

/// Same seed, same schedule — the trace buffers must be byte-identical
/// (the CI diffability claim), and each buffer must satisfy span
/// discipline: every span closed, brackets nested per track, no span on
/// one shard's timeline partially overlapping another.
#[test]
fn same_seed_traces_are_byte_identical_and_well_nested() {
    use decaf_core::simkernel::decaf_trace::{validate_chrome_json, validate_nesting};
    let (t1, json1, now1) = traced_sharded_netperf();
    let (t2, json2, now2) = traced_sharded_netperf();

    assert!(t1.event_count() > 0, "traced run recorded no events");
    assert_eq!(now1, now2, "virtual clocks diverged between same-seed runs");
    assert_eq!(
        t1.event_count(),
        t2.event_count(),
        "event counts diverged between same-seed runs"
    );
    assert_eq!(json1, json2, "same-seed trace buffers differ");

    // Span discipline: every guard dropped, every request completed,
    // and the event stream brackets cleanly on every shard track.
    assert_eq!(t1.open_span_count(), 0, "sync spans left open");
    assert_eq!(t1.open_request_count(), 0, "request spans left open");
    validate_nesting(&t1.events()).expect("span nesting violated");
    let n = validate_chrome_json(&json1).expect("chrome JSON invalid");
    assert_eq!(n, t1.event_count(), "serialized event count mismatch");

    // The sharded run actually used the shard tracks: events must land
    // on more than just track 0.
    let tracks: HashSet<u32> = t1.events().iter().map(|e| e.track).collect();
    assert!(
        tracks.len() > 1,
        "sharded run emitted on a single track: {tracks:?}"
    );
}

// ------------------------------------------- the 8139 under the ledger
//
// The 8139's ring build is the one-shard instance of the glue the e1000
// runs at every width (`drivers::ringnic`), so its descriptors sit under
// the same `RingSet` conservation ledger. Its receive cookies are byte
// offsets into a packed hardware ring that is *rewound*, not slot
// numbers that are recycled — the cases below are the ones that shape
// could get wrong.

/// The oracle: after a quiesced run of `offered` looped-back packets
/// every frame went out and came back once, both ledgers close, and
/// every descriptor on a ring was put there by exactly one ledger post
/// or completion.
fn rtl8139_ledger_closes(k: &Kernel, drv: &RingSplit<dyn Any, dyn Any>, offered: u64) {
    let net = k.net_stats(&drv.name);
    assert_eq!(
        (net.tx_packets, net.rx_packets, net.tx_errors),
        (offered, offered, 0)
    );
    for (dir, set) in [("tx", &drv.tx_set), ("rx", &drv.rx_set)] {
        assert!(set.conserved(), "{dir}: {:?}", set.stats());
        assert_eq!(set.in_flight(), 0, "{dir} descriptors in flight");
        let ledger = set.stats();
        assert_eq!(ledger.posted, offered, "{dir} posts");
        assert_eq!(set.ring(0).stats().posts, ledger.posted, "{dir} ring");
        assert_eq!(
            set.completions(0).stats().posts,
            ledger.completed,
            "{dir}: a completion the ledger never steered home"
        );
    }
    assert!(k.violations().is_empty(), "{:?}", k.violations());
}

/// The 8139's ring build in `hosting` ([`Hosting::Shmring`] or
/// [`Hosting::Poll`]), installed as `eth1`.
fn rtl8139_ring(k: &Kernel, hosting: Hosting) -> RingSplit<dyn Any, dyn Any> {
    match install(k, "eth1", Build::new(DriverKind::Rtl8139, hosting)) {
        Ok(Loaded::Ring(drv)) => drv,
        _ => panic!("the 8139's {hosting:?} build installs as a ring build"),
    }
}

/// The 8139 model behind a ring build's erased device handle.
fn rtl8139_dev(drv: &RingSplit<dyn Any, dyn Any>) -> RefMut<'_, Rtl8139Device> {
    RefMut::map(drv.dev.borrow_mut(), |d| d.downcast_mut().expect("an 8139"))
}

/// The 8139's two ring builds.
const RTL8139_RINGS: [Hosting; 2] = [Hosting::Shmring, Hosting::Poll];

/// `netperf_send` 1 s × 2,000 pkt/s through one of the 8139's two ring
/// builds, settled, checked against the oracle.
fn rtl8139_send_closes_the_ledger(hosting: Hosting) {
    use decaf_core::drivers::workloads;
    let k = Kernel::new();
    let drv = rtl8139_ring(&k, hosting);
    k.netdev_open("eth1").expect("open");
    k.schedule_point();
    let sent = workloads::netperf_send(&k, "eth1", 1, 2_000, 1500).expect("netperf");
    k.run_for(4 * decaf_core::simkernel::costs::DOORBELL_COALESCE_NS);
    rtl8139_ledger_closes(&k, &drv, sent.ops);
}

#[test]
fn rtl8139_ring_builds_close_the_ledger() {
    RTL8139_RINGS
        .into_iter()
        .for_each(rtl8139_send_closes_the_ledger);
}

/// Frames of a length that does not divide the 8 KiB hardware ring, in
/// bursts, so the read pointer walks to the end and is rewound again and
/// again while descriptors are in flight. A work item queued *before*
/// each burst runs after the interrupt handler harvested it and before
/// the drain completes it: there every frame of the burst must be a
/// distinct entry of the origin ledger. Two in-flight descriptors
/// sharing a cookie would not be absorbed — the ledger's map would hold
/// one entry for two posts and `conserved()` says so.
#[test]
fn rtl8139_rx_cookies_stay_unique_across_ring_rewinds() {
    use std::cell::Cell;
    const BURST: usize = 3;
    const ROUNDS: usize = 40;
    const LEN: usize = 700;

    // What the probe relies on: the ledger notices a shared cookie.
    let dup = RingSet::new("dup", 1, 4, 8);
    dup.note_post(0, 7);
    dup.note_post(0, 7);
    assert!(!dup.conserved() && dup.in_flight() == 1);

    let k = Kernel::new();
    let drv = rtl8139_ring(&k, Hosting::Shmring);
    k.netdev_open("eth1").expect("open");
    k.schedule_point();
    let rx_set = Rc::clone(&drv.rx_set);
    let probed = Rc::new(Cell::new(0));
    for round in 0..ROUNDS {
        let (set, probed) = (Rc::clone(&rx_set), Rc::clone(&probed));
        let in_flight_probe: WorkBody = Rc::new(move |_, _| {
            assert_eq!(set.in_flight(), BURST, "round {round}: a shared cookie");
            assert!(set.conserved(), "round {round}: {:?}", set.stats());
            probed.set(probed.get() + 1);
        });
        k.schedule_work_handle(&in_flight_probe, 0);
        for i in 0..BURST {
            let frame = [(round * BURST + i) as u8; LEN];
            rtl8139_dev(&drv).inject_rx(&k, &frame);
        }
        k.schedule_point();
        assert_eq!(rx_set.in_flight(), 0, "round {round} delivered");
    }
    assert_eq!(probed.get(), ROUNDS);
    // 120 frames of 704 bytes through an 8 KiB ring that holds eleven:
    // none dropped means it was rewound every few rounds.
    let total = (ROUNDS * BURST) as u64;
    assert_eq!(rtl8139_dev(&drv).rx_dropped, 0);
    assert_eq!(rtl8139_dev(&drv).frames_received(), total);
    let net = k.net_stats("eth1");
    assert_eq!((net.rx_packets, net.rx_bytes), (total, total * LEN as u64));
    assert!(rx_set.conserved());
    assert_eq!(rx_set.stats().completed, total);
    assert!(k.violations().is_empty(), "{:?}", k.violations());
}

/// A burst larger than the 64-slot RX ring: the harvest takes what the
/// ring can hold and the rest waits in the hardware ring — picked up by
/// the drain once slots come free (interrupt mode: nothing will
/// interrupt again for frames already announced) or by the next tick
/// (poll mode) — and the ring is not rewound over frames still unread.
#[test]
fn rtl8139_burst_larger_than_the_rx_ring_loses_nothing() {
    use decaf_core::drivers::support::RX_POLL_TICK_NS;
    const FRAMES: u64 = 78;
    for hosting in RTL8139_RINGS {
        let k = Kernel::new();
        let drv = rtl8139_ring(&k, hosting);
        k.netdev_open("eth1").expect("open");
        k.schedule_point();
        // 64 records of 104 bytes already reach the rewind threshold.
        for i in 0..FRAMES {
            rtl8139_dev(&drv).inject_rx(&k, &[i as u8; 100]);
        }
        k.run_for(3 * RX_POLL_TICK_NS);
        assert_eq!(rtl8139_dev(&drv).rx_dropped, 0);
        let net = k.net_stats("eth1");
        assert_eq!(net.rx_packets, FRAMES, "{hosting:?}: frames lost");
        let rx_set = &drv.rx_set;
        assert!(rx_set.conserved() && rx_set.in_flight() == 0);
        assert_eq!(rx_set.stats().completed, FRAMES);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }
}

/// Oracle sensitivity on the 8139: with the planted double-completion
/// armed, the first TX completion lands on the completion ring twice —
/// the same run that closes the ledger above must fail its oracle.
#[test]
#[cfg(debug_assertions)] // the mutation seam exists in debug builds only
fn ledger_oracle_rejects_planted_double_completion_on_the_8139() {
    use decaf_core::shmring::ringset::mutation;
    fault_harness::expect_oracle_failure("double-complete on the 8139", || {
        mutation::arm_double_complete();
        rtl8139_send_closes_the_ledger(Hosting::Shmring);
    });
    mutation::disarm();
    rtl8139_send_closes_the_ledger(Hosting::Shmring);
}
