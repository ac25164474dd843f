//! Shared fault-exploration replay drivers for the sched harnesses.
//!
//! `decaf_core::sched::fault_sweep` enumerates (schedule × fault plan)
//! pairs; the two replay functions here are what it replays them
//! through — one for the NIC-side sharded channel, one for the sharded
//! storage driver. Both build a fresh system per replay, run the
//! schedule injecting `recover_shard` at the plan's `(step, shard)`
//! points, and assert the full differential oracle *at every step*,
//! not just at settle:
//!
//! * **NIC** — exactly-once token resolution (`tokens_issued ==
//!   tokens_harvested + tokens_cancelled + outstanding` after every
//!   step, the harvested set equal to the issued set at settle),
//!   exactly-once execution (handler hits == calls issued), zero
//!   cancellations on decaf-end faults, and home-heap convergence after
//!   a per-shard probe round (a shard recovered after its last op would
//!   otherwise have nothing to converge).
//! * **storage** — URB and pool conservation plus the zero-copy audit
//!   after every step, and at settle: every URB completed exactly once,
//!   per-shard conservation, an empty pool, and flash contents
//!   *byte-identical to a native-hosting golden run* of the same cells.
//!
//! `expect_oracle_failure` is the sensitivity side: it replays with one
//! of the `mutation` hooks armed (a planted recovery bug) and asserts
//! the oracle panics — an oracle that cannot catch a planted bug proves
//! nothing.

#![allow(dead_code)] // each test binary uses the subset it needs

use std::cell::Cell;
use std::collections::HashSet;
use std::rc::Rc;

use decaf_core::sched::FaultPlan;
use decaf_core::shmring::flow_hash;
use decaf_core::simdev::uhci as hwreg;
use decaf_core::simkernel::usb::{Urb, UrbDir};
use decaf_core::simkernel::{costs, Kernel};
use decaf_core::xdr::mask::MaskSet;
use decaf_core::xdr::{XdrSpec, XdrValue};
use decaf_core::xpc::{ChannelConfig, Domain, ProcDef, ShardedChannel};

/// Double-fault plans per schedule in the standard sweeps: enough to
/// cross same-shard repeats with cross-shard pairs without doubling the
/// sweep's cost.
pub const DOUBLE_CAP: usize = 4;

// ------------------------------------------------------- NIC-side replay

fn spec() -> XdrSpec {
    XdrSpec::parse("struct st { int id; int value; };").unwrap()
}

/// Replays one schedule on an async sharded channel, injecting a
/// decaf-end `recover_shard` at every point the plan names, with the
/// token/requeue ledger checked after every step and the full
/// exactly-once + convergence oracle at settle.
pub fn run_nic_fault_schedule(shards: usize, schedule: &[usize], plan: &FaultPlan) {
    let kernel = Kernel::new();
    let sc = ShardedChannel::new(
        spec(),
        MaskSet::full(),
        ChannelConfig::kernel_user_async(),
        Domain::Nucleus,
        Domain::Decaf,
        shards,
    );
    // Exactly-once execution ledger: the handler counts applications.
    let hits = Rc::new(Cell::new(0u64));
    let h = Rc::clone(&hits);
    sc.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "touch".into(),
            arg_types: vec!["st".into()],
            handler: Rc::new(move |_, _, _, _| {
                h.set(h.get() + 1);
                XdrValue::Void
            }),
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

    let ctx = |t: usize| format!("schedule {schedule:?} plan {:?} step {t}", plan.injections);
    let mut issued: HashSet<(usize, u64)> = HashSet::new();
    let mut resolved: HashSet<(usize, u64)> = HashSet::new();
    let collect = |resolved: &mut HashSet<(usize, u64)>, t: usize| {
        for i in 0..shards {
            for tok in sc.shard(i).harvest(&kernel) {
                assert!(
                    resolved.insert((i, tok.0)),
                    "{}: token {} harvested twice on shard {i}",
                    ctx(t),
                    tok.0
                );
            }
        }
    };
    let issue = |issued: &mut HashSet<(usize, u64)>, shard: usize, value: i32, t: usize| {
        sc.heap(shard, Domain::Nucleus)
            .borrow_mut()
            .set_scalar(objects[shard], "value", XdrValue::Int(value))
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
            "{}: token {} issued twice on shard {shard}",
            ctx(t),
            token.0
        );
    };

    for (t, &shard) in schedule.iter().enumerate() {
        issue(&mut issued, shard, t as i32 + 1, t);
        // Deterministic, schedule-dependent virtual-time progression.
        kernel.run_for(1 + (shard as u64 + 1) * 500 + (t as u64 % 3) * 137);
        sc.flush_if_due(&kernel).unwrap();
        for victim in plan.shards_at(t) {
            // Harvest first so recovery's internal harvest resolves
            // nothing invisibly; then the victim's decaf end dies.
            collect(&mut resolved, t);
            sc.recover_shard(&kernel, victim, Domain::Decaf).unwrap();
        }
        // Per-step oracle: the ledger closes at every step, a decaf-end
        // fault cancels nothing (all calls are nucleus-originated), and
        // no fault leaks into the error counters.
        let s = sc.stats();
        assert_eq!(s.tokens_issued, issued.len() as u64, "{}", ctx(t));
        assert_eq!(s.tokens_cancelled, 0, "{}", ctx(t));
        assert_eq!(
            s.tokens_issued,
            s.tokens_harvested + s.tokens_cancelled + sc.tokens_outstanding() as u64,
            "{}: per-step token ledger does not close",
            ctx(t)
        );
        assert_eq!(s.faults, 0, "{}", ctx(t));
    }

    // Probe round: one more call per shard, so every shard's object
    // re-marshals (in full, post-reset) and convergence is checkable
    // even on shards recovered after their last scheduled op.
    let probe = schedule.len();
    for shard in 0..shards {
        issue(&mut issued, shard, 10_000 + shard as i32, probe);
    }
    sc.flush_all(&kernel).unwrap();
    collect(&mut resolved, probe);

    // Settle oracle: exactly-once resolution and execution, ledger
    // closed, every home heap converged to the nucleus state.
    assert_eq!(resolved, issued, "{}", ctx(probe));
    let s = sc.stats();
    assert_eq!(s.tokens_issued, issued.len() as u64, "{}", ctx(probe));
    assert_eq!(
        s.tokens_issued,
        s.tokens_harvested + s.tokens_cancelled,
        "{}: settle token ledger does not close",
        ctx(probe)
    );
    assert_eq!(s.tokens_cancelled, 0, "{}", ctx(probe));
    assert_eq!(sc.tokens_outstanding(), 0, "{}", ctx(probe));
    assert_eq!(
        hits.get(),
        issued.len() as u64,
        "{}: calls lost or double-applied",
        ctx(probe)
    );
    for shard in 0..shards {
        let heap = sc.heap(shard, Domain::Decaf);
        let h = heap.borrow();
        assert_eq!(h.len(), 1, "{}: shard {shard} object count", ctx(probe));
        let addr = h.iter().map(|(a, _)| a).next().unwrap();
        assert_eq!(
            h.scalar(addr, "id").unwrap(),
            &XdrValue::Int(shard as i32),
            "{}: foreign object on shard {shard}",
            ctx(probe)
        );
        assert_eq!(
            h.scalar(addr, "value").unwrap(),
            &XdrValue::Int(10_000 + shard as i32),
            "{}: shard {shard} did not converge",
            ctx(probe)
        );
    }
    assert_eq!(s.faults, 0, "{}", ctx(probe));
    assert_eq!(sc.pending_deferred(), 0, "{}", ctx(probe));
}

// ------------------------------------------------------- storage replay

/// For each shard, the lowest LUN that steers to it — how a schedule's
/// per-shard streams are driven through the LUN-steered storage path.
/// Every width in 2..=4 is fully covered within the device's
/// `MAX_LUNS = 7` units.
pub fn lun_for_shard(shards: usize) -> Vec<usize> {
    (0..shards)
        .map(|s| {
            (0..hwreg::MAX_LUNS)
                .find(|&lun| (flow_hash(lun as u64) % shards as u64) as usize == s)
                .unwrap_or_else(|| panic!("no LUN steers to shard {s} of {shards}"))
        })
        .collect()
}

/// Deterministic write payload of op `n` on stream `stream`: full
/// sectors interleaved with short ones, so actual-length handling is
/// exercised under faults too.
pub fn write_payload(stream: usize, sector: u32) -> Vec<u8> {
    let len = match (stream + sector as usize) % 3 {
        0 => hwreg::SECTOR_SIZE,
        1 => 37,
        _ => 200,
    };
    (0..len)
        .map(|i| (stream as u8) ^ (sector as u8).wrapping_mul(41) ^ (i as u8).wrapping_mul(7))
        .collect()
}

fn write_urb(lun: usize, sector: u32) -> Urb {
    let mut data = vec![hwreg::FLASH_CMD_WRITE];
    data.extend_from_slice(&sector.to_le_bytes());
    data.extend_from_slice(&write_payload(lun, sector));
    Urb {
        endpoint: hwreg::ep_bulk_out(lun) as u8,
        dir: UrbDir::Out,
        data,
    }
}

/// Flash image as `flash_contents()` reports it: `(lun, sector, bytes)`
/// per written cell.
pub type FlashImage = Vec<(usize, u32, Vec<u8>)>;

/// The golden flash image for a `(shards, ops)` configuration: the same
/// cell set every schedule of that configuration writes, run through
/// the *native* hosting. Flash contents are schedule-independent (each
/// cell is written exactly once per replay), so one golden run anchors
/// the byte-identical-across-hostings oracle for every faulted replay.
pub fn storage_golden_flash(shards: usize, ops: usize) -> FlashImage {
    let k = Kernel::new();
    let drv = decaf_core::drivers::uhci::install_native(&k, "uhci0").unwrap();
    for &lun in &lun_for_shard(shards) {
        for sector in 0..ops as u32 {
            k.usb_submit_urb(
                "uhci0",
                write_urb(lun, sector),
                Rc::new(|_, r| {
                    r.unwrap();
                }),
            )
            .unwrap();
            k.schedule_point();
        }
    }
    k.run_for(4 * costs::DOORBELL_COALESCE_NS);
    let contents = drv.dev.borrow().flash_contents();
    contents
}

/// Replays one schedule on the sharded uhci driver, injecting
/// `recover_shard` at every point the plan names. Step `t` submits the
/// next write URB of stream `schedule[t]` (each stream drives one LUN
/// steered to one shard); conservation, the pool and the zero-copy
/// audit are checked after every step, and at settle every URB must
/// have completed exactly once with flash byte-identical to the
/// native-hosting `golden` image.
pub fn run_storage_fault_schedule(
    shards: usize,
    schedule: &[usize],
    plan: &FaultPlan,
    golden: &FlashImage,
) {
    let luns = lun_for_shard(shards);
    let k = Kernel::new();
    let drv = decaf_core::drivers::uhci::install_sharded(&k, "uhci0", shards).unwrap();
    let done = Rc::new(Cell::new(0u32));
    let ctx = |t: usize| format!("schedule {schedule:?} plan {:?} step {t}", plan.injections);

    let mut op_index = vec![0u32; shards];
    for (t, &stream) in schedule.iter().enumerate() {
        let sector = op_index[stream];
        op_index[stream] += 1;
        let d = Rc::clone(&done);
        k.usb_submit_urb(
            "uhci0",
            write_urb(luns[stream], sector),
            Rc::new(move |_, r| {
                r.unwrap();
                d.set(d.get() + 1);
            }),
        )
        .unwrap();
        k.schedule_point();
        // Deterministic, schedule-dependent virtual-time progression.
        k.run_for(1 + (stream as u64 + 1) * 500 + (t as u64 % 3) * 137);
        for victim in plan.shards_at(t) {
            drv.recover_shard(victim).unwrap();
            assert_eq!(
                drv.channels.heap(victim, Domain::Decaf).borrow().len(),
                0,
                "{}: failed end not reset",
                ctx(t)
            );
        }
        // Per-step oracle: conservation and the zero-copy audit hold at
        // every fault point, not just at settle.
        assert!(drv.urb_path.conserved(), "{}", ctx(t));
        assert!(drv.urb_path.set().pool().conserved(), "{}", ctx(t));
        assert_eq!(k.stats().bytes_copied, 0, "{}", ctx(t));
        assert!(
            k.violations().is_empty(),
            "{}: {:?}",
            ctx(t),
            k.violations()
        );
    }

    // Settle: the poll timer dispatches whatever recovery doorbells or
    // ordinary deadlines drained.
    k.run_for(4 * costs::DOORBELL_COALESCE_NS);
    let settle = schedule.len();
    assert_eq!(
        done.get(),
        schedule.len() as u32,
        "{}: every URB completes exactly once",
        ctx(settle)
    );
    for shard in 0..shards {
        assert!(
            drv.urb_path.set().shard_conserved(shard),
            "{}: shard {shard} not conserved",
            ctx(settle)
        );
    }
    assert!(drv.urb_path.conserved(), "{}", ctx(settle));
    assert_eq!(
        drv.urb_path.set().pool().in_use_sectors(),
        0,
        "{}",
        ctx(settle)
    );
    assert_eq!(
        k.stats().bytes_copied,
        0,
        "{}: recovery never copies",
        ctx(settle)
    );
    assert!(
        k.violations().is_empty(),
        "{}: {:?}",
        ctx(settle),
        k.violations()
    );
    assert_eq!(
        &drv.dev.borrow().flash_contents(),
        golden,
        "{}: flash diverges from the native-hosting golden run",
        ctx(settle)
    );
}

// --------------------------------------------------- sensitivity driver

/// Runs `replay` expecting its oracle to panic — the sensitivity check
/// for a planted mutation. The default panic hook is silenced for the
/// duration so the *expected* failure does not spray a backtrace into
/// the test log, then restored.
pub fn expect_oracle_failure(what: &str, replay: impl FnOnce() + std::panic::UnwindSafe) {
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(replay);
    std::panic::set_hook(quiet);
    assert!(
        result.is_err(),
        "oracle failed to reject the planted mutation: {what}"
    );
}
