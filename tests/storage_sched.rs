//! Deterministic schedule exploration for the sharded storage path,
//! plus the differential oracle across every uhci hosting.
//!
//! The NIC harness (`tests/shard_sched.rs`) checks home pinning and
//! descriptor conservation; storage adds three invariants of its own,
//! and this harness replays them against *every* enumerated ordering of
//! per-shard submit / giveback / reclaim work (the shared enumerator
//! lives in `decaf_core::sched` — lexicographic multiset permutations,
//! no randomness, every failing schedule is a reproducer):
//!
//! * **sector-run alias freedom** — at every step of every schedule, no
//!   two live runs of the one shared [`SectorPool`] overlap, whatever
//!   allocate/reclaim interleaving the shards produce;
//! * **pool conservation** — every sector ever allocated is reclaimed
//!   or still in use, checked mid-schedule and at quiescence, with the
//!   payloads read back bit-for-bit and zero audited copies;
//! * **posting-shard completion affinity** — a completer draining any
//!   shard's submit ring must see every giveback steered home to the
//!   shard that submitted it ([`UrbRingSet::complete`]), and per-shard
//!   conservation counters must balance on every schedule.
//!
//! The **differential oracle** then replays one multi-LUN workload —
//! interleaved short and full sector writes, then streaming reads —
//! through every hosting of the uhci URB path (`install_native`,
//! `install_value` copy + batched, `install_sharded(1..=4)` — one shard
//! being the unsharded ring build) and asserts byte-identical flash
//! contents and identical actual-length read results across all of
//! them: seven drivers, one observable behaviour.

use std::collections::HashMap;
use std::rc::Rc;

use decaf_core::drivers::uhci;
use decaf_core::sched::{
    self, fault_sweep, interleavings, schedule_count, schedule_count_checked, schedule_sweep,
    FaultPlan, SweepConfig,
};

#[path = "fault_harness/mod.rs"]
mod fault_harness;
use decaf_core::shmring::{SectorPool, SgSegment, ShmRing, UrbDescriptor, UrbRingSet};
use decaf_core::simdev::uhci as hwreg;
use decaf_core::simkernel::usb::{Urb, UrbDir};
use decaf_core::simkernel::{costs, CpuClass, Kernel};

/// Everything posted on `ring`, popped as the consumer.
fn drained<D: Copy + Default>(ring: &ShmRing<D>, k: &Kernel) -> Vec<D> {
    let mut out = Vec::new();
    ring.drain(k, CpuClass::User, &mut out);
    out
}

// ------------------------------------------------ schedule exploration

const SECTOR: usize = 64;
const POOL_SECTORS: usize = 24;

/// Transfer length of step `t` on shard `s`: spans sub-sector to
/// three-sector runs, deterministically.
fn xfer_len(t: usize, shard: usize) -> usize {
    1 + (t * 37 + shard * 53) % (3 * SECTOR)
}

/// Deterministic payload for one step.
fn payload(t: usize, shard: usize) -> Vec<u8> {
    let len = xfer_len(t, shard);
    (0..len)
        .map(|i| (t as u8) ^ (shard as u8).wrapping_mul(29) ^ (i as u8).wrapping_mul(13))
        .collect()
}

/// Replays one schedule against a [`UrbRingSet`] over one shared
/// [`SectorPool`]: step `t` submits a URB on shard `schedule[t]`
/// (allocate a run, adopt the payload, post, note origin); every third
/// step a completer drains a schedule-dependent victim shard and gives
/// everything back; every fifth step a reclaimer drains a giveback ring
/// and frees the runs. The quiesce phase completes and reclaims the
/// rest. Invariants are asserted at every step, not just at the end.
fn run_storage_schedule(shards: usize, schedule: &[usize]) {
    let kernel = Kernel::new();
    let pool = Rc::new(SectorPool::with_capacity(SECTOR, POOL_SECTORS));
    let set = UrbRingSet::new(
        "sched",
        shards,
        schedule.len().max(1),
        2 * schedule.len().max(1),
        pool,
    );
    // Live chains as cookie -> (segments, submitting shard).
    let mut live: HashMap<u64, (Vec<SgSegment>, usize)> = HashMap::new();
    let mut reclaimed_per_shard = vec![0u64; shards];

    let complete_ring =
        |kernel: &Kernel, victim: usize, live: &HashMap<u64, (Vec<SgSegment>, usize)>| {
            for d in drained(set.submit_ring(victim), kernel) {
                let (_, submitter) = &live[&d.cookie];
                let submitter = *submitter;
                let home = set
                    .complete(kernel, CpuClass::User, d.completed(0, d.len))
                    .unwrap();
                assert_eq!(
                    home, submitter,
                    "schedule {schedule:?}: cookie {} steered astray",
                    d.cookie
                );
            }
        };

    for (t, &shard) in schedule.iter().enumerate() {
        let cookie = t as u64;
        let data = payload(t, shard);
        let run = set.pool().alloc_sg(data.len()).unwrap();
        set.pool().adopt_payload_sg(&kernel, &data, run).unwrap();
        let segs = set.pool().sg_segments(run).unwrap();
        // Alias freedom: no segment of the fresh chain overlaps any
        // segment of any live chain.
        for (&other, (osegs, _)) in &live {
            for s in segs.iter() {
                for o in osegs.iter() {
                    assert!(
                        s.offset + s.bytes <= o.offset || o.offset + o.bytes <= s.offset,
                        "schedule {schedule:?}: chain of cookie {cookie} [{}, {}) \
                         aliases live chain of cookie {other} [{}, {})",
                        s.offset,
                        s.offset + s.bytes,
                        o.offset,
                        o.offset + o.bytes
                    );
                }
            }
        }
        set.submit_ring(shard)
            .push(
                &kernel,
                CpuClass::Kernel,
                UrbDescriptor::request_out(run, data.len() as u32, 2, cookie),
            )
            .unwrap();
        set.note_submit(shard, cookie);
        live.insert(cookie, (segs, shard));

        if t % 3 == 2 {
            complete_ring(&kernel, (shard + t) % shards, &live);
        }
        if t % 5 == 4 {
            let rshard = (shard + 2 * t) % shards;
            for d in set.reclaim(&kernel, CpuClass::Kernel, rshard) {
                let (_, submitter) = live[&d.cookie].clone();
                assert_eq!(
                    submitter, rshard,
                    "schedule {schedule:?}: cookie {} reclaimed on the wrong shard",
                    d.cookie
                );
                // The adopted payload gathers back bit-for-bit, in place.
                let idx = d.cookie as usize;
                assert_eq!(
                    set.pool()
                        .read_payload_sg(d.buf, d.actual as usize)
                        .unwrap(),
                    payload(idx, submitter),
                    "schedule {schedule:?}: payload of cookie {} corrupted",
                    d.cookie
                );
                set.pool().free_sg(d.buf).unwrap();
                live.remove(&d.cookie);
                reclaimed_per_shard[rshard] += 1;
            }
        }
        // Conservation holds mid-schedule, not just at quiescence.
        assert!(set.conserved(), "schedule {schedule:?} at step {t}");
        assert!(set.pool().conserved(), "schedule {schedule:?} at step {t}");
    }

    // Quiesce: complete every parked request, reclaim every giveback.
    for victim in 0..shards {
        complete_ring(&kernel, victim, &live);
    }
    for (rshard, reclaimed) in reclaimed_per_shard.iter_mut().enumerate() {
        for d in set.reclaim(&kernel, CpuClass::Kernel, rshard) {
            let (_, submitter) = live[&d.cookie].clone();
            assert_eq!(submitter, rshard, "schedule {schedule:?}");
            set.pool().free_sg(d.buf).unwrap();
            live.remove(&d.cookie);
            *reclaimed += 1;
        }
    }

    assert!(live.is_empty(), "schedule {schedule:?}: runs left live");
    for (shard, &reclaimed) in reclaimed_per_shard.iter().enumerate() {
        assert!(
            set.shard_conserved(shard),
            "schedule {schedule:?}: shard {shard} not conserved"
        );
        assert_eq!(
            reclaimed,
            set.shard_stats(shard).posted,
            "schedule {schedule:?}: shard {shard} reclaim count"
        );
        assert_eq!(
            set.shard_stats(shard).posted,
            schedule.iter().filter(|&&s| s == shard).count() as u64,
            "schedule {schedule:?}: shard {shard} submit count"
        );
    }
    assert!(set.conserved(), "schedule {schedule:?}");
    assert_eq!(set.in_flight(), 0, "schedule {schedule:?}");
    assert!(set.pool().conserved(), "schedule {schedule:?}");
    assert_eq!(set.pool().in_use_sectors(), 0, "schedule {schedule:?}");
    assert_eq!(
        kernel.stats().bytes_copied,
        0,
        "schedule {schedule:?}: adoption and in-place reads never copy"
    );
}

#[test]
fn shared_enumerator_counts_storage_configurations() {
    // The storage sweep below: 20 + 90 + 140-of-2520 = 250 schedules.
    assert_eq!(schedule_count(&[3, 3]), 20);
    assert_eq!(schedule_count(&[2, 2, 2]), 90);
    assert_eq!(schedule_count(&[2, 2, 2, 2]), 2520);
    assert_eq!(
        interleavings(&[2, 2, 2, 2], 140).len(),
        140,
        "the cap truncates the 4-shard set deterministically"
    );
    // The counting itself is overflow-checked: the boundary sits at
    // 34! < u128::MAX < 35!.
    assert!(schedule_count_checked(&[1; 34]).is_some());
    assert_eq!(schedule_count_checked(&[1; 35]), None);
}

#[test]
fn enumerated_storage_schedules_preserve_invariants() {
    // The shared sweep (20 + 90 + 140-of-2520 = 250 schedules, spread
    // across each space), each replaying the submit/giveback/reclaim
    // protocol with interleaved completers and reclaimers. The
    // acceptance floor is 200.
    let total = schedule_sweep(&sched::default_sweep(), |shards, schedule| {
        run_storage_schedule(shards, schedule);
    });
    assert!(total >= 200, "only {total} interleavings enumerated");
    assert_eq!(total, 250, "the documented sweep size");
}

// ---------------------------------------------------- fault exploration

/// One configuration's fault sweep on the *driver-level* storage path:
/// every schedule × every (step, shard) `recover_shard` injection point
/// × capped double-fault plans, each replayed on a fresh
/// `install_sharded` build with conservation and the zero-copy audit
/// checked per step and flash compared byte-for-byte against one
/// native-hosting golden run at settle.
fn storage_fault_sweep(cfg: SweepConfig) {
    let golden = fault_harness::storage_golden_flash(cfg.shards, cfg.ops);
    let stats = fault_sweep(
        &[cfg],
        fault_harness::DOUBLE_CAP,
        |shards, schedule, plan| {
            fault_harness::run_storage_fault_schedule(shards, schedule, plan, &golden);
        },
    );
    println!(
        "storage fault sweep shards={}: {} schedules, {} single fault points, \
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
fn storage_fault_sweep_two_shards() {
    storage_fault_sweep(SweepConfig {
        shards: 2,
        ops: 3,
        cap: 1_000,
    });
}

#[test]
fn storage_fault_sweep_three_shards() {
    storage_fault_sweep(SweepConfig {
        shards: 3,
        ops: 2,
        cap: 1_000,
    });
}

#[test]
fn storage_fault_sweep_four_shards() {
    storage_fault_sweep(SweepConfig {
        shards: 4,
        ops: 2,
        cap: 140,
    });
}

/// Oracle sensitivity: with the planted double-completion bug armed,
/// the same replay that passes the sweep must *fail* — one giveback
/// lands twice and the submitter reclaims the same URB twice, which
/// the exactly-once-completion / pool oracle has to reject.
#[test]
#[cfg(debug_assertions)] // the mutation seam exists in debug builds only
fn fault_oracle_rejects_planted_double_completion() {
    use decaf_core::shmring::ringset::mutation;
    let golden = fault_harness::storage_golden_flash(2, 2);
    let schedule = [0usize, 1, 0, 1];
    let plan = FaultPlan::single(1, 0);
    fault_harness::expect_oracle_failure("double-fire-completion", || {
        mutation::arm_double_complete();
        fault_harness::run_storage_fault_schedule(2, &schedule, &plan, &golden);
    });
    mutation::disarm();
    // The identical replay passes clean — the failure above was the
    // planted bug, not the harness.
    fault_harness::run_storage_fault_schedule(2, &schedule, &plan, &golden);
}

// ------------------------------------------------- differential oracle

const ORACLE_LUNS: usize = 3;
const ORACLE_SECTORS: u32 = 4;

/// Read results keyed by cell: `(lun, sector, actual bytes delivered)`.
type CellReads = Vec<(usize, u32, Vec<u8>)>;

/// Payload length of one (lun, sector) cell: full sectors interleaved
/// with short ones — so actual-length reporting is part of the oracle —
/// plus a *multi-sector* cell whose write command spans several pool
/// sectors. The native hosting still carries it in one TD (the command
/// stays under the TD maxlen ceiling) while the ring hostings build a
/// scatter-gather chain for it: the reassembly itself is under
/// differential test.
fn cell_len(lun: usize, sector: u32) -> usize {
    match (lun + sector as usize) % 4 {
        0 => hwreg::SECTOR_SIZE,
        1 => 100,
        2 => 3 * hwreg::SECTOR_SIZE - 36,
        _ => 37,
    }
}

/// Payload bytes of one cell (deterministic, distinct per cell).
fn cell_payload(lun: usize, sector: u32) -> Vec<u8> {
    (0..cell_len(lun, sector))
        .map(|i| (lun as u8) ^ (sector as u8).wrapping_mul(41) ^ (i as u8).wrapping_mul(7))
        .collect()
}

/// Runs the multi-LUN oracle workload against an installed uhci build:
/// writes every (lun, sector) cell with LUN streams interleaved sector
/// by sector, then streams everything back the same way. Returns the
/// read results sorted by (lun, sector) — the actual bytes each IN
/// transfer delivered.
fn oracle_workload(k: &Kernel, hcd: &str) -> CellReads {
    for sector in 0..ORACLE_SECTORS {
        for lun in 0..ORACLE_LUNS {
            let mut data = vec![hwreg::FLASH_CMD_WRITE];
            data.extend_from_slice(&sector.to_le_bytes());
            data.extend_from_slice(&cell_payload(lun, sector));
            k.usb_submit_urb(
                hcd,
                Urb {
                    endpoint: hwreg::ep_bulk_out(lun) as u8,
                    dir: UrbDir::Out,
                    data,
                },
                Rc::new(|_, r| {
                    r.unwrap();
                }),
            )
            .unwrap();
            k.schedule_point();
        }
    }
    k.run_for(4 * costs::DOORBELL_COALESCE_NS);

    let results: Rc<std::cell::RefCell<CellReads>> = Rc::new(std::cell::RefCell::new(Vec::new()));
    for sector in 0..ORACLE_SECTORS {
        for lun in 0..ORACLE_LUNS {
            let mut cmd = vec![hwreg::FLASH_CMD_READ];
            cmd.extend_from_slice(&sector.to_le_bytes());
            k.usb_submit_urb(
                hcd,
                Urb {
                    endpoint: hwreg::ep_bulk_out(lun) as u8,
                    dir: UrbDir::Out,
                    data: cmd,
                },
                Rc::new(|_, _| {}),
            )
            .unwrap();
            let out = Rc::clone(&results);
            k.usb_submit_urb(
                hcd,
                Urb {
                    endpoint: hwreg::ep_bulk_in(lun) as u8,
                    dir: UrbDir::In,
                    // Request the cell's own length (at least a sector):
                    // the short cells still come back at their true
                    // actual length, and the multi-sector cell fits.
                    data: vec![0; cell_len(lun, sector)],
                },
                Rc::new(move |_, r| {
                    out.borrow_mut().push((lun, sector, r.unwrap()));
                }),
            )
            .unwrap();
            k.schedule_point();
        }
    }
    k.run_for(4 * costs::DOORBELL_COALESCE_NS);

    let mut out = Rc::try_unwrap(results).unwrap().into_inner();
    // Completion *dispatch* order may legally differ across hostings
    // (watermark vs deadline doorbells); per-cell results may not.
    out.sort_by_key(|&(lun, sector, _)| (lun, sector));
    out
}

#[test]
fn differential_oracle_all_hostings_agree_bit_for_bit() {
    type Snapshot = (CellReads, CellReads);
    let run =
        |label: &str,
         install: &dyn Fn(&Kernel) -> Rc<std::cell::RefCell<decaf_core::simdev::UhciDevice>>|
         -> Snapshot {
            let k = Kernel::new();
            let dev = install(&k);
            let results = oracle_workload(&k, "uhci0");
            assert_eq!(
                results.len(),
                ORACLE_LUNS * ORACLE_SECTORS as usize,
                "{label}: not every read completed"
            );
            assert!(k.violations().is_empty(), "{label}: {:?}", k.violations());
            let flash = dev.borrow().flash_contents();
            (results, flash)
        };

    // The native build is the golden reference.
    let golden = run("native", &|k| uhci::install_native(k, "uhci0").unwrap().dev);

    // Every cell's read returns exactly the bytes written — including
    // the short cells at their true actual length.
    for (lun, sector, data) in &golden.0 {
        assert_eq!(
            data,
            &cell_payload(*lun, *sector),
            "native read of ({lun}, {sector})"
        );
    }

    let hostings: Vec<(String, Snapshot)> = vec![
        (
            "value/copy".into(),
            run("value/copy", &|k| {
                uhci::install_value(k, "uhci0", false).unwrap().dev
            }),
        ),
        (
            "value/batched".into(),
            run("value/batched", &|k| {
                uhci::install_value(k, "uhci0", true).unwrap().dev
            }),
        ),
    ]
    .into_iter()
    .chain((1..=4).map(|shards| {
        (
            format!("sharded/{shards}"),
            run(&format!("sharded/{shards}"), &move |k| {
                uhci::install_sharded(k, "uhci0", shards).unwrap().dev
            }),
        )
    }))
    .collect();

    for (label, (results, flash)) in &hostings {
        assert_eq!(
            results, &golden.0,
            "{label}: actual-length read results diverge from native"
        );
        assert_eq!(
            flash, &golden.1,
            "{label}: flash contents diverge from native"
        );
    }
}

#[test]
fn differential_oracle_zero_copy_only_on_ring_hostings() {
    // The same workload also separates the hostings where it should:
    // by-value copies, ring hostings adopt. A sharded build that
    // quietly started copying would pass the contents oracle but fail
    // here.
    let copied = |install: &dyn Fn(&Kernel)| {
        let k = Kernel::new();
        install(&k);
        oracle_workload(&k, "uhci0");
        k.stats().bytes_copied
    };
    assert!(
        copied(&|k| {
            uhci::install_value(k, "uhci0", false).unwrap();
        }) > 0,
        "the by-value hosting must pay its copies"
    );
    for shards in [1usize, 4] {
        assert_eq!(
            copied(&|k| {
                uhci::install_sharded(k, "uhci0", shards).unwrap();
            }),
            0,
            "shards={shards}"
        );
    }
}
