//! The bug museum's kill matrix: every planted bug against every harness.
//!
//! Each row is a seam that re-plants a bug this repository shipped and
//! fixed (or, for the two control rows, a recovery bug the fault sweeps
//! were written to catch). Each column is a harness: one NIC and one
//! storage `fault_sweep` configuration, replayed through
//! `tests/fault_harness`, and the lifecycle of every `Build::ALL` entry —
//! load, a small workload, `remove`, load again — with the device model
//! freed by each `remove` and `violations()` empty. A cell is ✓ when the
//! harness fails with the seam armed (it caught the bug) and ✗ when it
//! passes anyway. The seams are thread-local, so each row runs on a
//! thread of its own.
//!
//! The matrix is pinned exactly. A ✗ turned ✓ is a better harness:
//! update the pin. A ✓ turned ✗ is a harness that lost its grip, and
//! fails here. The row with no seam armed must pass every column, and
//! each control row must be caught by its own sweep.
//!
//! The three simkernel rows are also caught by the exhaustive dispatch
//! model check (`dispatch::tests` in `crates/simkernel`), which this
//! file cannot reach: it is a unit test of that crate. That check is
//! where the freed-while-masked and past-the-end rows show ✓; here they
//! pin what the sweeps and the lifecycle miss. The `SyncCallSkipsFlush` row's two ✗ are the
//! sweeps not looking at the order the device saw register accesses in.
//!
//! Debug builds only: the seams are `#[cfg(debug_assertions)]`.

#![cfg(debug_assertions)]

mod fault_harness;

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use decaf_core::drivers::{install, workloads, Build, DriverKind};
use decaf_core::sched::{fault_sweep, SweepConfig};
use decaf_core::shmring::ringset;
use decaf_core::simdev::{E1000Device, PsMouseDevice, Rtl8139Device};
use decaf_core::simkernel::{self, Kernel, SkBuff};
use decaf_core::xpc::{self, shard};

/// A row: its name and what arms its seam on this thread. One-shot seams
/// disarm themselves at their first use, so every replay arms again.
type Row = (&'static str, fn());

const ROWS: [Row; 7] = [
    ("(none)", || {}),
    ("simkernel TimerDelKeepsCallback", || {
        simkernel::mutation::arm(simkernel::mutation::Mutant::TimerDelKeepsCallback)
    }),
    ("simkernel FreeIrqKeepsMask", || {
        simkernel::mutation::arm(simkernel::mutation::Mutant::FreeIrqKeepsMask)
    }),
    ("simkernel RequestIrqPastTheEnd", || {
        simkernel::mutation::arm(simkernel::mutation::Mutant::RequestIrqPastTheEnd)
    }),
    ("xpc SyncCallSkipsFlush", || {
        xpc::mutation::arm(xpc::mutation::Mutant::SyncCallSkipsFlush)
    }),
    (
        "control: arm_drop_one_requeue",
        shard::mutation::arm_drop_one_requeue,
    ),
    (
        "control: arm_double_complete",
        ringset::mutation::arm_double_complete,
    ),
];

fn disarm_all() {
    simkernel::mutation::disarm();
    xpc::mutation::disarm();
    shard::mutation::disarm();
    ringset::mutation::disarm();
}

const NIC: SweepConfig = SweepConfig {
    shards: 4,
    ops: 2,
    cap: 140,
};

const STORAGE: SweepConfig = SweepConfig {
    shards: 2,
    ops: 3,
    cap: 1_000,
};

const COLUMNS: [&str; 3] = ["nic sweep", "storage sweep", "lifecycle"];

/// The pin: one line per row, a cell per column in `COLUMNS` order.
const EXPECTED: &str = "\
seam                                     | nic sweep | storage sweep | lifecycle
(none)                                   |     ✗     |       ✗       |     ✗
simkernel TimerDelKeepsCallback          |     ✗     |       ✗       |     ✓
simkernel FreeIrqKeepsMask               |     ✗     |       ✗       |     ✗
simkernel RequestIrqPastTheEnd           |     ✗     |       ✗       |     ✗
xpc SyncCallSkipsFlush                   |     ✗     |       ✗       |     ✓
control: arm_drop_one_requeue            |     ✓     |       ✗       |     ✗
control: arm_double_complete             |     ✗     |       ✓       |     ✓
";

fn nic_sweep(arm: fn()) {
    fault_sweep(
        &[NIC],
        fault_harness::DOUBLE_CAP,
        |shards, schedule, plan| {
            arm();
            fault_harness::run_nic_fault_schedule(shards, schedule, plan);
        },
    );
}

fn storage_sweep(arm: fn(), golden: &fault_harness::FlashImage) {
    fault_sweep(
        &[STORAGE],
        fault_harness::DOUBLE_CAP,
        |shards, schedule, plan| {
            arm();
            fault_harness::run_storage_fault_schedule(shards, schedule, plan, golden);
        },
    );
}

/// A little of what each driver is for.
fn small_workload(k: &Kernel, name: &str, driver: DriverKind, dev: &RefCell<dyn Any>) {
    match driver {
        DriverKind::E1000 | DriverKind::Rtl8139 => {
            k.netdev_open(name).unwrap();
            for i in 0..2u8 {
                k.net_xmit(name, SkBuff::synthetic(600, i, 0x0800)).unwrap();
                k.schedule_point();
                let mut d = dev.borrow_mut();
                if let Some(e) = d.downcast_mut::<E1000Device>() {
                    e.inject_rx(k, &[0x5a ^ i; 300]);
                } else if let Some(r) = d.downcast_mut::<Rtl8139Device>() {
                    r.inject_rx(k, &[0x5a ^ i; 300]);
                }
                drop(d);
                k.run_for(200_000);
            }
        }
        DriverKind::Ens1371 => {
            k.snd_pcm_open(name).unwrap();
            k.snd_pcm_write(name, &[0x11; 4_410]).unwrap();
            k.run_for(60_000_000);
            k.snd_pcm_close(name).unwrap();
        }
        DriverKind::UhciHcd => {
            workloads::tar_to_flash(k, name, 1, 2).unwrap();
            k.run_for(10_000_000);
        }
        DriverKind::Psmouse => {
            for i in 0..4i8 {
                let mut d = dev.borrow_mut();
                let mouse = d.downcast_mut::<PsMouseDevice>().unwrap();
                mouse.inject_move(k, i, -i, i % 2 == 0);
                drop(d);
                k.run_for(1_000_000);
            }
        }
    }
}

/// Every listed build, each on a kernel of its own: load, work, remove,
/// twice. Each `remove` frees the device model; nothing is left loaded
/// and nothing broke a kernel rule.
fn lifecycle(arm: fn()) {
    for build in Build::ALL {
        let k = Kernel::new();
        let name = "dev0";
        for round in 0..2 {
            arm();
            let d = install(&k, name, build).unwrap_or_else(|e| panic!("{build:?}: {e:?}"));
            small_workload(&k, name, build.driver, &d.dev());
            let model = Rc::downgrade(&d.dev());
            d.remove();
            let what = format!("{build:?}, load {round}");
            assert!(
                model.upgrade().is_none(),
                "{what}: the device model outlived remove()"
            );
        }
        assert!(k.modules().is_empty(), "{build:?}: {:?}", k.modules());
        assert!(k.violations().is_empty(), "{build:?}: {:?}", k.violations());
    }
}

/// Runs `cell` with `arm`'s seam planted on this thread: whether it
/// caught the bug.
fn caught(arm: fn(), cell: impl FnOnce()) -> bool {
    arm();
    let failed = catch_unwind(AssertUnwindSafe(cell)).is_err();
    disarm_all();
    failed
}

#[test]
fn every_planted_bug_against_every_harness() {
    let start = std::time::Instant::now();
    let golden = fault_harness::storage_golden_flash(STORAGE.shards, STORAGE.ops);
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let cells: Vec<[bool; 3]> = std::thread::scope(|s| {
        let rows: Vec<_> = ROWS
            .iter()
            .map(|&(_, arm)| {
                let golden = &golden;
                s.spawn(move || {
                    [
                        caught(arm, || nic_sweep(arm)),
                        caught(arm, || storage_sweep(arm, golden)),
                        caught(arm, || lifecycle(arm)),
                    ]
                })
            })
            .collect();
        rows.into_iter().map(|r| r.join().unwrap()).collect()
    });
    std::panic::set_hook(quiet);

    let mut matrix = format!(
        "{:<40} | {} | {} | {}\n",
        "seam", COLUMNS[0], COLUMNS[1], COLUMNS[2]
    );
    for ((name, _), row) in ROWS.iter().zip(&cells) {
        let mark = |c: bool| if c { "✓" } else { "✗" };
        let line = format!(
            "{name:<40} | {:^9} | {:^13} | {:^9}",
            mark(row[0]),
            mark(row[1]),
            mark(row[2])
        );
        matrix += line.trim_end();
        matrix.push('\n');
    }
    println!("{matrix}({:?})", start.elapsed());
    assert_eq!(cells[0], [false; 3], "a harness fails with nothing planted");
    assert!(cells[5][0], "the NIC sweep misses its control row");
    assert!(cells[6][1], "the storage sweep misses its control row");
    assert_eq!(matrix, EXPECTED, "the kill matrix moved");
}
