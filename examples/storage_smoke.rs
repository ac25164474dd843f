//! Storage shmring smoke: drives the `tar` write + streaming-read pair
//! through the uhci ring build — `install_sharded(…, 1)`, one shard
//! being the unsharded build — and prints the three-way storage
//! ablation. With a shard-count argument it instead drives the
//! **multi-LUN** workload at that width (the CI storage-sched job runs
//! `storage_smoke 4`).
//!
//! The heavy lifting — and every invariant check (URB conservation,
//! sector-run reclamation, zero kernel-rule violations, and the
//! tentpole claim that bulk `bytes_copied` is exactly zero under the
//! shmring hosting *and at every shard width*) — lives in
//! `decaf_core::experiments::storage_run` /
//! `decaf_core::experiments::storage_shard_run`, the same measurements
//! the ablation rows are built from, so this smoke and the published
//! numbers can never diverge. On top, it gates the ablation orderings:
//! shmring must beat both by-value hostings on marshaled bytes and
//! virtual CPU time, and a sharded run must beat shards=1 on the
//! parallel wall model.
//!
//! Run with: `cargo run --release --example storage_smoke [shards]`
//!
//! `--trace <path>` additionally drives one traced shmring tar run and
//! writes a Chrome `trace_event` JSON capture to `path` (open it at
//! `chrome://tracing` or in Perfetto). Timestamps are virtual, so
//! same-seed captures are byte-identical.

use decaf_core::experiments::{
    storage_ablation, storage_shard_run, Run, STORAGE_FILES, STORAGE_LUNS, STORAGE_SECTORS_PER_FILE,
};
use decaf_core::simkernel::decaf_trace::{chrome_trace_json, Tracer};
use decaf_core::simkernel::Kernel;

/// Drives the shmring tar write + streaming-read pair once with a full
/// event tracer installed and writes the Chrome JSON capture.
fn traced_smoke(path: &str) {
    use decaf_core::drivers::workloads;
    let k = Kernel::new();
    let t = Tracer::new();
    k.set_tracer(Some(std::rc::Rc::clone(&t)));
    let _drv = decaf_core::drivers::uhci::install_sharded(&k, "uhci0", 1).expect("uhci shmring");
    workloads::tar_to_flash(&k, "uhci0", STORAGE_FILES, STORAGE_SECTORS_PER_FILE).expect("tar out");
    workloads::tar_from_flash(&k, "uhci0", STORAGE_FILES, STORAGE_SECTORS_PER_FILE)
        .expect("tar in");
    std::fs::write(path, chrome_trace_json(&t.events())).expect("write trace");
    println!(
        "wrote {} trace events to {path} (load in chrome://tracing)",
        t.event_count()
    );
}

fn sharded_smoke(shards: usize) {
    println!(
        "storage shard smoke: {}-LUN tar write + streaming read, {} files x {} sectors, shards={}",
        STORAGE_LUNS, STORAGE_FILES, STORAGE_SECTORS_PER_FILE, shards
    );
    let rows: Vec<_> = [1, shards]
        .into_iter()
        .map(|n| storage_shard_run(n, STORAGE_FILES, STORAGE_SECTORS_PER_FILE))
        .collect();
    for row in &rows {
        let run = &row.run;
        println!(
            "  shards={:<2} used={:<2} urbs={:<4} eff={:<9.1}µs crit={:<9.1}µs dbell={:<3} copied={} virt={:.1}Mb/s",
            run.shards,
            row.shards_used,
            run.ops,
            run.m.effective_ns as f64 / 1e3,
            run.m.shard_max_ns as f64 / 1e3,
            run.m.channel.doorbells,
            run.m.bytes_copied,
            run.effective_mbps(),
        );
    }
    let (one, n) = (&rows[0].run, &rows[1].run);
    // bytes_copied == 0 is already asserted inside storage_shard_run for
    // every row; gate the parallel-speedup ordering on top.
    assert!(
        n.effective_mbps() > one.effective_mbps(),
        "shards={} ({:.1} Mb/s) must beat shards=1 ({:.1} Mb/s)",
        n.shards,
        n.effective_mbps(),
        one.effective_mbps()
    );
    println!(
        "OK: sharded storage queues hold (zero copies at both widths, {:.2}x parallel speedup)",
        one.m.effective_ns as f64 / n.m.effective_ns as f64
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let path = args
            .get(i + 1)
            .cloned()
            .expect("--trace requires a path argument");
        args.drain(i..=i + 1);
        traced_smoke(&path);
    }
    if let Some(shards) = args.first() {
        let shards: usize = shards.parse().expect("shard count argument");
        sharded_smoke(shards.max(2));
        return;
    }

    println!(
        "storage smoke: tar write + streaming read, {} files x {} sectors each way",
        STORAGE_FILES, STORAGE_SECTORS_PER_FILE
    );

    let rows = storage_ablation();
    let marshaled = |r: &Run| r.m.channel.bytes_in + r.m.channel.bytes_out;
    for row in &rows {
        println!(
            "  {:<24} urbs={:<3} payload={:<6} marshaled={:<7} RT={:<3} dbell={:<2} copied={:<6} virt={:.1}µs",
            row.label,
            row.ops,
            row.payload_bytes,
            marshaled(row),
            row.m.channel.round_trips,
            row.m.channel.doorbells,
            row.m.bytes_copied,
            row.m.busy_ns as f64 / 1e3,
        );
    }

    let (copy, batched, shm) = (&rows[0], &rows[1], &rows[2]);
    assert_eq!(
        shm.m.bytes_copied, 0,
        "shmring bulk payloads must cross as descriptor traffic only"
    );
    assert!(
        marshaled(shm) < marshaled(batched) && marshaled(shm) < marshaled(copy),
        "shmring must keep payloads out of the marshaler"
    );
    assert!(
        shm.m.busy_ns < batched.m.busy_ns && batched.m.busy_ns < copy.m.busy_ns,
        "each hosting must beat the one below it on virtual CPU time"
    );
    println!(
        "OK: zero-copy storage path holds ({} B copied vs {} B by value, {:.1}x virtual speedup)",
        shm.m.bytes_copied,
        copy.m.bytes_copied,
        copy.m.busy_ns as f64 / shm.m.busy_ns as f64
    );
}
