//! Sharded data-path stress smoke: drives the multi-queue e1000 build
//! at a shard count given on the command line (default 4) with a
//! netperf-shaped burst, against a shards=1 baseline on the identical
//! stream.
//!
//! The heavy lifting — and every invariant check (descriptor
//! conservation under completion steering, flow spreading, zero payload
//! marshaling, kernel-rule violations) — lives in
//! `decaf_core::experiments::shard_run`, the same measurement the shard
//! ablation rows are built from, so this smoke and the published
//! numbers can never diverge. On top, it gates the tentpole claims:
//! sharding must beat the baseline on virtual-time throughput without
//! moving the copy audit.
//!
//! Run with: `cargo run --release --example shard_stress [shards]`

use decaf_core::experiments::shard_run;

fn main() {
    let shards: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let (seconds, pps) = (2, 4_000);
    println!("shard stress: shards={shards}, {seconds}s x {pps}pps x 1500B");

    let row = shard_run(shards, seconds, pps);
    println!(
        "  shards={shards}: effective {:.1} µs, {:.1} Mb/s virtual",
        row.m.effective_ns as f64 / 1e3,
        row.effective_mbps()
    );

    if shards > 1 {
        let base = shard_run(1, seconds, pps);
        println!(
            "  shards=1: effective {:.1} µs, {:.1} Mb/s virtual",
            base.m.effective_ns as f64 / 1e3,
            base.effective_mbps()
        );
        assert_eq!(row.ops, base.ops, "identical offered stream");
        assert_eq!(
            row.m.bytes_copied, base.m.bytes_copied,
            "copy audit must not move with shard count"
        );
        assert!(
            row.effective_mbps() > base.effective_mbps(),
            "shards={shards} ({:.1} Mb/s) must beat shards=1 ({:.1} Mb/s)",
            row.effective_mbps(),
            base.effective_mbps()
        );
        println!(
            "  speedup: {:.2}x",
            base.m.effective_ns as f64 / row.m.effective_ns as f64
        );
    }
    println!("OK: conservation, steering, zero-marshal and copy-audit checks passed");
}
