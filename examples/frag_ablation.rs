//! Fragmentation ablation smoke: prints the first-fit vs buddy vs
//! buddy+SG sweep over adversarially fragmented sector pools and gates
//! the headline claim of the scatter-gather data path.
//!
//! Each cell installs the shmring uhci build with one pool allocation
//! mode, pins a pressure-point fraction of the sector pool as
//! *scattered* single-sector chains (the free map becomes singles —
//! plenty of bytes, no contiguity), then fires a burst of multi-sector
//! flash writes. The contiguity-requiring modes start refusing
//! transfers the pool has the bytes for (`frag_refusals` counts
//! exactly those); the chaining mode never does.
//!
//! The measurements and every per-cell invariant (zero CPU-copied
//! payload bytes, URB + pool conservation, no leaked sectors) live in
//! `decaf_core::experiments::frag_run`, the same code the published
//! table rows are built from, so this smoke and the numbers can never
//! diverge.
//!
//! Run with: `cargo run --release --example frag_ablation`

use decaf_core::experiments::{frag_ablation, FRAG_ATTEMPTS, FRAG_PRESSURES};

fn main() {
    println!(
        "fragmentation ablation: {} multi-sector writes per cell, pressures {:?}%",
        FRAG_ATTEMPTS, FRAG_PRESSURES
    );
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>10} {:>13} {:>10} {:>11} {:>12}",
        "mode",
        "pinned%",
        "attempts",
        "failures",
        "fail rate",
        "frag refusals",
        "exhausted",
        "copied B",
        "virt Mbit/s"
    );
    // `frag_ablation` itself asserts the acceptance gates: buddy+SG at
    // zero failures and zero frag refusals across the sweep, first-fit
    // driven into refusals while free bytes sufficed.
    let rows = frag_ablation();
    for r in &rows {
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>10.2} {:>13} {:>10} {:>11} {:>12.1}",
            r.label,
            r.pressure,
            r.attempts,
            r.failures,
            r.failure_rate(),
            r.frag_refusals,
            r.exhausted,
            r.m.bytes_copied,
            r.virtual_mbps()
        );
    }

    let worst_ff = rows
        .iter()
        .filter(|r| r.label == "first-fit" && r.failures > 0)
        .map(|r| r.pressure)
        .min()
        .expect("the gate in frag_ablation guarantees a refusing cell");
    println!(
        "first-fit starts refusing at {worst_ff}% pressure; buddy+SG sustains a zero \
         alloc-failure rate at every pressure point — a fragmented pool never refuses \
         a transfer it has the bytes for"
    );
}
