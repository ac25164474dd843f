//! Overload knee smoke: calibrates the open-loop rig's saturation
//! rate, sweeps every admission policy across offered rates from 0.4×
//! to 1.5× saturation, and prints the latency/goodput knee table.
//!
//! The measurement — and every invariant check (zero payload bytes
//! copied, URB descriptor/sector conservation, a closed admission
//! ledger, every async doorbell token settled, no kernel rule
//! violations) — lives in `decaf_core::experiments::overload_run` /
//! `overload_sweep`, the same functions the published table rows are
//! built from. Arrival schedules are seeded virtual-time Poisson and
//! burst processes: two runs print identical output.
//!
//! Run with: `cargo run --release --example overload_knee`

use decaf_core::experiments::{knee_verdict, overload_sweep};

fn main() {
    let (sat, rows) = overload_sweep();
    println!("calibrated saturation: {sat} req/s (virtual)");
    println!();
    println!(
        "{:<20} {:>6} {:>8} {:>8} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "policy",
        "rate%",
        "offered",
        "admitted",
        "rej",
        "shed",
        "goodput/s",
        "p50 µs",
        "p99 µs",
        "p999 µs"
    );
    for r in &rows {
        println!(
            "{:<20} {:>6} {:>8} {:>8} {:>6} {:>6} {:>10} {:>10.1} {:>10.1} {:>10.1}",
            r.policy.name(),
            r.multiplier_pct,
            r.offered,
            r.admitted,
            r.rejected,
            r.shed,
            r.goodput_per_s,
            r.lat.p50_ns as f64 / 1e3,
            r.lat.p99_ns as f64 / 1e3,
            r.lat.p999_ns as f64 / 1e3,
        );
    }
    println!();
    let v = knee_verdict(&rows);
    println!(
        "unbounded p99 blowup past saturation: {:.1}×",
        v.unbounded_blowup
    );
    println!(
        "{} holds p99 within {:.1}× pre-knee at {:.0}% of peak goodput",
        v.bounded_policy.name(),
        v.bounded_ratio,
        v.goodput_fraction * 100.0
    );
    assert!(
        v.holds,
        "knee acceptance failed: blowup {:.1}× (need ≥10), bounded {:.1}× (need ≤3), \
         goodput {:.2} (need ≥0.8)",
        v.unbounded_blowup, v.bounded_ratio, v.goodput_fraction
    );
    println!("knee acceptance holds");
}
