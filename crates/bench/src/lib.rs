//! Benchmark support crate.
//!
//! * [`tables`] — renders Tables 1–4 of the paper and every ablation
//!   table into a `String`; `benches/tables.rs` prints it and
//!   `tests/golden_tables.rs` pins it;
//! * `benches/figures.rs` — regenerates Figures 1–5.
//!
//! Both bench targets run under `cargo bench --workspace`. Per-function
//! host timings live in the top-level `decaf_bench` package's unit
//! drives, not here.

#![forbid(unsafe_code)]

pub mod tables;
