//! Benchmark support crate.
//!
//! * [`tables`] — renders Tables 1–4 of the paper and every ablation
//!   table into a `String`; `benches/tables.rs` prints it and
//!   `tests/golden_tables.rs` pins it;
//! * `benches/figures.rs` — regenerates Figures 1–5;
//! * `benches/micro.rs` — criterion microbenches of the XDR codec, graph
//!   marshaler, XPC round trips and combolocks, including the ablations
//!   listed in DESIGN.md.
//!
//! All three bench targets run under `cargo bench --workspace`.

#![forbid(unsafe_code)]

pub mod tables;
