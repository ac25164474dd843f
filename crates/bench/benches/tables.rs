//! Regenerates every table of the paper's evaluation (run via
//! `cargo bench -p decaf-bench --bench tables`). The rendering lives in
//! [`decaf_bench::tables`] so the golden test can compare it.

fn main() {
    print!("{}", decaf_bench::tables::render());
}
