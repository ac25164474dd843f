//! The behaviour pin: every table except Table 1 (the size meter) must
//! regenerate byte for byte. The tables are functions of virtual time
//! and counters only, so any difference is a behaviour change — either
//! a bug, or a shift the PR declares and re-pins by copying the file
//! this test writes on failure over `tests/golden/tables.txt`.

use std::path::Path;

const GOLDEN: &str = include_str!("golden/tables.txt");

#[test]
fn tables_match_the_golden_copy_byte_for_byte() {
    let actual = decaf_bench::tables::render_behaviour();
    if actual == GOLDEN {
        return;
    }
    let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tables.actual.txt");
    std::fs::write(&dump, &actual).expect("write regenerated tables");
    let line = actual
        .lines()
        .zip(GOLDEN.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "tables differ from tests/golden/tables.txt, first at line {}:\n  golden: {:?}\n  actual: {:?}\nregenerated output written to {}",
        line + 1,
        GOLDEN.lines().nth(line),
        actual.lines().nth(line),
        dump.display()
    );
}
