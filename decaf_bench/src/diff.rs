//! `decaf_bench diff A.json B.json`: B judged against A by the
//! benchmark's own bounds.
//!
//! * **exact** metrics (virtual clock, counts) must be identical — a
//!   change meant only to speed the simulator up must leave every one of
//!   them as it was; a change that means to move the model says so in its
//!   PR and reads the rows here as its evidence.
//! * **end-to-end host** metrics may be worse than A by at most their
//!   bound. When the spread between either side's own blocks is wider
//!   than the bound the row is *unresolved*: the run cannot tell a
//!   regression from noise, and says so instead of saying "unchanged".
//! * per-layer **host** metrics and the unit drives are printed with
//!   their ratio and never gated: they say where a movement sits.

use std::fmt::Write as _;

use crate::json::Json;
use crate::run::SCHEMA;
use crate::spec::{self, Better};

/// Outcome of a diff.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Rows where B is worse than the bound allows, or an exact metric
    /// differs.
    pub regressions: usize,
    /// Host rows whose spread exceeds their bound.
    pub unresolved: usize,
    /// Rows compared.
    pub rows: usize,
}

fn num_text(v: Option<&Json>) -> String {
    match v {
        Some(Json::Num(n)) => format!("{n}"),
        Some(Json::Null) | None => "null".into(),
        Some(other) => other.to_line(),
    }
}

/// `b / a` as text, with its base spelled out.
fn ratio_text(a: Option<f64>, b: Option<f64>) -> String {
    match (a, b) {
        (Some(a), Some(b)) if a != 0.0 => format!("{:.4}x of A", b / a),
        _ => "-".into(),
    }
}

/// Compares two `run` documents; returns the table and the verdict.
pub fn diff(a: &Json, b: &Json) -> Result<(String, Verdict), String> {
    for (label, doc) in [("A", a), ("B", b)] {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{label} is not a {SCHEMA} document"));
        }
    }
    let mut out = String::new();
    let mut v = Verdict::default();
    let _ = writeln!(
        out,
        "{:<16} {:<32} {:>22} {:>22} {:>18}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    let wa = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A has no workloads")?;
    for (w, da) in wa {
        let db = b
            .get("workloads")
            .and_then(|x| x.get(w))
            .ok_or_else(|| format!("B lacks workload {w}"))?;
        let mut row = |metric: &str, ta: String, tb: String, ratio: String, verdict: &str| {
            let _ = writeln!(
                out,
                "{w:<16} {metric:<32} {ta:>22} {tb:>22} {ratio:>18}  {verdict}"
            );
        };

        for m in &spec::END_TO_END {
            let (ma, mb) = (
                da.get("end_to_end").and_then(|e| e.get(m.name)),
                db.get("end_to_end").and_then(|e| e.get(m.name)),
            );
            let val = |x: Option<&Json>| x.and_then(|x| x.get("value")).and_then(Json::as_f64);
            let iqr = |x: Option<&Json>| {
                x.and_then(|x| x.get("iqr_share"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            let (va, vb) = (val(ma), val(mb));
            v.rows += 1;
            let verdict = match (va, vb) {
                (Some(x), Some(y)) if x != 0.0 => {
                    let worse_by = match m.better {
                        Better::Higher => (x - y) / x,
                        Better::Lower => (y - x) / x,
                    };
                    let spread = iqr(ma).max(iqr(mb));
                    if spread > m.bound {
                        v.unresolved += 1;
                        format!(
                            "UNRESOLVED (block spread {:.1}% > bound {:.0}%)",
                            spread * 100.0,
                            m.bound * 100.0
                        )
                    } else if worse_by > m.bound {
                        v.regressions += 1;
                        format!(
                            "REGRESSION ({:.1}% worse, bound {:.0}%)",
                            worse_by * 100.0,
                            m.bound * 100.0
                        )
                    } else if worse_by > 0.0 {
                        format!(
                            "ok ({:.1}% worse, bound {:.0}%)",
                            worse_by * 100.0,
                            m.bound * 100.0
                        )
                    } else {
                        format!("ok ({:.1}% better)", -worse_by * 100.0)
                    }
                }
                _ => {
                    v.regressions += 1;
                    "REGRESSION (value missing)".into()
                }
            };
            row(
                m.name,
                num_text(ma.and_then(|x| x.get("value"))),
                num_text(mb.and_then(|x| x.get("value"))),
                ratio_text(va, vb),
                &verdict,
            );
        }

        for (name, xa) in da.get("exact").and_then(Json::as_obj).unwrap_or(&[]) {
            let xb = db.get("exact").and_then(|e| e.get(name));
            let (ta, tb) = (num_text(Some(xa)), num_text(xb));
            v.rows += 1;
            let verdict = if ta == tb {
                "identical"
            } else {
                v.regressions += 1;
                "DIFFERS (exact metric)"
            };
            row(
                name,
                ta,
                tb,
                ratio_text(xa.as_f64(), xb.and_then(Json::as_f64)),
                verdict,
            );
        }
        for (name, xa) in da.get("host").and_then(Json::as_obj).unwrap_or(&[]) {
            let xb = db.get("host").and_then(|e| e.get(name));
            row(
                name,
                num_text(Some(xa)),
                num_text(xb),
                ratio_text(xa.as_f64(), xb.and_then(Json::as_f64)),
                "info",
            );
        }
        let (ca, cb) = (
            da.get("correct").and_then(Json::as_bool),
            db.get("correct").and_then(Json::as_bool),
        );
        if cb != Some(true) {
            v.regressions += 1;
            v.rows += 1;
            let _ = writeln!(
                out,
                "{w:<16} {:<32} {:>22} {:>22} {:>18}  REGRESSION (B failed its checks)",
                "correct",
                format!("{ca:?}"),
                format!("{cb:?}"),
                "-"
            );
        }
    }
    for (name, xa) in a.get("drives").and_then(Json::as_obj).unwrap_or(&[]) {
        let xb = b.get("drives").and_then(|d| d.get(name));
        fn p25(x: Option<&Json>) -> Option<&Json> {
            x.and_then(|x| x.get("p25"))
        }
        let _ = writeln!(
            out,
            "{:<16} {name:<32} {:>22} {:>22} {:>18}  info",
            "(drive)",
            num_text(p25(Some(xa))),
            num_text(p25(xb)),
            ratio_text(
                p25(Some(xa)).and_then(Json::as_f64),
                p25(xb).and_then(Json::as_f64)
            ),
        );
    }
    let _ = writeln!(
        out,
        "\n{} rows gated: {} regression(s), {} unresolved",
        v.rows, v.regressions, v.unresolved
    );
    Ok((out, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(ops: f64, iqr: f64, virt: f64, correct: bool) -> Json {
        let e2e = |value: f64| {
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str("x")),
                ("iqr_share", Json::Num(iqr)),
            ])
        };
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            (
                "workloads",
                Json::obj([(
                    "w",
                    Json::obj([
                        ("correct", Json::Bool(correct)),
                        (
                            "end_to_end",
                            Json::obj([
                                ("host_ops_per_s", e2e(ops)),
                                ("host_peak_rss_mb", e2e(10.0)),
                                ("setup_s", e2e(0.5)),
                            ]),
                        ),
                        (
                            "exact",
                            Json::obj([
                                ("virt_ops_per_s", Json::Num(virt)),
                                ("virt_p50_ns", Json::Null),
                            ]),
                        ),
                        ("host", Json::obj([("bench.blocks", Json::Num(16.0))])),
                    ]),
                )]),
            ),
            (
                "drives",
                Json::obj([("xdr.encode_ns", Json::obj([("p25", Json::Num(100.0))]))]),
            ),
        ])
    }

    #[test]
    fn same_document_is_clean() {
        let a = doc(1000.0, 0.02, 4000.0, true);
        let (table, v) = diff(&a, &a).unwrap();
        assert_eq!((v.regressions, v.unresolved), (0, 0), "{table}");
        assert_eq!(v.rows, 5);
        assert!(table.contains("identical") && table.contains("1.0000x of A"));
    }

    #[test]
    fn host_bound_applies_in_the_worse_direction_only() {
        let a = doc(1000.0, 0.02, 4000.0, true);
        // 30 % faster is not a regression; 10 % slower is inside the 15 %
        // bound; 18 % slower is not.
        assert_eq!(
            diff(&a, &doc(1300.0, 0.02, 4000.0, true))
                .unwrap()
                .1
                .regressions,
            0
        );
        assert_eq!(
            diff(&a, &doc(900.0, 0.02, 4000.0, true))
                .unwrap()
                .1
                .regressions,
            0
        );
        let (table, v) = diff(&a, &doc(820.0, 0.02, 4000.0, true)).unwrap();
        assert_eq!(v.regressions, 1, "{table}");
        assert!(table.contains("REGRESSION (18.0% worse"));
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = doc(1000.0, 0.02, 4000.0, true);
        let noisy = doc(700.0, 0.30, 4000.0, true);
        let (table, v) = diff(&a, &noisy).unwrap();
        // All three host rows share the 30 % spread; 30 % > every bound.
        assert_eq!((v.regressions, v.unresolved), (0, 3), "{table}");
    }

    #[test]
    fn exact_metrics_must_be_identical_and_checks_must_pass() {
        let a = doc(1000.0, 0.02, 4000.0, true);
        let (table, v) = diff(&a, &doc(1000.0, 0.02, 4000.000001, true)).unwrap();
        assert_eq!(v.regressions, 1, "{table}");
        assert!(table.contains("DIFFERS"));
        assert_eq!(
            diff(&a, &doc(1000.0, 0.02, 4000.0, false))
                .unwrap()
                .1
                .regressions,
            1
        );
        assert!(diff(&a, &Json::obj([("schema", Json::str("other"))])).is_err());
    }
}
