//! The metrics registry and the one text-report path.
//!
//! A [`MetricsRegistry`] is a named collection of [`Histogram`]s.
//! Workload request spans record per-request latencies here; the
//! benchmark tables read p50/p99/p999 back out. Names are kept in a
//! `BTreeMap` so iteration — and therefore every rendered report — is
//! deterministic.
//!
//! [`Table`] is the single report renderer the bench tables print
//! through: column headers plus stringified rows, aligned and rendered
//! by one code path instead of one hand-rolled format string per table.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;

/// Named histograms with interior mutability, so recording needs only a
/// shared reference (the tracer holds one registry behind an `Rc`).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    hists: RefCell<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Records one sample into the named histogram (created on first
    /// use).
    pub fn record(&self, name: &str, value: u64) {
        let mut hists = self.hists.borrow_mut();
        hists.entry(name.to_string()).or_default().record(value);
    }

    /// A snapshot of the named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.hists.borrow().get(name).copied()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.hists.borrow().is_empty()
    }

    /// Renders every histogram as one percentile table (count, p50, p99,
    /// p999, max in microseconds) — the registry's own report path.
    pub fn report(&self) -> String {
        let mut t = Table::new("Metrics");
        t.columns(&["metric", "count", "p50 µs", "p99 µs", "p999 µs", "max µs"]);
        for (name, h) in self.hists.borrow().iter() {
            t.row(vec![
                name.clone(),
                h.count().to_string(),
                fmt_us(h.p50()),
                fmt_us(h.p99()),
                fmt_us(h.p999()),
                fmt_us(h.max()),
            ]);
        }
        t.render()
    }
}

/// Formats nanoseconds as microseconds with three decimals.
pub fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// A deterministic text table: the one rendering path for every
/// benchmark table. The first column is left-aligned (labels), all
/// others right-aligned (numbers).
#[derive(Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with a title line.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            headers: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the column headers.
    pub fn columns(&mut self, names: &[&str]) -> &mut Self {
        self.headers = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Appends one row. Short rows are padded with empty cells; long
    /// rows extend the column count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders title, header rule and rows with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for row in std::iter::once(&self.headers).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let line = |row: &[String]| {
            let mut s = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    s.push_str("  ");
                }
                if i == 0 {
                    s.push_str(&format!("{cell:<w$}"));
                } else {
                    s.push_str(&format!("{cell:>w$}"));
                }
            }
            s.trim_end().to_string()
        };
        if !self.headers.is_empty() {
            let h = line(&self.headers);
            let _ = writeln!(out, "{h}");
            let _ = writeln!(out, "{}", "-".repeat(h.len()));
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_records_and_reports() {
        let r = MetricsRegistry::new();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            r.record("request_ns", v);
        }
        let h = r.histogram("request_ns").unwrap();
        assert_eq!(h.count(), 4);
        assert!(h.p50() <= h.p99() && h.p99() <= h.p999());
        let report = r.report();
        assert!(report.contains("request_ns"));
    }

    #[test]
    fn table_renders_deterministically_aligned() {
        let mut t = Table::new("T");
        t.columns(&["name", "x"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let r1 = t.render();
        let r2 = t.render();
        assert_eq!(r1, r2);
        assert!(r1.starts_with("T\n"));
        assert!(r1.contains("long-name"));
    }
}
