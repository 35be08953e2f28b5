//! # xvi-bench — the experiment harness
//!
//! Binaries regenerating the paper's evaluation (§6):
//!
//! | target | paper content | run with |
//! |--------|---------------|----------|
//! | `table1` | dataset statistics | `cargo run -p xvi-bench --release --bin table1` |
//! | `fig9`   | index creation time & storage overhead | `… --bin fig9` |
//! | `fig10`  | update time vs. number of updated nodes | `… --bin fig10` |
//! | `fig11`  | hash stability (collision distribution) | `… --bin fig11` |
//!
//! Document sizes default to ≈ 1/16 of the paper's (laptop scale); set
//! `XVI_SCALE` (permille of that default, e.g. `XVI_SCALE=100` for a
//! 10× smaller smoke run) and `XVI_REPS` to trade fidelity for time.
//!
//! Criterion microbenches (`cargo bench -p xvi-bench`) cover the
//! substrate ablations: `H`/`C` throughput, SCT probe vs. hash
//! combine, B+tree ops, index creation/update, and the
//! lookup-vs-scan crossover.
//!
//! System throughput, latency and durability are not measured here:
//! the `perfbench` package at the repository root is the system
//! benchmark, and `xvi-cli stress` / `xvi-cli serve` drive the service
//! and the serving frontend by hand.

use std::time::{Duration, Instant};

use xvi_datagen::Dataset;
use xvi_xml::Document;

pub mod experiments;

/// Scale in permille of the default dataset size (`XVI_SCALE`).
pub fn scale_permille() -> u32 {
    std::env::var("XVI_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

/// Repetitions for timed measurements (`XVI_REPS`; the paper used 20).
/// At least 1: every timed reproduction divides by or indexes with it.
pub fn reps() -> usize {
    std::env::var("XVI_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
        .max(1)
}

/// Generates and shreds one dataset, returning `(xml, doc)`.
pub fn load(ds: Dataset, permille: u32) -> (String, Document) {
    let xml = ds.generate(permille);
    let doc = Document::parse(&xml).unwrap_or_else(|e| panic!("{}: {e}", ds.name()));
    (xml, doc)
}

/// Times a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Mean duration of `reps` runs of `f` (each run gets the rep index).
pub fn time_mean(reps: usize, mut f: impl FnMut(usize)) -> Duration {
    let mut total = Duration::ZERO;
    for i in 0..reps {
        let start = Instant::now();
        f(i);
        total += start.elapsed();
    }
    total / reps as u32
}

/// Fixed-width table printer for the experiment binaries.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Creates a table and prints the header row.
    pub fn new(headers: &[(&str, usize)]) -> Table {
        let widths: Vec<usize> = headers.iter().map(|(_, w)| *w).collect();
        let t = Table { widths };
        t.row(
            &headers
                .iter()
                .map(|(h, _)| h.to_string())
                .collect::<Vec<_>>(),
        );
        println!(
            "{}",
            "-".repeat(t.widths.iter().sum::<usize>() + t.widths.len() * 2)
        );
        t
    }

    /// Prints one row; cells beyond the declared columns are ignored.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(self.widths.len()) {
            line.push_str(&format!("{:>w$}  ", cell, w = self.widths[i]));
        }
        println!("{}", line.trim_end());
    }
}

/// Formats a byte count as MB with one decimal.
pub fn mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a duration as integer milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1000.0)
}

/// Formats `part / whole` as a percentage with one decimal.
pub fn pct(part: usize, whole: usize) -> String {
    if whole == 0 {
        return "0.0%".into();
    }
    format!("{:.1}%", 100.0 * part as f64 / whole as f64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn zero_reps_clamps_to_one() {
        std::env::set_var("XVI_REPS", "0");
        assert_eq!(super::reps(), 1);
    }
}
