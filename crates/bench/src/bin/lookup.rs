//! Descent fast paths: branch-cached vs. cold root-walk probes, with
//! machine-readable results written to `BENCH_lookup.json`.
//!
//! Thin wrapper over [`xvi_bench::experiments::run_lookup`]; scale via
//! `XVI_SCALE`, repetitions via `XVI_REPS`.

use xvi_bench::{experiments, reps, scale_permille};

fn main() {
    experiments::run_lookup(scale_permille(), reps());
}
