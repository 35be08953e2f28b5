//! Smoke test for the experiment harness: the exact `table1` / `fig9` /
//! `fig10` / `fig11` logic at permille scale 1 (the `XVI_SCALE=1`
//! setting of the binaries), so the Table 1 and Figure 9-11
//! reproductions cannot silently rot. Runtime correctness of the
//! numbers is covered by the paper_scenarios / end_to_end suites; here
//! we only require that every dataset generates, shreds, indexes,
//! updates, and reports without panicking. Service, WAL, planner,
//! aggregate and serving behaviour is checked by their own suites
//! (`concurrency`, `commutativity`, `cow_model`, `wal_recovery`,
//! `planner`, `summary_props`, `exact_estimates`, `stats_props` and
//! the `xvi-serve` tests).

use xvi_bench::experiments;

#[test]
fn table1_runs_at_tiny_scale() {
    experiments::run_table1(1);
}

#[test]
fn fig9_runs_at_tiny_scale() {
    experiments::run_fig9(1, 1);
}

#[test]
fn fig10_runs_at_tiny_scale() {
    experiments::run_fig10(1, 1);
}

#[test]
fn fig11_runs_at_tiny_scale() {
    experiments::run_fig11(1);
}
