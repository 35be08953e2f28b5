//! Smoke test for the experiment harness: the exact `table1` / `fig9` /
//! `fig10` / `fig11` logic at permille scale 1 (the `XVI_SCALE=1`
//! setting of the binaries), so the Figure 9-11 reproductions cannot
//! silently rot. Runtime correctness of the numbers is covered by the
//! paper_scenarios / end_to_end suites; here we only require that every
//! dataset generates, shreds, indexes, updates, and reports without
//! panicking.

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

#[test]
fn concurrency_runs_at_tiny_scale() {
    // At permille 1 the experiment also verifies every document's
    // maintained indices against a fresh rebuild after each cell.
    experiments::run_concurrency(1, 1);
}

#[test]
fn pipelined_concurrency_runs_at_tiny_scale() {
    // Same verification applies per depth; the >= 2x speedup claim is
    // a release-mode property at realistic scales, so here we only
    // require the sweep to run and stay consistent.
    experiments::run_pipelined(1, 1);
}

#[test]
fn cow_publish_runs_at_tiny_scale() {
    // At permille 1 every document size also verifies the maintained
    // indices against a fresh rebuild; the >= 5x shared-vs-deep claim
    // is a release-mode property at realistic scales.
    experiments::run_cow(1, 1);
}

#[test]
fn wal_runs_at_tiny_scale() {
    // At permille 1 every document size also drops and reopens the
    // WAL-backed service, checking recovery restores the version count
    // and verifiable indices; the ~flat-latency claim is a
    // release-mode property at realistic scales.
    experiments::run_wal(1, 1);
}

#[test]
fn aggregates_runs_at_tiny_scale() {
    // Every cell asserts the summary-derived exact count identical to
    // the materialised scan and, for range probes, the 2·depth+1 probe
    // budget; the speedup headline is a release-mode property at
    // realistic scales.
    experiments::run_aggregates(1, 1);
}

#[test]
fn planner_runs_at_tiny_scale() {
    // Every planner-experiment cell asserts that cost-based,
    // last-predicate and scan evaluations return identical results;
    // the >= 2x cost-over-last claim is a release-mode property at
    // realistic scales.
    experiments::run_planner(1, 1);
}

#[test]
fn serve_runs_at_tiny_scale() {
    // The open-loop serving sweep, including its built-in assertions:
    // the unbounded top rate must shed load with typed rejections, and
    // every admitted request must record exactly one latency sample.
    experiments::run_serve(1, 1);
}
