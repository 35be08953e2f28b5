//! Concurrency experiment: index-service throughput vs. thread count
//! and group-commit batch-size limit (see
//! [`xvi_bench::experiments::run_concurrency`]). Pass `pipelined` to
//! run the single-thread pipelined-commit sweep
//! ([`xvi_bench::experiments::run_pipelined`]): in-flight ticket depth
//! vs. commit throughput. Pass `cow` to run the copy-on-write publish
//! sweep ([`xvi_bench::experiments::run_cow`]): publish µs/commit with
//! a pinned snapshot, shared-page vs. deep-clone behaviour across
//! document sizes. Pass `planner` to run the cost-based-planning sweep
//! ([`xvi_bench::experiments::run_planner`]): cost-based vs.
//! last-predicate plans on multi-predicate XMark queries. Pass `wal`
//! to run the durability sweep ([`xvi_bench::experiments::run_wal`]):
//! durable-commit latency vs. document size, group-fsync WAL vs.
//! per-commit full catalog saves. Pass `aggregates` to run the exact-
//! aggregate sweep ([`xvi_bench::experiments::run_aggregates`]):
//! monoid-summary `count_range` vs. full scan, with identical answers
//! and the `2·depth + 1` probe budget asserted. Pass `serve` to run the open-loop
//! serving sweep ([`xvi_bench::experiments::run_serve`]): latency
//! percentiles (p50/p99/p999) vs. arrival rate through the
//! `xvi-serve` frontend, with typed load-shedding above saturation.
//! Pass `lookup` to run the descent fast-path sweep
//! ([`xvi_bench::experiments::run_lookup`]): point and short-range
//! probe latency over uniform/sorted/zipf streams, branch-cached
//! descents vs. the cold root-walk baseline, with machine-readable
//! results written to `BENCH_lookup.json`.
//!
//! `--metrics-out <path>` (or `XVI_METRICS_OUT=<path>`) makes the
//! service-driving sweeps dump their final metrics-registry snapshot
//! as a Prometheus exposition to `<path>` and JSON to `<path>.json`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = String::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--metrics-out" {
            match args.get(i + 1) {
                Some(path) => std::env::set_var("XVI_METRICS_OUT", path),
                None => {
                    eprintln!("--metrics-out needs a path");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else {
            mode = args[i].clone();
            i += 1;
        }
    }
    let (permille, reps) = (xvi_bench::scale_permille(), xvi_bench::reps());
    match mode.as_str() {
        "" => xvi_bench::experiments::run_concurrency(permille, reps),
        "pipelined" => xvi_bench::experiments::run_pipelined(permille, reps),
        "cow" => xvi_bench::experiments::run_cow(permille, reps),
        "planner" => xvi_bench::experiments::run_planner(permille, reps),
        "wal" => xvi_bench::experiments::run_wal(permille, reps),
        "aggregates" => xvi_bench::experiments::run_aggregates(permille, reps),
        "serve" => xvi_bench::experiments::run_serve(permille, reps),
        "lookup" => xvi_bench::experiments::run_lookup(permille, reps),
        other => {
            eprintln!(
                "unknown mode `{other}` (expected nothing, `pipelined`, `cow`, `planner`, \
                 `wal`, `aggregates`, `serve`, or `lookup`)"
            );
            std::process::exit(2);
        }
    }
}
