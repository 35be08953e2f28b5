//! The repository benchmark: one command that generates the paper's
//! corpus from a seed, drives the xvi crates through their public APIs
//! on one of four workloads, checks every answer, and prints each
//! metric by name with its unit. The last line of standard output is
//! one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lookup --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads, metrics and the reasons behind them are described in
//! `perfbench/README.md`.

mod corpus;
mod ladder;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Corpus size in permille of `Dataset::generate`'s default size
/// (about 12 MB of XML over the eight documents).
pub const SCALE_PERMILLE: u32 = 100;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Length of a measurement block in seconds. A run times each block
/// on its own and reports its best block (see [`Blocked`]).
pub const BLOCK_S: f64 = 0.5;
/// Directory, relative to the working directory, for logs, images
/// and span dumps.
pub const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("eq_p50_us", "us"),
    ("range_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("xml.parse_ns_per_byte", "ns"),
    ("xml.serialize_ns_per_byte", "ns"),
    ("hash.ns_per_value", "ns"),
    ("fsm.ns_per_value", "ns"),
    ("manager.build_ns_per_node", "ns"),
    ("manager.update_us_per_write", "us"),
    ("btree.cache_hit_ratio", "ratio"),
    ("btree.pages_detached_per_commit", "count"),
    ("query.eq_us", "us"),
    ("query.range_us", "us"),
    ("query.xpath_us", "us"),
    ("query.estimate_us", "us"),
    ("query.results_per_op", "count"),
    ("service.query_tax_us", "us"),
    ("service.batch_size", "count"),
    ("service.publish_us", "us"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.bytes_per_write", "bytes"),
    ("persist.checkpoint_s", "s"),
    ("persist.image_load_s", "s"),
    ("recovery.replay_us_per_record", "us"),
    ("serve.submit_us", "us"),
    ("serve.tax_us", "us"),
    ("obs.trace_overhead_frac", "frac"),
];

pub const WORKLOADS: [&str; 4] = ["ingest", "lookup", "update_durable", "serve_mixed"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything one run measured, plus its correctness tally.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed consistency checks (counted in `failed` as well).
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|m| m.0 != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.mismatches.len() < 20 {
                self.mismatches.push(what());
            }
        }
    }

    /// Records a consistency check that is not an operation of its own.
    pub fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }
}

/// Latency samples of one class, in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, since: Instant) -> u64 {
        let ns = since.elapsed().as_nanos() as u64;
        self.0.push(ns);
        ns
    }

    /// The `q` quantile in microseconds (nearest rank).
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.sort_unstable();
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1] as f64 / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        self.0.iter().sum::<u64>() as f64 / self.0.len().max(1) as f64 / 1e3
    }
}

/// Bits of mantissa a [`Hist`] bucket keeps: 128 buckets per power of
/// two, so a quantile is exact to within 1/128 of its value.
const HIST_BITS: u32 = 7;

/// Latencies (ns) as a log-linear histogram. Its size is bounded by
/// the largest latency, not by the sample count, so a long run's
/// samples do not show in `peak_rss_mb`.
#[derive(Default)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Hist {
    fn bucket(ns: u64) -> usize {
        let e = 63 - ns.max(1).leading_zeros();
        if e <= HIST_BITS {
            return ns as usize;
        }
        let shift = e - HIST_BITS;
        (((shift as u64) << HIST_BITS) + (ns >> shift)) as usize
    }

    /// The middle of bucket `i`'s value range.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < 2 << HIST_BITS {
            return i as f64;
        }
        let shift = (i >> HIST_BITS) - 1;
        let mantissa = i - (shift << HIST_BITS);
        ((mantissa << shift) as f64) + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn push(&mut self, ns: u64) {
        let b = Hist::bucket(ns);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q` quantile in microseconds (nearest rank).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Hist::value(i) / 1e3;
            }
        }
        unreachable!("the counts sum to n")
    }
}

/// Latency histograms of the fixed-length blocks of a run.
#[derive(Default)]
pub struct Blocked(Vec<Hist>);

impl Blocked {
    pub fn push(&mut self, block: usize, ns: u64) {
        if self.0.len() <= block {
            self.0.resize_with(block + 1, Hist::default);
        }
        self.0[block].push(ns);
    }

    /// Appends the blocks of a later slice.
    pub fn append(&mut self, other: Blocked) {
        self.0.extend(other.0.into_iter().filter(|b| b.n > 0));
    }

    pub fn len(&self) -> u64 {
        self.0.iter().map(|b| b.n).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The run's `q` quantile in microseconds: each block's own `q`
    /// quantile (over blocks with at least ten samples beyond it),
    /// then the lowest of them.
    ///
    /// The shared host this benchmark was tuned on runs the same
    /// work up to twice as slowly for seconds at a time, with no
    /// steal time and an idle second vCPU inside the guest; the best
    /// block is the figure that repeats from run to run.
    pub fn best_quantile_us(&self, q: f64) -> f64 {
        let need = (10.0 / (1.0 - q)).ceil() as u64;
        let per_block: Vec<f64> = self
            .0
            .iter()
            .filter(|b| b.n >= need)
            .map(|b| b.quantile_us(q))
            .collect();
        if per_block.is_empty() {
            return self.pooled_quantile_us(q);
        }
        per_block.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// The `q` quantile of all samples together, in microseconds.
    pub fn pooled_quantile_us(&self, q: f64) -> f64 {
        let mut all = Hist::default();
        for b in &self.0 {
            all.merge(b);
        }
        all.quantile_us(q)
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `setup` [`SETUP_REPS`] times, keeping the last result, and
/// records the median wall time as `setup_s`.
pub fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(times), "s");
    last.expect("at least one set-up")
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fresh, empty scratch directory under [`OUT_DIR`].
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(OUT_DIR).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    dir
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Size of the write-ahead log files in `dir`.
pub fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".log"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn print_json(report: &Report, names: &[(&str, &str)]) {
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = report
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let mut spans = args.trace.then(spans::SpanLog::new);
    match args.workload.as_str() {
        "ingest" => workloads::ingest(&args, &mut report, spans.as_mut()),
        "lookup" => workloads::lookup(&args, &mut report, spans.as_mut()),
        "update_durable" => workloads::update_durable(&args, &mut report, spans.as_mut()),
        "serve_mixed" => workloads::serve_mixed(&args, &mut report, spans.as_mut()),
        _ => unreachable!("workload names are checked by parse_args"),
    }
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "frac",
    );
    if let Some(log) = &spans {
        let path = Path::new(OUT_DIR).join(format!("spans-{}.tsv", args.workload));
        match log.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        for line in log.summary() {
            println!("{line}");
        }
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {}/{name} = {value:.6} {unit}", args.workload);
    }
    for m in &report.mismatches {
        println!("MISMATCH: {m}");
    }
    println!(
        "workload={} seed={} seconds={} trace={} attempted={} failed={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if args.trace {
        print_json(&report, &PER_LAYER);
    } else {
        print_json(&report, &END_TO_END);
    }
    if report.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A histogram quantile lies within one bucket (1/128) of the
    /// exact nearest-rank quantile of the same samples.
    #[test]
    fn hist_quantiles_are_within_a_bucket() {
        let samples: Vec<u64> = (0..20_000u64)
            .map(|i| (i * 7919) % 3_000_000 + i % 3)
            .collect();
        let mut h = Hist::default();
        for &s in &samples {
            h.push(s);
        }
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = Samples(samples.clone()).quantile_us(q);
            let got = h.quantile_us(q);
            assert!(
                (got - exact).abs() <= exact / 128.0 + 1e-3,
                "q={q}: {got} vs {exact}"
            );
        }
        for ns in [0u64, 1, 255, 256, 257, 511, 512, 1 << 40] {
            let v = Hist::value(Hist::bucket(ns));
            assert!(
                (v - ns as f64).abs() <= ns as f64 / 128.0 + 0.5,
                "{ns} -> {v}"
            );
        }
    }
}
