//! End-to-end runs of the `xvi-cli` binary: `serve` as the one
//! workload driver, durably with `--wal` and then `recover`ed, and
//! traced with a metrics snapshot.

use std::path::{Path, PathBuf};
use std::process::Command;

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("xvi-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `xvi-cli` with `args`, asserts success, and returns its stdout
/// and stderr joined.
fn xvi_cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_xvi-cli"))
        .args(args)
        .output()
        .expect("xvi-cli starts");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.status.success(), "xvi-cli {args:?} failed:\n{text}");
    text
}

fn path(p: &Path) -> &str {
    p.to_str().expect("temp paths are UTF-8")
}

/// A durable `serve` completes every request — refused ones are
/// resubmitted — and leaves a log that `recover` replays: every
/// commit on record, every document written and its indices verified.
#[test]
fn durable_serve_then_recover() {
    const OPS: usize = 1000;
    let dir = ScratchDir::new("wal");
    let wal = dir.0.join("wal");
    let ops = OPS.to_string();
    let served = xvi_cli(&["serve", "--docs", "2", "--ops", &ops, "--wal", path(&wal)]);
    assert!(
        served.contains(&format!("completed={OPS}\n")),
        "not every request completed:\n{served}"
    );
    let recovered = xvi_cli(&["recover", path(&wal)]);
    assert!(
        recovered.contains(&format!("({} committed write(s) on record)", OPS / 10)),
        "{recovered}"
    );
    for doc in ["d0", "d1"] {
        let line = recovered
            .lines()
            .map(str::trim_start)
            .find(|l| l.starts_with(&format!("{doc}: version ")))
            .unwrap_or_else(|| panic!("{doc} not recovered:\n{recovered}"));
        assert!(line.ends_with("indices verified"), "{line}");
        let version: u64 = line[format!("{doc}: version ").len()..]
            .split(',')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no version in {line:?}"));
        assert!(version > 0, "{doc} was never written: {line}");
    }
}

/// A traced `serve` writes a metrics snapshot spanning the btree,
/// service and serve layers, in Prometheus text and JSON.
#[test]
fn traced_serve_writes_metrics_snapshot() {
    let dir = ScratchDir::new("metrics");
    let prom = dir.0.join("m.prom");
    xvi_cli(&[
        "serve",
        "--docs",
        "2",
        "--ops",
        "200",
        "--trace-rate",
        "1",
        "--metrics-out",
        path(&prom),
    ]);
    let text = std::fs::read_to_string(&prom).unwrap();
    for prefix in ["xvi_btree_", "xvi_service_", "xvi_serve_"] {
        assert!(
            text.lines()
                .any(|l| l.starts_with("# TYPE") && l.contains(prefix)),
            "no {prefix} series in the snapshot:\n{text}"
        );
    }
    assert!(dir.0.join("m.prom.json").exists());
}
