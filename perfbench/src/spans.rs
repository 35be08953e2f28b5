//! The benchmark's own spans, recorded in the traced run around each
//! call into a layer: name, start, end, parent span and request id.
//! They stay in memory and are written out at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: u32,
}

pub struct SpanLog {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty log for another thread, on the same time base.
    pub fn fork(&self, thread: u32) -> SpanLog {
        SpanLog {
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends the spans of a forked log.
    pub fn join(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, request: u64) {
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            thread: self.thread,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now();
    }

    /// Records a span that was timed elsewhere (no parent).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
            thread: self.thread,
        });
    }

    /// Writes the spans as tab-separated lines under a header (`-` for
    /// no parent); a traced run records millions of them.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest\tthread")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.request, s.thread
            )?;
        }
        out.flush()
    }

    /// Per span name: count, total and self time (duration minus the
    /// time covered by child spans).
    pub fn summary(&self) -> Vec<String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let d = s.end_ns.saturating_sub(s.start_ns);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(*child);
        }
        by_name
            .into_iter()
            .map(|(name, (n, total, own))| {
                format!(
                    "span {name}: count={n} total_ms={:.3} self_ms={:.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                )
            })
            .collect()
    }
}

/// Runs `f` inside a span when a log is given.
pub fn span<R>(
    log: &mut Option<&mut SpanLog>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match log {
        Some(l) => {
            l.enter(name, request);
            let r = f();
            l.exit();
            r
        }
        None => f(),
    }
}
