//! Sampled request tracing and the slow-request flight recorder.
//!
//! A [`Tracer`] hands out [`Trace`]s for a deterministic 1-in-N sample
//! of requests (counter-based — no RNG, so replays trace the same
//! requests). A `Trace` is a cheap `Arc` that layers thread through
//! the pipeline (serve → service → shard leader → planner), each
//! recording [`Stage`] timings against the tracer's injectable
//! [`Clock`]. When a trace is [`Tracer::finish`]ed, it competes for a
//! slot in the [`FlightRecorder`]: a fixed-size buffer retaining the N
//! *slowest* finished requests with their stage breakdown and
//! `--explain`-style annotation, dumpable on demand.
//!
//! The disabled path is near-free: [`Tracer::maybe_start`] is one
//! relaxed atomic load and a branch, and every `Trace` method takes
//! `Option<&Trace>`-shaped call sites that skip clock reads entirely
//! when no trace is attached. The differential test in
//! `crates/index/tests/obs_differential.rs` pins that enabling
//! tracing at sample rate 1.0 changes no query or commit result.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::clock::{Clock, MonotonicClock};

/// A pipeline stage a trace can attribute time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Waiting in a serve-frontend tenant queue for dispatch.
    AdmissionWait,
    /// Waiting in a shard commit queue for a group-commit leader.
    QueueWait,
    /// Serialising + appending the commit batch to the WAL.
    WalAppend,
    /// The group-commit fsync.
    Fsync,
    /// Applying values and publishing the new version (in-place or
    /// COW).
    Publish,
    /// XPath parse + cost-based plan selection.
    Plan,
    /// Index probes (B+tree descent) for the chosen plan.
    Probe,
    /// Structural verification walk (anchor verification + forward
    /// walk, or the fallback scan).
    VerifyWalk,
    /// Time spent executing a request not attributed to a finer stage
    /// (a scan plan, a CLI command).
    Execute,
}

impl Stage {
    /// Stable lowercase name used in dumps and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            Stage::AdmissionWait => "admission_wait",
            Stage::QueueWait => "queue_wait",
            Stage::WalAppend => "wal_append",
            Stage::Fsync => "fsync",
            Stage::Publish => "publish",
            Stage::Plan => "plan",
            Stage::Probe => "probe",
            Stage::VerifyWalk => "verify_walk",
            Stage::Execute => "execute",
        }
    }
}

/// One recorded stage interval.
#[derive(Debug, Clone)]
pub struct StageSample {
    /// Which stage.
    pub stage: Stage,
    /// Start, in tracer-clock nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct TraceInner {
    clock: Arc<dyn Clock>,
    kind: &'static str,
    detail: String,
    start_ns: u64,
    stages: Mutex<Vec<StageSample>>,
    note: Mutex<String>,
}

/// A live trace for one sampled request. Cloning shares the record;
/// stage recording is `&self` so the trace can be threaded by
/// reference through the pipeline.
#[derive(Clone)]
pub struct Trace {
    inner: Arc<TraceInner>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("kind", &self.inner.kind)
            .field("detail", &self.inner.detail)
            .finish()
    }
}

impl Trace {
    /// Current tracer-clock reading, for manual stage bracketing.
    pub fn now_ns(&self) -> u64 {
        self.inner.clock.now_ns()
    }

    /// Records a stage that started at `start_ns` (a prior
    /// [`Trace::now_ns`] reading) and ends now.
    pub fn record_stage(&self, stage: Stage, start_ns: u64) {
        let dur_ns = self.inner.clock.now_ns().saturating_sub(start_ns);
        self.record_stage_dur(stage, start_ns, dur_ns);
    }

    /// Records a stage with an explicit duration (used by the group
    /// commit leader to attribute one shared batch timing to every
    /// trace in the round).
    pub fn record_stage_dur(&self, stage: Stage, start_ns: u64, dur_ns: u64) {
        self.inner.stages.lock().unwrap().push(StageSample {
            stage,
            start_ns,
            dur_ns,
        });
    }

    /// Attaches (appends) a free-form annotation — the `--explain`
    /// plan rendering for queries.
    pub fn annotate(&self, note: &str) {
        let mut n = self.inner.note.lock().unwrap();
        if !n.is_empty() {
            n.push('\n');
        }
        n.push_str(note);
    }
}

/// A finished trace as retained by the [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// Request kind (`"query"`, `"commit"`, …).
    pub kind: &'static str,
    /// Request description captured at start.
    pub detail: String,
    /// Accumulated annotations (plan rendering, …).
    pub note: String,
    /// Start, in tracer-clock nanoseconds.
    pub start_ns: u64,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Recorded stages in completion order.
    pub stages: Vec<StageSample>,
}

impl FinishedTrace {
    /// Sum of all recorded stage durations. The acceptance contract is
    /// that for a traced query this tiles the end-to-end latency to
    /// within 10%.
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.dur_ns).sum()
    }

    /// Multi-line human-readable report: header, per-stage breakdown
    /// with percentages, then the annotation indented.
    pub fn render(&self) -> String {
        let mut out = format!(
            "[{}] {:?} total — {}\n",
            self.kind,
            Duration::from_nanos(self.total_ns),
            self.detail
        );
        for s in &self.stages {
            let pct = if self.total_ns > 0 {
                s.dur_ns as f64 * 100.0 / self.total_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<14} {:>12?}  {:5.1}%\n",
                s.stage.name(),
                Duration::from_nanos(s.dur_ns),
                pct
            ));
        }
        let sum = self.stage_sum_ns();
        out.push_str(&format!(
            "  {:<14} {:>12?}  ({:.1}% of total)\n",
            "stage-sum",
            Duration::from_nanos(sum),
            if self.total_ns > 0 {
                sum as f64 * 100.0 / self.total_ns as f64
            } else {
                0.0
            }
        ));
        if !self.note.is_empty() {
            for line in self.note.lines() {
                out.push_str(&format!("  | {line}\n"));
            }
        }
        out
    }
}

/// Fixed-size retention of the N slowest finished traces.
pub struct FlightRecorder {
    capacity: usize,
    slots: Mutex<Vec<FinishedTrace>>,
    /// Smallest total among retained traces once full — a lock-free
    /// fast reject for the common "this request is not slow" case.
    min_ns: AtomicU64,
    finished: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("finished", &self.finished.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder retaining the `capacity` slowest traces.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            slots: Mutex::new(Vec::new()),
            min_ns: AtomicU64::new(0),
            finished: AtomicU64::new(0),
        }
    }

    /// Number of traces ever offered (not just retained).
    pub fn finished_count(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    fn offer(&self, t: FinishedTrace) {
        self.finished.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.slots.lock().unwrap();
        if slots.len() == self.capacity && t.total_ns <= self.min_ns.load(Ordering::Relaxed) {
            return;
        }
        if slots.len() == self.capacity {
            // Evict the fastest retained trace.
            if let Some((i, _)) = slots.iter().enumerate().min_by_key(|(_, s)| s.total_ns) {
                slots.swap_remove(i);
            }
        }
        slots.push(t);
        let min = slots.iter().map(|s| s.total_ns).min().unwrap_or(0);
        self.min_ns.store(
            if slots.len() == self.capacity { min } else { 0 },
            Ordering::Relaxed,
        );
    }

    /// The retained traces, slowest first.
    pub fn slowest(&self) -> Vec<FinishedTrace> {
        let mut v = self.slots.lock().unwrap().clone();
        v.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        v
    }

    /// Drops all retained traces.
    pub fn clear(&self) {
        self.slots.lock().unwrap().clear();
        self.min_ns.store(0, Ordering::Relaxed);
    }

    /// Renders every retained trace ([`FinishedTrace::render`]),
    /// slowest first.
    pub fn render(&self) -> String {
        let traces = self.slowest();
        if traces.is_empty() {
            return "flight recorder: no traced requests retained\n".to_string();
        }
        let mut out = format!(
            "flight recorder: {} retained of {} traced\n",
            traces.len(),
            self.finished_count()
        );
        for t in traces {
            out.push_str(&t.render());
        }
        out
    }
}

/// Hands out sampled [`Trace`]s and owns the [`FlightRecorder`].
pub struct Tracer {
    clock: Arc<dyn Clock>,
    /// 0 = disabled; N = trace every Nth request.
    sample_every: AtomicU64,
    ticket: AtomicU64,
    recorder: FlightRecorder,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sample_every", &self.sample_every.load(Ordering::Relaxed))
            .field("recorder", &self.recorder)
            .finish()
    }
}

/// Default flight-recorder capacity.
pub const DEFAULT_RECORDER_CAPACITY: usize = 16;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(Arc::new(MonotonicClock::new()))
    }
}

impl Tracer {
    /// A disabled tracer (sample rate 0) over `clock` with the default
    /// recorder capacity.
    pub fn new(clock: Arc<dyn Clock>) -> Tracer {
        Tracer::with_capacity(clock, DEFAULT_RECORDER_CAPACITY)
    }

    /// A disabled tracer with an explicit recorder capacity.
    pub fn with_capacity(clock: Arc<dyn Clock>, capacity: usize) -> Tracer {
        Tracer {
            clock,
            sample_every: AtomicU64::new(0),
            ticket: AtomicU64::new(0),
            recorder: FlightRecorder::new(capacity),
        }
    }

    /// The tracer's clock (shared with stage timers).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Sets the sample rate in `[0, 1]`: 0 disables, 1 traces every
    /// request, otherwise every `round(1/rate)`-th request is traced
    /// (counter-based, deterministic).
    pub fn set_sample_rate(&self, rate: f64) {
        let every = if rate <= 0.0 {
            0
        } else if rate >= 1.0 {
            1
        } else {
            (1.0 / rate).round().max(1.0) as u64
        };
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// Whether any requests are currently sampled.
    pub fn enabled(&self) -> bool {
        self.sample_every.load(Ordering::Relaxed) != 0
    }

    /// Starts a trace if this request falls in the sample. The
    /// `detail` closure only runs for sampled requests, so the
    /// disabled path never formats strings — it is one relaxed load
    /// and a branch.
    pub fn maybe_start(
        &self,
        kind: &'static str,
        detail: impl FnOnce() -> String,
    ) -> Option<Trace> {
        let every = self.sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return None;
        }
        let n = self.ticket.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(every) {
            return None;
        }
        Some(self.start(kind, detail()))
    }

    /// Starts a trace unconditionally (REPL / tests).
    pub fn start(&self, kind: &'static str, detail: String) -> Trace {
        Trace {
            inner: Arc::new(TraceInner {
                clock: Arc::clone(&self.clock),
                kind,
                detail,
                start_ns: self.clock.now_ns(),
                stages: Mutex::new(Vec::new()),
                note: Mutex::new(String::new()),
            }),
        }
    }

    /// Finishes a trace: stamps its end-to-end latency and offers it
    /// to the flight recorder.
    pub fn finish(&self, trace: Trace) {
        let total_ns = self.clock.now_ns().saturating_sub(trace.inner.start_ns);
        let finished = FinishedTrace {
            kind: trace.inner.kind,
            detail: trace.inner.detail.clone(),
            note: trace.inner.note.lock().unwrap().clone(),
            start_ns: trace.inner.start_ns,
            total_ns,
            stages: trace.inner.stages.lock().unwrap().clone(),
        };
        self.recorder.offer(finished);
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual() -> (Arc<ManualClock>, Tracer) {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::with_capacity(clock.clone() as Arc<dyn Clock>, 3);
        (clock, tracer)
    }

    #[test]
    fn disabled_tracer_samples_nothing() {
        let (_c, t) = manual();
        assert!(!t.enabled());
        assert!(t
            .maybe_start("query", || panic!("detail must not be built"))
            .is_none());
    }

    #[test]
    fn sample_every_n_is_deterministic() {
        let (_c, t) = manual();
        t.set_sample_rate(0.25);
        let sampled: Vec<bool> = (0..8)
            .map(|_| t.maybe_start("q", String::new).is_some())
            .collect();
        assert_eq!(
            sampled,
            [true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn stages_and_total_use_injected_clock() {
        let (c, t) = manual();
        t.set_sample_rate(1.0);
        let tr = t.maybe_start("query", || "doc=d1".into()).unwrap();
        let s = tr.now_ns();
        c.advance(Duration::from_micros(40));
        tr.record_stage(Stage::Plan, s);
        let s = tr.now_ns();
        c.advance(Duration::from_micros(60));
        tr.record_stage(Stage::Probe, s);
        tr.annotate("plan: Index(equi)");
        t.finish(tr);
        let got = t.recorder().slowest();
        assert_eq!(got.len(), 1);
        let ft = &got[0];
        assert_eq!(ft.total_ns, 100_000);
        assert_eq!(ft.stage_sum_ns(), 100_000);
        assert_eq!(ft.stages.len(), 2);
        assert_eq!(ft.stages[0].stage, Stage::Plan);
        assert_eq!(ft.stages[0].dur_ns, 40_000);
        assert!(ft.render().contains("plan: Index(equi)"));
        assert!(ft.render().contains("probe"));
    }

    #[test]
    fn recorder_keeps_slowest() {
        let (c, t) = manual();
        t.set_sample_rate(1.0);
        // Durations 1..=6 µs; capacity 3 keeps {6, 5, 4}.
        for us in 1..=6u64 {
            let tr = t.maybe_start("q", || format!("r{us}")).unwrap();
            c.advance(Duration::from_micros(us));
            t.finish(tr);
        }
        let kept: Vec<u64> = t.recorder().slowest().iter().map(|f| f.total_ns).collect();
        assert_eq!(kept, [6_000, 5_000, 4_000]);
        assert_eq!(t.recorder().finished_count(), 6);
        t.recorder().clear();
        assert!(t.recorder().slowest().is_empty());
    }
}
