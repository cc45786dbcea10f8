#![forbid(unsafe_code)]

//! # pnut-obs — in-tree observability for the verification pipeline
//!
//! A zero-dependency metrics and phase-span layer shared by every
//! engine crate (see `docs/OBSERVABILITY.md` for the full catalogue and
//! schema). The design constraints, in order:
//!
//! 1. **Near-zero cost when off.** Every mutation is gated on one
//!    relaxed [`AtomicBool`] load; with no recorder installed a counter
//!    increment is a load-and-branch, nothing else. The
//!    `reach/obs_overhead` bench series gates this claim in CI.
//! 2. **Results stay bit-identical.** Telemetry never touches stdout
//!    and never feeds back into exploration. Counter/gauge/histogram
//!    snapshots contain no wall-clock data, so two jobs=1 runs of the
//!    same model produce *identical* snapshots (spans are the one timed
//!    exception and are excluded from [`Snapshot::metrics_eq`]).
//! 3. **Static registry.** All metrics are `static`s declared centrally
//!    in [`metrics`] and enumerated through [`metrics::REGISTRY`] — an
//!    emitter or checker can walk the full catalogue without a
//!    registration step at runtime.
//!
//! The intended session shape (the CLI's `--stats` / `--metrics-json`
//! flags follow it):
//!
//! ```
//! pnut_obs::install();                       // reset + enable
//! {
//!     let _build = pnut_obs::span("build");  // timed phase
//!     pnut_obs::metrics::STORE_MISSES.inc(); // hot-path counters
//! }
//! let snap = pnut_obs::snapshot();
//! pnut_obs::uninstall();
//! assert_eq!(snap.counter("store.misses"), 1);
//! let mut ndjson = Vec::new();
//! snap.write_ndjson(&mut ndjson, "reach").unwrap();
//! ```
//!
//! All state is process-global (that is what makes the hot-path gate a
//! single load), so tests that install a recorder must live in their
//! own test binary and serialize on a mutex — the same discipline
//! `pnut_reach::pager::fail` already imposes.

pub mod bytes;
pub mod metrics;
mod render;

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is a recorder installed? Metric mutations check this themselves;
/// call sites only need it to skip *building* expensive inputs (e.g.
/// formatting a heartbeat line).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install the process-global recorder: all metrics reset to zero, the
/// span log clears, and subsequent mutations are recorded.
pub fn install() {
    let mut log = span_log();
    metrics::reset_all();
    log.records.clear();
    log.epoch = Some(Instant::now());
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording. Metric values and spans remain readable (a final
/// [`snapshot`] after `uninstall` sees the finished session) until the
/// next [`install`] resets them.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Phase spans
// ---------------------------------------------------------------------

/// One closed phase span. `path` is the `/`-joined nesting at open time
/// (`"build/seal"`); offsets are relative to the [`install`] epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub path: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

struct SpanLog {
    epoch: Option<Instant>,
    records: Vec<SpanRecord>,
}

static SPANS: Mutex<SpanLog> = Mutex::new(SpanLog {
    epoch: None,
    records: Vec::new(),
});

fn span_log() -> MutexGuard<'static, SpanLog> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    // Span nesting is tracked per thread: only the orchestrating thread
    // opens spans, worker pools never do, so a thread-local stack gives
    // hierarchical paths without any cross-thread coordination.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for a timed phase; the span closes (and is recorded) on
/// drop. Inert when no recorder is installed.
#[must_use = "a span is timed until this guard drops"]
pub struct SpanGuard {
    path: Option<String>,
    start: Option<Instant>,
}

/// Open a hierarchical timed phase span. Spans opened while this guard
/// is live (on the same thread) nest under it.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            path: None,
            start: None,
        };
    }
    let path = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let path = if stack.is_empty() {
            name.to_string()
        } else {
            format!("{}/{name}", stack.join("/"))
        };
        stack.push(name);
        path
    });
    SpanGuard {
        path: Some(path),
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else { return };
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let end = Instant::now();
        let mut log = span_log();
        if let (Some(epoch), Some(start)) = (log.epoch, self.start) {
            let start_ns = start.duration_since(epoch).as_nanos() as u64;
            let dur_ns = end.duration_since(start).as_nanos() as u64;
            log.records.push(SpanRecord {
                path,
                start_ns,
                dur_ns,
            });
        }
    }
}

// ---------------------------------------------------------------------
// Progress heartbeats
// ---------------------------------------------------------------------

static PROGRESS_EVERY: AtomicU64 = AtomicU64::new(0);

/// Emit a heartbeat every `n` ticks (levels, events, iterations — the
/// engine decides what a tick is). `0` disables heartbeats.
pub fn set_progress_every(n: u64) {
    PROGRESS_EVERY.store(n, Ordering::Relaxed);
}

/// Emit one progress heartbeat to stderr if heartbeats are enabled and
/// `tick` lands on the configured interval. The line closure only runs
/// when a line is actually printed, so callers may format freely. Lines
/// must be built from deterministic quantities only (no wall time) so a
/// given run configuration always prints the same heartbeats.
pub fn heartbeat(tick: u64, line: impl FnOnce() -> String) {
    let n = PROGRESS_EVERY.load(Ordering::Relaxed);
    if n != 0 && tick.is_multiple_of(n) {
        eprintln!("pnut: {}", line());
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// One histogram, snapshotted: power-of-two `(bucket_lo, count)` pairs
/// for the non-empty buckets plus running `count`/`sum`/`max`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub name: &'static str,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time copy of every registered metric plus the span log.
/// Counters/gauges/histograms are deterministic for a fixed run
/// configuration at jobs=1; spans carry wall-clock durations and are
/// therefore excluded from [`Snapshot::metrics_eq`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, u64)>,
    pub hists: Vec<HistSnapshot>,
    pub spans: Vec<SpanRecord>,
}

/// Snapshot every registered metric and the span log, in registry
/// order (spans in start order).
pub fn snapshot() -> Snapshot {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut hists = Vec::new();
    for metric in metrics::REGISTRY {
        match *metric {
            metrics::Metric::Counter(name, c) => counters.push((name, c.get())),
            metrics::Metric::Gauge(name, g) => gauges.push((name, g.get())),
            metrics::Metric::Histogram(name, h) => hists.push(h.snapshot(name)),
        }
    }
    let mut spans = span_log().records.clone();
    spans.sort_by_key(|s| s.start_ns);
    Snapshot {
        counters,
        gauges,
        hists,
        spans,
    }
}

impl Snapshot {
    /// Value of a counter by registry name (0 if unknown — registry
    /// names are static, so a typo shows up as a test failure, not a
    /// panic in production output paths).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Value of a gauge by registry name (0 if unknown).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Deterministic comparison: counters, gauges and histograms only.
    /// Spans are wall-clock and differ between any two runs.
    pub fn metrics_eq(&self, other: &Snapshot) -> bool {
        self.counters == other.counters && self.gauges == other.gauges && self.hists == other.hists
    }

    /// Emit the snapshot as NDJSON (one JSON object per line). The
    /// schema is documented in `docs/OBSERVABILITY.md` and validated in
    /// CI by `metrics_check`; the first line is a
    /// `{"type":"meta","version":1,"tool":...}` header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_ndjson<W: Write>(&self, w: &mut W, tool: &str) -> io::Result<()> {
        render::write_ndjson(self, w, tool)
    }

    /// Render the human `--stats` summary (phases, counters, gauges,
    /// histograms, derived rates).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn render_human<W: Write>(&self, w: &mut W) -> io::Result<()> {
        render::render_human(self, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{STORE_HITS, STORE_MISSES, STORE_PROBES};

    // Everything here toggles the process-global recorder; serialize.
    static GUARD: Mutex<()> = Mutex::new(());

    fn serial<'a>() -> MutexGuard<'a, ()> {
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_mutations_are_dropped() {
        let _g = serial();
        uninstall();
        install();
        uninstall();
        STORE_PROBES.inc();
        STORE_PROBES.add(41);
        metrics::REACH_PEAK_FRONTIER.set_max(7);
        metrics::REACH_FRONTIER_WIDTH.record(32);
        let _span = span("never");
        drop(_span);
        let snap = snapshot();
        assert!(snap.counters.iter().all(|&(_, v)| v == 0));
        assert!(snap.gauges.iter().all(|&(_, v)| v == 0));
        assert!(snap.hists.iter().all(|h| h.count == 0));
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn install_records_and_resets() {
        let _g = serial();
        install();
        STORE_PROBES.add(10);
        STORE_HITS.add(4);
        STORE_MISSES.add(6);
        {
            let _outer = span("build");
            let _inner = span("seal");
        }
        let snap = snapshot();
        uninstall();
        assert_eq!(snap.counter("store.probes"), 10);
        assert_eq!(snap.counter("store.hits"), 4);
        assert_eq!(snap.counter("store.misses"), 6);
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["build", "build/seal"]);
        // A fresh install clears everything.
        install();
        let clean = snapshot();
        uninstall();
        assert_eq!(clean.counter("store.probes"), 0);
        assert!(clean.spans.is_empty());
    }

    #[test]
    fn metrics_eq_ignores_spans() {
        let _g = serial();
        install();
        STORE_PROBES.add(3);
        let _s = span("build");
        drop(_s);
        let a = snapshot();
        install();
        STORE_PROBES.add(3);
        let b = snapshot();
        uninstall();
        assert!(a.metrics_eq(&b), "span differences must not matter");
        assert_ne!(a.spans.len(), b.spans.len());
    }

    #[test]
    fn histograms_bucket_by_powers_of_two() {
        let _g = serial();
        install();
        for v in [0, 1, 2, 3, 4, 1000] {
            metrics::REACH_FRONTIER_WIDTH.record(v);
        }
        let snap = snapshot();
        uninstall();
        let h = snap
            .hists
            .iter()
            .find(|h| h.name == "reach.frontier_width")
            .unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.max, 1000);
        // 0 → [0], 1 → [1], 2..3 → [2], 4 → [4], 1000 → [512].
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (2, 2), (4, 1), (512, 1)]);
    }

    #[test]
    fn ndjson_is_one_valid_object_per_line() {
        let _g = serial();
        install();
        STORE_PROBES.add(2);
        let snap = snapshot();
        uninstall();
        let mut buf = Vec::new();
        snap.write_ndjson(&mut buf, "reach").unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            r#"{"type":"meta","version":1,"tool":"reach"}"#
        );
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains(r#""type":""#), "{line}");
        }
        assert!(text.contains(r#"{"type":"counter","name":"store.probes","value":2}"#));
    }

    #[test]
    fn heartbeat_honors_interval() {
        let _g = serial();
        set_progress_every(0);
        let mut fired = false;
        heartbeat(10, || {
            fired = true;
            String::new()
        });
        assert!(!fired, "disabled heartbeat must not format");
        set_progress_every(4);
        let mut count = 0;
        for tick in 1..=12u64 {
            heartbeat(tick, || {
                count += 1;
                format!("tick {tick}")
            });
        }
        set_progress_every(0);
        assert_eq!(count, 3, "ticks 4, 8, 12");
    }
}
