//! The static metric registry: every counter, gauge and histogram in
//! the system is declared here, once, as a `static`, and enumerated
//! through [`REGISTRY`]. Engine crates import the statics directly
//! (`metrics::PAGER_FAULTS.inc()`), emitters and checkers walk the
//! registry — there is no runtime registration step and no way for a
//! metric to exist without appearing in the catalogue.
//!
//! Every mutation is gated on the recorder flag (one relaxed atomic
//! load); with no recorder installed nothing is ever written, so all
//! values read zero (see `tests/observability.rs` at the workspace
//! root, which pins that contract).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::enabled;

/// Monotone event count (relaxed atomic; safe from worker threads).
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline(always)]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// Last-write-wins level (plus [`Gauge::set_max`] for peaks).
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    #[inline(always)]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Ratchet the gauge up to `v` if `v` is larger (peak tracking).
    #[inline(always)]
    pub fn set_max(&self, v: u64) {
        if enabled() {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// Number of power-of-two buckets: bucket 0 holds exact zeros, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`; u64 needs 64 such ranges.
const HIST_BUCKETS: usize = 65;

/// Fixed-bucket power-of-two histogram with running sum and max.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, name: &'static str) -> crate::HistSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0;
        for (idx, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                let lo = if idx == 0 { 0 } else { 1u64 << (idx - 1) };
                buckets.push((lo, n));
                count += n;
            }
        }
        crate::HistSnapshot {
            name,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// One registry entry: the metric's catalogue name and a reference to
/// its static.
pub enum Metric {
    Counter(&'static str, &'static Counter),
    Gauge(&'static str, &'static Gauge),
    Histogram(&'static str, &'static Histogram),
}

// --- pager: disk-backed paging of the state/edge arenas --------------

/// Reload attempts of a spilled segment (`faults == fault_failures +
/// reloads` always; on a clean run `faults == reloads`).
pub static PAGER_FAULTS: Counter = Counter::new();
/// Reload attempts that failed (I/O error or corrupt image).
pub static PAGER_FAULT_FAILURES: Counter = Counter::new();
/// Reload attempts that succeeded.
pub static PAGER_RELOADS: Counter = Counter::new();
/// Sealed segments evicted from the resident set.
pub static PAGER_EVICTIONS: Counter = Counter::new();
/// Bytes read back from the spill file.
pub static PAGER_SPILL_READ_BYTES: Counter = Counter::new();
/// Bytes written to the spill file.
pub static PAGER_SPILL_WRITE_BYTES: Counter = Counter::new();
/// Bytes currently resident under the shared ledger.
pub static PAGER_RESIDENT_BYTES: Gauge = Gauge::new();
/// High-water mark of [`PAGER_RESIDENT_BYTES`].
pub static PAGER_PEAK_RESIDENT_BYTES: Gauge = Gauge::new();
/// The configured budget (`u64::MAX` = unlimited). Sealed segments are
/// written at most once, so [`PAGER_SPILL_WRITE_BYTES`] doubles as
/// "bytes spilled"; there is no separate gauge for it.
pub static PAGER_BUDGET_BYTES: Gauge = Gauge::new();

// --- store: interned state deduplication -----------------------------

/// Duplicate-detection probes (one per intern).
pub static STORE_PROBES: Counter = Counter::new();
/// Probes that found the state already interned.
pub static STORE_HITS: Counter = Counter::new();
/// New states appended to the arenas (`== distinct states`).
pub static STORE_MISSES: Counter = Counter::new();

// --- reach: breadth-first exploration --------------------------------

/// Completed BFS levels (both sequential and parallel builds).
pub static REACH_LEVELS: Counter = Counter::new();
/// Frontier width at each level barrier.
pub static REACH_FRONTIER_WIDTH: Histogram = Histogram::new();
/// Widest frontier seen.
pub static REACH_PEAK_FRONTIER: Gauge = Gauge::new();

// --- ctl: branching-time model checking ------------------------------

/// Whole-graph segment sweeps performed by the CTL evaluator.
pub static CTL_SWEEPS: Counter = Counter::new();
/// Fixpoint iterations of the `E[.U.]` evaluator (EF/AG route here).
pub static CTL_EU_ITERATIONS: Counter = Counter::new();
/// Fixpoint iterations of the `EG` evaluator (AF routes here).
pub static CTL_EG_ITERATIONS: Counter = Counter::new();

// --- markov: semi-Markov steady state --------------------------------

/// Jump-chain edges extracted from the timed graph.
pub static MARKOV_EXTRACTED_EDGES: Counter = Counter::new();
/// Gauss–Seidel sweeps of the steady-state solver.
pub static MARKOV_SOLVER_ITERATIONS: Counter = Counter::new();

// --- sim / cover ------------------------------------------------------

/// Transition firings executed by the discrete-event simulator.
pub static SIM_EVENTS: Counter = Counter::new();
/// Karp–Miller tree nodes expanded.
pub static COVER_NODES: Counter = Counter::new();

// --- analysis (static lint + invariant cross-check) -------------------

/// Lint findings emitted, all severities.
pub static ANALYSIS_LINT_FINDINGS: Counter = Counter::new();
/// Lint findings of severity `error`.
pub static ANALYSIS_LINT_ERRORS: Counter = Counter::new();
/// States whose P-invariant sums were verified by `--check-invariants`.
pub static ANALYSIS_INVARIANT_STATES: Counter = Counter::new();

/// The full metric catalogue, in emission order. `docs/OBSERVABILITY.md`
/// mirrors this list; `metrics_check` validates emitted NDJSON against
/// it.
pub static REGISTRY: &[Metric] = &[
    Metric::Counter("pager.faults", &PAGER_FAULTS),
    Metric::Counter("pager.fault_failures", &PAGER_FAULT_FAILURES),
    Metric::Counter("pager.reloads", &PAGER_RELOADS),
    Metric::Counter("pager.evictions", &PAGER_EVICTIONS),
    Metric::Counter("pager.spill_read_bytes", &PAGER_SPILL_READ_BYTES),
    Metric::Counter("pager.spill_write_bytes", &PAGER_SPILL_WRITE_BYTES),
    Metric::Gauge("pager.resident_bytes", &PAGER_RESIDENT_BYTES),
    Metric::Gauge("pager.peak_resident_bytes", &PAGER_PEAK_RESIDENT_BYTES),
    Metric::Gauge("pager.budget_bytes", &PAGER_BUDGET_BYTES),
    Metric::Counter("store.probes", &STORE_PROBES),
    Metric::Counter("store.hits", &STORE_HITS),
    Metric::Counter("store.misses", &STORE_MISSES),
    Metric::Counter("reach.levels", &REACH_LEVELS),
    Metric::Histogram("reach.frontier_width", &REACH_FRONTIER_WIDTH),
    Metric::Gauge("reach.peak_frontier", &REACH_PEAK_FRONTIER),
    Metric::Counter("ctl.sweeps", &CTL_SWEEPS),
    Metric::Counter("ctl.eu_iterations", &CTL_EU_ITERATIONS),
    Metric::Counter("ctl.eg_iterations", &CTL_EG_ITERATIONS),
    Metric::Counter("markov.extracted_edges", &MARKOV_EXTRACTED_EDGES),
    Metric::Counter("markov.solver_iterations", &MARKOV_SOLVER_ITERATIONS),
    Metric::Counter("sim.events", &SIM_EVENTS),
    Metric::Counter("cover.nodes", &COVER_NODES),
    Metric::Counter("analysis.lint_findings", &ANALYSIS_LINT_FINDINGS),
    Metric::Counter("analysis.lint_errors", &ANALYSIS_LINT_ERRORS),
    Metric::Counter("analysis.invariant_states", &ANALYSIS_INVARIANT_STATES),
];

/// Zero every registered metric (called by [`crate::install`]).
pub(crate) fn reset_all() {
    for metric in REGISTRY {
        match *metric {
            Metric::Counter(_, c) => c.reset(),
            Metric::Gauge(_, g) => g.reset(),
            Metric::Histogram(_, h) => h.reset(),
        }
    }
}
