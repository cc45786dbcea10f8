//! The benchmark's own layer spans, and the `pnut_obs` totals read back
//! from the recorder the crates already feed.
//!
//! A span here is the wall time of one public call into a crate, taken
//! from outside that crate. Spans are recorded only in the traced run;
//! the work counts next to them (states built, trace bytes) are plain
//! integer additions and are kept in both runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layers the benchmark times, named after the crates they enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `pnut_lang::parse`.
    Parse,
    /// `build_untimed` / `build_timed`.
    Build,
    /// `deadlocks` / `place_bounds`.
    Analysis,
    /// `Formula::parse` + `ctl::check`.
    Ctl,
    /// `pnut_analysis::lint`.
    Lint,
    /// `pnut_analysis::check_invariants`.
    CheckInvariants,
    /// `markov::steady_state`.
    Markov,
    /// `simulate` / `Simulator::run`.
    Sim,
    /// `RecordedTrace::write_json`.
    TraceWrite,
    /// `RecordedTrace::read_json`.
    TraceRead,
    /// `pnut_stat::analyze` / `StatCollector::into_report`.
    Stat,
    /// `Query::parse` + `Query::check`.
    Query,
    /// `pnut_tracer::measure`.
    Measure,
}

const LAYERS: usize = Layer::Measure as usize + 1;

/// Per-layer span totals plus the work counts measured at the same
/// boundaries.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    total: [Duration; LAYERS],
    /// Operations that entered each layer at least once.
    ops_in: [u64; LAYERS],
    touched: [bool; LAYERS],
    /// States in every graph the `reach` operations built.
    pub states_built: u64,
    /// States of every chain `markov` solved.
    pub markov_states: u64,
    pub trace_bytes_written: u64,
    pub trace_bytes_read: u64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            ..Spans::default()
        }
    }

    /// Run `f` as one span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.total[layer as usize] += start.elapsed();
        self.touched[layer as usize] = true;
        out
    }

    /// Close one operation: every layer it entered counts it once.
    pub fn end_op(&mut self) {
        for (n, t) in self.ops_in.iter_mut().zip(&mut self.touched) {
            *n += u64::from(std::mem::take(t));
        }
    }

    pub fn total(&self, layer: Layer) -> Duration {
        self.total[layer as usize]
    }

    /// Span time summed over every layer.
    pub fn attributed(&self) -> Duration {
        self.total.iter().sum()
    }

    /// Mean time per operation that entered the layer (0 when none did).
    pub fn mean_ms(&self, layer: Layer) -> f64 {
        let n = self.ops_in[layer as usize];
        if n == 0 {
            0.0
        } else {
            ms(self.total(layer)) / n as f64
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything `pnut_obs` recorded over a pass, summed per operation:
/// counters and histogram totals add, gauges keep their maximum. The
/// counter, gauge and histogram maps are deterministic at one job, so two
/// passes over the same operations must produce equal maps (the
/// fingerprint); spans are wall time and are kept apart.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ObsTotals {
    pub counters: BTreeMap<&'static str, u64>,
    pub gauges: BTreeMap<&'static str, u64>,
    pub hists: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl ObsTotals {
    pub fn add(&mut self, snap: &pnut_obs::Snapshot) {
        for &(name, v) in &snap.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for &(name, v) in &snap.gauges {
            let g = self.gauges.entry(name).or_default();
            *g = (*g).max(v);
        }
        for h in &snap.hists {
            let e = self.hists.entry(h.name).or_default();
            e.0 += h.count;
            e.1 += h.sum;
            e.2 = e.2.max(h.max);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// FNV-1a over every deterministic value, for the report.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (name, v) in self.counters.iter().chain(&self.gauges) {
            eat(name.as_bytes());
            eat(&v.to_le_bytes());
        }
        for (name, (c, s, m)) in &self.hists {
            eat(name.as_bytes());
            for v in [c, s, m] {
                eat(&v.to_le_bytes());
            }
        }
        h
    }
}

/// Durations of the spans the crates open themselves, summed by path.
pub fn add_crate_spans(into: &mut BTreeMap<String, Duration>, snap: &pnut_obs::Snapshot) {
    for s in &snap.spans {
        *into.entry(s.path.clone()).or_default() += Duration::from_nanos(s.dur_ns);
    }
}
