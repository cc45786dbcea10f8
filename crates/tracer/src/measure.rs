//! Timing measurements over traces.
//!
//! Markers (Figure 7) measure one interval by hand; this module measures
//! *populations*: pulse widths and duty cycles of a signal (how long is
//! the bus held per acquisition?), inter-firing intervals of a
//! transition (how regular is instruction issue?), and start-to-start
//! latencies between two transitions (how long from decode to issue?) —
//! the questions a systems engineer asks of a logic-state analyzer
//! (§4.4).

use pnut_core::{Time, TransitionId};
use pnut_trace::{DeltaKind, RecordedTrace};
use std::fmt;

/// One contiguous episode during which a signal was non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pulse {
    /// When the signal became non-zero.
    pub start: Time,
    /// When it returned to zero (exclusive); open pulses at the end of
    /// the trace are closed at the trace end time.
    pub end: Time,
}

impl Pulse {
    /// Pulse width in ticks.
    pub fn width(&self) -> u64 {
        self.end.ticks() - self.start.ticks()
    }
}

/// Aggregate statistics over a pulse population.
#[derive(Debug, Clone, PartialEq)]
pub struct PulseStats {
    /// Individual pulses in time order.
    pub pulses: Vec<Pulse>,
    /// Fraction of the observation window the signal was non-zero.
    pub duty_cycle: f64,
}

impl PulseStats {
    /// Number of pulses.
    pub fn count(&self) -> usize {
        self.pulses.len()
    }

    /// Mean pulse width in ticks (0 if there are no pulses).
    pub fn mean_width(&self) -> f64 {
        if self.pulses.is_empty() {
            0.0
        } else {
            self.pulses.iter().map(|p| p.width() as f64).sum::<f64>() / self.pulses.len() as f64
        }
    }

    /// Minimum pulse width.
    pub fn min_width(&self) -> Option<u64> {
        self.pulses.iter().map(Pulse::width).min()
    }

    /// Maximum pulse width.
    pub fn max_width(&self) -> Option<u64> {
        self.pulses.iter().map(Pulse::width).max()
    }
}

impl fmt::Display for PulseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pulses, widths {}..{} (mean {:.2}), duty cycle {:.1}%",
            self.count(),
            self.min_width().unwrap_or(0),
            self.max_width().unwrap_or(0),
            self.mean_width(),
            self.duty_cycle * 100.0
        )
    }
}

/// Measure the pulses of a place's token count (non-zero episodes) over
/// the whole trace.
///
/// Returns `None` if the place name is unknown.
pub fn place_pulses(trace: &RecordedTrace, place: &str) -> Option<PulseStats> {
    let pid = trace.header().place_id(place)?;
    let mut pulses = Vec::new();
    let mut high_since: Option<Time> = None;
    let mut last_time = trace.header().start_time;
    let mut cursor = trace.cursor();
    while let Some(state) = cursor.next() {
        let v = state.marking.tokens(pid);
        match (high_since, v > 0) {
            (None, true) => high_since = Some(state.time),
            (Some(s), false) => {
                pulses.push(Pulse {
                    start: s,
                    end: state.time,
                });
                high_since = None;
            }
            _ => {}
        }
        last_time = state.time;
    }
    let end = trace.end_time().max(last_time);
    if let Some(s) = high_since {
        pulses.push(Pulse { start: s, end });
    }
    let window = end
        .ticks()
        .saturating_sub(trace.header().start_time.ticks());
    let high: u64 = pulses.iter().map(Pulse::width).sum();
    Some(PulseStats {
        pulses,
        duty_cycle: if window > 0 {
            high as f64 / window as f64
        } else {
            0.0
        },
    })
}

/// The start times of every firing of `transition`, in order.
pub fn start_times(trace: &RecordedTrace, transition: &str) -> Option<Vec<Time>> {
    let tid: TransitionId = trace.header().transition_id(transition)?;
    Some(
        trace
            .deltas()
            .iter()
            .filter_map(|d| match d.kind {
                DeltaKind::Start { transition: t, .. } if t == tid => Some(d.time),
                _ => None,
            })
            .collect(),
    )
}

/// Intervals between successive starts of `transition` — the
/// "instruction issue period" distribution.
pub fn inter_start_intervals(trace: &RecordedTrace, transition: &str) -> Option<Vec<u64>> {
    let times = start_times(trace, transition)?;
    Some(
        times
            .windows(2)
            .map(|w| w[1].ticks() - w[0].ticks())
            .collect(),
    )
}

/// Start-to-start latency: for each firing of `from`, the delay until
/// the next start of `to` at or after it. Unmatched trailing firings are
/// dropped.
pub fn latencies(trace: &RecordedTrace, from: &str, to: &str) -> Option<Vec<u64>> {
    let froms = start_times(trace, from)?;
    let tos = start_times(trace, to)?;
    let mut out = Vec::new();
    let mut j = 0;
    for f in froms {
        while j < tos.len() && tos[j] < f {
            j += 1;
        }
        if j == tos.len() {
            break;
        }
        out.push(tos[j].ticks() - f.ticks());
        j += 1;
    }
    Some(out)
}

/// A fixed-bucket histogram of tick intervals, with text rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket width in ticks.
    pub bucket_width: u64,
    /// Counts per bucket; bucket `i` covers
    /// `[i*bucket_width, (i+1)*bucket_width)`.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub samples: u64,
}

impl Histogram {
    /// Build from samples with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero.
    pub fn new(samples: &[u64], bucket_width: u64) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        let max = samples.iter().copied().max().unwrap_or(0);
        let mut buckets = vec![0u64; (max / bucket_width + 1) as usize];
        for &s in samples {
            buckets[(s / bucket_width) as usize] += 1;
        }
        Histogram {
            bucket_width,
            buckets,
            samples: samples.len() as u64,
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        for (i, &count) in self.buckets.iter().enumerate() {
            let lo = i as u64 * self.bucket_width;
            let hi = lo + self.bucket_width - 1;
            let bar = "#".repeat(((count * 40) / peak) as usize);
            writeln!(f, "{lo:>6}-{hi:<6} {count:>6} {bar}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::NetBuilder;

    fn bus_trace() -> RecordedTrace {
        // Busy 3..5, 8..10, ... period 5, width 2.
        let mut b = NetBuilder::new("bus");
        b.place("Bus_free", 1);
        b.place("Bus_busy", 0);
        b.transition("seize")
            .input("Bus_free")
            .output("Bus_busy")
            .enabling(3)
            .add();
        b.transition("release")
            .input("Bus_busy")
            .output("Bus_free")
            .enabling(2)
            .add();
        let net = b.build().unwrap();
        pnut_sim::simulate(&net, 0, Time::from_ticks(50)).unwrap()
    }

    #[test]
    fn pulse_widths_and_duty_cycle() {
        let t = bus_trace();
        let stats = place_pulses(&t, "Bus_busy").unwrap();
        assert!(stats.count() >= 9);
        assert_eq!(stats.min_width(), Some(2));
        assert_eq!(stats.max_width(), Some(2));
        assert!((stats.mean_width() - 2.0).abs() < 1e-12);
        assert!((stats.duty_cycle - 0.4).abs() < 0.05, "2 of every 5 ticks");
        let shown = stats.to_string();
        assert!(shown.contains("pulses"));
        assert!(place_pulses(&t, "nope").is_none());
    }

    #[test]
    fn open_pulse_closed_at_trace_end() {
        // One-shot: busy from 3 to end of trace.
        let mut b = NetBuilder::new("once");
        b.place("idle", 1);
        b.place("busy", 0);
        b.transition("go")
            .input("idle")
            .output("busy")
            .enabling(3)
            .add();
        let net = b.build().unwrap();
        let t = pnut_sim::simulate(&net, 0, Time::from_ticks(10)).unwrap();
        let stats = place_pulses(&t, "busy").unwrap();
        assert_eq!(stats.count(), 1);
        assert_eq!(stats.pulses[0].width(), 7, "3..10");
    }

    #[test]
    fn inter_start_intervals_are_the_period() {
        let t = bus_trace();
        let intervals = inter_start_intervals(&t, "seize").unwrap();
        assert!(!intervals.is_empty());
        assert!(
            intervals.iter().all(|&i| i == 5),
            "period 3+2: {intervals:?}"
        );
        assert!(inter_start_intervals(&t, "ghost").is_none());
    }

    #[test]
    fn latencies_match_enabling_delay() {
        let t = bus_trace();
        // From each seize, the next release starts 2 ticks later.
        let lat = latencies(&t, "seize", "release").unwrap();
        assert!(!lat.is_empty());
        assert!(lat.iter().all(|&l| l == 2), "{lat:?}");
        // Reverse direction: release -> next seize is 3 ticks.
        let rev = latencies(&t, "release", "seize").unwrap();
        assert!(rev.iter().all(|&l| l == 3), "{rev:?}");
    }

    #[test]
    fn histogram_buckets_and_render() {
        let h = Histogram::new(&[1, 2, 2, 7, 12], 5);
        assert_eq!(h.buckets, vec![3, 1, 1]);
        assert_eq!(h.samples, 5);
        let shown = h.to_string();
        assert!(shown.contains("0-4"));
        assert!(shown.contains('#'));
        let empty = Histogram::new(&[], 5);
        assert_eq!(empty.samples, 0);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_width_panics() {
        let _ = Histogram::new(&[1], 0);
    }
}
