//! Streaming accumulation of time-weighted statistics.

use crate::report::{PlaceStats, StatReport, TransitionStats};
use pnut_core::Time;
use pnut_trace::{Delta, DeltaKind, TraceHeader, TraceSink};

/// Time-weighted accumulator for one integer-valued signal.
#[derive(Debug, Clone, Default)]
struct Weighted {
    current: i64,
    min: i64,
    max: i64,
    last_change: u64,
    weight: f64,
    sum: f64,
    sum_sq: f64,
}

impl Weighted {
    fn reset(&mut self, initial: i64, at: u64) {
        *self = Weighted {
            current: initial,
            min: initial,
            max: initial,
            last_change: at,
            weight: 0.0,
            sum: 0.0,
            sum_sq: 0.0,
        };
    }

    fn advance_to(&mut self, now: u64) {
        let dt = (now - self.last_change) as f64;
        if dt > 0.0 {
            let x = self.current as f64;
            self.weight += dt;
            self.sum += x * dt;
            self.sum_sq += x * x * dt;
            self.last_change = now;
        }
    }

    fn change(&mut self, now: u64, delta: i64) {
        self.advance_to(now);
        self.current += delta;
        self.min = self.min.min(self.current);
        self.max = self.max.max(self.current);
    }

    fn mean(&self) -> f64 {
        if self.weight > 0.0 {
            self.sum / self.weight
        } else {
            self.current as f64
        }
    }

    fn std_dev(&self) -> f64 {
        if self.weight > 0.0 {
            let mean = self.mean();
            (self.sum_sq / self.weight - mean * mean).max(0.0).sqrt()
        } else {
            0.0
        }
    }
}

/// A [`TraceSink`] computing the paper's `stat` report.
///
/// Feed it a trace (directly from a simulator, through a
/// [`pnut_trace::Tee`], or by replaying a [`pnut_trace::RecordedTrace`])
/// and call [`StatCollector::into_report`].
#[derive(Debug, Default)]
pub struct StatCollector {
    run_number: u32,
    header: Option<TraceHeader>,
    places: Vec<Weighted>,
    firings: Vec<Weighted>,
    starts: Vec<u64>,
    ends: Vec<u64>,
    end_time: Option<Time>,
}

impl StatCollector {
    /// A collector reporting as run number 1.
    pub fn new() -> Self {
        StatCollector {
            run_number: 1,
            ..Default::default()
        }
    }

    /// Finish collection and produce the report; `None` if no trace was
    /// seen (no `begin`/`end`).
    pub fn into_report(self) -> Option<StatReport> {
        let header = self.header?;
        let end_time = self.end_time?;
        let length = end_time.ticks().saturating_sub(header.start_time.ticks());
        let places = header
            .place_names
            .iter()
            .zip(&self.places)
            .map(|(name, w)| PlaceStats {
                name: name.clone(),
                min_tokens: w.min as u32,
                max_tokens: w.max as u32,
                avg_tokens: w.mean(),
                std_dev: w.std_dev(),
            })
            .collect();
        let transitions = header
            .transition_names
            .iter()
            .zip(&self.firings)
            .zip(self.starts.iter().zip(&self.ends))
            .map(|((name, w), (&starts, &ends))| TransitionStats {
                name: name.clone(),
                min_concurrent: w.min as u32,
                max_concurrent: w.max as u32,
                avg_concurrent: w.mean(),
                std_dev: w.std_dev(),
                starts,
                ends,
                throughput: if length > 0 {
                    ends as f64 / length as f64
                } else {
                    0.0
                },
            })
            .collect();
        Some(StatReport {
            run_number: self.run_number,
            initial_clock: header.start_time,
            end_time,
            length: Time::from_ticks(length),
            events_started: self.starts.iter().sum(),
            events_finished: self.ends.iter().sum(),
            places,
            transitions,
        })
    }
}

impl TraceSink for StatCollector {
    fn begin(&mut self, header: &TraceHeader) {
        let start = header.start_time.ticks();
        self.places = header
            .initial_marking
            .iter()
            .map(|&t| {
                let mut w = Weighted::default();
                w.reset(i64::from(t), start);
                w
            })
            .collect();
        self.firings = header
            .transition_names
            .iter()
            .map(|_| {
                let mut w = Weighted::default();
                w.reset(0, start);
                w
            })
            .collect();
        self.starts = vec![0; header.transition_names.len()];
        self.ends = vec![0; header.transition_names.len()];
        self.header = Some(header.clone());
        self.end_time = None;
    }

    fn delta(&mut self, delta: &Delta) {
        let now = delta.time.ticks();
        match &delta.kind {
            DeltaKind::Start { transition, .. } => {
                self.firings[transition.index()].change(now, 1);
                self.starts[transition.index()] += 1;
            }
            DeltaKind::Finish { transition, .. } => {
                self.firings[transition.index()].change(now, -1);
                self.ends[transition.index()] += 1;
            }
            DeltaKind::PlaceDelta { place, delta } => {
                self.places[place.index()].change(now, *delta);
            }
            DeltaKind::VarSet { .. } => {}
        }
    }

    fn end(&mut self, end_time: Time) {
        let now = end_time.ticks();
        for w in self.places.iter_mut().chain(self.firings.iter_mut()) {
            w.advance_to(now);
        }
        self.end_time = Some(end_time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::PlaceId;

    fn header() -> TraceHeader {
        TraceHeader::new("n", vec!["p".into()], vec!["t".into()]).with_initial_marking(vec![1])
    }

    #[test]
    fn time_weighted_average_hand_computed() {
        // p holds 1 token on [0,4), 3 tokens on [4,10): avg = (4*1+6*3)/10 = 2.2
        let mut c = StatCollector::new();
        c.begin(&header());
        c.delta(&Delta::new(
            Time::from_ticks(4),
            0,
            DeltaKind::PlaceDelta {
                place: PlaceId::new(0),
                delta: 2,
            },
        ));
        c.end(Time::from_ticks(10));
        let r = c.into_report().unwrap();
        let p = r.place("p").unwrap();
        assert!((p.avg_tokens - 2.2).abs() < 1e-12);
        assert_eq!(p.min_tokens, 1);
        assert_eq!(p.max_tokens, 3);
        // Variance: E[X^2]-E[X]^2 = (4*1+6*9)/10 - 2.2^2 = 5.8 - 4.84 = 0.96
        assert!((p.std_dev - 0.96f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn throughput_is_ends_over_length() {
        let mut c = StatCollector::new();
        c.begin(&header());
        for i in 0..5u64 {
            c.delta(&Delta::new(
                Time::from_ticks(i * 2),
                i,
                DeltaKind::Start {
                    transition: pnut_core::TransitionId::new(0),
                    firing: i,
                },
            ));
            c.delta(&Delta::new(
                Time::from_ticks(i * 2 + 1),
                i,
                DeltaKind::Finish {
                    transition: pnut_core::TransitionId::new(0),
                    firing: i,
                },
            ));
        }
        c.end(Time::from_ticks(10));
        let r = c.into_report().unwrap();
        let t = r.transition("t").unwrap();
        assert_eq!(t.starts, 5);
        assert_eq!(t.ends, 5);
        assert!((t.throughput - 0.5).abs() < 1e-12);
        // Busy half the time: avg concurrent = 0.5.
        assert!((t.avg_concurrent - 0.5).abs() < 1e-12);
        assert_eq!(r.events_started, 5);
        assert_eq!(r.events_finished, 5);
    }

    #[test]
    fn zero_length_run_degrades_gracefully() {
        let mut c = StatCollector::new();
        c.begin(&header());
        c.end(Time::ZERO);
        let r = c.into_report().unwrap();
        assert_eq!(r.place("p").unwrap().avg_tokens, 1.0);
        assert_eq!(r.transition("t").unwrap().throughput, 0.0);
    }

    #[test]
    fn no_trace_no_report() {
        assert!(StatCollector::new().into_report().is_none());
    }

    #[test]
    fn nonzero_start_time_uses_run_length() {
        let mut h = header();
        h.start_time = Time::from_ticks(100);
        let mut c = StatCollector::new();
        c.begin(&h);
        c.delta(&Delta::new(
            Time::from_ticks(150),
            0,
            DeltaKind::PlaceDelta {
                place: PlaceId::new(0),
                delta: 1,
            },
        ));
        c.end(Time::from_ticks(200));
        let r = c.into_report().unwrap();
        assert_eq!(r.length, Time::from_ticks(100));
        // 1 token for 50 ticks, 2 tokens for 50 ticks.
        assert!((r.place("p").unwrap().avg_tokens - 1.5).abs() < 1e-12);
    }
}
