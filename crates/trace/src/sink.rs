//! Streaming sinks: the "pipe" between simulator and analysis tools.

use crate::{Delta, RecordedTrace, TraceHeader};
use pnut_core::Time;

/// A consumer of trace events.
///
/// The simulator's output "can be directly plugged into the input of
/// analysis tools, thereby eliminating the need for storing large files"
/// (paper §4.1). Implement this trait to build an analysis tool; use
/// [`Tee`] to feed several tools from one simulation run.
pub trait TraceSink {
    /// Called once before any delta, with the initial-state description.
    fn begin(&mut self, header: &TraceHeader);

    /// Called for every state delta, in order.
    fn delta(&mut self, delta: &Delta);

    /// Called once when the experiment ends.
    fn end(&mut self, end_time: Time);
}

/// Forward every event to both of two sinks.
#[derive(Debug, Default)]
pub struct Tee<A, B> {
    /// First downstream sink.
    pub first: A,
    /// Second downstream sink.
    pub second: B,
}

impl<A: TraceSink, B: TraceSink> Tee<A, B> {
    /// Combine two sinks.
    pub fn new(first: A, second: B) -> Self {
        Tee { first, second }
    }

    /// Split back into the two sinks.
    pub fn into_parts(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    fn begin(&mut self, header: &TraceHeader) {
        self.first.begin(header);
        self.second.begin(header);
    }

    fn delta(&mut self, delta: &Delta) {
        self.first.delta(delta);
        self.second.delta(delta);
    }

    fn end(&mut self, end_time: Time) {
        self.first.end(end_time);
        self.second.end(end_time);
    }
}

/// Record the whole trace in memory.
#[derive(Debug, Default)]
pub struct Recorder {
    header: Option<TraceHeader>,
    deltas: Vec<Delta>,
    end_time: Option<Time>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extract the recorded trace; `None` if `begin`/`end` were never
    /// called.
    pub fn into_trace(self) -> Option<RecordedTrace> {
        Some(RecordedTrace::new(
            self.header?,
            self.deltas,
            self.end_time?,
        ))
    }
}

impl TraceSink for Recorder {
    fn begin(&mut self, header: &TraceHeader) {
        self.header = Some(header.clone());
        self.deltas.clear();
        self.end_time = None;
    }

    fn delta(&mut self, delta: &Delta) {
        self.deltas.push(delta.clone());
    }

    fn end(&mut self, end_time: Time) {
        self.end_time = Some(end_time);
    }
}

/// Count events without storing them (for overhead measurements and
/// tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of `begin` calls observed.
    pub begins: u64,
    /// Number of deltas observed.
    pub deltas: u64,
    /// Number of `end` calls observed.
    pub ends: u64,
}

impl CountingSink {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for CountingSink {
    fn begin(&mut self, _header: &TraceHeader) {
        self.begins += 1;
    }

    fn delta(&mut self, _delta: &Delta) {
        self.deltas += 1;
    }

    fn end(&mut self, _end_time: Time) {
        self.ends += 1;
    }
}

/// A sink that discards everything (useful to run a simulation purely
/// for its side effects on other tees).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn begin(&mut self, _header: &TraceHeader) {}
    fn delta(&mut self, _delta: &Delta) {}
    fn end(&mut self, _end_time: Time) {}
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn begin(&mut self, header: &TraceHeader) {
        (**self).begin(header);
    }

    fn delta(&mut self, delta: &Delta) {
        (**self).delta(delta);
    }

    fn end(&mut self, end_time: Time) {
        (**self).end(end_time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeltaKind;
    use pnut_core::PlaceId;

    fn header() -> TraceHeader {
        TraceHeader::new("n", vec!["p".into()], vec![]).with_initial_marking(vec![0])
    }

    fn a_delta() -> Delta {
        Delta::new(
            Time::from_ticks(1),
            0,
            DeltaKind::PlaceDelta {
                place: PlaceId::new(0),
                delta: 1,
            },
        )
    }

    #[test]
    fn tee_duplicates_events() {
        let mut tee = Tee::new(CountingSink::new(), CountingSink::new());
        tee.begin(&header());
        tee.delta(&a_delta());
        tee.delta(&a_delta());
        tee.end(Time::from_ticks(5));
        let (a, b) = tee.into_parts();
        assert_eq!(a.deltas, 2);
        assert_eq!(a, b);
        assert_eq!(a.begins, 1);
        assert_eq!(a.ends, 1);
    }

    #[test]
    fn recorder_requires_begin_and_end() {
        let rec = Recorder::new();
        assert!(rec.into_trace().is_none());
        let mut rec = Recorder::new();
        rec.begin(&header());
        assert!(rec.into_trace().is_none(), "missing end");
        let mut rec = Recorder::new();
        rec.begin(&header());
        rec.delta(&a_delta());
        rec.end(Time::from_ticks(2));
        let t = rec.into_trace().unwrap();
        assert_eq!(t.deltas().len(), 1);
    }

    #[test]
    fn begin_resets_recorder() {
        let mut rec = Recorder::new();
        rec.begin(&header());
        rec.delta(&a_delta());
        rec.begin(&header());
        rec.end(Time::ZERO);
        assert_eq!(rec.into_trace().unwrap().deltas().len(), 0);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn feed<S: TraceSink>(mut sink: S) {
            sink.begin(&header());
            sink.delta(&a_delta());
            sink.end(Time::ZERO);
        }
        let mut c = CountingSink::new();
        feed(&mut c); // exercises the blanket `&mut S` impl
        assert_eq!(c.deltas, 1);
    }
}
