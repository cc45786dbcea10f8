#![forbid(unsafe_code)]

//! # pnut-trace — simulation traces
//!
//! The P-NUT simulator "simply generates a trace: the description of the
//! initial state of the system, followed by a series of state deltas
//! describing how the state of the system changes over time" (paper
//! §4.1). Decoupling the simulation engine from analysis tools through
//! this intermediate representation is the paper's key architectural
//! point: traces are tool-independent and can be *piped* directly into
//! analyzers so long experiments never hit disk.
//!
//! This crate provides:
//!
//! * the trace data model ([`TraceHeader`], [`Delta`], [`DeltaKind`]);
//! * the streaming [`TraceSink`] trait that simulators write into and
//!   analysis tools implement;
//! * plumbing sinks: [`Recorder`] (in-memory [`RecordedTrace`]),
//!   [`Filter`] (the paper's trace-filtering tool), [`Tee`] (feed two
//!   tools at once), [`CountingSink`];
//! * state reconstruction ([`RecordedTrace::cursor`],
//!   [`RecordedTrace::states`]) for tools that need to walk system
//!   states rather than raw deltas;
//! * JSON serialization for interchange (the modern stand-in for the
//!   paper's textual trace format consumed by `tbl`/`troff` pipelines).
//!
//! # Example
//!
//! ```
//! use pnut_trace::{Delta, DeltaKind, Recorder, TraceHeader, TraceSink};
//! use pnut_core::{PlaceId, Time};
//!
//! let header = TraceHeader::new("demo", vec!["p".into()], vec!["t".into()])
//!     .with_initial_marking(vec![1]);
//! let mut rec = Recorder::new();
//! rec.begin(&header);
//! rec.delta(&Delta::new(Time::from_ticks(3), 0, DeltaKind::PlaceDelta {
//!     place: PlaceId::new(0),
//!     delta: -1,
//! }));
//! rec.end(Time::from_ticks(10));
//! let trace = rec.into_trace().expect("trace complete");
//! assert_eq!(trace.deltas().len(), 1);
//! assert_eq!(trace.end_time(), Time::from_ticks(10));
//! ```

mod filter;
mod json;
mod sink;
mod state;

pub use filter::{Filter, FilterSpec};
#[doc(hidden)]
pub use json::first_noncanonical_delta;
pub use json::JsonError;
pub use sink::{CountingSink, NullSink, Recorder, Tee, TraceSink};
pub use state::{StateCursor, StateIter, TraceState};

use pnut_core::expr::{Env, Value};
use pnut_core::{PlaceId, Time, TransitionId};
use std::fmt;
use std::io::{Read, Write};

/// Description of the initial state of the system (paper §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Name of the net that produced the trace.
    pub net_name: String,
    /// Place names, in id order.
    pub place_names: Vec<String>,
    /// Transition names, in id order.
    pub transition_names: Vec<String>,
    /// Initial token counts, in place-id order.
    pub initial_marking: Vec<u32>,
    /// Initial variable environment.
    pub initial_env: Env,
    /// Initial clock value.
    pub start_time: Time,
}

impl TraceHeader {
    /// Create a header with empty marking and environment.
    pub fn new(
        net_name: impl Into<String>,
        place_names: Vec<String>,
        transition_names: Vec<String>,
    ) -> Self {
        let places = place_names.len();
        TraceHeader {
            net_name: net_name.into(),
            place_names,
            transition_names,
            initial_marking: vec![0; places],
            initial_env: Env::new(),
            start_time: Time::ZERO,
        }
    }

    /// Set the initial marking (must match the number of places).
    ///
    /// # Panics
    ///
    /// Panics if the count length differs from `place_names`.
    pub fn with_initial_marking(mut self, counts: Vec<u32>) -> Self {
        assert_eq!(
            counts.len(),
            self.place_names.len(),
            "initial marking must cover every place"
        );
        self.initial_marking = counts;
        self
    }

    /// Set the initial variable environment.
    pub fn with_initial_env(mut self, env: Env) -> Self {
        self.initial_env = env;
        self
    }

    /// Find a place id by name.
    pub fn place_id(&self, name: &str) -> Option<PlaceId> {
        self.place_names
            .iter()
            .position(|n| n == name)
            .map(PlaceId::new)
    }

    /// Find a transition id by name.
    pub fn transition_id(&self, name: &str) -> Option<TransitionId> {
        self.transition_names
            .iter()
            .position(|n| n == name)
            .map(TransitionId::new)
    }

    /// Name of a place.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn place_name(&self, id: PlaceId) -> &str {
        &self.place_names[id.index()]
    }

    /// Name of a transition.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn transition_name(&self, id: TransitionId) -> &str {
        &self.transition_names[id.index()]
    }
}

/// One kind of state change.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaKind {
    /// A transition started firing; its input tokens have been removed
    /// (separate [`DeltaKind::PlaceDelta`] entries in the same step record
    /// the removals). `firing` numbers the firing instance so starts and
    /// finishes can be paired.
    Start {
        /// The transition.
        transition: TransitionId,
        /// Firing-instance number, unique per transition.
        firing: u64,
    },
    /// A transition finished firing; its output tokens have been added.
    Finish {
        /// The transition.
        transition: TransitionId,
        /// Firing-instance number matching the corresponding start.
        firing: u64,
    },
    /// The token count of a place changed by `delta`.
    PlaceDelta {
        /// The place.
        place: PlaceId,
        /// Signed token-count change.
        delta: i64,
    },
    /// A variable was assigned by an action.
    VarSet {
        /// Variable name.
        name: String,
        /// New value.
        value: Value,
    },
}

/// A timestamped state delta.
///
/// Deltas sharing a `step` belong to one *atomic* event (one firing
/// start or finish together with its token movements); analysis tools
/// must only observe states at step boundaries. This is what makes the
/// paper's §4.4 invariant `Bus_busy + Bus_free = 1` checkable: the
/// removal from one place and addition to the other are a single step.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Simulation time of the change.
    pub time: Time,
    /// Atomic-step counter; monotonically non-decreasing.
    pub step: u64,
    /// What changed.
    pub kind: DeltaKind,
}

impl Delta {
    /// Construct a delta.
    pub fn new(time: Time, step: u64, kind: DeltaKind) -> Self {
        Delta { time, step, kind }
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} #{} ", self.time, self.step)?;
        match &self.kind {
            DeltaKind::Start { transition, firing } => {
                write!(f, "start {transition} (firing {firing})")
            }
            DeltaKind::Finish { transition, firing } => {
                write!(f, "finish {transition} (firing {firing})")
            }
            DeltaKind::PlaceDelta { place, delta } => write!(f, "{place} {delta:+}"),
            DeltaKind::VarSet { name, value } => write!(f, "{name} = {value}"),
        }
    }
}

/// A fully recorded trace: header, deltas, and end time.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    header: TraceHeader,
    deltas: Vec<Delta>,
    end_time: Time,
}

impl RecordedTrace {
    /// Assemble a trace from parts (normally produced by [`Recorder`]).
    pub fn new(header: TraceHeader, deltas: Vec<Delta>, end_time: Time) -> Self {
        RecordedTrace {
            header,
            deltas,
            end_time,
        }
    }

    /// The initial-state description.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The state deltas in order.
    pub fn deltas(&self) -> &[Delta] {
        &self.deltas
    }

    /// Time at which the simulation experiment ended.
    pub fn end_time(&self) -> Time {
        self.end_time
    }

    /// Iterate reconstructed system states at atomic-step boundaries,
    /// starting with the initial state (`#0` in the paper's query
    /// notation).
    pub fn states(&self) -> StateIter<'_> {
        StateIter::new(self)
    }

    /// A lending cursor over the same states as [`RecordedTrace::states`],
    /// folding each step into one state it owns instead of cloning it.
    pub fn cursor(&self) -> StateCursor<'_> {
        StateCursor::new(self)
    }

    /// Serialize to JSON (see [`json`](self::JsonError) for the schema).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_json<W: Write>(&self, writer: W) -> Result<(), JsonError> {
        json::write_trace(self, writer)
    }

    /// Deserialize from JSON (reminder: `&mut reader` also works).
    ///
    /// # Errors
    ///
    /// Returns a decode error if the input is not a valid trace.
    pub fn read_json<R: Read>(reader: R) -> Result<Self, JsonError> {
        json::read_trace(reader)
    }

    /// Replay this trace into a sink (e.g. to feed a recorded trace to a
    /// streaming analyzer, or through a [`Filter`]).
    pub fn replay<S: TraceSink>(&self, sink: &mut S) {
        sink.begin(&self.header);
        for d in &self.deltas {
            sink.delta(d);
        }
        sink.end(self.end_time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecordedTrace {
        let header = TraceHeader::new("n", vec!["a".into(), "b".into()], vec!["t".into()])
            .with_initial_marking(vec![1, 0]);
        let deltas = vec![
            Delta::new(
                Time::from_ticks(1),
                0,
                DeltaKind::Start {
                    transition: TransitionId::new(0),
                    firing: 0,
                },
            ),
            Delta::new(
                Time::from_ticks(1),
                0,
                DeltaKind::PlaceDelta {
                    place: PlaceId::new(0),
                    delta: -1,
                },
            ),
            Delta::new(
                Time::from_ticks(4),
                1,
                DeltaKind::Finish {
                    transition: TransitionId::new(0),
                    firing: 0,
                },
            ),
            Delta::new(
                Time::from_ticks(4),
                1,
                DeltaKind::PlaceDelta {
                    place: PlaceId::new(1),
                    delta: 1,
                },
            ),
        ];
        RecordedTrace::new(header, deltas, Time::from_ticks(10))
    }

    #[test]
    fn json_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_json(&mut buf).unwrap();
        let back = RecordedTrace::read_json(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn header_lookup() {
        let t = sample();
        assert_eq!(t.header().place_id("b"), Some(PlaceId::new(1)));
        assert_eq!(t.header().place_id("zz"), None);
        assert_eq!(t.header().transition_name(TransitionId::new(0)), "t");
    }

    #[test]
    fn replay_reproduces_trace() {
        let t = sample();
        let mut rec = Recorder::new();
        t.replay(&mut rec);
        assert_eq!(rec.into_trace().unwrap(), t);
    }

    #[test]
    fn delta_display() {
        let d = Delta::new(
            Time::from_ticks(7),
            3,
            DeltaKind::PlaceDelta {
                place: PlaceId::new(2),
                delta: -2,
            },
        );
        assert_eq!(d.to_string(), "@7 #3 p2 -2");
    }

    #[test]
    #[should_panic(expected = "initial marking must cover every place")]
    fn marking_length_mismatch_panics() {
        let _ = TraceHeader::new("n", vec!["a".into()], vec![]).with_initial_marking(vec![1, 2]);
    }
}
