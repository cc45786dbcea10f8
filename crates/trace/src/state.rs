//! State reconstruction from deltas.
//!
//! Analysis tools such as the tracertool query evaluator reason about
//! *states* ("forall s in S [...]", paper §4.4), not raw deltas. A state
//! exists at every atomic-step boundary; this module folds deltas into
//! the running marking / firing-count / variable state.
//!
//! The fold exists once, in [`StateCursor`], which lends its one state
//! to tools that only read each state in turn (queries, pulse
//! measurements, heatmaps). [`StateIter`] is the same cursor cloning
//! each state, for callers that keep states.

use crate::{Delta, DeltaKind, RecordedTrace};
use pnut_core::expr::Env;
use pnut_core::{Marking, Time, TransitionId};

/// A reconstructed system state at one atomic-step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceState {
    /// State index (`#0` is the initial state, as in the paper's query
    /// notation).
    pub index: usize,
    /// Simulation time at which this state was entered.
    pub time: Time,
    /// Token counts per place.
    pub marking: Marking,
    /// Number of in-progress firings per transition ("tokens inside the
    /// transition").
    pub firing_counts: Vec<u32>,
    /// Variable environment.
    pub env: Env,
}

impl TraceState {
    /// In-progress firings of `transition`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn firings(&self, transition: TransitionId) -> u32 {
        self.firing_counts[transition.index()]
    }
}

/// A lending cursor over the reconstructed states of a
/// [`RecordedTrace`].
///
/// The cursor owns one [`TraceState`]. Each [`StateCursor::next`] folds
/// the next atomic step's deltas into it in place and lends it out, so a
/// walk over every state clones nothing per state. Like [`StateIter`],
/// it yields the initial state first, then one state per atomic step.
///
/// The fold clamps at zero: a `Finish` with no matching `Start` (a
/// continued run's trace finishes firings begun before it) leaves the
/// firing count at 0, and a place delta that would go negative leaves
/// the token count at 0. `VarSet` deltas update the environment in
/// place.
///
/// ```
/// use pnut_trace::{Delta, DeltaKind, RecordedTrace, TraceHeader};
/// use pnut_core::{PlaceId, Time};
///
/// let header = TraceHeader::new("n", vec!["p".into()], vec![]).with_initial_marking(vec![1]);
/// let kind = DeltaKind::PlaceDelta { place: PlaceId::new(0), delta: 1 };
/// let deltas = vec![Delta::new(Time::from_ticks(2), 0, kind)];
/// let trace = RecordedTrace::new(header, deltas, Time::from_ticks(5));
/// let mut cursor = trace.cursor();
/// let mut tokens = Vec::new();
/// while let Some(state) = cursor.next() {
///     tokens.push(state.marking.tokens(PlaceId::new(0)));
/// }
/// assert_eq!(tokens, [1, 2]);
/// ```
#[derive(Debug)]
pub struct StateCursor<'a> {
    deltas: &'a [Delta],
    pos: usize,
    started: bool,
    current: TraceState,
}

impl<'a> StateCursor<'a> {
    pub(crate) fn new(trace: &'a RecordedTrace) -> Self {
        let h = trace.header();
        StateCursor {
            deltas: trace.deltas(),
            pos: 0,
            started: false,
            current: TraceState {
                index: 0,
                time: h.start_time,
                marking: Marking::from_counts(h.initial_marking.clone()),
                firing_counts: vec![0; h.transition_names.len()],
                env: h.initial_env.clone(),
            },
        }
    }

    /// Fold the next atomic step into the cursor's state and lend it;
    /// `None` once every step has been folded.
    // A lending cursor cannot implement `Iterator`: each item borrows the
    // cursor.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&TraceState> {
        if !self.started {
            self.started = true;
            return Some(&self.current);
        }
        let deltas = self.deltas;
        let step = deltas.get(self.pos)?.step;
        while let Some(d) = deltas.get(self.pos).filter(|d| d.step == step) {
            self.current.time = d.time;
            match &d.kind {
                DeltaKind::Start { transition, .. } => {
                    self.current.firing_counts[transition.index()] += 1;
                }
                DeltaKind::Finish { transition, .. } => {
                    let c = &mut self.current.firing_counts[transition.index()];
                    *c = c.saturating_sub(1);
                }
                DeltaKind::PlaceDelta { place, delta } => {
                    let old = i64::from(self.current.marking.tokens(*place));
                    let new = (old + delta).max(0) as u32;
                    self.current.marking.set(*place, new);
                }
                DeltaKind::VarSet { name, value } => {
                    self.current.env.set_var(name.clone(), *value);
                }
            }
            self.pos += 1;
        }
        self.current.index += 1;
        Some(&self.current)
    }
}

/// Iterator over reconstructed states of a [`RecordedTrace`]: a
/// [`StateCursor`] that clones each state it lends.
///
/// Yields the initial state first, then one state per atomic step.
#[derive(Debug)]
pub struct StateIter<'a> {
    cursor: StateCursor<'a>,
}

impl<'a> StateIter<'a> {
    pub(crate) fn new(trace: &'a RecordedTrace) -> Self {
        StateIter {
            cursor: StateCursor::new(trace),
        }
    }
}

impl Iterator for StateIter<'_> {
    type Item = TraceState;

    fn next(&mut self) -> Option<TraceState> {
        self.cursor.next().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceHeader;
    use pnut_core::expr::Value;
    use pnut_core::PlaceId;

    fn trace_with(deltas: Vec<Delta>) -> RecordedTrace {
        let header = TraceHeader::new("n", vec!["a".into(), "b".into()], vec!["t".into()])
            .with_initial_marking(vec![2, 0]);
        RecordedTrace::new(header, deltas, Time::from_ticks(100))
    }

    #[test]
    fn initial_state_only_for_empty_trace() {
        let t = trace_with(vec![]);
        let states: Vec<_> = t.states().collect();
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].index, 0);
        assert_eq!(states[0].marking.tokens(PlaceId::new(0)), 2);
    }

    #[test]
    fn steps_are_atomic() {
        // One step moves a token a -> b via two deltas; no intermediate
        // state where the token is on neither place may be observed.
        let t = trace_with(vec![
            Delta::new(
                Time::from_ticks(5),
                0,
                DeltaKind::PlaceDelta {
                    place: PlaceId::new(0),
                    delta: -1,
                },
            ),
            Delta::new(
                Time::from_ticks(5),
                0,
                DeltaKind::PlaceDelta {
                    place: PlaceId::new(1),
                    delta: 1,
                },
            ),
        ]);
        let states: Vec<_> = t.states().collect();
        assert_eq!(states.len(), 2);
        for s in &states {
            let sum = s.marking.tokens(PlaceId::new(0)) + s.marking.tokens(PlaceId::new(1));
            assert_eq!(sum, 2, "token conservation visible at step boundaries");
        }
        assert_eq!(states[1].time, Time::from_ticks(5));
        assert_eq!(states[1].index, 1);
    }

    #[test]
    fn firing_counts_track_start_finish() {
        let t = trace_with(vec![
            Delta::new(
                Time::from_ticks(1),
                0,
                DeltaKind::Start {
                    transition: TransitionId::new(0),
                    firing: 0,
                },
            ),
            Delta::new(
                Time::from_ticks(2),
                1,
                DeltaKind::Start {
                    transition: TransitionId::new(0),
                    firing: 1,
                },
            ),
            Delta::new(
                Time::from_ticks(3),
                2,
                DeltaKind::Finish {
                    transition: TransitionId::new(0),
                    firing: 0,
                },
            ),
        ]);
        let counts: Vec<u32> = t
            .states()
            .map(|s| s.firings(TransitionId::new(0)))
            .collect();
        assert_eq!(counts, vec![0, 1, 2, 1]);
    }

    #[test]
    fn variables_flow_into_states() {
        let t = trace_with(vec![Delta::new(
            Time::from_ticks(1),
            0,
            DeltaKind::VarSet {
                name: "type".into(),
                value: Value::Int(3),
            },
        )]);
        let states: Vec<_> = t.states().collect();
        assert!(states[0].env.var("type").is_none());
        assert_eq!(states[1].env.var("type"), Some(Value::Int(3)));
    }

    #[test]
    fn state_indices_are_sequential() {
        let deltas: Vec<Delta> = (0..5)
            .map(|i| {
                Delta::new(
                    Time::from_ticks(i),
                    i,
                    DeltaKind::PlaceDelta {
                        place: PlaceId::new(1),
                        delta: 1,
                    },
                )
            })
            .collect();
        let t = trace_with(deltas);
        let indices: Vec<usize> = t.states().map(|s| s.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4, 5]);
    }
}
