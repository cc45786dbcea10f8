//! The software logic state analyzer (Figure 7).

use pnut_core::expr::{Env, Expr, Value};
use pnut_core::Time;
use pnut_trace::RecordedTrace;
use std::fmt;

/// A probe: a named quantity plotted over time.
///
/// The expression is evaluated in an environment where every *place*
/// name is bound to its token count and every *transition* name to its
/// concurrent-firing count, so `Signal::function` supports the paper's
/// "arbitrary functions on places and transitions" (e.g. summing the
/// activity of all execution transitions).
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    /// Row label in the rendered timeline.
    pub label: String,
    expr: Expr,
}

impl Signal {
    /// Probe a place's token count.
    pub fn place(name: impl Into<String>) -> Self {
        let name = name.into();
        Signal {
            expr: Expr::var(&name),
            label: name,
        }
    }

    /// Probe a transition's concurrent-firing count.
    pub fn transition(name: impl Into<String>) -> Self {
        // Same binding space; the distinction is only documentation.
        Self::place(name)
    }

    /// Probe a user-defined function of places and transitions.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed source text.
    pub fn function(
        label: impl Into<String>,
        src: &str,
    ) -> Result<Self, pnut_core::ParseExprError> {
        Ok(Signal {
            label: label.into(),
            expr: Expr::parse(src)?,
        })
    }
}

/// A marker positioned at a time, labeled with a single character
/// (Figure 7 uses `O` and `X`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marker {
    /// Where the marker sits.
    pub time: Time,
    /// The character drawn on the marker row.
    pub tag: char,
}

/// Error from timeline construction.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineError {
    /// A signal expression referenced a name that is neither a place nor
    /// a transition of the trace (nor an initial-environment variable).
    UnknownName {
        /// The signal whose expression failed.
        signal: String,
        /// The evaluation failure.
        source: pnut_core::EvalError,
    },
    /// An empty time window (`from >= to`).
    EmptyWindow {
        /// Window start.
        from: Time,
        /// Window end.
        to: Time,
    },
    /// A window too wide to hold one sample per tick in memory.
    WindowTooWide {
        /// Window start.
        from: Time,
        /// Window end.
        to: Time,
    },
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::UnknownName { signal, source } => {
                write!(f, "signal `{signal}` failed to evaluate: {source}")
            }
            TimelineError::EmptyWindow { from, to } => {
                write!(f, "empty timeline window [{from}, {to})")
            }
            TimelineError::WindowTooWide { from, to } => write!(
                f,
                "window [{from}, {to}) is too wide to hold one sample per tick in memory"
            ),
        }
    }
}

impl std::error::Error for TimelineError {}

/// A sampled set of signals over a time window, with rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    from: Time,
    to: Time,
    labels: Vec<String>,
    /// Per signal, one value per tick in `[from, to)`.
    samples: Vec<Vec<i64>>,
    markers: Vec<Marker>,
}

impl Timeline {
    /// Sample `signals` over `[from, to)` (one sample per tick, using
    /// the last state at or before each tick).
    ///
    /// # Errors
    ///
    /// Returns [`TimelineError::EmptyWindow`] for an empty window,
    /// [`TimelineError::WindowTooWide`] if the samples do not fit in
    /// memory, or [`TimelineError::UnknownName`] if a signal references
    /// an unknown name.
    pub fn sample(
        trace: &RecordedTrace,
        signals: &[Signal],
        from: Time,
        to: Time,
    ) -> Result<Self, TimelineError> {
        if from >= to {
            return Err(TimelineError::EmptyWindow { from, to });
        }
        let header = trace.header();
        let ticks = usize::try_from(to.ticks() - from.ticks()).unwrap_or(usize::MAX);
        let mut samples = Vec::with_capacity(signals.len());
        for _ in signals {
            let mut row = Vec::new();
            row.try_reserve_exact(ticks)
                .map_err(|_| TimelineError::WindowTooWide { from, to })?;
            samples.push(row);
        }

        // Walk states and ticks in lockstep; for each tick take the value
        // from the last state entered at or before that tick.
        let mut states = trace.states().peekable();
        let mut current = states
            .next()
            .expect("states always yields the initial state");
        let mut env_cache = bind_env(&current, header);
        for tick in from.ticks()..to.ticks() {
            while let Some(next) = states.peek() {
                if next.time.ticks() <= tick {
                    current = states.next().expect("peeked");
                    env_cache = bind_env(&current, header);
                } else {
                    break;
                }
            }
            for (i, sig) in signals.iter().enumerate() {
                let v = sig
                    .expr
                    .eval_pure(&env_cache)
                    .and_then(Value::as_int)
                    .map_err(|source| TimelineError::UnknownName {
                        signal: sig.label.clone(),
                        source,
                    })?;
                samples[i].push(v);
            }
        }
        Ok(Timeline {
            from,
            to,
            labels: signals.iter().map(|s| s.label.clone()).collect(),
            samples,
            markers: Vec::new(),
        })
    }

    /// Place a marker (Figure 7's `O` / `X`).
    pub fn add_marker(&mut self, marker: Marker) {
        self.markers.push(marker);
    }

    /// Tick distance between the markers tagged `a` and `b` — the
    /// Figure 7 `O <-> X` readout. `None` if either marker is absent.
    pub fn interval(&self, a: char, b: char) -> Option<u64> {
        let find = |tag| {
            self.markers
                .iter()
                .find(|m| m.tag == tag)
                .map(|m| m.time.ticks())
        };
        let ta = find(a)?;
        let tb = find(b)?;
        Some(ta.abs_diff(tb))
    }

    /// The sampled values of the signal at `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[i64] {
        &self.samples[row]
    }

    /// Number of signal rows.
    pub fn rows(&self) -> usize {
        self.samples.len()
    }

    /// Window start.
    pub fn from(&self) -> Time {
        self.from
    }

    /// Window end (exclusive).
    pub fn to(&self) -> Time {
        self.to
    }
}

fn bind_env(state: &pnut_trace::TraceState, header: &pnut_trace::TraceHeader) -> Env {
    // Place and transition counts shadow initial variables of the same
    // name; start from the state's variable environment so user-defined
    // signals can also reference model variables.
    let mut env = state.env.clone();
    for (i, name) in header.place_names.iter().enumerate() {
        env.set_var(
            name.clone(),
            Value::Int(i64::from(state.marking.tokens(pnut_core::PlaceId::new(i)))),
        );
    }
    for (i, name) in header.transition_names.iter().enumerate() {
        env.set_var(name.clone(), Value::Int(i64::from(state.firing_counts[i])));
    }
    env
}

impl fmt::Display for Timeline {
    /// Render the logic-analyzer view: one row per signal, one column
    /// per tick. Binary signals render as `_` (0) and `█` (≥1);
    /// wider-range signals render digits (`+` above 9). A time axis and
    /// marker row follow the signals.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .labels
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max(8);
        for (label, row) in self.labels.iter().zip(&self.samples) {
            let max = row.iter().copied().max().unwrap_or(0);
            write!(f, "{label:>width$} ")?;
            for &v in row {
                let c = if max <= 1 {
                    if v >= 1 {
                        '█'
                    } else {
                        '_'
                    }
                } else {
                    match v {
                        0 => '.',
                        1..=9 => char::from(b'0' + v as u8),
                        _ => '+',
                    }
                };
                write!(f, "{c}")?;
            }
            writeln!(f)?;
        }
        // Marker row.
        if !self.markers.is_empty() {
            write!(f, "{:>width$} ", "markers")?;
            let ticks = (self.to.ticks() - self.from.ticks()) as usize;
            let mut row = vec![' '; ticks];
            for m in &self.markers {
                let t = m.time.ticks();
                if t >= self.from.ticks() && t < self.to.ticks() {
                    row[(t - self.from.ticks()) as usize] = m.tag;
                }
            }
            for c in row {
                write!(f, "{c}")?;
            }
            writeln!(f)?;
        }
        // Time axis: a tick mark every 10.
        write!(f, "{:>width$} ", "t")?;
        for t in self.from.ticks()..self.to.ticks() {
            write!(f, "{}", if t % 10 == 0 { '|' } else { ' ' })?;
        }
        writeln!(f)?;
        write!(f, "{:>width$} ", "")?;
        let mut t = self.from.ticks();
        while t < self.to.ticks() {
            if t.is_multiple_of(10) {
                let s = t.to_string();
                write!(f, "{s}")?;
                // Skip the columns the label consumed.
                t += s.len() as u64;
            } else {
                write!(f, " ")?;
                t += 1;
            }
        }
        writeln!(f)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::NetBuilder;

    fn bus_trace() -> RecordedTrace {
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
        pnut_sim::simulate(&net, 0, Time::from_ticks(40)).unwrap()
    }

    #[test]
    fn samples_follow_state_changes() {
        let trace = bus_trace();
        let tl = Timeline::sample(
            &trace,
            &[Signal::place("Bus_busy")],
            Time::ZERO,
            Time::from_ticks(10),
        )
        .unwrap();
        // Free 0..3, busy 3..5, free 5..8, busy 8..10.
        assert_eq!(tl.row(0), &[0, 0, 0, 1, 1, 0, 0, 0, 1, 1]);
    }

    #[test]
    fn function_signals_combine_probes() {
        let trace = bus_trace();
        let sig = Signal::function("sum", "Bus_busy + Bus_free").unwrap();
        let tl = Timeline::sample(&trace, &[sig], Time::ZERO, Time::from_ticks(20)).unwrap();
        assert!(tl.row(0).iter().all(|&v| v == 1), "invariant sum == 1");
    }

    #[test]
    fn transition_probe_counts_concurrent_firings() {
        let mut b = NetBuilder::new("n");
        b.place("q", 2);
        b.place("done", 0);
        b.transition("serve")
            .input("q")
            .output("done")
            .firing(5)
            .add();
        let net = b.build().unwrap();
        let trace = pnut_sim::simulate(&net, 0, Time::from_ticks(10)).unwrap();
        let tl = Timeline::sample(
            &trace,
            &[Signal::transition("serve")],
            Time::ZERO,
            Time::from_ticks(8),
        )
        .unwrap();
        assert_eq!(tl.row(0)[0], 2, "both firings in flight from t=0");
        assert_eq!(tl.row(0)[6], 0, "both finished at t=5");
    }

    #[test]
    fn unknown_names_error() {
        let trace = bus_trace();
        let sig = Signal::function("bad", "No_such_place + 1").unwrap();
        let e = Timeline::sample(&trace, &[sig], Time::ZERO, Time::from_ticks(5)).unwrap_err();
        assert!(matches!(e, TimelineError::UnknownName { .. }));
    }

    #[test]
    fn empty_window_rejected() {
        let trace = bus_trace();
        let e = Timeline::sample(
            &trace,
            &[Signal::place("Bus_busy")],
            Time::from_ticks(5),
            Time::from_ticks(5),
        )
        .unwrap_err();
        assert!(matches!(e, TimelineError::EmptyWindow { .. }));
    }

    #[test]
    fn window_too_wide_to_sample_is_an_error() {
        let trace = bus_trace();
        let e = Timeline::sample(
            &trace,
            &[Signal::place("Bus_busy")],
            Time::ZERO,
            Time::from_ticks(u64::MAX),
        )
        .unwrap_err();
        assert!(matches!(e, TimelineError::WindowTooWide { .. }), "{e}");
    }

    #[test]
    fn markers_and_interval() {
        let trace = bus_trace();
        let mut tl = Timeline::sample(
            &trace,
            &[Signal::place("Bus_busy")],
            Time::ZERO,
            Time::from_ticks(30),
        )
        .unwrap();
        tl.add_marker(Marker {
            time: Time::from_ticks(3),
            tag: 'O',
        });
        tl.add_marker(Marker {
            time: Time::from_ticks(8),
            tag: 'X',
        });
        assert_eq!(tl.interval('O', 'X'), Some(5));
        assert_eq!(tl.interval('X', 'O'), Some(5));
        assert_eq!(tl.interval('O', 'Z'), None);
        let shown = tl.to_string();
        assert!(shown.contains('O'));
        assert!(shown.contains('X'));
    }

    #[test]
    fn render_binary_and_numeric_rows() {
        let trace = bus_trace();
        let tl = Timeline::sample(
            &trace,
            &[
                Signal::place("Bus_busy"),
                Signal::function("wide", "Bus_busy * 12").unwrap(),
            ],
            Time::ZERO,
            Time::from_ticks(12),
        )
        .unwrap();
        let s = tl.to_string();
        assert!(s.contains('█'), "binary high");
        assert!(s.contains('_'), "binary low");
        assert!(s.contains('+'), "numeric overflow marker");
        assert!(s.contains('|'), "time axis");
    }
}
