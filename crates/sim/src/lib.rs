#![forbid(unsafe_code)]

//! # pnut-sim — the P-NUT simulation engine
//!
//! "The P-NUT simulator is a simple simulation engine which *pushes*
//! tokens around a Timed Petri Net. [...] The simulator simply generates
//! a trace." (paper §4.1)
//!
//! This crate implements the extended-timed-Petri-net semantics of the
//! paper as a deterministic, seeded discrete-event simulator writing into
//! any [`pnut_trace::TraceSink`]:
//!
//! * **firing times** — at start-of-firing input tokens are removed and
//!   the action runs; output tokens appear when the firing completes
//!   (tokens are "inside" the transition meanwhile);
//! * **enabling times** — a transition must be *continuously* enabled
//!   (marking + predicate) for its enabling delay before it may fire;
//!   any disabling resets the clock;
//! * **conflict resolution** — among the transitions eligible at an
//!   instant, one is chosen with probability proportional to its
//!   relative firing frequency `[WPS86]`; the marking is re-examined after
//!   every firing and the instant only ends when no transition is
//!   eligible;
//! * **predicates and actions** — predicates gate enabling (and must be
//!   `irand`-free so that enabledness is stable); actions run at
//!   start-of-firing and may set the variables that expression-valued
//!   delays read (the paper's table-driven models, §3).
//!
//! The engine runs the same compiled firing rule as the timed
//! reachability graph (`pnut_reach::graph::build_timed`): readiness,
//! predicates, both delays, token movement and the enabling-clock
//! decision all come from `pnut-core`'s
//! [`CompiledTransition`](pnut_core::expr::CompiledTransition). Only the
//! scheduling differs: an event queue, absolute deadlines and
//! frequency-weighted conflict choice here, maximal-progress time
//! advances there. `tests/semantics.rs` replays seeded traces of the
//! checked-in models and of random nets as paths of the timed graph.
//!
//! # Example
//!
//! ```
//! use pnut_core::{NetBuilder, Time};
//! use pnut_sim::Simulator;
//! use pnut_trace::Recorder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetBuilder::new("pingpong");
//! b.place("ping", 1);
//! b.place("pong", 0);
//! b.transition("serve").input("ping").output("pong").firing(2).add();
//! b.transition("return").input("pong").output("ping").firing(3).add();
//! let net = b.build()?;
//!
//! let mut sim = Simulator::new(&net, 42)?;
//! let mut rec = Recorder::new();
//! let summary = sim.run(Time::from_ticks(9), &mut rec)?;
//! assert_eq!(summary.events_started, 4); // serve@0, return@2, serve@5, return@7
//! # Ok(())
//! # }
//! ```

mod engine;
mod error;
mod rng;

pub use engine::{RunSummary, SimOptions, Simulator};
pub use error::SimError;
pub use rng::SeededRandomness;

use pnut_core::{Net, Time};
use pnut_trace::{RecordedTrace, Recorder};

/// One-call convenience: simulate `net` for `duration` with `seed` and
/// return the recorded trace.
///
/// # Errors
///
/// Propagates [`SimError`] from the run.
///
/// # Example
///
/// ```
/// use pnut_core::{NetBuilder, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetBuilder::new("n");
/// b.place("p", 1);
/// b.transition("loop").input("p").output("p").firing(1).add();
/// let net = b.build()?;
/// let trace = pnut_sim::simulate(&net, 7, Time::from_ticks(5))?;
/// assert!(trace.deltas().len() > 0);
/// # Ok(())
/// # }
/// ```
pub fn simulate(net: &Net, seed: u64, duration: Time) -> Result<RecordedTrace, SimError> {
    let mut sim = Simulator::new(net, seed)?;
    let mut rec = Recorder::new();
    sim.run(duration, &mut rec)?;
    Ok(rec
        .into_trace()
        .expect("recorder saw begin and end during run"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::NetBuilder;

    #[test]
    fn simulate_convenience_produces_trace() {
        let mut b = NetBuilder::new("n");
        b.place("p", 1);
        b.transition("t").input("p").output("p").firing(2).add();
        let net = b.build().unwrap();
        let trace = simulate(&net, 1, Time::from_ticks(9)).unwrap();
        // Firings at 0,2,4,6,8 → 5 starts; finishes at 2,4,6,8.
        let starts = trace
            .deltas()
            .iter()
            .filter(|d| matches!(d.kind, pnut_trace::DeltaKind::Start { .. }))
            .count();
        assert_eq!(starts, 5);
    }
}
