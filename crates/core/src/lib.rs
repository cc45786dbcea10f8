#![forbid(unsafe_code)]

//! # pnut-core — extended timed Petri nets
//!
//! Core data model for the P-NUT reproduction: the "flavor" of Petri nets
//! described in Razouk, *The Use of Petri Nets for Modeling Pipelined
//! Processors* (UCI TR 87-29 / DAC 1988), §1.
//!
//! The model extends classical place/transition nets with everything the
//! paper argues is essential for faithful processor models:
//!
//! * **weighted arcs** — e.g. instruction buffers consumed two-at-a-time;
//! * **inhibitor arcs** — "no operand fetch pending" style preconditions;
//! * **firing times** — time during which tokens are inside a transition
//!   (neither on inputs nor outputs);
//! * **enabling times** — a delay during which a transition must be
//!   *continuously* enabled before it may fire (memory latency, timeouts);
//! * **relative firing frequencies** — probabilistic resolution of
//!   conflicts between competing events `[WPS86]`;
//! * **predicates and actions** — data-dependent preconditions and data
//!   transformations over an integer variable environment, enabling the
//!   table-driven instruction-set models of §3 of the paper.
//!
//! # Example
//!
//! Build the bus/prefetch fragment of the paper's Figure 1:
//!
//! ```
//! use pnut_core::NetBuilder;
//!
//! # fn main() -> Result<(), pnut_core::NetError> {
//! let mut b = NetBuilder::new("prefetch");
//! b.place("Bus_free", 1);
//! b.place("Empty_I_buffers", 6);
//! b.place("pre_fetching", 0);
//! b.place("Operand_fetch_pending", 0);
//! b.transition("Start_prefetch")
//!     .input("Bus_free")
//!     .input_weighted("Empty_I_buffers", 2)
//!     .inhibitor("Operand_fetch_pending")
//!     .output("pre_fetching")
//!     .add();
//! let net = b.build()?;
//! assert_eq!(net.place_count(), 4);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
mod builder;
mod error;
pub mod expr;
pub mod formula;
pub mod invariant;
mod marking;
mod net;
mod time;

pub use builder::{NetBuilder, TransitionBuilder};
pub use error::NetError;
pub use expr::{Action, CompileError, CompiledNet, Env, EvalError, Expr, ParseExprError, Value};
pub use marking::Marking;
pub use net::{Delay, Net, Place, PlaceId, Transition, TransitionId};
pub use time::Time;

/// Source of randomness used when evaluating `irand` in expressions and
/// when resolving conflicts by firing frequency.
///
/// Defined here (rather than depending on the `rand` crate) so that the
/// core model stays dependency-light; `pnut-sim` adapts a real RNG onto
/// this trait, and analysis tools that must stay deterministic (such as
/// reachability construction) can refuse randomness entirely.
pub trait Randomness {
    /// Return a uniformly distributed integer in `lo..=hi`.
    ///
    /// Implementations may assume `lo <= hi`; callers must validate.
    fn int_in_range(&mut self, lo: i64, hi: i64) -> i64;

    /// Return a uniformly distributed `f64` in `[0, 1)`.
    fn unit_f64(&mut self) -> f64;
}

/// A deterministic counter-based [`Randomness`] for tests.
///
/// Cycles through the admissible range; useful for making unit tests of
/// `irand`-bearing actions reproducible without pulling in an RNG crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CyclingRandomness {
    counter: u64,
}

impl CyclingRandomness {
    /// Create a cycling source starting at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Randomness for CyclingRandomness {
    fn int_in_range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo) as u64 + 1;
        let v = lo + (self.counter % span) as i64;
        self.counter = self.counter.wrapping_add(1);
        v
    }

    fn unit_f64(&mut self) -> f64 {
        let v = (self.counter % 1000) as f64 / 1000.0;
        self.counter = self.counter.wrapping_add(1);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycling_randomness_cycles_through_range() {
        let mut r = CyclingRandomness::new();
        let vals: Vec<i64> = (0..6).map(|_| r.int_in_range(1, 3)).collect();
        assert_eq!(vals, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn cycling_randomness_unit_f64_in_range() {
        let mut r = CyclingRandomness::new();
        for _ in 0..100 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
