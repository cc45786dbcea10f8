//! Dynamic cross-check: every spliced state of a built reachability
//! graph must satisfy every semi-positive P-invariant token sum.
//!
//! This closes the loop between the static analyzer and the engine in
//! both directions — a violation means either the structural proof or
//! the dynamic exploration is wrong — and doubles as a cheap semantic
//! integrity check on pager spill reloads: a corrupted state image that
//! slips past the format's structural validation still changes a token
//! count, which the invariant sum catches.

use std::fmt;

use pnut_core::{invariant, Net};
use pnut_reach::{ReachError, ReachabilityGraph};

/// Summary of a clean [`check_invariants`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantCheck {
    /// Number of semi-positive P-invariants verified per state.
    pub invariants: usize,
    /// States whose sums were checked.
    pub states_checked: u64,
    /// Timed mid-firing states skipped: with tokens in transit inside a
    /// transition, the sum is legitimately below its quiescent value.
    pub states_skipped: u64,
}

/// Why a [`check_invariants`] sweep stopped.
#[derive(Debug)]
pub enum InvariantCheckError {
    /// The underlying paged sweep failed (e.g. a spill I/O error).
    Reach(ReachError),
    /// A state's weighted token sum differs from the conserved value —
    /// engine bug or corrupted spill reload.
    Violation {
        /// Index of the offending state.
        state: usize,
        /// The invariant's place weights.
        weights: Vec<i64>,
        /// The invariant rendered as an equation over place names.
        invariant: String,
        /// The conserved sum (at the initial marking).
        expected: i64,
        /// The sum actually observed in the state.
        got: i64,
    },
}

impl fmt::Display for InvariantCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantCheckError::Reach(e) => write!(f, "{e}"),
            InvariantCheckError::Violation {
                state,
                invariant,
                expected,
                got,
                ..
            } => write!(
                f,
                "state {state} violates P-invariant {invariant}: expected sum {expected}, got \
                 {got} (engine bug or corrupted spill reload)"
            ),
        }
    }
}

impl std::error::Error for InvariantCheckError {}

impl From<ReachError> for InvariantCheckError {
    fn from(e: ReachError) -> Self {
        InvariantCheckError::Reach(e)
    }
}

/// Assert every state of `graph` satisfies every semi-positive
/// P-invariant of `net`, in one [`ReachabilityGraph::sweep`], so the
/// pager's resident budget is respected.
///
/// Timed states with tokens in flight are skipped (see
/// [`InvariantCheck::states_skipped`]); untimed graphs have none.
///
/// # Errors
///
/// [`InvariantCheckError::Violation`] on the first failing state,
/// [`InvariantCheckError::Reach`] if the sweep itself fails.
pub fn check_invariants(
    net: &Net,
    graph: &mut ReachabilityGraph,
) -> Result<InvariantCheck, InvariantCheckError> {
    let _span = pnut_obs::span("analysis.check_invariants");
    let invariants = invariant::semi_positive_p_invariants(&invariant::p_invariants(net));
    if invariants.is_empty() {
        return Ok(InvariantCheck {
            invariants: 0,
            states_checked: 0,
            states_skipped: 0,
        });
    }
    let m0 = net.initial_marking();
    let expected: Vec<i64> = invariants.iter().map(|inv| inv.token_sum(&m0)).collect();

    let mut checked = 0u64;
    let mut skipped = 0u64;
    graph.sweep(|i, guard| -> Result<(), InvariantCheckError> {
        let state = guard.state(i)?;
        if !state.in_flight.is_empty() {
            skipped += 1;
            return Ok(());
        }
        let marking = state.marking.as_slice();
        for (k, inv) in invariants.iter().enumerate() {
            let got: i64 = inv
                .weights
                .iter()
                .zip(marking)
                .map(|(&w, &m)| w * i64::from(m))
                .sum();
            if got != expected[k] {
                return Err(InvariantCheckError::Violation {
                    state: i,
                    weights: inv.weights.clone(),
                    invariant: describe_invariant(net, &inv.weights, expected[k]),
                    expected: expected[k],
                    got,
                });
            }
        }
        checked += 1;
        Ok(())
    })?;
    pnut_obs::metrics::ANALYSIS_INVARIANT_STATES.add(checked);
    Ok(InvariantCheck {
        invariants: invariants.len(),
        states_checked: checked,
        states_skipped: skipped,
    })
}

/// Render a P-invariant as an equation over place names, e.g.
/// `Bus_free + Bus_busy = 1`.
fn describe_invariant(net: &Net, weights: &[i64], sum: i64) -> String {
    let mut lhs = String::new();
    for (p, &w) in weights.iter().enumerate() {
        if w == 0 {
            continue;
        }
        if !lhs.is_empty() {
            lhs.push_str(" + ");
        }
        if w != 1 {
            lhs.push_str(&format!("{w}*"));
        }
        lhs.push_str(net.place(pnut_core::PlaceId::new(p)).name());
    }
    format!("{lhs} = {sum}")
}
