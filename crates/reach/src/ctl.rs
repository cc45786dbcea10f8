//! Branching-time temporal logic over reachability graphs (`[MR87]`).
//!
//! "The P-NUT reachability graph analyzer allows users to enter
//! high-level specification of the expected behavior of a system in
//! first-order predicate calculus and in branching time temporal logic.
//! The analyzer then determines if all possible behaviors of the system
//! meet the high level specification." (paper §4.4)
//!
//! Formulas are CTL with atomic propositions comparing integer terms
//! over place token counts (and, for timed graphs, in-flight
//! transition counts):
//!
//! ```text
//! AG (Bus_free + Bus_busy = 1)       -- invariant
//! EF (Empty_I_buffers = 0)           -- the buffer can fill up
//! AG (req = 1 -> AF (ack = 1))       -- response property
//! E [ idle = 1 U busy = 1 ]          -- until
//! ```
//!
//! The lexer, the terms and the atoms are shared with the trace query
//! language, in [`pnut_core::formula`]: a name in a term is the place of
//! that name, else the transition, and a bare term `P` means `P > 0`.
//! This module adds the connectives: `not` and the prefix operators `EX`
//! `AX` `EF` `AF` `EG` `AG` bind tightest, then `and`, then `or`, then
//! `->`, which associates to the right; `E [ f U g ]` and `A [ f U g ]`
//! are until. An atom resolves its names once, before its sweep, and its
//! arithmetic is checked: a value outside `i64` is
//! [`CtlError::Overflow`] at the state being evaluated.
//!
//! Deadlock states are treated as having an implicit self-loop, the
//! usual convention for CTL over finite graphs with terminal states.
//!
//! # Memory: fixpoints sweep the graph segment-at-a-time
//!
//! Every sweep — atom evaluation, `EX`/`AX`, and the `EU`/`EG`
//! fixpoint iterations — is one [`ReachabilityGraph::sweep`], which
//! walks the graph in segment order and evicts between segments (which
//! is why [`check`] takes `&mut`: eviction needs exclusive access). On a
//! budgeted graph ([`crate::graph::ReachOptions::mem_budget`]) the
//! checker therefore runs in `budget + one pinned guard` resident
//! bytes plus the `O(states)` satisfaction bit-vectors, instead of
//! faulting the whole store resident — model checking, not just graph
//! construction, scales past RAM.

use crate::graph::{ReachError, ReachabilityGraph, SegmentGuard};
use pnut_core::formula::{Atom, Cursor, ParseError, Source, Tok};
use pnut_core::Net;
use pnut_obs as obs;
use std::fmt;

/// Error from parsing or checking a CTL formula.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlError {
    /// Malformed formula text.
    Parse {
        /// Description of the problem.
        message: String,
        /// Byte offset.
        position: usize,
    },
    /// An atomic proposition referenced an unknown place/transition.
    UnknownName(String),
    /// Term arithmetic overflowed `i64` at state `#n`.
    Overflow(usize),
    /// A sweep failed to page a graph segment ([`ReachError::Spill`]:
    /// the spill file vanished, the disk errored, or a reloaded image
    /// was rejected as corrupt). The graph stays usable; a retry
    /// re-faults from scratch.
    Reach(ReachError),
}

impl fmt::Display for CtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtlError::Parse { message, position } => write!(f, "{message} at byte {position}"),
            CtlError::UnknownName(n) => {
                write!(f, "`{n}` is neither a place nor a transition of the net")
            }
            CtlError::Overflow(n) => write!(f, "arithmetic overflow at state #{n}"),
            CtlError::Reach(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CtlError::Reach(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for CtlError {
    fn from(e: ParseError) -> Self {
        CtlError::Parse {
            message: e.message,
            position: e.position,
        }
    }
}

impl From<ReachError> for CtlError {
    fn from(e: ReachError) -> Self {
        CtlError::Reach(e)
    }
}

/// A CTL formula.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// Constant truth.
    True,
    /// Constant falsehood.
    False,
    /// Comparison of two terms in the current state; a name counts the
    /// tokens on the place of that name, else the firings in progress of
    /// the transition of that name.
    Atom(Atom<String>),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Some successor satisfies the operand.
    Ex(Box<Formula>),
    /// All successors satisfy the operand.
    Ax(Box<Formula>),
    /// Some path eventually satisfies the operand.
    Ef(Box<Formula>),
    /// All paths eventually satisfy the operand.
    Af(Box<Formula>),
    /// Some path globally satisfies the operand.
    Eg(Box<Formula>),
    /// All paths globally satisfy the operand.
    Ag(Box<Formula>),
    /// `E[f U g]`.
    Eu(Box<Formula>, Box<Formula>),
    /// `A[f U g]`.
    Au(Box<Formula>, Box<Formula>),
}

impl Formula {
    /// Parse a formula from text.
    ///
    /// # Errors
    ///
    /// Returns [`CtlError::Parse`] on malformed input.
    pub fn parse(src: &str) -> Result<Self, CtlError> {
        let mut c = Cursor::new(src)?;
        let f = implies(&mut c)?;
        c.finish()?;
        Ok(f)
    }
}

/// Result of checking a formula over a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Whether the initial state satisfies the formula.
    pub holds_initially: bool,
    /// Per-state satisfaction (index = state id).
    pub satisfying: Vec<bool>,
}

impl CheckOutcome {
    /// Number of states satisfying the formula.
    pub fn count(&self) -> usize {
        self.satisfying.iter().filter(|&&b| b).count()
    }
}

/// Model-check `formula` on `graph` (which must have been built from
/// `net`, used for name resolution).
///
/// Takes `&mut` because every sweep evicts cold segments between
/// pinned ones ([`ReachabilityGraph::sweep`]), which keeps the
/// checker inside the graph's byte budget; the graph itself is never
/// modified, and the result is identical at any budget.
///
/// # Errors
///
/// Returns [`CtlError::UnknownName`] for unresolved atom names,
/// [`CtlError::Overflow`] for term arithmetic outside `i64`, and
/// [`CtlError::Reach`] if any sweep fails to page a graph segment
/// (wrapping the [`ReachError::Spill`] from the pager) — the process
/// never aborts on a bad spill reload, the one check does.
pub fn check(
    graph: &mut ReachabilityGraph,
    net: &Net,
    formula: &Formula,
) -> Result<CheckOutcome, CtlError> {
    let _span = obs::span("ctl.check");
    let sat = sat_set(graph, net, formula)?;
    Ok(CheckOutcome {
        holds_initially: sat.first().copied().unwrap_or(false),
        satisfying: sat,
    })
}

/// One [`ReachabilityGraph::sweep`], counted in `ctl.sweeps`.
fn sweep<E: From<ReachError>>(
    graph: &mut ReachabilityGraph,
    f: impl FnMut(usize, &SegmentGuard<'_>) -> Result<(), E>,
) -> Result<(), E> {
    obs::metrics::CTL_SWEEPS.inc();
    graph.sweep(f)
}

/// Whether some successor of `i` (deadlock self-loop convention) is in
/// `set`.
fn any_succ(guard: &SegmentGuard<'_>, i: usize, set: &[bool]) -> Result<bool, ReachError> {
    let succs = guard.successors(i)?;
    Ok(if succs.is_empty() {
        set[i]
    } else {
        succs.iter().any(|&(_, j)| set[j as usize])
    })
}

/// Whether all successors of `i` (deadlock self-loop convention) are
/// in `set`.
fn all_succ(guard: &SegmentGuard<'_>, i: usize, set: &[bool]) -> Result<bool, ReachError> {
    let succs = guard.successors(i)?;
    Ok(if succs.is_empty() {
        set[i]
    } else {
        succs.iter().all(|&(_, j)| set[j as usize])
    })
}

fn sat_set(
    graph: &mut ReachabilityGraph,
    net: &Net,
    formula: &Formula,
) -> Result<Vec<bool>, CtlError> {
    let n = graph.state_count();
    let all = |v: bool| vec![v; n];
    Ok(match formula {
        Formula::True => all(true),
        Formula::False => all(false),
        Formula::Atom(atom) => {
            let atom = atom.bind(&mut |name: &String| {
                Source::resolve(net.place_id(name), || net.transition_id(name))
                    .ok_or_else(|| CtlError::UnknownName(name.clone()))
            })?;
            let mut sat = all(false);
            sweep(graph, |i, guard| -> Result<(), CtlError> {
                let state = guard.state(i)?;
                let count = |source: &Source| match *source {
                    Source::Place(p) => i64::from(state.marking.tokens(p)),
                    Source::Transition(t) => {
                        state.in_flight.iter().filter(|&&(x, _)| x == t).count() as i64
                    }
                };
                sat[i] = atom.eval(&count).ok_or(CtlError::Overflow(i))?;
                Ok(())
            })?;
            sat
        }
        Formula::Not(f) => {
            let mut sat = sat_set(graph, net, f)?;
            for s in &mut sat {
                *s = !*s;
            }
            sat
        }
        Formula::And(a, b) => {
            let sa = sat_set(graph, net, a)?;
            let sb = sat_set(graph, net, b)?;
            sa.iter().zip(sb).map(|(&x, y)| x && y).collect()
        }
        Formula::Or(a, b) => {
            let sa = sat_set(graph, net, a)?;
            let sb = sat_set(graph, net, b)?;
            sa.iter().zip(sb).map(|(&x, y)| x || y).collect()
        }
        Formula::Implies(a, b) => {
            let sa = sat_set(graph, net, a)?;
            let sb = sat_set(graph, net, b)?;
            sa.iter().zip(sb).map(|(&x, y)| !x || y).collect()
        }
        Formula::Ex(f) => {
            let sf = sat_set(graph, net, f)?;
            let mut sat = all(false);
            sweep(graph, |i, guard| -> Result<(), CtlError> {
                sat[i] = any_succ(guard, i, &sf)?;
                Ok(())
            })?;
            sat
        }
        Formula::Ax(f) => {
            let sf = sat_set(graph, net, f)?;
            let mut sat = all(false);
            sweep(graph, |i, guard| -> Result<(), CtlError> {
                sat[i] = all_succ(guard, i, &sf)?;
                Ok(())
            })?;
            sat
        }
        Formula::Ef(f) => {
            let sf = sat_set(graph, net, f)?;
            eu(graph, &vec![true; n], &sf)?
        }
        Formula::Eu(a, b) => {
            let sa = sat_set(graph, net, a)?;
            let sb = sat_set(graph, net, b)?;
            eu(graph, &sa, &sb)?
        }
        Formula::Eg(f) => {
            let sf = sat_set(graph, net, f)?;
            eg(graph, &sf)?
        }
        Formula::Af(f) => {
            // AF f = ¬EG ¬f
            let mut nf = sat_set(graph, net, f)?;
            for s in &mut nf {
                *s = !*s;
            }
            let mut sat = eg(graph, &nf)?;
            for s in &mut sat {
                *s = !*s;
            }
            sat
        }
        Formula::Ag(f) => {
            // AG f = ¬EF ¬f
            let mut nf = sat_set(graph, net, f)?;
            for s in &mut nf {
                *s = !*s;
            }
            let mut sat = eu(graph, &vec![true; n], &nf)?;
            for s in &mut sat {
                *s = !*s;
            }
            sat
        }
        Formula::Au(a, b) => {
            // A[a U b] = ¬( E[¬b U (¬a ∧ ¬b)] ∨ EG ¬b )
            let sa = sat_set(graph, net, a)?;
            let sb = sat_set(graph, net, b)?;
            let not_b: Vec<bool> = sb.iter().map(|&x| !x).collect();
            let not_a_and_not_b: Vec<bool> = sa.iter().zip(&sb).map(|(&x, &y)| !x && !y).collect();
            let e1 = eu(graph, &not_b, &not_a_and_not_b)?;
            let e2 = eg(graph, &not_b)?;
            e1.iter().zip(e2).map(|(&x, y)| !(x || y)).collect()
        }
    })
}

/// Least fixpoint for `E[a U b]`. Each iteration is one segment-ordered
/// sweep; iterating until no sweep changes anything.
///
/// # Errors
///
/// [`ReachError::Spill`] if any sweep fails to page a segment.
fn eu(graph: &mut ReachabilityGraph, sa: &[bool], sb: &[bool]) -> Result<Vec<bool>, ReachError> {
    let mut sat: Vec<bool> = sb.to_vec();
    loop {
        obs::metrics::CTL_EU_ITERATIONS.inc();
        let mut changed = false;
        sweep(graph, |i, guard| -> Result<(), ReachError> {
            if !sat[i] && sa[i] && any_succ(guard, i, &sat)? {
                sat[i] = true;
                changed = true;
            }
            Ok(())
        })?;
        if !changed {
            return Ok(sat);
        }
    }
}

/// Greatest fixpoint for `EG a`, segment-ordered like [`eu`].
///
/// # Errors
///
/// [`ReachError::Spill`] if any sweep fails to page a segment.
fn eg(graph: &mut ReachabilityGraph, sa: &[bool]) -> Result<Vec<bool>, ReachError> {
    let mut sat: Vec<bool> = sa.to_vec();
    loop {
        obs::metrics::CTL_EG_ITERATIONS.inc();
        let mut changed = false;
        sweep(graph, |i, guard| -> Result<(), ReachError> {
            if sat[i] && !any_succ(guard, i, &sat)? {
                sat[i] = false;
                changed = true;
            }
            Ok(())
        })?;
        if !changed {
            return Ok(sat);
        }
    }
}

// ---------------------------------------------------------------------------
// Parser: the connectives; terms and atoms are `pnut_core::formula`'s.
// ---------------------------------------------------------------------------

/// `a -> b`, right associative, below `or`.
fn implies(c: &mut Cursor) -> Result<Formula, ParseError> {
    let lhs = disj(c)?;
    if c.eat(&Tok::Arrow) {
        Ok(Formula::Implies(Box::new(lhs), Box::new(implies(c)?)))
    } else {
        Ok(lhs)
    }
}

fn disj(c: &mut Cursor) -> Result<Formula, ParseError> {
    let mut lhs = conj(c)?;
    while c.eat_keyword("or") {
        lhs = Formula::Or(Box::new(lhs), Box::new(conj(c)?));
    }
    Ok(lhs)
}

fn conj(c: &mut Cursor) -> Result<Formula, ParseError> {
    let mut lhs = unary(c)?;
    while c.eat_keyword("and") {
        lhs = Formula::And(Box::new(lhs), Box::new(unary(c)?));
    }
    Ok(lhs)
}

type Unary = fn(Box<Formula>) -> Formula;
type Binary = fn(Box<Formula>, Box<Formula>) -> Formula;

/// The prefix operators, which bind tighter than `and`.
const PREFIXES: [(&str, Unary); 7] = [
    ("not", Formula::Not),
    ("EX", Formula::Ex),
    ("AX", Formula::Ax),
    ("EF", Formula::Ef),
    ("AF", Formula::Af),
    ("EG", Formula::Eg),
    ("AG", Formula::Ag),
];

/// `E [ f U g ]` and `A [ f U g ]`.
const UNTILS: [(&str, Binary); 2] = [("E", Formula::Eu), ("A", Formula::Au)];

fn unary(c: &mut Cursor) -> Result<Formula, ParseError> {
    for (word, prefix) in PREFIXES {
        if c.eat_keyword(word) {
            return Ok(prefix(Box::new(unary(c)?)));
        }
    }
    if c.eat_keyword("true") {
        return Ok(Formula::True);
    }
    if c.eat_keyword("false") {
        return Ok(Formula::False);
    }
    for (word, until) in UNTILS {
        if c.eat_keyword(word) {
            c.expect(&Tok::LBracket, "`[`")?;
            let a = implies(c)?;
            c.keyword("U")?;
            let b = implies(c)?;
            c.expect(&Tok::RBracket, "`]`")?;
            return Ok(until(Box::new(a), Box::new(b)));
        }
    }
    match c.parenthesized(implies) {
        Some(f) => Ok(f),
        None => Ok(Formula::Atom(c.atom(|_, name| Ok(name))?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build_untimed, ReachOptions};
    use pnut_core::NetBuilder;

    fn mutex_net() -> pnut_core::Net {
        let mut b = NetBuilder::new("mutex");
        b.place("free", 1);
        b.place("a_cs", 0);
        b.place("b_cs", 0);
        b.transition("a_enter").input("free").output("a_cs").add();
        b.transition("a_exit").input("a_cs").output("free").add();
        b.transition("b_enter").input("free").output("b_cs").add();
        b.transition("b_exit").input("b_cs").output("free").add();
        b.build().unwrap()
    }

    fn holds(net: &pnut_core::Net, f: &str) -> bool {
        let mut g = build_untimed(net, &ReachOptions::default()).unwrap();
        let formula = Formula::parse(f).unwrap();
        check(&mut g, net, &formula).unwrap().holds_initially
    }

    #[test]
    fn mutual_exclusion_invariant() {
        let net = mutex_net();
        assert!(holds(&net, "AG (a_cs + b_cs <= 1)"));
        assert!(!holds(&net, "AG (a_cs = 0)"));
    }

    #[test]
    fn reachability_formulas() {
        let net = mutex_net();
        assert!(holds(&net, "EF (a_cs = 1)"));
        assert!(holds(&net, "EF (b_cs = 1)"));
        assert!(!holds(&net, "EF (a_cs = 1 and b_cs = 1)"));
    }

    #[test]
    fn next_state_operators() {
        let net = mutex_net();
        assert!(holds(&net, "EX (a_cs = 1)"));
        assert!(!holds(&net, "AX (a_cs = 1)"), "b_enter is an alternative");
        assert!(holds(&net, "AX (a_cs + b_cs = 1)"));
    }

    #[test]
    fn until_operators() {
        let net = mutex_net();
        assert!(holds(&net, "E [ free = 1 U a_cs = 1 ]"));
        // Not all paths reach a_cs (the b loop avoids it forever).
        assert!(!holds(&net, "A [ true U a_cs = 1 ]"));
        assert!(!holds(&net, "AF (a_cs = 1)"));
    }

    #[test]
    fn eg_on_cycles() {
        let net = mutex_net();
        // There is an infinite path avoiding a_cs (loop through b).
        assert!(holds(&net, "EG (a_cs = 0)"));
        assert!(!holds(&net, "EG (free = 1)"), "every state must move");
    }

    #[test]
    fn implication_and_response() {
        let net = mutex_net();
        // Whenever a is in its critical section, it can eventually leave.
        assert!(holds(&net, "AG (a_cs = 1 -> EF (free = 1))"));
        assert!(holds(&net, "AG (a_cs = 1 -> AF (free = 1))"));
    }

    #[test]
    fn deadlock_self_loop_semantics() {
        let mut b = NetBuilder::new("dead");
        b.place("a", 1);
        b.place("b", 0);
        b.transition("t").input("a").output("b").add();
        let net = b.build().unwrap();
        // The final state (deadlock) satisfies EG (b = 1) via self-loop.
        assert!(holds(&net, "EF EG (b = 1)"));
        assert!(holds(&net, "AF (b = 1)"));
    }

    #[test]
    fn bare_names_mean_nonzero() {
        let net = mutex_net();
        assert!(holds(&net, "AG (a_cs -> not b_cs)"));
    }

    #[test]
    fn unknown_name_reported() {
        let net = mutex_net();
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        let f = Formula::parse("AG (ghost = 0)").unwrap();
        assert_eq!(
            check(&mut g, &net, &f).unwrap_err(),
            CtlError::UnknownName("ghost".into())
        );
    }

    #[test]
    fn arithmetic_overflow_is_an_error_at_the_state() {
        let net = mutex_net();
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        let a_cs = Formula::parse("a_cs = 1").unwrap();
        let first_a_cs = check(&mut g, &net, &a_cs)
            .unwrap()
            .satisfying
            .iter()
            .position(|&b| b)
            .unwrap();
        assert!(first_a_cs > 0);
        for (text, at) in [
            ("AG (9223372036854775807 + 1 > 0)", 0),
            ("EF (0 - 9223372036854775807 - 2 > 0)", 0),
            ("EF (3037000500 * 3037000500 > 0)", 0),
            ("EF (9223372036854775807 + a_cs > 0)", first_a_cs),
        ] {
            let f = Formula::parse(text).unwrap();
            assert_eq!(
                check(&mut g, &net, &f),
                Err(CtlError::Overflow(at)),
                "{text}"
            );
        }
        assert_eq!(
            CtlError::Overflow(3).to_string(),
            "arithmetic overflow at state #3"
        );
    }

    #[test]
    fn primed_names_parse_and_resolve() {
        let net = mutex_net();
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        let f = Formula::parse("AG (a_cs' = 0)").unwrap();
        assert_eq!(
            check(&mut g, &net, &f).unwrap_err(),
            CtlError::UnknownName("a_cs'".into())
        );
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "AG",
            "E [ a = 1 ]",
            "a = ",
            "AG (a = 1))",
            "! a",
            "AG (#0 = 1)",
            "a = 1 | b = 1",
            "{a}",
        ] {
            assert!(Formula::parse(bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn an_unfinished_formula_fails_at_its_end() {
        for (text, at) in [("AG (CPU", 7), ("EF (a + 12", 10), ("AG (CPU  ", 9)] {
            match Formula::parse(text) {
                Err(CtlError::Parse { position, .. }) => assert_eq!(position, at, "{text}"),
                other => panic!("`{text}`: {other:?}"),
            }
        }
    }
}
