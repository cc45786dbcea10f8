//! Branching-time temporal logic over reachability graphs (`[MR87]`).
//!
//! "The P-NUT reachability graph analyzer allows users to enter
//! high-level specification of the expected behavior of a system in
//! first-order predicate calculus and in branching time temporal logic.
//! The analyzer then determines if all possible behaviors of the system
//! meet the high level specification." (paper §4.4)
//!
//! Formulas are CTL with atomic propositions comparing linear
//! combinations of place token counts (and, for timed graphs, in-flight
//! transition counts):
//!
//! ```text
//! AG (Bus_free + Bus_busy = 1)       -- invariant
//! EF (Empty_I_buffers = 0)           -- the buffer can fill up
//! AG (req = 1 -> AF (ack = 1))       -- response property
//! E [ idle = 1 U busy = 1 ]          -- until
//! ```
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
use crate::store::StateRef;
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

impl From<ReachError> for CtlError {
    fn from(e: ReachError) -> Self {
        CtlError::Reach(e)
    }
}

/// Comparison operators in atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic terms in atoms.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    Int(i64),
    Name(String),
    Add(Box<Term>, Box<Term>),
    Sub(Box<Term>, Box<Term>),
    Mul(Box<Term>, Box<Term>),
}

/// A CTL formula.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// Constant truth.
    True,
    /// Constant falsehood.
    False,
    /// Comparison of two terms in the current state.
    #[doc(hidden)]
    Atom(Term, CmpOp, Term),
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
        let mut p = Parser::new(src)?;
        let f = p.implies()?;
        if p.pos != p.toks.len() {
            return Err(p.err("unexpected trailing input"));
        }
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
/// Returns [`CtlError::UnknownName`] for unresolved atom names, and
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

fn eval_term(term: &Term, state: StateRef<'_>, net: &Net) -> Result<i64, CtlError> {
    match term {
        Term::Int(v) => Ok(*v),
        Term::Name(n) => {
            if let Some(p) = net.place_id(n) {
                return Ok(i64::from(state.marking.tokens(p)));
            }
            if let Some(t) = net.transition_id(n) {
                return Ok(state.in_flight.iter().filter(|&&(x, _)| x == t).count() as i64);
            }
            Err(CtlError::UnknownName(n.clone()))
        }
        Term::Add(a, b) => Ok(eval_term(a, state, net)? + eval_term(b, state, net)?),
        Term::Sub(a, b) => Ok(eval_term(a, state, net)? - eval_term(b, state, net)?),
        Term::Mul(a, b) => Ok(eval_term(a, state, net)? * eval_term(b, state, net)?),
    }
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
        Formula::Atom(a, op, b) => {
            let mut sat = all(false);
            sweep(graph, |i, guard| -> Result<(), CtlError> {
                let state = guard.state(i)?;
                let x = eval_term(a, state, net)?;
                let y = eval_term(b, state, net)?;
                sat[i] = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                };
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
// Parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Plus,
    Minus,
    Star,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Arrow,
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, CtlError> {
        let bytes = src.as_bytes();
        let mut toks = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let pos = i;
            match bytes[i] as char {
                ' ' | '\t' | '\n' | '\r' => i += 1,
                '(' => {
                    toks.push((Tok::LParen, pos));
                    i += 1;
                }
                ')' => {
                    toks.push((Tok::RParen, pos));
                    i += 1;
                }
                '[' => {
                    toks.push((Tok::LBracket, pos));
                    i += 1;
                }
                ']' => {
                    toks.push((Tok::RBracket, pos));
                    i += 1;
                }
                '+' => {
                    toks.push((Tok::Plus, pos));
                    i += 1;
                }
                '*' => {
                    toks.push((Tok::Star, pos));
                    i += 1;
                }
                '-' => {
                    if bytes.get(i + 1) == Some(&b'>') {
                        toks.push((Tok::Arrow, pos));
                        i += 2;
                    } else {
                        toks.push((Tok::Minus, pos));
                        i += 1;
                    }
                }
                '=' => {
                    i += if bytes.get(i + 1) == Some(&b'=') {
                        2
                    } else {
                        1
                    };
                    toks.push((Tok::Eq, pos));
                }
                '!' => {
                    if bytes.get(i + 1) == Some(&b'=') {
                        toks.push((Tok::Ne, pos));
                        i += 2;
                    } else {
                        return Err(CtlError::Parse {
                            message: "expected `!=` (use `not` for negation)".into(),
                            position: pos,
                        });
                    }
                }
                '<' => {
                    if bytes.get(i + 1) == Some(&b'=') {
                        toks.push((Tok::Le, pos));
                        i += 2;
                    } else {
                        toks.push((Tok::Lt, pos));
                        i += 1;
                    }
                }
                '>' => {
                    if bytes.get(i + 1) == Some(&b'=') {
                        toks.push((Tok::Ge, pos));
                        i += 2;
                    } else {
                        toks.push((Tok::Gt, pos));
                        i += 1;
                    }
                }
                '0'..='9' => {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let v = src[start..i].parse().map_err(|_| CtlError::Parse {
                        message: "integer out of range".into(),
                        position: start,
                    })?;
                    toks.push((Tok::Int(v), pos));
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let start = i;
                    while i < bytes.len()
                        && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    toks.push((Tok::Ident(src[start..i].to_string()), pos));
                }
                other => {
                    return Err(CtlError::Parse {
                        message: format!("unexpected character `{other}`"),
                        position: pos,
                    });
                }
            }
        }
        Ok(Parser { toks, pos: 0 })
    }

    fn err(&self, message: &str) -> CtlError {
        CtlError::Parse {
            message: message.to_string(),
            position: self
                .toks
                .get(self.pos)
                .map(|&(_, p)| p)
                .unwrap_or_else(|| self.toks.last().map(|&(_, p)| p + 1).unwrap_or(0)),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), CtlError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn implies(&mut self) -> Result<Formula, CtlError> {
        let lhs = self.disj()?;
        if self.eat(&Tok::Arrow) {
            let rhs = self.implies()?; // right associative
            Ok(Formula::Implies(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn disj(&mut self) -> Result<Formula, CtlError> {
        let mut lhs = self.conj()?;
        while matches!(self.peek(), Some(Tok::Ident(s)) if s == "or") {
            self.pos += 1;
            let rhs = self.conj()?;
            lhs = Formula::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn conj(&mut self) -> Result<Formula, CtlError> {
        let mut lhs = self.unary()?;
        while matches!(self.peek(), Some(Tok::Ident(s)) if s == "and") {
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Formula::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Formula, CtlError> {
        if let Some(Tok::Ident(s)) = self.peek().cloned() {
            match s.as_str() {
                "not" => {
                    self.pos += 1;
                    return Ok(Formula::Not(Box::new(self.unary()?)));
                }
                "true" => {
                    self.pos += 1;
                    return Ok(Formula::True);
                }
                "false" => {
                    self.pos += 1;
                    return Ok(Formula::False);
                }
                "EX" | "AX" | "EF" | "AF" | "EG" | "AG" => {
                    self.pos += 1;
                    let f = Box::new(self.unary()?);
                    return Ok(match s.as_str() {
                        "EX" => Formula::Ex(f),
                        "AX" => Formula::Ax(f),
                        "EF" => Formula::Ef(f),
                        "AF" => Formula::Af(f),
                        "EG" => Formula::Eg(f),
                        _ => Formula::Ag(f),
                    });
                }
                "E" | "A" => {
                    let exist = s == "E";
                    self.pos += 1;
                    self.expect(&Tok::LBracket, "`[`")?;
                    let a = self.implies()?;
                    match self.peek() {
                        Some(Tok::Ident(u)) if u == "U" => self.pos += 1,
                        _ => return Err(self.err("expected `U`")),
                    }
                    let b = self.implies()?;
                    self.expect(&Tok::RBracket, "`]`")?;
                    return Ok(if exist {
                        Formula::Eu(Box::new(a), Box::new(b))
                    } else {
                        Formula::Au(Box::new(a), Box::new(b))
                    });
                }
                _ => {}
            }
        }
        if self.peek() == Some(&Tok::LParen) {
            // Parenthesized formula or parenthesized term in an atom.
            let save = self.pos;
            self.pos += 1;
            if let Ok(f) = self.implies() {
                if self.eat(&Tok::RParen) && !self.peek_is_arith_or_relop() {
                    return Ok(f);
                }
            }
            self.pos = save;
        }
        self.atom()
    }

    fn peek_is_arith_or_relop(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                Tok::Plus
                    | Tok::Minus
                    | Tok::Star
                    | Tok::Eq
                    | Tok::Ne
                    | Tok::Lt
                    | Tok::Le
                    | Tok::Gt
                    | Tok::Ge
            )
        )
    }

    fn atom(&mut self) -> Result<Formula, CtlError> {
        let lhs = self.term()?;
        let op = match self.peek() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            // Bare `P` means `P > 0`.
            _ => return Ok(Formula::Atom(lhs, CmpOp::Gt, Term::Int(0))),
        };
        self.pos += 1;
        let rhs = self.term()?;
        Ok(Formula::Atom(lhs, op, rhs))
    }

    fn term(&mut self) -> Result<Term, CtlError> {
        let mut lhs = self.factor()?;
        loop {
            if self.eat(&Tok::Plus) {
                lhs = Term::Add(Box::new(lhs), Box::new(self.factor()?));
            } else if self.eat(&Tok::Minus) {
                lhs = Term::Sub(Box::new(lhs), Box::new(self.factor()?));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Term, CtlError> {
        let mut lhs = self.primary()?;
        while self.eat(&Tok::Star) {
            lhs = Term::Mul(Box::new(lhs), Box::new(self.primary()?));
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> Result<Term, CtlError> {
        match self.peek().cloned() {
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(Term::Int(v))
            }
            Some(Tok::Ident(n)) => {
                self.pos += 1;
                Ok(Term::Name(n))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let t = self.term()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(t)
            }
            _ => Err(self.err("expected a term")),
        }
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
    fn parse_errors() {
        for bad in ["AG", "E [ a = 1 ]", "a = ", "AG (a = 1))", "! a"] {
            assert!(Formula::parse(bad).is_err(), "should fail: {bad}");
        }
    }
}
