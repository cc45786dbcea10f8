//! The trace query / verification language (paper §4.4).
//!
//! Queries quantify over the set `S` of states in a simulation trace and
//! test first-order formulas about token counts and firing counts, plus
//! the temporal operator `inev` from the reachability-graph analyzer
//! `[MR87]` (interpreted linearly over the trace):
//!
//! ```text
//! forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]
//! exists s in (S - {#0}) [ Empty_I_buffers(s) = 6 ]
//! exists s in S [ exec_type_5(s) > 0 ]
//! forall s in {s' in S | Bus_busy(s')} [ inev(s, Bus_free(C), true) ]
//! ```
//!
//! `#0` is the initial state; `C` is the implicitly bound "current
//! state" inside `inev`; `name(s)` is the token count of place `name`
//! (or the concurrent-firing count of transition `name`) in state `s`.
//! A bare `P(s)` in formula position means `P(s) > 0`, matching the
//! paper's set comprehension `{s' in S | Bus_busy(s')}`.
//!
//! The lexer, the terms and the atoms are shared with the CTL formulas
//! of the reachability-graph analyzer, in [`pnut_core::formula`]; this
//! module adds the quantifiers, the state sets, the connectives (`not`
//! binds tightest, then `and`, then `or`) and `inev`.
//!
//! # Binding
//!
//! [`Query::check`] binds the whole query against the trace header
//! before it reads any state. Every `name(v)` resolves to a column:
//! the place of that name, else the transition of that name. Every
//! state variable resolves to the binder in scope:
//!
//! * a quantifier binds its variable in its body;
//! * a comprehension `{v in X | P}` binds `v` in `P`, and `P` sees no
//!   other variable: not the quantifier's, nor an enclosing
//!   comprehension's;
//! * `inev(v, T, G)` binds `C` in `T` and `G`, shadowing any outer `C`.
//!
//! An unknown name is [`QueryError::UnknownName`] and an unbound
//! variable [`QueryError::UnboundStateVariable`], even where `and`,
//! `or` or an empty set would never evaluate it. A `#n` beyond the
//! trace is [`QueryError::StateOutOfRange`], found when the set is
//! evaluated.
//!
//! # Evaluation
//!
//! One pass over the trace's states fills a table holding only the
//! counts the query names; formulas then run over that table. Term
//! arithmetic is checked: a sum, difference or product outside `i64`
//! is [`QueryError::Overflow`], naming the state being visited (the
//! innermost bound state: `C` inside `inev`).
//!
//! `inev(v, T, G)` holds at state `k` if `T` holds at `k`, fails if `G`
//! fails there, and otherwise holds iff it holds at `k + 1`; it fails
//! past the last state. When `T` and `G` read no state variable but
//! their own `C`, the answer for every start state comes from one
//! backward pass over the trace, so the query stays linear in the
//! trace. Otherwise (`T` or `G` also reads, say, the quantified `s`)
//! `inev` walks forward from each state it is asked about.

use pnut_core::formula::{Atom, Cursor, ParseError, Source, Tok};
use pnut_trace::{RecordedTrace, TraceHeader};
use std::fmt;

/// Error from parsing or evaluating a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Malformed query text.
    Parse {
        /// What went wrong.
        message: String,
        /// Byte offset of the problem.
        position: usize,
    },
    /// A `name(s)` referenced neither a place nor a transition.
    UnknownName(String),
    /// A state variable was used without being bound by a quantifier,
    /// comprehension, or `inev`.
    UnboundStateVariable(String),
    /// `#n` referenced a state beyond the trace.
    StateOutOfRange(usize),
    /// Term arithmetic overflowed `i64` while visiting state `#n`.
    Overflow(usize),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse { message, position } => {
                write!(f, "{message} at byte {position}")
            }
            QueryError::UnknownName(n) => {
                write!(f, "`{n}` is neither a place nor a transition of the trace")
            }
            QueryError::UnboundStateVariable(v) => write!(f, "unbound state variable `{v}`"),
            QueryError::StateOutOfRange(n) => write!(f, "state #{n} is beyond the trace"),
            QueryError::Overflow(n) => write!(f, "arithmetic overflow at state #{n}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse {
            message: e.message,
            position: e.position,
        }
    }
}

/// Result of checking a query against a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Whether the query holds.
    pub holds: bool,
    /// For a satisfied `exists`: the first witness state index. For a
    /// violated `forall`: the first counterexample state index.
    pub witness: Option<usize>,
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum SetExpr {
    All,
    Minus(Box<SetExpr>, Vec<usize>),
    Comprehension {
        var: String,
        of: Box<SetExpr>,
        pred: Box<Formula>,
    },
}

/// `name(state_var)`: a term's name.
#[derive(Debug, Clone, PartialEq)]
struct Count {
    name: String,
    state_var: String,
}

#[derive(Debug, Clone, PartialEq)]
enum Formula {
    Bool(bool),
    Cmp(Atom<Count>),
    And(Box<Formula>, Box<Formula>),
    Or(Box<Formula>, Box<Formula>),
    Not(Box<Formula>),
    /// `inev(s, target, guard)`: along the trace from `s`, `guard`
    /// (with `C` bound to each intermediate state) holds until a state
    /// where `target` holds; false if the trace ends first.
    Inev {
        from: String,
        target: Box<Formula>,
        guard: Box<Formula>,
    },
}

/// A parsed query: a quantifier over a state set with a body formula.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    forall: bool,
    var: String,
    set: SetExpr,
    body: Formula,
}

impl Query {
    /// Parse a query from the paper's concrete syntax.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Parse`] on malformed input.
    pub fn parse(src: &str) -> Result<Self, QueryError> {
        Ok(query(&mut Cursor::new(src)?)?)
    }

    /// Check the query against a trace.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownName`] or
    /// [`QueryError::UnboundStateVariable`] before reading any state, and
    /// [`QueryError::StateOutOfRange`] or [`QueryError::Overflow`] when
    /// evaluation meets them.
    pub fn check(&self, trace: &RecordedTrace) -> Result<QueryOutcome, QueryError> {
        let bound = Binder::new(trace.header()).query(self)?;
        let eval = Eval::new(&bound, trace);
        let mut slots = vec![0; bound.slots];
        for idx in eval.set(&bound.set, &mut slots)? {
            slots[0] = idx;
            let sat = eval.formula(&bound.body, &mut slots, idx)?;
            if sat != bound.forall {
                return Ok(QueryOutcome {
                    holds: sat,
                    witness: Some(idx),
                });
            }
        }
        Ok(QueryOutcome {
            holds: bound.forall,
            witness: None,
        })
    }
}

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

/// A [`Count`] with its name resolved to a column of the count table
/// and its state variable to a slot.
struct Cell {
    column: usize,
    slot: usize,
}

enum BoundFormula {
    Bool(bool),
    Cmp(Atom<Cell>),
    And(Box<BoundFormula>, Box<BoundFormula>),
    Or(Box<BoundFormula>, Box<BoundFormula>),
    Not(Box<BoundFormula>),
    /// An `inev` from the state in slot `from`, answered by entry `pass`
    /// of [`Bound::passes`].
    InevPass {
        from: usize,
        pass: usize,
    },
    /// An `inev` from the state in slot `from` that walks forward,
    /// binding `C` in slot `c`.
    InevWalk {
        from: usize,
        c: usize,
        target: Box<BoundFormula>,
        guard: Box<BoundFormula>,
    },
}

/// An `inev` whose target and guard read only its `C` (slot `c`), so
/// one backward pass answers it for every start state.
struct Pass {
    c: usize,
    target: BoundFormula,
    guard: BoundFormula,
}

enum BoundSet {
    All,
    Minus(Box<BoundSet>, Vec<usize>),
    /// The predicate's variable is slot 0.
    Comprehension {
        of: Box<BoundSet>,
        pred: BoundFormula,
    },
}

/// A query bound against one trace header.
struct Bound {
    forall: bool,
    set: BoundSet,
    /// The quantified variable is slot 0.
    body: BoundFormula,
    columns: Vec<Source>,
    /// Most state variables in scope at once.
    slots: usize,
    /// Backward passes, each after every pass it reads.
    passes: Vec<Pass>,
}

/// Resolves names against a trace header, in evaluation order, so the
/// first error is the one a full evaluation would meet first.
struct Binder<'a> {
    header: &'a TraceHeader,
    /// State variables in scope, innermost last; a variable's slot is its
    /// position.
    scope: Vec<&'a str>,
    columns: Vec<Source>,
    slots: usize,
    passes: Vec<Pass>,
    /// The shallowest slot read since the innermost enclosing `inev`
    /// began binding its target and guard.
    shallowest: usize,
}

impl<'a> Binder<'a> {
    fn new(header: &'a TraceHeader) -> Self {
        Binder {
            header,
            scope: Vec::new(),
            columns: Vec::new(),
            slots: 1,
            passes: Vec::new(),
            shallowest: usize::MAX,
        }
    }

    fn query(mut self, q: &'a Query) -> Result<Bound, QueryError> {
        let set = self.set(&q.set)?;
        self.scope = vec![q.var.as_str()];
        let body = self.formula(&q.body)?;
        Ok(Bound {
            forall: q.forall,
            set,
            body,
            columns: self.columns,
            slots: self.slots,
            passes: self.passes,
        })
    }

    fn set(&mut self, set: &'a SetExpr) -> Result<BoundSet, QueryError> {
        Ok(match set {
            SetExpr::All => BoundSet::All,
            SetExpr::Minus(of, removed) => {
                BoundSet::Minus(Box::new(self.set(of)?), removed.clone())
            }
            SetExpr::Comprehension { var, of, pred } => {
                let of = Box::new(self.set(of)?);
                let outer = std::mem::replace(&mut self.scope, vec![var.as_str()]);
                let pred = self.formula(pred)?;
                self.scope = outer;
                BoundSet::Comprehension { of, pred }
            }
        })
    }

    fn slot(&mut self, var: &str) -> Result<usize, QueryError> {
        let slot = self
            .scope
            .iter()
            .rposition(|&v| v == var)
            .ok_or_else(|| QueryError::UnboundStateVariable(var.to_string()))?;
        self.shallowest = self.shallowest.min(slot);
        Ok(slot)
    }

    /// The column of `name`: places win over transitions.
    fn column(&mut self, name: &str) -> Result<usize, QueryError> {
        let header = self.header;
        let source = Source::resolve(header.place_id(name), || header.transition_id(name))
            .ok_or_else(|| QueryError::UnknownName(name.to_string()))?;
        Ok(match self.columns.iter().position(|&c| c == source) {
            Some(column) => column,
            None => {
                self.columns.push(source);
                self.columns.len() - 1
            }
        })
    }

    fn atom(&mut self, atom: &Atom<Count>) -> Result<Atom<Cell>, QueryError> {
        atom.bind(&mut |count: &Count| {
            let slot = self.slot(&count.state_var)?;
            let column = self.column(&count.name)?;
            Ok(Cell { column, slot })
        })
    }

    fn boxed(&mut self, formula: &'a Formula) -> Result<Box<BoundFormula>, QueryError> {
        Ok(Box::new(self.formula(formula)?))
    }

    fn formula(&mut self, formula: &'a Formula) -> Result<BoundFormula, QueryError> {
        Ok(match formula {
            Formula::Bool(b) => BoundFormula::Bool(*b),
            Formula::Cmp(atom) => BoundFormula::Cmp(self.atom(atom)?),
            Formula::And(a, b) => BoundFormula::And(self.boxed(a)?, self.boxed(b)?),
            Formula::Or(a, b) => BoundFormula::Or(self.boxed(a)?, self.boxed(b)?),
            Formula::Not(a) => BoundFormula::Not(self.boxed(a)?),
            Formula::Inev {
                from,
                target,
                guard,
            } => {
                let from = self.slot(from)?;
                let outer = std::mem::replace(&mut self.shallowest, usize::MAX);
                let c = self.scope.len();
                self.scope.push("C");
                self.slots = self.slots.max(self.scope.len());
                let target = self.formula(target)?;
                let guard = self.formula(guard)?;
                self.scope.pop();
                let inner = self.shallowest;
                self.shallowest = outer.min(inner);
                if inner >= c {
                    self.passes.push(Pass { c, target, guard });
                    BoundFormula::InevPass {
                        from,
                        pass: self.passes.len() - 1,
                    }
                } else {
                    BoundFormula::InevWalk {
                        from,
                        c,
                        target: Box::new(target),
                        guard: Box::new(guard),
                    }
                }
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// A bound query's view of one trace.
struct Eval {
    /// `counts[k * width + column]`: the bound columns of state `k`.
    counts: Vec<u32>,
    width: usize,
    states: usize,
    /// `passes[i][k]`: pass `i`'s `inev` started at state `k`.
    passes: Vec<Vec<Result<bool, QueryError>>>,
}

impl Eval {
    /// Read the bound columns of every state in one cursor pass, then
    /// run the backward passes.
    fn new(bound: &Bound, trace: &RecordedTrace) -> Self {
        let mut counts = Vec::new();
        let mut states = 0;
        let mut cursor = trace.cursor();
        while let Some(state) = cursor.next() {
            counts.extend(bound.columns.iter().map(|&c| match c {
                Source::Place(p) => state.marking.tokens(p),
                Source::Transition(t) => state.firings(t),
            }));
            states += 1;
        }
        let mut eval = Eval {
            counts,
            width: bound.columns.len(),
            states,
            passes: Vec::with_capacity(bound.passes.len()),
        };
        let mut slots = vec![0; bound.slots];
        for pass in &bound.passes {
            let answers = eval.backward(pass, &mut slots);
            eval.passes.push(answers);
        }
        eval
    }

    /// `res[k]` is `T(k)` if that holds or errs, else `G(k)` if that
    /// fails or errs, else `res[k + 1]`, with `res[n] = false`: for every
    /// `k`, exactly what walking forward from `k` returns.
    fn backward(&self, pass: &Pass, slots: &mut [usize]) -> Vec<Result<bool, QueryError>> {
        let mut res = vec![Ok(false); self.states + 1];
        for k in (0..self.states).rev() {
            slots[pass.c] = k;
            res[k] = match self.formula(&pass.target, slots, k) {
                Ok(false) => match self.formula(&pass.guard, slots, k) {
                    Ok(true) => res[k + 1].clone(),
                    guard => guard,
                },
                target => target,
            };
        }
        res
    }

    fn set(&self, set: &BoundSet, slots: &mut [usize]) -> Result<Vec<usize>, QueryError> {
        match set {
            BoundSet::All => Ok((0..self.states).collect()),
            BoundSet::Minus(of, removed) => {
                if let Some(&r) = removed.iter().find(|&&r| r >= self.states) {
                    return Err(QueryError::StateOutOfRange(r));
                }
                let mut base = self.set(of, slots)?;
                base.retain(|i| !removed.contains(i));
                Ok(base)
            }
            BoundSet::Comprehension { of, pred } => {
                let mut out = Vec::new();
                for idx in self.set(of, slots)? {
                    slots[0] = idx;
                    if self.formula(pred, slots, idx)? {
                        out.push(idx);
                    }
                }
                Ok(out)
            }
        }
    }

    /// Evaluate `formula` with state variables bound by `slots`; `at` is
    /// the state an overflow is reported at.
    fn formula(
        &self,
        formula: &BoundFormula,
        slots: &mut [usize],
        at: usize,
    ) -> Result<bool, QueryError> {
        match formula {
            BoundFormula::Bool(b) => Ok(*b),
            BoundFormula::Cmp(atom) => atom
                .eval(&|cell: &Cell| {
                    i64::from(self.counts[slots[cell.slot] * self.width + cell.column])
                })
                .ok_or(QueryError::Overflow(at)),
            BoundFormula::And(a, b) => {
                Ok(self.formula(a, slots, at)? && self.formula(b, slots, at)?)
            }
            BoundFormula::Or(a, b) => {
                Ok(self.formula(a, slots, at)? || self.formula(b, slots, at)?)
            }
            BoundFormula::Not(a) => Ok(!self.formula(a, slots, at)?),
            BoundFormula::InevPass { from, pass } => self.passes[*pass][slots[*from]].clone(),
            BoundFormula::InevWalk {
                from,
                c,
                target,
                guard,
            } => {
                for k in slots[*from]..self.states {
                    slots[*c] = k;
                    if self.formula(target, slots, k)? {
                        return Ok(true);
                    }
                    if !self.formula(guard, slots, k)? {
                        return Ok(false);
                    }
                }
                Ok(false)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parser: quantifiers, sets and connectives; terms and atoms are
// `pnut_core::formula`'s.
// ---------------------------------------------------------------------------

fn query(c: &mut Cursor) -> Result<Query, ParseError> {
    let forall = match c.peek() {
        Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("forall") => true,
        Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("exists") => false,
        _ => return Err(c.err("expected `forall` or `exists`")),
    };
    c.advance();
    let var = c.ident()?;
    c.keyword("in")?;
    let set = set_expr(c)?;
    c.expect(&Tok::LBracket, "`[`")?;
    let body = formula(c)?;
    c.expect(&Tok::RBracket, "`]`")?;
    c.finish()?;
    Ok(Query {
        forall,
        var,
        set,
        body,
    })
}

fn set_expr(c: &mut Cursor) -> Result<SetExpr, ParseError> {
    let mut base = primary_set(c)?;
    while c.eat(&Tok::Minus) {
        c.expect(&Tok::LBrace, "`{`")?;
        let mut removed = Vec::new();
        loop {
            c.expect(&Tok::Hash, "`#`")?;
            match c.peek() {
                Some(&Tok::Int(v)) => {
                    c.advance();
                    removed.push(v as usize);
                }
                _ => return Err(c.err("expected state number after `#`")),
            }
            if !c.eat(&Tok::Comma) {
                break;
            }
        }
        c.expect(&Tok::RBrace, "`}`")?;
        base = SetExpr::Minus(Box::new(base), removed);
    }
    Ok(base)
}

fn primary_set(c: &mut Cursor) -> Result<SetExpr, ParseError> {
    if c.eat_keyword("S") {
        Ok(SetExpr::All)
    } else if c.eat(&Tok::LParen) {
        let inner = set_expr(c)?;
        c.expect(&Tok::RParen, "`)`")?;
        Ok(inner)
    } else if c.eat(&Tok::LBrace) {
        let var = c.ident()?;
        c.keyword("in")?;
        let of = set_expr(c)?;
        c.expect(&Tok::Pipe, "`|`")?;
        let pred = formula(c)?;
        c.expect(&Tok::RBrace, "`}`")?;
        Ok(SetExpr::Comprehension {
            var,
            of: Box::new(of),
            pred: Box::new(pred),
        })
    } else {
        Err(c.err("expected a state set (`S`, `(...)`, or `{v in S | ...}`)"))
    }
}

fn formula(c: &mut Cursor) -> Result<Formula, ParseError> {
    let mut lhs = conjunct(c)?;
    while c.eat_keyword("or") {
        lhs = Formula::Or(Box::new(lhs), Box::new(conjunct(c)?));
    }
    Ok(lhs)
}

fn conjunct(c: &mut Cursor) -> Result<Formula, ParseError> {
    let mut lhs = unary(c)?;
    while c.eat_keyword("and") {
        lhs = Formula::And(Box::new(lhs), Box::new(unary(c)?));
    }
    Ok(lhs)
}

fn unary(c: &mut Cursor) -> Result<Formula, ParseError> {
    if c.eat_keyword("not") {
        return Ok(Formula::Not(Box::new(unary(c)?)));
    }
    if c.eat_keyword("true") {
        return Ok(Formula::Bool(true));
    }
    if c.eat_keyword("false") {
        return Ok(Formula::Bool(false));
    }
    if c.eat_keyword("inev") {
        c.expect(&Tok::LParen, "`(`")?;
        let from = c.ident()?;
        c.expect(&Tok::Comma, "`,`")?;
        let target = formula(c)?;
        c.expect(&Tok::Comma, "`,`")?;
        let guard = formula(c)?;
        c.expect(&Tok::RParen, "`)`")?;
        return Ok(Formula::Inev {
            from,
            target: Box::new(target),
            guard: Box::new(guard),
        });
    }
    match c.parenthesized(formula) {
        Some(f) => Ok(f),
        None => Ok(Formula::Cmp(c.atom(count)?)),
    }
}

/// The rest of `name(v)`.
fn count(c: &mut Cursor, name: String) -> Result<Count, ParseError> {
    c.expect(&Tok::LParen, "`(` after place/transition name")?;
    let state_var = c.ident()?;
    c.expect(&Tok::RParen, "`)`")?;
    Ok(Count { name, state_var })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::{NetBuilder, Time};

    /// Bus that alternates free(3)/busy(2); buffer drains then refills.
    fn sample_trace() -> RecordedTrace {
        let mut b = NetBuilder::new("n");
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
        pnut_sim::simulate(&net, 0, Time::from_ticks(50)).unwrap()
    }

    fn check(q: &str, trace: &RecordedTrace) -> QueryOutcome {
        Query::parse(q).unwrap().check(trace).unwrap()
    }

    #[test]
    fn paper_query_bus_invariant() {
        let t = sample_trace();
        let o = check("forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]", &t);
        assert!(o.holds);
        assert!(o.witness.is_none());
    }

    #[test]
    fn violated_forall_returns_counterexample() {
        let t = sample_trace();
        let o = check("forall s in S [ Bus_busy(s) = 1 ]", &t);
        assert!(!o.holds);
        assert_eq!(o.witness, Some(0), "initial state has the bus free");
    }

    #[test]
    fn exists_with_set_difference() {
        let t = sample_trace();
        // Bus is free initially; excluding #0, is it ever free again?
        let o = check("exists s in (S - {#0}) [ Bus_free(s) = 1 ]", &t);
        assert!(o.holds);
        assert!(o.witness.is_some());
        // Remove enough states and check out-of-range detection.
        let q = Query::parse("exists s in (S - {#999999}) [ Bus_free(s) = 1 ]").unwrap();
        assert_eq!(
            q.check(&t).unwrap_err(),
            QueryError::StateOutOfRange(999999)
        );
    }

    #[test]
    fn paper_query_inevitability() {
        let t = sample_trace();
        let o = check(
            "forall s in {s' in S | Bus_busy(s')} [ inev(s, Bus_free(C), true) ]",
            &t,
        );
        // The final busy episode may extend past the horizon, in which
        // case the bus is never observed free again; either way the
        // query must evaluate without error. Check a strictly true one:
        let o2 = check(
            "forall s in {s' in S | Bus_free(s')} [ inev(s, Bus_free(C), true) ]",
            &t,
        );
        assert!(o2.holds, "a free state trivially reaches a free state");
        let _ = o;
    }

    #[test]
    fn inev_guard_can_fail() {
        let t = sample_trace();
        // From the initial (free) state, "busy is inevitable while the
        // bus stays busy" is false: the guard fails immediately.
        let o = check(
            "forall s in {s' in S | Bus_free(s')} [ inev(s, false, Bus_busy(C)) ]",
            &t,
        );
        assert!(!o.holds);
    }

    #[test]
    fn inev_can_reference_outer_binding_and_current_state() {
        let t = sample_trace();
        // From every busy state s, eventually the current state differs
        // from s on Bus_free (i.e. the bus is freed relative to s).
        let o = check(
            "forall s in {s' in S | Bus_busy(s')} \
             [ inev(s, Bus_free(C) > Bus_free(s), true) or true ]",
            &t,
        );
        assert!(o.holds, "mixed bindings evaluate without error");
    }

    #[test]
    fn transition_counts_are_queryable() {
        let t = sample_trace();
        // seize/release are enabling-time transitions: zero-width firing
        // pulses; never observed mid-firing.
        let o = check("exists s in S [ seize(s) > 0 ]", &t);
        assert!(!o.holds);
    }

    #[test]
    fn comprehension_filters() {
        let t = sample_trace();
        let o = check(
            "forall s in {s' in S | Bus_busy(s')} [ Bus_free(s) = 0 ]",
            &t,
        );
        assert!(o.holds);
    }

    #[test]
    fn arithmetic_in_terms() {
        let t = sample_trace();
        let o = check(
            "forall s in S [ 2 * Bus_busy(s) + 2 * Bus_free(s) = 1 + 1 ]",
            &t,
        );
        assert!(o.holds);
        let o = check("forall s in S [ Bus_free(s) - Bus_busy(s) <= 1 ]", &t);
        assert!(o.holds);
    }

    #[test]
    fn boolean_connectives() {
        let t = sample_trace();
        let o = check("forall s in S [ Bus_busy(s) = 1 or Bus_free(s) = 1 ]", &t);
        assert!(o.holds);
        let o = check(
            "forall s in S [ not (Bus_busy(s) = 1 and Bus_free(s) = 1) ]",
            &t,
        );
        assert!(o.holds);
    }

    #[test]
    fn unknown_names_and_unbound_vars_error() {
        let t = sample_trace();
        let q = Query::parse("exists s in S [ Nothing(s) > 0 ]").unwrap();
        assert_eq!(
            q.check(&t).unwrap_err(),
            QueryError::UnknownName("Nothing".into())
        );
        let q = Query::parse("exists s in S [ Bus_free(zz) > 0 ]").unwrap();
        assert_eq!(
            q.check(&t).unwrap_err(),
            QueryError::UnboundStateVariable("zz".into())
        );
    }

    #[test]
    fn names_bind_before_any_state_is_evaluated() {
        let t = sample_trace();
        for (q, want) in [
            // The comprehension is empty, so no body is ever evaluated.
            (
                "exists s in {x in S | Bus_busy(x) > 99} [ Nonsense(s) > 0 ]",
                QueryError::UnknownName("Nonsense".into()),
            ),
            // `or` never reaches its right side.
            (
                "forall s in S [ Bus_free(s) >= 0 or Bus_fre(s) > 0 ]",
                QueryError::UnknownName("Bus_fre".into()),
            ),
            (
                "forall s in S [ true or Bus_free(zz) >= 0 ]",
                QueryError::UnboundStateVariable("zz".into()),
            ),
            // A comprehension's predicate sees only its own variable.
            (
                "forall s in {x in S | Bus_free(s) > 0} [ true ]",
                QueryError::UnboundStateVariable("s".into()),
            ),
            // `C` is bound only inside `inev`.
            (
                "forall s in S [ inev(s, true, true) or Bus_free(C) > 0 ]",
                QueryError::UnboundStateVariable("C".into()),
            ),
        ] {
            assert_eq!(Query::parse(q).unwrap().check(&t), Err(want), "{q}");
        }
    }

    #[test]
    fn inev_rebinds_c() {
        let t = sample_trace();
        // Inside `inev`, `C` is the current state even when the
        // quantified variable is also named `C`.
        let shadowed = check("forall C in S [ inev(C, Bus_busy(C) > 0, true) ]", &t);
        let plain = check("forall s in S [ inev(s, Bus_busy(C) > 0, true) ]", &t);
        assert_eq!(shadowed, plain);
        assert!(
            !plain.holds,
            "the last free stretch never sees the bus busy"
        );
        let o = check(
            "forall C in S [ inev(C, Bus_busy(C) = Bus_busy(C), false) ]",
            &t,
        );
        assert!(o.holds);
    }

    #[test]
    fn arithmetic_overflow_is_an_error_at_the_visited_state() {
        let t = sample_trace();
        let busy = t.header().place_id("Bus_busy").unwrap();
        let first_busy = t.states().position(|s| s.marking.tokens(busy) > 0).unwrap();
        assert!(first_busy > 0);
        for (q, at) in [
            (
                "forall s in S [ 9223372036854775807 + Bus_busy(s) >= 0 ]",
                first_busy,
            ),
            ("exists s in S [ 0 - 9223372036854775807 - 2 > 0 ]", 0),
            ("exists s in S [ 3037000500 * 3037000500 > 0 ]", 0),
            // Inside `inev` the visited state is `C`, on the backward
            // pass and on the forward walk alike.
            (
                "forall s in S [ inev(s, 9223372036854775807 + Bus_busy(C) < 0, true) ]",
                first_busy,
            ),
            (
                "forall s in S [ inev(s, 9223372036854775807 + Bus_busy(C) < Bus_free(s), true) ]",
                first_busy,
            ),
        ] {
            assert_eq!(
                Query::parse(q).unwrap().check(&t),
                Err(QueryError::Overflow(at)),
                "{q}"
            );
        }
        assert_eq!(
            QueryError::Overflow(3).to_string(),
            "arithmetic overflow at state #3"
        );
    }

    #[test]
    fn parse_errors_are_located() {
        for bad in [
            "forall s in S [ ]",
            "exists s in [ true ]",
            "forall s S [ true ]",
            "forall s in S [ true ] extra",
            "sometimes s in S [ true ]",
            "forall s in (S - {0}) [ true ]",
        ] {
            assert!(
                matches!(Query::parse(bad), Err(QueryError::Parse { .. })),
                "should fail: {bad}"
            );
        }
    }

    #[test]
    fn primed_variables_parse() {
        let q = Query::parse("forall s in {s' in S | Bus_busy(s')} [ true ]");
        assert!(q.is_ok());
    }
}
