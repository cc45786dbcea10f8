//! The **pre-compilation** trace query evaluator, kept verbatim as a
//! semantics baseline.
//!
//! This is the tree-walking evaluator of the paper's §4.4 query language
//! that `pnut_tracer::query` replaced with a bind-then-evaluate engine:
//! it collects every [`TraceState`] (each with a full `Env` clone), looks
//! every `name(s)` up by string each time it is evaluated, keeps
//! bindings in a `BTreeMap<String, usize>` cloned for every `inev`, and
//! walks forward from every state an `inev` starts at. It also resolves
//! a name only when evaluation reaches it, and its arithmetic uses plain
//! `i64` operators. Do **not** "fix" or optimize it: the differential
//! battery in `tests/query_diff.rs` holds the compiled engine to its
//! verdicts, witnesses and errors on every query whose names all bind
//! and whose arithmetic cannot overflow. Its only deviation from the
//! original is mechanical: it borrows `QueryError`/`QueryOutcome` from
//! `pnut_tracer::query` so results are directly comparable.

use pnut_trace::{RecordedTrace, TraceState};
use pnut_tracer::query::{QueryError, QueryOutcome};
use std::collections::BTreeMap;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Debug, Clone, PartialEq)]
enum Term {
    Int(i64),
    Count { name: String, state_var: String },
    Add(Box<Term>, Box<Term>),
    Sub(Box<Term>, Box<Term>),
    Mul(Box<Term>, Box<Term>),
}

#[derive(Debug, Clone, PartialEq)]
enum Formula {
    Bool(bool),
    Cmp(Term, CmpOp, Term),
    /// Bare `P(s)` meaning `P(s) > 0`.
    NonZero(Term),
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
        Parser::new(src)?.query()
    }

    /// Check the query against a trace.
    ///
    /// # Errors
    ///
    /// Returns name-resolution or range errors discovered during
    /// evaluation.
    pub fn check(&self, trace: &RecordedTrace) -> Result<QueryOutcome, QueryError> {
        let states: Vec<TraceState> = trace.states().collect();
        let ctx = Ctx {
            trace,
            states: &states,
        };
        let set = ctx.eval_set(&self.set)?;
        let mut bindings = BTreeMap::new();
        for idx in set {
            bindings.insert(self.var.clone(), idx);
            let sat = ctx.eval_formula(&self.body, &bindings)?;
            if self.forall && !sat {
                return Ok(QueryOutcome {
                    holds: false,
                    witness: Some(idx),
                });
            }
            if !self.forall && sat {
                return Ok(QueryOutcome {
                    holds: true,
                    witness: Some(idx),
                });
            }
        }
        Ok(QueryOutcome {
            holds: self.forall,
            witness: None,
        })
    }
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

struct Ctx<'a> {
    trace: &'a RecordedTrace,
    states: &'a [TraceState],
}

impl Ctx<'_> {
    fn eval_set(&self, set: &SetExpr) -> Result<Vec<usize>, QueryError> {
        match set {
            SetExpr::All => Ok((0..self.states.len()).collect()),
            SetExpr::Minus(of, removed) => {
                for &r in removed {
                    if r >= self.states.len() {
                        return Err(QueryError::StateOutOfRange(r));
                    }
                }
                Ok(self
                    .eval_set(of)?
                    .into_iter()
                    .filter(|i| !removed.contains(i))
                    .collect())
            }
            SetExpr::Comprehension { var, of, pred } => {
                let base = self.eval_set(of)?;
                let mut out = Vec::new();
                let mut bindings = BTreeMap::new();
                for idx in base {
                    bindings.insert(var.clone(), idx);
                    if self.eval_formula(pred, &bindings)? {
                        out.push(idx);
                    }
                }
                Ok(out)
            }
        }
    }

    fn count(&self, name: &str, state: usize) -> Result<i64, QueryError> {
        let header = self.trace.header();
        let s = &self.states[state];
        if let Some(p) = header.place_id(name) {
            return Ok(i64::from(s.marking.tokens(p)));
        }
        if let Some(t) = header.transition_id(name) {
            return Ok(i64::from(s.firing_counts[t.index()]));
        }
        Err(QueryError::UnknownName(name.to_string()))
    }

    fn eval_term(
        &self,
        term: &Term,
        bindings: &BTreeMap<String, usize>,
    ) -> Result<i64, QueryError> {
        match term {
            Term::Int(v) => Ok(*v),
            Term::Count { name, state_var } => {
                let idx = *bindings
                    .get(state_var)
                    .ok_or_else(|| QueryError::UnboundStateVariable(state_var.clone()))?;
                self.count(name, idx)
            }
            Term::Add(a, b) => Ok(self.eval_term(a, bindings)? + self.eval_term(b, bindings)?),
            Term::Sub(a, b) => Ok(self.eval_term(a, bindings)? - self.eval_term(b, bindings)?),
            Term::Mul(a, b) => Ok(self.eval_term(a, bindings)? * self.eval_term(b, bindings)?),
        }
    }

    fn eval_formula(
        &self,
        formula: &Formula,
        bindings: &BTreeMap<String, usize>,
    ) -> Result<bool, QueryError> {
        match formula {
            Formula::Bool(b) => Ok(*b),
            Formula::NonZero(t) => Ok(self.eval_term(t, bindings)? > 0),
            Formula::Cmp(a, op, b) => {
                let x = self.eval_term(a, bindings)?;
                let y = self.eval_term(b, bindings)?;
                Ok(match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                })
            }
            Formula::And(a, b) => {
                Ok(self.eval_formula(a, bindings)? && self.eval_formula(b, bindings)?)
            }
            Formula::Or(a, b) => {
                Ok(self.eval_formula(a, bindings)? || self.eval_formula(b, bindings)?)
            }
            Formula::Not(a) => Ok(!self.eval_formula(a, bindings)?),
            Formula::Inev {
                from,
                target,
                guard,
            } => {
                let start = *bindings
                    .get(from)
                    .ok_or_else(|| QueryError::UnboundStateVariable(from.clone()))?;
                let mut inner = bindings.clone();
                for k in start..self.states.len() {
                    inner.insert("C".to_string(), k);
                    if self.eval_formula(target, &inner)? {
                        return Ok(true);
                    }
                    if !self.eval_formula(guard, &inner)? {
                        return Ok(false);
                    }
                }
                Ok(false)
            }
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
    Hash,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Pipe,
    Plus,
    Minus,
    Star,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, QueryError> {
        let mut toks = Vec::new();
        let bytes = src.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let pos = i;
            let c = bytes[i] as char;
            match c {
                ' ' | '\t' | '\n' | '\r' => i += 1,
                '#' => {
                    toks.push((Tok::Hash, pos));
                    i += 1;
                }
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
                '{' => {
                    toks.push((Tok::LBrace, pos));
                    i += 1;
                }
                '}' => {
                    toks.push((Tok::RBrace, pos));
                    i += 1;
                }
                ',' => {
                    toks.push((Tok::Comma, pos));
                    i += 1;
                }
                '|' => {
                    toks.push((Tok::Pipe, pos));
                    i += 1;
                }
                '+' => {
                    toks.push((Tok::Plus, pos));
                    i += 1;
                }
                '-' => {
                    toks.push((Tok::Minus, pos));
                    i += 1;
                }
                '*' => {
                    toks.push((Tok::Star, pos));
                    i += 1;
                }
                '=' => {
                    // Paper writes single `=`; accept `==` too.
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
                        return Err(QueryError::Parse {
                            message: "expected `!=`".into(),
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
                    let v = src[start..i].parse().map_err(|_| QueryError::Parse {
                        message: "integer out of range".into(),
                        position: start,
                    })?;
                    toks.push((Tok::Int(v), pos));
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let start = i;
                    while i < bytes.len()
                        && ((bytes[i] as char).is_ascii_alphanumeric()
                            || bytes[i] == b'_'
                            || bytes[i] == b'\'')
                    {
                        i += 1;
                    }
                    toks.push((Tok::Ident(src[start..i].to_string()), pos));
                }
                other => {
                    return Err(QueryError::Parse {
                        message: format!("unexpected character `{other}`"),
                        position: pos,
                    });
                }
            }
        }
        Ok(Parser { toks, pos: 0 })
    }

    fn err(&self, message: &str) -> QueryError {
        QueryError::Parse {
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

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), QueryError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn ident(&mut self) -> Result<String, QueryError> {
        match self.peek().cloned() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), QueryError> {
        match self.peek() {
            Some(Tok::Ident(s)) if s == kw => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(&format!("expected `{kw}`"))),
        }
    }

    fn query(&mut self) -> Result<Query, QueryError> {
        let forall = match self.peek() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("forall") => true,
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("exists") => false,
            _ => return Err(self.err("expected `forall` or `exists`")),
        };
        self.pos += 1;
        let var = self.ident()?;
        self.keyword("in")?;
        let set = self.set_expr()?;
        self.expect(&Tok::LBracket, "`[`")?;
        let body = self.formula()?;
        self.expect(&Tok::RBracket, "`]`")?;
        if self.pos != self.toks.len() {
            return Err(self.err("unexpected trailing input"));
        }
        Ok(Query {
            forall,
            var,
            set,
            body,
        })
    }

    fn set_expr(&mut self) -> Result<SetExpr, QueryError> {
        let mut base = self.primary_set()?;
        while self.eat(&Tok::Minus) {
            self.expect(&Tok::LBrace, "`{`")?;
            let mut removed = Vec::new();
            loop {
                self.expect(&Tok::Hash, "`#`")?;
                match self.peek().cloned() {
                    Some(Tok::Int(v)) if v >= 0 => {
                        self.pos += 1;
                        removed.push(v as usize);
                    }
                    _ => return Err(self.err("expected state number after `#`")),
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBrace, "`}`")?;
            base = SetExpr::Minus(Box::new(base), removed);
        }
        Ok(base)
    }

    fn primary_set(&mut self) -> Result<SetExpr, QueryError> {
        match self.peek().cloned() {
            Some(Tok::Ident(s)) if s == "S" => {
                self.pos += 1;
                Ok(SetExpr::All)
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let inner = self.set_expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(inner)
            }
            Some(Tok::LBrace) => {
                self.pos += 1;
                let var = self.ident()?;
                self.keyword("in")?;
                let of = self.set_expr()?;
                self.expect(&Tok::Pipe, "`|`")?;
                let pred = self.formula()?;
                self.expect(&Tok::RBrace, "`}`")?;
                Ok(SetExpr::Comprehension {
                    var,
                    of: Box::new(of),
                    pred: Box::new(pred),
                })
            }
            _ => Err(self.err("expected a state set (`S`, `(...)`, or `{v in S | ...}`)")),
        }
    }

    fn formula(&mut self) -> Result<Formula, QueryError> {
        let mut lhs = self.conjunct()?;
        loop {
            match self.peek() {
                Some(Tok::Ident(s)) if s == "or" => {
                    self.pos += 1;
                    let rhs = self.conjunct()?;
                    lhs = Formula::Or(Box::new(lhs), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(lhs)
    }

    fn conjunct(&mut self) -> Result<Formula, QueryError> {
        let mut lhs = self.atom()?;
        loop {
            match self.peek() {
                Some(Tok::Ident(s)) if s == "and" => {
                    self.pos += 1;
                    let rhs = self.atom()?;
                    lhs = Formula::And(Box::new(lhs), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<Formula, QueryError> {
        match self.peek().cloned() {
            Some(Tok::Ident(s)) if s == "not" => {
                self.pos += 1;
                Ok(Formula::Not(Box::new(self.atom()?)))
            }
            Some(Tok::Ident(s)) if s == "true" => {
                self.pos += 1;
                Ok(Formula::Bool(true))
            }
            Some(Tok::Ident(s)) if s == "false" => {
                self.pos += 1;
                Ok(Formula::Bool(false))
            }
            Some(Tok::Ident(s)) if s == "inev" => {
                self.pos += 1;
                self.expect(&Tok::LParen, "`(`")?;
                let from = self.ident()?;
                self.expect(&Tok::Comma, "`,`")?;
                let target = self.formula()?;
                self.expect(&Tok::Comma, "`,`")?;
                let guard = self.formula()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(Formula::Inev {
                    from,
                    target: Box::new(target),
                    guard: Box::new(guard),
                })
            }
            Some(Tok::LParen) => {
                // Could be a parenthesized formula or a parenthesized
                // term beginning a comparison; backtrack on failure.
                let save = self.pos;
                self.pos += 1;
                if let Ok(inner) = self.formula() {
                    if self.eat(&Tok::RParen) && !self.peek_is_relop_or_arith() {
                        return Ok(inner);
                    }
                }
                self.pos = save;
                self.comparison()
            }
            _ => self.comparison(),
        }
    }

    fn peek_is_relop_or_arith(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                Tok::Eq
                    | Tok::Ne
                    | Tok::Lt
                    | Tok::Le
                    | Tok::Gt
                    | Tok::Ge
                    | Tok::Plus
                    | Tok::Minus
                    | Tok::Star
            )
        )
    }

    fn comparison(&mut self) -> Result<Formula, QueryError> {
        let lhs = self.term()?;
        let op = match self.peek() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            // Bare `P(s)` means `P(s) > 0` (paper's comprehension form).
            _ => return Ok(Formula::NonZero(lhs)),
        };
        self.pos += 1;
        let rhs = self.term()?;
        Ok(Formula::Cmp(lhs, op, rhs))
    }

    fn term(&mut self) -> Result<Term, QueryError> {
        let mut lhs = self.factor()?;
        loop {
            if self.eat(&Tok::Plus) {
                let rhs = self.factor()?;
                lhs = Term::Add(Box::new(lhs), Box::new(rhs));
            } else if self.eat(&Tok::Minus) {
                let rhs = self.factor()?;
                lhs = Term::Sub(Box::new(lhs), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Term, QueryError> {
        let mut lhs = self.term_primary()?;
        while self.eat(&Tok::Star) {
            let rhs = self.term_primary()?;
            lhs = Term::Mul(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term_primary(&mut self) -> Result<Term, QueryError> {
        match self.peek().cloned() {
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(Term::Int(v))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let t = self.term()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(t)
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                self.expect(&Tok::LParen, "`(` after place/transition name")?;
                let state_var = self.ident()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(Term::Count { name, state_var })
            }
            _ => Err(self.err("expected a term")),
        }
    }
}
