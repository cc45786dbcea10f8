//! The lexer, token cursor and integer terms shared by the two
//! verification languages of the paper's §4.4: CTL formulas over
//! reachability graphs (`pnut_reach::ctl`) and queries over simulation
//! traces (`pnut_tracer::query`).
//!
//! Both languages test the same atoms, comparisons of integer terms:
//!
//! ```text
//! Bus_free + Bus_busy = 1          -- CTL: a name counts in the current state
//! Bus_free(s) + Bus_busy(s) = 1    -- query: a name counts in the state `s` is bound to
//! ```
//!
//! A term is an integer literal, a name, a parenthesized term, or terms
//! joined by `+`, `-` and `*`; `*` binds tighter, and all three
//! associate to the left. An atom compares two terms with `=` (or
//! `==`), `!=`, `<`, `<=`, `>` or `>=`; a bare term means `term > 0`.
//! What a name is, each language decides: [`Cursor::atom`] takes a
//! parser for it, and [`Term`] is generic over the result, so a language
//! resolves its names once with [`Atom::bind`] before it evaluates.
//! Evaluation is checked: [`Atom::eval`] is `None` when a sum,
//! difference or product leaves `i64`, which each language reports as an
//! overflow at the state it was evaluating.
//!
//! The lexer knows every token of both languages, so a token that one
//! language has no use for is a parse error there, reported at that
//! token. (The net expression language of [`crate::expr`] has its own
//! lexer: there `#` starts a comment and `=` assigns.)

use crate::{PlaceId, TransitionId};

/// Malformed formula or query text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the problem.
    pub position: usize,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether `x op y`.
    pub fn holds(self, x: i64, y: i64) -> bool {
        match self {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
}

/// An integer term whose names are `N`s.
#[derive(Debug, Clone, PartialEq)]
pub enum Term<N> {
    Int(i64),
    Name(N),
    Arith(ArithOp, Box<Term<N>>, Box<Term<N>>),
}

impl<N> Term<N> {
    /// The same term with every name resolved by `f`, left to right.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn bind<M, E>(&self, f: &mut impl FnMut(&N) -> Result<M, E>) -> Result<Term<M>, E> {
        Ok(match self {
            Term::Int(v) => Term::Int(*v),
            Term::Name(n) => Term::Name(f(n)?),
            Term::Arith(op, a, b) => Term::Arith(*op, Box::new(a.bind(f)?), Box::new(b.bind(f)?)),
        })
    }

    /// The value, with `value` giving each name's; `None` if a sum,
    /// difference or product leaves `i64`.
    pub fn eval(&self, value: &impl Fn(&N) -> i64) -> Option<i64> {
        match self {
            Term::Int(v) => Some(*v),
            Term::Name(n) => Some(value(n)),
            Term::Arith(op, a, b) => {
                let (x, y) = (a.eval(value)?, b.eval(value)?);
                match op {
                    ArithOp::Add => x.checked_add(y),
                    ArithOp::Sub => x.checked_sub(y),
                    ArithOp::Mul => x.checked_mul(y),
                }
            }
        }
    }
}

/// A comparison of two terms: the atomic proposition of both languages.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom<N> {
    pub lhs: Term<N>,
    pub op: CmpOp,
    pub rhs: Term<N>,
}

impl<N> Atom<N> {
    /// The same atom with every name resolved by `f`, left to right.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn bind<M, E>(&self, f: &mut impl FnMut(&N) -> Result<M, E>) -> Result<Atom<M>, E> {
        let lhs = self.lhs.bind(f)?;
        Ok(Atom {
            lhs,
            op: self.op,
            rhs: self.rhs.bind(f)?,
        })
    }

    /// Whether the comparison holds, with `value` giving each name's
    /// value; `None` if either side overflows ([`Term::eval`]).
    pub fn eval(&self, value: &impl Fn(&N) -> i64) -> Option<bool> {
        Some(self.op.holds(self.lhs.eval(value)?, self.rhs.eval(value)?))
    }
}

/// What a name counts: the tokens on a place, or the firings of a
/// transition in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Place(PlaceId),
    Transition(TransitionId),
}

impl Source {
    /// The place of a name if there is one, else its transition: places
    /// win.
    pub fn resolve(
        place: Option<PlaceId>,
        transition: impl FnOnce() -> Option<TransitionId>,
    ) -> Option<Source> {
        place
            .map(Source::Place)
            .or_else(|| transition().map(Source::Transition))
    }
}

/// A token of either language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// A letter or `_`, then letters, digits, `_` and `'`.
    Ident(String),
    /// Decimal digits.
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
    /// `->`.
    Arrow,
    Cmp(CmpOp),
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let next = bytes.get(i + 1).copied();
        let (tok, len) = match bytes[i] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'#' => (Tok::Hash, 1),
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b'[' => (Tok::LBracket, 1),
            b']' => (Tok::RBracket, 1),
            b'{' => (Tok::LBrace, 1),
            b'}' => (Tok::RBrace, 1),
            b',' => (Tok::Comma, 1),
            b'|' => (Tok::Pipe, 1),
            b'+' => (Tok::Plus, 1),
            b'*' => (Tok::Star, 1),
            b'-' if next == Some(b'>') => (Tok::Arrow, 2),
            b'-' => (Tok::Minus, 1),
            // The paper writes `=`; `==` is accepted too.
            b'=' if next == Some(b'=') => (Tok::Cmp(CmpOp::Eq), 2),
            b'=' => (Tok::Cmp(CmpOp::Eq), 1),
            b'!' if next == Some(b'=') => (Tok::Cmp(CmpOp::Ne), 2),
            b'<' if next == Some(b'=') => (Tok::Cmp(CmpOp::Le), 2),
            b'<' => (Tok::Cmp(CmpOp::Lt), 1),
            b'>' if next == Some(b'=') => (Tok::Cmp(CmpOp::Ge), 2),
            b'>' => (Tok::Cmp(CmpOp::Gt), 1),
            b'0'..=b'9' => {
                let len = bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                let v = src[i..i + len].parse().map_err(|_| ParseError {
                    message: "integer out of range".into(),
                    position: i,
                })?;
                (Tok::Int(v), len)
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let word = |&&b: &&u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'';
                let len = bytes[i..].iter().take_while(word).count();
                (Tok::Ident(src[i..i + len].to_string()), len)
            }
            other => {
                let message = if other == b'!' {
                    "expected `!=` (use `not` for negation)".to_string()
                } else {
                    format!("unexpected character `{}`", other as char)
                };
                return Err(ParseError {
                    message,
                    position: i,
                });
            }
        };
        toks.push((tok, i));
        i += len;
    }
    Ok(toks)
}

/// Reads the rest of a name in a term, given its identifier.
pub type NameParser<N> = fn(&mut Cursor, String) -> Result<N, ParseError>;

/// The tokens of one formula or query, and how far a parser has read.
pub struct Cursor {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// The source length: where an error past the last token points.
    end: usize,
}

impl Cursor {
    /// Lex `src`.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] at the first byte that starts no token, or at an
    /// integer literal outside `i64`.
    pub fn new(src: &str) -> Result<Self, ParseError> {
        Ok(Cursor {
            toks: lex(src)?,
            pos: 0,
            end: src.len(),
        })
    }

    /// An error at the current token (past the end: at the end of the
    /// source).
    pub fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            position: self.toks.get(self.pos).map_or(self.end, |&(_, p)| p),
        }
    }

    /// The current token.
    pub fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    /// Step past the current token.
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    /// Step past `t` if it is the current token.
    pub fn eat(&mut self, t: &Tok) -> bool {
        let found = self.peek() == Some(t);
        if found {
            self.pos += 1;
        }
        found
    }

    /// Step past `t`.
    ///
    /// # Errors
    ///
    /// "expected {what}" if `t` is not the current token.
    pub fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    /// Step past the keyword `kw` if it is the current token.
    pub fn eat_keyword(&mut self, kw: &str) -> bool {
        let found = matches!(self.peek(), Some(Tok::Ident(s)) if s == kw);
        if found {
            self.pos += 1;
        }
        found
    }

    /// Step past the keyword `kw`.
    ///
    /// # Errors
    ///
    /// "expected `{kw}`" if it is not the current token.
    pub fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    /// Step past an identifier and return it.
    ///
    /// # Errors
    ///
    /// If the current token is not an identifier.
    pub fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    /// # Errors
    ///
    /// "unexpected trailing input" unless every token has been read.
    pub fn finish(&self) -> Result<(), ParseError> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(self.err("unexpected trailing input"))
        }
    }

    /// `( inner )`, if that is what comes next and no arithmetic or
    /// comparison operator follows it (then the parenthesis opened a
    /// term). Otherwise `None`, having read nothing.
    pub fn parenthesized<T>(&mut self, inner: fn(&mut Self) -> Result<T, ParseError>) -> Option<T> {
        let save = self.pos;
        if self.eat(&Tok::LParen) {
            if let Ok(t) = inner(self) {
                if self.eat(&Tok::RParen)
                    && !matches!(
                        self.peek(),
                        Some(Tok::Plus | Tok::Minus | Tok::Star | Tok::Cmp(_))
                    )
                {
                    return Some(t);
                }
            }
        }
        self.pos = save;
        None
    }

    /// `term op term`, or a bare `term`, meaning `term > 0`. After an
    /// identifier in a term, `name` reads the rest of the name.
    ///
    /// # Errors
    ///
    /// If no term starts here, or an error `name` returns.
    pub fn atom<N>(&mut self, name: NameParser<N>) -> Result<Atom<N>, ParseError> {
        let lhs = self.term(name)?;
        let (op, rhs) = match self.peek() {
            Some(&Tok::Cmp(op)) => {
                self.pos += 1;
                (op, self.term(name)?)
            }
            _ => (CmpOp::Gt, Term::Int(0)),
        };
        Ok(Atom { lhs, op, rhs })
    }

    fn term<N>(&mut self, name: NameParser<N>) -> Result<Term<N>, ParseError> {
        let mut lhs = self.factor(name)?;
        loop {
            let op = if self.eat(&Tok::Plus) {
                ArithOp::Add
            } else if self.eat(&Tok::Minus) {
                ArithOp::Sub
            } else {
                return Ok(lhs);
            };
            lhs = Term::Arith(op, Box::new(lhs), Box::new(self.factor(name)?));
        }
    }

    fn factor<N>(&mut self, name: NameParser<N>) -> Result<Term<N>, ParseError> {
        let mut lhs = self.primary(name)?;
        while self.eat(&Tok::Star) {
            lhs = Term::Arith(ArithOp::Mul, Box::new(lhs), Box::new(self.primary(name)?));
        }
        Ok(lhs)
    }

    fn primary<N>(&mut self, name: NameParser<N>) -> Result<Term<N>, ParseError> {
        match self.peek() {
            Some(&Tok::Int(v)) => {
                self.pos += 1;
                Ok(Term::Int(v))
            }
            Some(Tok::Ident(_)) => {
                let id = self.ident()?;
                Ok(Term::Name(name(self, id)?))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let t = self.term(name)?;
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

    #[test]
    fn lexes_the_tokens_of_both_languages() {
        use CmpOp::*;
        let tokens: Vec<Tok> = lex("#{}|,()[] + - * -> = == != < <= > >= s' x_1 42")
            .unwrap()
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(
            tokens,
            [
                Tok::Hash,
                Tok::LBrace,
                Tok::RBrace,
                Tok::Pipe,
                Tok::Comma,
                Tok::LParen,
                Tok::RParen,
                Tok::LBracket,
                Tok::RBracket,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Arrow,
                Tok::Cmp(Eq),
                Tok::Cmp(Eq),
                Tok::Cmp(Ne),
                Tok::Cmp(Lt),
                Tok::Cmp(Le),
                Tok::Cmp(Gt),
                Tok::Cmp(Ge),
                Tok::Ident("s'".into()),
                Tok::Ident("x_1".into()),
                Tok::Int(42),
            ]
        );
        for (bad, at) in [("a ! b", 2), ("a $", 2), ("99999999999999999999", 0)] {
            assert_eq!(lex(bad).unwrap_err().position, at, "{bad}");
        }
    }

    #[test]
    fn places_win_over_transitions() {
        let (p, t) = (PlaceId::new(1), TransitionId::new(2));
        assert_eq!(Source::resolve(Some(p), || Some(t)), Some(Source::Place(p)));
        assert_eq!(
            Source::resolve(None, || Some(t)),
            Some(Source::Transition(t))
        );
        assert_eq!(Source::resolve(None, || None), None);
    }
}
