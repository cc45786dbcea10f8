//! Abstract syntax for the expression language.

use std::fmt;

/// Binary operators, in increasing binding strength groups:
/// `||` < `&&` < comparisons < `+ -` < `* / %`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Logical or (short-circuiting).
    Or,
    /// Logical and (short-circuiting).
    And,
    /// Equality, `==`.
    Eq,
    /// Inequality, `!=`.
    Ne,
    /// Less than, `<`.
    Lt,
    /// Less or equal, `<=`.
    Le,
    /// Greater than, `>`.
    Gt,
    /// Greater or equal, `>=`.
    Ge,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division (truncating).
    Div,
    /// Remainder.
    Rem,
}

impl BinOp {
    /// Surface-syntax spelling of the operator.
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation, `-x`.
    Neg,
    /// Logical negation, `!x`.
    Not,
}

/// Built-in functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    /// `irand(lo, hi)`: uniform random integer in `lo..=hi` — the paper's
    /// instruction-type selector (§3).
    Irand,
    /// `min(a, b)`.
    Min,
    /// `max(a, b)`.
    Max,
    /// `abs(a)`.
    Abs,
}

impl Func {
    /// Surface-syntax name.
    pub fn name(self) -> &'static str {
        match self {
            Func::Irand => "irand",
            Func::Min => "min",
            Func::Max => "max",
            Func::Abs => "abs",
        }
    }

    /// Number of arguments the function takes.
    pub fn arity(self) -> usize {
        match self {
            Func::Irand | Func::Min | Func::Max => 2,
            Func::Abs => 1,
        }
    }
}

/// An expression over the variable environment.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal (`true` / `false`).
    Bool(bool),
    /// Variable reference.
    Var(String),
    /// Table element, `table[index]`.
    Index(String, Box<Expr>),
    /// Unary application.
    Unary(UnaryOp, Box<Expr>),
    /// Binary application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Built-in function call.
    Call(Func, Vec<Expr>),
    /// Conditional, `cond ? a : b`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Parse an expression from source text.
    ///
    /// # Errors
    ///
    /// Returns [`super::ParseExprError`] on malformed input.
    ///
    /// # Example
    ///
    /// ```
    /// use pnut_core::expr::Expr;
    ///
    /// # fn main() -> Result<(), pnut_core::ParseExprError> {
    /// let e = Expr::parse("needed > 0 && mode != 3")?;
    /// assert_eq!(e.variables(), ["mode", "needed"]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(src: &str) -> Result<Self, super::ParseExprError> {
        super::parser::parse_expr(src)
    }

    /// Convenience: an integer literal.
    pub fn int(v: i64) -> Self {
        Expr::Int(v)
    }

    /// Convenience: a variable reference.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Var(name.into())
    }

    /// Whether the expression (transitively) calls `irand`.
    pub fn uses_random(&self) -> bool {
        match self {
            Expr::Int(_) | Expr::Bool(_) | Expr::Var(_) => false,
            Expr::Index(_, i) => i.uses_random(),
            Expr::Unary(_, e) => e.uses_random(),
            Expr::Binary(_, a, b) => a.uses_random() || b.uses_random(),
            Expr::Call(f, args) => *f == Func::Irand || args.iter().any(Expr::uses_random),
            Expr::If(c, a, b) => c.uses_random() || a.uses_random() || b.uses_random(),
        }
    }

    /// Collect all variable names referenced by the expression.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Int(_) | Expr::Bool(_) => {}
            Expr::Var(v) => out.push(v.clone()),
            Expr::Index(_, i) => i.collect_vars(out),
            Expr::Unary(_, e) => e.collect_vars(out),
            Expr::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Expr::If(c, a, b) => {
                c.collect_vars(out);
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    fn precedence(&self) -> u8 {
        match self {
            Expr::If(..) => 0,
            Expr::Binary(op, ..) => match op {
                BinOp::Or => 1,
                BinOp::And => 2,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
                BinOp::Add | BinOp::Sub => 4,
                BinOp::Mul | BinOp::Div | BinOp::Rem => 5,
            },
            Expr::Unary(..) => 6,
            _ => 7,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
        let prec = self.precedence();
        let parens = prec < min;
        if parens {
            write!(f, "(")?;
        }
        match self {
            Expr::Int(v) => write!(f, "{v}")?,
            Expr::Bool(b) => write!(f, "{b}")?,
            Expr::Var(v) => write!(f, "{v}")?,
            Expr::Index(t, i) => {
                write!(f, "{t}[")?;
                i.fmt_prec(f, 0)?;
                write!(f, "]")?;
            }
            Expr::Unary(op, e) => {
                write!(f, "{}", if *op == UnaryOp::Neg { "-" } else { "!" })?;
                e.fmt_prec(f, 6)?;
            }
            Expr::Binary(op, a, b) => {
                // Comparisons do not chain (the grammar rejects
                // `a < b < c`), so both operands need parentheses when
                // they are themselves comparisons.
                let non_assoc = matches!(
                    op,
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                );
                a.fmt_prec(f, if non_assoc { prec + 1 } else { prec })?;
                write!(f, " {} ", op.symbol())?;
                b.fmt_prec(f, prec + 1)?;
            }
            Expr::Call(func, args) => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    a.fmt_prec(f, 0)?;
                }
                write!(f, ")")?;
            }
            Expr::If(c, a, b) => {
                c.fmt_prec(f, 1)?;
                write!(f, " ? ")?;
                a.fmt_prec(f, 1)?;
                write!(f, " : ")?;
                b.fmt_prec(f, 0)?;
            }
        }
        if parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// Assignment target: a variable or a table element.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// Assign to a variable.
    Var(String),
    /// Assign to `table[index]`.
    TableElem(String, Box<Expr>),
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Var(v) => write!(f, "{v}"),
            Target::TableElem(t, i) => write!(f, "{t}[{i}]"),
        }
    }
}

/// A single `target = expr` assignment within an [`super::Action`].
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Where the value is stored.
    pub target: Target,
    /// The value computed.
    pub expr: Expr,
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.target, self.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_respects_precedence() {
        let e = Expr::parse("(1 + 2) * 3").unwrap();
        assert_eq!(e.to_string(), "(1 + 2) * 3");
        let e = Expr::parse("1 + 2 * 3").unwrap();
        assert_eq!(e.to_string(), "1 + 2 * 3");
    }

    #[test]
    fn variables_are_collected_sorted_unique() {
        let e = Expr::parse("b + a + b + t[c]").unwrap();
        assert_eq!(e.variables(), vec!["a", "b", "c"]);
    }

    #[test]
    fn uses_random_detects_nested_irand() {
        let e = Expr::parse("1 + min(2, irand(0, 3))").unwrap();
        assert!(e.uses_random());
        let e = Expr::parse("1 + min(2, 3)").unwrap();
        assert!(!e.uses_random());
    }

    #[test]
    fn func_metadata() {
        assert_eq!(Func::Irand.arity(), 2);
        assert_eq!(Func::Abs.arity(), 1);
        assert_eq!(Func::Min.name(), "min");
    }
}
