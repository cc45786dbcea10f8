//! Expression evaluation.

use super::ast::{Assignment, BinOp, Expr, Func, Target, UnaryOp};
use super::env::{Env, Value};
use crate::Randomness;
use std::fmt;

/// Error produced while evaluating an expression or applying an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A referenced variable is not defined in the environment.
    UnknownVariable(String),
    /// A referenced table is not defined in the environment.
    UnknownTable(String),
    /// A table index was negative or past the end of the table.
    IndexOutOfBounds {
        /// The table name.
        table: String,
        /// The offending index.
        index: i64,
        /// The table length.
        len: usize,
    },
    /// An operation received a value of the wrong type.
    TypeMismatch {
        /// What the operation needed.
        expected: &'static str,
        /// What it got.
        found: &'static str,
    },
    /// Division or remainder by zero.
    DivisionByZero,
    /// Arithmetic overflow.
    Overflow,
    /// `irand(lo, hi)` with `lo > hi`.
    EmptyRandomRange {
        /// Lower bound supplied.
        lo: i64,
        /// Upper bound supplied.
        hi: i64,
    },
    /// `irand` was evaluated but no randomness source was provided
    /// (e.g. during reachability analysis, which must be deterministic).
    RandomnessUnavailable,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownVariable(v) => write!(f, "unknown variable `{v}`"),
            EvalError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            EvalError::IndexOutOfBounds { table, index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for table `{table}` of length {len}"
                )
            }
            EvalError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::Overflow => write!(f, "arithmetic overflow"),
            EvalError::EmptyRandomRange { lo, hi } => {
                write!(f, "empty random range irand({lo}, {hi})")
            }
            EvalError::RandomnessUnavailable => {
                write!(f, "irand used where no randomness source is available")
            }
        }
    }
}

impl std::error::Error for EvalError {}

type Rng<'a> = Option<&'a mut dyn Randomness>;

impl Expr {
    /// Evaluate against `env`, drawing `irand` values from `rng`.
    ///
    /// # Errors
    ///
    /// See [`EvalError`] for the conditions.
    ///
    /// # Example
    ///
    /// ```
    /// use pnut_core::expr::{Env, Expr, Value};
    /// use pnut_core::CyclingRandomness;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let e = Expr::parse("2 + irand(1, 1) * 10")?;
    /// let v = e.eval(&Env::new(), &mut CyclingRandomness::new())?;
    /// assert_eq!(v, Value::Int(12));
    /// # Ok(())
    /// # }
    /// ```
    pub fn eval(&self, env: &Env, rng: &mut dyn Randomness) -> Result<Value, EvalError> {
        eval_inner(self, env, &mut Some(rng))
    }

    /// Evaluate without a randomness source.
    ///
    /// # Errors
    ///
    /// In addition to the [`Expr::eval`] errors, returns
    /// [`EvalError::RandomnessUnavailable`] if the expression uses `irand`.
    pub fn eval_pure(&self, env: &Env) -> Result<Value, EvalError> {
        eval_inner(self, env, &mut None)
    }
}

fn eval_inner(expr: &Expr, env: &Env, rng: &mut Rng<'_>) -> Result<Value, EvalError> {
    match expr {
        Expr::Int(v) => Ok(Value::Int(*v)),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Var(name) => env
            .var(name)
            .ok_or_else(|| EvalError::UnknownVariable(name.clone())),
        Expr::Index(table, idx) => {
            let i = eval_inner(idx, env, rng)?.as_int()?;
            env.table_elem(table, i).map(Value::Int)
        }
        Expr::Unary(op, e) => {
            let v = eval_inner(e, env, rng)?;
            match op {
                UnaryOp::Neg => v
                    .as_int()?
                    .checked_neg()
                    .map(Value::Int)
                    .ok_or(EvalError::Overflow),
                UnaryOp::Not => Ok(Value::Bool(!v.as_bool()?)),
            }
        }
        Expr::Binary(op, a, b) => eval_binary(*op, a, b, env, rng),
        Expr::Call(func, args) => eval_call(*func, args, env, rng),
        Expr::If(c, a, b) => {
            if eval_inner(c, env, rng)?.as_bool()? {
                eval_inner(a, env, rng)
            } else {
                eval_inner(b, env, rng)
            }
        }
    }
}

fn eval_binary(
    op: BinOp,
    a: &Expr,
    b: &Expr,
    env: &Env,
    rng: &mut Rng<'_>,
) -> Result<Value, EvalError> {
    // Short-circuit logical operators first.
    match op {
        BinOp::And => {
            return if !eval_inner(a, env, rng)?.as_bool()? {
                Ok(Value::Bool(false))
            } else {
                Ok(Value::Bool(eval_inner(b, env, rng)?.as_bool()?))
            };
        }
        BinOp::Or => {
            return if eval_inner(a, env, rng)?.as_bool()? {
                Ok(Value::Bool(true))
            } else {
                Ok(Value::Bool(eval_inner(b, env, rng)?.as_bool()?))
            };
        }
        _ => {}
    }
    let va = eval_inner(a, env, rng)?;
    let vb = eval_inner(b, env, rng)?;
    // Equality works on both types; other comparisons and arithmetic are
    // integer-only.
    match op {
        BinOp::Eq => return Ok(Value::Bool(va == vb)),
        BinOp::Ne => return Ok(Value::Bool(va != vb)),
        _ => {}
    }
    let x = va.as_int()?;
    let y = vb.as_int()?;
    let v = match op {
        BinOp::Lt => Value::Bool(x < y),
        BinOp::Le => Value::Bool(x <= y),
        BinOp::Gt => Value::Bool(x > y),
        BinOp::Ge => Value::Bool(x >= y),
        BinOp::Add => Value::Int(x.checked_add(y).ok_or(EvalError::Overflow)?),
        BinOp::Sub => Value::Int(x.checked_sub(y).ok_or(EvalError::Overflow)?),
        BinOp::Mul => Value::Int(x.checked_mul(y).ok_or(EvalError::Overflow)?),
        BinOp::Div => {
            if y == 0 {
                return Err(EvalError::DivisionByZero);
            }
            Value::Int(x.checked_div(y).ok_or(EvalError::Overflow)?)
        }
        BinOp::Rem => {
            if y == 0 {
                return Err(EvalError::DivisionByZero);
            }
            Value::Int(x.checked_rem(y).ok_or(EvalError::Overflow)?)
        }
        BinOp::And | BinOp::Or | BinOp::Eq | BinOp::Ne => unreachable!("handled above"),
    };
    Ok(v)
}

fn eval_call(func: Func, args: &[Expr], env: &Env, rng: &mut Rng<'_>) -> Result<Value, EvalError> {
    match func {
        Func::Irand => {
            let lo = eval_inner(&args[0], env, rng)?.as_int()?;
            let hi = eval_inner(&args[1], env, rng)?.as_int()?;
            if lo > hi {
                return Err(EvalError::EmptyRandomRange { lo, hi });
            }
            match rng {
                Some(r) => Ok(Value::Int(r.int_in_range(lo, hi))),
                None => Err(EvalError::RandomnessUnavailable),
            }
        }
        Func::Min => {
            let a = eval_inner(&args[0], env, rng)?.as_int()?;
            let b = eval_inner(&args[1], env, rng)?.as_int()?;
            Ok(Value::Int(a.min(b)))
        }
        Func::Max => {
            let a = eval_inner(&args[0], env, rng)?.as_int()?;
            let b = eval_inner(&args[1], env, rng)?.as_int()?;
            Ok(Value::Int(a.max(b)))
        }
        Func::Abs => {
            let a = eval_inner(&args[0], env, rng)?.as_int()?;
            a.checked_abs().map(Value::Int).ok_or(EvalError::Overflow)
        }
    }
}

pub(super) fn apply_assignment(
    a: &Assignment,
    env: &mut Env,
    rng: &mut Rng<'_>,
) -> Result<(), EvalError> {
    let value = eval_inner(&a.expr, env, rng)?;
    match &a.target {
        Target::Var(name) => env.set_var(name.clone(), value),
        Target::TableElem(table, idx) => {
            let i = eval_inner(idx, env, rng)?.as_int()?;
            env.set_table_elem(table, i, value.as_int()?)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CyclingRandomness;

    fn ev(src: &str, env: &Env) -> Result<Value, EvalError> {
        Expr::parse(src).unwrap().eval_pure(env)
    }

    #[test]
    fn arithmetic() {
        let env = Env::new();
        assert_eq!(ev("2 + 3 * 4", &env).unwrap(), Value::Int(14));
        assert_eq!(ev("10 / 3", &env).unwrap(), Value::Int(3));
        assert_eq!(ev("10 % 3", &env).unwrap(), Value::Int(1));
        assert_eq!(ev("-5 + 2", &env).unwrap(), Value::Int(-3));
    }

    #[test]
    fn comparisons_and_logic() {
        let env = Env::new();
        assert_eq!(ev("1 < 2 && 3 >= 3", &env).unwrap(), Value::Bool(true));
        assert_eq!(ev("1 == 2 || 2 != 2", &env).unwrap(), Value::Bool(false));
        assert_eq!(ev("!(1 > 2)", &env).unwrap(), Value::Bool(true));
        assert_eq!(ev("true == true", &env).unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // `x` is undefined but never evaluated.
        let env = Env::new();
        assert_eq!(ev("false && x > 0", &env).unwrap(), Value::Bool(false));
        assert_eq!(ev("true || x > 0", &env).unwrap(), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_and_overflow() {
        let env = Env::new();
        assert_eq!(ev("1 / 0", &env), Err(EvalError::DivisionByZero));
        assert_eq!(ev("1 % 0", &env), Err(EvalError::DivisionByZero));
        assert_eq!(
            ev("9223372036854775807 + 1", &env),
            Err(EvalError::Overflow)
        );
    }

    #[test]
    fn conditional_selects_branch() {
        let mut env = Env::new();
        env.set_var("x", Value::Int(5));
        assert_eq!(ev("x > 0 ? x : -x", &env).unwrap(), Value::Int(5));
        env.set_var("x", Value::Int(-5));
        assert_eq!(ev("x > 0 ? x : 0 - x", &env).unwrap(), Value::Int(5));
    }

    #[test]
    fn builtins() {
        let env = Env::new();
        assert_eq!(ev("min(3, 7)", &env).unwrap(), Value::Int(3));
        assert_eq!(ev("max(3, 7)", &env).unwrap(), Value::Int(7));
        assert_eq!(ev("abs(-4)", &env).unwrap(), Value::Int(4));
    }

    #[test]
    fn irand_bounds_and_determinism() {
        let env = Env::new();
        let e = Expr::parse("irand(2, 4)").unwrap();
        let mut rng = CyclingRandomness::new();
        let vals: Vec<i64> = (0..3)
            .map(|_| e.eval(&env, &mut rng).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![2, 3, 4]);
        let bad = Expr::parse("irand(4, 2)").unwrap();
        assert_eq!(
            bad.eval(&env, &mut rng),
            Err(EvalError::EmptyRandomRange { lo: 4, hi: 2 })
        );
    }

    #[test]
    fn type_errors_are_reported() {
        let env = Env::new();
        assert!(matches!(
            ev("true + 1", &env),
            Err(EvalError::TypeMismatch { .. })
        ));
        assert!(matches!(
            ev("!3", &env),
            Err(EvalError::TypeMismatch { .. })
        ));
        assert!(matches!(
            ev("1 ? 2 : 3", &env),
            Err(EvalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn table_lookup_in_expressions() {
        let mut env = Env::new();
        env.define_table("operands", vec![0, 1, 2, 2]);
        env.set_var("type", Value::Int(3));
        assert_eq!(ev("operands[type]", &env).unwrap(), Value::Int(2));
        assert!(matches!(
            ev("operands[9]", &env),
            Err(EvalError::IndexOutOfBounds { .. })
        ));
    }
}
