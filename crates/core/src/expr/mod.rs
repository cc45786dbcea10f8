//! Expression language for predicates and actions.
//!
//! The paper's final extension (§1, §3) attaches *predicates*
//! (data-dependent preconditions) and *actions* (data transformations) to
//! transitions. Both are written in a small integer expression language
//! over a variable environment with lookup tables and the random-choice
//! primitive `irand(lo, hi)`:
//!
//! ```text
//! type = irand(1, max_type);
//! number_of_operands_needed = operands[type];
//! ```
//!
//! (the paper writes hyphenated names such as `number-of-operands-needed`;
//! this implementation canonicalizes hyphens to underscores so that `-`
//! can remain the subtraction operator).
//!
//! # Example
//!
//! ```
//! use pnut_core::expr::{Action, Env, Expr, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut env = Env::new();
//! env.define_table("operands", vec![0, 1, 2, 2, 3]);
//! env.set_var("type", Value::Int(2));
//!
//! let action = Action::parse("needed = operands[type]; seen = seen_init + 1;")?;
//! env.set_var("seen_init", Value::Int(0));
//! action.apply_pure(&mut env)?;
//! assert_eq!(env.int("needed")?, 2);
//!
//! let pred = Expr::parse("needed > 0 && type != 0")?;
//! assert_eq!(pred.eval_pure(&env)?, Value::Bool(true));
//! # Ok(())
//! # }
//! ```

mod ast;
pub mod compile;
mod env;
mod eval;
mod lexer;
mod parser;

pub use ast::{Assignment, BinOp, Expr, Func, Target, UnaryOp};
pub use compile::{CompileError, CompiledNet, CompiledTransition};
pub use env::{Env, Value};
pub use eval::EvalError;
pub use parser::ParseExprError;

use crate::Randomness;

/// A sequence of assignments executed when a transition fires.
///
/// See the [module documentation](self) for the surface syntax.
#[derive(Debug, Clone, PartialEq)]
pub struct Action {
    assignments: Vec<Assignment>,
}

impl Action {
    /// Create an action from parsed assignments.
    pub fn new(assignments: Vec<Assignment>) -> Self {
        Action { assignments }
    }

    /// Parse an action from source text: `target = expr;` repeated, where
    /// a target is a variable or a table element `table[index]`. The final
    /// semicolon is optional.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] on malformed input.
    pub fn parse(src: &str) -> Result<Self, ParseExprError> {
        parser::parse_action(src)
    }

    /// The assignments in execution order.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Execute every assignment in order against `env`, drawing any
    /// `irand` values from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if any expression fails to evaluate or a
    /// target table index is out of bounds.
    pub fn apply(&self, env: &mut Env, rng: &mut dyn Randomness) -> Result<(), EvalError> {
        for a in &self.assignments {
            eval::apply_assignment(a, env, &mut Some(rng))?;
        }
        Ok(())
    }

    /// Execute the action without a randomness source.
    ///
    /// # Errors
    ///
    /// In addition to the errors of [`Action::apply`], returns
    /// [`EvalError::RandomnessUnavailable`] if the action uses `irand`.
    pub fn apply_pure(&self, env: &mut Env) -> Result<(), EvalError> {
        for a in &self.assignments {
            eval::apply_assignment(a, env, &mut None)?;
        }
        Ok(())
    }

    /// Whether any assignment's expression uses `irand`.
    pub fn uses_random(&self) -> bool {
        self.assignments.iter().any(|a| {
            a.expr.uses_random()
                || matches!(&a.target, Target::TableElem(_, idx) if idx.uses_random())
        })
    }
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, a) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{a};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CyclingRandomness;

    #[test]
    fn action_roundtrip_display_parse() {
        let a = Action::parse("x = 1 + 2; t[x] = irand(0, 9);").unwrap();
        let shown = a.to_string();
        let b = Action::parse(&shown).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn action_apply_with_randomness() {
        let a = Action::parse("x = irand(5, 5);").unwrap();
        let mut env = Env::new();
        let mut rng = CyclingRandomness::new();
        a.apply(&mut env, &mut rng).unwrap();
        assert_eq!(env.int("x").unwrap(), 5);
    }

    #[test]
    fn pure_apply_rejects_irand() {
        let a = Action::parse("x = irand(1, 2);").unwrap();
        let mut env = Env::new();
        assert!(matches!(
            a.apply_pure(&mut env),
            Err(EvalError::RandomnessUnavailable)
        ));
        assert!(a.uses_random());
    }

    #[test]
    fn table_element_assignment() {
        let a = Action::parse("t[1] = 42;").unwrap();
        let mut env = Env::new();
        env.define_table("t", vec![0, 0, 0]);
        a.apply_pure(&mut env).unwrap();
        assert_eq!(env.table("t").unwrap(), &[0, 42, 0]);
    }
}
