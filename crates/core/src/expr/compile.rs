//! Bytecode compilation for the expression language.
//!
//! Reachability and simulation evaluate every transition's predicate,
//! action, and delay expressions once *per candidate firing per state*.
//! Walking the [`Expr`] tree each time pays for recursion,
//! `BTreeMap` name lookups, and (for actions) a full environment clone.
//! This module lowers each expression once, at net-build time, into a
//! flat register [`Program`] over a dense [`SlotMap`], so the hot loop
//! is a non-allocating array-indexed interpreter.
//!
//! # Instruction set
//!
//! Programs are sequences of instructions (`Instr`) over a register file of
//! [`Value`]s (registers are dynamically typed exactly like the tree
//! interpreter — an `i64`-only file could not reproduce
//! [`EvalError::TypeMismatch`] semantics bit-for-bit). The result of a
//! program is always left in register 0.
//!
//! | instruction        | effect                                                        |
//! |--------------------|---------------------------------------------------------------|
//! | `Const`            | `r[dst] = v`                                                  |
//! | `Load`             | `r[dst] = vars[slot]` (error: `UnknownVariable`)              |
//! | `LoadElem`         | `r[dst] = tables[table][r[idx]]` (bounds-checked)             |
//! | `Neg`, `Not`       | unary ops with the interpreter's overflow/type checks         |
//! | `Bin`              | non-short-circuit binary op (`Eq`/`Ne` compare [`Value`]s)    |
//! | `AsInt`, `AsBool`  | type assertion, reproducing interleaved `as_int`/`as_bool`    |
//! | `Min`,`Max`,`Abs`  | built-in calls on integer registers                           |
//! | `Irand`            | `r[dst] = rng(r[lo]..=r[hi])` (range/availability checks)     |
//! | `Jump`, `JumpIf*`  | control flow for `&&`, `\|\|`, and `?:` short-circuiting      |
//!
//! `&&`/`||`/`?:` lower to conditional jumps so the untaken side is
//! never evaluated, matching the interpreter's short-circuiting
//! (including *not* raising errors hidden behind a short circuit).
//!
//! # Slot-map contract
//!
//! A [`SlotMap`] assigns each variable and table name a dense index.
//! [`SlotMap::for_net`] collects every name the net can ever define:
//! the initial environment plus every assignment target. Runtime
//! environments reachable from the initial one can only bind names from
//! that set, so [`EnvSlots::load`] is a linear merge over the sorted
//! names and [`EnvSlots::to_env`] reconstructs an [`Env`] that is
//! bit-identical (`==`, same hash) to what the tree interpreter's
//! clone-and-`apply_pure` would have produced.
//!
//! # Error-parity guarantee
//!
//! For every expression and environment, `Program::eval*` returns the
//! *same* `Result` — value or [`EvalError`] variant with identical
//! payload — as `Expr::eval*`, and `ActionProgram::apply*` leaves the
//! environment in the same state as `Action::apply*`. Evaluation order,
//! type-check interleaving, and `irand` draw order are preserved, so
//! seeded simulations produce identical traces. Constant folding is
//! only applied to subexpressions that provably evaluate without error
//! and without consuming randomness. The differential battery in
//! `tests/bytecode_diff.rs` (plus `tests/props.rs` under the
//! `proptest-tests` feature) checks this over the full grammar,
//! including the error cases.
//!
//! # Lowered transitions
//!
//! [`CompiledNet`] is the one lowered form of a net, and both engines,
//! the simulator and the timed explorer, fire transitions from it. Each
//! [`CompiledTransition`] holds:
//!
//! * its token movements over raw place indices: `start` (inputs,
//!   negative) and `end` (outputs, positive) in the net's **arc
//!   order**, and `atomic`, the two merged per place for a zero-delay
//!   firing. Arc order matters because the simulator writes one trace
//!   delta per arc, and several checked-in models list arcs out of
//!   place order, so sorting by place would reorder trace lines. The
//!   explorer's marking hash is commutative, so any order suits it;
//! * both delays as [`Ticks`]: a constant, or a program resolved on
//!   demand by [`Ticks::resolve`], with an RNG in the simulator and
//!   without one in the explorer (which rejects `irand` nets up front);
//! * its inhibitor thresholds, concurrency cap, predicate and action.
//!
//! Both engines rely on one contract:
//!
//! * **Readiness** ([`CompiledTransition::ready`]): inputs covered,
//!   inhibitors clear and, for a capped transition, fewer than `cap`
//!   firings in flight; the in-flight count is only asked for when the
//!   transition is capped. A transition may start when it is ready, its
//!   predicate holds ([`CompiledTransition::predicate_holds`]) and its
//!   enabling clock has run out.
//! * **Enabling clocks** ([`CompiledTransition::clock`]): after every
//!   step, a transition that is not ready or whose predicate fails has
//!   no clock; one that was already counting and did not just fire
//!   keeps its clock; any other arms a fresh enabling delay, resolved
//!   against the environment of that moment. The explorer keeps clocks
//!   as relative countdowns and never stores one for a constant-zero
//!   delay; the simulator keeps absolute deadlines.
//! * **Firing**: the action runs before the firing delay is resolved,
//!   so table-driven models compute their own firing times (paper §3).
//!   A zero delay moves `atomic` at once; otherwise `start` moves at
//!   once and `end` when the firing completes.

use super::ast::{Assignment, BinOp, Expr, Func, Target, UnaryOp};
use super::env::{Env, Value};
use super::eval::EvalError;
use super::Action;
use crate::net::{Delay, Net, PlaceId};
use crate::Randomness;
use std::collections::BTreeSet;
use std::fmt;

/// Dense name → index assignment for variables and tables.
///
/// Names are stored sorted, so loading an [`Env`] (whose iteration is
/// name-ordered) into [`EnvSlots`] is a linear merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMap {
    vars: Vec<String>,
    tables: Vec<String>,
}

impl SlotMap {
    /// Build the slot map for a net: every variable and table name in
    /// the initial environment, referenced by any transition
    /// expression, or assigned by any action.
    pub fn for_net(net: &Net) -> Self {
        let mut vars = BTreeSet::new();
        let mut tables = BTreeSet::new();
        for (name, _) in net.initial_env().vars() {
            vars.insert(name.to_string());
        }
        for (name, _) in net.initial_env().tables() {
            tables.insert(name.to_string());
        }
        for (_, t) in net.transitions() {
            if let Some(p) = t.predicate() {
                collect_expr(p, &mut vars, &mut tables);
            }
            if let Some(a) = t.action() {
                for asn in a.assignments() {
                    collect_expr(&asn.expr, &mut vars, &mut tables);
                    match &asn.target {
                        Target::Var(v) => {
                            vars.insert(v.clone());
                        }
                        Target::TableElem(t, idx) => {
                            tables.insert(t.clone());
                            collect_expr(idx, &mut vars, &mut tables);
                        }
                    }
                }
            }
            for d in [t.firing_time(), t.enabling_time()] {
                if let Delay::Expr(e) = d {
                    collect_expr(e, &mut vars, &mut tables);
                }
            }
        }
        SlotMap {
            vars: vars.into_iter().collect(),
            tables: tables.into_iter().collect(),
        }
    }

    /// Build a slot map from explicit name sets (tests and tools).
    pub fn from_names(
        vars: impl IntoIterator<Item = String>,
        tables: impl IntoIterator<Item = String>,
    ) -> Self {
        let vars: BTreeSet<String> = vars.into_iter().collect();
        let tables: BTreeSet<String> = tables.into_iter().collect();
        SlotMap {
            vars: vars.into_iter().collect(),
            tables: tables.into_iter().collect(),
        }
    }

    /// Slot index of a variable name, if mapped.
    pub fn var_slot(&self, name: &str) -> Option<u32> {
        self.vars
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
            .map(|i| i as u32)
    }

    /// Slot index of a table name, if mapped.
    pub fn table_slot(&self, name: &str) -> Option<u32> {
        self.tables
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
            .map(|i| i as u32)
    }

    /// Name of a variable slot.
    pub fn var_name(&self, slot: u32) -> &str {
        &self.vars[slot as usize]
    }

    /// Name of a table slot.
    pub fn table_name(&self, slot: u32) -> &str {
        &self.tables[slot as usize]
    }

    /// Number of variable slots.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of table slots.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }
}

/// A dense, slot-indexed unpacking of an [`Env`].
///
/// `None` slots are names the map knows but the environment does not
/// currently bind (reads of them reproduce the interpreter's
/// `UnknownVariable` / `UnknownTable` errors).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvSlots {
    vars: Vec<Option<Value>>,
    tables: Vec<Option<Vec<i64>>>,
}

impl EnvSlots {
    /// An empty slot file; size it with [`EnvSlots::load`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Unpack `env` into slot form. Reuses existing allocations.
    ///
    /// Every name bound by `env` must be present in `map` — guaranteed
    /// for environments reachable from the net the map was built for.
    pub fn load(&mut self, map: &SlotMap, env: &Env) {
        self.vars.clear();
        self.vars.resize(map.vars.len(), None);
        let mut it = env.vars();
        let mut cur = it.next();
        for (slot, name) in map.vars.iter().enumerate() {
            while let Some((n, v)) = cur {
                match n.cmp(name.as_str()) {
                    std::cmp::Ordering::Less => {
                        debug_assert!(false, "env var `{n}` missing from slot map");
                        cur = it.next();
                    }
                    std::cmp::Ordering::Equal => {
                        self.vars[slot] = Some(v);
                        cur = it.next();
                        break;
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
        }
        debug_assert!(cur.is_none(), "env var outside the slot map");

        if self.tables.len() != map.tables.len() {
            self.tables.resize(map.tables.len(), None);
        }
        let mut filled = vec![false; map.tables.len()];
        let mut it = env.tables();
        let mut cur = it.next();
        for (slot, name) in map.tables.iter().enumerate() {
            while let Some((n, data)) = cur {
                match n.cmp(name.as_str()) {
                    std::cmp::Ordering::Less => {
                        debug_assert!(false, "env table `{n}` missing from slot map");
                        cur = it.next();
                    }
                    std::cmp::Ordering::Equal => {
                        match &mut self.tables[slot] {
                            Some(buf) => {
                                buf.clear();
                                buf.extend_from_slice(data);
                            }
                            t @ None => *t = Some(data.to_vec()),
                        }
                        filled[slot] = true;
                        cur = it.next();
                        break;
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
        }
        debug_assert!(cur.is_none(), "env table outside the slot map");
        for (slot, f) in filled.iter().enumerate() {
            if !f {
                self.tables[slot] = None;
            }
        }
    }

    /// Copy another slot file into this one, reusing buffers.
    pub fn copy_from(&mut self, other: &EnvSlots) {
        self.vars.clear();
        self.vars.extend_from_slice(&other.vars);
        if self.tables.len() != other.tables.len() {
            self.tables.resize(other.tables.len(), None);
        }
        for (dst, src) in self.tables.iter_mut().zip(&other.tables) {
            match (dst, src) {
                (Some(d), Some(s)) => {
                    d.clear();
                    d.extend_from_slice(s);
                }
                (d, Some(s)) => *d = Some(s.clone()),
                (d, None) => *d = None,
            }
        }
    }

    /// Repack into an [`Env`] bit-identical to what the tree
    /// interpreter would have produced.
    pub fn to_env(&self, map: &SlotMap) -> Env {
        let mut env = Env::new();
        for (slot, v) in self.vars.iter().enumerate() {
            if let Some(v) = v {
                env.set_var(map.vars[slot].clone(), *v);
            }
        }
        for (slot, t) in self.tables.iter().enumerate() {
            if let Some(t) = t {
                env.define_table(map.tables[slot].clone(), t.clone());
            }
        }
        env
    }

    /// Read a variable slot.
    pub fn var(&self, slot: u32) -> Option<Value> {
        self.vars[slot as usize]
    }

    /// Write a variable slot.
    pub fn set_var(&mut self, slot: u32, value: Value) {
        self.vars[slot as usize] = Some(value);
    }

    /// Borrow a table slot's contents.
    pub fn table(&self, slot: u32) -> Option<&[i64]> {
        self.tables[slot as usize].as_deref()
    }
}

/// Register index. `u16` bounds the register file; expressions deep
/// enough to overflow it are rejected at lowering time.
type Reg = u16;

/// Non-short-circuit binary opcodes (a strict subset of [`BinOp`]:
/// `And`/`Or` lower to jumps instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArithOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

/// One bytecode instruction. See the module docs for the table.
#[derive(Debug, Clone, PartialEq)]
enum Instr {
    Const {
        dst: Reg,
        v: Value,
    },
    Load {
        dst: Reg,
        slot: u32,
    },
    LoadElem {
        dst: Reg,
        table: u32,
        idx: Reg,
    },
    Neg {
        dst: Reg,
        a: Reg,
    },
    Not {
        dst: Reg,
        a: Reg,
    },
    Bin {
        op: ArithOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    AsInt {
        a: Reg,
    },
    AsBool {
        dst: Reg,
        a: Reg,
    },
    Min {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Max {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Abs {
        dst: Reg,
        a: Reg,
    },
    Irand {
        dst: Reg,
        lo: Reg,
        hi: Reg,
    },
    Jump {
        to: u32,
    },
    JumpIfFalse {
        cond: Reg,
        to: u32,
    },
    JumpIfTrue {
        cond: Reg,
        to: u32,
    },
}

/// Reusable evaluation state: the register file. One `Scratch` serves
/// any number of programs; no allocation happens per evaluation once
/// it has grown to the largest register count in use.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    regs: Vec<Value>,
}

impl Scratch {
    /// An empty register file.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Lowering failure. Expressions from the surface language never hit
/// these in practice; they bound pathological programmatic input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The expression needs more than `u16::MAX` registers.
    TooManyRegisters,
    /// A referenced name is absent from the slot map (the map was
    /// built for a different net).
    MissingSlot {
        /// The unmapped variable or table name.
        name: String,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::TooManyRegisters => {
                write!(f, "expression too deep: register file limit exceeded")
            }
            LowerError::MissingSlot { name } => {
                write!(f, "name `{name}` is not in the slot map")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// A compiled expression: flat bytecode leaving its result in
/// register 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    code: Vec<Instr>,
    regs: u32,
}

impl Program {
    /// Lower `expr` against `map`.
    ///
    /// # Errors
    ///
    /// [`LowerError`] if a name is unmapped or the expression exceeds
    /// the register file.
    pub fn compile(expr: &Expr, map: &SlotMap) -> Result<Program, LowerError> {
        let mut l = Lowerer {
            map,
            code: Vec::new(),
            regs: 1,
        };
        l.lower(expr, 0, 1)?;
        Ok(Program {
            code: l.code,
            regs: l.regs,
        })
    }

    /// The constant this program always produces, if it is a single
    /// folded constant.
    pub fn const_value(&self) -> Option<Value> {
        match self.code.as_slice() {
            [Instr::Const { dst: 0, v }] => Some(*v),
            _ => None,
        }
    }

    /// Evaluate with a randomness source. Mirrors [`Expr::eval`].
    ///
    /// # Errors
    ///
    /// The same [`EvalError`]s as the tree interpreter, bit-identically.
    pub fn eval(
        &self,
        slots: &EnvSlots,
        map: &SlotMap,
        scratch: &mut Scratch,
        rng: &mut dyn Randomness,
    ) -> Result<Value, EvalError> {
        self.run(slots, map, scratch, &mut Some(rng))
    }

    /// Evaluate without randomness. Mirrors [`Expr::eval_pure`].
    ///
    /// # Errors
    ///
    /// As [`Program::eval`], plus [`EvalError::RandomnessUnavailable`]
    /// if the program reaches an `irand`.
    pub fn eval_pure(
        &self,
        slots: &EnvSlots,
        map: &SlotMap,
        scratch: &mut Scratch,
    ) -> Result<Value, EvalError> {
        self.run(slots, map, scratch, &mut None)
    }

    fn run(
        &self,
        slots: &EnvSlots,
        map: &SlotMap,
        scratch: &mut Scratch,
        rng: &mut Option<&mut dyn Randomness>,
    ) -> Result<Value, EvalError> {
        let regs = &mut scratch.regs;
        if regs.len() < self.regs as usize {
            regs.resize(self.regs as usize, Value::Int(0));
        }
        let mut pc = 0usize;
        while let Some(i) = self.code.get(pc) {
            pc += 1;
            match *i {
                Instr::Const { dst, v } => regs[dst as usize] = v,
                Instr::Load { dst, slot } => {
                    regs[dst as usize] = slots.vars[slot as usize]
                        .ok_or_else(|| EvalError::UnknownVariable(map.var_name(slot).to_string()))?
                }
                Instr::LoadElem { dst, table, idx } => {
                    let i = regs[idx as usize].as_int()?;
                    let t = slots.tables[table as usize].as_deref().ok_or_else(|| {
                        EvalError::UnknownTable(map.table_name(table).to_string())
                    })?;
                    let v = usize::try_from(i)
                        .ok()
                        .and_then(|ix| t.get(ix).copied())
                        .ok_or_else(|| EvalError::IndexOutOfBounds {
                            table: map.table_name(table).to_string(),
                            index: i,
                            len: t.len(),
                        })?;
                    regs[dst as usize] = Value::Int(v);
                }
                Instr::Neg { dst, a } => {
                    regs[dst as usize] = regs[a as usize]
                        .as_int()?
                        .checked_neg()
                        .map(Value::Int)
                        .ok_or(EvalError::Overflow)?
                }
                Instr::Not { dst, a } => {
                    regs[dst as usize] = Value::Bool(!regs[a as usize].as_bool()?)
                }
                Instr::Bin { op, dst, a, b } => {
                    let va = regs[a as usize];
                    let vb = regs[b as usize];
                    regs[dst as usize] = match op {
                        ArithOp::Eq => Value::Bool(va == vb),
                        ArithOp::Ne => Value::Bool(va != vb),
                        _ => {
                            let x = va.as_int()?;
                            let y = vb.as_int()?;
                            match op {
                                ArithOp::Lt => Value::Bool(x < y),
                                ArithOp::Le => Value::Bool(x <= y),
                                ArithOp::Gt => Value::Bool(x > y),
                                ArithOp::Ge => Value::Bool(x >= y),
                                ArithOp::Add => {
                                    Value::Int(x.checked_add(y).ok_or(EvalError::Overflow)?)
                                }
                                ArithOp::Sub => {
                                    Value::Int(x.checked_sub(y).ok_or(EvalError::Overflow)?)
                                }
                                ArithOp::Mul => {
                                    Value::Int(x.checked_mul(y).ok_or(EvalError::Overflow)?)
                                }
                                ArithOp::Div => {
                                    if y == 0 {
                                        return Err(EvalError::DivisionByZero);
                                    }
                                    Value::Int(x.checked_div(y).ok_or(EvalError::Overflow)?)
                                }
                                ArithOp::Rem => {
                                    if y == 0 {
                                        return Err(EvalError::DivisionByZero);
                                    }
                                    Value::Int(x.checked_rem(y).ok_or(EvalError::Overflow)?)
                                }
                                ArithOp::Eq | ArithOp::Ne => unreachable!("handled above"),
                            }
                        }
                    };
                }
                Instr::AsInt { a } => {
                    regs[a as usize].as_int()?;
                }
                Instr::AsBool { dst, a } => {
                    regs[dst as usize] = Value::Bool(regs[a as usize].as_bool()?)
                }
                Instr::Min { dst, a, b } => {
                    let x = regs[a as usize].as_int()?;
                    let y = regs[b as usize].as_int()?;
                    regs[dst as usize] = Value::Int(x.min(y));
                }
                Instr::Max { dst, a, b } => {
                    let x = regs[a as usize].as_int()?;
                    let y = regs[b as usize].as_int()?;
                    regs[dst as usize] = Value::Int(x.max(y));
                }
                Instr::Abs { dst, a } => {
                    regs[dst as usize] = regs[a as usize]
                        .as_int()?
                        .checked_abs()
                        .map(Value::Int)
                        .ok_or(EvalError::Overflow)?
                }
                Instr::Irand { dst, lo, hi } => {
                    let lo = regs[lo as usize].as_int()?;
                    let hi = regs[hi as usize].as_int()?;
                    if lo > hi {
                        return Err(EvalError::EmptyRandomRange { lo, hi });
                    }
                    match rng {
                        Some(r) => regs[dst as usize] = Value::Int(r.int_in_range(lo, hi)),
                        None => return Err(EvalError::RandomnessUnavailable),
                    }
                }
                Instr::Jump { to } => pc = to as usize,
                Instr::JumpIfFalse { cond, to } => {
                    if !regs[cond as usize].as_bool()? {
                        pc = to as usize;
                    }
                }
                Instr::JumpIfTrue { cond, to } => {
                    if regs[cond as usize].as_bool()? {
                        pc = to as usize;
                    }
                }
            }
        }
        Ok(scratch.regs[0])
    }
}

struct Lowerer<'a> {
    map: &'a SlotMap,
    code: Vec<Instr>,
    regs: u32,
}

impl Lowerer<'_> {
    fn reg(&mut self, r: u32) -> Result<Reg, LowerError> {
        if r >= u32::from(u16::MAX) {
            return Err(LowerError::TooManyRegisters);
        }
        if r >= self.regs {
            self.regs = r + 1;
        }
        Ok(r as Reg)
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.code[at] {
            Instr::Jump { to: t }
            | Instr::JumpIfFalse { to: t, .. }
            | Instr::JumpIfTrue { to: t, .. } => *t = to,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Lower `e` so its value lands in register `dst`; registers
    /// `next..` are free for temporaries.
    fn lower(&mut self, e: &Expr, dst: u32, next: u32) -> Result<(), LowerError> {
        if let Some(v) = e.const_value() {
            let dst = self.reg(dst)?;
            self.code.push(Instr::Const { dst, v });
            return Ok(());
        }
        match e {
            Expr::Int(v) => {
                let dst = self.reg(dst)?;
                self.code.push(Instr::Const {
                    dst,
                    v: Value::Int(*v),
                });
            }
            Expr::Bool(b) => {
                let dst = self.reg(dst)?;
                self.code.push(Instr::Const {
                    dst,
                    v: Value::Bool(*b),
                });
            }
            Expr::Var(name) => {
                let slot = self
                    .map
                    .var_slot(name)
                    .ok_or_else(|| LowerError::MissingSlot { name: name.clone() })?;
                let dst = self.reg(dst)?;
                self.code.push(Instr::Load { dst, slot });
            }
            Expr::Index(table, idx) => {
                let slot = self
                    .map
                    .table_slot(table)
                    .ok_or_else(|| LowerError::MissingSlot {
                        name: table.clone(),
                    })?;
                self.lower(idx, dst, next)?;
                let dst = self.reg(dst)?;
                self.code.push(Instr::LoadElem {
                    dst,
                    table: slot,
                    idx: dst,
                });
            }
            Expr::Unary(op, a) => {
                self.lower(a, dst, next)?;
                let dst = self.reg(dst)?;
                self.code.push(match op {
                    UnaryOp::Neg => Instr::Neg { dst, a: dst },
                    UnaryOp::Not => Instr::Not { dst, a: dst },
                });
            }
            Expr::Binary(BinOp::And, a, b) => match a.const_value() {
                // `false && b` never evaluates `b` in the interpreter,
                // so folding the whole conjunction is sound; `true && b`
                // reduces to `b` coerced to bool.
                Some(Value::Bool(false)) => {
                    let dst = self.reg(dst)?;
                    self.code.push(Instr::Const {
                        dst,
                        v: Value::Bool(false),
                    });
                }
                Some(Value::Bool(true)) => {
                    self.lower(b, dst, next)?;
                    let dst = self.reg(dst)?;
                    self.code.push(Instr::AsBool { dst, a: dst });
                }
                _ => {
                    self.lower(a, dst, next)?;
                    let dst = self.reg(dst)?;
                    let j = self.code.len();
                    self.code.push(Instr::JumpIfFalse { cond: dst, to: 0 });
                    self.lower(b, dst.into(), next)?;
                    self.code.push(Instr::AsBool { dst, a: dst });
                    let to = self.here();
                    self.patch(j, to);
                }
            },
            Expr::Binary(BinOp::Or, a, b) => match a.const_value() {
                Some(Value::Bool(true)) => {
                    let dst = self.reg(dst)?;
                    self.code.push(Instr::Const {
                        dst,
                        v: Value::Bool(true),
                    });
                }
                Some(Value::Bool(false)) => {
                    self.lower(b, dst, next)?;
                    let dst = self.reg(dst)?;
                    self.code.push(Instr::AsBool { dst, a: dst });
                }
                _ => {
                    self.lower(a, dst, next)?;
                    let dst = self.reg(dst)?;
                    let j = self.code.len();
                    self.code.push(Instr::JumpIfTrue { cond: dst, to: 0 });
                    self.lower(b, dst.into(), next)?;
                    self.code.push(Instr::AsBool { dst, a: dst });
                    let to = self.here();
                    self.patch(j, to);
                }
            },
            Expr::Binary(op, a, b) => {
                let arith = match op {
                    BinOp::Eq => ArithOp::Eq,
                    BinOp::Ne => ArithOp::Ne,
                    BinOp::Lt => ArithOp::Lt,
                    BinOp::Le => ArithOp::Le,
                    BinOp::Gt => ArithOp::Gt,
                    BinOp::Ge => ArithOp::Ge,
                    BinOp::Add => ArithOp::Add,
                    BinOp::Sub => ArithOp::Sub,
                    BinOp::Mul => ArithOp::Mul,
                    BinOp::Div => ArithOp::Div,
                    BinOp::Rem => ArithOp::Rem,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                };
                self.lower(a, dst, next)?;
                self.lower(b, next, next + 1)?;
                let (dst, tmp) = (self.reg(dst)?, self.reg(next)?);
                self.code.push(Instr::Bin {
                    op: arith,
                    dst,
                    a: dst,
                    b: tmp,
                });
            }
            Expr::Call(func, args) => {
                // The interpreter asserts each argument is an integer
                // *before* evaluating the next one; `AsInt` preserves
                // that interleaving.
                match func {
                    Func::Abs => {
                        self.lower(&args[0], dst, next)?;
                        let dst = self.reg(dst)?;
                        self.code.push(Instr::AsInt { a: dst });
                        self.code.push(Instr::Abs { dst, a: dst });
                    }
                    Func::Min | Func::Max | Func::Irand => {
                        self.lower(&args[0], dst, next)?;
                        let d = self.reg(dst)?;
                        self.code.push(Instr::AsInt { a: d });
                        self.lower(&args[1], next, next + 1)?;
                        let tmp = self.reg(next)?;
                        self.code.push(Instr::AsInt { a: tmp });
                        self.code.push(match func {
                            Func::Min => Instr::Min {
                                dst: d,
                                a: d,
                                b: tmp,
                            },
                            Func::Max => Instr::Max {
                                dst: d,
                                a: d,
                                b: tmp,
                            },
                            Func::Irand => Instr::Irand {
                                dst: d,
                                lo: d,
                                hi: tmp,
                            },
                            Func::Abs => unreachable!("handled above"),
                        });
                    }
                }
            }
            Expr::If(c, a, b) => match c.const_value() {
                Some(Value::Bool(true)) => self.lower(a, dst, next)?,
                Some(Value::Bool(false)) => self.lower(b, dst, next)?,
                _ => {
                    self.lower(c, dst, next)?;
                    let d = self.reg(dst)?;
                    let jf = self.code.len();
                    self.code.push(Instr::JumpIfFalse { cond: d, to: 0 });
                    self.lower(a, dst, next)?;
                    let j = self.code.len();
                    self.code.push(Instr::Jump { to: 0 });
                    let to = self.here();
                    self.patch(jf, to);
                    self.lower(b, dst, next)?;
                    let to = self.here();
                    self.patch(j, to);
                }
            },
        }
        Ok(())
    }
}

impl Expr {
    /// The value this expression always evaluates to, if it is
    /// *provably constant*: no variable or table reads, no `irand`,
    /// and evaluation succeeds. Expressions that would error (overflow,
    /// division by zero, type mismatch) are *not* considered constant,
    /// so folding never changes error behaviour or timing.
    pub fn const_value(&self) -> Option<Value> {
        self.const_eval().and_then(Result::ok)
    }

    /// Like [`Expr::const_value`], but keeps the failure case apart:
    /// `Some(Err(e))` means the expression reads no variable, table, or
    /// randomness and *always* fails with `e` when evaluated — a
    /// guaranteed runtime [`EvalError`](super::EvalError) worth flagging
    /// statically. `None` means the value depends on the environment.
    pub fn const_eval(&self) -> Option<Result<Value, super::EvalError>> {
        fn is_static(e: &Expr) -> bool {
            match e {
                Expr::Int(_) | Expr::Bool(_) => true,
                Expr::Var(_) | Expr::Index(..) => false,
                Expr::Unary(_, a) => is_static(a),
                Expr::Binary(_, a, b) => is_static(a) && is_static(b),
                Expr::Call(f, args) => *f != Func::Irand && args.iter().all(is_static),
                Expr::If(c, a, b) => is_static(c) && is_static(a) && is_static(b),
            }
        }
        if !is_static(self) {
            return None;
        }
        Some(self.eval_pure(&Env::new()))
    }
}

/// One compiled assignment step.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    SetVar {
        slot: u32,
        value: Program,
    },
    SetElem {
        table: u32,
        index: Program,
        value: Program,
    },
}

/// A compiled [`Action`]: assignments over slots, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionProgram {
    steps: Vec<Step>,
}

impl ActionProgram {
    /// Lower `action` against `map`.
    ///
    /// # Errors
    ///
    /// [`LowerError`] as for [`Program::compile`].
    pub fn compile(action: &Action, map: &SlotMap) -> Result<ActionProgram, LowerError> {
        let mut steps = Vec::with_capacity(action.assignments().len());
        for a in action.assignments() {
            steps.push(compile_assignment(a, map)?);
        }
        Ok(ActionProgram { steps })
    }

    /// Apply with randomness. Mirrors [`Action::apply`].
    ///
    /// # Errors
    ///
    /// The same [`EvalError`]s as the tree interpreter.
    pub fn apply(
        &self,
        slots: &mut EnvSlots,
        map: &SlotMap,
        scratch: &mut Scratch,
        rng: &mut dyn Randomness,
    ) -> Result<(), EvalError> {
        self.run(slots, map, scratch, &mut Some(rng), None)
    }

    /// Apply without randomness. Mirrors [`Action::apply_pure`].
    ///
    /// # Errors
    ///
    /// As [`ActionProgram::apply`], plus
    /// [`EvalError::RandomnessUnavailable`] on `irand`.
    pub fn apply_pure(
        &self,
        slots: &mut EnvSlots,
        map: &SlotMap,
        scratch: &mut Scratch,
    ) -> Result<(), EvalError> {
        self.run(slots, map, scratch, &mut None, None)
    }

    /// Apply with randomness, appending every scalar assignment to `log`
    /// as `(slot, value)` in execution order: the variable writes a
    /// simulator puts in its trace. Table-element writes are applied but
    /// not logged.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ActionProgram::apply`].
    pub fn apply_logged(
        &self,
        slots: &mut EnvSlots,
        map: &SlotMap,
        scratch: &mut Scratch,
        rng: &mut dyn Randomness,
        log: &mut Vec<(u32, Value)>,
    ) -> Result<(), EvalError> {
        self.run(slots, map, scratch, &mut Some(rng), Some(log))
    }

    fn run(
        &self,
        slots: &mut EnvSlots,
        map: &SlotMap,
        scratch: &mut Scratch,
        rng: &mut Option<&mut dyn Randomness>,
        mut log: Option<&mut Vec<(u32, Value)>>,
    ) -> Result<(), EvalError> {
        for step in &self.steps {
            match step {
                Step::SetVar { slot, value } => {
                    let v = value.run(slots, map, scratch, rng)?;
                    slots.vars[*slot as usize] = Some(v);
                    if let Some(log) = log.as_deref_mut() {
                        log.push((*slot, v));
                    }
                }
                Step::SetElem {
                    table,
                    index,
                    value,
                } => {
                    // Interpreter order: value expr, index expr, index
                    // as_int, value as_int, table lookup, bounds check.
                    let v = value.run(slots, map, scratch, rng)?;
                    let i = index.run(slots, map, scratch, rng)?.as_int()?;
                    let x = v.as_int()?;
                    let t = slots.tables[*table as usize].as_mut().ok_or_else(|| {
                        EvalError::UnknownTable(map.table_name(*table).to_string())
                    })?;
                    let len = t.len();
                    let cell = usize::try_from(i).ok().and_then(|ix| t.get_mut(ix)).ok_or(
                        EvalError::IndexOutOfBounds {
                            table: map.table_name(*table).to_string(),
                            index: i,
                            len,
                        },
                    )?;
                    *cell = x;
                }
            }
        }
        Ok(())
    }
}

fn compile_assignment(a: &Assignment, map: &SlotMap) -> Result<Step, LowerError> {
    let value = Program::compile(&a.expr, map)?;
    Ok(match &a.target {
        Target::Var(name) => Step::SetVar {
            slot: map
                .var_slot(name)
                .ok_or_else(|| LowerError::MissingSlot { name: name.clone() })?,
            value,
        },
        Target::TableElem(table, idx) => Step::SetElem {
            table: map
                .table_slot(table)
                .ok_or_else(|| LowerError::MissingSlot {
                    name: table.clone(),
                })?,
            index: Program::compile(idx, map)?,
            value,
        },
    })
}

fn collect_expr(e: &Expr, vars: &mut BTreeSet<String>, tables: &mut BTreeSet<String>) {
    match e {
        Expr::Int(_) | Expr::Bool(_) => {}
        Expr::Var(v) => {
            vars.insert(v.clone());
        }
        Expr::Index(t, i) => {
            tables.insert(t.clone());
            collect_expr(i, vars, tables);
        }
        Expr::Unary(_, a) => collect_expr(a, vars, tables),
        Expr::Binary(_, a, b) => {
            collect_expr(a, vars, tables);
            collect_expr(b, vars, tables);
        }
        Expr::Call(_, args) => {
            for a in args {
                collect_expr(a, vars, tables);
            }
        }
        Expr::If(c, a, b) => {
            collect_expr(c, vars, tables);
            collect_expr(a, vars, tables);
            collect_expr(b, vars, tables);
        }
    }
}

/// A firing or enabling delay, lowered: a constant, or a program
/// resolved each time the delay is asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Ticks {
    /// A constant number of ticks.
    Fixed(u64),
    /// An expression, evaluated against the environment of the moment
    /// the delay is resolved.
    Expr(Program),
}

impl Ticks {
    /// Whether the delay is the constant zero.
    #[inline]
    pub fn is_zero_constant(&self) -> bool {
        matches!(self, Ticks::Fixed(0))
    }

    /// The delay in ticks against `slots`, drawing any `irand` from
    /// `rng`.
    ///
    /// # Errors
    ///
    /// The program's [`EvalError`] ([`EvalError::RandomnessUnavailable`]
    /// on `irand` without `rng`), and [`EvalError::Overflow`] for a
    /// negative delay.
    #[inline]
    pub fn resolve(
        &self,
        slots: &EnvSlots,
        map: &SlotMap,
        scratch: &mut Scratch,
        mut rng: Option<&mut dyn Randomness>,
    ) -> Result<u64, EvalError> {
        match self {
            Ticks::Fixed(ticks) => Ok(*ticks),
            Ticks::Expr(prog) => {
                let v = prog.run(slots, map, scratch, &mut rng)?.as_int()?;
                u64::try_from(v).map_err(|_| EvalError::Overflow)
            }
        }
    }
}

/// The enabling-clock decision of [`CompiledTransition::clock`]; `T` is
/// however the caller keeps a running clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock<T> {
    /// Not ready: the transition carries no clock.
    Off,
    /// Ready ever since its clock armed: the clock keeps counting.
    Keep(T),
    /// Newly ready, or still ready after its own firing: a fresh
    /// countdown of this many ticks.
    Arm(u64),
}

/// One transition lowered for both engines (see "Lowered transitions"
/// in the module docs): token movements over raw place indices, and
/// its compiled programs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTransition {
    /// A firing's start: `(place, -weight)` per input arc, in the net's
    /// arc order.
    pub start: Vec<(u32, i64)>,
    /// A firing's end: `(place, weight)` per output arc, in arc order.
    pub end: Vec<(u32, i64)>,
    /// `start` and `end` merged per place, zero-sum self-loops dropped:
    /// the movement of an atomic (zero-delay) firing.
    pub atomic: Vec<(u32, i64)>,
    /// `(place, threshold)` per inhibitor arc: ready only while the
    /// place holds fewer tokens.
    pub inhibitors: Vec<(u32, u32)>,
    /// Maximum concurrent firings, if capped.
    pub cap: Option<u32>,
    /// Compiled predicate, if any.
    pub predicate: Option<Program>,
    /// Compiled action, if any.
    pub action: Option<ActionProgram>,
    /// Firing delay.
    pub firing: Ticks,
    /// Enabling delay.
    pub enabling: Ticks,
}

impl CompiledTransition {
    /// Whether the transition may be under way: every input arc covered
    /// by `marking`, every inhibitor clear and, if it is capped, fewer
    /// than `cap` firings in flight. `in_flight` counts those and is
    /// called only for a capped transition.
    #[inline]
    pub fn ready(&self, marking: &[u32], in_flight: impl FnOnce() -> u32) -> bool {
        self.start
            .iter()
            .all(|&(p, d)| i64::from(marking[p as usize]) + d >= 0)
            && self
                .inhibitors
                .iter()
                .all(|&(p, th)| marking[p as usize] < th)
            && self.cap.is_none_or(|cap| in_flight() < cap)
    }

    /// Whether the predicate holds against `slots` (true without one).
    ///
    /// # Errors
    ///
    /// The predicate's [`EvalError`], or a type mismatch if its value
    /// is not a boolean.
    #[inline]
    pub fn predicate_holds(
        &self,
        slots: &EnvSlots,
        map: &SlotMap,
        scratch: &mut Scratch,
    ) -> Result<bool, EvalError> {
        match &self.predicate {
            Some(p) => p.eval_pure(slots, map, scratch)?.as_bool(),
            None => Ok(true),
        }
    }

    /// The continuous-enabling rule, applied after every step. A
    /// transition that is not `ready` (readiness and predicate) has no
    /// clock. One that is still counting keeps its clock: `running`
    /// yields it, and must yield `None` right after the transition's
    /// own firing, which ends its enabling interval. Any other ready
    /// transition arms a fresh countdown, its enabling delay resolved
    /// against `slots`.
    ///
    /// # Errors
    ///
    /// As [`Ticks::resolve`].
    #[inline]
    pub fn clock<T>(
        &self,
        ready: bool,
        running: impl FnOnce() -> Option<T>,
        slots: &EnvSlots,
        map: &SlotMap,
        scratch: &mut Scratch,
        rng: Option<&mut dyn Randomness>,
    ) -> Result<Clock<T>, EvalError> {
        if !ready {
            return Ok(Clock::Off);
        }
        match running() {
            Some(clock) => Ok(Clock::Keep(clock)),
            None => self
                .enabling
                .resolve(slots, map, scratch, rng)
                .map(Clock::Arm),
        }
    }
}

/// Compile-time lowering failure, naming the transition and the
/// offending expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// The transition whose expression failed to lower.
    pub transition: String,
    /// Display form of the offending expression or action.
    pub expr: String,
    /// The underlying lowering error.
    pub source: LowerError,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "failed to compile `{}` of transition `{}`: {}",
            self.expr, self.transition, self.source
        )
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Every transition of a net compiled against one shared [`SlotMap`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledNet {
    /// The shared slot map.
    pub map: SlotMap,
    /// Per-transition programs, indexed by `TransitionId::index()`.
    pub transitions: Vec<CompiledTransition>,
}

impl CompiledNet {
    /// Compile every expression in `net`.
    ///
    /// # Errors
    ///
    /// [`CompileError`] naming the first transition whose expression
    /// fails to lower.
    pub fn compile(net: &Net) -> Result<CompiledNet, CompileError> {
        let map = SlotMap::for_net(net);
        let mut transitions = Vec::with_capacity(net.transition_count());
        for (_, t) in net.transitions() {
            let wrap = |expr: String, source: LowerError| CompileError {
                transition: t.name().to_string(),
                expr,
                source,
            };
            let predicate = match t.predicate() {
                Some(p) => Some(Program::compile(p, &map).map_err(|e| wrap(p.to_string(), e))?),
                None => None,
            };
            let action = match t.action() {
                Some(a) => {
                    Some(ActionProgram::compile(a, &map).map_err(|e| wrap(a.to_string(), e))?)
                }
                None => None,
            };
            let ticks = |delay: &Delay| match delay {
                Delay::Fixed(ticks) => Ok(Ticks::Fixed(*ticks)),
                Delay::Expr(e) => Program::compile(e, &map)
                    .map(Ticks::Expr)
                    .map_err(|err| wrap(e.to_string(), err)),
            };
            let arcs = |arcs: &[(PlaceId, u32)], sign: i64| -> Vec<(u32, i64)> {
                arcs.iter()
                    .map(|&(p, w)| (p.index() as u32, sign * i64::from(w)))
                    .collect()
            };
            let (start, end) = (arcs(t.inputs(), -1), arcs(t.outputs(), 1));
            let mut atomic = start.clone();
            for &(p, d) in &end {
                match atomic.iter_mut().find(|(q, _)| *q == p) {
                    Some((_, sum)) => *sum += d,
                    None => atomic.push((p, d)),
                }
            }
            atomic.retain(|&(_, d)| d != 0);
            transitions.push(CompiledTransition {
                start,
                end,
                atomic,
                inhibitors: t
                    .inhibitors()
                    .iter()
                    .map(|&(p, th)| (p.index() as u32, th))
                    .collect(),
                cap: t.max_concurrent(),
                predicate,
                action,
                firing: ticks(t.firing_time())?,
                enabling: ticks(t.enabling_time())?,
            });
        }
        Ok(CompiledNet { map, transitions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CyclingRandomness;

    fn map_for(env: &Env, extra_vars: &[&str]) -> SlotMap {
        SlotMap::from_names(
            env.vars()
                .map(|(n, _)| n.to_string())
                .chain(extra_vars.iter().map(|s| s.to_string())),
            env.tables().map(|(n, _)| n.to_string()),
        )
    }

    fn check(src: &str, env: &Env) {
        let e = Expr::parse(src).unwrap();
        let map = map_for(env, &[]);
        let p = Program::compile(&e, &map).unwrap();
        let mut slots = EnvSlots::new();
        slots.load(&map, env);
        let mut scratch = Scratch::new();
        assert_eq!(
            p.eval_pure(&slots, &map, &mut scratch),
            e.eval_pure(env),
            "mismatch for `{src}`"
        );
    }

    #[test]
    fn values_match_interpreter() {
        let mut env = Env::new();
        env.set_var("x", Value::Int(5));
        env.set_var("flag", Value::Bool(true));
        env.define_table("t", vec![10, 20, 30]);
        for src in [
            "2 + 3 * 4",
            "10 / 3",
            "10 % 3",
            "-x",
            "x > 0 && flag",
            "x < 0 || !flag",
            "x == 5",
            "flag != false",
            "t[x - 4]",
            "x > 0 ? t[0] : t[9]",
            "min(x, 3) + max(x, 7) + abs(0 - x)",
            "true == true",
            "1 == true",
        ] {
            check(src, &env);
        }
    }

    #[test]
    fn errors_match_interpreter() {
        let mut env = Env::new();
        env.set_var("x", Value::Int(5));
        env.define_table("t", vec![1]);
        for src in [
            "1 / 0",
            "1 % 0",
            "9223372036854775807 + 1",
            "-(-9223372036854775807 - 1)",
            "abs(-9223372036854775807 - 1)",
            "true + 1",
            "!x",
            "x ? 1 : 2",
            "missing + 1",
            "t[5]",
            "t[-1]",
            "u[0]",
            "x && true",
            "true && x",
            "irand(1, 2)",
            "irand(2, 1)",
            "irand(true, u[0])",
        ] {
            let e = Expr::parse(src).unwrap();
            let map = SlotMap::from_names(
                ["x".to_string(), "missing".to_string()],
                ["t".to_string(), "u".to_string()],
            );
            let p = Program::compile(&e, &map).unwrap();
            let mut slots = EnvSlots::new();
            slots.load(&map, &env);
            let mut scratch = Scratch::new();
            assert_eq!(
                p.eval_pure(&slots, &map, &mut scratch),
                e.eval_pure(&env),
                "error mismatch for `{src}`"
            );
        }
    }

    #[test]
    fn short_circuit_skips_untaken_side() {
        // `missing` is unmapped entirely, yet never reached.
        let env = Env::new();
        let map = SlotMap::from_names(["missing".to_string()], []);
        for src in ["false && missing > 0", "true || missing > 0"] {
            check_with(src, &env, &map);
        }
    }

    fn check_with(src: &str, env: &Env, map: &SlotMap) {
        let e = Expr::parse(src).unwrap();
        let p = Program::compile(&e, map).unwrap();
        let mut slots = EnvSlots::new();
        slots.load(map, env);
        let mut scratch = Scratch::new();
        assert_eq!(
            p.eval_pure(&slots, map, &mut scratch),
            e.eval_pure(env),
            "mismatch for `{src}`"
        );
    }

    #[test]
    fn irand_draw_order_matches() {
        let env = Env::new();
        let map = SlotMap::from_names([], []);
        let e = Expr::parse("irand(0, 3) * 10 + irand(0, 3)").unwrap();
        let p = Program::compile(&e, &map).unwrap();
        let mut slots = EnvSlots::new();
        slots.load(&map, &env);
        let mut scratch = Scratch::new();
        let mut r1 = CyclingRandomness::new();
        let mut r2 = CyclingRandomness::new();
        for _ in 0..8 {
            assert_eq!(
                p.eval(&slots, &map, &mut scratch, &mut r1),
                e.eval(&env, &mut r2)
            );
        }
    }

    #[test]
    fn const_folding_produces_single_const() {
        let map = SlotMap::from_names([], []);
        let e = Expr::parse("2 * 3 + min(4, 5)").unwrap();
        let p = Program::compile(&e, &map).unwrap();
        assert_eq!(p.const_value(), Some(Value::Int(10)));
        // Erroring expressions must NOT fold.
        let e = Expr::parse("1 / 0").unwrap();
        assert_eq!(e.const_value(), None);
        let p = Program::compile(&e, &map).unwrap();
        assert_eq!(p.const_value(), None);
        // Random expressions must NOT fold.
        assert_eq!(Expr::parse("irand(1, 1)").unwrap().const_value(), None);
    }

    #[test]
    fn actions_match_interpreter() {
        let mut env = Env::new();
        env.set_var("x", Value::Int(1));
        env.define_table("t", vec![0, 0, 0]);
        let a = Action::parse("x = x + 1; t[x] = x * 10; y = t[x] > 0;").unwrap();
        let map = SlotMap::from_names(["x".to_string(), "y".to_string()], ["t".to_string()]);
        let prog = ActionProgram::compile(&a, &map).unwrap();

        let mut slots = EnvSlots::new();
        slots.load(&map, &env);
        let mut scratch = Scratch::new();
        prog.apply_pure(&mut slots, &map, &mut scratch).unwrap();

        let mut expect = env.clone();
        a.apply_pure(&mut expect).unwrap();
        assert_eq!(slots.to_env(&map), expect);
    }

    #[test]
    fn action_errors_match_interpreter() {
        let mut env = Env::new();
        env.define_table("t", vec![0]);
        for src in [
            "t[3] = 1;",
            "t[0] = true;",
            "t[true] = 1;",
            "u[0] = 1;",
            "x = 1 / 0;",
        ] {
            let a = Action::parse(src).unwrap();
            let map = SlotMap::from_names(["x".to_string()], ["t".to_string(), "u".to_string()]);
            let prog = ActionProgram::compile(&a, &map).unwrap();
            let mut slots = EnvSlots::new();
            slots.load(&map, &env);
            let mut scratch = Scratch::new();
            let got = prog.apply_pure(&mut slots, &map, &mut scratch);
            let mut expect = env.clone();
            let want = a.apply_pure(&mut expect);
            assert_eq!(got, want, "error mismatch for `{src}`");
            assert_eq!(slots.to_env(&map), expect, "env mismatch for `{src}`");
        }
    }

    #[test]
    fn apply_logged_reports_writes_in_order() {
        let mut env = Env::new();
        env.set_var("x", Value::Int(0));
        env.define_table("t", vec![0, 0]);
        let a = Action::parse("x = 7; t[1] = 9; x = x + 1;").unwrap();
        let map = SlotMap::from_names(["x".to_string()], ["t".to_string()]);
        let prog = ActionProgram::compile(&a, &map).unwrap();
        let mut slots = EnvSlots::new();
        slots.load(&map, &env);
        let mut scratch = Scratch::new();
        let mut log = Vec::new();
        let mut rng = CyclingRandomness::new();
        prog.apply_logged(&mut slots, &map, &mut scratch, &mut rng, &mut log)
            .unwrap();
        let x = map.var_slot("x").unwrap();
        assert_eq!(log, vec![(x, Value::Int(7)), (x, Value::Int(8))]);
        let t = map.table_slot("t").unwrap();
        assert_eq!(
            slots.table(t),
            Some(&[0, 9][..]),
            "table writes apply unlogged"
        );
    }

    #[test]
    fn slots_roundtrip_env_bit_identically() {
        let mut env = Env::new();
        env.set_var("b", Value::Bool(true));
        env.set_var("a", Value::Int(-3));
        env.define_table("zz", vec![1, 2]);
        env.define_table("aa", vec![]);
        let map = map_for(&env, &["unbound"]);
        let mut slots = EnvSlots::new();
        slots.load(&map, &env);
        assert_eq!(slots.to_env(&map), env);
        // Reload after mutation reuses buffers and stays identical.
        let mut env2 = env.clone();
        env2.set_var("a", Value::Int(9));
        slots.load(&map, &env2);
        assert_eq!(slots.to_env(&map), env2);
        let mut copy = EnvSlots::new();
        copy.copy_from(&slots);
        assert_eq!(copy.to_env(&map), env2);
    }

    #[test]
    fn compiled_net_indexes_by_transition() {
        let mut b = Net::builder("n");
        b.places_empty(["a", "b", "c"]);
        b.var("x", 0);
        b.transition("t")
            .input("c")
            .input_weighted("a", 2)
            .output_weighted("a", 2)
            .output("b")
            .predicate_str("x < 3")
            .unwrap()
            .action_str("x = x + 1;")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        let compiled = CompiledNet::compile(&net).unwrap();
        assert_eq!(compiled.transitions.len(), 1);
        let ct = &compiled.transitions[0];
        assert!(ct.predicate.is_some());
        assert!(ct.action.is_some());
        assert_eq!(
            (&ct.firing, &ct.enabling),
            (&Ticks::Fixed(0), &Ticks::Fixed(0))
        );
        // Movements keep the arc order; the atomic one merges per place
        // and drops the zero-sum self-loop on `a`.
        assert_eq!(ct.start, [(2, -1), (0, -2)]);
        assert_eq!(ct.end, [(0, 2), (1, 1)]);
        assert_eq!(ct.atomic, [(2, -1), (1, 1)]);
        assert!(ct.ready(&[2, 0, 1], || unreachable!("uncapped: never counted")));
        assert!(!ct.ready(&[1, 0, 1], || unreachable!("uncapped: never counted")));
    }

    #[test]
    fn readiness_predicate_and_clock_gate_a_transition() {
        let mut b = Net::builder("n");
        b.place("p", 1);
        b.place("stop", 0);
        b.var("go", 0);
        b.transition("t")
            .input("p")
            .inhibitor("stop")
            .max_concurrent(1)
            .enabling(2)
            .predicate_str("go == 1")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        let compiled = CompiledNet::compile(&net).unwrap();
        let (ct, map) = (&compiled.transitions[0], &compiled.map);
        assert!(ct.ready(&[1, 0], || 0));
        assert!(!ct.ready(&[0, 0], || 0), "input uncovered");
        assert!(!ct.ready(&[1, 1], || 0), "inhibited");
        assert!(!ct.ready(&[1, 0], || 1), "at its cap");

        let mut env = net.initial_env().clone();
        let (mut slots, mut scratch) = (EnvSlots::new(), Scratch::new());
        slots.load(map, &env);
        assert_eq!(ct.predicate_holds(&slots, map, &mut scratch), Ok(false));
        env.set_var("go", Value::Int(1));
        slots.load(map, &env);
        assert_eq!(ct.predicate_holds(&slots, map, &mut scratch), Ok(true));

        let mut clock = |ready, running: Option<u64>| {
            ct.clock(ready, || running, &slots, map, &mut scratch, None)
        };
        assert_eq!(clock(false, Some(1)), Ok(Clock::Off));
        assert_eq!(clock(true, Some(1)), Ok(Clock::Keep(1)));
        assert_eq!(clock(true, None), Ok(Clock::Arm(2)));
    }

    #[test]
    fn ticks_resolve_constants_and_expressions() {
        let map = SlotMap::from_names(["x".to_string()], []);
        let mut env = Env::new();
        env.set_var("x", Value::Int(3));
        let (mut slots, mut scratch) = (EnvSlots::new(), Scratch::new());
        slots.load(&map, &env);
        let expr =
            |src: &str| Ticks::Expr(Program::compile(&Expr::parse(src).unwrap(), &map).unwrap());
        let mut resolve = |ticks: Ticks, rng: Option<&mut dyn Randomness>| {
            ticks.resolve(&slots, &map, &mut scratch, rng)
        };
        assert!(Ticks::Fixed(0).is_zero_constant() && !expr("0 * x").is_zero_constant());
        assert_eq!(resolve(Ticks::Fixed(5), None), Ok(5));
        assert_eq!(resolve(expr("2 * x"), None), Ok(6));
        assert_eq!(resolve(expr("0 - 1"), None), Err(EvalError::Overflow));
        let mut rng = CyclingRandomness::new();
        assert_eq!(resolve(expr("irand(4, 4)"), Some(&mut rng)), Ok(4));
        assert_eq!(
            resolve(expr("irand(4, 4)"), None),
            Err(EvalError::RandomnessUnavailable)
        );
    }

    #[test]
    fn missing_slot_is_reported_with_transition_name() {
        let e = Expr::parse("ghost + 1").unwrap();
        let map = SlotMap::from_names([], []);
        assert_eq!(
            Program::compile(&e, &map),
            Err(LowerError::MissingSlot {
                name: "ghost".to_string()
            })
        );
    }
}
