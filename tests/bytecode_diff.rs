//! Differential battery for the bytecode compiler.
//!
//! The compiled evaluator in `pnut_core::expr::compile` replaced the
//! tree-walking interpreter on every hot path, so its contract is
//! *bit-identical observable behaviour*: same values, same
//! [`EvalError`]s (variant **and** payload), same randomness draw
//! order. These tests pin that contract three ways:
//!
//! 1. per-expression and per-action parity over a corpus covering the
//!    full grammar and every error variant, and over seeded random
//!    expressions, which must also print and parse back to a fixpoint;
//! 2. graph-level equality on the paper models across the whole
//!    `jobs × mem_budget` grid;
//! 3. a 40-net seeded [`random_net`] sweep, untimed and timed, against
//!    the frozen AST-walking seed construction where it applies.

use pnut::core::expr::compile::{ActionProgram, EnvSlots, Program, Scratch, SlotMap};
use pnut::core::expr::{Action, BinOp, Env, EvalError, Expr, Func, UnaryOp, Value};
use pnut::core::CyclingRandomness;
use pnut::reach::graph::{
    build_timed, build_untimed, EdgeLabel, ReachError, ReachOptions, ReachabilityGraph,
};
use pnut_bench::legacy_reach::{self, LegacyGraph};
use pnut_bench::workloads::random_net;
use pnut_pipeline::{interpreted, sequential, three_stage, ThreeStageConfig};

// ---------------------------------------------------------------------------
// Expression parity
// ---------------------------------------------------------------------------

/// One slot map for the whole corpus: names deliberately include
/// `missing`/`nosuch`, which no environment binds, so unknown-name
/// failures surface at *runtime* (the interpreter's behaviour), not at
/// lowering time.
fn corpus_map() -> SlotMap {
    SlotMap::from_names(
        ["b", "big", "missing", "x", "y"].map(String::from),
        ["nosuch", "t", "u"].map(String::from),
    )
}

fn corpus_envs() -> Vec<Env> {
    let mut e1 = Env::new();
    e1.set_var("x", Value::Int(3));
    e1.set_var("y", Value::Int(2));
    e1.set_var("b", Value::Bool(true));
    e1.set_var("big", Value::Int(i64::MAX));
    e1.define_table("t", vec![10, 20, 30]);
    e1.define_table("u", vec![]);

    let mut e2 = Env::new();
    e2.set_var("x", Value::Int(0));
    e2.set_var("y", Value::Int(-7));
    e2.set_var("b", Value::Bool(false));
    e2.define_table("t", vec![5]);

    vec![e1, e2, Env::new()]
}

/// Every production of the grammar, plus one expression per
/// [`EvalError`] variant. Which error (if any) fires depends on the
/// environment — the point is that *whatever* happens, it happens
/// identically on both evaluators.
const EXPR_CORPUS: &[&str] = &[
    // Plain values and arithmetic.
    "1 + 2 * 3 - 4",
    "x + y",
    "x * y % (y + 10)",
    "x / (y + 8)",
    "-x",
    "-(0 - big)",
    // Comparisons and equality (including cross-type equality).
    "x < y",
    "x <= 3",
    "y > 0",
    "y >= -7",
    "x == y",
    "x != y",
    "b == (x == 0)",
    "x == (x == x)",
    // Short-circuit logic: the untaken side may contain errors.
    "b && x < 3",
    "b || x / 0 == 1",
    "!b || b",
    "!b && missing == 1",
    "false && 1 / 0 == 0",
    "true || nosuch[0] == 0",
    // Conditionals, both arms reachable across the corpus envs.
    "b ? x : y",
    "x < y ? t[0] : x + 1",
    // Calls.
    "min(x, y)",
    "max(x, y * 2)",
    "abs(y)",
    "abs(0 - x)",
    "min(abs(y), max(x, 1))",
    // Indexing.
    "t[0]",
    "t[x - 2]",
    "t[x] + t[y + 8]",
    // Error cases: division, overflow, type mismatches, unknown names,
    // bounds, empty random ranges.
    "x / 0",
    "x % 0",
    "y / 0 + 1",
    "big + 1",
    "0 - big - 2",
    "big * 2",
    "-(0 - 9223372036854775807 - 1)",
    "b + 1",
    "!x",
    "-b",
    "x && b",
    "b ? 1 : x ? 2 : 3",
    "missing + 1",
    "nosuch[0]",
    "t[99]",
    "t[0 - 1]",
    "u[0]",
    "irand(5, 1)",
    "irand(x, 100)",
    "irand(b, 1)",
    "min(b, missing)",
    "max(missing, b)",
];

#[test]
fn expression_corpus_matches_interpreter_pure() {
    let map = corpus_map();
    let mut slots = EnvSlots::new();
    let mut vm = Scratch::new();
    for env in corpus_envs() {
        slots.load(&map, &env);
        for src in EXPR_CORPUS {
            let e = Expr::parse(src).expect("corpus parses");
            let p = Program::compile(&e, &map).expect("corpus lowers");
            assert_eq!(
                e.eval_pure(&env),
                p.eval_pure(&slots, &map, &mut vm),
                "pure evaluation of `{src}` diverged on {env:?}"
            );
        }
    }
}

#[test]
fn expression_corpus_matches_interpreter_with_rng() {
    let map = corpus_map();
    let mut slots = EnvSlots::new();
    let mut vm = Scratch::new();
    for env in corpus_envs() {
        slots.load(&map, &env);
        for src in EXPR_CORPUS {
            let e = Expr::parse(src).expect("corpus parses");
            let p = Program::compile(&e, &map).expect("corpus lowers");
            // Independent deterministic sources: equal results *and*
            // equal post-run counters prove the draw order matches.
            let mut ri = CyclingRandomness::new();
            let mut rc = CyclingRandomness::new();
            assert_eq!(
                e.eval(&env, &mut ri),
                p.eval(&slots, &map, &mut vm, &mut rc),
                "evaluation of `{src}` diverged on {env:?}"
            );
            assert_eq!(ri, rc, "rng draw count diverged on `{src}`");
        }
    }
}

#[test]
fn every_eval_error_variant_is_exercised_by_the_corpus() {
    // Guard against corpus rot: if the expression language grows a new
    // failure mode, the corpus must grow with it.
    let map = corpus_map();
    let mut slots = EnvSlots::new();
    let mut vm = Scratch::new();
    let mut seen = std::collections::HashSet::new();
    for env in corpus_envs() {
        slots.load(&map, &env);
        for src in EXPR_CORPUS {
            let e = Expr::parse(src).expect("corpus parses");
            let p = Program::compile(&e, &map).expect("corpus lowers");
            if let Err(err) = p.eval_pure(&slots, &map, &mut vm) {
                seen.insert(std::mem::discriminant(&err));
                // And one with randomness available, so the pure-only
                // RandomnessUnavailable is not the sole irand outcome.
                let mut rng = CyclingRandomness::new();
                if let Err(err) = p.eval(&slots, &map, &mut vm, &mut rng) {
                    seen.insert(std::mem::discriminant(&err));
                }
            }
        }
    }
    let all = [
        EvalError::UnknownVariable(String::new()),
        EvalError::UnknownTable(String::new()),
        EvalError::IndexOutOfBounds {
            table: String::new(),
            index: 0,
            len: 0,
        },
        EvalError::TypeMismatch {
            expected: "",
            found: "",
        },
        EvalError::DivisionByZero,
        EvalError::Overflow,
        EvalError::EmptyRandomRange { lo: 0, hi: 0 },
        EvalError::RandomnessUnavailable,
    ];
    for variant in &all {
        assert!(
            seen.contains(&std::mem::discriminant(variant)),
            "corpus never produces {variant:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Seeded random expressions
// ---------------------------------------------------------------------------

/// Expressions generated from a seed (SplitMix64): literals, variables,
/// every operator, indexing, the four calls and conditionals, nested
/// up to depth 4. Names are `[a-z][a-z0-9_]{0,6}`, usually one of
/// `a`..`e` so they meet the environment's names. Every name drawn is
/// recorded, so a slot map can cover all of them.
struct ExprGen {
    state: u64,
    vars: std::collections::BTreeSet<String>,
    tables: std::collections::BTreeSet<String>,
}

impl ExprGen {
    fn new(seed: u64) -> Self {
        ExprGen {
            state: seed,
            vars: Default::default(),
            tables: Default::default(),
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    fn name(&mut self) -> String {
        const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        if self.below(4) > 0 {
            return char::from(b'a' + self.below(5) as u8).to_string();
        }
        loop {
            let mut name = char::from(b'a' + self.below(26) as u8).to_string();
            for _ in 0..self.below(7) {
                name.push(char::from(TAIL[self.below(TAIL.len() as u64) as usize]));
            }
            if name != "true" && name != "false" {
                return name;
            }
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        const OPS: [BinOp; 13] = [
            BinOp::Or,
            BinOp::And,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
        ];
        if depth == 0 || self.below(3) == 0 {
            return match self.below(3) {
                0 => Expr::Int(self.int(-100, 100)),
                1 => Expr::Bool(self.below(2) == 0),
                _ => {
                    let name = self.name();
                    self.vars.insert(name.clone());
                    Expr::Var(name)
                }
            };
        }
        let sub = |g: &mut Self| Box::new(g.expr(depth - 1));
        match self.below(9) {
            0 => Expr::Binary(OPS[self.below(13) as usize], sub(self), sub(self)),
            1 => Expr::Unary(UnaryOp::Neg, sub(self)),
            2 => Expr::Unary(UnaryOp::Not, sub(self)),
            3 => {
                let table = self.name();
                self.tables.insert(table.clone());
                Expr::Index(table, sub(self))
            }
            4 => Expr::Call(Func::Abs, vec![*sub(self)]),
            5 => Expr::If(sub(self), sub(self), sub(self)),
            k => {
                let func = [Func::Min, Func::Max, Func::Irand][k as usize - 6];
                Expr::Call(func, vec![*sub(self), *sub(self)])
            }
        }
    }

    /// An environment binding up to three of the variables `a`..`e` to
    /// values in `-8..8`, and up to two of the tables `a`..`e` to up to
    /// three such values.
    fn env(&mut self) -> Env {
        let mut env = Env::new();
        for _ in 0..self.below(4) {
            let name = char::from(b'a' + self.below(5) as u8).to_string();
            let v = self.int(-8, 8);
            self.vars.insert(name.clone());
            env.set_var(name, Value::Int(v));
        }
        for _ in 0..self.below(3) {
            let name = char::from(b'a' + self.below(5) as u8).to_string();
            let values = (0..self.below(4)).map(|_| self.int(-8, 8)).collect();
            self.tables.insert(name.clone());
            env.define_table(name, values);
        }
        env
    }
}

const RANDOM_EXPRESSIONS: u64 = 5_000;

/// Printing a parsed expression reproduces the text, so print → parse
/// → print is a fixpoint after one step (the first parse may differ
/// harmlessly from the generated tree, e.g. `-(1)` against `-1`).
#[test]
fn random_expressions_print_and_parse_to_a_fixpoint() {
    for seed in 0..RANDOM_EXPRESSIONS {
        let e = ExprGen::new(seed).expr(4);
        let once = e.to_string();
        let parsed = Expr::parse(&once).unwrap_or_else(|err| panic!("`{once}`: {err}"));
        let twice = parsed.to_string();
        assert_eq!(once, twice, "seed {seed}");
        assert_eq!(Expr::parse(&twice).as_ref(), Ok(&parsed), "seed {seed}");
    }
}

/// The compiled program agrees with the interpreter on every random
/// expression under a random environment: the same value or error,
/// pure and with randomness, and the same randomness draws.
#[test]
fn random_expressions_match_interpreter() {
    let mut vm = Scratch::new();
    let (mut values, mut errors) = (0, 0);
    for seed in 0..RANDOM_EXPRESSIONS {
        let mut gen = ExprGen::new(seed);
        let e = gen.expr(4);
        let env = gen.env();
        let map = SlotMap::from_names(gen.vars, gen.tables);
        let p = Program::compile(&e, &map).expect("every name is mapped");
        let mut slots = EnvSlots::new();
        slots.load(&map, &env);
        assert_eq!(
            e.eval_pure(&env),
            p.eval_pure(&slots, &map, &mut vm),
            "seed {seed}: `{e}` on {env:?}"
        );
        let mut ri = CyclingRandomness::new();
        let mut rc = CyclingRandomness::new();
        let got = e.eval(&env, &mut ri);
        assert_eq!(
            got,
            p.eval(&slots, &map, &mut vm, &mut rc),
            "seed {seed}: `{e}` on {env:?}"
        );
        assert_eq!(ri, rc, "seed {seed}: rng draw count diverged on `{e}`");
        if got.is_ok() {
            values += 1;
        } else {
            errors += 1;
        }
    }
    assert!(
        values > 500 && errors > 500,
        "{values} values, {errors} errors"
    );
}

// ---------------------------------------------------------------------------
// Action parity
// ---------------------------------------------------------------------------

const ACTION_CORPUS: &[&str] = &[
    "x = x + 1;",
    "x = y; y = x * 2;",
    "t[0] = t[0] + 1;",
    "t[x] = y; x = t[x];",
    "x = irand(1, 3); y = irand(0, x);",
    "x = b ? 1 : 0;",
    // Failing actions: earlier assignments must still have landed.
    "x = 1; y = missing;",
    "x = 2; t[99] = 0;",
    "x = 3; nosuch[0] = 1;",
    "x = 4; t[b] = 0;",
    "x = 5; t[0] = b;",
    "x = x / 0;",
];

#[test]
fn action_corpus_matches_interpreter_including_partial_failures() {
    let map = corpus_map();
    let mut slots = EnvSlots::new();
    let mut vm = Scratch::new();
    for env in corpus_envs() {
        for src in ACTION_CORPUS {
            let a = Action::parse(src).expect("corpus parses");
            let p = ActionProgram::compile(&a, &map).expect("corpus lowers");
            let mut env_i = env.clone();
            slots.load(&map, &env);
            let mut ri = CyclingRandomness::new();
            let mut rc = CyclingRandomness::new();
            let got_i = a.apply(&mut env_i, &mut ri);
            let got_c = p.apply(&mut slots, &map, &mut vm, &mut rc);
            assert_eq!(got_i, got_c, "action `{src}` diverged on {env:?}");
            assert_eq!(ri, rc, "rng draw count diverged on `{src}`");
            // The environment after the action — including writes that
            // landed before a failure — must round-trip identically.
            assert_eq!(
                env_i,
                slots.to_env(&map),
                "environment after `{src}` diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Graph-level parity
// ---------------------------------------------------------------------------

const TINY_BUDGET: usize = 64 * 1024;

fn grid() -> impl Iterator<Item = ReachOptions> {
    [1usize, 4].into_iter().flat_map(|jobs| {
        [usize::MAX, TINY_BUDGET]
            .into_iter()
            .map(move |mem_budget| ReachOptions {
                jobs,
                mem_budget,
                ..ReachOptions::default()
            })
    })
}

fn assert_matches_legacy(g: &ReachabilityGraph, l: &LegacyGraph, what: &str) {
    assert_eq!(g.state_count(), l.state_count(), "{what}: state counts");
    assert_eq!(g.edge_count(), l.edge_count(), "{what}: edge counts");
    for i in 0..g.state_count() {
        let a = g.state(i).expect("resident graph");
        let b = l.state(i);
        assert_eq!(
            a.marking.as_slice(),
            b.marking.as_slice(),
            "{what}: state {i}"
        );
        assert_eq!(
            g.env(i).expect("resident graph"),
            b.env,
            "{what}: env of state {i}"
        );
        assert_eq!(a.in_flight, &b.in_flight[..], "{what}: in-flight of {i}");
        let got: Vec<(EdgeLabel, usize)> = g
            .successors(i)
            .expect("resident graph")
            .iter()
            .map(|&(label, target)| (label, target as usize))
            .collect();
        assert_eq!(got, l.successors(i), "{what}: edges of state {i}");
    }
}

#[test]
fn paper_models_are_bit_identical_across_the_grid() {
    let nets = [
        three_stage::build(&ThreeStageConfig::default()).expect("builds"),
        sequential::build(&ThreeStageConfig::default()).expect("builds"),
        interpreted::build(&interpreted::InterpretedConfig {
            for_analysis: true,
            ..interpreted::InterpretedConfig::default()
        })
        .expect("builds"),
    ];
    for net in &nets {
        let untimed = build_untimed(net, &ReachOptions::default()).expect("untimed");
        let legacy = legacy_reach::build_untimed(net, &ReachOptions::default()).expect("legacy");
        assert_matches_legacy(&untimed, &legacy, net.name());
        let timed = build_timed(net, &ReachOptions::default()).expect("timed");
        for options in grid() {
            let g = build_untimed(net, &options).expect("untimed grid build");
            assert_eq!(
                g,
                untimed,
                "untimed `{}` diverged at {options:?}",
                net.name()
            );
            let g = build_timed(net, &options).expect("timed grid build");
            assert_eq!(g, timed, "timed `{}` diverged at {options:?}", net.name());
        }
    }
}

/// Build, treating a state-space overflow as a skip (random nets are
/// routinely unbounded).
fn try_build(
    build: fn(&pnut_core::Net, &ReachOptions) -> Result<ReachabilityGraph, ReachError>,
    net: &pnut_core::Net,
    options: &ReachOptions,
) -> Option<ReachabilityGraph> {
    match build(net, options) {
        Ok(g) => Some(g),
        Err(ReachError::StateLimit { .. }) => None,
        Err(e) => panic!("unexpected reachability failure on `{}`: {e}", net.name()),
    }
}

#[test]
fn random_net_sweep_is_bit_identical_and_matches_the_seed() {
    let base = ReachOptions {
        max_states: 2_000,
        ..ReachOptions::default()
    };
    let (mut untimed_built, mut timed_built) = (0, 0);
    for seed in 0..40 {
        let net = random_net(seed);
        if let Some(reference) = try_build(build_untimed, &net, &base) {
            untimed_built += 1;
            // The frozen seed construction accepts every deterministic
            // untimed net, so the whole sweep cross-checks against the
            // AST-walking implementation.
            let legacy = legacy_reach::build_untimed(&net, &base).expect("legacy untimed");
            assert_matches_legacy(&reference, &legacy, net.name());
            for options in grid() {
                let options = ReachOptions {
                    max_states: base.max_states,
                    ..options
                };
                let g = build_untimed(&net, &options).expect("within the cap");
                assert_eq!(g, reference, "untimed seed {seed} diverged at {options:?}");
            }
        }
        if let Some(reference) = try_build(build_timed, &net, &base) {
            timed_built += 1;
            // The seed's timed construction predates expression delays
            // and enabling clocks, so it only cross-checks the subset
            // it accepts.
            if let Ok(legacy) = legacy_reach::build_timed(&net, &base) {
                assert_matches_legacy(&reference, &legacy, net.name());
            }
            for options in grid() {
                let options = ReachOptions {
                    max_states: base.max_states,
                    ..options
                };
                let g = build_timed(&net, &options).expect("within the cap");
                assert_eq!(g, reference, "timed seed {seed} diverged at {options:?}");
            }
        }
    }
    // The sweep must actually sweep: if the generator drifts into
    // producing mostly-unbounded nets, these counts catch it.
    assert!(
        untimed_built >= 20,
        "only {untimed_built}/40 untimed nets built"
    );
    assert!(timed_built >= 15, "only {timed_built}/40 timed nets built");
}
