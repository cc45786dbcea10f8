//! Differential battery for the compiled trace query engine.
//!
//! `pnut_tracer::query` binds every name against the trace header
//! before it reads a state, evaluates over a table of only the counts
//! the query names, and answers an `inev` whose target and guard read
//! only `C` with one backward pass. The frozen tree-walking evaluator in
//! `pnut_bench::legacy_query` is its oracle: on every query whose names
//! all bind and whose arithmetic cannot overflow, the two must return
//! the same verdict, witness and error. Two batteries pin that:
//!
//! 1. the paper's §4.4 example queries on `interpreted.pn` and
//!    three_stage traces;
//! 2. a seeded random-query generator over `random_net` traces and
//!    `interpreted.pn` seeds 1–4, covering every operator, both `inev`
//!    evaluation paths and variables that shadow each other (`C`
//!    included), with a guard that each was seen both holding and
//!    failing.

use pnut::core::{Net, Time};
use pnut::sim::{SimOptions, Simulator};
use pnut::trace::{RecordedTrace, Recorder};
use pnut::tracer::query::{Query, QueryError};
use pnut_bench::legacy_query;
use pnut_bench::workloads::random_net;
use std::collections::{BTreeMap, BTreeSet};

/// A checked-in model from `models/`.
fn model(name: &str) -> Net {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("models")
        .join(format!("{name}.pn"));
    let text = std::fs::read_to_string(path).expect("model file exists");
    pnut::lang::parse(&text).expect("parses")
}

fn simulate(net: &Net, seed: u64, until: u64) -> RecordedTrace {
    pnut::sim::simulate(net, seed, Time::from_ticks(until)).expect("runs")
}

/// The §4.4 examples: the paper's three queries and their variants in
/// the `query` module docs, `tests/paper_pipeline.rs`,
/// `examples/verify_timing.rs` and `examples/protocol_timeout.rs`. The
/// protocol's names are unknown on the pipeline models, which both
/// evaluators must report the same way.
const PAPER_QUERIES: &[&str] = &[
    "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]",
    "exists s in (S - {#0}) [ Empty_I_buffers(s) = 6 ]",
    "exists s in S [ Empty_I_buffers(s) > 0 ]",
    "exists s in S [ exec_type_5(s) > 0 ]",
    "forall s in {s' in S | Bus_busy(s')} [ inev(s, Bus_free(C), true) ]",
    "forall s in {s' in S | Bus_free(s')} [ inev(s, false, Bus_busy(C)) ]",
    "forall s in {s' in S | Bus_busy(s')} [ inev(s, Bus_free(C) > Bus_free(s), true) or true ]",
    "forall s in {s' in S | Bus_busy(s')} [ Bus_free(s) = 0 ]",
    "forall s in S [ 2 * Bus_busy(s) + 2 * Bus_free(s) = 1 + 1 ]",
    "forall s in S [ not (Bus_busy(s) = 1 and Bus_free(s) = 1) ]",
    "exists s in S [ inev(s, Executed(C) > 1000000, true) ]",
    "exists s in (S - {#999999}) [ Bus_free(s) = 1 ]",
    "forall s in S [ ready_to_send(s) + awaiting_ack(s) <= 1 ]",
    "forall s in {s' in S | awaiting_ack(s')} [ inev(s, ready_to_send(C), true) ]",
    "exists s in S [ delivered_count(s) > 10 ]",
    "exists s in S [ retransmit_count(s) > 0 ]",
];

#[test]
fn paper_queries_match_the_frozen_evaluator() {
    let mut traces = Vec::new();
    for seed in 1..=4 {
        traces.push((
            format!("interpreted seed {seed}"),
            simulate(&model("interpreted"), seed, 250),
        ));
    }
    for seed in 1..=2 {
        traces.push((
            format!("three_stage seed {seed}"),
            simulate(&model("three_stage"), seed, 500),
        ));
    }
    let mut verdicts = [0; 2];
    for (name, trace) in &traces {
        for text in PAPER_QUERIES {
            let got = Query::parse(text).expect("parses").check(trace);
            let want = legacy_query::Query::parse(text)
                .expect("parses")
                .check(trace);
            assert_eq!(got, want, "{name}: `{text}`");
            if let Ok(o) = got {
                verdicts[usize::from(o.holds)] += 1;
            }
        }
    }
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "the examples must both hold and fail somewhere: {verdicts:?}"
    );
}

// ---------------------------------------------------------------------------
// Random queries
// ---------------------------------------------------------------------------

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Variable names the generator binds; they collide on purpose, and
/// `C` collides with the variable `inev` binds.
const VARS: &[&str] = &["s", "x", "C", "s'"];

const CMPS: &[(&str, &str)] = &[
    ("=", "eq"),
    ("!=", "ne"),
    ("<", "lt"),
    ("<=", "le"),
    (">", "gt"),
    (">=", "ge"),
];

/// Every feature the anti-vacuity guard requires with both verdicts.
const FEATURES: &[&str] = &[
    "forall",
    "exists",
    "minus",
    "comprehension",
    "nested comprehension",
    "and",
    "or",
    "not",
    "true",
    "false",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "bare",
    "add",
    "sub",
    "mul",
    "inev pass",
    "inev walk",
    "shadowed C",
];

/// Generates query text over one trace's names, recording which
/// features each query uses and whether it can bind or overflow.
struct Gen<'a> {
    rng: Rng,
    names: &'a [String],
    states: usize,
    max_count: i128,
    /// How deep `inev`s may nest (the frozen evaluator walks forward
    /// from every state, so nesting costs it a factor of the trace).
    inev_depth: usize,
    features: BTreeSet<&'static str>,
    comprehensions: usize,
    /// Uses a name no trace has or a variable out of scope.
    unbindable: bool,
    /// Arithmetic whose magnitude bound leaves `i64`.
    may_overflow: bool,
    out_of_range: bool,
}

/// No slot (the term or formula reads no state variable).
const NONE: usize = usize::MAX;

impl Gen<'_> {
    fn query(&mut self) -> String {
        self.features.clear();
        self.comprehensions = 0;
        self.unbindable = false;
        self.may_overflow = false;
        self.out_of_range = false;
        let quantifier = if self.rng.chance(50) {
            "forall"
        } else {
            "exists"
        };
        self.features.insert(quantifier);
        let var = *self.rng.pick(VARS);
        let set = self.set(2);
        let (body, _) = self.formula(&mut vec![var], 3, 0);
        format!("{quantifier} {var} in {set} [ {body} ]")
    }

    fn set(&mut self, depth: usize) -> String {
        match if depth == 0 { 0 } else { self.rng.below(10) } {
            0..=4 => "S".into(),
            5..=6 => {
                self.features.insert("minus");
                let of = self.set(depth - 1);
                let mut removed = Vec::new();
                for _ in 0..=self.rng.below(2) {
                    let k = if self.rng.chance(8) {
                        self.out_of_range = true;
                        self.states + self.rng.below(3)
                    } else {
                        self.rng.below(self.states)
                    };
                    removed.push(format!("#{k}"));
                }
                format!("({of} - {{{}}})", removed.join(", "))
            }
            _ => {
                self.features.insert("comprehension");
                let before = self.comprehensions;
                let var = *self.rng.pick(VARS);
                let of = self.set(depth - 1);
                if self.comprehensions > before {
                    self.features.insert("nested comprehension");
                }
                self.comprehensions += 1;
                let (pred, _) = self.formula(&mut vec![var], 2, 0);
                format!("{{{var} in {of} | {pred}}}")
            }
        }
    }

    /// A variable to count in: usually one in scope, innermost first.
    fn var(&mut self, scope: &[&str]) -> (&'static str, usize) {
        if self.rng.chance(3) {
            self.unbindable = true;
            return ("zz", NONE);
        }
        let var = if self.rng.chance(50) {
            scope[scope.len() - 1]
        } else {
            *self.rng.pick(scope)
        };
        let var = VARS.iter().find(|&&v| v == var).expect("scope holds VARS");
        let slot = scope.iter().rposition(|v| v == var).expect("in scope");
        (var, slot)
    }

    /// `(text, shallowest slot read, magnitude bound)`.
    fn term(&mut self, scope: &[&str], depth: usize) -> (String, usize, i128) {
        if depth > 0 && self.rng.chance(35) {
            let (a, sa, ba) = self.term(scope, depth - 1);
            let (b, sb, bb) = self.term(scope, depth - 1);
            let (op, feature, bound) = match self.rng.below(3) {
                0 => ("+", "add", ba + bb),
                1 => ("-", "sub", ba + bb),
                _ => ("*", "mul", ba.saturating_mul(bb)),
            };
            self.features.insert(feature);
            if bound > i128::from(i64::MAX) {
                self.may_overflow = true;
            }
            (format!("({a} {op} {b})"), sa.min(sb), bound)
        } else if self.rng.chance(40) {
            let v = self.rng.below(13);
            (v.to_string(), NONE, v as i128)
        } else {
            let name = if self.rng.chance(3) || self.names.is_empty() {
                self.unbindable = true;
                "Nonsense"
            } else {
                self.rng.pick(self.names).as_str()
            };
            let (var, slot) = self.var(scope);
            (format!("{name}({var})"), slot, self.max_count)
        }
    }

    /// `(text, shallowest slot read)`; `inevs` is how many `inev`s
    /// enclose this formula.
    fn formula(&mut self, scope: &mut Vec<&str>, depth: usize, inevs: usize) -> (String, usize) {
        let pick = if depth == 0 { 0 } else { self.rng.below(10) };
        match pick {
            4 => {
                self.features.insert("and");
                let (a, sa) = self.formula(scope, depth - 1, inevs);
                let (b, sb) = self.formula(scope, depth - 1, inevs);
                (format!("({a} and {b})"), sa.min(sb))
            }
            5 => {
                self.features.insert("or");
                let (a, sa) = self.formula(scope, depth - 1, inevs);
                let (b, sb) = self.formula(scope, depth - 1, inevs);
                (format!("({a} or {b})"), sa.min(sb))
            }
            6 => {
                self.features.insert("not");
                let (a, sa) = self.formula(scope, depth - 1, inevs);
                (format!("not ({a})"), sa)
            }
            7 | 8 if inevs < self.inev_depth => {
                let (from, from_slot) = self.var(scope);
                if scope.contains(&"C") {
                    self.features.insert("shadowed C");
                }
                let c = scope.len();
                scope.push("C");
                let (target, st) = self.formula(scope, depth - 1, inevs + 1);
                let (guard, sg) = self.formula(scope, depth - 1, inevs + 1);
                scope.pop();
                let inner = st.min(sg);
                self.features
                    .insert(if inner >= c { "inev pass" } else { "inev walk" });
                (
                    format!("inev({from}, {target}, {guard})"),
                    from_slot.min(inner),
                )
            }
            _ => self.leaf(scope),
        }
    }

    fn leaf(&mut self, scope: &[&str]) -> (String, usize) {
        match self.rng.below(20) {
            0 | 1 => {
                self.features.insert("true");
                ("true".into(), NONE)
            }
            2 | 3 => {
                self.features.insert("false");
                ("false".into(), NONE)
            }
            4..=6 => {
                self.features.insert("bare");
                let (term, slot, _) = self.term(scope, 0);
                (term, slot)
            }
            _ => {
                let (a, sa, _) = self.term(scope, 2);
                let &(op, feature) = self.rng.pick(CMPS);
                self.features.insert(feature);
                let (b, sb, _) = self.term(scope, 2);
                (format!("{a} {op} {b}"), sa.min(sb))
            }
        }
    }
}

/// What the random battery saw, summed over traces.
#[derive(Default)]
struct Tally {
    /// Per feature: compared queries that failed and that held.
    verdicts: BTreeMap<&'static str, [usize; 2]>,
    compared: usize,
    out_of_range: usize,
    unknown_name: usize,
    unbound_variable: usize,
    skipped_overflow: usize,
}

fn battery(name: &str, trace: &RecordedTrace, seed: u64, queries: usize, tally: &mut Tally) {
    let header = trace.header();
    let names: Vec<String> = header
        .place_names
        .iter()
        .chain(&header.transition_names)
        .cloned()
        .collect();
    let mut max_count = 0;
    let mut states = 0;
    for s in trace.states() {
        let tokens = s.marking.as_slice().iter().chain(&s.firing_counts);
        max_count = max_count.max(tokens.copied().max().unwrap_or(0));
        states += 1;
    }
    let mut gen = Gen {
        rng: Rng(seed),
        names: &names,
        states,
        max_count: i128::from(max_count),
        inev_depth: if states <= 120 { 2 } else { 1 },
        features: BTreeSet::new(),
        comprehensions: 0,
        unbindable: false,
        may_overflow: false,
        out_of_range: false,
    };
    for _ in 0..queries {
        let text = gen.query();
        let got = Query::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: generated `{text}` does not parse: {e}"))
            .check(trace);
        if gen.unbindable {
            match got {
                Err(QueryError::UnknownName(_)) => tally.unknown_name += 1,
                Err(QueryError::UnboundStateVariable(_)) => tally.unbound_variable += 1,
                other => panic!("{name}: `{text}` must fail to bind, got {other:?}"),
            }
            continue;
        }
        if gen.may_overflow {
            tally.skipped_overflow += 1;
            continue;
        }
        let want = legacy_query::Query::parse(&text)
            .expect("parses")
            .check(trace);
        assert_eq!(got, want, "{name}: `{text}`");
        tally.compared += 1;
        match got {
            Ok(o) => {
                for f in &gen.features {
                    tally.verdicts.entry(f).or_default()[usize::from(o.holds)] += 1;
                }
            }
            Err(QueryError::StateOutOfRange(_)) => {
                assert!(gen.out_of_range, "{name}: `{text}`");
                tally.out_of_range += 1;
            }
            Err(e) => panic!("{name}: `{text}` failed with {e}"),
        }
    }
}

#[test]
fn random_queries_match_the_frozen_evaluator() {
    let mut tally = Tally::default();
    for seed in 1..=4 {
        let trace = simulate(&model("interpreted"), seed, 250);
        battery(
            &format!("interpreted seed {seed}"),
            &trace,
            seed,
            150,
            &mut tally,
        );
    }
    // A low livelock cap keeps the zero-delay-cycle nets, which are
    // skipped, cheap to reject.
    let options = SimOptions {
        max_firings_per_instant: 10_000,
    };
    let mut traced = 0;
    for seed in 0..40 {
        let net = random_net(seed);
        let mut sim = Simulator::with_options(&net, seed, options).expect("constructs");
        let mut rec = Recorder::new();
        if sim.run(Time::from_ticks(100), &mut rec).is_err() {
            continue;
        }
        let trace = rec.into_trace().expect("complete");
        traced += 1;
        battery(
            &format!("random_net({seed})"),
            &trace,
            1_000 + seed,
            60,
            &mut tally,
        );
    }
    assert!(traced >= 30, "only {traced} of 40 random nets simulated");

    let missing: Vec<String> = FEATURES
        .iter()
        .filter_map(|f| {
            let seen = tally.verdicts.get(f).copied().unwrap_or_default();
            (seen[0] == 0 || seen[1] == 0).then(|| format!("{f} {seen:?}"))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "features not seen both failing and holding: {missing:?}"
    );
    assert!(
        tally.compared >= 1_500,
        "only {} queries compared",
        tally.compared
    );
    assert!(tally.out_of_range > 0, "no `#k` beyond the trace compared");
    assert!(
        tally.unknown_name > 0 && tally.unbound_variable > 0,
        "both bind errors must occur: {} unknown names, {} unbound variables",
        tally.unknown_name,
        tally.unbound_variable
    );
    assert!(
        tally.skipped_overflow * 20 < tally.compared,
        "{} queries skipped as possible overflows",
        tally.skipped_overflow
    );
}

// ---------------------------------------------------------------------------
// Parser differential
// ---------------------------------------------------------------------------

/// Every piece of text either the query or the CTL language lexes:
/// keywords and names of both, state numbers, integers (one past
/// `i64`), every operator and bracket, `->`, `'`, a lone `!`, and bytes
/// neither language lexes.
#[rustfmt::skip]
const PIECES: &[&str] = &[
    "forall", "exists", "FORALL", "Exists", "in", "S", "inev", "and", "or", "not", "true",
    "false", "C", "s", "x", "s'", "x''", "Bus_busy", "Bus_free", "_t1", "E", "A", "U", "AG",
    "#0", "#3", "#", "0", "7", "42", "9223372036854775807", "9223372036854775808",
    "(", ")", "[", "]", "{", "}", ",", "|", "+", "-", "*", "=", "==", "!=", "!", "<", "<=",
    ">", ">=", "->", "'", " ", "\t", "\n", "$", ".", "é",
];

const NAMES: &[&str] = &["Bus_busy", "Bus_free", "Executed", "S", "in", "or", "C"];

fn push(out: &mut Vec<String>, pieces: &[&str]) {
    out.extend(pieces.iter().map(|p| p.to_string()));
}

/// The pieces of a query the grammar accepts.
fn valid_query(rng: &mut Rng) -> Vec<String> {
    let mut out = Vec::new();
    let quantifier = *rng.pick(&["forall", "exists", "FORALL", "Exists"]);
    push(&mut out, &[quantifier, *rng.pick(VARS), "in"]);
    valid_set(rng, 2, &mut out);
    push(&mut out, &["["]);
    valid_formula(rng, 3, &mut out);
    push(&mut out, &["]"]);
    out
}

fn valid_set(rng: &mut Rng, depth: usize, out: &mut Vec<String>) {
    match if depth == 0 { 0 } else { rng.below(3) } {
        0 => push(out, &["S"]),
        1 => {
            push(out, &["("]);
            valid_set(rng, depth - 1, out);
            push(out, &["-", "{"]);
            for i in 0..=rng.below(2) {
                if i > 0 {
                    push(out, &[","]);
                }
                out.push(format!("#{}", rng.below(20)));
            }
            push(out, &["}", ")"]);
        }
        _ => {
            push(out, &["{", *rng.pick(VARS), "in"]);
            valid_set(rng, depth - 1, out);
            push(out, &["|"]);
            valid_formula(rng, depth - 1, out);
            push(out, &["}"]);
        }
    }
}

fn valid_formula(rng: &mut Rng, depth: usize, out: &mut Vec<String>) {
    match if depth == 0 {
        5 + rng.below(4)
    } else {
        rng.below(9)
    } {
        0 | 1 => {
            valid_formula(rng, depth - 1, out);
            push(out, &[if rng.chance(50) { "and" } else { "or" }]);
            valid_formula(rng, depth - 1, out);
        }
        2 => {
            push(out, &["not"]);
            if rng.chance(50) {
                valid_term(rng, 0, out);
            } else {
                push(out, &["("]);
                valid_formula(rng, depth - 1, out);
                push(out, &[")"]);
            }
        }
        3 => {
            push(out, &["("]);
            valid_formula(rng, depth - 1, out);
            push(out, &[")"]);
        }
        4 => {
            push(out, &["inev", "(", *rng.pick(VARS), ","]);
            valid_formula(rng, depth - 1, out);
            push(out, &[","]);
            valid_formula(rng, depth - 1, out);
            push(out, &[")"]);
        }
        5 => push(out, &[if rng.chance(50) { "true" } else { "false" }]),
        6 | 7 => {
            valid_term(rng, 2, out);
            push(out, &[*rng.pick(&["=", "==", "!=", "<", "<=", ">", ">="])]);
            valid_term(rng, 2, out);
        }
        _ => valid_term(rng, 1, out),
    }
}

fn valid_term(rng: &mut Rng, depth: usize, out: &mut Vec<String>) {
    match if depth == 0 {
        rng.below(2)
    } else {
        rng.below(4)
    } {
        0 => out.push(rng.below(100).to_string()),
        1 => push(out, &[*rng.pick(NAMES), "(", *rng.pick(VARS), ")"]),
        2 => {
            push(out, &["("]);
            valid_term(rng, depth - 1, out);
            push(out, &[")"]);
        }
        _ => {
            valid_term(rng, depth - 1, out);
            push(out, &[*rng.pick(&["+", "-", "*"])]);
            valid_term(rng, depth - 1, out);
        }
    }
}

/// Joins pieces with random whitespace, always separating two pieces
/// that would otherwise lex as one word.
fn join(rng: &mut Rng, pieces: &[String]) -> String {
    let word = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || "_'#".contains(c));
    let mut text = String::new();
    for piece in pieces {
        let glued = word(text.chars().last()) && word(piece.chars().next());
        if !text.is_empty() && (glued || rng.chance(50)) {
            let gap = *rng.pick(&[" ", " ", "\t", "\n"]);
            text.push_str(gap);
        }
        text.push_str(piece);
    }
    text
}

/// Inserts, deletes or replaces a few pieces at random character
/// boundaries.
fn mutate(rng: &mut Rng, mut text: String) -> String {
    for _ in 0..=rng.below(3) {
        let bounds: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .collect();
        let k = rng.below(bounds.len());
        let end = bounds[(k + rng.below(4)).min(bounds.len() - 1)];
        let piece = if rng.chance(30) {
            ""
        } else {
            *rng.pick(PIECES)
        };
        let keep = if rng.chance(50) { bounds[k] } else { end };
        text.replace_range(bounds[k]..keep, piece);
    }
    text
}

fn parse_position(e: QueryError) -> (usize, String) {
    match e {
        QueryError::Parse { message, position } => (position, message),
        other => panic!("parsing returned {other:?}"),
    }
}

#[test]
fn random_strings_parse_as_the_frozen_parser_does() {
    let mut rng = Rng(23);
    let (mut accepted, mut rejected, mut arrows, mut lexed_out) = (0, 0, 0, 0);
    for i in 0..12_000 {
        let text = match i % 4 {
            0 => {
                let pieces = valid_query(&mut rng);
                join(&mut rng, &pieces)
            }
            1 | 2 => {
                let pieces = valid_query(&mut rng);
                let text = join(&mut rng, &pieces);
                mutate(&mut rng, text)
            }
            _ => {
                let pieces: Vec<String> = (0..=rng.below(14))
                    .map(|_| rng.pick(PIECES).to_string())
                    .collect();
                join(&mut rng, &pieces)
            }
        };
        match (Query::parse(&text), legacy_query::Query::parse(&text)) {
            (Ok(_), Ok(_)) => accepted += 1,
            (Err(got), Err(want)) => {
                rejected += 1;
                let (got, _) = parse_position(got);
                let (want, message) = parse_position(want);
                if text.contains("->") {
                    arrows += 1;
                } else {
                    assert_eq!(got, want, "`{text}` fails at another byte");
                }
                if message.starts_with("unexpected character") {
                    lexed_out += 1;
                }
            }
            (got, want) => panic!("`{text}`: {got:?} against the frozen {want:?}"),
        }
    }
    assert!(
        accepted >= 3_000 && rejected >= 4_000 && arrows >= 100 && lexed_out >= 100,
        "{accepted} accepted, {rejected} rejected ({arrows} with `->`, \
         {lexed_out} at a byte no language lexes)"
    );
}
