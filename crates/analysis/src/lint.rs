//! The lint passes: structural bounds, dead-net detection, expression
//! lint.

use std::collections::BTreeMap;

use pnut_core::expr::{Env, Expr, Target, Value};
use pnut_core::{analysis, invariant, Delay, Net, PlaceId};

use crate::report::{Finding, LintReport, Severity};

/// Structural place bounds derived from semi-positive P-invariants.
#[derive(Debug, Clone)]
pub struct StructuralBounds {
    /// The P-invariant basis (see [`invariant::p_invariants`]).
    pub basis: Vec<invariant::PInvariant>,
    /// The semi-positive invariants used (see
    /// [`invariant::semi_positive_p_invariants`]).
    pub invariants: Vec<invariant::PInvariant>,
    /// Conserved token sum per invariant, at the initial marking.
    pub sums: Vec<i64>,
    /// `bounds[p]`: tightest bound any invariant proves for place `p`,
    /// or `None` if no semi-positive invariant covers it.
    pub bounds: Vec<Option<i64>>,
    /// Index into `invariants` of the proving invariant, per place.
    pub proof: Vec<Option<usize>>,
}

/// Derive structural bounds for every place:
/// `bound(p) = min over covering invariants of token_sum / weight[p]`.
pub fn structural_bounds(net: &Net) -> StructuralBounds {
    let basis = invariant::p_invariants(net);
    let invariants = invariant::semi_positive_p_invariants(&basis);
    let m0 = net.initial_marking();
    let sums: Vec<i64> = invariants.iter().map(|inv| inv.token_sum(&m0)).collect();
    let mut bounds = vec![None; net.place_count()];
    let mut proof = vec![None; net.place_count()];
    for (k, inv) in invariants.iter().enumerate() {
        for (p, &w) in inv.weights.iter().enumerate() {
            if w > 0 {
                let b = sums[k] / w;
                if bounds[p].is_none_or(|prev| b < prev) {
                    bounds[p] = Some(b);
                    proof[p] = Some(k);
                }
            }
        }
    }
    StructuralBounds {
        basis,
        invariants,
        sums,
        bounds,
        proof,
    }
}

impl StructuralBounds {
    /// A provable *lower* bound on the tokens in `p`, from any covering
    /// invariant whose other support places are all bounded:
    /// `w·m(p) = sum − Σ w_q·m(q) ≥ sum − Σ w_q·bound(q)`.
    ///
    /// Valid at quiescent instants (under firing-time semantics a
    /// mid-firing dip can go below it — see `docs/STATIC_ANALYSIS.md`).
    fn lower_bound(&self, p: usize) -> Option<(i64, usize)> {
        let mut best: Option<(i64, usize)> = None;
        'inv: for (k, inv) in self.invariants.iter().enumerate() {
            let w = inv.weights[p];
            if w <= 0 {
                continue;
            }
            let mut others = 0i64;
            for (q, &wq) in inv.weights.iter().enumerate() {
                if q == p || wq == 0 {
                    continue;
                }
                match self.bounds[q] {
                    Some(b) => others += wq.saturating_mul(b),
                    None => continue 'inv,
                }
            }
            let lb = (self.sums[k] - others).div_euclid(w).max(0);
            if best.is_none_or(|(prev, _)| lb > prev) {
                best = Some((lb, k));
            }
        }
        best
    }

    /// Render invariant `k` as an equation, e.g. `u0 + d0 = 1`.
    fn describe(&self, k: usize, place_name: impl Fn(usize) -> String) -> String {
        let mut lhs = String::new();
        for (p, &w) in self.invariants[k].weights.iter().enumerate() {
            if w == 0 {
                continue;
            }
            if !lhs.is_empty() {
                lhs.push_str(" + ");
            }
            if w != 1 {
                lhs.push_str(&format!("{w}*"));
            }
            lhs.push_str(&place_name(p));
        }
        format!("{lhs} = {}", self.sums[k])
    }
}

/// Run every static pass over `net` and collect the findings.
///
/// See `docs/STATIC_ANALYSIS.md` for what each pass proves and, just as
/// importantly, the soundness caveats: bounds are conservative upper
/// bounds (inhibitors and predicates only *remove* reachable markings),
/// dead verdicts assume untimed/quiescent observation, and an uncovered
/// place is *unknown*, not proven unbounded.
pub fn lint(net: &Net) -> LintReport {
    let _span = pnut_obs::span("analysis.lint");

    let bounds = structural_bounds(net);
    let mut findings = Vec::new();
    let mut dead = Vec::new();

    let pname = |p: usize| net.place(PlaceId::new(p)).name().to_string();

    // Pass 1: coverage — places no semi-positive invariant bounds.
    for (p, b) in bounds.bounds.iter().enumerate() {
        if b.is_none() {
            findings.push(Finding {
                severity: Severity::Warn,
                code: "unbounded-place",
                subject: pname(p),
                why: "no semi-positive P-invariant covers this place; its bound is unknown, so \
                      `reach --max-states` is load-bearing"
                    .into(),
            });
        }
    }

    // Pass 2: statically dead transitions (one finding per transition,
    // first proven cause wins) and guaranteed-failing constants.
    let structure = analysis::structural_report(net);
    for (tid, t) in net.transitions() {
        let mut dead_why: Option<String> = None;

        if structure.structurally_dead_transitions.contains(&tid) {
            let starved = t
                .inputs()
                .iter()
                .find(|&&(p, w)| net.initial_marking().tokens(p) < w && net.producers(p).is_empty())
                .map(|&(p, _)| net.place(p).name().to_string())
                .unwrap_or_default();
            dead_why = Some(format!(
                "input place `{starved}` starts short of tokens and no transition produces it"
            ));
        }

        if dead_why.is_none() {
            for &(p, w) in t.inputs() {
                let (Some(b), Some(k)) = (bounds.bounds[p.index()], bounds.proof[p.index()]) else {
                    continue;
                };
                if b < i64::from(w) {
                    dead_why = Some(format!(
                        "input place `{}` can never hold {w} token(s): bound {b} by P-invariant \
                         {}",
                        net.place(p).name(),
                        bounds.describe(k, pname)
                    ));
                    break;
                }
            }
        }

        if dead_why.is_none() {
            if let Some(pred) = t.predicate() {
                match pred.const_eval() {
                    Some(Ok(Value::Bool(false))) => {
                        dead_why = Some(format!("predicate `{pred}` is constantly false"));
                    }
                    Some(Ok(Value::Bool(true))) | Some(Ok(Value::Int(_))) | Some(Err(_)) | None => {
                    }
                }
            }
        }

        if dead_why.is_none() {
            for &(p, th) in t.inhibitors() {
                let Some((lb, k)) = bounds.lower_bound(p.index()) else {
                    continue;
                };
                if lb >= i64::from(th) {
                    dead_why = Some(format!(
                        "inhibitor arc on `{}` is always blocking: at least {lb} token(s) \
                         present (threshold {th}) by P-invariant {}",
                        net.place(p).name(),
                        bounds.describe(k, pname)
                    ));
                    break;
                }
            }
        }

        if let Some(why) = dead_why {
            dead.push(tid);
            findings.push(Finding {
                severity: Severity::Error,
                code: "dead-transition",
                subject: t.name().to_string(),
                why,
            });
        }
    }

    // Pass 3: structural dead ends.
    for &p in &structure.isolated_places {
        findings.push(Finding {
            severity: Severity::Warn,
            code: "isolated-place",
            subject: net.place(p).name().to_string(),
            why: "connected to no transition at all".into(),
        });
    }
    for &p in &structure.source_only_places {
        findings.push(Finding {
            severity: Severity::Info,
            code: "never-produced-place",
            subject: net.place(p).name().to_string(),
            why: "no transition produces it; its tokens can only drain".into(),
        });
    }
    for &p in &structure.sink_only_places {
        findings.push(Finding {
            severity: Severity::Info,
            code: "never-consumed-place",
            subject: net.place(p).name().to_string(),
            why: "no transition consumes it; its tokens only accumulate".into(),
        });
    }
    for &t in &structure.sourceless_transitions {
        findings.push(Finding {
            severity: Severity::Info,
            code: "input-free-transition",
            subject: net.transition(t).name().to_string(),
            why: "has no input arcs, so it is always marking-enabled".into(),
        });
    }
    if let Some(why) = disconnected(net) {
        findings.push(Finding {
            severity: Severity::Warn,
            code: "disconnected-net",
            subject: net.name().to_string(),
            why,
        });
    }

    // Pass 4: steady-state relevance. Every T-invariant is an integer
    // combination of the basis, so a transition outside every basis
    // support has firing-count 0 in *all* of them — it cannot be part
    // of any reproducing cycle `markov` could weight.
    let t_basis = invariant::t_invariants(net);
    if t_basis.is_empty() && net.transition_count() > 0 {
        findings.push(Finding {
            severity: Severity::Info,
            code: "no-cycles",
            subject: net.name().to_string(),
            why: "the net has no T-invariant: no firing sequence reproduces a marking, so \
                  steady-state (`markov`) analysis is inapplicable"
                .into(),
        });
    } else {
        for (tid, t) in net.transitions() {
            if dead.contains(&tid) {
                continue; // already reported as dead; acyclicity is implied
            }
            if t_basis.iter().all(|inv| inv.weights[tid.index()] == 0) {
                findings.push(Finding {
                    severity: Severity::Info,
                    code: "acyclic-transition",
                    subject: t.name().to_string(),
                    why: "appears in no T-invariant support: it can fire only transiently, \
                          never as part of a steady-state cycle"
                        .into(),
                });
            }
        }
    }

    // Pass 5: expression lint over predicates, actions, and delays.
    expression_lint(net, &mut findings);

    findings.sort_by_key(|f| f.severity);
    pnut_obs::metrics::ANALYSIS_LINT_FINDINGS.add(findings.len() as u64);
    pnut_obs::metrics::ANALYSIS_LINT_ERRORS.add(
        findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count() as u64,
    );

    let m0 = net.initial_marking();
    let p_invariants = bounds
        .basis
        .into_iter()
        .map(|inv| {
            let sum = inv.token_sum(&m0);
            (inv, sum)
        })
        .collect();
    LintReport {
        net_name: net.name().to_string(),
        place_names: net.places().map(|(_, p)| p.name().to_string()).collect(),
        transition_count: net.transition_count(),
        bounds: bounds.bounds,
        dead_transitions: dead,
        findings,
        p_invariants,
        t_invariants: t_basis.len(),
    }
}

/// If the net's places and transitions split into more than one
/// connected component (ignoring fully isolated places, which get their
/// own finding), describe the split.
fn disconnected(net: &Net) -> Option<String> {
    let np = net.place_count();
    let n = np + net.transition_count();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let union = |parent: &mut [usize], a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        parent[ra] = rb;
    };
    let mut touched = vec![false; n];
    for (tid, t) in net.transitions() {
        let tn = np + tid.index();
        touched[tn] = true;
        for &(p, _) in t.inputs().iter().chain(t.outputs()).chain(t.inhibitors()) {
            touched[p.index()] = true;
            union(&mut parent, p.index(), tn);
        }
    }
    let mut roots: Vec<usize> = Vec::new();
    for (i, &t) in touched.iter().enumerate() {
        if !t {
            continue; // isolated place (or impossible arc-free node)
        }
        let r = find(&mut parent, i);
        if !roots.contains(&r) {
            roots.push(r);
        }
    }
    if roots.len() < 2 {
        return None;
    }
    let describe = |r: usize| -> String {
        for (i, &t) in touched.iter().enumerate() {
            if t && find(&mut parent.clone(), i) == r {
                return if i < np {
                    format!("`{}`", net.place(PlaceId::new(i)).name())
                } else {
                    format!(
                        "`{}`",
                        net.transition(pnut_core::TransitionId::new(i - np)).name()
                    )
                };
            }
        }
        String::from("?")
    };
    Some(format!(
        "the net splits into {} disconnected components (e.g. {} and {} share no arcs)",
        roots.len(),
        describe(roots[0]),
        describe(roots[1])
    ))
}

/// Where an expression appears, for messages.
fn site(kind: &str, transition: &str) -> String {
    format!("{kind} of `{transition}`")
}

/// Per-net usage tally built while scanning expressions: identifier ->
/// first site that uses it (`BTreeMap` for stable finding order).
#[derive(Default)]
struct Usage {
    var_reads: BTreeMap<String, String>,
    var_writes: BTreeMap<String, String>,
    table_uses: BTreeMap<String, String>,
}

impl Usage {
    /// Record every variable read and table access inside `e`, flagging
    /// constant out-of-bounds indices along the way.
    fn scan(&mut self, e: &Expr, at: &str, env: &Env, findings: &mut Vec<Finding>) {
        walk_expr(e, &mut |sub| match sub {
            Expr::Var(name) => {
                self.var_reads
                    .entry(name.clone())
                    .or_insert_with(|| at.to_string());
            }
            Expr::Index(table, idx) => {
                self.table_uses
                    .entry(table.clone())
                    .or_insert_with(|| at.to_string());
                check_const_index(env, table, idx, at, findings);
            }
            _ => {}
        });
    }
}

fn expression_lint(net: &Net, findings: &mut Vec<Finding>) {
    let env = net.initial_env();
    let mut usage = Usage::default();

    for (_, t) in net.transitions() {
        let tname = t.name();
        if let Some(pred) = t.predicate() {
            let at = site("predicate", tname);
            usage.scan(pred, &at, env, findings);
            match pred.const_eval() {
                Some(Err(e)) => findings.push(Finding {
                    severity: Severity::Error,
                    code: "const-error",
                    subject: tname.to_string(),
                    why: format!("predicate `{pred}` always fails to evaluate: {e}"),
                }),
                Some(Ok(Value::Int(_))) => findings.push(Finding {
                    severity: Severity::Error,
                    code: "const-error",
                    subject: tname.to_string(),
                    why: format!(
                        "predicate `{pred}` is constantly an integer; a predicate must be boolean"
                    ),
                }),
                _ => {}
            }
        }
        if let Some(action) = t.action() {
            let at = site("action", tname);
            for a in action.assignments() {
                usage.scan(&a.expr, &at, env, findings);
                if let Some(Err(e)) = a.expr.const_eval() {
                    findings.push(Finding {
                        severity: Severity::Error,
                        code: "const-error",
                        subject: tname.to_string(),
                        why: format!("action `{a}` always fails to evaluate: {e}"),
                    });
                }
                match &a.target {
                    Target::Var(name) => {
                        usage
                            .var_writes
                            .entry(name.clone())
                            .or_insert_with(|| at.clone());
                    }
                    Target::TableElem(table, idx) => {
                        usage
                            .table_uses
                            .entry(table.clone())
                            .or_insert_with(|| at.clone());
                        usage.scan(idx, &at, env, findings);
                        check_const_index(env, table, idx, &at, findings);
                    }
                }
            }
        }
        for (kind, delay) in [
            ("firing delay", t.firing_time()),
            ("enabling delay", t.enabling_time()),
        ] {
            let Delay::Expr(e) = delay else { continue };
            let at = site(kind, tname);
            usage.scan(e, &at, env, findings);
            match e.const_eval() {
                Some(Err(err)) => findings.push(Finding {
                    severity: Severity::Error,
                    code: "const-error",
                    subject: tname.to_string(),
                    why: format!("{kind} `{e}` always fails to evaluate: {err}"),
                }),
                Some(Ok(Value::Bool(_))) => findings.push(Finding {
                    severity: Severity::Error,
                    code: "const-error",
                    subject: tname.to_string(),
                    why: format!("{kind} `{e}` is constantly boolean; a delay must be an integer"),
                }),
                _ => {}
            }
        }
    }
    let Usage {
        var_reads,
        var_writes,
        table_uses,
    } = usage;

    // Aggregate variable verdicts.
    for (name, at) in &var_reads {
        if env.var(name).is_some() {
            continue; // declared with an initial value: always readable
        }
        if let Some(written_at) = var_writes.get(name) {
            findings.push(Finding {
                severity: Severity::Warn,
                code: "read-before-write",
                subject: name.clone(),
                why: format!(
                    "read by {at} but not declared; it only exists after {written_at} runs"
                ),
            });
        } else {
            findings.push(Finding {
                severity: Severity::Error,
                code: "undefined-var",
                subject: name.clone(),
                why: format!(
                    "read by {at} but never declared nor written: guaranteed `unknown \
                     variable` error"
                ),
            });
        }
    }
    for (name, at) in &var_writes {
        if !var_reads.contains_key(name) {
            findings.push(Finding {
                severity: Severity::Warn,
                code: "unread-var",
                subject: name.clone(),
                why: format!("written by {at} but never read by any expression"),
            });
        }
    }
    for (name, at) in &table_uses {
        if env.table(name).is_none() {
            findings.push(Finding {
                severity: Severity::Error,
                code: "undefined-table",
                subject: name.clone(),
                why: format!("used by {at} but never declared: guaranteed `unknown table` error"),
            });
        }
    }
}

/// Flag a table access whose index folds to a constant outside the
/// table, a guaranteed `index out of bounds` error.
fn check_const_index(env: &Env, table: &str, idx: &Expr, at: &str, findings: &mut Vec<Finding>) {
    let Some(len) = env.table(table).map(<[i64]>::len) else {
        return; // undeclared table gets its own finding
    };
    let Some(Ok(Value::Int(i))) = idx.const_eval() else {
        return;
    };
    if i < 0 || i as usize >= len {
        findings.push(Finding {
            severity: Severity::Error,
            code: "const-table-index",
            subject: format!("{table}[{idx}]"),
            why: format!(
                "constant index {i} is out of bounds for table `{table}` of length {len} \
                 (in {at}): guaranteed error"
            ),
        });
    }
}

fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Int(_) | Expr::Bool(_) | Expr::Var(_) => {}
        Expr::Index(_, i) => walk_expr(i, f),
        Expr::Unary(_, a) => walk_expr(a, f),
        Expr::Binary(_, a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        Expr::Call(_, args) => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::If(c, a, b) => {
            walk_expr(c, f);
            walk_expr(a, f);
            walk_expr(b, f);
        }
    }
}
