//! Steady-state analysis via the embedded Markov chain.
//!
//! Cycle-time analysis ([`crate::analyze`]) is exact but limited to
//! marked graphs — no choice. For nets *with* probabilistic choice, the
//! timed reachability graph `[RP84]` plus the firing-frequency semantics
//! `[WPS86]` induce a semi-Markov process:
//!
//! * in a state where transitions can start, one is chosen with
//!   probability proportional to its relative firing frequency and the
//!   move is instantaneous (sojourn 0);
//! * in a state where only time can pass, the single `Advance(dt)` edge
//!   is taken with probability 1 after a sojourn of `dt` ticks.
//!
//! The long-run fraction of time spent in each state is the stationary
//! distribution of the embedded jump chain weighted by sojourn times;
//! from it follow *analytical* place utilizations and transition
//! throughputs — the numbers `stat` estimates from one random trace,
//! computed here without any randomness at all.
//!
//! The construction matches the simulator's semantics, so the two agree
//! up to sampling noise (tested).
//!
//! # Solving the chain
//!
//! The jump chain is extracted into flat CSR arrays: row offsets, and
//! per jump its target, probability and the transition it fires.
//!
//! * **Recurrent class.** One iterative Tarjan pass from the initial
//!   state finds every strongly connected component it reaches. The
//!   long run lives in the one *closed* component, the one no jump
//!   leaves; transient start-up states get weight exactly 0. Two or more
//!   closed components mean the long run depends on which one the chain
//!   falls into, so there is no single steady state
//!   ([`MarkovError::NoConvergence`]).
//! * **Gauss–Seidel.** The stationary vector `π = πP` of that class is
//!   found by Gauss–Seidel sweeps in state order over the transposed
//!   chain: each state's new weight is its inflow divided by the mass
//!   that leaves it (one minus its self-loop probability), and the
//!   result `Tπ` is normalised.
//! * **Damping.** On a periodic class a plain sweep can cycle for ever.
//!   On a closed class the sweep operator `T` has 1 as a simple
//!   eigenvalue and none outside the unit circle, but it may have others
//!   on it. So the next sweep starts not from `Tπ` but from
//!   `½(π + Tπ)`, normalised. That maps every eigenvalue `λ ≠ 1` to
//!   `(1 + λ)/2`, strictly inside the circle, so the sweeps converge on
//!   every closed class.
//! * **Stopping.** Once a sweep's normalised `Tπ` differs from `π` by
//!   at most [`MarkovOptions::tolerance`] in L1, the solver computes the
//!   residual `‖πP − π‖₁` of that `Tπ` and returns it when the residual
//!   is within the tolerance too; it is reported as
//!   [`SteadyState::residual`]. The residual says how nearly stationary
//!   the vector is. It is not a bound on the forward error against the
//!   exact distribution, which can be larger by the chain's condition
//!   number.

use pnut_core::{Net, PlaceId, TransitionId};
use pnut_obs as obs;
use pnut_reach::graph::{build_timed, EdgeLabel, ReachOptions};
use std::fmt;
use std::ops::Range;

/// Why steady-state analysis failed.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// The timed reachability graph could not be built (randomness,
    /// state explosion, evaluation failures, ...), or a spilled
    /// segment failed to reload during the segment-ordered chain
    /// extraction.
    Reach(pnut_reach::ReachError),
    /// The graph has deadlock states: the long-run behaviour is
    /// absorption, not a steady state.
    Deadlock {
        /// A deadlocked state index.
        state: usize,
    },
    /// The chain never lets time pass (a zero-delay cycle): sojourn
    /// times are all zero and utilization is undefined.
    Zeno,
    /// The graph is too large for dense analysis.
    TooLarge {
        /// States found.
        states: usize,
        /// The configured cap.
        cap: usize,
    },
    /// No single steady state was found: either two or more closed
    /// classes are reachable from the initial state, or Gauss–Seidel
    /// did not bring the residual within [`MarkovOptions::tolerance`]
    /// in [`MarkovOptions::max_iterations`] sweeps.
    NoConvergence,
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::Reach(e) => write!(f, "timed reachability failed: {e}"),
            MarkovError::Deadlock { state } => {
                write!(f, "state {state} deadlocks; no steady state exists")
            }
            MarkovError::Zeno => write!(f, "no time ever passes (zero-delay cycle)"),
            MarkovError::TooLarge { states, cap } => {
                write!(f, "{states} states exceed the analysis cap of {cap}")
            }
            MarkovError::NoConvergence => write!(f, "stationary iteration did not converge"),
        }
    }
}

impl std::error::Error for MarkovError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MarkovError::Reach(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pnut_reach::ReachError> for MarkovError {
    fn from(e: pnut_reach::ReachError) -> Self {
        MarkovError::Reach(e)
    }
}

/// Limits for the analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovOptions {
    /// Maximum states for the dense chain.
    pub max_states: usize,
    /// Cap on Gauss–Seidel sweeps; a solve that needs more fails with
    /// [`MarkovError::NoConvergence`].
    pub max_iterations: usize,
    /// The solver stops once the residual `‖πP − π‖₁` of the jump
    /// chain's stationary vector is at most this (see
    /// [`SteadyState::residual`]).
    pub tolerance: f64,
    /// Worker threads for the underlying timed reachability build (see
    /// [`pnut_reach::ReachOptions::jobs`]); the chain extraction itself
    /// is dense linear algebra and stays single-threaded.
    pub jobs: usize,
    /// Resident byte budget for the reachability build's state and
    /// edge arenas (see [`pnut_reach::ReachOptions::mem_budget`]). The
    /// chain extraction and the place-average pass honor it by
    /// scanning the *graph* segment-at-a-time instead of faulting it
    /// resident — but the budget governs the graph arenas only: the
    /// extracted jump chain itself (CSR arrays with one target,
    /// probability and fired transition per edge, their transpose over
    /// the recurrent class, and the `O(states)` solver vectors) is dense
    /// and stays unconditionally in memory, outside the pager ledger.
    /// The dense-chain cap is [`Self::max_states`]; paging the chain is
    /// not attempted.
    pub mem_budget: usize,
    /// Spill directory for the reachability build (see
    /// [`pnut_reach::ReachOptions::spill_dir`]).
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Default for MarkovOptions {
    fn default() -> Self {
        MarkovOptions {
            max_states: 20_000,
            max_iterations: 200_000,
            tolerance: 1e-12,
            jobs: 1,
            mem_budget: usize::MAX,
            spill_dir: None,
        }
    }
}

/// Analytical steady-state quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    /// Long-run fraction of *time* spent in each reachability-graph
    /// state.
    pub state_fraction: Vec<f64>,
    /// Time-average token count per place (place-id order) — the
    /// analytical counterpart of the Figure 5 "Avg Tokens" column.
    pub place_average_tokens: Vec<f64>,
    /// Firings per tick per transition (transition-id order) — the
    /// analytical counterpart of the "Throughput" column.
    pub transition_throughput: Vec<f64>,
    /// Mean ticks per embedded jump (the normalization constant).
    pub mean_sojourn: f64,
    /// The L1 residual `‖πP − π‖₁` of the jump chain's stationary
    /// vector `π` when the solver stopped, at most
    /// [`MarkovOptions::tolerance`]. It measures how nearly stationary
    /// `π` is, not its distance from the exact distribution.
    pub residual: f64,
}

impl SteadyState {
    /// Average tokens of one place.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn avg_tokens(&self, place: PlaceId) -> f64 {
        self.place_average_tokens[place.index()]
    }

    /// Throughput of one transition.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn throughput(&self, transition: TransitionId) -> f64 {
        self.transition_throughput[transition.index()]
    }
}

/// Compute the steady state of `net` (no randomness; constant or
/// deterministic table-driven firing times; constant enabling times —
/// the timed-reachability class, which covers the paper's §2/§3
/// pipeline models including the cache-enabled configurations).
///
/// # Errors
///
/// See [`MarkovError`].
///
/// # Example
///
/// ```
/// use pnut_analytic::markov::{steady_state, MarkovOptions};
/// use pnut_core::NetBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetBuilder::new("ring");
/// b.place("a", 1);
/// b.place("b", 0);
/// b.transition("ab").input("a").output("b").firing(3).add();
/// b.transition("ba").input("b").output("a").firing(1).add();
/// let net = b.build()?;
/// let ss = steady_state(&net, &MarkovOptions::default())?;
/// // Each transition completes once per 4-tick cycle.
/// let ab = net.transition_id("ab").unwrap();
/// assert!((ss.throughput(ab) - 0.25).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn steady_state(net: &Net, options: &MarkovOptions) -> Result<SteadyState, MarkovError> {
    let mut graph = build_timed(
        net,
        &ReachOptions {
            max_states: options.max_states,
            jobs: options.jobs,
            mem_budget: options.mem_budget,
            spill_dir: options.spill_dir.clone(),
        },
    )?;
    let n = graph.state_count();
    if n > options.max_states {
        return Err(MarkovError::TooLarge {
            states: n,
            cap: options.max_states,
        });
    }
    // Phase-scope the resident high-water mark: from here on the peak
    // measures the *analysis* sweeps, which promise to stay inside the
    // byte budget (verified below in debug builds).
    graph.reset_peak_resident_bytes();

    // Embedded jump chain, extracted segment-at-a-time — pin one
    // segment's edge rows, scan them, evict back under the byte budget —
    // so the extraction phase stays inside `mem_budget` instead of
    // faulting the whole graph resident. Deadlocks surface here too
    // (segment order is state order, so the first one found is the
    // lowest-numbered, matching the pre-paging behaviour of
    // `deadlocks().first()`).
    let extract_span = obs::span("markov.extract");
    let mut chain = JumpChain::with_capacity(n, graph.edge_count());
    let mut sojourn = vec![0.0f64; n];
    let frequency = |label| match label {
        EdgeLabel::Fire(t) => net.transition(t).frequency(),
        EdgeLabel::Advance(_) => 0.0,
    };
    for seg in 0..graph.segment_count() {
        {
            let guard = graph.pin_segment(seg);
            for s in guard.range() {
                let edges = guard.successors(s)?;
                // Frequencies are positive, so a zero total means no Fire
                // edge: maximal progress leaves exactly one Advance edge.
                let total: f64 = edges.iter().map(|&(label, _)| frequency(label)).sum();
                match edges.first() {
                    None => return Err(MarkovError::Deadlock { state: s }),
                    Some(&(EdgeLabel::Advance(dt), to)) if total == 0.0 => {
                        sojourn[s] = dt as f64;
                        chain.push(to, 1.0, None);
                    }
                    Some(_) => {
                        for &(label, to) in edges {
                            if let EdgeLabel::Fire(t) = label {
                                chain.push(to, frequency(label) / total, Some(t));
                            }
                        }
                    }
                }
                chain.end_row();
            }
        }
        graph.maintain()?;
    }
    obs::metrics::MARKOV_EXTRACTED_EDGES.add(chain.to.len() as u64);
    drop(extract_span);
    if sojourn.iter().all(|&t| t == 0.0) {
        return Err(MarkovError::Zeno);
    }

    let class = {
        let _scc = obs::span("markov.scc");
        chain.recurrent_class()?
    };
    let (pi, residual) = {
        let _solve = obs::span("markov.solve");
        chain.gauss_seidel(&class, options)?
    };

    // Time-weight by sojourns.
    let mean_sojourn: f64 = pi.iter().zip(&sojourn).map(|(&p, &t)| p * t).sum();
    if mean_sojourn <= 0.0 {
        return Err(MarkovError::Zeno);
    }
    let state_fraction: Vec<f64> = pi
        .iter()
        .zip(&sojourn)
        .map(|(&p, &t)| p * t / mean_sojourn)
        .collect();

    // Place averages: Σ fraction(s) · tokens_s(p) — a second
    // segment-ordered sweep, this time over the marking rows.
    let places = net.place_count();
    let mut place_average_tokens = vec![0.0f64; places];
    for seg in 0..graph.segment_count() {
        {
            let guard = graph.pin_segment(seg);
            for s in guard.range() {
                let frac = state_fraction[s];
                if frac == 0.0 {
                    continue;
                }
                for (p, &tokens) in guard.marking(s)?.iter().enumerate() {
                    place_average_tokens[p] += frac * f64::from(tokens);
                }
            }
        }
        graph.maintain()?;
    }

    // The segment-ordered sweeps above promise the analysis-phase
    // resident envelope: budget + one pinned guard (state + edge
    // segment) + one segment of slack. Verify the promise whenever a
    // finite budget is set (debug builds only; the paged-analysis test
    // harness exercises this at a 64 KiB budget).
    #[cfg(debug_assertions)]
    if options.mem_budget != usize::MAX {
        let guard = graph.max_state_segment_bytes() + graph.max_edge_segment_bytes();
        let slack = guard
            + graph
                .max_state_segment_bytes()
                .max(graph.max_edge_segment_bytes());
        debug_assert!(
            graph.peak_resident_bytes() <= options.mem_budget + slack,
            "markov analysis phase peaked at {} resident bytes \
             (budget {} + guard/segment slack {})",
            graph.peak_resident_bytes(),
            options.mem_budget,
            slack
        );
    }

    // Throughput of t: expected Fire(t) jumps per tick
    //   = Σ_s π(s) · P(s fires t) / mean_sojourn.
    let mut transition_throughput = vec![0.0f64; net.transition_count()];
    for (s, &weight) in pi.iter().enumerate() {
        for k in chain.jumps(s) {
            if let Some(t) = chain.fires[k] {
                transition_throughput[t.index()] += weight * chain.prob[k];
            }
        }
    }
    for v in &mut transition_throughput {
        *v /= mean_sojourn;
    }

    Ok(SteadyState {
        state_fraction,
        place_average_tokens,
        transition_throughput,
        mean_sojourn,
        residual,
    })
}

/// The embedded jump chain in CSR form: the jumps out of state `s` are
/// the entries `row[s]..row[s + 1]` of `to`, `prob` and `fires` (the
/// transition the jump starts, `None` for a time advance).
struct JumpChain {
    row: Vec<usize>,
    to: Vec<u32>,
    prob: Vec<f64>,
    fires: Vec<Option<TransitionId>>,
}

impl JumpChain {
    fn with_capacity(states: usize, jumps: usize) -> Self {
        let mut row = Vec::with_capacity(states + 1);
        row.push(0);
        JumpChain {
            row,
            to: Vec::with_capacity(jumps),
            prob: Vec::with_capacity(jumps),
            fires: Vec::with_capacity(jumps),
        }
    }

    /// Append one jump to the row being built.
    fn push(&mut self, to: u32, prob: f64, fires: Option<TransitionId>) {
        self.to.push(to);
        self.prob.push(prob);
        self.fires.push(fires);
    }

    /// Close the row being built; the next jump belongs to the next
    /// state.
    fn end_row(&mut self) {
        self.row.push(self.to.len());
    }

    fn states(&self) -> usize {
        self.row.len() - 1
    }

    fn jumps(&self, s: usize) -> Range<usize> {
        self.row[s]..self.row[s + 1]
    }

    /// The recurrent class: the states, ascending, of the one closed
    /// strongly connected component reachable from state 0, found by
    /// one iterative Tarjan pass (Tarjan, 1972).
    ///
    /// # Errors
    ///
    /// [`MarkovError::NoConvergence`] if two or more closed components
    /// are reachable.
    fn recurrent_class(&self) -> Result<Vec<u32>, MarkovError> {
        const UNSEEN: u32 = u32::MAX;
        let n = self.states();
        // Discovery order, lowlink, and the component of each state once
        // it is finished (named by its root's discovery order); a state
        // is on the Tarjan stack iff it is seen but not yet in a
        // component.
        let mut order = vec![UNSEEN; n];
        let mut low = vec![UNSEEN; n];
        let mut component = vec![UNSEEN; n];
        order[0] = 0;
        low[0] = 0;
        let mut seen = 1u32;
        let mut stack = vec![0u32];
        // DFS frames: a state and its next jump to follow.
        let mut frames = vec![(0usize, self.row[0])];
        let mut closed: Option<u32> = None;
        while let Some(frame) = frames.last_mut() {
            let (v, next) = *frame;
            if next < self.row[v + 1] {
                frame.1 += 1;
                let w = self.to[next] as usize;
                if order[w] == UNSEEN {
                    order[w] = seen;
                    low[w] = seen;
                    seen += 1;
                    stack.push(w as u32);
                    frames.push((w, self.row[w]));
                } else if component[w] == UNSEEN {
                    low[v] = low[v].min(order[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] != order[v] {
                continue;
            }
            // `v` roots a component: everything above it on the stack.
            let root = stack.iter().rposition(|&s| s as usize == v).unwrap_or(0);
            let members = &stack[root..];
            for &s in members {
                component[s as usize] = order[v];
            }
            // Every jump out of a member ends in this component or in
            // one finished earlier, so a closed one keeps them all.
            let is_closed = members.iter().all(|&s| {
                self.jumps(s as usize)
                    .all(|k| component[self.to[k] as usize] == order[v])
            });
            if is_closed {
                if closed.is_some() {
                    return Err(MarkovError::NoConvergence);
                }
                closed = Some(order[v]);
            }
            stack.truncate(root);
        }
        let closed = closed.ok_or(MarkovError::NoConvergence)?;
        Ok((0..n as u32)
            .filter(|&s| component[s as usize] == closed)
            .collect())
    }

    /// The stationary vector of the jump chain, zero outside `class`,
    /// and its residual `‖πP − π‖₁`: Gauss–Seidel sweeps in state order
    /// (Stewart, *Introduction to the Numerical Solution of Markov
    /// Chains*, 1994) from the uniform vector on `class`, each damped by
    /// averaging with the vector it started from (see the module docs).
    ///
    /// # Errors
    ///
    /// [`MarkovError::NoConvergence`] if the residual is still above
    /// `options.tolerance` after `options.max_iterations` sweeps.
    fn gauss_seidel(
        &self,
        class: &[u32],
        options: &MarkovOptions,
    ) -> Result<(Vec<f64>, f64), MarkovError> {
        // The solver works on the class alone, member `i` being
        // `class[i]`. The class is closed, so every jump out of a member
        // lands on a member.
        let n = self.states();
        let m = class.len();
        let mut member = vec![0u32; n];
        for (i, &s) in class.iter().enumerate() {
            member[s as usize] = i as u32;
        }
        // The transposed chain. Per member: `leave`, the mass of its
        // jumps to other members, and its in-jumps from other members
        // (source-ordered), each divided by the target's `leave` so that
        // a member's new weight is its plain inflow.
        let mut leave = vec![0.0f64; m];
        let mut in_row = vec![0usize; m + 1];
        for (i, &s) in class.iter().enumerate() {
            for k in self.jumps(s as usize) {
                let to = member[self.to[k] as usize] as usize;
                if to != i {
                    leave[i] += self.prob[k];
                    in_row[to + 1] += 1;
                }
            }
        }
        for i in 0..m {
            in_row[i + 1] += in_row[i];
        }
        let mut fill = in_row.clone();
        let mut in_from = vec![0u32; in_row[m]];
        let mut in_prob = vec![0.0f64; in_row[m]];
        for (i, &s) in class.iter().enumerate() {
            for k in self.jumps(s as usize) {
                let to = member[self.to[k] as usize] as usize;
                if to != i {
                    in_from[fill[to]] = i as u32;
                    in_prob[fill[to]] = self.prob[k] / leave[to];
                    fill[to] += 1;
                }
            }
        }
        let inflow = |pi: &[f64], i: usize| -> f64 {
            let jumps = in_row[i]..in_row[i + 1];
            in_from[jumps.clone()]
                .iter()
                .zip(&in_prob[jumps])
                .map(|(&from, &p)| pi[from as usize] * p)
                .sum()
        };

        let mut pi = vec![1.0 / m as f64; m];
        let mut prev = vec![0.0f64; m];
        for sweep in 0..options.max_iterations {
            obs::metrics::MARKOV_SOLVER_ITERATIONS.inc();
            obs::heartbeat(sweep as u64 + 1, || {
                format!(
                    "markov solve: sweep {} of at most {}",
                    sweep + 1,
                    options.max_iterations
                )
            });
            prev.copy_from_slice(&pi);
            let mut total = 0.0f64;
            for i in 0..m {
                // A member whose every jump is a self-loop is a class of
                // its own and keeps its weight.
                if leave[i] > 0.0 {
                    pi[i] = inflow(&pi, i);
                }
                total += pi[i];
            }
            let scale = 1.0 / total;
            let mut change = 0.0f64;
            for (p, &q) in pi.iter_mut().zip(&prev) {
                *p *= scale;
                change += (*p - q).abs();
            }
            if change <= options.tolerance {
                // (πP − π)(i) = Σⱼ π(j)·P(j, i) − π(i)·leave(i)
                //            = leave(i)·(inflow(i) − π(i)),
                // since `inflow` divides by `leave`.
                let residual: f64 = (0..m)
                    .map(|i| leave[i] * (inflow(&pi, i) - pi[i]).abs())
                    .sum();
                if residual <= options.tolerance {
                    let mut full = vec![0.0f64; n];
                    for (&s, &p) in class.iter().zip(&pi) {
                        full[s as usize] = p;
                    }
                    return Ok((full, residual));
                }
            }
            // Damp: the next sweep starts from ½(π + Tπ), normalised.
            // `π` sums to 1, and `Tπ` summed to `total` before the
            // scaling above.
            let blend = total / (1.0 + total);
            for (p, &q) in pi.iter_mut().zip(&prev) {
                *p = q * (1.0 - blend) + *p * blend;
            }
        }
        Err(MarkovError::NoConvergence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::{NetBuilder, Time};

    /// [`steady_state`], holding every `Ok` result to the solver's
    /// stopping rule: its residual is within the tolerance.
    fn solve(net: &Net, options: &MarkovOptions) -> Result<SteadyState, MarkovError> {
        let result = steady_state(net, options);
        if let Ok(ss) = &result {
            assert!(
                ss.residual <= options.tolerance,
                "residual {} above tolerance {}",
                ss.residual,
                options.tolerance
            );
        }
        result
    }

    fn ring(d1: u64, d2: u64) -> pnut_core::Net {
        let mut b = NetBuilder::new("ring");
        b.place("a", 1);
        b.place("bp", 0);
        b.transition("ab").input("a").output("bp").firing(d1).add();
        b.transition("ba").input("bp").output("a").firing(d2).add();
        b.build().unwrap()
    }

    #[test]
    fn deterministic_ring_exact() {
        let net = ring(3, 1);
        let ss = solve(&net, &MarkovOptions::default()).unwrap();
        let ab = net.transition_id("ab").unwrap();
        let ba = net.transition_id("ba").unwrap();
        assert!((ss.throughput(ab) - 0.25).abs() < 1e-9);
        assert!((ss.throughput(ba) - 0.25).abs() < 1e-9);
        // Tokens are inside transitions while firing: both places are
        // almost always empty in this net (instantaneous hand-offs
        // happen at measure-zero instants), so fractions reflect the
        // in-flight pattern instead; totals must stay in [0, 1].
        let a = net.place_id("a").unwrap();
        assert!(ss.avg_tokens(a) <= 1.0 + 1e-9);
        assert!(
            (ss.mean_sojourn - 1.0).abs() < 1e-9,
            "sojourns 0,3,0,1 over 4 jumps"
        );
        let total: f64 = ss.state_fraction.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilistic_choice_matches_simulation() {
        // One token; two competing service loops with different delays
        // and frequencies .7/.3 — a stochastic net the marked-graph tool
        // rejects.
        let mut b = NetBuilder::new("choice");
        b.place("idle", 1);
        b.place("fast_done", 0);
        b.place("slow_done", 0);
        b.transition("fast")
            .input("idle")
            .output("fast_done")
            .firing(1)
            .frequency(0.7)
            .add();
        b.transition("slow")
            .input("idle")
            .output("slow_done")
            .firing(5)
            .frequency(0.3)
            .add();
        b.transition("rf").input("fast_done").output("idle").add();
        b.transition("rs").input("slow_done").output("idle").add();
        let net = b.build().unwrap();

        assert!(crate::analyze(&net).is_err(), "not a marked graph");
        let ss = solve(&net, &MarkovOptions::default()).unwrap();

        let trace = pnut_sim::simulate(&net, 7, Time::from_ticks(200_000)).unwrap();
        let report = pnut_stat::analyze(&trace);
        for name in ["fast", "slow"] {
            let analytic = ss.throughput(net.transition_id(name).unwrap());
            let simulated = report.transition(name).unwrap().throughput;
            assert!(
                (analytic - simulated).abs() / simulated < 0.03,
                "{name}: analytic {analytic} vs simulated {simulated}"
            );
        }
        // Expected: per cycle, p=.7 takes 1 tick, p=.3 takes 5 → mean
        // cycle 0.7*1 + 0.3*5 = 2.2; fast throughput = .7/2.2.
        let fast = ss.throughput(net.transition_id("fast").unwrap());
        assert!((fast - 0.7 / 2.2).abs() < 1e-9);
    }

    #[test]
    fn place_occupancy_analytic() {
        // Token *rests* on places (zero firing times move it; holding
        // is modeled by a delayed drain): a -> (hold 3) -> b -> (hold 1) -> a.
        // Build with firing times on the move *out* of each place, so
        // `a` is occupied while `drain_a` is in flight... instead use a
        // structure where occupancy is visible: a holds the token while
        // `leave_a` (firing 0) is blocked by a timer loop. Simplest
        // observable case: tokens rest during *other* transitions'
        // firing.
        let mut b = NetBuilder::new("rest");
        b.place("waiting", 1);
        b.place("go", 0);
        b.place("spent", 0);
        // A 4-tick timer runs while the token waits on `waiting`.
        b.place("timer", 1);
        b.transition("tick")
            .input("timer")
            .output("go")
            .firing(4)
            .add();
        b.transition("move")
            .input("waiting")
            .input("go")
            .output("spent")
            .output("timer")
            .firing(1)
            .add();
        b.transition("reset").input("spent").output("waiting").add();
        let net = b.build().unwrap();
        let ss = solve(&net, &MarkovOptions::default()).unwrap();
        // Cycle: 4 ticks timing (waiting occupied) + 1 tick moving.
        let waiting = net.place_id("waiting").unwrap();
        assert!(
            (ss.avg_tokens(waiting) - 0.8).abs() < 1e-9,
            "waiting occupied 4 of 5 ticks: {}",
            ss.avg_tokens(waiting)
        );
    }

    #[test]
    fn deadlock_and_zeno_detected() {
        let mut b = NetBuilder::new("dead");
        b.place("p", 1);
        b.place("q", 0);
        b.transition("t").input("p").output("q").firing(1).add();
        let net = b.build().unwrap();
        assert!(matches!(
            solve(&net, &MarkovOptions::default()),
            Err(MarkovError::Deadlock { .. })
        ));

        let mut b = NetBuilder::new("zeno");
        b.place("p", 1);
        b.transition("t").input("p").output("p").add();
        let net = b.build().unwrap();
        // A zero-delay self-loop: the timed graph is 1 state with a Fire
        // self-edge and no Advance; no time ever passes.
        assert!(matches!(
            solve(&net, &MarkovOptions::default()),
            Err(MarkovError::Zeno)
        ));

        // The same self-loop after one tick of start-up: time passes
        // once, then never again. The loop state is a recurrent class
        // of its own whose every jump is a self-loop.
        let mut b = NetBuilder::new("late_zeno");
        b.place("p", 1);
        b.place("q", 0);
        b.transition("t").input("p").output("q").firing(1).add();
        b.transition("spin").input("q").output("q").add();
        let net = b.build().unwrap();
        assert!(matches!(
            solve(&net, &MarkovOptions::default()),
            Err(MarkovError::Zeno)
        ));
    }

    #[test]
    fn two_closed_classes_have_no_single_steady_state() {
        // A zero-delay choice commits the token to one of two separate
        // timed rings, so the long run depends on that first choice.
        let mut b = NetBuilder::new("fork");
        b.place("start", 1);
        for side in ["l", "r"] {
            let (here, there) = (format!("{side}_here"), format!("{side}_there"));
            b.place(here.clone(), 0);
            b.place(there.clone(), 0);
            b.transition(format!("{side}_go"))
                .input("start")
                .output(here.clone())
                .add();
            b.transition(format!("{side}_out"))
                .input(here.clone())
                .output(there.clone())
                .firing(2)
                .add();
            b.transition(format!("{side}_back"))
                .input(there)
                .output(here)
                .firing(1)
                .add();
        }
        let net = b.build().unwrap();
        assert_eq!(
            solve(&net, &MarkovOptions::default()),
            Err(MarkovError::NoConvergence)
        );
    }

    #[test]
    fn transient_prefix_gets_no_weight() {
        // A one-shot start-up transition feeds the 4-tick ring of
        // `ring(3, 1)`.
        let mut b = NetBuilder::new("boot");
        b.place("boot", 1);
        b.place("a", 0);
        b.place("bp", 0);
        b.transition("init")
            .input("boot")
            .output("a")
            .firing(2)
            .add();
        b.transition("ab").input("a").output("bp").firing(3).add();
        b.transition("ba").input("bp").output("a").firing(1).add();
        let net = b.build().unwrap();
        let ss = solve(&net, &MarkovOptions::default()).unwrap();

        // The prefix: every state before the first `ab` firing.
        let graph = build_timed(&net, &ReachOptions::default()).unwrap();
        let ab = net.transition_id("ab").unwrap();
        let mut prefix = Vec::new();
        let mut s = 0;
        loop {
            let edges = graph.successors(s).unwrap();
            if edges.iter().any(|&(label, _)| label == EdgeLabel::Fire(ab)) {
                break;
            }
            prefix.push(s);
            s = edges[0].1 as usize;
        }
        assert_eq!(prefix.len(), 2, "`init` starts, then its 2 ticks pass");
        for s in prefix {
            assert_eq!(ss.state_fraction[s], 0.0, "prefix state {s}");
        }
        assert_eq!(ss.throughput(net.transition_id("init").unwrap()), 0.0);
        assert_eq!(ss.throughput(ab), 0.25);
        assert_eq!(ss.throughput(net.transition_id("ba").unwrap()), 0.25);
    }

    #[test]
    fn periodic_recurrent_class_is_solved() {
        // The class {choose, done, x in flight, y in flight} has period
        // 3: choose → x or y → (one tick) → done → z → choose. Undamped
        // Gauss–Seidel in state order swaps the weight of `done` with
        // that of the in-flight pair on every sweep and never settles.
        let mut b = NetBuilder::new("periodic");
        b.place("start", 1);
        b.place("choose", 0);
        b.place("done", 0);
        b.transition("u").input("start").output("choose").add();
        b.transition("v").input("start").output("done").add();
        b.transition("z").input("done").output("choose").add();
        b.transition("x")
            .input("choose")
            .output("done")
            .firing(1)
            .add();
        b.transition("y")
            .input("choose")
            .output("done")
            .firing(1)
            .add();
        let net = b.build().unwrap();
        let ss = solve(&net, &MarkovOptions::default()).unwrap();
        assert_eq!(ss.state_fraction.len(), 5);
        for name in ["x", "y"] {
            let t = net.transition_id(name).unwrap();
            assert!(
                (ss.throughput(t) - 0.5).abs() < 1e-12,
                "{name}: {}",
                ss.throughput(t)
            );
        }
    }

    #[test]
    fn one_sweep_does_not_solve_three_stage() {
        let net =
            pnut_pipeline::three_stage::build(&pnut_pipeline::ThreeStageConfig::default()).unwrap();
        let options = MarkovOptions {
            max_iterations: 1,
            ..MarkovOptions::default()
        };
        assert_eq!(solve(&net, &options), Err(MarkovError::NoConvergence));
    }

    #[test]
    fn enabling_time_nets_are_analyzed_exactly() {
        // An enabling-3 hand-off ring: one completion of each
        // transition every 3 ticks, with the token resting on `p`
        // throughout the wait (enabling does not remove tokens).
        let mut b = NetBuilder::new("en");
        b.place("p", 1);
        b.place("q", 0);
        b.transition("t").input("p").output("q").enabling(3).add();
        b.transition("r").input("q").output("p").add();
        let net = b.build().unwrap();
        let ss = solve(&net, &MarkovOptions::default()).unwrap();
        let t = net.transition_id("t").unwrap();
        assert!(
            (ss.throughput(t) - 1.0 / 3.0).abs() < 1e-9,
            "one firing per 3-tick enabling period, got {}",
            ss.throughput(t)
        );
        let p = net.place_id("p").unwrap();
        assert!(
            (ss.avg_tokens(p) - 1.0).abs() < 1e-9,
            "the token rests on `p` for the whole wait (atomic hand-offs \
             happen at measure-zero instants), got {}",
            ss.avg_tokens(p)
        );
    }

    #[test]
    fn expression_enabling_times_are_analyzed_exactly() {
        // The same hand-off ring as above, but with the enabling delay
        // written as a variable expression: the timed build resolves it
        // at arm time (retiring the old ExpressionEnablingTime
        // rejection), so the steady state matches the constant-delay
        // encoding exactly.
        let build = |expr: bool| {
            let mut b = NetBuilder::new("en");
            b.place("p", 1);
            b.place("q", 0);
            let t = b.transition("t").input("p").output("q");
            if expr {
                t.enabling_expr(pnut_core::Expr::parse("d").unwrap()).add();
            } else {
                t.enabling(3).add();
            }
            if expr {
                b.var("d", 3);
            }
            b.transition("r").input("q").output("p").add();
            b.build().unwrap()
        };
        let net = build(true);
        let ss = solve(&net, &MarkovOptions::default()).unwrap();
        let constant = solve(&build(false), &MarkovOptions::default()).unwrap();
        let t = net.transition_id("t").unwrap();
        assert!(
            (ss.throughput(t) - 1.0 / 3.0).abs() < 1e-9,
            "one firing per 3-tick enabling period, got {}",
            ss.throughput(t)
        );
        assert_eq!(
            ss.transition_throughput, constant.transition_throughput,
            "expression and constant encodings agree bit-for-bit"
        );
        assert_eq!(ss.state_fraction, constant.state_fraction);
    }
}
