#![forbid(unsafe_code)]

//! # pnut-analytic — analytical performance evaluation
//!
//! The paper's conclusion notes that "other tools support analytical (as
//! opposed to simulation) performance evaluation". This crate provides
//! the classical analytical result for timed Petri nets, due to
//! Ramchandani (`[Ram74]` in the paper's bibliography): for a *timed
//! marked graph* — a net where every place has exactly one producing and
//! one consuming transition and all arcs have weight 1 — the steady-state
//! **cycle time** is exact:
//!
//! ```text
//! CT = max over directed circuits C of  D(C) / N(C)
//! ```
//!
//! where `D(C)` is the total firing time of the transitions on `C` and
//! `N(C)` the token count on `C`'s places. In a strongly connected timed
//! marked graph every transition then fires at rate `1 / CT`.
//!
//! Unlike simulation this is a proof: no confidence intervals, no seeds.
//! The price is the restricted net class — which nonetheless covers
//! hardware pipelines without data-dependent choice, and provides exact
//! upper bounds ("what is the best this pipeline could do?") against
//! which simulated behaviour of richer models can be sanity-checked.
//!
//! # Example
//!
//! A two-stage pipeline ring: stage delays 3 and 2, one job in flight.
//!
//! ```
//! use pnut_analytic::{analyze, Ratio};
//! use pnut_core::NetBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetBuilder::new("two_stage");
//! b.place("s1_ready", 1);
//! b.place("s2_ready", 0);
//! b.transition("stage1").input("s1_ready").output("s2_ready").firing(3).add();
//! b.transition("stage2").input("s2_ready").output("s1_ready").firing(2).add();
//! let net = b.build()?;
//!
//! let result = analyze(&net)?;
//! assert_eq!(result.cycle_time, Ratio::new(5, 1)); // (3 + 2) / 1 token
//! assert!((result.throughput() - 0.2).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod markov;

use pnut_core::{Delay, Net, PlaceId, TransitionId};
use std::fmt;

/// An exact non-negative rational (ticks per firing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    /// Construct `num / den`, reduced.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "denominator must be non-zero");
        let g = gcd(num.max(1), den);
        Ratio {
            num: num / if num == 0 { 1 } else { g },
            den: den / if num == 0 { den } else { g },
        }
    }

    /// Denominator (reduced).
    pub fn denominator(self) -> u64 {
        self.den
    }

    /// The value as `f64`.
    fn as_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // a/b vs c/d  ⇔  a·d vs c·b (all non-negative, u128 can't overflow).
        let left = u128::from(self.num) * u128::from(other.den);
        let right = u128::from(other.num) * u128::from(self.den);
        left.cmp(&right)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// Why a net is outside the analyzable class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyticError {
    /// A place does not have exactly one producer and one consumer.
    NotMarkedGraph {
        /// The offending place.
        place: String,
        /// Producers found.
        producers: usize,
        /// Consumers found.
        consumers: usize,
    },
    /// An arc has weight other than 1.
    WeightedArc {
        /// The transition carrying the arc.
        transition: String,
    },
    /// The transition uses an inhibitor arc, predicate, action, or
    /// enabling time — outside the marked-graph class.
    NotPlainTimed {
        /// The offending transition.
        transition: String,
    },
    /// A firing time is an expression, not a constant.
    NonConstantDelay {
        /// The offending transition.
        transition: String,
    },
    /// A circuit carries no tokens: the net deadlocks (cycle time ∞).
    TokenFreeCircuit {
        /// The transitions on the dead circuit.
        circuit: Vec<String>,
    },
    /// The marked graph is not strongly connected, so no single cycle
    /// time governs every transition.
    NotStronglyConnected,
    /// The net has no circuits at all (acyclic): throughput is not
    /// circuit-limited.
    Acyclic,
}

impl fmt::Display for AnalyticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyticError::NotMarkedGraph {
                place,
                producers,
                consumers,
            } => write!(
                f,
                "place `{place}` has {producers} producer(s) and {consumers} consumer(s); a marked graph needs exactly 1/1"
            ),
            AnalyticError::WeightedArc { transition } => {
                write!(f, "transition `{transition}` has a weighted arc")
            }
            AnalyticError::NotPlainTimed { transition } => write!(
                f,
                "transition `{transition}` uses inhibitors/predicates/actions/enabling times"
            ),
            AnalyticError::NonConstantDelay { transition } => {
                write!(f, "transition `{transition}` has an expression-valued firing time")
            }
            AnalyticError::TokenFreeCircuit { circuit } => {
                write!(f, "token-free circuit (deadlock): {}", circuit.join(" -> "))
            }
            AnalyticError::NotStronglyConnected => {
                write!(f, "marked graph is not strongly connected")
            }
            AnalyticError::Acyclic => write!(f, "net has no circuits; throughput is unbounded"),
        }
    }
}

impl std::error::Error for AnalyticError {}

/// Result of cycle-time analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleTimeAnalysis {
    /// The exact steady-state cycle time (ticks per firing of every
    /// transition).
    pub cycle_time: Ratio,
    /// A critical circuit achieving the maximum ratio, as transitions in
    /// circuit order.
    pub critical_cycle: Vec<TransitionId>,
    /// Number of simple circuits examined.
    pub circuits_examined: usize,
}

impl CycleTimeAnalysis {
    /// Steady-state firings per tick of every transition (`1 / CT`).
    pub fn throughput(&self) -> f64 {
        1.0 / self.cycle_time.as_f64()
    }
}

/// Check the marked-graph preconditions and return, per place, its
/// producer and consumer.
fn marked_graph_edges(
    net: &Net,
) -> Result<Vec<(PlaceId, TransitionId, TransitionId)>, AnalyticError> {
    for (_, t) in net.transitions() {
        if !t.inhibitors().is_empty()
            || t.predicate().is_some()
            || t.action().is_some()
            || !t.enabling_time().is_zero_constant()
        {
            return Err(AnalyticError::NotPlainTimed {
                transition: t.name().to_string(),
            });
        }
        if t.inputs().iter().chain(t.outputs()).any(|&(_, w)| w != 1) {
            return Err(AnalyticError::WeightedArc {
                transition: t.name().to_string(),
            });
        }
        if let Delay::Expr(_) = t.firing_time() {
            return Err(AnalyticError::NonConstantDelay {
                transition: t.name().to_string(),
            });
        }
    }
    let mut edges = Vec::with_capacity(net.place_count());
    for (pid, p) in net.places() {
        let producers = net.producers(pid);
        let consumers = net.consumers(pid);
        if producers.len() != 1 || consumers.len() != 1 {
            return Err(AnalyticError::NotMarkedGraph {
                place: p.name().to_string(),
                producers: producers.len(),
                consumers: consumers.len(),
            });
        }
        edges.push((pid, producers[0], consumers[0]));
    }
    Ok(edges)
}

fn firing_ticks(net: &Net, t: TransitionId) -> u64 {
    match net.transition(t).firing_time() {
        Delay::Fixed(d) => *d,
        Delay::Expr(_) => unreachable!("checked by marked_graph_edges"),
    }
}

/// Analyze a strongly connected timed marked graph.
///
/// # Errors
///
/// See [`AnalyticError`] for each precondition violation.
pub fn analyze(net: &Net) -> Result<CycleTimeAnalysis, AnalyticError> {
    let edges = marked_graph_edges(net)?;
    let n = net.transition_count();
    // Adjacency: producer -> consumer, labeled by the place.
    let mut adj: Vec<Vec<(usize, PlaceId)>> = vec![Vec::new(); n];
    for &(p, from, to) in &edges {
        adj[from.index()].push((to.index(), p));
    }

    if n == 0 || edges.is_empty() {
        return Err(AnalyticError::Acyclic);
    }
    if !strongly_connected(&adj, n) {
        return Err(AnalyticError::NotStronglyConnected);
    }

    // Enumerate simple circuits (Johnson-style DFS restricted to start
    // nodes >= current root to avoid duplicates). Model nets are small;
    // this is exact and yields the critical circuit directly.
    let initial = net.initial_marking();
    let mut best: Option<(Ratio, Vec<TransitionId>)> = None;
    let mut examined = 0usize;

    for root in 0..n {
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)]; // (node, next edge idx)
        let mut path: Vec<(usize, PlaceId)> = Vec::new(); // (node, place entering it)
        let mut on_path = vec![false; n];
        on_path[root] = true;
        while let Some(&mut (node, ref mut edge_idx)) = stack.last_mut() {
            if *edge_idx < adj[node].len() {
                let (next, place) = adj[node][*edge_idx];
                *edge_idx += 1;
                if next == root {
                    // Found a circuit root -> ... -> node -> root.
                    examined += 1;
                    let mut transitions = vec![TransitionId::new(root)];
                    transitions.extend(path.iter().map(|&(v, _)| TransitionId::new(v)));
                    let mut places: Vec<PlaceId> = path.iter().map(|&(_, pl)| pl).collect();
                    places.push(place);
                    let delay: u64 = transitions.iter().map(|&t| firing_ticks(net, t)).sum();
                    let tokens: u64 = places.iter().map(|&pl| u64::from(initial.tokens(pl))).sum();
                    if tokens == 0 {
                        return Err(AnalyticError::TokenFreeCircuit {
                            circuit: transitions
                                .iter()
                                .map(|&t| net.transition(t).name().to_string())
                                .collect(),
                        });
                    }
                    let ratio = Ratio::new(delay, tokens);
                    if best.as_ref().is_none_or(|(b, _)| ratio > *b) {
                        best = Some((ratio, transitions));
                    }
                } else if next > root && !on_path[next] {
                    on_path[next] = true;
                    path.push((next, place));
                    stack.push((next, 0));
                }
            } else {
                stack.pop();
                if node != root {
                    on_path[node] = false;
                    path.pop();
                }
            }
        }
    }

    match best {
        Some((cycle_time, critical_cycle)) => Ok(CycleTimeAnalysis {
            cycle_time,
            critical_cycle,
            circuits_examined: examined,
        }),
        None => Err(AnalyticError::Acyclic),
    }
}

fn strongly_connected(adj: &[Vec<(usize, PlaceId)>], n: usize) -> bool {
    let reach = |adj_fn: &dyn Fn(usize) -> Vec<usize>| {
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for w in adj_fn(v) {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        seen.into_iter().all(|s| s)
    };
    let fwd = reach(&|v| adj[v].iter().map(|&(w, _)| w).collect());
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, row) in adj.iter().enumerate() {
        for &(w, _) in row {
            radj[w].push(v);
        }
    }
    let bwd = reach(&|v| radj[v].clone());
    fwd && bwd
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::{NetBuilder, Time};

    fn ring(delays: &[u64], tokens: u32) -> Net {
        let mut b = NetBuilder::new("ring");
        let n = delays.len();
        for i in 0..n {
            b.place(format!("p{i}"), if i == 0 { tokens } else { 0 });
        }
        for (i, &d) in delays.iter().enumerate() {
            b.transition(format!("t{i}"))
                .input(format!("p{i}"))
                .output(format!("p{}", (i + 1) % n))
                .firing(d)
                .add();
        }
        b.build().unwrap()
    }

    #[test]
    fn single_ring_cycle_time() {
        let net = ring(&[3, 2], 1);
        let r = analyze(&net).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(5, 1));
        assert_eq!(r.critical_cycle.len(), 2);
        assert_eq!(r.circuits_examined, 1);
    }

    #[test]
    fn tokens_divide_cycle_time() {
        // Two jobs in flight halve the cycle time.
        let net = ring(&[3, 2, 5], 2);
        let r = analyze(&net).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(10, 2));
        assert_eq!(r.cycle_time, Ratio::new(5, 1), "reduced");
        assert!((r.throughput() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn critical_cycle_dominates() {
        // Two rings sharing transition t0: slow ring (delay 10, 1 token)
        // and fast ring (delay 2, 1 token). CT = 10+1 = 11? Build:
        // t0 (1 tick) on both rings; ring A: t0->a->t1(10)->b->t0;
        // ring B: t0->c->t2(2)->d->t0.
        let mut b = NetBuilder::new("two_rings");
        b.places_empty(["a", "bq", "c", "dq"]);
        b.place("start_a", 1);
        b.place("start_b", 1);
        b.transition("t0")
            .input("start_a")
            .input("start_b")
            .output("a")
            .output("c")
            .firing(1)
            .add();
        b.transition("t1").input("a").output("bq").firing(10).add();
        b.transition("back_a").input("bq").output("start_a").add();
        b.transition("t2").input("c").output("dq").firing(2).add();
        b.transition("back_b").input("dq").output("start_b").add();
        let net = b.build().unwrap();
        let r = analyze(&net).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(11, 1), "slow ring limits");
        let names: Vec<&str> = r
            .critical_cycle
            .iter()
            .map(|&t| net.transition(t).name())
            .collect();
        assert!(
            names.contains(&"t1"),
            "critical cycle passes the slow stage"
        );
    }

    #[test]
    fn analytic_matches_simulation() {
        let net = ring(&[4, 3], 1);
        let r = analyze(&net).unwrap();
        let trace = pnut_sim::simulate(&net, 0, Time::from_ticks(7_000)).unwrap();
        let report = pnut_stat::analyze(&trace);
        let simulated = report.transition("t0").unwrap().throughput;
        assert!(
            (simulated - r.throughput()).abs() < 0.01,
            "analytic {} vs simulated {}",
            r.throughput(),
            simulated
        );
    }

    #[test]
    fn token_free_circuit_is_deadlock() {
        let net = ring(&[1, 1], 0);
        assert!(matches!(
            analyze(&net),
            Err(AnalyticError::TokenFreeCircuit { .. })
        ));
    }

    #[test]
    fn class_violations_reported() {
        // Choice place: two consumers.
        let mut b = NetBuilder::new("choice");
        b.place("p", 1);
        b.places_empty(["x", "y"]);
        b.transition("a").input("p").output("x").add();
        b.transition("bt").input("p").output("y").add();
        b.transition("ra").input("x").output("p").add();
        b.transition("rb").input("y").output("p").add();
        let net = b.build().unwrap();
        assert!(matches!(
            analyze(&net),
            Err(AnalyticError::NotMarkedGraph { .. })
        ));

        // Weighted arc.
        let mut b = NetBuilder::new("w");
        b.place("p", 2);
        b.place("q", 0);
        b.transition("t").input_weighted("p", 2).output("q").add();
        b.transition("r").input("q").output_weighted("p", 2).add();
        let net = b.build().unwrap();
        assert!(matches!(
            analyze(&net),
            Err(AnalyticError::WeightedArc { .. })
        ));

        // Enabling time.
        let mut b = NetBuilder::new("e");
        b.place("p", 1);
        b.place("q", 0);
        b.transition("t").input("p").output("q").enabling(2).add();
        b.transition("r").input("q").output("p").add();
        let net = b.build().unwrap();
        assert!(matches!(
            analyze(&net),
            Err(AnalyticError::NotPlainTimed { .. })
        ));
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = NetBuilder::new("disc");
        b.place("p", 1);
        b.place("q", 1);
        b.transition("t").input("p").output("p").firing(1).add();
        b.transition("u").input("q").output("q").firing(1).add();
        let net = b.build().unwrap();
        assert_eq!(analyze(&net), Err(AnalyticError::NotStronglyConnected));
    }

    #[test]
    fn ratio_ordering_and_display() {
        assert!(Ratio::new(5, 1) > Ratio::new(9, 2));
        assert_eq!(Ratio::new(10, 4), Ratio::new(5, 2));
        assert_eq!(Ratio::new(5, 2).to_string(), "5/2");
        assert_eq!(Ratio::new(5, 1).to_string(), "5");
        assert_eq!(Ratio::new(0, 7).as_f64(), 0.0);
    }
}
