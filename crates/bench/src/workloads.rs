//! Shared reachability workloads used by `benches/reach.rs` and the
//! golden equivalence tests.

use pnut_core::{Expr, Net, NetBuilder};
use pnut_pipeline::{interpreted, three_stage, ThreeStageConfig};

/// The §2 three-stage pipeline in the paper's configuration (614
/// untimed states).
pub fn three_stage_net() -> Net {
    three_stage::build(&ThreeStageConfig::default()).expect("paper config builds")
}

/// The §3 interpreted pipeline in its analysis variant — round-robin
/// dispatch, serialized branch resolution (3383 untimed states; the
/// simulation variant uses `irand` and is rejected by reachability).
pub fn interpreted_net() -> Net {
    let config = interpreted::InterpretedConfig {
        for_analysis: true,
        ..interpreted::InterpretedConfig::default()
    };
    interpreted::build(&config).expect("analysis config builds")
}

/// A timed fragment of the §2 pipeline: decode feeding a shared
/// execution unit with fixed firing delays and a concurrency-capped
/// memory stage. Historically the timed workload — the full pipeline
/// models use enabling times, which the timed construction rejected
/// before the enabling-clock state extension; kept as the small,
/// fast-to-build timed benchmark (the full pipelines are covered by the
/// `reach/timed/{three_stage,interpreted}` series). `tokens` scales the
/// instruction stream and with it the interleaving depth.
pub fn timed_fragment(tokens: u32) -> Net {
    let mut b = NetBuilder::new("timed_fragment");
    b.place("ibuf", tokens);
    b.place("decoded", 0);
    b.place("unit_free", 1);
    b.place("executing", 0);
    b.place("done", 0);
    b.transition("decode")
        .input("ibuf")
        .output("decoded")
        .firing(1)
        .add();
    b.transition("issue")
        .input("decoded")
        .input("unit_free")
        .output("executing")
        .add();
    b.transition("execute")
        .input("executing")
        .output("done")
        .output("unit_free")
        .firing(5)
        .max_concurrent(1)
        .add();
    b.transition("store")
        .input("done")
        .output("ibuf")
        .firing(2)
        .add();
    b.build().expect("fragment builds")
}

/// A tiny deterministic PRNG (splitmix64) so [`random_net`] and
/// [`random_marked_graph`] need no external crate and the same seed
/// always yields the same net.
struct Split64(u64);

impl Split64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `lo..=hi` (modulo bias is irrelevant here).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.range(0, 99) < percent
    }
}

/// A seeded, deterministic random net: a small place/transition net,
/// about half the time extended with a bounded data layer (variables,
/// a table, predicates, actions, and expression delays) so it
/// exercises the whole expression language.
///
/// Guarantees, independent of seed:
///
/// * always well-formed (builds without error);
/// * never uses `irand`, so reachability accepts every net;
/// * all variable/table values evolve under small moduli, so the data
///   component of the state space is finite;
/// * input-free transitions get an enabling delay of at least one tick,
///   so simulation never trips the instant-livelock guard;
/// * delay expressions never evaluate negative.
///
/// The *marking* component can still be unbounded (token-minting
/// loops); callers bound construction with
/// [`ReachOptions::max_states`](pnut_reach::ReachOptions) and skip the
/// overflow, as the random-net sweeps do.
pub fn random_net(seed: u64) -> Net {
    let mut r = Split64(seed);
    let mut b = NetBuilder::new(format!("random_{seed}"));
    let nplaces = r.range(1, 4) as usize;
    for i in 0..nplaces {
        b.place(format!("p{i}"), r.range(0, 3) as u32);
    }
    // About half the nets get the data layer; the rest stay plain
    // place/transition nets.
    let with_data = r.chance(50);
    if with_data {
        for v in 0..3 {
            b.var(format!("v{v}"), r.range(0, 3) as i64);
        }
        b.table("tab", (0..4).map(|_| r.range(0, 4) as i64).collect());
    }
    let predicates = ["v0 % 2 == 0", "v0 < 2", "v0 != v1", "tab[v0 % 4] <= 2"];
    let actions = [
        "v0 = (v0 + 1) % 3;",
        "v1 = tab[v0 % 4];",
        "tab[v0 % 4] = (tab[v0 % 4] + 1) % 5;",
        "v2 = min(v0, v1); v0 = max(v1, 1) % 3;",
        "v1 = abs(v0 - v1) % 4;",
    ];
    let delay_exprs = ["1 + 2", "v0 + 1", "tab[v1 % 4] % 4", "min(v0, 2)"];
    let ntrans = r.range(1, 4);
    for i in 0..ntrans {
        let mut tb = b.transition(format!("t{i}"));
        let ninputs = r.range(0, 2);
        for _ in 0..ninputs {
            tb = tb.input_weighted(
                format!("p{}", r.range(0, nplaces as u64 - 1)),
                r.range(1, 2) as u32,
            );
        }
        for _ in 0..r.range(0, 2) {
            tb = tb.output_weighted(
                format!("p{}", r.range(0, nplaces as u64 - 1)),
                r.range(1, 2) as u32,
            );
        }
        if r.chance(30) {
            tb = tb.inhibitor(format!("p{}", r.range(0, nplaces as u64 - 1)));
        }
        if with_data && r.chance(40) {
            tb = tb
                .predicate_str(predicates[r.range(0, predicates.len() as u64 - 1) as usize])
                .expect("generator predicates parse");
        }
        if with_data && r.chance(50) {
            tb = tb
                .action_str(actions[r.range(0, actions.len() as u64 - 1) as usize])
                .expect("generator actions parse");
        }
        // Delays: mostly constants; with the data layer, sometimes an
        // expression (a constant-foldable one — exercising the
        // builder's delay folding — or a genuinely data-dependent one).
        tb = if with_data && r.chance(35) {
            let e = delay_exprs[r.range(0, delay_exprs.len() as u64 - 1) as usize];
            tb.firing_expr(Expr::parse(e).expect("generator delays parse"))
        } else {
            tb.firing(r.range(0, 3))
        };
        let enabling = if ninputs == 0 {
            r.range(1, 3)
        } else {
            r.range(0, 3)
        };
        tb.enabling(enabling)
            .frequency(r.range(1, 16) as f64 / 4.0)
            .add();
    }
    b.build().expect("generated nets are well-formed")
}

/// A seeded, strongly connected timed marked graph: a ring of 2–6
/// transitions with one place per ring arc holding 1–2 tokens, plus 0–2
/// chord places between random transitions holding 0–2 tokens. Firing
/// delays are 1–5 ticks; there are no enabling delays.
///
/// Every place has one producer and one consumer and the ring connects
/// every transition, so `pnut_analytic::analyze` gives the exact cycle
/// time of each net, unless token-free chords alone close a circuit (a
/// chord from a transition to itself, or two chords forming a cycle)
/// and the net deadlocks.
pub fn random_marked_graph(seed: u64) -> Net {
    let mut r = Split64(seed);
    let mut b = NetBuilder::new(format!("marked_{seed}"));
    let ring = r.range(2, 6);
    for i in 0..ring {
        b.place(format!("ring{i}"), r.range(1, 2) as u32);
    }
    let chords: Vec<(u64, u64)> = (0..r.range(0, 2))
        .map(|c| {
            b.place(format!("chord{c}"), r.range(0, 2) as u32);
            (r.range(0, ring - 1), r.range(0, ring - 1))
        })
        .collect();
    for i in 0..ring {
        // Ring arc `i` runs from `t<i>` to `t<i + 1>`.
        let mut t = b
            .transition(format!("t{i}"))
            .input(format!("ring{}", (i + ring - 1) % ring))
            .output(format!("ring{i}"));
        for (c, &(from, to)) in chords.iter().enumerate() {
            if from == i {
                t = t.output(format!("chord{c}"));
            }
            if to == i {
                t = t.input(format!("chord{c}"));
            }
        }
        t.firing(r.range(1, 5)).add();
    }
    b.build().expect("generated marked graphs are well-formed")
}

/// `cells` independent one-shot toggles: cell `i` moves its single token
/// from `u<i>` to `d<i>` once. The untimed state space is the Boolean
/// lattice `2^cells` and BFS level `L` holds `C(cells, L)` states, so —
/// unlike the paper's pipelines, whose frontiers never exceed a few
/// dozen states — the middle levels are thousands of states wide. This
/// is the workload that actually exercises (and can show speedup from)
/// the parallel frontier exploration; the pipelines measure its
/// overhead on narrow frontiers instead.
pub fn wide_toggle(cells: u32) -> Net {
    let mut b = NetBuilder::new("wide_toggle");
    for i in 0..cells {
        b.place(format!("u{i}"), 1);
        b.place(format!("d{i}"), 0);
    }
    for i in 0..cells {
        b.transition(format!("flip{i}"))
            .input(format!("u{i}"))
            .output(format!("d{i}"))
            .add();
    }
    b.build().expect("toggle builds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_net_is_deterministic() {
        for seed in 0..20 {
            assert_eq!(random_net(seed), random_net(seed));
            assert_eq!(random_marked_graph(seed), random_marked_graph(seed));
        }
    }

    #[test]
    fn random_nets_vary_with_seed() {
        assert!((0..20).any(|s| random_net(s) != random_net(s + 1)));
    }

    #[test]
    fn random_nets_include_data_layers_and_expression_delays() {
        let mut with_pred = 0;
        let mut with_action = 0;
        let mut with_expr_delay = 0;
        for seed in 0..60 {
            let net = random_net(seed);
            for (_, t) in net.transitions() {
                with_pred += usize::from(t.predicate().is_some());
                with_action += usize::from(t.action().is_some());
                with_expr_delay += usize::from(!t.firing_time().is_fixed());
            }
        }
        assert!(with_pred > 0, "some net must carry a predicate");
        assert!(with_action > 0, "some net must carry an action");
        assert!(
            with_expr_delay > 0,
            "some net must keep a non-constant delay expression"
        );
    }
}
