#![forbid(unsafe_code)]

//! # pnut-bench — figure regeneration and benchmark harness
//!
//! One binary per figure of the paper's evaluation plus the intro
//! sweeps, and Criterion benches tracking the cost of each tool:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig1_3_structure` | Figures 1–3: the three subnets, structurally |
//! | `fig4_interpreted` | Figure 4: the interpreted operand-fetch net |
//! | `fig5_report` | Figure 5: the 10 000-cycle statistics report |
//! | `fig6_animation` | Figure 6: animation frames of the pipeline |
//! | `fig7_timeline` | Figure 7: the tracertool timing display |
//! | `sweeps` | intro claims: memory / buffer / mix / cache sweeps, pipelined vs sequential |
//!
//! Every binary accepts an optional seed as its first argument
//! (default 1) and prints to stdout; see EXPERIMENTS.md for the
//! paper-vs-measured record.

pub mod legacy_query;
pub mod legacy_reach;
pub mod ndjson;
pub mod workloads;

use pnut_core::TransitionId;
use pnut_pipeline::ThreeStageConfig;
use pnut_reach::{EdgeLabel, ReachError, ReachabilityGraph};

/// Parse `argv[1]` as the experiment seed (default 1).
pub fn seed_from_args() -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The paper's §2 configuration.
pub fn paper_config() -> ThreeStageConfig {
    ThreeStageConfig::default()
}

/// Whether `t` labels some edge of `g` (an L1-liveness witness): one
/// [`ReachabilityGraph::sweep`] over the edge rows that reads no row
/// after the first witness.
///
/// # Errors
///
/// [`ReachError::Spill`] if a segment reload or eviction fails.
pub fn fires(g: &mut ReachabilityGraph, t: TransitionId) -> Result<bool, ReachError> {
    let mut found = false;
    g.sweep(|i, guard| -> Result<(), ReachError> {
        found = found
            || guard
                .successors(i)?
                .iter()
                .any(|e| e.0 == EdgeLabel::Fire(t));
        Ok(())
    })?;
    Ok(found)
}

#[cfg(test)]
mod tests {
    #[test]
    fn paper_config_is_default() {
        assert_eq!(super::paper_config(), super::ThreeStageConfig::default());
    }
}
