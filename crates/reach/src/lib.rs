//! # pnut-reach — reachability analysis and temporal-logic verification
//!
//! The P-NUT system "includes tools for constructing and analyzing
//! complete reachability graphs (timed `[RP84]` and untimed `[MR87]`)"
//! (paper §4). This crate provides both constructions plus the
//! branching-time temporal-logic analyzer of `[MR87]` that the paper's
//! tracertool borrows its specification language from:
//!
//! * [`graph::build_untimed`] — classical occurrence-semantics
//!   reachability: states are (marking, variable-environment) pairs,
//!   firings are atomic. Detects deadlocks and per-place bounds.
//! * [`graph::build_timed`] — timed reachability per `[RP84]`: states
//!   additionally carry the multiset of in-flight firings with their
//!   remaining times; edges are either transition starts or time
//!   advances. All conflict alternatives are explored (reachability is
//!   about *possibility*, so firing frequencies are ignored).
//! * [`ctl`] — CTL-style branching-time temporal logic over either
//!   graph: `AG`, `EF`, `AF`, `EG`, `EX`, `AX`, `E[.U.]`, `A[.U.]` over
//!   atomic propositions comparing place token counts.
//! * [`coverability`] — the Karp–Miller tree for exact boundedness.
//!
//! # Representation
//!
//! State-space construction is bounded by duplicate-detection
//! throughput, so the data layout is built around it (see [`store`] for
//! the full story):
//!
//! * **Interned states.** A [`StateStore`] keeps each distinct state
//!   exactly once in flat arenas (markings as a dense `u32` matrix,
//!   in-flight multisets in CSR form, environments deduplicated
//!   separately). Duplicate detection is a raw open-addressing table of
//!   `(FxHash, index)` pairs probing straight into the arenas — no
//!   owned keys, no second copy of any state, no per-visit allocation.
//! * **CSR edges.** [`ReachabilityGraph`] stores all edges in flat
//!   `(label, target)` rows emitted directly by the breadth-first
//!   exploration, partitioned into the same fixed-state-count segments
//!   as the state arenas. Analyses that sweep edges repeatedly (CTL
//!   fixpoints, Markov-chain extraction) walk contiguous segment
//!   arrays instead of chasing one heap `Vec` per state.
//! * **Views, not copies.** [`ReachabilityGraph::state`] returns a
//!   borrowed [`StateRef`] into the arenas; nothing is materialized.
//!   Environments are interned as the slot rows expressions run on;
//!   [`ReachabilityGraph::env`] rebuilds a state's `Env` on demand.
//!   Every post-build accessor that may touch the pager is fallible
//!   (`Result<_, ReachError>`): a spill reload that fails degrades the
//!   one analysis that hit it, never the process.
//! * **Parallel frontiers.** With [`ReachOptions::jobs`] > 1 (or 0 for
//!   all cores), a wide BFS level is expanded by a scoped worker pool,
//!   a bounded batch of sources at a time: workers load their sources
//!   from the frozen store and compute successor rows without probing
//!   it, and the barrier interns the rows in source order, exactly as
//!   the sequential build does (see [`graph`] for the design). Narrow
//!   levels are expanded and interned source by source without
//!   spawning.
//! * **Disk-backed paging.** With [`ReachOptions::mem_budget`] set,
//!   cold level segments of the state *and edge* arenas spill to a
//!   temp file behind an LRU cache and fault back in on demand (see
//!   [`pager`]), so the state-count ceiling is disk, not RAM — the hot
//!   frontier stays resident and the graph is still bit-identical at
//!   any budget. Analyses honor the same budget: CTL fixpoints,
//!   Markov extraction and the P-invariant check read the graph
//!   segment-at-a-time through [`graph::SegmentGuard`]s, evicting
//!   between segments, so *verification* runs past RAM too. Deadlocks
//!   and place bounds read nothing back: the build keeps both as it
//!   appends each state and successor row.
//!
//! Construction is O(edges × marking width) time with exactly one arena
//! copy per distinct state; two builds of the same net yield
//! bit-identical graphs (exploration order is deterministic), **at any
//! worker count** — `jobs` is purely a throughput knob.
//!
//! # Example
//!
//! ```
//! use pnut_core::NetBuilder;
//! use pnut_reach::{ctl, graph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetBuilder::new("mutex");
//! b.place("free", 1);
//! b.place("a_cs", 0);
//! b.place("b_cs", 0);
//! b.transition("a_enter").input("free").output("a_cs").add();
//! b.transition("a_exit").input("a_cs").output("free").add();
//! b.transition("b_enter").input("free").output("b_cs").add();
//! b.transition("b_exit").input("b_cs").output("free").add();
//! let net = b.build()?;
//!
//! let mut g = graph::build_untimed(&net, &graph::ReachOptions::default())?;
//! let mutual_exclusion = ctl::Formula::parse("AG (a_cs + b_cs <= 1)")?;
//! assert!(ctl::check(&mut g, &net, &mutual_exclusion)?.holds_initially);
//! # Ok(())
//! # }
//! ```

// The pager/store module docs deliberately narrate internal machinery
// (segments, workers, spill files) with doc links so the story stays
// anchored to the code; those items are private on purpose.
#![allow(rustdoc::private_intra_doc_links)]

pub mod coverability;
pub mod ctl;
pub mod graph;
pub mod pager;
#[cfg(feature = "race-model")]
pub mod race;
pub mod store;
pub mod sync;

pub use coverability::{CoverOptions, CoverabilityTree};
pub use ctl::{CheckOutcome, CtlError, Formula};
pub use graph::{Edge, EdgeLabel, ReachError, ReachOptions, ReachabilityGraph, SegmentGuard};
pub use pager::{PagerConfig, SpillError};
pub use store::{FxHasher, MarkingView, StateRef, StateStore};
