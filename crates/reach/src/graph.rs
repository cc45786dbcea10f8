//! Reachability graph construction over the interned state store.
//!
//! States live in a [`StateStore`] (each distinct state exactly once, in
//! flat arenas — see [`crate::store`]); edges are kept in compressed
//! sparse row (CSR) form, partitioned into the same fixed-state-count
//! **segments** as the state arenas and paged through the same
//! machinery ([`crate::pager`]): breadth-first exploration discovers
//! and finishes states in index order, so the CSR rows are emitted
//! append-only in source order — exactly the access pattern the
//! seal/spill/fault path wants — and two builds of the same net produce
//! bit-identical graphs.
//!
//! # Reading a graph that is bigger than RAM
//!
//! Random access ([`ReachabilityGraph::state`],
//! [`ReachabilityGraph::successors`]) faults evicted segments back in
//! under `&self` but can never evict, so a full sweep through them
//! silently grows the resident set to the whole store. Analyses that
//! sweep — CTL fixpoints, [`ReachabilityGraph::deadlocks`],
//! [`ReachabilityGraph::place_bounds`], Markov extraction — instead
//! walk the graph **segment-at-a-time**: pin one segment with a
//! [`SegmentGuard`], scan its rows, drop the guard, and call
//! [`ReachabilityGraph::maintain`] (an `&mut` point, so eviction is
//! legal) before the next segment. That holds the resident envelope to
//! `budget + one pinned guard (state segment + edge segment) + one
//! segment of slack` for the *analysis* phase too, not just the build —
//! asserted by `tests/paged_analysis.rs`.
//!
//! # Exploration: one kernel, two sinks
//!
//! [`build_untimed`] and [`build_timed`] run the same breadth-first
//! driver at every job count. States are numbered densely in discovery
//! order, so a level is an index range: the initial state is the first
//! level, and each next level is every state first interned while
//! expanding the one before.
//!
//! The firing rule lives once, in `pnut-core`: readiness, the cap gate,
//! the predicate, both delays, token movement and the enabling-clock
//! decision are methods of the lowered transitions of
//! [`pnut_core::CompiledNet`], which the simulator runs too (see
//! "Lowered transitions" in [`pnut_core::expr::compile`]). This module
//! keeps only the explorer's scheduler, the `expand` kernel, which
//! turns one loaded state into its successor row. Every transition
//! that can start (ready, enabling clock run out, predicate true) is a
//! `Fire` edge, in id order. Clocks are relative countdowns. When
//! nothing can start, one maximal-progress `Advance` edge jumps to the
//! earliest pending completion or enabling deadline. Untimed builds run
//! the same rule with every firing atomic and no clocks, so they never
//! advance.
//!
//! The kernel hands each successor's environment and state to an intern
//! sink, and `jobs` alone picks which:
//!
//! * **Direct** (`jobs = 1`) interns straight into the [`StateStore`]
//!   and appends each row to the paged edge arena as soon as it is
//!   finished. It evicts at every `&mut` point: after each state load,
//!   inside each intern, and after each row.
//! * **Pending shards** (`jobs > 1`) probe the frozen store read-only and
//!   park misses in lock-striped pending shards under the *discovery
//!   key* `(source, edge seq)` of the edge that found them. Levels of at
//!   least `max(jobs, 2) × 48` states are split over scoped threads;
//!   smaller ones run inline. At the level barrier the novel states are
//!   spliced into the store, pending targets are rewritten, the rows are
//!   appended, and the store evicts. The barrier is this sink's only
//!   eviction point.
//!
//! Every `jobs` × budget setting builds a bit-identical graph. The
//! ascending discovery-key order in which the barrier commits a level's
//! states (and the environments its actions mint) is exactly the order
//! in which the direct sink interns them, so both number every state
//! and environment alike; and paging only changes where rows live,
//! never what they hold. Only the work differs: the shards probe the
//! frozen store during the level and again for each novel state at the
//! splice, so the two sinks report different store and pager counters.

use crate::pager::{EdgeSegment, PagedEdges, PagerConfig, SegmentData, SpillError};
use crate::store::{self, EnvRef, MarkingView, PendingShard, StateRef, StateStore};
use crate::sync::Mutex;
use pnut_core::expr::compile::{self as bc, Clock};
use pnut_core::{Env, Net, TransitionId};
use pnut_obs as obs;
use std::cell::OnceCell;
use std::fmt;
use std::ops::{DerefMut, Range};

/// Limits for graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachOptions {
    /// Stop with [`ReachError::StateLimit`] beyond this many states.
    pub max_states: usize,
    /// Worker threads for frontier exploration: `1` builds sequentially,
    /// `0` uses [`std::thread::available_parallelism`], anything else is
    /// an explicit thread count. Every job count produces a bit-identical
    /// graph (see [`crate::store`] for how the level barrier guarantees
    /// it), so this is purely a throughput knob.
    pub jobs: usize,
    /// Resident byte budget for the state arenas; cold level segments
    /// beyond it spill to a temp file and are reloaded on demand (see
    /// [`crate::pager`]). `usize::MAX` (the default) keeps everything
    /// in memory. Like `jobs`, this never changes the result — the
    /// graph is bit-identical at any budget.
    pub mem_budget: usize,
    /// Directory for the spill file; `None` uses the system temp dir.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl ReachOptions {
    /// The actual worker count: resolves `jobs == 0` to the machine's
    /// available parallelism (falling back to 1 when unknown).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }

    /// The pager half of the options.
    fn pager_config(&self) -> PagerConfig {
        PagerConfig {
            mem_budget: self.mem_budget,
            spill_dir: self.spill_dir.clone(),
        }
    }
}

impl Default for ReachOptions {
    fn default() -> Self {
        ReachOptions {
            max_states: 100_000,
            jobs: 1,
            mem_budget: usize::MAX,
            spill_dir: None,
        }
    }
}

/// Construction errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ReachError {
    /// The state space exceeded [`ReachOptions::max_states`] — the net
    /// may be unbounded.
    StateLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// The net uses `irand`; reachability must be deterministic.
    UsesRandom,
    /// A predicate or action failed to evaluate.
    Eval {
        /// The transition involved.
        transition: String,
        /// The underlying failure.
        source: pnut_core::EvalError,
    },
    /// A transition expression failed to lower to bytecode (names the
    /// transition and the offending expression). Expressions from the
    /// surface language never hit this; it bounds pathological
    /// programmatically-built nets.
    Compile(pnut_core::CompileError),
    /// Timed construction requires constant (non-expression) delays.
    /// Only the frozen seed construction (`pnut_bench::legacy_reach`)
    /// raises this today: [`build_timed`] resolves deterministic
    /// expression firing *and enabling* times per state (against the
    /// environment at arm time, exactly like the simulator).
    NonConstantDelay {
        /// The transition with an expression-valued delay.
        transition: String,
    },
    /// Coverability analysis requires a *plain* net: no inhibitor arcs,
    /// predicates, or actions (they break the monotonicity that the
    /// Karp–Miller acceleration relies on).
    NotPlain {
        /// The offending transition.
        transition: String,
    },
    /// Firing a transition produced an inconsistent marking: a token
    /// count overflowed `u32`, or an input place underflowed despite the
    /// enablement check (unreachable unless an internal invariant is
    /// broken — `NetBuilder` merges duplicate arcs, and enablement
    /// covers the merged weight). The seed construction only
    /// `debug_assert!`-ed this; it is a hard error so release builds can
    /// never continue from a corrupted marking.
    MarkingCorrupt {
        /// The transition being fired.
        transition: String,
        /// What exactly went wrong.
        detail: &'static str,
    },
    /// A store arena or index space overflowed its representation (more
    /// than `u32::MAX` states, environments, edges, or in-flight
    /// entries). The seed construction `expect`-panicked here; it is a
    /// hard error so release builds fail cleanly on astronomically large
    /// state spaces instead of aborting.
    CapacityExceeded {
        /// Which arena or index space overflowed.
        resource: &'static str,
    },
    /// Spill-file I/O failed while paging a cold level segment out or
    /// back in (see [`crate::pager`]): disk full, an unwritable
    /// `spill_dir`, or the temp file disappearing mid-build.
    Spill(SpillError),
}

impl fmt::Display for ReachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReachError::StateLimit { limit } => {
                write!(f, "state space exceeds {limit} states (unbounded net?)")
            }
            ReachError::UsesRandom => write!(f, "net uses irand; reachability requires determinism"),
            ReachError::Eval { transition, source } => {
                write!(f, "evaluation failed in `{transition}`: {source}")
            }
            ReachError::Compile(e) => write!(f, "{e}"),
            ReachError::NonConstantDelay { transition } => write!(
                f,
                "timed reachability requires constant delays (`{transition}`)"
            ),
            ReachError::NotPlain { transition } => write!(
                f,
                "coverability requires a plain net without inhibitors/predicates/actions (`{transition}`)"
            ),
            ReachError::MarkingCorrupt { transition, detail } => write!(
                f,
                "firing `{transition}` corrupted the marking: {detail}"
            ),
            ReachError::CapacityExceeded { resource } => {
                write!(f, "reachability store capacity exceeded: {resource}")
            }
            ReachError::Spill(e) => write!(f, "state-store paging failed: {e}"),
        }
    }
}

impl std::error::Error for ReachError {}

/// An edge label: a transition start, or the passage of time to the
/// next completion (timed graphs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeLabel {
    /// Transition `t` started (and, untimed, completed) firing.
    Fire(TransitionId),
    /// Time advanced by the given number of ticks.
    Advance(u64),
}

/// One outgoing edge: the label and the target state index.
pub type Edge = (EdgeLabel, u32);

/// A reachability graph: interned states, CSR-packed labeled edges
/// (paged on the same segment grain as the states, against the same
/// byte budget), and the initial state (index 0).
#[derive(Debug)]
pub struct ReachabilityGraph {
    store: StateStore,
    /// The paged CSR edge arena: the successor row of state `i` lives
    /// in edge segment `i / seg_states`.
    edges: PagedEdges,
}

/// Two graphs are equal iff they hold the same states in the same
/// order with the same edges — paging grain, residency, and spill
/// layout are ignored (comparing faults spilled segments back in).
impl PartialEq for ReachabilityGraph {
    fn eq(&self, other: &Self) -> bool {
        self.store == other.store && self.edges == other.edges
    }
}

impl ReachabilityGraph {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.edge_count()
    }

    /// The interned state store (markings, environments, in-flight
    /// multisets).
    pub fn store(&self) -> &StateStore {
        &self.store
    }

    /// A view of state `i`, faulting its segment in if evicted.
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the state segment fails to reload.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn state(&self, i: usize) -> Result<StateRef<'_>, ReachError> {
        self.store.state(i)
    }

    /// Outgoing edges of state `i` as `(label, target)` pairs, faulting
    /// the edge segment in if evicted.
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the edge segment fails to reload.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn successors(&self, i: usize) -> Result<&[Edge], ReachError> {
        self.edges.row(i)
    }

    // -- segment-order read path ------------------------------------------

    /// Number of segments the graph is partitioned into (states and
    /// edges share the grain, so this counts both).
    pub fn segment_count(&self) -> usize {
        self.store.segment_count()
    }

    /// The global state range covered by segment `seg`.
    pub fn segment_range(&self, seg: usize) -> Range<usize> {
        self.store.segment_range(seg)
    }

    /// Pin segment `seg` for scanning: the returned [`SegmentGuard`]
    /// gives row access to the segment's states and successor lists
    /// without re-touching the pager's LRU per row, and — because it is
    /// a shared borrow of the graph — *provably* blocks eviction for
    /// its lifetime (eviction needs `&mut`; see [`crate::pager`] for
    /// the aliasing argument). Pinning is lazy and free of I/O: the
    /// state and edge segments fault in on the first row access of each
    /// family, so a sweep that only reads edges never loads the
    /// markings.
    ///
    /// The intended loop is: pin, scan the rows, drop the guard, call
    /// [`Self::maintain`], move to the next segment — which is what
    /// [`Self::for_each_state_in_segments`] packages.
    pub fn pin_segment(&self, seg: usize) -> SegmentGuard<'_> {
        SegmentGuard {
            graph: self,
            seg,
            range: self.segment_range(seg),
            states: OnceCell::new(),
            edges: OnceCell::new(),
        }
    }

    /// Eager form of [`Self::pin_segment`]: faults both the state and
    /// the edge segment in up front, so a sweep that wants its I/O
    /// failure before touching any row gets it here instead of from
    /// the first row accessor.
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if either family's segment fails to
    /// reload.
    pub fn try_pin_segment(&self, seg: usize) -> Result<SegmentGuard<'_>, ReachError> {
        let guard = self.pin_segment(seg);
        guard.state_rows()?;
        guard.edge_rows()?;
        Ok(guard)
    }

    /// Evict cold segments (edges first — analysis sweeps re-read them
    /// in order anyway — then states) until the shared resident total
    /// fits the budget again. A no-op while under budget; the legal
    /// eviction point between two pinned segments of an analysis sweep.
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if writing an evicted segment fails.
    pub fn maintain(&mut self) -> Result<(), ReachError> {
        self.edges.maintain()?;
        self.store.maintain()
    }

    /// Scan every state in segment order — pin a segment, visit its
    /// states (`f(index, state, successors)`), unpin, evict back under
    /// budget, repeat — so a full sweep stays inside the analysis
    /// budget envelope instead of faulting the whole store resident.
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if a segment reload or eviction fails.
    pub fn for_each_state_in_segments<F>(&mut self, mut f: F) -> Result<(), ReachError>
    where
        F: FnMut(usize, StateRef<'_>, &[Edge]),
    {
        for seg in 0..self.segment_count() {
            {
                let guard = self.pin_segment(seg);
                for i in guard.range() {
                    f(i, guard.state(i)?, guard.successors(i)?);
                }
            }
            self.maintain()?;
        }
        Ok(())
    }

    // -- analyses (all segment-ordered, so they honor the byte budget) ----

    /// Indices of deadlock states (no outgoing edges). Scans the edge
    /// segments in order, evicting between segments, so the resident
    /// envelope holds even on graphs larger than the budget.
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if a segment reload or eviction fails;
    /// the graph stays usable and a retry re-faults from scratch.
    pub fn deadlocks(&mut self) -> Result<Vec<usize>, ReachError> {
        let mut out = Vec::new();
        for seg in 0..self.segment_count() {
            {
                let guard = self.pin_segment(seg);
                for i in guard.range() {
                    if guard.successors(i)?.is_empty() {
                        out.push(i);
                    }
                }
            }
            self.maintain()?;
        }
        Ok(out)
    }

    /// The bound of each place: the maximum token count over all
    /// reachable states (a net is k-bounded iff every entry ≤ k).
    /// Segment-ordered like [`Self::deadlocks`].
    ///
    /// # Errors
    ///
    /// As [`Self::deadlocks`].
    pub fn place_bounds(&mut self) -> Result<Vec<u32>, ReachError> {
        let places = self.store.places();
        let mut bounds = vec![0u32; places];
        for seg in 0..self.segment_count() {
            {
                let guard = self.pin_segment(seg);
                for i in guard.range() {
                    for (b, &t) in bounds.iter_mut().zip(guard.marking(i)?) {
                        *b = (*b).max(t);
                    }
                }
            }
            self.maintain()?;
        }
        Ok(bounds)
    }

    /// Whether `transition` fires on some edge (L1-liveness witness).
    /// Segment-ordered like [`Self::deadlocks`]; returns at the first
    /// witness.
    ///
    /// # Errors
    ///
    /// As [`Self::deadlocks`].
    pub fn ever_fires(&mut self, transition: TransitionId) -> Result<bool, ReachError> {
        for seg in 0..self.segment_count() {
            let found = {
                let guard = self.pin_segment(seg);
                let mut found = false;
                for i in guard.range() {
                    if guard
                        .successors(i)?
                        .iter()
                        .any(|&(l, _)| l == EdgeLabel::Fire(transition))
                    {
                        found = true;
                        break;
                    }
                }
                found
            };
            // Evict even on the witness path, so a following sweep
            // starts from an under-budget resident set and the
            // envelope never stacks two pinned guards.
            self.maintain()?;
            if found {
                return Ok(true);
            }
        }
        Ok(false)
    }

    // -- budget diagnostics -----------------------------------------------

    /// Resident paged-arena bytes right now (states and edges — one
    /// shared ledger).
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_arena_bytes()
    }

    /// High-water mark of [`Self::resident_bytes`].
    pub fn peak_resident_bytes(&self) -> usize {
        self.store.peak_resident_arena_bytes()
    }

    /// Restart [`Self::peak_resident_bytes`] tracking from the current
    /// resident level. The budget-envelope test harness calls this
    /// after the build so the recorded peak measures the *analysis*
    /// phase alone.
    pub fn reset_peak_resident_bytes(&mut self) {
        self.store.reset_peak_resident_bytes();
    }

    /// Total bytes spilled to disk (state + edge images).
    pub fn spilled_bytes(&self) -> usize {
        self.store.spilled_bytes() + self.edges.spilled_bytes()
    }

    /// Content bytes of the largest sealed state segment.
    pub fn max_state_segment_bytes(&self) -> usize {
        self.store.max_segment_bytes()
    }

    /// Content bytes of the largest sealed edge segment.
    pub fn max_edge_segment_bytes(&self) -> usize {
        self.edges.max_segment_bytes()
    }

    /// Approximate heap footprint of the graph in bytes: the shared
    /// resident-arena ledger (state *and* edge segments) plus the
    /// always-resident intern tables and environments.
    pub fn approx_bytes(&self) -> usize {
        // `StateStore::approx_bytes` already reads the shared ledger,
        // which covers the edge arena too.
        self.store.approx_bytes()
    }
}

/// A pinned segment of a [`ReachabilityGraph`]: row access to
/// `seg_states` consecutive states and their successor lists.
///
/// # What pinning means, and why it is sound
///
/// The guard holds `&ReachabilityGraph`. Eviction — the only operation
/// that frees segment memory — requires `&mut ReachabilityGraph`
/// ([`ReachabilityGraph::maintain`]), so while any guard is alive the
/// borrow checker statically rules out eviction: every `&[u32]` /
/// `&[Edge]` the guard hands out stays valid for the guard's lifetime
/// with no reference counting at run time. Faulting a segment *in*
/// under `&self` only ever installs memory (see [`crate::pager`]),
/// which is why lazy pinning is safe too.
///
/// The flip side: eviction can only run once the guard is dropped, so a
/// sweep holding one guard at a time keeps the resident envelope at
/// `budget + one state segment + one edge segment` (+ one segment of
/// transient slack while the next pin faults before `maintain` evicts).
///
/// # Errors and panics
///
/// Row accessors return [`ReachError::Spill`] if a spilled segment
/// fails to reload (disk error, short read, bad image header), and
/// panic only on indices outside [`Self::range`] — a caller bug, not
/// an environment failure. [`ReachabilityGraph::try_pin_segment`]
/// front-loads both families' faults for sweeps that want the I/O
/// error before touching any row.
pub struct SegmentGuard<'g> {
    graph: &'g ReachabilityGraph,
    seg: usize,
    range: Range<usize>,
    /// Lazily faulted state rows (markings, env ids, in-flight,
    /// enabling clocks).
    states: OnceCell<&'g SegmentData>,
    /// Lazily faulted successor rows.
    edges: OnceCell<&'g EdgeSegment>,
}

impl<'g> SegmentGuard<'g> {
    /// The global state indices this guard covers.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    fn local(&self, i: usize) -> usize {
        assert!(
            self.range.contains(&i),
            "state {i} outside pinned segment {:?}",
            self.range
        );
        i - self.range.start
    }

    fn state_rows(&self) -> Result<&'g SegmentData, ReachError> {
        if let Some(s) = self.states.get() {
            return Ok(s);
        }
        let s = self.graph.store.state_segment(self.seg)?;
        let _ = self.states.set(s);
        Ok(s)
    }

    fn edge_rows(&self) -> Result<&'g EdgeSegment, ReachError> {
        if let Some(s) = self.edges.get() {
            return Ok(s);
        }
        let s = self.graph.edges.segment(self.seg)?;
        let _ = self.edges.set(s);
        Ok(s)
    }

    /// The marking row of state `i` (global index).
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the state segment fails to reload.
    pub fn marking(&self, i: usize) -> Result<&'g [u32], ReachError> {
        let local = self.local(i);
        Ok(self.state_rows()?.marking(local, self.graph.store.places()))
    }

    /// A full view of state `i` (global index).
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the state segment fails to reload.
    pub fn state(&self, i: usize) -> Result<StateRef<'g>, ReachError> {
        let local = self.local(i);
        let rows = self.state_rows()?;
        Ok(StateRef {
            marking: MarkingView::new(rows.marking(local, self.graph.store.places())),
            env: self.graph.store.env(rows.env_id(local)),
            in_flight: rows.in_flight(local),
            enabling: rows.enabling(local),
        })
    }

    /// The successor row of state `i` (global index).
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the edge segment fails to reload.
    pub fn successors(&self, i: usize) -> Result<&'g [Edge], ReachError> {
        let local = self.local(i);
        Ok(self.edge_rows()?.row(local))
    }
}

// ---------------------------------------------------------------------------
// The expansion kernel
// ---------------------------------------------------------------------------

/// One state in scratch form: a copy that stays stable while the store
/// grows.
#[derive(Default)]
struct StateBuf {
    marking: Vec<u32>,
    /// Marking-part hash of `marking` (see
    /// [`StateStore::marking_elem_hash`]), maintained incrementally.
    hash: u64,
    /// In-flight firings as `(transition, remaining ticks)`, sorted.
    in_flight: Vec<(TransitionId, u64)>,
    /// Enabling clocks as `(transition, countdown)`, sorted by id.
    enabling: Vec<(TransitionId, u64)>,
}

impl StateBuf {
    /// In-flight firings of `t`.
    #[inline]
    fn in_flight_of(&self, t: TransitionId) -> u32 {
        self.in_flight.iter().filter(|&&(x, _)| x == t).count() as u32
    }

    /// Apply transition `t`'s token `delta` to the marking, keeping its
    /// commutative hash in sync.
    #[inline]
    fn apply(
        &mut self,
        net: &Net,
        t: TransitionId,
        delta: &[(u32, i64)],
    ) -> Result<(), ReachError> {
        for &(p, d) in delta {
            let p = p as usize;
            let old = self.marking[p];
            let new = i64::from(old) + d;
            let Ok(new) = u32::try_from(new) else {
                return Err(ReachError::MarkingCorrupt {
                    transition: net.transition(t).name().to_string(),
                    detail: if new < 0 {
                        "input place underflow (arc weights exceed tokens)"
                    } else {
                        "token count overflowed u32"
                    },
                });
            };
            self.marking[p] = new;
            self.hash = self
                .hash
                .wrapping_sub(StateStore::marking_elem_hash(p, old))
                .wrapping_add(StateStore::marking_elem_hash(p, new));
        }
        Ok(())
    }
}

/// Reusable per-worker scratch: the state under expansion, the
/// successor under construction, their slot-form environments and the
/// bytecode registers, so successor generation is allocation-free on
/// the steady state.
#[derive(Default)]
struct Scratch {
    cur: StateBuf,
    next: StateBuf,
    /// Slot-form environment of the state under expansion.
    cur_slots: bc::EnvSlots,
    /// Which interned env id `cur_slots` holds: consecutive states
    /// usually share an environment, so reloads are skipped.
    loaded_env: Option<u32>,
    /// Slot-form successor environment (after an action).
    next_slots: bc::EnvSlots,
    /// Bytecode register file, shared by every program.
    vm: bc::Scratch,
}

impl Scratch {
    /// Load state `src` into `cur` (faulting its segment in if evicted)
    /// and its environment into `cur_slots`; returns its env id.
    fn load(
        &mut self,
        map: &bc::SlotMap,
        store: &StateStore,
        src: usize,
    ) -> Result<u32, ReachError> {
        let cur = &mut self.cur;
        cur.marking.clear();
        cur.marking.extend_from_slice(store.try_marking_slice(src)?);
        cur.hash = StateStore::marking_hash(&cur.marking);
        cur.in_flight.clear();
        cur.in_flight
            .extend_from_slice(store.try_in_flight_slice(src)?);
        cur.enabling.clear();
        cur.enabling
            .extend_from_slice(store.try_enabling_slice(src)?);
        let env = store.try_env_id(src)?;
        if self.loaded_env != Some(env) {
            self.cur_slots.load(map, store.env(env));
            self.loaded_env = Some(env);
        }
        Ok(env)
    }

    /// Reset the successor's marking to the current one.
    #[inline]
    fn begin_next(&mut self) {
        self.next.marking.clone_from(&self.cur.marking);
        self.next.hash = self.cur.hash;
    }
}

/// The scheduler of one net's firing rule, shared read-only by every
/// worker. The rule itself is `pnut-core`'s lowered
/// [`bc::CompiledTransition`], which the simulator runs too.
struct Rule<'n> {
    net: &'n Net,
    /// Every transition, lowered once per build, with its slot map.
    programs: bc::CompiledNet,
    /// Timed semantics: firing delays, concurrency caps, enabling
    /// clocks and time advances. Untimed firings are atomic.
    timed: bool,
}

impl<'n> Rule<'n> {
    fn new(net: &'n Net, timed: bool) -> Result<Self, ReachError> {
        Ok(Rule {
            net,
            programs: bc::CompiledNet::compile(net).map_err(ReachError::Compile)?,
            timed,
        })
    }

    fn eval_err(&self, t: TransitionId, source: pnut_core::EvalError) -> ReachError {
        ReachError::Eval {
            transition: self.net.transition(t).name().to_string(),
            source,
        }
    }

    /// Recompute the successor's enabling clocks into `next.enabling`
    /// with the shared clock rule, [`bc::CompiledTransition::clock`]
    /// (untimed builds keep none). Clocks are relative countdowns:
    ///
    /// * constant-0 enabling delays are skipped before asking, so they
    ///   are never stored;
    /// * readiness and the predicate are judged on the successor, whose
    ///   environment is the post-action `next_slots` when `acted`, else
    ///   `cur_slots`; a fresh delay resolves against it too;
    /// * a clock already counting in the current state keeps running,
    ///   minus `elapsed` ticks for an `Advance` edge (readiness cannot
    ///   change mid-interval: the marking only moves at the endpoints),
    ///   except for the transition that just `fired`, which re-arms.
    ///
    /// Entries come out sorted by transition id.
    fn refresh_clocks(
        &self,
        sc: &mut Scratch,
        acted: bool,
        fired: Option<TransitionId>,
        elapsed: u64,
    ) -> Result<(), ReachError> {
        sc.next.enabling.clear();
        if !self.timed {
            return Ok(());
        }
        let map = &self.programs.map;
        let slots = if acted { &sc.next_slots } else { &sc.cur_slots };
        for (i, ct) in self.programs.transitions.iter().enumerate() {
            if ct.enabling.is_zero_constant() {
                continue;
            }
            let (id, vm) = (TransitionId::new(i), &mut sc.vm);
            let ready = ct.ready(&sc.next.marking, || sc.next.in_flight_of(id))
                && ct
                    .predicate_holds(slots, map, vm)
                    .map_err(|e| self.eval_err(id, e))?;
            let running = || {
                let cur = sc.cur.enabling.iter().find(|&&(x, _)| x == id);
                cur.filter(|_| fired != Some(id)).map(|&(_, k)| k)
            };
            let clock = ct.clock(ready, running, slots, map, vm, None);
            let countdown = match clock.map_err(|e| self.eval_err(id, e))? {
                Clock::Off => continue,
                Clock::Keep(k) => k - elapsed,
                Clock::Arm(k) => k,
            };
            sc.next.enabling.push((id, countdown));
        }
        Ok(())
    }

    /// Arm the initial state's enabling clocks into `sc.next.enabling`:
    /// the simulator refreshes its clocks before the first step, so
    /// every initially ready transition starts with a full countdown.
    fn arm_initial(
        &self,
        sc: &mut Scratch,
        store: &StateStore,
        initial_env: u32,
    ) -> Result<(), ReachError> {
        sc.cur_slots
            .load(&self.programs.map, store.env(initial_env));
        sc.loaded_env = Some(initial_env);
        sc.next.marking = self.net.initial_marking().as_slice().to_vec();
        self.refresh_clocks(sc, false, None, 0)
    }

    /// The kernel: expand state `src` into its successor `row`,
    /// interning every successor through `sink`. On error, `row` holds
    /// the edges before the one that failed, so `row.len()` is that
    /// edge's sequence number.
    fn expand<S: Sink>(
        &self,
        sc: &mut Scratch,
        sink: &mut S,
        src: usize,
        row: &mut Vec<(EdgeLabel, S::Target)>,
    ) -> Result<(), ReachError> {
        row.clear();
        let map = &self.programs.map;
        let env_id = sc.load(map, sink.store(), src)?;
        sink.loaded()?;
        let mut can_start = false;
        for (i, ct) in self.programs.transitions.iter().enumerate() {
            let id = TransitionId::new(i);
            // Enabling gate: a transition whose enabling clock is still
            // counting down cannot start. (Ready transitions with a
            // pending delay always carry a clock entry, so a missing
            // entry means the resolved delay was 0.)
            if !ct.ready(&sc.cur.marking, || sc.cur.in_flight_of(id))
                || sc.cur.enabling.iter().any(|&(x, k)| x == id && k > 0)
                || !ct
                    .predicate_holds(&sc.cur_slots, map, &mut sc.vm)
                    .map_err(|e| self.eval_err(id, e))?
            {
                continue;
            }
            can_start = true;
            let key = discovery_key(src, row.len());
            // The action runs before the firing delay is resolved, as in
            // the simulator, so table-driven models compute their own
            // firing times (paper §3).
            let env = match &ct.action {
                None => S::EnvId::from(env_id),
                Some(action) => {
                    sc.next_slots.copy_from(&sc.cur_slots);
                    action
                        .apply_pure(&mut sc.next_slots, map, &mut sc.vm)
                        .map_err(|e| self.eval_err(id, e))?;
                    sink.intern_env(&sc.next_slots.to_env(map), key)?
                }
            };
            let acted = ct.action.is_some();
            let ft = if self.timed {
                let slots = if acted { &sc.next_slots } else { &sc.cur_slots };
                ct.firing
                    .resolve(slots, map, &mut sc.vm, None)
                    .map_err(|e| self.eval_err(id, e))?
            } else {
                0
            };
            // Zero-delay firings are atomic: outputs appear immediately
            // and the in-flight multiset is unchanged.
            sc.begin_next();
            let delta = if ft == 0 { &ct.atomic } else { &ct.start };
            sc.next.apply(self.net, id, delta)?;
            sc.next.in_flight.clone_from(&sc.cur.in_flight);
            if ft != 0 {
                sc.next.in_flight.push((id, ft));
                sc.next.in_flight.sort_unstable();
            }
            self.refresh_clocks(sc, acted, Some(id), 0)?;
            row.push((EdgeLabel::Fire(id), sink.intern_state(&sc.next, env, key)?));
        }

        // Maximal-progress time advance: only when nothing can start and
        // something is pending — an in-flight completion or an enabling
        // deadline (when nothing can start, every enabling countdown is
        // positive, so `dt` is always > 0).
        if can_start {
            return Ok(());
        }
        let pending = sc.cur.in_flight.iter().chain(&sc.cur.enabling);
        let Some(dt) = pending.map(|&(_, r)| r).min() else {
            return Ok(());
        };
        debug_assert!(dt > 0, "zero advance would loop forever");
        let key = discovery_key(src, row.len());
        sc.begin_next();
        sc.next.in_flight.clear();
        for &(tid, r) in &sc.cur.in_flight {
            if r == dt {
                let done = &self.programs.transitions[tid.index()].end;
                sc.next.apply(self.net, tid, done)?;
            } else {
                sc.next.in_flight.push((tid, r - dt));
            }
        }
        sc.next.in_flight.sort_unstable();
        self.refresh_clocks(sc, false, None, dt)?;
        let target = sink.intern_state(&sc.next, S::EnvId::from(env_id), key)?;
        row.push((EdgeLabel::Advance(dt), target));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Intern sinks
// ---------------------------------------------------------------------------

/// Where the kernel interns the successors it builds (see the module
/// docs for the two implementations and their eviction points).
trait Sink {
    /// How a successor names its environment.
    type EnvId: Copy + From<u32>;
    /// How an edge names its target state.
    type Target;
    /// The committed store source states are loaded from.
    fn store(&self) -> &StateStore;
    /// Called after each source state is loaded.
    fn loaded(&mut self) -> Result<(), ReachError>;
    /// Intern a post-action environment found by the edge with
    /// discovery `key`.
    fn intern_env(&mut self, env: &Env, key: u64) -> Result<Self::EnvId, ReachError>;
    /// Intern the successor `next` found by the edge with discovery
    /// `key`.
    fn intern_state(
        &mut self,
        next: &StateBuf,
        env: Self::EnvId,
        key: u64,
    ) -> Result<Self::Target, ReachError>;
}

/// The `jobs = 1` sink: interns straight into the committed store.
struct Direct<'s> {
    store: &'s mut StateStore,
    /// Checked before every append, so a [`ReachError::StateLimit`]
    /// leaves the store with exactly `max_states` states.
    max_states: usize,
}

impl Sink for Direct<'_> {
    type EnvId = u32;
    type Target = u32;

    fn store(&self) -> &StateStore {
        self.store
    }

    /// Loading may fault the source's segment back in; evict right
    /// away, so the resident envelope stays at most one segment above
    /// the budget between interns.
    fn loaded(&mut self) -> Result<(), ReachError> {
        self.store.maintain()
    }

    fn intern_env(&mut self, env: &Env, _key: u64) -> Result<u32, ReachError> {
        self.store.intern_env(env)
    }

    fn intern_state(&mut self, next: &StateBuf, env: u32, _key: u64) -> Result<u32, ReachError> {
        let (target, _) = self.store.intern_bounded(
            &next.marking,
            next.hash,
            env,
            &next.in_flight,
            &next.enabling,
            self.max_states,
        )?;
        Ok(target as u32)
    }
}

/// The discovery key of the `seq`-th edge out of state `src`: the
/// position of that edge in the direct sink's traversal order. Pending
/// states and environments are committed in ascending key order at the
/// level barrier.
fn discovery_key(src: usize, seq: usize) -> u64 {
    ((src as u64) << 32) | seq as u64
}

/// An edge target during a sharded level: either a state the committed
/// store already holds, or a packed pending id into the level's shards
/// (rewritten to a dense index at the barrier).
#[derive(Debug, Clone, Copy)]
enum RawTarget {
    Committed(u32),
    Pending(u32),
}

/// The `jobs > 1` sink: probes the frozen committed store read-only and
/// parks misses in the level's lock-striped pending shards.
#[derive(Clone, Copy)]
struct Pending<'a> {
    store: &'a StateStore,
    shards: &'a [Mutex<PendingShard>],
}

impl<'a> Pending<'a> {
    /// Lock the shard selected by the top bits of `hash`.
    fn shard(&self, hash: u64) -> impl DerefMut<Target = PendingShard> + 'a {
        let shards = self.shards;
        shards[store::shard_index(hash, shards.len())]
            .lock()
            .expect("pending shard lock")
    }
}

impl Sink for Pending<'_> {
    type EnvId = EnvRef;
    type Target = RawTarget;

    fn store(&self) -> &StateStore {
        self.store
    }

    fn loaded(&mut self) -> Result<(), ReachError> {
        Ok(())
    }

    fn intern_env(&mut self, env: &Env, key: u64) -> Result<EnvRef, ReachError> {
        let hash = store::fx_hash_of(env);
        if let Some(id) = self.store.find_env_hashed(env, hash) {
            return Ok(EnvRef::Committed(id));
        }
        self.shard(hash)
            .intern_env(env, hash, key)
            .map(EnvRef::Pending)
    }

    fn intern_state(
        &mut self,
        next: &StateBuf,
        env: EnvRef,
        key: u64,
    ) -> Result<RawTarget, ReachError> {
        if let EnvRef::Committed(e) = env {
            if let Some(i) = self.store.find_state_hashed(
                &next.marking,
                next.hash,
                e,
                &next.in_flight,
                &next.enabling,
            )? {
                return Ok(RawTarget::Committed(i));
            }
        }
        let hash = store::pending_state_hash(next.hash, env, &next.in_flight, &next.enabling);
        self.shard(hash)
            .intern_state(
                &next.marking,
                next.hash,
                hash,
                env,
                &next.in_flight,
                &next.enabling,
                key,
            )
            .map(RawTarget::Pending)
    }
}

/// Split `level` into at most `jobs` contiguous chunks of near-equal
/// size, in frontier order.
fn split_chunks(level: Range<usize>, jobs: usize) -> Vec<Range<usize>> {
    let n = level.len();
    let per = n.div_ceil(jobs);
    (0..jobs)
        .map(|w| {
            let start = level.start + (w * per).min(n);
            let end = level.start + ((w + 1) * per).min(n);
            start..end
        })
        .filter(|r| !r.is_empty())
        .collect()
}

/// Don't spawn threads for frontiers too small to amortize the spawn
/// cost; the level is explored inline instead (same code path, one
/// chunk), which keeps shallow prefixes and tails cheap.
const SPAWN_THRESHOLD_PER_JOB: usize = 48;

/// The pending shards of the `jobs > 1` sink, reused level to level.
struct Shards {
    shards: Vec<Mutex<PendingShard>>,
    jobs: usize,
}

impl Shards {
    fn new(jobs: usize, places: usize) -> Self {
        let count = (jobs * 4).next_power_of_two().min(64);
        Shards {
            shards: (0..count)
                .map(|s| Mutex::new(PendingShard::new(s, places)))
                .collect(),
            jobs,
        }
    }

    /// Expand `level` into the pending shards, then commit it at the
    /// barrier: splice the novel states, rewrite pending targets, append
    /// the rows, evict.
    fn expand_level(
        &mut self,
        rule: &Rule<'_>,
        g: &mut ReachabilityGraph,
        level: Range<usize>,
        max_states: usize,
    ) -> Result<(), ReachError> {
        let sink = Pending {
            store: &g.store,
            shards: &self.shards,
        };
        let chunk = |range: Range<usize>| {
            let (mut sc, mut sink) = (Scratch::default(), sink);
            range
                .map(|src| {
                    let mut row = Vec::new();
                    rule.expand(&mut sc, &mut sink, src, &mut row)
                        .map_err(|e| (discovery_key(src, row.len()), e))?;
                    Ok(row)
                })
                .collect::<Result<Vec<_>, (u64, ReachError)>>()
        };
        let results: Vec<_> = if level.len() < self.jobs.max(2) * SPAWN_THRESHOLD_PER_JOB {
            vec![chunk(level)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = split_chunks(level, self.jobs)
                    .into_iter()
                    .map(|range| scope.spawn(move || chunk(range)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker thread panicked"))
                    .collect()
            })
        };

        // Barrier. Everything below is single-threaded and ordered by
        // discovery key, so it is deterministic regardless of how the
        // workers interleaved.
        let mut chunks = Vec::with_capacity(results.len());
        let mut first_err: Option<(u64, ReachError)> = None;
        for result in results {
            match result {
                Ok(rows) => chunks.push(rows),
                Err((key, e)) => {
                    if first_err.as_ref().is_none_or(|&(first, _)| key < first) {
                        first_err = Some((key, e));
                    }
                }
            }
        }
        let mut shard_refs: Vec<&mut PendingShard> = self
            .shards
            .iter_mut()
            .map(|m| m.get_mut().expect("shard lock"))
            .collect();
        let novel = store::collect_novel_states(&shard_refs);
        let base = g.store.len();
        if !novel.is_empty() && base + novel.len() > max_states {
            // The direct sink errors at the first novel state that does
            // not fit — and never errors without an intern attempt,
            // hence the emptiness guard (a deadlocked initial state
            // builds fine even with `max_states` 0). Report StateLimit
            // only if that key precedes the earliest worker error.
            // (`saturating_sub` covers the degenerate `max_states <
            // base` case — only reachable with a cap below the
            // always-admitted initial state — where the first novel
            // state is already over the cap.)
            let limit_key = novel[max_states.saturating_sub(base)].0;
            if first_err.as_ref().is_none_or(|&(key, _)| limit_key < key) {
                return Err(ReachError::StateLimit { limit: max_states });
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        let state_map = g.store.splice_level(&mut shard_refs, &novel)?;

        // Append this level's CSR rows in source order (worker chunks
        // are contiguous and ordered), rewriting pending targets to
        // their dense indices.
        let mut rewritten: Vec<Edge> = Vec::new();
        for row in chunks.into_iter().flatten() {
            rewritten.clear();
            rewritten.extend(row.into_iter().map(|(label, target)| {
                let target = match target {
                    RawTarget::Committed(i) => i,
                    RawTarget::Pending(p) => {
                        state_map[store::pending_shard(p)][store::pending_local(p)]
                    }
                };
                (label, target)
            }));
            g.edges.push_row(&rewritten)?;
        }
        // Workers may have faulted cold state segments in (read-only
        // loads cannot evict); squeeze back under budget before the
        // next level.
        g.store.maintain()
    }
}

// ---------------------------------------------------------------------------
// The level driver
// ---------------------------------------------------------------------------

/// Per-level observability. `level` is 1-based and `width` is the state
/// count of the level just completed. The heartbeat line is built from
/// deterministic quantities only, so a fixed run configuration always
/// prints the same lines.
fn note_level(store: &StateStore, level: u64, width: usize, budget: usize) {
    obs::metrics::REACH_LEVELS.inc();
    obs::metrics::REACH_FRONTIER_WIDTH.record(width as u64);
    obs::metrics::REACH_PEAK_FRONTIER.set_max(width as u64);
    obs::heartbeat(level, || {
        format!(
            "reach level {level}: {} states, frontier {width}, resident {} / {}, faults {}",
            store.len(),
            obs::bytes::format_bytes(store.resident_arena_bytes() as u64),
            obs::bytes::format_bytes(budget as u64),
            obs::metrics::PAGER_FAULTS.get(),
        )
    });
}

/// Build the graph breadth-first, one level at a time, through the
/// sink that `options.jobs` picks (see the module docs).
fn explore(
    net: &Net,
    options: &ReachOptions,
    timed: bool,
) -> Result<ReachabilityGraph, ReachError> {
    if net.uses_random() {
        return Err(ReachError::UsesRandom);
    }
    let _span = obs::span("build");
    let places = net.place_count();
    let mut store = StateStore::with_config(places, &options.pager_config());
    let initial_env = store.intern_env(net.initial_env())?;
    let rule = Rule::new(net, timed)?;
    let mut sc = Scratch::default();
    rule.arm_initial(&mut sc, &store, initial_env)?;
    store.intern(
        net.initial_marking().as_slice(),
        initial_env,
        &[],
        &sc.next.enabling,
    )?;
    let edges = PagedEdges::new(
        store.seg_states(),
        store.pager_shared(),
        options.spill_dir.clone(),
    );
    let mut g = ReachabilityGraph { store, edges };
    let jobs = options.effective_jobs();
    let mut shards = (jobs > 1).then(|| Shards::new(jobs, places));
    let mut row = Vec::new();
    let (mut level, mut levels) = (0..1, 0u64);
    while !level.is_empty() {
        match &mut shards {
            None => {
                let mut sink = Direct {
                    store: &mut g.store,
                    max_states: options.max_states,
                };
                for src in level.clone() {
                    rule.expand(&mut sc, &mut sink, src, &mut row)?;
                    // The edge arena evicts itself back under budget as
                    // its segments seal.
                    g.edges.push_row(&row)?;
                }
            }
            Some(shards) => {
                shards.expand_level(&rule, &mut g, level.clone(), options.max_states)?
            }
        }
        levels += 1;
        note_level(&g.store, levels, level.len(), options.mem_budget);
        level = level.end..g.store.len();
    }
    debug_assert_eq!(g.edges.row_count(), g.store.len(), "one edge row per state");
    // Final squeeze back under budget (a no-op unless the last appends
    // left the arenas over); also the "seal" phase boundary for the
    // span hierarchy.
    let _seal = obs::span("seal");
    g.store.maintain()?;
    Ok(g)
}

/// Build the untimed (classical occurrence semantics) reachability
/// graph: each enabled transition fires atomically.
///
/// # Errors
///
/// See [`ReachError`]; most commonly [`ReachError::StateLimit`] for
/// unbounded nets.
pub fn build_untimed(net: &Net, options: &ReachOptions) -> Result<ReachabilityGraph, ReachError> {
    explore(net, options, false)
}

/// Build the timed reachability graph: states extend the `[RP84]` pair
/// (marking, in-flight firings with remaining times) with **enabling
/// clocks** — one countdown per ready transition with a non-zero
/// enabling delay, following the continuous-enabling rule that
/// `pnut-core` holds for both engines (the clock arms when the
/// transition becomes ready, resets when readiness is lost or the
/// transition itself fires). From each state
/// either an eligible transition starts firing (marking-enabled, under
/// its concurrency cap, predicate true, enabling clock expired), or —
/// when nothing can start — time advances to the earliest pending
/// event, a firing completion or an enabling deadline.
///
/// Both delay kinds may be constants or deterministic expressions
/// (`irand` is already rejected by the determinism check): firing
/// times resolve per state against the post-action environment (the
/// paper's §3 table-driven idiom), and enabling times resolve per
/// state against the environment *at arm time* — the moment the
/// transition becomes ready — by the same rule the simulator runs
/// ([`pnut_core::expr::compile::CompiledTransition::clock`]), so a
/// constant-valued expression is
/// indistinguishable from the constant itself (pinned by the
/// desugaring test in `tests/semantics.rs`).
///
/// # Errors
///
/// See [`ReachError`].
pub fn build_timed(net: &Net, options: &ReachOptions) -> Result<ReachabilityGraph, ReachError> {
    explore(net, options, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::NetBuilder;

    fn ring(tokens: u32) -> Net {
        let mut b = NetBuilder::new("ring");
        b.place("a", tokens);
        b.place("b", 0);
        b.transition("ab").input("a").output("b").add();
        b.transition("ba").input("b").output("a").add();
        b.build().unwrap()
    }

    #[test]
    fn untimed_ring_has_expected_states() {
        let net = ring(1);
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.state_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g.deadlocks().unwrap().is_empty());
        assert_eq!(g.place_bounds().unwrap(), vec![1, 1]);
        assert!(g.ever_fires(net.transition_id("ab").unwrap()).unwrap());
    }

    #[test]
    fn untimed_counts_multi_token_interleavings() {
        let net = ring(2);
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        // Markings: (2,0), (1,1), (0,2).
        assert_eq!(g.state_count(), 3);
        assert_eq!(g.place_bounds().unwrap(), vec![2, 2]);
    }

    #[test]
    fn deadlock_detected() {
        let mut b = NetBuilder::new("dead");
        b.place("a", 1);
        b.place("b", 0);
        b.transition("t").input("a").output("b").add();
        let net = b.build().unwrap();
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.deadlocks().unwrap().len(), 1);
        let d = g.deadlocks().unwrap()[0];
        assert_eq!(
            g.state(d)
                .unwrap()
                .marking
                .tokens(net.place_id("b").unwrap()),
            1
        );
    }

    #[test]
    fn unbounded_net_hits_state_limit() {
        let mut b = NetBuilder::new("unbounded");
        b.place("p", 0);
        b.transition("gen").output("p").add();
        let net = b.build().unwrap();
        let opts = ReachOptions {
            max_states: 50,
            ..ReachOptions::default()
        };
        let e = build_untimed(&net, &opts).unwrap_err();
        assert_eq!(e, ReachError::StateLimit { limit: 50 });
        // The parallel builder reports the same deterministic limit.
        let par = ReachOptions { jobs: 4, ..opts };
        assert_eq!(build_untimed(&net, &par).unwrap_err(), e);
        // Degenerate caps (at or below the always-admitted initial
        // state) error identically in both builders instead of
        // panicking.
        for max_states in [0, 1] {
            let tight = ReachOptions {
                max_states,
                ..ReachOptions::default()
            };
            let seq = build_untimed(&net, &tight).unwrap_err();
            assert_eq!(seq, ReachError::StateLimit { limit: max_states });
            let par = ReachOptions { jobs: 4, ..tight };
            assert_eq!(build_untimed(&net, &par).unwrap_err(), seq);
        }
        // A deadlocked initial state never attempts an intern, so even
        // `max_states: 0` succeeds — in both builders.
        let mut b = NetBuilder::new("stuck");
        b.place("p", 0);
        b.transition("t").input("p").add();
        let stuck = b.build().unwrap();
        for jobs in [1, 4] {
            let opts = ReachOptions {
                max_states: 0,
                jobs,
                ..ReachOptions::default()
            };
            let g = build_untimed(&stuck, &opts).unwrap();
            assert_eq!(g.state_count(), 1, "jobs = {jobs}");
        }
    }

    #[test]
    fn random_nets_rejected() {
        let mut b = NetBuilder::new("r");
        b.place("p", 1);
        b.var("x", 0);
        b.transition("t")
            .input("p")
            .output("p")
            .action_str("x = irand(0, 1);")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        assert_eq!(
            build_untimed(&net, &ReachOptions::default()).unwrap_err(),
            ReachError::UsesRandom
        );
    }

    #[test]
    fn predicates_prune_untimed_edges() {
        let mut b = NetBuilder::new("p");
        b.place("p", 1);
        b.place("q", 0);
        b.var("gate", 0);
        b.transition("blocked")
            .input("p")
            .output("q")
            .predicate_str("gate == 1")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.state_count(), 1, "gate closed: nothing reachable");
        assert_eq!(g.deadlocks().unwrap(), vec![0]);
    }

    #[test]
    fn actions_differentiate_states() {
        // Same marking, different variable values → distinct states.
        let mut b = NetBuilder::new("v");
        b.place("p", 1);
        b.var("n", 0);
        b.transition("inc")
            .input("p")
            .output("p")
            .predicate_str("n < 3")
            .unwrap()
            .action_str("n = n + 1;")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.state_count(), 4, "n in 0..=3");
        assert_eq!(g.deadlocks().unwrap().len(), 1);
        // The four states share nothing but still intern four distinct
        // environments (n = 0..=3).
        assert_eq!(g.store().env_count(), 4);
    }

    #[test]
    fn actionless_nets_intern_one_environment() {
        let g = build_untimed(&ring(2), &ReachOptions::default()).unwrap();
        assert_eq!(g.store().env_count(), 1, "no actions → one shared env");
    }

    #[test]
    fn timed_graph_tracks_in_flight() {
        let mut b = NetBuilder::new("t");
        b.place("a", 1);
        b.place("b", 0);
        b.transition("work").input("a").output("b").firing(3).add();
        let net = b.build().unwrap();
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
        // (a=1), (in flight, 3 left), (b=1).
        assert_eq!(g.state_count(), 3);
        let mid = g.state(1).unwrap();
        assert_eq!(mid.in_flight.len(), 1);
        assert_eq!(mid.in_flight[0].1, 3);
        // The advance edge carries the delay.
        assert!(g
            .successors(1)
            .unwrap()
            .iter()
            .any(|&(l, _)| l == EdgeLabel::Advance(3)));
    }

    #[test]
    fn timed_interleaves_concurrent_firings() {
        let mut b = NetBuilder::new("t2");
        b.place("a", 2);
        b.place("b", 0);
        b.transition("work").input("a").output("b").firing(2).add();
        let net = b.build().unwrap();
        let mut g = build_timed(&net, &ReachOptions::default()).unwrap();
        // Both tokens must start before time advances (maximal progress):
        // (2,0,[]) -> (1,0,[2]) -> (0,0,[2,2]) -> (0,2,[]) done.
        assert_eq!(g.state_count(), 4);
        assert!(
            g.deadlocks().unwrap().len() == 1,
            "final state is quiescent"
        );
    }

    #[test]
    fn timed_graph_respects_concurrency_caps() {
        let mut b = NetBuilder::new("cap");
        b.place("q", 2);
        b.place("done", 0);
        b.transition("serve")
            .input("q")
            .output("done")
            .firing(2)
            .max_concurrent(1)
            .add();
        let net = b.build().unwrap();
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
        for i in 0..g.state_count() {
            let inflight = g.state(i).unwrap().in_flight.len();
            assert!(inflight <= 1, "state {i} has {inflight} concurrent serves");
        }
    }

    #[test]
    fn timed_enabling_delays_start_without_removing_tokens() {
        // The graph counterpart of the simulator's
        // `enabling_time_delays_start_without_removing_tokens`: the
        // token stays on `a` while the clock runs; the move is atomic
        // once the deadline passes.
        let mut b = NetBuilder::new("e");
        b.place("a", 1);
        b.place("b", 0);
        b.transition("t").input("a").output("b").enabling(4).add();
        let net = b.build().unwrap();
        let mut g = build_timed(&net, &ReachOptions::default()).unwrap();
        // (a=1, clock 4) --Advance(4)--> (a=1, clock 0) --Fire--> (b=1).
        assert_eq!(g.state_count(), 3);
        assert_eq!(
            g.state(0).unwrap().enabling,
            &[(net.transition_id("t").unwrap(), 4)]
        );
        assert_eq!(g.state(0).unwrap().marking.as_slice(), &[1, 0]);
        assert!(g
            .successors(0)
            .unwrap()
            .iter()
            .any(|&(l, _)| l == EdgeLabel::Advance(4)));
        assert_eq!(
            g.state(1).unwrap().enabling,
            &[(net.transition_id("t").unwrap(), 0)]
        );
        assert_eq!(
            g.state(1).unwrap().marking.as_slice(),
            &[1, 0],
            "token not yet moved"
        );
        assert_eq!(g.state(2).unwrap().marking.as_slice(), &[0, 1]);
        assert!(g.state(2).unwrap().enabling.is_empty());
        assert_eq!(g.deadlocks().unwrap(), vec![2]);
    }

    #[test]
    fn timed_enabling_clock_resets_when_disabled() {
        // The graph counterpart of the simulator's
        // `enabling_clock_resets_when_disabled`: `thief` (enabling 2,
        // firing 2) keeps stealing the shared token before `slow`
        // (enabling 3) ever expires, and slow's clock restarts from 3
        // each round — so `slow` never fires anywhere in the graph.
        let mut b = NetBuilder::new("steal");
        b.place("shared", 1);
        b.place("out_slow", 0);
        b.transition("thief")
            .input("shared")
            .output("shared")
            .enabling(2)
            .firing(2)
            .add();
        b.transition("slow")
            .input("shared")
            .output("out_slow")
            .enabling(3)
            .add();
        let net = b.build().unwrap();
        let mut g = build_timed(&net, &ReachOptions::default()).unwrap();
        let thief = net.transition_id("thief").unwrap();
        let slow = net.transition_id("slow").unwrap();
        // Cycle: (clocks 2/3) --A(2)--> (clocks 0/1) --Fire(thief)-->
        // (token in flight, no clocks) --A(2)--> back to the start.
        assert_eq!(g.state_count(), 3);
        assert_eq!(g.state(0).unwrap().enabling, &[(thief, 2), (slow, 3)]);
        assert_eq!(g.state(1).unwrap().enabling, &[(thief, 0), (slow, 1)]);
        assert!(
            g.state(2).unwrap().enabling.is_empty(),
            "token stolen: no clocks"
        );
        assert!(g.ever_fires(thief).unwrap());
        assert!(
            !g.ever_fires(slow).unwrap(),
            "slow's clock must reset each round"
        );
    }

    #[test]
    fn timed_enabling_advances_without_in_flight_firings() {
        // A pure enabling wait (no in-flight firing anywhere): the
        // advance rule must jump on enabling deadlines alone, and the
        // firing itself re-arms the clock for the next round.
        let mut b = NetBuilder::new("pulse");
        b.place("p", 1);
        b.transition("tick")
            .input("p")
            .output("p")
            .enabling(5)
            .add();
        let net = b.build().unwrap();
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
        // (clock 5) --A(5)--> (clock 0) --Fire--> (clock 5, re-armed).
        assert_eq!(g.state_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g
            .successors(0)
            .unwrap()
            .iter()
            .any(|&(l, _)| l == EdgeLabel::Advance(5)));
        assert_eq!(
            g.successors(1).unwrap(),
            &[(EdgeLabel::Fire(net.transition_id("tick").unwrap()), 0)],
            "firing re-arms the clock back to the initial state"
        );
    }

    #[test]
    fn parallel_timed_enabling_is_bit_identical_to_sequential() {
        let mut b = NetBuilder::new("mix");
        b.place("q", 3);
        b.place("done", 0);
        b.transition("serve")
            .input("q")
            .output("done")
            .enabling(2)
            .firing(3)
            .max_concurrent(2)
            .add();
        b.transition("recycle")
            .input("done")
            .output("q")
            .enabling(1)
            .firing(2)
            .add();
        let net = b.build().unwrap();
        let seq = build_timed(&net, &ReachOptions::default()).unwrap();
        assert!(
            (0..seq.state_count()).any(|i| !seq.state(i).unwrap().enabling.is_empty()),
            "the model must actually exercise enabling clocks"
        );
        for jobs in [2, 4, 8] {
            let opts = ReachOptions {
                jobs,
                ..ReachOptions::default()
            };
            assert_eq!(build_timed(&net, &opts).unwrap(), seq, "jobs = {jobs}");
        }
    }

    #[test]
    fn timed_resolves_expression_enabling_times_per_state() {
        // A table-driven enabling delay: the action advances `ty`, the
        // enabling time reads `dtab[ty]` — each re-arming must resolve
        // against the environment of the state doing the arming, so the
        // clock values 2 and 5 both appear in the reachable state
        // space (the pre-PR engine rejected this net outright).
        let mut b = NetBuilder::new("entab");
        b.place("p", 1);
        b.var("ty", 0);
        b.table("dtab", vec![2, 5]);
        b.transition("step")
            .input("p")
            .output("p")
            .predicate_str("ty < 2")
            .unwrap()
            .action_str("ty = ty + 1;")
            .unwrap()
            .enabling_expr(pnut_core::Expr::parse("dtab[ty]").unwrap())
            .add();
        let net = b.build().unwrap();
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
        let step = net.transition_id("step").unwrap();
        let mut armed = std::collections::BTreeSet::new();
        for i in 0..g.state_count() {
            for &(t, k) in g.state(i).unwrap().enabling {
                assert_eq!(t, step);
                armed.insert(k);
            }
        }
        assert!(
            armed.contains(&2) && armed.contains(&5),
            "both table delays must arm: {armed:?}"
        );
        // The parallel build agrees bit-for-bit.
        let par = build_timed(
            &net,
            &ReachOptions {
                jobs: 4,
                ..ReachOptions::default()
            },
        )
        .unwrap();
        assert_eq!(par, g);
        // Nondeterministic enabling expressions are still rejected, by
        // the determinism check that guards all of reachability.
        let mut b = NetBuilder::new("rnd");
        b.place("p", 1);
        b.transition("t")
            .input("p")
            .enabling_expr(pnut_core::Expr::parse("irand(1, 3)").unwrap())
            .add();
        let net = b.build().unwrap();
        assert_eq!(
            build_timed(&net, &ReachOptions::default()).unwrap_err(),
            ReachError::UsesRandom
        );
    }

    #[test]
    fn timed_resolves_expression_firing_times_per_state() {
        // The paper's §3 idiom: the action picks a type, the firing time
        // reads a table — the resolved delay must follow the state.
        let mut b = NetBuilder::new("table");
        b.place("go", 2);
        b.place("done", 0);
        b.var("ty", 0);
        b.table("delays", vec![3, 7]);
        b.transition("work")
            .input("go")
            .output("done")
            .predicate_str("ty < 2")
            .unwrap()
            .action_str("ty = ty + 1;")
            .unwrap()
            .firing_expr(pnut_core::Expr::parse("delays[ty - 1]").unwrap())
            .add();
        let net = b.build().unwrap();
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
        let work = net.transition_id("work").unwrap();
        // Both resolved delays appear as in-flight remaining times.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..g.state_count() {
            for &(t, r) in g.state(i).unwrap().in_flight {
                assert_eq!(t, work);
                seen.insert(r);
            }
        }
        assert!(
            seen.contains(&3) && seen.contains(&7),
            "delays seen: {seen:?}"
        );
        // And the parallel build agrees bit-for-bit.
        let par = build_timed(
            &net,
            &ReachOptions {
                jobs: 4,
                ..ReachOptions::default()
            },
        )
        .unwrap();
        assert_eq!(par, g);
    }

    #[test]
    fn duplicate_input_arcs_merge_and_cannot_underflow() {
        // NetBuilder merges duplicate arcs, so two weight-1 inputs from
        // one place require 2 tokens — with only 1 the transition is
        // disabled outright (the seed checked each arc in isolation,
        // considered it enabled, then underflowed under a bare
        // debug_assert!). With 2 tokens it fires normally.
        let dup = |tokens| {
            let mut b = NetBuilder::new("dup");
            b.place("p", tokens);
            b.place("q", 0);
            b.transition("t").input("p").input("p").output("q").add();
            b.build().unwrap()
        };
        let mut g = build_untimed(&dup(1), &ReachOptions::default()).unwrap();
        assert_eq!(g.state_count(), 1, "merged arcs need 2 tokens");
        assert_eq!(g.deadlocks().unwrap(), vec![0]);

        let g = build_untimed(&dup(2), &ReachOptions::default()).unwrap();
        assert_eq!(g.state_count(), 2);
        let fired = g.state(1).unwrap();
        assert_eq!(fired.marking.as_slice(), &[0, 1]);
    }

    #[test]
    fn csr_rows_partition_the_edge_list() {
        let net = ring(2);
        let g = build_untimed(&net, &ReachOptions::default()).unwrap();
        let total: usize = (0..g.state_count())
            .map(|i| g.successors(i).unwrap().len())
            .sum();
        assert_eq!(total, g.edge_count());
        for i in 0..g.state_count() {
            for &(_, target) in g.successors(i).unwrap() {
                assert!((target as usize) < g.state_count());
            }
        }
    }

    #[test]
    fn rebuilds_are_bit_identical() {
        let net = ring(3);
        let a = build_untimed(&net, &ReachOptions::default()).unwrap();
        let b = build_untimed(&net, &ReachOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    /// A net whose levels are wide in *environments*: two independent
    /// bounded counters, so level `L` holds every `(a, b)` with
    /// `a + b = L` and each level mints several environments at once —
    /// exactly the case the pending-env min-key ordering must get right.
    fn env_grid() -> Net {
        let mut b = NetBuilder::new("grid");
        b.place("p", 1);
        b.var("a", 0);
        b.var("b", 0);
        b.transition("ia")
            .input("p")
            .output("p")
            .predicate_str("a < 4")
            .unwrap()
            .action_str("a = a + 1;")
            .unwrap()
            .add();
        b.transition("ib")
            .input("p")
            .output("p")
            .predicate_str("b < 4")
            .unwrap()
            .action_str("b = b + 1;")
            .unwrap()
            .add();
        b.build().unwrap()
    }

    #[test]
    fn parallel_untimed_is_bit_identical_to_sequential() {
        for net in [ring(3), env_grid()] {
            let seq = build_untimed(&net, &ReachOptions::default()).unwrap();
            for jobs in [2, 4, 8] {
                let opts = ReachOptions {
                    jobs,
                    ..ReachOptions::default()
                };
                let par = build_untimed(&net, &opts).unwrap();
                assert_eq!(par, seq, "jobs = {jobs} diverged on `{}`", net.name());
            }
        }
    }

    #[test]
    fn parallel_timed_is_bit_identical_to_sequential() {
        let mut b = NetBuilder::new("cap");
        b.place("q", 3);
        b.place("done", 0);
        b.transition("serve")
            .input("q")
            .output("done")
            .firing(2)
            .max_concurrent(2)
            .add();
        b.transition("recycle")
            .input("done")
            .output("q")
            .firing(3)
            .add();
        let net = b.build().unwrap();
        let seq = build_timed(&net, &ReachOptions::default()).unwrap();
        for jobs in [2, 4, 8] {
            let opts = ReachOptions {
                jobs,
                ..ReachOptions::default()
            };
            assert_eq!(build_timed(&net, &opts).unwrap(), seq, "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_env_interning_matches_sequential_ids() {
        // Environment *ids* (not just contents) must line up, since the
        // store compares `env_ids` arenas for equality.
        let net = env_grid();
        let seq = build_untimed(&net, &ReachOptions::default()).unwrap();
        let par = build_untimed(
            &net,
            &ReachOptions {
                jobs: 8,
                ..ReachOptions::default()
            },
        )
        .unwrap();
        assert_eq!(seq.store().env_count(), 25, "5×5 counter grid");
        for i in 0..seq.state_count() {
            assert_eq!(
                seq.store().try_env_id(i).unwrap(),
                par.store().try_env_id(i).unwrap(),
                "state {i}"
            );
        }
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        let opts = ReachOptions {
            jobs: 0,
            ..ReachOptions::default()
        };
        assert!(opts.effective_jobs() >= 1);
        let net = ring(2);
        let auto = build_untimed(&net, &opts).unwrap();
        assert_eq!(auto, build_untimed(&net, &ReachOptions::default()).unwrap());
    }
}
