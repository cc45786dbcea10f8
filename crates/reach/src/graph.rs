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
//! silently grows the resident set to the whole store. Every analysis
//! that reads the whole graph — CTL fixpoints, Markov extraction, the
//! P-invariant check — instead goes through [`ReachabilityGraph::sweep`],
//! the one bulk read path. It walks the graph **segment-at-a-time**: pin one
//! segment with a [`SegmentGuard`], hand its states to the analysis,
//! drop the guard, and evict (an `&mut` point, so eviction is legal)
//! before the next segment. That holds the resident envelope to
//! `budget + one pinned guard (state segment + edge segment) + one
//! segment of slack` for the *analysis* phase too, not just the build —
//! asserted by `tests/paged_analysis.rs`.
//!
//! Deadlocks and place bounds read nothing back: the build appends each
//! state and each successor row once, and the store keeps each place's
//! running maximum and the edge arena each empty row as they append.
//!
//! # Exploration: expand, then commit
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
//! keeps only the explorer's scheduler, in two steps:
//!
//! * **expand** turns one loaded source into its row of successors
//!   (label, state, post-action environment). It reads the source's
//!   marking, in-flight firings and enabling clocks in place, from the
//!   store row the load returned, and makes no store or pager call.
//!   Every transition that can start (ready, enabling clock run out,
//!   predicate true) is a `Fire` edge, in id order. Clocks are
//!   relative countdowns. When nothing can start, one maximal-progress
//!   `Advance` edge jumps to the earliest pending completion or
//!   enabling deadline. Untimed builds run the same rule with every
//!   firing atomic and no clocks, so they never advance.
//! * **commit** interns the row's environments and states in edge order
//!   through [`StateStore::intern_env`] and `StateStore::intern_bounded`,
//!   the only way any state enters the store, and appends the row to
//!   the paged edge arena.
//!
//! No marking is hashed whole during a build but the initial one. The
//! marking part of a state hash is a sum over places
//! ([`StateStore::marking_elem_hash`]), so expand derives each
//! successor's hash from its source's through the places the firing
//! touches, and commit keeps the hash of every state it appends, for
//! the level under expansion and the next one only; a source's load
//! takes its hash from there. This hash window sits outside the pager
//! ledger, like the workers' row buffers: 8 bytes per state of two
//! levels, about 27 KiB at `wide_toggle(13)`'s widest.
//!
//! At `jobs = 1`, and in any level narrower than `jobs × 48` sources,
//! each source runs load → expand → `keep_resident` + `maintain` →
//! commit in turn. Expansion reads the loaded row before the next
//! `&mut` call on the store could evict it, and makes no pager call, so
//! the pager's touches, faults, ticks and evictions follow from the
//! loads and the `&mut` calls alone. The store evicts at every `&mut`
//! point: after each expansion, inside each intern, and after each row,
//! but never the segment of the source being expanded. Sources load in
//! index order, so the next one most likely lives in that segment too,
//! yet every probe since the load has made it the least recently
//! touched.
//!
//! A wider level goes to scoped workers a batch of `jobs × 512` sources
//! at a time. Each worker loads and expands a contiguous chunk of the
//! batch from the frozen store, which it may fault segments into but
//! never evict from, and the barrier commits the chunks in order. So
//! the barrier interns exactly what the sequential build interns, in
//! the same order: every state and environment gets its `jobs = 1`
//! number, the first error in source order wins, and every `jobs` ×
//! budget setting builds a bit-identical graph. Paging only changes
//! where rows live, never what they hold. Only the pager's work
//! differs: workers fault their sources in without evicting, and the
//! store counters (probes, hits, misses) are the same at any job count.

use crate::pager::{EdgeSegment, PagedEdges, PagerConfig, SegmentData, SpillError};
use crate::store::{StateRef, StateStore};
use pnut_core::expr::compile::{self as bc, Clock};
use pnut_core::{Env, Net, TransitionId};
use pnut_obs as obs;
use std::cell::OnceCell;
use std::fmt;
use std::ops::Range;

/// Limits for graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachOptions {
    /// Stop with [`ReachError::StateLimit`] beyond this many states.
    pub max_states: usize,
    /// Worker threads for frontier exploration: `1` builds sequentially,
    /// `0` uses [`std::thread::available_parallelism`], anything else is
    /// an explicit thread count. Workers only expand the sources of wide
    /// levels; the level barrier interns their successors in source
    /// order, as the sequential build does, so every job count produces
    /// a bit-identical graph and this is purely a throughput knob.
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
    fn effective_jobs(&self) -> usize {
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
    /// The build's slot map: [`Self::env`] rebuilds [`Env`]s with it.
    map: bc::SlotMap,
}

/// Two graphs are equal iff they hold the same states in the same
/// order with the same edges — paging grain, residency, and spill
/// layout are ignored (comparing faults spilled segments back in).
impl PartialEq for ReachabilityGraph {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map && self.store == other.store && self.edges == other.edges
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

    /// The variable environment of state `i`, rebuilt as an [`Env`] from
    /// the store's slot row (faulting like [`Self::state`]).
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the state segment fails to reload.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn env(&self, i: usize) -> Result<Env, ReachError> {
        let env_id = self.store.state(i)?.env_id;
        Ok(self.store.env(env_id).to_env(&self.map))
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

    /// One segment-ordered pass over the whole graph: pin a segment,
    /// call `f(state index, guard)` on each of its states in index
    /// order, drop the guard, evict back under the byte budget, and
    /// move to the next segment. This is the only bulk read path: every
    /// analysis that reads the whole graph goes through it, so it keeps
    /// the [`SegmentGuard`] resident envelope instead of faulting the
    /// whole store resident.
    ///
    /// Pinning is lazy and free of I/O: a segment's states and its
    /// successor rows fault in on the first row `f` reads from each, so
    /// a sweep that reads only edges never loads the markings, and one
    /// that stops reading rows faults no further segment. Rows read
    /// through the guard do not re-touch the pager's LRU stamps.
    ///
    /// # Errors
    ///
    /// The first error `f` returns ends the sweep at once (no eviction
    /// follows it); [`ReachError::Spill`], converted into `E`, if an
    /// eviction between segments fails. The graph stays usable either
    /// way, and a retry re-faults from scratch.
    pub fn sweep<E: From<ReachError>>(
        &mut self,
        mut f: impl FnMut(usize, &SegmentGuard<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        for seg in 0..self.store.segment_count() {
            {
                let guard = SegmentGuard {
                    graph: self,
                    seg,
                    range: self.store.segment_range(seg),
                    states: OnceCell::new(),
                    edges: OnceCell::new(),
                };
                for i in guard.range() {
                    f(i, &guard)?;
                }
            }
            // Edges first: every sweep re-reads them in order anyway.
            self.edges.maintain()?;
            self.store.maintain()?;
        }
        Ok(())
    }

    // -- answers kept by the build ----------------------------------------

    /// Indices of deadlock states (no outgoing edges), in index order,
    /// as the edge arena noted them while appending the rows. It reads
    /// no segment, so it never fails.
    pub fn deadlocks(&self) -> Result<Vec<usize>, ReachError> {
        Ok(self.edges.empty_rows().to_vec())
    }

    /// The bound of each place: the maximum token count over all
    /// reachable states (a net is k-bounded iff every entry ≤ k), as the
    /// store kept it while appending the states. Never fails either.
    pub fn place_bounds(&self) -> Result<Vec<u32>, ReachError> {
        Ok(self.store.bounds().to_vec())
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
/// `seg_states` consecutive states and their successor lists. Only
/// [`ReachabilityGraph::sweep`] pins one, and hands it to the sweep's
/// closure with each state of the segment.
///
/// # What pinning means, and why it is sound
///
/// The guard holds `&ReachabilityGraph`. Eviction — the only operation
/// that frees segment memory — requires `&mut ReachabilityGraph` (the
/// sweep evicts between segments), so while any guard is alive the
/// borrow checker statically rules out eviction: every `&[u32]` /
/// `&[Edge]` the guard hands out stays valid for the guard's lifetime
/// with no reference counting at run time. Faulting a segment *in*
/// under `&self` only ever installs memory (see [`crate::pager`]),
/// which is why lazy pinning is safe too.
///
/// The flip side: eviction can only run once the guard is dropped, so a
/// sweep holding one guard at a time keeps the resident envelope at
/// `budget + one state segment + one edge segment` (+ one segment of
/// transient slack while the next segment faults before the sweep
/// evicts).
///
/// # Errors and panics
///
/// Row accessors return [`ReachError::Spill`] if a spilled segment
/// fails to reload (disk error, short read, bad image header); a
/// closure that passes it on with `?` ends the sweep there. They panic
/// only on indices outside [`Self::range`] — a caller bug, not an
/// environment failure.
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
        Ok(self.state_rows()?.state(local, self.graph.store.places()))
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

/// The marking hashes of the states of the level under expansion and
/// of the next level, in index order, as `commit` interned them:
/// expansion takes a source's hash from here instead of rehashing its
/// marking.
struct Hashes {
    /// The first state of the level under expansion.
    start: usize,
    window: Vec<u64>,
}

impl Hashes {
    fn of(&self, state: usize) -> u64 {
        self.window[state - self.start]
    }

    /// Drop the hashes of `level`, which has been expanded.
    fn advance(&mut self, level: Range<usize>) {
        debug_assert_eq!(level.start, self.start);
        self.window.drain(..level.len());
        self.start = level.end;
    }
}

/// In-flight firings of `t` in the multiset `in_flight`.
#[inline]
fn in_flight_of(in_flight: &[(TransitionId, u64)], t: TransitionId) -> u32 {
    in_flight.iter().filter(|&&(x, _)| x == t).count() as u32
}

/// Apply transition `t`'s token `delta` to `marking`, keeping its
/// commutative `hash` in sync.
#[inline]
fn apply(
    net: &Net,
    t: TransitionId,
    delta: &[(u32, i64)],
    marking: &mut [u32],
    hash: &mut u64,
) -> Result<(), ReachError> {
    for &(p, d) in delta {
        let p = p as usize;
        let old = marking[p];
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
        marking[p] = new;
        *hash = hash
            .wrapping_sub(StateStore::marking_elem_hash(p, old))
            .wrapping_add(StateStore::marking_elem_hash(p, new));
    }
    Ok(())
}

/// Reusable per-worker scratch: the environments in the slot form the
/// store interns, and the bytecode registers, so successor generation
/// is allocation-free on the steady state.
#[derive(Default)]
struct Scratch {
    /// Environment of the state under expansion.
    cur_slots: bc::EnvSlots,
    /// Which interned env id `cur_slots` holds: consecutive states
    /// usually share an environment, so reloads are skipped.
    loaded_env: Option<u32>,
    /// Successor environment (after an action).
    next_slots: bc::EnvSlots,
    /// Bytecode register file, shared by every program.
    vm: bc::Scratch,
}

impl Scratch {
    /// Read state `src` in place from its store row (faulting its
    /// segment in if evicted), which stays put until the next `&mut`
    /// call on the store, and load its environment row into `cur_slots`.
    fn load<'s>(&mut self, store: &'s StateStore, src: usize) -> Result<StateRef<'s>, ReachError> {
        let state = store.state(src)?;
        let env = state.env_id;
        if self.loaded_env != Some(env) {
            self.cur_slots.copy_from(store.env(env));
            self.loaded_env = Some(env);
        }
        Ok(state)
    }
}

/// One source's successors in edge order, as [`Rule::expand`] leaves
/// them for [`ReachabilityGraph::commit`]. The kernel builds each
/// successor's marking, in-flight firings and clocks in place at the end
/// of flat arrays, so nothing is copied between the two and a batch of
/// rows is written and read front to back. Data past the last finished
/// successor belongs to one that failed, and is ignored.
#[derive(Default)]
struct Row {
    /// The source's environment id, which successors without an action
    /// keep.
    env: u32,
    succs: Vec<Entry>,
    /// Successor `k`'s marking is the `k`-th run of place-count length.
    markings: Vec<u32>,
    in_flight: Vec<(TransitionId, u64)>,
    enabling: Vec<(TransitionId, u64)>,
    /// Post-action environments; entries from `acted` on are spare
    /// buffers that [`Self::finish`] swaps the kernel's scratch
    /// environment with, so a reused row stops allocating.
    slots: Vec<bc::EnvSlots>,
    acted: usize,
}

/// What a [`Row`] keeps of a finished successor besides its flat runs.
struct Entry {
    label: EdgeLabel,
    /// Marking-part hash.
    hash: u64,
    /// Where its runs of `in_flight` and `enabling` end.
    in_flight_end: u32,
    enabling_end: u32,
    /// Its post-action environment in `slots`, if it ran an action.
    slot: Option<u32>,
}

/// A finished successor of a [`Row`].
struct Successor<'r> {
    label: EdgeLabel,
    hash: u64,
    marking: &'r [u32],
    in_flight: &'r [(TransitionId, u64)],
    enabling: &'r [(TransitionId, u64)],
    /// The post-action environment, if the firing ran an action.
    env: Option<&'r bc::EnvSlots>,
}

impl Row {
    fn clear(&mut self, env: u32) {
        self.env = env;
        self.succs.clear();
        self.markings.clear();
        self.in_flight.clear();
        self.enabling.clear();
        self.acted = 0;
    }

    /// Where the in-flight firings of the successor under construction
    /// begin.
    fn in_flight_start(&self) -> usize {
        self.succs.last().map_or(0, |s| s.in_flight_end as usize)
    }

    /// Finish the successor built at the end of the row under `label`
    /// with marking hash `hash`, swapping the scratch environment
    /// `next_slots` into the row when its firing `acted`.
    fn finish(&mut self, label: EdgeLabel, hash: u64, acted: bool, next_slots: &mut bc::EnvSlots) {
        let slot = acted.then(|| {
            if self.acted == self.slots.len() {
                self.slots.push(bc::EnvSlots::default());
            }
            std::mem::swap(&mut self.slots[self.acted], next_slots);
            self.acted += 1;
            self.acted as u32 - 1
        });
        self.succs.push(Entry {
            label,
            hash,
            in_flight_end: self.in_flight.len() as u32,
            enabling_end: self.enabling.len() as u32,
            slot,
        });
    }

    /// The finished successors, in edge order, of markings `places`
    /// wide.
    fn successors(&self, places: usize) -> impl Iterator<Item = Successor<'_>> {
        let mut starts = (0, 0);
        self.succs.iter().enumerate().map(move |(k, s)| {
            let ends = (s.in_flight_end as usize, s.enabling_end as usize);
            let (f, e) = std::mem::replace(&mut starts, ends);
            Successor {
                label: s.label,
                hash: s.hash,
                marking: &self.markings[k * places..(k + 1) * places],
                in_flight: &self.in_flight[f..ends.0],
                enabling: &self.enabling[e..ends.1],
                env: s.slot.map(|i| &self.slots[i as usize]),
            }
        })
    }
}

/// The scheduler of one net's firing rule, shared read-only by every
/// worker. The rule itself is `pnut-core`'s lowered
/// [`bc::CompiledTransition`], which the simulator runs too.
struct Rule<'n> {
    net: &'n Net,
    /// Every transition, lowered once per build, with its slot map.
    programs: bc::CompiledNet,
    /// The transitions whose enabling delay is not the constant 0: the
    /// only ones that can hold an enabling clock.
    clocked: Vec<TransitionId>,
    /// Timed semantics: firing delays, concurrency caps, enabling
    /// clocks and time advances. Untimed firings are atomic.
    timed: bool,
}

impl<'n> Rule<'n> {
    fn new(net: &'n Net, timed: bool) -> Result<Self, ReachError> {
        let programs = bc::CompiledNet::compile(net).map_err(ReachError::Compile)?;
        let clocked = (programs.transitions.iter().enumerate())
            .filter(|(_, ct)| !ct.enabling.is_zero_constant())
            .map(|(i, _)| TransitionId::new(i))
            .collect();
        Ok(Rule {
            net,
            programs,
            clocked,
            timed,
        })
    }

    fn eval_err(&self, t: TransitionId, source: pnut_core::EvalError) -> ReachError {
        ReachError::Eval {
            transition: self.net.transition(t).name().to_string(),
            source,
        }
    }

    /// Compute the enabling clocks of the successor under construction
    /// at the end of `row` into `row.enabling`, with the shared clock
    /// rule, [`bc::CompiledTransition::clock`] (untimed builds keep
    /// none). `clocks` are the source's. Clocks are relative
    /// countdowns:
    ///
    /// * only the `clocked` transitions are asked: constant-0 enabling
    ///   delays are never stored;
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
        clocks: &[(TransitionId, u64)],
        row: &mut Row,
        acted: bool,
        fired: Option<TransitionId>,
        elapsed: u64,
    ) -> Result<(), ReachError> {
        if !self.timed {
            return Ok(());
        }
        let map = &self.programs.map;
        let slots = if acted { &sc.next_slots } else { &sc.cur_slots };
        let marking = &row.markings[row.succs.len() * self.net.place_count()..];
        let in_flight = &row.in_flight[row.in_flight_start()..];
        for &id in &self.clocked {
            let (ct, vm) = (&self.programs.transitions[id.index()], &mut sc.vm);
            let ready = ct.ready(marking, || in_flight_of(in_flight, id))
                && ct
                    .predicate_holds(slots, map, vm)
                    .map_err(|e| self.eval_err(id, e))?;
            let running = || {
                let cur = clocks.iter().find(|&&(x, _)| x == id);
                cur.filter(|_| fired != Some(id)).map(|&(_, k)| k)
            };
            let clock = ct.clock(ready, running, slots, map, vm, None);
            let countdown = match clock.map_err(|e| self.eval_err(id, e))? {
                Clock::Off => continue,
                Clock::Keep(k) => k - elapsed,
                Clock::Arm(k) => k,
            };
            row.enabling.push((id, countdown));
        }
        Ok(())
    }

    /// Arm the initial state's enabling clocks into `row.enabling`, with
    /// the initial marking as the row's first marking: the simulator
    /// refreshes its clocks before the first step, so every initially
    /// ready transition starts with a full countdown.
    fn arm_initial(&self, sc: &mut Scratch, row: &mut Row) -> Result<(), ReachError> {
        row.clear(0);
        row.markings
            .extend_from_slice(self.net.initial_marking().as_slice());
        self.refresh_clocks(sc, &[], row, false, None, 0)
    }

    /// The kernel: expand `src`, whose environment `sc` has loaded and
    /// whose marking hashes to `src_hash`, into its successor `row`. It
    /// reads the source's row in place and makes no store or pager
    /// call, so workers run it side by side. On error, `row` holds the
    /// successors before the edge that failed.
    fn expand(
        &self,
        sc: &mut Scratch,
        src: StateRef<'_>,
        src_hash: u64,
        row: &mut Row,
    ) -> Result<(), ReachError> {
        let (marking, in_flight, enabling) = (src.marking.as_slice(), src.in_flight, src.enabling);
        row.clear(src.env_id);
        let map = &self.programs.map;
        let mut can_start = false;
        for (i, ct) in self.programs.transitions.iter().enumerate() {
            let id = TransitionId::new(i);
            // Enabling gate: a transition whose enabling clock is still
            // counting down cannot start. (Ready transitions with a
            // pending delay always carry a clock entry, so a missing
            // entry means the resolved delay was 0.)
            if !ct.ready(marking, || in_flight_of(in_flight, id))
                || enabling.iter().any(|&(x, k)| x == id && k > 0)
                || !ct
                    .predicate_holds(&sc.cur_slots, map, &mut sc.vm)
                    .map_err(|e| self.eval_err(id, e))?
            {
                continue;
            }
            can_start = true;
            // The action runs before the firing delay is resolved, as in
            // the simulator, so table-driven models compute their own
            // firing times (paper §3).
            let acted = ct.action.is_some();
            if let Some(action) = &ct.action {
                sc.next_slots.copy_from(&sc.cur_slots);
                action
                    .apply_pure(&mut sc.next_slots, map, &mut sc.vm)
                    .map_err(|e| self.eval_err(id, e))?;
            }
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
            let (at, mut hash) = (row.markings.len(), src_hash);
            row.markings.extend_from_slice(marking);
            let delta = if ft == 0 { &ct.atomic } else { &ct.start };
            apply(self.net, id, delta, &mut row.markings[at..], &mut hash)?;
            let start = row.in_flight.len();
            row.in_flight.extend_from_slice(in_flight);
            if ft != 0 {
                row.in_flight.push((id, ft));
                row.in_flight[start..].sort_unstable();
            }
            self.refresh_clocks(sc, enabling, row, acted, Some(id), 0)?;
            row.finish(EdgeLabel::Fire(id), hash, acted, &mut sc.next_slots);
        }

        // Maximal-progress time advance: only when nothing can start and
        // something is pending — an in-flight completion or an enabling
        // deadline (when nothing can start, every enabling countdown is
        // positive, so `dt` is always > 0).
        if can_start {
            return Ok(());
        }
        let pending = in_flight.iter().chain(enabling);
        let Some(dt) = pending.map(|&(_, r)| r).min() else {
            return Ok(());
        };
        debug_assert!(dt > 0, "zero advance would loop forever");
        let (at, mut hash) = (row.markings.len(), src_hash);
        row.markings.extend_from_slice(marking);
        let start = row.in_flight.len();
        for &(tid, r) in in_flight {
            if r == dt {
                let done = &self.programs.transitions[tid.index()].end;
                apply(self.net, tid, done, &mut row.markings[at..], &mut hash)?;
            } else {
                row.in_flight.push((tid, r - dt));
            }
        }
        row.in_flight[start..].sort_unstable();
        self.refresh_clocks(sc, enabling, row, false, None, dt)?;
        row.finish(EdgeLabel::Advance(dt), hash, false, &mut sc.next_slots);
        Ok(())
    }
}

impl ReachabilityGraph {
    /// Intern `row`'s successors in edge order, keeping the marking
    /// hash of each new one in `hashes`, then append their edges as the
    /// next source's row. `expanded` is how that source's expansion
    /// ended: an intern error comes earlier in edge order than an
    /// expansion error that cut the row short, so it wins, and a row
    /// cut short is never appended. `edges` is scratch space.
    fn commit(
        &mut self,
        row: &Row,
        expanded: Result<(), ReachError>,
        max_states: usize,
        edges: &mut Vec<Edge>,
        hashes: &mut Hashes,
    ) -> Result<(), ReachError> {
        edges.clear();
        for s in row.successors(self.store.places()) {
            let env = match s.env {
                Some(slots) => self.store.intern_env(slots)?,
                None => row.env,
            };
            let (target, new) = self.store.intern_bounded(
                s.marking,
                s.hash,
                env,
                s.in_flight,
                s.enabling,
                max_states,
            )?;
            if new {
                debug_assert_eq!(hashes.start + hashes.window.len(), target);
                hashes.window.push(s.hash);
            }
            edges.push((s.label, target as u32));
        }
        expanded?;
        // The edge arena evicts itself back under budget as its
        // segments seal.
        self.edges.push_row(edges)
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

/// Don't spawn threads for frontiers too small to amortize the spawn
/// cost; such a level is expanded and committed source by source, as at
/// `jobs = 1`.
const SPAWN_THRESHOLD_PER_JOB: usize = 48;

/// Sources each worker expands per batch of a wide level. The batch
/// bounds the rows held between two barriers; fewer sources per batch
/// spend more of the level spawning and joining threads.
const BATCH_PER_JOB: usize = 512;

/// One scoped worker's state, reused from batch to batch so a wide
/// level allocates nothing once its rows have grown.
#[derive(Default)]
struct Worker {
    sc: Scratch,
    rows: Vec<Row>,
    /// Rows expanded in the current batch. When `err` is set, the last
    /// of them is the row its source's expansion cut short (empty if
    /// the source failed to load).
    len: usize,
    /// The first error of the worker's chunk, which stops it.
    err: Option<ReachError>,
}

impl Worker {
    /// Load and expand each source of `chunk` from the frozen `store`,
    /// in order, until one fails.
    fn expand(
        &mut self,
        rule: &Rule<'_>,
        store: &StateStore,
        hashes: &Hashes,
        chunk: Range<usize>,
    ) {
        self.len = 0;
        self.err = None;
        for src in chunk {
            if self.len == self.rows.len() {
                self.rows.push(Row::default());
            }
            let row = &mut self.rows[self.len];
            row.clear(0);
            self.len += 1;
            let sc = &mut self.sc;
            if let Err(e) = sc
                .load(store, src)
                .and_then(|state| rule.expand(sc, state, hashes.of(src), row))
            {
                self.err = Some(e);
                return;
            }
        }
    }
}

/// Expand a wide `level` a batch of `jobs × BATCH_PER_JOB` sources at
/// a time: the workers expand contiguous chunks of the batch side by
/// side, loading sources from the frozen store, and the barrier then
/// commits the chunks in order, so every state and environment gets
/// its `jobs = 1` number and the first error in source order wins.
fn expand_wide(
    rule: &Rule<'_>,
    g: &mut ReachabilityGraph,
    workers: &mut [Worker],
    level: Range<usize>,
    max_states: usize,
    edges: &mut Vec<Edge>,
    hashes: &mut Hashes,
) -> Result<(), ReachError> {
    let jobs = workers.len();
    for start in level.clone().step_by(jobs * BATCH_PER_JOB) {
        let end = (start + jobs * BATCH_PER_JOB).min(level.end);
        let per = (end - start).div_ceil(jobs);
        let active = &mut workers[..(end - start).div_ceil(per)];
        let (store, level_hashes) = (&g.store, &*hashes);
        std::thread::scope(|scope| {
            let mut chunks = active
                .iter_mut()
                .zip((start..end).step_by(per).map(|s| s..(s + per).min(end)));
            let first = chunks.next();
            let handles: Vec<_> = chunks
                .map(|(w, chunk)| scope.spawn(move || w.expand(rule, store, level_hashes, chunk)))
                .collect();
            // The calling thread takes the first chunk itself.
            if let Some((w, chunk)) = first {
                w.expand(rule, store, level_hashes, chunk);
            }
            for h in handles {
                h.join().expect("worker thread panicked");
            }
        });
        for w in active {
            let Some((last, rows)) = w.rows[..w.len].split_last() else {
                continue;
            };
            for row in rows {
                g.commit(row, Ok(()), max_states, edges, hashes)?;
            }
            let expanded = w.err.take().map_or(Ok(()), Err);
            g.commit(last, expanded, max_states, edges, hashes)?;
        }
    }
    Ok(())
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

/// Build the graph breadth-first, one level at a time (see the module
/// docs).
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
    let rule = Rule::new(net, timed)?;
    let (mut sc, mut row) = (Scratch::default(), Row::default());
    // The build's one `EnvSlots::load`: every other env derives from it.
    sc.cur_slots.load(&rule.programs.map, net.initial_env());
    let initial_env = store.intern_env(&sc.cur_slots)?;
    rule.arm_initial(&mut sc, &mut row)?;
    let initial = net.initial_marking();
    store.intern(initial.as_slice(), initial_env, &[], &row.enabling)?;
    let mut hashes = Hashes {
        start: 0,
        window: vec![StateStore::marking_hash(initial.as_slice())],
    };
    let edges = PagedEdges::new(
        store.seg_states(),
        store.pager_shared(),
        options.spill_dir.clone(),
    );
    let map = rule.programs.map.clone();
    let mut g = ReachabilityGraph { store, edges, map };
    let jobs = options.effective_jobs();
    let (mut workers, mut edges) = (Vec::new(), Vec::new());
    let (mut level, mut levels) = (0..1, 0u64);
    while !level.is_empty() {
        if jobs > 1 && level.len() >= jobs.saturating_mul(SPAWN_THRESHOLD_PER_JOB) {
            workers.resize_with(jobs, Worker::default);
            expand_wide(
                &rule,
                &mut g,
                &mut workers,
                level.clone(),
                options.max_states,
                &mut edges,
                &mut hashes,
            )?;
        } else {
            for src in level.clone() {
                let state = sc.load(&g.store, src)?;
                let expanded = rule.expand(&mut sc, state, hashes.of(src), &mut row);
                // Loading may fault the source's segment back in; evict
                // once the row is expanded, so the resident envelope
                // stays at most one segment above the budget between
                // interns. The source's segment is kept resident through
                // this and every later eviction until the next load: the
                // next source is most likely in it, yet every probe since
                // the load has made it the least recently touched.
                g.store.keep_resident(Some(src));
                g.store.maintain()?;
                g.commit(&row, expanded, options.max_states, &mut edges, &mut hashes)?;
            }
        }
        levels += 1;
        note_level(&g.store, levels, level.len(), options.mem_budget);
        hashes.advance(level.clone());
        level = level.end..g.store.len();
    }
    debug_assert_eq!(g.edges.row_count(), g.store.len(), "one edge row per state");
    // Final squeeze back under budget (a no-op unless the last appends
    // left the arenas over); also the "seal" phase boundary for the
    // span hierarchy. The kept segment is released first, so the
    // analyses evict freely.
    let _seal = obs::span("seal");
    g.store.keep_resident(None);
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

    /// Whether `t` labels some edge of `g`.
    fn fires(g: &mut ReachabilityGraph, t: TransitionId) -> bool {
        let mut found = false;
        g.sweep(|i, guard| -> Result<(), ReachError> {
            found = found
                || guard
                    .successors(i)?
                    .iter()
                    .any(|e| e.0 == EdgeLabel::Fire(t));
            Ok(())
        })
        .unwrap();
        found
    }

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
        assert!(fires(&mut g, net.transition_id("ab").unwrap()));
    }

    #[test]
    fn untimed_counts_multi_token_interleavings() {
        let net = ring(2);
        let g = build_untimed(&net, &ReachOptions::default()).unwrap();
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
        let g = build_untimed(&net, &ReachOptions::default()).unwrap();
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
        let g = build_untimed(&net, &ReachOptions::default()).unwrap();
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
        let g = build_untimed(&net, &ReachOptions::default()).unwrap();
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
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
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
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
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
        assert!(fires(&mut g, thief));
        assert!(!fires(&mut g, slow), "slow's clock must reset each round");
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
        let g = build_untimed(&dup(1), &ReachOptions::default()).unwrap();
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
    /// exactly the case where environment ids must follow the
    /// sequential intern order.
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
                seq.store().state(i).unwrap().env_id,
                par.store().state(i).unwrap().env_id,
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
