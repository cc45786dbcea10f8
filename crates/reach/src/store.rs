//! The interned, zero-copy state store behind reachability graphs.
//!
//! # Why it exists
//!
//! Every analysis in this workspace — CTL checking, steady-state Markov
//! analysis, coverability — funnels through exhaustive state-space
//! exploration, so duplicate detection is *the* hot loop: each successor
//! computation must answer "have I seen this state?" before anything
//! else can happen. The original construction paid for that three ways:
//!
//! 1. every state was stored **twice** (once in `Vec<StateData>`, once
//!    as the owned key of a `HashMap<StateData, usize>`);
//! 2. every visit **cloned** the popped state and every successor was
//!    built from freshly allocated `Vec`s and `BTreeMap`s;
//! 3. lookups hashed whole states — including the `BTreeMap`-backed
//!    variable environment — with DoS-resistant SipHash.
//!
//! # Layout
//!
//! [`StateStore`] keeps each distinct state exactly once, decomposed
//! into flat arenas:
//!
//! ```text
//! markings:  [ s0 p0..pn | s1 p0..pn | ... ]      width = place count
//! env_ids:   [ s0 | s1 | ... ]                    u32 into `envs`
//! inflight:  [ ...(transition, remaining)... ]    CSR via inflight_offsets
//! enabling:  [ ...(transition, countdown)... ]    CSR via enabling_offsets
//! envs:      [ distinct EnvSlots rows only ]      interned separately
//! ```
//!
//! The `enabling` arena carries the timed state's enabling clocks: for
//! each transition that is ready (marking-enabled, predicate true,
//! concurrency cap not reached) and has a non-zero constant enabling
//! delay, the remaining ticks before its start-firing event becomes
//! eligible. Untimed graphs — and timed graphs of nets without enabling
//! times — leave it empty, so they pay nothing for it.
//!
//! Duplicate detection is a hand-rolled open-addressing table of
//! `(precomputed FxHash, state index)` pairs — the raw-entry pattern:
//! no owned keys, no re-hashing on probe, equality checked directly
//! against the arena slices. Environments are interned first, as the
//! dense [`EnvSlots`] rows expressions run on, so state equality
//! degrades to slice compares plus one `u32` compare, and exploring
//! builds, hashes and compares no name-keyed maps.
//!
//! # Complexity
//!
//! Interning is amortized O(|marking| + |in-flight|) per successor with
//! no allocation on the hit path (the overwhelmingly common case once
//! the frontier saturates). Memory is one arena copy per distinct state
//! plus its share of the intern table: each bucket is a `(u64, u32)`,
//! 16 bytes with padding, and the bucket count is a power of two kept
//! at a load of at most 7/8, so a state costs 18–37 bytes of table. The
//! owned-key layout this replaced stored every state twice, before
//! counting its per-state heap headers.
//!
//! # Parallel levels: sharding and the barrier splice
//!
//! The explorer in [`crate::graph`] runs breadth-first one *level* at a
//! time. At `jobs > 1` its pending-shard sink keeps the committed store
//! above frozen for the whole level (shared read-only — probes are
//! plain `&self` loads, no atomics) while a scoped worker pool scans
//! disjoint chunks of the frontier (levels too narrow to split run
//! inline). Successors that miss the committed table land in a ring of
//! [`PendingShard`]s — the same open-addressing scheme, lock-striped,
//! with a shard picked by the **top bits** of the precomputed FxHash
//! (the low bits index buckets *within* a table, so top-bit sharding
//! keeps both selections independent). Each shard owns its own marking/in-flight/environment
//! segment; the inserting worker copies the state in under the shard
//! lock so other workers can probe it for duplicates immediately.
//!
//! Wall-clock insertion order under contention is racy, so dense state
//! numbering is deferred to the **level barrier**: every reference to a
//! pending state carries the discovery key `(source index, edge seq)`
//! of the edge that produced it, shards min-reduce that key per entry,
//! and [`StateStore::splice_level`] commits the level's novel states in
//! ascending key order — exactly the order the `jobs = 1` direct sink,
//! which interns every successor straight into this store, first interns
//! them. Environments created by transition actions get the identical
//! treatment (pending env sub-tables, min-key, committed at the barrier
//! before the states that reference them). The result is a graph
//! **bit-identical** to the `jobs = 1` build at any worker count.
//!
//! # Paging: how the arenas scale past RAM
//!
//! The arenas above are not one flat allocation anymore: they are
//! partitioned into fixed-state-count **level segments** managed by
//! [`crate::pager`], each either resident in memory or spilled to a
//! temp file under a configurable byte budget
//! ([`crate::graph::ReachOptions::mem_budget`]). Three layers cooperate:
//!
//! 1. **intern table** — resident; holds only `(64-bit hash, index)`,
//!    so probes touch a segment (and possibly disk) only on a *true*
//!    hash hit;
//! 2. **segments** — the marking/env-id/in-flight rows of
//!    `seg_states` consecutive states; the tail receives appends, full
//!    segments seal immutable and become evictable;
//! 3. **spill file** — write-once images of sealed segments.
//!
//! Read accessors fault evicted segments back in transparently — even
//! under `&self`, which is what keeps the frozen-store parallel probes
//! of the level builder working (see [`crate::pager`] for the
//! load-only-under-`&self` safety argument). Eviction happens at `&mut`
//! points: at `jobs = 1` after every state load, intern and edge row,
//! so the resident set tracks the budget with at most one faulted
//! segment of slack, and the segment of the state being expanded is
//! kept resident throughout ([`StateStore::keep_resident`]); at
//! `jobs > 1` only at the level barrier.
//! Environment slot rows are deduplicated and stay resident.
//!
//! The paged store is **bit-identical** to the unbounded in-memory
//! build at any budget: paging changes where rows live, never what they
//! contain or how states are numbered (asserted by the golden tests at
//! budgets small enough to force eviction).

use crate::graph::ReachError;
use crate::pager::{PagedStates, PagerConfig, PagerShared, SegmentData};
use pnut_core::expr::compile::EnvSlots;
use pnut_core::{PlaceId, TransitionId};
use pnut_obs as obs;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// FxHash
// ---------------------------------------------------------------------------

/// Multiplier from the Firefox/rustc Fx hash (a Fibonacci-style odd
/// constant); quality is plenty for interning and it is far cheaper
/// than SipHash on short keys.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fx_mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// The FxHash algorithm behind a [`std::hash::Hasher`] face, so derived
/// `Hash` impls (e.g. [`EnvSlots`]'s) can feed it.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.hash = fx_mix(
                self.hash,
                u64::from_le_bytes(c.try_into().expect("8 bytes")),
            );
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.hash = fx_mix(self.hash, u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.hash = fx_mix(self.hash, u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.hash = fx_mix(self.hash, u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = fx_mix(self.hash, v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.hash = fx_mix(self.hash, v as u64);
    }
}

/// FxHash of anything `Hash` (used for environment interning).
pub fn fx_hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// Raw intern table
// ---------------------------------------------------------------------------

const EMPTY: u32 = u32::MAX;

/// Open-addressing table of `(hash, index)` pairs with linear probing.
///
/// The table owns no keys: callers keep the real data in an arena and
/// supply an equality predicate at probe time, exactly like hashbrown's
/// raw-entry API but without the dependency.
#[derive(Debug, Clone)]
struct InternTable {
    /// Power-of-two bucket array; `idx == EMPTY` marks a free slot.
    entries: Vec<(u64, u32)>,
    len: usize,
}

impl InternTable {
    fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity * 8 / 7 + 1).next_power_of_two().max(16);
        InternTable {
            entries: vec![(0, EMPTY); buckets],
            len: 0,
        }
    }

    #[inline]
    fn start(&self, hash: u64) -> usize {
        // Fold the high bits in: Fx concentrates entropy there.
        (hash ^ (hash >> 32)) as usize & (self.entries.len() - 1)
    }

    /// Find the index previously inserted under `hash` for which `eq`
    /// holds.
    #[inline]
    fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.entries.len() - 1;
        let mut i = self.start(hash);
        loop {
            let (h, idx) = self.entries[i];
            if idx == EMPTY {
                return None;
            }
            if h == hash && eq(idx) {
                return Some(idx);
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert `idx` under `hash`. The caller guarantees it is absent.
    fn insert(&mut self, hash: u64, idx: u32) {
        if (self.len + 1) * 8 > self.entries.len() * 7 {
            self.grow();
        }
        let mask = self.entries.len() - 1;
        let mut i = self.start(hash);
        while self.entries[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.entries[i] = (hash, idx);
        self.len += 1;
    }

    fn grow(&mut self) {
        let doubled = self.entries.len() * 2;
        let old = std::mem::replace(&mut self.entries, vec![(0, EMPTY); doubled]);
        let mask = self.entries.len() - 1;
        for (h, idx) in old {
            if idx != EMPTY {
                let mut i = (h ^ (h >> 32)) as usize & mask;
                while self.entries[i].1 != EMPTY {
                    i = (i + 1) & mask;
                }
                self.entries[i] = (h, idx);
            }
        }
    }

    fn bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, u32)>()
    }
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

/// A borrowed view of one state's marking (token counts in place order).
///
/// Mirrors the read API of [`pnut_core::Marking`] without owning the
/// counts — they live in the store's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkingView<'a>(&'a [u32]);

impl<'a> MarkingView<'a> {
    /// Wrap a raw slice of token counts.
    pub fn new(counts: &'a [u32]) -> Self {
        MarkingView(counts)
    }

    /// Tokens on `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range.
    pub fn tokens(&self, place: PlaceId) -> u32 {
        self.0[place.index()]
    }

    /// Number of places covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the marking covers zero places.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `place` holds at least `tokens` tokens.
    pub fn covers(&self, place: PlaceId, tokens: u32) -> bool {
        self.0[place.index()] >= tokens
    }

    /// Total tokens across all places.
    pub fn total_tokens(&self) -> u64 {
        self.0.iter().map(|&t| u64::from(t)).sum()
    }

    /// Iterate `(place, tokens)` pairs in place order.
    pub fn iter(&self) -> impl Iterator<Item = (PlaceId, u32)> + 'a {
        self.0
            .iter()
            .enumerate()
            .map(|(i, &t)| (PlaceId::new(i), t))
    }

    /// The raw token counts in place order.
    pub fn as_slice(&self) -> &'a [u32] {
        self.0
    }
}

impl fmt::Display for MarkingView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

/// A borrowed view of one interned state's marking, in-flight firings
/// and enabling clocks, all pointing into the store's arenas.
#[derive(Debug, Clone, Copy)]
pub struct StateRef<'a> {
    /// Token counts.
    pub marking: MarkingView<'a>,
    /// In-flight firings as `(transition, remaining ticks)`, sorted —
    /// empty for untimed graphs.
    pub in_flight: &'a [(TransitionId, u64)],
    /// Enabling clocks as `(transition, remaining ticks until the
    /// start-firing event may happen)`, sorted by transition id — one
    /// entry per ready transition with a non-zero enabling delay, empty
    /// for untimed graphs and for nets without enabling times.
    pub enabling: &'a [(TransitionId, u64)],
}

// ---------------------------------------------------------------------------
// StateStore
// ---------------------------------------------------------------------------

/// Arena-backed interner for reachability states. See the [module
/// docs](self) for the layout and [`crate::pager`] for how the arenas
/// page to disk under a byte budget.
#[derive(Debug)]
pub struct StateStore {
    /// The paged marking/env-id/in-flight arenas.
    states: PagedStates,
    /// Each place's largest token count over the states appended so far
    /// (every append goes through [`Self::intern_bounded`]).
    bounds: Vec<u32>,
    envs: Vec<EnvSlots>,
    state_table: InternTable,
    env_table: InternTable,
}

impl StateStore {
    /// An empty store for markings over `places` places, fully
    /// memory-resident (unlimited budget).
    pub fn new(places: usize) -> Self {
        Self::with_config(places, &PagerConfig::default())
    }

    /// An empty store whose arenas page to disk per `config`.
    pub fn with_config(places: usize, config: &PagerConfig) -> Self {
        StateStore {
            states: PagedStates::new(places, config),
            bounds: vec![0; places],
            envs: Vec::new(),
            state_table: InternTable::with_capacity(64),
            env_table: InternTable::with_capacity(4),
        }
    }

    /// Number of distinct states interned.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no state has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.states.len() == 0
    }

    /// Number of places each marking covers.
    pub fn places(&self) -> usize {
        self.states.places()
    }

    /// Number of distinct variable environments interned.
    pub fn env_count(&self) -> usize {
        self.envs.len()
    }

    /// Each place's largest token count over the states interned so far.
    pub(crate) fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// The marking arena row of state `i`, faulting its segment in
    /// from the spill file if evicted.
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the reload fails.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn try_marking_slice(&self, i: usize) -> Result<&[u32], ReachError> {
        self.states.marking(i)
    }

    /// The in-flight slice of state `i` (faulting like
    /// [`Self::try_marking_slice`]).
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the reload fails.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn try_in_flight_slice(&self, i: usize) -> Result<&[(TransitionId, u64)], ReachError> {
        self.states.in_flight(i)
    }

    /// The enabling-clock slice of state `i` (faulting like
    /// [`Self::try_marking_slice`]).
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the reload fails.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn try_enabling_slice(&self, i: usize) -> Result<&[(TransitionId, u64)], ReachError> {
        self.states.enabling(i)
    }

    /// The environment id of state `i` (faulting like
    /// [`Self::try_marking_slice`]).
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the reload fails.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn try_env_id(&self, i: usize) -> Result<u32, ReachError> {
        self.states.env_id(i)
    }

    /// The interned environment `id`, in slot form.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn env(&self, id: u32) -> &EnvSlots {
        &self.envs[id as usize]
    }

    /// A full view of state `i`, faulting its segment in if evicted.
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the reload fails.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn state(&self, i: usize) -> Result<StateRef<'_>, ReachError> {
        Ok(StateRef {
            marking: MarkingView(self.try_marking_slice(i)?),
            in_flight: self.try_in_flight_slice(i)?,
            enabling: self.try_enabling_slice(i)?,
        })
    }

    /// Evict cold *state* segments until the resident arenas fit the
    /// budget again (a no-op while under budget). The build calls this
    /// at every `&mut` point; long read-only scans (which fault
    /// segments in without being able to evict) can call it between
    /// passes. A [`crate::graph::ReachabilityGraph`] pairs this with
    /// its edge arena's maintenance between the segments of every
    /// [`crate::graph::ReachabilityGraph::sweep`].
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if writing an evicted segment fails.
    pub fn maintain(&mut self) -> Result<(), ReachError> {
        self.states.maintain()
    }

    /// Exempt the segment of state `state` from eviction until the next
    /// call; `None` makes every sealed segment evictable again. The
    /// sequential explorer keeps the segment of the state it expands.
    pub(crate) fn keep_resident(&mut self, state: Option<usize>) {
        self.states.keep(state);
    }

    /// Resident paged-arena bytes right now. This reads the shared
    /// pager ledger, so once a graph's edge arena is attached to the
    /// same budget (see [`crate::pager`]) the number covers *all*
    /// arenas charged against it — which is exactly what the budget
    /// envelope is about. The always-resident intern tables and
    /// environments are excluded.
    pub fn resident_arena_bytes(&self) -> usize {
        self.states.resident_bytes()
    }

    /// High-water mark of [`Self::resident_arena_bytes`].
    pub fn peak_resident_arena_bytes(&self) -> usize {
        self.states.peak_resident_bytes()
    }

    /// Restart the [`Self::peak_resident_arena_bytes`] tracking from
    /// the current resident level — the phase probe the paged-analysis
    /// test harness uses to measure an analysis sweep's envelope
    /// independently of the build that preceded it.
    pub fn reset_peak_resident_bytes(&mut self) {
        self.states.shared().reset_peak();
    }

    /// Bytes of *state* segments spilled to disk so far (0 while
    /// everything fits; the graph's edge arena spills separately).
    pub fn spilled_bytes(&self) -> usize {
        self.states.spilled_bytes()
    }

    /// Arena bytes of the largest sealed state segment — the
    /// granularity of the budget envelope (`resident ≤ budget + one
    /// segment` at the `jobs = 1` build's `&mut` points).
    pub fn max_segment_bytes(&self) -> usize {
        self.states.max_segment_bytes()
    }

    /// Rows per segment — the paging grain the graph's edge arena must
    /// mirror so one guard pins matching state and edge rows.
    pub(crate) fn seg_states(&self) -> usize {
        self.states.seg_states()
    }

    /// The shared pager ledger, for attaching the edge arena to the
    /// same budget.
    pub(crate) fn pager_shared(&self) -> Arc<PagerShared> {
        self.states.shared()
    }

    /// Number of state segments holding at least one state.
    pub(crate) fn segment_count(&self) -> usize {
        self.states.segment_count()
    }

    /// The global state range of segment `seg`.
    pub(crate) fn segment_range(&self, seg: usize) -> std::ops::Range<usize> {
        self.states.segment_range(seg)
    }

    /// The resident data of state segment `seg`, faulting as needed.
    pub(crate) fn state_segment(&self, seg: usize) -> Result<&SegmentData, ReachError> {
        self.states.segment(seg)
    }

    /// Hash contribution of one `(place, count)` marking entry.
    ///
    /// The marking part of a state hash is the wrapping **sum** of these
    /// over all places, so a successor's hash can be maintained
    /// incrementally: subtract the old entry and add the new one for
    /// each place a firing touches, instead of rehashing the whole
    /// marking (see the explorer in [`crate::graph`]). Summing demands
    /// full avalanche *per element* — a cheap single-multiply mix leaves
    /// small token counts in the low bits, and sums of such values
    /// collide catastrophically — so this uses the murmur3 finalizer.
    #[inline]
    pub(crate) fn marking_elem_hash(place: usize, count: u32) -> u64 {
        let mut x = (place as u64) << 32 | u64::from(count);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        x
    }

    /// The marking-part hash of a full marking (sum of element hashes).
    #[inline]
    pub(crate) fn marking_hash(marking: &[u32]) -> u64 {
        marking.iter().enumerate().fold(0u64, |h, (i, &c)| {
            h.wrapping_add(Self::marking_elem_hash(i, c))
        })
    }

    #[inline]
    fn hash_state(
        marking_hash: u64,
        env_id: u32,
        in_flight: &[(TransitionId, u64)],
        enabling: &[(TransitionId, u64)],
    ) -> u64 {
        let mut h = fx_mix(marking_hash, u64::from(env_id));
        h = fx_mix(h, in_flight.len() as u64);
        for &(t, r) in in_flight {
            h = fx_mix(h, t.index() as u64);
            h = fx_mix(h, r);
        }
        h = fx_mix(h, enabling.len() as u64);
        for &(t, r) in enabling {
            h = fx_mix(h, t.index() as u64);
            h = fx_mix(h, r);
        }
        h
    }

    /// Intern a state given by its parts; returns `(index, newly_added)`.
    ///
    /// On a hit nothing is copied or allocated; on a miss the parts are
    /// appended to the arenas.
    ///
    /// # Errors
    ///
    /// [`ReachError::CapacityExceeded`] when a state index or the
    /// in-flight arena would overflow `u32` (the seed construction
    /// aborted here).
    ///
    /// # Panics
    ///
    /// Panics if `marking` does not cover exactly the store's place
    /// count.
    pub fn intern(
        &mut self,
        marking: &[u32],
        env_id: u32,
        in_flight: &[(TransitionId, u64)],
        enabling: &[(TransitionId, u64)],
    ) -> Result<(usize, bool), ReachError> {
        self.intern_bounded(
            marking,
            Self::marking_hash(marking),
            env_id,
            in_flight,
            enabling,
            usize::MAX,
        )
    }

    /// [`Self::intern`] with the marking-part hash already known (the
    /// explorer maintains it incrementally across successor firings) and
    /// a state-count cap: a **new** state is only admitted while the
    /// store holds fewer than `max_states` states, and the limit check
    /// happens *before* anything is appended, so the error path leaves
    /// the store exactly as it was (the seed construction interned
    /// first and checked after, leaving `max_states + 1` states behind).
    /// The same holds under paging: the only fallible step after the
    /// append is budget eviction, which never loses appended data.
    pub(crate) fn intern_bounded(
        &mut self,
        marking: &[u32],
        marking_hash: u64,
        env_id: u32,
        in_flight: &[(TransitionId, u64)],
        enabling: &[(TransitionId, u64)],
        max_states: usize,
    ) -> Result<(usize, bool), ReachError> {
        assert_eq!(marking.len(), self.places(), "marking width mismatch");
        debug_assert_eq!(
            marking_hash,
            Self::marking_hash(marking),
            "stale incremental hash"
        );
        let hash = Self::hash_state(marking_hash, env_id, in_flight, enabling);
        if let Some(idx) = self.probe_state(hash, marking, env_id, in_flight, enabling)? {
            // The probe may have faulted an old segment in; this is a
            // `&mut` point, so evict back under budget right away.
            self.states.maintain()?;
            return Ok((idx as usize, false));
        }
        if self.states.len() >= max_states {
            return Err(ReachError::StateLimit { limit: max_states });
        }
        let idx = u32::try_from(self.states.len()).map_err(|_| ReachError::CapacityExceeded {
            resource: "state index (more than u32::MAX states)",
        })?;
        for (b, &t) in self.bounds.iter_mut().zip(marking) {
            *b = (*b).max(t);
        }
        self.states.append(marking, env_id, in_flight, enabling)?;
        self.state_table.insert(hash, idx);
        obs::metrics::STORE_MISSES.inc();
        Ok((idx as usize, true))
    }

    /// Walk the probe chain for `hash`, comparing content against the
    /// paged arenas on true hash hits only. Hand-rolled (rather than
    /// [`InternTable::find`] with a closure) because the compare may
    /// fault a segment in, which is fallible.
    fn probe_state(
        &self,
        hash: u64,
        marking: &[u32],
        env_id: u32,
        in_flight: &[(TransitionId, u64)],
        enabling: &[(TransitionId, u64)],
    ) -> Result<Option<u32>, ReachError> {
        obs::metrics::STORE_PROBES.inc();
        let mask = self.state_table.entries.len() - 1;
        let mut i = self.state_table.start(hash);
        loop {
            let (h, idx) = self.state_table.entries[i];
            if idx == EMPTY {
                return Ok(None);
            }
            if h == hash {
                // One segment fetch (and at most one fault) covers the
                // whole content compare.
                let (seg, local) = self.states.row(idx as usize)?;
                if seg.env_id(local) == env_id
                    && seg.marking(local, self.places()) == marking
                    && seg.in_flight(local) == in_flight
                    && seg.enabling(local) == enabling
                {
                    obs::metrics::STORE_HITS.inc();
                    return Ok(Some(idx));
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Look up an interned state without interning it (read-only; safe
    /// to call concurrently from the parallel builder's workers while
    /// the store is frozen between level barriers — including the
    /// segment faults a probe may trigger, see [`crate::pager`]).
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if a probed segment fails to reload.
    pub(crate) fn find_state_hashed(
        &self,
        marking: &[u32],
        marking_hash: u64,
        env_id: u32,
        in_flight: &[(TransitionId, u64)],
        enabling: &[(TransitionId, u64)],
    ) -> Result<Option<u32>, ReachError> {
        let hash = Self::hash_state(marking_hash, env_id, in_flight, enabling);
        self.probe_state(hash, marking, env_id, in_flight, enabling)
    }

    /// Intern an environment slot row (all rows of a store share one
    /// `SlotMap`); clones it only the first time it is seen.
    ///
    /// # Errors
    ///
    /// [`ReachError::CapacityExceeded`] on more than `u32::MAX` distinct
    /// environments.
    pub fn intern_env(&mut self, env: &EnvSlots) -> Result<u32, ReachError> {
        let hash = fx_hash_of(env);
        if let Some(id) = self
            .env_table
            .find(hash, |idx| &self.envs[idx as usize] == env)
        {
            return Ok(id);
        }
        let id = u32::try_from(self.envs.len()).map_err(|_| ReachError::CapacityExceeded {
            resource: "environment index (more than u32::MAX environments)",
        })?;
        self.envs.push(env.clone());
        self.env_table.insert(hash, id);
        Ok(id)
    }

    /// Look up an interned environment by content without interning it
    /// (read-only companion of [`Self::intern_env`], with the content
    /// hash precomputed).
    pub(crate) fn find_env_hashed(&self, env: &EnvSlots, hash: u64) -> Option<u32> {
        self.env_table
            .find(hash, |idx| &self.envs[idx as usize] == env)
    }

    /// Approximate heap footprint of the store in bytes (resident
    /// arenas, tables and environment slot rows; spilled segments
    /// excluded — see [`Self::spilled_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        let envs = self.envs.capacity() * std::mem::size_of::<EnvSlots>()
            + self.envs.iter().map(EnvSlots::heap_bytes).sum::<usize>();
        self.states.resident_bytes() + self.state_table.bytes() + self.env_table.bytes() + envs
    }
}

// ---------------------------------------------------------------------------
// Parallel level shards
// ---------------------------------------------------------------------------

/// How a successor refers to its environment during a parallel level:
/// either an id in the committed store, or a packed pending id in one of
/// the level's shards (actions can mint environments the committed store
/// has never seen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnvRef {
    /// An environment already interned in the committed store.
    Committed(u32),
    /// A packed `(shard, local)` id into the level's pending shards.
    Pending(u32),
}

impl From<u32> for EnvRef {
    fn from(id: u32) -> Self {
        EnvRef::Committed(id)
    }
}

/// Bits of a packed pending id reserved for the shard-local index; the
/// remaining high bits carry the shard number.
const PENDING_LOCAL_BITS: u32 = 26;
const PENDING_LOCAL_MASK: u32 = (1 << PENDING_LOCAL_BITS) - 1;

/// Pack a `(shard, local)` pending id; errors if the shard segment is
/// (absurdly) full.
fn pack_pending(shard: u32, local: usize) -> Result<u32, ReachError> {
    if local >= (1usize << PENDING_LOCAL_BITS) {
        return Err(ReachError::CapacityExceeded {
            resource: "level shard segment (2^26 entries per shard)",
        });
    }
    Ok((shard << PENDING_LOCAL_BITS) | local as u32)
}

/// The shard half of a packed pending id.
pub(crate) fn pending_shard(id: u32) -> usize {
    (id >> PENDING_LOCAL_BITS) as usize
}

/// The local-index half of a packed pending id.
pub(crate) fn pending_local(id: u32) -> usize {
    (id & PENDING_LOCAL_MASK) as usize
}

/// Which of `shards` (a power of two) a hash belongs to. Uses the
/// **top** bits: bucket probing inside a table uses the folded low half,
/// so shard selection stays independent of probe position.
pub(crate) fn shard_index(hash: u64, shards: usize) -> usize {
    debug_assert!(shards.is_power_of_two());
    let bits = shards.trailing_zeros();
    if bits == 0 {
        0
    } else {
        (hash >> (64 - bits)) as usize
    }
}

/// The pending-table hash of a state whose environment may itself be
/// pending: the committed-table hash keys on the final env id, which a
/// pending env does not have yet, so this variant mixes the env
/// *reference* (tagged) instead. Only ever compared within one level's
/// pending tables; the committed hash is recomputed at the barrier.
pub(crate) fn pending_state_hash(
    marking_hash: u64,
    env_ref: EnvRef,
    in_flight: &[(TransitionId, u64)],
    enabling: &[(TransitionId, u64)],
) -> u64 {
    let (tag, id) = match env_ref {
        EnvRef::Committed(e) => (0u64, e),
        EnvRef::Pending(p) => (1u64, p),
    };
    let mut h = fx_mix(marking_hash, tag);
    h = fx_mix(h, u64::from(id));
    h = fx_mix(h, in_flight.len() as u64);
    for &(t, r) in in_flight {
        h = fx_mix(h, t.index() as u64);
        h = fx_mix(h, r);
    }
    h = fx_mix(h, enabling.len() as u64);
    for &(t, r) in enabling {
        h = fx_mix(h, t.index() as u64);
        h = fx_mix(h, r);
    }
    h
}

/// One lock stripe of the level-pending intern table: states (and
/// environments) discovered during the current parallel level that are
/// not in the committed store yet. Owns its own arena segments so any
/// worker can probe entries other workers inserted; spliced into the
/// committed store, in deterministic discovery-key order, at the level
/// barrier (see the module docs).
#[derive(Debug)]
pub(crate) struct PendingShard {
    shard: u32,
    places: usize,
    state_table: InternTable,
    /// Min discovery key `(source << 32) | edge_seq` per pending state.
    state_keys: Vec<u64>,
    markings: Vec<u32>,
    marking_hashes: Vec<u64>,
    env_refs: Vec<EnvRef>,
    inflight_offsets: Vec<u32>,
    inflight: Vec<(TransitionId, u64)>,
    enabling_offsets: Vec<u32>,
    enabling: Vec<(TransitionId, u64)>,
    env_table: InternTable,
    /// Min discovery key per pending environment.
    env_keys: Vec<u64>,
    envs: Vec<EnvSlots>,
}

impl PendingShard {
    /// An empty shard numbered `shard` for markings over `places`.
    pub(crate) fn new(shard: usize, places: usize) -> Self {
        PendingShard {
            shard: shard as u32,
            places,
            state_table: InternTable::with_capacity(16),
            state_keys: Vec::new(),
            markings: Vec::new(),
            marking_hashes: Vec::new(),
            env_refs: Vec::new(),
            inflight_offsets: vec![0],
            inflight: Vec::new(),
            enabling_offsets: vec![0],
            enabling: Vec::new(),
            env_table: InternTable::with_capacity(4),
            env_keys: Vec::new(),
            envs: Vec::new(),
        }
    }

    fn state_count(&self) -> usize {
        self.env_refs.len()
    }

    fn marking_slice(&self, i: usize) -> &[u32] {
        &self.markings[i * self.places..(i + 1) * self.places]
    }

    fn inflight_slice(&self, i: usize) -> &[(TransitionId, u64)] {
        &self.inflight[self.inflight_offsets[i] as usize..self.inflight_offsets[i + 1] as usize]
    }

    fn enabling_slice(&self, i: usize) -> &[(TransitionId, u64)] {
        &self.enabling[self.enabling_offsets[i] as usize..self.enabling_offsets[i + 1] as usize]
    }

    /// Reset for the next level, keeping arena capacity.
    fn clear(&mut self) {
        self.state_table = InternTable::with_capacity(self.state_keys.len().max(16));
        self.state_keys.clear();
        self.markings.clear();
        self.marking_hashes.clear();
        self.env_refs.clear();
        self.inflight_offsets.clear();
        self.inflight_offsets.push(0);
        self.inflight.clear();
        self.enabling_offsets.clear();
        self.enabling_offsets.push(0);
        self.enabling.clear();
        self.env_table = InternTable::with_capacity(self.env_keys.len().max(4));
        self.env_keys.clear();
        self.envs.clear();
    }

    /// Intern a pending environment under its content hash, min-reducing
    /// the discovery key on a hit. Returns the packed pending id.
    pub(crate) fn intern_env(
        &mut self,
        env: &EnvSlots,
        hash: u64,
        key: u64,
    ) -> Result<u32, ReachError> {
        if let Some(local) = self.env_table.find(hash, |i| &self.envs[i as usize] == env) {
            let k = &mut self.env_keys[local as usize];
            *k = (*k).min(key);
            return pack_pending(self.shard, local as usize);
        }
        let local = self.envs.len();
        let id = pack_pending(self.shard, local)?;
        self.envs.push(env.clone());
        self.env_keys.push(key);
        self.env_table.insert(hash, local as u32);
        Ok(id)
    }

    /// Intern a pending state under its [`pending_state_hash`],
    /// min-reducing the discovery key on a hit. The inserting caller
    /// copies the state into this shard's segments (under the shard
    /// lock), so concurrent probes from other workers see it.
    #[allow(clippy::too_many_arguments)] // mirrors the committed intern signature
    pub(crate) fn intern_state(
        &mut self,
        marking: &[u32],
        marking_hash: u64,
        hash: u64,
        env_ref: EnvRef,
        in_flight: &[(TransitionId, u64)],
        enabling: &[(TransitionId, u64)],
        key: u64,
    ) -> Result<u32, ReachError> {
        debug_assert_eq!(marking.len(), self.places, "marking width mismatch");
        let found = self.state_table.find(hash, |i| {
            let i = i as usize;
            self.env_refs[i] == env_ref
                && self.marking_slice(i) == marking
                && self.inflight_slice(i) == in_flight
                && self.enabling_slice(i) == enabling
        });
        if let Some(local) = found {
            let k = &mut self.state_keys[local as usize];
            *k = (*k).min(key);
            return pack_pending(self.shard, local as usize);
        }
        let local = self.state_count();
        let id = pack_pending(self.shard, local)?;
        let end = u32::try_from(self.inflight.len() + in_flight.len()).map_err(|_| {
            ReachError::CapacityExceeded {
                resource: "level in-flight segment (u32 offsets)",
            }
        })?;
        let enabling_end = u32::try_from(self.enabling.len() + enabling.len()).map_err(|_| {
            ReachError::CapacityExceeded {
                resource: "level enabling segment (u32 offsets)",
            }
        })?;
        self.markings.extend_from_slice(marking);
        self.marking_hashes.push(marking_hash);
        self.env_refs.push(env_ref);
        self.inflight.extend_from_slice(in_flight);
        self.inflight_offsets.push(end);
        self.enabling.extend_from_slice(enabling);
        self.enabling_offsets.push(enabling_end);
        self.state_keys.push(key);
        self.state_table.insert(hash, local as u32);
        Ok(id)
    }
}

/// All novel states of a level as sorted `(discovery key, packed id)`
/// pairs — ascending key order **is** the order the `jobs = 1` build
/// would first intern them.
pub(crate) fn collect_novel_states(shards: &[&mut PendingShard]) -> Vec<(u64, u32)> {
    let mut novel: Vec<(u64, u32)> = shards
        .iter()
        .flat_map(|sh| {
            sh.state_keys
                .iter()
                .enumerate()
                .map(|(local, &key)| (key, (sh.shard << PENDING_LOCAL_BITS) | local as u32))
        })
        .collect();
    novel.sort_unstable();
    novel
}

impl StateStore {
    /// Commit one parallel level: intern the pending environments, then
    /// the pending states (`novel`, already sorted by discovery key —
    /// see [`collect_novel_states`]), into the committed arenas in
    /// `jobs = 1` build order, and reset the shards for the next level.
    ///
    /// Returns the per-shard map from local pending index to final dense
    /// state index, for edge-target rewriting.
    pub(crate) fn splice_level(
        &mut self,
        shards: &mut [&mut PendingShard],
        novel: &[(u64, u32)],
    ) -> Result<Vec<Vec<u32>>, ReachError> {
        for sh in shards.iter() {
            if sh.state_count() > 0 {
                obs::metrics::STORE_SPLICE_STATES.record(sh.state_count() as u64);
            }
        }
        let mut env_order: Vec<(u64, u32)> = shards
            .iter()
            .flat_map(|sh| {
                sh.env_keys
                    .iter()
                    .enumerate()
                    .map(|(local, &key)| (key, (sh.shard << PENDING_LOCAL_BITS) | local as u32))
            })
            .collect();
        env_order.sort_unstable();
        let mut env_map: Vec<Vec<u32>> = shards.iter().map(|sh| vec![0; sh.envs.len()]).collect();
        for &(_, packed) in &env_order {
            let (s, l) = (pending_shard(packed), pending_local(packed));
            let env = std::mem::take(&mut shards[s].envs[l]);
            env_map[s][l] = self.intern_env(&env)?;
        }
        let mut state_map: Vec<Vec<u32>> =
            shards.iter().map(|sh| vec![0; sh.state_count()]).collect();
        for &(_, packed) in novel {
            let (s, l) = (pending_shard(packed), pending_local(packed));
            let sh = &*shards[s];
            let env_id = match sh.env_refs[l] {
                EnvRef::Committed(e) => e,
                EnvRef::Pending(p) => env_map[pending_shard(p)][pending_local(p)],
            };
            let (idx, new) = self.intern_bounded(
                sh.marking_slice(l),
                sh.marking_hashes[l],
                env_id,
                sh.inflight_slice(l),
                sh.enabling_slice(l),
                usize::MAX,
            )?;
            debug_assert!(new, "pending state was already committed");
            state_map[s][l] = idx as u32;
        }
        for sh in shards {
            sh.clear();
        }
        Ok(state_map)
    }
}

/// Semantic equality: same states in the same order with the same
/// environments (table layout, paging grain, and residency are all
/// ignored — a spilled store equals its resident twin).
impl PartialEq for StateStore {
    fn eq(&self, other: &Self) -> bool {
        self.envs == other.envs && self.states == other.states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::expr::compile::SlotMap;
    use pnut_core::expr::{Env, Value};

    /// The slot row of a one-variable environment `x = v`.
    fn x_is(v: i64) -> EnvSlots {
        let mut env = Env::new();
        env.set_var("x", Value::Int(v));
        let mut slots = EnvSlots::new();
        slots.load(&SlotMap::from_names(["x".to_string()], []), &env);
        slots
    }

    #[test]
    fn intern_is_idempotent_and_zero_copy_on_hit() {
        let mut s = StateStore::new(3);
        let e = s.intern_env(&EnvSlots::new()).unwrap();
        let (a, new_a) = s.intern(&[1, 0, 2], e, &[], &[]).unwrap();
        let (b, new_b) = s.intern(&[1, 0, 2], e, &[], &[]).unwrap();
        let (c, new_c) = s.intern(&[1, 0, 3], e, &[], &[]).unwrap();
        assert_eq!((a, new_a), (0, true));
        assert_eq!((b, new_b), (0, false));
        assert_eq!((c, new_c), (1, true));
        assert_eq!(s.len(), 2);
        assert_eq!(s.try_marking_slice(1).unwrap(), &[1, 0, 3]);
    }

    #[test]
    fn in_flight_distinguishes_states() {
        let mut s = StateStore::new(1);
        let e = s.intern_env(&EnvSlots::new()).unwrap();
        let t0 = TransitionId::new(0);
        let (a, _) = s.intern(&[0], e, &[(t0, 3)], &[]).unwrap();
        let (b, _) = s.intern(&[0], e, &[(t0, 2)], &[]).unwrap();
        let (c, _) = s.intern(&[0], e, &[], &[]).unwrap();
        assert_eq!(s.len(), 3);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(s.state(a).unwrap().in_flight, &[(t0, 3)]);
        assert!(s.state(c).unwrap().in_flight.is_empty());
    }

    #[test]
    fn environments_are_shared() {
        let mut s = StateStore::new(1);
        let e1 = s.intern_env(&x_is(1)).unwrap();
        let e2 = s.intern_env(&x_is(1)).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(s.env_count(), 1);
        assert_ne!(s.intern_env(&x_is(2)).unwrap(), e1);
        assert_eq!(s.env_count(), 2);
    }

    #[test]
    fn table_survives_growth() {
        let mut s = StateStore::new(2);
        let e = s.intern_env(&EnvSlots::new()).unwrap();
        for i in 0..10_000u32 {
            let (idx, new) = s.intern(&[i, i / 3], e, &[], &[]).unwrap();
            assert_eq!(idx, i as usize);
            assert!(new);
        }
        // Everything is still findable after many growths.
        for i in 0..10_000u32 {
            let (idx, new) = s.intern(&[i, i / 3], e, &[], &[]).unwrap();
            assert_eq!(idx, i as usize);
            assert!(!new, "state {i} was re-interned");
        }
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn views_mirror_marking_api() {
        let mut s = StateStore::new(3);
        let e = s.intern_env(&EnvSlots::new()).unwrap();
        s.intern(&[1, 0, 6], e, &[], &[]).unwrap();
        let v = s.state(0).unwrap().marking;
        assert_eq!(v.tokens(PlaceId::new(2)), 6);
        assert!(v.covers(PlaceId::new(0), 1));
        assert!(!v.covers(PlaceId::new(1), 1));
        assert_eq!(v.total_tokens(), 7);
        assert_eq!(v.len(), 3);
        assert_eq!(v.to_string(), "[1 0 6]");
        assert_eq!(v.as_slice(), [1, 0, 6]);
        assert_eq!(
            v.iter().map(|(p, t)| (p.index(), t)).collect::<Vec<_>>(),
            vec![(0, 1), (1, 0), (2, 6)]
        );
    }

    #[test]
    fn fx_hasher_differentiates_tails() {
        // Regression guard for the partial-word path.
        assert_ne!(fx_hash_of(&[1u8, 2]), fx_hash_of(&[1u8, 2, 0]));
        assert_ne!(fx_hash_of("ab"), fx_hash_of("ba"));
        assert_eq!(fx_hash_of(&42u64), fx_hash_of(&42u64));
    }

    #[test]
    fn memory_estimate_is_monotonic() {
        let mut s = StateStore::new(4);
        let e = s.intern_env(&EnvSlots::new()).unwrap();
        let before = s.approx_bytes();
        for i in 0..1000u32 {
            s.intern(&[i, 0, 0, 0], e, &[], &[]).unwrap();
        }
        assert!(s.approx_bytes() > before);
    }

    #[test]
    fn bounded_intern_checks_before_appending() {
        // Regression guard for the limit/overflow satellite: hitting the
        // state cap must leave the store untouched (the seed interned
        // first and checked after, leaving max + 1 states behind).
        let mut s = StateStore::new(1);
        let e = s.intern_env(&EnvSlots::new()).unwrap();
        let (a, _) = s
            .intern_bounded(&[0], StateStore::marking_hash(&[0]), e, &[], &[], 1)
            .unwrap();
        assert_eq!(a, 0);
        // A duplicate is still a hit at the cap.
        let (b, new) = s
            .intern_bounded(&[0], StateStore::marking_hash(&[0]), e, &[], &[], 1)
            .unwrap();
        assert_eq!((b, new), (0, false));
        let err = s
            .intern_bounded(&[7], StateStore::marking_hash(&[7]), e, &[], &[], 1)
            .unwrap_err();
        assert_eq!(err, ReachError::StateLimit { limit: 1 });
        assert_eq!(s.len(), 1, "failed intern must not grow the store");
        assert!(s
            .find_state_hashed(&[7], StateStore::marking_hash(&[7]), e, &[], &[])
            .unwrap()
            .is_none());
    }

    #[test]
    fn paged_store_evicts_reloads_and_reinterns_identically() {
        // Store-level pager round-trip: a budget far below the data
        // forces sealed segments to spill; every row must read back
        // byte-for-byte, probes against evicted segments must still
        // hit, and a re-intern of an evicted state must be a hit (not a
        // duplicate append).
        let config = PagerConfig {
            mem_budget: 8 * 1024,
            spill_dir: None,
        };
        let mut s = StateStore::with_config(4, &config);
        let mut envs = Vec::new();
        for v in 0..4 {
            envs.push(s.intern_env(&x_is(v)).unwrap());
        }
        let t0 = TransitionId::new(0);
        let n = 3000u32;
        for i in 0..n {
            let inflight: &[(TransitionId, u64)] = if i % 2 == 0 {
                &[(t0, u64::from(i) + 1)]
            } else {
                &[]
            };
            let enabling: &[(TransitionId, u64)] = if i % 3 == 0 {
                &[(t0, u64::from(i) % 11)]
            } else {
                &[]
            };
            let (idx, new) = s
                .intern(
                    &[i, i / 2, 7, i % 3],
                    envs[(i % 4) as usize],
                    inflight,
                    enabling,
                )
                .unwrap();
            assert_eq!((idx, new), (i as usize, true));
        }
        assert!(s.spilled_bytes() > 0, "budget must have forced spilling");
        assert!(s.resident_arena_bytes() <= 8 * 1024 + s.max_segment_bytes());
        // Re-verify every state byte-for-byte (faulting segments back
        // in), then re-intern: all hits, nothing appended.
        for i in 0..n {
            assert_eq!(
                s.try_marking_slice(i as usize).unwrap(),
                &[i, i / 2, 7, i % 3]
            );
            assert_eq!(s.try_env_id(i as usize).unwrap(), envs[(i % 4) as usize]);
            let inflight: &[(TransitionId, u64)] = if i % 2 == 0 {
                &[(t0, u64::from(i) + 1)]
            } else {
                &[]
            };
            let enabling: &[(TransitionId, u64)] = if i % 3 == 0 {
                &[(t0, u64::from(i) % 11)]
            } else {
                &[]
            };
            assert_eq!(s.try_in_flight_slice(i as usize).unwrap(), inflight);
            assert_eq!(s.try_enabling_slice(i as usize).unwrap(), enabling);
        }
        s.maintain().unwrap();
        for i in 0..n {
            let inflight: &[(TransitionId, u64)] = if i % 2 == 0 {
                &[(t0, u64::from(i) + 1)]
            } else {
                &[]
            };
            let enabling: &[(TransitionId, u64)] = if i % 3 == 0 {
                &[(t0, u64::from(i) % 11)]
            } else {
                &[]
            };
            let (idx, new) = s
                .intern(
                    &[i, i / 2, 7, i % 3],
                    envs[(i % 4) as usize],
                    inflight,
                    enabling,
                )
                .unwrap();
            assert_eq!((idx, new), (i as usize, false), "state {i} re-interned");
        }
        assert_eq!(s.len(), n as usize);
        // A paged store equals a fully resident build of the same data.
        let mut resident = StateStore::new(4);
        for v in 0..4 {
            resident.intern_env(&x_is(v)).unwrap();
        }
        for i in 0..n {
            let inflight: &[(TransitionId, u64)] = if i % 2 == 0 {
                &[(t0, u64::from(i) + 1)]
            } else {
                &[]
            };
            let enabling: &[(TransitionId, u64)] = if i % 3 == 0 {
                &[(t0, u64::from(i) % 11)]
            } else {
                &[]
            };
            resident
                .intern(
                    &[i, i / 2, 7, i % 3],
                    envs[(i % 4) as usize],
                    inflight,
                    enabling,
                )
                .unwrap();
        }
        assert_eq!(s, resident);
    }

    #[test]
    fn shard_index_uses_top_bits() {
        assert_eq!(shard_index(u64::MAX, 1), 0);
        assert_eq!(shard_index(0, 16), 0);
        assert_eq!(shard_index(u64::MAX, 16), 15);
        assert_eq!(shard_index(1u64 << 63, 2), 1);
    }

    #[test]
    fn splice_orders_novel_states_by_discovery_key() {
        // Two shards, states inserted in "wrong" wall-clock order with
        // min-reduced keys; the splice must commit them in key order and
        // resolve pending environments first.
        let mut store = StateStore::new(1);
        let e0 = store.intern_env(&EnvSlots::new()).unwrap();
        store.intern(&[0], e0, &[], &[]).unwrap(); // committed state 0
        let mut sh0 = PendingShard::new(0, 1);
        let mut sh1 = PendingShard::new(1, 1);

        let env = x_is(9);
        let eh = fx_hash_of(&env);
        let pe = sh1.intern_env(&env, eh, 7).unwrap();
        // The same env re-discovered earlier in sequential order.
        let pe2 = sh1.intern_env(&env, eh, 3).unwrap();
        assert_eq!(pe, pe2);

        let mh = |m: &[u32]| StateStore::marking_hash(m);
        // Discovered at key 5 in shard 0 with the pending env.
        let er = EnvRef::Pending(pe);
        let p_late = sh0
            .intern_state(
                &[2],
                mh(&[2]),
                pending_state_hash(mh(&[2]), er, &[], &[]),
                er,
                &[],
                &[],
                5,
            )
            .unwrap();
        // Discovered at key 2 in shard 1 with the committed env.
        let er0 = EnvRef::Committed(e0);
        let p_early = sh1
            .intern_state(
                &[1],
                mh(&[1]),
                pending_state_hash(mh(&[1]), er0, &[], &[]),
                er0,
                &[],
                &[],
                2,
            )
            .unwrap();
        // A duplicate reference with a *smaller* key min-reduces.
        let p_again = sh0
            .intern_state(
                &[2],
                mh(&[2]),
                pending_state_hash(mh(&[2]), er, &[], &[]),
                er,
                &[],
                &[],
                4,
            )
            .unwrap();
        assert_eq!(p_late, p_again);

        let mut shards = [&mut sh0, &mut sh1];
        let novel = collect_novel_states(&shards);
        assert_eq!(novel.len(), 2);
        assert!(novel[0].0 < novel[1].0, "sorted by discovery key");
        let map = store.splice_level(&mut shards, &novel).unwrap();
        // Key 2 (marking [1]) commits before key 4 (marking [2]).
        assert_eq!(store.len(), 3);
        assert_eq!(store.try_marking_slice(1).unwrap(), &[1]);
        assert_eq!(store.try_marking_slice(2).unwrap(), &[2]);
        assert_eq!(map[pending_shard(p_early)][pending_local(p_early)], 1);
        assert_eq!(map[pending_shard(p_late)][pending_local(p_late)], 2);
        // The pending env was committed and the state references it.
        assert_eq!(store.env_count(), 2);
        let env = store.env(store.try_env_id(2).unwrap());
        assert_eq!(env.var(0), Some(Value::Int(9)));
        // Shards are reset for the next level.
        assert!(collect_novel_states(&shards).is_empty());
    }
}

/// The parallel level-barrier protocol under the interleaving checker:
/// workers race to intern into lock-striped pending shards, and the
/// barrier splice must produce the same committed order on **every**
/// schedule — the bit-identical-at-any-job-count guarantee, proved
/// exhaustively at model scale instead of sampled by real threads.
#[cfg(all(test, feature = "race-model"))]
mod race_tests {
    use super::*;
    use crate::race::{self, Options};
    use crate::sync::Mutex;

    fn intern_pending(shards: &[Mutex<PendingShard>], env: u32, marking: &[u32], key: u64) {
        let marking_hash = StateStore::marking_hash(marking);
        let env_ref = EnvRef::Committed(env);
        let hash = pending_state_hash(marking_hash, env_ref, &[], &[]);
        let shard = shard_index(hash, shards.len());
        let mut sh = shards[shard].lock().expect("pending shard lock");
        sh.intern_state(marking, marking_hash, hash, env_ref, &[], &[], key)
            .expect("pending intern");
    }

    #[test]
    fn level_splice_is_deterministic_under_every_schedule() {
        race::check(&Options::default(), || {
            let mut store = StateStore::new(2);
            let env = store.intern_env(&EnvSlots::new()).expect("env");
            let (root, _) = store.intern(&[1, 0], env, &[], &[]).expect("root");
            assert_eq!(root, 0);
            let shards: Vec<Mutex<PendingShard>> = (0..2)
                .map(|s| Mutex::new(PendingShard::new(s, 2)))
                .collect();
            race::scope(|s| {
                s.spawn(|| {
                    intern_pending(&shards, env, &[9, 0], 10);
                    intern_pending(&shards, env, &[8, 0], 11);
                });
                s.spawn(|| {
                    // Duplicates worker 0's [8, 0] with a *smaller*
                    // discovery key: the min-reduction must win no
                    // matter which worker inserted first.
                    intern_pending(&shards, env, &[8, 0], 5);
                    intern_pending(&shards, env, &[7, 0], 12);
                });
            });
            let mut shards = shards;
            let mut refs: Vec<&mut PendingShard> = shards
                .iter_mut()
                .map(|m| m.get_mut().expect("shard lock"))
                .collect();
            let novel = collect_novel_states(&refs);
            assert_eq!(novel.len(), 3, "three distinct pending states");
            store
                .splice_level(&mut refs, &novel)
                .expect("barrier splice");
            // Discovery-key order, regardless of interleaving: the
            // store is bit-identical to the `jobs = 1` build's.
            assert_eq!(store.len(), 4);
            assert_eq!(
                store.try_marking_slice(1).unwrap(),
                &[8, 0],
                "key 5 splices first"
            );
            assert_eq!(
                store.try_marking_slice(2).unwrap(),
                &[9, 0],
                "key 10 second"
            );
            assert_eq!(store.try_marking_slice(3).unwrap(), &[7, 0], "key 12 last");
        })
        .expect("level splice has no defects");
    }
}
