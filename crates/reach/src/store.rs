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
//! One type owns this row layout, the paged segment
//! [`crate::pager::SegmentData`]: `SegmentData::push` writes a state's
//! row and `SegmentData::state` reads it back whole as a [`StateRef`].
//! Every reader ([`StateStore::state`], the intern probe, the
//! explorer's source load, [`crate::graph::SegmentGuard::state`]) takes
//! the whole row from one segment fetch.
//!
//! Duplicate detection is a hand-rolled open-addressing table of
//! `(hash fold, state index)` buckets — the raw-entry pattern: no owned
//! keys, no re-hashing on probe, equality checked directly against the
//! arena slices. A bucket keeps the 32-bit fold `hash ^ (hash >> 32)` of
//! the precomputed 64-bit hash, which also picks the start bucket, so a
//! fold match runs the compare and the compare decides. A miss returns
//! the free bucket its probe stopped at, and the new state goes there:
//! one probe per new state, unless the table grows first.
//! Environments are interned first, as the dense [`EnvSlots`] rows
//! expressions run on, so state equality degrades to slice compares
//! plus one `u32` compare, and exploring builds, hashes and compares no
//! name-keyed maps.
//!
//! # Complexity
//!
//! Interning is amortized O(|marking| + |in-flight|) per successor with
//! no allocation on the hit path (the overwhelmingly common case once
//! the frontier saturates). Memory is one arena copy per distinct state
//! plus its share of the intern table: each bucket is a `(u32, u32)`,
//! 8 bytes, and the bucket count is a power of two kept at a load of at
//! most 7/8, so a state costs 9–19 bytes of table. The owned-key layout
//! this replaced stored every state twice, before counting its
//! per-state heap headers.
//!
//! # Parallel levels: expand side by side, intern in order
//!
//! The explorer in [`crate::graph`] runs breadth-first one *level* at a
//! time, and only ever interns through [`StateStore::intern_env`] and
//! [`StateStore::intern_bounded`], one source's successors after the
//! other, in edge order. At `jobs > 1` a wide level is split into
//! batches: scoped workers load their sources from this store, frozen
//! and shared read-only, and expand them into rows without probing it;
//! the barrier then interns the rows in source order. So every state
//! and environment gets the number the `jobs = 1` build gives it, and
//! the graph is **bit-identical** at any worker count, with no second
//! table to reconcile.
//!
//! # Paging: how the arenas scale past RAM
//!
//! The arenas above are not one flat allocation anymore: they are
//! partitioned into fixed-state-count **level segments** managed by
//! [`crate::pager`], each either resident in memory or spilled to a
//! temp file under a configurable byte budget
//! ([`crate::graph::ReachOptions::mem_budget`]). Three layers cooperate:
//!
//! 1. **intern table** — resident; holds only `(32-bit hash fold,
//!    index)`, so probes touch a segment (and possibly disk) only on a
//!    fold match;
//! 2. **segments** — the marking/env-id/in-flight rows of
//!    `seg_states` consecutive states; the tail receives appends, full
//!    segments seal immutable and become evictable;
//! 3. **spill file** — write-once images of sealed segments.
//!
//! Read accessors fault evicted segments back in transparently — even
//! under `&self`, which is what lets the workers of a wide level load
//! their sources from the frozen store (see [`crate::pager`] for the
//! load-only-under-`&self` safety argument). Eviction happens at `&mut`
//! points: after every state load of a narrow level, and inside every
//! intern and after every edge row at any width, so the resident set
//! tracks the budget with at most one faulted segment of slack, and the
//! segment of the state being expanded is kept resident throughout
//! ([`StateStore::keep_resident`]). A wide level's workers cannot
//! evict; the segments their loads fault in go at the barrier.
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

/// Where a probe of an [`InternTable`] ended.
enum Probe {
    /// The index whose compare held.
    Hit(u32),
    /// The empty bucket the probe stopped at, which
    /// [`InternTable::insert`] fills.
    Miss(usize),
}

/// Open-addressing table of `(fold, index)` buckets with linear probing.
///
/// The table owns no keys: callers keep the real data in an arena and
/// supply an equality predicate at probe time, exactly like hashbrown's
/// raw-entry API but without the dependency. A bucket keeps only the
/// 32-bit fold of the key's 64-bit hash, the same fold that picks its
/// start bucket, so a fold match runs the compare and the compare alone
/// decides a hit.
#[derive(Debug, Clone)]
struct InternTable {
    /// Power-of-two bucket array; `idx == EMPTY` marks a free slot.
    entries: Vec<(u32, u32)>,
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
    fn fold(hash: u64) -> u32 {
        // Fold the high bits in: Fx concentrates entropy there.
        (hash ^ (hash >> 32)) as u32
    }

    /// The first free bucket from `fold`'s start bucket on.
    fn vacant(&self, fold: u32) -> usize {
        let mask = self.entries.len() - 1;
        let mut i = fold as usize & mask;
        while self.entries[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// Find the index previously inserted under `hash` for which `eq`
    /// holds, or the free bucket where the probe stopped. `eq` runs on
    /// fold matches only, and may fail: the state table's compare reads
    /// the paged arenas, which can fault.
    #[inline]
    fn find(
        &self,
        hash: u64,
        mut eq: impl FnMut(u32) -> Result<bool, ReachError>,
    ) -> Result<Probe, ReachError> {
        let fold = Self::fold(hash);
        let mask = self.entries.len() - 1;
        let mut i = fold as usize & mask;
        loop {
            let (f, idx) = self.entries[i];
            if idx == EMPTY {
                return Ok(Probe::Miss(i));
            }
            if f == fold && eq(idx)? {
                return Ok(Probe::Hit(idx));
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert `idx` under `hash` into `bucket`, where [`Self::find`]
    /// just missed it with nothing inserted since. A table that must
    /// grow first is probed again for the bucket.
    fn insert(&mut self, bucket: usize, hash: u64, idx: u32) {
        let fold = Self::fold(hash);
        let bucket = if (self.len + 1) * 8 > self.entries.len() * 7 {
            self.grow();
            self.vacant(fold)
        } else {
            bucket
        };
        debug_assert_eq!(self.entries[bucket].1, EMPTY, "bucket taken since the miss");
        self.entries[bucket] = (fold, idx);
        self.len += 1;
    }

    fn grow(&mut self) {
        let doubled = self.entries.len() * 2;
        let old = std::mem::replace(&mut self.entries, vec![(0, EMPTY); doubled]);
        for (fold, idx) in old {
            if idx != EMPTY {
                let i = self.vacant(fold);
                self.entries[i] = (fold, idx);
            }
        }
    }

    fn bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u32, u32)>()
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

/// A borrowed view of one interned state's marking, environment id,
/// in-flight firings and enabling clocks, all pointing into the store's
/// arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateRef<'a> {
    /// Token counts.
    pub marking: MarkingView<'a>,
    /// The state's interned environment (see [`StateStore::env`]).
    pub env_id: u32,
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
        self.states.state(i)
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
    /// append is budget eviction, which never loses appended data, and
    /// the new state is in the intern table before it runs.
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
        obs::metrics::STORE_PROBES.inc();
        let probe = self.state_table.find(hash, |idx| {
            let s = self.states.state(idx as usize)?;
            Ok(s.env_id == env_id
                && s.marking.as_slice() == marking
                && s.in_flight == in_flight
                && s.enabling == enabling)
        })?;
        let bucket = match probe {
            Probe::Hit(idx) => {
                obs::metrics::STORE_HITS.inc();
                // The probe may have faulted an old segment in; this is
                // a `&mut` point, so evict back under budget right away.
                self.states.maintain()?;
                return Ok((idx as usize, false));
            }
            Probe::Miss(bucket) => bucket,
        };
        if self.states.len() >= max_states {
            return Err(ReachError::StateLimit { limit: max_states });
        }
        let idx = u32::try_from(self.states.len()).map_err(|_| ReachError::CapacityExceeded {
            resource: "state index (more than u32::MAX states)",
        })?;
        for (b, &t) in self.bounds.iter_mut().zip(marking) {
            *b = (*b).max(t);
        }
        // Table first: the append records the row before its eviction
        // can fail, so a failed spill write must still leave the state
        // findable, or interning it again would append a duplicate.
        self.state_table.insert(bucket, hash, idx);
        obs::metrics::STORE_MISSES.inc();
        self.states.append(marking, env_id, in_flight, enabling)?;
        Ok((idx as usize, true))
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
        let bucket = match self
            .env_table
            .find(hash, |idx| Ok(&self.envs[idx as usize] == env))?
        {
            Probe::Hit(id) => return Ok(id),
            Probe::Miss(bucket) => bucket,
        };
        let id = u32::try_from(self.envs.len()).map_err(|_| ReachError::CapacityExceeded {
            resource: "environment index (more than u32::MAX environments)",
        })?;
        self.envs.push(env.clone());
        self.env_table.insert(bucket, hash, id);
        Ok(id)
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
        assert_eq!(s.state(1).unwrap().marking.as_slice(), &[1, 0, 3]);
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

    /// Look `hash` up in `table`, whose index `i` holds key `keys[i]`,
    /// and insert it as the next key on a miss; returns its index and
    /// whether it was new.
    fn intern_key(table: &mut InternTable, keys: &mut Vec<u64>, hash: u64) -> (u32, bool) {
        let probe = table.find(hash, |idx| Ok(keys[idx as usize] == hash));
        match probe.unwrap() {
            Probe::Hit(idx) => (idx, false),
            Probe::Miss(bucket) => {
                let idx = keys.len() as u32;
                keys.push(hash);
                table.insert(bucket, hash, idx);
                (idx, true)
            }
        }
    }

    #[test]
    fn the_compare_decides_between_keys_of_one_fold() {
        // Different 64-bit hashes, same 32-bit fold `hash ^ (hash >> 32)`.
        let (a, b, c) = (1u64 << 32, 1u64, 0x8000_0001_8000_0000u64);
        assert_eq!(InternTable::fold(a), InternTable::fold(b));
        assert_eq!(InternTable::fold(a), InternTable::fold(c));
        let (mut table, mut keys) = (InternTable::with_capacity(4), Vec::new());
        assert_eq!(intern_key(&mut table, &mut keys, a), (0, true));
        assert_eq!(intern_key(&mut table, &mut keys, b), (1, true));
        assert_eq!(intern_key(&mut table, &mut keys, c), (2, true));
        for (i, &key) in [a, b, c].iter().enumerate() {
            assert_eq!(intern_key(&mut table, &mut keys, key), (i as u32, false));
        }
    }

    #[test]
    fn a_miss_that_grows_the_table_lands_where_it_is_found() {
        let (mut table, mut keys) = (InternTable::with_capacity(4), Vec::new());
        let mut doublings = 0;
        for i in 0..5000u64 {
            // Spread keys, and every eighth one shares its fold with the
            // key before it.
            let hash = if i % 8 == 7 {
                keys[keys.len() - 1] ^ 0xffff_ffff_0000_0000 ^ 0xffff_ffff
            } else {
                fx_mix(0, i)
            };
            let buckets = table.entries.len();
            assert_eq!(intern_key(&mut table, &mut keys, hash), (i as u32, true));
            assert_eq!(intern_key(&mut table, &mut keys, hash), (i as u32, false));
            if table.entries.len() != buckets {
                doublings += 1;
                for (j, key) in keys.clone().into_iter().enumerate() {
                    assert_eq!(intern_key(&mut table, &mut keys, key), (j as u32, false));
                }
            }
        }
        assert_eq!(table.len, 5000);
        assert!(doublings >= 9, "{doublings} doublings");
    }

    #[test]
    fn an_unbudgeted_store_peaks_at_its_resident_bytes() {
        let mut s = StateStore::new(3);
        let e = s.intern_env(&EnvSlots::new()).unwrap();
        // Past one 4096-state segment, so a tail seals and a fresh one
        // opens.
        for i in 0..5000u32 {
            s.intern(&[i, i % 7, 1], e, &[], &[]).unwrap();
            if i % 1000 == 0 {
                assert_eq!(s.peak_resident_arena_bytes(), s.resident_arena_bytes());
            }
        }
        assert!(s.resident_arena_bytes() > 5000 * 12);
        assert_eq!(s.peak_resident_arena_bytes(), s.resident_arena_bytes());
        s.reset_peak_resident_bytes();
        assert_eq!(s.peak_resident_arena_bytes(), s.resident_arena_bytes());
        s.intern(&[0, 0, 0], e, &[], &[]).unwrap();
        assert_eq!(s.peak_resident_arena_bytes(), s.resident_arena_bytes());
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
        // The refused state was never interned: under a cap of 2 it is
        // new, and takes the next index.
        let (c, new) = s
            .intern_bounded(&[7], StateStore::marking_hash(&[7]), e, &[], &[], 2)
            .unwrap();
        assert_eq!((c, new), (1, true));
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
                s.state(i as usize).unwrap().marking.as_slice(),
                &[i, i / 2, 7, i % 3]
            );
            assert_eq!(s.state(i as usize).unwrap().env_id, envs[(i % 4) as usize]);
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
            assert_eq!(s.state(i as usize).unwrap().in_flight, inflight);
            assert_eq!(s.state(i as usize).unwrap().enabling, enabling);
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
}
