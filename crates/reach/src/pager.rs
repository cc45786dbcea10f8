//! Disk-backed paging for the reachability arenas — the system-wide
//! memory model of graph construction *and* analysis.
//!
//! # Why it exists
//!
//! BFS-complete model checking needs the whole state space *somewhere*,
//! and an in-memory [`crate::store::StateStore`] caps the reachable
//! state count at RAM. The observation that lifts the ceiling: once the
//! frontier has moved past a BFS level, the states of that level are
//! *cold* — the explorer only touches them again on the rare true hash
//! hit (a duplicate successor that closes a long cycle back into an old
//! level). Cold data can live on disk. The same holds for analyses:
//! CTL fixpoints, Markov extraction and the P-invariant check read the
//! graph in **segment order**, so at any instant only one segment needs
//! to be resident. (Deadlocks and place bounds need no read at all: the
//! build keeps them as it appends.)
//!
//! # The three layers
//!
//! ```text
//! intern table   (hash, state index)   always resident, probes first
//!      │ true hash hit → content compare needs the arena row
//!      ▼
//! level segments [seg 0 | seg 1 | … | tail]   fixed state count each
//!      │ resident  → slice straight out of the segment
//!      │ spilled   → fault: read back from the spill file
//!      ▼
//! spill file     write-once images of sealed segments (temp file)
//! ```
//!
//! Two arena families ride this machinery, sharing one resident-byte
//! budget through a common [`PagerShared`] ledger:
//!
//! * **state segments** ([`SegmentData`]) — the `markings`, `env_ids`,
//!   in-flight CSR, and enabling-clock CSR rows of `seg_states`
//!   consecutive states, appended at intern time;
//! * **edge segments** ([`EdgeSegment`]) — the CSR successor rows of
//!   the same `seg_states` consecutive source states, appended in scan
//!   order (BFS emits edge rows strictly in source order, so the edge
//!   arena is append-only and seals on exactly the same state grain).
//!
//! The *tail* segment of each family receives appends and is always
//! resident; a full segment is **sealed** and becomes immutable. A
//! sealed segment evicted for the first time is serialized to an
//! anonymous temp file ([`SpillFile`]); because sealed segments never
//! change, the image is written once and later evictions just drop the
//! memory. Variable environments are *not* paged: they are
//! deduplicated and tiny relative to the state count.
//!
//! # Segment states and when they move
//!
//! ```text
//!            append fills tail                     maintain(): over budget,
//!   tail ────────────────────────▶ resident ─────────────────────────────▶ spilled
//!  (dirty,                        (sealed,    first eviction writes the   (on disk,
//!   never                          clean       image; later ones free      slot holds
//!   evicted)                       after 1st    memory only                 its file span)
//!                                  spill)          ▲                          │
//!                                                  └──────── fault ──────────┘
//!                                                     segment() reloads on a
//!                                                     read of an evicted row
//! ```
//!
//! # Concurrency and why faulting under `&self` is sound
//!
//! The parallel builder freezes the committed store during a level and
//! probes it from many workers through `&self`. A probe that lands in a
//! spilled segment must *fault it back in* without `&mut`:
//!
//! * each segment slot holds an [`AtomicPtr`] to its heap data; a fault
//!   takes the arena's fault lock, re-checks, reads the image, and
//!   installs the pointer with `Release` (readers load with `Acquire`);
//! * faults only ever **install** — memory is *freed* exclusively by
//!   eviction, which requires `&mut self`, so no `&`-borrowed slice can
//!   be dangling while any shared borrow is alive. That is the entire
//!   safety argument for the `unsafe` derefs below, and it is also what
//!   makes [`crate::graph::SegmentGuard`] sound: a guard is a shared
//!   borrow of the graph, so the borrow checker itself proves no
//!   eviction (`&mut`) can run while a guard pins a segment.
//!
//! The full formal argument — every shared location, every
//! happens-before edge, why each `Ordering` suffices — is written out
//! in `docs/CONCURRENCY.md`. It is machine-checked two ways: the
//! in-tree interleaving checker (`crate::race`, built with
//! `--features race-model`) explores the real fault path exhaustively
//! and kills the seeded protocol mutants ([`crate::sync::mutation`]),
//! and `models/pager_protocol.pn` verifies the same invariants
//! self-hosted with this repo's own reachability + CTL engine.
//!
//! The cost of that bargain: the resident set can only shrink at `&mut`
//! points ([`Paged::maintain`] — called after every append, at every
//! parallel level barrier, and between segments of an analysis sweep),
//! so within one parallel level the resident set may transiently exceed
//! the budget by the segments the level faults in. Sequentially the
//! envelope is tight: at most one faulted segment pair (states + edges)
//! above budget at any instant (asserted by the golden tests and the
//! `tests/paged_analysis.rs` harness). It holds while the sequential
//! build keeps the segment it expands from ([`Paged::keep`]): the kept
//! segment is charged to the budget like any other and is only never
//! the victim, and the eighth-budget grain ([`seg_states_for`]) leaves
//! room for it beside the two tails.
//!
//! All spill-file I/O reports [`ReachError::Spill`]; the only panicking
//! paths are the infallible *view* accessors of [`crate::store`] and
//! [`crate::graph`], which analyses use after a successful build
//! (documented there).

use crate::graph::{Edge, EdgeLabel, ReachError};
use crate::sync::{mutation, raw, AtomicPtr, AtomicU64, AtomicUsize, Mutex, Ordering};
use pnut_core::TransitionId;
use pnut_obs as obs;
use std::fmt;
use std::fs::File;
#[cfg(not(unix))]
use std::io::Read as _;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A spill-file I/O failure: which operation failed, on which arena
/// segment, against which spill file, and the underlying [`io::Error`].
/// Wrapped in [`ReachError::Spill`]; the `Arc`s keep `ReachError`
/// cheaply clonable (the parallel barrier clones the earliest worker
/// error).
#[derive(Debug, Clone)]
pub struct SpillError {
    /// The file operation that failed (`"create"`, `"write"`, `"read"`).
    pub op: &'static str,
    /// The arena segment being paged when the operation failed, if
    /// known (`None` only when the failure predates any segment).
    pub segment: Option<usize>,
    /// The path the spill file was created under, or for a failed
    /// `"create"`, the path it was to be created under. The file is
    /// unlinked eagerly at creation (the open handle is its only
    /// tether), so the path names *which* file failed, not a file an
    /// operator can still inspect.
    pub path: Option<Arc<std::path::PathBuf>>,
    /// The underlying I/O error.
    pub source: Arc<io::Error>,
}

/// Wrap an [`io::Error`] from spill operation `op` on `segment` as a
/// [`ReachError`].
fn spill_err(
    op: &'static str,
    segment: usize,
    path: Option<Arc<std::path::PathBuf>>,
    source: io::Error,
) -> ReachError {
    ReachError::Spill(SpillError {
        op,
        segment: Some(segment),
        path,
        source: Arc::new(source),
    })
}

/// Same failed operation and error kind (messages can carry addresses,
/// segment indices, and paths that differ between equivalent failures).
impl PartialEq for SpillError {
    fn eq(&self, other: &Self) -> bool {
        self.op == other.op && self.source.kind() == other.source.kind()
    }
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spill file {} failed", self.op)?;
        match (self.segment, &self.path) {
            (Some(seg), Some(p)) => write!(f, " (segment {seg}, {})", p.display())?,
            (Some(seg), None) => write!(f, " (segment {seg})")?,
            (None, Some(p)) => write!(f, " ({})", p.display())?,
            (None, None) => {}
        }
        write!(f, ": {}", self.source)
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.source.as_ref())
    }
}

// ---------------------------------------------------------------------------
// Configuration and shared accounting
// ---------------------------------------------------------------------------

/// How much of the paged arenas may stay resident, and where evicted
/// segments go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagerConfig {
    /// Resident-arena byte budget; `usize::MAX` (the default) keeps
    /// everything in memory and never creates a spill file. The intern
    /// table and the deduplicated environments are *not* counted — they
    /// stay resident regardless. The budget is shared by every arena
    /// attached to the same [`PagerShared`] ledger (the state arenas
    /// and, once a graph exists, its CSR edge arena).
    pub mem_budget: usize,
    /// Directory for the spill file; `None` uses [`std::env::temp_dir`].
    /// The file is created lazily on the first eviction and unlinked
    /// immediately (the handle keeps it alive), so nothing survives the
    /// process even on a crash.
    pub spill_dir: Option<PathBuf>,
}

impl Default for PagerConfig {
    fn default() -> Self {
        PagerConfig {
            mem_budget: usize::MAX,
            spill_dir: None,
        }
    }
}

/// The ledger every arena of one reachability computation shares: one
/// budget, one LRU clock, one resident-byte counter, one high-water
/// mark. This is what makes "`--mem-budget 64KiB`" mean *64 KiB total*
/// rather than 64 KiB per arena family.
#[derive(Debug)]
pub(crate) struct PagerShared {
    /// Resident byte budget across all attached arenas.
    budget: usize,
    /// LRU clock; advanced by every [`Paged::maintain`].
    clock: AtomicU64,
    /// Resident arena bytes right now (all attached arenas, tails
    /// included).
    resident: AtomicUsize,
    /// High-water mark of `resident`. Resettable
    /// ([`PagerShared::reset_peak`]) so tests can measure the envelope
    /// of one *phase* (e.g. an analysis sweep after the build).
    peak: AtomicUsize,
}

impl PagerShared {
    fn new(budget: usize) -> Arc<Self> {
        obs::metrics::PAGER_BUDGET_BYTES.set(budget as u64);
        Arc::new(PagerShared {
            budget,
            clock: AtomicU64::new(1),
            resident: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        })
    }

    fn add_resident(&self, bytes: usize) {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        obs::metrics::PAGER_RESIDENT_BYTES.set(now as u64);
        obs::metrics::PAGER_PEAK_RESIDENT_BYTES.set_max(now as u64);
    }

    fn sub_resident(&self, bytes: usize) {
        let before = self.resident.fetch_sub(bytes, Ordering::Relaxed);
        obs::metrics::PAGER_RESIDENT_BYTES.set(before.saturating_sub(bytes) as u64);
        // The ledger is in bytes of segments this very code accounted
        // for, so a deficit is always a pager bug (e.g. a double
        // eviction of one segment), never workload-dependent. The race
        // model runs with debug assertions on, so every interleaving
        // that could underflow trips this deterministically.
        debug_assert!(
            before >= bytes,
            "resident-byte ledger underflow: {before} - {bytes}"
        );
    }

    pub(crate) fn resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restart the high-water tracking from the current resident level.
    pub(crate) fn reset_peak(&self) {
        self.peak.store(self.resident(), Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// SpillFile
// ---------------------------------------------------------------------------

/// A segment's image in the spill file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DiskSpan {
    offset: u64,
    len: u64,
}

/// An anonymous append-only temp file holding evicted segment images.
///
/// Writes happen only under `&mut` (eviction); reads happen under
/// `&self` (faults, possibly from several workers at once) and use
/// positioned reads so they never disturb the append cursor.
#[derive(Debug)]
pub(crate) struct SpillFile {
    file: File,
    /// The name the file was created under (already unlinked; kept so
    /// spill errors can say *which* file failed).
    path: Arc<std::path::PathBuf>,
    /// Append cursor == bytes spilled so far.
    len: u64,
    /// Serializes the seek+read fallback on platforms without `pread`.
    #[cfg_attr(unix, allow(dead_code))]
    read_lock: Mutex<()>,
}

impl SpillFile {
    /// Create the spill file in `dir` and immediately unlink it, so the
    /// open handle is its only tether. On failure, the error carries the
    /// path the file was to be created under.
    fn create(dir: Option<&Path>) -> Result<SpillFile, (Arc<PathBuf>, io::Error)> {
        // Process-global name disambiguator — not part of the pager
        // protocol, so it deliberately stays on the std atomic rather
        // than the `crate::sync` facade (the race model has no business
        // interleaving file-name generation).
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = dir
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let name = format!(
            "pnut-spill-{}-{}.bin",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let path = Arc::new(dir.join(name));
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path.as_ref())
            .map_err(|e| (Arc::clone(&path), e))?;
        // Unlink eagerly: the fd keeps the data reachable, and nothing
        // is left behind if the process dies mid-build. If the
        // filesystem refuses (non-POSIX semantics), the file simply
        // lingers until process exit.
        let _ = std::fs::remove_file(path.as_ref());
        Ok(SpillFile {
            file,
            path,
            len: 0,
            read_lock: Mutex::new(()),
        })
    }

    /// Append one serialized segment image, returning where it landed.
    fn append(&mut self, image: &[u8]) -> io::Result<DiskSpan> {
        fail::check_write()?;
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(image)?;
        let span = DiskSpan {
            offset: self.len,
            len: image.len() as u64,
        };
        self.len += span.len;
        Ok(span)
    }

    /// Read one segment image back (positioned; safe under `&self`).
    fn read(&self, span: DiskSpan) -> io::Result<Vec<u8>> {
        fail::check_read()?;
        let mut buf = vec![0u8; span.len as usize];
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(&mut buf, span.offset)?;
        }
        #[cfg(not(unix))]
        {
            // Recover a poisoned guard: the lock serializes a
            // seek+read pair on the shared descriptor and protects no
            // in-memory state, so a reader that panicked mid-pair left
            // nothing torn — the next reader re-seeks from scratch
            // anyway. Propagating the poison would instead cascade one
            // worker's panic into every sibling's fault.
            let _guard = self.read_lock.lock().unwrap_or_else(|e| e.into_inner());
            (&self.file).seek(SeekFrom::Start(span.offset))?;
            (&self.file).read_exact(&mut buf)?;
        }
        fail::maybe_corrupt_state_image(&mut buf);
        fail::maybe_mangle_image(&mut buf);
        Ok(buf)
    }
}

/// Spill-I/O fault injection, for tests that need a reload or a spill
/// write to fail at a precise moment (e.g. mid-sweep during a parallel
/// build). Disabled by default; the hot-path cost is one relaxed load
/// of a static that is zero for the whole life of a production
/// process.
///
/// The counters are process-global, so tests that arm them must not
/// run concurrently with other spill-exercising tests — keep such
/// tests in their own integration-test binary (each binary is its own
/// process) and serialize within it.
pub mod fail {
    use std::io;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// 0 = disabled; N = the N-th call fails (counting down).
    static FAIL_READ_IN: AtomicU64 = AtomicU64::new(0);
    static FAIL_WRITE_IN: AtomicU64 = AtomicU64::new(0);

    fn injected(which: &str) -> io::Error {
        io::Error::other(format!("injected spill {which} failure"))
    }

    /// Countdown `counter`; error exactly when it hits zero.
    fn tick(counter: &AtomicU64, which: &str) -> io::Result<()> {
        if counter.load(Ordering::Relaxed) == 0 {
            return Ok(()); // fast path: injection disarmed
        }
        if counter.fetch_sub(1, Ordering::Relaxed) == 1 {
            return Err(injected(which));
        }
        Ok(())
    }

    pub(super) fn check_read() -> io::Result<()> {
        tick(&FAIL_READ_IN, "read")
    }

    pub(super) fn check_write() -> io::Result<()> {
        tick(&FAIL_WRITE_IN, "write")
    }

    /// 0 = disabled; N = the N-th *state*-image reload (counting down)
    /// comes back with one marking byte flipped.
    static CORRUPT_READ_IN: AtomicU64 = AtomicU64::new(0);

    /// Silently corrupt the `n`-th state-image reload: flip the low bit
    /// of the first marking byte. The damage passes the image format's
    /// structural validation (lengths and offsets are untouched) but
    /// changes a token count, so it is only catchable by a semantic
    /// check such as `--check-invariants`. Edge images and images too
    /// short to hold a marking are left alone and do not consume the
    /// countdown.
    pub(super) fn maybe_corrupt_state_image(buf: &mut [u8]) {
        if CORRUPT_READ_IN.load(Ordering::Relaxed) == 0 {
            return; // fast path: injection disarmed
        }
        // Header: version, kind, count, ... as little-endian u32 words;
        // markings start at byte 24.
        let is_state_image = buf.len() > 24
            && buf[4..8] == super::KIND_STATES.to_le_bytes()
            && buf[8..12] != 0u32.to_le_bytes();
        if !is_state_image {
            return;
        }
        if CORRUPT_READ_IN.fetch_sub(1, Ordering::Relaxed) == 1 {
            buf[24] ^= 1;
        }
    }

    /// 0 = disabled; N = the N-th reload comes back truncated to half
    /// its length (a short read the format's bounds checks must catch).
    static TRUNCATE_READ_IN: AtomicU64 = AtomicU64::new(0);

    /// 0 = disabled; N = the N-th reload comes back with a garbled
    /// version word (the header check must reject it).
    static BAD_HEADER_READ_IN: AtomicU64 = AtomicU64::new(0);

    /// Structurally mangle the image so the *deserialize* stage — not
    /// the read itself — is the one that fails: these drive the
    /// `fault_failures` tick on the validation error paths.
    pub(super) fn maybe_mangle_image(buf: &mut Vec<u8>) {
        if TRUNCATE_READ_IN.load(Ordering::Relaxed) != 0
            && TRUNCATE_READ_IN.fetch_sub(1, Ordering::Relaxed) == 1
        {
            buf.truncate(buf.len() / 2);
        }
        if BAD_HEADER_READ_IN.load(Ordering::Relaxed) != 0
            && BAD_HEADER_READ_IN.fetch_sub(1, Ordering::Relaxed) == 1
            && buf.len() >= 4
        {
            buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
    }

    /// Arm the hook: the `n`-th spill-image *read* from now (1-based)
    /// fails with an injected [`io::Error`]. Test-only.
    #[doc(hidden)]
    pub fn fail_nth_spill_read(n: u64) {
        FAIL_READ_IN.store(n, Ordering::Relaxed);
    }

    /// Arm the hook: the `n`-th spill-image read from now (1-based)
    /// returns only half the image — a short read. Test-only.
    #[doc(hidden)]
    pub fn truncate_nth_spill_read(n: u64) {
        TRUNCATE_READ_IN.store(n, Ordering::Relaxed);
    }

    /// Arm the hook: the `n`-th spill-image read from now (1-based)
    /// returns an image whose version/kind header is garbage.
    /// Test-only.
    #[doc(hidden)]
    pub fn bad_header_nth_spill_read(n: u64) {
        BAD_HEADER_READ_IN.store(n, Ordering::Relaxed);
    }

    /// Arm the hook: the `n`-th spill-image *write* from now (1-based)
    /// fails with an injected [`io::Error`]. Test-only.
    #[doc(hidden)]
    pub fn fail_nth_spill_write(n: u64) {
        FAIL_WRITE_IN.store(n, Ordering::Relaxed);
    }

    /// Arm the hook: the `n`-th state-image reload from now (1-based)
    /// is silently corrupted — one marking byte flipped, structure left
    /// valid. Used to prove `--check-invariants` catches bad reloads.
    /// Test-only.
    #[doc(hidden)]
    pub fn corrupt_nth_spill_read(n: u64) {
        CORRUPT_READ_IN.store(n, Ordering::Relaxed);
    }

    /// Disarm all hooks.
    #[doc(hidden)]
    pub fn reset_spill_failures() {
        FAIL_READ_IN.store(0, Ordering::Relaxed);
        FAIL_WRITE_IN.store(0, Ordering::Relaxed);
        CORRUPT_READ_IN.store(0, Ordering::Relaxed);
        TRUNCATE_READ_IN.store(0, Ordering::Relaxed);
        BAD_HEADER_READ_IN.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Image format
// ---------------------------------------------------------------------------

/// Spill-image format version. Bumped whenever any serialized segment
/// layout changes; a reload checks it first so an image written by a
/// different layout is rejected as corrupt instead of misread.
/// Version 2 added the enabling-clock arena; **version 3** added the
/// CSR edge arena as a second image kind and the kind word itself, so
/// v2 images (which have no kind word) are rejected by the version
/// check alone.
const IMAGE_VERSION: u32 = 3;

/// Image-kind discriminators, written right after the version word.
const KIND_STATES: u32 = 1;
const KIND_EDGES: u32 = 2;

fn corrupt() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "corrupt spill image")
}

/// Validate the `version, kind` prefix of an image; errors *name* the
/// mismatch so a stale or foreign image is diagnosable, not just
/// "corrupt".
fn check_image_header(image: &[u8], kind: u32) -> io::Result<()> {
    let word = |i: usize| -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            image
                .get(i * 4..i * 4 + 4)
                .ok_or_else(corrupt)?
                .try_into()
                .expect("4-byte chunk"),
        ))
    };
    let version = word(0)?;
    if version != IMAGE_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("spill image version {version} (expected {IMAGE_VERSION})"),
        ));
    }
    let got_kind = word(1)?;
    if got_kind != kind {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("spill image kind {got_kind} (expected {kind})"),
        ));
    }
    Ok(())
}

/// The content of one paged segment: how to measure it, serialize it,
/// and read an image back. Implemented by the state-row family
/// ([`SegmentData`]) and the edge-row family ([`EdgeSegment`]); the
/// generic [`Paged`] machinery handles everything else (sealing, LRU,
/// spilling, faulting) identically for both.
pub(crate) trait SegmentContent: fmt::Debug + PartialEq + Sized {
    /// An empty tail segment.
    fn empty() -> Self;
    /// Rows recorded so far.
    fn count(&self) -> usize;
    /// Content bytes (by logical content, not capacity).
    fn bytes(&self) -> usize;
    /// Serialize to the version-3 spill image format.
    fn serialize(&self) -> Vec<u8>;
    /// Parse an image back; `places` is the marking width (ignored by
    /// the edge family).
    fn deserialize(image: &[u8], places: usize) -> io::Result<Self>;
}

// ---------------------------------------------------------------------------
// State segments
// ---------------------------------------------------------------------------

/// One segment's slice of every paged *state* arena: `seg_states`
/// consecutive states (fewer in the tail).
#[derive(Debug, Default, PartialEq)]
pub(crate) struct SegmentData {
    /// Dense marking matrix, `count × places`.
    markings: Vec<u32>,
    /// Environment id per state.
    env_ids: Vec<u32>,
    /// Segment-local CSR offsets into `inflight`; `len == count + 1`.
    inflight_offsets: Vec<u32>,
    /// In-flight firings of all states in the segment.
    inflight: Vec<(TransitionId, u64)>,
    /// Segment-local CSR offsets into `enabling`, **lazily
    /// materialized**: while every state in the segment has an empty
    /// enabling multiset (always true for untimed graphs, and for timed
    /// graphs of nets without enabling times) this stays `[0]` and the
    /// segment pays zero bytes for the arena; the first non-empty
    /// multiset backfills zero offsets for the earlier states and the
    /// array is `len == count + 1` from then on.
    enabling_offsets: Vec<u32>,
    /// Enabling clocks of all states in the segment: `(transition,
    /// remaining ticks until the start-firing event may happen)`.
    enabling: Vec<(TransitionId, u64)>,
}

impl SegmentData {
    /// Whether the enabling arena is still in its lazy all-empty form.
    fn enabling_is_lazy(&self) -> bool {
        self.enabling_offsets.len() == 1
    }

    /// Record one state's enabling multiset; `count_before` is the
    /// number of states already in the segment, for the zero backfill
    /// on first materialization.
    fn push_enabling(&mut self, count_before: usize, enabling: &[(TransitionId, u64)]) {
        if enabling.is_empty() && self.enabling_is_lazy() {
            return; // still all-empty: stay lazy, pay nothing
        }
        if self.enabling_is_lazy() {
            self.enabling_offsets.resize(count_before + 1, 0);
        }
        self.enabling.extend_from_slice(enabling);
        self.enabling_offsets.push(self.enabling.len() as u32);
    }

    pub(crate) fn marking(&self, local: usize, places: usize) -> &[u32] {
        &self.markings[local * places..(local + 1) * places]
    }

    pub(crate) fn env_id(&self, local: usize) -> u32 {
        self.env_ids[local]
    }

    pub(crate) fn in_flight(&self, local: usize) -> &[(TransitionId, u64)] {
        &self.inflight
            [self.inflight_offsets[local] as usize..self.inflight_offsets[local + 1] as usize]
    }

    pub(crate) fn enabling(&self, local: usize) -> &[(TransitionId, u64)] {
        if self.enabling_is_lazy() {
            return &[];
        }
        &self.enabling
            [self.enabling_offsets[local] as usize..self.enabling_offsets[local + 1] as usize]
    }
}

impl SegmentContent for SegmentData {
    fn empty() -> Self {
        SegmentData {
            inflight_offsets: vec![0],
            enabling_offsets: vec![0],
            ..SegmentData::default()
        }
    }

    fn count(&self) -> usize {
        self.env_ids.len()
    }

    /// Arena bytes of the segment (by content, not capacity). A lazy
    /// enabling arena counts its single sentinel offset only, so
    /// untimed segments cost exactly what they did before the arena
    /// existed.
    fn bytes(&self) -> usize {
        self.markings.len() * 4
            + self.env_ids.len() * 4
            + self.inflight_offsets.len() * 4
            + self.enabling_offsets.len() * 4
            + (self.inflight.len() + self.enabling.len())
                * std::mem::size_of::<(TransitionId, u64)>()
    }

    /// Serialize to the spill image format (all little-endian):
    /// `version:u32, kind:u32, count:u32, inflight_len:u32,
    /// enabling_len:u32, enabling_offsets_len:u32, markings, env_ids,
    /// inflight_offsets, enabling_offsets, inflight as (id:u64,
    /// remaining:u64)*, enabling likewise`. The enabling offsets keep
    /// their lazy form on disk (`len == 1` for an all-empty segment),
    /// so untimed images cost the same bytes they did before the arena
    /// existed.
    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.bytes());
        out.extend_from_slice(&IMAGE_VERSION.to_le_bytes());
        out.extend_from_slice(&KIND_STATES.to_le_bytes());
        out.extend_from_slice(&(self.count() as u32).to_le_bytes());
        out.extend_from_slice(&(self.inflight.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.enabling.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.enabling_offsets.len() as u32).to_le_bytes());
        for &w in &self.markings {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for &e in &self.env_ids {
            out.extend_from_slice(&e.to_le_bytes());
        }
        for &o in self.inflight_offsets.iter().chain(&self.enabling_offsets) {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for &(t, r) in self.inflight.iter().chain(&self.enabling) {
            out.extend_from_slice(&(t.index() as u64).to_le_bytes());
            out.extend_from_slice(&r.to_le_bytes());
        }
        out
    }

    fn deserialize(image: &[u8], places: usize) -> io::Result<SegmentData> {
        check_image_header(image, KIND_STATES)?;
        let mut pos = 8usize; // past version + kind
        let mut take = |n: usize| -> io::Result<&[u8]> {
            let end = pos.checked_add(n).ok_or_else(corrupt)?;
            let s = image.get(pos..end).ok_or_else(corrupt)?;
            pos = end;
            Ok(s)
        };
        let read_u32 = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4-byte chunk"));
        let read_u64 = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8-byte chunk"));
        let count = read_u32(take(4)?) as usize;
        let inflight_len = read_u32(take(4)?) as usize;
        let enabling_len = read_u32(take(4)?) as usize;
        let eoff_len = read_u32(take(4)?) as usize;
        // Validate the header against the image length *before* any
        // allocation: a bit-flipped count must surface as the designed
        // InvalidData error, not abort on a gigantic Vec::with_capacity.
        // The enabling offsets are either the lazy sentinel or fully
        // materialized; anything else is corrupt.
        if eoff_len != 1 && eoff_len != count + 1 {
            return Err(corrupt());
        }
        if eoff_len == 1 && enabling_len != 0 {
            return Err(corrupt());
        }
        let implied = 24u64
            + count as u64 * places as u64 * 4
            + count as u64 * 4
            + (count as u64 + 1) * 4
            + eoff_len as u64 * 4
            + (inflight_len as u64 + enabling_len as u64) * 16;
        if implied != image.len() as u64 {
            return Err(corrupt());
        }
        // Bulk-parse each array from one validated slice (the header
        // check above guarantees the lengths): chunked iteration keeps
        // the fault path — reloads happen once per refault, not once
        // per build — at memcpy-like speed instead of a bounds-checked
        // closure call per element.
        let mut data = SegmentData {
            markings: Vec::with_capacity(count * places),
            env_ids: Vec::with_capacity(count),
            inflight_offsets: Vec::with_capacity(count + 1),
            inflight: Vec::with_capacity(inflight_len),
            enabling_offsets: Vec::with_capacity(eoff_len),
            enabling: Vec::with_capacity(enabling_len),
        };
        data.markings
            .extend(take(count * places * 4)?.chunks_exact(4).map(read_u32));
        data.env_ids
            .extend(take(count * 4)?.chunks_exact(4).map(read_u32));
        data.inflight_offsets
            .extend(take((count + 1) * 4)?.chunks_exact(4).map(read_u32));
        data.enabling_offsets
            .extend(take(eoff_len * 4)?.chunks_exact(4).map(read_u32));
        data.inflight
            .extend(take(inflight_len * 16)?.chunks_exact(16).map(|c| {
                (
                    TransitionId::new(read_u64(&c[..8]) as usize),
                    read_u64(&c[8..]),
                )
            }));
        data.enabling
            .extend(take(enabling_len * 16)?.chunks_exact(16).map(|c| {
                (
                    TransitionId::new(read_u64(&c[..8]) as usize),
                    read_u64(&c[8..]),
                )
            }));
        if pos != image.len()
            || data.inflight_offsets.last() != Some(&(inflight_len as u32))
            || data.enabling_offsets.last() != Some(&(enabling_len as u32))
        {
            return Err(corrupt());
        }
        Ok(data)
    }
}

// ---------------------------------------------------------------------------
// Edge segments
// ---------------------------------------------------------------------------

/// One segment of the CSR edge arena: the successor rows of
/// `seg_states` consecutive source states (fewer in the tail) — the
/// same state grain as [`SegmentData`], so one
/// [`crate::graph::SegmentGuard`] pins matching state and edge rows.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct EdgeSegment {
    /// Segment-local CSR row offsets; `len == count + 1`.
    offsets: Vec<u32>,
    /// All edges of the segment's source states, grouped by source.
    edges: Vec<Edge>,
}

impl EdgeSegment {
    /// The successor row of local state `local`.
    pub(crate) fn row(&self, local: usize) -> &[Edge] {
        &self.edges[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }
}

impl SegmentContent for EdgeSegment {
    fn empty() -> Self {
        EdgeSegment {
            offsets: vec![0],
            edges: Vec::new(),
        }
    }

    fn count(&self) -> usize {
        self.offsets.len() - 1
    }

    fn bytes(&self) -> usize {
        self.offsets.len() * 4 + self.edges.len() * std::mem::size_of::<Edge>()
    }

    /// Serialize to the spill image format (little-endian):
    /// `version:u32, kind:u32, count:u32, edge_len:u32, offsets,
    /// edges as (tag:u32, payload:u64, target:u32)*` where tag 0 is
    /// `Fire(payload)` and tag 1 is `Advance(payload)`.
    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.offsets.len() * 4 + self.edges.len() * 16);
        out.extend_from_slice(&IMAGE_VERSION.to_le_bytes());
        out.extend_from_slice(&KIND_EDGES.to_le_bytes());
        out.extend_from_slice(&(self.count() as u32).to_le_bytes());
        out.extend_from_slice(&(self.edges.len() as u32).to_le_bytes());
        for &o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for &(label, target) in &self.edges {
            let (tag, payload) = match label {
                EdgeLabel::Fire(t) => (0u32, t.index() as u64),
                EdgeLabel::Advance(dt) => (1u32, dt),
            };
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&payload.to_le_bytes());
            out.extend_from_slice(&target.to_le_bytes());
        }
        out
    }

    fn deserialize(image: &[u8], _places: usize) -> io::Result<EdgeSegment> {
        check_image_header(image, KIND_EDGES)?;
        let mut pos = 8usize;
        let mut take = |n: usize| -> io::Result<&[u8]> {
            let end = pos.checked_add(n).ok_or_else(corrupt)?;
            let s = image.get(pos..end).ok_or_else(corrupt)?;
            pos = end;
            Ok(s)
        };
        let read_u32 = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4-byte chunk"));
        let read_u64 = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8-byte chunk"));
        let count = read_u32(take(4)?) as usize;
        let edge_len = read_u32(take(4)?) as usize;
        let implied = 16u64 + (count as u64 + 1) * 4 + edge_len as u64 * 16;
        if implied != image.len() as u64 {
            return Err(corrupt());
        }
        let mut seg = EdgeSegment {
            offsets: Vec::with_capacity(count + 1),
            edges: Vec::with_capacity(edge_len),
        };
        seg.offsets
            .extend(take((count + 1) * 4)?.chunks_exact(4).map(read_u32));
        for c in take(edge_len * 16)?.chunks_exact(16) {
            let tag = read_u32(&c[..4]);
            let payload = read_u64(&c[4..12]);
            let target = read_u32(&c[12..]);
            let label = match tag {
                0 => EdgeLabel::Fire(TransitionId::new(payload as usize)),
                1 => EdgeLabel::Advance(payload),
                _ => return Err(corrupt()),
            };
            seg.edges.push((label, target));
        }
        if pos != image.len() || seg.offsets.last() != Some(&(edge_len as u32)) {
            return Err(corrupt());
        }
        Ok(seg)
    }
}

// ---------------------------------------------------------------------------
// Generic paged arena
// ---------------------------------------------------------------------------

/// One segment slot: the (possibly absent) resident data plus the
/// bookkeeping that survives eviction.
#[derive(Debug)]
struct Slot<S> {
    /// Resident data, or null when spilled. Faults install with
    /// `Release`; readers load with `Acquire`; only `&mut` eviction
    /// ever frees the pointee (see the module docs for the safety
    /// argument).
    data: AtomicPtr<S>,
    /// Content bytes (final once sealed; grows while this is the tail).
    bytes: usize,
    /// Where the sealed image lives on disk (written once, on the
    /// first eviction).
    disk: Option<DiskSpan>,
    /// Pager clock value of the most recent access, for LRU eviction.
    last_touch: AtomicU64,
}

impl<S: SegmentContent> Slot<S> {
    fn new_resident() -> Self {
        let empty = S::empty();
        let bytes = empty.bytes();
        Slot {
            data: AtomicPtr::new(raw::alloc(empty)),
            bytes,
            disk: None,
            last_touch: AtomicU64::new(0),
        }
    }
}

impl<S> Drop for Slot<S> {
    fn drop(&mut self) {
        let p = *self.data.get_mut();
        if !p.is_null() {
            // SAFETY: `p` came from `raw::alloc` (installed at
            // construction or by a fault) and is freed only here or in
            // `evict`, which nulls the slot first; we hold `&mut self`,
            // so no borrow of the data exists.
            unsafe { raw::free(p) };
        }
    }
}

/// Hard ceilings on the states-per-segment choice. The upper bound
/// keeps a faulted segment's transfer small; the lower bound keeps the
/// slot bookkeeping negligible next to the data.
const MAX_SEG_STATES: usize = 4096;
const MIN_SEG_STATES: usize = 64;

/// States per segment for `places`-wide markings under `budget` bytes:
/// the largest power of two that fits roughly an eighth of the budget,
/// clamped to `[64, 4096]`. (Power of two ⇒ index → segment is a
/// shift, and the choice never affects results — only paging grain.)
///
/// An eighth, because the budget must hold several segments at once:
/// the state and edge tails, the segment the sequential build keeps
/// while expanding from it, and a window of the segments its probes
/// fault in, which one BFS level spreads over many segments. The
/// estimate below counts marking rows only, so at a quarter one state
/// and one edge segment of a wide model would take most of a small
/// budget, and the build would thrash.
fn seg_states_for(places: usize, budget: usize) -> usize {
    if budget == usize::MAX {
        return MAX_SEG_STATES;
    }
    // Marking row + env id + in-flight offset entry. The enabling and
    // edge arenas are excluded: the former's offsets are lazy (zero
    // bytes for nets without enabling times) and both entry counts are
    // model-dependent — the budget envelope tolerates the approximation
    // either way.
    let per_state = places * 4 + 8;
    let target = (budget / 8) / per_state.max(1);
    let rounded = match target.checked_next_power_of_two() {
        Some(p) if p == target => p,
        Some(p) => p / 2,
        None => MAX_SEG_STATES,
    };
    rounded.clamp(MIN_SEG_STATES, MAX_SEG_STATES)
}

/// A paged arena: a growing sequence of fixed-row-count segments, the
/// last of which (the *tail*) receives appends, behind the shared byte
/// budget enforced by LRU eviction to a [`SpillFile`].
///
/// See the [module docs](self) for the architecture. Instantiated as
/// [`PagedStates`] (used by [`crate::store::StateStore`]) and wrapped
/// by [`PagedEdges`] (used by [`crate::graph::ReachabilityGraph`]).
#[derive(Debug)]
pub(crate) struct Paged<S> {
    places: usize,
    seg_states: usize,
    seg_shift: u32,
    len: usize,
    segments: Vec<Slot<S>>,
    spill_dir: Option<PathBuf>,
    spill: Option<SpillFile>,
    /// Serializes concurrent `&self` faults (double-checked inside).
    fault_lock: Mutex<()>,
    /// The cross-arena budget/clock/resident ledger.
    shared: Arc<PagerShared>,
    /// Largest sealed segment seen, for budget-envelope assertions.
    max_seg_bytes: usize,
    /// The segment [`Self::maintain`] must not evict: the one the
    /// sequential explorer is expanding from (see [`Self::keep`]).
    kept: Option<usize>,
}

/// The paged state arenas (markings, env ids, in-flight and enabling
/// CSR), on the state grain chosen from the budget.
pub(crate) type PagedStates = Paged<SegmentData>;

impl<S: SegmentContent> Paged<S> {
    fn with_shared(
        places: usize,
        seg_states: usize,
        shared: Arc<PagerShared>,
        spill_dir: Option<PathBuf>,
    ) -> Self {
        debug_assert!(seg_states.is_power_of_two());
        let tail = Slot::new_resident();
        shared.add_resident(tail.bytes);
        Paged {
            places,
            seg_states,
            seg_shift: seg_states.trailing_zeros(),
            len: 0,
            segments: vec![tail],
            spill_dir,
            spill: None,
            fault_lock: Mutex::new(()),
            shared,
            max_seg_bytes: 0,
            kept: None,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn places(&self) -> usize {
        self.places
    }

    /// Rows per segment (the paging grain).
    pub(crate) fn seg_states(&self) -> usize {
        self.seg_states
    }

    /// The shared budget/clock/resident ledger, for attaching sibling
    /// arenas (the graph's edge arena) to the same budget.
    pub(crate) fn shared(&self) -> Arc<PagerShared> {
        Arc::clone(&self.shared)
    }

    /// Resident arena bytes right now — across *every* arena attached
    /// to this ledger, not just this one.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.shared.resident()
    }

    /// High-water mark of [`Self::resident_bytes`].
    pub(crate) fn peak_resident_bytes(&self) -> usize {
        self.shared.peak()
    }

    /// Bytes written to this arena's spill file so far (0 until first
    /// eviction).
    pub(crate) fn spilled_bytes(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.len as usize)
    }

    /// The largest sealed segment's content bytes (0 before any seal) —
    /// the "+ one segment" term of the documented budget envelope.
    pub(crate) fn max_segment_bytes(&self) -> usize {
        self.max_seg_bytes
    }

    /// Number of segments holding at least one row.
    pub(crate) fn segment_count(&self) -> usize {
        if self.len == 0 {
            0
        } else {
            self.segments.len()
        }
    }

    /// The global row range of segment `seg`.
    pub(crate) fn segment_range(&self, seg: usize) -> std::ops::Range<usize> {
        let start = seg << self.seg_shift;
        start..(start + self.seg_states).min(self.len)
    }

    #[inline]
    fn seg_of(&self, i: usize) -> (usize, usize) {
        (i >> self.seg_shift, i & (self.seg_states - 1))
    }

    /// The resident data of segment `seg`, faulting it in from the
    /// spill file if needed. Loads never evict (that needs `&mut`, see
    /// the module docs), so the returned borrow stays valid for the
    /// whole `&self` borrow of the arena.
    pub(crate) fn segment(&self, seg: usize) -> Result<&S, ReachError> {
        let slot = &self.segments[seg];
        slot.last_touch
            .store(self.shared.clock.load(Ordering::Relaxed), Ordering::Relaxed);
        let p = slot.data.load(Ordering::Acquire);
        if !p.is_null() {
            // SAFETY: a non-null pointer read with `Acquire` was
            // installed by `Slot::new_resident` or by a fault's
            // `Release` store, so the pointee is fully initialized; it
            // is freed only under `&mut self` (`evict`/`Drop`), which
            // cannot run while this `&self` borrow is alive.
            return Ok(unsafe { raw::deref(p) });
        }
        self.fault(seg)
    }

    /// Slow path of [`Self::segment`]: reload an evicted segment.
    #[cold]
    fn fault(&self, seg: usize) -> Result<&S, ReachError> {
        // Recover a poisoned guard instead of propagating the poison:
        // the real protocol invariant is the `AtomicPtr` install below
        // (a fully-built segment published with `Release`, freed only
        // at `&mut` eviction points — see docs/CONCURRENCY.md), not
        // any state the lock itself protects. A holder that panicked
        // left the slot either still null (this fault simply redoes
        // the work) or fully installed (the re-check below observes
        // it); there is no partially-mutated middle state. Treating
        // poison as fatal would instead cascade one worker's panic
        // into a second panic in every sibling's fault.
        let _guard = self.fault_lock.lock().unwrap_or_else(|e| e.into_inner());
        let slot = &self.segments[seg];
        let p = slot.data.load(Ordering::Acquire);
        if !p.is_null() && !mutation::active(mutation::DROP_FAULT_RECHECK) {
            // Another worker faulted it in while we waited.
            // SAFETY: as in `segment` — non-null implies initialized,
            // and frees need `&mut self`.
            return Ok(unsafe { raw::deref(p) });
        }
        let span = slot.disk.expect("spilled segment has a disk image");
        let spill = self.spill.as_ref().expect("spilled segment has a file");
        // Every attempted reload counts as a fault; it then lands in
        // either `fault_failures` or `reloads`, never both, so
        // `faults == fault_failures + reloads` is an invariant the
        // fault-injection tests pin.
        obs::metrics::PAGER_FAULTS.inc();
        let image = spill.read(span).map_err(|e| {
            obs::metrics::PAGER_FAULT_FAILURES.inc();
            spill_err("read", seg, Some(Arc::clone(&spill.path)), e)
        })?;
        obs::metrics::PAGER_SPILL_READ_BYTES.add(image.len() as u64);
        let data = S::deserialize(&image, self.places).map_err(|e| {
            obs::metrics::PAGER_FAULT_FAILURES.inc();
            spill_err("read", seg, Some(Arc::clone(&spill.path)), e)
        })?;
        obs::metrics::PAGER_RELOADS.inc();
        let fresh = raw::alloc(data);
        let install = if mutation::active(mutation::RELAXED_INSTALL) {
            Ordering::Relaxed
        } else {
            // Release pairs with the Acquire loads above: a reader that
            // sees `fresh` also sees the fully deserialized pointee.
            Ordering::Release
        };
        slot.data.store(fresh, install);
        self.shared.add_resident(slot.bytes);
        if mutation::active(mutation::FREE_IN_FAULT) {
            self.free_in_fault_mutant(seg);
        }
        // SAFETY: `fresh` was allocated above and installed under the
        // fault lock; it is freed only under `&mut self`.
        Ok(unsafe { raw::deref(fresh) })
    }

    /// The seeded [`mutation::FREE_IN_FAULT`] protocol bug: evict (free)
    /// some other already-imaged cold segment right here in the fault
    /// path, under `&self` — the memory another thread may be borrowing
    /// right now. Statically dead in production builds
    /// (`mutation::active` is a constant `false` there); the race-model
    /// mutation battery asserts the checker reports the resulting
    /// use-after-free with a replayable schedule.
    fn free_in_fault_mutant(&self, faulted: usize) {
        let tail = self.segments.len() - 1;
        for (i, slot) in self.segments[..tail].iter().enumerate() {
            if i == faulted || slot.disk.is_none() {
                continue;
            }
            let p = slot.data.swap(raw::null(), Ordering::AcqRel);
            if !p.is_null() {
                self.shared.sub_resident(slot.bytes);
                // SAFETY: intentionally unsound — this is the seeded
                // bug under test. A concurrent reader may hold a borrow
                // of the pointee; the race model's generation-tagged
                // allocation registry detects exactly that. Unreachable
                // in production builds.
                unsafe { raw::free(p) };
                return;
            }
        }
    }

    /// Exclusive access to the tail segment's data (always resident).
    fn tail_mut(&mut self) -> &mut S {
        let slot = self.segments.last_mut().expect("tail segment exists");
        let p = *slot.data.get_mut();
        debug_assert!(!p.is_null(), "tail segment is always resident");
        // SAFETY: the tail is never evicted, so `p` is live; `&mut
        // self` guarantees no shared borrow of any segment exists.
        unsafe { raw::deref_mut(p) }
    }

    /// Seal the full tail (if it is full) and open a fresh one. Called
    /// before every append so a segment seals exactly at the grain.
    fn seal_tail_if_full(&mut self) {
        if self.tail_mut().count() < self.seg_states {
            return;
        }
        let sealed_bytes = self.segments.last().expect("tail").bytes;
        self.max_seg_bytes = self.max_seg_bytes.max(sealed_bytes);
        let fresh = Slot::new_resident();
        self.shared.add_resident(fresh.bytes);
        self.segments.push(fresh);
    }

    /// Record that the tail grew by `added` content bytes.
    fn note_tail_growth(&mut self, added: usize) {
        self.segments.last_mut().expect("tail").bytes += added;
        self.shared.add_resident(added);
    }

    /// Advance the LRU clock and evict least-recently-touched sealed
    /// segments of *this arena* until the shared resident total fits
    /// the budget (the tail and the kept segment, see [`Self::keep`],
    /// are never evicted; segments of sibling arenas are their own
    /// `maintain`'s job). Call sites are the `&mut` points: after
    /// every append, at every parallel level barrier, and between
    /// segments of an analysis sweep.
    pub(crate) fn maintain(&mut self) -> Result<(), ReachError> {
        self.shared.clock.fetch_add(1, Ordering::Relaxed);
        while self.shared.resident() > self.shared.budget {
            let Some(victim) = self.coldest_resident_sealed() else {
                break; // nothing evictable here (tail alone, or sibling arenas hold the rest)
            };
            self.evict(victim)?;
        }
        Ok(())
    }

    /// Keep the segment holding row `row` resident through every
    /// [`Self::maintain`] until the next call; `None` releases it. The
    /// sequential build keeps the segment it expands from (see the
    /// direct sink in [`crate::graph`] for why).
    pub(crate) fn keep(&mut self, row: Option<usize>) {
        self.kept = row.map(|i| self.seg_of(i).0);
    }

    /// The sealed resident segment with the oldest touch, if any, other
    /// than the kept one.
    fn coldest_resident_sealed(&mut self) -> Option<usize> {
        let tail = self.segments.len() - 1;
        let kept = self.kept;
        self.segments[..tail]
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| {
                if s.data.get_mut().is_null() || kept == Some(i) {
                    None
                } else {
                    Some((i, *s.last_touch.get_mut()))
                }
            })
            .min_by_key(|&(_, touch)| touch)
            .map(|(i, _)| i)
    }

    /// Evict one sealed segment: write its image on first eviction
    /// (sealed data is immutable, so one write suffices forever), then
    /// free the memory.
    fn evict(&mut self, seg: usize) -> Result<(), ReachError> {
        debug_assert!(seg + 1 < self.segments.len(), "tail is never evicted");
        let p = *self.segments[seg].data.get_mut();
        debug_assert!(!p.is_null(), "evicting a spilled segment");
        if self.segments[seg].disk.is_none() {
            if self.spill.is_none() {
                self.spill = Some(
                    SpillFile::create(self.spill_dir.as_deref())
                        .map_err(|(path, e)| spill_err("create", seg, Some(path), e))?,
                );
            }
            // SAFETY: `p` is the live segment pointer read above;
            // `&mut self` excludes all other borrows, and this shared
            // borrow ends before the data is freed below.
            let image = unsafe { raw::deref(p) }.serialize();
            let spill = self.spill.as_mut().expect("just created");
            let path = Arc::clone(&spill.path);
            let span = spill
                .append(&image)
                .map_err(|e| spill_err("write", seg, Some(path), e))?;
            obs::metrics::PAGER_SPILL_WRITE_BYTES.add(image.len() as u64);
            self.segments[seg].disk = Some(span);
        }
        obs::metrics::PAGER_EVICTIONS.inc();
        let slot = &mut self.segments[seg];
        *slot.data.get_mut() = raw::null();
        self.shared.sub_resident(slot.bytes);
        // SAFETY: the pointer was detached from the slot above, so no
        // future reader can observe it; `&mut self` excludes live
        // borrows. This is the *only* place (besides `Drop`) that frees
        // segment memory — the soundness linchpin of `&self` faulting.
        unsafe { raw::free(p) };
        Ok(())
    }

    /// Whether segment `seg` is currently resident (test/diagnostic).
    #[cfg(test)]
    fn is_resident(&self, seg: usize) -> bool {
        !self.segments[seg].data.load(Ordering::Acquire).is_null()
    }
}

// ---------------------------------------------------------------------------
// State-arena operations
// ---------------------------------------------------------------------------

impl PagedStates {
    pub(crate) fn new(places: usize, config: &PagerConfig) -> Self {
        let seg_states = seg_states_for(places, config.mem_budget);
        Paged::with_shared(
            places,
            seg_states,
            PagerShared::new(config.mem_budget),
            config.spill_dir.clone(),
        )
    }

    /// Append one state to the tail, sealing it first if full, then
    /// evict back under budget. The append itself cannot fail — only
    /// eviction I/O can — and by then the state is fully recorded, so
    /// an error leaves the store consistent (just over budget).
    pub(crate) fn append(
        &mut self,
        marking: &[u32],
        env_id: u32,
        in_flight: &[(TransitionId, u64)],
        enabling: &[(TransitionId, u64)],
    ) -> Result<(), ReachError> {
        debug_assert_eq!(marking.len(), self.places, "marking width mismatch");
        self.seal_tail_if_full();
        let tail = self.tail_mut();
        let before = tail.bytes();
        tail.markings.extend_from_slice(marking);
        tail.env_ids.push(env_id);
        tail.inflight.extend_from_slice(in_flight);
        let end = tail.inflight.len() as u32;
        tail.inflight_offsets.push(end);
        let count_before = tail.env_ids.len() - 1;
        tail.push_enabling(count_before, enabling);
        // Delta accounting (rather than an arithmetic formula): a lazy →
        // materialized transition of the enabling offsets backfills the
        // whole segment's offsets in one append.
        let added = tail.bytes() - before;
        self.note_tail_growth(added);
        self.len += 1;
        self.maintain()
    }

    /// The marking row of state `i`.
    pub(crate) fn marking(&self, i: usize) -> Result<&[u32], ReachError> {
        debug_assert!(i < self.len, "state {i} out of range");
        let (seg, local) = self.seg_of(i);
        Ok(self.segment(seg)?.marking(local, self.places))
    }

    /// The environment id of state `i`.
    pub(crate) fn env_id(&self, i: usize) -> Result<u32, ReachError> {
        debug_assert!(i < self.len, "state {i} out of range");
        let (seg, local) = self.seg_of(i);
        Ok(self.segment(seg)?.env_ids[local])
    }

    /// The in-flight multiset of state `i`.
    pub(crate) fn in_flight(&self, i: usize) -> Result<&[(TransitionId, u64)], ReachError> {
        debug_assert!(i < self.len, "state {i} out of range");
        let (seg, local) = self.seg_of(i);
        Ok(self.segment(seg)?.in_flight(local))
    }

    /// The enabling-clock multiset of state `i`.
    pub(crate) fn enabling(&self, i: usize) -> Result<&[(TransitionId, u64)], ReachError> {
        debug_assert!(i < self.len, "state {i} out of range");
        let (seg, local) = self.seg_of(i);
        Ok(self.segment(seg)?.enabling(local))
    }

    /// The owning segment of state `i` plus its local index — one
    /// fault/LRU touch for a whole-row compare instead of one per
    /// field (the intern probe's hot path).
    pub(crate) fn row(&self, i: usize) -> Result<(&SegmentData, usize), ReachError> {
        debug_assert!(i < self.len, "state {i} out of range");
        let (seg, local) = self.seg_of(i);
        Ok((self.segment(seg)?, local))
    }
}

/// Semantic equality over the logical state sequence, independent of
/// paging state (faults segments back in as needed; panics only if the
/// spill file itself fails mid-compare, which the test-only usage
/// accepts).
impl PartialEq for PagedStates {
    fn eq(&self, other: &Self) -> bool {
        if self.places != other.places || self.len != other.len {
            return false;
        }
        (0..self.len).all(|i| {
            let row = |s: &Self| -> Result<_, ReachError> {
                Ok((
                    s.marking(i)?.to_vec(),
                    s.env_id(i)?,
                    s.in_flight(i)?.to_vec(),
                    s.enabling(i)?.to_vec(),
                ))
            };
            match (row(self), row(other)) {
                (Ok(a), Ok(b)) => a == b,
                _ => panic!("spill reload failed while comparing stores"),
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Edge-arena operations
// ---------------------------------------------------------------------------

/// The paged CSR edge arena of a [`crate::graph::ReachabilityGraph`]:
/// successor rows appended strictly in source-state order, on the same
/// segment grain as the state arenas, against the same shared budget.
#[derive(Debug)]
pub(crate) struct PagedEdges {
    arena: Paged<EdgeSegment>,
    /// Total edges across all rows (the resident segments alone cannot
    /// answer this without faulting everything back in).
    total_edges: usize,
    /// The rows appended empty (deadlock states), in row order.
    empty_rows: Vec<usize>,
}

impl PagedEdges {
    /// An empty edge arena on `seg_states` rows per segment, attached
    /// to an existing ledger (normally the state store's — see
    /// [`PagedStates::shared`]).
    pub(crate) fn new(
        seg_states: usize,
        shared: Arc<PagerShared>,
        spill_dir: Option<PathBuf>,
    ) -> Self {
        PagedEdges {
            arena: Paged::with_shared(0, seg_states, shared, spill_dir),
            total_edges: 0,
            empty_rows: Vec::new(),
        }
    }

    /// Rows (source states) recorded so far.
    pub(crate) fn row_count(&self) -> usize {
        self.arena.len()
    }

    /// Total edges across all rows.
    pub(crate) fn edge_count(&self) -> usize {
        self.total_edges
    }

    /// The rows appended empty so far, in row order.
    pub(crate) fn empty_rows(&self) -> &[usize] {
        &self.empty_rows
    }

    pub(crate) fn spilled_bytes(&self) -> usize {
        self.arena.spilled_bytes()
    }

    pub(crate) fn max_segment_bytes(&self) -> usize {
        self.arena.max_segment_bytes()
    }

    /// The resident data of edge segment `seg`, faulting as needed.
    pub(crate) fn segment(&self, seg: usize) -> Result<&EdgeSegment, ReachError> {
        self.arena.segment(seg)
    }

    /// Append the complete successor row of the next source state (rows
    /// must arrive in state order — BFS emits them that way), then
    /// evict back under budget.
    ///
    /// # Errors
    ///
    /// [`ReachError::CapacityExceeded`] if a segment's edge offsets
    /// would overflow `u32` (unreachable at the current grain ceiling);
    /// [`ReachError::Spill`] from eviction I/O — by which point the row
    /// is fully recorded, so the arena stays consistent.
    pub(crate) fn push_row(&mut self, row: &[Edge]) -> Result<(), ReachError> {
        self.arena.seal_tail_if_full();
        let tail = self.arena.tail_mut();
        let before = tail.bytes();
        let end = u32::try_from(tail.edges.len() + row.len()).map_err(|_| {
            ReachError::CapacityExceeded {
                resource: "edge segment (u32 offsets)",
            }
        })?;
        tail.edges.extend_from_slice(row);
        tail.offsets.push(end);
        let added = tail.bytes() - before;
        self.arena.note_tail_growth(added);
        if row.is_empty() {
            self.empty_rows.push(self.arena.len);
        }
        self.arena.len += 1;
        self.total_edges += row.len();
        self.maintain()
    }

    /// The successor row of state `i`, faulting its segment as needed.
    pub(crate) fn row(&self, i: usize) -> Result<&[Edge], ReachError> {
        debug_assert!(i < self.arena.len, "row {i} out of range");
        let (seg, local) = self.arena.seg_of(i);
        Ok(self.arena.segment(seg)?.row(local))
    }

    /// Evict cold edge segments until the shared resident total fits
    /// the budget (see [`Paged::maintain`]).
    pub(crate) fn maintain(&mut self) -> Result<(), ReachError> {
        self.arena.maintain()
    }
}

/// Semantic equality over the logical row sequence, independent of
/// paging state (see [`PagedStates`]'s impl for the panic caveat).
impl PartialEq for PagedEdges {
    fn eq(&self, other: &Self) -> bool {
        if self.arena.len != other.arena.len || self.total_edges != other.total_edges {
            return false;
        }
        (0..self.arena.len).all(|i| match (self.row(i), other.row(i)) {
            (Ok(a), Ok(b)) => a == b,
            _ => panic!("spill reload failed while comparing edge arenas"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(budget: usize) -> PagerConfig {
        PagerConfig {
            mem_budget: budget,
            spill_dir: None,
        }
    }

    /// Append `n` synthetic states over `places` places with
    /// deterministic contents (marking row = i, i+1, …; env = i % 7;
    /// one in-flight entry for every third state, one enabling-clock
    /// entry for every fourth — so segments exercise both the lazy and
    /// the materialized enabling-offset forms).
    fn fill(ps: &mut PagedStates, n: usize) {
        let places = ps.places();
        for i in 0..n {
            let marking: Vec<u32> = (0..places).map(|p| (i + p) as u32).collect();
            let inflight = if i.is_multiple_of(3) {
                vec![(TransitionId::new(i % 5), (i as u64) + 1)]
            } else {
                Vec::new()
            };
            let enabling = if i.is_multiple_of(4) {
                vec![(TransitionId::new(i % 3), (i as u64) % 9)]
            } else {
                Vec::new()
            };
            ps.append(&marking, (i % 7) as u32, &inflight, &enabling)
                .unwrap();
        }
    }

    fn expect_row(ps: &PagedStates, i: usize) {
        let places = ps.places();
        let marking: Vec<u32> = (0..places).map(|p| (i + p) as u32).collect();
        assert_eq!(ps.marking(i).unwrap(), &marking[..], "marking of state {i}");
        assert_eq!(ps.env_id(i).unwrap(), (i % 7) as u32, "env of state {i}");
        let inflight = if i.is_multiple_of(3) {
            vec![(TransitionId::new(i % 5), (i as u64) + 1)]
        } else {
            Vec::new()
        };
        assert_eq!(
            ps.in_flight(i).unwrap(),
            &inflight[..],
            "in-flight of state {i}"
        );
        let enabling = if i.is_multiple_of(4) {
            vec![(TransitionId::new(i % 3), (i as u64) % 9)]
        } else {
            Vec::new()
        };
        assert_eq!(
            ps.enabling(i).unwrap(),
            &enabling[..],
            "enabling clocks of state {i}"
        );
    }

    /// The deterministic edge row of synthetic state `i`: `i % 4`
    /// edges mixing fire and advance labels.
    fn edge_row(i: usize) -> Vec<Edge> {
        (0..i % 4)
            .map(|k| {
                let label = if k % 2 == 0 {
                    EdgeLabel::Fire(TransitionId::new((i + k) % 6))
                } else {
                    EdgeLabel::Advance((i as u64) % 11 + 1)
                };
                (label, ((i + k) % 1000) as u32)
            })
            .collect()
    }

    #[test]
    fn segment_image_roundtrips_byte_for_byte() {
        let mut data = SegmentData::empty();
        for i in 0..5u32 {
            data.markings.extend_from_slice(&[i, i * 2, i * 3]);
            data.env_ids.push(i % 2);
            if i % 2 == 0 {
                data.inflight
                    .push((TransitionId::new(i as usize), 40 + u64::from(i)));
            }
            data.inflight_offsets.push(data.inflight.len() as u32);
            let enabling: &[(TransitionId, u64)] = if i % 3 == 0 {
                &[(TransitionId::new(i as usize + 1), u64::from(i))]
            } else {
                &[]
            };
            data.push_enabling(i as usize, enabling);
        }
        assert!(!data.enabling_is_lazy(), "test data materializes the arena");
        let image = data.serialize();
        let back = SegmentData::deserialize(&image, 3).unwrap();
        assert_eq!(back, data);
        // Truncated or padded images are rejected, not misread.
        assert!(SegmentData::deserialize(&image[..image.len() - 1], 3).is_err());
        let mut padded = image.clone();
        padded.push(0);
        assert!(SegmentData::deserialize(&padded, 3).is_err());
        // A bit-flipped count field must fail fast on the header check,
        // not attempt a multi-gigabyte allocation.
        let mut huge = image.clone();
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(SegmentData::deserialize(&huge, 3).is_err());
    }

    #[test]
    fn edge_image_roundtrips_byte_for_byte() {
        let mut seg = EdgeSegment::empty();
        for i in 0..7usize {
            let row = edge_row(i);
            seg.edges.extend_from_slice(&row);
            seg.offsets.push(seg.edges.len() as u32);
        }
        let image = seg.serialize();
        let back = EdgeSegment::deserialize(&image, 0).unwrap();
        assert_eq!(back, seg);
        for i in 0..7 {
            assert_eq!(back.row(i), &edge_row(i)[..], "row {i}");
        }
        // Truncation, padding, and bad label tags are rejected.
        assert!(EdgeSegment::deserialize(&image[..image.len() - 1], 0).is_err());
        let mut padded = image.clone();
        padded.push(0);
        assert!(EdgeSegment::deserialize(&padded, 0).is_err());
        let mut bad_tag = image.clone();
        let tag_pos = 16 + 8 * 4; // header + offsets → first edge's tag
        bad_tag[tag_pos..tag_pos + 4].copy_from_slice(&7u32.to_le_bytes());
        assert!(EdgeSegment::deserialize(&bad_tag, 0).is_err());
    }

    #[test]
    fn lazy_enabling_segments_cost_and_spill_nothing_extra() {
        // An all-empty enabling arena (every untimed graph) keeps its
        // lazy form through a serialize/deserialize round trip and
        // contributes only the 4-byte sentinel to the segment size.
        let mut data = SegmentData::empty();
        for i in 0..4u32 {
            data.markings.extend_from_slice(&[i, i + 1]);
            data.env_ids.push(0);
            data.inflight_offsets.push(0);
            data.push_enabling(i as usize, &[]);
        }
        assert!(data.enabling_is_lazy());
        assert_eq!(data.enabling_offsets, vec![0]);
        for i in 0..4 {
            assert!(data.enabling(i).is_empty());
        }
        let image = data.serialize();
        let back = SegmentData::deserialize(&image, 2).unwrap();
        assert!(back.enabling_is_lazy());
        assert_eq!(back, data);
        // Mid-segment materialization backfills earlier states.
        data.markings.extend_from_slice(&[9, 9]);
        data.env_ids.push(0);
        data.inflight_offsets.push(0);
        data.push_enabling(4, &[(TransitionId::new(7), 3)]);
        assert_eq!(data.enabling_offsets.len(), 6, "backfilled to count + 1");
        for i in 0..4 {
            assert!(data.enabling(i).is_empty(), "backfilled state {i}");
        }
        assert_eq!(data.enabling(4), &[(TransitionId::new(7), 3)]);
        let back = SegmentData::deserialize(&data.serialize(), 2).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn wrong_image_version_is_rejected() {
        // An image stamped with a previous layout version (e.g. the v2
        // images written before the edge arena existed) must be
        // rejected on the header check — with an error *naming* the
        // version — not misinterpreted.
        let mut data = SegmentData::empty();
        data.markings.extend_from_slice(&[1, 2]);
        data.env_ids.push(0);
        data.inflight_offsets.push(0);
        let mut image = data.serialize();
        assert_eq!(SegmentData::deserialize(&image, 2).unwrap(), data);
        for old in [IMAGE_VERSION - 1, IMAGE_VERSION - 2] {
            image[..4].copy_from_slice(&old.to_le_bytes());
            let e = SegmentData::deserialize(&image, 2).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(
                e.to_string().contains(&format!("version {old}")),
                "error should name the rejected version: {e}"
            );
        }
    }

    #[test]
    fn wrong_image_kind_is_rejected() {
        // A state image fed to the edge parser (or vice versa) is a
        // bookkeeping bug; the kind word catches it with a named error
        // instead of a length mismatch.
        let mut seg = EdgeSegment::empty();
        seg.edges.push((EdgeLabel::Advance(3), 0));
        seg.offsets.push(1);
        let image = seg.serialize();
        let e = SegmentData::deserialize(&image, 2).unwrap_err();
        assert!(e.to_string().contains("kind"), "names the kind: {e}");
        let mut data = SegmentData::empty();
        data.markings.extend_from_slice(&[1, 2]);
        data.env_ids.push(0);
        data.inflight_offsets.push(0);
        let e = EdgeSegment::deserialize(&data.serialize(), 0).unwrap_err();
        assert!(e.to_string().contains("kind"), "names the kind: {e}");
    }

    #[test]
    fn eviction_spills_and_faults_reload_verbatim() {
        // A budget far below the data forces eviction; every row must
        // read back exactly as written, repeatedly.
        let mut ps = PagedStates::new(4, &tiny_config(8 * 1024));
        let n = 20 * ps.seg_states(); // several budgets' worth of sealed segments
        fill(&mut ps, n);
        assert!(ps.spilled_bytes() > 0, "budget must have forced spilling");
        assert!(
            !ps.is_resident(0),
            "oldest segment should be evicted under LRU"
        );
        // Faults reload evicted rows; a second pass re-reads rows that
        // the first pass faulted in (and some still-spilled ones).
        for _ in 0..2 {
            for i in 0..n {
                expect_row(&ps, i);
            }
        }
        // Spilled → resident transitions really happened.
        assert!(ps.is_resident(0), "reads fault segments back in");
    }

    #[test]
    fn edge_arena_shares_the_budget_and_reloads_verbatim() {
        // States and edges attached to one ledger: a tiny shared budget
        // forces both families to spill, and every edge row reloads
        // byte-for-byte.
        let mut ps = PagedStates::new(4, &tiny_config(8 * 1024));
        let mut pe = PagedEdges::new(ps.seg_states(), ps.shared(), None);
        let n = 12 * ps.seg_states();
        for i in 0..n {
            let marking: Vec<u32> = (0..4).map(|p| (i + p) as u32).collect();
            ps.append(&marking, 0, &[], &[]).unwrap();
            pe.push_row(&edge_row(i)).unwrap();
        }
        assert_eq!(pe.row_count(), n);
        assert_eq!(pe.edge_count(), (0..n).map(|i| i % 4).sum::<usize>());
        assert!(
            ps.spilled_bytes() > 0 && pe.spilled_bytes() > 0,
            "both families must spill under the shared budget \
             (states {} B, edges {} B)",
            ps.spilled_bytes(),
            pe.spilled_bytes()
        );
        for i in 0..n {
            assert_eq!(pe.row(i).unwrap(), &edge_row(i)[..], "edge row {i}");
        }
        // The shared resident counter really is shared: maintaining
        // both brings the combined arenas back under budget.
        pe.maintain().unwrap();
        ps.maintain().unwrap();
        assert!(ps.resident_bytes() <= 8 * 1024 + ps.max_segment_bytes());
        assert_eq!(ps.resident_bytes(), pe.arena.shared.resident());
    }

    #[test]
    fn sealed_images_are_written_once() {
        let mut ps = PagedStates::new(2, &tiny_config(4 * 1024));
        let n = 6 * ps.seg_states();
        fill(&mut ps, n);
        let spilled_after_build = ps.spilled_bytes();
        assert!(spilled_after_build > 0);
        // Fault everything back in, then squeeze again: re-evictions
        // must reuse the existing images instead of appending new ones.
        for i in 0..ps.len() {
            expect_row(&ps, i);
        }
        ps.maintain().unwrap();
        assert_eq!(
            ps.spilled_bytes(),
            spilled_after_build,
            "sealed segments are write-once"
        );
    }

    #[test]
    fn resident_bytes_respect_the_budget_envelope() {
        let budget = 8 * 1024;
        let mut ps = PagedStates::new(8, &tiny_config(budget));
        let n = 5 * ps.seg_states();
        fill(&mut ps, n);
        assert!(
            ps.resident_bytes() <= budget,
            "maintain() leaves the store under budget"
        );
        // Reads under `&self` may exceed the budget (no eviction without
        // `&mut`), but a maintain() brings it back down.
        for i in 0..ps.len() {
            expect_row(&ps, i);
        }
        ps.maintain().unwrap();
        assert!(ps.resident_bytes() <= budget);
        assert!(ps.peak_resident_bytes() >= ps.resident_bytes());
        // The peak probe is resettable, for phase-scoped envelopes.
        ps.shared().reset_peak();
        assert_eq!(ps.peak_resident_bytes(), ps.resident_bytes());
    }

    #[test]
    fn unlimited_budget_never_touches_disk() {
        let mut ps = PagedStates::new(3, &PagerConfig::default());
        fill(&mut ps, 10_000);
        assert_eq!(ps.spilled_bytes(), 0);
        assert!((0..ps.segments.len()).all(|s| ps.is_resident(s)));
        for i in [0, 4095, 4096, 9999] {
            expect_row(&ps, i);
        }
    }

    #[test]
    fn spill_dir_errors_surface_as_reach_error() {
        let mut missing = std::env::temp_dir();
        missing.push(format!("pnut-no-such-dir-{}", std::process::id()));
        missing.push("nested");
        let config = PagerConfig {
            mem_budget: 2 * 1024,
            spill_dir: Some(missing.clone()),
        };
        let mut ps = PagedStates::new(16, &config);
        let mut failed = None;
        for i in 0..50_000 {
            let marking: Vec<u32> = (0..16).map(|p| (i + p) as u32).collect();
            if let Err(e) = ps.append(&marking, 0, &[], &[]) {
                failed = Some(e);
                break;
            }
        }
        match failed {
            Some(ReachError::Spill(e)) => {
                assert_eq!(e.op, "create");
                let path = e.path.as_deref().expect("a failed create names its path");
                assert!(
                    path.starts_with(&missing),
                    "the path {} lies in the missing directory",
                    path.display()
                );
                assert!(
                    e.to_string().contains(&*missing.to_string_lossy()),
                    "the message names the directory: {e}"
                );
            }
            other => panic!("expected a spill create error, got {other:?}"),
        }
    }

    #[test]
    fn segment_ranges_tile_the_rows() {
        let mut ps = PagedStates::new(2, &tiny_config(4 * 1024));
        let n = 3 * ps.seg_states() + ps.seg_states() / 2;
        fill(&mut ps, n);
        let mut covered = 0;
        for seg in 0..ps.segment_count() {
            let r = ps.segment_range(seg);
            assert_eq!(r.start, covered, "ranges are contiguous");
            assert!(!r.is_empty(), "no empty segments");
            covered = r.end;
        }
        assert_eq!(covered, n, "ranges cover every row");
    }

    #[test]
    fn kept_segment_survives_maintain_until_released() {
        let budget = 8 * 1024;
        let mut ps = PagedStates::new(4, &tiny_config(budget));
        let n = 8 * ps.seg_states();
        fill(&mut ps, n);
        assert!(!ps.is_resident(0), "the build evicted segment 0");
        // Keep segment 0 (through any of its rows) and fault it in;
        // then touch every later sealed segment after it, which makes
        // segment 0 the coldest and overfills the budget.
        ps.keep(Some(5));
        expect_row(&ps, 5);
        ps.maintain().unwrap();
        let overfill = |ps: &PagedStates| {
            for i in ps.seg_states()..n {
                expect_row(ps, i);
            }
            assert!(
                ps.resident_bytes() > budget,
                "the reads overfill the budget"
            );
        };
        overfill(&ps);
        ps.maintain().unwrap();
        assert!(
            ps.resident_bytes() <= budget,
            "the other segments are evicted back under budget"
        );
        assert!(ps.is_resident(0), "the kept segment stays resident");
        // Released, the coldest segment is the first victim again.
        ps.keep(None);
        overfill(&ps);
        ps.maintain().unwrap();
        assert!(!ps.is_resident(0), "a released segment is evictable");
        assert!(ps.resident_bytes() <= budget);
    }

    #[test]
    fn seg_states_scales_with_budget_and_width() {
        assert_eq!(seg_states_for(10, usize::MAX), MAX_SEG_STATES);
        // 64 KiB budget, 26 places: an eighth-budget segment of 64. An
        // eighth because the estimate counts marking rows only, while
        // the edge rows share the budget: it must hold both tails, the
        // segment the sequential build keeps and a window of segments
        // its probes fault in.
        assert_eq!(seg_states_for(26, 64 * 1024), 64);
        // Degenerate budgets clamp to the minimum grain.
        assert_eq!(seg_states_for(1000, 1), MIN_SEG_STATES);
        assert!(seg_states_for(0, 1024).is_power_of_two());
    }
}

/// Ledger invariants under the interleaving checker: every schedule
/// (within the preemption bound) of concurrent accounting keeps the
/// resident counter non-negative and the peak an envelope, and a peak
/// reset racing an account stays benign. See `tests/race_model.rs` for
/// the full-protocol scenarios; these pin the [`PagerShared`] ledger in
/// isolation.
#[cfg(all(test, feature = "race-model"))]
mod race_tests {
    use super::PagerShared;
    use crate::race::{self, Options};

    #[test]
    fn ledger_balances_and_peak_envelopes_under_contention() {
        race::check(&Options::default(), || {
            let shared = PagerShared::new(1 << 20);
            race::scope(|s| {
                s.spawn(|| {
                    shared.add_resident(100);
                    // `sub` carries the underflow debug-assert: any
                    // interleaving that could drive the ledger negative
                    // fails the execution.
                    shared.sub_resident(100);
                });
                s.spawn(|| {
                    shared.add_resident(50);
                    let p1 = shared.peak();
                    let p2 = shared.peak();
                    assert!(p2 >= p1, "peak regressed {p1} -> {p2} without a reset");
                    shared.sub_resident(50);
                });
            });
            assert_eq!(
                shared.resident(),
                0,
                "ledger must balance after both return"
            );
            let peak = shared.peak();
            assert!(
                (50..=150).contains(&peak),
                "peak {peak} outside the feasible envelope"
            );
        })
        .expect("ledger accounting has no defects");
    }

    #[test]
    fn peak_reset_racing_an_account_is_benign() {
        race::check(&Options::default(), || {
            let shared = PagerShared::new(1 << 20);
            shared.add_resident(30);
            race::scope(|s| {
                s.spawn(|| {
                    shared.add_resident(10);
                    shared.sub_resident(10);
                });
                s.spawn(|| {
                    // An owner-side phase boundary: restart the
                    // high-water mark while a fault is accounting.
                    shared.reset_peak();
                });
            });
            assert_eq!(shared.resident(), 30);
            // Whatever the interleaving, the mark never exceeds the
            // true high water and ends at least at the resident level
            // observed by some serialization point.
            assert!(
                shared.peak() <= 40,
                "peak {} above high water",
                shared.peak()
            );
        })
        .expect("peak reset racing an account has no defects");
    }
}
