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
//! intern table   (hash fold, state index)   always resident, probes first
//!      │ fold match → content compare needs the arena row
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
//! # Rows and images
//!
//! [`SegmentData::push`] writes a state row and [`SegmentData::state`]
//! reads one back whole. [`ImageWriter`] and [`ImageReader`] are the one
//! place the spill-image format of both segment kinds lives; the reader
//! checks every length before it sizes a vector and every CSR offset, so
//! a damaged image fails its reload as a [`ReachError::Spill`] `"read"`
//! error naming the segment instead of panicking a later row read. An
//! env id, transition id or edge target out of range needs a checksum.
//!
//! # Concurrency and why faulting under `&self` is sound
//!
//! The parallel builder freezes the committed store during each batch
//! of a wide level, and its workers load their sources from it through
//! `&self`. A load that lands in a spilled segment must *fault it back
//! in* without `&mut`:
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
//! points ([`Paged::maintain`] — called after every load, intern and
//! append of the build, and between segments of an analysis sweep), so
//! within one batch of a wide level the resident set may transiently
//! exceed the budget by the segments its workers fault in, until the
//! barrier's interns evict them. Sequentially the
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
use crate::store::{MarkingView, StateRef};
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
/// cheaply clonable.
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
///
/// Without a budget (`usize::MAX`) nothing is ever evicted, so the
/// resident count never falls: the clock never ticks, and the peak is
/// the resident count itself rather than a second counter.
#[derive(Debug)]
pub(crate) struct PagerShared {
    /// Resident byte budget across all attached arenas.
    budget: usize,
    /// LRU clock; advanced by every [`Paged::maintain`] under a budget.
    clock: AtomicU64,
    /// Resident arena bytes right now (all attached arenas, tails
    /// included).
    resident: AtomicUsize,
    /// High-water mark of `resident` under a budget. Resettable
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

    /// Whether no budget is set, so nothing can ever be evicted.
    fn unbudgeted(&self) -> bool {
        self.budget == usize::MAX
    }

    fn add_resident(&self, bytes: usize) {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if !self.unbudgeted() {
            self.peak.fetch_max(now, Ordering::Relaxed);
        }
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
        if self.unbudgeted() {
            // Exact: without eviction the resident count never falls.
            return self.resident();
        }
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
        let Some(at) = super::first_marking_byte(buf) else {
            return;
        };
        if CORRUPT_READ_IN.fetch_sub(1, Ordering::Relaxed) == 1 {
            buf[at] ^= 1;
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

fn read_u32(c: &[u8]) -> u32 {
    u32::from_le_bytes(c.try_into().expect("4-byte chunk"))
}

fn read_u64(c: &[u8]) -> u64 {
    u64::from_le_bytes(c.try_into().expect("8-byte chunk"))
}

/// Writes one spill image. With [`ImageReader`] it is the one place the
/// format is encoded (every field little-endian): the version and kind
/// words, the segment's count words, then its arrays in order. Words
/// are `u32`; a clock entry is `(transition:u64, ticks:u64)`; an edge
/// is `(tag:u32, payload:u64, target:u32)`, where tag 0 is
/// `Fire(payload)` and tag 1 is `Advance(payload)`.
struct ImageWriter(Vec<u8>);

impl ImageWriter {
    /// Start an image of `kind` with its count words; `body` is the byte
    /// length of the arrays to follow, so the image allocates once.
    fn new(kind: u32, counts: &[usize], body: usize) -> Self {
        let mut w = ImageWriter(Vec::with_capacity(4 * (2 + counts.len()) + body));
        w.words(&[IMAGE_VERSION, kind]);
        for &count in counts {
            w.words(&[count as u32]);
        }
        w
    }

    fn words(&mut self, words: &[u32]) {
        for &w in words {
            self.0.extend_from_slice(&w.to_le_bytes());
        }
    }

    fn clocks(&mut self, clocks: &[(TransitionId, u64)]) {
        for &(t, ticks) in clocks {
            self.0.extend_from_slice(&(t.index() as u64).to_le_bytes());
            self.0.extend_from_slice(&ticks.to_le_bytes());
        }
    }

    fn edges(&mut self, edges: &[Edge]) {
        for &(label, target) in edges {
            let (tag, payload) = match label {
                EdgeLabel::Fire(t) => (0u32, t.index() as u64),
                EdgeLabel::Advance(dt) => (1u32, dt),
            };
            self.0.extend_from_slice(&tag.to_le_bytes());
            self.0.extend_from_slice(&payload.to_le_bytes());
            self.0.extend_from_slice(&target.to_le_bytes());
        }
    }
}

/// Reads one spill image back: the one place the format is decoded.
/// Every length is checked against the image before a vector is sized
/// from it, so a damaged image is an [`io::ErrorKind::InvalidData`]
/// error, never a panic or an allocation the image cannot fill. Each
/// array decodes in bulk from one checked slice (reloads stay at
/// memcpy-like speed), and CSR offsets are validated so that every row
/// slices inside its array.
struct ImageReader<'a> {
    image: &'a [u8],
    pos: usize,
}

impl<'a> ImageReader<'a> {
    /// Open an image of `kind` and read its `N` count words. A wrong
    /// version or kind word is an error that names it, so a stale or
    /// foreign image is diagnosable, not just "corrupt".
    fn open<const N: usize>(image: &'a [u8], kind: u32) -> io::Result<(Self, [usize; N])> {
        let mut r = ImageReader { image, pos: 0 };
        let [version, got_kind] = r.header_words()?;
        for (word, got, want) in [
            ("version", version, IMAGE_VERSION),
            ("kind", got_kind, kind),
        ] {
            if got != want as usize {
                let msg = format!("spill image {word} {got} (expected {want})");
                return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
            }
        }
        let counts = r.header_words()?;
        Ok((r, counts))
    }

    /// The next `n` records of `size` bytes each, once the image is
    /// known to hold them all.
    fn take(&mut self, n: usize, size: usize) -> io::Result<std::slice::ChunksExact<'a, u8>> {
        let end = n
            .checked_mul(size)
            .and_then(|len| len.checked_add(self.pos))
            .ok_or_else(corrupt)?;
        let bytes = self.image.get(self.pos..end).ok_or_else(corrupt)?;
        self.pos = end;
        Ok(bytes.chunks_exact(size))
    }

    fn header_words<const N: usize>(&mut self) -> io::Result<[usize; N]> {
        let mut counts = [0; N];
        for (count, c) in counts.iter_mut().zip(self.take(N, 4)?) {
            *count = read_u32(c) as usize;
        }
        Ok(counts)
    }

    fn words(&mut self, n: usize) -> io::Result<Vec<u32>> {
        Ok(self.take(n, 4)?.map(read_u32).collect())
    }

    /// `n` CSR offsets into an array of `entries` entries. They must
    /// start at 0, never decrease and end at `entries`.
    fn offsets(&mut self, n: usize, entries: usize) -> io::Result<Vec<u32>> {
        let offsets = self.words(n)?;
        if offsets.first() == Some(&0)
            && offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets.last().map(|&o| o as usize) == Some(entries)
        {
            Ok(offsets)
        } else {
            Err(corrupt())
        }
    }

    fn clocks(&mut self, n: usize) -> io::Result<Vec<(TransitionId, u64)>> {
        Ok(self
            .take(n, 16)?
            .map(|c| {
                (
                    TransitionId::new(read_u64(&c[..8]) as usize),
                    read_u64(&c[8..]),
                )
            })
            .collect())
    }

    fn edges(&mut self, n: usize) -> io::Result<Vec<Edge>> {
        let records = self.take(n, 16)?;
        // Sized once, after `take` checked the length: collecting into
        // an `io::Result` would lose the size hint and regrow the vector.
        let mut edges = Vec::with_capacity(n);
        for c in records {
            let payload = read_u64(&c[4..12]);
            let label = match read_u32(&c[..4]) {
                0 => EdgeLabel::Fire(TransitionId::new(payload as usize)),
                1 => EdgeLabel::Advance(payload),
                _ => return Err(corrupt()),
            };
            edges.push((label, read_u32(&c[12..])));
        }
        Ok(edges)
    }

    /// Succeed only if nothing follows the last field.
    fn finish(self) -> io::Result<()> {
        if self.pos == self.image.len() {
            Ok(())
        } else {
            Err(corrupt())
        }
    }
}

/// Where the first marking of a state image begins, for the
/// silent-corruption hook ([`fail::corrupt_nth_spill_read`]); `None`
/// for edge images and for state images without a marking word.
fn first_marking_byte(image: &[u8]) -> Option<usize> {
    let (r, [count, ..]) = SegmentData::open(image).ok()?;
    (count != 0 && r.pos < image.len()).then_some(r.pos)
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

    /// Append one state's row: its marking, environment id, in-flight
    /// firings and enabling clocks. The only writer of a state row.
    pub(crate) fn push(
        &mut self,
        marking: &[u32],
        env_id: u32,
        in_flight: &[(TransitionId, u64)],
        enabling: &[(TransitionId, u64)],
    ) {
        let count_before = self.count();
        self.markings.extend_from_slice(marking);
        self.env_ids.push(env_id);
        self.inflight.extend_from_slice(in_flight);
        self.inflight_offsets.push(self.inflight.len() as u32);
        self.push_enabling(count_before, enabling);
    }

    pub(crate) fn marking(&self, local: usize, places: usize) -> &[u32] {
        &self.markings[local * places..(local + 1) * places]
    }

    fn enabling(&self, local: usize) -> &[(TransitionId, u64)] {
        if self.enabling_is_lazy() {
            return &[];
        }
        &self.enabling
            [self.enabling_offsets[local] as usize..self.enabling_offsets[local + 1] as usize]
    }

    /// The whole row of local state `local` over `places` places, so a
    /// reader takes every field of a state from one segment fetch.
    pub(crate) fn state(&self, local: usize, places: usize) -> StateRef<'_> {
        StateRef {
            marking: MarkingView::new(self.marking(local, places)),
            env_id: self.env_ids[local],
            in_flight: &self.inflight
                [self.inflight_offsets[local] as usize..self.inflight_offsets[local + 1] as usize],
            enabling: self.enabling(local),
        }
    }

    /// Open a state image and read its four count words: states,
    /// in-flight entries, enabling entries and enabling offsets.
    fn open(image: &[u8]) -> io::Result<(ImageReader<'_>, [usize; 4])> {
        ImageReader::open(image, KIND_STATES)
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

    /// The state image: the four counts of [`Self::open`], then the
    /// markings, env ids, in-flight offsets, enabling offsets, in-flight
    /// clocks and enabling clocks. The enabling offsets keep their lazy
    /// form on disk (`len == 1` for an all-empty segment), so untimed
    /// images cost the same bytes they did before the arena existed.
    fn serialize(&self) -> Vec<u8> {
        let counts = [
            self.count(),
            self.inflight.len(),
            self.enabling.len(),
            self.enabling_offsets.len(),
        ];
        let mut w = ImageWriter::new(KIND_STATES, &counts, self.bytes());
        w.words(&self.markings);
        w.words(&self.env_ids);
        w.words(&self.inflight_offsets);
        w.words(&self.enabling_offsets);
        w.clocks(&self.inflight);
        w.clocks(&self.enabling);
        w.0
    }

    fn deserialize(image: &[u8], places: usize) -> io::Result<SegmentData> {
        let (mut r, [count, inflight_len, enabling_len, eoff_len]) = SegmentData::open(image)?;
        // The enabling offsets are either the lazy sentinel or fully
        // materialized; anything else is corrupt.
        if eoff_len != 1 && eoff_len != count + 1 {
            return Err(corrupt());
        }
        let data = SegmentData {
            markings: r.words(count.checked_mul(places).ok_or_else(corrupt)?)?,
            env_ids: r.words(count)?,
            inflight_offsets: r.offsets(count + 1, inflight_len)?,
            enabling_offsets: r.offsets(eoff_len, enabling_len)?,
            inflight: r.clocks(inflight_len)?,
            enabling: r.clocks(enabling_len)?,
        };
        r.finish()?;
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

    /// The edge image: the counts of rows and edges, then the row
    /// offsets and the edges.
    fn serialize(&self) -> Vec<u8> {
        let counts = [self.count(), self.edges.len()];
        let body = self.offsets.len() * 4 + self.edges.len() * 16;
        let mut w = ImageWriter::new(KIND_EDGES, &counts, body);
        w.words(&self.offsets);
        w.edges(&self.edges);
        w.0
    }

    fn deserialize(image: &[u8], _places: usize) -> io::Result<EdgeSegment> {
        let (mut r, [count, edge_len]) = ImageReader::open(image, KIND_EDGES)?;
        let seg = EdgeSegment {
            offsets: r.offsets(count + 1, edge_len)?,
            edges: r.edges(edge_len)?,
        };
        r.finish()?;
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
    /// every load, intern and append of the build, and between
    /// segments of an analysis sweep. Without a budget it returns at
    /// once: nothing can be evicted, so there is no clock to advance.
    pub(crate) fn maintain(&mut self) -> Result<(), ReachError> {
        if self.shared.unbudgeted() {
            return Ok(());
        }
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
    /// module docs of [`crate::graph`] for why).
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
        tail.push(marking, env_id, in_flight, enabling);
        // Delta accounting (rather than an arithmetic formula): a lazy →
        // materialized transition of the enabling offsets backfills the
        // whole segment's offsets in one append.
        let added = tail.bytes() - before;
        self.note_tail_growth(added);
        self.len += 1;
        self.maintain()
    }

    /// The whole row of state `i`, from one fetch of its segment
    /// (faulting it in if evicted).
    pub(crate) fn state(&self, i: usize) -> Result<StateRef<'_>, ReachError> {
        debug_assert!(i < self.len, "state {i} out of range");
        let (seg, local) = self.seg_of(i);
        Ok(self.segment(seg)?.state(local, self.places))
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
        (0..self.len).all(|i| match (self.state(i), other.state(i)) {
            (Ok(a), Ok(b)) => a == b,
            _ => panic!("spill reload failed while comparing stores"),
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
        let state = ps.state(i).unwrap();
        assert_eq!(
            state.marking.as_slice(),
            &marking[..],
            "marking of state {i}"
        );
        assert_eq!(state.env_id, (i % 7) as u32, "env of state {i}");
        let inflight = if i.is_multiple_of(3) {
            vec![(TransitionId::new(i % 5), (i as u64) + 1)]
        } else {
            Vec::new()
        };
        assert_eq!(state.in_flight, &inflight[..], "in-flight of state {i}");
        let enabling = if i.is_multiple_of(4) {
            vec![(TransitionId::new(i % 3), (i as u64) % 9)]
        } else {
            Vec::new()
        };
        assert_eq!(
            state.enabling,
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

    /// The v3 image of an untimed state segment: three states over two
    /// places, no in-flight firings, the enabling offsets in lazy form.
    #[rustfmt::skip]
    const UNTIMED_STATE_IMAGE: &[u8] = &[
        3, 0, 0, 0,   1, 0, 0, 0,           // version 3, kind 1 (states)
        3, 0, 0, 0,   0, 0, 0, 0,           // 3 states, 0 in-flight entries
        0, 0, 0, 0,   1, 0, 0, 0,           // 0 enabling entries, 1 enabling offset
        1, 0, 0, 0,   0, 0, 0, 0,           // marking [1, 0]
        0, 0, 0, 0,   2, 0, 0, 0,           // marking [0, 2]
        3, 0, 0, 0,   1, 0, 0, 0,           // marking [3, 1]
        0, 0, 0, 0,   0, 0, 0, 0,   1, 0, 0, 0, // env ids 0, 0, 1
        0, 0, 0, 0,   0, 0, 0, 0,           // in-flight offsets 0, 0,
        0, 0, 0, 0,   0, 0, 0, 0,           //   0, 0
        0, 0, 0, 0,                         // the lazy enabling offset 0
    ];

    /// The v3 image of a timed state segment: in-flight firings on two
    /// states, an enabling clock on one, so the offsets are materialized.
    #[rustfmt::skip]
    const TIMED_STATE_IMAGE: &[u8] = &[
        3, 0, 0, 0,   1, 0, 0, 0,           // version 3, kind 1 (states)
        3, 0, 0, 0,   3, 0, 0, 0,           // 3 states, 3 in-flight entries
        1, 0, 0, 0,   4, 0, 0, 0,           // 1 enabling entry, 4 enabling offsets
        2, 1, 0, 0,   0, 0, 0, 0,           // marking [258, 0]
        0, 0, 0, 0,   1, 0, 0, 0,           // marking [0, 1]
        0, 0, 0, 0,   0, 0, 0, 0,           // marking [0, 0]
        0, 0, 0, 0,   0, 0, 0, 0,   2, 0, 0, 0, // env ids 0, 0, 2
        0, 0, 0, 0,   1, 0, 0, 0,           // in-flight offsets 0, 1,
        1, 0, 0, 0,   3, 0, 0, 0,           //   1, 3
        0, 0, 0, 0,   0, 0, 0, 0,           // enabling offsets 0, 0,
        1, 0, 0, 0,   1, 0, 0, 0,           //   1, 1
        1, 0, 0, 0, 0, 0, 0, 0,   2, 0, 0, 0, 1, 0, 0, 0, // (t1, 2^32 + 2)
        0, 0, 0, 0, 0, 0, 0, 0,   1, 0, 0, 0, 0, 0, 0, 0, // (t0, 1)
        2, 0, 0, 0, 0, 0, 0, 0,   5, 0, 0, 0, 0, 0, 0, 0, // (t2, 5)
        3, 0, 0, 0, 0, 0, 0, 0,   4, 0, 0, 0, 0, 0, 0, 0, // enabling clock (t3, 4)
    ];

    /// The v3 image of an edge segment: two `Fire` edges, one
    /// `Advance` edge and an empty row.
    #[rustfmt::skip]
    const EDGE_IMAGE: &[u8] = &[
        3, 0, 0, 0,   2, 0, 0, 0,           // version 3, kind 2 (edges)
        3, 0, 0, 0,   3, 0, 0, 0,           // 3 rows, 3 edges
        0, 0, 0, 0,   2, 0, 0, 0,           // row offsets 0, 2,
        3, 0, 0, 0,   3, 0, 0, 0,           //   3, 3
        0, 0, 0, 0,   1, 0, 0, 0, 0, 0, 0, 0,   1, 0, 0, 0, // Fire(t1) → 1
        0, 0, 0, 0,   4, 0, 0, 0, 0, 0, 0, 0,   2, 0, 0, 0, // Fire(t4) → 2
        1, 0, 0, 0,   44, 1, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0, // Advance(300) → 0
    ];

    /// `seg` serializes to exactly `golden`, which reads back to `seg`,
    /// while every strict prefix of it and it plus one byte are refused.
    fn assert_pinned<S: SegmentContent>(seg: &S, places: usize, golden: &[u8]) {
        assert_eq!(seg.serialize(), golden, "serialized bytes");
        assert_eq!(&S::deserialize(golden, places).unwrap(), seg);
        for len in 0..golden.len() {
            assert!(
                S::deserialize(&golden[..len], places).is_err(),
                "a {len}-byte prefix of a {}-byte image was accepted",
                golden.len()
            );
        }
        let mut longer = golden.to_vec();
        longer.push(0);
        assert!(S::deserialize(&longer, places).is_err(), "one byte more");
    }

    #[test]
    fn images_match_the_pinned_v3_bytes() {
        let t = TransitionId::new;
        let mut untimed = PagedStates::new(2, &PagerConfig::default());
        untimed.append(&[1, 0], 0, &[], &[]).unwrap();
        untimed.append(&[0, 2], 0, &[], &[]).unwrap();
        untimed.append(&[3, 1], 1, &[], &[]).unwrap();
        assert_pinned(untimed.segment(0).unwrap(), 2, UNTIMED_STATE_IMAGE);

        let mut timed = PagedStates::new(2, &PagerConfig::default());
        timed
            .append(&[258, 0], 0, &[(t(1), (1 << 32) + 2)], &[])
            .unwrap();
        timed.append(&[0, 1], 0, &[], &[(t(3), 4)]).unwrap();
        timed
            .append(&[0, 0], 2, &[(t(0), 1), (t(2), 5)], &[])
            .unwrap();
        assert_pinned(timed.segment(0).unwrap(), 2, TIMED_STATE_IMAGE);

        let mut edges = PagedEdges::new(untimed.seg_states(), untimed.shared(), None);
        edges
            .push_row(&[(EdgeLabel::Fire(t(1)), 1), (EdgeLabel::Fire(t(4)), 2)])
            .unwrap();
        edges.push_row(&[(EdgeLabel::Advance(300), 0)]).unwrap();
        edges.push_row(&[]).unwrap();
        assert_pinned(edges.segment(0).unwrap(), 0, EDGE_IMAGE);
    }

    /// Set each of `words` in `image` to each of `values` in turn, and
    /// hand every damaged copy to `check`.
    fn each_damaged_word(
        image: &[u8],
        words: std::ops::Range<usize>,
        values: &[u32],
        mut check: impl FnMut(&[u8]),
    ) {
        for word in words {
            for value in values {
                let mut bad = image.to_vec();
                bad[word * 4..word * 4 + 4].copy_from_slice(&value.to_le_bytes());
                check(&bad);
            }
        }
    }

    /// A damaged word must not turn into a panic on a later row read:
    /// `deserialize` refuses the image, or every row of what it accepts
    /// slices inside its arrays. (An env id, a transition id or an edge
    /// target out of range reads back as it is: only a checksum could
    /// judge those.)
    #[test]
    fn damaged_words_are_refused_or_read_in_bounds() {
        let mut edges = EdgeSegment::empty();
        for i in 0..7 {
            edges.edges.extend_from_slice(&edge_row(i));
            edges.offsets.push(edges.edges.len() as u32);
        }
        // The 8 row offsets follow the version, kind and two counts.
        each_damaged_word(&edges.serialize(), 4..12, &[0, 1000, u32::MAX], |bad| {
            if let Ok(seg) = EdgeSegment::deserialize(bad, 0) {
                for local in 0..seg.count() {
                    assert!(seg.row(local).len() <= seg.edges.len());
                }
            }
        });

        let mut states = SegmentData::empty();
        for i in 0..5u32 {
            let in_flight: &[(TransitionId, u64)] = if i % 2 == 0 {
                &[(TransitionId::new(i as usize), 40 + u64::from(i))]
            } else {
                &[]
            };
            let enabling: &[(TransitionId, u64)] = if i % 3 == 0 {
                &[(TransitionId::new(i as usize + 1), u64::from(i))]
            } else {
                &[]
            };
            states.push(&[i, i * 2, i * 3], i % 2, in_flight, enabling);
        }
        let image = states.serialize();
        let values = [0, 1, 1000, u32::MAX];
        // Every word after the version and kind words.
        each_damaged_word(&image, 2..image.len() / 4, &values, |bad| {
            if let Ok(seg) = SegmentData::deserialize(bad, 3) {
                for local in 0..seg.count() {
                    assert_eq!(seg.state(local, 3).marking.len(), 3);
                }
            }
        });
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
        // Nothing can be evicted, so the clock never ticks and the peak
        // is the resident count, also after a reset.
        ps.maintain().unwrap();
        assert_eq!(ps.shared.clock.load(Ordering::Relaxed), 1);
        assert_eq!(ps.peak_resident_bytes(), ps.resident_bytes());
        ps.shared().reset_peak();
        fill(&mut ps, 100);
        assert_eq!(ps.peak_resident_bytes(), ps.resident_bytes());
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
