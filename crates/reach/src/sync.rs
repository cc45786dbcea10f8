//! The synchronization facade of the pager protocol — every atomic,
//! lock, and raw-pointer operation that `pager.rs` uses for
//! cross-thread coordination goes through this module.
//!
//! # Two personalities
//!
//! * **Production** (the default): every item is a zero-cost re-export
//!   of the `std` primitive or an `#[inline(always)]` passthrough to
//!   the raw-pointer operation it names. The compiled code is
//!   bit-identical to writing `std::sync::atomic::AtomicPtr` and
//!   `Box::into_raw` directly — the golden tests and the bench-diff
//!   trend gates pin that down.
//! * **`race-model`** (a cargo feature, never enabled by production
//!   builds): the same names resolve to the model types of
//!   `crate::race`, which route every operation through a
//!   deterministic cooperative scheduler that explores thread
//!   interleavings exhaustively (preemption-bounded DFS), tracks
//!   happens-before with vector clocks, and tags every raw pointer
//!   with the generation of its allocation so a use-after-free or a
//!   racing access is a deterministic failure with a replayable
//!   schedule — an in-tree analogue of `loom`.
//!
//! The protocol being checked is documented in `docs/CONCURRENCY.md`;
//! the checker itself lives in `crate::race` (compiled only with
//! `--features race-model`).
//!
//! # The raw-pointer vocabulary
//!
//! The pager publishes heap segments through an [`AtomicPtr`]. Under
//! the model, a bare `*mut T` cannot carry the allocation-generation
//! tag, so the facade owns the pointer vocabulary:
//!
//! * [`Ptr<T>`](Ptr) — `*mut T` in production, a generation-tagged
//!   handle under the model. `Copy`, has `.is_null()`.
//! * [`raw::alloc`] / [`raw::free`] — `Box::into_raw` /
//!   `drop(Box::from_raw(..))`.
//! * [`raw::deref`] / [`raw::deref_mut`] — `&*p` / `&mut *p`, with the
//!   caller still responsible for the aliasing argument (the `unsafe`
//!   contract is identical to the bare dereference).
//! * [`raw::null`] — `std::ptr::null_mut`.

pub use std::sync::atomic::Ordering;

#[cfg(not(feature = "race-model"))]
pub use prod::{raw, AtomicPtr, AtomicU64, AtomicUsize, Mutex, Ptr};

#[cfg(feature = "race-model")]
pub use crate::race::sync::{raw, AtomicPtr, AtomicU64, AtomicUsize, Mutex, Ptr};

/// The production personality: straight re-exports and inlined
/// passthroughs. Kept in a named module (rather than scattered
/// `cfg`s) so the two personalities are diffable side by side.
#[cfg(not(feature = "race-model"))]
mod prod {
    pub use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize};
    pub use std::sync::Mutex;

    /// A raw heap pointer as published through an [`AtomicPtr`]. In
    /// production this *is* `*mut T`; under the race model it is a
    /// generation-tagged handle (see [`crate::sync`] module docs).
    pub type Ptr<T> = *mut T;

    /// Raw-pointer operations, named so the race model can observe
    /// them. Each is an `#[inline(always)]` passthrough in production.
    pub mod raw {
        /// Move `value` to the heap and leak it as a raw pointer
        /// (`Box::into_raw`). Ownership transfers to the caller, to be
        /// reclaimed with [`free`].
        #[inline(always)]
        pub fn alloc<T>(value: T) -> super::Ptr<T> {
            Box::into_raw(Box::new(value))
        }

        /// The null pointer.
        #[inline(always)]
        pub fn null<T>() -> super::Ptr<T> {
            std::ptr::null_mut()
        }

        /// Shared-reference a pointer from [`alloc`].
        ///
        /// # Safety
        ///
        /// `p` must come from [`alloc`], not yet passed to [`free`],
        /// and no `&mut` to the pointee may be live. The returned
        /// lifetime is unconstrained — the caller ties it to whatever
        /// guarantees the pointee stays allocated.
        #[inline(always)]
        pub unsafe fn deref<'a, T>(p: super::Ptr<T>) -> &'a T {
            // SAFETY: forwarded verbatim from the function contract.
            unsafe { &*p }
        }

        /// Exclusive-reference a pointer from [`alloc`].
        ///
        /// # Safety
        ///
        /// As [`deref()`], and additionally no other reference to the
        /// pointee may be live at all.
        #[inline(always)]
        pub unsafe fn deref_mut<'a, T>(p: super::Ptr<T>) -> &'a mut T {
            // SAFETY: forwarded verbatim from the function contract.
            unsafe { &mut *p }
        }

        /// Reclaim and drop a pointer from [`alloc`].
        ///
        /// # Safety
        ///
        /// `p` must come from [`alloc`], not yet have been freed, and
        /// no reference to the pointee may be live.
        #[inline(always)]
        pub unsafe fn free<T>(p: super::Ptr<T>) {
            // SAFETY: forwarded verbatim from the function contract.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// Seeded protocol mutations for the race-model mutation battery.
///
/// Each constant names one deliberate way to break the pager protocol;
/// [`active`](mutation::active) reports whether the currently running
/// model execution requested it (via `race::Options::tags`). In
/// production builds [`active`](mutation::active) is a constant
/// `false`, so every mutant arm is
/// statically dead and the protocol code compiles exactly as written.
///
/// The battery in `tests/race_model.rs` asserts the checker kills
/// every one of these mutants with a replayable schedule.
pub mod mutation {
    /// Skip the double-check of the segment pointer after acquiring
    /// the fault lock — two concurrent faults then both install, the
    /// first installation leaks, and the ledger double-counts.
    pub const DROP_FAULT_RECHECK: &str = "drop-fault-recheck";
    /// Install the faulted segment pointer with `Relaxed` instead of
    /// `Release` — readers that acquire the pointer no longer
    /// happen-after the segment's initialization.
    pub const RELAXED_INSTALL: &str = "relaxed-install";
    /// Free a cold segment inside `fault()` (under `&self`) instead
    /// of waiting for the `&mut` eviction point — a concurrent reader
    /// may hold a borrow into the freed segment.
    pub const FREE_IN_FAULT: &str = "free-in-fault";

    /// Whether mutation `tag` is active in the current model
    /// execution. Constant `false` in production builds.
    #[cfg(not(feature = "race-model"))]
    #[inline(always)]
    pub fn active(_tag: &'static str) -> bool {
        false
    }

    /// Whether mutation `tag` is active in the current model
    /// execution (set through `race::Options::tags`).
    #[cfg(feature = "race-model")]
    pub fn active(tag: &'static str) -> bool {
        crate::race::tag_active(tag)
    }
}
