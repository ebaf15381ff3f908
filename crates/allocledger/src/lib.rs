//! Per-thread allocation ledger backed by a counting [`GlobalAlloc`].
//!
//! The static half of the hot-path allocation discipline lives in
//! `cargo xtask analyze` (the `hotpath` pass denies allocation-heavy idioms
//! in the declared hot-path modules); this crate is the runtime half: a
//! global allocator that forwards every request to the system allocator
//! while counting allocation *events* and *bytes* in thread-local cells.
//! The simulation harness snapshots the ledger around a run and reports the
//! delta as `alloc_events` / `alloc_bytes` in its summary, so allocation
//! regressions show up in benchmark JSON — and, because the counts are
//! per-thread and the simulation is single-threaded, two runs with the same
//! seed must report bitwise-equal ledgers.
//!
//! The allocator itself is only installed when the `install` feature is on
//! (`#[global_allocator]` must be unique per binary); without it the
//! counters exist but stay zero, and [`installed`] reports which world the
//! process is in so consumers can distinguish "no allocations" from "no
//! ledger".

// The counters are thread-local `Cell`s: counting inside `alloc` must
// neither allocate nor lock, and per-thread counts keep a single-threaded
// simulation's ledger replayable.
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_macros,
    reason = "the ledger's counters are thread-local Cells by design"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Const-initialised thread locals: no lazy-init allocation on first access,
// so counting an allocation can never itself allocate (which would recurse).
thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting events and bytes per thread.
///
/// Deallocation is intentionally not counted: the ledger measures pressure
/// created (how much the hot path asks of the allocator), not liveness.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

fn record(bytes: usize) {
    // `try_with`, not `with`: the system allocator can be invoked during
    // thread teardown after the thread-locals were destroyed, and counting
    // must never panic inside `alloc`.
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes as u64)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still counts: the caller still paid for an
        // allocator round-trip, which is what the ledger measures.
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[cfg(feature = "install")]
#[global_allocator]
static LEDGER_ALLOC: CountingAlloc = CountingAlloc;

/// Whether the counting allocator is installed as the global allocator in
/// this build (the `install` feature). When `false`, [`snapshot`] always
/// returns zeros.
#[must_use]
pub fn installed() -> bool {
    cfg!(feature = "install")
}

/// A point-in-time reading of this thread's allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Allocation events (alloc, alloc_zeroed, realloc calls) so far.
    pub events: u64,
    /// Bytes requested across those events.
    pub bytes: u64,
}

impl Snapshot {
    /// The counters accumulated since an `earlier` snapshot on the same
    /// thread. Wrapping, to match the wrapping counters.
    #[must_use]
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            events: self.events.wrapping_sub(earlier.events),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

/// Reads the current thread's allocation counters.
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot {
        events: ALLOC_EVENTS.try_with(Cell::get).unwrap_or(0),
        bytes: ALLOC_BYTES.try_with(Cell::get).unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_is_wrapping() {
        let a = Snapshot {
            events: u64::MAX,
            bytes: 100,
        };
        let b = Snapshot {
            events: 1,
            bytes: 150,
        };
        assert_eq!(
            b.since(a),
            Snapshot {
                events: 2,
                bytes: 50
            }
        );
    }

    #[test]
    fn counters_move_when_installed() {
        let before = snapshot();
        let v: Vec<u64> = (0..1024).collect();
        std::hint::black_box(&v);
        let after = snapshot();
        let delta = after.since(before);
        if installed() {
            assert!(delta.events >= 1, "an allocation must be counted");
            assert!(delta.bytes >= 8 * 1024, "bytes requested must be counted");
        } else {
            assert_eq!(delta, Snapshot::default());
        }
    }
}
