//! A counting wrapper around the system allocator: live and peak heap
//! bytes, read exactly, independent of page granularity and of how the
//! allocator reuses freed pages.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Live heap bytes (allocated minus freed) since process start. A
/// statistic that publishes no other data, hence `Relaxed`.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The most [`LIVE`] has ever been.
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Counts `delta` more live bytes, raising the peak when it grows.
fn grow(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// The process allocator: [`System`] plus the [`LIVE`] counter.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// update touches no memory the allocation hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Live heap bytes right now.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// The most heap bytes ever live at once in this process.
pub fn peak_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result with the heap bytes it left live.
pub fn retained<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = live_bytes();
    let value = f();
    (value, live_bytes() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retained_counts_what_survives_and_not_what_is_freed() {
        let (kept, bytes) = retained(|| {
            let scratch = vec![0u8; 1 << 16];
            drop(scratch);
            vec![1u64; 1000]
        });
        assert_eq!(kept.len(), 1000);
        // Other test threads allocate concurrently, so allow slack.
        assert!((4_000..60_000).contains(&bytes), "{bytes}");
        assert!(peak_bytes() >= live_bytes() + (1 << 16) - 60_000);
    }
}
