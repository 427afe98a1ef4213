//! Pins the evaluator's hot path: once the window is full,
//! `PrequentialEvaluator::record` performs **zero** heap allocations on
//! every instance that does not close a window. The instance that does
//! close one takes the periodic snapshot (a pmAUC sweep with its own sort
//! buffer) and is excluded. A counting global allocator measures the hot
//! path directly; this file holds a single test so no concurrent test can
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rbm_im_metrics::PrequentialEvaluator;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the test thread's allocations are counted while this is set —
    /// libtest's harness threads (result reporting, timers) allocate
    /// concurrently and must not pollute the measurement.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_here() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_here();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Deterministic (true, predicted, scores) for instance `i`, written into
/// the caller's score buffer.
fn fill(i: u64, scores: &mut [f64]) -> (usize, usize) {
    let num_classes = scores.len() as u64;
    let mut state = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for s in scores.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *s = (state >> 11) as f64 / (1u64 << 53) as f64;
    }
    ((i % num_classes) as usize, (state % num_classes) as usize)
}

/// Streams three windows past a full one and returns the allocations
/// counted on the non-boundary instances.
fn steady_state_allocations(num_classes: usize, window: usize) -> u64 {
    let mut evaluator = PrequentialEvaluator::new(num_classes, window);
    let mut scores = vec![0.0; num_classes];
    let mut counted = 0;
    for i in 0..4 * window as u64 {
        let (true_class, predicted) = fill(i, &mut scores);
        let count = i >= window as u64 && (i + 1) % window as u64 != 0;
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        COUNTING.with(|flag| flag.set(count));
        evaluator.record(true_class, predicted, &scores);
        COUNTING.with(|flag| flag.set(false));
        counted += ALLOCATIONS.load(Ordering::SeqCst) - before;
    }
    assert_eq!(evaluator.last_snapshot().map(|s| s.position), Some(4 * window as u64));
    counted
}

#[test]
fn steady_state_record_does_not_allocate() {
    // RBF5 and RBF10 shapes at the paper's W = 1000.
    for num_classes in [5, 10] {
        let allocations = steady_state_allocations(num_classes, 1000);
        assert_eq!(
            allocations, 0,
            "{num_classes} classes: record on a full window must not touch the allocator \
             ({allocations} allocations observed)"
        );
    }
}
