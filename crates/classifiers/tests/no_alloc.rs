//! Enforces the classifier hot-path contract: once its buffers exist, the
//! perceptron tree scores (`predict_scores_into`) and learns (`learn`)
//! without touching the allocator, except on the instances that make a
//! leaf attempt a split (every `grace_period` instances per leaf; that
//! attempt allocates its per-class scratch once). A counting global
//! allocator measures the hot path directly; this file holds a single test
//! so no concurrent test can pollute the counter.
//!
//! To take split attempts out of the measured phase without giving up a
//! grown tree, a tree grown on the same stream is restored
//! onto one built with `max_depth: 0`, whose leaves never attempt a split:
//! instances still descend the learned split nodes into warm leaves.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rbm_im_classifiers::cspt::CsptConfig;
use rbm_im_classifiers::{CostSensitivePerceptronTree, OnlineClassifier};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::StreamExt;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the test thread's allocations are counted while this is set —
    /// libtest's harness threads allocate concurrently.
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

/// Grows a tree on an RBF stream of the given shape, moves it onto a tree
/// whose leaves never attempt a split, and counts the allocations of a
/// prequential pass (predict, then learn) over fresh instances.
fn measure(num_features: usize, num_classes: usize, label: &str) {
    let mut stream = RandomRbfGenerator::new(num_features, num_classes, 2, 0.0, 29);
    // A loose tie threshold lets the warm-up grow a few levels quickly.
    let growing = CsptConfig { tie_threshold: 0.5, ..CsptConfig::default() };
    let mut grown = CostSensitivePerceptronTree::with_config(num_features, num_classes, growing);
    for instance in stream.take_instances(6_000) {
        grown.learn(&instance);
    }
    assert!(grown.split_count() > 0, "{label}: the warm-up should grow the tree");

    let no_attempts = CsptConfig { max_depth: 0, ..CsptConfig::default() };
    let mut tree = CostSensitivePerceptronTree::with_config(num_features, num_classes, no_attempts);
    tree.restore_state(&grown.snapshot_state().expect("snapshot")).expect("restore");

    let instances = stream.take_instances(2_000);
    let mut scores = Vec::with_capacity(num_classes);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|flag| flag.set(true));
    for instance in &instances {
        tree.predict_scores_into(&instance.features, &mut scores);
        tree.learn(instance);
    }
    COUNTING.with(|flag| flag.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "{label}: predict + learn without a split attempt must not touch the allocator \
         ({} allocations over {} instances)",
        after - before,
        instances.len()
    );
    assert_eq!(scores.len(), num_classes);
    assert_eq!(tree.split_count(), grown.split_count());
}

#[test]
fn prequential_steps_without_split_attempts_do_not_allocate() {
    measure(20, 5, "RBF5 shape");
    measure(40, 10, "RBF10 shape");
}
