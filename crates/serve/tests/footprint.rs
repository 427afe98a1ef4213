//! Pins the hot-stream footprint with a count.
//!
//! A counting global allocator tracks each thread's live heap bytes. One
//! `RBF5` stepper on `rbm(minibatch=50)` and one on `adwin` are warmed on
//! 2,000 instances each (detector batch 50, metric window 1000), each on
//! a fresh thread. A stepper's footprint is the live-byte drop when it is
//! dropped; what stays live on the thread after that is the thread's RBM
//! training scratch, reported separately because one scratch serves every
//! stream a shard worker steps. Both counts repeat exactly, and each
//! stepper fits [`TierPolicy::APPROX_HOT_STREAM_BYTES`], the per-stream
//! estimate the tier plane sizes the hot tier with.
//!
//! One test per file: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rbm_im_harness::pipeline::RunConfig;
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_harness::stepper::PipelineStepper;
use rbm_im_serve::TierPolicy;
use rbm_im_streams::registry::{benchmark_by_name, BuildConfig};
use rbm_im_streams::{Instance, StreamExt, StreamSchema};

struct CountingAllocator;

thread_local! {
    /// Live heap bytes allocated minus freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const INSTANCES: usize = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Footprint {
    /// Live bytes freed by dropping the warmed stepper.
    stepper: i64,
    /// Live bytes left on the thread once the stepper is gone.
    thread_scratch: i64,
}

/// Warms a stepper for `spec` over `feed` on a fresh thread and counts.
fn measure(spec: &str, schema: &StreamSchema, feed: &[Instance]) -> Footprint {
    let spec = DetectorSpec::parse(spec).expect("spec parses");
    let run = RunConfig { detector_batch: 50, metric_window: 1000, ..RunConfig::default() };
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let start = live();
                let mut stepper =
                    PipelineStepper::from_spec(DetectorRegistry::global(), &spec, schema, run)
                        .expect("stepper builds");
                for instance in feed {
                    stepper.step(instance.clone(), &mut |_| {});
                }
                let warmed = live();
                drop(stepper);
                let after = live();
                Footprint { stepper: warmed - after, thread_scratch: after - start }
            })
            .join()
            .expect("measuring thread")
    })
}

#[test]
fn warmed_hot_streams_fit_the_tier_estimate() {
    let config = BuildConfig { seed: 7, scale_divisor: 500, n_drifts: 3, dynamic_imbalance: true };
    let mut stream = benchmark_by_name("RBF5").expect("RBF5 is a Table I benchmark").build(&config);
    let schema = stream.schema().clone();
    let feed = stream.take_instances(INSTANCES);
    assert_eq!(feed.len(), INSTANCES);

    // The first run initializes process-wide state (registries, lazily
    // built tables); only the repeat runs count.
    for spec in ["rbm(minibatch=50)", "adwin"] {
        measure(spec, &schema, &feed);
    }
    let rbm = measure("rbm(minibatch=50)", &schema, &feed);
    let adwin = measure("adwin", &schema, &feed);
    println!(
        "hot-stream footprint: rbm stepper {} B (thread scratch {} B), adwin stepper {} B \
         (thread scratch {} B)",
        rbm.stepper, rbm.thread_scratch, adwin.stepper, adwin.thread_scratch
    );

    assert_eq!(measure("rbm(minibatch=50)", &schema, &feed), rbm, "rbm counts repeat");
    assert_eq!(measure("adwin", &schema, &feed), adwin, "adwin counts repeat");
    assert!(rbm.thread_scratch > 0, "RBM training scratch lives on the thread");
    assert_eq!(adwin.thread_scratch, 0, "adwin leaves nothing on the thread");
    for (name, footprint) in [("rbm", rbm), ("adwin", adwin)] {
        assert!(
            footprint.stepper as u64 <= TierPolicy::APPROX_HOT_STREAM_BYTES,
            "{name} stepper holds {} B, above the {} B hot-stream estimate",
            footprint.stepper,
            TierPolicy::APPROX_HOT_STREAM_BYTES
        );
    }
}
