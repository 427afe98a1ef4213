//! Training scratch belongs to the thread, and results never depend on it.
//!
//! `RbmNetwork::train_flat` and `score_and_train_flat` borrow one scratch
//! `Workspace` per thread, shared by every network the thread trains. A
//! workspace holds no model state, so:
//!
//! * two networks of different shapes trained interleaved on one thread
//!   end bitwise equal to each trained alone on a thread of its own;
//! * a network moved to another thread mid-stream ends bitwise equal to
//!   one trained on a single thread;
//! * one caller-owned workspace scores any number of networks exactly as
//!   a fresh workspace does.

use rbm_im::network::{RbmNetwork, RbmNetworkConfig, Workspace};
use rbm_im_streams::generators::GaussianMixtureGenerator;
use rbm_im_streams::{Instance, StreamExt};

const BATCH: usize = 50;
const BATCHES: usize = 12;

/// One network's shape, seed and input.
struct Job {
    features: usize,
    classes: usize,
    config: RbmNetworkConfig,
    batches: Vec<(Vec<f64>, Vec<usize>)>,
}

impl Job {
    fn new(features: usize, classes: usize, seed: u64) -> Job {
        let mut stream = GaussianMixtureGenerator::balanced(features, classes, 1, seed);
        let batches = (0..BATCHES)
            .map(|_| {
                let mut flat = Vec::with_capacity(BATCH * features);
                let mut labels = Vec::with_capacity(BATCH);
                for instance in stream.take_instances(BATCH) {
                    flat.extend_from_slice(&instance.features);
                    labels.push(instance.class);
                }
                (flat, labels)
            })
            .collect();
        let config = RbmNetworkConfig { seed, gibbs_steps: 2, ..RbmNetworkConfig::default() };
        Job { features, classes, config, batches }
    }

    fn network(&self) -> RbmNetwork {
        RbmNetwork::new(self.features, self.classes, self.config)
    }

    /// Batch `b`: even batches run the fused score-and-train step, odd ones
    /// plain training, so both scratch users are covered. Returns what the
    /// step reported, as bits.
    fn step(&self, net: &mut RbmNetwork, b: usize) -> Vec<u64> {
        let (features, classes) = &self.batches[b];
        if b.is_multiple_of(2) {
            let mut errors = Vec::new();
            net.score_and_train_flat(features, classes, &mut errors);
            errors.iter().map(|e| e.map_or(u64::MAX, f64::to_bits)).collect()
        } else {
            vec![net.train_flat(features, classes).to_bits()]
        }
    }
}

/// Everything a network carries, in a form that compares bit for bit
/// (weights, momenta, biases, counts, ranges, RNG state, batch counter).
fn fingerprint(net: &RbmNetwork) -> String {
    format!("{:?}", net.snapshot_state())
}

/// Trains `job` from scratch on a fresh thread, so no other network has
/// touched that thread's scratch.
fn alone(job: &Job) -> (String, Vec<Vec<u64>>) {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut net = job.network();
                let reports = (0..BATCHES).map(|b| job.step(&mut net, b)).collect();
                (fingerprint(&net), reports)
            })
            .join()
            .expect("training thread")
    })
}

#[test]
fn networks_trained_interleaved_on_one_thread_match_each_trained_alone() {
    // Different shapes: the shared scratch is re-shaped on every switch.
    let small = Job::new(5, 3, 11);
    let large = Job::new(14, 6, 29);
    let (small_alone, small_reports) = alone(&small);
    let (large_alone, large_reports) = alone(&large);

    let mut a = small.network();
    let mut b = large.network();
    for batch in 0..BATCHES {
        assert_eq!(small.step(&mut a, batch), small_reports[batch], "small, batch {batch}");
        assert_eq!(large.step(&mut b, batch), large_reports[batch], "large, batch {batch}");
    }
    assert_eq!(fingerprint(&a), small_alone, "small network after interleaved training");
    assert_eq!(fingerprint(&b), large_alone, "large network after interleaved training");
}

#[test]
fn a_network_moved_between_threads_mid_stream_matches_one_thread() {
    let job = Job::new(9, 4, 47);
    let (expected, _) = alone(&job);

    // Warm this thread's scratch on another shape first, then train the
    // first half here and the second half on a fresh thread.
    let other = Job::new(3, 2, 5);
    let mut warm = other.network();
    other.step(&mut warm, 0);
    let mut net = job.network();
    for b in 0..BATCHES / 2 {
        job.step(&mut net, b);
    }
    let net = std::thread::scope(|scope| {
        scope
            .spawn(move || {
                for b in BATCHES / 2..BATCHES {
                    job.step(&mut net, b);
                }
                net
            })
            .join()
            .expect("second training thread")
    });
    assert_eq!(fingerprint(&net), expected, "network moved across threads mid-stream");
}

#[test]
fn one_workspace_scores_many_networks_like_a_fresh_one() {
    let a_job = Job::new(6, 3, 1);
    let b_job = Job::new(6, 3, 7);
    let (mut a, mut b) = (a_job.network(), b_job.network());
    for batch in 0..2 {
        a_job.step(&mut a, batch);
        b_job.step(&mut b, batch);
    }
    let probe = Instance::new(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 1);
    let mut shared = Workspace::default();
    let err_a = a.reconstruction_error_with(&mut shared, &probe);
    let err_b = b.reconstruction_error_with(&mut shared, &probe);
    assert!(err_a.is_finite() && err_b.is_finite());
    assert_eq!(
        err_a.to_bits(),
        a.reconstruction_error_with(&mut Workspace::default(), &probe).to_bits()
    );
    assert_eq!(
        err_b.to_bits(),
        b.reconstruction_error_with(&mut Workspace::default(), &probe).to_bits()
    );

    let (features, classes) = &a_job.batches[5];
    let (mut from_shared, mut from_fresh) = (Vec::new(), Vec::new());
    a.reconstruction_errors_flat_with(&mut shared, features, classes, &mut from_shared);
    a.reconstruction_errors_flat_with(
        &mut Workspace::default(),
        features,
        classes,
        &mut from_fresh,
    );
    assert_eq!(format!("{from_shared:?}"), format!("{from_fresh:?}"));
}
