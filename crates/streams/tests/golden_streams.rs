//! Golden digest of the generated streams themselves.
//!
//! Each stream contributes one line, `name seed n fnv64`: the FNV-1a 64-bit
//! hash of its first `n` instances, taken in order over each instance's
//! class, index and feature bit patterns (all as little-endian `u64`s). The
//! lines are compared against the checked-in `golden/stream_digest.txt`, so
//! a change to any generator, drift operator or imbalance operator that
//! moves a single bit of a stream fails here. On a mismatch the full actual
//! digest is printed; a deliberate update is a copy of that output into the
//! golden file.
//!
//! Three sets are covered:
//! * all 24 Table I benchmarks at the harness golden digest's build
//!   configuration (`scale_divisor 10_000`, so every stream sits at its
//!   2 000-instance floor), seeds 1 and 7;
//! * RBF5, RBF10 and RBF20 at `scale_divisor 80` (12 500-instance feeds);
//! * Scenarios 1–3 at their default configuration (Scenario 3 with two
//!   drifting classes).

use rbm_im_streams::registry::{all_benchmarks, benchmark_by_name, BuildConfig};
use rbm_im_streams::scenarios::{scenario1, scenario2, scenario3, ScenarioConfig};
use rbm_im_streams::DataStream;

const GOLDEN: &str = include_str!("golden/stream_digest.txt");

/// Instances hashed per `scale_divisor 80` RBF stream.
const FEED_LENGTH: u64 = 12_500;

struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes the first `n` instances of `stream` into one digest line.
fn digest_line(name: &str, seed: u64, n: u64, stream: &mut dyn DataStream) -> String {
    let mut hash = Fnv64::new();
    for i in 0..n {
        let inst = stream.next_instance().unwrap_or_else(|| panic!("{name} ended at {i} < {n}"));
        hash.write_u64(inst.class as u64);
        hash.write_u64(inst.index);
        for x in &inst.features {
            hash.write_u64(x.to_bits());
        }
    }
    format!("{name} {seed} {n} {:016x}\n", hash.0)
}

#[test]
fn generated_streams_match_the_golden_stream_digest() {
    let mut actual = String::new();

    let benchmarks = all_benchmarks();
    assert_eq!(benchmarks.len(), 24, "digest covers the full Table I set");
    for seed in [1, 7] {
        let config = BuildConfig { seed, scale_divisor: 10_000, ..Default::default() };
        for spec in &benchmarks {
            let n = spec.scaled_instances(&config);
            actual.push_str(&digest_line(&spec.name, seed, n, &mut *spec.build(&config)));
        }
    }

    for name in ["RBF5", "RBF10", "RBF20"] {
        let spec = benchmark_by_name(name).expect("a Table I benchmark");
        let config = BuildConfig { seed: 1, scale_divisor: 80, ..Default::default() };
        let label = format!("{name}/scale80");
        actual.push_str(&digest_line(&label, 1, FEED_LENGTH, &mut *spec.build(&config)));
    }

    let config = ScenarioConfig::default();
    let scenarios = [
        ("scenario1", scenario1(&config)),
        ("scenario2", scenario2(&config)),
        ("scenario3-2", scenario3(&config, 2)),
    ];
    for (name, mut scenario) in scenarios {
        let stream = &mut *scenario.stream;
        actual.push_str(&digest_line(name, config.seed, config.length, stream));
    }

    assert!(
        actual == GOLDEN,
        "stream digest differs from golden/stream_digest.txt; full actual digest:\n{actual}"
    );
}
