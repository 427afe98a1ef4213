//! Runner metadata for recorded performance figures.
//!
//! [`runner_metadata`] describes the machine a figure was taken on (core
//! count, shard-pinning env, target). The repository benchmark
//! (`perfbench/`) prints it on its `meta: ` line and the chaos soak
//! (`examples/chaos_soak.rs`) embeds it in `BENCH_chaos.json`, so a "this
//! number was taken on 1 vCPU" caveat travels *with the data* instead of
//! living in a ROADMAP footnote.

#![warn(missing_docs)]

use serde::{Serialize, Value};

/// Machine-readable description of the benchmark runner, printed by
/// `perfbench` and embedded in `BENCH_chaos.json` under the `"runner"` key.
///
/// * `logical_cores` — what `std::thread::available_parallelism` reports;
///   the figure scaling claims must be read against (shard scaling cannot
///   manifest on one core);
/// * `multi_core` — convenience flag: `logical_cores >= 2`. Consumers
///   gating on scaling validity should check this, not parse prose;
/// * `shard_env` — the value of `RBM_SERVE_SHARDS` if the process was
///   pinned to specific shard counts, else `null`;
/// * `os` / `arch` — the compile-time target.
pub fn runner_metadata() -> Value {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    Value::object(vec![
        ("logical_cores", cores.serialize_value()),
        ("multi_core", (cores >= 2).serialize_value()),
        ("shard_env", std::env::var("RBM_SERVE_SHARDS").ok().serialize_value()),
        ("os", std::env::consts::OS.serialize_value()),
        ("arch", std::env::consts::ARCH.serialize_value()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_metadata_is_well_formed() {
        let meta = runner_metadata();
        let cores: usize = meta.field("logical_cores").unwrap();
        assert!(cores >= 1);
        let multi: bool = meta.field("multi_core").unwrap();
        assert_eq!(multi, cores >= 2);
        assert!(meta.get("shard_env").is_some());
        let json = serde_json::to_string(&meta).unwrap();
        assert!(json.contains("logical_cores"));
    }
}
