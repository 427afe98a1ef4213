//! Open, string-keyed detector registry.
//!
//! A detector is described by a serde-friendly [`DetectorSpec`] — a name
//! plus parameters (numeric hyper-parameters or word-valued flags) — and
//! resolved against a [`DetectorRegistry`] of factories. Anything
//! implementing `DriftDetector` can be registered under a new name without
//! touching this crate, and tuned variants are one-liners:
//!
//! ```
//! use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
//!
//! let registry = DetectorRegistry::with_defaults();
//! let spec = DetectorSpec::parse("adwin(delta=0.01)").unwrap();
//! let detector = registry.build(&spec, 10, 3).unwrap();
//! assert_eq!(detector.name(), "ADWIN");
//! ```
//!
//! The trainable RBM-IM detector exposes its full hyper-parameter surface
//! through the same grammar (under both the `rbm-im` name and the compact
//! `rbm` alias), so serving attach calls and experiment configs tune it
//! without code changes:
//!
//! ```
//! use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec, ParamValue};
//!
//! let registry = DetectorRegistry::with_defaults();
//! let spec = DetectorSpec::parse("rbm(hidden=60,minibatch=50,seed=7)").unwrap();
//! assert_eq!(spec.params.get("hidden"), Some(&ParamValue::Number(60.0)));
//! let detector = registry.build(&spec, 10, 4).unwrap();
//! assert_eq!(detector.name(), "RBM-IM");
//!
//! // Flags take identifier words, not just numbers:
//! let spec = DetectorSpec::parse("rbm(timing=on, hidden=60)").unwrap();
//! let detector = registry.build(&spec, 10, 4).unwrap();
//! assert_eq!(detector.name(), "RBM-IM");
//!
//! // Infrastructure can ask which parameters a factory takes — this is
//! // how the serving layer decides to inject per-stream `seed`s.
//! assert!(registry.accepts_param("rbm", "seed"));
//! assert!(!registry.accepts_param("adwin", "seed"));
//! ```
//!
//! The experiments name their detectors the same way;
//! [`paper_detectors`] is the paper's line-up.

use rbm_im::network::RbmNetworkConfig;
use rbm_im::{RbmIm, RbmImConfig};
use rbm_im_detectors::ddm_oci::DdmOciConfig;
use rbm_im_detectors::fhddm::FhddmConfig;
use rbm_im_detectors::perfsim::PerfSimConfig;
use rbm_im_detectors::{Adwin, DdmOci, DriftDetector, Fhddm, PerfSim, Rddm, Wstd};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// A single parameter value in a detector spec: a number (the common case —
/// hyper-parameters are numeric) or a bare identifier word for flags like
/// `timing=on`. Words are restricted to identifier shape
/// (`[A-Za-z][A-Za-z0-9_-]*`) so spec strings stay unambiguous.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Numeric value (`delta=0.01`, `hidden=60`).
    Number(f64),
    /// Identifier word (`timing=on`).
    Word(String),
}

impl ParamValue {
    /// The numeric value, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            ParamValue::Number(n) => Some(*n),
            ParamValue::Word(_) => None,
        }
    }

    /// The word, if this is an identifier word.
    pub fn as_word(&self) -> Option<&str> {
        match self {
            ParamValue::Number(_) => None,
            ParamValue::Word(w) => Some(w.as_str()),
        }
    }

    /// Whether `text` has identifier shape — an ASCII letter followed by
    /// letters, digits, `_` or `-`. Anything else is neither a number nor a
    /// word and is rejected at parse time.
    fn is_word(text: &str) -> bool {
        let mut chars = text.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphabetic())
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Number(v)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Word(v.to_string())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Word(v)
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Number(n) => write!(f, "{n}"),
            ParamValue::Word(w) => write!(f, "{w}"),
        }
    }
}

// Numbers serialize as JSON numbers and words as JSON strings, so spec files
// read naturally (`{"timing": "on", "hidden": 60}`). Deserialization
// tries the numeric shape first; note `f64` itself round-trips non-finite
// values as the strings `"inf"`/`"-inf"`/`"NaN"`, which therefore decode as
// numbers — exactly matching what `DetectorSpec::parse` does with those
// tokens (Rust's float parser accepts them).
impl Serialize for ParamValue {
    fn serialize_value(&self) -> serde::Value {
        match self {
            ParamValue::Number(n) => n.serialize_value(),
            ParamValue::Word(w) => w.serialize_value(),
        }
    }
}

impl Deserialize for ParamValue {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        if let Ok(n) = f64::deserialize_value(value) {
            return Ok(ParamValue::Number(n));
        }
        let word = String::deserialize_value(value)?;
        if ParamValue::is_word(&word) {
            Ok(ParamValue::Word(word))
        } else {
            Err(serde::Error::msg(format!("`{word}` is not an identifier-shaped param word")))
        }
    }
}

/// A detector described by name and parameters — the unit the registry
/// resolves and the experiment grid iterates over. Serializes to plain JSON
/// (`{"name": "adwin", "params": {"delta": 0.01}}`) so experiment
/// configurations can live in files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorSpec {
    /// Registry key (case-insensitive; display capitalization is preserved).
    pub name: String,
    /// Parameter overrides (numeric hyper-parameters or word-valued
    /// flags); anything a factory does not understand is rejected at build
    /// time.
    pub params: BTreeMap<String, ParamValue>,
}

impl DetectorSpec {
    /// Spec with no parameter overrides.
    pub fn new(name: impl Into<String>) -> Self {
        DetectorSpec { name: name.into(), params: BTreeMap::new() }
    }

    /// Adds one parameter override (builder style). Accepts `f64` for
    /// numeric parameters and `&str`/`String` for word-valued knobs.
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Parses the compact `name(key=value, key=value)` form.
    ///
    /// The grammar is `name` or `name(params)` where `params` is a
    /// comma-separated list of `key=value` pairs; a value is a number or an
    /// identifier word (`timing=on`). Whitespace around names, keys and
    /// values is ignored, and a trailing comma is tolerated. Parameter
    /// *validation* happens at build time against the factory's declared
    /// set, not here — so `adwin(delta=two)` parses but fails to build.
    ///
    /// ```
    /// use rbm_im_harness::registry::{DetectorSpec, ParamValue};
    ///
    /// let spec = DetectorSpec::parse("rbm(hidden=60, minibatch=50, seed=7)").unwrap();
    /// assert_eq!(spec.name, "rbm");
    /// assert_eq!(spec.params.get("minibatch"), Some(&ParamValue::Number(50.0)));
    /// assert_eq!(spec.label(), "rbm(hidden=60, minibatch=50, seed=7)");
    ///
    /// let spec = DetectorSpec::parse("rbm(timing=on, hidden=60)").unwrap();
    /// assert_eq!(spec.params.get("timing"), Some(&ParamValue::Word("on".into())));
    ///
    /// assert_eq!(DetectorSpec::parse("rddm").unwrap().params.len(), 0);
    /// assert!(DetectorSpec::parse("adwin(delta=").is_err());
    /// assert!(DetectorSpec::parse("adwin(delta=2..5)").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<Self, RegistryError> {
        let text = text.trim();
        let Some(open) = text.find('(') else {
            if text.is_empty() {
                return Err(RegistryError::InvalidSpec("empty detector spec".into()));
            }
            return Ok(DetectorSpec::new(text));
        };
        let name = text[..open].trim();
        if name.is_empty() {
            return Err(RegistryError::InvalidSpec(format!("missing detector name in `{text}`")));
        }
        let Some(rest) = text[open + 1..].strip_suffix(')') else {
            return Err(RegistryError::InvalidSpec(format!("unbalanced parentheses in `{text}`")));
        };
        let mut spec = DetectorSpec::new(name);
        for pair in rest.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((key, value)) = pair.split_once('=') else {
                return Err(RegistryError::InvalidSpec(format!(
                    "expected `key=value`, found `{pair}` in `{text}`"
                )));
            };
            let value = value.trim();
            let value = if let Ok(n) = value.parse::<f64>() {
                ParamValue::Number(n)
            } else if ParamValue::is_word(value) {
                ParamValue::Word(value.to_string())
            } else {
                return Err(RegistryError::InvalidSpec(format!(
                    "value `{value}` in `{text}` is neither a number nor an identifier word"
                )));
            };
            spec.params.insert(key.trim().to_string(), value);
        }
        Ok(spec)
    }

    /// Canonical display label: the bare name, or `name(key=value, …)` when
    /// parameters are overridden. Used as the detector column label for grid
    /// results.
    pub fn label(&self) -> String {
        if self.params.is_empty() {
            self.name.clone()
        } else {
            let params: Vec<String> = self.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{}({})", self.name, params.join(", "))
        }
    }

    /// Normalized registry key.
    fn key(&self) -> String {
        normalize_key(&self.name)
    }
}

/// The six detectors compared in the paper's Table III, in its column
/// order. Each is spelled as in the paper, so its [`DetectorSpec::label`] —
/// the detector label of every grid result — reads as the tables do.
pub fn paper_detectors() -> Vec<DetectorSpec> {
    ["WSTD", "RDDM", "FHDDM", "PerfSim", "DDM-OCI", "RBM-IM"].map(DetectorSpec::new).into()
}

fn normalize_key(name: &str) -> String {
    name.trim().to_ascii_lowercase()
}

/// Errors raised by registry operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// The spec string could not be parsed.
    InvalidSpec(String),
    /// No factory is registered under the requested name.
    UnknownDetector {
        /// The name that failed to resolve.
        name: String,
        /// Every registered key, for the error message.
        known: Vec<String>,
    },
    /// A parameter the factory does not understand (or cannot accept).
    InvalidParam {
        /// Detector being built.
        detector: String,
        /// Explanation.
        message: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::InvalidSpec(msg) => write!(f, "invalid detector spec: {msg}"),
            RegistryError::UnknownDetector { name, known } => {
                write!(f, "unknown detector `{name}` (registered: {})", known.join(", "))
            }
            RegistryError::InvalidParam { detector, message } => {
                write!(f, "invalid parameter for `{detector}`: {message}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Parameter view handed to factories: typed access plus rejection of
/// anything outside the factory's declared parameter set.
pub struct Params<'a> {
    detector: &'a str,
    map: &'a BTreeMap<String, ParamValue>,
}

impl<'a> Params<'a> {
    /// Validates that every provided key is in `allowed`, then exposes the
    /// map for typed reads.
    pub fn checked(
        detector: &'a str,
        map: &'a BTreeMap<String, ParamValue>,
        allowed: &[&str],
    ) -> Result<Self, RegistryError> {
        for key in map.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(RegistryError::InvalidParam {
                    detector: detector.to_string(),
                    message: format!(
                        "unknown parameter `{key}` (accepted: {})",
                        if allowed.is_empty() { "none".to_string() } else { allowed.join(", ") }
                    ),
                });
            }
        }
        Ok(Params { detector, map })
    }

    fn invalid(&self, message: String) -> RegistryError {
        RegistryError::InvalidParam { detector: self.detector.to_string(), message }
    }

    /// The parameter as a number, or a default; word values are rejected.
    pub fn get_or(&self, key: &str, default: f64) -> Result<f64, RegistryError> {
        match self.map.get(key) {
            None => Ok(default),
            Some(ParamValue::Number(v)) => Ok(*v),
            Some(ParamValue::Word(w)) => {
                Err(self.invalid(format!("`{key}` must be numeric, got `{w}`")))
            }
        }
    }

    /// The parameter as a non-negative integer (zero allowed — seeds and
    /// warm-up counts are legitimately 0), or a default. Only a *provided*
    /// value is range-checked; the default passes through untouched (some
    /// factories use out-of-range defaults as "not set" sentinels).
    pub fn get_u64_or(&self, key: &str, default: u64) -> Result<u64, RegistryError> {
        if !self.map.contains_key(key) {
            return Ok(default);
        }
        match self.get_or(key, 0.0)? {
            v if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Ok(v as u64),
            v => Err(self.invalid(format!("`{key}` must be a non-negative integer, got {v}"))),
        }
    }

    /// The parameter as a positive integer, or a default (not range-checked,
    /// like [`Params::get_u64_or`]).
    pub fn get_usize_or(&self, key: &str, default: usize) -> Result<usize, RegistryError> {
        if !self.map.contains_key(key) {
            return Ok(default);
        }
        match self.get_or(key, 0.0)? {
            v if v >= 1.0 && v.fract() == 0.0 && v <= usize::MAX as f64 => Ok(v as usize),
            v => Err(self.invalid(format!("`{key}` must be a positive integer, got {v}"))),
        }
    }

    /// The parameter as an on/off flag, or a default. Accepts the words
    /// `on`/`off`/`true`/`false` and the numbers `1`/`0`.
    pub fn get_flag_or(&self, key: &str, default: bool) -> Result<bool, RegistryError> {
        match self.map.get(key) {
            None => Ok(default),
            Some(ParamValue::Word(w)) => match w.as_str() {
                "on" | "true" => Ok(true),
                "off" | "false" => Ok(false),
                other => Err(self.invalid(format!("`{key}` must be on|off|1|0, got `{other}`"))),
            },
            Some(ParamValue::Number(n)) if *n == 1.0 => Ok(true),
            Some(ParamValue::Number(n)) if *n == 0.0 => Ok(false),
            Some(ParamValue::Number(n)) => {
                Err(self.invalid(format!("`{key}` must be on|off|1|0, got {n}")))
            }
        }
    }
}

/// Factory signature: `(spec params, num_features, num_classes) -> detector`.
pub type DetectorFactory = Box<
    dyn Fn(&Params<'_>, usize, usize) -> Result<Box<dyn DriftDetector + Send>, RegistryError>
        + Send
        + Sync,
>;

struct RegisteredDetector {
    factory: DetectorFactory,
    allowed_params: Vec<&'static str>,
}

/// String-keyed map from detector names to factories.
pub struct DetectorRegistry {
    entries: BTreeMap<String, RegisteredDetector>,
}

impl DetectorRegistry {
    /// An empty registry (useful for fully custom detector sets).
    pub fn empty() -> Self {
        DetectorRegistry { entries: BTreeMap::new() }
    }

    /// The registry with every detector this workspace ships: the five
    /// reference detectors of Table III, ADWIN and RBM-IM, under their
    /// lowercase table names (`"wstd"`, `"rddm"`, `"fhddm"`, `"perfsim"`,
    /// `"ddm-oci"`, `"adwin"` and `"rbm-im"`, also under the compact alias
    /// `"rbm"`).
    pub fn with_defaults() -> Self {
        let mut registry = DetectorRegistry::empty();
        registry.register("wstd", &[], |_, _, _| Ok(Box::new(Wstd::new())));
        registry.register("rddm", &[], |_, _, _| Ok(Box::new(Rddm::new())));
        registry.register("fhddm", &["window_size", "delta"], |p, _, _| {
            let defaults = FhddmConfig::default();
            Ok(Box::new(Fhddm::with_config(FhddmConfig {
                window_size: p.get_usize_or("window_size", defaults.window_size)?,
                delta: p.get_or("delta", defaults.delta)?,
            })))
        });
        registry.register("perfsim", &[], |_, _, classes| {
            Ok(Box::new(PerfSim::new(PerfSimConfig::for_classes(classes))))
        });
        registry.register("ddm-oci", &[], |_, _, classes| {
            Ok(Box::new(DdmOci::new(DdmOciConfig::for_classes(classes))))
        });
        // RBM-IM accepts the full hyper-parameter surface of Tab. II in
        // spec strings, so served streams attach tuned detectors without
        // code changes: `"rbm(hidden=60,minibatch=50)"` is a valid spec.
        // `minibatch` is a compact alias of `mini_batch`; `hidden` is the
        // absolute hidden-unit count (overrides `hidden_fraction`); `seed`
        // reseeds the network RNG (the serving layer injects a per-stream
        // seed here in deterministic mode). `timing=on|off|1|0` is an
        // observation flag, not a hyper-parameter: it opts into per-kernel
        // CD-k timing (`rbm_kernel_seconds{kernel}` in the global metrics
        // registry; results are untouched).
        const RBM_PARAMS: &[&str] = &[
            "mini_batch",
            "minibatch",
            "hidden_fraction",
            "hidden",
            "learning_rate",
            "gibbs_steps",
            "persistence",
            "warmup",
            "seed",
            "timing",
        ];
        let rbm_factory = |p: &Params<'_>,
                           features: usize,
                           classes: usize|
         -> Result<Box<dyn DriftDetector + Send>, RegistryError> {
            let base = RbmImConfig::default();
            let mini_batch_alias = p.get_usize_or("minibatch", base.mini_batch_size)?;
            let hidden_units = match p.get_usize_or("hidden", 0)? {
                0 => base.network.hidden_units,
                n => Some(n),
            };
            let config = RbmImConfig {
                mini_batch_size: p.get_usize_or("mini_batch", mini_batch_alias)?,
                persistence: p.get_usize_or("persistence", base.persistence as usize)? as u32,
                warmup_batches: p.get_u64_or("warmup", base.warmup_batches)?,
                network: RbmNetworkConfig {
                    hidden_fraction: p.get_or("hidden_fraction", base.network.hidden_fraction)?,
                    hidden_units,
                    learning_rate: p.get_or("learning_rate", base.network.learning_rate)?,
                    gibbs_steps: p.get_usize_or("gibbs_steps", base.network.gibbs_steps)?,
                    seed: p.get_u64_or("seed", base.network.seed)?,
                    kernel_timing: p.get_flag_or("timing", base.network.kernel_timing)?,
                    ..base.network
                },
                ..base
            };
            Ok(Box::new(RbmIm::new(features, classes, config)))
        };
        registry.register("rbm-im", RBM_PARAMS, rbm_factory);
        // Compact alias used by serving attach specs.
        registry.register("rbm", RBM_PARAMS, rbm_factory);
        registry.register("adwin", &["delta"], |p, _, _| {
            Ok(Box::new(Adwin::new(p.get_or("delta", 0.002)?)))
        });
        registry
    }

    /// The process-wide default registry ([`DetectorRegistry::with_defaults`],
    /// built once). The experiments and the no-registry pipeline paths
    /// resolve against this.
    pub fn global() -> &'static DetectorRegistry {
        static GLOBAL: OnceLock<DetectorRegistry> = OnceLock::new();
        GLOBAL.get_or_init(DetectorRegistry::with_defaults)
    }

    /// Registers (or replaces) a factory under `name`. `allowed_params`
    /// documents — and enforces — the parameter keys the factory accepts.
    pub fn register<F>(&mut self, name: &str, allowed_params: &[&'static str], factory: F)
    where
        F: Fn(&Params<'_>, usize, usize) -> Result<Box<dyn DriftDetector + Send>, RegistryError>
            + Send
            + Sync
            + 'static,
    {
        self.entries.insert(
            normalize_key(name),
            RegisteredDetector {
                factory: Box::new(factory),
                allowed_params: allowed_params.to_vec(),
            },
        );
    }

    /// Whether a factory is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(&normalize_key(name))
    }

    /// Whether the factory registered under `name` declares `param` among
    /// its accepted parameter keys (`false` for unknown detectors). Lets
    /// infrastructure decide parameter injection generically — e.g. the
    /// serving layer injects a per-stream `seed` into any spec whose
    /// factory accepts one, without hard-coding detector names.
    pub fn accepts_param(&self, name: &str, param: &str) -> bool {
        self.entries
            .get(&normalize_key(name))
            .is_some_and(|entry| entry.allowed_params.contains(&param))
    }

    /// Registered keys, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Instantiates the detector described by `spec` for a stream schema.
    pub fn build(
        &self,
        spec: &DetectorSpec,
        num_features: usize,
        num_classes: usize,
    ) -> Result<Box<dyn DriftDetector + Send>, RegistryError> {
        let (factory, params) = self.resolve(spec)?;
        factory(&params, num_features, num_classes)
    }

    /// Checks what [`DetectorRegistry::build`] can check before a stream
    /// schema is known: `spec` names a registered detector and passes only
    /// parameter keys its factory accepts.
    pub(crate) fn check(&self, spec: &DetectorSpec) -> Result<(), RegistryError> {
        self.resolve(spec).map(|_| ())
    }

    fn resolve<'s>(
        &'s self,
        spec: &'s DetectorSpec,
    ) -> Result<(&'s DetectorFactory, Params<'s>), RegistryError> {
        let entry = self.entries.get(&spec.key()).ok_or_else(|| {
            RegistryError::UnknownDetector { name: spec.name.clone(), known: self.names() }
        })?;
        let params = Params::checked(&spec.name, &spec.params, &entry.allowed_params)?;
        Ok((&entry.factory, params))
    }
}

impl fmt::Debug for DetectorRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectorRegistry").field("names", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbm_im_detectors::Observation;

    #[test]
    fn default_registry_builds_every_paper_detector() {
        let registry = DetectorRegistry::with_defaults();
        // 6 reference detectors + RBM-IM + the `rbm` alias.
        assert_eq!(registry.names().len(), 8);
        let features = vec![0.1, 0.2, 0.3];
        for name in registry.names() {
            let spec = DetectorSpec::new(&name);
            let mut detector = registry.build(&spec, 3, 3).unwrap();
            for i in 0..60usize {
                let obs = Observation::new(&features, i % 3, (i + 1) % 3);
                detector.update(&obs);
            }
        }
    }

    #[test]
    fn paper_detector_list_matches_table_two() {
        let labels: Vec<String> = paper_detectors().iter().map(DetectorSpec::label).collect();
        assert_eq!(labels, ["WSTD", "RDDM", "FHDDM", "PerfSim", "DDM-OCI", "RBM-IM"]);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let registry = DetectorRegistry::with_defaults();
        assert!(registry.contains("ADWIN"));
        assert!(registry.contains("Rbm-Im"));
        let detector = registry.build(&DetectorSpec::new("RBM-IM"), 4, 2).unwrap();
        assert_eq!(detector.name(), "RBM-IM");
    }

    #[test]
    fn tuned_variants_parse_and_build() {
        let registry = DetectorRegistry::with_defaults();
        let spec = DetectorSpec::parse("adwin(delta=0.01)").unwrap();
        assert_eq!(spec.name, "adwin");
        assert_eq!(spec.params.get("delta"), Some(&ParamValue::Number(0.01)));
        assert_eq!(spec.label(), "adwin(delta=0.01)");
        registry.build(&spec, 5, 2).unwrap();

        let spec = DetectorSpec::parse("rbm-im(mini_batch=25, learning_rate=0.05)").unwrap();
        let detector = registry.build(&spec, 5, 2).unwrap();
        assert_eq!(detector.name(), "RBM-IM");
    }

    #[test]
    fn rbm_hyper_parameters_parse_in_spec_strings() {
        use rbm_im::RbmIm;

        let registry = DetectorRegistry::with_defaults();
        // The compact alias plus absolute hidden count and minibatch alias.
        let spec = DetectorSpec::parse("rbm(hidden=60, minibatch=50, seed=7)").unwrap();
        let mut detector = registry.build(&spec, 10, 3).unwrap();
        assert_eq!(detector.name(), "RBM-IM");
        let rbm = detector
            .as_any_mut()
            .expect("RBM-IM opts into downcasting")
            .downcast_mut::<RbmIm>()
            .expect("factory builds a concrete RbmIm");
        assert_eq!(rbm.network().num_hidden(), 60, "hidden= is the absolute unit count");

        // `hidden` overrides `hidden_fraction`; without it the fraction rules.
        let spec = DetectorSpec::parse("rbm-im(hidden_fraction=0.5)").unwrap();
        let mut detector = registry.build(&spec, 10, 3).unwrap();
        let rbm = detector.as_any_mut().unwrap().downcast_mut::<RbmIm>().expect("concrete RbmIm");
        assert_eq!(rbm.network().num_hidden(), 5);

        // Seeds decorrelate detectors deterministically: same seed ⇒ same
        // initial weights, different seed ⇒ different weights.
        let build = |seed: u64| {
            let spec = DetectorSpec::new("rbm").with_param("seed", seed as f64);
            let mut boxed = registry.build(&spec, 6, 2).unwrap();
            let w = boxed
                .as_any_mut()
                .unwrap()
                .downcast_mut::<RbmIm>()
                .unwrap()
                .network()
                .w()
                .as_slice()
                .to_vec();
            w
        };
        assert_eq!(build(5), build(5));
        assert_ne!(build(5), build(6));

        // The registry advertises which parameters a factory takes.
        assert!(registry.accepts_param("rbm", "seed"));
        assert!(registry.accepts_param("RBM-IM", "minibatch"));
        assert!(!registry.accepts_param("adwin", "seed"));
        assert!(!registry.accepts_param("nope", "seed"));

        // Seeds and warm-ups are validated like every other integer param:
        // negative or fractional values are rejected, zero is legal.
        for bad in ["rbm(seed=-1)", "rbm(seed=2.7)", "rbm(warmup=-3)"] {
            let err = registry
                .build(&DetectorSpec::parse(bad).unwrap(), 6, 2)
                .err()
                .expect("build must fail");
            assert!(matches!(err, RegistryError::InvalidParam { .. }), "{bad}: {err}");
        }
        registry.build(&DetectorSpec::parse("rbm(seed=0, warmup=0)").unwrap(), 6, 2).unwrap();
    }

    #[test]
    fn unknown_names_and_params_are_rejected() {
        let registry = DetectorRegistry::with_defaults();
        let err =
            registry.build(&DetectorSpec::new("made-up"), 4, 2).err().expect("build must fail");
        assert!(matches!(err, RegistryError::UnknownDetector { .. }));
        let err = registry
            .build(&DetectorSpec::new("adwin").with_param("window", 7.0), 4, 2)
            .err()
            .expect("build must fail");
        assert!(matches!(err, RegistryError::InvalidParam { .. }));
        let err = registry
            .build(&DetectorSpec::new("rbm-im").with_param("mini_batch", 12.5), 4, 2)
            .err()
            .expect("build must fail");
        assert!(matches!(err, RegistryError::InvalidParam { .. }));
        // The kernel execution knobs are gone; naming one is an unknown
        // parameter, and the error lists what the factory does accept.
        for gone in ["rbm(parallel=on)", "rbm(threads=2)", "rbm(fastmath=on)"] {
            let err = registry
                .build(&DetectorSpec::parse(gone).unwrap(), 4, 2)
                .err()
                .expect("build must fail");
            let RegistryError::InvalidParam { message, .. } = &err else {
                panic!("{gone}: expected InvalidParam, got {err}");
            };
            assert!(message.contains("accepted: mini_batch,"), "{gone}: {message}");
            assert!(message.ends_with("seed, timing)"), "{gone}: {message}");
        }
        // A word the `timing` flag does not know is rejected too.
        let err = registry
            .build(&DetectorSpec::parse("rbm(timing=maybe)").unwrap(), 4, 2)
            .err()
            .expect("build must fail");
        assert!(matches!(err, RegistryError::InvalidParam { .. }), "{err}");
    }

    #[test]
    fn custom_detectors_register_without_touching_the_harness() {
        let mut registry = DetectorRegistry::with_defaults();
        registry.register("tuned-adwin", &["delta"], |p, _, _| {
            Ok(Box::new(Adwin::new(p.get_or("delta", 0.01)?)))
        });
        assert!(registry.contains("tuned-adwin"));
        registry.build(&DetectorSpec::new("tuned-adwin"), 4, 2).unwrap();
    }

    #[test]
    fn spec_parse_error_paths() {
        assert!(DetectorSpec::parse("").is_err());
        assert!(DetectorSpec::parse("adwin(delta=").is_err());
        assert!(DetectorSpec::parse("adwin(delta)").is_err());
        assert!(DetectorSpec::parse("(delta=1)").is_err());
        // Values must be numbers or identifier words; anything else is a
        // parse error (words that a factory rejects fail later, at build).
        assert!(DetectorSpec::parse("adwin(delta=2..5)").is_err());
        assert!(DetectorSpec::parse("adwin(delta=a b)").is_err());
        assert!(DetectorSpec::parse("rbm(timing=-on)").is_err());
        assert_eq!(DetectorSpec::parse("  rddm  ").unwrap().name, "rddm");
    }

    #[test]
    fn word_values_parse_but_numeric_params_reject_them_at_build() {
        let registry = DetectorRegistry::with_defaults();
        // `delta=two` is grammatically fine now that words exist…
        let spec = DetectorSpec::parse("adwin(delta=two)").unwrap();
        assert_eq!(spec.params.get("delta"), Some(&ParamValue::Word("two".into())));
        // …but ADWIN's `delta` is numeric, so the build rejects it.
        let err = registry.build(&spec, 4, 2).err().expect("build must fail");
        assert!(matches!(err, RegistryError::InvalidParam { .. }), "{err}");
        // Same for integer-typed RBM params.
        let err = registry
            .build(&DetectorSpec::parse("rbm(seed=alpha)").unwrap(), 4, 2)
            .err()
            .expect("build must fail");
        assert!(matches!(err, RegistryError::InvalidParam { .. }), "{err}");
    }

    #[test]
    fn spec_serde_round_trip() {
        let spec = DetectorSpec::new("adwin").with_param("delta", 0.01);
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: DetectorSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn word_params_round_trip_through_parse_serde_and_reparse() {
        // parse → serde → re-parse of a word-valued flag: the JSON form
        // carries words as strings, and the label re-parses to the same spec.
        let spec = DetectorSpec::parse("rbm(timing=on, hidden=60)").unwrap();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        assert!(json.contains("\"on\""), "words serialize as JSON strings: {json}");
        assert!(json.contains("60"), "numbers stay numeric: {json}");
        let back: DetectorSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        let reparsed = DetectorSpec::parse(&back.label()).unwrap();
        assert_eq!(spec, reparsed);
    }
}
