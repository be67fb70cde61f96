//! The estimator registry: many G functions served from one ingest path.
//!
//! The one-pass sketch's ingest path never evaluates its function — the
//! absorbed state is pure frequency structure (CountSketch counters, AMS
//! counters, reverse hints), and `g` enters only at query time inside the
//! per-level covers ([`OnePassGSumSketch::estimate_with`]) and at
//! checkpoint time as encoded parameters
//! ([`OnePassGSumSketch::save_with_params`]).  A [`SketchRegistry`]
//! exploits exactly that: it keeps one **substrate** sketch per distinct
//! [`GSumConfig`] (dimensions + seeds, the substrate key) and any number
//! of **estimators** — named [`DynG`] functions — on top of it.  Every
//! decoded batch is routed to each substrate exactly once, no matter how
//! many functions are registered; per-function estimates and per-function
//! checkpoint bytes come out bit-identical to a single-function sketch of
//! the same configuration replaying the same stream.
//!
//! The registry implements the full [`ServableSketch`]
//! contract, so a [`GsumServer`](crate::GsumServer) serves it unchanged:
//! `EST <function>` answers any registered estimator, `FUNCS` lists them,
//! and the registry state checkpoints as one versioned composite
//! ([`kind::SKETCH_REGISTRY`]).

use crate::ServableSketch;
use gsum_core::{GSumConfig, OnePassGSumSketch};
use gsum_gfunc::{DynFunction, DynG, FunctionCodec, GFunction};
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{MergeError, MergeableSketch, StreamSink, Update};
use std::fmt;
use std::io::{Read, Write};

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// A function with this name is already registered (names are the
    /// query keys of the `EST <function>` protocol, so they must be
    /// unique).
    DuplicateFunction(String),
    /// The configuration's domain differs from the registry's: one server
    /// ingests one wire stream, and wire headers declare a single domain.
    DomainMismatch {
        /// The domain every already-registered substrate serves.
        expected: u64,
        /// The domain the rejected configuration asked for.
        got: u64,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateFunction(name) => {
                write!(f, "function {name:?} is already registered")
            }
            RegistryError::DomainMismatch { expected, got } => write!(
                f,
                "registry serves domain {expected} but the configuration declares domain {got}"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One shared ingest substrate: a function-agnostic one-pass sketch plus
/// the configuration that is its dedup key.
#[derive(Debug, Clone)]
struct Substrate {
    config: GSumConfig,
    sketch: OnePassGSumSketch<DynG>,
}

/// One registered estimator: a named function bound to a substrate.
#[derive(Debug, Clone)]
struct Estimator {
    name: String,
    function: DynG,
    substrate: usize,
}

/// A set of named g-SUM estimators sharing ingest substrates — see the
/// module docs.  The first registered function is the **default**: the one
/// a bare `EST` query answers.
#[derive(Debug, Clone, Default)]
pub struct SketchRegistry {
    substrates: Vec<Substrate>,
    estimators: Vec<Estimator>,
}

impl SketchRegistry {
    /// An empty registry.  Register at least one function before serving —
    /// an empty registry estimates `0.0` over domain `0` and rejects every
    /// wire stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `function` under configuration `config` (the substrate
    /// seed is `config.seed`).  Returns the estimator's index; index 0 is
    /// the default estimator.
    ///
    /// Substrates dedup on the whole configuration: a second function
    /// registered with an identical `GSumConfig` (dimensions, backend,
    /// *and* seed) shares the first one's sketch, so ingest cost is per
    /// distinct configuration, not per function.
    pub fn register<F: DynFunction + 'static>(
        &mut self,
        function: F,
        config: &GSumConfig,
    ) -> Result<usize, RegistryError> {
        self.register_dyn(DynG::new(function), config)
    }

    /// [`register`](Self::register) for an already type-erased function.
    pub fn register_dyn(
        &mut self,
        function: DynG,
        config: &GSumConfig,
    ) -> Result<usize, RegistryError> {
        let name = function.name();
        if self.estimators.iter().any(|e| e.name == name) {
            return Err(RegistryError::DuplicateFunction(name));
        }
        if let Some(first) = self.substrates.first() {
            if first.config.domain != config.domain {
                return Err(RegistryError::DomainMismatch {
                    expected: first.config.domain,
                    got: config.domain,
                });
            }
        }
        let substrate = match self.substrates.iter().position(|s| s.config == *config) {
            Some(i) => i,
            None => {
                self.substrates.push(Substrate {
                    config: config.clone(),
                    sketch: OnePassGSumSketch::with_seed(function.clone(), config, config.seed),
                });
                self.substrates.len() - 1
            }
        };
        self.estimators.push(Estimator {
            name,
            function,
            substrate,
        });
        Ok(self.estimators.len() - 1)
    }

    /// Number of registered estimators.
    pub fn len(&self) -> usize {
        self.estimators.len()
    }

    /// Whether no function is registered yet.
    pub fn is_empty(&self) -> bool {
        self.estimators.is_empty()
    }

    /// Number of distinct ingest substrates backing the estimators (`≤`
    /// [`len`](Self::len); equal only when no two estimators share a
    /// configuration).
    pub fn substrate_count(&self) -> usize {
        self.substrates.len()
    }

    /// Registered function names, registration order (first = default).
    pub fn function_names(&self) -> Vec<String> {
        self.estimators.iter().map(|e| e.name.clone()).collect()
    }

    /// The estimate for a registered function at the current prefix, or
    /// `None` for an unknown name.
    ///
    /// Functions sharing a substrate share its per-level query plans (see
    /// [`OnePassGSumSketch::estimate_with`]): the first query after a state
    /// change scans each level's candidates, and every later query — for
    /// any registered function — only prunes and weighs at most
    /// `candidates_per_level` items per level.  Ingest (`update`,
    /// `update_batch`) and `merge` invalidate the plans; checkpoint bytes
    /// never carry them.
    pub fn estimate_for(&self, name: &str) -> Option<f64> {
        let est = self.estimators.iter().find(|e| e.name == name)?;
        Some(
            self.substrates[est.substrate]
                .sketch
                .estimate_with(&est.function),
        )
    }

    /// Checkpoint bytes for one registered function, or `None` for an
    /// unknown name.
    ///
    /// The bytes are exactly what a **single-function**
    /// `OnePassGSumSketch` built with that function (same configuration,
    /// same seed) would write after absorbing the same stream — the
    /// substrate state is function-independent, so only the encoded
    /// parameters differ between estimators sharing a substrate.  The
    /// workspace's bit-exactness suites compare these bytes directly.
    pub fn checkpoint_for(&self, name: &str) -> Option<Result<Vec<u8>, CheckpointError>> {
        let est = self.estimators.iter().find(|e| e.name == name)?;
        let mut bytes = Vec::new();
        Some(
            self.substrates[est.substrate]
                .sketch
                .save_with_params(&mut bytes, &est.function.encode_params())
                .map(|()| bytes),
        )
    }

    fn save_config(w: &mut impl Write, config: &GSumConfig) -> Result<(), CheckpointError> {
        checkpoint::write_u64(w, config.domain)?;
        checkpoint::write_f64(w, config.epsilon)?;
        checkpoint::write_f64(w, config.delta)?;
        checkpoint::write_f64(w, config.envelope_factor)?;
        checkpoint::write_len(w, config.levels)?;
        checkpoint::write_len(w, config.countsketch_columns)?;
        checkpoint::write_len(w, config.countsketch_rows)?;
        checkpoint::write_len(w, config.candidates_per_level)?;
        checkpoint::write_backend(w, config.hash_backend)?;
        checkpoint::write_sign_family(w, config.sign_family)?;
        checkpoint::write_len(w, config.hint_cap)?;
        checkpoint::write_u64(w, config.seed)
    }

    fn restore_config(r: &mut impl Read) -> Result<GSumConfig, CheckpointError> {
        Ok(GSumConfig {
            domain: checkpoint::read_u64(r)?,
            epsilon: checkpoint::read_f64(r)?,
            delta: checkpoint::read_f64(r)?,
            envelope_factor: checkpoint::read_f64(r)?,
            levels: checkpoint::read_len(r)?,
            countsketch_columns: checkpoint::read_len(r)?,
            countsketch_rows: checkpoint::read_len(r)?,
            candidates_per_level: checkpoint::read_len(r)?,
            hash_backend: checkpoint::read_backend(r)?,
            sign_family: checkpoint::read_sign_family(r)?,
            hint_cap: checkpoint::read_len(r)?,
            seed: checkpoint::read_u64(r)?,
        })
    }
}

impl StreamSink for SketchRegistry {
    fn update(&mut self, update: Update) {
        for substrate in &mut self.substrates {
            substrate.sketch.update(update);
        }
    }

    /// Route the batch to each substrate exactly once — ingest cost scales
    /// with distinct configurations, never with registered functions.
    fn update_batch(&mut self, updates: &[Update]) {
        for substrate in &mut self.substrates {
            substrate.sketch.update_batch(updates);
        }
    }
}

impl MergeableSketch for SketchRegistry {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.estimators.len() != other.estimators.len()
            || self.substrates.len() != other.substrates.len()
        {
            return Err(MergeError::new(
                "registries register different estimator sets",
            ));
        }
        for (a, b) in self.estimators.iter().zip(&other.estimators) {
            if a.name != b.name || a.substrate != b.substrate {
                return Err(MergeError::new(
                    "registries register different estimator sets",
                ));
            }
        }
        for (a, b) in self.substrates.iter().zip(&other.substrates) {
            if a.config != b.config {
                return Err(MergeError::new(
                    "registry substrates were built with different configurations",
                ));
            }
        }
        for (a, b) in self.substrates.iter_mut().zip(&other.substrates) {
            a.sketch.merge(&b.sketch)?;
        }
        Ok(())
    }
}

/// The registry checkpoints as a versioned composite
/// ([`kind::SKETCH_REGISTRY`]): each substrate's configuration and nested
/// sketch checkpoint, then the estimator table as encoded function
/// parameters plus substrate indices.
impl Checkpoint for SketchRegistry {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::SKETCH_REGISTRY)?;
        checkpoint::write_len(w, self.substrates.len())?;
        for substrate in &self.substrates {
            Self::save_config(w, &substrate.config)?;
            substrate.sketch.save(w)?;
        }
        checkpoint::write_len(w, self.estimators.len())?;
        for est in &self.estimators {
            checkpoint::write_bytes(w, &est.function.encode_params())?;
            checkpoint::write_len(w, est.substrate)?;
        }
        Ok(())
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        checkpoint::read_header(r, kind::SKETCH_REGISTRY)?;
        let substrate_count = checkpoint::read_len(r)?;
        let mut substrates = Vec::with_capacity(substrate_count.min(1 << 10));
        for _ in 0..substrate_count {
            let config = Self::restore_config(r)?;
            let sketch = OnePassGSumSketch::<DynG>::restore(r)?;
            substrates.push(Substrate { config, sketch });
        }
        let estimator_count = checkpoint::read_len(r)?;
        let mut estimators = Vec::with_capacity(estimator_count.min(1 << 10));
        for _ in 0..estimator_count {
            let params = checkpoint::read_bounded_bytes(r, 1 << 16, "function parameters")?;
            let function = DynG::decode_params(&params)
                .ok_or_else(|| CheckpointError::Corrupt("invalid function parameters".into()))?;
            let substrate = checkpoint::read_len(r)?;
            if substrate >= substrates.len() {
                return Err(CheckpointError::Corrupt(
                    "estimator references a substrate past the table".into(),
                ));
            }
            estimators.push(Estimator {
                name: function.name(),
                function,
                substrate,
            });
        }
        Ok(Self {
            substrates,
            estimators,
        })
    }
}

impl ServableSketch for SketchRegistry {
    fn domain(&self) -> u64 {
        self.substrates.first().map_or(0, |s| s.config.domain)
    }

    /// The default estimator's estimate (first registered function); `0.0`
    /// for an empty registry.
    fn estimate(&self) -> f64 {
        self.estimators.first().map_or(0.0, |est| {
            self.substrates[est.substrate]
                .sketch
                .estimate_with(&est.function)
        })
    }

    fn estimate_named(&self, name: &str) -> Option<f64> {
        self.estimate_for(name)
    }

    fn function_names(&self) -> Vec<String> {
        SketchRegistry::function_names(self)
    }
}
