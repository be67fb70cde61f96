//! The served system's fixed configuration, shared by the server launcher,
//! the correctness replay and the traced ledger so all three build the
//! state identically.

use gsum_core::GSumConfig;
use gsum_gfunc::library::{CappedLinear, OscillatingQuadratic, PowerFunction};
use gsum_gfunc::{DynG, GFunction};
use gsum_serve::{ServeConfig, ServePolicy, SketchRegistry};

/// Target accuracy of every registered estimator.
pub const EPSILON: f64 = 0.2;
/// CountSketch columns per level (the space budget).
pub const COLUMNS: usize = 512;
/// Fold workers: the reactor plus one worker fit a 2-core host.
pub const WORKERS: usize = 1;
/// Snapshot cadence, in merged updates.
pub const CHECKPOINT_EVERY: usize = 1 << 16;
/// The substrate's hash seed: fixed server configuration, like the rest
/// of this module — the workload seed varies the traffic, not the server.
pub const SKETCH_SEED: u64 = 0x5eed_0f5c_e7c4;
/// Zipf skew of every generated stream.
pub const ZIPF_EXPONENT: f64 = 1.2;

/// The registered functions: a short tag used in metric names, and the
/// function itself (its `name()` is the `EST` argument).
pub fn functions() -> Vec<(&'static str, DynG)> {
    vec![
        ("x2", DynG::new(PowerFunction::new(2.0))),
        ("cap100", DynG::new(CappedLinear::new(100))),
        ("osc_log", DynG::new(OscillatingQuadratic::log())),
    ]
}

/// The `EST` names of [`functions`], in registration order.
pub fn function_names() -> Vec<String> {
    functions().iter().map(|(_, g)| g.name()).collect()
}

/// The substrate configuration every function shares.
pub fn gsum_config(domain: u64, sketch_seed: u64) -> GSumConfig {
    GSumConfig::with_space_budget(domain, EPSILON, COLUMNS, sketch_seed)
}

/// The served state: one substrate, three estimators.
pub fn build_registry(domain: u64, sketch_seed: u64) -> SketchRegistry {
    let config = gsum_config(domain, sketch_seed);
    let mut registry = SketchRegistry::new();
    for (_, g) in functions() {
        registry
            .register_dyn(g, &config)
            .expect("the three functions have distinct names and one domain");
    }
    registry
}

/// The server's serving configuration.
pub fn serve_config() -> ServeConfig {
    ServeConfig::new()
        .with_policy(ServePolicy::MergeCompleted)
        .with_workers(WORKERS)
        .with_checkpoint_every(CHECKPOINT_EVERY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_functions_share_one_substrate() {
        let r = build_registry(1 << 10, 7);
        assert_eq!(r.len(), 3);
        assert_eq!(r.substrate_count(), 1);
        assert_eq!(r.function_names(), function_names());
        assert_eq!(
            function_names(),
            vec!["x^2", "min(x, 100)", "(2+sin ln(1+x))x^2"]
        );
    }
}
