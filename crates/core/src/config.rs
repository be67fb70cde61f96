//! Configuration shared by the g-SUM estimators.

use crate::error::CoreError;
use gsum_hash::{HashBackend, SignFamily};

pub(crate) fn invalid(parameter: &'static str, reason: &str) -> CoreError {
    CoreError::InvalidParameter {
        parameter,
        reason: reason.into(),
    }
}

/// Configuration for the one-pass and two-pass g-SUM estimators.
///
/// The paper's theoretical parameterization (Theorem 13 plus Algorithms 1/2)
/// sets the heaviness to `λ = ε² / log³ n` and sizes the per-level CountSketch
/// as `CountSketch(λ / Θ(H(M)), ε / Θ(H(M)), δ)`.  Plugging realistic `n` into
/// those formulas produces sketches far larger than the streams used in a
/// laptop-scale evaluation, so the constructors expose two modes:
///
/// * [`GSumConfig::theoretical`] — the faithful parameterization (capped so it
///   stays runnable), used when demonstrating the asymptotic claims;
/// * [`GSumConfig::with_space_budget`] — an explicit space budget (CountSketch
///   columns), used by the experiments that sweep accuracy against space.
#[derive(Debug, Clone, PartialEq)]
pub struct GSumConfig {
    /// Domain size `n`.
    pub domain: u64,
    /// Target relative accuracy `ε`.
    pub epsilon: f64,
    /// Failure probability budget `δ` (per estimator invocation).
    pub delta: f64,
    /// The sub-polynomial envelope factor `H(M)` of Propositions 15/16.  The
    /// caller can compute it with `gsum_gfunc::properties::estimate_envelope`;
    /// `1.0` corresponds to a monotone function growing at most quadratically.
    pub envelope_factor: f64,
    /// Number of subsampling levels of the recursive sketch
    /// (`≈ log₂ n + 1`).
    pub levels: usize,
    /// CountSketch columns per level.
    pub countsketch_columns: usize,
    /// CountSketch rows per level.
    pub countsketch_rows: usize,
    /// Number of candidates extracted from each level's CountSketch
    /// (the `O(H(M)/λ)` of Lemma 18).
    pub candidates_per_level: usize,
    /// Hash family for the per-level CountSketch rows (polynomial by
    /// default; tabulation trades provable independence for speed).
    pub hash_backend: HashBackend,
    /// Sign family for the AMS tug-of-war banks inside the one-pass
    /// heavy-hitter sketches.  The 4-wise polynomial default carries the
    /// paper's `Var[Z²] ≤ 2F₂²` bound; tabulation is 3-wise (the mean is
    /// still exact, the variance constant becomes heuristic) but cheaper per
    /// evaluation.  Sketches of different families refuse to merge.
    pub sign_family: SignFamily,
    /// Cap on the reverse hints (distinct observed items) each heavy-hitter
    /// sketch stores for candidate identification.  Identification scans the
    /// observed support instead of the whole domain while a sketch stays
    /// under the cap; past it the hints are discarded and queries fall back
    /// to scanning the level's substream of the domain.  Larger caps trade space for identification
    /// speed on wide domains; [`DEFAULT_HINT_CAP`] words per sketch keeps the
    /// state sublinear.
    pub hint_cap: usize,
    /// Master seed for all hash functions.
    pub seed: u64,
}

/// The default reverse-hint cap (distinct observed items remembered per
/// heavy-hitter sketch, and per `g_np` substream).
pub const DEFAULT_HINT_CAP: usize = 512;

impl GSumConfig {
    /// The faithful (capped) theoretical parameterization for accuracy `ε`.
    ///
    /// # Panics
    /// Panics on a degenerate domain or accuracy; use
    /// [`try_theoretical`](Self::try_theoretical) for a fallible constructor.
    pub fn theoretical(domain: u64, epsilon: f64, seed: u64) -> Self {
        Self::try_theoretical(domain, epsilon, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`theoretical`](Self::theoretical): rejects `domain == 0`
    /// and `ε ∉ (0, 1)` with a typed [`CoreError`].
    pub fn try_theoretical(domain: u64, epsilon: f64, seed: u64) -> Result<Self, CoreError> {
        if domain == 0 {
            return Err(invalid("domain", "domain must be positive"));
        }
        if epsilon.is_nan() || epsilon <= 0.0 || epsilon >= 1.0 {
            return Err(invalid("epsilon", "epsilon must be in (0,1)"));
        }
        let log_n = (domain.max(2) as f64).log2();
        let lambda = (epsilon * epsilon / log_n.powi(3)).max(1e-6);
        let columns = ((6.0 / (lambda * epsilon * epsilon)).ceil() as usize).min(1 << 14);
        let candidates = ((3.0 / lambda).ceil() as usize).min(columns / 2).max(8);
        Ok(Self {
            domain,
            epsilon,
            delta: 0.1,
            envelope_factor: 1.0,
            levels: Self::default_levels(domain),
            countsketch_columns: columns.max(16),
            countsketch_rows: 5,
            candidates_per_level: candidates,
            hash_backend: HashBackend::default(),
            sign_family: SignFamily::default(),
            hint_cap: DEFAULT_HINT_CAP,
            seed,
        })
    }

    /// A configuration with an explicit space budget: `columns` CountSketch
    /// columns per level (the dominant space term).
    ///
    /// # Panics
    /// Panics on a degenerate domain, accuracy or budget; use
    /// [`try_with_space_budget`](Self::try_with_space_budget) for a fallible
    /// constructor.
    pub fn with_space_budget(domain: u64, epsilon: f64, columns: usize, seed: u64) -> Self {
        Self::try_with_space_budget(domain, epsilon, columns, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`with_space_budget`](Self::with_space_budget): rejects
    /// `domain == 0`, `ε ∉ (0, 1)` and `columns < 4` with a typed
    /// [`CoreError`].
    pub fn try_with_space_budget(
        domain: u64,
        epsilon: f64,
        columns: usize,
        seed: u64,
    ) -> Result<Self, CoreError> {
        if domain == 0 {
            return Err(invalid("domain", "domain must be positive"));
        }
        if epsilon.is_nan() || epsilon <= 0.0 || epsilon >= 1.0 {
            return Err(invalid("epsilon", "epsilon must be in (0,1)"));
        }
        if columns < 4 {
            return Err(invalid("columns", "need at least 4 CountSketch columns"));
        }
        Ok(Self {
            domain,
            epsilon,
            delta: 0.1,
            envelope_factor: 1.0,
            levels: Self::default_levels(domain),
            countsketch_columns: columns,
            countsketch_rows: 5,
            candidates_per_level: (columns / 4).max(4),
            hash_backend: HashBackend::default(),
            sign_family: SignFamily::default(),
            hint_cap: DEFAULT_HINT_CAP,
            seed,
        })
    }

    /// Override the envelope factor `H(M)` (e.g. with the empirical value
    /// from `gsum_gfunc::properties::estimate_envelope`).
    ///
    /// # Panics
    /// Panics if `factor < 1`; use
    /// [`try_with_envelope_factor`](Self::try_with_envelope_factor) for a
    /// fallible builder.
    pub fn with_envelope_factor(self, factor: f64) -> Self {
        self.try_with_envelope_factor(factor)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: rejects `factor < 1` (and NaN).
    pub fn try_with_envelope_factor(mut self, factor: f64) -> Result<Self, CoreError> {
        if factor.is_nan() || factor < 1.0 {
            return Err(invalid(
                "envelope_factor",
                "the envelope factor is at least 1",
            ));
        }
        self.envelope_factor = factor;
        Ok(self)
    }

    /// Select the hash backend for every sketch in the estimator stack.
    pub fn with_hash_backend(mut self, backend: HashBackend) -> Self {
        self.hash_backend = backend;
        self
    }

    /// Select the sign family for the AMS tug-of-war banks (see the
    /// [`sign_family`](Self::sign_family) field for the independence
    /// trade-off).
    pub fn with_sign_family(mut self, family: SignFamily) -> Self {
        self.sign_family = family;
        self
    }

    /// Override the reverse-hint cap for every heavy-hitter sketch in the
    /// estimator stack (the space / identification-speed tradeoff knob).
    ///
    /// # Panics
    /// Panics if `hint_cap == 0` (a sketch must be able to remember at least
    /// one observed item before saturating); use
    /// [`try_with_hint_cap`](Self::try_with_hint_cap) for a fallible builder.
    pub fn with_hint_cap(self, hint_cap: usize) -> Self {
        self.try_with_hint_cap(hint_cap)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: rejects `hint_cap == 0`.
    pub fn try_with_hint_cap(mut self, hint_cap: usize) -> Result<Self, CoreError> {
        if hint_cap == 0 {
            return Err(invalid("hint_cap", "hint cap must be at least 1"));
        }
        self.hint_cap = hint_cap;
        Ok(self)
    }

    /// Override the number of recursion levels.
    ///
    /// # Panics
    /// Panics if `levels == 0`; use [`try_with_levels`](Self::try_with_levels)
    /// for a fallible builder.
    pub fn with_levels(self, levels: usize) -> Self {
        self.try_with_levels(levels)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: rejects `levels == 0`.
    pub fn try_with_levels(mut self, levels: usize) -> Result<Self, CoreError> {
        if levels == 0 {
            return Err(invalid("levels", "need at least one level"));
        }
        self.levels = levels;
        Ok(self)
    }

    /// Override the number of CountSketch rows per level.
    ///
    /// # Panics
    /// Panics if `rows == 0`; use [`try_with_rows`](Self::try_with_rows) for
    /// a fallible builder.
    pub fn with_rows(self, rows: usize) -> Self {
        self.try_with_rows(rows).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: rejects `rows == 0`.
    pub fn try_with_rows(mut self, rows: usize) -> Result<Self, CoreError> {
        if rows == 0 {
            return Err(invalid("rows", "need at least one row"));
        }
        self.countsketch_rows = rows;
        Ok(self)
    }

    /// The default level count: `⌈log₂ n⌉ + 1`, capped at 24.
    pub fn default_levels(domain: u64) -> usize {
        let lg = (64 - domain.max(2).leading_zeros()) as usize;
        (lg + 1).min(24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_configuration_shapes() {
        let cfg = GSumConfig::theoretical(1 << 12, 0.2, 7);
        assert_eq!(cfg.domain, 1 << 12);
        assert_eq!(cfg.levels, 13 + 1);
        assert!(cfg.countsketch_columns <= 1 << 14);
        assert!(cfg.candidates_per_level >= 8);
    }

    #[test]
    fn space_budget_configuration() {
        let cfg = GSumConfig::with_space_budget(1 << 10, 0.1, 256, 3);
        assert_eq!(cfg.countsketch_columns, 256);
        assert_eq!(cfg.candidates_per_level, 64);
        let cfg = cfg.with_envelope_factor(3.0).with_levels(5).with_rows(7);
        assert_eq!(cfg.envelope_factor, 3.0);
        assert_eq!(cfg.levels, 5);
        assert_eq!(cfg.countsketch_rows, 7);
    }

    #[test]
    fn hint_cap_defaults_and_overrides() {
        let cfg = GSumConfig::with_space_budget(1 << 10, 0.1, 256, 3);
        assert_eq!(cfg.hint_cap, DEFAULT_HINT_CAP);
        assert_eq!(
            GSumConfig::theoretical(1 << 10, 0.2, 1).hint_cap,
            DEFAULT_HINT_CAP
        );
        assert_eq!(cfg.with_hint_cap(64).hint_cap, 64);
    }

    #[test]
    fn sign_family_defaults_and_overrides() {
        let cfg = GSumConfig::with_space_budget(1 << 10, 0.1, 256, 3);
        assert_eq!(cfg.sign_family, SignFamily::Polynomial4);
        assert_eq!(
            GSumConfig::theoretical(1 << 10, 0.2, 1).sign_family,
            SignFamily::Polynomial4
        );
        assert_eq!(
            cfg.with_sign_family(SignFamily::Tabulation).sign_family,
            SignFamily::Tabulation
        );
    }

    #[test]
    #[should_panic(expected = "hint cap")]
    fn zero_hint_cap_rejected() {
        let _ = GSumConfig::with_space_budget(64, 0.1, 16, 0).with_hint_cap(0);
    }

    #[test]
    fn default_levels_scale_with_domain() {
        assert_eq!(GSumConfig::default_levels(2), 3);
        assert_eq!(GSumConfig::default_levels(1 << 10), 12);
        assert_eq!(GSumConfig::default_levels(u64::MAX), 24);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let _ = GSumConfig::theoretical(8, 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn rejects_tiny_budget() {
        let _ = GSumConfig::with_space_budget(8, 0.1, 2, 0);
    }

    /// The fallible constructors reject exactly what the panicking wrappers
    /// panic on, with the same message carried in the typed error.
    #[test]
    fn try_constructors_return_typed_errors() {
        let reason = |r: Result<GSumConfig, CoreError>| r.unwrap_err().to_string();
        assert!(reason(GSumConfig::try_theoretical(0, 0.2, 1)).contains("domain"));
        assert!(reason(GSumConfig::try_theoretical(8, f64::NAN, 1)).contains("epsilon"));
        assert!(reason(GSumConfig::try_with_space_budget(8, 0.2, 3, 1)).contains("columns"));
        let cfg = GSumConfig::try_with_space_budget(64, 0.2, 16, 1).expect("valid");
        assert_eq!(
            cfg,
            GSumConfig::with_space_budget(64, 0.2, 16, 1),
            "fallible and panicking constructors agree on valid input"
        );
        assert!(reason(cfg.clone().try_with_envelope_factor(0.5)).contains("envelope"));
        assert!(reason(cfg.clone().try_with_hint_cap(0)).contains("hint cap"));
        assert!(reason(cfg.clone().try_with_levels(0)).contains("level"));
        assert!(reason(cfg.clone().try_with_rows(0)).contains("row"));
        let tuned = cfg
            .try_with_envelope_factor(2.0)
            .and_then(|c| c.try_with_hint_cap(32))
            .and_then(|c| c.try_with_levels(4))
            .and_then(|c| c.try_with_rows(3))
            .expect("valid chain");
        assert_eq!(tuned.envelope_factor, 2.0);
        assert_eq!(tuned.hint_cap, 32);
        assert_eq!(tuned.levels, 4);
        assert_eq!(tuned.countsketch_rows, 3);
    }
}
