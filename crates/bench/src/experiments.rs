//! The experiment suite E1–E10 (run any of them with the `exp_all` binary).
//!
//! Each function is deterministic given its arguments and returns an
//! [`ExperimentTable`] ready for Markdown rendering.  The default parameters
//! are laptop-scale (seconds per experiment in release mode).

use crate::table::{fmt, ExperimentTable};
use gsum_comm::{DisjIndInstance, DistInstance, IndexInstance, SketchDistinguisher};
use gsum_core::apps::{ClickBilling, MixtureSampler, MleEstimator};
use gsum_core::{
    exact_gsum, DistCounter, DistVerdict, GSumConfig, GSumEstimator, MomentEstimator,
    NearlyPeriodicGSum, OnePassGSum, TwoPassGSum,
};
use gsum_gfunc::library::{
    GnpFunction, InversePowerFunction, OscillatingQuadratic, PoissonMixtureNll, PowerFunction,
    SpamDiscountUtility,
};
use gsum_gfunc::{FunctionRegistry, GFunction, PropertyConfig};
use gsum_streams::{
    FrequencyPrescribedGenerator, StreamConfig, StreamGenerator, StreamSink, TurnstileStream,
    ZipfStreamGenerator,
};

/// Relative error helper.
fn rel_err(estimate: f64, truth: f64) -> f64 {
    (estimate - truth).abs() / truth.abs().max(1e-12)
}

fn zipf(domain: u64, length: usize, seed: u64) -> TurnstileStream {
    ZipfStreamGenerator::new(StreamConfig::new(domain, length), 1.2, seed).generate()
}

/// E1 — the zero-one-law classification table over the built-in registry
/// (reproduces the worked examples of §3 and §4.6).
pub fn e1_classification(config: &PropertyConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E1",
        "Zero-one-law classification of the paper's worked examples",
        "Theorems 2 and 3: 1-pass tractable iff slow-jumping + slow-dropping + predictable; \
         2-pass tractable iff slow-jumping + slow-dropping; nearly periodic functions are \
         outside the law (Definition 9).",
        vec![
            "function",
            "slow-jumping",
            "slow-dropping",
            "predictable",
            "nearly periodic",
            "1-pass verdict",
            "2-pass verdict",
            "matches paper",
        ],
    );
    let registry = FunctionRegistry::standard();
    for (entry, report, matches) in registry.classification_table(config) {
        table.push_row(vec![
            entry.name(),
            report.slow_jumping.holds.to_string(),
            report.slow_dropping.holds.to_string(),
            report.predictable.holds.to_string(),
            report.nearly_periodic.nearly_periodic.to_string(),
            format!("{:?}", report.one_pass),
            format!("{:?}", report.two_pass),
            matches.to_string(),
        ]);
    }
    table
}

/// E2 — one-pass accuracy versus space for tractable functions on skewed
/// streams.
pub fn e2_one_pass_accuracy(domain: u64, length: usize, trials: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E2",
        "One-pass g-SUM accuracy vs. CountSketch width (tractable functions)",
        "Theorem 2 upper bound: slow-jumping, slow-dropping, predictable functions admit a \
         (1±ε) one-pass estimator whose error shrinks as the (sub-polynomial) sketch grows.",
        vec!["function", "columns", "space (words)", "median rel. error"],
    );
    let functions: Vec<(Box<dyn GFunction>, &str)> = vec![
        (Box::new(PowerFunction::new(0.5)), "x^0.5"),
        (Box::new(PowerFunction::new(1.5)), "x^1.5"),
        (Box::new(PowerFunction::new(2.0)), "x^2"),
        (Box::new(OscillatingQuadratic::log()), "(2+sin ln(1+x))x^2"),
        (Box::new(SpamDiscountUtility::new(50)), "spam-discount(50)"),
    ];
    let stream = zipf(domain, length, 11);
    for (g, name) in &functions {
        let truth = exact_gsum(g.as_ref(), &stream.frequency_vector());
        for &columns in &[128usize, 512, 2048] {
            let cfg = GSumConfig::with_space_budget(domain, 0.2, columns, 7);
            let mut errors: Vec<f64> = Vec::new();
            for t in 0..trials {
                let est = NamedOnePass::new(g.as_ref(), cfg.clone());
                errors.push(rel_err(
                    est.estimate_with_seed(&stream, 1000 + t as u64),
                    truth,
                ));
            }
            errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = errors[errors.len() / 2];
            let space = NamedOnePass::new(g.as_ref(), cfg.clone()).space_words();
            table.push_row(vec![
                name.to_string(),
                columns.to_string(),
                space.to_string(),
                fmt(median),
            ]);
        }
    }
    table
}

/// A small adapter: `OnePassGSum` over a `&dyn GFunction` (the estimator is
/// generic over `Clone`, and `&dyn GFunction` is `Copy`).
struct NamedOnePass<'a> {
    inner: OnePassGSum<&'a dyn GFunction>,
}

impl<'a> NamedOnePass<'a> {
    fn new(g: &'a dyn GFunction, cfg: GSumConfig) -> Self {
        Self {
            inner: OnePassGSum::new(g, cfg),
        }
    }
    fn estimate_with_seed(&self, stream: &TurnstileStream, seed: u64) -> f64 {
        self.inner.estimate_with_seed(stream, seed)
    }
    fn space_words(&self) -> usize {
        self.inner.space_words()
    }
}

/// E3 — the 1-pass vs 2-pass separation on an unpredictable function.
pub fn e3_two_pass_separation(trials: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E3",
        "Predictability separates one pass from two passes",
        "Theorem 2 vs Theorem 3: (2+sin x)x² and (2+sin √x)x² are slow-jumping and \
         slow-dropping but not predictable, so they are 2-pass tractable yet 1-pass \
         intractable; the 2-pass algorithm's exact second pass removes the error that the \
         1-pass algorithm cannot avoid.",
        vec![
            "function",
            "workload",
            "1-pass median rel. error",
            "2-pass median rel. error",
        ],
    );
    let domain = 1u64 << 10;
    // A dominant item whose frequency can only be estimated approximately in
    // one pass, plus background noise.
    let stream = gsum_streams::PlantedStreamGenerator::new(
        StreamConfig::new(domain, 50_000),
        vec![(5, 100_000), (77, 60_001)],
        3,
    )
    .generate();
    for (g, name) in [
        (OscillatingQuadratic::direct(), "(2+sin x)x^2"),
        (OscillatingQuadratic::sqrt(), "(2+sin sqrt x)x^2"),
        (OscillatingQuadratic::log(), "(2+sin ln(1+x))x^2"),
    ] {
        let truth = exact_gsum(&g, &stream.frequency_vector());
        let cfg = GSumConfig::with_space_budget(domain, 0.1, 128, 5);
        let one = OnePassGSum::new(g, cfg.clone());
        let two = TwoPassGSum::new(g, cfg);
        let median = |errs: &mut Vec<f64>| {
            errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            errs[errs.len() / 2]
        };
        let mut one_errs: Vec<f64> = (0..trials)
            .map(|t| rel_err(one.estimate_with_seed(&stream, 30 + t as u64), truth))
            .collect();
        let mut two_errs: Vec<f64> = (0..trials)
            .map(|t| rel_err(two.estimate_with_seed(&stream, 30 + t as u64), truth))
            .collect();
        table.push_row(vec![
            name.to_string(),
            "planted heavy hitters".to_string(),
            fmt(median(&mut one_errs)),
            fmt(median(&mut two_errs)),
        ]);
    }
    table
}

/// E4 — the lower-bound reductions: bounded-space sketches fail to
/// distinguish the INDEX / DISJ+IND worlds for intractable functions, while
/// the exact statistic separates them perfectly.
pub fn e4_lower_bounds(trials: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E4",
        "The lower-bound reduction streams: exact separation vs. sketch failure",
        "Lemmas 23/24: for a function that is not slow-dropping (1/x) the INDEX reduction, \
         and for one that is not slow-jumping (x^3) the DISJ+IND reduction, create two \
         worlds whose exact g-SUMs differ by a constant factor (exact statistic: advantage \
         ≈ 1).  Any algorithm that solved (g, ε)-SUM in small space would inherit that \
         advantage and contradict the Ω(n^α) communication bound; consistently, the small \
         one-pass sketch does not approximate g-SUM on these streams (large median relative \
         error).",
        vec![
            "function",
            "reduction",
            "statistic",
            "space (words)",
            "advantage",
            "median rel. error",
        ],
    );

    /// Median relative error of a statistic against the exact g-SUM over the
    /// "yes"-world streams.
    fn median_rel_error(
        trials: usize,
        mut make: impl FnMut(u64) -> TurnstileStream,
        mut stat: impl FnMut(u64, &TurnstileStream) -> f64,
        exact: impl Fn(&TurnstileStream) -> f64,
    ) -> f64 {
        let mut errs: Vec<f64> = (0..trials as u64)
            .map(|t| {
                let s = make(t);
                let truth = exact(&s);
                (stat(t, &s) - truth).abs() / truth.abs().max(1e-12)
            })
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        errs[errs.len() / 2]
    }

    // --- 1/x with the INDEX reduction (Lemma 23). ---
    let n = 256u64;
    let g_inv = InversePowerFunction::new(1.0);
    let exact_inv = |s: &TurnstileStream| exact_gsum(&g_inv, &s.frequency_vector());
    let report = SketchDistinguisher::run(
        trials,
        |t| IndexInstance::random(n, false, t).reduction_stream(n, 1),
        |t| IndexInstance::random(n, true, t).reduction_stream(n, 1),
        |_t, s| exact_inv(s),
    );
    table.push_row(vec![
        "1/x".into(),
        "INDEX".into(),
        "exact g-SUM".into(),
        "n/a".into(),
        fmt(report.advantage),
        "0".into(),
    ]);
    let cfg = GSumConfig::with_space_budget(n, 0.2, 16, 3).with_levels(4);
    let sketch = OnePassGSum::new(g_inv, cfg);
    let space = sketch.space_words();
    let report = SketchDistinguisher::run(
        trials,
        |t| IndexInstance::random(n, false, t).reduction_stream(n, 1),
        |t| IndexInstance::random(n, true, t).reduction_stream(n, 1),
        |t, s| sketch.estimate_with_seed(s, t),
    );
    let err = median_rel_error(
        trials,
        |t| IndexInstance::random(n, true, t).reduction_stream(n, 1),
        |t, s| sketch.estimate_with_seed(s, t),
        exact_inv,
    );
    table.push_row(vec![
        "1/x".into(),
        "INDEX".into(),
        "one-pass sketch".into(),
        space.to_string(),
        fmt(report.advantage),
        fmt(err),
    ]);

    // --- x^3 with the DISJ+IND reduction (Lemma 24). ---
    let g_cubic = PowerFunction::new(3.0);
    let exact_cubic = |s: &TurnstileStream| exact_gsum(&g_cubic, &s.frequency_vector());
    let x = 8u64;
    let remainder = 3u64;
    let players = 4usize;
    let report = SketchDistinguisher::run(
        trials,
        |t| DisjIndInstance::random(n, players, false, t).reduction_stream(x, remainder),
        |t| DisjIndInstance::random(n, players, true, t).reduction_stream(x, remainder),
        |_t, s| exact_cubic(s),
    );
    table.push_row(vec![
        "x^3".into(),
        "DISJ+IND".into(),
        "exact g-SUM".into(),
        "n/a".into(),
        fmt(report.advantage),
        "0".into(),
    ]);
    let cfg = GSumConfig::with_space_budget(n, 0.2, 16, 9).with_levels(4);
    let sketch = OnePassGSum::new(g_cubic, cfg);
    let space = sketch.space_words();
    let report = SketchDistinguisher::run(
        trials,
        |t| DisjIndInstance::random(n, players, false, t).reduction_stream(x, remainder),
        |t| DisjIndInstance::random(n, players, true, t).reduction_stream(x, remainder),
        |t, s| sketch.estimate_with_seed(s, t),
    );
    let err = median_rel_error(
        trials,
        |t| DisjIndInstance::random(n, players, true, t).reduction_stream(x, remainder),
        |t, s| sketch.estimate_with_seed(s, t),
        exact_cubic,
    );
    table.push_row(vec![
        "x^3".into(),
        "DISJ+IND".into(),
        "one-pass sketch".into(),
        space.to_string(),
        fmt(report.advantage),
        fmt(err),
    ]);
    table
}

/// E5 — the nearly periodic special case: `g_np` is handled by the bespoke
/// Proposition-54 algorithm, while the generic CountSketch route mis-handles
/// it.
pub fn e5_nearly_periodic(trials: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E5",
        "The nearly periodic function g_np",
        "Proposition 53/54 and Appendix D.1: g_np escapes the normal law (it is nearly \
         periodic), yet a dedicated low-bit heavy-hitter routine inside the recursive sketch \
         approximates g_np-SUM in one pass and small space; the generic CountSketch-based \
         one-pass algorithm has no such guarantee.",
        vec!["estimator", "median rel. error", "space (words)"],
    );
    let domain = 1u64 << 10;
    let g = GnpFunction::new();
    let stream = FrequencyPrescribedGenerator::new(
        domain,
        vec![(2048, 1), (512, 2), (64, 5), (8, 30), (3, 60), (1, 150)],
        9,
    )
    .with_bulk_updates()
    .generate();
    let truth = exact_gsum(&g, &stream.frequency_vector());

    let np = NearlyPeriodicGSum::new(GSumConfig::with_space_budget(domain, 0.2, 256, 5));
    let mut np_errs: Vec<f64> = (0..trials)
        .map(|t| rel_err(np.estimate_with_seed(&stream, 100 + t as u64), truth))
        .collect();
    np_errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    table.push_row(vec![
        "Prop. 54 low-bit algorithm".into(),
        fmt(np_errs[np_errs.len() / 2]),
        np.space_words().to_string(),
    ]);

    let generic = OnePassGSum::new(g, GSumConfig::with_space_budget(domain, 0.2, 256, 5));
    let mut gen_errs: Vec<f64> = (0..trials)
        .map(|t| rel_err(generic.estimate_with_seed(&stream, 100 + t as u64), truth))
        .collect();
    gen_errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    table.push_row(vec![
        "generic one-pass (Algorithm 2)".into(),
        fmt(gen_errs[gen_errs.len() / 2]),
        generic.space_words().to_string(),
    ]);
    table
}

/// E6 — the ShortLinearCombination threshold: detection accuracy and space of
/// the Proposition-49 counter algorithm as the minimal coefficient `q`
/// varies.
pub fn e6_shortlinear(trials: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E6",
        "(a,b,c)-DIST: accuracy and space vs. the minimal coefficient q",
        "Theorem 48 / Proposition 49: distinguishing a ±c coordinate among ±a/±b coordinates \
         takes Θ̃(n/q²) space where c = p·a + q·b with minimal |q|; the counter algorithm \
         with that many pieces decides correctly with probability ≥ 2/3.",
        vec![
            "(a, b, c)",
            "|q|",
            "pieces",
            "accuracy (yes)",
            "accuracy (no)",
        ],
    );
    // Triples with a comfortable coefficient margin; tiny-q triples such as
    // (5, 3, 1) are exactly the instances whose Ω(n/q²) bound degenerates to
    // Ω(n), where no sub-linear counter structure can succeed.
    let domain = 1u64 << 12;
    for &(a, b, c) in &[(11u64, 9u64, 1u64), (23, 19, 1)] {
        let q = DistCounter::minimal_q(a as i64, b as i64, c as i64)
            .expect("representable target")
            .unsigned_abs();
        let mut yes_correct = 0usize;
        let mut no_correct = 0usize;
        let mut pieces = 0usize;
        for t in 0..trials as u64 {
            let yes = DistInstance::random(domain, a, b, c, 100, 100, true, t);
            let no = DistInstance::random(domain, a, b, c, 100, 100, false, t + 500);
            let mut d = DistCounter::new(domain, a, b, c, t * 7 + 1);
            pieces = d.pieces();
            d.process_stream(&yes.stream());
            if d.verdict() == DistVerdict::HasTargetFrequency {
                yes_correct += 1;
            }
            let mut d = DistCounter::new(domain, a, b, c, t * 7 + 2);
            d.process_stream(&no.stream());
            if d.verdict() == DistVerdict::NoTargetFrequency {
                no_correct += 1;
            }
        }
        table.push_row(vec![
            format!("({a}, {b}, {c})"),
            q.to_string(),
            pieces.to_string(),
            fmt(yes_correct as f64 / trials as f64),
            fmt(no_correct as f64 / trials as f64),
        ]);
    }
    table
}

/// E7 — approximate maximum-likelihood estimation over a parameter grid.
pub fn e7_mle(samples: u64, trials: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E7",
        "Approximate MLE for a Poisson mixture from the universal sketch",
        "§1.1.1: the universal sketch yields (1±ε) approximations of the log-likelihood of \
         every candidate parameter, so the approximate argmin has log-likelihood within \
         (1+ε) of the exact maximum-likelihood estimate.",
        vec![
            "samples",
            "grid size",
            "exact argmin beta",
            "approx argmin beta",
            "NLL ratio (approx/exact)",
        ],
    );
    let betas = [2.0f64, 4.0, 6.0, 8.0];
    let grid: Vec<PoissonMixtureNll> = betas
        .iter()
        .map(|&b| PoissonMixtureNll::new(0.5, 0.5, b))
        .collect();
    let true_model = PoissonMixtureNll::new(0.5, 0.5, 6.0);
    let stream = MixtureSampler::new(true_model, 31).sample_stream(samples);
    let estimator = MleEstimator::new(
        grid,
        GSumConfig::with_space_budget(samples.max(2), 0.2, 1024, 5),
    );
    let exact = estimator.exact(&stream);
    let approx = estimator.approximate(&stream, trials);
    let ratio = exact.nll_values[approx.best_index] / exact.best_value();
    table.push_row(vec![
        samples.to_string(),
        betas.len().to_string(),
        fmt(betas[exact.best_index]),
        fmt(betas[approx.best_index]),
        fmt(ratio),
    ]);
    table
}

/// E8 — frequency moments: the universal sketch tracks `F_k` for `k ≤ 2` and
/// degrades beyond (the original AMS question).
pub fn e8_moments(domain: u64, length: usize, trials: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E8",
        "Frequency moments F_k through the universal sketch",
        "x^k is slow-jumping iff k ≤ 2 (Definition 6), so the one-pass estimator tracks \
         F_k accurately for k ≤ 2 and loses accuracy for k > 2 at the same space budget \
         (Indyk–Woodruff lineage; AMS for k = 2 shown for comparison).",
        vec![
            "k",
            "median rel. error (universal)",
            "rel. error (AMS, k=2 only)",
        ],
    );
    let stream = zipf(domain, length, 29);
    for &k in &[0.5f64, 1.0, 1.5, 2.0, 2.5, 3.0] {
        let truth = MomentEstimator::exact(&stream, k);
        let mut errs: Vec<f64> = (0..trials)
            .map(|t| {
                rel_err(
                    OnePassGSum::new(PowerFunction::new(k), est_config(domain))
                        .estimate_with_seed(&stream, 50 + t as u64),
                    truth,
                )
            })
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let ams_col = if (k - 2.0).abs() < 1e-9 {
            fmt(rel_err(
                MomentEstimator::estimate_f2_ams(&stream, 0.15, 7),
                truth,
            ))
        } else {
            "-".to_string()
        };
        table.push_row(vec![fmt(k), fmt(errs[errs.len() / 2]), ams_col]);
    }
    table
}

fn est_config(domain: u64) -> GSumConfig {
    GSumConfig::with_space_budget(domain, 0.2, 1024, 3)
}

/// E9 — recursive-sketch ablation: accuracy as levels and CountSketch width
/// vary (the O(log n) overhead of Theorem 13).
pub fn e9_recursive_ablation(domain: u64, length: usize, trials: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E9",
        "Recursive-sketch ablation: levels and width",
        "Theorem 13: the recursive sketch needs Θ(log n) subsampling levels on top of the \
         heavy-hitter routine; too few levels truncate the light tail of the sum, and wider \
         per-level CountSketches monotonically improve accuracy.",
        vec!["levels", "columns", "median rel. error"],
    );
    let stream = zipf(domain, length, 41);
    let g = PowerFunction::new(2.0);
    let truth = exact_gsum(&g, &stream.frequency_vector());
    for &levels in &[2usize, 4, 8, 12] {
        for &columns in &[128usize, 1024] {
            let cfg = GSumConfig::with_space_budget(domain, 0.2, columns, 13).with_levels(levels);
            let est = OnePassGSum::new(g, cfg);
            let mut errs: Vec<f64> = (0..trials)
                .map(|t| rel_err(est.estimate_with_seed(&stream, 70 + t as u64), truth))
                .collect();
            errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            table.push_row(vec![
                levels.to_string(),
                columns.to_string(),
                fmt(errs[errs.len() / 2]),
            ]);
        }
    }
    table
}

/// E10 — applications: spam-discounted billing and the higher-order
/// encoding.
pub fn e10_applications(trials: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E10",
        "Applications: utility aggregates and higher-order encoding",
        "§1.1.2/§1.1.4: the non-monotone spam-discounted billing function is 1-pass \
         tractable and the sketched bill tracks the exact bill; the base-b encoded \
         two-attribute query is locally erratic, so the two-pass algorithm is the reliable \
         route.",
        vec!["scenario", "exact value", "estimate", "rel. error"],
    );
    // Billing.
    let domain = 1u64 << 10;
    let clicks = gsum_streams::PlantedStreamGenerator::new(
        StreamConfig::new(domain, 40_000),
        vec![(3, 20_000), (77, 9_000)],
        17,
    )
    .generate();
    let billing = ClickBilling::new(100, GSumConfig::with_space_budget(domain, 0.2, 1024, 3));
    let report = billing.bill(&clicks, trials);
    table.push_row(vec![
        "spam-discounted billing (1-pass)".into(),
        fmt(report.exact_discounted),
        fmt(report.estimated_discounted),
        fmt(report.relative_error),
    ]);
    table.push_row(vec![
        "capped-linear billing (exact reference)".into(),
        fmt(report.exact_capped),
        "-".into(),
        "-".into(),
    ]);

    // Higher-order encoding, via the two-pass estimator.
    use gsum_core::apps::{HigherOrderStream, TwoAttributeRecord};
    use gsum_gfunc::library::HigherOrderEncoded;
    let base = 32u64;
    let records = 512u64;
    let query = HigherOrderEncoded::new(base, 15);
    let mut enc = HigherOrderStream::new(records, base);
    let mut rng = gsum_hash::Xoshiro256::new(8);
    for id in 0..records {
        let a1 = rng.next_below(base);
        let a2 = rng.next_below(base);
        if a1 > 0 {
            enc.push(TwoAttributeRecord {
                id,
                attribute: 0,
                delta: a1 as i64,
            });
        }
        if a2 > 0 {
            enc.push(TwoAttributeRecord {
                id,
                attribute: 1,
                delta: a2 as i64,
            });
        }
    }
    let truth = enc.exact_query(&query);
    let est = TwoPassGSum::new(query, GSumConfig::with_space_budget(records, 0.2, 512, 11));
    let approx = est.estimate_median(enc.stream(), trials);
    table.push_row(vec![
        "base-32 filtered sum (2-pass)".into(),
        fmt(truth),
        fmt(approx),
        fmt(rel_err(approx, truth)),
    ]);
    table
}

/// One experiment of the suite: its id and a run with the default
/// (laptop-scale) parameters.
pub type Experiment = (&'static str, fn() -> ExperimentTable);

/// The full suite, in order.
pub const EXPERIMENTS: [Experiment; 10] = [
    ("E1", || e1_classification(&PropertyConfig::default())),
    ("E2", || e2_one_pass_accuracy(1 << 10, 30_000, 3)),
    ("E3", || e3_two_pass_separation(3)),
    ("E4", || e4_lower_bounds(20)),
    ("E5", || e5_nearly_periodic(5)),
    ("E6", || e6_shortlinear(20)),
    ("E7", || e7_mle(2_000, 3)),
    ("E8", || e8_moments(1 << 10, 30_000, 3)),
    ("E9", || e9_recursive_ablation(1 << 10, 30_000, 3)),
    ("E10", || e10_applications(3)),
];

/// The experiments named by `ids` (case-insensitive), in suite order; the
/// whole suite when `ids` is empty.  An unknown id is an error that lists
/// the valid ones.  Nothing runs here: the caller runs what it gets.
pub fn select_experiments(ids: &[String]) -> Result<Vec<Experiment>, String> {
    let wanted: Vec<String> = ids.iter().map(|id| id.to_uppercase()).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|id| !EXPERIMENTS.iter().any(|(known, _)| known == id))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        return Err(format!(
            "unknown experiment {unknown}; valid ids: {}",
            valid.join(" ")
        ));
    }
    Ok(EXPERIMENTS
        .into_iter()
        .filter(|(id, _)| wanted.is_empty() || wanted.iter().any(|w| w == id))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Keep the unit tests cheap: they check shape and headline direction on
    // reduced parameters; the full-scale numbers are what `exp_all` prints.

    #[test]
    fn selection_is_case_insensitive_and_rejects_unknown_ids() {
        let ids = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let picked = select_experiments(&ids(&["e4"])).unwrap();
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].0, "E4");
        let picked = select_experiments(&ids(&["E6", "e4"])).unwrap();
        assert_eq!(
            picked.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            ["E4", "E6"]
        );
        assert_eq!(select_experiments(&[]).unwrap().len(), EXPERIMENTS.len());
        let err = select_experiments(&ids(&["E4", "E11"])).unwrap_err();
        assert!(err.contains("E11") && err.contains("E1 E2"), "{err}");
    }

    #[test]
    fn e1_table_matches_ground_truth_on_fast_window() {
        let table = e1_classification(&PropertyConfig::fast());
        assert!(table.rows.len() >= 20);
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "true", "mismatch row: {row:?}");
        }
    }

    #[test]
    fn e2_errors_shrink_with_width() {
        let table = e2_one_pass_accuracy(1 << 9, 8_000, 1);
        // For each function, error at the widest sketch ≤ error at the
        // narrowest + slack.
        for chunk in table.rows.chunks(3) {
            let narrow: f64 = chunk[0][3].parse().unwrap();
            let wide: f64 = chunk[2][3].parse().unwrap();
            assert!(wide <= narrow + 0.15, "{chunk:?}");
            assert!(wide < 0.5, "{chunk:?}");
        }
    }

    #[test]
    fn e4_exact_statistic_always_separates() {
        let table = e4_lower_bounds(8);
        for row in table.rows.iter().filter(|r| r[2] == "exact g-SUM") {
            let adv: f64 = row[4].parse().unwrap();
            assert!(adv > 0.9, "{row:?}");
        }
    }

    #[test]
    fn e6_counter_algorithm_is_mostly_correct() {
        let table = e6_shortlinear(8);
        for row in &table.rows {
            let yes: f64 = row[3].parse().unwrap();
            let no: f64 = row[4].parse().unwrap();
            assert!(yes >= 0.75 && no >= 0.75, "{row:?}");
        }
    }

    #[test]
    fn e5_special_algorithm_beats_generic_or_is_accurate() {
        let table = e5_nearly_periodic(3);
        let special: f64 = table.rows[0][1].parse().unwrap();
        assert!(special < 0.5, "{table:?}");
    }
}
