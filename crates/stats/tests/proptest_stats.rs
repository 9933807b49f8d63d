//! Property-based tests for the numerics/sampling substrate.

use proptest::prelude::*;
use redundancy_stats::samplers::{
    sample_binomial, sample_geometric, sample_hypergeometric, sample_zero_truncated_poisson,
    AliasTable,
};
use redundancy_stats::special::{
    binomial, binomial_pmf, hypergeometric_pmf, ln_binomial, ln_factorial,
};
use redundancy_stats::{
    chi_square_test, BinomialCache, DeterministicRng, Histogram, HypergeometricCache,
    PreparedSampler, Proportion, RunningMoments, SeedSequence,
};

/// Batch sizes for the `histogram_into` differential tests: empty, one
/// draw, a short batch and a campaign-sized one.
const BATCH_COUNTS: [u64; 4] = [0, 1, 37, 5_000];

/// Bin `count` draws through `histogram_into` and through `count` single
/// draws on clones of one RNG: the two must add the same histogram to the
/// same (non-empty) bins and leave the RNG in the same state.
fn histogram_matches_single_draws(
    sampler: PreparedSampler<'_>,
    support: usize,
    count: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut batch_rng = DeterministicRng::new(seed);
    let mut single_rng = batch_rng.clone();
    let mut batch: Vec<u64> = (0..support as u64).collect();
    let mut single = batch.clone();
    sampler.histogram_into(count, &mut batch_rng, &mut batch);
    for _ in 0..count {
        single[sampler.sample(&mut single_rng) as usize] += 1;
    }
    prop_assert_eq!(&batch, &single, "histograms differ over {} draws", count);
    prop_assert_eq!(
        batch_rng,
        single_rng,
        "RNG consumption differs over {} draws",
        count
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ln C(n,k)` and the direct `C(n,k)` agree wherever both are finite.
    #[test]
    fn binomial_log_consistency(n in 0u64..120, k in 0u64..120) {
        let direct = binomial(n, k);
        if k > n {
            prop_assert_eq!(direct, 0.0);
            prop_assert!(ln_binomial(n, k).is_infinite());
        } else {
            let logged = ln_binomial(n, k).exp();
            let rel = (direct - logged).abs() / logged.max(1.0);
            prop_assert!(rel < 1e-9, "C({},{}) {} vs {}", n, k, direct, logged);
        }
    }

    /// Factorial recurrence holds across the table/Stirling seam.
    #[test]
    fn ln_factorial_recurrence(n in 1u64..5_000) {
        let lhs = ln_factorial(n);
        let rhs = ln_factorial(n - 1) + (n as f64).ln();
        prop_assert!((lhs - rhs).abs() < 1e-8, "n={}", n);
    }

    /// Binomial samples live on the right support and match the mean.
    #[test]
    fn binomial_sampler_mean(n in 1u64..60, p_cent in 0u32..=100, seed in 0u64..1000) {
        let p = p_cent as f64 / 100.0;
        let mut rng = DeterministicRng::new(seed);
        let trials = 3_000u32;
        let mut sum = 0.0;
        for _ in 0..trials {
            let x = sample_binomial(&mut rng, n, p);
            prop_assert!(x <= n);
            sum += x as f64;
        }
        let mean = sum / trials as f64;
        let expect = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        prop_assert!((mean - expect).abs() < 5.0 * sd / (trials as f64).sqrt() + 1e-9,
            "n={} p={} mean {} expect {}", n, p, mean, expect);
    }

    /// `BinomialCache` is draw-for-draw identical to `sample_binomial` on a
    /// shared RNG stream — values equal AND uniforms consumed equal, over an
    /// arbitrary `(n, p)` grid including the mirrored and degenerate ranges.
    #[test]
    fn binomial_cache_is_bit_identical_to_walk(
        n in 0u64..200,
        p_mill in 0u32..=1000,
        seed in 0u64..1000,
    ) {
        let p = p_mill as f64 / 1000.0;
        let mut walk_rng = DeterministicRng::new(seed);
        let mut cache_rng = walk_rng.clone();
        let mut cache = BinomialCache::default();
        let id = cache.prepare(n, p);
        for i in 0..200 {
            let want = sample_binomial(&mut walk_rng, n, p);
            let got = cache.sample_prepared(id, &mut cache_rng);
            prop_assert_eq!(want, got, "n={} p={} draw {}", n, p, i);
        }
        prop_assert_eq!(walk_rng, cache_rng, "RNG consumption diverged n={} p={}", n, p);
    }

    /// `HypergeometricCache` is draw-for-draw identical to
    /// `sample_hypergeometric` on a shared RNG stream.
    #[test]
    fn hypergeometric_cache_is_bit_identical_to_walk(
        total in 1u64..300,
        succ_frac in 0u32..=100,
        draw_frac in 0u32..=100,
        seed in 0u64..1000,
    ) {
        let successes = total * succ_frac as u64 / 100;
        let draws = total * draw_frac as u64 / 100;
        let mut walk_rng = DeterministicRng::new(seed);
        let mut cache_rng = walk_rng.clone();
        let mut cache = HypergeometricCache::default();
        let id = cache.prepare(total, successes, draws);
        for i in 0..200 {
            let want = sample_hypergeometric(&mut walk_rng, total, successes, draws);
            let got = cache.sample_prepared(id, &mut cache_rng);
            prop_assert_eq!(want, got, "({},{},{}) draw {}", total, successes, draws, i);
        }
        prop_assert_eq!(walk_rng, cache_rng,
            "RNG consumption diverged ({},{},{})", total, successes, draws);
    }

    /// `histogram_into` on binomial plans equals `count` single draws:
    /// unrolled (n ≤ 8) and per-draw tables, mirrored tables (p > ½) and
    /// the degenerate plans.
    #[test]
    fn binomial_histogram_matches_single_draws(
        n in 0u64..48,
        p_mill in 0u32..=1000,
        pick in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut cache = BinomialCache::default();
        let id = cache.prepare(n, p_mill as f64 / 1000.0);
        histogram_matches_single_draws(cache.prepared(id), n as usize + 1, BATCH_COUNTS[pick], seed)?;
    }

    /// `histogram_into` on hypergeometric plans equals `count` single
    /// draws, `k_min > 0` supports included.
    #[test]
    fn hypergeometric_histogram_matches_single_draws(
        total in 1u64..120,
        succ_frac in 0u32..=100,
        draw_frac in 0u32..=100,
        pick in 0usize..4,
        seed in 0u64..1000,
    ) {
        let successes = total * succ_frac as u64 / 100;
        let draws = total * draw_frac as u64 / 100;
        let mut cache = HypergeometricCache::default();
        let id = cache.prepare(total, successes, draws);
        let support = successes.min(draws) as usize + 1;
        histogram_matches_single_draws(cache.prepared(id), support, BATCH_COUNTS[pick], seed)?;
    }

    /// Hypergeometric samples respect their support bounds.
    #[test]
    fn hypergeometric_support(
        total in 1u64..500,
        succ_frac in 0u32..=100,
        draw_frac in 0u32..=100,
        seed in 0u64..500,
    ) {
        let successes = total * succ_frac as u64 / 100;
        let draws = total * draw_frac as u64 / 100;
        let mut rng = DeterministicRng::new(seed);
        for _ in 0..50 {
            let x = sample_hypergeometric(&mut rng, total, successes, draws);
            let lo = draws.saturating_sub(total - successes);
            let hi = successes.min(draws);
            prop_assert!((lo..=hi).contains(&x), "x={} not in [{},{}]", x, lo, hi);
        }
    }

    /// Zero-truncated Poisson never returns zero and matches its mean.
    #[test]
    fn ztp_support_and_mean(lam_cent in 5u32..300, seed in 0u64..200) {
        let lam = lam_cent as f64 / 100.0;
        let mut rng = DeterministicRng::new(seed);
        let trials = 2_000;
        let mut sum = 0.0;
        for _ in 0..trials {
            let x = sample_zero_truncated_poisson(&mut rng, lam);
            prop_assert!(x >= 1);
            sum += x as f64;
        }
        let mean = sum / trials as f64;
        let expect = lam / (1.0 - (-lam).exp());
        prop_assert!((mean - expect).abs() < 0.15 + expect * 0.05,
            "λ={}: {} vs {}", lam, mean, expect);
    }

    /// Geometric sampler: support ≥ 1, mean 1/q.
    #[test]
    fn geometric_mean(q_cent in 5u32..=100, seed in 0u64..200) {
        let q = q_cent as f64 / 100.0;
        let mut rng = DeterministicRng::new(seed);
        let trials = 3_000;
        let mut sum = 0.0;
        for _ in 0..trials {
            let x = sample_geometric(&mut rng, q);
            prop_assert!(x >= 1);
            sum += x as f64;
        }
        let mean = sum / trials as f64;
        prop_assert!((mean - 1.0 / q).abs() < 0.35 / q / (trials as f64 / 1000.0).sqrt() + 0.05,
            "q={}: mean {}", q, mean);
    }

    /// Alias tables never emit zero-weight categories and hit positive ones.
    #[test]
    fn alias_table_support(
        weights in proptest::collection::vec(0.0f64..10.0, 1..12),
        seed in 0u64..200,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = DeterministicRng::new(seed);
        let mut seen = vec![false; weights.len()];
        for _ in 0..2_000 {
            let c = table.sample(&mut rng);
            prop_assert!(weights[c] > 0.0, "zero-weight category {} drawn", c);
            seen[c] = true;
        }
        // Heaviest category must be represented.
        let heaviest = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        prop_assert!(seen[heaviest]);
    }

    /// Welford merge equals sequential accumulation on arbitrary splits.
    #[test]
    fn moments_merge_associative(
        data in proptest::collection::vec(-1e6f64..1e6, 2..200),
        cut_frac in 0u32..=100,
    ) {
        let cut = (data.len() * cut_frac as usize / 100).min(data.len());
        let mut whole = RunningMoments::new();
        for &x in &data { whole.push(x); }
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        for &x in &data[..cut] { a.push(x); }
        for &x in &data[cut..] { b.push(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * whole.mean().abs().max(1.0));
        prop_assert!((a.sample_variance() - whole.sample_variance()).abs()
            < 1e-6 * whole.sample_variance().abs().max(1.0));
    }

    /// Wilson intervals always contain the point estimate and live in [0,1].
    #[test]
    fn wilson_contains_estimate(successes in 0u64..500, extra in 0u64..500) {
        let trials = successes + extra;
        prop_assume!(trials > 0);
        let mut p = Proportion::new();
        p.push_batch(successes, trials);
        let (lo, hi) = p.wilson_interval(1.96);
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        prop_assert!(lo <= p.estimate() + 1e-12 && p.estimate() <= hi + 1e-12);
    }

    /// Histograms: total equals sum of counts; merge is additive.
    #[test]
    fn histogram_additivity(
        a_vals in proptest::collection::vec(0usize..40, 0..100),
        b_vals in proptest::collection::vec(0usize..40, 0..100),
    ) {
        let mut a = Histogram::new();
        for &v in &a_vals { a.record(v); }
        let mut b = Histogram::new();
        for &v in &b_vals { b.record(v); }
        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert_eq!(merged.total(), (a_vals.len() + b_vals.len()) as u64);
        for v in 0..40 {
            prop_assert_eq!(merged.count(v), a.count(v) + b.count(v));
        }
    }

    /// Seed sequences: derive is injective in practice over small ranges
    /// and independent of call order.
    #[test]
    fn seed_sequence_stability(root in 0u64..u64::MAX, i in 0u64..10_000, j in 0u64..10_000) {
        let seq = SeedSequence::new(root);
        prop_assert_eq!(seq.derive(i), SeedSequence::new(root).derive(i));
        if i != j {
            prop_assert_ne!(seq.derive(i), seq.derive(j));
        }
    }
}

// Goodness-of-fit properties are heavier (thousands of draws per case and a
// χ² evaluation), so they run in their own block with fewer cases.  The
// significance level is 1e-4: with 8 cases per property the probability of
// a false rejection under the true law is ~1e-3, and the shim's
// deterministic name-derived seeding means a passing configuration stays
// passing forever.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// χ² goodness of fit: `sample_binomial` draws follow the exact pmf.
    #[test]
    fn binomial_sampler_matches_exact_pmf(
        n in 2u64..50,
        p_cent in 5u32..=95,
        seed in 0u64..1_000,
    ) {
        let p = p_cent as f64 / 100.0;
        let mut rng = DeterministicRng::new(seed);
        let mut hist = Histogram::new();
        for _ in 0..4_000 {
            hist.record(sample_binomial(&mut rng, n, p) as usize);
        }
        let probs: Vec<f64> = (0..=n).map(|k| binomial_pmf(n, p, k)).collect();
        // Pooling can collapse a near-degenerate law to one bin (None):
        // nothing testable there.
        if let Some(result) = chi_square_test(&hist, &probs, 5.0) {
            prop_assert!(
                result.consistent(1e-4),
                "Bin({}, {}) rejected at seed {}: {:?}", n, p, seed, result
            );
        }
    }

    /// χ² goodness of fit: `sample_hypergeometric` draws follow the exact pmf.
    #[test]
    fn hypergeometric_sampler_matches_exact_pmf(
        total in 10u64..200,
        succ_frac in 10u32..=90,
        draw_frac in 10u32..=90,
        seed in 0u64..1_000,
    ) {
        let successes = total * succ_frac as u64 / 100;
        let draws = total * draw_frac as u64 / 100;
        prop_assume!(successes >= 1 && draws >= 1);
        let mut rng = DeterministicRng::new(seed);
        let mut hist = Histogram::new();
        for _ in 0..4_000 {
            hist.record(sample_hypergeometric(&mut rng, total, successes, draws) as usize);
        }
        let hi = successes.min(draws);
        let probs: Vec<f64> = (0..=hi)
            .map(|k| hypergeometric_pmf(total, successes, draws, k))
            .collect();
        if let Some(result) = chi_square_test(&hist, &probs, 5.0) {
            prop_assert!(
                result.consistent(1e-4),
                "Hyp({}, {}, {}) rejected at seed {}: {:?}",
                total, successes, draws, seed, result
            );
        }
    }
}

/// The plans a random grid rarely reaches: single-entry tables, the
/// underflow and oversize delegates, degenerate plans and tables wide
/// enough for the binary search.
#[test]
fn histogram_matches_single_draws_on_pinned_plans() {
    let check = |sampler: PreparedSampler<'_>, support: u64| {
        for (i, count) in [0u64, 1, 2_000].into_iter().enumerate() {
            histogram_matches_single_draws(sampler, support as usize + 1, count, 40 + i as u64)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    };
    let mut binomial = BinomialCache::default();
    for (n, p) in [
        (0u64, 0.5),
        (10, 0.0),
        (10, 1.0),
        (4_000, 0.5),     // pmf(0) underflows: normal-approximation delegate
        (4_000, 0.50001), // the same, mirrored
        (4_097, 0.3),     // oversize delegate
        (300, 0.4),       // binary-searched table
        (300, 0.6),       // the same, mirrored
    ] {
        let id = binomial.prepare(n, p);
        check(binomial.prepared(id), n);
    }
    let mut hyper = HypergeometricCache::default();
    let wide = 4_096 + 10;
    for (total, successes, draws) in [
        (10u64, 0u64, 5u64),
        (10, 4, 0),
        (50, 50, 7),     // single entry at k = 7
        (200, 120, 200), // single entry at k = 120
        (1_000, 600, 500),
        (4 * wide, 2 * wide, 2 * wide), // oversize delegate
    ] {
        let id = hyper.prepare(total, successes, draws);
        check(hyper.prepared(id), successes.min(draws));
    }
}

#[test]
fn single_entry_tables_still_consume_one_uniform_per_draw() {
    let mut cache = HypergeometricCache::default();
    let id = cache.prepare(50, 50, 7);
    let mut rng = DeterministicRng::new(3);
    let mut expected = rng.clone();
    let mut bins = vec![0u64; 8];
    cache.prepared(id).histogram_into(100, &mut rng, &mut bins);
    for _ in 0..100 {
        expected.next_raw();
    }
    assert_eq!(rng, expected);
    assert_eq!(bins[7], 100);
}

#[test]
fn binomial_sampler_degenerate_probabilities_are_point_masses() {
    let mut rng = DeterministicRng::new(20_050_926);
    for n in [0u64, 1, 17, 64] {
        for _ in 0..200 {
            assert_eq!(sample_binomial(&mut rng, n, 0.0), 0);
            assert_eq!(sample_binomial(&mut rng, n, 1.0), n);
        }
    }
}

#[test]
fn hypergeometric_sampler_boundary_draws_are_deterministic() {
    let mut rng = DeterministicRng::new(20_050_926);
    for _ in 0..200 {
        // Drawing the whole population takes every marked item.
        assert_eq!(sample_hypergeometric(&mut rng, 30, 12, 30), 12);
        // Drawing nothing takes none.
        assert_eq!(sample_hypergeometric(&mut rng, 30, 12, 0), 0);
        // No marked items → never draw one; all marked → every draw is one.
        assert_eq!(sample_hypergeometric(&mut rng, 30, 0, 10), 0);
        assert_eq!(sample_hypergeometric(&mut rng, 30, 30, 10), 10);
    }
}
