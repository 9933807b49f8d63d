//! Walker/Vose alias tables for O(1) bounded-support draws.
//!
//! The cached inversion tables in [`super::cache`] pay one uniform plus a
//! CDF search per draw.  [`DiscreteAlias`] squeezes that to one uniform and
//! two array reads, *unconditionally*, by the classic alias decomposition:
//! the support is split into `len` equal-probability columns, each column
//! holding at most two outcomes (itself and one "alias"), so a single
//! uniform picks the column with its integer part and resolves the
//! column's coin flip with its fractional part.
//!
//! Alias draws are **not** bit-compatible with [`super::sample_binomial`] /
//! [`super::sample_hypergeometric`]: they consume the RNG differently and
//! map a given uniform to a different value.  They sample the *same law* —
//! the χ² goodness-of-fit tests below pin every table to the exact pmf —
//! which is exactly the contract of the opt-in
//! [`SamplerMode::Fast`](super::SamplerMode) engine mode.  Table
//! construction is deterministic: the same parameters always produce the
//! same probabilities and aliases (see [`DiscreteAlias::checksum`]), so
//! fast-mode runs still replay bit-for-bit against themselves.

use super::{binomial_pmf_zero, sample_binomial};
use crate::rng::DeterministicRng;
use crate::special::ln_binomial;

/// Largest support an alias table will materialise; mirrors the inversion
/// caches' bound so both modes delegate the same oversize parameter sets.
pub(crate) const MAX_ALIAS_LEN: usize = 4096;

/// A Walker/Vose alias table over the contiguous support
/// `base ..= base + len − 1`.
///
/// One uniform per draw: the integer part selects a column, the fractional
/// part resolves the column's two-way split.  Construction is `O(len)` and
/// fully deterministic.
///
/// ```
/// use redundancy_stats::{DeterministicRng, DiscreteAlias};
/// let table = DiscreteAlias::binomial(12, 0.1).unwrap();
/// let mut rng = DeterministicRng::new(7);
/// let x = table.sample(&mut rng);
/// assert!(x <= 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteAlias {
    base: u64,
    prob: Box<[f64]>,
    alias: Box<[u32]>,
    /// The normalised pmf the table was built from — kept so callers can
    /// bin whole batches through [`Self::multinomial_into`] without
    /// re-deriving the distribution from the folded columns.
    pmf: Box<[f64]>,
}

impl DiscreteAlias {
    /// Build a table over `base ..= base + weights.len() − 1` from
    /// non-negative weights (any positive total; normalisation is
    /// internal).  Returns `None` if the weights are empty, longer than
    /// `MAX_ALIAS_LEN`, contain a negative or non-finite value, or sum to
    /// zero.
    pub fn from_weights(base: u64, weights: &[f64]) -> Option<Self> {
        let n = weights.len();
        if n == 0 || n > MAX_ALIAS_LEN {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if !total.is_finite() || total <= 0.0 || weights.iter().any(|&w| w < 0.0 || !w.is_finite())
        {
            return None;
        }
        // Vose's stack discipline: columns below the 1/n waterline take
        // their deficit from one column above it.  Processing order is a
        // pure function of the weights, so tables are reproducible.
        let pmf: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Round-off stragglers saturate: their column never defers.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        Some(DiscreteAlias {
            base,
            prob: prob.into_boxed_slice(),
            alias: alias.into_boxed_slice(),
            pmf: pmf.into_boxed_slice(),
        })
    }

    /// Alias table for `Binomial(n, p)` over the full support `0 ..= n`.
    ///
    /// The pmf is generated by the same `f64` recurrence the inversion
    /// walk uses (mirrored to `q = 1 − p ≤ ½` and reversed, so `p > ½`
    /// stays exact).  Returns `None` for the cases the engine must keep
    /// delegating: degenerate parameters (`n == 0`, `p ∈ {0, 1}` — no
    /// randomness needed), supports beyond `MAX_ALIAS_LEN`, and the
    /// `pmf(0)` underflow that routes the walk to its normal fallback.
    pub fn binomial(n: u64, p: f64) -> Option<Self> {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        if n == 0 || p == 0.0 || p == 1.0 {
            return None;
        }
        if n as u128 + 1 > MAX_ALIAS_LEN as u128 {
            return None;
        }
        let q = if p > 0.5 { 1.0 - p } else { p };
        let mut pmf = binomial_pmf_zero(n, q);
        if pmf == 0.0 {
            return None;
        }
        let odds = q / (1.0 - q);
        let mut weights = Vec::with_capacity(n as usize + 1);
        weights.push(pmf);
        for k in 0..n {
            pmf *= (n - k) as f64 / (k + 1) as f64 * odds;
            weights.push(pmf);
        }
        if p > 0.5 {
            // pmf_p(k) = pmf_q(n − k): reflect the support.
            weights.reverse();
        }
        Self::from_weights(0, &weights)
    }

    /// Alias table for `Hypergeometric(total, successes, draws)` over its
    /// support `k_min ..= k_max`.
    ///
    /// Same pmf recurrence as the inversion walk.  Returns `None` for
    /// degenerate parameters (`draws == 0 || successes == 0`) and
    /// oversize supports, mirroring the inversion caches' delegation.
    pub fn hypergeometric(total: u64, successes: u64, draws: u64) -> Option<Self> {
        assert!(successes <= total, "successes {successes} > total {total}");
        assert!(draws <= total, "draws {draws} > total {total}");
        if draws == 0 || successes == 0 {
            return None;
        }
        let k_min = draws.saturating_sub(total - successes);
        let k_max = successes.min(draws);
        if (k_max - k_min) as u128 + 1 > MAX_ALIAS_LEN as u128 {
            return None;
        }
        let mut pmf = (ln_binomial(successes, k_min)
            + ln_binomial(total - successes, draws - k_min)
            - ln_binomial(total, draws))
        .exp();
        let mut weights = Vec::with_capacity((k_max - k_min) as usize + 1);
        weights.push(pmf);
        for k in k_min..k_max {
            let remaining_failures = (total - successes + k + 1) - draws;
            let ratio = (successes - k) as f64 * (draws - k) as f64
                / ((k + 1) as f64 * remaining_failures as f64);
            pmf *= ratio;
            weights.push(pmf);
        }
        Self::from_weights(k_min, &weights)
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no support points (unreachable for
    /// constructed tables; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Smallest value the table can return.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Draw one value, consuming exactly one uniform.
    #[inline]
    pub fn sample(&self, rng: &mut DeterministicRng) -> u64 {
        let n = self.prob.len();
        let u = rng.uniform() * n as f64;
        // `uniform() < 1` but `u` can round up to exactly `n`; clamp.
        let i = (u as usize).min(n - 1);
        let frac = u - i as f64;
        let col = if frac < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        };
        self.base + col as u64
    }

    /// The normalised pmf over the support, indexed from [`Self::base`].
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// Bin `count` iid draws in one shot: add the joint histogram of
    /// `count` [`sample`](Self::sample) draws — a multinomial over the
    /// support — into `counts[base + j]`, sampled by the chain rule as one
    /// conditional binomial per support point.
    ///
    /// The result has exactly the law of drawing `count` times and
    /// binning, but the cost scales with the *support size* (at most
    /// `len − 1` inversion walks), not the draw count — this is what lets
    /// the fast engine mode tally a whole spec group without touching the
    /// RNG once per task.  Not RNG-stream-compatible with per-draw
    /// sampling; like every fast-mode path it is deterministic for a
    /// given seed.
    ///
    /// `counts` must extend past `base + len − 1`; existing entries are
    /// added to, not overwritten.
    pub fn multinomial_into(&self, count: u64, rng: &mut DeterministicRng, counts: &mut [u64]) {
        let base = self.base as usize;
        let last = self.pmf.len() - 1;
        let mut remaining = count;
        let mut tail = 1.0f64;
        for (j, &p) in self.pmf[..last].iter().enumerate() {
            if remaining == 0 {
                return;
            }
            // Conditional probability of bin j given the mass not yet
            // placed; round-off can push `p` past `tail`, which must clamp
            // to "everything left lands here", never feed NaN to the walk.
            let cond = if p < tail { p / tail } else { 1.0 };
            let c = sample_binomial(rng, remaining, cond);
            counts[base + j] += c;
            remaining -= c;
            tail -= p;
        }
        counts[base + last] += remaining;
    }

    /// FNV-1a fold over the table's exact contents (base, probability
    /// bits, aliases, pmf).  Two tables built from the same parameters —
    /// on any machine, at any thread count — must agree on this.
    pub fn checksum(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        fold(self.base);
        fold(self.prob.len() as u64);
        for &p in self.prob.iter() {
            fold(p.to_bits());
        }
        for &a in self.alias.iter() {
            fold(u64::from(a));
        }
        for &p in self.pmf.iter() {
            fold(p.to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Histogram;
    use crate::gof::chi_square_test;
    use crate::special::{binomial_pmf, hypergeometric_pmf};

    fn gof_binomial(n: u64, p: f64, draws: usize, seed: u64) {
        let table = DiscreteAlias::binomial(n, p).expect("in-range parameters");
        assert_eq!(table.len(), n as usize + 1);
        assert_eq!(table.base(), 0);
        let mut rng = DeterministicRng::new(seed);
        let mut hist = Histogram::new();
        for _ in 0..draws {
            let x = table.sample(&mut rng);
            assert!(x <= n, "n={n} p={p}: drew {x}");
            hist.record(x as usize);
        }
        let probs: Vec<f64> = (0..=n).map(|k| binomial_pmf(n, p, k)).collect();
        let gof = chi_square_test(&hist, &probs, 5.0).expect("enough bins");
        assert!(
            gof.consistent(0.001),
            "alias Binomial({n}, {p}) rejected: {gof:?}"
        );
    }

    fn gof_hypergeometric(total: u64, successes: u64, draws: u64, reps: usize, seed: u64) {
        let table = DiscreteAlias::hypergeometric(total, successes, draws).expect("in-range");
        let k_min = draws.saturating_sub(total - successes);
        let k_max = successes.min(draws);
        assert_eq!(table.base(), k_min);
        assert_eq!(table.len(), (k_max - k_min) as usize + 1);
        let mut rng = DeterministicRng::new(seed);
        let mut hist = Histogram::new();
        for _ in 0..reps {
            let x = table.sample(&mut rng);
            assert!(
                (k_min..=k_max).contains(&x),
                "({total},{successes},{draws}): drew {x}"
            );
            hist.record(x as usize);
        }
        if k_min == k_max {
            // A one-point support has no χ² degrees of freedom; the in-range
            // assertion above already pinned every draw to the point mass.
            return;
        }
        let probs: Vec<f64> = (0..=k_max)
            .map(|k| hypergeometric_pmf(total, successes, draws, k))
            .collect();
        let gof = chi_square_test(&hist, &probs, 5.0).expect("enough bins");
        assert!(
            gof.consistent(0.001),
            "alias Hypergeometric({total},{successes},{draws}) rejected: {gof:?}"
        );
    }

    #[test]
    fn binomial_alias_passes_gof_across_grid() {
        let mut seed = 9_000;
        for &n in &[1u64, 2, 7, 12, 40, 80] {
            for &p in &[0.01, 0.1, 0.3, 0.5, 0.55, 0.9, 0.99] {
                seed += 1;
                gof_binomial(n, p, 20_000, seed);
            }
        }
    }

    #[test]
    fn binomial_alias_boundary_point_masses() {
        // Near-degenerate laws concentrate almost all mass on one point;
        // the table must still produce the exact support and pass GOF.
        gof_binomial(1, 0.01, 20_000, 42);
        gof_binomial(1, 0.99, 20_000, 43);
        gof_binomial(40, 0.001, 20_000, 44);
    }

    #[test]
    fn binomial_alias_delegated_cases_return_none() {
        assert!(DiscreteAlias::binomial(0, 0.5).is_none());
        assert!(DiscreteAlias::binomial(10, 0.0).is_none());
        assert!(DiscreteAlias::binomial(10, 1.0).is_none());
        assert!(DiscreteAlias::binomial(MAX_ALIAS_LEN as u64 + 1, 0.3).is_none());
        // pmf(0) underflow (the walk's normal fallback).
        assert!(DiscreteAlias::binomial(4000, 0.5).is_none());
    }

    #[test]
    fn hypergeometric_alias_passes_gof_across_grid() {
        let mut seed = 9_500;
        for &(t, s, d) in &[
            (1u64, 1u64, 1u64),
            (10, 4, 5),
            (20, 8, 15), // k_min = 3 > 0: offset support
            (50, 50, 7), // point mass at 7
            (100, 30, 12),
            (100, 1, 99), // two-point support {0, 1}, k_max tiny
            (200, 120, 200),
        ] {
            seed += 1;
            gof_hypergeometric(t, s, d, 20_000, seed);
        }
    }

    #[test]
    fn hypergeometric_alias_degenerate_cases_return_none() {
        assert!(DiscreteAlias::hypergeometric(10, 0, 5).is_none());
        assert!(DiscreteAlias::hypergeometric(10, 4, 0).is_none());
    }

    #[test]
    fn point_mass_support_is_exact() {
        // total == successes == draws pins k to draws with certainty.
        let table = DiscreteAlias::hypergeometric(5, 5, 5).unwrap();
        assert_eq!(table.len(), 1);
        let mut rng = DeterministicRng::new(3);
        for _ in 0..200 {
            assert_eq!(table.sample(&mut rng), 5);
        }
    }

    #[test]
    fn from_weights_rejects_bad_inputs() {
        assert!(DiscreteAlias::from_weights(0, &[]).is_none());
        assert!(DiscreteAlias::from_weights(0, &[0.0, 0.0]).is_none());
        assert!(DiscreteAlias::from_weights(0, &[1.0, -1.0]).is_none());
        assert!(DiscreteAlias::from_weights(0, &[f64::NAN]).is_none());
        assert!(DiscreteAlias::from_weights(0, &vec![1.0; MAX_ALIAS_LEN + 1]).is_none());
    }

    #[test]
    fn sample_consumes_exactly_one_uniform() {
        let table = DiscreteAlias::binomial(12, 0.1).unwrap();
        let mut a = DeterministicRng::new(11);
        let mut b = a.clone();
        for _ in 0..1_000 {
            let _ = table.sample(&mut a);
            let _ = b.uniform();
        }
        assert_eq!(a, b, "alias draw must consume exactly one uniform");
    }

    #[test]
    fn multinomial_preserves_the_count_and_support() {
        let mut rng = DeterministicRng::new(21);
        for (table, hi) in [
            (DiscreteAlias::binomial(3, 0.1).unwrap(), 3),
            (DiscreteAlias::binomial(12, 0.55).unwrap(), 12),
            (DiscreteAlias::hypergeometric(20, 8, 15).unwrap(), 8),
        ] {
            for count in [0u64, 1, 7, 2_000] {
                let mut counts = vec![0u64; hi + 1];
                table.multinomial_into(count, &mut rng, &mut counts);
                assert_eq!(counts.iter().sum::<u64>(), count);
                let base = table.base() as usize;
                for (k, &c) in counts.iter().enumerate() {
                    assert!(
                        c == 0 || (base..base + table.len()).contains(&k),
                        "count in bin {k} outside support"
                    );
                }
            }
        }
    }

    #[test]
    fn multinomial_is_deterministic_and_accumulates() {
        let table = DiscreteAlias::binomial(3, 0.1).unwrap();
        let run = |seed: u64| {
            let mut rng = DeterministicRng::new(seed);
            let mut counts = vec![0u64; 4];
            table.multinomial_into(1_000, &mut rng, &mut counts);
            (counts, rng)
        };
        let (a, a_rng) = run(5);
        let (b, b_rng) = run(5);
        assert_eq!(a, b);
        assert_eq!(a_rng, b_rng);
        // `counts` is additive: binning twice folds into the same slice.
        let mut rng = DeterministicRng::new(5);
        let mut counts = vec![0u64; 4];
        table.multinomial_into(1_000, &mut rng, &mut counts);
        assert_eq!(counts, a);
        table.multinomial_into(500, &mut rng, &mut counts);
        assert_eq!(counts.iter().sum::<u64>(), 1_500);
        for (k, &c) in counts.iter().enumerate() {
            assert!(c >= a[k], "a second binning may only grow bin {k}");
        }
    }

    /// The batched histogram must follow the same law as per-draw
    /// sampling: Pearson χ² of one large multinomial draw against the
    /// exact pmf.
    #[test]
    fn multinomial_matches_the_pmf() {
        let mut seed = 11_000;
        for &(n, p) in &[(2u64, 0.1), (3, 0.5), (12, 0.1), (40, 0.9)] {
            seed += 1;
            let table = DiscreteAlias::binomial(n, p).unwrap();
            let mut rng = DeterministicRng::new(seed);
            let mut counts = vec![0u64; n as usize + 1];
            table.multinomial_into(50_000, &mut rng, &mut counts);
            let mut hist = Histogram::new();
            for (k, &c) in counts.iter().enumerate() {
                hist.record_n(k, c);
            }
            let probs: Vec<f64> = (0..=n).map(|k| binomial_pmf(n, p, k)).collect();
            let gof = chi_square_test(&hist, &probs, 5.0).expect("enough bins");
            assert!(
                gof.consistent(0.001),
                "multinomial Binomial({n}, {p}) rejected: {gof:?}"
            );
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let one = DiscreteAlias::binomial(40, 0.3).unwrap();
        let two = DiscreteAlias::binomial(40, 0.3).unwrap();
        assert_eq!(one, two);
        assert_eq!(one.checksum(), two.checksum());
        let other = DiscreteAlias::binomial(40, 0.31).unwrap();
        assert_ne!(one.checksum(), other.checksum());
    }

    /// Satellite guarantee: alias tables built concurrently on worker
    /// threads are identical to the single-threaded build — construction
    /// has no thread-sensitive state.
    #[test]
    fn construction_is_deterministic_across_thread_counts() {
        use crate::parallel::{run_trials, TrialConfig};
        let params: Vec<(u64, f64)> = vec![(12, 0.1), (40, 0.3), (80, 0.55), (7, 0.9)];
        let reference: Vec<u64> = params
            .iter()
            .map(|&(n, p)| DiscreteAlias::binomial(n, p).unwrap().checksum())
            .collect();
        for threads in [1usize, 2, 4] {
            #[derive(Default)]
            struct Checksums(Vec<Vec<u64>>);
            let cfg = TrialConfig {
                trials: 64,
                chunk_size: 4,
                threads,
                seed: 77,
                sampler: crate::samplers::SamplerMode::Fast,
            };
            let got: Checksums = run_trials(
                &cfg,
                |_rng, _i, acc: &mut Checksums| {
                    acc.0.push(
                        params
                            .iter()
                            .map(|&(n, p)| DiscreteAlias::binomial(n, p).unwrap().checksum())
                            .collect(),
                    );
                },
                |a, mut b| a.0.append(&mut b.0),
            );
            assert_eq!(got.0.len(), 64);
            for built in &got.0 {
                assert_eq!(built, &reference, "threads={threads}");
            }
        }
    }
}
