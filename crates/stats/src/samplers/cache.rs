//! Cached CDF-inversion samplers.
//!
//! The campaign kernel draws one binomial (or hypergeometric) per task, but a
//! plan has only a handful of distinct multiplicities (Balanced: head, tail,
//! ringers), so the same `(n, p)` walk is recomputed hundreds of thousands of
//! times.  [`BinomialCache`] and [`HypergeometricCache`] precompute the
//! inversion CDF table once per distinct parameter set, turning each draw
//! into one uniform plus a short integer search, and a batch of draws from
//! one parameter set into one branch-free binning pass
//! ([`PreparedSampler::histogram_into`]).
//!
//! **Bit-for-bit contract:** for every parameter set and every RNG state, a
//! cached draw returns the same value *and consumes the same number of
//! uniforms* as the corresponding free function ([`sample_binomial`] /
//! [`sample_hypergeometric`]).  The tables are built with the identical
//! floating-point recurrence, in the identical order, so each partial CDF sum
//! is the same `f64` the per-draw walk would have computed; parameter sets
//! the walk handles specially (no-draw edge cases, the normal-approximation
//! underflow fallback) are captured as dedicated plan variants or delegated
//! to the free function verbatim.  This is what lets the batched engine keep
//! the golden snapshots byte-identical.
//!
//! **Integer thresholds.**  The walk returns the first `k` whose partial
//! sum `c_k` is not below its uniform `u`, clamped to the end of the
//! support.  [`DeterministicRng::uniform`] is exactly `u = m · 2⁻⁵³` for the
//! 53-bit integer `m = next_raw() >> 11`, and for every finite `c ≥ 0`
//!
//! ```text
//! c < m · 2⁻⁵³   ⟺   c · 2⁵³ < m   ⟺   ⌊c · 2⁵³⌋ < m
//! ```
//!
//! The first step is exact because scaling by a power of two is exact in
//! `f64`; the second holds because an integer exceeds a real exactly when it
//! exceeds the real's floor.  So a table stores `t_k = ⌊c_k · 2⁵³⌋` as a
//! `u64` in place of `c_k`, and makes every decision of the `f64` walk in
//! integers, with no rounding argument and no tolerance.  Each `c_k` adds a
//! pmf ≥ 0 to the one before, so the sums never decrease (a table build
//! asserts this, together with finiteness), and neither do the thresholds:
//! the thresholds below `m` form a prefix, and the walk's stop index is
//! their number.  The last support point is where the walk clamps, so its
//! threshold is never stored.
//!
//! The same argument bins a batch without a data-dependent branch: counter
//! `a_k` adds `m > t_k` for every draw, i.e. counts the draws whose stop
//! index exceeds `k`, so entry `k` receives `a_(k−1) − a_k` of them (with
//! `a_(−1)` the batch size and the counter past the last threshold 0).
//!
//! ```
//! use redundancy_stats::{BinomialCache, DeterministicRng};
//! let mut cache = BinomialCache::default();
//! let id = cache.prepare(40, 0.3); // hoisted out of the hot loop
//! let mut rng = DeterministicRng::new(7);
//! let x = cache.sample_prepared(id, &mut rng);
//! assert!(x <= 40);
//! ```

use std::collections::HashMap;

use super::alias::DiscreteAlias;
use super::{binomial_pmf_zero, sample_binomial, sample_hypergeometric, SamplerMode};
use crate::rng::DeterministicRng;
use crate::special::ln_binomial;

/// Largest inversion table a cache will materialise.  Campaign multiplicities
/// are ≤ ~80; anything beyond this bound is not a hot-loop parameter set and
/// is delegated to the exact free function instead.
const MAX_TABLE_LEN: usize = 4096;

/// Tables with at most this many thresholds compare every threshold on
/// every draw, with no branch on the drawn value: a batch keeps one
/// counter per threshold in registers, and a single draw counts the
/// thresholds below it.  This covers every multiplicity up to 8.
const NARROW_MAX: usize = 8;

/// Wider tables with at most this many thresholds are searched with a
/// forward linear scan (the expected stop index is tiny); longer ones use
/// binary search.
const LINEAR_SCAN_MAX: usize = 128;

/// `2⁵³`, the denominator of every [`DeterministicRng::uniform`] draw.
const UNIFORM_DENOMINATOR: f64 = (1u64 << 53) as f64;

/// One prepared sampling strategy for a distinct parameter set.
#[derive(Debug, Clone)]
enum Plan {
    /// Degenerate: return this value without consuming any randomness
    /// (binomial `n == 0 || p == 0` → 0, `p == 1` → n; hypergeometric
    /// `draws == 0 || successes == 0` → 0).
    Certain(u64),
    /// One uniform per draw, inverted through integer CDF thresholds (see
    /// the module docs).  Entry `i` is `⌊cdf_i · 2⁵³⌋` for the partial CDF
    /// sum at `base + i`, for every support point but the last, where the
    /// walk clamps; a single-point support has no thresholds and still
    /// consumes its uniform.  `mirror == Some(n)` means the table was built
    /// at `1 − p` and the draw is reflected to `n − k`, matching
    /// [`sample_binomial`]'s `p > ½` recursion.
    Table {
        base: u64,
        thresholds: Box<[u64]>,
        mirror: Option<u64>,
    },
    /// Parameter sets the walk handles via fallback (pmf(0) underflow) or
    /// that exceed [`MAX_TABLE_LEN`]: call the free function so the RNG
    /// consumption stays identical.
    DelegateBinomial { n: u64, p: f64 },
    DelegateHypergeometric {
        total: u64,
        successes: u64,
        draws: u64,
    },
    /// [`SamplerMode::Fast`] only: a Walker/Vose alias table — one uniform
    /// and two array reads per draw, *not* RNG-stream-compatible with the
    /// inversion walk (see [`super::alias`]).
    Alias(DiscreteAlias),
}

impl Plan {
    /// A table plan from the walk's partial CDF sums over
    /// `base ..= base + cdf.len() − 1`.
    ///
    /// Panics unless the sums are finite, non-negative and non-decreasing:
    /// the premises of the integer-threshold argument.
    fn table(base: u64, cdf: &[f64], mirror: Option<u64>) -> Plan {
        assert!(
            cdf.iter().all(|c| c.is_finite())
                && cdf.first().is_some_and(|&c| c >= 0.0)
                && cdf.windows(2).all(|w| w[0] <= w[1]),
            "CDF partial sums must be finite, non-negative and non-decreasing"
        );
        // `c · 2⁵³` is exact, and for `c ≥ 0` the saturating `as` cast
        // truncates to the floor.
        let thresholds = cdf[..cdf.len() - 1]
            .iter()
            .map(|&c| (c * UNIFORM_DENOMINATOR) as u64)
            .collect();
        Plan::Table {
            base,
            thresholds,
            mirror,
        }
    }

    #[inline]
    fn sample(&self, rng: &mut DeterministicRng) -> u64 {
        match self {
            Plan::Certain(value) => *value,
            Plan::Table {
                base,
                thresholds,
                mirror,
            } => {
                let idx = stop_index(thresholds, rng.uniform_numerator());
                reflect(base + idx as u64, *mirror)
            }
            Plan::DelegateBinomial { n, p } => sample_binomial(rng, *n, *p),
            Plan::DelegateHypergeometric {
                total,
                successes,
                draws,
            } => sample_hypergeometric(rng, *total, *successes, *draws),
            Plan::Alias(table) => table.sample(rng),
        }
    }

    fn histogram_into(&self, count: u64, rng: &mut DeterministicRng, bins: &mut [u64]) {
        match self {
            Plan::Certain(value) => bins[*value as usize] += count,
            Plan::Alias(table) => table.multinomial_into(count, rng, bins),
            Plan::Table {
                base,
                thresholds,
                mirror,
            } if thresholds.len() <= NARROW_MAX => {
                let bin = |idx: usize| reflect(base + idx as u64, *mirror) as usize;
                let t = &thresholds[..];
                // One arm per narrow width; the guard leaves NARROW_MAX last.
                match t.len() {
                    0 => bin_unrolled::<0>(t, count, rng, bin, bins),
                    1 => bin_unrolled::<1>(t, count, rng, bin, bins),
                    2 => bin_unrolled::<2>(t, count, rng, bin, bins),
                    3 => bin_unrolled::<3>(t, count, rng, bin, bins),
                    4 => bin_unrolled::<4>(t, count, rng, bin, bins),
                    5 => bin_unrolled::<5>(t, count, rng, bin, bins),
                    6 => bin_unrolled::<6>(t, count, rng, bin, bins),
                    7 => bin_unrolled::<7>(t, count, rng, bin, bins),
                    _ => bin_unrolled::<NARROW_MAX>(t, count, rng, bin, bins),
                }
            }
            // Wider tables and the delegated parameter sets: draw by draw.
            _ => {
                for _ in 0..count {
                    bins[self.sample(rng) as usize] += 1;
                }
            }
        }
    }
}

/// Reflect a table value for a mirrored binomial table.
#[inline]
fn reflect(k: u64, mirror: Option<u64>) -> u64 {
    match mirror {
        Some(n) => n - k,
        None => k,
    }
}

/// The walk's stop index for the uniform `m · 2⁻⁵³`: the number of
/// thresholds below `m`, which form a prefix.
#[inline]
fn stop_index(thresholds: &[u64], m: u64) -> usize {
    // A narrow table counts every threshold rather than exit the scan on a
    // branch the drawn value decides, which mispredicts often.  At
    // campaign parameters the CDF mass is front-loaded, so most draws from
    // a wider table stop within the first couple of entries: a forward
    // scan beats binary search there; big tables keep the binary search.
    if thresholds.len() <= NARROW_MAX {
        thresholds.iter().map(|&t| usize::from(t < m)).sum()
    } else if thresholds.len() <= LINEAR_SCAN_MAX {
        thresholds.iter().take_while(|&&t| t < m).count()
    } else {
        thresholds.partition_point(|&t| t < m)
    }
}

/// Bin `count` draws from a table of `N` thresholds with one counter per
/// threshold, held in registers: `above[k]` adds `m > t_k` per draw, so it
/// counts the draws whose stop index exceeds `k`.  No branch depends on
/// the drawn value.
#[inline(always)]
fn bin_unrolled<const N: usize>(
    thresholds: &[u64],
    count: u64,
    rng: &mut DeterministicRng,
    bin: impl Fn(usize) -> usize,
    bins: &mut [u64],
) {
    let t: [u64; N] = thresholds.try_into().expect("table width matches N");
    let mut above = [0u64; N];
    // A local copy keeps the generator state in registers across the loop.
    let mut local = rng.clone();
    for _ in 0..count {
        let m = local.uniform_numerator();
        for k in 0..N {
            above[k] += u64::from(m > t[k]);
        }
    }
    *rng = local;
    // Draws whose stop index is at least `k`; entry `k` keeps those that
    // do not go past it.
    let mut reached = count;
    for (k, &a) in above.iter().enumerate() {
        bins[bin(k)] += reached - a;
        reached = a;
    }
    bins[bin(N)] += reached;
}

/// A resolved plan handle: the id-to-plan lookup hoisted out of the draw
/// loop.
///
/// Obtained from [`BinomialCache::prepared`] / [`HypergeometricCache::prepared`];
/// drawing through it skips the per-draw indexing that
/// [`BinomialCache::sample_prepared`] pays, which matters in loops that
/// draw hundreds of thousands of times from one parameter set.
#[derive(Debug, Clone, Copy)]
pub struct PreparedSampler<'a> {
    plan: &'a Plan,
}

impl<'a> PreparedSampler<'a> {
    /// Draw one value (same contract as `sample_prepared`).
    #[inline]
    pub fn sample(&self, rng: &mut DeterministicRng) -> u64 {
        self.plan.sample(rng)
    }

    /// Add the histogram of `count` draws to `bins`: `bins[v]` grows by
    /// the number of draws equal to `v`.
    ///
    /// Every bit-compat plan leaves `rng` and `bins` exactly as `count`
    /// calls to [`sample`](Self::sample) binned one by one would, while
    /// doing less work: a degenerate plan fills its one bin in one step
    /// (drawing nothing, as `sample` does), and a narrow inversion table
    /// (up to 8 thresholds, which covers every campaign multiplicity up
    /// to 8) bins its draws branch-free on the integer thresholds of the
    /// module docs.  Wider tables and the delegated parameter sets bin
    /// draw by draw.  A [`SamplerMode::Fast`] alias
    /// table samples the histogram directly as a multinomial
    /// ([`DiscreteAlias::multinomial_into`]): the same law on its own
    /// stream.
    ///
    /// `bins` must cover the plan's support, `0..=n` for a binomial and
    /// `0..=min(successes, draws)` for a hypergeometric; indexing past
    /// its end panics.
    #[inline]
    pub fn histogram_into(&self, count: u64, rng: &mut DeterministicRng, bins: &mut [u64]) {
        self.plan.histogram_into(count, rng, bins);
    }

    /// The underlying alias table, when this plan is a
    /// [`SamplerMode::Fast`] table.
    ///
    /// Returns `None` for every bit-compat plan and for the fast-mode
    /// parameter sets that delegate (degenerate, oversize, underflow).
    #[inline]
    pub fn as_alias(&self) -> Option<&'a DiscreteAlias> {
        match self.plan {
            Plan::Alias(table) => Some(table),
            _ => None,
        }
    }
}

/// Cached binomial sampler keyed by `(n, p)`.
///
/// [`prepare`](Self::prepare) resolves a parameter set to a stable plan id
/// (building the CDF table on first sight); [`sample_prepared`](Self::sample_prepared)
/// draws through that id with no hashing on the hot path.
#[derive(Debug, Clone, Default)]
pub struct BinomialCache {
    plans: Vec<Plan>,
    index: HashMap<(u64, u64, SamplerMode), usize>,
    hits: u64,
    misses: u64,
}

impl BinomialCache {
    /// Resolve `(n, p)` to a bit-compat plan id, building the plan on
    /// first use.
    ///
    /// Panics (like [`sample_binomial`]) if `p` is not a probability.
    pub fn prepare(&mut self, n: u64, p: f64) -> usize {
        self.prepare_mode(n, p, SamplerMode::BitCompat)
    }

    /// Resolve `(n, p)` under a [`SamplerMode`] to a plan id, building the
    /// plan on first use.  One cache holds both modes' plans side by side
    /// (distinct ids), so a worker switching modes between campaigns keeps
    /// all its tables.
    pub fn prepare_mode(&mut self, n: u64, p: f64, mode: SamplerMode) -> usize {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        if let Some(&id) = self.index.get(&(n, p.to_bits(), mode)) {
            self.hits += 1;
            return id;
        }
        self.misses += 1;
        let plan = match mode {
            SamplerMode::BitCompat => Self::build_plan(n, p),
            // Parameter sets the alias method cannot carry (degenerate,
            // oversize, underflow) fall back to the bit-compat plan: the
            // degenerate ones consume no RNG either way and the rest are
            // off the hot path by construction.
            SamplerMode::Fast => match DiscreteAlias::binomial(n, p) {
                Some(table) => Plan::Alias(table),
                None => Self::build_plan(n, p),
            },
        };
        let id = self.plans.len();
        self.plans.push(plan);
        self.index.insert((n, p.to_bits(), mode), id);
        id
    }

    fn build_plan(n: u64, p: f64) -> Plan {
        if n == 0 || p == 0.0 {
            return Plan::Certain(0);
        }
        if p == 1.0 {
            return Plan::Certain(n);
        }
        // Mirror exactly like the walk: table at q ≤ ½, reflect the draw.
        let (q, mirror) = if p > 0.5 {
            (1.0 - p, Some(n))
        } else {
            (p, None)
        };
        if n as u128 + 1 > MAX_TABLE_LEN as u128 {
            return Plan::DelegateBinomial { n, p };
        }
        let mut pmf = binomial_pmf_zero(n, q);
        if pmf == 0.0 {
            // The walk takes the normal-approximation fallback here, which
            // consumes a different number of uniforms; delegate verbatim.
            return Plan::DelegateBinomial { n, p };
        }
        // Identical recurrence and summation order as `sample_binomial`, so
        // every partial sum is bit-equal to the walk's running `cdf`.
        let odds = q / (1.0 - q);
        let mut cdf = Vec::with_capacity(n as usize + 1);
        let mut acc = pmf;
        cdf.push(acc);
        for k in 0..n {
            pmf *= (n - k) as f64 / (k + 1) as f64 * odds;
            acc += pmf;
            cdf.push(acc);
        }
        Plan::table(0, &cdf, mirror)
    }

    /// Draw through a plan id returned by [`prepare`](Self::prepare).
    #[inline]
    pub fn sample_prepared(&self, id: usize, rng: &mut DeterministicRng) -> u64 {
        self.plans[id].sample(rng)
    }

    /// Borrow the plan behind `id` for repeated hot-loop draws.
    pub fn prepared(&self, id: usize) -> PreparedSampler<'_> {
        PreparedSampler {
            plan: &self.plans[id],
        }
    }

    /// Convenience: prepare-and-draw in one call (hashes per draw; hot loops
    /// should hoist [`prepare`](Self::prepare) instead).
    pub fn sample(&mut self, rng: &mut DeterministicRng, n: u64, p: f64) -> u64 {
        let id = self.prepare(n, p);
        self.sample_prepared(id, rng)
    }

    /// Number of distinct parameter sets prepared so far.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True if no parameter set has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// `prepare` calls answered from the index.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// `prepare` calls that built a new plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Cached hypergeometric sampler keyed by `(total, successes, draws)`.
///
/// Same contract as [`BinomialCache`]: bit-identical draws and RNG
/// consumption versus [`sample_hypergeometric`].
#[derive(Debug, Clone, Default)]
pub struct HypergeometricCache {
    plans: Vec<Plan>,
    index: HashMap<(u64, u64, u64, SamplerMode), usize>,
    hits: u64,
    misses: u64,
}

impl HypergeometricCache {
    /// Resolve `(total, successes, draws)` to a bit-compat plan id,
    /// building the CDF table on first use.
    ///
    /// Panics (like [`sample_hypergeometric`]) if `successes > total` or
    /// `draws > total`.
    pub fn prepare(&mut self, total: u64, successes: u64, draws: u64) -> usize {
        self.prepare_mode(total, successes, draws, SamplerMode::BitCompat)
    }

    /// Resolve `(total, successes, draws)` under a [`SamplerMode`]; same
    /// contract as [`BinomialCache::prepare_mode`].
    pub fn prepare_mode(
        &mut self,
        total: u64,
        successes: u64,
        draws: u64,
        mode: SamplerMode,
    ) -> usize {
        assert!(successes <= total, "successes {successes} > total {total}");
        assert!(draws <= total, "draws {draws} > total {total}");
        if let Some(&id) = self.index.get(&(total, successes, draws, mode)) {
            self.hits += 1;
            return id;
        }
        self.misses += 1;
        let plan = match mode {
            SamplerMode::BitCompat => Self::build_plan(total, successes, draws),
            SamplerMode::Fast => match DiscreteAlias::hypergeometric(total, successes, draws) {
                Some(table) => Plan::Alias(table),
                None => Self::build_plan(total, successes, draws),
            },
        };
        let id = self.plans.len();
        self.plans.push(plan);
        self.index.insert((total, successes, draws, mode), id);
        id
    }

    fn build_plan(total: u64, successes: u64, draws: u64) -> Plan {
        if draws == 0 || successes == 0 {
            return Plan::Certain(0);
        }
        let k_min = draws.saturating_sub(total - successes);
        let k_max = successes.min(draws);
        if (k_max - k_min) as u128 + 1 > MAX_TABLE_LEN as u128 {
            return Plan::DelegateHypergeometric {
                total,
                successes,
                draws,
            };
        }
        // Same pmf seed and ratio recurrence as `sample_hypergeometric`.
        let mut pmf = (ln_binomial(successes, k_min)
            + ln_binomial(total - successes, draws - k_min)
            - ln_binomial(total, draws))
        .exp();
        let mut cdf = Vec::with_capacity((k_max - k_min) as usize + 1);
        let mut acc = pmf;
        cdf.push(acc);
        for k in k_min..k_max {
            let remaining_failures = (total - successes + k + 1) - draws;
            let ratio = (successes - k) as f64 * (draws - k) as f64
                / ((k + 1) as f64 * remaining_failures as f64);
            pmf *= ratio;
            acc += pmf;
            cdf.push(acc);
        }
        Plan::table(k_min, &cdf, None)
    }

    /// Draw through a plan id returned by [`prepare`](Self::prepare).
    #[inline]
    pub fn sample_prepared(&self, id: usize, rng: &mut DeterministicRng) -> u64 {
        self.plans[id].sample(rng)
    }

    /// Borrow the plan behind `id` for repeated hot-loop draws.
    pub fn prepared(&self, id: usize) -> PreparedSampler<'_> {
        PreparedSampler {
            plan: &self.plans[id],
        }
    }

    /// Convenience: prepare-and-draw in one call.
    pub fn sample(
        &mut self,
        rng: &mut DeterministicRng,
        total: u64,
        successes: u64,
        draws: u64,
    ) -> u64 {
        let id = self.prepare(total, successes, draws);
        self.sample_prepared(id, rng)
    }

    /// Number of distinct parameter sets prepared so far.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True if no parameter set has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// `prepare` calls answered from the index.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// `prepare` calls that built a new plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Draw `draws` times from both the free function and the cache on
    /// clones of the same RNG, asserting value-for-value equality and that
    /// both streams end in the same state (same uniforms consumed).
    fn assert_binomial_matches(n: u64, p: f64, draws: usize, seed: u64) {
        let mut walk_rng = DeterministicRng::new(seed);
        let mut cache_rng = walk_rng.clone();
        let mut cache = BinomialCache::default();
        let id = cache.prepare(n, p);
        for i in 0..draws {
            let want = sample_binomial(&mut walk_rng, n, p);
            let got = cache.sample_prepared(id, &mut cache_rng);
            assert_eq!(want, got, "n={n} p={p} draw {i}");
        }
        assert_eq!(
            walk_rng, cache_rng,
            "RNG streams diverged for n={n} p={p}: cached draw consumed a \
             different number of uniforms"
        );
    }

    fn assert_hypergeometric_matches(
        total: u64,
        successes: u64,
        draws: u64,
        reps: usize,
        seed: u64,
    ) {
        let mut walk_rng = DeterministicRng::new(seed);
        let mut cache_rng = walk_rng.clone();
        let mut cache = HypergeometricCache::default();
        let id = cache.prepare(total, successes, draws);
        for i in 0..reps {
            let want = sample_hypergeometric(&mut walk_rng, total, successes, draws);
            let got = cache.sample_prepared(id, &mut cache_rng);
            assert_eq!(want, got, "({total},{successes},{draws}) draw {i}");
        }
        assert_eq!(
            walk_rng, cache_rng,
            "RNG streams diverged for ({total},{successes},{draws})"
        );
    }

    /// Drive `plan` at the uniforms `m · 2⁻⁵³` that straddle each of its
    /// thresholds, `m ∈ {t − 1, t, t + 1}`, and compare the single draw and
    /// a one-draw batch with the `f64` walk on the same uniform.
    ///
    /// Random draws land on a threshold with probability ~2⁻⁵³, so only
    /// chosen uniforms can see an off-by-one in the integer form of the
    /// walk's `cdf < u` test (a `≤` for a `<`, a ceiling for the floor).
    fn assert_thresholds_match_walk(
        plan: &Plan,
        support: u64,
        walk: impl Fn(&mut DeterministicRng) -> u64,
    ) {
        let Plan::Table { thresholds, .. } = plan else {
            panic!("expected an inversion table, got {plan:?}");
        };
        for &t in thresholds.iter() {
            for m in [t.wrapping_sub(1), t, t + 1] {
                if m >= 1 << 53 {
                    continue;
                }
                let at_m = || DeterministicRng::with_next_raw(m << 11);
                let want = walk(&mut at_m());
                assert_eq!(
                    plan.sample(&mut at_m()),
                    want,
                    "single draw, m = {m}, t = {t}"
                );
                let mut bins = vec![0u64; support as usize + 1];
                plan.histogram_into(1, &mut at_m(), &mut bins);
                assert_eq!(bins[want as usize], 1, "batched draw, m = {m}, t = {t}");
            }
        }
    }

    #[test]
    fn thresholds_decide_like_the_walk_at_every_boundary() {
        // Narrow (n ≤ 8), scanned and binary-searched (n > 128) widths;
        // p > ½ builds mirrored tables.
        for &n in &[1u64, 2, 3, 5, 8, 9, 12, 40, 200] {
            for &p in &[0.01, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99] {
                let plan = BinomialCache::build_plan(n, p);
                assert_thresholds_match_walk(&plan, n, |rng| sample_binomial(rng, n, p));
            }
        }
        for &(total, successes, draws) in &[
            (10u64, 4u64, 5u64),
            (20, 8, 15),  // k_min = 3
            (60, 40, 30), // k_min = 10
            (100, 30, 12),
            (100, 1, 99),
            (1_000, 600, 500), // k_min = 100, 401 entries
        ] {
            let plan = HypergeometricCache::build_plan(total, successes, draws);
            assert_thresholds_match_walk(&plan, successes.min(draws), |rng| {
                sample_hypergeometric(rng, total, successes, draws)
            });
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn table_build_rejects_decreasing_sums() {
        Plan::table(0, &[0.5, 0.25, 1.0], None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn table_build_rejects_non_finite_sums() {
        Plan::table(0, &[0.5, f64::NAN, 1.0], None);
    }

    #[test]
    fn binomial_matches_walk_on_grid() {
        let mut seed = 100;
        for &n in &[1u64, 2, 3, 7, 20, 40, 80] {
            for &p in &[0.01, 0.1, 0.3, 0.5, 0.55, 0.7, 0.9, 0.99] {
                seed += 1;
                assert_binomial_matches(n, p, 400, seed);
            }
        }
    }

    #[test]
    fn binomial_matches_walk_on_edges() {
        assert_binomial_matches(0, 0.5, 50, 1);
        assert_binomial_matches(10, 0.0, 50, 2);
        assert_binomial_matches(10, 1.0, 50, 3);
        assert_binomial_matches(1, 0.5, 200, 4);
    }

    #[test]
    fn binomial_matches_walk_through_underflow_fallback() {
        // 0.5^4000 underflows: the walk takes the clamped-normal fallback
        // (three uniforms per draw) and the cache must delegate to it.
        assert_binomial_matches(4000, 0.5, 60, 5);
        // Mirrored underflow: table would be built at q = 1 − p.
        assert_binomial_matches(4000, 0.50001, 60, 6);
    }

    #[test]
    fn binomial_delegates_oversize_tables() {
        assert_binomial_matches(MAX_TABLE_LEN as u64 + 1, 0.3, 60, 7);
        assert_binomial_matches(1 << 40, 0.25, 10, 8);
    }

    #[test]
    fn binomial_prepare_is_idempotent_and_counts() {
        let mut cache = BinomialCache::default();
        assert!(cache.is_empty());
        let a = cache.prepare(40, 0.3);
        let b = cache.prepare(40, 0.3);
        let c = cache.prepare(40, 0.31);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn binomial_convenience_sample_matches_prepared() {
        let mut one = DeterministicRng::new(9);
        let mut two = one.clone();
        let mut cache = BinomialCache::default();
        let id = cache.prepare(20, 0.4);
        let mut cache2 = BinomialCache::default();
        for _ in 0..100 {
            assert_eq!(
                cache.sample_prepared(id, &mut one),
                cache2.sample(&mut two, 20, 0.4)
            );
        }
    }

    #[test]
    fn hypergeometric_matches_walk_on_grid() {
        let mut seed = 500;
        for &(t, s, d) in &[
            (1u64, 1u64, 1u64),
            (10, 4, 5),
            (20, 8, 15), // k_min = 3 > 0
            (50, 50, 7),
            (100, 30, 12),
            (100, 1, 99),
            (200, 120, 200),
        ] {
            seed += 1;
            assert_hypergeometric_matches(t, s, d, 400, seed);
        }
    }

    #[test]
    fn hypergeometric_matches_walk_on_edges() {
        assert_hypergeometric_matches(10, 0, 5, 50, 600);
        assert_hypergeometric_matches(10, 4, 0, 50, 601);
        assert_hypergeometric_matches(5, 5, 5, 50, 602);
    }

    #[test]
    fn hypergeometric_delegates_oversize_tables() {
        let span = MAX_TABLE_LEN as u64 + 10;
        assert_hypergeometric_matches(4 * span, 2 * span, 2 * span, 20, 603);
    }

    #[test]
    fn hypergeometric_prepare_counts() {
        let mut cache = HypergeometricCache::default();
        let a = cache.prepare(100, 30, 12);
        let b = cache.prepare(100, 30, 12);
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(!cache.is_empty());
    }

    #[test]
    fn fast_mode_plans_are_distinct_and_expose_alias_tables() {
        let mut cache = BinomialCache::default();
        let compat = cache.prepare_mode(12, 0.1, SamplerMode::BitCompat);
        let fast = cache.prepare_mode(12, 0.1, SamplerMode::Fast);
        assert_ne!(compat, fast, "modes must not share plan ids");
        assert_eq!(cache.prepare(12, 0.1), compat, "prepare == bit-compat");
        assert_eq!(cache.prepare_mode(12, 0.1, SamplerMode::Fast), fast);
        assert!(cache.prepared(compat).as_alias().is_none());
        let table = cache.prepared(fast).as_alias().expect("fast plan is alias");
        assert_eq!(table.len(), 13);

        let mut hyper = HypergeometricCache::default();
        let h_compat = hyper.prepare_mode(100, 30, 12, SamplerMode::BitCompat);
        let h_fast = hyper.prepare_mode(100, 30, 12, SamplerMode::Fast);
        assert_ne!(h_compat, h_fast);
        assert!(hyper.prepared(h_fast).as_alias().is_some());
    }

    #[test]
    fn fast_mode_histogram_is_the_alias_multinomial() {
        let mut cache = BinomialCache::default();
        let id = cache.prepare_mode(12, 0.1, SamplerMode::Fast);
        let table = cache.prepared(id).as_alias().expect("fast plan is alias");
        let mut a = DeterministicRng::new(31);
        let mut b = a.clone();
        let (mut via_plan, mut direct) = (vec![0u64; 13], vec![0u64; 13]);
        cache
            .prepared(id)
            .histogram_into(10_000, &mut a, &mut via_plan);
        table.multinomial_into(10_000, &mut b, &mut direct);
        assert_eq!(via_plan, direct);
        assert_eq!(a, b);
        assert_eq!(via_plan.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn fast_mode_draws_stay_in_support_and_replay() {
        let mut cache = BinomialCache::default();
        let id = cache.prepare_mode(40, 0.3, SamplerMode::Fast);
        let mut one = DeterministicRng::new(21);
        let mut two = one.clone();
        for _ in 0..2_000 {
            let x = cache.sample_prepared(id, &mut one);
            assert!(x <= 40);
            assert_eq!(x, cache.sample_prepared(id, &mut two), "fast draws replay");
        }
    }

    #[test]
    fn fast_mode_falls_back_where_alias_cannot() {
        let mut cache = BinomialCache::default();
        // Degenerate: no RNG either way.
        let certain = cache.prepare_mode(10, 0.0, SamplerMode::Fast);
        assert!(cache.prepared(certain).as_alias().is_none());
        let mut rng = DeterministicRng::new(5);
        let before = rng.clone();
        assert_eq!(cache.sample_prepared(certain, &mut rng), 0);
        assert_eq!(rng, before, "degenerate fast plan consumes no RNG");
        // Underflow fallback delegates to the exact free function.
        let delegated = cache.prepare_mode(4000, 0.5, SamplerMode::Fast);
        assert!(cache.prepared(delegated).as_alias().is_none());
        let mut a = DeterministicRng::new(6);
        let mut b = a.clone();
        for _ in 0..20 {
            assert_eq!(
                cache.sample_prepared(delegated, &mut a),
                sample_binomial(&mut b, 4000, 0.5)
            );
        }
    }

    #[test]
    #[should_panic(expected = "p must be a probability")]
    fn binomial_prepare_rejects_bad_p() {
        BinomialCache::default().prepare(10, 1.5);
    }

    #[test]
    #[should_panic(expected = "successes")]
    fn hypergeometric_prepare_rejects_bad_params() {
        HypergeometricCache::default().prepare(10, 11, 5);
    }
}
