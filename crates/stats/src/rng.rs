//! Deterministic, splittable random number generation.
//!
//! Every experiment in this workspace must be exactly replayable from a
//! 64-bit seed, independent of platform, `rand` version quirks, or thread
//! count.  We therefore implement the generators ourselves:
//!
//! * [`SeedSequence`] — a SplitMix64-based seed deriver, used both to expand
//!   a user seed into xoshiro state and to mint independent child seeds for
//!   parallel workers (`derive(child_index)`);
//! * [`DeterministicRng`] — xoshiro256++ (Blackman & Vigna), a small, fast,
//!   well-tested generator with 2²⁵⁶−1 period.  All distribution helpers the
//!   workspace needs (`uniform`, `bernoulli`, `below`, `shuffle`, …) are
//!   inherent methods, so no external RNG ecosystem is required.

/// SplitMix64 step: the standard 64-bit finalizer-based generator used to
/// expand seeds (Steele, Lea & Flood 2014).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives arbitrarily many independent seeds from one root seed.
///
/// ```
/// use redundancy_stats::SeedSequence;
/// let seq = SeedSequence::new(42);
/// assert_ne!(seq.derive(0), seq.derive(1));
/// assert_eq!(seq.derive(7), SeedSequence::new(42).derive(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    root: u64,
}

impl SeedSequence {
    /// Create a sequence rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedSequence { root: seed }
    }

    /// Deterministically derive the `index`-th child seed.
    ///
    /// Children are pairwise independent for all practical purposes: the
    /// root and index are mixed through two SplitMix64 finalizer rounds.
    pub fn derive(&self, index: u64) -> u64 {
        let mut s = self
            .root
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(index.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        let a = splitmix64(&mut s);
        splitmix64(&mut s).wrapping_add(a.rotate_left(17))
    }
}

/// xoshiro256++ generator with SplitMix64 seeding.
///
/// ```
/// use redundancy_stats::DeterministicRng;
/// let mut rng = DeterministicRng::new(7);
/// let x = rng.uniform();
/// assert!((0.0..1.0).contains(&x));
/// // Same seed, same stream:
/// let mut rng2 = DeterministicRng::new(7);
/// assert_eq!(rng2.uniform(), x);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicRng {
    s: [u64; 4],
}

impl DeterministicRng {
    /// Seed via SplitMix64 expansion (never produces the all-zero state).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DeterministicRng { s }
    }

    /// Next raw 64-bit output (xoshiro256++ scrambler).
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.uniform_numerator() as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The 53-bit integer `m` behind the next [`Self::uniform`] draw, which
    /// is exactly `m · 2⁻⁵³`; the cached inversion tables compare it
    /// against integer CDF thresholds.
    #[inline]
    pub(crate) fn uniform_numerator(&mut self) -> u64 {
        self.next_raw() >> 11
    }

    /// A generator whose next [`Self::next_raw`] output is `raw`, so tests
    /// can drive a sampler with a chosen uniform.
    #[cfg(test)]
    pub(crate) fn with_next_raw(raw: u64) -> Self {
        // The output is rotl(s0 + s3, 23) + s0, which is rotl(s3, 23) at
        // s0 = 0; s1 keeps the state non-zero.
        DeterministicRng {
            s: [0, 1, 2, raw.rotate_right(23)],
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (unbiased; rejects at most a vanishing fraction of draws).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_raw();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: accept unless in the biased residue class.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (uniformly, without
    /// replacement) using Floyd's algorithm; output is sorted.
    pub fn sample_indices(&mut self, n: u64, k: u64) -> Vec<u64> {
        assert!(k <= n, "cannot sample {k} of {n} without replacement");
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.below(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }

    /// Next 32-bit output (upper half of the 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }

    /// Next 64-bit output (alias of [`Self::next_raw`]).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    /// Fill a byte buffer with generator output.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_raw().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_xoshiro256pp() {
        // State {1,2,3,4} must produce the published xoshiro256++ outputs.
        let mut rng = DeterministicRng { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expected {
            assert_eq!(rng.next_raw(), e);
        }
    }

    #[test]
    fn chosen_output_and_uniform_numerator() {
        for raw in [0, 1 << 11, u64::MAX, 0x0123_4567_89ab_cdef] {
            assert_eq!(DeterministicRng::with_next_raw(raw).next_raw(), raw);
            let m = DeterministicRng::with_next_raw(raw).uniform_numerator();
            assert_eq!(m, raw >> 11);
            let u = DeterministicRng::with_next_raw(raw).uniform();
            assert_eq!(u, m as f64 / (1u64 << 53) as f64, "uniform is m·2⁻⁵³");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::new(123);
        let mut b = DeterministicRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let same = (0..32).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = DeterministicRng::new(9);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = DeterministicRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = DeterministicRng::new(5);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 600, "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        DeterministicRng::new(0).below(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DeterministicRng::new(77);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = DeterministicRng::new(3);
        for _ in 0..100 {
            let s = rng.sample_indices(20, 7);
            assert_eq!(s.len(), 7);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_indices_full_and_empty() {
        let mut rng = DeterministicRng::new(3);
        assert_eq!(rng.sample_indices(5, 5), vec![0, 1, 2, 3, 4]);
        assert!(rng.sample_indices(5, 0).is_empty());
    }

    #[test]
    fn sample_indices_is_uniform_ish() {
        // Each index of 0..10 should appear in a 3-sample with prob 0.3.
        let mut rng = DeterministicRng::new(8);
        let mut counts = [0u32; 10];
        let trials = 30_000;
        for _ in 0..trials {
            for i in rng.sample_indices(10, 3) {
                counts[i as usize] += 1;
            }
        }
        for &c in &counts {
            let frac = c as f64 / trials as f64;
            assert!((frac - 0.3).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn seed_sequence_children_are_stable_and_distinct() {
        let seq = SeedSequence::new(0xDEADBEEF);
        let children: Vec<u64> = (0..64).map(|i| seq.derive(i)).collect();
        let unique: std::collections::HashSet<_> = children.iter().collect();
        assert_eq!(unique.len(), children.len());
        assert_eq!(children[5], SeedSequence::new(0xDEADBEEF).derive(5));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = DeterministicRng::new(1);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn rngcore_next_u32_works() {
        let mut rng = DeterministicRng::new(4);
        let a = rng.next_u32();
        let b = rng.next_u32();
        // Just exercise the path and confirm progression.
        assert!(a != b || rng.next_u32() != b);
    }
}
