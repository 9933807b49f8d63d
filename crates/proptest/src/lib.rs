//! # proptest (offline shim)
//!
//! A dependency-free stand-in for the `proptest` crate, covering exactly the
//! surface this workspace's property tests use: the `proptest!` macro with an
//! optional `#![proptest_config(...)]` header, range strategies over the
//! primitive numeric types, `proptest::collection::vec`, and the
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from upstream, by design:
//!
//! - **Deterministic**: cases are generated from a seed derived from the
//!   test's name, so every run explores the same inputs. There is no
//!   `PROPTEST_CASES` env handling and no persistence file.
//! - **No shrinking**: a failing case reports the generated inputs verbatim.
//!   With deterministic generation the failure is reproducible as-is.
//! - Rejections from `prop_assume!` skip the case rather than re-drawing.
//!
//! The package name is `proptest` so existing `use proptest::prelude::*`
//! test files compile unchanged; Cargo resolves it to this path crate.

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Outcome carrier used by the `prop_assert*` family.
#[derive(Debug)]
pub enum TestCaseError {
    /// A property was violated; the test fails.
    Fail(String),
    /// The inputs were rejected by `prop_assume!`; the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// Construct a failure.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }

    /// Construct a rejection.
    pub fn reject(message: impl Into<String>) -> Self {
        TestCaseError::Reject(message.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Per-`proptest!` block configuration. Only `cases` is honoured.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The shim's case-generation RNG (SplitMix64 — tiny and well distributed).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed directly.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Seed from a test's name, so each property explores a stable but
    /// distinct input stream.
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the name, then one splitmix scramble.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = TestRng { state: h };
        rng.next_u64();
        rng
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw below `bound` (`bound = 0` means the full u64 range).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return self.next_u64();
        }
        // Modulo bias is irrelevant for test-case generation.
        self.next_u64() % bound
    }
}

/// A source of generated values.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let width = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.below(width) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let width = (self.end().wrapping_sub(*self.start()) as u64).wrapping_add(1);
                self.start().wrapping_add(rng.below(width) as $t)
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize);

// Signed ranges go through i128 so the width computation cannot overflow
// (e.g. `i64::MIN..i64::MAX` has width 2⁶⁴ − 1, which only fits unsigned).
macro_rules! signed_int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let width = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(width) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let width =
                    ((*self.end() as i128 - *self.start() as i128) as u64).wrapping_add(1);
                (*self.start() as i128 + rng.below(width) as i128) as $t
            }
        }
    )+};
}

signed_int_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.uniform() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.uniform() * (self.end() - self.start())
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Anything usable as the size argument of [`vec()`].
    pub trait SizeRange {
        /// Draw a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    // Integer literals without another constraint fall back to i32; accept it
    // so `vec(strategy, 5)` keeps working like with upstream proptest.
    impl SizeRange for i32 {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self as usize
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for Range<i32> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            self.start as usize + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
        }
    }

    /// Strategy producing `Vec`s of an element strategy.
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    /// A `Vec` strategy with the given element strategy and size (a fixed
    /// length or a range of lengths).
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The upstream-compatible prelude.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Assert a condition inside a property, failing the case (not panicking
/// on the spot) when it is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}` (both: `{:?}`)",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)+);
    }};
}

/// Reject the current inputs; the case is skipped.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// The `proptest!` block: expands each contained function into a `#[test]`
/// that generates `config.cases` deterministic inputs and runs the body on
/// each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal recursive expander for [`proptest!`]; not part of the API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => continue,
                    ::std::result::Result::Err($crate::TestCaseError::Fail(message)) => {
                        panic!(
                            "proptest case {case} of {} failed: {message}",
                            stringify!($name)
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("alpha");
        let mut b = TestRng::from_name("alpha");
        let mut c = TestRng::from_name("beta");
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1_000 {
            let a = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&a));
            let b = (5u32..=9).generate(&mut rng);
            assert!((5..=9).contains(&b));
            let c = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&c));
        }
    }

    #[test]
    fn signed_ranges_respect_bounds() {
        let mut rng = TestRng::new(13);
        let mut saw_negative = false;
        for _ in 0..1_000 {
            let a = (-7i32..9).generate(&mut rng);
            assert!((-7..9).contains(&a));
            saw_negative |= a < 0;
            let b = (-5i64..=-2).generate(&mut rng);
            assert!((-5..=-2).contains(&b));
            let c = (i8::MIN..=i8::MAX).generate(&mut rng);
            let _ = c; // full inclusive range must not panic
        }
        assert!(saw_negative, "negative half of the range never drawn");
    }

    #[test]
    fn full_u64_range_does_not_overflow() {
        let mut rng = TestRng::new(11);
        for _ in 0..100 {
            let _ = (0u64..u64::MAX).generate(&mut rng);
        }
    }

    #[test]
    fn vec_sizes() {
        let mut rng = TestRng::new(3);
        let fixed = collection::vec(0.0f64..1.0, 5).generate(&mut rng);
        assert_eq!(fixed.len(), 5);
        for _ in 0..200 {
            let ranged = collection::vec(0u64..10, 1..4).generate(&mut rng);
            assert!((1..4).contains(&ranged.len()));
        }
        let nested = collection::vec(collection::vec(0.05f64..4.0, 5), 1..4).generate(&mut rng);
        assert!(nested.iter().all(|row| row.len() == 5));
    }

    // The macro itself, exercised end to end.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Generated values respect their strategies.
        #[test]
        fn macro_generates_in_range(
            x in 1u64..100,
            y in 0u32..=10,
            v in crate::collection::vec(0.0f64..1.0, 2..6),
        ) {
            prop_assert!((1..100).contains(&x));
            prop_assert!(y <= 10);
            prop_assert!((2..6).contains(&v.len()));
            prop_assume!(x != 55);
            prop_assert_ne!(x, 55);
            prop_assert_eq!(x, x);
        }
    }
}
