//! Theoretical bounds and optimality properties (Propositions 1 and 2).
//!
//! **Proposition 1.** Any valid distribution (satisfying `C₀` and `C₁` at
//! threshold ε) requires strictly more than `2N/(2−ε)` assignments; the
//! relaxed system keeping only those two constraints has the unique optimum
//!
//! ```text
//! x₁ = 2N(1−ε)/(2−ε),   x₂ = Nε/(2−ε),
//! ```
//!
//! so the optimal redundancy factor is bounded below by `2/(2−ε)` (= 4/3 at
//! ε = ½).  The full systems `S_m` approach but never attain it.
//!
//! **Proposition 2.** Among distributions whose non-asymptotic detection
//! `P_{k,p}` is independent of `k` (the "efficient" ones — any variation
//! with `k` means wasted assignments), the cheapest must achieve *equality*
//! `P_k = ε` in every constraint.  The Balanced distribution does exactly
//! that; [`equality_gap`] measures how far any other distribution is from
//! the property.

use crate::distribution::Distribution;
use crate::error::{check_threshold, CoreError};
use crate::probability::DetectionProfile;

/// Proposition 1's lower bound on the redundancy factor: `2/(2−ε)`.
pub fn lower_bound_factor(epsilon: f64) -> Result<f64, CoreError> {
    check_threshold(epsilon)?;
    Ok(2.0 / (2.0 - epsilon))
}

/// Proposition 1's lower bound on total assignments: `2N/(2−ε)`.
pub fn lower_bound_assignments(n: u64, epsilon: f64) -> Result<f64, CoreError> {
    Ok(n as f64 * lower_bound_factor(epsilon)?)
}

/// The unique optimum of the relaxed system (constraints `C₀`, `C₁` only):
/// `x₁ = 2N(1−ε)/(2−ε)`, `x₂ = Nε/(2−ε)`.
///
/// This distribution achieves the Proposition 1 bound but is *not* a valid
/// distribution (its `P₂ = 0`), which is exactly why the bound is strict.
pub fn relaxed_optimum(n: u64, epsilon: f64) -> Result<Distribution, CoreError> {
    check_threshold(epsilon)?;
    let nf = n as f64;
    let x1 = 2.0 * nf * (1.0 - epsilon) / (2.0 - epsilon);
    let x2 = nf * epsilon / (2.0 - epsilon);
    Ok(Distribution::from_weights(vec![x1, x2]))
}

/// Maximum deviation `max_k |P_k − ε|` over `k = 1..=k_max`, the measure of
/// Proposition 2's equality property (0 for the Balanced distribution).
///
/// `k` values with no tuples at all (beyond the distribution's dimension)
/// are skipped; `k` values where `P_k > ε` count toward the gap because
/// over-protection is wasted resources (Section 5).
pub fn equality_gap(
    profile: &DetectionProfile,
    epsilon: f64,
    k_max: usize,
) -> Result<f64, CoreError> {
    check_threshold(epsilon)?;
    let mut gap = 0.0f64;
    for k in 1..=k_max {
        if let Some(pk) = profile.p_asymptotic(k) {
            gap = gap.max((pk - epsilon).abs());
        }
    }
    Ok(gap)
}

/// Section 5's waste metric: assignments a profile spends beyond what its
/// *effective* protection level warrants.
///
/// The effective detection of a profile is `ε_eff = min_k P_k`; the
/// cheapest practical distribution delivering `ε_eff` for every tuple size
/// is the Balanced distribution at `ε_eff`, costing
/// `N·ln(1/(1−ε_eff))/ε_eff`.  Anything above that is "extra resources
/// \[that\] increase computation costs without increasing protection and are
/// thus effectively wasted" — e.g. Golle–Stubblebine's over-protection of
/// large tuples.
///
/// Returns `(ε_eff, wasted_assignments)`; the waste is clamped at 0 (the
/// Balanced distribution itself measures as 0 up to truncation dust).
pub fn wasted_assignments(profile: &DetectionProfile) -> Result<(f64, f64), CoreError> {
    let eps_eff = profile.effective_detection(0.0)?;
    let n = profile.total_tasks();
    if !(0.0 < eps_eff && eps_eff < 1.0) || n == 0.0 {
        // No guarantee at all: every redundant assignment beyond 1 per task
        // buys nothing against a colluder who can take whole tasks.
        return Ok((eps_eff.max(0.0), (profile.total_assignments() - n).max(0.0)));
    }
    let optimal = n * (1.0 / (1.0 - eps_eff)).ln() / eps_eff;
    Ok((eps_eff, (profile.total_assignments() - optimal).max(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balanced::Balanced;
    use crate::golle_stubblebine::GolleStubblebine;
    use crate::scheme::Scheme;

    #[test]
    fn bound_at_half_is_four_thirds() {
        let b = lower_bound_factor(0.5).unwrap();
        assert!((b - 4.0 / 3.0).abs() < 1e-15);
        assert!((lower_bound_assignments(300_000, 0.5).unwrap() - 400_000.0).abs() < 1e-6);
    }

    #[test]
    fn bound_is_monotone_in_eps() {
        let mut prev = 1.0;
        for i in 1..100 {
            let eps = i as f64 / 100.0;
            let b = lower_bound_factor(eps).unwrap();
            assert!(b > prev);
            prev = b;
        }
        assert!(lower_bound_factor(0.0).is_err());
    }

    #[test]
    fn relaxed_optimum_meets_c0_and_c1_with_equality() {
        let n = 100_000u64;
        let eps = 0.5;
        let d = relaxed_optimum(n, eps).unwrap();
        // C₀ equality.
        assert!((d.total_tasks() - n as f64).abs() < 1e-6);
        // C₁ equality: P₁ = ε.
        let prof = DetectionProfile::from_distribution(&d);
        assert!((prof.p_asymptotic(1).unwrap() - eps).abs() < 1e-12);
        // Achieves the bound exactly.
        let bound = lower_bound_assignments(n, eps).unwrap();
        assert!((d.total_assignments() - bound).abs() < 1e-6);
        // …but is invalid: P₂ = 0.
        assert_eq!(prof.p_asymptotic(2), Some(0.0));
    }

    #[test]
    fn every_scheme_respects_the_lower_bound() {
        let n = 1_000_000u64;
        for eps in [0.25, 0.5, 0.75, 0.9] {
            let bound = lower_bound_assignments(n, eps).unwrap();
            let bal = Balanced::new(n, eps).unwrap();
            assert!(bal.total_assignments_exact() > bound, "balanced at ε={eps}");
            let gs = GolleStubblebine::for_threshold(n, eps).unwrap();
            assert!(gs.total_assignments_exact() > bound, "GS at ε={eps}");
        }
    }

    #[test]
    fn balanced_has_zero_equality_gap() {
        let bal = Balanced::new(1_000_000, 0.5).unwrap();
        let prof = bal.detection_profile();
        // Restrict to the front half of the multiplicity range, where the
        // tail truncation of the materialized distribution is negligible.
        let gap = equality_gap(&prof, 0.5, prof.dimension() / 2).unwrap();
        assert!(gap < 1e-4, "gap {gap}");
    }

    #[test]
    fn waste_metric_orders_schemes_correctly() {
        let n = 1_000_000u64;
        let eps = 0.5;
        // Balanced realized plan: negligible waste.
        let bal = crate::plan::RealizedPlan::balanced(n, eps).unwrap();
        let (eff_b, waste_b) = wasted_assignments(&bal.detection_profile()).unwrap();
        assert!(eff_b >= eps - 1e-9 && eff_b < eps + 0.02, "{eff_b}");
        assert!(waste_b < 0.01 * n as f64, "balanced waste {waste_b}");
        // GS realized plan at the same ε: measurable waste (its higher-k
        // over-protection).
        let gs = crate::plan::RealizedPlan::golle_stubblebine(n, eps).unwrap();
        let (eff_g, waste_g) = wasted_assignments(&gs.detection_profile()).unwrap();
        assert!(eff_g >= eps - 1e-9 && eff_g < eps + 0.02, "{eff_g}");
        assert!(
            waste_g > waste_b,
            "GS waste {waste_g} vs balanced {waste_b}"
        );
        // Simple redundancy: zero guarantee, every extra copy wasted.
        let simple = crate::plan::RealizedPlan::k_fold(n, 2, eps).unwrap();
        let (eff_s, waste_s) = wasted_assignments(&simple.detection_profile()).unwrap();
        assert_eq!(eff_s, 0.0);
        assert!((waste_s - n as f64).abs() < 1.0, "simple waste {waste_s}");
    }

    #[test]
    fn golle_stubblebine_has_positive_equality_gap() {
        // GS over-protects k ≥ 2 (P_k rises with k): Proposition 2 says this
        // is waste; the gap quantifies it.
        let gs = GolleStubblebine::for_threshold(1_000_000, 0.5).unwrap();
        let prof = gs.detection_profile();
        let gap = equality_gap(&prof, 0.5, 10).unwrap();
        // P₂ = 1 − (1−c)³ with c = 1−√½: gap = |P₂ − ½| ≈ 0.146 at k=2,
        // larger at bigger k.
        assert!(gap > 0.2, "gap {gap}");
    }
}
