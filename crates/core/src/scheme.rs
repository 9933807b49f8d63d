//! The [`Scheme`] trait unifying every task-distribution strategy.
//!
//! A scheme knows how to lay out an `N`-task computation as a
//! [`Distribution`] and (optionally) what asymptotic detection threshold it
//! guarantees.  Everything else — detection probabilities, redundancy
//! factors, integer realizations — is derived uniformly through the
//! [`DetectionProfile`] engine, so closed forms in
//! individual schemes can always be cross-checked against the generic path.

use crate::distribution::Distribution;
use crate::error::CoreError;
use crate::probability::DetectionProfile;

/// A redundancy-based task-distribution scheme.
pub trait Scheme {
    /// Short human-readable name ("balanced", "golle-stubblebine", …).
    fn name(&self) -> &'static str;

    /// Number of tasks in the computation.
    fn n_tasks(&self) -> u64;

    /// The (possibly fractional) theoretical distribution.
    fn distribution(&self) -> Distribution;

    /// The asymptotic detection threshold this scheme guarantees for every
    /// tuple size, if any.  Simple redundancy returns `Some(0.0)`: it
    /// guarantees nothing against a colluding pair-holder.
    fn guaranteed_detection(&self) -> Option<f64>;

    /// Detection profile of the theoretical distribution (no precomputing).
    fn detection_profile(&self) -> DetectionProfile {
        DetectionProfile::from_distribution(&self.distribution())
    }

    /// Redundancy factor of the theoretical distribution.
    fn redundancy_factor(&self) -> f64 {
        self.distribution().redundancy_factor()
    }

    /// Total assignments of the theoretical distribution.
    fn total_assignments(&self) -> f64 {
        self.distribution().total_assignments()
    }

    /// Effective (minimum over k) detection probability at adversary
    /// proportion `p`, computed generically from the distribution.
    fn effective_detection(&self, p: f64) -> Result<f64, CoreError> {
        self.detection_profile().effective_detection(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal scheme used to exercise the provided methods.
    struct Flat {
        n: u64,
        mult: usize,
    }

    impl Scheme for Flat {
        fn name(&self) -> &'static str {
            "flat"
        }
        fn n_tasks(&self) -> u64 {
            self.n
        }
        fn distribution(&self) -> Distribution {
            let mut w = vec![0.0; self.mult];
            w[self.mult - 1] = self.n as f64;
            Distribution::from_weights(w)
        }
        fn guaranteed_detection(&self) -> Option<f64> {
            Some(0.0)
        }
    }

    #[test]
    fn provided_methods_flow_through() {
        let s = Flat { n: 100, mult: 3 };
        assert_eq!(s.redundancy_factor(), 3.0);
        assert_eq!(s.total_assignments(), 300.0);
        assert_eq!(s.effective_detection(0.0).unwrap(), 0.0);
        assert_eq!(s.detection_profile().p_asymptotic(3), Some(0.0));
        assert_eq!(s.detection_profile().p_asymptotic(1), Some(1.0));
    }
}
