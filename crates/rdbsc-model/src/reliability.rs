//! Reliability of a task's worker set (Definition 3, Eqs. 1 and 8).
//!
//! * `rel(tᵢ, Wᵢ) = 1 − Π (1 − pⱼ)` — the probability that at least one
//!   assigned worker completes the task.
//! * `R(tᵢ, Wᵢ) = −ln(1 − rel) = Σ −ln(1 − pⱼ)` — the additive log-form used
//!   by the reduction in Section 3.1 and by the greedy algorithm's
//!   incremental updates (Lemma 4.1).

use crate::error::ModelError;

/// A worker confidence `p ∈ [0, 1]`, validated at construction.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Confidence(f64);

impl Confidence {
    /// Creates a confidence, rejecting values outside `[0, 1]` or non-finite
    /// values.
    pub fn new(p: f64) -> Result<Self, ModelError> {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(ModelError::InvalidConfidence(p));
        }
        Ok(Self(p))
    }

    /// Creates a confidence, clamping into `[0, 1]` (useful for values coming
    /// out of noisy estimators such as the peer-rating model).
    pub fn clamped(p: f64) -> Self {
        Self(p.clamp(0.0, 1.0))
    }

    /// The underlying probability.
    #[inline]
    pub fn value(&self) -> f64 {
        self.0
    }

    /// `−ln(1 − p)`, the worker's additive contribution to the log-form
    /// reliability `R`. Returns `f64::INFINITY` for `p == 1`.
    #[inline]
    pub fn log_weight(&self) -> f64 {
        -(1.0 - self.0).ln()
    }
}

/// `rel(tᵢ, Wᵢ) = 1 − Π (1 − pⱼ)` (Eq. 1). An empty worker set has
/// reliability 0.
pub fn reliability(confidences: &[Confidence]) -> f64 {
    let fail_all: f64 = confidences.iter().map(|c| 1.0 - c.value()).product();
    1.0 - fail_all
}

/// `R(tᵢ, Wᵢ) = Σ −ln(1 − pⱼ)` (Eq. 8). An empty worker set has `R = 0`;
/// any worker with `p = 1` makes `R = ∞`.
pub fn log_reliability(confidences: &[Confidence]) -> f64 {
    confidences.iter().map(|c| c.log_weight()).sum()
}

/// Converts a log-form reliability back into a probability:
/// `rel = 1 − exp(−R)`.
pub fn reliability_from_log(r: f64) -> f64 {
    1.0 - (-r).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(p: f64) -> Confidence {
        Confidence::new(p).unwrap()
    }

    #[test]
    fn confidence_validation() {
        assert!(Confidence::new(0.0).is_ok());
        assert!(Confidence::new(1.0).is_ok());
        assert!(Confidence::new(-0.01).is_err());
        assert!(Confidence::new(1.01).is_err());
        assert!(Confidence::new(f64::NAN).is_err());
        assert_eq!(Confidence::clamped(1.7).value(), 1.0);
        assert_eq!(Confidence::clamped(-0.3).value(), 0.0);
    }

    #[test]
    fn reliability_of_empty_set_is_zero() {
        assert_eq!(reliability(&[]), 0.0);
        assert_eq!(log_reliability(&[]), 0.0);
    }

    #[test]
    fn reliability_single_worker_equals_confidence() {
        assert!((reliability(&[c(0.7)]) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn reliability_two_workers() {
        // 1 - 0.3*0.2 = 0.94
        assert!((reliability(&[c(0.7), c(0.8)]) - 0.94).abs() < 1e-12);
    }

    #[test]
    fn reliability_is_monotone_in_workers() {
        let base = reliability(&[c(0.5), c(0.6)]);
        let more = reliability(&[c(0.5), c(0.6), c(0.1)]);
        assert!(more >= base);
    }

    #[test]
    fn log_form_is_consistent_with_probability_form() {
        let ws = [c(0.5), c(0.6), c(0.9)];
        let r = log_reliability(&ws);
        assert!((reliability_from_log(r) - reliability(&ws)).abs() < 1e-12);
    }

    #[test]
    fn log_form_is_additive_lemma_4_1() {
        // R(W ∪ {w}) = R(W) − ln(1 − p_w)
        let base = [c(0.5), c(0.6)];
        let extended = [c(0.5), c(0.6), c(0.8)];
        let lhs = log_reliability(&extended);
        let rhs = log_reliability(&base) + c(0.8).log_weight();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn certain_worker_gives_infinite_log_reliability() {
        assert_eq!(log_reliability(&[c(1.0)]), f64::INFINITY);
        assert!((reliability(&[c(1.0), c(0.2)]) - 1.0).abs() < 1e-12);
    }
}
