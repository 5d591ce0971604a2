//! Possible-worlds semantics of the task completion (Section 2.3, Eqs. 2, 6).
//!
//! Given the set `Wᵢ` of workers assigned to a task, each worker succeeds
//! independently with its confidence `pⱼ`; a *possible world* `pw(Wᵢ)` is the
//! subset of workers that actually complete the task, with probability
//! `Pr{pw} = Π_{j ∈ pw} pⱼ · Π_{j ∉ pw} (1 − pⱼ)` (Eq. 2).
//!
//! The expected spatial/temporal diversity is the expectation of `STD` over
//! possible worlds (Eq. 6). Enumerating the `2^{|Wᵢ|}` worlds is exponential;
//! this module provides the exhaustive computation as a **test oracle** for
//! small worker sets, against which the polynomial reduction of
//! [`crate::expected`] is validated.

use crate::diversity::{spatial_diversity, std_diversity, temporal_diversity};
use crate::task::TimeWindow;
use crate::valid_pairs::Contribution;

/// Maximum worker-set size for which exhaustive enumeration is permitted.
/// Beyond this the caller should use [`crate::expected::expected_std`].
pub const MAX_EXHAUSTIVE_WORKERS: usize = 22;

/// Iterator over all possible worlds of a worker set, yielding
/// `(probability, members)` pairs where `members` are indices into the input
/// slice.
pub struct PossibleWorlds<'a> {
    contributions: &'a [Contribution],
    next_mask: u64,
    num_worlds: u64,
}

impl<'a> PossibleWorlds<'a> {
    /// Creates the iterator. Panics if the worker set is larger than
    /// [`MAX_EXHAUSTIVE_WORKERS`].
    pub fn new(contributions: &'a [Contribution]) -> Self {
        assert!(
            contributions.len() <= MAX_EXHAUSTIVE_WORKERS,
            "possible-world enumeration limited to {MAX_EXHAUSTIVE_WORKERS} workers, got {}",
            contributions.len()
        );
        Self {
            contributions,
            next_mask: 0,
            num_worlds: 1u64 << contributions.len(),
        }
    }
}

impl<'a> Iterator for PossibleWorlds<'a> {
    type Item = (f64, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_mask >= self.num_worlds {
            return None;
        }
        let mask = self.next_mask;
        self.next_mask += 1;
        let mut prob = 1.0;
        let mut members = Vec::new();
        for (j, c) in self.contributions.iter().enumerate() {
            if mask & (1 << j) != 0 {
                prob *= c.p();
                members.push(j);
            } else {
                prob *= 1.0 - c.p();
            }
        }
        Some((prob, members))
    }
}

/// Exhaustive expected spatial diversity `E[SD]` (test oracle).
pub fn expected_sd_exhaustive(contributions: &[Contribution]) -> f64 {
    PossibleWorlds::new(contributions)
        .map(|(prob, members)| {
            let angles: Vec<f64> = members.iter().map(|&j| contributions[j].angle).collect();
            prob * spatial_diversity(&angles)
        })
        .sum()
}

/// Exhaustive expected temporal diversity `E[TD]` (test oracle).
pub fn expected_td_exhaustive(contributions: &[Contribution], window: TimeWindow) -> f64 {
    PossibleWorlds::new(contributions)
        .map(|(prob, members)| {
            let arrivals: Vec<f64> = members.iter().map(|&j| contributions[j].arrival).collect();
            prob * temporal_diversity(&arrivals, window)
        })
        .sum()
}

/// Exhaustive expected spatial/temporal diversity `E[STD]` (Eq. 6, test
/// oracle).
pub fn expected_std_exhaustive(
    contributions: &[Contribution],
    window: TimeWindow,
    beta: f64,
) -> f64 {
    PossibleWorlds::new(contributions)
        .map(|(prob, members)| {
            let angles: Vec<f64> = members.iter().map(|&j| contributions[j].angle).collect();
            let arrivals: Vec<f64> = members.iter().map(|&j| contributions[j].arrival).collect();
            prob * std_diversity(
                beta,
                spatial_diversity(&angles),
                temporal_diversity(&arrivals, window),
            )
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::Confidence;
    use std::f64::consts::PI;

    fn contribution(p: f64, angle: f64, arrival: f64) -> Contribution {
        Contribution::new(Confidence::new(p).unwrap(), angle, arrival)
    }

    fn window() -> TimeWindow {
        TimeWindow::new(0.0, 10.0).unwrap()
    }

    #[test]
    fn world_probabilities_sum_to_one() {
        let cs = [
            contribution(0.3, 0.0, 1.0),
            contribution(0.9, PI, 2.0),
            contribution(0.5, 1.0, 3.0),
        ];
        let total: f64 = PossibleWorlds::new(&cs).map(|(p, _)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(PossibleWorlds::new(&cs).count(), 8);
    }

    #[test]
    fn empty_set_has_single_certain_world() {
        let worlds: Vec<_> = PossibleWorlds::new(&[]).collect();
        assert_eq!(worlds.len(), 1);
        assert_eq!(worlds[0].0, 1.0);
        assert!(worlds[0].1.is_empty());
    }

    #[test]
    fn certain_workers_yield_deterministic_expectation() {
        // All p = 1: the only world with non-zero probability is the full set.
        let cs = [contribution(1.0, 0.0, 2.5), contribution(1.0, PI, 5.0)];
        let e_sd = expected_sd_exhaustive(&cs);
        assert!((e_sd - 2.0_f64.ln()).abs() < 1e-12);
        let e_td = expected_td_exhaustive(&cs, window());
        let expected = crate::diversity::temporal_diversity(&[2.5, 5.0], window());
        assert!((e_td - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_confidence_workers_contribute_nothing() {
        let cs = [contribution(0.0, 0.0, 2.5), contribution(0.0, PI, 5.0)];
        assert_eq!(expected_std_exhaustive(&cs, window(), 0.5), 0.0);
    }

    #[test]
    fn expected_sd_two_workers_closed_form() {
        // E[SD] = p1*p2*SD({both}) since worlds with <2 workers have SD = 0.
        let p1 = 0.7;
        let p2 = 0.4;
        let cs = [contribution(p1, 0.0, 1.0), contribution(p2, PI, 2.0)];
        let expected = p1 * p2 * 2.0_f64.ln();
        assert!((expected_sd_exhaustive(&cs) - expected).abs() < 1e-12);
    }

    #[test]
    fn expected_td_single_worker_closed_form() {
        // E[TD] = p * TD({arrival}) for a single worker.
        let p = 0.6;
        let cs = [contribution(p, 1.0, 5.0)];
        let expected = p * 2.0_f64.ln();
        assert!((expected_td_exhaustive(&cs, window()) - expected).abs() < 1e-12);
    }

    #[test]
    fn expected_std_monotone_in_added_worker_lemma_4_2() {
        let base = vec![contribution(0.5, 0.3, 2.0), contribution(0.7, 2.0, 7.0)];
        let mut extended = base.clone();
        extended.push(contribution(0.6, 4.0, 4.0));
        let w = window();
        assert!(
            expected_std_exhaustive(&extended, w, 0.5)
                >= expected_std_exhaustive(&base, w, 0.5) - 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "possible-world enumeration limited")]
    fn refuses_oversized_sets() {
        let cs: Vec<Contribution> = (0..(MAX_EXHAUSTIVE_WORKERS + 1))
            .map(|i| contribution(0.5, i as f64, i as f64))
            .collect();
        let _ = PossibleWorlds::new(&cs);
    }
}
