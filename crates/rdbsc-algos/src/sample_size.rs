//! Determination of the sampling solver's sample size `K̂` (Section 5.2).
//!
//! The sampling algorithm draws `K` random task-and-worker assignments from
//! the population of all `N = Π deg(wⱼ)` possible assignments and keeps the
//! best. Section 5.2 asks for the smallest `K` such that the rank of the best
//! sample lands in the top `ε` fraction of the population with probability
//! greater than `δ`, and derives the condition `F(K) ≤ 1 − δ` with
//!
//! ```text
//! F(K) = (1 − p)^N · (p / (1 − p))^K · C(M, K),   M = (1 − ε)·N,  p = 1/N,
//! ```
//!
//! solved by binary search over `K` (Eq. 15 provides the lower end of the
//! bracket). For the instance sizes of the paper `N` is astronomically large
//! (`ln N` in the thousands), so this module evaluates `ln F(K)` with
//! log-gamma arithmetic and switches to the `N → ∞` limit
//! `ln F(K) ≈ −1 + K·ln(1 − ε) − ln K!` when `N` overflows `f64`.
//!
//! The module also provides the classical quantile bound
//! `K = ⌈ln(1 − δ) / ln(1 − ε)⌉` (the probability that all `K` independent
//! samples miss the top `ε` fraction is `(1 − ε)^K`), which is what the
//! binary-searched bound converges to for large populations and which we use
//! as a sanity cross-check in tests.

/// Natural log of the gamma function, via the Lanczos approximation
/// (sufficient accuracy for sample-size computations).
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g = 7, n = 9).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln C(m, k)` for real `m` (via log-gamma).
fn ln_choose(m: f64, k: f64) -> f64 {
    if k < 0.0 || k > m {
        return f64::NEG_INFINITY;
    }
    ln_gamma(m + 1.0) - ln_gamma(k + 1.0) - ln_gamma(m - k + 1.0)
}

/// `ln F(K)` for a population of `N = exp(ln_population)` assignments.
fn ln_f(k: f64, ln_population: f64, epsilon: f64) -> f64 {
    let ln_one_minus_eps = (1.0 - epsilon).ln();
    if ln_population > 600.0 {
        // N is far beyond f64 range; use the N → ∞ limit:
        //   (1−p)^N → e^{-1},  (p/(1−p))^K·C(M,K) → ((1−ε)·N·p)^K / K! = (1−ε)^K / K!.
        return -1.0 + k * ln_one_minus_eps - ln_gamma(k + 1.0);
    }
    let n = ln_population.exp().max(2.0);
    let p = 1.0 / n;
    let m = (1.0 - epsilon) * n;
    (n) * (1.0 - p).ln() + k * (p / (1.0 - p)).ln() + ln_choose(m, k)
}

/// The classical quantile bound: smallest `K` with `(1 − ε)^K ≤ 1 − δ`.
pub fn simple_sample_size(epsilon: f64, delta: f64) -> usize {
    let epsilon = epsilon.clamp(1e-6, 0.999_999);
    let delta = delta.clamp(0.0, 0.999_999);
    let k = ((1.0 - delta).ln() / (1.0 - epsilon).ln()).ceil();
    (k.max(1.0)) as usize
}

/// Determines the minimum sample size `K̂` such that the best of `K̂`
/// independent samples ranks in the top `ε` fraction of the population with
/// probability greater than `δ` (Section 5.2), i.e. the smallest `K` with
/// `F(K) ≤ 1 − δ`.
///
/// * `ln_population` — natural log of the population size
///   `N = Π deg(wⱼ)` (see `BipartiteCandidates::ln_population`).
/// * The result is clamped into `[1, max_k]`.
pub fn determine_sample_size(ln_population: f64, epsilon: f64, delta: f64, max_k: usize) -> usize {
    let epsilon = epsilon.clamp(1e-6, 0.999_999);
    let delta = delta.clamp(0.0, 0.999_999);
    let max_k = max_k.max(1);
    if ln_population <= 0.0 {
        // Population of one assignment (or none): a single sample is exact.
        return 1;
    }
    let target = (1.0 - delta).ln();
    // F(K) is decreasing in K beyond the Eq. 15 threshold; binary search for
    // the smallest K with ln F(K) <= ln(1 - δ).
    let mut lo = 1usize;
    let mut hi = max_k;
    if ln_f(hi as f64, ln_population, epsilon) > target {
        // Even max_k samples cannot certify the bound; return the cap.
        return max_k;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ln_f(mid as f64, ln_population, epsilon) <= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo.clamp(1, max_k)
}

/// Sample size actually used by the sampling solver: the larger of the
/// paper's binary-searched bound and the classical quantile bound, clamped to
/// `[1, max_k]`.
///
/// In the large-population limit the paper's `F(K)` decays like
/// `e^{-1}·(1 − ε)^K / K!`, which is much faster than the true probability
/// `(1 − ε)^K` that `K` independent uniform samples all miss the top `ε`
/// fraction; taking the maximum of the two bounds keeps the paper's
/// procedure while restoring the (ε, δ) guarantee under uniform sampling
/// (verified empirically in the tests).
pub fn certified_sample_size(ln_population: f64, epsilon: f64, delta: f64, max_k: usize) -> usize {
    let paper = determine_sample_size(ln_population, epsilon, delta, max_k);
    let classical = simple_sample_size(epsilon, delta);
    paper.max(classical).clamp(1, max_k.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // ln Γ(n+1) = ln n!
        let facts: [(f64, f64); 5] = [
            (1.0, 0.0),
            (2.0, 0.0),
            (5.0, 24.0f64.ln()),
            (6.0, 120.0f64.ln()),
            (11.0, 3_628_800.0f64.ln()),
        ];
        for (x, expected) in facts {
            assert!(
                (ln_gamma(x) - expected).abs() < 1e-9,
                "lnΓ({x}) = {} vs {expected}",
                ln_gamma(x)
            );
        }
    }

    #[test]
    fn simple_bound_behaviour() {
        // Tighter ε or higher δ require more samples.
        assert!(simple_sample_size(0.01, 0.95) > simple_sample_size(0.1, 0.95));
        assert!(simple_sample_size(0.05, 0.99) > simple_sample_size(0.05, 0.9));
        // Known value: ln(0.05)/ln(0.99) ≈ 298.1 → 299.
        assert_eq!(simple_sample_size(0.01, 0.95), 299);
    }

    #[test]
    fn paper_bound_is_looser_than_classical_for_large_populations() {
        // ln N = 5000 (astronomically large population). In this limit the
        // paper's F(K) decays factorially, so its bound is (much) smaller
        // than the classical quantile bound; the certified size takes the
        // maximum of the two.
        let paper = determine_sample_size(5_000.0, 0.01, 0.95, 100_000);
        let simple = simple_sample_size(0.01, 0.95);
        let certified = certified_sample_size(5_000.0, 0.01, 0.95, 100_000);
        assert!(paper >= 1);
        assert!(paper <= simple);
        assert_eq!(certified, simple.max(paper));
    }

    #[test]
    fn monotone_in_epsilon_and_delta() {
        let base = determine_sample_size(1_000.0, 0.05, 0.9, 100_000);
        assert!(determine_sample_size(1_000.0, 0.01, 0.9, 100_000) >= base);
        assert!(determine_sample_size(1_000.0, 0.05, 0.99, 100_000) >= base);
    }

    #[test]
    fn small_populations_need_few_samples() {
        // ln N = ln(8): a population of 8 assignments.
        let k = determine_sample_size(8.0f64.ln(), 0.1, 0.9, 1_000);
        assert!(k <= 32, "tiny population should need few samples, got {k}");
        assert_eq!(determine_sample_size(0.0, 0.1, 0.9, 1_000), 1);
    }

    #[test]
    fn respects_the_cap() {
        assert_eq!(certified_sample_size(5_000.0, 1e-6, 0.999, 50), 50);
        assert!(determine_sample_size(5_000.0, 0.01, 0.95, 100_000) <= 100_000);
    }

    #[test]
    fn certified_size_holds_empirically_for_small_population() {
        // Brute-force check of the (ε, δ) guarantee on a small synthetic
        // population: with K samples drawn uniformly, the best sample should
        // land in the top ε·N with probability > δ.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 1_000usize;
        let epsilon = 0.05;
        let delta = 0.9;
        let k = certified_sample_size((n as f64).ln(), epsilon, delta, 10_000);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 2_000;
        let mut hits = 0;
        for _ in 0..trials {
            let best = (0..k).map(|_| rng.gen_range(0..n)).max().unwrap();
            if best >= ((1.0 - epsilon) * n as f64) as usize {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        assert!(
            rate > delta - 0.05,
            "empirical success rate {rate} below δ={delta}"
        );
    }
}
