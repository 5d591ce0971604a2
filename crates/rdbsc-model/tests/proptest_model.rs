//! Property-based tests for the RDB-SC model crate.
//!
//! The headline property is the equivalence (Lemma 3.1) between the
//! polynomial expected-diversity computation and the exhaustive
//! possible-worlds expectation, exercised over random worker sets.

use proptest::prelude::*;
use rdbsc_model::dominance::{dominating_counts, BiObjective};
use rdbsc_model::expected::ExpectedScratch;
use rdbsc_model::possible_worlds::{
    expected_sd_exhaustive, expected_std_exhaustive, expected_td_exhaustive,
};
use rdbsc_model::{
    expected_sd, expected_std, expected_td, log_reliability, reliability, spatial_diversity,
    temporal_diversity, BasePlusOne, Confidence, Contribution, DominanceRanker, TimeWindow,
};
use std::f64::consts::TAU;
use std::ops::Range;

/// Strategy generating a small worker set as (p, angle, arrival) triples.
fn contribution_set(max_len: usize) -> impl Strategy<Value = Vec<Contribution>> {
    proptest::collection::vec((0.0f64..=1.0, 0.0f64..TAU, 0.0f64..10.0), 0..=max_len).prop_map(
        |v| {
            v.into_iter()
                .map(|(p, a, t)| Contribution::new(Confidence::new(p).unwrap(), a, t))
                .collect()
        },
    )
}

fn window() -> TimeWindow {
    TimeWindow::new(0.0, 10.0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lemma 3.1: the matrix/decomposition computation equals the exhaustive
    /// possible-worlds expectation.
    #[test]
    fn expected_diversity_matches_exhaustive(cs in contribution_set(8), beta in 0.0f64..=1.0) {
        let w = window();
        let sd_fast = expected_sd(&cs);
        let sd_slow = expected_sd_exhaustive(&cs);
        prop_assert!((sd_fast - sd_slow).abs() < 1e-8, "E[SD] {sd_fast} vs {sd_slow}");
        let td_fast = expected_td(&cs, w);
        let td_slow = expected_td_exhaustive(&cs, w);
        prop_assert!((td_fast - td_slow).abs() < 1e-8, "E[TD] {td_fast} vs {td_slow}");
        let std_fast = expected_std(&cs, w, beta);
        let std_slow = expected_std_exhaustive(&cs, w, beta);
        prop_assert!((std_fast - std_slow).abs() < 1e-8, "E[STD] {std_fast} vs {std_slow}");
    }

    /// Expected diversity is bounded above by the deterministic diversity of
    /// the full worker set (every possible world's STD is at most that, by
    /// the monotonicity of Lemma 4.2).
    #[test]
    fn expected_bounded_by_deterministic(cs in contribution_set(8), beta in 0.0f64..=1.0) {
        let w = window();
        let angles: Vec<f64> = cs.iter().map(|c| c.angle).collect();
        let arrivals: Vec<f64> = cs.iter().map(|c| c.arrival).collect();
        let det = beta * spatial_diversity(&angles) + (1.0 - beta) * temporal_diversity(&arrivals, w);
        prop_assert!(expected_std(&cs, w, beta) <= det + 1e-9);
        prop_assert!(expected_std(&cs, w, beta) >= -1e-12);
    }

    /// Lemma 4.2 (monotonicity): appending one more worker never decreases
    /// the expected diversity.
    #[test]
    fn expected_std_monotone_in_workers(
        cs in contribution_set(7),
        p in 0.0f64..=1.0,
        angle in 0.0f64..TAU,
        arrival in 0.0f64..10.0,
        beta in 0.0f64..=1.0,
    ) {
        let w = window();
        let base = expected_std(&cs, w, beta);
        let mut extended = cs.clone();
        extended.push(Contribution::new(Confidence::new(p).unwrap(), angle, arrival));
        let after = expected_std(&extended, w, beta);
        prop_assert!(after >= base - 1e-9, "adding a worker decreased E[STD]: {base} -> {after}");
    }

    /// Reliability identities: rel = 1 - exp(-R) and both are monotone in the
    /// worker set (Lemma 4.1).
    #[test]
    fn reliability_identities(ps in proptest::collection::vec(0.0f64..0.999, 0..10), extra in 0.0f64..0.999) {
        let cs: Vec<Confidence> = ps.iter().map(|&p| Confidence::new(p).unwrap()).collect();
        let rel = reliability(&cs);
        let log_rel = log_reliability(&cs);
        prop_assert!((rel - (1.0 - (-log_rel).exp())).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&rel));
        let mut more = cs.clone();
        more.push(Confidence::new(extra).unwrap());
        prop_assert!(reliability(&more) >= rel - 1e-12);
        prop_assert!(log_reliability(&more) >= log_rel - 1e-12);
    }

    /// Diversity entropies are bounded by ln of the number of parts.
    #[test]
    fn diversity_entropy_bounds(
        angles in proptest::collection::vec(0.0f64..TAU, 2..12),
        arrivals in proptest::collection::vec(0.0f64..10.0, 1..12),
    ) {
        let sd = spatial_diversity(&angles);
        prop_assert!(sd >= 0.0 && sd <= (angles.len() as f64).ln() + 1e-9);
        let td = temporal_diversity(&arrivals, window());
        prop_assert!(td >= 0.0 && td <= ((arrivals.len() + 1) as f64).ln() + 1e-9);
    }
}

/// A contribution with `p` ∈ {0, 1, interior}, the angle on an eight-ray
/// lattice or anywhere strictly inside `(0, 2π)`, and the arrival on a
/// lattice through both ends of `[0, 10]` or anywhere in `[-3, 13]`.
fn edgy_contribution() -> impl Strategy<Value = Contribution> {
    edgy_contribution_in(0.0..1.0)
}

/// [`edgy_contribution`] with its interior `p` drawn from `interior`.
fn edgy_contribution_in(interior: Range<f64>) -> impl Strategy<Value = Contribution> {
    (
        0u8..4,
        interior,
        0u8..2,
        1u8..8,
        0.1f64..TAU - 0.1,
        0u8..2,
        0u8..6,
        -3.0f64..13.0,
    )
        .prop_map(|(p_sel, p, a_sel, a_lattice, a, t_sel, t_lattice, t)| {
            let p = match p_sel {
                0 => 0.0,
                1 => 1.0,
                _ => p,
            };
            let angle = if a_sel == 0 {
                f64::from(a_lattice) * TAU / 8.0
            } else {
                a
            };
            let arrival = if t_sel == 0 {
                f64::from(t_lattice) * 2.0
            } else {
                t
            };
            Contribution::new(Confidence::new(p).unwrap(), angle, arrival)
        })
}

/// How the extra worker is drawn: `(placement, twin selector, p selector,
/// interior p)`.
type ExtraSpec = (u8, f64, u8, f64);
/// How the window and `β` are drawn: `(window selector, β selector,
/// interior β)`.
type SetSpec = (u8, u8, f64);

/// `BasePlusOne` on `base` returns the full kernel's bits for the base and
/// for the base plus one extra worker. The extra sorts before every base
/// worker, after every one, after equal keys copied from a base worker, or
/// anywhere; windows have length 10 or 0, and β is 0, 1 or interior.
fn check_base_plus_one(
    base: &[Contribution],
    anywhere: Contribution,
    (placement, copied, p_sel, p): ExtraSpec,
    (window_sel, beta_sel, beta): SetSpec,
) -> Result<(), TestCaseError> {
    let p = Confidence::new([0.0, 1.0, p][usize::from(p_sel)]).unwrap();
    let extra = match placement {
        // Angle 0 and arrival −5 sort before every base worker.
        0 => Contribution::new(p, 0.0, -5.0),
        // The largest angle below 2π and arrival 20 sort after them.
        1 => Contribution::new(p, TAU.next_down(), 20.0),
        2 if !base.is_empty() => {
            let twin = base[((copied * base.len() as f64) as usize).min(base.len() - 1)];
            Contribution::new(p, twin.angle, twin.arrival)
        }
        _ => anywhere,
    };
    let window = if window_sel == 0 {
        TimeWindow::new(5.0, 5.0).unwrap()
    } else {
        window()
    };
    let beta = [0.0, 1.0, beta][usize::from(beta_sel)];
    let mut recorded = BasePlusOne::default();
    recorded.record(base, window, beta);
    prop_assert_eq!(
        recorded.value().to_bits(),
        expected_std(base, window, beta).to_bits()
    );
    let mut extended = base.to_vec();
    extended.push(extra);
    prop_assert_eq!(
        recorded
            .plus_one(&extra, &mut ExpectedScratch::default())
            .to_bits(),
        expected_std(&extended, window, beta).to_bits(),
        "{} base workers, extra {:?}",
        base.len(),
        extra
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// [`check_base_plus_one`] with `p` anywhere in `[0, 1]`.
    #[test]
    fn base_plus_one_is_the_kernel_to_the_bit(
        base in proptest::collection::vec(edgy_contribution(), 0..=48),
        anywhere in edgy_contribution(),
        extra_spec in (0u8..4, 0.0f64..1.0, 0u8..3, 0.0f64..1.0),
        set_spec in (0u8..4, 0u8..3, 0.0f64..1.0),
    ) {
        check_base_plus_one(&base, anywhere, extra_spec, set_spec)?;
    }

    /// [`check_base_plus_one`] in the paper's confidence range: interior
    /// `p` in `[0.9, 1)`, plus exact 0s and 1s, over 16–80 workers. Here
    /// `absent` shrinks 10× or more a step, so walks stop on a negligible
    /// tail, in the base record and in the extended sum at different steps.
    #[test]
    fn base_plus_one_is_the_kernel_to_the_bit_at_paper_range(
        base in proptest::collection::vec(edgy_contribution_in(0.9..1.0), 16..=80),
        anywhere in edgy_contribution_in(0.9..1.0),
        extra_spec in (0u8..4, 0.0f64..1.0, 0u8..3, 0.9f64..1.0),
        set_spec in (0u8..4, 0u8..3, 0.0f64..1.0),
    ) {
        check_base_plus_one(&base, anywhere, extra_spec, set_spec)?;
    }
}

/// Candidates on a coarse lattice — exact duplicates, long equal-x and
/// equal-y runs — some nudged by a few ulps so that sums tie within the
/// ranking's `1e-15` tolerance without being equal.
fn lattice_values(max_len: usize) -> impl Strategy<Value = Vec<BiObjective>> {
    proptest::collection::vec((0u8..6, 0u8..6, 0u8..4, 0u8..4), 0..=max_len).prop_map(|cells| {
        let nudge = |n: u8| [0.0, 2e-16, 6e-16, 3e-15][usize::from(n)];
        cells
            .into_iter()
            .map(|(x, y, dx, dy)| {
                (
                    f64::from(x) * 0.25 + nudge(dx),
                    f64::from(y) * 0.25 + nudge(dy),
                )
            })
            .collect()
    })
}

/// The ranking by definition: the first maximum of the quadratic counts,
/// replaced by any later equal count whose sum is more than `1e-15` larger.
fn rank_by_definition(values: &[BiObjective]) -> Option<usize> {
    let counts = dominating_counts(values);
    (0..values.len()).reduce(|best, i| {
        let better = counts[i] > counts[best]
            || (counts[i] == counts[best]
                && values[i].0 + values[i].1 > values[best].0 + values[best].1 + 1e-15);
        if better {
            i
        } else {
            best
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The skyline-staircase ranking picks the candidate the quadratic
    /// dominating counts and the tie-breaks pick, on either side of the 256
    /// candidates where the ranking used to change algorithm, with one
    /// ranker reused across inputs of different sizes.
    #[test]
    fn ranker_matches_the_quadratic_oracle(
        small in lattice_values(40),
        large in lattice_values(600),
    ) {
        let mut ranker = DominanceRanker::default();
        for values in [&large, &small, &large] {
            prop_assert_eq!(ranker.rank(values), rank_by_definition(values), "{} candidates", values.len());
        }
    }
}
