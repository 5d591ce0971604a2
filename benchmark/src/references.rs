//! Recorded outputs for the two named seeds: the default seed, which is
//! the one used while writing a change, and the hold-out seed, on which any
//! later claim must hold too. Any other seed is checked structurally only
//! (candidate identity against brute force, well-formed assignments,
//! replay determinism, digest-exact recovery).
//!
//! Recorded at full size on the parent commit of the benchmark; to
//! re-baseline after a deliberate change of assignments, copy the
//! `reference candidates:` lines a run prints.

use crate::report::Report;
use crate::workloads::batch_uniform::SolverOutcome;

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 7;
/// The seed no change is tuned on.
pub const HOLD_OUT_SEED: u64 = 1009;

/// A solver may lose at most this share of its recorded total expected STD.
const STD_FLOOR: f64 = 0.99;
/// A solver may lose at most this much of its recorded minimum reliability.
const RELIABILITY_SLACK: f64 = 0.005;

/// `batch_uniform`, first timed pass: valid pairs, then per solver (GREEDY,
/// SAMPLING, D&C) the total expected STD and the minimum reliability.
pub struct BatchReference {
    pairs: usize,
    solvers: [(f64, f64); 3],
}

impl BatchReference {
    /// Fails the pass when the candidate count moved or a solver's quality
    /// fell below its floor.
    pub fn check(&self, solvers: &[SolverOutcome; 3], pairs: usize, report: &mut Report) {
        report.check(pairs == self.pairs, 1, || {
            format!("{pairs} valid pairs, {} recorded for this seed", self.pairs)
        });
        for ((outcome, (total_std, min_reliability)), name) in solvers
            .iter()
            .zip(self.solvers)
            .zip(["GREEDY", "SAMPLING", "D&C"])
        {
            report.check(
                outcome.total_std >= STD_FLOOR * total_std
                    && outcome.min_reliability >= min_reliability - RELIABILITY_SLACK,
                1,
                || {
                    format!(
                        "{name} quality fell below the recorded floor: total_std {} (recorded {total_std}), \
                         min_reliability {} (recorded {min_reliability})",
                        outcome.total_std, outcome.min_reliability
                    )
                },
            );
        }
    }
}

/// The recorded `batch_uniform` outputs for `seed`, if it is a named seed.
pub fn batch_uniform(seed: u64) -> Option<BatchReference> {
    match seed {
        DEFAULT_SEED => Some(BatchReference {
            pairs: 4606,
            solvers: [
                (62.40378010820218, 0.9010135354641053),
                (28.35708178539754, 0.9110965174310508),
                (46.811439229730645, 0.9009280808595003),
            ],
        }),
        HOLD_OUT_SEED => Some(BatchReference {
            pairs: 4670,
            solvers: [
                (70.07254447524403, 0.912875539668309),
                (35.29757153701971, 0.912875539668309),
                (55.88658606759512, 0.9071445709784746),
            ],
        }),
        _ => None,
    }
}

/// The recorded `metro_replay` committed-pair digest for `seed`.
pub fn metro_replay(seed: u64) -> Option<u64> {
    match seed {
        DEFAULT_SEED => Some(0x25c2_363d_ab93_37cb),
        HOLD_OUT_SEED => Some(0xfaee_92b2_79c8_02e9),
        _ => None,
    }
}
