//! Polynomial computation of the expected spatial/temporal diversity
//! (Section 3.2, Eqs. 9–11, Lemma 3.1).
//!
//! The paper reduces the exponential possible-worlds expectation (Eq. 6) to
//! the sum of two matrices `M_SD` and `M_TD`, whose entry `(j, k)` is the
//! probability that a particular angular gap / time sub-interval exists in a
//! possible world, multiplied by that gap's entropy term. Conceptually:
//!
//! * A gap from worker `j`'s ray counter-clockwise to worker `k`'s ray exists
//!   exactly when both `j` and `k` succeed and every worker whose ray lies
//!   strictly between them fails.
//! * A time sub-interval from boundary `a` to boundary `b` (boundaries are
//!   worker arrivals plus the window endpoints) exists exactly when both
//!   boundaries are "real" (their workers succeed, window endpoints always
//!   are) and every worker arriving strictly between them fails.
//!
//! This module implements exactly that decomposition with running products,
//! giving `O(r²)` arithmetic per task (the paper quotes `O(r³)` for the naive
//! per-entry evaluation). Correctness is cross-checked against the
//! exhaustive oracle in [`crate::possible_worlds`] by unit and property
//! tests.
//!
//! There is one kernel per quantity, working on caller-provided buffers.
//! The solvers call [`expected_std_with`] with an [`ExpectedScratch`] they
//! keep for a whole solve; [`expected_sd`], [`expected_td`] and
//! [`expected_std`] are thin wrappers that run the same kernels on a stack
//! buffer (up to 16 workers) or a fresh heap one.
//!
//! # One more worker: [`BasePlusOne`]
//!
//! GREEDY asks for `expected_std(base ++ [c])` for many candidates `c` of
//! one base set. [`BasePlusOne`] evaluates the base once, recording the
//! entropy of every term, and then answers each candidate with the bits the
//! kernel above returns. It runs the kernel's loops over the extended set in
//! the kernel's order — every running product, arc and sum is formed as the
//! kernel forms it — and takes a term's entropy, its one `ln`, from the
//! record wherever the term's fraction is provably the base's. The stable
//! sort puts `c` after its equal keys, at one position `q` of each sorted
//! order, and every term of the extended set is one of these:
//!
//! * **Bounded by `c`.** `c`'s own walk, the step of every other walk onto
//!   `c`, and `c`'s `O(r)` time intervals: the entropy is new.
//! * **A time interval `c` does not bound.** Its length is the base's, so
//!   its entropy is recorded, whether or not it spans `q`.
//! * **An `E[SD]` step before its walk reaches `c`.** It crossed the same
//!   gaps as in the base, so its arc and entropy are the base's.
//! * **An `E[SD]` step past `c`.** Its arc was summed over one more gap
//!   than the base arc one ray shorter, which ends at the same ray. The
//!   base entropy is taken when the two arcs have the same bits; otherwise
//!   it is recomputed. The base arc is re-summed alongside: it crosses the
//!   extended set's gaps, except that one base gap stands for the two that
//!   `c` splits it into.
//!
//! A recorded entropy is read only for a term whose probability is
//! positive, and the base term's probability was positive too: the
//! extended product only inserts the factor `1 − p_c ≤ 1`, and inserting a
//! factor `≤ 1` into a rounded product never raises it. What remains is
//! `O(r²)` additions and multiplications but only `O(r)` logarithms plus
//! one per arc whose bits moved, against `O(r²)` logarithms for a full
//! evaluation.

use crate::diversity::entropy_term;
use crate::task::TimeWindow;
use crate::valid_pairs::Contribution;
use rdbsc_geo::FULL_TURN;
use std::cmp::Ordering;

/// Worker sets up to this size are evaluated on a stack buffer by the
/// allocating wrappers.
const STACK_WORKERS: usize = 16;

/// Reusable buffers of the expected-diversity kernels. Contents between
/// calls are meaningless; only the capacity is kept.
#[derive(Debug, Clone, Default)]
pub struct ExpectedScratch {
    /// `(sort key, success probability)` per worker, sorted by key.
    keyed: Vec<(f64, f64)>,
    /// Elementary angular gaps between consecutive rays.
    gaps: Vec<f64>,
}

impl ExpectedScratch {
    /// The two buffers, resized to `r` workers.
    fn buffers(&mut self, r: usize) -> (&mut [(f64, f64)], &mut [f64]) {
        self.keyed.resize(r, (0.0, 0.0));
        self.gaps.resize(r, 0.0);
        (&mut self.keyed, &mut self.gaps)
    }
}

/// Runs `kernel` on buffers for `r` workers: on the stack when they fit.
fn with_buffers<T>(r: usize, kernel: impl FnOnce(&mut [(f64, f64)], &mut [f64]) -> T) -> T {
    if r <= STACK_WORKERS {
        let mut keyed = [(0.0, 0.0); STACK_WORKERS];
        let mut gaps = [0.0; STACK_WORKERS];
        kernel(&mut keyed[..r], &mut gaps[..r])
    } else {
        let mut scratch = ExpectedScratch::default();
        let (keyed, gaps) = scratch.buffers(r);
        kernel(keyed, gaps)
    }
}

/// Fills `keyed` with `(key(c), p(c))` and sorts it by key. The sort is
/// stable, so workers with equal keys keep their input order — the order the
/// running products below multiply them in.
fn sort_by_key(
    contributions: &[Contribution],
    keyed: &mut [(f64, f64)],
    key: impl Fn(&Contribution) -> f64,
) {
    for (slot, c) in keyed.iter_mut().zip(contributions) {
        *slot = (key(c), c.p());
    }
    keyed.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("angles and arrivals must not be NaN")
    });
}

/// The angular gap from sorted ray `x` counter-clockwise to the next one,
/// cyclically.
fn ray_gap(rays: &[(f64, f64)], x: usize) -> f64 {
    let next = if x + 1 == rays.len() {
        rays[0].0 + FULL_TURN
    } else {
        rays[x + 1].0
    };
    (next - rays[x].0).max(0.0)
}

/// The `E[SD]` kernel; `keyed` and `gaps` have one slot per worker.
fn sd_kernel(contributions: &[Contribution], keyed: &mut [(f64, f64)], gaps: &mut [f64]) -> f64 {
    let r = contributions.len();
    if r < 2 {
        // With fewer than two successful workers SD is always 0.
        return 0.0;
    }
    // Sort rays by angle; remember each worker's success probability.
    sort_by_key(contributions, keyed, |c| c.angle);

    // Elementary angular gaps between consecutive rays (cyclic, sums to 2π).
    for (x, gap) in gaps.iter_mut().enumerate() {
        *gap = ray_gap(keyed, x);
    }

    let mut expectation = 0.0;
    for j in 0..r {
        // Walk counter-clockwise from ray j; `absent` accumulates the
        // probability that all rays strictly between j and the current k fail.
        let mut absent = 1.0;
        let mut arc = 0.0;
        let mut k = j;
        for _ in 1..r {
            arc += gaps[k];
            k = if k + 1 == r { 0 } else { k + 1 };
            let prob = keyed[j].1 * keyed[k].1 * absent;
            if prob > 0.0 {
                expectation += prob * entropy_term(arc / FULL_TURN);
            }
            absent *= 1.0 - keyed[k].1;
            if absent == 0.0 && keyed[j].1 == 0.0 {
                break;
            }
        }
    }
    expectation
}

/// The `E[TD]` kernel; `keyed` has one slot per worker.
fn td_kernel(contributions: &[Contribution], window: TimeWindow, keyed: &mut [(f64, f64)]) -> f64 {
    let duration = window.duration();
    let r = contributions.len();
    if duration <= 0.0 || r == 0 {
        return 0.0;
    }
    // Sort arrivals, then clamp them into the window.
    sort_by_key(contributions, keyed, |c| c.arrival);
    for slot in keyed.iter_mut() {
        slot.0 = window.clamp(slot.0);
    }

    let mut expectation = 0.0;

    // Sub-intervals bounded on the left by the window start.
    {
        let mut absent = 1.0;
        for &(arrival, p) in keyed.iter() {
            let length = arrival - window.start;
            let prob = p * absent;
            if prob > 0.0 {
                expectation += prob * entropy_term(length / duration);
            }
            absent *= 1.0 - p;
        }
        // The interval [start, end] with every worker absent has fraction 1
        // and entropy 0, so it never contributes.
    }

    // Sub-intervals bounded by two worker arrivals, and those bounded on the
    // right by the window end.
    for j in 0..r {
        let (arrival_j, p_j) = keyed[j];
        let mut absent = 1.0;
        for &(arrival_k, p_k) in &keyed[j + 1..] {
            let length = arrival_k - arrival_j;
            let prob = p_j * p_k * absent;
            if prob > 0.0 {
                expectation += prob * entropy_term(length / duration);
            }
            absent *= 1.0 - p_k;
        }
        // [arrival_j, end] exists when j succeeds and every later worker fails.
        let length = window.end - arrival_j;
        let prob = p_j * absent;
        if prob > 0.0 {
            expectation += prob * entropy_term(length / duration);
        }
    }
    expectation
}

/// The `E[STD]` kernel (Lemma 3.1): the two kernels above, each skipped when
/// `β` gives it no weight.
fn std_kernel(
    contributions: &[Contribution],
    window: TimeWindow,
    beta: f64,
    keyed: &mut [(f64, f64)],
    gaps: &mut [f64],
) -> f64 {
    let beta = beta.clamp(0.0, 1.0);
    let sd = if beta > 0.0 {
        sd_kernel(contributions, keyed, gaps)
    } else {
        0.0
    };
    let td = if beta < 1.0 {
        td_kernel(contributions, window, keyed)
    } else {
        0.0
    };
    beta * sd + (1.0 - beta) * td
}

/// Expected spatial diversity `E[SD]` of a worker set under possible-worlds
/// semantics.
pub fn expected_sd(contributions: &[Contribution]) -> f64 {
    with_buffers(contributions.len(), |keyed, gaps| {
        sd_kernel(contributions, keyed, gaps)
    })
}

/// Expected temporal diversity `E[TD]` of a worker set under possible-worlds
/// semantics.
pub fn expected_td(contributions: &[Contribution], window: TimeWindow) -> f64 {
    with_buffers(contributions.len(), |keyed, _| {
        td_kernel(contributions, window, keyed)
    })
}

/// Expected combined diversity `E[STD] = β·E[SD] + (1−β)·E[TD]` (Lemma 3.1).
pub fn expected_std(contributions: &[Contribution], window: TimeWindow, beta: f64) -> f64 {
    with_buffers(contributions.len(), |keyed, gaps| {
        std_kernel(contributions, window, beta, keyed, gaps)
    })
}

/// [`expected_std`] on reusable buffers: the variant the solvers call in
/// their inner loops.
pub fn expected_std_with(
    contributions: &[Contribution],
    window: TimeWindow,
    beta: f64,
    scratch: &mut ExpectedScratch,
) -> f64 {
    let (keyed, gaps) = scratch.buffers(contributions.len());
    std_kernel(contributions, window, beta, keyed, gaps)
}

/// The terms of one base set's `E[STD]`: what `expected_std(base ++ [extra])`
/// needs, to the bit, beyond the entropies `extra` changes (see the module
/// docs). A record takes 8 bytes a term, `O(r²)` for `r` workers.
#[derive(Debug, Clone)]
pub struct BasePlusOne {
    window: TimeWindow,
    /// `β` clamped into `[0, 1]`.
    beta: f64,
    value: f64,
    /// `(angle, p)` per worker, sorted by angle.
    rays: Vec<(f64, f64)>,
    /// Row `j` holds the entropy of steps `1..r` of the walk from ray `j`.
    /// Rows of rays with `p = 0`, and the entropy of a term whose
    /// probability is not positive, are not recorded (and never read).
    sd_entropy: Vec<f64>,
    /// Raw arrivals, sorted: where an extra worker sorts in.
    arrivals: Vec<f64>,
    /// `(arrival clamped into the window, p)` per worker, in arrival order.
    times: Vec<(f64, f64)>,
    /// The entropy of `[start, arrival_k]` per worker.
    td_left: Vec<f64>,
    /// Row `j` holds the entropy of `[arrival_j, arrival_k]` for every
    /// `k > j`, then that of `[arrival_j, end]`.
    td_rows: Vec<f64>,
}

impl Default for BasePlusOne {
    /// The record of the empty set over an empty window.
    fn default() -> Self {
        Self {
            window: TimeWindow {
                start: 0.0,
                end: 0.0,
            },
            beta: 0.0,
            value: 0.0,
            rays: Vec::new(),
            sd_entropy: Vec::new(),
            arrivals: Vec::new(),
            times: Vec::new(),
            td_left: Vec::new(),
            td_rows: Vec::new(),
        }
    }
}

impl BasePlusOne {
    /// Records the terms of `base` in place of the current ones, keeping the
    /// buffers.
    pub fn record(&mut self, base: &[Contribution], window: TimeWindow, beta: f64) {
        self.window = window;
        self.beta = beta.clamp(0.0, 1.0);
        let sd = if self.beta > 0.0 {
            self.record_sd(base)
        } else {
            0.0
        };
        let td = if self.beta < 1.0 {
            self.record_td(base)
        } else {
            0.0
        };
        self.value = self.beta * sd + (1.0 - self.beta) * td;
    }

    /// `expected_std(base, window, beta)`, to the bit.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// `expected_std(base ++ [extra], window, beta)`, to the bit. `scratch`
    /// holds the extended set while it is summed.
    pub fn plus_one(&self, extra: &Contribution, scratch: &mut ExpectedScratch) -> f64 {
        let sd = if self.beta > 0.0 {
            self.plus_one_sd(extra, scratch)
        } else {
            0.0
        };
        let td = if self.beta < 1.0 {
            self.plus_one_td(extra, scratch)
        } else {
            0.0
        };
        self.beta * sd + (1.0 - self.beta) * td
    }

    /// [`sd_kernel`] on `base`, keeping the entropies.
    fn record_sd(&mut self, base: &[Contribution]) -> f64 {
        let r = base.len();
        let Self {
            rays, sd_entropy, ..
        } = self;
        rays.resize(r, (0.0, 0.0));
        sort_by_key(base, rays, |c| c.angle);
        if r < 2 {
            return 0.0;
        }
        sd_entropy.resize(r * (r - 1), 0.0);
        let mut expectation = 0.0;
        for (j, row) in sd_entropy.chunks_exact_mut(r - 1).enumerate() {
            let p_j = rays[j].1;
            if p_j == 0.0 {
                // No term of this walk has a positive probability.
                continue;
            }
            let mut absent = 1.0;
            let mut arc = 0.0;
            let mut k = j;
            for entropy in row {
                arc += ray_gap(rays, k);
                k = if k + 1 == r { 0 } else { k + 1 };
                let prob = p_j * rays[k].1 * absent;
                if prob > 0.0 {
                    *entropy = entropy_term(arc / FULL_TURN);
                    expectation += prob * *entropy;
                }
                absent *= 1.0 - rays[k].1;
            }
        }
        expectation
    }

    /// [`sd_kernel`] on `base ++ [extra]`, with the recorded entropies.
    fn plus_one_sd(&self, extra: &Contribution, scratch: &mut ExpectedScratch) -> f64 {
        let r = self.rays.len();
        let n = r + 1;
        if n < 2 {
            return 0.0;
        }
        // The stable sort puts `extra` after every ray with an equal angle.
        let q = self
            .rays
            .partition_point(|&(angle, _)| angle <= extra.angle);
        // The base's gap from `extra`'s predecessor to its successor.
        let crossed = ray_gap(&self.rays, (q + r - 1) % r);
        let (rays, gaps) = scratch.buffers(n);
        rays[..q].copy_from_slice(&self.rays[..q]);
        rays[q] = (extra.angle, extra.p());
        rays[q + 1..].copy_from_slice(&self.rays[q..]);
        for (x, gap) in gaps.iter_mut().enumerate() {
            *gap = ray_gap(rays, x);
        }

        let mut expectation = 0.0;
        for j in 0..n {
            let p_j = rays[j].1;
            if p_j == 0.0 {
                continue;
            }
            // The base walk from this ray (none from `extra`), and the step
            // at which this walk reaches `extra` (0 for `extra`'s own).
            let row = if j == q {
                &[][..]
            } else {
                let base_j = j - usize::from(j > q);
                &self.sd_entropy[base_j * (r - 1)..(base_j + 1) * (r - 1)]
            };
            let reach = (q + n - j) % n;
            let mut absent = 1.0;
            let mut arc = 0.0;
            // Past `extra`: the base walk's arc to the ray this step reaches.
            let mut shorter = 0.0;
            let mut k = j;
            for step in 1..n {
                if step == reach {
                    shorter = arc + crossed;
                }
                arc += gaps[k];
                k = if k + 1 == n { 0 } else { k + 1 };
                let prob = p_j * rays[k].1 * absent;
                if prob > 0.0 {
                    let entropy = if step < reach {
                        row[step - 1]
                    } else if step > reach && reach > 0 && arc.to_bits() == shorter.to_bits() {
                        row[step - 2]
                    } else {
                        entropy_term(arc / FULL_TURN)
                    };
                    expectation += prob * entropy;
                }
                absent *= 1.0 - rays[k].1;
                if step > reach {
                    shorter += gaps[k];
                }
            }
        }
        expectation
    }

    /// [`td_kernel`] on `base`, keeping the entropies.
    fn record_td(&mut self, base: &[Contribution]) -> f64 {
        let window = self.window;
        let duration = window.duration();
        if duration <= 0.0 {
            return 0.0;
        }
        let Self {
            arrivals,
            times,
            td_left,
            td_rows,
            ..
        } = self;
        times.resize(base.len(), (0.0, 0.0));
        sort_by_key(base, times, |c| c.arrival);
        arrivals.clear();
        arrivals.extend(times.iter().map(|&(arrival, _)| arrival));
        for slot in times.iter_mut() {
            slot.0 = window.clamp(slot.0);
        }
        let mut expectation = 0.0;
        let mut term = |entropies: &mut Vec<f64>, prob: f64, length: f64| {
            let mut entropy = 0.0;
            if prob > 0.0 {
                entropy = entropy_term(length / duration);
                expectation += prob * entropy;
            }
            entropies.push(entropy);
        };

        td_left.clear();
        let mut absent = 1.0;
        for &(arrival, p) in times.iter() {
            term(td_left, p * absent, arrival - window.start);
            absent *= 1.0 - p;
        }
        td_rows.clear();
        for (j, &(arrival_j, p_j)) in times.iter().enumerate() {
            let mut absent = 1.0;
            for &(arrival_k, p_k) in &times[j + 1..] {
                term(td_rows, p_j * p_k * absent, arrival_k - arrival_j);
                absent *= 1.0 - p_k;
            }
            term(td_rows, p_j * absent, window.end - arrival_j);
        }
        expectation
    }

    /// [`td_kernel`] on `base ++ [extra]`, with the recorded entropies.
    fn plus_one_td(&self, extra: &Contribution, scratch: &mut ExpectedScratch) -> f64 {
        let window = self.window;
        let duration = window.duration();
        if duration <= 0.0 {
            return 0.0;
        }
        let r = self.times.len();
        // The stable sort puts `extra` after every equal raw arrival.
        let q = self
            .arrivals
            .partition_point(|&arrival| arrival <= extra.arrival);
        let (times, _) = scratch.buffers(r + 1);
        times[..q].copy_from_slice(&self.times[..q]);
        times[q] = (window.clamp(extra.arrival), extra.p());
        times[q + 1..].copy_from_slice(&self.times[q..]);
        let fresh = |length: f64| entropy_term(length / duration);

        let mut expectation = 0.0;
        let mut absent = 1.0;
        for (x, &(arrival, p)) in times.iter().enumerate() {
            let prob = p * absent;
            if prob > 0.0 {
                let entropy = match x.cmp(&q) {
                    Ordering::Less => self.td_left[x],
                    Ordering::Equal => fresh(arrival - window.start),
                    Ordering::Greater => self.td_left[x - 1],
                };
                expectation += prob * entropy;
            }
            absent *= 1.0 - p;
        }

        let mut rows = self.td_rows.as_slice();
        for (j, &(arrival_j, p_j)) in times.iter().enumerate() {
            // This worker's base row (none for `extra`): its pairs with every
            // later worker, then its end.
            let row = if j == q {
                &[][..]
            } else {
                let (row, rest) = rows.split_at(r - (j - usize::from(j > q)));
                rows = rest;
                row
            };
            let mut absent = 1.0;
            for (k, &(arrival_k, p_k)) in times.iter().enumerate().skip(j + 1) {
                let prob = p_j * p_k * absent;
                if prob > 0.0 {
                    let entropy = if j == q || k == q {
                        fresh(arrival_k - arrival_j)
                    } else {
                        // In base positions, `extra` is left out between j and k.
                        row[k - j - 1 - usize::from(j < q && q < k)]
                    };
                    expectation += prob * entropy;
                }
                absent *= 1.0 - p_k;
            }
            let prob = p_j * absent;
            if prob > 0.0 {
                let entropy = match row.last() {
                    Some(&end) => end,
                    None => fresh(window.end - arrival_j),
                };
                expectation += prob * entropy;
            }
        }
        expectation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::possible_worlds::{
        expected_sd_exhaustive, expected_std_exhaustive, expected_td_exhaustive,
    };
    use crate::reliability::Confidence;
    use std::f64::consts::PI;

    fn contribution(p: f64, angle: f64, arrival: f64) -> Contribution {
        Contribution::new(Confidence::new(p).unwrap(), angle, arrival)
    }

    fn window() -> TimeWindow {
        TimeWindow::new(0.0, 10.0).unwrap()
    }

    #[test]
    fn empty_and_singleton_sets() {
        assert_eq!(expected_sd(&[]), 0.0);
        assert_eq!(expected_td(&[], window()), 0.0);
        let single = [contribution(0.8, 1.0, 5.0)];
        assert_eq!(expected_sd(&single), 0.0);
        // Single worker: E[TD] = p * TD({arrival}).
        assert!((expected_td(&single, window()) - 0.8 * 2.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn matches_exhaustive_on_two_workers() {
        let cs = [contribution(0.7, 0.0, 2.0), contribution(0.4, PI, 7.0)];
        assert!((expected_sd(&cs) - expected_sd_exhaustive(&cs)).abs() < 1e-12);
        assert!((expected_td(&cs, window()) - expected_td_exhaustive(&cs, window())).abs() < 1e-12);
    }

    /// Worker sets with certain, impossible and exactly duplicated workers.
    fn mixed_sets() -> Vec<Vec<Contribution>> {
        vec![
            vec![
                contribution(0.9, 0.1, 1.0),
                contribution(0.5, 2.0, 4.0),
                contribution(0.3, 4.5, 8.0),
            ],
            vec![
                contribution(0.2, 0.0, 0.0),
                contribution(0.8, 3.0, 10.0),
                contribution(0.6, 3.1, 5.0),
                contribution(0.95, 6.0, 5.0),
            ],
            vec![
                contribution(1.0, 1.0, 2.0),
                contribution(0.0, 2.0, 3.0),
                contribution(0.5, 3.0, 4.0),
                contribution(0.5, 3.0, 4.0), // exact duplicate contribution
                contribution(0.7, 5.9, 9.9),
            ],
        ]
    }

    #[test]
    fn matches_exhaustive_on_mixed_sets() {
        for cs in mixed_sets() {
            let w = window();
            assert!(
                (expected_sd(&cs) - expected_sd_exhaustive(&cs)).abs() < 1e-9,
                "E[SD] mismatch for {cs:?}"
            );
            assert!(
                (expected_td(&cs, w) - expected_td_exhaustive(&cs, w)).abs() < 1e-9,
                "E[TD] mismatch for {cs:?}"
            );
            for beta in [0.0, 0.3, 0.5, 1.0] {
                assert!(
                    (expected_std(&cs, w, beta) - expected_std_exhaustive(&cs, w, beta)).abs()
                        < 1e-9,
                    "E[STD] mismatch for beta={beta}"
                );
            }
        }
    }

    #[test]
    fn certain_workers_reduce_to_deterministic_diversity() {
        let cs = [
            contribution(1.0, 0.0, 2.0),
            contribution(1.0, 2.0, 5.0),
            contribution(1.0, 4.0, 8.0),
        ];
        let w = window();
        let angles = [0.0, 2.0, 4.0];
        let arrivals = [2.0, 5.0, 8.0];
        assert!(
            (expected_sd(&cs) - crate::diversity::spatial_diversity(&angles)).abs() < 1e-12
        );
        assert!(
            (expected_td(&cs, w) - crate::diversity::temporal_diversity(&arrivals, w)).abs()
                < 1e-12
        );
    }

    #[test]
    fn monotone_under_added_worker() {
        // Lemma 4.2: adding a worker never decreases E[STD].
        let base = vec![contribution(0.6, 0.5, 3.0), contribution(0.4, 3.5, 6.0)];
        let mut extended = base.clone();
        extended.push(contribution(0.5, 2.0, 8.5));
        let w = window();
        for beta in [0.0, 0.4, 1.0] {
            assert!(
                expected_std(&extended, w, beta) >= expected_std(&base, w, beta) - 1e-12,
                "beta={beta}"
            );
        }
    }

    #[test]
    fn degenerate_window_gives_zero_td() {
        let cs = [contribution(0.9, 0.0, 5.0), contribution(0.9, 1.0, 5.0)];
        let w = TimeWindow::new(5.0, 5.0).unwrap();
        assert_eq!(expected_td(&cs, w), 0.0);
    }

    #[test]
    fn beta_extremes_select_single_component() {
        let cs = [
            contribution(0.7, 0.0, 2.0),
            contribution(0.6, 2.0, 6.0),
            contribution(0.5, 4.0, 9.0),
        ];
        let w = window();
        assert!((expected_std(&cs, w, 1.0) - expected_sd(&cs)).abs() < 1e-12);
        assert!((expected_std(&cs, w, 0.0) - expected_td(&cs, w)).abs() < 1e-12);
    }

    #[test]
    fn larger_sets_stay_finite_and_positive() {
        let cs: Vec<Contribution> = (0..50)
            .map(|i| contribution(0.5 + 0.005 * (i % 10) as f64, i as f64 * 0.37, (i % 11) as f64))
            .collect();
        let v = expected_std(&cs, window(), 0.5);
        assert!(v.is_finite());
        assert!(v > 0.0);
    }

    #[test]
    fn wrappers_and_scratch_variants_agree_to_the_bit() {
        // The possible-worlds cases above, plus equal angles / arrivals with
        // different probabilities (the stable sort decides their order) and
        // one set beyond the stack buffer.
        let mut sets = mixed_sets();
        sets.push(vec![
            contribution(0.3, 1.0, 4.0),
            contribution(0.9, 1.0, 4.0),
            contribution(0.6, 1.0, 12.0),
            contribution(0.2, 4.0, -1.0),
        ]);
        sets.push(
            (0..STACK_WORKERS + 5)
                .map(|i| {
                    contribution(
                        0.05 * (i % 19) as f64,
                        i as f64 * 0.61,
                        (i % 7) as f64 * 1.5,
                    )
                })
                .collect(),
        );
        let w = window();
        // One scratch across all sets: stale contents must not leak.
        let mut scratch = ExpectedScratch::default();
        for cs in sets {
            for len in 0..=cs.len() {
                let cs = &cs[..len];
                // β = 1 and β = 0 are the SD and the TD kernel alone.
                assert_eq!(
                    expected_sd(cs).to_bits(),
                    expected_std_with(cs, w, 1.0, &mut scratch).to_bits()
                );
                assert_eq!(
                    expected_td(cs, w).to_bits(),
                    expected_std_with(cs, w, 0.0, &mut scratch).to_bits()
                );
                for beta in [0.0, 0.3, 0.5, 1.0] {
                    let wrapper = expected_std(cs, w, beta);
                    let scratched = expected_std_with(cs, w, beta, &mut scratch);
                    assert_eq!(
                        wrapper.to_bits(),
                        scratched.to_bits(),
                        "beta={beta}, {cs:?}"
                    );
                    if len <= 8 {
                        assert!((wrapper - expected_std_exhaustive(cs, w, beta)).abs() < 1e-9);
                    }
                }
            }
        }
    }
}
