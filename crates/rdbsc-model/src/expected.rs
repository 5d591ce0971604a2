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
//!
//! A record may be truncated: the base walk stopped early (see *Negligible
//! tails*), and the extended walk goes further. An unrecorded term's
//! entropy is then computed in place. Its arc or length is the base's by the
//! cases above, so `entropy_term` gives the bits the record would hold.
//!
//! # Negligible tails
//!
//! A walk — from ray `j` in `E[SD]`, or from arrival `j` along a pair row
//! of `E[TD]` with its end term `[arrival_j, end]` — stops once the rest of
//! it provably cannot move the running sum `E`. After each step it asks
//! whether `2·fl(p_j·absent) < g`, where `g = |E| − pred(|E|)` is the
//! spacing of the floats just below `|E|` (`pred(0)` is the negative
//! smallest subnormal, so `g = 2⁻¹⁰⁷⁴` when `E` is 0 or subnormal). If so,
//! every later term `t` rounds away (`fl(E + t) = E`), and stopping returns
//! the bits of the full walk:
//!
//! 1. *Probabilities only shrink.* A later term's probability is
//!    `prob′ = fl(fl(p_j·p_k)·absent′)`, rounded as the kernel forms it.
//!    Every factor `fl(1 − p)` lies in `[0, 1]`, so `absent′ ≤ absent`;
//!    `p_k ≤ 1` gives `fl(p_j·p_k) ≤ p_j`; and rounding is monotone, so
//!    `prob′ ≤ fl(p_j·absent) =: B`. The end term's `fl(p_j·absent′)` is
//!    bounded the same way. With `p_k = 1`, `absent` is exactly 0 and every
//!    later term has probability 0. A walk from `p_j = 0` has nothing but
//!    zero-probability terms, so it is not started at all.
//! 2. *Entropies are below 1/2 in magnitude.* `entropy_term(f)` is 0 for
//!    `f ≤ 0` and at most `1/e` plus rounding on `(0, 1]`. A `TD` fraction
//!    is at most 1: both ends lie in the window, so `fl(b − a) ≤ fl(end −
//!    start)`. (An infinite or NaN duration makes every fraction 0 or NaN:
//!    `E` stays 0, which stops a walk only where every later probability is
//!    0, or turns NaN, which stops nothing.) An `SD` arc is a float sum of
//!    at most `r` gaps, and the gaps are themselves rounded. The exact arc
//!    is at most `2π`, so `f < 1 + (r + 6)·2⁻⁵³`, far below `5/4`. Such an
//!    `f` just above 1 (a full turn less a zero gap, rounded up) gives a
//!    slightly *negative* entropy, `−f·ln f`, of magnitude below
//!    `f·(f − 1)`. The arc bound needs every ray in `[0, 2π)`, which
//!    `Contribution::new` guarantees; a set with a ray outside (only a
//!    hand-built `Contribution` has one) is walked in full.
//! 3. *Such a term cannot move `E`.* With `B > 0`, `prob′·|entropy| <
//!    B/2 < g/4`. `g` is a power of two: when `g ≥ 2⁻¹⁰⁷²`, `g/4` is
//!    a float and monotone rounding gives `|t| ≤ g/4`; when `g = 2⁻¹⁰⁷³`
//!    the product is below half the smallest subnormal and rounds to 0;
//!    when `g = 2⁻¹⁰⁷⁴`, `2B < g` forces `B = 0`, so every later term has
//!    probability 0 and is skipped. The floats next to `E` lie at least `g`
//!    away on both sides (at a power of two the spacing above is `2g`), so
//!    `|t| < g/2` rounds `E + t` back to `E`, with no tie to break.
//!    By induction `E` keeps its bits to the end of the walk. The next walk
//!    starts from the same `E`, so the whole sum keeps its bits. An
//!    infinite `E` absorbs every finite term, and a NaN one never stops a
//!    walk.
//!
//! The question is asked only once `absent` is below `TAIL_START`, 2⁻⁵⁰.
//! That decides when the rule is checked, never what it answers. Below a
//! sum of 16, `g ≤ 2⁻⁴⁹`, so no walk stops before `p_j·absent < 2⁻⁵⁰`: for
//! the confident workers of the paper (`p_j` near 1) the gate costs at most
//! a step, and every step before it pays one comparison and no more. In the
//! paper's confidence range `(0.9, 1)`, `absent` shrinks by 10× or more a
//! step, and a walk over a sum near 1 stops after 13–17 steps, whatever `r`
//! is.

use crate::diversity::entropy_term;
use crate::task::TimeWindow;
use crate::valid_pairs::Contribution;
use rdbsc_geo::FULL_TURN;
use std::cmp::Ordering;

/// Worker sets up to this size are evaluated on a stack buffer by the
/// allocating wrappers.
const STACK_WORKERS: usize = 16;

/// `absent` below which a walk asks whether its tail still counts (see
/// *Negligible tails*): `2⁻⁵⁰`.
const TAIL_START: f64 = 1.0 / (1u64 << 50) as f64;

/// [`TAIL_START`] for the walks over `rays` sorted by angle, or 0 (never ask)
/// unless every ray lies in `[0, 2π)`.
fn sd_tail_start(rays: &[(f64, f64)]) -> f64 {
    match (rays.first(), rays.last()) {
        (Some(&(first, _)), Some(&(last, _))) if first >= 0.0 && last < FULL_TURN => TAIL_START,
        _ => 0.0,
    }
}

/// Whether no later term of a walk can move `expectation`: `bound` is
/// `p_j · absent` after the current step (see *Negligible tails*).
fn tail_rounds_away(bound: f64, expectation: f64) -> bool {
    let e = expectation.abs();
    bound + bound < e - e.next_down()
}

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

    let tail = sd_tail_start(keyed);
    let mut expectation = 0.0;
    for j in 0..r {
        let p_j = keyed[j].1;
        // No term of a walk from `p = 0` has a positive probability.
        if p_j > 0.0 {
            // Walk counter-clockwise from ray j; `absent` accumulates the
            // probability that all rays strictly between j and the current k
            // fail.
            let mut absent = 1.0;
            let mut arc = 0.0;
            let mut k = j;
            for _ in 1..r {
                arc += gaps[k];
                k = if k + 1 == r { 0 } else { k + 1 };
                let prob = p_j * keyed[k].1 * absent;
                if prob > 0.0 {
                    expectation += prob * entropy_term(arc / FULL_TURN);
                }
                absent *= 1.0 - keyed[k].1;
                if absent < tail && tail_rounds_away(p_j * absent, expectation) {
                    break;
                }
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
        // No term of a row from `p = 0` has a positive probability.
        if p_j > 0.0 {
            let mut absent = 1.0;
            'walk: {
                for &(arrival_k, p_k) in &keyed[j + 1..] {
                    let length = arrival_k - arrival_j;
                    let prob = p_j * p_k * absent;
                    if prob > 0.0 {
                        expectation += prob * entropy_term(length / duration);
                    }
                    absent *= 1.0 - p_k;
                    if absent < TAIL_START && tail_rounds_away(p_j * absent, expectation) {
                        break 'walk;
                    }
                }
                // [arrival_j, end] exists when j succeeds and every later
                // worker fails.
                let length = window.end - arrival_j;
                let prob = p_j * absent;
                if prob > 0.0 {
                    expectation += prob * entropy_term(length / duration);
                }
            }
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
    /// Row `j`, `sd_entropy[sd_rows[j]..sd_rows[j + 1]]`, holds the entropy
    /// of the steps from `1` on of the walk from ray `j`, as far as the walk
    /// went. Rows of rays with `p = 0` are empty. A term whose probability is
    /// not positive holds 0, which is never read.
    sd_entropy: Vec<f64>,
    /// Where each row of `sd_entropy` starts, and one past the last row.
    sd_rows: Vec<usize>,
    /// Raw arrivals, sorted: where an extra worker sorts in.
    arrivals: Vec<f64>,
    /// `(arrival clamped into the window, p)` per worker, in arrival order.
    times: Vec<(f64, f64)>,
    /// The entropy of `[start, arrival_k]` per worker.
    td_left: Vec<f64>,
    /// Row `j`, `td_pairs[td_rows[j]..td_rows[j + 1]]`, holds the entropy of
    /// `[arrival_j, arrival_k]` for every `k > j`, then that of
    /// `[arrival_j, end]`, as far as the walk went. Rows of workers with
    /// `p = 0` are empty.
    td_pairs: Vec<f64>,
    /// Where each row of `td_pairs` starts, and one past the last row.
    td_rows: Vec<usize>,
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
            sd_rows: Vec::new(),
            arrivals: Vec::new(),
            times: Vec::new(),
            td_left: Vec::new(),
            td_pairs: Vec::new(),
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
            rays,
            sd_entropy,
            sd_rows,
            ..
        } = self;
        rays.resize(r, (0.0, 0.0));
        sort_by_key(base, rays, |c| c.angle);
        sd_entropy.clear();
        sd_rows.clear();
        sd_rows.push(0);
        let tail = sd_tail_start(rays);
        let mut expectation = 0.0;
        for j in 0..r {
            let p_j = rays[j].1;
            // No term of a walk from `p = 0` has a positive probability.
            if p_j > 0.0 {
                let mut absent = 1.0;
                let mut arc = 0.0;
                let mut k = j;
                for _ in 1..r {
                    arc += ray_gap(rays, k);
                    k = if k + 1 == r { 0 } else { k + 1 };
                    let prob = p_j * rays[k].1 * absent;
                    let mut entropy = 0.0;
                    if prob > 0.0 {
                        entropy = entropy_term(arc / FULL_TURN);
                        expectation += prob * entropy;
                    }
                    sd_entropy.push(entropy);
                    absent *= 1.0 - rays[k].1;
                    if absent < tail && tail_rounds_away(p_j * absent, expectation) {
                        break;
                    }
                }
            }
            sd_rows.push(sd_entropy.len());
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

        let tail = sd_tail_start(rays);
        let mut expectation = 0.0;
        for j in 0..n {
            let p_j = rays[j].1;
            // No term of a walk from `p = 0` has a positive probability.
            if p_j > 0.0 {
                // The base walk from this ray as far as it went (none from
                // `extra`), and the step at which this walk reaches `extra`
                // (0 for `extra`'s own).
                let row = if j == q {
                    &[][..]
                } else {
                    let base_j = j - usize::from(j > q);
                    &self.sd_entropy[self.sd_rows[base_j]..self.sd_rows[base_j + 1]]
                };
                let reach = (q + n - j) % n;
                let mut absent = 1.0;
                let mut arc = 0.0;
                // Past `extra`: the base walk's arc to the ray this step
                // reaches.
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
                        let recorded = if step < reach {
                            row.get(step - 1)
                        } else if step > reach && reach > 0 && arc.to_bits() == shorter.to_bits() {
                            row.get(step - 2)
                        } else {
                            None
                        };
                        let entropy = match recorded {
                            Some(&entropy) => entropy,
                            None => entropy_term(arc / FULL_TURN),
                        };
                        expectation += prob * entropy;
                    }
                    absent *= 1.0 - rays[k].1;
                    if step > reach {
                        shorter += gaps[k];
                    }
                    if absent < tail && tail_rounds_away(p_j * absent, expectation) {
                        break;
                    }
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
            td_pairs,
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
        let term = |expectation: &mut f64, entropies: &mut Vec<f64>, prob: f64, length: f64| {
            let mut entropy = 0.0;
            if prob > 0.0 {
                entropy = entropy_term(length / duration);
                *expectation += prob * entropy;
            }
            entropies.push(entropy);
        };

        td_left.clear();
        let mut absent = 1.0;
        for &(arrival, p) in times.iter() {
            term(
                &mut expectation,
                td_left,
                p * absent,
                arrival - window.start,
            );
            absent *= 1.0 - p;
        }
        td_pairs.clear();
        td_rows.clear();
        td_rows.push(0);
        for (j, &(arrival_j, p_j)) in times.iter().enumerate() {
            // No term of a row from `p = 0` has a positive probability.
            if p_j > 0.0 {
                let mut absent = 1.0;
                'walk: {
                    for &(arrival_k, p_k) in &times[j + 1..] {
                        let prob = p_j * p_k * absent;
                        term(&mut expectation, td_pairs, prob, arrival_k - arrival_j);
                        absent *= 1.0 - p_k;
                        if absent < TAIL_START && tail_rounds_away(p_j * absent, expectation) {
                            break 'walk;
                        }
                    }
                    term(
                        &mut expectation,
                        td_pairs,
                        p_j * absent,
                        window.end - arrival_j,
                    );
                }
            }
            td_rows.push(td_pairs.len());
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

        for (j, &(arrival_j, p_j)) in times.iter().enumerate() {
            // No term of a row from `p = 0` has a positive probability.
            if p_j > 0.0 {
                // This worker's base row as far as it went (none for
                // `extra`): its pairs with every later worker, then, at
                // `end_at`, its end.
                let (row, end_at) = if j == q {
                    (&[][..], 0)
                } else {
                    let base_j = j - usize::from(j > q);
                    let row = &self.td_pairs[self.td_rows[base_j]..self.td_rows[base_j + 1]];
                    (row, r - base_j - 1)
                };
                let mut absent = 1.0;
                'walk: {
                    for (k, &(arrival_k, p_k)) in times.iter().enumerate().skip(j + 1) {
                        let prob = p_j * p_k * absent;
                        if prob > 0.0 {
                            let recorded = if j == q || k == q {
                                None
                            } else {
                                // In base positions, `extra` is left out
                                // between j and k.
                                row.get(k - j - 1 - usize::from(j < q && q < k))
                            };
                            let entropy = match recorded {
                                Some(&entropy) => entropy,
                                None => fresh(arrival_k - arrival_j),
                            };
                            expectation += prob * entropy;
                        }
                        absent *= 1.0 - p_k;
                        if absent < TAIL_START && tail_rounds_away(p_j * absent, expectation) {
                            break 'walk;
                        }
                    }
                    let prob = p_j * absent;
                    if prob > 0.0 {
                        let entropy = match row.get(end_at) {
                            Some(&end) => end,
                            None => fresh(window.end - arrival_j),
                        };
                        expectation += prob * entropy;
                    }
                }
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
        assert!((expected_sd(&cs) - crate::diversity::spatial_diversity(&angles)).abs() < 1e-12);
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
            .map(|i| {
                contribution(
                    0.5 + 0.005 * (i % 10) as f64,
                    i as f64 * 0.37,
                    (i % 11) as f64,
                )
            })
            .collect();
        let v = expected_std(&cs, window(), 0.5);
        assert!(v.is_finite());
        assert!(v > 0.0);
    }

    /// `r` workers in the paper's confidence range `(0.9, 1)`, with angles
    /// and arrivals spread over the turn and the window.
    fn paper_range_set(r: usize) -> Vec<Contribution> {
        (0..r)
            .map(|i| {
                let p = 0.9 + 0.0997 * ((i * 17) % 41) as f64 / 41.0;
                contribution(p, i as f64 * 0.157, (i * 7 % 40) as f64 * 0.25)
            })
            .collect()
    }

    #[test]
    fn negligible_tails_are_not_walked() {
        // `absent` falls 10× or more a step, so every walk stops after a
        // handful.
        let r = 40;
        let cs = paper_range_set(r);
        let w = window();
        let mut recorded = BasePlusOne::default();
        recorded.record(&cs, w, 0.5);
        assert_eq!(
            recorded.value().to_bits(),
            expected_std(&cs, w, 0.5).to_bits()
        );
        // Every walk is recorded as far as it went.
        assert_eq!(recorded.sd_rows.len(), r + 1);
        assert_eq!(recorded.td_rows.len(), r + 1);
        let sd_steps = recorded.sd_entropy.len();
        assert!(sd_steps < r * (r - 1) / 2, "{sd_steps} SD steps walked");
        let td_steps = recorded.td_pairs.len();
        assert!(td_steps < r * (r + 1) / 3, "{td_steps} TD steps walked");
        // The extended sum reads the truncated record and computes what it
        // lacks.
        let extra = contribution(0.95, 2.0, 4.1);
        let mut extended = cs.clone();
        extended.push(extra);
        assert_eq!(
            recorded
                .plus_one(&extra, &mut ExpectedScratch::default())
                .to_bits(),
            expected_std(&extended, w, 0.5).to_bits()
        );
    }

    #[test]
    fn rays_outside_the_turn_are_walked_in_full() {
        // A ray outside `[0, 2π)` (only a hand-built `Contribution` has one)
        // can make arcs many turns long and their entropies large: the
        // bound fails, so no walk stops early.
        let r = 40;
        let mut cs = paper_range_set(r);
        cs[0].angle = 100.0;
        let mut recorded = BasePlusOne::default();
        recorded.record(&cs, window(), 1.0);
        assert_eq!(recorded.sd_entropy.len(), r * (r - 1));
        assert_eq!(recorded.value().to_bits(), expected_sd(&cs).to_bits());
    }

    /// `record` with every row cut to at most `keep(len)` of its `len`
    /// entries, as if each walk had stopped there.
    fn cut_rows(recorded: &BasePlusOne, keep: fn(usize) -> usize) -> BasePlusOne {
        let cut = |entries: &[f64], rows: &[usize]| {
            let (mut kept, mut starts) = (Vec::new(), vec![0]);
            for row in rows.windows(2) {
                let len = row[1] - row[0];
                kept.extend_from_slice(&entries[row[0]..row[0] + keep(len).min(len)]);
                starts.push(kept.len());
            }
            (kept, starts)
        };
        let mut cut_record = recorded.clone();
        (cut_record.sd_entropy, cut_record.sd_rows) = cut(&recorded.sd_entropy, &recorded.sd_rows);
        (cut_record.td_pairs, cut_record.td_rows) = cut(&recorded.td_pairs, &recorded.td_rows);
        cut_record
    }

    #[test]
    fn a_record_cut_anywhere_answers_with_the_kernel_bits() {
        // Where the extended walk goes further than the base walk went, it
        // computes the missing entropies itself. Cutting every row shorter
        // than its walk went forces that on most terms.
        let w = window();
        let mut sets = mixed_sets();
        sets.push(paper_range_set(40));
        let keeps: [fn(usize) -> usize; 3] = [|_| 0, |len| len / 2, |len| len.saturating_sub(1)];
        let mut scratch = ExpectedScratch::default();
        for cs in sets {
            let (last, rest) = cs.split_last().unwrap();
            let extras = [
                (rest, *last),
                (&cs[..], contribution(0.93, 0.0, -1.0)),
                (&cs[..], contribution(0.97, 2.0 * PI - 1e-9, 12.0)),
                (&cs[..], contribution(0.91, cs[1].angle, cs[1].arrival)),
            ];
            for (base, extra) in extras {
                let mut extended = base.to_vec();
                extended.push(extra);
                for beta in [0.0, 0.5, 1.0] {
                    let full = expected_std(&extended, w, beta);
                    let mut recorded = BasePlusOne::default();
                    recorded.record(base, w, beta);
                    for keep in keeps {
                        let cut = cut_rows(&recorded, keep);
                        assert_eq!(
                            cut.plus_one(&extra, &mut scratch).to_bits(),
                            full.to_bits(),
                            "beta={beta}, {} base workers, extra {extra:?}",
                            base.len()
                        );
                    }
                }
            }
        }
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
