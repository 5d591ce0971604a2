//! The cost model guiding the choice of the grid cell side `η`
//! (Appendix I of the paper).
//!
//! The update cost of the RDB-SC-Grid index has two parts (Eq. 22):
//!
//! 1. the number of cells in the reachable area of a worker,
//!    `π·(L_max + η)² / η²`, and
//! 2. the expected number of tasks in that area, estimated through the
//!    correlation fractal dimension `D₂` of the task distribution
//!    (Belussi–Faloutsos power law): `(N − 1)·(π·(L_max + η)²)^{D₂/2}`.
//!
//! The optimal `η` minimises the sum. Because the second term does not
//! depend on `η` once `η ≪ L_max`, the minimiser satisfies Eq. 23; this
//! module solves it numerically (and also offers a simple grid-search
//! minimiser of the full cost, used as a cross-check in tests).

use rdbsc_geo::{Point, Rect};

/// Parameters of the grid cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModelParams {
    /// Maximum moving distance of workers (`L_max`), from movement history.
    pub l_max: f64,
    /// Number of tasks `N` in the data space.
    pub num_tasks: usize,
    /// Correlation fractal dimension `D₂` of the task distribution
    /// (2.0 for uniformly distributed tasks).
    pub d2: f64,
}

impl CostModelParams {
    /// Parameters for a uniform task distribution (`D₂ = 2`).
    pub fn uniform(l_max: f64, num_tasks: usize) -> Self {
        Self {
            l_max,
            num_tasks,
            d2: 2.0,
        }
    }
}

/// The index update cost for a given cell side `η` (Eq. 22).
pub fn update_cost(eta: f64, params: &CostModelParams) -> f64 {
    let reach_area = std::f64::consts::PI * (params.l_max + eta).powi(2);
    let cells = reach_area / (eta * eta);
    let tasks = (params.num_tasks.saturating_sub(1)) as f64 * reach_area.powf(params.d2 / 2.0);
    cells + tasks
}

/// Solves Eq. 23 for the optimal cell side `η` by bisection on the residual
/// `(L_max + η)^{D₂−2}·η³ − 2π^{1−D₂/2}·L_max / (D₂·(N−1))`, which is
/// monotonically increasing in `η`.
///
/// Falls back to the uniform-data closed form `η = (L_max / (N−1))^{1/3}`
/// when the instance is degenerate (fewer than 2 tasks or a non-positive
/// `L_max`).
pub fn optimal_eta(params: &CostModelParams) -> f64 {
    let n = params.num_tasks;
    if n < 2 || params.l_max <= 0.0 {
        return fallback_eta(params);
    }
    let d2 = params.d2.clamp(0.5, 2.0);
    let rhs =
        2.0 * std::f64::consts::PI.powf(1.0 - d2 / 2.0) * params.l_max / (d2 * (n as f64 - 1.0));
    let residual = |eta: f64| (params.l_max + eta).powf(d2 - 2.0) * eta.powi(3) - rhs;

    // Bracket the root: the residual is negative at 0⁺ and grows without
    // bound, so expand the upper bound until it is positive.
    let mut lo = 1e-9;
    let mut hi = params.l_max.max(1e-3);
    let mut guard = 0;
    while residual(hi) < 0.0 && guard < 64 {
        hi *= 2.0;
        guard += 1;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if residual(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let eta = 0.5 * (lo + hi);
    if eta.is_finite() && eta > 0.0 {
        eta
    } else {
        fallback_eta(params)
    }
}

/// The closed-form `η = (L_max / (N−1))^{1/3}` used when no movement history
/// is available (uniform assumption, `D₂ = 2`).
pub fn fallback_eta(params: &CostModelParams) -> f64 {
    let n = params.num_tasks.max(2) as f64;
    let l = if params.l_max > 0.0 {
        params.l_max
    } else {
        0.1
    };
    (l / (n - 1.0)).cbrt()
}

/// Grid-search minimiser of [`update_cost`], used to sanity-check
/// [`optimal_eta`] in tests and available to callers who prefer the direct
/// minimisation.
pub fn optimal_eta_grid_search(params: &CostModelParams, candidates: usize) -> f64 {
    let lo: f64 = 1e-4;
    let hi: f64 = 1.0;
    let mut best_eta = fallback_eta(params);
    let mut best_cost = update_cost(best_eta, params);
    for i in 0..candidates.max(2) {
        // log-spaced candidates
        let t = i as f64 / (candidates.max(2) - 1) as f64;
        let eta = lo * (hi / lo).powf(t);
        let cost = update_cost(eta, params);
        if cost < best_cost {
            best_cost = cost;
            best_eta = eta;
        }
    }
    best_eta
}

/// Estimates the correlation fractal dimension `D₂` of a point set by box
/// counting: for a sequence of grid sides `r`, compute `S(r) = Σ c_i²` over
/// the occupancy counts `c_i` of the boxes and fit the slope of
/// `log S(r)` against `log r` (Belussi–Faloutsos).
///
/// Returns 2.0 (uniform) when fewer than two distinct scales are available or
/// the fit degenerates.
pub fn estimate_fractal_dimension(points: &[Point], space: Rect) -> f64 {
    if points.len() < 8 {
        return 2.0;
    }
    let scales: [usize; 5] = [4, 8, 16, 32, 64];
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &cells_per_axis in &scales {
        let r = space.width().max(space.height()) / cells_per_axis as f64;
        if r <= 0.0 {
            continue;
        }
        let mut counts = vec![0u32; cells_per_axis * cells_per_axis];
        for p in points {
            let cx = (((p.x - space.min_x) / space.width().max(1e-12)) * cells_per_axis as f64)
                .clamp(0.0, cells_per_axis as f64 - 1.0) as usize;
            let cy = (((p.y - space.min_y) / space.height().max(1e-12)) * cells_per_axis as f64)
                .clamp(0.0, cells_per_axis as f64 - 1.0) as usize;
            counts[cy * cells_per_axis + cx] += 1;
        }
        let s: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
        if s > 0.0 {
            xs.push(r.ln());
            ys.push(s.ln());
        }
    }
    if xs.len() < 2 {
        return 2.0;
    }
    // Least-squares slope of log S vs log r.
    let n = xs.len() as f64;
    let mean_x: f64 = xs.iter().sum::<f64>() / n;
    let mean_y: f64 = ys.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        num += (x - mean_x) * (y - mean_y);
        den += (x - mean_x) * (x - mean_x);
    }
    if den <= 0.0 {
        return 2.0;
    }
    let slope = num / den;
    // For the correlation sum, S(r) ∝ r^{D₂}; clamp to the meaningful range.
    slope.clamp(0.1, 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_cost_decreases_then_increases_in_eta() {
        let params = CostModelParams::uniform(0.1, 10_000);
        let tiny = update_cost(1e-4, &params);
        let opt = update_cost(optimal_eta(&params), &params);
        let huge = update_cost(1.0, &params);
        assert!(opt <= tiny);
        assert!(opt <= huge);
    }

    #[test]
    fn optimal_eta_matches_closed_form_for_uniform_data() {
        // With D₂ = 2, Eq. 23 reduces to η³ = L_max / (N − 1).
        let params = CostModelParams::uniform(0.2, 5_000);
        let eta = optimal_eta(&params);
        let closed = (0.2f64 / 4_999.0).cbrt();
        assert!(
            (eta - closed).abs() / closed < 1e-3,
            "eta {eta} vs closed form {closed}"
        );
    }

    #[test]
    fn optimal_eta_is_near_the_grid_search_minimum() {
        let params = CostModelParams {
            l_max: 0.15,
            num_tasks: 2_000,
            d2: 1.6,
        };
        let eta = optimal_eta(&params);
        let grid = optimal_eta_grid_search(&params, 400);
        let c_eta = update_cost(eta, &params);
        let c_grid = update_cost(grid, &params);
        // the analytic optimum should not be worse than the grid search by
        // more than a small relative margin
        assert!(c_eta <= c_grid * 1.05, "cost {c_eta} vs grid {c_grid}");
    }

    #[test]
    fn degenerate_inputs_fall_back() {
        let params = CostModelParams::uniform(0.0, 0);
        let eta = optimal_eta(&params);
        assert!(eta > 0.0 && eta.is_finite());
        let params = CostModelParams::uniform(-1.0, 100);
        assert!(optimal_eta(&params) > 0.0);
    }

    #[test]
    fn fractal_dimension_of_uniform_grid_is_near_two() {
        let mut pts = Vec::new();
        for i in 0..64 {
            for j in 0..64 {
                pts.push(Point::new((i as f64 + 0.5) / 64.0, (j as f64 + 0.5) / 64.0));
            }
        }
        let d2 = estimate_fractal_dimension(&pts, Rect::unit());
        assert!(d2 > 1.6, "uniform grid should have D2 near 2, got {d2}");
    }

    #[test]
    fn fractal_dimension_of_a_line_is_near_one() {
        let pts: Vec<Point> = (0..4096)
            .map(|i| Point::new(i as f64 / 4096.0, 0.5))
            .collect();
        let d2 = estimate_fractal_dimension(&pts, Rect::unit());
        assert!(d2 < 1.5, "points on a line should have D2 near 1, got {d2}");
    }

    #[test]
    fn fractal_dimension_handles_tiny_inputs() {
        assert_eq!(estimate_fractal_dimension(&[], Rect::unit()), 2.0);
        let few = vec![Point::new(0.5, 0.5); 3];
        assert_eq!(estimate_fractal_dimension(&few, Rect::unit()), 2.0);
    }
}
