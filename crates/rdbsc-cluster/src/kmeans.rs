//! The balanced two-way split behind `BG_Partition`: Lloyd's 2-means with
//! k-means++ seeding, then a rebalance to two almost even halves.

use rand::seq::SliceRandom;
use rand::Rng;
use rdbsc_geo::Point;

/// Maximum number of Lloyd iterations.
const MAX_ITERATIONS: usize = 64;

/// Convergence threshold on one iteration's total centroid movement.
const TOLERANCE: f64 = 1e-9;

/// k-means++ seeding for two centroids: the first is a uniform pick, the
/// second is drawn proportionally to the squared distance from the first.
fn seed_centroids<R: Rng + ?Sized>(points: &[Point], rng: &mut R) -> [Point; 2] {
    let first = *points.choose(rng).expect("2-means needs points");
    let dist_sq: Vec<f64> = points.iter().map(|p| p.distance_sq(first)).collect();
    let total: f64 = dist_sq.iter().sum();
    let second = if total <= 0.0 {
        // Every point coincides with the first centroid; pick any.
        *points.choose(rng).expect("2-means needs points")
    } else {
        let mut target = rng.gen::<f64>() * total;
        let mut picked = points.len() - 1;
        for (i, &d) in dist_sq.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                picked = i;
                break;
            }
        }
        points[picked]
    };
    [first, second]
}

/// Runs Lloyd's 2-means on at least two points: the final centroids and the
/// cluster (0 or 1) of each point.
fn two_means<R: Rng + ?Sized>(points: &[Point], rng: &mut R) -> ([Point; 2], Vec<usize>) {
    let mut centroids = seed_centroids(points, rng);
    let mut labels = vec![0usize; points.len()];
    for _ in 0..MAX_ITERATIONS {
        // Assignment step: the nearer centroid, the first one on a tie.
        for (label, p) in labels.iter_mut().zip(points) {
            *label = usize::from(p.distance_sq(centroids[1]) < p.distance_sq(centroids[0]));
        }
        // Update step.
        let mut sums = [(0.0f64, 0.0f64, 0usize); 2];
        for (&label, p) in labels.iter().zip(points) {
            let s = &mut sums[label];
            s.0 += p.x;
            s.1 += p.y;
            s.2 += 1;
        }
        let mut movement = 0.0;
        for (centroid, s) in centroids.iter_mut().zip(&sums) {
            if s.2 > 0 {
                let new = Point::new(s.0 / s.2 as f64, s.1 / s.2 as f64);
                movement += centroid.distance(new);
                *centroid = new;
            }
            // An empty cluster keeps its previous centroid.
        }
        if movement <= TOLERANCE {
            break;
        }
    }
    (centroids, labels)
}

/// Splits `points` into two *balanced* spatially coherent halves.
///
/// Runs 2-means and then, if the split is uneven, moves the points of the
/// larger cluster that are closest to the other centroid until the sizes
/// differ by at most one — the "two almost even subsets" required by
/// `BG_Partition` (Figure 7). Returns the two index sets.
pub fn balanced_two_way_split<R: Rng + ?Sized>(
    points: &[Point],
    rng: &mut R,
) -> (Vec<usize>, Vec<usize>) {
    if points.is_empty() {
        return (Vec::new(), Vec::new());
    }
    if points.len() == 1 {
        return (vec![0], Vec::new());
    }
    let (centroids, labels) = two_means(points, rng);
    let (mut a, mut b): (Vec<usize>, Vec<usize>) = (0..points.len()).partition(|&i| labels[i] == 0);

    // Rebalance: move points of the larger side that are closest to the other
    // centroid.
    loop {
        let (larger, smaller, target_centroid) = if a.len() > b.len() + 1 {
            (&mut a, &mut b, centroids[1])
        } else if b.len() > a.len() + 1 {
            (&mut b, &mut a, centroids[0])
        } else {
            break;
        };
        // Pick the point of the larger side closest to the other centroid.
        let (pos, _) = larger
            .iter()
            .enumerate()
            .map(|(pos, &idx)| (pos, points[idx].distance_sq(target_centroid)))
            .min_by(|x, y| x.1.partial_cmp(&y.1).expect("distance is not NaN"))
            .expect("larger side is non-empty");
        let idx = larger.swap_remove(pos);
        smaller.push(idx);
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn two_blobs() -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(Point::new(0.1 + 0.001 * i as f64, 0.1));
            pts.push(Point::new(0.9 + 0.001 * i as f64, 0.9));
        }
        pts
    }

    #[test]
    fn separates_two_obvious_blobs() {
        let pts = two_blobs();
        let (_, labels) = two_means(&pts, &mut rng());
        // Points 0,2,4,... are in one blob, 1,3,5,... in the other; all
        // even-indexed labels must agree and differ from odd-indexed ones.
        let first = labels[0];
        let second = labels[1];
        assert_ne!(first, second);
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(labels[i], first);
        }
        for i in (1..pts.len()).step_by(2) {
            assert_eq!(labels[i], second);
        }
    }

    #[test]
    fn labels_point_to_nearest_centroid() {
        let pts = two_blobs();
        let (centroids, labels) = two_means(&pts, &mut rng());
        for (i, p) in pts.iter().enumerate() {
            let assigned = centroids[labels[i]];
            for c in &centroids {
                assert!(p.distance_sq(assigned) <= p.distance_sq(*c) + 1e-12);
            }
        }
    }

    #[test]
    fn balanced_split_is_balanced_and_complete() {
        let pts = two_blobs();
        let (a, b) = balanced_two_way_split(&pts, &mut rng());
        assert_eq!(a.len() + b.len(), pts.len());
        assert!((a.len() as isize - b.len() as isize).abs() <= 1);
        let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..pts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn balanced_split_handles_skewed_blobs() {
        // 30 points in one blob, 10 in another: the split must still be even.
        let mut pts = Vec::new();
        for i in 0..30 {
            pts.push(Point::new(0.1 + 0.001 * i as f64, 0.1));
        }
        for i in 0..10 {
            pts.push(Point::new(0.9, 0.9 + 0.001 * i as f64));
        }
        let (a, b) = balanced_two_way_split(&pts, &mut rng());
        assert_eq!(a.len() + b.len(), 40);
        assert!((a.len() as isize - b.len() as isize).abs() <= 1);
    }

    #[test]
    fn balanced_split_tiny_inputs() {
        let (a, b) = balanced_two_way_split(&[], &mut rng());
        assert!(a.is_empty() && b.is_empty());
        let (a, b) = balanced_two_way_split(&[Point::ORIGIN], &mut rng());
        assert_eq!(a.len() + b.len(), 1);
        let (a, b) = balanced_two_way_split(&[Point::ORIGIN, Point::new(1.0, 1.0)], &mut rng());
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn identical_points_do_not_hang() {
        let pts = vec![Point::new(0.5, 0.5); 9];
        let (_, labels) = two_means(&pts, &mut rng());
        assert_eq!(labels.len(), 9);
        let (a, b) = balanced_two_way_split(&pts, &mut rng());
        assert_eq!(a.len() + b.len(), 9);
        assert!((a.len() as isize - b.len() as isize).abs() <= 1);
    }
}
