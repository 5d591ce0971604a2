//! The gMission peer-rating model (Section 8.1).
//!
//! To build user profiles, the paper had platform users rate each other's
//! photos; a photo's score is the average of the ratings after dropping the
//! highest and the lowest, a user's score is the average over their photos,
//! and that score — normalised into `[0, 1]` — is used as the user's
//! reliability. This module reproduces that pipeline on simulated ratings so
//! the platform simulator can derive worker confidences the same way.

use rand::Rng;
use rand_distr::{Distribution as RandDistribution, Normal};
use rdbsc_model::Confidence;

/// A platform user with a latent photo quality (unknown to the platform).
#[derive(Debug, Clone, Copy)]
pub struct RatedUser {
    /// Latent quality in `[0, 1]`: the expected peer rating of this user's
    /// photos.
    pub latent_quality: f64,
    /// Number of photos this user submitted to the rating pool.
    pub num_photos: usize,
}

/// Configuration of the peer-rating simulation.
#[derive(Debug, Clone, Copy)]
pub struct PeerRatingModel {
    /// Number of peer raters per photo.
    pub raters_per_photo: usize,
    /// Standard deviation of an individual rating around the latent quality.
    pub rating_noise: f64,
    /// Rating scale maximum (ratings are produced in `[0, scale]`, the paper
    /// uses a small integer scale; we keep it continuous).
    pub scale: f64,
}

impl Default for PeerRatingModel {
    fn default() -> Self {
        Self {
            raters_per_photo: 5,
            rating_noise: 0.1,
            scale: 1.0,
        }
    }
}

impl PeerRatingModel {
    /// Scores one photo: collect ratings, drop the highest and the lowest,
    /// average the rest.
    pub fn score_photo<R: Rng + ?Sized>(&self, latent_quality: f64, rng: &mut R) -> f64 {
        let raters = self.raters_per_photo.max(1);
        let normal = Normal::new(latent_quality * self.scale, self.rating_noise * self.scale)
            .expect("valid normal parameters");
        let mut ratings: Vec<f64> = (0..raters)
            .map(|_| normal.sample(rng).clamp(0.0, self.scale))
            .collect();
        ratings.sort_by(|a, b| a.partial_cmp(b).expect("ratings are not NaN"));
        let trimmed: &[f64] = if ratings.len() > 2 {
            &ratings[1..ratings.len() - 1]
        } else {
            &ratings
        };
        trimmed.iter().sum::<f64>() / trimmed.len() as f64
    }

    /// Scores a user: the average of their photo scores, normalised into
    /// `[0, 1]` and returned as a [`Confidence`].
    pub fn user_reliability<R: Rng + ?Sized>(&self, user: &RatedUser, rng: &mut R) -> Confidence {
        if user.num_photos == 0 {
            // No evidence: the paper would not admit such a user as reliable;
            // we default to a neutral 0.5.
            return Confidence::clamped(0.5);
        }
        let total: f64 = (0..user.num_photos)
            .map(|_| self.score_photo(user.latent_quality, rng))
            .sum();
        Confidence::clamped(total / (user.num_photos as f64 * self.scale))
    }

    /// Derives reliabilities for a whole user population.
    pub fn rate_population<R: Rng + ?Sized>(
        &self,
        users: &[RatedUser],
        rng: &mut R,
    ) -> Vec<Confidence> {
        users
            .iter()
            .map(|u| self.user_reliability(u, rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn photo_scores_track_latent_quality() {
        let model = PeerRatingModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        let good: f64 = (0..200)
            .map(|_| model.score_photo(0.9, &mut rng))
            .sum::<f64>()
            / 200.0;
        let bad: f64 = (0..200)
            .map(|_| model.score_photo(0.3, &mut rng))
            .sum::<f64>()
            / 200.0;
        assert!(good > bad + 0.3);
        assert!((good - 0.9).abs() < 0.1);
    }

    #[test]
    fn trimming_discards_outlier_ratings() {
        // With only 2 raters there is nothing to trim; with 5 the extremes go.
        let model = PeerRatingModel {
            raters_per_photo: 2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let s = model.score_photo(0.7, &mut rng);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn user_reliability_is_a_valid_confidence() {
        let model = PeerRatingModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        for q in [0.0, 0.4, 0.85, 1.0] {
            let user = RatedUser {
                latent_quality: q,
                num_photos: 12,
            };
            let c = model.user_reliability(&user, &mut rng);
            assert!((0.0..=1.0).contains(&c.value()));
            // Estimated reliability should land near the latent quality.
            assert!(
                (c.value() - q).abs() < 0.15,
                "quality {q} estimated as {}",
                c.value()
            );
        }
    }

    #[test]
    fn user_with_no_photos_gets_neutral_reliability() {
        let model = PeerRatingModel::default();
        let mut rng = StdRng::seed_from_u64(4);
        let c = model.user_reliability(
            &RatedUser {
                latent_quality: 0.9,
                num_photos: 0,
            },
            &mut rng,
        );
        assert_eq!(c.value(), 0.5);
    }

    #[test]
    fn population_rating_preserves_ordering_on_average() {
        let model = PeerRatingModel::default();
        let mut rng = StdRng::seed_from_u64(5);
        let users: Vec<RatedUser> = (0..10)
            .map(|i| RatedUser {
                latent_quality: 0.5 + 0.05 * i as f64,
                num_photos: 20,
            })
            .collect();
        let ratings = model.rate_population(&users, &mut rng);
        assert_eq!(ratings.len(), 10);
        // The clearly-better last user must outrank the clearly-worse first.
        assert!(ratings[9].value() > ratings[0].value());
    }
}
