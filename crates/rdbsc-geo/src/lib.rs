//! # rdbsc-geo
//!
//! 2-D geometry substrate for the RDB-SC (Reliable Diversity-Based Spatial
//! Crowdsourcing) system.
//!
//! The crate is intentionally free of any crowdsourcing-specific types: it
//! only knows about points, angles, axis-aligned rectangles, circular
//! sectors, and the *motion model* that decides whether a moving agent with a
//! direction cone and a speed can reach a target point before a deadline.
//!
//! Everything here is used by the higher layers:
//!
//! * [`Point`] / [`Rect`] — task & worker locations and grid-index cells.
//! * [`AngleRange`] — a worker's registered moving-direction cone
//!   `[α⁻, α⁺]` (Definition 2 of the paper), with full wrap-around support.
//! * [`motion`] — travel times, arrival times and reachability checks
//!   (constraint 1 of Definition 4).
//! * [`Sector`] — the fan-shaped working area described in Section 8.1.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod angle;
pub mod motion;
pub mod point;
pub mod rect;
pub mod sector;

pub use angle::{normalize_angle, AngleRange, FULL_TURN};
pub use motion::{MotionModel, Reachability};
pub use point::Point;
pub use rect::Rect;
pub use sector::Sector;

/// Absolute tolerance used throughout the geometry layer when comparing
/// floating-point quantities (angles, distances, times).
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two floats are equal within [`EPSILON`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}

/// Returns `true` when `a <= b` allowing [`EPSILON`] slack.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPSILON
}
