//! Linear dead-reckoning motion model (paper §3.4).
//!
//! Both the server and the moving objects predict a focal object's position
//! by extrapolating the last reported `(pos, vel, tm)` sample linearly:
//! `pos + vel * (t - tm)`. A focal object relays a new sample whenever its
//! true position deviates from this prediction by more than a threshold Δ.

use crate::point::{Point, Vec2};

/// A recorded motion sample: position and velocity at a timestamp.
///
/// This is the `(pos, vel, tm)` triple stored in the server's FOT and in
/// every moving object's LQT entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearMotion {
    /// Position at time `tm`.
    pub pos: Point,
    /// Velocity vector (distance units per second).
    pub vel: Vec2,
    /// Timestamp at which `pos` and `vel` were recorded (seconds).
    pub tm: f64,
}

impl LinearMotion {
    #[inline]
    pub fn new(pos: Point, vel: Vec2, tm: f64) -> Self {
        LinearMotion { pos, vel, tm }
    }

    /// A stationary sample.
    #[inline]
    pub fn at_rest(pos: Point, tm: f64) -> Self {
        LinearMotion {
            pos,
            vel: Vec2::ZERO,
            tm,
        }
    }

    /// Predicted position at time `t` (times before `tm` extrapolate
    /// backwards, which callers normally avoid but is well-defined).
    #[inline]
    pub fn predict(&self, t: f64) -> Point {
        self.pos + self.vel * (t - self.tm)
    }

    /// Distance between the prediction at `t` and an observed position —
    /// the dead-reckoning deviation the reporting decision is based on.
    #[inline]
    pub fn deviation(&self, t: f64, actual: Point) -> f64 {
        self.predict(t).distance(actual)
    }

    /// The dead-reckoning reporting rule: should a new sample be relayed?
    #[inline]
    pub fn should_report(&self, t: f64, actual: Point, delta: f64) -> bool {
        self.deviation(t, actual) > delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_linearly() {
        let m = LinearMotion::new(Point::new(0.0, 0.0), Vec2::new(1.0, 2.0), 10.0);
        assert_eq!(m.predict(10.0), Point::new(0.0, 0.0));
        assert_eq!(m.predict(12.0), Point::new(2.0, 4.0));
        assert_eq!(m.predict(9.0), Point::new(-1.0, -2.0)); // backwards
    }

    #[test]
    fn at_rest_never_moves() {
        let m = LinearMotion::at_rest(Point::new(3.0, 4.0), 0.0);
        assert_eq!(m.predict(1e6), Point::new(3.0, 4.0));
    }

    #[test]
    fn deviation_measures_prediction_error() {
        let m = LinearMotion::new(Point::new(0.0, 0.0), Vec2::new(1.0, 0.0), 0.0);
        // After 5s prediction is (5,0); actual is (5,3) -> deviation 3.
        assert_eq!(m.deviation(5.0, Point::new(5.0, 3.0)), 3.0);
        assert_eq!(m.deviation(5.0, Point::new(5.0, 0.0)), 0.0);
    }

    #[test]
    fn should_report_thresholds() {
        let m = LinearMotion::new(Point::new(0.0, 0.0), Vec2::new(1.0, 0.0), 0.0);
        assert!(!m.should_report(5.0, Point::new(5.0, 0.5), 1.0));
        assert!(m.should_report(5.0, Point::new(5.0, 1.5), 1.0));
        // Exactly at the threshold does not trigger (strict inequality).
        assert!(!m.should_report(5.0, Point::new(5.0, 1.0), 1.0));
    }

    #[test]
    fn zero_delta_reports_any_deviation() {
        let m = LinearMotion::new(Point::new(0.0, 0.0), Vec2::ZERO, 0.0);
        assert!(m.should_report(1.0, Point::new(1e-9, 0.0), 0.0));
        assert!(!m.should_report(1.0, Point::new(0.0, 0.0), 0.0));
    }
}
