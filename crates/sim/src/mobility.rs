//! Mobility models.
//!
//! [`MobilityKind::VelocityReset`] is the paper's §5.1 model: "In every
//! time step we pick a number of objects at random and set their
//! normalized velocity vectors to a random direction, while setting their
//! velocity to a random value between zero and their maximum velocity. All
//! other objects ... continue their motion with their unchanged velocity
//! vectors." Objects reflect off the universe boundary (the paper leaves
//! boundary behaviour unspecified; reflection keeps the spatial density
//! uniform, which the uniform initial placement implies).
//!
//! [`MobilityKind::RandomWaypoint`] is the classic mobile-systems model:
//! each object repeatedly picks a uniform destination and a speed in
//! (0, max], travels there in a straight line, and immediately repicks.
//! It produces heading changes that are *correlated with position* (turns
//! happen at waypoints) rather than uniformly random — a harder, more
//! realistic stress for dead reckoning. Used by the mobility ablation.

use crate::rng::Rng;
use crate::workload::Workload;
use mobieyes_core::Kinematics;
use mobieyes_geo::{Point, Rect, Vec2};

/// Which trajectory generator drives the objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MobilityKind {
    /// The paper's model: `nmo` random velocity resets per time step.
    #[default]
    VelocityReset,
    /// Random waypoint: travel to a uniform destination, then repick.
    RandomWaypoint,
}

/// Deterministic shared mobility trace. Two `Mobility` instances built from
/// the same workload and seed produce identical trajectories, which is how
/// the harness feeds *paired* traces to MobiEyes and every baseline.
#[derive(Debug, Clone)]
pub struct Mobility {
    universe: Rect,
    rng: Rng,
    nmo: usize,
    time_step: f64,
    kind: MobilityKind,
    /// Current destination per object (random-waypoint only).
    waypoints: Vec<Point>,
    pub positions: Vec<Point>,
    pub velocities: Vec<Vec2>,
    pub max_speeds: Vec<f64>,
    /// Indices whose velocity vector changed in the latest step.
    pub changed_velocity: Vec<usize>,
}

impl Mobility {
    /// The paper's velocity-reset model.
    pub fn new(workload: &Workload, nmo: usize, time_step: f64, seed: u64) -> Self {
        Self::with_kind(workload, nmo, time_step, seed, MobilityKind::VelocityReset)
    }

    pub fn with_kind(
        workload: &Workload,
        nmo: usize,
        time_step: f64,
        seed: u64,
        kind: MobilityKind,
    ) -> Self {
        let mut rng = Rng::new(seed ^ 0x0B11_17E5);
        let n = workload.objects.len();
        let positions: Vec<Point> = workload.objects.iter().map(|o| o.initial_pos).collect();
        let max_speeds: Vec<f64> = workload.objects.iter().map(|o| o.max_speed).collect();
        let (velocities, waypoints) = match kind {
            MobilityKind::VelocityReset => {
                // Every object starts with a random heading and a speed
                // uniform in [0, max].
                let v = max_speeds
                    .iter()
                    .map(|&ms| {
                        let dir = Vec2::from_angle(rng.range(0.0, std::f64::consts::TAU));
                        dir * rng.range(0.0, ms)
                    })
                    .collect();
                (v, Vec::new())
            }
            MobilityKind::RandomWaypoint => {
                let mut waypoints = Vec::with_capacity(n);
                let mut velocities = Vec::with_capacity(n);
                for i in 0..n {
                    let dest = Point::new(
                        rng.range(workload.universe.lx, workload.universe.hx()),
                        rng.range(workload.universe.ly, workload.universe.hy()),
                    );
                    let speed = rng
                        .range(0.0, max_speeds[i])
                        .max(1e-6 * max_speeds[i].max(1e-9));
                    velocities.push(positions[i].to(dest).normalized() * speed);
                    waypoints.push(dest);
                }
                (velocities, waypoints)
            }
        };
        Mobility {
            universe: workload.universe,
            rng,
            nmo: nmo.min(n),
            time_step,
            kind,
            waypoints,
            positions,
            velocities,
            max_speeds,
            changed_velocity: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.positions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Object `i`'s position, velocity and maximum speed: what its agent
    /// is handed in every phase call.
    #[inline]
    pub fn kinematics(&self, i: usize) -> Kinematics {
        Kinematics::new(self.positions[i], self.velocities[i], self.max_speeds[i])
    }

    /// Advances one time step under the configured model, then integrates
    /// all positions (reflecting at the universe boundary).
    pub fn step(&mut self) {
        self.changed_velocity.clear();
        let n = self.positions.len();
        match self.kind {
            MobilityKind::VelocityReset => {
                // Re-randomize nmo velocity vectors.
                for _ in 0..self.nmo {
                    let i = self.rng.below(n);
                    let dir = Vec2::from_angle(self.rng.range(0.0, std::f64::consts::TAU));
                    self.velocities[i] = dir * self.rng.range(0.0, self.max_speeds[i]);
                    self.changed_velocity.push(i);
                }
            }
            MobilityKind::RandomWaypoint => {
                // Objects reaching their waypoint this step pick a new one.
                for i in 0..n {
                    let remaining = self.positions[i].distance(self.waypoints[i]);
                    let stride = self.velocities[i].norm() * self.time_step;
                    if remaining <= stride {
                        // Arrive, then depart toward a fresh destination.
                        self.positions[i] = self.waypoints[i];
                        let dest = Point::new(
                            self.rng.range(self.universe.lx, self.universe.hx()),
                            self.rng.range(self.universe.ly, self.universe.hy()),
                        );
                        let speed = self
                            .rng
                            .range(0.0, self.max_speeds[i])
                            .max(1e-6 * self.max_speeds[i].max(1e-9));
                        self.velocities[i] = self.positions[i].to(dest).normalized() * speed;
                        self.waypoints[i] = dest;
                        self.changed_velocity.push(i);
                    }
                }
            }
        }
        let (lx, ly) = (self.universe.lx, self.universe.ly);
        let (hx, hy) = (self.universe.hx(), self.universe.hy());
        for i in 0..n {
            let mut p = self.positions[i] + self.velocities[i] * self.time_step;
            let v = &mut self.velocities[i];
            // Reflect off each wall (velocities are far too small to cross
            // the universe twice in one step).
            if p.x < lx {
                p.x = lx + (lx - p.x);
                v.x = -v.x;
            } else if p.x > hx {
                p.x = hx - (p.x - hx);
                v.x = -v.x;
            }
            if p.y < ly {
                p.y = ly + (ly - p.y);
                v.y = -v.y;
            } else if p.y > hy {
                p.y = hy - (p.y - hy);
                v.y = -v.y;
            }
            self.positions[i] = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::workload::Workload;

    fn mobility(seed: u64) -> Mobility {
        let c = SimConfig::small_test(seed);
        let w = Workload::generate(&c);
        Mobility::new(&w, c.objects_changing_velocity, c.time_step, c.seed)
    }

    #[test]
    fn trace_is_deterministic() {
        let mut a = mobility(11);
        let mut b = mobility(11);
        for _ in 0..20 {
            a.step();
            b.step();
        }
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.velocities, b.velocities);
        assert_eq!(a.changed_velocity, b.changed_velocity);
    }

    #[test]
    fn objects_stay_inside_universe() {
        let mut m = mobility(12);
        let u = m.universe;
        for _ in 0..200 {
            m.step();
            for p in &m.positions {
                assert!(u.contains_point(*p), "object escaped to {p:?}");
            }
        }
    }

    #[test]
    fn speeds_never_exceed_max() {
        let mut m = mobility(13);
        for _ in 0..50 {
            m.step();
            for (v, &ms) in m.velocities.iter().zip(&m.max_speeds) {
                assert!(v.norm() <= ms + 1e-12);
            }
        }
    }

    #[test]
    fn nmo_velocity_changes_per_step() {
        let mut m = mobility(14);
        m.step();
        // nmo picks *with replacement*, so count <= nmo but close to it.
        assert!(m.changed_velocity.len() == 30);
    }

    #[test]
    fn objects_actually_move() {
        let mut m = mobility(15);
        let before = m.positions.clone();
        m.step();
        let moved = m
            .positions
            .iter()
            .zip(&before)
            .filter(|(a, b)| a.distance(**b) > 1e-9)
            .count();
        // Nearly every object has nonzero velocity.
        assert!(moved > m.len() * 8 / 10, "only {moved} moved");
    }

    #[test]
    fn reflection_reverses_velocity() {
        let c = SimConfig::small_test(16);
        let w = Workload::generate(&c);
        let mut m = Mobility::new(&w, 0, 30.0, 1);
        // Plant an object heading straight at the wall.
        m.positions[0] = Point::new(0.5, 50.0);
        m.velocities[0] = Vec2::new(-0.05, 0.0);
        m.step();
        assert!(m.positions[0].x >= 0.0);
        assert!(m.velocities[0].x > 0.0, "x velocity must flip");
    }
}
