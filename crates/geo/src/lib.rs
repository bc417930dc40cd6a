//! Geometry and grid substrate for MobiEyes.
//!
//! This crate implements the spatial primitives of Section 2 of the paper:
//! points and velocity vectors, rectangle and circle regions, the universe of
//! discourse and its grid decomposition, position-to-cell mapping, query
//! bounding boxes and monitoring regions, and the linear dead-reckoning
//! motion model used by both the server and the moving objects.
//!
//! All coordinates are `f64` in *miles* (the unit of the paper's evaluation)
//! and all times are `f64` *seconds*, but nothing in the crate depends on the
//! units being miles/seconds as long as they are used consistently.

pub mod circle;
pub mod grid;
pub mod motion;
pub mod point;
pub mod rect;
pub mod region;

pub use circle::Circle;
pub use grid::{CellId, Grid, GridRect};
pub use motion::LinearMotion;
pub use point::{Point, Vec2};
pub use rect::Rect;
pub use region::{QueryRegion, Region};
