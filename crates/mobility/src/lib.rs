//! # dftmsn-mobility — mobility substrate for the DFT-MSN reproduction
//!
//! Node movement is what creates (and breaks) communication opportunities
//! in a DFT-MSN, so the mobility model is a first-class substrate:
//!
//! * [`geom`] — planar points/vectors and reflecting rectangular bounds;
//! * [`zones`] — the paper's zone grid over the deployment area;
//! * [`models`] — the paper's [`ZoneMobility`] model for sensors (sinks
//!   sit still at strategic locations and need none);
//! * [`grid_index`] — a spatial hash grid for O(1)-ish range queries.
//!
//! # Examples
//!
//! ```
//! use dftmsn_mobility::geom::Bounds;
//! use dftmsn_mobility::models::ZoneMobility;
//! use dftmsn_mobility::zones::{ZoneGrid, ZoneId};
//! use dftmsn_sim::rng::SimRng;
//!
//! let grid = ZoneGrid::new(Bounds::new(150.0, 150.0), 5, 5);
//! let mut rng = SimRng::seed_from(7);
//! let mut node = ZoneMobility::new(grid, ZoneId(0), 0.0, 5.0, 0.2, &mut rng);
//! node.advance(0.5, &mut rng);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod geom;
pub mod grid_index;
pub mod models;
pub mod zones;

pub use geom::{Bounds, Vec2};
pub use grid_index::SpatialGrid;
pub use models::ZoneMobility;
pub use zones::{ZoneGrid, ZoneId};
