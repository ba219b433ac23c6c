//! # dftmsn — DFT-MSN cross-layer data delivery (ICDCS 2007 reproduction)
//!
//! Facade crate re-exporting the whole workspace. Most users only need
//! [`prelude`]:
//!
//! ```
//! use dftmsn::prelude::*;
//!
//! let params = ScenarioParams::paper_default().with_duration_secs(200);
//! let report = Simulation::builder(params, ProtocolKind::Opt).seed(1).build().run();
//! assert!(report.delivery_ratio() >= 0.0);
//! ```
//!
//! See the `dftmsn-core` crate documentation for the protocol itself, and
//! `DESIGN.md` / `EXPERIMENTS.md` in the repository root for the paper
//! mapping.

#![forbid(unsafe_code)]

pub use dftmsn_core as core;
pub use dftmsn_metrics as metrics;
pub use dftmsn_mobility as mobility;
pub use dftmsn_radio as radio;
pub use dftmsn_sim as sim;

/// The most commonly used items, re-exported in one place.
pub mod prelude {
    pub use dftmsn_core::behavior::{BehaviorTable, LifetimeTracker, NodeBehavior};
    pub use dftmsn_core::faults::{FaultKind, FaultPlan};
    pub use dftmsn_core::observe::{MetricsRecorder, ObserveRow, ObserveSeries, WorldSnapshot};
    pub use dftmsn_core::params::{ProtocolParams, ScenarioParams};
    pub use dftmsn_core::policy::{ForwardingPolicy, MeetingRate, Policy, PolicySpec, TwoHopRelay};
    pub use dftmsn_core::report::SimReport;
    pub use dftmsn_core::trace::{DropReason, SharedTrace, TraceEvent, TraceSink};
    pub use dftmsn_core::variants::{ProtocolKind, VariantConfig};
    pub use dftmsn_core::world::{
        CkptError, MobilityMode, Resumed, Simulation, SimulationBuilder, CKPT_MAGIC,
    };
    pub use dftmsn_sim::rng::SimRng;
    pub use dftmsn_sim::time::{SimDuration, SimTime};
}
