//! # dftmsn-core — the DFT-MSN cross-layer data delivery protocol
//!
//! A faithful implementation of *"Protocol Design and Optimization for
//! Delay/Fault-Tolerant Mobile Sensor Networks"* (ICDCS 2007):
//!
//! * [`delivery`] — the nodal delivery probability ξ (Eq. 1);
//! * [`ftd`] — the message fault-tolerance degree (Eqs. 2–3);
//! * [`queue`] — FTD-ordered queue management (Sec. 3.1.2);
//! * [`contention`] — collision analysis and the τ_max / contention-window
//!   optimizers (Eqs. 9–14);
//! * [`sleep`] — adaptive periodic sleeping (Eqs. 4–8);
//! * [`neighbor`] — neighbor tables and greedy receiver selection
//!   (Sec. 3.2.2);
//! * [`frames`], [`node`], [`world`] — the two-phase MAC state machine on
//!   a simulated shared medium;
//! * [`variants`] — OPT / NOOPT / NOSLEEP / ZBR (+ DIRECT, EPIDEMIC)
//!   baselines;
//! * [`policy`] — every protocol decision point in one place, named by
//!   [`PolicySpec`]: the builtin variants plus the two-hop relay and
//!   meeting-rate competitor policies;
//! * [`faults`] — deterministic fault injection (node crashes, link loss,
//!   DATA corruption, sink outages);
//! * [`behavior`] — adversarial node behaviors (selfish, liar, forger,
//!   blackhole) injected through the fault plan, plus network-lifetime
//!   tracking;
//! * [`trace`], [`observe`] — the MAC-level event stream and the windowed
//!   metrics pipeline built on it;
//! * [`params`], [`report`] — configuration and results.
//!
//! # Examples
//!
//! Run a short OPT simulation and inspect the headline metrics:
//!
//! ```
//! use dftmsn_core::prelude::*;
//!
//! let params = ScenarioParams::smoke_test().with_duration_secs(200);
//! let report = Simulation::builder(params, ProtocolKind::Opt).seed(1).build().run();
//! println!("{}", report.summary());
//! assert!(report.delivery_ratio() <= 1.0);
//! ```

// `deny`, not `forbid`: the private `prefetch` helper allows one block
// around a cache-prefetch hint (DESIGN.md § 6, "Lookahead prefetch").
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod behavior;
pub mod contention;
pub mod delivery;
pub mod dense;
pub mod faults;
pub mod frames;
pub mod ftd;
pub mod message;
pub mod neighbor;
pub mod node;
pub mod observe;
pub mod params;
pub mod policy;
mod prefetch;
pub mod profile;
pub mod queue;
pub mod report;
pub mod sleep;
pub mod trace;
pub mod variants;
pub mod world;

pub use behavior::NodeBehavior;
pub use delivery::DeliveryProb;
pub use faults::{FaultKind, FaultPlan};
pub use ftd::Ftd;
pub use message::{Message, MessageId};
pub use observe::{MetricsRecorder, ObserveRow, ObserveSeries, WindowCounters, WorldSnapshot};
pub use params::{ProtocolParams, ScenarioParams};
pub use policy::PolicySpec;
pub use queue::FtdQueue;
pub use report::SimReport;
pub use trace::{DropReason, SharedTrace, TraceEvent, TraceSink};
pub use variants::ProtocolKind;
pub use world::{CkptError, MobilityMode, Resumed, Simulation, SimulationBuilder, CKPT_MAGIC};

/// The most commonly used items, re-exported in one place.
///
/// ```
/// use dftmsn_core::prelude::*;
///
/// let recorder = MetricsRecorder::new(100.0);
/// let sim = Simulation::builder(ScenarioParams::smoke_test(), ProtocolKind::Opt)
///     .observe(recorder.clone())
///     .build();
/// # let _ = sim;
/// ```
pub mod prelude {
    pub use crate::behavior::NodeBehavior;
    pub use crate::faults::{FaultKind, FaultPlan};
    pub use crate::observe::{MetricsRecorder, ObserveRow, ObserveSeries, WorldSnapshot};
    pub use crate::params::{ProtocolParams, ScenarioParams};
    pub use crate::policy::PolicySpec;
    pub use crate::report::SimReport;
    pub use crate::trace::{DropReason, SharedTrace, TraceEvent, TraceSink};
    pub use crate::variants::{ProtocolKind, VariantConfig};
    pub use crate::world::{
        CkptError, MobilityMode, Resumed, Simulation, SimulationBuilder, CKPT_MAGIC,
    };
}
