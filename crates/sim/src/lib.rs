//! # dftmsn-sim — deterministic discrete-event simulation substrate
//!
//! This crate is the foundation of the DFT-MSN reproduction: a small,
//! dependency-free discrete-event simulation (DES) kernel providing
//!
//! * [`time`] — integer-microsecond simulation clock types
//!   ([`SimTime`], [`SimDuration`]);
//! * [`event`] — a deterministic future-event list
//!   ([`EventQueue`]) with O(1) cancellation;
//! * [`rng`] — a seedable, forkable xoshiro256++ generator
//!   ([`SimRng`]) so runs are bit-reproducible;
//! * [`snap`] — the little-endian snapshot codec
//!   ([`SnapWriter`]/[`SnapReader`]) backing checkpoint files.
//!
//! The simulator built on top (see the `dftmsn-core` crate) is
//! single-threaded by design: determinism is the property the experiment
//! harness depends on, and the workloads parallelize across independent
//! runs instead.
//!
//! # Examples
//!
//! A complete miniature simulation — a ping-pong of two events:
//!
//! ```
//! use dftmsn_sim::event::EventQueue;
//! use dftmsn_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::ZERO + SimDuration::from_secs(1), Ev::Ping);
//! let mut log = Vec::new();
//! while let Some((now, ev)) = q.pop() {
//!     match ev {
//!         Ev::Ping if now < SimTime::from_secs(4) => {
//!             log.push("ping");
//!             q.schedule_after(SimDuration::from_secs(1), Ev::Pong);
//!         }
//!         Ev::Pong => {
//!             log.push("pong");
//!             q.schedule_after(SimDuration::from_secs(1), Ev::Ping);
//!         }
//!         Ev::Ping => break,
//!     }
//! }
//! assert_eq!(log, vec!["ping", "pong", "ping", "pong"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod rng;
pub mod snap;
pub mod time;

pub use event::{EventQueue, EventToken};
pub use rng::SimRng;
pub use snap::{checksum64, fnv1a64, SnapError, SnapReader, SnapWriter};
pub use time::{SimDuration, SimTime};
