//! # dftmsn-metrics — measurement substrate for the DFT-MSN reproduction
//!
//! Small, dependency-light building blocks for collecting and reporting
//! simulation results:
//!
//! * [`stats`] — streaming mean/min/max/sum with checkpointable state;
//! * [`histogram`] — fixed-bucket histograms with approximate quantiles;
//! * [`timeseries`] — monotone `(t, v)` series;
//! * [`table`] — titled result tables rendered as aligned text or CSV,
//!   the output format of every regenerated figure/table;
//! * [`viz`] — terminal sparklines, bar charts and grid heatmaps;
//! * [`json`] — a minimal dependency-free JSON value with a writer and a
//!   depth-capped parser.
//!
//! # Examples
//!
//! ```
//! use dftmsn_metrics::stats::RunningStats;
//!
//! let mut delays = RunningStats::new();
//! for d in [120.0, 340.0, 95.0] {
//!     delays.record(d);
//! }
//! println!("mean delay {:.1} s over {} deliveries", delays.mean(), delays.count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod stats;
pub mod table;
pub mod timeseries;
pub mod viz;

pub use histogram::Histogram;
pub use json::Json;
pub use stats::RunningStats;
pub use table::{Cell, Table};
pub use timeseries::TimeSeries;
pub use viz::{bar_chart, heatmap, sparkline};
