//! Protocol event tracing.
//!
//! A [`TraceSink`] attached to a [`Simulation`](crate::world::Simulation)
//! observes the MAC-level life of the network: frames on the air,
//! deliveries, collisions, sleep transitions and message drops. Traces
//! power the handshake assertions in the integration tests and make the
//! two-phase exchange visible for debugging.
//!
//! Tracing is off by default and costs one branch per event when off.

use crate::message::MessageId;
use dftmsn_radio::ids::NodeId;
use dftmsn_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// Why a message copy left a queue involuntarily.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// Evicted by a more important arrival (drop-tail).
    Overflow,
    /// Rejected on arrival at a full queue.
    QueueFull,
    /// Purged because its FTD exceeded the threshold.
    FtdThreshold,
}

/// One observed protocol event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A frame started transmission.
    FrameSent {
        /// When.
        at: SimTime,
        /// Transmitter.
        node: NodeId,
        /// Frame tag (`PRE`, `RTS`, `CTS`, `SCHD`, `DATA`, `ACK`).
        tag: &'static str,
        /// Wire size.
        bits: u64,
    },
    /// A frame was decoded intact at a receiver.
    FrameDelivered {
        /// When (frame end).
        at: SimTime,
        /// Transmitter.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Frame tag.
        tag: &'static str,
    },
    /// A frame was lost to a collision at a receiver.
    Collision {
        /// When (frame end).
        at: SimTime,
        /// The victim receiver.
        at_node: NodeId,
    },
    /// A message reached a sink for the first time.
    Delivered {
        /// When.
        at: SimTime,
        /// The message.
        msg: MessageId,
        /// The receiving sink.
        sink: NodeId,
        /// End-to-end delay in seconds.
        delay_secs: f64,
    },
    /// A node turned its radio off.
    Slept {
        /// When.
        at: SimTime,
        /// Who.
        node: NodeId,
        /// Sleep duration in seconds.
        secs: f64,
    },
    /// A message copy was dropped.
    Dropped {
        /// When.
        at: SimTime,
        /// Whose queue.
        node: NodeId,
        /// The message.
        msg: MessageId,
        /// Why.
        reason: DropReason,
    },
    /// A fault-plan event fired.
    FaultInjected {
        /// When.
        at: SimTime,
        /// The fault class (see [`FaultKind::label`](crate::faults::FaultKind::label)).
        kind: &'static str,
    },
}

impl TraceEvent {
    /// When the event happened.
    #[must_use]
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::FrameSent { at, .. }
            | TraceEvent::FrameDelivered { at, .. }
            | TraceEvent::Collision { at, .. }
            | TraceEvent::Delivered { at, .. }
            | TraceEvent::Slept { at, .. }
            | TraceEvent::Dropped { at, .. }
            | TraceEvent::FaultInjected { at, .. } => *at,
        }
    }
}

/// Receives trace events during a run.
pub trait TraceSink: Send + std::fmt::Debug {
    /// Observes one event.
    fn record(&mut self, event: TraceEvent);
}

impl TraceSink for Box<dyn TraceSink> {
    fn record(&mut self, event: TraceEvent) {
        (**self).record(event);
    }
}

/// A sink that counts events by class without storing them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingTrace {
    /// Frames sent.
    pub sent: u64,
    /// Frame deliveries.
    pub delivered_frames: u64,
    /// Collision losses.
    pub collisions: u64,
    /// First-copy sink deliveries.
    pub deliveries: u64,
    /// Sleep transitions.
    pub sleeps: u64,
    /// Drops.
    pub drops: u64,
    /// Fault-plan events fired.
    pub faults: u64,
}

impl CountingTrace {
    /// Creates a zeroed counter sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for CountingTrace {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::FrameSent { .. } => self.sent += 1,
            TraceEvent::FrameDelivered { .. } => self.delivered_frames += 1,
            TraceEvent::Collision { .. } => self.collisions += 1,
            TraceEvent::Delivered { .. } => self.deliveries += 1,
            TraceEvent::Slept { .. } => self.sleeps += 1,
            TraceEvent::Dropped { .. } => self.drops += 1,
            TraceEvent::FaultInjected { .. } => self.faults += 1,
        }
    }
}

/// A clonable, thread-safe in-memory store of every event, for reading a
/// trace back after [`Simulation::run`](crate::world::Simulation::run)
/// consumed the sink.
///
/// # Examples
///
/// ```
/// use dftmsn_core::params::ScenarioParams;
/// use dftmsn_core::trace::SharedTrace;
/// use dftmsn_core::variants::ProtocolKind;
/// use dftmsn_core::world::Simulation;
///
/// let trace = SharedTrace::new();
/// let sim = Simulation::builder(
///     ScenarioParams::smoke_test().with_duration_secs(60),
///     ProtocolKind::Opt,
/// )
/// .seed(1)
/// .trace(trace.clone())
/// .build();
/// let _report = sim.run();
/// let tags = trace.sent_tags();
/// assert!(tags.is_empty() || tags[0] == "PRE");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedTrace {
    inner: std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>>,
}

impl SharedTrace {
    /// Creates an empty shared trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of all events recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.lock().expect("trace lock poisoned").clone()
    }

    /// The tags of sent frames, in order.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    #[must_use]
    pub fn sent_tags(&self) -> Vec<&'static str> {
        self.inner
            .lock()
            .expect("trace lock poisoned")
            .iter()
            .filter_map(|e| match e {
                TraceEvent::FrameSent { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect()
    }
}

impl TraceSink for SharedTrace {
    fn record(&mut self, event: TraceEvent) {
        self.inner.lock().expect("trace lock poisoned").push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_trace_is_readable_through_clones() {
        let reader = SharedTrace::new();
        let mut writer = reader.clone();
        writer.record(TraceEvent::FrameSent {
            at: SimTime::ZERO,
            node: NodeId(3),
            tag: "PRE",
            bits: 50,
        });
        assert_eq!(reader.sent_tags(), vec!["PRE"]);
        assert_eq!(reader.snapshot().len(), 1);
    }

    #[test]
    fn every_event_reports_its_timestamp() {
        let e = TraceEvent::FaultInjected {
            at: SimTime::from_secs(9),
            kind: "NodeCrash",
        };
        assert_eq!(e.at(), SimTime::from_secs(9));
        let mut c = CountingTrace::new();
        c.record(e);
        assert_eq!(c.faults, 1);
    }

    #[test]
    fn counting_trace_tallies_classes() {
        let mut t = CountingTrace::new();
        t.record(TraceEvent::Collision {
            at: SimTime::ZERO,
            at_node: NodeId(1),
        });
        t.record(TraceEvent::Delivered {
            at: SimTime::ZERO,
            msg: MessageId(0),
            sink: NodeId(2),
            delay_secs: 3.0,
        });
        t.record(TraceEvent::Dropped {
            at: SimTime::ZERO,
            node: NodeId(0),
            msg: MessageId(1),
            reason: DropReason::Overflow,
        });
        assert_eq!(t.collisions, 1);
        assert_eq!(t.deliveries, 1);
        assert_eq!(t.drops, 1);
        assert_eq!(t.sent, 0);
    }
}
