//! Per-node protocol state.
//!
//! A [`Node`] bundles everything one sensor (or sink) carries through the
//! simulation: its routing metric, FTD queue, sleep controller, neighbor
//! table, MAC state and energy meter. The *transitions* live in
//! [`crate::world`], which owns the shared medium and event queue; this
//! module defines the states and the bookkeeping that is local to a node.

use crate::delivery::DeliveryProb;
use crate::ftd::Ftd;
use crate::message::{Message, MessageId};
use crate::neighbor::{Candidate, NeighborTable, Selection};
use crate::queue::FtdQueue;
use crate::sleep::SleepController;
use dftmsn_radio::energy::{EnergyMeter, RadioState};
use dftmsn_radio::ids::NodeId;
use dftmsn_sim::rng::SimRng;
use dftmsn_sim::time::SimTime;

/// Whether a node is a wearable sensor or a high-end sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// A mobile wearable sensor.
    Sensor,
    /// A stationary high-end sink (always awake, ξ = 1, never initiates).
    Sink,
}

/// What the node will do when its current transmission completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxPlan {
    /// Preamble sent → follow with the RTS.
    Preamble,
    /// RTS sent → open the CTS contention window.
    Rts,
    /// CTS sent → await the SCHEDULE.
    Cts,
    /// SCHEDULE sent → follow with the DATA frame.
    Schedule,
    /// DATA sent → await the ACKs.
    Data,
    /// ACK sent → the receive exchange is complete.
    Ack,
}

/// The MAC state machine of the two-phase protocol (paper Sec. 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacState {
    /// Radio off; a `WakeUp` timer ends the nap.
    Sleeping,
    /// Awake, idle-listening: backoff between attempts, NAV deferral, the
    /// queue-empty receiver window, and sinks' permanent state.
    Passive,
    /// Sender carrier-sensing for its drawn listening period (async phase).
    SenderListen,
    /// Mid-transmission of some frame.
    Transmitting(TxPlan),
    /// Sender collecting CTS replies until the window closes.
    CollectCts,
    /// Sender waiting for scheduled ACKs.
    AwaitAcks,
    /// Receiver: preamble heard, RTS expected.
    AwaitRts,
    /// Receiver: qualified, waiting for its CTS slot.
    CtsPending,
    /// Receiver: CTS sent, SCHEDULE expected.
    AwaitSchedule,
    /// Receiver: scheduled, DATA expected.
    AwaitData,
    /// Receiver: DATA held, waiting for its ACK slot.
    AckPending,
}

impl MacState {
    /// True when the node may opportunistically become a receiver (it is
    /// listening and not committed to an exchange).
    #[must_use]
    pub fn receptive(self) -> bool {
        matches!(self, MacState::Passive | MacState::SenderListen)
    }
}

/// Sender-side context of one multicast attempt.
#[derive(Debug, Clone)]
pub struct SenderCtx {
    /// Snapshot of the message at the head of the queue when the attempt
    /// started (the live copy stays queued until the outcome is known).
    pub msg: Message,
    /// Contention-window length advertised in the RTS (slots).
    pub window_slots: u32,
    /// CTS repliers collected so far.
    pub candidates: Vec<Candidate>,
    /// The chosen receiver set, once selection ran.
    pub selection: Option<Selection>,
    /// Receivers whose ACK arrived.
    pub acked: Vec<NodeId>,
}

/// Receiver-side context of one exchange.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverCtx {
    /// The soliciting sender.
    pub sender: NodeId,
    /// The message being negotiated.
    pub msg: MessageId,
    /// The FTD class advertised in the RTS (drives the buffer-space
    /// figure echoed in our CTS).
    pub rts_ftd: f64,
    /// Contention-window length from the RTS (slots).
    pub window_slots: u32,
    /// When the RTS finished (CTS slots are measured from here).
    pub rts_end: SimTime,
    /// FTD assigned to our copy by the SCHEDULE (Eq. 2).
    pub assigned_ftd: Option<Ftd>,
    /// Our 0-based ACK slot from the SCHEDULE.
    pub ack_slot: u32,
}

/// All per-node state.
#[derive(Debug)]
pub struct Node {
    /// The node's identity (index into the world's arrays).
    pub id: NodeId,
    /// Sensor or sink.
    pub role: NodeRole,
    /// Routing metric: ξ (Eq. 1), or the ZBR sink-contact history.
    pub metric: DeliveryProb,
    /// The FTD-ordered data queue.
    pub queue: FtdQueue,
    /// Eq. 4–6 sleep controller.
    pub sleep: SleepController,
    /// Overheard neighbor advertisements.
    pub table: NeighborTable,
    /// Current MAC state.
    pub state: MacState,
    /// Timer-guard epoch: bumped on every state change so stale timers are
    /// ignored.
    pub epoch: u64,
    /// Consecutive cycles without acting as sender or receiver.
    pub cycles_inactive: usize,
    /// How many times this node re-drew its listening period in the
    /// current attempt after sensing a busy channel.
    pub listen_retries: u32,
    /// Last instant this node transmitted a data message (drives the Δ
    /// metric timeout of Eq. 1).
    pub last_tx: SimTime,
    /// False while the node is crashed or battery-dead: the radio is dark,
    /// no events are acted on, and queued copies were lost.
    pub alive: bool,
    /// A permanent crash: the node never recovers.
    pub battery_dead: bool,
    /// Injected fault: probability an arriving DATA frame is corrupted and
    /// discarded before the protocol sees it.
    pub corrupt_rx_prob: f64,
    /// High-water mark of applied Eq. 1 Δ-decay windows: the instant up to
    /// which timeout decay has been accounted for (max'ed with `last_tx`).
    /// Lets a node that slept or was crashed across several Δ windows catch
    /// up on every missed decay instead of decaying once per wakeup.
    pub xi_anchor: SimTime,
    /// Memoized Eq. 13 result: `(computed_at, τ_max)`. The optimizer is
    /// O(τ·m²), so attempts reuse a recent value instead of re-solving.
    pub cached_tau: Option<(SimTime, u64)>,
    /// Per-node energy meter.
    pub meter: EnergyMeter,
    /// Private random stream.
    pub rng: SimRng,
    /// Sender attempt context.
    pub sender_ctx: Option<SenderCtx>,
    /// Receiver exchange context.
    pub receiver_ctx: Option<ReceiverCtx>,
}

impl Node {
    /// Creates a node in the given role.
    ///
    /// Sensors start passive with metric 0; sinks start passive with
    /// metric 1 and never leave [`MacState::Passive`].
    #[must_use]
    pub fn new(
        id: NodeId,
        role: NodeRole,
        queue_capacity: usize,
        history_window: usize,
        rng: SimRng,
    ) -> Self {
        let metric = match role {
            NodeRole::Sensor => DeliveryProb::ZERO,
            NodeRole::Sink => DeliveryProb::SINK,
        };
        Node {
            id,
            role,
            metric,
            queue: FtdQueue::new(queue_capacity),
            sleep: SleepController::new(history_window),
            table: NeighborTable::new(),
            state: MacState::Passive,
            epoch: 0,
            cycles_inactive: 0,
            listen_retries: 0,
            last_tx: SimTime::ZERO,
            alive: true,
            battery_dead: false,
            corrupt_rx_prob: 0.0,
            xi_anchor: SimTime::ZERO,
            cached_tau: None,
            meter: EnergyMeter::new(RadioState::Idle),
            rng,
            sender_ctx: None,
            receiver_ctx: None,
        }
    }

    /// True for sink nodes.
    #[must_use]
    pub fn is_sink(&self) -> bool {
        self.role == NodeRole::Sink
    }

    /// Moves to a new MAC state, bumping the timer-guard epoch.
    pub fn transition(&mut self, next: MacState) {
        self.state = next;
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(role: NodeRole) -> Node {
        Node::new(NodeId(0), role, 10, 10, SimRng::seed_from(1))
    }

    #[test]
    fn sensors_start_cold_and_passive() {
        let n = node(NodeRole::Sensor);
        assert_eq!(n.metric, DeliveryProb::ZERO);
        assert_eq!(n.state, MacState::Passive);
        assert!(!n.is_sink());
        assert!(n.queue.is_empty());
    }

    #[test]
    fn sinks_start_with_metric_one() {
        let n = node(NodeRole::Sink);
        assert_eq!(n.metric, DeliveryProb::SINK);
        assert!(n.is_sink());
    }

    #[test]
    fn transition_bumps_epoch() {
        let mut n = node(NodeRole::Sensor);
        let e0 = n.epoch;
        n.transition(MacState::SenderListen);
        assert_eq!(n.state, MacState::SenderListen);
        assert_eq!(n.epoch, e0 + 1);
    }

    #[test]
    fn receptive_states() {
        assert!(MacState::Passive.receptive());
        assert!(MacState::SenderListen.receptive());
        assert!(!MacState::Sleeping.receptive());
        assert!(!MacState::AwaitData.receptive());
        assert!(!MacState::Transmitting(TxPlan::Rts).receptive());
    }
}
