//! The shared wireless medium.
//!
//! [`Medium`] models a single half-duplex broadcast channel with unit-disk
//! propagation and collision-on-overlap reception:
//!
//! * a frame is *audible* at every node within range of the transmitter at
//!   the moment transmission starts (node speeds are ≤ a few m/s and frames
//!   last ≤ 100 ms, so positions are frozen per frame);
//! * a node *begins receiving* a frame only if it is listening (awake and
//!   not transmitting) when the frame starts — there is no mid-frame
//!   synchronization;
//! * if a second audible frame overlaps an ongoing reception, **both** are
//!   corrupted at that receiver (no capture effect);
//! * a node that stops listening mid-frame loses the frame.
//!
//! The medium is generic over the MAC payload type so the protocol crate
//! can plug in its own frame vocabulary.

use crate::ids::NodeId;
use dftmsn_sim::time::SimTime;
use std::collections::HashMap;

/// A frame in flight: an opaque payload plus its size on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<P> {
    /// The transmitting node.
    pub src: NodeId,
    /// Size on the wire in bits (drives airtime and energy).
    pub bits: u64,
    /// MAC-level payload.
    pub payload: P,
}

/// Handle identifying an ongoing transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxHandle(u64);

impl TxHandle {
    /// The underlying transmission id, for checkpointing pending `TxEnd`
    /// events.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from a checkpointed id. Only ids that appear in a
    /// [`MediumState::active`] snapshot restored into the same medium are
    /// meaningful.
    #[must_use]
    pub fn from_raw(id: u64) -> Self {
        TxHandle(id)
    }
}

/// One in-flight transmission, flattened for checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveTxState<P> {
    /// Transmission id ([`TxHandle::raw`] of the handle `begin_tx` issued).
    pub id: u64,
    /// The frame on the wire.
    pub frame: Frame<P>,
    /// Nodes within range when the transmission started.
    pub audible: Vec<NodeId>,
    /// When the transmission started.
    pub start: SimTime,
}

/// Complete serializable medium state.
///
/// `audible_count` is derived from the active audible lists on restore and
/// is deliberately absent.
#[derive(Debug, Clone, PartialEq)]
pub struct MediumState<P> {
    /// Per-node listening flags.
    pub listening: Vec<bool>,
    /// Per-node reception in progress as `(tx id, corrupted)`.
    pub rx: Vec<Option<(u64, bool)>>,
    /// In-flight transmissions, sorted by id.
    pub active: Vec<ActiveTxState<P>>,
    /// Next transmission id to issue.
    pub next_id: u64,
    /// Running totals.
    pub counters: MediumCounters,
}

#[derive(Debug)]
struct ActiveTx<P> {
    frame: Frame<P>,
    audible: Vec<NodeId>,
    start: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct RxInProgress {
    tx: u64,
    corrupted: bool,
}

/// What happened to a frame when its transmission finished.
#[derive(Debug, Clone, PartialEq)]
pub struct TxOutcome<P> {
    /// The completed frame.
    pub frame: Frame<P>,
    /// Receivers that decoded the frame intact.
    pub delivered_to: Vec<NodeId>,
    /// Audible receivers that lost the frame to a collision.
    pub collided_at: Vec<NodeId>,
}

/// Running totals kept by the medium.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MediumCounters {
    /// Frames whose transmission completed.
    pub frames_sent: u64,
    /// (frame, receiver) losses due to collision.
    pub collisions: u64,
}

/// The shared broadcast channel.
///
/// # Examples
///
/// ```
/// use dftmsn_radio::ids::NodeId;
/// use dftmsn_radio::medium::{Frame, Medium};
/// use dftmsn_sim::time::SimTime;
///
/// let mut m: Medium<&str> = Medium::new(3);
/// m.set_listening(NodeId(1), true);
/// let tx = m.begin_tx(
///     SimTime::ZERO,
///     Frame { src: NodeId(0), bits: 50, payload: "hello" },
///     &[NodeId(1), NodeId(2)], // NodeId(2) is asleep and misses it
/// );
/// let out = m.end_tx(SimTime::from_ticks(5_000), tx);
/// assert_eq!(out.delivered_to, vec![NodeId(1)]);
/// ```
#[derive(Debug)]
pub struct Medium<P> {
    listening: Vec<bool>,
    rx: Vec<Option<RxInProgress>>,
    active: HashMap<u64, ActiveTx<P>>,
    /// Audibility index: for each node, the `(id, start)` of every active
    /// transmission audible there. Maintained by `begin_tx`/`end_tx` so
    /// carrier sense and [`busy_since`](Self::busy_since) are O(audible
    /// transmissions at the node) — a handful — never O(all active
    /// transmissions in the population.
    audible_at: Vec<Vec<(u64, SimTime)>>,
    /// Retired audible lists, reused so `begin_tx` stops allocating once
    /// capacities settle (at most a handful of frames are ever in flight).
    spare_audible: Vec<Vec<NodeId>>,
    next_id: u64,
    counters: MediumCounters,
}

impl<P: Clone> Medium<P> {
    /// Creates a medium for `n` nodes, all initially not listening.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Medium {
            listening: vec![false; n],
            rx: vec![None; n],
            active: HashMap::new(),
            audible_at: vec![Vec::new(); n],
            spare_audible: Vec::new(),
            next_id: 0,
            counters: MediumCounters::default(),
        }
    }

    /// Transmissions currently in flight (begun but not yet ended).
    #[must_use]
    pub fn airborne(&self) -> usize {
        self.active.len()
    }

    /// Number of nodes the medium was built for.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.listening.len()
    }

    /// Medium-level counters.
    #[must_use]
    pub fn counters(&self) -> MediumCounters {
        self.counters
    }

    /// Marks a node as listening (awake, radio in receive path) or not.
    ///
    /// Turning listening off aborts any reception in progress at the node —
    /// the frame is simply lost there.
    pub fn set_listening(&mut self, node: NodeId, listening: bool) {
        self.listening[node.index()] = listening;
        if !listening {
            self.rx[node.index()] = None;
        }
    }

    /// Carrier sense: is any transmission audible at `node` right now?
    ///
    /// This reflects what the node's radio can physically detect, whether
    /// or not the node is listening.
    #[must_use]
    pub fn carrier_sensed(&self, node: NodeId) -> bool {
        !self.audible_at[node.index()].is_empty()
    }

    /// Whether the node is mid-reception of a frame (even a corrupted one).
    #[must_use]
    pub fn is_receiving(&self, node: NodeId) -> bool {
        self.rx[node.index()].is_some()
    }

    /// When the earliest still-active transmission audible at `node`
    /// started, if any. Lets MAC layers model a carrier-sense turnaround
    /// blind window: energy that appeared only moments ago is not yet
    /// detectable.
    #[must_use]
    pub fn busy_since(&self, node: NodeId) -> Option<SimTime> {
        self.audible_at[node.index()]
            .iter()
            .map(|&(_, start)| start)
            .min()
    }

    /// Starts transmitting `frame`; `audible` lists the nodes in range of
    /// the transmitter (excluding the transmitter itself).
    ///
    /// The transmitter must not be listening while transmitting
    /// (half-duplex); callers flip it with [`set_listening`].
    ///
    /// [`set_listening`]: Medium::set_listening
    ///
    /// # Panics
    ///
    /// Panics if the source node appears in its own audible set.
    pub fn begin_tx(&mut self, now: SimTime, frame: Frame<P>, audible: &[NodeId]) -> TxHandle {
        assert!(
            !audible.contains(&frame.src),
            "transmitter {} cannot hear itself",
            frame.src
        );
        let id = self.next_id;
        self.next_id += 1;
        for &r in audible {
            self.audible_at[r.index()].push((id, now));
            match self.rx[r.index()] {
                Some(ref mut rx_in_progress) => {
                    // Overlap: the ongoing reception and this new frame are
                    // both corrupted at r. The new frame never starts
                    // reception at r (rx slot stays with the first frame).
                    rx_in_progress.corrupted = true;
                }
                None => {
                    if self.listening[r.index()] {
                        self.rx[r.index()] = Some(RxInProgress {
                            tx: id,
                            corrupted: false,
                        });
                    }
                }
            }
        }
        let mut audible_list = self.spare_audible.pop().unwrap_or_default();
        audible_list.extend_from_slice(audible);
        self.active.insert(
            id,
            ActiveTx {
                frame,
                audible: audible_list,
                start: now,
            },
        );
        TxHandle(id)
    }

    /// Completes a transmission, returning who received the frame intact.
    ///
    /// # Panics
    ///
    /// Panics if the handle is unknown (double `end_tx`).
    pub fn end_tx(&mut self, now: SimTime, handle: TxHandle) -> TxOutcome<P> {
        let tx = self
            .active
            .remove(&handle.0)
            .expect("end_tx on unknown or already-ended transmission");
        debug_assert!(now >= tx.start, "transmission ends before it starts");
        let mut delivered_to = Vec::new();
        let mut collided_at = Vec::new();
        for &r in &tx.audible {
            let at = &mut self.audible_at[r.index()];
            let slot = at
                .iter()
                .position(|&(tx_id, _)| tx_id == handle.0)
                .expect("ended transmission indexed at its audible node");
            at.swap_remove(slot);
            if let Some(rx) = self.rx[r.index()] {
                if rx.tx == handle.0 {
                    self.rx[r.index()] = None;
                    if rx.corrupted {
                        collided_at.push(r);
                    } else if self.listening[r.index()] {
                        delivered_to.push(r);
                    }
                }
            }
        }
        self.counters.frames_sent += 1;
        self.counters.collisions += collided_at.len() as u64;
        let mut audible = tx.audible;
        audible.clear();
        self.spare_audible.push(audible);
        TxOutcome {
            frame: tx.frame,
            delivered_to,
            collided_at,
        }
    }

    /// Captures the complete medium state for checkpointing.
    ///
    /// In-flight transmissions are listed in id order so the snapshot is
    /// deterministic despite the internal hash map.
    #[must_use]
    pub fn snapshot_state(&self) -> MediumState<P> {
        let mut active: Vec<ActiveTxState<P>> = self
            .active
            .iter()
            .map(|(&id, tx)| ActiveTxState {
                id,
                frame: tx.frame.clone(),
                audible: tx.audible.clone(),
                start: tx.start,
            })
            .collect();
        active.sort_unstable_by_key(|tx| tx.id);
        MediumState {
            listening: self.listening.clone(),
            rx: self
                .rx
                .iter()
                .map(|slot| slot.map(|r| (r.tx, r.corrupted)))
                .collect(),
            active,
            next_id: self.next_id,
            counters: self.counters,
        }
    }

    /// Rebuilds a medium from a [`snapshot_state`](Self::snapshot_state)
    /// capture; the per-node audibility index is recomputed from the
    /// active transmissions' audible lists.
    ///
    /// # Panics
    ///
    /// Panics if the per-node vectors disagree in length or an audible
    /// node index is out of range.
    #[must_use]
    pub fn restore_state(state: MediumState<P>) -> Self {
        let n = state.listening.len();
        assert_eq!(state.rx.len(), n, "medium state length mismatch");
        let mut audible_at = vec![Vec::new(); n];
        let mut active = HashMap::with_capacity(state.active.len());
        for tx in state.active {
            for r in &tx.audible {
                audible_at[r.index()].push((tx.id, tx.start));
            }
            active.insert(
                tx.id,
                ActiveTx {
                    frame: tx.frame,
                    audible: tx.audible,
                    start: tx.start,
                },
            );
        }
        Medium {
            listening: state.listening,
            rx: state
                .rx
                .into_iter()
                .map(|slot| slot.map(|(tx, corrupted)| RxInProgress { tx, corrupted }))
                .collect(),
            active,
            audible_at,
            spare_audible: Vec::new(),
            next_id: state.next_id,
            counters: state.counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dftmsn_sim::time::SimDuration;

    fn frame(src: usize, payload: u32) -> Frame<u32> {
        Frame {
            src: NodeId(src),
            bits: 50,
            payload,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn clean_broadcast_reaches_all_listeners() {
        let mut m: Medium<u32> = Medium::new(4);
        for i in 1..4 {
            m.set_listening(NodeId(i), true);
        }
        let tx = m.begin_tx(t(0), frame(0, 7), &[NodeId(1), NodeId(2), NodeId(3)]);
        let out = m.end_tx(t(5), tx);
        assert_eq!(out.delivered_to, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(out.collided_at.is_empty());
        assert_eq!(out.frame.payload, 7);
    }

    #[test]
    fn sleeping_node_misses_frame() {
        let mut m: Medium<u32> = Medium::new(3);
        m.set_listening(NodeId(1), true);
        // NodeId(2) never listens.
        let tx = m.begin_tx(t(0), frame(0, 1), &[NodeId(1), NodeId(2)]);
        let out = m.end_tx(t(5), tx);
        assert_eq!(out.delivered_to, vec![NodeId(1)]);
    }

    #[test]
    fn overlapping_frames_collide_at_common_receiver() {
        let mut m: Medium<u32> = Medium::new(4);
        m.set_listening(NodeId(2), true);
        let a = m.begin_tx(t(0), frame(0, 10), &[NodeId(2)]);
        let b = m.begin_tx(t(1), frame(1, 11), &[NodeId(2)]);
        let out_a = m.end_tx(t(5), a);
        assert!(out_a.delivered_to.is_empty());
        assert_eq!(out_a.collided_at, vec![NodeId(2)]);
        let out_b = m.end_tx(t(6), b);
        // Frame b never began reception at node 2, so it is neither
        // delivered nor counted as a collision loss there.
        assert!(out_b.delivered_to.is_empty());
        assert!(out_b.collided_at.is_empty());
    }

    #[test]
    fn disjoint_receivers_do_not_interfere() {
        let mut m: Medium<u32> = Medium::new(4);
        m.set_listening(NodeId(2), true);
        m.set_listening(NodeId(3), true);
        let a = m.begin_tx(t(0), frame(0, 10), &[NodeId(2)]);
        let b = m.begin_tx(t(1), frame(1, 11), &[NodeId(3)]);
        assert_eq!(m.end_tx(t(5), a).delivered_to, vec![NodeId(2)]);
        assert_eq!(m.end_tx(t(6), b).delivered_to, vec![NodeId(3)]);
    }

    #[test]
    fn late_listener_cannot_join_mid_frame() {
        let mut m: Medium<u32> = Medium::new(2);
        let tx = m.begin_tx(t(0), frame(0, 1), &[NodeId(1)]);
        m.set_listening(NodeId(1), true); // wakes up after the frame started
        let out = m.end_tx(t(5), tx);
        assert!(out.delivered_to.is_empty());
    }

    #[test]
    fn listener_that_sleeps_mid_frame_loses_it() {
        let mut m: Medium<u32> = Medium::new(2);
        m.set_listening(NodeId(1), true);
        let tx = m.begin_tx(t(0), frame(0, 1), &[NodeId(1)]);
        m.set_listening(NodeId(1), false);
        let out = m.end_tx(t(5), tx);
        assert!(out.delivered_to.is_empty());
        assert!(out.collided_at.is_empty(), "an abort is not a collision");
    }

    #[test]
    fn busy_since_reports_earliest_audible_start() {
        let mut m: Medium<u32> = Medium::new(4);
        assert_eq!(m.busy_since(NodeId(1)), None);
        let a = m.begin_tx(t(3), frame(0, 1), &[NodeId(1)]);
        let b = m.begin_tx(t(5), frame(2, 2), &[NodeId(1), NodeId(3)]);
        assert_eq!(m.busy_since(NodeId(1)), Some(t(3)));
        assert_eq!(m.busy_since(NodeId(3)), Some(t(5)));
        m.end_tx(t(8), a);
        assert_eq!(m.busy_since(NodeId(1)), Some(t(5)));
        m.end_tx(t(10), b);
        assert_eq!(m.busy_since(NodeId(1)), None);
    }

    #[test]
    fn carrier_sense_tracks_audible_transmissions() {
        let mut m: Medium<u32> = Medium::new(3);
        assert!(!m.carrier_sensed(NodeId(1)));
        let tx = m.begin_tx(t(0), frame(0, 1), &[NodeId(1)]);
        assert!(m.carrier_sensed(NodeId(1)));
        assert!(!m.carrier_sensed(NodeId(2)), "out of range");
        m.end_tx(t(5), tx);
        assert!(!m.carrier_sensed(NodeId(1)));
    }

    #[test]
    fn counters_accumulate() {
        let mut m: Medium<u32> = Medium::new(3);
        m.set_listening(NodeId(1), true);
        m.set_listening(NodeId(2), true);
        let a = m.begin_tx(t(0), frame(0, 1), &[NodeId(1), NodeId(2)]);
        m.end_tx(t(5), a);
        let c = m.counters();
        assert_eq!(c.frames_sent, 1);
        assert_eq!(c.collisions, 0);
    }

    #[test]
    fn three_way_collision_corrupts_first_frame_once() {
        let mut m: Medium<u32> = Medium::new(4);
        m.set_listening(NodeId(3), true);
        let a = m.begin_tx(t(0), frame(0, 1), &[NodeId(3)]);
        let b = m.begin_tx(t(1), frame(1, 2), &[NodeId(3)]);
        let c = m.begin_tx(t(2), frame(2, 3), &[NodeId(3)]);
        assert_eq!(m.end_tx(t(5), a).collided_at, vec![NodeId(3)]);
        assert!(m.end_tx(t(6), b).collided_at.is_empty());
        assert!(m.end_tx(t(7), c).collided_at.is_empty());
        assert!(!m.is_receiving(NodeId(3)));
    }

    #[test]
    fn snapshot_restore_preserves_in_flight_frames() {
        let mut m: Medium<u32> = Medium::new(4);
        m.set_listening(NodeId(2), true);
        m.set_listening(NodeId(3), true);
        let done = m.begin_tx(t(0), frame(0, 9), &[NodeId(3)]);
        m.end_tx(t(2), done); // bump counters and next_id before snapshot
        let a = m.begin_tx(t(3), frame(0, 10), &[NodeId(2)]);
        let b = m.begin_tx(t(4), frame(1, 11), &[NodeId(2), NodeId(3)]);
        let mut restored = Medium::restore_state(m.snapshot_state());
        assert_eq!(restored.counters(), m.counters());
        assert_eq!(restored.busy_since(NodeId(2)), m.busy_since(NodeId(2)));
        assert!(restored.carrier_sensed(NodeId(3)));
        // Handles survive as raw ids; outcomes must match the original.
        let a2 = TxHandle::from_raw(a.raw());
        let b2 = TxHandle::from_raw(b.raw());
        assert_eq!(m.end_tx(t(8), a), restored.end_tx(t(8), a2));
        assert_eq!(m.end_tx(t(9), b), restored.end_tx(t(9), b2));
        assert_eq!(restored.counters(), m.counters());
        assert!(!restored.carrier_sensed(NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "cannot hear itself")]
    fn self_audibility_panics() {
        let mut m: Medium<u32> = Medium::new(2);
        m.begin_tx(t(0), frame(0, 1), &[NodeId(0)]);
    }

    #[test]
    #[should_panic(expected = "unknown or already-ended")]
    fn double_end_tx_panics() {
        let mut m: Medium<u32> = Medium::new(2);
        let tx = m.begin_tx(t(0), frame(0, 1), &[]);
        m.end_tx(t(1), tx);
        m.end_tx(t(2), tx);
    }
}
