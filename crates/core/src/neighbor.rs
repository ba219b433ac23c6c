//! Neighbor knowledge and receiver selection (paper Secs. 3.2.1–3.2.2).
//!
//! During the asynchronous phase a node overhears RTS/CTS packets and
//! builds a [`NeighborTable`] of delivery probabilities; the table feeds
//! the τ_max and contention-window optimizers. When a sender has collected
//! the CTS replies for a message, [`select_receivers`] runs the greedy
//! algorithm of Sec. 3.2.2: walk candidates by descending ξ, keep the
//! qualified ones, and stop as soon as the combined delivery probability
//! of the multicast reaches the threshold *R*.

use crate::ftd::Ftd;
use dftmsn_radio::ids::NodeId;
use dftmsn_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One row of the neighbor table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeighborEntry {
    /// The neighbor's advertised delivery probability.
    pub xi: f64,
    /// When the advertisement was overheard.
    pub last_seen: SimTime,
}

/// Per-node table of overheard neighbor delivery probabilities.
///
/// # Examples
///
/// ```
/// use dftmsn_core::neighbor::NeighborTable;
/// use dftmsn_radio::ids::NodeId;
/// use dftmsn_sim::time::{SimDuration, SimTime};
///
/// let mut t = NeighborTable::new();
/// t.observe(NodeId(2), 0.6, SimTime::from_secs(10));
/// let fresh = t.fresh_xis(SimTime::from_secs(20), SimDuration::from_secs(300));
/// assert_eq!(fresh, vec![0.6]);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborTable {
    entries: HashMap<NodeId, NeighborEntry>,
}

impl NeighborTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or refreshes) an overheard advertisement.
    ///
    /// # Panics
    ///
    /// Panics if `xi` is outside `[0, 1]`.
    pub fn observe(&mut self, id: NodeId, xi: f64, now: SimTime) {
        assert!(
            xi.is_finite() && (0.0..=1.0).contains(&xi),
            "ξ {xi} outside [0,1]"
        );
        self.entries
            .insert(id, NeighborEntry { xi, last_seen: now });
    }

    /// Number of entries, stale or not.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for `id`, if any.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<NeighborEntry> {
        self.entries.get(&id).copied()
    }

    /// The ξ values of entries observed within `ttl` of `now`, in
    /// deterministic (node-id) order.
    #[must_use]
    pub fn fresh_xis(&self, now: SimTime, ttl: SimDuration) -> Vec<f64> {
        let mut fresh = Vec::new();
        self.fresh_by_id(now, ttl, &mut fresh);
        fresh.into_iter().map(|(_, xi)| xi).collect()
    }

    /// The `(id, ξ)` of entries observed within `ttl` of `now`, written
    /// into `out` (cleared first) in node-id order.
    pub(crate) fn fresh_by_id(&self, now: SimTime, ttl: SimDuration, out: &mut Vec<(NodeId, f64)>) {
        out.clear();
        out.extend(
            self.entries
                .iter()
                .filter(|(_, e)| now.saturating_since(e.last_seen) <= ttl)
                .map(|(&id, e)| (id, e.xi)),
        );
        out.sort_unstable_by_key(|&(id, _)| id);
    }

    /// How many fresh neighbors advertise a ξ strictly above `own_xi` —
    /// the expected number of CTS repliers, input to the Eq. 14 window
    /// search.
    #[must_use]
    pub fn qualified_count(&self, own_xi: f64, now: SimTime, ttl: SimDuration) -> usize {
        self.entries
            .values()
            .filter(|e| now.saturating_since(e.last_seen) <= ttl && e.xi > own_xi)
            .count()
    }

    /// Drops entries older than `ttl`.
    pub fn prune(&mut self, now: SimTime, ttl: SimDuration) {
        self.entries
            .retain(|_, e| now.saturating_since(e.last_seen) <= ttl);
    }

    /// An empty table with room for `capacity` entries (checkpoint restore
    /// sizes it from the snapshot).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        NeighborTable {
            entries: HashMap::with_capacity(capacity),
        }
    }

    /// Writes every entry into `out` (cleared first) sorted by node id, for
    /// deterministic checkpointing into a reused buffer.
    pub fn sorted_entries_into(&self, out: &mut Vec<(NodeId, NeighborEntry)>) {
        out.clear();
        out.extend(self.entries.iter().map(|(&id, &e)| (id, e)));
        out.sort_unstable_by_key(|&(id, _)| id);
    }
}

/// A CTS replier: a qualified receiver candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The candidate node.
    pub id: NodeId,
    /// Its advertised delivery probability.
    pub xi: f64,
    /// Its advertised buffer space for the message's FTD class.
    pub buffer_space: usize,
}

/// The outcome of receiver selection: the chosen subset Φ with the FTD to
/// attach to each receiver's copy (Eq. 2).
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// Chosen receivers in transmission-schedule order (descending ξ) with
    /// their copy FTDs.
    pub receivers: Vec<(NodeId, Ftd)>,
    /// The ξ values of the chosen receivers, aligned with `receivers`.
    pub receiver_xis: Vec<f64>,
    /// Combined delivery probability `1 − (1 − F)·∏(1 − ξₘ)` achieved.
    pub combined_delivery: f64,
}

impl Selection {
    /// True when no receiver qualified.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.receivers.is_empty()
    }

    /// Empties the selection, keeping the vector capacity for reuse.
    pub fn clear(&mut self) {
        self.receivers.clear();
        self.receiver_xis.clear();
        self.combined_delivery = 0.0;
    }
}

/// Working memory for [`select_receivers_into`], reused across cycles so
/// steady-state selection performs no heap allocation.
#[derive(Debug, Default)]
pub struct SelectionScratch {
    /// Candidate indices in greedy (descending-ξ) walk order.
    order: Vec<u32>,
    /// ξ of Φ \ {j} while computing receiver j's copy FTD.
    others: Vec<f64>,
}

/// The greedy receiver-selection algorithm of Sec. 3.2.2.
///
/// Walks `candidates` by descending ξ, admits those with `ξ > sender_xi`
/// and positive buffer space, and stops once the combined delivery
/// probability of the multicast exceeds `threshold_r`. Copy FTDs follow
/// Eq. 2 over the final set Φ.
///
/// Candidate ids are expected to be distinct (each neighbor replies with
/// at most one CTS per exchange); duplicates would be treated as distinct
/// receivers.
///
/// # Panics
///
/// Panics if `sender_xi` or `threshold_r` is outside `[0, 1]`.
#[must_use]
pub fn select_receivers(
    sender_xi: f64,
    msg_ftd: Ftd,
    candidates: &[Candidate],
    threshold_r: f64,
) -> Selection {
    let mut scratch = SelectionScratch::default();
    let mut out = Selection::default();
    select_receivers_into(
        sender_xi,
        msg_ftd,
        candidates,
        threshold_r,
        &mut scratch,
        &mut out,
    );
    out
}

/// Allocation-free form of [`select_receivers`]: writes the chosen set into
/// `out` (cleared first), using `scratch` as working memory. The simulation
/// hot path calls this with pooled buffers so steady-state selection never
/// touches the heap.
///
/// # Panics
///
/// Panics if `sender_xi` or `threshold_r` is outside `[0, 1]`.
pub fn select_receivers_into(
    sender_xi: f64,
    msg_ftd: Ftd,
    candidates: &[Candidate],
    threshold_r: f64,
    scratch: &mut SelectionScratch,
    out: &mut Selection,
) {
    assert!(
        sender_xi.is_finite() && (0.0..=1.0).contains(&sender_xi),
        "sender ξ {sender_xi} outside [0,1]"
    );
    assert!(
        (0.0..=1.0).contains(&threshold_r),
        "threshold R {threshold_r} outside [0,1]"
    );
    out.clear();
    if candidates.is_empty() {
        // Degenerate input: nothing replied, so there is nothing to walk.
        // `out` stays empty with a combined delivery of exactly 0.
        return;
    }
    scratch.order.clear();
    scratch.order.extend(0..candidates.len() as u32);
    // Descending ξ; ties broken by id for determinism. total_cmp so a
    // NaN advertisement (a bug upstream) sorts deterministically instead
    // of panicking mid-selection.
    scratch.order.sort_by(|&a, &b| {
        let (a, b) = (&candidates[a as usize], &candidates[b as usize]);
        b.xi.total_cmp(&a.xi).then_with(|| a.id.cmp(&b.id))
    });

    // Greedy admission; the copy FTDs are placeholders until Φ is final.
    for &ci in &scratch.order {
        let c = &candidates[ci as usize];
        if c.xi.is_finite() && c.xi > sender_xi && c.buffer_space > 0 {
            out.receivers.push((c.id, Ftd::NEW));
            out.receiver_xis.push(c.xi);
        }
        if msg_ftd.combined_delivery(&out.receiver_xis) > threshold_r {
            break;
        }
    }
    if out.receivers.is_empty() {
        // No candidate qualified: report an empty selection with combined
        // delivery 0 rather than the message's own FTD.
        return;
    }

    // Eq. 2 over the final set Φ.
    for j in 0..out.receivers.len() {
        scratch.others.clear();
        scratch.others.extend_from_slice(&out.receiver_xis[..j]);
        scratch.others.extend_from_slice(&out.receiver_xis[j + 1..]);
        out.receivers[j].1 = msg_ftd.receiver_copy(sender_xi, &scratch.others);
    }
    out.combined_delivery = msg_ftd.combined_delivery(&out.receiver_xis);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: usize, xi: f64, space: usize) -> Candidate {
        Candidate {
            id: NodeId(id),
            xi,
            buffer_space: space,
        }
    }

    #[test]
    fn table_observe_and_refresh() {
        let mut t = NeighborTable::new();
        t.observe(NodeId(1), 0.3, SimTime::from_secs(1));
        t.observe(NodeId(1), 0.5, SimTime::from_secs(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(NodeId(1)).unwrap().xi, 0.5);
    }

    #[test]
    fn stale_entries_are_filtered_and_pruned() {
        let mut t = NeighborTable::new();
        t.observe(NodeId(1), 0.3, SimTime::from_secs(0));
        t.observe(NodeId(2), 0.7, SimTime::from_secs(100));
        let now = SimTime::from_secs(150);
        let ttl = SimDuration::from_secs(100);
        assert_eq!(t.fresh_xis(now, ttl), vec![0.7]);
        assert_eq!(t.qualified_count(0.5, now, ttl), 1);
        assert_eq!(t.qualified_count(0.8, now, ttl), 0);
        t.prune(now, ttl);
        assert_eq!(t.len(), 1);
        assert!(t.get(NodeId(1)).is_none());
    }

    #[test]
    fn fresh_xis_order_is_deterministic() {
        let mut t = NeighborTable::new();
        t.observe(NodeId(9), 0.9, SimTime::ZERO);
        t.observe(NodeId(1), 0.1, SimTime::ZERO);
        t.observe(NodeId(5), 0.5, SimTime::ZERO);
        assert_eq!(
            t.fresh_xis(SimTime::ZERO, SimDuration::from_secs(1)),
            vec![0.1, 0.5, 0.9]
        );
    }

    #[test]
    fn selection_prefers_high_xi_and_stops_at_threshold() {
        let candidates = [
            cand(1, 0.9, 5),
            cand(2, 0.8, 5),
            cand(3, 0.7, 5),
            cand(4, 0.6, 5),
        ];
        // Fresh message, R = 0.95: 0.9 → 0.9; +0.8 → 0.98 > R, stop.
        let sel = select_receivers(0.1, Ftd::NEW, &candidates, 0.95);
        let ids: Vec<NodeId> = sel.receivers.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(1), NodeId(2)]);
        assert!(sel.combined_delivery > 0.95);
    }

    #[test]
    fn unqualified_candidates_are_skipped() {
        let candidates = [
            cand(1, 0.9, 0),  // no buffer space
            cand(2, 0.05, 5), // ξ below sender
            cand(3, 0.5, 5),
        ];
        let sel = select_receivers(0.2, Ftd::NEW, &candidates, 0.95);
        let ids: Vec<NodeId> = sel.receivers.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(3)]);
    }

    #[test]
    fn empty_or_hopeless_candidates_give_empty_selection() {
        let sel = select_receivers(0.5, Ftd::NEW, &[], 0.95);
        assert!(sel.is_empty());
        assert_eq!(sel.combined_delivery, 0.0);

        let sel = select_receivers(0.9, Ftd::NEW, &[cand(1, 0.5, 5)], 0.95);
        assert!(sel.is_empty(), "candidate below sender ξ");
    }

    #[test]
    fn high_ftd_message_needs_fewer_receivers() {
        let candidates = [cand(1, 0.9, 5), cand(2, 0.8, 5), cand(3, 0.7, 5)];
        let fresh = select_receivers(0.1, Ftd::NEW, &candidates, 0.95);
        let redundant = select_receivers(0.1, Ftd::new(0.9), &candidates, 0.95);
        assert!(redundant.receivers.len() <= fresh.receivers.len());
        assert_eq!(redundant.receivers.len(), 1, "0.9 + one 0.9-ξ hop > 0.95");
    }

    #[test]
    fn copy_ftds_follow_eq2() {
        let candidates = [cand(1, 0.5, 5), cand(2, 0.25, 5)];
        // Sender ξ = 0.1, fresh message, R high enough to take both.
        let sel = select_receivers(0.1, Ftd::NEW, &candidates, 0.99);
        assert_eq!(sel.receivers.len(), 2);
        // Receiver 1 (ξ=0.5): others = sender(0.1) + receiver2(0.25):
        // F = 1 − 0.9·0.75 = 0.325
        let (id1, f1) = sel.receivers[0];
        assert_eq!(id1, NodeId(1));
        assert!((f1.value() - 0.325).abs() < 1e-12);
        // Receiver 2 (ξ=0.25): others = sender(0.1) + receiver1(0.5):
        // F = 1 − 0.9·0.5 = 0.55
        let (id2, f2) = sel.receivers[1];
        assert_eq!(id2, NodeId(2));
        assert!((f2.value() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn a_sink_candidate_short_circuits_selection() {
        let candidates = [cand(1, 1.0, usize::MAX), cand(2, 0.8, 5)];
        let sel = select_receivers(0.3, Ftd::NEW, &candidates, 0.95);
        assert_eq!(sel.receivers.len(), 1);
        assert_eq!(sel.receivers[0].0, NodeId(1));
        assert_eq!(sel.combined_delivery, 1.0);
    }

    #[test]
    fn empty_selection_reports_zero_combined_even_for_redundant_messages() {
        // A hopeless candidate set yields an empty Φ whose combined
        // delivery is 0 — a non-event, not the message's own FTD.
        let sel = select_receivers(0.9, Ftd::new(0.8), &[cand(1, 0.5, 5)], 0.95);
        assert!(sel.is_empty());
        assert_eq!(sel.combined_delivery, 0.0);
        let sel = select_receivers(0.5, Ftd::new(0.8), &[], 0.95);
        assert!(sel.is_empty());
        assert_eq!(sel.combined_delivery, 0.0);
    }

    #[test]
    fn non_finite_candidate_xi_is_skipped_not_fatal() {
        let candidates = [cand(1, f64::NAN, 5), cand(2, 0.6, 5)];
        let sel = select_receivers(0.1, Ftd::NEW, &candidates, 0.95);
        let ids: Vec<NodeId> = sel.receivers.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(2)], "NaN replier must be ignored");
    }

    #[test]
    fn boundary_receiver_xis_select_cleanly() {
        // ξ exactly 1.0 saturates immediately; ξ exactly 0.0 never
        // qualifies against a 0-ξ sender (strict inequality).
        let sel = select_receivers(0.0, Ftd::NEW, &[cand(1, 1.0, 1)], 0.95);
        assert_eq!(sel.receivers.len(), 1);
        assert_eq!(sel.combined_delivery, 1.0);
        let sel = select_receivers(0.0, Ftd::NEW, &[cand(1, 0.0, 1)], 0.95);
        assert!(sel.is_empty());
    }

    #[test]
    fn selection_is_deterministic_under_xi_ties() {
        let candidates = [cand(7, 0.5, 5), cand(3, 0.5, 5)];
        let sel = select_receivers(0.1, Ftd::NEW, &candidates, 0.999);
        let ids: Vec<NodeId> = sel.receivers.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(3), NodeId(7)], "ties break by id");
    }
}
