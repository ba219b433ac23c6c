//! The forwarding-policy seam: every protocol decision point behind one
//! trait (DESIGN.md § 9).
//!
//! The paper's OPT/NOOPT/NOSLEEP/ZBR comparison is really a comparison of
//! *policies* — who qualifies as a receiver, which CTS repliers get a
//! copy, what happens to the sender's retained copy, how the routing
//! metric updates, and whether the MAC adapts its windows and sleeping.
//! [`ForwardingPolicy`] names those decision points explicitly; the
//! simulation engine calls them and nothing else.
//!
//! Three implementations ship:
//!
//! * [`Builtin`] — the six [`ProtocolKind`](crate::variants::ProtocolKind)
//!   variants, expressed through
//!   the trait **bit-identically** to the pre-seam engine (the golden
//!   determinism baselines enforce this);
//! * [`TwoHopRelay`] — Altman et al.'s optimal-control two-hop relay:
//!   the source spreads up to `budget` copies to relays, relays hand
//!   their copy to sinks only;
//! * [`MeetingRate`] — Shaghaghian & Coates-style forwarding on a
//!   per-node sink inter-contact-rate estimator.
//!
//! Dispatch is static: the sealed [`Policy`] enum-of-impls costs one
//! predictable branch per decision, which the `scale_check` CI gate
//! verifies stays inside the ns/event budget. Checkpoints carry the
//! policy as a frame of `dftmsn-ckpt/2` (see `world_ckpt.rs`).

use crate::delivery::DeliveryProb;
use crate::ftd::Ftd;
use crate::message::{Message, MessageId};
use crate::neighbor::{select_receivers_into, Candidate, Selection, SelectionScratch};
use crate::queue::FtdQueue;
use crate::variants::{MetricKind, SelectionKind, VariantConfig};
use dftmsn_radio::ids::NodeId;
use dftmsn_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Builtin {}
    impl Sealed for super::TwoHopRelay {}
    impl Sealed for super::MeetingRate {}
    impl Sealed for super::Policy {}
}

/// The MAC-adaptation knobs a policy exposes (cached by the engine so the
/// per-event hot paths read plain bools, not a policy dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacControls {
    /// Whether the node ever turns its radio off.
    pub sleeps: bool,
    /// Eq. 6 adaptive sleeping vs. a fixed period.
    pub adaptive_sleep: bool,
    /// Eq. 13 adaptive τ_max vs. a fixed value.
    pub adaptive_tau: bool,
    /// Eq. 14 adaptive contention window vs. a fixed value.
    pub adaptive_window: bool,
}

impl MacControls {
    /// OPT-like controls: everything adaptive, sleeping on. The default
    /// for policies that replace routing but keep the optimized MAC.
    pub const OPT: MacControls = MacControls {
        sleeps: true,
        adaptive_sleep: true,
        adaptive_tau: true,
        adaptive_window: true,
    };
}

impl From<VariantConfig> for MacControls {
    fn from(c: VariantConfig) -> Self {
        MacControls {
            sleeps: c.sleeps,
            adaptive_sleep: c.adaptive_sleep,
            adaptive_tau: c.adaptive_tau,
            adaptive_window: c.adaptive_window,
        }
    }
}

/// What a prospective receiver knows about itself when an RTS arrives.
#[derive(Debug)]
pub struct RxView<'a> {
    /// The receiver's current routing metric (ξ).
    pub xi: f64,
    /// The receiver's data queue.
    pub queue: &'a FtdQueue,
}

/// The advertisement carried by an RTS frame.
#[derive(Debug, Clone, Copy)]
pub struct RtsInfo {
    /// The advertising sender.
    pub sender: NodeId,
    /// The sender's advertised metric.
    pub xi: f64,
    /// The sender's advertised per-message figure — the message FTD for
    /// the builtin variants; policies may repurpose it (TwoHopRelay
    /// advertises its remaining copy budget here).
    pub ftd: f64,
    /// The message on offer.
    pub msg: MessageId,
}

/// Sender-side context for receiver selection.
#[derive(Debug, Clone, Copy)]
pub struct SelectCtx {
    /// The selecting sender.
    pub sender: NodeId,
    /// The sender's current routing metric.
    pub sender_metric: f64,
    /// The message being offered (FTD, origin and id included).
    pub msg: Message,
    /// The paper's combined-delivery threshold *R*.
    pub threshold_r: f64,
}

/// The acknowledged receiver set of a completed multicast.
#[derive(Debug, Clone, Copy)]
pub struct Confirmed<'a> {
    /// ξ of every receiver that ACKed, in schedule order.
    pub xis: &'a [f64],
    /// Whether any confirmed receiver is a sink.
    pub any_sink: bool,
}

/// What happens to the sender's retained copy after a confirmed
/// multicast. The engine applies the fate; the policy only decides it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CopyFate {
    /// A sink holds the message now: remove the retained copy.
    Delivered,
    /// The copy moved to another carrier: remove it (no drop counted).
    Moved,
    /// Keep the retained copy unchanged.
    Retain,
    /// Keep the copy but re-rank it at the given FTD (Eq. 3).
    Demote(Ftd),
    /// Purge the copy as sufficiently replicated (counted as an FTD
    /// drop and traced as [`crate::trace::DropReason::FtdThreshold`]).
    Drop,
}

/// A forwarding policy: the protocol's decision points as one interface.
///
/// Sealed — the engine dispatches statically over [`Policy`], and the
/// checkpoint codec must know every implementation. To add a policy, add
/// a variant to [`Policy`] (see DESIGN.md § 9 for the checklist).
pub trait ForwardingPolicy: sealed::Sealed {
    /// The run label reported by [`crate::report::SimReport::protocol`].
    fn label(&self) -> &'static str;

    /// The MAC-adaptation knobs (cached by the engine at attach time).
    fn mac(&self) -> MacControls;

    /// Sizes per-node state; called once when the policy is attached to
    /// a world of `nodes` nodes (and after checkpoint restore).
    fn init(&mut self, nodes: usize);

    /// Does a *non-sink* receiver qualify for the advertised RTS? Sinks
    /// always qualify; the engine short-circuits them before this call.
    fn qualifies(&self, rx: &RxView<'_>, rts: &RtsInfo) -> bool;

    /// Picks receivers from the CTS repliers, writing into `out`
    /// (cleared first). `scratch` is pooled working memory.
    fn select(
        &self,
        ctx: &SelectCtx,
        candidates: &[Candidate],
        scratch: &mut SelectionScratch,
        out: &mut Selection,
    );

    /// The `(ξ, ftd)` pair to advertise in the RTS for `msg`.
    fn advertise(&self, sender: NodeId, metric: f64, msg: &Message) -> (f64, f64);

    /// A multicast of `msg` was confirmed by `confirmed`. Updates the
    /// sender's routing metric in place and decides the retained copy's
    /// fate. `alpha` and `ftd_drop_threshold` come from the protocol
    /// constants.
    fn on_multicast(
        &mut self,
        sender: NodeId,
        msg: &Message,
        confirmed: &Confirmed<'_>,
        alpha: f64,
        ftd_drop_threshold: f64,
        metric: &mut DeliveryProb,
    ) -> CopyFate;

    /// A frame from `src` was heard by (alive, non-sink) node `rx`.
    /// Returns `Some(new_metric)` when the policy's estimator moves the
    /// node's routing metric. Must not draw randomness.
    fn on_frame_from(
        &mut self,
        rx: NodeId,
        src: NodeId,
        src_is_sink: bool,
        now: SimTime,
    ) -> Option<f64>;

    /// Node `at`'s queued copy of `msg` was discarded outside the
    /// multicast path (buffer eviction, crash purge); policies holding
    /// per-message bookkeeping reclaim it here.
    fn on_copy_discarded(&mut self, at: NodeId, msg: &Message);
}

// ---------------------------------------------------------------------
// Builtin: the six paper variants through the seam
// ---------------------------------------------------------------------

/// The six [`crate::variants::ProtocolKind`] variants expressed through
/// the policy trait. Each decision point reproduces the pre-seam engine
/// literally, so every golden determinism baseline holds bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Builtin {
    config: VariantConfig,
}

impl Builtin {
    /// Wraps a variant configuration.
    #[must_use]
    pub fn new(config: VariantConfig) -> Self {
        Builtin { config }
    }

    /// The wrapped configuration.
    #[must_use]
    pub fn config(&self) -> VariantConfig {
        self.config
    }
}

impl ForwardingPolicy for Builtin {
    fn label(&self) -> &'static str {
        self.config.kind.label()
    }

    fn mac(&self) -> MacControls {
        MacControls::from(self.config)
    }

    fn init(&mut self, _nodes: usize) {}

    #[inline]
    fn qualifies(&self, rx: &RxView<'_>, rts: &RtsInfo) -> bool {
        match self.config.selection {
            SelectionKind::FtdThreshold => {
                rx.xi > rts.xi
                    && rx.queue.available_space_for(Ftd::new(rts.ftd)) > 0
                    && !rx.queue.contains(rts.msg)
            }
            SelectionKind::SingleBest => {
                rx.xi > rts.xi && !rx.queue.is_full() && !rx.queue.contains(rts.msg)
            }
            SelectionKind::SinkOnly => false,
            SelectionKind::AllResponders => !rx.queue.is_full() && !rx.queue.contains(rts.msg),
        }
    }

    fn select(
        &self,
        ctx: &SelectCtx,
        candidates: &[Candidate],
        scratch: &mut SelectionScratch,
        out: &mut Selection,
    ) {
        out.clear();
        match self.config.selection {
            SelectionKind::FtdThreshold => select_receivers_into(
                ctx.sender_metric,
                ctx.msg.ftd,
                candidates,
                ctx.threshold_r,
                scratch,
                out,
            ),
            SelectionKind::SingleBest | SelectionKind::SinkOnly => {
                // total_cmp instead of partial_cmp().expect: a NaN metric
                // is a bug upstream, but selection must not panic on it.
                let best = candidates
                    .iter()
                    .filter(|c| c.buffer_space > 0 && c.xi.is_finite())
                    .max_by(|a, b| a.xi.total_cmp(&b.xi).then_with(|| b.id.cmp(&a.id)));
                if let Some(c) = best {
                    out.receivers
                        .push((c.id, ctx.msg.ftd.receiver_copy(ctx.sender_metric, &[])));
                    out.receiver_xis.push(c.xi);
                    out.combined_delivery = ctx.msg.ftd.combined_delivery(&out.receiver_xis);
                }
            }
            SelectionKind::AllResponders => {
                for c in candidates.iter().filter(|c| c.buffer_space > 0) {
                    out.receivers.push((c.id, Ftd::NEW));
                    out.receiver_xis.push(c.xi);
                }
                out.combined_delivery = ctx.msg.ftd.combined_delivery(&out.receiver_xis);
            }
        }
    }

    #[inline]
    fn advertise(&self, _sender: NodeId, metric: f64, msg: &Message) -> (f64, f64) {
        (metric, msg.ftd.value())
    }

    fn on_multicast(
        &mut self,
        _sender: NodeId,
        msg: &Message,
        confirmed: &Confirmed<'_>,
        alpha: f64,
        ftd_drop_threshold: f64,
        metric: &mut DeliveryProb,
    ) -> CopyFate {
        // Eq. 1 (or the ZBR history rule) on a successful transmission.
        match self.config.metric {
            MetricKind::DeliveryProb => {
                let best = confirmed.xis.iter().copied().fold(0.0f64, f64::max);
                metric.on_transmission(DeliveryProb::new(best.clamp(0.0, 1.0)), alpha);
            }
            MetricKind::SinkHistory => {
                if confirmed.any_sink {
                    metric.on_transmission(DeliveryProb::SINK, alpha);
                }
            }
        }
        match self.config.selection {
            SelectionKind::FtdThreshold => {
                if confirmed.any_sink {
                    // Highest possible FTD: drop immediately (delivered).
                    CopyFate::Delivered
                } else {
                    let new_ftd = msg.ftd.after_multicast(confirmed.xis);
                    if new_ftd.value() > ftd_drop_threshold {
                        CopyFate::Drop
                    } else {
                        CopyFate::Demote(new_ftd)
                    }
                }
            }
            // Single-copy transfer: the message moved.
            SelectionKind::SingleBest | SelectionKind::SinkOnly => CopyFate::Moved,
            SelectionKind::AllResponders => {
                if confirmed.any_sink {
                    CopyFate::Delivered
                } else {
                    CopyFate::Retain
                }
            }
        }
    }

    #[inline]
    fn on_frame_from(
        &mut self,
        _rx: NodeId,
        _src: NodeId,
        _src_is_sink: bool,
        _now: SimTime,
    ) -> Option<f64> {
        None
    }

    fn on_copy_discarded(&mut self, _at: NodeId, _msg: &Message) {}
}

// ---------------------------------------------------------------------
// TwoHopRelay
// ---------------------------------------------------------------------

/// Altman et al.'s two-hop relay with an optimal-control copy budget.
///
/// The *source* of a message spreads at most `budget` copies to relays it
/// meets; a *relay* holds its copy until it meets a sink and never
/// re-replicates. The remaining budget rides the RTS `ftd` field (relays
/// advertise 0, so only sinks qualify for their offers), which keeps the
/// two-phase MAC untouched. The MAC runs with the full Sec. 4
/// optimizations ([`MacControls::OPT`]) and the Eq. 1 ξ update, so
/// energy figures compare fairly against OPT.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoHopRelay {
    budget: u32,
    /// Copies spawned so far per *origin-held* message; entries die with
    /// the retained copy (delivery, eviction, crash).
    copies: BTreeMap<MessageId, u32>,
}

impl TwoHopRelay {
    /// Default copy budget *L*.
    pub const DEFAULT_BUDGET: u32 = 4;

    /// A two-hop relay policy with copy budget `budget` (clamped to ≥ 1).
    #[must_use]
    pub fn new(budget: u32) -> Self {
        TwoHopRelay {
            budget: budget.max(1),
            copies: BTreeMap::new(),
        }
    }

    /// The configured copy budget.
    #[must_use]
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Copies already spawned for `msg` at its origin.
    #[must_use]
    pub fn copies_spawned(&self, msg: MessageId) -> u32 {
        self.copies.get(&msg).copied().unwrap_or(0)
    }

    fn remaining(&self, msg: MessageId) -> u32 {
        self.budget.saturating_sub(self.copies_spawned(msg))
    }

    /// Internal: restores the spawn ledger from a checkpoint.
    pub(crate) fn restore_copies(&mut self, entries: impl IntoIterator<Item = (MessageId, u32)>) {
        self.copies = entries.into_iter().collect();
    }

    /// Internal: the spawn ledger in deterministic order, for the
    /// checkpoint codec.
    pub(crate) fn copies(&self) -> impl ExactSizeIterator<Item = (MessageId, u32)> + '_ {
        self.copies.iter().map(|(&m, &c)| (m, c))
    }
}

impl ForwardingPolicy for TwoHopRelay {
    fn label(&self) -> &'static str {
        "TWOHOP"
    }

    fn mac(&self) -> MacControls {
        MacControls::OPT
    }

    fn init(&mut self, _nodes: usize) {}

    #[inline]
    fn qualifies(&self, rx: &RxView<'_>, rts: &RtsInfo) -> bool {
        // The `ftd` field carries the sender's remaining copy budget:
        // relays advertise 0, so only sinks (pre-qualified) answer them.
        rts.ftd >= 1.0 && !rx.queue.is_full() && !rx.queue.contains(rts.msg)
    }

    fn select(
        &self,
        ctx: &SelectCtx,
        candidates: &[Candidate],
        scratch: &mut SelectionScratch,
        out: &mut Selection,
    ) {
        out.clear();
        let _ = scratch;
        // Sinks (ξ = 1) always take a copy — that is a delivery. The
        // walk is by descending ξ with id tie-breaks, like Sec. 3.2.2.
        let mut order: Vec<&Candidate> = candidates
            .iter()
            .filter(|c| c.buffer_space > 0 && c.xi.is_finite())
            .collect();
        order.sort_by(|a, b| b.xi.total_cmp(&a.xi).then_with(|| a.id.cmp(&b.id)));
        let is_origin = ctx.msg.origin == ctx.sender;
        let mut relays_left = if is_origin {
            self.remaining(ctx.msg.id) as usize
        } else {
            0
        };
        for c in order {
            let is_sink = c.xi >= 1.0;
            if !is_sink {
                if relays_left == 0 {
                    continue;
                }
                relays_left -= 1;
            }
            out.receivers.push((c.id, Ftd::NEW));
            out.receiver_xis.push(c.xi);
        }
        out.combined_delivery = ctx.msg.ftd.combined_delivery(&out.receiver_xis);
    }

    #[inline]
    fn advertise(&self, sender: NodeId, metric: f64, msg: &Message) -> (f64, f64) {
        let remaining = if msg.origin == sender {
            f64::from(self.remaining(msg.id))
        } else {
            0.0
        };
        (metric, remaining)
    }

    fn on_multicast(
        &mut self,
        sender: NodeId,
        msg: &Message,
        confirmed: &Confirmed<'_>,
        alpha: f64,
        _ftd_drop_threshold: f64,
        metric: &mut DeliveryProb,
    ) -> CopyFate {
        // Keep the Eq. 1 ξ update so the adaptive MAC stays calibrated.
        let best = confirmed.xis.iter().copied().fold(0.0f64, f64::max);
        metric.on_transmission(DeliveryProb::new(best.clamp(0.0, 1.0)), alpha);
        if confirmed.any_sink {
            self.copies.remove(&msg.id);
            return CopyFate::Delivered;
        }
        if msg.origin == sender {
            let spawned = confirmed.xis.len() as u32;
            *self.copies.entry(msg.id).or_insert(0) += spawned;
            CopyFate::Retain
        } else {
            // Unreachable by construction (relays only offer to sinks),
            // but a safe fallback: treat it as a single-copy move.
            CopyFate::Moved
        }
    }

    #[inline]
    fn on_frame_from(
        &mut self,
        _rx: NodeId,
        _src: NodeId,
        _src_is_sink: bool,
        _now: SimTime,
    ) -> Option<f64> {
        None
    }

    fn on_copy_discarded(&mut self, at: NodeId, msg: &Message) {
        if msg.origin == at {
            self.copies.remove(&msg.id);
        }
    }
}

// ---------------------------------------------------------------------
// MeetingRate
// ---------------------------------------------------------------------

/// Per-node sink-contact bookkeeping for [`MeetingRate`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct MeetState {
    /// Last instant any sink frame was heard (`None` before the first).
    pub(crate) last_heard: Option<SimTime>,
    /// Start of the most recent debounced contact event.
    pub(crate) contact_at: SimTime,
    /// EWMA of inter-contact gaps, seconds.
    pub(crate) ewma_gap_secs: f64,
    /// Debounced contact events seen so far.
    pub(crate) contacts: u64,
}

/// Meeting-rate-estimation forwarding (after Shaghaghian & Coates).
///
/// Every node estimates its sink inter-contact gap from overheard sink
/// frames (debounced, EWMA-smoothed) and derives a delivery-probability
/// metric `ξ = 1 − exp(−horizon / ĝ)` — the chance of meeting a sink
/// within the delivery horizon under exponential inter-contact times.
/// Forwarding is single-copy to the strictly-better-ξ neighbour, like
/// ZBR, but the metric is measured rather than diffusion-learned. The
/// Δ-timeout decay of Eq. 1 still applies between contacts.
#[derive(Debug, Clone, PartialEq)]
pub struct MeetingRate {
    horizon_secs: f64,
    debounce_secs: f64,
    beta: f64,
    states: Vec<MeetState>,
}

impl MeetingRate {
    /// Default delivery horizon (seconds).
    pub const DEFAULT_HORIZON_SECS: f64 = 600.0;
    /// Default contact debounce window (seconds).
    pub const DEFAULT_DEBOUNCE_SECS: f64 = 5.0;
    /// Default EWMA gain for the gap estimator.
    pub const DEFAULT_BETA: f64 = 0.3;

    /// A meeting-rate policy with the given estimator constants; NaN or
    /// non-positive inputs fall back to the defaults.
    #[must_use]
    pub fn new(horizon_secs: f64, debounce_secs: f64, beta: f64) -> Self {
        let ok = |v: f64, d: f64| if v.is_finite() && v > 0.0 { v } else { d };
        MeetingRate {
            horizon_secs: ok(horizon_secs, Self::DEFAULT_HORIZON_SECS),
            debounce_secs: ok(debounce_secs, Self::DEFAULT_DEBOUNCE_SECS),
            beta: ok(beta, Self::DEFAULT_BETA).min(1.0),
            states: Vec::new(),
        }
    }

    /// The delivery horizon (seconds).
    #[must_use]
    pub fn horizon_secs(&self) -> f64 {
        self.horizon_secs
    }

    /// The contact debounce window (seconds).
    #[must_use]
    pub fn debounce_secs(&self) -> f64 {
        self.debounce_secs
    }

    /// The estimator's EWMA gain.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    pub(crate) fn states(&self) -> &[MeetState] {
        &self.states
    }

    pub(crate) fn restore_states(&mut self, states: Vec<MeetState>) {
        self.states = states;
    }
}

impl Default for MeetingRate {
    fn default() -> Self {
        Self::new(
            Self::DEFAULT_HORIZON_SECS,
            Self::DEFAULT_DEBOUNCE_SECS,
            Self::DEFAULT_BETA,
        )
    }
}

impl ForwardingPolicy for MeetingRate {
    fn label(&self) -> &'static str {
        "MEETRATE"
    }

    fn mac(&self) -> MacControls {
        MacControls::OPT
    }

    fn init(&mut self, nodes: usize) {
        self.states = vec![MeetState::default(); nodes];
    }

    #[inline]
    fn qualifies(&self, rx: &RxView<'_>, rts: &RtsInfo) -> bool {
        rx.xi > rts.xi && !rx.queue.is_full() && !rx.queue.contains(rts.msg)
    }

    fn select(
        &self,
        ctx: &SelectCtx,
        candidates: &[Candidate],
        _scratch: &mut SelectionScratch,
        out: &mut Selection,
    ) {
        out.clear();
        // Single-copy move to the best estimated sink-meeting rate.
        let best = candidates
            .iter()
            .filter(|c| c.buffer_space > 0 && c.xi.is_finite())
            .max_by(|a, b| a.xi.total_cmp(&b.xi).then_with(|| b.id.cmp(&a.id)));
        if let Some(c) = best {
            out.receivers
                .push((c.id, ctx.msg.ftd.receiver_copy(ctx.sender_metric, &[])));
            out.receiver_xis.push(c.xi);
            out.combined_delivery = ctx.msg.ftd.combined_delivery(&out.receiver_xis);
        }
    }

    #[inline]
    fn advertise(&self, _sender: NodeId, metric: f64, msg: &Message) -> (f64, f64) {
        (metric, msg.ftd.value())
    }

    fn on_multicast(
        &mut self,
        _sender: NodeId,
        _msg: &Message,
        confirmed: &Confirmed<'_>,
        _alpha: f64,
        _ftd_drop_threshold: f64,
        _metric: &mut DeliveryProb,
    ) -> CopyFate {
        // The metric is estimator-driven; transmissions do not move it.
        if confirmed.any_sink {
            CopyFate::Delivered
        } else {
            CopyFate::Moved
        }
    }

    fn on_frame_from(
        &mut self,
        rx: NodeId,
        _src: NodeId,
        src_is_sink: bool,
        now: SimTime,
    ) -> Option<f64> {
        if !src_is_sink {
            return None;
        }
        let debounce = self.debounce_secs;
        let state = &mut self.states[rx.index()];
        if let Some(t) = state.last_heard {
            if now.saturating_since(t).as_secs_f64() <= debounce {
                // Same contact event, still in radio range: extend it.
                state.last_heard = Some(now);
                return None;
            }
        }
        // A new debounced contact event begins.
        state.last_heard = Some(now);
        if state.contacts == 0 {
            state.contact_at = now;
            state.contacts = 1;
            return None;
        }
        let gap = now
            .saturating_since(state.contact_at)
            .as_secs_f64()
            .max(1e-6);
        state.ewma_gap_secs = if state.contacts == 1 {
            gap
        } else {
            (1.0 - self.beta) * state.ewma_gap_secs + self.beta * gap
        };
        state.contact_at = now;
        state.contacts += 1;
        let xi = 1.0 - (-self.horizon_secs / state.ewma_gap_secs.max(1e-6)).exp();
        Some(xi.clamp(0.0, 1.0))
    }

    fn on_copy_discarded(&mut self, _at: NodeId, _msg: &Message) {}
}

// ---------------------------------------------------------------------
// The sealed enum-of-impls and its serializable descriptor
// ---------------------------------------------------------------------

/// The engine's policy slot: a sealed enum over every implementation, so
/// dispatch is a single predictable branch (no vtable on the hot path).
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// A builtin paper variant.
    Builtin(Builtin),
    /// Two-hop relay with a copy budget.
    TwoHop(TwoHopRelay),
    /// Meeting-rate-estimation forwarding.
    MeetingRate(MeetingRate),
}

impl Policy {
    /// The builtin policy for a variant configuration.
    #[must_use]
    pub fn builtin(config: VariantConfig) -> Policy {
        Policy::Builtin(Builtin::new(config))
    }

    /// The serializable descriptor reproducing this policy's parameters
    /// (not its runtime state — checkpoints carry that separately).
    #[must_use]
    pub fn spec(&self) -> PolicySpec {
        match self {
            Policy::Builtin(_) => PolicySpec::Builtin,
            Policy::TwoHop(p) => PolicySpec::TwoHop { budget: p.budget() },
            Policy::MeetingRate(p) => PolicySpec::MeetingRate {
                horizon_secs: p.horizon_secs(),
                debounce_secs: p.debounce_secs(),
                beta: p.beta(),
            },
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            Policy::Builtin($p) => $body,
            Policy::TwoHop($p) => $body,
            Policy::MeetingRate($p) => $body,
        }
    };
}

impl ForwardingPolicy for Policy {
    #[inline]
    fn label(&self) -> &'static str {
        dispatch!(self, p => p.label())
    }

    #[inline]
    fn mac(&self) -> MacControls {
        dispatch!(self, p => p.mac())
    }

    #[inline]
    fn init(&mut self, nodes: usize) {
        dispatch!(self, p => p.init(nodes));
    }

    #[inline]
    fn qualifies(&self, rx: &RxView<'_>, rts: &RtsInfo) -> bool {
        dispatch!(self, p => p.qualifies(rx, rts))
    }

    #[inline]
    fn select(
        &self,
        ctx: &SelectCtx,
        candidates: &[Candidate],
        scratch: &mut SelectionScratch,
        out: &mut Selection,
    ) {
        dispatch!(self, p => p.select(ctx, candidates, scratch, out));
    }

    #[inline]
    fn advertise(&self, sender: NodeId, metric: f64, msg: &Message) -> (f64, f64) {
        dispatch!(self, p => p.advertise(sender, metric, msg))
    }

    #[inline]
    fn on_multicast(
        &mut self,
        sender: NodeId,
        msg: &Message,
        confirmed: &Confirmed<'_>,
        alpha: f64,
        ftd_drop_threshold: f64,
        metric: &mut DeliveryProb,
    ) -> CopyFate {
        dispatch!(self, p => p.on_multicast(sender, msg, confirmed, alpha, ftd_drop_threshold, metric))
    }

    #[inline]
    fn on_frame_from(
        &mut self,
        rx: NodeId,
        src: NodeId,
        src_is_sink: bool,
        now: SimTime,
    ) -> Option<f64> {
        dispatch!(self, p => p.on_frame_from(rx, src, src_is_sink, now))
    }

    #[inline]
    fn on_copy_discarded(&mut self, at: NodeId, msg: &Message) {
        dispatch!(self, p => p.on_copy_discarded(at, msg));
    }
}

/// A serializable, parameter-only policy descriptor: what the CLI flag,
/// the bench `RunSpec` and the checkpoint policy frame carry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PolicySpec {
    /// Use the builtin variant the run's `VariantConfig` names.
    #[default]
    Builtin,
    /// [`TwoHopRelay`] with the given copy budget.
    TwoHop {
        /// Maximum relay copies the source may spawn per message.
        budget: u32,
    },
    /// [`MeetingRate`] with the given estimator constants.
    MeetingRate {
        /// Delivery horizon (seconds) in `ξ = 1 − exp(−horizon/ĝ)`.
        horizon_secs: f64,
        /// Debounce window (seconds) merging frames into one contact.
        debounce_secs: f64,
        /// EWMA gain of the gap estimator.
        beta: f64,
    },
}

impl PolicySpec {
    /// [`TwoHopRelay`] with the default copy budget.
    #[must_use]
    pub fn default_two_hop() -> PolicySpec {
        PolicySpec::TwoHop {
            budget: TwoHopRelay::DEFAULT_BUDGET,
        }
    }

    /// [`MeetingRate`] with the default estimator constants.
    #[must_use]
    pub fn default_meeting_rate() -> PolicySpec {
        PolicySpec::MeetingRate {
            horizon_secs: MeetingRate::DEFAULT_HORIZON_SECS,
            debounce_secs: MeetingRate::DEFAULT_DEBOUNCE_SECS,
            beta: MeetingRate::DEFAULT_BETA,
        }
    }

    /// Instantiates the runtime policy (state empty; the engine calls
    /// [`ForwardingPolicy::init`] when attaching it).
    #[must_use]
    pub fn into_policy(self, config: VariantConfig) -> Policy {
        match self {
            PolicySpec::Builtin => Policy::builtin(config),
            PolicySpec::TwoHop { budget } => Policy::TwoHop(TwoHopRelay::new(budget)),
            PolicySpec::MeetingRate {
                horizon_secs,
                debounce_secs,
                beta,
            } => Policy::MeetingRate(MeetingRate::new(horizon_secs, debounce_secs, beta)),
        }
    }

    /// The label the policy would report (`"BUILTIN"` stands for
    /// whatever variant the run config names).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PolicySpec::Builtin => "BUILTIN",
            PolicySpec::TwoHop { .. } => "TWOHOP",
            PolicySpec::MeetingRate { .. } => "MEETRATE",
        }
    }

    /// Parses `NAME[:k=v,...]` (case-insensitive names) as accepted by
    /// the CLI `--policy` flag.
    ///
    /// * `builtin` — no keys (the variant's own rules);
    /// * `twohop` — keys: `budget` (integer ≥ 1);
    /// * `meetrate` — keys: `horizon`, `debounce`, `beta`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the unknown policy, unknown key
    /// or malformed value.
    pub fn parse(s: &str) -> Result<PolicySpec, String> {
        let (name, rest) = match s.split_once(':') {
            Some((n, r)) => (n, Some(r)),
            None => (s, None),
        };
        let mut kvs: Vec<(&str, f64)> = Vec::new();
        if let Some(rest) = rest {
            for pair in rest.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("malformed policy parameter '{pair}' (want k=v)"))?;
                let v: f64 = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("policy parameter '{k}' has non-numeric value '{v}'"))?;
                kvs.push((k.trim(), v));
            }
        }
        let take = |kvs: &[(&str, f64)], key: &str, default: f64| -> f64 {
            kvs.iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(key))
                .map_or(default, |&(_, v)| v)
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "builtin" | "default" => {
                if let Some((k, _)) = kvs.first() {
                    return Err(format!("builtin takes no parameters, got '{k}'"));
                }
                Ok(PolicySpec::Builtin)
            }
            "twohop" | "two-hop" | "twohoprelay" => {
                for (k, _) in &kvs {
                    if !k.eq_ignore_ascii_case("budget") {
                        return Err(format!("unknown twohop parameter '{k}' (want budget)"));
                    }
                }
                let budget = take(&kvs, "budget", f64::from(TwoHopRelay::DEFAULT_BUDGET));
                if !(budget.is_finite() && budget >= 1.0 && budget.fract() == 0.0) {
                    return Err(format!(
                        "twohop budget must be an integer ≥ 1, got {budget}"
                    ));
                }
                Ok(PolicySpec::TwoHop {
                    budget: budget as u32,
                })
            }
            "meetrate" | "meeting-rate" | "meetingrate" => {
                for (k, _) in &kvs {
                    if !["horizon", "debounce", "beta"]
                        .iter()
                        .any(|w| k.eq_ignore_ascii_case(w))
                    {
                        return Err(format!(
                            "unknown meetrate parameter '{k}' (want horizon, debounce or beta)"
                        ));
                    }
                }
                let horizon = take(&kvs, "horizon", MeetingRate::DEFAULT_HORIZON_SECS);
                let debounce = take(&kvs, "debounce", MeetingRate::DEFAULT_DEBOUNCE_SECS);
                let beta = take(&kvs, "beta", MeetingRate::DEFAULT_BETA);
                let wellformed = horizon.is_finite()
                    && horizon > 0.0
                    && debounce.is_finite()
                    && debounce > 0.0
                    && beta.is_finite()
                    && beta > 0.0
                    && beta <= 1.0;
                if !wellformed {
                    return Err(
                        "meetrate wants horizon > 0, debounce > 0 and beta in (0, 1]".to_owned(),
                    );
                }
                Ok(PolicySpec::MeetingRate {
                    horizon_secs: horizon,
                    debounce_secs: debounce,
                    beta,
                })
            }
            other => Err(format!(
                "unknown policy '{other}' (available: builtin, twohop, meetrate)"
            )),
        }
    }
}

impl std::fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicySpec::Builtin => write!(f, "builtin"),
            PolicySpec::TwoHop { budget } => write!(f, "twohop:budget={budget}"),
            PolicySpec::MeetingRate {
                horizon_secs,
                debounce_secs,
                beta,
            } => write!(
                f,
                "meetrate:horizon={horizon_secs},debounce={debounce_secs},beta={beta}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::ProtocolKind;

    fn cand(id: usize, xi: f64, space: usize) -> Candidate {
        Candidate {
            id: NodeId(id),
            xi,
            buffer_space: space,
        }
    }

    fn msg(id: u64, origin: usize) -> Message {
        Message::sensed(MessageId(id), NodeId(origin), SimTime::ZERO)
    }

    #[test]
    fn builtin_labels_follow_the_kind() {
        for kind in ProtocolKind::ALL {
            let p = Policy::builtin(kind.config());
            assert_eq!(p.label(), kind.label());
            assert_eq!(p.spec(), PolicySpec::Builtin);
        }
    }

    #[test]
    fn twohop_origin_spends_budget_relays_do_not() {
        let mut p = TwoHopRelay::new(2);
        let m = msg(1, 0);
        // Origin advertisement carries the remaining budget.
        assert_eq!(p.advertise(NodeId(0), 0.3, &m), (0.3, 2.0));
        // A relay advertises zero.
        assert_eq!(p.advertise(NodeId(5), 0.3, &m), (0.3, 0.0));
        // Confirming two relay copies exhausts the budget.
        let confirmed = Confirmed {
            xis: &[0.4, 0.2],
            any_sink: false,
        };
        let mut xi = DeliveryProb::ZERO;
        let fate = p.on_multicast(NodeId(0), &m, &confirmed, 0.25, 0.9, &mut xi);
        assert_eq!(fate, CopyFate::Retain);
        assert_eq!(p.advertise(NodeId(0), 0.3, &m), (0.3, 0.0));
        // Sink delivery clears the ledger entry.
        let sink = Confirmed {
            xis: &[1.0],
            any_sink: true,
        };
        let fate = p.on_multicast(NodeId(0), &m, &sink, 0.25, 0.9, &mut xi);
        assert_eq!(fate, CopyFate::Delivered);
        assert_eq!(p.copies_spawned(MessageId(1)), 0);
    }

    #[test]
    fn twohop_selection_prefers_sinks_and_caps_relays() {
        let p = TwoHopRelay::new(1);
        let ctx = SelectCtx {
            sender: NodeId(0),
            sender_metric: 0.2,
            msg: msg(7, 0),
            threshold_r: 0.9,
        };
        let candidates = [cand(3, 0.5, 4), cand(9, 1.0, usize::MAX), cand(4, 0.6, 4)];
        let mut scratch = SelectionScratch::default();
        let mut out = Selection::default();
        p.select(&ctx, &candidates, &mut scratch, &mut out);
        let ids: Vec<NodeId> = out.receivers.iter().map(|&(id, _)| id).collect();
        // Sink first (ξ=1), then the single budgeted relay (best ξ).
        assert_eq!(ids, vec![NodeId(9), NodeId(4)]);
    }

    #[test]
    fn twohop_relay_offers_reach_only_sinks() {
        let p = TwoHopRelay::new(3);
        let q = FtdQueue::new(4);
        let rx = RxView { xi: 0.9, queue: &q };
        let relay_rts = RtsInfo {
            sender: NodeId(2),
            xi: 0.1,
            ftd: 0.0,
            msg: MessageId(1),
        };
        assert!(!p.qualifies(&rx, &relay_rts), "relay RTS must not recruit");
        let origin_rts = RtsInfo {
            ftd: 3.0,
            ..relay_rts
        };
        assert!(p.qualifies(&rx, &origin_rts));
    }

    #[test]
    fn meetrate_estimator_needs_two_contacts() {
        let mut p = MeetingRate::new(600.0, 5.0, 0.3);
        p.init(4);
        let t = |s: u64| SimTime::from_secs(s);
        // First contact: anchor only.
        assert_eq!(p.on_frame_from(NodeId(1), NodeId(9), true, t(100)), None);
        // Same contact, debounced.
        assert_eq!(p.on_frame_from(NodeId(1), NodeId(9), true, t(103)), None);
        // Second contact: gaps are start-to-start, ĝ = 200, ξ = 1 − e^{−3}.
        let xi = p
            .on_frame_from(NodeId(1), NodeId(9), true, t(300))
            .expect("second contact moves the metric");
        assert!((xi - (1.0 - (-3.0f64).exp())).abs() < 1e-12);
        // Non-sink frames never feed the estimator.
        assert_eq!(p.on_frame_from(NodeId(1), NodeId(2), false, t(400)), None);
    }

    #[test]
    fn spec_parse_round_trips() {
        let cases = [
            ("twohop", PolicySpec::TwoHop { budget: 4 }),
            ("TWOHOP:budget=9", PolicySpec::TwoHop { budget: 9 }),
            (
                "meetrate:horizon=300,beta=0.5",
                PolicySpec::MeetingRate {
                    horizon_secs: 300.0,
                    debounce_secs: 5.0,
                    beta: 0.5,
                },
            ),
        ];
        for (s, want) in cases {
            assert_eq!(PolicySpec::parse(s).unwrap(), want, "{s}");
        }
        assert!(PolicySpec::parse("gossip").is_err());
        assert!(PolicySpec::parse("twohop:budget=0").is_err());
        assert!(PolicySpec::parse("twohop:fanout=2").is_err());
        assert!(PolicySpec::parse("meetrate:beta=2").is_err());
        assert!(PolicySpec::parse("meetrate:horizon=abc").is_err());
    }

    #[test]
    fn builtin_on_multicast_matches_the_paper_rules() {
        let mut p = Builtin::new(ProtocolKind::Opt.config());
        let m = msg(1, 0);
        let mut xi = DeliveryProb::ZERO;
        // Sink confirmation: delivered, ξ pulled toward 1.
        let fate = p.on_multicast(
            NodeId(0),
            &m,
            &Confirmed {
                xis: &[1.0],
                any_sink: true,
            },
            0.25,
            0.9,
            &mut xi,
        );
        assert_eq!(fate, CopyFate::Delivered);
        assert!((xi.value() - 0.25).abs() < 1e-12);
        // Relay confirmation: Eq. 3 demotion below the threshold.
        let fate = p.on_multicast(
            NodeId(0),
            &m,
            &Confirmed {
                xis: &[0.5],
                any_sink: false,
            },
            0.25,
            0.9,
            &mut xi,
        );
        assert!(matches!(fate, CopyFate::Demote(_)));
    }
}
