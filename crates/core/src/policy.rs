//! The protocol's decision points (DESIGN.md § 8): who qualifies as a
//! receiver, which CTS repliers get a copy, what the RTS advertises, how
//! the routing metric updates, what happens to the sender's retained copy,
//! and which MAC rules (sleeping, Eqs. 6, 13 and 14) apply.
//!
//! The engine holds one crate-private `Policy`, an enum whose inherent
//! methods are those decision points, each one `match`:
//!
//! * `Builtin` — the six [`ProtocolKind`] variants, with the rules each
//!   derives from its kind and the three Sec. 4 switches of its
//!   [`VariantConfig`];
//! * `TwoHop` — Altman et al.'s optimal-control two-hop relay: the source
//!   spreads up to `budget` copies to relays, relays hand their copy to
//!   sinks only;
//! * `MeetingRate` — Shaghaghian & Coates-style forwarding on a per-node
//!   sink inter-contact-rate estimator.
//!
//! Callers name a policy with [`PolicySpec`], the only public type here.
//! The policy writes its own block of a `dftmsn-ckpt/6` checkpoint (see
//! `world_ckpt.rs`): the builtin variant and its switches, or a
//! competitor's parameters and runtime state.

use crate::delivery::DeliveryProb;
use crate::ftd::Ftd;
use crate::message::{Message, MessageId};
use crate::neighbor::{select_receivers_into, Candidate, Selection, SelectionScratch};
use crate::queue::FtdQueue;
use crate::variants::{MetricKind, ProtocolKind, SelectionKind, VariantConfig};
use crate::world::{r_past, w_time};
use dftmsn_radio::ids::NodeId;
use dftmsn_sim::snap::{SnapError, SnapReader, SnapWriter};
use dftmsn_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What a prospective receiver knows about itself when an RTS arrives.
#[derive(Debug)]
pub(crate) struct RxView<'a> {
    /// The receiver's current routing metric (ξ).
    pub(crate) xi: f64,
    /// The receiver's data queue.
    pub(crate) queue: &'a FtdQueue,
}

/// The advertisement carried by an RTS frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RtsInfo {
    /// The sender's advertised metric.
    pub(crate) xi: f64,
    /// The sender's advertised per-message figure — the message FTD for
    /// the builtin variants; the two-hop relay advertises its remaining
    /// copy budget here.
    pub(crate) ftd: f64,
    /// The message on offer.
    pub(crate) msg: MessageId,
}

/// Sender-side context for receiver selection.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SelectCtx {
    /// The selecting sender.
    pub(crate) sender: NodeId,
    /// The sender's current routing metric.
    pub(crate) sender_metric: f64,
    /// The message being offered (FTD, origin and id included).
    pub(crate) msg: Message,
    /// The paper's combined-delivery threshold *R*.
    pub(crate) threshold_r: f64,
}

/// The acknowledged receiver set of a completed multicast.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Confirmed<'a> {
    /// ξ of every receiver that ACKed, in schedule order.
    pub(crate) xis: &'a [f64],
    /// Whether any confirmed receiver is a sink.
    pub(crate) any_sink: bool,
}

/// What happens to the sender's retained copy after a confirmed
/// multicast. The engine applies the fate; the policy only decides it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CopyFate {
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

/// Altman et al.'s two-hop relay with an optimal-control copy budget.
///
/// The *source* of a message spreads at most `budget` copies to relays it
/// meets; a *relay* holds its copy until it meets a sink and never
/// re-replicates. The remaining budget rides the RTS `ftd` field (relays
/// advertise 0, so only sinks qualify for their offers), which keeps the
/// two-phase MAC untouched. The MAC runs OPT's rules and the Eq. 1 ξ
/// update, so energy figures compare fairly against OPT.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TwoHopRelay {
    budget: u32,
    /// Copies spawned so far per *origin-held* message; entries die with
    /// the retained copy (delivery, eviction, crash).
    copies: BTreeMap<MessageId, u32>,
}

impl TwoHopRelay {
    /// A two-hop relay policy with copy budget `budget` (clamped to ≥ 1)
    /// and an empty spawn ledger.
    pub(crate) fn new(budget: u32) -> Self {
        TwoHopRelay {
            budget: budget.max(1),
            copies: BTreeMap::new(),
        }
    }

    /// Copies `msg`'s origin may still spawn.
    fn remaining(&self, msg: MessageId) -> u32 {
        let spawned = self.copies.get(&msg).copied().unwrap_or(0);
        self.budget.saturating_sub(spawned)
    }
}

/// Per-node sink-contact bookkeeping for [`MeetingRate`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct MeetState {
    /// Last instant any sink frame was heard (`None` before the first).
    last_heard: Option<SimTime>,
    /// Start of the most recent debounced contact event.
    contact_at: SimTime,
    /// EWMA of inter-contact gaps, seconds.
    ewma_gap_secs: f64,
    /// Debounced contact events seen so far.
    contacts: u64,
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
pub(crate) struct MeetingRate {
    horizon_secs: f64,
    debounce_secs: f64,
    beta: f64,
    /// One entry per node.
    states: Vec<MeetState>,
}

impl MeetingRate {
    /// A meeting-rate policy with the given estimator constants and
    /// per-node table; NaN or non-positive constants fall back to the
    /// defaults and β is capped at 1.
    fn new(horizon_secs: f64, debounce_secs: f64, beta: f64, states: Vec<MeetState>) -> Self {
        let ok = |v: f64, d: f64| if v.is_finite() && v > 0.0 { v } else { d };
        MeetingRate {
            horizon_secs: ok(horizon_secs, DEFAULT_HORIZON_SECS),
            debounce_secs: ok(debounce_secs, DEFAULT_DEBOUNCE_SECS),
            beta: ok(beta, DEFAULT_BETA).min(1.0),
            states,
        }
    }

    /// Node `rx` heard a sink at `now`. Returns the node's new metric when
    /// this frame opens a debounced contact that closes a measured gap.
    fn on_sink_frame(&mut self, rx: NodeId, now: SimTime) -> Option<f64> {
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
}

/// The engine's policy slot. Each decision point is one `match` on the
/// variant, so dispatch is a single predictable branch, with no vtable on
/// the hot path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Policy {
    /// A builtin paper variant.
    Builtin(VariantConfig),
    /// Two-hop relay with a copy budget.
    TwoHop(TwoHopRelay),
    /// Meeting-rate-estimation forwarding.
    MeetingRate(MeetingRate),
}

impl Policy {
    /// The run label reported by [`crate::report::SimReport::protocol`].
    #[inline]
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Policy::Builtin(config) => config.kind.label(),
            Policy::TwoHop(_) => "TWOHOP",
            Policy::MeetingRate(_) => "MEETRATE",
        }
    }

    /// The variant whose MAC rules apply: sleeping (from its kind) and
    /// its Eq. 6, 13 and 14 switches. The two competitors replace routing
    /// but keep OPT's MAC. The engine caches the result, so the per-event
    /// hot paths read plain values.
    #[inline]
    pub(crate) fn mac(&self) -> VariantConfig {
        match self {
            Policy::Builtin(config) => *config,
            Policy::TwoHop(_) | Policy::MeetingRate(_) => ProtocolKind::Opt.config(),
        }
    }

    /// Does a *non-sink* receiver qualify for the advertised RTS? Sinks
    /// always qualify; the engine short-circuits them before this call.
    #[inline]
    pub(crate) fn qualifies(&self, rx: &RxView<'_>, rts: &RtsInfo) -> bool {
        match self {
            Policy::Builtin(config) => match config.kind.selection() {
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
            },
            // The `ftd` field carries the sender's remaining copy budget:
            // relays advertise 0, so only sinks (pre-qualified) answer them.
            Policy::TwoHop(_) => {
                rts.ftd >= 1.0 && !rx.queue.is_full() && !rx.queue.contains(rts.msg)
            }
            Policy::MeetingRate(_) => {
                rx.xi > rts.xi && !rx.queue.is_full() && !rx.queue.contains(rts.msg)
            }
        }
    }

    /// Picks receivers from the CTS repliers, writing into `out`
    /// (cleared first). `scratch` is pooled working memory.
    #[inline]
    pub(crate) fn select(
        &self,
        ctx: &SelectCtx,
        candidates: &[Candidate],
        scratch: &mut SelectionScratch,
        out: &mut Selection,
    ) {
        out.clear();
        match self {
            Policy::Builtin(config) => match config.kind.selection() {
                SelectionKind::FtdThreshold => select_receivers_into(
                    ctx.sender_metric,
                    ctx.msg.ftd,
                    candidates,
                    ctx.threshold_r,
                    scratch,
                    out,
                ),
                SelectionKind::SingleBest | SelectionKind::SinkOnly => {
                    select_single_best(ctx, candidates, out);
                }
                SelectionKind::AllResponders => {
                    for c in candidates.iter().filter(|c| c.buffer_space > 0) {
                        out.receivers.push((c.id, Ftd::NEW));
                        out.receiver_xis.push(c.xi);
                    }
                    out.combined_delivery = ctx.msg.ftd.combined_delivery(&out.receiver_xis);
                }
            },
            Policy::TwoHop(p) => {
                // Sinks (ξ = 1) always take a copy — that is a delivery.
                // The walk is by descending ξ with id tie-breaks, like
                // Sec. 3.2.2.
                let mut order: Vec<&Candidate> = candidates
                    .iter()
                    .filter(|c| c.buffer_space > 0 && c.xi.is_finite())
                    .collect();
                order.sort_by(|a, b| b.xi.total_cmp(&a.xi).then_with(|| a.id.cmp(&b.id)));
                let mut relays_left = if ctx.msg.origin == ctx.sender {
                    p.remaining(ctx.msg.id) as usize
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
            // Single-copy move to the best estimated sink-meeting rate.
            Policy::MeetingRate(_) => select_single_best(ctx, candidates, out),
        }
    }

    /// The `(ξ, ftd)` pair `sender` advertises in the RTS for `msg`.
    #[inline]
    pub(crate) fn advertise(&self, sender: NodeId, metric: f64, msg: &Message) -> (f64, f64) {
        match self {
            Policy::TwoHop(p) if msg.origin == sender => (metric, f64::from(p.remaining(msg.id))),
            Policy::TwoHop(_) => (metric, 0.0),
            Policy::Builtin(_) | Policy::MeetingRate(_) => (metric, msg.ftd.value()),
        }
    }

    /// A multicast of `msg` by `sender` was confirmed by `confirmed`.
    /// Updates the sender's routing metric in place and decides the
    /// retained copy's fate. `alpha` and `ftd_drop_threshold` come from
    /// the protocol constants.
    #[inline]
    pub(crate) fn on_multicast(
        &mut self,
        sender: NodeId,
        msg: &Message,
        confirmed: &Confirmed<'_>,
        alpha: f64,
        ftd_drop_threshold: f64,
        metric: &mut DeliveryProb,
    ) -> CopyFate {
        match self {
            Policy::Builtin(config) => {
                // Eq. 1 (or the ZBR history rule) on a successful
                // transmission.
                match config.kind.metric() {
                    MetricKind::DeliveryProb => pull_toward_best(metric, confirmed, alpha),
                    MetricKind::SinkHistory => {
                        if confirmed.any_sink {
                            metric.on_transmission(DeliveryProb::SINK, alpha);
                        }
                    }
                }
                match config.kind.selection() {
                    // Highest possible FTD: drop immediately (delivered).
                    SelectionKind::FtdThreshold if confirmed.any_sink => CopyFate::Delivered,
                    SelectionKind::FtdThreshold => {
                        let new_ftd = msg.ftd.after_multicast(confirmed.xis);
                        if new_ftd.value() > ftd_drop_threshold {
                            CopyFate::Drop
                        } else {
                            CopyFate::Demote(new_ftd)
                        }
                    }
                    // Single-copy transfer: the message moved.
                    SelectionKind::SingleBest | SelectionKind::SinkOnly => CopyFate::Moved,
                    SelectionKind::AllResponders if confirmed.any_sink => CopyFate::Delivered,
                    SelectionKind::AllResponders => CopyFate::Retain,
                }
            }
            Policy::TwoHop(p) => {
                // Keep the Eq. 1 ξ update so the adaptive MAC stays
                // calibrated.
                pull_toward_best(metric, confirmed, alpha);
                if confirmed.any_sink {
                    p.copies.remove(&msg.id);
                    CopyFate::Delivered
                } else if msg.origin == sender {
                    *p.copies.entry(msg.id).or_insert(0) += confirmed.xis.len() as u32;
                    CopyFate::Retain
                } else {
                    // Unreachable by construction (relays only offer to
                    // sinks), but a safe fallback: a single-copy move.
                    CopyFate::Moved
                }
            }
            // The metric is estimator-driven; transmissions do not move it.
            Policy::MeetingRate(_) if confirmed.any_sink => CopyFate::Delivered,
            Policy::MeetingRate(_) => CopyFate::Moved,
        }
    }

    /// A frame was heard by (alive, non-sink) node `rx`; `src_is_sink`
    /// says whether a sink sent it. Returns `Some(new_metric)` when the
    /// policy's estimator moves the node's routing metric. Draws no
    /// randomness.
    #[inline]
    pub(crate) fn on_frame_from(
        &mut self,
        rx: NodeId,
        src_is_sink: bool,
        now: SimTime,
    ) -> Option<f64> {
        match self {
            Policy::MeetingRate(p) if src_is_sink => p.on_sink_frame(rx, now),
            _ => None,
        }
    }

    /// Node `at`'s queued copy of `msg` was discarded outside the
    /// multicast path (buffer eviction, crash purge). The two-hop relay
    /// reclaims the origin's ledger entry; the others keep no
    /// per-message state.
    #[inline]
    pub(crate) fn on_copy_discarded(&mut self, at: NodeId, msg: &Message) {
        match self {
            Policy::TwoHop(p) if msg.origin == at => {
                p.copies.remove(&msg.id);
            }
            _ => {}
        }
    }

    /// The serializable descriptor reproducing this policy's parameters
    /// (not its runtime state, which the checkpoint block carries).
    pub(crate) fn spec(&self) -> PolicySpec {
        match self {
            Policy::Builtin(_) => PolicySpec::Builtin,
            Policy::TwoHop(p) => PolicySpec::TwoHop { budget: p.budget },
            Policy::MeetingRate(p) => PolicySpec::MeetingRate {
                horizon_secs: p.horizon_secs,
                debounce_secs: p.debounce_secs,
                beta: p.beta,
            },
        }
    }

    /// An upper bound on the bytes [`encode`](Self::encode) writes: the
    /// tag and the fixed fields, then 12 bytes per ledger entry or 40 per
    /// meeting-rate table entry.
    pub(crate) fn ckpt_len_bound(&self) -> usize {
        match self {
            Policy::Builtin(_) => 5,
            Policy::TwoHop(p) => 13 + 12 * p.copies.len(),
            Policy::MeetingRate(p) => 33 + 40 * p.states.len(),
        }
    }

    /// Writes the checkpoint block: a tag, then for a builtin variant its
    /// index in [`ProtocolKind::ALL`] and its three switches, for the
    /// two-hop relay its budget and spawn ledger, and for the meeting-rate
    /// policy its constants and per-node table.
    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        match self {
            Policy::Builtin(config) => {
                w.u8(0);
                let index = ProtocolKind::ALL.iter().position(|&k| k == config.kind);
                w.u8(index.expect("ALL lists every kind") as u8);
                w.bool(config.adaptive_sleep);
                w.bool(config.adaptive_tau);
                w.bool(config.adaptive_window);
            }
            Policy::TwoHop(p) => {
                w.u8(1);
                w.u32(p.budget);
                w.usize(p.copies.len());
                for (m, &c) in &p.copies {
                    w.u64(m.0);
                    w.u32(c);
                }
            }
            Policy::MeetingRate(p) => {
                w.u8(2);
                w.f64(p.horizon_secs);
                w.f64(p.debounce_secs);
                w.f64(p.beta);
                w.seq(&p.states, |w, s| {
                    w.option(s.last_heard.as_ref(), |w, &t| w_time(w, t));
                    w_time(w, s.contact_at);
                    w.f64(s.ewma_gap_secs);
                    w.u64(s.contacts);
                });
            }
        }
    }

    /// Reads what [`encode`](Self::encode) wrote for a world of `nodes`
    /// nodes checkpointed at `now`, checking the tags, that the
    /// meeting-rate table has one entry per node, that its instants lie at
    /// or before the clock and that its gap estimates are durations.
    pub(crate) fn decode(
        r: &mut SnapReader,
        nodes: usize,
        now: SimTime,
    ) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => {
                let t = r.u8()?;
                let kind = ProtocolKind::ALL
                    .get(usize::from(t))
                    .ok_or_else(|| SnapError::new(format!("bad ProtocolKind tag {t}")))?;
                let (sleep, tau, window) = (r.bool()?, r.bool()?, r.bool()?);
                Policy::Builtin(
                    kind.config()
                        .with_adaptive_sleep(sleep)
                        .with_adaptive_tau(tau)
                        .with_adaptive_window(window),
                )
            }
            1 => {
                let mut p = TwoHopRelay::new(r.u32()?);
                p.copies = r
                    .seq(|r| Ok((MessageId(r.u64()?), r.u32()?)))?
                    .into_iter()
                    .collect();
                Policy::TwoHop(p)
            }
            2 => {
                let (horizon_secs, debounce_secs, beta) = (r.f64()?, r.f64()?, r.f64()?);
                let states = r.seq(|r| {
                    let state = MeetState {
                        last_heard: r.option(|r| r_past(r, now))?,
                        contact_at: r_past(r, now)?,
                        ewma_gap_secs: r.f64()?,
                        contacts: r.u64()?,
                    };
                    if !(state.ewma_gap_secs.is_finite() && state.ewma_gap_secs >= 0.0) {
                        return Err(SnapError::new(format!(
                            "contact-gap estimate {} is not a duration",
                            state.ewma_gap_secs
                        )));
                    }
                    Ok(state)
                })?;
                if states.len() != nodes {
                    return Err(SnapError::new("meetrate state table length mismatch"));
                }
                Policy::MeetingRate(MeetingRate::new(horizon_secs, debounce_secs, beta, states))
            }
            t => return Err(SnapError::new(format!("bad policy tag {t}"))),
        })
    }
}

/// Eq. 1 on a successful transmission: pulls `metric` toward the best
/// confirmed receiver's ξ.
fn pull_toward_best(metric: &mut DeliveryProb, confirmed: &Confirmed<'_>, alpha: f64) {
    let best = confirmed.xis.iter().copied().fold(0.0f64, f64::max);
    metric.on_transmission(DeliveryProb::new(best.clamp(0.0, 1.0)), alpha);
}

/// Moves the copy to the single best replier: the highest finite ξ with
/// buffer space, the lowest id on ties.
fn select_single_best(ctx: &SelectCtx, candidates: &[Candidate], out: &mut Selection) {
    // total_cmp instead of partial_cmp().expect: a NaN metric is a bug
    // upstream, but selection must not panic on it.
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

/// The two-hop relay's default copy budget *L*.
const DEFAULT_BUDGET: u32 = 4;
/// The meeting-rate policy's default delivery horizon (seconds).
const DEFAULT_HORIZON_SECS: f64 = 600.0;
/// The meeting-rate policy's default contact debounce window (seconds).
const DEFAULT_DEBOUNCE_SECS: f64 = 5.0;
/// The meeting-rate policy's default EWMA gain for the gap estimator.
const DEFAULT_BETA: f64 = 0.3;

/// A serializable, parameter-only policy descriptor: what the CLI flag,
/// the bench `RunSpec` and [`SimulationBuilder::policy`] take.
///
/// [`SimulationBuilder::policy`]: crate::world::SimulationBuilder::policy
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PolicySpec {
    /// Use the builtin variant the run's `VariantConfig` names.
    #[default]
    Builtin,
    /// Altman et al.'s two-hop relay with the given copy budget.
    TwoHop {
        /// Maximum relay copies the source may spawn per message.
        budget: u32,
    },
    /// Meeting-rate-estimation forwarding with the given estimator
    /// constants.
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
    /// The two-hop relay with the default copy budget.
    #[must_use]
    pub fn default_two_hop() -> PolicySpec {
        PolicySpec::TwoHop {
            budget: DEFAULT_BUDGET,
        }
    }

    /// The meeting-rate policy with the default estimator constants.
    #[must_use]
    pub fn default_meeting_rate() -> PolicySpec {
        PolicySpec::MeetingRate {
            horizon_secs: DEFAULT_HORIZON_SECS,
            debounce_secs: DEFAULT_DEBOUNCE_SECS,
            beta: DEFAULT_BETA,
        }
    }

    /// The runtime policy for a world of `nodes` nodes running `config`,
    /// with empty state (the meeting-rate table already sized).
    pub(crate) fn into_policy(self, config: VariantConfig, nodes: usize) -> Policy {
        match self {
            PolicySpec::Builtin => Policy::Builtin(config),
            PolicySpec::TwoHop { budget } => Policy::TwoHop(TwoHopRelay::new(budget)),
            PolicySpec::MeetingRate {
                horizon_secs,
                debounce_secs,
                beta,
            } => Policy::MeetingRate(MeetingRate::new(
                horizon_secs,
                debounce_secs,
                beta,
                vec![MeetState::default(); nodes],
            )),
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
                let budget = take(&kvs, "budget", f64::from(DEFAULT_BUDGET));
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
                let horizon = take(&kvs, "horizon", DEFAULT_HORIZON_SECS);
                let debounce = take(&kvs, "debounce", DEFAULT_DEBOUNCE_SECS);
                let beta = take(&kvs, "beta", DEFAULT_BETA);
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

    fn two_hop(budget: u32) -> Policy {
        Policy::TwoHop(TwoHopRelay::new(budget))
    }

    #[test]
    fn builtin_labels_follow_the_kind() {
        for kind in ProtocolKind::ALL {
            let p = Policy::Builtin(kind.config());
            assert_eq!(p.label(), kind.label());
            assert_eq!(p.spec(), PolicySpec::Builtin);
        }
    }

    #[test]
    fn twohop_origin_spends_budget_relays_do_not() {
        let mut p = two_hop(2);
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
        assert_eq!(p, two_hop(2));
    }

    #[test]
    fn twohop_selection_prefers_sinks_and_caps_relays() {
        let p = two_hop(1);
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
        let p = two_hop(3);
        let q = FtdQueue::new(4);
        let rx = RxView { xi: 0.9, queue: &q };
        let relay_rts = RtsInfo {
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
        let spec = PolicySpec::MeetingRate {
            horizon_secs: 600.0,
            debounce_secs: 5.0,
            beta: 0.3,
        };
        let mut p = spec.into_policy(ProtocolKind::Opt.config(), 4);
        let t = |s: u64| SimTime::from_secs(s);
        // First contact: anchor only.
        assert_eq!(p.on_frame_from(NodeId(1), true, t(100)), None);
        // Same contact, debounced.
        assert_eq!(p.on_frame_from(NodeId(1), true, t(103)), None);
        // Second contact: gaps are start-to-start, ĝ = 200, ξ = 1 − e^{−3}.
        let xi = p
            .on_frame_from(NodeId(1), true, t(300))
            .expect("second contact moves the metric");
        assert!((xi - (1.0 - (-3.0f64).exp())).abs() < 1e-12);
        // Non-sink frames never feed the estimator.
        assert_eq!(p.on_frame_from(NodeId(1), false, t(400)), None);
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
        let mut p = Policy::Builtin(ProtocolKind::Opt.config());
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

    /// The clock the decode tests checkpoint at.
    const NOW: SimTime = SimTime::from_secs(100);

    fn decode(bytes: &[u8]) -> Result<Policy, SnapError> {
        Policy::decode(&mut SnapReader::new(bytes), 2, NOW)
    }

    /// A meeting-rate block for two nodes whose second entry is `last`.
    fn meetrate_block(last: (Option<SimTime>, SimTime, f64)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u8(2);
        for v in [600.0, 5.0, 0.3] {
            w.f64(v);
        }
        w.seq(
            &[(None, SimTime::ZERO, 0.0), last],
            |w, &(heard, at, gap)| {
                w.option(heard.as_ref(), |w, &t| w_time(w, t));
                w_time(w, at);
                w.f64(gap);
                w.u64(2);
            },
        );
        w.into_bytes()
    }

    fn assert_rejected(bytes: &[u8], why: &str) {
        let err = decode(bytes).expect_err(why);
        assert!(err.message().contains(why), "{err}");
    }

    #[test]
    fn every_policy_round_trips_through_its_block() {
        let mut twohop = two_hop(3);
        let confirmed = Confirmed {
            xis: &[0.4],
            any_sink: false,
        };
        let mut xi = DeliveryProb::ZERO;
        let _ = twohop.on_multicast(NodeId(0), &msg(9, 0), &confirmed, 0.25, 0.9, &mut xi);
        let mut meetrate =
            PolicySpec::default_meeting_rate().into_policy(ProtocolKind::Opt.config(), 2);
        for s in [10, 50] {
            let _ = meetrate.on_frame_from(NodeId(1), true, SimTime::from_secs(s));
        }
        let ablation = ProtocolKind::Zbr.config().with_adaptive_tau(false);
        for p in [Policy::Builtin(ablation), twohop, meetrate] {
            let mut w = SnapWriter::new();
            p.encode(&mut w);
            let bytes = w.into_bytes();
            assert!(bytes.len() <= p.ckpt_len_bound(), "{p:?}");
            assert_eq!(decode(&bytes).unwrap(), p);
        }
    }

    #[test]
    fn an_unknown_policy_tag_is_rejected() {
        assert_rejected(&[3], "bad policy tag 3");
    }

    #[test]
    fn a_builtin_block_with_variant_tag_6_is_rejected() {
        assert_rejected(&[0, 6, 1, 1, 1], "bad ProtocolKind tag 6");
    }

    #[test]
    fn a_meeting_rate_table_of_the_wrong_length_is_rejected() {
        let mut w = SnapWriter::new();
        w.u8(2);
        for v in [600.0, 5.0, 0.3] {
            w.f64(v);
        }
        w.usize(0);
        assert_rejected(&w.into_bytes(), "meetrate state table length mismatch");
    }

    #[test]
    fn a_contact_gap_that_is_nan_or_negative_is_rejected() {
        for gap in [f64::NAN, -1.0] {
            let bytes = meetrate_block((None, SimTime::ZERO, gap));
            assert_rejected(&bytes, "is not a duration");
        }
    }

    #[test]
    fn contact_instants_after_the_clock_are_rejected() {
        let later = SimTime::from_secs(101);
        for last in [(Some(later), SimTime::ZERO, 1.0), (None, later, 1.0)] {
            assert_rejected(&meetrate_block(last), "lies after the checkpoint clock");
        }
        assert!(decode(&meetrate_block((Some(NOW), NOW, 1.0))).is_ok());
    }
}
