//! Versioned snapshot/resume for [`Simulation`] — the `dftmsn-ckpt/6`
//! format.
//!
//! A checkpoint captures the *complete* live state of a run: every node's
//! protocol tables (ξ, FTD queue, sleep history, neighbor table, MAC
//! context), the timing-wheel event set, every RNG stream (shared mobility,
//! fault, per-node protocol, and Lazy mode's per-sensor mobility forks), the
//! in-flight radio medium, the run counters, and the windowed observer's
//! accumulation state. Resuming reconstructs a simulation whose subsequent
//! event stream is bit-for-bit identical to the uninterrupted run: same
//! report bytes ([`SimReport::snap_bytes`]), same observe JSONL bytes, for
//! every protocol variant and both mobility modes.
//!
//! # File format
//!
//! ```text
//! magic   13 bytes   b"dftmsn-ckpt/6"
//! len      8 bytes   payload length, u64 LE
//! payload  n bytes   SnapWriter-encoded state
//! checksum 8 bytes   checksum64 of the payload, u64 LE
//! ```
//!
//! The frame is encoded into one buffer presized from the live state, with
//! the header written in place. The payload opens with the parameters the
//! static world is rebuilt from. The fault injector's block follows (the
//! plan, the fault stream, the global and per-pair link drops, the regime
//! flag, the behavior assignments and the lifetime anchors), then the
//! clock, the count of events processed and the count of message ids
//! issued, which later sections are checked against. Then come the
//! policy's block (a tag, then for a builtin run the variant and its three
//! Sec. 4 switches, or a competitor's parameters and state; decode builds
//! the policy before the static world), the mobility driver's block (the
//! shared mobility stream, Lazy mode's per-sensor streams and sync
//! instants, then each sensor's seven trajectory values; sinks never move
//! and write nothing), the nodes, the medium, the run counters and the
//! pending events, and last the observers' block (the observe-tick count
//! and the recorder). Each owner writes and reads its block itself. Only `/6` decodes: a file of another
//! `dftmsn-ckpt/` version is rejected as [`CkptError::Corrupt`] naming
//! that version.
//!
//! Decoding trusts nothing the checksum cannot vouch for: node ids must lie
//! below the node count, ξ/FTD/metric values in `[0, 1]`, recorded instants
//! at or before the clock and message ids below the count issued, and every
//! live timer and pending frame end must fit its node's MAC state. A
//! malformed payload that still carries a valid checksum is therefore
//! rejected with a typed error instead of panicking later in the run.
//!
//! Writes are atomic: the file is written to `<path>.tmp`, the previous
//! checkpoint (if any) is rotated to `<path>.bak`, and the temp file is
//! renamed into place. A corrupt primary file is rejected with a
//! diagnostic and [`Simulation::resume`] falls back to the `.bak` rotation.
//!
//! # What is *not* captured
//!
//! * Custom [`TraceSink`]s attached via
//!   [`SimulationBuilder::trace`] — a resumed run re-attaches only the
//!   [`MetricsRecorder`] observer (whose byte-exact output cursor is part
//!   of the snapshot). Callers that need their own sink must re-attach it
//!   out of band and accept that it observes only post-resume events.
//! * The observer's retained in-memory rows —
//!   [`MetricsRecorder::rows`]/[`MetricsRecorder::series`] on a resumed
//!   recorder cover only post-resume windows. The JSONL stream and the
//!   totals line are exact.

use super::*;
use crate::neighbor::{NeighborEntry, NeighborTable};
use crate::queue::FtdQueue;
use crate::report::{r_hist, r_stats, w_hist, w_stats, FaultCounters};
use dftmsn_radio::energy::EnergyMeter;
use dftmsn_radio::medium::{ActiveTxState, MediumState};
use dftmsn_sim::snap::{checksum64, SnapError, SnapReader, SnapWriter};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file; the trailing `/6` is the
/// format version.
pub const CKPT_MAGIC: &[u8; 13] = b"dftmsn-ckpt/6";

/// The magic's version-independent prefix, so a file of another version is
/// named as such rather than as "not a checkpoint".
const MAGIC_FAMILY: &[u8] = b"dftmsn-ckpt/";

/// Frame bytes before the payload: the magic and the payload length.
const HEADER_LEN: usize = CKPT_MAGIC.len() + 8;

/// Why a checkpoint could not be written or resumed.
#[derive(Debug)]
pub enum CkptError {
    /// A filesystem operation failed.
    Io {
        /// What was being attempted (e.g. `"write checkpoint"`).
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The bytes are not a valid `dftmsn-ckpt/6` snapshot: bad magic, an
    /// unsupported version, truncation, checksum mismatch, or a malformed
    /// payload.
    Corrupt {
        /// The file the bytes came from, when known.
        path: Option<PathBuf>,
        /// What exactly failed to parse.
        detail: String,
    },
    /// The snapshot decoded, but its parameters fail validation (e.g. a
    /// checkpoint from an incompatible build).
    Invalid {
        /// The validation failure.
        detail: String,
    },
}

impl CkptError {
    pub(super) fn corrupt(detail: impl Into<String>) -> Self {
        CkptError::Corrupt {
            path: None,
            detail: detail.into(),
        }
    }

    fn with_path(self, path: &Path) -> Self {
        match self {
            CkptError::Corrupt { path: None, detail } => CkptError::Corrupt {
                path: Some(path.to_owned()),
                detail,
            },
            other => other,
        }
    }

    /// True when the bytes were unreadable as a snapshot (as opposed to an
    /// I/O failure); this is the case the `.bak` fallback covers.
    #[must_use]
    pub fn is_corrupt(&self) -> bool {
        matches!(self, CkptError::Corrupt { .. } | CkptError::Invalid { .. })
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            CkptError::Corrupt {
                path: Some(p),
                detail,
            } => {
                write!(f, "corrupt checkpoint {}: {detail}", p.display())
            }
            CkptError::Corrupt { path: None, detail } => {
                write!(f, "corrupt checkpoint: {detail}")
            }
            CkptError::Invalid { detail } => {
                write!(f, "checkpoint holds invalid parameters: {detail}")
            }
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SnapError> for CkptError {
    fn from(e: SnapError) -> Self {
        CkptError::corrupt(e.message().to_owned())
    }
}

/// A run reconstructed by [`Simulation::resume`].
#[derive(Debug)]
pub struct Resumed {
    /// The reconstructed simulation, ready to [`run`](Simulation::run) or
    /// [`step`](Simulation::step).
    pub sim: Simulation,
    /// The restored observer, when the checkpointed run had one attached.
    /// Its output stream is detached; re-attach with
    /// [`MetricsRecorder::with_output`] after truncating the observe file
    /// to [`MetricsRecorder::bytes_written`] bytes (the snapshot's cursor)
    /// — the continuation then produces a byte-identical JSONL stream.
    pub recorder: Option<MetricsRecorder>,
    /// True when the primary file was corrupt and the state was recovered
    /// from the `.bak` rotation.
    pub from_backup: bool,
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

// ---------------------------------------------------------------------
// Leaf codecs (all fallible on read; tags are explicit and values are
// range-checked, so a truncated or hand-edited payload yields a
// diagnostic, not a panic).
// ---------------------------------------------------------------------

/// What decoded ids and instants are checked against: the node count, the
/// checkpoint clock, and the number of message ids issued.
#[derive(Debug, Clone, Copy)]
struct Limits {
    n: usize,
    now: SimTime,
    issued: u64,
}

pub(crate) fn w_time(w: &mut SnapWriter, t: SimTime) {
    w.u64(t.ticks());
}

fn r_time(r: &mut SnapReader) -> Result<SimTime, SnapError> {
    Ok(SimTime::from_ticks(r.u64()?))
}

/// Reads an instant the run has already passed (a creation, last-seen or
/// state-entry time), which cannot lie after the clock.
pub(crate) fn r_past(r: &mut SnapReader, now: SimTime) -> Result<SimTime, SnapError> {
    let t = r_time(r)?;
    if t > now {
        return Err(SnapError::new(format!(
            "recorded instant {t} lies after the checkpoint clock {now}"
        )));
    }
    Ok(t)
}

pub(crate) fn w_node_id(w: &mut SnapWriter, id: NodeId) {
    w.usize(id.index());
}

pub(crate) fn r_node_id(r: &mut SnapReader, n: usize) -> Result<NodeId, SnapError> {
    let i = r.usize()?;
    if i >= n {
        return Err(SnapError::new(format!(
            "node id {i} out of range for {n} nodes"
        )));
    }
    Ok(NodeId(i))
}

/// Reads a ξ, FTD, delivery-metric or probability value, which must lie in
/// `[0, 1]`.
pub(super) fn r_unit(r: &mut SnapReader, what: &str) -> Result<f64, SnapError> {
    let v = r.f64()?;
    if !(0.0..=1.0).contains(&v) {
        return Err(SnapError::new(format!("{what} {v} outside [0,1]")));
    }
    Ok(v)
}

/// Reads an RTS `ftd` field or a receiver's copy of it: an FTD in `[0, 1]`,
/// except under the two-hop policy, where it carries the sender's remaining
/// copy budget.
fn r_rts_ftd(r: &mut SnapReader, budget: bool) -> Result<f64, SnapError> {
    if !budget {
        return r_unit(r, "RTS FTD");
    }
    let v = r.f64()?;
    if !(v.is_finite() && v >= 0.0) {
        return Err(SnapError::new(format!(
            "RTS copy budget {v} is not a count"
        )));
    }
    Ok(v)
}

pub(super) fn w_rng(w: &mut SnapWriter, rng: &SimRng) {
    for word in rng.state() {
        w.u64(word);
    }
}

pub(super) fn r_rng(r: &mut SnapReader) -> Result<SimRng, SnapError> {
    let s = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    if s == [0, 0, 0, 0] {
        return Err(SnapError::new("all-zero RNG state"));
    }
    Ok(SimRng::from_state(s))
}

fn w_message(w: &mut SnapWriter, m: &Message) {
    w.u64(m.id.0);
    w_node_id(w, m.origin);
    w_time(w, m.created);
    w.f64(m.ftd.value());
    w.u32(m.hops);
}

fn r_message(r: &mut SnapReader, lim: Limits) -> Result<Message, SnapError> {
    let id = r.u64()?;
    if id >= lim.issued {
        return Err(SnapError::new(format!(
            "message id {id} was never issued ({} issued)",
            lim.issued
        )));
    }
    Ok(Message {
        id: MessageId(id),
        origin: r_node_id(r, lim.n)?,
        created: r_past(r, lim.now)?,
        ftd: Ftd::new(r_unit(r, "FTD")?),
        hops: r.u32()?,
    })
}

fn tx_plan_tag(p: TxPlan) -> u8 {
    match p {
        TxPlan::Preamble => 0,
        TxPlan::Rts => 1,
        TxPlan::Cts => 2,
        TxPlan::Schedule => 3,
        TxPlan::Data => 4,
        TxPlan::Ack => 5,
    }
}

fn r_tx_plan(r: &mut SnapReader) -> Result<TxPlan, SnapError> {
    Ok(match r.u8()? {
        0 => TxPlan::Preamble,
        1 => TxPlan::Rts,
        2 => TxPlan::Cts,
        3 => TxPlan::Schedule,
        4 => TxPlan::Data,
        5 => TxPlan::Ack,
        t => return Err(SnapError::new(format!("bad TxPlan tag {t}"))),
    })
}

fn w_mac_state(w: &mut SnapWriter, s: MacState) {
    match s {
        MacState::Sleeping => w.u8(0),
        MacState::Passive => w.u8(1),
        MacState::SenderListen => w.u8(2),
        MacState::Transmitting(plan) => {
            w.u8(3);
            w.u8(tx_plan_tag(plan));
        }
        MacState::CollectCts => w.u8(4),
        MacState::AwaitAcks => w.u8(5),
        MacState::AwaitRts => w.u8(6),
        MacState::CtsPending => w.u8(7),
        MacState::AwaitSchedule => w.u8(8),
        MacState::AwaitData => w.u8(9),
        MacState::AckPending => w.u8(10),
    }
}

fn r_mac_state(r: &mut SnapReader) -> Result<MacState, SnapError> {
    Ok(match r.u8()? {
        0 => MacState::Sleeping,
        1 => MacState::Passive,
        2 => MacState::SenderListen,
        3 => MacState::Transmitting(r_tx_plan(r)?),
        4 => MacState::CollectCts,
        5 => MacState::AwaitAcks,
        6 => MacState::AwaitRts,
        7 => MacState::CtsPending,
        8 => MacState::AwaitSchedule,
        9 => MacState::AwaitData,
        10 => MacState::AckPending,
        t => return Err(SnapError::new(format!("bad MacState tag {t}"))),
    })
}

fn w_radio_state(w: &mut SnapWriter, s: RadioState) {
    w.u8(s.index() as u8);
}

fn r_radio_state(r: &mut SnapReader) -> Result<RadioState, SnapError> {
    Ok(match r.u8()? {
        0 => RadioState::Sleep,
        1 => RadioState::Idle,
        2 => RadioState::Rx,
        3 => RadioState::Tx,
        t => return Err(SnapError::new(format!("bad RadioState tag {t}"))),
    })
}

fn w_payload(w: &mut SnapWriter, p: &MacPayload) {
    match p {
        MacPayload::Preamble => w.u8(0),
        MacPayload::Rts {
            xi,
            ftd,
            window_slots,
            msg,
        } => {
            w.u8(1);
            w.f64(*xi);
            w.f64(*ftd);
            w.u32(*window_slots);
            w.u64(msg.0);
        }
        MacPayload::Cts {
            xi,
            buffer_space,
            msg,
        } => {
            w.u8(2);
            w.f64(*xi);
            w.u32(*buffer_space);
            w.u64(msg.0);
        }
        MacPayload::Schedule { receivers, msg } => {
            w.u8(3);
            w.seq(receivers, |w, &(id, ftd)| {
                w_node_id(w, id);
                w.f64(ftd);
            });
            w.u64(msg.0);
        }
        MacPayload::Data { msg } => {
            w.u8(4);
            w_message(w, msg);
        }
        MacPayload::Ack { msg } => {
            w.u8(5);
            w.u64(msg.0);
        }
    }
}

fn r_payload(r: &mut SnapReader, lim: Limits, budget: bool) -> Result<MacPayload, SnapError> {
    Ok(match r.u8()? {
        0 => MacPayload::Preamble,
        1 => MacPayload::Rts {
            xi: r_unit(r, "RTS ξ")?,
            ftd: r_rts_ftd(r, budget)?,
            window_slots: r.u32()?,
            msg: MessageId(r.u64()?),
        },
        2 => MacPayload::Cts {
            xi: r_unit(r, "CTS ξ")?,
            buffer_space: r.u32()?,
            msg: MessageId(r.u64()?),
        },
        3 => MacPayload::Schedule {
            receivers: r.seq(|r| Ok((r_node_id(r, lim.n)?, r_unit(r, "FTD")?)))?,
            msg: MessageId(r.u64()?),
        },
        4 => MacPayload::Data {
            msg: r_message(r, lim)?,
        },
        5 => MacPayload::Ack {
            msg: MessageId(r.u64()?),
        },
        t => return Err(SnapError::new(format!("bad MacPayload tag {t}"))),
    })
}

fn w_timer(w: &mut SnapWriter, t: Timer) {
    w.u8(match t {
        Timer::WakeUp => 0,
        Timer::ListenDone => 1,
        Timer::CtsSlot => 2,
        Timer::CtsWindowEnd => 3,
        Timer::AckSlot => 4,
        Timer::AckWindowEnd => 5,
        Timer::Guard => 6,
    });
}

fn r_timer(r: &mut SnapReader) -> Result<Timer, SnapError> {
    Ok(match r.u8()? {
        0 => Timer::WakeUp,
        1 => Timer::ListenDone,
        2 => Timer::CtsSlot,
        3 => Timer::CtsWindowEnd,
        4 => Timer::AckSlot,
        5 => Timer::AckWindowEnd,
        6 => Timer::Guard,
        t => return Err(SnapError::new(format!("bad Timer tag {t}"))),
    })
}

fn w_event(w: &mut SnapWriter, e: &Event) {
    match e {
        Event::MobilityTick => w.u8(0),
        Event::DataGen(i) => {
            w.u8(1);
            w_node_id(w, *i);
        }
        Event::MetricTimeout(i) => {
            w.u8(2);
            w_node_id(w, *i);
        }
        Event::TxEnd(i, handle) => {
            w.u8(3);
            w_node_id(w, *i);
            w.u64(handle.raw());
        }
        Event::Timer(i, epoch, timer) => {
            w.u8(4);
            w_node_id(w, *i);
            w.u64(*epoch);
            w_timer(w, *timer);
        }
        Event::Fault(k) => {
            w.u8(5);
            w.usize(*k);
        }
        Event::ObserveTick => w.u8(6),
    }
}

/// Reads a pending event; `faults` is the fault plan's length.
fn r_event(r: &mut SnapReader, n: usize, faults: usize) -> Result<Event, SnapError> {
    Ok(match r.u8()? {
        0 => Event::MobilityTick,
        1 => Event::DataGen(r_node_id(r, n)?),
        2 => Event::MetricTimeout(r_node_id(r, n)?),
        3 => Event::TxEnd(r_node_id(r, n)?, TxHandle::from_raw(r.u64()?)),
        4 => Event::Timer(r_node_id(r, n)?, r.u64()?, r_timer(r)?),
        5 => {
            let k = r.usize()?;
            if k >= faults {
                return Err(SnapError::new(format!(
                    "fault event {k} of a {faults}-event plan"
                )));
            }
            Event::Fault(k)
        }
        6 => Event::ObserveTick,
        t => return Err(SnapError::new(format!("bad Event tag {t}"))),
    })
}

// ---------------------------------------------------------------------
// Parameter sections
// ---------------------------------------------------------------------

fn w_scenario(w: &mut SnapWriter, s: &ScenarioParams) {
    w.f64(s.area_width_m);
    w.f64(s.area_height_m);
    w.usize(s.zone_cols);
    w.usize(s.zone_rows);
    w.usize(s.sensors);
    w.usize(s.sinks);
    w.f64(s.speed_min_mps);
    w.f64(s.speed_max_mps);
    w.f64(s.zone_exit_prob);
    w.usize(s.queue_capacity);
    w.f64(s.data_interval_secs);
    w.u64(s.data_bits);
    w.u64(s.control_bits);
    w.u64(s.channel.bandwidth_bps);
    w.f64(s.channel.range_m);
    w.f64(s.energy.p_tx_w);
    w.f64(s.energy.p_rx_w);
    w.f64(s.energy.p_idle_w);
    w.f64(s.energy.p_sleep_w);
    w.f64(s.energy.e_switch_j);
    w.u64(s.duration_secs);
    w.f64(s.mobility_tick_secs);
}

fn r_scenario(r: &mut SnapReader) -> Result<ScenarioParams, SnapError> {
    Ok(ScenarioParams {
        area_width_m: r.f64()?,
        area_height_m: r.f64()?,
        zone_cols: r.usize()?,
        zone_rows: r.usize()?,
        sensors: r.usize()?,
        sinks: r.usize()?,
        speed_min_mps: r.f64()?,
        speed_max_mps: r.f64()?,
        zone_exit_prob: r.f64()?,
        queue_capacity: r.usize()?,
        data_interval_secs: r.f64()?,
        data_bits: r.u64()?,
        control_bits: r.u64()?,
        channel: dftmsn_radio::channel::ChannelParams {
            bandwidth_bps: r.u64()?,
            range_m: r.f64()?,
        },
        energy: dftmsn_radio::energy::EnergyModel {
            p_tx_w: r.f64()?,
            p_rx_w: r.f64()?,
            p_idle_w: r.f64()?,
            p_sleep_w: r.f64()?,
            e_switch_j: r.f64()?,
        },
        duration_secs: r.u64()?,
        mobility_tick_secs: r.f64()?,
    })
}

fn w_protocol(w: &mut SnapWriter, p: &ProtocolParams) {
    w.f64(p.alpha);
    w.f64(p.xi_timeout_secs);
    w.f64(p.delivery_threshold_r);
    w.f64(p.ftd_drop_threshold);
    w.usize(p.inactivity_cycles_l);
    w.usize(p.history_window_s);
    w.f64(p.sleep_h);
    w.f64(p.urgency_ftd_bound);
    w.f64(p.t_min_secs);
    w.f64(p.tau_collision_target);
    w.u64(p.tau_max_cap_slots);
    w.u64(p.tau_max_fixed_slots);
    w.f64(p.cts_collision_target);
    w.u64(p.cts_window_cap);
    w.u64(p.cts_window_fixed);
    w.f64(p.fixed_sleep_secs);
    w.f64(p.proc_gap_secs);
    w.f64(p.backoff_min_secs);
    w.f64(p.backoff_max_secs);
    w.f64(p.receiver_window_secs);
    w.f64(p.neighbor_ttl_secs);
}

fn r_protocol(r: &mut SnapReader) -> Result<ProtocolParams, SnapError> {
    Ok(ProtocolParams {
        alpha: r.f64()?,
        xi_timeout_secs: r.f64()?,
        delivery_threshold_r: r.f64()?,
        ftd_drop_threshold: r.f64()?,
        inactivity_cycles_l: r.usize()?,
        history_window_s: r.usize()?,
        sleep_h: r.f64()?,
        urgency_ftd_bound: r.f64()?,
        t_min_secs: r.f64()?,
        tau_collision_target: r.f64()?,
        tau_max_cap_slots: r.u64()?,
        tau_max_fixed_slots: r.u64()?,
        cts_collision_target: r.f64()?,
        cts_window_cap: r.u64()?,
        cts_window_fixed: r.u64()?,
        fixed_sleep_secs: r.f64()?,
        proc_gap_secs: r.f64()?,
        backoff_min_secs: r.f64()?,
        backoff_max_secs: r.f64()?,
        receiver_window_secs: r.f64()?,
        neighbor_ttl_secs: r.f64()?,
    })
}

// ---------------------------------------------------------------------
// Node state
// ---------------------------------------------------------------------

/// Encodes one node. `neighbors` is a scratch buffer reused across nodes.
fn w_node(w: &mut SnapWriter, node: &Node, neighbors: &mut Vec<(NodeId, NeighborEntry)>) {
    w.f64(node.metric.value());
    w.usize(node.queue.len());
    for m in node.queue.iter() {
        w_message(w, m);
    }
    let history = node.sleep.history();
    w.usize(history.len());
    for outcome in history {
        w.bool(outcome);
    }
    node.table.sorted_entries_into(neighbors);
    w.seq(neighbors, |w, &(id, e)| {
        w_node_id(w, id);
        w.f64(e.xi);
        w_time(w, e.last_seen);
    });
    w_mac_state(w, node.state);
    w.u64(node.epoch);
    w.usize(node.cycles_inactive);
    w.u32(node.listen_retries);
    w_time(w, node.last_tx);
    w.bool(node.alive);
    w.bool(node.battery_dead);
    w.f64(node.corrupt_rx_prob);
    w_time(w, node.xi_anchor);
    w.option(node.cached_tau.as_ref(), |w, &(at, tau)| {
        w_time(w, at);
        w.u64(tau);
    });
    let (state, since, per_state_j, switch_j, switches) = node.meter.raw_parts();
    w_radio_state(w, state);
    w_time(w, since);
    for j in per_state_j {
        w.f64(j);
    }
    w.f64(switch_j);
    w.u64(switches);
    w_rng(w, &node.rng);
    w.option(node.sender_ctx.as_ref(), |w, ctx| {
        w_message(w, &ctx.msg);
        w.u32(ctx.window_slots);
        w.seq(&ctx.candidates, |w, c| {
            w_node_id(w, c.id);
            w.f64(c.xi);
            w.usize(c.buffer_space);
        });
        w.option(ctx.selection.as_ref(), |w, sel| {
            w.seq(&sel.receivers, |w, &(id, ftd)| {
                w_node_id(w, id);
                w.f64(ftd.value());
            });
            w.seq(&sel.receiver_xis, |w, &xi| w.f64(xi));
            w.f64(sel.combined_delivery);
        });
        w.seq(&ctx.acked, |w, &id| w_node_id(w, id));
    });
    w.option(node.receiver_ctx.as_ref(), |w, ctx| {
        w_node_id(w, ctx.sender);
        w.u64(ctx.msg.0);
        w.f64(ctx.rts_ftd);
        w.u32(ctx.window_slots);
        w_time(w, ctx.rts_end);
        w.option(ctx.assigned_ftd.as_ref(), |w, ftd| w.f64(ftd.value()));
        w.u32(ctx.ack_slot);
    });
}

/// The fewest payload bytes one node's records can take: the record of a
/// fresh node (empty queue, history and table, no exchange context) and
/// its two medium entries. A sink writes no mobility bytes.
fn min_node_bytes() -> usize {
    let fresh = Node::new(NodeId(0), NodeRole::Sensor, 1, 2, SimRng::seed_from(0));
    let mut w = SnapWriter::with_capacity(256);
    w_node(&mut w, &fresh, &mut Vec::new());
    w.into_bytes().len() + 2
}

/// Decodes one node into `node`, freshly built by `construct_static` (so
/// its sleep history and neighbor table are empty). `budget` says whether
/// RTS `ftd` fields carry a two-hop copy budget; `tau_cap` bounds a cached
/// τ_max.
fn restore_node(
    r: &mut SnapReader,
    node: &mut Node,
    lim: Limits,
    budget: bool,
    tau_cap: u64,
) -> Result<(), SnapError> {
    node.metric = DeliveryProb::new(r_unit(r, "delivery metric")?);
    let capacity = node.queue.capacity();
    let len = r.seq_len()?;
    if len > capacity {
        return Err(SnapError::new(format!(
            "queue of {len} items exceeds capacity {capacity}"
        )));
    }
    let mut items: Vec<Message> = Vec::with_capacity(len);
    for _ in 0..len {
        let m = r_message(r, lim)?;
        if items
            .last()
            .is_some_and(|p| (p.ftd.value(), p.id.0) > (m.ftd.value(), m.id.0))
        {
            return Err(SnapError::new("queue items out of FTD order"));
        }
        items.push(m);
    }
    node.queue = FtdQueue::from_sorted_items(capacity, items);
    let len = r.seq_len()?;
    if len > node.sleep.window() {
        return Err(SnapError::new("sleep history exceeds its window"));
    }
    for _ in 0..len {
        node.sleep.record_cycle(r.bool()?);
    }
    let len = r.seq_len()?;
    node.table = NeighborTable::with_capacity(len);
    for _ in 0..len {
        let id = r_node_id(r, lim.n)?;
        let xi = r_unit(r, "neighbor ξ")?;
        let last_seen = r_past(r, lim.now)?;
        node.table.observe(id, xi, last_seen);
    }
    node.state = r_mac_state(r)?;
    node.epoch = r.u64()?;
    node.cycles_inactive = r.usize()?;
    node.listen_retries = r.u32()?;
    node.last_tx = r_past(r, lim.now)?;
    node.alive = r.bool()?;
    node.battery_dead = r.bool()?;
    node.corrupt_rx_prob = r_unit(r, "corruption probability")?;
    node.xi_anchor = r_past(r, lim.now)?;
    node.cached_tau = r.option(|r| {
        let at = r_past(r, lim.now)?;
        let tau = r.u64()?;
        if !(1..=tau_cap).contains(&tau) {
            return Err(SnapError::new(format!(
                "cached τ_max {tau} outside [1, {tau_cap}]"
            )));
        }
        Ok((at, tau))
    })?;
    let state = r_radio_state(r)?;
    let since = r_past(r, lim.now)?;
    let per_state_j = [r.f64()?, r.f64()?, r.f64()?, r.f64()?];
    let switch_j = r.f64()?;
    let switches = r.u64()?;
    node.meter = EnergyMeter::from_raw_parts(state, since, per_state_j, switch_j, switches);
    node.rng = r_rng(r)?;
    node.sender_ctx = r.option(|r| {
        Ok(SenderCtx {
            msg: r_message(r, lim)?,
            window_slots: r.u32()?,
            candidates: r.seq(|r| {
                Ok(Candidate {
                    id: r_node_id(r, lim.n)?,
                    xi: r_unit(r, "candidate ξ")?,
                    buffer_space: r.usize()?,
                })
            })?,
            selection: r.option(|r| {
                let receivers =
                    r.seq(|r| Ok((r_node_id(r, lim.n)?, Ftd::new(r_unit(r, "FTD")?))))?;
                let receiver_xis = r.seq(|r| r_unit(r, "receiver ξ"))?;
                if receiver_xis.len() != receivers.len() {
                    return Err(SnapError::new(format!(
                        "selection of {} receivers carries {} ξ values",
                        receivers.len(),
                        receiver_xis.len()
                    )));
                }
                Ok(Selection {
                    receivers,
                    receiver_xis,
                    combined_delivery: r.f64()?,
                })
            })?,
            acked: r.seq(|r| r_node_id(r, lim.n))?,
        })
    })?;
    node.receiver_ctx = r.option(|r| {
        Ok(ReceiverCtx {
            sender: r_node_id(r, lim.n)?,
            msg: MessageId(r.u64()?),
            rts_ftd: r_rts_ftd(r, budget)?,
            window_slots: r.u32()?,
            rts_end: r_past(r, lim.now)?,
            assigned_ftd: r.option(|r| Ok(Ftd::new(r_unit(r, "FTD")?)))?,
            ack_slot: r.u32()?,
        })
    })?;
    check_mac_context(node)
}

/// The MAC states whose handlers need an exchange context must carry it.
fn check_mac_context(node: &Node) -> Result<(), SnapError> {
    use MacState as S;
    let sender = matches!(
        node.state,
        S::Transmitting(TxPlan::Preamble | TxPlan::Rts | TxPlan::Schedule)
            | S::CollectCts
            | S::AwaitAcks
    );
    let receiver = matches!(
        node.state,
        S::Transmitting(TxPlan::Cts)
            | S::CtsPending
            | S::AwaitSchedule
            | S::AwaitData
            | S::AckPending
    );
    let selected = node
        .sender_ctx
        .as_ref()
        .is_some_and(|c| c.selection.is_some());
    if (sender && node.sender_ctx.is_none())
        || (receiver && node.receiver_ctx.is_none())
        || (node.state == S::AwaitAcks && !selected)
    {
        return Err(SnapError::new(format!(
            "MAC state {:?} without its exchange context",
            node.state
        )));
    }
    Ok(())
}

/// Whether a live timer of this kind can be pending in `state`: every
/// handler but `WakeUp` and `Guard` requires one specific state, and a
/// state change bumps the epoch, staling the timers scheduled before it.
fn timer_fits(timer: Timer, state: MacState) -> bool {
    match timer {
        Timer::WakeUp | Timer::Guard => true,
        Timer::ListenDone => state == MacState::SenderListen,
        Timer::CtsSlot => state == MacState::CtsPending,
        Timer::CtsWindowEnd => state == MacState::CollectCts,
        Timer::AckSlot => state == MacState::AckPending,
        Timer::AckWindowEnd => state == MacState::AwaitAcks,
    }
}

// ---------------------------------------------------------------------
// Metrics sections
// ---------------------------------------------------------------------

fn w_run_metrics(w: &mut SnapWriter, m: &RunMetrics) {
    w.u64(m.generated);
    w.u64(m.delivered);
    w.u64(m.sink_receptions);
    w_stats(w, &m.delay);
    w_hist(w, &m.delay_hist);
    w.u64(m.drops_overflow);
    w.u64(m.drops_rejected);
    w.u64(m.drops_ftd);
    w.u64(m.attempts);
    w.u64(m.failed_attempts);
    w.u64(m.multicasts);
    w.u64(m.copies_sent);
    w.u64(m.control_bits);
    w.u64(m.data_bits);
    w_fault_counters(w, &m.faults);
}

fn r_run_metrics(r: &mut SnapReader) -> Result<RunMetrics, SnapError> {
    let generated = r.u64()?;
    let delivered = r.u64()?;
    let sink_receptions = r.u64()?;
    let delay = r_stats(r)?;
    let delay_hist = r_hist(r, "delay")?;
    let mut m = RunMetrics::new(1.0);
    m.generated = generated;
    m.delivered = delivered;
    m.sink_receptions = sink_receptions;
    m.delay = delay;
    m.delay_hist = delay_hist;
    m.drops_overflow = r.u64()?;
    m.drops_rejected = r.u64()?;
    m.drops_ftd = r.u64()?;
    m.attempts = r.u64()?;
    m.failed_attempts = r.u64()?;
    m.multicasts = r.u64()?;
    m.copies_sent = r.u64()?;
    m.control_bits = r.u64()?;
    m.data_bits = r.u64()?;
    m.faults = r_fault_counters(r)?;
    Ok(m)
}

fn w_fault_counters(w: &mut SnapWriter, f: &FaultCounters) {
    w.u64(f.crashes);
    w.u64(f.recoveries);
    w.u64(f.battery_deaths);
    w.u64(f.sink_outages);
    w.u64(f.messages_lost_to_crash);
    w.u64(f.frames_dropped);
    w.u64(f.data_corrupted);
    w.u64(f.retransmissions_triggered);
    w.u64(f.deliveries_despite_faults);
    w.u64(f.behavior_changes);
    w.u64(f.copies_captured);
    w.u64(f.forged_frames);
    w.u64(f.forged_detected);
    w.u64(f.lied_advertisements);
}

fn r_fault_counters(r: &mut SnapReader) -> Result<FaultCounters, SnapError> {
    Ok(FaultCounters {
        crashes: r.u64()?,
        recoveries: r.u64()?,
        battery_deaths: r.u64()?,
        sink_outages: r.u64()?,
        messages_lost_to_crash: r.u64()?,
        frames_dropped: r.u64()?,
        data_corrupted: r.u64()?,
        retransmissions_triggered: r.u64()?,
        deliveries_despite_faults: r.u64()?,
        behavior_changes: r.u64()?,
        copies_captured: r.u64()?,
        forged_frames: r.u64()?,
        forged_detected: r.u64()?,
        lied_advertisements: r.u64()?,
    })
}

// ---------------------------------------------------------------------
// Whole-simulation encode/decode
// ---------------------------------------------------------------------

impl Simulation {
    /// Serializes the complete live state into a framed, checksummed
    /// `dftmsn-ckpt/6` byte buffer. Call between events — e.g. after
    /// [`step`](Self::step) returns — so the snapshot sits on an event
    /// boundary.
    ///
    /// Takes `&mut self` only to settle outstanding ticked coast leases
    /// into their mobility models first; the settle is observationally a
    /// no-op, so checkpointing never perturbs the run.
    #[must_use]
    pub fn checkpoint_bytes(&mut self) -> Vec<u8> {
        self.mobility.settle();
        // Rounded up to a power of two so that successive checkpoints of
        // one run ask the allocator for the same block size and reuse the
        // block the last one freed. The bound itself drifts by a few
        // bytes from one checkpoint to the next; a request a little larger
        // than the freed block lands elsewhere in the heap, and the peak
        // resident set then depends on the run.
        let mut w = SnapWriter::with_capacity(self.ckpt_len_bound().next_power_of_two());
        w.raw(CKPT_MAGIC);
        w.u64(0); // payload length, patched below
        self.encode_payload(&mut w);
        let mut out = w.into_bytes();
        let len = (out.len() - HEADER_LEN) as u64;
        out[CKPT_MAGIC.len()..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        let sum = checksum64(&out[HEADER_LEN..]);
        out.extend_from_slice(&sum.to_le_bytes());
        // Return only the frame. The block's unwritten tail (10 MiB of 16
        // at 20 000 sensors) would otherwise live as long as the caller's
        // bytes, and whether it sits on resident pages depends on where
        // the heap placed the block: the peak resident set of a run
        // checkpointed every 10 simulated seconds would swing by 8 MiB
        // between otherwise identical runs. The system allocator shrinks
        // the block in place.
        out.shrink_to_fit();
        out
    }

    /// An upper bound on the length of the frame `checkpoint_bytes`
    /// writes, so it encodes into one buffer that never grows: each
    /// variable part is its element count times its largest encoding.
    fn ckpt_len_bound(&self) -> usize {
        // Header, checksum, parameters, clock and counters.
        const FIXED: usize = 2048;
        // A node's fixed-size fields and its largest receiver context.
        const NODE: usize = 256;
        const MESSAGE: usize = 36;
        const NEIGHBOR: usize = 24;
        // Listening flag plus an optional (tx id, corrupted) reception.
        const MEDIUM_NODE: usize = 11;
        // A frame in flight, including a long audible list.
        const AIRBORNE: usize = 1024;
        const EVENT: usize = 26;
        const DELIVERY: usize = 44;
        let n = self.nodes.len();
        let nodes: usize = self
            .nodes
            .iter()
            .map(|node| {
                let sender = node.sender_ctx.as_ref().map_or(0, |c| {
                    let chosen = c.selection.as_ref().map_or(0, |s| s.receivers.len());
                    128 + 24 * (c.candidates.len() + chosen) + 8 * c.acked.len()
                });
                NODE + MESSAGE * node.queue.len()
                    + node.sleep.window()
                    + NEIGHBOR * node.table.len()
                    + sender
            })
            .sum();
        let (_, _, buckets, _, _) = self.metrics.delay_hist.raw_parts();
        FIXED
            + self.faults.ckpt_len_bound()
            + self.policy.ckpt_len_bound()
            + self.mobility.ckpt_len_bound()
            + MEDIUM_NODE * n
            + nodes
            + AIRBORNE * self.medium.airborne()
            + 8 * (buckets.len() + self.delivered_ids.raw_words().len())
            + DELIVERY * self.deliveries.len()
            + EVENT * self.events.len()
            + self.observers.ckpt_len_bound()
    }

    fn encode_payload(&self, w: &mut SnapWriter) {
        // Parameters — everything construct_static() needs to rebuild the
        // static world (zones, timings, grid geometry, model parameters).
        w_scenario(w, &self.scenario);
        w_protocol(w, &self.protocol);
        w.u64(self.seed);
        w.bool(self.mobility.mode() == MobilityMode::Lazy);

        self.faults.encode(w);

        // The clock and the event and message-id counts: the bounds the
        // rest of the payload is checked against on decode.
        w_time(w, self.events.now());
        w.u64(self.events.popped());
        w.u64(self.ids.issued());

        self.policy.encode(w);

        // Node motion: streams and model states (positions are derived
        // from these on restore).
        self.mobility.encode(w);

        // Per-node protocol state.
        let mut neighbors = Vec::new();
        w.usize(self.nodes.len());
        for node in &self.nodes {
            w_node(w, node, &mut neighbors);
        }

        // The radio medium, including frames in flight.
        let medium = self.medium.snapshot_state();
        w.seq(&medium.listening, |w, &b| w.bool(b));
        w.seq(&medium.rx, |w, rx| {
            w.option(rx.as_ref(), |w, &(tx, corrupted)| {
                w.u64(tx);
                w.bool(corrupted);
            });
        });
        w.seq(&medium.active, |w, tx| {
            w.u64(tx.id);
            w_node_id(w, tx.frame.src);
            w.u64(tx.frame.bits);
            w_payload(w, &tx.frame.payload);
            w.seq(&tx.audible, |w, &id| w_node_id(w, id));
            w_time(w, tx.start);
        });
        w.u64(medium.next_id);
        w.u64(medium.counters.frames_sent);
        w.u64(medium.counters.collisions);

        // Bookkeeping and counters.
        w.seq(self.delivered_ids.raw_words(), |w, &word| w.u64(word));
        w_run_metrics(w, &self.metrics);
        w.seq(&self.deliveries, |w, d| d.encode(w));

        // The pending event set in firing order; restore re-issues
        // sequence numbers in this order, preserving same-instant
        // tie-breaking.
        let pending = self.events.len();
        w.usize(pending);
        let mut written = 0;
        self.events.for_each_pending(|at, ev| {
            w_time(w, at);
            w_event(w, ev);
            written += 1;
        });
        debug_assert_eq!(written, pending, "live-event count drifted");

        self.observers.encode(w);
    }

    /// Reconstructs a simulation from [`checkpoint_bytes`] output.
    ///
    /// Returns the simulation plus the restored observer (when the
    /// checkpointed run had one); see [`Resumed::recorder`] for how to
    /// re-attach its output stream.
    ///
    /// # Errors
    ///
    /// [`CkptError::Corrupt`] on bad magic, an unsupported version,
    /// truncation, checksum mismatch or a malformed payload;
    /// [`CkptError::Invalid`] when the decoded parameters fail validation.
    ///
    /// [`checkpoint_bytes`]: Self::checkpoint_bytes
    pub fn resume_from_bytes(
        bytes: &[u8],
    ) -> Result<(Simulation, Option<MetricsRecorder>), CkptError> {
        if bytes.len() < HEADER_LEN + 8 {
            return Err(CkptError::corrupt(format!(
                "file too short ({} bytes) to be a checkpoint",
                bytes.len()
            )));
        }
        let magic = &bytes[..CKPT_MAGIC.len()];
        if magic != CKPT_MAGIC {
            return Err(CkptError::corrupt(if magic.starts_with(MAGIC_FAMILY) {
                format!(
                    "unsupported checkpoint version {} (this build reads {})",
                    String::from_utf8_lossy(magic),
                    String::from_utf8_lossy(CKPT_MAGIC)
                )
            } else {
                "bad magic: not a dftmsn checkpoint file".to_owned()
            }));
        }
        let len = u64::from_le_bytes(
            bytes[CKPT_MAGIC.len()..HEADER_LEN]
                .try_into()
                .expect("8-byte length field"),
        );
        let body = bytes.len() - HEADER_LEN - 8;
        if len != body as u64 {
            return Err(CkptError::corrupt(format!(
                "length mismatch: header says {len} payload bytes, file holds {body}"
            )));
        }
        let (payload, sum) = bytes[HEADER_LEN..].split_at(body);
        let stored = u64::from_le_bytes(sum.try_into().expect("8-byte checksum"));
        let actual = checksum64(payload);
        if stored != actual {
            return Err(CkptError::corrupt(format!(
                "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
            )));
        }
        let mut r = SnapReader::new(payload);
        let out = Self::decode_payload(&mut r)?;
        if !r.is_exhausted() {
            return Err(CkptError::corrupt(format!(
                "{} trailing bytes after the payload",
                r.remaining()
            )));
        }
        Ok(out)
    }

    fn decode_payload(
        r: &mut SnapReader,
    ) -> Result<(Simulation, Option<MetricsRecorder>), CkptError> {
        let scenario = r_scenario(r)?;
        let protocol = r_protocol(r)?;
        let seed = r.u64()?;
        let mode = if r.bool()? {
            MobilityMode::Lazy
        } else {
            MobilityMode::Ticked
        };
        scenario.validate().map_err(|e| CkptError::Invalid {
            detail: format!("scenario: {e}"),
        })?;
        protocol.validate().map_err(|e| CkptError::Invalid {
            detail: format!("protocol: {e}"),
        })?;
        let n = scenario.node_count();
        // The fault block and construct_static allocate per node, so a
        // node count the rest of the payload cannot hold is rejected
        // before they do.
        let need = n.saturating_mul(min_node_bytes());
        if need > r.remaining() {
            return Err(CkptError::corrupt(format!(
                "{n} nodes need at least {need} payload bytes, {} left",
                r.remaining()
            )));
        }
        let faults = FaultInjector::decode(r, &scenario)?;

        let now = r_time(r)?;
        let popped = r.u64()?;
        let issued = r.u64()?;
        let lim = Limits { n, now, issued };

        let policy = Policy::decode(r, n, now)?;
        let budget = matches!(policy, Policy::TwoHop(_));

        // Rebuild the static world; every random draw construction makes
        // is immaterial because each stream is overwritten below.
        let mut sim = Simulation::construct_static(scenario, protocol, policy, seed, mode);
        sim.faults = faults;

        sim.mobility.decode(r, now)?;

        let node_count = r.usize()?;
        if node_count != n {
            return Err(CkptError::corrupt(format!(
                "{node_count} node records for {n} nodes"
            )));
        }
        let tau_cap = sim.protocol.tau_max_cap_slots;
        for node in &mut sim.nodes {
            restore_node(r, node, lim, budget, tau_cap)?;
        }
        // The alive census is derived state: recompute it from restored
        // node liveness rather than trusting the wire.
        let alive_sensors = sim
            .nodes
            .iter()
            .take(sim.scenario.sensors)
            .filter(|node| node.alive)
            .count();
        sim.faults.restore_census(alive_sensors, now)?;

        let listening = r.seq(|r| r.bool())?;
        let rx = r.seq(|r| r.option(|r| Ok((r.u64()?, r.bool()?))))?;
        let active = r.seq(|r| {
            Ok(ActiveTxState {
                id: r.u64()?,
                frame: Frame {
                    src: r_node_id(r, n)?,
                    bits: r.u64()?,
                    payload: r_payload(r, lim, budget)?,
                },
                audible: r.seq(|r| r_node_id(r, n))?,
                start: r_past(r, now)?,
            })
        })?;
        let next_id = r.u64()?;
        let counters = dftmsn_radio::medium::MediumCounters {
            frames_sent: r.u64()?,
            collisions: r.u64()?,
        };
        if listening.len() != n || rx.len() != n {
            return Err(CkptError::corrupt("medium table length mismatch"));
        }
        if active.iter().any(|tx| tx.id >= next_id) {
            return Err(CkptError::corrupt(
                "a frame in flight has an id the medium has not issued",
            ));
        }
        // Each frame in flight must be ended by exactly one pending TxEnd
        // from its source; the flag marks the ones already claimed.
        let mut airborne: Vec<(u64, NodeId, bool)> = active
            .iter()
            .map(|tx| (tx.id, tx.frame.src, false))
            .collect();
        sim.medium = Medium::restore_state(MediumState {
            listening,
            rx,
            active,
            next_id,
            counters,
        });

        sim.ids = MessageIdAllocator::from_issued(issued);
        let words = r.seq(|r| r.u64())?;
        if words.len() as u64 > issued.div_ceil(64) {
            return Err(CkptError::corrupt(
                "delivered-message set covers ids never issued",
            ));
        }
        sim.delivered_ids = DeliveredSet::from_raw_words(words);
        sim.metrics = r_run_metrics(r)?;
        // Every message id is allocated exactly when a message is generated.
        if sim.metrics.generated != issued {
            return Err(CkptError::corrupt(format!(
                "{} messages generated but {issued} ids issued",
                sim.metrics.generated
            )));
        }
        sim.deliveries = r.seq(|r| DeliveryRecord::decode(r, n))?;

        sim.events = EventQueue::restore(now, popped);
        let pending_count = r.seq_len()?;
        for _ in 0..pending_count {
            let at = r_time(r)?;
            if at < now {
                return Err(CkptError::corrupt(format!(
                    "pending event at {at} precedes the checkpoint clock {now}"
                )));
            }
            let ev = r_event(r, n, sim.faults.plan_len())?;
            match ev {
                Event::TxEnd(i, handle) => {
                    let frame = airborne
                        .iter_mut()
                        .find(|(id, src, ended)| *id == handle.raw() && *src == i && !*ended);
                    let Some(frame) = frame else {
                        return Err(CkptError::corrupt(format!(
                            "frame end for node {i} names no frame it has in flight"
                        )));
                    };
                    frame.2 = true;
                    let node = &sim.nodes[i.index()];
                    let state = node.state;
                    if node.alive && !matches!(state, MacState::Transmitting(_)) {
                        return Err(CkptError::corrupt(format!(
                            "frame end for node {i} in MAC state {state:?}"
                        )));
                    }
                }
                Event::Timer(i, epoch, timer) => {
                    let node = &sim.nodes[i.index()];
                    let state = node.state;
                    if epoch == node.epoch && !timer_fits(timer, state) {
                        return Err(CkptError::corrupt(format!(
                            "live {timer:?} timer for node {i} in MAC state {state:?}"
                        )));
                    }
                }
                _ => {}
            }
            sim.events.schedule_at(at, ev);
        }
        if airborne.iter().any(|&(_, _, ended)| !ended) {
            return Err(CkptError::corrupt("a frame in flight has no pending end"));
        }

        let recorder = sim.observers.decode(r, now, popped)?;
        Ok((sim, recorder))
    }

    /// Atomically writes a checkpoint file: the bytes go to `<path>.tmp`,
    /// any existing checkpoint rotates to `<path>.bak`, and the temp file
    /// renames into place. A crash mid-write therefore never destroys the
    /// last good checkpoint.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when any filesystem step fails.
    pub fn checkpoint(&mut self, path: &Path) -> Result<(), CkptError> {
        let bytes = self.checkpoint_bytes();
        let tmp = sibling(path, ".tmp");
        fs::write(&tmp, &bytes).map_err(|e| CkptError::Io {
            op: "write checkpoint",
            path: tmp.clone(),
            source: e,
        })?;
        if path.exists() {
            let bak = sibling(path, ".bak");
            fs::rename(path, &bak).map_err(|e| CkptError::Io {
                op: "rotate checkpoint to",
                path: bak,
                source: e,
            })?;
        }
        fs::rename(&tmp, path).map_err(|e| CkptError::Io {
            op: "commit checkpoint",
            path: path.to_owned(),
            source: e,
        })
    }

    /// Loads a checkpoint file and reconstructs the run, falling back to
    /// the `<path>.bak` rotation when the primary file is corrupt.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the file cannot be read,
    /// [`CkptError::Corrupt`]/[`CkptError::Invalid`] when neither the
    /// primary nor the backup parses (the primary's error is reported).
    pub fn resume(path: &Path) -> Result<Resumed, CkptError> {
        match Self::resume_file(path) {
            Ok((sim, recorder)) => Ok(Resumed {
                sim,
                recorder,
                from_backup: false,
            }),
            Err(primary) if primary.is_corrupt() => {
                let bak = sibling(path, ".bak");
                match Self::resume_file(&bak) {
                    Ok((sim, recorder)) => Ok(Resumed {
                        sim,
                        recorder,
                        from_backup: true,
                    }),
                    Err(_) => Err(primary),
                }
            }
            Err(e) => Err(e),
        }
    }

    fn resume_file(path: &Path) -> Result<(Simulation, Option<MetricsRecorder>), CkptError> {
        let bytes = fs::read(path).map_err(|e| CkptError::Io {
            op: "read checkpoint",
            path: path.to_owned(),
            source: e,
        })?;
        Self::resume_from_bytes(&bytes).map_err(|e| e.with_path(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::variants::ProtocolKind;
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    /// A `Write` handle over a shared byte buffer, so tests can keep
    /// reading what the recorder streamed after handing the sink away.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn bytes(&self) -> Vec<u8> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn scenario() -> ScenarioParams {
        ScenarioParams {
            sensors: 16,
            sinks: 2,
            duration_secs: 800,
            ..ScenarioParams::paper_default()
        }
    }

    /// Pops events until the next one would land after `t`, leaving the
    /// simulation on an event boundary at or before `t`.
    fn run_until(sim: &mut Simulation, t: SimTime) {
        while sim.events.peek_time().is_some_and(|at| at <= t) {
            assert!(sim.step());
        }
    }

    fn build(kind: ProtocolKind, seed: u64, mode: MobilityMode) -> Simulation {
        Simulation::builder(scenario(), kind)
            .seed(seed)
            .mobility_mode(mode)
            .build()
    }

    #[test]
    fn mid_run_resume_reproduces_the_uninterrupted_run() {
        for kind in [ProtocolKind::Opt, ProtocolKind::Epidemic] {
            let baseline = build(kind, 7, MobilityMode::Ticked).run();

            let mut sim = build(kind, 7, MobilityMode::Ticked);
            run_until(&mut sim, SimTime::from_secs(400));
            let bytes = sim.checkpoint_bytes();
            drop(sim);

            let (resumed, recorder) = Simulation::resume_from_bytes(&bytes).unwrap();
            assert!(recorder.is_none());
            assert!(
                resumed.run().snap_bytes() == baseline.snap_bytes(),
                "{kind}: the resumed report drifted"
            );
        }
    }

    #[test]
    fn lazy_mode_resume_is_bit_identical() {
        let baseline = build(ProtocolKind::Opt, 11, MobilityMode::Lazy).run();

        let mut sim = build(ProtocolKind::Opt, 11, MobilityMode::Lazy);
        run_until(&mut sim, SimTime::from_secs(350));
        let bytes = sim.checkpoint_bytes();
        let (resumed, _) = Simulation::resume_from_bytes(&bytes).unwrap();
        assert!(resumed.run().snap_bytes() == baseline.snap_bytes());
    }

    #[test]
    fn resume_with_faults_preserves_fault_state() {
        let plan = FaultPlan::node_failures(&scenario(), 0.3, Some(120.0), 9);
        let baseline = Simulation::builder(scenario(), ProtocolKind::Opt)
            .seed(9)
            .faults(plan.clone())
            .build()
            .run();
        assert!(baseline.faults.crashes > 0, "plan must inject something");

        let mut sim = Simulation::builder(scenario(), ProtocolKind::Opt)
            .seed(9)
            .faults(plan)
            .build();
        run_until(&mut sim, SimTime::from_secs(400));
        let bytes = sim.checkpoint_bytes();
        let (resumed, _) = Simulation::resume_from_bytes(&bytes).unwrap();
        assert!(resumed.run().snap_bytes() == baseline.snap_bytes());
    }

    #[test]
    fn observer_stream_is_byte_identical_across_resume() {
        let window = 40.0;

        // Uninterrupted reference run.
        let full_buf = SharedBuf::default();
        let full_rec = MetricsRecorder::new(window).with_output(Box::new(full_buf.clone()));
        let _ = Simulation::builder(scenario(), ProtocolKind::Opt)
            .seed(21)
            .observe(full_rec)
            .build()
            .run();
        let want = full_buf.bytes();

        // Interrupted at 400 s, checkpointed, resumed in a "new process".
        let part_buf = SharedBuf::default();
        let part_rec = MetricsRecorder::new(window).with_output(Box::new(part_buf.clone()));
        let mut sim = Simulation::builder(scenario(), ProtocolKind::Opt)
            .seed(21)
            .observe(part_rec.clone())
            .build();
        run_until(&mut sim, SimTime::from_secs(400));
        let bytes = sim.checkpoint_bytes();
        let cursor = part_rec.bytes_written() as usize;
        let head = part_buf.bytes()[..cursor].to_vec();
        drop(sim);

        let (resumed, recorder) = Simulation::resume_from_bytes(&bytes).unwrap();
        let tail_buf = SharedBuf::default();
        let recorder = recorder.expect("observer state travels in the checkpoint");
        let _ = recorder.with_output(Box::new(tail_buf.clone()));
        let _ = resumed.run();

        let mut got = head;
        got.extend_from_slice(&tail_buf.bytes());
        assert_eq!(
            got, want,
            "resumed observe JSONL diverged from the uninterrupted stream"
        );
    }

    #[test]
    fn corruption_is_rejected_with_a_diagnostic() {
        let mut sim = build(ProtocolKind::Opt, 3, MobilityMode::Ticked);
        run_until(&mut sim, SimTime::from_secs(100));
        let bytes = sim.checkpoint_bytes();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        let err = Simulation::resume_from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // Any payload bit flip must fail the checksum.
        let mut flipped = bytes.clone();
        let mid = CKPT_MAGIC.len() + 8 + (flipped.len() - CKPT_MAGIC.len() - 16) / 2;
        flipped[mid] ^= 0x01;
        let err = Simulation::resume_from_bytes(&flipped).unwrap_err();
        assert!(err.is_corrupt(), "{err}");

        // Truncation.
        let err = Simulation::resume_from_bytes(&bytes[..bytes.len() - 9]).unwrap_err();
        assert!(err.is_corrupt(), "{err}");

        // Empty input.
        let err = Simulation::resume_from_bytes(&[]).unwrap_err();
        assert!(err.to_string().contains("too short"), "{err}");
    }

    #[test]
    fn checkpoint_file_rotates_and_falls_back_to_backup() {
        let dir = std::env::temp_dir().join(format!("dftmsn-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        let mut sim = build(ProtocolKind::Opt, 5, MobilityMode::Ticked);
        run_until(&mut sim, SimTime::from_secs(200));
        sim.checkpoint(&path).unwrap();
        run_until(&mut sim, SimTime::from_secs(400));
        sim.checkpoint(&path).unwrap();
        let baseline = sim.run().snap_bytes();

        // Both the primary and the rotated backup exist.
        assert!(path.exists());
        assert!(sibling(&path, ".bak").exists());

        // The healthy primary resumes and finishes identically.
        let resumed = Simulation::resume(&path).unwrap();
        assert!(!resumed.from_backup);
        assert!(resumed.sim.run().snap_bytes() == baseline);

        // Corrupt the primary: resume falls back to the 200 s backup and
        // still reaches the same end state (earlier checkpoint, same run).
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let recovered = Simulation::resume(&path).unwrap();
        assert!(recovered.from_backup);
        assert!(recovered.sim.run().snap_bytes() == baseline);

        // With the backup also gone, the corruption error surfaces.
        std::fs::remove_file(sibling(&path, ".bak")).unwrap();
        let err = Simulation::resume(&path).unwrap_err();
        assert!(err.is_corrupt(), "{err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_presized_frame_buffer_never_grows() {
        let plan = FaultPlan::node_failures(&scenario(), 0.3, Some(120.0), 9);
        let policies = [
            (ProtocolKind::Opt, PolicySpec::Builtin, MobilityMode::Ticked),
            (
                ProtocolKind::Epidemic,
                PolicySpec::Builtin,
                MobilityMode::Lazy,
            ),
            (
                ProtocolKind::Opt,
                PolicySpec::default_two_hop(),
                MobilityMode::Ticked,
            ),
            (
                ProtocolKind::Opt,
                PolicySpec::default_meeting_rate(),
                MobilityMode::Lazy,
            ),
        ];
        for (kind, policy, mode) in policies {
            let mut sim = Simulation::builder(scenario(), kind)
                .seed(4)
                .mobility_mode(mode)
                .policy(policy)
                .faults(plan.clone())
                .observe(MetricsRecorder::new(40.0))
                .build();
            for t in [0, 150, 400, 700] {
                run_until(&mut sim, SimTime::from_secs(t));
                let bound = sim.ckpt_len_bound();
                let len = sim.checkpoint_bytes().len();
                assert!(len <= bound, "{kind} {policy:?} at {t} s: {len} > {bound}");
            }
        }
    }

    #[test]
    fn partial_report_covers_the_elapsed_horizon() {
        let mut sim = build(ProtocolKind::Opt, 2, MobilityMode::Ticked);
        run_until(&mut sim, SimTime::from_secs(300));
        let report = sim.finish_partial();
        assert!(report.duration_secs <= 300.0 + 1.0);
        assert!(report.generated > 0);
        assert!(report.total_sensor_energy_j > 0.0);
    }
}
