//! Run metrics and the final [`SimReport`].
//!
//! [`RunMetrics`] is the live accumulator the world updates while events
//! fire; [`SimReport`] is the immutable summary a finished run returns —
//! the quantities the paper's evaluation plots (delivery ratio, average
//! nodal power consumption rate, average delivery delay) plus the
//! diagnostics behind them.

use crate::message::MessageId;
use crate::world::{r_node_id, w_node_id};
use dftmsn_metrics::histogram::Histogram;
use dftmsn_metrics::stats::RunningStats;
use dftmsn_radio::ids::NodeId;
use dftmsn_sim::snap::{SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

/// One first-copy delivery, for post-hoc coverage analysis (e.g. field
/// reconstruction in the sensing layer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeliveryRecord {
    /// The delivered message.
    pub msg: MessageId,
    /// The sensor that sensed it.
    pub origin: NodeId,
    /// Sensing time (s since run start).
    pub created_secs: f64,
    /// End-to-end delay (s).
    pub delay_secs: f64,
    /// The receiving sink.
    pub sink: NodeId,
    /// Handovers from the sensing node to the sink.
    pub hops: u32,
}

impl DeliveryRecord {
    /// Writes the record, shared by [`SimReport::snap_bytes`] and the
    /// checkpoint's run-metrics section.
    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.msg.0);
        w_node_id(w, self.origin);
        w.f64(self.created_secs);
        w.f64(self.delay_secs);
        w_node_id(w, self.sink);
        w.u32(self.hops);
    }

    /// Reads what [`encode`](Self::encode) wrote, checking both node ids
    /// against the node count `n`.
    pub(crate) fn decode(r: &mut SnapReader, n: usize) -> Result<Self, SnapError> {
        Ok(DeliveryRecord {
            msg: MessageId(r.u64()?),
            origin: r_node_id(r, n)?,
            created_secs: r.f64()?,
            delay_secs: r.f64()?,
            sink: r_node_id(r, n)?,
            hops: r.u32()?,
        })
    }
}

/// Writes delay statistics as count, mean, M2, min and max, the layout
/// [`SimReport::snap_bytes`] and the checkpoint share.
pub(crate) fn w_stats(w: &mut SnapWriter, s: &RunningStats) {
    let (count, mean, m2, min, max) = s.raw_parts();
    w.u64(count);
    w.f64(mean);
    w.f64(m2);
    w.f64(min);
    w.f64(max);
}

/// Reads what [`w_stats`] wrote, rejecting a NaN mean or M2.
pub(crate) fn r_stats(r: &mut SnapReader) -> Result<RunningStats, SnapError> {
    let (count, mean, m2, min, max) = (r.u64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?);
    if mean.is_nan() || m2.is_nan() {
        return Err(SnapError::new("NaN in delay statistics"));
    }
    Ok(RunningStats::from_raw_parts(count, mean, m2, min, max))
}

/// Writes a histogram as its range, its buckets, underflow and overflow,
/// the layout [`SimReport::snap_bytes`] and the checkpoint share.
pub(crate) fn w_hist(w: &mut SnapWriter, h: &Histogram) {
    let (lo, hi, buckets, underflow, overflow) = h.raw_parts();
    w.f64(lo);
    w.f64(hi);
    w.seq(buckets, |w, &b| w.u64(b));
    w.u64(underflow);
    w.u64(overflow);
}

/// Reads what [`w_hist`] wrote, rejecting a range that is not finite and
/// increasing or an empty bucket list; `what` names the histogram.
pub(crate) fn r_hist(r: &mut SnapReader, what: &str) -> Result<Histogram, SnapError> {
    let (lo, hi) = (r.f64()?, r.f64()?);
    let buckets = r.seq(SnapReader::u64)?;
    let (underflow, overflow) = (r.u64()?, r.u64()?);
    if !(lo.is_finite() && hi.is_finite() && lo < hi) || buckets.is_empty() {
        return Err(SnapError::new(format!("invalid {what} histogram geometry")));
    }
    Ok(Histogram::from_raw_parts(
        lo, hi, buckets, underflow, overflow,
    ))
}

/// Per-node end-of-run summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSummary {
    /// The node.
    pub id: NodeId,
    /// Final routing metric (ξ or ZBR history).
    pub final_metric: f64,
    /// Total energy consumed (J).
    pub energy_j: f64,
    /// Messages still queued at the end.
    pub queue_len: usize,
    /// Radio sleep/wake transitions.
    pub switches: u64,
    /// Energy spent per radio state `[sleep, idle, rx, tx]` (J), excluding
    /// switch costs. In the Berkeley-mote model receive power equals
    /// idle-listening power, so the engine meters reception time as idle
    /// and the rx slot stays zero.
    pub energy_by_state_j: [f64; 4],
}

/// Fault-attributed counters.
///
/// All zero on a fault-free run (an empty
/// [`FaultPlan`](crate::faults::FaultPlan) injects nothing), so any nonzero
/// field is directly attributable to injected faults.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct FaultCounters {
    /// Node crash events applied (including sink outages).
    pub crashes: u64,
    /// Node recovery events applied (including sinks coming back).
    pub recoveries: u64,
    /// Permanent battery deaths applied.
    pub battery_deaths: u64,
    /// Sink-down events applied (also counted in `crashes`).
    pub sink_outages: u64,
    /// Queued message copies destroyed by crashes.
    pub messages_lost_to_crash: u64,
    /// (frame, receiver) receptions suppressed by link faults or because
    /// the receiver was dead.
    pub frames_dropped: u64,
    /// DATA frames corrupted at a receiver and discarded.
    pub data_corrupted: u64,
    /// Lost or corrupted DATA receptions the sender must retry: the copy
    /// stays queued, so a later multicast re-transmits it.
    pub retransmissions_triggered: u64,
    /// First-copy sink deliveries after the first fault fired — the
    /// "delivered despite faults" numerator.
    pub deliveries_despite_faults: u64,
    /// `BehaviorChange` events applied (adversarial or back to honest).
    pub behavior_changes: u64,
    /// DATA copies accepted by an adversarial node — each is a copy the
    /// honest network believes is in flight but the adversary will sit on
    /// (or, for blackholes, has already destroyed).
    pub copies_captured: u64,
    /// Frames a forger emitted with corrupted or fabricated content.
    pub forged_frames: u64,
    /// Forged DATA receptions detected and discarded at a receiver.
    pub forged_detected: u64,
    /// RTS/CTS advertisements in which a liar inflated its ξ/FTD.
    pub lied_advertisements: u64,
}

impl FaultCounters {
    /// True when any fault left a trace in this run.
    #[must_use]
    pub fn any(&self) -> bool {
        *self != FaultCounters::default()
    }
}

/// Network-lifetime summary: LEACH-style death anchors plus the end-of-run
/// sensor energy distribution.
///
/// Marked `#[non_exhaustive]`: only the engine constructs it, so new
/// lifetime diagnostics can land without breaking downstream consumers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct Lifetime {
    /// First node death time (s) — FND. `None` when every sensor survived.
    pub first_death_secs: Option<f64>,
    /// Half nodes dead time (s) — HND: when the alive census first reached
    /// half the sensor population or less.
    pub half_death_secs: Option<f64>,
    /// Last node death time (s) — LND: when the alive census reached zero.
    pub last_death_secs: Option<f64>,
    /// Sensors alive (not crashed, not battery-dead) at the end of the run.
    pub alive_at_end: u64,
    /// Distribution of per-sensor total energy consumed (J).
    pub energy_hist: Histogram,
}

/// Live counters updated during a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Messages sensed (generated) by sensors.
    pub generated: u64,
    /// Unique messages that reached any sink.
    pub delivered: u64,
    /// Total data receptions at sinks (including duplicate copies).
    pub sink_receptions: u64,
    /// End-to-end delay of first-copy deliveries (s).
    pub delay: RunningStats,
    /// Delay distribution (s).
    pub delay_hist: Histogram,
    /// Copies evicted by queue overflow (drop-tail).
    pub drops_overflow: u64,
    /// Copies rejected outright because a full queue had nothing less
    /// important.
    pub drops_rejected: u64,
    /// Copies purged for exceeding the FTD threshold.
    pub drops_ftd: u64,
    /// Entries into the asynchronous listening phase, counting each
    /// busy-channel re-listen within a cycle.
    pub attempts: u64,
    /// Attempts abandoned before any data was acknowledged.
    pub failed_attempts: u64,
    /// Multicasts with at least one acknowledged receiver.
    pub multicasts: u64,
    /// Acknowledged copies handed to receivers.
    pub copies_sent: u64,
    /// Control bits put on the air.
    pub control_bits: u64,
    /// Data bits put on the air.
    pub data_bits: u64,
    /// Fault-attributed counters (all zero without injected faults).
    pub faults: FaultCounters,
}

impl RunMetrics {
    /// Creates zeroed metrics; the delay histogram spans `[0, max_delay)`
    /// seconds.
    #[must_use]
    pub fn new(max_delay_secs: f64) -> Self {
        RunMetrics {
            generated: 0,
            delivered: 0,
            sink_receptions: 0,
            delay: RunningStats::new(),
            delay_hist: Histogram::new(0.0, max_delay_secs.max(1.0), 100),
            drops_overflow: 0,
            drops_rejected: 0,
            drops_ftd: 0,
            attempts: 0,
            failed_attempts: 0,
            multicasts: 0,
            copies_sent: 0,
            control_bits: 0,
            data_bits: 0,
            faults: FaultCounters::default(),
        }
    }

    /// Records a first-copy delivery with the given end-to-end delay.
    pub fn record_delivery(&mut self, delay_secs: f64) {
        self.delivered += 1;
        self.delay.record(delay_secs);
        self.delay_hist.record(delay_secs);
    }
}

/// The summary of one finished simulation run.
///
/// Marked `#[non_exhaustive]`: only the engine constructs reports, and new
/// diagnostic fields can land without breaking downstream consumers.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
pub struct SimReport {
    /// Variant label (OPT, NOOPT, …).
    pub protocol: String,
    /// Run seed.
    pub seed: u64,
    /// Simulated seconds.
    pub duration_secs: f64,
    /// Sensor count.
    pub sensors: usize,
    /// Sink count.
    pub sinks: usize,
    /// Messages generated.
    pub generated: u64,
    /// Unique messages delivered to a sink.
    pub delivered: u64,
    /// Total sink data receptions (with duplicates).
    pub sink_receptions: u64,
    /// Mean first-copy delivery delay (s); 0 when nothing was delivered.
    pub mean_delay_secs: f64,
    /// 95th-percentile delivery delay (s).
    pub p95_delay_secs: f64,
    /// Average sensor power consumption rate (mW) — the paper's Fig. 2(b)
    /// metric.
    pub avg_sensor_power_mw: f64,
    /// Total energy consumed by all sensors (J).
    pub total_sensor_energy_j: f64,
    /// Sensor energy per radio state `[sleep, idle, rx, tx]` (J),
    /// excluding switch costs.
    pub energy_by_state_j: [f64; 4],
    /// Control bits transmitted.
    pub control_bits: u64,
    /// Data bits transmitted.
    pub data_bits: u64,
    /// Frames transmitted in total.
    pub frames_sent: u64,
    /// (frame, receiver) losses to collisions.
    pub collisions: u64,
    /// Queue drop-tail evictions.
    pub drops_overflow: u64,
    /// Full-queue rejections.
    pub drops_rejected: u64,
    /// FTD-threshold purges.
    pub drops_ftd: u64,
    /// Entries into the asynchronous listening phase (including
    /// busy-channel re-listens).
    pub attempts: u64,
    /// Attempts with no acknowledged receiver.
    pub failed_attempts: u64,
    /// Successful multicasts.
    pub multicasts: u64,
    /// Acknowledged copies transferred.
    pub copies_sent: u64,
    /// Discrete events the engine processed to complete the run — the
    /// denominator for events/second throughput figures.
    pub events_processed: u64,
    /// Mean sensor delivery probability at the end of the run.
    pub mean_final_xi: f64,
    /// Mean handovers per delivered message (1 = handed straight to a
    /// sink).
    pub mean_hops: f64,
    /// Fault-attributed counters (all zero without injected faults).
    pub faults: FaultCounters,
    /// Network-lifetime summary (death anchors, final energy spread).
    pub lifetime: Lifetime,
    /// Full delay statistics.
    pub delay_stats: RunningStats,
    /// Delay distribution.
    pub delay_hist: Histogram,
    /// Every first-copy delivery (origin, timing, sink).
    pub deliveries: Vec<DeliveryRecord>,
    /// Per-sensor end-of-run summaries (sinks excluded).
    pub node_summaries: Vec<NodeSummary>,
}

impl SimReport {
    /// Delivery ratio: unique deliveries over generated messages, in
    /// `[0, 1]` (0 when nothing was generated).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }

    /// Control-plane overhead: control bits per delivered data bit
    /// (infinite-ish when nothing was delivered; reported as raw ratio of
    /// control to total transmitted data bits if undelivered).
    #[must_use]
    pub fn control_overhead(&self) -> f64 {
        if self.data_bits == 0 {
            return 0.0;
        }
        self.control_bits as f64 / self.data_bits as f64
    }

    /// Exports the headline metrics (and per-node summaries) as a JSON
    /// object for external plotting pipelines.
    #[must_use]
    pub fn to_json(&self) -> dftmsn_metrics::json::Json {
        use dftmsn_metrics::json::Json;
        let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let nodes: Vec<Json> = self
            .node_summaries
            .iter()
            .map(|n| {
                Json::object()
                    .field("id", n.id.index())
                    .field("final_metric", n.final_metric)
                    .field("energy_j", n.energy_j)
                    .field("queue_len", n.queue_len)
                    .field("switches", n.switches)
            })
            .collect();
        Json::object()
            .field("protocol", self.protocol.as_str())
            .field("seed", self.seed)
            .field("duration_secs", self.duration_secs)
            .field("sensors", self.sensors)
            .field("sinks", self.sinks)
            .field("generated", self.generated)
            .field("delivered", self.delivered)
            .field("delivery_ratio", self.delivery_ratio())
            .field("sink_receptions", self.sink_receptions)
            .field("mean_delay_secs", self.mean_delay_secs)
            .field("p95_delay_secs", self.p95_delay_secs)
            .field("avg_sensor_power_mw", self.avg_sensor_power_mw)
            .field("total_sensor_energy_j", self.total_sensor_energy_j)
            .field(
                "energy_by_state_j",
                Json::Arr(
                    self.energy_by_state_j
                        .iter()
                        .map(|&x| Json::Num(x))
                        .collect(),
                ),
            )
            .field("control_bits", self.control_bits)
            .field("data_bits", self.data_bits)
            .field("frames_sent", self.frames_sent)
            .field("collisions", self.collisions)
            .field("drops_overflow", self.drops_overflow)
            .field("drops_rejected", self.drops_rejected)
            .field("drops_ftd", self.drops_ftd)
            .field("attempts", self.attempts)
            .field("multicasts", self.multicasts)
            .field("copies_sent", self.copies_sent)
            .field("events_processed", self.events_processed)
            .field("mean_final_xi", self.mean_final_xi)
            .field("mean_hops", self.mean_hops)
            .field(
                "faults",
                Json::object()
                    .field("crashes", self.faults.crashes)
                    .field("recoveries", self.faults.recoveries)
                    .field("battery_deaths", self.faults.battery_deaths)
                    .field("sink_outages", self.faults.sink_outages)
                    .field("messages_lost_to_crash", self.faults.messages_lost_to_crash)
                    .field("frames_dropped", self.faults.frames_dropped)
                    .field("data_corrupted", self.faults.data_corrupted)
                    .field(
                        "retransmissions_triggered",
                        self.faults.retransmissions_triggered,
                    )
                    .field(
                        "deliveries_despite_faults",
                        self.faults.deliveries_despite_faults,
                    )
                    .field("behavior_changes", self.faults.behavior_changes)
                    .field("copies_captured", self.faults.copies_captured)
                    .field("forged_frames", self.faults.forged_frames)
                    .field("forged_detected", self.faults.forged_detected)
                    .field("lied_advertisements", self.faults.lied_advertisements),
            )
            .field(
                "lifetime",
                Json::object()
                    .field("first_death_secs", opt_num(self.lifetime.first_death_secs))
                    .field("half_death_secs", opt_num(self.lifetime.half_death_secs))
                    .field("last_death_secs", opt_num(self.lifetime.last_death_secs))
                    .field("alive_at_end", self.lifetime.alive_at_end),
            )
            .field("nodes", Json::Arr(nodes))
    }

    /// Serializes the *complete* report (including the fields
    /// [`to_json`](Self::to_json) elides: delay statistics, the delay
    /// histogram, per-delivery records) into the little-endian binary
    /// layout shared with the checkpoint subsystem, so sweep harnesses can
    /// persist finished runs losslessly and skip them on a rerun.
    #[must_use]
    pub fn snap_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u8(2); // layout version
        w.string(&self.protocol);
        w.u64(self.seed);
        w.f64(self.duration_secs);
        w.usize(self.sensors);
        w.usize(self.sinks);
        w.u64(self.generated);
        w.u64(self.delivered);
        w.u64(self.sink_receptions);
        w.f64(self.mean_delay_secs);
        w.f64(self.p95_delay_secs);
        w.f64(self.avg_sensor_power_mw);
        w.f64(self.total_sensor_energy_j);
        for &e in &self.energy_by_state_j {
            w.f64(e);
        }
        w.u64(self.control_bits);
        w.u64(self.data_bits);
        w.u64(self.frames_sent);
        w.u64(self.collisions);
        w.u64(self.drops_overflow);
        w.u64(self.drops_rejected);
        w.u64(self.drops_ftd);
        w.u64(self.attempts);
        w.u64(self.failed_attempts);
        w.u64(self.multicasts);
        w.u64(self.copies_sent);
        w.u64(self.events_processed);
        w.f64(self.mean_final_xi);
        w.f64(self.mean_hops);
        for c in [
            self.faults.crashes,
            self.faults.recoveries,
            self.faults.battery_deaths,
            self.faults.sink_outages,
            self.faults.messages_lost_to_crash,
            self.faults.frames_dropped,
            self.faults.data_corrupted,
            self.faults.retransmissions_triggered,
            self.faults.deliveries_despite_faults,
        ] {
            w.u64(c);
        }
        w_stats(&mut w, &self.delay_stats);
        w_hist(&mut w, &self.delay_hist);
        w.seq(&self.deliveries, |w, d| d.encode(w));
        w.seq(&self.node_summaries, |w, n| {
            w.usize(n.id.index());
            w.f64(n.final_metric);
            w.f64(n.energy_j);
            w.usize(n.queue_len);
            w.u64(n.switches);
            for &e in &n.energy_by_state_j {
                w.f64(e);
            }
        });
        for c in [
            self.faults.behavior_changes,
            self.faults.copies_captured,
            self.faults.forged_frames,
            self.faults.forged_detected,
            self.faults.lied_advertisements,
        ] {
            w.u64(c);
        }
        w.option(self.lifetime.first_death_secs.as_ref(), |w, &t| w.f64(t));
        w.option(self.lifetime.half_death_secs.as_ref(), |w, &t| w.f64(t));
        w.option(self.lifetime.last_death_secs.as_ref(), |w, &t| w.f64(t));
        w.u64(self.lifetime.alive_at_end);
        w_hist(&mut w, &self.lifetime.energy_hist);
        w.into_bytes()
    }

    /// Reconstructs a report serialized with [`snap_bytes`](Self::snap_bytes).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on truncation, trailing bytes, an unknown
    /// layout version, NaN delay statistics, a delivery naming a node past
    /// the sensors and sinks, or histogram geometry that would not
    /// validate.
    pub fn from_snap_bytes(bytes: &[u8]) -> Result<SimReport, SnapError> {
        let mut r = SnapReader::new(bytes);
        let version = r.u8()?;
        if version != 2 {
            return Err(SnapError::new(format!(
                "unknown SimReport layout version {version}"
            )));
        }
        let protocol = r.string()?;
        let seed = r.u64()?;
        let duration_secs = r.f64()?;
        let sensors = r.usize()?;
        let sinks = r.usize()?;
        let generated = r.u64()?;
        let delivered = r.u64()?;
        let sink_receptions = r.u64()?;
        let mean_delay_secs = r.f64()?;
        let p95_delay_secs = r.f64()?;
        let avg_sensor_power_mw = r.f64()?;
        let total_sensor_energy_j = r.f64()?;
        let mut energy_by_state_j = [0.0; 4];
        for e in &mut energy_by_state_j {
            *e = r.f64()?;
        }
        let control_bits = r.u64()?;
        let data_bits = r.u64()?;
        let frames_sent = r.u64()?;
        let collisions = r.u64()?;
        let drops_overflow = r.u64()?;
        let drops_rejected = r.u64()?;
        let drops_ftd = r.u64()?;
        let attempts = r.u64()?;
        let failed_attempts = r.u64()?;
        let multicasts = r.u64()?;
        let copies_sent = r.u64()?;
        let events_processed = r.u64()?;
        let mean_final_xi = r.f64()?;
        let mean_hops = r.f64()?;
        let mut faults = FaultCounters {
            crashes: r.u64()?,
            recoveries: r.u64()?,
            battery_deaths: r.u64()?,
            sink_outages: r.u64()?,
            messages_lost_to_crash: r.u64()?,
            frames_dropped: r.u64()?,
            data_corrupted: r.u64()?,
            retransmissions_triggered: r.u64()?,
            deliveries_despite_faults: r.u64()?,
            ..FaultCounters::default()
        };
        let delay_stats = r_stats(&mut r)?;
        let delay_hist = r_hist(&mut r, "delay")?;
        let nodes = sensors.saturating_add(sinks);
        let deliveries = r.seq(|r| DeliveryRecord::decode(r, nodes))?;
        let node_summaries = r.seq(|r| {
            let id = NodeId(r.usize()?);
            let final_metric = r.f64()?;
            let energy_j = r.f64()?;
            let queue_len = r.usize()?;
            let switches = r.u64()?;
            let mut energy_by_state_j = [0.0; 4];
            for e in &mut energy_by_state_j {
                *e = r.f64()?;
            }
            Ok(NodeSummary {
                id,
                final_metric,
                energy_j,
                queue_len,
                switches,
                energy_by_state_j,
            })
        })?;
        faults.behavior_changes = r.u64()?;
        faults.copies_captured = r.u64()?;
        faults.forged_frames = r.u64()?;
        faults.forged_detected = r.u64()?;
        faults.lied_advertisements = r.u64()?;
        let first_death_secs = r.option(SnapReader::f64)?;
        let half_death_secs = r.option(SnapReader::f64)?;
        let last_death_secs = r.option(SnapReader::f64)?;
        let alive_at_end = r.u64()?;
        let lifetime = Lifetime {
            first_death_secs,
            half_death_secs,
            last_death_secs,
            alive_at_end,
            energy_hist: r_hist(&mut r, "energy")?,
        };
        if !r.is_exhausted() {
            return Err(SnapError::new("trailing bytes after SimReport payload"));
        }
        Ok(SimReport {
            protocol,
            seed,
            duration_secs,
            sensors,
            sinks,
            generated,
            delivered,
            sink_receptions,
            mean_delay_secs,
            p95_delay_secs,
            avg_sensor_power_mw,
            total_sensor_energy_j,
            energy_by_state_j,
            control_bits,
            data_bits,
            frames_sent,
            collisions,
            drops_overflow,
            drops_rejected,
            drops_ftd,
            attempts,
            failed_attempts,
            multicasts,
            copies_sent,
            events_processed,
            mean_final_xi,
            mean_hops,
            faults,
            lifetime,
            delay_stats,
            delay_hist,
            deliveries,
            node_summaries,
        })
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}: ratio {:.1}% ({} / {}), power {:.3} mW, delay {:.0} s, collisions {}",
            self.protocol,
            self.delivery_ratio() * 100.0,
            self.delivered,
            self.generated,
            self.avg_sensor_power_mw,
            self.mean_delay_secs,
            self.collisions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(generated: u64, delivered: u64) -> SimReport {
        SimReport {
            protocol: "OPT".into(),
            seed: 1,
            duration_secs: 100.0,
            sensors: 10,
            sinks: 1,
            generated,
            delivered,
            sink_receptions: delivered,
            mean_delay_secs: 10.0,
            p95_delay_secs: 20.0,
            avg_sensor_power_mw: 1.0,
            total_sensor_energy_j: 1.0,
            energy_by_state_j: [0.0; 4],
            control_bits: 500,
            data_bits: 1000,
            frames_sent: 10,
            collisions: 0,
            drops_overflow: 0,
            drops_rejected: 0,
            drops_ftd: 0,
            attempts: 5,
            failed_attempts: 1,
            multicasts: 4,
            copies_sent: 8,
            events_processed: 100,
            mean_final_xi: 0.4,
            mean_hops: 1.0,
            faults: FaultCounters::default(),
            lifetime: Lifetime {
                first_death_secs: None,
                half_death_secs: None,
                last_death_secs: None,
                alive_at_end: 10,
                energy_hist: Histogram::new(0.0, 1.0, 8),
            },
            delay_stats: RunningStats::new(),
            delay_hist: Histogram::new(0.0, 100.0, 10),
            deliveries: Vec::new(),
            node_summaries: Vec::new(),
        }
    }

    #[test]
    fn delivery_ratio_handles_zero_generation() {
        assert_eq!(report(0, 0).delivery_ratio(), 0.0);
        assert_eq!(report(10, 5).delivery_ratio(), 0.5);
    }

    #[test]
    fn control_overhead_is_control_over_data_bits() {
        assert!((report(10, 4).control_overhead() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_protocol_and_ratio() {
        let s = report(10, 5).summary();
        assert!(s.contains("OPT"));
        assert!(s.contains("50.0%"));
    }

    #[test]
    fn run_metrics_record_delivery() {
        let mut m = RunMetrics::new(1000.0);
        m.record_delivery(10.0);
        m.record_delivery(30.0);
        assert_eq!(m.delivered, 2);
        assert_eq!(m.delay.count(), 2);
        assert_eq!(m.delay.mean(), 20.0);
        assert_eq!(m.delay_hist.total(), 2);
    }

    #[test]
    fn fault_counters_default_to_quiet_and_render_in_json() {
        let mut r = report(10, 5);
        assert!(!r.faults.any(), "fresh counters must read as fault-free");
        r.faults.crashes = 2;
        r.faults.frames_dropped = 7;
        assert!(r.faults.any());
        let js = r.to_json().render();
        assert!(js.contains("\"faults\""), "{js}");
        assert!(js.contains("\"crashes\":2"), "{js}");
        assert!(js.contains("\"frames_dropped\":7"), "{js}");
    }

    #[test]
    fn snap_round_trip_is_lossless() {
        let mut r = report(10, 5);
        r.faults.crashes = 3;
        r.delay_stats.record(12.5);
        r.delay_stats.record(31.25);
        r.delay_hist.record(12.5);
        r.deliveries.push(DeliveryRecord {
            msg: MessageId(42),
            origin: NodeId(3),
            created_secs: 5.5,
            delay_secs: 12.5,
            sink: NodeId(10),
            hops: 2,
        });
        r.node_summaries.push(NodeSummary {
            id: NodeId(3),
            final_metric: 0.625,
            energy_j: 1.75,
            queue_len: 4,
            switches: 9,
            energy_by_state_j: [0.1, 0.2, 0.0, 0.4],
        });
        let bytes = r.snap_bytes();
        let back = SimReport::from_snap_bytes(&bytes).expect("round trip");
        assert_eq!(back.to_json().render(), r.to_json().render());
        assert_eq!(back.failed_attempts, r.failed_attempts);
        assert_eq!(back.deliveries, r.deliveries);
        assert_eq!(back.node_summaries, r.node_summaries);
        assert_eq!(back.delay_stats.raw_parts(), r.delay_stats.raw_parts());
        let (lo, hi, buckets, u, o) = r.delay_hist.raw_parts();
        let (blo, bhi, bbuckets, bu, bo) = back.delay_hist.raw_parts();
        assert_eq!(
            (blo.to_bits(), bhi.to_bits(), bu, bo),
            (lo.to_bits(), hi.to_bits(), u, o)
        );
        assert_eq!(bbuckets, buckets);
    }

    #[test]
    fn snap_decode_rejects_corruption() {
        let r = report(10, 5);
        let bytes = r.snap_bytes();
        // Truncation anywhere must error, not panic.
        assert!(SimReport::from_snap_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(SimReport::from_snap_bytes(&[]).is_err());
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(SimReport::from_snap_bytes(&padded).is_err());
        // An unknown version byte is rejected, the retired v1 included.
        for version in [1, 99] {
            let mut vers = bytes.clone();
            vers[0] = version;
            assert!(SimReport::from_snap_bytes(&vers).is_err(), "v{version}");
        }
        // A delivery naming a node past the sensors and sinks is rejected.
        let mut stray = r.clone();
        stray.deliveries.push(DeliveryRecord {
            msg: MessageId(1),
            origin: NodeId(3),
            created_secs: 1.0,
            delay_secs: 2.0,
            sink: NodeId(11),
            hops: 1,
        });
        let err = SimReport::from_snap_bytes(&stray.snap_bytes()).unwrap_err();
        assert!(
            err.message()
                .contains("node id 11 out of range for 11 nodes"),
            "{err}"
        );
    }

    #[test]
    fn snap_v2_round_trips_behavioral_counters_and_lifetime() {
        let mut r = report(10, 5);
        r.faults.copies_captured = 13;
        r.faults.forged_frames = 4;
        r.faults.lied_advertisements = 21;
        r.lifetime.first_death_secs = Some(312.5);
        r.lifetime.half_death_secs = Some(1000.25);
        r.lifetime.alive_at_end = 3;
        r.lifetime.energy_hist = Histogram::new(0.0, 2.0, 16);
        r.lifetime.energy_hist.record(0.5);
        r.lifetime.energy_hist.record(1.5);
        let back = SimReport::from_snap_bytes(&r.snap_bytes()).expect("round trip");
        assert_eq!(back.faults, r.faults);
        assert_eq!(back.lifetime, r.lifetime);
        let js = back.to_json().render();
        assert!(js.contains("\"copies_captured\":13"), "{js}");
        assert!(js.contains("\"first_death_secs\":312.5"), "{js}");
        assert!(js.contains("\"last_death_secs\":null"), "{js}");
    }
}
