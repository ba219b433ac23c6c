//! Fault, behavior and lifetime state for [`Simulation`](super::Simulation),
//! owned by [`FaultInjector`]: the installed [`FaultPlan`], the fault
//! stream, link degradation, the fault regime flag, the per-node
//! [`NodeBehavior`] table and the network-lifetime census. Firing a fault
//! applies the kinds that change only this state and returns the kind, so
//! the world applies the ones that touch nodes. Every coin flip comes from
//! the fault stream, and only when its probability is positive, so a run
//! without faults draws nothing from it.

use super::ckpt::{r_node_id, r_rng, r_unit, w_node_id, w_rng, CkptError};
use crate::behavior::{BehaviorTable, LifetimeTracker, NodeBehavior};
use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::params::ScenarioParams;
use crate::report::Lifetime;
use dftmsn_metrics::histogram::Histogram;
use dftmsn_radio::ids::NodeId;
use dftmsn_sim::rng::SimRng;
use dftmsn_sim::snap::{SnapError, SnapReader, SnapWriter};
use dftmsn_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A run's injected faults and adversaries.
#[derive(Debug)]
pub(super) struct FaultInjector {
    plan: FaultPlan,
    /// Dedicated stream for fault coin flips; forked from the root seed but
    /// never drawn from unless a fault makes a probabilistic decision, so an
    /// empty plan perturbs nothing.
    rng: SimRng,
    /// The drop probability of every link without a per-pair entry.
    global_link_drop: f64,
    /// Per-pair drop probabilities, one per live `LinkDegrade`, keyed on
    /// the ordered pair `(lo, hi)` of node indices.
    link_drop: BTreeMap<(usize, usize), f64>,
    /// True once any fault event has fired.
    regime: bool,
    /// Per-node behavior assignments (DESIGN.md § 9).
    behaviors: BehaviorTable,
    /// The alive sensor count and the FND/HND/LND death anchors.
    lifetime: LifetimeTracker,
}

impl FaultInjector {
    /// No plan, no degraded link, every node honest and every sensor alive.
    pub(super) fn new(nodes: usize, sensors: usize, rng: SimRng) -> Self {
        FaultInjector {
            plan: FaultPlan::default(),
            rng,
            global_link_drop: 0.0,
            link_drop: BTreeMap::new(),
            regime: false,
            behaviors: BehaviorTable::new(nodes),
            lifetime: LifetimeTracker::new(sensors),
        }
    }

    /// Installs a validated plan, returning each event's index and firing
    /// instant for the world to schedule as `Fault(k)`.
    pub(super) fn install(
        &mut self,
        plan: FaultPlan,
    ) -> impl Iterator<Item = (usize, SimTime)> + '_ {
        self.plan = plan;
        self.plan
            .events
            .iter()
            .enumerate()
            .map(|(k, ev)| (k, SimTime::ZERO + SimDuration::from_secs_f64(ev.at_secs)))
    }

    /// The number of plan events, which bounds a pending `Fault(k)`.
    pub(super) fn plan_len(&self) -> usize {
        self.plan.events.len()
    }

    /// The trace label of event `k`'s kind.
    pub(super) fn label(&self, k: usize) -> &'static str {
        self.plan.events[k].kind.label()
    }

    /// Fires event `k`: enters the fault regime, applies the kinds that
    /// change only this state and returns the kind.
    pub(super) fn fire(&mut self, k: usize) -> FaultKind {
        self.regime = true;
        let kind = self.plan.events[k].kind;
        match kind {
            FaultKind::LinkDegrade { a, b, drop_prob } => {
                if drop_prob > 0.0 {
                    self.link_drop.insert(pair(a, b), drop_prob.clamp(0.0, 1.0));
                } else {
                    self.link_drop.remove(&pair(a, b));
                }
            }
            FaultKind::GlobalLinkDegrade { drop_prob } => {
                self.global_link_drop = drop_prob.clamp(0.0, 1.0);
            }
            FaultKind::BehaviorChange { node, behavior } => {
                // Orthogonal to liveness: assigning to a dead node records
                // the behavior, which takes effect if the node recovers.
                self.behaviors.set(node.index(), behavior);
            }
            _ => {}
        }
        kind
    }

    /// True once any fault event has fired.
    pub(super) fn regime(&self) -> bool {
        self.regime
    }

    /// Node `i`'s behavior. Every site reads it through this census gate,
    /// so an all-honest run pays one integer compare per site.
    #[inline]
    pub(super) fn behavior(&self, i: usize) -> NodeBehavior {
        if self.behaviors.any() {
            self.behaviors.get(i)
        } else {
            NodeBehavior::Honest
        }
    }

    /// Whether the link `a`–`b` loses this frame; a per-pair entry
    /// overrides the global figure.
    #[inline]
    pub(super) fn drops(&mut self, a: NodeId, b: NodeId) -> bool {
        let p = if self.link_drop.is_empty() {
            self.global_link_drop
        } else {
            self.link_drop
                .get(&pair(a, b))
                .copied()
                .unwrap_or(self.global_link_drop)
        };
        p > 0.0 && self.rng.gen_bool(p)
    }

    /// Whether a DATA frame received with corruption probability `prob`
    /// is corrupted.
    #[inline]
    pub(super) fn corrupts(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.gen_bool(prob)
    }

    /// A recovering sensor's first-wake-up jitter. It comes from the fault
    /// stream: drawing it from the node's primary stream would shift every
    /// later primary draw away from the quiet run's, and faults must
    /// perturb only the faulted behaviour.
    pub(super) fn recovery_jitter(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.gen_range_f64(0.0, 2.0))
    }

    /// Records a sensor's death at `now`.
    pub(super) fn on_death(&mut self, now: SimTime) {
        self.lifetime.on_death(now.as_secs_f64());
    }

    /// Records a sensor's recovery.
    pub(super) fn on_revive(&mut self) {
        self.lifetime.on_revive();
    }

    /// The report's lifetime block around the final energy spread.
    pub(super) fn lifetime(&self, energy_hist: Histogram) -> Lifetime {
        let [first_death_secs, half_death_secs, last_death_secs] = self.lifetime.anchors();
        Lifetime {
            first_death_secs,
            half_death_secs,
            last_death_secs,
            alive_at_end: self.lifetime.alive() as u64,
            energy_hist,
        }
    }

    /// An upper bound on the bytes [`encode`](Self::encode) writes: its
    /// fixed fields, then per plan event a time, a tag, two node ids and a
    /// probability, per link entry two ids and a probability, and per
    /// adversary an id and a tag.
    pub(super) fn ckpt_len_bound(&self) -> usize {
        96 + 48 * self.plan.events.len()
            + 24 * self.link_drop.len()
            + 9 * self.behaviors.adversary_count()
    }

    /// Writes the checkpoint block: the plan, the stream, the global drop,
    /// the per-pair entries in key order, the regime flag, the adversarial
    /// assignments in node order and the lifetime anchors. The alive
    /// census is derived from node liveness on restore and not written.
    pub(super) fn encode(&self, w: &mut SnapWriter) {
        w.seq(&self.plan.events, |w, ev| {
            w.f64(ev.at_secs);
            w_fault_kind(w, &ev.kind);
        });
        w_rng(w, &self.rng);
        w.f64(self.global_link_drop);
        w.usize(self.link_drop.len());
        for (&(a, b), &p) in &self.link_drop {
            w.usize(a);
            w.usize(b);
            w.f64(p);
        }
        w.bool(self.regime);
        w.usize(self.behaviors.adversary_count());
        for (i, b) in self.behaviors.entries() {
            w.usize(i);
            w.u8(b.tag());
        }
        for t in self.lifetime.anchors() {
            w.option(t.as_ref(), |w, &t| w.f64(t));
        }
    }

    /// Reads what [`encode`](Self::encode) wrote for `scenario`, checking
    /// the plan, every id and probability, the per-pair key order, the
    /// behavior entries and the shape of the lifetime anchors;
    /// [`restore_census`](Self::restore_census) checks the anchors against
    /// the clock, which comes later in the payload.
    pub(super) fn decode(r: &mut SnapReader, scenario: &ScenarioParams) -> Result<Self, CkptError> {
        let n = scenario.node_count();
        let plan = FaultPlan {
            events: r.seq(|r| {
                Ok(FaultEvent {
                    at_secs: r.f64()?,
                    kind: r_fault_kind(r, n)?,
                })
            })?,
        };
        plan.validate(scenario).map_err(|e| CkptError::Invalid {
            detail: format!("fault plan: {e}"),
        })?;
        let mut faults = FaultInjector::new(n, scenario.sensors, r_rng(r)?);
        faults.plan = plan;
        faults.global_link_drop = r_unit(r, "global link drop probability")?;
        for _ in 0..r.seq_len()? {
            let key = (r_node_id(r, n)?.index(), r_node_id(r, n)?.index());
            if key.0 == key.1 {
                return Err(CkptError::corrupt(format!(
                    "link drop entry joins node {} to itself",
                    key.0
                )));
            }
            if key.0 > key.1
                || faults
                    .link_drop
                    .last_key_value()
                    .is_some_and(|(&k, _)| k >= key)
            {
                return Err(CkptError::corrupt(format!(
                    "link drop entry {key:?} out of ascending pair order"
                )));
            }
            faults
                .link_drop
                .insert(key, r_unit(r, "link drop probability")?);
        }
        faults.regime = r.bool()?;
        // Adversarial sensors in ascending order: a plan assigns behaviors
        // to sensors only, and honest nodes are not written.
        let mut next = 0;
        for _ in 0..r.seq_len()? {
            let i = r_node_id(r, n)?.index();
            let tag = r.u8()?;
            let b = NodeBehavior::from_tag(tag)
                .ok_or_else(|| SnapError::new(format!("bad NodeBehavior tag {tag}")))?;
            let fault = if i >= scenario.sensors {
                format!("behavior entry names node {i}, which is not a sensor")
            } else if i < next {
                format!("behavior entry for node {i} out of ascending order")
            } else if !b.is_adversarial() {
                format!("behavior entry for node {i} is honest")
            } else {
                faults.behaviors.set(i, b);
                next = i + 1;
                continue;
            };
            return Err(CkptError::corrupt(fault));
        }
        let anchors = [
            r.option(SnapReader::f64)?,
            r.option(SnapReader::f64)?,
            r.option(SnapReader::f64)?,
        ];
        // First, half and last death: instants in that order, each set
        // only once the one before it is.
        let mut earlier = Some(0.0);
        for t in anchors {
            let fault = match (earlier, t) {
                (_, Some(t)) if !(t.is_finite() && t >= 0.0) => {
                    format!("lifetime anchor {t} is not an instant")
                }
                (None, Some(t)) => format!("lifetime anchor {t} s set without the one before it"),
                (Some(e), Some(t)) if e > t => {
                    format!("lifetime anchors out of order ({e} s, then {t} s)")
                }
                _ => {
                    earlier = t;
                    continue;
                }
            };
            return Err(CkptError::corrupt(fault));
        }
        faults.lifetime.restore(scenario.sensors, anchors);
        Ok(faults)
    }

    /// Sets the alive census recounted from the restored nodes, once the
    /// clock `now` is known to lie at or after every lifetime anchor.
    pub(super) fn restore_census(&mut self, alive: usize, now: SimTime) -> Result<(), SnapError> {
        let anchors = self.lifetime.anchors();
        if let Some(t) = anchors
            .into_iter()
            .flatten()
            .find(|&t| t > now.as_secs_f64())
        {
            return Err(SnapError::new(format!(
                "lifetime anchor {t} s lies after the checkpoint clock {now}"
            )));
        }
        self.lifetime.restore(alive, anchors);
        Ok(())
    }

    /// The fault stream's state.
    #[cfg(test)]
    pub(super) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }
}

/// The map key of the undirected link `a`–`b`.
fn pair(a: NodeId, b: NodeId) -> (usize, usize) {
    let (a, b) = (a.index(), b.index());
    (a.min(b), a.max(b))
}

fn w_fault_kind(w: &mut SnapWriter, k: &FaultKind) {
    match k {
        FaultKind::NodeCrash(i) => {
            w.u8(0);
            w_node_id(w, *i);
        }
        FaultKind::NodeRecover(i) => {
            w.u8(1);
            w_node_id(w, *i);
        }
        FaultKind::BatteryDeath(i) => {
            w.u8(2);
            w_node_id(w, *i);
        }
        FaultKind::LinkDegrade { a, b, drop_prob } => {
            w.u8(3);
            w_node_id(w, *a);
            w_node_id(w, *b);
            w.f64(*drop_prob);
        }
        FaultKind::GlobalLinkDegrade { drop_prob } => {
            w.u8(4);
            w.f64(*drop_prob);
        }
        FaultKind::DataCorruption { node, prob } => {
            w.u8(5);
            w_node_id(w, *node);
            w.f64(*prob);
        }
        FaultKind::SinkDown(i) => {
            w.u8(6);
            w_node_id(w, *i);
        }
        FaultKind::SinkUp(i) => {
            w.u8(7);
            w_node_id(w, *i);
        }
        FaultKind::BehaviorChange { node, behavior } => {
            w.u8(8);
            w_node_id(w, *node);
            w.u8(behavior.tag());
        }
    }
}

fn r_fault_kind(r: &mut SnapReader, n: usize) -> Result<FaultKind, SnapError> {
    Ok(match r.u8()? {
        0 => FaultKind::NodeCrash(r_node_id(r, n)?),
        1 => FaultKind::NodeRecover(r_node_id(r, n)?),
        2 => FaultKind::BatteryDeath(r_node_id(r, n)?),
        3 => FaultKind::LinkDegrade {
            a: r_node_id(r, n)?,
            b: r_node_id(r, n)?,
            drop_prob: r.f64()?,
        },
        4 => FaultKind::GlobalLinkDegrade {
            drop_prob: r.f64()?,
        },
        5 => FaultKind::DataCorruption {
            node: r_node_id(r, n)?,
            prob: r.f64()?,
        },
        6 => FaultKind::SinkDown(r_node_id(r, n)?),
        7 => FaultKind::SinkUp(r_node_id(r, n)?),
        8 => FaultKind::BehaviorChange {
            node: r_node_id(r, n)?,
            behavior: {
                let t = r.u8()?;
                NodeBehavior::from_tag(t)
                    .ok_or_else(|| SnapError::new(format!("bad NodeBehavior tag {t}")))?
            },
        },
        t => return Err(SnapError::new(format!("bad FaultKind tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_ANCHORS: [Option<f64>; 3] = [None; 3];

    fn scenario() -> ScenarioParams {
        ScenarioParams::paper_default()
            .with_sensors(8)
            .with_sinks(2)
    }

    /// A plan-free block with these link entries, `(node, tag)` behavior
    /// entries and lifetime anchors, decoded.
    fn decode(
        entries: &[(usize, usize)],
        behaviors: &[(usize, u8)],
        anchors: [Option<f64>; 3],
    ) -> Result<(), CkptError> {
        let mut w = SnapWriter::new();
        w.usize(0);
        w_rng(&mut w, &SimRng::seed_from(3));
        w.f64(0.0);
        w.seq(entries, |w, &(a, b)| {
            w.usize(a);
            w.usize(b);
            w.f64(0.5);
        });
        w.bool(true);
        w.seq(behaviors, |w, &(i, tag)| {
            w.usize(i);
            w.u8(tag);
        });
        for t in anchors {
            w.option(t.as_ref(), |w, &t| w.f64(t));
        }
        let bytes = w.into_bytes();
        FaultInjector::decode(&mut SnapReader::new(&bytes), &scenario()).map(drop)
    }

    fn assert_rejected(result: Result<(), CkptError>, why: &str) {
        let err = result.expect_err(why);
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains(why), "{err}");
    }

    #[test]
    fn link_entries_are_symmetric_overwritten_and_cleared() {
        let s = scenario();
        let mut f = FaultInjector::new(s.node_count(), s.sensors, SimRng::seed_from(3));
        let plan = FaultPlan::parse(
            "link=7:3:1.0@1;link=3:7:0.0@2;link=3:7:0.5@3;link=7:3:0.75@4",
            &s,
            1,
        )
        .unwrap();
        let _ = f.install(plan).count();
        f.fire(0);
        assert!(
            f.drops(NodeId(3), NodeId(7)),
            "the entry covers both directions"
        );
        f.fire(1);
        assert!(
            f.link_drop.is_empty(),
            "a zero probability clears the entry"
        );
        f.fire(2);
        f.fire(3);
        assert_eq!(f.link_drop.iter().collect::<Vec<_>>(), [(&(3, 7), &0.75)]);
        let mut w = SnapWriter::new();
        f.encode(&mut w);
        let bytes = w.into_bytes();
        let back = FaultInjector::decode(&mut SnapReader::new(&bytes), &s).unwrap();
        assert_eq!(back.link_drop, f.link_drop);
        let well_formed = decode(
            &[(1, 2), (1, 3)],
            &[
                (2, NodeBehavior::Selfish.tag()),
                (5, NodeBehavior::Forger.tag()),
            ],
            [Some(1.0), Some(2.0), None],
        );
        assert!(well_formed.is_ok(), "{well_formed:?}");
    }

    #[test]
    fn a_link_entry_joining_a_node_to_itself_is_rejected() {
        assert_rejected(decode(&[(2, 2)], &[], NO_ANCHORS), "to itself");
    }

    #[test]
    fn link_entries_out_of_ascending_order_are_rejected() {
        for entries in [&[(2, 1)][..], &[(1, 3), (1, 2)], &[(1, 2), (1, 2)]] {
            assert_rejected(
                decode(entries, &[], NO_ANCHORS),
                "out of ascending pair order",
            );
        }
    }

    #[test]
    fn a_behavior_entry_for_a_sink_is_rejected() {
        let forger = NodeBehavior::Forger.tag();
        assert_rejected(decode(&[], &[(8, forger)], NO_ANCHORS), "not a sensor");
    }

    #[test]
    fn behavior_entries_out_of_ascending_order_are_rejected() {
        let selfish = NodeBehavior::Selfish.tag();
        for entries in [
            &[(3, selfish), (2, selfish)][..],
            &[(3, selfish), (3, selfish)],
        ] {
            assert_rejected(decode(&[], entries, NO_ANCHORS), "out of ascending order");
        }
    }

    #[test]
    fn an_honest_behavior_entry_is_rejected() {
        let honest = NodeBehavior::Honest.tag();
        assert_rejected(decode(&[], &[(3, honest)], NO_ANCHORS), "is honest");
    }

    #[test]
    fn a_lifetime_anchor_that_is_not_an_instant_is_rejected() {
        for t in [f64::NAN, f64::INFINITY, -1.0] {
            assert_rejected(decode(&[], &[], [Some(t), None, None]), "is not an instant");
        }
    }

    #[test]
    fn lifetime_anchors_out_of_order_are_rejected() {
        assert_rejected(
            decode(&[], &[], [Some(5.0), Some(4.0), None]),
            "out of order",
        );
    }

    #[test]
    fn a_lifetime_anchor_without_the_one_before_it_is_rejected() {
        assert_rejected(
            decode(&[], &[], [Some(5.0), None, Some(6.0)]),
            "without the one before it",
        );
    }

    #[test]
    fn a_lifetime_anchor_after_the_clock_is_rejected() {
        let s = scenario();
        let mut f = FaultInjector::new(s.node_count(), s.sensors, SimRng::seed_from(3));
        f.on_death(SimTime::from_secs(20));
        assert!(f.restore_census(7, SimTime::from_secs(20)).is_ok());
        let err = f.restore_census(7, SimTime::from_secs(19)).unwrap_err();
        assert!(
            err.message().contains("after the checkpoint clock"),
            "{err}"
        );
    }
}
