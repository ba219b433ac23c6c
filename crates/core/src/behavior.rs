//! Behavioral adversaries and network-lifetime bookkeeping.
//!
//! The fault subsystem ([`crate::faults`]) models *benign* failures —
//! crashes, dead batteries, lossy links. This module models nodes that are
//! alive and well but *misbehave*: the Byzantine/selfish node classes the
//! fault-tolerant-routing literature evaluates against (DESIGN.md § 9).
//! A [`NodeBehavior`] is assigned per node through the ordinary
//! [`FaultPlan`] seam as a scheduled [`FaultKind::BehaviorChange`] event,
//! so behaviors compose with every other fault, ride the same event queue,
//! and survive checkpoints. An all-honest population (the default) leaves
//! a run bit-for-bit identical to the pre-adversary engine: every
//! interception in the world is gated on the adversary census of the
//! engine's behavior table, and no behavior ever draws randomness at
//! protocol time — victim choice happens here, at plan-construction time,
//! from a dedicated seeded fork.
//!
//! The network-lifetime census rides along because the questions meet:
//! *when does the network die* (first/half/last node death) is the flip
//! side of *who is quietly killing it*.

use crate::faults::{FaultKind, FaultPlan, InvalidFaultPlan};
use crate::params::ScenarioParams;
use dftmsn_radio::ids::NodeId;
use dftmsn_sim::rng::SimRng;
use serde::{Deserialize, Serialize};

/// How a node plays the protocol. Everything except [`Honest`]
/// (the default) is adversarial.
///
/// [`Honest`]: NodeBehavior::Honest
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeBehavior {
    /// Plays the protocol by the book.
    #[default]
    Honest,
    /// Accepts copies but never forwards anything and never replies CTS:
    /// a free-rider that shrinks the effective relay population.
    Selfish,
    /// Advertises inflated ξ and buffer space in RTS/CTS to attract
    /// copies, then sits on them forever.
    Liar,
    /// Emits fake CTS/ACK frames to capture copies and corrupts every
    /// DATA frame it relays (receivers detect and discard the forgery).
    Forger,
    /// Accepts every copy offered and silently discards it.
    Blackhole,
}

impl NodeBehavior {
    /// Every behavior, in checkpoint-tag order.
    pub const ALL: [NodeBehavior; 5] = [
        NodeBehavior::Honest,
        NodeBehavior::Selfish,
        NodeBehavior::Liar,
        NodeBehavior::Forger,
        NodeBehavior::Blackhole,
    ];

    /// The lowercase spec/display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NodeBehavior::Honest => "honest",
            NodeBehavior::Selfish => "selfish",
            NodeBehavior::Liar => "liar",
            NodeBehavior::Forger => "forger",
            NodeBehavior::Blackhole => "blackhole",
        }
    }

    /// Parses a [`label`](Self::label) back into a behavior.
    #[must_use]
    pub fn from_label(s: &str) -> Option<NodeBehavior> {
        Self::ALL.into_iter().find(|b| b.label() == s)
    }

    /// True for every behavior except [`NodeBehavior::Honest`].
    #[must_use]
    pub fn is_adversarial(self) -> bool {
        self != NodeBehavior::Honest
    }

    /// True when the behavior never initiates a forwarding cycle: the
    /// node wakes, listens as a receiver, and lets its queue rot.
    /// Forgers *do* transmit — corrupting relayed DATA requires relaying.
    #[must_use]
    pub fn withholds(self) -> bool {
        matches!(
            self,
            NodeBehavior::Selfish | NodeBehavior::Liar | NodeBehavior::Blackhole
        )
    }

    /// Stable checkpoint tag.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            NodeBehavior::Honest => 0,
            NodeBehavior::Selfish => 1,
            NodeBehavior::Liar => 2,
            NodeBehavior::Forger => 3,
            NodeBehavior::Blackhole => 4,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    #[must_use]
    pub fn from_tag(t: u8) -> Option<NodeBehavior> {
        Self::ALL.into_iter().find(|b| b.tag() == t)
    }
}

impl std::fmt::Display for NodeBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-node behavior assignments.
///
/// The table tracks how many nodes are currently adversarial so the
/// world's hot paths can skip every behavior branch with one integer
/// compare ([`any`](Self::any)) when the population is all honest — the
/// quiet-run bit-identity contract hangs on that gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BehaviorTable {
    assigned: Vec<NodeBehavior>,
    adversaries: usize,
}

impl BehaviorTable {
    /// An all-honest table for `n` nodes.
    #[must_use]
    pub(crate) fn new(n: usize) -> Self {
        BehaviorTable {
            assigned: vec![NodeBehavior::Honest; n],
            adversaries: 0,
        }
    }

    /// True when at least one node misbehaves.
    #[must_use]
    pub(crate) fn any(&self) -> bool {
        self.adversaries != 0
    }

    /// Number of currently adversarial nodes.
    #[must_use]
    pub(crate) fn adversary_count(&self) -> usize {
        self.adversaries
    }

    /// The behavior of node `i` (honest for out-of-range indices, so
    /// sinks and probes read naturally).
    #[must_use]
    pub(crate) fn get(&self, i: usize) -> NodeBehavior {
        self.assigned.get(i).copied().unwrap_or_default()
    }

    /// Assigns a behavior, keeping the adversary census exact.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range — behaviors target known nodes only.
    pub(crate) fn set(&mut self, i: usize, behavior: NodeBehavior) {
        let slot = &mut self.assigned[i];
        self.adversaries -= usize::from(slot.is_adversarial());
        *slot = behavior;
        self.adversaries += usize::from(behavior.is_adversarial());
    }

    /// Iterates the non-honest assignments as `(index, behavior)` pairs,
    /// in index order (the checkpoint encoding).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (usize, NodeBehavior)> + '_ {
        self.assigned
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_adversarial())
            .map(|(i, &b)| (i, b))
    }
}

/// Network-lifetime bookkeeping: the alive-sensor census and the classic
/// LEACH-style anchors — first node death (FND), half of nodes dead
/// (HND), last node death (LND).
///
/// The anchors are monotone: a recovery raises the alive count again but
/// never un-rings a bell that already rang.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LifetimeTracker {
    sensors: usize,
    alive: usize,
    /// FND, HND and LND (s), each set once.
    anchors: [Option<f64>; 3],
}

impl LifetimeTracker {
    /// A fresh tracker with every sensor alive.
    #[must_use]
    pub(crate) fn new(sensors: usize) -> Self {
        LifetimeTracker {
            sensors,
            alive: sensors,
            anchors: [None; 3],
        }
    }

    /// Records a sensor's alive→dead transition at `now_secs`.
    pub(crate) fn on_death(&mut self, now_secs: f64) {
        self.alive = self.alive.saturating_sub(1);
        let rung = [true, self.alive * 2 <= self.sensors, self.alive == 0];
        for (anchor, rung) in self.anchors.iter_mut().zip(rung) {
            if rung && anchor.is_none() {
                *anchor = Some(now_secs);
            }
        }
    }

    /// Records a sensor's dead→alive transition (node churn recovery).
    pub(crate) fn on_revive(&mut self) {
        self.alive = (self.alive + 1).min(self.sensors);
    }

    /// Sensors currently alive.
    #[must_use]
    pub(crate) fn alive(&self) -> usize {
        self.alive
    }

    /// The times of the first sensor death, of half (or more) of the
    /// sensors being dead at once, and of every sensor being dead at once.
    pub(crate) fn anchors(&self) -> [Option<f64>; 3] {
        self.anchors
    }

    /// Restores checkpointed anchors and the alive census (the census is
    /// recomputed from node liveness at resume; the anchors are history
    /// and must travel in the snapshot).
    pub(crate) fn restore(&mut self, alive: usize, anchors: [Option<f64>; 3]) {
        self.alive = alive.min(self.sensors);
        self.anchors = anchors;
    }
}

/// Turns `fraction` of the sensors into `behavior` at `at_secs` seconds
/// into the run, as a schedulable [`FaultPlan`].
///
/// Victim choice depends only on `(scenario, seed)` — a dedicated
/// `"BEHA"` fork, so the same seed corrupts the same nodes under every
/// protocol variant and policy (apples-to-apples sweeps), and plan
/// construction never touches the simulation's own streams.
#[must_use]
pub fn takeover(
    scenario: &ScenarioParams,
    fraction: f64,
    behavior: NodeBehavior,
    at_secs: f64,
    seed: u64,
) -> FaultPlan {
    let fraction = fraction.clamp(0.0, 1.0);
    let victims = ((scenario.sensors as f64 * fraction).round() as usize).min(scenario.sensors);
    let mut rng = SimRng::seed_from(seed).fork(0x4245_4841); // "BEHA"
    let mut ids: Vec<usize> = (0..scenario.sensors).collect();
    rng.shuffle(&mut ids);
    let mut plan = FaultPlan::default();
    for &i in ids.iter().take(victims) {
        plan.push(
            at_secs,
            FaultKind::BehaviorChange {
                node: NodeId(i),
                behavior,
            },
        );
    }
    plan
}

/// Parses the CLI `--behaviors` syntax: `;`-separated directives
///
/// * `none` — nothing (an explicit all-honest population);
/// * `selfish=F`, `liar=F`, `forger=F`, `blackhole=F` — turn fraction
///   `F` of the sensors to that behavior from the start of the run;
/// * any directive may carry an `@T` onset, e.g. `selfish=0.25@500`.
///
/// All directives draw their victims from one seeded shuffle of the
/// sensor population, consumed slice by slice — so `selfish=0.2;liar=0.2`
/// corrupts two *disjoint* 20 % groups, and the combined fractions must
/// not exceed 1.
///
/// # Errors
///
/// Returns [`InvalidFaultPlan`] for unknown behaviors, malformed numbers,
/// fractions outside `[0, 1]` or summing past 1, and bad onset times.
pub fn parse_spec(
    spec: &str,
    scenario: &ScenarioParams,
    seed: u64,
) -> Result<FaultPlan, InvalidFaultPlan> {
    let mut rng = SimRng::seed_from(seed).fork(0x4245_4841); // "BEHA"
    let mut ids: Vec<usize> = (0..scenario.sensors).collect();
    rng.shuffle(&mut ids);
    let mut cursor = 0usize;

    let mut plan = FaultPlan::default();
    for directive in spec.split(';') {
        let directive = directive.trim();
        if directive.is_empty() || directive == "none" {
            continue;
        }
        let (key, value) = directive
            .split_once('=')
            .ok_or_else(|| InvalidFaultPlan(format!("directive '{directive}' has no '='")))?;
        let behavior = NodeBehavior::from_label(key)
            .filter(|b| b.is_adversarial())
            .ok_or_else(|| {
                InvalidFaultPlan(format!("unknown behavior '{key}' in '{directive}'"))
            })?;
        let (frac_s, at_s) = match value.split_once('@') {
            Some((f, t)) => (f, Some(t)),
            None => (value, None),
        };
        let frac: f64 = frac_s.parse().map_err(|_| {
            InvalidFaultPlan(format!("invalid fraction '{frac_s}' in '{directive}'"))
        })?;
        if !frac.is_finite() || !(0.0..=1.0).contains(&frac) {
            return Err(InvalidFaultPlan(format!(
                "behavior fraction {frac} outside [0,1] in '{directive}'"
            )));
        }
        let at_secs: f64 = match at_s {
            Some(t) => t.parse().map_err(|_| {
                InvalidFaultPlan(format!("invalid onset time '{t}' in '{directive}'"))
            })?,
            None => 0.0,
        };
        let count = ((scenario.sensors as f64 * frac).round() as usize).min(scenario.sensors);
        if cursor + count > scenario.sensors {
            return Err(InvalidFaultPlan(format!(
                "behavior fractions exceed the sensor population at '{directive}'"
            )));
        }
        for &i in &ids[cursor..cursor + count] {
            plan.push(
                at_secs,
                FaultKind::BehaviorChange {
                    node: NodeId(i),
                    behavior,
                },
            );
        }
        cursor += count;
    }
    plan.validate(scenario)?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> ScenarioParams {
        ScenarioParams {
            sensors: 20,
            sinks: 2,
            duration_secs: 1000,
            ..ScenarioParams::paper_default()
        }
    }

    #[test]
    fn labels_and_tags_round_trip() {
        for b in NodeBehavior::ALL {
            assert_eq!(NodeBehavior::from_label(b.label()), Some(b));
            assert_eq!(NodeBehavior::from_tag(b.tag()), Some(b));
        }
        assert_eq!(NodeBehavior::from_label("saint"), None);
        assert_eq!(NodeBehavior::from_tag(99), None);
        assert!(!NodeBehavior::Honest.is_adversarial());
        assert!(NodeBehavior::Forger.is_adversarial());
        assert!(!NodeBehavior::Forger.withholds(), "forgers must transmit");
        assert!(NodeBehavior::Selfish.withholds());
    }

    #[test]
    fn table_census_tracks_sets_exactly() {
        let mut t = BehaviorTable::new(10);
        assert!(!t.any());
        t.set(3, NodeBehavior::Selfish);
        t.set(7, NodeBehavior::Liar);
        assert!(t.any());
        assert_eq!(t.adversary_count(), 2);
        t.set(3, NodeBehavior::Blackhole);
        assert_eq!(t.adversary_count(), 2, "reassignment is not double-counted");
        t.set(3, NodeBehavior::Honest);
        assert_eq!(t.adversary_count(), 1);
        assert_eq!(t.get(7), NodeBehavior::Liar);
        assert_eq!(
            t.get(999),
            NodeBehavior::Honest,
            "out of range reads honest"
        );
        let entries: Vec<_> = t.entries().collect();
        assert_eq!(entries, vec![(7, NodeBehavior::Liar)]);
    }

    #[test]
    fn lifetime_anchors_are_monotone() {
        let mut lt = LifetimeTracker::new(4);
        assert_eq!(lt.alive(), 4);
        lt.on_death(10.0);
        assert_eq!(lt.anchors(), [Some(10.0), None, None]);
        lt.on_death(20.0);
        assert_eq!(lt.anchors()[1], Some(20.0), "2 of 4 alive is half dead");
        lt.on_revive();
        lt.on_death(30.0);
        assert_eq!(
            lt.anchors()[1],
            Some(20.0),
            "recovery must not re-arm the HND anchor"
        );
        lt.on_death(40.0);
        lt.on_death(50.0);
        assert_eq!(lt.alive(), 0);
        assert_eq!(lt.anchors()[2], Some(50.0));
        lt.on_revive();
        assert_eq!(lt.alive(), 1);
        assert_eq!(lt.anchors()[2], Some(50.0));
    }

    #[test]
    fn takeover_is_deterministic_and_validates() {
        let s = scenario();
        let a = takeover(&s, 0.25, NodeBehavior::Selfish, 0.0, 7);
        let b = takeover(&s, 0.25, NodeBehavior::Selfish, 0.0, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5, "25% of 20 sensors");
        assert!(a.validate(&s).is_ok());
        let c = takeover(&s, 0.25, NodeBehavior::Selfish, 0.0, 8);
        assert_ne!(a, c, "different seeds pick different victims");
    }

    #[test]
    fn parse_spec_accepts_the_documented_directives() {
        let s = scenario();
        assert!(parse_spec("none", &s, 1).unwrap().is_empty());
        assert!(parse_spec("", &s, 1).unwrap().is_empty());
        let plan = parse_spec("selfish=0.2;liar=0.1@500", &s, 1).unwrap();
        assert_eq!(plan.len(), 6, "4 selfish + 2 liars");
        let mut nodes: Vec<usize> = plan
            .events
            .iter()
            .map(|e| match e.kind {
                FaultKind::BehaviorChange { node, .. } => node.index(),
                other => panic!("unexpected kind {other:?}"),
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 6, "directives draw disjoint victim sets");
        assert!(plan.events.iter().any(|e| {
            matches!(
                e.kind,
                FaultKind::BehaviorChange {
                    behavior: NodeBehavior::Liar,
                    ..
                }
            ) && e.at_secs == 500.0
        }));
    }

    #[test]
    fn parse_spec_rejects_malformed_directives() {
        let s = scenario();
        for bad in [
            "gremlin=0.2",
            "selfish",
            "selfish=x",
            "selfish=1.5",
            "selfish=0.2@x",
            "selfish=0.2@-5",
            "honest=0.5",
            "selfish=0.8;liar=0.8",
        ] {
            assert!(parse_spec(bad, &s, 1).is_err(), "'{bad}' accepted");
        }
    }
}
