//! Deterministic fault injection.
//!
//! The paper's whole premise is *fault* tolerance — FTD (Eqs. 2–3) exists
//! to keep the delivery ratio high when nodes and links fail — so the
//! simulator must be able to express failures. A [`FaultPlan`] is a list
//! of scheduled [`FaultEvent`]s injected through the world's ordinary
//! event queue:
//!
//! * node crashes and recoveries (queued copies are lost, timers die);
//! * battery deaths (a crash that refuses recovery);
//! * radio link degradation, per-pair or global (frames drop with a
//!   configured probability);
//! * DATA-frame corruption at a receiving node;
//! * sink outages (a crash of a sink, attributed separately).
//!
//! Plans are pure data: building one performs no randomness beyond the
//! seeded generators below, and an *empty* plan leaves a simulation
//! bit-for-bit identical to a run without any fault machinery (the fault
//! RNG stream is forked but never drawn from).

use crate::behavior::NodeBehavior;
use crate::params::ScenarioParams;
use dftmsn_radio::ids::NodeId;
use dftmsn_sim::rng::SimRng;
use serde::{Deserialize, Serialize};

/// What a scheduled fault event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The sensor halts: its radio goes dark, every queued copy is lost
    /// and all pending protocol timers die.
    NodeCrash(NodeId),
    /// A crashed sensor reboots with an empty queue; its ξ then catches up
    /// on the Δ-decay it missed while dark.
    NodeRecover(NodeId),
    /// A permanent crash: later `NodeRecover` events for the node are
    /// ignored.
    BatteryDeath(NodeId),
    /// Frames crossing the (undirected) link between `a` and `b` drop with
    /// probability `drop_prob`; 0 restores the link.
    LinkDegrade {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Per-frame drop probability in `[0, 1]`.
        drop_prob: f64,
    },
    /// Every frame on every link drops with probability `drop_prob`
    /// (per-pair [`FaultKind::LinkDegrade`] entries take precedence);
    /// 0 restores the medium.
    GlobalLinkDegrade {
        /// Per-frame drop probability in `[0, 1]`.
        drop_prob: f64,
    },
    /// DATA frames arriving at `node` are corrupted (discarded before the
    /// protocol sees them) with probability `prob`; 0 heals the receiver.
    DataCorruption {
        /// The afflicted receiver.
        node: NodeId,
        /// Per-frame corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// The sink goes dark: crash semantics, attributed as a sink outage.
    SinkDown(NodeId),
    /// The sink comes back online.
    SinkUp(NodeId),
    /// The sensor switches to playing the protocol as `behavior` (see
    /// [`NodeBehavior`] and DESIGN.md § 9). Orthogonal to liveness: a
    /// behavior assigned to a dead node takes effect if it later recovers.
    BehaviorChange {
        /// The turning node.
        node: NodeId,
        /// Its conduct from this instant on.
        behavior: NodeBehavior,
    },
}

impl FaultKind {
    /// A static label for the fault class, used by trace fault markers.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash(_) => "NodeCrash",
            FaultKind::NodeRecover(_) => "NodeRecover",
            FaultKind::BatteryDeath(_) => "BatteryDeath",
            FaultKind::LinkDegrade { .. } => "LinkDegrade",
            FaultKind::GlobalLinkDegrade { .. } => "GlobalLinkDegrade",
            FaultKind::DataCorruption { .. } => "DataCorruption",
            FaultKind::SinkDown(_) => "SinkDown",
            FaultKind::SinkUp(_) => "SinkUp",
            FaultKind::BehaviorChange { .. } => "BehaviorChange",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires, in seconds since the start of the run.
    pub at_secs: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A fault-plan construction or validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidFaultPlan(pub String);

impl std::fmt::Display for InvalidFaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for InvalidFaultPlan {}

/// Splits an explicit-grammar directive value into its body and the
/// mandatory `@T` firing time.
fn explicit_split_at<'a>(
    directive: &str,
    value: &'a str,
) -> Result<(&'a str, f64), InvalidFaultPlan> {
    let (body, t) = value.rsplit_once('@').ok_or_else(|| {
        InvalidFaultPlan(format!("'{directive}' needs an explicit @T firing time"))
    })?;
    let at: f64 = t
        .parse()
        .map_err(|_| InvalidFaultPlan(format!("invalid time '{t}' in '{directive}'")))?;
    Ok((body, at))
}

/// Parses a raw node id from an explicit-grammar directive.
fn explicit_node(directive: &str, s: &str) -> Result<NodeId, InvalidFaultPlan> {
    s.parse::<usize>()
        .map(NodeId)
        .map_err(|_| InvalidFaultPlan(format!("invalid node id '{s}' in '{directive}'")))
}

/// Parses the `N@T` form shared by the single-node explicit directives.
fn explicit_node_at(directive: &str, value: &str) -> Result<(NodeId, f64), InvalidFaultPlan> {
    let (body, at) = explicit_split_at(directive, value)?;
    Ok((explicit_node(directive, body)?, at))
}

/// A deterministic, schedulable fault scenario.
///
/// # Examples
///
/// ```
/// use dftmsn_core::faults::{FaultKind, FaultPlan};
/// use dftmsn_core::params::ScenarioParams;
/// use dftmsn_radio::ids::NodeId;
///
/// let scenario = ScenarioParams::smoke_test();
/// let mut plan = FaultPlan::default();
/// plan.push(100.0, FaultKind::NodeCrash(NodeId(0)));
/// plan.push(400.0, FaultKind::NodeRecover(NodeId(0)));
/// assert!(plan.validate(&scenario).is_ok());
/// ```
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults; same-instant events apply in list order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// True when the plan schedules nothing (the run is fault-free).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Appends a fault at `at_secs` seconds into the run.
    pub fn push(&mut self, at_secs: f64, kind: FaultKind) {
        self.events.push(FaultEvent { at_secs, kind });
    }

    /// Merges another plan's events into this one.
    ///
    /// Ordering guarantee: `other`'s events are appended *after* this
    /// plan's, and both plans' internal orders are preserved — `extend`
    /// never sorts. The engine schedules each event at its `at_secs` and
    /// breaks same-instant ties by plan position, so the effective firing
    /// order is stable `(time, insertion)`: extending `A` with `B` makes
    /// `B`'s same-instant events apply after `A`'s.
    pub fn extend(&mut self, other: FaultPlan) {
        self.events.extend(other.events);
    }

    /// Kills `fraction` of the sensors at seeded times spread over the
    /// middle of the run. With `recover_after_secs` the nodes reboot that
    /// many seconds after crashing (node churn); without it the crashes
    /// are permanent battery deaths.
    ///
    /// The victim set and crash times depend only on `seed` and the
    /// scenario, never on the simulation's own random streams.
    #[must_use]
    pub fn node_failures(
        scenario: &ScenarioParams,
        fraction: f64,
        recover_after_secs: Option<f64>,
        seed: u64,
    ) -> FaultPlan {
        let fraction = fraction.clamp(0.0, 1.0);
        let victims = ((scenario.sensors as f64 * fraction).round() as usize).min(scenario.sensors);
        let mut rng = SimRng::seed_from(seed).fork(0x504C_414E); // "PLAN"
        let mut ids: Vec<usize> = (0..scenario.sensors).collect();
        rng.shuffle(&mut ids);
        let duration = scenario.duration_secs as f64;
        let mut plan = FaultPlan::default();
        for &i in ids.iter().take(victims) {
            // Crash inside [10%, 80%] of the run so the network both
            // builds up state before the fault and feels its aftermath.
            let at = duration * rng.gen_range_f64(0.10, 0.80);
            match recover_after_secs {
                Some(gap) => {
                    plan.push(at, FaultKind::NodeCrash(NodeId(i)));
                    plan.push(at + gap, FaultKind::NodeRecover(NodeId(i)));
                }
                None => plan.push(at, FaultKind::BatteryDeath(NodeId(i))),
            }
        }
        plan.events.sort_by(|x, y| x.at_secs.total_cmp(&y.at_secs));
        plan
    }

    /// Degrades every link from the start of the run: each frame drops
    /// with probability `drop_prob`.
    #[must_use]
    pub fn uniform_link_degradation(drop_prob: f64) -> FaultPlan {
        let mut plan = FaultPlan::default();
        plan.push(0.0, FaultKind::GlobalLinkDegrade { drop_prob });
        plan
    }

    /// Corrupts DATA receptions at every node (sensors and sinks) with
    /// probability `prob`, from the start of the run.
    #[must_use]
    pub fn data_corruption(scenario: &ScenarioParams, prob: f64) -> FaultPlan {
        let mut plan = FaultPlan::default();
        for i in 0..scenario.node_count() {
            plan.push(
                0.0,
                FaultKind::DataCorruption {
                    node: NodeId(i),
                    prob,
                },
            );
        }
        plan
    }

    /// Takes the `sink_ordinal`-th sink (0-based) offline between
    /// `from_secs` and `to_secs`.
    #[must_use]
    pub fn sink_outage(
        scenario: &ScenarioParams,
        sink_ordinal: usize,
        from_secs: f64,
        to_secs: f64,
    ) -> FaultPlan {
        let id = NodeId(scenario.sensors + sink_ordinal);
        let mut plan = FaultPlan::default();
        plan.push(from_secs, FaultKind::SinkDown(id));
        plan.push(to_secs, FaultKind::SinkUp(id));
        plan
    }

    /// Renders the plan as an *explicit* spec string that
    /// [`parse`](Self::parse) reads back into an identical plan: one
    /// directive per event, in plan order, each pinning its exact node,
    /// probability and firing time (floats use Rust's shortest round-trip
    /// formatting, so `parse(format_spec(p)) == p` bit-for-bit).
    ///
    /// An empty plan renders as `none`.
    #[must_use]
    pub fn format_spec(&self) -> String {
        if self.events.is_empty() {
            return "none".to_owned();
        }
        let parts: Vec<String> = self
            .events
            .iter()
            .map(|ev| {
                let t = ev.at_secs;
                match ev.kind {
                    FaultKind::NodeCrash(id) => format!("crashnode={}@{t:?}", id.index()),
                    FaultKind::NodeRecover(id) => format!("recovernode={}@{t:?}", id.index()),
                    FaultKind::BatteryDeath(id) => format!("batterynode={}@{t:?}", id.index()),
                    FaultKind::LinkDegrade { a, b, drop_prob } => {
                        format!("link={}:{}:{drop_prob:?}@{t:?}", a.index(), b.index())
                    }
                    FaultKind::GlobalLinkDegrade { drop_prob } => {
                        format!("alllinks={drop_prob:?}@{t:?}")
                    }
                    FaultKind::DataCorruption { node, prob } => {
                        format!("corruptnode={}:{prob:?}@{t:?}", node.index())
                    }
                    FaultKind::SinkDown(id) => format!("sinkdown={}@{t:?}", id.index()),
                    FaultKind::SinkUp(id) => format!("sinkup={}@{t:?}", id.index()),
                    FaultKind::BehaviorChange { node, behavior } => {
                        format!("behavior={}:{}@{t:?}", node.index(), behavior.label())
                    }
                }
            })
            .collect();
        parts.join(";")
    }

    /// Parses the CLI fault-plan syntax: `;`-separated directives
    ///
    /// * `none` — nothing (an explicit empty plan);
    /// * `crash=F` — kill fraction `F` of the sensors permanently;
    /// * `churn=F@R` — crash fraction `F`, each rebooting `R` s later;
    /// * `linkdrop=P` — drop every frame with probability `P`;
    /// * `corrupt=P` — corrupt received DATA with probability `P`;
    /// * `sinkout=I@T1-T2` — sink `I` (0-based) offline in `[T1, T2]` s.
    ///
    /// Seeded directives (`crash`, `churn`) derive their victims and times
    /// from `seed` alone.
    ///
    /// On top of the aggregate forms above, the *explicit* grammar emitted
    /// by [`format_spec`](Self::format_spec) is accepted: one event per
    /// directive, each with a mandatory `@T` firing time —
    /// `crashnode=N@T`, `recovernode=N@T`, `batterynode=N@T`,
    /// `link=A:B:P@T`, `alllinks=P@T`, `corruptnode=N:P@T`,
    /// `sinkdown=N@T`, `sinkup=N@T` (raw node ids), and
    /// `behavior=N:KIND@T` with `KIND` one of `selfish`, `liar`,
    /// `forger`, `blackhole`, `honest`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFaultPlan`] for unknown directives or malformed
    /// numbers; range errors surface later through [`FaultPlan::validate`].
    pub fn parse(
        spec: &str,
        scenario: &ScenarioParams,
        seed: u64,
    ) -> Result<FaultPlan, InvalidFaultPlan> {
        let mut plan = FaultPlan::default();
        for directive in spec.split(';') {
            let directive = directive.trim();
            if directive.is_empty() || directive == "none" {
                continue;
            }
            let (key, value) = directive
                .split_once('=')
                .ok_or_else(|| InvalidFaultPlan(format!("directive '{directive}' has no '='")))?;
            let num = |v: &str| -> Result<f64, InvalidFaultPlan> {
                v.parse()
                    .map_err(|_| InvalidFaultPlan(format!("invalid number '{v}' in '{directive}'")))
            };
            match key {
                "crash" => {
                    plan.extend(FaultPlan::node_failures(scenario, num(value)?, None, seed));
                }
                "churn" => {
                    let (frac, gap) = value.split_once('@').ok_or_else(|| {
                        InvalidFaultPlan(format!("'{directive}' needs the form churn=F@R"))
                    })?;
                    plan.extend(FaultPlan::node_failures(
                        scenario,
                        num(frac)?,
                        Some(num(gap)?),
                        seed,
                    ));
                }
                "linkdrop" => {
                    plan.extend(FaultPlan::uniform_link_degradation(num(value)?));
                }
                "corrupt" => {
                    plan.extend(FaultPlan::data_corruption(scenario, num(value)?));
                }
                "sinkout" => {
                    let (idx, window) = value.split_once('@').ok_or_else(|| {
                        InvalidFaultPlan(format!("'{directive}' needs the form sinkout=I@T1-T2"))
                    })?;
                    let (t1, t2) = window.split_once('-').ok_or_else(|| {
                        InvalidFaultPlan(format!("'{directive}' needs a T1-T2 window"))
                    })?;
                    let ordinal: usize = idx.parse().map_err(|_| {
                        InvalidFaultPlan(format!("invalid sink index '{idx}' in '{directive}'"))
                    })?;
                    plan.extend(FaultPlan::sink_outage(
                        scenario,
                        ordinal,
                        num(t1)?,
                        num(t2)?,
                    ));
                }
                // Explicit single-event grammar (format_spec round-trip).
                "crashnode" | "recovernode" | "batterynode" | "sinkdown" | "sinkup" => {
                    let (node, at) = explicit_node_at(directive, value)?;
                    let kind = match key {
                        "crashnode" => FaultKind::NodeCrash(node),
                        "recovernode" => FaultKind::NodeRecover(node),
                        "batterynode" => FaultKind::BatteryDeath(node),
                        "sinkdown" => FaultKind::SinkDown(node),
                        _ => FaultKind::SinkUp(node),
                    };
                    plan.push(at, kind);
                }
                "alllinks" => {
                    let (p, at) = explicit_split_at(directive, value)?;
                    plan.push(at, FaultKind::GlobalLinkDegrade { drop_prob: num(p)? });
                }
                "link" => {
                    let (body, at) = explicit_split_at(directive, value)?;
                    let mut it = body.splitn(3, ':');
                    let (a, b, p) = match (it.next(), it.next(), it.next()) {
                        (Some(a), Some(b), Some(p)) => (a, b, p),
                        _ => {
                            return Err(InvalidFaultPlan(format!(
                                "'{directive}' needs the form link=A:B:P@T"
                            )))
                        }
                    };
                    plan.push(
                        at,
                        FaultKind::LinkDegrade {
                            a: explicit_node(directive, a)?,
                            b: explicit_node(directive, b)?,
                            drop_prob: num(p)?,
                        },
                    );
                }
                "corruptnode" => {
                    let (body, at) = explicit_split_at(directive, value)?;
                    let (n, p) = body.split_once(':').ok_or_else(|| {
                        InvalidFaultPlan(format!("'{directive}' needs the form corruptnode=N:P@T"))
                    })?;
                    plan.push(
                        at,
                        FaultKind::DataCorruption {
                            node: explicit_node(directive, n)?,
                            prob: num(p)?,
                        },
                    );
                }
                "behavior" => {
                    let (body, at) = explicit_split_at(directive, value)?;
                    let (n, label) = body.split_once(':').ok_or_else(|| {
                        InvalidFaultPlan(format!("'{directive}' needs the form behavior=N:KIND@T"))
                    })?;
                    let behavior = NodeBehavior::from_label(label).ok_or_else(|| {
                        InvalidFaultPlan(format!("unknown behavior '{label}' in '{directive}'"))
                    })?;
                    plan.push(
                        at,
                        FaultKind::BehaviorChange {
                            node: explicit_node(directive, n)?,
                            behavior,
                        },
                    );
                }
                other => {
                    return Err(InvalidFaultPlan(format!("unknown directive '{other}'")));
                }
            }
        }
        plan.validate(scenario)?;
        Ok(plan)
    }

    /// Checks every event against the scenario: node ids in range and of
    /// the right role, probabilities in `[0, 1]`, times finite and
    /// non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFaultPlan`] naming the first offending event.
    pub fn validate(&self, scenario: &ScenarioParams) -> Result<(), InvalidFaultPlan> {
        let sensors = scenario.sensors;
        let nodes = scenario.node_count();
        let sensor = |id: NodeId, what: &str| {
            if id.index() < sensors {
                Ok(())
            } else {
                Err(InvalidFaultPlan(format!("{what} targets non-sensor {id}")))
            }
        };
        let sink = |id: NodeId, what: &str| {
            if (sensors..nodes).contains(&id.index()) {
                Ok(())
            } else {
                Err(InvalidFaultPlan(format!("{what} targets non-sink {id}")))
            }
        };
        let prob = |p: f64, what: &str| {
            if p.is_finite() && (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(InvalidFaultPlan(format!(
                    "{what} probability {p} outside [0,1]"
                )))
            }
        };
        for ev in &self.events {
            if !ev.at_secs.is_finite() || ev.at_secs < 0.0 {
                return Err(InvalidFaultPlan(format!(
                    "fault time {} is not a non-negative finite number",
                    ev.at_secs
                )));
            }
            match ev.kind {
                FaultKind::NodeCrash(id) => sensor(id, "NodeCrash")?,
                FaultKind::NodeRecover(id) => sensor(id, "NodeRecover")?,
                FaultKind::BatteryDeath(id) => sensor(id, "BatteryDeath")?,
                FaultKind::LinkDegrade { a, b, drop_prob } => {
                    prob(drop_prob, "LinkDegrade")?;
                    for id in [a, b] {
                        if id.index() >= nodes {
                            return Err(InvalidFaultPlan(format!(
                                "LinkDegrade endpoint {id} out of range"
                            )));
                        }
                    }
                    if a == b {
                        return Err(InvalidFaultPlan(format!(
                            "LinkDegrade endpoints coincide at {a}"
                        )));
                    }
                }
                FaultKind::GlobalLinkDegrade { drop_prob } => {
                    prob(drop_prob, "GlobalLinkDegrade")?;
                }
                FaultKind::DataCorruption { node, prob: p } => {
                    prob(p, "DataCorruption")?;
                    if node.index() >= nodes {
                        return Err(InvalidFaultPlan(format!(
                            "DataCorruption node {node} out of range"
                        )));
                    }
                }
                FaultKind::SinkDown(id) => sink(id, "SinkDown")?,
                FaultKind::SinkUp(id) => sink(id, "SinkUp")?,
                FaultKind::BehaviorChange { node, .. } => sensor(node, "BehaviorChange")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> ScenarioParams {
        ScenarioParams {
            sensors: 20,
            sinks: 2,
            duration_secs: 2000,
            ..ScenarioParams::paper_default()
        }
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert!(plan.validate(&scenario()).is_ok());
    }

    #[test]
    fn node_failures_pick_distinct_sensors_deterministically() {
        let s = scenario();
        let a = FaultPlan::node_failures(&s, 0.3, None, 7);
        let b = FaultPlan::node_failures(&s, 0.3, None, 7);
        assert_eq!(a, b, "same seed must give the same plan");
        assert_eq!(a.len(), 6, "30% of 20 sensors");
        let mut ids: Vec<usize> = a
            .events
            .iter()
            .map(|e| match e.kind {
                FaultKind::BatteryDeath(id) => id.index(),
                other => panic!("unexpected kind {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6, "victims are distinct");
        assert!(ids.iter().all(|&i| i < s.sensors));
        for ev in &a.events {
            assert!(ev.at_secs >= 0.1 * 2000.0 && ev.at_secs <= 0.8 * 2000.0);
        }
        let c = FaultPlan::node_failures(&s, 0.3, None, 8);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn churn_emits_crash_recover_pairs() {
        let plan = FaultPlan::node_failures(&scenario(), 0.1, Some(300.0), 1);
        assert_eq!(plan.len(), 4, "2 victims x (crash + recover)");
        let crashes = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::NodeCrash(_)))
            .count();
        let recoveries = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::NodeRecover(_)))
            .count();
        assert_eq!((crashes, recoveries), (2, 2));
    }

    #[test]
    fn generators_validate_against_their_scenario() {
        let s = scenario();
        for plan in [
            FaultPlan::node_failures(&s, 0.5, Some(100.0), 3),
            FaultPlan::uniform_link_degradation(0.25),
            FaultPlan::data_corruption(&s, 0.1),
            FaultPlan::sink_outage(&s, 1, 500.0, 900.0),
        ] {
            assert!(plan.validate(&s).is_ok(), "{plan:?}");
        }
    }

    #[test]
    fn parse_accepts_the_documented_directives() {
        let s = scenario();
        let plan = FaultPlan::parse("crash=0.2;linkdrop=0.1;sinkout=0@100-400", &s, 1).unwrap();
        assert!(!plan.is_empty());
        assert!(plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::BatteryDeath(_))));
        assert!(plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::GlobalLinkDegrade { .. })));
        assert!(plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::SinkDown(_))));

        assert!(FaultPlan::parse("none", &s, 1).unwrap().is_empty());
        assert!(FaultPlan::parse("", &s, 1).unwrap().is_empty());
        let churn = FaultPlan::parse("churn=0.1@250", &s, 1).unwrap();
        assert!(churn
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::NodeRecover(_))));
        let corrupt = FaultPlan::parse("corrupt=0.5", &s, 1).unwrap();
        assert_eq!(corrupt.len(), s.node_count());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        let s = scenario();
        for bad in [
            "frobnicate=1",
            "crash",
            "crash=x",
            "churn=0.1",
            "sinkout=0@100",
            "linkdrop=1.5",
            "sinkout=9@1-2",
            "crashnode=3",
            "crashnode=x@10",
            "crashnode=3@x",
            "link=1:2@10",
            "link=1:1:0.5@10",
            "corruptnode=3@10",
            "behavior=3@10",
            "behavior=3:gremlin@10",
            "behavior=21:selfish@10",
            "sinkdown=0@10",
        ] {
            assert!(FaultPlan::parse(bad, &s, 1).is_err(), "'{bad}' accepted");
        }
    }

    #[test]
    fn explicit_grammar_round_trips_through_format_spec() {
        let s = scenario();
        let mut plan = FaultPlan::default();
        plan.push(12.5, FaultKind::NodeCrash(NodeId(3)));
        plan.push(12.5, FaultKind::NodeRecover(NodeId(3)));
        plan.push(100.0, FaultKind::BatteryDeath(NodeId(7)));
        plan.push(
            0.1,
            FaultKind::LinkDegrade {
                a: NodeId(1),
                b: NodeId(2),
                drop_prob: 0.375,
            },
        );
        plan.push(50.0, FaultKind::GlobalLinkDegrade { drop_prob: 0.1 });
        plan.push(
            60.0,
            FaultKind::DataCorruption {
                node: NodeId(4),
                prob: 0.25,
            },
        );
        plan.push(70.0, FaultKind::SinkDown(NodeId(20)));
        plan.push(80.0, FaultKind::SinkUp(NodeId(20)));
        plan.push(
            90.0,
            FaultKind::BehaviorChange {
                node: NodeId(5),
                behavior: NodeBehavior::Liar,
            },
        );
        let spec = plan.format_spec();
        let back = FaultPlan::parse(&spec, &s, 1).unwrap();
        assert_eq!(back, plan, "spec was: {spec}");
        assert_eq!(FaultPlan::default().format_spec(), "none");
        assert!(FaultPlan::parse("none", &s, 1).unwrap().is_empty());
    }

    #[test]
    fn extend_preserves_time_and_insertion_order() {
        let mut a = FaultPlan::default();
        a.push(100.0, FaultKind::NodeCrash(NodeId(1)));
        a.push(50.0, FaultKind::NodeCrash(NodeId(2)));
        let mut b = FaultPlan::default();
        b.push(100.0, FaultKind::NodeRecover(NodeId(1)));
        b.push(50.0, FaultKind::NodeRecover(NodeId(2)));
        a.extend(b);
        // extend never sorts: the first plan's events stay first, so
        // same-instant events fire in (time, insertion) order — crash
        // before recover at both t=50 and t=100.
        let kinds: Vec<&'static str> = a.events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            kinds,
            vec!["NodeCrash", "NodeCrash", "NodeRecover", "NodeRecover"]
        );
        assert_eq!(a.events[0].at_secs, 100.0);
        assert_eq!(a.events[2].at_secs, 100.0);
    }

    #[test]
    fn validate_catches_bad_targets_and_probs() {
        let s = scenario();
        let mut plan = FaultPlan::default();
        plan.push(10.0, FaultKind::NodeCrash(NodeId(21)));
        assert!(plan.validate(&s).is_err(), "crash of a sink id");

        let mut plan = FaultPlan::default();
        plan.push(10.0, FaultKind::SinkDown(NodeId(0)));
        assert!(plan.validate(&s).is_err(), "sink outage of a sensor");

        let mut plan = FaultPlan::default();
        plan.push(
            10.0,
            FaultKind::LinkDegrade {
                a: NodeId(0),
                b: NodeId(0),
                drop_prob: 0.5,
            },
        );
        assert!(plan.validate(&s).is_err(), "self-link");

        let mut plan = FaultPlan::default();
        plan.push(f64::NAN, FaultKind::GlobalLinkDegrade { drop_prob: 0.5 });
        assert!(plan.validate(&s).is_err(), "NaN time");

        let mut plan = FaultPlan::default();
        plan.push(
            10.0,
            FaultKind::DataCorruption {
                node: NodeId(3),
                prob: -0.1,
            },
        );
        assert!(plan.validate(&s).is_err(), "negative probability");
    }
}
