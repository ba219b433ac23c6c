//! The simulation world: nodes + mobility + medium + the event loop that
//! drives the two-phase protocol of Sec. 3.2 with the Sec. 4 optimizations.
//!
//! # Event architecture
//!
//! A single deterministic event queue drives everything:
//!
//! * `MobilityTick` — the mobility driver (`world_mobility.rs`) advances
//!   node positions and the spatial index;
//! * `DataGen(i)` — Poisson sensing at sensor *i*;
//! * `MetricTimeout(i)` — the Δ-timer of Eq. 1;
//! * `TxEnd(i, handle)` — a frame finished; reception outcomes fan out;
//! * `Timer(i, epoch, kind)` — node-local deadlines (wakeups, listen
//!   periods, contention windows, guards). Every node state change bumps
//!   the node's epoch, so a timer whose epoch no longer matches is stale
//!   and ignored; this makes cancellation implicit and cheap.
//! * `Fault(k)` — the *k*-th entry of the installed
//!   [`FaultPlan`] fires: crashes, recoveries,
//!   link degradation, DATA corruption, sink outages. An empty plan
//!   schedules nothing and draws nothing from any random stream, so
//!   fault-free runs stay bit-for-bit identical to pre-fault builds.
//!
//! # Liveness
//!
//! Every non-`Passive`/`Sleeping` state is entered together with a pending
//! timer (or an unguarded `TxEnd`) that eventually ends the cycle, so no
//! node can wedge: see the state table in `node.rs`.

use crate::behavior::NodeBehavior;
use crate::contention::{optimize_cts_window, optimize_tau_max_in, sigma, TauScratch};
use crate::delivery::DeliveryProb;
use crate::dense::DeliveredSet;
use crate::faults::{FaultKind, FaultPlan};
use crate::frames::MacPayload;
use crate::ftd::Ftd;
use crate::message::{Message, MessageId, MessageIdAllocator};
use crate::neighbor::{Candidate, Selection, SelectionScratch};
use crate::node::{MacState, Node, NodeRole, ReceiverCtx, SenderCtx, TxPlan};
use crate::observe::{MetricsRecorder, RunMeta, WorldSnapshot};
use crate::params::{ProtocolParams, ScenarioParams};
use crate::policy::{Confirmed, CopyFate, Policy, PolicySpec, RtsInfo, RxView, SelectCtx};
use crate::prefetch::prefetch;
use crate::profile::EventProfile;
use crate::queue::InsertOutcome;
use crate::report::{DeliveryRecord, NodeSummary, RunMetrics, SimReport};
use crate::trace::{DropReason, TraceEvent, TraceSink};
use crate::variants::VariantConfig;
use dftmsn_metrics::histogram::Histogram;
use dftmsn_radio::energy::RadioState;
use dftmsn_radio::ids::NodeId;
use dftmsn_radio::medium::{Frame, Medium, TxHandle};
use dftmsn_sim::event::EventQueue;
use dftmsn_sim::rng::SimRng;
use dftmsn_sim::time::{SimDuration, SimTime};

#[path = "world_ckpt.rs"]
mod ckpt;
pub(crate) use ckpt::{r_node_id, r_past, w_node_id, w_time};
pub use ckpt::{CkptError, Resumed, CKPT_MAGIC};

#[path = "world_mobility.rs"]
mod mobility;
use mobility::MobilityDriver;

#[path = "world_faults.rs"]
mod injector;
use injector::FaultInjector;

#[path = "world_observers.rs"]
mod observers;
use observers::Observers;

/// Node-local timer kinds; all are epoch-guarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timer {
    /// Leave `Sleeping`/`Passive` and start a new working cycle.
    WakeUp,
    /// The sender's carrier-sense listening period ended.
    ListenDone,
    /// Time for a qualified receiver to transmit its CTS.
    CtsSlot,
    /// The sender's CTS contention window closed.
    CtsWindowEnd,
    /// Time for a scheduled receiver to transmit its ACK.
    AckSlot,
    /// The sender's ACK collection window closed.
    AckWindowEnd,
    /// Deadline guard for receiver-side waiting states and passive
    /// windows; ends the cycle as inactive.
    Guard,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    MobilityTick,
    DataGen(NodeId),
    MetricTimeout(NodeId),
    TxEnd(NodeId, TxHandle),
    Timer(NodeId, u64, Timer),
    /// Index into the installed fault plan's event list.
    Fault(usize),
    /// A window boundary of the attached
    /// [`MetricsRecorder`]: sample the
    /// world state. Only scheduled when an observer is attached, and the
    /// handler reads state without drawing randomness, so unobserved runs
    /// are bit-for-bit unaffected.
    ObserveTick,
}

/// Labels for [`EventProfile`] rows, one per dispatchable event shape.
/// Stale epoch-guarded timers get their own row (`"Timer:stale"`) because
/// implicit cancellation makes them one of the highest-count kinds and
/// folding them into their nominal kind would skew every timer mean.
const EVENT_KIND_LABELS: [&str; 14] = [
    "MobilityTick",
    "DataGen",
    "MetricTimeout",
    "TxEnd",
    "Timer:WakeUp",
    "Timer:ListenDone",
    "Timer:CtsSlot",
    "Timer:CtsWindowEnd",
    "Timer:AckSlot",
    "Timer:AckWindowEnd",
    "Timer:Guard",
    "Timer:stale",
    "Fault",
    "ObserveTick",
];

/// Reusable working memory for the per-cycle hot paths.
///
/// Every buffer is cleared before use; the pools recycle the vectors that
/// used to be freshly allocated each protocol cycle (CTS candidate lists,
/// ACK lists, selections, SCHEDULE payloads), so once capacities settle the
/// steady-state multicast path performs no heap allocation.
#[derive(Debug, Default)]
struct CycleScratch {
    /// Spatial-query output: node indices in range.
    idx: Vec<usize>,
    /// The same set as `NodeId`s, fed to the medium.
    ids: Vec<NodeId>,
    /// Receiver-selection working memory.
    sel: SelectionScratch,
    /// ξ of the receivers whose ACK arrived (Eqs. 1/3 inputs).
    confirmed_xis: Vec<f64>,
    /// Retired `Selection`s awaiting reuse.
    selections: Vec<Selection>,
    /// Retired CTS candidate lists awaiting reuse.
    candidate_bufs: Vec<Vec<Candidate>>,
    /// Retired ACK lists awaiting reuse.
    acked_bufs: Vec<Vec<NodeId>>,
    /// Retired SCHEDULE receiver lists awaiting reuse.
    schedule_bufs: Vec<Vec<(NodeId, f64)>>,
    /// Fresh neighbour `(id, ξ)` pairs, sorted by id (Eq. 13 input).
    /// This and the next two grow on first use rather than in `seeded`:
    /// reserving them there raised the peak memory of a 20 000-sensor run
    /// checkpointed and resumed every 10 s from 64 to 73 MiB, although
    /// they hold a few KiB.
    fresh: Vec<(NodeId, f64)>,
    /// The Eq. 13 contenders' ξ: the fresh neighbours in id order, then
    /// the node itself.
    xis: Vec<f64>,
    /// The Eq. 13 search's σ and kernel buffers.
    tau: TauScratch,
}

impl CycleScratch {
    /// Builds a scratch pool with every buffer pre-allocated in one
    /// up-front pass, sized for a typical neighbourhood of `k` nodes.
    /// Concurrent multicasts can outnumber the seeded pools — `take_*`
    /// then falls back to a fresh allocation that is recycled like the
    /// seeded ones — but in the steady state every cycle runs entirely
    /// on buffers allocated here, so the hot path never touches the
    /// allocator (the crate denies `unsafe_code`, which rules out a true
    /// bump arena; grouping all allocations at construction is the safe
    /// equivalent).
    fn seeded(k: usize) -> Self {
        const POOL: usize = 8;
        let mut s = CycleScratch::default();
        s.idx.reserve(k);
        s.ids.reserve(k);
        s.confirmed_xis.reserve(k);
        for _ in 0..POOL {
            s.selections.push(Selection::default());
            s.candidate_bufs.push(Vec::with_capacity(k));
            s.acked_bufs.push(Vec::with_capacity(k));
            s.schedule_bufs.push(Vec::with_capacity(k));
        }
        s
    }

    fn take_selection(&mut self) -> Selection {
        self.selections.pop().unwrap_or_default()
    }

    fn take_candidates(&mut self) -> Vec<Candidate> {
        self.candidate_bufs.pop().unwrap_or_default()
    }

    fn take_acked(&mut self) -> Vec<NodeId> {
        self.acked_bufs.pop().unwrap_or_default()
    }

    fn take_schedule(&mut self) -> Vec<(NodeId, f64)> {
        self.schedule_bufs.pop().unwrap_or_default()
    }

    fn recycle_selection(&mut self, mut s: Selection) {
        s.clear();
        self.selections.push(s);
    }

    fn recycle_schedule(&mut self, mut v: Vec<(NodeId, f64)>) {
        v.clear();
        self.schedule_bufs.push(v);
    }

    fn recycle_sender_ctx(&mut self, ctx: SenderCtx) {
        let SenderCtx {
            mut candidates,
            mut acked,
            selection,
            ..
        } = ctx;
        candidates.clear();
        self.candidate_bufs.push(candidates);
        acked.clear();
        self.acked_bufs.push(acked);
        if let Some(s) = selection {
            self.recycle_selection(s);
        }
    }
}

/// Precomputed frame timings.
#[derive(Debug, Clone, Copy)]
struct Timing {
    ctrl: SimDuration,
    data: SimDuration,
    gap: SimDuration,
    listen_slot: SimDuration,
    cts_slot: SimDuration,
    ack_slot: SimDuration,
}

impl Timing {
    fn new(scenario: &ScenarioParams, protocol: &ProtocolParams) -> Self {
        let ctrl = scenario.channel.airtime(scenario.control_bits);
        let data = scenario.channel.airtime(scenario.data_bits);
        let gap = SimDuration::from_secs_f64(protocol.proc_gap_secs);
        Timing {
            ctrl,
            data,
            gap,
            listen_slot: ctrl,
            cts_slot: ctrl + gap,
            ack_slot: ctrl + gap,
        }
    }

    /// Conservative duration of the remainder of an exchange overheard at
    /// the RTS: full CTS window + schedule + data + a few ACK slots.
    fn nav_after_rts(&self, window_slots: u32) -> SimDuration {
        self.cts_slot * u64::from(window_slots)
            + self.ctrl
            + self.data
            + self.ack_slot * 3
            + self.gap * 4
    }

    /// NAV for a CTS/SCHEDULE overheard mid-exchange.
    fn nav_overheard(&self) -> SimDuration {
        self.ctrl + self.data + self.ack_slot * 3 + self.gap * 4
    }
}

/// How node motion is advanced through simulated time.
///
/// The default [`Ticked`](MobilityMode::Ticked) mode advances every
/// sensor's mobility model on every global `MobilityTick` from one shared
/// RNG stream — O(N) work per tick regardless of how many nodes are asleep.
/// It is the mode every existing golden baseline was recorded under and
/// stays bit-for-bit unchanged by this enum's existence.
///
/// [`Lazy`](MobilityMode::Lazy) gives each sensor its own forked RNG stream
/// and extrapolates its trajectory in closed form
/// ([`dftmsn_mobility::models::ZoneMobility::advance_span`]) only when the
/// position is actually needed: on wake-up, on a spatial query, or at a
/// low-rate staleness sweep that bounds how far any position lags.
/// Sleeping nodes cost nothing while they sleep. Spatial queries run at an
/// expanded radius (`range + v_max · sweep_period`) so a node whose stored
/// position is stale can never be missed; candidates are caught up and
/// re-filtered at the true range before the protocol sees them.
///
/// The two modes sample the same mobility distributions but consume
/// randomness in different orders, so `Lazy` runs re-baseline: they are
/// deterministic per seed (own golden test) but not bit-identical to
/// `Ticked` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MobilityMode {
    /// Advance all models every `mobility_tick_secs` (the default; all
    /// pre-existing baselines).
    #[default]
    Ticked,
    /// Per-sensor RNG streams + on-demand closed-form catch-up.
    Lazy,
}

/// A configured, runnable simulation.
///
/// Construct one through [`Simulation::builder`]; the builder is the
/// single path that can attach fault plans, trace sinks and a
/// [`MetricsRecorder`] observer.
///
/// # Examples
///
/// ```
/// use dftmsn_core::params::ScenarioParams;
/// use dftmsn_core::variants::ProtocolKind;
/// use dftmsn_core::world::Simulation;
///
/// let params = ScenarioParams::smoke_test().with_duration_secs(200);
/// let report = Simulation::builder(params, ProtocolKind::Opt)
///     .seed(42)
///     .build()
///     .run();
/// assert!(report.generated > 0);
/// ```
#[derive(Debug)]
pub struct Simulation {
    scenario: ScenarioParams,
    protocol: ProtocolParams,
    /// The forwarding policy: every protocol decision point is one of its
    /// methods (DESIGN.md § 8). A builtin run's variant lives only here.
    policy: Policy,
    /// The variant whose MAC rules apply ([`Policy::mac`]), cached so the
    /// per-event hot paths read plain values instead of dispatching.
    mac: VariantConfig,
    seed: u64,
    timing: Timing,
    end: SimTime,

    events: EventQueue<Event>,
    nodes: Vec<Node>,
    /// Node motion: the models, their streams, positions and the grid.
    mobility: MobilityDriver,
    medium: Medium<MacPayload>,

    ids: MessageIdAllocator,
    delivered_ids: DeliveredSet,
    metrics: RunMetrics,
    deliveries: Vec<DeliveryRecord>,

    scratch: CycleScratch,
    /// Eq. 14's window for each expected replier count `1..=cap + 1`
    /// ([`Self::cts_window`]), searched on first use. Derived from the
    /// protocol constants alone, so never serialized.
    cts_windows: Vec<u32>,
    /// The fault plan, the fault stream, link degradation, behaviors and
    /// the lifetime census.
    faults: FaultInjector,
    /// The trace sink, the metrics recorder and the event profile.
    observers: Observers,
}

/// Configures and constructs a [`Simulation`].
///
/// Created by [`Simulation::builder`]. Every optional attachment — custom
/// protocol constants, a seed, a [`FaultPlan`], a [`TraceSink`], a
/// [`MetricsRecorder`] — hangs off this
/// one type, so the `Simulation` constructor surface stays put.
///
/// # Examples
///
/// ```
/// use dftmsn_core::faults::FaultPlan;
/// use dftmsn_core::params::ScenarioParams;
/// use dftmsn_core::variants::ProtocolKind;
/// use dftmsn_core::world::Simulation;
///
/// let scenario = ScenarioParams::smoke_test().with_duration_secs(300);
/// let plan = FaultPlan::node_failures(&scenario, 0.2, None, 7);
/// let report = Simulation::builder(scenario, ProtocolKind::Opt)
///     .seed(7)
///     .faults(plan)
///     .build()
///     .run();
/// assert!(report.faults.crashes > 0);
/// ```
#[derive(Debug)]
#[must_use = "call build() to obtain the Simulation"]
pub struct SimulationBuilder {
    scenario: ScenarioParams,
    config: VariantConfig,
    protocol: ProtocolParams,
    policy: PolicySpec,
    seed: u64,
    mobility_mode: MobilityMode,
    contact_cache: bool,
    faults: Option<FaultPlan>,
    trace: Option<Box<dyn TraceSink>>,
    observer: Option<MetricsRecorder>,
}

impl SimulationBuilder {
    /// Overrides the protocol constants (default:
    /// [`ProtocolParams::paper_default`]).
    pub fn protocol(mut self, protocol: ProtocolParams) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the root seed every random stream forks from (default: 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the forwarding policy (default: [`PolicySpec::Builtin`],
    /// i.e. whatever variant the run's config names). A non-builtin
    /// policy supplies its own receiver-qualification, selection, copy
    /// bookkeeping and MAC-adaptation rules; see [`crate::policy`].
    pub fn policy(mut self, spec: PolicySpec) -> Self {
        self.policy = spec;
        self
    }

    /// Selects how mobility is advanced (default:
    /// [`MobilityMode::Ticked`], the mode of every pre-existing golden
    /// baseline). [`MobilityMode::Lazy`] advances only the nodes whose
    /// positions are actually consulted — same distributions, different
    /// randomness order, so lazy runs carry their own baselines.
    pub fn mobility_mode(mut self, mode: MobilityMode) -> Self {
        self.mobility_mode = mode;
        self
    }

    /// Enables or disables the ticked-mode contact cache (default: on).
    /// Disabling it forces every neighbour query down the exact uncached
    /// path; results must be bit-identical either way. This is a
    /// differential-testing knob, not a tuning surface.
    pub fn contact_cache(mut self, on: bool) -> Self {
        self.contact_cache = on;
        self
    }

    /// Installs a fault plan, scheduled as first-class event-queue entries.
    /// An empty plan schedules nothing and leaves the run bit-for-bit
    /// identical to a fault-free one.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a trace sink observing MAC-level events during the run.
    ///
    /// Use a [`crate::trace::SharedTrace`] clone to read the trace back
    /// after [`Simulation::run`] consumed the sink. Composes with
    /// [`observe`](Self::observe): the recorder sees each event first, then
    /// this sink.
    pub fn trace<S: TraceSink + 'static>(mut self, sink: S) -> Self {
        self.trace = Some(Box::new(sink));
        self
    }

    /// Attaches a windowed metrics recorder. The simulation feeds it every
    /// trace event, samples a
    /// [`WorldSnapshot`] at each window
    /// boundary, and finalizes it (totals line, flush) when the run ends.
    ///
    /// Keep a clone of the recorder to read the series back afterwards.
    pub fn observe(mut self, recorder: MetricsRecorder) -> Self {
        self.observer = Some(recorder);
        self
    }

    /// Validates everything and constructs the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the scenario, protocol constants or fault plan fail
    /// validation.
    #[must_use]
    pub fn build(self) -> Simulation {
        self.scenario
            .validate()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        self.protocol
            .validate()
            .unwrap_or_else(|e| panic!("invalid protocol params: {e}"));
        let policy = self
            .policy
            .into_policy(self.config, self.scenario.node_count());
        let mut sim = Simulation::construct(
            self.scenario,
            self.protocol,
            policy,
            self.seed,
            self.mobility_mode,
        );
        if let Some(plan) = self.faults {
            plan.validate(&sim.scenario)
                .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
            for (k, at) in sim.faults.install(plan) {
                sim.events.schedule_at(at, Event::Fault(k));
            }
        }
        if !self.contact_cache {
            sim.mobility.drop_contact_cache();
        }
        let meta = || RunMeta {
            protocol: sim.policy.label().to_owned(),
            seed: sim.seed,
            duration_secs: sim.scenario.duration_secs as f64,
            sensors: sim.scenario.sensors,
            sinks: sim.scenario.sinks,
        };
        if let Some(first) = sim
            .observers
            .attach(self.trace, self.observer, meta, sim.end)
        {
            sim.events.schedule_at(first, Event::ObserveTick);
        }
        sim
    }
}

impl Simulation {
    /// Starts configuring a simulation of the given scenario and variant.
    /// Accepts either a [`ProtocolKind`](crate::variants::ProtocolKind)
    /// or a custom [`VariantConfig`]
    /// (for ablations).
    pub fn builder(
        scenario: ScenarioParams,
        config: impl Into<VariantConfig>,
    ) -> SimulationBuilder {
        SimulationBuilder {
            scenario,
            config: config.into(),
            protocol: ProtocolParams::paper_default(),
            policy: PolicySpec::Builtin,
            seed: 1,
            mobility_mode: MobilityMode::default(),
            contact_cache: true,
            faults: None,
            trace: None,
            observer: None,
        }
    }

    /// Builds the simulation world (no optional attachments) from
    /// validated parameters.
    fn construct(
        scenario: ScenarioParams,
        protocol: ProtocolParams,
        policy: Policy,
        seed: u64,
        mode: MobilityMode,
    ) -> Self {
        let mut sim = Self::construct_static(scenario, protocol, policy, seed, mode);
        sim.mobility.sync_positions();
        sim.schedule_initial_events();
        sim
    }

    /// The world [`construct`](Self::construct) starts from: nodes, models,
    /// medium and tables, with positions and the spatial grid still empty
    /// and no event scheduled. Checkpoint restore starts here, since it
    /// replaces the event set and syncs positions from restored models.
    /// Both callers validate the parameters first.
    fn construct_static(
        scenario: ScenarioParams,
        protocol: ProtocolParams,
        policy: Policy,
        seed: u64,
        mode: MobilityMode,
    ) -> Self {
        let root = SimRng::seed_from(seed);
        let n = scenario.node_count();
        let faults = FaultInjector::new(n, scenario.sensors, root.fork(0x4641_554C)); // "FAUL"
        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                let role = if i < scenario.sensors {
                    NodeRole::Sensor
                } else {
                    NodeRole::Sink
                };
                Node::new(
                    NodeId(i),
                    role,
                    scenario.queue_capacity,
                    protocol.history_window_s,
                    root.fork(1000 + i as u64),
                )
            })
            .collect();
        let mobility = MobilityDriver::new(&scenario, mode, root.fork(0x4d4f_4249)); // "MOBI"

        let mut medium = Medium::new(n);
        for node in &nodes {
            // Everyone starts awake and listening.
            medium.set_listening(node.id, true);
        }

        let timing = Timing::new(&scenario, &protocol);
        let end = SimTime::from_secs(scenario.duration_secs);
        let metrics = RunMetrics::new(scenario.duration_secs as f64);

        // Expected radio-disc occupancy at this density, the natural size
        // for every neighbourhood-shaped scratch buffer.
        let disc = std::f64::consts::PI * scenario.channel.range_m * scenario.channel.range_m;
        let area = scenario.area_width_m * scenario.area_height_m;
        let occupancy = (n as f64 * disc / area.max(1.0)).ceil();
        let k = (occupancy as usize).clamp(8, 256);

        let mac = policy.mac();
        let cts_windows = vec![0; protocol.cts_window_cap as usize + 2];
        Simulation {
            scenario,
            protocol,
            policy,
            mac,
            seed,
            timing,
            end,
            events: EventQueue::new(),
            nodes,
            mobility,
            medium,
            ids: MessageIdAllocator::new(),
            delivered_ids: DeliveredSet::new(),
            metrics,
            deliveries: Vec::new(),
            scratch: CycleScratch::seeded(k),
            cts_windows,
            faults,
            observers: Observers::default(),
        }
    }

    /// The attached policy's serializable descriptor.
    #[must_use]
    pub fn policy_spec(&self) -> PolicySpec {
        self.policy.spec()
    }

    fn schedule_initial_events(&mut self) {
        self.events
            .schedule_after(self.mobility.period(), Event::MobilityTick);
        for i in 0..self.scenario.sensors {
            let id = NodeId(i);
            // Desynchronize first wakeups.
            let jitter = {
                let node = &mut self.nodes[i];
                SimDuration::from_secs_f64(node.rng.gen_range_f64(0.0, 2.0))
            };
            self.schedule_timer(id, jitter, Timer::WakeUp);
            let first_gen = {
                let node = &mut self.nodes[i];
                SimDuration::from_secs_f64(node.rng.gen_exp(self.scenario.data_interval_secs))
            };
            self.events.schedule_after(first_gen, Event::DataGen(id));
            let delta = SimDuration::from_secs_f64(self.protocol.xi_timeout_secs);
            self.events.schedule_after(delta, Event::MetricTimeout(id));
        }
    }

    /// Runs the simulation to its configured end and produces the report.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        while self.step() {}
        self.finish_report()
    }

    /// Runs to completion with per-event-kind wall-time profiling enabled,
    /// returning the report alongside the profile.
    ///
    /// Profiling adds two clock reads per event, so the profiled run's
    /// aggregate wall time is not comparable with an unprofiled one —
    /// the per-kind cost *shares* are the meaningful output. The simulated
    /// results (report, trace, RNG streams) are bit-identical to
    /// [`run`](Self::run): the profile only observes the wall clock.
    #[must_use]
    pub fn run_profiled(mut self) -> (SimReport, EventProfile) {
        self.observers.start_profile(&EVENT_KIND_LABELS);
        while self.step() {}
        let profile = self.observers.take_profile();
        (self.finish_report(), profile)
    }

    /// Contact-cache telemetry: `(hits, misses)` of the ticked-mode
    /// neighbour cache, `None` in lazy mode.
    #[must_use]
    pub fn contact_cache_stats(&self) -> Option<(u64, u64)> {
        self.mobility.contact_cache_stats()
    }

    /// Frames currently on the air: transmissions whose `TxEnd` has not
    /// fired yet. A checkpoint taken while this is nonzero exercises the
    /// mid-frame seam — the snapshot must carry the in-flight state.
    #[must_use]
    pub fn airborne_frames(&self) -> usize {
        self.medium.airborne()
    }

    /// Sensors currently mid-coast-lease in ticked mode (straight-line
    /// ticks promised but not yet replayed into their models). `None` in
    /// lazy mode. Checkpointing settles every lease first; this telemetry
    /// lets tests prove a snapshot instant actually was mid-lease.
    #[must_use]
    pub fn coasting_nodes(&self) -> Option<usize> {
        self.mobility.coasting_nodes()
    }

    /// The simulation clock: the time of the most recently processed
    /// event. Checkpoints taken between [`step`](Self::step) calls are
    /// stamped with this instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Processes the next pending event, returning `false` when the run
    /// is complete (no pending event at or before the configured end).
    ///
    /// `run` is equivalent to stepping until exhaustion and then calling
    /// the report finalizer; external drivers (checkpointing loops,
    /// signal-interruptible runs) use `step` directly so they can act on
    /// event boundaries.
    pub fn step(&mut self) -> bool {
        match self.events.peek_time() {
            Some(t) if t <= self.end => {
                let (now, ev) = self.events.pop().expect("peeked event exists");
                self.prefetch_next_event();
                if self.observers.profiling() {
                    let kind = self.event_kind_index(&ev);
                    let t0 = std::time::Instant::now();
                    self.handle(now, ev);
                    self.observers.record_profile(kind, t0.elapsed());
                } else {
                    self.handle(now, ev);
                }
                true
            }
            _ => false,
        }
    }

    /// Requests the lines the next ready event's handler loads first — its
    /// node's `Node` — so those misses overlap the current event's handler
    /// (DESIGN.md § 6, "Lookahead prefetch"). Cache state only: no
    /// simulation state is read or written.
    #[inline]
    fn prefetch_next_event(&self) {
        let j = match self.events.lookahead() {
            Some((
                _,
                Event::Timer(i, ..)
                | Event::DataGen(i)
                | Event::MetricTimeout(i)
                | Event::TxEnd(i, _),
            )) => i.index(),
            _ => return,
        };
        prefetch(&self.nodes[j]);
    }

    /// Row index into [`EVENT_KIND_LABELS`] for a pending event. Timers
    /// whose epoch guard already failed classify as `Timer:stale`.
    fn event_kind_index(&self, ev: &Event) -> usize {
        match ev {
            Event::MobilityTick => 0,
            Event::DataGen(_) => 1,
            Event::MetricTimeout(_) => 2,
            Event::TxEnd(..) => 3,
            Event::Timer(i, epoch, timer) => {
                if self.nodes[i.index()].epoch != *epoch {
                    11
                } else {
                    match timer {
                        Timer::WakeUp => 4,
                        Timer::ListenDone => 5,
                        Timer::CtsSlot => 6,
                        Timer::CtsWindowEnd => 7,
                        Timer::AckSlot => 8,
                        Timer::AckWindowEnd => 9,
                        Timer::Guard => 10,
                    }
                }
            }
            Event::Fault(_) => 12,
            Event::ObserveTick => 13,
        }
    }

    /// Finalizes an *interrupted* run into a report covering the elapsed
    /// horizon (`now`): energy meters close at the interruption instant
    /// and rates normalize by the elapsed — not configured — duration.
    /// The attached observer flushes its partial window and totals.
    #[must_use]
    pub fn finish_partial(self) -> SimReport {
        let horizon = self.events.now();
        self.finish_report_at(horizon)
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::MobilityTick => self.on_mobility_tick(now),
            Event::DataGen(i) => self.on_data_gen(now, i),
            Event::MetricTimeout(i) => self.on_metric_timeout(now, i),
            Event::TxEnd(i, handle) => self.on_tx_end(now, i, handle),
            Event::Timer(i, epoch, timer) => {
                // A timer whose epoch no longer matches its node's was
                // implicitly cancelled by a later state transition.
                if self.nodes[i.index()].epoch == epoch {
                    self.on_timer(now, i, timer);
                }
            }
            Event::Fault(k) => self.on_fault(now, k),
            Event::ObserveTick => self.on_observe_tick(now),
        }
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// Samples the world for the attached observer and schedules the next
    /// boundary tick. Reads state only — no RNG stream is touched — so
    /// observation never perturbs the simulation.
    fn on_observe_tick(&mut self, now: SimTime) {
        let (nodes, scenario) = (&self.nodes, &self.scenario);
        let snapshot = || world_snapshot(nodes, scenario, now);
        if let Some(next) = self.observers.tick(now, self.end, snapshot) {
            self.events.schedule_at(next, Event::ObserveTick);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Fires fault event `k`. The injector applies the kinds that change
    /// only its own state; the node-side kinds are applied here.
    fn on_fault(&mut self, now: SimTime, k: usize) {
        let kind = self.faults.label(k);
        self.observers
            .emit(TraceEvent::FaultInjected { at: now, kind });
        match self.faults.fire(k) {
            FaultKind::NodeCrash(i) => {
                if self.crash_node(now, i, false) {
                    self.metrics.faults.crashes += 1;
                }
            }
            FaultKind::BatteryDeath(i) => {
                if self.crash_node(now, i, true) {
                    self.metrics.faults.crashes += 1;
                    self.metrics.faults.battery_deaths += 1;
                }
            }
            FaultKind::NodeRecover(i) => {
                if self.recover_node(now, i) {
                    self.metrics.faults.recoveries += 1;
                }
            }
            FaultKind::SinkDown(i) => {
                if self.crash_node(now, i, false) {
                    self.metrics.faults.crashes += 1;
                    self.metrics.faults.sink_outages += 1;
                }
            }
            FaultKind::SinkUp(i) => {
                if self.recover_node(now, i) {
                    self.metrics.faults.recoveries += 1;
                }
            }
            FaultKind::DataCorruption { node, prob } => {
                self.nodes[node.index()].corrupt_rx_prob = prob.clamp(0.0, 1.0);
            }
            FaultKind::BehaviorChange { .. } => {
                self.metrics.faults.behavior_changes += 1;
            }
            FaultKind::LinkDegrade { .. } | FaultKind::GlobalLinkDegrade { .. } => {}
        }
    }

    /// Halts node `i`: the radio goes dark, queued copies are lost, all
    /// pending timers are invalidated via the epoch bump, and any sender
    /// context is reclaimed. Returns false if the node was already down.
    fn crash_node(&mut self, now: SimTime, i: NodeId, permanent: bool) -> bool {
        let idx = i.index();
        if !self.nodes[idx].alive {
            // Crashing a dead node is a no-op, but a battery death still
            // pins it down so a later recovery is refused.
            if permanent {
                self.nodes[idx].battery_dead = true;
            }
            return false;
        }
        let mut lost = 0u64;
        let taken_ctx = {
            let node = &mut self.nodes[idx];
            node.alive = false;
            if permanent {
                node.battery_dead = true;
            }
            while let Some(dropped) = node.queue.pop_head() {
                lost += 1;
                // Policies with per-message ledgers reclaim them here.
                self.policy.on_copy_discarded(i, &dropped);
            }
            // The epoch bump makes every pending timer stale, so the node
            // cannot be revived by a leftover WakeUp or window deadline.
            node.transition(MacState::Sleeping);
            node.meter
                .set_state(now, RadioState::Sleep, &self.scenario.energy);
            node.receiver_ctx = None;
            node.listen_retries = 0;
            node.cycles_inactive = 0;
            node.sender_ctx.take()
        };
        if let Some(ctx) = taken_ctx {
            self.scratch.recycle_sender_ctx(ctx);
        }
        self.metrics.faults.messages_lost_to_crash += lost;
        self.medium.set_listening(i, false);
        if idx < self.scenario.sensors {
            self.faults.on_death(now);
        }
        true
    }

    /// Reboots a crashed node with an empty queue. Refused for nodes that
    /// are alive or battery-dead. Sensors get a jittered first wakeup, like
    /// at the start of the run; sinks simply resume listening.
    fn recover_node(&mut self, now: SimTime, i: NodeId) -> bool {
        let idx = i.index();
        {
            let node = &mut self.nodes[idx];
            if node.alive || node.battery_dead {
                return false;
            }
            node.alive = true;
            node.transition(MacState::Passive);
            node.meter
                .set_state(now, RadioState::Idle, &self.scenario.energy);
            node.cycles_inactive = 0;
            node.listen_retries = 0;
        }
        self.medium.set_listening(i, true);
        if idx < self.scenario.sensors {
            self.faults.on_revive();
        }
        if !self.nodes[idx].is_sink() {
            let jitter = self.faults.recovery_jitter();
            self.schedule_timer(i, jitter, Timer::WakeUp);
        }
        true
    }

    fn schedule_timer(&mut self, i: NodeId, delay: SimDuration, timer: Timer) {
        let epoch = self.nodes[i.index()].epoch;
        self.events
            .schedule_after(delay, Event::Timer(i, epoch, timer));
    }

    fn on_mobility_tick(&mut self, now: SimTime) {
        self.mobility.tick(now);
        self.events
            .schedule_after(self.mobility.period(), Event::MobilityTick);
    }

    fn on_data_gen(&mut self, now: SimTime, i: NodeId) {
        // A crashed sensor senses nothing, but its Poisson clock keeps
        // ticking so generation resumes on recovery.
        if self.nodes[i.index()].alive {
            let id = self.ids.allocate();
            let msg = Message::sensed(id, i, now);
            self.metrics.generated += 1;
            self.insert_into_queue(now, i, msg);
        }
        let next = {
            let node = &mut self.nodes[i.index()];
            SimDuration::from_secs_f64(node.rng.gen_exp(self.scenario.data_interval_secs))
        };
        self.events.schedule_after(next, Event::DataGen(i));
    }

    fn on_metric_timeout(&mut self, now: SimTime, i: NodeId) {
        let delta = SimDuration::from_secs_f64(self.protocol.xi_timeout_secs);
        let node = &mut self.nodes[i.index()];
        if !node.alive {
            // ξ is frozen while the node is down; the anchor stays put, so
            // the first timeout after recovery applies every missed window.
            self.events.schedule_after(delta, Event::MetricTimeout(i));
            return;
        }
        // Eq. 1 decays ξ once per *elapsed* Δ window since the last
        // transmission (or the last applied decay), not once per event
        // firing: a node that was unreachable across several windows —
        // asleep past its timer or crashed — catches up on all of them
        // here. In an undisturbed run exactly one window has elapsed at
        // every firing, so this matches the one-decay-per-Δ schedule.
        let anchor = node.last_tx.max(node.xi_anchor);
        let due = anchor + delta;
        if now >= due {
            let windows = (now.saturating_since(anchor).ticks() / delta.ticks().max(1)).max(1);
            node.metric.decay_windows(self.protocol.alpha, windows);
            node.xi_anchor = anchor + delta * windows;
            self.events.schedule_after(delta, Event::MetricTimeout(i));
        } else {
            self.events.schedule_at(due, Event::MetricTimeout(i));
        }
    }

    fn on_timer(&mut self, now: SimTime, i: NodeId, timer: Timer) {
        match timer {
            Timer::WakeUp => self.start_cycle(now, i),
            Timer::ListenDone => self.on_listen_done(now, i),
            Timer::CtsSlot => self.on_cts_slot(now, i),
            Timer::CtsWindowEnd => self.on_cts_window_end(now, i),
            Timer::AckSlot => self.on_ack_slot(now, i),
            Timer::AckWindowEnd => self.finalize_multicast(now, i),
            Timer::Guard => self.end_cycle(now, i, false),
        }
    }

    // ------------------------------------------------------------------
    // Cycle control
    // ------------------------------------------------------------------

    fn start_cycle(&mut self, now: SimTime, i: NodeId) {
        let node = &self.nodes[i.index()];
        if node.is_sink() || !node.alive {
            return;
        }
        // A node waking from a long nap catches its own position up before
        // acting (lazy mode only; no-op otherwise).
        self.mobility.catch_up(i.index(), now);
        {
            let node = &mut self.nodes[i.index()];
            if node.state == MacState::Sleeping {
                node.meter
                    .set_state(now, RadioState::Idle, &self.scenario.energy);
                self.medium.set_listening(i, true);
            }
            if let Some(ctx) = node.sender_ctx.take() {
                self.scratch.recycle_sender_ctx(ctx);
            }
            node.receiver_ctx = None;
            node.listen_retries = 0;
        }
        // Withholding adversaries (selfish, liar, blackhole) never enter
        // the sender phase: captured copies rot in their queues. Forgers
        // *do* transmit — corrupting relayed DATA requires sending it.
        if self.faults.behavior(i.index()).withholds() || self.nodes[i.index()].queue.is_empty() {
            // Nothing to send: stay available as a receiver for a window,
            // then re-evaluate the sleeping policy.
            let window = SimDuration::from_secs_f64(self.protocol.receiver_window_secs);
            self.nodes[i.index()].transition(MacState::Passive);
            self.schedule_timer(i, window, Timer::Guard);
        } else {
            self.enter_sender_listen(now, i);
        }
    }

    fn enter_sender_listen(&mut self, now: SimTime, i: NodeId) {
        let tau_max = self.tau_max_for(now, i);
        let node = &mut self.nodes[i.index()];
        // Eq. 9's ξ-scaled listening period is part of the Sec. 4.2
        // optimization; the unoptimized protocol draws uniformly over the
        // whole fixed window.
        let sig = if self.mac.adaptive_tau {
            sigma(node.metric.value(), tau_max)
        } else {
            tau_max
        };
        let tau_slots = node.rng.gen_range_inclusive(1, sig);
        node.transition(MacState::SenderListen);
        self.metrics.attempts += 1;
        let listen = self.timing.listen_slot * tau_slots;
        self.schedule_timer(i, listen, Timer::ListenDone);
    }

    fn on_listen_done(&mut self, now: SimTime, i: NodeId) {
        debug_assert_eq!(self.nodes[i.index()].state, MacState::SenderListen);
        // Carrier sense with a one-slot turnaround blind window: energy
        // that appeared less than a listening slot ago is not yet
        // detectable, so contenders whose listening periods end in the
        // same slot collide — the regime Eqs. 10–12 analyse.
        let detected_busy = match self.medium.busy_since(i) {
            Some(t0) => now.saturating_since(t0) >= self.timing.listen_slot,
            None => false,
        };
        if detected_busy {
            // Busy channel: restart the asynchronous phase (bounded).
            let node = &mut self.nodes[i.index()];
            node.listen_retries += 1;
            if node.listen_retries > 3 {
                self.end_cycle(now, i, false);
            } else {
                self.enter_sender_listen(now, i);
            }
            return;
        }
        let Some(head) = self.nodes[i.index()].queue.peek_head().copied() else {
            self.end_cycle(now, i, false);
            return;
        };
        let window = self.window_for(now, i);
        let candidates = self.scratch.take_candidates();
        let acked = self.scratch.take_acked();
        self.nodes[i.index()].sender_ctx = Some(SenderCtx {
            msg: head,
            window_slots: window,
            candidates,
            selection: None,
            acked,
        });
        self.begin_frame(
            now,
            i,
            MacPayload::Preamble,
            self.scenario.control_bits,
            TxPlan::Preamble,
        );
    }

    fn on_cts_slot(&mut self, now: SimTime, i: NodeId) {
        debug_assert_eq!(self.nodes[i.index()].state, MacState::CtsPending);
        let (metric, space, msg) = {
            let node = &self.nodes[i.index()];
            let ctx = node.receiver_ctx.as_ref().expect("CTS slot without ctx");
            let space = if node.is_sink() {
                u32::MAX
            } else {
                // Advertise the buffer space available for the FTD class
                // the sender announced in its RTS (Sec. 3.2.1).
                node.queue
                    .available_space_for(Ftd::new(ctx.rts_ftd.clamp(0.0, 1.0)))
                    .min(u32::MAX as usize) as u32
            };
            (node.metric.value(), space, ctx.msg)
        };
        // Liars and forgers advertise a perfect ξ and unbounded buffer to
        // win the sender's selection; the sender's copy-fate logic then
        // believes the copy moved (or was delivered) and drops it — the
        // capture mechanism of both behaviors.
        let (metric, space) = if !self.nodes[i.index()].is_sink() {
            match self.faults.behavior(i.index()) {
                NodeBehavior::Liar => {
                    self.metrics.faults.lied_advertisements += 1;
                    (1.0, u32::MAX)
                }
                NodeBehavior::Forger => {
                    self.metrics.faults.forged_frames += 1;
                    (1.0, u32::MAX)
                }
                _ => (metric, space),
            }
        } else {
            (metric, space)
        };
        self.begin_frame(
            now,
            i,
            MacPayload::Cts {
                xi: metric,
                buffer_space: space,
                msg,
            },
            self.scenario.control_bits,
            TxPlan::Cts,
        );
    }

    fn on_cts_window_end(&mut self, now: SimTime, i: NodeId) {
        debug_assert_eq!(self.nodes[i.index()].state, MacState::CollectCts);
        let mut selection = self.scratch.take_selection();
        {
            let node = &self.nodes[i.index()];
            let ctx = node.sender_ctx.as_ref().expect("window end without ctx");
            let sctx = SelectCtx {
                sender: i,
                sender_metric: node.metric.value(),
                msg: ctx.msg,
                threshold_r: self.protocol.delivery_threshold_r,
            };
            self.policy.select(
                &sctx,
                &ctx.candidates,
                &mut self.scratch.sel,
                &mut selection,
            );
        }
        if selection.is_empty() {
            self.scratch.recycle_selection(selection);
            self.end_cycle(now, i, false);
            return;
        }
        let mut receivers = self.scratch.take_schedule();
        receivers.extend(selection.receivers.iter().map(|&(id, f)| (id, f.value())));
        let payload = {
            let node = &mut self.nodes[i.index()];
            let ctx = node.sender_ctx.as_mut().expect("window end without ctx");
            let payload = MacPayload::Schedule {
                receivers,
                msg: ctx.msg.id,
            };
            ctx.selection = Some(selection);
            payload
        };
        self.begin_frame(
            now,
            i,
            payload,
            self.scenario.control_bits,
            TxPlan::Schedule,
        );
    }

    fn on_ack_slot(&mut self, now: SimTime, i: NodeId) {
        debug_assert_eq!(self.nodes[i.index()].state, MacState::AckPending);
        let msg = self.nodes[i.index()]
            .receiver_ctx
            .as_ref()
            .expect("ACK slot without ctx")
            .msg;
        // A forger's ACK is a forgery: it acknowledges data it is about to
        // corrupt (or data it never stored faithfully). The frame itself is
        // indistinguishable on the air, so it still captures the copy.
        if self.faults.behavior(i.index()) == NodeBehavior::Forger {
            self.metrics.faults.forged_frames += 1;
        }
        self.begin_frame(
            now,
            i,
            MacPayload::Ack { msg },
            self.scenario.control_bits,
            TxPlan::Ack,
        );
    }

    /// Applies the policy's receiver-selection rule, returning a fresh
    /// `Selection` (test and inspection use; the hot path reuses buffers).
    #[cfg(test)]
    fn select_for(&self, sender_metric: f64, msg_ftd: Ftd, candidates: &[Candidate]) -> Selection {
        let mut scratch = SelectionScratch::default();
        let mut out = Selection::default();
        let ctx = SelectCtx {
            sender: NodeId(0),
            sender_metric,
            msg: Message::sensed(MessageId(u64::MAX), NodeId(usize::MAX), SimTime::ZERO)
                .with_ftd(msg_ftd),
            threshold_r: self.protocol.delivery_threshold_r,
        };
        self.policy.select(&ctx, candidates, &mut scratch, &mut out);
        out
    }

    fn finalize_multicast(&mut self, now: SimTime, i: NodeId) {
        debug_assert_eq!(self.nodes[i.index()].state, MacState::AwaitAcks);
        let ctx = self.nodes[i.index()]
            .sender_ctx
            .take()
            .expect("finalize without ctx");
        let selection = ctx.selection.as_ref().expect("finalize without selection");

        self.scratch.confirmed_xis.clear();
        let mut any_sink = false;
        for (k, &(id, _)) in selection.receivers.iter().enumerate() {
            if ctx.acked.contains(&id) {
                self.scratch.confirmed_xis.push(selection.receiver_xis[k]);
                if self.nodes[id.index()].is_sink() {
                    any_sink = true;
                }
            }
        }
        if self.scratch.confirmed_xis.is_empty() {
            self.metrics.failed_attempts += 1;
            self.scratch.recycle_sender_ctx(ctx);
            self.end_cycle(now, i, false);
            return;
        }
        self.metrics.multicasts += 1;
        self.metrics.copies_sent += self.scratch.confirmed_xis.len() as u64;

        // Metric update (Eq. 1 / history / estimator, per policy) and the
        // retained copy's fate in one dispatch.
        let alpha = self.protocol.alpha;
        let fate = {
            let confirmed = Confirmed {
                xis: &self.scratch.confirmed_xis,
                any_sink,
            };
            let node = &mut self.nodes[i.index()];
            node.last_tx = now;
            self.policy.on_multicast(
                i,
                &ctx.msg,
                &confirmed,
                alpha,
                self.protocol.ftd_drop_threshold,
                &mut node.metric,
            )
        };

        // Queue bookkeeping for the transmitted message.
        let msg_id = ctx.msg.id;
        match fate {
            CopyFate::Delivered | CopyFate::Moved => {
                self.nodes[i.index()].queue.remove(msg_id);
            }
            CopyFate::Retain => {}
            CopyFate::Demote(new_ftd) => {
                self.nodes[i.index()].queue.update_ftd(msg_id, new_ftd);
            }
            CopyFate::Drop => {
                if self.nodes[i.index()].queue.remove(msg_id).is_some() {
                    self.metrics.drops_ftd += 1;
                    self.observers.emit(TraceEvent::Dropped {
                        at: now,
                        node: i,
                        msg: msg_id,
                        reason: DropReason::FtdThreshold,
                    });
                }
            }
        }
        self.scratch.recycle_sender_ctx(ctx);
        self.end_cycle(now, i, true);
    }

    fn end_cycle(&mut self, now: SimTime, i: NodeId, active: bool) {
        if self.nodes[i.index()].is_sink() {
            let node = &mut self.nodes[i.index()];
            if let Some(ctx) = node.sender_ctx.take() {
                self.scratch.recycle_sender_ctx(ctx);
            }
            node.receiver_ctx = None;
            node.listen_retries = 0;
            node.transition(MacState::Passive);
            return;
        }
        let urgency_bound = Ftd::new(self.protocol.urgency_ftd_bound);
        let (go_sleep, backoff) = {
            let node = &mut self.nodes[i.index()];
            node.sleep.record_cycle(active);
            if active {
                node.cycles_inactive = 0;
            } else {
                node.cycles_inactive += 1;
            }
            if let Some(ctx) = node.sender_ctx.take() {
                self.scratch.recycle_sender_ctx(ctx);
            }
            node.receiver_ctx = None;
            node.listen_retries = 0;
            let go_sleep =
                self.mac.kind.sleeps() && node.cycles_inactive >= self.protocol.inactivity_cycles_l;
            // A node in work mode "repeats the two-phase process" (Sec. 3.2):
            // after a successful cycle the next one starts immediately; only
            // failed attempts back off before retrying.
            let backoff = if active {
                self.timing.gap
            } else {
                SimDuration::from_secs_f64(node.rng.gen_range_f64(
                    self.protocol.backoff_min_secs,
                    self.protocol.backoff_max_secs,
                ))
            };
            (go_sleep, backoff)
        };
        if go_sleep {
            let duration = if self.mac.adaptive_sleep {
                let node = &self.nodes[i.index()];
                node.sleep
                    .sleep_duration(node.queue.urgency(urgency_bound), &self.protocol)
            } else {
                SimDuration::from_secs_f64(self.protocol.fixed_sleep_secs)
            };
            let node = &mut self.nodes[i.index()];
            node.transition(MacState::Sleeping);
            node.meter
                .set_state(now, RadioState::Sleep, &self.scenario.energy);
            self.medium.set_listening(i, false);
            self.observers.emit(TraceEvent::Slept {
                at: now,
                node: i,
                secs: duration.as_secs_f64(),
            });
            self.schedule_timer(i, duration, Timer::WakeUp);
        } else {
            self.nodes[i.index()].transition(MacState::Passive);
            self.schedule_timer(i, backoff, Timer::WakeUp);
        }
    }

    // ------------------------------------------------------------------
    // Adaptive parameters (Sec. 4)
    // ------------------------------------------------------------------

    /// τ_max for node `i`: Eq. 13 over the fresh neighbor table (plus the
    /// node itself), or the fixed NOOPT value. The Eq. 13 search is
    /// memoized for a few seconds per node — the neighborhood changes on
    /// mobility timescales, not per attempt.
    fn tau_max_for(&mut self, now: SimTime, i: NodeId) -> u64 {
        if !self.mac.adaptive_tau {
            return self.protocol.tau_max_fixed_slots;
        }
        const TAU_CACHE_SECS: u64 = 5;
        if let Some((at, tau)) = self.nodes[i.index()].cached_tau {
            if now.saturating_since(at) < SimDuration::from_secs(TAU_CACHE_SECS) {
                return tau;
            }
        }
        let node = &self.nodes[i.index()];
        let ttl = SimDuration::from_secs_f64(self.protocol.neighbor_ttl_secs);
        let s = &mut self.scratch;
        node.table.fresh_by_id(now, ttl, &mut s.fresh);
        s.xis.clear();
        s.xis.extend(s.fresh.iter().map(|&(_, xi)| xi));
        s.xis.push(node.metric.value());
        let tau = optimize_tau_max_in(
            &s.xis,
            self.protocol.tau_collision_target,
            self.protocol.tau_max_cap_slots,
            &mut s.tau,
        );
        self.nodes[i.index()].cached_tau = Some((now, tau));
        tau
    }

    /// Contention window for node `i`: Eq. 14 over the expected replier
    /// count, or the fixed NOOPT value.
    fn window_for(&mut self, now: SimTime, i: NodeId) -> u32 {
        if !self.mac.adaptive_window {
            return self.protocol.cts_window_fixed as u32;
        }
        let node = &self.nodes[i.index()];
        let ttl = SimDuration::from_secs_f64(self.protocol.neighbor_ttl_secs);
        // Expected repliers: fresh higher-metric neighbors, plus one for a
        // possibly-unknown sink in range.
        let n_hat = node.table.qualified_count(node.metric.value(), now, ttl) as u64 + 1;
        self.cts_window(n_hat)
    }

    /// Eq. 14's window for `n_hat` expected repliers, from the run's
    /// table. The table is indexed by `n_hat` clamped to `cap + 1`: past
    /// the cap every window `w ≤ cap` has `n_hat > w`, so γₒ = 1 for each
    /// and the search's answer is the one at `cap + 1`. An entry is
    /// searched on its first use (0 marks one not yet searched; a window
    /// is at least one slot).
    fn cts_window(&mut self, n_hat: u64) -> u32 {
        let cap = self.protocol.cts_window_cap;
        let idx = n_hat.min(cap + 1) as usize;
        let entry = &mut self.cts_windows[idx];
        if *entry == 0 {
            *entry =
                optimize_cts_window(idx as u64, self.protocol.cts_collision_target, cap) as u32;
        }
        *entry
    }

    // ------------------------------------------------------------------
    // Radio plumbing
    // ------------------------------------------------------------------

    /// Leaves the other nodes within radio range of `i` in `scratch.ids`,
    /// in ascending order.
    fn fill_neighbors(&mut self, now: SimTime, i: NodeId) {
        let s = &mut self.scratch;
        self.mobility.neighbors(now, i.index(), &mut s.idx);
        s.ids.clear();
        s.ids.extend(s.idx.iter().map(|&j| NodeId(j)));
    }

    fn begin_frame(
        &mut self,
        now: SimTime,
        i: NodeId,
        payload: MacPayload,
        bits: u64,
        plan: TxPlan,
    ) {
        self.fill_neighbors(now, i);
        self.observers.emit(TraceEvent::FrameSent {
            at: now,
            node: i,
            tag: payload.tag(),
            bits,
        });
        if payload.is_control() {
            self.metrics.control_bits += bits;
        } else {
            self.metrics.data_bits += bits;
        }
        {
            let node = &mut self.nodes[i.index()];
            node.transition(MacState::Transmitting(plan));
            node.meter
                .set_state(now, RadioState::Tx, &self.scenario.energy);
        }
        self.medium.set_listening(i, false);
        let handle = self.medium.begin_tx(
            now,
            Frame {
                src: i,
                bits,
                payload,
            },
            &self.scratch.ids,
        );
        let airtime = self.scenario.channel.airtime(bits);
        self.events.schedule_after(airtime, Event::TxEnd(i, handle));
    }

    fn on_tx_end(&mut self, now: SimTime, i: NodeId, handle: TxHandle) {
        let mut outcome = self.medium.end_tx(now, handle);
        if !self.nodes[i.index()].alive {
            // The transmitter crashed mid-frame: the frame is truncated on
            // the air and nobody receives it. The crash already tore down
            // the node's MAC state, so only the medium needed closing.
            self.metrics.faults.frames_dropped += outcome.delivered_to.len() as u64;
            if let MacPayload::Schedule { receivers, .. } = outcome.frame.payload {
                self.scratch.recycle_schedule(receivers);
            }
            return;
        }
        let plan = match self.nodes[i.index()].state {
            MacState::Transmitting(p) => p,
            other => unreachable!("TxEnd in state {other:?}"),
        };
        // Half-duplex turnaround: back to listening.
        {
            let node = &mut self.nodes[i.index()];
            node.meter
                .set_state(now, RadioState::Idle, &self.scenario.energy);
        }
        self.medium.set_listening(i, true);

        // Sender-side progression first (receivers are driven by the
        // deliveries below and by their own timers).
        match plan {
            TxPlan::Preamble => {
                let (xi, ftd, window, msg) = {
                    let node = &self.nodes[i.index()];
                    let ctx = node.sender_ctx.as_ref().expect("preamble without ctx");
                    let (xi, ftd) = self.policy.advertise(i, node.metric.value(), &ctx.msg);
                    (xi, ftd, ctx.window_slots, ctx.msg.id)
                };
                // A liar that flipped mid-cycle inflates its RTS too: a
                // perfect ξ and a maximally fault-tolerant message draw
                // receivers it will never actually hand data to usefully.
                let (xi, ftd) = if self.faults.behavior(i.index()) == NodeBehavior::Liar {
                    self.metrics.faults.lied_advertisements += 1;
                    (1.0, ftd.max(1.0))
                } else {
                    (xi, ftd)
                };
                self.begin_frame(
                    now,
                    i,
                    MacPayload::Rts {
                        xi,
                        ftd,
                        window_slots: window,
                        msg,
                    },
                    self.scenario.control_bits,
                    TxPlan::Rts,
                );
            }
            TxPlan::Rts => {
                let window = self.nodes[i.index()]
                    .sender_ctx
                    .as_ref()
                    .expect("RTS without ctx")
                    .window_slots;
                self.nodes[i.index()].transition(MacState::CollectCts);
                let wait = self.timing.cts_slot * u64::from(window) + self.timing.gap;
                self.schedule_timer(i, wait, Timer::CtsWindowEnd);
            }
            TxPlan::Cts => {
                let ctx = self.nodes[i.index()].receiver_ctx.expect("CTS without ctx");
                self.nodes[i.index()].transition(MacState::AwaitSchedule);
                let deadline = ctx.rts_end
                    + self.timing.cts_slot * u64::from(ctx.window_slots)
                    + self.timing.ctrl
                    + self.timing.gap * 3;
                let delay = deadline.saturating_since(now).max(self.timing.gap);
                self.schedule_timer(i, delay, Timer::Guard);
            }
            TxPlan::Schedule => {
                let msg = {
                    let node = &self.nodes[i.index()];
                    node.sender_ctx.as_ref().expect("schedule without ctx").msg
                };
                self.begin_frame(
                    now,
                    i,
                    MacPayload::Data { msg },
                    self.scenario.data_bits,
                    TxPlan::Data,
                );
            }
            TxPlan::Data => {
                let receivers = {
                    let node = &self.nodes[i.index()];
                    node.sender_ctx
                        .as_ref()
                        .and_then(|c| c.selection.as_ref())
                        .map_or(0, |s| s.receivers.len() as u64)
                };
                self.nodes[i.index()].transition(MacState::AwaitAcks);
                let wait = self.timing.ack_slot * receivers + self.timing.gap * 2;
                self.schedule_timer(i, wait, Timer::AckWindowEnd);
            }
            TxPlan::Ack => {
                // Receive exchange complete on the receiver side.
                self.end_cycle(now, i, true);
            }
        }

        // Deliveries and collision losses.
        self.observers.frame_ended(now, &outcome);
        let delivered_to = std::mem::take(&mut outcome.delivered_to);
        let is_data = matches!(outcome.frame.payload, MacPayload::Data { .. });
        let src = outcome.frame.src;
        // A forger corrupts every DATA frame it relays. The corruption is
        // in the payload, so each receiver detects and discards it (same
        // observable outcome as the DataCorruption fault, but attributed to
        // the forger); the sender keeps the copy queued and retries.
        let src_forges = is_data && self.faults.behavior(src.index()) == NodeBehavior::Forger;
        if src_forges {
            self.metrics.faults.forged_frames += 1;
        }
        for r in delivered_to {
            // Fault filters. All of them are inert on a fault-free run:
            // every node is alive, both drop tables are empty and every
            // corruption probability is zero, so no branch is taken and no
            // random number is drawn.
            if !self.nodes[r.index()].alive {
                self.metrics.faults.frames_dropped += 1;
                if is_data {
                    self.metrics.faults.retransmissions_triggered += 1;
                }
                continue;
            }
            if self.faults.drops(src, r) {
                self.metrics.faults.frames_dropped += 1;
                if is_data {
                    self.metrics.faults.retransmissions_triggered += 1;
                }
                continue;
            }
            if is_data && self.faults.corrupts(self.nodes[r.index()].corrupt_rx_prob) {
                self.metrics.faults.data_corrupted += 1;
                self.metrics.faults.retransmissions_triggered += 1;
                continue;
            }
            if src_forges {
                self.metrics.faults.forged_detected += 1;
                self.metrics.faults.retransmissions_triggered += 1;
                continue;
            }
            self.handle_rx(now, r, &outcome.frame);
        }
        // The SCHEDULE payload carries a pooled receiver list; now that the
        // frame is fully processed, reclaim it for the next multicast.
        if let MacPayload::Schedule { receivers, .. } = outcome.frame.payload {
            self.scratch.recycle_schedule(receivers);
        }
    }

    // ------------------------------------------------------------------
    // Reception
    // ------------------------------------------------------------------

    /// Does node `r` qualify as a receiver for the advertised RTS?
    fn qualified(&self, r: NodeId, sender_xi: f64, ftd: f64, msg: MessageId) -> bool {
        let node = &self.nodes[r.index()];
        if node.is_sink() {
            // Sinks always qualify: ξ = 1 and effectively infinite buffer.
            return true;
        }
        self.policy.qualifies(
            &RxView {
                xi: node.metric.value(),
                queue: &node.queue,
            },
            &RtsInfo {
                xi: sender_xi,
                ftd,
                msg,
            },
        )
    }

    fn handle_rx(&mut self, now: SimTime, r: NodeId, frame: &Frame<MacPayload>) {
        let src = frame.src;
        // Policy estimator hook: any heard frame is a contact observation.
        // Only the meeting-rate policy returns a metric; the others fall
        // into the `None` arm and draw nothing.
        if !self.nodes[r.index()].is_sink() {
            let src_is_sink = self.nodes[src.index()].is_sink();
            if let Some(m) = self.policy.on_frame_from(r, src_is_sink, now) {
                self.nodes[r.index()].metric = DeliveryProb::new(m);
            }
        }
        match &frame.payload {
            MacPayload::Preamble => {
                if self.nodes[r.index()].state.receptive() {
                    self.nodes[r.index()].transition(MacState::AwaitRts);
                    let deadline = self.timing.ctrl + self.timing.gap * 2;
                    self.schedule_timer(r, deadline, Timer::Guard);
                }
            }
            MacPayload::Rts {
                xi,
                ftd,
                window_slots,
                msg,
            } => {
                self.nodes[r.index()].table.observe(src, *xi, now);
                let state = self.nodes[r.index()].state;
                if !(state == MacState::AwaitRts || state.receptive()) {
                    return;
                }
                // Behavior overrides sit *around* the policy's qualify
                // rule, so every policy faces the same adversaries:
                // selfish nodes never CTS-reply, black holes always do,
                // liars/forgers volunteer whenever they can physically
                // store the copy (their CTS then inflates the
                // advertisement).
                let behavior = if self.nodes[r.index()].is_sink() {
                    NodeBehavior::Honest
                } else {
                    self.faults.behavior(r.index())
                };
                let qualifies = match behavior {
                    NodeBehavior::Honest => self.qualified(r, *xi, *ftd, *msg),
                    NodeBehavior::Selfish => false,
                    NodeBehavior::Blackhole => true,
                    NodeBehavior::Liar | NodeBehavior::Forger => {
                        let queue = &self.nodes[r.index()].queue;
                        !queue.contains(*msg)
                            && queue.available_space_for(Ftd::new((*ftd).clamp(0.0, 1.0))) > 0
                    }
                };
                if qualifies {
                    let slot = {
                        let node = &mut self.nodes[r.index()];
                        node.rng
                            .gen_range_inclusive(1, u64::from(*window_slots).max(1))
                            as u32
                    };
                    self.nodes[r.index()].receiver_ctx = Some(ReceiverCtx {
                        sender: src,
                        msg: *msg,
                        rts_ftd: *ftd,
                        window_slots: *window_slots,
                        rts_end: now,
                        assigned_ftd: None,
                        ack_slot: 0,
                    });
                    self.nodes[r.index()].transition(MacState::CtsPending);
                    let delay = self.timing.cts_slot * u64::from(slot - 1) + self.timing.gap;
                    self.schedule_timer(r, delay, Timer::CtsSlot);
                } else {
                    // NAV: defer until the overheard exchange finishes.
                    self.nodes[r.index()].transition(MacState::Passive);
                    let nav = self.timing.nav_after_rts(*window_slots);
                    self.schedule_timer(r, nav, Timer::Guard);
                }
            }
            MacPayload::Cts {
                xi,
                buffer_space,
                msg,
            } => {
                self.nodes[r.index()].table.observe(src, *xi, now);
                let state = self.nodes[r.index()].state;
                if state == MacState::CollectCts {
                    let node = &mut self.nodes[r.index()];
                    let ctx = node.sender_ctx.as_mut().expect("CollectCts without ctx");
                    if ctx.msg.id == *msg {
                        ctx.candidates.push(Candidate {
                            id: src,
                            xi: *xi,
                            buffer_space: *buffer_space as usize,
                        });
                    }
                } else if state.receptive() {
                    // Third party: stay out of the way (NAV).
                    self.nodes[r.index()].transition(MacState::Passive);
                    let nav = self.timing.nav_overheard();
                    self.schedule_timer(r, nav, Timer::Guard);
                }
            }
            MacPayload::Schedule { receivers, msg } => {
                let state = self.nodes[r.index()].state;
                if state == MacState::AwaitSchedule {
                    let ctx = self.nodes[r.index()]
                        .receiver_ctx
                        .expect("AwaitSchedule without ctx");
                    if ctx.msg != *msg || ctx.sender != src {
                        return;
                    }
                    if let Some(k) = receivers.iter().position(|&(id, _)| id == r) {
                        {
                            let node = &mut self.nodes[r.index()];
                            let ctx = node.receiver_ctx.as_mut().expect("ctx vanished");
                            ctx.assigned_ftd = Some(Ftd::new(receivers[k].1.clamp(0.0, 1.0)));
                            ctx.ack_slot = k as u32;
                        }
                        self.nodes[r.index()].transition(MacState::AwaitData);
                        let deadline = self.timing.data + self.timing.gap * 2;
                        self.schedule_timer(r, deadline, Timer::Guard);
                    } else {
                        // Replied but not selected: wait out the exchange.
                        self.nodes[r.index()].transition(MacState::Passive);
                        let nav = self.timing.data
                            + self.timing.ack_slot * receivers.len() as u64
                            + self.timing.gap * 3;
                        self.schedule_timer(r, nav, Timer::Guard);
                    }
                } else if state.receptive() {
                    self.nodes[r.index()].transition(MacState::Passive);
                    let nav = self.timing.nav_overheard();
                    self.schedule_timer(r, nav, Timer::Guard);
                }
            }
            MacPayload::Data { msg } => {
                if self.nodes[r.index()].state != MacState::AwaitData {
                    return;
                }
                let ctx = self.nodes[r.index()]
                    .receiver_ctx
                    .expect("AwaitData without ctx");
                if ctx.msg != msg.id || ctx.sender != src {
                    return;
                }
                if self.nodes[r.index()].is_sink() {
                    self.record_sink_reception(now, r, &msg.hopped());
                } else {
                    // Any adversarial receiver captures the copy: the ACK it
                    // is about to send makes the sender count the copy as
                    // moved (or, for a lied ξ = 1, delivered) and drop it.
                    // Black holes destroy the copy outright; the others let
                    // it rot in their queue (they never enter the sender
                    // phase).
                    let behavior = self.faults.behavior(r.index());
                    if behavior.is_adversarial() {
                        self.metrics.faults.copies_captured += 1;
                    }
                    if behavior == NodeBehavior::Blackhole {
                        // Silently dropped: no queue insert, but the MAC
                        // exchange (ACK below) completes normally.
                    } else {
                        let assigned = ctx.assigned_ftd.unwrap_or(msg.ftd);
                        self.insert_into_queue(now, r, msg.hopped().with_ftd(assigned));
                    }
                }
                self.nodes[r.index()].transition(MacState::AckPending);
                let delay = self.timing.ack_slot * u64::from(ctx.ack_slot) + self.timing.gap;
                self.schedule_timer(r, delay, Timer::AckSlot);
            }
            MacPayload::Ack { msg } => {
                if self.nodes[r.index()].state != MacState::AwaitAcks {
                    return;
                }
                let node = &mut self.nodes[r.index()];
                if let Some(ctx) = node.sender_ctx.as_mut() {
                    if ctx.msg.id == *msg && !ctx.acked.contains(&src) {
                        ctx.acked.push(src);
                    }
                }
            }
        }
    }

    fn record_sink_reception(&mut self, now: SimTime, sink: NodeId, msg: &Message) {
        self.metrics.sink_receptions += 1;
        if self.delivered_ids.insert(msg.id) {
            let delay = now.saturating_since(msg.created).as_secs_f64();
            self.metrics.record_delivery(delay);
            if self.faults.regime() {
                self.metrics.faults.deliveries_despite_faults += 1;
            }
            self.deliveries.push(DeliveryRecord {
                msg: msg.id,
                origin: msg.origin,
                created_secs: msg.created.as_secs_f64(),
                delay_secs: delay,
                sink,
                hops: msg.hops,
            });
            self.observers.emit(TraceEvent::Delivered {
                at: now,
                msg: msg.id,
                sink,
                delay_secs: delay,
            });
        }
    }

    fn insert_into_queue(&mut self, now: SimTime, i: NodeId, msg: Message) {
        // The FTD-threshold purge (Sec. 3.1.2's second drop occasion)
        // applies to the sender's retained copy after Eq. 3 — see
        // `finalize_multicast`. A copy a receiver just agreed to take is
        // stored even at a high FTD: it ranks last in the queue and is the
        // first eviction victim, but it still delivers if its carrier
        // reaches a sink. Purging such copies at insert would let a single
        // multicast annihilate every copy of a message.
        let outcome = self.nodes[i.index()].queue.insert(msg);
        match outcome {
            InsertOutcome::Inserted
            | InsertOutcome::ReplacedDuplicate
            | InsertOutcome::RejectedDuplicate => {}
            InsertOutcome::InsertedEvicting(evicted) => {
                self.metrics.drops_overflow += 1;
                self.policy.on_copy_discarded(i, &evicted);
                self.observers.emit(TraceEvent::Dropped {
                    at: now,
                    node: i,
                    msg: evicted.id,
                    reason: DropReason::Overflow,
                });
            }
            InsertOutcome::RejectedFull => {
                self.metrics.drops_rejected += 1;
                self.observers.emit(TraceEvent::Dropped {
                    at: now,
                    node: i,
                    msg: msg.id,
                    reason: DropReason::QueueFull,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    fn finish_report(self) -> SimReport {
        let duration = SimTime::from_secs(self.scenario.duration_secs);
        self.finish_report_at(duration)
    }

    fn finish_report_at(mut self, duration: SimTime) -> SimReport {
        // Finalize the recorder first: its closing snapshot reads the
        // meters *before* the loop below closes their open intervals.
        let (nodes, scenario) = (&self.nodes, &self.scenario);
        self.observers
            .finish(duration, || world_snapshot(nodes, scenario, duration));
        let energy_model = &self.scenario.energy;
        let mut total_energy = 0.0;
        let mut xi_sum = 0.0;
        let mut energy_by_state = [0.0f64; 4];
        let mut node_summaries = Vec::with_capacity(self.scenario.sensors);
        for node in &mut self.nodes {
            if node.is_sink() {
                continue;
            }
            // Close the meter's open interval so the per-state figures
            // include it.
            let final_state = node.meter.state();
            node.meter.set_state(duration, final_state, energy_model);
            let energy = node.meter.total_energy_j(duration, energy_model);
            total_energy += energy;
            xi_sum += node.metric.value();
            let by_state = [
                node.meter.energy_in_state_j(RadioState::Sleep),
                node.meter.energy_in_state_j(RadioState::Idle),
                node.meter.energy_in_state_j(RadioState::Rx),
                node.meter.energy_in_state_j(RadioState::Tx),
            ];
            for (acc, v) in energy_by_state.iter_mut().zip(by_state) {
                *acc += v;
            }
            node_summaries.push(NodeSummary {
                id: node.id,
                final_metric: node.metric.value(),
                energy_j: energy,
                queue_len: node.queue.len(),
                switches: node.meter.switch_count(),
                energy_by_state_j: by_state,
            });
        }
        let sensors = self.scenario.sensors;
        let secs = duration.as_secs_f64();
        let counters = self.medium.counters();
        let m = self.metrics;
        // Lifetime tier: death anchors from the live census plus the final
        // energy spread. The histogram's upper edge sits just above the
        // maximum observed energy (exact binary multiplier, so the layout
        // is reproducible bit-for-bit across runs with equal energies).
        let lifetime = {
            let max_e = node_summaries
                .iter()
                .map(|n| n.energy_j)
                .fold(0.0f64, f64::max);
            let mut energy_hist = Histogram::new(0.0, max_e.max(1e-6) * 1.015625, 16);
            for n in &node_summaries {
                energy_hist.record(n.energy_j);
            }
            self.faults.lifetime(energy_hist)
        };
        SimReport {
            protocol: self.policy.label().to_owned(),
            seed: self.seed,
            duration_secs: secs,
            sensors,
            sinks: self.scenario.sinks,
            generated: m.generated,
            delivered: m.delivered,
            sink_receptions: m.sink_receptions,
            mean_delay_secs: m.delay.mean(),
            p95_delay_secs: m.delay_hist.quantile(0.95).unwrap_or(0.0),
            avg_sensor_power_mw: if sensors > 0 && secs > 0.0 {
                total_energy / (sensors as f64 * secs) * 1_000.0
            } else {
                0.0
            },
            total_sensor_energy_j: total_energy,
            energy_by_state_j: energy_by_state,
            control_bits: m.control_bits,
            data_bits: m.data_bits,
            frames_sent: counters.frames_sent,
            collisions: counters.collisions,
            drops_overflow: m.drops_overflow,
            drops_rejected: m.drops_rejected,
            drops_ftd: m.drops_ftd,
            attempts: m.attempts,
            failed_attempts: m.failed_attempts,
            multicasts: m.multicasts,
            copies_sent: m.copies_sent,
            events_processed: self.events.popped() - self.observers.ticks(),
            faults: m.faults,
            lifetime,
            mean_final_xi: xi_sum / sensors as f64,
            mean_hops: if self.deliveries.is_empty() {
                0.0
            } else {
                self.deliveries
                    .iter()
                    .map(|d| f64::from(d.hops))
                    .sum::<f64>()
                    / self.deliveries.len() as f64
            },
            delay_stats: m.delay,
            delay_hist: m.delay_hist,
            deliveries: self.deliveries,
            node_summaries,
        }
    }
}

/// Instantaneous sensor-population state: queue occupancy, the ξ
/// distribution, the sleeping fraction and cumulative energy.
fn world_snapshot(nodes: &[Node], scenario: &ScenarioParams, now: SimTime) -> WorldSnapshot {
    let sensors = scenario.sensors.max(1);
    let mut queue_sum = 0u64;
    let mut queue_max = 0u64;
    let mut xi_sum = 0.0;
    let mut xi_min = f64::INFINITY;
    let mut xi_max = f64::NEG_INFINITY;
    let mut asleep = 0usize;
    let mut energy = 0.0;
    let mut alive_nodes = 0u64;
    for node in nodes.iter().take(scenario.sensors) {
        if node.alive {
            alive_nodes += 1;
        }
        let len = node.queue.len() as u64;
        queue_sum += len;
        queue_max = queue_max.max(len);
        let xi = node.metric.value();
        xi_sum += xi;
        xi_min = xi_min.min(xi);
        xi_max = xi_max.max(xi);
        if node.meter.state() == RadioState::Sleep {
            asleep += 1;
        }
        energy += node.meter.total_energy_j(now, &scenario.energy);
    }
    if xi_min > xi_max {
        xi_min = 0.0;
        xi_max = 0.0;
    }
    WorldSnapshot {
        queue_mean: queue_sum as f64 / sensors as f64,
        queue_max,
        xi_mean: xi_sum / sensors as f64,
        xi_min,
        xi_max,
        asleep_fraction: asleep as f64 / sensors as f64,
        energy_j: energy,
        alive_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::ProtocolKind;
    use dftmsn_mobility::geom::Vec2;

    fn tiny() -> ScenarioParams {
        ScenarioParams {
            sensors: 12,
            sinks: 1,
            duration_secs: 400,
            ..ScenarioParams::paper_default()
        }
    }

    #[test]
    fn simulation_runs_and_generates_traffic() {
        let report = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(1)
            .build()
            .run();
        assert!(report.generated > 0, "no traffic generated");
        assert!(report.attempts > 0, "no sender attempts");
        assert!(report.delivered <= report.generated);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .build()
            .run();
        let b = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .build()
            .run();
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.collisions, b.collisions);
        assert!((a.total_sensor_energy_j - b.total_sensor_energy_j).abs() < 1e-9);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(1)
            .build()
            .run();
        let b = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(2)
            .build()
            .run();
        // Traffic schedules differ almost surely.
        assert!(a.frames_sent != b.frames_sent || a.generated != b.generated);
    }

    #[test]
    fn nosleep_burns_more_power_than_opt() {
        let opt = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(3)
            .build()
            .run();
        let nosleep = Simulation::builder(tiny(), ProtocolKind::NoSleep)
            .seed(3)
            .build()
            .run();
        assert!(
            nosleep.avg_sensor_power_mw > 2.0 * opt.avg_sensor_power_mw,
            "NOSLEEP {} mW should dwarf OPT {} mW",
            nosleep.avg_sensor_power_mw,
            opt.avg_sensor_power_mw
        );
    }

    #[test]
    fn all_variants_run_clean() {
        for kind in ProtocolKind::ALL {
            let report = Simulation::builder(
                ScenarioParams {
                    sensors: 8,
                    sinks: 1,
                    duration_secs: 200,
                    ..ScenarioParams::paper_default()
                },
                kind,
            )
            .seed(5)
            .build()
            .run();
            assert!(report.generated > 0, "{kind}: nothing generated");
        }
    }

    #[test]
    fn sinks_never_generate_or_sleep() {
        let scenario = tiny();
        let sim = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
            .seed(9)
            .build();
        for node in &sim.nodes[scenario.sensors..] {
            assert!(node.is_sink());
            assert_eq!(node.state, MacState::Passive);
        }
        let report = sim.run();
        // All generated messages come from sensors (sink ids never appear
        // as origins because sinks get no DataGen events).
        assert!(report.generated > 0);
    }

    #[test]
    fn timing_derives_from_channel_and_gap() {
        let scenario = ScenarioParams::paper_default();
        let protocol = ProtocolParams::paper_default();
        let t = Timing::new(&scenario, &protocol);
        assert_eq!(t.ctrl, SimDuration::from_millis(5));
        assert_eq!(t.data, SimDuration::from_millis(100));
        assert_eq!(t.cts_slot, t.ctrl + t.gap);
        assert_eq!(t.listen_slot, t.ctrl);
        // NAV must outlast the worst-case exchange it defers to.
        let nav = t.nav_after_rts(8);
        assert!(nav > t.cts_slot * 8 + t.data);
        assert!(t.nav_overheard() > t.data);
    }

    #[test]
    fn qualification_follows_the_variant_rules() {
        let scenario = tiny();
        let mk = |kind: ProtocolKind| Simulation::builder(scenario.clone(), kind).seed(1).build();

        // FtdThreshold: strict metric ordering + space for the class.
        let mut sim = mk(ProtocolKind::Opt);
        let r = NodeId(0);
        sim.nodes[r.index()].metric = DeliveryProb::new(0.5);
        assert!(sim.qualified(r, 0.4, 0.0, MessageId(9)));
        assert!(
            !sim.qualified(r, 0.5, 0.0, MessageId(9)),
            "ties do not qualify"
        );
        assert!(!sim.qualified(r, 0.6, 0.0, MessageId(9)));

        // Holding a copy disqualifies.
        let msg = Message::sensed(MessageId(9), NodeId(3), SimTime::ZERO);
        sim.nodes[r.index()].queue.insert(msg);
        assert!(!sim.qualified(r, 0.1, 0.0, MessageId(9)));
        assert!(sim.qualified(r, 0.1, 0.0, MessageId(10)), "other ids fine");

        // Sinks always qualify.
        let sink = NodeId(scenario.sensors);
        assert!(sim.nodes[sink.index()].is_sink());
        assert!(sim.qualified(sink, 0.99, 0.99, MessageId(9)));

        // SinkOnly: sensors never qualify.
        let sim = mk(ProtocolKind::Direct);
        assert!(!sim.qualified(r, 0.0, 0.0, MessageId(9)));
        assert!(sim.qualified(sink, 0.9, 0.0, MessageId(9)));

        // AllResponders: metric ignored, only space matters.
        let sim = mk(ProtocolKind::Epidemic);
        assert!(sim.qualified(r, 0.99, 0.0, MessageId(9)));
    }

    #[test]
    fn select_for_respects_variant_semantics() {
        let scenario = tiny();
        let cands = vec![
            Candidate {
                id: NodeId(1),
                xi: 0.9,
                buffer_space: 4,
            },
            Candidate {
                id: NodeId(2),
                xi: 0.7,
                buffer_space: 4,
            },
            Candidate {
                id: NodeId(3),
                xi: 0.5,
                buffer_space: 0,
            },
        ];

        let sim = Simulation::builder(scenario.clone(), ProtocolKind::Zbr)
            .seed(1)
            .build();
        let sel = sim.select_for(0.1, Ftd::NEW, &cands);
        assert_eq!(sel.receivers.len(), 1, "ZBR moves a single copy");
        assert_eq!(sel.receivers[0].0, NodeId(1), "to the best replier");

        let sim = Simulation::builder(scenario.clone(), ProtocolKind::Epidemic)
            .seed(1)
            .build();
        let sel = sim.select_for(0.1, Ftd::NEW, &cands);
        assert_eq!(sel.receivers.len(), 2, "flooding takes all with space");

        let sim = Simulation::builder(scenario, ProtocolKind::Opt)
            .seed(1)
            .build();
        let sel = sim.select_for(0.1, Ftd::NEW, &cands);
        assert!(!sel.is_empty());
        assert!(sel.combined_delivery > 0.9);
    }

    #[test]
    fn tau_cache_avoids_resolving_within_the_window() {
        let mut sim = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(1)
            .build();
        let i = NodeId(0);
        let t0 = SimTime::from_secs(100);
        let tau1 = sim.tau_max_for(t0, i);
        let (cached_at, cached) = sim.nodes[i.index()].cached_tau.expect("cache filled");
        assert_eq!(cached_at, t0);
        assert_eq!(cached, tau1);
        // A call within the cache window returns the memo even if the
        // table changed.
        sim.nodes[i.index()].table.observe(NodeId(5), 0.9, t0);
        let tau2 = sim.tau_max_for(t0 + SimDuration::from_secs(1), i);
        assert_eq!(tau2, tau1);
        // After the window it re-solves and refreshes the cache stamp.
        let _ = sim.tau_max_for(t0 + SimDuration::from_secs(60), i);
        assert_eq!(
            sim.nodes[i.index()].cached_tau.unwrap().0,
            t0 + SimDuration::from_secs(60)
        );
    }

    #[test]
    fn eq14_table_matches_the_window_search_fresh_and_resumed() {
        // The paper's constants, plus small caps where n̂ = cap + 1 and
        // cap + 2 take the clamp, one of them at a target every window
        // meets.
        for (target, cap) in [(0.1, 32), (0.5, 5), (1.0, 3)] {
            let mut p = ProtocolParams::paper_default();
            p.cts_collision_target = target;
            p.cts_window_cap = cap;
            let mut sim = Simulation::builder(tiny(), ProtocolKind::Opt)
                .protocol(p)
                .seed(1)
                .build();
            assert!(sim.cts_windows.iter().all(|&w| w == 0), "filled lazily");
            while sim.now() < SimTime::from_secs(200) && sim.step() {}
            let (mut resumed, _) =
                Simulation::resume_from_bytes(&sim.checkpoint_bytes()).expect("resumes");
            assert!(
                resumed.cts_windows.iter().all(|&w| w == 0),
                "not serialized"
            );
            for run in [&mut sim, &mut resumed] {
                for n_hat in 1..=cap + 2 {
                    let expected = optimize_cts_window(n_hat, target, cap) as u32;
                    assert_eq!(run.cts_window(n_hat), expected, "n̂ {n_hat}, cap {cap}");
                    // A second read comes from the table.
                    assert_eq!(run.cts_window(n_hat), expected);
                }
            }
        }
    }

    #[test]
    fn fixed_parameters_ignore_the_table() {
        let mut sim = Simulation::builder(tiny(), ProtocolKind::NoOpt)
            .seed(1)
            .build();
        let i = NodeId(0);
        sim.nodes[i.index()]
            .table
            .observe(NodeId(5), 0.9, SimTime::ZERO);
        let p = ProtocolParams::paper_default();
        assert_eq!(
            sim.tau_max_for(SimTime::from_secs(5), i),
            p.tau_max_fixed_slots
        );
        assert_eq!(
            u64::from(sim.window_for(SimTime::from_secs(5), i)),
            p.cts_window_fixed
        );
    }

    #[test]
    fn sink_placement_is_spread_and_stationary() {
        let scenario = ScenarioParams::paper_default()
            .with_sinks(3)
            .with_duration_secs(600);
        let sinks = |sim: &Simulation| -> Vec<Vec2> {
            (0..3)
                .map(|j| sim.mobility.position(scenario.sensors + j))
                .collect()
        };
        let bits = |ps: &[Vec2]| -> Vec<(u64, u64)> {
            ps.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
        };
        for mode in [MobilityMode::Ticked, MobilityMode::Lazy] {
            let mut sim = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
                .seed(1)
                .mobility_mode(mode)
                .build();
            let placed = sinks(&sim);
            // Spread: pairwise distances well above a transmission range.
            for a in 0..3 {
                for b in (a + 1)..3 {
                    assert!(
                        placed[a].distance(placed[b]) > 30.0,
                        "{mode:?}: sinks {a} and {b} clumped"
                    );
                }
            }
            // Never moved: bit-equal after traffic, across a checkpoint and
            // at the end of the run.
            let placed = bits(&placed);
            while sim.now() < SimTime::from_secs(300) && sim.step() {}
            assert_eq!(bits(&sinks(&sim)), placed, "{mode:?}: moved by 300 s");
            let (mut resumed, _) =
                Simulation::resume_from_bytes(&sim.checkpoint_bytes()).expect("resumes");
            assert_eq!(bits(&sinks(&resumed)), placed, "{mode:?}: moved by resume");
            while resumed.step() {}
            assert_eq!(bits(&sinks(&resumed)), placed, "{mode:?}: moved by the end");
        }
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let base = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .build()
            .run();
        let faulted = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .faults(FaultPlan::default())
            .build()
            .run();
        assert_eq!(base.generated, faulted.generated);
        assert_eq!(base.delivered, faulted.delivered);
        assert_eq!(base.frames_sent, faulted.frames_sent);
        assert_eq!(base.collisions, faulted.collisions);
        assert!(!faulted.faults.any(), "{:?}", faulted.faults);
    }

    #[test]
    fn battery_deaths_count_and_lose_queued_copies() {
        let mut plan = FaultPlan::default();
        for i in 0..6 {
            plan.push(100.0, FaultKind::BatteryDeath(NodeId(i)));
        }
        let r = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .faults(plan)
            .build()
            .run();
        assert_eq!(r.faults.crashes, 6);
        assert_eq!(r.faults.battery_deaths, 6);
        assert_eq!(r.faults.recoveries, 0);
        assert!(
            r.faults.messages_lost_to_crash > 0,
            "six sensors dying at t=100s must carry something: {:?}",
            r.faults
        );
    }

    #[test]
    fn recovery_restores_a_crashed_node_but_not_a_dead_battery() {
        let mut plan = FaultPlan::default();
        plan.push(50.0, FaultKind::NodeCrash(NodeId(0)));
        plan.push(150.0, FaultKind::NodeRecover(NodeId(0)));
        plan.push(60.0, FaultKind::BatteryDeath(NodeId(1)));
        plan.push(160.0, FaultKind::NodeRecover(NodeId(1)));
        let r = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(3)
            .faults(plan)
            .build()
            .run();
        assert_eq!(r.faults.crashes, 2);
        assert_eq!(r.faults.recoveries, 1, "battery death must stay down");
    }

    #[test]
    fn total_link_loss_stops_all_delivery() {
        let r = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .faults(FaultPlan::uniform_link_degradation(1.0))
            .build()
            .run();
        assert!(r.generated > 0);
        assert_eq!(r.delivered, 0, "no frame crosses a fully dropped medium");
        assert_eq!(r.multicasts, 0);
        assert!(r.faults.frames_dropped > 0);
    }

    #[test]
    fn full_corruption_blocks_data_but_not_control() {
        let r = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .faults(FaultPlan::data_corruption(&tiny(), 1.0))
            .build()
            .run();
        assert_eq!(r.delivered, 0);
        assert_eq!(r.multicasts, 0, "corrupted DATA is never acknowledged");
        assert!(r.faults.data_corrupted > 0, "{:?}", r.faults);
        assert!(r.faults.retransmissions_triggered > 0);
        assert!(r.frames_sent > 0, "control exchange still runs");
    }

    #[test]
    fn sink_outage_suppresses_and_resumes_delivery() {
        // The only sink down for the middle half of the run still counts.
        let plan = FaultPlan::sink_outage(&tiny(), 0, 100.0, 300.0);
        let r = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .faults(plan)
            .build()
            .run();
        assert_eq!(r.faults.sink_outages, 1);
        assert_eq!(r.faults.recoveries, 1);
        assert!(
            r.faults.deliveries_despite_faults <= r.delivered,
            "post-fault deliveries are a subset of all deliveries"
        );
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        let plan = FaultPlan::node_failures(&tiny(), 0.4, Some(120.0), 5);
        let run = |p: FaultPlan| {
            Simulation::builder(tiny(), ProtocolKind::Opt)
                .seed(9)
                .faults(p)
                .build()
                .run()
        };
        let a = run(plan.clone());
        let b = run(plan);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn per_pair_link_degradation_beats_the_global_figure() {
        let mut plan = FaultPlan::default();
        plan.push(
            0.0,
            FaultKind::LinkDegrade {
                a: NodeId(0),
                b: NodeId(1),
                drop_prob: 1.0,
            },
        );
        let r = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .faults(plan)
            .build()
            .run();
        // Only one link is dead; the network routes around it.
        assert!(r.delivered > 0, "one bad link must not kill the network");
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn out_of_range_fault_plan_is_rejected() {
        let mut plan = FaultPlan::default();
        plan.push(1.0, FaultKind::NodeCrash(NodeId(999)));
        let _ = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(1)
            .faults(plan)
            .build();
    }

    #[test]
    fn delivery_happens_in_a_dense_network() {
        // A dense, slow scenario around one sink: deliveries must occur.
        let scenario = ScenarioParams {
            sensors: 20,
            sinks: 4,
            duration_secs: 1200,
            ..ScenarioParams::paper_default()
        };
        let report = Simulation::builder(scenario, ProtocolKind::Opt)
            .seed(11)
            .build()
            .run();
        assert!(report.delivered > 0, "no deliveries: {}", report.summary());
        assert!(report.mean_delay_secs >= 0.0);
    }

    /// Attaching an observer must not perturb the run: the `ObserveTick`
    /// handler reads state without touching any RNG stream.
    #[test]
    fn observed_runs_keep_identical_counters() {
        let plain = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .build()
            .run();
        let recorder = crate::observe::MetricsRecorder::new(50.0);
        let observed = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .observe(recorder.clone())
            .build()
            .run();
        assert_eq!(plain.to_json().render(), observed.to_json().render());
        assert!(recorder.totals().0 > 0, "windows were emitted");
    }

    /// The recorder's cumulative totals reconcile exactly with the
    /// end-of-run report, fault plan and all.
    #[test]
    fn observer_totals_reconcile_with_the_report() {
        let plan = FaultPlan::node_failures(&tiny(), 0.3, None, 7);
        let fired_in_run = plan
            .events
            .iter()
            .filter(|e| e.at_secs <= tiny().duration_secs as f64)
            .count() as u64;
        let recorder = crate::observe::MetricsRecorder::new(30.0);
        let report = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .faults(plan)
            .observe(recorder.clone())
            .build()
            .run();
        let (_, totals) = recorder.totals();
        assert_eq!(totals.deliveries, report.delivered);
        assert_eq!(totals.collisions, report.collisions);
        assert_eq!(totals.frames_sent, report.frames_sent);
        assert_eq!(totals.drops_overflow, report.drops_overflow);
        assert_eq!(totals.drops_rejected, report.drops_rejected);
        assert_eq!(totals.drops_ftd, report.drops_ftd);
        assert_eq!(totals.control_bits, report.control_bits);
        assert_eq!(totals.data_bits, report.data_bits);
        assert_eq!(totals.faults, fired_in_run);
    }

    /// A user sink composed with an observer still sees every event,
    /// fault markers included.
    #[test]
    fn observer_composes_with_a_user_trace() {
        let mut plan = FaultPlan::default();
        plan.push(100.0, FaultKind::BatteryDeath(NodeId(0)));
        let shared = crate::trace::SharedTrace::new();
        let recorder = crate::observe::MetricsRecorder::new(100.0);
        let report = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .faults(plan)
            .trace(shared.clone())
            .observe(recorder.clone())
            .build()
            .run();
        let events = shared.snapshot();
        let fault_markers = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FaultInjected { .. }))
            .count() as u64;
        assert_eq!(fault_markers, 1);
        let deliveries = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Delivered { .. }))
            .count() as u64;
        assert_eq!(deliveries, report.delivered);
        assert_eq!(recorder.totals().1.deliveries, report.delivered);
    }

    #[test]
    fn recovery_jitter_comes_from_the_fault_fork() {
        // PR-2 contract: a crash/recover cycle must leave every per-node
        // primary stream exactly where the quiet run would have it — all
        // fault randomness is drawn from the dedicated fork.
        let mut sim = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(11)
            .build();
        let idx = 3;
        let primary_before = sim.nodes[idx].rng.state();
        let fault_before = sim.faults.rng_state();
        let now = sim.now();
        assert!(sim.crash_node(now, NodeId(idx), false));
        assert!(sim.recover_node(now, NodeId(idx)));
        assert_eq!(
            sim.nodes[idx].rng.state(),
            primary_before,
            "crash/recover touched the node's primary RNG stream"
        );
        assert_ne!(
            sim.faults.rng_state(),
            fault_before,
            "the recovery jitter should come from the fault fork"
        );
        // And the untouched population's streams are untouched too.
        let other = sim.nodes[5].rng.state();
        assert!(sim.crash_node(now, NodeId(3), false));
        assert!(sim.recover_node(now, NodeId(3)));
        assert_eq!(sim.nodes[5].rng.state(), other);
    }

    #[test]
    fn battery_death_on_a_crashed_node_counts_once_and_refuses_recovery() {
        // Property sweep over stacked plans: BatteryDeath landing on an
        // already-crashed node takes the early return in `crash_node`, so
        // only the first crash counts, and the recovery then stays refused
        // (battery_dead pins the node down).
        let mut rng = SimRng::seed_from(0x057A_C4ED);
        for trial in 0..8 {
            let scenario = tiny();
            let mut plan = FaultPlan::default();
            let victim = rng.gen_range_u64(scenario.sensors as u64) as usize;
            plan.events.push(crate::faults::FaultEvent {
                at_secs: 40.0 + trial as f64,
                kind: FaultKind::NodeCrash(NodeId(victim)),
            });
            plan.events.push(crate::faults::FaultEvent {
                at_secs: 90.0 + trial as f64,
                kind: FaultKind::BatteryDeath(NodeId(victim)),
            });
            plan.events.push(crate::faults::FaultEvent {
                at_secs: 140.0 + trial as f64,
                kind: FaultKind::NodeRecover(NodeId(victim)),
            });
            let sim = Simulation::builder(scenario, ProtocolKind::Opt)
                .seed(100 + trial)
                .faults(plan)
                .build();
            let report = sim.run();
            assert_eq!(report.faults.crashes, 1, "trial {trial}");
            assert_eq!(
                report.faults.recoveries, 0,
                "trial {trial}: battery death must pin the node down"
            );
        }
    }
}
