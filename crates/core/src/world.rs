//! The simulation world: nodes + mobility + medium + the event loop that
//! drives the two-phase protocol of Sec. 3.2 with the Sec. 4 optimizations.
//!
//! # Event architecture
//!
//! A single deterministic event queue drives everything:
//!
//! * `MobilityTick` — advances every mobility model and rebuilds the
//!   spatial index;
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

use crate::behavior::{BehaviorTable, LifetimeTracker, NodeBehavior};
use crate::contention::{optimize_cts_window, optimize_tau_max_in, sigma, TauScratch};
use crate::delivery::DeliveryProb;
use crate::dense::{DeliveredSet, HotNodeTable, LinkDropTable};
use crate::faults::{FaultKind, FaultPlan};
use crate::frames::MacPayload;
use crate::ftd::Ftd;
use crate::message::{Message, MessageId, MessageIdAllocator};
use crate::neighbor::{Candidate, Selection, SelectionScratch};
use crate::node::{MacState, Node, NodeRole, ReceiverCtx, SenderCtx, TxPlan};
use crate::observe::{MetricsRecorder, RunMeta, WorldSnapshot};
use crate::params::{MobilityKind, ProtocolParams, ScenarioParams};
use crate::policy::{
    Confirmed, CopyFate, ForwardingPolicy, MacControls, Policy, PolicySpec, RtsInfo, RxView,
    SelectCtx,
};
use crate::prefetch::prefetch;
use crate::profile::EventProfile;
use crate::queue::InsertOutcome;
use crate::report::{DeliveryRecord, Lifetime, NodeSummary, RunMetrics, SimReport};
use crate::trace::{DropReason, TeeSink, TraceEvent, TraceSink};
use crate::variants::{ProtocolKind, VariantConfig};
use dftmsn_metrics::histogram::Histogram;
use dftmsn_mobility::geom::{Bounds, Vec2};
use dftmsn_mobility::grid_index::SpatialGrid;
use dftmsn_mobility::models::{
    MobilityModel, RandomWalk, RandomWaypoint, Stationary, ZoneMobility,
};
use dftmsn_mobility::zones::{ZoneGrid, ZoneId};
use dftmsn_radio::energy::RadioState;
use dftmsn_radio::ids::NodeId;
use dftmsn_radio::medium::{Frame, Medium, TxHandle};
use dftmsn_sim::event::EventQueue;
use dftmsn_sim::rng::SimRng;
use dftmsn_sim::time::{SimDuration, SimTime};

#[path = "world_ckpt.rs"]
mod ckpt;
pub use ckpt::{CkptError, Resumed, CKPT_MAGIC};

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
    /// Unfiltered ring-neighbourhood superset pending materialization.
    mat: Vec<usize>,
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
        s.mat.reserve(4 * k);
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
/// mobility model on every global `MobilityTick` from one shared RNG
/// stream — O(N) work per tick regardless of how many nodes are asleep.
/// It is the mode every existing golden baseline was recorded under and
/// stays bit-for-bit unchanged by this enum's existence.
///
/// [`Lazy`](MobilityMode::Lazy) gives each node its own forked RNG stream
/// and extrapolates its trajectory in closed form
/// ([`MobilityModel::advance_span`]) only when the position is actually
/// needed: on wake-up, on a spatial query, or at a low-rate staleness
/// sweep that bounds how far any position lags. Sleeping nodes cost
/// nothing while they sleep. Spatial queries run at an expanded radius
/// (`range + v_max · sweep_period`) so a node whose stored position is
/// stale can never be missed; candidates are caught up and re-filtered at
/// the true range before the protocol sees them.
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
    /// Per-node RNG streams + on-demand closed-form catch-up.
    Lazy,
}

/// Bookkeeping for [`MobilityMode::Lazy`].
#[derive(Debug)]
struct LazyMobility {
    /// Per-node mobility streams (forked from the shared mobility RNG),
    /// so catching node *i* up never perturbs node *j*'s trajectory.
    rngs: Vec<SimRng>,
    /// The sim-time each node's position was last advanced to.
    synced_at: Vec<SimTime>,
    /// Staleness bound: a low-rate sweep catches every node up at this
    /// period, so no stored position lags truth by more than it.
    sync_every: SimDuration,
    /// Spatial-query radius inflated by the worst-case staleness drift
    /// (`range + v_max · sync_every`); also the grid cell size.
    query_radius: f64,
    /// The speed bound used to derive `query_radius`, kept for the
    /// per-candidate drift pruning in `fill_neighbors`.
    vmax: f64,
}

/// Slots in the coast due-wheel; windows are clipped to `COAST_WHEEL − 2`
/// ticks so a rescheduled node can never land back in the slot being
/// drained.
const COAST_WHEEL: usize = 256;

/// How far down the sorted due list a mobility tick prefetches: while it
/// visits node `due[k]` it requests the lines of `due[k + 6]`. The
/// distance is not critical; 1 and 12 timed within noise of 6
/// (EXPERIMENTS.md § Scale tier).
const DUE_PREFETCH_AHEAD: usize = 6;

/// SoA coast ledger for [`MobilityMode::Ticked`].
///
/// Each node holds a *coast lease* from its model
/// ([`MobilityModel::tick_grant`]): for `left` more ticks the node's
/// position moves by exactly `disp` per tick with no RNG draw and no
/// boundary interaction, so the per-tick sweep applies the displacement to
/// the dense `positions` array and skips the model entirely — three
/// contiguous array lanes instead of a virtual call into a heap-scattered
/// model per node per tick. Leases are additionally split into cell
/// windows ([`SpatialGrid::move_node_window`]: the whole steps to the
/// grid-cell edge ahead along the node's displacement) so a coasting node
/// can never invalidate its grid bucket. `pending` counts coasted ticks
/// not yet reported back; a settle ([`MobilityModel::tick_settle`])
/// replays them bit-identically before the model is advanced, saved, or
/// re-granted, which is what keeps ticked goldens and checkpoints
/// byte-exact.
#[derive(Debug)]
struct TickedCoast {
    /// Per-tick displacement while the lease is live.
    disp: Vec<Vec2>,
    /// Lease ticks remaining beyond the node's current wheel window — the
    /// part of the model's grant held back by the grid-cell clip and the
    /// wheel horizon.
    model_left: Vec<u32>,
    /// Coast steps applied to `positions[j]` but not yet settled into
    /// model `j` ([`MobilityModel::tick_settle`]'s replay count).
    applied: Vec<u32>,
    /// The tick index `positions[j]` reflects. A coasting node's dense
    /// position is allowed to lag the clock; [`materialize`]
    /// (TickedCoast::materialize) replays the missing steps on demand.
    anchor: Vec<u64>,
    /// `wheel[t % COAST_WHEEL]` lists the nodes due for per-node handling
    /// at tick `t`: lease expiry (settle + advance + re-grant) or cell
    /// recheck. Nodes mid-window appear in no slot and cost nothing per
    /// tick — this is what makes the tick handler O(due), not O(n).
    wheel: Vec<Vec<u32>>,
    /// Mobility ticks processed so far (the wheel's clock).
    tick_no: u64,
}

impl TickedCoast {
    fn new(n: usize) -> Self {
        let mut wheel = vec![Vec::new(); COAST_WHEEL];
        // Everyone starts with no lease: all due on the first tick.
        wheel[1 % COAST_WHEEL] = (0..n as u32).collect();
        TickedCoast {
            disp: vec![Vec2::ZERO; n],
            model_left: vec![0; n],
            applied: vec![0; n],
            anchor: vec![0; n],
            wheel,
            tick_no: 0,
        }
    }

    /// Replays node `j`'s outstanding coast steps so `positions[j]`
    /// reflects tick `to_tick`. Each replayed step is the identical
    /// `+= disp` the old per-tick sweep performed, in the same order, so
    /// the resulting bit pattern is the same — batching only moves the
    /// work to the moment the position is actually read.
    #[inline]
    fn materialize(&mut self, j: usize, to_tick: u64, positions: &mut [Vec2]) {
        let k = (to_tick - self.anchor[j]) as u32;
        if k == 0 {
            return;
        }
        let d = self.disp[j];
        let mut p = positions[j];
        for _ in 0..k {
            p += d;
        }
        positions[j] = p;
        self.anchor[j] = to_tick;
        self.applied[j] += k;
    }

    /// Requests node `j`'s lines of the four coast lanes ahead of its
    /// visit.
    #[inline]
    fn prefetch(&self, j: usize) {
        prefetch(&self.disp[j]);
        prefetch(&self.model_left[j]);
        prefetch(&self.applied[j]);
        prefetch(&self.anchor[j]);
    }

    /// Schedules node `j`'s next due visit `window + 1` ticks from now and
    /// returns the window actually booked (clipped to the wheel horizon).
    #[inline]
    fn book(&mut self, j: usize, window: u32) -> u32 {
        let window = window.min(COAST_WHEEL as u32 - 2);
        let slot = ((self.tick_no + u64::from(window) + 1) % COAST_WHEEL as u64) as usize;
        self.wheel[slot].push(j as u32);
        window
    }
}

/// Per-node contact cache for [`MobilityMode::Ticked`] neighbour queries —
/// pure memoization of [`SpatialGrid::query_within`].
///
/// A miss queries the grid at `range + margin_m` and parks the candidate
/// indices in a shared arena; a hit re-filters that superset at the true
/// range against *current* positions. The superset stays exact while the
/// worst-case relative drift since it was taken cannot exceed the margin:
/// every position moves at most `v_max · dt` per mobility tick, so after
/// elapsed time `e` the sender and a candidate have closed at most
/// `2 · v_max · (e + dt)` metres (the `+ dt` absorbs tick quantization).
/// [`ContactCache::valid_for`] is derived by inverting that bound, which
/// makes a hit's output bit-identical to a fresh query: membership is
/// re-decided by the same `distance_sq ≤ range²` predicate on the same
/// positions, and the arena preserves the grid's ascending index order.
///
/// Ticked mode only: a lazy-mode query *advances* candidate trajectories
/// (RNG draws, position writes), so caching it would change when those
/// side effects fire and split `advance_span` calls differently —
/// ULP-level divergence the lazy goldens would catch.
#[derive(Debug)]
struct ContactCache {
    /// Shared storage for every node's cached candidate set.
    arena: Vec<u32>,
    /// Per-node: sim-time the cached superset was queried.
    at: Vec<SimTime>,
    /// Per-node: offset of the cached slice in `arena`.
    start: Vec<u32>,
    /// Per-node: length of the cached slice.
    len: Vec<u32>,
    /// Per-node: generation stamp; stale entries are dropped wholesale by
    /// bumping `arena_gen` instead of walking the arena.
    gen: Vec<u32>,
    /// Current arena generation; entries from older generations are dead.
    arena_gen: u32,
    /// Extra query radius that buys the validity window (metres).
    margin_m: f64,
    /// How long a cached superset stays exact (`margin / (2·v_max)` minus
    /// one tick of quantization slack).
    valid_for: SimDuration,
    /// Arena size that triggers a wholesale generation reset.
    cap: usize,
    /// Hits / misses under the current settings (perf telemetry only).
    hits: u64,
    misses: u64,
}

impl ContactCache {
    fn new(n: usize, vmax: f64, tick_secs: f64) -> Self {
        // Sized so one cached superset typically survives a whole
        // RTS→CTS→SCHEDULE→DATA→ACK exchange (~0.1 s of sim-time): a
        // 0.25 s window at the paper's v_max = 5 m/s costs 2.75 m of
        // extra query radius on a 10 m range.
        const TARGET_VALID_SECS: f64 = 0.25;
        let margin_m = 2.0 * vmax * (TARGET_VALID_SECS + tick_secs);
        ContactCache {
            arena: Vec::new(),
            at: vec![SimTime::ZERO; n],
            start: vec![0; n],
            len: vec![0; n],
            gen: vec![0; n],
            arena_gen: 1,
            margin_m,
            valid_for: SimDuration::from_secs_f64(TARGET_VALID_SECS),
            cap: (8 * n).max(1024),
            hits: 0,
            misses: 0,
        }
    }
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
    config: VariantConfig,
    /// The forwarding policy: every protocol decision point dispatches
    /// through this sealed enum (DESIGN.md § 8).
    policy: Policy,
    /// The policy's MAC-adaptation knobs, cached so the per-event hot
    /// paths read plain bools instead of dispatching.
    mac: MacControls,
    seed: u64,
    timing: Timing,
    end: SimTime,

    events: EventQueue<Event>,
    nodes: Vec<Node>,
    /// Struct-of-arrays mirror of the hottest per-node fields (epoch, MAC
    /// state tag, ξ); refreshed via [`Self::sync_hot`] after every
    /// mutation, asserted against the canonical fields in debug builds.
    hot: HotNodeTable,
    mobility: Vec<Box<dyn MobilityModel>>,
    mobility_rng: SimRng,
    /// `Some` when running in [`MobilityMode::Lazy`].
    lazy: Option<LazyMobility>,
    /// `Some` when running in [`MobilityMode::Ticked`].
    coast: Option<TickedCoast>,
    /// `Some` when running in [`MobilityMode::Ticked`]: memoized
    /// neighbour supersets keyed by a worst-case-drift validity window.
    contacts: Option<ContactCache>,
    positions: Vec<Vec2>,
    grid: SpatialGrid,
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
    trace: Option<Box<dyn TraceSink>>,
    /// The attached metrics recorder, if any. Trace events reach it through
    /// `trace` (composed with any user sink by the builder); this handle
    /// only drives window-boundary snapshots and run finalization.
    observer: Option<MetricsRecorder>,
    /// `ObserveTick`s handled so far. Subtracted from the queue's popped
    /// count in the report, so `events_processed` measures simulation work
    /// and an attached observer leaves the report bit-for-bit unchanged.
    observe_ticks: u64,

    fault_plan: FaultPlan,
    /// Dedicated stream for fault coin flips; forked from the root seed but
    /// never drawn from unless a fault makes a probabilistic decision, so an
    /// empty plan perturbs nothing.
    fault_rng: SimRng,
    /// Per-frame drop probability applied to every link without a
    /// per-pair entry.
    global_link_drop: f64,
    /// Per-pair drop probabilities (dense, lazily allocated).
    link_drop: LinkDropTable,
    /// True once any fault event has fired (gates the
    /// `deliveries_despite_faults` counter).
    fault_regime: bool,
    /// Per-node behavior assignments (DESIGN.md § 9). All-honest unless a
    /// [`FaultKind::BehaviorChange`] fires; every adversarial check is
    /// gated on [`BehaviorTable::any`] so quiet runs pay one integer
    /// compare per site and stay bit-identical to the goldens.
    behaviors: BehaviorTable,
    /// Network-lifetime census: alive sensor count plus FND/HND/LND death
    /// anchors, updated by [`crash_node`](Self::crash_node) and
    /// [`recover_node`](Self::recover_node).
    lifetime: LifetimeTracker,

    /// Per-event-kind wall-time counters, populated only by
    /// [`run_profiled`](Self::run_profiled). `None` costs one predictable
    /// branch per event; never serialized (telemetry, not state).
    profile: Option<Box<EventProfile>>,
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
        let mut sim = Simulation::construct(
            self.scenario,
            self.protocol,
            self.config,
            self.seed,
            self.mobility_mode,
        );
        sim.install_policy(self.policy);
        if let Some(plan) = self.faults {
            sim.install_fault_plan(plan);
        }
        if !self.contact_cache {
            sim.contacts = None;
        }
        if let Some(recorder) = self.observer {
            recorder.begin_run(RunMeta {
                protocol: sim.policy.label().to_owned(),
                seed: sim.seed,
                duration_secs: sim.scenario.duration_secs as f64,
                sensors: sim.scenario.sensors,
                sinks: sim.scenario.sinks,
            });
            sim.trace = Some(match self.trace {
                Some(sink) => Box::new(TeeSink(recorder.clone(), sink)),
                None => Box::new(recorder.clone()),
            });
            let window = SimDuration::from_secs_f64(recorder.window_secs());
            let first = SimTime::ZERO + window;
            if first <= sim.end && !window.is_zero() {
                sim.events.schedule_at(first, Event::ObserveTick);
            }
            sim.observer = Some(recorder);
        } else {
            sim.trace = self.trace;
        }
        sim
    }
}

impl Simulation {
    /// Starts configuring a simulation of the given scenario and variant.
    /// Accepts either a [`ProtocolKind`] or a custom [`VariantConfig`]
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

    /// Builds and validates the simulation world (no optional attachments).
    fn construct(
        scenario: ScenarioParams,
        protocol: ProtocolParams,
        config: VariantConfig,
        seed: u64,
        mode: MobilityMode,
    ) -> Self {
        let mut sim = Self::construct_static(scenario, protocol, config, seed, mode);
        sim.grid.rebuild(&sim.positions);
        sim.schedule_initial_events();
        sim
    }

    /// The world [`construct`](Self::construct) starts from: nodes, models,
    /// medium and tables, with the spatial grid still empty and no event
    /// scheduled. Checkpoint restore starts here, since it replaces the
    /// event set and rebuilds the grid from restored positions.
    fn construct_static(
        scenario: ScenarioParams,
        protocol: ProtocolParams,
        config: VariantConfig,
        seed: u64,
        mode: MobilityMode,
    ) -> Self {
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        protocol
            .validate()
            .unwrap_or_else(|e| panic!("invalid protocol params: {e}"));

        let root = SimRng::seed_from(seed);
        let mut mobility_rng = root.fork(0x4d4f_4249); // "MOBI"
        let fault_rng = root.fork(0x4641_554C); // "FAUL"
        let area = Bounds::new(scenario.area_width_m, scenario.area_height_m);
        let zones = ZoneGrid::new(area, scenario.zone_cols, scenario.zone_rows);
        let n = scenario.node_count();

        // Lazy mode forks one mobility stream per node, so catching one
        // node up never consumes another's randomness; the model is also
        // *placed* from its own stream, which is why lazy runs re-baseline.
        // In Ticked mode `own` is an unused placeholder (nothing is drawn
        // from it), keeping the shared-stream draw order bit-identical to
        // every pre-existing baseline.
        let lazy_mode = mode == MobilityMode::Lazy;
        let mut nodes = Vec::with_capacity(n);
        let mut mobility: Vec<Box<dyn MobilityModel>> = Vec::with_capacity(n);
        let mut lazy_rngs: Vec<SimRng> = Vec::with_capacity(if lazy_mode { n } else { 0 });
        for i in 0..scenario.sensors {
            let mut own = if lazy_mode {
                mobility_rng.fork(i as u64)
            } else {
                SimRng::seed_from(0)
            };
            let rng: &mut SimRng = if lazy_mode {
                &mut own
            } else {
                &mut mobility_rng
            };
            let model: Box<dyn MobilityModel> = match scenario.mobility {
                MobilityKind::ZoneBased => Box::new(ZoneMobility::new(
                    zones.clone(),
                    ZoneId(i % zones.zone_count()),
                    scenario.speed_min_mps,
                    scenario.speed_max_mps,
                    scenario.zone_exit_prob,
                    rng,
                )),
                MobilityKind::RandomWaypoint => Box::new(RandomWaypoint::new(
                    area,
                    scenario.speed_min_mps.max(0.1),
                    scenario.speed_max_mps.max(0.2),
                    0.0,
                    rng,
                )),
                MobilityKind::RandomWalk => Box::new(RandomWalk::new(
                    area,
                    scenario.speed_min_mps,
                    scenario.speed_max_mps,
                    20.0,
                    rng,
                )),
            };
            if lazy_mode {
                lazy_rngs.push(own);
            }
            mobility.push(model);
            nodes.push(Node::new(
                NodeId(i),
                NodeRole::Sensor,
                scenario.queue_capacity,
                protocol.history_window_s,
                root.fork(1000 + i as u64),
            ));
        }
        // Sinks sit at "strategic locations" (zone centres spread evenly
        // across the grid); the last `mobile_sinks` of them are carried by
        // people instead and move like sensors (paper Sec. 1).
        for j in 0..scenario.sinks {
            let zone = ZoneId(((2 * j + 1) * zones.zone_count()) / (2 * scenario.sinks));
            let i = scenario.sensors + j;
            let mut own = if lazy_mode {
                mobility_rng.fork(i as u64)
            } else {
                SimRng::seed_from(0)
            };
            if j >= scenario.sinks - scenario.mobile_sinks {
                let rng: &mut SimRng = if lazy_mode {
                    &mut own
                } else {
                    &mut mobility_rng
                };
                mobility.push(Box::new(ZoneMobility::new(
                    zones.clone(),
                    zone,
                    scenario.speed_min_mps,
                    scenario.speed_max_mps,
                    scenario.zone_exit_prob,
                    rng,
                )));
            } else {
                mobility.push(Box::new(Stationary::new(zones.zone_center(zone))));
            }
            if lazy_mode {
                // Stationary sinks never draw, but the slot keeps per-node
                // stream indexing aligned.
                lazy_rngs.push(own);
            }
            nodes.push(Node::new(
                NodeId(i),
                NodeRole::Sink,
                scenario.queue_capacity,
                protocol.history_window_s,
                root.fork(1000 + i as u64),
            ));
        }

        let lazy = match mode {
            MobilityMode::Ticked => None,
            MobilityMode::Lazy => {
                let vmax = scenario.speed_max_mps.max(0.2);
                let sync_every = (scenario.channel.range_m / vmax)
                    .clamp(scenario.mobility_tick_secs.min(30.0), 30.0);
                Some(LazyMobility {
                    rngs: lazy_rngs,
                    synced_at: vec![SimTime::ZERO; n],
                    sync_every: SimDuration::from_secs_f64(sync_every),
                    query_radius: scenario.channel.range_m + vmax * sync_every,
                    vmax,
                })
            }
        };

        let coast = match mode {
            MobilityMode::Ticked => Some(TickedCoast::new(n)),
            MobilityMode::Lazy => None,
        };
        let contacts = match mode {
            MobilityMode::Ticked => Some(ContactCache::new(
                n,
                scenario.speed_max_mps.max(0.2),
                scenario.mobility_tick_secs,
            )),
            MobilityMode::Lazy => None,
        };

        let positions: Vec<Vec2> = mobility.iter().map(|m| m.position()).collect();
        // Cell size is decoupled from every query radius (the grid scans
        // ⌈r/cell⌉ rings), so it is a pure performance knob — query
        // results are exact for any cell size, and the two modes want
        // opposite settings. Ticked: wider cells mean a coasting node
        // crosses cell edges — and pays a lease recheck — proportionally
        // less often, and at the paper's densities (~4.4·10⁻³ nodes/m²) a
        // 4·range cell holds around seven nodes, so a 3×3 scan stays
        // within a few cache lines. Lazy: queries go out at the inflated
        // `query_radius`, so cells sized to it keep the scan at one ring
        // of tight buckets.
        let cell = match &lazy {
            Some(l) => l.query_radius.max(1.0),
            None => (4.0 * scenario.channel.range_m).max(1.0),
        };
        let grid = SpatialGrid::new(area, cell);

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
        let occupancy = (n as f64 * disc / (area.width() * area.height()).max(1.0)).ceil();
        let k = (occupancy as usize).clamp(8, 256);

        let mut hot = HotNodeTable::with_len(n);
        for (idx, node) in nodes.iter().enumerate() {
            hot.sync(idx, node.epoch, node.state, node.metric.value());
            hot.sink[idx] = node.is_sink();
            hot.sync_alive(idx, node.alive);
        }

        let policy = Policy::builtin(config);
        let mac = policy.mac();
        let behaviors = BehaviorTable::new(n);
        let lifetime = LifetimeTracker::new(scenario.sensors);
        let cts_windows = vec![0; protocol.cts_window_cap as usize + 2];
        Simulation {
            scenario,
            protocol,
            config,
            policy,
            mac,
            seed,
            timing,
            end,
            events: EventQueue::new(),
            nodes,
            hot,
            mobility,
            mobility_rng,
            lazy,
            coast,
            contacts,
            positions,
            grid,
            medium,
            ids: MessageIdAllocator::new(),
            delivered_ids: DeliveredSet::new(),
            metrics,
            deliveries: Vec::new(),
            scratch: CycleScratch::seeded(k),
            cts_windows,
            trace: None,
            observer: None,
            observe_ticks: 0,
            fault_plan: FaultPlan::default(),
            fault_rng,
            global_link_drop: 0.0,
            link_drop: LinkDropTable::new(n),
            fault_regime: false,
            behaviors,
            lifetime,
            profile: None,
        }
    }

    /// Instantiates and attaches the forwarding policy named by `spec`.
    /// Also called by checkpoint restore, which then overwrites the
    /// policy's runtime state from the snapshot's policy frame.
    fn install_policy(&mut self, spec: PolicySpec) {
        let mut policy = spec.into_policy(self.config);
        policy.init(self.nodes.len());
        self.mac = policy.mac();
        self.policy = policy;
    }

    /// The attached policy's serializable descriptor.
    #[must_use]
    pub fn policy_spec(&self) -> PolicySpec {
        self.policy.spec()
    }

    /// Installs a fault plan, scheduling its events as first-class entries
    /// in the ordinary event queue. An empty plan schedules nothing and
    /// leaves the run bit-for-bit identical to a fault-free one; installing
    /// the same nonempty plan with the same seed reproduces the same report.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] for this scenario.
    fn install_fault_plan(&mut self, plan: FaultPlan) {
        plan.validate(&self.scenario)
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        for (k, ev) in plan.events.iter().enumerate() {
            let at = SimTime::ZERO + SimDuration::from_secs_f64(ev.at_secs);
            self.events.schedule_at(at, Event::Fault(k));
        }
        self.fault_plan = plan;
    }

    fn schedule_initial_events(&mut self) {
        // In Lazy mode the MobilityTick is a low-rate staleness sweep, not
        // a per-tick advance.
        let tick = match &self.lazy {
            Some(l) => l.sync_every,
            None => SimDuration::from_secs_f64(self.scenario.mobility_tick_secs),
        };
        self.events.schedule_after(tick, Event::MobilityTick);
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

    /// The configured variant.
    #[must_use]
    pub fn variant(&self) -> VariantConfig {
        self.config
    }

    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(event);
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
        self.profile = Some(Box::new(EventProfile::new(&EVENT_KIND_LABELS)));
        while self.step() {}
        let profile = *self.profile.take().expect("installed above");
        (self.finish_report(), profile)
    }

    /// Contact-cache telemetry: `(hits, misses)` of the ticked-mode
    /// neighbour cache, `None` in lazy mode.
    #[must_use]
    pub fn contact_cache_stats(&self) -> Option<(u64, u64)> {
        self.contacts.as_ref().map(|c| (c.hits, c.misses))
    }

    /// Frames currently on the air: transmissions whose `TxEnd` has not
    /// fired yet. A checkpoint taken while this is nonzero exercises the
    /// mid-frame seam — the snapshot must carry the in-flight state.
    #[must_use]
    pub fn airborne_frames(&self) -> usize {
        self.medium.airborne()
    }

    /// Nodes currently mid-coast-lease in ticked mode (straight-line
    /// ticks promised but not yet replayed into their models). `None` in
    /// lazy mode. Checkpointing settles every lease first; this telemetry
    /// lets tests prove a snapshot instant actually was mid-lease.
    #[must_use]
    pub fn coasting_nodes(&self) -> Option<usize> {
        self.coast.as_ref().map(|c| {
            (0..c.model_left.len())
                .filter(|&j| c.model_left[j] > 0 || c.applied[j] > 0)
                .count()
        })
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
                if self.profile.is_some() {
                    let kind = self.event_kind_index(&ev);
                    let t0 = std::time::Instant::now();
                    self.handle(now, ev);
                    let took = t0.elapsed();
                    self.profile
                        .as_mut()
                        .expect("checked above")
                        .record(kind, took);
                } else {
                    self.handle(now, ev);
                }
                true
            }
            _ => false,
        }
    }

    /// Requests the lines the next ready event's handler loads first — its
    /// node's `Node` and hot-table rows — so those misses overlap the
    /// current event's handler (DESIGN.md § 6, "Lookahead prefetch").
    /// Cache state only: no simulation state is read or written.
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
        prefetch(&self.hot.epoch[j]);
        prefetch(&self.hot.state[j]);
        prefetch(&self.hot.xi[j]);
        prefetch(&self.hot.sink[j]);
        prefetch(&self.hot.alive[j]);
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
                if self.hot.epoch[i.index()] != *epoch {
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
                // Staleness check against the dense epoch mirror: most
                // timers are stale (implicit cancellation), so this filter
                // runs hot and must not pull whole `Node`s through cache.
                debug_assert_eq!(self.hot.epoch[i.index()], self.nodes[i.index()].epoch);
                if self.hot.epoch[i.index()] == epoch {
                    self.on_timer(now, i, timer);
                }
            }
            Event::Fault(k) => self.on_fault(now, k),
            Event::ObserveTick => self.on_observe_tick(now),
        }
    }

    /// Refreshes node `idx`'s row of the dense hot-state mirror. Must be
    /// called after every block that transitions the MAC state (which
    /// bumps the epoch) or updates the routing metric; consumers
    /// `debug_assert` the mirror against the canonical fields, so a
    /// missed call fails the debug-built test suite.
    #[inline]
    fn sync_hot(&mut self, idx: usize) {
        let node = &self.nodes[idx];
        self.hot
            .sync(idx, node.epoch, node.state, node.metric.value());
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// Samples the world for the attached observer and schedules the next
    /// boundary tick. Reads state only — no RNG stream is touched — so
    /// observation never perturbs the simulation.
    fn on_observe_tick(&mut self, now: SimTime) {
        self.observe_ticks += 1;
        let Some(recorder) = self.observer.clone() else {
            return;
        };
        let snap = self.world_snapshot(now);
        recorder.record_snapshot(now, snap);
        let window = SimDuration::from_secs_f64(recorder.window_secs());
        if !window.is_zero() && now + window <= self.end {
            self.events.schedule_at(now + window, Event::ObserveTick);
        }
    }

    /// Instantaneous sensor-population state: queue occupancy, the ξ
    /// distribution, the sleeping fraction and cumulative energy.
    fn world_snapshot(&self, now: SimTime) -> WorldSnapshot {
        let sensors = self.scenario.sensors.max(1);
        let mut queue_sum = 0u64;
        let mut queue_max = 0u64;
        let mut xi_sum = 0.0;
        let mut xi_min = f64::INFINITY;
        let mut xi_max = f64::NEG_INFINITY;
        let mut asleep = 0usize;
        let mut energy = 0.0;
        let mut alive_nodes = 0u64;
        for node in self.nodes.iter().take(self.scenario.sensors) {
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
            energy += node.meter.total_energy_j(now, &self.scenario.energy);
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

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn on_fault(&mut self, now: SimTime, k: usize) {
        self.fault_regime = true;
        self.emit(TraceEvent::FaultInjected {
            at: now,
            kind: self.fault_plan.events[k].kind.label(),
        });
        match self.fault_plan.events[k].kind {
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
            FaultKind::LinkDegrade { a, b, drop_prob } => {
                if drop_prob > 0.0 {
                    self.link_drop.set(a, b, drop_prob.clamp(0.0, 1.0));
                } else {
                    self.link_drop.clear(a, b);
                }
            }
            FaultKind::GlobalLinkDegrade { drop_prob } => {
                self.global_link_drop = drop_prob.clamp(0.0, 1.0);
            }
            FaultKind::DataCorruption { node, prob } => {
                self.nodes[node.index()].corrupt_rx_prob = prob.clamp(0.0, 1.0);
            }
            FaultKind::BehaviorChange { node, behavior } => {
                let idx = node.index();
                // Orthogonal to liveness: assigning to a dead node records
                // the behavior, which takes effect if the node recovers.
                debug_assert_eq!(
                    self.hot.alive[idx], self.nodes[idx].alive,
                    "alive mirror drifted at behavior change"
                );
                self.behaviors.set(idx, behavior);
                self.metrics.faults.behavior_changes += 1;
            }
        }
    }

    /// Halts node `i`: the radio goes dark, queued copies are lost, all
    /// pending timers are invalidated via the epoch bump, and any sender
    /// context is reclaimed. Returns false if the node was already down.
    fn crash_node(&mut self, now: SimTime, i: NodeId, permanent: bool) -> bool {
        let idx = i.index();
        if !self.nodes[idx].alive {
            // Crashing a dead node is a no-op, but a battery death still
            // pins it down so a later recovery is refused. `battery_dead`
            // has no SoA mirror and nothing else here touches mirrored
            // state, so no re-sync is needed; the assertions prove the
            // mirrors were left consistent when the node went down.
            debug_assert!(
                !self.hot.alive[idx],
                "alive mirror drifted on an already-dead node"
            );
            debug_assert_eq!(self.hot.epoch[idx], self.nodes[idx].epoch);
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
        self.sync_hot(idx);
        self.hot.sync_alive(idx, false);
        self.metrics.faults.messages_lost_to_crash += lost;
        self.medium.set_listening(i, false);
        if idx < self.scenario.sensors {
            self.lifetime.on_death(now.as_secs_f64());
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
        self.sync_hot(idx);
        self.hot.sync_alive(idx, true);
        self.medium.set_listening(i, true);
        if idx < self.scenario.sensors {
            self.lifetime.on_revive();
        }
        if !self.nodes[idx].is_sink() {
            // Fault-plan randomness lives in the dedicated fault fork:
            // drawing this jitter from the node's primary stream would
            // desynchronize every later primary draw from the quiet run's,
            // breaking the contract that faults perturb only the faulted
            // behaviour.
            let jitter = SimDuration::from_secs_f64(self.fault_rng.gen_range_f64(0.0, 2.0));
            self.schedule_timer(i, jitter, Timer::WakeUp);
        }
        true
    }

    /// Effective per-frame drop probability on the (undirected) link
    /// `a`–`b`: a per-pair entry overrides the global figure. Zero on every
    /// link unless a fault plan degraded it.
    fn link_drop_prob(&self, a: NodeId, b: NodeId) -> f64 {
        if self.link_drop.is_empty() {
            return self.global_link_drop;
        }
        self.link_drop.get(a, b).unwrap_or(self.global_link_drop)
    }

    fn schedule_timer(&mut self, i: NodeId, delay: SimDuration, timer: Timer) {
        debug_assert_eq!(self.hot.epoch[i.index()], self.nodes[i.index()].epoch);
        let epoch = self.hot.epoch[i.index()];
        self.events
            .schedule_after(delay, Event::Timer(i, epoch, timer));
    }

    fn on_mobility_tick(&mut self, now: SimTime) {
        if let Some(every) = self.lazy.as_ref().map(|l| l.sync_every) {
            // Lazy mode: this tick is a low-rate staleness sweep. Catching
            // every node up to `now` re-establishes the invariant the
            // expanded-radius queries rely on — no stored position lags
            // truth by more than `sync_every · v_max` metres.
            for j in 0..self.mobility.len() {
                self.catch_up_node(j, now);
            }
            self.events.schedule_after(every, Event::MobilityTick);
            return;
        }
        let dt = self.scenario.mobility_tick_secs;
        let Simulation {
            mobility,
            mobility_rng,
            coast,
            positions,
            grid,
            ..
        } = self;
        let coast = coast.as_mut().expect("ticked mode has a coast ledger");
        // O(due) tick: nodes mid-lease appear in no wheel slot and cost
        // nothing — their dense positions simply lag and are materialized
        // when read. Only the handful of nodes whose lease or cell window
        // expires this tick are touched.
        coast.tick_no += 1;
        let t = coast.tick_no;
        let mut due = std::mem::take(&mut coast.wheel[(t % COAST_WHEEL as u64) as usize]);
        // Slots accumulate pushes from different grant instants, so sort:
        // RNG draws below must happen in the exact shared-stream (node-
        // ascending) order a lease-free per-node loop would make them.
        due.sort_unstable();
        for (k, &j) in due.iter().enumerate() {
            // Request a later due node's lines now, so they arrive while
            // the nodes before it are visited.
            if let Some(&ahead) = due.get(k + DUE_PREFETCH_AHEAD) {
                let ahead = ahead as usize;
                coast.prefetch(ahead);
                prefetch(&positions[ahead]);
                prefetch(&*mobility[ahead]);
            }
            let j = j as usize;
            // Catch the dense position up to the previous tick; this
            // tick's step is taken below on whichever path applies.
            coast.materialize(j, t - 1, positions);
            if coast.model_left[j] > 0 {
                // Mid-lease cell recheck: the lease is still live — this
                // tick is one of its promised straight-line steps — but
                // the node may now cross a grid-cell edge, so apply the
                // step with the bucket update and re-clip the window to
                // the edge ahead in its (possibly new) cell.
                let d = coast.disp[j];
                let p = positions[j] + d;
                positions[j] = p;
                coast.anchor[j] = t;
                coast.applied[j] += 1;
                coast.model_left[j] -= 1;
                let window = coast.model_left[j].min(grid.move_node_window(j, p, d));
                let booked = coast.book(j, window);
                coast.model_left[j] -= booked;
                continue;
            }
            // Full path: replay the coasted ticks into the model, advance
            // it for real (this is where legs end, boundaries reflect and
            // randomness is drawn), then take out a fresh lease.
            let m = &mut mobility[j];
            let pending = std::mem::take(&mut coast.applied[j]);
            if pending > 0 {
                m.tick_settle(dt, pending, positions[j]);
            }
            m.advance(dt, mobility_rng);
            let p = m.position();
            positions[j] = p;
            coast.anchor[j] = t;
            let (disp, granted) = m.tick_grant(dt);
            coast.disp[j] = disp;
            let window = granted.min(grid.move_node_window(j, p, disp));
            let booked = coast.book(j, window);
            coast.model_left[j] = granted - booked;
        }
        due.clear();
        coast.wheel[(t % COAST_WHEEL as u64) as usize] = due;
        let tick = SimDuration::from_secs_f64(dt);
        self.events.schedule_after(tick, Event::MobilityTick);
    }

    /// Settles every outstanding coast lease so the mobility models' own
    /// state (not just the dense position mirror) is exact — required
    /// before `save_state`. Leases are cancelled, forcing the next tick
    /// through the full path exactly as a freshly resumed run would go,
    /// so checkpointing mid-lease cannot diverge from an uninterrupted
    /// run. No-op in Lazy mode.
    fn settle_coast(&mut self) {
        let Some(coast) = self.coast.as_mut() else {
            return;
        };
        let dt = self.scenario.mobility_tick_secs;
        let t = coast.tick_no;
        for (j, m) in self.mobility.iter_mut().enumerate() {
            coast.materialize(j, t, &mut self.positions);
            let pending = std::mem::take(&mut coast.applied[j]);
            if pending > 0 {
                m.tick_settle(dt, pending, self.positions[j]);
            }
            coast.model_left[j] = 0;
        }
        // Every lease is void now: rebook the whole population for the
        // next tick so each node re-grants from its settled model state.
        for slot in &mut coast.wheel {
            slot.clear();
        }
        let next = ((t + 1) % COAST_WHEEL as u64) as usize;
        coast.wheel[next] = (0..self.mobility.len() as u32).collect();
    }

    /// Advances node `j`'s mobility from its last synced instant to `now`
    /// in one closed-form span, updating its stored position and grid
    /// cell. No-op in Ticked mode and for already-current nodes.
    fn catch_up_node(&mut self, j: usize, now: SimTime) {
        let Some(lazy) = self.lazy.as_mut() else {
            return;
        };
        let dt = now.saturating_since(lazy.synced_at[j]);
        if dt.is_zero() {
            return;
        }
        lazy.synced_at[j] = now;
        self.mobility[j].advance_span(dt.as_secs_f64(), &mut lazy.rngs[j]);
        let p = self.mobility[j].position();
        self.positions[j] = p;
        self.grid.move_node(j, p);
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
            self.sync_hot(i.index());
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
        // Hottest early exit in the event loop (every WakeUp lands here):
        // served from the dense mirrors so the common case touches no
        // `Node` cache line before the real work starts.
        debug_assert_eq!(self.hot.sink[i.index()], self.nodes[i.index()].is_sink());
        debug_assert_eq!(self.hot.alive[i.index()], self.nodes[i.index()].alive);
        if self.hot.sink[i.index()] || !self.hot.alive[i.index()] {
            return;
        }
        // A node waking from a long nap catches its own position up before
        // acting (lazy mode only; no-op otherwise).
        self.catch_up_node(i.index(), now);
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
        let withholds = self.behaviors.any() && self.behaviors.get(i.index()).withholds();
        if withholds || self.nodes[i.index()].queue.is_empty() {
            // Nothing to send: stay available as a receiver for a window,
            // then re-evaluate the sleeping policy.
            let window = SimDuration::from_secs_f64(self.protocol.receiver_window_secs);
            self.nodes[i.index()].transition(MacState::Passive);
            self.sync_hot(i.index());
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
        self.sync_hot(i.index());
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
        let (metric, space) = if self.behaviors.any() && !self.hot.sink[i.index()] {
            match self.behaviors.get(i.index()) {
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
        if self.behaviors.any() && self.behaviors.get(i.index()) == NodeBehavior::Forger {
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
                debug_assert_eq!(self.hot.sink[id.index()], self.nodes[id.index()].is_sink());
                if self.hot.sink[id.index()] {
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
        self.sync_hot(i.index());

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
                    self.emit(TraceEvent::Dropped {
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
        debug_assert_eq!(self.hot.sink[i.index()], self.nodes[i.index()].is_sink());
        if self.hot.sink[i.index()] {
            let node = &mut self.nodes[i.index()];
            if let Some(ctx) = node.sender_ctx.take() {
                self.scratch.recycle_sender_ctx(ctx);
            }
            node.receiver_ctx = None;
            node.listen_retries = 0;
            node.transition(MacState::Passive);
            self.sync_hot(i.index());
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
                self.mac.sleeps && node.cycles_inactive >= self.protocol.inactivity_cycles_l;
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
            self.sync_hot(i.index());
            self.medium.set_listening(i, false);
            self.emit(TraceEvent::Slept {
                at: now,
                node: i,
                secs: duration.as_secs_f64(),
            });
            self.schedule_timer(i, duration, Timer::WakeUp);
        } else {
            self.nodes[i.index()].transition(MacState::Passive);
            self.sync_hot(i.index());
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

    fn fill_neighbors(&mut self, now: SimTime, i: NodeId) {
        let range = self.scenario.channel.range_m;
        if let Some(radius) = self.lazy.as_ref().map(|l| l.query_radius) {
            // Lazy mode: stored positions may lag truth by up to
            // `sync_every · v_max` metres (center included until the line
            // below), so query at the inflated radius — anything truly in
            // range is guaranteed to fall inside it — then catch the
            // candidates up and re-filter at the true range. `retain`
            // preserves the ascending order downstream relies on.
            self.catch_up_node(i.index(), now);
            self.grid
                .query_within(&self.positions, i.index(), radius, &mut self.scratch.idx);
            let mut idx = std::mem::take(&mut self.scratch.idx);
            let center = self.positions[i.index()];
            {
                // Drift-bound pruning: a candidate whose *stale* position
                // already lies farther than `range + v_max · staleness`
                // cannot be within range now, so it needs neither catch-up
                // nor a second look. This keeps the expanded-radius query
                // from turning every contact check into a ring of
                // trajectory advances.
                let lazy = self.lazy.as_ref().expect("lazy branch");
                let vmax = lazy.vmax;
                let positions = &self.positions;
                idx.retain(|&j| {
                    let s = now.saturating_since(lazy.synced_at[j]).as_secs_f64();
                    let reach = range + vmax * s;
                    positions[j].distance_sq(center) <= reach * reach
                });
            }
            for &j in &idx {
                self.catch_up_node(j, now);
            }
            let r2 = range * range;
            idx.retain(|&j| self.positions[j].distance_sq(center) <= r2);
            self.scratch.idx = idx;
        } else {
            // Ticked mode: positions are dense and exact, so the query is
            // memoizable. See [`ContactCache`] for the exactness argument;
            // on either path `scratch.idx` ends up holding precisely the
            // ascending indices a bare `query_within(range)` would return.
            let Simulation {
                grid,
                positions,
                scratch,
                contacts,
                coast,
                ..
            } = self;
            let coast = coast.as_mut().expect("ticked mode has a coast ledger");
            let slot = i.index();
            let t = coast.tick_no;
            coast.materialize(slot, t, positions);
            let center = positions[slot];
            let r2 = range * range;
            let Some(cache) = contacts.as_mut() else {
                // Cache disabled (the differential-testing knob): same
                // materialize-then-exact-query sequence as a cache miss,
                // just at the true range with nothing memoized.
                grid.collect_neighborhood(slot, range, &mut scratch.mat);
                for &j in &scratch.mat {
                    coast.materialize(j, t, positions);
                }
                grid.query_within(positions, slot, range, &mut scratch.idx);
                scratch.ids.clear();
                let (idx, ids) = (&scratch.idx, &mut scratch.ids);
                ids.extend(idx.iter().map(|&j| NodeId(j)));
                return;
            };
            let fresh = cache.gen[slot] == cache.arena_gen
                && now.saturating_since(cache.at[slot]) <= cache.valid_for;
            if fresh {
                cache.hits += 1;
                let s = cache.start[slot] as usize;
                let l = cache.len[slot] as usize;
                scratch.idx.clear();
                for k in s..s + l {
                    let j = cache.arena[k] as usize;
                    coast.materialize(j, t, positions);
                    if positions[j].distance_sq(center) <= r2 {
                        scratch.idx.push(j);
                    }
                }
            } else {
                cache.misses += 1;
                // Catch the whole candidate neighbourhood up to the current
                // tick before the exact query reads it: the ring superset is
                // every node the expanded-radius query could inspect, and a
                // node cannot leave its grid cell mid-lease, so the buckets
                // themselves are already current.
                grid.collect_neighborhood(slot, range + cache.margin_m, &mut scratch.mat);
                for &j in &scratch.mat {
                    coast.materialize(j, t, positions);
                }
                grid.query_within(positions, slot, range + cache.margin_m, &mut scratch.idx);
                if cache.arena.len() + scratch.idx.len() > cache.cap {
                    cache.arena.clear();
                    cache.arena_gen = cache.arena_gen.wrapping_add(1);
                }
                cache.at[slot] = now;
                cache.gen[slot] = cache.arena_gen;
                cache.start[slot] = u32::try_from(cache.arena.len()).expect("arena fits u32");
                cache.len[slot] = scratch.idx.len() as u32;
                cache.arena.extend(scratch.idx.iter().map(|&j| j as u32));
                scratch
                    .idx
                    .retain(|&j| positions[j].distance_sq(center) <= r2);
            }
        }
        self.scratch.ids.clear();
        self.scratch
            .ids
            .extend(self.scratch.idx.iter().map(|&j| NodeId(j)));
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
        self.emit(TraceEvent::FrameSent {
            at: now,
            node: i,
            tag: payload.tag(),
            bits,
        });
        self.metrics.frames_by_kind[RunMetrics::kind_index(payload.tag())] += 1;
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
        self.sync_hot(i.index());
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
                let (xi, ftd) = if self.behaviors.any()
                    && self.behaviors.get(i.index()) == NodeBehavior::Liar
                {
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
                self.sync_hot(i.index());
                let wait = self.timing.cts_slot * u64::from(window) + self.timing.gap;
                self.schedule_timer(i, wait, Timer::CtsWindowEnd);
            }
            TxPlan::Cts => {
                let ctx = self.nodes[i.index()].receiver_ctx.expect("CTS without ctx");
                self.nodes[i.index()].transition(MacState::AwaitSchedule);
                self.sync_hot(i.index());
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
                self.sync_hot(i.index());
                let wait = self.timing.ack_slot * receivers + self.timing.gap * 2;
                self.schedule_timer(i, wait, Timer::AckWindowEnd);
            }
            TxPlan::Ack => {
                // Receive exchange complete on the receiver side.
                self.end_cycle(now, i, true);
            }
        }

        // Deliveries and collision losses.
        if self.trace.is_some() {
            let tag = outcome.frame.payload.tag();
            let from = outcome.frame.src;
            for &r in &outcome.delivered_to {
                self.emit(TraceEvent::FrameDelivered {
                    at: now,
                    from,
                    to: r,
                    tag,
                });
            }
            for &r in &outcome.collided_at {
                self.emit(TraceEvent::Collision {
                    at: now,
                    at_node: r,
                });
            }
        }
        let delivered_to = std::mem::take(&mut outcome.delivered_to);
        let is_data = matches!(outcome.frame.payload, MacPayload::Data { .. });
        let src = outcome.frame.src;
        // A forger corrupts every DATA frame it relays. The corruption is
        // in the payload, so each receiver detects and discards it (same
        // observable outcome as the DataCorruption fault, but attributed to
        // the forger); the sender keeps the copy queued and retries.
        let src_forges = is_data
            && self.behaviors.any()
            && self.behaviors.get(src.index()) == NodeBehavior::Forger;
        if src_forges {
            self.metrics.faults.forged_frames += 1;
        }
        for r in delivered_to {
            // Fault filters. All of them are inert on a fault-free run:
            // every node is alive, both drop tables are empty and every
            // corruption probability is zero, so no branch is taken and no
            // random number is drawn. The liveness read comes from the
            // dense mirror — this loop fans out to every audible node, so
            // pulling a full `Node` per receiver would dominate it.
            debug_assert_eq!(self.hot.alive[r.index()], self.nodes[r.index()].alive);
            if !self.hot.alive[r.index()] {
                self.metrics.faults.frames_dropped += 1;
                if is_data {
                    self.metrics.faults.retransmissions_triggered += 1;
                }
                continue;
            }
            let drop_p = self.link_drop_prob(src, r);
            if drop_p > 0.0 && self.fault_rng.gen_bool(drop_p) {
                self.metrics.faults.frames_dropped += 1;
                if is_data {
                    self.metrics.faults.retransmissions_triggered += 1;
                }
                continue;
            }
            if is_data {
                let corrupt_p = self.nodes[r.index()].corrupt_rx_prob;
                if corrupt_p > 0.0 && self.fault_rng.gen_bool(corrupt_p) {
                    self.metrics.faults.data_corrupted += 1;
                    self.metrics.faults.retransmissions_triggered += 1;
                    continue;
                }
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
    fn qualified(
        &self,
        r: NodeId,
        sender: NodeId,
        sender_xi: f64,
        ftd: f64,
        msg: MessageId,
    ) -> bool {
        debug_assert_eq!(self.hot.sink[r.index()], self.nodes[r.index()].is_sink());
        if self.hot.sink[r.index()] {
            // Sinks always qualify: ξ = 1 and effectively infinite buffer.
            return true;
        }
        let node = &self.nodes[r.index()];
        // The ξ comparison screens most receivers out before the queue is
        // consulted, so it reads the dense mirror.
        debug_assert_eq!(
            self.hot.xi[r.index()].to_bits(),
            node.metric.value().to_bits()
        );
        let xi = self.hot.xi[r.index()];
        self.policy.qualifies(
            &RxView {
                xi,
                queue: &node.queue,
            },
            &RtsInfo {
                sender,
                xi: sender_xi,
                ftd,
                msg,
            },
        )
    }

    fn handle_rx(&mut self, now: SimTime, r: NodeId, frame: &Frame<MacPayload>) {
        let src = frame.src;
        // Policy estimator hook: any heard frame is a contact observation.
        // Builtin returns `None` unconditionally (the compiler folds the
        // branch away), so the pre-seam runs stay bit-identical.
        if !self.hot.sink[r.index()] {
            let src_is_sink = self.hot.sink[src.index()];
            if let Some(m) = self.policy.on_frame_from(r, src, src_is_sink, now) {
                self.nodes[r.index()].metric = DeliveryProb::new(m);
                self.sync_hot(r.index());
            }
        }
        match &frame.payload {
            MacPayload::Preamble => {
                // Preambles fan out to every audible node, so this filter
                // is the hottest state read in the loop — serve it from
                // the dense mirror.
                debug_assert_eq!(self.hot.state[r.index()], self.nodes[r.index()].state);
                if self.hot.state[r.index()].receptive() {
                    self.nodes[r.index()].transition(MacState::AwaitRts);
                    self.sync_hot(r.index());
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
                let qualifies = if self.behaviors.any() && !self.hot.sink[r.index()] {
                    match self.behaviors.get(r.index()) {
                        NodeBehavior::Honest => self.qualified(r, src, *xi, *ftd, *msg),
                        NodeBehavior::Selfish => false,
                        NodeBehavior::Blackhole => true,
                        NodeBehavior::Liar | NodeBehavior::Forger => {
                            let queue = &self.nodes[r.index()].queue;
                            !queue.contains(*msg)
                                && queue.available_space_for(Ftd::new((*ftd).clamp(0.0, 1.0))) > 0
                        }
                    }
                } else {
                    self.qualified(r, src, *xi, *ftd, *msg)
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
                    self.sync_hot(r.index());
                    let delay = self.timing.cts_slot * u64::from(slot - 1) + self.timing.gap;
                    self.schedule_timer(r, delay, Timer::CtsSlot);
                } else {
                    // NAV: defer until the overheard exchange finishes.
                    self.nodes[r.index()].transition(MacState::Passive);
                    self.sync_hot(r.index());
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
                    self.sync_hot(r.index());
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
                        self.sync_hot(r.index());
                        let deadline = self.timing.data + self.timing.gap * 2;
                        self.schedule_timer(r, deadline, Timer::Guard);
                    } else {
                        // Replied but not selected: wait out the exchange.
                        self.nodes[r.index()].transition(MacState::Passive);
                        self.sync_hot(r.index());
                        let nav = self.timing.data
                            + self.timing.ack_slot * receivers.len() as u64
                            + self.timing.gap * 3;
                        self.schedule_timer(r, nav, Timer::Guard);
                    }
                } else if state.receptive() {
                    self.nodes[r.index()].transition(MacState::Passive);
                    self.sync_hot(r.index());
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
                debug_assert_eq!(self.hot.sink[r.index()], self.nodes[r.index()].is_sink());
                if self.hot.sink[r.index()] {
                    self.record_sink_reception(now, r, &msg.hopped());
                } else {
                    // Any adversarial receiver captures the copy: the ACK it
                    // is about to send makes the sender count the copy as
                    // moved (or, for a lied ξ = 1, delivered) and drop it.
                    // Black holes destroy the copy outright; the others let
                    // it rot in their queue (they never enter the sender
                    // phase).
                    let behavior = if self.behaviors.any() {
                        self.behaviors.get(r.index())
                    } else {
                        NodeBehavior::Honest
                    };
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
                self.sync_hot(r.index());
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
            if self.fault_regime {
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
            self.emit(TraceEvent::Delivered {
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
                self.emit(TraceEvent::Dropped {
                    at: now,
                    node: i,
                    msg: evicted.id,
                    reason: DropReason::Overflow,
                });
            }
            InsertOutcome::RejectedFull => {
                self.metrics.drops_rejected += 1;
                self.emit(TraceEvent::Dropped {
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
        // Finalize the observer first: its closing snapshot reads the
        // meters *before* the loop below closes their open intervals.
        if let Some(recorder) = self.observer.take() {
            let snap = self.world_snapshot(duration);
            recorder.finish(duration, Some(snap));
        }
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
            Lifetime {
                first_death_secs: self.lifetime.first_death_secs(),
                half_death_secs: self.lifetime.half_death_secs(),
                last_death_secs: self.lifetime.last_death_secs(),
                alive_at_end: self.lifetime.alive() as u64,
                energy_hist,
            }
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
            events_processed: self.events.popped() - self.observe_ticks,
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

#[cfg(test)]
mod tests {
    use super::*;

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
        // Direct metric pokes bypass the engine's mutation sites, so the
        // hot mirror must be refreshed by hand.
        sim.sync_hot(r.index());
        let s = NodeId(5);
        assert!(sim.qualified(r, s, 0.4, 0.0, MessageId(9)));
        assert!(
            !sim.qualified(r, s, 0.5, 0.0, MessageId(9)),
            "ties do not qualify"
        );
        assert!(!sim.qualified(r, s, 0.6, 0.0, MessageId(9)));

        // Holding a copy disqualifies.
        let msg = Message::sensed(MessageId(9), NodeId(3), SimTime::ZERO);
        sim.nodes[r.index()].queue.insert(msg);
        assert!(!sim.qualified(r, s, 0.1, 0.0, MessageId(9)));
        assert!(
            sim.qualified(r, s, 0.1, 0.0, MessageId(10)),
            "other ids fine"
        );

        // Sinks always qualify.
        let sink = NodeId(scenario.sensors);
        assert!(sim.nodes[sink.index()].is_sink());
        assert!(sim.qualified(sink, s, 0.99, 0.99, MessageId(9)));

        // SinkOnly: sensors never qualify.
        let sim = mk(ProtocolKind::Direct);
        assert!(!sim.qualified(r, s, 0.0, 0.0, MessageId(9)));
        assert!(sim.qualified(sink, s, 0.9, 0.0, MessageId(9)));

        // AllResponders: metric ignored, only space matters.
        let sim = mk(ProtocolKind::Epidemic);
        assert!(sim.qualified(r, s, 0.99, 0.0, MessageId(9)));
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
    fn alternative_mobility_models_run_and_differ() {
        use crate::params::MobilityKind;
        let mut base = tiny();
        base.duration_secs = 300;
        let mut reports = Vec::new();
        for kind in [
            MobilityKind::ZoneBased,
            MobilityKind::RandomWaypoint,
            MobilityKind::RandomWalk,
        ] {
            let mut scenario = base.clone();
            scenario.mobility = kind;
            let r = Simulation::builder(scenario, ProtocolKind::Opt)
                .seed(5)
                .build()
                .run();
            assert!(r.generated > 0, "{kind:?} generated nothing");
            reports.push(r);
        }
        // Different contact patterns change the MAC's behaviour (node RNG
        // streams interleave traffic and protocol draws, so even the
        // generation counts may drift slightly).
        assert!(
            reports[0].frames_sent != reports[1].frames_sent
                || reports[1].frames_sent != reports[2].frames_sent,
            "mobility model had no effect on the MAC"
        );
    }

    #[test]
    fn sink_placement_is_spread_and_stationary() {
        let scenario = ScenarioParams::paper_default().with_sinks(3);
        let sim = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
            .seed(1)
            .build();
        let sinks: Vec<Vec2> = (0..3)
            .map(|j| sim.positions[scenario.sensors + j])
            .collect();
        // Spread: pairwise distances well above a transmission range.
        for a in 0..3 {
            for b in (a + 1)..3 {
                assert!(
                    sinks[a].distance(sinks[b]) > 30.0,
                    "sinks {a} and {b} clumped"
                );
            }
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

    /// An explicitly-attached builtin policy is the default path, so the
    /// two spellings must produce bit-identical runs.
    #[test]
    fn explicit_builtin_policy_matches_the_default() {
        let implicit = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .build()
            .run();
        let explicit = Simulation::builder(tiny(), ProtocolKind::Opt)
            .seed(7)
            .policy(PolicySpec::Builtin)
            .build()
            .run();
        assert_eq!(implicit.to_json().render(), explicit.to_json().render());
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
        let fault_before = sim.fault_rng.state();
        let now = sim.now();
        assert!(sim.crash_node(now, NodeId(idx), false));
        assert!(sim.recover_node(now, NodeId(idx)));
        assert_eq!(
            sim.nodes[idx].rng.state(),
            primary_before,
            "crash/recover touched the node's primary RNG stream"
        );
        assert_ne!(
            sim.fault_rng.state(),
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
    fn stacked_fault_plans_keep_the_hot_mirrors_consistent() {
        // Property sweep over stacked plans: BatteryDeath landing on an
        // already-crashed node takes the early return in `crash_node`,
        // whose debug assertions prove the SoA mirrors never drift. The
        // recovery then stays refused (battery_dead pins the node down).
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
