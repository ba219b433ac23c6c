//! Node motion for [`Simulation`](super::Simulation): the sensors' mobility
//! models, their random streams, the dense position array, the spatial grid
//! and whichever [`MobilityMode`] advances them.
//!
//! [`MobilityDriver`] owns all of it. The world asks it four things: take a
//! `MobilityTick` ([`tick`](MobilityDriver::tick), rescheduled after
//! [`period`](MobilityDriver::period)), catch a waking node up
//! ([`catch_up`](MobilityDriver::catch_up)), list the nodes within radio
//! range of a sender ([`neighbors`](MobilityDriver::neighbors)), and settle
//! or serialize the models for a checkpoint. The mode is one enum, so the
//! ticked coast ledger and contact cache exist exactly when the run is
//! ticked, and the lazy stream table exactly when it is lazy.
//!
//! Sensors move with the paper's home-zone model ([`ZoneMobility`], Sec. 5),
//! and sensor `j`'s model, coast lane and lazy stream all sit at index `j`.
//! Sinks sit still at zone centres spread evenly across the grid: they have
//! no model, lane or stream, and their positions, after the sensors' in
//! `positions`, are written once at construction. They stay in the grid and
//! the contact cache, since they send CTS and ACK frames and are neighbour
//! candidates like any node; every lookup that takes any node index treats
//! an index past the sensor lanes as a node that never moves.

use super::ckpt::{r_past, r_rng, w_rng, w_time};
use super::MobilityMode;
use crate::params::ScenarioParams;
use crate::prefetch::prefetch;
use dftmsn_mobility::geom::{Bounds, Vec2};
use dftmsn_mobility::grid_index::SpatialGrid;
use dftmsn_mobility::models::ZoneMobility;
use dftmsn_mobility::zones::{ZoneGrid, ZoneId};
use dftmsn_sim::rng::SimRng;
use dftmsn_sim::snap::{SnapError, SnapReader, SnapWriter};
use dftmsn_sim::time::{SimDuration, SimTime};

/// Slots in the coast due-wheel; windows are clipped to `COAST_WHEEL − 2`
/// ticks so a rescheduled node can never land back in the slot being
/// drained.
const COAST_WHEEL: usize = 256;

/// How far down the sorted due list a mobility tick prefetches: while it
/// visits node `due[k]` it requests the lines of `due[k + 6]`. The
/// distance is not critical; 1 and 12 timed within noise of 6
/// (EXPERIMENTS.md § Scale tier).
const DUE_PREFETCH_AHEAD: usize = 6;

/// Every node's motion, advanced in one [`MobilityMode`].
#[derive(Debug)]
pub(super) struct MobilityDriver {
    /// One model per sensor.
    models: Vec<ZoneMobility>,
    /// The shared mobility stream. Ticked mode draws every model's
    /// randomness from it in node order; Lazy mode only forked the
    /// per-sensor streams from it.
    rng: SimRng,
    /// Every node's position, read by every spatial query: the sensors'
    /// dense mirror of their models, then the sinks' fixed locations.
    positions: Vec<Vec2>,
    /// Spatial index over `positions`.
    grid: SpatialGrid,
    mode: Mode,
    /// The ticked-mode model step (s).
    tick_secs: f64,
    /// The radio range (m) neighbour queries filter at.
    range_m: f64,
    /// Unfiltered ring-neighbourhood superset pending materialization.
    mat: Vec<usize>,
}

/// The state only one mobility mode has.
#[derive(Debug)]
enum Mode {
    /// Coast leases and, unless disabled, memoized neighbour supersets.
    Ticked {
        coast: TickedCoast,
        contacts: Option<Box<ContactCache>>,
    },
    Lazy(LazyMobility),
}

/// Bookkeeping for [`MobilityMode::Lazy`].
#[derive(Debug)]
struct LazyMobility {
    /// Per-sensor mobility streams (forked from the shared mobility RNG),
    /// so catching sensor *i* up never perturbs sensor *j*'s trajectory.
    rngs: Vec<SimRng>,
    /// The sim-time each sensor's position was last advanced to.
    synced_at: Vec<SimTime>,
    /// Staleness bound: a low-rate sweep catches every node up at this
    /// period, so no stored position lags truth by more than it.
    sync_every: SimDuration,
    /// Spatial-query radius inflated by the worst-case staleness drift
    /// (`range + v_max · sync_every`); also the grid cell size.
    query_radius: f64,
    /// The speed bound used to derive `query_radius`, kept for the
    /// per-candidate drift pruning in [`MobilityDriver::neighbors`].
    vmax: f64,
}

impl LazyMobility {
    /// Advances node `j`'s model from its last synced instant to `now` in
    /// one closed-form span, updating its stored position and grid cell.
    /// No-op for an already-current node and for a sink.
    fn catch_up(
        &mut self,
        j: usize,
        now: SimTime,
        models: &mut [ZoneMobility],
        positions: &mut [Vec2],
        grid: &mut SpatialGrid,
    ) {
        let Some(&synced) = self.synced_at.get(j) else {
            return;
        };
        let dt = now.saturating_since(synced);
        if dt.is_zero() {
            return;
        }
        self.synced_at[j] = now;
        models[j].advance_span(dt.as_secs_f64(), &mut self.rngs[j]);
        let p = models[j].position();
        positions[j] = p;
        grid.move_node(j, p);
    }
}

/// SoA coast ledger for [`MobilityMode::Ticked`].
///
/// Each sensor holds a *coast lease* from its model
/// ([`ZoneMobility::tick_grant`]): for `left` more ticks the node's
/// position moves by exactly `disp` per tick with no RNG draw and no
/// boundary interaction, so the per-tick sweep applies the displacement to
/// the dense `positions` array and skips the model entirely — three
/// contiguous array lanes instead of a call into every sensor's model per
/// tick. Leases are additionally split into cell
/// windows ([`SpatialGrid::move_node_window`]: the whole steps to the
/// grid-cell edge ahead along the node's displacement) so a coasting node
/// can never invalidate its grid bucket. `pending` counts coasted ticks
/// not yet reported back; a settle ([`ZoneMobility::tick_settle`])
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
    /// model `j` ([`ZoneMobility::tick_settle`]'s replay count).
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
    fn new(sensors: usize) -> Self {
        let mut wheel = vec![Vec::new(); COAST_WHEEL];
        // Every sensor starts with no lease: all due on the first tick.
        wheel[1 % COAST_WHEEL] = (0..sensors as u32).collect();
        TickedCoast {
            disp: vec![Vec2::ZERO; sensors],
            model_left: vec![0; sensors],
            applied: vec![0; sensors],
            anchor: vec![0; sensors],
            wheel,
            tick_no: 0,
        }
    }

    /// Replays node `j`'s outstanding coast steps so `positions[j]`
    /// reflects tick `to_tick`. Each replayed step is the identical
    /// `+= disp` the old per-tick sweep performed, in the same order, so
    /// the resulting bit pattern is the same — batching only moves the
    /// work to the moment the position is actually read. A sink has no
    /// lane and is always current.
    #[inline]
    fn materialize(&mut self, j: usize, to_tick: u64, positions: &mut [Vec2]) {
        let Some(&anchor) = self.anchor.get(j) else {
            return;
        };
        let k = (to_tick - anchor) as u32;
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

impl MobilityDriver {
    /// Places every node of `scenario` and sets up `mode`'s state, drawing
    /// from `rng`, the run's mobility stream. The grid stays empty until
    /// [`sync_positions`](Self::sync_positions).
    ///
    /// Lazy mode forks one stream per sensor, so catching one sensor up
    /// never consumes another's randomness; each sensor is also *placed*
    /// from its own stream, which is why lazy runs re-baseline. Ticked mode
    /// places sensors from the shared stream in node order, the draw order
    /// every ticked baseline was recorded with.
    pub(super) fn new(scenario: &ScenarioParams, mode: MobilityMode, mut rng: SimRng) -> Self {
        let area = Bounds::new(scenario.area_width_m, scenario.area_height_m);
        let zones = ZoneGrid::new(area, scenario.zone_cols, scenario.zone_rows);
        let (n, sensors) = (scenario.node_count(), scenario.sensors);
        let lazy = mode == MobilityMode::Lazy;
        let mut models = Vec::with_capacity(sensors);
        let mut streams = Vec::with_capacity(if lazy { sensors } else { 0 });
        let sensor = |i: usize, draw: &mut SimRng| {
            ZoneMobility::new(
                zones.clone(),
                ZoneId(i % zones.zone_count()),
                scenario.speed_min_mps,
                scenario.speed_max_mps,
                scenario.zone_exit_prob,
                draw,
            )
        };
        for i in 0..sensors {
            if lazy {
                let mut own = rng.fork(i as u64);
                models.push(sensor(i, &mut own));
                streams.push(own);
            } else {
                models.push(sensor(i, &mut rng));
            }
        }
        let mut positions = Vec::with_capacity(n);
        positions.extend(models.iter().map(ZoneMobility::position));
        // Sinks sit at "strategic locations": zone centres spread evenly
        // across the grid. This is the only write of their positions.
        positions.extend((0..scenario.sinks).map(|j| {
            zones.zone_center(ZoneId(
                ((2 * j + 1) * zones.zone_count()) / (2 * scenario.sinks),
            ))
        }));

        let vmax = scenario.speed_max_mps.max(0.2);
        let mode = match mode {
            MobilityMode::Ticked => Mode::Ticked {
                coast: TickedCoast::new(sensors),
                contacts: Some(Box::new(ContactCache::new(
                    n,
                    vmax,
                    scenario.mobility_tick_secs,
                ))),
            },
            MobilityMode::Lazy => {
                let sync_every = (scenario.channel.range_m / vmax)
                    .clamp(scenario.mobility_tick_secs.min(30.0), 30.0);
                Mode::Lazy(LazyMobility {
                    rngs: streams,
                    synced_at: vec![SimTime::ZERO; sensors],
                    sync_every: SimDuration::from_secs_f64(sync_every),
                    query_radius: scenario.channel.range_m + vmax * sync_every,
                    vmax,
                })
            }
        };
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
        let cell = match &mode {
            Mode::Lazy(l) => l.query_radius.max(1.0),
            Mode::Ticked { .. } => (4.0 * scenario.channel.range_m).max(1.0),
        };
        MobilityDriver {
            models,
            rng,
            positions,
            grid: SpatialGrid::new(area, cell),
            mode,
            tick_secs: scenario.mobility_tick_secs,
            range_m: scenario.channel.range_m,
            mat: Vec::new(),
        }
    }

    /// The mode this driver advances nodes in.
    pub(super) fn mode(&self) -> MobilityMode {
        match self.mode {
            Mode::Ticked { .. } => MobilityMode::Ticked,
            Mode::Lazy(_) => MobilityMode::Lazy,
        }
    }

    /// Reads every sensor's position from its model and rebuilds the grid
    /// over all nodes: the derived state a fresh or restored driver starts
    /// from.
    pub(super) fn sync_positions(&mut self) {
        for (p, m) in self.positions.iter_mut().zip(&self.models) {
            *p = m.position();
        }
        self.grid.rebuild(&self.positions);
    }

    /// The interval between `MobilityTick`s: the model step in Ticked
    /// mode; in Lazy mode the tick is a low-rate staleness sweep instead.
    pub(super) fn period(&self) -> SimDuration {
        match &self.mode {
            Mode::Ticked { .. } => SimDuration::from_secs_f64(self.tick_secs),
            Mode::Lazy(l) => l.sync_every,
        }
    }

    /// Handles one `MobilityTick` at `now`; the caller schedules the next
    /// one [`period`](Self::period) later.
    pub(super) fn tick(&mut self, now: SimTime) {
        let MobilityDriver {
            models,
            rng,
            positions,
            grid,
            mode,
            tick_secs,
            ..
        } = self;
        let coast = match mode {
            Mode::Lazy(lazy) => {
                // Catching every sensor up to `now` re-establishes the
                // invariant the expanded-radius queries rely on — no
                // stored position lags truth by more than
                // `sync_every · v_max` metres.
                for j in 0..models.len() {
                    lazy.catch_up(j, now, models, positions, grid);
                }
                return;
            }
            Mode::Ticked { coast, .. } => coast,
        };
        let dt = *tick_secs;
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
                prefetch(&models[ahead]);
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
            let m = &mut models[j];
            let pending = std::mem::take(&mut coast.applied[j]);
            if pending > 0 {
                m.tick_settle(dt, pending, positions[j]);
            }
            m.advance(dt, rng);
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
    }

    /// Settles every outstanding coast lease so the mobility models' own
    /// state (not just the dense position mirror) is exact — required
    /// before [`encode`](Self::encode). Leases are cancelled, forcing the
    /// next tick through the full path exactly as a freshly resumed run
    /// would go, so checkpointing mid-lease cannot diverge from an
    /// uninterrupted run. No-op in Lazy mode.
    pub(super) fn settle(&mut self) {
        let Mode::Ticked { coast, .. } = &mut self.mode else {
            return;
        };
        let dt = self.tick_secs;
        let t = coast.tick_no;
        for (j, m) in self.models.iter_mut().enumerate() {
            coast.materialize(j, t, &mut self.positions);
            let pending = std::mem::take(&mut coast.applied[j]);
            if pending > 0 {
                m.tick_settle(dt, pending, self.positions[j]);
            }
            coast.model_left[j] = 0;
        }
        // Every lease is void now: rebook every sensor for the next tick
        // so each re-grants from its settled model state.
        for slot in &mut coast.wheel {
            slot.clear();
        }
        let next = ((t + 1) % COAST_WHEEL as u64) as usize;
        coast.wheel[next] = (0..self.models.len() as u32).collect();
    }

    /// Brings node `j`'s position up to `now` before it acts. Lazy mode
    /// only; a no-op in Ticked mode and for an already-current node.
    pub(super) fn catch_up(&mut self, j: usize, now: SimTime) {
        if let Mode::Lazy(lazy) = &mut self.mode {
            lazy.catch_up(
                j,
                now,
                &mut self.models,
                &mut self.positions,
                &mut self.grid,
            );
        }
    }

    /// Fills `idx` with the ascending indices of every other node within
    /// radio range of node `i` at `now`.
    pub(super) fn neighbors(&mut self, now: SimTime, i: usize, idx: &mut Vec<usize>) {
        let range = self.range_m;
        let r2 = range * range;
        let MobilityDriver {
            models,
            positions,
            grid,
            mode,
            mat,
            ..
        } = self;
        match mode {
            Mode::Lazy(lazy) => {
                // Stored positions may lag truth by up to
                // `sync_every · v_max` metres (center included until the
                // line below), so query at the inflated radius — anything
                // truly in range is guaranteed to fall inside it — then
                // catch the candidates up and re-filter at the true range.
                // `retain` preserves the ascending order downstream relies
                // on.
                lazy.catch_up(i, now, models, positions, grid);
                grid.query_within(positions, i, lazy.query_radius, idx);
                let center = positions[i];
                // Drift-bound pruning: a candidate whose *stale* position
                // already lies farther than `range + v_max · staleness`
                // cannot be within range now, so it needs neither catch-up
                // nor a second look. This keeps the expanded-radius query
                // from turning every contact check into a ring of
                // trajectory advances. A sink is never stale.
                idx.retain(|&j| {
                    let s = lazy
                        .synced_at
                        .get(j)
                        .map_or(0.0, |&t| now.saturating_since(t).as_secs_f64());
                    let reach = range + lazy.vmax * s;
                    positions[j].distance_sq(center) <= reach * reach
                });
                for &j in idx.iter() {
                    lazy.catch_up(j, now, models, positions, grid);
                }
                idx.retain(|&j| positions[j].distance_sq(center) <= r2);
            }
            Mode::Ticked { coast, contacts } => {
                // Positions are dense and exact, so the query is
                // memoizable. See [`ContactCache`] for the exactness
                // argument; on either path `idx` ends up holding precisely
                // the ascending indices a bare `query_within(range)` would
                // return.
                let t = coast.tick_no;
                coast.materialize(i, t, positions);
                let center = positions[i];
                let Some(cache) = contacts.as_deref_mut() else {
                    // Cache disabled (the differential-testing knob): same
                    // materialize-then-exact-query sequence as a cache
                    // miss, just at the true range with nothing memoized.
                    grid.collect_neighborhood(i, range, mat);
                    for &j in mat.iter() {
                        coast.materialize(j, t, positions);
                    }
                    grid.query_within(positions, i, range, idx);
                    return;
                };
                let fresh = cache.gen[i] == cache.arena_gen
                    && now.saturating_since(cache.at[i]) <= cache.valid_for;
                if fresh {
                    cache.hits += 1;
                    let s = cache.start[i] as usize;
                    let l = cache.len[i] as usize;
                    idx.clear();
                    for k in s..s + l {
                        let j = cache.arena[k] as usize;
                        coast.materialize(j, t, positions);
                        if positions[j].distance_sq(center) <= r2 {
                            idx.push(j);
                        }
                    }
                } else {
                    cache.misses += 1;
                    // Catch the whole candidate neighbourhood up to the
                    // current tick before the exact query reads it: the
                    // ring superset is every node the expanded-radius query
                    // could inspect, and a node cannot leave its grid cell
                    // mid-lease, so the buckets themselves are already
                    // current.
                    grid.collect_neighborhood(i, range + cache.margin_m, mat);
                    for &j in mat.iter() {
                        coast.materialize(j, t, positions);
                    }
                    grid.query_within(positions, i, range + cache.margin_m, idx);
                    if cache.arena.len() + idx.len() > cache.cap {
                        cache.arena.clear();
                        cache.arena_gen = cache.arena_gen.wrapping_add(1);
                    }
                    cache.at[i] = now;
                    cache.gen[i] = cache.arena_gen;
                    cache.start[i] = u32::try_from(cache.arena.len()).expect("arena fits u32");
                    cache.len[i] = idx.len() as u32;
                    cache.arena.extend(idx.iter().map(|&j| j as u32));
                    idx.retain(|&j| positions[j].distance_sq(center) <= r2);
                }
            }
        }
    }

    /// Switches the ticked-mode contact cache off, so every neighbour
    /// query takes the exact uncached path. No-op in Lazy mode.
    pub(super) fn drop_contact_cache(&mut self) {
        if let Mode::Ticked { contacts, .. } = &mut self.mode {
            *contacts = None;
        }
    }

    /// `(hits, misses)` of the ticked-mode contact cache; `None` in Lazy
    /// mode or with the cache off.
    pub(super) fn contact_cache_stats(&self) -> Option<(u64, u64)> {
        match &self.mode {
            Mode::Ticked {
                contacts: Some(c), ..
            } => Some((c.hits, c.misses)),
            _ => None,
        }
    }

    /// Sensors mid-coast-lease in Ticked mode; `None` in Lazy mode.
    pub(super) fn coasting_nodes(&self) -> Option<usize> {
        match &self.mode {
            Mode::Ticked { coast, .. } => Some(
                (0..coast.model_left.len())
                    .filter(|&j| coast.model_left[j] > 0 || coast.applied[j] > 0)
                    .count(),
            ),
            Mode::Lazy(_) => None,
        }
    }

    /// An upper bound on the bytes [`encode`](Self::encode) writes.
    pub(super) fn ckpt_len_bound(&self) -> usize {
        // The shared stream and the lazy tables' two length prefixes.
        const FIXED: usize = 48;
        // A sensor's seven state values.
        const MODEL: usize = 56;
        // A lazy sensor's stream and sync instant.
        const LAZY: usize = 40;
        let per_sensor = match self.mode {
            Mode::Ticked { .. } => MODEL,
            Mode::Lazy(_) => MODEL + LAZY,
        };
        FIXED + per_sensor * self.models.len()
    }

    /// Writes the checkpoint state: the shared stream, then in Lazy mode
    /// every sensor's stream and sync instant, then each sensor's seven
    /// trajectory values. Call [`settle`](Self::settle) first. Positions,
    /// the grid and the ticked coast ledger are derived and not written;
    /// sinks write nothing.
    pub(super) fn encode(&self, w: &mut SnapWriter) {
        w_rng(w, &self.rng);
        if let Mode::Lazy(lazy) = &self.mode {
            w.seq(&lazy.rngs, w_rng);
            w.seq(&lazy.synced_at, |w, &t| w_time(w, t));
        }
        for m in &self.models {
            for v in m.state() {
                w.f64(v);
            }
        }
    }

    /// Restores what [`encode`](Self::encode) wrote into a freshly built
    /// driver of the same scenario and mode, checking every count against
    /// the sensor count and every sync instant against the clock `now`,
    /// then [`sync_positions`](Self::sync_positions).
    pub(super) fn decode(&mut self, r: &mut SnapReader, now: SimTime) -> Result<(), SnapError> {
        let sensors = self.models.len();
        self.rng = r_rng(r)?;
        if let Mode::Lazy(lazy) = &mut self.mode {
            if r.seq_len()? != sensors {
                return Err(SnapError::new("lazy-mobility stream count mismatch"));
            }
            for rng in &mut lazy.rngs {
                *rng = r_rng(r)?;
            }
            if r.seq_len()? != sensors {
                return Err(SnapError::new("lazy-mobility sync table mismatch"));
            }
            for t in &mut lazy.synced_at {
                *t = r_past(r, now)?;
            }
        }
        for (j, model) in self.models.iter_mut().enumerate() {
            let mut state = [0.0; 7];
            for v in &mut state {
                *v = r.f64()?;
            }
            model
                .load_state(state)
                .map_err(|e| SnapError::new(format!("mobility model {j}: {e}")))?;
        }
        self.sync_positions();
        Ok(())
    }

    /// Node `j`'s stored position.
    #[cfg(test)]
    pub(super) fn position(&self, j: usize) -> Vec2 {
        self.positions[j]
    }
}
