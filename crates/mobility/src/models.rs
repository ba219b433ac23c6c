//! Mobility models.
//!
//! The paper's evaluation uses a **zone-based** model ([`ZoneMobility`]):
//! each sensor has a home zone, moves with a uniformly random speed, bounces
//! back from its current zone's boundary with probability 80% (crosses with
//! 20%), and always crosses a boundary leading back into its home zone.
//! [`RandomWaypoint`], [`RandomWalk`] and [`Stationary`] are provided for
//! sensitivity studies and tests.
//!
//! Models advance in discrete ticks: the simulation calls
//! [`MobilityModel::advance`] with a small `dt` (0.5 s by default) and reads
//! back the position. All randomness comes from the caller-supplied
//! [`SimRng`], keeping runs deterministic.

use crate::geom::{Bounds, Vec2};
use crate::zones::{ZoneGrid, ZoneId};
use dftmsn_sim::rng::SimRng;

/// A point process generating node positions over time.
///
/// Implementations must keep the position inside the model's area at all
/// times.
pub trait MobilityModel: std::fmt::Debug + Send {
    /// The current position.
    fn position(&self) -> Vec2;

    /// Advances the model by `dt` seconds.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `dt` is not a positive finite number.
    fn advance(&mut self, dt: f64, rng: &mut SimRng);

    /// Advances the model across an arbitrary span of `dt` seconds in a
    /// single call — the lazy-mobility catch-up path.
    ///
    /// The default forwards to [`advance`](Self::advance), which is correct
    /// for models whose `advance` already walks the span closed-form
    /// ([`RandomWaypoint`], [`Stationary`], trace replay). Models whose
    /// per-tick `advance` makes boundary decisions each tick
    /// ([`ZoneMobility`], [`RandomWalk`]) override this with an
    /// event-stepped walk: cost is proportional to the number of leg ends
    /// and boundary hits in the span, not to `dt / tick`. The trajectory is
    /// drawn from the same distribution but is **not** bit-identical to a
    /// sequence of small ticks, so an engine switching between the two
    /// modes must re-record its golden baselines.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `dt` is not a positive finite number.
    fn advance_span(&mut self, dt: f64, rng: &mut SimRng) {
        self.advance(dt, rng);
    }

    /// Appends the model's mutable state to `out` as flat `f64` values, for
    /// checkpointing.
    ///
    /// Only trajectory state is captured — construction-time parameters
    /// (area, zone grid, speed bounds) are rebuilt from the scenario.
    /// Values must round-trip bit-exactly; stateless models append nothing.
    fn save_state(&self, _out: &mut Vec<f64>) {}

    /// Restores state captured by [`save_state`](Self::save_state) into a
    /// freshly constructed model of the same kind and parameters.
    ///
    /// # Errors
    ///
    /// A description of the problem when `state` does not match the
    /// [`save_state`](Self::save_state) layout or names a state the model
    /// cannot be in (a non-finite value, a position outside its area, a
    /// speed outside its range). The model is left unchanged.
    fn load_state(&mut self, state: &[f64]) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "stateless model handed {} state values",
                state.len()
            ))
        }
    }

    /// Ticked-mode coast lease: `(disp, k)` promises that each of the next
    /// `k` calls to [`advance`](Self::advance) with this exact `dt` would
    /// be a pure straight-line step — the position moves by exactly `disp`
    /// (bit-identical to what `advance` would compute), no RNG is drawn,
    /// and no leg end, zone boundary, or area wall is reached.
    ///
    /// The caller may then apply `disp` to its own position mirror for up
    /// to `k` ticks without touching the model, provided it reports the
    /// skipped ticks back via [`tick_settle`](Self::tick_settle) before
    /// anything else reads or advances the model. Models without a
    /// constant-displacement tick (or none at all) return `(Vec2::ZERO,
    /// 0)`, which callers must treat as "call `advance` every tick".
    fn tick_grant(&self, _dt: f64) -> (Vec2, u32) {
        (Vec2::ZERO, 0)
    }

    /// Settles `ticks` coasted ticks granted by
    /// [`tick_grant`](Self::tick_grant): `pos` is the caller-accumulated
    /// position after applying the granted displacement `ticks` times —
    /// bit-identical to what repeated `advance` calls would have produced,
    /// because both sides perform the same `+= disp` sequence from the
    /// same start. Implementations replay any per-tick countdowns so
    /// subsequent redraw decisions land on exactly the tick a pure
    /// per-tick run would have chosen.
    ///
    /// # Panics
    ///
    /// The default (for models that never grant) panics when `ticks > 0`.
    fn tick_settle(&mut self, _dt: f64, ticks: u32, _pos: Vec2) {
        assert_eq!(ticks, 0, "model granted no coast ticks but was settled");
    }
}

/// Whole steps of `d` a point at `p` can take while staying at least
/// `guard` metres inside `[lo, hi]` along this axis (infinite when `d` is
/// zero: the coordinate never changes). The guard band absorbs the
/// accumulated f64 addition error of a lease — microscopic against
/// metre-scale margins — so every intermediate position stays strictly
/// interior.
fn coast_ticks(p: f64, d: f64, lo: f64, hi: f64, guard: f64) -> f64 {
    let dist = if d > 0.0 {
        hi - p
    } else if d < 0.0 {
        p - lo
    } else {
        return f64::INFINITY;
    };
    ((dist - guard) / d.abs()).floor()
}

/// Time until a point at `p` moving with velocity `v` leaves `[lo, hi]`
/// (infinite when it never does).
fn ray_exit(p: f64, v: f64, lo: f64, hi: f64) -> f64 {
    if v > 0.0 {
        (hi - p) / v
    } else if v < 0.0 {
        (lo - p) / v
    } else {
        f64::INFINITY
    }
}

/// Checks restored trajectory state: every value finite, the position
/// inside `area`, the speed within `[v_min, v_max]`.
fn check_restored(
    values: &[f64],
    area: Bounds,
    pos: Vec2,
    speed: f64,
    v_min: f64,
    v_max: f64,
) -> Result<(), String> {
    if let Some(v) = values.iter().find(|v| !v.is_finite()) {
        return Err(format!("non-finite state value {v}"));
    }
    if !area.contains(pos) {
        return Err(format!("position ({}, {}) outside {area}", pos.x, pos.y));
    }
    if !(v_min..=v_max).contains(&speed) {
        return Err(format!("speed {speed} outside [{v_min}, {v_max}]"));
    }
    Ok(())
}

/// Checks a restored heading is a unit vector (up to rounding).
fn check_heading(dir: Vec2) -> Result<(), String> {
    let len2 = dir.x * dir.x + dir.y * dir.y;
    if (len2 - 1.0).abs() > 1e-9 {
        return Err(format!(
            "heading ({}, {}) is not a unit vector",
            dir.x, dir.y
        ));
    }
    Ok(())
}

fn assert_dt(dt: f64) {
    assert!(dt.is_finite() && dt > 0.0, "dt must be positive, got {dt}");
}

/// The paper's zone-based mobility model (Sec. 5).
///
/// # Examples
///
/// ```
/// use dftmsn_mobility::geom::Bounds;
/// use dftmsn_mobility::models::{MobilityModel, ZoneMobility};
/// use dftmsn_mobility::zones::{ZoneGrid, ZoneId};
/// use dftmsn_sim::rng::SimRng;
///
/// let grid = ZoneGrid::new(Bounds::new(150.0, 150.0), 5, 5);
/// let mut rng = SimRng::seed_from(1);
/// let mut m = ZoneMobility::new(grid.clone(), ZoneId(12), 0.0, 5.0, 0.2, &mut rng);
/// for _ in 0..100 {
///     m.advance(0.5, &mut rng);
///     assert!(grid.area().contains(m.position()));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ZoneMobility {
    grid: ZoneGrid,
    home: ZoneId,
    pos: Vec2,
    dir: Vec2,
    speed: f64,
    v_min: f64,
    v_max: f64,
    exit_prob: f64,
    /// Seconds left on the current straight-line leg before the node
    /// re-draws its heading and speed.
    leg_remaining: f64,
    /// Conservative lower bound on the distance (m) from `pos` to the
    /// nearest edge of its current zone — a step shorter than this cannot
    /// reach any boundary, letting `advance_span` skip the zone geometry
    /// entirely. A movement of length L shrinks every edge distance by at
    /// most L, so the bound survives heading redraws; 0 forces the full
    /// path, which recomputes it.
    span_margin_m: f64,
}

impl ZoneMobility {
    /// Mean straight-line leg duration before re-drawing heading/speed (s).
    const MEAN_LEG_SECS: f64 = 20.0;

    /// Creates a node homed in zone `home`, placed uniformly inside it.
    ///
    /// `exit_prob` is the probability of crossing a non-home zone boundary
    /// (the paper uses 0.2).
    ///
    /// # Panics
    ///
    /// Panics if the speed range is invalid or `exit_prob` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn new(
        grid: ZoneGrid,
        home: ZoneId,
        v_min: f64,
        v_max: f64,
        exit_prob: f64,
        rng: &mut SimRng,
    ) -> Self {
        assert!(
            v_min >= 0.0 && v_max >= v_min && v_max.is_finite(),
            "invalid speed range [{v_min}, {v_max}]"
        );
        assert!(
            (0.0..=1.0).contains(&exit_prob),
            "exit_prob must be a probability, got {exit_prob}"
        );
        let zb = grid.zone_bounds(home);
        let pos = Vec2::new(
            rng.gen_range_f64(zb.x0, zb.x1),
            rng.gen_range_f64(zb.y0, zb.y1),
        );
        let mut m = ZoneMobility {
            grid,
            home,
            pos,
            dir: Vec2::new(1.0, 0.0),
            speed: 0.0,
            v_min,
            v_max,
            exit_prob,
            leg_remaining: 0.0,
            span_margin_m: 0.0,
        };
        m.redraw_leg(rng);
        m
    }

    /// The node's home zone.
    #[must_use]
    pub fn home_zone(&self) -> ZoneId {
        self.home
    }

    /// The zone currently containing the node.
    #[must_use]
    pub fn current_zone(&self) -> ZoneId {
        self.grid.zone_of(self.pos)
    }

    fn redraw_leg(&mut self, rng: &mut SimRng) {
        self.dir = Vec2::from_angle(rng.gen_range_f64(0.0, std::f64::consts::TAU));
        self.speed = rng.gen_range_f64(self.v_min, self.v_max);
        self.leg_remaining = rng.gen_exp(Self::MEAN_LEG_SECS);
    }
}

impl MobilityModel for ZoneMobility {
    fn position(&self) -> Vec2 {
        self.pos
    }

    fn advance(&mut self, dt: f64, rng: &mut SimRng) {
        assert_dt(dt);
        // The tick path moves `pos` without maintaining the span margin;
        // force the next `advance_span` through its full path.
        self.span_margin_m = 0.0;
        self.leg_remaining -= dt;
        if self.leg_remaining <= 0.0 {
            self.redraw_leg(rng);
        }

        let tentative = self.pos + self.dir * (self.speed * dt);
        // Reflect off the outer area first: walls are always hard.
        let (tentative, dir) = self.grid.area().reflect(tentative, self.dir);
        self.dir = dir;

        let cur = self.grid.zone_of(self.pos);
        let nxt = self.grid.zone_of(tentative);
        if nxt == cur {
            self.pos = tentative;
            return;
        }
        // Reached a zone boundary: cross into the home zone with probability
        // 1, otherwise cross with `exit_prob` and bounce back with the
        // complement (paper Sec. 5).
        let crosses = nxt == self.home || rng.gen_bool(self.exit_prob);
        if crosses {
            self.pos = tentative;
        } else {
            let (p, d) = self.grid.zone_bounds(cur).reflect(tentative, self.dir);
            self.pos = p;
            self.dir = d;
        }
    }

    /// Event-stepped span advance: walks from leg end to leg end and from
    /// zone-boundary hit to zone-boundary hit, making one crossing decision
    /// per boundary actually reached. Cost ∝ events in the span (legs are
    /// exponential with mean `MEAN_LEG_SECS` s, boundaries are a
    /// zone width apart), not ∝ `dt / tick`.
    fn advance_span(&mut self, dt: f64, rng: &mut SimRng) {
        assert_dt(dt);
        /// Nudge across a boundary so `zone_of` sees the far side (m).
        const EPS_M: f64 = 1e-9;
        let area = self.grid.area();
        let mut budget = dt;
        // Hard cap against pathological geometry; events in any realistic
        // span number in the hundreds.
        for _ in 0..1_000_000 {
            if budget <= 0.0 {
                return;
            }
            if self.leg_remaining <= 0.0 {
                self.redraw_leg(rng);
            }
            let step = budget.min(self.leg_remaining);
            if self.speed <= 0.0 {
                self.leg_remaining -= step;
                budget -= step;
                continue;
            }
            let dist = self.speed * step;
            if dist < self.span_margin_m {
                // Too short to reach any zone edge: pure position update,
                // no zone lookup. The expression matches the in-zone slow
                // path below exactly, so trajectories stay bit-identical.
                self.pos += self.dir * dist;
                self.span_margin_m -= dist;
                self.leg_remaining -= step;
                budget -= step;
                continue;
            }
            let zb = self.grid.zone_bounds(self.grid.zone_of(self.pos));
            let vx = self.dir.x * self.speed;
            let vy = self.dir.y * self.speed;
            let tx = ray_exit(self.pos.x, vx, zb.x0, zb.x1);
            let ty = ray_exit(self.pos.y, vy, zb.y0, zb.y1);
            let hit = tx.min(ty);
            if hit >= step {
                // The whole step stays inside the current zone.
                self.pos += self.dir * (self.speed * step);
                self.span_margin_m = (self.pos.x - zb.x0)
                    .min(zb.x1 - self.pos.x)
                    .min(self.pos.y - zb.y0)
                    .min(zb.y1 - self.pos.y);
                self.leg_remaining -= step;
                budget -= step;
                continue;
            }
            self.span_margin_m = 0.0;
            // Advance to the boundary, then resolve each crossing axis:
            // area walls always reflect; zone boundaries cross into the
            // home zone with probability 1 and elsewhere with `exit_prob`.
            let used = hit.max(0.0);
            self.pos += self.dir * (self.speed * used);
            self.leg_remaining -= used;
            budget -= used;
            if tx <= hit {
                let (face, wall) = if vx > 0.0 {
                    (zb.x1, (zb.x1 - area.x1).abs() < EPS_M)
                } else {
                    (zb.x0, (zb.x0 - area.x0).abs() < EPS_M)
                };
                let probe = Vec2::new(face + vx.signum() * EPS_M, self.pos.y);
                let next = self.grid.zone_of(probe);
                if wall || !(next == self.home || rng.gen_bool(self.exit_prob)) {
                    // Bounce: land strictly inside the current zone so the
                    // next `zone_of` doesn't floor onto the far side.
                    self.pos.x = face - vx.signum() * EPS_M;
                    self.dir.x = -self.dir.x;
                } else {
                    self.pos.x = probe.x;
                }
            }
            if ty <= hit {
                let (face, wall) = if vy > 0.0 {
                    (zb.y1, (zb.y1 - area.y1).abs() < EPS_M)
                } else {
                    (zb.y0, (zb.y0 - area.y0).abs() < EPS_M)
                };
                let probe = Vec2::new(self.pos.x, face + vy.signum() * EPS_M);
                let next = self.grid.zone_of(probe);
                if wall || !(next == self.home || rng.gen_bool(self.exit_prob)) {
                    self.pos.y = face - vy.signum() * EPS_M;
                    self.dir.y = -self.dir.y;
                } else {
                    self.pos.y = probe.y;
                }
            }
        }
        let (p, _) = area.reflect(self.pos, self.dir);
        self.pos = p;
    }

    fn save_state(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&[
            self.pos.x,
            self.pos.y,
            self.dir.x,
            self.dir.y,
            self.speed,
            self.leg_remaining,
            self.span_margin_m,
        ]);
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), String> {
        let [px, py, dx, dy, speed, leg, margin] = *state else {
            return Err(format!(
                "zone mobility expects 7 state values, got {}",
                state.len()
            ));
        };
        let pos = Vec2::new(px, py);
        let dir = Vec2::new(dx, dy);
        check_restored(state, self.grid.area(), pos, speed, self.v_min, self.v_max)?;
        check_heading(dir)?;
        // The margin lets `advance_span` skip the zone geometry, so it must
        // stay a lower bound on the distance to the zone's edges (with room
        // for the rounding of its running decrements).
        let zb = self.grid.zone_bounds(self.grid.zone_of(pos));
        let edge = (px - zb.x0).min(zb.x1 - px).min(py - zb.y0).min(zb.y1 - py);
        if !(0.0..=edge.max(0.0) + 1e-6).contains(&margin) {
            return Err(format!(
                "span margin {margin} exceeds the zone-edge distance {edge}"
            ));
        }
        self.pos = pos;
        self.dir = dir;
        self.speed = speed;
        self.leg_remaining = leg;
        self.span_margin_m = margin;
        Ok(())
    }

    fn tick_grant(&self, dt: f64) -> (Vec2, u32) {
        const GUARD_M: f64 = 1e-6;
        // One fewer than the whole ticks left on the leg: the countdown in
        // `advance` must stay strictly positive on every granted tick so
        // the redraw fires exactly where a pure per-tick run fires it.
        let k_leg = (self.leg_remaining / dt).floor() - 1.0;
        if k_leg < 1.0 {
            return (Vec2::ZERO, 0);
        }
        let disp = self.dir * (self.speed * dt);
        let zb = self.grid.zone_bounds(self.grid.zone_of(self.pos));
        let kx = coast_ticks(self.pos.x, disp.x, zb.x0, zb.x1, GUARD_M);
        let ky = coast_ticks(self.pos.y, disp.y, zb.y0, zb.y1, GUARD_M);
        // Strictly interior to the zone also means interior to the area
        // (zones tile it), so the wall reflection is the identity too.
        let k = k_leg.min(kx).min(ky).min(1e6);
        if k < 1.0 {
            (Vec2::ZERO, 0)
        } else {
            (disp, k as u32)
        }
    }

    fn tick_settle(&mut self, dt: f64, ticks: u32, pos: Vec2) {
        // Replay the per-tick countdown: k single subtractions, not one
        // k·dt subtraction, so the leg ends on the bit-identical tick.
        for _ in 0..ticks {
            self.leg_remaining -= dt;
        }
        debug_assert!(
            ticks == 0 || self.leg_remaining > 0.0,
            "coast lease outlived its leg"
        );
        self.pos = pos;
        self.span_margin_m = 0.0;
    }
}

/// Classic random-waypoint mobility over a rectangular area.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    area: Bounds,
    pos: Vec2,
    target: Vec2,
    speed: f64,
    v_min: f64,
    v_max: f64,
    pause_remaining: f64,
    max_pause: f64,
}

impl RandomWaypoint {
    /// Creates a walker at a uniformly random position.
    ///
    /// `max_pause` is the upper bound of the uniformly distributed pause at
    /// each waypoint (0 for no pauses).
    ///
    /// # Panics
    ///
    /// Panics if the speed range is invalid (`v_min` must be positive so a
    /// leg always finishes) or `max_pause` is negative.
    #[must_use]
    pub fn new(area: Bounds, v_min: f64, v_max: f64, max_pause: f64, rng: &mut SimRng) -> Self {
        assert!(
            v_min > 0.0 && v_max >= v_min && v_max.is_finite(),
            "invalid speed range [{v_min}, {v_max}]"
        );
        assert!(max_pause >= 0.0, "negative pause bound");
        let pos = Vec2::new(
            rng.gen_range_f64(area.x0, area.x1),
            rng.gen_range_f64(area.y0, area.y1),
        );
        let mut w = RandomWaypoint {
            area,
            pos,
            target: pos,
            speed: v_min,
            v_min,
            v_max,
            pause_remaining: 0.0,
            max_pause,
        };
        w.pick_waypoint(rng);
        w
    }

    fn pick_waypoint(&mut self, rng: &mut SimRng) {
        self.target = Vec2::new(
            rng.gen_range_f64(self.area.x0, self.area.x1),
            rng.gen_range_f64(self.area.y0, self.area.y1),
        );
        self.speed = rng.gen_range_f64(self.v_min, self.v_max);
    }
}

impl MobilityModel for RandomWaypoint {
    fn position(&self) -> Vec2 {
        self.pos
    }

    fn advance(&mut self, dt: f64, rng: &mut SimRng) {
        assert_dt(dt);
        let mut budget = dt;
        if self.pause_remaining > 0.0 {
            let used = self.pause_remaining.min(budget);
            self.pause_remaining -= used;
            budget -= used;
            if budget <= 0.0 {
                return;
            }
        }
        while budget > 0.0 {
            let to_target = self.target - self.pos;
            let dist = to_target.length();
            let reach = self.speed * budget;
            if reach < dist {
                self.pos += to_target.normalized() * reach;
                return;
            }
            // Arrive, pause, then head for a fresh waypoint.
            self.pos = self.target;
            budget -= if self.speed > 0.0 {
                dist / self.speed
            } else {
                budget
            };
            self.pick_waypoint(rng);
            if self.max_pause > 0.0 {
                self.pause_remaining = rng.gen_range_f64(0.0, self.max_pause);
                let used = self.pause_remaining.min(budget.max(0.0));
                self.pause_remaining -= used;
                budget -= used;
            }
        }
    }

    fn save_state(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&[
            self.pos.x,
            self.pos.y,
            self.target.x,
            self.target.y,
            self.speed,
            self.pause_remaining,
        ]);
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), String> {
        let [px, py, tx, ty, speed, pause] = *state else {
            return Err(format!(
                "random waypoint expects 6 state values, got {}",
                state.len()
            ));
        };
        let pos = Vec2::new(px, py);
        let target = Vec2::new(tx, ty);
        check_restored(state, self.area, pos, speed, self.v_min, self.v_max)?;
        if !self.area.contains(target) {
            return Err(format!("waypoint ({tx}, {ty}) outside {}", self.area));
        }
        if !(0.0..=self.max_pause).contains(&pause) {
            return Err(format!("pause {pause} outside [0, {}]", self.max_pause));
        }
        self.pos = pos;
        self.target = target;
        self.speed = speed;
        self.pause_remaining = pause;
        Ok(())
    }
}

/// Random-walk (random direction) mobility: straight legs with reflection
/// at the area boundary and a fresh heading each epoch.
#[derive(Debug, Clone)]
pub struct RandomWalk {
    area: Bounds,
    pos: Vec2,
    dir: Vec2,
    speed: f64,
    v_min: f64,
    v_max: f64,
    epoch: f64,
    epoch_remaining: f64,
}

impl RandomWalk {
    /// Creates a walker at a uniformly random position with legs of
    /// `epoch` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the speed range or `epoch` is invalid.
    #[must_use]
    pub fn new(area: Bounds, v_min: f64, v_max: f64, epoch: f64, rng: &mut SimRng) -> Self {
        assert!(
            v_min >= 0.0 && v_max >= v_min && v_max.is_finite(),
            "invalid speed range [{v_min}, {v_max}]"
        );
        assert!(epoch > 0.0 && epoch.is_finite(), "invalid epoch {epoch}");
        let pos = Vec2::new(
            rng.gen_range_f64(area.x0, area.x1),
            rng.gen_range_f64(area.y0, area.y1),
        );
        let mut w = RandomWalk {
            area,
            pos,
            dir: Vec2::new(1.0, 0.0),
            speed: 0.0,
            v_min,
            v_max,
            epoch,
            epoch_remaining: 0.0,
        };
        w.redraw(rng);
        w
    }

    fn redraw(&mut self, rng: &mut SimRng) {
        self.dir = Vec2::from_angle(rng.gen_range_f64(0.0, std::f64::consts::TAU));
        self.speed = rng.gen_range_f64(self.v_min, self.v_max);
        self.epoch_remaining = self.epoch;
    }
}

impl MobilityModel for RandomWalk {
    fn position(&self) -> Vec2 {
        self.pos
    }

    fn advance(&mut self, dt: f64, rng: &mut SimRng) {
        assert_dt(dt);
        self.epoch_remaining -= dt;
        if self.epoch_remaining <= 0.0 {
            self.redraw(rng);
        }
        let tentative = self.pos + self.dir * (self.speed * dt);
        let (p, d) = self.area.reflect(tentative, self.dir);
        self.pos = p;
        self.dir = d;
    }

    /// Leg-stepped span advance: one straight move (with fold-out
    /// reflection) per epoch leg instead of one per tick.
    fn advance_span(&mut self, dt: f64, rng: &mut SimRng) {
        assert_dt(dt);
        let mut budget = dt;
        while budget > 0.0 {
            if self.epoch_remaining <= 0.0 {
                self.redraw(rng);
            }
            let step = budget.min(self.epoch_remaining);
            let tentative = self.pos + self.dir * (self.speed * step);
            let (p, d) = self.area.reflect(tentative, self.dir);
            self.pos = p;
            self.dir = d;
            self.epoch_remaining -= step;
            budget -= step;
        }
    }

    fn save_state(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&[
            self.pos.x,
            self.pos.y,
            self.dir.x,
            self.dir.y,
            self.speed,
            self.epoch_remaining,
        ]);
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), String> {
        let [px, py, dx, dy, speed, remaining] = *state else {
            return Err(format!(
                "random walk expects 6 state values, got {}",
                state.len()
            ));
        };
        let pos = Vec2::new(px, py);
        let dir = Vec2::new(dx, dy);
        check_restored(state, self.area, pos, speed, self.v_min, self.v_max)?;
        check_heading(dir)?;
        self.pos = pos;
        self.dir = dir;
        self.speed = speed;
        self.epoch_remaining = remaining;
        Ok(())
    }

    fn tick_grant(&self, dt: f64) -> (Vec2, u32) {
        const GUARD_M: f64 = 1e-6;
        let k_epoch = (self.epoch_remaining / dt).floor() - 1.0;
        if k_epoch < 1.0 {
            return (Vec2::ZERO, 0);
        }
        let disp = self.dir * (self.speed * dt);
        let kx = coast_ticks(self.pos.x, disp.x, self.area.x0, self.area.x1, GUARD_M);
        let ky = coast_ticks(self.pos.y, disp.y, self.area.y0, self.area.y1, GUARD_M);
        let k = k_epoch.min(kx).min(ky).min(1e6);
        if k < 1.0 {
            (Vec2::ZERO, 0)
        } else {
            (disp, k as u32)
        }
    }

    fn tick_settle(&mut self, dt: f64, ticks: u32, pos: Vec2) {
        for _ in 0..ticks {
            self.epoch_remaining -= dt;
        }
        debug_assert!(
            ticks == 0 || self.epoch_remaining > 0.0,
            "coast lease outlived its epoch"
        );
        self.pos = pos;
    }
}

/// A node that never moves (sinks at strategic locations, anchors in tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stationary {
    pos: Vec2,
}

impl Stationary {
    /// Creates a fixed node at `pos`.
    #[must_use]
    pub const fn new(pos: Vec2) -> Self {
        Stationary { pos }
    }
}

impl MobilityModel for Stationary {
    fn position(&self) -> Vec2 {
        self.pos
    }

    fn advance(&mut self, _dt: f64, _rng: &mut SimRng) {}

    fn tick_grant(&self, _dt: f64) -> (Vec2, u32) {
        (Vec2::ZERO, u32::MAX)
    }

    fn tick_settle(&mut self, _dt: f64, _ticks: u32, _pos: Vec2) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> ZoneGrid {
        ZoneGrid::new(Bounds::new(150.0, 150.0), 5, 5)
    }

    #[test]
    fn zone_mobility_starts_in_home_zone() {
        let mut rng = SimRng::seed_from(1);
        for zone in 0..25 {
            let m = ZoneMobility::new(grid(), ZoneId(zone), 0.0, 5.0, 0.2, &mut rng);
            assert_eq!(m.current_zone(), ZoneId(zone));
        }
    }

    #[test]
    fn zone_mobility_stays_in_area() {
        let mut rng = SimRng::seed_from(2);
        let g = grid();
        let mut m = ZoneMobility::new(g.clone(), ZoneId(0), 0.0, 5.0, 0.2, &mut rng);
        for _ in 0..20_000 {
            m.advance(0.5, &mut rng);
            assert!(
                g.area().contains(m.position()),
                "escaped at {}",
                m.position()
            );
        }
    }

    #[test]
    fn zero_exit_probability_pins_node_to_home_zone() {
        let mut rng = SimRng::seed_from(3);
        let mut m = ZoneMobility::new(grid(), ZoneId(12), 1.0, 5.0, 0.0, &mut rng);
        for _ in 0..5_000 {
            m.advance(0.5, &mut rng);
            assert_eq!(m.current_zone(), ZoneId(12));
        }
    }

    #[test]
    fn unit_exit_probability_lets_node_roam() {
        let mut rng = SimRng::seed_from(4);
        let mut m = ZoneMobility::new(grid(), ZoneId(12), 2.0, 5.0, 1.0, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            m.advance(0.5, &mut rng);
            seen.insert(m.current_zone());
        }
        assert!(seen.len() > 5, "only visited {} zones", seen.len());
    }

    #[test]
    fn home_bias_keeps_node_near_home() {
        // With a 20% exit probability the node should spend far more time
        // in its home zone than the uniform share (1/25 = 4%).
        let mut rng = SimRng::seed_from(5);
        let mut m = ZoneMobility::new(grid(), ZoneId(12), 0.0, 5.0, 0.2, &mut rng);
        let mut at_home = 0usize;
        let steps = 40_000;
        for _ in 0..steps {
            m.advance(0.5, &mut rng);
            if m.current_zone() == ZoneId(12) {
                at_home += 1;
            }
        }
        let frac = at_home as f64 / steps as f64;
        assert!(frac > 0.10, "home fraction only {frac:.3}");
    }

    #[test]
    fn waypoint_reaches_targets_and_stays_in_bounds() {
        let mut rng = SimRng::seed_from(6);
        let area = Bounds::new(100.0, 100.0);
        let mut m = RandomWaypoint::new(area, 1.0, 5.0, 2.0, &mut rng);
        let start = m.position();
        for _ in 0..10_000 {
            m.advance(0.5, &mut rng);
            assert!(area.contains(m.position()));
        }
        assert!(m.position().distance(start) > 0.0 || start == m.position());
    }

    #[test]
    fn waypoint_moves_on_average() {
        let mut rng = SimRng::seed_from(7);
        let area = Bounds::new(100.0, 100.0);
        let mut m = RandomWaypoint::new(area, 2.0, 5.0, 0.0, &mut rng);
        let mut moved = 0.0;
        let mut last = m.position();
        for _ in 0..1_000 {
            m.advance(1.0, &mut rng);
            moved += m.position().distance(last);
            last = m.position();
        }
        assert!(moved > 1_000.0, "moved only {moved:.1} m");
    }

    #[test]
    fn random_walk_stays_in_bounds() {
        let mut rng = SimRng::seed_from(8);
        let area = Bounds::new(50.0, 80.0);
        let mut m = RandomWalk::new(area, 0.0, 10.0, 10.0, &mut rng);
        for _ in 0..20_000 {
            m.advance(0.5, &mut rng);
            assert!(area.contains(m.position()));
        }
    }

    #[test]
    fn stationary_never_moves() {
        let mut rng = SimRng::seed_from(9);
        let p = Vec2::new(7.0, 7.0);
        let mut m = Stationary::new(p);
        for _ in 0..100 {
            m.advance(10.0, &mut rng);
        }
        assert_eq!(m.position(), p);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn non_positive_dt_panics() {
        let mut rng = SimRng::seed_from(10);
        let mut m = RandomWalk::new(Bounds::new(10.0, 10.0), 0.0, 1.0, 5.0, &mut rng);
        m.advance(0.0, &mut rng);
    }

    #[test]
    fn zone_span_advance_stays_in_area_and_keeps_home_bias() {
        let mut rng = SimRng::seed_from(31);
        let g = grid();
        let mut m = ZoneMobility::new(g.clone(), ZoneId(12), 0.0, 5.0, 0.2, &mut rng);
        let mut at_home = 0usize;
        let spans = 4_000;
        for k in 0..spans {
            // Mixed span lengths, like wake-time catch-ups.
            let dt = match k % 4 {
                0 => 0.5,
                1 => 3.0,
                2 => 17.0,
                _ => 61.0,
            };
            m.advance_span(dt, &mut rng);
            assert!(
                g.area().contains(m.position()),
                "escaped at {}",
                m.position()
            );
            if m.current_zone() == ZoneId(12) {
                at_home += 1;
            }
        }
        // Same qualitative bias as the ticked model: far above the 4%
        // uniform share.
        let frac = at_home as f64 / spans as f64;
        assert!(frac > 0.10, "home fraction only {frac:.3}");
    }

    #[test]
    fn zone_span_advance_pins_node_with_zero_exit_probability() {
        let mut rng = SimRng::seed_from(32);
        let mut m = ZoneMobility::new(grid(), ZoneId(7), 1.0, 5.0, 0.0, &mut rng);
        for _ in 0..2_000 {
            m.advance_span(9.0, &mut rng);
            assert_eq!(m.current_zone(), ZoneId(7));
        }
    }

    #[test]
    fn zone_span_advance_is_deterministic_per_stream() {
        let run = |seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            let mut m = ZoneMobility::new(grid(), ZoneId(3), 0.0, 5.0, 0.2, &mut rng);
            for _ in 0..200 {
                m.advance_span(13.0, &mut rng);
            }
            m.position()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn walk_span_advance_stays_in_bounds() {
        let mut rng = SimRng::seed_from(33);
        let area = Bounds::new(50.0, 80.0);
        let mut m = RandomWalk::new(area, 0.0, 10.0, 10.0, &mut rng);
        for _ in 0..3_000 {
            m.advance_span(37.0, &mut rng);
            assert!(area.contains(m.position()));
        }
    }

    #[test]
    fn span_advance_defaults_forward_to_advance() {
        let mut rng = SimRng::seed_from(34);
        let area = Bounds::new(100.0, 100.0);
        let mut a = RandomWaypoint::new(area, 1.0, 5.0, 2.0, &mut rng);
        let mut b = a.clone();
        let mut rng_a = SimRng::seed_from(55);
        let mut rng_b = SimRng::seed_from(55);
        a.advance(40.0, &mut rng_a);
        b.advance_span(40.0, &mut rng_b);
        assert_eq!(a.position(), b.position(), "waypoint span == one advance");
        let mut s = Stationary::new(Vec2::new(3.0, 4.0));
        s.advance_span(1_000.0, &mut rng);
        assert_eq!(s.position(), Vec2::new(3.0, 4.0));
    }

    #[test]
    fn save_load_state_resumes_trajectories_bit_exactly() {
        // Drive a model, snapshot, restore into a fresh twin built from the
        // same construction params (its construction draws differ — load
        // overwrites them), and require identical onward trajectories when
        // both consume the same RNG stream.
        let mut rng = SimRng::seed_from(77);
        let mut zone = ZoneMobility::new(grid(), ZoneId(6), 0.0, 5.0, 0.2, &mut rng);
        for _ in 0..500 {
            zone.advance(0.5, &mut rng);
        }
        let saved = |m: &dyn MobilityModel| {
            let mut out = Vec::new();
            m.save_state(&mut out);
            out
        };
        let mut zone2 = ZoneMobility::new(grid(), ZoneId(6), 0.0, 5.0, 0.2, &mut rng);
        zone2.load_state(&saved(&zone)).unwrap();
        let mut ra = SimRng::seed_from(5);
        let mut rb = SimRng::seed_from(5);
        for _ in 0..500 {
            zone.advance(0.5, &mut ra);
            zone2.advance(0.5, &mut rb);
            assert_eq!(zone.position(), zone2.position());
        }

        let area = Bounds::new(100.0, 100.0);
        let mut wp = RandomWaypoint::new(area, 1.0, 5.0, 2.0, &mut rng);
        wp.advance(33.0, &mut rng);
        let mut wp2 = RandomWaypoint::new(area, 1.0, 5.0, 2.0, &mut rng);
        wp2.load_state(&saved(&wp)).unwrap();
        let mut ra = SimRng::seed_from(6);
        let mut rb = SimRng::seed_from(6);
        for _ in 0..200 {
            wp.advance(1.0, &mut ra);
            wp2.advance(1.0, &mut rb);
            assert_eq!(wp.position(), wp2.position());
        }

        let mut walk = RandomWalk::new(area, 0.0, 10.0, 10.0, &mut rng);
        walk.advance_span(91.0, &mut rng);
        let mut walk2 = RandomWalk::new(area, 0.0, 10.0, 10.0, &mut rng);
        walk2.load_state(&saved(&walk)).unwrap();
        let mut ra = SimRng::seed_from(7);
        let mut rb = SimRng::seed_from(7);
        for _ in 0..200 {
            walk.advance(0.5, &mut ra);
            walk2.advance(0.5, &mut rb);
            assert_eq!(walk.position(), walk2.position());
        }

        let mut fixed = Stationary::new(Vec2::new(1.0, 2.0));
        assert!(saved(&fixed).is_empty());
        fixed.load_state(&[]).unwrap();
        assert!(fixed.load_state(&[1.0]).is_err());
    }

    #[test]
    fn zone_load_state_rejects_wrong_arity() {
        let mut rng = SimRng::seed_from(1);
        let mut m = ZoneMobility::new(grid(), ZoneId(0), 0.0, 5.0, 0.2, &mut rng);
        let err = m.load_state(&[1.0, 2.0]).unwrap_err();
        assert!(err.contains("7 state values"), "{err}");
    }

    #[test]
    fn load_state_rejects_states_the_model_cannot_be_in() {
        let mut rng = SimRng::seed_from(2);
        let mut zone = ZoneMobility::new(grid(), ZoneId(6), 0.0, 5.0, 0.2, &mut rng);
        let mut good = Vec::new();
        zone.save_state(&mut good);
        let before = zone.position();
        // Position, NaN, heading, speed, span margin.
        for (k, v) in [(0, 1e300), (1, f64::NAN), (2, 3.0), (4, 9.0), (6, 1e6)] {
            let mut bad = good.clone();
            bad[k] = v;
            assert!(zone.load_state(&bad).is_err(), "value {k} = {v} accepted");
            assert_eq!(zone.position(), before, "a rejected state was applied");
        }
        zone.load_state(&good).unwrap();

        let area = Bounds::new(100.0, 100.0);
        let mut wp = RandomWaypoint::new(area, 1.0, 5.0, 2.0, &mut rng);
        assert!(wp.load_state(&[50.0, 50.0, 500.0, 50.0, 2.0, 0.0]).is_err());
        assert!(wp.load_state(&[50.0, 50.0, 60.0, 50.0, 2.0, -1.0]).is_err());
        let mut walk = RandomWalk::new(area, 0.0, 10.0, 10.0, &mut rng);
        assert!(walk.load_state(&[-1.0, 50.0, 1.0, 0.0, 2.0, 5.0]).is_err());
        assert!(walk.load_state(&[50.0, 50.0, 0.0, 0.0, 2.0, 5.0]).is_err());
    }

    /// Drives `leased` through `ticks` ticks of `dt` using the coast-lease
    /// protocol (grant → accumulate externally → settle) while `pure`
    /// advances every tick, and requires bit-identical positions and RNG
    /// consumption throughout.
    fn assert_lease_matches_pure(
        leased: &mut dyn MobilityModel,
        pure: &mut dyn MobilityModel,
        dt: f64,
        ticks: usize,
        seed: u64,
    ) {
        let mut rng_l = SimRng::seed_from(seed);
        let mut rng_p = SimRng::seed_from(seed);
        let mut pos = leased.position();
        let mut disp = Vec2::ZERO;
        let mut left = 0u32;
        let mut pending = 0u32;
        for tick in 0..ticks {
            if left > 0 {
                pos += disp;
                left -= 1;
                pending += 1;
            } else {
                leased.tick_settle(dt, pending, pos);
                pending = 0;
                leased.advance(dt, &mut rng_l);
                pos = leased.position();
                (disp, left) = leased.tick_grant(dt);
            }
            pure.advance(dt, &mut rng_p);
            let want = pure.position();
            assert!(
                pos.x.to_bits() == want.x.to_bits() && pos.y.to_bits() == want.y.to_bits(),
                "tick {tick}: leased {pos:?} != pure {want:?}"
            );
        }
    }

    #[test]
    fn zone_coast_lease_is_bit_identical_to_per_tick_advance() {
        for seed in [3u64, 17, 52, 99] {
            let mut rng = SimRng::seed_from(seed);
            let mut a = ZoneMobility::new(grid(), ZoneId(12), 0.0, 5.0, 0.2, &mut rng);
            let mut b = a.clone();
            assert_lease_matches_pure(&mut a, &mut b, 0.025, 40_000, seed ^ 0xA5);
        }
    }

    #[test]
    fn walk_coast_lease_is_bit_identical_to_per_tick_advance() {
        for seed in [5u64, 21, 64] {
            let mut rng = SimRng::seed_from(seed);
            let area = Bounds::new(80.0, 60.0);
            let mut a = RandomWalk::new(area, 0.0, 8.0, 12.0, &mut rng);
            let mut b = a.clone();
            assert_lease_matches_pure(&mut a, &mut b, 0.025, 40_000, seed ^ 0x5A);
        }
    }

    #[test]
    fn stationary_grants_unbounded_coast() {
        let m = Stationary::new(Vec2::new(3.0, 4.0));
        assert_eq!(m.tick_grant(0.5), (Vec2::ZERO, u32::MAX));
    }

    #[test]
    #[should_panic(expected = "was settled")]
    fn default_settle_rejects_phantom_ticks() {
        let mut rng = SimRng::seed_from(1);
        let mut m = RandomWaypoint::new(Bounds::new(10.0, 10.0), 1.0, 2.0, 0.0, &mut rng);
        m.tick_settle(0.5, 3, Vec2::ZERO);
    }

    #[test]
    fn models_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            let mut m = ZoneMobility::new(grid(), ZoneId(3), 0.0, 5.0, 0.2, &mut rng);
            for _ in 0..500 {
                m.advance(0.5, &mut rng);
            }
            m.position()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
