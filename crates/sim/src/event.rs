//! The event queue at the heart of the discrete-event engine.
//!
//! [`EventQueue`] is a priority queue ordered by firing time with a
//! monotonically increasing sequence number as tiebreak, so events scheduled
//! at the same instant fire in scheduling order. That property is what keeps
//! runs deterministic: the simulator never depends on hash ordering or heap
//! internals.
//!
//! # Implementation
//!
//! Payloads live in a generation-tagged slab; the scheduling structure holds
//! only compact `(time, seq, slot, gen)` entries. Since PR 4 that structure
//! is a **hierarchical timing wheel** rather than a binary heap: six levels
//! of 64 slots at a ~1 ms base granularity (each level 64× coarser than the
//! one below), with a small overflow heap for the rare event further out
//! than the wheel's ~800-day span. The simulator's event mix is dominated by
//! short-horizon MAC timers, which land in the bottom two levels and cost
//! O(1) to file and O(1) amortized to pop; a binary heap paid O(log n) with
//! a cache miss per comparison on the same workload.
//!
//! Timestamps sharing a granule are ordered by an explicit sort on
//! `(time, seq)` when their bucket is opened, so the pop order — and
//! therefore every simulation outcome — is bit-for-bit identical to the
//! heap implementation, which is preserved as [`ReferenceEventQueue`] and
//! checked against the wheel by a differential property test.
//!
//! Cancellation ([`EventQueue::cancel`]) is an O(1) slot invalidation —
//! the wheel entry stays behind and is skipped when reached (lazy
//! deletion). A slot's generation is bumped every time the slot dies
//! (fires, is cancelled, or is cleared), so a stale [`EventToken`] can
//! never touch a recycled slot: tokens embed the generation they were
//! issued under.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifies a scheduled event so it can be cancelled later.
///
/// Encodes the slab slot and the slot generation the event was issued
/// under; a token outlives its event harmlessly (cancel just returns
/// `false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventToken(u64);

impl EventToken {
    fn new(slot: u32, gen: u32) -> Self {
        EventToken(u64::from(slot) << 32 | u64::from(gen))
    }

    fn slot(self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn generation(self) -> u32 {
        self.0 as u32
    }
}

/// One slab slot: the payload of a live event, tagged with a reuse
/// generation.
#[derive(Debug)]
struct Slot<E> {
    /// Bumped whenever the slot dies; tokens and wheel entries carrying an
    /// older generation are stale.
    gen: u32,
    /// `Some` while the event is live.
    payload: Option<E>,
}

/// Compact scheduling entry; the payload stays in the slab.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap but we want the earliest event;
        // equal instants fire in scheduling (seq) order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Ticks per level-0 granule: 2^10 µs ≈ 1 ms. Events inside one granule
/// are ordered by an explicit `(at, seq)` sort when the granule opens.
const GRAN_BITS: u32 = 10;
/// log2 of the slots per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `l` spans 64^(l+1) granules, so six levels cover
/// 2^36 granules ≈ 2^46 µs ≈ 800 days of simulated time from `base`.
const LEVELS: usize = 6;
/// Granule bits covered by the wheel; entries further out go to the
/// overflow heap until `base` reaches their 2^36-granule block.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// A deterministic future-event list.
///
/// # Examples
///
/// ```
/// use dftmsn_sim::event::EventQueue;
/// use dftmsn_sim::time::{SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime::from_secs(2), "second");
/// q.schedule_at(SimTime::from_secs(1), "first");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_secs(1), "first"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    /// Slots whose payload has died and may be reused.
    free: Vec<u32>,
    /// Number of live (schedulable, not cancelled) events.
    live: usize,
    /// Total events popped over the queue's lifetime (for throughput
    /// reporting).
    popped: u64,
    next_seq: u64,
    now: SimTime,
    /// The wheel: per-level slot buckets, in firing order only per granule
    /// (each bucket is sorted when it reaches the current granule).
    levels: Box<[[Vec<Entry>; SLOTS]; LEVELS]>,
    /// Per-level occupancy bitmap: bit `s` set iff `levels[l][s]` is
    /// non-empty. Slots in use are always strictly ahead of the wheel
    /// cursor at their level, so "next slot" is a plain `trailing_zeros`.
    occ: [u64; LEVELS],
    /// Events beyond the wheel span, ordered by `(at, seq)`.
    overflow: BinaryHeap<Entry>,
    /// The opened current granule, sorted by `(at, seq)`, served from
    /// `cur_idx`. Late arrivals for an already-opened granule are
    /// insertion-sorted into the unserved tail.
    cur: Vec<Entry>,
    cur_idx: usize,
    /// Wheel position in granules (`ticks >> GRAN_BITS`).
    base: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            popped: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            levels: Box::new(std::array::from_fn(|_| std::array::from_fn(|_| Vec::new()))),
            occ: [0; LEVELS],
            overflow: BinaryHeap::new(),
            cur: Vec::new(),
            cur_idx: 0,
            base: 0,
        }
    }

    /// The current simulation instant (the firing time of the most recently
    /// popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (not cancelled) scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events popped (fired) over the queue's lifetime.
    #[must_use]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Schedules `payload` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`now`](Self::now)); scheduling
    /// exactly at `now` is allowed and fires after already-queued events at
    /// the same instant.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventToken {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].payload = Some(payload);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("slab overflow");
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.file(Entry { at, seq, slot, gen });
        self.live += 1;
        EventToken::new(slot, gen)
    }

    /// Schedules `payload` after the relative delay `after`.
    pub fn schedule_after(&mut self, after: SimDuration, payload: E) -> EventToken {
        let at = self.now + after;
        self.schedule_at(at, payload)
    }

    /// Files an entry into the wheel structure: the open granule, a wheel
    /// level, or the overflow heap.
    fn file(&mut self, e: Entry) {
        let tg = e.at.ticks() >> GRAN_BITS;
        if tg <= self.base {
            // The entry's granule is already open (or the wheel has been
            // positioned past it by a peek): insertion-sort it into the
            // unserved tail of `cur`. Everything already served is in the
            // past, so the tail is the right region.
            let pos = self.cur_idx
                + self.cur[self.cur_idx..].partition_point(|x| (x.at, x.seq) < (e.at, e.seq));
            self.cur.insert(pos, e);
            return;
        }
        let diff = tg ^ self.base;
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(e);
            return;
        }
        let slot = ((tg >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level][slot].push(e);
        self.occ[level] |= 1 << slot;
    }

    /// Moves overflow entries whose times now fall inside the wheel span
    /// (same 2^36-granule block as `base`) into the wheel.
    fn migrate_overflow(&mut self) {
        while let Some(head) = self.overflow.peek() {
            let tg = head.at.ticks() >> GRAN_BITS;
            if (tg ^ self.base) >> WHEEL_BITS != 0 {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry exists");
            self.file(e);
        }
    }

    /// Repositions the wheel on the next occupied granule and opens it into
    /// `cur`. Returns `false` when no entries remain anywhere (`cur`,
    /// wheel, overflow). Stale (cancelled) entries count as present here;
    /// the serve loops skip them.
    fn advance(&mut self) -> bool {
        debug_assert!(self.cur_idx >= self.cur.len(), "advance with unserved cur");
        self.cur.clear();
        self.cur_idx = 0;
        loop {
            if self.cur_idx < self.cur.len() {
                return true;
            }
            let Some(level) = (0..LEVELS).find(|&l| self.occ[l] != 0) else {
                if self.overflow.is_empty() {
                    return false;
                }
                // The wheel drained: jump straight to the overflow head's
                // block and pull in everything that now fits.
                let head = self.overflow.peek().expect("overflow non-empty");
                self.base = head.at.ticks() >> GRAN_BITS;
                self.migrate_overflow();
                continue;
            };
            // Occupied slots are strictly ahead of the cursor at their
            // level, so the lowest set bit is the next one to fire.
            let slot = u64::from(self.occ[level].trailing_zeros());
            if level == 0 {
                // Open the granule: advance the cursor onto it and sort its
                // bucket into firing order.
                self.base = (self.base & !(SLOTS as u64 - 1)) | slot;
                self.occ[0] &= !(1 << slot);
                let mut bucket = std::mem::take(&mut self.levels[0][slot as usize]);
                self.cur.append(&mut bucket);
                self.levels[0][slot as usize] = bucket;
                self.cur.sort_unstable_by_key(|e| (e.at, e.seq));
                return true;
            }
            // Cascade: advance the cursor to the slot's span start and
            // redistribute its bucket into the levels below (entries whose
            // lower digits are all zero land directly in `cur`).
            let shift = SLOT_BITS * level as u32;
            let upper = (self.base >> (shift + SLOT_BITS)) << (shift + SLOT_BITS);
            self.base = upper | slot << shift;
            self.occ[level] &= !(1 << slot);
            let mut bucket = std::mem::take(&mut self.levels[level][slot as usize]);
            for e in bucket.drain(..) {
                self.file(e);
            }
            self.levels[level][slot as usize] = bucket;
        }
    }

    /// Cancels a previously scheduled event in O(1).
    ///
    /// Returns `true` if the event was still pending. The payload is
    /// dropped immediately; the wheel entry stays behind (lazy deletion)
    /// and is skipped when reached. Tokens for events that already fired,
    /// were already cancelled, or whose slot has since been reused by a
    /// newer generation all return `false`.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(slot) = self.slots.get_mut(token.slot() as usize) else {
            return false;
        };
        if slot.gen != token.generation() || slot.payload.is_none() {
            // Already fired / cancelled / recycled, or never ours.
            return false;
        }
        slot.payload = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(token.slot());
        self.live -= 1;
        true
    }

    /// Frees the slot behind an entry and returns its payload (the entry
    /// must be live: generations matched).
    fn retire(&mut self, entry: Entry) -> E {
        let slot = &mut self.slots[entry.slot as usize];
        let payload = slot.payload.take().expect("live slot has a payload");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(entry.slot);
        self.live -= 1;
        payload
    }

    /// Pops the earliest live event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            while self.cur_idx < self.cur.len() {
                let entry = self.cur[self.cur_idx];
                self.cur_idx += 1;
                if self.slots[entry.slot as usize].gen != entry.gen {
                    // Cancelled (slot died) or recycled under a newer token.
                    continue;
                }
                let payload = self.retire(entry);
                debug_assert!(entry.at >= self.now, "event time regression");
                self.now = entry.at;
                self.popped += 1;
                return Some((entry.at, payload));
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// The instant of the next live event without popping it.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            while self.cur_idx < self.cur.len() {
                let entry = self.cur[self.cur_idx];
                if self.slots[entry.slot as usize].gen != entry.gen {
                    self.cur_idx += 1;
                    continue;
                }
                return Some(entry.at);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Live entries in firing order.
    ///
    /// The wheel already orders its buckets: the unserved tail of `cur` is
    /// sorted and lies at or before `base`; each level's occupied slots are
    /// ahead of the cursor, so ascending slots are ascending blocks, all
    /// later than every block of the level below; the overflow heap lies
    /// past the wheel span. Only each bucket needs sorting on its own.
    fn live_entries(&self) -> Vec<Entry> {
        let is_live = |e: &&Entry| self.slots[e.slot as usize].gen == e.gen;
        let key = |e: &Entry| (e.at, e.seq);
        let mut entries: Vec<Entry> = Vec::with_capacity(self.live);
        entries.extend(self.cur[self.cur_idx..].iter().filter(is_live));
        for level in self.levels.iter() {
            for bucket in level.iter() {
                let start = entries.len();
                entries.extend(bucket.iter().filter(is_live));
                entries[start..].sort_unstable_by_key(key);
            }
        }
        let start = entries.len();
        entries.extend(self.overflow.iter().filter(is_live));
        entries[start..].sort_unstable_by_key(key);
        debug_assert!(entries.windows(2).all(|w| key(&w[0]) < key(&w[1])));
        entries
    }

    /// Calls `f` on every live pending event in firing order — the order
    /// of [`pending`](Self::pending) without collecting it.
    pub fn for_each_pending<'a>(&'a self, mut f: impl FnMut(SimTime, &'a E)) {
        for e in self.live_entries() {
            let payload = self.slots[e.slot as usize]
                .payload
                .as_ref()
                .expect("live slot has a payload");
            f(e.at, payload);
        }
    }

    /// Every live pending event as `(firing time, payload)` references in
    /// firing order — the queue's logical contents, for checkpointing.
    ///
    /// Cancelled entries (lazy-deleted wheel residue) are excluded. The
    /// order is exactly the order [`pop`](Self::pop) would serve them.
    #[must_use]
    pub fn pending(&self) -> Vec<(SimTime, &E)> {
        let mut out = Vec::with_capacity(self.live);
        self.for_each_pending(|at, e| out.push((at, e)));
        out
    }

    /// Rebuilds a queue from checkpointed state: the clock at `now`, the
    /// lifetime pop counter at `popped`, and `events` pending in firing
    /// order (as produced by [`pending`](Self::pending)).
    ///
    /// Fresh sequence numbers are assigned in list order, so same-instant
    /// events keep their relative order, and events scheduled after the
    /// restore sort behind every restored one at the same instant — exactly
    /// the order the uninterrupted run would have used. Tokens issued
    /// before the checkpoint are not revived.
    ///
    /// # Panics
    ///
    /// Panics if any event fires before `now`.
    #[must_use]
    pub fn restore(now: SimTime, popped: u64, events: Vec<(SimTime, E)>) -> Self {
        let mut q = Self::new();
        q.now = now;
        q.base = now.ticks() >> GRAN_BITS;
        q.popped = popped;
        for (at, payload) in events {
            q.schedule_at(at, payload);
        }
        q
    }

    /// Removes every pending event.
    ///
    /// Slots are invalidated, not deallocated, so tokens issued before the
    /// clear can never cancel events scheduled after it.
    pub fn clear(&mut self) {
        for level in self.levels.iter_mut() {
            for bucket in level.iter_mut() {
                bucket.clear();
            }
        }
        self.occ = [0; LEVELS];
        self.overflow.clear();
        self.cur.clear();
        self.cur_idx = 0;
        // Re-anchor the wheel at the clock so future schedules spread over
        // the levels instead of piling into the open granule.
        self.base = self.now.ticks() >> GRAN_BITS;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.payload.take().is_some() {
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(i as u32);
            }
        }
        self.live = 0;
    }
}

/// The pre-wheel event queue: a binary heap over the same generation-tagged
/// slab, kept as the ordering oracle for the timing wheel.
///
/// Semantics are identical to [`EventQueue`] — same token scheme, same
/// `(time, seq)` pop order, same lazy-deletion cancel — and a differential
/// property test in `tests/properties.rs` drives both through randomized
/// schedule/cancel/pop workloads asserting they never diverge. Scheduling
/// and popping cost O(log n) here versus the wheel's O(1); use this only
/// as a reference.
#[derive(Debug)]
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Entry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
    popped: u64,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceEventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            popped: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (not cancelled) scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events popped (fired) over the queue's lifetime.
    #[must_use]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Schedules `payload` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`now`](Self::now)).
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventToken {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].payload = Some(payload);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("slab overflow");
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.heap.push(Entry { at, seq, slot, gen });
        self.live += 1;
        EventToken::new(slot, gen)
    }

    /// Schedules `payload` after the relative delay `after`.
    pub fn schedule_after(&mut self, after: SimDuration, payload: E) -> EventToken {
        let at = self.now + after;
        self.schedule_at(at, payload)
    }

    /// Cancels a previously scheduled event in O(1) (lazy deletion).
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(slot) = self.slots.get_mut(token.slot() as usize) else {
            return false;
        };
        if slot.gen != token.generation() || slot.payload.is_none() {
            return false;
        }
        slot.payload = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(token.slot());
        self.live -= 1;
        true
    }

    fn retire(&mut self, entry: Entry) -> E {
        let slot = &mut self.slots[entry.slot as usize];
        let payload = slot.payload.take().expect("live slot has a payload");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(entry.slot);
        self.live -= 1;
        payload
    }

    /// Pops the earliest live event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.slots[entry.slot as usize].gen != entry.gen {
                continue;
            }
            let payload = self.retire(entry);
            debug_assert!(entry.at >= self.now, "event time regression");
            self.now = entry.at;
            self.popped += 1;
            return Some((entry.at, payload));
        }
        None
    }

    /// The instant of the next live event without popping it.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.slots[entry.slot as usize].gen != entry.gen {
                self.heap.pop();
                continue;
            }
            return Some(entry.at);
        }
        None
    }

    /// Removes every pending event (slots invalidated, not deallocated).
    pub fn clear(&mut self) {
        self.heap.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.payload.take().is_some() {
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(i as u32);
            }
        }
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), 3u32);
        q.schedule_at(SimTime::from_secs(1), 1u32);
        q.schedule_at(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10u32 {
            q.schedule_at(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ties_fire_in_scheduling_order_across_slot_reuse() {
        // Interleave cancellations so later events land in recycled slots
        // with *lower* slot indices; the tie order must still follow the
        // scheduling sequence, not slab layout.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        let a = q.schedule_at(t, 100u32); // slot 0
        let b = q.schedule_at(t, 101u32); // slot 1
        assert!(q.cancel(a));
        assert!(q.cancel(b));
        for i in 0..6u32 {
            q.schedule_at(t, i); // first two reuse slots 1, 0
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(4), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "a");
        q.pop();
        q.schedule_after(SimDuration::from_secs(5), "b");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(15));
    }

    #[test]
    fn cancelled_events_are_skipped() {
        let mut q = EventQueue::new();
        let keep = q.schedule_at(SimTime::from_secs(1), "keep");
        let drop = q.schedule_at(SimTime::from_secs(2), "drop");
        let _ = keep;
        assert!(q.cancel(drop));
        assert!(!q.cancel(drop), "double-cancel reports false");
        let all: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(all, vec!["keep"]);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(2), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn cancelling_a_fired_event_is_a_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        q.pop();
        assert!(!q.cancel(a), "token for fired event");
        assert_eq!(q.len(), 1, "len unaffected by stale cancel");
    }

    #[test]
    fn stale_token_cannot_cancel_a_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        assert!(q.cancel(a));
        // "b" reuses a's slot under a newer generation.
        let b = q.schedule_at(SimTime::from_secs(2), "b");
        assert!(!q.cancel(a), "stale token must be rejected across reuse");
        assert_eq!(q.len(), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_secs(2), "b"));
        assert!(!q.cancel(b), "token for fired event after reuse");
    }

    #[test]
    fn token_from_before_clear_cannot_touch_later_events() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "old");
        q.clear();
        assert!(q.is_empty());
        let b = q.schedule_at(SimTime::from_secs(2), "new");
        assert!(!q.cancel(a), "pre-clear token must be dead");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
    }

    #[test]
    fn cancelled_payloads_are_dropped_eagerly() {
        use std::rc::Rc;
        let marker = Rc::new(());
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), Rc::clone(&marker));
        assert_eq!(Rc::strong_count(&marker), 2);
        q.cancel(a);
        // O(1) cancel still frees the payload immediately, not at pop time.
        assert_eq!(Rc::strong_count(&marker), 1);
    }

    #[test]
    fn slots_are_reused_instead_of_growing() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            let t = SimTime::from_secs(round + 1);
            let a = q.schedule_at(t, 0u8);
            let b = q.schedule_at(t, 1u8);
            q.cancel(a);
            q.pop();
            let _ = b;
        }
        assert!(q.slots.len() <= 4, "slab grew to {} slots", q.slots.len());
    }

    #[test]
    fn popped_counts_fired_events_only() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        q.cancel(a);
        while q.pop().is_some() {}
        assert_eq!(q.popped(), 1);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    // ---------------- timing-wheel specific coverage ----------------

    /// One second past the wheel's span from time zero: forces the
    /// overflow heap.
    fn far_future() -> SimTime {
        SimTime::from_ticks((1u64 << (WHEEL_BITS + GRAN_BITS)) + TICKS_FAR_PAD)
    }
    const TICKS_FAR_PAD: u64 = 1_000_000;

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = EventQueue::new();
        let far = far_future();
        q.schedule_at(far, "far");
        q.schedule_at(SimTime::from_secs(1), "near");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "near")));
        assert_eq!(q.pop(), Some((far, "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_ties_keep_scheduling_order() {
        let mut q = EventQueue::new();
        let far = far_future();
        for i in 0..8u32 {
            q.schedule_at(far, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_reaches_into_overflow() {
        let mut q = EventQueue::new();
        let far = far_future();
        let a = q.schedule_at(far, "drop");
        q.schedule_at(far, "keep");
        assert!(q.cancel(a));
        let all: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(all, vec!["keep"]);
    }

    #[test]
    fn event_filed_after_base_jump_still_fires_first() {
        // A peek may position the wheel on a far-future granule before the
        // caller schedules something earlier (but >= now). The earlier
        // event must still fire first.
        let mut q = EventQueue::new();
        let far = far_future();
        q.schedule_at(far, "far");
        assert_eq!(q.peek_time(), Some(far)); // wheel jumps to far's block
        let near = SimTime::from_secs(3);
        q.schedule_at(near, "near");
        assert_eq!(q.pop(), Some((near, "near")));
        assert_eq!(q.pop(), Some((far, "far")));
    }

    #[test]
    fn cross_level_cascades_preserve_order() {
        // Spread events across every wheel level plus overflow, then pop:
        // strict (time, seq) order throughout.
        let mut q = EventQueue::new();
        let mut times: Vec<u64> = Vec::new();
        for level in 0..=LEVELS as u32 {
            // A time whose granule sits `64^level`-ish granules out.
            let ticks = 1u64 << (GRAN_BITS + SLOT_BITS * level);
            times.push(ticks);
            times.push(ticks + 1);
        }
        times.push(5); // sub-granule
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ticks(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_unstable_by_key(|&(t, i)| (t, i));
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.ticks(), e))).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn clear_drops_overflow_too() {
        let mut q = EventQueue::new();
        q.schedule_at(far_future(), ());
        q.schedule_at(SimTime::from_secs(1), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pending_lists_live_events_in_pop_order() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        q.schedule_at(t2, "late");
        let cancelled = q.schedule_at(t1, "gone");
        q.schedule_at(t1, "early");
        q.schedule_at(far_future(), "overflow");
        assert!(q.cancel(cancelled));
        let pending: Vec<(SimTime, &str)> = q.pending().into_iter().map(|(t, e)| (t, *e)).collect();
        assert_eq!(
            pending,
            vec![(t1, "early"), (t2, "late"), (far_future(), "overflow")]
        );
    }

    #[test]
    fn restore_replays_identically_to_the_original() {
        // Drive a queue halfway, snapshot it, and check the restored twin
        // pops the identical remaining stream — including ties and events
        // scheduled after the restore point.
        let mut original = EventQueue::new();
        let times = [5u64, 3, 3, 9, 900_000, 64_000_000, 3, 12, 9];
        for (i, &t) in times.iter().enumerate() {
            original.schedule_at(SimTime::from_ticks(t), i);
        }
        for _ in 0..3 {
            original.pop();
        }
        let snapshot: Vec<(SimTime, usize)> = original
            .pending()
            .into_iter()
            .map(|(t, e)| (t, *e))
            .collect();
        let mut restored = EventQueue::restore(original.now(), original.popped(), snapshot);
        assert_eq!(restored.now(), original.now());
        assert_eq!(restored.popped(), original.popped());
        assert_eq!(restored.len(), original.len());
        // Same-instant insert after the split must tie-break last in both.
        let at = SimTime::from_ticks(9);
        original.schedule_at(at, 99);
        restored.schedule_at(at, 99);
        loop {
            let (a, b) = (original.pop(), restored.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn reference_queue_matches_on_a_smoke_sequence() {
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceEventQueue::new();
        let times = [7u64, 3, 3, 900_000, 64_000_000, 3, 12];
        for (i, &t) in times.iter().enumerate() {
            let at = SimTime::from_ticks(t);
            assert_eq!(wheel.schedule_at(at, i), heap.schedule_at(at, i));
        }
        loop {
            assert_eq!(wheel.peek_time(), heap.peek_time());
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
