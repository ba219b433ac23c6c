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
//! A **hierarchical timing wheel** holds `(time, seq, payload)` entries
//! inline: six levels of 64 slots at a ~1 ms base granularity (each level
//! 64× coarser than the one below), with a small overflow heap for the rare
//! event further out than the wheel's ~800-day span. The simulator's event
//! mix is dominated by short-horizon MAC timers, which land in the bottom
//! two levels and cost O(1) to file and O(1) amortized to pop; a binary heap
//! pays O(log n) with a cache miss per comparison on the same workload.
//!
//! Timestamps sharing a granule are ordered by an explicit sort on
//! `(time, seq)` when their bucket is opened, so the pop order — and
//! therefore every simulation outcome — is bit-for-bit that of a binary
//! heap keyed on `(time, seq)`. A differential property test in
//! `tests/properties.rs` checks the wheel against such a heap.
//!
//! Nothing is ever cancelled: the engine retires a superseded timer by
//! bumping its node's epoch and skips the stale event when it fires.
//!
//! Two layout rules keep memory and resume cost flat:
//!
//! * a level ≥ 1 bucket's buffer is released when its cascade empties it,
//!   since each one fills at most once per pass of the level above;
//! * the open granule is kept ascending and served from the front, so an
//!   arrival that sorts last in it — thousands of same-instant timeouts,
//!   or a restore replaying the pending events in firing order — is
//!   appended in O(1).

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled event.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap but the overflow must yield the
        // earliest event; equal instants fire in scheduling (seq) order.
        other.key().cmp(&self.key())
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
    /// Number of pending events.
    len: usize,
    /// Total events popped over the queue's lifetime (for throughput
    /// reporting).
    popped: u64,
    next_seq: u64,
    now: SimTime,
    /// The wheel: per-level slot buckets, in firing order only per granule
    /// (each bucket is sorted when it reaches the current granule).
    levels: Box<[[Vec<Entry<E>>; SLOTS]; LEVELS]>,
    /// Per-level occupancy bitmap: bit `s` set iff `levels[l][s]` is
    /// non-empty. Slots in use are always strictly ahead of the wheel
    /// cursor at their level, so "next slot" is a plain `trailing_zeros`.
    occ: [u64; LEVELS],
    /// Events beyond the wheel span, ordered by `(at, seq)`.
    overflow: BinaryHeap<Entry<E>>,
    /// The opened current granule in `(at, seq)` order, served from the
    /// front. Late arrivals for it are inserted in order.
    cur: VecDeque<Entry<E>>,
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
            len: 0,
            popped: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            levels: Box::new(std::array::from_fn(|_| std::array::from_fn(|_| Vec::new()))),
            occ: [0; LEVELS],
            overflow: BinaryHeap::new(),
            cur: VecDeque::new(),
            base: 0,
        }
    }

    /// The current simulation instant (the firing time of the most recently
    /// popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of scheduled events not yet popped.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.file(Entry { at, seq, payload });
        self.len += 1;
    }

    /// Schedules `payload` after the relative delay `after`.
    pub fn schedule_after(&mut self, after: SimDuration, payload: E) {
        let at = self.now + after;
        self.schedule_at(at, payload);
    }

    /// Files an entry into the wheel structure: the open granule, a wheel
    /// level, or the overflow heap.
    fn file(&mut self, e: Entry<E>) {
        let tg = e.at.ticks() >> GRAN_BITS;
        if tg <= self.base {
            // The entry's granule is already open (or the wheel has been
            // positioned past it by a peek): insert it in order. An entry
            // that sorts last — the usual case — moves no other entry.
            let pos = self.cur.partition_point(|x| x.key() < e.key());
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
    /// wheel, overflow).
    fn advance(&mut self) -> bool {
        debug_assert!(self.cur.is_empty(), "advance with unserved cur");
        loop {
            if !self.cur.is_empty() {
                return true;
            }
            let Some(level) = (0..LEVELS).find(|&l| self.occ[l] != 0) else {
                let Some(head) = self.overflow.peek() else {
                    return false;
                };
                // The wheel drained: jump straight to the overflow head's
                // block and pull in everything that now fits.
                self.base = head.at.ticks() >> GRAN_BITS;
                self.migrate_overflow();
                continue;
            };
            // Occupied slots are strictly ahead of the cursor at their
            // level, so the lowest set bit is the next one to fire.
            let slot = u64::from(self.occ[level].trailing_zeros());
            self.occ[level] &= !(1 << slot);
            if level == 0 {
                // Open the granule: advance the cursor onto it and serve its
                // bucket in firing order. The bucket keeps its buffer, since
                // level-0 slots refill every 64 granules.
                self.base = (self.base & !(SLOTS as u64 - 1)) | slot;
                let bucket = &mut self.levels[0][slot as usize];
                bucket.sort_unstable_by_key(Entry::key);
                self.cur.extend(bucket.drain(..));
                return true;
            }
            // Cascade: advance the cursor to the slot's span start and
            // redistribute its bucket into the levels below (entries whose
            // lower digits are all zero land directly in `cur`). The
            // emptied buffer is dropped, not kept for the slot's next pass.
            let shift = SLOT_BITS * level as u32;
            let upper = (self.base >> (shift + SLOT_BITS)) << (shift + SLOT_BITS);
            self.base = upper | slot << shift;
            for e in std::mem::take(&mut self.levels[level][slot as usize]) {
                self.file(e);
            }
        }
    }

    /// Pops the earliest event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.cur.is_empty() && !self.advance() {
            return None;
        }
        let e = self
            .cur
            .pop_front()
            .expect("an opened granule is non-empty");
        debug_assert!(e.at >= self.now, "event time regression");
        self.now = e.at;
        self.popped += 1;
        self.len -= 1;
        Some((e.at, e.payload))
    }

    /// The instant of the next event without popping it.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.cur.is_empty() && !self.advance() {
            return None;
        }
        self.cur.front().map(|e| e.at)
    }

    /// The next event, if its granule is already open, without popping it
    /// or moving the wheel.
    ///
    /// `Some` is exactly what the next [`pop`](Self::pop) returns unless
    /// an earlier event is scheduled first. `None` only means the next
    /// event, if any, still sits in a wheel slot or the overflow heap:
    /// finding it would advance the wheel, which needs `&mut self`. A
    /// caller can use this to start work for the next event — such as
    /// prefetching its data — while the current one is handled.
    #[must_use]
    pub fn lookahead(&self) -> Option<(SimTime, &E)> {
        self.cur.front().map(|e| (e.at, &e.payload))
    }

    /// Calls `f` on every pending event in firing order — exactly the
    /// order [`pop`](Self::pop) would serve them — for checkpointing.
    ///
    /// The wheel already orders its buckets: `cur` is sorted and lies at
    /// or before `base`; each level's occupied slots are ahead of the
    /// cursor, so ascending slots are ascending blocks, all later than
    /// every block of the level below; the overflow heap lies past the
    /// wheel span. Only each bucket needs sorting on its own.
    pub fn for_each_pending<'a>(&'a self, mut f: impl FnMut(SimTime, &'a E)) {
        let mut entries: Vec<&Entry<E>> = Vec::with_capacity(self.len);
        entries.extend(&self.cur);
        for bucket in self.levels.iter().flatten() {
            let start = entries.len();
            entries.extend(bucket);
            entries[start..].sort_unstable_by_key(|e| e.key());
        }
        let start = entries.len();
        entries.extend(self.overflow.iter());
        entries[start..].sort_unstable_by_key(|e| e.key());
        debug_assert!(entries.windows(2).all(|w| w[0].key() < w[1].key()));
        for e in entries {
            f(e.at, &e.payload);
        }
    }

    /// An empty queue resuming checkpointed state: the clock at `now` and
    /// the lifetime pop counter at `popped`.
    ///
    /// The caller then schedules the checkpointed events in firing order
    /// (as [`for_each_pending`](Self::for_each_pending) lists them). Fresh
    /// sequence numbers in list order keep same-instant events in their
    /// relative order, and events scheduled afterwards sort behind every
    /// restored one at the same instant — exactly the order the
    /// uninterrupted run would have used.
    #[must_use]
    pub fn restore(now: SimTime, popped: u64) -> Self {
        let mut q = Self::new();
        q.now = now;
        q.base = now.ticks() >> GRAN_BITS;
        q.popped = popped;
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    fn listed<E: Copy>(q: &EventQueue<E>) -> Vec<(SimTime, E)> {
        let mut out = Vec::new();
        q.for_each_pending(|at, &e| out.push((at, e)));
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), 3u32);
        q.schedule_at(SimTime::from_secs(1), 1u32);
        q.schedule_at(SimTime::from_secs(2), 2u32);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10u32 {
            q.schedule_at(t, i);
        }
        assert_eq!(drain(&mut q), (0..10).collect::<Vec<_>>());
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
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(2), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(1), ());
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
        assert_eq!(drain(&mut q), (0..8).collect::<Vec<_>>());
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
    fn cascaded_buckets_release_their_buffers() {
        // One event per level-1 slot: every cascade empties its bucket, and
        // the emptied buffer must not stay behind in the wheel.
        let mut q = EventQueue::new();
        let level1_span = 1u64 << (GRAN_BITS + SLOT_BITS);
        for k in 1..SLOTS as u64 {
            for i in 0..16 {
                q.schedule_at(SimTime::from_ticks(k * level1_span + (i << GRAN_BITS)), k);
            }
        }
        while q.pop().is_some() {}
        let retained: usize = q.levels[1..].iter().flatten().map(Vec::capacity).sum();
        assert_eq!(retained, 0, "cascaded buffers kept {retained} entries");
    }

    #[test]
    fn lookahead_serves_only_the_open_granule() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_ticks(5_000);
        let t2 = SimTime::from_ticks(5_100); // same ~1 ms granule as t1
        q.schedule_at(t2, "second");
        q.schedule_at(t1, "first");
        q.schedule_at(SimTime::from_secs(1), "later");
        // Nothing is open yet: finding the head would move the wheel.
        assert_eq!(q.lookahead(), None);
        assert_eq!(q.peek_time(), Some(t1));
        assert_eq!(q.lookahead(), Some((t1, &"first")));
        assert_eq!(q.pop(), Some((t1, "first")));
        assert_eq!(q.lookahead(), Some((t2, &"second")));
        // An earlier arrival in the open granule takes the lead at once.
        let t = SimTime::from_ticks(5_050);
        q.schedule_at(t, "cut in");
        assert_eq!(q.lookahead(), Some((t, &"cut in")));
        assert_eq!(q.pop(), Some((t, "cut in")));
        assert_eq!(q.pop(), Some((t2, "second")));
        // The next event sits in a later granule, which only a pop or a
        // peek opens.
        assert_eq!(q.lookahead(), None);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "later")));
    }

    #[test]
    fn pending_lists_events_in_pop_order() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        q.schedule_at(t2, "late");
        q.schedule_at(t1, "early");
        q.schedule_at(far_future(), "overflow");
        q.schedule_at(t1, "tied");
        assert_eq!(
            listed(&q),
            vec![
                (t1, "early"),
                (t1, "tied"),
                (t2, "late"),
                (far_future(), "overflow")
            ]
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
        let mut restored = EventQueue::restore(original.now(), original.popped());
        for (at, e) in listed(&original) {
            restored.schedule_at(at, e);
        }
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
}
