//! FTD-ordered data queue (paper Sec. 3.1.2).
//!
//! Messages sort by ascending FTD — the smaller the FTD, the more important
//! the copy — so the head is always the next message to transmit. Overflow
//! drops the tail (the most redundant copy); copies whose FTD exceeds a
//! threshold are purged outright.
//!
//! Ties on FTD break by message id, which makes equal-importance messages
//! FIFO. DIRECT and EPIDEMIC queues hold only FTD-0 copies and so run FIFO
//! in message-id order, dropping the newest on overflow. ZBR's is
//! FTD-ordered like OPT's: its single moved copy carries Eq. 2's receiver
//! FTD ([`Ftd::receiver_copy`]), so overflow evicts the highest-FTD copy.

use crate::ftd::Ftd;
use crate::message::{Message, MessageId};
use serde::{Deserialize, Serialize};

/// Result of [`FtdQueue::insert`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InsertOutcome {
    /// Stored; no eviction.
    Inserted,
    /// Stored; the queue was full and the given tail copy was evicted.
    InsertedEvicting(Message),
    /// Not stored: the queue was full and this copy was the least
    /// important one.
    RejectedFull,
    /// Not stored: a copy with an equal-or-smaller FTD is already queued.
    RejectedDuplicate,
    /// A duplicate copy existed with a larger FTD and was replaced by this
    /// more important copy.
    ReplacedDuplicate,
}

/// A bounded queue of message copies ordered by ascending FTD.
///
/// # Examples
///
/// ```
/// use dftmsn_core::ftd::Ftd;
/// use dftmsn_core::message::{Message, MessageId};
/// use dftmsn_core::queue::FtdQueue;
/// use dftmsn_radio::ids::NodeId;
/// use dftmsn_sim::time::SimTime;
///
/// let mut q = FtdQueue::new(10);
/// let m = Message::sensed(MessageId(0), NodeId(1), SimTime::ZERO);
/// q.insert(m.with_ftd(Ftd::new(0.5)));
/// q.insert(Message::sensed(MessageId(1), NodeId(1), SimTime::ZERO));
/// // The fresh (FTD 0) message jumps the 0.5 one.
/// assert_eq!(q.peek_head().unwrap().id, MessageId(1));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FtdQueue {
    /// Sorted ascending by `(ftd, id)`.
    items: Vec<Message>,
    capacity: usize,
}

impl FtdQueue {
    /// Creates an empty queue holding at most `capacity` messages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        FtdQueue {
            items: Vec::new(),
            capacity,
        }
    }

    /// Maximum number of stored messages.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no messages are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when the queue is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    fn sort_key(m: &Message) -> (f64, u64) {
        (m.ftd.value(), m.id.0)
    }

    fn insert_pos(&self, m: &Message) -> usize {
        let key = Self::sort_key(m);
        self.items.partition_point(|x| Self::sort_key(x) < key)
    }

    /// Inserts a message copy per the paper's rules: positional insert by
    /// FTD, drop-tail on overflow, and keep only the most important copy
    /// of a duplicate id.
    pub fn insert(&mut self, m: Message) -> InsertOutcome {
        if let Some(i) = self.items.iter().position(|x| x.id == m.id) {
            if m.ftd < self.items[i].ftd {
                self.items.remove(i);
                let pos = self.insert_pos(&m);
                self.items.insert(pos, m);
                return InsertOutcome::ReplacedDuplicate;
            }
            return InsertOutcome::RejectedDuplicate;
        }
        let pos = self.insert_pos(&m);
        if self.is_full() {
            if pos >= self.items.len() {
                // The newcomer would be the tail: it is the drop victim.
                return InsertOutcome::RejectedFull;
            }
            let evicted = self.items.pop().expect("full queue has a tail");
            self.items.insert(pos, m);
            return InsertOutcome::InsertedEvicting(evicted);
        }
        self.items.insert(pos, m);
        InsertOutcome::Inserted
    }

    /// The most important message (smallest FTD), if any.
    #[must_use]
    pub fn peek_head(&self) -> Option<&Message> {
        self.items.first()
    }

    /// Removes and returns the most important message.
    pub fn pop_head(&mut self) -> Option<Message> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items.remove(0))
        }
    }

    /// Removes the copy with the given id, if present.
    pub fn remove(&mut self, id: MessageId) -> Option<Message> {
        let i = self.items.iter().position(|x| x.id == id)?;
        Some(self.items.remove(i))
    }

    /// Whether a copy with the given id is stored.
    #[must_use]
    pub fn contains(&self, id: MessageId) -> bool {
        self.items.iter().any(|x| x.id == id)
    }

    /// Re-keys a stored copy's FTD (e.g. after Eq. 3) and restores order.
    ///
    /// Returns `false` if the id is not present.
    pub fn update_ftd(&mut self, id: MessageId, ftd: Ftd) -> bool {
        match self.remove(id) {
            Some(m) => {
                let pos = self.insert_pos(&m.with_ftd(ftd));
                self.items.insert(pos, m.with_ftd(ftd));
                true
            }
            None => false,
        }
    }

    /// Available buffer space for a message with FTD `f` (Sec. 3.2.2):
    /// empty slots plus slots held by copies with a strictly larger FTD,
    /// i.e. `capacity − |{m : m.ftd ≤ f}|`.
    #[must_use]
    pub fn available_space_for(&self, f: Ftd) -> usize {
        let le = self.items.partition_point(|x| x.ftd.value() <= f.value());
        self.capacity - le
    }

    /// Number of stored copies with FTD strictly below `bound` — the
    /// urgent-message count `K_F` of Eq. 5.
    #[must_use]
    pub fn count_ftd_below(&self, bound: Ftd) -> usize {
        self.items
            .partition_point(|x| x.ftd.value() < bound.value())
    }

    /// The buffer-urgency ratio αᵢ of Eq. 5: `K_F / K`.
    #[must_use]
    pub fn urgency(&self, bound: Ftd) -> f64 {
        self.count_ftd_below(bound) as f64 / self.capacity as f64
    }

    /// Iterates the stored copies in ascending FTD order.
    pub fn iter(&self) -> impl Iterator<Item = &Message> {
        self.items.iter()
    }

    /// Rebuilds a queue from checkpointed contents: `items` must already be
    /// in the queue's `(ftd, id)` ascending order (as produced by
    /// [`iter`](Self::iter)) and within `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, `items` exceeds it, or the order is
    /// violated — any of which means the checkpoint is corrupt.
    #[must_use]
    pub fn from_sorted_items(capacity: usize, items: Vec<Message>) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(items.len() <= capacity, "queue contents exceed capacity");
        for w in items.windows(2) {
            assert!(
                Self::sort_key(&w[0]) <= Self::sort_key(&w[1]),
                "queue contents out of order"
            );
        }
        FtdQueue { items, capacity }
    }

    #[cfg(test)]
    fn assert_sorted(&self) {
        for w in self.items.windows(2) {
            assert!(
                Self::sort_key(&w[0]) <= Self::sort_key(&w[1]),
                "queue order violated"
            );
        }
        assert!(self.items.len() <= self.capacity, "over capacity");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dftmsn_radio::ids::NodeId;
    use dftmsn_sim::time::SimTime;

    fn msg(id: u64, ftd: f64) -> Message {
        Message::sensed(MessageId(id), NodeId(0), SimTime::ZERO).with_ftd(Ftd::new(ftd))
    }

    #[test]
    fn orders_by_ascending_ftd() {
        let mut q = FtdQueue::new(10);
        q.insert(msg(1, 0.7));
        q.insert(msg(2, 0.1));
        q.insert(msg(3, 0.4));
        let order: Vec<u64> = q.iter().map(|m| m.id.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
        q.assert_sorted();
    }

    #[test]
    fn equal_ftd_is_fifo_by_id() {
        let mut q = FtdQueue::new(10);
        q.insert(msg(5, 0.0));
        q.insert(msg(2, 0.0));
        q.insert(msg(9, 0.0));
        let order: Vec<u64> = q.iter().map(|m| m.id.0).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn overflow_evicts_tail() {
        let mut q = FtdQueue::new(2);
        q.insert(msg(1, 0.5));
        q.insert(msg(2, 0.9));
        match q.insert(msg(3, 0.1)) {
            InsertOutcome::InsertedEvicting(evicted) => assert_eq!(evicted.id, MessageId(2)),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_head().unwrap().id, MessageId(3));
        q.assert_sorted();
    }

    #[test]
    fn overflow_rejects_least_important_newcomer() {
        let mut q = FtdQueue::new(2);
        q.insert(msg(1, 0.1));
        q.insert(msg(2, 0.2));
        assert_eq!(q.insert(msg(3, 0.9)), InsertOutcome::RejectedFull);
        assert_eq!(q.len(), 2);
        assert!(!q.contains(MessageId(3)));
    }

    #[test]
    fn duplicates_keep_the_smaller_ftd() {
        let mut q = FtdQueue::new(10);
        q.insert(msg(1, 0.5));
        assert_eq!(q.insert(msg(1, 0.8)), InsertOutcome::RejectedDuplicate);
        assert_eq!(q.insert(msg(1, 0.2)), InsertOutcome::ReplacedDuplicate);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_head().unwrap().ftd, Ftd::new(0.2));
    }

    #[test]
    fn pop_head_returns_most_important() {
        let mut q = FtdQueue::new(10);
        q.insert(msg(1, 0.7));
        q.insert(msg(2, 0.3));
        assert_eq!(q.pop_head().unwrap().id, MessageId(2));
        assert_eq!(q.pop_head().unwrap().id, MessageId(1));
        assert_eq!(q.pop_head(), None);
    }

    #[test]
    fn remove_by_id() {
        let mut q = FtdQueue::new(10);
        q.insert(msg(1, 0.7));
        q.insert(msg(2, 0.3));
        assert_eq!(q.remove(MessageId(1)).unwrap().id, MessageId(1));
        assert_eq!(q.remove(MessageId(1)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn update_ftd_reorders() {
        let mut q = FtdQueue::new(10);
        q.insert(msg(1, 0.1));
        q.insert(msg(2, 0.5));
        assert!(q.update_ftd(MessageId(1), Ftd::new(0.9)));
        assert_eq!(q.peek_head().unwrap().id, MessageId(2));
        assert!(!q.update_ftd(MessageId(42), Ftd::new(0.1)));
        q.assert_sorted();
    }

    #[test]
    fn available_space_counts_evictable_slots() {
        let mut q = FtdQueue::new(4);
        q.insert(msg(1, 0.2));
        q.insert(msg(2, 0.6));
        // One empty slot + the 0.6 copy are usable for an FTD-0.4 message.
        assert_eq!(q.available_space_for(Ftd::new(0.4)), 3);
        // For an FTD-0.9 message only empty slots count.
        assert_eq!(q.available_space_for(Ftd::new(0.9)), 2);
        // Boundary: a copy with exactly equal FTD is NOT evictable.
        assert_eq!(q.available_space_for(Ftd::new(0.6)), 2);
    }

    #[test]
    fn urgency_is_eq5_ratio() {
        let mut q = FtdQueue::new(4);
        q.insert(msg(1, 0.1));
        q.insert(msg(2, 0.2));
        q.insert(msg(3, 0.9));
        assert_eq!(q.count_ftd_below(Ftd::new(0.5)), 2);
        assert!((q.urgency(Ftd::new(0.5)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_queue_stays_within_capacity_under_churn() {
        let mut q = FtdQueue::new(5);
        for i in 0..100u64 {
            q.insert(msg(i, (i % 10) as f64 / 10.0));
            q.assert_sorted();
        }
        assert_eq!(q.len(), 5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FtdQueue::new(0);
    }
}
