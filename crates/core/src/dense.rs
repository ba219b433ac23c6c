//! A dense replacement for the engine's delivered-message lookup.
//!
//! The original engine kept delivery de-duplication in a
//! `HashSet<MessageId>`, which sits on a per-frame path, so at thousands of
//! nodes the hashing dominates. [`DeliveredSet`] is its flat,
//! index-addressed equivalent: a growable bitset keyed by the sequential
//! [`MessageId`] space of the allocator (one bit per message ever
//! generated). It changes no observable behaviour: it is a drop-in
//! lookup-structure swap, and the 12-golden determinism baseline holds
//! bit-for-bit with it active.

use crate::message::MessageId;

/// Growable bitset over the sequential [`MessageId`] space.
///
/// The message allocator hands out ids `0, 1, 2, …`, so membership is one
/// shift-and-mask into a flat word array instead of a hash probe. The set
/// grows on demand; `insert` far beyond the current end allocates the
/// intervening words (they are all ids already handed out anyway).
#[derive(Debug, Default, Clone)]
pub struct DeliveredSet {
    words: Vec<u64>,
    len: usize,
}

impl DeliveredSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `id`, returning `true` if it was not already present —
    /// the same contract as `HashSet::insert`.
    pub fn insert(&mut self, id: MessageId) -> bool {
        let (word, bit) = (id.0 as usize / 64, id.0 % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// True if `id` has been inserted.
    #[must_use]
    pub fn contains(&self, id: MessageId) -> bool {
        let (word, bit) = (id.0 as usize / 64, id.0 % 64);
        self.words.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Number of distinct ids inserted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw backing words, for checkpointing.
    #[must_use]
    pub fn raw_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a set from [`raw_words`](Self::raw_words) output; the
    /// member count is recomputed from the popcount.
    #[must_use]
    pub fn from_raw_words(words: Vec<u64>) -> Self {
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        DeliveredSet { words, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivered_set_matches_hashset_semantics() {
        let mut s = DeliveredSet::new();
        assert!(s.is_empty());
        assert!(s.insert(MessageId(0)));
        assert!(!s.insert(MessageId(0)));
        assert!(s.insert(MessageId(63)));
        assert!(s.insert(MessageId(64)));
        assert!(s.insert(MessageId(1_000)));
        assert!(!s.insert(MessageId(1_000)));
        assert_eq!(s.len(), 4);
        assert!(s.contains(MessageId(64)));
        assert!(!s.contains(MessageId(65)));
        assert!(!s.contains(MessageId(1_000_000)));
    }

    #[test]
    fn delivered_set_grows_sparsely_by_word() {
        let mut s = DeliveredSet::new();
        assert!(s.insert(MessageId(640)));
        assert_eq!(s.len(), 1);
        assert!(s.contains(MessageId(640)));
        for i in 0..640 {
            assert!(!s.contains(MessageId(i)), "phantom member {i}");
        }
    }
}
