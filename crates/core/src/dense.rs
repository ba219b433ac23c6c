//! Dense replacements for the engine's hot lookup structures.
//!
//! The original engine kept delivery de-duplication in a
//! `HashSet<MessageId>` and fault-degraded links in a
//! `HashMap<(NodeId, NodeId), f64>`. Both sit on per-frame paths, so at
//! thousands of nodes the hashing dominates. This module provides flat,
//! index-addressed equivalents:
//!
//! * [`DeliveredSet`] — a growable bitset keyed by the sequential
//!   [`MessageId`] space of the allocator (one bit per message ever
//!   generated).
//! * [`LinkDropTable`] — a triangular dense table over unordered node
//!   pairs, allocated lazily on the first per-pair fault so fault-free
//!   runs pay nothing.
//!
//! Neither changes any observable behaviour: both are drop-in
//! lookup-structure swaps, and the 12-golden determinism baseline holds
//! bit-for-bit with them active.

use crate::message::MessageId;
use dftmsn_radio::ids::NodeId;

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

/// Dense per-pair link-degradation table with lazy allocation.
///
/// Stores one `f64` per unordered node pair in a triangular layout
/// (`idx(a ≤ b) = b(b+1)/2 + a`), with NaN as the "no per-pair entry"
/// sentinel so lookups fall through to the run's global drop figure. The
/// backing array is only allocated when the first per-pair fault lands:
/// fault-free runs — including the whole scale tier — never touch it, and
/// [`LinkDropTable::is_empty`] stays a counter check on the hot path.
///
/// The triangular array is O(n²) in the node count, which is fine for the
/// fault scenarios that use per-pair degradation (tens of nodes) and
/// irrelevant elsewhere because of the lazy allocation.
#[derive(Debug, Default, Clone)]
pub struct LinkDropTable {
    nodes: usize,
    cells: Vec<f64>,
    entries: usize,
}

impl LinkDropTable {
    /// Creates an (unallocated) table for `nodes` nodes.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        LinkDropTable {
            nodes,
            cells: Vec::new(),
            entries: 0,
        }
    }

    fn idx(&self, a: NodeId, b: NodeId) -> usize {
        let (lo, hi) = if a.index() <= b.index() {
            (a.index(), b.index())
        } else {
            (b.index(), a.index())
        };
        assert!(hi < self.nodes, "node {hi} out of range ({})", self.nodes);
        hi * (hi + 1) / 2 + lo
    }

    /// Sets the drop probability of the unordered pair `a`–`b`, allocating
    /// the table on first use.
    pub fn set(&mut self, a: NodeId, b: NodeId, p: f64) {
        let i = self.idx(a, b);
        if self.cells.is_empty() {
            self.cells = vec![f64::NAN; self.nodes * (self.nodes + 1) / 2];
        }
        if self.cells[i].is_nan() {
            self.entries += 1;
        }
        self.cells[i] = p;
    }

    /// Removes the per-pair entry for `a`–`b`, if any.
    pub fn clear(&mut self, a: NodeId, b: NodeId) {
        let i = self.idx(a, b);
        if !self.cells.is_empty() && !self.cells[i].is_nan() {
            self.cells[i] = f64::NAN;
            self.entries -= 1;
        }
    }

    /// The per-pair entry for `a`–`b`, or `None` to fall back to the
    /// global figure.
    #[must_use]
    pub fn get(&self, a: NodeId, b: NodeId) -> Option<f64> {
        if self.entries == 0 {
            return None;
        }
        let v = self.cells[self.idx(a, b)];
        (!v.is_nan()).then_some(v)
    }

    /// True when no per-pair entry is set (the common, fault-free case).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The set per-pair entries as `(lo, hi, p)` triangular coordinates in
    /// index order, for checkpointing. Empty when unallocated.
    #[must_use]
    pub fn set_entries(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut out = Vec::with_capacity(self.entries);
        for hi in 0..self.nodes {
            for lo in 0..=hi {
                let v = match self.cells.get(hi * (hi + 1) / 2 + lo) {
                    Some(&v) => v,
                    None => break,
                };
                if !v.is_nan() {
                    out.push((NodeId(lo), NodeId(hi), v));
                }
            }
        }
        out
    }

    /// Rebuilds a table for `nodes` nodes from
    /// [`set_entries`](Self::set_entries) output. An empty entry list
    /// leaves the table unallocated, preserving the lazy fast path.
    #[must_use]
    pub fn from_set_entries(nodes: usize, entries: &[(NodeId, NodeId, f64)]) -> Self {
        let mut table = Self::new(nodes);
        for &(a, b, p) in entries {
            table.set(a, b, p);
        }
        table
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

    #[test]
    fn link_drop_table_is_lazy_and_symmetric() {
        let mut t = LinkDropTable::new(10);
        assert!(t.is_empty());
        assert_eq!(t.cells.capacity(), 0, "fault-free table must not allocate");
        assert_eq!(t.get(NodeId(3), NodeId(7)), None);

        t.set(NodeId(7), NodeId(3), 0.25);
        assert!(!t.is_empty());
        assert_eq!(t.get(NodeId(3), NodeId(7)), Some(0.25));
        assert_eq!(t.get(NodeId(7), NodeId(3)), Some(0.25));
        assert_eq!(t.get(NodeId(3), NodeId(4)), None);

        t.set(NodeId(7), NodeId(3), 0.5);
        assert_eq!(t.get(NodeId(3), NodeId(7)), Some(0.5));

        t.clear(NodeId(3), NodeId(7));
        assert!(t.is_empty());
        assert_eq!(t.get(NodeId(3), NodeId(7)), None);
    }

    #[test]
    fn link_drop_clear_on_empty_table_is_a_noop() {
        let mut t = LinkDropTable::new(4);
        t.clear(NodeId(0), NodeId(3));
        assert!(t.is_empty());
    }

    #[test]
    fn link_drop_self_pair_and_extremes_index_cleanly() {
        let mut t = LinkDropTable::new(5);
        t.set(NodeId(2), NodeId(2), 1.0);
        t.set(NodeId(0), NodeId(4), 0.1);
        t.set(NodeId(0), NodeId(0), 0.2);
        t.set(NodeId(4), NodeId(4), 0.3);
        assert_eq!(t.get(NodeId(2), NodeId(2)), Some(1.0));
        assert_eq!(t.get(NodeId(4), NodeId(0)), Some(0.1));
        assert_eq!(t.get(NodeId(0), NodeId(0)), Some(0.2));
        assert_eq!(t.get(NodeId(4), NodeId(4)), Some(0.3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn link_drop_rejects_out_of_range_nodes() {
        let mut t = LinkDropTable::new(3);
        t.set(NodeId(0), NodeId(3), 0.5);
    }
}
