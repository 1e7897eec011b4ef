//! Dense bitmap node sets.
//!
//! Sparksee stores its indexes as "maps plus associated bitmap vectors"
//! ([Martínez-Bazán et al., IDEAS 2012]); the Omega implementation relies on
//! "Sparksee set operations ... to maintain a distinct set of nodes" when
//! seeding evaluation (Section 3.3 of the paper). [`NodeBitmap`] is the
//! equivalent structure here: a dense bitset over node ids with the usual set
//! algebra.

use crate::ids::NodeId;

const WORD_BITS: usize = 64;

/// A set of [`NodeId`]s backed by a dense bitmap.
#[derive(Clone, Default)]
pub struct NodeBitmap {
    words: Vec<u64>,
    len: usize,
}

impl PartialEq for NodeBitmap {
    fn eq(&self, other: &Self) -> bool {
        // Capacities may differ (trailing zero words are not significant).
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for NodeBitmap {}

impl NodeBitmap {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with capacity for nodes `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        NodeBitmap {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            len: 0,
        }
    }

    /// The set of all nodes `0..count`.
    pub fn full(count: usize) -> Self {
        let mut words = vec![u64::MAX; count.div_ceil(WORD_BITS)];
        // The bits of the last word at and above `count` stay clear.
        let spare = words.len() * WORD_BITS - count;
        if let Some(last) = words.last_mut() {
            *last >>= spare;
        }
        NodeBitmap { words, len: count }
    }

    /// The words of the set, as [`NodeBitmap::from_words`] takes them.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The set whose word `w` holds the members `64·w .. 64·w + 63`, lowest
    /// id in the lowest bit.
    pub(crate) fn from_words(words: Vec<u64>) -> Self {
        let mut set = NodeBitmap { words, len: 0 };
        set.recount();
        set
    }

    /// The smallest member with an id `≥ from`.
    pub fn first_from(&self, from: NodeId) -> Option<NodeId> {
        let (w, b) = (from.index() / WORD_BITS, from.index() % WORD_BITS);
        let first = self.words.get(w)? & (u64::MAX << b);
        let rest = self.words[w + 1..].iter().copied();
        std::iter::once(first)
            .chain(rest)
            .zip(w..)
            .find(|&(word, _)| word != 0)
            .map(|(word, wi)| NodeId((wi * WORD_BITS + word.trailing_zeros() as usize) as u32))
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `node`, returning `true` if it was not already present.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (w, b) = (node.index() / WORD_BITS, node.index() % WORD_BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes `node`, returning `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (w, b) = (node.index() / WORD_BITS, node.index() % WORD_BITS);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            self.words[w] &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Whether `node` is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        let (w, b) = (node.index() / WORD_BITS, node.index() % WORD_BITS);
        self.words
            .get(w)
            .is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// In-place union with `other`.
    pub fn union_with(&mut self, other: &NodeBitmap) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
        self.recount();
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &NodeBitmap) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
        self.recount();
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &NodeBitmap) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= !other.words.get(i).copied().unwrap_or(0);
        }
        self.recount();
    }

    /// Returns the union of `self` and `other`.
    pub fn union(&self, other: &NodeBitmap) -> NodeBitmap {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns the intersection of `self` and `other`.
    pub fn intersection(&self, other: &NodeBitmap) -> NodeBitmap {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns `self \ other`.
    pub fn difference(&self, other: &NodeBitmap) -> NodeBitmap {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(NodeId((wi * WORD_BITS + bit) as u32))
                }
            })
        })
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    fn recount(&mut self) {
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }
}

impl std::fmt::Debug for NodeBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeBitmap {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut set = NodeBitmap::new();
        for n in iter {
            set.insert(n);
        }
        set
    }
}

impl Extend<NodeId> for NodeBitmap {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        for n in iter {
            self.insert(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> NodeBitmap {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeBitmap::new();
        assert!(s.insert(NodeId(5)));
        assert!(!s.insert(NodeId(5)));
        assert!(s.contains(NodeId(5)));
        assert!(!s.contains(NodeId(6)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(NodeId(5)));
        assert!(!s.remove(NodeId(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let s = set(&[100, 3, 64, 65, 0]);
        let got: Vec<u32> = s.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 3, 64, 65, 100]);
    }

    #[test]
    fn union_intersection_difference() {
        let a = set(&[1, 2, 3, 70]);
        let b = set(&[2, 3, 4, 200]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 4, 70, 200]));
        assert_eq!(a.intersection(&b), set(&[2, 3]));
        assert_eq!(a.difference(&b), set(&[1, 70]));
        assert_eq!(b.difference(&a), set(&[4, 200]));
    }

    #[test]
    fn set_operations_handle_different_capacities() {
        let small = set(&[1]);
        let large = set(&[1, 1000]);
        assert_eq!(small.union(&large).len(), 2);
        assert_eq!(large.intersection(&small), set(&[1]));
        assert_eq!(small.difference(&large), NodeBitmap::new());
    }

    #[test]
    fn clear_resets() {
        let mut s = set(&[1, 2, 3]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn full_holds_exactly_the_first_ids() {
        for count in [0, 1, 63, 64, 65, 130] {
            let s = NodeBitmap::full(count);
            assert_eq!(s.len(), count);
            let ids: Vec<u32> = s.iter().map(|n| n.0).collect();
            assert_eq!(ids, (0..count as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn first_from_finds_the_next_member() {
        let s = set(&[3, 64, 65, 200]);
        let next = |from: u32| s.first_from(NodeId(from)).map(|n| n.0);
        assert_eq!(next(0), Some(3));
        assert_eq!(next(3), Some(3));
        assert_eq!(next(4), Some(64));
        assert_eq!(next(65), Some(65));
        assert_eq!(next(66), Some(200));
        assert_eq!(next(201), None);
        assert_eq!(next(100_000), None);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let s = NodeBitmap::with_capacity(1000);
        assert!(s.is_empty());
        assert!(!s.contains(NodeId(999)));
    }
}
