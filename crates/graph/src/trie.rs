//! A persistent radix trie: the map behind the delta overlay.

use std::sync::Arc;

/// A persistent (structurally shared) radix trie over `u32` keys.
///
/// Cloning is one `Arc` bump; [`Trie::entry`] copies only the root-to-leaf
/// path it walks (and only the nodes still shared with another clone), so a
/// batch touching `k` keys costs `O(k · height)` however large the map is.
/// The overlay keys it by node id — dense, so no hashing and no collision
/// handling, neighbouring ids share their path, and iteration is in
/// ascending id order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Trie<V> {
    root: Option<Arc<TrieNode<V>>>,
    /// Levels of nodes; the trie holds keys below `FANOUT^height`.
    height: u32,
}

/// Key bits consumed per trie level.
const TRIE_BITS: u32 = 5;
const TRIE_FANOUT: usize = 1 << TRIE_BITS;

/// One level of the trie: the lowest level holds the values, every level
/// above it holds nodes.
#[derive(Debug, Clone)]
enum TrieNode<V> {
    Branch([Option<Arc<TrieNode<V>>>; TRIE_FANOUT]),
    Leaves([Option<Arc<V>>; TRIE_FANOUT]),
}

impl<V: Clone + Default> Trie<V> {
    fn fits(&self, key: u32) -> bool {
        u64::from(key) >> (TRIE_BITS * self.height) == 0
    }

    #[inline]
    fn slot(key: u32, shift: u32) -> usize {
        (key >> shift) as usize & (TRIE_FANOUT - 1)
    }

    #[inline]
    pub(crate) fn get(&self, key: u32) -> Option<&V> {
        if !self.fits(key) {
            return None;
        }
        let mut at = self.root.as_deref()?;
        let mut shift = TRIE_BITS * self.height;
        loop {
            shift -= TRIE_BITS;
            match at {
                TrieNode::Branch(kids) => at = kids[Self::slot(key, shift)].as_deref()?,
                TrieNode::Leaves(values) => return values[Self::slot(key, shift)].as_deref(),
            }
        }
    }

    /// The value at `key`, inserted as `V::default()` if absent; unshares
    /// the path to it.
    pub(crate) fn entry(&mut self, key: u32) -> &mut V {
        if self.root.is_none() {
            self.height = 1;
        }
        while !self.fits(key) {
            let mut kids: [Option<Arc<TrieNode<V>>>; TRIE_FANOUT] = Default::default();
            kids[0] = self.root.take();
            self.root = Some(Arc::new(TrieNode::Branch(kids)));
            self.height += 1;
        }
        let mut shift = TRIE_BITS * self.height;
        let mut slot = &mut self.root;
        loop {
            shift -= TRIE_BITS;
            let at = slot.get_or_insert_with(|| {
                Arc::new(if shift == 0 {
                    TrieNode::Leaves(Default::default())
                } else {
                    TrieNode::Branch(Default::default())
                })
            });
            match Arc::make_mut(at) {
                TrieNode::Branch(kids) => slot = &mut kids[Self::slot(key, shift)],
                TrieNode::Leaves(values) => {
                    return Arc::make_mut(values[Self::slot(key, shift)].get_or_insert_default());
                }
            }
        }
    }

    /// Every entry, in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        let mut stack: Vec<(u32, &TrieNode<V>)> = Vec::new();
        stack.extend(self.root.as_deref().map(|root| (0, root)));
        let leaves = std::iter::from_fn(move || loop {
            let (prefix, at) = stack.pop()?;
            match at {
                TrieNode::Leaves(values) => return Some((prefix, values)),
                TrieNode::Branch(kids) => {
                    let kids = kids.iter().enumerate().rev();
                    stack.extend(kids.filter_map(|(i, kid)| {
                        Some(((prefix << TRIE_BITS) | i as u32, kid.as_deref()?))
                    }));
                }
            }
        });
        leaves.flat_map(|(prefix, values)| {
            let values = values.iter().enumerate();
            values.filter_map(move |(i, value)| {
                Some(((prefix << TRIE_BITS) | i as u32, value.as_deref()?))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trie_clones_share_and_diverge() {
        let mut a: Trie<u32> = Trie::default();
        assert!(a.get(0).is_none());
        for key in [0, 31, 32, 5000, 70_000] {
            *a.entry(key) = key + 1;
        }
        let b = a.clone();
        *a.entry(32) = 7;
        // Far above the current height: the trie grows, the clone does not.
        *a.entry(u32::MAX) = 9;
        assert_eq!(a.get(32), Some(&7));
        assert_eq!(b.get(32), Some(&33));
        assert_eq!(b.get(u32::MAX), None);
        assert_eq!(b.get(33), None);
        let keys = |t: &Trie<u32>| t.iter().map(|(n, &v)| (n, v)).collect::<Vec<_>>();
        assert_eq!(
            keys(&b),
            [(0, 1), (31, 32), (32, 33), (5000, 5001), (70_000, 70_001)]
        );
        assert_eq!(keys(&a).last(), Some(&(u32::MAX, 9)));
        assert_eq!(keys(&a).len(), 6);
    }
}
