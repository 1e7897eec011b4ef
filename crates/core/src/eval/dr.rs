//! The distance dictionary `D_R`.
//!
//! The paper stores traversal tuples in a dictionary keyed by an
//! integer-boolean pair — the distance and whether the bucket holds 'final'
//! or 'non-final' tuples — whose values are linked lists manipulated only at
//! their head. Removal always takes a tuple from the minimum-key bucket,
//! preferring the final bucket at that key so that answers are returned
//! as early as possible (a refinement the paper credits with both speed-ups
//! and the completion of queries that previously exhausted memory).
//!
//! Keys are tiny bounded integers (sums of unit edit and relaxation
//! costs), which makes the classic *monotone bucket queue* the right
//! structure: a dense `Vec` of buckets indexed directly by key, with a
//! cursor remembering the smallest possibly-occupied key. `push` is an
//! array index plus a `Vec` push; `pop` takes from the cursor's bucket and
//! only advances the cursor over (cheap, usually few) empty buckets — no
//! tree rebalancing, no comparisons, no per-node allocation as in the
//! previous `BTreeMap` implementation. Within a bucket, `Vec` push/pop at
//! the tail is the O(1) "head" operation of the paper's linked lists.
//!
//! The key is supplied by the caller: `f = g + h'`, the tuple's accumulated
//! distance plus the compiled plan's admissible bound for the tuple's state
//! and node (`crate::eval::conjunct`, "Keys from the summary"; `h' ≡ 0`,
//! plain Dijkstra order, without cost guidance) — because `h'` is
//! consistent, `f` is non-decreasing along any derivation and the monotone
//! bucket queue applies unchanged. `pop` hands
//! back the key a tuple was popped at, so that a run can be re-queued at
//! it.
//!
//! Pathologically large keys (possible with user-configured costs) fall
//! back to a sorted overflow map so memory stays bounded by the number of
//! *distinct* keys, not their magnitude.

use std::collections::BTreeMap;

use crate::eval::tuple::Tuple;

/// Keys below this bound use the dense bucket array; anything larger
/// (only reachable with exotic cost configurations) goes to the overflow
/// map.
const DENSE_LIMIT: u32 = 4096;

/// One key's tuples by rank, each list popped LIFO and emptied before the
/// next: final tuples and runs (pending answers, when prioritised), then
/// everything else.
#[derive(Debug, Default)]
struct Bucket([Vec<Tuple>; 2]);

/// Indexed bucket priority queue over evaluation tuples.
#[derive(Debug, Default)]
pub struct DrQueue {
    /// `buckets[k]` holds the tuples pushed with key `k`.
    buckets: Vec<Bucket>,
    /// Lower bound on the smallest occupied key in `buckets`.
    cursor: usize,
    /// Tuples at keys `>= DENSE_LIMIT`, keyed `(key, rank)`.
    overflow: BTreeMap<(u32, u8), Vec<Tuple>>,
    len: usize,
    /// When false, final and non-final tuples share a bucket (ablation of the
    /// paper's final-tuple prioritisation).
    prioritize_final: bool,
    /// `pop` hands out nothing keyed above this (`u32::MAX`: no ceiling).
    pub ceiling: u32,
}

impl DrQueue {
    /// Creates an empty queue.
    pub fn new(prioritize_final: bool) -> Self {
        DrQueue {
            buckets: Vec::new(),
            cursor: 0,
            overflow: BTreeMap::new(),
            len: 0,
            prioritize_final,
            ceiling: u32::MAX,
        }
    }

    /// Adds a tuple under `key`, `f = g + h`.
    pub fn push(&mut self, tuple: Tuple, key: u32) {
        self.len += 1;
        let rank = usize::from(!(self.prioritize_final && tuple.is_final()));
        if key < DENSE_LIMIT {
            let idx = key as usize;
            if idx >= self.buckets.len() {
                self.buckets.resize_with(idx + 1, Bucket::default);
            }
            self.buckets[idx].0[rank].push(tuple);
            if idx < self.cursor {
                self.cursor = idx;
            }
        } else {
            self.overflow
                .entry((key, rank as u8))
                .or_default()
                .push(tuple);
        }
    }

    /// Removes a tuple from the minimum-key bucket, final tuples first, and
    /// returns it with its key; `None` once the queue is empty or, from a
    /// pop at or below the [`DrQueue::ceiling`], holds nothing at or below
    /// it. The ceiling is read only when the least key moves on.
    pub fn pop(&mut self) -> Option<(Tuple, u32)> {
        while self.cursor < self.buckets.len() {
            if let Some(tuple) = self.buckets[self.cursor].0.iter_mut().find_map(Vec::pop) {
                self.len -= 1;
                return Some((tuple, self.cursor as u32));
            }
            if self.cursor >= self.ceiling as usize {
                return None;
            }
            self.cursor += 1;
        }
        let (&key, bucket) = self.overflow.iter_mut().next()?;
        if key.0 > self.ceiling {
            return None;
        }
        let tuple = bucket.pop();
        if bucket.is_empty() {
            self.overflow.remove(&key);
        }
        if tuple.is_some() {
            self.len -= 1;
        }
        tuple.map(|tuple| (tuple, key.0))
    }

    /// The least key a tuple is queued at, `None` when none is.
    pub fn least_key(&mut self) -> Option<u32> {
        while self.cursor < self.buckets.len() {
            if self.buckets[self.cursor]
                .0
                .iter()
                .any(|rank| !rank.is_empty())
            {
                return Some(self.cursor as u32);
            }
            self.cursor += 1;
        }
        self.overflow.keys().next().map(|&(key, _)| key)
    }

    /// Number of queued tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::tuple::TupleKind;
    use omega_automata::StateId;
    use omega_graph::NodeId;

    fn tuple(distance: u32, is_final: bool, node: u32) -> Tuple {
        Tuple {
            start: NodeId(node),
            node: NodeId(node),
            state: StateId(0),
            distance,
            kind: if is_final {
                TupleKind::Final
            } else {
                TupleKind::Visit
            },
        }
    }

    /// Pushes under the tuple's own distance (plain Dijkstra keying).
    fn push_g(q: &mut DrQueue, t: Tuple) {
        q.push(t, t.distance);
    }

    /// Pops a tuple, without its key.
    fn pop(q: &mut DrQueue) -> Option<Tuple> {
        q.pop().map(|(t, _)| t)
    }

    #[test]
    fn pops_in_key_order() {
        let mut q = DrQueue::new(true);
        push_g(&mut q, tuple(3, false, 1));
        push_g(&mut q, tuple(1, false, 2));
        push_g(&mut q, tuple(2, false, 3));
        let order: Vec<u32> = std::iter::from_fn(|| pop(&mut q))
            .map(|t| t.distance)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn key_can_differ_from_distance() {
        // A* keying: a tuple with a small g but a large h pops after a tuple
        // whose f is smaller.
        let mut q = DrQueue::new(true);
        q.push(tuple(0, false, 1), 5); // g = 0, h = 5
        q.push(tuple(3, false, 2), 3); // g = 3, h = 0
        let popped = |q: &mut DrQueue| q.pop().map(|(t, key)| (t.node, key));
        assert_eq!(popped(&mut q), Some((NodeId(2), 3)));
        assert_eq!(popped(&mut q), Some((NodeId(1), 5)));
    }

    #[test]
    fn final_tuples_first_at_equal_key() {
        let mut q = DrQueue::new(true);
        push_g(&mut q, tuple(1, false, 1));
        push_g(&mut q, tuple(1, true, 2));
        push_g(&mut q, tuple(0, false, 3));
        assert_eq!(pop(&mut q).unwrap().node, NodeId(3));
        let next = pop(&mut q).unwrap();
        assert!(next.is_final(), "final tuple must be popped first");
        assert!(!pop(&mut q).unwrap().is_final());
    }

    #[test]
    fn prioritisation_can_be_disabled() {
        let mut q = DrQueue::new(false);
        push_g(&mut q, tuple(1, false, 1));
        push_g(&mut q, tuple(1, true, 2));
        // LIFO within the single bucket: the last pushed (final) comes first,
        // but only because of insertion order, not because of its rank.
        assert_eq!(pop(&mut q).unwrap().node, NodeId(2));
        assert_eq!(pop(&mut q).unwrap().node, NodeId(1));
    }

    #[test]
    fn lifo_within_a_bucket() {
        let mut q = DrQueue::new(true);
        push_g(&mut q, tuple(0, false, 1));
        push_g(&mut q, tuple(0, false, 2));
        push_g(&mut q, tuple(0, false, 3));
        assert_eq!(pop(&mut q).unwrap().node, NodeId(3));
        assert_eq!(pop(&mut q).unwrap().node, NodeId(2));
        assert_eq!(pop(&mut q).unwrap().node, NodeId(1));
    }

    #[test]
    fn cursor_rewinds_when_cheaper_tuples_arrive_late() {
        // A push below the smallest key popped so far goes before the rest.
        let mut q = DrQueue::new(true);
        push_g(&mut q, tuple(5, false, 1));
        assert_eq!(pop(&mut q).unwrap().distance, 5);
        push_g(&mut q, tuple(0, false, 2));
        push_g(&mut q, tuple(3, false, 3));
        assert_eq!(pop(&mut q).unwrap().distance, 0);
        assert_eq!(pop(&mut q).unwrap().distance, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_keys_are_ordered_with_dense_ones() {
        let mut q = DrQueue::new(true);
        push_g(&mut q, tuple(1_000_000, false, 1));
        push_g(&mut q, tuple(2, false, 2));
        push_g(&mut q, tuple(DENSE_LIMIT + 7, true, 3));
        assert_eq!(pop(&mut q).unwrap().distance, 2);
        let (t, key) = q.pop().unwrap();
        assert_eq!((t.distance, key), (DENSE_LIMIT + 7, DENSE_LIMIT + 7));
        assert!(t.is_final());
        assert_eq!(
            q.pop().unwrap().1,
            1_000_000,
            "an overflow key comes back too"
        );
        assert!(q.is_empty());
    }
}
