//! Evaluation tuples.

use omega_automata::StateId;
use omega_graph::NodeId;

/// What a [`Tuple`] in `D_R` stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TupleKind {
    /// A traversal frontier entry: visit `node` in `state`.
    Visit,
    /// A [`TupleKind::Visit`] a successor cursor released one key above its
    /// state's bound `g + h(state)`, because no transition that could fire
    /// at `node` keeps `h` (cost-guided evaluation; see "Keys that look one
    /// step ahead" in `crate::eval::conjunct`). It pops before the plain
    /// tuples of its key.
    Raised,
    /// A complete answer waiting to be emitted (the paper's 'final' tuple).
    Final,
    /// Cost-guided evaluation: a placeholder re-queued at the key of the
    /// tuple's cheapest positive-cost successor. When it pops, the
    /// positive-cost transitions (wildcards, edits, relaxations) of the
    /// original `(v, n, s)` tuple — whose `distance` this tuple still
    /// carries — are expanded; until then none of them occupy `D_R`.
    Deferred,
    /// The unread rest of one wide `Succ` run (more than
    /// [`crate::eval::succ::BLOCK`] neighbours over one label, for one
    /// automaton transition): the visits `(v, m, s, d)` for every `m` from
    /// arena position `node` up to the run's end marker. It sits at the key
    /// those visits would have had — one `state`, one `distance`, so one key
    /// — and each pop re-queues it there *first* and then releases the next
    /// block. `D_R` is LIFO within a key, so the block pops before the rest
    /// of its run, and a top-`k` that completes never reads the remainder.
    /// To the governor it is one live `D_R` entry, and its run one more per
    /// arena entry until the evaluator clears the arena.
    Cursor,
}

/// A traversal tuple `(v, n, s, d, f)` as described in Section 3.3 of the
/// paper: visiting node `n` in automaton state `s`, having started from node
/// `v`, at distance `d`; `kind` says whether it is a frontier entry, a
/// complete answer waiting to be emitted, or one of the evaluator's two
/// placeholders for successors not materialised yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// The node evaluation started from (`v`).
    pub start: NodeId,
    /// The node currently being visited (`n`); for a
    /// [`TupleKind::Cursor`], the arena position of its next neighbour.
    pub node: NodeId,
    /// The automaton state (`s`).
    pub state: StateId,
    /// Accumulated distance (`d`).
    pub distance: u32,
    /// What the tuple stands for.
    pub kind: TupleKind,
}

impl Tuple {
    /// A non-final seed tuple `(v, v, s0, d, false)`.
    pub fn seed(node: NodeId, state: StateId, distance: u32) -> Tuple {
        Tuple {
            start: node,
            node,
            state,
            distance,
            kind: TupleKind::Visit,
        }
    }

    /// Whether this is a pending answer rather than traversal work.
    pub fn is_final(&self) -> bool {
        self.kind == TupleKind::Final
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_starts_at_itself() {
        let t = Tuple::seed(NodeId(4), StateId(0), 2);
        assert_eq!(t.start, t.node);
        assert_eq!(t.distance, 2);
        assert!(!t.is_final());
    }

    #[test]
    fn a_tuple_stays_twenty_bytes() {
        // `D_R` holds these by the hundred thousand: the kind must pack into
        // the padding two flags used to occupy.
        assert_eq!(std::mem::size_of::<Tuple>(), 20);
    }
}
