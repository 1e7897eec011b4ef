//! Evaluation tuples.

use omega_automata::StateId;
use omega_graph::NodeId;

/// What a [`Tuple`] in `D_R` stands for.
///
/// The last three kinds are *runs*: `node` is an arena position, and the
/// tuple stands for every member from there to the run's end marker, with
/// its `start`, `state` and `distance` (see `crate::eval::conjunct`,
/// "Successors as cursors"). To the governor a run is one live `D_R` entry
/// and its members one each, until the arena is cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TupleKind {
    /// A traversal frontier entry: visit `node` in `state`.
    Visit,
    /// A complete answer waiting to be emitted (the paper's 'final' tuple).
    Final,
    /// A placeholder re-queued at the key of the tuple's cheapest
    /// positive-cost successor. When it pops, the
    /// positive-cost transitions (wildcards, edits, relaxations) of the
    /// original `(v, n, s)` tuple — whose `distance` this tuple still
    /// carries — are expanded; until then none of them occupy `D_R`.
    Deferred,
    /// The seed cursor: the initial nodes not released yet, queued once in
    /// the initial state at distance 0, the key every seed enters at. Each
    /// pop re-queues it *first*, while the feed has seeds, then releases
    /// the feed's next batch above it as visits (see
    /// `crate::eval::conjunct`, "Seeds as a cursor"). It holds no arena
    /// position and counts in no `EvalStats` field.
    Seeds,
    /// The unread rest of one wide `Succ` run (more than
    /// [`crate::eval::succ::BLOCK`] neighbours over one label, for one
    /// automaton transition), or the members of a block that belong a key
    /// higher, at the least key of its members. Each pop re-queues it at the
    /// key it popped at *first*, then handles the next block as a set.
    Cursor,
    /// The [`TupleKind::Deferred`] placeholders of one block's visits.
    DeferredRun,
    /// The [`TupleKind::Final`] tuples of one block's visits, each checked
    /// against the final annotation and `answers_R` as the run pops, one
    /// answer per pop.
    FinalRun,
}

/// A traversal tuple `(v, n, s, d, f)` as described in Section 3.3 of the
/// paper: visiting node `n` in automaton state `s`, having started from node
/// `v`, at distance `d`; `kind` says whether it is a frontier entry, a
/// complete answer waiting to be emitted, a placeholder for successors not
/// materialised yet, or a run of any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// The node evaluation started from (`v`).
    pub start: NodeId,
    /// The node currently being visited (`n`); for a run, the arena
    /// position of its next member.
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

    /// Whether this is a pending answer (or a run of them) rather than
    /// traversal work.
    pub fn is_final(&self) -> bool {
        matches!(self.kind, TupleKind::Final | TupleKind::FinalRun)
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
