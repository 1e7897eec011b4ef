//! Batched feeding of initial nodes into `D_R`.
//!
//! For `(?X, R, ?Y)` conjuncts the paper retrieves the candidate start nodes
//! through coroutines that release them in batches (100 by default): new
//! batches are only pulled when `D_R` has run out of distance-0 tuples, so
//! queries answered from the first few start nodes never touch the rest of
//! the graph. [`InitialNodeFeed`] is the supply behind that; the evaluator
//! releases it through one seed cursor in `D_R`, a batch per pop
//! (`crate::eval::conjunct`, "Seeds as a cursor").
//!
//! A rank join's *dependent* input (`crate::eval::rank_join`, "Driver and
//! dependents") has no supply of its own: the candidate set only filters
//! the subject values the join hands it ([`InitialNodeFeed::hand`]), and
//! the feed releases those and nothing else.

use omega_graph::{GraphStore, NodeBitmap, NodeId};
use omega_ontology::Ontology;

use crate::error::Result;
use crate::eval::plan::{seed_nodes_for_label, union, ConjunctPlan, SeedSpec};

/// A lazily drained supply of seeds: `(node, initial distance)`.
///
/// Every seed is released as a *non-final* tuple: when the initial state is
/// final, `GetNext` itself enqueues the corresponding answer tuple while
/// processing the seed (line 13 of the paper's pseudocode), which both emits
/// the `(n, n)` answer and keeps expanding paths out of `n`.
#[derive(Debug, Default)]
pub struct InitialNodeFeed {
    /// The seeds of a constant-seeded conjunct, or those handed to a
    /// dependent, not yet released, in reverse release order (so `pop`
    /// yields the constant first, then its ancestors in increasing distance).
    fixed: Vec<(NodeId, u32)>,
    /// The candidate seeds of a `(?X, R, ?Y)` conjunct not released (or
    /// handed) yet: released in id order from `cursor` on, unless the feed
    /// is a `dependent`'s, which only filters what it is handed by them.
    candidates: NodeBitmap,
    cursor: u32,
    dependent: bool,
    batch_size: usize,
}

impl InitialNodeFeed {
    /// Builds the feed for a compiled conjunct; a `dependent` one releases
    /// only what it is handed.
    pub fn new(
        plan: &ConjunctPlan,
        graph: &GraphStore,
        ontology: &Ontology,
        batch_size: usize,
        dependent: bool,
    ) -> InitialNodeFeed {
        let (mut fixed, candidates) = match &plan.seeds {
            SeedSpec::Fixed(seeds) => (seeds.to_vec(), NodeBitmap::new()),
            SeedSpec::AllNodes => (Vec::new(), NodeBitmap::full(graph.node_count())),
            SeedSpec::MatchingInitial => {
                let sets = plan
                    .nfa
                    .initial_labels()
                    .map(|label| seed_nodes_for_label(graph, ontology, plan.inference, label));
                (Vec::new(), union(sets))
            }
        };
        fixed.reverse();
        InitialNodeFeed {
            fixed,
            candidates,
            cursor: 0,
            dependent,
            batch_size: batch_size.max(1),
        }
    }

    /// Whether any seed remains to be released: for a dependent, of those
    /// handed so far.
    pub fn has_more(&self) -> bool {
        !(self.fixed.is_empty() && (self.dependent || self.candidates.is_empty()))
    }

    /// Hands a dependent's feed `node` to release, if it is a candidate not
    /// handed before; anything else — no seed of this conjunct, a repeat,
    /// an id past the graph — and any hand to another feed is ignored.
    pub fn hand(&mut self, node: NodeId) {
        if self.dependent && self.candidates.remove(node) {
            self.fixed.push((node, 0));
        }
    }

    /// Releases the next `batch_size` seeds to `seed`, in release order,
    /// and stops at the first error. An empty feed releases nothing.
    pub fn release(&mut self, mut seed: impl FnMut(NodeId, u32) -> Result<()>) -> Result<()> {
        for _ in 0..self.batch_size {
            let next = self.fixed.pop().or_else(|| {
                if self.dependent {
                    return None;
                }
                let node = self.candidates.first_from(NodeId(self.cursor))?;
                self.candidates.remove(node);
                self.cursor = node.0 + 1;
                Some((node, 0))
            });
            let Some((node, distance)) = next else {
                break;
            };
            seed(node, distance)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::options::EvalOptions;
    use crate::eval::plan::compile_conjunct;
    use crate::query::parser::parse_query;

    fn chain_graph(n: usize) -> (GraphStore, Ontology) {
        let mut g = GraphStore::new();
        for i in 0..n {
            g.add_triple(&format!("n{i}"), "next", &format!("n{}", i + 1));
        }
        (g, Ontology::new())
    }

    fn feed_for(
        query: &str,
        graph: &GraphStore,
        ontology: &Ontology,
        batch: usize,
    ) -> InitialNodeFeed {
        let q = parse_query(query).unwrap();
        let plan =
            compile_conjunct(&q.conjuncts[0], graph, ontology, &EvalOptions::default()).unwrap();
        InitialNodeFeed::new(&plan, graph, ontology, batch, false)
    }

    /// Draws one whole batch.
    fn batch(feed: &mut InitialNodeFeed) -> Vec<NodeId> {
        let mut released = Vec::new();
        feed.release(|node, distance| {
            assert_eq!(distance, 0);
            released.push(node);
            Ok(())
        })
        .unwrap();
        released
    }

    /// Draws batches until one comes out empty.
    fn drain(feed: &mut InitialNodeFeed) -> Vec<NodeId> {
        std::iter::from_fn(|| Some(batch(feed)))
            .take_while(|b| !b.is_empty())
            .flatten()
            .collect()
    }

    #[test]
    fn fixed_seeds_come_out_in_order() {
        let (g, o) = chain_graph(3);
        let mut feed = feed_for("(?X) <- (n0, next, ?X)", &g, &o, 10);
        assert_eq!(batch(&mut feed), [g.node_by_label("n0").unwrap()]);
        assert!(!feed.has_more());
        assert!(batch(&mut feed).is_empty());
    }

    #[test]
    fn matching_initial_only_selects_nodes_with_the_edge() {
        let (mut g, o) = chain_graph(5);
        g.add_node("isolated");
        let mut feed = feed_for("(?X, ?Y) <- (?X, next, ?Y)", &g, &o, 100);
        // nodes n0..n4 have outgoing `next`; n5 and `isolated` do not.
        let released = batch(&mut feed);
        assert_eq!(released.len(), 5);
        assert!(!feed.has_more());
        assert!(released.iter().all(|&n| g.node_label(n).starts_with('n')));
    }

    #[test]
    fn matching_initial_feeds_release_exactly_the_naive_seed_set() {
        use omega_automata::TransitionLabel;
        use omega_graph::{Direction, GraphDelta};
        let (mut g, o) = chain_graph(150);
        for i in (0..150).step_by(7) {
            g.add_triple(&format!("n{i}"), "other", &format!("m{i}"));
            g.add_triple(&format!("n{i}"), "type", "Class");
        }
        g.add_node("isolated");
        g.freeze();
        let (live, _) = g
            .with_delta(
                GraphDelta::new()
                    .add("fresh", "next", "n3")
                    .add("m7", "other", "late"),
            )
            .unwrap();
        // Nodes with a live edge matching one of the plan's initial labels,
        // found node by node.
        let naive = |g: &GraphStore, plan: &ConjunctPlan| -> Vec<NodeId> {
            let fires = |n: NodeId, label: &TransitionLabel| {
                let dirs = [Direction::Outgoing, Direction::Incoming];
                match label {
                    TransitionLabel::Symbol {
                        label: Some(l),
                        inverse,
                        ..
                    } => g
                        .neighbors_iter(n, *l, dirs[usize::from(*inverse)])
                        .next()
                        .is_some(),
                    TransitionLabel::AnyForward => g.out_degree(n, None) > 0,
                    other => panic!("no {other} in these plans"),
                }
            };
            let labels: Vec<_> = plan.nfa.initial_labels().collect();
            g.node_ids()
                .filter(|&n| labels.iter().any(|l| fires(n, l)))
                .collect()
        };
        for graph in [&g, &live] {
            for text in [
                "(?X, ?Y) <- (?X, next, ?Y)",
                "(?X, ?Y) <- (?X, other-|next-, ?Y)",
                "(?X, ?Y) <- (?X, _.next, ?Y)",
                "(?X, ?Y) <- (?X, type|other, ?Y)",
            ] {
                let q = parse_query(text).unwrap();
                let plan =
                    compile_conjunct(&q.conjuncts[0], graph, &o, &EvalOptions::default()).unwrap();
                assert_eq!(plan.seeds, SeedSpec::MatchingInitial, "{text}");
                let mut feed = InitialNodeFeed::new(&plan, graph, &o, 64, false);
                assert_eq!(drain(&mut feed), naive(graph, &plan), "{text}");
            }
        }
    }

    #[test]
    fn batches_respect_batch_size() {
        let (g, o) = chain_graph(25);
        let mut feed = feed_for("(?X, ?Y) <- (?X, next, ?Y)", &g, &o, 10);
        assert_eq!(batch(&mut feed).len(), 10);
        assert_eq!(batch(&mut feed).len(), 10);
        assert_eq!(batch(&mut feed).len(), 5);
        assert!(!feed.has_more());
    }

    #[test]
    fn nullable_regex_feeds_every_node() {
        let (g, o) = chain_graph(4);
        let mut feed = feed_for("(?X, ?Y) <- (?X, next*, ?Y)", &g, &o, 100);
        assert_eq!(batch(&mut feed), g.node_ids().collect::<Vec<_>>());
        assert!(!feed.has_more());
    }

    #[test]
    fn a_dependent_feed_releases_its_handed_candidates_once() {
        let (g, o) = chain_graph(25);
        let node = |label: &str| g.node_by_label(label).unwrap();
        let q = parse_query("(?X, ?Y) <- (?X, next, ?Y)").unwrap();
        let plan = compile_conjunct(&q.conjuncts[0], &g, &o, &EvalOptions::default()).unwrap();
        let mut feed = InitialNodeFeed::new(&plan, &g, &o, 2, true);
        assert!(
            !feed.has_more() && batch(&mut feed).is_empty(),
            "nothing handed"
        );
        // n25 has no outgoing `next` (no seed), n20 comes twice, and an id
        // past the graph: only n20, n7 and n3 are released, the latest
        // handed first.
        for n in ["n20", "n25", "n7", "n20"].map(node) {
            feed.hand(n);
        }
        feed.hand(NodeId(10_000));
        assert_eq!(batch(&mut feed), ["n7", "n20"].map(node));
        feed.hand(node("n3"));
        feed.hand(node("n7"));
        assert_eq!(batch(&mut feed), [node("n3")]);
        assert!(!feed.has_more() && batch(&mut feed).is_empty());
    }

    #[test]
    fn an_independent_feed_ignores_what_it_is_handed() {
        let (g, o) = chain_graph(5);
        let mut feed = feed_for("(?X, ?Y) <- (?X, next, ?Y)", &g, &o, 2);
        feed.hand(g.node_by_label("n3").unwrap());
        assert_eq!(drain(&mut feed), g.node_ids().take(5).collect::<Vec<_>>());
        let mut fixed = feed_for("(?X) <- (n0, next, ?X)", &g, &o, 3);
        fixed.hand(g.node_by_label("n3").unwrap());
        assert_eq!(drain(&mut fixed), [g.node_by_label("n0").unwrap()]);
    }
}
