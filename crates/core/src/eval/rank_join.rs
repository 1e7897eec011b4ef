//! Incremental ranked join of conjunct answer streams.
//!
//! Multi-conjunct queries need their per-conjunct answer streams combined on
//! shared variables, with combined answers emitted in non-decreasing order of
//! *total* distance (the sum over conjuncts). This is the classic rank-join
//! setting (HRJN): pull answers from the input streams, join each new arrival
//! against everything already buffered from the other streams, and emit a
//! buffered combination once its total distance is provably minimal — i.e.
//! not larger than the lower bound any future combination could achieve.
//!
//! Variable names never reach the join: the prepared statement resolves them
//! to dense *slot* indices once, at prepare, and hands each input its subject
//! and object slot. Every partial result is a fixed-width
//! `Vec<Option<NodeId>>` indexed by slot, so a join attempt is a pairwise
//! merge of two small arrays — no string hashing, cloning or re-sorting per
//! attempt.
//!
//! The join is deliberately *deterministic in its inputs' contents*, never
//! in their timing: `pull_once` picks the live stream with the smallest
//! last-seen distance (first such stream on ties), and candidate emission
//! breaks distance ties on the slot bindings. Parallel conjunct evaluation
//! ([`crate::eval::parallel`]) exploits exactly this contract — it swaps
//! each input for a channel-fed [`AnswerStream`] produced on a worker
//! thread, and because each stream's *content and order* are unchanged, the
//! join's output sequence is bit-identical to sequential evaluation no
//! matter how the workers are scheduled.
//!
//! ## Buffer indexing
//!
//! Each conjunct binds at most two variables, so a new arrival probing
//! another input's buffer constrains at most that input's subject and/or
//! object slot. The buffers are therefore hash-indexed on those values
//! (subject, object, and the pair) and a probe touches only the buffered
//! bindings that *will* merge, instead of scanning the whole buffer and
//! rejecting mismatches one by one — dropping the quadratic per-arrival
//! factor that previously forced "big stream last" orderings on
//! multi-conjunct query sets. Probing order does not affect output order:
//! candidates are emitted from a heap ordered by `(distance, bindings)`.
//! Only genuinely unconstrained probes (no shared bound variable — a
//! cartesian combination) still visit every buffered binding.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use omega_graph::{FxHashMap, FxHashSet, NodeId};

use crate::answer::ConjunctAnswer;
use crate::error::Result;
use crate::eval::stats::EvalStats;
use crate::eval::AnswerStream;

/// One emitted join result: one entry per join variable slot. The answer
/// stream's head projection reads it through slot indices resolved at
/// prepare and never touches names.
pub type SlotBindings = Vec<Option<NodeId>>;

/// One input stream of the join.
pub struct JoinInput<'a> {
    stream: Box<dyn AnswerStream + 'a>,
    /// Slot of the conjunct's subject variable (`None` for a constant).
    subject_slot: Option<usize>,
    /// Slot of the conjunct's object variable (`None` for a constant).
    object_slot: Option<usize>,
    buffer: Vec<(SlotBindings, u32)>,
    /// Buffer positions indexed by the subject-slot value.
    by_subject: FxHashMap<NodeId, Vec<u32>>,
    /// Buffer positions indexed by the object-slot value (only populated
    /// when the object slot is distinct from the subject slot).
    by_object: FxHashMap<NodeId, Vec<u32>>,
    /// Buffer positions indexed by the (subject, object) value pair.
    by_both: FxHashMap<(NodeId, NodeId), Vec<u32>>,
    min_distance: Option<u32>,
    last_distance: u32,
    done: bool,
}

impl<'a> JoinInput<'a> {
    /// Wraps an answer stream together with the slots its answers bind.
    pub fn new(
        stream: Box<dyn AnswerStream + 'a>,
        subject_slot: Option<usize>,
        object_slot: Option<usize>,
    ) -> JoinInput<'a> {
        JoinInput {
            stream,
            subject_slot,
            object_slot,
            buffer: Vec::new(),
            by_subject: FxHashMap::default(),
            by_object: FxHashMap::default(),
            by_both: FxHashMap::default(),
            min_distance: None,
            last_distance: 0,
            done: false,
        }
    }

    fn bindings_of(&self, answer: &ConjunctAnswer, slot_count: usize) -> SlotBindings {
        let mut out: SlotBindings = vec![None; slot_count];
        if let Some(slot) = self.subject_slot {
            out[slot] = Some(answer.x);
        }
        if let Some(slot) = self.object_slot {
            // A conjunct like (?X, R, ?X) binds one variable; both endpoints
            // agree by construction, so the subject's binding stands.
            if out[slot].is_none() {
                out[slot] = Some(answer.y);
            }
        }
        out
    }

    /// Whether the object slot indexes separately from the subject slot.
    fn has_distinct_object_slot(&self) -> bool {
        match (self.subject_slot, self.object_slot) {
            (Some(s), Some(o)) => s != o,
            (None, Some(_)) => true,
            _ => false,
        }
    }

    /// Buffers `bindings` and updates the value indexes.
    fn buffer_bindings(&mut self, bindings: SlotBindings, distance: u32) {
        let pos = self.buffer.len() as u32;
        let subject = self.subject_slot.and_then(|s| bindings[s]);
        let object = if self.has_distinct_object_slot() {
            self.object_slot.and_then(|o| bindings[o])
        } else {
            None
        };
        if let Some(s) = subject {
            self.by_subject.entry(s).or_default().push(pos);
        }
        if let Some(o) = object {
            self.by_object.entry(o).or_default().push(pos);
            if let Some(s) = subject {
                self.by_both.entry((s, o)).or_default().push(pos);
            }
        }
        self.buffer.push((bindings, distance));
    }

    /// The buffered positions that can merge with `partial`: the tightest
    /// index the partial's bound slots allow, or the whole buffer when no
    /// shared variable is bound (a cartesian combination).
    ///
    /// Indexed probes return exactly the set a full scan would keep, so the
    /// candidate multiset — and with it the emission order — is unchanged.
    fn probe<'p>(&'p self, partial: &SlotBindings) -> Probe<'p> {
        let subject = self.subject_slot.and_then(|s| partial[s]);
        let object = if self.has_distinct_object_slot() {
            self.object_slot.and_then(|o| partial[o])
        } else {
            None
        };
        let positions = match (subject, object) {
            (Some(s), Some(o)) => Some(self.by_both.get(&(s, o))),
            (Some(s), None) => Some(self.by_subject.get(&s)),
            (None, Some(o)) => Some(self.by_object.get(&o)),
            (None, None) => None,
        };
        match positions {
            // An indexed probe with no entry matches nothing.
            Some(hits) => Probe::Indexed(hits.map(Vec::as_slice).unwrap_or(&[])),
            None => Probe::Full(self.buffer.len()),
        }
    }
}

/// The buffer positions selected by [`JoinInput::probe`].
enum Probe<'p> {
    /// Positions from a value index.
    Indexed(&'p [u32]),
    /// Every buffered binding (cartesian probe): `0 .. len`.
    Full(usize),
}

impl Probe<'_> {
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (indexed, full) = match self {
            Probe::Indexed(hits) => (Some(hits.iter().map(|&p| p as usize)), None),
            Probe::Full(len) => (None, Some(0..*len)),
        };
        indexed
            .into_iter()
            .flatten()
            .chain(full.into_iter().flatten())
    }
}

/// A buffered candidate combination.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Candidate {
    distance: u32,
    bindings: SlotBindings,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.distance
            .cmp(&other.distance)
            .then_with(|| self.bindings.cmp(&other.bindings))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Merges two slot-binding arrays, failing on a conflicting shared variable.
fn merge_bindings(a: &SlotBindings, b: &SlotBindings) -> Option<SlotBindings> {
    let mut out = a.clone();
    for (slot, value) in out.iter_mut().zip(b.iter()) {
        match (&slot, value) {
            (Some(existing), Some(incoming)) if existing != incoming => return None,
            (None, Some(incoming)) => *slot = Some(*incoming),
            _ => {}
        }
    }
    Some(out)
}

/// HRJN-style incremental rank join over conjunct answer streams.
pub struct RankJoin<'a> {
    inputs: Vec<JoinInput<'a>>,
    /// Number of variable slots the inputs bind between them.
    slot_count: usize,
    candidates: BinaryHeap<Reverse<Candidate>>,
    emitted: FxHashSet<SlotBindings>,
    /// LIMIT-`k` of the enclosing request, when the join's answers map 1:1
    /// onto the request's answers (every slot projected). Enables the
    /// top-k threshold below.
    limit: Option<usize>,
    /// Max-heap over the `k` smallest candidate distances seen so far; its
    /// root — once `k` candidates exist — is an upper bound τ on the
    /// distance of the `k`-th join answer. A stream whose cheapest possible
    /// future combination already exceeds τ cannot contribute to the first
    /// `k` answers and stops being pulled (which, with lazy sequential
    /// streams, stops its evaluator's expansion work outright).
    topk: BinaryHeap<u32>,
    /// Escape hatch: set when emission needs answers beyond τ after all
    /// (ties at τ excepted, capping uses strict `>`); clears every cap.
    capping_disabled: bool,
    stats: EvalStats,
}

impl<'a> RankJoin<'a> {
    /// Creates a join over the given inputs (one per conjunct) whose slots
    /// all lie below `slot_count`.
    pub fn new(inputs: Vec<JoinInput<'a>>, slot_count: usize) -> RankJoin<'a> {
        RankJoin {
            inputs,
            slot_count,
            candidates: BinaryHeap::new(),
            emitted: FxHashSet::default(),
            limit: None,
            topk: BinaryHeap::new(),
            capping_disabled: false,
            stats: EvalStats::default(),
        }
    }

    /// Installs the enclosing request's answer limit for top-k threshold
    /// pruning. Only sound when every join answer becomes a request answer
    /// (i.e. the head projects every slot, so no join answer is consumed by
    /// projection-level deduplication) — the caller checks that. Limits of
    /// zero are ignored (such requests never pull the join at all).
    pub fn set_limit(&mut self, limit: Option<usize>) {
        self.limit = limit.filter(|&k| k > 0);
    }

    /// Upper bound τ on the `k`-th join answer's distance, once known.
    fn threshold(&self) -> Option<u32> {
        if self.capping_disabled {
            return None;
        }
        let k = self.limit?;
        if self.topk.len() >= k {
            self.topk.peek().copied()
        } else {
            None
        }
    }

    /// Records a candidate's distance in the top-k tracker.
    fn record_candidate(&mut self, distance: u32) {
        let Some(k) = self.limit else { return };
        if self.topk.len() < k {
            self.topk.push(distance);
        } else if self.topk.peek().is_some_and(|&top| distance < top) {
            self.topk.pop();
            self.topk.push(distance);
        }
    }

    /// The cheapest total distance a *future* combination involving input
    /// `i`'s next answers could have.
    fn stream_bound(&self, i: usize) -> u32 {
        let mut bound = self.inputs[i].last_distance;
        for (j, other) in self.inputs.iter().enumerate() {
            if i != j {
                bound += other.min_distance.unwrap_or(0);
            }
        }
        bound
    }

    /// Whether input `i` is capped by the top-k threshold: pulling it
    /// further cannot contribute to the first `k` answers.
    fn is_capped(&self, i: usize, tau: Option<u32>) -> bool {
        tau.is_some_and(|t| self.stream_bound(i) > t)
    }

    /// Lower bound on the total distance of any combination not yet
    /// buffered from an uncapped stream. `None` when every stream is
    /// exhausted or capped (nothing at or below τ can still appear).
    fn future_lower_bound(&self, tau: Option<u32>) -> Option<u32> {
        let mut best: Option<u32> = None;
        for (i, input) in self.inputs.iter().enumerate() {
            if input.done || self.is_capped(i, tau) {
                continue;
            }
            let bound = self.stream_bound(i);
            best = Some(best.map_or(bound, |b: u32| b.min(bound)));
        }
        best
    }

    /// Pulls one answer from the most promising live stream and joins it
    /// against the other buffers. Returns `false` when every stream is done
    /// (or capped by the top-k threshold).
    fn pull_once(&mut self, tau: Option<u32>) -> Result<bool> {
        // Pull from the live, uncapped stream whose last distance is
        // smallest: it is the one holding the lower bound down.
        let Some(idx) = self
            .inputs
            .iter()
            .enumerate()
            .filter(|&(i, input)| !input.done && !self.is_capped(i, tau))
            .min_by_key(|(_, input)| input.last_distance)
            .map(|(i, _)| i)
        else {
            return Ok(false);
        };
        let answer = self.inputs[idx].stream.next_answer()?;
        match answer {
            None => {
                self.inputs[idx].done = true;
                Ok(true)
            }
            Some(answer) => {
                let bindings = self.inputs[idx].bindings_of(&answer, self.slot_count);
                let distance = answer.distance;
                {
                    let input = &mut self.inputs[idx];
                    input.last_distance = distance;
                    input.min_distance.get_or_insert(distance);
                    input.buffer_bindings(bindings.clone(), distance);
                }
                // Join the new arrival with every compatible combination of
                // the other inputs' buffers, probing each buffer through its
                // shared-variable hash index (full scan only for cartesian
                // combinations).
                let mut partials: Vec<(SlotBindings, u32)> = vec![(bindings, distance)];
                for (j, other) in self.inputs.iter().enumerate() {
                    if j == idx {
                        continue;
                    }
                    let mut next: Vec<(SlotBindings, u32)> = Vec::new();
                    for (partial, pd) in &partials {
                        for pos in other.probe(partial).iter() {
                            let (buffered, bd) = &other.buffer[pos];
                            if let Some(merged) = merge_bindings(partial, buffered) {
                                next.push((merged, pd + bd));
                            }
                        }
                    }
                    partials = next;
                    if partials.is_empty() {
                        break;
                    }
                }
                for (bindings, distance) in partials {
                    self.record_candidate(distance);
                    self.candidates
                        .push(Reverse(Candidate { distance, bindings }));
                }
                Ok(true)
            }
        }
    }

    /// The next combined answer as slot bindings, in non-decreasing
    /// total-distance order.
    pub fn get_next_slots(&mut self) -> Result<Option<(SlotBindings, u32)>> {
        loop {
            let tau = self.threshold();
            let bound = self.future_lower_bound(tau);
            let any_live = self.inputs.iter().any(|input| !input.done);
            let emit_now = match (self.candidates.peek(), bound) {
                // Safe against capped streams by construction: an uncapped
                // live stream has `stream_bound ≤ τ` by the definition of
                // capping, so `b ≤ τ` here and emission (`best ≤ b ≤ τ`)
                // can never release a candidate a capped stream — whose
                // future combinations all cost `> τ` — could still beat.
                (Some(Reverse(best)), Some(b)) => best.distance <= b,
                (Some(Reverse(best)), None) => {
                    if any_live && tau.is_some_and(|t| best.distance > t) {
                        // Every remaining live stream is capped, but the
                        // caller wants answers past the threshold (more
                        // join-level duplicates than expected): resume
                        // pulling everywhere rather than emit out of order.
                        self.capping_disabled = true;
                        continue;
                    }
                    true
                }
                (None, None) => {
                    if any_live {
                        // All live streams capped and no candidate buffered:
                        // the request outlived the top-k window.
                        self.capping_disabled = true;
                        continue;
                    }
                    return Ok(None);
                }
                (None, Some(_)) => false,
            };
            if emit_now {
                // `emit_now` is only reachable with a peeked candidate.
                let Some(Reverse(candidate)) = self.candidates.pop() else {
                    continue;
                };
                if self.emitted.insert(candidate.bindings.clone()) {
                    self.stats.answers += 1;
                    return Ok(Some((candidate.bindings, candidate.distance)));
                }
                continue;
            }
            if !self.pull_once(tau)? {
                // Everything exhausted (or capped); drain candidates.
                continue;
            }
        }
    }
}

impl RankJoin<'_> {
    /// Accumulated statistics (including all input streams).
    pub fn stats(&self) -> EvalStats {
        let mut stats = self.stats;
        for input in &self.inputs {
            stats += input.stream.stats();
        }
        stats
    }

    /// Total bindings currently buffered across all inputs — the join's
    /// memory footprint, mirrored into the resource governor's
    /// `join_buffer_entries` gauge by the service layer.
    pub fn buffered_entries(&self) -> usize {
        self.inputs.iter().map(|input| input.buffer.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted answer stream for unit-testing the join in isolation.
    struct Scripted {
        answers: Vec<ConjunctAnswer>,
        pos: usize,
    }

    impl Scripted {
        fn new(mut answers: Vec<(u32, u32, u32)>) -> Scripted {
            answers.sort_by_key(|&(_, _, d)| d);
            Scripted {
                answers: answers
                    .into_iter()
                    .map(|(x, y, d)| ConjunctAnswer {
                        x: NodeId(x),
                        y: NodeId(y),
                        distance: d,
                    })
                    .collect(),
                pos: 0,
            }
        }
    }

    impl AnswerStream for Scripted {
        fn next_answer(&mut self) -> Result<Option<ConjunctAnswer>> {
            let out = self.answers.get(self.pos).copied();
            self.pos += 1;
            Ok(out)
        }

        fn stats(&self) -> EvalStats {
            EvalStats::default()
        }
    }

    // Variables are slots here: X = 0, Y = 1, Z = 2, W = 3.
    const X: Option<usize> = Some(0);
    const Y: Option<usize> = Some(1);
    const Z: Option<usize> = Some(2);
    const W: Option<usize> = Some(3);

    fn input(
        answers: Vec<(u32, u32, u32)>,
        subject: Option<usize>,
        object: Option<usize>,
    ) -> JoinInput<'static> {
        JoinInput::new(Box::new(Scripted::new(answers)), subject, object)
    }

    /// Drains a join into `(bound slot values, distance)` rows.
    fn drain(mut join: RankJoin<'_>) -> Vec<(Vec<u32>, u32)> {
        let mut out = Vec::new();
        while let Some((bindings, d)) = join.get_next_slots().unwrap() {
            out.push((bindings.into_iter().flatten().map(|n| n.0).collect(), d));
        }
        out
    }

    #[test]
    fn joins_on_shared_variables() {
        // conjunct 1 binds (X, Y); conjunct 2 binds (Y, Z).
        let c1 = input(vec![(1, 10, 0), (2, 20, 0)], X, Y);
        let c2 = input(vec![(10, 100, 0), (30, 300, 0)], Y, Z);
        let results = drain(RankJoin::new(vec![c1, c2], 3));
        assert_eq!(results, vec![(vec![1, 10, 100], 0)]);
    }

    #[test]
    fn total_distance_is_summed_and_ordered() {
        let c1 = input(vec![(1, 10, 0), (1, 11, 1), (1, 12, 3)], X, Y);
        let c2 = input(vec![(10, 100, 0), (11, 100, 0), (12, 100, 1)], Y, Z);
        let distances: Vec<u32> = drain(RankJoin::new(vec![c1, c2], 3))
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        assert_eq!(distances, vec![0, 1, 4]);
    }

    #[test]
    fn cartesian_product_when_no_shared_variables() {
        let c1 = input(vec![(1, 10, 0), (2, 20, 1)], X, Y);
        let c2 = input(vec![(5, 50, 0)], Z, W);
        let results = drain(RankJoin::new(vec![c1, c2], 4));
        assert!(results.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn conflicting_bindings_are_rejected() {
        // Both conjuncts bind X and Y but disagree on Y for x=1.
        let c1 = input(vec![(1, 10, 0)], X, Y);
        let c2 = input(vec![(1, 99, 0)], X, Y);
        let mut join = RankJoin::new(vec![c1, c2], 2);
        assert!(join.get_next_slots().unwrap().is_none());
    }

    #[test]
    fn three_way_join() {
        let c1 = input(vec![(1, 2, 0)], X, Y);
        let c2 = input(vec![(2, 3, 1)], Y, Z);
        let c3 = input(vec![(3, 4, 2)], Z, W);
        let results = drain(RankJoin::new(vec![c1, c2, c3], 4));
        assert_eq!(results, vec![(vec![1, 2, 3, 4], 3)]);
    }

    #[test]
    fn duplicate_combinations_are_emitted_once() {
        // Two identical answers in stream 1 produce the same combined binding.
        let c1 = input(vec![(1, 10, 0), (1, 10, 2)], X, Y);
        let c2 = input(vec![(10, 100, 0)], Y, Z);
        let results = drain(RankJoin::new(vec![c1, c2], 3));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].1, 0, "the cheaper duplicate wins");
    }

    #[test]
    fn indexed_probing_matches_a_brute_force_join() {
        // Exercises every index shape at once: (X, Y) probes by subject
        // and/or object, (Y, Z) shares Y, (Z, Z) is a same-variable
        // conjunct (subject slot == object slot), and the result must equal
        // an independent nested-loop join.
        let c1_rows = vec![(1, 10, 0), (2, 20, 1), (1, 11, 2), (3, 10, 2)];
        let c2_rows = vec![(10, 5, 0), (11, 5, 1), (10, 6, 2), (20, 7, 3)];
        let c3_rows = vec![(5, 5, 0), (7, 7, 1), (6, 6, 4)];
        let c1 = input(c1_rows.clone(), X, Y);
        let c2 = input(c2_rows.clone(), Y, Z);
        let c3 = input(c3_rows.clone(), Z, Z);
        let got = drain(RankJoin::new(vec![c1, c2, c3], 3));
        // Distances must be non-decreasing.
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));

        let mut expected = std::collections::BTreeSet::new();
        for &(x, y1, d1) in &c1_rows {
            for &(y2, z1, d2) in &c2_rows {
                for &(z2, z3, d3) in &c3_rows {
                    if y1 == y2 && z1 == z2 && z2 == z3 {
                        expected.insert((d1 + d2 + d3, vec![x, y1, z1]));
                    }
                }
            }
        }
        // The rank join deduplicates identical bindings (cheapest first), so
        // compare against the min-distance combination per binding set.
        let mut best: std::collections::BTreeMap<Vec<u32>, u32> = std::collections::BTreeMap::new();
        for (d, b) in expected {
            best.entry(b).or_insert(d);
        }
        let got_set: std::collections::BTreeMap<Vec<u32>, u32> = got.into_iter().collect();
        assert_eq!(got_set, best);
    }

    #[test]
    fn top_k_capping_survives_duplicate_candidate_deflation() {
        // Duplicate candidates (same bindings, different distances — e.g. a
        // stream re-deriving one pair at a relaxed cost) consume top-k
        // tracker slots, so τ can undershoot the k-th *distinct* answer's
        // distance and every live stream can end up capped. The join must
        // then uncap and keep producing — bit-identically to an unlimited
        // join — rather than stall or emit out of order.
        let rows_a = vec![(1, 10, 0), (1, 10, 2), (2, 10, 3)];
        let rows_b = vec![(10, 100, 0), (10, 200, 40)];
        let run = |limit: Option<usize>, take: usize| {
            let a = input(rows_a.clone(), X, Y);
            let b = input(rows_b.clone(), Y, Z);
            let mut join = RankJoin::new(vec![a, b], 3);
            join.set_limit(limit);
            let mut out = Vec::new();
            while out.len() < take {
                match join.get_next_slots().unwrap() {
                    Some((bindings, d)) => out.push((bindings, d)),
                    None => break,
                }
            }
            out
        };
        let reference = run(None, 4);
        assert_eq!(reference.len(), 4, "the uncapped join finds all answers");
        for k in 1..=4 {
            assert_eq!(
                run(Some(k), k),
                reference[..k],
                "limit {k} must emit the same top-{k} prefix"
            );
        }
        // And a caller that asks *past* its declared limit still gets the
        // full, ordered sequence (the uncap escape hatch).
        assert_eq!(run(Some(2), 4), reference);
    }

    #[test]
    fn constant_only_conjunct_contributes_distance_but_no_bindings() {
        // A conjunct with two constants acts as a filter: it binds nothing
        // but its (possibly positive) distance still counts.
        let c1 = input(vec![(1, 10, 0)], X, None);
        let filter = input(vec![(7, 8, 2)], None, None);
        let results = drain(RankJoin::new(vec![c1, filter], 1));
        assert_eq!(results, vec![(vec![1], 2)]);
    }
}
