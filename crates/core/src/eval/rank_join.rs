//! Incremental ranked join of conjunct answer streams.
//!
//! Multi-conjunct queries combine their conjunct streams on shared
//! variables, in non-decreasing *total* distance: each arrival is joined
//! with everything buffered from the other streams, and a combination is
//! emitted once no future one can be cheaper.
//!
//! Variable names never reach the join: the prepared statement resolves them
//! to dense *slot* indices at prepare and hands each input its subject and
//! object slot. A combination is a *row*: `slot_count` node ids, `u32::MAX`
//! in the slots no input has bound yet.
//!
//! ## Layout
//!
//! A join that must exhaust its inputs buffers tens of thousands of answers,
//! so nothing owns a heap block per row; teardown frees a handful of vectors.
//!
//! * **Buffers.** An arrival binds at most two slots, so each input keeps
//!   its [`ConjunctAnswer`]s — `(x, y, distance)` — in one `Vec`.
//! * **Indexes.** An input is hash-indexed on its subject and/or object
//!   value only if another input binds that slot too (the far ends of a
//!   star's spokes are never probed): a `value → newest position` map plus
//!   an intrusive `next` link per position, brought up to date when the
//!   input is probed. A probe binding neither slot walks the whole buffer.
//! * **Arenas.** Partial combinations, candidates and emitted rows are flat
//!   rows in arenas the join owns; the candidate heap and the emitted set
//!   hold `u32` handles. One representation for every slot width.
//!
//! ## Driver and dependents
//!
//! The first input is the *driver*. A later input can be a *dependent* of
//! an earlier one that binds its subject variable, its *source*
//! ([`JoinInput::new`]): every join row takes that value from a source
//! answer, so the source's values are handed to it once each
//! ([`AnswerStream::seed`]). Every other input is *independent*.
//!
//! A dependent is ranked per seed, not across seeds: a seed handed late
//! enters at distance 0 after an earlier seed's distance-2 answers. So the
//! bound is J\*'s (Natsev et al., VLDB 2001), read off each input's queue
//! ([`AnswerStream::floor`]) rather than its last answer: `next` bounds what
//! it holds, `floor` also what a seed handed later can yield while its
//! source is live. A combination not yet buffered, pulled through input
//! `i`, costs at least `next_i + Σ_{j≠i} min(least buffered_j, floor_j)` (a
//! seed not handed yet comes with a source answer not pulled yet, which
//! that sum counts at the source). The least such cost is the *frontier*:
//! buffered candidates at or below it leave the heap in `(distance, slot
//! values)` order, the cheapest of equal rows winning, and top-`k` capping
//! compares each input's cost with τ. A dependent is done once it holds
//! nothing and its source is done; a done input with nothing buffered
//! empties the join.
//!
//! **The pull rule**: at the frontier, the latest dependent, pulled only up
//! to the key it holds ([`AnswerStream::next_answer_until`]) — the join
//! follows each driver answer depth-first; else the other inputs take
//! turns, [`PULL_BLOCK`] answers each. The join is deterministic in its
//! inputs' contents, never in their timing; probe order only permutes
//! pushes onto the heap.

use std::collections::BinaryHeap;
use std::hash::BuildHasher;

use omega_graph::{FxHashMap, NodeId};

use crate::answer::ConjunctAnswer;
use crate::error::Result;
use crate::eval::stats::EvalStats;
use crate::eval::AnswerStream;

/// The value of a slot no input has bound yet (never a real node id).
const UNBOUND: NodeId = NodeId(u32::MAX);

/// End of an intrusive chain.
const NIL: u32 = u32::MAX;

/// How many answers an independent input (the driver included) is pulled
/// for before another at the same frontier gets its turn. Inputs that seed
/// themselves meet only if pulled in turn: pulling the latest dry first
/// took YAGO YM1's top-10 from 310 tuples added to 1,940 and YM3's from 434
/// to 4,926 (scale 0.1). By the block, since turns of one answer cost a
/// join that exhausts its inputs 5–10 %.
pub const PULL_BLOCK: usize = 16;

/// A multimap from `u32` keys to the positions `0, 1, 2, …` in filing
/// order: the newest position per key, plus one `next` link per position to
/// the key's previous one.
#[derive(Default)]
struct Chains {
    heads: FxHashMap<u32, u32>,
    next: Vec<u32>,
}

impl Chains {
    /// Keys the map has room for from its first filing on. Inputs are
    /// indexed an answer at a time, and a map that starts empty rehashes
    /// ten times on its way to a thousand keys: a quarter of the join's own
    /// time on a join that buffers a few thousand answers.
    const FIRST_KEYS: usize = 1024;

    /// Files the positions from `next.len()` on under `keys`, in order.
    fn extend(&mut self, keys: impl ExactSizeIterator<Item = u32>) {
        if keys.len() == 0 {
            return;
        }
        let floor = if self.next.is_empty() {
            Self::FIRST_KEYS
        } else {
            0
        };
        self.heads.reserve(keys.len().max(floor));
        self.next.reserve(keys.len());
        for key in keys {
            let pos = self.next.len() as u32;
            self.next.push(self.heads.insert(key, pos).unwrap_or(NIL));
        }
    }

    /// The newest position filed under `key`: where its chain starts.
    fn head(&self, key: u32) -> u32 {
        self.heads.get(&key).copied().unwrap_or(NIL)
    }
}

/// The positions from `at` along the `next` links. Without links a position
/// leads to the one below it (`0 - 1` wraps to [`NIL`]): a full scan is the
/// chain `pos → pos - 1`.
fn walk(mut at: u32, next: Option<&[u32]>) -> impl Iterator<Item = usize> + '_ {
    std::iter::from_fn(move || {
        let pos = (at != NIL).then_some(at as usize)?;
        at = next.map_or(at.wrapping_sub(1), |next| next[pos]);
        Some(pos)
    })
}

/// Rows of `width` slot values, flat in one arena, with a distance each.
#[derive(Default)]
struct Rows {
    width: usize,
    cells: Vec<NodeId>,
    distances: Vec<u32>,
}

impl Rows {
    fn len(&self) -> usize {
        self.distances.len()
    }

    fn row(&self, i: usize) -> &[NodeId] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// `(distance, slot values)`: the order candidates leave the heap in.
    fn key(&self, i: u32) -> (u32, &[NodeId]) {
        (self.distances[i as usize], self.row(i as usize))
    }

    /// Appends an all-[`UNBOUND`] row at `distance` and lends it for filling.
    fn push(&mut self, distance: u32) -> &mut [NodeId] {
        self.distances.push(distance);
        let start = self.cells.len();
        self.cells.resize(start + self.width, UNBOUND);
        &mut self.cells[start..]
    }

    fn clear(&mut self) {
        self.cells.clear();
        self.distances.clear();
    }
}

/// One input stream of the join.
pub struct JoinInput<'a> {
    stream: Box<dyn AnswerStream + 'a>,
    /// Slot of the conjunct's subject variable (`None` for a constant).
    subject_slot: Option<usize>,
    /// Slot of the conjunct's object variable — `None` for a constant, and
    /// for a conjunct like `(?X, R, ?X)`, which binds one variable: both
    /// endpoints agree by construction, so the subject's binding stands.
    object_slot: Option<usize>,
    /// A dependent's source: the earlier input whose answers seed it.
    source: Option<usize>,
    buffer: Vec<ConjunctAnswer>,
    /// The least distance buffered; `u32::MAX` while nothing is.
    least: u32,
    /// [`AnswerStream::floor`] of what the stream holds (`next`) and of all
    /// it may still emit (`floor`), as of the last refresh; `stale` once
    /// the input is pulled or seeded or its source is done.
    next: Option<u32>,
    floor: Option<u32>,
    stale: bool,
    /// Buffer positions by subject value, as far as the last probe needed
    /// them; `Some` iff another input binds the subject slot.
    by_subject: Option<Chains>,
    /// The same by object value, iff another input binds the object slot.
    by_object: Option<Chains>,
    done: bool,
}

impl<'a> JoinInput<'a> {
    /// Wraps an answer stream together with the slots its answers bind; a
    /// dependent of `source`, an earlier input binding its subject slot, if
    /// given (its stream answering only for the values it is handed).
    pub fn new(
        stream: Box<dyn AnswerStream + 'a>,
        subject_slot: Option<usize>,
        object_slot: Option<usize>,
        source: Option<usize>,
    ) -> JoinInput<'a> {
        JoinInput {
            stream,
            subject_slot,
            object_slot: object_slot.filter(|&slot| Some(slot) != subject_slot),
            source,
            buffer: Vec::new(),
            least: u32::MAX,
            next: None,
            floor: None,
            stale: true,
            by_subject: None,
            by_object: None,
            done: false,
        }
    }

    /// The least cost an answer of this input adds to a combination not
    /// buffered yet: a buffered one's, or one still to come.
    fn least_to_come(&self) -> u64 {
        let floor = self.floor.filter(|_| !self.done).unwrap_or(u32::MAX);
        u64::from(self.least.min(floor))
    }

    /// Writes `answer`'s endpoints into their slots of `row`.
    fn bind(&self, row: &mut [NodeId], answer: &ConjunctAnswer) {
        if let Some(slot) = self.subject_slot {
            row[slot] = answer.x;
        }
        if let Some(slot) = self.object_slot {
            row[slot] = answer.y;
        }
    }

    /// Files the answers buffered since the last probe in the indexes.
    fn index(&mut self) {
        if let Some(index) = &mut self.by_subject {
            index.extend(self.buffer[index.next.len()..].iter().map(|a| a.x.0));
        }
        if let Some(index) = &mut self.by_object {
            index.extend(self.buffer[index.next.len()..].iter().map(|a| a.y.0));
        }
    }

    /// The buffered answers that merge with `partial` (agree with it on every
    /// slot both bind): walks the chain of a bound slot's value — the indexes
    /// must be up to date — or the whole buffer when it binds neither slot.
    fn matches<'p>(
        &'p self,
        partial: &'p [NodeId],
    ) -> impl Iterator<Item = &'p ConjunctAnswer> + 'p {
        let bound = |slot: Option<usize>| slot.map(|s| partial[s]).filter(|&v| v != UNBOUND);
        let (x, y) = (bound(self.subject_slot), bound(self.object_slot));
        let (at, next) = match (x, &self.by_subject, y, &self.by_object) {
            (Some(x), Some(index), ..) => (index.head(x.0), Some(&index.next[..])),
            (.., Some(y), Some(index)) => (index.head(y.0), Some(&index.next[..])),
            _ => ((self.buffer.len() as u32).wrapping_sub(1), None),
        };
        walk(at, next)
            .map(|pos| &self.buffer[pos])
            .filter(move |a| x.is_none_or(|x| a.x == x) && y.is_none_or(|y| a.y == y))
    }
}

/// Pushes `handle` onto `heap`, a binary min-heap of handles into `rows`
/// ordered by [`Rows::key`].
fn heap_push(heap: &mut Vec<u32>, rows: &Rows, handle: u32) {
    let mut at = heap.len();
    heap.push(handle);
    while at > 0 && rows.key(handle) < rows.key(heap[(at - 1) / 2]) {
        heap.swap(at, (at - 1) / 2);
        at = (at - 1) / 2;
    }
}

/// Removes the least handle from such a heap.
fn heap_pop(heap: &mut Vec<u32>, rows: &Rows) -> Option<u32> {
    let top = (!heap.is_empty()).then(|| heap.swap_remove(0))?;
    let mut at = 0;
    loop {
        let children = 2 * at + 1..heap.len().min(2 * at + 3);
        match children.min_by_key(|&c| rows.key(heap[c])) {
            Some(child) if rows.key(heap[child]) < rows.key(heap[at]) => {
                heap.swap(at, child);
                at = child;
            }
            _ => return Some(top),
        }
    }
}

/// Incremental rank join over conjunct answer streams.
#[derive(Default)]
pub struct RankJoin<'a> {
    inputs: Vec<JoinInput<'a>>,
    /// Scratch: the partial combinations of the arrival being joined, before
    /// and after the input currently probed.
    partials: Rows,
    next: Rows,
    /// Every combination found so far, and the heap of those not yet popped.
    candidates: Rows,
    heap: Vec<u32>,
    /// Handles of the candidates emitted so far, chained by row hash (dedup).
    emitted: Vec<u32>,
    emitted_by_hash: Chains,
    /// Some input finished without a single answer: the join is empty.
    empty: bool,
    /// LIMIT-`k` of the enclosing request, when the join's answers map 1:1
    /// onto the request's (every slot projected): enables τ below.
    limit: Option<usize>,
    /// Max-heap over the `k` smallest candidate distances seen so far; its
    /// root — once `k` candidates exist — bounds the `k`-th join answer's
    /// distance: τ, past which an input is no longer pulled.
    topk: BinaryHeap<u32>,
    /// Escape hatch: set when emission needs answers beyond τ after all
    /// (ties at τ excepted, capping uses strict `>`); clears every cap.
    capping_disabled: bool,
    stats: EvalStats,
}

impl<'a> RankJoin<'a> {
    /// A join over `inputs`, one per conjunct; their slots are `< slot_count`.
    pub fn new(mut inputs: Vec<JoinInput<'a>>, slot_count: usize) -> RankJoin<'a> {
        // Index an input on a slot only when a probe can arrive with it
        // bound, i.e. when some other input binds it too.
        let slots = |input: &JoinInput<'_>| [input.subject_slot, input.object_slot];
        let mut binders = vec![0usize; slot_count];
        for slot in inputs.iter().flat_map(slots).flatten() {
            binders[slot] += 1;
        }
        let shared = |slot: Option<usize>| slot.is_some_and(|s| binders[s] > 1);
        for input in &mut inputs {
            input.by_subject = shared(input.subject_slot).then(Chains::default);
            input.by_object = shared(input.object_slot).then(Chains::default);
        }
        let sourced = |(i, input): (usize, &JoinInput<'_>)| {
            input
                .source
                .is_none_or(|s| s < i && slots(&inputs[s]).contains(&input.subject_slot))
        };
        assert!(
            inputs.iter().enumerate().all(sourced),
            "a source binds the subject before"
        );
        let rows = || Rows {
            width: slot_count,
            ..Rows::default()
        };
        RankJoin {
            inputs,
            partials: rows(),
            next: rows(),
            candidates: rows(),
            ..RankJoin::default()
        }
    }

    /// Installs the enclosing request's answer limit for top-k threshold
    /// pruning: sound only when the head projects every slot, so that every
    /// join answer is a request answer (the caller checks). Zero is ignored.
    pub fn set_limit(&mut self, limit: Option<usize>) {
        self.limit = limit.filter(|&k| k > 0);
    }

    /// Upper bound τ on the `k`-th join answer's distance, once known.
    fn threshold(&self) -> Option<u32> {
        let k = self.limit.filter(|_| !self.capping_disabled)?;
        self.topk.peek().copied().filter(|_| self.topk.len() >= k)
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

    /// Brings the bounds of every stale input up to date, sources before
    /// their dependents, and marks done those that can emit nothing more.
    fn refresh(&mut self) {
        for i in 0..self.inputs.len() {
            let open = self.inputs[i].source.is_some_and(|s| !self.inputs[s].done);
            let input = &mut self.inputs[i];
            if !input.done && std::mem::take(&mut input.stale) {
                input.next = input.stream.floor(false);
                input.floor = input.stream.floor(open);
                if input.floor.is_none() {
                    self.finish(i);
                }
            }
        }
    }

    /// Marks input `idx` done — the join empty if it buffered nothing — and
    /// its dependents stale.
    fn finish(&mut self, idx: usize) {
        self.inputs[idx].done = true;
        self.empty |= self.inputs[idx].buffer.is_empty();
        for dependent in self.inputs.iter_mut().filter(|d| d.source == Some(idx)) {
            dependent.stale = true;
        }
    }

    /// The input to pull next and the frontier; `None` when nothing `≤ τ`
    /// can still appear. Past τ an input is capped (no use to the first `k`
    /// answers).
    fn frontier(&self, tau: Option<u32>) -> Option<(usize, u32)> {
        let total: u64 = self.inputs.iter().map(JoinInput::least_to_come).sum();
        let n = self.inputs.len();
        let rank = |(i, input): (usize, &JoinInput<'_>)| {
            let next = input.next.filter(|_| !input.done)?;
            let through = total - input.least_to_come() + u64::from(next);
            let through = u32::try_from(through).unwrap_or(u32::MAX);
            let turn = match input.source {
                Some(_) => (0, n - i),
                None => (1 + input.buffer.len() / PULL_BLOCK, i),
            };
            tau.is_none_or(|t| through <= t)
                .then_some((through, turn, i))
        };
        let (through, _, i) = self.inputs.iter().enumerate().filter_map(rank).min()?;
        Some((i, through))
    }

    /// Pulls one answer from input `idx`, hands its value for their subject
    /// to its dependents, and joins it with every compatible combination of
    /// the other inputs' buffers, one input at a time.
    fn pull(&mut self, idx: usize) -> Result<()> {
        let (inputs, partials, next) = (&mut self.inputs, &mut self.partials, &mut self.next);
        let input = &mut inputs[idx];
        input.stale = true;
        let pulled = match (input.source, input.next) {
            // A dependent stops at the key it was pulled at.
            (Some(_), Some(at)) => input.stream.next_answer_until(at)?,
            _ => input.stream.next_answer()?,
        };
        let Some(answer) = pulled else {
            // A dependent is only idle: the refresh tells when it is done.
            if input.source.is_none() {
                self.finish(idx);
            }
            return Ok(());
        };
        input.buffer.push(answer);
        input.least = input.least.min(answer.distance);
        let subject = input.subject_slot;
        for dependent in inputs.iter_mut().filter(|d| d.source == Some(idx)) {
            // The source binds the slot as its subject or as its object.
            let value = [answer.y, answer.x][usize::from(dependent.subject_slot == subject)];
            dependent.stream.seed(value);
            dependent.stale = true;
        }
        partials.clear();
        inputs[idx].bind(partials.push(answer.distance), &answer);
        for (_, other) in inputs.iter_mut().enumerate().filter(|&(j, _)| j != idx) {
            other.index();
            next.clear();
            for p in 0..partials.len() {
                let partial = partials.row(p);
                for buffered in other.matches(partial) {
                    let distance = partials.distances[p].saturating_add(buffered.distance);
                    let merged = next.push(distance);
                    merged.copy_from_slice(partial);
                    other.bind(merged, buffered);
                }
            }
            std::mem::swap(partials, next);
            if partials.len() == 0 {
                break;
            }
        }
        for p in 0..self.partials.len() {
            let distance = self.partials.distances[p];
            self.record_candidate(distance);
            let row = self.candidates.push(distance);
            row.copy_from_slice(self.partials.row(p));
            let handle = self.candidates.len() as u32 - 1;
            heap_push(&mut self.heap, &self.candidates, handle);
        }
        Ok(())
    }

    /// The next combined answer — one node id per slot, lent until the next
    /// call — and its total distance, in non-decreasing distance order.
    pub fn next_row(&mut self) -> Result<Option<(&[NodeId], u32)>> {
        let (distance, row) = loop {
            self.refresh();
            if self.empty {
                return Ok(None); // whatever the other inputs still hold
            }
            let tau = self.threshold();
            let any_live = || self.inputs.iter().any(|input| !input.done);
            let best = self.heap.first().map(|&top| self.candidates.key(top).0);
            let pull = match (best, self.frontier(tau)) {
                // Safe against capped inputs: an uncapped one's bound is
                // `≤ τ`, so `best ≤ b ≤ τ` is below anything a capped one
                // (whose combinations all cost `> τ`) could still find.
                (Some(best), Some((idx, b))) => (best > b).then_some(idx),
                (None, Some((idx, _))) => Some(idx),
                // Every remaining live stream is capped, but the caller
                // wants answers past the threshold (more join-level
                // duplicates than expected, or a request that outlived its
                // top-k window): resume pulling everywhere rather than emit
                // out of order.
                (best, None) if best.is_none_or(|b| tau.is_some_and(|t| b > t)) && any_live() => {
                    self.capping_disabled = true;
                    continue;
                }
                (Some(_), None) => None,
                (None, None) => return Ok(None),
            };
            if let Some(idx) = pull {
                self.pull(idx)?;
                continue;
            }
            // Not pulling is only reachable with a peeked candidate.
            let Some(handle) = heap_pop(&mut self.heap, &self.candidates) else {
                continue;
            };
            let (rows, seen) = (&self.candidates, &self.emitted_by_hash);
            let row = rows.row(handle as usize);
            let hash = seen.heads.hasher().hash_one(row) as u32;
            let emitted = |e: usize| rows.row(self.emitted[e] as usize);
            if walk(seen.head(hash), Some(&seen.next)).all(|e| emitted(e) != row) {
                self.emitted_by_hash.extend(std::iter::once(hash));
                self.emitted.push(handle);
                self.stats.answers += 1;
                break self.candidates.key(handle);
            }
        };
        Ok(Some((row, distance)))
    }

    /// Each input's own statistics, in input order.
    pub fn input_stats(&self) -> impl Iterator<Item = EvalStats> + '_ {
        self.inputs.iter().map(|input| input.stream.stats())
    }

    /// Accumulated statistics (including all input streams).
    pub fn stats(&self) -> EvalStats {
        let mut stats = self.stats;
        for input in &self.inputs {
            stats += input.stream.stats();
        }
        stats
    }

    /// Answers currently buffered across all inputs — the join's footprint,
    /// mirrored into the resource governor's `join_buffer_entries` gauge.
    pub fn buffered_entries(&self) -> usize {
        self.inputs.iter().map(|input| input.buffer.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A scripted answer stream for unit-testing the join in isolation.
    /// Pulling it more than `budget` times panics. A dependent one answers
    /// only for the subjects it has been handed: of those answers not
    /// emitted yet, the cheapest first, so that it is ranked per seed but a
    /// seed handed late can answer below what an earlier one already has.
    struct Scripted {
        answers: Vec<ConjunctAnswer>,
        pos: usize,
        pulls: usize,
        budget: usize,
        /// The subjects handed so far, for a dependent; `None` otherwise.
        handed: Option<Vec<NodeId>>,
        /// A dependent's answers emitted so far, by position.
        emitted: Vec<bool>,
    }

    impl Scripted {
        fn new(mut answers: Vec<(u32, u32, u32)>) -> Scripted {
            answers.sort_by_key(|&(_, _, d)| d);
            Scripted {
                emitted: vec![false; answers.len()],
                answers: answers
                    .into_iter()
                    .map(|(x, y, d)| ConjunctAnswer {
                        x: NodeId(x),
                        y: NodeId(y),
                        distance: d,
                    })
                    .collect(),
                pos: 0,
                pulls: 0,
                budget: usize::MAX,
                handed: None,
            }
        }

        /// The position of the next answer to emit.
        fn upcoming(&self) -> Option<usize> {
            match &self.handed {
                None => (self.pos < self.answers.len()).then_some(self.pos),
                Some(handed) => (0..self.answers.len())
                    .find(|&i| !self.emitted[i] && handed.contains(&self.answers[i].x)),
            }
        }
    }

    impl AnswerStream for Scripted {
        fn next_answer(&mut self) -> Result<Option<ConjunctAnswer>> {
            self.next_answer_until(u32::MAX)
        }

        fn next_answer_until(&mut self, ceiling: u32) -> Result<Option<ConjunctAnswer>> {
            assert!(self.pulls < self.budget, "stream pulled past its budget");
            self.pulls += 1;
            let next = self
                .upcoming()
                .filter(|&i| self.answers[i].distance <= ceiling);
            if let Some(i) = next {
                self.emitted[i] = true;
                self.pos += 1;
            }
            Ok(next.map(|i| self.answers[i]))
        }

        fn seed(&mut self, node: NodeId) {
            if let Some(handed) = &mut self.handed {
                if !handed.contains(&node) {
                    handed.push(node);
                }
            }
        }

        fn floor(&mut self, seeded: bool) -> Option<u32> {
            let held = self.upcoming().map(|i| self.answers[i].distance);
            if seeded {
                Some(0)
            } else {
                held
            }
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
        scripted_input(answers, subject, object, None, usize::MAX)
    }

    /// An input that is a dependent of `source`, if any, and panics past
    /// `budget` pulls.
    fn scripted_input(
        answers: Vec<(u32, u32, u32)>,
        subject: Option<usize>,
        object: Option<usize>,
        source: Option<usize>,
        budget: usize,
    ) -> JoinInput<'static> {
        let stream = Scripted {
            budget,
            handed: source.map(|_| Vec::new()),
            ..Scripted::new(answers)
        };
        JoinInput::new(Box::new(stream), subject, object, source)
    }

    /// Pulls up to `n` rows off a join: `(slot values, distance)`, with
    /// `u32::MAX` in a slot nothing binds.
    fn take(join: &mut RankJoin<'_>, n: usize) -> Vec<(Vec<u32>, u32)> {
        let mut out = Vec::new();
        while out.len() < n {
            match join.next_row().unwrap() {
                Some((row, d)) => out.push((row.iter().map(|n| n.0).collect(), d)),
                None => break,
            }
        }
        out
    }

    fn drain(mut join: RankJoin<'_>) -> Vec<(Vec<u32>, u32)> {
        take(&mut join, usize::MAX)
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
    fn total_distance_saturates() {
        let c1 = input(vec![(1, 10, u32::MAX - 1)], X, Y);
        let c2 = input(vec![(10, 100, 5)], Y, Z);
        let results = drain(RankJoin::new(vec![c1, c2], 3));
        assert_eq!(results, vec![(vec![1, 10, 100], u32::MAX)]);
    }

    #[test]
    fn cartesian_product_when_no_shared_variables() {
        let c1 = input(vec![(1, 10, 0), (2, 20, 1)], X, Y);
        let c2 = input(vec![(5, 50, 0)], Z, W);
        let results = drain(RankJoin::new(vec![c1, c2], 4));
        assert_eq!(
            results,
            vec![(vec![1, 10, 5, 50], 0), (vec![2, 20, 5, 50], 1)]
        );
    }

    #[test]
    fn conflicting_bindings_are_rejected() {
        // Both conjuncts bind X and Y but disagree on Y for x=1.
        let c1 = input(vec![(1, 10, 0)], X, Y);
        let c2 = input(vec![(1, 99, 0)], X, Y);
        let mut join = RankJoin::new(vec![c1, c2], 2);
        assert!(join.next_row().unwrap().is_none());
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
        // Two identical answers in stream 1 produce the same combined row.
        let c1 = input(vec![(1, 10, 0), (1, 10, 2)], X, Y);
        let c2 = input(vec![(10, 100, 0)], Y, Z);
        let results = drain(RankJoin::new(vec![c1, c2], 3));
        assert_eq!(results, vec![(vec![1, 10, 100], 0)], "the cheaper wins");
    }

    #[test]
    fn a_later_arrival_at_an_open_distance_is_emitted_later() {
        // `(distance, slots)` orders the *buffered* candidates only. The
        // first stream, pulled first, is done at 0; once the second one's
        // next answer is at 1, so is the frontier, and `[2, 1, 9]` is
        // emitted; `[0, 1, 9]`, also at 1 and smaller, only exists after
        // the second stream's next pull.
        let c1 = input(vec![(1, 9, 0)], Y, Z);
        let c2 = input(vec![(2, 1, 1), (0, 1, 1)], X, Y);
        let results = drain(RankJoin::new(vec![c1, c2], 3));
        assert_eq!(results, vec![(vec![2, 1, 9], 1), (vec![0, 1, 9], 1)]);
    }

    #[test]
    fn only_shared_slots_are_indexed() {
        // A star on X: the spokes' far ends (Y, Z) can never be probed.
        let c1 = input(vec![], X, Y);
        let c2 = input(vec![], X, Z);
        let c3 = input(vec![], W, W);
        let join = RankJoin::new(vec![c1, c2, c3], 4);
        let indexed: Vec<(bool, bool)> = join
            .inputs
            .iter()
            .map(|i| (i.by_subject.is_some(), i.by_object.is_some()))
            .collect();
        assert_eq!(indexed, vec![(true, false), (true, false), (false, false)]);
    }

    #[test]
    fn an_exhausted_empty_input_stops_the_join() {
        // One conjunct has no answer at all, so the join has none — and
        // must say so without draining its neighbour, which here panics on
        // its 4th pull (standing in for a whole flexible frontier).
        for empty_first in [false, true] {
            let mut long = Scripted::new(vec![(1, 10, 0), (2, 20, 1), (3, 30, 2), (4, 40, 3)]);
            long.budget = 3;
            let long = JoinInput::new(Box::new(long), X, Y, None);
            let empty = input(vec![], Y, Z);
            let inputs = if empty_first {
                vec![empty, long]
            } else {
                vec![long, empty]
            };
            let mut join = RankJoin::new(inputs, 3);
            assert!(join.next_row().unwrap().is_none());
            assert!(join.next_row().unwrap().is_none(), "and stays empty");
        }
    }

    #[test]
    fn top_k_capping_survives_duplicate_candidate_deflation() {
        // Duplicate candidates (same row, different distances — e.g. a
        // stream re-deriving one pair at a relaxed cost) consume top-k
        // tracker slots, so τ can undershoot the k-th *distinct* answer's
        // distance and every live stream can end up capped. The join must
        // then uncap and keep producing — bit-identically to an unlimited
        // join — rather than stall or emit out of order.
        let rows_a = vec![(1, 10, 0), (1, 10, 2), (2, 10, 3)];
        let rows_b = vec![(10, 100, 0), (10, 200, 40)];
        let run = |limit: Option<usize>, n: usize| {
            let a = input(rows_a.clone(), X, Y);
            let b = input(rows_b.clone(), Y, Z);
            let mut join = RankJoin::new(vec![a, b], 3);
            join.set_limit(limit);
            take(&mut join, n)
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
    fn dependents_are_drained_before_their_source_is_pulled_again() {
        // A star on X, every answer at distance 0: a hub `(c, R, ?X)` that
        // names its 5,000 nodes from the top down, and two spokes `(?X, R,
        // ?Y)` with an answer for every node, the second a dependent of the
        // first. Pulled depth-first, each node the hub names is answered by
        // both spokes before the hub is pulled again: the top-10 takes ten
        // hub answers, and each spoke a pull per node plus one that finds
        // it idle.
        const N: u32 = 5_000;
        let hub = (0..N).rev().map(|x| (N, x, 0)).collect();
        let spoke = |far: u32| (0..N).map(|x| (x, x + far, 0)).collect();
        let mut join = RankJoin::new(
            vec![
                scripted_input(hub, None, X, None, 10),
                scripted_input(spoke(N), X, Y, Some(0), 20),
                scripted_input(spoke(2 * N), X, Z, Some(1), 20),
            ],
            3,
        );
        join.set_limit(Some(10));
        let expected: Vec<_> = (0..10)
            .map(|i| (vec![N - 1 - i, 2 * N - 1 - i, 3 * N - 1 - i], 0))
            .collect();
        assert_eq!(take(&mut join, 10), expected);
        assert_eq!(join.buffered_entries(), 30);
    }

    #[test]
    fn a_late_seed_answers_below_an_earlier_seeds_answers() {
        // The dependent's answers for seed 1 come at 0 and 2; seed 2, handed
        // after them, answers at 0: a join taking the dependent's last answer
        // for a bound would emit `[1, 11]` at 2 before `[2, 20]` at 1.
        let source = input(vec![(9, 1, 0), (9, 2, 1)], None, X);
        let dependent = scripted_input(vec![(1, 10, 0), (1, 11, 2), (2, 20, 0)], X, Y, Some(0), 8);
        let rows = drain(RankJoin::new(vec![source, dependent], 2));
        assert_eq!(
            rows,
            vec![(vec![1, 10], 0), (vec![2, 20], 1), (vec![1, 11], 2)]
        );
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

    /// One scripted input of the oracle test: its slots and its answers.
    type Spec = (Option<usize>, Option<usize>, Vec<(u32, u32, u32)>);

    /// The join that is not the join: the nested-loop cross product of the
    /// inputs' answers, merged slot by slot, sorted by `(distance, slots)`
    /// and deduplicated first-wins.
    fn reference_join(specs: &[Spec], slot_count: usize) -> Vec<(Vec<u32>, u32)> {
        let mut combos: Vec<(Vec<u32>, u32)> = vec![(vec![u32::MAX; slot_count], 0)];
        for (subject, object, answers) in specs {
            let mut next = Vec::new();
            for (row, total) in &combos {
                for &(x, y, d) in answers {
                    // `(?Z, R, ?Z)` binds one variable: the subject's.
                    let object = object.filter(|o| Some(*o) != *subject);
                    let mut merged = row.clone();
                    let fits = [(*subject, x), (object, y)].into_iter().all(|(slot, v)| {
                        slot.is_none_or(|s| {
                            let free = merged[s] == u32::MAX;
                            merged[s] = if free { v } else { merged[s] };
                            merged[s] == v
                        })
                    });
                    if fits {
                        next.push((merged, total + d));
                    }
                }
            }
            combos = next;
        }
        combos.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
        let mut seen = std::collections::HashSet::new();
        combos.retain(|(row, _)| seen.insert(row.clone()));
        combos
    }

    /// Sorted by `(distance, slots)`: the order [`reference_join`] uses.
    fn ranked(mut rows: Vec<(Vec<u32>, u32)>) -> Vec<(Vec<u32>, u32)> {
        rows.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// What the join emits equals the reference for 2–5 inputs over 1–6
        /// slots — shared, same-variable, constant-only and cartesian
        /// shapes fall out of drawing slots at random — with duplicate
        /// `(x, y)` at several distances (values are drawn from 0..2,
        /// distances from 0..3) and empty inputs included.
        ///
        /// The contract is per distance, not per position: a combination is
        /// emitted as soon as its distance is `≤` the bound on everything
        /// still to come, so one that *arrives* later at that same distance
        /// is emitted later whatever its slot values. Hence: distances come
        /// out non-decreasing; the rows at each distance are exactly the
        /// reference's; and under every limit `k` the first `k` rows carry
        /// the reference's first `k` distances and are distinct reference
        /// rows (so every distance below the `k`-th is complete), while
        /// draining past `k` still yields everything.
        #[test]
        fn emission_equals_the_nested_loop_reference(
            slot_count in 1usize..7,
            raw in prop::collection::vec(
                (0usize..7, 0usize..7, prop::collection::vec((0u32..2, 0u32..2, 0u32..3), 1..7)),
                2..6,
            ),
            emptied in 0usize..20,
        ) {
            // A draw of `slot_count` is a constant endpoint.
            let slot = |draw: usize| Some(draw % (slot_count + 1)).filter(|&s| s < slot_count);
            let mut specs: Vec<Spec> = raw
                .iter()
                .map(|(s, o, answers)| (slot(*s), slot(*o), answers.clone()))
                .collect();
            // One case in five has an input with no answers at all.
            if let Some(spec) = specs.get_mut(emptied) {
                spec.2.clear();
            }
            // A dependent's source: the last earlier input binding its
            // subject slot, as a prepared statement chooses it.
            let source = |i: usize| {
                let subject = specs[i].0?;
                specs[..i].iter().rposition(|(s, o, _)| [*s, *o].contains(&Some(subject)))
            };
            let run = |limit: Option<usize>, dependents: bool| {
                let inputs = specs
                    .iter()
                    .enumerate()
                    .map(|(i, (s, o, a))| {
                        let source = source(i).filter(|_| dependents);
                        scripted_input(a.clone(), *s, *o, source, usize::MAX)
                    })
                    .collect();
                let mut join = RankJoin::new(inputs, slot_count);
                join.set_limit(limit);
                drain(join)
            };
            let expected = reference_join(&specs, slot_count);
            let distances = |rows: &[(Vec<u32>, u32)]| rows.iter().map(|r| r.1).collect::<Vec<_>>();
            // Dependents, which answer only for the subjects their source
            // hands them and are ranked only per seed, are held to the same
            // reference as streams that answer for every subject in order.
            for dependents in [false, true] {
                let got = run(None, dependents);
                prop_assert_eq!(distances(&got), distances(&expected), "{:?}", specs);
                prop_assert_eq!(ranked(got), &expected[..], "{:?}", specs);
                for k in 1..=expected.len() {
                    let got = run(Some(k), dependents);
                    prop_assert_eq!(distances(&got), distances(&expected), "limit {} over {:?}", k, specs);
                    let top: std::collections::HashSet<_> = got[..k].iter().collect();
                    prop_assert_eq!(top.len(), k, "limit {} over {:?}", k, specs);
                    prop_assert!(top.iter().all(|row| expected.contains(row)), "limit {} over {:?}", k, specs);
                    prop_assert_eq!(ranked(got), &expected[..], "limit {} over {:?}", k, specs);
                }
            }
        }
    }
}
