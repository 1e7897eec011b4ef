//! What two executions of one statement agree on when they are free to break
//! ties differently: the contract `benchmark/src/check.rs` judges by.
//!
//! A multi-conjunct statement is such a pair whenever one side evaluates its
//! conjuncts inline and the other on worker threads. Inline, the rank join
//! hints each conjunct with the bindings of its neighbours, and the seeds
//! hinted go first; a worker takes no hints. Both emit every answer at its
//! distance, in non-decreasing distance — which ties come first, and which of
//! them a `LIMIT` keeps, is each side's own.

use omega::Answer;

/// Asserts that `got` ranks as `reference` does, both run under `limit`: the
/// same distance sequence, and the same answers at every *closed* distance —
/// all of them when the stream ended under its limit, otherwise all below
/// the last, where the limit cut into a set of ties.
pub fn assert_same_ranking(
    got: &[Answer],
    reference: &[Answer],
    limit: Option<usize>,
    context: &str,
) {
    let distances = |answers: &[Answer]| answers.iter().map(|a| a.distance).collect::<Vec<_>>();
    assert_eq!(
        distances(got),
        distances(reference),
        "distance sequences differ: {context}"
    );
    let cut = limit.is_some_and(|k| reference.len() >= k);
    let open = reference.last().filter(|_| cut).map(|a| a.distance);
    let closed = |answers: &[Answer]| {
        let mut set: Vec<_> = answers
            .iter()
            .filter(|a| Some(a.distance) != open)
            .map(|a| (a.distance, a.bindings.clone()))
            .collect();
        set.sort();
        set
    };
    assert_eq!(
        closed(got),
        closed(reference),
        "answers at a closed distance differ: {context}"
    );
}
