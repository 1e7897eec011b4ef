//! The four workloads. Names are fixed: later issues refer to them.
//!
//! The datasets are the paper's two case studies at the generators' default
//! seeds — fixed, like the graphs of the paper's own study — so a metric does
//! not move because a seed drew a larger graph. The run's `--seed` makes the
//! *workload*: the op order, the constants and operators substituted into
//! query templates, and the edges the write workload adds and removes.

pub mod adhoc_compile;
pub mod embed_flex;
pub mod live_write;
pub mod serve_short;

use omega_core::{Database, ExecOptions};
use omega_datagen::{generate_l4all, l4all_queries, Dataset, L4AllConfig, L4AllScale};

use crate::check::{outcome, Outcome};
use crate::trace::Tracer;

/// Answers asked of every L4All op: the paper's top-100.
pub const TOP_K: usize = 100;

/// The request every op of a workload sends: its limit, the toggles the
/// environment could otherwise flip pinned to their defaults, everything
/// else `EvalOptions::default()`. `profile` is set for the traced window
/// (`tracer.is_on()`), whose spans hang the program's phases beneath them.
pub fn request(limit: usize, profile: bool) -> ExecOptions {
    ExecOptions::new()
        .with_limit(limit)
        .with_parallel_conjuncts(false)
        .with_cost_guided(true)
        .with_profile(profile)
}

/// Generates L4All at `scale` under a `datagen.generate` span.
pub fn l4all(scale: L4AllScale, tracer: &mut Tracer) -> Dataset {
    tracer.scope("datagen.generate", 0, || {
        generate_l4all(&L4AllConfig::at_scale(scale))
    })
}

/// The short-query statement mix `serve-short` and `live-write` share:
/// Q1/Q10/Q11/Q12, exact and APPROX, and Q2 exact. Nine kinds on purpose:
/// with an odd number at equal weight the median of the mix falls inside the
/// middle kind's distribution; with eight it would sit on the edge between
/// two kinds and jump from one to the other on a little jitter.
pub fn short_statements() -> Vec<String> {
    let queries = l4all_queries();
    [0, 9, 10, 11]
        .into_iter()
        .flat_map(|i| {
            [
                queries[i].text.to_owned(),
                queries[i].with_operator("APPROX"),
            ]
        })
        .chain([queries[1].text.to_owned()])
        .collect()
}

/// Runs each text once in-process — the warm-up pass — and keeps its
/// outcome as the statement's reference.
pub fn reference_pass(
    db: &Database,
    texts: &[String],
    limit: usize,
) -> Result<Vec<(String, Outcome)>, String> {
    texts
        .iter()
        .map(|text| {
            let answers = db
                .prepare(text)
                .and_then(|p| p.execute(&request(limit, false)))
                .map_err(|e| format!("{text}: {e}"))?;
            Ok((
                text.clone(),
                outcome(&answers, limit).map_err(|e| format!("{text}: {e}"))?,
            ))
        })
        .collect()
}
