//! Value codecs: engine types ⇄ wire bytes.
//!
//! Everything the serving layer carries — answers, statistics, execution
//! options, errors, gauges — encodes here. Each codec is a pure function
//! pair over [`Writer`] / [`Reader`]; the framing layer
//! ([`crate::frame`]) composes them.

use std::collections::HashMap;
use std::time::Instant;

use omega_core::bytes::{Reader, Writer};
use omega_core::{
    Answer, AnswerBatch, EvalStats, ExecOptions, OmegaError, OverloadPolicy, QueryProfile,
    TruncationReason, UNBOUND,
};
use omega_regex::RegexParseError;

use crate::error::{ProtocolError, WireError};

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

/// Encodes an `Answers` body — the one layout every encoder shares:
///
/// ```text
/// u32 columns │ columns × str                    head variable names
/// u32 labels  │ labels × str                     each distinct node label
/// u32 rows    │ rows × { u32 distance, columns × u32 label index }
/// ```
///
/// Names and labels appear once per frame; a row is its distance plus one
/// index into the label table per column, or [`UNBOUND`] where the answer
/// binds no value: the server's rows bind every head column, and only a
/// batch of answers that disagree on their variables has such cells.
/// `cells` is row-major, one row of `columns.len()` per distance.
pub(crate) fn put_answer_table<'s>(
    w: &mut Writer,
    columns: impl ExactSizeIterator<Item = &'s str>,
    labels: impl ExactSizeIterator<Item = &'s str>,
    distances: impl ExactSizeIterator<Item = u32>,
    cells: &[u32],
) {
    let width = columns.len();
    w.put_u32(width as u32);
    columns.for_each(|name| w.put_str(name));
    w.put_u32(labels.len() as u32);
    labels.for_each(|label| w.put_str(label));
    w.put_u32(distances.len() as u32);
    for (row, distance) in distances.enumerate() {
        w.put_u32(distance);
        for cell in &cells[row * width..(row + 1) * width] {
            w.put_u32(*cell);
        }
    }
}

/// Encodes a batch of answers. The columns are the variables of the
/// answers' batches ([`omega_core::Bindings::columns`]), in order of first
/// appearance. Names are looked up once per run of answers that share a
/// batch; within a run, each answer's labels go by position to the columns
/// its batch's names map to.
pub fn put_answers(w: &mut Writer, answers: &[Answer]) {
    let same_batch = |a: &Answer, b: &Answer| a.bindings.shares_batch(&b.bindings);
    let mut columns: Vec<&str> = Vec::new();
    // Per run, the frame column of each of its batch's names, runs
    // concatenated.
    let mut slots: Vec<usize> = Vec::new();
    for run in answers.chunk_by(same_batch) {
        slots.extend(run[0].bindings.columns().map(|name| {
            columns.iter().position(|c| *c == name).unwrap_or_else(|| {
                columns.push(name);
                columns.len() - 1
            })
        }));
    }
    let mut labels: Vec<&str> = Vec::new();
    let mut index: HashMap<&str, u32> = HashMap::with_capacity(answers.len());
    let mut cells = Vec::with_capacity(answers.len() * columns.len());
    let mut row: Vec<Option<&str>> = vec![None; columns.len()];
    let mut rest = &slots[..];
    for run in answers.chunk_by(same_batch) {
        let (run_slots, tail) = rest.split_at(run[0].bindings.columns().len());
        rest = tail;
        for answer in run {
            row.fill(None);
            for (&slot, label) in run_slots.iter().zip(answer.bindings.labels()) {
                row[slot] = label;
            }
            cells.extend(row.iter().map(|label| {
                label.map_or(UNBOUND, |label| {
                    *index.entry(label).or_insert_with(|| {
                        labels.push(label);
                        labels.len() as u32 - 1
                    })
                })
            }));
        }
    }
    put_answer_table(
        w,
        columns.iter().copied(),
        labels.iter().copied(),
        answers.iter().map(|a| a.distance),
        &cells,
    );
}

/// Reads `count` strings in place. The vector is sized from the bytes that
/// are there (a string is at least its 4-byte length), never from the
/// declared count alone.
fn take_strs<'a>(r: &mut Reader<'a>, count: u32) -> Result<Vec<&'a str>, ProtocolError> {
    let mut out = Vec::with_capacity((count as usize).min(r.remaining() / 4));
    for _ in 0..count {
        out.push(r.take_str_ref()?);
    }
    Ok(out)
}

/// Decodes an `Answers` body: the frame's names and label table become one
/// [`AnswerBatch`], and every row an [`Answer`] of it — its cells, checked
/// against the table here, and one shared handle. A label index outside the
/// table is [`ProtocolError::Malformed`].
pub fn take_answers(r: &mut Reader<'_>) -> Result<Vec<Answer>, ProtocolError> {
    let columns = r.take_u32()?;
    let columns = take_strs(r, columns)?;
    let labels = r.take_u32()?;
    let labels = take_strs(r, labels)?;
    let batch = AnswerBatch::table(&columns, &labels);
    let rows = r.take_u32()? as usize;
    let row_bytes = 4 + 4 * columns.len();
    let mut answers = Vec::with_capacity(rows.min(r.remaining() / row_bytes));
    let mut row = Vec::with_capacity(columns.len());
    for _ in 0..rows {
        let distance = r.take_u32()?;
        row.clear();
        for _ in 0..columns.len() {
            row.push(r.take_u32()?);
        }
        let answer = batch
            .answer(&row, distance)
            .ok_or(ProtocolError::Malformed("label index out of range"))?;
        answers.push(answer);
    }
    Ok(answers)
}

// ---------------------------------------------------------------------------
// EvalStats
// ---------------------------------------------------------------------------

/// Encodes the full evaluator counter block, including the degradation
/// markers, so remote stats compare bit-identically to in-process runs.
pub fn put_stats(w: &mut Writer, stats: &EvalStats) {
    w.put_u64(stats.tuples_added);
    w.put_u64(stats.tuples_processed);
    w.put_u64(stats.succ_calls);
    w.put_u64(stats.neighbour_lookups);
    w.put_u64(stats.answers);
    w.put_u64(stats.suppressed);
    w.put_u64(stats.pruned_dead);
    w.put_u64(stats.pruned_bound);
    w.put_u64(stats.deferred_expansions);
    w.put_u64(stats.cursor_blocks);
    w.put_u64(stats.raised_keys);
    w.put_u64(stats.sheds);
    w.put_bool(stats.degraded);
    w.put_opt(stats.truncation, |w, reason| {
        w.put_u8(match reason {
            TruncationReason::TupleBudget => 0,
            TruncationReason::PoolExhausted => 1,
        })
    });
}

/// Decodes an [`EvalStats`] block.
pub fn take_stats(r: &mut Reader<'_>) -> Result<EvalStats, ProtocolError> {
    Ok(EvalStats {
        tuples_added: r.take_u64()?,
        tuples_processed: r.take_u64()?,
        succ_calls: r.take_u64()?,
        neighbour_lookups: r.take_u64()?,
        answers: r.take_u64()?,
        suppressed: r.take_u64()?,
        pruned_dead: r.take_u64()?,
        pruned_bound: r.take_u64()?,
        deferred_expansions: r.take_u64()?,
        cursor_blocks: r.take_u64()?,
        raised_keys: r.take_u64()?,
        sheds: r.take_u64()?,
        degraded: r.take_bool()?,
        truncation: r.take_opt(|r| match r.take_u8()? {
            0 => Ok(TruncationReason::TupleBudget),
            1 => Ok(TruncationReason::PoolExhausted),
            _ => Err(ProtocolError::Malformed("unknown truncation reason")),
        })?,
    })
}

// ---------------------------------------------------------------------------
// QueryProfile
// ---------------------------------------------------------------------------

/// Encodes a per-phase query profile: phase count, then `(name, nanos)`
/// pairs in execution order.
pub fn put_profile(w: &mut Writer, profile: &QueryProfile) {
    w.put_u32(profile.phases().len() as u32);
    for phase in profile.phases() {
        w.put_str(&phase.name);
        w.put_u64(phase.nanos);
    }
}

/// Decodes a per-phase query profile.
pub fn take_profile(r: &mut Reader<'_>) -> Result<QueryProfile, ProtocolError> {
    let count = r.take_u32()?;
    let mut profile = QueryProfile::new();
    for _ in 0..count {
        let name = r.take_str()?;
        let nanos = r.take_u64()?;
        profile.push(name, nanos);
    }
    Ok(profile)
}

// ---------------------------------------------------------------------------
// ExecOptions
// ---------------------------------------------------------------------------

fn put_policy(w: &mut Writer, policy: OverloadPolicy) {
    w.put_u8(match policy {
        OverloadPolicy::Fail => 0,
        OverloadPolicy::Degrade => 1,
        OverloadPolicy::Shed => 2,
    });
}

fn take_policy(r: &mut Reader<'_>) -> Result<OverloadPolicy, ProtocolError> {
    match r.take_u8()? {
        0 => Ok(OverloadPolicy::Fail),
        1 => Ok(OverloadPolicy::Degrade),
        2 => Ok(OverloadPolicy::Shed),
        _ => Err(ProtocolError::Malformed("unknown overload policy")),
    }
}

/// Encodes a request's execution options.
///
/// `Instant` deadlines cannot cross a process boundary, so the absolute
/// `deadline` and the relative `timeout` fold into one *remaining budget*
/// at encode time (the tighter of the two, measured against `Instant::now()`
/// on the client); the server re-anchors it as a `timeout` when execution
/// starts. An already-expired deadline encodes as a zero budget, which the
/// evaluator rejects with [`OmegaError::DeadlineExceeded`] on first pull —
/// the same behaviour an in-process caller sees.
pub fn put_exec_options(w: &mut Writer, options: &ExecOptions) {
    let from_deadline = options
        .deadline
        .map(|d| d.saturating_duration_since(Instant::now()));
    let budget = options.timeout.into_iter().chain(from_deadline).min();
    w.put_opt(options.limit, Writer::put_usize);
    w.put_opt(budget, |w, v| w.put_duration(v));
    w.put_opt(options.max_distance, Writer::put_u32);
    w.put_opt(options.max_tuples, Writer::put_usize);
    put_policy(w, options.on_overload);
    w.put_bool(options.profile);
}

/// Decodes execution options; the wire budget lands in `timeout`, never in
/// `deadline` (see [`put_exec_options`]).
pub fn take_exec_options(r: &mut Reader<'_>) -> Result<ExecOptions, ProtocolError> {
    Ok(ExecOptions {
        limit: r.take_opt(Reader::take_usize)?,
        timeout: r.take_opt(Reader::take_duration)?,
        deadline: None,
        max_distance: r.take_opt(Reader::take_u32)?,
        max_tuples: r.take_opt(Reader::take_usize)?,
        on_overload: take_policy(r)?,
        profile: r.take_bool()?,
    })
}

// ---------------------------------------------------------------------------
// OmegaError / WireError
// ---------------------------------------------------------------------------

/// Encodes an engine error losslessly — positions, messages, budgets and
/// `retry_after` all survive the round trip.
pub fn put_engine_error(w: &mut Writer, err: &OmegaError) {
    match err {
        OmegaError::Parse { position, message } => {
            w.put_u8(0);
            w.put_usize(*position);
            w.put_str(message);
        }
        OmegaError::Regex(err) => {
            w.put_u8(1);
            w.put_usize(err.position);
            w.put_str(&err.message);
        }
        OmegaError::UnknownConstant(name) => {
            w.put_u8(2);
            w.put_str(name);
        }
        OmegaError::UnboundHeadVariable(name) => {
            w.put_u8(3);
            w.put_str(name);
        }
        OmegaError::EmptyQuery => w.put_u8(4),
        OmegaError::ResourceExhausted { tuples } => {
            w.put_u8(5);
            w.put_usize(*tuples);
        }
        OmegaError::DeadlineExceeded => w.put_u8(6),
        OmegaError::Cancelled => w.put_u8(7),
        OmegaError::Overloaded { retry_after } => {
            w.put_u8(8);
            w.put_duration(*retry_after);
        }
        OmegaError::Internal { message } => {
            w.put_u8(9);
            w.put_str(message);
        }
        OmegaError::MutationFailed { message } => {
            w.put_u8(10);
            w.put_str(message);
        }
        OmegaError::ReadOnly { message } => {
            w.put_u8(11);
            w.put_str(message);
        }
    }
}

/// Decodes an engine error.
pub fn take_engine_error(r: &mut Reader<'_>) -> Result<OmegaError, ProtocolError> {
    Ok(match r.take_u8()? {
        0 => OmegaError::Parse {
            position: r.take_usize()?,
            message: r.take_str()?,
        },
        1 => OmegaError::Regex(RegexParseError {
            position: r.take_usize()?,
            message: r.take_str()?,
        }),
        2 => OmegaError::UnknownConstant(r.take_str()?),
        3 => OmegaError::UnboundHeadVariable(r.take_str()?),
        4 => OmegaError::EmptyQuery,
        5 => OmegaError::ResourceExhausted {
            tuples: r.take_usize()?,
        },
        6 => OmegaError::DeadlineExceeded,
        7 => OmegaError::Cancelled,
        8 => OmegaError::Overloaded {
            retry_after: r.take_duration()?,
        },
        9 => OmegaError::Internal {
            message: r.take_str()?,
        },
        10 => OmegaError::MutationFailed {
            message: r.take_str()?,
        },
        11 => OmegaError::ReadOnly {
            message: r.take_str()?,
        },
        _ => return Err(ProtocolError::Malformed("unknown engine error tag")),
    })
}

/// Encodes a wire error (the payload of a `Fail` frame).
pub fn put_wire_error(w: &mut Writer, err: &WireError) {
    match err {
        WireError::Engine(err) => {
            w.put_u8(0);
            put_engine_error(w, err);
        }
        WireError::UnknownStatement(id) => {
            w.put_u8(1);
            w.put_u64(*id);
        }
        WireError::VersionSkew { client, server } => {
            w.put_u8(2);
            w.put_u32(*client);
            w.put_u32(*server);
        }
        WireError::Malformed(message) => {
            w.put_u8(3);
            w.put_str(message);
        }
        WireError::Shutdown => w.put_u8(4),
    }
}

/// Decodes a wire error.
pub fn take_wire_error(r: &mut Reader<'_>) -> Result<WireError, ProtocolError> {
    Ok(match r.take_u8()? {
        0 => WireError::Engine(take_engine_error(r)?),
        1 => WireError::UnknownStatement(r.take_u64()?),
        2 => WireError::VersionSkew {
            client: r.take_u32()?,
            server: r.take_u32()?,
        },
        3 => WireError::Malformed(r.take_str()?),
        4 => WireError::Shutdown,
        _ => return Err(ProtocolError::Malformed("unknown wire error tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn round_trip<T: PartialEq + std::fmt::Debug>(
        value: &T,
        put: impl Fn(&mut Writer, &T),
        take: impl Fn(&mut Reader<'_>) -> Result<T, ProtocolError>,
    ) {
        let mut w = Writer::new();
        put(&mut w, value);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        let back = take(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(&back, value);
    }

    #[test]
    fn every_engine_error_round_trips() {
        let errors = [
            OmegaError::Parse {
                position: 17,
                message: "unexpected token".into(),
            },
            OmegaError::Regex(RegexParseError {
                position: 3,
                message: "unbalanced paren".into(),
            }),
            OmegaError::UnknownConstant("atlantis".into()),
            OmegaError::UnboundHeadVariable("Z".into()),
            OmegaError::EmptyQuery,
            OmegaError::ResourceExhausted { tuples: 123_456 },
            OmegaError::DeadlineExceeded,
            OmegaError::Cancelled,
            OmegaError::Overloaded {
                retry_after: Duration::from_micros(12_345),
            },
            OmegaError::Internal {
                message: "invariant violated".into(),
            },
            OmegaError::MutationFailed {
                message: "delta rejected".into(),
            },
            OmegaError::ReadOnly {
                message: "wal append failed: disk full".into(),
            },
        ];
        for err in errors {
            round_trip(&err, put_engine_error, take_engine_error);
        }
    }

    #[test]
    fn exec_options_fold_deadline_into_remaining_budget() {
        let options = ExecOptions::new()
            .with_timeout(Duration::from_secs(60))
            .with_deadline(Instant::now() + Duration::from_secs(5));
        let mut w = Writer::new();
        put_exec_options(&mut w, &options);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        let back = take_exec_options(&mut r).unwrap();
        let budget = back.timeout.unwrap();
        assert!(back.deadline.is_none());
        assert!(budget <= Duration::from_secs(5), "tighter bound wins");
        assert!(budget > Duration::from_secs(4), "budget is the remainder");
    }

    #[test]
    fn expired_deadline_encodes_as_zero_budget() {
        let options = ExecOptions::new().with_deadline(Instant::now() - Duration::from_secs(1));
        let mut w = Writer::new();
        put_exec_options(&mut w, &options);
        let bytes = w.into_inner();
        let back = take_exec_options(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.timeout, Some(Duration::ZERO));
    }

    #[test]
    fn stats_round_trip_with_truncation_marker() {
        let stats = EvalStats {
            tuples_added: 1,
            answers: 9,
            cursor_blocks: 4,
            raised_keys: 3,
            sheds: 2,
            degraded: true,
            truncation: Some(TruncationReason::PoolExhausted),
            ..EvalStats::default()
        };
        round_trip(&stats, put_stats, take_stats);
    }

    #[test]
    fn query_profile_round_trips() {
        let mut profile = QueryProfile::new();
        profile.push("parse", 950);
        profile.push("conjunct_1", 2_000_000);
        profile.push("total", 2_500_000);
        round_trip(&profile, put_profile, take_profile);
        round_trip(&QueryProfile::new(), put_profile, take_profile);
    }

    #[test]
    fn exec_options_carry_the_profile_flag() {
        for on in [false, true] {
            let options = ExecOptions::new().with_profile(on);
            let mut w = Writer::new();
            put_exec_options(&mut w, &options);
            let back = take_exec_options(&mut Reader::new(&w.into_inner())).unwrap();
            assert_eq!(back.profile, on);
        }
    }
}
