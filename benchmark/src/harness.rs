//! What the four workloads share: the run sequence (set-ups, verification,
//! timed window, post-checks, report), the sample store, the in-process read
//! op with its spans, and the process-level readings.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use omega_core::{Answer, Database, EvalStats, ExecOptions, PreparedQuery};

use crate::check::{matches, outcome, Expected, Fingerprint, Outcome};
use crate::fnv::fnv;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{percentile, tail};
use crate::trace::Tracer;
use crate::{alloc, platform, probes};

/// How many complete set-ups one untraced run performs; `setup_s` is the
/// quietest of them (the same rule as [`QUIET_SHARE`]) and the last one's
/// state is what the window measures.
pub const SETUP_REPEATS: usize = 7;

/// The share of a run's passes its timing metrics are computed over: the
/// quietest tenth, by pass duration. Interference in this sandbox only ever
/// slows a pass, comes in bursts of seconds, and at its worst doubles a
/// socket round trip; a statistic over the whole window then reports mostly
/// how many bursts the window caught (`serve-short`'s whole-window median
/// moved 13 % and its p95 23 % between runs of one binary on a bad day; over
/// the quietest tenth, 6 % and 15 %; on a good day 2 % and 3 %). Every run
/// has quiet passes, and what the program does in them is what repeats.
pub const QUIET_SHARE: f64 = 0.10;

/// The fewest samples the quiet share may hold: p95 with ten beyond. Without
/// it a slow day's `embed-flex` run (27 ops a pass) left the tail percentile
/// too few samples, and `op_tail_ms` fell back from p90 to p75 — from M3
/// APPROX to another statement, at half the latency.
pub const QUIET_MIN_OPS: usize = 200;

/// Answers in the paper's first batch.
pub const FIRST_BATCH: usize = 10;

/// One invocation in the driver's form.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A directory of the run's own under `benchmark/out/`, removed on drop. The
/// path is relative to the working directory (the checkout's root) so a unix
/// socket inside it stays under the 108-byte address limit wherever the
/// checkout lives.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        let dir = Path::new("benchmark/out").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// An empty sub-directory, replacing whatever a previous set-up left.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `(VmHWM, VmRSS)` of this process in MB.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// The samples of one measurement window.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of every caller-visible op, ms.
    pub op_ms: Vec<f64>,
    /// Call -> 10th answer (or end of stream) of every read op, ms.
    pub first_batch_ms: Vec<f64>,
    /// Duration of every whole pass, s.
    pub pass_s: Vec<f64>,
    /// `(op_ms.len(), first_batch_ms.len(), attempted)` at the end of every
    /// pass.
    pub pass_marks: Vec<(usize, usize, u64)>,
    /// Ops attempted, and those that errored, were refused or failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// Answers consumed.
    pub answers: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    /// `VmHWM` in MB when the second pass ended (the first, in a one-pass
    /// run): after every set-up and a fixed amount of work, so neither the
    /// run's length nor its speed — nor how many samples this struct has
    /// grown to hold — is in the reading.
    pub peak_rss_mb: f64,
}

impl Window {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// The run's quiet share: the [`QUIET_SHARE`] of passes that took the
    /// least time — and as many more, in the same order, as it takes to hold
    /// [`QUIET_MIN_OPS`] samples — pooled. Returns the sorted op latencies,
    /// the sorted first-batch latencies, and ops per second over those
    /// passes.
    pub fn quiet(&self) -> (Vec<f64>, Vec<f64>, f64) {
        let mut order: Vec<usize> = (0..self.pass_s.len()).collect();
        order.sort_unstable_by(|a, b| self.pass_s[*a].total_cmp(&self.pass_s[*b]));
        let share = (self.pass_s.len() as f64 * QUIET_SHARE).ceil() as usize;
        let (mut ops, mut firsts, mut attempted, mut seconds) = (Vec::new(), Vec::new(), 0, 0.0);
        for (taken, pass) in order.into_iter().enumerate() {
            if taken >= share.max(1) && ops.len() >= QUIET_MIN_OPS {
                break;
            }
            let (op_from, first_from, attempted_from) = pass
                .checked_sub(1)
                .map_or((0, 0, 0), |before| self.pass_marks[before]);
            let (op_to, first_to, attempted_to) = self.pass_marks[pass];
            ops.extend_from_slice(&self.op_ms[op_from..op_to]);
            firsts.extend_from_slice(&self.first_batch_ms[first_from..first_to]);
            attempted += attempted_to - attempted_from;
            seconds += self.pass_s[pass];
        }
        ops.sort_unstable_by(f64::total_cmp);
        firsts.sort_unstable_by(f64::total_cmp);
        (ops, firsts, attempted as f64 / seconds)
    }
}

/// Work counters and answer counts of the traced window. The counters are
/// those of the first traced pass only: every pass repeats the same ops, and
/// a fixed prefix repeats exactly from run to run where a time-bounded total
/// would not.
#[derive(Debug, Default)]
pub struct EvalAccum {
    first_pass_over: bool,
    pub stats: EvalStats,
    pub ops: u64,
    pub answers: u64,
}

impl EvalAccum {
    pub fn note(&mut self, stats: EvalStats, answers: usize) {
        if !self.first_pass_over {
            self.stats += stats;
            self.ops += 1;
            self.answers += answers as u64;
        }
    }
}

/// The per-layer table of one traced run: every catalogue name, 0 until set.
#[derive(Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|d| (d.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.0.get_mut(name);
        debug_assert!(slot.is_some(), "{name} is not in the catalogue");
        if let Some(slot) = slot {
            *slot = value;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a read op executes.
pub enum ReadSource<'a> {
    /// A statement prepared ahead (the prepare cache is not on the op's path).
    Prepared(&'a PreparedQuery),
    /// A text prepared as part of the op (`Database::execute`'s path:
    /// `prepare(text)` then the stream).
    Text(&'a Database, &'a str),
}

/// One read op and what its answers are held against.
pub struct ReadOp<'a> {
    pub source: ReadSource<'a>,
    /// Must carry `with_profile(true)` exactly when the tracer is on.
    pub request: &'a ExecOptions,
    pub limit: usize,
    /// The statement's reference outcome; `None` where the graph changes
    /// under the reads, and only the stream invariants can be held.
    pub reference: Option<&'a Outcome>,
}

/// The mutable pieces an op records into.
pub struct OpCtx<'a> {
    pub win: &'a mut Window,
    pub tracer: &'a mut Tracer,
    pub eval: &'a mut EvalAccum,
    /// The op's answers; reused across ops.
    pub buf: &'a mut Vec<Answer>,
    /// Request identifier shared by the op's spans.
    pub request: u64,
}

/// Pulls a stream dry into `buf`, batch by batch as the paper's client does;
/// returns the time to the first batch in ms.
pub fn drain<E>(
    mut next: impl FnMut() -> Result<Option<Answer>, E>,
    buf: &mut Vec<Answer>,
    started: Instant,
) -> Result<f64, E> {
    buf.clear();
    let mut first_batch = None;
    while let Some(answer) = next()? {
        buf.push(answer);
        if buf.len() == FIRST_BATCH {
            first_batch = Some(ms_since(started));
        }
    }
    Ok(first_batch.unwrap_or_else(|| ms_since(started)))
}

pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Holds an op's answers against its reference (or the invariants) and
/// records the op's samples, or its failure.
pub fn settle(
    what: &str,
    limit: usize,
    reference: Option<&Outcome>,
    timing: Result<(f64, f64), String>,
    answers: &[Answer],
    win: &mut Window,
) {
    let checked = timing.and_then(|timing| match reference {
        Some(reference) if matches(answers, limit, reference) => Ok(timing),
        Some(_) => Err("answers differ from the reference".to_owned()),
        None => outcome(answers, limit).map(|_| timing),
    });
    match checked {
        Ok((total_ms, first_batch_ms)) => {
            win.op_ms.push(total_ms);
            win.first_batch_ms.push(first_batch_ms);
            win.answers += answers.len() as u64;
        }
        Err(e) => win.fail(format!("{what}: {e}")),
    }
}

/// One in-process read op: call -> last answer consumed, with its spans and
/// (traced runs) the program's own phase profile hung beneath them, then the
/// check of its answers.
pub fn read_op(op: &ReadOp<'_>, ctx: &mut OpCtx<'_>) {
    ctx.win.attempted += 1;
    let started = Instant::now();
    let root = ctx.tracer.begin("op", ctx.request);
    let prepared_here;
    let (prepared, what) = match op.source {
        ReadSource::Prepared(prepared) => (Ok(prepared), "prepared statement"),
        ReadSource::Text(db, text) => {
            let span = ctx.tracer.begin("core.prepare", ctx.request);
            prepared_here = db.prepare(text);
            ctx.tracer.end(span);
            (prepared_here.as_ref(), text)
        }
    };
    let timing = prepared
        .map_err(|e| format!("prepare: {e}"))
        .and_then(|prepared| {
            let span = ctx.tracer.begin("core.eval", ctx.request);
            let mut stream = prepared.answers(op.request);
            let drained = drain(|| stream.next_answer(), ctx.buf, started);
            let total_ms = ms_since(started);
            if ctx.tracer.is_on() {
                if let Some(profile) = stream.take_profile() {
                    record_phases(ctx.tracer, ctx.request, &profile);
                }
                ctx.eval.note(stream.stats(), ctx.buf.len());
            }
            drop(stream);
            ctx.tracer.end(span);
            drained
                .map(|first_batch_ms| (total_ms, first_batch_ms))
                .map_err(|e| format!("execute: {e}"))
        });
    ctx.tracer.end(root);
    settle(what, op.limit, op.reference, timing, ctx.buf, ctx.win);
}

/// Hangs the evaluator phases of a program-reported profile beneath the span
/// open now, as spans ending now.
pub fn record_phases(tracer: &mut Tracer, request: u64, profile: &omega_core::QueryProfile) {
    let mut conjuncts = 0u64;
    for phase in profile.phases() {
        match phase.name.as_str() {
            "rank_join" => tracer.record("core.eval.rank_join", request, phase.nanos),
            "streaming" => tracer.record("core.eval.streaming", request, phase.nanos),
            name if name.starts_with("conjunct_") => conjuncts += phase.nanos,
            _ => {}
        }
    }
    tracer.record("core.eval.conjunct", request, conjuncts);
}

/// One of the four workloads. The harness drives these in a fixed order;
/// see [`run`].
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The tail percentile `op_tail_ms` asks for.
    const TAIL: f64;
    /// The committed `expected/<name>.json`.
    const EXPECTED: &'static str;

    /// One whole set-up from the seed: generate, build or open the database,
    /// start what serves it, prepare, and run one warm-up pass over the
    /// distinct statements, keeping each one's outcome as its reference.
    fn setup(seed: u64, scratch: &Scratch, tracer: &mut Tracer) -> Result<Self, String>;

    /// The database the ops run against (for the program's own counters).
    fn db(&self) -> &Database;

    /// Node and edge counts and the triple digest of the generated dataset,
    /// and the digest of the op list.
    fn fingerprint(&self) -> Fingerprint;

    /// Distinct statements with the outcome the warm-up pass saw.
    fn references(&self) -> &[(String, Outcome)];

    /// Cross-checks beyond the references (wire against in-process).
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One pass over the op list.
    fn pass(&mut self, win: &mut Window, tracer: &mut Tracer, eval: &mut EvalAccum);

    /// Checks after the window (durability); may add per-layer rows.
    fn finish(
        &mut self,
        _trace: bool,
        _scratch: &Scratch,
        _layers: &mut Layers,
    ) -> Result<(), String> {
        Ok(())
    }

    /// The workload's own layer probes and program-reported rows.
    fn probes(&mut self, _scratch: &Scratch, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }
}

/// The result line of one run.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, unit, value)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Runs whole passes until `seconds` have gone by (at least one).
fn window<W: Workload>(
    state: &mut W,
    seconds: f64,
    tracer: &mut Tracer,
    eval: &mut EvalAccum,
) -> Window {
    let mut win = Window::default();
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        state.pass(&mut win, tracer, eval);
        win.pass_s.push(pass_started.elapsed().as_secs_f64());
        win.pass_marks
            .push((win.op_ms.len(), win.first_batch_ms.len(), win.attempted));
        if win.pass_s.len() <= 2 {
            win.peak_rss_mb = rss_mb().0;
        }
        eval.first_pass_over = true;
        if started.elapsed().as_secs_f64() >= seconds {
            return win;
        }
    }
}

/// Compares what the set-up saw with what is committed. The datasets do not
/// depend on the seed, so their fingerprint holds for every seed; the op list
/// and (where the texts are seeded) the statements hold for the blessed one.
fn verify_inputs<W: Workload>(state: &W, seed: u64) -> Result<(), String> {
    let expected =
        Expected::parse(W::EXPECTED).map_err(|e| format!("expected/{}.json: {e}", W::NAME))?;
    let seen = state.fingerprint();
    eprintln!(
        "{}: seed {seed} nodes {} edges {} triples {:016x} ops {:016x}",
        W::NAME,
        seen.nodes,
        seen.edges,
        seen.triples,
        seen.ops
    );
    let want = &expected.fingerprint;
    if (seen.nodes, seen.edges, seen.triples) != (want.nodes, want.edges, want.triples) {
        return Err(format!(
            "input drift: the generated dataset is {} nodes / {} edges / {:016x}, expected/{}.json says {} / {} / {:016x}; \
             omega-datagen changed, so numbers would shift silently — re-bless (omega-benchmark bless) in a change of its own",
            seen.nodes, seen.edges, seen.triples, W::NAME, want.nodes, want.edges, want.triples
        ));
    }
    if seed == expected.seed && seen.ops != want.ops {
        return Err(format!(
            "input drift: op list digest {:016x}, expected/{}.json says {:016x}",
            seen.ops,
            W::NAME,
            want.ops
        ));
    }
    for (text, outcome) in state.references() {
        match expected.statements.get(&fnv(text)) {
            Some(want) if want != outcome => {
                return Err(format!(
                    "wrong answers for {text}: {outcome:?}, expected {want:?}"
                ));
            }
            None if seed == expected.seed => {
                return Err(format!("expected/{}.json has no entry for {text}", W::NAME));
            }
            _ => {}
        }
    }
    Ok(())
}

/// One run of workload `W` in the driver's form.
pub fn run<W: Workload>(args: &Args) -> Result<RunResult, String> {
    // One core for the whole process, the server threads of `serve-short`
    // included (they inherit it); the second core where there is one, the
    // first takes more of the machine's interrupts.
    let _ = platform::pin_current_thread(1) || platform::pin_current_thread(0);
    platform::keep_freed_memory();
    let scratch = Scratch::new()?;
    let mut setup_tracer = Tracer::new(args.trace);
    let (_, rss_before) = rss_mb();

    // Set-ups: each from nothing, the previous one torn down first so two
    // datasets are never resident together.
    let mut setup_s = Vec::new();
    let mut state: Option<W> = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPEATS } {
        drop(state.take());
        let started = Instant::now();
        state = Some(W::setup(args.seed, &scratch, &mut setup_tracer)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut state = state.ok_or("no set-up ran")?;
    let (_, rss_after) = rss_mb();

    verify_inputs(&state, args.seed)?;
    state.verify()?;

    let mut layers = Layers::new();
    let mut eval = EvalAccum::default();
    let mut tracer = Tracer::new(false);
    let win = if args.trace {
        // A quarter untraced, half traced, and the probes take the rest.
        let untraced = window(
            &mut state,
            args.seconds * 0.25,
            &mut tracer,
            &mut EvalAccum::default(),
        );
        let exposed_before = state.db().metrics().expose();
        let allocs_before = alloc::counted();
        tracer = Tracer::new(true);
        alloc::set_counting(true);
        let traced = window(&mut state, args.seconds * 0.5, &mut tracer, &mut eval);
        alloc::set_counting(false);
        layers.set(
            "obs.trace_overhead_ratio",
            traced.quiet().2 / untraced.quiet().2,
        );
        let allocs = alloc::counted();
        let answers = traced.answers.max(1) as f64;
        layers.set(
            "alloc.count_per_answer",
            (allocs.0 - allocs_before.0) as f64 / answers,
        );
        layers.set(
            "alloc.bytes_per_answer",
            (allocs.1 - allocs_before.1) as f64 / answers,
        );
        program_rows(state.db(), &exposed_before, &mut layers);
        traced
    } else {
        window(&mut state, args.seconds, &mut tracer, &mut eval)
    };

    let mut correct = win.failed == 0;
    for failure in &win.failures {
        eprintln!("{}: FAILED {failure}", W::NAME);
    }
    if let Err(e) = state.finish(args.trace, &scratch, &mut layers) {
        eprintln!("{}: FAILED post-check: {e}", W::NAME);
        correct = false;
    }

    let metrics =
        if args.trace {
            span_rows(&tracer, &setup_tracer, &mut layers);
            eval_rows(&eval, &mut layers);
            let edges = state.db().graph().edge_count().max(1) as f64;
            layers.set(
                "graph.rss_bytes_per_edge",
                (rss_after - rss_before).max(0.0) * 1024.0 * 1024.0 / edges,
            );
            let texts: Vec<&str> = state.references().iter().map(|(t, _)| t.as_str()).collect();
            probes::compile(state.db(), &texts, &mut layers);
            probes::csr_scan(&state.db().graph(), args.seed, &mut layers);
            probes::freeze(&state.db().graph(), &mut layers);
            state.probes(&scratch, &mut layers)?;
            write_trace::<W>(args.seed, &setup_tracer, &tracer)?;
            check_dominance(W::NAME, &layers);
            PER_LAYER
                .iter()
                .map(|d| (d.name, d.unit, layers.get(d.name)))
                .collect()
        } else {
            let (op_ms, first_batch_ms, throughput) = win.quiet();
            let (tail_p, tail_ms) = tail(&op_ms, W::TAIL);
            eprintln!(
            "{}: {} ops in {} passes, {} set-ups; the quiet tenth is {} ops, op_tail_ms is p{:.0}",
            W::NAME, win.attempted, win.pass_s.len(), setup_s.len(), op_ms.len(), tail_p * 100.0
        );
            let values = [
                // The quiet tenth of seven set-ups is the fastest one.
                setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                percentile(&op_ms, 0.5),
                tail_ms,
                percentile(&first_batch_ms, 0.5),
                throughput,
                win.peak_rss_mb,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(d, v)| (d.name, d.unit, v))
                .collect()
        };
    drop(state);
    Ok(RunResult {
        correct,
        attempted: win.attempted.max(1),
        failed: win.failed,
        metrics,
    })
}

/// Rows the program itself reports: prepare-cache counters over the traced
/// window and the governor's rejections.
fn program_rows(db: &Database, exposed_before: &str, layers: &mut Layers) {
    let exposed = db.metrics().expose();
    let delta = |series: &str| {
        omega_obs::find_value(&exposed, series).unwrap_or(0.0)
            - omega_obs::find_value(exposed_before, series).unwrap_or(0.0)
    };
    let prepares = delta("omega_core_prepares_total");
    if prepares > 0.0 {
        layers.set(
            "core.prepare.hit_ratio",
            delta("omega_core_prepare_cache_hits_total") / prepares,
        );
    }
    layers.set(
        "core.govern.rejected",
        db.governor().gauges().rejected as f64,
    );
    layers.set(
        "core.govern.sheds",
        omega_obs::find_value(&exposed, "omega_govern_sheds_total").unwrap_or(0.0),
    );
}

/// Rows read off the spans: self time per call of each layer, and each
/// group's share of the traced op time.
fn span_rows(tracer: &Tracer, setup: &Tracer, layers: &mut Layers) {
    let totals = tracer.self_times();
    let per_call = |name: &str, unit_ns: f64| {
        totals.get(name).map_or(0.0, |(ns, calls)| {
            *ns as f64 / (*calls).max(1) as f64 / unit_ns
        })
    };
    for (row, span, unit_ns) in [
        ("core.prepare_us", "core.prepare", 1e3),
        ("core.eval.conjunct_ms", "core.eval.conjunct", 1e6),
        ("core.eval.rank_join_ms", "core.eval.rank_join", 1e6),
        ("core.eval.streaming_ms", "core.eval.streaming", 1e6),
        ("core.eval.unexplained_ms", "core.eval", 1e6),
        ("client.stream_ms", "client.stream", 1e6),
        ("graph.compact_ms", "graph.compact", 1e6),
        ("core.apply_ms", "core.apply", 1e6),
    ] {
        layers.set(row, per_call(span, unit_ns));
    }

    let all: u64 = totals.values().map(|(ns, _)| ns).sum();
    let share = |prefixes: &[&str]| {
        let part: u64 = totals
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, (ns, _))| ns)
            .sum();
        part as f64 / all.max(1) as f64
    };
    layers.set("share.eval", share(&["core.eval"]));
    layers.set("share.prepare", share(&["core.prepare"]));
    layers.set("share.evaluator", share(&["core.eval.conjunct"]));
    layers.set("share.write", share(&["core.apply", "graph.compact"]));

    let setup_totals = setup.self_times();
    let once = |name: &str, unit_ns: f64| {
        setup_totals
            .get(name)
            .map_or(0.0, |(ns, _)| *ns as f64 / unit_ns)
    };
    layers.set("datagen.generate_s", once("datagen.generate", 1e9));
    layers.set("graph.snapshot.save_ms", once("graph.snapshot.save", 1e6));
    layers.set("graph.snapshot.open_ms", once("graph.snapshot.open", 1e6));
}

fn eval_rows(eval: &EvalAccum, layers: &mut Layers) {
    let ops = eval.ops.max(1) as f64;
    let stats = &eval.stats;
    for (row, count) in [
        ("core.eval.tuples_added_per_op", stats.tuples_added),
        ("core.eval.succ_calls_per_op", stats.succ_calls),
        (
            "core.eval.neighbour_lookups_per_op",
            stats.neighbour_lookups,
        ),
        ("core.eval.pruned_bound_per_op", stats.pruned_bound),
    ] {
        layers.set(row, count as f64 / ops);
    }
    layers.set(
        "core.eval.tuples_per_answer",
        stats.tuples_added as f64 / eval.answers.max(1) as f64,
    );
}

fn write_trace<W: Workload>(seed: u64, setup: &Tracer, window: &Tracer) -> Result<(), String> {
    let path = Path::new("benchmark/out").join(format!("trace-{}.json", W::NAME));
    let doc = Json::obj([
        ("setup", setup.to_json(W::NAME, seed)),
        ("window", window.to_json(W::NAME, seed)),
    ]);
    std::fs::write(&path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// What a workload was built to stress: a `share.*` row and the side of a
/// threshold it must stay on.
pub struct Dominance {
    pub row: &'static str,
    at_least: bool,
    threshold: f64,
}

impl Dominance {
    pub fn of(workload: &str) -> Dominance {
        let (row, at_least, threshold) = match workload {
            "embed-flex" => ("share.eval", true, 0.80),
            "adhoc-compile" => ("share.prepare", true, 0.50),
            "serve-short" => ("share.evaluator", false, 0.30),
            // The write path is the subject: `apply` and `compact` must stay
            // the largest part (0.40 on L1; the re-prepares each write forces
            // are another 0.29, the evaluator 0.30).
            _ => ("share.write", true, 0.30),
        };
        Dominance {
            row,
            at_least,
            threshold,
        }
    }

    pub fn holds(&self, value: f64) -> bool {
        (value >= self.threshold) == self.at_least
    }

    /// `share.eval = 0.912 (must be >= 0.8)`.
    pub fn describe(&self, value: f64) -> String {
        let side = if self.at_least { ">=" } else { "<=" };
        format!(
            "{} = {value:.3} (must be {side} {})",
            self.row, self.threshold
        )
    }
}

/// Says loudly when a workload no longer stresses the layer it was built
/// for. The result line stays usable (a change that made the layer fast is
/// not an incorrect program); `omega-benchmark trace` turns this into its
/// exit code.
fn check_dominance(workload: &str, layers: &Layers) {
    let dominance = Dominance::of(workload);
    let value = layers.get(dominance.row);
    if !dominance.holds(value) {
        eprintln!(
            "{workload}: DOMINANCE LOST: {} — this workload no longer stresses the layer it was built for",
            dominance.describe(value)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten passes of `per_pass` ops each; pass `i` takes `durations[i]`
    /// seconds and every op of it `i` ms (its first batch half that).
    fn window(durations: [f64; 10], per_pass: usize) -> Window {
        let mut win = Window::default();
        for (i, seconds) in durations.into_iter().enumerate() {
            for _ in 0..per_pass {
                win.attempted += 1;
                win.op_ms.push(i as f64);
                win.first_batch_ms.push(i as f64 / 2.0);
            }
            win.pass_s.push(seconds);
            win.pass_marks
                .push((win.op_ms.len(), win.first_batch_ms.len(), win.attempted));
        }
        win
    }

    const DURATIONS: [f64; 10] = [5.0, 4.0, 3.0, 0.5, 6.0, 7.0, 8.0, 9.0, 2.0, 1.0];

    #[test]
    fn quiet_share_pools_the_fastest_passes() {
        // Pass 3 is the quietest of ten and holds enough samples: the quiet
        // tenth is that pass alone.
        let (ops, firsts, throughput) = window(DURATIONS, QUIET_MIN_OPS).quiet();
        assert_eq!(ops, vec![3.0; QUIET_MIN_OPS]);
        assert_eq!(firsts, vec![1.5; QUIET_MIN_OPS]);
        assert_eq!(throughput, QUIET_MIN_OPS as f64 / 0.5);
    }

    #[test]
    fn quiet_share_grows_until_it_holds_enough_samples() {
        // Half as many ops a pass: the next quietest pass (9) comes in too.
        let (ops, _, throughput) = window(DURATIONS, QUIET_MIN_OPS / 2).quiet();
        assert_eq!(ops.len(), QUIET_MIN_OPS);
        assert_eq!((ops[0], ops[QUIET_MIN_OPS - 1]), (3.0, 9.0));
        assert_eq!(throughput, QUIET_MIN_OPS as f64 / 1.5);
    }

    #[test]
    fn a_single_pass_is_its_own_quiet_share() {
        let win = Window {
            attempted: 3,
            op_ms: vec![3.0, 1.0, 2.0],
            pass_s: vec![2.0],
            pass_marks: vec![(3, 0, 3)],
            ..Window::default()
        };
        let (ops, firsts, throughput) = win.quiet();
        assert_eq!(ops, [1.0, 2.0, 3.0]);
        assert!(firsts.is_empty());
        assert_eq!(throughput, 1.5);
    }

    #[test]
    fn layers_start_at_zero_for_every_catalogue_row() {
        let layers = Layers::new();
        assert!(PER_LAYER.iter().all(|d| layers.get(d.name) == 0.0));
    }
}
