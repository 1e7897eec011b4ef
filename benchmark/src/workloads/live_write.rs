//! `live-write`: a database with a write-ahead log under a write-then-read
//! cycle. The write path — `GraphStore::with_delta`, the log append, the
//! statistics recompute — dominates; the reads sit beside the writes so that
//! a design that speeds `apply` but slows overlay scans, or forces more
//! recompiles, shows in the same run.
//!
//! Two choices keep the gated numbers the program's and not the machine's
//! (the driver refused the first version: ten runs of one binary spread 23 %
//! and 25 % on `op_tail_ms`, the write ack):
//!
//! * The graph is L4All **L1**, not L2. `apply` is O(graph); on L2 each
//!   one streams tens of MB through the caches, and a neighbour busy on the
//!   host's memory moved every number of the workload by 15–18 % (a copy loop
//!   on the other core does the same on demand), where the other three
//!   workloads move 0–7 %. On L1 the same loop moves it 0–5 %. The write
//!   still costs seven reads, and L2 is the twin of the traced
//!   `graph.overlay.apply_scaling` probe.
//! * The log runs under [`FsyncPolicy::Never`]. An `fsync` here is the
//!   sandbox's disk queue, 0.6–1.1 ms by the host's load inside an L1 ack
//!   of 0.65 ms; the append (encode, checksum, `write`) stays on the path,
//!   and the device's part is the `graph.wal.sync_us` probe's row.
//!
//! The live edges are a rolling window: 48 slots of 64 seeded edges each, of
//! which the last 16 added are live. Batch `i` adds slot `i % 48` and removes
//! the slot added 16 batches before, so the graph neither grows nor shrinks
//! over a run of any length, a faster write path does not face a larger graph
//! than a slower one, and every 64-cycle pass does the same amount of work.
//! (48 does not divide 64: were the window back where it started at each
//! compaction, adds and removes would have cancelled to an empty overlay and
//! `compact()` would have nothing to do.)

use std::path::{Path, PathBuf};
use std::time::Instant;

use omega_core::{
    Answer, Database, EvalOptions, FsyncPolicy, GovernorConfig, MutationBatch, WalConfig,
};
use omega_datagen::{generate_l4all, L4AllConfig, L4AllScale};
use omega_graph::{GraphDelta, GraphStore};

use crate::check::{Fingerprint, Outcome};
use crate::fnv::fnv_list;
use crate::harness::{
    ms_since, read_op, EvalAccum, Layers, OpCtx, ReadOp, ReadSource, Scratch, Window, Workload,
};
use crate::probes;
use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{l4all, reference_pass, request, short_statements, TOP_K};

/// The dataset the writes land on, and the larger twin of the scaling probe.
const SCALE: L4AllScale = L4AllScale::L1;
const TWIN_SCALE: L4AllScale = L4AllScale::L2;

const SLOTS: usize = 48;
/// Slots live at any time; a slot is removed this many batches after it was
/// added.
const LIVE: usize = 16;
/// Edges per slot: a 33-episode timeline, `next` between neighbours and a
/// `type` edge per episode.
const EPISODES: usize = 32;
/// Reads per cycle.
const READS: usize = 8;
/// Cycles per pass; each pass ends with one `compact()`. 64 of these batches
/// are the 8192 overlay entries at which the daemon compacts by default
/// (`--compact-threshold`), and a pass stays short (~0.14 s) beside the
/// bursts the quiet tenth has to step around.
const CYCLES: usize = 64;

type Triple = (String, String, String);

/// The seeded content of the slots: every slot the same shape (so every
/// window of 16 costs the reads the same), the seed in the names and in which
/// class an episode starts on.
fn slots(seed: u64) -> Vec<Vec<Triple>> {
    let phase = Rng::new(seed, 3).below(2);
    (0..SLOTS)
        .map(|slot| {
            let episode = |k: usize| format!("Live {seed} Timeline {slot} Episode {k}");
            (0..EPISODES)
                .flat_map(|k| {
                    let class = ["Work Episode", "Educational Episode"][(k + phase) % 2];
                    [
                        (episode(k), "next".to_owned(), episode(k + 1)),
                        (episode(k), "type".to_owned(), class.to_owned()),
                    ]
                })
                .collect()
        })
        .collect()
}

/// What batch `index` adds and removes.
fn batch_slots(index: usize) -> (usize, Option<usize>) {
    (
        index % SLOTS,
        (index >= LIVE).then(|| (index - LIVE) % SLOTS),
    )
}

/// The edges batch `index` adds and those it removes.
fn batch_edges(slots: &[Vec<Triple>], index: usize) -> (&[Triple], &[Triple]) {
    let (add, remove) = batch_slots(index);
    (&slots[add], remove.map_or(&[], |slot| &slots[slot]))
}

/// Batch `index` as the graph layer takes it (for the probes).
fn delta(slots: &[Vec<Triple>], index: usize) -> GraphDelta {
    let (adds, removes) = batch_edges(slots, index);
    let mut delta = GraphDelta::new();
    for (s, l, t) in adds {
        delta.add(s, l, t);
    }
    for (s, l, t) in removes {
        delta.remove(s, l, t);
    }
    delta
}

/// Batch `index` as `Database::apply` takes it.
fn batch(slots: &[Vec<Triple>], index: usize) -> MutationBatch {
    let (adds, removes) = batch_edges(slots, index);
    let mut batch = MutationBatch::new();
    for (s, l, t) in adds {
        batch.add(s, l, t);
    }
    for (s, l, t) in removes {
        batch.remove(s, l, t);
    }
    batch
}

fn has_triple(graph: &GraphStore, (s, l, t): &Triple) -> bool {
    match (
        graph.node_by_label(s),
        graph.label_id(l),
        graph.node_by_label(t),
    ) {
        (Some(s), Some(l), Some(t)) => graph.has_edge(s, l, t),
        _ => false,
    }
}

/// Whether `graph` holds exactly the live window as of `batches` applied:
/// every edge of the last [`LIVE`] slots added, none of the others', and
/// nothing else on top of the `base_edges` it started from.
fn holds_window(
    graph: &GraphStore,
    slots: &[Vec<Triple>],
    batches: usize,
    base_edges: usize,
) -> Result<(), String> {
    let live: Vec<usize> = (batches.saturating_sub(LIVE)..batches)
        .map(|i| i % SLOTS)
        .collect();
    for (slot, edges) in slots.iter().enumerate() {
        let want = live.contains(&slot);
        if let Some(edge) = edges.iter().find(|e| has_triple(graph, e) != want) {
            return Err(format!(
                "after {batches} acknowledged batches slot {slot} should be {}: {edge:?}",
                if want { "present" } else { "absent" }
            ));
        }
    }
    let want = base_edges + live.len() * EPISODES * 2;
    if graph.edge_count() != want {
        return Err(format!(
            "{} edges, the acknowledged batches make {want}",
            graph.edge_count()
        ));
    }
    Ok(())
}

fn durable(
    dir: &Path,
    graph: GraphStore,
    ontology: omega_ontology::Ontology,
) -> Result<(Database, omega_core::RecoveryReport), String> {
    Database::with_governor_durable(
        graph,
        ontology,
        EvalOptions::default(),
        GovernorConfig::default(),
        &WalConfig::new(dir).with_fsync(FsyncPolicy::Never),
    )
    .map_err(|e| format!("open durable database in {}: {e}", dir.display()))
}

pub struct LiveWrite {
    db: Database,
    wal_dir: PathBuf,
    slots: Vec<Vec<Triple>>,
    /// The read statements, in this seed's order.
    reads: Vec<String>,
    references: Vec<(String, Outcome)>,
    /// Edges of the generated dataset, before the first write.
    base_edges: usize,
    /// Batches applied (and acknowledged) so far.
    batches: usize,
    since_compact: usize,
    buf: Vec<Answer>,
    next_request: u64,
    // Traced-window samples behind the live-write rows.
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    overlay_at_compact: Vec<f64>,
    edges_rewritten: Vec<f64>,
    traced_cycles: u64,
    traced_compilations: u64,
}

impl LiveWrite {
    /// One write op: build, apply, and hold the acknowledgement against the
    /// model — the report's counts, the epoch step, and read-your-writes on
    /// the published graph.
    fn write(&mut self, win: &mut Window, tracer: &mut Tracer) {
        win.attempted += 1;
        self.next_request += 1;
        let index = self.batches;
        let batch = batch(&self.slots, index);
        let epoch_before = self.db.epoch();
        let started = Instant::now();
        let span = tracer.begin("core.apply", self.next_request);
        let report = self.db.apply(&batch);
        tracer.end(span);
        let ack_ms = ms_since(started);

        let (added, removed) = batch_slots(index);
        let check = report.map_err(|e| e.to_string()).and_then(|report| {
            self.batches += 1;
            self.since_compact += 1;
            let want_removed = removed.map_or(0, |_| EPISODES as u64 * 2);
            if (report.added, report.removed) != (EPISODES as u64 * 2, want_removed)
                || report.epoch != epoch_before + 1
            {
                return Err(format!("batch {index} acknowledged as {report:?}"));
            }
            let graph = self.db.graph();
            let visible = self.slots[added].iter().all(|e| has_triple(&graph, e))
                && removed
                    .is_none_or(|slot| !self.slots[slot].iter().any(|e| has_triple(&graph, e)));
            if visible {
                Ok(())
            } else {
                Err(format!("batch {index} acknowledged but not visible"))
            }
        });
        match check {
            Ok(()) => {
                win.op_ms.push(ack_ms);
                if tracer.is_on() {
                    self.write_ms.push(ack_ms);
                }
            }
            Err(e) => win.fail(format!("apply: {e}")),
        }
    }

    fn compact(&mut self, win: &mut Window, tracer: &mut Tracer) {
        win.attempted += 1;
        self.next_request += 1;
        let overlay = self.db.graph().overlay_edges();
        let epoch_before = self.db.epoch();
        let span = tracer.begin("graph.compact", self.next_request);
        let epoch = self.db.compact();
        tracer.end(span);
        self.since_compact = 0;
        let graph = self.db.graph();
        if epoch != epoch_before + 1 || graph.has_overlay() {
            win.fail(format!(
                "compact left epoch {epoch} after {epoch_before}, overlay {}",
                graph.overlay_edges()
            ));
        }
        if tracer.is_on() {
            self.overlay_at_compact.push(overlay as f64);
            self.edges_rewritten.push(graph.edge_count() as f64);
        }
    }

    /// Copies the log directory as it stands — every append acknowledged so
    /// far has been written to the file, so this is what a crash of the
    /// process now would leave — reopens the copy, and times reopen -> first
    /// answer. Returns the seconds and the records replayed.
    fn recover(&self, scratch: &Scratch) -> Result<(f64, u64), String> {
        let image = scratch.fresh_dir("crash-image")?;
        for entry in std::fs::read_dir(&self.wal_dir).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            std::fs::copy(entry.path(), image.join(entry.file_name()))
                .map_err(|e| e.to_string())?;
        }
        let base = generate_l4all(&L4AllConfig::at_scale(SCALE));
        let started = Instant::now();
        let (recovered, report) = durable(&image, base.graph, base.ontology)?;
        let first = recovered
            .execute(&self.reads[0], &request(TOP_K, false))
            .map_err(|e| e.to_string())?;
        let seconds = started.elapsed().as_secs_f64();
        if first.is_empty() {
            return Err("the recovered database answers nothing".into());
        }
        if report.records != self.since_compact as u64 || report.truncated_bytes != 0 {
            return Err(format!(
                "recovery replayed {report:?}, {} batches were acknowledged since the checkpoint",
                self.since_compact
            ));
        }
        holds_window(
            &recovered.graph(),
            &self.slots,
            self.batches,
            self.base_edges,
        )?;
        Ok((seconds, report.records))
    }
}

impl Workload for LiveWrite {
    const NAME: &'static str = "live-write";
    const TAIL: f64 = 0.95;
    const EXPECTED: &'static str = include_str!("../../expected/live-write.json");

    fn setup(seed: u64, scratch: &Scratch, tracer: &mut Tracer) -> Result<Self, String> {
        let data = l4all(SCALE, tracer);
        let wal_dir = scratch.fresh_dir("wal")?;
        let (db, _) = durable(&wal_dir, data.graph, data.ontology)?;
        // Warm-up and references before the first write, where the answers
        // do not depend on the seed's edges.
        let mut reads = short_statements();
        let references = reference_pass(&db, &reads, TOP_K)?;
        Rng::new(seed, 1).shuffle(&mut reads);
        let base_edges = db.graph().edge_count();
        let mut workload = LiveWrite {
            db,
            wal_dir,
            slots: slots(seed),
            reads,
            references,
            base_edges,
            batches: 0,
            since_compact: 0,
            buf: Vec::new(),
            next_request: 0,
            write_ms: Vec::new(),
            read_ms: Vec::new(),
            overlay_at_compact: Vec::new(),
            edges_rewritten: Vec::new(),
            traced_cycles: 0,
            traced_compilations: 0,
        };
        // Fill the live window, so the first timed batch already removes.
        let mut fill = Window::default();
        for _ in 0..LIVE {
            workload.write(&mut fill, tracer);
        }
        match fill.failures.first() {
            Some(failure) => Err(failure.clone()),
            None => Ok(workload),
        }
    }

    fn db(&self) -> &Database {
        &self.db
    }

    fn fingerprint(&self) -> Fingerprint {
        // The op list: each slot's edges, then the read order. The dataset is
        // generated afresh: the database's own graph has the window in it.
        let edges = self
            .slots
            .iter()
            .flatten()
            .flat_map(|(s, l, t)| [s.as_str(), l, t]);
        let ops = fnv_list(edges.chain(self.reads.iter().map(String::as_str)));
        Fingerprint::of(&l4all(SCALE, &mut Tracer::new(false)).graph, ops)
    }

    fn references(&self) -> &[(String, Outcome)] {
        &self.references
    }

    fn pass(&mut self, win: &mut Window, tracer: &mut Tracer, eval: &mut EvalAccum) {
        let profiled = request(TOP_K, tracer.is_on());
        let compiled_before = self.db.prepared_compilations();
        for _ in 0..CYCLES {
            self.write(win, tracer);
            let mut ctx = OpCtx {
                win: &mut *win,
                tracer: &mut *tracer,
                eval: &mut *eval,
                buf: &mut self.buf,
                request: self.next_request,
            };
            // Eight of the nine statements, starting one further along each
            // cycle: every statement is as often the first read after a
            // write (which pays for the new epoch's statistics) as any other,
            // whatever order the seed put them in.
            for text in self
                .reads
                .iter()
                .cycle()
                .skip(self.batches % self.reads.len())
                .take(READS)
            {
                ctx.request += 1;
                let op = ReadOp {
                    // Re-prepared by text: the entry cached before the write
                    // is tagged with the old epoch and recompiles.
                    source: ReadSource::Text(&self.db, text),
                    request: &profiled,
                    limit: TOP_K,
                    // The graph moves under the reads: the invariants hold,
                    // a fixed reference would not.
                    reference: None,
                };
                let before = ctx.win.op_ms.len();
                read_op(&op, &mut ctx);
                if ctx.tracer.is_on() && ctx.win.op_ms.len() > before {
                    self.read_ms.extend(ctx.win.op_ms.last());
                }
            }
            self.next_request = ctx.request;
        }
        self.compact(win, tracer);
        if tracer.is_on() {
            self.traced_cycles += CYCLES as u64;
            self.traced_compilations += self.db.prepared_compilations() - compiled_before;
        }
    }

    fn finish(
        &mut self,
        trace: bool,
        scratch: &Scratch,
        layers: &mut Layers,
    ) -> Result<(), String> {
        holds_window(&self.db.graph(), &self.slots, self.batches, self.base_edges)?;
        // A few more acknowledged batches, so the crash image holds a log
        // tail to replay and not just the checkpoint the pass ended on.
        let mut tail = Window::default();
        for _ in 0..LIVE {
            self.write(&mut tail, &mut Tracer::new(false));
        }
        if let Some(failure) = tail.failures.first() {
            return Err(failure.clone());
        }
        let mut seconds = Vec::new();
        let mut records = 0;
        for _ in 0..if trace { 3 } else { 1 } {
            let (s, r) = self.recover(scratch)?;
            seconds.push(s);
            records = r;
        }
        let recovery_s = median(&mut seconds);
        layers.set("recovery_s", recovery_s);
        layers.set(
            "graph.wal.replay_ms_per_record",
            recovery_s * 1e3 / records.max(1) as f64,
        );
        Ok(())
    }

    fn probes(&mut self, scratch: &Scratch, layers: &mut Layers) -> Result<(), String> {
        self.write_ms.sort_unstable_by(f64::total_cmp);
        layers.set("write_ack_p50_ms", percentile(&self.write_ms, 0.5));
        layers.set("write_ack_p95_ms", percentile(&self.write_ms, 0.95));
        layers.set("read_p50_ms", median(&mut self.read_ms));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        layers.set(
            "graph.overlay.edges_at_compact",
            mean(&self.overlay_at_compact),
        );
        layers.set("graph.compact.edges_rewritten", mean(&self.edges_rewritten));
        layers.set(
            "core.prepare.recompiles_per_batch",
            self.traced_compilations as f64 / self.traced_cycles.max(1) as f64,
        );

        // The batches the workload would apply next, through the overlay and
        // the log on their own; then the same batches over the L2 twin, after
        // the LIVE batches before them so the removals are real there too.
        let next: Vec<GraphDelta> = (self.batches..self.batches + LIVE)
            .map(|i| delta(&self.slots, i))
            .collect();
        let overlay_ms = probes::overlay_apply(&self.db.graph(), &next);
        layers.set("graph.overlay.apply_ms", overlay_ms);
        let mut twin = generate_l4all(&L4AllConfig::at_scale(TWIN_SCALE)).graph;
        for i in self.batches - LIVE..self.batches {
            twin = twin
                .with_delta(&delta(&self.slots, i))
                .map_err(|e| e.to_string())?
                .0;
        }
        layers.set(
            "graph.overlay.apply_scaling",
            probes::overlay_apply(&twin, &next) / overlay_ms,
        );
        // 64 batches for the log: the exact bytes-per-edge row wants a fixed
        // count, and the sync time a few more samples.
        let logged: Vec<GraphDelta> = (LIVE..LIVE + 64).map(|i| delta(&self.slots, i)).collect();
        probes::wal_append(&scratch.fresh_dir("wal-probe")?, &logged, layers)?;
        // The workload's own log never syncs: only the append is in its acks.
        let wal_ms = layers.get("graph.wal.append_us") / 1e3;
        // Probes run after the window, in a different moment of the machine:
        // their sum can come out a little above the span it is taken from.
        layers.set(
            "core.apply.self_ms",
            (layers.get("core.apply_ms") - overlay_ms - wal_ms).max(0.0),
        );
        Ok(())
    }
}
