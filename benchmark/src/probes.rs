//! Layer probes: the traced run replays a workload's recorded inputs through
//! one layer's public function at a time, in isolation, so a layer's cost is
//! known even where no span can separate it from its callers.

use std::hint::black_box;
use std::time::Instant;

use omega_automata::{approximate, build_nfa, relax, remove_epsilons, MinCostToAccept};
use omega_core::{parse_query, Answer, Database, EvalStats, QueryMode};
use omega_graph::{Direction, FsyncPolicy, GraphDelta, GraphStore, Wal, WalConfig};
use omega_protocol::{FinishReason, Frame, DEFAULT_BATCH};

use crate::harness::Layers;
use crate::rng::Rng;

/// Roughly how many calls each probe makes, whatever the input count.
const PROBE_CALLS: usize = 4096;

/// Mean time of `f` over `inputs`, repeated to about [`PROBE_CALLS`] calls,
/// in nanoseconds per call.
fn per_call_ns<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let reps = (PROBE_CALLS / inputs.len()).max(1);
    let started = Instant::now();
    for _ in 0..reps {
        for input in inputs {
            f(input);
        }
    }
    started.elapsed().as_nanos() as f64 / (reps * inputs.len()) as f64
}

/// The compile pipeline layer by layer over the workload's distinct texts:
/// `regex`/`core.query` (parse), `automata` (Thompson, APPROX / RELAX
/// augmentation, epsilon removal, accept bounds), and `core.prepare` as a
/// whole on its miss and hit paths.
pub fn compile(db: &Database, texts: &[&str], layers: &mut Layers) {
    let graph = db.graph();
    let options = db.options();
    layers.set(
        "query.parse_us",
        per_call_ns(texts, |t| drop(black_box(parse_query(t)))) / 1e3,
    );

    let conjuncts: Vec<_> = texts
        .iter()
        .filter_map(|t| parse_query(t).ok())
        .flat_map(|q| q.conjuncts)
        .collect();
    let of_mode = |mode| {
        conjuncts
            .iter()
            .filter(|c| c.mode == mode)
            .map(|c| build_nfa(&c.regex, &*graph))
            .collect::<Vec<_>>()
    };
    layers.set(
        "automata.build_us",
        per_call_ns(&conjuncts, |c| {
            drop(black_box(build_nfa(&c.regex, &*graph)))
        }) / 1e3,
    );
    layers.set(
        "automata.approx_us",
        per_call_ns(&of_mode(QueryMode::Approx), |n| {
            drop(black_box(approximate(n, &options.approx)))
        }) / 1e3,
    );
    layers.set(
        "automata.relax_us",
        per_call_ns(&of_mode(QueryMode::Relax), |n| {
            drop(black_box(relax(n, db.ontology(), &options.relax, &*graph)))
        }) / 1e3,
    );
    let augmented: Vec<_> = conjuncts
        .iter()
        .map(|c| {
            let base = build_nfa(&c.regex, &*graph);
            match c.mode {
                QueryMode::Exact => base,
                QueryMode::Approx => approximate(&base, &options.approx),
                QueryMode::Relax => relax(&base, db.ontology(), &options.relax, &*graph),
            }
        })
        .collect();
    layers.set(
        "automata.epsilon_us",
        per_call_ns(&augmented, |n| drop(black_box(remove_epsilons(n)))) / 1e3,
    );
    let finished: Vec<_> = augmented.iter().map(remove_epsilons).collect();
    layers.set(
        "automata.bounds_us",
        per_call_ns(&finished, |n| drop(black_box(MinCostToAccept::compute(n)))) / 1e3,
    );
    let queries = texts.len().max(1) as f64;
    layers.set(
        "automata.states_per_query",
        finished.iter().map(|n| n.state_count()).sum::<usize>() as f64 / queries,
    );
    layers.set(
        "automata.transitions_per_query",
        finished.iter().map(|n| n.transition_count()).sum::<usize>() as f64 / queries,
    );

    layers.set(
        "core.prepare.miss_us",
        per_call_ns(texts, |t| drop(black_box(db.prepare_uncached(t)))) / 1e3,
    );
    // One text kept hot, so every call after the first is the cache's hit
    // path at the front of its recency list.
    if let Some(text) = texts.first() {
        let _ = db.prepare(text);
        layers.set(
            "core.prepare.hit_us",
            per_call_ns(&[*text; 64], |t| drop(black_box(db.prepare(t)))) / 1e3,
        );
    }
}

/// `graph.csr`: the live neighbour views the evaluator reads, over a seeded
/// node sample and every label in both directions, per edge returned.
pub fn csr_scan(graph: &GraphStore, seed: u64, layers: &mut Layers) {
    let nodes: Vec<_> = graph.node_ids().collect();
    if nodes.is_empty() {
        return;
    }
    let mut rng = Rng::new(seed, 0xc5a);
    let sample: Vec<_> = (0..PROBE_CALLS)
        .map(|_| nodes[rng.below(nodes.len())])
        .collect();
    let labels: Vec<_> = graph.labels().map(|(id, _)| id).collect();
    let mut edges = 0u64;
    let mut sink = 0u64;
    let started = Instant::now();
    for &node in &sample {
        for dir in [Direction::Outgoing, Direction::Incoming] {
            for &label in &labels {
                for other in graph.neighbors_iter(node, label, dir) {
                    edges += 1;
                    sink = sink.wrapping_add(u64::from(other.0));
                }
            }
            for (_, other) in graph.neighbors_any_iter(node, dir) {
                edges += 1;
                sink = sink.wrapping_add(u64::from(other.0));
            }
        }
    }
    black_box(sink);
    layers.set(
        "graph.csr.scan_ns_per_edge",
        started.elapsed().as_nanos() as f64 / edges.max(1) as f64,
    );
}

/// `graph.freeze`: the builder graph rebuilt from the store's triples, then
/// frozen into CSR — the part of set-up the generators do inside `generate`.
pub fn freeze(graph: &GraphStore, layers: &mut Layers) {
    let mut builder = GraphStore::new();
    for edge in graph.edges() {
        builder.add_triple(
            graph.node_label(edge.source),
            graph.label_name(edge.label),
            graph.node_label(edge.target),
        );
    }
    let started = Instant::now();
    builder.freeze();
    layers.set("graph.freeze_s", started.elapsed().as_secs_f64());
    black_box(builder);
}

/// `protocol`: the reply frames of each statement (its answers in batches,
/// then `Finished`) through `Frame::encode` and `Frame::decode`.
pub fn protocol(replies: &[Vec<Answer>], layers: &mut Layers) {
    let frames: Vec<Frame> = replies
        .iter()
        .flat_map(|answers| {
            answers
                .chunks(DEFAULT_BATCH)
                .map(|batch| Frame::Answers {
                    answers: batch.to_vec(),
                })
                .chain([Frame::Finished {
                    stats: EvalStats::default(),
                    reason: FinishReason::Complete,
                    profile: None,
                }])
        })
        .collect();
    let answers = replies.iter().map(Vec::len).sum::<usize>().max(1) as f64;
    let per_pass = |ns_per_frame: f64| ns_per_frame * frames.len() as f64 / answers;
    layers.set(
        "protocol.encode_ns_per_answer",
        per_pass(per_call_ns(&frames, |f| drop(black_box(f.encode())))),
    );
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    layers.set(
        "protocol.decode_ns_per_answer",
        per_pass(per_call_ns(&encoded, |bytes| {
            drop(black_box(Frame::decode(bytes)))
        })),
    );
    // On the wire every frame also carries its u32 length prefix.
    let bytes: usize = encoded.iter().map(|e| e.len() + 4).sum();
    layers.set("protocol.bytes_per_answer", bytes as f64 / answers);
    layers.set(
        "protocol.frames_per_request",
        frames.len() as f64 / replies.len().max(1) as f64,
    );
}

/// `graph.overlay`: the workload's batches through `GraphStore::with_delta`,
/// each applied to the result of the one before as `Database::apply` does.
/// Returns the mean in ms.
pub fn overlay_apply(base: &GraphStore, batches: &[GraphDelta]) -> f64 {
    let mut current = base.clone();
    let started = Instant::now();
    for delta in batches {
        if let Ok((next, _)) = current.with_delta(delta) {
            current = next;
        }
    }
    started.elapsed().as_secs_f64() * 1e3 / batches.len().max(1) as f64
}

/// `graph.wal`: the same batches through `Wal::append` under fsync-always in
/// a log of their own. Sets the append (without its sync), sync and
/// bytes-per-edge rows; returns the mean append+sync in ms.
pub fn wal_append(
    dir: &std::path::Path,
    batches: &[GraphDelta],
    layers: &mut Layers,
) -> Result<f64, String> {
    let config = WalConfig::new(dir).with_fsync(FsyncPolicy::Always);
    let (mut wal, _) = Wal::open(&config).map_err(|e| e.to_string())?;
    let (mut total_ns, mut sync_ns, mut bytes, mut edges) = (0u64, 0u64, 0u64, 0u64);
    for (epoch, delta) in batches.iter().enumerate() {
        let started = Instant::now();
        let out = wal
            .append(epoch as u64 + 1, delta.adds(), delta.removes())
            .map_err(|e| e.to_string())?;
        total_ns += started.elapsed().as_nanos() as u64;
        sync_ns += out.sync_ns;
        bytes += out.bytes;
        edges += delta.len() as u64;
    }
    let n = batches.len().max(1) as f64;
    layers.set(
        "graph.wal.append_us",
        total_ns.saturating_sub(sync_ns) as f64 / n / 1e3,
    );
    layers.set("graph.wal.sync_us", sync_ns as f64 / n / 1e3);
    layers.set(
        "graph.wal.bytes_per_edge",
        bytes as f64 / edges.max(1) as f64,
    );
    Ok(total_ns as f64 / n / 1e6)
}
