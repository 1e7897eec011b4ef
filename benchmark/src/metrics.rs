//! The catalogue: every workload and every metric the benchmark reports, in
//! one place. `BENCHMARK.json` at the repository root is generated from this
//! file (`omega-benchmark manifest`) and a unit test keeps the two equal.

use crate::json::Json;

/// What one run measures, in seconds, when the caller gives no `--seconds`.
pub const RUN_SECONDS: u32 = 28;

/// The seed whose inputs `expected/*.json` describes.
pub const BLESSED_SEED: u64 = 1;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "embed-flex",
        why: "The paper's study in-process on L4All L3 (heap CSR): evaluator-heavy APPROX/RELAX/multi-conjunct top-100; only core.eval and graph.csr can move it.",
    },
    WorkloadDef {
        name: "serve-short",
        why: "Short prepared queries over a unix socket to a snapshot-opened (mmap) L2 server: codec, socket, join and answer building dominate; an evaluator win must not move it.",
    },
    WorkloadDef {
        name: "adhoc-compile",
        why: "2048 distinct YAGO query texts, more than the 128-entry statement cache, so every op parses and compiles: regex, automata and planning dominate (cache miss path).",
    },
    WorkloadDef {
        name: "live-write",
        why: "Logged L4All L1 (WAL, no fsync): one 64-add/64-remove batch then 8 re-prepared reads per cycle, compact every 64; the O(graph) write path dominates, reads scan the overlay.",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
    /// What it measures; for a per-layer metric, which end-to-end metric it
    /// should move and where.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: None,
        note,
    }
}

/// Measured with tracing off; every workload reports every one. The four
/// timings of ops are taken over the quietest tenth of the run's passes
/// (see [`crate::harness::QUIET_SHARE`]).
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", false, 0.25,
        "one whole set-up, the quietest of 7 per run: generate, freeze / snapshot save+open / WAL open + window fill, listen+connect, prepare, one warm-up pass"),
    e2e("op_p50_ms", "ms", false, 0.25,
        "median latency of one caller-visible op: call -> last of its top-k answers consumed (live-write: reads and write acks together, 8:1, so a read)"),
    e2e("op_tail_ms", "ms", false, 0.25,
        "p95 of the same; p90 on embed-flex. On embed-flex and live-write it falls in the slowest ninth of the mix: M3 APPROX; the write acks. Always >= 10 samples beyond"),
    e2e("first_batch_p50_ms", "ms", false, 0.25,
        "median of call -> 10th answer or end of stream: the paper's first batch (read ops only)"),
    e2e("throughput_ops_s", "1/s", true, 0.25,
        "ops / time (live-write: reads + batches + the one compaction of each 64-cycle pass)"),
    e2e("peak_rss_mb", "MB", false, 0.10,
        "VmHWM after the 7 set-ups and the first two passes: a fixed amount of work, whatever the run's length or speed; each run is a fresh process"),
];

/// Reported by the traced run; no bound. 0 where a workload never enters the
/// layer. "->" names the end-to-end metric the row should move, and where.
pub const PER_LAYER: [MetricDef; 62] = [
    layer("obs.trace_overhead_ratio", "ratio", true,
        "traced / untraced throughput_ops_s in one process: the budget for in-program tracing"),
    layer("share.eval", "ratio", false,
        "core.eval* self time / traced op time; embed-flex must keep >= 0.80"),
    layer("share.prepare", "ratio", false,
        "core.prepare* self time / traced op time; adhoc-compile must keep >= 0.50"),
    layer("share.evaluator", "ratio", false,
        "core.eval.conjunct self time / traced op time; serve-short must keep <= 0.30"),
    layer("share.write", "ratio", false,
        "core.apply + graph.compact self time / traced op time; live-write must keep >= 0.30 (the epoch's statistics recompute lands in share.prepare, on the first prepare after each write)"),
    layer("datagen.generate_s", "s", false, "generator span -> setup_s, all workloads"),
    layer("query.parse_us", "us", false,
        "probe parse_query per distinct text -> op_p50_ms on adhoc-compile only"),
    layer("automata.build_us", "us", false,
        "probe build_nfa per conjunct -> op_p50_ms, throughput_ops_s on adhoc-compile; live-write via recompiles"),
    layer("automata.approx_us", "us", false, "probe approximate per APPROX conjunct -> as automata.build_us"),
    layer("automata.relax_us", "us", false,
        "probe relax per RELAX conjunct (the ontology's cost is in here) -> as automata.build_us"),
    layer("automata.epsilon_us", "us", false, "probe remove_epsilons per conjunct -> as automata.build_us"),
    layer("automata.bounds_us", "us", false, "probe MinCostToAccept::compute per conjunct -> as automata.build_us"),
    layer("automata.states_per_query", "count", false, "states of the epsilon-free automata, per distinct text; repeats exactly"),
    layer("automata.transitions_per_query", "count", false, "their transitions, per distinct text; repeats exactly"),
    layer("core.prepare.miss_us", "us", false,
        "probe prepare_uncached per distinct text -> op_p50_ms on adhoc-compile"),
    layer("core.prepare.hit_us", "us", false,
        "probe prepare on a cached text -> op_p50_ms on serve-short"),
    layer("core.prepare.hit_ratio", "ratio", true,
        "program: prepare cache hits / prepares over the traced window; 0 where every prepare compiles (adhoc-compile, live-write) and where none happens"),
    layer("core.prepare.recompiles_per_batch", "count", false,
        "program: prepared_compilations per write cycle -> op_p50_ms on live-write"),
    layer("core.prepare_us", "us", false, "span Database::prepare per op, self time"),
    layer("core.eval.conjunct_ms", "ms", false,
        "program profile conjunct_* per op -> op_p50_ms, first_batch_p50_ms on embed-flex"),
    layer("core.eval.rank_join_ms", "ms", false,
        "program profile rank_join per op -> op_p50_ms, throughput_ops_s on serve-short"),
    layer("core.eval.streaming_ms", "ms", false,
        "program profile streaming per op (answer building; over the wire also encode + socket write) -> as rank_join_ms"),
    layer("core.eval.unexplained_ms", "ms", false, "eval span minus the profile's phases, per op"),
    layer("core.eval.tuples_added_per_op", "count", false, "EvalStats, first traced pass; repeats exactly"),
    layer("core.eval.succ_calls_per_op", "count", false, "EvalStats, first traced pass; repeats exactly"),
    layer("core.eval.neighbour_lookups_per_op", "count", false, "EvalStats, first traced pass; repeats exactly"),
    layer("core.eval.pruned_bound_per_op", "count", false, "EvalStats, first traced pass; repeats exactly"),
    layer("core.eval.tuples_per_answer", "ratio", false, "tuples added / answers returned: the evaluator's waste ratio"),
    layer("alloc.count_per_answer", "count", false,
        "allocations / answers over the traced window -> op_p50_ms on serve-short and embed-flex, peak_rss_mb"),
    layer("alloc.bytes_per_answer", "B", false, "bytes requested / answers, as above"),
    layer("core.govern.rejected", "count", false, "governor gauge -> failed; expected 0"),
    layer("core.govern.sheds", "count", false, "governor counter -> failed; expected 0"),
    layer("graph.csr.scan_ns_per_edge", "ns", false,
        "probe neighbors + neighbors_any over a seeded node sample of the workload's own store (heap, mmap or overlaid) -> op_p50_ms on embed-flex, live-write"),
    layer("graph.freeze_s", "s", false, "probe GraphStore::freeze of the rebuilt builder graph -> setup_s"),
    layer("graph.rss_bytes_per_edge", "B", false, "VmRSS growth across set-up / edges -> peak_rss_mb"),
    layer("graph.overlay.apply_ms", "ms", false,
        "probe GraphStore::with_delta on the workload's batches -> op_tail_ms, throughput_ops_s on live-write"),
    layer("graph.overlay.apply_scaling", "ratio", false,
        "that probe on an L2 twin / on the workload's L1, same batches: ~5 while apply is O(graph); the number an O(delta) write path flattens to ~1"),
    layer("graph.overlay.edges_at_compact", "count", false, "overlay_edges() before each compaction, mean"),
    layer("graph.wal.append_us", "us", false,
        "probe Wal::append (fsync always) minus its sync time: encode, checksum, write -> op_tail_ms on live-write"),
    layer("graph.wal.sync_us", "us", false, "the fsync inside that append (the sandbox's, not a device's): what fsync=always would add to each ack; live-write's own log runs without"),
    layer("graph.wal.bytes_per_edge", "B", false, "log bytes / edges logged, first 64 batches; repeats exactly"),
    layer("graph.wal.replay_ms_per_record", "ms", false, "recovery_s / records replayed"),
    layer("graph.compact_ms", "ms", false,
        "span Database::compact (CSR rebuild + checkpoint + log rotation) -> throughput_ops_s on live-write"),
    layer("graph.compact.edges_rewritten", "count", false, "edges in the CSR each compaction rebuilt, mean"),
    layer("core.apply_ms", "ms", false, "span Database::apply -> op_tail_ms on live-write"),
    layer("core.apply.self_ms", "ms", false,
        "apply minus the overlay and WAL probes, floored at 0: statistics recompute + epoch publish"),
    layer("write_ack_p50_ms", "ms", false, "live-write: Database::apply call -> MutationReport (logged, not synced); median"),
    layer("write_ack_p95_ms", "ms", false, "live-write: p95 of the same"),
    layer("read_p50_ms", "ms", false, "live-write: prepare by text + top-100, median, beside the writes"),
    layer("recovery_s", "s", false,
        "live-write: reopen of the crash image (checkpoint + log as of the last ack) -> query-ready, median of 3"),
    layer("graph.snapshot.save_ms", "ms", false, "span Database::save_snapshot -> setup_s on serve-short"),
    layer("graph.snapshot.open_ms", "ms", false, "span Database::open_snapshot -> setup_s on serve-short"),
    layer("graph.snapshot.bytes_per_edge", "B", false, "image size / edges"),
    layer("protocol.encode_ns_per_answer", "ns", false,
        "probe Frame::encode on the frames the workload produced -> op_p50_ms, throughput_ops_s on serve-short"),
    layer("protocol.decode_ns_per_answer", "ns", false, "probe Frame::decode on the same"),
    layer("protocol.bytes_per_answer", "B", false, "encoded reply bytes / answers; repeats exactly"),
    layer("protocol.frames_per_request", "count", false, "reply frames per request; repeats exactly"),
    layer("server.execute_p50_ms", "ms", false, "program: the Metrics frame's execute-frame histogram median"),
    layer("server.bytes_out_per_request", "B", false, "program: the Metrics frame's bytes-out counter / requests"),
    layer("wire.overhead_ms", "ms", false,
        "serve-short op median minus the same op list run in-process -> what the wire stack costs"),
    layer("wire.unexplained_ms", "ms", false,
        "overhead minus the encode and decode probes: syscalls and wake-ups"),
    layer("client.stream_ms", "ms", false,
        "client-side self time per op: frame decode, credit top-ups, blocked reads"),
];

fn metric_json(def: &MetricDef) -> Json {
    let mut pairs = vec![
        ("name", Json::str(def.name)),
        ("unit", Json::str(def.unit)),
        (
            "better",
            Json::str(if def.higher_is_better {
                "higher"
            } else {
                "lower"
            }),
        ),
    ];
    if let Some(bound) = def.bound {
        pairs.push(("bound", Json::Num(bound)));
    }
    Json::obj(pairs)
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with: omega-benchmark manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let name_ok = |s: &str, max: usize, extra: &str| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(def.name, 64, "_.-"), "{}", def.name);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name_ok(def.unit, 16, "_/%.-"), "{}", def.unit);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name, 64, "_.-") && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(manifest().render().len() < 64 * 1024);
    }
}
