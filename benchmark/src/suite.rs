//! The commands for people: `run`, `trace`, `repeat` and `bless`. Each
//! workload runs in a fresh child process of this same binary, invoked the
//! driver's way, so what these print is what the driver measures.

use std::process::{Command, ExitCode, Stdio};

use crate::check::Expected;
use crate::harness::{Dominance, Scratch, Workload};
use crate::json::Json;
use crate::metrics::{MetricDef, BLESSED_SEED, END_TO_END, PER_LAYER, WORKLOADS};
use crate::trace::Tracer;
use crate::workloads::adhoc_compile::AdhocCompile;
use crate::workloads::embed_flex::EmbedFlex;
use crate::workloads::live_write::LiveWrite;
use crate::workloads::serve_short::ServeShort;

/// `--smoke`: long enough for one pass of every workload, short enough for a
/// CI job; checks the schema and the answers, not the numbers.
pub const SMOKE_SECONDS: f64 = 0.4;

/// Rows that count work and so must agree exactly between two runs of the
/// same code on the same seed.
const EXACT_ROWS: [&str; 10] = [
    "core.eval.tuples_added_per_op",
    "core.eval.succ_calls_per_op",
    "core.eval.neighbour_lookups_per_op",
    "core.eval.pruned_bound_per_op",
    "core.eval.tuples_per_answer",
    "automata.states_per_query",
    "automata.transitions_per_query",
    "graph.wal.bytes_per_edge",
    "protocol.bytes_per_answer",
    "protocol.frames_per_request",
];

const INTERACTION_NOTES: &str = "\
how the rows interact (one client, nothing contending):
  a layer can save at most its traced share of op_p50_ms: deleting the identity rank join gives
  serve-short at most core.eval.rank_join_ms / op_p50_ms, and embed-flex should not move.
  write acks are O(graph) today: graph.overlay.apply_scaling (L2 twin / L1, same batches) is ~5 where an
  O(delta) write path reads ~1 - the one number ROADMAP item 1 has to flatten.
  compact() runs on the client thread, once per 64-cycle pass: its cost lands in
  throughput_ops_s on live-write, not in the medians.
  on live-write op_tail_ms (p95 over reads and write acks, 8:1) falls among the write acks.";

pub struct Suite {
    pub seed: u64,
    pub seconds: f64,
    /// One workload only.
    pub only: Option<String>,
    /// `--smoke`: too short to time anything; answers and schema only.
    pub smoke: bool,
}

/// One child run's result line.
struct ChildResult {
    workload: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    doc: Json,
}

impl ChildResult {
    fn metric(&self, name: &str) -> f64 {
        self.doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }
}

impl Suite {
    fn workloads(&self) -> Result<Vec<&'static str>, String> {
        let names: Vec<_> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|name| self.only.as_deref().is_none_or(|only| only == *name))
            .collect();
        if names.is_empty() {
            return Err(format!(
                "unknown workload {}",
                self.only.as_deref().unwrap_or_default()
            ));
        }
        Ok(names)
    }

    /// Runs one workload in a child process and parses its result line.
    fn child(&self, workload: &'static str, trace: bool) -> Result<ChildResult, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let output = Command::new(exe)
            .args(["--workload", workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("start {workload}: {e}"))?;
        if !output.status.success() {
            return Err(format!("{workload} exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or(format!("{workload} printed nothing"))?;
        let doc = Json::parse(line).map_err(|e| format!("{workload} result line: {e}"))?;
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("{workload}: no {key}"))
        };
        Ok(ChildResult {
            workload,
            correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
            attempted: count("attempted")?,
            failed: count("failed")?,
            doc,
        })
    }

    fn set(&self, trace: bool) -> Result<Vec<ChildResult>, String> {
        self.workloads()?
            .into_iter()
            .map(|w| self.child(w, trace))
            .collect()
    }

    fn report(&self, kind: &str, outcomes: &[ChildResult]) {
        let doc = Json::obj([
            ("kind", Json::str(kind)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            (
                "workloads",
                Json::obj(outcomes.iter().map(|o| (o.workload, o.doc.clone()))),
            ),
            // This benchmark defines the baseline; it claims no gain.
            ("claim", Json::Null),
        ]);
        println!("{}", doc.render());
    }

    /// Every workload with tracing off: one line per (workload, metric).
    pub fn run(&self) -> Result<ExitCode, String> {
        let outcomes = self.set(false)?;
        println!(
            "{:<14} {:<20} {:>14} {:<5} {:>9} {:>6}",
            "workload", "metric", "value", "unit", "samples", "bound"
        );
        for o in &outcomes {
            for def in &END_TO_END {
                println!(
                    "{:<14} {:<20} {:>14.4} {:<5} {:>9} {:>5.0}%",
                    o.workload,
                    def.name,
                    o.metric(def.name),
                    def.unit,
                    o.attempted,
                    def.bound.unwrap_or(0.0) * 100.0
                );
            }
            println!(
                "{:<14} {:<20} {:>14.4} {:<5} {:>9} {:>6}",
                o.workload,
                "failed_ratio",
                o.failed as f64 / o.attempted as f64,
                "ratio",
                o.attempted,
                "0"
            );
        }
        for def in &END_TO_END {
            println!("{:<20} {}", def.name, def.note);
        }
        self.report("run", &outcomes);
        Ok(exit(outcomes.iter().all(|o| o.correct)))
    }

    /// Every workload traced: the per-layer table, one column per workload.
    pub fn trace(&self) -> Result<ExitCode, String> {
        let outcomes = self.set(true)?;
        let ok = layer_table(&outcomes);
        self.report("trace", &outcomes);
        Ok(exit(ok))
    }

    /// Two sets back to back, untraced and traced: every end-to-end metric
    /// against its bound, every exact row against itself.
    pub fn repeat(&self) -> Result<ExitCode, String> {
        let mut ok = true;
        let (first, second) = (self.set(false)?, self.set(false)?);
        println!(
            "{:<14} {:<20} {:>12} {:>12} {:>9} {:>6}",
            "workload", "metric", "first", "second", "worse by", "bound"
        );
        for (a, b) in first.iter().zip(&second) {
            ok &= a.correct && b.correct;
            for def in &END_TO_END {
                let (x, y) = (a.metric(def.name), b.metric(def.name));
                let worse = worse_by(def, x, y);
                let bound = def.bound.unwrap_or(0.0);
                let breach = worse > bound;
                // A smoke run is too short for its timings to mean anything.
                ok &= !breach || self.smoke;
                println!(
                    "{:<14} {:<20} {:>12.4} {:>12.4} {:>8.1}% {:>5.0}%{}",
                    a.workload,
                    def.name,
                    x,
                    y,
                    worse * 100.0,
                    bound * 100.0,
                    match (breach, self.smoke) {
                        (false, _) => "",
                        (true, false) => "  BREACH",
                        (true, true) => "  (smoke: not held to the bound)",
                    }
                );
            }
        }
        let (first, second) = (self.set(true)?, self.set(true)?);
        for (a, b) in first.iter().zip(&second) {
            ok &= a.correct && b.correct;
            for row in EXACT_ROWS {
                let (x, y) = (a.metric(row), b.metric(row));
                if x != y {
                    ok = false;
                    println!("{:<14} {:<34} {x} != {y}  NOT EXACT", a.workload, row);
                }
            }
        }
        println!("exact rows compared: {}", EXACT_ROWS.join(" "));
        self.report("repeat", &second);
        Ok(exit(ok))
    }
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// By what share of `first` the `second` value is worse (negative: better).
fn worse_by(def: &MetricDef, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

/// Prints the per-layer table and checks what each workload was built to
/// stress; `false` when a run failed or a workload lost its dominance.
fn layer_table(outcomes: &[ChildResult]) -> bool {
    print!("{:<36} {:<6}", "layer metric", "unit");
    for o in outcomes {
        print!(" {:>14}", o.workload);
    }
    println!();
    for def in &PER_LAYER {
        print!("{:<36} {:<6}", def.name, def.unit);
        for o in outcomes {
            print!(" {:>14.4}", o.metric(def.name));
        }
        println!("  {}", def.note);
    }
    println!("\n{INTERACTION_NOTES}\n");
    let mut ok = true;
    for o in outcomes {
        let dominance = Dominance::of(o.workload);
        let value = o.metric(dominance.row);
        let holds = dominance.holds(value);
        println!(
            "{:<14} {}: {}; failed {}/{}",
            o.workload,
            dominance.describe(value),
            if holds { "holds" } else { "LOST" },
            o.failed,
            o.attempted
        );
        ok &= holds && o.correct;
    }
    ok
}

fn bless_one<W: Workload>() -> Result<(), String> {
    let scratch = Scratch::new()?;
    let state = W::setup(BLESSED_SEED, &scratch, &mut Tracer::new(false))?;
    let text = Expected::render(BLESSED_SEED, &state.fingerprint(), state.references());
    let path = format!("benchmark/expected/{}.json", W::NAME);
    std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("wrote {path}; rebuild to embed it");
    Ok(())
}

/// Rewrites `benchmark/expected/*.json` from what this build computes for
/// the blessed seed. Run from the repository root, in a change of its own:
/// re-blessing moves the baseline.
pub fn bless() -> Result<ExitCode, String> {
    bless_one::<EmbedFlex>()?;
    bless_one::<ServeShort>()?;
    bless_one::<AdhocCompile>()?;
    bless_one::<LiveWrite>()?;
    Ok(ExitCode::SUCCESS)
}
