//! `omega-benchmark`: the yardstick later changes are judged by.
//!
//! Invoked the driver's way —
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — it runs one
//! workload in this process and prints one JSON result line last on stdout.
//! The subcommands `run`, `trace` and `repeat` are the same thing for people:
//! they start one such child process per workload and lay the results out as
//! tables. `manifest` prints `BENCHMARK.json`; `bless` rewrites `expected/`.
//! See `benchmark/README.md`.

mod alloc;
mod check;
mod fnv;
mod harness;
mod json;
mod metrics;
mod platform;
mod probes;
mod rng;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::{run, Args, RunResult};
use workloads::adhoc_compile::AdhocCompile;
use workloads::embed_flex::EmbedFlex;
use workloads::live_write::LiveWrite;
use workloads::serve_short::ServeShort;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: omega-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       omega-benchmark run    [--seed <n>] [--workload <name>] [--seconds <s>] [--smoke]
       omega-benchmark trace  [--seed <n>] [--workload <name>] [--seconds <s>]
       omega-benchmark repeat [--seed <n>] [--workload <name>] [--seconds <s>] [--smoke]
       omega-benchmark manifest | bless
workloads: embed-flex serve-short adhoc-compile live-write";

/// Runs one workload in this process.
pub fn run_workload(args: &Args) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "embed-flex" => run::<EmbedFlex>(args),
        "serve-short" => run::<ServeShort>(args),
        "adhoc-compile" => run::<AdhocCompile>(args),
        "live-write" => run::<LiveWrite>(args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    }
}

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("bad value for {flag}: {text}")),
            None if self.0.iter().any(|a| a == flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn dispatch(argv: Vec<String>) -> Result<ExitCode, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(word) if !word.starts_with("--") => (word.to_owned(), argv[1..].to_vec()),
        _ => (String::new(), argv),
    };
    let flags = Flags(rest);
    let seed = flags.parsed("--seed", metrics::BLESSED_SEED)?;
    let seconds = flags.parsed("--seconds", f64::from(metrics::RUN_SECONDS))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let smoke = flags.switch("--smoke");
    let suite = suite::Suite {
        seed,
        seconds: if smoke { suite::SMOKE_SECONDS } else { seconds },
        only: flags.value("--workload").map(str::to_owned),
        smoke,
    };
    match command.as_str() {
        "" => {
            let args = Args {
                workload: flags.value("--workload").ok_or(USAGE)?.to_owned(),
                seed,
                seconds,
                trace: flags.parsed::<u8>("--trace", 0)? != 0,
            };
            let result = run_workload(&args)?;
            println!("{}", result.to_json().render());
            Ok(ExitCode::SUCCESS)
        }
        "run" => suite.run(),
        "trace" => suite.trace(),
        "repeat" => suite.repeat(),
        "manifest" => {
            print!("{}", metrics::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        "bless" => suite::bless(),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("omega-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
