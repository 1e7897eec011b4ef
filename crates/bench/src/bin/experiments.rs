//! The experiment driver: regenerates every table and figure of the paper's
//! evaluation section, and the Section 3.3/4.3 ablations, as plain-text
//! tables.
//!
//! ```text
//! experiments [FIGURE ...] [--quick | --full] [--yago-scale F]
//!             [--max-scale L1|L2|L3|L4] [--samples N]
//! experiments snapshot build --out PATH [--dataset l4all|yago]
//!             [--max-scale ..] [--yago-scale F]
//! experiments snapshot inspect PATH
//!
//! FIGURE: fig2 fig3 fig5 fig6 fig7 fig8 fig10 fig11 opt-distance
//!         opt-disjunction opt-final opt-batching opt-guidance baseline
//!         overload work all
//! ```
//!
//! `--quick` (the default) runs L4All scales L1–L2 and a quarter-scale YAGO
//! graph; `--full` runs all four L4All scales and the full-size synthetic
//! YAGO graph (several minutes). Unknown figures and flags print the usage
//! and exit with status 2.
//!
//! `work` is not a figure of the paper: it prints, per statement of the
//! yardstick's `embed-flex` mix on L4All at `--max-scale`, the median
//! top-100 latency and the evaluator counters behind it.
//!
//! The `snapshot` subcommand drives the persistence subsystem: `build`
//! generates a dataset, constructs the frozen `Database` and saves its
//! image; `inspect` prints the image's section table (after verifying every
//! checksum) and re-opens it as a `Database`.

use std::path::PathBuf;

use omega_bench::*;
use omega_core::EvalOptions;
use omega_datagen::L4AllScale;

const FIGURES: [&str; 17] = [
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig10",
    "fig11",
    "opt-distance",
    "opt-disjunction",
    "opt-final",
    "opt-batching",
    "opt-guidance",
    "baseline",
    "overload",
    "work",
    "all",
];

fn usage() -> String {
    format!(
        "usage: experiments [{}] [--quick|--full] [--yago-scale F] [--max-scale L1..L4] \
         [--samples N]\n\
         \x20      experiments snapshot build --out PATH [--dataset l4all|yago] \
         [--max-scale L1..L4] [--yago-scale F]\n\
         \x20      experiments snapshot inspect PATH",
        FIGURES.join(" ")
    )
}

fn parse_scale(value: &str) -> Result<L4AllScale, String> {
    L4AllScale::all()
        .into_iter()
        .find(|scale| scale.name() == value)
        .ok_or_else(|| format!("unknown scale {value}"))
}

/// The value following `flag`, parsed.
fn flag_value<'a, T: std::str::FromStr>(
    flag: &str,
    iter: &mut impl Iterator<Item = &'a String>,
) -> Result<T, String> {
    iter.next()
        .and_then(|value| value.parse().ok())
        .ok_or_else(|| format!("{flag} needs a valid value"))
}

/// Parses the figure list and run configuration; anything unrecognised is an
/// error, so a stale verb in a script cannot pass vacuously.
fn parse_args(args: &[String]) -> Result<(Vec<String>, RunConfig), String> {
    let mut figures: Vec<String> = Vec::new();
    let mut config = RunConfig::quick();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => config = RunConfig::quick(),
            "--full" => config = RunConfig::full(),
            "--yago-scale" => config.yago_scale = flag_value(arg, &mut iter)?,
            "--max-scale" => {
                config.max_scale = parse_scale(&flag_value::<String>(arg, &mut iter)?)?;
            }
            "--samples" => config.samples = flag_value::<usize>(arg, &mut iter)?.max(1),
            figure if FIGURES.contains(&figure) => figures.push(figure.to_owned()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if figures.is_empty() {
        figures.push("all".to_owned());
    }
    Ok((figures, config))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("snapshot") {
        snapshot_main(&args[1..]);
        return;
    }
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        eprintln!("{}", usage());
        return;
    }
    let (figures, config) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", usage());
        std::process::exit(2);
    });
    let all = figures.iter().any(|f| f == "all");
    let wants = |name: &str| all || figures.iter().any(|f| f == name);
    let options = EvalOptions::default();

    println!(
        "# Omega-RS experiment run (max L4All scale {}, YAGO scale {:.2})\n",
        config.max_scale.name(),
        config.yago_scale
    );

    if wants("fig2") {
        println!("{}", figure2());
    }
    if wants("fig3") {
        println!("{}", figure3(&config));
    }
    // Figures 5–8 share one run of the L4All study, 10–11 one of YAGO's.
    if wants("fig5") || wants("fig6") || wants("fig7") || wants("fig8") {
        let rows = l4all_study(&config, &options);
        if wants("fig5") {
            println!("{}", figure5(&rows));
        }
        for (figure, name, operator) in [
            ("fig6", "Figure 6", "exact"),
            ("fig7", "Figure 7", "APPROX"),
            ("fig8", "Figure 8", "RELAX"),
        ] {
            if wants(figure) {
                println!("{}", figure_times(&rows, operator, name));
            }
        }
    }
    if wants("fig10") || wants("fig11") {
        let rows = yago_study(&config, &options);
        if wants("fig10") {
            println!("{}", figure10(&rows));
        }
        if wants("fig11") {
            println!("{}", figure11(&rows));
        }
    }
    if FIGURES.iter().any(|f| f.starts_with("opt-") && wants(f)) {
        let l4all = l4all_dataset(config.scales().last().copied().unwrap_or(L4AllScale::L1));
        let yago = yago_dataset(config.yago_scale);
        let mut cases = ablation_cases(&l4all, &yago);
        cases.retain(|(label, ..)| label.split(' ').next().is_some_and(&wants));
        println!("{}", ablations(&cases, config.samples));
    }
    if wants("baseline") {
        println!("{}", baseline_comparison(&config));
    }
    if wants("overload") {
        println!("{}", overload_comparison(&overload_study(&config)));
    }
    if wants("work") {
        println!("{}", work_table(&config));
    }
}

/// Parses `snapshot build`'s flags into (output path, dataset, config).
fn parse_snapshot_build(args: &[String]) -> Result<(PathBuf, String, RunConfig), String> {
    let mut out: Option<PathBuf> = None;
    let mut dataset = "yago".to_owned();
    let mut config = RunConfig::quick();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out = Some(flag_value(arg, &mut iter)?),
            "--dataset" => dataset = flag_value(arg, &mut iter)?,
            "--yago-scale" => config.yago_scale = flag_value(arg, &mut iter)?,
            "--max-scale" => {
                config.max_scale = parse_scale(&flag_value::<String>(arg, &mut iter)?)?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let out = out.ok_or("snapshot build requires --out PATH")?;
    Ok((out, dataset, config))
}

/// The `experiments snapshot build|inspect` subcommand.
fn snapshot_main(args: &[String]) {
    let usage_error = |message: &str| -> ! {
        eprintln!("{message}\n{}", usage());
        std::process::exit(2);
    };
    let report = match (args.first().map(String::as_str), args.get(1)) {
        (Some("build"), _) => {
            let (out, dataset, config) =
                parse_snapshot_build(&args[1..]).unwrap_or_else(|e| usage_error(&e));
            snapshot_build(&dataset, &config, &out)
        }
        (Some("inspect"), Some(path)) => snapshot_inspect(std::path::Path::new(path)),
        (Some("inspect"), None) => usage_error("snapshot inspect requires a path"),
        _ => usage_error("unknown snapshot subcommand"),
    };
    match report {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("snapshot {} failed: {e}", args[0]);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(Vec<String>, RunConfig), String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&args)
    }

    #[test]
    fn known_figures_and_flags_parse() {
        let (figures, config) =
            parse("fig5 opt-final work --max-scale L1 --yago-scale 0.1 --samples 0").unwrap();
        assert_eq!(figures, ["fig5", "opt-final", "work"]);
        assert_eq!(config.max_scale, L4AllScale::L1);
        assert_eq!((config.yago_scale, config.samples), (0.1, 1));
        assert_eq!(
            parse("--full").unwrap(),
            (vec!["all".to_owned()], RunConfig::full())
        );
    }

    #[test]
    fn unknown_verbs_and_flags_are_errors() {
        for stale in [
            "serve",
            "live",
            "durability",
            "profile",
            "startup",
            "prepared",
            "bench",
            "parallel",
            "bnech",
        ] {
            assert!(parse(stale).is_err(), "{stale} must be rejected");
            assert!(parse(&format!("fig5 {stale}")).is_err());
        }
        for line in [
            "--json out.json",
            "--scales L1,L2",
            "--max-scale L9",
            "--max-scale",
            "--samples many",
        ] {
            assert!(parse(line).is_err(), "{line} must be rejected");
        }
    }
}
