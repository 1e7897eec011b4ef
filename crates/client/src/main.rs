//! The `omega-client` CLI: interactive REPL, one-shot execution, the
//! daemon's metrics exposition (its one status report) and shutdown.
//!
//! ```text
//! omega-client --unix /tmp/omega.sock repl
//! omega-client --unix /tmp/omega.sock exec "(?X) <- (Work Episode, type-, ?X)" --limit 5
//! omega-client --tcp 127.0.0.1:7474 metrics | grep omega_server_connections_open
//! omega-client --unix /tmp/omega.sock shutdown
//! ```

use std::io::{BufRead, ErrorKind, Write};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use omega_client::{AnswerStream, ClientError, Connection, Mutation, Statement};
use omega_core::{Answer, ExecOptions, OverloadPolicy};
use omega_protocol::FinishReason;

const USAGE: &str = "\
omega-client: CLI for the Omega serving daemon

USAGE:
    omega-client (--unix PATH | --tcp ADDR) COMMAND [OPTIONS]

COMMANDS:
    repl                  interactive session (the default)
    exec QUERY            run one query and print its answers
    metrics               print the daemon's metrics exposition (counters,
                          gauges, latency histograms, storage state)
    shutdown              drain the daemon gracefully

EXEC OPTIONS (exec, and the repl's defaults):
    --limit N             stop after N answers
    --timeout-ms N        per-request deadline
    --max-distance N      flexible-match distance ceiling
    --max-tuples N        per-request tuple budget
    --policy P            overload policy: fail | degrade | shed
    --window N            streaming credit window (default 256)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let outcome = run(&args, &mut out).and_then(|()| Ok(out.flush()?));
    exit(exit_code(outcome));
}

/// Why the CLI stopped before its command was done.
#[derive(Debug)]
enum Stop {
    /// A failure to report on stderr (exit 2).
    Fail(String),
    /// Standard output's reader went away (`ErrorKind::BrokenPipe`), as in
    /// `omega-client … metrics | head -n 1`: nothing more can be shown, so
    /// the CLI stops quietly (exit 0).
    Closed,
}

impl From<String> for Stop {
    fn from(message: String) -> Stop {
        Stop::Fail(message)
    }
}

impl From<&str> for Stop {
    fn from(message: &str) -> Stop {
        Stop::Fail(message.to_owned())
    }
}

impl From<std::io::Error> for Stop {
    fn from(err: std::io::Error) -> Stop {
        match err.kind() {
            ErrorKind::BrokenPipe => Stop::Closed,
            _ => Stop::Fail(format!("writing output: {err}")),
        }
    }
}

/// The process's exit status for `outcome`, after reporting a failure.
fn exit_code(outcome: Result<(), Stop>) -> i32 {
    match outcome {
        Ok(()) | Err(Stop::Closed) => 0,
        Err(Stop::Fail(message)) => {
            eprintln!("omega-client: {message}");
            2
        }
    }
}

/// Where the daemon listens.
enum Endpoint {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// TCP address (`host:port`).
    Tcp(String),
}

struct Cli {
    endpoint: Endpoint,
    command: String,
    query: Option<String>,
    options: ExecOptions,
    window: u32,
}

fn parse_cli(args: &[String], out: &mut dyn Write) -> Result<Option<Cli>, Stop> {
    let mut endpoint: Option<Endpoint> = None;
    let mut command: Option<String> = None;
    let mut query: Option<String> = None;
    let mut options = ExecOptions::new();
    let mut window: u32 = omega_protocol::DEFAULT_CREDITS;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                write!(out, "{USAGE}")?;
                return Ok(None);
            }
            "--unix" => endpoint = Some(Endpoint::Unix(value("--unix")?.into())),
            "--tcp" => endpoint = Some(Endpoint::Tcp(value("--tcp")?.clone())),
            "--limit" => options = options.with_limit(parse(value("--limit")?)?),
            "--timeout-ms" => {
                options =
                    options.with_timeout(Duration::from_millis(parse(value("--timeout-ms")?)?));
            }
            "--max-distance" => {
                options = options.with_max_distance(parse(value("--max-distance")?)?);
            }
            "--max-tuples" => options = options.with_max_tuples(parse(value("--max-tuples")?)?),
            "--policy" => options = options.with_on_overload(parse_policy(value("--policy")?)?),
            "--window" => window = parse(value("--window")?)?,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}' (see --help)").into());
            }
            other => match command {
                None => command = Some(other.to_owned()),
                // `exec QUERY`: the first free argument after the command is
                // the query text.
                Some(_) if query.is_none() => query = Some(other.to_owned()),
                Some(_) => return Err(format!("unexpected argument '{other}'").into()),
            },
        }
    }
    let endpoint = endpoint.ok_or("one of --unix / --tcp is required (see --help)")?;
    Ok(Some(Cli {
        endpoint,
        command: command.unwrap_or_else(|| "repl".to_owned()),
        query,
        options,
        window,
    }))
}

/// Runs the command `args` name, writing what it shows to `out`.
fn run(args: &[String], out: &mut dyn Write) -> Result<(), Stop> {
    let Some(cli) = parse_cli(args, out)? else {
        return Ok(());
    };
    match cli.command.as_str() {
        "repl" => repl(&cli, out),
        "exec" => exec_once(&cli, out),
        "metrics" => {
            let snapshot = connect(&cli)?.metrics().map_err(display)?;
            Ok(write!(out, "{}", snapshot.text)?)
        }
        "shutdown" => {
            connect(&cli)?.shutdown_server().map_err(display)?;
            Ok(writeln!(out, "server draining")?)
        }
        other => Err(format!("unknown command '{other}' (see --help)").into()),
    }
}

fn connect(cli: &Cli) -> Result<Connection, String> {
    let connected = match &cli.endpoint {
        Endpoint::Unix(path) => Connection::connect_unix(path),
        Endpoint::Tcp(addr) => Connection::connect_tcp(addr.as_str()),
    };
    let mut conn = connected.map_err(display)?;
    conn.set_window(cli.window);
    Ok(conn)
}

fn exec_once(cli: &Cli, out: &mut dyn Write) -> Result<(), Stop> {
    let query = cli.query.as_deref().ok_or("exec requires a query")?;
    let mut conn = connect(cli)?;
    let stream = conn.execute_text(query, &cli.options).map_err(display)?;
    print_stream(out, stream, false)
}

/// Writes a stream's answers to `out` as they arrive, then its summary and,
/// if asked for, its profile. A failed stream is reported on stderr.
fn print_stream(
    out: &mut dyn Write,
    mut stream: AnswerStream<'_>,
    want_profile: bool,
) -> Result<(), Stop> {
    let mut count = 0usize;
    loop {
        match stream.next_answer() {
            Ok(Some(answer)) => {
                count += 1;
                writeln!(out, "{}", render_answer(&answer))?;
            }
            Ok(None) => break,
            Err(err) => {
                eprintln!("error: {err}");
                return Ok(());
            }
        }
    }
    if let Some(stats) = stream.stats() {
        let drained = stream.finish_reason() == Some(FinishReason::Drained);
        writeln!(
            out,
            "-- {count} answer(s){}{}; {} tuples, {} lookups",
            if drained { " (drained)" } else { "" },
            if stats.degraded { " (degraded)" } else { "" },
            stats.tuples_processed,
            stats.neighbour_lookups,
        )?;
    }
    if want_profile {
        match stream.profile() {
            Some(profile) => write!(out, "{profile}")?,
            None => writeln!(out, "-- no profile returned by the server")?,
        }
    }
    Ok(())
}

fn render_answer(answer: &Answer) -> String {
    let bindings = answer
        .bindings
        .iter()
        .map(|(var, value)| format!("{var}={value}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{}] {}", answer.distance, bindings)
}

fn repl(cli: &Cli, out: &mut dyn Write) -> Result<(), Stop> {
    let mut conn = connect(cli)?;
    let mut options = cli.options.clone();
    writeln!(
        out,
        "connected to {} (protocol v{})",
        conn.server(),
        conn.version()
    )?;
    writeln!(out, "type 'help' for commands")?;
    let stdin = std::io::stdin();
    loop {
        write!(out, "omega> ")?;
        out.flush()?;
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) => return Err(e.to_string().into()),
        }
        let line = line.trim();
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((cmd, rest)) => (cmd, rest.trim()),
            None => (line, ""),
        };
        // What the command shows, or the client error it met.
        let outcome: omega_client::Result<String> = match cmd {
            "" => Ok(String::new()),
            "quit" | "exit" => return Ok(()),
            "help" => Ok("  prepare QUERY     compile a statement, print its id\n  \
                 exec QUERY|#ID    run a query or a prepared statement\n  \
                 profile QUERY|#ID run with per-phase timing and print the profile\n  \
                 close ID          drop a prepared statement\n  \
                 limit N|off       default answer limit\n  \
                 timeout MS|off    default deadline\n  \
                 policy P          overload policy: fail|degrade|shed\n  \
                 add T L H         add the edge T --L--> H (new epoch)\n  \
                 remove T L H      remove the edge T --L--> H (new epoch)\n  \
                 metrics           daemon metrics exposition\n  \
                 shutdown          drain the daemon\n  \
                 quit              leave\n"
                .to_owned()),
            "prepare" => conn.prepare(rest).map(|statement: Statement| {
                format!(
                    "#{} ({} conjunct(s), head: {})\n",
                    statement.id,
                    statement.conjuncts,
                    statement.head.join(", ")
                )
            }),
            "exec" | "profile" => {
                let want_profile = cmd == "profile";
                let request = if want_profile {
                    options.clone().with_profile(true)
                } else {
                    options.clone()
                };
                let started = match rest.strip_prefix('#') {
                    Some(id) => match id.trim().parse::<u64>() {
                        Ok(id) => conn.execute(omega_protocol::StatementRef::Id(id), &request),
                        Err(_) => {
                            writeln!(out, "usage: {cmd} QUERY or {cmd} #ID")?;
                            continue;
                        }
                    },
                    None => conn.execute_text(rest, &request),
                };
                match started {
                    Ok(stream) => {
                        print_stream(out, stream, want_profile)?;
                        Ok(String::new())
                    }
                    Err(err) => Err(err),
                }
            }
            "close" => match rest.parse::<u64>() {
                Ok(id) => conn.close(id).map(|()| format!("closed #{id}\n")),
                Err(_) => Ok("usage: close ID\n".to_owned()),
            },
            "limit" => {
                options.limit = rest.parse().ok();
                Ok(format!("limit: {:?}\n", options.limit))
            }
            "timeout" => {
                options.timeout = rest.parse().ok().map(Duration::from_millis);
                Ok(format!("timeout: {:?}\n", options.timeout))
            }
            "policy" => match parse_policy(rest) {
                Ok(policy) => {
                    options.on_overload = policy;
                    Ok(format!("policy: {policy:?}\n"))
                }
                Err(e) => Ok(format!("{e}\n")),
            },
            "add" | "remove" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                match parts.as_slice() {
                    [tail, label, head] => {
                        let mut mutation = Mutation::new();
                        if cmd == "add" {
                            mutation.add(tail, label, head);
                        } else {
                            mutation.remove(tail, label, head);
                        }
                        conn.mutate(&mutation).map(|report| {
                            format!(
                                "epoch {} (+{} edge(s), -{} edge(s))\n",
                                report.epoch, report.added, report.removed
                            )
                        })
                    }
                    _ => Ok(format!("usage: {cmd} TAIL LABEL HEAD\n")),
                }
            }
            "metrics" => conn.metrics().map(|snapshot| snapshot.text),
            "shutdown" => conn
                .shutdown_server()
                .map(|()| "server draining\n".to_owned()),
            other => Ok(format!("unknown command '{other}' (try 'help')\n")),
        };
        match outcome {
            Ok(text) => out.write_all(text.as_bytes())?,
            Err(err) => {
                writeln!(out, "error: {err}")?;
                if matches!(err, ClientError::Protocol(_)) {
                    return Err("connection lost".into());
                }
            }
        }
    }
}

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse()
        .map_err(|e| format!("invalid value '{raw}': {e}"))
}

fn parse_policy(raw: &str) -> Result<OverloadPolicy, String> {
    match raw {
        "fail" => Ok(OverloadPolicy::Fail),
        "degrade" => Ok(OverloadPolicy::Degrade),
        "shed" => Ok(OverloadPolicy::Shed),
        other => Err(format!("unknown policy '{other}' (fail|degrade|shed)")),
    }
}

fn display<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A standard output whose reader has gone away.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn a_closed_pipe_stops_the_cli_quietly() {
        let outcome = run(&["--help".to_owned()], &mut ClosedPipe);
        assert!(matches!(outcome, Err(Stop::Closed)), "{outcome:?}");
        assert_eq!(exit_code(outcome), 0);
    }

    #[test]
    fn other_failures_still_exit_two() {
        let mut out = Vec::new();
        let outcome = run(&["--bogus".to_owned()], &mut out);
        assert!(matches!(outcome, Err(Stop::Fail(_))), "{outcome:?}");
        assert_eq!(exit_code(outcome), 2);
        let written = Err(std::io::Error::from(ErrorKind::PermissionDenied));
        assert_eq!(exit_code(written.map_err(Stop::from)), 2);
        let mut help = Vec::new();
        run(&["-h".to_owned()], &mut help).unwrap();
        assert_eq!(help, USAGE.as_bytes());
    }
}
