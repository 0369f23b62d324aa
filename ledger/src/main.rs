//! `ledger`: the repository's benchmark. See README.md beside this file.
//!
//! ```text
//! ledger --seed <n> [--workload <name>] [--seconds <s>] [--trace <0|1>] [--trace-out <file>]
//! ```
//!
//! With `--workload`, runs that workload once in this process — end to end
//! (`--trace 0`, the default) or per layer (`--trace 1`) — prints every
//! metric by name with its unit, and ends with one JSON object on the last
//! line of standard output. Without `--workload`, runs every workload both
//! ways, each in a process of its own so that `peak_rss_mb` is the
//! workload's. Exits non-zero when a correctness check fails.

mod alloc;
mod gen;
mod kv;
mod ladder;
mod measure;
mod probe;
mod report;
mod stats;
mod tm;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Report, END_TO_END, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds of timed epochs when `--seconds` is not given: `run_seconds`
/// of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
    };
    let mut seeded = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seeded = true;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seeded {
        return Err("--seed <n> is required".into());
    }
    Ok(args)
}

/// Prints the report: notes, one line per metric, and the JSON object the
/// driver reads on the last line.
fn print(workload: &str, report: &Report, names: &[(String, &str)]) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    let mut text = format!("workload {workload}\n");
    for note in &report.notes {
        text.push_str(&format!("# {note}\n"));
    }
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = report.get(name);
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        text.push_str(&format!("{name} = {value} {unit}\n"));
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}\n");
    out.write_all(text.as_bytes())
        .and_then(|()| out.write_all(json.as_bytes()))
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write the report: {e}"))
}

fn run_one(workload: &str, args: &Args) -> Result<(), String> {
    if !args.trace {
        let report = report::end_to_end(workload, args.seed, args.seconds)?;
        let names: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        return print(workload, &report, &names);
    }
    let report = report::per_layer_run(workload, args.seed, args.seconds)?;
    if let Some(path) = &args.trace_out {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        trace::write_jsonl(&mut out, &report.spans)
            .and_then(|()| out.flush())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    print(workload, &report, &report::per_layer())
}

/// Runs every workload end to end and per layer, each in a child process
/// of this executable, which is waited for before the next starts.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if let (Some(path), "1") = (&args.trace_out, trace) {
                let mut name = path.clone().into_os_string();
                name.push(format!(".{workload}"));
                cmd.arg("--trace-out").arg(name);
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            if !status.success() {
                return Err(format!("{workload} (--trace {trace}) failed: {status}"));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| match &args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse(&[
            "--workload",
            "kv_open",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("kv_open"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = parse(&["--seed", "3"]).unwrap();
        assert_eq!(
            (a.workload, a.seconds, a.trace),
            (None, DEFAULT_SECONDS, false)
        );
    }

    #[test]
    fn refuses_bad_command_lines() {
        assert!(parse(&[]).is_err(), "the seed is required");
        assert!(parse(&["--seed", "1", "--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1", "--trace", "2"]).is_err());
        assert!(parse(&["--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&["--seed", "1", "--seconds", "61"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "1", "--bogus"]).is_err());
    }
}
