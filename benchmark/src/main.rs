//! `mmbench` — the repo benchmark.
//!
//! ```text
//! mmbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one workload, in this process
//! mmbench [--seed N] [--seconds S] [--trace 0|1]                   all eight, one process each
//! mmbench selfcheck [--seed N] [--seconds S]                       two same-seed suites + one other seed
//! ```
//!
//! Closed loop, one process, one thread.  The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.  The
//! exit code is non-zero when an oracle check failed — after every metric
//! has been printed.  See `README.md` beside this package.

mod alloc;
mod json;
mod protocols;
mod run;
mod selfcheck;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub struct Args {
    pub selfcheck: bool,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            selfcheck: false,
            workload: None,
            seed: 1,
            seconds: spec::RUN_SECONDS,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            if flag == "selfcheck" {
                args.selfcheck = true;
                continue;
            }
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: {what}");
            match flag.as_str() {
                "--workload" => {
                    if !spec::WORKLOADS.iter().any(|w| w.name == value) {
                        return Err(bad("no such workload"));
                    }
                    args.workload = Some(value);
                }
                "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err(bad("outside 0..=600"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("neither 0 nor 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mmbench: {e}");
            eprintln!(
                "usage: mmbench [selfcheck] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]"
            );
            eprintln!("workloads: {}", spec::WORKLOADS.map(|w| w.name).join(" "));
            return ExitCode::from(2);
        }
    };
    let ok = if args.selfcheck {
        selfcheck::run(&args)
    } else if let Some(workload) = &args.workload {
        run_one(workload, &args)
    } else {
        run_all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// First line of a tool's `--version`-style output, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_one(workload: &str, args: &Args) -> bool {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# mmbench workload={workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc={nproc} (one thread used) rustc=\"{}\" git={}",
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "HEAD"])
    );
    let why = spec::WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map(|w| w.why);
    println!(
        "# why: {}",
        why.expect("Args::parse admits only known workloads")
    );
    if workload == "chansum-wire" {
        println!("# wire traffic crosses the host's loopback interface only: no real link");
    }
    let report = if args.trace {
        run::traced(workload, args)
    } else {
        run::untraced(workload, args)
    };
    let report = report.expect("Args::parse admits only known workloads");
    report.print_table();
    println!("{}", report.to_json());
    report.failed == 0
}

/// One child process's parsed result line.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Runs one workload in a process of its own — so `peak_rss_mb` is not
/// contaminated by the others — echoing its output and parsing its result
/// line.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    let doc = json::parse(line).map_err(|e| format!("{workload} result line: {e}"))?;
    let number = |key: &str| doc.get(key).and_then(json::Value::as_f64);
    let metrics = doc
        .get("metrics")
        .and_then(json::Value::as_object)
        .ok_or(format!("{workload} result line has no metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct").and_then(json::Value::as_bool) == Some(true)
            && out.status.success(),
        attempted: number("attempted").unwrap_or(0.0) as u64,
        failed: number("failed").unwrap_or(0.0) as u64,
        metrics,
    })
}

fn run_all(args: &Args) -> bool {
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut per_workload = Vec::new();
    for w in &spec::WORKLOADS {
        match run_child(w.name, args.seed, args.seconds, args.trace) {
            Ok(r) => {
                correct &= r.correct;
                attempted += r.attempted;
                failed += r.failed;
                let metrics: Vec<String> = r
                    .metrics
                    .iter()
                    .map(|(name, value)| format!("\"{name}\": {value}"))
                    .collect();
                per_workload.push(format!("\"{}\": {{{}}}", w.name, metrics.join(", ")));
            }
            Err(e) => {
                println!("FAILED {e}");
                correct = false;
            }
        }
        println!();
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
        per_workload.join(", ")
    );
    correct
}
