//! The repository benchmark: three seeded workloads that drive the public
//! entry points of the λ-Tune reproduction and report end-to-end metrics
//! (tracing off) or per-layer metrics (tracing on).
//!
//! ```text
//! perfbench --workload tune-cold|serve-open|feed-drift --seed N --seconds S
//!           --trace 0|1 --daemon PATH/TO/lt-serve --work-dir DIR
//! ```
//!
//! `perfbench/run.py` builds this binary and the daemon and passes the last
//! two flags. The last line of stdout is the JSON result; the lines before
//! it are a readable report with the evidence behind each metric.

mod client;
mod daemon;
mod feed_drift;
mod gen;
mod replay;
mod report;
mod rng;
mod serve_open;
mod stats;
mod trace;
mod tune_cold;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `lt-serve` binary.
    pub daemon: PathBuf,
    /// Scratch directory of this run (WAL, daemon logs, trace output).
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut work_dir = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon: daemon.ok_or("--daemon is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    // The program's own recorder stays off unless a traced run turns it on
    // around in-process calls.
    lt_common::obs::set_enabled(false);
    let tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "tune-cold" => tune_cold::run(&args, &tracer, &mut report),
        "serve-open" => serve_open::run(&args, &tracer, &mut report),
        "feed-drift" => feed_drift::run(&args, &tracer, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = outcome {
        // A workload that cannot run prints no result.
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    if report.attempted == 0 {
        report.problems.push("no operation was attempted".into());
    }
    report.set(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    if args.trace {
        let path = args
            .work_dir
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let doc = lt_common::json::Value::Object(vec![
            ("workload".into(), args.workload.as_str().into()),
            ("seed".into(), lt_common::json::Value::from(args.seed)),
            ("spans".into(), tracer.to_json()),
        ]);
        if let Err(e) = std::fs::write(&path, doc.to_string_pretty()) {
            report.problems.push(format!("{}: {e}", path.display()));
        }
        report.note("trace_file", path.display().to_string());
    }

    let line = report.result_line(args.trace);
    println!("perfbench {} seed {}:", args.workload, args.seed);
    for (name, value) in &report.values {
        println!("  {name:<28} {value}");
    }
    for (key, value) in &report.notes {
        println!(
            "  {key:<28} {}",
            lt_common::json::to_string_pretty(value).replace('\n', " ")
        );
    }
    for problem in &report.problems {
        println!("  CHECK FAILED: {problem}");
    }
    println!("{line}");
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
