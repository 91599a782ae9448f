//! Command-line entry point of the HTAP benchmark.
//!
//! ```text
//! htapbench --workload <tpch_olap|htap_chbench|server_point|scale_out>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's system, runs it for the window, checks its
//! outputs, builds it four more times for the median set-up time, and
//! prints one JSON line last on standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Everything
//! else goes to standard error. Spans of the traced run are written to
//! `htapbench/out/spans-<workload>.tsv`.

mod harness;
mod loadgen;
mod olap;
mod workloads;

use harness::{Args, RunResult};
use htapbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use htapbench::report::{Metric, Outcome};
use htapbench::stats;
use std::process::ExitCode;

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace must be 0 or 1, not {n}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

fn outcome(args: &Args, run: RunResult) -> Outcome {
    let metrics = if args.trace {
        let mut layers = run.layers;
        layers.set(
            "failed_frac",
            run.failed as f64 / run.attempted.max(1) as f64,
        );
        layers.set("trace.overhead.latency_frac", run.latency.overhead(false));
        layers.set(
            "trace.overhead.throughput_frac",
            run.throughput.overhead(true),
        );
        PER_LAYER
            .iter()
            .map(|d| Metric {
                name: d.name,
                value: layers.get(d.name),
                unit: d.unit,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|d| Metric {
                name: d.name,
                value: match d.name {
                    "setup_s" => stats::median(&run.setup_s).unwrap_or(0.0),
                    "rss_mib" => run.rss_mib,
                    "latency_ms" => run.latency.plain,
                    "throughput_per_s" => run.throughput.plain,
                    other => unreachable!("end-to-end metric {other} has no source"),
                },
                unit: d.unit,
            })
            .collect()
    };
    Outcome {
        correct: run.problems.is_empty(),
        attempted: run.attempted.max(1),
        failed: run.failed,
        metrics,
    }
}

fn write_spans(args: &Args, run: &RunResult) {
    if run.spans.is_empty() {
        return;
    }
    let dir = std::path::Path::new("htapbench/out");
    let path = dir.join(format!("spans-{}.tsv", args.workload));
    let written = std::fs::create_dir_all(dir).and_then(|_| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        htapbench::trace::write_tsv(&run.spans, &mut f)
    });
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", run.spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("htapbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "tpch_olap" => workloads::tpch::run(&args),
        "htap_chbench" => workloads::chbench::run(&args),
        "server_point" => workloads::point::run(&args),
        "scale_out" => workloads::scaleout::run(&args),
        other => unreachable!("workload {other} passed validation"),
    };
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("htapbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in run.notes.iter().take(10) {
        eprintln!("failed: {note}");
    }
    for problem in &run.problems {
        eprintln!("problem: {problem}");
    }
    eprintln!(
        "setup_s: {:?}  attempted: {}  failed: {}",
        run.setup_s, run.attempted, run.failed
    );
    if args.trace {
        write_spans(&args, &run);
    }
    match outcome(&args, run).to_json() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("htapbench: {e}");
            ExitCode::FAILURE
        }
    }
}
