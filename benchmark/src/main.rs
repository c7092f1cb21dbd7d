//! `telco-pipeline-bench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--work-dir <dir>]`
//!
//! An untraced run splits its seconds over [`PARTS`] child processes that
//! each set up and measure the workload, and reports the median over them:
//! the run-to-run spread on a shared machine is mostly per process
//! (placement, allocator and page layout), so one process per run would
//! carry all of it. A traced run uses one child. The parent then checks the
//! results against the in-memory batch study of the same config, computed
//! in another child so it counts towards no measured process, and prints
//! three lines: the environment block, the workload's detailed figures,
//! and last the result object `{"correct", "attempted", "failed",
//! "metrics"}`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde::Value;
use telco_pipeline_bench::metrics::median;
use telco_pipeline_bench::{
    calibration_membw_gbps, calibration_mops, config, hardware_threads, reference_hash, run,
    Outcome, Params, Scale, Workload,
};

/// Child processes of an untraced run.
const PARTS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Orchestrate the parts, check and report.
    Run,
    /// One part: measure and print the raw outcome.
    Part,
    /// Print the reference hash.
    Reference,
}

struct Args {
    mode: Mode,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut mode = Mode::Run;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_build/bench-work");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--part" => mode = Mode::Part,
            "--reference" => mode = Mode::Reference,
            _ => {
                let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--workload" => {
                        let w = Workload::parse(&value);
                        workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
                    }
                    "--seed" => {
                        seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?);
                    }
                    "--seconds" => {
                        seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    }
                    "--trace" => trace = value == "1",
                    "--work-dir" => work_dir = PathBuf::from(value),
                    _ => return Err(format!("unknown flag {flag}")),
                }
            }
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        work_dir,
    })
}

/// A JSON number: every digit `Display` gives; non-finite values (a latency
/// quantile that landed on a failed request) as the largest finite one.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn metrics_json(metrics: &BTreeMap<String, (f64, String)>) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(k, (v, unit))| format!("\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
        .collect();
    format!("{{{}}}", items.join(","))
}

fn pairs_json(pairs: &[(String, f64)]) -> String {
    let items: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{}", num(*v))).collect();
    format!("{{{}}}", items.join(","))
}

/// One part's outcome as one JSON line.
fn part_json(out: &Outcome) -> String {
    let metrics = out.metrics.iter().map(|(k, (v, u))| (k.clone(), (*v, u.to_string()))).collect();
    let hashes: Vec<String> =
        out.hashes.iter().map(|(k, h)| format!("\"{k}\":\"{h:016x}\"")).collect();
    format!(
        "{{\"attempted\":{},\"failed\":{},\"hashes\":{{{}}},\"detail\":{},\"metrics\":{}}}",
        out.attempted,
        out.failed,
        hashes.join(","),
        pairs_json(&out.detail),
        metrics_json(&metrics)
    )
}

/// A part's outcome, parsed back.
#[derive(Default)]
struct Part {
    attempted: u64,
    failed: u64,
    hashes: Vec<(String, u64)>,
    detail: Vec<(String, f64)>,
    metrics: BTreeMap<String, (f64, String)>,
}

fn object(v: &Value) -> &[(String, Value)] {
    v.as_object().unwrap_or(&[])
}

fn number(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(x) => *x,
        Value::F32(x) => f64::from(*x),
        _ => f64::NAN,
    }
}

fn parse_part(line: &str) -> Result<Part, String> {
    let v = serde_json::parse_value(line).map_err(|e| format!("part output: {e}"))?;
    let mut part = Part::default();
    for (key, value) in object(&v) {
        match key.as_str() {
            "attempted" => part.attempted = number(value) as u64,
            "failed" => part.failed = number(value) as u64,
            "hashes" => {
                for (k, h) in object(value) {
                    let Value::Str(hex) = h else { continue };
                    part.hashes.push((k.clone(), u64::from_str_radix(hex, 16).unwrap_or(0)));
                }
            }
            "detail" => {
                part.detail = object(value).iter().map(|(k, x)| (k.clone(), number(x))).collect()
            }
            "metrics" => {
                for (k, m) in object(value) {
                    let field =
                        |name: &str| object(m).iter().find(|(f, _)| f == name).map(|(_, x)| x);
                    let unit = match field("unit") {
                        Some(Value::Str(u)) => u.clone(),
                        _ => String::new(),
                    };
                    part.metrics.insert(k.clone(), (field("value").map_or(f64::NAN, number), unit));
                }
            }
            _ => {}
        }
    }
    Ok(part)
}

/// Run this executable again with `args`; its last stdout line.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let output = Command::new(exe).args(args).output().map_err(|e| format!("child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child {args:?} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines().last().map(str::to_string).ok_or_else(|| format!("child {args:?} printed nothing"))
}

/// Median over the parts of every value under each name.
fn median_by_name(rows: Vec<Vec<(String, f64)>>) -> Vec<(String, f64)> {
    let mut by_name: Vec<(String, Vec<f64>)> = Vec::new();
    for row in rows {
        for (k, v) in row {
            match by_name.iter_mut().find(|(n, _)| *n == k) {
                Some((_, vs)) => vs.push(v),
                None => by_name.push((k, vec![v])),
            }
        }
    }
    by_name.into_iter().map(|(k, vs)| (k, median(&vs))).collect()
}

fn run_parts(args: &Args) -> Result<(), String> {
    let parts = if args.trace { 1 } else { PARTS };
    let seconds = args.seconds / parts as f64;
    let mut outcomes = Vec::new();
    for i in 0..parts {
        let work_dir =
            args.work_dir.join(format!("{}-{}-{i}", args.workload.name(), std::process::id()));
        let line = child(&[
            "--part".into(),
            "--workload".into(),
            args.workload.name().into(),
            "--seed".into(),
            args.seed.to_string(),
            "--seconds".into(),
            seconds.to_string(),
            "--trace".into(),
            if args.trace { "1" } else { "0" }.into(),
            "--work-dir".into(),
            work_dir.display().to_string(),
        ]);
        // Best effort: the workloads remove their own directories on success.
        let _ = std::fs::remove_dir_all(&work_dir);
        outcomes.push(parse_part(&line?)?);
    }

    let reference = child(&[
        "--reference".into(),
        "--workload".into(),
        args.workload.name().into(),
        "--seed".into(),
        args.seed.to_string(),
    ])
    .and_then(|line| line.trim().parse::<u64>().map_err(|_| format!("reference printed {line:?}")));
    let hashes: Vec<(String, u64)> = outcomes
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.hashes.iter().map(move |(k, h)| (format!("part{i}.{k}"), *h)))
        .collect();
    let correct = match &reference {
        Ok(want) => !hashes.is_empty() && hashes.iter().all(|(_, h)| h == want),
        Err(e) => {
            eprintln!("telco-pipeline-bench: {e}");
            false
        }
    };
    if !correct {
        eprintln!("telco-pipeline-bench: SweepOutputs gate failed: reference {reference:?}, got {hashes:?}");
    }

    let attempted: u64 = outcomes.iter().map(|p| p.attempted).sum();
    let failed: u64 = outcomes.iter().map(|p| p.failed).sum();
    let units: BTreeMap<String, String> = outcomes
        .iter()
        .flat_map(|p| p.metrics.iter().map(|(k, (_, u))| (k.clone(), u.clone())))
        .collect();
    let metrics: BTreeMap<String, (f64, String)> = median_by_name(
        outcomes
            .iter()
            .map(|p| p.metrics.iter().map(|(k, (v, _))| (k.clone(), *v)).collect())
            .collect(),
    )
    .into_iter()
    .map(|(k, v)| {
        let unit = units.get(&k).cloned().unwrap_or_default();
        (k, (v, unit))
    })
    .collect();
    let detail = median_by_name(outcomes.iter().map(|p| p.detail.clone()).collect());

    let commit = std::env::var("BENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into());
    println!(
        "{{\"env\":{{\"hardware_threads\":{},\"calibration_mops\":{},\"calibration_membw_gbps\":{},\
         \"commit\":\"{}\",\"parts\":{parts}}}}}",
        hardware_threads(),
        num(calibration_mops()),
        num(calibration_membw_gbps()),
        commit.escape_default()
    );
    let hex: Vec<String> = hashes.iter().map(|(k, h)| format!("\"{k}\":\"{h:016x}\"")).collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"detail\":{},\"gate\":{{{}}}}}",
        args.workload.name(),
        args.seed,
        pairs_json(&detail),
        hex.join(",")
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("telco-pipeline-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode {
        Mode::Reference => {
            println!("{}", reference_hash(&config(args.workload, Scale::Bench, args.seed)));
            Ok(())
        }
        Mode::Part => {
            let exe = std::env::current_exe().unwrap_or_default();
            let params = Params {
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                scale: Scale::Bench,
                work_dir: args.work_dir.clone(),
                worker: exe.with_file_name("telco-worker"),
            };
            run(args.workload, &params).map(|out| println!("{}", part_json(&out)))
        }
        Mode::Run => run_parts(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("telco-pipeline-bench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
