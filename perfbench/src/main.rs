//! `perfbench`: run one workload (or all of them) and print every metric.
//!
//! ```text
//! perfbench --workload <churn-durable|read-cold|serve-hot|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics, a traced run (`--trace 1`)
//! the per-layer ones. `--workload all` runs every workload untraced and
//! traced and prints everything. The exit code is non-zero when any
//! returned byte was wrong, and with `--workload all` also when the
//! durability check found an acknowledged key wrong or lost; a traced
//! single-workload run reports such keys in `core.lost_after_crash` only.

use lobster_perfbench::{run, Options, Report, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        all: false,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let w = val()?;
                if w == "all" {
                    a.all = true;
                    a.workloads = Workload::ALL.to_vec();
                } else {
                    a.workloads = vec![Workload::parse(&w).ok_or(format!("unknown workload {w}"))?];
                }
            }
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => a.out = PathBuf::from(val()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn options(a: &Args, w: Workload, trace: bool) -> Options {
    let mut o = Options::new(w, a.seed, a.seconds, trace);
    o.out_dir = a.out.clone();
    o
}

fn execute(o: &Options) -> Result<Report, String> {
    let r = run(o).map_err(|e| format!("{}: {e}", o.workload.name()))?;
    for line in r.human() {
        println!("{line}");
    }
    if r.attempted == 0 {
        return Err(format!("{}: no operation completed", o.workload.name()));
    }
    Ok(r)
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let modes: &[bool] = if a.all { &[false, true] } else { &[a.trace] };
    let mut reports = Vec::new();
    for &w in &a.workloads {
        for &trace in modes {
            match execute(&options(&a, w, trace)) {
                Ok(r) => reports.push(r),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let correct = reports.iter().all(|r| r.correct);
    let lost: u64 = reports.iter().filter_map(|r| r.lost_after_crash).sum();
    if a.all {
        let body: Vec<String> = reports
            .iter()
            .map(|r| {
                format!(
                    "\"{}/trace{}\": {}",
                    r.workload,
                    u8::from(r.traced),
                    r.json()
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"lost_after_crash\": {lost}, \"runs\": {{{}}}}}",
            body.join(", ")
        );
    } else {
        println!("{}", reports[0].json());
    }
    if !correct {
        eprintln!("perfbench: wrong bytes returned (see the report above)");
        return ExitCode::FAILURE;
    }
    if a.all && lost > 0 {
        eprintln!("perfbench: {lost} acknowledged keys wrong or lost after the power cut");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
