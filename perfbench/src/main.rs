//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload stack_n1600 --seed 1 --seconds 10 --trace 0
//! python3 perfbench/run.py --self-check
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the public entry
//! points only; `--trace 1` measures the per-layer metrics, timing the
//! calls into each layer from the benchmark's side. The last line of
//! standard output is the JSON result; the lines before it say where the
//! time went. `perfbench/README.md` maps each per-layer metric to the
//! end-to-end metric and workload it should move.

mod alloc;
mod jobs;
mod report;
mod sim;
mod stats;
mod timed;

use report::{catalogue, Report};
use sim::{SimSpec, Stack};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default ideal stack at N=1600, single-threaded.
    StackN1600,
    /// The ideal stack on a 2x2 shard plane at N=10k, stages run inline.
    ShardN10k2x2,
    /// The fault-plane stack at N=800.
    FaultyN800,
    /// `manet serve-jobs` under a closed loop of 2 clients.
    JobsMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::StackN1600,
        Workload::ShardN10k2x2,
        Workload::FaultyN800,
        Workload::JobsMix,
    ];

    /// Their names.
    pub const NAMES: [&'static str; 4] =
        ["stack_n1600", "shard_n10k_2x2", "faulty_n800", "jobs_mix"];

    fn name(self) -> &'static str {
        Self::NAMES[Self::ALL.iter().position(|&w| w == self).expect("listed")]
    }

    fn parse(name: &str) -> Option<Workload> {
        Self::NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| Self::ALL[i])
    }

    /// The simulator configuration, for simulator workloads.
    fn sim(self) -> Option<SimSpec> {
        let spec = |nodes, speed, stack| {
            Some(SimSpec {
                nodes,
                speed,
                stack,
            })
        };
        match self {
            Workload::StackN1600 => spec(1600, 10.0, Stack::Ideal),
            // One worker: on a 2-CPU host shared with other load, the
            // per-stage barrier of a 2-worker pool turns host contention
            // into run-to-run spreads wider than any useful bound.
            Workload::ShardN10k2x2 => spec(10_000, 10.0, Stack::Sharded("2x2", 1)),
            Workload::FaultyN800 => spec(800, 20.0, Stack::Faulty),
            Workload::JobsMix => None,
        }
    }
}

/// Per-layer metric families only the simulator workloads measure.
const SIM_ONLY: [&str; 9] = [
    "mobility.",
    "topology.",
    "hello.",
    "cluster.",
    "route.",
    "stack.",
    "tick.",
    "sim.",
    "shard.",
];
/// Per-layer metric families only `jobs_mix` measures. Every workload
/// measures the rest.
const JOBS_ONLY: [&str; 3] = ["http.", "jobs.", "spec."];

/// Runs one workload in one mode: detail lines plus the report.
fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    manet: &Path,
) -> Result<(String, Report), String> {
    let mut report = Report::default();
    let detail = match (workload.sim(), trace) {
        (Some(spec), false) => sim::end_to_end(&spec, seed, seconds, &mut report),
        (Some(spec), true) => sim::per_layer(&spec, seed, seconds, &mut report),
        (None, false) => jobs::end_to_end(manet, seed, seconds, &mut report)
            .map_err(|e| format!("jobs_mix: {e}"))?,
        (None, true) => jobs::per_layer(manet, seed, seconds, &mut report)
            .map_err(|e| format!("jobs_mix: {e}"))?,
    };
    if trace {
        // The other kind of workload's metric families do not apply: 0.
        let other = if workload.sim().is_some() {
            &JOBS_ONLY[..]
        } else {
            &SIM_ONLY[..]
        };
        for def in catalogue(true) {
            if other.iter().any(|p| def.name.starts_with(p)) {
                report.set(def.name, 0.0);
            }
        }
        report.set("failed_ratio", report.failed_ratio());
        report.set("host_cpus", stats::host_cpus() as f64);
    }
    Ok((detail, report))
}

/// Runs every workload briefly in both modes and checks that each prints
/// every catalogued metric, finite, with nothing failed.
fn self_check(manet: &Path) -> Result<(), String> {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (_, report) = run(workload, 1, 0.5, trace, manet)?;
            report
                .validate(trace)
                .map_err(|e| format!("{} (trace {}): {e}", workload.name(), u8::from(trace)))?;
            println!(
                "self-check {:<15} trace={} ok ({} checks)",
                workload.name(),
                u8::from(trace),
                report.attempted
            );
        }
    }
    Ok(())
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    manet: PathBuf,
    commit: String,
    self_check: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        manet: PathBuf::from("manet"),
        commit: "unknown".to_string(),
        self_check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            out.self_check = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} is missing a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {:?}", Workload::NAMES)
                })?)
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--manet" => out.manet = PathBuf::from(value),
            "--commit" => out.commit = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_none() && !out.self_check {
        return Err("--workload is required (or --self-check)".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return match self_check(&args.manet) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: self-check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("checked by parse_args");
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_cpus={} commit={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::host_cpus(),
        args.commit
    );
    match run(workload, args.seed, args.seconds, args.trace, &args.manet) {
        Ok((detail, report)) => {
            println!("{detail}");
            println!("{}", report.table(args.trace));
            println!("{}", report.json(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
