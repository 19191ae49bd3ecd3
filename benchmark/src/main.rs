//! `caba-benchmark`: the repo's benchmark. One command runs one workload,
//! checks its outputs and prints every metric by name with its unit; the
//! last line of standard output is the result as one JSON object.
//!
//! ```text
//! caba-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//!                [--smoke] [--out FILE] [--commit HASH]
//! caba-benchmark compare DIR_A DIR_B
//! ```
//!
//! README.md has the protocol, the metrics and the layer table.

mod compare;
mod estimate;
mod fsshim;
mod host;
mod json;
mod metrics;
mod rng;
mod run;
mod trace;
mod workloads;

use run::{drive, Ctx, Options};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// As `BENCHMARK.json` names them.
pub const WORKLOADS: [&str; 4] = ["sim_base", "sim_caba", "serve_warm", "persist_churn"];

/// `run_seconds` of `BENCHMARK.json`, when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: caba-benchmark --workload {sim_base|sim_caba|serve_warm|persist_churn} --seed N \
[--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--commit HASH]\n       caba-benchmark compare DIR_A DIR_B";

struct Cli {
    workload: &'static str,
    seed: u64,
    smoke: bool,
    opt: Options,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut smoke = false;
    let mut opt = Options {
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        commit: "unknown".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                opt.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opt.seconds > 0.0 && opt.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opt.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => opt.out = Some(PathBuf::from(value()?)),
            "--commit" => opt.commit = value()?.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        smoke,
        opt,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(Path::new(a), Path::new(b)) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("caba-benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("caba-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Store roots and journals live under the benchmark's own directory:
    // a run reads and writes nothing outside its checkout.
    let scratch = run::out_dir().join(format!("scratch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("caba-benchmark: {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        workload: cli.workload,
        seed: cli.seed,
        smoke: cli.smoke,
        scratch: scratch.clone(),
    };
    let outcome = match cli.workload {
        "serve_warm" => drive::<workloads::serve::Serve>(&ctx, &cli.opt),
        "persist_churn" => drive::<workloads::churn::Churn>(&ctx, &cli.opt),
        _ => drive::<workloads::sim::Sim>(&ctx, &cli.opt),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(result_line) => {
            // A wrong output is reported in the result, not by the exit code.
            println!("{result_line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("caba-benchmark: {}: {e}", cli.workload);
            ExitCode::from(1)
        }
    }
}
