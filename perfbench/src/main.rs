//! Real-clock benchmark of the contfield library.
//!
//! Drives the library only through its public API, with zero simulated
//! latency, and prints one JSON result line (see `README.md` in this
//! directory for the workloads, metrics and the layer map):
//!
//! ```text
//! perfbench --workload warm_q2|cold_q2|ingest_mixed --seed N --seconds S
//!           --trace 0|1 --data-dir DIR [--setups-only 1]
//! ```
//!
//! `--trace 0` is the timed run: the program's tracer stays off and the
//! end-to-end metrics are reported. `--trace 1` is the traced run of the
//! same inputs: it records the benchmark's own spans around its calls
//! into each crate, reads the program's EXPLAIN records and registry
//! values, times each layer's public functions on the workload's data,
//! and reports the per-layer metrics.

mod check;
mod gen;
mod layers;
mod load;
mod report;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: workload::Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for file-backed databases and the span dump.
    pub data_dir: PathBuf,
    /// Only time one group of set-ups and print their seconds; a timed
    /// run starts this mode in a new process for its second group.
    pub setups_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut data_dir = None;
    let mut setups_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside [1, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--data-dir" => data_dir = Some(PathBuf::from(value)),
            "--setups-only" => {
                setups_only = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--setups-only takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        data_dir: data_dir.ok_or("--data-dir is required")?,
        setups_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.data_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.data_dir.display());
        return ExitCode::from(2);
    }
    if args.setups_only {
        return match workload::setups_only(&args) {
            Ok(setups) => {
                let times: Vec<String> = setups.iter().map(|s| format!("{s:?}")).collect();
                println!("{}", times.join(" "));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    match workload::run(&args) {
        Ok(result) => {
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
