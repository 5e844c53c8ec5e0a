//! The wcet-toolkit benchmark: four seeded workloads measured end to
//! end, plus a separate traced run that times each layer's public
//! functions from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign-cold --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The process exits non-zero when any output check fails. See
//! `README.md` beside this crate for the workloads and metrics.

mod campaign;
mod clock;
mod dense;
mod gen;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-up runs this many times in an untraced run; `setup_s` is the
/// median, so one slow repetition does not move it.
pub const SETUP_REPEATS: usize = 3;

pub const WORKLOADS: [&str; 4] = [
    "campaign-cold",
    "campaign-warm",
    "validate-dense",
    "serve-mixed",
];

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; expected one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A per-run scratch directory under `.bench_tmp/` in the working
/// directory, removed when the run ends however it ends.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> Result<TempDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = Path::new(".bench_tmp").join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn run(args: &Args) -> Result<report::Report, String> {
    let tmp = TempDir::create()?;
    match args.workload.as_str() {
        "campaign-cold" => campaign::run(args, &tmp.0, false),
        "campaign-warm" => campaign::run(args, &tmp.0, true),
        "validate-dense" => dense::run(args, &tmp.0),
        "serve-mixed" => serve::run(args, &tmp.0),
        other => Err(format!("unknown workload {other}")),
    }
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
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for why in &report.failures {
        eprintln!("perfbench: {}: {why}", args.workload);
    }
    print!("{}", report.table());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {}: {} of {} operations failed their output check",
            args.workload, report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}
