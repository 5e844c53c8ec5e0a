//! `campaign-cold` and `campaign-warm`: the streaming campaign runner
//! over the 108 000-cell campaign spec, on every available core.
//!
//! * cold — each pass gets a fresh solve context and memo domain (the
//!   runner creates both) and writes a fresh disk memo, so the cache
//!   fixpoint, block costs, IPET, neighbour reuse and memo appends do
//!   the work;
//! * warm — each pass reads a pristine copy of the disk memo primed in
//!   set-up, so memo open/parse/lookup, expansion and fingerprinting do
//!   the work.
//!
//! One operation is one unique cell. A cell fails on a supervised
//! failure, a build error, or a bound digest that differs from the
//! reference pass made in set-up (for `campaign-warm` that reference is
//! the cold priming pass, so warm ≡ cold is checked cell by cell).

use std::path::{Path, PathBuf};
use std::time::Instant;

use wcet_bench::scenario::{parse_matrix, run_campaign_with, CampaignOptions, CampaignRun};
use wcet_bench::scenario::{CellOutcome, ScenarioMatrix};

use crate::clock::Clock;
use crate::report::{EndToEnd, Percentiles, Report};
use crate::stats::{self, Digest};
use crate::{gen, trace, Args, SETUP_REPEATS};

/// The bound digest of one cell: its name and every row's bound or
/// error, in row order.
pub fn cell_digest(cell: &CellOutcome) -> u64 {
    let mut d = Digest::default();
    d.str(&cell.scenario.name);
    for row in &cell.rows {
        d.str(&row.task)
            .u64(row.core as u64)
            .u64(row.thread as u64)
            .str(&row.mode);
        match &row.outcome {
            Ok(bound) => d.u64(bound.wcet),
            Err(e) => d.str(e),
        };
    }
    if let Some(e) = &cell.error {
        d.str(e);
    }
    d.finish()
}

/// One campaign pass: the runner's own counters plus what the benchmark
/// observed of each cell as it streamed out.
pub struct Pass {
    pub run: CampaignRun,
    pub digests: Vec<u64>,
    /// Cells that came back with a supervised failure or build error.
    pub broken: Vec<String>,
    /// Milliseconds from the pass start to each cell's delivery.
    pub delivered_ms: Vec<f64>,
    /// The outcomes `keep` selected by delivery index.
    pub kept: Vec<CellOutcome>,
}

/// Runs one pass against the disk memo at `cache`, keeping the outcomes
/// whose delivery index `keep` selects.
pub fn pass(matrix: &ScenarioMatrix, cache: &Path, keep: impl Fn(usize) -> bool + Sync) -> Pass {
    let opts = CampaignOptions {
        threads: 0,
        cache: Some(cache.to_path_buf()),
        ..CampaignOptions::default()
    };
    let mut digests = Vec::new();
    let mut broken = Vec::new();
    let mut delivered_ms = Vec::new();
    let mut kept = Vec::new();
    let start = Instant::now();
    let run = run_campaign_with(matrix, &opts, |cell| {
        delivered_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if keep(digests.len()) {
            kept.push(cell.clone());
        }
        digests.push(cell_digest(cell));
        if cell.failure.is_some() || cell.error.is_some() {
            broken.push(cell.scenario.name.clone());
        }
    });
    Pass {
        run,
        digests,
        broken,
        delivered_ms,
        kept,
    }
}

/// Checks a pass against the reference digests, counting each cell as
/// one attempted operation.
fn check(pass: &Pass, reference: &[u64], report: &mut Report) {
    report.attempted += pass.digests.len() as u64;
    for name in &pass.broken {
        report.fail(format!("cell {name} failed or did not build"));
    }
    if pass.digests.len() != reference.len() {
        report.fail(format!(
            "pass delivered {} cells, reference has {}",
            pass.digests.len(),
            reference.len()
        ));
    }
    let mismatched = pass
        .digests
        .iter()
        .zip(reference)
        .filter(|(a, b)| a != b)
        .count();
    for _ in 0..mismatched {
        report.fail("cell bounds differ from the reference pass");
    }
    if let Some(e) = &pass.run.cache_error {
        report.fail(format!("disk memo error: {e}"));
    }
}

fn remove(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", path.display())),
    }
}

/// Everything set-up leaves for the timed passes.
struct Ready {
    matrix: ScenarioMatrix,
    reference: Vec<u64>,
    /// The primed memo (warm only).
    primed: Option<PathBuf>,
}

/// Set-up: spec generation and parse, then the untimed warm-up pass
/// (cold), or the priming pass and a warm-up pass over a copy of its
/// memo (warm). Returns the state and the seconds it took.
fn set_up(
    args: &Args,
    tmp: &Path,
    warm: bool,
    clock: &mut Clock,
    report: &mut Report,
) -> Result<(Ready, f64), String> {
    let scratch = tmp.join("pass.memo");
    let primed = tmp.join("primed.memo");
    remove(&scratch)?;
    remove(&primed)?;
    let (matrix, parse) = clock.time(|| parse_matrix(&gen::campaign_spec(args.seed)));
    let matrix = matrix.map_err(|e| format!("generated campaign spec: {e}"))?;
    // Cold: the warm-up pass doubles as the reference. Warm: the priming
    // pass is the reference, so warm ≡ cold is checked cell by cell.
    let memo = if warm { &primed } else { &scratch };
    let (first, first_lap) = clock.time(|| pass(&matrix, memo, |_| false));
    let reference = first.digests.clone();
    check(&first, &reference, report);
    remove(&scratch)?;
    let mut secs = parse + first_lap;
    if warm {
        std::fs::copy(&primed, &scratch).map_err(|e| format!("copying the primed memo: {e}"))?;
        let (again, lap) = clock.time(|| pass(&matrix, &scratch, |_| false));
        remove(&scratch)?;
        check(&again, &reference, report);
        secs += lap;
    }
    let ready = Ready {
        matrix,
        reference,
        primed: warm.then_some(primed),
    };
    Ok((ready, secs))
}

/// Puts the pass memo in place: a pristine copy of the primed memo
/// (warm), or no file at all (cold).
fn prepare(ready: &Ready, scratch: &Path) -> Result<(), String> {
    match &ready.primed {
        Some(primed) => std::fs::copy(primed, scratch)
            .map(drop)
            .map_err(|e| format!("copying the primed memo: {e}")),
        None => remove(scratch),
    }
}

pub fn run(args: &Args, tmp: &Path, warm: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut e2e = EndToEnd::default();
    let mut clock = Clock::start();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut ready = None;
    for _ in 0..repeats {
        drop(ready.take()); // the previous repetition's state goes first
        let (state, secs) = set_up(args, tmp, warm, &mut clock, &mut report)?;
        e2e.setup_s.push(secs);
        ready = Some(state);
    }
    let ready = ready.expect("at least one set-up");
    let scratch = tmp.join("pass.memo");

    if args.trace {
        // One real pass keeps a seeded sample of cells for the replay.
        prepare(&ready, &scratch)?;
        let p = pass(&ready.matrix, &scratch, |i| trace::sampled(args.seed, i));
        remove(&scratch)?;
        check(&p, &ready.reference, &mut report);
        // A warm pass opens the primed memo; a cold one opens no file.
        let memo = ready.primed.as_deref();
        trace::campaign(args, &ready.matrix, &p, memo, tmp, &mut report)?;
        return Ok(report);
    }

    let (mut session, mut fresh) = (Vec::new(), Vec::new());
    let window = Instant::now();
    loop {
        prepare(&ready, &scratch)?;
        stats::reset_peak_rss();
        let (p, lap) = clock.time(|| pass(&ready.matrix, &scratch, |_| false));
        e2e.peak_rss_mb.push(stats::peak_rss_mb()?);
        remove(&scratch)?;
        check(&p, &ready.reference, &mut report);
        e2e.cells_per_s.push(p.run.unique as f64 / lap);
        e2e.requests += 1;
        e2e.timed_s += lap;
        session.push(Percentiles::of(&p.delivered_ms, 0.95));
        fresh.push(Percentiles::of(&p.delivered_ms, 0.99));
        // A pass that would run past the window is not started.
        if window.elapsed().as_secs_f64() + lap > args.seconds {
            break;
        }
    }
    // In-process campaigns have no connection: both latency families
    // report per-cell delivery latency from the pass start.
    e2e.session_ms = Percentiles::median_of(&session);
    e2e.fresh_ms = Percentiles::median_of(&fresh);
    e2e.correct(clock.speed());
    e2e.finish(&mut report)?;
    Ok(report)
}
