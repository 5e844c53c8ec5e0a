//! `validate-dense`: a seeded deck of 24-cell matrices with large
//! kernels, each run through the materialized `run_matrix` executor
//! with simulator validation, fresh state per matrix, on one thread.
//! The cycle-level replay does most of the work.
//!
//! One operation is one cell. A cell fails on a build error, a missing
//! validation, a soundness violation (observed time above the bound) or
//! a bound digest that differs from the set-up pass.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use wcet_bench::scenario::{parse_matrix, run_matrix, MatrixOptions, MatrixRun, ScenarioMatrix};
use wcet_core::MemoDomain;

use crate::campaign::cell_digest;
use crate::clock::Clock;
use crate::report::{EndToEnd, Percentiles, Report};
use crate::stats;
use crate::{gen, trace, Args, SETUP_REPEATS};

/// One validated matrix run with the memo domain it used.
pub struct Validated {
    pub run: MatrixRun,
    pub memo: Arc<MemoDomain>,
}

pub fn validate(matrix: &ScenarioMatrix) -> Validated {
    let memo = Arc::new(MemoDomain::new());
    let opts = MatrixOptions {
        validate: true,
        memo: Some(Arc::clone(&memo)),
        ..MatrixOptions::default()
    };
    let run = run_matrix(matrix, &opts);
    Validated { run, memo }
}

/// Checks every cell of a run; returns its digests.
fn check(run: &MatrixRun, reference: Option<&[u64]>, report: &mut Report) -> Vec<u64> {
    let digests: Vec<u64> = run.cells.iter().map(cell_digest).collect();
    for (i, cell) in run.cells.iter().enumerate() {
        report.attempted += 1;
        let name = &cell.scenario.name;
        if let Some(e) = cell.error.as_ref() {
            report.fail(format!("cell {name} did not build: {e}"));
        } else if let Some(f) = cell.failure.as_ref() {
            report.fail(format!("cell {name} failed: {}", f.message));
        } else if let Some(v) = cell.validation.as_ref() {
            if !v.all_sound && cell.scenario.mode.expected_sound(cell.scenario.tasks.len()) {
                report.fail(format!("cell {name}: observed time above the bound"));
            } else if reference.is_some_and(|r| r.get(i) != Some(&digests[i])) {
                report.fail(format!("cell {name}: bounds differ from the set-up pass"));
            }
        } else {
            let why = cell
                .validation_skipped
                .as_deref()
                .unwrap_or("no reason given");
            report.fail(format!("cell {name} was not validated: {why}"));
        }
    }
    if reference.is_some_and(|r| r.len() != digests.len()) {
        report.fail(format!(
            "{}: cell count differs from the set-up pass",
            run.matrix
        ));
    }
    digests
}

/// The parsed deck with each matrix's reference digests.
pub struct Ready {
    pub deck: Vec<(ScenarioMatrix, Vec<u64>)>,
}

/// Set-up: deck generation and parse, then the untimed warm-up pass
/// over the deck, which doubles as the reference. Returns the state
/// and the seconds it took.
fn set_up(args: &Args, clock: &mut Clock, report: &mut Report) -> Result<(Ready, f64), String> {
    let (deck, parse) = clock.time(|| {
        gen::dense_deck(args.seed)
            .iter()
            .map(|spec| parse_matrix(spec))
            .collect::<Result<Vec<_>, _>>()
    });
    let deck = deck.map_err(|e| format!("generated deck spec: {e}"))?;
    let mut secs = parse;
    let mut checked = Vec::with_capacity(deck.len());
    for matrix in deck {
        let (v, lap) = clock.time(|| validate(&matrix));
        secs += lap;
        let digests = check(&v.run, None, report);
        checked.push((matrix, digests));
    }
    Ok((Ready { deck: checked }, secs))
}

pub fn run(args: &Args, tmp: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut e2e = EndToEnd::default();
    let mut clock = Clock::start();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut ready = None;
    for _ in 0..repeats {
        drop(ready.take());
        let (state, secs) = set_up(args, &mut clock, &mut report)?;
        e2e.setup_s.push(secs);
        ready = Some(state);
    }
    let ready = ready.expect("at least one set-up");
    if args.trace {
        let runs: Vec<Validated> = ready.deck.iter().map(|(m, _)| validate(m)).collect();
        for (v, (_, reference)) in runs.iter().zip(&ready.deck) {
            check(&v.run, Some(reference), &mut report);
        }
        trace::dense(args, &ready, &runs, tmp, &mut report)?;
        return Ok(report);
    }

    // Whole passes over the deck, so every pass does the same work; a
    // pass that would run past the window is not started.
    let mut latencies = Vec::new();
    let window = Instant::now();
    loop {
        let pass_start = Instant::now();
        stats::reset_peak_rss();
        let (mut cells, mut secs) = (0usize, 0.0f64);
        for (matrix, reference) in &ready.deck {
            let (v, lap) = clock.time(|| validate(matrix));
            check(&v.run, Some(reference), &mut report);
            cells += v.run.cells.len();
            secs += lap;
            latencies.push(lap * 1e3);
        }
        e2e.cells_per_s.push(cells as f64 / secs);
        e2e.peak_rss_mb.push(stats::peak_rss_mb()?);
        e2e.requests += ready.deck.len() as u64;
        e2e.timed_s += secs;
        let pass_s = pass_start.elapsed().as_secs_f64();
        if window.elapsed().as_secs_f64() + pass_s > args.seconds {
            break;
        }
    }
    // In-process matrices have no connection: both latency families
    // report per-cell delivery latency, which for a materialized matrix
    // is the whole matrix's latency.
    e2e.session_ms = Percentiles::of(&latencies, 0.95);
    e2e.fresh_ms = Percentiles::of(&latencies, 0.99);
    e2e.correct(clock.speed());
    e2e.finish(&mut report)?;
    Ok(report)
}
