//! `serve-mixed`: an in-process analysis server under two open-loop
//! clients submitting from a Zipf-popular pool that set-up made hot.
//!
//! * the session client holds one kept-alive connection and sends on a
//!   fixed schedule;
//! * the fresh client opens a new connection per request on a Poisson
//!   schedule (with the client's seeded retry on `Overloaded`).
//!
//! Both loops are open: a request's latency runs from its *due* time,
//! so a stall that delays later requests is charged to them, and a
//! faster server does not attract more load. Percentiles come from the
//! raw samples. One operation is one request; it fails on an error
//! response, a transport error, a shed that outlasted its retries, or
//! bounds that differ from an in-process `run_matrix` with fresh state.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use wcet_bench::scenario::{parse_matrix, run_matrix, MatrixOptions};
use wcet_serve::{
    request_with_retry, CellBounds, Client, Request, RequestLimits, Response, Retry, ServerConfig,
    ServerHandle, StatsResponse,
};

use crate::clock::Clock;
use crate::gen::{self, PoolSpec, POOL_SIZE};
use crate::report::{EndToEnd, Percentiles, Report};
use crate::stats::{self, quantile};
use crate::{trace, Args, SETUP_REPEATS};

/// Offered rate of the kept-alive session, requests per second. Below
/// the inverse of the kept-alive stall (about 45 ms at this rate), so
/// the session never backlogs; at 10/s and above the stall doubles and
/// the session runs near saturation.
pub const SESSION_RATE: f64 = 8.0;
/// Offered rate of the fresh-connection client, requests per second.
pub const FRESH_RATE: f64 = 40.0;

/// The pool with its in-process reference bounds.
pub struct Pool {
    pub specs: Vec<PoolSpec>,
    pub reference: Vec<Vec<CellBounds>>,
}

impl Pool {
    pub fn request(&self, rank: usize) -> Request {
        let spec = self.specs[rank].spec.clone();
        let limits = RequestLimits::default();
        if self.specs[rank].single {
            Request::SubmitScenario { spec, limits }
        } else {
            Request::SubmitMatrix { spec, limits }
        }
    }
}

/// The oracle: every pool spec through `run_matrix` with fresh state.
fn reference_pool(seed: u64) -> Result<Pool, String> {
    let specs = gen::serve_pool(seed);
    let reference = specs
        .iter()
        .map(|p| {
            let matrix = parse_matrix(&p.spec).map_err(|e| format!("generated pool spec: {e}"))?;
            let run = run_matrix(&matrix, &MatrixOptions::default());
            Ok(run.cells.iter().map(CellBounds::of).collect())
        })
        .collect::<Result<_, String>>()?;
    Ok(Pool { specs, reference })
}

/// Checks one response; returns the number of cells it carried when it
/// is correct.
pub fn check(
    pool: &Pool,
    rank: usize,
    outcome: Result<Response, String>,
    report: &mut Report,
) -> Option<usize> {
    report.attempted += 1;
    match outcome {
        Ok(Response::Bounds(b)) if b.cells == pool.reference[rank] => Some(b.cells.len()),
        Ok(Response::Bounds(_)) => {
            report.fail(format!(
                "pool rank {rank}: served bounds differ from run_matrix"
            ));
            None
        }
        Ok(other) => {
            report.fail(format!("pool rank {rank}: unexpected response {other:?}"));
            None
        }
        Err(e) => {
            report.fail(format!("pool rank {rank}: {e}"));
            None
        }
    }
}

fn fresh_request(addr: SocketAddr, request: &Request, seed: u64) -> Result<Response, String> {
    let policy = Retry {
        seed,
        ..Retry::default()
    };
    request_with_retry(addr, request, &policy)
        .map(|(response, _)| response)
        .map_err(|e| e.to_string())
}

/// A started server with a hot pool.
pub struct Ready {
    pub pool: Pool,
    pub server: ServerHandle,
}

/// Set-up: the pool and its in-process references, then a server made
/// hot by submitting every pool spec once (priming) and once more (the
/// untimed warm-up pass), each on a fresh connection. Returns the state
/// and the seconds it took.
fn set_up(args: &Args, clock: &mut Clock, report: &mut Report) -> Result<(Ready, f64), String> {
    let (pool, references) = clock.time(|| reference_pool(args.seed));
    let pool = pool?;
    let (server, serving) = clock.time(|| {
        let server = wcet_serve::start(&ServerConfig::default())
            .map_err(|e| format!("starting the server: {e}"))?;
        for pass in 0..2u64 {
            for rank in 0..pool.specs.len() {
                let seed = pass * POOL_SIZE as u64 + rank as u64;
                let outcome = fresh_request(server.addr(), &pool.request(rank), seed);
                check(&pool, rank, outcome, report);
            }
        }
        Ok::<_, String>(server)
    });
    let ready = Ready {
        pool,
        server: server?,
    };
    Ok((ready, references + serving))
}

/// One timed request as the load generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub rank: usize,
    /// Due time to response, milliseconds.
    pub latency_ms: f64,
    /// How late the generator sent, beyond any wait for the previous
    /// response on its own loop, milliseconds.
    pub late_ms: f64,
    pub cells: Option<usize>,
    /// Completion, seconds after the window opened.
    pub done_s: f64,
}

/// One open loop: sends `ranks[i]` at `offsets[i]` seconds after
/// `epoch`, through `send`.
fn open_loop(
    epoch: Instant,
    offsets: &[f64],
    ranks: &[usize],
    pool: &Pool,
    mut send: impl FnMut(usize, &Request) -> Result<Response, String>,
) -> (Vec<Sample>, Report) {
    let mut report = Report::default();
    let mut samples = Vec::with_capacity(offsets.len());
    let mut prev_done = 0.0f64;
    for (i, (&due, &rank)) in offsets.iter().zip(ranks).enumerate() {
        let request = pool.request(rank);
        let now = epoch.elapsed().as_secs_f64();
        if due > now {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        let sent = epoch.elapsed().as_secs_f64();
        let outcome = send(i, &request);
        let done = epoch.elapsed().as_secs_f64();
        let cells = check(pool, rank, outcome, &mut report);
        samples.push(Sample {
            rank,
            latency_ms: (done - due) * 1e3,
            late_ms: (sent - due.max(prev_done)).max(0.0) * 1e3,
            cells,
            done_s: done,
        });
        prev_done = done;
    }
    (samples, report)
}

/// The timed window: both loops for `seconds`.
pub struct Window {
    pub session: Vec<Sample>,
    pub fresh: Vec<Sample>,
    /// Server statistics around the window.
    pub stats_before: StatsResponse,
    pub stats_after: StatsResponse,
}

pub fn window(args: &Args, ready: &Ready, report: &mut Report) -> Result<Window, String> {
    let addr = ready.server.addr();
    let pool = &ready.pool;
    let n_session = (SESSION_RATE * args.seconds).round().max(1.0) as usize;
    let n_fresh = (FRESH_RATE * args.seconds).round().max(1.0) as usize;
    let session_offsets = gen::fixed_offsets(args.seed, n_session, SESSION_RATE);
    let fresh_offsets = gen::poisson_offsets(args.seed, n_fresh, args.seconds);
    let session_ranks = gen::zipf_sequence(args.seed, n_session);
    let fresh_ranks = gen::zipf_sequence(args.seed ^ 0xf4e5, n_fresh);
    let stats_before = server_stats(addr)?;
    let mut session = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let epoch = Instant::now();
    let ((s_samples, s_report), (f_samples, f_report)) = std::thread::scope(|scope| {
        let fresh = scope.spawn(|| {
            open_loop(epoch, &fresh_offsets, &fresh_ranks, pool, |i, request| {
                fresh_request(addr, request, args.seed ^ i as u64)
            })
        });
        let kept = open_loop(
            epoch,
            &session_offsets,
            &session_ranks,
            pool,
            |_, request| session.request(request).map_err(|e| e.to_string()),
        );
        (
            kept,
            fresh.join().expect("fresh-connection client panicked"),
        )
    });
    for part in [s_report, f_report] {
        report.attempted += part.attempted;
        report.failed += part.failed;
        report.failures.extend(part.failures);
    }
    drop(session);
    Ok(Window {
        session: s_samples,
        fresh: f_samples,
        stats_before,
        stats_after: server_stats(addr)?,
    })
}

pub fn run(args: &Args, tmp: &std::path::Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut e2e = EndToEnd::default();
    let mut clock = Clock::start();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut ready: Option<Ready> = None;
    for _ in 0..repeats {
        if let Some(previous) = ready.take() {
            previous.server.stop();
        }
        let (state, secs) = set_up(args, &mut clock, &mut report)?;
        e2e.setup_s.push(secs);
        ready = Some(state);
    }
    let ready = ready.expect("at least one set-up");
    stats::reset_peak_rss();
    let (window, _) = clock.time(|| window(args, &ready, &mut report));
    let window = window?;
    e2e.peak_rss_mb.push(stats::peak_rss_mb()?);
    if args.trace {
        let result = trace::serve(args, &ready, &window, tmp, &mut report);
        ready.server.stop();
        return result.map(|()| report);
    }
    ready.server.stop();

    let all = window.session.iter().chain(&window.fresh);
    let late: Vec<f64> = all.clone().map(|s| s.late_ms).collect();
    let late_p99 = quantile(&late, 0.99);
    if late_p99 > 5.0 {
        eprintln!("perfbench: serve-mixed: load generator ran late (p99 {late_p99:.3} ms)");
    }
    e2e.timed_s = all.clone().map(|s| s.done_s).fold(0.0, f64::max);
    let cells: usize = all.clone().filter_map(|s| s.cells).sum();
    e2e.requests = all.clone().filter(|s| s.cells.is_some()).count() as u64;
    e2e.cells_per_s.push(cells as f64 / e2e.timed_s);
    let ms = |samples: &[Sample]| samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>();
    // Set-up is CPU work, corrected to nominal host speed. Socket
    // latencies are mostly kernel timer and thread wake-up waits, which
    // do not track the calibration kernel, and the open loops fix the
    // rates: those are reported as measured.
    let speed = clock.speed();
    for s in &mut e2e.setup_s {
        *s *= speed;
    }
    e2e.session_ms = Percentiles::of(&ms(&window.session), 0.95);
    e2e.fresh_ms = Percentiles::of(&ms(&window.fresh), 0.99);
    e2e.finish(&mut report)?;
    Ok(report)
}

/// Cumulative server statistics, read over a fresh connection.
fn server_stats(addr: SocketAddr) -> Result<StatsResponse, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    match client.stats() {
        Ok(Response::Stats(stats)) => Ok(stats),
        Ok(other) => Err(format!("stats request answered with {other:?}")),
        Err(e) => Err(format!("stats request: {e}")),
    }
}
