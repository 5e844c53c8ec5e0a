//! The traced run: per-layer numbers, taken from outside the program.
//!
//! A traced run does the workload's set-up and one real run, then
//!
//! * reads the program's own public counters from that run (memo,
//!   solver, fixpoint, stream and server statistics), and
//! * replays a seeded sample of the run's cells through each layer's
//!   public functions — spec parse, expansion, build, fingerprints, cache
//!   fixpoint, block costs, IPET, simulator replay, disk memo, protocol
//!   and framing, connect — timing every call. Replayed bounds must equal
//!   the real run's, and replayed simulations must stay below them.
//!
//! The replay runs five times: an untimed warm-up whose output is
//! checked, then timers on, off, off, on; the difference in wall time
//! between the timed and untimed rounds is `trace.overhead_share`. `trace.share.*` weight each
//! layer's per-call time by how often the real run called it (memo
//! misses, solves, cells, requests), so they estimate where one
//! operation of the workload spends its time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wcet_bench::scenario::run::{build_scenario, BuiltScenario};
use wcet_bench::scenario::spec::AnalyzeSpec;
use wcet_bench::scenario::{
    parse_matrix, run_matrix, CachedRow, CellOutcome, DiskCache, MatrixOptions, ModeSpec,
    ScenarioMatrix,
};
use wcet_cache::{analyze_hierarchy, HierarchyConfig};
use wcet_core::engine::{MemoStats, SolverStats};
use wcet_core::validate::observe_all;
use wcet_core::{
    debug_fingerprint, program_fingerprint, wcet_ipet_ctx, AnalysisMode, Analyzer, Footprint,
    IpetOptions, Isolated, JointRefs, MemoDomain, Solo, SolveContext,
};
use wcet_ir::fixpoint::FixpointStats;
use wcet_pipeline::{block_costs, CostInput};
use wcet_serve::{
    read_frame, write_frame, BoundsResponse, CellBounds, Client, FrameError, Request,
    RequestLimits, RequestStats, Response,
};

use crate::campaign::Pass;
use crate::dense::{self, Validated};
use crate::gen::{self, Rng};
use crate::report::Report;
use crate::serve;
use crate::stats::{median, quantile};
use crate::Args;

/// One campaign cell in this many is replayed (about 200 of 90 000).
const CAMPAIGN_SAMPLE_ONE_IN: u64 = 450;
/// Matrices larger than this are expanded cell by cell at seeded
/// positions instead of materialized.
const EXPAND_LIMIT: usize = 4096;
const EXPAND_PROBES: usize = 512;
/// Entries per timed disk-memo append: the campaign runner's chunk.
const APPEND_CHUNK: usize = 64;
const CONNECTS: usize = 32;
/// Calls of the cheap per-spec and per-response layers (parse, encode,
/// decode, frame read) per replay, so their medians rest on enough
/// samples.
const CHEAP_REPEATS: usize = 8;

/// Whether delivery index `index` belongs to the replay sample.
pub fn sampled(seed: u64, index: usize) -> bool {
    let mut rng = Rng::new(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64().is_multiple_of(CAMPAIGN_SAMPLE_ONE_IN)
}

/// Per-layer timings: one `(seconds, units of work)` event per timed
/// call. With timers off every call still runs, untimed, so the two
/// modes do the same work.
struct Layers {
    timed: bool,
    events: BTreeMap<&'static str, Vec<(f64, u64)>>,
}

impl Layers {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_n(layer, 1, f)
    }

    /// Times one call that does `units` units of the layer's work.
    fn time_n<T>(&mut self, layer: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
        if !self.timed {
            return black_box(f());
        }
        let start = Instant::now();
        let out = black_box(f());
        let secs = start.elapsed().as_secs_f64();
        self.events.entry(layer).or_default().push((secs, units));
        out
    }

    fn total_s(&self, layer: &str) -> f64 {
        self.events
            .get(layer)
            .map_or(0.0, |e| e.iter().map(|x| x.0).sum())
    }

    fn units(&self, layer: &str) -> u64 {
        self.events
            .get(layer)
            .map_or(0, |e| e.iter().map(|x| x.1).sum())
    }

    /// Mean microseconds per unit: what the layer costs in total, for
    /// the time-share estimate (0 for a layer never called).
    fn mean_us(&self, layer: &str) -> f64 {
        match self.units(layer) {
            0 => 0.0,
            n => self.total_s(layer) * 1e6 / n as f64,
        }
    }

    /// Median microseconds per unit over the timed calls: the reported
    /// per-layer figure, which a descheduled call does not move.
    fn median_us(&self, layer: &str) -> f64 {
        match self.events.get(layer) {
            Some(e) if !e.is_empty() => {
                let per_unit: Vec<f64> =
                    e.iter().map(|&(s, n)| s * 1e6 / n.max(1) as f64).collect();
                median(&per_unit)
            }
            _ => 0.0,
        }
    }
}

/// What a replay works through.
struct Sample<'a> {
    specs: Vec<String>,
    matrices: Vec<&'a ScenarioMatrix>,
    /// Real outcomes: their scenarios are rebuilt and re-analysed, and
    /// their bounds are the reference.
    cells: Vec<CellOutcome>,
    /// Response bodies for the protocol and framing layers.
    responses: Vec<Vec<CellBounds>>,
    /// The disk memo the workload's passes open, when they open a full
    /// one; otherwise the replay opens the memo it appended.
    memo: Option<&'a Path>,
    seed: u64,
}

/// Effort a replay saw, beyond its timings.
#[derive(Debug, Default)]
struct Replayed {
    cells: u64,
    sim_cycles: u64,
    sim_skipped: u64,
    response_bytes: u64,
    responses: u64,
    frame_writes: u64,
    memo_bytes: u64,
    append_entries: u64,
}

/// A `Write` that counts the calls that reach it.
struct CountingWriter {
    buf: Vec<u8>,
    writes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A bare listener that accepts and drops connections, for timing
/// `Client::connect` without a server's admission path.
struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Listener {
    fn start() -> Result<Listener, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                drop(conn);
                if flag.load(Ordering::Acquire) {
                    break;
                }
            }
        });
        Ok(Listener {
            addr,
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = std::net::TcpStream::connect(self.addr); // wakes the accept
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Re-analyses one cell through the layer calls; returns each analysed
/// row's bound (or that it has none), in row order.
fn analyse(
    scn_mode: &ModeSpec,
    analyze: AnalyzeSpec,
    built: &BuiltScenario,
    ctx: &SolveContext,
    layers: &mut Layers,
) -> Option<Vec<Option<u64>>> {
    if !matches!(
        scn_mode,
        ModeSpec::Solo | ModeSpec::Isolated | ModeSpec::Joint
    ) {
        return None; // statically-controlled modes take another path
    }
    let machine = &built.machine;
    let analyzer = Analyzer::new(machine.clone());
    let footprints: Vec<Option<Footprint>> = if *scn_mode == ModeSpec::Joint {
        built
            .programs
            .iter()
            .zip(&built.placement)
            .map(|(p, &(core, _))| layers.time("fixpoint", || analyzer.l2_footprint(p, core).ok()))
            .collect()
    } else {
        Vec::new()
    };
    let analysed = match analyze {
        AnalyzeSpec::All => built.programs.len(),
        AnalyzeSpec::Victim => built.programs.len().min(1),
    };
    let rows = (0..analysed)
        .map(|i| {
            let program = &built.programs[i];
            let (core, thread) = built.placement[i];
            let refs: Vec<&Footprint> = footprints
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .filter_map(|(_, fp)| fp.as_ref())
                .collect();
            let joint = JointRefs(&refs);
            let mode: &dyn AnalysisMode = match scn_mode {
                ModeSpec::Solo => &Solo,
                ModeSpec::Isolated => &Isolated,
                _ => &joint,
            };
            let shift = mode.l2_shift(machine);
            let bus = mode.bus_bound(&analyzer, core, thread);
            let task = layers
                .time("ipet.context", || {
                    analyzer.task_context(core, thread, shift, bus)
                })
                .ok()?;
            let config = HierarchyConfig {
                l1i: task.l1i,
                l1d: task.l1d,
                l2: task.l2.clone(),
            };
            let hierarchy = layers.time("fixpoint", || analyze_hierarchy(program, &config));
            let input = CostInput {
                pipeline: machine.pipeline,
                timings: task.timings,
                bus_wait_bound: task.bus_wait_bound,
                mode: task.mode,
            };
            let costs = layers
                .time("cost", || block_costs(program, &hierarchy, &input))
                .ok()?;
            let options = IpetOptions::default();
            layers
                .time("ipet.solve", || {
                    wcet_ipet_ctx(program, &costs, &options, ctx)
                })
                .ok()
                .map(|b| b.wcet)
        })
        .collect();
    Some(rows)
}

/// The real run's bound per analysed row (`None` for a row without one).
fn real_bounds(cell: &CellOutcome) -> Vec<Option<u64>> {
    cell.rows
        .iter()
        .map(|r| r.outcome.as_ref().ok().map(|b| b.wcet))
        .collect()
}

fn replay(
    sample: &Sample<'_>,
    layers: &mut Layers,
    tmp: &Path,
    listener: &Listener,
    report: &mut Report,
) -> Result<Replayed, String> {
    let mut seen = Replayed::default();
    for spec in &sample.specs {
        for _ in 0..CHEAP_REPEATS {
            layers
                .time("parse", || parse_matrix(spec))
                .map_err(|e| format!("sample spec: {e}"))?;
        }
    }
    let mut rng = Rng::new(sample.seed ^ 0x7ace);
    for matrix in &sample.matrices {
        if matrix.num_cells() <= EXPAND_LIMIT {
            let cells = matrix.num_cells() as u64;
            layers.time_n("expand", cells, || matrix.expand());
        } else {
            let radices = matrix.radices();
            for _ in 0..EXPAND_PROBES {
                let digits = radices.map(|r| rng.below(r));
                layers.time("expand", || matrix.cell_at(&digits));
            }
        }
    }

    let ctx = SolveContext::new();
    for cell in &sample.cells {
        let scn = &cell.scenario;
        let Ok(built) = layers.time("build", || build_scenario(scn)) else {
            continue; // an unbuildable cell has nothing below the build
        };
        seen.cells += 1;
        for program in &built.programs {
            layers.time("fp.program", || program_fingerprint(program));
        }
        layers.time("fp.machine", || debug_fingerprint(&built.machine));
        let real = real_bounds(cell);
        if let Some(rows) = analyse(&scn.mode, scn.analyze, &built, &ctx, layers) {
            if rows != real {
                report.fail(format!(
                    "{}: replayed bounds {rows:?} differ from the run's {real:?}",
                    scn.name
                ));
            }
        }
        // Simulator replay of fully bounded cells, watching every row.
        let watched: Option<Vec<(usize, usize, u64)>> = cell
            .rows
            .iter()
            .map(|r| r.outcome.as_ref().ok().map(|b| (r.core, r.thread, b.wcet)))
            .collect();
        if let (Some(watched), false) = (watched, scn.mode.is_lock_mode()) {
            let loads = built
                .placement
                .iter()
                .zip(&built.programs)
                .map(|(&(core, thread), p)| (core, thread, p.clone()))
                .collect();
            let run = layers
                .time("sim", || {
                    observe_all(&built.machine, loads, &watched, scn.cycle_limit)
                })
                .map_err(|e| format!("{}: simulation failed: {e}", scn.name))?;
            seen.sim_cycles += run
                .observations
                .iter()
                .map(|o| o.observed)
                .max()
                .unwrap_or(0);
            seen.sim_skipped += run.skip.skipped_cycles;
            if !run.observations.iter().all(|o| o.sound())
                && scn.mode.expected_sound(scn.tasks.len())
            {
                report.fail(format!("{}: replayed run exceeds its bound", scn.name));
            }
        }
    }

    // Disk memo: append the sample's bounded cells in runner-sized
    // chunks to a fresh file, then open a full memo and look every
    // sampled cell up.
    let path = tmp.join("trace.memo");
    let _ = std::fs::remove_file(&path);
    let fresh: Vec<((u64, u64), Vec<CachedRow>)> = sample
        .cells
        .iter()
        .filter(|c| c.all_bounded())
        .map(|c| {
            let rows = c
                .rows
                .iter()
                .filter_map(|r| {
                    r.outcome.as_ref().ok().map(|b| CachedRow {
                        task: r.task.clone(),
                        core: r.core,
                        thread: r.thread,
                        mode: r.mode.clone(),
                        wcet: b.wcet,
                    })
                })
                .collect();
            (c.fingerprint, rows)
        })
        .collect();
    {
        let cache = DiskCache::open(&path);
        for chunk in fresh.chunks(APPEND_CHUNK) {
            layers
                .time("disk.append", || cache.append(chunk))
                .map_err(|e| format!("appending to the trace memo: {e}"))?;
            seen.append_entries += chunk.len() as u64;
        }
    }
    let memo_path = sample.memo.unwrap_or(&path);
    let cache = layers.time("disk.open", || DiskCache::open(memo_path));
    seen.memo_bytes = std::fs::metadata(memo_path).map_or(0, |m| m.len());
    for cell in &sample.cells {
        layers.time("disk.lookup", || {
            cache.lookup(cell.fingerprint).map(<[_]>::len)
        });
    }
    drop(cache);
    let _ = std::fs::remove_file(&path);

    // Protocol and framing.
    for spec in &sample.specs {
        let request = Request::SubmitMatrix {
            spec: spec.clone(),
            limits: RequestLimits::default(),
        };
        for _ in 0..CHEAP_REPEATS {
            layers.time("encode", || request.encode());
        }
    }
    for cells in &sample.responses {
        let response = Response::Bounds(BoundsResponse {
            matrix: "trace".to_string(),
            cells: cells.clone(),
            duplicates: 0,
            disk_hits: 0,
            stats: RequestStats::default(),
        });
        let payload = response.encode();
        seen.response_bytes += payload.len() as u64;
        seen.responses += 1;
        let mut decoded = Err(String::new());
        for _ in 0..CHEAP_REPEATS {
            decoded = layers.time("decode", || Response::decode(&payload));
        }
        let decoded = decoded.map_err(|e| format!("decoding a response: {e}"))?;
        if decoded != response {
            report.fail("a response does not survive encode and decode");
        }
        let mut out = CountingWriter {
            buf: Vec::new(),
            writes: 0,
        };
        layers
            .time("frame.write", || write_frame(&mut out, &payload))
            .map_err(|e| format!("framing: {e}"))?;
        seen.frame_writes += out.writes;
        let mut read = Err(FrameError::Empty);
        for _ in 0..CHEAP_REPEATS {
            read = layers.time("frame.read", || read_frame(&mut out.buf.as_slice()));
        }
        let read = read.map_err(|e| format!("reading a frame: {e}"))?;
        if read != payload {
            report.fail("a frame does not read back as written");
        }
    }
    for _ in 0..CONNECTS {
        let client = layers
            .time("connect", || Client::connect(listener.addr))
            .map_err(|e| format!("connecting: {e}"))?;
        drop(client);
    }
    Ok(seen)
}

/// Runs the replay five times: an untimed warm-up whose output is
/// checked, then timers on, off, off, on, so drift cancels out of the
/// overhead estimate.
fn replay_all(
    sample: &Sample<'_>,
    tmp: &Path,
    report: &mut Report,
) -> Result<(Layers, Replayed, f64), String> {
    let listener = Listener::start()?;
    let mut layers = Layers {
        timed: false,
        events: BTreeMap::new(),
    };
    let seen = replay(sample, &mut layers, tmp, &listener, report)?;
    report.attempted += seen.cells;
    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    for timed in [true, false, false, true] {
        layers.timed = timed;
        let start = Instant::now();
        replay(sample, &mut layers, tmp, &listener, &mut Report::default())?;
        let secs = start.elapsed().as_secs_f64();
        if timed {
            traced_s += secs;
        } else {
            plain_s += secs;
        }
    }
    Ok((layers, seen, traced_s / plain_s - 1.0))
}

/// How often one operation of the workload calls each layer, from the
/// real run's counters and the runner's structure.
#[derive(Debug, Default)]
struct Weights {
    parses: f64,
    expands: f64,
    builds: f64,
    program_fps: f64,
    machine_fps: f64,
    disk_opens: f64,
    disk_lookups: f64,
    /// Entries appended.
    disk_appends: f64,
    fixpoints: f64,
    costs: f64,
    solves: f64,
    simulations: f64,
    /// Client latency not spent in the in-process service, per request
    /// (serve only), microseconds.
    transport_us: f64,
}

impl Weights {
    /// The materialized runner (`run_matrix`) over `cells` cells of
    /// `tasks` tasks each: every cell is built and fingerprinted
    /// (programs and machine for the cell key, again for the engine).
    fn materialized(cells: f64, tasks: f64) -> Weights {
        Weights {
            parses: 1.0,
            expands: cells,
            builds: cells,
            program_fps: 2.0 * tasks * cells,
            machine_fps: 2.0 * cells,
            ..Weights::default()
        }
    }
}

/// Mean tasks per sampled cell.
fn tasks_per_cell(cells: &[CellOutcome]) -> f64 {
    cells.iter().map(|c| c.scenario.tasks.len()).sum::<usize>() as f64 / cells.len().max(1) as f64
}

/// The program's own counters from the real run.
#[derive(Debug, Default)]
struct Counters {
    memo: MemoStats,
    solver: SolverStats,
    fixpoint: FixpointStats,
    unique: u64,
    produced: u64,
    rows_reused: u64,
    disk_hits: u64,
    duplicates: u64,
}

/// Serve-only derived figures.
#[derive(Debug, Default)]
struct ServeFigures {
    wait_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn emit(
    layers: &Layers,
    seen: &Replayed,
    overhead: f64,
    counters: &Counters,
    weights: &Weights,
    serve: &ServeFigures,
    report: &mut Report,
) {
    let us = |l: &str| layers.median_us(l);
    let mean = |l: &str| layers.mean_us(l);
    let solves = layers.units("ipet.solve").max(1) as f64;
    let ipet_mean = (layers.total_s("ipet.context") + layers.total_s("ipet.solve")) * 1e6 / solves;
    let ipet_median = us("ipet.context") + us("ipet.solve");
    let append_us_per_entry =
        layers.total_s("disk.append") * 1e6 / seen.append_entries.max(1) as f64;
    let sim_s = layers.total_s("sim");

    report.push("scenario.spec.parse_us", us("parse"), "us");
    report.push("scenario.spec.expand_us_per_cell", us("expand"), "us");
    report.push("scenario.run.build_us_per_cell", us("build"), "us");
    report.push("core.fingerprint.program_us", us("fp.program"), "us");
    report.push("core.fingerprint.machine_us", us("fp.machine"), "us");
    report.push(
        "core.engine.memo_lookups",
        counters.memo.lookups() as f64,
        "count",
    );
    report.push(
        "core.engine.memo_hit_share",
        share(counters.memo.hits(), counters.memo.lookups()),
        "share",
    );
    report.push(
        "core.engine.neighbor_hits",
        counters.memo.neighbor_hits as f64,
        "count",
    );
    report.push("cache.analysis.fixpoint_us_per_task", us("fixpoint"), "us");
    report.push(
        "cache.analysis.fixpoint_evaluated",
        counters.fixpoint.evaluated as f64,
        "count",
    );
    report.push(
        "cache.analysis.kernel_words",
        counters.fixpoint.kernel_words as f64,
        "count",
    );
    report.push("pipeline.cost.us_per_task", us("cost"), "us");
    report.push("core.ipet.solve_us", ipet_median, "us");
    let totals = &counters.solver.totals;
    report.push("ilp.pivots", totals.pivots as f64, "count");
    report.push(
        "ilp.warm_share",
        share(
            counters.solver.warm_hits,
            counters.solver.warm_hits + counters.solver.cold_solves,
        ),
        "share",
    );
    report.push("ilp.f64_solves", totals.f64_solves as f64, "count");
    report.push("ilp.certified", totals.certified as f64, "count");
    report.push("ilp.fallbacks", totals.fallbacks as f64, "count");
    report.push("sim.replay_us_per_cell", us("sim"), "us");
    report.push(
        "sim.cycles_per_host_s",
        if sim_s > 0.0 {
            seen.sim_cycles as f64 / sim_s
        } else {
            0.0
        },
        "1/s",
    );
    report.push(
        "sim.skipped_cycle_share",
        share(seen.sim_skipped, seen.sim_cycles),
        "share",
    );
    report.push("scenario.cache.open_ms", us("disk.open") / 1e3, "ms");
    report.push("scenario.cache.lookup_us", us("disk.lookup"), "us");
    report.push("scenario.cache.append_ms", us("disk.append") / 1e3, "ms");
    report.push("scenario.cache.bytes", seen.memo_bytes as f64, "bytes");
    report.push(
        "scenario.stream.rows_reused_share",
        share(counters.rows_reused, counters.unique),
        "share",
    );
    report.push(
        "scenario.stream.disk_hit_share",
        share(counters.disk_hits, counters.unique),
        "share",
    );
    report.push(
        "scenario.stream.duplicate_share",
        share(counters.duplicates, counters.produced),
        "share",
    );
    report.push("serve.proto.request_encode_us", us("encode"), "us");
    report.push("serve.proto.response_decode_us", us("decode"), "us");
    report.push(
        "serve.proto.response_bytes",
        share(seen.response_bytes, seen.responses),
        "bytes",
    );
    report.push(
        "serve.frame.writes_per_frame",
        share(seen.frame_writes, seen.responses),
        "count",
    );
    report.push("serve.frame.read_us", us("frame.read"), "us");
    report.push("serve.client.connect_us", us("connect"), "us");
    let pct = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { quantile(v, q) };
    report.push("serve.server.wait_ms_p50", pct(&serve.wait_ms, 0.5), "ms");
    report.push("serve.server.wait_ms_p99", pct(&serve.wait_ms, 0.99), "ms");
    report.push("load.late_ms_p99", pct(&serve.late_ms, 0.99), "ms");
    report.push("trace.overhead_share", overhead, "share");

    // Estimated time per operation in each layer group: mean cost per
    // call times calls per operation.
    let w = weights;
    let groups: [(&'static str, f64); 9] = [
        (
            "trace.share.spec",
            mean("parse") * w.parses + mean("expand") * w.expands,
        ),
        ("trace.share.build", mean("build") * w.builds),
        (
            "trace.share.fingerprint",
            mean("fp.program") * w.program_fps + mean("fp.machine") * w.machine_fps,
        ),
        (
            "trace.share.disk",
            mean("disk.open") * w.disk_opens
                + mean("disk.lookup") * w.disk_lookups
                + append_us_per_entry * w.disk_appends,
        ),
        ("trace.share.fixpoint", mean("fixpoint") * w.fixpoints),
        ("trace.share.cost", mean("cost") * w.costs),
        ("trace.share.ipet", ipet_mean * w.solves),
        ("trace.share.sim", mean("sim") * w.simulations),
        ("trace.share.transport", w.transport_us),
    ];
    let total: f64 = groups.iter().map(|g| g.1).sum();
    for (name, us_per_op) in groups {
        report.push(
            name,
            if total > 0.0 { us_per_op / total } else { 0.0 },
            "share",
        );
    }
}

/// `campaign-cold` / `campaign-warm`.
pub fn campaign(
    args: &Args,
    matrix: &ScenarioMatrix,
    pass: &Pass,
    memo: Option<&Path>,
    tmp: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let run = &pass.run;
    let sample = Sample {
        specs: vec![gen::campaign_spec(args.seed)],
        matrices: vec![matrix],
        cells: pass.kept.clone(),
        responses: pass
            .kept
            .chunks(24)
            .map(|c| c.iter().map(CellBounds::of).collect())
            .collect(),
        memo,
        seed: args.seed,
    };
    let (layers, seen, overhead) = replay_all(&sample, tmp, report)?;
    let counters = Counters {
        memo: run.memo,
        solver: run.solver,
        fixpoint: run.fixpoint,
        unique: run.unique as u64,
        produced: run.produced as u64,
        rows_reused: run.rows_reused as u64,
        disk_hits: run.disk_hits as u64,
        duplicates: run.duplicates as u64,
    };
    // The producer expands and fingerprints every position, and reuses
    // parsed programs and their fingerprints throughout. It rebuilds the
    // machine (and fingerprints it once more) only when an axis other
    // than the mode or the validation budget moved — the budget being
    // the innermost axis of its walk. Those machine-only rebuilds cannot
    // be timed apart from program parsing through public calls and are
    // left out of the build share.
    let produced = run.produced as f64;
    let rebuilds = produced / gen::CAMPAIGN_CYCLE_LIMITS as f64;
    let weights = Weights {
        parses: 1.0,
        expands: produced,
        machine_fps: produced + rebuilds,
        disk_opens: 1.0,
        disk_lookups: run.unique as f64,
        disk_appends: run.disk_appended as f64,
        fixpoints: run.memo.hierarchy_misses as f64,
        costs: run.memo.cost_misses as f64,
        solves: (run.solver.warm_hits + run.solver.cold_solves) as f64,
        simulations: run.validated as f64,
        ..Weights::default()
    };
    emit(
        &layers,
        &seen,
        overhead,
        &counters,
        &weights,
        &ServeFigures::default(),
        report,
    );
    Ok(())
}

/// `validate-dense`.
pub fn dense(
    args: &Args,
    ready: &dense::Ready,
    runs: &[Validated],
    tmp: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let sample = Sample {
        specs: gen::dense_deck(args.seed),
        matrices: ready.deck.iter().map(|(m, _)| m).collect(),
        cells: runs.iter().flat_map(|v| v.run.cells.clone()).collect(),
        responses: runs
            .iter()
            .map(|v| v.run.cells.iter().map(CellBounds::of).collect())
            .collect(),
        memo: None,
        seed: args.seed,
    };
    let (layers, seen, overhead) = replay_all(&sample, tmp, report)?;
    let mut counters = Counters::default();
    for v in runs {
        counters.memo = add_memo(&counters.memo, &v.memo.stats());
        counters.solver.absorb(&v.run.solver);
        counters.fixpoint.absorb(&v.run.fixpoint);
        counters.unique += v.run.cells.len() as u64;
        counters.duplicates += v.run.duplicates as u64;
        counters.produced += (v.run.cells.len() + v.run.duplicates) as u64;
    }
    let n = runs.len().max(1) as f64;
    let validated: usize = runs.iter().map(|v| v.run.validation_counts().0).sum();
    let weights = Weights {
        fixpoints: counters.memo.hierarchy_misses as f64 / n,
        costs: counters.memo.cost_misses as f64 / n,
        solves: (counters.solver.warm_hits + counters.solver.cold_solves) as f64 / n,
        simulations: validated as f64 / n,
        ..Weights::materialized(counters.produced as f64 / n, tasks_per_cell(&sample.cells))
    };
    emit(
        &layers,
        &seen,
        overhead,
        &counters,
        &weights,
        &ServeFigures::default(),
        report,
    );
    Ok(())
}

fn add_memo(a: &MemoStats, b: &MemoStats) -> MemoStats {
    let mut sum = *a;
    sum.hierarchy_hits += b.hierarchy_hits;
    sum.hierarchy_misses += b.hierarchy_misses;
    sum.l1_hits += b.l1_hits;
    sum.l1_misses += b.l1_misses;
    sum.cost_hits += b.cost_hits;
    sum.cost_misses += b.cost_misses;
    sum.bound_hits += b.bound_hits;
    sum.bound_misses += b.bound_misses;
    sum.neighbor_hits += b.neighbor_hits;
    sum
}

/// `serve-mixed`.
pub fn serve(
    args: &Args,
    ready: &serve::Ready,
    window: &serve::Window,
    tmp: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let pool = &ready.pool;
    let matrices: Vec<ScenarioMatrix> = pool
        .specs
        .iter()
        .map(|p| parse_matrix(&p.spec).map_err(|e| format!("pool spec: {e}")))
        .collect::<Result<_, _>>()?;
    // The pool's cold in-process runs: the replay's cells and the
    // solver effort.
    let mut cells = Vec::new();
    let mut solver = SolverStats::default();
    for m in &matrices {
        let run = run_matrix(m, &MatrixOptions::default());
        solver.absorb(&run.solver);
        cells.extend(run.cells);
    }
    // In-process service time of every pool spec on hot state.
    let memo = Arc::new(MemoDomain::new());
    let ctx = Arc::new(SolveContext::new());
    let hot = MatrixOptions {
        memo: Some(Arc::clone(&memo)),
        ctx: Some(Arc::clone(&ctx)),
        ..MatrixOptions::default()
    };
    for m in &matrices {
        let _ = run_matrix(m, &hot);
    }
    let service_ms: Vec<f64> = matrices
        .iter()
        .map(|m| {
            let samples: Vec<f64> = (0..5)
                .map(|_| {
                    let start = Instant::now();
                    black_box(run_matrix(m, &hot));
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&samples)
        })
        .collect();

    let sample = Sample {
        specs: pool.specs.iter().map(|p| p.spec.clone()).collect(),
        matrices: matrices.iter().collect(),
        cells,
        responses: pool.reference.clone(),
        memo: None,
        seed: args.seed,
    };
    let (layers, seen, overhead) = replay_all(&sample, tmp, report)?;

    let all: Vec<&serve::Sample> = window.session.iter().chain(&window.fresh).collect();
    let figures = ServeFigures {
        wait_ms: all
            .iter()
            .map(|s| s.latency_ms - service_ms[s.rank])
            .collect(),
        late_ms: all.iter().map(|s| s.late_ms).collect(),
    };
    let requests = all.len().max(1) as f64;
    let cells_served = all.iter().filter_map(|s| s.cells).sum::<usize>() as u64;
    let before = &window.stats_before;
    let after = &window.stats_after;
    let memo_delta = after.memo.since(&before.memo);
    let counters = Counters {
        memo: memo_delta,
        // The hot window solves nothing; the solver effort is what the
        // pool's cold runs cost, which priming paid.
        solver,
        fixpoint: FixpointStats::default(),
        unique: cells_served,
        produced: cells_served,
        rows_reused: 0,
        disk_hits: after.disk_hits - before.disk_hits,
        duplicates: 0,
    };
    let window_solves = (after.solver_warm_hits + after.solver_cold_solves)
        - (before.solver_warm_hits + before.solver_cold_solves);
    let weights = Weights {
        fixpoints: memo_delta.hierarchy_misses as f64 / requests,
        costs: memo_delta.cost_misses as f64 / requests,
        solves: window_solves as f64 / requests,
        transport_us: figures.wait_ms.iter().sum::<f64>() * 1e3 / requests,
        ..Weights::materialized(
            cells_served as f64 / requests,
            tasks_per_cell(&sample.cells),
        )
    };
    emit(
        &layers, &seen, overhead, &counters, &weights, &figures, report,
    );
    Ok(())
}
