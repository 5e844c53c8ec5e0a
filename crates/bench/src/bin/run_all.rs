//! Runs the full experiment suite (the `EXPERIMENTS.md` regeneration
//! driver): `cargo run -p wcet-bench --bin run_all --release`.
//!
//! Every experiment runs in-process (its WCET rows and effort counters
//! land in `BENCH_results.json`); no process is spawned. The driver also
//! measures batch-vs-sequential analysis wall-clock on a multi-task set,
//! the solver's warm-start savings, the example scenario matrix and the
//! streaming campaign, so the perf trajectory of the engine is recorded
//! on every run. Served-request latency is measured by `perfbench`'s
//! serve-mixed workload, not here.

use std::time::Instant;

use wcet_bench::experiments::{ExperimentRun, IN_PROCESS};
use wcet_bench::json::Json;
use wcet_bench::scenario::{
    campaign_json, matrix_json, parse_matrix, run_campaign_with, run_matrix, CampaignOptions,
    CampaignRun, MatrixOptions,
};
use wcet_bench::{comparison_workload, l2_bound_machine, l2_bound_victim, machine};
use wcet_bench::{fixpoint_json, skip_json, solver_json};
use wcet_core::analyzer::Analyzer;
use wcet_core::engine::AnalysisEngine;
use wcet_core::mode::{Footprint, Isolated, JointRefs};
use wcet_ir::fixpoint::FixpointStats;
use wcet_ir::synth::{matmul, Placement};
use wcet_ir::Program;
use wcet_sched::{Task, TaskSet};

fn rows_json(run: &ExperimentRun) -> Json {
    Json::Arr(
        run.rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("scenario", Json::str(&r.scenario)),
                    ("task", Json::str(&r.task)),
                    ("mode", Json::str(&r.mode)),
                    ("wcet", Json::from(r.wcet)),
                ])
            })
            .collect(),
    )
}

/// Re-runs the E02a k-sweep twice — cold per solve (sequential
/// `Analyzer`, no context) and warm (engine `SolveContext`) — and
/// records both pivot bills. The WCETs must match exactly; the warm
/// pivot count is what the warm-start layers save on every sweep.
fn solver_warm_vs_cold() -> Json {
    let n = 6;
    let m = l2_bound_machine(n);
    let engine = AnalysisEngine::new(m.clone());
    let cold = Analyzer::new(m);
    let victim = l2_bound_victim(0);
    let fps: Vec<Footprint> = (1..n as u32)
        .map(|i| {
            engine
                .l2_footprint(&matmul(16, Placement::slot(i)), i as usize)
                .expect("analyses")
        })
        .collect();

    let mut cold_pivots = 0u64;
    let mut identical = true;
    for k in 0..=fps.len() {
        let refs: Vec<&Footprint> = fps[..k].iter().collect();
        let warm_rep = engine
            .analyze(&victim, 0, 0, &JointRefs(&refs))
            .expect("analyses");
        let cold_rep = cold.wcet_joint(&victim, 0, 0, &refs).expect("analyses");
        identical &= warm_rep == cold_rep;
        cold_pivots += cold_rep.ipet.solver.pivots;
    }
    assert!(identical, "warm-started sweep diverged from cold solves");
    let warm = engine.solver_stats();
    println!(
        "solver warm-vs-cold (E02a k-sweep, {} points): cold {cold_pivots} pivots, \
         warm {} pivots ({} warm hits, {} phase-1 pivots left), WCETs identical",
        fps.len() + 1,
        warm.totals.pivots,
        warm.warm_hits,
        warm.totals.phase1_pivots,
    );
    Json::obj([
        ("sweep_points", Json::from(fps.len() + 1)),
        ("cold_pivots", Json::from(cold_pivots)),
        ("warm_pivots", Json::from(warm.totals.pivots)),
        ("identical_wcets", Json::from(identical)),
        ("warm", solver_json(&warm)),
    ])
}

/// The checked-in example matrix (compiled in, so `run_all` works from
/// any working directory), analysed *and* simulator-validated: scenario
/// soundness is re-checked on every suite run.
fn scenario_sweep() -> Json {
    let matrix =
        parse_matrix(include_str!("../../../../scenarios/example.scn")).expect("example parses");
    let start = Instant::now();
    let run = run_matrix(
        &matrix,
        &MatrixOptions {
            validate: true,
            ..MatrixOptions::default()
        },
    );
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let (validated, sound) = run.validation_counts();
    println!(
        "scenario sweep `{}`: {} cells ({} duplicates removed), {sound}/{validated} \
         validated cells sound, {:.1} ms",
        run.matrix,
        run.cells.len(),
        run.duplicates,
        wall_ms,
    );
    assert!(
        run.soundness_violations().is_empty(),
        "example matrix produced unsound cells"
    );
    let mut doc = match matrix_json(&run) {
        Json::Obj(map) => map,
        _ => unreachable!("matrix_json returns an object"),
    };
    doc.insert("wall_ms".into(), Json::from(wall_ms));
    Json::Obj(doc)
}

/// The checked-in 108 000-cell streaming campaign (compiled in, like the
/// example matrix), run twice: cold — measuring lazy expansion, dedup,
/// work stealing and neighbour-incremental reuse — then disk-warm
/// against the memo the cold run persisted, which must serve every
/// bounded cell without re-analysis and reproduce every bound exactly.
/// A third, deliberately interrupted pass (limited, with its memo tail
/// torn off) is then resumed and checked against an uninterrupted
/// reference — the kill-9 recovery guarantee, measured end to end.
fn campaign_sweep() -> Json {
    let matrix =
        parse_matrix(include_str!("../../../../scenarios/campaign.scn")).expect("campaign parses");
    let memo_path = std::env::temp_dir().join(format!(
        "wcet-run-all-campaign-memo-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&memo_path);

    // Compact per-cell signature: every (task, core.thread, mode, bound
    // or error) row, keyed by cell fingerprint. Cheap enough to keep for
    // 10⁵ cells, strong enough to catch any cold/warm divergence.
    type Signatures = std::collections::BTreeMap<(u64, u64), Vec<(String, String)>>;
    fn signature(cell: &wcet_bench::scenario::CellOutcome) -> Vec<(String, String)> {
        cell.rows
            .iter()
            .map(|r| {
                let outcome = match &r.outcome {
                    Ok(b) => b.wcet.to_string(),
                    Err(e) => format!("error: {e}"),
                };
                (
                    format!("{}@{}.{}/{}", r.task, r.core, r.thread, r.mode),
                    outcome,
                )
            })
            .collect()
    }
    let pass = |label: &str, opts: CampaignOptions| -> (CampaignRun, Signatures) {
        let mut sigs = Signatures::new();
        let run = run_campaign_with(&matrix, &opts, |cell| {
            sigs.insert(cell.fingerprint, signature(cell));
        });
        println!(
            "campaign `{}` ({label}): {} unique of {} cells ({} duplicates), \
             {} bounded, {} row reuses, {} neighbour fixpoint hits, {} disk hits, \
             {}/{} sampled cells sound, {:.2}s ({:.0} cells/s)",
            run.matrix,
            run.unique,
            run.produced,
            run.duplicates,
            run.bounded,
            run.rows_reused,
            run.memo.neighbor_hits,
            run.disk_hits,
            run.sound,
            run.validated,
            run.wall.as_secs_f64(),
            run.cells_per_sec(),
        );
        assert!(
            run.violations.is_empty(),
            "campaign produced unsound cells: {:?}",
            run.violations
        );
        assert!(run.cache_error.is_none(), "memo write-back failed");
        assert_eq!(run.failures, 0, "no cell may fail under supervision");
        (run, sigs)
    };
    let with_memo = |memo: &std::path::Path| CampaignOptions {
        sample_one_in: 500,
        cache: Some(memo.to_path_buf()),
        ..CampaignOptions::default()
    };
    let (cold, cold_sigs) = pass("cold", with_memo(&memo_path));
    let (warm, warm_sigs) = pass("disk-warm", with_memo(&memo_path));
    let _ = std::fs::remove_file(&memo_path);
    assert_eq!(
        cold_sigs, warm_sigs,
        "disk-warm campaign diverged from the cold run"
    );
    assert!(
        warm.disk_hits >= cold.bounded,
        "warm run must serve every bounded cell from the memo \
         ({} hits for {} bounded cells)",
        warm.disk_hits,
        cold.bounded,
    );

    // Schema 7: the faulted + resumed pass. A third run over a fresh
    // memo is killed by `--limit`, its final append torn off (the bytes
    // a real `kill -9` would lose mid-write), then resumed past the last
    // trusted checkpoint; interrupted ∪ resumed must reproduce an
    // uninterrupted reference run cell-for-cell.
    const INTERRUPT_AT: usize = 2048;
    const RESUME_TO: usize = 4096;
    let resume_memo = std::env::temp_dir().join(format!(
        "wcet-run-all-campaign-resume-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&resume_memo);
    let (interrupted, interrupted_sigs) = pass(
        "interrupted",
        CampaignOptions {
            limit: Some(INTERRUPT_AT),
            ..with_memo(&resume_memo)
        },
    );
    let memo_bytes = std::fs::read(&resume_memo).expect("interrupted pass persisted a memo");
    std::fs::write(
        &resume_memo,
        &memo_bytes[..memo_bytes.len().saturating_sub(7)],
    )
    .expect("tears the memo tail");
    let (resumed, resumed_sigs) = pass(
        "resumed",
        CampaignOptions {
            limit: Some(RESUME_TO),
            resume: true,
            ..with_memo(&resume_memo)
        },
    );
    let (reference, reference_sigs) = pass(
        "reference",
        CampaignOptions {
            limit: Some(RESUME_TO),
            sample_one_in: 500,
            ..CampaignOptions::default()
        },
    );
    let _ = std::fs::remove_file(&resume_memo);
    assert!(
        resumed.resumed > 0,
        "resume must fast-forward past the last trusted checkpoint"
    );
    assert!(
        resumed.disk_skipped >= 1,
        "the torn line must be counted as skipped, not fatal"
    );
    let mut union_sigs = interrupted_sigs;
    union_sigs.extend(resumed_sigs);
    assert_eq!(
        union_sigs, reference_sigs,
        "interrupted+resumed campaign diverged from the uninterrupted run"
    );

    #[allow(clippy::cast_precision_loss)] // report-only rates
    let rate = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    Json::obj([
        ("cold", campaign_json(&cold)),
        ("warm", campaign_json(&warm)),
        (
            "resume",
            Json::obj([
                ("interrupted", campaign_json(&interrupted)),
                ("resumed", campaign_json(&resumed)),
                ("reference", campaign_json(&reference)),
                ("identical_bounds", Json::from(true)),
            ]),
        ),
        (
            "dedup_rate",
            Json::from(rate(cold.duplicates, cold.produced)),
        ),
        (
            "row_reuse_rate",
            Json::from(rate(cold.rows_reused, cold.unique)),
        ),
        (
            "neighbor_hit_rate",
            Json::from(rate(
                usize::try_from(cold.memo.neighbor_hits).unwrap_or(usize::MAX),
                cold.unique,
            )),
        ),
        (
            "disk_hit_rate",
            Json::from(rate(warm.disk_hits, warm.unique)),
        ),
        ("identical_bounds", Json::from(true)),
    ])
}

/// Times batch engine analysis of the workload against the same tasks
/// through sequential `Analyzer` calls, checking result equivalence.
fn batch_vs_sequential() -> Json {
    let m = machine(4);
    let workload = comparison_workload();

    let sequential = Analyzer::new(m.clone());
    let seq_start = Instant::now();
    let seq_reports: Vec<_> = workload
        .iter()
        .map(|(core, prog)| sequential.wcet_isolated(prog, *core, 0).expect("analyses"))
        .collect();
    let seq_ms = seq_start.elapsed().as_secs_f64() * 1e3;

    let set = TaskSet::new(
        workload
            .iter()
            .enumerate()
            .map(|(i, (core, prog))| Task {
                name: prog.name().to_string(),
                core: *core,
                priority: i as u32,
                release: 0,
                predecessors: Vec::new(),
            })
            .collect(),
    )
    .expect("valid task set");
    let programs: Vec<Program> = workload.iter().map(|(_, prog)| prog.clone()).collect();

    let engine = AnalysisEngine::new(m);
    let batch_start = Instant::now();
    let batch_reports = engine.analyze_task_set(&set, &programs, &Isolated);
    let batch_ms = batch_start.elapsed().as_secs_f64() * 1e3;

    let identical = seq_reports.len() == batch_reports.len()
        && seq_reports
            .iter()
            .zip(&batch_reports)
            .all(|(seq, batch)| batch.as_ref().map(|b| b == seq).unwrap_or(false));
    assert!(
        identical,
        "engine batch must reproduce sequential results exactly"
    );

    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // With a single worker the two paths run the same sequential code;
    // the ratio is pure timer noise, so no speedup is claimed (null).
    let speedup = (workers > 1).then(|| seq_ms / batch_ms.max(1e-9));
    match speedup {
        Some(s) => {
            println!(
                "batch-vs-sequential: {} tasks, {workers} workers: sequential {seq_ms:.1} ms, \
                 batch {batch_ms:.1} ms ({s:.2}× speedup), results identical",
                programs.len()
            );
            if s <= 1.0 {
                eprintln!("warning: batch analysis not faster than sequential on this host");
            }
        }
        None => println!(
            "batch-vs-sequential: {} tasks, 1 worker: sequential {seq_ms:.1} ms, \
             batch {batch_ms:.1} ms (no parallelism available — speedup not claimed), \
             results identical",
            programs.len()
        ),
    }

    Json::obj([
        ("tasks", Json::from(programs.len())),
        ("workers", Json::from(workers)),
        ("sequential_ms", Json::from(seq_ms)),
        ("batch_ms", Json::from(batch_ms)),
        ("speedup", speedup.map_or(Json::Null, Json::from)),
        ("identical_results", Json::from(identical)),
        ("solver", solver_json(&engine.solver_stats())),
        ("fixpoint", fixpoint_json(&engine.fixpoint_stats())),
    ])
}

/// One `experiments[]` entry: the experiment run under a panic boundary
/// (a panicking experiment is recorded as failed and the rest of the
/// suite, and the JSON summary, still runs), timed end to end.
fn experiment_entry(id: &str, runner: fn() -> ExperimentRun) -> (bool, Json) {
    let start = Instant::now();
    let run = std::panic::catch_unwind(runner);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let Ok(run) = run else {
        eprintln!("{id} failed (panicked)");
        return (
            false,
            Json::obj([
                ("id", Json::str(id)),
                ("ok", Json::from(false)),
                ("wall_ms", Json::from(wall_ms)),
                ("rows", Json::Arr(Vec::new())),
            ]),
        );
    };
    // Schema 5 acceptance: wherever the worklist ran, it must beat the
    // naive-sweep bill. A regression fails this experiment (like a panic
    // would), not the whole suite.
    let ok = run.fixpoint.evaluated == 0 || run.fixpoint.evaluated < run.fixpoint.sweep_evals;
    if !ok {
        eprintln!("{id}: worklist did not beat the sweep: {:?}", run.fixpoint);
    }
    // An experiment that ran no cache analysis reports `fixpoint: null`.
    let fixpoint = if run.fixpoint == FixpointStats::default() {
        Json::Null
    } else {
        fixpoint_json(&run.fixpoint)
    };
    (
        ok,
        Json::obj([
            ("id", Json::str(id)),
            ("title", Json::str(run.title)),
            ("ok", Json::from(ok)),
            ("wall_ms", Json::from(wall_ms)),
            ("rows", rows_json(&run)),
            ("solver", solver_json(&run.solver)),
            ("fixpoint", fixpoint),
            ("sim_skip", skip_json(&run.sim_skip)),
        ]),
    )
}

fn main() {
    let suite_start = Instant::now();
    let mut failed = Vec::new();
    let mut experiment_json = Vec::new();
    for &(id, runner) in IN_PROCESS {
        println!("===== {id} =====");
        let (ok, entry) = experiment_entry(id, runner);
        if !ok {
            failed.push(id);
        }
        experiment_json.push(entry);
    }

    println!("===== engine benchmark =====");
    let comparison = batch_vs_sequential();
    println!("===== solver warm-vs-cold =====");
    let warm_cold = solver_warm_vs_cold();
    println!("===== scenario sweep =====");
    let scenarios = scenario_sweep();
    println!("===== streaming campaign =====");
    let campaign = campaign_sweep();

    let doc = Json::obj([
        // Schema 11: every experiment runs in-process (no `driver`
        // member, rows on all entries); the `serve` and `load` blocks
        // are gone — served latency is perfbench's serve-mixed workload.
        ("schema", Json::from(11_u64)),
        ("suite", Json::str("wcet-bench run_all")),
        (
            "total_ms",
            Json::from(suite_start.elapsed().as_secs_f64() * 1e3),
        ),
        ("experiments", Json::Arr(experiment_json)),
        ("batch_vs_sequential", comparison),
        ("solver_warm_vs_cold", warm_cold),
        ("scenarios", scenarios),
        ("campaign", campaign),
    ]);
    let out = "BENCH_results.json";
    match std::fs::write(out, format!("{doc}\n")) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            failed.push("BENCH_results.json");
        }
    }

    if failed.is_empty() {
        println!("all {} experiments completed", IN_PROCESS.len());
    } else {
        eprintln!("failed experiments: {failed:?}");
        std::process::exit(1);
    }
}
