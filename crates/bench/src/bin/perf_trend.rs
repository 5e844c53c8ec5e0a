//! Report-only perf trend: a generic diff of two `BENCH_results.json`
//! documents (typically the checked-in baseline vs a fresh `run_all`).
//! Never fails the build — timing on shared CI runners is noisy, so the
//! numbers are printed for humans, not gated:
//!
//! ```sh
//! cargo run --release -p wcet-bench --bin perf_trend -- \
//!     baseline/BENCH_results.json BENCH_results.json
//! ```
//!
//! Both documents are flattened to their numeric leaves
//! ([`Json::numeric_leaves`]: experiments keyed by `id`, so a bound is
//! `experiments[exp04_bypass].rows[1].wcet`). Every leaf whose value
//! differs is printed with baseline, current and delta; leaves present
//! on one side only are listed as added or removed, so a schema bump
//! reads as a diff rather than breaking the comparison. Unchanged leaves
//! are counted in a note. No schema is special-cased.

use wcet_bench::json::Json;
use wcet_core::report::Table;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Integers render exactly, everything else to three decimals.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: perf_trend <baseline BENCH_results.json> <current BENCH_results.json>");
        return;
    };
    let (base, cur) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b.numeric_leaves(), c.numeric_leaves()),
        (b, c) => {
            // Report-only: a missing or unreadable document is a note,
            // not a failure.
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("perf_trend: {e}");
            }
            return;
        }
    };

    let mut t = Table::new(
        format!("Changed numeric leaves: {baseline_path} → {current_path}"),
        &["leaf", "baseline", "current", "delta", "trend"],
    );
    let mut unchanged = 0usize;
    for (path, &c) in &cur {
        match base.get(path) {
            Some(&b) if b == c => unchanged += 1,
            Some(&b) => {
                let trend = if b == 0.0 {
                    String::new()
                } else {
                    format!("{:+.0}%", (c - b) / b.abs() * 100.0)
                };
                let sign = if c > b { "+" } else { "" };
                t.row([
                    path.clone(),
                    num(b),
                    num(c),
                    format!("{sign}{}", num(c - b)),
                    trend,
                ]);
            }
            None => {}
        }
    }
    let added: Vec<_> = cur.iter().filter(|(k, _)| !base.contains_key(*k)).collect();
    let removed: Vec<_> = base.iter().filter(|(k, _)| !cur.contains_key(*k)).collect();
    t.note(format!(
        "{unchanged} leaves unchanged, {} added, {} removed (report-only)",
        added.len(),
        removed.len()
    ));
    println!("{t}");
    for (label, leaves) in [("added", added), ("removed", removed)] {
        if !leaves.is_empty() {
            println!("{label} leaves:");
            for (path, v) in leaves {
                println!("  {path} = {}", num(*v));
            }
        }
    }
}
