//! E07 (paper §5.1, Crowley & Baer \[7\]): the global yield-graph ILP works
//! — its bound dominates the simulated makespan — but its model size and
//! solve effort grow with thread count and yield sites, reproducing the
//! paper's scalability verdict ("such an approach is not scalable").
//! Body in [`wcet_bench::experiments::exp07`] (shared with the in-process
//! `run_all` driver).

fn main() {
    let _ = wcet_bench::experiments::exp07();
}
