//! E10 (paper §5.3, Bourgade et al. \[2\]): the multi-bandwidth bus arbiter.
//! With heterogeneous memory demand, giving the memory-hungry core a
//! larger bandwidth share trades a small penalty on light tasks for a
//! large gain on the heavy one — where uniform round-robin must charge
//! everyone the same worst case.
//! Body in [`wcet_bench::experiments::exp10`] (shared with the in-process
//! `run_all` driver).

fn main() {
    let _ = wcet_bench::experiments::exp10();
}
