//! E13 (paper §6, Schranzhofer et al. \[36\]): resource access models. The
//! survey's conclusion recommends software that touches shared resources
//! only in dedicated phases; batching requests amortises slot waits under
//! TDMA, and the advantage *grows* with slot length — exactly where the
//! unstructured (general) model's offset-blind bound degrades (E08).
//! Body in [`wcet_bench::experiments::exp13`] (shared with the in-process
//! `run_all` driver).

fn main() {
    let _ = wcet_bench::experiments::exp13();
}
