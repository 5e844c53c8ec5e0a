//! Host-speed correction.
//!
//! On a shared host the same CPU-bound work can take 30 % longer in one
//! minute than in the next, which would swamp any change to the program.
//! A run therefore times a fixed calibration kernel — the benchmark's own
//! code, identical on every commit — between its timed intervals, and
//! scales its CPU-bound times by how much slower or faster than nominal
//! the kernel ran over the whole run. A corrected time reads as the time
//! the work would have taken on the host at its nominal speed, so two
//! runs of the same commit agree even when the host's speed does not.
//! One estimate per run, from many calibrations, keeps the kernel's own
//! millisecond-scale jitter out of the corrected times.
//!
//! Only CPU work is corrected. Kept-alive socket latencies wait on
//! kernel timers that do not scale with host speed and are reported as
//! measured.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use crate::gen::Rng;

/// What the calibration kernel takes on the reference host (a 2-vCPU
/// x86-64 VM at 2.1 GHz), in milliseconds.
const NOMINAL_MS: f64 = 1.0;
/// Kernel runs per calibration; the median is taken.
const RUNS: usize = 3;
/// Entries of the pointer-chase table: 4 MiB, beyond a core's private
/// caches, so a neighbour contending for the shared cache or memory
/// bandwidth slows the kernel as it slows the workloads.
const CHASE_ENTRIES: usize = 1 << 20;
const CHASE_STEPS: usize = 4096;

/// One random cycle through every entry (Sattolo's shuffle), built once.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut order: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut rng = Rng::new(0xca11_b4a7e);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i));
        }
        let mut next = vec![0u32; CHASE_ENTRIES];
        for i in 0..CHASE_ENTRIES {
            next[order[i] as usize] = order[(i + 1) % CHASE_ENTRIES];
        }
        next
    })
}

/// A fixed mix of dependent integer arithmetic, branches, an
/// L2-resident sort and a dependent walk through memory.
fn kernel(table: &[u32]) {
    let mut v: Vec<u64> = (0..8192u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    for round in 0..4u64 {
        for i in 1..v.len() {
            v[i] = v[i].wrapping_add(v[i - 1] ^ round).rotate_left(7);
        }
        v.sort_unstable();
    }
    black_box(&v);
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = table[at as usize];
    }
    black_box(at);
}

/// Milliseconds the kernel takes right now: one kernel per core at
/// once, since the campaign workers occupy every core and a neighbour
/// may slow one core and not another; the mean over cores, median of a
/// few runs.
fn calibrate() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let table = chase_table();
    let mut runs = [0.0f64; RUNS];
    for r in &mut runs {
        let per_core: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cores)
                .map(|_| {
                    scope.spawn(|| {
                        let start = Instant::now();
                        kernel(table);
                        start.elapsed().as_secs_f64() * 1e3
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration kernel panicked"))
                .collect()
        });
        *r = per_core.iter().sum::<f64>() / per_core.len() as f64;
    }
    runs.sort_by(f64::total_cmp);
    runs[RUNS / 2]
}

/// Times intervals and calibrates after each one; calibrations are not
/// part of any interval.
pub struct Clock {
    calibrations: Vec<f64>,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            calibrations: vec![calibrate()],
        }
    }

    /// Runs `f` and returns its result with the seconds it took.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.calibrations.push(calibrate());
        (out, secs)
    }

    /// The host's speed over the run relative to nominal: multiply a
    /// measured time by it to get the nominal-speed time.
    pub fn speed(&self) -> f64 {
        NOMINAL_MS / crate::stats::median(&self.calibrations)
    }
}
