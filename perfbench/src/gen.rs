//! Seeded input generation. Every workload input is a function of the
//! `--seed` argument alone, and the program under test only ever sees
//! the generated spec text.
//!
//! The generators keep the *amount* of work fixed across seeds (same
//! axis shapes, same kernels, same pool structure) and let the seed move
//! what does not change the work: axis value order, timing parameters
//! and request order. That is what lets a ten-seed spread stay narrow
//! while every seed still feeds the program different inputs.

/// SplitMix64 counter generator. The benchmark owns its generator so
/// its inputs never change when the program's own load helpers do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// The items in a seeded order, rendered as a spec list.
    fn list(&mut self, items: &[&str]) -> String {
        let mut items = items.to_vec();
        self.shuffle(&mut items);
        format!("[{}]", items.join(", "))
    }
}

/// Values on the campaign's validation-budget axis.
pub const CAMPAIGN_CYCLE_LIMITS: usize = 5;

/// The campaign workload's spec: the checked-in `scenarios/campaign.scn`
/// (9 × 4 × 5 × 2 × 2 × 3 × 2 × 5 × 5 = 108 000 cells, 90 000 unique
/// after the `l2 = none` geometry duplicates collapse), with the seed
/// shifting every memory latency and validation budget. Axis order stays
/// as checked in: it fixes the runner's walk, and with it how much
/// neighbour reuse each pass gets and when each cell is delivered.
pub fn campaign_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mem_latency: Vec<String> = (0..5)
        .map(|i| (20 + 10 * i + rng.below(5)).to_string())
        .collect();
    let cycle_limit: Vec<String> = (1..=CAMPAIGN_CYCLE_LIMITS)
        .map(|i| (100_000 * i + rng.below(1000)).to_string())
        .collect();
    format!(
        "name        = campaign-{seed}\n\
         cores       = 2\n\
         arbiter     = [rr, tdma:32, tdma:40, tdma:48, tdma:64, mbba:2-1@32, fp:0, wheel:32, wheel:48]\n\
         transfer    = [4, 8, 16, 32]\n\
         mem_latency = [{}]\n\
         l1i         = [32x2x16@1, 64x2x16@1]\n\
         l2_geom     = [128x4x32@4, 256x8x32@4]\n\
         l2          = [shared, partitioned, none]\n\
         mode        = [isolated, joint]\n\
         tasks       = [fir:2x4, crc:16, \"fir:2x4 crc:16\", bsort:4, \"fir:2x4 bsort:4\"]\n\
         cycle_limit = [{}]\n",
        mem_latency.join(", "),
        cycle_limit.join(", ")
    )
}

/// Kernel pairs of the validate-dense deck: large kernels, so the
/// simulator replay dominates each matrix. An odd count puts the
/// latency median inside one matrix's samples rather than between two.
const DENSE_TASKS: [&str; 7] = [
    "matmul:16 bsort:24",
    "fir:8x96 crc:160",
    "bsort:32 matmul:12",
    "crc:192 fir:6x64",
    "matmul:14 crc:128",
    "bsort:28 fir:8x80",
    "spath:8x160 bsort:20",
];

/// The validate-dense deck: one 24-cell matrix per kernel pair, on the
/// axes of the checked-in `scenarios/example.scn` (2 machine sizes × 2
/// arbiters × 3 L2 layouts × 2 modes). Each pair keeps its own TDMA
/// slot and memory latency, because those set how many cycles the
/// simulator replays; the seed orders the deck and every axis within
/// it, and moves the validation budgets.
pub fn dense_deck(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0xde75_e000);
    let mut deck: Vec<String> = DENSE_TASKS
        .iter()
        .enumerate()
        .map(|(i, tasks)| {
            let cores = rng.list(&["2", "4"]);
            let slot = format!("tdma:{}", 10 + 2 * (i % 4));
            let arbiter = rng.list(&["rr", &slot]);
            let l2 = rng.list(&["shared", "partitioned", "none"]);
            let mode = rng.list(&["isolated", "joint"]);
            let latency = 28 + i;
            let limit = 4_000_000 + rng.below(1000);
            format!(
                "name        = dense-{seed}-{i}\n\
                 cores       = {cores}\n\
                 arbiter     = {arbiter}\n\
                 mem_latency = {latency}\n\
                 l2_geom     = 128x4x32@4\n\
                 l2          = {l2}\n\
                 mode        = {mode}\n\
                 cycle_limit = {limit}\n\
                 tasks       = \"{tasks}\"\n"
            )
        })
        .collect();
    rng.shuffle(&mut deck);
    deck
}

/// Pool ranks that hold a 24-cell matrix; every other rank is a
/// single-cell scenario. Under the Zipf(1.1) popularity below the
/// matrices draw about 12 % of the requests: the medians sit inside the
/// single-cell mode, while session p95 (top 5 %) and fresh p99 (top 1 %)
/// both land in the bulk of the matrix mode rather than on its edge or
/// in its collision tail, on every seed.
const POOL_MATRIX_RANKS: [usize; 3] = [3, 9, 13];
/// Pool size.
pub const POOL_SIZE: usize = 16;
/// Zipf popularity exponent over pool ranks.
const ZIPF_EXPONENT: f64 = 1.1;

const POOL_SINGLE_TASKS: [&str; 6] = [
    "fir:4x8",
    "crc:24",
    "\"fir:2x4 crc:16\"",
    "bsort:6",
    "matmul:4",
    "\"fir:2x4 bsort:4\"",
];
const POOL_MATRIX_TASKS: [&str; 3] = [
    "\"fir:4x8 crc:24\"",
    "\"bsort:6 fir:2x4\"",
    "\"crc:16 matmul:4\"",
];

/// One pool entry of the serve workload.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    pub spec: String,
    /// Whether it is submitted as a single-cell scenario (otherwise as
    /// a matrix).
    pub single: bool,
}

/// The serve workload's Zipf-popular pool: a fixed structure (which
/// ranks are matrices, which kernels each rank runs), with the seed
/// choosing arbiters, memory latencies and validation budgets.
pub fn serve_pool(seed: u64) -> Vec<PoolSpec> {
    let mut rng = Rng::new(seed ^ 0x5e77_e000);
    let (mut singles, mut matrices) = (0usize, 0usize);
    (0..POOL_SIZE)
        .map(|rank| {
            let latency = 24 + rng.below(17);
            let limit = 200_000 + rng.below(1000);
            if POOL_MATRIX_RANKS.contains(&rank) {
                let tasks = POOL_MATRIX_TASKS[matrices % POOL_MATRIX_TASKS.len()];
                matrices += 1;
                let slot = 10 + 2 * rng.below(4);
                PoolSpec {
                    spec: format!(
                        "name = pool-{seed}-{rank}\ncores = [2, 4]\narbiter = [rr, tdma:{slot}]\n\
                         mem_latency = {latency}\nl2_geom = 128x4x32@4\n\
                         l2 = [shared, partitioned, none]\nmode = [isolated, joint]\n\
                         cycle_limit = {limit}\ntasks = {tasks}\n"
                    ),
                    single: false,
                }
            } else {
                let tasks = POOL_SINGLE_TASKS[singles % POOL_SINGLE_TASKS.len()];
                singles += 1;
                let arbiter = ["rr", "tdma:8", "tdma:12"][rng.below(3)];
                let mode = if rank % 2 == 0 { "isolated" } else { "joint" };
                PoolSpec {
                    spec: format!(
                        "name = pool-{seed}-{rank}\ncores = 2\narbiter = {arbiter}\n\
                         mem_latency = {latency}\nmode = {mode}\ncycle_limit = {limit}\n\
                         tasks = {tasks}\n"
                    ),
                    single: true,
                }
            }
        })
        .collect()
}

/// The request sequence over the pool: rank `k` drawn with Zipf weight
/// `(k+1)^-s`. A golden-ratio sequence from a seeded start stands in
/// for independent draws, so every run sends each rank at its exact
/// expected share and the seed only decides the order.
pub fn zipf_sequence(seed: u64, count: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=POOL_SIZE)
        .map(|k| (k as f64).powf(-ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cum = Vec::with_capacity(POOL_SIZE);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cum.push(acc);
    }
    let golden = 0.618_033_988_749_894_9_f64;
    let mut u = Rng::new(seed ^ 0x21bf_0000).unit();
    (0..count)
        .map(|_| {
            u = (u + golden).fract();
            cum.partition_point(|&c| c < u).min(POOL_SIZE - 1)
        })
        .collect()
}

/// Open-loop Poisson arrival offsets (seconds) for `count` requests in
/// `[0, window)`: sorted uniform points, i.e. a Poisson process
/// conditioned on its count, so the offered rate is exact on every seed.
pub fn poisson_offsets(seed: u64, count: usize, window: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0x9015_5000);
    let mut offsets: Vec<f64> = (0..count).map(|_| rng.unit() * window).collect();
    offsets.sort_by(f64::total_cmp);
    offsets
}

/// Fixed-rate offsets for `count` requests at `rate` per second, with a
/// seeded phase inside the first gap.
pub fn fixed_offsets(seed: u64, count: usize, rate: f64) -> Vec<f64> {
    let phase = Rng::new(seed ^ 0xf1ed_0000).unit() / rate;
    (0..count).map(|i| phase + i as f64 / rate).collect()
}
