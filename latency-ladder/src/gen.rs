//! Seeded, program-blind load: every job stream, arrival schedule and
//! repeat choice is a pure function of `--seed`, so the same seed gives
//! the same inputs and the program only ever sees finished jobs.

use std::time::Duration;

use tcast::{
    AdversaryConfig, AdversaryModel, CaptureModel, ChannelSpec, CollisionModel, DefensePolicy,
    LossConfig, RetryPolicy,
};
use tcast_obs::TraceId;
use tcast_service::{AlgorithmSpec, QueryJob};

/// SplitMix64: one 64-bit draw per call, fully determined by the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// An independent draw stream for item `i` of stream `stream`.
fn rng_for(seed: u64, stream: u64, i: u64) -> Rng {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let base = r.next_u64();
    Rng::new(base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

const JOBS: u64 = 1;
const REPEATS: u64 = 2;
const ARRIVALS: u64 = 3;
const TRACES: u64 = 4;

/// Share of `cluster-open` jobs that repeat a recent job, in percent.
const REPEAT_PERCENT: u64 = 25;
/// How far back a repeat may reach.
const REPEAT_WINDOW: u64 = 64;

/// The three workloads the benchmark defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UnloadedWire,
    ClusterOpen,
    EngineBatch,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "unloaded-wire" => Some(Self::UnloadedWire),
            "cluster-open" => Some(Self::ClusterOpen),
            "engine-batch" => Some(Self::EngineBatch),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::UnloadedWire => "unloaded-wire",
            Self::ClusterOpen => "cluster-open",
            Self::EngineBatch => "engine-batch",
        }
    }

    /// Job `i` of this workload's stream under `seed`.
    pub fn job(self, seed: u64, i: u64) -> QueryJob {
        match self {
            Self::UnloadedWire => wire_job(seed, i),
            Self::ClusterOpen => cluster_job(seed, i),
            Self::EngineBatch => engine_job(seed, i % ENGINE_POOL),
        }
    }

    /// The index of the fresh job that job `i` repeats (`i` itself when
    /// it repeats none). Jobs with the same source produce the same
    /// report.
    pub fn source(self, seed: u64, i: u64) -> u64 {
        match self {
            Self::UnloadedWire => i,
            Self::ClusterOpen => cluster_source(seed, i),
            Self::EngineBatch => i % ENGINE_POOL,
        }
    }
}

/// The `BENCH_batch` job (2tBins, ideal 1+, N=96, x=12, t=8) with
/// fresh seeds per index.
fn wire_job(seed: u64, i: u64) -> QueryJob {
    let mut r = rng_for(seed, JOBS, i);
    QueryJob::new(
        AlgorithmSpec::TwoTBins,
        ChannelSpec::ideal(96, 12, CollisionModel::OnePlus).seeded(r.next_u64(), r.next_u64()),
        8,
        r.next_u64(),
    )
}

/// `engine-batch` cycles this many distinct heavy jobs. Its service has
/// no session cache, so every repeat executes in full, while the
/// correctness gate executes each distinct job only once.
const ENGINE_POOL: u64 = 32_768;

/// Heavy jobs: N=1024, t=32, x in [t/2, 2t], all algorithms, a lossy
/// channel with verified(2) retries and hardened defenses, and a 350‰
/// jammer on about a third of them.
fn engine_job(seed: u64, i: u64) -> QueryJob {
    const N: usize = 1024;
    const T: usize = 32;
    let mut r = rng_for(seed, JOBS, i);
    let algorithm = AlgorithmSpec::ALL[r.below(AlgorithmSpec::ALL.len() as u64) as usize];
    let x = T / 2 + r.below((2 * T - T / 2 + 1) as u64) as usize;
    let loss = LossConfig::default();
    let channel = if r.below(3) == 0 {
        let adversary = AdversaryConfig {
            model: AdversaryModel::Jammer { duty_mille: 350 },
            seed: r.next_u64(),
        };
        ChannelSpec::adversarial(N, x, CollisionModel::OnePlus, Some(loss), adversary)
    } else {
        ChannelSpec::lossy(N, x, CollisionModel::OnePlus, loss)
    };
    let channel = channel
        .seeded(r.next_u64(), r.next_u64())
        .with_retry(RetryPolicy::verified(2))
        .with_defense(DefensePolicy::hardened());
    QueryJob::new(algorithm, channel, T, r.next_u64())
}

/// The fresh job behind index `i` of the `cluster-open` stream: all
/// algorithms, N in {64,128,256}, 1+/2+, ideal or lossy+verified(2), x
/// around t, and a generous deadline.
fn cluster_fresh_job(seed: u64, i: u64) -> QueryJob {
    let mut r = rng_for(seed, JOBS, i);
    let algorithm = AlgorithmSpec::ALL[r.below(AlgorithmSpec::ALL.len() as u64) as usize];
    let n = [64usize, 128, 256][r.below(3) as usize];
    let t = n / 16;
    let x = t / 2 + r.below(t as u64 + 1) as usize;
    let model = if r.below(2) == 0 {
        CollisionModel::OnePlus
    } else {
        CollisionModel::TwoPlus(CaptureModel::Never)
    };
    let channel = if r.below(2) == 0 {
        ChannelSpec::ideal(n, x, model)
    } else {
        ChannelSpec::lossy(n, x, model, LossConfig::default()).with_retry(RetryPolicy::verified(2))
    };
    QueryJob::new(
        algorithm,
        channel.seeded(r.next_u64(), r.next_u64()),
        t,
        r.next_u64(),
    )
    .with_deadline(Duration::from_secs(2))
}

/// Whether job `i` of the `cluster-open` stream repeats a recent job,
/// and which: follows the repeat chain back to a fresh job that was
/// itself sent, so a repeat is a true resubmission.
fn cluster_source(seed: u64, i: u64) -> u64 {
    let mut k = i;
    loop {
        let mut r = rng_for(seed, REPEATS, k);
        if k == 0 || r.below(100) >= REPEAT_PERCENT {
            return k;
        }
        k -= 1 + r.below(REPEAT_WINDOW.min(k));
    }
}

fn cluster_job(seed: u64, i: u64) -> QueryJob {
    cluster_fresh_job(seed, cluster_source(seed, i))
        .with_trace(TraceId(rng_for(seed, TRACES, i).next_u64() | 1))
}

/// Poisson arrival offsets at `rate` jobs/s for the `cluster-open`
/// open loop.
pub struct Arrivals {
    rng: Rng,
    rate: f64,
    next_s: f64,
}

impl Arrivals {
    pub fn new(seed: u64, rate: f64) -> Self {
        Self {
            rng: rng_for(seed, ARRIVALS, u64::MAX),
            rate,
            next_s: 0.0,
        }
    }

    /// Seconds from the start of the phase at which the next job is due.
    pub fn next_due_s(&mut self) -> f64 {
        self.next_s += -self.rng.unit().ln() / self.rate;
        self.next_s
    }
}
