//! Cross-commit golden pin: reports and wire bytes against committed
//! constants.
//!
//! The bit-identity suites (`batch_identity`, `batch_parity`, loopback
//! parity) compare two execution paths *of the same build*. A change that
//! moves both paths at once — a merged round body, a rewritten encoder —
//! passes them while changing every result. This suite instead compares
//! against values recorded from an earlier build:
//!
//! * a seeded grid of every [`AlgorithmSpec`] on four channel flavours
//!   (ideal 1⁺, ideal 2⁺ with capture, lossy with `verified(2)`, a 350‰
//!   jammer against `hardened()` defenses), run through
//!   [`QueryJob::execute`], folded into one fingerprint per algorithm and
//!   flavour;
//! * [`drive`] over [`ChannelMut::paired`] with three bin policies on four
//!   channel flavours, one fingerprint each;
//! * the exact bytes of one `Submit` frame (trace id, high priority, span
//!   context) and one `JobOk` frame.
//!
//! Each fingerprint folds the `fingerprint64` of every report's wire
//! encoding, in grid order. A mismatch prints the full recomputed table
//! so an intended change can be reviewed value by value.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::codec::{fingerprint64, WireEncode};
use tcast::{
    drive, population, random_positive_set, AdversaryConfig, AdversaryModel, ChannelMut,
    ChannelSpec, CollisionModel, DefensePolicy, ExecutionProfile, IdealChannel, LossConfig,
    LossyChannel, QueryReport, RetryPolicy, RoundStats, Session,
};
use tcast_net::Frame;
use tcast_service::{AlgorithmSpec, QueryJob};

/// `(n, x, t)` points of the grid: below, at and above the threshold,
/// plus populations smaller than `2t` bins would cover.
const CASES: [(usize, usize, usize); 7] = [
    (64, 0, 8),
    (64, 7, 8),
    (64, 8, 8),
    (64, 24, 8),
    (96, 12, 8),
    (128, 3, 4),
    (128, 40, 16),
];

/// Seeds per grid point.
const SEEDS: u64 = 4;

/// Job-grid channel flavours, in column order of [`JOB_PINS`].
const JOB_FLAVOURS: [&str; 4] = [
    "ideal-1+",
    "ideal-2+",
    "lossy-verified2",
    "jammer350-hardened",
];

/// Paired-drive channel flavours, in column order of [`PAIRED_PINS`].
const PAIRED_FLAVOURS: [&str; 4] = [
    "ideal-1+",
    "ideal-2+",
    "lossy-verified2",
    "ideal-1+-hardened",
];

/// Paired-drive bin policies, in row order of [`PAIRED_PINS`].
const POLICIES: [&str; 3] = ["2t", "t+1", "adaptive"];

/// One fingerprint per `AlgorithmSpec::ALL` row and job flavour column.
const JOB_PINS: [[u64; 4]; 8] = [
    [
        0xb77d7363e5b2b730,
        0xdfa2d7d6e7a24ed8,
        0x0088f5787edabbff,
        0x47f7d60d79dc23fd,
    ],
    [
        0x4255480f28e02a6a,
        0xdb92fd8856e263c3,
        0xe158aefe19c8f2c8,
        0x204efbd9080804c6,
    ],
    [
        0x1b68ab219d85bf9a,
        0x8b2397fe3af896d8,
        0x08aceea55960710b,
        0x59132037949fbe0f,
    ],
    [
        0x601c10d1838af4cc,
        0x95eaca42094350fa,
        0xfcf87a69b7678b37,
        0xb663a72729f7339d,
    ],
    [
        0x05f74343618f9089,
        0x051f324d9ab80efe,
        0x3431624ba07f8407,
        0xb9d3f8382f34db81,
    ],
    [
        0x1ec3123534531650,
        0xf7c808c19165c06c,
        0x56aaca8b41d92b62,
        0x9fd74eda6f358aef,
    ],
    [
        0xfae53db148fba5c9,
        0x433cca2ed9eb88dc,
        0xa408087e2a1ac067,
        0xfb1e462e80984a71,
    ],
    [
        0xeb7d69090431d861,
        0x5ee5e113547fe3e5,
        0x5acb073395c3e028,
        0xe376969502b68264,
    ],
];

/// One fingerprint per policy row and paired flavour column.
const PAIRED_PINS: [[u64; 4]; 3] = [
    [
        0xf416381ffc1cf887,
        0x50bd1bde8e2c309c,
        0xbd2b60c87b2f565b,
        0x8727404240b4f285,
    ],
    [
        0xf676d13b6bca5660,
        0x978a77c85ba5e2af,
        0xeb31ef36d6d86b9b,
        0xe2fc8552b04f2695,
    ],
    [
        0x23b7702d4e1beb8e,
        0x047cb2a9246e1fb4,
        0xb456db09aa32878c,
        0x3e02dd3c43d74512,
    ],
];

/// Wire bytes of the pinned `Submit` frame, as lowercase hex.
const SUBMIT_HEX: &str = "5443515703042a00000000000000760000000560000000000000000c000000000000000001b81e85eb51b89e3f000000000000000003000000000000000400000000000000020000000000000000000000000000080000000000000063000000000000000180b2e60e00000000010c00000000000000efcdab8967452301000df0feca00000000014ebd5da1";

/// Wire bytes of the pinned `JobOk` frame, as lowercase hex.
const JOB_OK_HEX: &str = "5443515704042a0000000000000071000000011a00000000000000010000000c000000000000000000000000000000000000000000000000000000000000000100000011000000000000000e000000000000000600000000000000220000000000000000000000000000000c0000000000000000000000000000003e000000000000001a8c65e5";

/// The frame encoders under pin.
fn submit_bytes(frame: &Frame) -> Vec<u8> {
    frame.to_bytes()
}

fn job_ok_bytes(request_id: u64, report: &QueryReport) -> Vec<u8> {
    let mut out = Vec::new();
    Frame::encode_job_ok_into(&mut out, request_id, report);
    out
}

fn fold(acc: u64, report: &QueryReport) -> u64 {
    let mut bytes = acc.to_le_bytes().to_vec();
    bytes.extend_from_slice(&fingerprint64(&report.to_wire()).to_le_bytes());
    fingerprint64(&bytes)
}

fn job_spec(flavour: usize, n: usize, x: usize, seed: u64) -> ChannelSpec {
    let spec = match flavour {
        0 => ChannelSpec::ideal(n, x, CollisionModel::OnePlus),
        1 => ChannelSpec::ideal(n, x, CollisionModel::two_plus_default()),
        2 => ChannelSpec::lossy(n, x, CollisionModel::OnePlus, LossConfig::default())
            .with_retry(RetryPolicy::verified(2)),
        _ => ChannelSpec::adversarial(
            n,
            x,
            CollisionModel::OnePlus,
            None,
            AdversaryConfig {
                model: AdversaryModel::Jammer { duty_mille: 350 },
                seed: seed ^ 0x5A,
            },
        )
        .with_defense(DefensePolicy::hardened()),
    };
    spec.seeded(seed, seed.wrapping_mul(31) + 7)
}

fn job_table() -> [[u64; 4]; 8] {
    let mut table = [[0u64; 4]; 8];
    for (row, alg) in AlgorithmSpec::ALL.into_iter().enumerate() {
        for (col, cell) in table[row].iter_mut().enumerate() {
            let mut acc = 0u64;
            for (i, &(n, x, t)) in CASES.iter().enumerate() {
                for seed in 0..SEEDS {
                    let spec = job_spec(col, n, x, seed + 10 * i as u64);
                    let report = QueryJob::new(alg, spec, t, seed + 1000).execute();
                    report.assert_consistent();
                    acc = fold(acc, &report);
                }
            }
            *cell = acc;
        }
    }
    table
}

/// Bin policies for the paired grid. Every policy asks for more than `t`
/// bins, so a round can always collect `t` pieces of evidence.
fn policy_bins(policy: usize, session: &Session, last: Option<&RoundStats>) -> usize {
    let t = session.threshold();
    match policy {
        0 => 2 * t,
        1 => t + 1,
        _ => last.map_or(t + 1, |s| t + 1 + s.queried_bins - s.silent_bins),
    }
}

fn paired_report(
    flavour: usize,
    policy: usize,
    n: usize,
    x: usize,
    t: usize,
    seed: u64,
) -> QueryReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes = population(n);
    let profile = match flavour {
        2 => ExecutionProfile::new().with_retry(RetryPolicy::verified(2)),
        3 => ExecutionProfile::new().with_defense(DefensePolicy::hardened()),
        _ => ExecutionProfile::new(),
    };
    let bins = |s: &Session, last: Option<&RoundStats>| policy_bins(policy, s, last);
    match flavour {
        2 => {
            let positives = random_positive_set(n, x, &mut rng);
            let mut ch = LossyChannel::new(n, CollisionModel::OnePlus, LossConfig::default(), seed);
            ch.set_positives(&positives);
            drive(
                &nodes,
                t,
                ChannelMut::paired(&mut ch),
                &mut rng,
                profile,
                bins,
            )
        }
        _ => {
            let model = if flavour == 1 {
                CollisionModel::two_plus_default()
            } else {
                CollisionModel::OnePlus
            };
            let mut ch = IdealChannel::with_random_positives(n, x, model, seed, &mut rng);
            drive(
                &nodes,
                t,
                ChannelMut::paired(&mut ch),
                &mut rng,
                profile,
                bins,
            )
        }
    }
}

fn paired_table() -> [[u64; 4]; 3] {
    let mut table = [[0u64; 4]; 3];
    for (policy, row) in table.iter_mut().enumerate() {
        for (flavour, cell) in row.iter_mut().enumerate() {
            let mut acc = 0u64;
            for (i, &(n, x, t)) in CASES.iter().enumerate() {
                for seed in 0..SEEDS {
                    let report = paired_report(flavour, policy, n, x, t, seed + 10 * i as u64);
                    report.assert_consistent();
                    acc = fold(acc, &report);
                }
            }
            *cell = acc;
        }
    }
    table
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn render<const C: usize>(table: &[[u64; C]]) -> String {
    let rows: Vec<String> = table
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|v| format!("0x{v:016x}")).collect();
            format!("    [{}],", cells.join(", "))
        })
        .collect();
    format!("[\n{}\n]", rows.join("\n"))
}

#[test]
fn job_reports_match_the_golden_fingerprints() {
    let got = job_table();
    for (row, alg) in AlgorithmSpec::ALL.into_iter().enumerate() {
        for (col, flavour) in JOB_FLAVOURS.iter().enumerate() {
            assert_eq!(
                got[row][col],
                JOB_PINS[row][col],
                "{} on {flavour} drifted; recomputed table:\n{}",
                alg.name(),
                render(&got)
            );
        }
    }
}

#[test]
fn paired_drive_reports_match_the_golden_fingerprints() {
    let got = paired_table();
    for (row, policy) in POLICIES.iter().enumerate() {
        for (col, flavour) in PAIRED_FLAVOURS.iter().enumerate() {
            assert_eq!(
                got[row][col],
                PAIRED_PINS[row][col],
                "policy {policy} on {flavour} drifted; recomputed table:\n{}",
                render(&got)
            );
        }
    }
}

#[test]
fn submit_and_job_ok_frames_match_the_golden_bytes() {
    let job = QueryJob::new(
        AlgorithmSpec::AbnsP02T,
        ChannelSpec::lossy(96, 12, CollisionModel::OnePlus, LossConfig::default())
            .seeded(3, 4)
            .with_retry(RetryPolicy::verified(2)),
        8,
        99,
    )
    .with_deadline(std::time::Duration::from_millis(250))
    .with_retry_budget(12)
    .with_trace(tcast_obs::TraceId(0x0123_4567_89AB_CDEF))
    .with_priority(tcast_tenant::Priority::High)
    .with_parent_span(tcast_obs::SpanContext {
        parent: 0xCAFE_F00D,
        sampled: true,
    });
    let submit = submit_bytes(&Frame::Submit {
        request_id: 42,
        job,
    });
    assert_eq!(hex(&submit), SUBMIT_HEX, "Submit frame bytes drifted");

    let job_ok = job_ok_bytes(42, &job.execute());
    assert_eq!(hex(&job_ok), JOB_OK_HEX, "JobOk frame bytes drifted");
}
