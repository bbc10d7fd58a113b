//! Wire-format properties: encode→decode identity for every frame type
//! (including randomized job specs and reports), max-size payload
//! handling at the cap boundary, and corruption rejection — any flipped
//! byte must be caught, never silently decoded into a different frame.

use std::time::Duration;

use proptest::prelude::*;

use tcast::{
    AdversaryConfig, AdversaryModel, CaptureModel, ChannelSpec, CollisionModel, DefensePolicy,
    LossConfig, QueryReport, RetryPolicy, RoundTrace,
};
use tcast_net::frame::{HEADER_LEN, TRAILER_LEN};
use tcast_net::{Frame, FrameReader, MalformedFrame, DEFAULT_MAX_PAYLOAD};
use tcast_service::{AlgorithmSpec, JobError, QueryJob};

/// Deterministically expands a handful of drawn words into a job spec
/// covering every algorithm, collision model, loss, and option arm.
fn job_from(seed: u64, n: usize, x_frac: usize, t: usize, knobs: u64) -> QueryJob {
    let algorithm = AlgorithmSpec::ALL[(knobs % 8) as usize];
    let model = match (knobs >> 3) % 3 {
        0 => CollisionModel::OnePlus,
        1 => CollisionModel::TwoPlus(CaptureModel::Never),
        _ => CollisionModel::TwoPlus(CaptureModel::Geometric {
            alpha: (seed % 1000) as f64 / 1000.0,
        }),
    };
    let x = n * x_frac / 100;
    let mut spec = if (knobs >> 5) & 1 == 1 {
        ChannelSpec::lossy(
            n,
            x,
            model,
            LossConfig {
                reply_miss_prob: (seed % 97) as f64 / 100.0,
                false_activity_prob: (seed % 13) as f64 / 100.0,
            },
        )
    } else {
        ChannelSpec::ideal(n, x, model)
    };
    spec = spec.seeded(seed, seed.rotate_left(17));
    if (knobs >> 6) & 1 == 1 {
        spec = spec.with_retry(RetryPolicy {
            max_retries: (knobs % 5) as u32,
            budget: ((knobs >> 7) & 1 == 1).then_some(seed % 10_000),
        });
    }
    if (knobs >> 10) & 1 == 1 {
        let model = match (knobs >> 11) % 4 {
            0 => AdversaryModel::FalseResponders {
                count: (seed % 1000) as u32,
            },
            1 => AdversaryModel::Colluders {
                size: (seed % 64) as u32,
            },
            2 => AdversaryModel::Jammer {
                duty_mille: (seed % 1001) as u32,
            },
            _ => AdversaryModel::SilentDrop {
                budget: seed % 4096,
            },
        };
        spec = spec.with_adversary(AdversaryConfig {
            model,
            seed: seed.rotate_left(29),
        });
    }
    if (knobs >> 13) & 1 == 1 {
        spec = spec.with_defense(DefensePolicy {
            confirm_activity: (knobs % 4) as u32,
            canary: (knobs >> 14) & 1 == 1,
            confirm_true: ((knobs >> 1) % 3) as u32,
        });
    }
    let mut job = QueryJob::new(algorithm, spec, t, seed.wrapping_mul(0x9E37_79B9));
    if (knobs >> 8) & 1 == 1 {
        job = job.with_deadline(Duration::from_nanos(seed % 1_000_000_000));
    }
    if (knobs >> 9) & 1 == 1 {
        job = job.with_retry_budget(seed % 500);
    }
    job
}

fn report_from(seed: u64, rounds: usize) -> QueryReport {
    let mut report = QueryReport::trivial(seed.is_multiple_of(2));
    report.queries = seed;
    report.rounds = rounds as u32;
    report.retry_queries = seed / 3;
    report.defense_queries = seed / 7;
    report.anomalies = seed % 17;
    report.confirmed_positives = (seed % 1_000) as usize;
    report.trace = (0..rounds)
        .map(|i| {
            let w = seed.wrapping_mul(i as u64 + 1);
            RoundTrace {
                bins: (w % 4096) as usize,
                queried_bins: (w % 2048) as usize,
                silent_bins: (w % 1024) as usize,
                eliminated: (w % 512) as usize,
                captured: (w % 256) as usize,
                retries: (w % 128) as usize,
                defenses: (w % 64) as usize,
                remaining: (w % 8192) as usize,
            }
        })
        .collect();
    report
}

/// Every frame type, parameterized by the drawn inputs.
fn all_frames(
    seed: u64,
    n: usize,
    x_frac: usize,
    t: usize,
    knobs: u64,
    detail: String,
) -> Vec<Frame> {
    vec![
        Frame::Hello {
            min_version: (seed % 256) as u8,
            max_version: ((seed >> 8) % 256) as u8,
        },
        Frame::HelloAck {
            version: (seed % 256) as u8,
            challenge: if seed.is_multiple_of(2) {
                None
            } else {
                let mut nonce = [0u8; 16];
                for (i, b) in nonce.iter_mut().enumerate() {
                    *b = (seed >> (i % 8)) as u8;
                }
                Some(nonce)
            },
        },
        Frame::Submit {
            request_id: seed,
            job: job_from(seed, n, x_frac, t, knobs),
        },
        Frame::JobOk {
            request_id: seed ^ 1,
            report: report_from(seed, (knobs % 64) as usize),
        },
        Frame::JobFailed {
            request_id: seed ^ 2,
            error: if knobs & 1 == 0 {
                JobError::Panicked(detail.clone())
            } else {
                JobError::DeadlineExceeded
            },
        },
        Frame::Error {
            request_id: if knobs & 2 == 0 { 0 } else { seed },
            code: match knobs % 4 {
                0 => tcast_net::ErrorCode::Busy,
                1 => tcast_net::ErrorCode::Malformed,
                2 => tcast_net::ErrorCode::UnsupportedVersion,
                _ => tcast_net::ErrorCode::ShuttingDown,
            },
            detail,
        },
        Frame::Goodbye,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_frame_type_roundtrips_bit_identically(
        seed in any::<u64>(),
        n in 1usize..512,
        x_frac in 0usize..=100,
        t in 1usize..64,
        knobs in any::<u64>(),
        detail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let detail: String = detail.into_iter().map(|b| (b % 94 + 32) as char).collect();
        for frame in all_frames(seed, n, x_frac, t, knobs, detail) {
            let bytes = frame.to_bytes();
            let decoded = Frame::from_bytes(&bytes, DEFAULT_MAX_PAYLOAD);
            prop_assert_eq!(decoded.as_ref(), Ok(&frame));
            // The incremental reader agrees with the one-shot parser.
            let mut reader = FrameReader::new();
            let got = reader
                .read_from(&mut std::io::Cursor::new(&bytes), DEFAULT_MAX_PAYLOAD)
                .expect("reader accepts what from_bytes accepts")
                .expect("complete frame buffered");
            prop_assert_eq!(&got.0, &frame);
            prop_assert_eq!(got.1, bytes.len());
        }
    }

    #[test]
    fn any_corrupted_byte_is_rejected(
        seed in any::<u64>(),
        knobs in any::<u64>(),
        corrupt_pos_frac in 0usize..=100,
        flip in 1u8..=255,
    ) {
        // A non-identity byte change anywhere in the frame must yield an
        // error — never Ok, and in particular never a *different* frame.
        for frame in all_frames(seed, 64, 50, 8, knobs, "corruptme".into()) {
            let mut bytes = frame.to_bytes();
            let pos = (bytes.len() - 1) * corrupt_pos_frac / 100;
            bytes[pos] ^= flip;
            prop_assert!(
                Frame::from_bytes(&bytes, DEFAULT_MAX_PAYLOAD).is_err(),
                "flip {:#04x} at byte {} of {:?} slipped through",
                flip,
                pos,
                frame
            );
        }
    }
}

/// What decoding a byte stream yields, frame by frame, up to the first
/// failure.
#[derive(Debug, PartialEq)]
enum Decoded {
    Frame(Box<Frame>, usize),
    Malformed(MalformedFrame),
    /// The stream ended, cleanly or mid-frame.
    Eof,
}

/// The one-shot reference: cut the stream where each header's length
/// says the frame ends and hand each whole frame to `from_bytes`. The
/// header prefix is judged as the reader judges it, as soon as it is
/// complete, so a corrupted length field moves the cut exactly as it
/// would for any stream decoder.
fn decode_one_shot(stream: &[u8], max_payload: u32) -> Vec<Decoded> {
    let mut out = Vec::new();
    let mut pos = 0;
    loop {
        let rest = &stream[pos..];
        if rest.len() < HEADER_LEN {
            out.push(Decoded::Eof);
            return out;
        }
        let magic: [u8; 4] = rest[0..4].try_into().unwrap();
        if magic != tcast_net::frame::MAGIC {
            out.push(Decoded::Malformed(MalformedFrame::BadMagic(magic)));
            return out;
        }
        let len = u32::from_le_bytes(rest[14..18].try_into().unwrap());
        if len > max_payload {
            out.push(Decoded::Malformed(MalformedFrame::Oversized {
                len,
                max: max_payload,
            }));
            return out;
        }
        let total = HEADER_LEN + len as usize + TRAILER_LEN;
        if rest.len() < total {
            out.push(Decoded::Eof);
            return out;
        }
        match Frame::from_bytes(&rest[..total], max_payload) {
            Ok(frame) => out.push(Decoded::Frame(Box::new(frame), total)),
            Err(m) => {
                out.push(Decoded::Malformed(m));
                return out;
            }
        }
        pos += total;
    }
}

/// A non-blocking socket stand-in: hands out `bytes` in pieces of the
/// given sizes (cycled, capped by the caller's buffer), and reports
/// `WouldBlock` between pieces when `stall` is set.
struct Chunked<'a> {
    bytes: &'a [u8],
    pos: usize,
    cuts: &'a [usize],
    next: usize,
    stall: bool,
    stalled: bool,
}

impl std::io::Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.stall && !self.stalled && self.pos < self.bytes.len() {
            self.stalled = true;
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        self.stalled = false;
        let cut = self.cuts[self.next % self.cuts.len()];
        self.next += 1;
        let take = cut.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..take].copy_from_slice(&self.bytes[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

fn want_len(decoded: &Decoded) -> usize {
    match decoded {
        Decoded::Frame(_, n) => *n,
        _ => unreachable!("only frames precede the end"),
    }
}

/// Drives a fresh `FrameReader` over `src` until EOF or the first error.
fn decode_streaming(src: &mut impl std::io::Read, max_payload: u32) -> Vec<Decoded> {
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    loop {
        match reader.read_from(src, max_payload) {
            Ok(Some((frame, n))) => out.push(Decoded::Frame(Box::new(frame), n)),
            Ok(None) => continue,
            Err(tcast_net::FrameReadError::Malformed(m)) => {
                out.push(Decoded::Malformed(m));
                return out;
            }
            Err(tcast_net::FrameReadError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}");
                out.push(Decoded::Eof);
                return out;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Several frames back to back, split at arbitrary byte boundaries —
    /// reads ending mid-header, reads spanning frame boundaries — decode
    /// to exactly the one-shot frames and wire sizes. With one byte
    /// flipped anywhere, the frames before it still decode and the first
    /// error is the one-shot error.
    #[test]
    fn chunked_streams_decode_like_one_shot(
        seed in any::<u64>(),
        knobs in any::<u64>(),
        cuts in proptest::collection::vec(1usize..96, 1..24),
        stall in any::<bool>(),
        flip_frac in 0usize..=1000,
        flip in 0u8..=255,
    ) {
        let frames = all_frames(seed, 64, 50, 8, knobs, "chunked".into());
        let mut stream = Vec::new();
        for frame in &frames {
            frame.encode_into(&mut stream);
        }
        let max = DEFAULT_MAX_PAYLOAD;

        let clean = decode_one_shot(&stream, max);
        let mut want: Vec<Decoded> = frames
            .iter()
            .map(|f| Decoded::Frame(Box::new(f.clone()), f.to_bytes().len()))
            .collect();
        want.push(Decoded::Eof);
        prop_assert_eq!(&clean, &want);
        let mut src = Chunked { bytes: &stream, pos: 0, cuts: &cuts, next: 0, stall, stalled: false };
        prop_assert_eq!(decode_streaming(&mut src, max), clean);

        // A zero `flip` leaves the stream intact: covered above.
        let pos = (stream.len() - 1) * flip_frac / 1000;
        stream[pos] ^= flip;
        let corrupted = decode_one_shot(&stream, max);
        if flip != 0 {
            // Outside the length field the frame keeps its extent, so the
            // error is `from_bytes`' own on that frame's bytes.
            let mut start = 0;
            let mut k = 0;
            while start + want_len(&want[k]) <= pos {
                start += want_len(&want[k]);
                k += 1;
            }
            if !(14..18).contains(&(pos - start)) {
                let end = start + want_len(&want[k]);
                let err = Frame::from_bytes(&stream[start..end], max).unwrap_err();
                want.truncate(k);
                want.push(Decoded::Malformed(err));
                prop_assert_eq!(&corrupted, &want);
            }
        }
        let mut src = Chunked { bytes: &stream, pos: 0, cuts: &cuts, next: 0, stall, stalled: false };
        prop_assert_eq!(decode_streaming(&mut src, max), corrupted);
    }
}

#[test]
fn corrupted_crc_trailer_is_rejected_as_bad_crc() {
    let frame = Frame::Submit {
        request_id: 9,
        job: job_from(1234, 128, 25, 16, 0b11_1110_1010),
    };
    let mut bytes = frame.to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    assert!(matches!(
        Frame::from_bytes(&bytes, DEFAULT_MAX_PAYLOAD),
        Err(MalformedFrame::BadCrc { .. })
    ));
}

/// The largest report that still fits the default payload cap: the trace
/// dominates, at 64 wire bytes per round.
fn max_size_report() -> (QueryReport, usize) {
    let fixed = 1 + 8 + 4 + 8 + 8 + 8 + 8 + 4; // answer..confirmed_positives + trace len
    let per_round = 64;
    let rounds = (DEFAULT_MAX_PAYLOAD as usize - fixed) / per_round;
    (report_from(0xDEAD_BEEF, rounds), fixed + rounds * per_round)
}

#[test]
fn max_size_payload_roundtrips_and_one_more_round_is_rejected() {
    let (report, payload_len) = max_size_report();
    assert!(DEFAULT_MAX_PAYLOAD as usize - payload_len < 64);

    let frame = Frame::JobOk {
        request_id: 1,
        report: report.clone(),
    };
    let bytes = frame.to_bytes();
    assert_eq!(bytes.len(), HEADER_LEN + payload_len + TRAILER_LEN);
    assert_eq!(
        Frame::from_bytes(&bytes, DEFAULT_MAX_PAYLOAD).unwrap(),
        frame
    );

    // One more trace round pushes the payload over the cap; the reader
    // must reject from the length prefix alone, before buffering it.
    let mut oversized = report;
    oversized.trace.push(oversized.trace[0]);
    let bytes = Frame::JobOk {
        request_id: 2,
        report: oversized,
    }
    .to_bytes();
    let mut reader = FrameReader::new();
    let err = reader
        .read_from(&mut std::io::Cursor::new(&bytes), DEFAULT_MAX_PAYLOAD)
        .unwrap_err();
    assert!(matches!(
        err,
        tcast_net::FrameReadError::Malformed(MalformedFrame::Oversized { .. })
    ));
}
