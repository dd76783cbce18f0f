//! Wire-protocol coverage: every frame round-trips byte-exactly, and
//! corrupt streams (bad magic, foreign version, truncation, oversized
//! lengths, trailing bytes, seeded random mutations) are rejected as
//! `Format` errors — never a panic or an unbounded allocation.

use pimgfx::Design;
use pimgfx_bench::Variant;
use pimgfx_serve::protocol::{
    read_request, read_response, write_request, write_response, CacheStats, JobSpec, JobState,
    ProtocolError, Request, Response, MAGIC, MAX_PAYLOAD, VERSION,
};
use pimgfx_types::TinyRng;
use pimgfx_workloads::{Game, Resolution, SyntheticSpec, Workload};

fn synthetic() -> SyntheticSpec {
    SyntheticSpec {
        seed: 0xC0FFEE,
        triangles: 400,
        textures: 2,
        texture_size: 32,
        kind_mask: 0x3,
        grazing_milli: 500,
        overdraw: 1,
        path_frames: 4,
    }
}

fn spec() -> JobSpec {
    JobSpec {
        workload: Game::Fear.into(),
        resolution: Resolution::R640x480,
        variants: vec![
            Variant::Design(Design::Baseline),
            Variant::Design(Design::BPim),
            Variant::Design(Design::STfim),
            Variant::Design(Design::ATfim),
            Variant::AnisoOff,
            Variant::AtfimThreshold(0.05),
            Variant::AtfimNoRecalc,
            Variant::AtfimNoConsolidation,
            Variant::AtfimNoCompression,
        ],
        sections: vec!["fig11".to_string(), "fig14".to_string()],
        trace: true,
        deadline_ms: 1234,
    }
}

fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(&mut buf, req).expect("encode request");
    buf
}

fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    write_response(&mut buf, resp).expect("encode response");
    buf
}

fn all_requests() -> Vec<Request> {
    vec![
        Request::SubmitJob(spec()),
        Request::JobStatus(42),
        Request::FetchResult(u64::MAX),
        Request::CancelJob(7),
        Request::Stats,
        Request::Shutdown,
        Request::SubmitJob(JobSpec {
            workload: Workload::Synthetic(synthetic()),
            resolution: Resolution::R3840x2160,
            variants: vec![Variant::Design(Design::ATfim)],
            sections: Vec::new(),
            trace: false,
            deadline_ms: 0,
        }),
    ]
}

fn all_responses() -> Vec<Response> {
    vec![
        Response::Submitted(9),
        Response::Busy {
            depth: 4,
            capacity: 4,
        },
        Response::Status(JobState::Queued),
        Response::Status(JobState::Running { done: 3, total: 9 }),
        Response::Status(JobState::Done { cells: 9 }),
        Response::Status(JobState::Failed("cell x: boom".to_string())),
        Response::Status(JobState::Cancelled("deadline".to_string())),
        Response::JobResult {
            manifest_json: "{\n  \"schema_version\": 2\n}\n".to_string(),
        },
        Response::Error("unknown job 5".to_string()),
        Response::Stats(CacheStats {
            scene_evictions: 3,
            stream_hits: 101,
            stream_misses: 13,
            stream_evictions: 7,
        }),
        Response::ShuttingDown,
    ]
}

#[test]
fn every_request_round_trips() {
    for req in all_requests() {
        let buf = encode_request(&req);
        let mut cur: &[u8] = &buf;
        let back = read_request(&mut cur)
            .expect("decode")
            .expect("one frame present");
        assert_eq!(back, req);
        assert!(cur.is_empty(), "decoder must consume the whole frame");
    }
}

#[test]
fn every_response_round_trips() {
    for resp in all_responses() {
        let buf = encode_response(&resp);
        let mut cur: &[u8] = &buf;
        let back = read_response(&mut cur).expect("decode");
        assert_eq!(back, resp);
        assert!(cur.is_empty(), "decoder must consume the whole frame");
    }
}

#[test]
fn pipelined_frames_decode_in_order() {
    let mut buf = Vec::new();
    for req in all_requests() {
        buf.extend_from_slice(&encode_request(&req));
    }
    let mut cur: &[u8] = &buf;
    for expected in all_requests() {
        let got = read_request(&mut cur).expect("decode").expect("frame");
        assert_eq!(got, expected);
    }
    assert!(matches!(read_request(&mut cur), Ok(None)), "clean EOF");
}

#[test]
fn bad_magic_is_rejected() {
    let mut buf = encode_request(&Request::Shutdown);
    buf[0] ^= 0xff;
    let mut cur: &[u8] = &buf;
    let err = read_request(&mut cur).expect_err("must reject");
    assert!(matches!(err, ProtocolError::Format(_)), "{err}");
    assert!(format!("{err}").contains("magic"), "{err}");
}

#[test]
fn future_version_is_rejected() {
    // A newer peer and the previous version (a v3 client still sending
    // kind-6 matrix jobs) both get a clean version error.
    for version in [VERSION + 1, VERSION - 1] {
        let mut buf = encode_request(&Request::Shutdown);
        buf[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
        let mut cur: &[u8] = &buf;
        let err = read_request(&mut cur).expect_err("must reject");
        assert!(format!("{err}").contains("version"), "v{version}: {err}");
    }
}

#[test]
fn truncation_at_every_boundary_is_a_format_error() {
    let full = encode_request(&Request::SubmitJob(spec()));
    for cut in [1, 3, 5, 8, 12, 16, full.len() / 2, full.len() - 1] {
        let mut cur: &[u8] = &full[..cut];
        let err = read_request(&mut cur).expect_err("truncated stream must fail");
        assert!(
            matches!(err, ProtocolError::Format(_)),
            "cut at {cut}: {err}"
        );
    }
}

#[test]
fn oversized_declared_payload_is_rejected_without_allocation() {
    // Hand-craft a header declaring a payload bigger than MAX_PAYLOAD.
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&5u32.to_le_bytes()); // Shutdown kind
    let declared = u32::try_from(MAX_PAYLOAD + 1).expect("fits u32");
    buf.extend_from_slice(&declared.to_le_bytes());
    let mut cur: &[u8] = &buf;
    let err = read_request(&mut cur).expect_err("must reject");
    assert!(format!("{err}").contains("MAX_PAYLOAD"), "{err}");
}

#[test]
fn lying_length_with_short_payload_is_a_format_error() {
    // Declared length 100, only 3 payload bytes on the wire.
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&2u32.to_le_bytes()); // JobStatus kind
    buf.extend_from_slice(&100u32.to_le_bytes());
    buf.extend_from_slice(&[1, 2, 3]);
    let mut cur: &[u8] = &buf;
    let err = read_request(&mut cur).expect_err("must reject");
    assert!(format!("{err}").contains("truncated"), "{err}");
}

#[test]
fn trailing_payload_bytes_are_rejected() {
    // A Shutdown frame whose payload should be empty but carries junk.
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&5u32.to_le_bytes());
    buf.extend_from_slice(&4u32.to_le_bytes());
    buf.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    let mut cur: &[u8] = &buf;
    let err = read_request(&mut cur).expect_err("must reject");
    assert!(format!("{err}").contains("trailing"), "{err}");
}

#[test]
fn unknown_kinds_are_rejected() {
    // Kind 6 is the retired matrix submission; it must not decode.
    for kind in [6u32, 99] {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&kind.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut cur: &[u8] = &buf;
        let err = read_request(&mut cur).expect_err("must reject");
        assert!(
            format!("{err}").contains("unknown request kind"),
            "kind {kind}: {err}"
        );
    }

    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&1u32.to_le_bytes()); // SubmitJob kind on the response side
    buf.extend_from_slice(&0u32.to_le_bytes());
    let mut cur: &[u8] = &buf;
    assert!(read_response(&mut cur).is_err());
}

#[test]
fn corrupt_workload_tag_is_rejected() {
    let mut buf = encode_request(&Request::SubmitJob(spec()));
    // The workload tag is the first payload u32 (a game workload is a
    // single u32 tag; the synthetic tag is 5).
    let tag_at = 17;
    buf[tag_at..tag_at + 4].copy_from_slice(&200u32.to_le_bytes());
    let mut cur: &[u8] = &buf;
    let err = read_request(&mut cur).expect_err("must reject");
    assert!(matches!(err, ProtocolError::Format(_)), "{err}");
}

#[test]
fn corrupt_variant_tag_is_rejected() {
    let req = Request::SubmitJob(JobSpec {
        variants: vec![Variant::AnisoOff],
        sections: Vec::new(),
        ..spec()
    });
    let mut buf = encode_request(&req);
    // The variant tag (value 4 = AnisoOff) is the u32 right after
    // magic+version+kind+len+workload+res+count (a game workload is a
    // single u32 tag); corrupt it to 200.
    let tag_at = 17 + 4 + 4 + 4;
    buf[tag_at..tag_at + 4].copy_from_slice(&200u32.to_le_bytes());
    let mut cur: &[u8] = &buf;
    let err = read_request(&mut cur).expect_err("must reject");
    assert!(format!("{err}").contains("variant tag"), "{err}");
}

#[test]
fn invalid_synthetic_spec_on_the_wire_is_rejected() {
    // Encode a valid synthetic JobSpec, then zero the triangle count
    // in place; the decoder validates specs and must refuse it.
    let req = Request::SubmitJob(JobSpec {
        workload: Workload::Synthetic(synthetic()),
        resolution: Resolution::R320x240,
        variants: Vec::new(),
        sections: Vec::new(),
        trace: false,
        deadline_ms: 0,
    });
    let mut buf = encode_request(&req);
    // Payload layout: workload tag (5), seed lo, seed hi, triangles.
    let tri_at = 17 + 4 + 4 + 4;
    assert_eq!(
        &buf[tri_at..tri_at + 4],
        &400u32.to_le_bytes(),
        "triangle count not where expected"
    );
    buf[tri_at..tri_at + 4].copy_from_slice(&0u32.to_le_bytes());
    let mut cur: &[u8] = &buf;
    let err = read_request(&mut cur).expect_err("must reject");
    assert!(format!("{err}").contains("synthetic"), "{err}");
}

#[test]
fn structural_ablation_variants_have_no_wire_tag() {
    for v in [
        Variant::Bc1(Design::ATfim),
        Variant::StfimMtus(8),
        Variant::AtfimCubes(2),
        Variant::AtfimVaults(64),
    ] {
        let mut spec = spec();
        spec.variants.push(v);
        let mut buf = Vec::new();
        let err = write_request(&mut buf, &Request::SubmitJob(spec)).expect_err("not served");
        assert!(err.to_string().contains(&v.label()), "{err}");
    }
}

/// One seeded corruption of an encoded frame: a byte flip, a
/// truncation, an overwritten frame-length field, or an overwritten
/// payload u32 (the position of counts and string lengths).
fn mutate(rng: &mut TinyRng, frame: &[u8]) -> Vec<u8> {
    let mut out = frame.to_vec();
    let pick = |rng: &mut TinyRng, n: usize| (rng.next_u64() % n as u64) as usize;
    let word = |rng: &mut TinyRng| match rng.next_u64() % 4 {
        0 => 0u32,
        1 => u32::MAX,
        2 => (rng.next_u64() % 64) as u32,
        _ => rng.next_u64() as u32,
    };
    match rng.next_u64() % 4 {
        0 => {
            for _ in 0..=pick(rng, 3) {
                let at = pick(rng, out.len());
                out[at] ^= (rng.next_u64() as u8) | 1;
            }
        }
        1 => out.truncate(pick(rng, out.len())),
        2 => out[13..17].copy_from_slice(&word(rng).to_le_bytes()),
        _ if out.len() >= 21 => {
            let at = 17 + pick(rng, out.len() - 20);
            out[at..at + 4].copy_from_slice(&word(rng).to_le_bytes());
        }
        _ => out.truncate(out.len() / 2),
    }
    out
}

#[test]
fn seeded_mutations_never_panic_the_decoders() {
    const ROUNDS: usize = 2000;
    let mut rng = TinyRng::seed_from_u64(0x0050_4752_5043);
    let requests: Vec<Vec<u8>> = all_requests().iter().map(encode_request).collect();
    let responses: Vec<Vec<u8>> = all_responses().iter().map(encode_response).collect();
    let mut rejected = 0usize;
    for _ in 0..ROUNDS {
        for frame in &requests {
            let bad = mutate(&mut rng, frame);
            // Ok or Err are both fine; a panic fails the test.
            rejected += usize::from(read_request(&mut bad.as_slice()).is_err());
        }
        for frame in &responses {
            let bad = mutate(&mut rng, frame);
            rejected += usize::from(read_response(&mut bad.as_slice()).is_err());
        }
    }
    // The sweep must actually reach the error paths, not just re-decode
    // frames the mutations happened to leave intact.
    let total = ROUNDS * (requests.len() + responses.len());
    assert!(
        rejected * 2 > total,
        "only {rejected} of {total} mutated frames rejected"
    );
}
