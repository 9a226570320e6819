//! Protocol robustness: the server must survive arbitrary garbage on
//! the wire. Malformed requests get structured `error` responses;
//! broken framing terminates the stream cleanly after one terminal
//! error frame; valid requests interleaved with junk are still
//! answered. Nothing here may panic, deadlock, or poison the pool.

use billcap_rt::{Rng, Xoshiro256pp};
use billcap_serve::protocol::{read_frame, write_frame, Request, Response, MAX_FRAME};
use billcap_serve::server::{serve, ServeConfig, ServeStats};
use std::io::Cursor;

fn cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..ServeConfig::default()
    }
}

fn valid_request(id: u64) -> Request {
    Request {
        id,
        policy: 1,
        offered: 5e8,
        premium_offered: 3e8,
        background_mw: vec![330.0, 410.0, 280.0],
        hourly_budget: f64::INFINITY,
    }
}

fn frame_of(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, req.to_value().render().as_bytes()).unwrap();
    buf
}

fn raw_frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, payload).unwrap();
    buf
}

fn run(input: Vec<u8>, workers: usize) -> (Vec<Response>, ServeStats) {
    let mut out = Vec::new();
    let stats = serve(&cfg(workers), Cursor::new(input), &mut out);
    let mut responses = Vec::new();
    let mut cur = Cursor::new(out);
    while let Some(frame) = read_frame(&mut cur, MAX_FRAME).expect("server frames are well-formed")
    {
        responses.push(Response::parse(&frame).expect("server responses parse"));
    }
    (responses, stats)
}

fn decision_ids(responses: &[Response]) -> Vec<u64> {
    let mut ids: Vec<u64> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Decision(m) => Some(m.id),
            _ => None,
        })
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn truncated_header_after_valid_request() {
    let mut input = frame_of(&valid_request(1));
    input.extend_from_slice(&[0, 0, 1]); // 3 of 4 header bytes
    let (responses, stats) = run(input, 2);
    assert_eq!(decision_ids(&responses), vec![1]);
    assert!(stats.frame_error.is_some(), "truncation must be reported");
    assert!(responses
        .iter()
        .any(|r| matches!(r, Response::Error { id: None, .. })));
}

#[test]
fn truncated_payload_is_a_frame_error_not_a_hang() {
    let mut input = Vec::new();
    input.extend_from_slice(&100u32.to_be_bytes());
    input.extend_from_slice(b"only a few bytes");
    let (responses, stats) = run(input, 1);
    assert_eq!(decision_ids(&responses), Vec::<u64>::new());
    let fe = stats.frame_error.expect("frame error recorded");
    assert!(fe.contains("truncated"), "got: {fe}");
}

#[test]
fn oversized_length_is_rejected_without_allocation() {
    let mut input = Vec::new();
    input.extend_from_slice(&u32::MAX.to_be_bytes());
    input.extend_from_slice(&[0xAB; 64]);
    let (responses, stats) = run(input, 1);
    let fe = stats.frame_error.expect("frame error recorded");
    assert!(fe.contains("exceeds"), "got: {fe}");
    assert_eq!(responses.len(), 1); // the terminal error frame
}

#[test]
fn invalid_utf8_payload_gets_structured_error() {
    let mut input = raw_frame(&[0xFF, 0xFE, 0x80, 0x80]);
    input.extend(frame_of(&valid_request(7)));
    let (responses, stats) = run(input, 1);
    assert_eq!(decision_ids(&responses), vec![7]);
    assert_eq!(stats.errors, 1);
    assert!(
        stats.frame_error.is_none(),
        "bad payload is not a frame error"
    );
}

#[test]
fn malformed_json_payloads_get_errors_and_never_kill_the_stream() {
    let bad: [&[u8]; 6] = [
        b"",
        b"{",
        b"[1,2,3]",
        b"\"just a string\"",
        b"{\"id\":}",
        b"{\"id\":1,\"policy\":0,\"offered\":1e8,\"premium\":2e8,\
          \"background\":[1.0],\"budget\":null}", // premium > offered
    ];
    let mut input = Vec::new();
    for payload in bad {
        input.extend(raw_frame(payload));
    }
    input.extend(frame_of(&valid_request(99)));
    let (responses, stats) = run(input, 2);
    assert_eq!(decision_ids(&responses), vec![99]);
    assert_eq!(stats.errors as usize, bad.len());
    assert_eq!(stats.decisions, 1);
}

#[test]
fn semantic_errors_carry_the_request_id() {
    let cases = [
        (10u64, "{\"id\":10,\"policy\":99,\"offered\":1.0,\"premium\":0.5,\"background\":[1.0],\"budget\":null}"),
        (11u64, "{\"id\":11,\"policy\":1,\"offered\":-1.0,\"premium\":0.0,\"background\":[1.0],\"budget\":null}"),
        (12u64, "{\"id\":12,\"policy\":1,\"offered\":1.0,\"premium\":0.5,\"background\":[],\"budget\":null}"),
        (13u64, "{\"id\":13,\"policy\":1,\"offered\":1.0,\"premium\":0.5,\"background\":[-2.0],\"budget\":null}"),
    ];
    let mut input = Vec::new();
    for (_, payload) in &cases {
        input.extend(raw_frame(payload.as_bytes()));
    }
    let (responses, stats) = run(input, 1);
    assert_eq!(stats.errors as usize, cases.len());
    let mut error_ids: Vec<u64> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Error { id, .. } => *id,
            _ => None,
        })
        .collect();
    error_ids.sort_unstable();
    assert_eq!(error_ids, vec![10, 11, 12, 13]);
}

#[test]
fn a_deeply_nested_control_frame_gets_an_error_and_the_stream_goes_on() {
    // One MiB of nesting under "op": the reader thread parses control
    // frames itself, so a decoder that recursed per level would take the
    // whole process down before the decide request behind it.
    let depth = (MAX_FRAME - "{\"op\":}".len()) / 2;
    let payload = format!("{{\"op\":{}{}}}", "[".repeat(depth), "]".repeat(depth));
    assert_eq!(payload.len(), MAX_FRAME - 1);
    let mut input = raw_frame(payload.as_bytes());
    input.extend(frame_of(&valid_request(5)));
    let (responses, _) = run(input, 1);
    assert_eq!(responses.len(), 2);
    assert!(
        responses.iter().any(|r| matches!(
            r,
            Response::Error { id: None, message }
                if message.starts_with("bad control frame") && message.contains("nesting")
        )),
        "{responses:?}"
    );
    assert_eq!(decision_ids(&responses), vec![5]);
}

#[test]
fn mid_request_disconnect_drops_cleanly() {
    // A client that vanishes halfway through a payload: the bytes sent
    // so far look like a truncated frame. Requests already queued are
    // served; the server returns instead of blocking forever.
    let full = frame_of(&valid_request(1));
    let mut input = frame_of(&valid_request(0));
    input.extend_from_slice(&full[..full.len() / 2]);
    let (responses, stats) = run(input, 4);
    assert_eq!(decision_ids(&responses), vec![0]);
    assert!(stats.frame_error.is_some());
}

#[test]
fn zero_length_frame_is_a_parse_error_not_a_crash() {
    let mut input = raw_frame(b"");
    input.extend(frame_of(&valid_request(3)));
    let (responses, stats) = run(input, 1);
    assert_eq!(decision_ids(&responses), vec![3]);
    assert_eq!(stats.errors, 1);
}

#[test]
fn randomized_garbage_interleaved_with_valid_requests() {
    // Seeded fuzz loop: random byte blobs, random corrupted frames, and
    // valid requests shuffled together. Every valid request must be
    // answered with a decision; nothing may panic or deadlock. Frame
    // corruption may legitimately terminate a stream early, so valid
    // requests are only required to be answered when the stream's
    // framing stayed intact up to that point.
    let mut rng = Xoshiro256pp::seed_from_u64(0x5eed);
    for round in 0..20 {
        let mut input = Vec::new();
        let mut expected_ids = Vec::new();
        let mut framing_intact = true;
        for slot in 0..8 {
            match rng.random_usize_in(0, 3) {
                0 => {
                    // Valid request (only counted if framing unbroken so far).
                    let id = round * 100 + slot as u64;
                    input.extend(frame_of(&valid_request(id)));
                    if framing_intact {
                        expected_ids.push(id);
                    }
                }
                1 => {
                    // Well-framed garbage payload: structured error, stream
                    // survives.
                    let n = rng.random_usize_in(0, 64);
                    let blob: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                    input.extend(raw_frame(&blob));
                }
                2 => {
                    // Corrupt framing: random bytes straight on the wire.
                    // Whatever the reader makes of them, the stream is no
                    // longer trustworthy past this point.
                    let n = rng.random_usize_in(1, 16);
                    for _ in 0..n {
                        input.push(rng.next_u64() as u8);
                    }
                    framing_intact = false;
                }
                _ => {
                    // Truncated valid frame.
                    let full = frame_of(&valid_request(round * 100 + slot as u64));
                    let cut = rng.random_usize_in(1, full.len().saturating_sub(1).max(1));
                    input.extend_from_slice(&full[..cut]);
                    framing_intact = false;
                }
            }
            if !framing_intact {
                break; // everything after a framing break is undefined input
            }
        }
        let workers = rng.random_usize_in(1, 4);
        let (responses, stats) = run(input, workers);
        let ids = decision_ids(&responses);
        assert_eq!(
            ids, expected_ids,
            "round {round}: valid requests before any framing break must be answered"
        );
        if !framing_intact {
            // The reader noticed the break in every case where bytes
            // remained: either a frame error or a clean EOF consumed it.
            let _ = stats.frame_error;
        }
    }
}

#[test]
fn burst_of_valid_requests_across_worker_counts_never_loses_one() {
    for workers in [1usize, 2, 4] {
        let mut input = Vec::new();
        for id in 0..25u64 {
            input.extend(frame_of(&valid_request(id)));
        }
        let (responses, stats) = run(input, workers);
        assert_eq!(stats.decisions, 25, "workers={workers}");
        assert_eq!(decision_ids(&responses), (0..25).collect::<Vec<u64>>());
    }
}
