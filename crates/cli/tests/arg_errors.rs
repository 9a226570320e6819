//! Argument-error coverage through the real binary: every subcommand —
//! including `serve` and `replay` — must reject unknown flags, missing
//! values, and unparseable numbers with a non-zero exit and a message
//! naming the offending flag, before doing any work (no hanging on
//! stdin, no solver runs).

use std::process::{Command, Output, Stdio};

/// Runs the built `billcap` binary with `args`, stdin closed, and
/// returns the completed output. Closing stdin matters for `serve`:
/// argument errors must surface before the daemon would block reading.
fn billcap(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_billcap"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn billcap")
}

/// Asserts the invocation fails with exit code 1 (an error, not a
/// panic's 101) and mentions `needle` on stderr.
fn assert_fails_mentioning(args: &[&str], needle: &str) {
    let out = billcap(args);
    assert_eq!(
        out.status.code(),
        Some(1),
        "billcap {args:?}: stderr {:?}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "billcap {args:?}: stderr {stderr:?} does not mention {needle:?}"
    );
}

#[test]
fn unknown_flag_is_rejected_everywhere() {
    for cmd in [
        vec!["decide-hour", "--offered", "6e8", "--budget", "1e9"],
        vec!["simulate-month", "--quiet"],
        vec!["derive-policies"],
        vec!["export-trace"],
        vec!["analyze-trace", "x.jsonl"],
        vec!["diff-trace", "a.jsonl", "b.jsonl"],
        vec!["solve-lp", "x.lp"],
        vec!["lint-model", "x.lp"],
        vec!["lint-spec"],
        vec!["serve"],
        vec!["replay"],
    ] {
        let mut args = cmd.clone();
        args.push("--frobnicate");
        args.push("1");
        assert_fails_mentioning(&args, "--frobnicate");
    }
    // A retired switch is an unknown flag, not a silent default.
    for cmd in ["serve", "replay"] {
        assert_fails_mentioning(&[cmd, "--warm-basis"], "--warm-basis");
    }
}

#[test]
fn missing_required_value_is_rejected() {
    // `--offered` immediately followed by another flag parses as a
    // switch, so the required value is missing.
    assert_fails_mentioning(&["decide-hour", "--offered", "--budget"], "offered");
    assert_fails_mentioning(&["decide-hour", "--budget", "1e9"], "offered");
    assert_fails_mentioning(&["analyze-trace"], "trace file");
    assert_fails_mentioning(&["solve-lp"], "file path");
}

#[test]
fn unparseable_numbers_are_rejected() {
    assert_fails_mentioning(
        &["decide-hour", "--offered", "lots", "--budget", "1e9"],
        "--offered",
    );
    assert_fails_mentioning(&["simulate-month", "--hours", "nope"], "--hours");
    assert_fails_mentioning(&["replay", "--hours", "nope"], "--hours");
    assert_fails_mentioning(&["replay", "--seed", "3.5"], "--seed");
    assert_fails_mentioning(&["replay", "--budget", "much"], "--budget");
    assert_fails_mentioning(&["serve", "--workers", "two"], "--workers");
    assert_fails_mentioning(&["export-trace", "--hours", "-3"], "--hours");
}

#[test]
fn out_of_range_values_are_rejected() {
    assert_fails_mentioning(&["replay", "--hours", "0"], "--hours");
    assert_fails_mentioning(&["replay", "--workers", "0"], "--workers");
    assert_fails_mentioning(&["replay", "--policy", "9"], "--policy");
    assert_fails_mentioning(&["serve", "--workers", "0"], "--workers");
    assert_fails_mentioning(&["serve", "--once"], "--socket");
    assert_fails_mentioning(&["replay", "--budget", "1e6", "--uncapped"], "exclusive");
    assert_fails_mentioning(
        &[
            "decide-hour",
            "--offered",
            "1e8",
            "--budget",
            "1",
            "--policy",
            "7",
        ],
        "--policy",
    );
    // Hour inputs the decider rejects before building a model.
    assert_fails_mentioning(
        &["decide-hour", "--offered", "-1e8", "--budget", "1e9"],
        "offered rate",
    );
    assert_fails_mentioning(
        &["decide-hour", "--offered", "NaN", "--budget", "1e9"],
        "offered rate",
    );
    assert_fails_mentioning(
        &["decide-hour", "--offered", "6e8", "--budget", "NaN"],
        "budget must be",
    );
}

#[test]
fn serve_on_closed_stdin_exits_cleanly() {
    // With stdin at EOF the daemon sees a clean end-of-stream: zero
    // requests, exit 0, stats on stderr. This is the regression guard
    // against the reader blocking forever on an empty pipe.
    let out = billcap(&["serve", "--workers", "1"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0 decisions"), "stderr: {stderr}");
}

#[test]
fn unopenable_metrics_stream_fails_every_front() {
    // A stream path under a directory that does not exist: every front
    // refuses it before serving, and names it.
    let dir = std::env::temp_dir().join(format!("billcap-no-such-dir-{}", std::process::id()));
    let stream = dir.join("m.jsonl");
    let stream = stream.to_str().expect("temp paths are UTF-8");
    let socket = std::env::temp_dir().join(format!("billcap-stream-{}.sock", std::process::id()));
    let socket = socket.to_str().expect("temp paths are UTF-8");
    assert_fails_mentioning(&["serve", "--metrics-stream", stream], stream);
    let replay = ["replay", "--hours", "4", "--metrics-stream", stream];
    assert_fails_mentioning(&replay, stream);
    let stderr = String::from_utf8_lossy(&billcap(&replay).stderr).into_owned();
    assert!(
        !stderr.contains("building"),
        "replay built its plan before opening the stream: {stderr:?}"
    );
    assert_fails_mentioning(
        &[
            "serve",
            "--socket",
            socket,
            "--once",
            "--metrics-stream",
            stream,
        ],
        stream,
    );
    assert!(!dir.exists(), "no front creates the directory");
}

#[test]
fn unknown_subcommand_suggests_help() {
    assert_fails_mentioning(&["frobnicate"], "billcap help");
}
