//! Startup validation of the `lt-serve` daemon: a bad flag or fabric
//! environment value is a usage error (exit status 2 and a message on
//! stderr) before anything binds, never a silent fallback to a default.

use std::process::{Command, Output};

fn run(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lt-serve"));
    cmd.args(args);
    for (name, value) in envs {
        cmd.env(name, value);
    }
    cmd.output().expect("spawn lt-serve")
}

fn assert_usage_error(args: &[&str], envs: &[(&str, &str)], needle: &str) {
    let out = run(args, envs);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} {envs:?}: expected exit 2, got {:?}; stderr: {stderr}",
        out.status
    );
    assert!(
        stderr.contains(needle),
        "{args:?} {envs:?}: stderr lacks {needle:?}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?}: printed before failing: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn zero_counts_are_rejected() {
    for flag in ["--workers", "--queue", "--conns"] {
        assert_usage_error(
            &[flag, "0"],
            &[],
            &format!("{flag} must be a positive integer"),
        );
    }
    assert_usage_error(
        &["--workers", "0", "--queue", "0"],
        &[],
        "--workers must be a positive integer",
    );
}

#[test]
fn non_numeric_and_out_of_range_values_are_rejected() {
    assert_usage_error(&["--workers", "abc"], &[], "--workers");
    assert_usage_error(&["--queue", "-3"], &[], "--queue");
    assert_usage_error(&["--conns", "99999999999999999999999"], &[], "--conns");
    assert_usage_error(&["--shard-id", "4294967296"], &[], "--shard-id");
    assert_usage_error(&["--shard-id", "x"], &[], "--shard-id");
    assert_usage_error(&["--workers"], &[], "--workers needs a value");
    assert_usage_error(&["--no-such-flag"], &[], "unknown flag");
}

#[test]
fn coordinator_fabric_environment_is_validated() {
    let coordinator = [
        "--coordinator",
        "--shard",
        "0=127.0.0.1:9",
        "--addr",
        "127.0.0.1:0",
    ];
    for (name, value) in [
        ("LT_SHARD_VNODES", "abc"),
        ("LT_SHARD_VNODES", "0"),
        ("LT_SHARD_PROBE_MS", "0"),
        ("LT_SHARD_PROBE_MS", "99999999999999999999999"),
    ] {
        assert_usage_error(&coordinator, &[(name, value)], name);
    }
    assert_usage_error(&["--coordinator"], &[], "at least one --shard");
    assert_usage_error(&["--coordinator", "--shard", "nope"], &[], "--shard");
}
