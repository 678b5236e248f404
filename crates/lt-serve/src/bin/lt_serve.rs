//! `lt-serve`: the tuning service daemon — a standalone server, one shard
//! of a fabric, or the coordinator fronting a fabric.
//!
//! ```text
//! lt-serve [--addr HOST:PORT] [--workers N] [--queue N] [--conns N]
//!          [--wal-dir DIR] [--shard-id N]
//! lt-serve --coordinator --shard ID=HOST:PORT [--shard ID=HOST:PORT ...]
//!          [--addr HOST:PORT] [--queue N] [--conns N]
//! ```
//!
//! This binary is the only place daemon configuration is read. Defaults:
//! 127.0.0.1:7878 (coordinator 127.0.0.1:7879), 2 workers, queue depth 64,
//! 64 connections, no durability. A zero, non-numeric or out-of-range
//! value exits with status 2, like an unknown flag. With `--wal-dir` the
//! daemon keeps a write-ahead session log in `DIR/sessions.wal` and
//! recovers acknowledged sessions from it on startup. `--shard-id` gives
//! the daemon a shard identity: `/shard/*` control routes and a labelled
//! `/metrics`.
//!
//! With `--coordinator` the daemon instead fronts the listed shards:
//! global admission (fleet-wide quotas answering 429 + `Retry-After`),
//! consistent-hash routing of new sessions, per-session proxying, health
//! probing and aggregated `/metrics`. `--conns` caps its connections,
//! `--queue` × shard count bounds the fleet backlog, and two environment
//! variables tune the fabric: `LT_SHARD_VNODES` (virtual nodes per shard,
//! default 64) and `LT_SHARD_PROBE_MS` (health-probe cadence, default
//! 500). Stop either mode with `POST /shutdown` or Ctrl-C.

use lt_serve::coord::DEFAULT_PROBE_MS;
use lt_serve::ring::DEFAULT_VNODES;
use lt_serve::{CoordinatorConfig, ServerConfig, ShardSpec};

fn bad_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Parses a count that must be at least 1 and fit a `usize`.
fn positive(name: &str, value: &str) -> usize {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => bad_usage(&format!("{name} must be a positive integer, got {value:?}")),
    }
}

/// A positive count from the environment, or `default` when unset.
fn positive_env(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(value) => positive(name, &value),
        Err(std::env::VarError::NotPresent) => default,
        Err(_) => bad_usage(&format!("{name} is not valid UTF-8")),
    }
}

fn parse_shard(spec: &str) -> ShardSpec {
    let Some((id, addr)) = spec.split_once('=') else {
        bad_usage(&format!("--shard wants ID=HOST:PORT, got {spec:?}"));
    };
    let Ok(id) = id.trim().parse() else {
        bad_usage(&format!("--shard id must be an integer, got {id:?}"));
    };
    let Ok(addr) = addr.trim().parse() else {
        bad_usage(&format!("--shard address must be HOST:PORT, got {addr:?}"));
    };
    ShardSpec { id, addr }
}

fn run_coordinator(server: &ServerConfig, addr: Option<String>, shards: Vec<ShardSpec>) {
    if shards.is_empty() {
        bad_usage("--coordinator needs at least one --shard ID=HOST:PORT");
    }
    let mut config = CoordinatorConfig::new(shards);
    config.addr = addr.unwrap_or_else(|| "127.0.0.1:7879".to_string());
    config.vnodes = positive_env("LT_SHARD_VNODES", DEFAULT_VNODES);
    config.probe_ms = positive_env("LT_SHARD_PROBE_MS", DEFAULT_PROBE_MS as usize) as u64;
    config.max_active = server.queue_depth.saturating_mul(config.shards.len());
    let shard_count = config.shards.len();
    let mut coordinator = match lt_serve::start_coordinator(config.clone(), server.max_connections)
    {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("error: cannot start coordinator on {}: {err}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "lt-serve coordinator listening on http://{} ({shard_count} shards, probe every {}ms)",
        coordinator.addr(),
        config.probe_ms
    );
    println!(
        "shutdown: curl -X POST http://{}/shutdown",
        coordinator.addr()
    );
    coordinator.wait();
}

fn main() {
    let mut config = ServerConfig {
        // The daemon wants a knowable default port; tests and the load
        // generator (which construct ServerConfig directly) keep port 0.
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut coordinator = false;
    let mut coordinator_addr: Option<String> = None;
    let mut shards: Vec<ShardSpec> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| bad_usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--coordinator" => coordinator = true,
            "--shard" => shards.push(parse_shard(&value("--shard"))),
            "--addr" => {
                let addr = value("--addr");
                coordinator_addr = Some(addr.clone());
                config.addr = addr;
            }
            "--workers" => config.workers = positive("--workers", &value("--workers")),
            "--queue" => config.queue_depth = positive("--queue", &value("--queue")),
            "--conns" => config.max_connections = positive("--conns", &value("--conns")),
            "--wal-dir" => config.wal_dir = Some(value("--wal-dir")),
            "--shard-id" => {
                let id = value("--shard-id");
                config.shard_id = Some(id.trim().parse().unwrap_or_else(|_| {
                    bad_usage(&format!(
                        "--shard-id must be an integer in 0..={}, got {id:?}",
                        u32::MAX
                    ))
                }))
            }
            "--help" | "-h" => {
                println!(
                    "usage: lt-serve [--addr HOST:PORT] [--workers N] [--queue N] [--conns N] \
                     [--wal-dir DIR] [--shard-id N]\n\
                     \x20      lt-serve --coordinator --shard ID=HOST:PORT [--shard ...] \
                     [--addr HOST:PORT] [--queue N] [--conns N]"
                );
                return;
            }
            other => bad_usage(&format!("unknown flag {other}")),
        }
    }

    if coordinator {
        run_coordinator(&config, coordinator_addr, shards);
        return;
    }
    if !shards.is_empty() {
        bad_usage("--shard only makes sense with --coordinator");
    }

    let mut server = match lt_serve::start(config.clone()) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("error: cannot bind {}: {err}", config.addr);
            std::process::exit(1);
        }
    };
    let shard = config
        .shard_id
        .map(|id| format!(", shard {id}"))
        .unwrap_or_default();
    println!(
        "lt-serve listening on http://{} ({} workers, queue {}{shard})",
        server.addr(),
        config.workers,
        config.queue_depth
    );
    println!(
        "submit:   curl -X POST http://{}/sessions -d '{{\"benchmark\": \"tpch-sf1\"}}'",
        server.addr()
    );
    println!("shutdown: curl -X POST http://{}/shutdown", server.addr());
    server.wait();
}
