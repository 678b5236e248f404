//! The `lt-serve` daemon: spawning and killing it, and the API calls the
//! serving workloads make.

use crate::client::Client;
use crate::report::Report;
use lt_common::json::Value;
use std::fs::File;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads of the daemon (its default).
pub const WORKERS: usize = 2;

/// A running daemon child process.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Daemon {
    /// Starts `bin` on a free loopback port with its write-ahead log in
    /// `wal_dir`, appending its output to `log`. `LT_*` variables of the
    /// benchmark's environment are not passed on, so the daemon runs with
    /// its defaults.
    pub fn spawn(bin: &Path, wal_dir: &Path, log: &Path) -> Result<Daemon, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let out = File::options()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("{}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(bin);
        cmd.args([
            "--addr",
            &addr,
            "--workers",
            &WORKERS.to_string(),
            "--wal-dir",
        ])
        .arg(wal_dir)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("LT_") {
                cmd.env_remove(key);
            }
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Daemon { child, addr })
    }

    /// Polls `GET /healthz` until it answers 200.
    pub fn wait_ready(&mut self, timeout: Duration) -> Result<(), String> {
        let start = Instant::now();
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if matches!(Client::new(&self.addr).get("/healthz"), Ok(r) if r.status == 200) {
                return Ok(());
            }
            if start.elapsed() > timeout {
                return Err(format!("daemon not ready after {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set size (`VmHWM`) of the daemon, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&PathBuf::from(format!("/proc/{}/status", self.child.id())))
    }

    /// `kill -9` and reap.
    pub fn kill9(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// Starts a daemon with a fresh write-ahead log in `wal` and runs one
/// warm-up session per benchmark in `benches`, which pays the first
/// compression solve of each.
pub fn setup(bin: &Path, wal: &Path, log: &Path, benches: &[&str]) -> Result<Daemon, String> {
    std::fs::remove_dir_all(wal).ok();
    std::fs::create_dir_all(wal).map_err(|e| format!("{}: {e}", wal.display()))?;
    let mut daemon = Daemon::spawn(bin, wal, log)?;
    daemon.wait_ready(Duration::from_secs(60))?;
    let mut client = Client::new(&daemon.addr);
    for bench in benches {
        let body = format!("{{\"benchmark\": \"{bench}\", \"seed\": 1}}");
        let id = submit(&mut client, &body)?;
        wait_for(&mut client, id, is_done)?;
    }
    Ok(daemon)
}

/// `POST /sessions`; the id of the accepted session.
pub fn submit(client: &mut Client, body: &str) -> Result<u64, String> {
    let r = client.post("/sessions", body)?;
    if r.status != 202 {
        return Err(format!("POST /sessions answered {}", r.status));
    }
    r.json()?
        .get("id")
        .and_then(Value::as_i64)
        .map(|id| id as u64)
        .ok_or_else(|| "POST /sessions: no id".to_string())
}

/// Whether a status document says `done`.
pub fn is_done(status: &Value) -> bool {
    status.get("state").and_then(Value::as_str) == Some("done")
}

/// Long-polls `GET /sessions/<id>` until `until` holds for its status; also
/// returns when the session was first seen out of `queued`.
pub fn wait_for(
    client: &mut Client,
    id: u64,
    until: impl Fn(&Value) -> bool,
) -> Result<(Value, Option<Instant>), String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut started = None;
    loop {
        let doc = client
            .get(&format!("/sessions/{id}?wait_ms=10000"))?
            .json()?;
        let state = doc.get("state").and_then(Value::as_str).unwrap_or("");
        if state != "queued" && started.is_none() {
            started = Some(Instant::now());
        }
        if until(&doc) {
            return Ok((doc, started));
        }
        if matches!(state, "failed" | "cancelled") || Instant::now() > deadline {
            return Err(format!("session {id} is {state}"));
        }
    }
}

/// `GET /metrics`: the document, its size and the call's latency in ms.
pub fn scrape(client: &mut Client) -> Result<(Value, usize, f64), String> {
    let start = Instant::now();
    let r = client.get("/metrics")?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if r.status != 200 {
        return Err(format!("GET /metrics answered {}", r.status));
    }
    Ok((r.json()?, r.body.len(), ms))
}

/// Counter `name` of a `/metrics` document (0 if absent).
pub fn metric(doc: &Value, name: &str) -> f64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Copies the daemon's counts over a measured window, from the `/metrics`
/// documents before (`base`) and after (`end`) it: per-session counts over
/// `sessions`, hit ratios, and the span events recorded.
pub fn report_counters(report: &mut Report, base: &Value, end: &Value, sessions: f64) {
    let delta = |name: &str| metric(end, name) - metric(base, name);
    for name in [
        "ilp.nodes",
        "ilp.bound_prunes",
        "planner.ccp_pairs",
        "llm.prompt_tokens",
        "llm.completion_tokens",
        "eval.interrupts",
        "dbms.index_builds",
    ] {
        report.set(name, delta(name) / sessions);
    }
    let ratio = |hit: &str, miss: &str| {
        let (h, m) = (delta(hit), delta(miss));
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    };
    report.set(
        "dbms.plan_cache.hit_ratio",
        ratio("dbms.plan_cache.hit", "dbms.plan_cache.miss"),
    );
    report.set(
        "compress.memo_hit_ratio",
        ratio("compress.memo_hit", "compress.memo_miss"),
    );
    report.set(
        "fleet.hit_ratio",
        ratio("fleet.tune_hit", "fleet.tune_miss"),
    );
    report.set(
        "obs.span_events",
        end.get("spans_recorded")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    );
}

/// The config document minus its session id, serialized: byte-comparable
/// across sessions that should share a winner.
pub fn winner_bytes(config: &Value) -> String {
    match config {
        Value::Object(fields) => {
            Value::Object(fields.iter().filter(|(k, _)| k != "id").cloned().collect())
                .to_string_pretty()
        }
        other => other.to_string_pretty(),
    }
}

/// `default_time_s / best_time_s` of a config document.
pub fn speedup(config: &Value) -> Option<f64> {
    let best = config.get("best_time_s")?.as_f64()?;
    let default = config.get("default_time_s")?.as_f64()?;
    (best > 0.0).then(|| default / best)
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(status).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
