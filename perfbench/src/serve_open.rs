//! `serve-open`: an open loop of seeded Poisson arrivals against the real
//! `lt-serve` daemon, which keeps a write-ahead log on local disk.
//!
//! One thread sends `POST /sessions` on its own connection at each due time;
//! the main thread polls `GET /sessions` on the second connection and
//! scrapes `/metrics` once a second; winners are fetched once the run has
//! drained.
//! After set-up the compression memo is warm, so the time goes to HTTP
//! admission, queue wait, workload loading, planning and execution,
//! selection, WAL fsync and status encoding.

use crate::client::Client;
use crate::daemon::{self, metric, scrape, speedup, submit, winner_bytes};
use crate::gen::{self, Arrival};
use crate::replay::{self, Layers};
use crate::report::{Digest, Report};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::Args;
use lt_common::json::Value;
use lt_workloads::Benchmark;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Arrival rate, sessions per second: below the capacity of the daemon's two
/// workers on a 2-core machine.
pub const RATE: f64 = 4.0;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Interval between two status polls of the outstanding sessions.
const POLL: Duration = Duration::from_millis(5);
/// Sessions replayed in-process by a traced run, per benchmark.
const REPLAYS_PER_BENCHMARK: usize = 3;

/// What the sender tells the watcher about one request.
enum Sent {
    /// Acknowledged with 202.
    Accepted { k: usize, id: u64, acked: f64 },
    /// Refused or failed.
    Refused { k: usize, why: String },
}

/// One session the watcher is waiting on.
struct Outstanding {
    k: usize,
    id: u64,
    acked: f64,
    started: Option<f64>,
}

/// A session's observed outcome.
struct Done {
    id: u64,
    latency_ms: f64,
    queue_ms: f64,
    service_ms: f64,
    /// `GET /sessions/<id>/config`, fetched once the run has drained.
    config: Value,
}

fn body(a: &Arrival) -> String {
    let bench = match a.benchmark {
        Benchmark::Job => "job",
        _ => "tpch",
    };
    format!("{{\"benchmark\": \"{bench}\", \"seed\": {}}}", a.seed)
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let dir = args
        .work_dir
        .join(format!("serve-open-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let log = dir.join("daemon.log");
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS {
        drop(daemon.take());
        let start = Instant::now();
        daemon = Some(daemon::setup(
            &args.daemon,
            &dir.join(format!("wal{k}")),
            &log,
            &["tpch", "job"],
        )?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one set-up");
    let wal_file = dir.join(format!("wal{}", SETUPS - 1)).join("sessions.wal");
    report.set("setup_s", stats::median(&setups).unwrap_or(f64::NAN));

    let schedule = gen::poisson_schedule(args.seed, RATE, args.seconds);
    let arrivals = gen::arrivals(args.seed, &schedule);
    let mut watcher = Client::new(&daemon.addr);
    let (base, _, _) = scrape(&mut watcher)?;
    let wal_base = std::fs::metadata(&wal_file).map(|m| m.len()).unwrap_or(0);
    let span_cost = if args.trace {
        trace::span_cost_ms()
    } else {
        0.0
    };

    let (tx, rx) = mpsc::channel::<Sent>();
    let origin = Instant::now() + Duration::from_millis(20);
    let at = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
    let roots: Vec<u64> = arrivals.iter().map(|_| tracer.reserve()).collect();
    let mut lags = Vec::new();
    let mut submit_ms = Vec::new();
    let mut status_ms = Vec::new();
    let mut config_ms = Vec::new();
    let mut scrapes: Vec<(f64, usize)> = Vec::new();
    let mut done: HashMap<usize, Done> = HashMap::new();
    let mut refused: Vec<(usize, String)> = Vec::new();
    let mut backlog: Vec<(f64, usize)> = Vec::new();
    let mut last_done = 0.0f64;

    std::thread::scope(|scope| -> Result<(), String> {
        let sender = scope.spawn(|| {
            let mut client = Client::new(&daemon.addr);
            let mut stats = (Vec::new(), Vec::new());
            for (k, a) in arrivals.iter().enumerate() {
                let due = origin + Duration::from_secs_f64(a.due);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = at(Instant::now());
                let (r, ms) = tracer.time("http.submit", k as u64 + 1, Some(roots[k]), || {
                    submit(&mut client, &body(a))
                });
                stats.0.push((sent - a.due) * 1e3);
                stats.1.push(ms);
                let msg = match r {
                    Ok(id) => Sent::Accepted {
                        k,
                        id,
                        acked: at(Instant::now()),
                    },
                    Err(why) => Sent::Refused { k, why },
                };
                if tx.send(msg).is_err() {
                    break;
                }
            }
            drop(tx);
            stats
        });

        let mut outstanding: Vec<Outstanding> = Vec::new();
        let mut sender_done = false;
        let mut next_scrape = 0.0;
        let mut last_sample = -1.0;
        let drain_limit = args.seconds + 30.0;
        loop {
            loop {
                match rx.try_recv() {
                    Ok(Sent::Accepted { k, id, acked }) => outstanding.push(Outstanding {
                        k,
                        id,
                        acked,
                        started: None,
                    }),
                    Ok(Sent::Refused { k, why }) => refused.push((k, why)),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        sender_done = true;
                        break;
                    }
                }
            }
            let now = at(Instant::now());
            if now - last_sample >= 0.1 {
                backlog.push((now, outstanding.len()));
                last_sample = now;
            }
            if now >= next_scrape && now < args.seconds {
                let (_, bytes, ms) = scrape(&mut watcher)?;
                scrapes.push((ms, bytes));
                next_scrape += 1.0;
            }
            // One `GET /sessions` observes every outstanding session.
            let mut states: HashMap<u64, String> = HashMap::new();
            if !outstanding.is_empty() {
                let (r, ms) = tracer.time("http.status", 0, None, || watcher.get("/sessions"));
                status_ms.push(ms);
                let list = r?.json()?;
                for entry in list
                    .get("sessions")
                    .and_then(Value::as_array)
                    .unwrap_or(&[])
                {
                    if let (Some(id), Some(state)) = (
                        entry.get("id").and_then(Value::as_i64),
                        entry.get("state").and_then(Value::as_str),
                    ) {
                        states.insert(id as u64, state.to_string());
                    }
                }
            }
            let seen = at(Instant::now());
            let mut i = 0;
            while i < outstanding.len() {
                let o = &mut outstanding[i];
                let sid = o.k as u64 + 1;
                match states.get(&o.id).map(String::as_str) {
                    Some("queued") => {}
                    Some("tuning") => {
                        o.started.get_or_insert(seen);
                    }
                    Some("done") => {
                        let started = *o.started.get_or_insert(seen);
                        let due = arrivals[o.k].due;
                        done.insert(
                            o.k,
                            Done {
                                id: o.id,
                                latency_ms: stats::open_loop_latency(due, seen) * 1e3,
                                queue_ms: (started - o.acked) * 1e3,
                                service_ms: (seen - started) * 1e3,
                                config: Value::Null,
                            },
                        );
                        tracer.record_with_id(
                            Some(roots[o.k]),
                            "session",
                            sid,
                            None,
                            origin + Duration::from_secs_f64(due),
                            origin + Duration::from_secs_f64(seen),
                        );
                        last_done = last_done.max(seen);
                        outstanding.swap_remove(i);
                        continue;
                    }
                    other => {
                        refused.push((o.k, format!("session {} is {other:?}", o.id)));
                        outstanding.swap_remove(i);
                        continue;
                    }
                }
                i += 1;
            }
            if sender_done && outstanding.is_empty() {
                break;
            }
            if now > drain_limit {
                return Err(format!(
                    "backlog: {} sessions still outstanding {drain_limit:.0} s after the window opened",
                    outstanding.len()
                ));
            }
            std::thread::sleep(POLL);
        }
        let (lag, submits) = sender.join().map_err(|_| "sender panicked".to_string())?;
        lags = lag;
        submit_ms = submits;
        Ok(())
    })?;

    let (last_doc, bytes, ms) = scrape(&mut watcher)?;
    scrapes.push((ms, bytes));
    // Winners are fetched after the run drained, so that these calls do not
    // delay the watcher's observation of other sessions.
    for (k, root) in roots.iter().enumerate() {
        if let Some(d) = done.get_mut(&k) {
            let (r, ms) = tracer.time("http.config", k as u64 + 1, Some(*root), || {
                watcher.get(&format!("/sessions/{}/config", d.id))
            });
            config_ms.push(ms);
            d.config = r?.json()?;
        }
    }

    // ---- output checks ----
    for (k, a) in arrivals.iter().enumerate() {
        let ok = done.contains_key(&k);
        report.attempt(ok);
        if let (Some(j), Some(d)) = (a.repeat_of, done.get(&k)) {
            if let Some(orig) = done.get(&j) {
                report.check(
                    winner_bytes(&orig.config) == winner_bytes(&d.config),
                    || format!("request {k} repeats request {j} but its winner differs"),
                );
            }
        }
    }
    for (k, why) in &refused {
        report.check(false, || format!("request {k}: {why}"));
    }
    // The backlog must not grow: the mean outstanding count over the last
    // third of the schedule may not exceed twice that of the first third
    // (plus the two sessions the workers hold).
    let third = args.seconds / 3.0;
    let mean_in = |lo: f64, hi: f64| {
        let v: Vec<f64> = backlog
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|(_, n)| *n as f64)
            .collect();
        stats::mean(&v)
    };
    let (early, late) = (mean_in(0.0, third), mean_in(2.0 * third, args.seconds));
    report.check(late <= 2.0 * early + 2.0, || {
        format!("backlog grew: mean outstanding {early:.2} early vs {late:.2} late")
    });
    report.note("backlog_mean_early_late", format!("{early:.2} / {late:.2}"));

    // ---- end-to-end metrics ----
    let order: Vec<&Done> = (0..arrivals.len()).filter_map(|k| done.get(&k)).collect();
    let latencies: Vec<f64> = order.iter().map(|d| d.latency_ms).collect();
    let mut digest = Digest::default();
    for d in &order {
        digest.add(winner_bytes(&d.config).as_bytes());
    }
    report.latency("session_p50_ms", "session_tail_ms", &latencies, "sessions");
    report.set("sessions_per_s", order.len() as f64 / last_done.max(1e-9));
    let speedups: Vec<f64> = order.iter().filter_map(|d| speedup(&d.config)).collect();
    report.set(
        "tuned_speedup",
        stats::geomean(&speedups).unwrap_or(f64::NAN),
    );
    report.set("peak_rss_mb", daemon.peak_rss_mb().unwrap_or(f64::NAN));
    let lag_sorted = stats::sorted(&lags);
    report.note("arrivals", arrivals.len() as u64);
    report.note("rate_per_s", RATE);
    report.note(
        "repeats",
        arrivals.iter().filter(|a| a.repeat_of.is_some()).count() as u64,
    );
    report.note(
        "loadgen_lag_p50_ms",
        stats::percentile(&lag_sorted, 50.0).unwrap_or(0.0),
    );
    report.note("winners_digest", digest.hex());

    // ---- per-layer metrics ----
    let n = order.len().max(1) as f64;
    let scrape_ms: Vec<f64> = scrapes.iter().map(|s| s.0).collect();
    report.set(
        "scrape_p50_ms",
        stats::median(&scrape_ms).unwrap_or(f64::NAN),
    );
    report.set(
        "scrape.bytes",
        stats::mean(&scrapes.iter().map(|s| s.1 as f64).collect::<Vec<_>>()),
    );
    report.set(
        "loadgen.lag_p99_ms",
        stats::percentile(&lag_sorted, 99.0).unwrap_or(0.0),
    );
    report.set("http.submit_ms", stats::mean(&submit_ms));
    report.set("http.status_ms", stats::mean(&status_ms));
    report.set("http.config_ms", stats::mean(&config_ms));
    report.set(
        "pool.queue_wait_ms",
        stats::mean(&order.iter().map(|d| d.queue_ms).collect::<Vec<_>>()),
    );
    report.set(
        "pool.service_ms",
        stats::mean(&order.iter().map(|d| d.service_ms).collect::<Vec<_>>()),
    );
    let delta = |name: &str| metric(&last_doc, name) - metric(&base, name);
    daemon::report_counters(report, &base, &last_doc, n);
    report.set("wal.records_per_batch", delta("wal.records_appended") / n);
    let wal_bytes = std::fs::metadata(&wal_file).map(|m| m.len()).unwrap_or(0) - wal_base;
    report.set("wal.bytes_per_session", wal_bytes as f64 / n);
    let window_ms = last_done * 1e3;
    drop(daemon);

    // Traced runs split the daemon's service time by replaying sessions'
    // layer calls here, after the daemon has stopped.
    let mut layers = Layers::default();
    if args.trace {
        let records = delta("wal.records_appended").max(1.0);
        report.set(
            "wal.append_sync_ms",
            replay::wal_append_sync_ms(&dir, (wal_bytes as f64 / records) as usize, 50)?,
        );
        let mut warm = Layers::default();
        for bench in [Benchmark::TpchSf1, Benchmark::Job] {
            replay::replay_session(bench, 1, &Tracer::new(false), 0, &mut warm)?;
        }
        let mut service = Vec::new();
        for bench in [Benchmark::TpchSf1, Benchmark::Job] {
            let picks = arrivals
                .iter()
                .enumerate()
                .filter(|(k, a)| {
                    a.benchmark == bench && a.repeat_of.is_none() && done.contains_key(k)
                })
                .take(REPLAYS_PER_BENCHMARK);
            for (k, a) in picks {
                let ms =
                    replay::replay_session(a.benchmark, a.seed, tracer, k as u64 + 1, &mut layers)?;
                service.push(done[&k].service_ms - ms);
            }
        }
        report.set("session.unattributed_ms", stats::mean(&service));
    } else {
        report.set("wal.append_sync_ms", 0.0);
        report.set("session.unattributed_ms", 0.0);
    }
    let replays = layers.sum("replayed_sessions").max(1.0);
    for name in [
        "workloads.load_ms",
        "snippets.extract_ms",
        "dbms.explain_ms",
        "compress.solve_ms",
        "llm.sample_ms",
        "select.ms",
        "eval.configs",
    ] {
        report.set(name, layers.sum(name) / replays);
    }
    report.set(
        "trace.overhead_pct",
        100.0 * tracer.len() as f64 * span_cost / window_ms.max(1.0),
    );
    for name in [
        "feed_p50_ms",
        "feed_tail_ms",
        "feed_queries_per_s",
        "retune_p50_ms",
        "recovery_s",
        "sql.parse_ms",
        "drift.observe_ms",
        "drift.alarms",
        "delta.prompt_tokens",
    ] {
        report.set(name, 0.0);
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
