//! `feed-drift`: a closed loop of two feeders. Each feeder starts a TPC-H
//! session with `auto_retune` on, waits for its winner, then posts its
//! seeded phased stream in fixed-size batches of literal SQL; the stream
//! shifts at its midpoint, so the drift monitor alarms and the session
//! re-tunes warm (the previous prompt is reused, so no ILP runs). The run
//! ends with a `kill -9` and a restart on the same write-ahead log.

use crate::client::Client;
use crate::daemon::{self, is_done, metric, scrape, speedup, submit, wait_for, winner_bytes};
use crate::gen;
use crate::replay::{self, Layers};
use crate::report::{Digest, Report};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::tune_cold::DIGESTED;
use crate::Args;
use lt_common::json::Value;
use lt_workloads::Benchmark;
use std::time::{Duration, Instant};

/// Feeder threads, one connection each.
pub const FEEDERS: usize = 2;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Streams whose feed path a traced run replays in-process.
const FEED_REPLAYS: usize = 3;

/// What one feeder measured.
#[derive(Default)]
struct Tally {
    sessions_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    feeds_ms: Vec<f64>,
    retunes_ms: Vec<f64>,
    scrapes: Vec<(f64, usize)>,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    config_ms: Vec<f64>,
    speedups: Vec<f64>,
    queries: u64,
    batches: u64,
    alarms: u64,
    delta_tokens: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `(stream index, session id, final config)` of every acked session.
    sessions: Vec<(usize, u64, Value)>,
    /// `(stream index, session seed, initial winner script, batches fed up to
    /// and including the alarm)`.
    replays: Vec<(usize, u64, String, usize)>,
}

/// JSON string literal of `s`.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn retunes(doc: &Value) -> i64 {
    doc.get("drift")
        .and_then(|d| d.get("retunes"))
        .and_then(Value::as_i64)
        .unwrap_or(-1)
}

/// One feeder's closed loop until the window closes.
fn feeder(
    f: usize,
    args: &Args,
    addr: &str,
    window: Instant,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut client = Client::new(addr);
    let mut next_scrape = 0.0;
    let mut k = f;
    while window.elapsed().as_secs_f64() < args.seconds {
        let stream = gen::feed_stream(args.seed, k).map_err(|e| format!("stream {k}: {e}"))?;
        let sid = k as u64 + 1;
        let root = tracer.reserve();
        let t_submit = Instant::now();
        let body = format!(
            "{{\"benchmark\": \"tpch\", \"seed\": {}, \"auto_retune\": true}}",
            stream.session_seed
        );
        let (id, ms) = tracer.time("http.submit", sid, Some(root), || {
            submit(&mut client, &body)
        });
        tally.submit_ms.push(ms);
        tally.attempted += 1;
        let id = match id {
            Ok(id) => id,
            Err(e) => {
                tally.failed += 1;
                tally.problems.push(format!("stream {k}: {e}"));
                k += FEEDERS;
                continue;
            }
        };
        let (_, started) = wait_for(&mut client, id, is_done)?;
        let t_done = Instant::now();
        let started = started.unwrap_or(t_done);
        tally
            .sessions_ms
            .push((t_done - t_submit).as_secs_f64() * 1e3);
        tally
            .queue_ms
            .push((started - t_submit).as_secs_f64() * 1e3);
        tally
            .service_ms
            .push((t_done - started).as_secs_f64() * 1e3);
        let (config, ms) = tracer.time("http.config", sid, Some(root), || {
            client.get(&format!("/sessions/{id}/config"))
        });
        tally.config_ms.push(ms);
        let config = config?.json()?;
        if let Some(s) = speedup(&config) {
            tally.speedups.push(s);
        }
        let script = config
            .get("script")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();

        let mut alarm_batch = None;
        for (b, batch) in stream.batches.iter().enumerate() {
            let now = window.elapsed().as_secs_f64();
            if f == 0 && now >= next_scrape && now < args.seconds {
                let (_, bytes, ms) = scrape(&mut client)?;
                tally.scrapes.push((ms, bytes));
                next_scrape += 1.0;
            }
            let queries: Vec<String> = batch.iter().map(|q| json_str(q)).collect();
            let body = format!("{{\"queries\": [{}]}}", queries.join(", "));
            let (r, ms) = tracer.time("http.feed", sid, Some(root), || {
                client.post(&format!("/sessions/{id}/queries"), &body)
            });
            let t_ack = Instant::now();
            tally.attempted += 1;
            let r = match r {
                Ok(r) if r.status == 200 => r,
                Ok(r) => {
                    tally.failed += 1;
                    tally.problems.push(format!(
                        "stream {k} batch {b}: answered {}: {}",
                        r.status,
                        String::from_utf8_lossy(&r.body)
                    ));
                    break;
                }
                Err(e) => {
                    tally.failed += 1;
                    tally.problems.push(format!("stream {k} batch {b}: {e}"));
                    break;
                }
            };
            tally.feeds_ms.push(ms);
            tally.queries += batch.len() as u64;
            tally.batches += 1;
            let ack = r.json()?;
            let events = ack
                .get("events")
                .and_then(Value::as_array)
                .map_or(0, <[Value]>::len);
            if events == 0 {
                continue;
            }
            tally.alarms += events as u64;
            if b < stream.shift_batch {
                tally
                    .problems
                    .push(format!("stream {k}: alarm in batch {b}, before the shift"));
            }
            if alarm_batch.is_some() {
                tally
                    .problems
                    .push(format!("stream {k}: second alarm in batch {b}"));
            }
            alarm_batch.get_or_insert(b);
            if ack.get("retune").and_then(Value::as_bool) != Some(true) {
                tally
                    .problems
                    .push(format!("stream {k}: alarm without a re-tune"));
                continue;
            }
            let (status, _) = wait_for(&mut client, id, |d| is_done(d) && retunes(d) >= 1)?;
            let t_seen = Instant::now();
            tracer.record_with_id(None, "retune", sid, Some(root), t_ack, t_seen);
            tally.retunes_ms.push((t_seen - t_ack).as_secs_f64() * 1e3);
            if let Some(t) = status.get("workload_tokens").and_then(Value::as_f64) {
                tally.delta_tokens.push(t);
            }
        }
        let (status, ms) = tracer.time("http.status", sid, Some(root), || {
            client.get(&format!("/sessions/{id}"))
        });
        tally.status_ms.push(ms);
        let status = status?.json()?;
        if retunes(&status) != 1 || alarm_batch.is_none() {
            tally.problems.push(format!(
                "stream {k}: {} re-tunes (alarm batch {alarm_batch:?}), expected exactly one",
                retunes(&status)
            ));
        }
        let final_config = client.get(&format!("/sessions/{id}/config"))?.json()?;
        tally.sessions.push((k, id, final_config));
        if let Some(b) = alarm_batch {
            tally.replays.push((k, stream.session_seed, script, b + 1));
        }
        tracer.record_with_id(Some(root), "stream", sid, None, t_submit, Instant::now());
        k += FEEDERS;
    }
    Ok(())
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let dir = args
        .work_dir
        .join(format!("feed-drift-{}", std::process::id()));
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
            &["tpch"],
        )?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut daemon = daemon.expect("at least one set-up");
    let wal_dir = dir.join(format!("wal{}", SETUPS - 1));
    let wal_file = wal_dir.join("sessions.wal");
    report.set("setup_s", stats::median(&setups).unwrap_or(f64::NAN));
    let (base, _, _) = scrape(&mut Client::new(&daemon.addr))?;
    let wal_base = std::fs::metadata(&wal_file).map(|m| m.len()).unwrap_or(0);
    let span_cost = if args.trace {
        trace::span_cost_ms()
    } else {
        0.0
    };

    let window = Instant::now();
    let mut tallies: Vec<Tally> = (0..FEEDERS).map(|_| Tally::default()).collect();
    let addr = daemon.addr.clone();
    let outcomes: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tallies
            .iter_mut()
            .enumerate()
            .map(|(f, tally)| {
                let addr = &addr;
                scope.spawn(move || feeder(f, args, addr, window, tracer, tally))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("feeder panicked".into())))
            .collect()
    });
    let elapsed = window.elapsed().as_secs_f64();
    for outcome in outcomes {
        outcome?;
    }
    let mut t = Tally::default();
    for part in tallies {
        macro_rules! merge {
            ($($field:ident),*) => { $( t.$field.extend(part.$field); )* };
        }
        merge!(
            sessions_ms,
            queue_ms,
            service_ms,
            feeds_ms,
            retunes_ms,
            scrapes,
            submit_ms,
            status_ms,
            config_ms,
            speedups,
            delta_tokens,
            problems,
            sessions,
            replays
        );
        t.queries += part.queries;
        t.batches += part.batches;
        t.alarms += part.alarms;
        t.attempted += part.attempted;
        t.failed += part.failed;
    }
    let (end_doc, bytes, ms) = scrape(&mut Client::new(&daemon.addr))?;
    t.scrapes.push((ms, bytes));
    report.set("peak_rss_mb", daemon.peak_rss_mb().unwrap_or(f64::NAN));
    let wal_bytes = std::fs::metadata(&wal_file).map(|m| m.len()).unwrap_or(0) - wal_base;

    // ---- crash and recovery ----
    t.sessions.sort_by_key(|s| s.0);
    let kill = Instant::now();
    daemon.kill9();
    drop(daemon);
    let mut restarted = daemon::Daemon::spawn(&args.daemon, &wal_dir, &log)?;
    restarted.wait_ready(Duration::from_secs(120))?;
    let mut client = Client::new(&restarted.addr);
    let mut digest = Digest::default();
    for (k, id, before) in &t.sessions {
        let want = winner_bytes(before);
        if *k < DIGESTED {
            digest.add(want.as_bytes());
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let ok = loop {
            let r = client.get(&format!("/sessions/{id}/config"))?;
            if r.status == 200 && winner_bytes(&r.json()?) == want {
                break true;
            }
            if Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        t.attempted += 1;
        if !ok {
            t.failed += 1;
            t.problems.push(format!(
                "stream {k}: session {id} not restored byte-identically"
            ));
        }
    }
    let recovery_s = kill.elapsed().as_secs_f64();
    drop(restarted);

    // ---- checks and end-to-end metrics ----
    report.attempted += t.attempted;
    report.failed += t.failed;
    for p in &t.problems {
        report.check(false, || p.clone());
    }
    report.latency(
        "session_p50_ms",
        "session_tail_ms",
        &t.sessions_ms,
        "sessions",
    );
    report.set("sessions_per_s", t.sessions_ms.len() as f64 / elapsed);
    report.set(
        "tuned_speedup",
        stats::geomean(&t.speedups).unwrap_or(f64::NAN),
    );
    report.latency("feed_p50_ms", "feed_tail_ms", &t.feeds_ms, "batches");
    report.set("feed_queries_per_s", t.queries as f64 / elapsed);
    report.set(
        "retune_p50_ms",
        stats::median(&t.retunes_ms).unwrap_or(f64::NAN),
    );
    let scrape_ms: Vec<f64> = t.scrapes.iter().map(|s| s.0).collect();
    report.set(
        "scrape_p50_ms",
        stats::median(&scrape_ms).unwrap_or(f64::NAN),
    );
    report.set("recovery_s", recovery_s);
    report.note("sessions", t.sessions_ms.len() as u64);
    report.note("batches", t.batches);
    report.note("batch_size", gen::BATCH as u64);
    report.note("feeders", FEEDERS as u64);
    report.note("window_s", elapsed);
    report.note(&format!("winners_digest_first_{DIGESTED}"), digest.hex());

    // ---- per-layer metrics ----
    let n = t.sessions_ms.len().max(1) as f64;
    report.set("http.submit_ms", stats::mean(&t.submit_ms));
    report.set("http.status_ms", stats::mean(&t.status_ms));
    report.set("http.config_ms", stats::mean(&t.config_ms));
    report.set(
        "scrape.bytes",
        stats::mean(&t.scrapes.iter().map(|s| s.1 as f64).collect::<Vec<_>>()),
    );
    report.set("pool.queue_wait_ms", stats::mean(&t.queue_ms));
    report.set("pool.service_ms", stats::mean(&t.service_ms));
    report.set("drift.alarms", t.alarms as f64 / n);
    report.set("delta.prompt_tokens", stats::mean(&t.delta_tokens));
    daemon::report_counters(report, &base, &end_doc, n);
    let records = metric(&end_doc, "wal.records_appended") - metric(&base, "wal.records_appended");
    report.set("wal.records_per_batch", records / (t.batches as f64 + n));
    report.set("wal.bytes_per_session", wal_bytes as f64 / n);
    report.set("loadgen.lag_p99_ms", 0.0);

    let mut layers = Layers::default();
    let mut sessions = Layers::default();
    if args.trace {
        report.set(
            "wal.append_sync_ms",
            replay::wal_append_sync_ms(&dir, (wal_bytes as f64 / records.max(1.0)) as usize, 50)?,
        );
        replay::replay_session(
            Benchmark::TpchSf1,
            1,
            &Tracer::new(false),
            0,
            &mut Layers::default(),
        )?;
        let mut unattributed = Vec::new();
        t.replays.sort_by_key(|r| r.0);
        for (k, seed, script, upto) in t.replays.iter().take(FEED_REPLAYS) {
            let sid = *k as u64 + 1;
            let ms = replay::replay_session(Benchmark::TpchSf1, *seed, tracer, sid, &mut sessions)?;
            // The long-poll answer for `tuning` arrives after the session is
            // done, so queue and service cannot be told apart from the
            // client here: the remainder is taken over the whole session.
            unattributed.push(stats::mean(&t.sessions_ms) - ms);
            let stream = gen::feed_stream(args.seed, *k).map_err(|e| e.to_string())?;
            replay::replay_feed(
                *seed,
                script,
                &stream.batches[..*upto],
                tracer,
                sid,
                &mut layers,
            )?;
        }
        report.set("session.unattributed_ms", stats::mean(&unattributed));
    } else {
        report.set("wal.append_sync_ms", 0.0);
        report.set("session.unattributed_ms", 0.0);
    }
    let replays = sessions.sum("replayed_sessions").max(1.0);
    for name in [
        "workloads.load_ms",
        "snippets.extract_ms",
        "compress.solve_ms",
        "llm.sample_ms",
        "select.ms",
        "eval.configs",
    ] {
        report.set(name, sessions.sum(name) / replays);
    }
    let batches = layers.sum("replayed_batches").max(1.0);
    report.set("sql.parse_ms", layers.sum("sql.parse_ms") / batches);
    report.set("dbms.explain_ms", layers.sum("feed.explain_ms") / batches);
    report.set("drift.observe_ms", layers.sum("drift.observe_ms") / batches);
    report.set(
        "trace.overhead_pct",
        100.0 * tracer.len() as f64 * span_cost / (elapsed * 1e3),
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
