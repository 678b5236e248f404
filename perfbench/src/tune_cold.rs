//! `tune-cold`: a closed loop with one caller tuning a seeded sequence of
//! distinct synthesized workloads through `LambdaTune::tune` in-process.
//! Distinct workloads miss the compression memo, so the ILP does almost all
//! the work; no serving layer runs.

use crate::gen;
use crate::replay::{self, Layers};
use crate::report::{Digest, Report};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::Args;
use lambda_tune::{LambdaTune, LambdaTuneOptions};
use lt_common::obs;
use lt_dbms::{Dbms, Hardware, SimDb};
use lt_llm::{LlmClient, SimulatedLlm};
use lt_synth::Synthesizer;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Inputs synthesized during set-up; later ones are synthesized in the loop,
/// outside the timed call.
const PREPARED: usize = 64;
/// Sessions (the first of the sequence) whose winners form the digest, so
/// it does not depend on how many sessions a run completes.
pub const DIGESTED: usize = 16;

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    // Set-up: the synthesis engines (catalogs and join graphs of both
    // benchmarks) and the first PREPARED inputs of the sequence, built
    // afresh each time.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let engines = gen::COLD_SHAPES.map(|(benchmark, _, _)| Synthesizer::new(benchmark));
        let inputs = (0..PREPARED)
            .map(|i| engines[i % engines.len()].synthesize(&gen::cold_spec(args.seed, i)))
            .collect::<lt_common::Result<Vec<_>>>()
            .map_err(|e| format!("synthesis failed: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some((engines, inputs));
    }
    let (engines, inputs) = prepared.expect("at least one set-up");
    let mut inputs = inputs.into_iter();
    report.set("setup_s", stats::median(&setups).unwrap_or(f64::NAN));

    let (span_cost, obs_cost) = if args.trace {
        (trace::span_cost_ms(), replay::obs_span_cost_ms())
    } else {
        (0.0, 0.0)
    };

    let mut latencies = Vec::new();
    let mut speedups = Vec::new();
    let mut seen = HashSet::new();
    let mut digest = Digest::default();
    let mut layers = Layers::default();
    let window = Instant::now();
    let mut i = 0usize;
    while window.elapsed().as_secs_f64() < args.seconds {
        let sid = i as u64 + 1;
        let root = tracer.reserve();
        let session_start = Instant::now();
        let spec = gen::cold_spec(args.seed, i);
        i += 1;
        let (synthesis, _) =
            tracer.time("synth.generate", sid, Some(root), || match inputs.next() {
                Some(prepared) => Ok(prepared),
                None => engines[(i - 1) % engines.len()].synthesize(&spec),
            });
        let synthesis = match synthesis {
            Ok(s) => s,
            Err(e) => {
                report.attempt(false);
                report.check(false, || format!("synthesis of {} failed: {e}", spec.name));
                continue;
            }
        };
        let workload = synthesis.workload;
        let mut text = Digest::default();
        for q in &workload.queries {
            text.add(q.sql.as_bytes());
        }
        report.check(seen.insert(text.hex()), || {
            format!("{} repeats an earlier workload of this run", spec.name)
        });
        if args.trace {
            let (_, ms) = tracer.time("sql.parse", sid, Some(root), || {
                for q in &workload.queries {
                    lt_sql::parse_query(&q.sql).ok();
                }
            });
            layers.add("sql.parse_ms", ms);
            obs::set_enabled(true);
            obs::reset();
        }

        let db_seed = crate::rng::derive(spec.seed, 1);
        let options = LambdaTuneOptions {
            seed: crate::rng::derive(spec.seed, 2),
            ..LambdaTuneOptions::default()
        };
        let tune_start = Instant::now();
        let mut db = SimDb::new(
            Dbms::Postgres,
            workload.catalog.clone(),
            Hardware::p3_2xlarge(),
            db_seed,
        );
        let llm = LlmClient::new(SimulatedLlm::new());
        let result = LambdaTune::new(options).tune(&mut db, &workload, &llm);
        let tune_end = Instant::now();
        tracer.record_with_id(
            None,
            "lambda_tune.tune",
            sid,
            Some(root),
            tune_start,
            tune_end,
        );
        let tune_ms = (tune_end - tune_start).as_secs_f64() * 1e3;

        let result = match result {
            Ok(r) => r,
            Err(e) => {
                report.attempt(false);
                report.check(false, || format!("{}: tune failed: {e}", spec.name));
                continue;
            }
        };
        let Some(best) = &result.best_config else {
            report.attempt(false);
            report.check(false, || format!("{}: no winner", spec.name));
            continue;
        };
        report.attempt(true);
        latencies.push(tune_ms);
        if i <= DIGESTED {
            let script = best.to_script(Dbms::Postgres, &workload.catalog);
            digest.add(script.as_bytes());
            digest.add(&result.best_time.as_f64().to_le_bytes());
        }

        if args.trace {
            let snap = obs::snapshot();
            obs::reset();
            obs::set_enabled(false);
            let compress = replay::phase_ms(&snap, "tune.compress");
            let prompt = replay::phase_ms(&snap, "tune.prompt_build");
            let sample = replay::phase_ms(&snap, "tune.llm_sample");
            let select = replay::phase_ms(&snap, "tune.select");
            layers.add("compress.solve_ms", compress);
            layers.add("snippets.extract_ms", prompt - compress);
            layers.add("llm.sample_ms", sample);
            layers.add("select.ms", select);
            layers.add(
                "session.unattributed_ms",
                tune_ms - prompt - sample - select,
            );
            layers.add("eval.configs", result.configs.len() as f64);
            layers.add_counters(&snap);
        }
        // Quality guard, outside the timed call: the same workload under
        // the default configuration on a fresh database.
        let (default, ms) = tracer.time("dbms.default_measure", sid, Some(root), || {
            replay::default_time(&workload.catalog, &workload, db_seed)
        });
        layers.add("dbms.explain_ms", ms);
        speedups.push(default.as_f64() / result.best_time.as_f64());
        tracer.record_with_id(
            Some(root),
            "session",
            sid,
            None,
            session_start,
            Instant::now(),
        );
    }
    let elapsed = window.elapsed().as_secs_f64();

    let n = latencies.len();
    report.latency("session_p50_ms", "session_tail_ms", &latencies, "sessions");
    report.set("sessions_per_s", n as f64 / elapsed);
    report.set(
        "tuned_speedup",
        stats::geomean(&speedups).unwrap_or(f64::NAN),
    );
    report.set(
        "peak_rss_mb",
        crate::daemon::vm_hwm_mb(Path::new("/proc/self/status")).unwrap_or(f64::NAN),
    );
    report.note("sessions", n as u64);
    report.note("window_s", elapsed);
    report.note(&format!("winners_digest_first_{DIGESTED}"), digest.hex());

    let per = |v: f64| if n == 0 { 0.0 } else { v / n as f64 };
    for name in [
        "snippets.extract_ms",
        "dbms.explain_ms",
        "planner.ccp_pairs",
        "compress.solve_ms",
        "ilp.nodes",
        "ilp.bound_prunes",
        "llm.sample_ms",
        "llm.prompt_tokens",
        "llm.completion_tokens",
        "select.ms",
        "eval.configs",
        "eval.interrupts",
        "dbms.index_builds",
        "sql.parse_ms",
        "session.unattributed_ms",
    ] {
        report.set(name, per(layers.sum(name)));
    }
    report.set(
        "dbms.plan_cache.hit_ratio",
        layers.ratio("plan_cache.hit", "plan_cache.miss"),
    );
    report.set(
        "compress.memo_hit_ratio",
        layers.ratio("memo.hit", "memo.miss"),
    );
    let overhead_ms = tracer.len() as f64 * span_cost + layers.sum("obs.events") * obs_cost;
    report.set("trace.overhead_pct", 100.0 * overhead_ms / (elapsed * 1e3));
    // Layers this workload does not run.
    for name in [
        "feed_p50_ms",
        "feed_tail_ms",
        "feed_queries_per_s",
        "retune_p50_ms",
        "scrape_p50_ms",
        "recovery_s",
        "workloads.load_ms",
        "http.submit_ms",
        "http.status_ms",
        "http.config_ms",
        "scrape.bytes",
        "pool.queue_wait_ms",
        "pool.service_ms",
        "wal.append_sync_ms",
        "wal.bytes_per_session",
        "wal.records_per_batch",
        "drift.observe_ms",
        "drift.alarms",
        "delta.prompt_tokens",
        "fleet.hit_ratio",
        "obs.span_events",
        "loadgen.lag_p99_ms",
    ] {
        report.set(name, 0.0);
    }
    Ok(())
}
