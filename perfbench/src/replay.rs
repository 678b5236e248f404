//! In-process replays of the layer calls a session makes, for traced runs.
//!
//! The daemon's service time is split by calling the same public layer
//! functions here, each wrapped in a benchmark span. The program's own
//! `lt_common::obs` recorder is switched on around these calls only to copy
//! its deterministic counts (ILP nodes, ccp pairs, cache hits, tokens).

use crate::trace::Tracer;
use lambda_tune::{
    extract_snippets, Compressor, LambdaTune, LambdaTuneOptions, PromptBuilder, WarmStart,
};
use lt_common::{obs, Secs};
use lt_dbms::{Configuration, Dbms, Hardware, SimDb};
use lt_drift::{DriftConfig, DriftMonitor, Profile, QueryObservation};
use lt_llm::{LanguageModel, LlmClient, SimulatedLlm};
use lt_workloads::{Benchmark, Workload};
use std::path::Path;
use std::time::Instant;

/// Per-layer sums over the replayed or observed units of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    sums: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Adds `value` to layer metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        match self.sums.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 += value,
            None => self.sums.push((name, value)),
        }
    }

    /// Sum of layer metric `name` (0 if never added).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// `numerator / (numerator + other)` over two summed counts; 0 if both
    /// are 0.
    pub fn ratio(&self, numerator: &str, other: &str) -> f64 {
        let (a, b) = (self.sum(numerator), self.sum(other));
        if a + b > 0.0 {
            a / (a + b)
        } else {
            0.0
        }
    }

    /// Copies the program's counters of a finished in-process tune.
    pub fn add_counters(&mut self, snap: &obs::Snapshot) {
        for (name, key) in [
            ("ilp.nodes", "ilp.nodes"),
            ("ilp.bound_prunes", "ilp.bound_prunes"),
            ("planner.ccp_pairs", "planner.ccp_pairs"),
            ("plan_cache.hit", "dbms.plan_cache.hit"),
            ("plan_cache.miss", "dbms.plan_cache.miss"),
            ("memo.hit", "compress.memo_hit"),
            ("memo.miss", "compress.memo_miss"),
            ("llm.prompt_tokens", "llm.prompt_tokens"),
            ("llm.completion_tokens", "llm.completion_tokens"),
            ("eval.interrupts", "eval.interrupts"),
            ("dbms.index_builds", "dbms.index_builds"),
        ] {
            self.add(name, counter(snap, key));
        }
        self.add("obs.events", snap.events.len() as f64);
    }
}

/// Total wall milliseconds of the program spans named `name`.
pub fn phase_ms(snap: &obs::Snapshot, name: &str) -> f64 {
    snap.events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.wall_dur * 1e3)
        .sum()
}

/// Value of program counter `name` (0 if absent).
pub fn counter(snap: &obs::Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Measured cost of one program span with the recorder on, in ms. Leaves
/// the recorder off and empty.
pub fn obs_span_cost_ms() -> f64 {
    const N: usize = 20_000;
    obs::set_enabled(true);
    obs::reset();
    let start = Instant::now();
    for _ in 0..N {
        drop(obs::span("calibrate"));
    }
    let cost = start.elapsed().as_secs_f64() * 1e3 / N as f64;
    obs::reset();
    obs::set_enabled(false);
    cost
}

/// Workload time under the default configuration on a fresh database: a
/// cold planner and execution-model pass over every query (the denominator
/// of `tuned_speedup`).
pub fn default_time(catalog: &lt_dbms::Catalog, workload: &Workload, seed: u64) -> Secs {
    let mut db = SimDb::new(
        Dbms::Postgres,
        catalog.clone(),
        Hardware::p3_2xlarge(),
        seed,
    );
    let mut total = Secs::ZERO;
    for q in &workload.queries {
        total += db.execute(&q.parsed, Secs::INFINITY).time;
    }
    total
}

/// Replays the layer calls of one daemon tuning session, `(benchmark,
/// seed)` with default options, as the daemon's worker makes them on a
/// fleet-cache miss. Returns the replay's wall milliseconds.
pub fn replay_session(
    benchmark: Benchmark,
    seed: u64,
    tracer: &Tracer,
    sid: u64,
    layers: &mut Layers,
) -> Result<f64, String> {
    let start = Instant::now();
    let root = tracer.reserve();
    let parent = Some(root);
    obs::set_enabled(true);
    obs::reset();
    let (workload, ms) = tracer.time("workloads.load", sid, parent, || benchmark.load());
    layers.add("workloads.load_ms", ms);
    let (_, ms) = tracer.time("dbms.default_measure", sid, parent, || {
        default_time(&workload.catalog, &workload, seed)
    });
    layers.add("dbms.explain_ms", ms);
    let mut db = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        seed,
    );
    let llm = LlmClient::new(SimulatedLlm::new());
    let (snippets, ms) = tracer.time("snippets.extract", sid, parent, || {
        extract_snippets(&db, &workload)
    });
    layers.add("snippets.extract_ms", ms);
    let budget = llm.model().context_window() / 16;
    let (compressed, ms) = tracer.time("compress.solve", sid, parent, || {
        Compressor::new(db.catalog()).compress(&snippets, budget)
    });
    layers.add("compress.solve_ms", ms);
    let compressed = compressed.map_err(|e| format!("replay compress: {e}"))?;
    let prompt = PromptBuilder::new(db.dbms(), db.hardware()).build(&compressed);
    let options = LambdaTuneOptions {
        seed,
        ..LambdaTuneOptions::default()
    };
    let (result, _) = tracer.time("tune.sample_select", sid, parent, || {
        LambdaTune::new(options)
            .with_warm_start(WarmStart {
                prompt: Some(prompt),
                seed_scripts: Vec::new(),
            })
            .tune(&mut db, &workload, &llm)
    });
    let result = result.map_err(|e| format!("replay tune: {e}"))?;
    let snap = obs::snapshot();
    obs::reset();
    obs::set_enabled(false);
    layers.add("llm.sample_ms", phase_ms(&snap, "tune.llm_sample"));
    layers.add("select.ms", phase_ms(&snap, "tune.select"));
    layers.add("eval.configs", result.configs.len() as f64);
    layers.add_counters(&snap);
    let end = Instant::now();
    tracer.record_with_id(Some(root), "replay.session", sid, None, start, end);
    layers.add("replayed_sessions", 1.0);
    Ok((end - start).as_secs_f64() * 1e3)
}

/// Replays the feed path of `batches` on a serving database built like the
/// daemon's (winner applied, drift monitor referenced on TPC-H), batch by
/// batch: parse and catalog validation, planning and execution, drift
/// observation.
pub fn replay_feed(
    session_seed: u64,
    winner_script: &str,
    batches: &[Vec<String>],
    tracer: &Tracer,
    sid: u64,
    layers: &mut Layers,
) -> Result<(), String> {
    let reference_workload = Benchmark::TpchSf1.load();
    let catalog = reference_workload.catalog.clone();
    let mut db = SimDb::new(
        Dbms::Postgres,
        catalog.clone(),
        Hardware::p3_2xlarge(),
        lt_common::derive_seed(session_seed, 500),
    );
    let config = Configuration::parse(winner_script, Dbms::Postgres, db.catalog());
    db.apply_knobs(&config);
    for spec in config.index_specs() {
        db.create_index(spec);
    }
    let reference = Profile::from_workload(db.catalog(), &reference_workload);
    let mut monitor = DriftMonitor::with_reference(DriftConfig::default(), reference);
    for (b, batch) in batches.iter().enumerate() {
        let start = Instant::now();
        let labels: Vec<String> = (0..batch.len()).map(|i| format!("f{b}_{i}")).collect();
        let pairs: Vec<(&str, String)> = labels
            .iter()
            .zip(batch)
            .map(|(l, s)| (l.as_str(), s.clone()))
            .collect();
        let (workload, parse_ms) = tracer.time("sql.parse", sid, None, || {
            let w = Workload::from_sql("feed", catalog.clone(), &pairs)?;
            for q in &w.queries {
                for table in &lt_sql::analysis::analyze(&q.parsed).tables {
                    if w.catalog.table_by_name(table).is_none() {
                        return Err(lt_common::LtError::Parse(format!("unknown table {table}")));
                    }
                }
            }
            Ok(w)
        });
        let workload = workload.map_err(|e| format!("replay parse: {e}"))?;
        let (mut exec_ms, mut drift_ms) = (0.0, 0.0);
        for q in &workload.queries {
            let t0 = Instant::now();
            let outcome = db.execute(&q.parsed, Secs::INFINITY);
            let preds = db.predicates(&q.parsed);
            let window = db.take_cache_window();
            let t1 = Instant::now();
            let hit = window.plan_hits + window.plan_misses > 0 && window.plan_misses == 0;
            let observation = QueryObservation::new(
                db.catalog(),
                &preds,
                lt_dbms::db::query_tag(&q.parsed),
                outcome.time,
                Some(hit),
            );
            if monitor.observe(&observation).is_some() {
                layers.add("replay.alarms", 1.0);
            }
            let t2 = Instant::now();
            exec_ms += (t1 - t0).as_secs_f64() * 1e3;
            drift_ms += (t2 - t1).as_secs_f64() * 1e3;
        }
        let end = Instant::now();
        tracer.record_with_id(None, "replay.feed_batch", sid, None, start, end);
        layers.add("sql.parse_ms", parse_ms);
        layers.add("feed.explain_ms", exec_ms);
        layers.add("drift.observe_ms", drift_ms);
        layers.add("replayed_batches", 1.0);
    }
    Ok(())
}

/// Mean milliseconds of a framed append + fsync of `bytes`-sized records,
/// measured `n` times on a log in `dir` (the daemon's acknowledgement-point
/// write).
pub fn wal_append_sync_ms(dir: &Path, bytes: usize, n: usize) -> Result<f64, String> {
    let path = dir.join("replay.wal");
    std::fs::remove_file(&path).ok();
    let mut log = lt_common::wal::LogWriter::open(&path, lt_common::wal::WalOptions::default())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let payload = vec![b'x'; bytes.max(1)];
    let start = Instant::now();
    for _ in 0..n {
        log.append_sync(&payload).map_err(|e| e.to_string())?;
    }
    let ms = start.elapsed().as_secs_f64() * 1e3 / n as f64;
    std::fs::remove_file(&path).ok();
    Ok(ms)
}
