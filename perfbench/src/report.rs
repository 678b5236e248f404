//! What one run reports, and the one-line JSON result it ends with.

use lt_common::json::Value;

/// End-to-end metrics: reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("session_p50_ms", "ms"),
    ("session_tail_ms", "ms"),
    ("sessions_per_s", "1/s"),
    ("tuned_speedup", "x"),
    ("peak_rss_mb", "MB"),
];

/// Metrics reported by traced runs: the serving-only end-to-end metrics
/// (0 on a workload that does not exercise them) and one or more metrics
/// per layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("feed_p50_ms", "ms"),
    ("feed_tail_ms", "ms"),
    ("feed_queries_per_s", "1/s"),
    ("retune_p50_ms", "ms"),
    ("scrape_p50_ms", "ms"),
    ("recovery_s", "s"),
    ("failed_share", "ratio"),
    ("workloads.load_ms", "ms"),
    ("snippets.extract_ms", "ms"),
    ("dbms.explain_ms", "ms"),
    ("planner.ccp_pairs", "count"),
    ("dbms.plan_cache.hit_ratio", "ratio"),
    ("compress.solve_ms", "ms"),
    ("ilp.nodes", "count"),
    ("ilp.bound_prunes", "count"),
    ("compress.memo_hit_ratio", "ratio"),
    ("llm.sample_ms", "ms"),
    ("llm.prompt_tokens", "count"),
    ("llm.completion_tokens", "count"),
    ("select.ms", "ms"),
    ("eval.configs", "count"),
    ("eval.interrupts", "count"),
    ("dbms.index_builds", "count"),
    ("http.submit_ms", "ms"),
    ("http.status_ms", "ms"),
    ("http.config_ms", "ms"),
    ("scrape.bytes", "bytes"),
    ("pool.queue_wait_ms", "ms"),
    ("pool.service_ms", "ms"),
    ("session.unattributed_ms", "ms"),
    ("wal.append_sync_ms", "ms"),
    ("wal.bytes_per_session", "bytes"),
    ("wal.records_per_batch", "count"),
    ("sql.parse_ms", "ms"),
    ("drift.observe_ms", "ms"),
    ("drift.alarms", "count"),
    ("delta.prompt_tokens", "count"),
    ("fleet.hit_ratio", "ratio"),
    ("obs.span_events", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (sessions, feed batches, scrapes, restores).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Failed output checks, in the order found.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Evidence printed beside the metrics (sample counts, digests, …).
    pub notes: Vec<(String, Value)>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Records evidence shown beside the metrics.
    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.notes.push((key.to_string(), value.into()));
    }

    /// Counts one attempted operation, failed or not.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Sets `p50` to the median of `samples` and `tail` to their tail (see
    /// [`crate::stats::tail`]), noting its percentile and sample count. Too
    /// few samples for a tail fail the run.
    pub fn latency(&mut self, p50: &'static str, tail: &'static str, samples: &[f64], what: &str) {
        self.set(p50, crate::stats::median(samples).unwrap_or(f64::NAN));
        match crate::stats::tail(samples) {
            Some(t) => {
                self.set(tail, t.value);
                self.note(
                    &format!("{tail} at"),
                    format!("p{:.1} of {} {what}", t.percentile, t.samples),
                );
            }
            None => self.check(false, || {
                format!("{} {what} are too few for a tail", samples.len())
            }),
        }
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// The final result line: `correct`, counts and the requested metric
    /// set. A metric that was not measured, or is not finite, makes the run
    /// incorrect.
    pub fn result_line(&mut self, traced: bool) -> String {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for (name, unit) in set {
            match self.get(name) {
                Some(v) if v.is_finite() => metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    fmt_f64(v)
                )),
                _ => self
                    .problems
                    .push(format!("metric {name} was not measured")),
            }
        }
        if self.failed > 0 {
            self.problems.push(format!(
                "{} of {} operations failed",
                self.failed, self.attempted
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float with all its digits, always with a decimal point.
fn fmt_f64(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Order-sensitive FNV-1a digest of the winners a run produced.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` (and a separator) into the digest.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
