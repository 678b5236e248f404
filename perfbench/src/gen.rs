//! Seeded input generators, one per workload. The same seed always gives
//! the same inputs; the program only ever sees what these produce.

use crate::rng::{derive, Rng};
use lt_synth::{JoinMix, PhaseSpec, PhasedStream, PoolSpec, StreamSpec, WorkloadSpec};
use lt_workloads::Benchmark;

// ---- tune-cold ---------------------------------------------------------------

/// Shape of the `tune-cold` workloads of each catalog: `(benchmark, queries,
/// Zipf skew of the anchor tables)`. Every query is a 2-table join. At this
/// commit these sizes make a session take tens of milliseconds, with JOB
/// and TPC-DS sessions costing about the same, so a run holds hundreds of
/// sessions from one cost distribution and its median and tail are steady.
/// Deeper joins make a solve up to 50× slower and spread session times over
/// two orders of magnitude.
pub const COLD_SHAPES: [(Benchmark, usize, f64); 2] =
    [(Benchmark::Job, 40, 2.0), (Benchmark::TpcdsSf1, 20, 2.0)];

/// The `i`-th spec of the `tune-cold` sequence: the shapes above alternate,
/// and every spec carries a seed of its own, so no two specs of one run
/// synthesize the same workload.
pub fn cold_spec(seed: u64, i: usize) -> WorkloadSpec {
    let (benchmark, queries, skew) = COLD_SHAPES[i % COLD_SHAPES.len()];
    WorkloadSpec {
        name: format!("cold{i}"),
        benchmark,
        queries,
        seed: derive(seed, 1_000 + i as u64) >> 1,
        join_mix: JoinMix::default(),
        depth_min: 2,
        depth_max: 2,
        skew,
        ..WorkloadSpec::default()
    }
}

// ---- serve-open --------------------------------------------------------------

/// Arrival times (seconds from the start of the window) of a Poisson process
/// of `rate` per second over `seconds`, conditioned on its expected count:
/// `round(rate · seconds)` arrivals placed uniformly at random and sorted.
/// Fixing the count keeps the offered load identical across seeds while
/// the gaps stay exponential-like.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut rng = Rng::new(derive(seed, 2_000));
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    due.sort_by(|a, b| a.total_cmp(b));
    due
}

/// One `POST /sessions` of the open loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Seconds after the window opens at which the request is due.
    pub due: f64,
    /// Benchmark of the session.
    pub benchmark: Benchmark,
    /// Session seed.
    pub seed: u64,
    /// Index of the earlier arrival this one repeats, if any.
    pub repeat_of: Option<usize>,
}

/// Every this-many-th open-loop request repeats an earlier (benchmark,
/// seed) pair: a fixed share of 1/4.
pub const REPEAT_EVERY: usize = 4;
/// A repeat only picks a request due at least this long before it, so the
/// original has normally finished and the fleet cache can replay it.
pub const REPEAT_MIN_AGE_S: f64 = 3.0;

/// The `serve-open` request mix over a schedule: fresh sessions alternate
/// between TPC-H and JOB with fresh seeds, and every [`REPEAT_EVERY`]-th
/// request repeats a seeded pick among the earlier fresh pairs (a fresh
/// request when none is old enough). Fixing the proportions keeps the mix
/// the same across seeds; only the seeds and picks change.
pub fn arrivals(seed: u64, schedule: &[f64]) -> Vec<Arrival> {
    let mut rng = Rng::new(derive(seed, 3_000));
    let mut out: Vec<Arrival> = Vec::with_capacity(schedule.len());
    let mut fresh = 0usize;
    for (k, &due) in schedule.iter().enumerate() {
        let eligible: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, a)| a.repeat_of.is_none() && a.due <= due - REPEAT_MIN_AGE_S)
            .map(|(j, _)| j)
            .collect();
        let arrival = if k % REPEAT_EVERY == REPEAT_EVERY - 1 && !eligible.is_empty() {
            let j = eligible[(rng.next_u64() % eligible.len() as u64) as usize];
            Arrival {
                due,
                benchmark: out[j].benchmark,
                seed: out[j].seed,
                repeat_of: Some(j),
            }
        } else {
            fresh += 1;
            Arrival {
                due,
                benchmark: if fresh % 2 == 1 {
                    Benchmark::TpchSf1
                } else {
                    Benchmark::Job
                },
                seed: derive(seed, 10_000 + k as u64) >> 1,
                repeat_of: None,
            }
        };
        out.push(arrival);
    }
    out
}

// ---- feed-drift --------------------------------------------------------------

/// Queries per feed stream.
pub const STREAM_LEN: usize = 512;
/// Queries per `POST /sessions/<id>/queries` batch.
pub const BATCH: usize = 32;

/// Deepest join of the post-shift pool. Stars of four or more tables are
/// left out: at this commit most seeds of such a pool contain a query that
/// sends the daemon's planner into unbounded recursion under a tuned
/// configuration, which aborts the process (see `CHANGES.md`).
pub const SHIFT_DEPTH_MAX: usize = 3;

/// One feeder's input for one session: literal SQL batches of a phased
/// stream that shifts at its midpoint.
#[derive(Debug, Clone)]
pub struct FeedStream {
    /// Seed of the session the stream is fed to.
    pub session_seed: u64,
    /// Fixed-size batches of literal SQL, in order.
    pub batches: Vec<Vec<String>>,
    /// Index of the first batch drawn after the shift.
    pub shift_batch: usize,
}

/// The `k`-th feed stream of a run. Before the midpoint the stream draws
/// the TPC-H queries the session was tuned on; after it, an `lt-synth`
/// workload of tightly filtered 2–3-table stars over the same schema, so the
/// session's drift monitor sees one shift.
pub fn feed_stream(seed: u64, k: usize) -> lt_common::Result<FeedStream> {
    let mut rng = Rng::new(derive(seed, 4_000 + k as u64));
    let shifted = WorkloadSpec {
        name: format!("shift{k}"),
        benchmark: Benchmark::TpchSf1,
        queries: 24,
        seed: rng.next_u64() >> 1,
        join_mix: JoinMix {
            chain: 0.0,
            star: 1.0,
            clique: 0.0,
        },
        depth_min: 2,
        depth_max: SHIFT_DEPTH_MAX,
        skew: 2.0,
        filter_rate: 1.0,
        bucket_min: 0,
        bucket_max: 2,
        ..WorkloadSpec::default()
    };
    let spec = StreamSpec {
        len: STREAM_LEN,
        seed: rng.next_u64(),
        phases: vec![
            PhaseSpec {
                at: 0,
                major: PoolSpec::Bench(Benchmark::TpchSf1),
                minor: None,
            },
            PhaseSpec {
                at: STREAM_LEN / 2,
                major: PoolSpec::Synth(shifted),
                minor: None,
            },
        ],
    };
    let sqls: Vec<String> = PhasedStream::from_spec(&spec)?.map(|q| q.sql).collect();
    Ok(FeedStream {
        session_seed: rng.next_u64() >> 1,
        batches: sqls.chunks(BATCH).map(<[String]>::to_vec).collect(),
        shift_batch: STREAM_LEN / 2 / BATCH,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(schedule: &[f64]) -> Vec<u8> {
        schedule.iter().flat_map(|t| t.to_le_bytes()).collect()
    }

    #[test]
    fn poisson_schedule_is_byte_identical_per_seed() {
        let a = poisson_schedule(7, 3.0, 20.0);
        let b = poisson_schedule(7, 3.0, 20.0);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&poisson_schedule(8, 3.0, 20.0)));
        assert_eq!(a.len(), 60);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|t| (0.0..20.0).contains(t)));
    }

    #[test]
    fn poisson_gaps_look_exponential() {
        // Mean gap ≈ 1/rate and the coefficient of variation ≈ 1.
        let s = poisson_schedule(11, 10.0, 2_000.0);
        let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.1).abs() < 0.005, "mean gap {mean}");
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05);
    }

    #[test]
    fn arrival_mix_repeats_a_fixed_share_of_older_pairs() {
        let schedule = poisson_schedule(3, 3.0, 100.0);
        let mix = arrivals(3, &schedule);
        assert_eq!(mix, arrivals(3, &schedule));
        let repeats: Vec<&Arrival> = mix.iter().filter(|a| a.repeat_of.is_some()).collect();
        let share = repeats.len() as f64 / mix.len() as f64;
        assert!(
            (share - 1.0 / REPEAT_EVERY as f64).abs() < 0.02,
            "repeat share {share}"
        );
        for a in &repeats {
            let orig = &mix[a.repeat_of.unwrap()];
            assert_eq!((orig.benchmark, orig.seed), (a.benchmark, a.seed));
            assert!(orig.due <= a.due - REPEAT_MIN_AGE_S);
        }
        let mut fresh: Vec<(u64, bool)> = mix
            .iter()
            .filter(|a| a.repeat_of.is_none())
            .map(|a| (a.seed, a.benchmark == Benchmark::Job))
            .collect();
        let n = fresh.len();
        let jobs = fresh.iter().filter(|(_, job)| *job).count();
        assert!(jobs == n / 2, "fresh requests alternate benchmarks");
        fresh.sort();
        fresh.dedup();
        assert_eq!(fresh.len(), n, "fresh requests must not collide");
    }

    #[test]
    fn cold_specs_are_distinct_and_valid() {
        let specs: Vec<WorkloadSpec> = (0..64).map(|i| cold_spec(5, i)).collect();
        for s in &specs {
            assert!((16..=40).contains(&s.queries));
            assert!(s.validate().is_ok());
        }
        let mut keys: Vec<(String, u64)> = specs
            .iter()
            .map(|s| (s.benchmark.name().to_string(), s.seed))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), specs.len());
        assert_eq!(cold_spec(5, 9), cold_spec(5, 9));
    }

    #[test]
    fn feed_streams_are_seeded_and_shift_at_the_midpoint() {
        let a = feed_stream(9, 0).unwrap();
        let b = feed_stream(9, 0).unwrap();
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.batches.len(), STREAM_LEN / BATCH);
        assert!(a.batches.iter().all(|q| q.len() == BATCH));
        assert_eq!(a.shift_batch, a.batches.len() / 2);
        assert_ne!(a.batches, feed_stream(9, 1).unwrap().batches);
    }
}
