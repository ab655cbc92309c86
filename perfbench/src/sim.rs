//! The simulated workloads (`steady`, `burst`, `churn`): the queue on the
//! synchronous round scheduler, driven open-loop by `FixedRateGenerator`.
//!
//! One repetition builds a fresh cluster, generates, drains up to a fixed
//! round budget, and verifies the history.  Everything is timed from the
//! outside, around calls into the public API of each crate.

use std::time::{Duration, Instant};

use skueue::prelude::*;
use skueue::verify::{OpRecord, Violation};

use crate::spans::Spans;
use crate::stats::{self, nearest_rank};

/// A planned join or leave wave.
#[derive(Debug, Clone, Copy)]
pub struct Wave {
    /// Generation round at which the wave's calls are made.
    pub at_round: u64,
    /// Number of processes joining or leaving.
    pub count: usize,
}

/// The shape of one simulated workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub processes: usize,
    pub shards: usize,
    pub threads: usize,
    pub requests_per_round: u64,
    pub generation_rounds: u64,
    pub join: Option<Wave>,
    pub leave: Option<Wave>,
    /// Rounds the run may take after generation stops; whatever is still
    /// open then has failed.
    pub drain_budget: u64,
}

impl Shape {
    /// fig2 open loop: n=3000, one lane, 10 requests/round, 10⁴ ops.
    pub fn steady() -> Self {
        Shape {
            processes: 3000,
            shards: 1,
            threads: 1,
            requests_per_round: 10,
            generation_rounds: 1000,
            join: None,
            leave: None,
            drain_budget: 20_000,
        }
    }

    /// Big batches: n=3000, 8 shards on 2 threads, 1000 requests/round,
    /// 5·10⁴ ops.
    pub fn burst() -> Self {
        Shape {
            processes: 3000,
            shards: 8,
            threads: 2,
            requests_per_round: 1000,
            generation_rounds: 50,
            join: None,
            leave: None,
            drain_budget: 20_000,
        }
    }

    /// Membership churn: n=1000, 10 requests/round for 1500 rounds, a join
    /// wave of n/2 at round 200 and a leave wave of n/4 at round 800.
    pub fn churn() -> Self {
        Shape {
            processes: 1000,
            shards: 1,
            threads: 1,
            requests_per_round: 10,
            generation_rounds: 1500,
            join: Some(Wave {
                at_round: 200,
                count: 500,
            }),
            leave: Some(Wave {
                at_round: 800,
                count: 250,
            }),
            drain_budget: 20_000,
        }
    }

    pub fn build(&self, seed: u64, level: TraceLevel) -> SkueueCluster {
        SkueueCluster::builder()
            .processes(self.processes)
            .queue()
            .seed(seed)
            .shards(self.shards)
            .threads(self.threads)
            .trace(level)
            .build()
            .expect("workload shapes describe valid clusters")
    }
}

/// Progress of one join or leave wave.
#[derive(Debug, Default)]
struct WaveState {
    members: Vec<ProcessId>,
    start_round: u64,
    /// Rounds from the wave's calls until its last member finished.
    done_after: Option<u64>,
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// `SkueueBuilder::build` wall time.
    pub build_s: f64,
    /// Generate + drain wall time (verification excluded).
    pub run_s: f64,
    /// Time inside `FixedRateGenerator::tick`.
    pub issue_s: f64,
    /// Time inside `SkueueCluster::run_round`.
    pub round_s: f64,
    /// Time inside `check_queue` / `check_queue_sharded`.
    pub verify_s: f64,
    /// CPU time (all threads) over generate + drain.
    pub cpu_s: f64,
    pub ops_issued: u64,
    pub ops_completed: u64,
    /// Operations attempted: requests plus joins plus leaves.
    pub attempted: u64,
    /// Requests, joins and leaves not finished within the round budget.
    pub failed: u64,
    pub consistent: bool,
    /// Violations on an incomplete history that open operations explain.
    pub open_explained_violations: u64,
    /// Latency of every attempted request in rounds, sorted; a failed
    /// request is `u64::MAX` (+∞).
    pub lat_rounds: Vec<u64>,
    /// Wall-clock latency of every attempted request (from the start of its
    /// issue round to the end of its completion round), µs, sorted; a failed
    /// request is +∞.
    pub lat_us: Vec<f64>,
    pub rounds: u64,
    pub messages_sent: u64,
    pub nodes_visited: u64,
    pub hops_mean: f64,
    pub hops_max: u64,
    pub ops_per_msg: f64,
    pub batch_mean: f64,
    pub batch_max: u64,
    pub waves_in_flight_max: u64,
    pub shard_waves_max_over_mean: f64,
    pub lane_busy_max_s: f64,
    pub lane_wait_max_s: f64,
    pub join_rounds: Option<u64>,
    pub leave_rounds: Option<u64>,
    pub trace_events: u64,
    /// `(stage, p50, p99)` in rounds, from a traced repetition.
    pub stages: Vec<(&'static str, u64, u64)>,
    /// Program trace export of a traced repetition.
    pub chrome_json: Option<String>,
    /// FNV-1a over the completion records (determinism check).
    pub fingerprint: u64,
}

fn fnv(records: &[OpRecord<u64>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        mix(r.id.origin.0);
        mix(r.id.seq);
        mix(r.value);
        mix(r.completed_round);
        mix(r.order.wave);
        mix(r.order.major);
    }
    h
}

/// Runs one repetition of `shape` with workload seed `seed`.  With
/// `round_spans`, the benchmark's span log also gets an `issue` and a
/// `run_round` span per round (one repetition's worth keeps the trace file
/// small).
pub fn run_rep(
    shape: &Shape,
    seed: u64,
    level: TraceLevel,
    round_spans: bool,
    spans: &mut Spans,
) -> Rep {
    let mut rep = Rep::default();
    let rep_span = spans.begin("repetition", "bench", 0);

    let span = spans.begin("build", "bench", 0);
    let mut cluster = shape.build(seed, level);
    rep.build_s = spans.end(span) as f64 * 1e-9;

    let mut generator = FixedRateGenerator::new(0.5, shape.generation_rounds, seed ^ 0xA5)
        .with_requests_per_round(shape.requests_per_round);
    let base_round = cluster.round();
    // `starts[i]` is the instant round `base_round + i` began.
    let mut starts: Vec<Instant> =
        Vec::with_capacity((shape.generation_rounds + shape.drain_budget + 1) as usize);
    let mut joins = WaveState::default();
    let mut leaves = WaveState::default();
    let mut issue_ns = 0u64;
    let mut round_ns = 0u64;

    let cpu0 = stats::self_cpu();
    let t0 = Instant::now();
    let gen_span = spans.begin("generate", "bench", 0);
    let mut drain_span = None;
    let mut drained = 0u64;
    loop {
        let round = cluster.round() - base_round;
        let generating = round < shape.generation_rounds;
        let waves_open = joins.done_after.is_none() && !joins.members.is_empty()
            || leaves.done_after.is_none() && !leaves.members.is_empty();
        if !generating {
            if drain_span.is_none() {
                spans.end(gen_span);
                drain_span = Some(spans.begin("drain", "bench", 0));
            }
            if cluster.open_requests() == 0 && !waves_open {
                break;
            }
            if drained >= shape.drain_budget {
                break;
            }
            drained += 1;
        }
        starts.push(Instant::now());
        if generating {
            if let Some(w) = shape.join.filter(|w| w.at_round == round) {
                joins.start_round = round;
                for _ in 0..w.count {
                    joins
                        .members
                        .push(cluster.join(None).expect("a bootstrap process exists"));
                }
            }
            if let Some(w) = shape.leave.filter(|w| w.at_round == round) {
                leaves.start_round = round;
                // Never the anchor's process: `leave` refuses it.
                for p in cluster.active_process_ids() {
                    if leaves.members.len() >= w.count {
                        break;
                    }
                    if cluster.leave(p).is_ok() {
                        leaves.members.push(p);
                    }
                }
            }
            let span = round_spans.then(|| spans.begin("issue", "workloads", 0));
            let t = Instant::now();
            rep.ops_issued += generator
                .tick(&mut cluster, round)
                .expect("active processes exist");
            issue_ns += t.elapsed().as_nanos() as u64;
            if let Some(span) = span {
                spans.end(span);
            }
        }
        let span = round_spans.then(|| spans.begin("run_round", "sim", 0));
        let t = Instant::now();
        cluster.run_round();
        round_ns += t.elapsed().as_nanos() as u64;
        if let Some(span) = span {
            spans.end(span);
        }
        let round = cluster.round() - base_round;
        if joins.done_after.is_none()
            && !joins.members.is_empty()
            && joins.members.iter().all(|&p| cluster.process_is_active(p))
        {
            joins.done_after = Some(round - joins.start_round);
        }
        if leaves.done_after.is_none()
            && !leaves.members.is_empty()
            && leaves.members.iter().all(|&p| cluster.process_has_left(p))
        {
            leaves.done_after = Some(round - leaves.start_round);
        }
    }
    starts.push(Instant::now());
    if let Some(span) = drain_span {
        spans.end(span);
    } else {
        spans.end(gen_span);
    }
    rep.run_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = stats::self_cpu().saturating_sub(cpu0).as_secs_f64();
    rep.issue_s = issue_ns as f64 * 1e-9;
    rep.round_s = round_ns as f64 * 1e-9;

    let span = spans.begin("verify", "verify", 0);
    let report = if cluster.shards() > 1 {
        check_queue_sharded(cluster.history(), &cluster.shard_map())
    } else {
        check_queue(cluster.history())
    };
    rep.verify_s = spans.end(span) as f64 * 1e-9;
    // A run cut at the round budget leaves an incomplete history.  The
    // checker assumes a complete one, so on an incomplete history it also
    // reports what a still-open operation explains: an element whose
    // enqueue is open, an enqueue whose (open) dequeue was ordered earlier,
    // and the replay mismatches that cascade from those.  Every other
    // violation kind is decided by completed operations alone and fails
    // the run.
    let explained_by_open_ops = |v: &Violation| {
        matches!(
            v,
            Violation::PhantomElement { .. }
                | Violation::UnmatchedEnqueueOvertaken { .. }
                | Violation::ReplayMismatch { .. }
        )
    };
    rep.consistent = if cluster.open_requests() == 0 {
        report.is_consistent()
    } else {
        report.violations.iter().all(explained_by_open_ops)
    };
    rep.open_explained_violations = if cluster.open_requests() == 0 {
        0
    } else {
        report.violations.len() as u64
    };
    if !rep.consistent {
        let violations = &report.violations;
        eprintln!(
            "perfbench: inconsistent history (seed {seed}, {} completed, {} open): \
             {} violations, first: {:?}",
            cluster.history().len(),
            cluster.open_requests(),
            violations.len(),
            &violations[..violations.len().min(3)]
        );
    }
    if cluster.open_requests() == 0 {
        // At quiescence every DHT reply must have found its requester.
        let unmatched = cluster.unmatched_dht_replies();
        if unmatched != 0 {
            eprintln!("perfbench: {unmatched} unmatched DHT replies at quiescence");
            rep.consistent = false;
        }
    }

    let records = cluster.history().records();
    rep.ops_completed = records.len() as u64;
    let open = cluster.open_requests();
    let wall_us = |issued: u64, completed: u64| -> f64 {
        let i = (issued - base_round) as usize;
        let c = ((completed - base_round) as usize + 1).min(starts.len() - 1);
        starts[c].duration_since(starts[i]).as_nanos() as f64 / 1000.0
    };
    rep.lat_rounds = records.iter().map(|r| r.latency()).collect();
    rep.lat_us = records
        .iter()
        .map(|r| wall_us(r.issued_round, r.completed_round))
        .collect();
    rep.lat_rounds
        .extend(std::iter::repeat_n(u64::MAX, open as usize));
    rep.lat_us
        .extend(std::iter::repeat_n(f64::INFINITY, open as usize));
    rep.lat_rounds.sort_unstable();
    rep.lat_us.sort_by(|a, b| a.total_cmp(b));

    let wave_failed = |w: &WaveState| {
        if w.done_after.is_some() {
            0
        } else {
            w.members.len() as u64
        }
    };
    rep.join_rounds = joins.done_after;
    rep.leave_rounds = leaves.done_after;
    rep.attempted = rep.ops_issued + joins.members.len() as u64 + leaves.members.len() as u64;
    rep.failed = open + wave_failed(&joins) + wave_failed(&leaves);

    let m = cluster.sim_metrics();
    rep.rounds = m.rounds;
    rep.messages_sent = m.messages_sent;
    rep.nodes_visited = m.nodes_visited;
    let max_s = |v: &[u64]| v.iter().copied().max().unwrap_or(0) as f64 * 1e-9;
    rep.lane_busy_max_s = max_s(&m.lane_busy_ns);
    rep.lane_wait_max_s = max_s(&m.lane_barrier_wait_ns);
    let hops = cluster.dht_hop_histogram();
    rep.hops_mean = hops.mean();
    rep.hops_max = hops.max().unwrap_or(0);
    rep.ops_per_msg = cluster.dht_ops_per_message_histogram().mean();
    let batches = cluster.batch_size_histogram();
    rep.batch_mean = batches.mean();
    rep.batch_max = batches.max().unwrap_or(0);
    rep.waves_in_flight_max = cluster.waves_in_flight_histogram().max().unwrap_or(0);
    let waves = cluster.shard_wave_counts();
    let mean = waves.iter().sum::<u64>() as f64 / waves.len().max(1) as f64;
    rep.shard_waves_max_over_mean = if mean > 0.0 {
        waves.iter().copied().max().unwrap_or(0) as f64 / mean
    } else {
        0.0
    };
    rep.fingerprint = fnv(records);

    if !level.is_off() {
        rep.trace_events = cluster.trace_log().len() as u64;
        let analysis = cluster.trace_analysis();
        rep.stages = analysis
            .stage_table()
            .iter()
            .filter(|(name, _)| *name != "total")
            .map(|(name, s)| (*name, s.p50, s.p99))
            .collect();
        rep.chrome_json = Some(cluster.export_chrome_trace());
    }
    spans.end(rep_span);
    rep
}

/// Workload seeds per cycle: one cycle runs the shape once per sub-seed and
/// pools the results, so a run's tail percentiles rest on several
/// schedules rather than on the luck of one.
pub const SUBSEEDS: u64 = 4;

/// The `j`-th sub-seed of workload seed `seed` (distinct for distinct seeds).
pub fn sub_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(SUBSEEDS).wrapping_add(j)
}

/// The latency percentiles a cycle reports.
pub const QUANTILES: [f64; 3] = [0.50, 0.99, 0.999];

/// One cycle: a repetition per sub-seed, pooled.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    /// The repetitions, with their latency samples dropped (so a long
    /// window does not grow the benchmark's own memory).
    pub reps: Vec<Rep>,
    /// Pooled round-latency percentiles at [`QUANTILES`]; `None` is +∞ (the
    /// percentile landed on a failed request).
    pub rounds: [Option<u64>; 3],
    /// Pooled wall-clock latency percentiles at [`QUANTILES`], ms.
    pub wall_ms: [f64; 3],
    /// The process's peak resident set (`VmHWM`) when the cycle ended, MiB.
    pub peak_rss_mb: f64,
}

impl Cycle {
    fn new(mut reps: Vec<Rep>) -> Self {
        let mut lat_rounds: Vec<u64> = Vec::new();
        let mut lat_us: Vec<f64> = Vec::new();
        for rep in &mut reps {
            lat_rounds.append(&mut rep.lat_rounds);
            lat_us.append(&mut rep.lat_us);
        }
        lat_rounds.sort_unstable();
        lat_us.sort_by(|a, b| a.total_cmp(b));
        Cycle {
            reps,
            rounds: QUANTILES.map(|q| nearest_rank(&lat_rounds, q).filter(|&v| v != u64::MAX)),
            wall_ms: QUANTILES.map(|q| nearest_rank(&lat_us, q).unwrap_or(0.0) / 1000.0),
            peak_rss_mb: stats::proc_status_mb("self", "VmHWM").unwrap_or(0.0),
        }
    }

    pub fn sum(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        self.reps.iter().map(f).sum()
    }

    /// Mean per repetition of `f`.
    pub fn mean(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        self.sum(f) / self.reps.len() as f64
    }

    pub fn max(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        self.reps.iter().map(f).fold(0.0, f64::max)
    }

    /// Completed requests per second of generate + drain.
    pub fn ops_per_s(&self) -> f64 {
        self.sum(|r| r.ops_completed as f64) / self.sum(|r| r.run_s)
    }
}

/// Median over cycles of `f`.
pub fn med(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    stats::median(&cycles.iter().map(f).collect::<Vec<_>>())
}

/// Runs whole cycles of `shape` until `window` has elapsed (at least one).
pub fn run_window(shape: &Shape, seed: u64, window: Duration, spans: &mut Spans) -> Vec<Cycle> {
    let start = Instant::now();
    let mut cycles = Vec::new();
    while cycles.is_empty() || start.elapsed() < window {
        let first = cycles.is_empty();
        let reps = (0..SUBSEEDS)
            .map(|j| {
                let round_spans = first && j == 0;
                run_rep(
                    shape,
                    sub_seed(seed, j),
                    TraceLevel::Off,
                    round_spans,
                    spans,
                )
            })
            .collect();
        cycles.push(Cycle::new(reps));
    }
    cycles
}

/// Runs the `--seconds` window of untraced cycles (and, with `--trace 1`,
/// one traced repetition plus the layer probes) and reports.
pub fn report(
    opts: &crate::Options,
    shape: &Shape,
    window: Duration,
    spans: &mut Spans,
) -> Result<crate::Report, String> {
    let cycles = run_window(shape, opts.seed, window, spans);
    let first = &cycles[0];
    for cycle in &cycles[1..] {
        for (a, b) in first.reps.iter().zip(&cycle.reps) {
            if a.fingerprint != b.fingerprint {
                return Err(format!(
                    "the same seed gave two different histories ({:#x} vs {:#x})",
                    a.fingerprint, b.fingerprint
                ));
            }
        }
    }
    let all_reps = || cycles.iter().flat_map(|c| c.reps.iter());
    let mut report = crate::Report {
        correct: all_reps().all(|r| r.consistent),
        attempted: all_reps().map(|r| r.attempted).sum(),
        failed: all_reps().map(|r| r.failed).sum(),
        ..Default::default()
    };
    let builds: Vec<f64> = all_reps().map(|r| r.build_s).collect();
    report.e2e("setup_s", stats::median(&builds));
    let rounds = |i: usize| first.rounds[i].map_or(f64::INFINITY, |v| v as f64);
    report.e2e("lat_p50_rounds", rounds(0));
    report.e2e("lat_p99_rounds", rounds(1));
    // The first cycle's peak: what one pass over the workload needs.  Later
    // cycles only add allocator fragmentation from rebuilding clusters, which
    // would make the figure depend on the window's length.
    report.e2e("peak_rss_mb", first.peak_rss_mb);

    let attempted = first.sum(|r| r.attempted as f64);
    report.info("cycles", cycles.len() as f64, "count");
    report.info("ops_per_cycle", first.sum(|r| r.ops_issued as f64), "count");
    report.info(
        "ops_failed_frac",
        first.sum(|r| r.failed as f64) / attempted.max(1.0),
        "ratio",
    );
    report.info("lat_p999_rounds", rounds(2), "rounds");
    report.info(
        "violations_explained_by_open_ops",
        first.sum(|r| r.open_explained_violations as f64),
        "count",
    );
    report.info("ops_per_s", med(&cycles, Cycle::ops_per_s), "1/s");
    report.info("lat_p50_ms", med(&cycles, |c| c.wall_ms[0]), "ms");
    report.info("lat_p99_ms", med(&cycles, |c| c.wall_ms[1]), "ms");
    report.info("lat_p999_ms", med(&cycles, |c| c.wall_ms[2]), "ms");
    if shape.join.is_some() {
        // Worst wave of the cycle; +∞ when a wave never finished.
        let worst = |f: fn(&Rep) -> Option<u64>| {
            first
                .reps
                .iter()
                .map(|r| f(r).map_or(f64::INFINITY, |v| v as f64))
                .fold(0.0, f64::max)
        };
        report.info("join_rounds", worst(|r| r.join_rounds), "rounds");
        report.info("leave_rounds", worst(|r| r.leave_rounds), "rounds");
    }

    if opts.trace {
        let ops = first.sum(|r| r.ops_completed as f64).max(1.0);
        let rounds = first.sum(|r| r.rounds as f64).max(1.0);
        report.layer(
            "dht.hops_mean",
            first.sum(|r| r.hops_mean * r.ops_completed as f64) / ops,
        );
        report.layer("dht.hops_max", first.max(|r| r.hops_max as f64));
        report.layer("dht.ops_per_msg", first.mean(|r| r.ops_per_msg));
        report.layer("sim.rounds", first.mean(|r| r.rounds as f64));
        report.layer(
            "sim.round_us",
            med(&cycles, |c| c.sum(|r| r.round_s) / rounds) * 1e6,
        );
        report.layer(
            "sim.visits_per_round",
            first.sum(|r| r.nodes_visited as f64) / rounds,
        );
        report.layer(
            "sim.msgs_per_op",
            first.sum(|r| r.messages_sent as f64) / ops,
        );
        report.layer(
            "sim.lane_busy_max_ms",
            med(&cycles, |c| c.mean(|r| r.lane_busy_max_s)) * 1e3,
        );
        report.layer(
            "sim.lane_barrier_wait_max_ms",
            med(&cycles, |c| c.mean(|r| r.lane_wait_max_s)) * 1e3,
        );
        report.layer(
            "sim.cpu_util",
            med(&cycles, |c| c.sum(|r| r.cpu_s) / c.sum(|r| r.run_s)),
        );
        report.layer(
            "shard.waves_max_over_mean",
            first.max(|r| r.shard_waves_max_over_mean),
        );
        report.layer("core.batch_size_mean", first.mean(|r| r.batch_mean));
        report.layer("core.batch_size_max", first.max(|r| r.batch_max as f64));
        report.layer(
            "core.waves_in_flight_max",
            first.max(|r| r.waves_in_flight_max as f64),
        );
        report.layer(
            "workloads.issue_ms",
            med(&cycles, |c| c.mean(|r| r.issue_s)) * 1e3,
        );
        report.layer(
            "verify.check_ms",
            med(&cycles, |c| c.mean(|r| r.verify_s)) * 1e3,
        );

        // The traced repetition: first sub-seed, `TraceLevel::Full`.
        let traced = run_rep(
            shape,
            sub_seed(opts.seed, 0),
            TraceLevel::Full,
            false,
            spans,
        );
        let untraced: Vec<f64> = cycles.iter().map(|c| c.reps[0].run_s).collect();
        if traced.fingerprint != first.reps[0].fingerprint {
            return Err("tracing changed the schedule".into());
        }
        report.correct &= traced.consistent;
        for (stage, p50, p99) in &traced.stages {
            report.layer(&format!("core.stage.{stage}.p50_rounds"), *p50 as f64);
            report.layer(&format!("core.stage.{stage}.p99_rounds"), *p99 as f64);
        }
        report.layer(
            "trace.overhead_ratio",
            traced.run_s / stats::median(&untraced),
        );
        report.layer(
            "trace.events_per_op",
            traced.trace_events as f64 / traced.ops_completed.max(1) as f64,
        );
        if let Some(json) = &traced.chrome_json {
            crate::write_out(
                opts,
                &format!("{}-seed{}.program.trace.json", opts.workload, opts.seed),
                json,
            )?;
        }
        crate::probes::report(opts.seed, &mut report, spans);
        report.assert_complete(crate::END_TO_END, crate::PER_LAYER);
    } else {
        report.assert_complete(crate::END_TO_END, &[]);
    }
    Ok(report)
}
