//! The `tcp` workload: two `skueue-node` daemons as child processes on
//! loopback, driven by a seeded open-loop Poisson generator through an
//! `IngressClient` (one connection per daemon) at an ascending rate ladder.
//!
//! Each operation's latency is timed from when it was *due*: the
//! generator's lateness (send − due) plus the ingress's issue→completion
//! latency for that operation.  A rung meets the limit when its p99 is at
//! most [`LIMIT_US`] and no operation failed; the ladder stops at the first
//! rung that misses.  The generator's lateness is reported beside it (it is
//! already inside every latency, since those count from the due time).

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use skueue::net::{ClusterSpec, CtlClient, IngressClient};
use skueue::prelude::*;

use crate::spans::Spans;
use crate::stats::{self, nearest_rank};

/// Initial processes of the cluster (over 2 daemons, 2 shards).
const INITIAL: u64 = 8;
const DAEMONS: usize = 2;
const SHARDS: usize = 2;
/// Offered rates of the ladder, operations per second.
pub const RUNGS: [u64; 6] = [1_000, 2_000, 5_000, 10_000, 20_000, 40_000];
/// Latency limit on a rung's p99, microseconds.
const LIMIT_US: f64 = 10_000.0;
/// Probability that an operation is an enqueue.
const ENQUEUE_PROB: f64 = 0.6;
/// Daemon boots per run; `setup_s` is their median.
const BOOTS: usize = 15;
/// Passes up the ladder above the base rung; `ops_per_s` is the median of
/// their SLO rates.
const PASSES: usize = 3;
/// How long a rung may take to drain after its last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Two running daemons.  Dropping the set kills and reaps any child still
/// running, so no error path leaves a process behind.
struct Daemons {
    spec: ClusterSpec,
    children: Vec<Child>,
}

impl Daemons {
    fn spec_flags(&self) -> Vec<String> {
        vec![
            "--daemons".into(),
            self.spec.daemons.join(","),
            "--initial".into(),
            INITIAL.to_string(),
            "--shards".into(),
            SHARDS.to_string(),
        ]
    }

    /// Starts the daemons and waits until every initial process reports
    /// integrated.  Returns the set and the boot time.
    fn boot(opts: &crate::Options) -> Result<(Daemons, f64), String> {
        let ports = free_ports(DAEMONS)?;
        let mut spec = ClusterSpec::localhost(DAEMONS, 0, INITIAL, SHARDS);
        spec.daemons = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let mut daemons = Daemons {
            spec,
            children: Vec::new(),
        };
        let t = Instant::now();
        for index in 0..DAEMONS {
            let mut args = daemons.spec_flags();
            args.extend(["--index".into(), index.to_string()]);
            let child = Command::new(&opts.node_bin)
                .args(&args)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", opts.node_bin.display()))?;
            daemons.children.push(child);
        }
        for addr in &daemons.spec.daemons {
            while TcpStream::connect(addr).is_err() {
                if t.elapsed() > Duration::from_secs(20) {
                    return Err(format!("daemon {addr} did not start listening"));
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        let mut ctl = CtlClient::<u64>::connect(&daemons.spec).map_err(|e| e.to_string())?;
        loop {
            let status = ctl.status().map_err(|e| e.to_string())?;
            if status.len() as u64 == INITIAL && status.iter().all(|s| s.integrated) {
                break;
            }
            if t.elapsed() > Duration::from_secs(20) {
                return Err("initial processes did not integrate".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok((daemons, t.elapsed().as_secs_f64()))
    }

    fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// Shuts the daemons down through `skueue-ctl` and reaps them.
    fn shutdown(mut self, opts: &crate::Options) -> Result<(), String> {
        let mut args = self.spec_flags();
        args.extend(["--cmd".into(), "shutdown".into()]);
        let status = Command::new(&opts.ctl_bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", opts.ctl_bin.display()))?;
        if !status.success() {
            return Err(format!("skueue-ctl shutdown failed: {status}"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    _ => return Err("a daemon did not exit after shutdown".into()),
                }
            }
        }
        self.children.clear();
        Ok(())
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `n` distinct free loopback ports.
fn free_ports(n: usize) -> Result<Vec<u16>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()).map_err(|e| e.to_string()))
        .collect()
}

/// What one rung measured.
#[derive(Debug, Clone)]
struct Rung {
    rate: u64,
    issued: u64,
    failed: u64,
    /// Due-time latencies, µs, sorted; failures are +∞.
    lat_us: Vec<f64>,
    /// Generator lateness (send − due), µs, sorted.
    lag_us: Vec<f64>,
    /// Completions per second from the first due time to the last
    /// completion.
    ops_per_s: f64,
    daemon_cpu_s: f64,
}

impl Rung {
    fn pct(&self, q: f64) -> f64 {
        nearest_rank(&self.lat_us, q).unwrap_or(f64::INFINITY)
    }

    fn lag_p99(&self) -> f64 {
        nearest_rank(&self.lag_us, 0.99).unwrap_or(0.0)
    }

    fn meets_limit(&self) -> bool {
        self.failed == 0 && self.pct(0.99) <= LIMIT_US
    }
}

/// The offered rate at which p99 latency crosses [`LIMIT_US`]: interpolated
/// on a log-log scale between the last rung that meets the limit and the
/// first that misses it (a rung with a failed operation counts as +∞), so
/// the figure moves smoothly with the measured tails instead of jumping
/// between rungs.  The top rung's rate when no rung misses; 0 when the
/// first rung already misses.
fn slo_rate(rungs: &[Rung]) -> f64 {
    let Some(pass) = rungs.iter().take_while(|r| r.meets_limit()).last() else {
        return 0.0;
    };
    let Some(miss) = rungs.iter().find(|r| !r.meets_limit()) else {
        return pass.rate as f64;
    };
    let p_miss = if miss.failed > 0 {
        f64::INFINITY
    } else {
        miss.pct(0.99)
    };
    let p_pass = pass.pct(0.99).max(1.0);
    let t = ((LIMIT_US / p_pass).ln() / (p_miss / p_pass).ln()).clamp(0.0, 1.0);
    pass.rate as f64 * (miss.rate as f64 / pass.rate as f64).powf(t)
}

/// Runs one rung: `ops` operations on a Poisson schedule at `rate`.
fn run_rung(
    ingress: &mut IngressClient<u64>,
    rate: u64,
    ops: u64,
    seed: u64,
    value: &mut u64,
    daemon_pids: &[u32],
) -> Rung {
    let mut rng = SimRng::new(seed ^ rate.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let cpu = |pids: &[u32]| -> f64 {
        pids.iter()
            .filter_map(|&p| stats::proc_cpu(p))
            .map(|d| d.as_secs_f64())
            .sum()
    };
    let cpu0 = cpu(daemon_pids);
    let base = ingress.records().len();
    let mut lag: HashMap<RequestId, f64> = HashMap::with_capacity(ops as usize);
    let start = Instant::now() + Duration::from_millis(1);
    let mut due = start;
    for _ in 0..ops {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let pid = ProcessId(rng.gen_range(INITIAL));
        let id = if rng.gen_bool(ENQUEUE_PROB) {
            *value += 1;
            ingress.enqueue(pid, *value)
        } else {
            ingress.dequeue(pid)
        }
        .expect("loopback inject");
        lag.insert(id, sent.duration_since(due).as_nanos() as f64 / 1000.0);
        // Exponential inter-arrival gap (inverse-CDF sampling).
        let gap_s = -(1.0 - rng.gen_unit()).ln() / rate as f64;
        due += Duration::from_secs_f64(gap_s);
    }
    ingress.await_quiescence(DRAIN_TIMEOUT);
    let elapsed = start.elapsed().as_secs_f64();
    let daemon_cpu_s = cpu(daemon_pids) - cpu0;

    // Every record of this rung was pending when it arrived, so
    // `latencies_us()[i]` belongs to `records()[i]`.
    let records = &ingress.records()[base..];
    let latencies = &ingress.latencies_us()[base..];
    let mut lat_us: Vec<f64> = records
        .iter()
        .zip(latencies)
        .map(|(r, &l)| lag.get(&r.id).copied().unwrap_or(0.0) + l as f64)
        .collect();
    let completed = lat_us.len() as u64;
    let failed = ops - completed;
    lat_us.extend(std::iter::repeat_n(f64::INFINITY, failed as usize));
    lat_us.sort_by(|a, b| a.total_cmp(b));
    let mut lag_us: Vec<f64> = lag.into_values().collect();
    lag_us.sort_by(|a, b| a.total_cmp(b));
    Rung {
        rate,
        issued: ops,
        failed,
        lat_us,
        lag_us,
        ops_per_s: completed as f64 / elapsed,
        daemon_cpu_s,
    }
}

/// Boots the cluster [`BOOTS`] times, runs the ladder on the last boot,
/// verifies the whole history, and reports.
pub fn report(
    opts: &crate::Options,
    window: Duration,
    spans: &mut Spans,
) -> Result<crate::Report, String> {
    let mut boots = Vec::with_capacity(BOOTS);
    let mut daemons = None;
    for b in 0..BOOTS {
        let span = spans.begin("boot", "net", 0);
        let (set, boot_s) = Daemons::boot(opts)?;
        spans.end(span);
        boots.push(boot_s);
        if b + 1 < BOOTS {
            set.shutdown(opts)?;
        } else {
            daemons = Some(set);
        }
    }
    let daemons = daemons.expect("at least one boot");
    let pids = daemons.pids();
    let mut ingress = IngressClient::<u64>::connect(&daemons.spec).map_err(|e| e.to_string())?;

    // The 1k ops/s base rung gets half of the window (1.5·10⁴ operations
    // for a 30 s window, so its p999 has ten samples beyond it).  The rest
    // is shared by [`PASSES`] passes up the ladder from 2k ops/s, each
    // stopping at its first miss; each pass gives one SLO rate.
    let base_s = window.as_secs_f64() / 2.0;
    let rung_s = window.as_secs_f64() / 2.0 / (PASSES * (RUNGS.len() - 1)) as f64;
    let mut value = 0u64;
    let span = spans.begin(format!("rung {}/s", RUNGS[0]), "net", 0);
    let ops = (RUNGS[0] as f64 * base_s) as u64;
    let base = run_rung(&mut ingress, RUNGS[0], ops, opts.seed, &mut value, &pids);
    spans.end(span);
    let threads = pids
        .iter()
        .filter_map(|p| stats::proc_status_field(&p.to_string(), "Threads"))
        .max()
        .unwrap_or(0);
    let mut passes: Vec<Vec<Rung>> = Vec::new();
    for pass in 0..PASSES {
        let mut rungs = vec![base.clone()];
        if base.meets_limit() {
            for &rate in &RUNGS[1..] {
                let ops = ((rate as f64 * rung_s) as u64).max(1);
                let span = spans.begin(format!("rung {rate}/s"), "net", 0);
                let seed = opts
                    .seed
                    .wrapping_mul(PASSES as u64)
                    .wrapping_add(pass as u64);
                let rung = run_rung(&mut ingress, rate, ops, seed, &mut value, &pids);
                spans.end(span);
                let meets = rung.meets_limit();
                rungs.push(rung);
                if !meets {
                    break;
                }
            }
        }
        passes.push(rungs);
    }
    let peak_rss_mb: f64 = pids
        .iter()
        .filter_map(|p| stats::proc_status_mb(&p.to_string(), "VmHWM"))
        .sum();

    let span = spans.begin("verify", "verify", 0);
    let consistent = ingress.verify().is_consistent();
    spans.end(span);
    daemons.shutdown(opts)?;
    ingress.close();

    let slo_rates: Vec<f64> = passes.iter().map(|rungs| slo_rate(rungs)).collect();
    let upper = || passes.iter().flat_map(|rungs| rungs[1..].iter());
    let mut report = crate::Report {
        correct: consistent,
        attempted: base.issued + upper().map(|r| r.issued).sum::<u64>(),
        failed: base.failed + upper().map(|r| r.failed).sum::<u64>(),
        ..Default::default()
    };
    report.e2e("setup_s", stats::median(&boots));
    report.e2e("slo_rate_ops_s", stats::median(&slo_rates));
    report.e2e("lat_p50_ms", base.pct(0.50) / 1000.0);
    report.e2e("lat_p99_ms", base.pct(0.99) / 1000.0);
    report.e2e("lat_p999_ms", base.pct(0.999) / 1000.0);
    report.e2e("peak_rss_mb", peak_rss_mb);
    report.info(
        "ops_failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    for (i, rate) in slo_rates.iter().enumerate() {
        report.info(format!("pass.{i}.slo_rate_ops_s"), *rate, "1/s");
    }
    // Rung figures: the base rung, then the median over the passes that
    // reached each rung.
    let rung_median = |rate: u64, f: &dyn Fn(&Rung) -> f64| -> Option<f64> {
        let values: Vec<f64> = passes
            .iter()
            .flat_map(|rungs| rungs.iter().filter(|r| r.rate == rate))
            .map(f)
            .collect();
        (!values.is_empty()).then(|| stats::median(&values))
    };
    for &rate in &RUNGS {
        let Some(p99) = rung_median(rate, &|r| r.pct(0.99)) else {
            continue;
        };
        let p50 = rung_median(rate, &|r| r.pct(0.50)).unwrap_or(0.0);
        let lag = rung_median(rate, &|r| r.lag_p99()).unwrap_or(0.0);
        report.info(format!("rung.{rate}.p50_us"), p50, "us");
        report.info(format!("rung.{rate}.p99_us"), p99, "us");
        report.info(format!("rung.{rate}.gen_lag_p99_us"), lag, "us");
        let achieved = rung_median(rate, &|r| r.ops_per_s).unwrap_or(0.0);
        report.info(format!("rung.{rate}.ops_per_s"), achieved, "1/s");
        if opts.trace {
            report.layer(&format!("net.rung_p99_us.{rate}"), p99);
        }
    }
    if opts.trace {
        report.layer("workloads.gen_lag_p99_us", base.lag_p99());
        report.layer(
            "net.daemon_cpu_us_per_op",
            base.daemon_cpu_s * 1e6 / base.issued as f64,
        );
        report.layer("net.daemon_threads", threads as f64);
        crate::probes::report(opts.seed, &mut report, spans);
    }
    report.assert_complete(crate::TCP_END_TO_END, &[]);
    Ok(report)
}
