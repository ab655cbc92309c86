//! `perfbench` — the Skueue benchmark: one command, four workloads, every
//! end-to-end and per-layer metric printed by name with its unit, every
//! history verified.  See `README.md` next to this crate.
//!
//! ```text
//! perfbench --workload steady|burst|churn|tcp --seed N --seconds S --trace 0|1
//!           [--node-bin PATH --ctl-bin PATH] [--out-dir DIR]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! The process exits non-zero, without that line, when a history fails its
//! consistency check.

mod probes;
mod sim;
mod spans;
mod stats;
mod tcp;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub node_bin: PathBuf,
    pub ctl_bin: PathBuf,
    pub out_dir: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        node_bin: PathBuf::from("skueue-node"),
        ctl_bin: PathBuf::from("skueue-ctl"),
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed expects a number")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--node-bin" => opts.node_bin = PathBuf::from(value()?),
            "--ctl-bin" => opts.ctl_bin = PathBuf::from(value()?),
            "--out-dir" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

/// End-to-end metrics of the simulated workloads, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_rounds", "rounds"),
    ("lat_p99_rounds", "rounds"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the simulated workloads, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("overlay.route_hops_p50", "hops"),
    ("overlay.route_hops_p999", "hops"),
    ("overlay.route_hops_max", "hops"),
    ("overlay.route_step_ns", "ns"),
    ("dht.hops_mean", "hops"),
    ("dht.hops_max", "hops"),
    ("dht.ops_per_msg", "count"),
    ("dht.store_op_ns", "ns"),
    ("sim.rounds", "rounds"),
    ("sim.round_us", "us"),
    ("sim.visits_per_round", "count"),
    ("sim.msgs_per_op", "count"),
    ("sim.lane_busy_max_ms", "ms"),
    ("sim.lane_barrier_wait_max_ms", "ms"),
    ("sim.cpu_util", "ratio"),
    ("shard.waves_max_over_mean", "ratio"),
    ("core.batch_size_mean", "count"),
    ("core.batch_size_max", "count"),
    ("core.waves_in_flight_max", "count"),
    ("core.stage.queue-wait.p50_rounds", "rounds"),
    ("core.stage.queue-wait.p99_rounds", "rounds"),
    ("core.stage.aggregation.p50_rounds", "rounds"),
    ("core.stage.aggregation.p99_rounds", "rounds"),
    ("core.stage.assignment.p50_rounds", "rounds"),
    ("core.stage.assignment.p99_rounds", "rounds"),
    ("core.stage.dht-routing.p50_rounds", "rounds"),
    ("core.stage.dht-routing.p99_rounds", "rounds"),
    ("core.stage.reply.p50_rounds", "rounds"),
    ("core.stage.reply.p99_rounds", "rounds"),
    ("workloads.issue_ms", "ms"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("net.bytes_per_msg", "bytes"),
    ("net.frame_roundtrip_ns", "ns"),
    ("verify.check_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.events_per_op", "count"),
];

/// End-to-end metrics of the `tcp` workload, with their units.
pub const TCP_END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("slo_rate_ops_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("lat_p999_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics only the `tcp` workload measures (it also runs the
/// overlay, store and codec probes).
pub const TCP_PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_lag_p99_us", "us"),
    ("net.daemon_cpu_us_per_op", "us"),
    ("net.daemon_threads", "count"),
    ("net.rung_p99_us.1000", "us"),
    ("net.rung_p99_us.2000", "us"),
    ("net.rung_p99_us.5000", "us"),
    ("net.rung_p99_us.10000", "us"),
    ("net.rung_p99_us.20000", "us"),
    ("net.rung_p99_us.40000", "us"),
];

/// One measured metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Printed for the reader, not part of the JSON result.
    info: Vec<Metric>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// The unit of a declared metric; every reported metric must be declared.
fn unit_of(lists: &[&[(&'static str, &'static str)]], name: &str) -> &'static str {
    lists
        .iter()
        .flat_map(|l| l.iter())
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("`{name}` is not a declared metric"))
        .1
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64) {
        let unit = unit_of(&[END_TO_END, TCP_END_TO_END], name);
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = unit_of(&[PER_LAYER, TCP_PER_LAYER], name);
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Panics unless every declared metric was reported: a run prints every
    /// metric of its workload.
    pub fn assert_complete(&self, end_to_end: &[(&str, &str)], per_layer: &[(&str, &str)]) {
        for (declared, got) in [(end_to_end, &self.end_to_end), (per_layer, &self.per_layer)] {
            for (name, _) in declared {
                assert!(
                    got.iter().any(|m| m.name == *name),
                    "metric `{name}` was not reported"
                );
            }
        }
    }
}

/// A JSON number; non-finite values (a percentile that landed on a failed
/// operation) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_report(opts: &Options, report: &Report) {
    let line = |section: &str, m: &Metric| {
        println!(
            "{section:<10} {:<36} {:>18} {}",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    };
    report.end_to_end.iter().for_each(|m| line("end-to-end", m));
    report.info.iter().for_each(|m| line("info", m));
    report.per_layer.iter().for_each(|m| line("per-layer", m));
    let chosen = if opts.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics: Vec<String> = chosen
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "inf".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload steady|burst|churn|tcp --seed N --seconds S \
                 --trace 0|1 [--node-bin PATH --ctl-bin PATH] [--out-dir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let window = Duration::from_secs_f64(opts.seconds);
    let mut spans = spans::Spans::new(opts.trace);
    let report = match opts.workload.as_str() {
        "steady" => sim::report(&opts, &sim::Shape::steady(), window, &mut spans),
        "burst" => sim::report(&opts, &sim::Shape::burst(), window, &mut spans),
        "churn" => sim::report(&opts, &sim::Shape::churn(), window, &mut spans),
        "tcp" => tcp::report(&opts, window, &mut spans),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let report = match report {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(1);
        }
    };
    if opts.trace {
        let name = format!("{}-seed{}.bench.trace.json", opts.workload, opts.seed);
        if let Err(e) = write_out(&opts, &name, &spans.to_chrome_json()) {
            eprintln!("perfbench: could not write the span trace: {e}");
            return ExitCode::from(1);
        }
    }
    if !report.correct {
        eprintln!("perfbench: a history failed verification; no result is reported");
        for m in report.end_to_end.iter().chain(&report.info) {
            eprintln!(
                "perfbench:   {} = {} {}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        return ExitCode::from(1);
    }
    print_report(&opts, &report);
    ExitCode::SUCCESS
}

/// Writes `contents` to `name` under the output directory.
pub fn write_out(opts: &Options, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let path = opts.out_dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |chunk: &str, key: &str| -> String {
            let at = chunk
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            chunk[at..at + chunk[at..].find('"').unwrap()].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|chunk| (field(chunk, "name"), field(chunk, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn json_numbers_keep_every_digit_and_map_infinity_to_null() {
        assert_eq!(json_number(0.004639011), "0.004639011");
        assert_eq!(json_number(f64::INFINITY), "null");
    }
}
