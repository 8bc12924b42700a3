//! nocbench: the repository benchmark. Runs one workload for a fixed
//! time, checks every output, and prints each metric by name with its
//! unit, a deterministic counter block, the host, and — as its last
//! line — one JSON object with the metrics `BENCHMARK.json` declares.
//!
//! ```text
//! cargo run --release --offline --manifest-path nocbench/Cargo.toml -- \
//!     --workload paper-suite --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` times calls
//! into each layer's public functions from here and reports the
//! per-layer metrics. The exit code is non-zero when any check fails.

mod scale;
mod serve;
mod stats;
mod synth;

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use stats::{median, p95_with_tail};

/// The end-to-end metrics `BENCHMARK.json` declares, with their units:
/// every workload reports each of them with `--trace 0`. `op_p50_ms` is
/// printed but not declared: on `paper-suite` it falls between two case
/// groups and spreads about as wide as the largest bound allowed.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("links", "count"),
    ("switches", "count"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics `BENCHMARK.json` declares, with their units:
/// every workload reports each of them with `--trace 1`. A layer the
/// workload does not call did no work and reports 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("parse.ms", "ms"),
    ("parse.calls", "count"),
    ("pattern.ms", "ms"),
    ("pattern.flows", "count"),
    ("pattern.cliques", "count"),
    ("search.ms", "ms"),
    ("search.attempts", "count"),
    ("search.moves_tried", "count"),
    ("search.move_accept_ratio", "ratio"),
    ("search.reroutes_tried", "count"),
    ("search.reroute_accept_ratio", "ratio"),
    ("search.reroutes_neutral", "count"),
    ("search.reroute_probes_per_s", "1/s"),
    ("search.BT9.ms", "ms"),
    ("search.CG8.ms", "ms"),
    ("search.FFT8.ms", "ms"),
    ("search.MG8.ms", "ms"),
    ("search.SP9.ms", "ms"),
    ("search.BT16.ms", "ms"),
    ("search.CG16.ms", "ms"),
    ("search.FFT16.ms", "ms"),
    ("search.MG16.ms", "ms"),
    ("search.SP16.ms", "ms"),
    ("engine.ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("engine.busy_ratio", "ratio"),
    ("cluster.ms", "ms"),
    ("cluster.cut_flows", "count"),
    ("stitch.ms", "ms"),
    ("stitch.links", "count"),
    ("verify.ms", "ms"),
    ("cert_emit.ms", "ms"),
    ("cert.bytes", "count"),
    ("cert_check.ms", "ms"),
    ("render.ms", "ms"),
    ("proto.ms", "ms"),
    ("fingerprint.ms", "ms"),
    ("cache.lookup_ms.hit", "ms"),
    ("cache.lookup_ms.disk", "ms"),
    ("cache.lookup_ms.miss", "ms"),
    ("cache.insert_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.cert_errors", "count"),
    ("handle.ms.hit", "ms"),
    ("handle.ms.disk", "ms"),
    ("handle.ms.miss", "ms"),
    ("socket.ms", "ms"),
    ("coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Times each workload's set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops started.
    pub attempted: u64,
    /// Ops that errored or failed a check.
    pub failed: u64,
    counters: Vec<(String, String)>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one failed op, with the reason on stderr.
    pub fn fail(&mut self, why: String) {
        eprintln!("nocbench: check failed: {why}");
        self.failed += 1;
    }

    /// Records a deterministic counter.
    pub fn counter(&mut self, name: &str, value: impl Display) {
        self.counters.push((name.to_string(), value.to_string()));
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a metric, or a note saying why it has no value.
    pub fn metric_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.metric(name, v, unit),
            None => self.note(format!("{name} n/a: no samples")),
        }
    }

    /// Records the 95th percentile where at least ten samples lie
    /// beyond it, stating the sample count either way.
    pub fn p95(&mut self, name: &str, samples: &[f64]) {
        match p95_with_tail(samples) {
            Some(v) => {
                self.metric(name, v, "ms");
                self.note(format!("{name} over n={} samples", samples.len()));
            }
            None => self.note(format!(
                "{name} n/a: fewer than {} of n={} samples lie beyond p95",
                stats::MIN_TAIL,
                samples.len()
            )),
        }
    }

    /// Records a free-form line of the human report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn value(&self, name: &str) -> Option<(f64, &'static str)> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, u)| (*v, *u))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The first line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host a timing was measured on.
fn host() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host nproc={} available_parallelism={parallelism} cpu=\"{cpu}\" rustc=\"{}\" commit={}",
        command_line("nproc", &[]),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

/// Peak resident set size in MB, from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Runs `build` [`SETUP_REPS`] times, tearing down all but the last
/// result, and returns it with the median set-up time in seconds.
fn timed_setup<T>(
    mut build: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let start = Instant::now();
        last = Some(build(rep)?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("SETUP_REPS > 0"),
        median(&secs).expect("SETUP_REPS > 0"),
    ))
}

/// Runs the workload; `Err` means it could not run at all.
fn run(args: &Args, scratch: &Path, report: &mut Report) -> Result<f64, String> {
    match args.workload.as_str() {
        "paper-suite" | "scale-decomposed" => {
            let build = |_| match args.workload.as_str() {
                "paper-suite" => Ok(synth::paper_suite(args.seed)),
                _ => synth::scale_decomposed(args.seed),
            };
            let (w, setup_s) = timed_setup(build, |_| Ok(()))?;
            synth::measure(&w, args.seconds, args.trace, report);
            Ok(setup_s)
        }
        "serve-mix" => {
            let (setup, setup_s) = timed_setup(
                |rep| serve::setup(args.seed, scratch.join(format!("serve-{rep}"))),
                serve::teardown,
            )?;
            serve::measure(setup, args.seconds, args.trace, scratch, report);
            Ok(setup_s)
        }
        other => Err(format!(
            "unknown workload {other:?} (paper-suite, scale-decomposed, serve-mix)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nocbench: {e}");
            eprintln!(
                "usage: nocbench --workload <paper-suite|scale-decomposed|serve-mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Scratch space for the daemon's disk cache, inside the working
    // directory and removed on exit.
    let scratch = PathBuf::from(".nocbench-tmp").join(std::process::id().to_string());
    let mut report = Report::default();
    let ran = run(&args, &scratch, &mut report);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".nocbench-tmp");
    let setup_s = match ran {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nocbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.metric("setup_s", setup_s, "s");
    match peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
        None => report.note("peak_rss_mb n/a: no VmHWM in /proc/self/status".into()),
    }

    println!(
        "nocbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host());
    println!("counters workload={} seed={}", args.workload, args.seed);
    for (name, value) in &report.counters {
        println!("  {name} {value}");
    }
    println!("end counters");
    for (name, value, unit) in &report.metrics {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "metric failed_frac {} ratio ({} of {} ops)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for note in &report.notes {
        println!("note {note}");
    }

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(declared.len());
    let mut complete = true;
    for &(name, unit) in declared {
        let value = match report.value(name) {
            Some((v, u)) if u == unit && v.is_finite() => v,
            Some((v, u)) => {
                eprintln!("nocbench: metric {name} reads {v} {u}, declared in {unit}");
                complete = false;
                continue;
            }
            None if args.trace => 0.0,
            None => {
                eprintln!("nocbench: end-to-end metric {name} was not measured");
                complete = false;
                continue;
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.failed == 0 && complete && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
