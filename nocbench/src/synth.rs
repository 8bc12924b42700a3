//! The certified-synthesis workloads: `paper-suite` and
//! `scale-decomposed`.
//!
//! One op is what a `synth --emit-cert` plus `certify` user waits for:
//! pattern text → parse → `AppPattern` → `Engine::run` → report object →
//! job fingerprint → certificate → `check_certificate` bound to the
//! fingerprint.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use nocsyn_certify::{check_certificate, CheckOptions};
use nocsyn_engine::{Engine, Job, JobOutcome, JobStatus};
use nocsyn_model::{canonical_schedule, format_schedule, Digest, ParseOptions};
use nocsyn_rng::Rng;
use nocsyn_serve::{job_fingerprint, synth_json_object, PatternKind};
use nocsyn_synth::{
    auto_cluster_count, cluster_config, cluster_pattern, portfolio_rank, stitch,
    synthesize_attempt, AppPattern, SynthesisConfig, SynthesisMode, SynthesisRequest,
    SynthesisResult,
};
use nocsyn_topo::verify_contention_free;
use nocsyn_workloads::suite;

use crate::scale::{block_schedule, cross_block_flows};
use crate::stats::{median, ms, Spans};
use crate::Report;

/// Locality block of the scale patterns: the 16-process neighborhood
/// `auto_cluster_count` assumes, so the affinity cut can recover it.
const BLOCK: usize = 16;
/// Phases per scale pattern.
const SCALE_PHASES: usize = 2;
/// Sizes of the scale patterns, each with its own generated traffic.
/// Twelve 128-process patterns and two 256-process ones: fourteen
/// patterns average out how hard any one generated pattern is, and with
/// most ops in one size class `op_p50_ms` falls inside it instead of in
/// the gap between two.
const SCALE_SIZES: [usize; 14] = [
    128, 128, 128, 256, 128, 128, 128, 128, 128, 128, 256, 128, 128, 128,
];

/// One distinct synthesis job of a workload.
#[derive(Debug, Clone)]
pub struct SynthJob {
    /// Case name (`FFT16`, `blk256-1`, ...), as `search.<name>.ms`
    /// reports it.
    name: String,
    /// The pattern text the op starts from.
    text: String,
    config: SynthesisConfig,
    mode: SynthesisMode,
    /// Cross-block flows the generator delivered (scale patterns only).
    cross_flows: usize,
}

/// A workload's inputs and engine.
#[derive(Debug)]
pub struct SynthWorkload {
    /// Distinct jobs, in op order.
    jobs: Vec<SynthJob>,
    engine: Engine,
}

/// Builds the `paper-suite` inputs: the ten NAS configurations, flat,
/// default config (its seed included), one engine worker, as the CLI
/// runs them. The evaluation set is fixed, so the workload seed only
/// orders it and the run-to-run spread is timing noise alone.
pub fn paper_suite(seed: u64) -> SynthWorkload {
    let mut jobs: Vec<SynthJob> = [false, true]
        .into_iter()
        .flat_map(suite)
        .map(|(bench, n, sched)| SynthJob {
            name: format!("{}{n}", bench.name()),
            text: format_schedule(&sched),
            config: SynthesisConfig::new(),
            mode: SynthesisMode::Flat,
            cross_flows: 0,
        })
        .collect();
    Rng::seed_from_u64(seed).shuffle(&mut jobs);
    SynthWorkload {
        jobs,
        engine: Engine::new().with_workers(1),
    }
}

/// Builds the `scale-decomposed` inputs: 128- and 256-process
/// block-local permutation patterns with cross-block target swaps,
/// decomposed with auto clusters, two engine workers.
///
/// # Errors
///
/// When the affinity cut does not sever exactly the delivered
/// cross-block flows, or the generator delivered none.
pub fn scale_decomposed(seed: u64) -> Result<SynthWorkload, String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut jobs = Vec::new();
    for (i, n) in SCALE_SIZES.into_iter().enumerate() {
        let sched = block_schedule(n, BLOCK, SCALE_PHASES, n / 32, &mut rng);
        let pattern = AppPattern::from_schedule(&sched);
        let delivered = cross_block_flows(&pattern, BLOCK);
        let plan = cluster_pattern(&pattern, auto_cluster_count(n)).map_err(|e| e.to_string())?;
        let cut = plan.cut_flows().len();
        if delivered == 0 || cut != delivered {
            return Err(format!(
                "blk{n}-{i}: generator delivered {delivered} cross-block flows, the cut severs {cut}"
            ));
        }
        jobs.push(SynthJob {
            name: format!("blk{n}-{i}"),
            text: format_schedule(&sched),
            config: SynthesisConfig::new().with_seed(rng.next_u64()),
            mode: SynthesisMode::Decomposed { clusters: None },
            cross_flows: delivered,
        });
    }
    Ok(SynthWorkload {
        jobs,
        engine: Engine::new().with_workers(2),
    })
}

/// Everything one op produced.
struct Op {
    pattern: AppPattern,
    outcome: JobOutcome,
    report: String,
    fingerprint: String,
    cert_bytes: usize,
}

impl Op {
    fn result(&self) -> &SynthesisResult {
        self.outcome
            .result
            .as_ref()
            .expect("run_op returns only outcomes with a result")
    }
}

/// Runs `f`, charging its wall time to `name` when tracing.
fn timed<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

/// Runs one op, timing each public call into `spans` when tracing.
fn run_op(engine: &Engine, job: &SynthJob, mut spans: Option<&mut Spans>) -> Result<Op, String> {
    let s = &mut spans;
    let sched = timed(s, "parse", || ParseOptions::new().parse_schedule(&job.text))
        .map_err(|e| format!("{}: parse: {e}", job.name))?;
    let pattern = timed(s, "pattern", || AppPattern::from_schedule(&sched));
    let request = SynthesisRequest::builder(pattern.clone())
        .config(job.config.clone())
        .mode(job.mode)
        .build()
        .map_err(|e| format!("{}: request: {e}", job.name))?;
    let outcome = timed(s, "engine", || {
        engine.run(vec![Job::new(job.name.clone(), request.clone())])
    })
    .pop()
    .expect("one job in, one outcome out");
    let Some(result) = outcome
        .result
        .as_ref()
        .filter(|_| outcome.status == JobStatus::Completed)
    else {
        return Err(format!(
            "{}: engine status {}",
            job.name,
            outcome.status.label()
        ));
    };
    let report = timed(s, "render", || synth_json_object(&request, &outcome));
    let fp = timed(s, "fingerprint", || {
        job_fingerprint(PatternKind::Schedule, &canonical_schedule(&sched), &request)
    });
    let cert = timed(s, "cert_emit", || {
        result.certificate(&pattern, Some(fp)).to_json()
    });
    timed(s, "cert_check", || {
        accept_certificate(&job.text, &cert, &fp)
    })
    .map_err(|e| format!("{}: {e}", job.name))?;
    Ok(Op {
        pattern,
        outcome,
        report,
        fingerprint: fp.to_hex(),
        cert_bytes: cert.len(),
    })
}

/// The deterministic facts of one job's result.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Facts {
    report: String,
    fingerprint: String,
    links: usize,
    switches: usize,
    constraints_met: bool,
    moves_tried: usize,
    reroutes_tried: usize,
    cut_flows: usize,
    flows: usize,
    cliques: usize,
    cert_bytes: usize,
}

/// Accepts `cert` only when the independent checker validates it
/// against the pattern text, bound to job fingerprint `fp`, and it proves
/// contention freedom.
pub fn accept_certificate(pattern_text: &str, cert: &str, fp: &Digest) -> Result<(), String> {
    match check_certificate(pattern_text, cert, Some(fp), &CheckOptions::new()) {
        Err(e) => Err(format!("certificate rejected: {e}")),
        Ok(s) if !s.contention_free => Err("certificate proves contention".into()),
        Ok(_) => Ok(()),
    }
}

/// Re-checks a returned network: Theorem 1 on its routes, and the degree
/// bound recomputed from the network wherever `constraints_met` is
/// claimed (the certificate does not cover it). Charges the Theorem-1
/// check to `verify` in `spans` when given.
pub fn check_network(
    pattern: &AppPattern,
    result: &SynthesisResult,
    max_degree: usize,
    spans: Option<&mut Spans>,
) -> Result<(), String> {
    let start = Instant::now();
    let theorem1 = verify_contention_free(pattern.contention(), &result.routes);
    if let Some(s) = spans {
        s.add("verify", start.elapsed());
    }
    if !theorem1.is_contention_free() || !result.report.contention_free {
        return Err("Theorem 1 fails on the returned routes".into());
    }
    let r = &result.report;
    let degree = result.network.max_degree();
    if r.max_degree != degree || (r.constraints_met && degree > max_degree) {
        return Err(format!(
            "claims constraints_met={} max_degree={} but the network's degree is {degree} (bound {max_degree})",
            r.constraints_met, r.max_degree
        ));
    }
    Ok(())
}

/// The independent output checks, run after the op's clock stops: the
/// network re-checks, and on decomposed jobs the cut the engine made
/// against the generator's cross-block flows.
fn check_op(job: &SynthJob, op: &Op, spans: Option<&mut Spans>) -> Result<Facts, String> {
    let result = op.result();
    check_network(&op.pattern, result, job.config.max_degree(), spans)
        .map_err(|e| format!("{}: {e}", job.name))?;
    let cut_flows = op.outcome.decomposition.map_or(0, |d| d.cut_flows);
    if cut_flows != job.cross_flows {
        return Err(format!(
            "{}: result cut {cut_flows} flows, the generator delivered {}",
            job.name, job.cross_flows
        ));
    }
    let r = &result.report;
    Ok(Facts {
        report: op.report.clone(),
        fingerprint: op.fingerprint.clone(),
        links: r.n_links,
        switches: r.n_switches,
        constraints_met: r.constraints_met,
        moves_tried: r.moves_tried,
        reroutes_tried: r.reroutes_tried,
        cut_flows,
        flows: op.pattern.flows().len(),
        cliques: op.pattern.cliques().len(),
        cert_bytes: op.cert_bytes,
    })
}

/// Re-runs the job's search outside the engine, one timed
/// `synthesize_attempt` per attempt reduced by `portfolio_rank` (ties on
/// the attempt index), clustering and stitching the same way a
/// decomposed job does, and checks it selects the engine's result.
fn search_probe(
    job: &SynthJob,
    op: &Op,
    spans: &mut Spans,
    search: &mut SearchCounts,
) -> Result<(), String> {
    let config = &job.config;
    let mut best_of = |pattern: &AppPattern, config: &SynthesisConfig, spans: &mut Spans| {
        let mut best: Option<SynthesisResult> = None;
        for attempt in 0..config.restarts().max(1) {
            let start = Instant::now();
            let r = synthesize_attempt(pattern, config, attempt).map_err(|e| e.to_string())?;
            let elapsed = start.elapsed();
            spans.add("search", elapsed);
            search.add(&r, elapsed);
            if best
                .as_ref()
                .is_none_or(|b| portfolio_rank(&r) < portfolio_rank(b))
            {
                best = Some(r);
            }
        }
        Ok::<_, String>(best.expect("at least one attempt runs"))
    };
    let selected = match op.outcome.decomposition {
        None => best_of(&op.pattern, config, spans)?,
        Some(_) => {
            let k = auto_cluster_count(op.pattern.n_procs());
            let plan = spans
                .time("cluster", || cluster_pattern(&op.pattern, k))
                .map_err(|e| e.to_string())?;
            let parts = plan
                .clusters()
                .iter()
                .enumerate()
                .map(|(ci, c)| best_of(c.pattern(), &cluster_config(config, ci), spans))
                .collect::<Result<Vec<_>, _>>()?;
            let (stitched, summary) = spans
                .time("stitch", || stitch(&op.pattern, &plan, &parts, config))
                .map_err(|e| e.to_string())?;
            search.cut_flows += plan.cut_flows().len();
            search.stitch_links += summary.stitch_links;
            stitched
        }
    };
    if selected.report != op.result().report {
        return Err("the per-attempt search selected a different result than Engine::run".into());
    }
    Ok(())
}

/// Search counters summed over every attempt of the traced probe.
#[derive(Debug, Default)]
struct SearchCounts {
    attempts: usize,
    ms: f64,
    moves_tried: usize,
    moves_accepted: usize,
    reroutes_tried: usize,
    reroutes_accepted: usize,
    reroutes_neutral: usize,
    cut_flows: usize,
    stitch_links: usize,
}

impl SearchCounts {
    fn add(&mut self, r: &SynthesisResult, elapsed: Duration) {
        let s = &r.report;
        self.attempts += 1;
        self.ms += ms(elapsed);
        self.moves_tried += s.moves_tried;
        self.moves_accepted += s.moves_accepted;
        self.reroutes_tried += s.reroutes_tried;
        self.reroutes_accepted += s.reroutes_accepted;
        self.reroutes_neutral += s.reroutes_neutral;
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What a traced pass records besides the op's own calls.
#[derive(Debug, Default)]
struct Trace {
    /// Public calls made inside the op.
    op: Spans,
    /// Calls made after the op's clock stops: the checks and the
    /// per-attempt search probe.
    aux: Spans,
    search: SearchCounts,
    /// Probe search ms per job.
    per_case: BTreeMap<String, f64>,
}

/// Runs one pass over every job. Returns each op's wall time in ms, or
/// `None` where the op failed a check (counted into `report`).
fn pass(
    w: &SynthWorkload,
    first: &mut [Option<Facts>],
    report: &mut Report,
    mut trace: Option<&mut Trace>,
) -> Vec<Option<f64>> {
    let mut walls = Vec::with_capacity(w.jobs.len());
    for (i, job) in w.jobs.iter().enumerate() {
        report.attempted += 1;
        let start = Instant::now();
        let op = run_op(&w.engine, job, trace.as_mut().map(|t| &mut t.op));
        let wall = ms(start.elapsed());
        let checked = op.and_then(|op| {
            let facts = check_op(job, &op, trace.as_mut().map(|t| &mut t.aux))?;
            if let Some(t) = trace.as_mut() {
                let before = t.search.ms;
                search_probe(job, &op, &mut t.aux, &mut t.search)
                    .map_err(|e| format!("{}: {e}", job.name))?;
                *t.per_case.entry(job.name.clone()).or_default() += t.search.ms - before;
            }
            match &first[i] {
                None => first[i] = Some(facts),
                Some(f) if *f != facts => {
                    return Err(format!(
                        "{}: result differs from the same job's first run",
                        job.name
                    ))
                }
                Some(_) => {}
            }
            Ok(())
        });
        match checked {
            Ok(()) => walls.push(Some(wall)),
            Err(e) => {
                report.fail(e);
                walls.push(None);
            }
        }
    }
    walls
}

/// Measures `w` for `seconds` in whole passes (at least one) and fills
/// `report`. A traced run alternates an untraced pass, the baseline for
/// the tracing overhead, with a traced one.
pub fn measure(w: &SynthWorkload, seconds: f64, trace: bool, report: &mut Report) {
    let mut first: Vec<Option<Facts>> = vec![None; w.jobs.len()];
    let mut lat = Vec::new();
    let mut t = Trace::default();
    let (mut base_ms, mut traced_ms, mut traced_ops, mut passes) = (0.0, 0.0, 0usize, 0usize);
    let start = Instant::now();
    loop {
        let walls = pass(w, &mut first, report, None);
        if trace {
            let traced = pass(w, &mut first, report, Some(&mut t));
            for (b, tr) in walls.iter().zip(&traced) {
                if let (Some(b), Some(tr)) = (b, tr) {
                    base_ms += b;
                    traced_ms += tr;
                    traced_ops += 1;
                }
            }
        }
        passes += 1;
        lat.extend(walls.into_iter().flatten());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // Deterministic counters over the distinct jobs.
    let facts: Vec<&Facts> = first.iter().flatten().collect();
    let sum = |f: fn(&Facts) -> usize| facts.iter().map(|x| f(x)).sum::<usize>();
    let unmet = facts.iter().filter(|f| !f.constraints_met).count();
    report.counter("jobs", w.jobs.len());
    report.counter("jobs_checked", facts.len());
    report.counter("links", sum(|f| f.links));
    report.counter("switches", sum(|f| f.switches));
    report.counter("unmet_jobs", unmet);
    report.counter("moves_tried", sum(|f| f.moves_tried));
    report.counter("reroutes_tried", sum(|f| f.reroutes_tried));
    report.counter("cut_flows", sum(|f| f.cut_flows));
    report.counter("pattern_flows", sum(|f| f.flows));
    report.counter("pattern_cliques", sum(|f| f.cliques));
    report.counter("cert_bytes", sum(|f| f.cert_bytes));
    for (job, f) in w.jobs.iter().zip(&first) {
        if let Some(f) = f {
            report.counter(
                &format!("job.{}", job.name),
                format!(
                    "links={} switches={} met={} fp={}",
                    f.links, f.switches, f.constraints_met, f.fingerprint
                ),
            );
        }
    }

    let total_ms: f64 = lat.iter().sum();
    report.metric("ops_per_s", lat.len() as f64 / (total_ms / 1e3), "1/s");
    report.metric_opt("op_p50_ms", median(&lat), "ms");
    report.p95("op_p95_ms", &lat);
    report.metric("links", sum(|f| f.links) as f64, "count");
    report.metric("switches", sum(|f| f.switches) as f64, "count");
    report.metric("unmet_frac", ratio(unmet, facts.len()), "ratio");

    if !trace || traced_ops == 0 {
        return;
    }
    let n = traced_ops as f64;
    let op_ms = |name: &str| t.op.total_ms(name) / n;
    let aux_ms = |name: &str| t.aux.total_ms(name) / n;
    let per_pass = |count: usize| (count / passes) as f64;
    let s = &t.search;
    let workers = w.engine.workers() as f64;
    let engine_ms = op_ms("engine");
    let search_ms = aux_ms("search");
    report.metric("parse.ms", op_ms("parse"), "ms");
    report.metric("parse.calls", per_pass(t.op.calls("parse")), "count");
    report.metric("pattern.ms", op_ms("pattern"), "ms");
    report.metric("pattern.flows", sum(|f| f.flows) as f64, "count");
    report.metric("pattern.cliques", sum(|f| f.cliques) as f64, "count");
    report.metric("engine.ms", engine_ms, "ms");
    report.metric(
        "engine.overhead_ms",
        engine_ms - aux_ms("cluster") - search_ms / workers - aux_ms("stitch"),
        "ms",
    );
    report.metric(
        "engine.busy_ratio",
        search_ms / (workers * engine_ms),
        "ratio",
    );
    report.metric("search.ms", search_ms, "ms");
    report.metric("search.attempts", per_pass(s.attempts), "count");
    report.metric("search.moves_tried", per_pass(s.moves_tried), "count");
    report.metric(
        "search.move_accept_ratio",
        ratio(s.moves_accepted, s.moves_tried),
        "ratio",
    );
    report.metric("search.reroutes_tried", per_pass(s.reroutes_tried), "count");
    report.metric(
        "search.reroute_accept_ratio",
        ratio(s.reroutes_accepted, s.reroutes_tried),
        "ratio",
    );
    report.metric(
        "search.reroutes_neutral",
        per_pass(s.reroutes_neutral),
        "count",
    );
    report.metric(
        "search.reroute_probes_per_s",
        s.reroutes_tried as f64 / (s.ms / 1e3),
        "1/s",
    );
    for (case, total) in &t.per_case {
        report.metric(&format!("search.{case}.ms"), total / passes as f64, "ms");
    }
    report.metric("cluster.ms", aux_ms("cluster"), "ms");
    report.metric("cluster.cut_flows", per_pass(s.cut_flows), "count");
    report.metric("stitch.ms", aux_ms("stitch"), "ms");
    report.metric("stitch.links", per_pass(s.stitch_links), "count");
    report.metric("verify.ms", aux_ms("verify"), "ms");
    report.metric("cert_emit.ms", op_ms("cert_emit"), "ms");
    report.metric("cert.bytes", sum(|f| f.cert_bytes) as f64, "count");
    report.metric("cert_check.ms", op_ms("cert_check"), "ms");
    report.metric("render.ms", op_ms("render"), "ms");
    report.metric("fingerprint.ms", op_ms("fingerprint"), "ms");
    report.metric("coverage", t.op.sum_ms() / traced_ms, "ratio");
    report.metric("trace.overhead", traced_ms / base_ms - 1.0, "ratio");
}
