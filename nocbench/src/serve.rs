//! The `serve-mix` workload: one in-process daemon on 127.0.0.1, one
//! client in a closed loop over a seeded, skewed request sequence.
//!
//! One op is one request/reply round trip over a real loopback socket.
//! The pool holds more distinct jobs than the in-memory cache, so the
//! sequence mixes memory hits, disk hits (certificate re-checked) and
//! misses (engine run plus certified disk commit).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use nocsyn_certify::{check_certificate, CheckOptions};
use nocsyn_engine::{Engine, Job, JobStatus};
use nocsyn_model::json::JsonValue;
use nocsyn_model::{canonical_schedule, format_schedule, Digest, ParseOptions};
use nocsyn_rng::Rng;
use nocsyn_serve::{
    job_fingerprint, parse_request, synth_json_object, CacheTier, Client, PatternKind, Request,
    ResultCache, ServeOptions, Server,
};
use nocsyn_synth::{AppPattern, SynthesisConfig, SynthesisRequest};
use nocsyn_workloads::suite;

use crate::stats::{median, ms, Spans};
use crate::synth::{accept_certificate, check_network};
use crate::Report;

/// Synthesis seeds per small paper pattern: 5 patterns × 8 seeds = 40
/// distinct jobs in the pool. The pool is fixed; the workload seed
/// draws the request sequence over it.
const SEEDS_PER_PATTERN: u64 = 8;
/// In-memory cache entries: below the pool size, so evicted entries
/// come back from disk.
pub const CAPACITY: usize = 8;
/// Zipf exponent of the request skew over the pool.
const SKEW: f64 = 1.0;
/// Requests every run completes, whatever `--seconds` says; the
/// deterministic counters cover exactly these.
pub const PREFIX: usize = 64;

/// Cache tier a reply names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// In-memory hit.
    Hit,
    /// Disk hit, certificate re-checked.
    Disk,
    /// Engine run and certified commit.
    Miss,
}

impl Tier {
    fn label(self) -> &'static str {
        match self {
            Tier::Hit => "hit",
            Tier::Disk => "disk",
            Tier::Miss => "miss",
        }
    }

    fn of(tier: CacheTier) -> Tier {
        match tier {
            CacheTier::Hit => Tier::Hit,
            CacheTier::Disk => Tier::Disk,
            CacheTier::Miss => Tier::Miss,
        }
    }

    fn of_reply(line: &str) -> Option<Tier> {
        [Tier::Hit, Tier::Disk, Tier::Miss]
            .into_iter()
            .find(|t| line.contains(&format!("\"cache\":\"{}\"", t.label())))
    }
}

/// A model of the server's two-tier cache on a fresh directory: an LRU
/// of `capacity` entries in memory, every inserted entry on disk.
#[derive(Debug)]
pub struct ShadowCache {
    capacity: usize,
    /// Least recent first.
    memory: VecDeque<usize>,
    disk: BTreeSet<usize>,
}

impl ShadowCache {
    /// An empty cache of `capacity` memory entries.
    pub fn new(capacity: usize) -> Self {
        ShadowCache {
            capacity,
            memory: VecDeque::new(),
            disk: BTreeSet::new(),
        }
    }

    /// The tier a request for `job` is served from, updating the model.
    pub fn access(&mut self, job: usize) -> Tier {
        if let Some(pos) = self.memory.iter().position(|&j| j == job) {
            self.memory.remove(pos);
            self.memory.push_back(job);
            return Tier::Hit;
        }
        let tier = if self.disk.insert(job) {
            Tier::Miss
        } else {
            Tier::Disk
        };
        self.memory.push_back(job);
        if self.memory.len() > self.capacity {
            self.memory.pop_front();
        }
        tier
    }
}

/// One distinct job of the pool.
#[derive(Debug, Clone)]
pub struct PoolJob {
    /// Case and seed, for messages.
    pub name: String,
    /// The pattern text.
    pub text: String,
    /// The request line sent to the daemon.
    pub line: String,
}

/// The seeded inputs: the job pool and an endless skewed sequence.
#[derive(Debug)]
pub struct Mix {
    /// Distinct jobs.
    pub pool: Vec<PoolJob>,
    rng: Rng,
    /// Job index by popularity rank.
    ranked: Vec<usize>,
    /// Cumulative Zipf weights by rank, normalized to 1.
    cdf: Vec<f64>,
}

impl Mix {
    /// The pool (8/9-node paper patterns × seeds, one restart) and the
    /// request sequence of workload seed `seed`.
    pub fn new(seed: u64) -> Mix {
        let mut rng = Rng::seed_from_u64(seed);
        let mut pool = Vec::new();
        for (bench, n, sched) in suite(false) {
            let text = format_schedule(&sched);
            for s in 1..=SEEDS_PER_PATTERN {
                let line = JsonValue::object([
                    ("op", JsonValue::from("synth")),
                    ("pattern", JsonValue::from(text.as_str())),
                    ("seed", JsonValue::from(s)),
                    ("restarts", JsonValue::from(1u64)),
                ])
                .to_string();
                pool.push(PoolJob {
                    name: format!("{}{n}/seed={s}", bench.name()),
                    text: text.clone(),
                    line,
                });
            }
        }
        let mut ranked: Vec<usize> = (0..pool.len()).collect();
        rng.shuffle(&mut ranked);
        let weights: Vec<f64> = (1..=pool.len()).map(|r| (r as f64).powf(-SKEW)).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Mix {
            pool,
            rng,
            ranked,
            cdf,
        }
    }

    /// The next job of the sequence.
    pub fn next_job(&mut self) -> usize {
        let u = self.rng.gen_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.ranked[rank]
    }
}

/// A running daemon and its connected client.
struct Daemon {
    server: Arc<Server>,
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    client: Option<Client>,
    dir: PathBuf,
}

/// Default `ServeOptions` plus a disk tier in `dir` and an in-memory
/// capacity below the pool size.
fn options(dir: &Path) -> ServeOptions {
    ServeOptions {
        cache_capacity: CAPACITY,
        cache_dir: Some(dir.to_path_buf()),
        ..ServeOptions::default()
    }
}

impl Daemon {
    /// Builds the server (its startup recovery scan included), serves
    /// one connection on an ephemeral loopback port, and connects.
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let server = Arc::new(Server::new(options(&dir)));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let serving = Arc::clone(&server);
        let thread = std::thread::spawn(move || serving.serve_listener(&listener, true));
        let mut daemon = Daemon {
            server,
            addr,
            thread: Some(thread),
            client: None,
            dir,
        };
        daemon.client = Some(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
        Ok(daemon)
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("connected in start")
    }

    /// Closes the connection, which ends the daemon's single-connection
    /// accept loop, and joins it.
    fn stop(mut self) -> Result<(), String> {
        self.client = None;
        self.thread
            .take()
            .expect("joined only here")
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            // The accept loop ends when its one connection closes; open
            // a throwaway one if the client never connected.
            if self.client.take().is_none() {
                let _ = Client::connect(self.addr);
            }
            let _ = thread.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Inputs and a connected daemon, as the measured loop starts.
pub struct Setup {
    mix: Mix,
    daemon: Daemon,
}

/// Generates the inputs, builds the daemon on a fresh cache directory
/// `dir` and connects.
///
/// # Errors
///
/// Socket or directory failures.
pub fn setup(seed: u64, dir: PathBuf) -> Result<Setup, String> {
    let mix = Mix::new(seed);
    let daemon = Daemon::start(dir)?;
    Ok(Setup { mix, daemon })
}

/// Tears a setup down: closes the connection, joins the daemon and
/// removes its directory.
///
/// # Errors
///
/// The daemon's own I/O error, or a panic in its thread.
pub fn teardown(setup: Setup) -> Result<(), String> {
    setup.daemon.stop()
}

/// One completed round trip.
struct Sent {
    job: usize,
    tier: Tier,
    ms: f64,
    line: String,
}

/// The report object a synth reply splices in verbatim (its last field).
fn report_of(line: &str) -> &str {
    line.split_once("\"report\":")
        .and_then(|(_, rest)| rest.strip_suffix('}'))
        .unwrap_or("")
}

/// The reply's job fingerprint.
fn fingerprint_of(line: &str) -> Option<Digest> {
    line.split_once("\"fingerprint\":\"")
        .and_then(|(_, rest)| rest.split('"').next())
        .and_then(Digest::from_hex)
}

/// The synthesis request the daemon builds for a protocol request (the
/// fields the pool uses: pattern, seed, restarts).
fn synthesis_request(
    req: &nocsyn_serve::SynthRequest,
    pattern: AppPattern,
) -> Result<SynthesisRequest, String> {
    let mut config = SynthesisConfig::new();
    if let Some(s) = req.seed {
        config = config.with_seed(s);
    }
    let mut builder = SynthesisRequest::builder(pattern).config(config);
    if let Some(r) = req.restarts {
        builder = builder.restarts(usize::try_from(r).map_err(|e| e.to_string())?);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Deterministic facts of one distinct job.
#[derive(Debug, Clone)]
struct Facts {
    links: usize,
    switches: usize,
    constraints_met: bool,
    flows: usize,
    cliques: usize,
    cert_bytes: usize,
}

/// One pool job run in-process, as the daemon would run it.
struct InProcess {
    facts: Facts,
    report: String,
    fingerprint: Digest,
    cert: String,
}

/// Runs a pool job in-process and re-checks its network.
fn run_in_process(job: &PoolJob, verify: &mut Spans) -> Result<InProcess, String> {
    let Ok(Request::Synth(req)) = parse_request(&job.line) else {
        return Err("pool line is not a synth request".into());
    };
    let sched = ParseOptions::new()
        .parse_schedule(&req.pattern)
        .map_err(|e| e.to_string())?;
    let pattern = AppPattern::from_schedule(&sched);
    let request = synthesis_request(&req, pattern.clone())?;
    let fingerprint = job_fingerprint(PatternKind::Schedule, &canonical_schedule(&sched), &request);
    let outcome = Engine::new()
        .with_workers(1)
        .run(vec![Job::new(job.name.clone(), request.clone())])
        .pop()
        .expect("one job in, one outcome out");
    let Some(result) = outcome
        .result
        .as_ref()
        .filter(|_| outcome.status == JobStatus::Completed)
    else {
        return Err("in-process run did not complete".into());
    };
    check_network(
        &pattern,
        result,
        request.config().max_degree(),
        Some(verify),
    )?;
    let r = &result.report;
    let cert = result.certificate(&pattern, Some(fingerprint)).to_json();
    Ok(InProcess {
        facts: Facts {
            links: r.n_links,
            switches: r.n_switches,
            constraints_met: r.constraints_met,
            flows: pattern.flows().len(),
            cliques: pattern.cliques().len(),
            cert_bytes: cert.len(),
        },
        report: synth_json_object(&request, &outcome),
        fingerprint,
        cert,
    })
}

/// Checks a served job against its in-process run: same fingerprint,
/// the served report byte for byte, and a disk certificate identical to
/// the in-process one and accepted by the independent checker bound to
/// the fingerprint.
fn check_served(job: &PoolJob, reply: &str, dir: &Path, own: &InProcess) -> Result<(), String> {
    if fingerprint_of(reply) != Some(own.fingerprint) {
        return Err("the reply's fingerprint is not the job's".into());
    }
    if report_of(reply) != own.report {
        return Err("served report differs from an in-process run".into());
    }
    let cert = std::fs::read_to_string(dir.join(format!("{}.cert.json", own.fingerprint.to_hex())))
        .map_err(|e| format!("reading its certificate: {e}"))?;
    if cert != own.cert {
        return Err("the daemon's certificate differs from an in-process one".into());
    }
    accept_certificate(&job.text, &cert, &own.fingerprint)
}

/// Runs the closed loop for `seconds` (at least [`PREFIX`] requests),
/// checks every reply, and fills `report`. A traced run then replays the
/// same requests in-process: once through `Server::handle_line` on a
/// fresh daemon, once through the daemon's public layers one by one.
pub fn measure(mut setup: Setup, seconds: f64, trace: bool, scratch: &Path, report: &mut Report) {
    let mut shadow = ShadowCache::new(CAPACITY);
    let mut miss_reply: BTreeMap<usize, String> = BTreeMap::new();
    let mut sent: Vec<Sent> = Vec::new();
    let start = Instant::now();
    let mut requests = 0;
    while requests < PREFIX || start.elapsed().as_secs_f64() < seconds {
        requests += 1;
        let job = setup.mix.next_job();
        let predicted = shadow.access(job);
        report.attempted += 1;
        let t = Instant::now();
        let reply = setup.daemon.client().request(&setup.mix.pool[job].line);
        let elapsed = ms(t.elapsed());
        let name = &setup.mix.pool[job].name;
        let line = match reply {
            Ok(line) => line,
            Err(e) => {
                report.fail(format!("{name}: request failed: {e}"));
                break;
            }
        };
        let checked = match Tier::of_reply(&line).filter(|_| line.contains("\"status\":\"ok\"")) {
            None => Err(format!("{name}: not an ok synth reply: {line}")),
            Some(t) if t != predicted => Err(format!(
                "{name}: served from {} where the cache model predicts {}",
                t.label(),
                predicted.label()
            )),
            Some(Tier::Miss) => {
                miss_reply.insert(job, line.clone());
                Ok(Tier::Miss)
            }
            Some(t) => {
                let marker = format!("\"cache\":\"{}\"", t.label());
                match miss_reply.get(&job) {
                    Some(miss) if line.replace(&marker, "\"cache\":\"miss\"") == *miss => Ok(t),
                    _ => Err(format!(
                        "{name}: {} reply differs from its miss reply",
                        t.label()
                    )),
                }
            }
        };
        match checked {
            Ok(tier) => sent.push(Sent {
                job,
                tier,
                ms: elapsed,
                line,
            }),
            Err(e) => report.fail(e),
        }
    }

    // Independent checks after the clock stops: every pool job runs
    // in-process, and each one the daemon served must match it.
    let mut verify = Spans::default();
    let mut facts: Vec<Facts> = Vec::new();
    for (j, job) in setup.mix.pool.iter().enumerate() {
        let checked = run_in_process(job, &mut verify).and_then(|own| {
            if let Some(reply) = miss_reply.get(&j) {
                check_served(job, reply, &setup.daemon.dir, &own)?;
            }
            Ok(own.facts)
        });
        match checked {
            Ok(f) => facts.push(f),
            Err(e) => report.fail(format!("{}: {e}", job.name)),
        }
    }
    let pool = setup.mix.pool.clone();
    let socket_stats = setup.daemon.server.cache_stats();
    if let Err(e) = teardown(setup) {
        report.fail(e);
    }

    // Deterministic counters: the pool, and the fixed prefix every run
    // completes.
    let prefix = &sent[..PREFIX.min(sent.len())];
    let tier_count = |tier: Tier| prefix.iter().filter(|s| s.tier == tier).count();
    let sum = |f: fn(&Facts) -> usize| facts.iter().map(f).sum::<usize>();
    let unmet = facts.iter().filter(|f| !f.constraints_met).count();
    report.counter("pool_jobs", pool.len());
    report.counter("pool_jobs_checked", facts.len());
    report.counter("cache_capacity", CAPACITY);
    report.counter("links", sum(|f| f.links));
    report.counter("switches", sum(|f| f.switches));
    report.counter("unmet_jobs", unmet);
    report.counter("pattern_flows", sum(|f| f.flows));
    report.counter("cert_bytes", sum(|f| f.cert_bytes));
    report.counter("prefix_requests", prefix.len());
    report.counter("prefix_hits", tier_count(Tier::Hit));
    report.counter("prefix_disk_hits", tier_count(Tier::Disk));
    report.counter("prefix_misses", tier_count(Tier::Miss));
    report.counter(
        "prefix_sequence",
        prefix
            .iter()
            .map(|s| s.job.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );

    let lat: Vec<f64> = sent.iter().map(|s| s.ms).collect();
    let tier_lat = |tier: Tier| -> Vec<f64> {
        sent.iter()
            .filter(|s| s.tier == tier)
            .map(|s| s.ms)
            .collect()
    };
    report.metric(
        "ops_per_s",
        lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    report.metric_opt("op_p50_ms", median(&lat), "ms");
    report.p95("op_p95_ms", &lat);
    report.metric_opt("hit_p50_ms", median(&tier_lat(Tier::Hit)), "ms");
    report.metric_opt("disk_p50_ms", median(&tier_lat(Tier::Disk)), "ms");
    report.metric_opt("miss_p50_ms", median(&tier_lat(Tier::Miss)), "ms");
    report.metric("links", sum(|f| f.links) as f64, "count");
    report.metric("switches", sum(|f| f.switches) as f64, "count");
    report.metric(
        "unmet_frac",
        unmet as f64 / facts.len().max(1) as f64,
        "ratio",
    );
    report.note(format!(
        "tiers over {} requests: {} hit, {} disk, {} miss",
        sent.len(),
        socket_stats.hits,
        socket_stats.disk_hits,
        socket_stats.misses
    ));

    if trace && !sent.is_empty() {
        if let Err(e) = replay(&sent, &pool, &facts, scratch, &verify, report) {
            report.fail(e);
        }
    }
}

/// The traced replays of the executed sequence and the per-layer
/// metrics they give.
fn replay(
    sent: &[Sent],
    pool: &[PoolJob],
    facts: &[Facts],
    scratch: &Path,
    verify: &Spans,
    report: &mut Report,
) -> Result<(), String> {
    // Through the daemon's request handler, on a fresh daemon.
    let dir = scratch.join("serve-replay-handler");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = Server::new(options(&dir));
    let mut handle = Spans::default();
    let mut socket = Vec::with_capacity(sent.len());
    let handler_start = Instant::now();
    for s in sent {
        let t = Instant::now();
        let reply = server.handle_line(&pool[s.job].line);
        let elapsed = t.elapsed();
        if reply.line != s.line {
            return Err(format!(
                "{}: handle_line reply differs from the socket reply",
                pool[s.job].name
            ));
        }
        handle.add(
            match s.tier {
                Tier::Hit => "handle.hit",
                Tier::Disk => "handle.disk",
                Tier::Miss => "handle.miss",
            },
            elapsed,
        );
        socket.push(s.ms - ms(elapsed));
    }
    let handler_ms = ms(handler_start.elapsed());
    let stats = server.cache_stats();
    drop(server);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // Through the daemon's public layers one by one, on a fresh cache.
    let dir = scratch.join("serve-replay-layers");
    let mut cache = ResultCache::new(CAPACITY).with_dir(dir.clone());
    cache.recover();
    let engine = Engine::new().with_workers(1);
    let check = CheckOptions::new();
    let mut spans = Spans::default();
    let mut cert_check = Spans::default();
    let layers_start = Instant::now();
    for s in sent {
        let line = &pool[s.job].line;
        let Ok(Request::Synth(req)) = spans.time("proto", || parse_request(line)) else {
            return Err("pool line is not a synth request".into());
        };
        let sched = spans
            .time("parse", || ParseOptions::new().parse_schedule(&req.pattern))
            .map_err(|e| e.to_string())?;
        let pattern = spans.time("pattern", || AppPattern::from_schedule(&sched));
        let request = synthesis_request(&req, pattern.clone())?;
        let (canonical, fp) = spans.time("fingerprint", || {
            let canonical = canonical_schedule(&sched);
            let fp = job_fingerprint(PatternKind::Schedule, &canonical, &request);
            (canonical, fp)
        });
        let t = Instant::now();
        let found = cache.lookup_certified(&fp, |cert| {
            cert_check.time("cert_check", || {
                check_certificate(&canonical, cert, Some(&fp), &check).is_ok()
            })
        });
        let tier = found
            .as_ref()
            .map_or(Tier::Miss, |(_, tier)| Tier::of(*tier));
        spans.add(
            match tier {
                Tier::Hit => "lookup.hit",
                Tier::Disk => "lookup.disk",
                Tier::Miss => "lookup.miss",
            },
            t.elapsed(),
        );
        let served = match found {
            Some((report, _)) => report,
            None => {
                let outcome = spans
                    .time("engine", || {
                        engine.run(vec![Job::new("synth", request.clone())])
                    })
                    .pop()
                    .expect("one job in, one outcome out");
                let result = outcome.result.as_ref().ok_or("engine returned no result")?;
                let report = spans.time("render", || synth_json_object(&request, &outcome));
                let cert = spans.time("cert_emit", || {
                    result.certificate(&pattern, Some(fp)).to_json()
                });
                spans.time("insert", || {
                    cache.insert_with_cert(fp, report.clone(), Some(cert))
                });
                report
            }
        };
        if tier != s.tier || served != report_of(&s.line) {
            return Err(format!(
                "{}: layer-by-layer replay disagrees with the daemon",
                pool[s.job].name
            ));
        }
    }
    let layers_ms = ms(layers_start.elapsed());
    drop(cache);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let med = |spans: &Spans, name: &str| median(&spans.samples(name)).unwrap_or(0.0);
    let sum = |f: fn(&Facts) -> usize| facts.iter().map(f).sum::<usize>();
    report.metric("parse.ms", med(&spans, "parse"), "ms");
    report.metric("parse.calls", spans.calls("parse") as f64, "count");
    report.metric("pattern.ms", med(&spans, "pattern"), "ms");
    report.metric("pattern.flows", sum(|f| f.flows) as f64, "count");
    report.metric("pattern.cliques", sum(|f| f.cliques) as f64, "count");
    report.metric("engine.ms", med(&spans, "engine"), "ms");
    report.metric("verify.ms", med(verify, "verify"), "ms");
    report.metric("cert_emit.ms", med(&spans, "cert_emit"), "ms");
    report.metric("cert.bytes", sum(|f| f.cert_bytes) as f64, "count");
    report.metric("cert_check.ms", med(&cert_check, "cert_check"), "ms");
    report.metric("render.ms", med(&spans, "render"), "ms");
    report.metric("proto.ms", med(&spans, "proto"), "ms");
    report.metric("fingerprint.ms", med(&spans, "fingerprint"), "ms");
    report.metric("cache.lookup_ms.hit", med(&spans, "lookup.hit"), "ms");
    report.metric("cache.lookup_ms.disk", med(&spans, "lookup.disk"), "ms");
    report.metric("cache.lookup_ms.miss", med(&spans, "lookup.miss"), "ms");
    report.metric("cache.insert_ms", med(&spans, "insert"), "ms");
    report.metric("cache.hits", stats.hits as f64, "count");
    report.metric("cache.disk_hits", stats.disk_hits as f64, "count");
    report.metric("cache.misses", stats.misses as f64, "count");
    report.metric("cache.cert_errors", stats.cert_errors as f64, "count");
    report.metric("handle.ms.hit", med(&handle, "handle.hit"), "ms");
    report.metric("handle.ms.disk", med(&handle, "handle.disk"), "ms");
    report.metric("handle.ms.miss", med(&handle, "handle.miss"), "ms");
    report.metric_opt("socket.ms", median(&socket), "ms");
    let op_ms: f64 = sent.iter().map(|s| s.ms).sum();
    report.metric("coverage", spans.sum_ms() / op_ms, "ratio");
    report.metric("trace.overhead", layers_ms / handler_ms - 1.0, "ratio");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_lru_predicts_hits_disk_hits_and_misses() {
        let mut c = ShadowCache::new(2);
        let tiers: Vec<Tier> = [0, 1, 0, 2, 1, 0, 2, 3, 0]
            .into_iter()
            .map(|j| c.access(j))
            .collect();
        use Tier::*;
        // 2 evicts 1 (0 was touched); 1 comes back from disk and evicts
        // 0; 0 from disk evicts 2; 2 from disk evicts 1; 3 is new and
        // evicts 0, which then comes back from disk.
        assert_eq!(tiers, [Miss, Miss, Hit, Miss, Disk, Disk, Disk, Miss, Disk]);
    }

    #[test]
    fn predicted_tiers_match_the_daemon_cache() {
        let dir =
            PathBuf::from(".nocbench-tmp").join(format!("shadow-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::new(options(&dir));
        let mut mix = Mix::new(3);
        let mut shadow = ShadowCache::new(CAPACITY);
        let mut predicted = [0u64; 3];
        for _ in 0..120 {
            let job = mix.next_job();
            let tier = shadow.access(job);
            predicted[tier as usize] += 1;
            let reply = server.handle_line(&mix.pool[job].line);
            assert_eq!(Tier::of_reply(&reply.line), Some(tier));
        }
        let stats = server.cache_stats();
        assert_eq!(
            [stats.hits, stats.disk_hits, stats.misses],
            predicted,
            "hit/disk/miss counts"
        );
        assert!(predicted.iter().all(|&n| n > 0), "all three tiers occur");
        assert_eq!(stats.cert_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(".nocbench-tmp");
    }

    #[test]
    fn the_sequence_is_seeded_and_skewed() {
        let draw = |seed| {
            let mut mix = Mix::new(seed);
            (0..400).map(|_| mix.next_job()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let seq = draw(1);
        let mut counts = BTreeMap::new();
        for j in &seq {
            *counts.entry(*j).or_insert(0) += 1;
        }
        let top = counts.values().max().copied().unwrap_or(0);
        assert!(top > 400 / 40 * 3, "the most popular job dominates: {top}");
    }
}
