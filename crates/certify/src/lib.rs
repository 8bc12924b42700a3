//! The independent certificate checker behind `nocsyn certify`.
//!
//! This crate validates a contention-freedom
//! [`Certificate`] against the pattern text it
//! claims to speak about, using **set arithmetic only**: it re-derives the
//! potential contention set `C` and the maximum clique set `K` from the
//! pattern with `nocsyn-model` primitives, then checks every `C ∩ R = ∅`
//! obligation by intersecting the certificate's per-route channel-label
//! sets. It deliberately depends on nothing but `nocsyn-model` — no
//! synthesis, annealing, routing, or network code — so a bug in the
//! synthesizer cannot also hide in the checker (the crate dependency
//! graph enforces the trust boundary).
//!
//! Every rejection is typed and carries a stable kebab-case fingerprint,
//! so hostile certificates (fuzzed, tampered, or stale cache entries)
//! yield deterministic classifications rather than panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use nocsyn_model::{
    CertError, Certificate, CliqueSet, ContentionSet, Digest, Flow, FlowPair, ParseLimits,
    ParseOptions, ParseScheduleError,
};

/// Checker configuration: the resource budget applied to both the
/// certificate text and the pattern text.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    limits: ParseLimits,
}

impl CheckOptions {
    /// Default budgets (same defaults as pattern parsing).
    pub fn new() -> Self {
        CheckOptions::default()
    }

    /// Replaces the resource limits.
    #[must_use]
    pub fn with_limits(mut self, limits: ParseLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The configured limits.
    pub fn limits(&self) -> &ParseLimits {
        &self.limits
    }
}

/// One violated `C ∩ R = ∅` obligation found by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObligationViolation {
    /// The contention pair whose routes collide.
    pub pair: FlowPair,
    /// The channel labels shared by the two resource sets (sorted).
    pub shared: Vec<String>,
}

impl fmt::Display for ObligationViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} and {} share {}",
            self.pair.first(),
            self.pair.second(),
            self.shared.join(" ")
        )
    }
}

/// A successfully validated certificate, summarized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSummary {
    /// The (validated) verdict the certificate proves.
    pub contention_free: bool,
    /// The recomputed binding digest, hex.
    pub binding: String,
    /// Obligations checked for disjointness.
    pub n_obligations: usize,
    /// Routed flows covered by the certificate.
    pub n_routes: usize,
    /// Flows of the pattern (coverage denominator: a certificate may
    /// legitimately route fewer flows, e.g. after fault repair).
    pub n_flows: usize,
    /// Cliques in the recomputed (and matching) maximum clique set.
    pub n_cliques: usize,
    /// Declared-and-confirmed contention witnesses.
    pub n_witnesses: usize,
}

/// Why a certificate was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The certificate text failed bounded parsing.
    Cert(CertError),
    /// The pattern text failed bounded parsing.
    Pattern(ParseScheduleError),
    /// The claimed binding digest does not match the payload.
    BindingMismatch,
    /// The certificate is bound to a different job fingerprint than the
    /// caller expected (or to none at all).
    JobMismatch,
    /// The certificate's process count disagrees with the pattern.
    PatternMismatch,
    /// A route covers a flow the pattern never performs.
    RouteUnknown(Flow),
    /// The clique set disagrees with the recomputed maximum clique set.
    CliqueMismatch,
    /// A contention pair with both ends routed has no obligation entry.
    ObligationMissing(FlowPair),
    /// An obligation names a pair outside the recomputed contention set.
    ObligationUnknown(FlowPair),
    /// The crossing flow sets are not the exact inverse of the routes.
    CrossingMismatch(String),
    /// A declared witness does not match the recomputed collisions.
    WitnessInvalid(String),
    /// The certificate claims contention freedom but obligations are
    /// violated; carries the full typed violation report.
    ObligationViolated(Vec<ObligationViolation>),
}

impl Rejection {
    /// Stable kebab-case fingerprint for this rejection class.
    pub fn fingerprint(&self) -> &'static str {
        match self {
            Rejection::Cert(e) => e.fingerprint(),
            Rejection::Pattern(_) => "pattern-rejected",
            Rejection::BindingMismatch => "cert-binding-mismatch",
            Rejection::JobMismatch => "cert-job-mismatch",
            Rejection::PatternMismatch => "cert-pattern-mismatch",
            Rejection::RouteUnknown(_) => "cert-route-unknown",
            Rejection::CliqueMismatch => "cert-clique-mismatch",
            Rejection::ObligationMissing(_) => "cert-obligation-missing",
            Rejection::ObligationUnknown(_) => "cert-obligation-unknown",
            Rejection::CrossingMismatch(_) => "cert-crossing-mismatch",
            Rejection::WitnessInvalid(_) => "cert-witness-invalid",
            Rejection::ObligationViolated(_) => "obligation-violated",
        }
    }

    /// The violation report, when the rejection is `obligation-violated`.
    pub fn violations(&self) -> &[ObligationViolation] {
        match self {
            Rejection::ObligationViolated(v) => v,
            _ => &[],
        }
    }
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::Cert(e) => write!(f, "{e}"),
            Rejection::Pattern(e) => write!(f, "pattern rejected: {e}"),
            Rejection::BindingMismatch => {
                write!(f, "binding digest does not match the certificate payload")
            }
            Rejection::JobMismatch => {
                write!(
                    f,
                    "certificate is not bound to the expected job fingerprint"
                )
            }
            Rejection::PatternMismatch => {
                write!(f, "certificate process count disagrees with the pattern")
            }
            Rejection::RouteUnknown(flow) => {
                write!(f, "route covers {flow}, which the pattern never performs")
            }
            Rejection::CliqueMismatch => {
                write!(
                    f,
                    "clique set disagrees with the recomputed maximum clique set"
                )
            }
            Rejection::ObligationMissing(p) => write!(
                f,
                "contention pair {} | {} has no obligation entry",
                p.first(),
                p.second()
            ),
            Rejection::ObligationUnknown(p) => write!(
                f,
                "obligation {} | {} is outside the recomputed contention set",
                p.first(),
                p.second()
            ),
            Rejection::CrossingMismatch(ch) => {
                write!(f, "crossing set of channel {ch} does not invert the routes")
            }
            Rejection::WitnessInvalid(why) => write!(f, "witness list is wrong: {why}"),
            Rejection::ObligationViolated(v) => {
                write!(f, "{} obligation(s) violated:", v.len())?;
                for viol in v {
                    write!(f, " [{viol}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Rejection {}

/// The pattern facts the checker re-derives with model-only code.
struct Recomputed {
    n_procs: usize,
    flows: BTreeSet<Flow>,
    contention: ContentionSet,
    cliques: CliqueSet,
}

/// Re-characterizes pattern text exactly the way synthesis ingress does
/// (trace vs schedule autodetected by `msg ` lines), using only
/// `nocsyn-model` computations.
fn characterize(text: &str, opts: &ParseOptions) -> Result<Recomputed, ParseScheduleError> {
    let is_trace = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .any(|l| l.starts_with("msg "));
    if is_trace {
        let trace = opts.parse_trace(text)?;
        Ok(Recomputed {
            n_procs: trace.n_procs(),
            flows: trace.flows().into_iter().collect(),
            contention: trace.contention_set(),
            cliques: trace.maximum_clique_set(),
        })
    } else {
        let schedule = opts.parse_schedule(text)?;
        let mut contention = ContentionSet::new();
        for phase in schedule.iter() {
            let flows: Vec<Flow> = phase.iter().collect();
            for i in 0..flows.len() {
                for j in i + 1..flows.len() {
                    contention.insert(flows[i], flows[j]);
                }
            }
        }
        Ok(Recomputed {
            n_procs: schedule.n_procs(),
            flows: schedule.all_flows().into_iter().collect(),
            contention,
            cliques: schedule.maximum_clique_set(),
        })
    }
}

fn normalized_cliques<'a, I: IntoIterator<Item = &'a Vec<Flow>>>(
    cliques: I,
) -> BTreeSet<Vec<Flow>> {
    cliques
        .into_iter()
        .map(|c| {
            let mut c: Vec<Flow> = c.clone();
            c.sort();
            c.dedup();
            c
        })
        .collect()
}

/// Validates `cert_text` against `pattern_text`.
///
/// When `expected_job` is given (e.g. the serve cache validating a disk
/// entry against its key), the certificate must be bound to exactly that
/// job-fingerprint digest.
///
/// A certificate that *declares* contention violations is accepted when
/// its witness list exactly matches the recomputed collisions — such a
/// certificate correctly proves non-freedom. A certificate that claims
/// freedom while an obligation is violated is rejected with the typed
/// violation report.
///
/// # Errors
///
/// A [`Rejection`] with a stable fingerprint on any parse failure,
/// binding or job mismatch, or semantic disagreement with the pattern.
pub fn check_certificate(
    pattern_text: &str,
    cert_text: &str,
    expected_job: Option<&Digest>,
    opts: &CheckOptions,
) -> Result<CheckSummary, Rejection> {
    let cert = Certificate::parse(cert_text, &opts.limits).map_err(Rejection::Cert)?;
    if !cert.verify_binding() {
        return Err(Rejection::BindingMismatch);
    }
    if let Some(expected) = expected_job {
        if cert.job.as_deref() != Some(expected.to_hex().as_str()) {
            return Err(Rejection::JobMismatch);
        }
    }

    let parse_opts = ParseOptions::new().with_limits(opts.limits.clone());
    let pattern = characterize(pattern_text, &parse_opts).map_err(Rejection::Pattern)?;
    if cert.n_procs != pattern.n_procs {
        return Err(Rejection::PatternMismatch);
    }
    for flow in cert.routes.keys() {
        if !pattern.flows.contains(flow) {
            return Err(Rejection::RouteUnknown(*flow));
        }
    }

    // K: the declared clique set must be exactly the recomputed maximum
    // clique set (as sets of flow sets).
    if normalized_cliques(&cert.cliques)
        != normalized_cliques(
            pattern
                .cliques
                .iter()
                .map(|c| c.iter().collect::<Vec<Flow>>())
                .collect::<Vec<_>>()
                .iter(),
        )
    {
        return Err(Rejection::CliqueMismatch);
    }

    // C restricted to routed flows: declared obligations must cover it
    // exactly.
    let expected_obligations: BTreeSet<FlowPair> = pattern
        .contention
        .iter()
        .filter(|p| cert.routes.contains_key(&p.first()) && cert.routes.contains_key(&p.second()))
        .collect();
    let declared: BTreeSet<FlowPair> = cert.obligations.iter().copied().collect();
    if let Some(missing) = expected_obligations.difference(&declared).next() {
        return Err(Rejection::ObligationMissing(*missing));
    }
    if let Some(unknown) = declared.difference(&expected_obligations).next() {
        return Err(Rejection::ObligationUnknown(*unknown));
    }

    // Crossings must be the exact inverse of the routes.
    let mut inverse: BTreeMap<String, Vec<Flow>> = BTreeMap::new();
    for (flow, chans) in &cert.routes {
        for ch in chans {
            inverse.entry(ch.clone()).or_default().push(*flow);
        }
    }
    for (ch, flows) in &inverse {
        if cert.crossings.get(ch) != Some(flows) {
            return Err(Rejection::CrossingMismatch(ch.clone()));
        }
    }
    if let Some(extra) = cert.crossings.keys().find(|ch| !inverse.contains_key(*ch)) {
        return Err(Rejection::CrossingMismatch(extra.clone()));
    }

    // The obligations themselves: R-disjointness by label-set
    // intersection.
    let mut violations = Vec::new();
    for pair in &declared {
        let (Some(ra), Some(rb)) = (
            cert.routes.get(&pair.first()),
            cert.routes.get(&pair.second()),
        ) else {
            // Unreachable: obligations were checked against routed flows.
            return Err(Rejection::ObligationUnknown(*pair));
        };
        let shared: Vec<String> = ra
            .iter()
            .filter(|ch| rb.binary_search(ch).is_ok())
            .cloned()
            .collect();
        if !shared.is_empty() {
            violations.push(ObligationViolation {
                pair: *pair,
                shared,
            });
        }
    }

    // Verdict and witness coherence.
    if cert.contention_free {
        if !violations.is_empty() {
            return Err(Rejection::ObligationViolated(violations));
        }
        if !cert.witnesses.is_empty() {
            return Err(Rejection::WitnessInvalid(
                "a contention-free certificate declares witnesses".to_string(),
            ));
        }
    } else {
        let declared_witnesses: BTreeMap<FlowPair, Vec<String>> = cert
            .witnesses
            .iter()
            .map(|w| (w.pair, w.shared.clone()))
            .collect();
        if declared_witnesses.len() != cert.witnesses.len() {
            return Err(Rejection::WitnessInvalid(
                "duplicate witness pairs".to_string(),
            ));
        }
        let found: BTreeMap<FlowPair, Vec<String>> = violations
            .iter()
            .map(|v| (v.pair, v.shared.clone()))
            .collect();
        if declared_witnesses != found {
            return Err(Rejection::WitnessInvalid(
                "declared witnesses disagree with the recomputed collisions".to_string(),
            ));
        }
        if violations.is_empty() {
            return Err(Rejection::WitnessInvalid(
                "certificate claims contention but every obligation holds".to_string(),
            ));
        }
    }

    Ok(CheckSummary {
        contention_free: cert.contention_free,
        binding: cert.binding().to_hex(),
        n_obligations: declared.len(),
        n_routes: cert.routes.len(),
        n_flows: pattern.flows.len(),
        n_cliques: pattern.cliques.len(),
        n_witnesses: cert.witnesses.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_model::CertWitness;
    use std::collections::BTreeMap;

    const PATTERN: &str = "procs 4\nphase\n  0 -> 1\n  2 -> 3\nphase\n  1 -> 2\n  3 -> 0\n";

    /// A hand-routed, genuinely contention-free certificate for PATTERN:
    /// each flow crosses its own private channel.
    fn good_cert() -> Certificate {
        let flows = [(0usize, 1usize), (2, 3), (1, 2), (3, 0)];
        let mut routes = BTreeMap::new();
        let mut crossings: BTreeMap<String, Vec<Flow>> = BTreeMap::new();
        for (i, (s, d)) in flows.iter().enumerate() {
            let flow = Flow::from_indices(*s, *d);
            let label = format!("L{i}+");
            routes.insert(flow, vec![label.clone()]);
            crossings.entry(label).or_default().push(flow);
        }
        let schedule = nocsyn_model::parse_schedule(PATTERN).expect("pattern is valid");
        let cliques = schedule
            .maximum_clique_set()
            .iter()
            .map(|c| c.iter().collect())
            .collect();
        let obligations = vec![
            FlowPair::new(Flow::from_indices(0, 1), Flow::from_indices(2, 3)),
            FlowPair::new(Flow::from_indices(1, 2), Flow::from_indices(3, 0)),
        ];
        Certificate {
            n_procs: 4,
            contention_free: true,
            cliques,
            obligations,
            routes,
            crossings,
            witnesses: Vec::new(),
            job: None,
            claimed_binding: None,
        }
    }

    fn check(cert: &Certificate) -> Result<CheckSummary, Rejection> {
        check_certificate(PATTERN, &cert.to_json(), None, &CheckOptions::new())
    }

    #[test]
    fn a_faithful_certificate_validates() {
        let summary = check(&good_cert()).expect("valid certificate");
        assert!(summary.contention_free);
        assert_eq!(summary.n_obligations, 2);
        assert_eq!(summary.n_routes, 4);
        assert_eq!(summary.n_flows, 4);
        assert_eq!(summary.n_witnesses, 0);
    }

    #[test]
    fn dropped_obligation_is_rejected() {
        let mut cert = good_cert();
        cert.obligations.pop();
        let err = check(&cert).expect_err("must reject");
        assert_eq!(err.fingerprint(), "cert-obligation-missing");
    }

    #[test]
    fn forged_obligation_is_rejected() {
        let mut cert = good_cert();
        cert.obligations.push(FlowPair::new(
            Flow::from_indices(0, 1),
            Flow::from_indices(1, 2),
        ));
        let err = check(&cert).expect_err("must reject");
        assert_eq!(err.fingerprint(), "cert-obligation-unknown");
    }

    #[test]
    fn forged_clique_is_rejected() {
        let mut cert = good_cert();
        cert.cliques.pop();
        let err = check(&cert).expect_err("must reject");
        assert_eq!(err.fingerprint(), "cert-clique-mismatch");
    }

    #[test]
    fn crossing_inconsistency_is_rejected() {
        let mut cert = good_cert();
        // Omit a channel from a route's resource set without fixing the
        // crossing list.
        let flow = Flow::from_indices(0, 1);
        cert.routes.insert(flow, Vec::new());
        let err = check(&cert).expect_err("must reject");
        assert_eq!(err.fingerprint(), "cert-crossing-mismatch");
    }

    #[test]
    fn false_freedom_claim_yields_typed_violations() {
        let mut cert = good_cert();
        // Collapse two contending flows onto one channel.
        let a = Flow::from_indices(0, 1);
        let b = Flow::from_indices(2, 3);
        cert.routes.insert(a, vec!["SH".to_string()]);
        cert.routes.insert(b, vec!["SH".to_string()]);
        cert.crossings.clear();
        for (flow, chans) in &cert.routes {
            for ch in chans {
                cert.crossings.entry(ch.clone()).or_default().push(*flow);
            }
        }
        let err = check(&cert).expect_err("must reject");
        assert_eq!(err.fingerprint(), "obligation-violated");
        let v = err.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].pair, FlowPair::new(a, b));
        assert_eq!(v[0].shared, vec!["SH".to_string()]);
    }

    #[test]
    fn declared_contention_with_matching_witness_validates() {
        let mut cert = good_cert();
        let a = Flow::from_indices(0, 1);
        let b = Flow::from_indices(2, 3);
        cert.routes.insert(a, vec!["SH".to_string()]);
        cert.routes.insert(b, vec!["SH".to_string()]);
        cert.crossings.clear();
        for (flow, chans) in &cert.routes {
            for ch in chans {
                cert.crossings.entry(ch.clone()).or_default().push(*flow);
            }
        }
        cert.contention_free = false;
        cert.witnesses = vec![CertWitness {
            pair: FlowPair::new(a, b),
            shared: vec!["SH".to_string()],
        }];
        let summary = check(&cert).expect("a correct non-freedom proof validates");
        assert!(!summary.contention_free);
        assert_eq!(summary.n_witnesses, 1);
    }

    #[test]
    fn textual_tamper_is_a_binding_mismatch() {
        let text = good_cert().to_json();
        let tampered = text.replacen("\"channels\":[\"L0+\"]", "\"channels\":[]", 1);
        assert_ne!(text, tampered);
        let err = check_certificate(PATTERN, &tampered, None, &CheckOptions::new())
            .expect_err("must reject");
        assert_eq!(err.fingerprint(), "cert-binding-mismatch");
    }

    #[test]
    fn job_binding_is_enforced_when_expected() {
        let expected = nocsyn_model::sha256(b"job-key");
        let mut cert = good_cert();
        let err = check_certificate(
            PATTERN,
            &cert.to_json(),
            Some(&expected),
            &CheckOptions::new(),
        )
        .expect_err("unbound certificate");
        assert_eq!(err.fingerprint(), "cert-job-mismatch");
        cert.job = Some(expected.to_hex());
        check_certificate(
            PATTERN,
            &cert.to_json(),
            Some(&expected),
            &CheckOptions::new(),
        )
        .expect("bound certificate validates");
    }

    #[test]
    fn wrong_pattern_and_garbage_are_typed() {
        let cert = good_cert();
        let err = check_certificate(
            "procs 8\nphase\n  0 -> 1\n",
            &cert.to_json(),
            None,
            &CheckOptions::new(),
        )
        .expect_err("wrong pattern");
        assert_eq!(err.fingerprint(), "cert-pattern-mismatch");
        let err = check_certificate(PATTERN, "not json", None, &CheckOptions::new())
            .expect_err("garbage");
        assert!(!err.fingerprint().is_empty());
        let err = check_certificate("wat\n", &cert.to_json(), None, &CheckOptions::new())
            .expect_err("bad pattern text");
        assert_eq!(err.fingerprint(), "pattern-rejected");
    }
}
