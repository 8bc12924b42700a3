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

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use nocsyn_model::{
    CertError, Certificate, CliqueSet, ContentionSet, Digest, Flow, FlowInterner, FlowPair,
    ParseLimits, ParseOptions, ParseScheduleError,
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
    /// Every flow of the pattern, ascending.
    flows: Vec<Flow>,
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

/// For two ascending, duplicate-free slices: the smallest element only in
/// `a` and the smallest only in `b` — what `BTreeSet::difference` yields
/// first each way.
fn first_differences<'a, T: Ord>(a: &'a [T], b: &'a [T]) -> (Option<&'a T>, Option<&'a T>) {
    let (mut i, mut j) = (0, 0);
    let (mut only_a, mut only_b) = (None, None);
    while i < a.len() && j < b.len() && (only_a.is_none() || only_b.is_none()) {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                only_a.get_or_insert(&a[i]);
                i += 1;
            }
            Ordering::Greater => {
                only_b.get_or_insert(&b[j]);
                j += 1;
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    (only_a.or(a.get(i)), only_b.or(b.get(j)))
}

/// Writes the ids two ascending id slices share into `out`, ascending.
///
/// `build_certificate` has its own copy on purpose: the checker shares no
/// code with the emitter it checks.
fn shared_ids(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
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
/// The checks run in a fixed order, and the first failure is reported:
/// parse (which also demands strictly ascending channel lists), binding,
/// job, process count, routed flows, cliques, obligations (a missing pair
/// before an unknown one), crossings, then disjointness and witnesses.
/// The binding is computed once and reported in the summary. Flows and
/// channel labels are interned to ids (label ids in label order), so the
/// set arithmetic runs as merges over sorted id slices; labels are
/// materialized only for violations.
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
    let binding = cert.binding().to_hex();
    if cert
        .claimed_binding
        .as_ref()
        .is_some_and(|claimed| *claimed != binding)
    {
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
    // Route r covers flow `routed.flows()[r]`, its id.
    let routed = FlowInterner::from_sorted_flows(cert.routes.keys().copied().collect());
    if let (Some(unknown), _) = first_differences(routed.flows(), &pattern.flows) {
        return Err(Rejection::RouteUnknown(*unknown));
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
    // exactly. The contention set iterates ascending, so `expected` is
    // sorted, and each pair keeps the route ids of its two ends.
    let mut expected: Vec<FlowPair> = Vec::new();
    let mut ends: Vec<[usize; 2]> = Vec::new();
    for pair in pattern.contention.iter() {
        if let (Some(a), Some(b)) = (routed.id(pair.first()), routed.id(pair.second())) {
            expected.push(pair);
            ends.push([a, b]);
        }
    }
    let mut declared = cert.obligations.clone();
    declared.sort_unstable();
    declared.dedup();
    match first_differences(&expected, &declared) {
        (Some(missing), _) => return Err(Rejection::ObligationMissing(*missing)),
        (None, Some(unknown)) => return Err(Rejection::ObligationUnknown(*unknown)),
        (None, None) => {}
    }

    // Channel labels interned in label order, so a route's strictly
    // ascending label list becomes a strictly ascending id slice.
    let mut labels: Vec<&str> = cert.routes.values().flatten().map(String::as_str).collect();
    labels.sort_unstable();
    labels.dedup();
    let mut route_ids: Vec<u32> = Vec::new();
    let mut starts: Vec<usize> = Vec::with_capacity(routed.len() + 1);
    starts.push(0);
    for chans in cert.routes.values() {
        for ch in chans {
            let id = labels
                .binary_search(&ch.as_str())
                .expect("every route label was interned");
            route_ids.push(id as u32);
        }
        starts.push(route_ids.len());
    }
    let route = |r: usize| &route_ids[starts[r]..starts[r + 1]];

    // Crossings must be the exact inverse of the routes: walk the declared
    // crossings alongside the label table. The first label whose crossing
    // list differs is reported before any declared channel no route uses.
    let mut inverse: Vec<Vec<u32>> = vec![Vec::new(); labels.len()];
    for r in 0..routed.len() {
        for &id in route(r) {
            inverse[id as usize].push(r as u32);
        }
    }
    let mut crossings = cert.crossings.iter().peekable();
    let mut unused = None;
    for (label, crossers) in labels.iter().zip(&inverse) {
        while let Some((ch, _)) = crossings.next_if(|(ch, _)| ch.as_str() < *label) {
            unused.get_or_insert(ch);
        }
        let exact = crossings
            .next_if(|(ch, _)| ch.as_str() == *label)
            .is_some_and(|(_, flows)| {
                flows.len() == crossers.len()
                    && flows
                        .iter()
                        .zip(crossers)
                        .all(|(f, &r)| *f == routed.flows()[r as usize])
            });
        if !exact {
            return Err(Rejection::CrossingMismatch((*label).to_string()));
        }
    }
    if let Some(ch) = unused.or_else(|| crossings.next().map(|(ch, _)| ch)) {
        return Err(Rejection::CrossingMismatch(ch.clone()));
    }

    // The obligations themselves: R-disjointness by merging id slices.
    let mut violations = Vec::new();
    let mut shared = Vec::new();
    for (&pair, &[a, b]) in expected.iter().zip(&ends) {
        shared_ids(route(a), route(b), &mut shared);
        if !shared.is_empty() {
            violations.push(ObligationViolation {
                pair,
                shared: shared
                    .iter()
                    .map(|&id| labels[id as usize].to_string())
                    .collect(),
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
        let declared_witnesses: BTreeMap<FlowPair, &[String]> = cert
            .witnesses
            .iter()
            .map(|w| (w.pair, w.shared.as_slice()))
            .collect();
        if declared_witnesses.len() != cert.witnesses.len() {
            return Err(Rejection::WitnessInvalid(
                "duplicate witness pairs".to_string(),
            ));
        }
        let found: BTreeMap<FlowPair, &[String]> = violations
            .iter()
            .map(|v| (v.pair, v.shared.as_slice()))
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
        binding,
        n_obligations: expected.len(),
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

    // -----------------------------------------------------------------
    // Oracle: the original checker, kept verbatim (BTreeSet/BTreeMap set
    // arithmetic, a second binding for the summary) so the interned
    // checker can be compared against it value for value.
    // -----------------------------------------------------------------

    /// The original `check_certificate`.
    fn oracle_check(
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
            if pattern.flows.binary_search(flow).is_err() {
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
            .filter(|p| {
                cert.routes.contains_key(&p.first()) && cert.routes.contains_key(&p.second())
            })
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

    /// A random schedule over `n` processes, as pattern text: up to
    /// three phases, each a random partial permutation without self-flows.
    fn random_pattern(rng: &mut nocsyn_rng::Rng, n: usize) -> String {
        let mut text = format!("procs {n}\n");
        for _ in 0..rng.gen_range(1..=3usize) {
            // A partial permutation: every source and destination once.
            let mut dsts: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut dsts);
            let mut flows: Vec<(usize, usize)> = (0..n)
                .zip(dsts)
                .filter(|&(s, d)| s != d && rng.gen_bool(0.6))
                .collect();
            if flows.is_empty() {
                flows.push((0, 1));
            }
            text.push_str("phase\n");
            for (s, d) in flows {
                text.push_str(&format!("  {s} -> {d}\n"));
            }
        }
        text
    }

    /// An honest certificate for `pattern_text`: most flows routed over a
    /// few random labels from a small pool (so routes collide), the
    /// verdict and witnesses those routes imply.
    fn honest_cert(rng: &mut nocsyn_rng::Rng, pattern_text: &str) -> Certificate {
        const LABELS: [&str; 7] = ["L0+", "L1+", "L1-", "L10+", "L12-", "L2+", "X"];
        let pattern = characterize(pattern_text, &ParseOptions::new()).expect("valid pattern");
        let mut routes: BTreeMap<Flow, Vec<String>> = BTreeMap::new();
        for &flow in &pattern.flows {
            if rng.gen_bool(0.85) {
                let mut chans: Vec<String> = (0..rng.gen_range(0..=3usize))
                    .map(|_| rng.choose(&LABELS).expect("labels").to_string())
                    .collect();
                chans.sort();
                chans.dedup();
                routes.insert(flow, chans);
            }
        }
        let mut crossings: BTreeMap<String, Vec<Flow>> = BTreeMap::new();
        for (flow, chans) in &routes {
            for ch in chans {
                crossings.entry(ch.clone()).or_default().push(*flow);
            }
        }
        let mut obligations = Vec::new();
        let mut witnesses = Vec::new();
        for pair in pattern.contention.iter() {
            let (Some(a), Some(b)) = (routes.get(&pair.first()), routes.get(&pair.second())) else {
                continue;
            };
            obligations.push(pair);
            let shared: Vec<String> = a.iter().filter(|ch| b.contains(ch)).cloned().collect();
            if !shared.is_empty() {
                witnesses.push(CertWitness { pair, shared });
            }
        }
        Certificate {
            n_procs: pattern.n_procs,
            contention_free: witnesses.is_empty(),
            cliques: pattern.cliques.iter().map(|c| c.iter().collect()).collect(),
            obligations,
            routes,
            crossings,
            witnesses,
            job: None,
            claimed_binding: None,
        }
    }

    /// Applies tamper class `kind` (0 = none) to an honest certificate
    /// and returns the text to check plus the job digest to demand.
    fn tamper(
        rng: &mut nocsyn_rng::Rng,
        mut cert: Certificate,
        kind: usize,
    ) -> (String, Option<Digest>) {
        let job = nocsyn_model::sha256(b"differential-job");
        let pick_route = |rng: &mut nocsyn_rng::Rng, cert: &Certificate| {
            let flows: Vec<Flow> = cert.routes.keys().copied().collect();
            rng.choose(&flows).copied()
        };
        let n = cert.n_procs;
        match kind {
            // Dropped obligation.
            1 if !cert.obligations.is_empty() => {
                let i = rng.gen_range(0..cert.obligations.len());
                cert.obligations.remove(i);
            }
            2 => {
                // Forged obligation.
                let a = Flow::from_indices(rng.gen_range(0..n), rng.gen_range(0..n));
                let b = Flow::from_indices(rng.gen_range(0..n), rng.gen_range(0..n));
                cert.obligations.push(FlowPair::new(a, b));
            }
            3 => {
                // Duplicated obligation (sets: still valid).
                if let Some(&p) = cert.obligations.first() {
                    cert.obligations.push(p);
                }
            }
            4 => {
                // Forged or dropped clique.
                if rng.gen_bool(0.5) {
                    cert.cliques.pop();
                } else {
                    cert.cliques
                        .push(vec![Flow::from_indices(0, 1), Flow::from_indices(1, 0)]);
                }
            }
            5 => {
                // Omitted route resource, crossings left stale.
                if let Some(f) = pick_route(rng, &cert) {
                    cert.routes.get_mut(&f).map(Vec::pop);
                }
            }
            6 => {
                // A crossing list reordered, grown or shrunk.
                let chans: Vec<String> = cert.crossings.keys().cloned().collect();
                if let Some(ch) = rng.choose(&chans) {
                    let list = cert.crossings.get_mut(ch).expect("picked key");
                    match rng.gen_range(0..3usize) {
                        0 => list.reverse(),
                        1 => list.push(Flow::from_indices(0, 1)),
                        _ => {
                            list.pop();
                        }
                    }
                }
            }
            7 => {
                // A declared channel no route uses.
                let label = if rng.gen_bool(0.5) { "A0" } else { "Z9" };
                cert.crossings
                    .insert(label.to_string(), vec![Flow::from_indices(0, 1)]);
            }
            8 => {
                // A route for a flow the pattern never performs.
                let flow = Flow::from_indices(rng.gen_range(0..n), rng.gen_range(0..n));
                cert.routes.entry(flow).or_default();
            }
            9 => {
                // Flipped verdict with the witnesses left as they were.
                cert.contention_free = !cert.contention_free;
            }
            10 => {
                // A false freedom claim.
                cert.contention_free = true;
                cert.witnesses.clear();
            }
            11 => {
                // Witness list edits: dropped, duplicated or relabeled.
                match rng.gen_range(0..3usize) {
                    0 => {
                        cert.witnesses.pop();
                    }
                    1 => {
                        if let Some(w) = cert.witnesses.first().cloned() {
                            cert.witnesses.push(w);
                        }
                    }
                    _ => {
                        if let Some(w) = cert.witnesses.first_mut() {
                            w.shared = vec!["Q".to_string()];
                        }
                    }
                }
            }
            12 => {
                // Textual tamper: the embedded binding goes stale.
                let text = cert.to_json();
                let flipped = if cert.contention_free {
                    text.replacen("\"contention_free\":true", "\"contention_free\":false", 1)
                } else {
                    text.replacen("\"contention_free\":false", "\"contention_free\":true", 1)
                };
                return (flipped, None);
            }
            13 => {
                // Job binding demanded, present or absent.
                if rng.gen_bool(0.5) {
                    cert.job = Some(job.to_hex());
                }
                return (cert.to_json(), Some(job));
            }
            14 => {
                // Wrong process count.
                cert.n_procs += 1;
            }
            15 => {
                // A route dropped entirely (its obligations stay declared).
                if let Some(f) = pick_route(rng, &cert) {
                    cert.routes.remove(&f);
                }
            }
            17 if !cert.obligations.is_empty() => {
                // An obligation swapped for a forged one: both a missing
                // and an unknown pair, so their precedence shows.
                let i = rng.gen_range(0..cert.obligations.len());
                let a = Flow::from_indices(rng.gen_range(0..n), rng.gen_range(0..n));
                let b = Flow::from_indices(rng.gen_range(0..n), rng.gen_range(0..n));
                cert.obligations[i] = FlowPair::new(a, b);
            }
            18 => {
                // An unused channel that sorts before every route label,
                // plus a later crossing list that is wrong: the wrong list
                // is reported first.
                if let Some(list) = cert.crossings.values_mut().last() {
                    list.push(Flow::from_indices(0, 1));
                }
                cert.crossings
                    .insert("A0".to_string(), vec![Flow::from_indices(0, 1)]);
            }
            16 => {
                // An unsorted resource set, crossings kept consistent.
                if let Some(f) = pick_route(rng, &cert) {
                    let chans = cert.routes.get_mut(&f).expect("picked key");
                    chans.push("A".to_string());
                    cert.crossings.entry("A".to_string()).or_default().push(f);
                }
            }
            _ => {}
        }
        (cert.to_json(), None)
    }

    #[test]
    fn interned_checker_matches_the_oracle_on_every_tamper_class() {
        let mut rng = nocsyn_rng::Rng::seed_from_u64(0xC4EC);
        let opts = CheckOptions::new();
        let mut outcomes = BTreeMap::new();
        for case in 0..1900 {
            let n = *rng.choose(&[4usize, 12, 24]).expect("sizes");
            let pattern = random_pattern(&mut rng, n);
            let kind = case % 19;
            let cert = honest_cert(&mut rng, &pattern);
            let (text, job) = tamper(&mut rng, cert, kind);
            let got = check_certificate(&pattern, &text, job.as_ref(), &opts);
            let want = oracle_check(&pattern, &text, job.as_ref(), &opts);
            assert_eq!(got, want, "case {case} (tamper {kind}):\n{pattern}\n{text}");
            let class = match &got {
                Ok(s) if s.contention_free => "accepted-free",
                Ok(_) => "accepted-contended",
                Err(e) => e.fingerprint(),
            };
            *outcomes.entry(class).or_insert(0usize) += 1;
        }
        // The generator must reach every verdict the checker can give on
        // these inputs, or the comparison proves little.
        for class in [
            "accepted-free",
            "accepted-contended",
            "cert-bad-field",
            "cert-binding-mismatch",
            "cert-job-mismatch",
            "cert-pattern-mismatch",
            "cert-route-unknown",
            "cert-clique-mismatch",
            "cert-obligation-missing",
            "cert-obligation-unknown",
            "cert-crossing-mismatch",
            "cert-witness-invalid",
            "obligation-violated",
        ] {
            assert!(
                outcomes.contains_key(class),
                "never produced {class}: {outcomes:?}"
            );
        }
    }
}
