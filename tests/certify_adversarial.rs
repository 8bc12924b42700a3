//! Adversarial coverage for the proof-carrying synthesis pipeline.
//!
//! Two halves:
//!
//! * **Golden round-trips** — for every golden workload (CG16, MG8,
//!   FFT16) on every network family (mesh, torus, generated), build the
//!   contention-freedom certificate and push it through the independent
//!   `nocsyn-certify` checker. Emit -> certify must come back clean,
//!   whether the certificate proves freedom (generated networks) or
//!   correctly proves *non*-freedom (baselines with shared links).
//! * **Tampered certificates** — every tamper class the threat model
//!   names (dropped obligation, forged clique, omitted route resource,
//!   fingerprint mismatch) must be rejected with its stable typed
//!   fingerprint.

use nocsyn::certify::{check_certificate, CheckOptions};
use nocsyn::model::{format_schedule, Certificate, Flow};
use nocsyn::synth::{synthesize, AppPattern, SynthesisConfig};
use nocsyn::topo::{build_certificate, regular, RouteTable};
use nocsyn::workloads::{Benchmark, WorkloadParams};

/// The golden workloads: benchmark, process count, light parameters.
fn golden() -> Vec<(Benchmark, usize)> {
    vec![
        (Benchmark::Cg, 16),
        (Benchmark::Mg, 8),
        (Benchmark::Fft, 16),
    ]
}

fn pattern_and_text(benchmark: Benchmark, n: usize) -> (AppPattern, String) {
    let params = WorkloadParams::paper_default(benchmark).with_iterations(1);
    let schedule = benchmark
        .schedule(n, &params)
        .expect("golden size is valid");
    let text = format_schedule(&schedule);
    (AppPattern::from_schedule(&schedule), text)
}

/// Restricts a full all-pairs route table (mesh/torus baselines) to the
/// flows the pattern actually performs, mirroring the CLI's
/// `policy_table`.
fn restrict(routes: &RouteTable, pattern: &AppPattern) -> RouteTable {
    let mut table = RouteTable::new();
    for &flow in pattern.flows() {
        let route = routes.route(flow).expect("baseline covers every pair");
        table.insert(flow, route.clone());
    }
    table
}

fn certify(pattern: &AppPattern, text: &str, routes: &RouteTable) -> Certificate {
    let cert = build_certificate(
        pattern.n_procs(),
        pattern.cliques(),
        pattern.contention(),
        routes,
        None,
    );
    let summary = check_certificate(text, &cert.to_json(), None, &CheckOptions::new())
        .expect("emitted certificate must validate");
    assert_eq!(summary.contention_free, cert.contention_free);
    assert_eq!(summary.n_routes, routes.len());
    cert
}

#[test]
fn golden_workloads_round_trip_on_every_network_family() {
    for (benchmark, n) in golden() {
        let (pattern, text) = pattern_and_text(benchmark, n);
        let (rows, cols) = (if n == 8 { 2 } else { 4 }, 4);

        let (_, mesh_routes) = regular::mesh(rows, cols).expect("mesh builds");
        certify(&pattern, &text, &restrict(&mesh_routes, &pattern));

        let (_, torus_routes) = regular::torus(rows, cols).expect("torus builds");
        certify(&pattern, &text, &restrict(&torus_routes, &pattern));

        let config = SynthesisConfig::new().with_seed(0x51).with_restarts(2);
        let result = synthesize(&pattern, &config).expect("synthesis succeeds");
        let cert = certify(&pattern, &text, &result.routes);
        // The synthesized network is the one the paper's methodology
        // guarantees: its certificate must prove freedom.
        assert!(
            cert.contention_free,
            "{benchmark:?}: generated network must certify contention-free"
        );
        assert!(cert.witnesses.is_empty());
    }
}

#[test]
fn synthesis_result_certificates_match_build_certificate() {
    let (pattern, text) = pattern_and_text(Benchmark::Mg, 8);
    let config = SynthesisConfig::new().with_seed(0x52).with_restarts(2);
    let result = synthesize(&pattern, &config).expect("synthesis succeeds");
    let via_result = result.certificate(&pattern, None);
    let via_builder = build_certificate(
        pattern.n_procs(),
        pattern.cliques(),
        pattern.contention(),
        &result.routes,
        None,
    );
    assert_eq!(via_result.to_json(), via_builder.to_json());
    check_certificate(&text, &via_result.to_json(), None, &CheckOptions::new())
        .expect("result certificate validates");
}

/// A validated golden certificate to tamper with, plus its pattern text.
fn golden_cert() -> (Certificate, String) {
    let (pattern, text) = pattern_and_text(Benchmark::Cg, 16);
    let config = SynthesisConfig::new().with_seed(0x53).with_restarts(2);
    let result = synthesize(&pattern, &config).expect("synthesis succeeds");
    let cert = certify(&pattern, &text, &result.routes);
    (cert, text)
}

fn expect_fingerprint(cert: &Certificate, text: &str, fingerprint: &str) {
    let err = check_certificate(text, &cert.to_json(), None, &CheckOptions::new())
        .expect_err("tampered certificate must be rejected");
    assert_eq!(err.fingerprint(), fingerprint);
}

#[test]
fn dropped_obligation_is_rejected() {
    let (mut cert, text) = golden_cert();
    assert!(!cert.obligations.is_empty());
    cert.obligations.pop();
    // Struct-level tampering re-renders with a fresh (valid) binding, so
    // the rejection comes from the obligation arithmetic itself.
    expect_fingerprint(&cert, &text, "cert-obligation-missing");
}

#[test]
fn forged_clique_is_rejected() {
    let (mut cert, text) = golden_cert();
    cert.cliques
        .push(vec![Flow::from_indices(0, 1), Flow::from_indices(1, 0)]);
    expect_fingerprint(&cert, &text, "cert-clique-mismatch");
}

#[test]
fn omitted_route_resource_is_rejected() {
    let (mut cert, text) = golden_cert();
    let (flow, mut channels) = cert
        .routes
        .iter()
        .find(|(_, chans)| !chans.is_empty())
        .map(|(f, c)| (*f, c.clone()))
        .expect("some route crosses a channel");
    channels.pop();
    cert.routes.insert(flow, channels);
    expect_fingerprint(&cert, &text, "cert-crossing-mismatch");
}

#[test]
fn fingerprint_mismatch_is_rejected() {
    let (cert, text) = golden_cert();
    let rendered = cert.to_json();
    // Textual tampering leaves the embedded binding stale: the checker
    // must refuse before any set arithmetic runs.
    let tampered = rendered.replacen("\"contention_free\":true", "\"contention_free\":false", 1);
    assert_ne!(rendered, tampered, "tamper site must exist");
    let err = check_certificate(&text, &tampered, None, &CheckOptions::new())
        .expect_err("stale binding must be rejected");
    assert_eq!(err.fingerprint(), "cert-binding-mismatch");
}

#[test]
fn certificates_are_byte_deterministic_per_seed() {
    let (pattern, text) = pattern_and_text(Benchmark::Fft, 16);
    let config = SynthesisConfig::new().with_seed(0x54).with_restarts(2);
    let a = synthesize(&pattern, &config).expect("synthesis succeeds");
    let b = synthesize(&pattern, &config).expect("synthesis succeeds");
    let cert_a = a.certificate(&pattern, None).to_json();
    let cert_b = b.certificate(&pattern, None).to_json();
    assert_eq!(
        cert_a, cert_b,
        "same seed must give byte-identical certificates"
    );
    check_certificate(&text, &cert_a, None, &CheckOptions::new()).expect("validates");
}

// ---------------------------------------------------------------------
// Golden certificate pins: the SHA-256 of the rendered bytes and the
// binding digest of fixed certificates, recorded once. Rendering and the
// binding are pure functions of the certificate value, so any change to
// either (ordering, escaping, framing) breaks a pin here.
// ---------------------------------------------------------------------

use nocsyn::model::{sha256, CertWitness, FlowPair, ParseLimits};
use std::collections::BTreeMap;

/// `(sha256 of the to_json bytes, binding hex)` of a certificate text,
/// after checking the text re-parses to the same binding.
fn pins(json: &str) -> (String, String) {
    let parsed = Certificate::parse(json, &ParseLimits::default()).expect("certificate parses");
    assert!(parsed.verify_binding(), "rendered binding must verify");
    let binding = parsed.binding().to_hex();
    assert_eq!(parsed.to_json(), json, "render is a fixed point");
    (sha256(json.as_bytes()).to_hex(), binding)
}

fn assert_pins(what: &str, json: &str, want_sha: &str, want_binding: &str) {
    let (sha, binding) = pins(json);
    assert_eq!(
        (sha.as_str(), binding.as_str()),
        (want_sha, want_binding),
        "{what}: certificate bytes or binding moved"
    );
}

/// Runs `nocsyn synth <pattern> <flags> --emit-cert` through the CLI
/// entry point and returns the certificate line (without its newline).
fn cli_cert(name: &str, pattern: &str, flags: &[&str]) -> String {
    let out = std::env::temp_dir().join(format!(
        "nocsyn-golden-cert-{name}-{}.json",
        std::process::id()
    ));
    let out = out.to_string_lossy().into_owned();
    let path = format!("{}/examples_data/{pattern}", env!("CARGO_MANIFEST_DIR"));
    let mut args: Vec<String> = vec!["synth".into(), path];
    args.extend(flags.iter().map(|s| s.to_string()));
    args.extend(["--emit-cert".to_string(), out.clone()]);
    nocsyn::cli::run(&args).expect("synth succeeds");
    let text = std::fs::read_to_string(&out).expect("certificate was written");
    let _ = std::fs::remove_file(&out);
    text.strip_suffix('\n')
        .expect("certificate ends in a newline")
        .to_string()
}

#[test]
fn golden_pin_pipeline_cli_certificate() {
    let cert = cli_cert(
        "pipeline",
        "pipeline.txt",
        &["--restarts", "2", "--seed", "9"],
    );
    assert_pins(
        "pipeline seed 9",
        &cert,
        "d5c5d01c086d775b4b00bd61d6da2167021b774dbedf8983823a025c1d1e25a6",
        "83ce0f18ef07744f6114ef6454f3b356d10ba7b2418612f88e634b914ec6c5c6",
    );
}

#[test]
fn golden_pin_decomposed_clus64_certificate() {
    let cert = cli_cert(
        "clus64",
        "clus64.txt",
        &["--decompose", "--restarts", "2", "--seed", "65"],
    );
    assert_pins(
        "clus64 decomposed seed 65",
        &cert,
        "874ea64381d0f520fd4a557a97827abf74e514bad14aee1c9ac042fb5678850d",
        "3ac1d0e6628748c14ba1dc535ad5b6cf76f61dbc85eb617621c5c798c0df4806",
    );
}

#[test]
fn golden_pin_fft16_certificate() {
    let (pattern, _) = pattern_and_text(Benchmark::Fft, 16);
    let config = SynthesisConfig::new().with_seed(0x54).with_restarts(2);
    let result = synthesize(&pattern, &config).expect("synthesis succeeds");
    let cert = result.certificate(&pattern, None).to_json();
    assert_pins(
        "FFT16 seed 0x54",
        &cert,
        "e9cee1f968b44e7b3c394babed911cb898d1012465f4d434718c0825b2f41863",
        "8a6f12c01fbbc4c64458fe0a978c44eb44785888b34797aee41b83925f49e551",
    );
}

#[test]
fn golden_pin_contention_witness_certificate() {
    // CG16 on a 4x4 mesh shares links between contending flows, so the
    // certificate proves non-freedom and pins the witness order.
    let (pattern, text) = pattern_and_text(Benchmark::Cg, 16);
    let (_, mesh_routes) = regular::mesh(4, 4).expect("mesh builds");
    let cert = certify(&pattern, &text, &restrict(&mesh_routes, &pattern));
    assert!(!cert.contention_free);
    assert!(cert.witnesses.len() > 1, "several witnesses to order");
    assert_pins(
        "CG16 on a mesh",
        &cert.to_json(),
        "260622c05fdc598424b70c3fe908809cddb13c88123db7221114d16c5eab31c6",
        "6954d33de4c2fddbeb6b7d80b9e0b2b334deeb939b7852e06b98544e3679ba66",
    );
}

/// A hand-built certificate whose flow keys are string prefixes of one
/// another (`1>2`, `1>23`, `12>3`, `2>1`, `2>12`, ...), so the string
/// order of the canonical form differs from the numeric flow order in
/// obligations, cliques and witnesses alike.
fn prefix_colliding_cert() -> Certificate {
    let f = Flow::from_indices;
    let flows = [
        f(1, 2),
        f(1, 23),
        f(12, 3),
        f(2, 1),
        f(2, 12),
        f(1, 20),
        f(21, 2),
        f(0, 1),
        f(10, 2),
    ];
    let mut routes = BTreeMap::new();
    let mut crossings: BTreeMap<String, Vec<Flow>> = BTreeMap::new();
    for (i, flow) in flows.iter().enumerate() {
        // Flows 0, 1 and 4 share channel "S+"; everything else is private.
        let mut chans = vec![format!("L{i}+")];
        if matches!(i, 0 | 1 | 4) {
            chans.push("S+".to_string());
        }
        chans.sort();
        for ch in &chans {
            crossings.entry(ch.clone()).or_default().push(*flow);
        }
        routes.insert(*flow, chans);
    }
    for list in crossings.values_mut() {
        list.sort();
    }
    let pair = |a: Flow, b: Flow| FlowPair::new(a, b);
    Certificate {
        n_procs: 24,
        contention_free: false,
        cliques: vec![
            vec![f(1, 23), f(1, 2), f(12, 3)],
            vec![f(2, 1), f(1, 2)],
            vec![f(1, 20), f(2, 12), f(1, 2), f(21, 2)],
            vec![f(1, 2), f(1, 23)],
            vec![f(10, 2), f(0, 1)],
        ],
        obligations: vec![
            pair(f(1, 2), f(1, 23)),
            pair(f(1, 23), f(12, 3)),
            pair(f(1, 2), f(12, 3)),
            pair(f(2, 1), f(1, 2)),
            pair(f(1, 2), f(2, 12)),
            pair(f(1, 20), f(21, 2)),
            pair(f(1, 2), f(1, 20)),
            pair(f(10, 2), f(0, 1)),
            pair(f(2, 1), f(2, 12)),
        ],
        routes,
        crossings,
        witnesses: vec![
            CertWitness {
                pair: pair(f(1, 2), f(2, 12)),
                shared: vec!["S+".to_string()],
            },
            CertWitness {
                pair: pair(f(1, 2), f(1, 23)),
                shared: vec!["S+".to_string()],
            },
            CertWitness {
                pair: pair(f(1, 23), f(2, 12)),
                shared: vec!["S+".to_string()],
            },
        ],
        job: Some(sha256(b"prefix-colliding").to_hex()),
        claimed_binding: None,
    }
}

#[test]
fn golden_pin_prefix_colliding_certificate() {
    let cert = prefix_colliding_cert();
    assert_pins(
        "prefix-colliding keys",
        &cert.to_json(),
        "24c5b7aea2a2974c681fe8c1898e331c3a202b5d7d61c3e25ca7e3c4a98c8d83",
        "91461c595c6a3982ffec5f27f82e5f5ade16e5750115a7abf7a5fad6b6c495f6",
    );
}

/// A forged proof for `procs 4 / phase / 0 -> 1 / 2 -> 3` whose second
/// route lists its channels out of order so that a shared channel `a`
/// is not where a binary search would look for it. Crossings agree with
/// the routes and the binding is recomputed, as a forger would do.
fn forged_unsorted_cert(second_route: &[&str]) -> (Certificate, &'static str) {
    const PATTERN: &str = "procs 4\nphase\n  0 -> 1\n  2 -> 3\n";
    let (a, b) = (Flow::from_indices(0, 1), Flow::from_indices(2, 3));
    let mut routes = BTreeMap::new();
    routes.insert(a, vec!["a".to_string()]);
    routes.insert(b, second_route.iter().map(|s| s.to_string()).collect());
    let mut crossings: BTreeMap<String, Vec<Flow>> = BTreeMap::new();
    for (flow, chans) in &routes {
        for ch in chans {
            crossings.entry(ch.clone()).or_default().push(*flow);
        }
    }
    let cert = Certificate {
        n_procs: 4,
        contention_free: true,
        cliques: vec![vec![a, b]],
        obligations: vec![FlowPair::new(a, b)],
        routes,
        crossings,
        witnesses: Vec::new(),
        job: None,
        claimed_binding: None,
    };
    (cert, PATTERN)
}

#[test]
fn unsorted_resource_set_cannot_hide_a_shared_channel() {
    // Both routes use channel `a`. Listed ascending, the checker finds
    // the collision; listed out of order (or with a duplicate), the
    // certificate is refused at parse time.
    let (sorted, pattern) = forged_unsorted_cert(&["a", "b", "c"]);
    expect_fingerprint(&sorted, pattern, "obligation-violated");
    for route in [&["b", "c", "a"][..], &["a", "a", "b"][..]] {
        let (forged, pattern) = forged_unsorted_cert(route);
        let err = check_certificate(pattern, &forged.to_json(), None, &CheckOptions::new())
            .expect_err("a forged proof must be rejected");
        assert_eq!(
            err.fingerprint(),
            "cert-bad-field",
            "route {route:?}: {err}"
        );
    }
}
