//! Golden exactness of the repair search: restart 0 of the default
//! configuration on FFT16 and BT16, and one annealed-acceptance FFT16
//! restart, pinned byte for byte.
//!
//! Both workloads miss the degree bound under `Fast_Color` estimates, so
//! each attempt takes the paper's step-3 exact-coloring retry, and both
//! reach states where a further repair cycle or retry would replay work
//! already done. The pinned values were recorded before the search learned
//! to skip those replays; any drift in the network, the routes or the
//! placement means a skipped pass was not a true replay. The annealed
//! case is one whose result changes if a repair cycle that only rerouted
//! flows is taken for a replay.
//!
//! The move-heavy searches are pinned too: restart 0 of CG16 and SP16,
//! CG16 under exact coloring, and CG16 under a pipe-width bound. Their
//! time goes to scoring processor moves and swaps, so these pins cover
//! the relocation probe's `Fast`, `Exact` and width-excess branches. They
//! were recorded while moves were still scored by applying and undoing
//! them.
//!
//! `ci.sh` also runs this file in release: debug builds check every probe
//! against an apply-and-undo oracle, which perturbs pipe-slot order and
//! memo generations, so only a release run exercises the shipped path.

use nocsyn::model::sha256;
use nocsyn::synth::{
    synthesize_attempt, AcceptanceRule, AppPattern, ColoringStrategy, SynthesisConfig,
    SynthesisResult,
};
use nocsyn::topo::to_dot;
use nocsyn::workloads::{Benchmark, WorkloadParams};

/// Everything the golden pins about one result.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    n_links: usize,
    n_switches: usize,
    constraints_met: bool,
    placement: Vec<usize>,
    /// SHA-256 of the network's Graphviz rendering (every link, in link
    /// order, with its endpoints).
    network: String,
    /// SHA-256 of `flow:channel,...;` over the route table in flow order.
    routes: String,
}

fn golden_of(result: &SynthesisResult) -> Golden {
    let routes: String = result
        .routes
        .iter()
        .map(|(flow, route)| {
            let hops: Vec<String> = route.iter().map(|ch| ch.to_string()).collect();
            format!("{flow}:{};", hops.join(","))
        })
        .collect();
    Golden {
        n_links: result.report.n_links,
        n_switches: result.report.n_switches,
        constraints_met: result.report.constraints_met,
        placement: result.placement.clone(),
        network: sha256(to_dot(&result.network).as_bytes()).to_hex(),
        routes: sha256(routes.as_bytes()).to_hex(),
    }
}

fn attempt(
    benchmark: Benchmark,
    n_procs: usize,
    config: &SynthesisConfig,
    attempt: usize,
) -> Golden {
    let sched = benchmark
        .schedule(
            n_procs,
            &WorkloadParams::paper_default(benchmark).with_iterations(1),
        )
        .expect("golden process counts are valid");
    let pattern = AppPattern::from_schedule(&sched);
    golden_of(&synthesize_attempt(&pattern, config, attempt).unwrap())
}

#[test]
fn fft16_attempt0_is_pinned() {
    assert_eq!(
        attempt(Benchmark::Fft, 16, &SynthesisConfig::new(), 0),
        Golden {
            n_links: 30,
            n_switches: 16,
            constraints_met: false,
            placement: vec![11, 15, 10, 9, 0, 4, 3, 2, 12, 8, 6, 5, 1, 13, 14, 7],
            network: "b6836ae32ed697021d28dc695a9333a4beb52fb464fc4f85bf7ed0d1d85a9b30".into(),
            routes: "227652026ed94ef73bc43a4430715bd310036c7fec48b34498fb183ad057cc98".into(),
        }
    );
}

#[test]
fn bt16_attempt0_is_pinned() {
    assert_eq!(
        attempt(Benchmark::Bt, 16, &SynthesisConfig::new(), 0),
        Golden {
            n_links: 30,
            n_switches: 16,
            constraints_met: true,
            placement: vec![0, 10, 12, 1, 9, 3, 13, 4, 14, 8, 6, 15, 2, 5, 11, 7],
            network: "2c7ea0bb5a7572316352ad12e3ab36a6fab1ca5555e4e06b4ceef05ae7933b3f".into(),
            routes: "e9cc491e36965d41594544fdd7007f2ab7308f9844071d8a994d7271a5406958".into(),
        }
    );
}

#[test]
fn fft16_annealed_attempt4_is_pinned() {
    let config = SynthesisConfig::new()
        .with_seed(5)
        .with_acceptance(AcceptanceRule::default_anneal());
    assert_eq!(
        attempt(Benchmark::Fft, 16, &config, 4),
        Golden {
            n_links: 29,
            n_switches: 16,
            constraints_met: false,
            placement: vec![8, 2, 0, 6, 15, 14, 5, 9, 3, 7, 10, 4, 11, 1, 12, 13],
            network: "fc71c98cacc94bdc46780db4647497183e966db11c4deb20cba38bde9a40514f".into(),
            routes: "9e2fe42b4516dd9227646b0c1fedecdfc22e515f3b79801cf3b385dbb6787475".into(),
        }
    );
}

#[test]
fn cg16_attempt0_is_pinned() {
    assert_eq!(
        attempt(Benchmark::Cg, 16, &SynthesisConfig::new(), 0),
        Golden {
            n_links: 10,
            n_switches: 8,
            constraints_met: true,
            placement: vec![6, 2, 4, 6, 2, 0, 0, 5, 4, 3, 3, 7, 1, 5, 7, 1],
            network: "d4ba0e3482abb4d8f43b1dc3a98313904211a74b61817270be03f5af871a7064".into(),
            routes: "b02640aaaf617f2391608ad670917ea3475aa055cc122642c93fb4c2b7cb6938".into(),
        }
    );
}

#[test]
fn sp16_attempt0_is_pinned() {
    assert_eq!(
        attempt(Benchmark::Sp, 16, &SynthesisConfig::new(), 0),
        Golden {
            n_links: 32,
            n_switches: 16,
            constraints_met: true,
            placement: vec![15, 7, 14, 8, 4, 3, 9, 11, 13, 12, 2, 5, 6, 0, 10, 1],
            network: "a4c661067a3b9c79c52fa18baf6f0b7d246f01acf29a64fe41315ca168766b75".into(),
            routes: "e336faa92d0ef83fe7bb16c2a04aaa61cc73d0404b5cfb989918f0c605978ced".into(),
        }
    );
}

#[test]
fn cg16_exact_coloring_attempt0_is_pinned() {
    let config = SynthesisConfig::new().with_coloring(ColoringStrategy::Exact);
    assert_eq!(
        attempt(Benchmark::Cg, 16, &config, 0),
        Golden {
            n_links: 10,
            n_switches: 8,
            constraints_met: true,
            placement: vec![6, 2, 4, 6, 2, 0, 0, 5, 4, 3, 3, 7, 1, 5, 7, 1],
            network: "d4ba0e3482abb4d8f43b1dc3a98313904211a74b61817270be03f5af871a7064".into(),
            routes: "b02640aaaf617f2391608ad670917ea3475aa055cc122642c93fb4c2b7cb6938".into(),
        }
    );
}

#[test]
fn cg16_pipe_width_attempt0_is_pinned() {
    let config = SynthesisConfig::new().with_seed(2).with_max_pipe_width(2);
    assert_eq!(
        attempt(Benchmark::Cg, 16, &config, 0),
        Golden {
            n_links: 10,
            n_switches: 8,
            constraints_met: true,
            placement: vec![1, 7, 0, 1, 7, 5, 5, 6, 3, 3, 3, 0, 4, 6, 2, 4],
            network: "f3ac5e47b44e60a26f8e4454f2ca4a1876913b3cc648799907648460ed404a87".into(),
            routes: "7db239f57ac8f9042bef3e027cc98f67d434cfb66ac975f424a0185f70c397da".into(),
        }
    );
}
