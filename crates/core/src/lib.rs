//! Synthesis of minimal, low-contention application-specific on-chip
//! networks — the core methodology of Ho & Pinkston, **"A Methodology for
//! Designing Efficient On-Chip Interconnects on Well-Behaved Communication
//! Patterns"** (HPCA 2003), Section 3.
//!
//! Given the communication pattern of a well-behaved application (an
//! [`AppPattern`], extracted from a timed trace or a phase schedule), the
//! [`synthesize`] entry point runs the paper's recursive-bisection
//! algorithm:
//!
//! 1. Start from a single "mega-switch" connecting every processor.
//! 2. While some switch violates the design constraints, split it: create a
//!    new switch, move half of its processors over, and locally improve the
//!    partition by greedy processor moves (bounded imbalance) and indirect
//!    route assignment (`Best_Route`).
//! 3. Size every inter-switch *pipe* with the `Fast_Color` clique bound
//!    during the search, and with formal graph coloring at finalization.
//! 4. Materialize the result as a concrete [`Network`] and [`RouteTable`]
//!    in which temporally-conflicting communications are assigned to
//!    different parallel links — making the intersection of the
//!    application's contention set with the network's conflict set empty
//!    (Theorem 1).
//!
//! [`Network`]: nocsyn_topo::Network
//! [`RouteTable`]: nocsyn_topo::RouteTable
//!
//! # Example
//!
//! ```
//! use nocsyn_model::{Phase, PhaseSchedule};
//! use nocsyn_synth::{synthesize, AppPattern, SynthesisConfig};
//! use nocsyn_topo::verify_contention_free;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny phase-parallel app on 8 processors: neighbor exchange, then a
//! // transpose-like permutation.
//! let mut sched = PhaseSchedule::new(8);
//! sched.push(Phase::from_flows([(0usize, 1usize), (2, 3), (4, 5), (6, 7)])?)?;
//! sched.push(Phase::from_flows([(1usize, 0usize), (3, 2), (5, 4), (7, 6)])?)?;
//! sched.push(Phase::from_flows([(0usize, 4usize), (1, 5), (2, 6), (3, 7)])?)?;
//!
//! let pattern = AppPattern::from_schedule(&sched);
//! let config = SynthesisConfig::new().with_max_degree(5).with_seed(7);
//! let result = synthesize(&pattern, &config)?;
//!
//! // The generated network satisfies the degree constraint and is
//! // contention-free for the application (Theorem 1).
//! assert!(result.report.constraints_met);
//! assert!(result.network.max_degree() <= 5);
//! let report = verify_contention_free(pattern.contention(), &result.routes);
//! assert!(report.is_contention_free());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anneal;
mod config;
mod decompose;
mod error;
mod explain;
mod finalize;
mod moves;
mod pareto;
mod partition;
mod pattern;
mod report;
mod request;
mod route_opt;

pub use anneal::AcceptanceRule;
pub use config::{ColoringStrategy, SynthesisConfig};
pub use decompose::{
    auto_cluster_count, cluster_config, cluster_pattern, cluster_seed, stitch, Cluster,
    ClusterPlan, DecompositionSummary,
};
pub use error::SynthError;
pub use explain::explain;
pub use finalize::SynthesisResult;
pub use pareto::{degree_sweep, pareto_filter, ParetoPoint};
pub use partition::{Partitioning, PipeKey};
pub use pattern::AppPattern;
pub use report::SynthesisReport;
pub use request::{RequestBuildError, SynthesisMode, SynthesisRequest, SynthesisRequestBuilder};

/// The derived seed of restart `attempt` under `config`: the base seed
/// advanced by the golden-ratio (splitmix) increment per attempt. Exposed
/// so external schedulers (the `nocsyn-engine` restart portfolio) can
/// reproduce the exact per-attempt seed schedule of [`synthesize`].
pub fn attempt_seed(config: &SynthesisConfig, attempt: usize) -> u64 {
    config
        .seed()
        .wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The derived seed of `retry` of restart `attempt`: retry 0 is exactly
/// [`attempt_seed`] (a job with retries configured but none needed is
/// bit-identical to one without), and each further retry advances a
/// splitmix64 chain keyed on a *mixed* image of the attempt seed.
/// Exposed so the `nocsyn-engine` retry policy reruns a faulted attempt
/// under a fresh but *reproducible* seed — the retried result is still a
/// pure function of `(pattern, config, attempt, retry)`.
pub fn retry_seed(config: &SynthesisConfig, attempt: usize, retry: usize) -> u64 {
    let mut seed = attempt_seed(config, attempt);
    if retry == 0 {
        return seed;
    }
    // Chain from a mixed image of the attempt seed, not the raw seed:
    // `attempt_seed` strides attempts by the same golden-ratio constant
    // splitmix64 advances its state by, so raw chains from neighboring
    // attempts would alias (attempt a retry r == attempt a+1 retry r-1).
    let mut state = nocsyn_rng::splitmix64(&mut seed);
    let mut out = 0;
    for _ in 0..retry {
        out = nocsyn_rng::splitmix64(&mut state);
    }
    out
}

/// Runs restart `attempt` of the portfolio: [`synthesize_from`] the
/// mega-switch, seeded with [`attempt_seed`]. The result is a pure
/// function of `(pattern, config, attempt)` — independent of which thread
/// runs it or in what order attempts complete, which is what makes the
/// parallel portfolio in `nocsyn-engine` bit-identical to the sequential
/// loop.
///
/// # Errors
///
/// Same conditions as [`synthesize`].
pub fn synthesize_attempt(
    pattern: &AppPattern,
    config: &SynthesisConfig,
    attempt: usize,
) -> Result<SynthesisResult, SynthError> {
    let run_config = config.clone().with_seed(attempt_seed(config, attempt));
    synthesize_from(pattern, &run_config, None)
}

/// Portfolio selection rank of a result — lower is better: constraints
/// met first, then fewest links, then fewest switches. [`portfolio_merge`]
/// breaks rank ties on the attempt index.
pub fn portfolio_rank(r: &SynthesisResult) -> (bool, usize, usize) {
    (
        !r.report.constraints_met, // met first
        r.report.n_links,
        r.report.n_switches,
    )
}

/// The portfolio reduction: folds restart `attempt`'s `result` into the
/// best-so-far `(attempt, result)`, keeping the lower
/// `(portfolio_rank, attempt)` — on equal rank the lowest attempt index
/// wins. The minimum is independent of the order attempts are merged in,
/// so a sequential loop and a thread pool select the same result.
pub fn portfolio_merge(
    best: &mut Option<(usize, SynthesisResult)>,
    attempt: usize,
    result: SynthesisResult,
) {
    let better = best.as_ref().is_none_or(|(best_attempt, best_result)| {
        (portfolio_rank(&result), attempt) < (portfolio_rank(best_result), *best_attempt)
    });
    if better {
        *best = Some((attempt, result));
    }
}

/// Runs the full design methodology on `pattern` under `config`, producing
/// a concrete network, a route table, and a synthesis report.
///
/// Restarts run sequentially here; the `nocsyn-engine` portfolio fans the
/// same attempt schedule ([`attempt_seed`]) across threads and reduces
/// with the same [`portfolio_merge`], so both paths select bit-identical
/// results.
///
/// # Errors
///
/// Returns [`SynthError::EmptyPattern`] for a pattern with no processors.
/// A pattern whose constraints cannot be met (e.g. a degree bound smaller
/// than what any topology needs) does not error: synthesis runs to its
/// round limit and reports `constraints_met = false`.
pub fn synthesize(
    pattern: &AppPattern,
    config: &SynthesisConfig,
) -> Result<SynthesisResult, SynthError> {
    let mut best = None;
    for attempt in 0..config.restarts() {
        portfolio_merge(
            &mut best,
            attempt,
            synthesize_attempt(pattern, config, attempt)?,
        );
    }
    Ok(best.expect("restarts() is at least 1").1)
}

/// One full pass of the Main Partitioning Algorithm plus finalization,
/// seeded with `config.seed()` as given.
///
/// `start` is the initial processor placement (processor index → switch
/// index). `None` starts from the paper's single mega-switch. A previous
/// [`SynthesisResult::placement`] warm-starts run-time reconfiguration,
/// so the new network stays as close to the old one as the new pattern
/// permits; [`NetworkDelta::between`] on the two networks gives the edit
/// script.
///
/// [`NetworkDelta::between`]: nocsyn_topo::NetworkDelta::between
///
/// # Errors
///
/// [`SynthError::EmptyPattern`] if the pattern has no processors or
/// `start` does not cover them.
pub fn synthesize_from(
    pattern: &AppPattern,
    config: &SynthesisConfig,
    start: Option<&[usize]>,
) -> Result<SynthesisResult, SynthError> {
    let mut partitioning = match start {
        Some(placement) => Partitioning::from_assignment(pattern, placement)?,
        None => Partitioning::megaswitch(pattern)?,
    };
    partition::run(&mut partitioning, config);
    let mut result = finalize::materialize(&partitioning, config)?;

    // The paper's step 3: formal coloring may need more links than the
    // fast estimate, re-violating the degree constraint — in that case
    // partitioning resumes. Re-running with exact coloring makes the
    // search's degree estimates equal the finalized ones, so this loop
    // converges for any satisfiable constraint. A retry that left the
    // search state unchanged ends the loop: the next one would start from
    // the same state under the same seed and strategy, and replay it.
    let exact = config.clone().with_coloring(ColoringStrategy::Exact);
    let mut retries = 0;
    while !result.report.constraints_met && retries < 2 {
        let moved = partition::run(&mut partitioning, &exact);
        result = finalize::materialize(&partitioning, config)?;
        retries += 1;
        if !moved {
            break;
        }
    }
    Ok(result)
}

#[cfg(test)]
mod seed_tests {
    use super::*;

    #[test]
    fn retry_zero_is_the_attempt_seed() {
        let config = SynthesisConfig::new().with_seed(0xFEED);
        for attempt in 0..8 {
            assert_eq!(
                retry_seed(&config, attempt, 0),
                attempt_seed(&config, attempt)
            );
        }
    }

    #[test]
    fn retry_seeds_are_distinct_and_reproducible() {
        let config = SynthesisConfig::new().with_seed(7);
        let mut seen = std::collections::BTreeSet::new();
        for attempt in 0..8 {
            for retry in 0..8 {
                let s = retry_seed(&config, attempt, retry);
                assert_eq!(s, retry_seed(&config, attempt, retry));
                assert!(
                    seen.insert(s),
                    "collision at attempt {attempt} retry {retry}"
                );
            }
        }
    }
}
