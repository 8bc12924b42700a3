//! The scale-decomposed pattern generator: block-local permutations
//! with real cross-block traffic.
//!
//! Each phase is a random permutation inside every block of `block`
//! consecutive processes. Cross-block traffic then comes from target
//! swaps: two sources in different blocks, both still aimed inside their
//! own block, exchange targets. A swap keeps the phase a permutation
//! (the paper's single-contention-period shape) and makes both flows
//! cross a block boundary, so every requested cross flow is delivered.

use nocsyn_model::{Flow, Phase, PhaseSchedule};
use nocsyn_rng::Rng;
use nocsyn_synth::AppPattern;

/// Builds an `n`-process schedule of `phases` block-local permutations
/// with `swaps` cross-block target swaps per phase.
///
/// # Panics
///
/// Panics if `block < 2`, if `n` is not a multiple of `block`, or if
/// there are fewer than two blocks.
pub fn block_schedule(
    n: usize,
    block: usize,
    phases: usize,
    swaps: usize,
    rng: &mut Rng,
) -> PhaseSchedule {
    assert!(block >= 2, "blocks need at least two processes");
    assert!(
        n.is_multiple_of(block) && n / block >= 2,
        "need at least two whole blocks"
    );
    let mut sched = PhaseSchedule::new(n);
    // Processes already carrying a cross-block flow, in any phase: each
    // carries at most one, so its own block keeps the larger affinity
    // and the blocks stay the cheapest cut.
    let mut crossing = vec![false; n];
    for _ in 0..phases {
        let mut target: Vec<usize> = (0..n).collect();
        for start in (0..n).step_by(block) {
            rng.shuffle(&mut target[start..start + block]);
        }
        for _ in 0..swaps {
            let free: Vec<usize> = (0..n)
                .filter(|&s| {
                    let t = target[s];
                    t != s && t / block == s / block && !crossing[s] && !crossing[t]
                })
                .collect();
            let a = free[rng.gen_range(0..free.len())];
            let partners: Vec<usize> = free
                .iter()
                .copied()
                .filter(|&s| s / block != a / block)
                .collect();
            if partners.is_empty() {
                break;
            }
            let b = partners[rng.gen_range(0..partners.len())];
            for p in [a, b, target[a], target[b]] {
                crossing[p] = true;
            }
            target.swap(a, b);
        }
        let mut phase = Phase::new().with_bytes(64);
        for (s, &d) in target.iter().enumerate() {
            if s != d {
                phase
                    .add(Flow::from_indices(s, d))
                    .expect("a permutation has one flow per source and per target");
            }
        }
        sched.push(phase).expect("every process index is below n");
    }
    sched
}

/// Distinct flows of `pattern` whose endpoints lie in different blocks.
pub fn cross_block_flows(pattern: &AppPattern, block: usize) -> usize {
    pattern
        .flows()
        .iter()
        .filter(|f| f.src.index() / block != f.dst.index() / block)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_synth::{auto_cluster_count, cluster_pattern};

    #[test]
    fn phases_stay_permutations_with_the_requested_cross_flows() {
        let mut rng = Rng::seed_from_u64(5);
        let sched = block_schedule(128, 16, 2, 4, &mut rng);
        assert_eq!(sched.len(), 2);
        for phase in sched.iter() {
            let mut srcs = std::collections::BTreeSet::new();
            let mut dsts = std::collections::BTreeSet::new();
            let mut cross = 0;
            for f in phase.iter() {
                assert!(srcs.insert(f.src.index()), "one flow per source");
                assert!(dsts.insert(f.dst.index()), "one flow per target");
                if f.src.index() / 16 != f.dst.index() / 16 {
                    cross += 1;
                }
            }
            // Each swap turns two local targets into two cross flows.
            assert_eq!(cross, 8);
        }
    }

    #[test]
    fn the_affinity_cut_severs_exactly_the_cross_block_flows() {
        for (n, seed) in (0..200).flat_map(|seed| [(128, seed), (256, seed)]) {
            let mut rng = Rng::seed_from_u64(seed);
            let sched = block_schedule(n, 16, 2, n / 32, &mut rng);
            let pattern = AppPattern::from_schedule(&sched);
            let delivered = cross_block_flows(&pattern, 16);
            assert_eq!(delivered, 2 * 2 * (n / 32), "every swap delivers two");
            let plan = cluster_pattern(&pattern, auto_cluster_count(n)).expect("non-empty");
            assert_eq!(plan.cut_flows().len(), delivered, "n={n} seed={seed}");
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = block_schedule(128, 16, 2, 4, &mut Rng::seed_from_u64(9));
        let b = block_schedule(128, 16, 2, 4, &mut Rng::seed_from_u64(9));
        let c = block_schedule(128, 16, 2, 4, &mut Rng::seed_from_u64(10));
        let text = nocsyn_model::format_schedule;
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
    }
}
