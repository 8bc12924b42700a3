//! Partitioning state and the Main Partitioning Algorithm (paper Appendix).
//!
//! Synthesis works on an abstract *partitioning*: an assignment of
//! processors to switches, plus a per-flow path through switches. Every
//! unordered switch pair with traffic between them is a *pipe*; the number
//! of links a pipe needs is estimated by coloring (fast or exact) of the
//! communications crossing it, per direction. The concrete [`Network`]
//! (with real parallel links) is only materialized at finalization.
//!
//! Pipes live in append-only *slots* addressed through a
//! [`ResourceInterner`] and a dense lookup matrix; each slot direction is
//! a directed pipe resource (id `slot * 2 + direction`). A candidate
//! reroute never walks the pipe map: its old crossings come from the
//! flow's committed path, its new crossings from the candidate path, and
//! the two lists cancel by parity — the delta-update invariant of
//! DESIGN.md §12. [`Partitioning::probe_score`] evaluates a reroute from
//! those toggles alone. Each direction keeps per-clique crossing counters,
//! so a flipped `Fast_Color` estimate costs O(cliques of the flow); the
//! full recompute is demoted to a debug-assert oracle.
//!
//! [`Network`]: nocsyn_topo::Network

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

#[cfg(test)]
use nocsyn_coloring::fast_color_directed_masks;
use nocsyn_coloring::{exact_chromatic, ConflictGraph};
use nocsyn_model::{
    BitSet, ContentionSet, Flow, FlowInterner, FxBuildHasher, ProcId, ResourceInterner,
};
use nocsyn_rng::Rng;

use crate::anneal::Acceptor;
use crate::{moves, route_opt, AppPattern, ColoringStrategy, SynthError, SynthesisConfig};

/// An unordered pair of switch indices naming a pipe; `lo < hi`.
///
/// The *forward* direction of a pipe runs from `lo` to `hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PipeKey {
    lo: usize,
    hi: usize,
}

impl PipeKey {
    /// Creates the pipe key for switches `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; pipes join distinct switches.
    pub fn new(a: usize, b: usize) -> Self {
        assert_ne!(a, b, "a pipe joins two distinct switches");
        PipeKey {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// The smaller switch index.
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// The larger switch index.
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Whether traversal from `a` to `b` is this pipe's forward direction.
    pub fn forward_from(&self, a: usize) -> bool {
        a == self.lo
    }

    /// Whether the pipe touches switch `s`.
    pub fn touches(&self, s: usize) -> bool {
        self.lo == s || self.hi == s
    }
}

impl fmt::Display for PipeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P({},{})", self.lo, self.hi)
    }
}

/// The opaque resource key a pipe interns under (switch indices packed
/// into one word; switch counts never approach 2^32).
fn pipe_key_code(key: PipeKey) -> u64 {
    ((key.lo as u64) << 32) | key.hi as u64
}

/// `Fast_Color` of one pipe direction, maintained incrementally: how many
/// of the crossing flows each maximum clique holds, the largest such count
/// (the paper's estimate, `max |clique ∩ crossing|`) and how many cliques
/// sit at it. Inserting or removing a flow touches only the cliques that
/// contain it, and so does estimating the flipped set.
#[derive(Debug, Clone)]
struct CliqueCounter {
    counts: Vec<u32>,
    max: u32,
    at_max: u32,
}

impl CliqueCounter {
    fn new(n_cliques: usize) -> Self {
        CliqueCounter {
            counts: vec![0; n_cliques],
            max: 0,
            at_max: n_cliques as u32,
        }
    }

    /// The current estimate (0 for an empty crossing set).
    fn max(&self) -> usize {
        self.max as usize
    }

    /// Adds a crossing flow that lies in `cliques`.
    fn insert(&mut self, cliques: &[u32]) {
        for &c in cliques {
            let count = &mut self.counts[c as usize];
            *count += 1;
            if *count > self.max {
                self.max = *count;
                self.at_max = 1;
            } else if *count == self.max {
                self.at_max += 1;
            }
        }
    }

    /// Removes a crossing flow that lies in `cliques`.
    fn remove(&mut self, cliques: &[u32]) {
        for &c in cliques {
            let count = &mut self.counts[c as usize];
            if *count == self.max {
                self.at_max -= 1;
            }
            *count -= 1;
        }
        if self.at_max == 0 {
            // Every clique at the maximum lost a member: rescan for the
            // new maximum (commits only — probes use `max_without`).
            self.max = self.counts.iter().copied().max().unwrap_or(0);
            self.at_max = self.counts.iter().filter(|&&n| n == self.max).count() as u32;
        }
    }

    /// The estimate after inserting a flow that lies in `cliques`.
    fn max_with(&self, cliques: &[u32]) -> usize {
        cliques
            .iter()
            .map(|&c| self.counts[c as usize] + 1)
            .fold(self.max, u32::max) as usize
    }

    /// The estimate after removing a crossing flow that lies in
    /// `cliques`: one lower exactly when every clique at the maximum
    /// contains the flow.
    fn max_without(&self, cliques: &[u32]) -> usize {
        let held = cliques
            .iter()
            .filter(|&&c| self.counts[c as usize] == self.max)
            .count() as u32;
        if self.max > 0 && held == self.at_max {
            self.max as usize - 1
        } else {
            self.max as usize
        }
    }
}

/// One direction of a pipe: the communications crossing it (a [`BitSet`]
/// over the pattern's interned flow ids), their clique counters, and the
/// direction's link estimate.
#[derive(Debug, Clone)]
struct PipeDir {
    set: BitSet,
    /// Population count of `set`, maintained on every toggle so
    /// emptiness tests never scan the bitset words.
    n: usize,
    /// Edit generation (bumped on every toggle), versioning `exact_memo`.
    gen: u64,
    cliques: CliqueCounter,
    /// Flow id → `(generation, links)`: the exact-coloring estimate with
    /// that flow flipped, valid while `gen` still equals the recorded
    /// generation. Allocated on the first `Exact` probe of the direction.
    exact_memo: Vec<(u64, u32)>,
    links: usize,
}

impl PipeDir {
    fn new(universe: usize, n_cliques: usize) -> Self {
        PipeDir {
            set: BitSet::with_capacity(universe),
            n: 0,
            gen: 0,
            cliques: CliqueCounter::new(n_cliques),
            exact_memo: Vec::new(),
            links: 0,
        }
    }

    /// Flips flow `idx` (lying in `cliques`) in or out of the direction.
    fn toggle(&mut self, idx: usize, cliques: &[u32]) {
        if self.set.toggle(idx) {
            self.n += 1;
            self.cliques.insert(cliques);
        } else {
            self.n -= 1;
            self.cliques.remove(cliques);
        }
        self.gen += 1;
    }
}

/// Index of a pipe direction in [`PipeState::dirs`] (and the low bit of
/// its resource id): 0 forward (`lo → hi`), 1 backward.
fn dir_index(key: PipeKey, from: usize) -> usize {
    usize::from(!key.forward_from(from))
}

/// One pipe: both directions and the pipe's link estimate (the wider
/// direction — a full-duplex link serves both). Slots persist after a
/// pipe drains (empty sets, zero links) so resource ids stay stable for
/// the whole search.
#[derive(Debug, Clone)]
pub(crate) struct PipeState {
    pub(crate) key: PipeKey,
    dirs: [PipeDir; 2],
    pub(crate) links: usize,
}

impl PipeState {
    fn new(key: PipeKey, universe: usize, n_cliques: usize) -> Self {
        PipeState {
            key,
            dirs: [
                PipeDir::new(universe, n_cliques),
                PipeDir::new(universe, n_cliques),
            ],
            links: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.dirs[0].n == 0 && self.dirs[1].n == 0
    }
}

/// Counters describing a synthesis run (embedded into the final
/// [`SynthesisReport`](crate::SynthesisReport)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SearchStats {
    pub(crate) rounds: usize,
    pub(crate) splits: usize,
    pub(crate) moves_tried: usize,
    pub(crate) moves_accepted: usize,
    pub(crate) reroutes_tried: usize,
    pub(crate) reroutes_accepted: usize,
    /// Reroutes whose evaluated score exactly matched the incumbent:
    /// tried, scored, and found neither better nor worse. Distinguishes
    /// "no improvement existed" from "never evaluated" when
    /// `reroutes_accepted` is zero.
    pub(crate) reroutes_neutral: usize,
    pub(crate) cost_history: Vec<usize>,
}

/// Memoized committed score: the config knobs it was computed under, and
/// the `(excess, area)` pair.
type ScoreMemo = ((usize, Option<usize>), (usize, usize));

/// The evolving partition of processors into switches, with per-flow switch
/// paths and per-pipe link estimates.
#[derive(Debug, Clone)]
pub struct Partitioning {
    pattern: AppPattern,
    strategy: ColoringStrategy,
    /// Processor → switch index.
    home: Vec<usize>,
    /// Switch index → member processors (sorted).
    members: Vec<Vec<ProcId>>,
    /// Flow index (into `pattern.flows()`) → switch path. The path starts
    /// at the source's home switch and ends at the destination's; adjacent
    /// entries are distinct and the path is simple.
    paths: Vec<Vec<usize>>,
    /// Interner over `pattern.flows()`: a flow's id equals its index in
    /// the (sorted, deduplicated) flow list, so paths, crossing bitsets
    /// and the pattern share one id space.
    interner: FlowInterner,
    /// Flow id → indices of the `pattern.cliques()` containing it. The
    /// clique counters of every pipe direction are updated through this
    /// table.
    flow_cliques: Vec<Vec<u32>>,
    /// Processor index → flow indices with that processor as an endpoint
    /// (ascending), precomputed so moves don't rescan the flow list.
    proc_flows: Vec<Vec<usize>>,
    /// Pipe key (packed) → slot id, in first-seen order. Append-only.
    pipe_ids: ResourceInterner,
    /// Dense mirror of `pipe_ids`: `lo * pipe_stride + hi` → slot (or
    /// `u32::MAX`), so the probe loop resolves a pipe with one indexed
    /// load instead of a hash lookup. Rebuilt when a switch is added.
    pipe_lookup: Vec<u32>,
    pipe_stride: usize,
    /// Slot id → pipe state. A drained pipe keeps its slot zeroed rather
    /// than being removed, so resource ids never dangle.
    pipe_slots: Vec<PipeState>,
    /// The *live* (non-empty) pipes in sorted key order — the view every
    /// deterministic iteration ([`Partitioning::pipes`]) walks.
    live_pipes: BTreeMap<PipeKey, usize>,
    /// Switch index → sum of link estimates of incident pipes, maintained
    /// by [`Partitioning::recompute_pipe_slot`] so [`Partitioning::degree`]
    /// is O(1) instead of a scan over the pipe map.
    incident_links: Vec<usize>,
    /// Switch index → number of live incident pipes (for
    /// [`Partitioning::live_switches`] without a pipe-map scan).
    incident_pipes: Vec<usize>,
    /// Switch index → whether it would survive materialization, with the
    /// live count maintained alongside so `score` never rescans.
    switch_live: Vec<bool>,
    live_switch_count: usize,
    /// Reused buffer of pipe slots touched by the current path-change
    /// batch.
    touched_scratch: Vec<usize>,
    /// Reused buffers for [`Partitioning::probe_score`]: parity-filtered
    /// directed-resource toggles and per-switch delta accumulators.
    probe_toggles: Vec<usize>,
    probe_switches: Vec<(usize, isize, isize)>,
    /// Reused bitset holding a probed direction's crossing set.
    dir_scratch: BitSet,
    /// Memoized exact chromatic numbers per crossing set. The number is a
    /// pure function of the set (the contention set is fixed per
    /// pattern), so caching changes no computed value — it only spares the
    /// branch-and-bound when the search revisits a set, which it does
    /// constantly.
    chi_cache: HashMap<BitSet, usize, FxBuildHasher>,
    /// Committed score memo, invalidated by every mutation; `Cell` so the
    /// historically-`&self` [`Partitioning::score`] can fill it.
    score_memo: Cell<Option<ScoreMemo>>,
    total_links: usize,
    pub(crate) stats: SearchStats,
}

/// Flow indices incident to each processor, in ascending index order.
fn proc_flow_table(pattern: &AppPattern) -> Vec<Vec<usize>> {
    let mut table = vec![Vec::new(); pattern.n_procs()];
    for (i, f) in pattern.flows().iter().enumerate() {
        table[f.src.index()].push(i);
        if f.dst != f.src {
            table[f.dst.index()].push(i);
        }
    }
    table
}

/// Flow id → indices of the cliques containing it (ascending), from the
/// cliques compiled to masks over the flow interner. Two equal masks are
/// two cliques, exactly as in the mask sweep of `Fast_Color`.
fn flow_clique_table(masks: &[BitSet], n_flows: usize) -> Vec<Vec<u32>> {
    let mut table = vec![Vec::new(); n_flows];
    for (c, mask) in masks.iter().enumerate() {
        for id in mask.iter() {
            table[id].push(c as u32);
        }
    }
    table
}

/// Looks up (or creates) the slot of `key`. Free function over the
/// storage fields so callers can hold disjoint borrows of the rest of the
/// partitioning. The dense mirror answers repeat lookups; the interner is
/// only consulted (and the mirror filled) the first time a pipe appears.
fn intern_pipe_slot(
    pipe_ids: &mut ResourceInterner,
    pipe_slots: &mut Vec<PipeState>,
    pipe_lookup: &mut [u32],
    pipe_stride: usize,
    universe: usize,
    n_cliques: usize,
    key: PipeKey,
) -> usize {
    let cell = &mut pipe_lookup[key.lo * pipe_stride + key.hi];
    if *cell != u32::MAX {
        return *cell as usize;
    }
    let slot = pipe_ids.intern(pipe_key_code(key));
    if slot == pipe_slots.len() {
        pipe_slots.push(PipeState::new(key, universe, n_cliques));
    }
    *cell = slot as u32;
    slot
}

/// Exact-coloring link estimate of one pipe direction, memoized per
/// crossing set. The cache stores exactly what the uncached computation
/// returns, so hits change no computed value.
fn exact_links(
    interner: &FlowInterner,
    contention: &ContentionSet,
    chi_cache: &mut HashMap<BitSet, usize, FxBuildHasher>,
    set: &BitSet,
) -> usize {
    if set.is_empty() {
        return 0;
    }
    if let Some(&chi) = chi_cache.get(set) {
        return chi;
    }
    let g = ConflictGraph::from_flows(interner.flows_of(set).collect(), contention);
    let chi = exact_chromatic(&g).n_colors();
    chi_cache.insert(set.clone(), chi);
    chi
}

impl Partitioning {
    /// Builds the initial single-"mega-switch" partitioning (step 1 of the
    /// main algorithm).
    ///
    /// # Errors
    ///
    /// [`SynthError::EmptyPattern`] if the pattern has no processors.
    pub fn megaswitch(pattern: &AppPattern) -> Result<Self, SynthError> {
        Self::from_assignment(pattern, &vec![0; pattern.n_procs()])
    }

    /// Builds a partitioning from an explicit processor-to-switch
    /// assignment with direct routing — the warm start used by
    /// [`synthesize_from`](crate::synthesize_from).
    ///
    /// # Errors
    ///
    /// [`SynthError::EmptyPattern`] if the pattern has no processors or
    /// `homes` does not cover them.
    pub fn from_assignment(pattern: &AppPattern, homes: &[usize]) -> Result<Self, SynthError> {
        if pattern.n_procs() == 0 || homes.len() != pattern.n_procs() {
            return Err(SynthError::EmptyPattern);
        }
        let n_switches = homes.iter().copied().max().unwrap_or(0) + 1;
        let n_flows = pattern.flows().len();
        let mut members: Vec<Vec<ProcId>> = vec![Vec::new(); n_switches];
        for (p, &h) in homes.iter().enumerate() {
            members[h].push(ProcId(p));
        }
        let switch_live: Vec<bool> = members.iter().map(|m| !m.is_empty()).collect();
        let live_switch_count = switch_live.iter().filter(|&&b| b).count();
        let interner = FlowInterner::from_sorted_flows(pattern.flows().to_vec());
        let mut partitioning = Partitioning {
            flow_cliques: flow_clique_table(&pattern.cliques().compile_masks(&interner), n_flows),
            interner,
            proc_flows: proc_flow_table(pattern),
            paths: vec![Vec::new(); n_flows],
            pattern: pattern.clone(),
            strategy: ColoringStrategy::Fast,
            home: homes.to_vec(),
            incident_links: vec![0; n_switches],
            incident_pipes: vec![0; n_switches],
            switch_live,
            live_switch_count,
            touched_scratch: Vec::new(),
            probe_toggles: Vec::new(),
            probe_switches: Vec::new(),
            dir_scratch: BitSet::with_capacity(n_flows),
            chi_cache: HashMap::default(),
            score_memo: Cell::new(None),
            members,
            pipe_ids: ResourceInterner::new(),
            pipe_lookup: vec![u32::MAX; n_switches * n_switches],
            pipe_stride: n_switches,
            pipe_slots: Vec::new(),
            live_pipes: BTreeMap::new(),
            total_links: 0,
            stats: SearchStats::default(),
        };
        for idx in 0..partitioning.paths.len() {
            let direct = partitioning.direct_path(idx);
            partitioning.set_path(idx, &direct);
        }
        Ok(partitioning)
    }

    /// The application pattern being synthesized for.
    pub fn pattern(&self) -> &AppPattern {
        &self.pattern
    }

    /// Number of switches created so far.
    pub fn n_switches(&self) -> usize {
        self.members.len()
    }

    /// The home switch of a processor.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn home(&self, proc: ProcId) -> usize {
        self.home[proc.index()]
    }

    /// The processors attached to switch `s` (sorted).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn members(&self, s: usize) -> &[ProcId] {
        &self.members[s]
    }

    /// The switch path currently assigned to `flow`, if the application
    /// uses that flow.
    pub fn path(&self, flow: Flow) -> Option<&[usize]> {
        self.interner.id(flow).map(|i| self.paths[i].as_slice())
    }

    /// The interner mapping this pattern's flows to the contiguous ids
    /// used by [`Partitioning::pipe_flows`] bitsets (a flow's id is its
    /// index in [`AppPattern::flows`]).
    pub fn interner(&self) -> &FlowInterner {
        &self.interner
    }

    /// Sum of link estimates over all pipes — the objective the search
    /// minimizes.
    pub fn total_links(&self) -> usize {
        self.total_links
    }

    /// Iterates over `(pipe, link estimate)` for every non-empty pipe, in
    /// sorted key order.
    pub fn pipes(&self) -> impl Iterator<Item = (PipeKey, usize)> + '_ {
        self.live_pipes
            .iter()
            .map(|(k, &slot)| (*k, self.pipe_slots[slot].links))
    }

    /// The flows crossing `pipe` in its forward and backward directions,
    /// as bitsets over [`Partitioning::interner`] ids (iterating a set
    /// yields ids in ascending order — lexicographic flow order).
    pub fn pipe_flows(&self, pipe: PipeKey) -> Option<(&BitSet, &BitSet)> {
        self.live_pipes.get(&pipe).map(|&slot| {
            let [fwd, bwd] = &self.pipe_slots[slot].dirs;
            (&fwd.set, &bwd.set)
        })
    }

    /// Estimated node degree of switch `s`: attached processors plus the
    /// link estimates of every incident pipe (cached incrementally; O(1)).
    pub fn degree(&self, s: usize) -> usize {
        self.members[s].len() + self.incident_links[s]
    }

    /// Switches violating any design constraint: degree over the maximum,
    /// or an incident pipe wider than the configured pipe-width bound.
    pub fn violating(&self, config: &SynthesisConfig) -> Vec<usize> {
        let wide: BTreeSet<usize> = match config.max_pipe_width() {
            None => BTreeSet::new(),
            Some(w) => self
                .live_pipes
                .iter()
                .filter(|(_, &slot)| self.pipe_slots[slot].links > w)
                .flat_map(|(k, _)| [k.lo, k.hi])
                .collect(),
        };
        (0..self.members.len())
            .filter(|&s| self.degree(s) > config.max_degree() || wide.contains(&s))
            .collect()
    }

    /// Switches that would survive materialization: those hosting
    /// processors or carrying traffic (dead switches are dropped).
    /// Maintained incrementally; O(1).
    pub fn live_switches(&self) -> usize {
        self.live_switch_count
    }

    /// Lexicographic optimization score: total degree excess over the
    /// constraint first (0 when all constraints hold), then chip area
    /// (links + live switches). Strictly decreasing accepts make every
    /// repair/refinement loop terminate. Memoized between mutations, so
    /// re-reading the committed score inside the reroute loop is O(1).
    pub fn score(&self, config: &SynthesisConfig) -> (usize, usize) {
        let params = (config.max_degree(), config.max_pipe_width());
        if let Some((memo_params, memo_score)) = self.score_memo.get() {
            if memo_params == params {
                return memo_score;
            }
        }
        let degree_excess: usize = (0..self.members.len())
            .map(|s| self.degree(s).saturating_sub(config.max_degree()))
            .sum();
        let width_excess: usize = match config.max_pipe_width() {
            None => 0,
            Some(w) => self
                .live_pipes
                .values()
                .map(|&slot| self.pipe_slots[slot].links.saturating_sub(w))
                .sum(),
        };
        let score = (
            degree_excess + width_excess,
            self.total_links + self.live_switch_count,
        );
        self.score_memo.set(Some((params, score)));
        score
    }

    // ------------------------------------------------------------------
    // Mutators (crate-internal; the search drives these).
    // ------------------------------------------------------------------

    pub(crate) fn set_strategy(&mut self, strategy: ColoringStrategy) {
        if self.strategy != strategy {
            self.strategy = strategy;
            self.score_memo.set(None);
            let slots: Vec<usize> = self.live_pipes.values().copied().collect();
            for slot in slots {
                self.recompute_pipe_slot(slot);
            }
        }
    }

    /// Re-derives one slot's per-direction link estimates from its
    /// (already-updated) crossing sets, then reconciles every aggregate
    /// hanging off it: total links, per-switch incident sums, the live
    /// pipe view, and switch liveness.
    fn recompute_pipe_slot(&mut self, slot: usize) {
        let st = &mut self.pipe_slots[slot];
        for dir in &mut st.dirs {
            dir.links = match self.strategy {
                ColoringStrategy::Fast => dir.cliques.max(),
                ColoringStrategy::Exact => exact_links(
                    &self.interner,
                    self.pattern.contention(),
                    &mut self.chi_cache,
                    &dir.set,
                ),
            };
        }
        let key = st.key;
        let old_links = st.links;
        let new_links = st.dirs[0].links.max(st.dirs[1].links);
        st.links = new_links;
        let now_empty = st.is_empty();
        self.total_links = self.total_links - old_links + new_links;
        for s in [key.lo, key.hi] {
            // Add before subtracting: the sum never transiently underflows.
            self.incident_links[s] = self.incident_links[s] + new_links - old_links;
        }
        let was_live = self.live_pipes.contains_key(&key);
        if was_live && now_empty {
            debug_assert_eq!(new_links, 0);
            self.live_pipes.remove(&key);
            self.incident_pipes[key.lo] -= 1;
            self.incident_pipes[key.hi] -= 1;
            self.refresh_switch_live(key.lo);
            self.refresh_switch_live(key.hi);
        } else if !was_live && !now_empty {
            self.live_pipes.insert(key, slot);
            self.incident_pipes[key.lo] += 1;
            self.incident_pipes[key.hi] += 1;
            self.refresh_switch_live(key.lo);
            self.refresh_switch_live(key.hi);
        }
    }

    /// Reconciles `switch_live[s]` (and the live count) after a change to
    /// switch `s`'s members or incident pipes.
    fn refresh_switch_live(&mut self, s: usize) {
        let live = !self.members[s].is_empty() || self.incident_pipes[s] > 0;
        if live != self.switch_live[s] {
            self.switch_live[s] = live;
            if live {
                self.live_switch_count += 1;
            } else {
                self.live_switch_count -= 1;
            }
        }
    }

    /// Applies a batch of path changes (flow index → new path)
    /// incrementally: the old and new crossings of every changed flow are
    /// XOR-toggled into the per-pipe direction state in place (a flow
    /// crossing the same pipe and direction both before and after cancels
    /// out), and each touched pipe's link estimate is recomputed exactly
    /// once — however many flows of the batch cross it. The new path is
    /// copied into the flow's existing buffer, so a change allocates
    /// nothing once that buffer has grown to the longest path it held.
    fn apply_path_changes<P, I>(&mut self, changes: I)
    where
        P: AsRef<[usize]>,
        I: IntoIterator<Item = (usize, P)>,
    {
        self.score_memo.set(None);
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        for (idx, new_path) in changes {
            let new_path = new_path.as_ref();
            debug_assert!(
                new_path.windows(2).all(|w| w[0] != w[1]),
                "path repeats a switch"
            );
            let mut path = std::mem::take(&mut self.paths[idx]);
            self.toggle_crossings(idx, &path, &mut touched);
            path.clear();
            path.extend_from_slice(new_path);
            self.toggle_crossings(idx, &path, &mut touched);
            self.paths[idx] = path;
        }
        touched.sort_unstable();
        touched.dedup();
        for &slot in &touched {
            self.recompute_pipe_slot(slot);
        }
        self.touched_scratch = touched;
    }

    /// Flips flow `idx` in or out of every directed pipe resource `path`
    /// crosses (interning new pipes), recording the touched slots.
    fn toggle_crossings(&mut self, idx: usize, path: &[usize], touched: &mut Vec<usize>) {
        let universe = self.paths.len();
        let n_cliques = self.pattern.cliques().len();
        let cliques = &self.flow_cliques[idx];
        for w in path.windows(2) {
            let key = PipeKey::new(w[0], w[1]);
            let slot = intern_pipe_slot(
                &mut self.pipe_ids,
                &mut self.pipe_slots,
                &mut self.pipe_lookup,
                self.pipe_stride,
                universe,
                n_cliques,
                key,
            );
            self.pipe_slots[slot].dirs[dir_index(key, w[0])].toggle(idx, cliques);
            touched.push(slot);
        }
    }

    /// Installs `path` for flow `idx`, updating pipe crossings and link
    /// estimates.
    pub(crate) fn set_path(&mut self, idx: usize, path: &[usize]) {
        self.apply_path_changes([(idx, path)]);
    }

    // ------------------------------------------------------------------
    // Probes: score a candidate reroute without committing it.
    // ------------------------------------------------------------------

    /// Gathers the directed pipe resources whose crossing sets would flip
    /// if flow `idx` moved to `new_path`: the committed path's crossings
    /// XOR the candidate's, computed by sort + parity-cancel (a resource
    /// crossed both before and after appears twice and drops out).
    /// Interns candidate pipes on the fly — an interned-but-empty slot is
    /// indistinguishable from an absent pipe.
    fn collect_probe_toggles(&mut self, idx: usize, new_path: &[usize]) {
        let universe = self.paths.len();
        let n_cliques = self.pattern.cliques().len();
        let mut toggles = std::mem::take(&mut self.probe_toggles);
        toggles.clear();
        for w in self.paths[idx].windows(2) {
            let key = PipeKey::new(w[0], w[1]);
            // A committed crossing is always interned.
            let slot = self.pipe_lookup[key.lo * self.pipe_stride + key.hi] as usize;
            toggles.push(slot * 2 + dir_index(key, w[0]));
        }
        for w in new_path.windows(2) {
            let key = PipeKey::new(w[0], w[1]);
            let slot = intern_pipe_slot(
                &mut self.pipe_ids,
                &mut self.pipe_slots,
                &mut self.pipe_lookup,
                self.pipe_stride,
                universe,
                n_cliques,
                key,
            );
            toggles.push(slot * 2 + dir_index(key, w[0]));
        }
        toggles.sort_unstable();
        // Both paths are simple, so each crosses a resource at most once
        // and a resource's multiplicity is at most 2; keep odd occurrences.
        let mut keep = 0;
        let mut i = 0;
        while i < toggles.len() {
            if i + 1 < toggles.len() && toggles[i + 1] == toggles[i] {
                i += 2;
            } else {
                toggles[keep] = toggles[i];
                keep += 1;
                i += 1;
            }
        }
        toggles.truncate(keep);
        self.probe_toggles = toggles;
    }

    /// Link estimate of direction `dir` of `slot` with flow `idx` flipped,
    /// plus whether that direction would then be empty; commits nothing.
    /// `Fast` reads the clique counters. `Exact` answers from the
    /// direction's generation-checked memo — the anneal re-probes the same
    /// (pipe, direction, flow) flips over and over between commits — and
    /// on a miss colors the flipped set in a scratch bitset.
    fn flipped_dir_links(&mut self, slot: usize, dir: usize, idx: usize) -> (usize, bool) {
        let d = &self.pipe_slots[slot].dirs[dir];
        let present = d.set.contains(idx);
        let flipped_n = if present { d.n - 1 } else { d.n + 1 };
        if flipped_n == 0 {
            return (0, true);
        }
        let cliques = &self.flow_cliques[idx];
        let links = match self.strategy {
            ColoringStrategy::Fast if present => d.cliques.max_without(cliques),
            ColoringStrategy::Fast => d.cliques.max_with(cliques),
            ColoringStrategy::Exact => {
                let universe = self.paths.len();
                let d = &mut self.pipe_slots[slot].dirs[dir];
                if d.exact_memo.is_empty() {
                    d.exact_memo = vec![(u64::MAX, 0); universe];
                }
                let (gen, links) = d.exact_memo[idx];
                if gen == d.gen {
                    return (links as usize, false);
                }
                self.dir_scratch.clone_from(&d.set);
                self.dir_scratch.toggle(idx);
                let links = exact_links(
                    &self.interner,
                    self.pattern.contention(),
                    &mut self.chi_cache,
                    &self.dir_scratch,
                );
                let d = &mut self.pipe_slots[slot].dirs[dir];
                d.exact_memo[idx] = (d.gen, links as u32);
                links
            }
        };
        (links, false)
    }

    /// The total link estimate the partitioning would have after rerouting
    /// flow `idx` onto `new_path`, computed from the toggled crossings
    /// alone — no committed state changes. In debug builds the result is
    /// checked against a real apply-score-revert.
    pub(crate) fn probe_total_links(&mut self, idx: usize, new_path: &[usize]) -> usize {
        self.collect_probe_toggles(idx, new_path);
        let toggles = std::mem::take(&mut self.probe_toggles);
        let mut total = self.total_links as isize;
        let mut i = 0;
        while i < toggles.len() {
            let slot = toggles[i] / 2;
            let flip_fwd = toggles[i].is_multiple_of(2);
            let flip_both = flip_fwd && i + 1 < toggles.len() && toggles[i + 1] == slot * 2 + 1;
            let new_fwd = if flip_fwd {
                self.flipped_dir_links(slot, 0, idx).0
            } else {
                self.pipe_slots[slot].dirs[0].links
            };
            let new_bwd = if !flip_fwd || flip_both {
                self.flipped_dir_links(slot, 1, idx).0
            } else {
                self.pipe_slots[slot].dirs[1].links
            };
            total += new_fwd.max(new_bwd) as isize - self.pipe_slots[slot].links as isize;
            i += if flip_both { 2 } else { 1 };
        }
        self.probe_toggles = toggles;
        let probed = total as usize;
        #[cfg(debug_assertions)]
        {
            let old_path = self.paths[idx].clone();
            self.set_path(idx, new_path);
            let actual = self.total_links;
            self.set_path(idx, &old_path);
            debug_assert_eq!(
                probed, actual,
                "probe_total_links diverged from full recompute"
            );
        }
        probed
    }

    /// The exact [`Partitioning::score`] the partitioning would have after
    /// rerouting flow `idx` onto `new_path`, assembled as committed score
    /// plus per-touched-pipe deltas (links, width excess, switch degree
    /// excess, pipe and switch liveness) — O(path length), no committed
    /// state changes. In debug builds the result is checked against a real
    /// apply-score-revert (the full `C ∩ R` recompute demoted to oracle).
    pub(crate) fn probe_score(
        &mut self,
        idx: usize,
        new_path: &[usize],
        config: &SynthesisConfig,
    ) -> (usize, usize) {
        let (base_excess, base_area) = self.score(config);
        self.collect_probe_toggles(idx, new_path);
        let toggles = std::mem::take(&mut self.probe_toggles);
        let mut switches = std::mem::take(&mut self.probe_switches);
        switches.clear();
        let max_degree = config.max_degree() as isize;
        let width_cap = config.max_pipe_width();
        let mut d_links_total = 0isize;
        let mut d_excess = 0isize;
        let mut i = 0;
        while i < toggles.len() {
            let slot = toggles[i] / 2;
            let flip_fwd = toggles[i].is_multiple_of(2);
            let flip_both = flip_fwd && i + 1 < toggles.len() && toggles[i + 1] == slot * 2 + 1;
            let was_nonempty = !self.pipe_slots[slot].is_empty();
            let (new_fwd, fwd_empty) = if flip_fwd {
                self.flipped_dir_links(slot, 0, idx)
            } else {
                let d = &self.pipe_slots[slot].dirs[0];
                (d.links, d.n == 0)
            };
            let (new_bwd, bwd_empty) = if !flip_fwd || flip_both {
                self.flipped_dir_links(slot, 1, idx)
            } else {
                let d = &self.pipe_slots[slot].dirs[1];
                (d.links, d.n == 0)
            };
            let old_links = self.pipe_slots[slot].links;
            let new_links = new_fwd.max(new_bwd);
            let d_links = new_links as isize - old_links as isize;
            d_links_total += d_links;
            if let Some(w) = width_cap {
                d_excess +=
                    new_links.saturating_sub(w) as isize - old_links.saturating_sub(w) as isize;
            }
            let now_nonempty = !(fwd_empty && bwd_empty);
            let d_pipes = match (was_nonempty, now_nonempty) {
                (false, true) => 1isize,
                (true, false) => -1,
                _ => 0,
            };
            let key = self.pipe_slots[slot].key;
            for s in [key.lo, key.hi] {
                if let Some(entry) = switches.iter_mut().find(|e| e.0 == s) {
                    entry.1 += d_links;
                    entry.2 += d_pipes;
                } else {
                    switches.push((s, d_links, d_pipes));
                }
            }
            i += if flip_both { 2 } else { 1 };
        }
        let mut d_live = 0isize;
        for &(s, d_links, d_pipes) in &switches {
            let deg_old = (self.members[s].len() + self.incident_links[s]) as isize;
            let deg_new = deg_old + d_links;
            d_excess += (deg_new - max_degree).max(0) - (deg_old - max_degree).max(0);
            let now_live =
                !self.members[s].is_empty() || self.incident_pipes[s] as isize + d_pipes > 0;
            d_live += isize::from(now_live) - isize::from(self.switch_live[s]);
        }
        self.probe_toggles = toggles;
        self.probe_switches = switches;
        let probed = (
            (base_excess as isize + d_excess) as usize,
            (base_area as isize + d_links_total + d_live) as usize,
        );
        #[cfg(debug_assertions)]
        {
            let old_path = self.paths[idx].clone();
            self.set_path(idx, new_path);
            let actual = self.score(config);
            self.set_path(idx, &old_path);
            debug_assert_eq!(probed, actual, "probe_score diverged from full recompute");
        }
        probed
    }

    /// The endpoint home switches of flow `idx` — its direct path is
    /// `[hs]` (same switch) or `[hs, hd]`.
    pub(crate) fn direct_endpoints(&self, idx: usize) -> (usize, usize) {
        let flow = self.pattern.flows()[idx];
        (self.home[flow.src.index()], self.home[flow.dst.index()])
    }

    /// The direct path for flow `idx` under current homes.
    pub(crate) fn direct_path(&self, idx: usize) -> Vec<usize> {
        let (hs, hd) = self.direct_endpoints(idx);
        if hs == hd {
            vec![hs]
        } else {
            vec![hs, hd]
        }
    }

    /// Index of `flow` in the pattern's flow list.
    pub(crate) fn flow_idx(&self, flow: Flow) -> usize {
        self.interner.id(flow).expect("flow belongs to the pattern")
    }

    /// The switch path of the flow at index `idx`.
    pub(crate) fn path_of_idx(&self, idx: usize) -> &[usize] {
        &self.paths[idx]
    }

    /// All flow indices with `proc` as an endpoint (precomputed,
    /// ascending).
    pub(crate) fn flows_of_proc(&self, proc: ProcId) -> &[usize] {
        &self.proc_flows[proc.index()]
    }

    /// Moves `proc` to switch `to`, resetting its flows to direct paths
    /// (the paper evaluates and commits moves under direct routing). All
    /// of the processor's flows are re-pathed in one delta batch, so each
    /// pipe they touch is recolored once.
    pub(crate) fn move_proc(&mut self, proc: ProcId, to: usize) {
        let from = self.home[proc.index()];
        if from == to {
            return;
        }
        self.members[from].retain(|&p| p != proc);
        let pos = self.members[to].partition_point(|&p| p < proc);
        self.members[to].insert(pos, proc);
        self.home[proc.index()] = to;
        self.refresh_switch_live(from);
        self.refresh_switch_live(to);
        let changes: Vec<(usize, Vec<usize>)> = self.proc_flows[proc.index()]
            .iter()
            .map(|&idx| (idx, self.direct_path(idx)))
            .collect();
        self.apply_path_changes(changes);
    }

    /// Adds an empty switch (growing the incident caches with it) and
    /// returns its index.
    pub(crate) fn add_switch(&mut self) -> usize {
        self.members.push(Vec::new());
        self.incident_links.push(0);
        self.incident_pipes.push(0);
        self.switch_live.push(false);
        self.score_memo.set(None);
        // The dense pipe-lookup stride changed; re-project every known
        // slot into the wider matrix (rare: once per split).
        let n = self.members.len();
        self.pipe_stride = n;
        self.pipe_lookup.clear();
        self.pipe_lookup.resize(n * n, u32::MAX);
        for (slot, st) in self.pipe_slots.iter().enumerate() {
            self.pipe_lookup[st.key.lo * n + st.key.hi] = slot as u32;
        }
        n - 1
    }

    /// Splits switch `si` (step 5): creates a new switch, moves half of
    /// `si`'s processors to it (chosen uniformly at random), and resets the
    /// affected flows to direct paths. Returns the new switch's index.
    pub(crate) fn split(&mut self, si: usize, rng: &mut Rng) -> usize {
        let sj = self.add_switch();
        let mut movers = self.members[si].clone();
        rng.shuffle(&mut movers);
        movers.truncate(self.members[si].len() / 2);
        for proc in movers {
            self.move_proc(proc, sj);
        }
        sj
    }

    /// From-scratch link estimate of one direction (no caches or
    /// counters) — the reference the consistency oracle compares
    /// incremental state against.
    #[cfg(test)]
    fn estimate_dir_uncached(&self, set: &BitSet) -> usize {
        match self.strategy {
            ColoringStrategy::Fast => fast_color_directed_masks(
                &self.pattern.cliques().compile_masks(&self.interner),
                set,
            ),
            ColoringStrategy::Exact => {
                if set.is_empty() {
                    0
                } else {
                    let g = ConflictGraph::from_flows(
                        self.interner.flows_of(set).collect(),
                        self.pattern.contention(),
                    );
                    exact_chromatic(&g).n_colors()
                }
            }
        }
    }

    /// Debug-only consistency check: pipe sets match paths, clique
    /// counters match the sets, totals match from-scratch estimates,
    /// liveness caches match scans.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self) {
        let universe = self.paths.len();
        let mut expect: BTreeMap<PipeKey, (BitSet, BitSet)> = BTreeMap::new();
        for (idx, path) in self.paths.iter().enumerate() {
            let flow = self.pattern.flows()[idx];
            assert_eq!(path[0], self.home[flow.src.index()], "path start mismatch");
            assert_eq!(
                *path.last().unwrap(),
                self.home[flow.dst.index()],
                "path end mismatch"
            );
            for w in path.windows(2) {
                let key = PipeKey::new(w[0], w[1]);
                let e = expect.entry(key).or_insert_with(|| {
                    (
                        BitSet::with_capacity(universe),
                        BitSet::with_capacity(universe),
                    )
                });
                if key.forward_from(w[0]) {
                    e.0.insert(idx);
                } else {
                    e.1.insert(idx);
                }
            }
        }
        assert_eq!(self.live_pipes.len(), expect.len(), "live pipe sets differ");
        let masks = self.pattern.cliques().compile_masks(&self.interner);
        let mut total = 0;
        for (key, (fwd, bwd)) in &expect {
            let slot = *self
                .live_pipes
                .get(key)
                .unwrap_or_else(|| panic!("pipe {key} missing from live view"));
            let st = &self.pipe_slots[slot];
            assert_eq!(st.key, *key, "slot key of {key}");
            for (d, set) in st.dirs.iter().zip([fwd, bwd]) {
                assert_eq!(&d.set, set, "crossing set of {key}");
                assert_eq!(d.n, set.len(), "crossing count of {key}");
                assert_eq!(d.links, self.estimate_dir_uncached(set), "links of {key}");
                let counts: Vec<u32> = masks
                    .iter()
                    .map(|m| m.intersection_len(set) as u32)
                    .collect();
                assert_eq!(d.cliques.counts, counts, "clique counts of {key}");
                assert_eq!(
                    d.cliques.max(),
                    fast_color_directed_masks(&masks, set),
                    "clique max of {key}"
                );
                let at_max = counts.iter().filter(|&&n| n == d.cliques.max).count();
                assert_eq!(d.cliques.at_max as usize, at_max, "cliques at max of {key}");
            }
            assert_eq!(
                st.links,
                st.dirs[0].links.max(st.dirs[1].links),
                "links of {key}"
            );
            total += st.links;
        }
        for (slot, st) in self.pipe_slots.iter().enumerate() {
            if self.live_pipes.get(&st.key) != Some(&slot) {
                assert!(
                    st.is_empty() && st.links == 0,
                    "drained slot {slot} not zeroed"
                );
            }
            assert_eq!(
                self.pipe_ids.id(pipe_key_code(st.key)),
                Some(slot),
                "slot {slot} not mirrored in the interner"
            );
            assert_eq!(
                self.pipe_lookup[st.key.lo * self.pipe_stride + st.key.hi],
                slot as u32,
                "slot {slot} not mirrored in the dense lookup"
            );
        }
        assert_eq!(self.pipe_stride, self.members.len(), "stale pipe stride");
        assert_eq!(
            self.pipe_lookup.iter().filter(|&&c| c != u32::MAX).count(),
            self.pipe_slots.len(),
            "dense lookup has stray entries"
        );
        assert_eq!(self.total_links, total, "total_links out of sync");
        for s in 0..self.members.len() {
            let links: usize = self
                .live_pipes
                .iter()
                .filter(|(k, _)| k.touches(s))
                .map(|(_, &slot)| self.pipe_slots[slot].links)
                .sum();
            let count = self.live_pipes.keys().filter(|k| k.touches(s)).count();
            assert_eq!(self.incident_links[s], links, "incident_links of {s}");
            assert_eq!(self.incident_pipes[s], count, "incident_pipes of {s}");
            assert_eq!(
                self.switch_live[s],
                !self.members[s].is_empty() || count > 0,
                "switch_live of {s}"
            );
        }
        assert_eq!(
            self.live_switch_count,
            self.switch_live.iter().filter(|&&b| b).count(),
            "live_switch_count out of sync"
        );
    }
}

/// The part of a [`Partitioning`] that the search's decisions read:
/// switch count, placement and routes. Everything else (members, pipe
/// sets, estimates, liveness) is derived from these under the coloring
/// strategy, and the caches only memoize pure functions.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SearchState {
    n_switches: usize,
    home: Vec<usize>,
    paths: Vec<Vec<usize>>,
}

impl Partitioning {
    /// A snapshot of the [`SearchState`], for fixpoint tests.
    pub(crate) fn search_state(&self) -> SearchState {
        SearchState {
            n_switches: self.n_switches(),
            home: self.home.clone(),
            paths: self.paths.clone(),
        }
    }
}

/// The Main Partitioning Algorithm (paper Appendix): recursively bisects
/// switches until every switch meets the design constraints, improving each
/// split with processor moves and `Best_Route`, then repairing remaining
/// violations by rerouting and refining the feasible result. Returns
/// whether any outer cycle changed the [`SearchState`].
pub(crate) fn run(p: &mut Partitioning, config: &SynthesisConfig) -> bool {
    p.set_strategy(config.coloring());
    let mut rng = Rng::seed_from_u64(config.seed());
    let mut acceptor = Acceptor::new(config.acceptance());

    // Outer cycle: splitting, route repair, and refinement feed each
    // other (repair can make an unsplittable violation feasible; refine
    // can merge once feasible; merging may expose a better split).
    let mut moved = false;
    let mut last_score = None;
    for _outer in 0..4 {
        let before = p.search_state();
        split_loop(p, config, &mut rng, &mut acceptor);
        if !p.violating(config).is_empty() && config.indirect_routing() {
            route_opt::repair(p, config);
        }
        refine(p, config);
        if p.search_state() == before {
            // A cycle that changed nothing split nothing, so the next one
            // would split nothing either and replay the same deterministic
            // repair (its anneal seeds depend only on config and round)
            // and refinement: an exact replay.
            break;
        }
        moved = true;
        let score = p.score(config);
        if score.0 == 0 || last_score == Some(score) {
            break; // feasible, or a fixpoint nothing further will move
        }
        last_score = Some(score);
    }
    moved
}

/// Steps 2–9 of the paper's algorithm: bisect violating switches until all
/// constraints hold or nothing remains splittable.
fn split_loop(
    p: &mut Partitioning,
    config: &SynthesisConfig,
    rng: &mut Rng,
    acceptor: &mut Acceptor,
) {
    for _round in 0..config.max_rounds() {
        p.stats.rounds += 1;
        p.stats.cost_history.push(p.total_links());

        // Step 4: a random constraint-violating switch that can be split.
        let splittable: Vec<usize> = p
            .violating(config)
            .into_iter()
            .filter(|&s| p.members(s).len() >= 2)
            .collect();
        let Some(&si) = rng.choose(&splittable) else {
            break; // all constraints met, or nothing splittable remains
        };

        // Step 5: split.
        let sj = p.split(si, rng);
        p.stats.splits += 1;

        // Steps 6-9: alternate route optimization and processor moves.
        for _ in 0..config.max_move_rounds() {
            if config.indirect_routing() {
                route_opt::best_route(p, si, sj);
            }
            let before = p.total_links();
            let Some(candidate) = moves::best_move(p, si, sj, config) else {
                break;
            };
            let accepted = candidate.cost() < before
                || matches!(config.acceptance(), crate::AcceptanceRule::Anneal { .. })
                    && acceptor.accepts(before, candidate.cost(), rng);
            if !accepted {
                break;
            }
            candidate.commit(p);
            p.stats.moves_accepted += 1;
        }
        let _ = rng.next_u64(); // decorrelate successive rounds
    }
}

/// Post-constraint refinement: once every switch satisfies the design
/// constraints, sweep over switch pairs running the move/swap descent with
/// merging allowed, accepting only configurations that keep the
/// constraints satisfied and strictly reduce `links + live switches`
/// (both chip-area units). This is an extension over the published
/// algorithm (which stops at the first feasible configuration); DESIGN.md
/// §5 tracks it as an ablation and the `ablation` binary quantifies it.
fn refine(p: &mut Partitioning, config: &SynthesisConfig) {
    if !p.violating(config).is_empty() {
        // Merging is only meaningful between feasible configurations: from
        // a violating state, total-excess descent degenerates into a few
        // huge switches (fewer pipes, hopeless degrees). Leave violating
        // states to the split loop and route repair.
        return;
    }
    let n = p.n_switches();
    for _pass in 0..4 {
        let mut improved = false;
        for si in 0..n {
            for sj in si + 1..n {
                if p.members(si).is_empty() && p.members(sj).is_empty() {
                    continue;
                }
                // Descend between this pair while profitable. Commit
                // reproduces the trial state exactly, so the score
                // computed inside refine_move holds afterwards; starting
                // from excess 0, lexicographic descent keeps excess 0.
                for _ in 0..config.max_move_rounds() {
                    let current = p.score(config);
                    match moves::refine_move(p, si, sj, config) {
                        Some((cand, score)) if score < current => {
                            cand.commit(p);
                            p.stats.moves_accepted += 1;
                            improved = true;
                        }
                        _ => break,
                    }
                }
            }
        }
        if config.indirect_routing() {
            route_opt::repair(p, config);
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_model::{Phase, PhaseSchedule};

    fn pattern4() -> AppPattern {
        let mut s = PhaseSchedule::new(4);
        s.push(Phase::from_flows([(0usize, 1usize), (2, 3)]).unwrap())
            .unwrap();
        s.push(Phase::from_flows([(0usize, 2usize), (1, 3)]).unwrap())
            .unwrap();
        AppPattern::from_schedule(&s)
    }

    #[test]
    fn megaswitch_has_no_pipes() {
        let p = Partitioning::megaswitch(&pattern4()).unwrap();
        assert_eq!(p.n_switches(), 1);
        assert_eq!(p.total_links(), 0);
        assert_eq!(p.members(0).len(), 4);
        assert_eq!(p.live_switches(), 1);
        p.assert_consistent();
    }

    #[test]
    fn empty_pattern_is_rejected() {
        let empty = AppPattern::from_parts(
            0,
            [],
            nocsyn_model::ContentionSet::new(),
            nocsyn_model::CliqueSet::new(),
        );
        assert!(matches!(
            Partitioning::megaswitch(&empty),
            Err(SynthError::EmptyPattern)
        ));
    }

    #[test]
    fn split_moves_half_and_updates_pipes() {
        let mut p = Partitioning::megaswitch(&pattern4()).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        let sj = p.split(0, &mut rng);
        assert_eq!(sj, 1);
        assert_eq!(p.members(0).len() + p.members(1).len(), 4);
        assert_eq!(p.members(1).len(), 2);
        p.assert_consistent();
        // With procs split 2/2, at least one app flow crosses the pipe.
        assert!(p.total_links() >= 1);
    }

    #[test]
    fn move_proc_resets_paths_to_direct() {
        let mut p = Partitioning::megaswitch(&pattern4()).unwrap();
        let mut rng = Rng::seed_from_u64(1);
        p.split(0, &mut rng);
        let proc = p.members(0)[0];
        p.move_proc(proc, 1);
        p.assert_consistent();
        for &idx in p.flows_of_proc(proc) {
            assert_eq!(p.paths[idx], p.direct_path(idx));
        }
    }

    #[test]
    fn set_path_with_via_updates_three_pipes() {
        let mut p = Partitioning::megaswitch(&pattern4()).unwrap();
        let mut rng = Rng::seed_from_u64(2);
        p.split(0, &mut rng);
        // Force a third switch by moving one proc.
        p.add_switch();
        let proc = p.members(0)[0];
        p.move_proc(proc, 2);
        p.assert_consistent();

        // Find a flow between switch 2 and another switch and detour it.
        let flow_idx = p.flows_of_proc(proc)[0];
        let direct = p.paths[flow_idx].clone();
        if direct.len() == 2 {
            let (a, b) = (direct[0], direct[1]);
            let via = (0..3).find(|&v| v != a && v != b).unwrap();
            p.set_path(flow_idx, &[a, via, b]);
            p.assert_consistent();
            assert_eq!(p.path(p.pattern.flows()[flow_idx]).unwrap().len(), 3);
            // And back.
            p.set_path(flow_idx, &direct);
            p.assert_consistent();
        }
    }

    #[test]
    fn probe_score_matches_apply_for_random_reroutes() {
        // Exercise the probe against apply-and-score over a mix of
        // detours, straightenings and no-op-adjacent shapes. (The probe's
        // own debug oracle re-checks every call too; this keeps the
        // guarantee alive even with debug assertions disabled.)
        let mut p = Partitioning::megaswitch(&pattern4()).unwrap();
        let config = SynthesisConfig::new().with_max_degree(2);
        let mut rng = Rng::seed_from_u64(9);
        p.split(0, &mut rng);
        p.split(0, &mut rng);
        p.add_switch();
        for trial in 0..200 {
            let idx = rng.gen_range(0..p.paths.len());
            let direct = p.direct_path(idx);
            let candidate = if direct.len() == 2 && rng.gen_bool(0.6) {
                let via = rng.gen_range(0..p.n_switches());
                if via == direct[0] || via == direct[1] {
                    direct
                } else {
                    vec![direct[0], via, direct[1]]
                }
            } else {
                direct
            };
            if candidate == p.path_of_idx(idx) {
                continue;
            }
            let probed_links = p.probe_total_links(idx, &candidate);
            let probed_score = p.probe_score(idx, &candidate, &config);
            let original = p.path_of_idx(idx).to_vec();
            p.set_path(idx, &candidate);
            assert_eq!(probed_links, p.total_links(), "links, trial {trial}");
            assert_eq!(probed_score, p.score(&config), "score, trial {trial}");
            // Commit some candidates, revert others, to vary the base.
            if rng.gen_bool(0.5) {
                p.set_path(idx, &original);
            }
            p.assert_consistent();
        }
    }

    #[test]
    fn degree_counts_members_and_incident_links() {
        let mut p = Partitioning::megaswitch(&pattern4()).unwrap();
        assert_eq!(p.degree(0), 4);
        let mut rng = Rng::seed_from_u64(3);
        p.split(0, &mut rng);
        let link_sum: usize = p.pipes().map(|(_, l)| l).sum();
        assert_eq!(p.degree(0) + p.degree(1), 4 + 2 * link_sum);
    }

    #[test]
    fn run_reaches_constraints_on_small_pattern() {
        let pattern = pattern4();
        let mut p = Partitioning::megaswitch(&pattern).unwrap();
        let config = SynthesisConfig::new().with_max_degree(3).with_seed(11);
        run(&mut p, &config);
        assert!(
            p.violating(&config).is_empty(),
            "degrees: {:?}",
            (0..p.n_switches()).map(|s| p.degree(s)).collect::<Vec<_>>()
        );
        p.assert_consistent();
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let pattern = pattern4();
        let config = SynthesisConfig::new().with_max_degree(3).with_seed(5);
        let mut a = Partitioning::megaswitch(&pattern).unwrap();
        let mut b = Partitioning::megaswitch(&pattern).unwrap();
        run(&mut a, &config);
        run(&mut b, &config);
        assert_eq!(a.home, b.home);
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.total_links(), b.total_links());
    }

    #[test]
    fn impossible_constraint_terminates() {
        let pattern = pattern4();
        let mut p = Partitioning::megaswitch(&pattern).unwrap();
        // Degree 0 can never be satisfied; the run must still terminate.
        let config = SynthesisConfig::new()
            .with_max_degree(0)
            .with_max_rounds(50)
            .with_seed(1);
        run(&mut p, &config);
        assert!(!p.violating(&config).is_empty());
        assert!(p.stats.rounds <= 50);
    }

    /// The search must reach a state `run` leaves unchanged; from there,
    /// a further `run` is an exact replay that leaves it unchanged again —
    /// the premise of the fixpoint exits in `run` and in the
    /// exact-coloring retry loop.
    #[test]
    fn run_from_its_own_fixpoint_leaves_the_state_unchanged() {
        // Six processors, all-to-all as five shift phases plus an XOR
        // exchange (its flows lie in two cliques): degree 3 is out of
        // reach, so every run ends violating and reaches the reroute
        // anneal.
        let mut s = PhaseSchedule::new(6);
        for k in 1..6 {
            s.push(Phase::from_flows((0..6).map(|a| (a, (a + k) % 6))).unwrap())
                .unwrap();
        }
        s.push(Phase::from_flows((0..6).map(|a| (a, a ^ 1))).unwrap())
            .unwrap();
        let pattern = AppPattern::from_schedule(&s);
        for coloring in [ColoringStrategy::Fast, ColoringStrategy::Exact] {
            let config = SynthesisConfig::new()
                .with_max_degree(3)
                .with_seed(4)
                .with_coloring(coloring);
            let mut p = Partitioning::megaswitch(&pattern).unwrap();
            let mut runs = 1;
            while run(&mut p, &config) {
                runs += 1;
                assert!(runs <= 6, "{coloring:?}: no fixpoint after {runs} runs");
            }
            assert!(!p.violating(&config).is_empty());
            assert!(p.stats.reroutes_tried > 0, "the repair search ran");
            let fixed = p.search_state();
            assert!(!run(&mut p, &config), "{coloring:?}: the replay moved");
            assert_eq!(p.search_state(), fixed, "{coloring:?}");
            p.assert_consistent();
        }
    }

    /// Random clique sets (flows in zero, one or several cliques,
    /// duplicate and empty cliques, no cliques at all) under random
    /// toggle sequences: the maintained counters always give the
    /// from-scratch `Fast_Color` of the crossing set, and the flipped
    /// estimate of every flow matches the from-scratch value of the
    /// toggled set.
    #[test]
    fn clique_counters_match_fast_color_from_scratch() {
        let mut rng = Rng::seed_from_u64(0xC0C0);
        for case in 0..300 {
            let n_flows = rng.gen_range(1..48usize);
            // Case 0 mod 7 has no cliques at all.
            let n_cliques = if case % 7 == 0 {
                0
            } else {
                rng.gen_range(1..9usize)
            };
            let mut masks: Vec<BitSet> = Vec::with_capacity(n_cliques);
            for c in 0..n_cliques {
                if c > 0 && rng.gen_bool(0.2) {
                    let twin = masks[rng.gen_range(0..c)].clone();
                    masks.push(twin);
                    continue;
                }
                let density = rng.gen_range(0..4usize) as f64 / 4.0;
                let mut mask = BitSet::with_capacity(n_flows);
                mask.extend((0..n_flows).filter(|_| rng.gen_bool(density)));
                masks.push(mask);
            }
            let table = flow_clique_table(&masks, n_flows);
            let cliques_of = |f: usize| table[f].as_slice();
            for f in 0..n_flows {
                let expect: Vec<u32> = (0..n_cliques)
                    .filter(|&c| masks[c].contains(f))
                    .map(|c| c as u32)
                    .collect();
                assert_eq!(cliques_of(f), expect.as_slice(), "case {case} flow {f}");
            }

            let mut set = BitSet::with_capacity(n_flows);
            let mut counter = CliqueCounter::new(n_cliques);
            for step in 0..60 {
                let f = rng.gen_range(0..n_flows);
                if set.toggle(f) {
                    counter.insert(cliques_of(f));
                } else {
                    counter.remove(cliques_of(f));
                }
                let what = format!("case {case} step {step}");
                assert_eq!(
                    counter.max(),
                    fast_color_directed_masks(&masks, &set),
                    "{what}"
                );
                let at_max = counter.counts.iter().filter(|&&n| n == counter.max).count();
                assert_eq!(counter.at_max as usize, at_max, "{what}");
                for g in 0..n_flows {
                    let estimate = if set.contains(g) {
                        counter.max_without(cliques_of(g))
                    } else {
                        counter.max_with(cliques_of(g))
                    };
                    let mut flipped = set.clone();
                    flipped.toggle(g);
                    assert_eq!(
                        estimate,
                        fast_color_directed_masks(&masks, &flipped),
                        "{what} flip {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn pipe_key_invariants() {
        let k = PipeKey::new(5, 2);
        assert_eq!((k.lo(), k.hi()), (2, 5));
        assert!(k.forward_from(2));
        assert!(!k.forward_from(5));
        assert!(k.touches(5) && k.touches(2) && !k.touches(3));
        assert_eq!(k.to_string(), "P(2,5)");
    }

    #[test]
    #[should_panic(expected = "distinct switches")]
    fn pipe_key_rejects_self() {
        let _ = PipeKey::new(3, 3);
    }
}
