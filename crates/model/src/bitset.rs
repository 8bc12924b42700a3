//! Dense bitset kernel over interned ids — both sides of Theorem 1.
//!
//! The synthesis inner loop asks two questions over and over: *how many
//! members of a clique cross this pipe?* (the contention side `C`) and
//! *which resources does this route occupy?* (the resource side `R`).
//! Both become machine words here. An interner assigns every member of a
//! vocabulary a contiguous id, and a [`BitSet`] is a dense `Vec<u64>` over
//! those ids, so clique overlap and footprint overlap are word-wise
//! AND + popcount, and a route edit is one XOR toggle.
//!
//! There are two interners, one per vocabulary:
//!
//! * [`FlowInterner`] ranks a closed set of flows in sorted order, so
//!   ascending-id iteration over a [`BitSet`] is exactly the lexicographic
//!   flow order a `BTreeSet<Flow>` iterates in. Every algorithm that swaps
//!   one for the other visits elements in the identical order — the
//!   keystone of the bit-identical-results guarantee (DESIGN.md §11).
//! * [`ResourceInterner`] maps opaque `u64` resource keys (encoded by the
//!   owning layer, e.g. `link * 2 + direction` for channels, `lo << 32 |
//!   hi` for switch pipes) to ids in first-seen order, because synthesis
//!   discovers pipes as routes move.
//!
//! A [`BitSet`] grows on demand, and binary operations treat the missing
//! high words of the shorter operand as zero. Callers that know their
//! universe up front preallocate it ([`BitSet::with_capacity`],
//! [`FlowInterner::empty_set`]) so the hot-path word loops run over
//! operands of equal length.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::hash::FxBuildHasher;
use crate::Flow;

/// Word size of the backing storage.
const BITS: usize = u64::BITS as usize;

/// Interns the distinct flows of a pattern to contiguous ids `0..len`.
///
/// Ids are assigned by lexicographic flow order, so `id` / `flow` are
/// order-preserving bijections between ids and member flows.
///
/// A per-source row table makes [`id`](FlowInterner::id) cheap enough for
/// lookups by the ten-thousand (certificate binding and checking): it
/// reads the id range of the flow's source and binary-searches only that
/// source's destinations. The table covers sources below
/// `2 * len + 64`; a flow with a larger source (sparse or hostile input)
/// falls back to one binary search over that tail, so the table never
/// outgrows the flows it indexes.
///
/// ```
/// use nocsyn_model::{Flow, FlowInterner};
///
/// let interner = FlowInterner::from_flows([
///     Flow::from_indices(2, 3),
///     Flow::from_indices(0, 1),
///     Flow::from_indices(2, 3), // duplicates collapse
/// ]);
/// assert_eq!(interner.len(), 2);
/// assert_eq!(interner.id(Flow::from_indices(0, 1)), Some(0));
/// assert_eq!(interner.flow(1), Flow::from_indices(2, 3));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowInterner {
    /// Sorted, deduplicated member flows; a flow's index is its id.
    flows: Vec<Flow>,
    /// `rows[s]..rows[s + 1]` holds the ids of the flows with source `s`;
    /// the last entry starts the tail of sources past the table.
    rows: Vec<u32>,
}

impl FlowInterner {
    /// Interns the given flows (sorted and deduplicated internally).
    pub fn from_flows<I: IntoIterator<Item = Flow>>(flows: I) -> Self {
        let mut flows: Vec<Flow> = flows.into_iter().collect();
        flows.sort_unstable();
        flows.dedup();
        Self::from_sorted_flows(flows)
    }

    /// Wraps an already strictly sorted flow list without re-sorting.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `flows` is not strictly ascending.
    pub fn from_sorted_flows(flows: Vec<Flow>) -> Self {
        debug_assert!(
            flows.windows(2).all(|w| w[0] < w[1]),
            "flows must be strictly sorted"
        );
        let sources = flows
            .last()
            .map_or(0, |f| f.src.index().saturating_add(1))
            .min(2 * flows.len() + 64);
        let mut rows = Vec::with_capacity(sources + 1);
        let mut id = 0;
        for s in 0..=sources {
            while flows.get(id).is_some_and(|f| f.src.index() < s) {
                id += 1;
            }
            rows.push(id as u32);
        }
        FlowInterner { flows, rows }
    }

    /// Number of interned flows — the universe size of this interner's
    /// [`BitSet`]s.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flow is interned.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The id of `flow`, if it is a member.
    pub fn id(&self, flow: Flow) -> Option<usize> {
        let s = flow.src.index();
        let (lo, hi) = match (self.rows.get(s), self.rows.get(s.wrapping_add(1))) {
            (Some(&lo), Some(&hi)) => (lo as usize, hi as usize),
            _ => (
                self.rows.last().map_or(0, |&t| t as usize),
                self.flows.len(),
            ),
        };
        self.flows[lo..hi].binary_search(&flow).ok().map(|i| lo + i)
    }

    /// The flow with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= len()`.
    pub fn flow(&self, id: usize) -> Flow {
        self.flows[id]
    }

    /// The member flows in id (= lexicographic) order.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// An empty [`BitSet`] preallocated for this interner's universe.
    pub fn empty_set(&self) -> BitSet {
        BitSet::with_capacity(self.flows.len())
    }

    /// Builds the [`BitSet`] of the given member flows.
    ///
    /// # Panics
    ///
    /// Panics if a flow is not interned — sets only make sense over the
    /// universe they were interned against.
    pub fn set_of<I: IntoIterator<Item = Flow>>(&self, flows: I) -> BitSet {
        let mut set = self.empty_set();
        for f in flows {
            let id = self.id(f).expect("flow not interned in this universe");
            set.insert(id);
        }
        set
    }

    /// Iterates the flows named by `set`'s ids, in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if `set` holds an id outside this interner's universe.
    pub fn flows_of<'a>(&'a self, set: &'a BitSet) -> impl Iterator<Item = Flow> + 'a {
        set.iter().map(|id| self.flows[id])
    }
}

/// Interns opaque resource keys to contiguous ids `0..len`, in
/// first-seen order.
///
/// Unlike [`FlowInterner`] (whose ids are sorted ranks over a closed
/// universe), resources are discovered incrementally, so ids reflect
/// interning order and the mapping is append-only: an id, once assigned,
/// never changes or disappears. `id` / `key` are inverse bijections over
/// the interned set.
///
/// ```
/// use nocsyn_model::ResourceInterner;
///
/// let mut interner = ResourceInterner::new();
/// assert_eq!(interner.intern(42), 0);
/// assert_eq!(interner.intern(7), 1);
/// assert_eq!(interner.intern(42), 0); // duplicates collapse
/// assert_eq!(interner.id(7), Some(1));
/// assert_eq!(interner.key(1), 7);
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResourceInterner {
    // Keys are search-generated, never attacker-controlled, so the
    // deterministic Fx hash is safe and much cheaper than SipHash.
    ids: HashMap<u64, usize, FxBuildHasher>,
    keys: Vec<u64>,
}

impl ResourceInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id of `key`, interning it if unseen.
    pub fn intern(&mut self, key: u64) -> usize {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.keys.len();
        self.ids.insert(key, id);
        self.keys.push(key);
        id
    }

    /// The id of `key`, if it has been interned.
    pub fn id(&self, key: u64) -> Option<usize> {
        self.ids.get(&key).copied()
    }

    /// The key with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= len()`.
    pub fn key(&self, id: usize) -> u64 {
        self.keys[id]
    }

    /// Number of interned resources.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no resource is interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The interned keys in id (= first-seen) order.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// A growable dense bitset over interned ids.
///
/// Inserting or toggling an id beyond the current width widens the set,
/// and binary operations treat missing high words as zero. Equality and
/// hashing ignore trailing zero words, so a set that grew and then
/// emptied equals (and hashes like) a fresh empty set. Iteration yields
/// set ids in ascending order.
///
/// ```
/// use nocsyn_model::BitSet;
///
/// let mut a = BitSet::with_capacity(130);
/// a.insert(0);
/// a.insert(65);
/// a.insert(129);
/// let mut b = BitSet::new();
/// b.insert(65);
/// assert_eq!(a.len(), 3);
/// assert_eq!(a.intersection_len(&b), 1);
/// a.xor_with(&b);
/// assert_eq!(a.iter().collect::<Vec<_>>(), [0, 129]);
/// a.toggle(0);
/// a.toggle(129);
/// assert_eq!(a, BitSet::new());
/// ```
#[derive(Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s word buffer: copying into a scratch set of the
    /// same universe allocates nothing (the derived impl would).
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
    }
}

impl BitSet {
    /// An empty set of width zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set with ids `0..bits` preallocated, so sets of one
    /// universe share a word count and never grow.
    pub fn with_capacity(bits: usize) -> Self {
        BitSet {
            words: vec![0; bits.div_ceil(BITS)],
        }
    }

    /// Widens the storage to at least `words` words.
    fn grow_to(&mut self, words: usize) {
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// The words up to the last non-zero one: the canonical form that
    /// equality and hashing compare.
    fn trimmed(&self) -> &[u64] {
        let end = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.words[..end]
    }

    /// Number of set ids (population count).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no id is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears every id (the width is retained).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether `id` is set. Ids beyond the current width are absent.
    pub fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / BITS)
            .is_some_and(|w| w & (1 << (id % BITS)) != 0)
    }

    /// Sets `id`, widening if needed; returns whether it was newly
    /// inserted.
    pub fn insert(&mut self, id: usize) -> bool {
        self.grow_to(id / BITS + 1);
        let word = &mut self.words[id / BITS];
        let mask = 1 << (id % BITS);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Clears `id`; returns whether it was present.
    pub fn remove(&mut self, id: usize) -> bool {
        let Some(word) = self.words.get_mut(id / BITS) else {
            return false;
        };
        let mask = 1 << (id % BITS);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Flips `id`, widening if needed; returns whether it is set
    /// afterwards.
    pub fn toggle(&mut self, id: usize) -> bool {
        self.grow_to(id / BITS + 1);
        let word = &mut self.words[id / BITS];
        let mask = 1 << (id % BITS);
        *word ^= mask;
        *word & mask != 0
    }

    /// `self |= other`, widening to cover `other`.
    pub fn union_with(&mut self, other: &BitSet) {
        self.grow_to(other.words.len());
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// `self &= other`; ids beyond `other`'s width are cleared.
    pub fn intersect_with(&mut self, other: &BitSet) {
        let common = self.words.len().min(other.words.len());
        let (head, tail) = self.words.split_at_mut(common);
        for (w, o) in head.iter_mut().zip(&other.words) {
            *w &= o;
        }
        tail.fill(0);
    }

    /// `self ^= other`, widening to cover `other` — the incremental-edit
    /// primitive: XOR-ing a delta mask removes the ids present in both
    /// and adds the ids only in `other`, in one word-wise pass.
    pub fn xor_with(&mut self, other: &BitSet) {
        self.grow_to(other.words.len());
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w ^= o;
        }
    }

    /// `self &= !other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// `|self ∩ other|` without materializing the intersection — the
    /// `Fast_Color` and Theorem-1 delta-check kernel (AND + popcount per
    /// word over the shorter operand).
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(w, o)| (w & o).count_ones() as usize)
            .sum()
    }

    /// Whether the sets share at least one id (early-exits on the first
    /// overlapping word).
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(w, o)| w & o != 0)
    }

    /// Iterates set ids in ascending order.
    pub fn iter(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &BitSet) -> bool {
        self.trimmed() == other.trimmed()
    }
}

impl Eq for BitSet {}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let words = self.trimmed();
        u64::hash_slice(words, state);
        // Fx-style hashers end each write on a multiply, which leaves the
        // low (bucket-index) bits depending only on low input bits. One
        // more write after the last word spreads it; without it crossing
        // sets collide in the search's exact-coloring memo (`chi_cache`,
        // the one table keyed by sets). When a `Fast_Color` memo was keyed
        // the same way, the collisions slowed synthesis ~15%.
        state.write_usize(words.len());
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, ids: I) {
        for id in ids {
            self.insert(id);
        }
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(ids: I) -> Self {
        let mut set = BitSet::new();
        set.extend(ids);
        set
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Ones<'a>;

    fn into_iter(self) -> Ones<'a> {
        self.iter()
    }
}

/// Ascending iterator over the set ids of a [`BitSet`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * BITS + bit)
    }
}

// The algebra, mutation, hashing and interner properties live in
// `tests/bitset_prop.rs`; these cover what a property cannot generate.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "not interned")]
    fn foreign_flow_is_rejected() {
        let interner = FlowInterner::from_flows([Flow::from_indices(0, 1)]);
        let _ = interner.set_of([Flow::from_indices(5, 6)]);
    }

    #[test]
    fn clone_from_reuses_the_word_buffer() {
        let source = BitSet::from_iter([3, 70, 129]);
        let mut scratch = BitSet::with_capacity(192);
        let buffer = scratch.words.as_ptr();
        scratch.clone_from(&source);
        assert_eq!(scratch, source);
        assert_eq!(scratch.words.as_ptr(), buffer, "clone_from reallocated");
    }

    #[test]
    fn debug_renders_as_set() {
        let s = BitSet::from_iter([1, 65]);
        assert_eq!(format!("{s:?}"), "{1, 65}");
    }
}
