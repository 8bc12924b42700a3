//! Property tests for the bitset kernel (DESIGN.md §11): the bitset
//! algebra must agree with the reference `BTreeSet` semantics the
//! synthesis search was originally written against, at equal and at
//! mixed widths; both interners must be bijections (sorted ranks for
//! flows, first-seen order for resources); toggling must be an
//! involution down to the empty set; and equality and hashing must not
//! see how wide the backing storage grew. These facts are what make the
//! kernel swap bit-identical and the incremental Theorem-1 delta check
//! exact.

use std::collections::BTreeSet;
use std::hash::BuildHasher;

use nocsyn_check::{check, check_assert, check_assert_eq, u64_in, usize_in, vec_of, CaseResult};
use nocsyn_model::{BitSet, Flow, FlowInterner, FxBuildHasher, ResourceInterner};

fn model_of(set: &BitSet) -> BTreeSet<usize> {
    set.iter().collect()
}

fn with_width(width: usize, ids: &[usize]) -> BitSet {
    let mut set = BitSet::with_capacity(width);
    set.extend(ids.iter().copied());
    set
}

/// Union, intersection, xor, difference, popcounts and intersection
/// tests of `a` and `b` all agree with the `BTreeSet` reference, and
/// iteration is ascending.
fn algebra_agrees(a: &BitSet, b: &BitSet) -> CaseResult {
    let ma = model_of(a);
    let mb = model_of(b);

    check_assert_eq!(a.len(), ma.len());
    check_assert_eq!(a.is_empty(), ma.is_empty());
    check_assert_eq!(a.intersection_len(b), ma.intersection(&mb).count());
    check_assert_eq!(a.intersects(b), ma.intersection(&mb).next().is_some());

    // Iteration order is ascending — the keystone determinism fact.
    let order: Vec<usize> = a.iter().collect();
    check_assert!(order.windows(2).all(|w| w[0] < w[1]));

    let mut u = a.clone();
    u.union_with(b);
    check_assert_eq!(
        model_of(&u),
        ma.union(&mb).copied().collect::<BTreeSet<_>>()
    );

    let mut i = a.clone();
    i.intersect_with(b);
    check_assert_eq!(
        model_of(&i),
        ma.intersection(&mb).copied().collect::<BTreeSet<_>>()
    );

    let mut x = a.clone();
    x.xor_with(b);
    check_assert_eq!(
        model_of(&x),
        ma.symmetric_difference(&mb)
            .copied()
            .collect::<BTreeSet<_>>()
    );
    x.xor_with(b); // self-inverse
    check_assert_eq!(&x, a);

    let mut d = a.clone();
    d.difference_with(b);
    check_assert_eq!(
        model_of(&d),
        ma.difference(&mb).copied().collect::<BTreeSet<_>>()
    );
    Ok(())
}

/// Both operands preallocated to one universe — the crossing-set and
/// clique-mask form the `Fast_Color` hot path uses.
#[test]
fn algebra_matches_btreeset_at_equal_widths() {
    let gen = (
        usize_in(1..300),
        vec_of(usize_in(0..300), 0..40),
        vec_of(usize_in(0..300), 0..40),
    );
    check(
        "algebra_matches_btreeset_at_equal_widths",
        gen,
        |(n, raw_a, raw_b)| {
            let a_ids: Vec<usize> = raw_a.iter().map(|&x| x % n).collect();
            let b_ids: Vec<usize> = raw_b.iter().map(|&x| x % n).collect();
            let a = with_width(*n, &a_ids);
            let b = with_width(*n, &b_ids);
            check_assert_eq!(model_of(&a), a_ids.iter().copied().collect());
            algebra_agrees(&a, &b)
        },
    );
}

/// Operands grown on demand to different widths — the route-footprint
/// form the reroute and incremental-checker paths use.
#[test]
fn algebra_matches_btreeset_at_mixed_widths() {
    // Ids up to 400 span multiple words, and the two preallocated
    // widths force mismatches in both directions.
    let gen = (
        (usize_in(0..400), usize_in(0..400)),
        vec_of(usize_in(0..400), 0..40),
        vec_of(usize_in(0..400), 0..40),
    );
    check(
        "algebra_matches_btreeset_at_mixed_widths",
        gen,
        |((wa, wb), a_ids, b_ids)| {
            let a = with_width(*wa, a_ids);
            let b = with_width(*wb, b_ids);
            check_assert_eq!(model_of(&a), a_ids.iter().copied().collect());
            algebra_agrees(&a, &b)?;
            algebra_agrees(&b, &a)
        },
    );
}

/// Mutation sequences (insert / remove / toggle / clear) track the
/// reference model exactly, including the "did anything change"
/// returns, with equality ignoring how wide the backing storage grew.
#[test]
fn mutation_matches_btreeset() {
    let gen = (
        usize_in(0..200),
        vec_of((usize_in(0..4), usize_in(0..400)), 1..60),
    );
    check("mutation_matches_btreeset", gen, |(width, ops)| {
        let mut set = BitSet::with_capacity(*width);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for &(op, id) in ops {
            match op {
                0 => check_assert_eq!(set.insert(id), model.insert(id)),
                1 => check_assert_eq!(set.remove(id), model.remove(&id)),
                2 => {
                    let now_present = set.toggle(id);
                    let model_present = if model.contains(&id) {
                        model.remove(&id);
                        false
                    } else {
                        model.insert(id);
                        true
                    };
                    check_assert_eq!(now_present, model_present);
                }
                _ => {
                    set.clear();
                    model.clear();
                }
            }
            check_assert_eq!(set.len(), model.len());
            check_assert_eq!(set.contains(id), model.contains(&id));
        }
        check_assert_eq!(model_of(&set), model.clone());
        // Equality must see through trailing zero words: a set that
        // grew and emptied again equals a set that never grew.
        check_assert_eq!(
            set == BitSet::new(),
            model.is_empty(),
            "grown-then-emptied set must equal a fresh one (model: {model:?})"
        );
        check_assert_eq!(set.clone(), model.iter().copied().collect::<BitSet>());
        Ok(())
    });
}

/// Equal sets hash equally whatever width each was allocated or grew
/// to — the contract the crossing-set memo tables rely on when a set
/// from one width is looked up with a set of another.
#[test]
fn equal_sets_of_different_widths_hash_equally() {
    let gen = (
        (usize_in(0..400), usize_in(0..400)),
        vec_of(usize_in(0..200), 0..30),
        usize_in(200..400),
    );
    check(
        "equal_sets_of_different_widths_hash_equally",
        gen,
        |((wa, wb), ids, extra)| {
            let a = with_width(*wa, ids);
            let mut b = with_width(*wb, ids);
            // Grow `b` past every member id and empty that word again.
            b.insert(*extra);
            b.remove(*extra);
            check_assert_eq!(&a, &b);
            check_assert_eq!(FxBuildHasher.hash_one(&a), FxBuildHasher.hash_one(&b));
            Ok(())
        },
    );
}

/// Toggling a multiset of ids an even number of times each lands back
/// on the empty set — the involution the reroute footprint-toggle
/// discipline relies on (apply route, revert route, nothing sticks).
#[test]
fn double_toggle_is_identity() {
    let gen = vec_of(usize_in(0..400), 0..50);
    check("double_toggle_is_identity", gen, |ids| {
        let mut set = BitSet::new();
        for &id in ids {
            set.toggle(id);
        }
        let after_one_pass = set.clone();
        for &id in ids {
            set.toggle(id);
        }
        check_assert!(set.is_empty(), "double toggle left residue: {set:?}");
        check_assert_eq!(set.clone(), BitSet::new());
        // One pass leaves exactly the odd-multiplicity ids.
        let mut odd: BTreeSet<usize> = BTreeSet::new();
        for &id in ids {
            if !odd.insert(id) {
                odd.remove(&id);
            }
        }
        check_assert_eq!(model_of(&after_one_pass), odd.clone());
        Ok(())
    });
}

/// The flow interner is an order-preserving bijection: ids are
/// sorted-flow ranks, `id` / `flow` invert each other, and `set_of` /
/// `flows_of` round-trip any member subset in lexicographic order.
#[test]
fn flow_interner_round_trip() {
    let gen = vec_of((usize_in(0..12), usize_in(0..12)), 1..50);
    check("flow_interner_round_trip", gen, |raw| {
        // Sources 10 and 11 become 10 000 and 11 000: past the row table
        // of an interner this small, so `id` also takes its tail path.
        let flows: Vec<Flow> = raw
            .iter()
            .filter(|(s, d)| s != d)
            .map(|&(s, d)| Flow::from_indices(if s < 10 { s } else { s * 1000 }, d))
            .collect();
        let interner = FlowInterner::from_flows(flows.iter().copied());

        // Sorted + deduplicated member list.
        let expected: BTreeSet<Flow> = flows.iter().copied().collect();
        check_assert_eq!(
            interner.flows().to_vec(),
            expected.iter().copied().collect::<Vec<_>>()
        );

        // id and flow are inverse bijections.
        for (i, &f) in interner.flows().iter().enumerate() {
            check_assert_eq!(interner.id(f), Some(i));
            check_assert_eq!(interner.flow(i), f);
        }
        // Flows outside the universe have no id.
        check_assert_eq!(interner.id(Flow::from_indices(12, 13)), None);
        check_assert_eq!(interner.id(Flow::from_indices(10_500, 1)), None);
        check_assert_eq!(interner.id(Flow::from_indices(usize::MAX, 0)), None);

        // set_of / flows_of round-trip an arbitrary member subset: take
        // every other member.
        let subset: Vec<Flow> = interner.flows().iter().copied().step_by(2).collect();
        let set = interner.set_of(subset.iter().copied());
        let back: Vec<Flow> = interner.flows_of(&set).collect();
        check_assert_eq!(back, subset.clone());
        Ok(())
    });
}

/// The resource interner is a first-seen-order bijection: `intern` is
/// idempotent per key, `id` / `key` invert each other, and `keys()`
/// lists every distinct key in the order it first appeared.
#[test]
fn resource_interner_round_trip() {
    let gen = vec_of(u64_in(0..60), 0..80);
    check("resource_interner_round_trip", gen, |raw| {
        let mut interner = ResourceInterner::new();
        let mut first_seen: Vec<u64> = Vec::new();
        for &key in raw {
            let id = interner.intern(key);
            if !first_seen.contains(&key) {
                check_assert_eq!(id, first_seen.len(), "fresh key got a non-dense id");
                first_seen.push(key);
            }
            check_assert_eq!(interner.id(key), Some(id));
            check_assert_eq!(interner.key(id), key);
        }
        check_assert_eq!(interner.len(), first_seen.len());
        check_assert_eq!(interner.is_empty(), first_seen.is_empty());
        check_assert_eq!(interner.keys().to_vec(), first_seen.clone());
        // id and key are inverse bijections over the interned set.
        for (id, &key) in first_seen.iter().enumerate() {
            check_assert_eq!(interner.id(key), Some(id));
            check_assert_eq!(interner.key(id), key);
        }
        // Never-interned keys have no id.
        check_assert_eq!(interner.id(u64::MAX), None);
        Ok(())
    });
}
