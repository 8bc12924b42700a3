//! Certificate emission: extracting the Theorem-1 evidence object from a
//! routed network.
//!
//! [`build_certificate`] is the one place the per-route resource sets,
//! per-channel crossing flow sets, obligations, and contention witnesses
//! of a [`Certificate`](nocsyn_model::Certificate) are derived from real
//! routes. The emitted certificate agrees with
//! [`verify_contention_free`](crate::verify_contention_free) by
//! construction: its witness list is exactly the report's witness list,
//! rendered into channel labels.

use std::collections::BTreeMap;

use nocsyn_model::{
    CertWitness, Certificate, CliqueSet, ContentionSet, Digest, Flow, FlowInterner,
};

use crate::{Channel, RouteTable};

/// Builds the contention-freedom certificate for `routes` against an
/// application with clique set `cliques` and potential contention set
/// `contention`.
///
/// Obligations are the contention pairs with *both* ends routed — the
/// same restriction [`verify_contention_free`](crate::verify_contention_free)
/// applies — and a witness is recorded for every obligation whose resource
/// sets intersect, so `contention_free` matches the verifier's verdict on
/// the same inputs. `job` optionally binds the certificate to a serve
/// cache key (the job-fingerprint digest).
pub fn build_certificate(
    n_procs: usize,
    cliques: &CliqueSet,
    contention: &ContentionSet,
    routes: &RouteTable,
    job: Option<Digest>,
) -> Certificate {
    // Render each distinct channel's label once. Label ids follow label
    // order, so a route's ascending ids are its sorted label list.
    let mut channels: Vec<Channel> = routes.iter().flat_map(|(_, r)| r.iter()).collect();
    channels.sort_unstable();
    channels.dedup();
    let mut by_label: Vec<(String, usize)> = channels
        .iter()
        .enumerate()
        .map(|(i, ch)| (ch.to_string(), i))
        .collect();
    by_label.sort_unstable();
    let mut label_of = vec![0u32; channels.len()];
    for (id, &(_, i)) in by_label.iter().enumerate() {
        label_of[i] = id as u32;
    }
    let labels: Vec<String> = by_label.into_iter().map(|(label, _)| label).collect();

    let route_ids: Vec<Vec<u32>> = routes
        .iter()
        .map(|(_, route)| {
            let mut ids: Vec<u32> = route
                .iter()
                .map(|ch| {
                    let i = channels
                        .binary_search(&ch)
                        .expect("every hop was collected");
                    label_of[i]
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect();
    let flows = FlowInterner::from_sorted_flows(routes.flows().collect());

    // Routes arrive in flow order, so each crossing list is already
    // sorted and duplicate-free.
    let mut inverse: Vec<Vec<Flow>> = vec![Vec::new(); labels.len()];
    for (&flow, ids) in flows.flows().iter().zip(&route_ids) {
        for &id in ids {
            inverse[id as usize].push(flow);
        }
    }

    let mut obligations = Vec::new();
    let mut witnesses = Vec::new();
    let mut shared = Vec::new();
    for pair in contention.iter() {
        let (Some(a), Some(b)) = (flows.id(pair.first()), flows.id(pair.second())) else {
            continue;
        };
        obligations.push(pair);
        shared_ids(&route_ids[a], &route_ids[b], &mut shared);
        if !shared.is_empty() {
            witnesses.push(CertWitness {
                pair,
                shared: shared
                    .iter()
                    .map(|&id| labels[id as usize].clone())
                    .collect(),
            });
        }
    }

    let route_map: BTreeMap<Flow, Vec<String>> = flows
        .flows()
        .iter()
        .zip(&route_ids)
        .map(|(&flow, ids)| {
            let chans = ids.iter().map(|&id| labels[id as usize].clone()).collect();
            (flow, chans)
        })
        .collect();
    let crossings: BTreeMap<String, Vec<Flow>> = labels.into_iter().zip(inverse).collect();

    Certificate {
        n_procs,
        contention_free: witnesses.is_empty(),
        cliques: cliques.iter().map(|c| c.iter().collect()).collect(),
        obligations,
        routes: route_map,
        crossings,
        witnesses,
        job: job.map(|d| d.to_hex()),
        claimed_binding: None,
    }
}

/// Writes the ids two ascending id lists share into `out`, ascending.
fn shared_ids(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{regular, verify_contention_free};
    use nocsyn_model::{Message, ProcId, Trace};

    fn concurrent_trace(flows: &[(usize, usize)], n: usize) -> Trace {
        let mut t = Trace::new(n);
        for &(s, d) in flows {
            t.push(Message::new(ProcId(s), ProcId(d), 0, 10).unwrap())
                .unwrap();
        }
        t
    }

    #[test]
    fn certificate_verdict_matches_the_verifier() {
        for flows in [
            vec![(0usize, 1usize), (1, 0), (2, 3), (3, 2)],
            vec![(0, 3), (1, 3)],
        ] {
            let t = concurrent_trace(&flows, 4);
            let (_, routes) = regular::mesh(2, 2).unwrap();
            let contention = t.contention_set();
            let report = verify_contention_free(&contention, &routes);
            let cert = build_certificate(4, &t.maximum_clique_set(), &contention, &routes, None);
            assert_eq!(cert.contention_free, report.is_contention_free());
            assert_eq!(cert.witnesses.len(), report.len());
            assert!(cert.verify_binding());
        }
    }

    #[test]
    fn crossings_invert_routes_exactly() {
        let t = concurrent_trace(&[(0, 3), (1, 2)], 4);
        let (_, routes) = regular::torus(2, 2).unwrap();
        let cert = build_certificate(
            4,
            &t.maximum_clique_set(),
            &t.contention_set(),
            &routes,
            None,
        );
        let mut rebuilt: BTreeMap<String, Vec<Flow>> = BTreeMap::new();
        for (flow, chans) in &cert.routes {
            for ch in chans {
                rebuilt.entry(ch.clone()).or_default().push(*flow);
            }
        }
        assert_eq!(rebuilt, cert.crossings);
        // Only routed flows appear, and their resource sets are sorted.
        for chans in cert.routes.values() {
            assert!(chans.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn unrouted_contention_pairs_produce_no_obligation() {
        let t = concurrent_trace(&[(0, 3), (1, 3)], 4);
        let cert = build_certificate(
            4,
            &t.maximum_clique_set(),
            &t.contention_set(),
            &RouteTable::new(),
            None,
        );
        assert!(cert.obligations.is_empty());
        assert!(cert.contention_free);
    }
}
