//! `nocsyn-faults` — deterministic fault injection, route repair, and
//! Theorem-1 degradation analysis for synthesized interconnects.
//!
//! The paper's networks are minimal by construction: Section 3 sizes each
//! inter-switch pipe to the `Fast_Color` clique lower bound, so a single
//! dead link can disconnect flows or reintroduce exactly the contention
//! Theorem 1 (`C ∩ R = ∅`) designed out. This crate measures how
//! gracefully a network degrades:
//!
//! 1. [`FaultScenario`] names a set of dead links and switches — sampled
//!    deterministically from a seed via `nocsyn-rng`, or enumerated
//!    exhaustively over every single-element fault.
//! 2. [`repair_routes`] re-routes the affected flows of a
//!    [`RouteTable`](nocsyn_topo::RouteTable) over the surviving subgraph
//!    (shortest-path fallback via `shortest_route_avoiding`), keeping
//!    unaffected routes untouched.
//!    Flows with no surviving path come back as structured
//!    [`DisconnectionWitness`]es.
//! 3. [`DegradationReport::analyze`] re-runs `verify_contention_free` on
//!    the repaired table, classifying **every** flow as
//!    [`FlowFate::Repaired`], [`FlowFate::ContentionIntroduced`] (with the
//!    Theorem-1 witnesses), or [`FlowFate::Unroutable`]. For sweeps over
//!    many scenarios of one baseline, [`DegradationAnalyzer`] produces the
//!    identical reports incrementally: one shared Theorem-1 checker,
//!    per-scenario route edits applied and rolled back.
//!
//! Everything here is a pure function of `(network, routes, scenario)`:
//! reports carry no clocks or iteration-order artifacts, so the same seed
//! and scenario produce byte-identical JSON on any worker count — the
//! property the CI fault-determinism gate pins.
//!
//! ```
//! use nocsyn_faults::{DegradationReport, FaultScenario};
//! use nocsyn_model::{ContentionSet, Flow};
//! use nocsyn_topo::regular;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (net, routes) = regular::mesh(2, 2)?;
//! // Two flows that overlap in time: they must never share a channel.
//! let mut contention = ContentionSet::new();
//! contention.insert(Flow::from_indices(0, 3), Flow::from_indices(1, 2));
//!
//! // Fail each network link in turn; the mesh reroutes around every one.
//! for scenario in FaultScenario::enumerate_single_link_faults(&net) {
//!     let report = DegradationReport::analyze(&net, &contention, &routes, scenario);
//!     assert_eq!(report.n_unroutable(), 0);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analyzer;
mod repair;
mod report;
mod scenario;

pub use analyzer::DegradationAnalyzer;
pub use repair::{
    repair_routes, route_is_affected, DisconnectCause, DisconnectionWitness, RepairOutcome,
};
pub use report::{DegradationReport, FlowFate};
pub use scenario::FaultScenario;
