//! Conflict-graph coloring for pipe sizing.
//!
//! During synthesis, the number of links a pipe needs for contention-free
//! operation equals the chromatic number of the pipe's *conflict graph*
//! (vertices = communications crossing the pipe in one direction, edges =
//! potential temporal conflicts; Section 3.1 of Ho & Pinkston, HPCA 2003).
//! This crate provides:
//!
//! * [`ConflictGraph`] — the graph itself, built from a flow set and a
//!   contention set.
//! * [`greedy_dsatur`] — fast upper bound (DSATUR heuristic).
//! * [`exact_chromatic`] — exact chromatic number by branch and bound, used
//!   at topology finalization (the paper's "formal coloring").
//! * [`two_color`] — polynomial 2-coloring for the ≤2-link pipes the
//!   finalization step expects (Section 3.3).
//! * [`fast_color`] — the paper's `Fast_Color` procedure: a clique-derived
//!   lower bound computed in `O(KL)` without solving any coloring problem.
//!
//! # Example
//!
//! ```
//! use nocsyn_coloring::{exact_chromatic, greedy_dsatur, ConflictGraph};
//! use nocsyn_model::{Flow, Message, ProcId, Trace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three mutually overlapping messages -> a triangle conflict graph.
//! let mut t = Trace::new(6);
//! t.push(Message::new(ProcId(0), ProcId(1), 0, 10)?)?;
//! t.push(Message::new(ProcId(2), ProcId(3), 0, 10)?)?;
//! t.push(Message::new(ProcId(4), ProcId(5), 0, 10)?)?;
//!
//! let flows: Vec<Flow> = t.flows().into_iter().collect();
//! let graph = ConflictGraph::from_flows(flows, &t.contention_set());
//! assert_eq!(greedy_dsatur(&graph).n_colors(), 3);
//! assert_eq!(exact_chromatic(&graph).n_colors(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bipartite;
mod exact;
mod fast;
mod graph;
mod greedy;

pub use bipartite::two_color;
pub use exact::exact_chromatic;
pub use fast::{fast_color, fast_color_directed, fast_color_directed_masks};
pub use graph::{Coloring, ConflictGraph};
pub use greedy::greedy_dsatur;
