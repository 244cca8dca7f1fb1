//! # smo-circuit — circuit & clock model for latch-controlled circuits
//!
//! This crate implements the structural side of the SMO timing model
//! (Sakallah–Mudge–Olukotun, §III): synchronous digital circuits decomposed
//! into stages of feedback-free combinational logic whose inputs and outputs
//! are clocked by level-sensitive latches (or edge-triggered flip-flops)
//! under an arbitrary k-phase clock.
//!
//! The main types are:
//!
//! * [`ClockSpec`] — a k-phase clock *specification* (the number of phases
//!   plus the paper's `C` ordering matrix); concrete start times and widths
//!   live in a [`ClockSchedule`];
//! * [`Synchronizer`] with [`SyncKind`] — a D-latch or flip-flop with its
//!   controlling phase `p_i`, setup time `Δ_DC`, propagation delay `Δ_DQ`,
//!   and (extension) hold time;
//! * [`Circuit`] / [`CircuitBuilder`] — synchronizers plus the combinational
//!   delay edges `Δ_ji` between them, with structural validation and the
//!   paper's `K` matrix of input/output phase pairs;
//! * [`netlist`] — a small text format so circuits can live in files
//!   (the paper's "simple parser");
//! * [`json`] — the JSON value every report renders through, and the
//!   hostile-input parser the daemon reads requests with.
//!
//! Timing quantities are plain `f64` in a consistent but unspecified unit
//! (the paper uses nanoseconds).
//!
//! ## Example
//!
//! ```
//! use smo_circuit::{CircuitBuilder, PhaseId};
//!
//! # fn main() -> Result<(), smo_circuit::CircuitError> {
//! // A two-latch loop on a two-phase clock.
//! let mut b = CircuitBuilder::new(2);
//! let a = b.add_latch("A", PhaseId::from_number(1), 10.0, 10.0);
//! let c = b.add_latch("C", PhaseId::from_number(2), 10.0, 10.0);
//! b.connect(a, c, 20.0);
//! b.connect(c, a, 60.0);
//! let circuit = b.build()?;
//! assert_eq!(circuit.num_latches(), 2);
//! assert!(circuit.k_matrix().get(0, 1)); // φ1/φ2 is an I/O phase pair
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod circuit;
mod clock;
mod dot;
mod error;
pub mod gates;
mod graph;
mod ids;
pub mod json;
mod matrix;
pub mod netlist;
mod scan;
mod sync;
mod transform;

pub use builder::CircuitBuilder;
pub use circuit::Circuit;
pub use clock::{ClockSchedule, ClockSpec};
pub use dot::to_dot;
pub use error::CircuitError;
pub use graph::{Cycle, Digraph, Edge, EdgeId};
pub use ids::{LatchId, PhaseId};
pub use matrix::BoolMatrix;
pub use sync::{SyncKind, Synchronizer};
pub use transform::{lump_equivalent_latches, merge_parallel_edges};
