//! # smo — optimal clocking for latch-controlled synchronous circuits
//!
//! Facade crate for the workspace reproducing Sakallah, Mudge & Olukotun,
//! *"Analysis and Design of Latch-Controlled Synchronous Digital Circuits"*
//! (DAC 1990 / IEEE TCAD 1992). It re-exports the member crates:
//!
//! * [`lp`] — sparse-LU simplex linear-programming solver with duals,
//!   certificates and the difference-constraint graph solver ([`smo_lp`]),
//! * [`circuit`] — k-phase clock and latch-level circuit model
//!   ([`smo_circuit`]),
//! * [`timing`] — the SMO timing engine: constraint generation, Algorithm
//!   MLP, schedule verification, baselines ([`smo_core`]),
//! * [`sim`] — discrete-event behavioural simulator ([`smo_sim`]),
//! * [`gen`] — circuit generators and the paper's example circuits
//!   ([`smo_gen`]),
//! * [`analyze`] — circuit lints and Farkas-certified infeasibility
//!   diagnosis ([`smo_analyze`]),
//! * [`api`] — the shared request/response layer behind the CLI and the
//!   `smo serve` daemon: line-delimited JSON protocol, deadlines,
//!   backpressure, caches and graceful degradation ([`smo_api`]).
//!
//! ## Quickstart
//!
//! ```
//! use smo::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Example 1 of the paper: two-stage loop under a two-phase clock.
//! let circuit = smo::gen::paper::example1(80.0);
//! let solution = min_cycle_time(&circuit)?;
//! assert!((solution.cycle_time() - 110.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub use smo_analyze as analyze;
pub use smo_api as api;
pub use smo_circuit as circuit;
pub use smo_core as timing;
pub use smo_gen as gen;
pub use smo_lp as lp;
pub use smo_sim as sim;

/// Convenient glob-import surface: the types and functions most programs
/// need.
pub mod prelude {
    pub use smo_circuit::{Circuit, CircuitBuilder, ClockSpec, LatchId, PhaseId, SyncKind};
    pub use smo_core::{min_cycle_time, verify, ClockSchedule, TimingSolution};
}
