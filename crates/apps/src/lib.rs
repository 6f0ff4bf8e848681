//! # hpc-apps
//!
//! The five evaluation applications of the IncProf paper (§VI), rebuilt as
//! mini Rust kernels with the same function inventory, call structure, and
//! time-varying phase behavior the paper describes:
//!
//! * [`graph500`] — Kronecker graph generation, level-synchronous BFS, and
//!   result validation (Graph500 `mpi_simple`, Table II / Fig. 2).
//! * [`minife`] — implicit finite-element mini-app: mesh/matrix structure
//!   generation, element assembly, Dirichlet conditions, CG solve
//!   (MiniFE, Table III / Fig. 3).
//! * [`miniamr`] — block-structured adaptive mesh refinement with stencil
//!   sweeps, checksums, refinement, and pack/unpack communication
//!   (MiniAMR, Table IV / Fig. 4).
//! * [`lammps`] — Lennard-Jones molecular dynamics: neighbor-list builds
//!   and force computation (LAMMPS lj/metal, Table V / Fig. 5).
//! * [`gadget2`] — N-body/SPH cosmology timestep loop: tree forces, PM
//!   grid setup, tree updates (Gadget2, Table VI / Fig. 6).
//!
//! Every app:
//!
//! * performs **real computation** (real BFS, real CG iterations, real
//!   stencils, real LJ forces, real tree walks) with a verifiable result;
//! * is **rank-symmetric** over [`mpi_sim`] (allreduces, halo exchanges),
//!   like the paper's 16-rank MPI runs;
//! * is instrumented for the `-pg`-equivalent profiler
//!   ([`incprof_runtime::ProfilerRuntime`]) and for AppEKG heartbeats via
//!   a configurable [`plan::HeartbeatPlan`] (none / the paper's manual
//!   sites / sites discovered by phase analysis);
//! * runs under a **virtual clock** with a calibrated per-operation cost
//!   model (deterministic experiments reproducing the paper's 1-second
//!   interval counts in milliseconds of real time) or under the **wall
//!   clock** (for the Table I overhead measurements).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Numerical kernels index several parallel arrays in one loop; the
// iterator rewrite clippy suggests hurts readability there.
#![allow(clippy::needless_range_loop)]

pub mod gadget2;
pub mod graph500;
pub mod harness;
pub mod lammps;
pub mod miniamr;
pub mod minife;
pub mod plan;
pub mod synth;

pub use harness::{AppOutput, RankContext, RankData, RunMode};
pub use plan::HeartbeatPlan;
