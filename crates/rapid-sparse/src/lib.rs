//! Sparse-matrix substrate for the RAPID reproduction.
//!
//! The paper evaluates on sparse Cholesky factorization (2-D block
//! mapping) and sparse LU with partial pivoting (static symbolic
//! factorization, 1-D column-block mapping) over Harwell-Boeing matrices.
//! This crate provides everything needed to rebuild those workloads from
//! scratch:
//!
//! - [`csc`] — compressed sparse column matrices and dense block storage,
//! - [`gen`] — synthetic pattern generators standing in for the
//!   Harwell-Boeing test matrices (grid FEM stencils for BCSSTK15/24/33,
//!   an unsymmetric banded pattern for GOODWIN; see DESIGN.md),
//! - [`order`] — fill-reducing orderings (reverse Cuthill-McKee, minimum
//!   degree),
//! - [`symbolic`] — elimination trees, symbolic Cholesky factorization and
//!   the static (over-estimated) symbolic LU factorization,
//! - [`blockpart`] — supernode-style uniform column-block partitioning and
//!   the 2-D block grid,
//! - [`taskgen`] — task-graph builders: the 2-D block Cholesky DAG and the
//!   1-D column-block LU-with-pivoting DAG, with flop-accurate task
//!   weights and block-sized data objects,
//! - [`kernels`] — dense block kernels (`potrf`, `trsm`, `syrk`, `gemm`,
//!   `getrf` with partial pivoting),
//! - [`io`] — Matrix Market reader/writer so the genuine Harwell-Boeing
//!   test matrices can be used when available,
//! - [`refsolve`] — sequential reference factorizations and residual
//!   checks used to validate the parallel executors.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::undocumented_unsafe_blocks)]

pub mod blockpart;
pub mod csc;
pub mod gen;
pub mod io;
pub mod kernels;
pub mod order;
pub mod refsolve;
pub mod symbolic;
pub mod taskgen;

pub use csc::SparseMatrix;
