//! Experiment harness: every theorem of the paper as a reproducible,
//! table-printing experiment (E1–E16), plus the scenario smoke matrix and
//! the churn repair gate that `experiments --smoke` runs.
//!
//! The `experiments` binary runs them and prints the tables. Wall-clock
//! performance is measured by the separate `perfbench` package.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::Scale;
