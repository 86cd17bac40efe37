//! Scenario engine for the HYBRID-model reproduction: a declarative workload
//! registry with fault injection, a parallel runner, and golden verification.
//!
//! A [`Scenario`] is pure data —
//! `GraphFamily × WeightModel × FaultPlan × AlgorithmSuite × Seed` — and the
//! static [`registry()`] names every workload the project ships (`"e2-er"`,
//! `"sparse-grid-thm11"`, `"faulty-soda20"`, …). The [`run_scenarios`] runner
//! executes batches on scoped worker threads with deterministic per-scenario
//! RNG streams, and every run is checked against ground-truth Dijkstra (exact,
//! the run's own α-approximation guarantee, or the lossy no-silent-corruption
//! contract for drop/crash fault plans) before a structured
//! [`ScenarioReport`] is emitted.
//!
//! # Example
//!
//! ```
//! use hybrid_scenarios::{find, registry, run_scenario};
//!
//! // Run one named workload at smoke size and verify it against ground truth.
//! let scenario = find("sparse-grid-thm11").expect("registered");
//! let report = run_scenario(scenario, 36);
//! assert!(report.passed(), "{}", report.detail);
//! assert!(report.rounds > 0);
//!
//! // The registry spans many families; filter it by tag.
//! assert!(registry().len() >= 10);
//! assert!(hybrid_scenarios::by_tag("faulty").len() >= 2);
//! ```

#![warn(missing_docs)]

pub mod churn;
pub mod model;
pub mod registry;
pub mod runner;
pub mod verify;
pub mod workloads;

pub use hybrid_core::solver::{DiameterCorollary, KsspCorollary, Query, QueryError};
pub use model::{AlgorithmSuite, ChurnPlan, FaultPlan, GraphFamily, Scenario, WeightModel};
pub use registry::{all_tags, by_tag, find, registry};
pub use runner::{
    run_scenario, run_scenario_traced, run_scenario_with, run_scenarios, Engine, ScenarioReport,
};
pub use verify::{check_report, Contract, Verdict, Verification};
