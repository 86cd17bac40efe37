//! The algorithms of Kuhn & Schneider, *Computing Shortest Paths and Diameter in
//! the Hybrid Network Model* (PODC 2020), on top of the `hybrid-sim` simulator.
//!
//! Layer by layer (paper section in parentheses):
//!
//! * **Primitives** — [`hash`]: k-wise independent hash families (App. D);
//!   [`aggregate`]: NCC tree aggregation in `O(log n)` rounds (App. B, from \[2\]);
//!   [`dissemination`]: token dissemination in `Õ(√k + ℓ)` rounds (App. B, from
//!   \[3\]); [`ruling_set`]: `(2µ+1, 2µ⌈log n⌉)`-ruling sets in `O(µ log n)`
//!   rounds (§2.1, Lemma 2.1).
//! * **Token routing** (§2) — [`helpers`]: helper-set computation (Algorithm 1);
//!   [`token_routing`]: the routing protocol (Algorithms 2–4, Theorem 2.2).
//! * **Shortest paths** — exact APSP in `Õ(√n)` (§3, Theorem 1.1) plus the
//!   `Õ(n^{2/3})` baseline of \[3\]; [`skeleton_ops`] and
//!   [`clique_on_skeleton`]: skeleton construction, source representatives, and
//!   the CLIQUE-on-skeleton simulation (§4.1, Corollary 4.1); the k-SSP
//!   framework (Theorem 4.1) and Corollaries 4.6–4.8; exact SSSP in
//!   `Õ(n^{2/5})` (Theorem 1.3) and baselines.
//! * **Diameter** (§5) — the diameter framework (Theorem 5.1) and
//!   Corollaries 5.2 / 5.3.
//! * **Lower bounds** (§6, §7) — [`lower_bound_experiments`]: information-flow
//!   measurements on the Figure-1 and Figure-2 constructions (Theorems 1.5, 1.6).
//!
//! Callers reach the shortest-path and diameter algorithms through two
//! doors: [`solver`], the typed [`Query`] → [`solve`] → [`Report`] front door
//! that runs one query on a net, and [`session`], whose [`Session`] answers
//! many queries on one graph bit-identically while preparing their shared
//! skeleton preamble once. The per-algorithm protocol functions are private
//! to this crate.

#![warn(missing_docs)]
// Per-node `for v in 0..n` index loops are the message-passing idiom here
// (v *is* the node); the clippy range-loop suggestion would obscure that.
#![allow(clippy::needless_range_loop)]

pub mod aggregate;
pub(crate) mod apsp;
pub mod clique_on_skeleton;
pub(crate) mod diameter;
pub mod dissemination;
pub mod error;
pub mod hash;
pub mod helpers;
pub(crate) mod ksssp;
pub mod lower_bound_experiments;
pub(crate) mod prepare;
pub mod repair;
pub mod ruling_set;
pub mod session;
pub mod skeleton_ops;
pub mod solver;
pub(crate) mod sssp;
pub mod token_routing;

pub use error::HybridError;
pub use repair::{RepairPath, RepairReport};
pub use session::{Session, SessionConfig, SessionStats};
pub use solver::{
    solve, Answer, ApspVariant, DiameterCorollary, Guarantee, KsspCorollary, Query, QueryError,
    Report, SourceSet, SsspVariant,
};
