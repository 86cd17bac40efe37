//! Round-faithful simulator of the **HYBRID network model** of Augustine et al.
//! (SODA 2020), as used by Kuhn & Schneider (PODC 2020).
//!
//! The model: `n` nodes, synchronous rounds, two communication modes per round:
//!
//! * **Local mode** (the LOCAL model): arbitrary-size messages over the edges of
//!   the local graph `G`. Unbounded bandwidth means only the *number of rounds* of
//!   a local phase is observable; the simulator therefore charges local phases on
//!   the round clock and lets algorithms compute the resulting `d`-hop knowledge
//!   directly (see [`HybridNet::charge_local`] and the `hybrid-graph` reference
//!   routines).
//! * **Global mode** (the node-capacitated clique, NCC): every node can send and
//!   receive `O(log n)` messages of `O(log n)` bits to/from *arbitrary* nodes per
//!   round. This is where all congestion arguments of the paper live, so the
//!   global mode is simulated message-by-message with explicit per-node send and
//!   receive caps ([`HybridNet::exchange`]).
//!
//! The `(λ, γ)` parametrization of hybrid networks (footnote 2 of the paper) is
//! captured by [`HybridConfig`]: the default is `LOCAL + NCC` (`λ = ∞`,
//! `γ = Θ(log² n)` bits); restricting `γ` further scales the per-round message
//! caps.
//!
//! Adversarial network behavior (random global-message loss, node crashes) is
//! injected through a declarative [`FaultPlan`]
//! ([`HybridNet::inject_faults`]) — the hooks live inside the exchange engine,
//! so every protocol built on the simulator can be exercised under faults
//! without touching its code.
//!
//! A round — every node's step and the exchange between them — is replayed
//! on the calling thread, so the simulation has no thread budget; the
//! multi-threaded work is the graph kernels', sized by
//! [`hybrid_graph::workers`].
//!
//! # Example
//!
//! ```
//! use hybrid_graph::generators::path;
//! use hybrid_graph::NodeId;
//! use hybrid_sim::{Envelope, HybridConfig, HybridNet};
//!
//! # fn main() -> Result<(), hybrid_sim::SimError> {
//! let g = path(8, 1).expect("valid graph");
//! let mut net = HybridNet::new(&g, HybridConfig::default());
//! // One global round: node 0 sends a token to node 7 (far away in G).
//! let inboxes = net.exchange("demo", vec![Envelope::new(
//!     NodeId::new(0),
//!     NodeId::new(7),
//!     42u64,
//! )])?;
//! assert_eq!(inboxes[7], vec![(NodeId::new(0), 42)]);
//! assert_eq!(net.rounds(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Per-node `for v in 0..n` index loops are the message-passing idiom here
// (v *is* the node); the clippy range-loop suggestion would obscure that.
#![allow(clippy::needless_range_loop)]

pub mod channel;
pub mod config;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod rng;
pub mod trace;

pub use channel::{Envelope, FlatInboxes, Inboxes, SendQueues};
pub use config::{HybridConfig, OverflowPolicy};
pub use fault::{Crash, FaultPlan};
pub use metrics::{Metrics, PhaseStats};
pub use net::{HybridNet, SimError};
pub use rng::derive_seed;
pub use trace::{Recorder, TraceEvent};
