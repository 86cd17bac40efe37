//! Trace determinism: the structured event stream is part of the repo's
//! bit-identical contract. Two traced runs of the same scenario must
//! produce identical event sequences modulo wall-clock stamps, and the
//! chaos family's retransmission events must account exactly for the
//! metrics counter.

use hybrid_core::solver::solve;
use hybrid_scenarios::model::Scenario;
use hybrid_scenarios::{by_tag, registry};
use hybrid_sim::{Metrics, Recorder, TraceEvent};
use proptest::prelude::*;

/// One traced run of a scenario's suite at size ≈ `n`. Returns the
/// wall-stripped event stream and the run's metrics; reconciliation is
/// asserted on every run.
fn traced_run(sc: &Scenario, n: usize) -> (Vec<TraceEvent>, Metrics) {
    let g = sc.graph(n);
    let mut net = sc.net(&g);
    net.set_trace(Recorder::new());
    let _ = solve(&mut net, &sc.suite.query(), sc.seed);
    let rec = net.take_trace().expect("recorder installed");
    rec.reconcile(net.metrics())
        .unwrap_or_else(|e| panic!("{} at n={n}: trace must reconcile: {e}", sc.name));
    (rec.events_sans_wall(), net.into_metrics())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any registered scenario, traced twice at the same size, emits the
    /// identical event sequence (wall-clock stamps aside) and the identical
    /// round bill.
    #[test]
    fn traced_runs_are_reproducible(idx in 0usize..registry().len(), n in 36usize..52) {
        let sc = &registry()[idx];
        let (a, ma) = traced_run(sc, n);
        let (b, mb) = traced_run(sc, n);
        prop_assert_eq!(&a, &b, "{} event streams diverged at n={}", sc.name, n);
        prop_assert_eq!(ma.rounds, mb.rounds);
        prop_assert_eq!(ma.global_messages, mb.global_messages);
    }
}

#[test]
fn chaos_wave_events_account_for_every_retransmission() {
    let mut any_retransmitted = false;
    for sc in by_tag("chaos") {
        let (events, metrics) = traced_run(sc, 48);
        let traced: u64 = events
            .iter()
            .map(|e| match e {
                TraceEvent::Wave { retransmissions, .. } => *retransmissions,
                TraceEvent::Absorb { retransmissions, .. } => *retransmissions,
                _ => 0,
            })
            .sum();
        assert_eq!(
            traced, metrics.retransmissions,
            "{}: retransmission events must match the metrics counter",
            sc.name
        );
        any_retransmitted |= traced > 0;
    }
    assert!(any_retransmitted, "the chaos sweep must exercise retransmission waves");
}
