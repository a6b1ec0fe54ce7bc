//! The correctness gate: every measured phase must end in the state and
//! counts of a serial No-Lock run over the same generated input.
//!
//! One executor under No-Lock applies the transactions one at a time in
//! input order, which is the timestamp order TStream must be equivalent to.

use std::sync::Arc;
use std::time::Instant;

use tstream_core::{Engine, EngineConfig, RunReport, Scheme};
use tstream_state::{state_root, StateStore};
use tstream_txn::nolock::NoLockScheme;
use tstream_txn::Application;

/// What a correct run ends with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub events: u64,
    pub committed: u64,
    pub rejected: u64,
    pub root: u64,
}

/// Run the serial No-Lock oracle over `input` on `store`; returns the
/// expected outcome and the oracle's own throughput in keps.
pub fn oracle<A: Application>(
    app: A,
    store: &Arc<StateStore>,
    input: Vec<A::Payload>,
) -> (Expected, f64) {
    let engine = Engine::new(EngineConfig::with_executors(1));
    let scheme = Scheme::Eager(Arc::new(NoLockScheme::new()));
    let report = engine.run(&Arc::new(app), store, input, &scheme);
    let expected = Expected {
        events: report.events,
        committed: report.committed,
        rejected: report.rejected,
        root: state_root(store),
    };
    (expected, report.throughput_keps())
}

/// Compare a finished phase with the oracle; returns the time the state
/// root took, or what differs.
pub fn check(
    expected: &Expected,
    report: &RunReport,
    store: &StateStore,
) -> Result<std::time::Duration, String> {
    let start = Instant::now();
    let root = state_root(store);
    let took = start.elapsed();
    let got = Expected {
        events: report.events,
        committed: report.committed,
        rejected: report.rejected,
        root,
    };
    if got == *expected {
        Ok(took)
    } else {
        Err(format!(
            "oracle mismatch: expected {expected:?}, got {got:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstream_apps::{sl, WorkloadSpec};

    fn tstream_run(spec: &WorkloadSpec, input: Vec<sl::SlEvent>) -> (RunReport, Arc<StateStore>) {
        let store = sl::build_store(spec);
        let engine = Engine::new(EngineConfig::with_executors(2));
        let report = engine.run(
            &Arc::new(sl::StreamingLedger),
            &store,
            input,
            &Scheme::TStream,
        );
        (report, store)
    }

    #[test]
    fn gate_passes_tstream_and_fails_a_perturbed_store() {
        let spec = WorkloadSpec::default().events(3_000).seed(7);
        let input = sl::generate(&spec);
        let (expected, _) = oracle(sl::StreamingLedger, &sl::build_store(&spec), input.clone());

        let (report, store) = tstream_run(&spec, input);
        check(&expected, &report, &store).expect("TStream matches the serial oracle");

        // One extra deposit changes two balances but no count the report
        // carries: only the state root can catch it.
        let extra = sl::SlEvent::Deposit {
            account: 1,
            asset: 1,
            amount: 1,
        };
        let engine = Engine::new(EngineConfig::with_executors(1));
        let _ = engine.run(
            &Arc::new(sl::StreamingLedger),
            &store,
            vec![extra],
            &Scheme::TStream,
        );
        let err = check(&expected, &report, &store).expect_err("perturbed store must fail");
        assert!(err.contains("oracle mismatch"), "{err}");
    }

    #[test]
    fn gate_fails_on_a_count_mismatch() {
        let spec = WorkloadSpec::default().events(1_000).seed(3);
        let input = sl::generate(&spec);
        let (expected, _) = oracle(sl::StreamingLedger, &sl::build_store(&spec), input.clone());
        let (mut report, store) = tstream_run(&spec, input);
        report.rejected += 1;
        assert!(check(&expected, &report, &store).is_err());
    }
}
