//! The benchmark's wrapper application: it forwards every hook to the real
//! application and observes it from outside.
//!
//! Each payload carries its ordinal in the generated input, which fixes the
//! instant it was due on the generator's schedule.  The wrapper records, per
//! ordinal, when `post_process` ran (the emission instant latency is
//! measured to) and, in a traced run, when `state_access` ran and how long
//! each hook took.  Every slot is written once by one thread, so recording
//! never contends between executors.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tstream_recovery::WalPayload;
use tstream_state::codec::Reader;
use tstream_state::StateResult;
use tstream_txn::{Application, EventBlotter, PostAction, TxnBuilder};

use tstream_core::prelude::ReadWriteSet;

/// Ordinal of a payload decoded from the WAL during recovery: it is not
/// part of any measured phase, so the wrapper records nothing for it.
const UNSTAMPED: u64 = u64::MAX;

/// A generated payload stamped with its place on the generator's schedule:
/// the ordinal fixes when it is due (`Workload::due_ns`).
#[derive(Debug, Clone)]
pub struct Stamped<P> {
    /// Position in the generated input.
    pub ordinal: u64,
    /// The real application's payload.
    pub inner: P,
}

impl<P: WalPayload> WalPayload for Stamped<P> {
    // Only the inner payload is logged, so WAL bytes match the real app.
    fn encode_wal(&self, out: &mut Vec<u8>) {
        self.inner.encode_wal(out);
    }

    fn decode_wal(reader: &mut Reader<'_>) -> StateResult<Self> {
        Ok(Stamped {
            ordinal: UNSTAMPED,
            inner: P::decode_wal(reader)?,
        })
    }
}

/// Per-ordinal observations of one measured phase.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    traced: bool,
    /// `post_process` instant, ns after `base` (0 = not yet emitted).
    pub post_at: Vec<AtomicU64>,
    /// Traced only: `state_access` instant, ns after `base`.
    pub access_at: Vec<AtomicU64>,
    /// Traced only: hook durations in ns.
    pub rw_ns: Vec<AtomicU32>,
    pub txn_ns: Vec<AtomicU32>,
    pub post_ns: Vec<AtomicU32>,
}

fn slots<T: Default>(n: usize) -> Vec<T> {
    (0..n).map(|_| T::default()).collect()
}

impl Recorder {
    /// A recorder for `events` ordinals; `traced` also times every hook.
    pub fn new(events: usize, traced: bool) -> Arc<Self> {
        let per_event = |n| if traced { n } else { 0 };
        Arc::new(Recorder {
            base: Instant::now(),
            traced,
            post_at: slots(events),
            access_at: slots(per_event(events)),
            rw_ns: slots(per_event(events)),
            txn_ns: slots(per_event(events)),
            post_ns: slots(per_event(events)),
        })
    }

    /// Nanoseconds from `base` to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }

    fn slot(ordinal: u64) -> Option<usize> {
        (ordinal != UNSTAMPED).then_some(ordinal as usize)
    }
}

fn elapsed_ns(start: Instant) -> u32 {
    start.elapsed().as_nanos().min(u32::MAX as u128) as u32
}

/// The wrapper application.
pub struct Probe<A> {
    inner: A,
    rec: Arc<Recorder>,
}

impl<A> Probe<A> {
    pub fn new(inner: A, rec: Arc<Recorder>) -> Self {
        Probe { inner, rec }
    }
}

impl<A: Application> Application for Probe<A> {
    type Payload = Stamped<A::Payload>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pre_process(&self, p: &Self::Payload) -> bool {
        self.inner.pre_process(&p.inner)
    }

    fn read_write_set(&self, p: &Self::Payload) -> ReadWriteSet {
        match Recorder::slot(p.ordinal).filter(|_| self.rec.traced) {
            Some(i) => {
                let start = Instant::now();
                let set = self.inner.read_write_set(&p.inner);
                self.rec.rw_ns[i].store(elapsed_ns(start), Ordering::Relaxed);
                set
            }
            None => self.inner.read_write_set(&p.inner),
        }
    }

    fn state_access(&self, p: &Self::Payload, txn: &mut TxnBuilder) {
        match Recorder::slot(p.ordinal).filter(|_| self.rec.traced) {
            Some(i) => {
                let start = Instant::now();
                self.inner.state_access(&p.inner, txn);
                let took = elapsed_ns(start);
                self.rec.access_at[i].store(self.rec.ns(start), Ordering::Relaxed);
                self.rec.txn_ns[i].store(took, Ordering::Relaxed);
            }
            None => self.inner.state_access(&p.inner, txn),
        }
    }

    fn post_process(&self, p: &Self::Payload, blotter: &EventBlotter) -> PostAction {
        let start = Instant::now();
        let action = self.inner.post_process(&p.inner, blotter);
        if let Some(i) = Recorder::slot(p.ordinal) {
            self.rec.post_at[i].store(self.rec.ns(start), Ordering::Relaxed);
            if self.rec.traced {
                self.rec.post_ns[i].store(elapsed_ns(start), Ordering::Relaxed);
            }
        }
        action
    }
}
