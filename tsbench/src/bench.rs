//! The measured phases of one workload: set-up, closed-loop capacity
//! rounds, the open-loop latency phase and the traced variants of both.
//!
//! Every phase uses a fresh store, engine and session, ends with the
//! correctness gate, and (for durable workloads) reopens its directory with
//! `.recover()` and gates the recovered state too.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tstream_apps::WorkloadSpec;
use tstream_core::{Engine, EngineConfig, MetricsSnapshot, RunReport, Scheme, Session};
use tstream_recovery::{FsyncPolicy, WalPayload};
use tstream_state::StateStore;
use tstream_txn::Application;

use crate::gate::{self, Expected};
use crate::probe::{Probe, Recorder, Stamped};
use crate::sys::{self, Sample, ThreadTime};

/// Punctuation interval of every workload (the paper's default).
pub const PUNCTUATION: u64 = 500;

/// What one workload runs.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub executors: usize,
    pub durable: bool,
    /// Open-loop offered rate, events per second.
    pub rate_eps: f64,
    /// Capacity the run is sized for; it sets how many closed-loop rounds
    /// fit in a run and is never compared with a measurement.
    pub nominal_keps: f64,
}

impl Workload {
    /// When the payload with ordinal `i` is due, ns after the schedule's
    /// start.
    pub fn due_ns(&self, i: usize) -> u64 {
        (i as f64 * 1e9 / self.rate_eps) as u64
    }
}

/// Counts over every phase of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub app_rejected: u64,
    pub root_ms: Vec<f64>,
    /// Durable phases: recovery reopen time / the phase's wall time.
    pub reopen_share: Vec<f64>,
}

/// One finished phase, observed from outside the engine.
pub struct Drive {
    pub wall: Duration,
    pub report: RunReport,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub exec: ThreadTime,
    pub writer: ThreadTime,
    pub generator: ThreadTime,
    /// Open loop only: per push, its start (ns after the recorder's base)
    /// and duration in ns.
    pub pushes: Vec<(u64, u64)>,
    /// Open loop only: the schedule's start, ns after the recorder's base.
    pub schedule_start_ns: u64,
}

/// Set-up times of one repetition, in seconds.
pub struct Setup {
    pub build: f64,
    pub engine: f64,
    pub open: f64,
}

pub struct Bench<'w, A: Application> {
    pub w: &'w Workload,
    pub input: Vec<A::Payload>,
    pub tally: Tally,
    app: A,
    build: fn(&WorkloadSpec) -> Arc<StateStore>,
    spec: WorkloadSpec,
    expected: Expected,
    scratch: PathBuf,
    next_dir: u64,
}

/// Removes the benchmark's scratch directory however the run ends.
struct ScratchGuard(PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Fails, as it should, while another run still uses the parent.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

impl<'w, A> Bench<'w, A>
where
    A: Application + Clone,
    A::Payload: WalPayload,
{
    pub fn new(
        w: &'w Workload,
        app: A,
        build: fn(&WorkloadSpec) -> Arc<StateStore>,
        spec: WorkloadSpec,
        input: Vec<A::Payload>,
        expected: Expected,
    ) -> Self {
        Bench {
            w,
            app,
            build,
            spec,
            input,
            expected,
            tally: Tally::default(),
            scratch: PathBuf::from(".tsbench-wal").join(std::process::id().to_string()),
            next_dir: 0,
        }
    }

    /// Run `f` with the scratch directory removed afterwards.
    pub fn with_scratch<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let _guard = ScratchGuard(self.scratch.clone());
        f(self)
    }

    fn engine(&self) -> Engine {
        let config = EngineConfig::with_executors(self.w.executors);
        Engine::new(if self.w.durable {
            config.fsync(FsyncPolicy::Always)
        } else {
            config
        })
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.next_dir += 1;
        self.scratch.join(self.next_dir.to_string())
    }

    fn open<'e, B>(
        &self,
        engine: &'e Engine,
        app: &Arc<B>,
        store: &Arc<StateStore>,
        dir: Option<&PathBuf>,
    ) -> Result<Session<'e, B>, String>
    where
        B: Application,
        B::Payload: WalPayload,
    {
        let builder = engine.session_builder(app, store, &Scheme::TStream);
        match dir {
            Some(dir) => builder.durable(dir).open(),
            None => builder.open(),
        }
        .map_err(|e| format!("open: {e}"))
    }

    /// Time `build_store`, `Engine::new` and `SessionBuilder::open`.
    pub fn setup_once(&mut self) -> Result<Setup, String> {
        let dir = self.w.durable.then(|| self.fresh_dir());
        let app = Arc::new(self.app.clone());
        let t0 = Instant::now();
        let store = (self.build)(&self.spec);
        let t1 = Instant::now();
        let engine = self.engine();
        let t2 = Instant::now();
        let session = self.open(&engine, &app, &store, dir.as_ref())?;
        let t3 = Instant::now();
        drop(session);
        drop(engine);
        if let Some(dir) = dir {
            let _ = fs::remove_dir_all(dir);
        }
        Ok(Setup {
            build: (t1 - t0).as_secs_f64(),
            engine: (t2 - t1).as_secs_f64(),
            open: (t3 - t2).as_secs_f64(),
        })
    }

    /// One closed-loop round of the real application over the whole input.
    pub fn capacity_round(&mut self) -> Option<Drive> {
        let payloads = self.input.clone();
        let app = Arc::new(self.app.clone());
        self.drive(app, payloads, None)
    }

    /// The input stamped with ordinals.
    pub fn stamped(&self) -> Vec<Stamped<A::Payload>> {
        self.input
            .iter()
            .enumerate()
            .map(|(i, p)| Stamped {
                ordinal: i as u64,
                inner: p.clone(),
            })
            .collect()
    }

    /// One phase through the wrapper: closed loop when `paced` is false,
    /// the open-loop schedule when it is true.
    pub fn probe_phase(&mut self, rec: &Arc<Recorder>, paced: bool) -> Option<Drive> {
        let payloads = self.stamped();
        let app = Arc::new(Probe::new(self.app.clone(), rec.clone()));
        self.drive(app, payloads, paced.then_some(&**rec))
    }

    /// Push `payloads` through a fresh session, gate the outcome, and
    /// count the phase; `None` when it failed.  With `pacing`, payload `i`
    /// is pushed no earlier than [`Workload::due_ns`] after the start.
    fn drive<B>(
        &mut self,
        app: Arc<B>,
        payloads: Vec<B::Payload>,
        pacing: Option<&Recorder>,
    ) -> Option<Drive>
    where
        B: Application,
        B::Payload: WalPayload,
    {
        let events = payloads.len() as u64;
        self.tally.attempted += events;
        match self.drive_inner(app, payloads, pacing) {
            Ok(drive) => {
                self.tally.app_rejected += drive.report.rejected;
                Some(drive)
            }
            Err(e) => {
                eprintln!("tsbench: {}: {e}", self.w.name);
                self.tally.failed += events;
                None
            }
        }
    }

    fn drive_inner<B>(
        &mut self,
        app: Arc<B>,
        payloads: Vec<B::Payload>,
        pacing: Option<&Recorder>,
    ) -> Result<Drive, String>
    where
        B: Application,
        B::Payload: WalPayload,
    {
        let dir = self.w.durable.then(|| self.fresh_dir());
        let store = (self.build)(&self.spec);
        let engine = self.engine();
        let mut session = self.open(&engine, &app, &store, dir.as_ref())?;
        let before = engine.metrics_snapshot();
        let threads_before = Sample::take();
        let generator_before = sys::this_thread();

        let mut pushes = Vec::new();
        let mut schedule_start_ns = 0;
        let start = Instant::now();
        match pacing {
            None => {
                for payload in payloads {
                    session.push(payload).map_err(|e| format!("push: {e}"))?;
                }
            }
            Some(rec) => {
                pushes.reserve(payloads.len());
                schedule_start_ns = rec.ns(start);
                for (i, payload) in payloads.into_iter().enumerate() {
                    let due = schedule_start_ns + self.w.due_ns(i);
                    let now = rec.ns(Instant::now());
                    if now < due {
                        // Sleep, not spin: the generator must leave the CPU
                        // to the engine while it is ahead of schedule.  This
                        // is pacing against the clock, not synchronisation.
                        #[allow(clippy::disallowed_methods)]
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    let at = Instant::now();
                    session.push(payload).map_err(|e| format!("push: {e}"))?;
                    pushes.push((rec.ns(at), at.elapsed().as_nanos() as u64));
                }
            }
        }
        let report = session.report().map_err(|e| format!("report: {e}"))?;
        let wall = start.elapsed();

        let generator = sys::this_thread().minus(generator_before);
        let threads_after = Sample::take();
        let after = engine.metrics_snapshot();
        let drive = Drive {
            wall,
            before,
            after,
            exec: threads_after.since(&threads_before, "tstream-exec-"),
            // The kernel truncates thread names to 15 bytes.
            writer: threads_after.since(&threads_before, "tstream-wal-wri"),
            generator,
            pushes,
            schedule_start_ns,
            report,
        };
        drop(engine);

        let root = gate::check(&self.expected, &drive.report, &store)?;
        self.tally.root_ms.push(root.as_secs_f64() * 1e3);
        if let Some(dir) = dir {
            let reopen = self.reopen(&app, &dir)?;
            self.tally
                .reopen_share
                .push(reopen.as_secs_f64() / wall.as_secs_f64());
            let _ = fs::remove_dir_all(&dir);
        }
        Ok(drive)
    }

    /// Reopen a finished durable directory with `.recover()` on a fresh
    /// store and engine, and gate the recovered state; returns how long
    /// the reopen (open + report) took.
    fn reopen<B>(&mut self, app: &Arc<B>, dir: &PathBuf) -> Result<Duration, String>
    where
        B: Application,
        B::Payload: WalPayload,
    {
        let store = (self.build)(&self.spec);
        let engine = self.engine();
        let start = Instant::now();
        let session = engine
            .session_builder(app, &store, &Scheme::TStream)
            .durable(dir)
            .recover()
            .open()
            .map_err(|e| format!("recover: {e}"))?;
        let report = session
            .report()
            .map_err(|e| format!("recover report: {e}"))?;
        let took = start.elapsed();
        gate::check(&self.expected, &report, &store).map_err(|e| format!("recovered {e}"))?;
        Ok(took)
    }
}
