//! Per-layer metrics of a traced run, derived from what the benchmark saw
//! from outside: the wrapper's per-event records, the generator's push
//! timings, per-thread CPU and the engine's metrics snapshot.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use tstream_core::MetricsSnapshot;

use crate::bench::{Drive, Workload, PUNCTUATION};
use crate::probe::Recorder;
use crate::stats::{mean, median, quantile, Metrics};
use crate::WARMUP_SHARE;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn at(v: &[AtomicU64], i: usize) -> u64 {
    v[i].load(Ordering::Relaxed)
}

/// First ordinal past the warm-up of a phase of `n` events.
fn warm(n: usize) -> usize {
    (n as f64 * WARMUP_SHARE) as usize
}

/// Latency in ms, from due time to `post_process`, of every event of an
/// open-loop phase after the warm-up.
pub fn latencies(w: &Workload, rec: &Recorder, d: &Drive) -> Vec<f64> {
    let n = rec.post_at.len();
    (warm(n)..n)
        .map(|i| ms(at(&rec.post_at, i).saturating_sub(d.schedule_start_ns + w.due_ns(i))))
        .collect()
}

/// Layer metrics of a saturated (closed-loop) traced round.
pub fn closed(w: &Workload, rec: &Recorder, d: &Drive, m: &mut Metrics) {
    let n = rec.post_at.len();
    let batches = n.div_ceil(PUNCTUATION as usize) as f64;
    let wall_ns = d.wall.as_nanos() as f64;
    let per_event = |ns: u64| ns as f64 / n as f64;
    let hook = |v: &[AtomicU32]| {
        mean(
            &v.iter()
                .map(|x| x.load(Ordering::Relaxed) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let diff = |f: fn(&MetricsSnapshot) -> u64| f(&d.after) - f(&d.before);
    let gen = d.generator;
    // Off CPU and not waiting to run: blocked inside `push`.
    m.put(
        "session.blocked_share",
        (1.0 - (gen.cpu_ns + gen.wait_ns) as f64 / wall_ns).max(0.0),
        "ratio",
    );
    m.put("session.cpu_ns_per_event", per_event(gen.cpu_ns), "ns");
    m.put("apps.rw_set_ns", hook(&rec.rw_ns), "ns");
    m.put("apps.txn_build_ns", hook(&rec.txn_ns), "ns");
    m.put("apps.post_ns", hook(&rec.post_ns), "ns");
    m.put("exec.cpu_ns_per_event", per_event(d.exec.cpu_ns), "ns");
    m.put(
        "exec.util",
        d.exec.cpu_ns as f64 / (wall_ns * w.executors as f64),
        "ratio",
    );
    m.put(
        "exec.chains_per_batch",
        diff(|s| s.exec_chains_built) as f64 / batches,
        "count",
    );
    m.put(
        "exec.restructured_batches",
        diff(|s| s.exec_restructured_batches) as f64,
        "count",
    );
    m.put(
        "exec.fast_path_batches",
        diff(|s| s.exec_fast_path_batches) as f64,
        "count",
    );
    m.put(
        "exec.rejected_share",
        d.report.rejected as f64 / n as f64,
        "ratio",
    );
    m.put(
        "exec.serial_replays",
        diff(|s| s.exec_serial_replays) as f64,
        "count",
    );
    m.put(
        "runtime.barrier_waits_per_batch",
        diff(|s| s.exec_barrier_waits) as f64 / batches,
        "count",
    );
    // Time-valued costs of layers a workload may bypass are reported as
    // shares of the round's wall time, so a bypassed layer reads as a
    // ratio of 0 rather than as a time that never changes.
    m.put(
        "runtime.barrier_wait_share",
        diff(|s| s.exec_barrier_wait.sum) as f64 / (wall_ns * w.executors as f64),
        "ratio",
    );
    // Each round has a fresh engine, so the histogram holds this round only.
    m.put(
        "runtime.barrier_wait_p99_share",
        d.after.exec_barrier_wait.p99 as f64 / (wall_ns / batches),
        "ratio",
    );
    m.put(
        "recovery.wal_bytes_per_event",
        per_event(diff(|s| s.wal_bytes)),
        "B",
    );
    m.put(
        "recovery.fsyncs_per_batch",
        diff(|s| s.wal_fsyncs) as f64 / batches,
        "count",
    );
    m.put(
        "recovery.fsync_share",
        diff(|s| s.wal_fsync_ns) as f64 / wall_ns,
        "ratio",
    );
    m.put(
        "recovery.checkpoints",
        diff(|s| s.wal_checkpoints) as f64,
        "count",
    );
    m.put(
        "recovery.writer_cpu_share",
        d.writer.cpu_ns as f64 / wall_ns,
        "ratio",
    );
}

/// Push costs, per-batch spans, generator lateness and latency, pooled
/// over the traced open-loop phases.
///
/// Batch `k` holds ordinals `[500k, 500k + 500)`.  Its spans tile the path
/// from its first push to its last emission: fill (first push to closing
/// push), close (the closing push), queue (to the first `state_access`),
/// compute (first to last `state_access`), state access (to the first
/// `post_process`) and post (first to last `post_process`).
#[derive(Default)]
pub struct OpenSpans {
    push_us: Vec<f64>,
    close_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// fill, queue, compute, state access, post — per batch, in ms.
    spans: [Vec<f64>; 5],
    /// Per batch: the latency its spans predict for an average event.
    model_ms: Vec<f64>,
    latency_ms: Vec<f64>,
}

impl OpenSpans {
    pub fn absorb(&mut self, w: &Workload, rec: &Recorder, d: &Drive) {
        let punct = PUNCTUATION as usize;
        for (i, &(start, took)) in d.pushes.iter().enumerate() {
            let due = d.schedule_start_ns + w.due_ns(i);
            self.late_ms.push(ms(start.saturating_sub(due)));
            if i % punct == punct - 1 {
                self.close_ms.push(ms(took));
            } else {
                let rw = u64::from(rec.rw_ns[i].load(Ordering::Relaxed));
                self.push_us.push(took.saturating_sub(rw) as f64 / 1e3);
            }
        }
        let n = d.pushes.len();
        for first in (warm(n).next_multiple_of(punct)..n).step_by(punct) {
            let last = first + punct - 1;
            if last >= n {
                break;
            }
            let range = first..=last;
            let bounds = |v: &[AtomicU64]| {
                range
                    .clone()
                    .map(|i| at(v, i))
                    .fold((u64::MAX, 0), |(lo, hi), t| (lo.min(t), hi.max(t)))
            };
            let (access_first, access_last) = bounds(&rec.access_at);
            let (post_first, post_last) = bounds(&rec.post_at);
            let (close_start, close_took) = d.pushes[last];
            let closed = close_start + close_took;
            let spans = [
                ms(close_start.saturating_sub(d.pushes[first].0)),
                ms(access_first.saturating_sub(closed)),
                ms(access_last.saturating_sub(access_first)),
                ms(post_first.saturating_sub(access_last)),
                ms(post_last.saturating_sub(post_first)),
            ];
            // Arrivals spread evenly over the fill and emissions over the
            // post span, so an average event waits half of each, plus the
            // other spans whole.
            self.model_ms.push(
                spans[0] / 2.0 + ms(close_took) + spans[1] + spans[2] + spans[3] + spans[4] / 2.0,
            );
            for (all, s) in self.spans.iter_mut().zip(spans) {
                all.push(s);
            }
        }
        self.latency_ms.extend(latencies(w, rec, d));
    }

    pub fn finish(&self, m: &mut Metrics) {
        let [fill, queue, compute, access, post] = &self.spans;
        m.put("session.push_us", median(&self.push_us), "us");
        m.put("session.close_ms", median(&self.close_ms), "ms");
        m.put("batch.fill_ms", median(fill), "ms");
        m.put("batch.queue_ms", median(queue), "ms");
        m.put("batch.compute_ms", median(compute), "ms");
        m.put("batch.state_access_ms", median(access), "ms");
        m.put("batch.post_ms", median(post), "ms");
        m.put(
            "batch.reconcile",
            mean(&self.model_ms) / mean(&self.latency_ms),
            "ratio",
        );
        m.put("gen.late_p99_ms", quantile(&self.late_ms, 0.99), "ms");
        m.put(
            "gen.late_max_ms",
            self.late_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        m.put("latency.p50_ms", quantile(&self.latency_ms, 0.5), "ms");
        m.put("latency.p99_ms", quantile(&self.latency_ms, 0.99), "ms");
        m.put("latency.samples", self.latency_ms.len() as f64, "count");
    }
}
