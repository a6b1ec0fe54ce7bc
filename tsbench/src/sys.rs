//! Per-thread CPU time read from `/proc/self/task/*/{comm,schedstat}`.
//!
//! `schedstat` holds three numbers: nanoseconds on CPU, nanoseconds waiting
//! on a run queue, and the number of time slices.  Sampling every thread
//! before and after a phase and diffing by thread id attributes CPU to the
//! engine's named threads without touching the engine.

use std::collections::HashMap;
use std::fs;

/// CPU and run-queue wait of one thread, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadTime {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

impl ThreadTime {
    fn parse(schedstat: &str) -> Option<Self> {
        let mut fields = schedstat.split_whitespace().map(str::parse::<u64>);
        Some(ThreadTime {
            cpu_ns: fields.next()?.ok()?,
            wait_ns: fields.next()?.ok()?,
        })
    }

    pub fn minus(self, earlier: ThreadTime) -> ThreadTime {
        ThreadTime {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// One sample of every live thread of this process: tid → (name, time).
#[derive(Debug, Default)]
pub struct Sample(HashMap<u64, (String, ThreadTime)>);

impl Sample {
    pub fn take() -> Sample {
        let mut threads = HashMap::new();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return Sample(threads);
        };
        for task in tasks.flatten() {
            let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let path = task.path();
            let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
            let stat = fs::read_to_string(path.join("schedstat")).unwrap_or_default();
            if let Some(time) = ThreadTime::parse(&stat) {
                threads.insert(tid, (comm.trim().to_owned(), time));
            }
        }
        Sample(threads)
    }

    /// Summed time, since `earlier`, of the threads whose name starts with
    /// `prefix`; a thread born after `earlier` counts from zero.
    pub fn since(&self, earlier: &Sample, prefix: &str) -> ThreadTime {
        let mut total = ThreadTime::default();
        for (tid, (name, now)) in &self.0 {
            if !name.starts_with(prefix) {
                continue;
            }
            let before = earlier.0.get(tid).map(|(_, t)| *t).unwrap_or_default();
            let d = now.minus(before);
            total.cpu_ns += d.cpu_ns;
            total.wait_ns += d.wait_ns;
        }
        total
    }
}

/// The calling thread's own CPU and run-queue wait.
pub fn this_thread() -> ThreadTime {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| ThreadTime::parse(&s))
        .unwrap_or_default()
}
