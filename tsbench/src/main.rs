//! The repository's benchmark: capacity and fixed-rate latency of the
//! TStream engine on three workloads, measured from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path tsbench/Cargo.toml -- \
//!     --workload sl-1e --seed 1 --seconds 24 --trace 0
//! ```
//!
//! * `sl-1e` — Streaming Ledger, 1 executor, plain session: restructuring,
//!   chain evaluation and state access dominate; no barriers, no WAL.
//! * `sl-2e` — the same input on 2 executors: the only workload with
//!   barriers, task claiming and cross-core chains.
//! * `ob-durable` — Online Bidding, 1 executor, durable session with
//!   `FsyncPolicy::Always`: WAL append, group commit, seal, checkpoint and
//!   truncation, plus 20-key transactions and application rejects.
//!
//! With `--trace 0` a run prints the end-to-end metrics: capacity from
//! many complete closed-loop rounds, latency from open-loop phases at a
//! fixed offered rate, and the median set-up time.  With `--trace 1` it
//! prints the per-layer metrics of traced rounds and traced open-loop
//! phases.  Every phase is checked against a serial No-Lock run over the
//! same generated input; any mismatch makes the run exit 1.

mod bench;
mod gate;
mod layers;
mod probe;
mod stats;
mod sys;

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use tstream_apps::{ob, sl, WorkloadSpec};
use tstream_recovery::WalPayload;
use tstream_state::StateStore;
use tstream_txn::Application;

use bench::{Bench, Drive, Workload};
use probe::Recorder;
use stats::{median, quantile, Metrics};

/// Share of `--seconds` spent in closed-loop capacity rounds; the rest
/// goes to open-loop latency phases.  Rounds and phases alternate so both
/// sample the whole run.
const CLOSED_SHARE: f64 = 0.55;
/// Length of one open-loop phase.  It fixes the input size (offered rate ×
/// this), and every round and phase pushes that input in full.
const PHASE_SECS: f64 = 0.6;
/// Capacity is this quantile of the closed-loop rounds' rates.  Other
/// tenants of the host only ever slow a round, so the upper rounds are the
/// least disturbed; an upper quantile rather than the maximum keeps one
/// lucky round from setting the figure.
const CAPACITY_QUANTILE: f64 = 0.9;
/// Share of each open-loop phase's events excluded from latency as warm-up.
const WARMUP_SHARE: f64 = 0.1;

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sl-1e",
        executors: 1,
        durable: false,
        rate_eps: 120_000.0,
        nominal_keps: 360.0,
    },
    Workload {
        name: "sl-2e",
        executors: 2,
        durable: false,
        rate_eps: 60_000.0,
        nominal_keps: 200.0,
    },
    Workload {
        name: "ob-durable",
        executors: 1,
        durable: true,
        rate_eps: 35_000.0,
        nominal_keps: 150.0,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// How much one run does: input size, closed-loop rounds and open-loop
/// phases.  Fixed by the workload and `--seconds` alone, never by how fast
/// the host happens to be, so every run of a commit does the same work.
#[derive(Clone, Copy)]
struct Plan {
    events: usize,
    rounds: usize,
    phases: usize,
}

impl Plan {
    fn new(w: &Workload, seconds: f64) -> Plan {
        let events = (w.rate_eps * PHASE_SECS) as usize;
        let round_secs = events as f64 / (w.nominal_keps * 1e3);
        Plan {
            events,
            rounds: ((CLOSED_SHARE * seconds / round_secs).round() as usize).max(3),
            phases: (((1.0 - CLOSED_SHARE) * seconds / PHASE_SECS).round() as usize).max(1),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let plan = Plan::new(w, args.seconds);
    let spec = WorkloadSpec::default().events(plan.events).seed(args.seed);
    match w.name {
        "ob-durable" => run(
            &args,
            &plan,
            ob::OnlineBidding,
            ob::build_store,
            ob::generate(&spec),
            spec,
        ),
        _ => run(
            &args,
            &plan,
            sl::StreamingLedger,
            sl::build_store,
            sl::generate(&spec),
            spec,
        ),
    }
}

fn run<A>(
    args: &Args,
    plan: &Plan,
    app: A,
    build: fn(&WorkloadSpec) -> Arc<StateStore>,
    input: Vec<A::Payload>,
    spec: WorkloadSpec,
) -> ExitCode
where
    A: Application + Clone,
    A::Payload: WalPayload,
{
    let (expected, nolock_keps) = gate::oracle(app.clone(), &build(&spec), input.clone());
    let mut bench = Bench::new(args.workload, app, build, spec, input, expected);
    let mut metrics = Metrics::default();
    bench.with_scratch(|b| {
        if args.trace {
            traced(b, plan, nolock_keps, &mut metrics)
        } else {
            untraced(b, plan, &mut metrics)
        }
    });
    let tally = &bench.tally;
    eprintln!(
        "tsbench: {} seed {} events/phase {} | attempted {} failed {} app-rejected {} ({:.1}%)",
        args.workload.name,
        args.seed,
        bench.input.len(),
        tally.attempted,
        tally.failed,
        tally.app_rejected,
        100.0 * tally.app_rejected as f64 / tally.attempted.max(1) as f64,
    );
    let correct = tally.failed == 0;
    println!(
        "{}",
        metrics.result_line(correct, tally.attempted, tally.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn keps(events: usize, drive: &Drive) -> f64 {
    events as f64 / drive.wall.as_secs_f64() / 1e3
}

/// Set-up repetitions, one before every closed-loop round so that they
/// sample the whole run; reported as medians per part.
#[derive(Default)]
struct Setups([Vec<f64>; 4]);

impl Setups {
    fn rep<A>(&mut self, b: &mut Bench<'_, A>)
    where
        A: Application + Clone,
        A::Payload: WalPayload,
    {
        match b.setup_once() {
            Ok(s) => {
                let total = s.build + s.engine + s.open;
                for (part, v) in self.0.iter_mut().zip([s.build, s.engine, s.open, total]) {
                    part.push(v);
                }
            }
            Err(e) => {
                eprintln!("tsbench: set-up: {e}");
                b.tally.failed += 1;
            }
        }
    }

    /// Medians of (build, engine, open, total), in seconds.
    fn medians(&self) -> [f64; 4] {
        self.0.each_ref().map(|p| median(p))
    }
}

/// One open-loop phase; `None` after counting a failure.
fn open_loop<A>(b: &mut Bench<'_, A>, traced: bool) -> Option<(Arc<Recorder>, Drive)>
where
    A: Application + Clone,
    A::Payload: WalPayload,
{
    let rec = Recorder::new(b.input.len(), traced);
    let drive = b.probe_phase(&rec, true)?;
    if rec.post_at.iter().any(|at| at.load(Ordering::Relaxed) == 0) {
        eprintln!("tsbench: {}: an event was never post-processed", b.w.name);
        b.tally.failed += b.input.len() as u64;
        return None;
    }
    Some((rec, drive))
}

/// `plan.rounds` closed-loop rounds and `plan.phases` open-loop phases,
/// alternating; `round(b)` runs one round, `phase(b)` one phase.
fn alternate<A, R, P>(
    b: &mut Bench<'_, A>,
    plan: &Plan,
    mut round: impl FnMut(&mut Bench<'_, A>) -> R,
    mut phase: impl FnMut(&mut Bench<'_, A>) -> P,
) -> (Vec<R>, Vec<P>)
where
    A: Application + Clone,
    A::Payload: WalPayload,
{
    let (mut rounds, mut phases) = (vec![], vec![]);
    for p in 0..plan.phases {
        while rounds.len() < plan.rounds * (p + 1) / plan.phases {
            rounds.push(round(b));
        }
        phases.push(phase(b));
    }
    (rounds, phases)
}

fn untraced<A>(b: &mut Bench<'_, A>, plan: &Plan, m: &mut Metrics)
where
    A: Application + Clone,
    A::Payload: WalPayload,
{
    let n = b.input.len();
    let mut setups = Setups::default();
    let _warm_up = b.setup_once();
    let (rounds, phases) = alternate(
        b,
        plan,
        |b| {
            setups.rep(b);
            b.capacity_round().map(|d| keps(n, &d))
        },
        |b| {
            open_loop(b, false).map(|(rec, d)| {
                let lat = layers::latencies(b.w, &rec, &d);
                [
                    quantile(&lat, 0.5),
                    quantile(&lat, 0.9),
                    quantile(&lat, 0.99),
                ]
            })
        },
    );
    let rounds: Vec<f64> = rounds.into_iter().flatten().collect();
    let phases: Vec<[f64; 3]> = phases.into_iter().flatten().collect();
    let per_phase = |q: usize| median(&phases.iter().map(|p| p[q]).collect::<Vec<_>>());
    eprintln!(
        "tsbench: {} rounds {:.1?} keps; open-loop p50/p90/p99 ms {:.3?}",
        b.w.name, rounds, phases
    );
    m.put(
        "throughput_keps",
        quantile(&rounds, CAPACITY_QUANTILE),
        "keps",
    );
    m.put("latency_p50_ms", per_phase(0), "ms");
    m.put("latency_p90_ms", per_phase(1), "ms");
    m.put("setup_s", setups.medians()[3], "s");
}

fn traced<A>(b: &mut Bench<'_, A>, plan: &Plan, nolock_keps: f64, m: &mut Metrics)
where
    A: Application + Clone,
    A::Payload: WalPayload,
{
    let n = b.input.len();
    let mut setups = Setups::default();
    let _warm_up = b.setup_once();
    let plan = &Plan {
        rounds: plan.rounds.div_ceil(2),
        ..*plan
    };
    // Untraced and traced rounds alternate; their capacities give the
    // tracing overhead, and the fastest traced round gives the layer numbers.
    let (mut untraced_keps, mut traced_keps) = (vec![], vec![]);
    let mut fastest: Option<(f64, Arc<Recorder>, Drive)> = None;
    let mut spans = layers::OpenSpans::default();
    alternate(
        b,
        plan,
        |b| {
            setups.rep(b);
            if let Some(d) = b.capacity_round() {
                untraced_keps.push(keps(n, &d));
            }
            let rec = Recorder::new(n, true);
            if let Some(d) = b.probe_phase(&rec, false) {
                let rate = keps(n, &d);
                traced_keps.push(rate);
                if fastest.as_ref().is_none_or(|(r, ..)| rate > *r) {
                    fastest = Some((rate, rec, d));
                }
            }
        },
        |b| {
            if let Some((rec, d)) = open_loop(b, true) {
                spans.absorb(b.w, &rec, &d);
            }
        },
    );
    if let Some((_, rec, d)) = &fastest {
        layers::closed(b.w, rec, d, m);
    }
    m.put(
        "trace.overhead",
        quantile(&traced_keps, CAPACITY_QUANTILE) / quantile(&untraced_keps, CAPACITY_QUANTILE),
        "ratio",
    );
    spans.finish(m);
    let [build_s, engine_s, open_s, _] = setups.medians();
    m.put(
        "recovery.reopen_share",
        median(&b.tally.reopen_share),
        "ratio",
    );
    m.put("state.build_ms", build_s * 1e3, "ms");
    m.put("engine.new_ms", engine_s * 1e3, "ms");
    m.put("session.open_ms", open_s * 1e3, "ms");
    m.put("state.root_ms", median(&b.tally.root_ms), "ms");
    m.put("baseline.nolock_keps", nolock_keps, "keps");
}
