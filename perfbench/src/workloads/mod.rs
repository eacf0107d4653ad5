//! The three workloads and the run sequence they share: for an untraced run,
//! several set-ups in turn, each warmed up and measured; for a traced run,
//! one set-up, the interleaved traced/untraced slices, the power cut and
//! the check after reopening.

pub mod churn;
pub mod read_cold;
pub mod serve_hot;

use crate::client::{run_phase, Client, Tally};
use crate::device::IoSnapshot;
use crate::engine::{Engine, Layout};
use crate::metrics::{
    end_to_end, per_layer, sample_counts, window_rates, windowed_rate, LayerInputs,
};
use crate::model::{key_name, Blob};
use crate::stats::{median, rss_mb, Host};
use crate::trace::{self, Summary};
use crate::{Options, Report};
use lobster_metrics::Snapshot;
use lobster_types::{Error, Result};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Worker id of the first client; worker 0 is left to the defragmenter,
/// which begins its relocation transactions on it.
pub const FIRST_WORKER: usize = 1;

/// Clients per workload: one per core of a 2-core host.
pub const CLIENTS: usize = 2;

/// Traced runs alternate this many untraced and traced slices, so that
/// drift over the run does not show up as tracing overhead.
const TRACE_SLICES: usize = 4;

/// How many times an untraced run sets the workload up, one engine at a
/// time, each measured for an equal share of the run; `setup_s` is the
/// median. A traced run sets it up once.
const SETUP_REPS: usize = 5;

/// A directory of engine files, removed when dropped.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn new(opts: &Options, rep: usize) -> Result<RunDir> {
        let p = opts.out_dir.join(format!(
            "{}-{}-{rep}",
            opts.workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p)?;
        Ok(RunDir(p))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Expected content of the keys a client is responsible for: every key
/// with the states it may legally hold (more than one after a write whose
/// outcome is unknown).
pub trait Expect {
    fn expected(&self) -> Vec<(u64, Vec<Option<Blob>>)>;
}

/// Whether bytes read back (`None` = key absent) are one of the states a
/// key may hold.
pub fn any_matches(states: &[Option<Blob>], got: Option<&[u8]>) -> bool {
    states.iter().any(|s| match (s, got) {
        (None, None) => true,
        (Some(b), Some(g)) => b.len() == g.len() && b.bytes() == g,
        _ => false,
    })
}

/// The in-process replay of served requests (serve-hot only).
pub struct Replay {
    /// Spans of the in-process `core` calls.
    pub core: Summary,
    /// Served GET p50 minus in-process `core.get_blob` p50, same keys.
    pub serve_overhead_us: f64,
    pub tallies: Vec<Tally>,
}

/// What a power cut left behind: the engine files and the dead engine.
pub struct Crashed {
    pub dir: RunDir,
    pub engine: Engine,
    pub layout: Layout,
}

/// One set-up of a workload: the engine and its clients.
pub trait Workload: Sized {
    type Client: Client + Expect;

    /// Build the engine, load the data and start the clients' targets.
    fn setup(opts: &Options, rep: usize) -> Result<Self>;
    fn engine(&self) -> &Engine;
    /// The engine and the clients, borrowed together.
    fn split(&mut self) -> (&Engine, &mut [Self::Client]);
    /// Engine (and server) configuration for the report.
    fn config(&self) -> String;
    /// Sizes and mix for the report.
    fn sizes(&self) -> String;
    /// Bytes of user data the engine should hold now.
    fn live_bytes(&self) -> u64;
    /// Clean shutdown.
    fn teardown(self) -> Result<()>;
    /// Stop everything but the engine after a power cut.
    fn into_crashed(self) -> Crashed;

    /// Cut power while the clients run (`true`), or after they stopped and
    /// `wait_for_durability` returned (`false`, for asynchronous commit).
    fn cut_while_running() -> bool;

    /// Called after the traced slices of a traced run.
    fn replay(&mut self, _traced: &[Tally], _stop: &AtomicBool) -> Result<Option<Replay>> {
        Ok(None)
    }
}

/// Engine state sampled at a phase boundary.
struct Sample {
    counters: Snapshot,
    data: IoSnapshot,
    wal: IoSnapshot,
}

impl Sample {
    fn take(engine: &Engine) -> Sample {
        let (data, wal) = engine.io();
        Sample {
            counters: engine.sdb.metrics().snapshot(),
            data,
            wal,
        }
    }
}

/// Sum of `attempted`, `failed` and `mismatches` over tallies.
fn totals(tallies: &[Tally]) -> (u64, u64, u64) {
    tallies.iter().fold((0, 0, 0), |(a, f, m), t| {
        (a + t.attempted, f + t.failed, m + t.mismatches)
    })
}

fn merge_into(acc: &mut Vec<Tally>, slice: Vec<Tally>) {
    if acc.is_empty() {
        *acc = slice;
    } else {
        for (a, s) in acc.iter_mut().zip(slice.iter()) {
            a.merge(s);
        }
    }
}

fn merged(tallies: &[Tally]) -> Tally {
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    all
}

fn phase<W: Workload>(w: &mut W, d: Duration, stop: &AtomicBool) -> Vec<Tally> {
    run_phase(w.split().1, d, stop, || {})
}

/// Read every expected key from `engine` and compare it with the states it
/// may hold. Returns how many keys are wrong or lost.
fn verify_all(engine: &Engine, expected: &[(u64, Vec<Option<Blob>>)]) -> Result<u64> {
    let mut bad = 0;
    for (id, states) in expected {
        let mut txn = engine.sdb.begin_with_worker(FIRST_WORKER);
        let got = match txn.get_blob(&engine.rel, &key_name(*id), |b| b.to_vec()) {
            Ok(v) => Some(v),
            Err(Error::KeyNotFound) => None,
            Err(e) => return Err(e),
        };
        txn.commit()?;
        if !any_matches(states, got.as_deref()) {
            bad += 1;
        }
    }
    Ok(bad)
}

/// Untraced run: set the workload up [`SETUP_REPS`] times, one engine at a
/// time, and measure each set-up for an equal share of `seconds`. Pooling
/// the set-ups' windows and samples evens out how one engine instance
/// happens to be scheduled on a small shared host.
fn untraced<W: Workload>(opts: &Options, stop: &AtomicBool) -> Result<Report> {
    let share = Duration::from_secs_f64(opts.seconds / SETUP_REPS as f64);
    let mut times = Vec::new();
    let mut amps = Vec::new();
    let mut rss = Vec::new();
    let mut tallies = Vec::new();
    let mut mismatches = 0;
    let mut report = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let mut w = W::setup(opts, rep)?;
        times.push(t.elapsed().as_secs_f64());
        mismatches += totals(&warm_up(&mut w, opts, stop)).2;
        merge_into(&mut tallies, phase(&mut w, share, stop));
        amps.push(space_amp(&w));
        rss.push(rss_mb());
        report.get_or_insert_with(|| new_report(opts, &w));
        w.teardown()?;
    }
    let mut report = report.expect("at least one set-up");
    report.end_to_end = end_to_end(median(&times), &tallies, median(&amps), median(&rss));
    let (attempted, failed, bad) = totals(&tallies);
    report.attempted = attempted;
    report.failed = failed;
    report.correct = mismatches + bad == 0;
    report
        .notes
        .push(format!("samples: {}", sample_counts(&tallies)));
    report.notes.push(format!(
        "ops_per_s by {} ms window ({SETUP_REPS} set-ups in turn): {}",
        crate::client::WINDOW.as_millis(),
        window_rates(&tallies, |w| w.ops as f64)
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(report)
}

/// Run the clients for `min(1 s, seconds / 5)` before measuring.
fn warm_up<W: Workload>(w: &mut W, opts: &Options, stop: &AtomicBool) -> Vec<Tally> {
    phase(
        w,
        Duration::from_secs_f64((opts.seconds / 5.0).min(1.0)),
        stop,
    )
}

/// Device bytes held by extents ÷ live user bytes, now.
fn space_amp<W: Workload>(w: &W) -> f64 {
    w.engine().allocated_bytes() as f64 / w.live_bytes() as f64
}

/// A report with the run's identity and configuration and no results yet.
fn new_report<W: Workload>(opts: &Options, w: &W) -> Report {
    Report {
        workload: opts.workload.name(),
        seed: opts.seed,
        traced: opts.trace,
        host: Host::detect(),
        config: w.config(),
        sizes: w.sizes(),
        correct: true,
        lost_after_crash: None,
        attempted: 0,
        failed: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        notes: Vec::new(),
    }
}

/// Run one workload once, as `opts` says.
pub fn run<W: Workload>(opts: &Options) -> Result<Report> {
    let stop = AtomicBool::new(false);
    if !opts.trace {
        return untraced::<W>(opts, &stop);
    }
    let t = Instant::now();
    let mut w = W::setup(opts, 0)?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut mismatches = totals(&warm_up(&mut w, opts, &stop)).2;
    let mut report = new_report(opts, &w);

    // Traced run: alternate untraced and traced slices over `seconds`.
    let slice = Duration::from_secs_f64(opts.seconds / (2 * TRACE_SLICES) as f64);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut spans = Vec::new();
    let before = Sample::take(w.engine());
    for _ in 0..TRACE_SLICES {
        merge_into(&mut untraced, phase(&mut w, slice, &stop));
        trace::enable();
        merge_into(&mut traced, phase(&mut w, slice, &stop));
        spans.extend(trace::disable());
    }
    let after = Sample::take(w.engine());
    let extent = w.engine().extent_gauges();
    report.end_to_end = end_to_end(setup_s, &untraced, space_amp(&w), rss_mb());
    let replay = w.replay(&traced, &stop)?;

    // Durability check: cut power, reopen, read back every acknowledged key.
    w.engine().arm_power_model()?;
    let pause = Duration::from_secs_f64((opts.seconds / 10.0).clamp(0.2, 1.0));
    let (crash, dropped) = if W::cut_while_running() {
        let (engine, clients) = w.split();
        let mut cut = Ok(0);
        let crash = run_phase(clients, Duration::from_secs(60), &stop, || {
            std::thread::sleep(pause);
            cut = engine.power_cut();
            stop.store(true, Ordering::SeqCst);
        });
        (crash, cut?)
    } else {
        let crash = phase(&mut w, pause, &stop);
        w.engine().sdb.wait_for_durability()?;
        (crash, w.engine().power_cut()?)
    };
    let expected: Vec<_> = w.split().1.iter().flat_map(|c| c.expected()).collect();
    let crashed = w.into_crashed();
    crashed.engine.abandon();
    let (reopened, took) = Engine::reopen(crashed.dir.path(), &crashed.layout)?;
    let lost = verify_all(&reopened, &expected)?;
    reopened.close()?;
    drop(crashed.dir);
    let recovery_s = took.as_secs_f64();

    // Per-layer metrics over the traced run's window.
    let summary = trace::summarize(&spans);
    let path = opts
        .out_dir
        .join(format!("trace-{}.tsv", opts.workload.name()));
    trace::write_tsv(&spans, &path)?;
    let window = merged(&[merged(&untraced), merged(&traced)]);
    let rate = |v: &[Tally]| windowed_rate(v, |w| w.ops as f64);
    let (rate_u, rate_t) = (rate(&untraced), rate(&traced));
    let overhead = if rate_u > 0.0 {
        1.0 - rate_t / rate_u
    } else {
        0.0
    };
    let delta = after.counters - before.counters;
    report.per_layer = per_layer(&LayerInputs {
        window: &window,
        traced_ops: merged(&traced).attempted,
        delta: &delta,
        end: &after.counters,
        data_io: after.data.since(&before.data),
        wal_io: after.wal.since(&before.wal),
        spans: &summary,
        core_spans: replay.as_ref().map_or(&summary, |r| &r.core),
        extent,
        serve_overhead_us: replay.as_ref().map_or(0.0, |r| r.serve_overhead_us),
        recovery_s,
        lost_keys: lost,
        trace_overhead_frac: overhead,
    });

    report.notes.push(format!(
        "trace: {} spans in {}; tracing overhead {:.1} % of ops_per_s \
         (untraced slices {:.1}/s, traced slices {:.1}/s)",
        spans.len(),
        path.display(),
        overhead * 100.0,
        rate_u,
        rate_t
    ));
    for (layer, lt) in &summary.layers {
        report.notes.push(format!(
            "self time {:<8} {:>12.1} us over {} request spans; \
             {} engine-thread spans took {:.1} us",
            layer.name(),
            lt.self_ns as f64 / 1e3,
            lt.spans,
            lt.unparented_spans,
            lt.unparented_ns as f64 / 1e3
        ));
    }
    let shown = |ms: Vec<crate::Metric>| {
        ms.iter()
            .filter(|m| m.value != 0.0)
            .map(|m| format!("{}={:.3}{}", m.name, m.value, m.unit))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.notes.push(format!(
        "traced slices end-to-end: {}",
        shown(end_to_end(0.0, &traced, 0.0, 0.0))
    ));
    report
        .notes
        .push(format!("untraced samples: {}", sample_counts(&untraced)));
    report
        .notes
        .push(format!("traced samples: {}", sample_counts(&traced)));
    if let Some(r) = &replay {
        report.notes.push(format!(
            "in-process replay of the traced requests: {}",
            sample_counts(&r.tallies)
        ));
        mismatches += totals(&r.tallies).2;
    }
    report.notes.push(format!(
        "durability: power cut dropped {dropped} unsynced device writes; reopen took \
         {recovery_s:.3} s; {} acknowledged keys checked, {lost} wrong or lost",
        expected.len()
    ));
    report.lost_after_crash = Some(lost);
    let (attempted, failed, bad) = totals(&traced);
    report.attempted = attempted;
    report.failed = failed;
    report.correct = mismatches + bad + totals(&untraced).2 + totals(&crash).2 == 0;
    Ok(report)
}
