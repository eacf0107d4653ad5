//! Closed-loop clients: each sends its next request only after the previous
//! one completes. A latency covers the timed operation only, not the work
//! around it (making payloads, checking returned bytes); throughput counts
//! completions per wall-clock window, so that work lowers it.

use crate::stats::Latencies;
use lobster_types::{Error, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Client-visible operation types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Upsert: delete the old blob (if any) and put the new one, one txn.
    Put,
    /// Whole-blob read.
    Get,
    /// One `get_blob_range` window.
    Range,
    /// Eight consecutive range windows in one txn ("seek and play").
    Seek,
    Append,
    /// Delete in its own txn (then re-put as a separate [`Op::Put`]).
    Delete,
}

impl Op {
    pub const ALL: [Op; 6] = [
        Op::Put,
        Op::Get,
        Op::Range,
        Op::Seek,
        Op::Append,
        Op::Delete,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
            Op::Range => "range",
            Op::Seek => "seek",
            Op::Append => "append",
            Op::Delete => "delete",
        }
    }
}

/// What one client did in one phase.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    lat: [Latencies; 6],
    /// Client operations attempted (a delete and its re-put count as one).
    pub attempted: u64,
    /// Operations that failed or were refused (BUSY), or returned wrong bytes.
    pub failed: u64,
    /// Operations whose returned bytes did not match the expected content.
    pub mismatches: u64,
    /// Transactions re-run after losing a lock conflict.
    pub conflict_retries: u64,
    /// Served requests answered BUSY.
    pub busy: u64,
    /// Payload bytes delivered to the client.
    pub read_bytes: u64,
    /// Payload bytes the client wrote (puts and appends).
    pub written_bytes: u64,
    /// Write transactions committed.
    pub write_commits: u64,
    /// Blobs put (upserts and re-puts).
    pub puts: u64,
    /// Per [`WINDOW`] of wall-clock time that lay wholly inside the phase:
    /// operations completed and bytes delivered in it. Every client of a
    /// phase has the same number of windows, so window `i` of each client
    /// covers the same stretch of time.
    pub windows: Vec<Window>,
}

/// Length of the windows a phase's throughput is split into.
pub const WINDOW: Duration = Duration::from_millis(500);

/// What one client completed in one window of a phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    pub ops: u64,
    pub read_bytes: u64,
}

impl Tally {
    pub fn record(&mut self, op: Op, took: Duration) {
        self.lat[op as usize].push(took);
    }

    pub fn lat(&self, op: Op) -> &Latencies {
        &self.lat[op as usize]
    }

    pub fn merge(&mut self, o: &Tally) {
        for (a, b) in self.lat.iter_mut().zip(o.lat.iter()) {
            a.extend(b);
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.conflict_retries += o.conflict_retries;
        self.busy += o.busy;
        self.read_bytes += o.read_bytes;
        self.written_bytes += o.written_bytes;
        self.write_commits += o.write_commits;
        self.puts += o.puts;
        self.windows.extend_from_slice(&o.windows);
    }

    /// Attribute what happened since `before` to window `w`.
    fn account(&mut self, w: usize, before: (u64, u64)) {
        if self.windows.len() <= w {
            self.windows.resize(w + 1, Window::default());
        }
        let x = &mut self.windows[w];
        x.ops += self.attempted - before.0;
        x.read_bytes += self.read_bytes - before.1;
    }
}

/// One closed-loop client.
pub trait Client: Send {
    /// Run one operation and record it in `t`. Return `false` to stop early.
    fn step(&mut self, t: &mut Tally) -> bool;
}

/// Run every client on its own thread until `duration` has passed or `stop`
/// is set; returns each client's tally. `during` runs on the calling thread
/// while the clients run (e.g. to cut power mid-phase). An operation counts
/// in the window in which it completed; the windows kept are those that
/// ended before the phase did, so each holds every client's completions.
pub fn run_phase<C: Client>(
    clients: &mut [C],
    duration: Duration,
    stop: &AtomicBool,
    during: impl FnOnce(),
) -> Vec<Tally> {
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut t = Tally::default();
                    while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
                        let before = (t.attempted, t.read_bytes);
                        let more = c.step(&mut t);
                        let w = (start.elapsed().as_nanos() / WINDOW.as_nanos()) as usize;
                        t.account(w, before);
                        if !more {
                            break;
                        }
                    }
                    t
                })
            })
            .collect();
        during();
        let mut tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let full = (start.elapsed().min(duration).as_nanos() / WINDOW.as_nanos()) as usize;
        for t in &mut tallies {
            t.windows.resize(full, Window::default());
        }
        tallies
    })
}

/// Run a transaction body, re-running it while it loses lock conflicts
/// (wait-die), with a growing pause between runs, for up to 10 s. Each re-run
/// counts in `t.conflict_retries`.
pub fn retry<T>(t: &mut Tally, mut body: impl FnMut() -> Result<T>) -> Result<T> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut pause = Duration::from_micros(20);
    loop {
        match body() {
            Err(Error::TxnConflict) if Instant::now() < deadline => {
                t.conflict_retries += 1;
                std::thread::sleep(pause);
                pause = (pause * 2).min(Duration::from_millis(5));
            }
            r => return r,
        }
    }
}

/// Time `f`, the part of an operation its latency covers.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}
