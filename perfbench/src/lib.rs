//! End-to-end and per-layer benchmark of the LOBSTER engine.
//!
//! Three workloads drive the real engine (`ShardedDatabase` in process, and
//! `lobster_serve::Server` over loopback TCP) on file-backed devices with
//! real `fdatasync`. An untraced run reports the end-to-end metrics; a
//! traced run reports per-layer metrics and runs the durability check. See
//! README.md in this directory for the workloads and the metric map.

pub mod client;
pub mod device;
pub mod engine;
pub mod metrics;
pub mod model;
pub mod stats;
pub mod trace;
pub mod workloads;

use lobster_storage::FaultConfig;
use std::path::PathBuf;

pub use metrics::{Metric, Report};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ChurnDurable,
    ReadCold,
    ServeHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ChurnDurable,
        Workload::ReadCold,
        Workload::ServeHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnDurable => "churn-durable",
            Workload::ReadCold => "read-cold",
            Workload::ServeHot => "serve-hot",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Data-set size: `Full` for measurements, `Tiny` for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase (the traced run splits it between an
    /// untraced and a traced half).
    pub seconds: f64,
    /// Traced run: per-layer metrics, tracing overhead, durability check.
    pub trace: bool,
    pub scale: Scale,
    /// Directory for engine files (removed afterwards) and the span dump.
    pub out_dir: PathBuf,
    /// Wrap every data device in a `FaultDevice` with this schedule, armed
    /// once set-up is done (used by the output-check test).
    pub data_fault: Option<FaultConfig>,
}

impl Options {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            out_dir: PathBuf::from(".bench_out"),
            data_fault: None,
        }
    }
}

/// Run one workload once.
pub fn run(opts: &Options) -> lobster_types::Result<Report> {
    std::fs::create_dir_all(&opts.out_dir)?;
    match opts.workload {
        Workload::ChurnDurable => workloads::run::<workloads::churn::Churn>(opts),
        Workload::ReadCold => workloads::run::<workloads::read_cold::ReadCold>(opts),
        Workload::ServeHot => workloads::run::<workloads::serve_hot::ServeHot>(opts),
    }
}
