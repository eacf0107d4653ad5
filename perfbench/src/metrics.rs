//! Metric definitions, their computation from a run, and the report.

use crate::client::{Op, Tally, Window, WINDOW};
use crate::device::IoSnapshot;
use crate::stats::{median, Host};
use crate::trace::{Layer, Summary};
use lobster_metrics::Snapshot;

/// End-to-end metrics printed on the result line of an untraced run; the
/// `end_to_end` list of BENCHMARK.json. Every workload produces each of
/// them, and none is ever 0.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "get_p50_us",
    "read_mb_per_s",
    "space_amp",
    "peak_rss_mb",
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median over the phase's wall-clock windows of `Σ clients f(window)` per
/// second: what the clients together got done, the median ignoring the few
/// windows a checkpoint or a stall of the host dominates.
pub fn windowed_rate(tallies: &[Tally], f: impl Fn(&Window) -> f64) -> f64 {
    median(&window_rates(tallies, f))
}

/// `Σ clients f(window)` per second, for each window of a phase.
pub fn window_rates(tallies: &[Tally], f: impl Fn(&Window) -> f64) -> Vec<f64> {
    let n = tallies.iter().map(|t| t.windows.len()).max().unwrap_or(0);
    (0..n)
        .map(|w| {
            tallies
                .iter()
                .filter_map(|t| t.windows.get(w))
                .map(&f)
                .sum::<f64>()
                / WINDOW.as_secs_f64()
        })
        .collect()
}

/// Every end-to-end metric of a phase. Latencies are timed at the client
/// with conflict retries folded in; throughputs are [`windowed_rate`]s;
/// `rss_mb` is the resident set at the end of the phase (see
/// [`crate::stats::rss_mb`]).
pub fn end_to_end(setup_s: f64, tallies: &[Tally], space_amp: f64, rss_mb: f64) -> Vec<Metric> {
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    vec![
        m("setup_s", setup_s, "s"),
        m("ops_per_s", windowed_rate(tallies, |w| w.ops as f64), "1/s"),
        m("put_p50_us", all.lat(Op::Put).p50_us(), "us"),
        m("put_p99_us", all.lat(Op::Put).p99_us(), "us"),
        m("get_p50_us", all.lat(Op::Get).p50_us(), "us"),
        m("get_p99_us", all.lat(Op::Get).p99_us(), "us"),
        m("range_p50_us", all.lat(Op::Range).p50_us(), "us"),
        m("range_p99_us", all.lat(Op::Range).p99_us(), "us"),
        m("append_p50_us", all.lat(Op::Append).p50_us(), "us"),
        m(
            "read_mb_per_s",
            windowed_rate(tallies, |w| w.read_bytes as f64 / 1e6),
            "MB/s",
        ),
        m("space_amp", space_amp, "x"),
        m(
            "failed_frac",
            ratio(all.failed as f64, all.attempted as f64),
            "frac",
        ),
        m("peak_rss_mb", rss_mb, "MiB"),
    ]
}

/// Sample counts behind the latency percentiles, for the report.
pub fn sample_counts(tallies: &[Tally]) -> String {
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    Op::ALL
        .iter()
        .map(|op| format!("{}={}", op.name(), all.lat(*op).len()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Everything the per-layer metrics are computed from (one traced run).
/// Counters and device figures cover the whole window; span self times
/// cover the traced slices and are divided by their operation count.
pub struct LayerInputs<'a> {
    /// All clients' tallies over the traced run's window (traced and
    /// untraced slices), merged.
    pub window: &'a Tally,
    /// Operations in the traced slices (the spans' requests).
    pub traced_ops: u64,
    /// Engine counter deltas over the window.
    pub delta: &'a Snapshot,
    /// Engine counters at the end of the window (for gauges).
    pub end: &'a Snapshot,
    pub data_io: IoSnapshot,
    pub wal_io: IoSnapshot,
    pub spans: &'a Summary,
    /// Spans of the benchmark's own `core` calls.
    pub core_spans: &'a Summary,
    /// `(fragmentation score, utilization)` of the extent allocator.
    pub extent: (f64, f64),
    pub serve_overhead_us: f64,
    pub recovery_s: f64,
    /// Acknowledged keys wrong or missing after the power cut and reopen.
    pub lost_keys: u64,
    /// 1 − traced ops_per_s ÷ untraced ops_per_s.
    pub trace_overhead_frac: f64,
}

/// The per-layer metrics; the `per_layer` list of BENCHMARK.json.
pub fn per_layer(i: &LayerInputs) -> Vec<Metric> {
    let d = i.delta;
    let t = i.window;
    let ops = t.attempted as f64;
    let traced_ops = (i.traced_ops as f64).max(1.0);
    let per_op = |v: u64| ratio(v as f64, ops);
    let blob_writes = (t.puts + t.lat(Op::Append).len() as u64) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let layer = |l: Layer| i.spans.layer(l);
    vec![
        m("serve.overhead_us", i.serve_overhead_us, "us"),
        m("serve.busy_frac", ratio(t.busy as f64, ops), "frac"),
        m("serve.disconnects", d.serve_disconnects as f64, "count"),
        m(
            "serve.self_us_per_op",
            us(layer(Layer::Serve).self_ns) / traced_ops,
            "us",
        ),
        m(
            "core.put_blob_us",
            i.core_spans.p50_us("core.put_blob"),
            "us",
        ),
        m("core.commit_us", i.core_spans.p50_us("core.commit"), "us"),
        m(
            "core.commits_per_group",
            ratio(d.txn_commits as f64, d.commit_wal_groups as f64),
            "ratio",
        ),
        m("core.commit_stalls", d.commit_stalls as f64, "count"),
        m(
            "core.commit_inflight_peak",
            i.end.commit_inflight_peak as f64,
            "count",
        ),
        m(
            "core.get_blob_us",
            i.core_spans.p50_us("core.get_blob"),
            "us",
        ),
        m(
            "core.get_range_us",
            i.core_spans.p50_us("core.get_blob_range"),
            "us",
        ),
        m(
            "core.append_blob_us",
            i.core_spans.p50_us("core.append_blob"),
            "us",
        ),
        m("core.conflict_retries", t.conflict_retries as f64, "count"),
        m("core.commit_errors", d.commit_errors as f64, "count"),
        m("core.defrag_passes", d.defrag_passes as f64, "count"),
        m(
            "core.defrag_relocations",
            d.defrag_relocations as f64,
            "count",
        ),
        m("core.defrag_bytes_moved", d.defrag_bytes_moved as f64, "B"),
        m("core.defrag_skipped", d.defrag_skipped as f64, "count"),
        m("core.recovery_s", i.recovery_s, "s"),
        m("core.lost_after_crash", i.lost_keys as f64, "count"),
        m(
            "core.self_us_per_op",
            us(layer(Layer::Core).self_ns) / traced_ops,
            "us",
        ),
        m(
            "buffer.hit_ratio",
            ratio(d.cache_hits as f64, (d.cache_hits + d.cache_misses) as f64),
            "ratio",
        ),
        m("buffer.pages_read_per_op", per_op(d.pages_read), "count"),
        m(
            "buffer.pages_per_fault_batch",
            ratio(d.pages_faulted_batched as f64, d.fault_batches as f64),
            "count",
        ),
        m(
            "buffer.readahead_hit_ratio",
            ratio(d.readahead_hit as f64, d.readahead_issued as f64),
            "ratio",
        ),
        m(
            "buffer.readahead_wasted",
            d.readahead_wasted as f64,
            "count",
        ),
        m("buffer.alias_ops_per_op", per_op(d.alias_ops), "count"),
        m("buffer.memcpy_bytes_per_op", per_op(d.memcpy_bytes), "B"),
        m(
            "buffer.latch_acquisitions_per_op",
            per_op(d.latch_acquisitions),
            "count",
        ),
        m(
            "buffer.translations_per_op",
            per_op(d.translations),
            "count",
        ),
        m(
            "btree.node_accesses_per_op",
            per_op(d.btree_node_accesses),
            "count",
        ),
        m(
            "extent.allocs_per_put",
            ratio(d.extent_allocs as f64, blob_writes),
            "count",
        ),
        m("extent.fragmentation_score", i.extent.0, "ratio"),
        m("extent.utilization", i.extent.1, "ratio"),
        m(
            "wal.bytes_per_commit",
            ratio(d.wal_bytes as f64, t.write_commits as f64),
            "B",
        ),
        m("wal.checkpoints", d.checkpoints as f64, "count"),
        m(
            "storage.wal.write_calls",
            i.wal_io.write_calls as f64,
            "count",
        ),
        m("storage.wal.write_bytes", i.wal_io.write_bytes as f64, "B"),
        m("storage.wal.write_us", us(i.wal_io.write_ns), "us"),
        m(
            "storage.wal.sync_calls",
            i.wal_io.sync_calls as f64,
            "count",
        ),
        m("storage.wal.sync_us", us(i.wal_io.sync_ns), "us"),
        m(
            "storage.data.read_calls",
            i.data_io.read_calls as f64,
            "count",
        ),
        m("storage.data.read_bytes", i.data_io.read_bytes as f64, "B"),
        m("storage.data.read_us", us(i.data_io.read_ns), "us"),
        m(
            "storage.data.write_calls",
            i.data_io.write_calls as f64,
            "count",
        ),
        m(
            "storage.data.write_bytes",
            i.data_io.write_bytes as f64,
            "B",
        ),
        m("storage.data.write_us", us(i.data_io.write_ns), "us"),
        m(
            "storage.data.sync_calls",
            i.data_io.sync_calls as f64,
            "count",
        ),
        m("storage.data.sync_us", us(i.data_io.sync_ns), "us"),
        m(
            "storage.write_amp",
            ratio(
                (i.data_io.write_bytes + i.wal_io.write_bytes) as f64,
                t.written_bytes as f64,
            ),
            "x",
        ),
        m("storage.io_retries", d.io_retries as f64, "count"),
        m(
            "storage.self_us_per_op",
            us(layer(Layer::Storage).self_ns) / traced_ops,
            "us",
        ),
        m(
            "storage.engine_thread_us_per_op",
            us(layer(Layer::Storage).unparented_ns) / traced_ops,
            "us",
        ),
        m(
            "client.self_us_per_op",
            us(layer(Layer::Client).self_ns) / traced_ops,
            "us",
        ),
        m("trace.overhead_frac", i.trace_overhead_frac, "frac"),
        m("trace.spans", i.spans.total_spans as f64, "count"),
        m("trace.ops", i.traced_ops as f64, "count"),
    ]
}

/// The outcome of one run.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub host: Host,
    /// Engine (and server) configuration of the workload.
    pub config: String,
    /// Sizes and mix the workload used.
    pub sizes: String,
    /// False when any returned byte was wrong.
    pub correct: bool,
    /// Acknowledged keys wrong or missing after the power cut (traced runs).
    pub lost_after_crash: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Report {
    /// Human-readable lines: host stamp, configuration, every metric.
    pub fn human(&self) -> Vec<String> {
        let mut out = vec![
            format!(
                "# {} seed={} traced={} host: {}",
                self.workload,
                self.seed,
                self.traced,
                self.host.fingerprint()
            ),
            format!("#   engine: {}", self.config),
            format!("#   workload: {}", self.sizes),
            format!(
                "#   correct={} attempted={} failed={} lost_after_crash={}",
                self.correct,
                self.attempted,
                self.failed,
                self.lost_after_crash
                    .map_or_else(|| "not checked".to_string(), |n| n.to_string())
            ),
        ];
        for n in &self.notes {
            out.push(format!("#   {n}"));
        }
        for (title, list) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            for x in list {
                out.push(format!(
                    "#   {title:<10} {:<36} {:>16.3} {}",
                    x.name, x.value, x.unit
                ));
            }
        }
        out
    }

    /// The result line: end-to-end metrics of an untraced run, per-layer
    /// metrics of a traced one.
    pub fn json(&self) -> String {
        let metrics: Vec<&Metric> = if self.traced {
            self.per_layer.iter().collect()
        } else {
            END_TO_END
                .iter()
                .filter_map(|n| self.end_to_end.iter().find(|x| x.name == *n))
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name,
                    json_number(x.value),
                    x.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
