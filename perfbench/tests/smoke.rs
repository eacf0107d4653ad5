//! Every workload at tiny size: each metric BENCHMARK.json names is emitted
//! with its unit, and a bit flipped on the read path trips the output check.

use lobster_perfbench::{run, Options, Report, Scale, Workload};
use lobster_storage::{FaultConfig, FaultKind};
use std::path::PathBuf;

/// `(name, unit)` of every metric in one list (`end_to_end` or
/// `per_layer`) of BENCHMARK.json, which keeps one metric per line.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("no {list} list"));
    let section = &text[start..start + text[start..].find(']').expect("list ends")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    section
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn options(w: Workload, trace: bool, dir: &str) -> Options {
    let mut o = Options::new(w, 7, 0.6, trace);
    o.scale = Scale::Tiny;
    o.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    o
}

fn assert_emits(report: &Report, list: &str) {
    let json = report.json();
    let metrics = declared(list);
    assert!(
        !metrics.is_empty(),
        "BENCHMARK.json declares no {list} metric"
    );
    for (name, unit) in metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = json
            .find(&entry)
            .unwrap_or_else(|| panic!("{}: {name} missing from {json}", report.workload));
        let rest = &json[at..];
        let end = rest.find('}').expect("metric object ends");
        assert!(
            rest[..end].contains(&format!("\"unit\": \"{unit}\"")),
            "{}: {name} lacks unit {unit}: {}",
            report.workload,
            &rest[..end]
        );
    }
}

// One test, so the runs (and the process-wide span recorder) never overlap.
#[test]
fn every_workload_emits_every_metric_and_the_output_check_catches_bit_rot() {
    for w in Workload::ALL {
        let untraced = run(&options(w, false, "smoke")).expect("untraced run");
        assert!(untraced.correct, "{}: wrong bytes returned", w.name());
        assert!(untraced.attempted > 0, "{}: no operation ran", w.name());
        assert_eq!(untraced.failed, 0, "{}: operations failed", w.name());
        assert_emits(&untraced, "end_to_end");

        let traced = run(&options(w, true, "smoke")).expect("traced run");
        assert!(traced.correct, "{}: wrong bytes returned", w.name());
        assert!(
            traced.lost_after_crash.is_some(),
            "{}: no durability check",
            w.name()
        );
        assert_emits(&traced, "per_layer");
    }

    // Flip bits in data-device reads; with verify_reads off (the default)
    // only the benchmark's own comparison can notice.
    let mut o = options(Workload::ReadCold, false, "bitrot");
    o.data_fault = Some(FaultConfig::new(11, 200, &[FaultKind::BitRotRead]));
    let r = run(&o).expect("run with bit rot");
    assert!(!r.correct, "bit rot went unnoticed");
    assert!(r.json().starts_with("{\"correct\": false"));
}
