//! Observability overhead experiment: what does watching the pipeline cost?
//!
//! Each §7.2 operational case study runs through the sequenced service in
//! three arms: no registry at all (`metrics: None` — the pre-instrumentation
//! code path), a disabled registry (constructed but off — the shape a
//! production deployment keeps around a feature flag), and an enabled
//! registry recording every stage count, latency histogram and capture
//! meter. The headline numbers are:
//!
//! * **perturbation** — all three arms must emit byte-identical diagnosis
//!   streams (metrics are observation only, never control flow);
//! * **overhead** — best-of-N wall clock of the enabled arm over the
//!   disabled arm across the whole suite, asserted ≤ 5%;
//! * **determinism** — two enabled runs must agree under
//!   [`MetricsSnapshot::deterministic_eq`] (wall-clock histograms and the
//!   queue-depth gauge excluded, every counted event identical);
//! * **exports** — the Prometheus exposition parses back to the registry's
//!   values and the JSON snapshot survives a serde round trip;
//! * **self-watch** — stage latencies fed back through [`SelfWatch`] raise
//!   a `PerfFault` on the right stage when a detect stall is injected.
//!
//! Usage: `cargo run --release -p gretel-bench --bin observability [--seed N] [--smoke]`

use gretel_bench::{arg, flag, results, Workbench};
use gretel_core::{
    run_service_checked, self_watch_stage, Analyzer, Diagnosis, GretelConfig, SelfWatch,
    ServiceConfig,
};
use gretel_model::NodeId;
use gretel_netcap::CaptureImpairment;
use gretel_obs::{parse_prometheus_text, MetricsSnapshot, PipelineMetrics, Stage};
use gretel_sim::scenario::operational_suite;
use gretel_telemetry::LevelShiftConfig;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock noise floor: a run shorter than this can't resolve a 5%
/// delta, so the overhead gate allows `disabled × 1.05 + EPSILON_US`.
const EPSILON_US: u64 = 2_000;

/// One timed pass of the sequenced service over a scenario's traffic.
fn run_arm(
    wb: &Workbench,
    gcfg: GretelConfig,
    nodes: &[NodeId],
    traffic: &[gretel_model::Message],
    metrics: Option<Arc<PipelineMetrics>>,
) -> (Vec<Diagnosis>, u64, u64) {
    let cfg = ServiceConfig {
        impairment: Some(CaptureImpairment::none()),
        metrics,
        ..ServiceConfig::default()
    };
    let mut analyzer = Analyzer::new(&wb.library, gcfg);
    let t0 = Instant::now();
    let (diagnoses, _, astats) = run_service_checked(&mut analyzer, nodes, traffic, &cfg)
        .expect("observability run completes");
    (diagnoses, t0.elapsed().as_micros() as u64, astats.messages)
}

/// Synthetic self-watch demo: train on steady detect-stage latencies, then
/// stall the stage 10× and report what the level-shift monitor raises.
fn self_watch_demo() -> (usize, Option<String>) {
    let metrics = PipelineMetrics::enabled();
    let mut watch = SelfWatch::new(LevelShiftConfig::default());
    let mut ts = 0u64;
    let mut faults = Vec::new();
    for i in 0..100u64 {
        metrics.observe(Stage::Detect, 2_000 + (i % 3));
        metrics.observe(Stage::Commit, 50);
        ts += 1_000;
        faults.extend(watch.poll(&metrics, ts));
    }
    let baseline_faults = faults.len();
    for i in 0..100u64 {
        metrics.observe(Stage::Detect, 20_000 + (i % 3));
        metrics.observe(Stage::Commit, 50);
        ts += 1_000;
        faults.extend(watch.poll(&metrics, ts));
    }
    assert_eq!(baseline_faults, 0, "self-watch must not alarm on a steady baseline");
    let stage = faults
        .first()
        .and_then(|f| self_watch_stage(f.api))
        .map(|s| s.name().to_string());
    (faults.len(), stage)
}

#[derive(Serialize)]
struct Row {
    scenario: String,
    messages: u64,
    diagnoses: usize,
    none_us: u64,
    disabled_us: u64,
    enabled_us: u64,
    disabled_identical: bool,
    enabled_identical: bool,
    snapshots_deterministic: bool,
    ingest_events: u64,
    detect_events: u64,
    detect_p50_us: u64,
    detect_p99_us: u64,
    commit_events: u64,
}

#[derive(Serialize)]
struct Output {
    seed: u64,
    reps: usize,
    rows: Vec<Row>,
    total_none_us: u64,
    total_disabled_us: u64,
    total_enabled_us: u64,
    overhead_pct: f64,
    all_identical: bool,
    all_deterministic: bool,
    prometheus_samples: usize,
    json_roundtrip: bool,
    self_watch_faults: usize,
    self_watch_stage: Option<String>,
}

fn main() {
    let seed: u64 = arg("--seed", 42);
    let smoke = flag("--smoke");
    let reps: usize = if smoke { 2 } else { 3 };
    let wb = Workbench::new(seed);

    let suite = operational_suite(&wb.catalog, seed, 6);
    let suite = if smoke { &suite[..1] } else { &suite[..] };

    let mut rows = Vec::new();
    let mut export_registry: Option<Arc<PipelineMetrics>> = None;
    for sc in suite.iter() {
        let exec = sc.run(wb.catalog.clone());
        let p_rate = exec.messages.len() as f64 / (exec.duration.max(1) as f64 / 1e6).max(1e-6);
        let gcfg = GretelConfig::auto(wb.library.fp_max(), p_rate, 2.0);
        let nodes: Vec<NodeId> = sc.deployment.nodes().iter().map(|n| n.id).collect();

        // Arm 1 — no registry: the pre-instrumentation pipeline, the oracle
        // every other arm is compared against byte for byte.
        let (expected, mut none_us, messages) =
            run_arm(&wb, gcfg, &nodes, &exec.messages, None);

        // Arm 2 — registry constructed but disabled (the feature-flag-off
        // shape); arm 3 — fully enabled, run twice for the determinism check.
        let mut disabled_us = u64::MAX;
        let mut enabled_us = u64::MAX;
        let mut disabled_identical = true;
        let mut enabled_identical = true;
        let mut first_snapshot: Option<MetricsSnapshot> = None;
        let mut snapshots_deterministic = true;
        let mut last_enabled: Option<Arc<PipelineMetrics>> = None;
        for _ in 0..reps {
            let (d, us, _) = run_arm(&wb, gcfg, &nodes, &exec.messages, None);
            none_us = none_us.min(us);
            debug_assert_eq!(d, expected);

            let m = Arc::new(PipelineMetrics::disabled());
            let (d, us, _) = run_arm(&wb, gcfg, &nodes, &exec.messages, Some(m.clone()));
            disabled_us = disabled_us.min(us);
            disabled_identical &= d == expected;
            assert_eq!(m.stage_events(Stage::Ingest), 0, "disabled registry must stay empty");

            let m = Arc::new(PipelineMetrics::enabled());
            let (d, us, _) = run_arm(&wb, gcfg, &nodes, &exec.messages, Some(m.clone()));
            enabled_us = enabled_us.min(us);
            enabled_identical &= d == expected;
            let snap = m.snapshot();
            if let Some(first) = &first_snapshot {
                snapshots_deterministic &= first.deterministic_eq(&snap);
            } else {
                first_snapshot = Some(snap);
            }
            last_enabled = Some(m);
        }

        let m = last_enabled.expect("at least one enabled rep ran");
        assert_eq!(
            m.stage_events(Stage::Ingest),
            messages,
            "every merged message must be counted at the ingest stage"
        );
        let detect = m.stage_latency(Stage::Detect);
        rows.push(Row {
            scenario: sc.name.to_string(),
            messages,
            diagnoses: expected.len(),
            none_us,
            disabled_us,
            enabled_us,
            disabled_identical,
            enabled_identical,
            snapshots_deterministic,
            ingest_events: m.stage_events(Stage::Ingest),
            detect_events: m.stage_events(Stage::Detect),
            detect_p50_us: detect.p50_us,
            detect_p99_us: detect.p99_us,
            commit_events: m.stage_events(Stage::Commit),
        });
        export_registry = Some(m);
    }

    // Export round trips, on the last scenario's enabled registry.
    let registry = export_registry.expect("suite is non-empty");
    let text = registry.prometheus_text();
    let samples = parse_prometheus_text(&text).expect("prometheus exposition parses");
    let ingest_sample = samples
        .iter()
        .find(|s| {
            s.name == "gretel_stage_events_total"
                && s.labels.iter().any(|(k, v)| k == "stage" && v == "ingest")
        })
        .expect("ingest events sample present");
    assert_eq!(
        ingest_sample.value as u64,
        registry.stage_events(Stage::Ingest),
        "exposition must round-trip the ingest event count"
    );
    let snap = registry.snapshot();
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
    let json_roundtrip = back == snap;

    let (self_watch_faults, watched_stage) = self_watch_demo();

    let total_none_us: u64 = rows.iter().map(|r| r.none_us).sum();
    let total_disabled_us: u64 = rows.iter().map(|r| r.disabled_us).sum();
    let total_enabled_us: u64 = rows.iter().map(|r| r.enabled_us).sum();
    let overhead_pct =
        (total_enabled_us as f64 - total_disabled_us as f64) / total_disabled_us as f64 * 100.0;
    let all_identical = rows.iter().all(|r| r.disabled_identical && r.enabled_identical);
    let all_deterministic = rows.iter().all(|r| r.snapshots_deterministic);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                format!("{}", r.messages),
                format!("{}", r.diagnoses),
                format!("{}", r.disabled_us),
                format!("{}", r.enabled_us),
                format!("{}", r.disabled_identical && r.enabled_identical),
                format!("{}", r.detect_events),
                format!("{}", r.detect_p99_us),
            ]
        })
        .collect();
    results::print_table(
        "Observability: wall clock and output equality with metrics off/on",
        &["scenario", "msgs", "diags", "off µs", "on µs", "identical", "detects", "det p99µs"],
        &table,
    );
    println!(
        "overhead: {overhead_pct:.2}%  identical: {all_identical}  deterministic: {all_deterministic}  \
         prometheus samples: {}  self-watch: {} fault(s) on {:?}",
        samples.len(),
        self_watch_faults,
        watched_stage
    );

    // Smoke runs cover one scenario at reduced reps; don't clobber the
    // committed full-sweep artifact with them.
    if !smoke {
        results::write_json(
            "observability",
            &Output {
                seed,
                reps,
                rows,
                total_none_us,
                total_disabled_us,
                total_enabled_us,
                overhead_pct,
                all_identical,
                all_deterministic,
                prometheus_samples: samples.len(),
                json_roundtrip,
                self_watch_faults,
                self_watch_stage: watched_stage.clone(),
            },
        );
    }

    assert!(all_identical, "metrics must never perturb the diagnosis stream");
    assert!(all_deterministic, "enabled-run snapshots must agree modulo wall clock");
    assert!(json_roundtrip, "JSON snapshot must survive a serde round trip");
    assert_eq!(self_watch_faults, 1, "the injected stall must raise exactly one fault");
    assert_eq!(watched_stage.as_deref(), Some("detect"), "the fault must map to the detect stage");
    assert!(
        total_enabled_us as f64 <= total_disabled_us as f64 * 1.05 + EPSILON_US as f64,
        "instrumentation overhead {overhead_pct:.2}% exceeds the 5% budget \
         (enabled {total_enabled_us}µs vs disabled {total_disabled_us}µs)"
    );
}
