//! Capture-loss robustness through the *real* impaired pipeline.
//!
//! Where `loss_ablation` drops messages from the log before analysis (a
//! model of loss), this experiment injects the loss into the capture plane
//! itself: agents stamp per-agent sequence numbers, a seeded
//! [`CaptureImpairment`] drops / duplicates / reorders frames in flight,
//! the receiver resequences and reports gaps, and the analyzer matches in
//! degraded mode across them. Each diagnosis is tagged `Exact` or
//! `Degraded`, so the output also measures how honestly the system reports
//! its own evidence quality.
//!
//! Two sweeps:
//!
//! * a synthetic fault workload (as in `loss_ablation`) over increasing
//!   impairment rates — precision θ, recall, localization accuracy and
//!   degraded-diagnosis fraction per rate;
//! * the §7.2 operational case studies, each re-run under impairment — is
//!   the fault still diagnosed at all?
//!
//! Usage: `cargo run --release -p gretel-bench --bin robustness [--seed N]`

use gretel_bench::workload::{build_fault_plan, diagnosis_for, faulty_pool};
use gretel_bench::{arg, results, Workbench};
use gretel_core::{Analyzer, GretelConfig, ServiceConfig};
use gretel_model::{NodeId, OperationSpec};
use gretel_netcap::CaptureImpairment;
use gretel_sim::scenario::operational_suite;
use gretel_sim::{secs, RunConfig, Runner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Impairment rates swept: the acceptance bar is that localization at 1 %
/// loss stays within a few points of lossless.
const RATES: [f64; 6] = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2];

fn impairment(rate: f64, seed: u64) -> Option<CaptureImpairment> {
    Some(CaptureImpairment {
        drop_prob: rate,
        dup_prob: rate / 2.0,
        reorder_prob: rate,
        reorder_span: 4,
        stall: None,
        seed: seed ^ 0x0b57,
    })
}

#[derive(Serialize)]
struct Row {
    drop_prob: f64,
    dup_prob: f64,
    reorder_prob: f64,
    theta: f64,
    matched: f64,
    recall: f64,
    diagnosed: f64,
    localization: f64,
    degraded_frac: f64,
    capture_gaps: u64,
    lost_frames: u64,
    frames: u64,
    backpressure_drops: u64,
}

#[derive(Serialize)]
struct ScenarioRow {
    scenario: String,
    drop_prob: f64,
    diagnosed: bool,
    degraded_diagnoses: usize,
    total_diagnoses: usize,
}

#[derive(Serialize)]
struct Output {
    seed: u64,
    workers: usize,
    resequence_depth: usize,
    sweep: Vec<Row>,
    scenarios: Vec<ScenarioRow>,
}

fn main() {
    let seed: u64 = arg("--seed", 42);
    let concurrent: usize = arg("--concurrent", 100);
    let faults: usize = arg("--faults", 8);
    let wb = Workbench::new(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10C0);
    let base_cfg = ServiceConfig::default();
    let workers = base_cfg.effective_workers();

    // One workload, captured under increasing capture-plane impairment.
    let pool = faulty_pool(&wb);
    let mut specs: Vec<&OperationSpec> = Vec::new();
    for _ in 0..faults + concurrent {
        specs.push(pool[rng.gen_range(0..pool.len())]);
    }
    let (plan, truth) = build_fault_plan(&wb, &specs[..faults], &mut rng, None);
    let exec = Runner::new(
        wb.catalog.clone(),
        &wb.deployment,
        &plan,
        RunConfig { seed, start_window: secs(20), ..RunConfig::default() },
    )
    .run(&specs);
    let p_rate = exec.messages.len() as f64 / (exec.duration.max(1) as f64 / 1e6);
    let nodes: Vec<NodeId> = wb.deployment.nodes().iter().map(|n| n.id).collect();

    let mut rows = Vec::new();
    for &rate in &RATES {
        let cfg = ServiceConfig { impairment: impairment(rate, seed), ..ServiceConfig::default() };
        let gcfg = GretelConfig::auto(wb.library.fp_max(), p_rate * (1.0 - rate), 2.0);
        let mut analyzer = Analyzer::new(&wb.library, gcfg);
        let (diagnoses, svc, astats) =
            gretel_core::run_service_checked(&mut analyzer, &nodes, &exec.messages, &cfg)
                .expect("robustness run completes");

        let mut hit = 0usize;
        let mut diagnosed = 0usize;
        let mut n_sum = 0usize;
        let mut theta_sum = 0.0;
        for fault in &truth {
            if let Some(d) = diagnosis_for(&diagnoses, &exec.messages, fault) {
                diagnosed += 1;
                n_sum += d.matched.len();
                theta_sum += gretel_core::theta(d.matched.len(), wb.library.len());
                if d.matched.contains(&fault.spec) {
                    hit += 1;
                }
            }
        }
        let degraded = diagnoses.iter().filter(|d| !d.confidence.is_exact()).count();
        let k = diagnosed.max(1) as f64;
        rows.push(Row {
            drop_prob: rate,
            dup_prob: rate / 2.0,
            reorder_prob: rate,
            theta: theta_sum / k,
            matched: n_sum as f64 / k,
            recall: hit as f64 / truth.len() as f64,
            diagnosed: diagnosed as f64 / truth.len() as f64,
            localization: hit as f64 / k,
            degraded_frac: degraded as f64 / diagnoses.len().max(1) as f64,
            capture_gaps: astats.capture_gaps,
            lost_frames: astats.lost_frames,
            frames: svc.frames,
            backpressure_drops: svc.backpressure_drops,
        });
    }

    // Case studies under impairment: does each operational scenario still
    // produce a diagnosis at all?
    let mut scenarios = Vec::new();
    for sc in operational_suite(&wb.catalog, seed, 6) {
        let sexec = sc.run(wb.catalog.clone());
        let sp_rate = sexec.messages.len() as f64 / (sexec.duration.max(1) as f64 / 1e6).max(1e-6);
        let snodes: Vec<NodeId> = sc.deployment.nodes().iter().map(|n| n.id).collect();
        for &rate in &[0.0, 0.01, 0.05] {
            let cfg =
                ServiceConfig { impairment: impairment(rate, seed), ..ServiceConfig::default() };
            let gcfg = GretelConfig::auto(wb.library.fp_max(), sp_rate * (1.0 - rate), 2.0);
            let mut analyzer = Analyzer::new(&wb.library, gcfg);
            let (diagnoses, _, _) =
                gretel_core::run_service_checked(&mut analyzer, &snodes, &sexec.messages, &cfg)
                    .expect("scenario run completes");
            scenarios.push(ScenarioRow {
                scenario: sc.name.to_string(),
                drop_prob: rate,
                diagnosed: !diagnoses.is_empty(),
                degraded_diagnoses: diagnoses.iter().filter(|d| !d.confidence.is_exact()).count(),
                total_diagnoses: diagnoses.len(),
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", 100.0 * r.drop_prob),
                format!("{:.2}%", 100.0 * r.theta),
                format!("{:.1}", r.matched),
                format!("{:.2}", r.recall),
                format!("{:.2}", r.localization),
                format!("{:.2}", r.degraded_frac),
                format!("{}", r.lost_frames),
            ]
        })
        .collect();
    results::print_table(
        "Capture-plane robustness (impaired pipeline, degraded-mode matching)",
        &["loss", "theta", "matched", "recall", "localization", "degraded", "lost"],
        &table,
    );
    let stable: Vec<Vec<String>> = scenarios
        .iter()
        .map(|s| {
            vec![
                s.scenario.clone(),
                format!("{:.0}%", 100.0 * s.drop_prob),
                format!("{}", s.diagnosed),
                format!("{}/{}", s.degraded_diagnoses, s.total_diagnoses),
            ]
        })
        .collect();
    results::print_table(
        "Case studies under impairment",
        &["scenario", "loss", "diagnosed", "degraded/total"],
        &stable,
    );

    results::write_json(
        "robustness",
        &Output {
            seed,
            workers,
            resequence_depth: base_cfg.resequence_depth,
            sweep: rows,
            scenarios,
        },
    );
}
