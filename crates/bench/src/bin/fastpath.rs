//! Detection fast-path scaling study.
//!
//! Quantifies the three performance pillars of this reproduction:
//!
//! * **online** — end-to-end analyzer throughput (messages/s) on the
//!   Fig 8c synthetic 64-way interleaved stream at two fault frequencies,
//!   with the pattern cache + indexed subsequence matching in the hot
//!   loop;
//! * **transport** — the batched zero-copy ingest path: the same stream
//!   through the full capture→merge→analyze service at `ingest_batch`
//!   1/8/64/256, gating that batching cuts channel operations per merged
//!   message at least 2× while the diagnosis stream stays byte-identical;
//! * **offline** — full-suite (1200 tests) characterization wall time at
//!   1/2/4/8 worker threads (`characterize_parallel` is asserted
//!   byte-identical to the sequential path, so only time changes).
//!
//! Usage: `cargo run --release -p gretel-bench --bin fastpath
//! [--seed N] [--messages N]`

use gretel_bench::{arg, results, Workbench};
use gretel_core::{
    run_service_checked, Analyzer, FingerprintLibrary, GretelConfig, ServiceConfig,
};
use gretel_model::{Message, NodeId};
use gretel_sim::{StreamConfig, SyntheticStream};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ThroughputRow {
    fault_every: usize,
    messages: usize,
    diagnoses: usize,
    wall_ms: f64,
    msgs_per_sec: f64,
}

#[derive(Serialize)]
struct BatchedRow {
    batch_size: usize,
    messages: u64,
    frames: u64,
    channel_ops: u64,
    ops_per_msg: f64,
    diagnoses: usize,
    wall_ms: f64,
    msgs_per_sec: f64,
}

#[derive(Serialize)]
struct CharacterizeRow {
    threads: usize,
    specs: usize,
    wall_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct FastpathResults {
    seed: u64,
    /// Hardware parallelism of the measuring host
    /// (`std::thread::available_parallelism`). Characterization speedups
    /// are bounded by this — on a 1-CPU container the scaling rows record
    /// dispatch overhead, not parallel speedup — and the batched-transport
    /// rows measure dispatch amortization, which is exactly what a 1-CPU
    /// host resolves.
    host_threads: usize,
    throughput: Vec<ThroughputRow>,
    batched: Vec<BatchedRow>,
    characterize: Vec<CharacterizeRow>,
}

fn stream(wb: &Workbench, fault_every: usize, n: usize) -> Vec<Message> {
    let specs: Vec<_> = wb.suite.specs().iter().step_by(13).cloned().collect();
    let cfg = StreamConfig {
        total_messages: n,
        fault_every,
        pps: 50_000,
        concurrent_ops: 64,
        ..StreamConfig::default()
    };
    SyntheticStream::new(wb.catalog.clone(), &specs, cfg).collect()
}

fn main() {
    let seed: u64 = arg("--seed", 42);
    let n_messages: usize = arg("--messages", 200_000);
    let host_threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let wb = Workbench::new(seed);

    // Online: analyzer throughput at two fault frequencies.
    let mut throughput = Vec::new();
    for fault_every in [100usize, 2000] {
        let msgs = stream(&wb, fault_every, n_messages);
        let mut analyzer =
            Analyzer::new(&wb.library, GretelConfig::auto(wb.library.fp_max(), 50_000.0, 1.0));
        let start = Instant::now();
        let mut diagnoses = 0usize;
        for m in &msgs {
            diagnoses += analyzer.process(m).len();
        }
        diagnoses += analyzer.finish().len();
        let wall = start.elapsed();
        throughput.push(ThroughputRow {
            fault_every,
            messages: msgs.len(),
            diagnoses,
            wall_ms: wall.as_secs_f64() * 1e3,
            msgs_per_sec: msgs.len() as f64 / wall.as_secs_f64(),
        });
    }

    // Transport: the batched zero-copy ingest path. Same synthetic
    // stream, full service (capture agents → bounded channels → k-way
    // merge → analyzer), swept over the batch size. Diagnoses must be
    // byte-identical at every size; the headline number is channel
    // operations per merged message.
    let batched_msgs = stream(&wb, 2000, n_messages);
    // The synthetic stream spreads sources over `inst % 7` nodes.
    let nodes: Vec<NodeId> = (0..7).map(NodeId).collect();
    let mut batched = Vec::new();
    let mut batched_oracle: Option<Vec<gretel_core::Diagnosis>> = None;
    for batch_size in [1usize, 8, 64, 256] {
        let cfg = ServiceConfig { ingest_batch: batch_size, ..ServiceConfig::default() };
        // Channel ops are deterministic; wall clock on a shared host is
        // not — keep the best of three passes.
        let mut best: Option<(f64, Vec<gretel_core::Diagnosis>, _, _)> = None;
        for _ in 0..3 {
            let mut analyzer = Analyzer::new(
                &wb.library,
                GretelConfig::auto(wb.library.fp_max(), 50_000.0, 1.0),
            );
            let start = Instant::now();
            let (diags, svc, astats) =
                run_service_checked(&mut analyzer, &nodes, &batched_msgs, &cfg)
                    .expect("fastpath run completes");
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            match &batched_oracle {
                Some(expected) => assert_eq!(
                    &diags, expected,
                    "batch size must never change the diagnosis stream"
                ),
                None => batched_oracle = Some(diags.clone()),
            }
            if best.as_ref().is_none_or(|(w, ..)| wall_ms < *w) {
                best = Some((wall_ms, diags, svc, astats));
            }
        }
        let (wall_ms, diags, svc, astats) = best.expect("three passes ran");
        batched.push(BatchedRow {
            batch_size,
            messages: astats.messages,
            frames: svc.frames,
            channel_ops: svc.channel_ops,
            ops_per_msg: svc.channel_ops as f64 / astats.messages as f64,
            diagnoses: diags.len(),
            wall_ms,
            msgs_per_sec: astats.messages as f64 / (wall_ms / 1e3),
        });
    }
    // The gate the fast path exists for: ≥2× fewer channel operations
    // per merged message than the per-frame transport.
    let ops1 = batched[0].ops_per_msg;
    for row in &batched[1..] {
        assert!(
            row.ops_per_msg * 2.0 <= ops1,
            "ingest_batch={} must at least halve channel ops/msg: {:.4} vs {:.4}",
            row.batch_size,
            row.ops_per_msg,
            ops1,
        );
    }

    // Offline: full-suite characterization scaling.
    let mut characterize = Vec::new();
    let mut base_ms = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let (lib, _) = FingerprintLibrary::characterize_parallel(
            wb.catalog.clone(),
            wb.suite.specs(),
            &wb.deployment,
            2,
            seed ^ 0xF1F1,
            threads,
        );
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(lib.len(), wb.suite.len());
        if threads == 1 {
            base_ms = wall_ms;
        }
        characterize.push(CharacterizeRow {
            threads,
            specs: wb.suite.len(),
            wall_ms,
            speedup: base_ms / wall_ms,
        });
    }

    results::print_table(
        "analyzer throughput (pattern cache + indexed matching)",
        &["fault_every", "messages", "diagnoses", "wall_ms", "msgs/s"],
        &throughput
            .iter()
            .map(|r| {
                vec![
                    r.fault_every.to_string(),
                    r.messages.to_string(),
                    r.diagnoses.to_string(),
                    format!("{:.1}", r.wall_ms),
                    format!("{:.0}", r.msgs_per_sec),
                ]
            })
            .collect::<Vec<_>>(),
    );
    results::print_table(
        "batched ingest transport (full service, fault_every=2000)",
        &["batch", "messages", "frames", "chan ops", "ops/msg", "wall_ms", "msgs/s"],
        &batched
            .iter()
            .map(|r| {
                vec![
                    r.batch_size.to_string(),
                    r.messages.to_string(),
                    r.frames.to_string(),
                    r.channel_ops.to_string(),
                    format!("{:.4}", r.ops_per_msg),
                    format!("{:.1}", r.wall_ms),
                    format!("{:.0}", r.msgs_per_sec),
                ]
            })
            .collect::<Vec<_>>(),
    );
    results::print_table(
        &format!("characterization scaling (1200-test suite, 2 runs each; host_threads={host_threads})"),
        &["threads", "wall_ms", "speedup"],
        &characterize
            .iter()
            .map(|r| {
                vec![
                    r.threads.to_string(),
                    format!("{:.1}", r.wall_ms),
                    format!("{:.2}x", r.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );
    results::write_json(
        "fastpath",
        &FastpathResults { seed, host_threads, throughput, batched, characterize },
    );
}
