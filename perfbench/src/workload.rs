//! The three named workloads, their pinned pipeline shapes, set-up (fingerprint
//! characterization, traffic generation, inline oracle) and one timed call of
//! each workload's public entry point, checked against the oracle.

use gretel_core::store::{FileStore, FileStoreConfig, Store};
use gretel_core::{
    analyze_stream, attribute_cascades, canonical_order, encode_diagnoses, run_service_checked,
    run_sharded, run_sharded_durable, Analyzer, CascadeParams, Diagnosis, DurableConfig,
    FingerprintLibrary, GretelConfig, RcaContext, ServiceConfig, ServiceGraph, ShardedConfig,
};
use gretel_model::{Catalog, Message, NodeId, OperationSpec, TempestSuite};
use gretel_netcap::partition_messages;
use gretel_sim::resources::sample_value;
use gretel_sim::{
    Baseline, Deployment, ResourceKind, ResourceSample, StreamConfig, SyntheticStream,
};
use gretel_telemetry::TelemetryStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which public entry point a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `run_sharded`: in-memory, tenant-sharded.
    Sharded,
    /// `run_service_checked`: one pipeline, analyzer with RCA attached.
    Service,
    /// `run_sharded_durable`: a fresh `FileStore` per shard per run.
    ShardedDurable,
}

/// How the window size α is chosen for a workload.
#[derive(Debug, Clone, Copy)]
pub enum WindowRule {
    /// α = 4 × the widest operation span in the traffic (at least
    /// 2 × FPmax): twice the DESIGN.md §15 margin, as `--bin soak` sizes
    /// it for its sharded byte-identity gate.
    OpSpan,
    /// α from `GretelConfig::auto(FPmax, PPS, 1 s)`, the paper's rule.
    Auto,
}

/// A workload: traffic shape plus a pinned pipeline shape. Worker counts
/// are fixed here and never derived from the host, so every host runs the
/// same program.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub entry: Entry,
    pub messages: usize,
    pub projects: u32,
    pub correlation_ids: bool,
    pub abort_on_fault: bool,
    pub fault_every: usize,
    pub window: WindowRule,
    pub shards: usize,
    pub workers: usize,
    pub ingest_batch: usize,
    pub channel_capacity: usize,
    pub cascades: bool,
    pub rca: bool,
}

/// Packet rate of every stream, the rate the paper replays traffic at
/// (§7.4.1).
const PPS: u64 = 50_000;

pub const WORKLOADS: [Workload; 3] = [
    // Per-message layers dominate; detect runs rarely (the control for
    // detect changes).
    Workload {
        name: "steady-tenants",
        entry: Entry::Sharded,
        messages: 200_000,
        projects: 32,
        correlation_ids: true,
        abort_on_fault: true,
        fault_every: 2_000,
        window: WindowRule::OpSpan,
        shards: 2,
        workers: 1,
        ingest_batch: 64,
        channel_capacity: 64,
        cascades: true,
        rca: false,
    },
    // Algorithm 2 over the full window plus Algorithm 3 for every
    // diagnosis dominate (the control for ingest-only changes).
    Workload {
        name: "fault-storm",
        entry: Entry::Service,
        messages: 150_000,
        projects: 1,
        correlation_ids: false,
        abort_on_fault: false,
        fault_every: 100,
        window: WindowRule::Auto,
        shards: 1,
        workers: 1,
        ingest_batch: 64,
        channel_capacity: 64,
        cascades: false,
        rca: true,
    },
    // steady-tenants' traffic and layout, shorter, through the durable
    // path: checkpoint export and store appends dominate.
    Workload {
        name: "durable-journal",
        entry: Entry::ShardedDurable,
        messages: 30_000,
        projects: 32,
        correlation_ids: true,
        abort_on_fault: true,
        fault_every: 2_000,
        window: WindowRule::OpSpan,
        shards: 2,
        workers: 1,
        ingest_batch: 64,
        channel_capacity: 64,
        cascades: true,
        rca: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            channel_capacity: self.channel_capacity,
            workers: Some(self.workers),
            ingest_batch: self.ingest_batch,
            ..ServiceConfig::default()
        }
    }

    pub fn sharded_config(&self) -> ShardedConfig {
        ShardedConfig {
            shards: self.shards,
            service: self.service_config(),
            cascades: self.cascades.then(CascadeParams::default),
            metrics: false,
        }
    }

    pub fn shape(&self) -> String {
        format!(
            "messages={} projects={} correlation_ids={} abort_on_fault={} fault_every={} \
             shards={} workers={} ingest_batch={} channel_capacity={} cascades={} rca={}",
            self.messages,
            self.projects,
            self.correlation_ids,
            self.abort_on_fault,
            self.fault_every,
            self.shards,
            self.workers,
            self.ingest_batch,
            self.channel_capacity,
            self.cascades,
            self.rca
        )
    }
}

/// Everything set-up produces. Only the traffic and the library reach the
/// program under test; the oracle is what each run is checked against.
pub struct Setup {
    pub specs: Vec<OperationSpec>,
    pub deployment: Deployment,
    pub library: FingerprintLibrary,
    pub traffic: Vec<Message>,
    pub nodes: Vec<NodeId>,
    pub telemetry: TelemetryStore,
    pub gcfg: GretelConfig,
    /// Oracle diagnoses in canonical order, their encoding, and the graph
    /// the inline analyzer mined from the whole stream.
    pub oracle: Vec<Diagnosis>,
    pub oracle_bytes: Vec<u8>,
    pub oracle_graph: ServiceGraph,
    /// Diagnoses the unsharded inline analysis adds, drops or changes
    /// against the oracle: 0 wherever sharding is transparent (DESIGN.md
    /// §15). A property of the traffic, not of a run.
    pub unsharded_divergence: usize,
    pub characterize_s: f64,
    pub generate_s: f64,
    /// The unsharded inline analysis alone, within `oracle_s`.
    pub inline_s: f64,
    pub oracle_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.characterize_s + self.generate_s + self.oracle_s
    }

    pub fn rca(&self) -> RcaContext<'_> {
        RcaContext {
            deployment: &self.deployment,
            telemetry: &self.telemetry,
            specs: &self.specs,
        }
    }

    /// A fresh analyzer configured exactly as the workload's pipeline
    /// configures its own.
    pub fn analyzer(&self, w: &Workload) -> Analyzer<'_> {
        let a = Analyzer::new(&self.library, self.gcfg);
        if w.rca {
            a.with_rca(self.rca())
        } else {
            a
        }
    }
}

pub fn setup(w: &Workload, seed: u64) -> Setup {
    let t = Instant::now();
    let catalog = Catalog::openstack();
    let suite = TempestSuite::generate(catalog.clone(), seed);
    let deployment = Deployment::standard();
    let (library, _) = FingerprintLibrary::characterize(
        catalog.clone(),
        suite.specs(),
        &deployment,
        2,
        seed ^ 0xF1F1,
    );
    let specs = suite.specs().to_vec();
    let characterize_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    // The representative subset the soak, fastpath and fig8c binaries stream.
    let stream_specs: Vec<OperationSpec> = specs.iter().step_by(13).cloned().collect();
    let scfg = StreamConfig {
        total_messages: w.messages,
        fault_every: w.fault_every,
        pps: PPS,
        concurrent_ops: 64,
        projects: w.projects,
        correlation_ids: w.correlation_ids,
        abort_on_fault: w.abort_on_fault,
        ..StreamConfig::default()
    };
    let traffic: Vec<Message> = SyntheticStream::new(catalog, &stream_specs, scfg).collect();
    let nodes: Vec<NodeId> = (0..scfg.node_spread).map(NodeId).collect();
    let alpha = match w.window {
        WindowRule::OpSpan => (4 * max_op_span(&traffic)).max(2 * library.fp_max()),
        WindowRule::Auto => GretelConfig::auto(library.fp_max(), PPS as f64, 1.0).alpha,
    };
    let gcfg = GretelConfig {
        alpha,
        ..GretelConfig::default()
    };
    let telemetry = if w.rca {
        let span_us = traffic.last().map_or(0, |m| m.ts_us);
        telemetry_for(&deployment, span_us, seed)
    } else {
        TelemetryStore::default()
    };
    let generate_s = t.elapsed().as_secs_f64();

    let mut s = Setup {
        specs,
        deployment,
        library,
        traffic,
        nodes,
        telemetry,
        gcfg,
        oracle: Vec::new(),
        oracle_bytes: Vec::new(),
        oracle_graph: ServiceGraph::new(),
        unsharded_divergence: 0,
        characterize_s,
        generate_s,
        inline_s: 0.0,
        oracle_s: 0.0,
    };
    let t = Instant::now();
    // The single-threaded inline analysis of the whole stream: the
    // baseline `core.analyzer.inline_mps` times, and the graph every
    // sharded merge must reproduce.
    let (mut unsharded, graph) = inline_analysis(w, &s, &s.traffic);
    s.inline_s = t.elapsed().as_secs_f64();
    let oracle = if w.entry == Entry::Service {
        unsharded
    } else {
        // A sharded entry point computes the inline analysis of each
        // tenant partition, unioned in canonical order, with cascades
        // attributed over the merged graph (`gretel_core::shard` docs).
        let parts = partition_messages(&s.traffic, w.shards);
        let mut home = HashMap::new();
        for (i, part) in parts.iter().enumerate() {
            for p in part.iter().filter_map(|m| m.project) {
                assert_eq!(
                    *home.entry(p).or_insert(i),
                    i,
                    "project {p:?} routed to two shards"
                );
            }
        }
        let routed: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(
            routed,
            s.traffic.len(),
            "routing lost or duplicated messages"
        );
        let mut all = Vec::new();
        let mut merged = ServiceGraph::new();
        for part in &parts {
            let (d, g) = inline_analysis(w, &s, part);
            all.extend(d);
            merged.merge(&g);
        }
        canonical_order(&mut all);
        attribute(w, &s, &mut all, &merged);
        attribute(w, &s, &mut unsharded, &graph);
        s.unsharded_divergence = mismatches(&all, &unsharded);
        all
    };
    s.oracle_bytes = encode_diagnoses(&oracle);
    s.oracle = oracle;
    s.oracle_graph = graph;
    s.oracle_s = t.elapsed().as_secs_f64();
    s
}

/// `analyze_stream` over `traffic` with a fresh analyzer, in canonical
/// order, and the graph that analyzer mined.
fn inline_analysis(w: &Workload, s: &Setup, traffic: &[Message]) -> (Vec<Diagnosis>, ServiceGraph) {
    let mut inline = s.analyzer(w);
    let mut d = analyze_stream(&mut inline, traffic.iter());
    canonical_order(&mut d);
    (d, inline.traffic_graph().clone())
}

fn attribute(w: &Workload, s: &Setup, d: &mut [Diagnosis], graph: &ServiceGraph) {
    if w.cascades {
        attribute_cascades(d, graph, s.library.catalog(), CascadeParams::default());
    }
}

/// Widest single-operation span in messages (set-up only: ground truth
/// never reaches the program under test).
fn max_op_span(traffic: &[Message]) -> usize {
    let mut spans: HashMap<u64, (usize, usize)> = HashMap::new();
    for (i, m) in traffic.iter().enumerate() {
        if let Some(op) = m.truth_op {
            spans.entry(op.0).or_insert((i, i)).1 = i;
        }
    }
    spans.values().map(|(a, b)| b - a + 1).max().unwrap_or(1)
}

/// Resource telemetry for every node, every 100 ms from stream start to a
/// second past its end, with a CPU surge on the first compute node over
/// the middle third — so Algorithm 3 finds a resource cause for some
/// diagnoses and walks every node for the rest.
fn telemetry_for(dep: &Deployment, span_us: u64, seed: u64) -> TelemetryStore {
    const STEP_US: u64 = 100_000;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E1E);
    let end = span_us + 1_000_000;
    let surge = (span_us / 3)..(2 * span_us / 3);
    let hot = dep.compute_nodes().first().copied();
    let mut samples = Vec::new();
    for node in dep.nodes() {
        let base = Baseline::for_role(node.role);
        let mut ts = 0;
        while ts <= end {
            let active = if Some(node.id) == hot && surge.contains(&ts) {
                120
            } else {
                0
            };
            for kind in ResourceKind::ALL {
                let value = sample_value(&mut rng, &base, kind, active);
                samples.push(ResourceSample {
                    ts,
                    node: node.id,
                    kind,
                    value,
                });
            }
            ts += STEP_US;
        }
    }
    TelemetryStore::from_samples(&samples, &[])
}

/// A directory for one run's stores inside the benchmark's output
/// directory, removed when dropped — also when the run panics.
pub struct StoreDir(PathBuf);

impl StoreDir {
    pub fn fresh(out: &Path, tag: &str) -> Result<StoreDir, String> {
        let dir = out.join(format!("stores-{}-{tag}", std::process::id()));
        let made = (|| {
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
            std::fs::create_dir_all(&dir)
        })();
        made.map_err(|e| format!("store directory {}: {e}", dir.display()))?;
        Ok(StoreDir(dir))
    }

    pub fn open(&self, shards: usize) -> Result<Vec<FileStore>, String> {
        (0..shards)
            .map(|i| {
                FileStore::open(
                    self.0.join(format!("shard-{i}")),
                    FileStoreConfig::default(),
                )
                .map_err(|e| format!("open shard store: {e}"))
            })
            .collect()
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one call of the workload's entry point produced.
pub struct RunOut {
    pub wall: Duration,
    pub diagnoses: Vec<Diagnosis>,
    pub graph: Option<ServiceGraph>,
    pub channel_ops: u64,
    pub checkpoints: u64,
}

/// Durable journal facts gathered from the stores after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal {
    pub bytes: u64,
    /// FNV-1a of each shard's logical log.
    pub hashes: Vec<u64>,
}

/// One call of the workload's entry point. Only the call itself is timed.
/// Durable runs take their stores from `stores`, one per shard.
pub fn run_entry(
    w: &Workload,
    s: &Setup,
    stores: Option<&mut [&mut (dyn Store + Send)]>,
) -> Result<RunOut, String> {
    match w.entry {
        Entry::Sharded => {
            let cfg = w.sharded_config();
            let t = Instant::now();
            let out = run_sharded(&s.library, s.gcfg, &s.nodes, &s.traffic, &cfg);
            let wall = t.elapsed();
            let out = out.map_err(|e| e.to_string())?;
            Ok(RunOut {
                wall,
                channel_ops: out.shards.iter().map(|r| r.service.channel_ops).sum(),
                checkpoints: 0,
                diagnoses: out.diagnoses,
                graph: Some(out.graph),
            })
        }
        Entry::Service => {
            let cfg = w.service_config();
            let mut analyzer = s.analyzer(w);
            let t = Instant::now();
            let out = run_service_checked(&mut analyzer, &s.nodes, &s.traffic, &cfg);
            let wall = t.elapsed();
            let (mut diagnoses, stats, _) = out.map_err(|e| e.to_string())?;
            canonical_order(&mut diagnoses);
            Ok(RunOut {
                wall,
                diagnoses,
                graph: None,
                channel_ops: stats.channel_ops,
                checkpoints: 0,
            })
        }
        Entry::ShardedDurable => {
            let stores = stores.ok_or("durable workload needs stores")?;
            // The default checkpoint cadence, budget and (through
            // `FileStoreConfig::default`) sync policy; the service shape
            // comes from the sharded config.
            let (cfg, dcfg) = (w.sharded_config(), DurableConfig::default());
            let t = Instant::now();
            let out = run_sharded_durable(
                &s.library, s.gcfg, &s.nodes, &s.traffic, &cfg, &dcfg, stores,
            );
            let wall = t.elapsed();
            let out = out.map_err(|e| e.to_string())?;
            Ok(RunOut {
                wall,
                channel_ops: out.shards.iter().map(|r| r.service.channel_ops).sum(),
                checkpoints: out
                    .shards
                    .iter()
                    .filter_map(|r| r.recovery)
                    .map(|r| r.checkpoints_written)
                    .sum(),
                diagnoses: out.diagnoses,
                graph: Some(out.graph),
            })
        }
    }
}

pub fn journal_of<S: Store>(stores: &[S]) -> Journal {
    Journal {
        bytes: stores.iter().map(|s| s.bytes().len() as u64).sum(),
        hashes: stores
            .iter()
            .map(|s| gretel_core::store::fnv1a(s.bytes()))
            .collect(),
    }
}

/// Missing, extra or differing diagnoses in `got` against `want`. A
/// differing diagnosis is one missing plus one extra, counted once.
pub fn mismatches(want: &[Diagnosis], got: &[Diagnosis]) -> usize {
    let enc = |d: &Diagnosis| encode_diagnoses(std::slice::from_ref(d));
    let mut count: HashMap<Vec<u8>, i64> = HashMap::new();
    for d in want {
        *count.entry(enc(d)).or_default() += 1;
    }
    for d in got {
        *count.entry(enc(d)).or_default() -= 1;
    }
    let missing: i64 = count.values().filter(|&&c| c > 0).sum();
    let extra: i64 = -count.values().filter(|&&c| c < 0).sum::<i64>();
    missing.max(extra) as usize
}

/// Whether a run's output passes every check: diagnoses against the
/// oracle and, for sharded runs, the merged graph against the inline one.
pub fn check(s: &Setup, out: &RunOut) -> usize {
    let graph_ok = out.graph.as_ref().is_none_or(|g| *g == s.oracle_graph);
    let m = if encode_diagnoses(&out.diagnoses) == s.oracle_bytes {
        0
    } else {
        mismatches(&s.oracle, &out.diagnoses).max(1)
    };
    if graph_ok {
        m
    } else {
        m.max(1)
    }
}
