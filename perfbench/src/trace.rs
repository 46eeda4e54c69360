//! The outside-in trace: spans recorded by the benchmark around calls into
//! each layer's public functions, a single-threaded replay of a workload's
//! traffic through those calls in pipeline order, and a timing `Store`
//! wrapper for the real durable call.

use crate::workload::{Entry, Setup, Workload};
use gretel_core::store::{FileStore, Store, StoreError};
use gretel_core::{
    attribute_cascades, canonical_order, encode_diagnoses, scan_message, Analyzer, CascadeParams,
    Diagnosis, FaultMark, RcaContext, RcaEngine, RecoveryConfig, ServiceGraph, Snapshot,
    SnapshotAnalyzer, SnapshotJob,
};
use gretel_model::{Message, OperationSpec};
use gretel_netcap::{batch_frames, encode, encode_seq, partition_messages, CaptureAgent};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory; written out once the benchmark ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    pub fn total(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Sum of self times (duration minus the part covered by child spans)
    /// of every span that is a layer call rather than a container.
    pub fn layer_self_ns(&self) -> u64 {
        let mut self_ns: Vec<i64> = self.spans.iter().map(|s| s.ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= s.ns() as i64;
            }
        }
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| !CONTAINERS.contains(&s.name))
            .map(|(_, ns)| ns.max(0) as u64)
            .sum()
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(f, "]")?;
        f.flush()
    }
}

/// Spans that only group layer calls.
const CONTAINERS: [&str; 4] = ["replay", "shard", "job", "durable.call"];

/// Counts taken at the same boundaries the spans cover.
#[derive(Debug, Default)]
pub struct Counts {
    pub messages: u64,
    pub frames: u64,
    pub wire_bytes: u64,
    pub batches: u64,
    pub faults_marked: u64,
    pub jobs: u64,
    pub diagnoses: u64,
    pub rca_calls: u64,
    pub state_bytes: Vec<u64>,
    pub shard_sizes: Vec<usize>,
}

pub struct Replay {
    pub tracer: Tracer,
    pub counts: Counts,
    /// Whether the replay reproduced the oracle byte for byte (and, for
    /// sharded workloads, its traffic graph).
    pub identical: bool,
}

/// Replay the workload's traffic on one thread through the public layer
/// calls, in the order the pipeline makes them: route, then per shard and
/// per capture agent encode → batch → decode → scan, the k-way merge,
/// ingest, detect (and RCA) per job, checkpoint export at the durable
/// cadence; then the cross-shard merge and cascade attribution.
pub fn replay(w: &Workload, s: &Setup, epoch: Instant) -> Replay {
    let mut tr = Tracer::new(epoch);
    let mut c = Counts::default();
    let root = tr.begin("replay", None);
    let routed;
    let parts: Vec<&[Message]> = if w.entry == Entry::Service {
        vec![&s.traffic]
    } else {
        let id = tr.begin("netcap.route", Some(root));
        routed = partition_messages(&s.traffic, w.shards);
        tr.end(id);
        routed.iter().map(Vec::as_slice).collect()
    };
    c.shard_sizes = parts.iter().map(|p| p.len()).collect();
    let sequenced = w.entry == Entry::ShardedDurable;
    let checkpoint_every = RecoveryConfig::default().checkpoint_every;
    let rca = w.rca.then(|| s.rca());

    let mut diagnoses = Vec::new();
    let mut graphs = Vec::new();
    for part in parts {
        let sh = tr.begin("shard", Some(root));
        let mut streams = Vec::with_capacity(s.nodes.len());
        for &node in &s.nodes {
            let agent = CaptureAgent::new(node);
            let mine: Vec<&Message> = part.iter().filter(|m| agent.observes(m)).collect();
            let mut stream: Vec<(Message, FaultMark)> = Vec::with_capacity(mine.len());
            for (i, chunk) in mine.chunks(w.ingest_batch).enumerate() {
                let id = tr.begin("netcap.encode", Some(sh));
                let frames: Vec<_> = if sequenced {
                    let base = (i * w.ingest_batch) as u64;
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(j, m)| encode_seq(m, base + j as u64))
                        .collect()
                } else {
                    chunk.iter().map(|m| encode(m)).collect()
                };
                tr.end(id);
                c.frames += frames.len() as u64;
                c.wire_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
                let id = tr.begin("netcap.batch", Some(sh));
                let batches = batch_frames(&frames, w.ingest_batch);
                tr.end(id);
                c.batches += batches.len() as u64;
                for batch in &batches {
                    let id = tr.begin("netcap.decode", Some(sh));
                    let decoded = batch
                        .decode_all()
                        .expect("frames this replay encoded decode");
                    tr.end(id);
                    let id = tr.begin("core.anomaly.scan", Some(sh));
                    let marks: Vec<FaultMark> =
                        decoded.iter().map(|(m, _)| scan_message(m)).collect();
                    tr.end(id);
                    c.faults_marked +=
                        marks.iter().filter(|m| **m != FaultMark::None).count() as u64;
                    stream.extend(decoded.into_iter().map(|(m, _)| m).zip(marks));
                }
            }
            streams.push(stream);
        }
        let merged = kway_merge(streams);

        let mut analyzer = Analyzer::new(&s.library, s.gcfg);
        let sa = analyzer.snapshot_analyzer();
        let mut ingested = 0u64;
        for chunk in merged.chunks(w.ingest_batch) {
            let id = tr.begin("core.analyzer.ingest", Some(sh));
            let mut jobs = Vec::new();
            for (m, mark) in chunk {
                jobs.extend(analyzer.ingest_marked(m, *mark, None));
            }
            tr.end(id);
            let before = ingested / checkpoint_every;
            ingested += chunk.len() as u64;
            analyze(&mut tr, sh, &sa, rca, jobs, &mut c, &mut diagnoses);
            if sequenced && ingested / checkpoint_every > before {
                let id = tr.begin("core.checkpoint.export", Some(sh));
                let state = analyzer
                    .export_state()
                    .expect("default analyzer is checkpointable");
                tr.end(id);
                c.state_bytes.push(state.len() as u64);
            }
        }
        let id = tr.begin("core.analyzer.ingest", Some(sh));
        let jobs = analyzer.finish_jobs();
        tr.end(id);
        analyze(&mut tr, sh, &sa, rca, jobs, &mut c, &mut diagnoses);
        c.messages += ingested;
        graphs.push(analyzer.traffic_graph().clone());
        tr.end(sh);
    }

    let mut graph = ServiceGraph::new();
    if w.entry == Entry::Service {
        canonical_order(&mut diagnoses);
        graph = graphs.pop().expect("one pipeline");
    } else {
        let id = tr.begin("core.shard.merge", Some(root));
        for g in &graphs {
            graph.merge(g);
        }
        canonical_order(&mut diagnoses);
        tr.end(id);
    }
    if w.cascades {
        let id = tr.begin("core.graph.attribute", Some(root));
        attribute_cascades(
            &mut diagnoses,
            &graph,
            s.library.catalog(),
            CascadeParams::default(),
        );
        tr.end(id);
    }
    tr.end(root);
    let identical = encode_diagnoses(&diagnoses) == s.oracle_bytes && graph == s.oracle_graph;
    Replay {
        tracer: tr,
        counts: c,
        identical,
    }
}

/// The receiver's merge: repeatedly take the stream head with the
/// smallest `(ts, id)`.
fn kway_merge(streams: Vec<Vec<(Message, FaultMark)>>) -> Vec<(Message, FaultMark)> {
    let total = streams.iter().map(Vec::len).sum();
    let mut iters: Vec<_> = streams
        .into_iter()
        .map(|s| s.into_iter().peekable())
        .collect();
    let mut out = Vec::with_capacity(total);
    loop {
        let mut best: Option<(usize, (u64, u64))> = None;
        for (i, it) in iters.iter_mut().enumerate() {
            if let Some((m, _)) = it.peek() {
                let key = (m.ts_us, m.id.0);
                if best.is_none_or(|(_, k)| key < k) {
                    best = Some((i, key));
                }
            }
        }
        let Some((i, _)) = best else { break };
        out.push(iters[i].next().expect("peeked"));
    }
    out
}

/// Detect each job (one span per job) and, when the workload carries an
/// RCA context, run Algorithm 3 for each of its diagnoses (one span per
/// call) exactly as the analyzer's own RCA step would. Both sit under one
/// `job` span.
fn analyze(
    tr: &mut Tracer,
    parent: usize,
    sa: &SnapshotAnalyzer<'_>,
    rca: Option<RcaContext<'_>>,
    jobs: Vec<SnapshotJob>,
    c: &mut Counts,
    out: &mut Vec<Diagnosis>,
) {
    for job in jobs {
        let j = tr.begin("job", Some(parent));
        let id = tr.begin("core.detect", Some(j));
        let mut ds = sa.analyze(&job);
        tr.end(id);
        c.jobs += 1;
        c.diagnoses += ds.len() as u64;
        if let Some(ctx) = rca {
            let engine = RcaEngine::new(ctx.deployment, ctx.telemetry);
            for d in &mut ds {
                let r = tr.begin("core.rca", Some(j));
                d.root_causes = root_causes(&engine, ctx.specs, job.snapshot(), d);
                tr.end(r);
                c.rca_calls += 1;
            }
        }
        tr.end(j);
        out.extend(ds);
    }
}

/// Algorithm 3's inputs as the analyzer derives them: the matched
/// operations, the fault event's endpoints and the snapshot's time span.
fn root_causes(
    engine: &RcaEngine<'_>,
    specs: &[OperationSpec],
    snap: &Snapshot,
    d: &Diagnosis,
) -> Vec<gretel_core::RootCause> {
    let Some(fault) = snap.events.iter().find(|e| e.ts == d.ts) else {
        return Vec::new();
    };
    let matched: Vec<&OperationSpec> = d
        .matched
        .iter()
        .filter_map(|op| specs.get(op.index()))
        .collect();
    let from = snap.events.first().map_or(0, |e| e.ts);
    let until = snap.events.last().map_or(1, |e| e.ts + 1);
    engine.analyze(&matched, &[fault.src_node, fault.dst_node], from, until)
}

/// A `Store` that times every append and sync of the `FileStore` it wraps
/// and otherwise forwards unchanged.
pub struct TimedStore {
    inner: FileStore,
    epoch: Instant,
    pub appends: Vec<(u64, u64)>,
    pub syncs: Vec<(u64, u64)>,
}

impl TimedStore {
    pub fn new(inner: FileStore, epoch: Instant) -> TimedStore {
        TimedStore {
            inner,
            epoch,
            appends: Vec::new(),
            syncs: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Store for TimedStore {
    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        let t0 = self.now();
        let r = self.inner.append(kind, payload);
        self.appends.push((t0, self.now()));
        r
    }

    fn bytes(&self) -> &[u8] {
        self.inner.bytes()
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        let t0 = self.now();
        let r = self.inner.sync();
        self.syncs.push((t0, self.now()));
        r
    }

    fn rotate(&mut self) -> Result<(), StoreError> {
        self.inner.rotate()
    }

    fn corrupt_record(&mut self, index: usize, byte: usize) -> bool {
        self.inner.corrupt_record(index, byte)
    }
}

/// Fold the wrapper's timings into `tr` as spans under one container
/// span covering the whole durable call.
pub fn record_store_spans(tr: &mut Tracer, call: (u64, u64), stores: &[TimedStore]) {
    tr.spans.push(Span {
        name: "durable.call",
        parent: None,
        start_ns: call.0,
        end_ns: call.1,
    });
    let root = tr.spans.len() - 1;
    for st in stores {
        for &(a, b) in &st.appends {
            tr.spans.push(Span {
                name: "store.append",
                parent: Some(root),
                start_ns: a,
                end_ns: b,
            });
        }
        for &(a, b) in &st.syncs {
            tr.spans.push(Span {
                name: "store.sync",
                parent: Some(root),
                start_ns: a,
                end_ns: b,
            });
        }
    }
}
