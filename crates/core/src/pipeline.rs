//! The one pipeline (paper Fig 3), threaded: capture agents → bounded
//! links → resequencing receiver → k-way merge → analyzer, with snapshot
//! analysis on a supervised worker pool. Every public entry point —
//! [`run_service_checked`](crate::run_service_checked),
//! [`run_service_durable`](crate::run_service_durable) and the two sharded
//! drivers built on them — runs this code; durability is an optional
//! store, not a second implementation.
//!
//! One capture-agent thread per node encodes its egress traffic into
//! frames, packs them into arena-backed [`FrameBatch`]es
//! ([`ServiceConfig::ingest_batch`] frames per channel operation), and
//! ships the batches over a bounded channel. The receiver decodes each
//! batch zero-copy out of its arena, resequences it when frames carry
//! sequence numbers (turning inferred losses into window gap markers),
//! scans the whole batch for failure patterns in one tight pass, and
//! k-way merges the per-agent streams on `(ts, id)` into the [`Analyzer`]
//! (each agent's stream is in timestamp order, like a TCP stream from Bro
//! preserves order, §5.2).
//!
//! Batching is a transport-granularity knob, never a semantic one: frames
//! keep their per-agent order inside each arena, the merge consumes one
//! message at a time, and the fault scan is a pure function of each
//! message — so the diagnosis stream is byte-identical for every
//! `ingest_batch` value, including under impairment and crash replay
//! (`tests/batched_ingest.rs` holds that oracle).
//!
//! The per-message fast path (byte scan, latency pairing, window push)
//! stays on the receiver thread — it is stateful and cheap. Completed
//! snapshots are the expensive, stateless part (Algorithm 2 over every
//! claimed error, plus RCA); they ship as [`SnapshotJob`]s to the
//! [`Pool`]. Each job carries a sequence number and results are released
//! in that order, so the output is identical to inline analysis regardless
//! of worker scheduling.
//!
//! With a store ([`Durable`]) the run also crosses checkpoint boundaries,
//! honours scheduled crash/kill/reload arms and restores after a crash
//! (see [`crate::recover`]); without one none of that machinery runs and
//! the analyzer never has to export its state.

use crate::analyzer::{Analyzer, JobBudget, SnapshotAnalyzer, SnapshotJob};
use crate::anomaly::scan_message;
use crate::event::FaultMark;
use crate::recover::{
    decode_checkpoint, encode_checkpoint, encode_release, AnalyzerChaos, LibraryReload,
    RecoveryConfig, RecoveryStats, KIND_CHECKPOINT, KIND_DIAGNOSES, KIND_LIBRARY,
};
use crate::report::Diagnosis;
use crate::service::{BackpressurePolicy, ServiceConfig, ServiceError, ServiceStats};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use gretel_model::{Message, MessageId, NodeId};
use gretel_netcap::{
    batch_frames, CaptureAgent, CaptureStats, FrameBatch, FrameBatchBuilder, Resequencer,
};
use gretel_obs::{Meter, PipelineMetrics, Stage, StageTimer};
use gretel_store::Store;
use std::collections::{BTreeMap, VecDeque};
use std::thread::Scope;
use std::time::Duration;

/// One agent's decoded stream at the receiver: batches are decoded
/// zero-copy out of their arena, resequenced (when sequenced) into
/// `(gap_before, message)` pairs, scanned for failure patterns in one
/// batch-wide pass, and buffered until the k-way merge consumes them.
pub(crate) struct AgentStream {
    pub(crate) reseq: Option<Resequencer>,
    pub(crate) ready: VecDeque<(u32, Message, FaultMark)>,
    done: bool,
}

impl AgentStream {
    pub(crate) fn new(
        reseq: Option<Resequencer>,
        ready: VecDeque<(u32, Message, FaultMark)>,
    ) -> AgentStream {
        AgentStream { reseq, ready, done: false }
    }

    /// Scan a run of released messages (one decoded batch's worth) and
    /// queue them for the merge. The SWAR scanners run back to back over
    /// the batch while it is cache-hot; the scan is pure, so the marks are
    /// the ones inline ingest (or a replay after restore) computes.
    fn admit(&mut self, released: impl IntoIterator<Item = (u32, Message)>) {
        for (gap, msg) in released {
            let mark = scan_message(&msg);
            self.ready.push_back((gap, msg, mark));
        }
    }

    /// Pull batches until at least one message is ready or the stream ends.
    fn refill(
        &mut self,
        rx: &Receiver<FrameBatch>,
        stats: &mut ServiceStats,
        metrics: Option<&PipelineMetrics>,
    ) -> Result<(), ServiceError> {
        while self.ready.is_empty() && !self.done {
            let Ok(batch) = rx.recv() else {
                self.done = true;
                if let Some(r) = &mut self.reseq {
                    let released = r.flush();
                    self.admit(released);
                }
                continue;
            };
            stats.channel_ops += 1;
            stats.frames += batch.frames() as u64;
            stats.bytes += batch.byte_len() as u64;
            let decoded = batch.decode_all()?;
            let Some(r) = &mut self.reseq else {
                self.admit(decoded.into_iter().map(|(msg, _)| (0, msg)));
                continue;
            };
            // One timing sample per batch, one counted event per frame:
            // stage latencies show the batch-level dispatch cost while
            // event counts stay per-item (see gretel-obs).
            let n = decoded.len() as u64;
            let mut released = Vec::with_capacity(decoded.len());
            let t = StageTimer::start(metrics, Stage::Resequence);
            for (msg, seq) in decoded {
                released.extend(r.push(seq, msg));
            }
            t.finish();
            if let Some(m) = metrics {
                m.count(Stage::Resequence, n);
            }
            self.admit(released);
        }
        Ok(())
    }
}

/// Fresh receiver streams, one per agent.
fn fresh_streams(agents: usize, cfg: &ServiceConfig) -> Vec<AgentStream> {
    let sequenced = cfg.sequenced();
    (0..agents)
        .map(|_| {
            AgentStream::new(
                sequenced.then(|| Resequencer::new(cfg.resequence_depth)),
                VecDeque::new(),
            )
        })
        .collect()
}

/// The stream whose head message comes next in `(ts, id)` order (the
/// first such stream on a tie), or `None` once every stream is drained.
fn next_head(streams: &[AgentStream]) -> Option<usize> {
    let mut best: Option<(usize, (u64, MessageId))> = None;
    for (i, st) in streams.iter().enumerate() {
        if let Some((_, m, _)) = st.ready.front() {
            let key = (m.ts_us, m.id);
            if best.is_none_or(|(_, best_key)| key < best_key) {
                best = Some((i, key));
            }
        }
    }
    best.map(|(i, _)| i)
}

/// Ship one frame batch under a backpressure policy. Returns `false` if
/// the receiver went away. `evict_rx` must be `Some` under
/// [`BackpressurePolicy::DropOldest`] and `None` under
/// [`BackpressurePolicy::Block`] — a blocking agent must not hold a
/// receiver clone, or its own handle would keep the link alive (and its
/// sends blocked forever) after the real receiver hung up.
fn ship_batch(
    mut batch: FrameBatch,
    tx: &Sender<FrameBatch>,
    evict_rx: Option<&Receiver<FrameBatch>>,
    drops: &mut u64,
) -> bool {
    let Some(evict_rx) = evict_rx else {
        return tx.send(batch).is_ok();
    };
    loop {
        match tx.try_send(batch) {
            Ok(()) => return true,
            Err(TrySendError::Full(b)) => {
                batch = b;
                // Evict the oldest queued batch. The receiver may race us
                // to it — then the queue has room anyway; yield and retry.
                // Eviction granularity is the batch, but drops are
                // accounted per frame so the capture arithmetic is
                // batch-size independent.
                if let Ok(evicted) = evict_rx.try_recv() {
                    *drops += evicted.frames() as u64;
                } else {
                    std::thread::yield_now();
                }
            }
            Err(TrySendError::Disconnected(_)) => return false,
        }
    }
}

/// Spawn `node`'s capture agent on `scope` and return the receiving end
/// of its bounded link. The agent reports `(capture stats, backpressure
/// drops)` on `stat_tx` once its stream is shipped (or the receiver hung
/// up), then closes the link.
///
/// Sequenced configurations capture the whole stream first, stamping
/// per-agent sequence numbers, because impairment coins key on per-agent
/// frame indices and must see the flat frame list before it is packed
/// into arenas. Unsequenced ones stream, packing each arena as frames
/// arrive.
fn spawn_agent<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    node: NodeId,
    traffic: &'env [Message],
    cfg: &ServiceConfig,
    stat_tx: Sender<(CaptureStats, u64)>,
) -> Receiver<FrameBatch> {
    let (tx, rx) = bounded::<FrameBatch>(cfg.channel_capacity);
    // Under Block the agent must not hold a receiver handle (see
    // [`ship_batch`]); under DropOldest it keeps one to evict with.
    let evict_rx = (cfg.backpressure == BackpressurePolicy::DropOldest).then(|| rx.clone());
    let (sequenced, impairment, ingest_batch) = (cfg.sequenced(), cfg.impairment, cfg.ingest_batch);
    scope.spawn(move || {
        let agent = CaptureAgent::new(node);
        let mut capture = CaptureStats::default();
        let mut drops = 0u64;
        let mut ship = |batch| ship_batch(batch, &tx, evict_rx.as_ref(), &mut drops);
        if sequenced {
            let frames = agent.capture_seq(traffic.iter(), 0);
            let frames = match impairment {
                Some(imp) => imp.apply(node, frames, &mut capture),
                None => {
                    capture.frames += frames.len() as u64;
                    frames
                }
            };
            // `all` stops at the first failed send: the receiver is gone.
            let _ = batch_frames(&frames, ingest_batch).into_iter().all(&mut ship);
        } else {
            let mut builder = FrameBatchBuilder::new(ingest_batch);
            let alive = traffic.iter().filter(|m| agent.observes(m)).all(|msg| {
                capture.frames += 1;
                builder.push(&gretel_netcap::encode(msg)).is_none_or(&mut ship)
            });
            if let Some(batch) = builder.finish().filter(|_| alive) {
                ship(batch);
            }
        }
        let _ = stat_tx.send((capture, drops));
        // tx drops here, closing the stream.
    });
    rx
}

type JobMsg = (u64, u32, SnapshotJob);

/// What a worker sends back for a job: its result `(seq, diagnoses,
/// cancelled)`, or the job itself when the worker crashed on it.
enum Report {
    Done(u64, Vec<Diagnosis>, bool),
    Crashed(JobMsg),
}

/// Marker panic payload for a chaos-killed worker; raised with
/// `resume_unwind` so the panic hook (and its stderr backtrace) is
/// skipped — the supervisor handles the crash, nobody needs the noise.
struct ChaosKill;

/// The worker pool plus its supervisor state. The receiver thread owns
/// this and *is* the supervisor: it pumps results and crash reports
/// between merge steps, restarts dead workers with capped exponential
/// backoff, and requeues their in-flight jobs. A job that keeps crashing
/// past [`RecoveryConfig::max_attempts`] is abandoned visibly: its faults
/// surface as `Cancelled` diagnoses.
struct Pool<'sc, 'env> {
    scope: &'sc Scope<'sc, 'env>,
    job_tx: Sender<JobMsg>,
    /// Held only to hand clones to respawned workers (never received
    /// from), so the job channel cannot disconnect while jobs are queued.
    job_rx: Receiver<JobMsg>,
    /// The pool keeps a sender, so `report_rx` never disconnects.
    report_tx: Sender<Report>,
    report_rx: Receiver<Report>,
    sa: SnapshotAnalyzer<'env>,
    chaos: AnalyzerChaos,
    budget: JobBudget,
    max_attempts: u32,
    metrics: Option<&'env PipelineMetrics>,
    /// Jobs submitted but not yet resolved into `pending`.
    outstanding: usize,
    /// Resolved results by job sequence number: `(diagnoses, cancelled)`.
    pending: BTreeMap<u64, (Vec<Diagnosis>, bool)>,
    worker_crashes: u64,
    jobs_requeued: u64,
}

impl<'sc, 'env> Pool<'sc, 'env> {
    fn start(
        scope: &'sc Scope<'sc, 'env>,
        sa: SnapshotAnalyzer<'env>,
        cfg: &'env RecoveryConfig,
    ) -> Pool<'sc, 'env> {
        let (job_tx, job_rx) = bounded(cfg.service.channel_capacity);
        let (report_tx, report_rx) = unbounded();
        let pool = Pool {
            scope,
            job_tx,
            job_rx,
            report_tx,
            report_rx,
            sa,
            chaos: cfg.chaos,
            budget: cfg.budget,
            max_attempts: cfg.max_attempts,
            metrics: cfg.service.metrics.as_deref(),
            outstanding: 0,
            pending: BTreeMap::new(),
            worker_crashes: 0,
            jobs_requeued: 0,
        };
        for _ in 0..cfg.service.effective_workers() {
            pool.spawn_worker();
        }
        pool
    }

    fn spawn_worker(&self) {
        let job_rx = self.job_rx.clone();
        let report_tx = self.report_tx.clone();
        let (sa, chaos, budget) = (self.sa, self.chaos, self.budget);
        self.scope.spawn(move || {
            while let Ok((seq, attempt, job)) = job_rx.recv() {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if chaos.kill(seq, attempt) {
                        std::panic::resume_unwind(Box::new(ChaosKill));
                    }
                    // A stalled job is modeled as one whose budget is
                    // already gone: analyze_bounded cancels it. Zero
                    // passes, not a zero duration — the stall coin is
                    // seeded, so the cancellation replays identically.
                    let b = if chaos.stall(seq, attempt) { JobBudget::Passes(0) } else { budget };
                    sa.analyze_bounded(&job, b)
                }));
                let Ok((ds, cancelled)) = outcome else {
                    // The worker is now considered crashed: report the
                    // in-flight job and die. The supervisor restarts us.
                    let _ = report_tx.send(Report::Crashed((seq, attempt, job)));
                    return;
                };
                if report_tx.send(Report::Done(seq, ds, cancelled)).is_err() {
                    return; // collector gone (teardown)
                }
            }
        });
    }

    /// Handle one crash report: restart the worker (after backoff) and
    /// requeue or abandon the job.
    fn handle_crash(&mut self, (seq, attempt, job): JobMsg) -> Result<(), ServiceError> {
        self.worker_crashes += 1;
        // Capped exponential backoff before the replacement worker comes
        // up: 100µs · 2^attempt, at most 10ms — enough to not hot-loop on
        // a deterministic crasher, short enough for tests.
        let backoff = Duration::from_micros(100 << attempt.min(7)).min(Duration::from_millis(10));
        std::thread::sleep(backoff);
        self.spawn_worker();
        if attempt + 1 < self.max_attempts {
            self.jobs_requeued += 1;
            self.submit_raw((seq, attempt + 1, job))
        } else {
            // Retry budget exhausted: abandon visibly. The supervisor
            // produces the cancellation surface itself — no worker needed.
            self.pending.insert(seq, (self.sa.cancel(&job), true));
            self.outstanding -= 1;
            Ok(())
        }
    }

    fn resolve(&mut self, report: Report) -> Result<(), ServiceError> {
        match report {
            Report::Crashed(job) => self.handle_crash(job),
            Report::Done(seq, ds, cancelled) => {
                self.pending.insert(seq, (ds, cancelled));
                self.outstanding -= 1;
                Ok(())
            }
        }
    }

    /// Block for the next report and resolve it. Call only with jobs
    /// outstanding: then a report is always coming, because every worker
    /// slot holds either a live worker or its unhandled crash report.
    fn wait_one(&mut self) -> Result<(), ServiceError> {
        let report = self.report_rx.recv().map_err(|_| ServiceError::PoolDisconnected)?;
        self.resolve(report)
    }

    /// Resolve whatever reports are immediately available.
    fn pump(&mut self) -> Result<(), ServiceError> {
        while self.outstanding > 0 {
            let Ok(report) = self.report_rx.try_recv() else { break };
            self.resolve(report)?;
        }
        Ok(())
    }

    fn submit_raw(&mut self, mut job: JobMsg) -> Result<(), ServiceError> {
        loop {
            match self.job_tx.try_send(job) {
                Ok(()) => break,
                // A full queue holds outstanding jobs: wait for one to
                // resolve, which frees a worker to take from the queue.
                Err(TrySendError::Full(j)) => {
                    job = j;
                    self.wait_one()?;
                }
                Err(TrySendError::Disconnected(_)) => return Err(ServiceError::PoolDisconnected),
            }
        }
        if let Some(m) = self.metrics {
            m.record_max(Meter::JobQueueDepthMax, self.job_tx.len() as u64);
        }
        Ok(())
    }

    /// Submit a fresh job (attempt 0).
    fn submit(&mut self, seq: u64, job: SnapshotJob) -> Result<(), ServiceError> {
        self.outstanding += 1;
        self.submit_raw((seq, 0, job))
    }

    /// Block until every submitted job has resolved into `pending`.
    fn quiesce(&mut self) -> Result<(), ServiceError> {
        while self.outstanding > 0 {
            self.wait_one()?;
        }
        Ok(())
    }
}

/// The durable half of a run: the store, and the scheduled arms that only
/// make sense when there is a store to restore from.
pub(crate) struct Durable<'s> {
    pub(crate) store: &'s mut dyn Store,
    crash_points: VecDeque<u64>,
    kill_point: Option<u64>,
    reloads: VecDeque<LibraryReload>,
    /// Chaos corrupt-coin index: counts every checkpoint record ever
    /// appended to this store, corrupt ones included.
    ckpt_index: u64,
    first_cycle: bool,
    /// Pristine analyzer state for cold replay (no usable checkpoint);
    /// each library epoch sets its own before running.
    pub(crate) initial_state: Vec<u8>,
}

impl<'s> Durable<'s> {
    pub(crate) fn new(
        store: &'s mut dyn Store,
        crash_points: &[u64],
        kill_point: Option<u64>,
        reloads: &[LibraryReload],
    ) -> Durable<'s> {
        let ckpt_index = gretel_store::records(store.bytes())
            .filter(|r| r.kind == KIND_CHECKPOINT)
            .count() as u64;
        Durable {
            store,
            crash_points: crash_points.iter().copied().collect(),
            kill_point,
            reloads: reloads.iter().cloned().collect(),
            ckpt_index,
            first_cycle: true,
            initial_state: Vec::new(),
        }
    }

    /// Restore `analyzer` from the newest valid checkpoint written under a
    /// library we actually have — one written under a larger
    /// (hot-reloaded) library whose snapshot record was lost or corrupted
    /// references fingerprints we cannot match, so restore falls back past
    /// it — or to the pristine state when there is none (cold replay).
    /// Returns the next job sequence number and the receiver streams.
    fn restore(
        &mut self,
        analyzer: &mut Analyzer<'_>,
        cfg: &ServiceConfig,
        agents: usize,
        stats: &mut RecoveryStats,
    ) -> Result<(u64, Vec<AgentStream>), ServiceError> {
        if !self.first_cycle {
            stats.restores += 1;
        }
        self.first_cycle = false;
        for payload in self.store.records_of(KIND_CHECKPOINT).into_iter().rev() {
            let (astate, next_seq, streams, ck_lib) = decode_checkpoint(payload, agents)?;
            if ck_lib as usize <= analyzer.library_len() {
                analyzer.restore_state(&astate)?;
                return Ok((next_seq, streams));
            }
        }
        analyzer.restore_state(&self.initial_state)?;
        Ok((0, fresh_streams(agents, cfg)))
    }
}

/// Cross-cycle state of one pipeline invocation.
pub(crate) struct Run<'s> {
    pub(crate) service: ServiceStats,
    pub(crate) recovery: RecoveryStats,
    /// Job seqs below this have been released; replay must not re-release.
    released_watermark: u64,
    /// Diagnoses released by an in-memory run, in job order. Durable runs
    /// release to the store instead.
    pub(crate) diagnoses: Vec<Diagnosis>,
    pub(crate) durable: Option<Durable<'s>>,
}

impl<'s> Run<'s> {
    /// `released_watermark` is the store's durable watermark (0 in memory).
    pub(crate) fn new(durable: Option<Durable<'s>>, released_watermark: u64) -> Run<'s> {
        Run {
            service: ServiceStats::default(),
            recovery: RecoveryStats::default(),
            released_watermark,
            diagnoses: Vec::new(),
            durable,
        }
    }

    /// Release every pending result below `up_to`, in job order,
    /// suppressing already-released duplicates. A durable run writes them
    /// as one [`KIND_DIAGNOSES`] record — even when the batch is empty: the
    /// watermark it carries must survive a process restart.
    fn release(
        &mut self,
        pool: &mut Pool<'_, '_>,
        up_to: u64,
        metrics: Option<&PipelineMetrics>,
    ) -> Result<(), ServiceError> {
        let t = StageTimer::start(metrics, Stage::Commit);
        let mut released = 0u64;
        let mut jobs: Vec<(u64, Vec<Diagnosis>)> = Vec::new();
        while let Some(entry) = pool.pending.first_entry() {
            if *entry.key() >= up_to {
                break;
            }
            let (seq, (ds, cancelled)) = entry.remove_entry();
            if seq < self.released_watermark {
                self.recovery.duplicate_releases_suppressed += 1;
                continue;
            }
            self.recovery.jobs_cancelled += cancelled as u64;
            released += ds.len() as u64;
            jobs.push((seq, ds));
        }
        match &mut self.durable {
            Some(d) => {
                let payload = encode_release(up_to, &jobs);
                d.store.append(KIND_DIAGNOSES, &payload)?;
                if let Some(m) = metrics {
                    m.add(Meter::StoreBytes, payload.len() as u64);
                }
            }
            None => self.diagnoses.extend(jobs.into_iter().flat_map(|(_, ds)| ds)),
        }
        self.released_watermark = self.released_watermark.max(up_to);
        t.finish();
        if let Some(m) = metrics {
            m.count(Stage::Commit, released);
        }
        Ok(())
    }

    /// One checkpoint boundary: quiesce the pool, release pending
    /// diagnoses ([`KIND_DIAGNOSES`] first — a torn tail then loses at
    /// most the checkpoint, and replay regenerates nothing that was
    /// released), append the checkpoint, maybe chaos-corrupt it, and sync
    /// the store.
    fn write_boundary(
        &mut self,
        pool: &mut Pool<'_, '_>,
        analyzer: &Analyzer<'_>,
        streams: &[AgentStream],
        seq: u64,
        metrics: Option<&PipelineMetrics>,
    ) -> Result<(), ServiceError> {
        pool.quiesce()?;
        self.release(pool, seq, metrics)?;
        let d = self.durable.as_mut().expect("boundaries are durable-only");
        let t = StageTimer::start(metrics, Stage::Checkpoint);
        let astate = analyzer.export_state().ok_or(ServiceError::NotCheckpointable)?;
        let payload = encode_checkpoint(&astate, seq, streams, analyzer.library_len() as u32);
        d.store.append(KIND_CHECKPOINT, &payload)?;
        t.finish();
        if let Some(m) = metrics {
            m.count(Stage::Checkpoint, 1);
            m.add(Meter::CheckpointsWritten, 1);
            m.add(Meter::CheckpointBytes, payload.len() as u64);
            m.add(Meter::StoreBytes, payload.len() as u64);
        }
        self.recovery.checkpoints_written += 1;
        if let Some(byte) = pool.chaos.corrupt(d.ckpt_index) {
            // The checkpoint is the record just appended — the last one on
            // the store, whatever mix of kinds precedes it.
            let last = d.store.len().saturating_sub(1);
            let corrupt_ok = d.store.corrupt_record(last, byte);
            debug_assert!(corrupt_ok, "just-appended record exists");
            self.recovery.checkpoints_corrupt += 1;
        }
        d.ckpt_index += 1;
        d.store.sync()?;
        Ok(())
    }
}

/// How one pipeline invocation ended.
pub(crate) enum RunEnd {
    /// Stream fully merged, all jobs resolved and released.
    Completed,
    /// The scheduled whole-process kill fired (nothing was committed).
    Killed,
    /// A library reload fired after a clean checkpoint boundary; the
    /// payload is the snapshot to re-enter with.
    Reload(Vec<u8>),
}

/// How one cycle ended: a [`RunEnd`], or an in-process crash after which
/// the next cycle restores from the store.
enum CycleEnd {
    End(RunEnd),
    Crashed,
}

/// Run the pipeline over `traffic` until the stream completes — or, with
/// a store, until a kill/reload arm ends the invocation early. Released
/// diagnoses land in [`Run::diagnoses`] (in memory) or on the store.
///
/// With a store, each cycle first restores from the newest usable
/// checkpoint; agents re-ship their whole deterministic stream and the
/// restored resequencers discard the consumed prefix as duplicates, so an
/// in-process crash point simply starts another cycle. The configuration
/// must have been checked by the caller.
pub(crate) fn run_pipeline(
    analyzer: &mut Analyzer<'_>,
    nodes: &[NodeId],
    traffic: &[Message],
    cfg: &RecoveryConfig,
    run: &mut Run<'_>,
) -> Result<RunEnd, ServiceError> {
    let metrics = cfg.service.metrics.as_deref();
    loop {
        let (mut seq, mut streams) = match &mut run.durable {
            Some(d) => d.restore(analyzer, &cfg.service, nodes.len(), &mut run.recovery)?,
            None => (0, fresh_streams(nodes.len(), &cfg.service)),
        };
        let dup_discarded = |streams: &[AgentStream]| -> u64 {
            streams.iter().filter_map(|s| s.reseq.as_ref()).map(|r| r.stats().dup_discarded).sum()
        };
        let replay_base = dup_discarded(&streams);
        let crash_point = run.durable.as_mut().and_then(|d| d.crash_points.pop_front());
        let sa = analyzer.snapshot_analyzer().with_metrics(metrics);

        let end = std::thread::scope(|scope| -> Result<CycleEnd, ServiceError> {
            let mut pool = Pool::start(scope, sa, cfg);
            let (stat_tx, stat_rx) = unbounded();
            let rxs: Vec<Receiver<FrameBatch>> = nodes
                .iter()
                .map(|&node| spawn_agent(scope, node, traffic, &cfg.service, stat_tx.clone()))
                .collect();
            drop(stat_tx);

            for (st, rx) in streams.iter_mut().zip(&rxs) {
                st.refill(rx, &mut run.service, metrics)?;
            }
            let mut merged = 0u64;
            let end = loop {
                if let Some(d) = &mut run.durable {
                    // A whole-process kill is a SIGKILL model: nothing gets
                    // checkpointed or committed, the uncommitted tail dies.
                    if d.kill_point.is_some_and(|p| merged >= p) {
                        break CycleEnd::End(RunEnd::Killed);
                    }
                    if crash_point.is_some_and(|p| merged >= p) {
                        break CycleEnd::Crashed;
                    }
                    // A reload, by contrast, is graceful: full checkpoint
                    // boundary first, then the snapshot record — a tear
                    // between the two loses only the reload, never state.
                    if d.reloads.front().is_some_and(|r| merged >= r.at_merged) {
                        let reload = d.reloads.pop_front().expect("checked non-empty");
                        run.write_boundary(&mut pool, analyzer, &streams, seq, metrics)?;
                        let d = run.durable.as_mut().expect("checked above");
                        d.store.append(KIND_LIBRARY, &reload.snapshot)?;
                        d.store.sync()?;
                        run.recovery.library_reloads += 1;
                        if let Some(m) = metrics {
                            m.add(Meter::LibraryReloads, 1);
                            m.add(Meter::StoreBytes, reload.snapshot.len() as u64);
                        }
                        break CycleEnd::End(RunEnd::Reload(reload.snapshot));
                    }
                }
                let Some(i) = next_head(&streams) else {
                    break CycleEnd::End(RunEnd::Completed);
                };
                let (gap, msg, mark) = streams[i].ready.pop_front().expect("head is nonempty");
                streams[i].refill(&rxs[i], &mut run.service, metrics)?;
                if gap > 0 {
                    analyzer.note_capture_gap(gap);
                }
                let t = StageTimer::start(metrics, Stage::Ingest);
                let jobs = analyzer.ingest_marked(&msg, mark, metrics);
                t.finish();
                if let Some(m) = metrics {
                    m.count(Stage::Ingest, 1);
                }
                for job in jobs {
                    pool.submit(seq, job)?;
                    seq += 1;
                }
                pool.pump()?;
                merged += 1;
                if run.durable.is_some() && merged.is_multiple_of(cfg.checkpoint_every) {
                    run.write_boundary(&mut pool, analyzer, &streams, seq, metrics)?;
                }
            };

            if matches!(end, CycleEnd::End(RunEnd::Completed)) {
                for job in analyzer.finish_jobs_observed(metrics) {
                    pool.submit(seq, job)?;
                    seq += 1;
                }
                pool.quiesce()?;
                // Final release: the stream is exhausted, nothing can be
                // regenerated — no checkpoint needed to make it safe, but
                // durable diagnoses must reach the store durably.
                run.release(&mut pool, seq, metrics)?;
                if let Some(d) = &mut run.durable {
                    d.store.sync()?;
                }
                for r in streams.iter().filter_map(|s| s.reseq.as_ref()) {
                    run.service.capture.merge(&r.stats());
                }
            }
            run.recovery.worker_crashes += pool.worker_crashes;
            run.recovery.jobs_requeued += pool.jobs_requeued;
            run.recovery.replayed_frames += dup_discarded(&streams).saturating_sub(replay_base);

            // Teardown (on crash/kill this abandons in-flight work):
            // dropping the receiver ends of the agent links unblocks the
            // agents; dropping the pool's job channel ends the workers.
            // Unreleased pending results die with `pool`.
            drop(rxs);
            drop(pool);
            while let Ok((capture, drops)) = stat_rx.recv() {
                run.service.capture.merge(&capture);
                run.service.backpressure_drops += drops;
            }
            Ok(end)
        })?;

        match end {
            CycleEnd::Crashed => continue,
            CycleEnd::End(end) => {
                if let (RunEnd::Completed, Some(m)) = (&end, metrics) {
                    // One end-of-run flush: by now both halves of the
                    // capture picture (injector counters, receiver
                    // inference) are merged. Replay inflates them like it
                    // inflates `ServiceStats`: the meters describe what the
                    // transport actually did, crashes included.
                    run.service.capture.record_into(m);
                    m.add(Meter::BackpressureDrops, run.service.backpressure_drops);
                }
                return Ok(end);
            }
        }
    }
}
