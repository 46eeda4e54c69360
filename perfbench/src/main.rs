//! GRETEL pipeline benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`
//!
//! Set-up (fingerprint characterization, traffic generation from the seed,
//! the single-threaded inline oracle) runs several times and reports its
//! median. With `--trace 0` the workload's public entry point runs
//! repeatedly for `--seconds`, every run checked against the oracle, with
//! the repeated set-ups spread between the runs, and the end-to-end
//! metrics are printed. With `--trace 1` the real pipeline
//! runs untraced for a third of the time, then the traffic is replayed on
//! one thread through each layer's public calls with a span around each
//! call, and the per-layer metrics are printed. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! Everything the benchmark writes goes under `--out`: the result of each
//! run, its spans, and the durable workload's stores, which are removed
//! after every run.

mod trace;
mod workload;

use gretel_core::store::Store;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{record_store_spans, replay, TimedStore, Tracer};
use workload::{
    check, journal_of, run_entry, setup, Entry, Journal, RunOut, Setup, StoreDir, Workload,
};

/// Set-ups per process; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fewest timed runs a measurement takes, however short `--seconds` is.
const MIN_RUNS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == key)
            .ok_or(format!("missing {key}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{key} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: PathBuf::from(get("--out")?),
    })
}

/// Ordered `(name, value, unit)` metrics.
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Outcome {
    attempted: u64,
    failed: u64,
    /// Mismatched diagnoses summed over every checked output, and the
    /// oracle diagnoses those outputs were checked against.
    mismatched: u64,
    checked: u64,
    metrics: Metrics,
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            mismatched: 0,
            checked: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Count one checked output; a `ServiceError` or panic counts every
    /// oracle diagnosis as mismatched.
    fn record(&mut self, s: &Setup, out: Option<&RunOut>) {
        let m = out.map_or(s.oracle.len().max(1), |o| check(s, o));
        self.attempted += 1;
        self.failed += (m > 0) as u64;
        self.mismatched += m as u64;
        self.checked += s.oracle.len().max(1) as u64;
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let w = args.workload;
    let host = host_fingerprint();
    println!("workload {}: {}", w.name, w.shape());
    println!("host: {host}");

    let s = setup(w, args.seed);
    let mut setups = SetupTimes(vec![SetupTimes::row(&s)]);
    println!(
        "set-up: {} messages, alpha {}, {} oracle diagnoses, {:.3} s",
        s.traffic.len(),
        s.gcfg.alpha,
        s.oracle.len(),
        s.total_s()
    );

    let mut o = if args.trace {
        while setups.0.len() < SETUP_REPS {
            setups.again(w, args.seed);
        }
        traced(w, &s, &args, setups.col(4))
    } else {
        timed(w, &s, &args, &mut setups)
    };
    if args.trace {
        o.metrics.push(("setup.characterize_s", setups.col(1), "s"));
        o.metrics.push(("setup.generate_s", setups.col(2), "s"));
        o.metrics.push(("setup.oracle_s", setups.col(3), "s"));
    } else {
        o.metrics.push(("setup_s", setups.col(0), "s"));
    }
    if w.shards > 1 {
        o.notes.push(format!(
            "unsharded_divergence {}: diagnoses the unsharded inline analysis adds, drops or \
             changes against the per-shard oracle (DESIGN.md §15)",
            s.unsharded_divergence
        ));
    }
    let mismatch_ratio = o.mismatched as f64 / o.checked.max(1) as f64;
    for (name, value, unit) in &o.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    for n in &o.notes {
        println!("  {n}");
    }
    println!(
        "diagnosis_mismatch_ratio {mismatch_ratio} ({} of {} runs failed)",
        o.failed, o.attempted
    );

    let correct = o.failed == 0 && o.attempted > 0;
    let metrics = o
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect::<Vec<_>>()
        .join(", ");
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.attempted, o.failed
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"shape\": {}, \"host\": {}, \
         \"messages\": {}, \"alpha\": {}, \"oracle_diagnoses\": {}, \"unsharded_divergence\": {}, \
         \"diagnosis_mismatch_ratio\": {}, \"notes\": [{}], \"result\": {line}}}\n",
        jstr(w.name),
        args.seed,
        num(args.seconds),
        args.trace,
        jstr(&w.shape()),
        jstr(&host),
        s.traffic.len(),
        s.gcfg.alpha,
        s.oracle.len(),
        s.unsharded_divergence,
        num(mismatch_ratio),
        o.notes.iter().map(|n| jstr(n)).collect::<Vec<_>>().join(", ")
    );
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        w.name, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{line}");
}

/// Per set-up: `[total, characterize, generate, oracle, inline]` seconds.
struct SetupTimes(Vec<[f64; 5]>);

impl SetupTimes {
    fn row(x: &Setup) -> [f64; 5] {
        [
            x.total_s(),
            x.characterize_s,
            x.generate_s,
            x.oracle_s,
            x.inline_s,
        ]
    }

    /// One more set-up from the same seed; only its times are kept.
    fn again(&mut self, w: &Workload, seed: u64) {
        self.0.push(SetupTimes::row(&setup(w, seed)));
    }

    fn col(&self, i: usize) -> f64 {
        median(&self.0.iter().map(|r| r[i]).collect::<Vec<_>>())
    }
}

/// `--trace 0`: the entry point, tracing off, for `--seconds`. The
/// remaining set-ups are spread evenly over the same time, so `setup_s`
/// samples the host over the whole run as `throughput_mps` does, not over
/// a few seconds at its start.
fn timed(w: &Workload, s: &Setup, args: &Args, setups: &mut SetupTimes) -> Outcome {
    let mut o = Outcome::new();
    // One warm-up run, checked but not timed. Peak RSS is read after it:
    // set-up plus one run, before allocator fragmentation from many
    // repeated runs can move the high-water mark.
    let (out, _) = durable_or_plain(w, s, &args.out, "warmup");
    o.record(s, out.as_ref());
    let rss = peak_rss_mb();
    let mut walls = Vec::new();
    let mut journal_bytes = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    while walls.len() < MIN_RUNS || Instant::now() < deadline {
        let (out, journal) = durable_or_plain(w, s, &args.out, "run");
        o.record(s, out.as_ref());
        if let Some(out) = out {
            walls.push(out.wall.as_secs_f64());
        }
        journal_bytes.extend(journal.map(|j| j.bytes as f64));
        if walls.is_empty() && o.attempted as usize > MIN_RUNS {
            break; // every run fails; report the failure rather than spin
        }
        let share = start.elapsed().as_secs_f64() / args.seconds;
        if (setups.0.len() as f64) < 1.0 + (SETUP_REPS - 1) as f64 * share {
            setups.again(w, args.seed);
        }
    }
    while setups.0.len() < SETUP_REPS {
        setups.again(w, args.seed);
    }
    let msgs = s.traffic.len() as f64;
    o.metrics
        .push(("throughput_mps", msgs / median(&walls), "1/s"));
    o.metrics.push(("peak_rss_mb", rss, "MB"));
    o.notes.push(format!(
        "{} timed runs; wall quartiles (s) {:?}",
        walls.len(),
        quartiles(&walls)
    ));
    if !journal_bytes.is_empty() {
        o.notes.push(format!(
            "journal_bytes_per_msg {}",
            median(&journal_bytes) / msgs
        ));
    }
    o
}

/// `--trace 1`: the per-layer metrics. `inline_s` is the median time of
/// the unsharded inline analysis, the single-threaded baseline.
fn traced(w: &Workload, s: &Setup, args: &Args, inline_s: f64) -> Outcome {
    let mut o = Outcome::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let epoch = Instant::now();
    let msgs = s.traffic.len() as f64;

    // The real pipeline, untraced, for the first third of the time: the
    // wall clock coverage divides by, plus the counters its entry point
    // returns. The durable workload alternates the same call with and
    // without the timing store; the difference is the tracing overhead.
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut channel_ops = Vec::new();
    let mut checkpoints = Vec::new();
    let mut store_tracer = Tracer::new(epoch);
    let mut journal_bytes = Vec::new();
    let pipeline_until = Instant::now() + Duration::from_secs_f64(args.seconds / 3.0);
    let mut i = 0;
    while i < MIN_RUNS || Instant::now() < pipeline_until {
        i += 1;
        let (out, plain) = durable_or_plain(w, s, &args.out, "plain");
        o.record(s, out.as_ref());
        if let Some(out) = &out {
            walls.push(out.wall.as_secs_f64());
            channel_ops.push(out.channel_ops as f64 / msgs);
            checkpoints.push(out.checkpoints as f64);
        }
        if w.entry == Entry::ShardedDurable {
            let mut tr = Tracer::new(epoch);
            let (out, timed) = durable_run(w, s, &args.out, "timed", Some(&mut tr));
            o.record(s, out.as_ref());
            if let Some(out) = &out {
                traced_walls.push(out.wall.as_secs_f64());
            }
            // The wrapper must leave the durable output byte-identical.
            if plain.is_none() || timed.is_none() || plain != timed {
                o.failed += 1;
                o.notes
                    .push(format!("timing store changed the journal on pair {i}"));
            }
            journal_bytes.extend(timed.map(|j| j.bytes as f64));
            store_tracer = tr;
        }
    }
    let pipeline_wall_ns = median(&walls) * 1e9;
    let store_self_ns = store_tracer.layer_self_ns() as f64;

    // The single-threaded replay, repeated until the time is up.
    let mut reps: Vec<Metrics> = Vec::new();
    let mut last = None;
    while reps.is_empty() || Instant::now() < deadline {
        let r = replay(w, s, epoch);
        o.attempted += 1;
        o.failed += !r.identical as u64;
        reps.push(layer_metrics(&r, pipeline_wall_ns, store_self_ns));
        last = Some(r);
    }
    let last = last.expect("at least one replay");

    let mut m: Metrics = Vec::new();
    for (i, &(name, _, unit)) in reps[0].iter().enumerate() {
        m.push((
            name,
            median(&reps.iter().map(|r| r[i].1).collect::<Vec<_>>()),
            unit,
        ));
    }
    m.push(("core.analyzer.inline_mps", msgs / inline_s, "1/s"));
    m.push((
        "core.shard.unsharded_divergence",
        s.unsharded_divergence as f64,
        "count",
    ));
    m.push((
        "core.service.channel_ops_per_msg",
        median(&channel_ops),
        "count",
    ));
    m.push(("core.checkpoint.count", median(&checkpoints), "count"));
    let appends = store_tracer.durations("store.append");
    let syncs = store_tracer.durations("store.sync");
    m.push(("store.appends", appends.len() as f64, "count"));
    m.push(("store.append_ns_p50", pct(&appends, 50.0), "ns"));
    m.push(("store.append_ns_p99", pct(&appends, 99.0), "ns"));
    m.push(("store.syncs", syncs.len() as f64, "count"));
    m.push(("store.sync_ns_p50", pct(&syncs, 50.0), "ns"));
    m.push(("store.sync_ns_p99", pct(&syncs, 99.0), "ns"));
    let journal = if journal_bytes.is_empty() {
        0.0
    } else {
        median(&journal_bytes) / msgs
    };
    m.push(("store.journal_bytes_per_msg", journal, "bytes"));
    let overhead = if traced_walls.is_empty() {
        0.0
    } else {
        median(&traced_walls) / median(&walls) - 1.0
    };
    m.push(("store.trace_overhead", overhead, "ratio"));
    o.metrics = m;
    o.notes.push(format!(
        "{} replay reps; pipeline wall median {:.4} s over {} runs; detect jobs {}, rca calls {}, \
         checkpoint exports {}, store appends {}, syncs {}",
        reps.len(),
        median(&walls),
        walls.len(),
        last.counts.jobs,
        last.counts.rca_calls,
        last.counts.state_bytes.len(),
        appends.len(),
        syncs.len()
    ));

    let mut spans = last.tracer;
    let offset = spans.spans.len();
    for sp in store_tracer.spans {
        spans.spans.push(trace::Span {
            parent: sp.parent.map(|p| p + offset),
            ..sp
        });
    }
    let path = args
        .out
        .join(format!("{}-seed{}.spans.json", w.name, args.seed));
    if let Err(e) = spans.write_json(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    o
}

/// Per-layer metrics of one replay.
fn layer_metrics(r: &trace::Replay, pipeline_wall_ns: f64, store_self_ns: f64) -> Metrics {
    let (t, c) = (&r.tracer, &r.counts);
    let per = |name: &str, n: u64| t.total(name) as f64 / n.max(1) as f64;
    let sizes: Vec<f64> = c.shard_sizes.iter().map(|&n| n as f64).collect();
    let mean = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
    let skew = sizes.iter().cloned().fold(0.0, f64::max) / mean.max(1.0);
    let detect = t.durations("core.detect");
    let rca = t.durations("core.rca");
    let exports = t.durations("core.checkpoint.export");
    let state: Vec<u64> = c.state_bytes.clone();
    vec![
        (
            "netcap.encode_ns_per_msg",
            per("netcap.encode", c.frames),
            "ns",
        ),
        (
            "netcap.wire_bytes_per_msg",
            c.wire_bytes as f64 / c.frames.max(1) as f64,
            "bytes",
        ),
        (
            "netcap.batch_ns_per_msg",
            per("netcap.batch", c.frames),
            "ns",
        ),
        (
            "netcap.frames_per_batch",
            c.frames as f64 / c.batches.max(1) as f64,
            "count",
        ),
        (
            "netcap.decode_ns_per_msg",
            per("netcap.decode", c.frames),
            "ns",
        ),
        (
            "netcap.route_ns_per_msg",
            per("netcap.route", c.messages),
            "ns",
        ),
        ("netcap.shard_skew", skew, "ratio"),
        (
            "core.anomaly.scan_ns_per_msg",
            per("core.anomaly.scan", c.frames),
            "ns",
        ),
        (
            "core.anomaly.faults_marked",
            c.faults_marked as f64,
            "count",
        ),
        (
            "core.analyzer.ingest_ns_per_msg",
            per("core.analyzer.ingest", c.messages),
            "ns",
        ),
        ("core.analyzer.jobs", c.jobs as f64, "count"),
        ("core.detect.job_ns_p50", pct(&detect, 50.0), "ns"),
        ("core.detect.job_ns_p99", pct(&detect, 99.0), "ns"),
        (
            "core.detect.diagnoses_per_job",
            c.diagnoses as f64 / c.jobs.max(1) as f64,
            "count",
        ),
        ("core.rca.calls", c.rca_calls as f64, "count"),
        ("core.rca.call_ns_p50", pct(&rca, 50.0), "ns"),
        ("core.rca.call_ns_p99", pct(&rca, 99.0), "ns"),
        (
            "core.shard.merge_ms",
            t.total("core.shard.merge") as f64 / 1e6,
            "ms",
        ),
        (
            "core.graph.attribute_ms",
            t.total("core.graph.attribute") as f64 / 1e6,
            "ms",
        ),
        (
            "core.service.coverage",
            (t.layer_self_ns() as f64 + store_self_ns) / pipeline_wall_ns.max(1.0),
            "ratio",
        ),
        (
            "core.checkpoint.state_bytes_p50",
            pct(&state, 50.0),
            "bytes",
        ),
        ("core.checkpoint.export_ns_p50", pct(&exports, 50.0), "ns"),
    ]
}

/// One call of the entry point; durable workloads get fresh stores that
/// are removed afterwards.
fn durable_or_plain(
    w: &Workload,
    s: &Setup,
    out: &Path,
    tag: &str,
) -> (Option<RunOut>, Option<Journal>) {
    if w.entry == Entry::ShardedDurable {
        return durable_run(w, s, out, tag, None);
    }
    (guarded(|| run_entry(w, s, None)), None)
}

/// One durable call in a fresh store directory, through the timing store
/// when a tracer is given (the store spans land in it).
fn durable_run(
    w: &Workload,
    s: &Setup,
    out: &Path,
    tag: &str,
    tracer: Option<&mut Tracer>,
) -> (Option<RunOut>, Option<Journal>) {
    // `_dir` lives to the end of the function: dropping it removes the
    // stores' directory.
    let (files, _dir) = match StoreDir::fresh(out, tag).and_then(|d| Ok((d.open(w.shards)?, d))) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return (None, None);
        }
    };
    match tracer {
        None => {
            let mut stores = files;
            let out = run_on(w, s, &mut stores);
            (out, Some(journal_of(&stores)))
        }
        Some(tr) => {
            let mut stores: Vec<TimedStore> = files
                .into_iter()
                .map(|f| TimedStore::new(f, tr.epoch()))
                .collect();
            let start = tr.now();
            let out = run_on(w, s, &mut stores);
            let end = tr.now();
            record_store_spans(tr, (start, end), &stores);
            (out, Some(journal_of(&stores)))
        }
    }
}

fn run_on<S: Store + Send>(w: &Workload, s: &Setup, stores: &mut [S]) -> Option<RunOut> {
    guarded(|| {
        let mut refs: Vec<&mut (dyn Store + Send)> = stores
            .iter_mut()
            .map(|s| s as &mut (dyn Store + Send))
            .collect();
        run_entry(w, s, Some(&mut refs))
    })
}

/// Run `f`, turning an error or a panic into `None`.
fn guarded(f: impl FnOnce() -> Result<RunOut, String>) -> Option<RunOut> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(out)) => Some(out),
        Ok(Err(e)) => {
            eprintln!("perfbench: run failed: {e}");
            None
        }
        Err(_) => {
            eprintln!("perfbench: run panicked");
            None
        }
    }
}

fn median(v: &[f64]) -> f64 {
    quartiles(v)[1]
}

/// First quartile, median and third quartile by linear interpolation.
fn quartiles(v: &[f64]) -> [f64; 3] {
    if v.is_empty() {
        return [0.0; 3];
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Nearest-rank percentile of integer samples; 0 when there are none.
fn pct(v: &[u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1] as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `available_parallelism`, the CPUs this process may run on (what
/// `nproc` prints) and the CPU model.
fn host_fingerprint() -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let nproc = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or(0, |list| {
            list.trim()
                .split(',')
                .filter_map(|r| {
                    let mut it = r.split('-').map(|x| x.parse::<usize>().ok());
                    match (it.next().flatten(), it.next().flatten()) {
                        (Some(a), Some(b)) => Some(b + 1 - a),
                        (Some(_), None) => Some(1),
                        _ => None,
                    }
                })
                .sum()
        });
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |m| m.trim().to_string());
    format!("available_parallelism={threads} nproc={nproc} cpu={model}")
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
