//! The four workloads. Each times its repetitions untraced; a traced run
//! alternates untraced and traced repetitions (the difference is the
//! tracing overhead) and then runs the per-layer probes.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use telco_analytics::frame::Enriched;
use telco_analytics::sweep::{AnalysisPass, SweepCtx};
use telco_analytics::{Study, StudyPasses, Sweep, SweepOutputs};
use telco_orchestrator::{
    load_manifest, open_study, orchestrate, shard_complete, store_manifest, Launcher, Manifest,
    OrchestrateOptions, PlanOptions, PoolOptions, ShardStore,
};
use telco_serve::{
    handle_request, query_line, IngestEngine, Published, QueryServer, ServedView, DEFAULT_WINDOW,
};
use telco_sim::{run_shard, run_study, run_study_spilled, SimConfig, TraceSource, World};
use telco_store::DirStore;
use telco_trace::store::{TraceReader, TraceWriter};

use crate::metrics::{median, quantile, timed, Metrics, Tracer};
use crate::store::{StoreCounts, StoreStats, TimingStore};
use crate::{
    analyze, config, hardware_threads, outputs_hash, peak_rss_mb, probes, warm_up, Outcome, Params,
    Scale, Workload,
};

/// Requests per second of the small query stream. Idle, the seed answers
/// about 45 a second on one connection: six of the eleven sections are
/// over 8 KB and each of those waits about 44 ms for a delayed ACK.
const SMALL_RATE: f64 = 25.0;

/// Requests per second of the bulk query stream.
const BULK_RATE: f64 = 2.0;

/// Small-stream samples a traced run collects, so that its p99 has ten
/// beyond it; repetitions continue until then, at most
/// [`TRACED_SERVE_MAX_REPS`].
const TRACED_QUERY_SAMPLES: usize = 1000;

/// Cap on the repetitions of a traced serve run.
const TRACED_SERVE_MAX_REPS: usize = 24;

/// The 11 paper sections the small stream asks for, besides `status`.
const PAPER_SECTIONS: [&str; 11] = [
    "trace_counts",
    "ho_types",
    "district_distribution",
    "population_inference",
    "ho_density",
    "temporal_evolution",
    "manufacturer_impact",
    "hof_patterns",
    "causes",
    "pingpong",
    "vendor_analysis",
];

/// Repetition control: at least one repetition (two when traced, so both
/// modes run), then until the timed phases add up to the run's seconds.
/// Peak memory is read once, when the first repetition closes: later
/// repetitions start on a heap the earlier ones fragmented, and how many
/// of them fit in a run depends on the machine's speed.
struct Reps {
    min: usize,
    seconds: f64,
    timed: f64,
    done: usize,
    trace: bool,
    first_peak_mb: f64,
}

impl Reps {
    fn new(p: &Params) -> Self {
        let min = if p.trace { 2 } else { 1 };
        Reps { min, seconds: p.seconds, timed: 0.0, done: 0, trace: p.trace, first_peak_mb: 0.0 }
    }

    /// Whether another repetition is due.
    fn more(&self) -> bool {
        self.done < self.min || self.timed < self.seconds
    }

    /// Whether the next repetition is traced: every second one of a traced
    /// run.
    fn traced(&self) -> bool {
        self.trace && self.done % 2 == 1
    }

    /// Close a repetition that took `secs` of timed phase.
    fn close(&mut self, secs: f64) {
        self.timed += secs;
        self.done += 1;
        if self.done == 1 {
            self.first_peak_mb = peak_rss_mb();
        }
    }
}

/// Result times split by whether the repetition was traced.
#[derive(Default)]
struct Results {
    plain: Vec<f64>,
    traced: Vec<f64>,
}

impl Results {
    fn push(&mut self, traced: bool, secs: f64) {
        if traced {
            self.traced.push(secs);
        } else {
            self.plain.push(secs);
        }
    }

    /// Write `setup_s` and `result_s` (untraced run) or the tracing
    /// overhead (traced run).
    fn report(&self, p: &Params, setups: &[f64], out: &mut Outcome) {
        let result = median(&self.plain);
        if p.trace {
            let overhead = 100.0 * (median(&self.traced) / result - 1.0);
            out.metrics.insert("bench.tracing_overhead_pct".into(), (overhead, "%"));
            let reps = (self.plain.len() + self.traced.len()) as f64;
            out.metrics.insert("bench.repetitions".into(), (reps, "count"));
        } else {
            out.metrics.insert("setup_s".into(), (median(setups), "s"));
            out.metrics.insert("result_s".into(), (result, "s"));
        }
        out.detail.push(("setup_s".into(), median(setups)));
        out.detail.push(("repetitions".into(), (self.plain.len() + self.traced.len()) as f64));
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

fn remove_dir(dir: &Path) {
    // Best effort: a leftover work directory does not change any result.
    let _ = std::fs::remove_dir_all(dir);
}

fn sim_layer(out: &mut Metrics, cfg: &SimConfig, run_s: f64, records: u64) {
    let ue_days = (cfg.n_ues * cfg.n_days as usize) as f64;
    out.insert("sim.run_s".into(), (run_s, "s"));
    out.insert("sim.ue_days_per_s".into(), (ue_days / run_s, "1/s"));
    out.insert("sim.records".into(), (records as f64, "count"));
}

fn store_layer(out: &mut Metrics, counts: StoreCounts, tr: &Tracer) {
    out.insert("store.puts".into(), (counts.puts as f64, "count"));
    out.insert("store.commits".into(), (counts.commits as f64, "count"));
    out.insert("store.bytes_committed".into(), (counts.bytes_committed as f64, "B"));
    for name in ["store.put_s", "store.commit_s", "store.get_s"] {
        out.insert(name.into(), (tr.median(name), "s"));
    }
}

/// Record one repetition's store times as samples.
fn store_samples(tr: &mut Tracer, counts: StoreCounts) {
    tr.add("store.put_s", counts.put_ns as f64 * 1e-9);
    tr.add("store.commit_s", counts.commit_ns as f64 * 1e-9);
    tr.add("store.get_s", counts.get_ns as f64 * 1e-9);
}

fn analytics_layer(out: &mut Metrics, tr: &Tracer, records: u64) {
    let sweep = tr.median("analytics.sweep_s");
    out.insert("analytics.sweep_nt_records_per_s".into(), (records as f64 / sweep, "1/s"));
    for name in ["analytics.accessors_s", "analytics.models_s"] {
        out.insert(name.into(), (tr.median(name), "s"));
    }
}

/// `repro --small all` without printing: simulate, sweep, every table,
/// figure and model, in memory with the default threads.
pub fn paper_batch(p: &Params) -> Result<Outcome, String> {
    let cfg = config(Workload::PaperBatch, p.scale, p.seed);
    let setups = [timed(|| warm_up(p.seed)).1];
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let mut reps = Reps::new(p);
    let mut results = Results::default();
    let mut last: Option<Study> = None;
    while reps.more() {
        let traced = reps.traced();
        tr.on = traced;
        // Free the previous study first, so memory holds one at a time.
        drop(last.take());
        let (study, secs) = timed(|| {
            let data = tr.span("sim.run_s", || run_study(cfg.clone()));
            let study = Study::from_data(data);
            analyze(&study, &mut tr);
            study
        });
        results.push(traced, secs);
        reps.close(secs);
        last = Some(study);
    }
    let study = last.expect("at least one repetition");
    out.attempted = reps.done as u64;
    out.peak_rss_mb = reps.first_peak_mb;
    out.hashes.push(("batch".into(), outputs_hash(study.sweep())));
    results.report(p, &setups, &mut out);
    out.detail.push(("batch_s".into(), median(&results.plain)));

    if p.trace {
        let records = study.data().trace.len();
        let mut data = study.data().clone();
        drop(study);
        sim_layer(&mut out.metrics, &cfg, tr.median("sim.run_s"), records);
        analytics_layer(&mut out.metrics, &tr, records);
        probes::sweep_layers(&mut data, &mut out.metrics);
    }
    Ok(out)
}

/// The study composite over a sealed v3 trace, at 1 thread and at
/// `nproc` threads, repeated.
pub fn sweep_spilled(p: &Params) -> Result<Outcome, String> {
    let cfg = config(Workload::SweepSpilled, p.scale, p.seed);
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let dir = p.work_dir.join("spill");
    let (spilled, setup) = timed(|| {
        warm_up(p.seed);
        fresh_dir(&dir)?;
        let (spilled, sim) = timed(|| run_study_spilled(cfg.clone(), &dir));
        tr.add("sim.run_s", sim);
        spilled.map_err(|e| format!("spilling the study: {e}"))
    });
    let mut data = spilled?;
    let setups = [setup];
    let records = data.trace.len();
    let nt = hardware_threads();

    let mut reps = Reps::new(p);
    let mut results = Results::default();
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let mut kept: [Option<SweepOutputs>; 2] = [None, None];
    while reps.more() {
        let traced = reps.traced();
        let mut pair = 0.0;
        for (i, threads) in [1, nt].into_iter().enumerate() {
            data.config.threads = threads;
            let (swept, secs) = timed(|| Sweep::new(&data).run(StudyPasses::default));
            out.attempted += 1;
            pair += secs;
            let Ok(outputs) = swept else {
                out.failed += 1;
                continue;
            };
            kept[i] = Some(outputs);
            if i == 0 {
                one.push(secs);
            } else {
                many.push(secs);
                results.push(traced, secs);
            }
        }
        reps.close(pair);
    }
    out.peak_rss_mb = reps.first_peak_mb;
    for (label, outputs) in ["sweep_1t", "sweep_nt"].into_iter().zip(kept) {
        if let Some(o) = outputs {
            out.hashes.push((label.into(), outputs_hash(&o)));
        }
    }
    results.report(p, &setups, &mut out);
    let (t1, tn) = (median(&one), median(&many));
    out.detail.push(("sweep_1t_s".into(), t1));
    out.detail.push(("sweep_nt_s".into(), tn));
    out.detail.push(("sweep_1t_records_per_s".into(), records as f64 / t1));
    out.detail.push(("sweep_nt_records_per_s".into(), records as f64 / tn));
    out.detail.push(("nt_over_1t_speedup".into(), t1 / tn));

    if p.trace {
        sim_layer(&mut out.metrics, &cfg, tr.median("sim.run_s"), records);
        trace_write_layer(&data, &p.work_dir, &mut out.metrics)?;
        probes::sweep_layers(&mut data, &mut out.metrics);
        // The timed sweeps hold more samples than the probe's three.
        out.metrics.insert("analytics.sweep_1t_records_per_s".into(), (records as f64 / t1, "1/s"));
        out.metrics.insert("analytics.sweep_nt_records_per_s".into(), (records as f64 / tn, "1/s"));
    }
    drop(data);
    remove_dir(&dir);
    Ok(out)
}

/// `TraceWriter` re-writing the sealed trace chunk for chunk: write time
/// and bytes per record.
fn trace_write_layer(
    data: &telco_sim::StudyData,
    work_dir: &Path,
    out: &mut Metrics,
) -> Result<(), String> {
    let path = data.trace.spill_path().ok_or("sweep_spilled trace is not spilled")?;
    let mut reader = TraceReader::open(path).map_err(|e| format!("opening trace: {e:?}"))?;
    let mut chunks = Vec::new();
    while let Some(chunk) = reader.next_chunk() {
        chunks.push(chunk.map_err(|e| format!("reading trace: {e:?}"))?);
    }
    let records: usize = chunks.iter().map(Vec::len).sum();
    let copy = work_dir.join("rewrite.tlho");
    let mut times = Vec::new();
    for _ in 0..probes::PROBE_REPS {
        let (written, secs) = timed(|| -> std::io::Result<()> {
            let mut w = TraceWriter::create(&copy, data.config.n_days)?;
            for chunk in &chunks {
                w.write_chunk(chunk)?;
            }
            w.finish()?.flush()
        });
        written.map_err(|e| format!("writing trace: {e}"))?;
        times.push(secs);
    }
    let bytes = std::fs::metadata(&copy).map_err(|e| format!("stat trace: {e}"))?.len();
    // Best effort: a leftover copy does not change any result.
    let _ = std::fs::remove_file(&copy);
    out.insert("trace.write_s".into(), (median(&times), "s"));
    out.insert("trace.bytes_per_record".into(), (bytes as f64 / records.max(1) as f64, "B"));
    Ok(())
}

/// One answered request of a query stream.
struct Sample {
    kind: &'static str,
    /// From when the request was due to when its response arrived.
    latency: f64,
    /// From when the request was due to when it was sent.
    lag: f64,
    /// From send to response.
    rtt: f64,
    bytes: usize,
    ok: bool,
}

/// An open-loop stream over one persistent connection: request `i` is due
/// `i / rate` seconds after `go` rises, whatever the earlier responses
/// took, until `stop` rises.
fn query_stream(
    conn: TcpStream,
    requests: &[(&'static str, String)],
    rate: f64,
    go: &AtomicBool,
    stop: &AtomicBool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    // ordering: SeqCst — start/stop edges, read a few hundred times a second at most
    while !go.load(Ordering::SeqCst) {
        if stop.load(Ordering::SeqCst) {
            return samples;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let Ok(mut writer) = conn.try_clone() else { return samples };
    let mut reader = BufReader::new(conn);
    let mut buf = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        // ordering: SeqCst — stop edge, see above
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let (kind, request) = &requests[i % requests.len()];
        let sent = Instant::now();
        buf.clear();
        let answered = writer.write_all(request.as_bytes()).is_ok()
            && reader.read_until(b'\n', &mut buf).is_ok_and(|n| n > 0);
        let done = Instant::now();
        let ok = answered && buf.starts_with(b"{\"ok\":true");
        samples.push(Sample {
            kind,
            latency: (done - due).as_secs_f64(),
            lag: sent.saturating_duration_since(due).as_secs_f64(),
            rtt: (done - sent).as_secs_f64(),
            bytes: buf.len(),
            ok,
        });
        if !answered {
            break;
        }
    }
    samples
}

fn view_bytes(view: &ServedView) -> usize {
    let opt = |s: &Option<String>| s.as_ref().map_or(0, String::len);
    opt(&view.full)
        + opt(&view.last_day)
        + opt(&view.last_week)
        + view.sections.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>()
}

/// The `outputs` JSON inside an `outputs` response line.
fn outputs_payload(line: &str) -> Option<&str> {
    let start = line.find("\"outputs\":")? + "\"outputs\":".len();
    line.get(start..line.len().checked_sub(1)?)
}

/// Per-day serve ingest (`ingest_next_day`, `build_view`, `publish`) under
/// two open-loop query streams.
pub fn serve_ingest(p: &Params) -> Result<Outcome, String> {
    let cfg = config(Workload::ServeIngest, p.scale, p.seed);
    let line = |q: String| q + "\n";
    let section = |name: &str| line(format!("{{\"query\":\"section\",\"name\":\"{name}\"}}"));
    let mut small: Vec<(&'static str, String)> =
        vec![("status", line("{\"query\":\"status\"}".into()))];
    small.extend(PAPER_SECTIONS.iter().map(|name| ("section", section(name))));
    let bulk: Vec<(&'static str, String)> = vec![
        ("outputs", line("{\"query\":\"outputs\"}".into())),
        ("window", line("{\"query\":\"window\",\"days\":1}".into())),
        ("window", line("{\"query\":\"window\",\"days\":7}".into())),
        ("frame", section("frame")),
    ];

    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let mut reps = Reps::new(p);
    let mut results = Results::default();
    let mut setups = Vec::new();
    let (mut small_samples, mut bulk_samples) = (Vec::new(), Vec::new());
    let mut last_counts = StoreCounts::default();
    let mut last_view = None;
    let more_samples = |n: usize, reps: &Reps| {
        p.trace
            && p.scale == Scale::Bench
            && n < TRACED_QUERY_SAMPLES
            && reps.done < TRACED_SERVE_MAX_REPS
    };
    while reps.more() || more_samples(small_samples.len(), &reps) {
        // Drop the previous view first, so memory holds one ingest at a time.
        drop(last_view.take());
        let traced = reps.traced();
        tr.on = traced;
        let dir = p.work_dir.join(format!("serve-{}", reps.done));
        let stats = Arc::new(StoreStats::default());
        let (setup, secs) = timed(|| -> Result<_, String> {
            warm_up(p.seed);
            fresh_dir(&dir)?;
            let dirstore = DirStore::create(&dir).map_err(|e| format!("store: {e}"))?;
            let store = TimingStore::new(dirstore, Arc::clone(&stats));
            let engine = IngestEngine::open(cfg.clone(), Box::new(store), DEFAULT_WINDOW)
                .map_err(|e| format!("opening the ingest: {e}"))?;
            let view = engine.build_view().map_err(|e| format!("empty view: {e}"))?;
            let published = Arc::new(Published::new(view));
            let server = QueryServer::start(Arc::clone(&published), 0)
                .map_err(|e| format!("starting the server: {e}"))?;
            let connect = || {
                let conn = TcpStream::connect(server.addr());
                conn.and_then(|c| c.set_nodelay(true).map(|()| c))
                    .map_err(|e| format!("connecting: {e}"))
            };
            let conns = (connect()?, connect()?);
            Ok((engine, published, server, conns))
        });
        let (mut engine, published, mut server, (small_conn, bulk_conn)) = setup?;
        setups.push(secs);

        let go = AtomicBool::new(false);
        let stop = AtomicBool::new(false);
        let (ingest, streams) = std::thread::scope(|s| {
            let small_stream = s.spawn(|| query_stream(small_conn, &small, SMALL_RATE, &go, &stop));
            let bulk_stream = s.spawn(|| query_stream(bulk_conn, &bulk, BULK_RATE, &go, &stop));
            let ingest = timed(|| -> Result<u32, String> {
                let mut days = 0;
                loop {
                    let day = tr.span("serve.ingest_day_s", || engine.ingest_next_day());
                    if day.map_err(|e| format!("ingest: {e}"))?.is_none() {
                        return Ok(days);
                    }
                    days += 1;
                    let view = tr.span("serve.build_view_s", || engine.build_view());
                    published.publish(view.map_err(|e| format!("view: {e}"))?);
                    // ordering: SeqCst — start edge of the query streams
                    go.store(true, Ordering::SeqCst);
                }
            });
            // ordering: SeqCst — stop edge; `go` too, in case no day committed
            stop.store(true, Ordering::SeqCst);
            go.store(true, Ordering::SeqCst);
            let join = |h: std::thread::ScopedJoinHandle<'_, Vec<Sample>>| {
                h.join().expect("query stream thread panicked")
            };
            (ingest, (join(small_stream), join(bulk_stream)))
        });
        let (days, secs) = ingest;
        out.attempted += u64::from(cfg.n_days);
        let days = days.unwrap_or_else(|e| {
            eprintln!("serve_ingest: {e}");
            engine.committed_days()
        });
        out.failed += u64::from(cfg.n_days - days.min(cfg.n_days));
        results.push(traced, secs);
        reps.close(secs);
        small_samples.extend(streams.0);
        bulk_samples.extend(streams.1);

        let fetched = query_line(server.addr(), "{\"query\":\"outputs\"}");
        match fetched.as_deref().ok().and_then(outputs_payload) {
            Some(json) => out.hashes.push((
                format!("serve_outputs_{}", reps.done),
                telco_orchestrator::manifest::fnv1a(json.as_bytes()),
            )),
            None => out.hashes.push((format!("serve_outputs_{}", reps.done), 0)),
        }
        last_counts = stats.counts();
        store_samples(&mut tr, last_counts);
        last_view = Some(published.current());
        server.stop();
        drop(engine);
        remove_dir(&dir);
    }
    out.peak_rss_mb = reps.first_peak_mb;
    for s in small_samples.iter().chain(&bulk_samples) {
        out.attempted += 1;
        out.failed += u64::from(!s.ok);
    }
    results.report(p, &setups, &mut out);

    // Failed or refused requests count as missing any latency limit.
    let small_latency: Vec<f64> =
        small_samples.iter().map(|s| if s.ok { s.latency * 1e3 } else { f64::INFINITY }).collect();
    let bulk_rate: Vec<f64> =
        bulk_samples.iter().filter(|s| s.ok).map(|s| s.bytes as f64 / 1e6 / s.rtt).collect();
    let lag: Vec<f64> = small_samples.iter().chain(&bulk_samples).map(|s| s.lag * 1e3).collect();
    let figures = [
        ("ingest_s", median(&results.plain), "s"),
        ("query_p50_ms", quantile(&small_latency, 0.50), "ms"),
        ("query_p99_ms", quantile(&small_latency, 0.99), "ms"),
        ("query_samples", small_latency.len() as f64, "count"),
        ("bulk_mb_per_s", median(&bulk_rate), "MB/s"),
        ("generator_lag_ms", quantile(&lag, 0.99), "ms"),
    ];
    for (name, value, unit) in figures {
        out.detail.push((name.into(), value));
        if p.trace && name != "ingest_s" {
            out.metrics.insert(format!("serve.{name}"), (value, unit));
        }
    }

    if p.trace {
        for kind in crate::metrics::QUERY_KINDS {
            let ms: Vec<f64> = small_samples
                .iter()
                .chain(&bulk_samples)
                .filter(|s| s.kind == kind && s.ok)
                .map(|s| s.latency * 1e3)
                .collect();
            out.metrics.insert(format!("serve.query_ms.{kind}"), (median(&ms), "ms"));
        }
        let days = tr.samples("serve.ingest_day_s");
        // The last call of each ingest only finds the stream exhausted.
        let folds: Vec<f64> = days
            .chunks(cfg.n_days as usize + 1)
            .flat_map(|rep| rep.iter().take(cfg.n_days as usize).copied())
            .collect();
        let m = &mut out.metrics;
        m.insert("serve.ingest_day_p50_s".into(), (median(&folds), "s"));
        m.insert("serve.ingest_day_max_s".into(), (folds.iter().copied().fold(0.0, f64::max), "s"));
        m.insert("serve.build_view_p50_s".into(), (tr.median("serve.build_view_s"), "s"));
        m.insert("serve.build_view_max_s".into(), (tr.max("serve.build_view_s"), "s"));
        store_layer(m, last_counts, &tr);
        if let Some(view) = last_view {
            m.insert("serve.view_bytes".into(), (view_bytes(&view) as f64, "B"));
            handle_request_layer(&view, m);
        }
        fold_layers(&cfg, m);
    }
    Ok(out)
}

/// The requests timed in-process against the final served view: (kind,
/// request line, calls).
pub(crate) const HANDLE_REQUESTS: [(&str, &str, u32); 6] = [
    ("status", "{\"query\":\"status\"}", 2000),
    ("section", "{\"query\":\"section\",\"name\":\"ho_types\"}", 2000),
    ("outputs", "{\"query\":\"outputs\"}", 5),
    ("window_1", "{\"query\":\"window\",\"days\":1}", 5),
    ("window_7", "{\"query\":\"window\",\"days\":7}", 5),
    ("frame", "{\"query\":\"section\",\"name\":\"frame\"}", 5),
];

/// `handle_request` in-process on the final view, per request kind, in
/// microseconds per call.
fn handle_request_layer(view: &ServedView, out: &mut Metrics) {
    for (kind, request, calls) in HANDLE_REQUESTS {
        let ((), secs) = timed(|| {
            for _ in 0..calls {
                black_box(handle_request(request, view).0.len());
            }
        });
        out.insert(format!("serve.handle_request_us.{kind}"), (secs * 1e6 / calls as f64, "us"));
    }
}

/// The simulation and analysis inside serve's day folds, driven the same
/// way from outside the engine: `run_shard` per day, `record_columns` per
/// batch, one `end`.
fn fold_layers(cfg: &SimConfig, out: &mut Metrics) {
    let world = World::build(cfg);
    let ctx = SweepCtx { world: &world, config: cfg };
    let enriched = Enriched::new(&world);
    let mut live = StudyPasses::default();
    live.begin(&ctx);
    let (mut sim, mut record, mut records) = (0.0, 0.0, 0u64);
    for day in 0..cfg.n_days {
        let (mut shard, secs) = timed(|| run_shard(&world, cfg, day..day + 1, 0..world.n_ues()));
        sim += secs;
        records += shard.dataset.len() as u64;
        let trace = TraceSource::in_memory(std::mem::take(&mut shard.dataset));
        let mut delta = StudyPasses::default();
        let ((), secs) = timed(|| {
            delta.begin(&ctx);
            black_box(trace.for_each_columns(|b| delta.record_columns(b, &enriched)).is_ok());
        });
        record += secs;
        live.merge(delta, &ctx);
    }
    let (outputs, end) = timed(|| live.end(&ctx));
    black_box(outputs.trace_counts.records);
    sim_layer(out, cfg, sim, records);
    out.insert("analytics.record_s".into(), (record, "s"));
    out.insert("analytics.end_s".into(), (end, "s"));
}

/// Plan, store the manifest, orchestrate over the subprocess fleet, open
/// the sealed study and compute every table.
pub fn orchestrated_study(p: &Params) -> Result<Outcome, String> {
    let cfg = config(Workload::OrchestratedStudy, p.scale, p.seed);
    let opts = OrchestrateOptions {
        launcher: Launcher::Subprocess { program: p.worker.clone(), prefix: Vec::new() },
        pool: PoolOptions { pool_size: hardware_threads(), ..PoolOptions::default() },
        faults: Vec::new(),
    };
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let mut reps = Reps::new(p);
    let mut results = Results::default();
    let mut setups = Vec::new();
    let mut last: Option<(Study, Arc<dyn ShardStore>, std::path::PathBuf)> = None;
    let mut last_counts = StoreCounts::default();
    while reps.more() {
        let traced = reps.traced();
        tr.on = traced;
        let dir = p.work_dir.join(format!("orchestrate-{}", reps.done));
        let stats = Arc::new(StoreStats::default());
        let (store, secs) = timed(|| -> Result<Arc<dyn ShardStore>, String> {
            warm_up(p.seed);
            fresh_dir(&dir)?;
            let dirstore = DirStore::create(&dir).map_err(|e| format!("store: {e}"))?;
            Ok(Arc::new(TimingStore::new(dirstore, Arc::clone(&stats))))
        });
        let store = store?;
        setups.push(secs);
        // Free the previous study first, so memory holds one at a time.
        if let Some((_, _, old_dir)) = last.take() {
            remove_dir(&old_dir);
        }

        let (run, secs) = timed(|| -> Result<Study, String> {
            tr.span("orchestrator.plan_s", || {
                let manifest = Manifest::plan(cfg.clone(), &PlanOptions::default())
                    .map_err(|e| format!("plan: {e}"))?;
                store_manifest(store.as_ref(), &manifest).map_err(|e| format!("manifest: {e}"))
            })?;
            let report = tr.span("orchestrator.orchestrate_s", || {
                orchestrate(Arc::clone(&store), &opts).map_err(|e| format!("orchestrate: {e}"))
            })?;
            tr.add("orchestrator.dispatches", f64::from(report.dispatched));
            tr.add("orchestrator.retries", f64::from(report.retried));
            let data = tr.span("orchestrator.open_study_s", || {
                open_study(store.as_ref()).map_err(|e| format!("open study: {e}"))
            })?;
            let study = Study::from_data(data);
            analyze(&study, &mut tr);
            Ok(study)
        });
        let shards = PlanOptions::default().shards.min(cfg.n_ues) as u64;
        out.attempted += shards;
        match run {
            Ok(study) => {
                results.push(traced, secs);
                last_counts = stats.counts();
                store_samples(&mut tr, last_counts);
                last = Some((study, store, dir));
            }
            Err(e) => {
                eprintln!("orchestrated_study: {e}");
                out.failed += shards;
                remove_dir(&dir);
            }
        }
        reps.close(secs);
    }
    let Some((study, store, dir)) = last else {
        return Err("no orchestrated repetition succeeded".into());
    };
    out.peak_rss_mb = reps.first_peak_mb;
    out.hashes.push(("orchestrated".into(), outputs_hash(study.sweep())));
    results.report(p, &setups, &mut out);
    out.detail.push(("orchestrated_s".into(), median(&results.plain)));

    if p.trace {
        let records = study.data().trace.len();
        let m = &mut out.metrics;
        for name in
            ["orchestrator.plan_s", "orchestrator.orchestrate_s", "orchestrator.open_study_s"]
        {
            m.insert(name.into(), (tr.median(name), "s"));
        }
        for name in ["orchestrator.dispatches", "orchestrator.retries"] {
            m.insert(name.into(), (tr.samples(name).last().copied().unwrap_or(0.0), "count"));
        }
        // Every shard's completion check, re-run on the sealed store.
        let manifest = load_manifest(store.as_ref()).map_err(|e| format!("manifest: {e}"))?;
        let ((), validate) = timed(|| {
            for index in 0..manifest.entries.len() {
                black_box(shard_complete(&manifest, index, store.as_ref()).is_ok());
            }
        });
        m.insert("orchestrator.shard_complete_s".into(), (validate, "s"));
        store_layer(m, last_counts, &tr);
        analytics_layer(m, &tr, records);
        let world = World::build(&cfg);
        let (sim_records, sim) = timed(|| {
            manifest
                .entries
                .iter()
                .map(|e| {
                    let shard = run_shard(&world, &cfg, e.day_lo..e.day_hi, e.ue_lo..e.ue_hi);
                    shard.dataset.len() as u64
                })
                .sum::<u64>()
        });
        sim_layer(m, &cfg, sim, sim_records);
        let open = tr.median("orchestrator.open_study_s");
        let whole = median(&results.traced);
        out.detail.push(("open_study_plus_shard_complete_share".into(), (open + validate) / whole));
        let mut data = study.data().clone();
        drop(study);
        probes::sweep_layers(&mut data, &mut out.metrics);
    }
    drop(store);
    remove_dir(&dir);
    Ok(out)
}
