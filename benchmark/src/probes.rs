//! Per-layer probes of the traced run: after the timed phase, time each
//! layer alone over the workload's own trace, so the layer numbers
//! explain the end-to-end one without slowing it.

use std::hint::black_box;

use telco_analytics::frame::{Enriched, FramePass, FrameWindow};
use telco_analytics::geodemo::{HoDensityPass, PopulationPass};
use telco_analytics::handovers::{DistrictPass, DurationPass, HoTypePass};
use telco_analytics::hof::{CausePass, HofPatternsPass};
use telco_analytics::manufacturer::ManufacturerPass;
use telco_analytics::pingpong::PingPongPass;
use telco_analytics::sweep::{AnalysisPass, Sweep, SweepCtx, TraceCountsPass};
use telco_analytics::timeseries::TemporalPass;
use telco_analytics::vendor_analysis::VendorPass;
use telco_analytics::StudyPasses;
use telco_sim::StudyData;
use telco_trace::columnar::ColumnBatch;
use telco_trace::store::TraceReader;

use crate::metrics::{median, timed, Metrics};

/// Times each probe is repeated; the median is reported.
pub const PROBE_REPS: usize = 3;

fn median_secs(mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..PROBE_REPS).map(|_| timed(&mut f).1).collect();
    median(&runs)
}

fn time_pass<P: AnalysisPass + Send>(data: &StudyData, make: impl Fn() -> P + Sync) -> f64 {
    median_secs(|| {
        black_box(Sweep::new(data).run(&make).is_ok());
    })
}

/// Drive the composite by hand: `begin`, `record_columns` per batch,
/// `end`. Returns (record seconds, end seconds).
fn drive_composite(data: &StudyData) -> (f64, f64) {
    let ctx = SweepCtx { world: &data.world, config: &data.config };
    let enriched = Enriched::new(&data.world);
    let mut pass = StudyPasses::default();
    let ((), record) = timed(|| {
        pass.begin(&ctx);
        black_box(data.trace.for_each_columns(|b| pass.record_columns(b, &enriched)).is_ok());
    });
    let (outputs, end) = timed(|| pass.end(&ctx));
    black_box(outputs.trace_counts.records);
    (record, end)
}

/// Analytics and trace probes over `data`, at one thread: the composite,
/// each of the 14 passes alone, the hand-driven composite and a decode
/// with no pass attached.
pub fn sweep_layers(data: &mut StudyData, out: &mut Metrics) {
    let threads = std::mem::replace(&mut data.config.threads, 1);
    single_thread_layers(data, out);
    data.config.threads = threads;
}

fn single_thread_layers(data: &StudyData, out: &mut Metrics) {
    let records = data.trace.len() as f64;

    let composite = time_pass(data, StudyPasses::default);
    out.insert("analytics.sweep_1t_records_per_s".into(), (records / composite, "1/s"));

    let drives: Vec<(f64, f64)> = (0..PROBE_REPS).map(|_| drive_composite(data)).collect();
    let record: Vec<f64> = drives.iter().map(|d| d.0).collect();
    let end: Vec<f64> = drives.iter().map(|d| d.1).collect();
    out.insert("analytics.record_s".into(), (median(&record), "s"));
    out.insert("analytics.end_s".into(), (median(&end), "s"));

    let passes = [
        time_pass(data, TraceCountsPass::default),
        time_pass(data, HoTypePass::default),
        time_pass(data, DurationPass::default),
        time_pass(data, DistrictPass::default),
        time_pass(data, PopulationPass::default),
        time_pass(data, HoDensityPass::default),
        time_pass(data, TemporalPass::default),
        time_pass(data, ManufacturerPass::default),
        time_pass(data, HofPatternsPass::default),
        time_pass(data, CausePass::default),
        time_pass(data, PingPongPass::default),
        time_pass(data, VendorPass::default),
        time_pass(data, || FramePass::new(FrameWindow::Daily)),
        time_pass(data, || FramePass::new(FrameWindow::FullPeriod)),
    ];
    for (name, secs) in crate::metrics::PASSES.iter().zip(passes) {
        out.insert(format!("analytics.pass.{name}_s"), (secs, "s"));
    }

    let before = data.trace.column_batches();
    let decode = median_secs(|| {
        let mut n = 0usize;
        black_box(data.trace.for_each_columns(|b| n += b.len()).is_ok());
        black_box(n);
    });
    out.insert("trace.decode_s".into(), (decode, "s"));
    let batches = (data.trace.column_batches() - before) / PROBE_REPS as u64;
    let (chunks, skipped) = match data.trace.spill_path() {
        Some(path) => chunk_census(path),
        None => (batches, 0),
    };
    out.insert("trace.chunks".into(), (chunks as f64, "count"));
    out.insert("trace.skipped_chunks".into(), (skipped as f64, "count"));
}

/// (chunks decoded, chunks skipped as damaged) of a sealed trace file.
fn chunk_census(path: &std::path::Path) -> (u64, u64) {
    let Ok(mut reader) = TraceReader::open(path) else { return (0, 0) };
    let mut batch = ColumnBatch::new();
    let mut skipped = 0u64;
    while let Some(chunk) = reader.next_chunk_columns(&mut batch) {
        skipped += u64::from(chunk.is_err());
    }
    (reader.chunks_read(), skipped)
}
