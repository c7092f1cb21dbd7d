// telco-lint: deny-nondeterminism
//! The single-sweep streaming analysis engine.
//!
//! Every record-scanning analysis is an [`AnalysisPass`]: an accumulator
//! with `begin → record* → end` lifecycle plus a deterministic `merge`
//! for partitioned parallel sweeps. The [`Sweep`] driver runs any pass
//! (or a composite of many) in **one** shared traversal of the study's
//! [`telco_sim::TraceSource`], feeding it [`ColumnBatch`]es — the native
//! decode target of the v3 columnar trace format — so the hot passes
//! scan struct-of-arrays column slices instead of dispatching per row.
//!
//! # Execution modes
//!
//! - **Sequential** (`threads == 1`, or a trace that cannot be cut):
//!   [`TraceSource::for_each_columns`] transposes in-memory records
//!   window by window through one reused batch, or decodes spilled v3
//!   chunks straight into it.
//! - **Parallel** (`threads > 1`): [`TraceSource::spans`] cuts the trace
//!   into `w = min(threads, work units)` contiguous spans, and one worker
//!   per span calls `begin` once and feeds its whole span, in order,
//!   through `record_columns`. In memory the work units are records and
//!   the spans equal record ranges, cut anywhere. Spilled, the work units
//!   are chunk frames: a header-only index scan finds each frame's
//!   offset, spans are balanced by record count, and each worker opens
//!   its own reader at its span's first frame and CRC-checks, decodes or
//!   skips every frame exactly as the sequential reader does. A framing
//!   anomaly in the index scan (bad magic, sequence gap, out-of-bound
//!   length, missing or bad trailer) sends the sweep down the sequential
//!   path, so skip semantics never diverge; an I/O error aborts either
//!   way. Each worker holds one accumulator, one batch and one payload
//!   buffer, never the whole trace.
//!
//! # Determinism of the parallel merge
//!
//! [`Sweep`] folds the `w` accumulators left to right in span order.
//! Each one saw the span right after its predecessor's, which is
//! exactly the [`AnalysisPass::merge`] contract ("`other` saw a later,
//! disjoint span"), so the fold replays the sequential traversal and
//! which thread ran which span can never reach the output. Pass authors
//! keep the fold exact by accumulating only order-robust state during
//! `record` (integer counters, integer-valued `f64` sums — exact under
//! regrouping below 2^53 — set unions, and sample vectors concatenated
//! in trace order) and deferring every order-sensitive computation
//! (ratios, sorts, ECDFs, world joins) to `end`. Span cuts fall at
//! arbitrary record boundaries — mid-day, mid-chunk, inside a ping-pong
//! chain — and every shipped pass is exact there: the only
//! boundary-sensitive accumulator (ping-pong chain stitching) keeps
//! explicit first/last edge state precisely so its merge is exact at any
//! split point. `tests/span_merge_props.rs` proves it for every pass and
//! the composite over arbitrary cuts.
//!
//! [`TraceSource::for_each_columns`]: telco_sim::TraceSource::for_each_columns
//! [`TraceSource::spans`]: telco_sim::TraceSource::spans

use telco_signaling::messages::HoType;
use telco_sim::{SimConfig, StudyData, World};
use telco_trace::columnar::{ColumnBatch, FLAG_FAILURE};
use telco_trace::record::HoRecord;
use telco_trace::snap::{decode_frame, encode_frame, SnapError, SnapReader, SnapWriter};
use telco_trace::source::TraceSpan;
use telco_trace::store::ChunkIssue;

use crate::frame::Enriched;

/// Shared context handed to every pass hook: the world for joins and the
/// config for scale parameters. Never carries the trace — records only
/// flow through [`AnalysisPass::record`].
pub struct SweepCtx<'a> {
    /// The simulated world (topology, census, device catalog).
    pub world: &'a World,
    /// The study configuration.
    pub config: &'a SimConfig,
}

/// A streaming analysis: an accumulator over one trace traversal.
///
/// Lifecycle: `begin(ctx)` once, `record(r, e)` per handover record in
/// timestamp order, `end(ctx)` once to produce the output. A parallel
/// sweep runs one instance per contiguous trace span and folds them in
/// span order with `merge`.
pub trait AnalysisPass {
    /// The finished analysis this pass produces.
    type Output;

    /// Reset and size the accumulator. Called once before any records;
    /// allocate only empty per-record state here — world-derived
    /// contributions belong in [`AnalysisPass::end`] so partition merges
    /// stay purely additive.
    fn begin(&mut self, _ctx: &SweepCtx) {}

    /// Fold one handover record into the accumulator.
    fn record(&mut self, r: &HoRecord, e: &Enriched);

    /// Fold a whole chunk of records. The driver feeds chunks, not
    /// records: overriding this lets a pass (or a composite of many) run
    /// one tight loop per chunk instead of paying a full dispatch fan-out
    /// per record — the difference between the codec-bound and the
    /// dispatch-bound stream-aggregate benchmark. The default simply
    /// loops [`AnalysisPass::record`]; overrides must be
    /// record-for-record equivalent to that loop.
    #[inline]
    fn record_chunk(&mut self, chunk: &[HoRecord], e: &Enriched) {
        for r in chunk {
            self.record(r, e);
        }
    }

    /// Fold a decoded column batch. This is what the driver actually
    /// feeds on every execution mode: overriding it with tight scans
    /// over the column slices the pass needs (and nothing else) is the
    /// columnar fast path. The default materializes each row through
    /// [`ColumnBatch::rows`] and loops [`AnalysisPass::record`];
    /// overrides must be record-for-record equivalent to that loop.
    #[inline]
    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, e: &Enriched) {
        for r in batch.rows() {
            self.record(&r, e);
        }
    }
    // telco-lint: deny-alloc(end)

    /// Fold another instance of this pass into `self`. `other` saw a
    /// later, disjoint span of the trace ([`Sweep`] merges in span
    /// order). The fold must be deterministic: the result may depend on
    /// which records each side saw, never on hash-iteration or thread
    /// order.
    fn merge(&mut self, other: Self, ctx: &SweepCtx)
    where
        Self: Sized;

    /// Finish the analysis: ratios, sorts, ECDFs, and world joins.
    fn end(self, ctx: &SweepCtx) -> Self::Output;

    /// Version tag of this pass's snapshot encoding. Bump it whenever
    /// the byte layout written by [`AnalysisPass::snapshot`] changes so
    /// stale persisted state fails loudly instead of restoring garbage.
    const SNAPSHOT_VERSION: u16;

    /// Serialize the accumulator state into `w`.
    ///
    /// The encoding must be **deterministic** (two accumulators holding
    /// the same logical state produce identical bytes — sort any
    /// hash-ordered collection before encoding) and **self-sufficient**:
    /// it captures sizes and construction parameters, so restoring into
    /// a default-constructed instance rebuilds this one exactly.
    fn snapshot(&self, w: &mut SnapWriter);

    /// Overwrite the accumulator from bytes written by
    /// [`AnalysisPass::snapshot`]. After a successful restore the pass
    /// behaves exactly as the snapshotted one: it can keep recording,
    /// [`AnalysisPass::merge`] deltas, and [`AnalysisPass::end`].
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] when the payload is truncated or malformed.
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError>;
}

/// Snapshot a pass into a self-describing frame: magic, the pass's
/// [`AnalysisPass::SNAPSHOT_VERSION`], the payload, and a CRC-32 over
/// both (see [`telco_trace::snap`]).
pub fn snapshot_pass<P: AnalysisPass>(pass: &P) -> Vec<u8> {
    let mut w = SnapWriter::new();
    pass.snapshot(&mut w);
    encode_frame(P::SNAPSHOT_VERSION, &w.into_bytes())
}

/// Restore a pass from a frame written by [`snapshot_pass`], verifying
/// magic, version, CRC, and full payload consumption.
///
/// # Errors
///
/// Any [`SnapError`]: corrupted or truncated frames, a version other
/// than the pass's current one, or undecoded trailing payload bytes.
pub fn restore_pass<P: AnalysisPass>(pass: &mut P, bytes: &[u8]) -> Result<(), SnapError> {
    let payload = decode_frame(P::SNAPSHOT_VERSION, bytes)?;
    let mut r = SnapReader::new(payload);
    pass.restore(&mut r)?;
    r.finish()
}

/// The sweep driver: one shared traversal of a study's trace feeding any
/// pass, sequential or split into contiguous spans over worker threads
/// when the config asks for threads.
pub struct Sweep<'a> {
    data: &'a StudyData,
}

impl<'a> Sweep<'a> {
    /// A sweep over the study's trace.
    pub fn new(data: &'a StudyData) -> Self {
        Sweep { data }
    }

    /// Run one pass (or composite) in a single trace traversal. `make`
    /// builds a fresh accumulator; the parallel mode calls it once per
    /// worker.
    ///
    /// # Errors
    ///
    /// Fails only when a spilled trace hits an underlying I/O error;
    /// damaged chunks are skipped (skip-and-report, as everywhere else in
    /// the trace layer) and counted in
    /// [`telco_sim::TraceSource::skipped_chunks`].
    pub fn run<P, F>(&self, make: F) -> Result<P::Output, ChunkIssue>
    where
        P: AnalysisPass + Send,
        F: Fn() -> P + Sync,
    {
        let ctx = SweepCtx { world: &self.data.world, config: &self.data.config };
        let threads = resolve_threads(&self.data.config);
        if threads > 1 {
            let spans = self.data.trace.spans(threads)?;
            if let Some((first, rest)) = spans.split_first().filter(|(_, rest)| !rest.is_empty()) {
                return self.run_spans(&make, &ctx, first, rest);
            }
        }
        self.run_sequential(make(), &ctx)
    }

    fn run_sequential<P: AnalysisPass>(
        &self,
        mut pass: P,
        ctx: &SweepCtx,
    ) -> Result<P::Output, ChunkIssue> {
        let enriched = Enriched::new(ctx.world);
        pass.begin(ctx);
        // telco-lint: deny-panic(begin)
        self.data.trace.for_each_columns(|batch| pass.record_columns(batch, &enriched))?;
        // telco-lint: deny-panic(end)
        Ok(pass.end(ctx))
    }

    /// The parallel sweep: one worker per span, each with one accumulator
    /// fed its contiguous span in trace order (the calling thread takes
    /// the first span), then one left-to-right fold in span order. An I/O
    /// error in any span aborts the sweep (the first such span's issue is
    /// returned).
    fn run_spans<P, F>(
        &self,
        make: &F,
        ctx: &SweepCtx,
        first: &TraceSpan<'_>,
        rest: &[TraceSpan<'_>],
    ) -> Result<P::Output, ChunkIssue>
    where
        P: AnalysisPass + Send,
        F: Fn() -> P + Sync,
    {
        let trace = &self.data.trace;
        trace.note_sweep();
        let enriched = Enriched::new(ctx.world);
        let fill = |span: &TraceSpan<'_>| -> Result<P, ChunkIssue> {
            let mut pass = make();
            pass.begin(ctx);
            // telco-lint: deny-panic(begin)
            trace.for_each_span_columns(span, |batch| pass.record_columns(batch, &enriched))?;
            // telco-lint: deny-panic(end)
            Ok(pass)
        };
        let (base, parts) = std::thread::scope(|scope| {
            let fill = &fill;
            let handles: Vec<_> = rest.iter().map(|span| scope.spawn(move || fill(span))).collect();
            let base = fill(first);
            let parts: Vec<_> =
                handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect();
            (base, parts)
        });

        // telco-lint: deny-nondeterminism(begin)
        // Each part saw the span right after its predecessor's, so this
        // fold is the `merge` contract applied in trace order: which
        // thread ran which span can never reach the output.
        let mut base = base?;
        for part in parts {
            base.merge(part?, ctx);
        }
        // telco-lint: deny-nondeterminism(end)
        Ok(base.end(ctx))
    }
}

fn resolve_threads(config: &SimConfig) -> usize {
    if config.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        config.threads
    }
}

/// Whole-trace counters every summary needs: record totals per handover
/// type and the failure count. Replaces the `SignalingDataset` accessors
/// (`len`, `counts_by_type`, `hof_rate`) for studies whose trace may live
/// on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct TraceCounts {
    /// Total handover records swept.
    pub records: u64,
    /// Records per handover type (`HoType::index()` order).
    pub by_type: [u64; 3],
    /// Failed handovers among them.
    pub failures: u64,
    /// Study-day span (for daily normalization).
    pub days: u32,
}

impl TraceCounts {
    /// Failures per handover.
    pub fn hof_rate(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.failures as f64 / self.records as f64
    }

    /// Average records per study day.
    pub fn daily_mean(&self) -> f64 {
        if self.days == 0 {
            return 0.0;
        }
        self.records as f64 / self.days as f64
    }
}

/// The [`TraceCounts`] accumulator.
#[derive(Debug, Default)]
pub struct TraceCountsPass {
    counts: TraceCounts,
}

impl AnalysisPass for TraceCountsPass {
    type Output = TraceCounts;

    fn begin(&mut self, ctx: &SweepCtx) {
        self.counts = TraceCounts { days: ctx.config.n_days, ..TraceCounts::default() };
    }

    fn record(&mut self, r: &HoRecord, _e: &Enriched) {
        self.counts.records += 1;
        self.counts.by_type[r.ho_type().index()] += 1;
        self.counts.failures += u64::from(r.is_failure());
    }

    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, _e: &Enriched) {
        self.counts.records += batch.len() as u64;
        for &rat in batch.target_rats() {
            self.counts.by_type[HoType::from_target_rat(rat).index()] += 1;
        }
        for &flags in batch.flags() {
            self.counts.failures += u64::from(flags & FLAG_FAILURE != 0);
        }
    }
    // telco-lint: deny-alloc(end)

    fn merge(&mut self, other: Self, _ctx: &SweepCtx) {
        self.counts.records += other.counts.records;
        self.counts.failures += other.counts.failures;
        for (mine, theirs) in self.counts.by_type.iter_mut().zip(other.counts.by_type) {
            *mine += theirs;
        }
    }

    fn end(self, _ctx: &SweepCtx) -> TraceCounts {
        self.counts
    }

    const SNAPSHOT_VERSION: u16 = 1;

    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_varint(self.counts.records);
        for &n in &self.counts.by_type {
            w.put_varint(n);
        }
        w.put_varint(self.counts.failures);
        w.put_u32(self.counts.days);
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.counts.records = r.get_varint()?;
        for slot in &mut self.counts.by_type {
            *slot = r.get_varint()?;
        }
        self.counts.failures = r.get_varint()?;
        self.counts.days = r.get_u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_sim::{run_study, run_study_spilled, SimConfig, TraceSource};

    #[test]
    fn trace_counts_match_dataset() {
        let data = run_study(SimConfig::tiny());
        let counts = Sweep::new(&data).run(TraceCountsPass::default).unwrap();
        let dataset = data.trace.as_dataset().unwrap();
        assert_eq!(counts.records, dataset.len() as u64);
        assert_eq!(counts.by_type, dataset.counts_by_type());
        assert_eq!(counts.hof_rate(), dataset.hof_rate());
        assert_eq!(counts.daily_mean(), dataset.daily_mean());
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let mut seq_cfg = SimConfig::tiny();
        seq_cfg.threads = 1;
        let mut par_cfg = seq_cfg.clone();
        par_cfg.threads = 4;
        let seq = run_study(seq_cfg);
        let par = run_study(par_cfg);
        let a = Sweep::new(&seq).run(TraceCountsPass::default).unwrap();
        let b = Sweep::new(&par).run(TraceCountsPass::default).unwrap();
        assert_eq!(a, b);
        // One traversal each, whichever mode ran.
        assert_eq!(seq.trace.sweeps(), 1);
        assert_eq!(par.trace.sweeps(), 1);
    }

    #[test]
    fn spilled_sweep_streams_the_same_counts() {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 150;
        let in_mem = run_study(cfg.clone());
        let dir = std::env::temp_dir().join("telco_sweep_spill_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spilled = run_study_spilled(cfg, &dir).unwrap();
        let a = Sweep::new(&in_mem).run(TraceCountsPass::default).unwrap();
        let b = Sweep::new(&spilled).run(TraceCountsPass::default).unwrap();
        assert_eq!(a, b);
        assert_eq!(spilled.trace.sweeps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Byte offset of every chunk frame header of a sealed v3 trace.
    fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
        let mut offsets = Vec::new();
        let mut pos = telco_trace::store::V2_HEADER_BYTES;
        while bytes[pos..pos + 4] == telco_trace::store::CHUNK_MAGIC {
            offsets.push(pos);
            let len = u32::from_be_bytes(bytes[pos + 12..pos + 16].try_into().unwrap());
            pos += telco_trace::store::V3_FRAME_HEADER_BYTES + len as usize;
        }
        offsets
    }

    /// Study composite outputs and the skipped-chunk count of one sweep
    /// at `threads` over a fresh source on `path`.
    fn sweep_file(data: &mut StudyData, path: &std::path::Path, threads: usize) -> (String, u64) {
        data.trace = TraceSource::spilled(path, data.config.n_days, data.trace.len());
        data.config.threads = threads;
        let outputs = Sweep::new(data).run(crate::StudyPasses::default).unwrap();
        assert_eq!(data.trace.sweeps(), 1);
        (serde_json::to_string(&outputs).unwrap(), data.trace.skipped_chunks())
    }

    #[test]
    fn damaged_chunks_are_skipped_identically_at_every_thread_count() {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 150;
        cfg.n_days = 5;
        let mut data = run_study(cfg);
        let dir = std::env::temp_dir().join("telco_sweep_damage_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tlho");
        // One chunk per day: five frames to cut into spans.
        telco_trace::store::write_file_v3(data.trace.as_dataset().unwrap(), &path).unwrap();
        let clean = sweep_file(&mut data, &path, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let frames = frame_offsets(&bytes);
        assert_eq!(frames.len(), 5);

        // A flipped payload byte (the last of the third frame): the span
        // readers skip it just as the sequential reader does.
        bytes[frames[3] - 1] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (one, skipped) = sweep_file(&mut data, &path, 1);
        assert_eq!(skipped, 1);
        assert_ne!(one, clean.0, "the damaged chunk is lost");
        for threads in [2, 3, 8] {
            assert!(data.trace.spans(threads).unwrap().len() > 1, "cuttable at {threads}");
            assert_eq!(
                sweep_file(&mut data, &path, threads),
                (one.clone(), 1),
                "{threads} threads"
            );
        }

        // A broken frame magic: no spans, every thread count falls back to
        // the sequential reader and its resync.
        bytes[frames[1]] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let fallback = sweep_file(&mut data, &path, 1);
        assert_eq!(fallback.1, 2);
        for threads in [2, 3, 8] {
            assert!(data.trace.spans(threads).unwrap().is_empty());
            assert_eq!(sweep_file(&mut data, &path, threads), fallback, "{threads} threads");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_sweep_spawns_no_idle_workers() {
        let dir = std::env::temp_dir().join("telco_sweep_one_chunk_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tlho");
        let mut data = run_study(SimConfig::tiny());
        let dataset = data.trace.as_dataset().unwrap();
        let mut writer = telco_trace::TraceWriter::create(&path, dataset.days).unwrap();
        writer.write_chunk(dataset.records()).unwrap();
        writer.finish().unwrap();
        data.trace = TraceSource::spilled(&path, data.config.n_days, data.trace.len());
        data.config.threads = 8;
        assert_eq!(data.trace.spans(8).unwrap().len(), 1, "one chunk, one span");
        Sweep::new(&data).run(TraceCountsPass::default).unwrap();
        assert_eq!(data.trace.column_batches(), 1, "one span, one decoded batch");
        assert_eq!(data.trace.sweeps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
