//! Where a study's handover records live: the [`TraceSource`]
//! abstraction over an in-memory [`SignalingDataset`] and a spilled v2
//! trace file on disk.
//!
//! Every analysis traversal goes through this type, which instruments
//! the two contracts the analytics layer is built on:
//!
//! - **one shared sweep** — [`TraceSource::sweeps`] counts record
//!   traversals, so tests can assert that a full study scans the trace
//!   once instead of once per analysis;
//! - **bounded memory on the spilled path** — [`TraceSource::for_each_chunk`]
//!   streams a spilled trace chunk-by-chunk through a reused buffer and
//!   never materializes a full-trace `Vec<HoRecord>`;
//! - **no silent loss** — [`TraceSource::skipped_chunks`] counts the
//!   damaged chunks a traversal skipped past.
//!
//! A parallel sweep cuts the trace into contiguous [`TraceSpan`]s
//! ([`TraceSource::spans`]) and streams each one on its own worker
//! ([`TraceSource::for_each_span_columns`]).

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::columnar::ColumnBatch;
use crate::dataset::SignalingDataset;
use crate::io::CodecError;
use crate::record::HoRecord;
use crate::store::{ChunkIssue, FrameIndex, FrameSpan, TraceReader};

/// Records per column batch when transposing an in-memory dataset for
/// the columnar sweep: large enough to amortize the per-batch pass
/// fan-out, small enough that a batch's hot columns stay cache-resident
/// while ~15 passes scan it (~31 B/record across all columns → ~500 KiB
/// per batch).
pub const COLUMN_BATCH_RECORDS: usize = 1 << 14;

/// A sealed v2 trace file on disk, with the span and record count its
/// trailer declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpilledTrace {
    /// The v2 trace file.
    pub path: PathBuf,
    /// Study-day span of the trace.
    pub days: u32,
    /// Total records in the trace.
    pub records: u64,
}

/// A contiguous piece of a trace, in trace order: what one worker of a
/// parallel sweep feeds through its own accumulator.
#[derive(Debug, Clone, Copy)]
pub enum TraceSpan<'a> {
    /// A range of an in-memory dataset's records.
    Records(&'a [HoRecord]),
    /// Consecutive chunk frames of a spilled trace file.
    Frames(&'a Path, FrameSpan),
}

#[derive(Debug)]
enum SourceKind {
    InMemory(SignalingDataset),
    Spilled(SpilledTrace),
}

/// The record store behind a study: either the in-memory dataset the
/// runner produced, or a spilled v2 trace streamed from disk. Carries a
/// traversal counter so the "one shared sweep" contract is testable.
#[derive(Debug)]
pub struct TraceSource {
    kind: SourceKind,
    sweeps: AtomicU64,
    /// Column batches served by the fast path ([`TraceSource::for_each_columns`]
    /// or an external columnar pipeline that reports via
    /// [`TraceSource::note_column_batches`]) — lets benchmarks assert the
    /// columnar path was exercised rather than silently falling back to
    /// rows.
    column_batches: AtomicU64,
    /// Damaged chunks skipped by traversals of a spilled trace.
    skipped_chunks: AtomicU64,
}

// telco-lint: audited-atomics(begin): `sweeps`, `column_batches` and `skipped_chunks` are monotonic instrumentation counters —
// nothing synchronizes through them. Relaxed RMWs on a single location are totally ordered, and the tests
// that assert on the totals read them after every traversal thread has joined (a happens-before edge the
// join itself provides), so no stronger ordering would change any observable count.
impl Clone for TraceSource {
    fn clone(&self) -> Self {
        TraceSource {
            kind: match &self.kind {
                SourceKind::InMemory(d) => SourceKind::InMemory(d.clone()),
                SourceKind::Spilled(s) => SourceKind::Spilled(s.clone()),
            },
            sweeps: AtomicU64::new(self.sweeps.load(Ordering::Relaxed)),
            column_batches: AtomicU64::new(self.column_batches.load(Ordering::Relaxed)),
            skipped_chunks: AtomicU64::new(self.skipped_chunks.load(Ordering::Relaxed)),
        }
    }
}

impl TraceSource {
    /// A source serving records from memory.
    pub fn in_memory(dataset: SignalingDataset) -> Self {
        TraceSource {
            kind: SourceKind::InMemory(dataset),
            sweeps: AtomicU64::new(0),
            column_batches: AtomicU64::new(0),
            skipped_chunks: AtomicU64::new(0),
        }
    }

    /// A source streaming records from a sealed v2 trace file.
    pub fn spilled(path: impl Into<PathBuf>, days: u32, records: u64) -> Self {
        TraceSource {
            kind: SourceKind::Spilled(SpilledTrace { path: path.into(), days, records }),
            sweeps: AtomicU64::new(0),
            column_batches: AtomicU64::new(0),
            skipped_chunks: AtomicU64::new(0),
        }
    }

    /// Study-day span of the trace.
    pub fn days(&self) -> u32 {
        match &self.kind {
            SourceKind::InMemory(d) => d.days,
            SourceKind::Spilled(s) => s.days,
        }
    }

    /// Total records (for a spilled source, the count its trailer sealed).
    pub fn len(&self) -> u64 {
        match &self.kind {
            SourceKind::InMemory(d) => d.len() as u64,
            SourceKind::Spilled(s) => s.records,
        }
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether records live on disk rather than in memory.
    pub fn is_spilled(&self) -> bool {
        matches!(self.kind, SourceKind::Spilled(_))
    }

    /// The backing file of a spilled source.
    pub fn spill_path(&self) -> Option<&Path> {
        match &self.kind {
            SourceKind::InMemory(_) => None,
            SourceKind::Spilled(s) => Some(&s.path),
        }
    }

    /// The in-memory dataset, if this source holds one.
    pub fn as_dataset(&self) -> Option<&SignalingDataset> {
        match &self.kind {
            SourceKind::InMemory(d) => Some(d),
            SourceKind::Spilled(_) => None,
        }
    }

    /// Average records per day.
    pub fn daily_mean(&self) -> f64 {
        let days = self.days();
        if days == 0 {
            return 0.0;
        }
        self.len() as f64 / days as f64
    }

    /// How many record traversals this source has served — the number
    /// the scan-count regression asserts on.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// How many column batches the fast path has served (0 means every
    /// traversal went through materialized rows).
    pub fn column_batches(&self) -> u64 {
        self.column_batches.load(Ordering::Relaxed)
    }

    /// How many damaged chunks traversals have skipped: one per chunk
    /// lost to a CRC or decode failure or a broken frame header, plus one
    /// for a truncated, unsealed or mismatched tail. Always 0 for an
    /// in-memory source.
    pub fn skipped_chunks(&self) -> u64 {
        self.skipped_chunks.load(Ordering::Relaxed)
    }

    /// Record one traversal performed by an external pipeline (the
    /// parallel sweep, which streams [`TraceSource::spans`] instead of
    /// going through [`TraceSource::for_each_columns`]).
    pub fn note_sweep(&self) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
    }

    /// Traverse the trace once, in timestamp order, handing `f` one
    /// decoded [`ColumnBatch`] at a time — the native input of the
    /// columnar analysis sweep. A spilled v3 source decodes straight
    /// into the batch (no per-record row construction); a spilled v2
    /// source transposes rows into the same shape; an in-memory source
    /// transposes fixed-size record windows through one reused batch.
    /// Error semantics match [`TraceSource::for_each_chunk`]: damaged
    /// chunks are skipped, I/O failure aborts.
    pub fn for_each_columns(&self, mut f: impl FnMut(&ColumnBatch)) -> Result<(), ChunkIssue> {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        match &self.kind {
            SourceKind::InMemory(d) => {
                self.feed_records(d.records(), &mut f);
                Ok(())
            }
            SourceKind::Spilled(s) => {
                let mut reader = TraceReader::open(&s.path).map_err(open_issue)?;
                self.feed_frames(&mut reader, u64::MAX, &mut f)
            }
        }
    }

    /// Cut the trace into at most `parts` contiguous spans for a
    /// parallel sweep, in trace order: streaming every span in order
    /// with [`TraceSource::for_each_span_columns`] hands over exactly
    /// the records one [`TraceSource::for_each_columns`] does.
    ///
    /// - In memory: `min(parts, records)` equal record ranges. Cuts may
    ///   fall anywhere, not only at midnight.
    /// - Spilled: runs of chunk frames balanced by record count, from a
    ///   header-only [`FrameIndex`] scan; every span holds a record.
    ///   The list is **empty** when the file cannot be cut safely (a v1
    ///   stream or any framing anomaly), so the caller reads it
    ///   sequentially and the reader's resync and skip rules apply
    ///   unchanged.
    ///
    /// Does not count as a traversal.
    ///
    /// # Errors
    ///
    /// An I/O error while indexing a spilled trace.
    pub fn spans(&self, parts: usize) -> Result<Vec<TraceSpan<'_>>, ChunkIssue> {
        match &self.kind {
            SourceKind::InMemory(d) => {
                let records = d.records();
                let (len, n) = (records.len(), parts.clamp(1, records.len().max(1)));
                let range = |k: usize| records.get(k * len / n..(k + 1) * len / n).unwrap_or(&[]);
                Ok((0..n).map(|k| TraceSpan::Records(range(k))).collect())
            }
            SourceKind::Spilled(s) => {
                let index = FrameIndex::scan(&s.path).map_err(open_issue)?;
                let spans = index.map_or_else(Vec::new, |index| index.spans(parts));
                Ok(spans.into_iter().map(|span| TraceSpan::Frames(&s.path, span)).collect())
            }
        }
    }

    /// Stream one span of [`TraceSource::spans`] in trace order, handing
    /// `f` one decoded [`ColumnBatch`] at a time, with the error
    /// semantics of [`TraceSource::for_each_columns`]: damaged chunks are
    /// skipped and counted, I/O failure aborts. Holds one batch and one
    /// payload buffer. Does not count as a traversal: the parallel
    /// sweep counts one for all its spans ([`TraceSource::note_sweep`]).
    pub fn for_each_span_columns(
        &self,
        span: &TraceSpan<'_>,
        mut f: impl FnMut(&ColumnBatch),
    ) -> Result<(), ChunkIssue> {
        match span {
            TraceSpan::Records(records) => {
                self.feed_records(records, &mut f);
                Ok(())
            }
            TraceSpan::Frames(path, span) => {
                let mut reader = TraceReader::open_span(path, span).map_err(open_issue)?;
                self.feed_frames(&mut reader, span.frames(), &mut f)
            }
        }
    }

    /// Transpose `records` through one reused batch, a fixed-size window
    /// at a time.
    fn feed_records(&self, records: &[HoRecord], f: &mut impl FnMut(&ColumnBatch)) {
        let mut batch = ColumnBatch::new();
        let mut batches = 0u64;
        for window in records.chunks(COLUMN_BATCH_RECORDS) {
            batch.clear();
            batch.extend_from_rows(window);
            batches += 1;
            f(&batch);
        }
        self.column_batches.fetch_add(batches, Ordering::Relaxed);
    }

    /// Decode up to `frames` chunks from `reader` (stopping early at end
    /// of stream) into one reused batch.
    fn feed_frames<R: Read>(
        &self,
        reader: &mut TraceReader<R>,
        frames: u64,
        f: &mut impl FnMut(&ColumnBatch),
    ) -> Result<(), ChunkIssue> {
        let mut batch = ColumnBatch::new();
        let (mut batches, mut skipped) = (0u64, 0u64);
        let mut result = Ok(());
        for _ in 0..frames {
            match reader.next_chunk_columns(&mut batch) {
                None => break,
                Some(Ok(())) => {
                    batches += 1;
                    f(&batch);
                }
                // Skip-and-report recovery: corruption already cost
                // exactly one chunk; an I/O error means the medium itself
                // failed, so abort.
                Some(Err(issue)) if matches!(issue.error, CodecError::Io(_)) => {
                    result = Err(issue);
                    break;
                }
                Some(Err(_)) => skipped += 1,
            }
        }
        self.column_batches.fetch_add(batches, Ordering::Relaxed);
        self.skipped_chunks.fetch_add(skipped, Ordering::Relaxed);
        result
    }

    /// Traverse the trace once, in timestamp order, handing `f` one
    /// decoded chunk at a time. An in-memory source yields its records
    /// as one borrowed slice; a spilled source streams chunk-by-chunk
    /// through a reused buffer with bounded memory. Damaged chunks in a
    /// spilled trace are skipped (already recorded by the writer-side
    /// checks); only an underlying I/O failure aborts the traversal.
    pub fn for_each_chunk(&self, mut f: impl FnMut(&[HoRecord])) -> Result<(), ChunkIssue> {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        match &self.kind {
            SourceKind::InMemory(d) => {
                f(d.records());
                Ok(())
            }
            SourceKind::Spilled(s) => {
                let mut reader = TraceReader::open(&s.path).map_err(open_issue)?;
                let mut buf: Vec<HoRecord> = Vec::new();
                while let Some(chunk) = reader.next_chunk_into(&mut buf) {
                    match chunk {
                        Ok(()) => f(&buf),
                        // Skip-and-report recovery: corruption already
                        // cost exactly one chunk; an I/O error means the
                        // medium itself failed, so abort.
                        Err(issue) if matches!(issue.error, CodecError::Io(_)) => {
                            return Err(issue)
                        }
                        Err(_) => {
                            self.skipped_chunks.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

/// The issue reported when a trace file cannot be opened or indexed.
fn open_issue(error: CodecError) -> ChunkIssue {
    ChunkIssue { chunk: 0, offset: 0, error }
}
// telco-lint: audited-atomics(end)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HoOutcome;
    use crate::store::write_file_v2;
    use telco_devices::population::UeId;
    use telco_topology::elements::SectorId;
    use telco_topology::rat::Rat;

    fn rec(ts: u64, ue: u32) -> HoRecord {
        HoRecord {
            timestamp_ms: ts,
            ue: UeId(ue),
            source_sector: SectorId(1),
            target_sector: SectorId(2),
            source_rat: Rat::G4,
            target_rat: Rat::G4,
            outcome: HoOutcome::Success,
            cause: None,
            duration_ms: 50.0,
            srvcc: false,
            messages: 12,
        }
    }

    fn sample(days: u32, n: u64) -> SignalingDataset {
        let records =
            (0..n).map(|i| rec(i * 7_000_000 % (days as u64 * 86_400_000), i as u32)).collect();
        SignalingDataset::from_records(days, records)
    }

    #[test]
    fn in_memory_chunks_cover_everything_and_count_sweeps() {
        let d = sample(2, 100);
        let src = TraceSource::in_memory(d.clone());
        assert_eq!(src.sweeps(), 0);
        let mut seen = 0u64;
        src.for_each_chunk(|recs| seen += recs.len() as u64).unwrap();
        assert_eq!(seen, 100);
        assert_eq!(src.sweeps(), 1);
        assert_eq!(src.len(), 100);
        assert_eq!(src.days(), 2);
        assert!(!src.is_spilled());
        assert_eq!(src.as_dataset(), Some(&d));
    }

    #[test]
    fn spilled_chunks_match_in_memory() {
        let d = sample(3, 500);
        let dir = std::env::temp_dir().join("telco_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tlho");
        write_file_v2(&d, &path).unwrap();
        let src = TraceSource::spilled(&path, 3, d.len() as u64);
        assert!(src.is_spilled());
        assert_eq!(src.len(), d.len() as u64);
        let mut streamed = Vec::new();
        src.for_each_chunk(|recs| streamed.extend_from_slice(recs)).unwrap();
        assert_eq!(&streamed[..], d.records());
        assert_eq!(src.sweeps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clone_preserves_counter_value() {
        let src = TraceSource::in_memory(sample(1, 10));
        src.for_each_chunk(|_| {}).unwrap();
        let cloned = src.clone();
        assert_eq!(cloned.sweeps(), 1);
    }

    #[test]
    fn column_traversal_matches_rows_in_memory_and_spilled() {
        let d = sample(3, 40_000); // > COLUMN_BATCH_RECORDS → several batches
        let dir = std::env::temp_dir().join("telco_source_columns_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tlho");
        crate::store::write_file_v3(&d, &path).unwrap();

        for src in
            [TraceSource::in_memory(d.clone()), TraceSource::spilled(&path, 3, d.len() as u64)]
        {
            assert_eq!(src.column_batches(), 0);
            let mut streamed = Vec::new();
            src.for_each_columns(|batch| streamed.extend(batch.rows())).unwrap();
            assert_eq!(&streamed[..], d.records());
            assert_eq!(src.sweeps(), 1);
            assert!(src.column_batches() > 0, "fast-path counter must tick");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn external_pipeline_counts_a_sweep() {
        let src = TraceSource::in_memory(sample(1, 10));
        src.note_sweep();
        assert_eq!(src.sweeps(), 1);
        assert_eq!(src.column_batches(), 0);
    }

    /// Every span, streamed in order, hands over exactly the records of
    /// one sequential traversal, in memory and spilled, at any part count.
    #[test]
    fn spans_cover_the_trace_in_order() {
        // Mid-sized chunks: write_dataset emits one chunk per day, so 9
        // days give 9 frames to balance over.
        let d = sample(9, 3_000);
        let dir = std::env::temp_dir().join("telco_source_spans_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tlho");
        crate::store::write_file_v3(&d, &path).unwrap();

        for src in
            [TraceSource::in_memory(d.clone()), TraceSource::spilled(&path, 9, d.len() as u64)]
        {
            for parts in [1, 2, 3, 8, 64] {
                let spans = src.spans(parts).unwrap();
                assert!(!spans.is_empty() && spans.len() <= parts);
                let mut streamed = Vec::new();
                for span in &spans {
                    let before = streamed.len();
                    src.for_each_span_columns(span, |batch| streamed.extend(batch.rows())).unwrap();
                    assert!(streamed.len() > before, "every span holds records");
                }
                assert_eq!(&streamed[..], d.records(), "{parts} parts");
            }
            assert_eq!(src.sweeps(), 0, "spans are not traversals of their own");
            assert_eq!(src.skipped_chunks(), 0);
        }
        let in_memory = TraceSource::in_memory(d.clone());
        assert_eq!(in_memory.spans(64).unwrap().len(), 64, "records cut anywhere");
        let spilled = TraceSource::spilled(&path, 9, d.len() as u64);
        assert_eq!(spilled.spans(64).unwrap().len(), 9, "at most one span per frame");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
