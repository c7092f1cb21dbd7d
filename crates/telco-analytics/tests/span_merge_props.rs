//! The contract the parallel sweep relies on, proven over arbitrary
//! cuts: split a timestamp-sorted trace into up to five contiguous spans
//! at arbitrary points (empty spans, mid-day cuts, cuts inside
//! ping-pong chains included), `begin` and fill one accumulator per
//! span, fold them left to right with `merge`, and `end` — the canonical
//! JSON must equal one unsplit pass over the same records. This is
//! exactly what `Sweep::run` does with `threads > 1`, so a pass whose
//! merge were inexact at some boundary would fail here before any golden
//! noticed.
//!
//! Records mix arbitrary ones with dense A→B/B→A legs of a few UEs
//! around the first midnight, so chains that straddle a cut are common.

use std::sync::OnceLock;

use proptest::prelude::*;
use serde::Serialize;

use telco_analytics::frame::{Enriched, FramePass, FrameWindow};
use telco_analytics::geodemo::{HoDensityPass, PopulationPass};
use telco_analytics::handovers::{DistrictPass, DurationPass, HoTypePass};
use telco_analytics::hof::{CausePass, HofPatternsPass};
use telco_analytics::manufacturer::ManufacturerPass;
use telco_analytics::pingpong::PingPongPass;
use telco_analytics::study::StudyPasses;
use telco_analytics::sweep::{AnalysisPass, SweepCtx, TraceCountsPass};
use telco_analytics::timeseries::TemporalPass;
use telco_analytics::vendor_analysis::VendorPass;
use telco_devices::population::UeId;
use telco_signaling::causes::CauseCode;
use telco_sim::{SimConfig, World};
use telco_topology::elements::SectorId;
use telco_topology::rat::Rat;
use telco_trace::columnar::ColumnBatch;
use telco_trace::record::{HoOutcome, HoRecord};

const DAY_MS: u64 = 86_400_000;

/// One tiny world shared by every case: passes join records against the
/// topology and UE catalog, so record ids must name real entities.
fn world() -> &'static (World, SimConfig) {
    static CELL: OnceLock<(World, SimConfig)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 400;
        cfg.n_days = 3;
        (World::build(&cfg), cfg)
    })
}

fn arb_rat() -> impl Strategy<Value = Rat> {
    prop_oneof![Just(Rat::G2), Just(Rat::G3), Just(Rat::G4), Just(Rat::G5Nr)]
}

/// An arbitrary record; ids are reduced onto the world's entity ranges
/// by [`materialize`].
fn arb_record() -> impl Strategy<Value = HoRecord> {
    (
        0u64..(3 * DAY_MS),
        0u32..u32::MAX,
        (0u32..u32::MAX, 0u32..u32::MAX),
        (arb_rat(), arb_rat()),
        proptest::bool::ANY,
        1u16..1050,
        0.0f32..20_000.0,
        proptest::bool::ANY,
        0u16..40,
    )
        .prop_map(
            |(ts, ue, (src, tgt), (source_rat, target_rat), failed, cause, dur, srvcc, msgs)| {
                HoRecord {
                    timestamp_ms: ts,
                    ue: UeId(ue),
                    source_sector: SectorId(src),
                    target_sector: SectorId(tgt),
                    source_rat,
                    target_rat,
                    outcome: if failed { HoOutcome::Failure } else { HoOutcome::Success },
                    cause: failed.then_some(CauseCode(cause)),
                    duration_ms: dur,
                    srvcc,
                    messages: msgs,
                }
            },
        )
}

/// A leg between two neighbouring sectors, by one of six UEs, within two
/// minutes either side of the first midnight: many of them chain into
/// ping-pongs (A→B then B→A inside the 5 s window).
fn arb_leg() -> impl Strategy<Value = HoRecord> {
    (0u64..240_000, 0u32..6, 0u32..3, proptest::bool::ANY, arb_record()).prop_map(
        |(offset, ue, a, back, mut r)| {
            r.timestamp_ms = DAY_MS - 120_000 + offset;
            r.ue = UeId(ue);
            let (from, to) = if back { (a + 1, a) } else { (a, a + 1) };
            r.source_sector = SectorId(from);
            r.target_sector = SectorId(to);
            r
        },
    )
}

fn arb_trace() -> impl Strategy<Value = Vec<HoRecord>> {
    proptest::collection::vec(prop_oneof![arb_record(), arb_leg()], 0..300)
}

/// Clamp ids onto the world's dense entity ranges and sort by timestamp
/// (traces are timestamp-ordered by construction).
fn materialize(mut records: Vec<HoRecord>, world: &World) -> Vec<HoRecord> {
    let n_ues = world.ues.len() as u32;
    let n_sectors = world.topology.sectors().len() as u32;
    for r in &mut records {
        r.ue = UeId(r.ue.0 % n_ues);
        r.source_sector = SectorId(r.source_sector.0 % n_sectors);
        r.target_sector = SectorId(r.target_sector.0 % n_sectors);
    }
    records.sort_by_key(|r| r.timestamp_ms);
    records
}

/// `begin` a fresh pass and feed it `records` as the sweep does: one
/// column batch.
fn fill<P: AnalysisPass>(make: &impl Fn() -> P, ctx: &SweepCtx, records: &[HoRecord]) -> P {
    let enriched = Enriched::new(ctx.world);
    let mut batch = ColumnBatch::new();
    batch.extend_from_rows(records);
    let mut pass = make();
    pass.begin(ctx);
    pass.record_columns(&batch, &enriched);
    pass
}

fn check_spans<P, F>(make: F, records: &[HoRecord], mut cuts: Vec<usize>)
where
    P: AnalysisPass,
    P::Output: Serialize,
    F: Fn() -> P,
{
    let (world, config) = world();
    let ctx = SweepCtx { world, config };
    for cut in &mut cuts {
        *cut = (*cut).min(records.len());
    }
    cuts.sort_unstable();

    let whole = serde_json::to_string(&fill(&make, &ctx, records).end(&ctx)).unwrap();

    let bounds: Vec<usize> =
        std::iter::once(0).chain(cuts.iter().copied()).chain([records.len()]).collect();
    let mut parts = bounds.windows(2).map(|w| fill(&make, &ctx, &records[w[0]..w[1]]));
    let mut folded = parts.next().expect("at least one span");
    for part in parts {
        folded.merge(part, &ctx);
    }
    let split = serde_json::to_string(&folded.end(&ctx)).unwrap();
    assert_eq!(split, whole, "span fold at cuts {cuts:?} of {} records", records.len());
}

macro_rules! span_case {
    ($name:ident, $make:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn $name(
                records in arb_trace(),
                cuts in proptest::collection::vec(0usize..301, 0..5),
            ) {
                let records = materialize(records, &world().0);
                check_spans($make, &records, cuts);
            }
        }
    };
}

span_case!(trace_counts_span_fold_is_exact, TraceCountsPass::default);
span_case!(ho_types_span_fold_is_exact, HoTypePass::default);
span_case!(durations_span_fold_is_exact, DurationPass::default);
span_case!(districts_span_fold_is_exact, DistrictPass::default);
span_case!(population_span_fold_is_exact, PopulationPass::default);
span_case!(density_span_fold_is_exact, HoDensityPass::default);
span_case!(temporal_span_fold_is_exact, TemporalPass::default);
span_case!(manufacturer_span_fold_is_exact, || ManufacturerPass::new(2));
span_case!(hof_patterns_span_fold_is_exact, HofPatternsPass::default);
span_case!(causes_span_fold_is_exact, CausePass::default);
span_case!(pingpong_span_fold_is_exact, PingPongPass::default);
span_case!(vendor_span_fold_is_exact, VendorPass::default);
span_case!(frame_daily_span_fold_is_exact, || FramePass::new(FrameWindow::Daily));
span_case!(frame_period_span_fold_is_exact, || FramePass::new(FrameWindow::FullPeriod));
span_case!(study_composite_span_fold_is_exact, StudyPasses::default);

/// A ping-pong whose two legs fall on either side of a cut (and of
/// midnight) still counts once.
#[test]
fn pingpong_split_between_its_legs_counts_once() {
    let (world, config) = world();
    let ctx = SweepCtx { world, config };
    let leg = |ts: u64, from: u32, to: u32| HoRecord {
        timestamp_ms: ts,
        ue: UeId(1),
        source_sector: SectorId(from),
        target_sector: SectorId(to),
        source_rat: Rat::G4,
        target_rat: Rat::G4,
        outcome: HoOutcome::Success,
        cause: None,
        duration_ms: 40.0,
        srvcc: false,
        messages: 10,
    };
    let records = vec![leg(DAY_MS - 2_000, 1, 2), leg(DAY_MS + 1_000, 2, 1)];
    let whole = fill(&PingPongPass::default, &ctx, &records).end(&ctx);
    assert_eq!(whole.pingpong_hos, 1, "the return leg is a ping-pong");
    check_spans(PingPongPass::default, &records, vec![1]);
}
