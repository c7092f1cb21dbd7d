//! Served-vs-batch equivalence: the incremental ingest must reproduce
//! the one-shot batch study **byte for byte**, including across a
//! snapshot/restore cycle in the middle of the stream, and its sliding
//! windows must account for exactly the days they claim.

use std::sync::Arc;

use telco_analytics::{restore_pass, AnalysisPass, Study, StudyPasses, SweepCtx};
use telco_serve::{query_line, IngestEngine, Published, QueryServer, ServedView};
use telco_sim::{run_shard, SimConfig, World};
use telco_store::{get_bytes, DirStore};

fn test_config() -> SimConfig {
    let mut cfg = SimConfig::tiny();
    cfg.n_ues = 200;
    cfg.n_days = 3;
    cfg
}

fn batch_json(cfg: SimConfig) -> String {
    serde_json::to_string(Study::run(cfg).sweep()).expect("batch outputs serialize")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("telco_serve_equiv_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The compact [`telco_analytics::SweepOutputs`] JSON of the trailing
/// `days` committed days, folded here from the day partials in the store.
fn window_from_partials(engine: &IngestEngine, days: u32) -> String {
    let cfg = engine.config();
    let world = World::build(cfg);
    let ctx = SweepCtx { world: &world, config: cfg };
    let mut acc = StudyPasses::default();
    acc.begin(&ctx);
    let committed = engine.committed_days();
    for day in committed.saturating_sub(days)..committed {
        let bytes = get_bytes(engine.store(), &format!("day-{day:05}.snap")).expect("day partial");
        let mut part = StudyPasses::default();
        restore_pass(&mut part, &bytes).expect("partial restores");
        acc.merge(part, &ctx);
    }
    serde_json::to_string(&acc.end(&ctx)).expect("window outputs serialize")
}

/// Check a view's windows against folds of the stored partials, for an
/// engine retaining `retained` partials. A window covering every
/// committed day is served as the full view's bytes, so it must equal
/// both the fold and `full`.
fn assert_windows_match_partials(engine: &IngestEngine, view: &ServedView, retained: u32) {
    let committed = engine.committed_days();
    let full = view.full.as_deref().expect("full view");
    for (days, served) in [(1, &view.last_day), (7, &view.last_week)] {
        let covered = days.min(retained).min(committed);
        let served = served.as_deref().expect("window view");
        assert_eq!(
            served,
            window_from_partials(engine, covered),
            "{days}-day window at day {committed} differs from its partials"
        );
        if covered == committed {
            assert_eq!(served, full, "{days}-day window covering every day is not the full view");
        }
    }
}

#[test]
fn window_views_equal_folds_of_their_partials() {
    let cfg = test_config();
    // The default window retains every day of this stream, so the week
    // window always covers them all; a window of one retains only the
    // last day, so the week window shrinks to it after the first day.
    for retained in [7, 1] {
        let store = Box::new(DirStore::create(temp_dir(&format!("partials_{retained}"))).unwrap());
        let mut engine = IngestEngine::open(cfg.clone(), store, retained).unwrap();
        while engine.ingest_next_day().unwrap().is_some() {
            let view = engine.build_view().unwrap();
            assert_windows_match_partials(&engine, &view, retained);
        }
    }
}

#[test]
fn ingest_matches_batch_byte_for_byte() {
    let cfg = test_config();
    let store = Box::new(DirStore::create(temp_dir("oneshot")).unwrap());
    let mut engine = IngestEngine::open(cfg.clone(), store, 7).unwrap();
    while engine.ingest_next_day().unwrap().is_some() {}
    let served = engine.build_view().unwrap().full.expect("full view after ingest");
    assert_eq!(served, batch_json(cfg), "served study drifted from the batch study");
}

#[test]
fn restore_midstream_then_continue_matches_batch() {
    let cfg = test_config();
    let dir = temp_dir("midstream");
    // Ingest one day, drop the engine entirely, reopen from the store
    // (baseline restore path), continue to the end.
    let mut first =
        IngestEngine::open(cfg.clone(), Box::new(DirStore::create(&dir).unwrap()), 7).unwrap();
    first.ingest_next_day().unwrap().unwrap();
    drop(first);
    let mut second =
        IngestEngine::open(cfg.clone(), Box::new(DirStore::open(&dir).unwrap()), 7).unwrap();
    assert_eq!(second.committed_days(), 1);
    // The reopened view comes from the baseline read back from the store.
    assert_windows_match_partials(&second, &second.build_view().unwrap(), 7);
    while second.ingest_next_day().unwrap().is_some() {
        assert_windows_match_partials(&second, &second.build_view().unwrap(), 7);
    }
    let served = second.build_view().unwrap().full.expect("full view after ingest");
    assert_eq!(served, batch_json(cfg), "restored-and-continued study drifted from the batch");
}

#[test]
fn window_views_count_exactly_their_days() {
    let cfg = test_config();
    let store = Box::new(DirStore::create(temp_dir("window")).unwrap());
    let mut engine = IngestEngine::open(cfg.clone(), store, 7).unwrap();
    while engine.ingest_next_day().unwrap().is_some() {}
    let view = engine.build_view().unwrap();

    let world = World::build(&cfg);
    let day_records =
        |day: u32| run_shard(&world, &cfg, day..day + 1, 0..world.n_ues()).dataset.len() as u64;
    let records_of = |json: &str| -> u64 {
        let v = serde_json::parse_value(json).expect("view JSON parses");
        let serde::Value::Object(top) = &v else { panic!("view is not an object") };
        let (_, counts) = top.iter().find(|(k, _)| k == "trace_counts").expect("trace_counts");
        let serde::Value::Object(counts) = counts else { panic!("counts not an object") };
        let (_, records) = counts.iter().find(|(k, _)| k == "records").expect("records");
        match records {
            serde::Value::U64(n) => *n,
            other => panic!("records is {other:?}"),
        }
    };

    let last = cfg.n_days - 1;
    assert_eq!(records_of(&view.last_day.unwrap()), day_records(last), "last-day window");
    let week_expected: u64 = (0..cfg.n_days).map(day_records).sum();
    assert_eq!(records_of(&view.last_week.unwrap()), week_expected, "last-7-day window");
    assert_eq!(records_of(&view.full.unwrap()), week_expected, "full view");
}

#[test]
fn served_queries_answer_from_committed_views() {
    let cfg = test_config();
    let store = Box::new(DirStore::create(temp_dir("queries")).unwrap());
    let mut engine = IngestEngine::open(cfg, store, 7).unwrap();
    let published = Arc::new(Published::new(engine.build_view().unwrap()));
    let mut server = QueryServer::start(Arc::clone(&published), 0).unwrap();
    let addr = server.addr();

    // Before any commit: status works, data queries refuse politely.
    let status = query_line(addr, "{\"query\":\"status\"}").unwrap();
    assert!(status.contains("\"committed_days\":0"), "{status}");
    let outputs = query_line(addr, "{\"query\":\"outputs\"}").unwrap();
    assert!(outputs.contains("no day committed yet"), "{outputs}");

    // Ingest everything, publishing after each commit like `repro serve`.
    while engine.ingest_next_day().unwrap().is_some() {
        published.publish(engine.build_view().unwrap());
    }

    let status = query_line(addr, "{\"query\":\"status\"}").unwrap();
    assert!(status.contains("\"committed_days\":3"), "{status}");
    let section = query_line(addr, "{\"query\":\"table\",\"name\":\"ho_types\"}").unwrap();
    assert!(section.contains("\"section\":{"), "{section}");
    let window = query_line(addr, "{\"query\":\"window\",\"days\":1}").unwrap();
    assert!(window.contains("\"outputs\":{"), "{window}");
    let served = query_line(addr, "{\"query\":\"outputs\"}").unwrap();
    let expected = engine.build_view().unwrap().full.unwrap();
    assert!(served.contains(&expected), "served outputs differ from the engine view");

    let bye = query_line(addr, "{\"query\":\"shutdown\"}").unwrap();
    assert!(bye.contains("shutting_down"), "{bye}");
    server.stop();
    assert!(server.shutdown_requested());
}
