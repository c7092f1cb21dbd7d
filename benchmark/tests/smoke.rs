//! The benchmark at `SimConfig::tiny()`: every workload runs, reports every
//! metric `BENCHMARK.json` names with its unit, and passes the
//! `SweepOutputs` gate; the timing store's counts repeat exactly.

use std::path::PathBuf;
use std::sync::Arc;

use serde::Value;
use telco_orchestrator::{
    orchestrate, store_manifest, Launcher, Manifest, OrchestrateOptions, PlanOptions, ShardStore,
};
use telco_pipeline_bench::store::{StoreStats, TimingStore};
use telco_pipeline_bench::{config, reference_hash, run, Params, Scale, Workload};
use telco_serve::{IngestEngine, DEFAULT_WINDOW};
use telco_sim::SimConfig;
use telco_store::DirStore;

const SEED: u64 = 7;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pipeline-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    match v {
        Value::Object(pairs) => {
            pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v).expect("field present")
        }
        _ => panic!("not an object"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string"),
    }
}

/// (name, unit) of every metric listed under `section` of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let bench = serde_json::parse_value(&json).expect("BENCHMARK.json parses");
    let Value::Array(items) = field(&bench, section) else { panic!("{section} is a list") };
    items
        .iter()
        .map(|m| (text(field(m, "name")).to_string(), text(field(m, "unit")).to_string()))
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_passes_the_gate() {
    let work = temp_dir("smoke");
    for workload in Workload::ALL {
        let want = reference_hash(&config(workload, Scale::Tiny, SEED));
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let params = Params {
                seed: SEED,
                seconds: 0.0,
                trace,
                scale: Scale::Tiny,
                work_dir: work.join(format!("{}-{trace}", workload.name())),
                worker: PathBuf::from(env!("CARGO_BIN_EXE_telco-worker")),
            };
            let out = run(workload, &params).expect("workload runs");
            let name = workload.name();
            assert!(out.attempted > 0, "{name}: nothing attempted");
            assert_eq!(out.failed, 0, "{name}: operations failed");
            assert!(!out.hashes.is_empty(), "{name}: nothing for the gate");
            for (label, hash) in &out.hashes {
                assert_eq!(*hash, want, "{name}: {label} differs from the batch study");
            }
            let names = declared(section);
            assert_eq!(out.metrics.len(), names.len(), "{name}: metric count ({section})");
            for (metric, unit) in names {
                let (value, got) = out.metrics.get(&metric).unwrap_or_else(|| {
                    panic!("{name}: {metric} missing from the {section} metrics")
                });
                assert_eq!(*got, unit, "{name}: unit of {metric}");
                assert!(value.is_finite(), "{name}: {metric} is {value}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn serve_store_counts_repeat_exactly_per_day() {
    let cfg = SimConfig { seed: SEED, ..SimConfig::tiny() };
    for attempt in 0..2 {
        let dir = temp_dir(&format!("serve-counts-{attempt}"));
        let stats = Arc::new(StoreStats::default());
        let store = TimingStore::new(DirStore::create(&dir).expect("store"), Arc::clone(&stats));
        let mut engine =
            IngestEngine::open(cfg.clone(), Box::new(store), DEFAULT_WINDOW).expect("open");
        assert_eq!(stats.counts().puts, 0, "opening a fresh ingest writes nothing");
        for day in 1..=u64::from(cfg.n_days) {
            engine.ingest_next_day().expect("ingest").expect("a day is pending");
            let counts = stats.counts();
            // Day partial, folded baseline, state.json: staged and committed.
            assert_eq!((counts.puts, counts.commits), (3 * day, 3 * day), "after day {day}");
            assert!(counts.bytes_committed > 0);
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn orchestrator_store_counts_repeat_exactly_per_shard() {
    let cfg = SimConfig { seed: SEED, ..SimConfig::tiny() };
    let manifest = Manifest::plan(cfg, &PlanOptions::default()).expect("plan");
    let shards = manifest.entries.len() as u64;
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_telco-worker"));
    // Subprocess workers write the shard store themselves, so the wrapper
    // sees only the orchestrator's own objects; in-process workers go
    // through it too.
    let launchers = [
        (Launcher::Subprocess { program: worker, prefix: Vec::new() }, 0),
        (Launcher::InProcess, 3),
    ];
    for (launcher, per_shard) in launchers {
        for attempt in 0..2 {
            let dir = temp_dir(&format!("orchestrate-counts-{per_shard}-{attempt}"));
            let stats = Arc::new(StoreStats::default());
            let store: Arc<dyn ShardStore> = Arc::new(TimingStore::new(
                DirStore::create(&dir).expect("store"),
                Arc::clone(&stats),
            ));
            store_manifest(store.as_ref(), &manifest).expect("manifest");
            let report =
                orchestrate(Arc::clone(&store), &OrchestrateOptions::new(launcher.clone()))
                    .expect("orchestrate");
            assert_eq!(u64::from(report.dispatched), shards);
            let counts = stats.counts();
            // Manifest, study trace, study sidecar, study marker; plus the
            // trace, sidecar and marker of every shard a worker wrote here.
            let want = 4 + per_shard * shards;
            assert_eq!((counts.puts, counts.commits), (want, want), "{per_shard} per shard");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
