//! Every committed bench artifact re-parses through the workspace's one
//! JSON layer (`ipp_core::json`), and the engine artifact's counter block
//! carries exactly the fields the one `VmCounters` serializer writes.

use ipp_core::json::{self, Json};
use std::path::Path;

fn keys(doc: &Json) -> Vec<&str> {
    match doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn committed_artifacts_reparse_through_the_json_layer() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/artifacts");
    let mut parsed = 0;
    for entry in std::fs::read_dir(&dir).expect("artifacts directory") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!keys(&doc).is_empty(), "{}: empty object", path.display());
        parsed += 1;
    }
    assert!(
        parsed >= 4,
        "only {parsed} artifacts found in {}",
        dir.display()
    );
}

#[test]
fn engine_artifact_counters_match_the_vm_counters_serializer() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/artifacts/interp_engines.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let written = json::to_string(&fruntime::VmCounters::default());
    let want = json::parse(&written).unwrap();
    assert_eq!(keys(doc.get("vm_counters").unwrap()), keys(&want));
}

#[test]
fn committed_artifacts_pass_their_ci_gates() {
    let load = |name: &str| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates/bench/artifacts")
            .join(name);
        json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    let engines = load("interp_engines.json");
    let throughput = load("corpus_throughput.json");
    bench::gates::engines_gate(&engines).unwrap();
    bench::gates::throughput_gate(&throughput).unwrap();
    bench::gates::ledger_gate(&throughput, &throughput).unwrap();
    bench::gates::scaling_gate(&load("driver_scaling.json")).unwrap();
}

#[test]
fn throughput_artifact_pins_the_compile_memo_hits() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/artifacts/corpus_throughput.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let count = |key: &str| doc.get(key).and_then(Json::as_u64);
    assert_eq!(count("seed"), Some(501_227_537));
    assert_eq!(count("programs"), Some(1000));
    // A top-level measurement, like the worker points: the summary holds
    // only what the stream's own determinism check compares.
    assert_eq!(count("compile_memo_hits"), Some(1675));
    assert!(doc
        .get("summary")
        .unwrap()
        .get("compile_memo_hits")
        .is_none());
}
