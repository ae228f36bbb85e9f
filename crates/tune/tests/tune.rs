//! Tuning acceptance tests: cache round-trip and degradation, verdict
//! determinism, and the search's coverage of its own candidate list.

use std::path::PathBuf;

use s2d::{Backend, KernelFormat, PartitionerConfig, Strategy};
use s2d_gen::fem::fem_like;
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_obs::Json;
use s2d_sparse::Csr;
use s2d_tune::{TuneBudget, Tuner, TuningCache, TUNER_VERSION};

fn test_matrix(scale: u32) -> Csr {
    rmat(&RmatConfig::graph500(scale, 8), 42).to_csr()
}

/// A per-process scratch file (the workspace has no tempfile crate);
/// tests clean up after themselves.
fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("s2d-tune-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.json", std::process::id()))
}

#[test]
fn cache_round_trips_write_reload_hit() {
    let a = test_matrix(7);
    let path = temp_path("round-trip");
    let _ = std::fs::remove_file(&path);

    let first = Tuner::new(&a, 4).width(4).budget(TuneBudget::fast()).cache(&path).run();
    assert!(!first.cache_hit, "cold cache must search");
    assert!(!first.measurements.is_empty(), "a search measures candidates");
    assert!(path.exists(), "the verdict must be persisted");

    let second = Tuner::new(&a, 4).width(4).budget(TuneBudget::fast()).cache(&path).run();
    assert!(second.cache_hit, "same (matrix, k, width) must replay");
    assert_eq!(second.winner, first.winner);
    assert_eq!(second.winner_secs, first.winner_secs);
    assert!(second.measurements.is_empty(), "a hit skips measurement entirely");

    // A different k is a different workload: miss, search, and the file
    // now carries both verdicts.
    let other = Tuner::new(&a, 2).width(4).budget(TuneBudget::fast()).cache(&path).run();
    assert!(!other.cache_hit);
    assert_eq!(TuningCache::load(&path).len(), 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_cache_falls_back_and_heals() {
    let a = test_matrix(7);
    let path = temp_path("corrupt");
    std::fs::write(&path, "{{{ definitely not the cache you wrote").expect("plant garbage");

    let tuned = Tuner::new(&a, 2).budget(TuneBudget::fast()).cache(&path).run();
    assert!(!tuned.cache_hit, "garbage must read as empty, not panic or hit");
    // The search's verdict overwrote the garbage with a valid file.
    let healed = TuningCache::load(&path);
    assert_eq!(healed.len(), 1);
    assert_eq!(healed.lookup(tuned.key).expect("stored verdict").choice, tuned.winner);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn version_mismatch_discards_stale_verdicts() {
    let a = test_matrix(7);
    let path = temp_path("version");
    let _ = std::fs::remove_file(&path);
    let first = Tuner::new(&a, 2).budget(TuneBudget::fast()).cache(&path).run();
    assert!(!first.cache_hit);

    // Doctor the file to a future format version, to a version-4 file
    // whose verdict still carries the retired `isa` and `choice_width`
    // fields, and to a version-2 file whose verdict spells its format
    // `sell:2:256`: either way the whole file is discarded by its
    // version, never half-parsed, and the cache must act empty.
    let body = std::fs::read_to_string(&path).expect("stored cache");
    let current = format!("\"version\":{TUNER_VERSION}");
    let format = format!("\"format\":\"{}\"", first.winner.format);
    let backend = format!("\"backend\":\"{}\"", first.winner.backend);
    for stale in [
        body.replace(&current, "\"version\":9999"),
        body.replace(&current, "\"version\":4")
            .replace(&backend, &format!("\"isa\":\"auto\",{backend},\"choice_width\":1")),
        body.replace(&current, "\"version\":2").replace(&format, "\"format\":\"sell:2:256\""),
    ] {
        assert_ne!(body, stale, "the version field must be present to doctor");
        std::fs::write(&path, stale).expect("plant stale version");
        assert!(TuningCache::load(&path).is_empty());
    }

    let again = Tuner::new(&a, 2).budget(TuneBudget::fast()).cache(&path).run();
    assert!(!again.cache_hit, "stale version must re-measure, not replay");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn candidate_shortlist_is_deterministic_and_spans_every_axis() {
    let a = test_matrix(8);
    let cands = Tuner::new(&a, 4).width(4).candidates();
    assert_eq!(cands, Tuner::new(&a, 4).width(4).candidates(), "same matrix, same shortlist");
    assert!(!cands.is_empty());
    // Every strategy the cost model considers is in the search space.
    for s in Strategy::auto_candidates(&a, 4) {
        assert!(cands.iter().any(|c| c.strategy == s), "missing strategy {s}");
    }
    // Both backends are represented.
    assert!(
        cands.iter().any(|c| c.backend == Backend::CompiledSeq)
            && cands.iter().any(|c| c.backend != Backend::CompiledSeq)
    );
}

#[test]
fn verdicts_render_and_serialize() {
    let a = test_matrix(7);
    let verdict = Tuner::new(&a, 2).budget(TuneBudget::fast()).run();
    assert!(
        verdict.winner_secs <= verdict.model_secs,
        "the model pick is in the candidate set, so the winner can never lose to it"
    );
    let table = verdict.render();
    assert!(table.contains("winner"));
    assert!(table.contains("model"));
    let json = Json::parse(&verdict.to_json().to_string()).expect("valid JSON");
    assert_eq!(json.get("cache_hit"), Some(&Json::Bool(false)));
    let measured = json.get("measurements").and_then(Json::as_arr).expect("measurements");
    assert_eq!(measured.len(), verdict.measurements.len());
    let key = json.get("key").expect("key");
    assert_eq!(key.get("k").and_then(Json::as_u64), Some(2));
    assert_eq!(key.get("fingerprint").and_then(Json::as_u64), Some(verdict.key.fingerprint));
    let winner = json.get("winner").expect("winner");
    assert_eq!(
        winner.get("strategy").and_then(Json::as_str),
        Some(&*verdict.winner.strategy.to_string())
    );
    assert_eq!(json.get("winner_secs").and_then(Json::as_f64), Some(verdict.winner_secs));
}

/// True when `v` holds some value twice.
fn has_duplicates<T: PartialEq>(v: &[T]) -> bool {
    v.iter().enumerate().any(|(i, x)| v[..i].contains(x))
}

#[test]
fn fast_search_measures_every_candidate_once() {
    let a = test_matrix(7);
    let tuner = || Tuner::new(&a, 4).width(4).budget(TuneBudget::fast());
    let cands = tuner().candidates();
    assert!(!has_duplicates(&cands), "a candidate is listed twice");
    let verdict = tuner().run();
    let measured: Vec<_> = verdict.measurements.iter().map(|m| m.choice).collect();
    assert_eq!(measured, cands, "the search measures its whole list, in order");
    assert!(measured.contains(&verdict.model), "model pick {} is not measured", verdict.model);
    assert!(measured.contains(&verdict.winner));
}

#[test]
fn model_pick_prices_the_prepared_partitions_like_auto_pick() {
    // R-MAT is skewed (its shortlist adds `s2d-gen`, `2d` and `s2d-mg`);
    // the 3D stencil is not.
    let skewed = test_matrix(7);
    let plain = fem_like(512, 7.0, 7, 1);
    let k = 4;
    assert!(
        Strategy::auto_candidates(&skewed, k).len() > Strategy::auto_candidates(&plain, k).len(),
        "one matrix must be skewed and the other not"
    );
    for a in [&skewed, &plain] {
        let verdict = Tuner::new(a, k).budget(TuneBudget::fast()).run();
        let pick = Strategy::auto_pick(a, k, &PartitionerConfig::default());
        assert_eq!(verdict.model.strategy, pick.strategy);
        assert_eq!(verdict.model.format, KernelFormat::Auto);
    }
}

#[test]
fn no_candidate_oversubscribes_the_machine() {
    let a = test_matrix(8);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // k = 16 ranks exceed the core count of most machines, so one
    // participant per rank would oversubscribe them.
    let k = 16;
    for c in Tuner::new(&a, k).candidates() {
        let team = c.backend.participants(k, cores);
        assert!(team <= cores, "{c}: {team} participants on {cores} cores");
        assert!(team > 1 || c.backend == Backend::CompiledSeq, "{c}: a team of one is seq");
    }
}
