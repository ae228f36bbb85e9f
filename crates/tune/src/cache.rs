//! The persistent tuning cache: measured winners on disk, keyed by the
//! shared [`ConfigKey`], surviving process restarts.
//!
//! The whole point of measuring is to not measure twice: a tuning run
//! costs real wall time (dozens of timed SpMV executions), so its
//! verdict is written to a small versioned JSON file and the next
//! [`Tuner::run`](crate::Tuner::run) over the same (matrix, k, width)
//! returns it without touching a clock. The file is written and read
//! back through the workspace's one JSON type, [`s2d_obs::Json`], whose
//! reader keeps the 64-bit matrix fingerprint exact and refuses absurd
//! nesting instead of overflowing the stack. Robustness beats fidelity
//! on the read path: a missing file, a corrupted or truncated file, a
//! version-mismatched file or an unreadable entry all degrade to "no
//! cached verdict" (the tuner falls back to searching, or its caller to
//! the model pick) — never to a panic.

use std::path::{Path, PathBuf};

use s2d::ConfigKey;
use s2d_obs::Json;

use crate::tuner::TunedChoice;

/// Format version stamped into every cache file. Bump it whenever the
/// entry layout, the measurement protocol or the candidate space
/// changes meaning — files carrying any other version are ignored
/// wholesale, so stale measurements can never override a fresher
/// model.
///
/// History: 1 = the original (strategy, plan, format, backend, width)
/// space; 2 added the kernel-ISA axis and the pool thread-count
/// shortlist; 3 dropped the `sell:C:S` format spellings and the `avx2`
/// ISA spelling, which version-2 files may hold; 4 follows the switch
/// of [`Csr::fingerprint`](s2d_sparse::Csr::fingerprint) from
/// byte-wise FNV-1a to a four-lane word hash — every matrix now keys
/// differently, so version-3 entries could never be hit again and are
/// dropped as stale instead of lingering as dead weight; 5 dropped the
/// ISA and winner-width axes (`isa`, `choice_width`): every candidate
/// now runs the engine's own ISA choice at the workload width.
pub const TUNER_VERSION: u32 = 5;

/// One measured verdict: for this (matrix, k, width), this
/// configuration won at this per-application cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheEntry {
    /// The (matrix fingerprint, processor count, workload batch width)
    /// the measurement was taken for.
    pub key: ConfigKey,
    /// The measured winner.
    pub choice: TunedChoice,
    /// The winner's measured seconds per workload application.
    pub secs: f64,
}

/// An on-disk collection of [`CacheEntry`] verdicts bound to one file
/// path. Load, look up / insert, store — the tuner drives all three;
/// the serving layer only loads and looks up.
#[derive(Debug)]
pub struct TuningCache {
    path: PathBuf,
    entries: Vec<CacheEntry>,
}

impl TuningCache {
    /// Loads the cache at `path`. A missing file is an empty cache; a
    /// corrupted or version-mismatched file is *also* an empty cache —
    /// the bad file is simply overwritten by the next
    /// [`TuningCache::store`]. This method never panics and never
    /// returns an error: on the read path, every failure mode means
    /// "measure again".
    pub fn load(path: impl Into<PathBuf>) -> TuningCache {
        let path = path.into();
        let entries =
            std::fs::read_to_string(&path).ok().and_then(|s| parse_file(&s)).unwrap_or_default();
        TuningCache { path, entries }
    }

    /// The file this cache loads from and stores to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The cached verdict for `key`, if one survived loading.
    pub fn lookup(&self, key: ConfigKey) -> Option<&CacheEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Inserts `entry`, replacing any previous verdict for its key.
    pub fn insert(&mut self, entry: CacheEntry) {
        match self.entries.iter_mut().find(|e| e.key == entry.key) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// Writes the cache back to its path (creating parent directories
    /// as needed). Unlike the read path this *does* surface I/O errors
    /// — a caller that asked to persist should know when it didn't —
    /// but the tuner treats a failed store as best-effort and carries
    /// on with its in-memory verdict.
    pub fn store(&self) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(&self.path, self.to_json().to_string())
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The serialized file content: one versioned JSON object.
    pub fn to_json(&self) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|e| with_choice(key_json(e.key), &e.choice).set("secs", e.secs));
        Json::obj().set("version", TUNER_VERSION).set("entries", entries.collect::<Vec<_>>())
    }
}

/// `key`'s three fields as an object: a cache entry starts with them,
/// and the tuner's verdict spells its key the same way.
pub(crate) fn key_json(key: ConfigKey) -> Json {
    Json::obj().set("fingerprint", key.fingerprint).set("k", key.k).set("width", key.width)
}

/// `obj` plus `c`'s axes. The enum axes are written through their
/// canonical `Display` labels and read back through `FromStr` — the same
/// round-trip the CLI flags use, so the cache can never invent a
/// spelling the rest of the workspace doesn't parse.
pub(crate) fn with_choice(obj: Json, c: &TunedChoice) -> Json {
    obj.set("strategy", c.strategy.to_string())
        .set("plan_kind", c.plan_kind.to_string())
        .set("format", c.format.to_string())
        .set("backend", c.backend.to_string())
}

/// Parses a whole cache file. `None` means "treat as empty": not JSON,
/// or a version we don't speak.
fn parse_file(s: &str) -> Option<Vec<CacheEntry>> {
    let doc = Json::parse(s).ok()?;
    if doc.get("version")?.as_u64()? != u64::from(TUNER_VERSION) {
        return None;
    }
    // Individually unreadable entries are dropped, not fatal — one
    // damaged entry must not discard every other matrix's verdict.
    Some(doc.get("entries")?.as_arr()?.iter().filter_map(parse_entry).collect())
}

fn parse_entry(e: &Json) -> Option<CacheEntry> {
    let int = |key: &str| usize::try_from(e.get(key)?.as_u64()?).ok();
    let label = |key: &str| e.get(key)?.as_str();
    Some(CacheEntry {
        key: ConfigKey {
            fingerprint: e.get("fingerprint")?.as_u64()?,
            k: int("k")?,
            width: int("width")?,
        },
        choice: TunedChoice {
            strategy: label("strategy")?.parse().ok()?,
            plan_kind: label("plan_kind")?.parse().ok()?,
            format: label("format")?.parse().ok()?,
            backend: label("backend")?.parse().ok()?,
        },
        secs: e.get("secs")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d::{Backend, KernelFormat, PlanKind, Strategy};

    fn entry(fp: u64, secs: f64) -> CacheEntry {
        CacheEntry {
            key: ConfigKey { fingerprint: fp, k: 4, width: 8 },
            choice: TunedChoice {
                strategy: Strategy::OneDRow,
                plan_kind: PlanKind::TwoPhase,
                format: KernelFormat::Sell,
                backend: Backend::CompiledPool { threads: 0, pin: false },
            },
            secs,
        }
    }

    fn file(entries: &[CacheEntry]) -> String {
        let c = TuningCache { path: PathBuf::new(), entries: entries.to_vec() };
        c.to_json().to_string()
    }

    #[test]
    fn json_round_trips_every_axis() {
        let e = entry(0xdead_beef, 1.25e-4);
        let back = parse_file(&file(&[e])).expect("own output parses");
        assert_eq!(back, vec![e]);
    }

    #[test]
    fn insert_replaces_same_key_and_lookup_misses_other_keys() {
        let mut c = TuningCache { path: PathBuf::from("unused.json"), entries: Vec::new() };
        c.insert(entry(1, 0.5));
        c.insert(entry(1, 0.25)); // re-tune: replace, don't duplicate
        c.insert(entry(2, 0.75));
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(entry(1, 0.0).key).unwrap().secs, 0.25);
        assert!(c.lookup(ConfigKey { fingerprint: 1, k: 4, width: 4 }).is_none(), "width differs");
    }

    #[test]
    fn garbage_and_version_mismatch_degrade_to_empty() {
        assert!(parse_file("not json at all").is_none());
        assert!(parse_file("{\"version\":999,\"entries\":[]}").is_none(), "future version");
        // A file with one unreadable entry keeps the good one.
        let good = file(&[entry(7, 0.125)]);
        let json = good.replace("\"entries\":[", "\"entries\":[{\"fingerprint\":-1},");
        let back = parse_file(&json).expect("file itself is well-formed");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].key.fingerprint, 7);
    }

    /// Every hostile file loads as an empty or partial cache: no panic,
    /// no abort, and a current-version file whose `secs` were written
    /// as `{:e}` still replays.
    #[test]
    fn hostile_files_load_empty_or_partial() {
        let good = file(&[entry(1, 0.5), entry(2, 0.25)]);
        let max = file(&[entry(u64::MAX, 0.5)]);
        let nines = "9".repeat(400);
        let deep = format!("\"entries\":[{}", "[".repeat(100_000));
        // A writer's bytes with `secs` printed with `{:e}` under the
        // current version; the same entry in a version-4 file, which
        // still carried `isa` and `choice_width`; and a version-3 file,
        // whose fingerprints came from the retired hash.
        let previous = concat!(
            r#"{"version":5,"entries":[{"fingerprint":16748617310548547708,"k":8,"width":4,"#,
            r#""strategy":"1d","plan_kind":"single_phase","format":"auto","#,
            r#""backend":"compiled-pool:1","secs":8.342e-6}]}"#
        );
        let version4 = concat!(
            r#"{"version":4,"entries":[{"fingerprint":16748617310548547708,"k":8,"width":4,"#,
            r#""strategy":"1d","plan_kind":"single_phase","format":"auto","isa":"auto","#,
            r#""backend":"compiled-pool:1","choice_width":4,"secs":8.342e-6}]}"#
        );
        let cases: Vec<(&str, String, usize)> = vec![
            ("truncated", good[..good.len() / 2].to_string(), 0),
            ("deep nesting", good.replacen("\"entries\":[", &deep, 1), 0),
            ("u64::MAX fingerprint", max.clone(), 1),
            (
                "400-digit number",
                good.replace("\"fingerprint\":1,", &format!("\"fingerprint\":{nines},")),
                0,
            ),
            ("duplicated key", good.replace("\"secs\":0.5", "\"secs\":0.5,\"secs\":\"x\""), 2),
            ("wrong types", good.replace("\"k\":4", "\"k\":\"4\"").replacen("\"1d\"", "7", 1), 0),
            ("wrong type in one entry", good.replacen("\"k\":4", "\"k\":4.0", 1), 1),
            ("previous writer", previous.to_string(), 1),
            ("version 4", version4.to_string(), 0),
            ("version 3", version4.replace("\"version\":4", "\"version\":3"), 0),
        ];
        let path = std::env::temp_dir().join(format!("s2d-hostile-{}.json", std::process::id()));
        let load = |text: &str| {
            std::fs::write(&path, text).expect("write the case");
            TuningCache::load(&path)
        };
        for (name, text, want) in cases {
            assert_eq!(load(&text).len(), want, "{name}");
        }
        let hit = load(&max).lookup(ConfigKey { fingerprint: u64::MAX, k: 4, width: 8 }).copied();
        assert_eq!(hit, Some(entry(u64::MAX, 0.5)), "a fingerprint of u64::MAX replays exactly");
        let key = ConfigKey { fingerprint: 16_748_617_310_548_547_708, k: 8, width: 4 };
        let e = *load(previous).lookup(key).expect("the previous format replays");
        assert_eq!((e.secs, e.choice.strategy), (8.342e-6, Strategy::OneDRow));
        // `pool:1` is the team of one, so it reads back as `compiled-seq`.
        assert_eq!(e.choice.backend, Backend::CompiledSeq);
        std::fs::remove_file(&path).ok();
    }
}
