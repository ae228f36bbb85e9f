//! The persistent tuning cache: measured winners on disk, keyed by the
//! shared [`ConfigKey`], surviving process restarts.
//!
//! The whole point of measuring is to not measure twice: a tuning run
//! costs real wall time (dozens of timed SpMV executions), so its
//! verdict is written to a small versioned JSON file and the next
//! [`Tuner::run`](crate::Tuner::run) over the same (matrix, k, width)
//! returns it without touching a clock. The file is hand-rolled JSON in
//! the same style as the quality and profile reports — and because this
//! is the one artifact the workspace reads *back*, a matching
//! hand-rolled parser lives here too. Robustness beats fidelity on the
//! read path: a missing file, a corrupted file, a version-mismatched
//! file or an unparseable entry all degrade to "no cached verdict"
//! (the tuner falls back to searching, or its caller to the model
//! pick) — never to a panic.

use std::path::{Path, PathBuf};

use s2d::ConfigKey;

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
/// ISA spelling, which version-2 files may hold.
pub const TUNER_VERSION: u32 = 3;

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
        std::fs::write(&self.path, self.to_json())
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
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self.entries.iter().map(entry_json).collect();
        format!("{{\"version\":{},\"entries\":[{}]}}", TUNER_VERSION, entries.join(","))
    }
}

/// One entry as JSON. The enum axes serialize through their canonical
/// `Display` labels and come back through `FromStr` — the same
/// round-trip the CLI flags use, so the cache can never invent a
/// spelling the rest of the workspace doesn't parse. The winner's own
/// batch width is `choice_width` (it may legitimately differ from the
/// workload width in the key: "serve r requests one at a time" is a
/// measurable candidate).
fn entry_json(e: &CacheEntry) -> String {
    format!(
        concat!(
            "{{{},\"strategy\":\"{}\",\"plan_kind\":\"{}\",\"format\":\"{}\",",
            "\"isa\":\"{}\",\"backend\":\"{}\",\"choice_width\":{},\"secs\":{:e}}}"
        ),
        e.key.json_fields(),
        e.choice.strategy,
        e.choice.plan_kind,
        e.choice.format,
        e.choice.isa,
        e.choice.backend,
        e.choice.width,
        e.secs,
    )
}

/// Parses a whole cache file. `None` means "treat as empty": not JSON
/// we wrote, or a version we don't speak.
fn parse_file(s: &str) -> Option<Vec<CacheEntry>> {
    let version: u32 = field(s, "version")?.parse().ok()?;
    if version != TUNER_VERSION {
        return None;
    }
    let list = entries_block(s)?;
    // Individually unparseable entries are dropped, not fatal — one
    // truncated line must not discard every other matrix's verdict.
    Some(objects(list).into_iter().filter_map(parse_entry).collect())
}

fn parse_entry(obj: &str) -> Option<CacheEntry> {
    Some(CacheEntry {
        key: ConfigKey {
            fingerprint: field(obj, "fingerprint")?.parse().ok()?,
            k: field(obj, "k")?.parse().ok()?,
            width: field(obj, "width")?.parse().ok()?,
        },
        choice: TunedChoice {
            strategy: str_field(obj, "strategy")?.parse().ok()?,
            plan_kind: str_field(obj, "plan_kind")?.parse().ok()?,
            format: str_field(obj, "format")?.parse().ok()?,
            isa: str_field(obj, "isa")?.parse().ok()?,
            backend: str_field(obj, "backend")?.parse().ok()?,
            width: field(obj, "choice_width")?.parse().ok()?,
        },
        secs: field(obj, "secs")?.parse().ok()?,
    })
}

/// The raw text of `"key":<value>` up to the next delimiter. Enough of
/// a JSON scanner for the flat objects this crate writes — no nested
/// containers inside values, no escaped strings.
fn field<'s>(obj: &'s str, key: &str) -> Option<&'s str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// [`field`] for string values: the content between the quotes.
fn str_field<'s>(obj: &'s str, key: &str) -> Option<&'s str> {
    field(obj, key)?.strip_prefix('"')?.strip_suffix('"')
}

/// The text inside `"entries":[ ... ]` (entry objects hold no arrays,
/// so the first `]` closes the list).
fn entries_block(s: &str) -> Option<&str> {
    let start = s.find("\"entries\":[")? + "\"entries\":[".len();
    let rest = &s[start..];
    Some(&rest[..rest.find(']')?])
}

/// Splits a list body into its top-level `{...}` chunks by brace depth.
fn objects(list: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in list.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    out.push(&list[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d::{Backend, KernelFormat, KernelIsa, PlanKind, Strategy};

    fn entry(fp: u64, secs: f64) -> CacheEntry {
        CacheEntry {
            key: ConfigKey { fingerprint: fp, k: 4, width: 8 },
            choice: TunedChoice {
                strategy: Strategy::OneDRow,
                plan_kind: PlanKind::TwoPhase,
                format: KernelFormat::Sell,
                isa: KernelIsa::Scalar,
                backend: Backend::CompiledPool { threads: 0, pin: false },
                width: 1,
            },
            secs,
        }
    }

    #[test]
    fn json_round_trips_every_axis() {
        let e = entry(0xdead_beef, 1.25e-4);
        let json = format!("{{\"version\":{TUNER_VERSION},\"entries\":[{}]}}", entry_json(&e));
        let back = parse_file(&json).expect("own output parses");
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
        // A file with one broken entry keeps the good one.
        let good = entry_json(&entry(7, 0.125));
        let json =
            format!("{{\"version\":{TUNER_VERSION},\"entries\":[{{\"fingerprint\":}},{good}]}}");
        let back = parse_file(&json).expect("file itself is well-formed");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].key.fingerprint, 7);
    }
}
