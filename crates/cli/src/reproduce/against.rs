//! `s2d reproduce … --against OLD.json`: how far this run's cells and
//! verdicts moved from an earlier run's document. It is the quality
//! yardstick for a change that moves partitions on purpose: per table
//! and per (suite, K), the geomean new/old ratio of volume, max load and
//! messages over the cells both documents hold, then every cell that
//! moved and every verdict that flipped.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use s2d_obs::Json;

use super::{geomean, needs_of, Selection};

/// The compared columns: report heading and field of a cell's `quality`.
const COLUMNS: [(&str, &str); 3] =
    [("volume", "volume"), ("max_load", "max_load"), ("msgs", "total_messages")];

type Values = [f64; 3];

/// A cell's identity in both documents.
fn cell_key(suite: &str, matrix: &str, k: u64, seed: u64, build: &str, plan: &str) -> String {
    format!("{suite}/{matrix} K={k} seed={seed} {build}:{plan}")
}

/// Every cell of a reproduction document by key, with its compared
/// values.
fn cells_of(doc: &Json) -> Result<BTreeMap<String, Values>, String> {
    let cells = doc.get("cells").and_then(Json::as_arr).ok_or("no \"cells\" array")?;
    let cell = |c: &Json| -> Option<(String, Values)> {
        let q = c.get("quality")?;
        fn text<'a>(j: &'a Json, field: &str) -> Option<&'a str> {
            j.get(field).and_then(Json::as_str)
        }
        let int = |j: &Json, field| j.get(field).and_then(Json::as_u64);
        let key = cell_key(
            text(c, "suite")?,
            text(c, "matrix")?,
            int(q, "k")?,
            int(c, "seed")?,
            text(q, "strategy")?,
            text(c, "priced_as")?,
        );
        let [a, b, m] = COLUMNS.map(|(_, field)| q.get(field).and_then(Json::as_f64));
        Some((key, [a?, b?, m?]))
    };
    cells.iter().map(|c| cell(c).ok_or_else(|| format!("malformed cell {c}"))).collect()
}

/// Every verdict of a reproduction document by `(table, id)`.
fn verdicts_of(doc: &Json) -> BTreeMap<(String, String), String> {
    let verdicts = doc.get("expectations").and_then(Json::as_arr).unwrap_or_default();
    let field = |v: &Json, f| v.get(f).and_then(Json::as_str).unwrap_or("?").to_string();
    verdicts.iter().map(|v| ((field(v, "table"), field(v, "id")), field(v, "verdict"))).collect()
}

/// The `--against` report of document `new` (this run, over
/// `selections` at `seeds` seeds) against document `old`. A ratio
/// reads each value as at least 1, so a zero does not collapse it.
pub(super) fn against(
    new: &Json,
    old: &Json,
    selections: &[Selection],
    seeds: u64,
) -> Result<String, String> {
    let (now, before) = (cells_of(new)?, cells_of(old)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:<5} {:>5} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "table", "suite", "K", "cells", "moved", "volume", "max_load", "msgs"
    );
    for sel in selections {
        let mut groups: BTreeMap<(String, usize), Vec<String>> = BTreeMap::new();
        for ((suite, matrix), (_, needs)) in needs_of(std::slice::from_ref(sel), seeds) {
            let suite = format!("{suite:?}");
            for (k, seed, build, plan) in needs {
                let key = cell_key(&suite, matrix, k as u64, seed, build, plan);
                groups.entry((suite.clone(), k)).or_default().push(key);
            }
        }
        for ((suite, k), keys) in groups {
            let pairs: Vec<(Values, Values)> =
                keys.iter().filter_map(|key| Some((*now.get(key)?, *before.get(key)?))).collect();
            let moved = pairs.iter().filter(|(a, b)| a != b).count();
            let _ = write!(
                out,
                "{:<22} {suite:<5} {k:>5} {:>6} {moved:>6}",
                sel.table.name,
                pairs.len()
            );
            for i in 0..COLUMNS.len() {
                let ratios = pairs.iter().map(|(a, b)| Some(a[i].max(1.0) / b[i].max(1.0)));
                match geomean(ratios, 0.0) {
                    Some(r) => _ = write!(out, " {r:>9.4}"),
                    None => _ = write!(out, " {:>9}", "-"),
                }
            }
            out.push('\n');
        }
    }

    let moved: Vec<_> = (now.iter())
        .filter_map(|(key, a)| before.get(key).filter(|b| *b != a).map(|b| (key, b, a)))
        .collect();
    let unmatched = now.keys().filter(|key| !before.contains_key(*key)).count()
        + before.keys().filter(|key| !now.contains_key(*key)).count();
    let _ = writeln!(
        out,
        "cells that moved: {} of {} ({unmatched} in one document only)",
        moved.len(),
        now.len()
    );
    for (key, b, a) in moved {
        let _ = write!(out, "  {key}");
        for (i, (head, _)) in COLUMNS.iter().enumerate() {
            let _ = write!(out, "  {head} {} -> {}", b[i], a[i]);
        }
        out.push('\n');
    }

    let (now, before) = (verdicts_of(new), verdicts_of(old));
    let flipped: Vec<_> = (now.iter())
        .filter(|(id, v)| before.get(*id) != Some(*v))
        .map(|(id, v)| (id, before.get(id).map_or("absent", String::as_str), v.as_str()))
        .collect();
    let _ = writeln!(out, "verdicts that flipped: {} of {}", flipped.len(), now.len());
    for ((table, id), b, a) in flipped {
        let _ = writeln!(out, "  {table} {id}: {b} -> {a}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::tables::TABLES;
    use super::super::Opts;
    use super::*;
    use s2d_gen::Scale;

    const COMMITTED: &str = include_str!("../../../../REPRODUCTION.json");

    fn all_tables() -> Vec<Selection> {
        let opts = Opts { scale: Scale::Tiny, seeds: 1, k: None, suites: None, method: None };
        TABLES.iter().map(|t| Selection::new(t, &opts)).collect()
    }

    /// The report's row of `table` at (suite, K).
    fn row<'a>(report: &'a str, table: &str, suite: &str, k: &str) -> Vec<&'a str> {
        let words = |l: &'a str| l.split_whitespace().collect::<Vec<_>>();
        let mut rows = report.lines().map(words);
        rows.find(|w| w.len() == 8 && w[..3] == [table, suite, k]).expect("a row")
    }

    #[test]
    fn against_itself_nothing_moves() {
        let doc = Json::parse(COMMITTED).expect("REPRODUCTION.json parses");
        let report = against(&doc, &doc, &all_tables(), 1).expect("a report");
        assert!(report.contains("cells that moved: 0 of "), "{report}");
        assert!(report.contains("verdicts that flipped: 0 of "), "{report}");
        assert_eq!(row(&report, "table2", "A", "16")[5..], ["1.0000"; 3]);
    }

    /// A copy with the first cell's volume raised by 10 % and the first
    /// `Pass` verdict turned into a `Fail`: the report names both, the
    /// tables that read the cell show the ratio, and the others do not.
    #[test]
    fn a_doctored_cell_and_verdict_show_up() {
        let first = COMMITTED.find("\"cells\":[").expect("a cells array");
        let at = first + COMMITTED[first..].find("\"volume\":").expect("a volume") + 9;
        let digits = COMMITTED[at..].find(|c: char| !c.is_ascii_digit()).expect("digits");
        let volume: u64 = COMMITTED[at..at + digits].parse().expect("a volume");
        let mut doctored =
            format!("{}{}{}", &COMMITTED[..at], volume * 11 / 10, &COMMITTED[at + digits..]);
        let pass = doctored.find("\"verdict\":\"Pass\"").expect("a passing verdict");
        doctored.replace_range(pass..pass + 16, "\"verdict\":\"Fail\"");

        let (new, old) = (Json::parse(COMMITTED).unwrap(), Json::parse(&doctored).unwrap());
        let report = against(&new, &old, &all_tables(), 1).expect("a report");
        // The first cell is suite A's first matrix, K = 16, the "1d" build priced as auto.
        let moved: Vec<&str> = report.lines().filter(|l| l.contains(" -> ")).collect();
        assert_eq!(moved.len(), 2, "{report}");
        assert!(moved[0].trim_start().starts_with("A/3dtube K=16 seed=1 1d:auto"), "{}", moved[0]);
        assert!(moved[0].contains(&format!("volume {} -> {volume}", volume * 11 / 10)), "{report}");
        assert!(moved[1].contains("t2.s2d-volume-le-1d: Fail -> Pass"), "{report}");
        assert!(report.contains("cells that moved: 1 of "), "{report}");
        // `partitioners` prices the 1d build under its best plan: auto.
        let hit = row(&report, "partitioners", "A", "16");
        assert_eq!(hit[4], "1");
        let ratio: f64 = hit[5].parse().unwrap();
        assert!(ratio < 1.0 && ratio > 0.9, "{hit:?}");
        assert_eq!(hit[6..], ["1.0000"; 2]);
        // Table II prices 1D single-phase: another cell, untouched.
        assert_eq!(row(&report, "table2", "A", "16")[4..], ["0", "1.0000", "1.0000", "1.0000"]);
    }
}
