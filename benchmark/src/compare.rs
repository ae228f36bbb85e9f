//! `--compare <base.json> <new.json>`: one row per (workload,
//! end-to-end metric) with base, new, ratio and bound; fails when a
//! metric worsens beyond its bound or the failed-operation share rises.

use std::path::Path;

use crate::json::Json;
use crate::spec::{Better, END_TO_END};

/// Reads a run-set file written by this benchmark.
fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; `Ok(false)` when `new` regresses on `base`.
pub fn compare_files(base: &Path, new: &Path) -> Result<bool, String> {
    let (report, ok) = compare(&load(base)?, &load(new)?)?;
    print!("{report}");
    Ok(ok)
}

/// Two run-sets are comparable only when they measured the same thing.
fn check_comparable(base: &Json, new: &Json) -> Result<(), String> {
    for key in ["seed", "smoke"] {
        if base.get(key) != new.get(key) || base.get(key).is_none() {
            return Err(format!("refusing to compare: {key:?} differs or is missing"));
        }
    }
    let names = |doc: &Json| -> Vec<String> {
        doc.get("workloads")
            .map_or(Vec::new(), |w| w.fields().iter().map(|(k, _)| k.clone()).collect())
    };
    if names(base) != names(new) || names(base).is_empty() {
        return Err("refusing to compare: the workload sets differ".to_string());
    }
    Ok(())
}

/// Share of failed operations in a workload's untraced pass.
fn failed_share(pass: &Json) -> Option<f64> {
    let attempted = pass.get("attempted")?.as_f64()?;
    Some(pass.get("failed")?.as_f64()? / attempted.max(1.0))
}

/// The comparison as text, and whether `new` stays within every bound.
pub fn compare(base: &Json, new: &Json) -> Result<(String, bool), String> {
    check_comparable(base, new)?;
    let mut out = format!(
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let mut ok = true;
    let workloads = base.get("workloads").expect("checked above");
    for (name, base_entry) in workloads.fields() {
        let new_entry = new.get("workloads").and_then(|w| w.get(name)).expect("checked above");
        let pass = |entry: &Json| entry.get("end_to_end").cloned().unwrap_or(Json::Null);
        let (b, n) = (pass(base_entry), pass(new_entry));
        for m in &END_TO_END {
            let value = |p: &Json| p.get("metrics")?.get(m.name)?.get("value")?.as_f64();
            let (Some(bv), Some(nv)) = (value(&b), value(&n)) else {
                return Err(format!("{name}: metric {} is missing", m.name));
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let ratio = nv / bv;
            // How much worse `new` is, as a share of `base`.
            let worsening = match m.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let verdict = if !worsening.is_finite() || worsening > bound {
                ok = false;
                "REGRESSION"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "{name:<14} {:<20} {bv:>14.4} {nv:>14.4} {ratio:>8.4} {:>6.0}%  {verdict}\n",
                m.name,
                bound * 100.0
            ));
        }
        let (Some(bf), Some(nf)) = (failed_share(&b), failed_share(&n)) else {
            return Err(format!("{name}: operation counts are missing"));
        };
        let verdict = if nf > bf {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "{name:<14} {:<20} {bf:>14.6} {nf:>14.6} {:>8} {:>7}  {verdict}\n",
            "failed_op_share", "", ""
        ));
    }
    out.push_str(if ok { "within bounds\n" } else { "REGRESSION beyond bounds\n" });
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run-set of one workload with every end-to-end metric at 10,
    /// except those named in `overrides`.
    fn run_set(seed: &str, failed: u64, overrides: &[(&str, f64)]) -> Json {
        let mut metrics = Json::obj();
        for m in &END_TO_END {
            let value = overrides.iter().find(|(n, _)| *n == m.name).map_or(10.0, |(_, v)| *v);
            let mut o = Json::obj();
            o.set("value", value).set("unit", m.unit);
            metrics.set(m.name, o);
        }
        let mut pass = Json::obj();
        pass.set("correct", failed == 0).set("attempted", 100u64).set("failed", failed);
        pass.set("metrics", metrics);
        let mut entry = Json::obj();
        entry.set("end_to_end", pass);
        let mut workloads = Json::obj();
        workloads.set("fem-steady", entry);
        let mut doc = Json::obj();
        doc.set("seed", seed).set("smoke", false).set("workloads", workloads);
        doc
    }

    #[test]
    fn equal_run_sets_are_within_bounds() {
        let (report, ok) = compare(&run_set("1", 0, &[]), &run_set("1", 0, &[])).unwrap();
        assert!(ok, "{report}");
        assert_eq!(report.lines().count(), 1 + END_TO_END.len() + 1 + 1);
    }

    #[test]
    fn worsening_beyond_the_bound_fails_in_the_metrics_direction() {
        let base = run_set("1", 0, &[]);
        let verdict = |metric: &str, value: f64| {
            compare(&base, &run_set("1", 0, &[(metric, value)])).unwrap()
        };
        // request_spmvs: lower is better, bound 25 %.
        assert!(verdict("request_spmvs", 12.4).1, "+24 % is inside a 25 % bound");
        let (report, ok) = verdict("request_spmvs", 12.6);
        assert!(!ok && report.contains("REGRESSION"), "+26 % is outside");
        assert!(verdict("request_spmvs", 5.0).1, "an improvement is never a regression");
        // batched_speedup: higher is better.
        assert!(verdict("batched_speedup", 20.0).1);
        assert!(!verdict("batched_speedup", 7.0).1, "-30 % throughput is outside a 25 % bound");
    }

    #[test]
    fn a_rising_failed_share_fails_and_mismatched_inputs_are_refused() {
        let base = run_set("1", 0, &[]);
        assert!(!compare(&base, &run_set("1", 1, &[])).unwrap().1);
        assert!(compare(&base, &run_set("2", 0, &[])).is_err(), "seed differs");
        let mut smoke = run_set("1", 0, &[]);
        smoke.set("smoke", true);
        assert!(compare(&base, &smoke).is_err(), "smoke flag differs");
        let mut other = run_set("1", 0, &[]);
        other.set("workloads", Json::obj());
        assert!(compare(&base, &other).is_err(), "workload set differs");
    }
}
