//! The repo's benchmark: matrix in → `y` out on four workloads, with
//! end-to-end metrics from an untraced pass and per-layer metrics from
//! a traced pass. See README.md in this directory.
//!
//! ```text
//! s2d-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one pass of one workload; the last line of stdout is the result
//!     as one JSON object (what `BENCHMARK.json`'s command runs); with
//!     --out <dir>, a traced pass also writes <dir>/trace-<name>.json
//! s2d-benchmark --seed <n> --out <dir> [--seconds <s>]
//!     a full run-set: every workload, untraced then traced, each in a
//!     process of its own; writes <dir>/run.json and <dir>/trace-*.json
//! s2d-benchmark --compare <a.json> <b.json>
//!     holds run-set b against run-set a under the declared bounds
//! s2d-benchmark --emit-spec
//!     prints the contents of BENCHMARK.json
//! ```

mod compare;
pub mod json;
mod machine;
mod measure;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use run::{Outcome, RunConfig};
use spec::{RUN_SECONDS, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    detail: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    emit_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
        detail: None,
        compare: None,
        emit_spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a directory")?.into()),
            "--detail" => args.detail = Some(value("a file")?.into()),
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()));
            }
            "--emit-spec" => args.emit_spec = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The whole command line: parses the arguments, runs the chosen mode
/// and returns the process's exit code.
pub fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("s2d-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.emit_spec {
        print!("{}", spec::benchmark_json().to_pretty());
        Ok(true)
    } else if let Some((base, new)) = &args.compare {
        compare::compare_files(base, new)
    } else if args.workload.is_some() {
        run_one(&args)
    } else {
        run_set(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("s2d-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// A directory next to the executable (inside the build directory,
/// hence inside the checkout and ignored by git) for the few files a
/// traced pass has to put on disk.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join(format!("s2d-benchmark-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Spans written out in full per (name, parent); the rest of the
/// sampling loops' per-call spans are rolled up.
const SPANS_KEPT_PER_NAME: usize = 64;

/// One pass of one workload. Prints every metric by name with its
/// unit, then the result object as the last line. With `--out`, a
/// traced pass also writes `<out>/trace-<workload>.json`.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("run_one needs --workload");
    let spec = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let cfg = RunConfig {
        kind: spec.kind,
        name: spec.name,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    println!(
        "# {} seed={} seconds={} trace={} smoke={} nproc={} avx2={}",
        cfg.name,
        cfg.seed,
        cfg.seconds,
        u8::from(args.trace),
        cfg.smoke,
        machine::nproc(),
        machine::avx2()
    );
    let outcome = if args.trace {
        let scratch = scratch_dir()?;
        let outcome = run::per_layer(&cfg, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        outcome
    } else {
        run::end_to_end(&cfg)
    };

    let line = |label: String, s: &stats::Summary, unit: &str| {
        let tail = s.tail.map_or(String::new(), |(p, v)| format!("  p{p}={v:.6}"));
        println!("{label:<34} {:>16.6} {unit:<8}{tail}  n={}", s.median, s.samples);
    };
    for (m, s) in &outcome.metrics {
        line(m.name.to_string(), s, m.unit);
    }
    for (name, s, unit) in &outcome.info {
        line(format!("info {name}"), s, unit);
    }
    println!("ops_attempted {}  ops_failed {}", outcome.tally.attempted, outcome.tally.failed);
    for note in &outcome.notes {
        println!("note: {note}");
    }
    if let Some(path) = &args.detail {
        write_file(path, &result_json(&outcome, true).to_pretty())?;
    }
    if let (Some(out), Some(tracer)) = (&args.out, &outcome.tracer) {
        let path = out.join(format!("trace-{}.json", cfg.name));
        write_file(&path, &tracer.to_json(SPANS_KEPT_PER_NAME).to_pretty())?;
    }
    println!("{}", result_json(&outcome, false).to_line());
    Ok(true)
}

/// `{"correct", "attempted", "failed", "metrics": {name: {"value",
/// "unit"}}}`; with `full`, each metric also carries its sample count
/// and supported tail, and the notes ride along.
fn result_json(outcome: &Outcome, full: bool) -> Json {
    let mut metrics = Json::obj();
    for (m, s) in &outcome.metrics {
        if full {
            metrics.set(m.name, s.to_json(m.unit));
        } else {
            let mut o = Json::obj();
            o.set("value", s.median).set("unit", m.unit);
            metrics.set(m.name, o);
        }
    }
    let mut doc = Json::obj();
    doc.set("correct", outcome.correct && outcome.tally.failed == 0)
        .set("attempted", outcome.tally.attempted.max(1))
        .set("failed", outcome.tally.failed)
        .set("metrics", metrics);
    if full {
        let mut info = Json::obj();
        for (name, s, unit) in &outcome.info {
            info.set(name, s.to_json(unit));
        }
        doc.set("info", info);
        doc.set("notes", Json::Arr(outcome.notes.iter().map(|n| Json::from(n.as_str())).collect()));
    }
    doc
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A full run-set. Each pass runs in a process of its own (this
/// executable again with `--workload`), so that `peak_rss_mb` is the
/// workload's alone and a pool left spinning cannot leak into the
/// next measurement.
fn run_set(args: &Args) -> Result<bool, String> {
    let out = args.out.as_deref().ok_or("a run-set needs --out <dir> (or give --workload)")?;
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let machine = machine::descriptor(args.seed);
    println!("machine {}", machine.to_line());

    let mut workloads = Json::obj();
    let mut all_ok = true;
    for w in &WORKLOADS {
        let mut entry = Json::obj();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let detail = out.join(format!("detail-{}-{trace}.json", w.name));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace, "--seed", &args.seed.to_string()]);
            cmd.args(["--seconds", &args.seconds.to_string()]).arg("--detail").arg(&detail);
            cmd.arg("--out").arg(out);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} --trace {trace} exited with {status}", w.name));
            }
            let text = std::fs::read_to_string(&detail)
                .map_err(|e| format!("{}: {e}", detail.display()))?;
            let pass = Json::parse(&text)?;
            let _ = std::fs::remove_file(&detail);
            all_ok &= pass.get("correct").and_then(Json::as_bool) == Some(true);
            entry.set(key, pass);
        }
        if let Some(gap) = setup_gap(&entry) {
            println!("{}: {gap}", w.name);
            entry.set("setup_coverage_note", gap);
        }
        workloads.set(w.name, entry);
    }
    let mut doc = Json::obj();
    doc.set("schema", 1u64)
        .set("seed", args.seed.to_string())
        .set("smoke", args.smoke)
        .set("seconds", args.seconds)
        .set("machine", machine)
        .set("workloads", workloads);
    let path = out.join("run.json");
    write_file(&path, &doc.to_pretty())?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

/// Holds the traced set-up tree against the untraced `setup_s`: the
/// hand-assembled chain must explain at least 95 % of what the builder
/// takes, and must have produced the same partition (same volume).
fn setup_gap(entry: &Json) -> Option<String> {
    let value = |pass: &str, metric: &str| {
        entry.get(pass)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
    };
    let untraced = value("end_to_end", "setup_s")?;
    let traced = value("per_layer", "trace.setup_span_s")?;
    let covered = traced * value("per_layer", "trace.setup_children_share")?;
    let mut notes = vec![format!(
        "traced set-up children cover {:.1} % of untraced setup_s ({covered:.3} s of {untraced:.3} s)",
        100.0 * covered / untraced
    )];
    if covered < 0.95 * untraced {
        notes.push("GAP: below 95 %".to_string());
    }
    let (e2e_volume, traced_volume) =
        (value("end_to_end", "comm_volume_words")?, value("per_layer", "runtime.words_per_iter")?);
    if e2e_volume != traced_volume {
        notes.push(format!(
            "MISMATCH: traced chain produced volume {traced_volume}, the builder {e2e_volume}"
        ));
    }
    Some(notes.join("; "))
}
