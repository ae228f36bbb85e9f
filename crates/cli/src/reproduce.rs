//! `s2d reproduce`: the paper's tables, its figure and the ablations as
//! views over one quality sweep.
//!
//! A *cell* is `(suite matrix, K, seed, method)`, a method being
//! `(label, how the partition is built, plan kind)`. The builds of each
//! `(matrix, K, seed)` the selected tables need are partitioned together
//! in one [`Strategy::partition_all`] call, so the 1D rowwise run they
//! refine is made once, and every distinct cell is priced once through
//! [`PartitionQuality::measure_plan`]; the tables ([`tables::TABLES`])
//! are data — which cells, which columns, the paper's reference rows
//! and a list of expectations the runner parses and evaluates. The
//! whole run serialises to one versioned JSON document; the tiny-scale
//! one is committed as `REPRODUCTION.json` and CI regenerates and
//! `cmp`s it.

mod against;
mod tables;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use s2d_core::comm::{comm_requirements, CommRequirements};
use s2d_core::fig1::{fig1_matrix, fig1_partition};
use s2d_core::heuristic::{s2d_from_vector_partition, HeuristicConfig};
use s2d_core::heuristic2::{s2d_generalized, Heuristic2Config};
use s2d_core::mesh::mesh_dims;
use s2d_gen::{suite_a, suite_b, MatrixSpec, Scale};
use s2d_obs::Json;
use s2d_partition::{PartitionQuality, PartitionerConfig, Strategy};
use s2d_sim::{simulate_on_torus, TorusModel};
use s2d_sparse::{Csr, MatrixStats};
use s2d_spmv::plan::volume_matches_eq3;
use s2d_spmv::{to_phase_specs, PlanKind};

use crate::args::Args;
use crate::commands::{fail, write_artifact};
use tables::TABLES;

/// The paper's two matrix suites (Table I and Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Suite {
    A,
    B,
}

/// One way of producing and pricing a partition, spelled
/// `[label=]build[:plan]` in a table: `build` is a [`Strategy`] label,
/// or `s2d@ε` / `s2d-gen@ε` for Algorithm 1 / 2 at load tolerance ε on
/// the cell's 1D vector partition (whose own ε stays 3%); `plan` is a
/// [`PlanKind`] spelling or, by default, `auto`; the label defaults to
/// the build.
#[derive(Clone, Copy)]
struct Method {
    label: &'static str,
    build: &'static str,
    plan: &'static str,
}

fn parse_method(spec: &'static str) -> Method {
    let (label, rest) = spec.split_once('=').unwrap_or((spec, spec));
    let (build, plan) = rest.split_once(':').unwrap_or((rest, "auto"));
    Method { label: if label == spec { build } else { label }, build, plan }
}

enum View {
    /// Tables I / IV: generated statistics beside the paper's.
    Properties,
    Figure1,
    /// `|`-separated groups of columns, each `[head=]method.column` or
    /// `[head=]method.column/method.column` (a ratio), one row per
    /// (matrix, K). Bare `column`s read the row's own method, and make
    /// it one row per (matrix, K, method).
    Rows(&'static str),
}

enum Check {
    /// Chains `term op term [op term …]`, each ended by `;`, that all
    /// hold: `op` is one of `<= < == >=` and a term is
    /// `[factor*]method.column`, `K-1`, `Pr+Pc-2` (the default mesh's
    /// hop bound) or a number. The method `best-fixed` reads, per
    /// matrix, the lowest value among the table's methods other than
    /// `auto`.
    Rels(&'static str),
    /// `a / b` is larger at each K than at the previous one.
    RatioGrowsWithK(&'static str, &'static str),
    /// The method wins more matrices than any other method, where a
    /// method wins a matrix when its value of the column is within the
    /// relative tie tolerance of the lowest there (tied methods all win
    /// it).
    Plurality(&'static str, &'static str, f64),
    /// Every method whose strategy `claims_s2d`, priced under the fused
    /// plan, produced an s2D partition whose volume matches Eq. 3.
    ClaimsHold,
    /// Figure 1's caption: `λ(P3→P2) = 3` with `n̂ = 2, m̂ = 1`, and `P2`
    /// sends `[x5, ȳ2]` to `P1`, on a partition that is s2D.
    Fig1Caption,
}

enum Scope {
    /// Every (matrix, K, seed); a non-empty list restricts the matrices.
    Cell(&'static [&'static str]),
    /// Every K, on geomeans over the suite's matrices (seeds averaged
    /// first).
    Mean(Suite),
}

struct Expectation {
    id: &'static str,
    scope: Scope,
    check: Check,
}

/// One table, figure or ablation of the reproduction.
struct Table {
    name: &'static str,
    title: &'static str,
    suites: &'static [Suite],
    /// How many of each suite's matrices (in suite order) take part.
    take: usize,
    ks: fn(Scale) -> Vec<usize>,
    /// Space-separated [`Method`] spellings.
    methods: &'static str,
    view: View,
    /// The paper's own rows, printed under the measured ones.
    paper: &'static [(&'static str, &'static str)],
    expectations: &'static [Expectation],
}

/// `s2d reproduce` flags.
struct Opts {
    scale: Scale,
    seeds: u64,
    k: Option<usize>,
    suites: Option<Vec<Suite>>,
    method: Option<String>,
}

/// A table with the flags applied.
struct Selection {
    table: &'static Table,
    matrices: Vec<(Suite, MatrixSpec)>,
    ks: Vec<usize>,
    methods: Vec<Method>,
}

impl Selection {
    fn new(table: &'static Table, opts: &Opts) -> Selection {
        let specs = |suite| if suite == Suite::A { suite_a() } else { suite_b() };
        let matrices = (opts.suites.as_deref().unwrap_or(table.suites).iter())
            .flat_map(|&s| specs(s).into_iter().take(table.take).map(move |spec| (s, spec)))
            .collect();
        let ks = opts.k.map_or_else(|| (table.ks)(opts.scale), |k| vec![k]);
        let wanted = |m: &Method| opts.method.as_deref().is_none_or(|want| m.build == want);
        let methods = table.methods.split_whitespace().map(parse_method).filter(wanted).collect();
        Selection { table, matrices, ks, methods }
    }
}

type MatrixKey = (Suite, &'static str);
/// `(K, seed, build, plan)` — ordered so that cells sharing a partition
/// are neighbours.
type Need = (usize, u64, &'static str, &'static str);
type Cells = BTreeMap<(MatrixKey, Need), Cell>;

#[derive(Clone)]
struct Cell {
    quality: PartitionQuality,
    /// Modeled per-iteration time on the XE6-flavoured 3D torus.
    torus_time: f64,
    /// What a two-hop mesh router without aggregation would move (mesh
    /// plans only).
    naive_mesh_volume: Option<u64>,
    /// Fused single-phase plans only.
    eq3: Option<bool>,
}

impl Cell {
    /// A reported quantity by its column name; `None` for unknown names.
    fn get(&self, column: &str) -> Option<f64> {
        let q = &self.quality;
        let serial = q.speedup * q.alpha_beta_time;
        Some(match column {
            "li" => q.load_imbalance,
            "avg" => q.avg_send_msgs,
            "max" => q.max_send_msgs as f64,
            "msgs" => q.total_messages as f64,
            "volume" => q.volume as f64,
            "naive" => self.naive_mesh_volume.map_or(f64::NAN, |v| v as f64),
            "max_load" => q.max_load as f64,
            "phases" => q.comm_phases as f64,
            "t_ab" => q.alpha_beta_time,
            "t_us" => q.alpha_beta_time * 1e6,
            "t_torus" => self.torus_time,
            "t_loggp" => q.loggp_time,
            "sp" => q.speedup,
            "sp_torus" => serial / self.torus_time,
            "sp_loggp" => serial / q.loggp_time,
            _ => return None,
        })
    }
}

/// Volume of a two-hop mesh router that forwards every requirement on
/// its own (no shared `x` words, no summed partials).
fn naive_mesh_volume(reqs: &CommRequirements, k: usize) -> u64 {
    let pc = mesh_dims(k).1 as u32;
    (reqs.x_reqs.iter().chain(&reqs.y_reqs))
        .map(|&(src, dst, _)| {
            let mid = dst / pc * pc + src % pc;
            1 + u64::from(mid != src && mid != dst)
        })
        .sum()
}

/// Partitions and prices every cell that `keys` (names of the one
/// matrix `a`) need. The builds of one `(K, seed)` are partitioned
/// together and kept while its cells are priced: the strategies in one
/// [`Strategy::partition_all`] call, and each `@ε` build from that
/// call's `1d` entry.
fn sweep_matrix(a: &Csr, keys: &[(MatrixKey, BTreeSet<Need>)], cells: &mut Cells) {
    let needs: BTreeSet<Need> = keys.iter().flat_map(|(_, needs)| needs).copied().collect();
    let (mut parts, mut parts_of) = (BTreeMap::new(), None);
    for &need in &needs {
        let (k, seed, build, plan) = need;
        if parts_of != Some((k, seed)) {
            parts_of = Some((k, seed));
            let builds = needs.iter().filter(|n| (n.0, n.1) == (k, seed)).map(|n| n.2);
            let (refined, mut named): (BTreeSet<&str>, BTreeSet<&str>) =
                builds.partition(|b| b.contains('@'));
            if !refined.is_empty() {
                named.insert("1d");
            }
            let strategies: Vec<Strategy> =
                named.iter().map(|b| b.parse().expect("table methods are strategies")).collect();
            let cfg = PartitionerConfig { epsilon: 0.03, seed };
            parts.clear();
            parts.extend(named.into_iter().zip(Strategy::partition_all(&strategies, a, k, &cfg)));
            for build in refined {
                let (alg, epsilon) = build.split_once('@').expect("a refined build");
                let epsilon = epsilon.parse().expect("a load tolerance");
                let v = &parts["1d"];
                let p = match alg {
                    "s2d" => {
                        let cfg = HeuristicConfig { epsilon, ..Default::default() };
                        s2d_from_vector_partition(a, &v.y_part, &v.x_part, &cfg)
                    }
                    "s2d-gen" => {
                        let cfg = Heuristic2Config { epsilon, ..Default::default() };
                        s2d_generalized(a, &v.y_part, &v.x_part, k, &cfg)
                    }
                    other => panic!("{other}@E is not a build (s2d@E | s2d-gen@E)"),
                };
                parts.insert(build, p);
            }
        }
        let p = &parts[build];
        let (kind, built_plan) = match plan {
            "auto" => PlanKind::build_auto(a, p),
            named => {
                let kind: PlanKind = named.parse().expect("table plans are plan kinds");
                (kind, kind.build(a, p))
            }
        };
        let quality = PartitionQuality::measure_plan(a, p, kind, &built_plan, build);
        let specs = to_phase_specs(&built_plan);
        let torus = simulate_on_torus(k, &specs, built_plan.total_ops(), &TorusModel::xe6_for(k));
        let cell = Cell {
            quality,
            torus_time: torus.parallel_time,
            naive_mesh_volume: (kind == PlanKind::Mesh)
                .then(|| naive_mesh_volume(&comm_requirements(a, p), k)),
            eq3: (kind == PlanKind::SinglePhase).then(|| volume_matches_eq3(a, p, &built_plan)),
        };
        for (key, _) in keys.iter().filter(|(_, needs)| needs.contains(&need)) {
            cells.insert((*key, need), cell.clone());
        }
    }
}

/// Every distinct cell the selections show, grouped by matrix.
fn needs_of(
    selections: &[Selection],
    seeds: u64,
) -> BTreeMap<MatrixKey, (MatrixSpec, BTreeSet<Need>)> {
    let mut needs: BTreeMap<MatrixKey, (MatrixSpec, BTreeSet<Need>)> = BTreeMap::new();
    for sel in selections {
        for &(suite, spec) in &sel.matrices {
            let entry = needs.entry((suite, spec.name)).or_insert((spec, BTreeSet::new()));
            for &k in &sel.ks {
                for seed in 1..=seeds {
                    entry.1.extend(sel.methods.iter().map(|m| (k, seed, m.build, m.plan)));
                }
            }
        }
    }
    needs
}

/// Generates every matrix the selections touch and runs each distinct
/// cell once. Keys whose matrices share a fingerprint (`c-big` and
/// `ASIC_680k` of both suites, at `tiny`) are swept as one matrix, which
/// is generated again for its sweep, so only one is held at a time.
fn sweep(selections: &[Selection], opts: &Opts) -> (BTreeMap<MatrixKey, MatrixStats>, Cells) {
    let (mut stats, mut cells) = (BTreeMap::new(), Cells::new());
    let mut matrices: BTreeMap<u64, (MatrixSpec, Vec<(MatrixKey, BTreeSet<Need>)>)> =
        BTreeMap::new();
    for (key, (spec, needs)) in needs_of(selections, opts.seeds) {
        let a = spec.generate(opts.scale, 1);
        stats.insert(key, MatrixStats::of(&a));
        matrices.entry(a.fingerprint()).or_insert((spec, Vec::new())).1.push((key, needs));
    }
    for (spec, keys) in matrices.into_values() {
        for ((suite, name), needs) in &keys {
            eprintln!("reproduce: {suite:?}/{name}: {} cells", needs.len());
        }
        sweep_matrix(&spec.generate(opts.scale, 1), &keys, &mut cells);
    }
    (stats, cells)
}

/// Geometric mean of `shift + value`, minus `shift`; values are clamped
/// away from zero so an exact zero does not collapse it, and a single
/// value is returned as it is. `None` when a value is missing or there
/// are none.
fn geomean(values: impl Iterator<Item = Option<f64>>, shift: f64) -> Option<f64> {
    let values: Vec<f64> = values.collect::<Option<_>>()?;
    match values[..] {
        [] => None,
        [only] => Some(only),
        _ => {
            let sum: f64 = values.iter().map(|v| (v + shift).max(1e-12).ln()).sum();
            Some((sum / values.len() as f64).exp() - shift)
        }
    }
}

/// Where a term is evaluated: one seed's cell, a matrix (seeds
/// averaged, `seed` is `None`), or a suite (matrices averaged, `matrix`
/// is `None`).
#[derive(Clone, Copy)]
struct Point {
    suite: Suite,
    matrix: Option<&'static str>,
    k: usize,
    seed: Option<u64>,
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}/{} K={}", self.suite, self.matrix.unwrap_or("geomean"), self.k)?;
        self.seed.map_or(Ok(()), |seed| write!(f, " seed={seed}"))
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Status {
    Pass,
    Fail,
    Skipped,
}

struct Verdict {
    table: &'static str,
    id: &'static str,
    status: Status,
    detail: String,
}

/// A selection's window onto the swept cells. Lookups return `None`
/// when a flag filtered the method, matrix or K out.
struct Grid<'a> {
    sel: &'a Selection,
    cells: &'a Cells,
    seeds: u64,
}

impl Grid<'_> {
    fn cell(&self, point: Point, label: &str) -> Option<&Cell> {
        let m = self.sel.methods.iter().find(|m| m.label == label)?;
        let need = (point.k, point.seed?, m.build, m.plan);
        self.cells.get(&((point.suite, point.matrix?), need))
    }

    fn matrices_of(&self, suite: Suite) -> impl Iterator<Item = &'static str> + '_ {
        self.sel.matrices.iter().filter(move |(s, _)| *s == suite).map(|(_, spec)| spec.name)
    }

    /// LI is averaged as `geomean(1 + LI) − 1` to stay meaningful
    /// across mixed magnitudes.
    fn at(&self, point: Point, label: &str, col: &str) -> Option<f64> {
        let shift = if col == "li" { 1.0 } else { 0.0 };
        match (point.matrix, point.seed) {
            (None, _) => {
                let matrices = self.matrices_of(point.suite);
                let values =
                    matrices.map(|m| self.at(Point { matrix: Some(m), ..point }, label, col));
                geomean(values, shift)
            }
            (Some(_), None) => {
                let seeds = 1..=self.seeds;
                let values = seeds.map(|s| self.at(Point { seed: Some(s), ..point }, label, col));
                geomean(values, shift)
            }
            (Some(_), Some(_)) if label == "best-fixed" => {
                let fixed = self.sel.methods.iter().filter(|m| m.label != "auto");
                let values = fixed.map(|m| self.at(point, m.label, col));
                values.reduce(|best, v| Some(best?.min(v?)))?
            }
            (Some(_), Some(_)) => self.cell(point, label)?.get(col),
        }
    }

    /// One side of a relation (see [`Check::Rels`]).
    fn term(&self, point: Point, term: &str) -> Option<f64> {
        match term {
            "K-1" => return Some(point.k as f64 - 1.0),
            "Pr+Pc-2" => {
                let (pr, pc) = mesh_dims(point.k);
                return Some((pr + pc) as f64 - 2.0);
            }
            _ => {}
        }
        if let Ok(number) = term.parse() {
            return Some(number);
        }
        let (factor, rest) = term.split_once('*').unwrap_or(("1", term));
        let (label, col) = split_column(rest);
        let value = self.at(point, label.expect("terms are method.column"), col)?;
        Some(factor.parse::<f64>().expect("a numeric factor") * value)
    }

    fn points(&self, scope: &Scope) -> Vec<Point> {
        let mut points = Vec::new();
        for &k in &self.sel.ks {
            match *scope {
                Scope::Mean(suite) => points.push(Point { suite, matrix: None, k, seed: None }),
                Scope::Cell(only) => {
                    for &(suite, spec) in &self.sel.matrices {
                        if only.is_empty() || only.contains(&spec.name) {
                            let at = |seed| Point { suite, matrix: Some(spec.name), k, seed };
                            points.extend((1..=self.seeds).map(|seed| at(Some(seed))));
                        }
                    }
                }
            }
        }
        points
    }

    /// `None` when the point lacks a cell the check reads; `Ok` carries
    /// a note worth printing beside a pass.
    fn check_at(&self, point: Point, check: &Check) -> Option<Result<String, String>> {
        let noted = |ok: bool, note: String| Some(if ok { Ok(note) } else { Err(note) });
        match *check {
            Check::Rels(spec) => {
                for chain in spec.split(';').filter(|chain| !chain.trim().is_empty()) {
                    let tokens: Vec<&str> = chain.split_whitespace().collect();
                    assert!(tokens.len() >= 3 && tokens.len() % 2 == 1, "{chain:?} is no chain");
                    for w in tokens.windows(3).step_by(2) {
                        let (l, r) = (self.term(point, w[0])?, self.term(point, w[2])?);
                        let ok = match w[1] {
                            "<=" => l <= r,
                            "<" => l < r,
                            ">=" => l >= r,
                            "==" => l == r,
                            op => panic!("unknown operator {op:?} in {spec:?}"),
                        };
                        if !ok {
                            let [a, op, b] = [w[0], w[1], w[2]];
                            return Some(Err(format!("{a} = {l} {op} {b} = {r} is false")));
                        }
                    }
                }
                Some(Ok(String::new()))
            }
            Check::RatioGrowsWithK(a, b) => {
                let at = self.sel.ks.iter().position(|&k| k == point.k)?;
                let prev = Point { k: *self.sel.ks.get(at.checked_sub(1)?)?, ..point };
                let ratio = |p| Some(self.term(p, a)? / self.term(p, b)?);
                let (before, now) = (ratio(prev)?, ratio(point)?);
                noted(now > before, format!("ratio {before:.2} at K={} -> {now:.2}", prev.k))
            }
            Check::Plurality(label, col, tie) => {
                let mut wins: Vec<(&str, usize)> =
                    self.sel.methods.iter().map(|m| (m.label, 0)).collect();
                for m in self.matrices_of(point.suite) {
                    let here = Point { matrix: Some(m), ..point };
                    let times: Option<Vec<f64>> =
                        wins.iter().map(|(l, _)| self.at(here, l, col)).collect();
                    let times = times?;
                    let lowest = times.iter().copied().reduce(f64::min)?;
                    for (win, t) in wins.iter_mut().zip(times) {
                        win.1 += usize::from(t <= lowest * (1.0 + tie));
                    }
                }
                let mine = wins.iter().find(|(l, _)| *l == label)?.1;
                let tally: Vec<_> = wins.iter().map(|(l, w)| format!("{l} {w}")).collect();
                let ok = wins.iter().all(|&(l, w)| l == label || w < mine);
                noted(ok, format!("wins: {}", tally.join(", ")))
            }
            Check::ClaimsHold => {
                let mut seen = None;
                for m in &self.sel.methods {
                    let claims = m.build.parse::<Strategy>().is_ok_and(|s| s.claims_s2d());
                    if !claims || !matches!(m.plan, "auto" | "single") {
                        continue;
                    }
                    let cell = self.cell(point, m.label)?;
                    if !(cell.quality.s2d && cell.eq3 == Some(true)) {
                        let (s2d, eq3) = (cell.quality.s2d, cell.eq3);
                        return Some(Err(format!("{}: s2d = {s2d}, eq3 = {eq3:?}", m.label)));
                    }
                    seen = Some(Ok(String::new()));
                }
                seen
            }
            Check::Fig1Caption => None,
        }
    }

    /// Evaluates one expectation over every point of its scope; the
    /// first failing point is the verdict's detail.
    fn judge(&self, e: &'static Expectation) -> Verdict {
        let verdict =
            |status, detail| Verdict { table: self.sel.table.name, id: e.id, status, detail };
        if let Check::Fig1Caption = e.check {
            let (ok, detail) = fig1_caption();
            return verdict(if ok { Status::Pass } else { Status::Fail }, detail);
        }
        let mut passed = None;
        for point in self.points(&e.scope) {
            match self.check_at(point, &e.check) {
                None => {}
                Some(Ok(note)) => passed = Some(note),
                Some(Err(why)) => return verdict(Status::Fail, format!("{point}: {why}")),
            }
        }
        match passed {
            Some(note) => verdict(Status::Pass, note),
            None => verdict(Status::Skipped, "no cells selected".to_string()),
        }
    }

    /// One text row `name K [method] | group | group …` of a
    /// [`View::Rows`] spec; the header when `point` is `None`.
    fn row(&self, spec: &str, name: &str, point: Option<Point>, method: Option<&str>) -> String {
        let mut line = match point {
            Some(p) => format!("{name:<12} {:>5}", p.k),
            None => format!("{:<12} {:>5}", "name", "K"),
        };
        if let Some(m) = method {
            let _ = write!(line, " {:<10}", if point.is_some() { m } else { "method" });
        }
        for group in spec.split('|') {
            line.push_str(" |");
            for column in group.split_whitespace() {
                let (head, body) = column.split_once('=').unwrap_or((column, column));
                let value = |s: &str| {
                    let (label, col) = split_column(s);
                    self.at(point?, label.or(method)?, col)
                };
                let text = match body.split_once('/') {
                    _ if point.is_none() => head.to_string(),
                    Some((n, d)) => match (value(n), value(d)) {
                        (Some(n), Some(d)) if d != 0.0 => format!("{:.2}", n / d),
                        _ => "-".to_string(),
                    },
                    None => match (value(body), split_column(body).1) {
                        (None, _) => "-".to_string(),
                        (Some(v), "li") => fmt_li(v),
                        (Some(v), "volume" | "naive") => format!("{v:.2e}"),
                        (Some(v), "max" | "msgs") => format!("{v:.0}"),
                        (Some(v), _) => format!("{v:.1}"),
                    },
                };
                let _ = write!(line, " {text:>w$}", w = head.len().max(6));
            }
        }
        line + "\n"
    }

    /// One row per (matrix, K), seeds averaged, then one geomean row
    /// per (suite, K). A spec whose columns name no method gets one row
    /// per method instead.
    fn render_rows(&self, spec: &str, out: &mut String) {
        let methods: Vec<Option<&str>> = if spec.contains('.') {
            vec![None]
        } else {
            self.sel.methods.iter().map(|m| Some(m.label)).collect()
        };
        let mut suites: Vec<Suite> = self.sel.matrices.iter().map(|m| m.0).collect();
        suites.dedup();
        let matrices = self.sel.matrices.iter().map(|&(suite, spec)| (suite, Some(spec.name)));
        out.push_str(&self.row(spec, "", None, methods[0]));
        for (suite, matrix) in matrices.chain(suites.into_iter().map(|suite| (suite, None))) {
            let name = matrix.map_or(format!("geomean {suite:?}"), str::to_string);
            for &k in &self.sel.ks {
                for &m in &methods {
                    let point = Point { suite, matrix, k, seed: None };
                    out.push_str(&self.row(spec, &name, Some(point), m));
                }
            }
        }
    }

    fn render_properties(&self, out: &mut String, stats: &BTreeMap<MatrixKey, MatrixStats>) {
        let block = |n: usize, nnz: usize, davg: f64, dmax: usize| {
            format!("{n:>8} {nnz:>9} {davg:>7.1} {dmax:>7}")
        };
        let head = format!("{:>8} {:>9} {:>7} {:>7}", "n", "nnz", "davg", "dmax");
        let _ = writeln!(out, "{:<12} | {head} | {head} | application", "name");
        for &(suite, spec) in &self.sel.matrices {
            let (p, s) = (spec.paper, &stats[&(suite, spec.name)]);
            let paper = block(p.n, p.nnz, p.davg, p.dmax);
            let double = block(s.nrows, s.nnz, s.row_davg, s.row_dmax);
            let _ = writeln!(out, "{:<12} | {paper} | {double} | {}", spec.name, spec.application);
        }
        out.push_str("(left block: paper; right block: the generated double)\n");
    }
}

/// Figure 1's caption, checked against the requirement sets of the
/// example partition (ranks and indices are 1-based in the paper).
fn fig1_caption() -> (bool, String) {
    let (a, p) = (fig1_matrix(), fig1_partition());
    let reqs = comm_requirements(&a, &p);
    let between = |reqs: &[(u32, u32, u32)], src, dst| -> Vec<u32> {
        reqs.iter().filter(|r| r.0 == src && r.1 == dst).map(|r| r.2 + 1).collect()
    };
    let (n, m) = (between(&reqs.x_reqs, 2, 1).len(), between(&reqs.y_reqs, 2, 1).len());
    let (x, y) = (between(&reqs.x_reqs, 1, 0), between(&reqs.y_reqs, 1, 0));
    let s2d = p.validate_s2d(&a).is_ok();
    let detail = format!(
        "s2D: {s2d}; lambda(P3->P2) = {} with n^ = {n}, m^ = {m}; P2 sends x{x:?}, y{y:?} to P1",
        n + m
    );
    (s2d && (n, m) == (2, 1) && x == [5] && y == [2], detail)
}

/// `method.column` → `(Some(method), column)`; a bare column names no
/// method.
fn split_column(s: &str) -> (Option<&str>, &str) {
    match s.rsplit_once('.') {
        Some((label, col)) => (Some(label), col),
        None => (None, s),
    }
}

/// The paper's `12.9%`, or `1.6*` for 160%.
fn fmt_li(li: f64) -> String {
    if li >= 1.0 {
        format!("{li:.1}*")
    } else {
        format!("{:.1}%", li * 100.0)
    }
}

/// A finished reproduction: what was swept, every verdict, and the text
/// rendering of the selected tables.
struct Run {
    scale: String,
    seeds: u64,
    stats: BTreeMap<MatrixKey, MatrixStats>,
    cells: Cells,
    verdicts: Vec<Verdict>,
    text: String,
}

fn run(tables: &[&'static Table], opts: &Opts) -> Run {
    let selections: Vec<Selection> = tables.iter().map(|t| Selection::new(t, opts)).collect();
    let (stats, cells) = sweep(&selections, opts);
    let (mut text, mut verdicts) = (String::new(), Vec::new());
    let scale = format!("{:?}", opts.scale).to_lowercase();
    for sel in &selections {
        let (grid, table) = (Grid { sel, cells: &cells, seeds: opts.seeds }, sel.table);
        let _ = writeln!(
            text,
            "== {}: {} [scale {scale}, seeds {}] ==",
            table.name, table.title, opts.seeds
        );
        match table.view {
            View::Properties => grid.render_properties(&mut text, &stats),
            View::Figure1 => text.push_str(&s2d_core::fig1::render()),
            View::Rows(spec) => grid.render_rows(spec, &mut text),
        }
        if !table.paper.is_empty() {
            text.push_str("paper (for shape comparison):\n");
        }
        for (row, values) in table.paper {
            let _ = writeln!(text, "  {row:<10} {values}");
        }
        if !table.expectations.is_empty() {
            text.push_str("expectations:\n");
        }
        for e in table.expectations {
            let v = grid.judge(e);
            let line = format!("  {:<7} {}  {}", format!("{:?}", v.status), v.id, v.detail);
            let _ = writeln!(text, "{}", line.trim_end());
            verdicts.push(v);
        }
        text.push('\n');
    }
    Run { scale, seeds: opts.seeds, stats, cells, verdicts, text }
}

impl Run {
    /// The run as one JSON document, laid out one matrix, cell or
    /// verdict per line so a moved partition shows up as a line diff.
    /// Fractional columns keep the `PartitionQuality` rounding, so the
    /// file does not churn in the last bits.
    fn to_json(&self) -> Json {
        let matrices = self.stats.iter().map(|((suite, name), s)| {
            Json::obj()
                .set("suite", format!("{suite:?}"))
                .set("name", *name)
                .set("nrows", s.nrows)
                .set("ncols", s.ncols)
                .set("nnz", s.nnz)
                .set("row_davg", Json::fixed(s.row_davg, 3))
                .set("row_dmax", s.row_dmax)
        });
        let cells = self.cells.iter().map(|(((suite, name), (_, seed, _, plan)), c)| {
            Json::obj()
                .set("suite", format!("{suite:?}"))
                .set("matrix", *name)
                .set("seed", *seed)
                .set("priced_as", *plan)
                .set("quality", c.quality.to_json())
                .set("torus_time", Json::fixed(c.torus_time, 9))
                .set("naive_mesh_volume", c.naive_mesh_volume)
                .set("eq3", c.eq3)
        });
        let verdicts = self.verdicts.iter().map(|v| {
            Json::obj()
                .set("table", v.table)
                .set("id", v.id)
                .set("verdict", format!("{:?}", v.status))
                .set("detail", v.detail.as_str())
        });
        Json::obj()
            .set("scale", self.scale.as_str())
            .set("seeds", self.seeds)
            .set("matrices", matrices.collect::<Vec<_>>())
            .set("cells", cells.collect::<Vec<_>>())
            .set("expectations", verdicts.collect::<Vec<_>>())
    }
}

/// `s2d reproduce [<table>|all] …` — see the CLI help.
pub(crate) fn cmd_reproduce(args: &Args) {
    let which = args.positional.get(1).map_or("all", String::as_str);
    let tables: Vec<&'static Table> = match TABLES.iter().find(|t| t.name == which) {
        Some(table) => vec![table],
        None if which == "all" => TABLES.iter().collect(),
        None => {
            let names: Vec<_> = TABLES.iter().map(|t| t.name).collect();
            fail(format!("unknown table {which:?} (all|{})", names.join("|")))
        }
    };
    let opts = Opts {
        scale: args.get_or("scale", "small").parse().unwrap_or_else(|e: String| fail(e)),
        seeds: args.parse_or("seeds", 1u64).max(1),
        k: args.get("k").map(|_| args.parse_or("k", 0usize)),
        suites: args.get("suite").map(|s| match s {
            "a" => vec![Suite::A],
            "b" => vec![Suite::B],
            "both" => vec![Suite::A, Suite::B],
            other => fail(format!("unknown suite {other:?} (a|b|both)")),
        }),
        method: args.get("method").map(|m| {
            let builds = TABLES.iter().flat_map(|t| t.methods.split_whitespace().map(parse_method));
            if !builds.into_iter().any(|known| known.build == m) {
                fail(format!("no table has a method {m:?}"));
            }
            m.to_string()
        }),
    };
    let old = args.get("against").map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
        Json::parse(&text).unwrap_or_else(|e| fail(format!("{path} is not JSON: {e}")))
    });
    let run = run(&tables, &opts);
    print!("{}", run.text);
    if let Some(path) = args.get("json") {
        write_artifact(path, run.to_json(), 2);
        println!("wrote {} cells and {} verdicts to {path}", run.cells.len(), run.verdicts.len());
    }
    if let Some(old) = old {
        let selections: Vec<Selection> = tables.iter().map(|t| Selection::new(t, &opts)).collect();
        let report = against::against(&run.to_json(), &old, &selections, opts.seeds);
        let path = args.get_or("against", "");
        print!("== against {path} ==\n{}", report.unwrap_or_else(|e| fail(format!("{path}: {e}"))));
    }
    let failed: Vec<&Verdict> = run.verdicts.iter().filter(|v| v.status == Status::Fail).collect();
    if args.has("check") && !failed.is_empty() {
        for v in &failed {
            eprintln!("expectation {} of {} failed at {}", v.id, v.table, v.detail);
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Opts {
        Opts { scale: Scale::Tiny, seeds: 1, k: None, suites: None, method: None }
    }

    fn table(name: &str) -> &'static Table {
        TABLES.iter().find(|t| t.name == name).unwrap_or_else(|| panic!("no table {name}"))
    }

    #[test]
    fn every_legacy_bench_name_resolves_to_a_table() {
        let benches = "table1 table2 table3 table4 table5 table6 table7 figure1 partitioners \
                       ablation_alternatives ablation_fusion ablation_machine ablation_mesh \
                       ablation_wlim";
        assert_eq!(benches.split_whitespace().map(table).count(), TABLES.len());
    }

    /// With every needed cell present, a row that prints `-` or an
    /// expectation that is skipped names a method or column that does
    /// not exist. One real cell stands in for all of them.
    #[test]
    fn specs_name_only_their_tables_methods_and_known_columns() {
        let fig1 = (Suite::A, "fig1");
        let mut probe = Cells::new();
        let needs = BTreeSet::from([(3, 1, "1d", "mesh")]);
        sweep_matrix(&fig1_matrix(), &[(fig1, needs)], &mut probe);
        let probe = probe.pop_first().expect("one cell").1;
        for t in &TABLES {
            let sel = Selection::new(t, &tiny());
            for m in &sel.methods {
                let strategy = m.build.split_once('@').map_or(m.build, |(alg, _)| alg);
                assert!(strategy.parse::<Strategy>().is_ok(), "{}: {}", t.name, m.build);
                assert!(m.plan == "auto" || m.plan.parse::<PlanKind>().is_ok(), "{}", m.plan);
            }
            let mut cells = Cells::new();
            for (key, (_, needs)) in needs_of(std::slice::from_ref(&sel), 1) {
                cells.extend(needs.into_iter().map(|need| ((key, need), probe.clone())));
            }
            let grid = Grid { sel: &sel, cells: &cells, seeds: 1 };
            if let View::Rows(spec) = t.view {
                let mut text = String::new();
                grid.render_rows(spec, &mut text);
                assert!(!text.split_whitespace().any(|word| word == "-"), "{}:\n{text}", t.name);
            }
            for e in t.expectations {
                assert_ne!(grid.judge(e).status, Status::Skipped, "{}", e.id);
            }
        }
        let mut ids: Vec<_> = TABLES.iter().flat_map(|t| t.expectations).map(|e| e.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "expectation ids are unique");
        // `partitioners` is the strategy sweep: a new variant must show up.
        let all: Vec<String> = Strategy::all().iter().map(|s| s.to_string()).collect();
        assert_eq!(table("partitioners").methods, all.join(" "));
    }

    #[test]
    fn unpartitioned_tables_render_and_check() {
        let run = run(&[table("table1"), table("table4"), table("figure1")], &tiny());
        assert!(run.cells.is_empty());
        assert_eq!(run.stats.len(), 16);
        for want in ["crystk02", "rmat_20", "r10 |"] {
            assert!(run.text.contains(want), "missing {want:?} in\n{}", run.text);
        }
        let [caption] = &run.verdicts[..] else { panic!("one expectation") };
        assert_eq!((caption.status, caption.id), (Status::Pass, "fig1.caption-facts"));
        assert!(caption.detail.contains("lambda(P3->P2) = 3 with n^ = 2, m^ = 1"));
        assert!(caption.detail.contains("P2 sends x[5], y[2] to P1"), "{}", caption.detail);
        let text = crate::commands::versioned(run.to_json()).to_lines(2);
        let json = Json::parse(&text).expect("valid JSON");
        let Json::Obj(fields) = &json else { panic!("an object") };
        let head: Vec<_> = fields.iter().take(3).map(|(k, v)| (k.as_str(), v.clone())).collect();
        assert_eq!(
            head,
            [("schema_version", 1u64.into()), ("scale", "tiny".into()), ("seeds", 1u64.into())]
        );
        let verdicts = json.get("expectations").and_then(Json::as_arr).expect("verdicts");
        let [v] = verdicts else { panic!("one verdict") };
        assert_eq!(v.get("id").and_then(Json::as_str), Some("fig1.caption-facts"));
        assert_eq!(v.get("verdict").and_then(Json::as_str), Some("Pass"));
        // One verdict per line.
        assert!(text.lines().any(|l| l.contains("\"fig1.caption-facts\"") && l.ends_with('}')));
    }

    /// Fused messages never outnumber unfused ones, so this is false.
    static FALSE: Expectation = Expectation {
        id: "test.unfused-sends-fewer-messages",
        scope: Scope::Cell(&[]),
        check: Check::Rels("unfused.msgs < s2D.msgs"),
    };

    #[test]
    fn one_matrix_runs_end_to_end_and_a_false_expectation_fails_by_id() {
        let fusion = table("ablation_fusion");
        let spec = suite_a().into_iter().find(|s| s.name == "turon_m").expect("in suite A");
        let matrices = vec![(Suite::A, spec)];
        let sel = Selection { matrices, ks: vec![16], ..Selection::new(fusion, &tiny()) };
        let (stats, cells) = sweep(std::slice::from_ref(&sel), &tiny());
        assert_eq!((stats.len(), cells.len()), (1, 2));

        let a = spec.generate(Scale::Tiny, 1);
        let p = "s2d".parse::<Strategy>().expect("a strategy").partition(&a, 16);
        for (plan, kind) in [("single", PlanKind::SinglePhase), ("two", PlanKind::TwoPhase)] {
            let cell = &cells[&((Suite::A, "turon_m"), (16, 1, "s2d", plan))];
            let direct = PartitionQuality::measure_with(&a, &p, kind, "s2d");
            assert_eq!(cell.quality.to_json(), direct.to_json());
            assert_eq!(cell.eq3, (plan == "single").then_some(true));
        }

        let grid = Grid { sel: &sel, cells: &cells, seeds: 1 };
        for e in fusion.expectations {
            assert_eq!(grid.judge(e).status, Status::Pass, "{}", e.id);
        }
        let v = grid.judge(&FALSE);
        assert_eq!((v.status, v.id), (Status::Fail, FALSE.id));
        assert!(v.detail.starts_with("A/turon_m K=16 seed=1: "), "{}", v.detail);
        // Filtering a method out skips what reads it instead of failing.
        let only_fused = Selection { methods: vec![sel.methods[0]], ..sel };
        let grid = Grid { sel: &only_fused, cells: &cells, seeds: 1 };
        assert_eq!(grid.judge(&FALSE).status, Status::Skipped);
    }

    #[test]
    fn geomean_basics() {
        let some = |v: &[f64]| v.iter().copied().map(Some).collect::<Vec<_>>().into_iter();
        assert!((geomean(some(&[4.0, 9.0]), 0.0).unwrap() - 6.0).abs() < 1e-9);
        assert!((geomean(some(&[0.0, 3.0]), 1.0).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(geomean(some(&[]), 0.0), None);
        assert_eq!(geomean([Some(1.0), None].into_iter(), 0.0), None);
    }

    #[test]
    fn li_formatting_follows_paper_convention() {
        assert_eq!(fmt_li(0.129), "12.9%");
        assert_eq!(fmt_li(1.6), "1.6*");
        assert_eq!(fmt_li(0.0), "0.0%");
    }
}
