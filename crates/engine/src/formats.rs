//! Pluggable kernel storage formats for compiled compute phases.
//!
//! PR 1 lowered every compute phase to one hard-coded CSR-slice loop.
//! But the semi-2D partitions this workspace exists to study produce
//! ranks with very *different* row-length profiles: a rank that
//! inherited a split dense row sees a handful of huge rows with long
//! contiguous column runs, while a rank holding a regular sparse slice
//! sees thousands of short irregular rows. One loop shape cannot be the
//! right machine code for both — which is the OSKI lesson: formats only
//! win when something *picks* them per matrix (here: per rank, per
//! phase).
//!
//! Three executable formats live behind the [`Kernel`] enum:
//!
//! * [`CsrKernel`] ([`KernelFormat::CsrSlice`]) — the PR 1 run-length
//!   grouped CSR slice, bitwise-preserved: it is the reference the
//!   other formats are held to.
//! * [`SellKernel`] ([`KernelFormat::Sell`]) — SELL-C-σ at the one
//!   measured setting, C = 2 and σ = 256: rows sorted by length inside
//!   windows of σ, packed into chunks of C lanes, values stored
//!   entry-major inside a chunk and padded to the chunk's widest row.
//!   The one loop shape advances all C lanes in lockstep through a
//!   uniform trip count with the `C × r` accumulator block in
//!   registers — the shape for short irregular rows, where the CSR
//!   slice pays per-row loop-control overhead.
//! * [`DenseSplitKernel`] ([`KernelFormat::DenseRowSplit`]) — for the
//!   heavy split rows semi-2D produces: maximal runs of *consecutive*
//!   (global) columns become dense spans (`y[i] += vals·x[c0..c0+len]`
//!   with no index loads at all), the rest stays indexed: the shape of
//!   a split dense row's share on a rank that got a contiguous column
//!   range.
//!
//! [`KernelFormat::Auto`] picks per kernel from row-length statistics
//! ([`KernelStats`]) gathered at compile time.
//!
//! Every format, and the statistics, are built from one input: the
//! segment table the compiler's walk leaves over one rank's task list
//! (`TaskSegments`). There is no other way in — a kernel exists only as
//! part of a compiled plan.
//!
//! # Bitwise contract
//!
//! Every format preserves the CSR slice's *per-row entry order* and
//! accumulates each row through a single accumulator chain, so for
//! finite inputs all formats produce bitwise-identical results:
//!
//! * `DenseRowSplit` executes the exact CSR operation sequence — only
//!   the column indices are implicit in dense spans.
//! * `SELL-C-σ` reorders *rows* (whose `y` slots are disjoint) but
//!   never the entries within a row; padding lanes append `acc += 0.0
//!   · x[c]` terms, which leave a finite accumulator bit-identical
//!   (partial sums are never `-0.0`: they start at `+0.0` and IEEE-754
//!   addition of `±0.0` to `+0.0` stays `+0.0`). A kernel whose task
//!   list interleaved the same row into several segments falls back to
//!   the CSR slice — reordering same-row segments would regroup the
//!   accumulation.
//!
//! Non-finite inputs (±∞, NaN) void the bitwise guarantee for padded
//! SELL lanes (`0.0 · ∞ = NaN`); the conformance suite pins the
//! guarantee for finite data.
//!
//! # SIMD ([`KernelIsa`])
//!
//! Each format has one fixed-width body per batch width `R`. For
//! `r ∈ {4, 8}` on x86-64 the one width dispatcher (`run`) can
//! take the same body compiled under
//! `#[target_feature(enable = "avx2")]` instead. [`KernelIsa`] is a
//! two-valued axis resolved at lowering time: `auto` takes the AVX2
//! build when a runtime `is_x86_feature_detected!` probe finds AVX2,
//! `scalar` never does. The compiler maps the vector lanes to the
//! *batch* dimension — lane `q` of a 4-wide register is right-hand side
//! `q` — so each lane is an independent accumulator chain running the
//! source's `mul` then `add`. No FMA is enabled and nothing is
//! reassociated, so the AVX2 results are **bitwise identical** to the
//! scalar build of the same source, and the differential suite pins
//! that with exact equality.

use s2d_spmv::MultTask;

/// Lane sentinel in [`SellKernel`]: this lane of the chunk is pure
/// padding, its accumulator is discarded. Also the "no dense run" marker
/// in [`DenseSplitKernel`] span descriptors.
pub const NO_LANE: u32 = u32::MAX;

/// SELL chunk height (lanes per chunk). Two is the largest height whose
/// `C × r` accumulator block stays in registers at every specialized
/// batch width (r ≤ 8): measured across R-MAT / power-law / FEM /
/// ultra-sparse shapes it matched taller chunks at r = 1 and was the
/// only height that beat the CSR slice at r = 8.
const SELL_C: usize = 2;

/// SELL sorting window in rows: row order is disturbed by at most this
/// many positions.
pub(crate) const SELL_SIGMA: usize = 256;

/// Minimum consecutive-column run length that becomes a dense span in
/// [`DenseSplitKernel`] (shorter runs stay indexed — the span descriptor
/// would cost more than the index loads it saves).
pub const DENSE_MIN_RUN: usize = 8;

/// Selects the storage format compute kernels are lowered to.
///
/// The format is compiled into the buffer layout itself (chunk packing,
/// padding, span tables), so it is chosen at
/// [`CompiledPlan::compile_with_isa`](crate::CompiledPlan::compile_with_isa)
/// time — not flipped at execution time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelFormat {
    /// Run-length grouped CSR slice (PR 1's kernel, bitwise-preserved).
    CsrSlice,
    /// SELL-C-σ with C = 2, σ = 256: σ-windowed row sort, C-lane
    /// chunks, padded entry-major storage.
    Sell,
    /// Dense-span split: consecutive-column runs execute as dense dot
    /// products, the remainder as indexed entries.
    DenseRowSplit,
    /// Per-kernel selection from compile-time [`KernelStats`].
    Auto,
}

impl KernelFormat {
    /// Alias of [`KernelFormat::Sell`]: the name the committed
    /// benchmark (`benchmark/`) spells it by.
    pub const DEFAULT_SELL: KernelFormat = KernelFormat::Sell;

    /// Every format — the sweep set for conformance, differential and
    /// benchmark runs.
    pub fn all() -> [KernelFormat; 4] {
        [
            KernelFormat::CsrSlice,
            KernelFormat::Sell,
            KernelFormat::DenseRowSplit,
            KernelFormat::Auto,
        ]
    }

    /// Short stable label (bench ids, CLI output, test diagnostics).
    pub fn label(&self) -> &'static str {
        match self {
            KernelFormat::CsrSlice => "csr",
            KernelFormat::Sell => "sell",
            KernelFormat::DenseRowSplit => "dense-split",
            KernelFormat::Auto => "auto",
        }
    }
}

impl std::str::FromStr for KernelFormat {
    type Err = String;

    /// Parses the CLI spelling: `csr`, `sell`, `dense-split` (alias
    /// `dense`), `auto`.
    fn from_str(s: &str) -> Result<KernelFormat, String> {
        match s {
            "csr" => Ok(KernelFormat::CsrSlice),
            "sell" => Ok(KernelFormat::Sell),
            "dense-split" | "dense" => Ok(KernelFormat::DenseRowSplit),
            "auto" => Ok(KernelFormat::Auto),
            other => Err(format!("unknown kernel format {other:?} (csr|sell|dense-split|auto)")),
        }
    }
}

impl std::fmt::Display for KernelFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether the fixed-width batch loops may run compiled for AVX2: yes
/// where the CPU has it (`Auto`), or never (`Scalar`).
///
/// Like [`KernelFormat`], the choice is baked in at
/// [`CompiledPlan::compile_with_isa`](crate::CompiledPlan::compile_with_isa)
/// time: each lowered kernel stores a resolved "use SIMD" flag, so the
/// hot dispatch is one branch, not a per-call feature probe. `Auto` is
/// safe as the default because the vector paths are bitwise identical
/// to scalar (see the module docs); `Scalar` pins the portable
/// reference loops for differential testing and for timing the two
/// against each other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelIsa {
    /// Use AVX2 when the running CPU supports it, scalar otherwise.
    #[default]
    Auto,
    /// Portable scalar loops only — the bitwise reference.
    Scalar,
}

impl KernelIsa {
    /// Short stable label (bench ids, CLI output, cache files).
    pub fn label(&self) -> &'static str {
        match self {
            KernelIsa::Auto => "auto",
            KernelIsa::Scalar => "scalar",
        }
    }

    /// True when the running CPU can execute the AVX2 kernels.
    pub fn avx2_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Resolves the knob against the running CPU: should lowered
    /// kernels take the AVX2 batch paths?
    pub fn simd(self) -> bool {
        match self {
            KernelIsa::Scalar => false,
            KernelIsa::Auto => KernelIsa::avx2_available(),
        }
    }
}

impl std::str::FromStr for KernelIsa {
    type Err = String;

    fn from_str(s: &str) -> Result<KernelIsa, String> {
        match s {
            "auto" => Ok(KernelIsa::Auto),
            "scalar" => Ok(KernelIsa::Scalar),
            other => Err(format!("unknown kernel isa {other:?} (auto|scalar)")),
        }
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Row-length statistics of one kernel — the evidence
/// [`KernelFormat::Auto`] decides from. The compiler gathers them once
/// per kernel from its segment table and task list, before the kernel
/// is built in any format.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Row segments in the kernel.
    pub rows: usize,
    /// Real multiply-adds (excludes any format padding).
    pub ops: usize,
    /// Longest row segment.
    pub max_row: usize,
    /// Mean row segment length.
    pub mean_row: f64,
    /// Fraction of entries inside consecutive-column runs of at least
    /// [`DENSE_MIN_RUN`] — the share a dense-span kernel executes
    /// without index loads.
    pub dense_frac: f64,
    /// Stored entries (incl. padding) per real entry if lowered to
    /// [`KernelFormat::Sell`]; 1.0 is padding-free.
    pub sell_fill: f64,
}

impl KernelStats {
    /// The statistics of kernel `k`, whose SELL lowering stores
    /// `padded` entries.
    fn gather(k: &TaskSegments, padded: usize) -> KernelStats {
        let rows = k.slots.len();
        if rows == 0 {
            return KernelStats::default();
        }
        let ops = k.bounds[rows] as usize;
        let max_row = k.bounds.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0);
        KernelStats {
            rows,
            ops,
            max_row,
            mean_row: ops as f64 / rows as f64,
            dense_frac: k.dense.entries as f64 / ops as f64,
            sell_fill: padded as f64 / ops.max(1) as f64,
        }
    }
}

/// A kernel on its way to a storage format, as the compiler's walk
/// leaves it: a segment table over one rank's task list. Segment `s`
/// covers tasks `bounds[s]..bounds[s + 1]` and accumulates into local
/// slot `slots[s]`. [`Kernel::lower`] builds every format from it.
pub(crate) struct TaskSegments<'t> {
    tasks: &'t [MultTask],
    /// Segment boundaries into `tasks` (`segments + 1` of them).
    bounds: Vec<u32>,
    /// Local `y` slot per segment.
    slots: Vec<u32>,
    /// Some slot heads more than one segment.
    repeats: bool,
    /// Consecutive-column runs, counted segment by segment.
    dense: DenseRuns,
}

impl<'t> TaskSegments<'t> {
    /// The table of no segments yet over `tasks`.
    pub(crate) fn new(tasks: &'t [MultTask]) -> TaskSegments<'t> {
        TaskSegments {
            tasks,
            bounds: vec![0],
            slots: Vec::new(),
            repeats: false,
            dense: DenseRuns::default(),
        }
    }

    /// Appends the segment over the next `run` of tasks, accumulating
    /// into `slot`; `repeat` says an earlier segment heads `slot` too.
    pub(crate) fn push(&mut self, run: &[MultTask], slot: u32, repeat: bool) {
        self.dense.segment(run.iter().map(|t| t.col));
        self.repeats |= repeat;
        self.slots.push(slot);
        let end = self.bounds[self.bounds.len() - 1] as usize + run.len();
        self.bounds.push(end as u32);
    }

    /// The kernel as a CSR slice, every array at its final size.
    fn into_csr(mut self) -> CsrKernel {
        self.bounds.shrink_to_fit();
        self.slots.shrink_to_fit();
        CsrKernel {
            cols: self.tasks.iter().map(|t| t.col).collect(),
            vals: self.tasks.iter().map(|t| t.val).collect(),
            row_ptr: self.bounds,
            rows: self.slots,
            simd: false,
        }
    }
}

/// Counts the entries that lie in maximal consecutive-column runs of at
/// least [`DENSE_MIN_RUN`], fed one segment at a time — the share a
/// dense-span kernel executes without index loads.
#[derive(Default)]
struct DenseRuns {
    /// Entries counted so far.
    entries: usize,
}

impl DenseRuns {
    /// Counts one segment's entries, given its columns in order.
    fn segment(&mut self, cols: impl IntoIterator<Item = u32>) {
        let mut cols = cols.into_iter();
        let Some(mut prev) = cols.next() else { return };
        let mut run = 1;
        for col in cols {
            if col == prev + 1 {
                run += 1;
            } else {
                self.close(run);
                run = 1;
            }
            prev = col;
        }
        self.close(run);
    }

    fn close(&mut self, run: usize) {
        if run >= DENSE_MIN_RUN {
            self.entries += run;
        }
    }
}

/// Where a kernel's segments go in its SELL lowering, computed once per
/// kernel and shared by the statistics and the packer.
struct SellLayout {
    /// Segment order after the σ-windowed descending length sort
    /// (stable: equal-length segments keep their relative order).
    order: Vec<u32>,
    /// Stored entries, real plus padding: over chunks, `C ×` the
    /// chunk's widest segment.
    padded: usize,
}

impl SellLayout {
    fn of(bounds: &[u32]) -> SellLayout {
        let len = |s: usize| bounds[s + 1] - bounds[s];
        let nseg = bounds.len().saturating_sub(1);
        let mut order = Vec::with_capacity(nseg);
        // Sorting `(!len, s)` ascending is the stable descending sort
        // by length: ties keep ascending `s`.
        let mut keys = Vec::with_capacity(SELL_SIGMA.min(nseg));
        for lo in (0..nseg).step_by(SELL_SIGMA) {
            keys.clear();
            keys.extend(
                (lo..nseg.min(lo + SELL_SIGMA)).map(|s| (u64::from(!len(s)) << 32) | s as u64),
            );
            keys.sort_unstable();
            order.extend(keys.iter().map(|&key| key as u32));
        }
        let padded = order
            .chunks(SELL_C)
            .map(|chunk| chunk.iter().map(|&s| len(s as usize) as usize).max().unwrap_or(0))
            .sum::<usize>()
            * SELL_C;
        SellLayout { order, padded }
    }
}

/// Picks a concrete format for one kernel from its statistics.
///
/// The policy, in order:
/// 1. kernels dominated by consecutive-column runs (≥ 50 % of entries —
///    the split-dense-row shape, however few rows carry it) take dense
///    spans;
/// 2. kernels with enough short irregular rows and acceptable padding
///    (≤ 25 % fill overhead after the σ-sort) take SELL — the row
///    floor applies here only: a handful of rows cannot amortize the
///    chunk machinery;
/// 3. everything else (including empty/trivial kernels) stays CSR.
pub(crate) fn auto_pick(st: &KernelStats) -> KernelFormat {
    if st.ops == 0 {
        return KernelFormat::CsrSlice;
    }
    if st.dense_frac >= 0.5 {
        return KernelFormat::DenseRowSplit;
    }
    if st.rows >= 4 * 8 && st.sell_fill <= 1.25 {
        return KernelFormat::Sell;
    }
    KernelFormat::CsrSlice
}

/// A compute phase lowered to one of the pluggable storage formats.
///
/// All variants run the same arithmetic (see the module docs for the
/// bitwise contract); they differ in the memory layout the inner loop
/// walks. [`Kernel::ops`] is **format-invariant**: it counts the real
/// multiply-adds of the lowered task list, never format padding — so
/// `CompiledPlan::total_ops` equals the plan's op count whatever the
/// format.
#[derive(Clone, Debug)]
pub enum Kernel {
    /// Run-length grouped CSR slice.
    Csr(CsrKernel),
    /// SELL-C-σ sorted chunks.
    Sell(SellKernel),
    /// Dense-span / indexed split.
    DenseSplit(DenseSplitKernel),
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel::Csr(CsrKernel::default())
    }
}

impl Kernel {
    /// The one lowering: builds kernel `k` straight into `format`, every
    /// array at its final size. [`KernelFormat::Auto`] gathers the
    /// [`KernelStats`] and the SELL layout once, picks from the stats
    /// and hands the layout to the packer; the stats are returned for
    /// an `Auto` lowering only. Falls back to the CSR slice where a
    /// format cannot represent the kernel faithfully (SELL with a
    /// repeated slot). `isa` is resolved against the running CPU once,
    /// here, and the verdict is stored in the lowered kernel.
    pub(crate) fn lower(
        k: TaskSegments,
        format: KernelFormat,
        isa: KernelIsa,
    ) -> (Kernel, Option<KernelStats>) {
        let (format, layout, stats) = match format {
            KernelFormat::Auto => {
                let layout = SellLayout::of(&k.bounds);
                let stats = KernelStats::gather(&k, layout.padded);
                (auto_pick(&stats), Some(layout), Some(stats))
            }
            fixed => (fixed, None, None),
        };
        let mut kernel = match format {
            KernelFormat::Sell if !k.repeats => {
                let layout = layout.unwrap_or_else(|| SellLayout::of(&k.bounds));
                Kernel::Sell(SellKernel::pack(&k, &layout))
            }
            KernelFormat::CsrSlice | KernelFormat::Sell => Kernel::Csr(k.into_csr()),
            KernelFormat::DenseRowSplit => {
                Kernel::DenseSplit(DenseSplitKernel::split(k.into_csr()))
            }
            KernelFormat::Auto => unreachable!("resolved above"),
        };
        kernel.set_simd(isa.simd());
        (kernel, stats)
    }

    /// Sets the resolved "use the AVX2 batch paths" flag.
    pub(crate) fn set_simd(&mut self, simd: bool) {
        match self {
            Kernel::Csr(k) => k.simd = simd,
            Kernel::Sell(k) => k.simd = simd,
            Kernel::DenseSplit(k) => k.simd = simd,
        }
    }

    /// Number of real multiply-adds (format-invariant; padding entries
    /// in SELL chunks are not counted).
    pub fn ops(&self) -> usize {
        match self {
            Kernel::Csr(k) => k.ops(),
            Kernel::Sell(k) => k.ops,
            Kernel::DenseSplit(k) => k.vals.len(),
        }
    }

    /// Runs the kernel over row-major multi-vector blocks (`x` the home
    /// space, `y` the rank's block): index `s` of an `r`-wide batch
    /// occupies `buf[s*r .. (s+1)*r]`, one word per right-hand side.
    /// `r ∈ {1, 2, 4, 8}` dispatch to fixed-width specializations;
    /// other widths take a strided fallback.
    #[inline]
    pub fn run_batch(&self, x: &[f64], y: &mut [f64], r: usize) {
        match self {
            Kernel::Csr(k) => k.run(x, y, r),
            Kernel::Sell(k) => k.run(x, y, r),
            Kernel::DenseSplit(k) => k.run(x, y, r),
        }
    }

    /// Stored multiply-adds, SELL padding included — the work the
    /// hardware executes, and the weight the worker pool balances rank
    /// ownership by.
    pub(crate) fn stored_ops(&self) -> usize {
        match self {
            Kernel::Csr(k) => k.vals.len(),
            Kernel::Sell(k) => k.vals.len(),
            Kernel::DenseSplit(k) => k.vals.len(),
        }
    }

    /// Checks the structural invariants execution relies on against the
    /// footprint it runs over (an `x` home space of `nx` columns, a `y`
    /// block of `ny` slots). Used by the worker pool, whose
    /// shared-buffer execution must reject hand-built plans before any
    /// thread runs.
    pub fn validate(&self, nx: usize, ny: usize) -> Result<(), String> {
        match self {
            Kernel::Csr(k) => k.validate(nx, ny),
            Kernel::Sell(k) => k.validate(nx, ny),
            Kernel::DenseSplit(k) => k.validate(nx, ny),
        }
    }
}

/// The bodies of one storage format; [`BatchBodies::run`] is the one
/// width dispatcher over them. A body runs the whole kernel, in unit
/// (row segment or SELL chunk) order, over the rank's `y` block.
trait BatchBodies: Sized {
    /// The resolved "take the AVX2 build" flag.
    fn simd(&self) -> bool;
    /// The fixed-width body: `R` accumulators per row in registers.
    fn run_fixed<const R: usize>(&self, x: &[f64], y: &mut [f64]);
    /// The strided fallback for widths without a specialization.
    fn run_dyn(&self, x: &[f64], y: &mut [f64], r: usize);

    /// Runs the kernel over `r`-wide row-major blocks.
    #[inline]
    fn run(&self, x: &[f64], y: &mut [f64], r: usize) {
        match r {
            1 => self.run_fixed::<1>(x, y),
            2 => self.run_fixed::<2>(x, y),
            // SAFETY: every kernel's `simd` flag is private to this
            // module and only set from `KernelIsa::simd`, which requires
            // a positive AVX2 feature probe on the running CPU.
            #[cfg(target_arch = "x86_64")]
            4 | 8 if self.simd() => unsafe { fixed_avx2(self, x, y, r) },
            4 => self.run_fixed::<4>(x, y),
            8 => self.run_fixed::<8>(x, y),
            _ => self.run_dyn(x, y, r),
        }
    }
}

/// [`BatchBodies::run_fixed`] at `r ∈ {4, 8}` compiled with AVX2 enabled:
/// the same source as the scalar build, its vector lanes the right-hand
/// sides, each with its own `mul`-then-`add` chain (no FMA, nothing
/// reassociated), so the results are bitwise identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fixed_avx2<K: BatchBodies>(k: &K, x: &[f64], y: &mut [f64], r: usize) {
    if r == 4 {
        k.run_fixed::<4>(x, y)
    } else {
        k.run_fixed::<8>(x, y)
    }
}

/// `acc[q] += v · x[col + q]` per lane. Wider than one lane, `x` is
/// read through one `R`-word slice, so one bounds check covers the
/// entry and the lane loop vectorizes. `R = 1` keeps the direct index
/// (faster there), and `#[track_caller]` keeps one panic location per
/// call site, so that code matches the loops that indexed `x` themselves.
#[inline(always)]
#[track_caller]
fn madd<const R: usize>(acc: &mut [f64; R], v: f64, x: &[f64], col: usize) {
    if R == 1 {
        acc[0] += v * x[col];
    } else {
        for (a, &xq) in acc.iter_mut().zip(&x[col..col + R]) {
            *a += v * xq;
        }
    }
}

/// A compute phase lowered to a CSR slice: home columns, local rows.
///
/// `rows` holds run-length grouped local `y` slots: segment `s` of
/// `cols`/`vals` (bounded by `row_ptr[s]..row_ptr[s + 1]`) accumulates
/// into `rows[s]`. A row may appear in several segments if the original
/// task list interleaved rows — grouping is order-preserving, so
/// floating-point accumulation order matches the mailbox executor
/// bit for bit.
#[derive(Clone, Debug, Default)]
pub struct CsrKernel {
    /// Segment boundaries into `cols` / `vals` (`rows.len() + 1` entries).
    pub row_ptr: Vec<u32>,
    /// Local `y` slot per segment.
    pub rows: Vec<u32>,
    /// `x` home (global column) per multiply-add.
    pub cols: Vec<u32>,
    /// Matrix value per multiply-add.
    pub vals: Vec<f64>,
    /// Take the AVX2 batch paths (resolved from [`KernelIsa`] at
    /// lowering; bitwise-equivalent either way). Private to this
    /// module: the AVX2 dispatch's safety rests on it.
    simd: bool,
}

impl CsrKernel {
    /// Number of multiply-adds in the kernel.
    pub fn ops(&self) -> usize {
        self.vals.len()
    }

    /// The r = 1 loop over the segments.
    #[inline]
    fn run_r1(&self, x: &[f64], y: &mut [f64]) {
        // Dedicated scalar loop: semantically the r = 1 specialization
        // of `run_fixed` (identical accumulation order, bit for bit),
        // but written with scalar loads/stores — the array-of-one
        // shape costs measurable throughput on the hot path.
        for s in 0..self.rows.len() {
            let elo = self.row_ptr[s] as usize;
            let ehi = self.row_ptr[s + 1] as usize;
            let out = &mut y[self.rows[s] as usize];
            let mut acc = *out;
            for e in elo..ehi {
                acc += self.vals[e] * x[self.cols[e] as usize];
            }
            *out = acc;
        }
    }

    fn validate(&self, nx: usize, ny: usize) -> Result<(), String> {
        if self.row_ptr.len() != self.rows.len() + 1 {
            return Err("malformed kernel row_ptr".into());
        }
        if self.cols.len() != self.vals.len() {
            return Err("malformed kernel arrays".into());
        }
        if !(self.rows.iter().all(|&s| (s as usize) < ny)
            && self.cols.iter().all(|&s| (s as usize) < nx))
        {
            return Err("kernel slot out of range".into());
        }
        Ok(())
    }
}

impl BatchBodies for CsrKernel {
    fn simd(&self) -> bool {
        self.simd
    }

    /// Fixed-width inner loop: `R` accumulators live in registers
    /// (`r = 1` takes the dedicated `run_r1`).
    #[inline(always)]
    fn run_fixed<const R: usize>(&self, x: &[f64], y: &mut [f64]) {
        if R == 1 {
            return self.run_r1(x, y);
        }
        for s in 0..self.rows.len() {
            let elo = self.row_ptr[s] as usize;
            let ehi = self.row_ptr[s + 1] as usize;
            let at = self.rows[s] as usize * R;
            let row = &mut y[at..at + R];
            let mut acc = [0.0f64; R];
            acc.copy_from_slice(row);
            for e in elo..ehi {
                madd(&mut acc, self.vals[e], x, self.cols[e] as usize * R);
            }
            row.copy_from_slice(&acc);
        }
    }

    /// Generic strided fallback for widths without a specialization.
    fn run_dyn(&self, x: &[f64], y: &mut [f64], r: usize) {
        for s in 0..self.rows.len() {
            let elo = self.row_ptr[s] as usize;
            let ehi = self.row_ptr[s + 1] as usize;
            let at = self.rows[s] as usize * r;
            let row = &mut y[at..at + r];
            for e in elo..ehi {
                let v = self.vals[e];
                let col = self.cols[e] as usize * r;
                for q in 0..r {
                    row[q] += v * x[col + q];
                }
            }
        }
    }
}

/// SELL-C-σ storage (C = 2, σ = 256): segments sorted by descending
/// length inside σ-row windows, packed into chunks of C lanes. Within a
/// chunk, entry `e` of lane `l` lives at `chunk_ptr[ch] + e·C + l` —
/// entry-major, so the inner loop advances C accumulators with one
/// uniform trip count (the chunk's widest row). Shorter lanes are
/// padded with `val = 0.0` repeating the lane's last column (column 0
/// for an empty lane); whole padding lanes carry [`NO_LANE`] and their
/// accumulator is discarded.
#[derive(Clone, Debug)]
pub struct SellKernel {
    /// Entry offsets per chunk (`nchunks + 1`, multiples of C apart).
    pub(crate) chunk_ptr: Vec<u32>,
    /// Local `y` slot per lane (`nchunks × C`; [`NO_LANE`] = padding).
    pub(crate) rows: Vec<u32>,
    /// `x` home per stored entry (incl. padding entries).
    pub(crate) cols: Vec<u32>,
    /// Value per stored entry (0.0 on padding entries).
    pub(crate) vals: Vec<f64>,
    /// Real multiply-adds (excludes padding).
    pub(crate) ops: usize,
    /// Take the AVX2 batch paths (resolved from [`KernelIsa`] at
    /// lowering; bitwise-equivalent either way). Private to this
    /// module: the AVX2 dispatch's safety rests on it.
    simd: bool,
}

impl SellKernel {
    /// Packs kernel `k` along `layout`, entry by entry into arrays
    /// allocated at their final size. `k` must not repeat a slot:
    /// reordering same-row segments would regroup the accumulation,
    /// breaking the bitwise contract.
    fn pack(k: &TaskSegments, layout: &SellLayout) -> SellKernel {
        let (bounds, slots) = (&k.bounds, &k.slots);
        let nchunks = layout.order.len().div_ceil(SELL_C);
        let mut chunk_ptr = Vec::with_capacity(nchunks + 1);
        chunk_ptr.push(0u32);
        let mut rows = Vec::with_capacity(nchunks * SELL_C);
        let mut cols = Vec::with_capacity(layout.padded);
        let mut vals = Vec::with_capacity(layout.padded);
        for chunk in layout.order.chunks(SELL_C) {
            // Per lane: first entry and length. Whole padding lanes
            // carry [`NO_LANE`] and no entries; their accumulator is
            // discarded.
            let mut lanes = [(0usize, 0usize); SELL_C];
            for (lane, &s) in lanes.iter_mut().zip(chunk) {
                let (lo, hi) = (bounds[s as usize] as usize, bounds[s as usize + 1] as usize);
                *lane = (lo, hi - lo);
                rows.push(slots[s as usize]);
            }
            rows.resize(rows.len() + (SELL_C - chunk.len()), NO_LANE);
            let widest = lanes.iter().map(|&(_, len)| len).max().unwrap_or(0);
            for e in 0..widest {
                for &(lo, len) in &lanes {
                    if len == 0 {
                        // No last column to repeat: col 0 is always
                        // inside a nonempty kernel's home space.
                        cols.push(0);
                        vals.push(0.0);
                    } else {
                        // Padding repeats the lane's last real column
                        // with val 0.0: `acc += 0.0 · x[c]` is a bitwise
                        // no-op for finite x (see the module docs).
                        let t = &k.tasks[lo + e.min(len - 1)];
                        cols.push(t.col);
                        vals.push(if e < len { t.val } else { 0.0 });
                    }
                }
            }
            chunk_ptr.push(vals.len() as u32);
        }
        debug_assert_eq!(vals.len(), layout.padded);
        let ops = bounds.last().map_or(0, |&e| e as usize);
        SellKernel { chunk_ptr, rows, cols, vals, ops, simd: false }
    }

    /// Fully unrolled shape — every specialized width runs it:
    /// `C` chunk lanes × `R` right-hand sides of accumulators in
    /// registers, uniform inner trip count, order-preserving per row.
    /// `chunks_exact(C)` gives the optimizer a compile-time row width,
    /// eliding the per-entry bounds checks.
    #[inline(always)]
    fn run_cr<const C: usize, const R: usize>(&self, x: &[f64], y: &mut [f64]) {
        for ch in 0..self.chunk_ptr.len().saturating_sub(1) {
            let base = self.chunk_ptr[ch] as usize;
            let end = self.chunk_ptr[ch + 1] as usize;
            let lanes = &self.rows[ch * C..(ch + 1) * C];
            let mut acc = [[0.0f64; R]; C];
            for (l, &row) in lanes.iter().enumerate() {
                if row != NO_LANE {
                    let at = row as usize * R;
                    acc[l].copy_from_slice(&y[at..at + R]);
                }
            }
            let vals = &self.vals[base..end];
            let cols = &self.cols[base..end];
            for (ev, ec) in vals.chunks_exact(C).zip(cols.chunks_exact(C)) {
                for l in 0..C {
                    let v = ev[l];
                    let at = ec[l] as usize * R;
                    let xs = &x[at..at + R];
                    for q in 0..R {
                        acc[l][q] += v * xs[q];
                    }
                }
            }
            for (l, &row) in lanes.iter().enumerate() {
                if row != NO_LANE {
                    let at = row as usize * R;
                    y[at..at + R].copy_from_slice(&acc[l]);
                }
            }
        }
    }

    fn validate(&self, nx: usize, ny: usize) -> Result<(), String> {
        let c = SELL_C;
        let nchunks = self.chunk_ptr.len().saturating_sub(1);
        if self.chunk_ptr.first() != Some(&0)
            || self.chunk_ptr.last().map(|&e| e as usize) != Some(self.vals.len())
            || self.rows.len() != nchunks * c
            || self.cols.len() != self.vals.len()
        {
            return Err("malformed kernel arrays".into());
        }
        for pair in self.chunk_ptr.windows(2) {
            if pair[1] < pair[0] || (pair[1] - pair[0]) as usize % c != 0 {
                return Err("malformed kernel chunk_ptr".into());
            }
        }
        if !(self.rows.iter().all(|&s| s == NO_LANE || (s as usize) < ny)
            && self.cols.iter().all(|&s| (s as usize) < nx))
        {
            return Err("kernel slot out of range".into());
        }
        Ok(())
    }
}

impl BatchBodies for SellKernel {
    fn simd(&self) -> bool {
        self.simd
    }

    #[inline(always)]
    fn run_fixed<const R: usize>(&self, x: &[f64], y: &mut [f64]) {
        self.run_cr::<SELL_C, R>(x, y)
    }

    /// Strided fallback for widths without a specialization.
    fn run_dyn(&self, x: &[f64], y: &mut [f64], r: usize) {
        let c = SELL_C;
        for ch in 0..self.chunk_ptr.len().saturating_sub(1) {
            let base = self.chunk_ptr[ch] as usize;
            let w = (self.chunk_ptr[ch + 1] as usize - base) / c;
            for (l, &row) in self.rows[ch * c..(ch + 1) * c].iter().enumerate() {
                if row == NO_LANE {
                    continue;
                }
                let at = row as usize * r;
                let out = &mut y[at..at + r];
                for e in 0..w {
                    let v = self.vals[base + e * c + l];
                    let col = self.cols[base + e * c + l] as usize * r;
                    for q in 0..r {
                        out[q] += v * x[col + q];
                    }
                }
            }
        }
    }
}

/// Dense-span storage for split-dense-row kernels: each segment's entry
/// list is cut into maximal runs of consecutive local columns. Runs of
/// at least [`DENSE_MIN_RUN`] entries execute as dense dot products
/// (`col0 + i` — no index loads); shorter stretches stay indexed. The
/// operation sequence is exactly the CSR slice's, so results are
/// bitwise identical.
#[derive(Clone, Debug, Default)]
pub struct DenseSplitKernel {
    /// Span range per segment (`rows.len() + 1` entries).
    pub(crate) seg_ptr: Vec<u32>,
    /// Local `y` slot per segment.
    pub(crate) rows: Vec<u32>,
    /// Per span: start offset into `vals`/`cols`.
    pub(crate) span_start: Vec<u32>,
    /// Per span: entry count.
    pub(crate) span_len: Vec<u32>,
    /// Per span: first local column of a dense run, or [`NO_LANE`] for
    /// an indexed span.
    pub(crate) span_col0: Vec<u32>,
    /// `x` home per entry (used by indexed spans; kept for all
    /// entries so validation and debugging see the full pattern).
    pub(crate) cols: Vec<u32>,
    /// Value per entry, in original task order.
    pub(crate) vals: Vec<f64>,
    /// Take the AVX2 batch paths (resolved from [`KernelIsa`] at
    /// lowering; bitwise-equivalent either way). Private to this
    /// module: the AVX2 dispatch's safety rests on it.
    simd: bool,
}

impl DenseSplitKernel {
    /// Splits a CSR slice into spans (order is preserved). The slice's
    /// `rows`, `cols` and `vals` become the kernel's own.
    fn split(csr: CsrKernel) -> DenseSplitKernel {
        let CsrKernel { row_ptr, rows, cols, vals, .. } = csr;
        let mut k = DenseSplitKernel {
            seg_ptr: Vec::with_capacity(rows.len() + 1),
            rows,
            cols,
            vals,
            ..DenseSplitKernel::default()
        };
        k.seg_ptr.push(0);
        for s in 0..k.rows.len() {
            let (lo, hi) = (row_ptr[s] as usize, row_ptr[s + 1] as usize);
            let mut run_start = lo;
            let mut pending_start = lo; // start of the current indexed stretch
            for e in lo + 1..=hi {
                let run_continues = e < hi && k.cols[e] == k.cols[e - 1] + 1;
                if !run_continues {
                    if e - run_start >= DENSE_MIN_RUN {
                        // The indexed stretch before the dense run, then
                        // the dense run itself.
                        k.push_span(pending_start, run_start, NO_LANE);
                        k.push_span(run_start, e, k.cols[run_start]);
                        pending_start = e;
                    }
                    run_start = e;
                }
            }
            k.push_span(pending_start, hi, NO_LANE);
            k.seg_ptr.push(k.span_start.len() as u32);
        }
        k
    }

    /// Appends the span over entries `lo..hi` unless it is empty.
    fn push_span(&mut self, lo: usize, hi: usize, col0: u32) {
        if hi > lo {
            self.span_start.push(lo as u32);
            self.span_len.push((hi - lo) as u32);
            self.span_col0.push(col0);
        }
    }

    fn validate(&self, nx: usize, ny: usize) -> Result<(), String> {
        if self.seg_ptr.len() != self.rows.len() + 1
            || self.cols.len() != self.vals.len()
            || self.seg_ptr.first() != Some(&0)
            || self.seg_ptr.last().map(|&e| e as usize) != Some(self.span_start.len())
            || self.span_start.len() != self.span_len.len()
            || self.span_start.len() != self.span_col0.len()
        {
            return Err("malformed kernel arrays".into());
        }
        if self.seg_ptr.windows(2).any(|w| w[1] < w[0]) {
            return Err("malformed kernel seg_ptr".into());
        }
        for sp in 0..self.span_start.len() {
            let start = self.span_start[sp] as usize;
            let len = self.span_len[sp] as usize;
            if start + len > self.vals.len() {
                return Err("kernel span out of range".into());
            }
            let c0 = self.span_col0[sp];
            if c0 != NO_LANE && c0 as usize + len > nx {
                return Err("kernel slot out of range".into());
            }
        }
        if !(self.rows.iter().all(|&s| (s as usize) < ny)
            && self.cols.iter().all(|&s| (s as usize) < nx))
        {
            return Err("kernel slot out of range".into());
        }
        Ok(())
    }
}

impl BatchBodies for DenseSplitKernel {
    fn simd(&self) -> bool {
        self.simd
    }

    /// Fixed-width span loop: `R` accumulators live in registers.
    #[inline(always)]
    fn run_fixed<const R: usize>(&self, x: &[f64], y: &mut [f64]) {
        for s in 0..self.rows.len() {
            let at = self.rows[s] as usize * R;
            let row = &mut y[at..at + R];
            let mut acc = [0.0f64; R];
            acc.copy_from_slice(row);
            for sp in self.seg_ptr[s] as usize..self.seg_ptr[s + 1] as usize {
                let start = self.span_start[sp] as usize;
                let len = self.span_len[sp] as usize;
                let c0 = self.span_col0[sp];
                if c0 != NO_LANE {
                    let c0 = c0 as usize;
                    for i in 0..len {
                        madd(&mut acc, self.vals[start + i], x, (c0 + i) * R);
                    }
                } else {
                    for i in 0..len {
                        madd(&mut acc, self.vals[start + i], x, self.cols[start + i] as usize * R);
                    }
                }
            }
            row.copy_from_slice(&acc);
        }
    }

    fn run_dyn(&self, x: &[f64], y: &mut [f64], r: usize) {
        for s in 0..self.rows.len() {
            let at = self.rows[s] as usize * r;
            let row = &mut y[at..at + r];
            for sp in self.seg_ptr[s] as usize..self.seg_ptr[s + 1] as usize {
                let start = self.span_start[sp] as usize;
                let len = self.span_len[sp] as usize;
                let c0 = self.span_col0[sp];
                for i in 0..len {
                    let v = self.vals[start + i];
                    let col = if c0 != NO_LANE {
                        (c0 as usize + i) * r
                    } else {
                        self.cols[start + i] as usize * r
                    };
                    for q in 0..r {
                        row[q] += v * x[col + q];
                    }
                }
            }
        }
    }
}

/// The lowering as it was before kernels were built straight from the
/// compiler's segment table: a stable σ-sort per statistics call, a
/// sorted copy of `rows` for the SELL repeat check, chunk-by-chunk
/// growth, and a dense-split build that copies its input. Kept as the
/// oracle the one lowering ([`Kernel::lower`]) is held to.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    fn sell_order(csr: &CsrKernel) -> Vec<u32> {
        let mut order: Vec<u32> = (0..csr.rows.len() as u32).collect();
        for win in order.chunks_mut(SELL_SIGMA) {
            win.sort_by_key(|&s| {
                std::cmp::Reverse(csr.row_ptr[s as usize + 1] - csr.row_ptr[s as usize])
            });
        }
        order
    }

    fn sell_padded_entries(csr: &CsrKernel) -> usize {
        sell_order(csr)
            .chunks(SELL_C)
            .map(|chunk| {
                let widest = chunk
                    .iter()
                    .map(|&s| (csr.row_ptr[s as usize + 1] - csr.row_ptr[s as usize]) as usize)
                    .max()
                    .unwrap_or(0);
                widest * SELL_C
            })
            .sum()
    }

    pub(crate) fn stats_of(csr: &CsrKernel) -> KernelStats {
        let rows = csr.rows.len();
        let ops = csr.vals.len();
        if rows == 0 {
            return KernelStats::default();
        }
        let mut max_row = 0usize;
        let mut dense_entries = 0usize;
        for s in 0..rows {
            let (lo, hi) = (csr.row_ptr[s] as usize, csr.row_ptr[s + 1] as usize);
            max_row = max_row.max(hi - lo);
            let mut run = 1usize;
            for e in lo + 1..=hi {
                if e < hi && csr.cols[e] == csr.cols[e - 1] + 1 {
                    run += 1;
                } else {
                    if run >= DENSE_MIN_RUN {
                        dense_entries += run;
                    }
                    run = 1;
                }
            }
        }
        let padded = sell_padded_entries(csr);
        KernelStats {
            rows,
            ops,
            max_row,
            mean_row: ops as f64 / rows as f64,
            dense_frac: dense_entries as f64 / ops as f64,
            sell_fill: padded as f64 / ops.max(1) as f64,
        }
    }

    fn sell_build(csr: &CsrKernel) -> Option<SellKernel> {
        let c = SELL_C;
        let nseg = csr.rows.len();
        let mut seen = csr.rows.clone();
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        let order = sell_order(csr);
        let nchunks = nseg.div_ceil(c);
        let mut chunk_ptr = Vec::with_capacity(nchunks + 1);
        chunk_ptr.push(0u32);
        let mut rows = Vec::with_capacity(nchunks * c);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for chunk in order.chunks(c) {
            let seg_len =
                |&s: &u32| (csr.row_ptr[s as usize + 1] - csr.row_ptr[s as usize]) as usize;
            let widest = chunk.iter().map(seg_len).max().unwrap_or(0);
            let base = vals.len();
            cols.resize(base + widest * c, 0u32);
            vals.resize(base + widest * c, 0.0f64);
            for (l, &s) in chunk.iter().enumerate() {
                let lo = csr.row_ptr[s as usize] as usize;
                let len = seg_len(&s);
                rows.push(csr.rows[s as usize]);
                if len == 0 {
                    continue;
                }
                for e in 0..widest {
                    let src = lo + e.min(len - 1);
                    cols[base + e * c + l] = csr.cols[src];
                    vals[base + e * c + l] = if e < len { csr.vals[src] } else { 0.0 };
                }
            }
            rows.resize(rows.len() + (c - chunk.len()), NO_LANE);
            chunk_ptr.push(vals.len() as u32);
        }
        Some(SellKernel { chunk_ptr, rows, cols, vals, ops: csr.ops(), simd: false })
    }

    fn dense_build(csr: &CsrKernel) -> DenseSplitKernel {
        let mut k = DenseSplitKernel {
            seg_ptr: vec![0],
            rows: csr.rows.clone(),
            cols: csr.cols.clone(),
            vals: csr.vals.clone(),
            ..DenseSplitKernel::default()
        };
        for s in 0..csr.rows.len() {
            let (lo, hi) = (csr.row_ptr[s] as usize, csr.row_ptr[s + 1] as usize);
            let mut run_start = lo;
            let mut pending_start = lo;
            let push = |k: &mut DenseSplitKernel, pend: usize, dlo: usize, dhi: usize| {
                if dlo > pend {
                    k.span_start.push(pend as u32);
                    k.span_len.push((dlo - pend) as u32);
                    k.span_col0.push(NO_LANE);
                }
                if dhi > dlo {
                    k.span_start.push(dlo as u32);
                    k.span_len.push((dhi - dlo) as u32);
                    k.span_col0.push(csr.cols[dlo]);
                }
            };
            for e in lo + 1..=hi {
                let run_continues = e < hi && csr.cols[e] == csr.cols[e - 1] + 1;
                if !run_continues {
                    if e - run_start >= DENSE_MIN_RUN {
                        push(&mut k, pending_start, run_start, e);
                        pending_start = e;
                    }
                    run_start = e;
                }
            }
            if hi > pending_start {
                k.span_start.push(pending_start as u32);
                k.span_len.push((hi - pending_start) as u32);
                k.span_col0.push(NO_LANE);
            }
            k.seg_ptr.push(k.span_start.len() as u32);
        }
        k
    }

    pub(crate) fn from_csr_isa(csr: CsrKernel, format: KernelFormat, isa: KernelIsa) -> Kernel {
        let format = match format {
            KernelFormat::Auto => auto_pick(&stats_of(&csr)),
            fixed => fixed,
        };
        let mut kernel = match format {
            KernelFormat::CsrSlice => Kernel::Csr(csr),
            KernelFormat::Sell => match sell_build(&csr) {
                Some(sell) => Kernel::Sell(sell),
                None => Kernel::Csr(csr),
            },
            KernelFormat::DenseRowSplit => Kernel::DenseSplit(dense_build(&csr)),
            KernelFormat::Auto => unreachable!("resolved above"),
        };
        kernel.set_simd(isa.simd());
        kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (row, col, val) triples in task order, as a task list.
    fn tasks_of(tuples: &[(u32, u32, f64)]) -> Vec<MultTask> {
        tuples.iter().map(|&(row, col, val)| MultTask { row, col, val }).collect()
    }

    /// The CSR slice of `tasks`, each row its own slot: the oracle's
    /// input.
    fn csr_of(tasks: &[MultTask]) -> CsrKernel {
        let mut k = CsrKernel::default();
        k.row_ptr.push(0);
        for run in tasks.chunk_by(|a, b| a.row == b.row) {
            k.rows.push(run[0].row);
            k.cols.extend(run.iter().map(|t| t.col));
            k.vals.extend(run.iter().map(|t| t.val));
            k.row_ptr.push(k.cols.len() as u32);
        }
        k
    }

    /// The segment table the compiler's walk leaves for `tasks` when
    /// each row is its own slot.
    fn segments(tasks: &[MultTask]) -> TaskSegments<'_> {
        let mut k = TaskSegments::new(tasks);
        let mut seen = std::collections::HashSet::new();
        for run in tasks.chunk_by(|a, b| a.row == b.row) {
            k.push(run, run[0].row, !seen.insert(run[0].row));
        }
        k
    }

    /// Lowers `segments` into `format`, held to the oracle's lowering
    /// of `csr`, the same kernel as a CSR slice: the kernel and, under
    /// [`KernelFormat::Auto`], the statistics.
    fn held_to_oracle(
        segments: TaskSegments,
        csr: CsrKernel,
        format: KernelFormat,
        isa: KernelIsa,
    ) -> Kernel {
        let (kernel, stats) = Kernel::lower(segments, format, isa);
        let want_stats = (format == KernelFormat::Auto).then(|| oracle::stats_of(&csr));
        assert_eq!(format!("{stats:?}"), format!("{want_stats:?}"), "{format} {isa}");
        let want = oracle::from_csr_isa(csr, format, isa);
        assert_eq!(format!("{kernel:?}"), format!("{want:?}"), "{format} {isa}");
        kernel
    }

    /// Lowers `tasks`, each row its own slot, through the segment table.
    fn lower(tasks: &[MultTask], format: KernelFormat, isa: KernelIsa) -> Kernel {
        held_to_oracle(segments(tasks), csr_of(tasks), format, isa)
    }

    /// The two tasks `(0, 0, 1.0)`, `(0, 1, 2.0)` as one segment, then
    /// an empty segment into slot 1 (a table the walk never makes), and
    /// the same kernel as a CSR slice.
    fn with_empty_segment(tasks: &[MultTask]) -> (TaskSegments<'_>, CsrKernel) {
        let mut k = TaskSegments::new(tasks);
        k.push(tasks, 0, false);
        k.push(&[], 1, false);
        let csr = CsrKernel {
            row_ptr: vec![0, 2, 2],
            rows: vec![0, 1],
            cols: vec![0, 1],
            vals: vec![1.0, 2.0],
            simd: false,
        };
        (k, csr)
    }

    /// An irregular kernel: row lengths 1..=7 over 14 rows, scattered
    /// columns below `nx`.
    fn irregular(nx: u32) -> Vec<MultTask> {
        let mut tasks = Vec::new();
        for row in 0..14u32 {
            let len = (row % 7 + 1) as usize;
            for e in 0..len {
                let col = (row.wrapping_mul(13) + e as u32 * 5 + 1) % nx;
                tasks.push((row, col, (row as f64 + 1.0) * 0.25 - e as f64 * 0.5));
            }
        }
        tasks_of(&tasks)
    }

    /// The resolved "take the AVX2 batch paths" flag of a lowered kernel.
    fn simd(k: &Kernel) -> bool {
        match k {
            Kernel::Csr(k) => k.simd,
            Kernel::Sell(k) => k.simd,
            Kernel::DenseSplit(k) => k.simd,
        }
    }

    fn x_for(nx: usize, r: usize) -> Vec<f64> {
        (0..nx * r).map(|i| ((i * 29) % 23) as f64 / 7.0 - 1.5).collect()
    }

    #[test]
    fn format_parse_roundtrip() {
        for (s, want) in [
            ("csr", KernelFormat::CsrSlice),
            ("sell", KernelFormat::Sell),
            ("dense-split", KernelFormat::DenseRowSplit),
            ("dense", KernelFormat::DenseRowSplit),
            ("auto", KernelFormat::Auto),
        ] {
            assert_eq!(s.parse::<KernelFormat>().unwrap(), want, "{s}");
        }
        assert_eq!(KernelFormat::DEFAULT_SELL, KernelFormat::Sell);
        // The chunk height and window are constants, not spellings.
        for s in ["warp", "sell:8", "sell:2:256"] {
            let err = s.parse::<KernelFormat>().unwrap_err();
            assert!(err.contains("(csr|sell|dense-split|auto)"), "{s}: {err}");
        }
        // Display round-trips through FromStr.
        for f in KernelFormat::all() {
            assert_eq!(f.to_string().parse::<KernelFormat>().unwrap(), f);
        }
    }

    #[test]
    fn isa_parse_roundtrip() {
        for (s, want) in [("auto", KernelIsa::Auto), ("scalar", KernelIsa::Scalar)] {
            assert_eq!(s.parse::<KernelIsa>().unwrap(), want, "{s}");
            assert_eq!(want.to_string(), s);
        }
        // `avx2` was a third spelling of `auto`; `--isa avx2` is refused.
        for s in ["avx2", "sse2"] {
            let err = s.parse::<KernelIsa>().unwrap_err();
            assert!(err.contains("(auto|scalar)"), "{s}: {err}");
        }
        assert!(!KernelIsa::Scalar.simd(), "scalar always pins the reference loops");
    }

    #[test]
    fn simd_paths_match_scalar_bitwise() {
        // Every arm of the width dispatcher (r = 3 and 5 take the
        // strided fallback), over the irregular kernel and one with an
        // empty segment.
        let (irr, two) = (irregular(11), tasks_of(&[(0, 0, 1.0), (0, 1, 2.0)]));
        for (tasks, nx, ny, empty) in [(&irr, 11, 14, false), (&two, 2, 2, true)] {
            let build = |format, isa| {
                if empty {
                    let (segments, csr) = with_empty_segment(tasks);
                    held_to_oracle(segments, csr, format, isa)
                } else {
                    lower(tasks, format, isa)
                }
            };
            for r in [1usize, 2, 3, 4, 5, 8] {
                let x = x_for(nx, r);
                for format in KernelFormat::all() {
                    let scalar = build(format, KernelIsa::Scalar);
                    assert!(!simd(&scalar));
                    let mut want = vec![0.1; ny * r];
                    scalar.run_batch(&x, &mut want, r);
                    let k = build(format, KernelIsa::Auto);
                    assert_eq!(simd(&k), KernelIsa::avx2_available(), "{format}");
                    let mut got = vec![0.1; ny * r];
                    k.run_batch(&x, &mut got, r);
                    assert_eq!(got, want, "{format} r={r}");
                }
            }
        }
    }

    #[test]
    fn every_format_matches_csr_bitwise_on_irregular_kernels() {
        let (tasks, nx, ny) = (irregular(11), 11, 14);
        let reference = Kernel::Csr(csr_of(&tasks));
        for r in [1usize, 2, 3, 4, 5, 8] {
            let x = x_for(nx, r);
            let mut want = vec![0.1; ny * r];
            reference.run_batch(&x, &mut want, r);
            for format in KernelFormat::all() {
                let k = lower(&tasks, format, KernelIsa::Auto);
                k.validate(nx, ny).unwrap();
                let mut got = vec![0.1; ny * r];
                k.run_batch(&x, &mut got, r);
                assert_eq!(got, want, "{format} r={r}");
                assert_eq!(k.ops(), tasks.len(), "{format}: ops must be format-invariant");
            }
        }
    }

    #[test]
    fn sell_rejects_interleaved_rows() {
        // Rows 0, 1, 0 — segment order carries accumulation grouping.
        let tasks = tasks_of(&[(0, 0, 1.0), (1, 0, 2.0), (0, 1, 4.0)]);
        assert!(segments(&tasks).repeats);
        // The SELL lowering falls back to the CSR slice instead of failing.
        let k = lower(&tasks, KernelFormat::Sell, KernelIsa::Auto);
        assert!(matches!(k, Kernel::Csr(_)));
    }

    #[test]
    fn dense_split_finds_consecutive_runs() {
        // Row 0: 12 consecutive cols (dense), row 1: scattered.
        let mut tasks = Vec::new();
        for e in 0..12u32 {
            tasks.push((0, 3 + e, e as f64 + 0.5));
        }
        for e in 0..3u32 {
            tasks.push((1, e * 7, 1.0 - e as f64));
        }
        let tasks = tasks_of(&tasks);
        let k = lower(&tasks, KernelFormat::DenseRowSplit, KernelIsa::Auto);
        let Kernel::DenseSplit(split) = &k else { panic!("a dense-split kernel") };
        k.validate(24, 2).unwrap();
        assert_eq!(split.span_col0, [3, NO_LANE], "the 12-entry run is the one dense span");
        let x = x_for(24, 1);
        let mut want = vec![0.0; 2];
        Kernel::Csr(csr_of(&tasks)).run_batch(&x, &mut want, 1);
        let mut got = vec![0.0; 2];
        k.run_batch(&x, &mut got, 1);
        assert_eq!(got, want);
    }

    /// The `auto` statistics of `tasks`, each row its own slot.
    fn stats(tasks: &[MultTask]) -> KernelStats {
        Kernel::lower(segments(tasks), KernelFormat::Auto, KernelIsa::Scalar).1.expect("auto")
    }

    fn pick(tuples: &[(u32, u32, f64)]) -> KernelFormat {
        auto_pick(&stats(&tasks_of(tuples)))
    }

    #[test]
    fn auto_picks_by_profile() {
        // Dense-run dominated → DenseRowSplit.
        let mut tasks = Vec::new();
        for row in 0..40u32 {
            for e in 0..16u32 {
                tasks.push((row, e, 1.0 + (row * 16 + e) as f64 * 0.01));
            }
        }
        assert_eq!(pick(&tasks), KernelFormat::DenseRowSplit);

        // ONE huge split dense row — the flagship semi-2D shape: the
        // dense-run check must fire regardless of the row count (the
        // row floor gates only the SELL branch).
        let tasks: Vec<(u32, u32, f64)> =
            (0..512u32).map(|e| (0, e, 1.0 + e as f64 * 0.125)).collect();
        assert_eq!(pick(&tasks), KernelFormat::DenseRowSplit);

        // Many short scattered rows, low padding → SELL.
        let mut tasks = Vec::new();
        for row in 0..64u32 {
            for e in 0..3u32 {
                tasks.push((row, (row * 17 + e * 29) % 64, 0.5));
            }
        }
        assert_eq!(pick(&tasks), KernelFormat::Sell);

        // Tiny scattered kernel → CSR.
        assert_eq!(pick(&[(0, 0, 1.0)]), KernelFormat::CsrSlice);
    }

    #[test]
    fn fixed_format_compiles_skip_stats_gathering() {
        // `kernel_stats` is the Auto policy's evidence; fixed-format
        // compiles must not pay the per-kernel σ-sort for it.
        use s2d_spmv::{PlanPhase, SpmvPlan};
        let plan = SpmvPlan {
            k: 1,
            nrows: 2,
            ncols: 2,
            x_part: vec![0, 0],
            y_part: vec![0, 0],
            phases: vec![PlanPhase::Compute(vec![tasks_of(&[(0, 0, 2.0), (1, 1, 3.0)])])],
        };
        let csr = crate::CompiledPlan::compile(&plan);
        assert!(csr.kernel_stats().is_empty());
        let auto =
            crate::CompiledPlan::compile_with_isa(&plan, KernelFormat::Auto, KernelIsa::Auto);
        assert_eq!(auto.kernel_stats().len(), 1);
        assert_eq!(auto.kernel_stats()[0].ops, 2);
    }

    #[test]
    fn empty_kernel_is_fine_in_every_format() {
        for format in KernelFormat::all() {
            let k = lower(&[], format, KernelIsa::Auto);
            k.validate(0, 0).unwrap();
            let mut y: Vec<f64> = vec![];
            k.run_batch(&[], &mut y, 4);
            assert_eq!((k.ops(), k.stored_ops()), (0, 0));
        }

        // An empty row *segment* inside a nonempty kernel: every
        // lowering accepts it and stays bitwise equal to the CSR slice.
        let tasks = tasks_of(&[(0, 0, 1.0), (0, 1, 2.0)]);
        let (_, csr) = with_empty_segment(&tasks);
        csr.validate(2, 2).unwrap();
        let reference = Kernel::Csr(csr);
        for format in KernelFormat::all() {
            let (segments, csr) = with_empty_segment(&tasks);
            let k = held_to_oracle(segments, csr, format, KernelIsa::Auto);
            k.validate(2, 2).unwrap();
            assert_eq!(k.ops(), 2, "{format}");
            for r in [1usize, 2, 3, 4, 8] {
                let x = x_for(2, r);
                let mut want = vec![0.1; 2 * r];
                reference.run_batch(&x, &mut want, r);
                let mut got = vec![0.1; 2 * r];
                k.run_batch(&x, &mut got, r);
                assert_eq!(got, want, "{format} r={r}");
            }
        }
    }

    #[test]
    fn stats_describe_the_kernel() {
        let tasks = irregular(11);
        let st = stats(&tasks);
        assert_eq!(st.rows, 14);
        assert_eq!(st.ops, tasks.len());
        assert_eq!(st.max_row, 7);
        assert!(st.sell_fill >= 1.0);
        assert!((0.0..=1.0).contains(&st.dense_frac));
    }
}
