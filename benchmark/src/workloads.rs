//! The four workloads: their generated inputs, the fixed right-hand
//! sides, and the operations each one times (with the output checks
//! that decide whether an operation counts as failed).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

use s2d::gen::denserow::{dense_row_matrix, DenseRowConfig};
use s2d::gen::fem::fem_like;
use s2d::gen::rmat::{rmat, RmatConfig};
use s2d::solver::{pagerank_with, to_column_stochastic, PagerankOptions};
use s2d::sparse::Csr;
use s2d::{Session, SpmvOperator, Strategy};
use s2d_serve::{Server, SessionId, Ticket};

use crate::measure::{Op, Tally};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    FemSteady,
    DenserowK64,
    RmatPagerank,
    ServeClosed,
}

impl Kind {
    /// Number of parts the matrix is partitioned into.
    pub fn k(self) -> usize {
        match self {
            Kind::FemSteady | Kind::ServeClosed => 8,
            Kind::DenserowK64 => 64,
            Kind::RmatPagerank => 16,
        }
    }
}

/// Every workload partitions with the paper's Algorithm 1.
pub fn strategy() -> Strategy {
    "s2d".parse().expect("s2d is a strategy name")
}

/// Widest batch the sessions are sized for, and the `r` of the batched
/// operations (the serve layer's default `max_coalesce`).
pub const BATCH: usize = 8;

/// Requests the pipelined serve client keeps outstanding.
pub const PIPELINE_DEPTH: usize = 16;

/// PageRank stops at `tol`; the cap is far above the ~50 iterations
/// the R-MAT input needs, so hitting it means non-convergence.
pub const PAGERANK: PagerankOptions = PagerankOptions { damping: 0.85, tol: 1e-10, max_iters: 500 };

/// What a workload runs on. The seed reaches the generators and
/// nothing else.
pub struct Input {
    pub a: Csr,
    /// Zero-outlink pages of the link matrix (`rmat-pagerank` only).
    pub dangling: Vec<bool>,
}

/// Generates the workload's matrix. `smoke` shrinks every input to
/// 2^10 rows (tests only; results are stamped as such).
pub fn generate(kind: Kind, seed: u64, smoke: bool) -> Input {
    let plain = |a: Csr| Input { a, dangling: Vec::new() };
    // `fem_like` without a dense tail is a fixed stencil of ones: the
    // seed reaches it but changes nothing. The values are drawn here,
    // so that a seed still names one input and the output checks are
    // not run on a matrix of ones.
    let stencil = |rows: usize| {
        let mut a = fem_like(if smoke { 1 << 10 } else { rows }, 27.0, 27, seed);
        for (e, v) in a.values_mut().iter_mut().enumerate() {
            *v = 0.5 + unit_hash(seed, e as u64);
        }
        plain(a)
    };
    match kind {
        Kind::FemSteady => stencil(1 << 16),
        Kind::ServeClosed => stencil(1 << 15),
        Kind::DenserowK64 => {
            let n = if smoke { 1 << 10 } else { 1 << 14 };
            let cfg =
                DenseRowConfig { n, nnz: 8 * n, dmax: n / 2, tail_decay: 0.5, mirror_cols: true };
            plain(dense_row_matrix(&cfg, seed))
        }
        Kind::RmatPagerank => {
            let scale = if smoke { 10 } else { 12 };
            let adjacency = rmat(&RmatConfig::graph500(scale, 8), seed).to_csr();
            let (a, dangling) = to_column_stochastic(&adjacency);
            Input { a, dangling }
        }
    }
}

/// SplitMix64 of `(seed, i)` mapped to [0, 1).
fn unit_hash(seed: u64, i: u64) -> f64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// A fixed, seed-independent right-hand side block: `n` rows of `r`
/// values in [-1, 1), row-major. `salt` makes distinct vectors.
pub fn rhs(n: usize, r: usize, salt: u64) -> Vec<f64> {
    (0..(n * r) as u64).map(|i| 2.0 * unit_hash(salt, i) - 1.0).collect()
}

/// `Y = A·X` by the plain serial CSR product, one column at a time —
/// the reference every engine output is held against.
pub fn reference(a: &Csr, x: &[f64], r: usize) -> Vec<f64> {
    if r == 1 {
        return a.spmv_alloc(x);
    }
    let mut y = vec![0.0; a.nrows() * r];
    let mut col = vec![0.0; a.ncols()];
    for c in 0..r {
        for (j, slot) in col.iter_mut().enumerate() {
            *slot = x[j * r + c];
        }
        for (i, v) in a.spmv_alloc(&col).into_iter().enumerate() {
            y[i * r + c] = v;
        }
    }
    y
}

/// True when `got` is within `tol` of `want`, relative to the largest
/// magnitude in `want` (summation order differs between executors, so
/// entries that cancel to near zero are judged on the vector's scale).
pub fn close(got: &[f64], want: &[f64], tol: f64) -> bool {
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(f64::MIN_POSITIVE);
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| (g - w).abs() <= tol * scale)
}

/// Tolerance of every check against a serial reference.
pub const TOL: f64 = 1e-9;

/// Where the session under test lives. The untraced pass empties the
/// slot while the serial yardstick runs (a pool-backed session has
/// spinning workers that must not be alive then) and refills it
/// afterwards; ops only run while it is full.
pub type SessionSlot = RefCell<Option<Session>>;

const IN_SLOT: &str = "the session is in its slot whenever one of its ops runs";

/// `Session::apply` (`r == 1`) or `Session::apply_batch` on a fixed
/// right-hand side. The first output is held against [`reference`];
/// after each block the output must equal that first one bitwise (the
/// compiled engines are deterministic), else the block's calls fail.
pub struct ApplyOp<'a> {
    session: &'a SessionSlot,
    x: Vec<f64>,
    y: Vec<f64>,
    want: Vec<f64>,
    r: usize,
    in_block: usize,
    tally: Tally,
}

impl<'a> ApplyOp<'a> {
    pub fn new(session: &'a SessionSlot, a: &Csr, r: usize) -> ApplyOp<'a> {
        let x = rhs(a.ncols(), r, r as u64);
        let mut op = ApplyOp {
            session,
            x,
            y: vec![0.0; a.nrows() * r],
            want: Vec::new(),
            r,
            in_block: 0,
            tally: Tally::default(),
        };
        op.call();
        op.want = op.y.clone();
        if !close(&op.y, &reference(a, &op.x, r), TOL) {
            op.tally.failed += 1;
        }
        op.in_block = 0;
        op
    }

    /// The verified output (what a served response must equal).
    pub fn output(&self) -> &[f64] {
        &self.want
    }
}

impl Op for ApplyOp<'_> {
    fn call(&mut self) {
        let mut slot = self.session.borrow_mut();
        let s = slot.as_mut().expect(IN_SLOT);
        if self.r == 1 {
            s.apply(&self.x, &mut self.y);
        } else {
            s.apply_batch(&self.x, &mut self.y, self.r);
        }
        self.tally.attempted += 1;
        self.in_block += 1;
    }

    fn end_block(&mut self) {
        let same = if self.session.borrow().as_ref().expect(IN_SLOT).deterministic() {
            self.y == self.want
        } else {
            close(&self.y, &self.want, TOL)
        };
        if !same {
            self.tally.failed += self.in_block;
        }
        self.in_block = 0;
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}

/// One PageRank solve to [`PAGERANK`]'s tolerance on a ready session.
/// The first solve is held against a serial-CSR power iteration; every
/// later one must converge in the same number of iterations to the
/// same ranks.
pub struct SolveOp<'a> {
    session: &'a SessionSlot,
    dangling: &'a [bool],
    ranks: Vec<f64>,
    pub iterations: usize,
    last_ok: bool,
    tally: Tally,
}

impl<'a> SolveOp<'a> {
    pub fn new(session: &'a SessionSlot, input: &'a Input) -> SolveOp<'a> {
        let mut op = SolveOp {
            session,
            dangling: &input.dangling,
            ranks: Vec::new(),
            iterations: 0,
            last_ok: true,
            tally: Tally::default(),
        };
        let res =
            pagerank_with(session.borrow_mut().as_mut().expect(IN_SLOT), op.dangling, &PAGERANK);
        op.tally.attempted += 1;
        let (want, want_iters) = serial_pagerank(&input.a, &input.dangling);
        // Rounding may move the stopping test by one iteration.
        let iters_agree = res.iterations.abs_diff(want_iters) <= 1;
        if !(res.converged && iters_agree && close(&res.ranks, &want, TOL)) {
            op.tally.failed += 1;
        }
        op.ranks = res.ranks;
        op.iterations = res.iterations;
        op
    }
}

impl Op for SolveOp<'_> {
    fn call(&mut self) {
        let mut slot = self.session.borrow_mut();
        let session = slot.as_mut().expect(IN_SLOT);
        let res = pagerank_with(&mut *session, self.dangling, &PAGERANK);
        self.tally.attempted += 1;
        let deterministic = session.deterministic();
        self.last_ok = res.converged
            && res.iterations == self.iterations
            && if deterministic {
                res.ranks == self.ranks
            } else {
                close(&res.ranks, &self.ranks, TOL)
            };
    }

    fn after_call(&mut self) {
        if !self.last_ok {
            self.tally.failed += 1;
            self.last_ok = true;
        }
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}

/// PageRank by plain power iteration over `Csr::spmv`: the same update
/// as the solver's, with no engine, partition or plan underneath.
/// Returns the ranks and the iteration count.
pub fn serial_pagerank(m: &Csr, dangling: &[bool]) -> (Vec<f64>, usize) {
    let n = m.nrows();
    let mut r = vec![1.0 / n as f64; n];
    let mut mr = vec![0.0; n];
    for iteration in 1..=PAGERANK.max_iters {
        let dangling_mass: f64 = r.iter().zip(dangling).filter(|(_, d)| **d).map(|(v, _)| v).sum();
        m.spmv(&r, &mut mr);
        let teleport =
            (1.0 - PAGERANK.damping) / n as f64 + PAGERANK.damping * dangling_mass / n as f64;
        let mut l1 = 0.0;
        for (ri, mi) in r.iter_mut().zip(&mr) {
            let next = PAGERANK.damping * mi + teleport;
            l1 += (next - *ri).abs();
            *ri = next;
        }
        if l1 <= PAGERANK.tol {
            return (r, iteration);
        }
    }
    (r, PAGERANK.max_iters)
}

/// Fixed right-hand sides a serve client rotates through, with the
/// output the direct session produced for each.
pub struct ServeVectors {
    pub xs: Vec<Vec<f64>>,
    pub wants: Vec<Vec<f64>>,
}

/// The closed-loop serve client. With `depth == 1` a call is one
/// submit → wait round trip (the solo phase); with a larger depth the
/// client keeps `depth` requests outstanding and a call waits for the
/// oldest and submits a replacement (the pipelined phase). Each
/// response must equal the direct session's output bitwise; a refused
/// or mismatching request counts as failed.
pub struct ServeOp<'a> {
    server: &'a Server,
    sid: SessionId,
    vectors: &'a ServeVectors,
    depth: usize,
    outstanding: VecDeque<(Ticket, Instant, usize)>,
    next: usize,
    held: Option<(Vec<f64>, usize)>,
    block_start: Instant,
    block_done: usize,
    /// Submit → response seconds of every completed request, per
    /// block (the first block is the sampling loop's warm-up).
    pub latencies: Vec<Vec<f64>>,
    /// Completed requests per second of each block, drain included
    /// (again with the warm-up block first).
    pub block_rates: Vec<f64>,
    tally: Tally,
}

impl<'a> ServeOp<'a> {
    pub fn new(
        server: &'a Server,
        sid: SessionId,
        vectors: &'a ServeVectors,
        depth: usize,
    ) -> ServeOp<'a> {
        ServeOp {
            server,
            sid,
            vectors,
            depth,
            outstanding: VecDeque::with_capacity(depth),
            next: 0,
            held: None,
            block_start: Instant::now(),
            block_done: 0,
            latencies: Vec::new(),
            block_rates: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Latencies of the timed blocks (the warm-up block left out).
    pub fn timed_latencies(&self) -> Vec<f64> {
        self.latencies[1..].concat()
    }

    /// Completed requests per second of each timed block.
    pub fn timed_rates(&self) -> &[f64] {
        &self.block_rates[1..]
    }

    fn submit(&mut self) {
        let i = self.next % self.vectors.xs.len();
        self.next += 1;
        self.tally.attempted += 1;
        let x = self.vectors.xs[i].clone();
        let t0 = Instant::now();
        match self.server.submit(self.sid, x) {
            Ok(ticket) => self.outstanding.push_back((ticket, t0, i)),
            Err(_) => self.tally.failed += 1,
        }
    }

    fn complete(&mut self) {
        let Some((ticket, t0, i)) = self.outstanding.pop_front() else { return };
        match ticket.wait() {
            Ok(y) => {
                let secs = t0.elapsed().as_secs_f64();
                self.latencies.last_mut().expect("a block has begun").push(secs);
                self.held = Some((y, i));
            }
            Err(_) => self.tally.failed += 1,
        }
        self.block_done += 1;
    }

    fn check_held(&mut self) {
        if let Some((y, i)) = self.held.take() {
            if y != self.vectors.wants[i] {
                self.tally.failed += 1;
            }
        }
    }
}

impl Op for ServeOp<'_> {
    fn begin_block(&mut self) {
        self.block_start = Instant::now();
        self.block_done = 0;
        self.latencies.push(Vec::new());
        while self.outstanding.len() + 1 < self.depth {
            self.submit();
        }
    }

    fn call(&mut self) {
        self.submit();
        self.complete();
    }

    fn after_call(&mut self) {
        self.check_held();
    }

    fn end_block(&mut self) {
        while !self.outstanding.is_empty() {
            self.complete();
            self.check_held();
        }
        self.block_rates.push(self.block_done as f64 / self.block_start.elapsed().as_secs_f64());
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [Kind; 4] =
        [Kind::FemSteady, Kind::DenserowK64, Kind::RmatPagerank, Kind::ServeClosed];

    #[test]
    fn the_seed_and_only_the_seed_decides_the_inputs() {
        for kind in KINDS {
            let a = generate(kind, 7, true);
            let again = generate(kind, 7, true);
            let other = generate(kind, 8, true);
            assert_eq!(a.a.fingerprint(), again.a.fingerprint(), "{kind:?}: same seed");
            assert_eq!(a.dangling, again.dangling);
            assert_ne!(a.a.fingerprint(), other.a.fingerprint(), "{kind:?}: other seed");
            assert_eq!(a.a.nrows(), a.a.ncols());
        }
        assert_eq!(rhs(100, 8, 3), rhs(100, 8, 3));
        assert_ne!(rhs(100, 1, 0), rhs(100, 1, 1));
        assert!(rhs(4096, 1, 0).iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn batched_reference_is_the_columnwise_product() {
        let a = generate(Kind::FemSteady, 3, true).a;
        let x = rhs(a.ncols(), 2, 5);
        let y = reference(&a, &x, 2);
        let col1: Vec<f64> = (0..a.ncols()).map(|j| x[j * 2 + 1]).collect();
        let want1 = a.spmv_alloc(&col1);
        assert!((0..a.nrows()).all(|i| y[i * 2 + 1] == want1[i]));
        assert!(close(&y, &y, 0.0));
        let mut off = y.clone();
        off[0] += 1.0;
        assert!(!close(&off, &y, TOL));
    }

    #[test]
    fn serial_pagerank_converges_to_a_distribution() {
        let input = generate(Kind::RmatPagerank, 2, true);
        let (ranks, iters) = serial_pagerank(&input.a, &input.dangling);
        assert!(iters < PAGERANK.max_iters, "must converge below the cap");
        assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
