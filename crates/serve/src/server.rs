//! The serving front end: session registry, request admission,
//! cross-request coalescing and the core budget.
//!
//! One [`Server`] owns any number of registered sessions (matrix +
//! partitioning + compiled backend), each with a bounded request queue
//! and a dedicated worker thread. Clients submit right-hand sides and
//! get a [`Ticket`] to wait on. Admission is strict: a full queue
//! rejects immediately ([`ServeError::QueueFull`]) and a request whose
//! deadline passed before execution is refused
//! ([`ServeError::Expired`]), so overload degrades by shedding load,
//! never by growing latency without bound.
//!
//! # Natural batching
//!
//! A worker never waits for a batch to fill. It takes the request at
//! the head of its queue plus every single-RHS request *already queued*
//! behind it (up to [`ServerConfig::max_coalesce`]) and runs them as
//! **one** `apply_batch`; whatever arrives while that batch executes
//! forms the next one. One outstanding request therefore runs the
//! moment the worker is free, and 16 outstanding requests still
//! coalesce to width 8 — the multi-RHS reuse win of the engine — with
//! no window to tune. The deadline check at dequeue is the only place a
//! request can expire.
//!
//! # Buffer hand-off
//!
//! A request's `x` is consumed by `submit`; every `Vec` a [`Ticket`]
//! yields is owned by the caller and never aliased by the server. In
//! between, the worker recycles: a solo request's `x` becomes the
//! output buffer of the worker's next solo response, a coalesced
//! request's `x` is overwritten with its own result column, and the
//! packed input / batched output blocks belong to the worker across
//! batches. In steady state a square session allocates no vector per
//! request. This leans on the [`SpmvOperator`] contract that `apply*`
//! overwrite every element of `y` (conformance-tested with a
//! `NaN`-filled `y` in `s2d-engine`).
//!
//! # Core budget
//!
//! The server owns one counting pool of `available_parallelism()`
//! permits. A worker holds as many permits as its operator has
//! participants ([`Backend::participants`], at most the budget) for
//! the duration of each `apply*`, so the participants of all applies
//! in flight never exceed the cores, for any number and order of
//! registrations: pool sessions take turns instead of spinning at each
//! other's barriers. A pool session whose team would exceed the budget
//! is built with a smaller team.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use s2d::{Backend, ConfigKey, KernelFormat, Session, SpmvOperator, Strategy};
use s2d_obs::{ServeSnapshot, ServeStats};
use s2d_sparse::Csr;
use s2d_tune::TuningCache;

use crate::cache::{PlanCache, PrepKey};

/// Serving knobs; [`ServerConfig::default`] is the sensible production
/// shape (coalescing on, bounded queues, the engine's own backend and
/// format picks).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Backend each session's worker executes on; `None` (the default)
    /// lets [`Backend::auto`] decide per session from its compiled
    /// plan and this machine's cores. A pool team
    /// ([`Backend::participants`]) is capped to the server's core
    /// budget either way.
    pub backend: Option<Backend>,
    /// Kernel format sessions compile to.
    pub format: KernelFormat,
    /// Path of an `s2d-tune` [`TuningCache`] to consult at registration
    /// time (`None` = don't). When the cache holds a measured verdict
    /// for (matrix, k, coalescing width), its strategy, plan kind,
    /// format and backend override the configured ones — measurement
    /// beats the static models wherever a measurement exists. Lookups
    /// are counted on [`ServeStats`] as tuner hits/misses. No search
    /// ever runs at serve time: a miss just uses the configured
    /// defaults.
    pub tuning_cache: Option<PathBuf>,
    /// Bounded queue depth per session; submissions beyond it are
    /// rejected with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Most single-RHS requests packed into one batch execution
    /// (1 disables coalescing).
    pub max_coalesce: usize,
    /// Preparation-cache capacity (entries).
    pub cache_capacity: usize,
    /// Run sessions rank-sharded over `s2d-runtime` endpoints (bitwise
    /// identical results). Equal to `backend: Some(Backend::Threaded)`
    /// and it overrides the configured or tuned backend; it stays only
    /// because the committed benchmark names it.
    pub sharded: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            backend: None,
            format: KernelFormat::Auto,
            tuning_cache: None,
            queue_capacity: 64,
            max_coalesce: 8,
            cache_capacity: 8,
            sharded: false,
        }
    }
}

/// Why a request was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The session's queue was full at submission time.
    QueueFull,
    /// The request's deadline passed before execution started.
    Expired,
    /// The session was shut down (or its worker died) before the
    /// request could run, or the id never named a session.
    SessionClosed,
    /// The request's vector length is not `ncols × width` for this
    /// session, or its width is 0.
    ShapeMismatch,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServeError::QueueFull => "queue full",
            ServeError::Expired => "deadline expired",
            ServeError::SessionClosed => "session closed",
            ServeError::ShapeMismatch => "request shape does not match the session",
        })
    }
}

impl std::error::Error for ServeError {}

/// Handle to a registered session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionId(u64);

/// A pending result: wait on it to get the solve's output vector.
pub struct Ticket {
    rx: mpsc::Receiver<Result<Vec<f64>, ServeError>>,
}

impl Ticket {
    /// Blocks until the request is executed or refused.
    pub fn wait(self) -> Result<Vec<f64>, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::SessionClosed))
    }
}

struct Request {
    x: Vec<f64>,
    width: usize,
    deadline: Option<Instant>,
    resp: mpsc::Sender<Result<Vec<f64>, ServeError>>,
}

/// Shared per-session queue state: the deque plus a closed flag,
/// signalled through one condvar (std primitives — the workspace shims
/// carry no bounded channels).
struct SessionQueue {
    state: Mutex<(VecDeque<Request>, bool)>,
    cond: Condvar,
    capacity: usize,
}

impl SessionQueue {
    fn new(capacity: usize) -> SessionQueue {
        SessionQueue { state: Mutex::new((VecDeque::new(), false)), cond: Condvar::new(), capacity }
    }

    fn push(&self, req: Request) -> Result<(), ServeError> {
        let mut st = self.state.lock().expect("queue lock");
        if st.1 {
            return Err(ServeError::SessionClosed);
        }
        if st.0.len() >= self.capacity {
            return Err(ServeError::QueueFull);
        }
        st.0.push_back(req);
        self.cond.notify_one();
        Ok(())
    }

    /// Natural batching: blocks until something is queued, then moves
    /// the head request into `batch` and — when it is single-RHS —
    /// every single-RHS request already queued behind it, up to `max`
    /// in all. A wide request runs alone. Returns `false` once the
    /// queue is closed **and** drained (close still lets queued work
    /// finish).
    fn take(&self, batch: &mut Vec<Request>, max: usize) -> bool {
        let mut st = self.state.lock().expect("queue lock");
        while st.0.is_empty() {
            if st.1 {
                return false;
            }
            st = self.cond.wait(st).expect("queue lock");
        }
        let head = st.0.pop_front().expect("the queue is not empty");
        let single = head.width == 1;
        batch.push(head);
        while single && batch.len() < max && st.0.front().is_some_and(|r| r.width == 1) {
            batch.extend(st.0.pop_front());
        }
        true
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").1 = true;
        self.cond.notify_all();
    }

    /// Closes the queue and refuses everything still in it — for a
    /// worker that can no longer execute requests.
    fn close_and_refuse(&self) {
        let pending = {
            let mut st = self.state.lock().expect("queue lock");
            st.1 = true;
            std::mem::take(&mut st.0)
        };
        self.cond.notify_all();
        for req in pending {
            let _ = req.resp.send(Err(ServeError::SessionClosed));
        }
    }
}

/// The server-wide core budget: `cores` permits, handed out first
/// come first served so that a wide team cannot starve behind a stream
/// of narrow ones.
struct CoreBudget {
    state: Mutex<BudgetState>,
    cond: Condvar,
    cores: usize,
}

struct BudgetState {
    free: usize,
    /// FIFO tickets: `acquire` draws `next` and proceeds once `serving`
    /// reaches it.
    next: u64,
    serving: u64,
}

impl BudgetState {
    /// Someone is waiting for permits or for their turn.
    fn contended(&self) -> bool {
        self.serving != self.next
    }
}

impl CoreBudget {
    fn new(cores: usize) -> CoreBudget {
        let cores = cores.max(1);
        let state = Mutex::new(BudgetState { free: cores, next: 0, serving: 0 });
        CoreBudget { state, cond: Condvar::new(), cores }
    }

    // Every update under this lock is a whole step, so a poisoned lock
    // still guards consistent counts (and `Permits::drop` must not
    // panic).
    fn lock(&self) -> std::sync::MutexGuard<'_, BudgetState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until every earlier caller has been served and `n ≤
    /// cores` permits are free, then holds them until the guard drops —
    /// on an unwind too, so a dying worker returns what it held.
    fn acquire(&self, n: usize) -> Permits<'_> {
        assert!(n <= self.cores, "a team of {n} can never fit {} cores", self.cores);
        let mut st = self.lock();
        let ticket = st.next;
        st.next += 1;
        while st.serving != ticket || st.free < n {
            st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.free -= n;
        st.serving += 1;
        if st.contended() {
            self.cond.notify_all();
        }
        Permits { budget: self, n }
    }
}

struct Permits<'a> {
    budget: &'a CoreBudget,
    n: usize,
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        let mut st = self.budget.lock();
        st.free += self.n;
        if st.contended() {
            self.budget.cond.notify_all();
        }
    }
}

/// `backend` with a pool team cut to `cores`, and the permits each of
/// its applies holds: its participants, at most `cores`.
fn cut_to_budget(backend: Backend, k: usize, cores: usize) -> (Backend, usize) {
    let permits = backend.participants(k, cores).min(cores);
    match backend {
        Backend::CompiledPool { pin, .. } => {
            (Backend::CompiledPool { threads: permits, pin }, permits)
        }
        other => (other, permits),
    }
}

struct SessionEntry {
    queue: Arc<SessionQueue>,
    worker: Option<JoinHandle<()>>,
    nrows: usize,
    ncols: usize,
}

/// A long-lived, multi-tenant SpMV server. See the module docs.
pub struct Server {
    config: ServerConfig,
    stats: Arc<ServeStats>,
    cache: PlanCache,
    budget: Arc<CoreBudget>,
    sessions: Mutex<HashMap<u64, SessionEntry>>,
    next_id: AtomicU64,
}

impl Server {
    /// A server with the given knobs, an empty registry and a core
    /// budget of this machine's `available_parallelism()`.
    pub fn new(config: ServerConfig) -> Server {
        Server::with_cores(config, std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    fn with_cores(config: ServerConfig, cores: usize) -> Server {
        let stats = Arc::new(ServeStats::new());
        let cache = PlanCache::new(config.cache_capacity, Arc::clone(&stats));
        Server {
            config,
            stats,
            cache,
            budget: Arc::new(CoreBudget::new(cores)),
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// The live serving counters.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// Plain-value reading of the counters, for reports
    /// (`ExecutionReport::with_serve`).
    pub fn snapshot(&self) -> ServeSnapshot {
        self.stats.snapshot()
    }

    /// The preparation cache (inspection / tests).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Registers `a` partitioned by `strategy` over `k` ranks and
    /// starts its worker. Repeat registrations of the same (matrix,
    /// strategy, k) hit the preparation cache and skip partitioning and
    /// compilation entirely — only the per-session operator setup runs.
    ///
    /// When [`ServerConfig::tuning_cache`] is set, the on-disk tuning
    /// cache is consulted first: a measured verdict for this (matrix,
    /// k, width) overrides `strategy` and the configured format and
    /// backend with the tuner's winners.
    pub fn register(&self, a: &Csr, strategy: Strategy, k: usize) -> SessionId {
        let width = self.config.max_coalesce.max(1);
        let ckey = ConfigKey::of(a, k, width);
        let tuned = self.config.tuning_cache.as_ref().and_then(|path| {
            let verdict = TuningCache::load(path).lookup(ckey).map(|e| e.choice);
            match verdict {
                Some(_) => self.stats.tuner_hit(),
                None => self.stats.tuner_miss(),
            }
            verdict
        });
        let (strategy, plan_kind, format, backend) = match tuned {
            Some(c) => (c.strategy, Some(c.plan_kind), c.format, Some(c.backend)),
            None => (strategy, None, self.config.format, self.config.backend),
        };
        let key = PrepKey { key: ckey, strategy: Some(strategy), plan_kind, format };
        let prep = self.cache.get_or_prepare(key, || {
            let mut b = Session::builder(a).partitioner(strategy, k).kernel_format(format);
            if let Some(kind) = plan_kind {
                b = b.plan_kind(kind);
            }
            b.prepare()
        });
        let backend = match (self.config.sharded, backend) {
            (true, _) => Backend::Threaded,
            (false, Some(backend)) => backend,
            (false, None) => Backend::auto(prep.compiled()),
        };
        let (backend, permits) = cut_to_budget(backend, prep.compiled().k, self.budget.cores);
        self.start(Box::new(prep.session(backend, width)), permits)
    }

    /// Starts a session over a ready operator whose applies occupy
    /// `participants` cores.
    fn start(&self, operator: Box<dyn SpmvOperator + Send>, participants: usize) -> SessionId {
        let (nrows, ncols) = (operator.nrows(), operator.ncols());
        let queue = Arc::new(SessionQueue::new(self.config.queue_capacity));
        let worker = spawn_worker(Worker {
            operator,
            participants,
            queue: Arc::clone(&queue),
            budget: Arc::clone(&self.budget),
            stats: Arc::clone(&self.stats),
            max_coalesce: self.config.max_coalesce.max(1),
        });
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sessions
            .lock()
            .expect("registry lock")
            .insert(id, SessionEntry { queue, worker: Some(worker), nrows, ncols });
        SessionId(id)
    }

    /// Submits one right-hand side (`x.len()` = the session's `ncols`,
    /// else [`ServeError::ShapeMismatch`]) with no deadline.
    pub fn submit(&self, sid: SessionId, x: Vec<f64>) -> Result<Ticket, ServeError> {
        self.submit_request(sid, x, 1, None)
    }

    /// [`Server::submit`] with a deadline: if the request is still
    /// queued when `deadline` passes, it is refused with
    /// [`ServeError::Expired`] instead of executed late.
    pub fn submit_with_deadline(
        &self,
        sid: SessionId,
        x: Vec<f64>,
        deadline: Instant,
    ) -> Result<Ticket, ServeError> {
        self.submit_request(sid, x, 1, Some(deadline))
    }

    /// Submits an already-batched request of `width` right-hand sides
    /// (row-major, `x.len()` = `ncols * width`, `width ≥ 1`, else
    /// [`ServeError::ShapeMismatch`]). Wide requests run as their own
    /// batch; they are not coalesced with others.
    pub fn submit_batch(
        &self,
        sid: SessionId,
        x: Vec<f64>,
        width: usize,
    ) -> Result<Ticket, ServeError> {
        self.submit_request(sid, x, width, None)
    }

    /// Submit-and-wait convenience.
    pub fn solve(&self, sid: SessionId, x: Vec<f64>) -> Result<Vec<f64>, ServeError> {
        self.submit(sid, x)?.wait()
    }

    fn submit_request(
        &self,
        sid: SessionId,
        x: Vec<f64>,
        width: usize,
        deadline: Option<Instant>,
    ) -> Result<Ticket, ServeError> {
        let (queue, ncols) = {
            let sessions = self.sessions.lock().expect("registry lock");
            let entry = sessions.get(&sid.0).ok_or(ServeError::SessionClosed)?;
            (Arc::clone(&entry.queue), entry.ncols)
        };
        // Caller-supplied shapes are outside input: refuse, don't
        // panic the caller's thread.
        if width == 0 || ncols.checked_mul(width) != Some(x.len()) {
            return Err(ServeError::ShapeMismatch);
        }
        let (tx, rx) = mpsc::channel();
        match queue.push(Request { x, width, deadline, resp: tx }) {
            Ok(()) => {
                self.stats.admit();
                Ok(Ticket { rx })
            }
            Err(e) => {
                if e == ServeError::QueueFull {
                    self.stats.reject_full();
                }
                Err(e)
            }
        }
    }

    /// The (nrows, ncols) shape a session serves.
    pub fn shape(&self, sid: SessionId) -> Option<(usize, usize)> {
        self.sessions.lock().expect("registry lock").get(&sid.0).map(|e| (e.nrows, e.ncols))
    }

    /// Closes one session: pending requests still execute, then the
    /// worker exits and the id stops resolving.
    pub fn unregister(&self, sid: SessionId) {
        let entry = self.sessions.lock().expect("registry lock").remove(&sid.0);
        if let Some(mut entry) = entry {
            entry.queue.close();
            if let Some(w) = entry.worker.take() {
                let _ = w.join();
            }
        }
    }

    /// Closes every session and joins all workers (also run on drop).
    pub fn shutdown(&self) {
        let drained: Vec<SessionEntry> = {
            let mut sessions = self.sessions.lock().expect("registry lock");
            sessions.drain().map(|(_, e)| e).collect()
        };
        for mut entry in drained {
            entry.queue.close();
            if let Some(w) = entry.worker.take() {
                let _ = w.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One session's worker: the operator, what it needs from the server,
/// and the request loop.
struct Worker {
    operator: Box<dyn SpmvOperator + Send>,
    /// Permits of the core budget each apply holds.
    participants: usize,
    queue: Arc<SessionQueue>,
    budget: Arc<CoreBudget>,
    stats: Arc<ServeStats>,
    max_coalesce: usize,
}

/// Spawns one session's worker. If the operator panics, the worker
/// does not just vanish with its queue still open (queued tickets and
/// every later submission would block forever): the unwind is caught
/// and counted, the queue is closed, and everything pending is answered
/// with [`ServeError::SessionClosed`]. The batch in flight during the
/// panic reads the same error — its response senders drop with the
/// unwind, as do the core-budget permits the apply held.
fn spawn_worker(mut worker: Worker) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let run = std::panic::AssertUnwindSafe(|| worker.run());
        if std::panic::catch_unwind(run).is_err() {
            worker.stats.worker_died();
            worker.queue.close_and_refuse();
        }
    })
}

/// A buffer of `len` elements for an operator to overwrite: `buf`
/// itself when its allocation fits and is not more than twice what is
/// needed (a caller must not be handed a solo result that pins a wide
/// request's block), else a fresh one. The contents are unspecified —
/// `apply*` overwrite every element.
fn recycle(mut buf: Vec<f64>, len: usize) -> Vec<f64> {
    if buf.capacity() < len || buf.capacity() / 2 > len {
        return vec![0.0; len];
    }
    buf.resize(len, 0.0);
    buf
}

impl Worker {
    /// Take what is queued, refuse what is late, execute, reply — until
    /// the queue is closed and drained.
    fn run(&mut self) {
        let mut batch = Vec::with_capacity(self.max_coalesce);
        // The previous solo request's `x`: the next solo response's `y`.
        let mut spare = Vec::new();
        // Row-major packed input and batched output of coalesced
        // batches, sized for `max_coalesce` on first use.
        let mut blocks = (Vec::new(), Vec::new());
        while self.queue.take(&mut batch, self.max_coalesce) {
            // Deadline gate at dequeue time: refused requests answer
            // immediately.
            let now = Instant::now();
            batch.retain(|req| {
                let late = req.deadline.is_some_and(|d| now >= d);
                if late {
                    self.stats.expire();
                    let _ = req.resp.send(Err(ServeError::Expired));
                }
                !late
            });
            match batch.len() {
                0 => {}
                1 => spare = self.run_one(batch.pop().expect("one request"), spare),
                _ => self.run_coalesced(&mut batch, &mut blocks),
            }
        }
    }

    /// Executes one request at its own width into the recycled `spare`
    /// and returns the consumed `x` as the next spare.
    fn run_one(&mut self, req: Request, spare: Vec<f64>) -> Vec<f64> {
        let mut y = recycle(spare, self.operator.nrows() * req.width);
        {
            let _cores = self.budget.acquire(self.participants);
            if req.width == 1 {
                self.operator.apply(&req.x, &mut y);
            } else {
                self.operator.apply_batch(&req.x, &mut y, req.width);
            }
        }
        self.stats.batch(1);
        // Count before replying: a caller that saw its result must also
        // see it in any later stats snapshot.
        self.stats.complete();
        let _ = req.resp.send(Ok(y));
        req.x
    }

    /// Executes `batch` (≥ 2 single-RHS requests) as one `apply_batch`
    /// and answers each request in its own, overwritten `x`.
    ///
    /// Determinism contract: column `q` of the batch is bitwise
    /// identical to running request `q` alone — both the compiled
    /// backends and the sharded executor keep per-column accumulation
    /// order independent of the batch width.
    fn run_coalesced(&mut self, batch: &mut Vec<Request>, blocks: &mut (Vec<f64>, Vec<f64>)) {
        let (nrows, ncols, r) = (self.operator.nrows(), self.operator.ncols(), batch.len());
        if blocks.0.is_empty() {
            *blocks = (vec![0.0; ncols * self.max_coalesce], vec![0.0; nrows * self.max_coalesce]);
        }
        let (packed, y) = (&mut blocks.0[..ncols * r], &mut blocks.1[..nrows * r]);
        for (j, row) in packed.chunks_exact_mut(r).enumerate() {
            for (slot, req) in row.iter_mut().zip(batch.iter()) {
                *slot = req.x[j];
            }
        }
        {
            let _cores = self.budget.acquire(self.participants);
            self.operator.apply_batch(packed, y, r);
        }
        self.stats.batch(r as u64);
        for req in batch.iter_mut() {
            req.x = recycle(std::mem::take(&mut req.x), nrows);
        }
        for (g, row) in y.chunks_exact(r).enumerate() {
            for (v, req) in row.iter().zip(batch.iter_mut()) {
                req.x[g] = *v;
            }
        }
        for req in batch.drain(..) {
            self.stats.complete();
            let _ = req.resp.send(Ok(req.x));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// A request for `x` at `width`, queued on `queue`.
    fn enqueue(queue: &SessionQueue, x: Vec<f64>, width: usize) -> Ticket {
        let (tx, rx) = mpsc::channel();
        queue.push(Request { x, width, deadline: None, resp: tx }).expect("admission");
        Ticket { rx }
    }

    /// An operator that panics on its second application.
    struct PanicsOnSecond {
        applied: usize,
    }

    impl SpmvOperator for PanicsOnSecond {
        fn nrows(&self) -> usize {
            2
        }

        fn ncols(&self) -> usize {
            2
        }

        fn apply(&mut self, x: &[f64], y: &mut [f64]) {
            self.applied += 1;
            assert!(self.applied < 2, "operator failure injected by the test");
            y.copy_from_slice(x);
        }
    }

    #[test]
    fn a_panicking_operator_closes_the_session_instead_of_hanging_it() {
        // A budget of one core: a permit the dead worker kept would
        // block every later apply on this server.
        let server =
            Server::with_cores(ServerConfig { max_coalesce: 1, ..ServerConfig::default() }, 1);
        let queue = Arc::new(SessionQueue::new(8));
        // Queue everything before the worker starts, so the requests
        // behind the fatal one are provably still queued when it dies.
        let tickets: Vec<Ticket> =
            (0..4).map(|i| enqueue(&queue, vec![i as f64, 1.0], 1)).collect();
        // max_coalesce 1: one request per batch, so the second batch is
        // the one that panics.
        let worker = spawn_worker(Worker {
            operator: Box::new(PanicsOnSecond { applied: 0 }),
            participants: 1,
            queue: Arc::clone(&queue),
            budget: Arc::clone(&server.budget),
            stats: Arc::clone(&server.stats),
            max_coalesce: 1,
        });
        let results: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(results[0], Ok(vec![0.0, 1.0]), "work before the panic completes");
        for (i, r) in results.iter().enumerate().skip(1) {
            assert_eq!(*r, Err(ServeError::SessionClosed), "request {i}");
        }
        worker.join().expect("the worker catches the unwind and exits cleanly");
        let (tx, _rx) = mpsc::channel();
        let late = Request { x: vec![0.0; 2], width: 1, deadline: None, resp: tx };
        assert_eq!(queue.push(late).err(), Some(ServeError::SessionClosed));
        assert_eq!(server.snapshot().worker_deaths, 1, "the death is counted");
        // The permit held across the fatal apply came back with the
        // unwind, so a later session on the same budget still runs.
        assert_eq!(server.budget.lock().free, 1);
        let sid = server.start(Box::new(PanicsOnSecond { applied: 0 }), 1);
        assert_eq!(server.solve(sid, vec![3.0, 4.0]), Ok(vec![3.0, 4.0]));
    }

    /// `y = 2x` at any width, recording the width of every execution.
    struct Doubles {
        n: usize,
        widths: Arc<Mutex<Vec<usize>>>,
    }

    impl SpmvOperator for Doubles {
        fn nrows(&self) -> usize {
            self.n
        }

        fn ncols(&self) -> usize {
            self.n
        }

        fn apply(&mut self, x: &[f64], y: &mut [f64]) {
            self.apply_batch(x, y, 1);
        }

        fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
            self.widths.lock().unwrap().push(r);
            for (out, v) in y.iter_mut().zip(x) {
                *out = 2.0 * v;
            }
        }
    }

    #[test]
    fn a_worker_batches_exactly_what_is_queued() {
        let n = 5;
        let input = |i: usize, width: usize| -> Vec<f64> {
            (0..n * width).map(|j| (i * 100 + j) as f64).collect()
        };
        // Queued before the worker exists: 3 singles, a width-2 block,
        // 9 singles. With max_coalesce 8 that is exactly the batches
        // [3] [wide] [8] [1] — no request waits for a batch to fill and
        // none overtakes another.
        let widths_in: Vec<usize> = (0..13).map(|i| if i == 3 { 2 } else { 1 }).collect();
        let server = Server::with_cores(ServerConfig::default(), 1);
        let queue = Arc::new(SessionQueue::new(64));
        let tickets: Vec<Ticket> =
            widths_in.iter().enumerate().map(|(i, &w)| enqueue(&queue, input(i, w), w)).collect();
        let widths = Arc::new(Mutex::new(Vec::new()));
        let worker = spawn_worker(Worker {
            operator: Box::new(Doubles { n, widths: Arc::clone(&widths) }),
            participants: 1,
            queue: Arc::clone(&queue),
            budget: Arc::clone(&server.budget),
            stats: Arc::clone(&server.stats),
            max_coalesce: 8,
        });
        for (i, (t, &w)) in tickets.into_iter().zip(&widths_in).enumerate() {
            let want: Vec<f64> = input(i, w).iter().map(|v| 2.0 * v).collect();
            assert_eq!(t.wait(), Ok(want), "request {i}");
        }
        queue.close();
        worker.join().expect("worker");
        assert_eq!(*widths.lock().unwrap(), [3, 2, 8, 1]);
        let snap = server.snapshot();
        assert_eq!((snap.batches, snap.coalesced, snap.completed), (4, 13, 13));
    }

    /// Copies `x` to `y`, and records how many applies of all probes
    /// sharing `running` / `peak` overlap. Each apply lingers until a
    /// second one is in flight (or `linger` passes), so an overlap the
    /// budget permits is observed, not just possible.
    struct Probe {
        running: Arc<AtomicUsize>,
        peak: Arc<AtomicUsize>,
        linger: Duration,
    }

    impl SpmvOperator for Probe {
        fn nrows(&self) -> usize {
            4
        }

        fn ncols(&self) -> usize {
            4
        }

        fn apply(&mut self, x: &[f64], y: &mut [f64]) {
            let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            let patience = Instant::now() + self.linger;
            while self.peak.load(Ordering::SeqCst) < 2 && Instant::now() < patience {
                std::thread::yield_now();
            }
            self.running.fetch_sub(1, Ordering::SeqCst);
            y.copy_from_slice(x);
        }
    }

    /// Two sessions of two-participant probes on a budget of `cores`,
    /// each hammered by its own client thread; returns the most applies
    /// ever in flight at once.
    fn peak_concurrent_applies(cores: usize, linger: Duration) -> usize {
        let config = ServerConfig { max_coalesce: 1, ..ServerConfig::default() };
        let server = Server::with_cores(config, cores);
        let (running, peak) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let sids: Vec<SessionId> = (0..2)
            .map(|_| {
                let probe =
                    Probe { running: Arc::clone(&running), peak: Arc::clone(&peak), linger };
                server.start(Box::new(probe), 2)
            })
            .collect();
        std::thread::scope(|scope| {
            for &sid in &sids {
                let server = &server;
                scope.spawn(move || {
                    for i in 0..20 {
                        let x = vec![i as f64; 4];
                        assert_eq!(server.solve(sid, x.clone()), Ok(x));
                    }
                });
            }
        });
        assert_eq!(server.budget.lock().free, cores, "every permit is back");
        peak.load(Ordering::SeqCst)
    }

    #[test]
    fn in_flight_participants_never_exceed_the_core_budget() {
        // Two teams of two on two cores take turns: each apply waits
        // 2 ms for company that the budget must never let in.
        assert_eq!(peak_concurrent_applies(2, Duration::from_millis(2)), 1);
        // On four cores both run at once — the first pair of applies
        // meets well within the patience.
        assert_eq!(peak_concurrent_applies(4, Duration::from_secs(10)), 2);
    }

    #[test]
    fn teams_are_cut_to_the_budget() {
        let pool = |threads| Backend::CompiledPool { threads, pin: false };
        // (backend, k, cores) -> (built backend, permits per apply)
        assert_eq!(cut_to_budget(Backend::CompiledSeq, 8, 4), (Backend::CompiledSeq, 1));
        assert_eq!(cut_to_budget(Backend::Mailbox, 8, 4), (Backend::Mailbox, 1));
        assert_eq!(cut_to_budget(pool(0), 8, 2), (pool(2), 2), "default sizing: min(K, cores)");
        assert_eq!(cut_to_budget(pool(0), 3, 16), (pool(3), 3));
        assert_eq!(cut_to_budget(pool(6), 8, 4), (pool(4), 4), "an oversized team is cut");
        assert_eq!(cut_to_budget(pool(6), 2, 4), (pool(2), 2), "never more than one per rank");
        assert_eq!(cut_to_budget(pool(0), 8, 1), (pool(1), 1));
        assert_eq!(cut_to_budget(Backend::Threaded, 8, 2), (Backend::Threaded, 2));
    }
}
