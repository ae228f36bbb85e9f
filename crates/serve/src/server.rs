//! The serving front end: session registry, request admission and
//! cross-request coalescing.
//!
//! One [`Server`] owns any number of registered sessions (matrix +
//! partitioning + compiled backend), each with a bounded request queue
//! and a dedicated worker thread. Clients submit right-hand sides and
//! get a [`Ticket`] to wait on; the worker packs up to
//! [`ServerConfig::max_coalesce`] pending single-RHS requests arriving
//! within [`ServerConfig::batch_window`] into **one** `apply_batch`
//! execution — the multi-RHS reuse win the engine benches measured —
//! and scatters the result columns back to their callers. Admission is
//! strict: a full queue rejects immediately ([`ServeError::QueueFull`])
//! and a request whose deadline passed before execution is refused
//! ([`ServeError::Expired`]), so overload degrades by shedding load,
//! never by growing latency without bound.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use s2d::{Backend, ConfigKey, KernelFormat, Session, SpmvOperator, Strategy};
use s2d_engine::EndpointOperator;
use s2d_obs::{ServeSnapshot, ServeStats};
use s2d_runtime::ChaosConfig;
use s2d_sparse::Csr;
use s2d_tune::TuningCache;

use crate::cache::{PlanCache, PrepKey};

/// Serving knobs; [`ServerConfig::default`] is the sensible production
/// shape (coalescing on, bounded queues, in-process compiled backend).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Backend each session's worker executes on.
    pub backend: Backend,
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
    /// How long a worker holding a partial batch waits for more
    /// requests before executing what it has.
    pub batch_window: Duration,
    /// Preparation-cache capacity (entries).
    pub cache_capacity: usize,
    /// Run sessions rank-sharded — the cached compiled plan walked over
    /// `s2d-runtime` endpoints, one rank per thread — instead of on the
    /// in-process backend (the distributed-execution path; results are
    /// bitwise identical).
    pub sharded: bool,
    /// Delivery-delay injection for sharded sessions (ignored
    /// otherwise) — fault-testing knob, results stay bitwise identical.
    pub chaos: ChaosConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            backend: Backend::CompiledSeq,
            format: KernelFormat::CsrSlice,
            tuning_cache: None,
            queue_capacity: 64,
            max_coalesce: 8,
            batch_window: Duration::from_micros(200),
            cache_capacity: 8,
            sharded: false,
            chaos: ChaosConfig::off(),
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
    sessions: Mutex<HashMap<u64, SessionEntry>>,
    next_id: AtomicU64,
}

impl Server {
    /// A server with the given knobs and an empty registry.
    pub fn new(config: ServerConfig) -> Server {
        let stats = Arc::new(ServeStats::new());
        let cache = PlanCache::new(config.cache_capacity, Arc::clone(&stats));
        Server {
            config,
            stats,
            cache,
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
        let (strategy, plan_kind, format, isa, backend) = match tuned {
            Some(c) => (c.strategy, Some(c.plan_kind), c.format, c.isa, c.backend),
            None => (strategy, None, self.config.format, s2d::KernelIsa::Auto, self.config.backend),
        };
        let key = PrepKey { key: ckey, strategy: Some(strategy), plan_kind, format, isa };
        let prep = self.cache.get_or_prepare(key, || {
            let mut b =
                Session::builder(a).partitioner(strategy, k).kernel_format(format).kernel_isa(isa);
            if let Some(kind) = plan_kind {
                b = b.plan_kind(kind);
            }
            b.prepare()
        });
        let operator: Box<dyn SpmvOperator + Send> = if self.config.sharded {
            Box::new(EndpointOperator::new(Arc::clone(prep.compiled()), self.config.chaos, None))
        } else {
            Box::new(prep.session(backend, width))
        };
        let (nrows, ncols) = (operator.nrows(), operator.ncols());
        let queue = Arc::new(SessionQueue::new(self.config.queue_capacity));
        let worker = spawn_worker(
            operator,
            Arc::clone(&queue),
            Arc::clone(&self.stats),
            self.config.max_coalesce.max(1),
            self.config.batch_window,
        );
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

/// Spawns one session's worker. If the operator panics, the worker
/// does not just vanish with its queue still open (queued tickets and
/// every later submission would block forever): the unwind is caught,
/// the queue is closed, and everything pending is answered with
/// [`ServeError::SessionClosed`]. The batch in flight during the panic
/// reads the same error — its response senders drop with the unwind.
fn spawn_worker(
    mut operator: Box<dyn SpmvOperator + Send>,
    queue: Arc<SessionQueue>,
    stats: Arc<ServeStats>,
    max_coalesce: usize,
    batch_window: Duration,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let run = std::panic::AssertUnwindSafe(|| {
            worker_loop(&mut *operator, &queue, &stats, max_coalesce, batch_window)
        });
        if std::panic::catch_unwind(run).is_err() {
            queue.close_and_refuse();
        }
    })
}

/// One session's worker body: pull, coalesce, execute, scatter — until
/// the queue is closed and drained.
fn worker_loop(
    operator: &mut dyn SpmvOperator,
    queue: &SessionQueue,
    stats: &ServeStats,
    max_coalesce: usize,
    batch_window: Duration,
) {
    let nrows = operator.nrows();
    loop {
        // Block for the first request (or exit once closed AND
        // drained — close still lets queued work finish).
        let first = {
            let mut st = queue.state.lock().expect("queue lock");
            loop {
                if let Some(req) = st.0.pop_front() {
                    break req;
                }
                if st.1 {
                    return;
                }
                st = queue.cond.wait(st).expect("queue lock");
            }
        };
        let Some(first) = admit_or_expire(first, stats) else { continue };

        if first.width > 1 {
            // Pre-batched request: runs alone.
            run_batch(operator, nrows, vec![first], stats);
            continue;
        }

        // Coalesce: gather more single-RHS requests until the batch
        // is full, a wide request heads the queue, or the window
        // closes.
        let mut batch = vec![first];
        let window_end = Instant::now() + batch_window;
        loop {
            if batch.len() >= max_coalesce {
                break;
            }
            let mut st = queue.state.lock().expect("queue lock");
            while batch.len() < max_coalesce && st.0.front().is_some_and(|r| r.width == 1) {
                let req = st.0.pop_front().expect("front checked");
                drop(st);
                if let Some(req) = admit_or_expire(req, stats) {
                    batch.push(req);
                }
                st = queue.state.lock().expect("queue lock");
            }
            if batch.len() >= max_coalesce || st.0.front().is_some_and(|r| r.width > 1) || st.1 {
                break;
            }
            let now = Instant::now();
            if now >= window_end {
                break;
            }
            let (guard, timeout) =
                queue.cond.wait_timeout(st, window_end - now).expect("queue lock");
            drop(guard);
            if timeout.timed_out() {
                break;
            }
        }
        run_batch(operator, nrows, batch, stats);
    }
}

/// Deadline gate at dequeue time: refused requests answer immediately.
fn admit_or_expire(req: Request, stats: &ServeStats) -> Option<Request> {
    if req.deadline.is_some_and(|d| Instant::now() >= d) {
        stats.expire();
        let _ = req.resp.send(Err(ServeError::Expired));
        return None;
    }
    Some(req)
}

/// Executes one batch and scatters result columns back to the callers.
///
/// Determinism contract: a single-request batch runs `apply` (width
/// `r > 1` requests run `apply_batch` with their own width), and a
/// coalesced batch runs one `apply_batch` whose column `q` is bitwise
/// identical to running request `q` alone — both the compiled backends
/// and the sharded executor keep per-column accumulation order
/// independent of the batch width.
fn run_batch(
    operator: &mut dyn SpmvOperator,
    nrows: usize,
    batch: Vec<Request>,
    stats: &ServeStats,
) {
    if batch.is_empty() {
        return;
    }
    if batch.len() == 1 {
        let req = &batch[0];
        let mut y = vec![0.0; nrows * req.width];
        if req.width == 1 {
            operator.apply(&req.x, &mut y);
        } else {
            operator.apply_batch(&req.x, &mut y, req.width);
        }
        stats.batch(1);
        // Count before replying: a caller that saw its result must also
        // see it in any later stats snapshot.
        stats.complete();
        let _ = batch[0].resp.send(Ok(y));
        return;
    }
    // Pack the coalesced single-RHS requests into one row-major block.
    let r = batch.len();
    let ncols = batch[0].x.len();
    let mut packed = vec![0.0; ncols * r];
    for (q, req) in batch.iter().enumerate() {
        for (j, &v) in req.x.iter().enumerate() {
            packed[j * r + q] = v;
        }
    }
    let mut y = vec![0.0; nrows * r];
    operator.apply_batch(&packed, &mut y, r);
    stats.batch(r as u64);
    for (q, req) in batch.into_iter().enumerate() {
        let col: Vec<f64> = (0..nrows).map(|g| y[g * r + q]).collect();
        stats.complete();
        let _ = req.resp.send(Ok(col));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let queue = Arc::new(SessionQueue::new(8));
        let stats = Arc::new(ServeStats::new());
        // Queue everything before the worker starts, so the requests
        // behind the fatal one are provably still queued when it dies.
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| {
                let (tx, rx) = mpsc::channel();
                let req = Request { x: vec![i as f64, 1.0], width: 1, deadline: None, resp: tx };
                queue.push(req).expect("admission");
                Ticket { rx }
            })
            .collect();
        // max_coalesce 1: one request per batch, so the second batch is
        // the one that panics.
        let worker = spawn_worker(
            Box::new(PanicsOnSecond { applied: 0 }),
            Arc::clone(&queue),
            stats,
            1,
            Duration::ZERO,
        );
        let results: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(results[0], Ok(vec![0.0, 1.0]), "work before the panic completes");
        for (i, r) in results.iter().enumerate().skip(1) {
            assert_eq!(*r, Err(ServeError::SessionClosed), "request {i}");
        }
        worker.join().expect("the worker catches the unwind and exits cleanly");
        let (tx, _rx) = mpsc::channel();
        let late = Request { x: vec![0.0; 2], width: 1, deadline: None, resp: tx };
        assert_eq!(queue.push(late).err(), Some(ServeError::SessionClosed));
    }
}
