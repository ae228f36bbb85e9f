//! Serve-layer acceptance tests: the differential guarantees
//! (coalesced concurrent execution bitwise-identical to sequential
//! per-request solves, in process and rank-sharded), admission behavior
//! (queue-full rejection, deadline expiry) and cache reuse across
//! registrations.

use std::sync::Arc;
use std::time::{Duration, Instant};

use s2d::{Session, Strategy};
use s2d_gen::fem::fem_like;
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_runtime::ChaosConfig;
use s2d_serve::{ServeError, Server, ServerConfig, SessionId};
use s2d_sparse::{Coo, Csr};

fn test_matrix(scale: u32) -> Csr {
    rmat(&RmatConfig::graph500(scale, 8), 42).to_csr()
}

/// Deterministic per-request input: request `i`'s RHS.
fn rhs(ncols: usize, i: usize) -> Vec<f64> {
    (0..ncols).map(|j| ((j * 31 + i * 17) % 23) as f64 - 11.0).collect()
}

/// Sequential per-request reference on the same compiled stack the
/// server uses.
fn sequential_reference(
    a: &Csr,
    strategy: Strategy,
    k: usize,
    inputs: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    let mut s = Session::builder(a).partitioner(strategy, k).build();
    inputs
        .iter()
        .map(|x| {
            let mut y = vec![0.0; a.nrows()];
            s.apply(x, &mut y);
            y
        })
        .collect()
}

#[test]
fn concurrent_coalesced_results_match_sequential_bitwise() {
    let a = test_matrix(8);
    let (strategy, k) = (Strategy::OneDRow, 4);
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;
    let inputs: Vec<Vec<f64>> = (0..CLIENTS * PER_CLIENT).map(|i| rhs(a.ncols(), i)).collect();
    let want = sequential_reference(&a, strategy, k, &inputs);

    let server = Arc::new(Server::new(ServerConfig::default()));
    let sid = server.register(&a, strategy, k);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = Arc::clone(&server);
            let inputs: Vec<Vec<f64>> =
                (0..PER_CLIENT).map(|m| inputs[c * PER_CLIENT + m].clone()).collect();
            std::thread::spawn(move || {
                // Fire all requests first, then wait — the server sees
                // real concurrency and can coalesce.
                let tickets: Vec<_> =
                    inputs.into_iter().map(|x| server.submit(sid, x).expect("admission")).collect();
                tickets.into_iter().map(|t| t.wait().expect("solve")).collect::<Vec<_>>()
            })
        })
        .collect();
    for (c, h) in handles.into_iter().enumerate() {
        let got = h.join().expect("client thread");
        for (m, y) in got.into_iter().enumerate() {
            let i = c * PER_CLIENT + m;
            assert_eq!(y, want[i], "request {i}: coalesced result must match sequential bitwise");
        }
    }
    let snap = server.snapshot();
    assert_eq!(snap.admitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(snap.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(snap.coalesced, snap.completed, "every request runs in some batch");
    assert!(snap.batches <= snap.completed);
    assert_eq!((snap.rejected_full, snap.expired), (0, 0));
}

/// Hands natural batching a known backlog from outside the crate:
/// occupies `sid`'s worker with one pre-batched request of `width`
/// right-hand sides — heavy enough, hundreds of times a submission,
/// that it is still running when `backlog` has queued everything — and
/// waits for it. Returns what `backlog` returned, and whether the plug
/// did hold (nothing completed before the last submission was in): if
/// a descheduled test thread let the worker get ahead, batch counts are
/// not what the test set up, and only results can be asserted.
fn behind_a_plug<T>(
    server: &Server,
    sid: SessionId,
    ncols: usize,
    width: usize,
    backlog: impl FnOnce() -> T,
) -> (T, bool) {
    let wide: Vec<f64> = (0..ncols * width).map(|i| (i % 13) as f64).collect();
    let before = server.snapshot().completed;
    let plug = server.submit_batch(sid, wide, width).expect("plug admitted");
    let queued = backlog();
    let held = server.snapshot().completed == before;
    plug.wait().expect("plug");
    (queued, held)
}

/// Plug width for the small test matrices: no specialized kernel width,
/// so a slow apply.
const SLOW: usize = 4093;

#[test]
fn burst_from_one_client_coalesces() {
    let a = test_matrix(8);
    let server = Server::new(ServerConfig::default());
    let sid = server.register(&a, Strategy::OneDRow, 2);
    let n = 16;
    let inputs: Vec<Vec<f64>> = (0..n).map(|i| rhs(a.ncols(), i)).collect();
    let want = sequential_reference(&a, Strategy::OneDRow, 2, &inputs);
    let (tickets, held) = behind_a_plug(&server, sid, a.ncols(), SLOW, || {
        inputs.into_iter().map(|x| server.submit(sid, x).expect("admission")).collect::<Vec<_>>()
    });
    for (i, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.wait().expect("solve"), want[i], "request {i}");
    }
    let snap = server.snapshot();
    assert_eq!(snap.completed, 1 + n as u64);
    // All 16 queued behind the plug: the worker takes them as two full
    // batches, without ever having waited for one to fill.
    assert!(
        !held || snap.batches <= 1 + (n as u64).div_ceil(8),
        "expected coalescing: {} batches for {} requests",
        snap.batches,
        snap.completed
    );
}

#[test]
fn the_default_server_matches_a_sequential_csr_session_bitwise() {
    // 442 k multiply-adds per apply: `Backend::auto` puts this session
    // on the pool wherever there are two cores, and `KernelFormat::Auto`
    // picks its kernels. The reference is the plainest engine there is
    // (`CompiledSeq` + `CsrSlice`).
    let a = fem_like(1 << 14, 27.0, 27, 1);
    let (strategy, k) = (Strategy::OneDRow, 4);
    let inputs: Vec<Vec<f64>> = (0..64).map(|i| rhs(a.ncols(), i)).collect();
    let want = sequential_reference(&a, strategy, k, &inputs);

    let server = Server::new(ServerConfig::default());
    let sid = server.register(&a, strategy, k);
    let mut all_held = true;
    for round in 0..4 {
        // Eight solo round trips ...
        let base = round * 16;
        for i in base..base + 8 {
            assert_eq!(server.solve(sid, inputs[i].clone()).expect("solve"), want[i], "solo {i}");
        }
        // ... then eight fired at once behind a wide request, which the
        // worker takes as one batch.
        let (tickets, held) = behind_a_plug(&server, sid, a.ncols(), 8, || {
            (base + 8..base + 16)
                .map(|i| (i, server.submit(sid, inputs[i].clone()).expect("admission")))
                .collect::<Vec<_>>()
        });
        all_held &= held;
        for (i, t) in tickets {
            assert_eq!(t.wait().expect("solve"), want[i], "coalesced {i}");
        }
    }
    let snap = server.snapshot();
    assert_eq!((snap.completed, snap.worker_deaths), (64 + 4, 0));
    assert!(!all_held || snap.batches <= 4 * (8 + 1 + 1), "{} batches", snap.batches);
}

/// A `nrows × ncols` matrix with four entries per row at scattered
/// columns.
fn rectangular(nrows: usize, ncols: usize) -> Csr {
    let mut m = Coo::new(nrows, ncols);
    for i in 0..nrows {
        for t in 0..4 {
            m.push(
                i,
                (i * 7 + t * 29 + (i * t) % 5) % ncols,
                1.0 + ((i + 3 * t) % 11) as f64 * 0.5,
            );
        }
    }
    m.compress();
    m.to_csr()
}

#[test]
fn wide_and_tall_matrices_are_served_bitwise() {
    // Either side of the factor of two at which a consumed `x` stops
    // being recycled as a `y`, in both directions.
    for (nrows, ncols) in [(40, 130), (100, 130), (130, 100), (130, 40)] {
        let a = rectangular(nrows, ncols);
        let (strategy, k) = (Strategy::OneDRow, 3);
        let inputs: Vec<Vec<f64>> = (0..9).map(|i| rhs(ncols, i)).collect();
        let want = sequential_reference(&a, strategy, k, &inputs);
        let server = Server::new(ServerConfig::default());
        let sid = server.register(&a, strategy, k);
        assert_eq!(server.shape(sid), Some((nrows, ncols)));
        let solo = |i: usize| {
            let y = server.solve(sid, inputs[i].clone()).expect("solve");
            assert_eq!(y, want[i], "{nrows}x{ncols} solo {i}");
        };
        // The second solo answers in the first one's `x`.
        solo(0);
        solo(1);
        let (tickets, held) = behind_a_plug(&server, sid, ncols, SLOW, || {
            (2..8)
                .map(|i| server.submit(sid, inputs[i].clone()).expect("admission"))
                .collect::<Vec<_>>()
        });
        for (i, t) in (2..8).zip(tickets) {
            assert_eq!(t.wait().expect("solve"), want[i], "{nrows}x{ncols} coalesced {i}");
        }
        // A solo right after a wide request must not inherit its block.
        solo(8);
        let snap = server.snapshot();
        assert_eq!(snap.completed, 10);
        assert!(!held || snap.batches <= 5, "{nrows}x{ncols}: {} batches", snap.batches);
    }
}

#[test]
fn coalesced_sharded_serving_is_bitwise_identical_to_per_request_solves() {
    let a = test_matrix(7);
    let (strategy, k) = (Strategy::OneDRow, 4);
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 4;
    let inputs: Vec<Vec<f64>> = (0..CLIENTS * PER_CLIENT).map(|i| rhs(a.ncols(), i)).collect();

    // Per-request reference through the same endpoint walker.
    let solo = {
        use s2d::SpmvOperator;
        let prep = Session::builder(&a).partitioner(strategy, k).prepare();
        let mut op = s2d_engine::EndpointOperator::new(
            Arc::clone(prep.compiled()),
            ChaosConfig::off(),
            None,
        );
        inputs
            .iter()
            .map(|x| {
                let mut y = vec![0.0; a.nrows()];
                op.apply(x, &mut y);
                y
            })
            .collect::<Vec<_>>()
    };

    let server = Arc::new(Server::new(ServerConfig {
        sharded: true,
        max_coalesce: 4,
        ..ServerConfig::default()
    }));
    let sid = server.register(&a, strategy, k);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = Arc::clone(&server);
            let inputs: Vec<Vec<f64>> =
                (0..PER_CLIENT).map(|m| inputs[c * PER_CLIENT + m].clone()).collect();
            std::thread::spawn(move || {
                let tickets: Vec<_> =
                    inputs.into_iter().map(|x| server.submit(sid, x).expect("admission")).collect();
                tickets.into_iter().map(|t| t.wait().expect("solve")).collect::<Vec<_>>()
            })
        })
        .collect();
    for (c, h) in handles.into_iter().enumerate() {
        for (m, y) in h.join().expect("client").into_iter().enumerate() {
            let i = c * PER_CLIENT + m;
            assert_eq!(
                y, solo[i],
                "request {i}: coalesced sharded run must match solo run bitwise"
            );
        }
    }
    // One compiled program, one receive order: the sharded runs are
    // also the direct in-process CompiledSeq session's bits.
    assert_eq!(solo, sequential_reference(&a, strategy, k, &inputs));
    assert_eq!(server.snapshot().completed, (CLIENTS * PER_CLIENT) as u64);
}

#[test]
fn repeat_registrations_hit_the_preparation_cache() {
    let a = test_matrix(7);
    let server = Server::new(ServerConfig::default());
    let s1 = server.register(&a, Strategy::OneDRow, 4);
    let s2 = server.register(&a, Strategy::OneDRow, 4); // same prep → hit
    let s3 = server.register(&a, Strategy::OneDRow, 2); // different k → miss
    let snap = server.snapshot();
    assert_eq!((snap.cache_hits, snap.cache_misses), (1, 2));
    assert_eq!(server.cache().len(), 2);
    // All three sessions serve correct answers.
    let x = rhs(a.ncols(), 0);
    let want = a.spmv_alloc(&x);
    for sid in [s1, s2, s3] {
        let y = server.solve(sid, x.clone()).expect("solve");
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
        }
    }
}

#[test]
fn cache_eviction_keeps_the_store_bounded() {
    let a7 = test_matrix(7);
    let a8 = test_matrix(8);
    let server = Server::new(ServerConfig { cache_capacity: 2, ..ServerConfig::default() });
    server.register(&a7, Strategy::OneDRow, 2);
    server.register(&a7, Strategy::OneDRow, 4);
    server.register(&a8, Strategy::OneDRow, 2); // third prep → evicts one
    let snap = server.snapshot();
    assert_eq!(snap.cache_misses, 3);
    assert_eq!(snap.cache_evictions, 1);
    assert_eq!(server.cache().len(), 2);
}

#[test]
fn full_queues_reject_instead_of_blocking() {
    // A heavy pre-batched request occupies the worker; the tiny queue
    // behind it fills and the next submission must bounce immediately.
    let a = test_matrix(12);
    let server =
        Server::new(ServerConfig { queue_capacity: 2, max_coalesce: 1, ..ServerConfig::default() });
    let sid = server.register(&a, Strategy::OneDRow, 4);
    let wide: Vec<f64> = (0..a.ncols() * 8).map(|i| (i % 13) as f64).collect();
    let busy = server.submit_batch(sid, wide, 8).expect("first request admitted");
    // While the worker grinds through the wide batch, fill the queue.
    let mut outcomes = Vec::new();
    for i in 0..8 {
        outcomes.push(server.submit(sid, rhs(a.ncols(), i)).err());
    }
    let rejected = outcomes.iter().filter(|o| **o == Some(ServeError::QueueFull)).count();
    assert!(rejected >= 6, "queue of 2 must bounce most of 8 instant submissions");
    assert_eq!(server.snapshot().rejected_full, rejected as u64);
    let y = busy.wait().expect("wide batch still completes");
    assert_eq!(y.len(), a.nrows() * 8);
}

#[test]
fn expired_deadlines_are_refused_not_executed() {
    let a = test_matrix(7);
    let server = Server::new(ServerConfig::default());
    let sid = server.register(&a, Strategy::OneDRow, 2);
    // A deadline already in the past must be refused at dequeue.
    let t = server
        .submit_with_deadline(sid, rhs(a.ncols(), 0), Instant::now() - Duration::from_millis(1))
        .expect("admission succeeds; expiry happens at dequeue");
    assert_eq!(t.wait(), Err(ServeError::Expired));
    // A generous deadline executes normally.
    let t = server
        .submit_with_deadline(sid, rhs(a.ncols(), 1), Instant::now() + Duration::from_secs(30))
        .expect("admission");
    assert!(t.wait().is_ok());
    let snap = server.snapshot();
    assert_eq!(snap.expired, 1);
    assert_eq!(snap.completed, 1);
}

#[test]
fn mixed_width_requests_interleave_correctly() {
    let a = test_matrix(7);
    let server = Server::new(ServerConfig { max_coalesce: 4, ..ServerConfig::default() });
    let sid = server.register(&a, Strategy::OneDRow, 2);
    let singles: Vec<Vec<f64>> = (0..3).map(|i| rhs(a.ncols(), i)).collect();
    let want = sequential_reference(&a, Strategy::OneDRow, 2, &singles);
    // Row-major width-2 block from inputs 10 and 11.
    let (wa, wb) = (rhs(a.ncols(), 10), rhs(a.ncols(), 11));
    let mut wide = vec![0.0; a.ncols() * 2];
    for j in 0..a.ncols() {
        wide[j * 2] = wa[j];
        wide[j * 2 + 1] = wb[j];
    }
    let wide_want = sequential_reference(&a, Strategy::OneDRow, 2, &[wa, wb]);

    let ((t0, tw, t1, t2), held) = behind_a_plug(&server, sid, a.ncols(), SLOW, || {
        (
            server.submit(sid, singles[0].clone()).expect("admit"),
            server.submit_batch(sid, wide, 2).expect("admit"),
            server.submit(sid, singles[1].clone()).expect("admit"),
            server.submit(sid, singles[2].clone()).expect("admit"),
        )
    });
    assert_eq!(t0.wait().expect("single 0"), want[0]);
    let yw = tw.wait().expect("wide");
    for q in 0..2 {
        let col: Vec<f64> = (0..a.nrows()).map(|g| yw[g * 2 + q]).collect();
        assert_eq!(col, wide_want[q], "wide column {q}");
    }
    assert_eq!(t1.wait().expect("single 1"), want[1]);
    assert_eq!(t2.wait().expect("single 2"), want[2]);
    let snap = server.snapshot();
    assert_eq!(snap.completed, 5);
    // The wide request splits the backlog, and nothing overtakes it:
    // plug, [0], wide, [1, 2].
    assert!(!held || snap.batches <= 4, "{} batches", snap.batches);
}

#[test]
fn tuning_cache_verdicts_override_the_configured_defaults() {
    use s2d_tune::{TuneBudget, Tuner};
    let a = test_matrix(7);
    let path = std::env::temp_dir().join(format!("s2d-serve-tune-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig { tuning_cache: Some(path.clone()), ..ServerConfig::default() };
    let width = config.max_coalesce.max(1);

    // No verdict on disk yet: the lookup is a miss and the configured
    // defaults serve.
    let server = Server::new(config.clone());
    let sid = server.register(&a, Strategy::OneDRow, 4);
    let snap = server.snapshot();
    assert_eq!((snap.tuner_hits, snap.tuner_misses), (0, 1));
    assert!(server.solve(sid, rhs(a.ncols(), 0)).is_ok());
    drop(server);

    // Tune the exact serve workload (same matrix, k, coalescing width)
    // into the cache, then register again: hit, and the measured
    // configuration overrides strategy/format/backend.
    let verdict = Tuner::new(&a, 4).width(width).budget(TuneBudget::fast()).cache(&path).run();
    let server = Server::new(config);
    let sid = server.register(&a, Strategy::OneDRow, 4);
    let snap = server.snapshot();
    assert_eq!((snap.tuner_hits, snap.tuner_misses), (1, 0));
    // The tuned strategy (not the requested OneDRow) produced the prep,
    // and the served answers stay correct under it.
    let x = rhs(a.ncols(), 3);
    let want = a.spmv_alloc(&x);
    let y = server.solve(sid, x).expect("tuned session serves");
    for (g, w) in y.iter().zip(&want) {
        assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{}: {g} vs {w}", verdict.winner);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unregister_closes_the_session_and_runs_pending_work() {
    let a = test_matrix(7);
    let server = Server::new(ServerConfig::default());
    let sid = server.register(&a, Strategy::OneDRow, 2);
    let t = server.submit(sid, rhs(a.ncols(), 0)).expect("admit");
    server.unregister(sid);
    assert!(t.wait().is_ok(), "queued work finishes before the worker exits");
    assert_eq!(server.submit(sid, rhs(a.ncols(), 1)).err(), Some(ServeError::SessionClosed));
}

#[test]
fn malformed_requests_are_refused_not_panicked_on() {
    let a = test_matrix(6);
    let server = Server::new(ServerConfig::default());
    let sid = server.register(&a, Strategy::OneDRow, 2);
    let n = a.ncols();
    // Wrong length, at width 1 and as a batch.
    assert_eq!(server.submit(sid, vec![0.0; n + 1]).err(), Some(ServeError::ShapeMismatch));
    assert_eq!(server.submit(sid, Vec::new()).err(), Some(ServeError::ShapeMismatch));
    let soon = Instant::now() + Duration::from_secs(5);
    assert_eq!(
        server.submit_with_deadline(sid, vec![0.0; n - 1], soon).err(),
        Some(ServeError::ShapeMismatch)
    );
    assert_eq!(
        server.submit_batch(sid, vec![0.0; 2 * n], 3).err(),
        Some(ServeError::ShapeMismatch)
    );
    // Width 0 is malformed whatever the length.
    assert_eq!(server.submit_batch(sid, Vec::new(), 0).err(), Some(ServeError::ShapeMismatch));
    assert_eq!(server.submit_batch(sid, vec![0.0; n], 0).err(), Some(ServeError::ShapeMismatch));
    // An id that names no session.
    server.unregister(sid);
    assert_eq!(server.submit(sid, vec![0.0; n]).err(), Some(ServeError::SessionClosed));
    // Nothing above was admitted, and the server still serves.
    assert_eq!(server.snapshot().admitted, 0);
    let sid = server.register(&a, Strategy::OneDRow, 2);
    let y = server.solve(sid, rhs(n, 0)).expect("solve");
    for (g, w) in y.iter().zip(&a.spmv_alloc(&rhs(n, 0))) {
        assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
    }
}
