//! Serve-layer acceptance tests: the differential guarantees
//! (coalesced concurrent execution bitwise-identical to sequential
//! per-request solves, with and without chaos), admission behavior
//! (queue-full rejection, deadline expiry) and cache reuse across
//! registrations.

use std::sync::Arc;
use std::time::{Duration, Instant};

use s2d::{Session, Strategy};
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_runtime::ChaosConfig;
use s2d_serve::{ServeError, Server, ServerConfig};
use s2d_sparse::Csr;

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

    let server = Arc::new(Server::new(ServerConfig {
        max_coalesce: 8,
        batch_window: Duration::from_millis(2),
        ..ServerConfig::default()
    }));
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

#[test]
fn burst_from_one_client_coalesces() {
    let a = test_matrix(8);
    let server = Server::new(ServerConfig {
        max_coalesce: 8,
        batch_window: Duration::from_millis(20),
        ..ServerConfig::default()
    });
    let sid = server.register(&a, Strategy::OneDRow, 2);
    let n = 16;
    let inputs: Vec<Vec<f64>> = (0..n).map(|i| rhs(a.ncols(), i)).collect();
    let want = sequential_reference(&a, Strategy::OneDRow, 2, &inputs);
    let tickets: Vec<_> =
        inputs.into_iter().map(|x| server.submit(sid, x).expect("admission")).collect();
    for (i, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.wait().expect("solve"), want[i], "request {i}");
    }
    let snap = server.snapshot();
    assert_eq!(snap.completed, n as u64);
    // 16 requests fired before the first window closed: the worker must
    // have packed them into far fewer batches than requests.
    assert!(
        snap.batches < snap.completed,
        "expected coalescing: {} batches for {} requests",
        snap.batches,
        snap.completed
    );
    assert!(snap.coalescing_rate() > 1.0);
}

#[test]
fn chaotic_sharded_serving_is_bitwise_identical_to_quiet_solves() {
    let a = test_matrix(7);
    let (strategy, k) = (Strategy::OneDRow, 4);
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 4;
    let inputs: Vec<Vec<f64>> = (0..CLIENTS * PER_CLIENT).map(|i| rhs(a.ncols(), i)).collect();

    // Quiet per-request reference through the same endpoint walker.
    let quiet = {
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
        chaos: ChaosConfig::with_delays(100, 9),
        max_coalesce: 4,
        batch_window: Duration::from_millis(2),
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
                y, quiet[i],
                "request {i}: chaotic coalesced sharded run must match quiet run bitwise"
            );
        }
    }
    // One compiled program, one receive order: the sharded runs are
    // also the direct in-process CompiledSeq session's bits.
    assert_eq!(quiet, sequential_reference(&a, strategy, k, &inputs));
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
    let server = Server::new(ServerConfig {
        queue_capacity: 2,
        max_coalesce: 1,
        batch_window: Duration::ZERO,
        ..ServerConfig::default()
    });
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
    let server = Server::new(ServerConfig {
        max_coalesce: 4,
        batch_window: Duration::from_millis(5),
        ..ServerConfig::default()
    });
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

    let t0 = server.submit(sid, singles[0].clone()).expect("admit");
    let tw = server.submit_batch(sid, wide, 2).expect("admit");
    let t1 = server.submit(sid, singles[1].clone()).expect("admit");
    let t2 = server.submit(sid, singles[2].clone()).expect("admit");
    assert_eq!(t0.wait().expect("single 0"), want[0]);
    let yw = tw.wait().expect("wide");
    for q in 0..2 {
        let col: Vec<f64> = (0..a.nrows()).map(|g| yw[g * 2 + q]).collect();
        assert_eq!(col, wide_want[q], "wide column {q}");
    }
    assert_eq!(t1.wait().expect("single 1"), want[1]);
    assert_eq!(t2.wait().expect("single 2"), want[2]);
    assert_eq!(server.snapshot().completed, 4);
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
