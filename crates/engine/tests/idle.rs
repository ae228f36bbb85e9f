//! What an idle pool costs, observed from outside: CPU time and OS
//! threads of this process. A test binary of its own — and a single
//! test in it — so that nothing else runs in the process while it
//! measures.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;

use s2d_core::fig1::{fig1_matrix, fig1_partition};
use s2d_engine::{Backend, CompiledPlan, ParallelEngine, PoolOptions};
use s2d_spmv::{SpmvOperator, SpmvPlan};

/// `utime + stime` of this process (all its threads), in seconds.
fn cpu_seconds() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: plain libc query without pointer arguments.
    let ticks_per_sec = unsafe { sysconf(SC_CLK_TCK) };
    assert!(ticks_per_sec > 0, "sysconf(_SC_CLK_TCK)");
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / ticks_per_sec as f64
}

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn an_idle_pool_burns_no_cpu_and_one_participant_spawns_nothing() {
    let a = fig1_matrix();
    let plan = Arc::new(SpmvPlan::single_phase(&a, &fig1_partition()));
    let cp = CompiledPlan::compile(&plan);
    let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64 - 2.0).collect();
    let mut y = vec![0.0; a.nrows()];

    // One participant: the caller does everything, no OS thread appears.
    let before = os_threads();
    let mut solo = ParallelEngine::with_options(
        cp.clone(),
        PoolOptions { threads: 1, ..PoolOptions::default() },
    );
    solo.apply(&x, &mut y);
    assert_eq!(os_threads(), before, "threads: 1 must not spawn");
    drop(solo);
    // The sequential backend is that team of one.
    let mut seq = Backend::CompiledSeq.build(&plan, &Arc::new(cp.clone()), 1, None);
    let mut by_seq = vec![0.0; a.nrows()];
    seq.apply(&x, &mut by_seq);
    assert_eq!(by_seq, y);
    assert_eq!(os_threads(), before, "CompiledSeq must not spawn");
    drop(seq);

    // Three participants = two spawned workers. After a job they spin
    // for a bounded budget and park; 300 ms of idling two spinning (or
    // yielding) workers would cost ~600 ms of CPU.
    let mut team =
        ParallelEngine::with_options(cp, PoolOptions { threads: 3, ..PoolOptions::default() });
    assert_eq!(os_threads(), before + 2, "threads: 3 spawns two workers");
    let mut again = vec![0.0; a.nrows()];
    team.apply(&x, &mut again);
    assert_eq!(again, y);
    let cpu = cpu_seconds();
    std::thread::sleep(Duration::from_millis(300));
    let burnt = cpu_seconds() - cpu;
    assert!(burnt < 0.1, "an idle pool burnt {burnt:.3} s of CPU in 300 ms");
    // Parked workers still wake up for the next job, and for shutdown.
    team.apply(&x, &mut again);
    assert_eq!(again, y);
    // A batch wider than the pool was built for rebuilds the team, and
    // the old team goes first: two workers, never four.
    let r = 4;
    let block: Vec<f64> = x.iter().flat_map(|&v| [v; 4]).collect();
    let mut wide = vec![0.0; a.nrows() * r];
    team.apply_batch(&block, &mut wide, r);
    assert_eq!(os_threads(), before + 2, "width growth joins the old team before spawning");
    assert!(wide.chunks(r).zip(&y).all(|(row, &v)| row.iter().all(|&w| w == v)));
    drop(team);
    assert_eq!(os_threads(), before, "Drop joins every worker");
}
