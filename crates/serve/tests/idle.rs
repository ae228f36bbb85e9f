//! What a registered but idle server costs, observed from outside: CPU
//! time of this process. A test binary of its own — and a single test
//! in it — so that nothing else runs in the process while it measures
//! (the probe is `s2d-engine`'s `tests/idle.rs`).

#![cfg(target_os = "linux")]

use std::time::Duration;

use s2d::Strategy;
use s2d_gen::fem::fem_like;
use s2d_serve::{Server, ServerConfig};

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

#[test]
fn an_idle_default_server_burns_no_cpu() {
    // Big enough for `Backend::auto` to give the session a pool team
    // wherever there are two cores: the session worker, its team and
    // the budget must all be asleep between requests.
    let a = fem_like(1 << 14, 27.0, 27, 1);
    let server = Server::new(ServerConfig::default());
    let sid = server.register(&a, Strategy::OneDRow, 4);
    let x = vec![1.0; a.ncols()];
    let y = server.solve(sid, x.clone()).expect("solve");
    let cpu = cpu_seconds();
    std::thread::sleep(Duration::from_millis(300));
    let burnt = cpu_seconds() - cpu;
    assert!(burnt < 0.1, "an idle server burnt {burnt:.3} s of CPU in 300 ms");
    // Everything wakes up for the next request.
    assert_eq!(server.solve(sid, x).expect("solve"), y);
}
