//! The lifetime of the threaded fabric's threads, by thread count —
//! one test in a binary of its own, so that no other test's threads are in
//! `/proc/self/task` while it counts.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};
use tc_simnet::{Envelope, NodeCtx, ThreadCluster, ThreadConfig, ThreadedNode};

struct Idle;

impl ThreadedNode for Idle {
    fn on_message(&mut self, _msg: Envelope, _ctx: &NodeCtx) {}
}

/// The names of this process's threads.
fn threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

fn clocks() -> usize {
    threads().iter().filter(|name| *name == "tc-clock").count()
}

fn start(tick: Option<Duration>) -> ThreadCluster {
    ThreadCluster::start_with_config(2, ThreadConfig { tick }, |_| Idle)
}

#[test]
fn one_clock_per_ticked_cluster_none_without_a_tick_and_shutdown_does_not_wait_a_cadence_out() {
    let at_start = threads().len();
    const CADENCE: Duration = Duration::from_millis(15);

    let tickless = start(None);
    assert_eq!((threads().len(), clocks()), (at_start + 2, 0));
    let ticked = start(Some(CADENCE));
    assert_eq!(threads().len(), at_start + 5);
    // A thread names itself once it runs.
    let deadline = Instant::now() + Duration::from_secs(5);
    while clocks() != 1 {
        assert!(
            Instant::now() < deadline,
            "no tc-clock among {:?}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    tickless.shutdown();
    ticked.shutdown();
    assert_eq!(threads().len(), at_start);

    // A clock asleep in `thread::sleep` would hold each shutdown for the
    // rest of its cadence: fifty of them, 750 ms.
    let cycles = Instant::now();
    for _ in 0..50 {
        start(Some(CADENCE)).shutdown();
    }
    let took = cycles.elapsed();
    assert!(
        took < CADENCE * 50 / 3,
        "50 build/shutdown cycles: {took:?}"
    );
    assert_eq!(threads().len(), at_start);

    // Dropping the handle without `shutdown` still ends the clock — and
    // every node thread.
    drop(start(Some(CADENCE)));
    drop(start(None));
    let deadline = Instant::now() + Duration::from_secs(2);
    while clocks() > 0 || threads().len() != at_start {
        assert!(
            Instant::now() < deadline,
            "a dropped cluster's threads ran on: {:?}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
