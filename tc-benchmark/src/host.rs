//! Host diagnostics and CPU pinning, so a disagreement between two sets of
//! runs can be attributed to the host rather than to the code.

use std::os::unix::process::CommandExt;
use std::process::{Command, Stdio};
use std::time::Instant;

const HOST_ENV: &str = "TC_BENCHMARK_HOST";

/// What the run learned about the machine it ran on.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// CPU the whole process tree is confined to; `None` = unpinned.
    pub pinned_cpu: Option<u32>,
    /// The process tree runs under `SCHED_FIFO`.
    pub sched_fifo: bool,
    /// CPUs available before pinning.
    pub nproc: usize,
}

/// Confine the process tree to one allowed CPU under `SCHED_FIFO` priority 1
/// by re-executing this binary under `chrt -f 1 taskset -c <cpu>`.
///
/// One CPU, because thread placement across vCPUs otherwise swings
/// hand-off-bound rates several-fold between identical runs.  `SCHED_FIFO`,
/// because on that one CPU the fair scheduler's wake-up preemption
/// heuristics decide how each of the tens of thousands of hand-offs a second
/// goes, and drift between regimes for seconds; under FIFO a woken thread
/// runs when the waker blocks, every time.  Threads and server processes
/// inherit both.
///
/// Returns normally in the re-executed process.  Each tool is probed first
/// (`<tool> ... true`) and left out when it is missing or not permitted, so
/// the run degrades to unpinned and fair-scheduled rather than failing; the
/// result says which it was.
pub fn pin_or_continue() -> Host {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Ok(host) = std::env::var(HOST_ENV) {
        let mut fields = host.split(',');
        return Host {
            pinned_cpu: fields.next().and_then(|c| c.parse().ok()),
            sched_fifo: fields.next() == Some("fifo"),
            nproc: fields.next().and_then(|n| n.parse().ok()).unwrap_or(nproc),
        };
    }
    let probe = |tool: &str, args: &[&str]| {
        Command::new(tool)
            .args(args)
            .arg("true")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    };
    let cpu = last_allowed_cpu().filter(|c| probe("taskset", &["-c", &c.to_string()]));
    let fifo = probe("chrt", &["-f", "1"]);
    let host = Host {
        pinned_cpu: cpu,
        sched_fifo: fifo,
        nproc,
    };
    let mut wrapped: Vec<String> = Vec::new();
    if fifo {
        wrapped.extend(["chrt", "-f", "1"].map(String::from));
    }
    if let Some(cpu) = cpu {
        wrapped.extend(["taskset".into(), "-c".into(), cpu.to_string()]);
    }
    let (Some(tool), Ok(exe)) = (wrapped.first(), std::env::current_exe()) else {
        return host;
    };
    let err = Command::new(tool)
        .args(&wrapped[1..])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(
            HOST_ENV,
            format!(
                "{},{},{nproc}",
                cpu.map_or("none".into(), |c| c.to_string()),
                if fifo { "fifo" } else { "fair" }
            ),
        )
        .exec();
    // `exec` only returns on failure: carry on as we are.
    eprintln!("tc-benchmark: cannot re-execute under {tool}: {err}");
    Host {
        pinned_cpu: None,
        sched_fifo: false,
        nproc,
    }
}

/// Highest CPU in `Cpus_allowed_list` (e.g. `0-1` or `0,2-3`).
fn last_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .rsplit([',', '-'])
        .next()
        .and_then(|c| c.trim().parse().ok())
}

/// Host speed the timed end-to-end metrics are stated at, in millions of
/// calibration steps per second (see [`calib_mops`]).
pub const REFERENCE_MOPS: f64 = 400.0;

/// Speed of a fixed integer-mix kernel (dependent multiply-xorshift steps),
/// in millions of steps per second: the fastest of six 2^17-step slices, so
/// an interrupt inside one slice does not read as a slow host.
///
/// This host runs in two speed states about 1.27× apart that last seconds
/// each (the load of whatever shares the physical core), and every
/// workload's rate follows them.  The kernel is timed on both sides of
/// every timed pass: it says which state the pass ran in, lets the pass be
/// stated at [`REFERENCE_MOPS`], and exposes passes the state changed under.
pub fn calib_mops() -> f64 {
    const STEPS: u64 = 1 << 17;
    let mut best = 0.0f64;
    let mut z = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..6 {
        let t0 = Instant::now();
        for i in 0..STEPS {
            z = (z ^ (z >> 30))
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .wrapping_add(i);
            z ^= z >> 27;
        }
        best = best.max(STEPS as f64 / t0.elapsed().as_secs_f64() / 1e6);
    }
    std::hint::black_box(z);
    best
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) consumed so far by this process and its live
/// children (the socket backend's server processes), in microseconds.
/// Scheduler ticks are 10 ms, so only deltas over whole passes mean much.
pub fn cpu_time_us() -> f64 {
    let mut ticks = stat_ticks("/proc/self/stat");
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let children =
                std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
            for pid in children.split_whitespace() {
                ticks += stat_ticks(&format!("/proc/{pid}/stat"));
            }
        }
    }
    // USER_HZ is 100 on every Linux ABI this runs on.
    ticks as f64 * 10_000.0
}

/// `utime + stime` of a `/proc/<pid>/stat` file; the fields are counted
/// from the closing parenthesis because the command name may hold spaces.
fn stat_ticks(path: &str) -> u64 {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    tick(11) + tick(12)
}
