//! Orchestration: set-up cycles, interleaved rounds, the traced pass, the
//! stage pass, and the outputs.

use crate::host::{self, Host};
use crate::stages;
use crate::stats::{self, Json, Metric};
use crate::trace::{Name, Tracer};
use crate::workloads::{self, Counters, Round, Stop, Workload, C};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, as `BENCHMARK.json` declares them.  The share of
/// failed operations is not among them: it is 0 on every accepted run, and
/// the result line's `failed`/`attempted` carry it.
pub const END_TO_END: [&str; 3] = ["ops_per_s", "wire_bytes_per_op", "setup_s"];

/// Per-workload boundary metrics of the traced pass.
const BOUNDARY: [&str; 35] = [
    "cluster.post_ns_per_op",
    "cluster.flush_ns_per_op",
    "cluster.wait_ns_per_op",
    "cluster.claim_ns_per_op",
    "cluster.wait_share",
    "cluster.lat_p50_us",
    "cluster.lat_p99_us",
    "cluster.lat_p999_us",
    "cluster.lat_samples",
    "cluster.ops_per_s_q1",
    "cluster.ops_per_s_median",
    "transport.msgs_per_op",
    "transport.dropped",
    "transport.handoff_ns_per_op",
    "runtime.server_events_per_op",
    "runtime.jit_compilations",
    "cache.truncated_share",
    "jit.cache_hit_share",
    "reliable.retx_per_kop",
    "reliable.dup_drops_per_kop",
    "reliable.acks_per_op",
    "reliable.out_of_order_per_kop",
    "reliable.srtt_us",
    "reliable.rto_us",
    "chaos.faults_per_kop",
    "ucx.pool_reuse_share",
    "workloads.chase_am_ops_per_s",
    "trace.overhead_frac",
    "bench.verify_ns_per_op",
    "bench.cpu_us_per_op",
    "bench.peak_rss_mb",
    "host.calib_mops",
    "host.pinned",
    "host.sched_fifo",
    "host.nproc",
];

#[derive(Debug, Clone)]
pub struct Options {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: per-layer
    /// metrics only; `None`: both, as one complete set.
    pub trace: Option<bool>,
    pub rounds: Option<usize>,
    pub round_ms: u64,
    pub smoke: bool,
    pub out: Option<PathBuf>,
    pub compare: Option<(PathBuf, PathBuf)>,
    pub bounds: PathBuf,
}

impl Options {
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workloads: workloads::NAMES.iter().map(|s| s.to_string()).collect(),
            seed: 1,
            seconds: None,
            trace: None,
            rounds: None,
            round_ms: 100,
            smoke: false,
            out: None,
            compare: None,
            bounds: PathBuf::from("BENCHMARK.json"),
        };
        let mut it = args.iter();
        let value = |it: &mut std::slice::Iter<String>, flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(v: String, flag: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))
        }
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            match flag {
                "--workload" => {
                    let v = value(&mut it, flag)?;
                    if v != "all" {
                        o.workloads = v.split(',').map(str::to_string).collect();
                    }
                }
                "--seed" => o.seed = number(value(&mut it, flag)?, flag)?,
                "--seconds" => o.seconds = Some(number(value(&mut it, flag)?, flag)?),
                "--trace" => {
                    o.trace = Some(match value(&mut it, flag)?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("bad value `{v}` for --trace")),
                    })
                }
                "--rounds" => o.rounds = Some(number(value(&mut it, flag)?, flag)?),
                "--round-ms" => o.round_ms = number(value(&mut it, flag)?, flag)?,
                "--smoke" => o.smoke = true,
                "--out" => o.out = Some(PathBuf::from(value(&mut it, flag)?)),
                "--bounds" => o.bounds = PathBuf::from(value(&mut it, flag)?),
                "--compare" => {
                    o.compare = Some((
                        PathBuf::from(value(&mut it, flag)?),
                        PathBuf::from(value(&mut it, flag)?),
                    ))
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        for (i, w) in o.workloads.iter().enumerate() {
            if !workloads::NAMES.contains(&w.as_str()) || o.workloads[..i].contains(w) {
                return Err(format!("unknown or repeated workload `{w}`"));
            }
        }
        if o.round_ms == 0 || o.seconds.is_some_and(|s| !s.is_finite() || s <= 0.0) {
            return Err("--round-ms and --seconds must be positive".into());
        }
        Ok(o)
    }
}

/// Measuring time per workload when neither `--seconds` nor `--rounds` says.
const DEFAULT_SECONDS: f64 = 12.0;
/// Build → warm cycles per workload.
const SETUP_CYCLES: usize = 9;

/// How much of everything a run does.
struct Plan {
    end_to_end: bool,
    layers: bool,
    setup_cycles: usize,
    untraced_rounds: usize,
    traced_rounds: usize,
    round: Duration,
    /// Share of the stage pass's full iteration counts.
    stage_scale: f64,
}

impl Plan {
    fn of(o: &Options) -> Plan {
        if o.smoke {
            return Plan {
                end_to_end: o.trace != Some(true),
                layers: o.trace != Some(false),
                setup_cycles: 1,
                untraced_rounds: 2,
                traced_rounds: 1,
                round: Duration::from_millis(50),
                stage_scale: 0.02,
            };
        }
        let round = Duration::from_millis(o.round_ms);
        let seconds = o.seconds.unwrap_or(DEFAULT_SECONDS);
        let rounds = o
            .rounds
            .unwrap_or((seconds * 1000.0 / o.round_ms as f64) as usize)
            .max(1);
        match o.trace {
            Some(false) => Plan {
                end_to_end: true,
                layers: false,
                setup_cycles: SETUP_CYCLES,
                untraced_rounds: rounds,
                traced_rounds: 0,
                round,
                stage_scale: 0.0,
            },
            // A per-layer run spends its time budget on half as many
            // untraced rounds, a quarter as many traced ones, and the
            // stage pass.
            Some(true) => Plan {
                end_to_end: false,
                layers: true,
                setup_cycles: 1,
                untraced_rounds: (rounds / 2).max(2),
                traced_rounds: (rounds / 4).max(1),
                round,
                stage_scale: 0.25,
            },
            None => Plan {
                end_to_end: true,
                layers: true,
                setup_cycles: SETUP_CYCLES,
                untraced_rounds: rounds,
                traced_rounds: (rounds / 4).max(1),
                round,
                stage_scale: 1.0,
            },
        }
    }
}

/// A timed pass with the host's speed sampled on both sides of it.
#[derive(Debug, Clone, Copy)]
struct Timed {
    round: Round,
    speed_before: f64,
    speed_after: f64,
}

impl Timed {
    fn speed(&self) -> f64 {
        (self.speed_before + self.speed_after) / 2.0
    }

    /// False when the host changed speed state under the pass, which then
    /// ran at neither speed.
    fn steady(&self) -> bool {
        (self.speed_before - self.speed_after).abs() <= 0.03 * self.speed()
    }

    fn raw_rate(&self) -> f64 {
        self.round.ops as f64 * 1e9 / self.round.timed_ns as f64
    }

    /// The rate the pass would have had on a host running the calibration
    /// kernel at the reference speed.
    fn rate_at_reference(&self) -> f64 {
        self.raw_rate() * host::REFERENCE_MOPS / self.speed()
    }

    fn seconds_at_reference(&self) -> f64 {
        self.round.timed_ns as f64 / 1e9 * self.speed() / host::REFERENCE_MOPS
    }
}

/// The passes the host held one speed through, or all of them when fewer
/// than a third did.
fn steady(passes: &[Timed]) -> Vec<Timed> {
    let kept: Vec<Timed> = passes
        .iter()
        .filter(|t| t.round.timed_ns > 0 && t.steady())
        .copied()
        .collect();
    if kept.len() * 3 >= passes.len() && !kept.is_empty() {
        kept
    } else {
        passes
            .iter()
            .filter(|t| t.round.timed_ns > 0)
            .copied()
            .collect()
    }
}

fn rates_at_reference(passes: &[Timed]) -> Vec<f64> {
    steady(passes)
        .iter()
        .map(Timed::rate_at_reference)
        .collect()
}

/// The rate of the undisturbed system: the upper decile over rounds.
/// Interference on a shared host only ever slows a round (a neighbour on
/// the core, the 50 ms a second the kernel withholds from real-time tasks),
/// and it comes in stretches of seconds, which drag a median along but
/// leave the fastest rounds alone.  Over ten 12-second runs per workload the
/// upper decile repeated within 1.5–4.3% (interquartile range ÷ median), the
/// upper quartile within 2.0–4.9%, the median within 3.0–11.7%.
fn undisturbed_rate(passes: &[Timed]) -> f64 {
    stats::quantile(&rates_at_reference(passes), 0.9)
}

/// Everything measured about one workload.
struct Report {
    setup: Vec<Timed>,
    untraced: Vec<Timed>,
    traced: Vec<Timed>,
    attempted: u64,
    failed: u64,
    cpu_us: f64,
    pool_reused: u64,
    pool_allocated: u64,
    tracer: Tracer,
    delta: Counters,
    srtt_us: f64,
    rto_us: f64,
    violations: Vec<String>,
}

impl Report {
    fn new(traced: bool) -> Report {
        Report {
            setup: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
            cpu_us: 0.0,
            pool_reused: 0,
            pool_allocated: 0,
            // 65536 buffered spans bound the trace file to a few MiB.
            tracer: if traced {
                Tracer::on(1 << 16)
            } else {
                Tracer::off()
            },
            delta: Counters::default(),
            srtt_us: 0.0,
            rto_us: 0.0,
            violations: Vec::new(),
        }
    }

    fn note(&mut self, r: &Round) {
        self.attempted += r.attempted;
        self.failed += r.failed;
    }

    fn measured_ops(&self) -> u64 {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|t| t.round.ops)
            .sum()
    }

    fn setup_seconds(&self) -> Vec<f64> {
        steady(&self.setup)
            .iter()
            .map(Timed::seconds_at_reference)
            .collect()
    }

    /// Host speed on both sides of every measured round.
    fn speeds(&self) -> Vec<f64> {
        self.untraced
            .iter()
            .chain(&self.traced)
            .flat_map(|t| [t.speed_before, t.speed_after])
            .collect()
    }
}

/// One measured round: host speed, CPU time and the load thread's
/// encode-pool counters are sampled around it.
fn measured_round(w: &mut dyn Workload, rep: &mut Report, round: Duration, traced: bool) {
    let speed_before = host::calib_mops();
    let pool0 = tc_ucx::bytes::with_pool(|p| p.stats);
    let cpu0 = host::cpu_time_us();
    let mut off = Tracer::off();
    let tracer = if traced { &mut rep.tracer } else { &mut off };
    let r = w.run(Stop::At(Instant::now() + round), tracer);
    rep.cpu_us += host::cpu_time_us() - cpu0;
    let pool1 = tc_ucx::bytes::with_pool(|p| p.stats);
    rep.pool_reused += pool1.reused - pool0.reused;
    rep.pool_allocated += pool1.allocated - pool0.allocated;
    rep.note(&r);
    let timed = Timed {
        round: r,
        speed_before,
        speed_after: host::calib_mops(),
    };
    if traced {
        rep.traced.push(timed);
    } else {
        rep.untraced.push(timed);
    }
}

fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("tc-benchmark/target"));
    target.join("tc-benchmark")
}

pub fn main(opts: &Options, host: Host) -> ExitCode {
    let plan = Plan::of(opts);
    let out_dir = output_dir();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("tc-benchmark: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut ws: Vec<Box<dyn Workload>> = opts
        .workloads
        .iter()
        .filter_map(|name| workloads::make(name, opts.seed, &out_dir))
        .collect();
    let mut reps: Vec<Report> = ws.iter().map(|_| Report::new(plan.layers)).collect();

    if let Err(e) = set_up(&plan, &mut ws, &mut reps) {
        eprintln!("tc-benchmark: {e}");
        return ExitCode::FAILURE;
    }
    measure(&plan, &mut ws, &mut reps);
    // Per-layer passes that need no live workload: the AM baseline chase and
    // the stage pass, which runs last.
    let layers = plan.layers.then(|| {
        let (am_rate, am_failed) = chase_am_rate(opts.seed, plan.round);
        if am_failed > 0 {
            reps[0]
                .violations
                .push(format!("chase_am: {am_failed} chases failed"));
        }
        let (stage_metrics, stage_sums) = stages::run(plan.stage_scale, opts.seed);
        Layers {
            am_rate,
            stage_metrics,
            stage_sums,
        }
    });
    report(opts, &plan, &host, &out_dir, &ws, &reps, layers)
}

/// What the passes without a live workload measured.
struct Layers {
    am_rate: f64,
    stage_metrics: Vec<Metric>,
    stage_sums: stages::StageSums,
}

/// Build → warm cycles per workload; the last cluster is kept for the rounds.
fn set_up(plan: &Plan, ws: &mut [Box<dyn Workload>], reps: &mut [Report]) -> Result<(), String> {
    for (w, rep) in ws.iter_mut().zip(reps) {
        for cycle in 0..plan.setup_cycles {
            let speed_before = host::calib_mops();
            let t0 = Instant::now();
            w.build()
                .map_err(|e| format!("set-up of {} failed: {e}", w.name()))?;
            let mut warm = w.run(Stop::Ops(w.warm_ops()), &mut Tracer::off());
            rep.note(&warm);
            warm.timed_ns = t0.elapsed().as_nanos() as u64;
            rep.setup.push(Timed {
                round: warm,
                speed_before,
                speed_after: host::calib_mops(),
            });
            if cycle + 1 < plan.setup_cycles {
                w.teardown();
            }
        }
    }
    Ok(())
}

/// One untimed warm round each, then the interleaved measured rounds — round
/// r of every workload before round r+1 of any, a traced round after every
/// few untraced ones — then the counter deltas, the mechanism checks and the
/// teardown.
fn measure(plan: &Plan, ws: &mut [Box<dyn Workload>], reps: &mut [Report]) {
    for w in ws.iter_mut() {
        w.run(Stop::At(Instant::now() + plan.round), &mut Tracer::off());
    }
    let before: Vec<Counters> = ws.iter_mut().map(|w| w.counters()).collect();
    let every = (plan.untraced_rounds / plan.traced_rounds.max(1)).max(1);
    let mut traced_left = plan.traced_rounds;
    for r in 0..plan.untraced_rounds {
        for (w, rep) in ws.iter_mut().zip(reps.iter_mut()) {
            measured_round(w.as_mut(), rep, plan.round, false);
        }
        if traced_left > 0 && (r + 1) % every == 0 {
            traced_left -= 1;
            for (w, rep) in ws.iter_mut().zip(reps.iter_mut()) {
                measured_round(w.as_mut(), rep, plan.round, true);
            }
        }
    }
    for ((w, rep), c0) in ws.iter_mut().zip(reps).zip(&before) {
        rep.delta = w.counters().since(c0);
        let sampled: Vec<tc_core::LinkHealth> =
            w.link_health().into_iter().filter(|h| h.srtt > 0).collect();
        let median_us = |f: fn(&tc_core::LinkHealth) -> u64| {
            stats::median(
                &sampled
                    .iter()
                    .map(|h| f(h) as f64 / 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        rep.srtt_us = median_us(|h| h.srtt);
        rep.rto_us = median_us(|h| h.rto);
        rep.violations = w.check(&rep.delta, rep.measured_ops());
        w.teardown();
    }
}

/// Check, print and record everything; the exit code says whether the run
/// was correct.
fn report(
    opts: &Options,
    plan: &Plan,
    host: &Host,
    out_dir: &Path,
    ws: &[Box<dyn Workload>],
    reps: &[Report],
    layers: Option<Layers>,
) -> ExitCode {
    let mut all_ok = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut line_metrics: Vec<Metric> = Vec::new();
    for (w, rep) in ws.iter().zip(reps) {
        let name = w.name();
        let mut metrics = Vec::new();
        let mut expected: Vec<&str> = Vec::new();
        if plan.end_to_end {
            metrics.extend(end_to_end_metrics(rep));
            expected.extend(END_TO_END);
        }
        if let Some(layers) = &layers {
            metrics.extend(boundary_metrics(w.as_ref(), rep, host, layers));
            expected.extend(BOUNDARY);
            if let Err(e) = write_trace(out_dir, name, &rep.tracer) {
                eprintln!("tc-benchmark: writing the trace of {name}: {e}");
            }
        }
        let mut problems = stats::check_metrics(name, &metrics, &expected);
        problems.extend(rep.violations.iter().cloned());
        for p in &problems {
            eprintln!("tc-benchmark: VIOLATION {p}");
        }
        let ok = problems.is_empty() && rep.failed == 0;
        all_ok &= ok;
        attempted += rep.attempted;
        failed += rep.failed;
        print_table(name, &metrics, rep, host);
        if let Some(path) = &opts.out {
            if let Err(e) = append_record(path, name, opts, host, rep, &metrics, ok) {
                eprintln!("tc-benchmark: writing {}: {e}", path.display());
                all_ok = false;
            }
        }
        for mut m in metrics {
            if ws.len() > 1 {
                m.name = format!("{name}.{}", m.name);
            }
            line_metrics.push(m);
        }
    }
    if let Some(layers) = layers {
        for p in stats::check_metrics("stages", &layers.stage_metrics, &stages::NAMES) {
            eprintln!("tc-benchmark: VIOLATION {p}");
            all_ok = false;
        }
        for m in &layers.stage_metrics {
            println!(
                "{:<14} {:<34} {:>16.4} {}",
                "stages", m.name, m.value, m.unit
            );
        }
        line_metrics.extend(layers.stage_metrics);
    }

    let line = Json::obj(vec![
        ("correct", Json::Bool(all_ok)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", stats::metrics_json(&line_metrics)),
    ]);
    println!("{}", line.to_line());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end_metrics(rep: &Report) -> Vec<Metric> {
    let ops = rep.measured_ops();
    vec![
        Metric::new("ops_per_s", undisturbed_rate(&rep.untraced), "1/s"),
        Metric::new(
            "wire_bytes_per_op",
            rep.delta[C::BytesSent] as f64 / ops.max(1) as f64,
            "B/op",
        ),
        // The same reasoning as `undisturbed_rate`; with nine cycles a decile
        // would be the single fastest one, so the lower quartile it is.
        Metric::new("setup_s", stats::quantile(&rep.setup_seconds(), 0.25), "s"),
    ]
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn boundary_metrics(w: &dyn Workload, rep: &Report, host: &Host, layers: &Layers) -> Vec<Metric> {
    let ops = rep.measured_ops().max(1) as f64;
    let kops = ops / 1000.0;
    let traced_ops: u64 = rep.traced.iter().map(|t| t.round.ops).sum();
    let per_traced_op = |name: Name| rep.tracer.self_ns(name) as f64 / traced_ops.max(1) as f64;
    let traced_ns: u64 = rep.traced.iter().map(|t| t.round.timed_ns).sum();
    let mut lat: Vec<f64> = rep
        .tracer
        .op_latencies_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    lat.sort_by(f64::total_cmp);
    let lat_q = |p: f64| {
        if lat.is_empty() {
            0.0
        } else {
            stats::quantile_sorted(&lat, p)
        }
    };
    let (q1, median_rate, _) = stats::quartiles(&rates_at_reference(&rep.untraced));
    let rate = undisturbed_rate(&rep.untraced);
    let traced_rate = undisturbed_rate(&rep.traced);
    let d = &rep.delta;
    let events_per_op = d[C::ServerEvents] as f64 / ops;
    // Latency of one operation not accounted for by the CPU work of its
    // stages: queueing and wake-ups between the threads or processes.
    let handoff =
        f64::from(w.window()) * 1e9 / rate - events_per_op * layers.stage_sums.of(w.stage_kind());
    let finite_or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
    vec![
        Metric::new("cluster.post_ns_per_op", per_traced_op(Name::Post), "ns"),
        Metric::new("cluster.flush_ns_per_op", per_traced_op(Name::Flush), "ns"),
        Metric::new("cluster.wait_ns_per_op", per_traced_op(Name::Wait), "ns"),
        Metric::new("cluster.claim_ns_per_op", per_traced_op(Name::Claim), "ns"),
        Metric::new(
            "cluster.wait_share",
            share(rep.tracer.self_ns(Name::Wait), traced_ns),
            "ratio",
        ),
        Metric::new("cluster.lat_p50_us", lat_q(0.5), "us"),
        Metric::new("cluster.lat_p99_us", lat_q(0.99), "us"),
        Metric::new("cluster.lat_p999_us", lat_q(0.999), "us"),
        Metric::new("cluster.lat_samples", lat.len() as f64, "count"),
        Metric::new("cluster.ops_per_s_q1", q1, "1/s"),
        Metric::new("cluster.ops_per_s_median", median_rate, "1/s"),
        Metric::new(
            "transport.msgs_per_op",
            d[C::Delivered] as f64 / ops,
            "count",
        ),
        Metric::new("transport.dropped", d[C::Dropped] as f64, "count"),
        Metric::new("transport.handoff_ns_per_op", handoff, "ns"),
        Metric::new("runtime.server_events_per_op", events_per_op, "count"),
        Metric::new(
            "runtime.jit_compilations",
            d[C::JitCompilations] as f64,
            "count",
        ),
        Metric::new(
            "cache.truncated_share",
            share(d[C::TruncatedSends], d[C::TruncatedSends] + d[C::FullSends]),
            "ratio",
        ),
        Metric::new(
            "jit.cache_hit_share",
            share(
                d[C::IfuncsExecuted].saturating_sub(d[C::JitCompilations]),
                d[C::IfuncsExecuted],
            ),
            "ratio",
        ),
        Metric::new(
            "reliable.retx_per_kop",
            d[C::Retransmits] as f64 / kops,
            "count",
        ),
        Metric::new(
            "reliable.dup_drops_per_kop",
            d[C::DupDrops] as f64 / kops,
            "count",
        ),
        Metric::new("reliable.acks_per_op", d[C::AcksSent] as f64 / ops, "count"),
        Metric::new(
            "reliable.out_of_order_per_kop",
            d[C::OutOfOrder] as f64 / kops,
            "count",
        ),
        Metric::new("reliable.srtt_us", finite_or_zero(rep.srtt_us), "us"),
        Metric::new("reliable.rto_us", finite_or_zero(rep.rto_us), "us"),
        Metric::new("chaos.faults_per_kop", d[C::Faults] as f64 / kops, "count"),
        Metric::new(
            "ucx.pool_reuse_share",
            share(rep.pool_reused, rep.pool_reused + rep.pool_allocated),
            "ratio",
        ),
        Metric::new("workloads.chase_am_ops_per_s", layers.am_rate, "1/s"),
        Metric::new("trace.overhead_frac", 1.0 - traced_rate / rate, "ratio"),
        Metric::new("bench.verify_ns_per_op", per_traced_op(Name::Verify), "ns"),
        Metric::new("bench.cpu_us_per_op", rep.cpu_us / ops, "us"),
        Metric::new("bench.peak_rss_mb", host::peak_rss_mb(), "MiB"),
        Metric::new("host.calib_mops", stats::median(&rep.speeds()), "Mops/s"),
        Metric::new(
            "host.pinned",
            f64::from(u8::from(host.pinned_cpu.is_some())),
            "bool",
        ),
        Metric::new(
            "host.sched_fifo",
            f64::from(u8::from(host.sched_fifo)),
            "bool",
        ),
        Metric::new("host.nproc", host.nproc as f64, "count"),
    ]
}

/// The paper's Active-Message baseline: the `chase_ifunc` chase driven
/// through `dapc_am_handler`, reported next to it and not gated.
fn chase_am_rate(seed: u64, round: Duration) -> (f64, u64) {
    let mut w = workloads::Chase::new(workloads::ChaseMode::Am, seed);
    if w.build().is_err() {
        return (f64::NAN, 1);
    }
    let warm = w.run(Stop::Ops(w.warm_ops()), &mut Tracer::off());
    let mut rep = Report::new(false);
    rep.note(&warm);
    for _ in 0..3 {
        measured_round(&mut w, &mut rep, round, false);
    }
    w.teardown();
    (undisturbed_rate(&rep.untraced), rep.failed)
}

fn write_trace(dir: &Path, workload: &str, tracer: &Tracer) -> std::io::Result<()> {
    let path = dir.join(format!("trace-{workload}.json"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(tracer.to_json(workload).to_line().as_bytes())?;
    file.write_all(b"\n")?;
    file.flush()
}

fn host_json(host: &Host, rep: &Report) -> Json {
    let (q1, med, q3) = stats::quartiles(&rep.speeds());
    Json::obj(vec![
        (
            "pinned_cpu",
            host.pinned_cpu
                .map_or(Json::Null, |c| Json::Num(f64::from(c))),
        ),
        ("pinned", Json::Bool(host.pinned_cpu.is_some())),
        ("sched_fifo", Json::Bool(host.sched_fifo)),
        ("nproc", Json::Num(host.nproc as f64)),
        (
            "calib_mops",
            Json::obj(vec![
                ("q1", Json::Num(q1)),
                ("median", Json::Num(med)),
                ("q3", Json::Num(q3)),
            ]),
        ),
    ])
}

/// Append one run record (a JSON line) for `--compare`.
fn append_record(
    path: &Path,
    workload: &str,
    opts: &Options,
    host: &Host,
    rep: &Report,
    metrics: &[Metric],
    ok: bool,
) -> std::io::Result<()> {
    let spread = |name: &str| match name {
        "ops_per_s" => stats::iqr_share(&rates_at_reference(&rep.untraced)),
        "setup_s" => stats::iqr_share(&rep.setup_seconds()),
        _ => 0.0,
    };
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                    ("spread", Json::Num(spread(&m.name))),
                ]),
            )
        })
        .collect();
    let record = Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("correct", Json::Bool(ok)),
        ("attempted", Json::Num(rep.attempted as f64)),
        ("failed", Json::Num(rep.failed as f64)),
        (
            "rounds",
            Json::Arr(
                rep.untraced
                    .iter()
                    .map(|t| {
                        Json::Arr(vec![
                            Json::Num(t.raw_rate()),
                            Json::Num(t.speed_before),
                            Json::Num(t.speed_after),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("host", host_json(host, rep)),
        ("metrics", Json::Obj(metrics)),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", record.to_line())
}

fn print_table(workload: &str, metrics: &[Metric], rep: &Report, host: &Host) {
    println!(
        "# {workload}: attempted {} failed {} rounds {}+{} host {}",
        rep.attempted,
        rep.failed,
        rep.untraced.len(),
        rep.traced.len(),
        host_json(host, rep).to_line()
    );
    let per_round = |f: fn(&Timed) -> f64| {
        let v: Vec<String> = rep
            .untraced
            .iter()
            .map(|t| format!("{:.0}", f(t)))
            .collect();
        v.join(" ")
    };
    println!(
        "# {workload}: ops/s per round, as timed: {}",
        per_round(Timed::raw_rate)
    );
    println!(
        "# {workload}: ops/s per round, at reference: {}",
        per_round(Timed::rate_at_reference)
    );
    println!(
        "# {workload}: host Mops/s before: {}",
        per_round(|t| t.speed_before)
    );
    println!(
        "# {workload}: host Mops/s after: {}",
        per_round(|t| t.speed_after)
    );
    for m in metrics {
        println!("{workload:<14} {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn pass(ops: u64, timed_ns: u64, speed_before: f64, speed_after: f64) -> Timed {
        Timed {
            round: Round {
                ops,
                attempted: ops,
                failed: 0,
                timed_ns,
            },
            speed_before,
            speed_after,
        }
    }

    #[test]
    fn driver_arguments_select_one_workload_and_the_round_count() {
        let o = Options::parse(&args(&[
            "--workload",
            "chase_get",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(o.workloads, ["chase_get"]);
        assert_eq!(o.seed, 7);
        let plan = Plan::of(&o);
        assert!(plan.end_to_end && !plan.layers);
        assert_eq!(plan.untraced_rounds, 80);
        assert_eq!(plan.traced_rounds, 0);

        let layers = Plan::of(&Options::parse(&args(&["--seconds", "8", "--trace", "1"])).unwrap());
        assert!(!layers.end_to_end && layers.layers);
        assert_eq!((layers.untraced_rounds, layers.traced_rounds), (40, 20));

        let full = Plan::of(&Options::parse(&[]).unwrap());
        assert!(full.end_to_end && full.layers);
        assert_eq!((full.untraced_rounds, full.traced_rounds), (120, 30));
    }

    /// `BENCHMARK.json` declares exactly what the program reports.
    #[test]
    fn declaration_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .map(Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
                .collect()
        };
        assert_eq!(names("workloads"), workloads::NAMES);
        assert_eq!(names("end_to_end"), END_TO_END);
        let per_layer: Vec<&str> = BOUNDARY.iter().chain(&stages::NAMES).copied().collect();
        let mut declared = names("per_layer");
        declared.sort();
        let mut reported: Vec<String> = per_layer.iter().map(|s| s.to_string()).collect();
        reported.sort();
        assert_eq!(declared, reported);
        let seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(seconds, Some(DEFAULT_SECONDS));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "get_small,get_small"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rates_are_stated_at_the_reference_speed() {
        // 1000 ops in 1 ms on a host at half the reference speed.
        let slow = pass(1000, 1_000_000, 200.0, 200.0);
        assert_eq!(slow.raw_rate(), 1e6);
        assert_eq!(slow.rate_at_reference(), 2e6);
        assert_eq!(slow.seconds_at_reference(), 0.0005);
        // The same work on a host at the reference speed reads the same.
        let reference = pass(2000, 1_000_000, 400.0, 400.0);
        assert_eq!(reference.rate_at_reference(), slow.rate_at_reference());
    }

    #[test]
    fn passes_under_a_speed_change_are_left_out_when_enough_remain() {
        let calm = pass(100, 1_000, 400.0, 404.0);
        let changed = pass(100, 1_000, 367.0, 467.0);
        assert!(calm.steady() && !changed.steady());
        assert_eq!(steady(&[calm, changed, calm]).len(), 2);
        // Fewer than a third steady: keep everything rather than a sliver.
        assert_eq!(steady(&[calm, changed, changed, changed]).len(), 4);
        // A pass that timed nothing never counts.
        assert_eq!(steady(&[calm, pass(0, 0, 400.0, 400.0)]).len(), 1);
    }
}
