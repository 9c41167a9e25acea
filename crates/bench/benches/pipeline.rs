//! Micro-benchmarks of the reproduction's own pipeline stages: frame
//! encoding, bitcode encode/decode, JIT compilation, binary object
//! build/load, and interpreter execution.  These measure real wall-clock
//! time (not virtual time) and guard against performance regressions in the
//! framework itself.

use tc_bench::crit::{BatchSize, BenchmarkId, Criterion, Throughput};
use tc_bench::{criterion_group, criterion_main};
use tc_binfmt::{load_object, LoadOptions, MapResolver};
use tc_bitir::{decode_module, encode_module, lower_for_target, FatBitcode, TargetTriple};
use tc_core::{ClusterBuilder, CodeRepr, FaultPlan, MessageFrame, RelConfig};
use tc_jit::{build_object, CompileOptions, Engine, MemoryExt, NoExternals, VecMemory};
use tc_workloads::{chaser_module, tsi_module};

fn bench_frame_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_codec");
    let fat = FatBitcode::from_module_default_targets(&tsi_module()).unwrap();
    let frame = MessageFrame::new("tsi", CodeRepr::Bitcode, vec![1], fat.encode(), vec![]);
    group.throughput(Throughput::Bytes(frame.full_size() as u64));
    group.bench_function("encode_full", |b| b.iter(|| frame.encode_full()));
    group.bench_function("encode_truncated", |b| b.iter(|| frame.encode_truncated()));
    let full = frame.encode_full();
    group.bench_function("decode_full", |b| {
        b.iter(|| MessageFrame::decode(&full).unwrap())
    });
    group.finish();
}

fn bench_bitcode_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitcode_codec");
    let module = lower_for_target(&chaser_module("chaser"), TargetTriple::THOR_BF2).unwrap();
    let bytes = encode_module(&module);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode", |b| b.iter(|| encode_module(&module)));
    group.bench_function("decode", |b| b.iter(|| decode_module(&bytes).unwrap()));
    group.finish();
}

fn bench_jit_and_binary(c: &mut Criterion) {
    let mut group = c.benchmark_group("jit_and_binary");
    let module = tsi_module();
    group.bench_function("jit_compile_tsi", |b| {
        b.iter(|| {
            tc_jit::lower_and_compile(
                &module,
                TargetTriple::OOKAMI_A64FX,
                CompileOptions::default(),
            )
            .unwrap()
        });
    });
    group.bench_function("aot_build_and_load_tsi", |b| {
        b.iter(|| {
            let obj =
                build_object(&module, TargetTriple::THOR_XEON, CompileOptions::default()).unwrap();
            let image = load_object(
                &obj,
                "x86_64-xeon-e5-sim",
                &MapResolver::new(),
                LoadOptions::default(),
            )
            .unwrap();
            tc_jit::module_from_image(&image).unwrap()
        });
    });
    group.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let mut group = c.benchmark_group("interpreter");
    let compiled = tc_jit::lower_and_compile(
        &tsi_module(),
        TargetTriple::THOR_XEON,
        CompileOptions::default(),
    )
    .unwrap();
    group.bench_function("tsi_execute", |b| {
        let mut mem = VecMemory::new(0, 4096);
        mem.write_u64(2048, 0).unwrap();
        mem.write_u64(0, 3).unwrap();
        let engine = Engine::new();
        b.iter(|| {
            engine
                .run(
                    &compiled.module,
                    "main",
                    &[0, 1, 2048],
                    &[],
                    &mut mem,
                    &mut NoExternals,
                )
                .unwrap()
                .cycles
        });
    });
    group.finish();
}

/// Large-payload PUT/GET throughput over the real-concurrency (threaded)
/// backend: the end-to-end data plane — payload hand-off, wire encode,
/// channel transfer, wire decode, memory apply — measured in wall-clock time.
fn bench_data_plane(c: &mut Criterion) {
    const PUTS_PER_ITER: usize = 8;
    const GETS_PER_ITER: usize = 8;
    for size in [64 * 1024usize, 256 * 1024] {
        let mut group = c.benchmark_group("data_plane");
        group.sample_size(20);

        let mut cluster = ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_xeon())
            .servers(1)
            .build_threaded();
        let addr = tc_core::layout::DATA_REGION_BASE;
        // A shared payload view: cloning it per PUT is a refcount bump, so
        // the measurement is the data plane, not the benchmark's own memcpy.
        let payload = tc_ucx::Bytes::from(vec![0xA5u8; size]);

        // Warm the path once (pool slots, sparse-memory pages) so the timed
        // samples measure steady state rather than first-touch costs.
        cluster.put(1, addr, payload.clone()).unwrap();
        let warm = cluster.get(1, addr, size as u64).unwrap();
        cluster.wait(&warm).unwrap();

        group.throughput(Throughput::Bytes((PUTS_PER_ITER * size) as u64));
        group.bench_with_input(BenchmarkId::new("put", size), &size, |b, _| {
            b.iter(|| {
                for _ in 0..PUTS_PER_ITER {
                    cluster.put(1, addr, payload.clone()).unwrap();
                }
                // The control plane is FIFO behind the data plane, so this
                // read is a barrier: every PUT above has been applied.
                cluster.read_u64(1, addr).unwrap()
            });
        });

        cluster.write_memory(1, addr, &payload).unwrap();
        group.throughput(Throughput::Bytes((GETS_PER_ITER * size) as u64));
        group.bench_with_input(BenchmarkId::new("get", size), &size, |b, _| {
            b.iter(|| {
                // Pipelined GETs: post the window, then collect every reply —
                // throughput, not single-request latency.
                let handles: Vec<_> = (0..GETS_PER_ITER)
                    .map(|_| cluster.get(1, addr, size as u64).unwrap())
                    .collect();
                for handle in &handles {
                    let data = cluster.wait(handle).unwrap();
                    assert_eq!(data.len(), size);
                }
            });
        });
        cluster.shutdown();
        group.finish();
    }
}

/// Pipelining speedup of the async completion plane: the same 256 GETs
/// against 4 servers (round-robin) driven with a window of 1
/// (send-one-wait-one), 16, or 256 outstanding requests through
/// `CompletionSet`/`wait_any` on the threaded backend.  A window of 1
/// serialises every round trip; wider windows overlap round trips *and* let
/// all four server threads serve concurrently.  Throughput is operations
/// per second; the depth-256 row divided by the depth-1 row is the
/// pipelining speedup recorded in EXPERIMENTS.md.
fn bench_data_plane_inflight(c: &mut Criterion) {
    use tc_core::cluster::CompletionSet;
    const OPS: usize = 256;
    const SIZE: usize = 1024;
    const SERVERS: usize = 4;
    let mut group = c.benchmark_group("data_plane");
    group.sample_size(20);
    group.throughput(Throughput::Elements(OPS as u64));

    // Deep pipelines benefit from larger drain batches on both the driver
    // and the node threads (one wakeup amortised over more envelopes).
    let tuning = tc_core::Tuning {
        node_batch: 512,
        ..tc_core::Tuning::default()
    };
    let mut cluster = ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_xeon())
        .servers(SERVERS)
        .tuning(tuning)
        .build_threaded();
    let addr = tc_core::layout::DATA_REGION_BASE;
    for rank in 1..=SERVERS {
        cluster
            .write_memory(rank, addr, &vec![0x5Au8; SIZE])
            .unwrap();
        // Warm the path (pool slots, pages) before timing.
        let warm = cluster.get(rank, addr, SIZE as u64).unwrap();
        cluster.wait(&warm).unwrap();
    }

    for inflight in [1usize, 16, 256] {
        group.bench_with_input(
            BenchmarkId::new("get_inflight", inflight),
            &inflight,
            |b, &inflight| {
                b.iter(|| {
                    let mut set = CompletionSet::new();
                    let mut issued = 0usize;
                    let mut done = 0usize;
                    while done < OPS {
                        // Post the window refill as one flushed burst.
                        let mut posted = false;
                        while issued < OPS && set.len() < inflight {
                            let rank = 1 + issued % SERVERS;
                            set.add_get(cluster.post_get(rank, addr, SIZE as u64));
                            issued += 1;
                            posted = true;
                        }
                        if posted {
                            cluster.flush().unwrap();
                        }
                        let (_, ready) = cluster.wait_any(&mut set).unwrap();
                        match ready {
                            tc_core::Ready::Get(data) => assert_eq!(data.len(), SIZE),
                            other => panic!("unexpected readiness {other:?}"),
                        }
                        done += 1;
                    }
                });
            },
        );
    }
    cluster.shutdown();
    group.finish();
}

/// Client-scaling of the injection plane: the same 256 GETs against 4
/// servers driven by `C ∈ {1, 2, 4, 8}` concurrent client runtimes (each
/// issuing `256 / C` operations through a window of 32, all streams merged
/// through one completion set) on the threaded backend.  Throughput is
/// *aggregate* operations per second; the `data_plane/clients/{C}` rows in
/// BENCH.json divided by the `clients/1` row give the message-rate scaling
/// curve recorded in EXPERIMENTS.md.
fn bench_data_plane_clients(c: &mut Criterion) {
    use tc_workloads::{multi_client_get_burst, Window};
    const OPS: usize = 256;
    const SIZE: usize = 1024;
    const SERVERS: usize = 4;
    let mut group = c.benchmark_group("data_plane");
    group.sample_size(20);
    group.throughput(Throughput::Elements(OPS as u64));

    for clients in [1usize, 2, 4, 8] {
        let tuning = tc_core::Tuning {
            node_batch: 512,
            ..tc_core::Tuning::default()
        };
        let mut cluster = ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_xeon())
            .clients(clients)
            .servers(SERVERS)
            .tuning(tuning)
            .build_threaded();
        let addr = tc_core::layout::DATA_REGION_BASE;
        for s in 0..SERVERS {
            cluster
                .write_memory(cluster.server_rank(s), addr, &vec![0x5Au8; SIZE])
                .unwrap();
        }
        // Warm every client's path (pool slots, pages) before timing.
        multi_client_get_burst(&mut cluster, 4, addr, SIZE as u64, Window::new(4)).unwrap();

        group.threads(clients);
        group.bench_with_input(
            BenchmarkId::new("clients", clients),
            &clients,
            |b, &clients| {
                b.iter(|| {
                    let done = multi_client_get_burst(
                        &mut cluster,
                        OPS / clients,
                        addr,
                        SIZE as u64,
                        Window::new(32),
                    )
                    .unwrap();
                    assert_eq!(done, OPS);
                });
            },
        );
        cluster.shutdown();
    }
    group.finish();
}

/// Multi-core execution plane: the same aggregate workload (256 GETs against
/// 4 servers, window 32 per client stream) with `C ∈ {1, 2, 4}` client
/// runtimes, each owned and pumped by its *own dedicated OS thread* inside
/// the threaded transport (`tc-client-{c}`).  This differs from
/// `data_plane/clients/{C}` above only in intent, not mechanism — the axis
/// here is the number of independently scheduled client threads the
/// execution plane runs, and every row records that count as `threads`
/// alongside the host's `cores` in BENCH.json.  On a multi-core host the
/// curve measures genuine parallel drain; on a 1-CPU container (CI) it
/// measures the scheduling overhead of the per-client-thread design, which
/// must stay within noise of the single-thread row.
fn bench_data_plane_cores(c: &mut Criterion) {
    use tc_workloads::{multi_client_get_burst, Window};
    const OPS: usize = 256;
    const SIZE: usize = 1024;
    const SERVERS: usize = 4;
    let mut group = c.benchmark_group("data_plane");
    group.sample_size(20);
    group.throughput(Throughput::Elements(OPS as u64));

    for cores in [1usize, 2, 4] {
        let tuning = tc_core::Tuning {
            node_batch: 512,
            ..tc_core::Tuning::default()
        };
        let mut cluster = ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_xeon())
            .clients(cores)
            .servers(SERVERS)
            .tuning(tuning)
            .build_threaded();
        let addr = tc_core::layout::DATA_REGION_BASE;
        for s in 0..SERVERS {
            cluster
                .write_memory(cluster.server_rank(s), addr, &vec![0x5Au8; SIZE])
                .unwrap();
        }
        // Warm every client thread's path (pool slots, pages) before timing.
        multi_client_get_burst(&mut cluster, 4, addr, SIZE as u64, Window::new(4)).unwrap();

        group.threads(cores);
        group.bench_with_input(BenchmarkId::new("cores", cores), &cores, |b, &cores| {
            b.iter(|| {
                let done = multi_client_get_burst(
                    &mut cluster,
                    OPS / cores,
                    addr,
                    SIZE as u64,
                    Window::new(32),
                )
                .unwrap();
                assert_eq!(done, OPS);
            });
        });
        cluster.shutdown();
    }
    group.finish();
}

/// The same pipelined GET workload (256 GETs, window 16, 4 servers) across
/// the two real-concurrency backends: `threads` (OS threads + channels) and
/// `socket` (separate OS processes + Unix-domain sockets).  The
/// `data_plane/transport/{threaded,socket}` rows in BENCH.json put a number
/// on what crossing a process boundary costs the data plane relative to
/// crossing a channel.
fn bench_data_plane_transport(c: &mut Criterion) {
    use tc_core::cluster::{Backend, CompletionSet};
    const OPS: usize = 256;
    const SIZE: usize = 1024;
    const SERVERS: usize = 4;
    const WINDOW: usize = 16;
    let mut group = c.benchmark_group("data_plane");
    group.sample_size(10);
    group.throughput(Throughput::Elements(OPS as u64));

    for (backend, name) in [(Backend::Threads, "threaded"), (Backend::Socket, "socket")] {
        let mut builder = ClusterBuilder::new()
            .platform(tc_simnet::Platform::thor_xeon())
            .servers(SERVERS);
        if backend == Backend::Socket {
            builder = builder.server_bin(env!("CARGO_BIN_EXE_tc-socket-server-bench"));
        }
        let mut cluster = builder.build(backend);
        let addr = tc_core::layout::DATA_REGION_BASE;
        for s in 0..SERVERS {
            let rank = cluster.server_rank(s);
            cluster
                .write_memory(rank, addr, &vec![0x5Au8; SIZE])
                .unwrap();
            // Warm the path (pool slots, pages, socket buffers) before timing.
            let warm = cluster.get(rank, addr, SIZE as u64).unwrap();
            cluster.wait(&warm).unwrap();
        }

        group.bench_with_input(BenchmarkId::new("transport", name), &backend, |b, _| {
            b.iter(|| {
                let mut set = CompletionSet::new();
                let mut issued = 0usize;
                let mut done = 0usize;
                while done < OPS {
                    let mut posted = false;
                    while issued < OPS && set.len() < WINDOW {
                        let rank = cluster.server_rank(issued % SERVERS);
                        set.add_get(cluster.post_get(rank, addr, SIZE as u64));
                        issued += 1;
                        posted = true;
                    }
                    if posted {
                        cluster.flush().unwrap();
                    }
                    let (_, ready) = cluster.wait_any(&mut set).unwrap();
                    match ready {
                        tc_core::Ready::Get(data) => assert_eq!(data.len(), SIZE),
                        other => panic!("unexpected readiness {other:?}"),
                    }
                    done += 1;
                }
            });
        });
        cluster.shutdown();
    }
    group.finish();
}

/// Reliability cost under loss: the same pipelined GET workload (256 GETs,
/// window 16, 4 servers, threaded backend) under a seeded fault plan
/// dropping {0, 1, 5, 10}% of reliable-plane frames.  The `drop/0` row
/// against `transport/threaded` prices the sequencing-and-ack tax of the
/// reliability layer itself (no fault ever fires, but every frame carries a
/// header and every delivery is acked); the higher rows add the
/// retransmission stalls loss actually costs.  Two arms per rate:
///
/// * `drop/{pct}` — adaptive RTO riding a floor matched to loopback RTTs
///   (2 ms), so a drop stalls one window slot for ~milliseconds;
/// * `drop_fixed/{pct}` — the deployable fixed configuration
///   (`threads_default().fixed()`, 30 ms flat).  A fixed timeout must be
///   provisioned for worst-case scheduling delay precisely because nothing
///   adapts it, so every drop stalls 30 ms.
fn bench_data_plane_drop(c: &mut Criterion) {
    use tc_core::cluster::CompletionSet;
    const OPS: usize = 256;
    const SIZE: usize = 1024;
    const SERVERS: usize = 4;
    const WINDOW: usize = 16;
    let mut group = c.benchmark_group("data_plane");
    group.sample_size(10);
    group.throughput(Throughput::Elements(OPS as u64));

    // A loopback-scale adaptive window: 2 ms floor, 64 ms cap.  The
    // backend default (30 ms floor) is sized for loaded CI machines; under
    // a wall-clock bench it would price a drop at 30 ms flat and swamp the
    // curve.
    let adaptive = RelConfig {
        rto: 2_000_000,
        rto_max: 64_000_000,
        adaptive: true,
    };
    let fixed = RelConfig::threads_default().fixed();
    for (axis, rel) in [("drop", adaptive), ("drop_fixed", fixed)] {
        for drop_pct in [0u32, 1, 5, 10] {
            let mut cluster = ClusterBuilder::new()
                .platform(tc_simnet::Platform::thor_xeon())
                .servers(SERVERS)
                .fault_plan(
                    FaultPlan::seeded(0xD809 + u64::from(drop_pct))
                        .drop_rate(f64::from(drop_pct) / 100.0),
                )
                .rel_config(rel)
                .build_threaded();
            let addr = tc_core::layout::DATA_REGION_BASE;
            for s in 0..SERVERS {
                let rank = cluster.server_rank(s);
                cluster
                    .write_memory(rank, addr, &vec![0x5Au8; SIZE])
                    .unwrap();
                // Warm the path and feed the estimator its first samples.
                let warm = cluster.get(rank, addr, SIZE as u64).unwrap();
                cluster.wait(&warm).unwrap();
            }

            group.bench_with_input(BenchmarkId::new(axis, drop_pct), &drop_pct, |b, _| {
                b.iter(|| {
                    let mut set = CompletionSet::new();
                    let mut issued = 0usize;
                    let mut done = 0usize;
                    while done < OPS {
                        let mut posted = false;
                        while issued < OPS && set.len() < WINDOW {
                            let rank = cluster.server_rank(issued % SERVERS);
                            set.add_get(cluster.post_get(rank, addr, SIZE as u64));
                            issued += 1;
                            posted = true;
                        }
                        if posted {
                            cluster.flush().unwrap();
                        }
                        let (_, ready) = cluster.wait_any(&mut set).unwrap();
                        match ready {
                            tc_core::Ready::Get(data) => assert_eq!(data.len(), SIZE),
                            other => panic!("unexpected readiness {other:?}"),
                        }
                        done += 1;
                    }
                });
            });
            cluster.shutdown();
        }
    }
    group.finish();
}

/// Crash-recovery latency of the socket backend: SIGKILL one of two server
/// processes with a pipelined GET stream running under a 1% drop plan, and
/// time kill → workload drained through the healed link (detection, respawn,
/// re-handshake, state re-deploy, reliable-frame replay, plus every
/// loss-induced retransmission stall along the way).  Two arms:
///
/// * `adaptive` — the estimator licenses a 1 ms floor: it keeps the RTO at
///   `srtt + 4·rttvar` above the observed loopback RTT, so a dropped replay
///   or data frame re-probes in ~a millisecond.
/// * `fixed` — the backend's fixed default (30 ms).  A fixed timeout must be
///   provisioned for the worst plausible scheduling delay precisely because
///   nothing adapts it, so every drop on the critical path stalls 30 ms.
///
/// The `recovery/adaptive` vs `recovery/fixed` rows in BENCH.json are the
/// recovery-latency comparison recorded in EXPERIMENTS.md.
fn bench_recovery(c: &mut Criterion) {
    use tc_core::cluster::CompletionSet;
    const OPS: usize = 96;
    const SIZE: usize = 512;
    const SERVERS: usize = 2;
    const WINDOW: usize = 8;
    let mut group = c.benchmark_group("recovery");
    group.sample_size(5);

    let adaptive = RelConfig {
        rto: 1_000_000,
        rto_max: 480_000_000,
        adaptive: true,
    };
    let fixed = RelConfig::threads_default().fixed();
    for (name, rel) in [("adaptive", adaptive), ("fixed", fixed)] {
        // Healed clusters park here so their teardown is not timed.
        let mut graveyard = Vec::new();
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut cluster = ClusterBuilder::new()
                        .platform(tc_simnet::Platform::thor_xeon())
                        .servers(SERVERS)
                        .server_bin(env!("CARGO_BIN_EXE_tc-socket-server-bench"))
                        .fault_plan(FaultPlan::seeded(0x1EC0).drop_rate(0.01))
                        .rel_config(rel)
                        .socket_recovery()
                        .build_socket()
                        .expect("socket cluster starts");
                    let addr = tc_core::layout::DATA_REGION_BASE;
                    for s in 0..SERVERS {
                        let rank = cluster.server_rank(s);
                        cluster
                            .write_memory(rank, addr, &vec![0xE0 + s as u8; SIZE])
                            .unwrap();
                        // Warm the path; in the adaptive arm this also feeds
                        // the estimator its first RTT samples.
                        let warm = cluster.get(rank, addr, SIZE as u64).unwrap();
                        cluster.wait(&warm).unwrap();
                    }
                    cluster
                },
                |mut cluster| {
                    // SIGKILL server index 0, no goodbye, then drive the
                    // stream to completion across both ranks — the killed
                    // rank's operations queue behind the heal and replay.
                    cluster.transport_mut().kill_server(0);
                    let addr = tc_core::layout::DATA_REGION_BASE;
                    let mut set = CompletionSet::new();
                    let mut issued = 0usize;
                    let mut done = 0usize;
                    while done < OPS {
                        let mut posted = false;
                        while issued < OPS && set.len() < WINDOW {
                            let rank = cluster.server_rank(issued % SERVERS);
                            set.add_get(cluster.post_get(rank, addr, SIZE as u64));
                            issued += 1;
                            posted = true;
                        }
                        if posted {
                            cluster.flush().unwrap();
                        }
                        let (_, ready) = cluster.wait_any(&mut set).unwrap();
                        match ready {
                            tc_core::Ready::Get(data) => assert_eq!(data.len(), SIZE),
                            other => panic!("unexpected readiness {other:?}"),
                        }
                        done += 1;
                    }
                    graveyard.push(cluster);
                },
                BatchSize::PerIteration,
            );
        });
        for cluster in graveyard {
            let mut transport = cluster.shutdown();
            assert!(transport.heals() >= 1, "every sample must include a heal");
            assert_eq!(transport.live_children(), 0, "shutdown reaps everything");
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_frame_codec,
    bench_bitcode_codec,
    bench_jit_and_binary,
    bench_interpreter,
    bench_data_plane,
    bench_data_plane_inflight,
    bench_data_plane_clients,
    bench_data_plane_cores,
    bench_data_plane_transport,
    bench_data_plane_drop,
    bench_recovery
);
criterion_main!(benches);
