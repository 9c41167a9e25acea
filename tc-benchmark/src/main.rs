//! `tc-benchmark` — the repository's benchmark: eight pinned live-backend
//! workloads with per-layer stage attribution.  See `README.md` beside this
//! package for the definitions, the noise model and how to compare runs.

mod alloc;
mod compare;
mod host;
mod run;
mod stages;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: tc-benchmark [--workload a,b|all] [--seed N] [--seconds S] [--trace 0|1]
                    [--rounds N] [--round-ms MS] [--smoke] [--out FILE]
       tc-benchmark --compare A.jsonl B.jsonl [--bounds BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The socket backend spawns its server ranks from this same binary.
    if args.first().is_some_and(|a| a == "--connect") {
        return serve(args);
    }
    let opts = match run::Options::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("tc-benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &opts.compare {
        return compare::main(a, b, &opts.bounds);
    }
    let host = host::pin_or_continue();
    run::main(&opts, host)
}

/// One server rank of a socket-backend cluster, exactly as the repository's
/// `tc-socket-server` binary runs it.
fn serve(args: Vec<String>) -> ExitCode {
    use tc_core::cluster::{serve_socket, ServerOptions};
    let served = ServerOptions::from_args(args)
        .and_then(|opts| serve_socket(opts, tc_workloads::am_catalog()));
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("tc-benchmark (server): {msg}");
            ExitCode::FAILURE
        }
    }
}
