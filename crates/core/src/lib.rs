//! # tc-core — the Three-Chains framework
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! user-space framework for moving *compute and data* between processing
//! elements of a distributed heterogeneous system.
//!
//! * [`ifunc`] — ifunc libraries, the toolchain (fat-bitcode archives and
//!   per-target binary objects), registration and message creation;
//! * [`frame`] — the message frame layout of Figures 2 and 3, including the
//!   truncated (code-elided) encoding the caching protocol transmits;
//! * [`cache`] — the sender-side `(ifunc, endpoint)` code cache;
//! * [`runtime`] — the per-node runtime: polling, auto-registration,
//!   JIT-or-load, invocation, recursive propagation, X-RDMA result return and
//!   the Active-Message baseline;
//! * [`layout`] — node memory-layout conventions (payload staging, target
//!   region, X-RDMA result mailbox, data region);
//! * [`metrics`] — processing outcomes and counters consumed by the cost
//!   model;
//! * [`cluster`] — the unified cluster API: one [`ClusterBuilder`], a
//!   [`Transport`] trait, and two first-class backends (the calibrated
//!   discrete-event simulation and real OS threads) driving the same node
//!   runtimes;
//! * [`sim`] — the timing records of the simulated backend, the engine
//!   behind every table and figure reproduction.
//!
//! ## Quick start
//!
//! ```
//! use tc_core::{build_ifunc_library, ClusterBuilder, ToolchainOptions};
//! use tc_bitir::{ModuleBuilder, ScalarType, BinOp};
//!
//! // 1. Write an ifunc library (the "C path"): add the payload's first byte
//! //    to a counter behind the target pointer.
//! let mut mb = ModuleBuilder::new("quick_tsi");
//! {
//!     let mut f = mb.entry_function();
//!     let payload = f.param(0);
//!     let target = f.param(2);
//!     let delta = f.load(ScalarType::U8, payload, 0);
//!     let counter = f.load(ScalarType::U64, target, 0);
//!     let sum = f.bin(BinOp::Add, ScalarType::U64, counter, delta);
//!     f.store(ScalarType::U64, sum, target, 0);
//!     let zero = f.const_i64(0);
//!     f.ret(zero);
//!     f.finish();
//! }
//! let module = mb.build();
//!
//! // 2. Run the toolchain and register the library.
//! let library = build_ifunc_library(&module, &ToolchainOptions::default()).unwrap();
//!
//! // 3. Spin up a simulated heterogeneous cluster (Xeon client, DPU servers)
//! //    and inject the ifunc.
//! let mut sim = ClusterBuilder::new()
//!     .platform(tc_simnet::Platform::thor_bf2())
//!     .servers(2)
//!     .build_sim();
//! let handle = sim.register_ifunc(library);
//! let msg = sim.bitcode_message(handle, vec![5]).unwrap();
//! sim.send_ifunc(&msg, 1).unwrap();
//! sim.run_until_idle(1_000).unwrap();
//! assert_eq!(sim.stats(1).unwrap().ifuncs_executed, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cluster;
pub mod error;
pub mod frame;
pub mod ifunc;
pub mod layout;
pub mod metrics;
pub mod runtime;
pub mod sim;

pub use cache::{CacheRow, SendDecision, SenderCache};
pub use cluster::{
    Backend, ChaosStats, ClaimTable, ClientId, Cluster, ClusterBuilder, CompletionHandle,
    CompletionSet, CompletionToken, FaultPlan, GetHandle, LinkFaults, LinkHealth, PutHandle, Ready,
    RelConfig, RelMetrics, ResultHandle, SimTransport, ThreadTransport, Transport,
    TransportMetrics,
};
pub use error::{CoreError, Result};
pub use frame::{CodeRepr, DecodedFrame, MessageFrame, FRAME_MAGIC};
pub use ifunc::{
    build_ifunc_library, IfuncHandle, IfuncLibrary, IfuncMessage, IfuncRegistry, ToolchainOptions,
};
pub use metrics::{OutcomeKind, ProcessOutcome, RuntimeStats};
pub use runtime::{AmContext, Completion, NativeAmHandler, NodeRuntime};
pub use sim::{DeliveryRecord, TimingLog};
