//! # tc-simnet — the simulated testbed: fabric, CPUs, platforms, event engine
//!
//! The paper's evaluation runs on hardware this reproduction does not have
//! (Fujitsu A64FX nodes, Xeon hosts with BlueField-2 DPUs, 100 Gb/s
//! InfiniBand).  This crate is the substitute substrate:
//!
//! * [`time`] — virtual time ([`SimTime`] / [`SimDuration`]);
//! * [`event`] — a deterministic discrete-event queue;
//! * [`fabric`] — an analytic latency / injection-gap model of the RDMA
//!   fabric, calibrated to the paper's measured TSI message sizes and rates;
//! * [`cpu`] — per-CPU execution, dispatch and JIT-speed profiles calibrated
//!   to the paper's overhead-breakdown tables;
//! * [`platform`] — the Ookami and Thor testbed configurations;
//! * [`rand`] — the seeded splitmix64 generator shared by workload
//!   generation and property tests;
//! * [`threaded`] — nodes as threads over inboxes, the cluster API's thread
//!   backend; it delivers what it is handed (a sender decides faults).
//!
//! The functional behaviour of the framework (what ifuncs do when they run)
//! never depends on this crate; only *when* things happen in virtual time
//! does.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cpu;
pub mod event;
pub mod fabric;
pub mod platform;
pub mod rand;
pub mod threaded;
pub mod time;

pub use cpu::CpuProfile;
pub use event::EventQueue;
pub use fabric::{FabricOp, FabricProfile};
pub use platform::{Platform, PlatformId};
pub use rand::SplitMix64;
pub use threaded::{
    external_id, external_port, Envelope, NodeCtx, SendStatus, ThreadCluster, ThreadConfig,
    ThreadMetrics, ThreadedNode, EXTERNAL_SENDER, MAX_EXTERNAL_PORTS,
};
pub use time::{SimDuration, SimTime};
