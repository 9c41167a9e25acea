//! # tc-chaos — the deterministic fault-injection plane
//!
//! The paper's X-RDMA/ifunc pattern assumes a lossless fabric; real fabrics
//! (and the ROADMAP's production ambitions) are not so polite.  This crate
//! defines the *fault model* every cluster backend injects and the reliable
//! delivery layer in `tc-core` must survive:
//!
//! * [`FaultPlan`] — a seeded, declarative description of what goes wrong:
//!   per-link drop / duplicate / delay / reorder probabilities, scheduled
//!   network [`Partition`]s, and node [`CrashWindow`]s;
//! * [`ChaosEngine`] — the deterministic decision machine: given a plan and
//!   a `(src, dst)` link traversal it answers "what happens to this
//!   message?", drawing from a per-link splitmix64 stream so the same plan
//!   produces the same fault schedule on every run;
//! * [`ChaosSession`] — a cheaply clonable, thread-safe handle to the
//!   cluster's one engine, with a [`ChaosStats`] snapshot for reporting.
//!   The simulated event engine injects its decisions as virtual-time
//!   effects;
//! * [`HoldBack`] — the fault gate of one emitting host on the wall-clock
//!   backends: it decides every reliable frame the host sends through a
//!   session clone and carries the decision out, holding a frame back where
//!   the simulator would delay or reorder it.
//!
//! Determinism contract: fault decisions are a pure function of
//! `(plan.seed, src, dst, per-link traversal count)`.  Every traversal of a
//! link — first sends, retransmits, acks — consumes exactly one decision, so
//! a partition window expressed in traversal counts heals the same way on
//! every backend even though their notions of time differ.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod plan;

pub use engine::{ChaosEngine, ChaosSession, ChaosStats, Decision, FaultKind, HoldBack};
pub use plan::{CrashWindow, FaultPlan, LinkFaults, Partition};
