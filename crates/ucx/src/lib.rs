//! # tc-ucx — a UCP-like communication layer for the Three-Chains reproduction
//!
//! The paper builds Three-Chains as an extension of UCX's UCP interface; its
//! operations of record are RDMA PUT (carrying ifunc message frames), RDMA
//! GET (the pointer-chase baseline) and active messages (the predeployed
//! baseline).  This crate reproduces that object model in simulation:
//!
//! * [`worker::Worker`] — the per-process communication object: an
//!   address, a request-id counter, an outbox and an inbox, and the
//!   active-message name table, with post / take-outgoing / deliver /
//!   next-delivered phases so any transport driver (discrete-event
//!   simulator, threaded cluster, socket driver) can carry the messages;
//! * [`worker::UcpOp`] / [`worker::OutgoingMessage`] — the one
//!   representation of an operation, from the post to the handler that
//!   matches on it;
//! * [`bytes::Bytes`] / [`bytes::BufPool`] — shared payload views and the
//!   recycling encode pool under them.
//!
//! Timing is deliberately absent from this crate: the fabric model in
//! `tc-simnet` decides *when* a posted operation arrives; this crate decides
//! *what* arriving means.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bytes;
pub mod worker;

pub use bytes::{BufPool, Bytes, PoolStats, PoolWriter};
pub use worker::{AmHandlerId, OutgoingMessage, RequestId, UcpOp, Worker, WorkerAddr};
