//! The UCP-like worker and its operations.
//!
//! Three-Chains is implemented as an extension of the UCP interface in UCX
//! (Section III-A).  This module reproduces the slice of that interface the
//! framework needs, in simulation form.  A [`Worker`] is the per-process
//! communication object (≈ `ucp_worker_h`), and it is three things:
//!
//! * an address ([`WorkerAddr`], a dense rank);
//! * a request-id counter, so a reply can name the operation it answers;
//! * two queues — operations are *posted* to the outbox ([`Worker::post`]),
//!   a transport driver (the discrete-event simulator, the threaded cluster,
//!   the socket driver) takes them ([`Worker::take_outgoing`]) and hands
//!   them to the destination's inbox ([`Worker::deliver`]) with whatever
//!   timing it models, and the destination's runtime pops them one at a
//!   time ([`Worker::next_delivered`], the equivalent of
//!   `ucp_worker_progress` plus the paper's ifunc polling function).
//!
//! Active-message handler ids ([`AmHandlerId`]) are handed out by the
//! runtime that deploys the handlers, not by the worker.
//!
//! An operation has one representation from post to handler:
//! [`OutgoingMessage`] carrying a [`UcpOp`].  The operation set is what the
//! paper uses: one-sided PUT (carries ifunc message frames), one-sided GET
//! (the GBPC baseline), and active messages with a handler index (the AM
//! baseline).

use crate::bytes::Bytes;
use std::collections::VecDeque;

/// Address of a worker (process element) in the cluster: a dense rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct WorkerAddr(pub u32);

impl WorkerAddr {
    /// Rank as usize, for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a registered active-message handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AmHandlerId(pub u16);

/// Identifier of a posted operation, used to match completions/replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(pub u64);

/// An operation posted by the application.
#[derive(Debug, Clone, PartialEq)]
pub enum UcpOp {
    /// One-sided PUT into remote memory at `remote_addr`.
    Put {
        /// Destination address in the remote node's memory.
        remote_addr: u64,
        /// Bytes to write (shared view; cloning a `Put` is refcount-cheap).
        data: Bytes,
    },
    /// One-sided PUT that requests a delivery confirmation: the receiver
    /// applies the write and answers with [`UcpOp::PutAck`] carrying this
    /// operation's request id.  This is what gives the cluster API's
    /// `PutHandle` its transport-confirmed completion.
    PutConfirm {
        /// Destination address in the remote node's memory.
        remote_addr: u64,
        /// Bytes to write (shared view).
        data: Bytes,
    },
    /// Acknowledgement of a [`UcpOp::PutConfirm`] (generated by the target's
    /// runtime after the write was applied).
    PutAck {
        /// The confirmed PUT's request id.
        acked: RequestId,
    },
    /// One-sided GET of `len` bytes from remote memory at `remote_addr`.
    Get {
        /// Source address in the remote node's memory.
        remote_addr: u64,
        /// Number of bytes to fetch.
        len: u64,
    },
    /// Reply to a GET (generated by the target's runtime).
    GetReply {
        /// The request this replies to.
        request: RequestId,
        /// Fetched bytes.
        data: Bytes,
    },
    /// Two-sided active message dispatched to a pre-registered handler.
    ActiveMessage {
        /// Which handler to run on the target.
        handler: AmHandlerId,
        /// Handler payload.
        payload: Bytes,
    },
    /// A Three-Chains ifunc message frame (opaque to this layer).
    IfuncFrame {
        /// Encoded frame bytes: HEADER | PAYLOAD | MAGIC, or the whole frame
        /// when it travels in one buffer.
        bytes: Bytes,
        /// A full frame's CODE | DEPS | MAGIC tail when it travels as a second
        /// view (of the sender's library, say); empty otherwise.
        code: Bytes,
    },
}

impl UcpOp {
    /// Number of bytes this operation puts on the wire (what the fabric
    /// model charges for).
    pub fn wire_size(&self) -> usize {
        // 16 bytes of header (src, dst, op tag, sizes) on every operation.
        const HEADER: usize = 16;
        HEADER
            + match self {
                UcpOp::Put { data, .. } => 8 + data.len(),
                UcpOp::PutConfirm { data, .. } => 8 + data.len(),
                UcpOp::PutAck { .. } => 8,
                UcpOp::Get { .. } => 16,
                UcpOp::GetReply { data, .. } => 8 + data.len(),
                UcpOp::ActiveMessage { payload, .. } => 2 + payload.len(),
                UcpOp::IfuncFrame { bytes, code } => bytes.len() + code.len(),
            }
    }
}

/// An operation in flight: what transport drivers move between workers.
#[derive(Debug, Clone, PartialEq)]
pub struct OutgoingMessage {
    /// Posting worker.
    pub src: WorkerAddr,
    /// Destination worker.
    pub dst: WorkerAddr,
    /// Request id assigned at post time.
    pub request: RequestId,
    /// The operation.
    pub op: UcpOp,
}

/// The per-process UCP-like worker.
#[derive(Debug, Default)]
pub struct Worker {
    addr: WorkerAddr,
    next_request: u64,
    outbox: VecDeque<OutgoingMessage>,
    inbox: VecDeque<OutgoingMessage>,
}

impl Worker {
    /// Create a worker with the given address (rank).
    pub fn new(addr: WorkerAddr) -> Self {
        Worker {
            addr,
            ..Default::default()
        }
    }

    /// This worker's address.
    pub fn addr(&self) -> WorkerAddr {
        self.addr
    }

    /// Post an operation towards `dst`, returning its request id.
    pub fn post(&mut self, dst: WorkerAddr, op: UcpOp) -> RequestId {
        let request = RequestId(self.next_request);
        self.next_request += 1;
        self.outbox.push_back(OutgoingMessage {
            src: self.addr,
            dst,
            request,
            op,
        });
        request
    }

    /// Drain the outbox: the transport driver calls this to pick up posted
    /// operations and deliver them (with whatever timing it models).
    pub fn take_outgoing(&mut self) -> Vec<OutgoingMessage> {
        self.outbox.drain(..).collect()
    }

    /// The oldest posted operation not yet taken: [`Worker::take_outgoing`]
    /// one at a time, for a driver that moves each as it takes it.
    pub fn next_outgoing(&mut self) -> Option<OutgoingMessage> {
        self.outbox.pop_front()
    }

    /// Deliver a message into this worker's inbox (called by the transport
    /// driver when the message "arrives").
    pub fn deliver(&mut self, msg: OutgoingMessage) {
        debug_assert_eq!(msg.dst, self.addr, "message delivered to wrong worker");
        self.inbox.push_back(msg);
    }

    /// Pop the next delivered message, oldest first (≈ one step of
    /// `ucp_worker_progress` plus the ifunc polling function): the runtime
    /// that owns this worker matches on its [`UcpOp`].
    pub fn next_delivered(&mut self) -> Option<OutgoingMessage> {
        self.inbox.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_take_deliver_progress_roundtrip() {
        let mut a = Worker::new(WorkerAddr(0));
        let mut b = Worker::new(WorkerAddr(1));

        let req = a.post(
            WorkerAddr(1),
            UcpOp::Put {
                remote_addr: 0x1000,
                data: vec![1, 2, 3].into(),
            },
        );
        assert_eq!(req, RequestId(0));

        let outgoing = a.take_outgoing();
        assert_eq!(outgoing.len(), 1);
        assert!(a.take_outgoing().is_empty(), "taking drains the outbox");

        b.deliver(outgoing.into_iter().next().unwrap());
        let msg = b.next_delivered().expect("one delivered message");
        assert_eq!((msg.src, msg.dst, msg.request), (a.addr(), b.addr(), req));
        match &msg.op {
            UcpOp::Put { remote_addr, data } => {
                assert_eq!(*remote_addr, 0x1000);
                assert_eq!(data, &vec![1, 2, 3]);
            }
            other => panic!("unexpected operation {other:?}"),
        }
        assert_eq!(b.next_delivered(), None, "popping drains the inbox");
    }

    #[test]
    fn get_request_and_reply_are_matched_by_request_id() {
        let mut client = Worker::new(WorkerAddr(0));
        let mut server = Worker::new(WorkerAddr(5));

        let req = client.post(
            WorkerAddr(5),
            UcpOp::Get {
                remote_addr: 0x800,
                len: 8,
            },
        );
        for msg in client.take_outgoing() {
            server.deliver(msg);
        }
        let asked = server.next_delivered().expect("the GET");
        assert_eq!(asked.src, WorkerAddr(0));
        assert_eq!(
            asked.op,
            UcpOp::Get {
                remote_addr: 0x800,
                len: 8
            }
        );

        // The server's runtime answers with the memory contents, naming the
        // request it read off the arrival.
        server.post(
            asked.src,
            UcpOp::GetReply {
                request: asked.request,
                data: vec![42; 8].into(),
            },
        );
        for msg in server.take_outgoing() {
            client.deliver(msg);
        }
        match client.next_delivered().expect("the reply").op {
            UcpOp::GetReply { request, data } => {
                assert_eq!(request, req);
                assert_eq!(data.len(), 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A caller bounds how many events it handles by how often it pops: what
    /// it leaves stays queued, in arrival order, for the next round.
    #[test]
    fn progress_respects_max_events() {
        let mut a = Worker::new(WorkerAddr(0));
        let mut b = Worker::new(WorkerAddr(1));
        for i in 0..10u8 {
            a.post(
                WorkerAddr(1),
                UcpOp::ActiveMessage {
                    handler: AmHandlerId(0),
                    payload: vec![i].into(),
                },
            );
        }
        for msg in a.take_outgoing() {
            b.deliver(msg);
        }
        let mut pop = |n: usize| -> Vec<u64> {
            let popped = std::iter::from_fn(|| b.next_delivered()).take(n);
            popped.map(|msg| msg.request.0).collect()
        };
        assert_eq!(pop(3), [0, 1, 2]);
        assert_eq!(pop(usize::MAX), [3, 4, 5, 6, 7, 8, 9]);
        assert!(pop(1).is_empty());
    }

    #[test]
    fn wire_sizes_track_payload_sizes() {
        let small = UcpOp::IfuncFrame {
            bytes: vec![0; 26].into(),
            code: Bytes::new(),
        };
        let large = UcpOp::IfuncFrame {
            bytes: vec![0; 5185].into(),
            code: Bytes::new(),
        };
        assert!(small.wire_size() < large.wire_size());
        assert_eq!(large.wire_size() - small.wire_size(), 5185 - 26);
        // A full frame as two views costs what it costs in one buffer.
        let split = UcpOp::IfuncFrame {
            bytes: vec![0; 26].into(),
            code: vec![0; 5185 - 26].into(),
        };
        assert_eq!(split.wire_size(), large.wire_size());
        let get = UcpOp::Get {
            remote_addr: 0,
            len: 8,
        };
        assert!(get.wire_size() < 64);
    }

    #[test]
    fn request_ids_are_unique_per_worker() {
        let mut w = Worker::new(WorkerAddr(0));
        let ids: Vec<RequestId> = (0..100)
            .map(|_| {
                w.post(
                    WorkerAddr(1),
                    UcpOp::Get {
                        remote_addr: 0,
                        len: 1,
                    },
                )
            })
            .collect();
        let mut dedup = ids.clone();
        dedup.sort_by_key(|r| r.0);
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }
}
