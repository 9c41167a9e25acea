//! The per-node Three-Chains runtime.
//!
//! Every process element (host CPU process or DPU Arm-core process) owns a
//! [`NodeRuntime`]: the UCP-like worker, the node's memory, the ORC-like JIT
//! session, the sender-side code cache, the target-side registration table,
//! and the Active-Message handler table used by the baseline mode.
//!
//! The runtime implements both halves of the paper's workflow:
//!
//! * **source side** — register ifunc libraries, create messages, send them
//!   with transparent code-section caching ([`NodeRuntime::send_ifunc`]);
//! * **target side** — poll for delivered messages
//!   ([`NodeRuntime::poll`]), auto-register ifuncs on first arrival (compile
//!   the bitcode or GOT-patch the binary, then link either through the JIT
//!   session's one link step), invoke the entry function with the payload
//!   and the target pointer, and post what the running ifunc asks for as it
//!   asks (recursive forwards, PUTs, result returns) — the X-RDMA behaviour.
//!
//! Framework services are exposed to running ifuncs as external symbols
//! (`tc_node_id`, `tc_put`, `tc_forward_self`, `tc_return_result`, …),
//! resolved to a [`HostCall`] when the module is emitted and answered through
//! the execution engine's host interface, mirroring how the real system lets
//! injected code call back into UCX.

use crate::cache::{CacheRow, SendDecision, SenderCache};
use crate::error::{CoreError, Result};
use crate::frame::{encode_frame, CodeRepr, FrameView};
use crate::ifunc::{IfuncHandle, IfuncLibrary, IfuncMessage, IfuncRegistry};
use crate::layout::{
    decode_result_record, encode_result_record, is_result_mailbox_addr, result_slot_addr,
    result_slot_of_addr, PAYLOAD_STAGING_BASE, RESULT_MAILBOX_SLOTS, TARGET_REGION_BASE,
};
use crate::metrics::{OutcomeKind, ProcessOutcome, RuntimeStats};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use tc_bitir::{decode_module, FatBitcode, TargetTriple};
use tc_jit::{
    Engine, ExternalHost, HostCall, JitError, LoadedLibs, MaterializedModule, Memory, OrcJit,
    SparseMemory,
};
use tc_ucx::{AmHandlerId, BufPool, Bytes, OutgoingMessage, RequestId, UcpOp, Worker, WorkerAddr};

/// Execution context handed to native Active-Message handlers.  What a
/// handler asks to send is posted as it asks, as an ifunc's framework calls
/// are.
pub struct AmContext<'a> {
    /// This node's rank.
    pub node_id: u32,
    /// Number of nodes in the job.
    pub num_nodes: u32,
    /// The node's memory.
    pub memory: &'a mut SparseMemory,
    out: Outbox<'a>,
    am_ids: &'a HashMap<String, AmHandlerId>,
    /// The first request that failed: the message's handling fails with it.
    failed: Option<CoreError>,
}

impl AmContext<'_> {
    /// Send an Active Message to the handler predeployed as `handler` on
    /// `dst`.
    pub fn send_am(&mut self, handler: &str, dst: WorkerAddr, payload: impl Into<Bytes>) {
        match am_op(self.am_ids, handler, payload.into()) {
            Ok(op) => self.out.post(dst, op),
            Err(e) => self.failed = self.failed.take().or(Some(e)),
        }
    }

    /// X-RDMA ReturnResult: deliver `value` into result-mailbox `slot` on
    /// node `dst`.
    pub fn return_result(&mut self, dst: WorkerAddr, slot: u64, value: u64) {
        if let Err(e) = self.out.return_result(self.memory, dst, slot, value) {
            self.failed = self.failed.take().or(Some(e.into()));
        }
    }
}

/// A native (predeployed) Active-Message handler.  Returns an estimated
/// cycle count for the work it did, used by the cost model.
pub type NativeAmHandler = Arc<dyn Fn(&mut AmContext<'_>, &[u8]) -> u64 + Send + Sync>;

/// A completion event surfaced to the local application (client-side logic).
#[derive(Debug, Clone, PartialEq)]
pub enum Completion {
    /// A posted GET finished.
    Get {
        /// The GET's request id.
        request: RequestId,
        /// Fetched bytes (zero-copy view of the received wire buffer).
        data: Bytes,
    },
    /// An X-RDMA result arrived in the local mailbox.
    Result {
        /// Mailbox slot.
        slot: u64,
        /// Result value.
        value: u64,
    },
    /// A confirmed PUT ([`NodeRuntime::post_put_confirmed`]) was applied on
    /// the remote node and its acknowledgement travelled back.
    Put {
        /// The confirmed PUT's request id.
        request: RequestId,
    },
}

/// Target-side record of an ifunc that has been received and registered:
/// everything a later arrival of the same name needs, resolved once.
struct ReceivedIfunc {
    /// The linked module — compiled from bitcode or loaded from a binary
    /// object once, when the ifunc was registered; the registration table
    /// is the only thing that keeps it.
    module: MaterializedModule,
    /// Index of the entry function in the loaded module.
    entry: u32,
    /// What the ifunc forwards itself as.
    origin: Origin,
}

/// The parts of the frame a received ifunc arrived in that its forwards
/// send again, and, once it has forwarded, the sender-cache row that says
/// which peers have its code.
struct Origin {
    /// The registration key, shared with the name index of the table.
    name: Arc<str>,
    /// The representation it arrived in, and is forwarded in.
    repr: CodeRepr,
    /// The frame's CODE | DEPS | MAGIC tail as it arrived — a view of the
    /// sender's tail or of the arrival buffer — posted as it is behind the
    /// head of a forward to a peer that has not seen the ifunc, so recursive
    /// propagation copies no code.
    tail: Bytes,
    /// The code length and the dependency count a forward's head names.
    code_len: usize,
    deps: usize,
    /// Taken on the first forward, so that an ifunc that never forwards
    /// adds no row and a cached forward names nothing.
    row: Option<CacheRow>,
}

/// The per-node Three-Chains runtime.
pub struct NodeRuntime {
    node_id: WorkerAddr,
    num_nodes: u32,
    triple: TargetTriple,
    /// The UCP-like worker owning this node's mailboxes.
    pub worker: Worker,
    /// The node's memory.
    pub memory: SparseMemory,
    jit: OrcJit,
    engine: Engine,
    registry: IfuncRegistry,
    sender_cache: SenderCache,
    /// The registration table: records in arrival order, found by name
    /// through `by_name` — or, for an arrival of the ifunc the last one ran,
    /// as `received[last]`, by one comparison of the name.
    received: Vec<ReceivedIfunc>,
    by_name: HashMap<Arc<str>, usize>,
    last: usize,
    /// Frames this node forwarded to itself: its next arrivals, ahead of
    /// the worker's inbox.
    local: VecDeque<Bytes>,
    /// Predeployed AM handlers, indexed by [`AmHandlerId`].
    am_handlers: Vec<NativeAmHandler>,
    am_ids: HashMap<String, AmHandlerId>,
    completions: Vec<Completion>,
    /// Recycled scratch buffers for reply payloads (GET serving).
    reply_pool: BufPool,
    /// Cumulative counters.
    pub stats: RuntimeStats,
}

impl std::fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("node_id", &self.node_id)
            .field("num_nodes", &self.num_nodes)
            .field("triple", &self.triple.name())
            .field("registered", &self.registry.names())
            .field("received", &self.by_name.keys().collect::<Vec<_>>())
            .field("stats", &self.stats)
            .finish()
    }
}

impl NodeRuntime {
    /// Create a runtime for node `node_id` of a `num_nodes`-node job running
    /// on the given target triple.
    pub fn new(node_id: WorkerAddr, num_nodes: u32, triple: TargetTriple) -> Self {
        NodeRuntime {
            node_id,
            num_nodes,
            triple,
            worker: Worker::new(node_id),
            memory: SparseMemory::new(),
            jit: OrcJit::new(triple),
            engine: Engine::new(),
            registry: IfuncRegistry::new(),
            sender_cache: SenderCache::new(),
            received: Vec::new(),
            by_name: HashMap::new(),
            last: 0,
            local: VecDeque::new(),
            am_handlers: Vec::new(),
            am_ids: HashMap::new(),
            completions: Vec::new(),
            reply_pool: BufPool::new(),
            stats: RuntimeStats::default(),
        }
    }

    /// This node's rank.
    pub fn node_id(&self) -> WorkerAddr {
        self.node_id
    }

    /// Number of nodes in the job.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Target triple of this node.
    pub fn triple(&self) -> TargetTriple {
        self.triple
    }

    // --- source-side API ----------------------------------------------------

    /// Register an ifunc library (source side), returning its handle.
    pub fn register_library(&mut self, library: IfuncLibrary) -> IfuncHandle {
        self.registry.register(library)
    }

    /// Create a bitcode-representation message for a registered library.
    pub fn create_bitcode_message(
        &self,
        handle: IfuncHandle,
        payload: Vec<u8>,
    ) -> Result<IfuncMessage> {
        let lib = self.registry.get(handle)?;
        Ok(IfuncMessage::bitcode(handle, lib, payload))
    }

    /// Create a binary-representation message for a registered library,
    /// targeted at a destination triple.
    pub fn create_binary_message(
        &self,
        handle: IfuncHandle,
        target_triple: &str,
        payload: Vec<u8>,
    ) -> Result<IfuncMessage> {
        let lib = self.registry.get(handle)?;
        IfuncMessage::binary(handle, lib, target_triple, payload)
    }

    /// Send an ifunc message to `dst`, applying the sender-side code cache.
    /// Returns the number of bytes actually posted to the fabric.
    pub fn send_ifunc(&mut self, message: &IfuncMessage, dst: WorkerAddr) -> usize {
        // The head was encoded with the message and the tail is the
        // library's: repeat sends (to any destination) clone shared views,
        // and a full send copies no code.
        let row = self.sender_cache.row_of(&message.frame.ifunc_name);
        let code = match self.sender_cache.decide(row, dst) {
            SendDecision::SendFull => {
                self.stats.ifunc_full_sends += 1;
                message.tail().clone()
            }
            SendDecision::SendTruncated => {
                self.stats.ifunc_truncated_sends += 1;
                Bytes::new()
            }
        };
        let bytes = message.head().clone();
        let len = bytes.len() + code.len();
        self.stats.bytes_sent += len as u64;
        self.worker.post(dst, UcpOp::IfuncFrame { bytes, code });
        len
    }

    /// `endpoint` restarted with no code: the next send of every ifunc to it
    /// ships the code again.
    pub(crate) fn forget_endpoint(&mut self, endpoint: WorkerAddr) {
        self.sender_cache.forget_endpoint(endpoint);
    }

    /// Post a one-sided GET of `len` bytes at `addr` on node `dst`.
    pub fn post_get(&mut self, dst: WorkerAddr, addr: u64, len: u64) -> RequestId {
        self.stats.bytes_sent += 32;
        self.worker.post(
            dst,
            UcpOp::Get {
                remote_addr: addr,
                len,
            },
        )
    }

    /// Post a one-sided PUT of `data` at `addr` on node `dst`.  Passing a
    /// [`Bytes`] view makes the post zero-copy end to end.
    pub fn post_put(&mut self, dst: WorkerAddr, addr: u64, data: impl Into<Bytes>) -> RequestId {
        let data = data.into();
        self.stats.bytes_sent += (24 + data.len()) as u64;
        self.worker.post(
            dst,
            UcpOp::Put {
                remote_addr: addr,
                data,
            },
        )
    }

    /// Post a *confirmed* one-sided PUT: the destination applies the write
    /// and answers with a [`UcpOp::PutAck`], which surfaces locally as
    /// [`Completion::Put`] carrying the returned request id.
    pub fn post_put_confirmed(
        &mut self,
        dst: WorkerAddr,
        addr: u64,
        data: impl Into<Bytes>,
    ) -> RequestId {
        let data = data.into();
        self.stats.bytes_sent += (24 + data.len()) as u64;
        self.worker.post(
            dst,
            UcpOp::PutConfirm {
                remote_addr: addr,
                data,
            },
        )
    }

    /// Send an Active Message to a predeployed handler on `dst`.  Returns the
    /// wire size posted.
    pub fn send_am(
        &mut self,
        handler: &str,
        dst: WorkerAddr,
        payload: impl Into<Bytes>,
    ) -> Result<usize> {
        let op = am_op(&self.am_ids, handler, payload.into())?;
        let size = op.wire_size();
        self.stats.bytes_sent += size as u64;
        self.worker.post(dst, op);
        Ok(size)
    }

    // --- Active-Message baseline (predeployed code) --------------------------

    /// Predeploy a native Active-Message handler.  Handlers must be deployed
    /// on every node in the same order so the ids agree cluster-wide, exactly
    /// like a collectively pre-registered AM table.
    pub fn deploy_am_handler(
        &mut self,
        name: impl Into<String>,
        handler: NativeAmHandler,
    ) -> AmHandlerId {
        let name = name.into();
        if let Some(&id) = self.am_ids.get(&name) {
            self.am_handlers[usize::from(id.0)] = handler;
            return id;
        }
        let id = AmHandlerId(self.am_handlers.len() as u16);
        self.am_ids.insert(name, id);
        self.am_handlers.push(handler);
        id
    }

    // --- delivery and polling (target side) ----------------------------------

    /// Drain operations this node has posted (called by the transport driver).
    pub fn take_outgoing(&mut self) -> Vec<OutgoingMessage> {
        self.worker.take_outgoing()
    }

    /// The oldest operation this node has posted and no driver has taken:
    /// [`NodeRuntime::take_outgoing`] one at a time, building no list.
    pub fn next_outgoing(&mut self) -> Option<OutgoingMessage> {
        self.worker.next_outgoing()
    }

    /// Deliver an in-flight message into this node's worker (called by the
    /// transport driver when the message arrives).
    pub fn deliver(&mut self, msg: OutgoingMessage) {
        self.worker.deliver(msg);
    }

    /// Poll the worker: handle up to `max_events` delivered messages,
    /// returning one [`ProcessOutcome`] per handled message.  This is the
    /// paper's "ifunc polling function" that a daemon thread would call
    /// periodically.
    pub fn poll(&mut self, max_events: usize) -> Vec<Result<ProcessOutcome>> {
        let mut outcomes = Vec::new();
        self.poll_each(max_events, |outcome| outcomes.push(outcome));
        outcomes
    }

    /// [`NodeRuntime::poll`] handing each outcome to `each` instead of
    /// collecting them; returns how many messages were handled.  A frame
    /// this node forwarded to itself is its next arrival, so every hop of a
    /// self-forwarding ifunc is one event of its own.
    pub fn poll_each(
        &mut self,
        max_events: usize,
        mut each: impl FnMut(Result<ProcessOutcome>),
    ) -> usize {
        let mut handled = 0;
        while handled < max_events {
            let outcome = if let Some(frame) = self.local.pop_front() {
                self.handle_ifunc(&frame, &Bytes::new(), true)
            } else if let Some(msg) = self.worker.next_delivered() {
                self.handle_message(msg)
            } else {
                break;
            };
            each(outcome);
            handled += 1;
        }
        handled
    }

    /// Take accumulated client-side completions (GET results, X-RDMA results).
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Number of completions waiting to be taken.
    pub fn completions_pending(&self) -> usize {
        self.completions.len()
    }

    /// Apply a remotely written PUT payload to local memory, surfacing a
    /// result completion when it lands in the X-RDMA mailbox.
    fn apply_put(&mut self, addr: u64, data: &Bytes) -> Result<()> {
        self.memory
            .write(addr, data)
            .map_err(|e| CoreError::Sim(e.to_string()))?;
        self.stats.puts_applied += 1;
        if is_result_mailbox_addr(addr) {
            if let (Some(slot), Some(value)) =
                (result_slot_of_addr(addr), decode_result_record(data))
            {
                self.completions.push(Completion::Result { slot, value });
            }
        }
        Ok(())
    }

    fn handle_message(&mut self, msg: OutgoingMessage) -> Result<ProcessOutcome> {
        let OutgoingMessage {
            src, request, op, ..
        } = msg;
        match op {
            UcpOp::Put { remote_addr, data } => {
                self.apply_put(remote_addr, &data)?;
                Ok(ProcessOutcome::passive(OutcomeKind::PutApplied))
            }
            UcpOp::PutConfirm { remote_addr, data } => {
                self.apply_put(remote_addr, &data)?;
                self.worker.post(src, UcpOp::PutAck { acked: request });
                Ok(ProcessOutcome::passive(OutcomeKind::PutConfirmed))
            }
            UcpOp::PutAck { acked } => {
                self.completions.push(Completion::Put { request: acked });
                Ok(ProcessOutcome::passive(OutcomeKind::PutAckReceived))
            }
            UcpOp::Get { remote_addr, len } => {
                // `len` came off the wire: no reply longer than a frame could
                // carry is allocated.
                let len = bounded("GET", len, tc_net::MAX_FRAME_BYTES)?;
                // Read straight into a recycled pool buffer: serving a GET
                // allocates nothing in steady state.
                let memory = &self.memory;
                let data = self
                    .reply_pool
                    .fill(len, |out| memory.read(remote_addr, out))
                    .map_err(|e| CoreError::Sim(e.to_string()))?;
                self.worker.post(src, UcpOp::GetReply { request, data });
                self.stats.gets_served += 1;
                Ok(ProcessOutcome::passive(OutcomeKind::GetServed))
            }
            UcpOp::GetReply { request, data } => {
                self.completions.push(Completion::Get { request, data });
                Ok(ProcessOutcome::passive(OutcomeKind::GetCompleted))
            }
            UcpOp::ActiveMessage { handler, payload } => self.handle_am(handler, &payload),
            UcpOp::IfuncFrame { bytes, code } => self.handle_ifunc(&bytes, &code, false),
        }
    }

    fn handle_am(&mut self, handler: AmHandlerId, payload: &[u8]) -> Result<ProcessOutcome> {
        let func = self
            .am_handlers
            .get(usize::from(handler.0))
            .ok_or_else(|| CoreError::UnknownAmHandler {
                name: format!("#{}", handler.0),
            })?;
        let mut ctx = AmContext {
            node_id: self.node_id.0,
            num_nodes: self.num_nodes,
            memory: &mut self.memory,
            out: Outbox {
                node_id: self.node_id,
                worker: &mut self.worker,
                stats: &mut self.stats,
                completions: &mut self.completions,
                emitted: 0,
            },
            am_ids: &self.am_ids,
            failed: None,
        };
        let cycles = func(&mut ctx, payload);
        let (actions_emitted, failed) = (ctx.out.emitted, ctx.failed);
        self.stats.ams_executed += 1;
        if let Some(e) = failed {
            return Err(e);
        }
        Ok(ProcessOutcome {
            kind: OutcomeKind::AmExecuted,
            exec_cycles: cycles,
            jit_bitcode_bytes: None,
            binary_loaded: false,
            actions_emitted,
            payload_bytes: payload.len(),
        })
    }

    /// Handle one ifunc frame — in one buffer, or the head and the `tail` of
    /// a full frame sent as two views: one delivered by the worker, or one
    /// this node forwarded to itself (`local`, counted as an execution alone).
    fn handle_ifunc(&mut self, bytes: &Bytes, tail: &Bytes, local: bool) -> Result<ProcessOutcome> {
        // Parsed in place: the name is borrowed from the received buffer and
        // the payload is a sub-slice of it.
        let frame = FrameView::parse(bytes, tail)?;
        // The receiver decides by its own registration table, not by
        // trusting the sender.
        let known = self.lookup(frame.ifunc_name);
        let first_arrival = known.is_none();
        let mut jit_bitcode_bytes = None;

        let index = match &frame.code {
            None => {
                self.stats.truncated_frames_received += u64::from(!local);
                known.ok_or_else(|| CoreError::TruncatedWithoutRegistration {
                    name: frame.ifunc_name.to_string(),
                })?
            }
            Some(code) => {
                self.stats.full_frames_received += 1;
                match known {
                    // Code arrived again even though we already have it
                    // (e.g. a different source that had not sent to us
                    // before); treat as cached — no recompilation: the
                    // registration table plays ORC-JIT's symbol cache.
                    Some(index) => index,
                    None => {
                        let tail = frame.tail(bytes, tail);
                        let (index, jitted) = self.register_received(&frame, tail, code.clone())?;
                        jit_bitcode_bytes = jitted;
                        index
                    }
                }
            }
        };

        let payload = &bytes[frame.payload.clone()];
        let (exec_cycles, actions_emitted) = self.execute_ifunc(index, payload)?;
        self.stats.ifuncs_executed += 1;
        Ok(ProcessOutcome {
            kind: if first_arrival {
                OutcomeKind::IfuncExecutedFirstArrival
            } else {
                OutcomeKind::IfuncExecutedCached
            },
            exec_cycles,
            jit_bitcode_bytes,
            binary_loaded: first_arrival && self.received[index].origin.repr == CodeRepr::Binary,
            actions_emitted,
            payload_bytes: payload.len(),
        })
    }

    /// The registration record of `name`: the one the last arrival ran, by
    /// comparing the name — a chase sends one ifunc over and over — or else
    /// through the name index.
    fn lookup(&mut self, name: &str) -> Option<usize> {
        let last = self.received.get(self.last);
        if last.is_some_and(|rec| *rec.origin.name == *name) {
            return Some(self.last);
        }
        self.last = *self.by_name.get(name)?;
        Some(self.last)
    }

    /// Register a newly arrived full frame whose code section is `code` of
    /// its `tail`, linked by the JIT session's one link step whatever its
    /// representation.  Returns the record's index and, for a bitcode frame,
    /// the size of the bitcode that was compiled — the host's slice of the
    /// archive, the only part of it read.
    fn register_received(
        &mut self,
        frame: &FrameView<'_>,
        tail: Bytes,
        code: Range<usize>,
    ) -> Result<(usize, Option<usize>)> {
        let (code_len, code) = (code.len(), &tail[code]);
        let (module, jit_bitcode_bytes) = match frame.repr {
            CodeRepr::Bitcode => {
                let (slice, deps) = FatBitcode::select_encoded(code, self.triple)?;
                let slice = &code[slice];
                // A slice that does not decode is a JIT error, as one that
                // does not compile is.
                let mut module = decode_module(slice).map_err(JitError::from)?;
                // The frame must name the module it carries: refused before
                // anything is compiled, written to memory or counted.
                if module.name != frame.ifunc_name {
                    return Err(JitError::UnknownFunction {
                        name: format!("{}::{}", frame.ifunc_name, tc_bitir::Module::ENTRY_NAME),
                    }
                    .into());
                }
                let deps = deps.into_iter().chain(frame.deps.iter().copied());
                merge_deps(&mut module.deps, deps)?;
                let module = self.jit.materialize(module, &mut self.memory)?;
                self.stats.jit_compilations += 1;
                (module, Some(slice.len()))
            }
            CodeRepr::Binary => {
                let mut obj = tc_binfmt::ObjectFile::decode(code)?;
                // A missing library is refused first, as bitcode's is.
                let libs = merge_deps(&mut obj.deps, frame.deps.iter().copied())?;
                let image = tc_binfmt::load_object(
                    &obj,
                    &self.triple.name(),
                    &libs,
                    tc_binfmt::LoadOptions::default(),
                )?;
                let mut module = tc_jit::module_from_image(&image)?;
                module.deps = obj.deps;
                let module = self.jit.link(module, &mut self.memory)?;
                self.stats.binary_loads += 1;
                (module, None)
            }
        };
        let entry = module
            .module
            .function_index(tc_bitir::Module::ENTRY_NAME)
            .ok_or_else(|| JitError::UnknownFunction {
                name: tc_bitir::Module::ENTRY_NAME.to_string(),
            })?;
        let name: Arc<str> = Arc::from(frame.ifunc_name);
        let index = self.received.len();
        let origin = Origin {
            row: None,
            name: Arc::clone(&name),
            repr: frame.repr,
            tail,
            code_len,
            deps: frame.deps.len(),
        };
        self.received.push(ReceivedIfunc {
            module,
            entry,
            origin,
        });
        self.by_name.insert(name, index);
        self.last = index;
        Ok((index, jit_bitcode_bytes))
    }

    /// Execute registered ifunc number `index` with the given payload; its
    /// framework calls post as they are made.  Returns (exec_cycles, calls
    /// that posted or queued something).
    fn execute_ifunc(&mut self, index: usize, payload: &[u8]) -> Result<(u64, usize)> {
        // Stage the payload.
        self.memory
            .write(PAYLOAD_STAGING_BASE, payload)
            .map_err(|e| CoreError::Sim(e.to_string()))?;

        let rec = &mut self.received[index];
        let mut host = FrameworkHost {
            num_nodes: self.num_nodes,
            ifunc: &mut rec.origin,
            cache: &mut self.sender_cache,
            local: &mut self.local,
            out: Outbox {
                node_id: self.node_id,
                worker: &mut self.worker,
                stats: &mut self.stats,
                completions: &mut self.completions,
                emitted: 0,
            },
        };
        let args = [
            PAYLOAD_STAGING_BASE,
            payload.len() as u64,
            TARGET_REGION_BASE,
        ];
        let out =
            rec.module
                .execute(&self.engine, rec.entry, &args, &mut self.memory, &mut host)?;
        Ok((out.cycles, host.out.emitted))
    }
}

/// Append each of `extra` that names a library `deps` does not load: a
/// module links against its own dependencies and the frame's DEPS field
/// (normally the same).  Each name is resolved as it is merged, so a hostile
/// list is refused at its first unknown name in one pass.
fn merge_deps<'a>(
    deps: &mut Vec<String>,
    extra: impl Iterator<Item = &'a str>,
) -> Result<LoadedLibs> {
    let mut libs = LoadedLibs::load(deps)?;
    for d in extra {
        let (more, new) = libs.with(d)?;
        if new {
            deps.push(d.to_string());
            libs = more;
        }
    }
    Ok(libs)
}

/// Where executing code's follow-on operations go — an ifunc's framework
/// calls and an AM handler's requests alike: posted as they are made, in
/// order.
struct Outbox<'a> {
    node_id: WorkerAddr,
    worker: &'a mut Worker,
    stats: &'a mut RuntimeStats,
    completions: &'a mut Vec<Completion>,
    /// Operations posted, or queued for this node itself.
    emitted: usize,
}

impl Outbox<'_> {
    fn post(&mut self, dst: WorkerAddr, op: UcpOp) {
        self.stats.bytes_sent += op.wire_size() as u64;
        self.worker.post(dst, op);
        self.emitted += 1;
    }

    /// X-RDMA ReturnResult: `value` into result-mailbox `slot` on `dst` —
    /// written into `mem` when `dst` is this node.
    fn return_result(
        &mut self,
        mem: &mut dyn Memory,
        dst: WorkerAddr,
        slot: u64,
        value: u64,
    ) -> tc_jit::Result<()> {
        let (remote_addr, record) = (result_slot_addr(slot), encode_result_record(value));
        if dst != self.node_id {
            let data = tc_ucx::bytes::pooled(record.len(), |out| out.copy_from_slice(&record));
            self.post(dst, UcpOp::Put { remote_addr, data });
            return Ok(());
        }
        mem.write(remote_addr, &record)?;
        // The slot its address names, as on the remote path.
        let slot = slot % RESULT_MAILBOX_SLOTS;
        self.completions.push(Completion::Result { slot, value });
        self.emitted += 1;
        Ok(())
    }
}

/// The AM deployed as `handler`, carrying `payload`.
fn am_op(am_ids: &HashMap<String, AmHandlerId>, handler: &str, payload: Bytes) -> Result<UcpOp> {
    let id = am_ids.get(handler).copied();
    let id = id.ok_or_else(|| CoreError::UnknownAmHandler {
        name: handler.to_string(),
    })?;
    Ok(UcpOp::ActiveMessage {
        handler: id,
        payload,
    })
}

/// The [`ExternalHost`] exposed to executing ifuncs: framework services
/// reachable as external symbols, answered by the [`HostCall`] each symbol
/// was resolved to when the module was emitted.  A forward is encoded
/// straight from the ifunc's memory into a buffer of the thread's encode
/// pool.
struct FrameworkHost<'a> {
    num_nodes: u32,
    ifunc: &'a mut Origin,
    cache: &'a mut SenderCache,
    local: &'a mut VecDeque<Bytes>,
    out: Outbox<'a>,
}

/// A length `what` asked for, if it is at most `max`.
fn bounded(what: &str, len: u64, max: usize) -> tc_jit::Result<usize> {
    usize::try_from(len)
        .ok()
        .filter(|&n| n <= max)
        .ok_or_else(|| JitError::TooLarge {
            what: what.into(),
            len,
            max: max as u64,
        })
}

impl FrameworkHost<'_> {
    /// `tc_forward_self`: the executing ifunc, with the `len` bytes at
    /// `payload` as its payload, to `dst` — the full frame to a peer this
    /// node has not sent its code to, the truncated one otherwise, and to
    /// this node itself as its next arrival.
    fn forward(
        &mut self,
        dst: WorkerAddr,
        payload: u64,
        len: u64,
        mem: &mut dyn Memory,
    ) -> tc_jit::Result<()> {
        // The frame's payload length field is a u32.
        let len = bounded("tc_forward_self", len, u32::MAX as usize)?;
        let (origin, me) = (&mut *self.ifunc, self.out.node_id);
        let head = (&*origin.name, origin.repr, origin.code_len, origin.deps);
        let bytes = encode_frame(head, len, |out| mem.read(payload, out), None)?;
        self.out.emitted += 1;
        if dst == me {
            self.local.push_back(bytes);
            return Ok(());
        }
        // A peer without the code gets the tail this node's copy arrived with.
        let stats = &mut *self.out.stats;
        let row = *origin
            .row
            .get_or_insert_with(|| self.cache.row_of(&origin.name));
        let code = if self.cache.has(row, dst) {
            stats.ifunc_truncated_sends += 1;
            Bytes::new()
        } else {
            self.cache.decide(row, dst);
            stats.ifunc_full_sends += 1;
            origin.tail.clone()
        };
        stats.bytes_sent += (bytes.len() + code.len()) as u64;
        self.out.worker.post(dst, UcpOp::IfuncFrame { bytes, code });
        Ok(())
    }
}

impl ExternalHost for FrameworkHost<'_> {
    fn call_external(
        &mut self,
        symbol: &str,
        args: &[u64],
        mem: &mut dyn Memory,
    ) -> tc_jit::Result<u64> {
        let (value, _) = self.call_host(HostCall::of(symbol), symbol, args, mem)?;
        Ok(value)
    }

    fn external_cost(&self, symbol: &str) -> u64 {
        cost(HostCall::of(symbol))
    }

    fn call_host(
        &mut self,
        call: HostCall,
        symbol: &str,
        args: &[u64],
        mem: &mut dyn Memory,
    ) -> tc_jit::Result<(u64, u64)> {
        let arity = match call {
            HostCall::NodeId | HostCall::NumNodes | HostCall::SelfNameLen => 0,
            HostCall::ForwardSelf | HostCall::ReturnResult => 3,
            HostCall::Put => 4,
            HostCall::Library(..) | HostCall::Unresolved => {
                return Err(JitError::UnresolvedSymbol {
                    symbol: symbol.to_string(),
                })
            }
        };
        if args.len() != arity {
            let got = args.len();
            return Err(JitError::Host(format!(
                "{symbol} expects {arity} arguments, got {got}"
            )));
        }
        let dst = || WorkerAddr(args[0] as u32);
        let value = match call {
            HostCall::NodeId => u64::from(self.out.node_id.0),
            HostCall::NumNodes => u64::from(self.num_nodes),
            HostCall::SelfNameLen => self.ifunc.name.len() as u64,
            // tc_put(dst_node, remote_addr, local_addr, len)
            HostCall::Put => {
                let len = bounded("tc_put", args[3], tc_net::MAX_FRAME_BYTES)?;
                let read = |out: &mut [u8]| mem.read(args[2], out);
                let data = tc_ucx::bytes::with_pool(|pool| pool.fill(len, read))?;
                if dst() == self.out.node_id {
                    mem.write(args[1], &data)?;
                    self.out.emitted += 1;
                } else {
                    let remote_addr = args[1];
                    self.out.post(dst(), UcpOp::Put { remote_addr, data });
                }
                0
            }
            // tc_forward_self(dst_node, payload_addr, payload_len)
            HostCall::ForwardSelf => {
                self.forward(dst(), args[1], args[2], mem)?;
                0
            }
            // tc_return_result(dst_node, slot, value)
            _ => {
                self.out.return_result(mem, dst(), args[1], args[2])?;
                0
            }
        };
        Ok((value, cost(call)))
    }
}

/// Cycles charged for a framework call.
fn cost(call: HostCall) -> u64 {
    match call {
        HostCall::NodeId | HostCall::NumNodes | HostCall::SelfNameLen => 5,
        // Posting a network operation costs some local work; the fabric
        // latency itself is charged by the simulator.
        _ => 150,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl NodeRuntime {
        /// Read the result-mailbox slot `slot`, returning the value if a result
        /// has arrived (one-sided completion check).
        fn poll_result_slot(&self, slot: u64) -> Option<u64> {
            let mut buf = [0u8; 16];
            self.memory.read(result_slot_addr(slot), &mut buf).ok()?;
            decode_result_record(&buf)
        }
    }
    use crate::frame::MessageFrame;
    use crate::ifunc::{build_ifunc_library, ToolchainOptions};
    use crate::layout::DATA_REGION_BASE;
    use tc_bitir::{BinOp, Module, ModuleBuilder, ScalarType};
    use tc_jit::MemoryExt;

    fn tsi_module() -> Module {
        let mut mb = ModuleBuilder::new("tsi");
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let target = f.param(2);
            let delta = f.load(ScalarType::U8, payload, 0);
            let counter = f.load(ScalarType::U64, target, 0);
            let sum = f.bin(BinOp::Add, ScalarType::U64, counter, delta);
            f.store(ScalarType::U64, sum, target, 0);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        mb.build()
    }

    /// An ifunc that returns a result to the client: reads a u64 value from
    /// the payload, doubles it, and calls tc_return_result(client, slot, v).
    fn doubler_module() -> Module {
        let mut mb = ModuleBuilder::new("doubler");
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let client = f.load(ScalarType::U64, payload, 0);
            let slot = f.load(ScalarType::U64, payload, 8);
            let value = f.load(ScalarType::U64, payload, 16);
            let two = f.const_u64(2);
            let doubled = f.bin(BinOp::Mul, ScalarType::U64, value, two);
            f.call_ext("tc_return_result", vec![client, slot, doubled], true);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        mb.build()
    }

    fn lib(module: &Module) -> IfuncLibrary {
        build_ifunc_library(module, &ToolchainOptions::default()).unwrap()
    }

    /// Move all posted messages between two runtimes until quiescent.
    fn route(a: &mut NodeRuntime, b: &mut NodeRuntime) -> Vec<Result<ProcessOutcome>> {
        let mut outcomes = Vec::new();
        for _ in 0..64 {
            let mut moved = false;
            for msg in a.take_outgoing() {
                let dst = msg.dst;
                moved = true;
                if dst == b.node_id() {
                    b.deliver(msg);
                } else if dst == a.node_id() {
                    a.deliver(msg);
                }
            }
            for msg in b.take_outgoing() {
                let dst = msg.dst;
                moved = true;
                if dst == a.node_id() {
                    a.deliver(msg);
                } else if dst == b.node_id() {
                    b.deliver(msg);
                }
            }
            // An unbounded poll leaves both inboxes empty.
            outcomes.extend(a.poll(usize::MAX));
            outcomes.extend(b.poll(usize::MAX));
            if !moved {
                break;
            }
        }
        outcomes
    }

    #[test]
    fn first_send_jits_then_caches() {
        let mut client = NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::THOR_XEON);
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_BF2);
        let handle = client.register_library(lib(&tsi_module()));
        let msg = client.create_bitcode_message(handle, vec![5]).unwrap();

        // Seed the server's counter.
        server.memory.write_u64(TARGET_REGION_BASE, 100).unwrap();

        let first_size = client.send_ifunc(&msg, WorkerAddr(1));
        let outcomes = route(&mut client, &mut server);
        let exec: Vec<_> = outcomes.into_iter().map(|o| o.unwrap()).collect();
        let first = exec
            .iter()
            .find(|o| matches!(o.kind, OutcomeKind::IfuncExecutedFirstArrival))
            .expect("first arrival outcome");
        assert!(first.jit_bitcode_bytes.unwrap() > 500);
        assert_eq!(server.memory.read_u64(TARGET_REGION_BASE).unwrap(), 105);

        // Second send: truncated frame, no recompilation, still executes.
        let second_size = client.send_ifunc(&msg, WorkerAddr(1));
        assert!(second_size * 20 < first_size, "cached frame must be tiny");
        let outcomes = route(&mut client, &mut server);
        let exec: Vec<_> = outcomes.into_iter().map(|o| o.unwrap()).collect();
        assert!(exec
            .iter()
            .any(|o| matches!(o.kind, OutcomeKind::IfuncExecutedCached)));
        assert_eq!(server.memory.read_u64(TARGET_REGION_BASE).unwrap(), 110);
        assert_eq!(server.stats.jit_compilations, 1);
        assert_eq!(server.stats.truncated_frames_received, 1);
    }

    #[test]
    fn binary_ifunc_roundtrip_on_matching_isa() {
        let mut client = NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::THOR_XEON);
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_XEON);
        let handle = client.register_library(lib(&tsi_module()));
        let msg = client
            .create_binary_message(handle, "x86_64-xeon-e5-sim", vec![3])
            .unwrap();
        server.memory.write_u64(TARGET_REGION_BASE, 1).unwrap();
        client.send_ifunc(&msg, WorkerAddr(1));
        let outcomes = route(&mut client, &mut server);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(server.memory.read_u64(TARGET_REGION_BASE).unwrap(), 4);
        assert_eq!(server.stats.binary_loads, 1);
        assert_eq!(server.stats.jit_compilations, 0, "binary path must not JIT");
    }

    #[test]
    fn binary_ifunc_rejected_on_wrong_isa() {
        let mut client = NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::THOR_XEON);
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_BF2);
        let handle = client.register_library(lib(&tsi_module()));
        // Client (x86) builds a binary for its own ISA and sends it to the Arm DPU.
        let msg = client
            .create_binary_message(handle, "x86_64-xeon-e5-sim", vec![3])
            .unwrap();
        client.send_ifunc(&msg, WorkerAddr(1));
        let outcomes = route(&mut client, &mut server);
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o, Err(CoreError::BinaryLoad(_)))),
            "loading an x86 binary on an Arm DPU must fail"
        );
    }

    #[test]
    fn truncated_frame_to_fresh_node_is_an_error() {
        let mut client = NodeRuntime::new(WorkerAddr(0), 3, TargetTriple::THOR_XEON);
        let mut server_a = NodeRuntime::new(WorkerAddr(1), 3, TargetTriple::THOR_BF2);
        let mut server_b = NodeRuntime::new(WorkerAddr(2), 3, TargetTriple::THOR_BF2);
        let handle = client.register_library(lib(&tsi_module()));
        let msg = client.create_bitcode_message(handle, vec![1]).unwrap();

        // Prime server A so the cache records (tsi, A)...
        client.send_ifunc(&msg, WorkerAddr(1));
        route(&mut client, &mut server_a);

        // ...then forge the situation by sending a *truncated* frame straight
        // to server B (bypassing the cache), which has never seen the code.
        let bytes = msg.frame.encode_truncated();
        let code = Bytes::new();
        client
            .worker
            .post(WorkerAddr(2), UcpOp::IfuncFrame { bytes, code });
        for m in client.take_outgoing() {
            server_b.deliver(m);
        }
        let outcomes = server_b.poll(usize::MAX);
        assert!(matches!(
            outcomes[0],
            Err(CoreError::TruncatedWithoutRegistration { .. })
        ));
    }

    #[test]
    fn xrdma_return_result_reaches_client_mailbox() {
        let mut client = NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::THOR_XEON);
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_BF2);
        let handle = client.register_library(lib(&doubler_module()));

        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes()); // client node id
        payload.extend_from_slice(&7u64.to_le_bytes()); // mailbox slot
        payload.extend_from_slice(&21u64.to_le_bytes()); // value to double
        let msg = client.create_bitcode_message(handle, payload).unwrap();
        client.send_ifunc(&msg, WorkerAddr(1));
        route(&mut client, &mut server);

        assert_eq!(client.poll_result_slot(7), Some(42));
        let completions = client.take_completions();
        assert!(completions.contains(&Completion::Result { slot: 7, value: 42 }));
    }

    /// A result returned to the executing node itself completes under the
    /// slot its address names, exactly as a remote return to that slot does.
    #[test]
    fn a_local_return_completes_under_the_slot_its_address_names() {
        let mut client = NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::THOR_XEON);
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_BF2);
        let handle = client.register_library(lib(&doubler_module()));
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // the server itself
        payload.extend_from_slice(&(RESULT_MAILBOX_SLOTS + 7).to_le_bytes());
        payload.extend_from_slice(&21u64.to_le_bytes());
        let msg = client.create_bitcode_message(handle, payload).unwrap();
        client.send_ifunc(&msg, WorkerAddr(1));
        route(&mut client, &mut server);

        assert_eq!(server.poll_result_slot(7), Some(42));
        let completions = server.take_completions();
        assert_eq!(completions, [Completion::Result { slot: 7, value: 42 }]);
    }

    #[test]
    fn get_request_is_served_from_node_memory() {
        let mut client = NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::THOR_XEON);
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_XEON);
        server
            .memory
            .write_u64(crate::layout::DATA_REGION_BASE, 0xfeed)
            .unwrap();
        let req = client.post_get(WorkerAddr(1), crate::layout::DATA_REGION_BASE, 8);
        route(&mut client, &mut server);
        let completions = client.take_completions();
        match &completions[0] {
            Completion::Get { request, data } => {
                assert_eq!(*request, req);
                assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 0xfeed);
            }
            other => panic!("unexpected completion {other:?}"),
        }
        assert_eq!(server.stats.gets_served, 1);
    }

    #[test]
    fn am_baseline_executes_predeployed_handler() {
        let mut client = NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::THOR_XEON);
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_BF2);
        // Predeploy the increment handler on both nodes (same order ⇒ same id).
        let handler: NativeAmHandler = Arc::new(|ctx, payload| {
            let delta = u64::from(payload.first().copied().unwrap_or(0));
            let old = ctx.memory.read_u64(TARGET_REGION_BASE).unwrap_or(0);
            let _ = ctx.memory.write_u64(TARGET_REGION_BASE, old + delta);
            30
        });
        client.deploy_am_handler("tsi_increment", handler.clone());
        server.deploy_am_handler("tsi_increment", handler);

        server.memory.write_u64(TARGET_REGION_BASE, 40).unwrap();
        let size = client
            .send_am("tsi_increment", WorkerAddr(1), vec![2])
            .unwrap();
        assert!(size < 64, "AM request must be tiny ({size} bytes)");
        route(&mut client, &mut server);
        assert_eq!(server.memory.read_u64(TARGET_REGION_BASE).unwrap(), 42);
        assert_eq!(server.stats.ams_executed, 1);

        assert!(client
            .send_am("not_deployed", WorkerAddr(1), vec![])
            .is_err());
    }

    /// An ifunc that forwards itself: payload `[dst u64][hops u64]`; with
    /// hops left it decrements them in place and calls
    /// `tc_forward_self(dst, payload, len)`.
    fn forwarder_module() -> Module {
        let mut mb = ModuleBuilder::new("forwarder");
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let len = f.param(1);
            let dst = f.load(ScalarType::U64, payload, 0);
            let hops = f.load(ScalarType::U64, payload, 8);
            let zero = f.const_u64(0);
            let done = f.cmp(BinOp::CmpEq, ScalarType::U64, hops, zero);
            let stop = f.new_block();
            let go = f.new_block();
            f.br_if(done, stop, go);
            f.switch_to(go);
            let one = f.const_u64(1);
            let left = f.bin(BinOp::Sub, ScalarType::U64, hops, one);
            f.store(ScalarType::U64, left, payload, 8);
            f.call_ext("tc_forward_self", vec![dst, payload, len], true);
            f.br(stop);
            f.switch_to(stop);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        mb.build()
    }

    /// Deliver `frame` bytes to `node` as if `from` had sent them, and poll.
    fn arrive(node: &mut NodeRuntime, from: WorkerAddr, bytes: Bytes) -> Result<ProcessOutcome> {
        arrive_split(node, from, bytes, Bytes::new())
    }

    /// [`arrive`] of a frame's head and, for a full frame sent as two views,
    /// its tail.
    fn arrive_split(
        node: &mut NodeRuntime,
        from: WorkerAddr,
        bytes: Bytes,
        code: Bytes,
    ) -> Result<ProcessOutcome> {
        node.deliver(OutgoingMessage {
            src: from,
            dst: node.node_id(),
            request: RequestId(0),
            op: UcpOp::IfuncFrame { bytes, code },
        });
        node.poll(usize::MAX).remove(0)
    }

    /// The frames `node` has posted, as `(destination, truncated?)`.
    fn posted_frames(node: &mut NodeRuntime) -> Vec<(WorkerAddr, bool)> {
        node.take_outgoing()
            .into_iter()
            .map(|m| match m.op {
                UcpOp::IfuncFrame { bytes, code } => (
                    m.dst,
                    MessageFrame::decode_views(&bytes, &code)
                        .unwrap()
                        .code
                        .is_none(),
                ),
                other => panic!("unexpected operation {other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_second_full_frame_for_a_known_name_compiles_nothing() {
        let mut server = NodeRuntime::new(WorkerAddr(1), 3, TargetTriple::THOR_BF2);
        let library = lib(&tsi_module());
        let frame = IfuncMessage::bitcode(IfuncHandle(0), &library, vec![1]).frame;

        let first = arrive(&mut server, WorkerAddr(0), frame.encode_full()).unwrap();
        assert_eq!(first.kind, OutcomeKind::IfuncExecutedFirstArrival);
        assert!(first.jit_bitcode_bytes.is_some());

        // A second source that had not sent to this node before ships the
        // code again: executed from the registration, nothing recompiled.
        let again = arrive(&mut server, WorkerAddr(2), frame.encode_full()).unwrap();
        assert_eq!(again.kind, OutcomeKind::IfuncExecutedCached);
        assert_eq!(again.jit_bitcode_bytes, None);
        let cached = arrive(&mut server, WorkerAddr(2), frame.encode_truncated()).unwrap();
        assert_eq!(cached.kind, OutcomeKind::IfuncExecutedCached);

        assert_eq!(server.stats.jit_compilations, 1);
        assert_eq!(server.stats.full_frames_received, 2);
        assert_eq!(server.stats.truncated_frames_received, 1);
        assert_eq!(server.stats.ifuncs_executed, 3);
    }

    #[test]
    fn a_frame_must_name_the_module_it_carries() {
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_XEON);
        let library = lib(&tsi_module());
        let alias = MessageFrame::new(
            "alias",
            CodeRepr::Bitcode,
            vec![1],
            library.fat_bitcode_bytes.clone(),
            vec![],
        );
        let refused = arrive(&mut server, WorkerAddr(0), alias.encode_full());
        assert!(
            matches!(&refused, Err(CoreError::Jit(msg)) if msg.contains("alias::main")),
            "{refused:?}"
        );
        // Nothing was registered under the alias, and nothing was compiled.
        assert!(matches!(
            arrive(&mut server, WorkerAddr(0), alias.encode_truncated()),
            Err(CoreError::TruncatedWithoutRegistration { name }) if name == "alias"
        ));
        assert_eq!(server.stats.jit_compilations, 0);

        // The module's own frame is then a first arrival that compiles once,
        // from this node's slice of the archive.
        let frame = IfuncMessage::bitcode(IfuncHandle(0), &library, vec![1]).frame;
        let first = arrive(&mut server, WorkerAddr(0), frame.encode_full()).unwrap();
        assert_eq!(first.kind, OutcomeKind::IfuncExecutedFirstArrival);
        let fat = FatBitcode::decode(&library.fat_bitcode_bytes).unwrap();
        let slice = fat.select(TargetTriple::THOR_XEON).unwrap();
        assert_eq!(first.jit_bitcode_bytes, Some(slice.bitcode.len()));
        assert_eq!(server.stats.jit_compilations, 1);
    }

    /// Archive width is a wire cost, not a JIT cost: intake decodes and
    /// compiles the host's slice of a five-target archive and nothing else.
    #[test]
    fn fat_bitcode_intake_takes_only_the_hosts_slice() {
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_XEON);
        let library = lib(&tsi_module());
        let fat = FatBitcode::decode(&library.fat_bitcode_bytes).unwrap();
        assert_eq!(fat.entries.len(), 5);
        let frame = IfuncMessage::bitcode(IfuncHandle(0), &library, vec![1]).frame;
        let outcome = arrive(&mut server, WorkerAddr(0), frame.encode_full()).unwrap();
        let slice = fat.select(TargetTriple::THOR_XEON).unwrap();
        assert_eq!(slice.triple, TargetTriple::THOR_XEON);
        assert_eq!(outcome.jit_bitcode_bytes, Some(slice.bitcode.len()));
        assert!(slice.bitcode.len() * 4 < library.fat_bitcode_bytes.len());
        assert_eq!(server.stats.jit_compilations, 1);
    }

    #[test]
    fn missing_target_in_archive_is_reported() {
        let toolchain = ToolchainOptions {
            targets: vec![TargetTriple::THOR_XEON],
            build_binaries: false,
        };
        let library = build_ifunc_library(&tsi_module(), &toolchain).unwrap();
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::OOKAMI_A64FX);
        let frame = IfuncMessage::bitcode(IfuncHandle(0), &library, vec![1]).frame;
        let refused = arrive(&mut server, WorkerAddr(0), frame.encode_full());
        assert!(
            matches!(&refused, Err(CoreError::Toolchain(msg)) if msg.contains("no entry for target")),
            "{refused:?}"
        );
        assert_eq!(server.stats.jit_compilations, 0);
    }

    #[test]
    fn forgetting_an_endpoint_makes_the_next_forward_ship_code_again() {
        let (a, b) = (WorkerAddr(1), WorkerAddr(2));
        let mut node = NodeRuntime::new(a, 3, TargetTriple::THOR_XEON);
        let library = lib(&forwarder_module());
        let mut payload = u64::from(b.0).to_le_bytes().to_vec();
        payload.extend_from_slice(&1u64.to_le_bytes());
        let frame = IfuncMessage::bitcode(IfuncHandle(0), &library, payload).frame;
        let forward = |node: &mut NodeRuntime, bytes: Bytes| {
            let outcome = arrive(node, WorkerAddr(0), bytes).unwrap();
            assert_eq!(outcome.actions_emitted, 1);
            posted_frames(node)
        };

        // The first forward to B ships the code, the second does not.
        assert_eq!(forward(&mut node, frame.encode_full()), [(b, false)]);
        assert_eq!(forward(&mut node, frame.encode_truncated()), [(b, true)]);

        node.sender_cache.forget_endpoint(b);
        assert_eq!(forward(&mut node, frame.encode_truncated()), [(b, false)]);
        assert_eq!(forward(&mut node, frame.encode_truncated()), [(b, true)]);

        assert_eq!(node.stats.ifunc_full_sends, 2);
        assert_eq!(node.stats.ifunc_truncated_sends, 2);
        assert_eq!(node.stats.jit_compilations, 1);
    }

    /// A received ifunc takes its sender-cache row on its first forward: one
    /// that never forwards adds no row, and a forwarder adds exactly one,
    /// which its record keeps for every later forward.
    #[test]
    fn a_received_ifunc_takes_its_sender_cache_row_on_its_first_forward() {
        // A cache's next new row is numbered by the rows it has.
        let next_row = |cache: &SenderCache| cache.clone().row_of("next");
        let rows = |n: usize| {
            let mut cache = SenderCache::new();
            (0..n).for_each(|i| _ = cache.row_of(&format!("row {i}")));
            next_row(&cache)
        };
        let (a, b) = (WorkerAddr(1), WorkerAddr(2));
        let mut node = NodeRuntime::new(a, 3, TargetTriple::THOR_XEON);

        let tsi = IfuncMessage::bitcode(IfuncHandle(0), &lib(&tsi_module()), vec![1]).frame;
        arrive(&mut node, WorkerAddr(0), tsi.encode_full()).unwrap();
        assert_eq!(node.received[0].origin.row, None);
        assert_eq!(next_row(&node.sender_cache), rows(0));

        let mut payload = u64::from(b.0).to_le_bytes().to_vec();
        payload.extend_from_slice(&1u64.to_le_bytes());
        let library = lib(&forwarder_module());
        let forwarder = IfuncMessage::bitcode(IfuncHandle(0), &library, payload).frame;
        arrive(&mut node, WorkerAddr(0), forwarder.encode_full()).unwrap();
        let row = node.received[1].origin.row;
        assert!(row.is_some());
        assert_eq!(next_row(&node.sender_cache), rows(1));
        arrive(&mut node, WorkerAddr(0), forwarder.encode_truncated()).unwrap();
        assert_eq!(node.received[1].origin.row, row);
        assert_eq!(next_row(&node.sender_cache), rows(1));
        assert_eq!(posted_frames(&mut node), [(b, false), (b, true)]);
    }

    /// A forwarded frame is byte for byte the frame the origin would have
    /// sent with the same payload: full the first time, truncated after.
    #[test]
    fn forwarded_frames_equal_the_origins_encodings() {
        let b = WorkerAddr(2);
        let mut node = NodeRuntime::new(WorkerAddr(1), 3, TargetTriple::THOR_XEON);
        let mut module = forwarder_module();
        module.deps = vec!["libc.so".into(), "libm.so".into()];
        let library = lib(&module);
        let message = |hops: u64| {
            let mut payload = u64::from(b.0).to_le_bytes().to_vec();
            payload.extend_from_slice(&hops.to_le_bytes());
            IfuncMessage::bitcode(IfuncHandle(0), &library, payload).frame
        };
        for (arriving, expected) in [
            (message(1).encode_full(), message(0).encode_full()),
            (message(1).encode_truncated(), message(0).encode_truncated()),
        ] {
            arrive(&mut node, WorkerAddr(0), arriving).unwrap();
            let sent = node.take_outgoing();
            assert_eq!(sent.len(), 1);
            let UcpOp::IfuncFrame { bytes, code } = &sent[0].op else {
                panic!("{:?}", sent[0].op);
            };
            assert_eq!([&bytes[..], &code[..]].concat(), expected);
        }
    }

    /// A full send posts the message's head and the library's tail as two
    /// views: the tail is the library's own storage, the encode pool is
    /// asked for the head alone, and `head ‖ tail` is the one-buffer frame,
    /// which the server registers and runs.
    #[test]
    fn a_full_send_posts_the_librarys_tail_and_encodes_only_the_head() {
        let mut client = NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::THOR_XEON);
        let library = lib(&tsi_module());
        let archive = library.fat_bitcode_bytes.clone();
        let handle = client.register_library(library);
        let msg = client.create_bitcode_message(handle, vec![1]).unwrap();
        let acquired = || tc_ucx::bytes::with_pool(|pool| pool.stats.bytes_acquired);
        let before = acquired();
        let sent = client.send_ifunc(&msg, WorkerAddr(1));
        assert!(acquired() - before < archive.len() as u64);
        let posted = client.take_outgoing();
        let [OutgoingMessage {
            op: UcpOp::IfuncFrame { bytes, code },
            ..
        }] = &posted[..]
        else {
            panic!("{posted:?}");
        };
        assert!(code.shares_storage(&archive));
        assert_eq!(sent, bytes.len() + code.len());
        assert_eq!([&bytes[..], &code[..]].concat(), msg.frame.encode_full());

        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_XEON);
        let first = arrive_split(&mut server, WorkerAddr(0), bytes.clone(), code.clone());
        assert_eq!(first.unwrap().kind, OutcomeKind::IfuncExecutedFirstArrival);
        assert_eq!(server.memory.read_u64(TARGET_REGION_BASE).unwrap(), 1);
    }

    /// A forward of a full frame posts the tail its origin arrived with — a
    /// view of the sender's library after a split arrival, of the arrival
    /// buffer after a one-buffer one — so recursive propagation copies no
    /// code.
    #[test]
    fn a_full_forward_shares_the_tail_its_origin_arrived_with() {
        let b = WorkerAddr(2);
        let library = lib(&forwarder_module());
        let mut payload = u64::from(b.0).to_le_bytes().to_vec();
        payload.extend_from_slice(&1u64.to_le_bytes());
        let msg = IfuncMessage::bitcode(IfuncHandle(0), &library, payload);
        let full = msg.frame.encode_full();
        let arrivals = [
            (msg.head().clone(), msg.tail().clone(), msg.tail().clone()),
            (full.clone(), Bytes::new(), full),
        ];
        for (head, tail, origin) in arrivals {
            let mut node = NodeRuntime::new(WorkerAddr(1), 3, TargetTriple::THOR_XEON);
            arrive_split(&mut node, WorkerAddr(0), head, tail).unwrap();
            let sent = node.take_outgoing();
            let [OutgoingMessage {
                dst,
                op: UcpOp::IfuncFrame { code, .. },
                ..
            }] = &sent[..]
            else {
                panic!("{sent:?}");
            };
            assert_eq!(*dst, b);
            assert!(code.shares_storage(&origin), "{sent:?}");
        }
    }

    #[test]
    fn am_dispatch_is_by_id_and_redeploying_replaces_the_handler() {
        let mut node = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_XEON);
        let returns = |cycles: u64| -> NativeAmHandler { Arc::new(move |_, _| cycles) };
        let first = node.deploy_am_handler("first", returns(1));
        let second = node.deploy_am_handler("second", returns(2));
        assert_eq!((first, second), (AmHandlerId(0), AmHandlerId(1)));
        assert_eq!(node.deploy_am_handler("first", returns(10)), first);

        let mut run = |handler: AmHandlerId| {
            node.deliver(OutgoingMessage {
                src: WorkerAddr(0),
                dst: WorkerAddr(1),
                request: RequestId(0),
                op: UcpOp::ActiveMessage {
                    handler,
                    payload: Bytes::new(),
                },
            });
            node.poll(usize::MAX).remove(0)
        };
        assert_eq!(run(first).unwrap().exec_cycles, 10);
        assert_eq!(run(second).unwrap().exec_cycles, 2);
        assert!(matches!(
            run(AmHandlerId(7)),
            Err(CoreError::UnknownAmHandler { name }) if name == "#7"
        ));
    }

    #[test]
    fn cached_frame_sizes_match_paper_scale() {
        let mut client = NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::THOR_XEON);
        let handle = client.register_library(lib(&tsi_module()));
        let msg = client.create_bitcode_message(handle, vec![1]).unwrap();
        let full = client.send_ifunc(&msg, WorkerAddr(1));
        let truncated = client.send_ifunc(&msg, WorkerAddr(1));
        // Paper: 26 B cached vs 5185 B uncached.  Our encodings differ in
        // absolute size (five targets in the archive) but the ratio and the
        // "tens of bytes vs kilobytes" split must hold.
        assert!(truncated < 64, "truncated {truncated}");
        assert!(full > 2_000, "full {full}");
    }

    /// Two runtimes and nothing else: every message the pair posts is taken
    /// from one outbox and delivered to the other inbox by `route`, with no
    /// transport, codec or clock between them.
    #[test]
    fn loopback_network_integration() {
        let mut client = NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::THOR_XEON);
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_BF2);
        let addr = crate::layout::DATA_REGION_BASE;

        let put = client.post_put_confirmed(WorkerAddr(1), addr, vec![7u8; 24]);
        let get = client.post_get(WorkerAddr(1), addr + 8, 8);
        let kinds: Vec<OutcomeKind> = route(&mut client, &mut server)
            .into_iter()
            .map(|o| o.unwrap().kind)
            .collect();
        // The server handles both in posting order, then the client its two
        // replies in the order the server posted them.
        assert_eq!(
            kinds,
            [
                OutcomeKind::PutConfirmed,
                OutcomeKind::GetServed,
                OutcomeKind::PutAckReceived,
                OutcomeKind::GetCompleted,
            ]
        );
        assert_eq!(
            client.take_completions(),
            [
                Completion::Put { request: put },
                Completion::Get {
                    request: get,
                    data: vec![7u8; 8].into()
                },
            ]
        );
        assert_eq!(server.stats.puts_applied, 1);
        assert_eq!(server.stats.gets_served, 1);
        assert!(client.take_outgoing().is_empty() && server.take_outgoing().is_empty());
    }

    /// `poll(n)` handles at most `n` delivered messages and leaves the rest
    /// queued, in order, for the next poll.
    #[test]
    fn poll_respects_max_events() {
        let mut node = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_XEON);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let handler = node.deploy_am_handler(
            "record",
            Arc::new(move |_, payload| {
                log.lock().unwrap().push(payload[0]);
                1
            }),
        );
        for i in 0..10u8 {
            node.deliver(OutgoingMessage {
                src: WorkerAddr(0),
                dst: WorkerAddr(1),
                request: RequestId(u64::from(i)),
                op: UcpOp::ActiveMessage {
                    handler,
                    payload: vec![i].into(),
                },
            });
        }
        assert!(node.poll(0).is_empty());
        assert_eq!(node.poll(3).len(), 3);
        assert_eq!(*seen.lock().unwrap(), [0, 1, 2]);
        assert_eq!(node.stats.ams_executed, 3);
        assert_eq!(node.poll(usize::MAX).len(), 7);
        assert_eq!(*seen.lock().unwrap(), (0..10).collect::<Vec<u8>>());
        assert!(node.poll(usize::MAX).is_empty());
    }

    /// A forward to the executing node itself is that node's next arrival,
    /// handled by the same poll loop: a million of them run in constant
    /// stack, each one event, counted as an execution and nothing else.
    #[test]
    fn a_million_self_forwards_run_one_poll_event_each() {
        const HOPS: u64 = 1_000_000;
        let me = WorkerAddr(1);
        let mut node = NodeRuntime::new(me, 2, TargetTriple::THOR_XEON);
        let library = lib(&forwarder_module());
        let mut payload = u64::from(me.0).to_le_bytes().to_vec();
        payload.extend_from_slice(&HOPS.to_le_bytes());
        let frame = IfuncMessage::bitcode(IfuncHandle(0), &library, payload).frame;
        node.deliver(OutgoingMessage {
            src: WorkerAddr(0),
            dst: me,
            request: RequestId(0),
            op: UcpOp::IfuncFrame {
                bytes: frame.encode_full(),
                code: Bytes::new(),
            },
        });
        let (mut events, mut failed) = (0, 0);
        // Bounded polls: each handles at most its share and leaves the rest.
        loop {
            let handled = node.poll_each(4096, |o| failed += u64::from(o.is_err()));
            events += handled as u64;
            if handled == 0 {
                break;
            }
        }
        assert_eq!((events, failed), (HOPS + 1, 0));
        let stats = node.stats;
        assert_eq!(stats.ifuncs_executed, HOPS + 1);
        assert_eq!(stats.full_frames_received, 1);
        assert_eq!(stats.truncated_frames_received, 0);
        assert_eq!(
            (stats.ifunc_full_sends, stats.ifunc_truncated_sends),
            (0, 0)
        );
        assert_eq!((stats.bytes_sent, stats.jit_compilations), (0, 1));
        assert!(node.take_outgoing().is_empty());
    }

    /// An ifunc whose entry makes one framework call, `symbol`, with the
    /// staged payload's address at `payload_at` among constant arguments.
    fn one_call_module(name: &str, symbol: &str, mut args: Vec<u64>, payload_at: usize) -> Module {
        let mut mb = ModuleBuilder::new(name);
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let mut regs: Vec<_> = args.drain(..).map(|a| f.const_u64(a)).collect();
            regs.insert(payload_at, payload);
            f.call_ext(symbol, regs, true);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        mb.build()
    }

    /// Executing code posts each operation when it asks for it, as a
    /// one-sided post on a real fabric leaves when it is made: a trap later
    /// in the same execution fails the message but withdraws nothing.  An
    /// ifunc that returns a result, forwards itself and then traps leaves
    /// both operations posted, its forward counted and its code marked as
    /// sent; an AM handler's request that names no handler fails the message
    /// and the requests around it still go out.
    #[test]
    fn what_executing_code_posted_stays_posted_when_it_fails_later() {
        let mut mb = ModuleBuilder::new("trapper");
        {
            let mut f = mb.entry_function();
            let (payload, len) = (f.param(0), f.param(1));
            let regs = [0, 3, 42].map(|v| f.const_u64(v));
            f.call_ext("tc_return_result", regs.to_vec(), true);
            let two = f.const_u64(2);
            f.call_ext("tc_forward_self", vec![two, payload, len], true);
            f.trap(7);
            f.finish();
        }
        let frame = IfuncMessage::bitcode(IfuncHandle(0), &lib(&mb.build()), vec![1]).frame;
        let mut node = NodeRuntime::new(WorkerAddr(1), 3, TargetTriple::THOR_XEON);
        assert!(arrive(&mut node, WorkerAddr(0), frame.encode_full()).is_err());
        let sent: Vec<_> = node
            .take_outgoing()
            .into_iter()
            .map(|m| (m.dst, m.op))
            .collect();
        assert!(
            matches!(
                &sent[..],
                [
                    (WorkerAddr(0), UcpOp::Put { .. }),
                    (WorkerAddr(2), UcpOp::IfuncFrame { .. }),
                ]
            ),
            "{sent:?}"
        );
        let stats = node.stats;
        assert_eq!((stats.ifunc_full_sends, stats.ifuncs_executed), (1, 0));
        let row = node.received[0].origin.row.unwrap();
        assert!(node.sender_cache.has(row, WorkerAddr(2)));

        let handler: NativeAmHandler = Arc::new(|ctx, _| {
            ctx.return_result(WorkerAddr(0), 1, 5);
            ctx.send_am("missing", WorkerAddr(2), vec![1]);
            ctx.send_am("relay", WorkerAddr(2), vec![2]);
            10
        });
        let mut node = NodeRuntime::new(WorkerAddr(1), 3, TargetTriple::THOR_XEON);
        let id = node.deploy_am_handler("relay", handler);
        node.deliver(OutgoingMessage {
            src: WorkerAddr(0),
            dst: WorkerAddr(1),
            request: RequestId(0),
            op: UcpOp::ActiveMessage {
                handler: id,
                payload: Bytes::from(vec![0]),
            },
        });
        let outcome = node.poll(usize::MAX).remove(0);
        let missing = CoreError::UnknownAmHandler {
            name: "missing".into(),
        };
        assert_eq!(outcome, Err(missing));
        let sent: Vec<_> = node
            .take_outgoing()
            .into_iter()
            .map(|m| (m.dst, m.op))
            .collect();
        assert!(
            matches!(
                &sent[..],
                [
                    (WorkerAddr(0), UcpOp::Put { .. }),
                    (WorkerAddr(2), UcpOp::ActiveMessage { .. }),
                ]
            ),
            "{sent:?}"
        );
        assert_eq!(node.stats.ams_executed, 1);
    }

    /// A length an ifunc hands `tc_put` or `tc_forward_self` is bounded
    /// before anything is read, allocated or encoded for it: 2^40 bytes is
    /// a typed error, and nothing is posted.
    #[test]
    fn a_put_or_forward_longer_than_its_message_can_carry_is_refused() {
        let huge = 1u64 << 40;
        for (symbol, args, at, max) in [
            (
                "tc_put",
                vec![2, DATA_REGION_BASE, huge],
                2,
                tc_net::MAX_FRAME_BYTES as u64,
            ),
            ("tc_forward_self", vec![2, huge], 1, u64::from(u32::MAX)),
        ] {
            let mut node = NodeRuntime::new(WorkerAddr(1), 3, TargetTriple::THOR_XEON);
            let module = one_call_module("greedy", symbol, args, at);
            let frame = IfuncMessage::bitcode(IfuncHandle(0), &lib(&module), vec![1]).frame;
            let refused = arrive(&mut node, WorkerAddr(0), frame.encode_full());
            assert!(
                matches!(&refused, Err(CoreError::TooLarge { what, len, max: m })
                    if what == symbol && *len == huge && *m == max),
                "{symbol}: {refused:?}"
            );
            assert!(node.take_outgoing().is_empty(), "{symbol} posted nothing");
            assert_eq!(node.stats.bytes_sent, 0);
        }
    }

    /// Every framework call answers by the id it was resolved to what it
    /// answers by name — the same value, the same cycles, the same
    /// operations posted and completions raised — and a name the framework
    /// does not export is refused alike, with the same typed error.
    #[test]
    fn framework_calls_answer_the_same_by_id_as_by_name() {
        let calls: [(&str, Vec<u64>); 12] = [
            ("tc_node_id", vec![]),
            ("tc_num_nodes", vec![]),
            ("tc_self_name_len", vec![]),
            (
                "tc_put",
                vec![2, DATA_REGION_BASE, PAYLOAD_STAGING_BASE, 16],
            ),
            (
                "tc_put",
                vec![1, DATA_REGION_BASE, PAYLOAD_STAGING_BASE, 16],
            ),
            ("tc_forward_self", vec![2, PAYLOAD_STAGING_BASE, 16]),
            ("tc_forward_self", vec![1, PAYLOAD_STAGING_BASE, 16]),
            ("tc_return_result", vec![0, 3, 42]),
            ("tc_return_result", vec![1, 3, 42]),
            ("tc_node_id", vec![1]),
            ("tc_no_such_call", vec![]),
            ("memcpy", vec![0, 0, 0]),
        ];
        for (symbol, args) in &calls {
            let run = |by_id: bool| {
                let mut cache = SenderCache::new();
                let mut origin = Origin {
                    name: Arc::from("caller"),
                    repr: CodeRepr::Bitcode,
                    tail: crate::frame::encode_tail(vec![9u8; 32], &["libm.so".into()]),
                    code_len: 32,
                    deps: 1,
                    row: None,
                };
                let (mut worker, mut stats) = (Worker::new(WorkerAddr(1)), RuntimeStats::default());
                let (mut local, mut completions) = (VecDeque::new(), Vec::new());
                let mut mem = SparseMemory::new();
                mem.write(PAYLOAD_STAGING_BASE, &[7u8; 16]).unwrap();
                let mut host = FrameworkHost {
                    num_nodes: 3,
                    ifunc: &mut origin,
                    cache: &mut cache,
                    local: &mut local,
                    out: Outbox {
                        node_id: WorkerAddr(1),
                        worker: &mut worker,
                        stats: &mut stats,
                        completions: &mut completions,
                        emitted: 0,
                    },
                };
                let answer = match by_id {
                    true => host.call_host(HostCall::of(symbol), symbol, args, &mut mem),
                    false => {
                        let cycles = host.external_cost(symbol);
                        host.call_external(symbol, args, &mut mem)
                            .map(|v| (v, cycles))
                    }
                };
                let emitted = host.out.emitted;
                let mut page = [0u8; 16];
                mem.read(DATA_REGION_BASE, &mut page).unwrap();
                let sent = worker.take_outgoing();
                (answer, emitted, sent, stats, local, completions, page)
            };
            let (by_id, by_name) = (run(true), run(false));
            assert_eq!(by_id, by_name, "{symbol}{args:?}");
            if let "tc_no_such_call" | "memcpy" = *symbol {
                let symbol = symbol.to_string();
                assert_eq!(by_id.0, Err(JitError::UnresolvedSymbol { symbol }));
            }
        }
    }

    /// A call to a name neither the framework nor a loaded library exports
    /// links (the `tc_` prefix is the framework's) and is refused when it is
    /// made, with the error it always had.
    #[test]
    fn an_unresolvable_call_is_refused_when_it_is_made() {
        let mut node = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_XEON);
        let module = one_call_module("dangling", "tc_no_such_call", vec![], 0);
        let frame = IfuncMessage::bitcode(IfuncHandle(0), &lib(&module), vec![1]).frame;
        let refused = arrive(&mut node, WorkerAddr(0), frame.encode_full());
        let expected: CoreError = JitError::UnresolvedSymbol {
            symbol: "tc_no_such_call".into(),
        }
        .into();
        assert_eq!(refused, Err(expected));
        assert_eq!(node.stats.jit_compilations, 1);
    }
}
