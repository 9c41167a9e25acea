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
//!   and the target pointer, and carry out any follow-on actions the running
//!   ifunc requested (recursive forwards, PUTs, result returns) — the X-RDMA
//!   behaviour.
//!
//! Framework services are exposed to running ifuncs as external symbols
//! (`tc_node_id`, `tc_put`, `tc_forward_self`, `tc_return_result`, …)
//! resolved through the execution engine's host interface, mirroring how the
//! real system lets injected code call back into UCX.

use crate::cache::{SendDecision, SenderCache};
use crate::error::{CoreError, Result};
use crate::frame::{encode_truncated_parts, CodeRepr, FrameView, MessageFrame};
use crate::ifunc::{IfuncHandle, IfuncLibrary, IfuncMessage, IfuncRegistry};
use crate::layout::{
    decode_result_record, encode_result_record, is_result_mailbox_addr, result_slot_addr,
    result_slot_of_addr, PAYLOAD_STAGING_BASE, RESULT_MAILBOX_SLOTS, TARGET_REGION_BASE,
};
use crate::metrics::{OutcomeKind, ProcessOutcome, RuntimeStats};
use std::collections::HashMap;
use std::sync::Arc;
use tc_bitir::{decode_module, FatBitcode, TargetTriple};
use tc_jit::{
    Engine, ExternalHost, JitError, LoadedLibs, MaterializedModule, Memory, OrcJit, SparseMemory,
};
use tc_ucx::{AmHandlerId, BufPool, Bytes, OutgoingMessage, RequestId, UcpOp, Worker, WorkerAddr};

/// Follow-on work requested by executing code (ifunc externals or native AM
/// handlers); the runtime converts these into posted fabric operations after
/// the execution completes.
#[derive(Debug, Clone, PartialEq)]
pub enum HostAction {
    /// One-sided PUT of `data` into `remote_addr` on node `dst`.
    Put {
        /// Destination node.
        dst: WorkerAddr,
        /// Destination address in the remote node's memory.
        remote_addr: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Re-send the currently executing ifunc (same code) to `dst` with a new
    /// payload — the recursive-propagation primitive behind X-RDMA.
    ForwardSelf {
        /// Destination node.
        dst: WorkerAddr,
        /// New payload bytes.
        payload: Vec<u8>,
    },
    /// Send a (different) registered ifunc by name.
    SendIfunc {
        /// Registered ifunc name.
        name: String,
        /// Destination node.
        dst: WorkerAddr,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// Send an Active Message to a predeployed handler.
    SendAm {
        /// Handler name (must be predeployed on the destination).
        handler: String,
        /// Destination node.
        dst: WorkerAddr,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// X-RDMA ReturnResult: deliver `value` into result-mailbox `slot` on
    /// node `dst`.
    ReturnResult {
        /// Destination (requesting) node.
        dst: WorkerAddr,
        /// Mailbox slot index.
        slot: u64,
        /// Result value.
        value: u64,
    },
}

/// Execution context handed to native Active-Message handlers.
pub struct AmContext<'a> {
    /// This node's rank.
    pub node_id: u32,
    /// Number of nodes in the job.
    pub num_nodes: u32,
    /// The node's memory.
    pub memory: &'a mut SparseMemory,
    /// Follow-on actions the handler wants performed.
    pub actions: &'a mut Vec<HostAction>,
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
    /// The registration key, shared with the table that holds this record.
    name: Arc<str>,
    /// The linked module — compiled from bitcode or loaded from a binary
    /// object once, when the ifunc was registered; the registration table
    /// is the only thing that keeps it.
    module: MaterializedModule,
    /// The representation it arrived in, and is forwarded in.
    repr: CodeRepr,
    /// Index of the entry function in the loaded module.
    entry: u32,
    /// The code section as originally received — a shared view of the
    /// arrival buffer, kept so this node can itself forward the ifunc to
    /// peers that have not seen it (recursive propagation) without copying.
    code: Bytes,
    deps: Vec<String>,
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
    /// Probed once per arrival, by the name borrowed from the arrival
    /// buffer; the record is shared out so it can be used while the rest of
    /// the runtime is borrowed mutably.
    received: HashMap<Arc<str>, Arc<ReceivedIfunc>>,
    /// Predeployed AM handlers, indexed by [`AmHandlerId`].
    am_handlers: Vec<NativeAmHandler>,
    am_ids: HashMap<String, AmHandlerId>,
    completions: Vec<Completion>,
    /// The action list of the execution before, emptied: executing code
    /// requests its follow-on actions into it, so a handled message grows no
    /// list of its own.
    spare_actions: Vec<HostAction>,
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
            .field("received", &self.received.keys().collect::<Vec<_>>())
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
            received: HashMap::new(),
            am_handlers: Vec::new(),
            am_ids: HashMap::new(),
            completions: Vec::new(),
            spare_actions: Vec::new(),
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
        // Both encodings are cached on the message: repeat sends (to any
        // destination) clone a shared buffer instead of re-encoding.
        let bytes = match self.sender_cache.on_send(&message.frame.ifunc_name, dst) {
            SendDecision::SendFull => {
                self.stats.ifunc_full_sends += 1;
                message.wire_full()
            }
            SendDecision::SendTruncated => {
                self.stats.ifunc_truncated_sends += 1;
                message.wire_truncated()
            }
        };
        let len = bytes.len();
        self.stats.bytes_sent += len as u64;
        self.worker.post(dst, UcpOp::IfuncFrame { bytes });
        len
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
        let id = self
            .am_ids
            .get(handler)
            .copied()
            .ok_or_else(|| CoreError::UnknownAmHandler {
                name: handler.to_string(),
            })?;
        let op = UcpOp::ActiveMessage {
            handler: id,
            payload: payload.into(),
        };
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
        while outcomes.len() < max_events {
            let Some(msg) = self.worker.next_delivered() else {
                break;
            };
            outcomes.push(self.handle_message(msg));
        }
        outcomes
    }

    /// Take accumulated client-side completions (GET results, X-RDMA results).
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Number of completions waiting to be taken.
    pub fn completions_pending(&self) -> usize {
        self.completions.len()
    }

    /// Read the result-mailbox slot `slot`, returning the value if a result
    /// has arrived (one-sided completion check).
    pub fn poll_result_slot(&self, slot: u64) -> Option<u64> {
        let mut buf = [0u8; 16];
        self.memory.read(result_slot_addr(slot), &mut buf).ok()?;
        decode_result_record(&buf)
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
                // Read straight into a recycled pool buffer: serving a GET
                // allocates nothing in steady state.
                let mut writer = self.reply_pool.acquire(len as usize);
                self.memory
                    .read(remote_addr, writer.reserve(len as usize))
                    .map_err(|e| CoreError::Sim(e.to_string()))?;
                let data = writer.freeze(&mut self.reply_pool);
                self.worker.post(src, UcpOp::GetReply { request, data });
                self.stats.gets_served += 1;
                Ok(ProcessOutcome::passive(OutcomeKind::GetServed))
            }
            UcpOp::GetReply { request, data } => {
                self.completions.push(Completion::Get { request, data });
                Ok(ProcessOutcome::passive(OutcomeKind::GetCompleted))
            }
            UcpOp::ActiveMessage { handler, payload } => self.handle_am(handler, &payload),
            UcpOp::IfuncFrame { bytes } => self.handle_ifunc_frame(&bytes),
        }
    }

    fn handle_am(&mut self, handler: AmHandlerId, payload: &[u8]) -> Result<ProcessOutcome> {
        let func = self
            .am_handlers
            .get(usize::from(handler.0))
            .ok_or_else(|| CoreError::UnknownAmHandler {
                name: format!("#{}", handler.0),
            })?;
        let mut actions = std::mem::take(&mut self.spare_actions);
        let cycles = {
            let mut ctx = AmContext {
                node_id: self.node_id.0,
                num_nodes: self.num_nodes,
                memory: &mut self.memory,
                actions: &mut actions,
            };
            func(&mut ctx, payload)
        };
        self.stats.ams_executed += 1;
        let actions_emitted = actions.len();
        self.perform_actions(actions, None)?;
        Ok(ProcessOutcome {
            kind: OutcomeKind::AmExecuted,
            exec_cycles: cycles,
            jit_bitcode_bytes: None,
            binary_loaded: false,
            actions_emitted,
            payload_bytes: payload.len(),
        })
    }

    fn handle_ifunc_frame(&mut self, bytes: &Bytes) -> Result<ProcessOutcome> {
        // Parsed in place: the name is borrowed from the received buffer and
        // the payload is a sub-slice of it.
        let frame = FrameView::parse(bytes)?;
        // The receiver decides by its own registration table, not by
        // trusting the sender.
        let known = self.received.get(frame.ifunc_name).cloned();
        let first_arrival = known.is_none();
        let mut jit_bitcode_bytes = None;

        let rec = match &frame.code {
            None => {
                self.stats.truncated_frames_received += 1;
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
                    Some(rec) => rec,
                    None => {
                        let (rec, jitted) =
                            self.register_received(&frame, bytes.slice(code.clone()))?;
                        jit_bitcode_bytes = jitted;
                        rec
                    }
                }
            }
        };

        let payload = &bytes[frame.payload.clone()];
        let (exec_cycles, actions_emitted) = self.execute_ifunc(&rec, payload)?;
        self.stats.ifuncs_executed += 1;
        Ok(ProcessOutcome {
            kind: if first_arrival {
                OutcomeKind::IfuncExecutedFirstArrival
            } else {
                OutcomeKind::IfuncExecutedCached
            },
            exec_cycles,
            jit_bitcode_bytes,
            binary_loaded: first_arrival && rec.repr == CodeRepr::Binary,
            actions_emitted,
            payload_bytes: payload.len(),
        })
    }

    /// Register a newly arrived full frame whose code section is `code`,
    /// linked by the JIT session's one link step whatever its representation.
    /// Returns the record and, for a bitcode frame, the size of the bitcode
    /// that was compiled.
    fn register_received(
        &mut self,
        frame: &FrameView<'_>,
        code: Bytes,
    ) -> Result<(Arc<ReceivedIfunc>, Option<usize>)> {
        let (module, jit_bitcode_bytes) = match frame.repr {
            CodeRepr::Bitcode => {
                let fat = FatBitcode::decode(&code)?;
                let slice = &fat.select(self.triple)?.bitcode;
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
                let deps = fat.deps.iter().map(String::as_str);
                merge_deps(&mut module.deps, deps.chain(frame.deps.iter().copied()));
                let module = self.jit.materialize(module, &mut self.memory)?;
                self.stats.jit_compilations += 1;
                (module, Some(slice.len()))
            }
            CodeRepr::Binary => {
                let mut obj = tc_binfmt::ObjectFile::decode(&code)?;
                merge_deps(&mut obj.deps, frame.deps.iter().copied());
                // A missing library is refused first, as bitcode's is.
                let libs = LoadedLibs::load(&obj.deps)?;
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
        let rec = Arc::new(ReceivedIfunc {
            name: Arc::clone(&name),
            module,
            repr: frame.repr,
            entry,
            code,
            deps: frame.deps.iter().map(|d| d.to_string()).collect(),
        });
        self.received.insert(name, Arc::clone(&rec));
        Ok((rec, jit_bitcode_bytes))
    }

    /// Execute a registered ifunc with the given payload.  Returns
    /// (exec_cycles, actions_emitted).
    fn execute_ifunc(&mut self, rec: &ReceivedIfunc, payload: &[u8]) -> Result<(u64, usize)> {
        // Stage the payload.
        self.memory
            .write(PAYLOAD_STAGING_BASE, payload)
            .map_err(|e| CoreError::Sim(e.to_string()))?;

        let mut host = FrameworkHost {
            node_id: self.node_id.0,
            num_nodes: self.num_nodes,
            current_ifunc: &rec.name,
            actions: std::mem::take(&mut self.spare_actions),
        };
        let args = [
            PAYLOAD_STAGING_BASE,
            payload.len() as u64,
            TARGET_REGION_BASE,
        ];
        let out =
            rec.module
                .execute(&self.engine, rec.entry, &args, &mut self.memory, &mut host)?;

        let actions = host.actions;
        let emitted = actions.len();
        self.perform_actions(actions, Some(rec))?;
        Ok((out.cycles, emitted))
    }

    /// Convert follow-on actions into posted fabric operations.  The emptied
    /// list is kept for the next execution (an error drops it).
    fn perform_actions(
        &mut self,
        mut actions: Vec<HostAction>,
        current_ifunc: Option<&ReceivedIfunc>,
    ) -> Result<()> {
        for action in actions.drain(..) {
            match action {
                HostAction::Put {
                    dst,
                    remote_addr,
                    data,
                } => {
                    if dst == self.node_id {
                        self.memory
                            .write(remote_addr, &data)
                            .map_err(|e| CoreError::Sim(e.to_string()))?;
                    } else {
                        self.post_put(dst, remote_addr, data);
                    }
                }
                HostAction::ForwardSelf { dst, payload } => {
                    let rec = current_ifunc.ok_or_else(|| {
                        CoreError::Sim("tc_forward_self called outside an ifunc".into())
                    })?;
                    self.forward_received(rec, dst, payload)?;
                }
                HostAction::SendIfunc { name, dst, payload } => {
                    if let Some(handle) = self.registry.handle(&name) {
                        let msg = self.create_bitcode_message(handle, payload)?;
                        self.send_ifunc(&msg, dst);
                    } else if let Some(rec) = self.received.get(name.as_str()).cloned() {
                        self.forward_received(&rec, dst, payload)?;
                    } else {
                        return Err(CoreError::UnknownIfunc { name });
                    }
                }
                HostAction::SendAm {
                    handler,
                    dst,
                    payload,
                } => {
                    self.send_am(&handler, dst, payload)?;
                }
                HostAction::ReturnResult { dst, slot, value } => {
                    let record = encode_result_record(value);
                    if dst == self.node_id {
                        self.memory
                            .write(result_slot_addr(slot), &record)
                            .map_err(|e| CoreError::Sim(e.to_string()))?;
                        // The slot its address names, as on the remote path.
                        let slot = slot % RESULT_MAILBOX_SLOTS;
                        self.completions.push(Completion::Result { slot, value });
                    } else {
                        self.post_put(dst, result_slot_addr(slot), record);
                    }
                }
            }
        }
        self.spare_actions = actions;
        Ok(())
    }

    /// Forward a *received* ifunc onward to another node, re-using its code
    /// section and applying this node's own sender cache — recursive
    /// propagation of injected code.
    fn forward_received(
        &mut self,
        rec: &ReceivedIfunc,
        dst: WorkerAddr,
        payload: Vec<u8>,
    ) -> Result<()> {
        // Local delivery: execute directly without touching the fabric.
        if dst == self.node_id {
            let (_cycles, _emitted) = self.execute_ifunc(rec, &payload)?;
            self.stats.ifuncs_executed += 1;
            return Ok(());
        }
        let bytes = match self.sender_cache.on_send(&rec.name, dst) {
            SendDecision::SendFull => {
                self.stats.ifunc_full_sends += 1;
                MessageFrame::new(
                    &*rec.name,
                    rec.repr,
                    payload,
                    rec.code.clone(),
                    rec.deps.clone(),
                )
                .encode_full()
            }
            SendDecision::SendTruncated => {
                self.stats.ifunc_truncated_sends += 1;
                // The lengths below were read from u32 / u16 fields of the
                // full frame this record was registered from.
                encode_truncated_parts(
                    &rec.name,
                    rec.repr,
                    &payload,
                    rec.code.len() as u32,
                    rec.deps.len() as u16,
                )
            }
        };
        self.stats.bytes_sent += bytes.len() as u64;
        self.worker.post(dst, UcpOp::IfuncFrame { bytes });
        Ok(())
    }
}

/// Append each of `extra` not yet in `deps`: a module links against its own
/// dependencies and the frame's DEPS field (normally the same).
fn merge_deps<'a>(deps: &mut Vec<String>, extra: impl Iterator<Item = &'a str>) {
    for d in extra {
        if !deps.iter().any(|have| have == d) {
            deps.push(d.to_string());
        }
    }
}

/// The [`ExternalHost`] exposed to executing ifuncs: framework services
/// reachable as external symbols.
struct FrameworkHost<'a> {
    node_id: u32,
    num_nodes: u32,
    current_ifunc: &'a str,
    actions: Vec<HostAction>,
}

impl FrameworkHost<'_> {
    fn read_bytes(mem: &mut dyn Memory, addr: u64, len: u64) -> tc_jit::Result<Vec<u8>> {
        let mut buf = vec![0u8; len as usize];
        mem.read(addr, &mut buf)?;
        Ok(buf)
    }
}

impl ExternalHost for FrameworkHost<'_> {
    fn call_external(
        &mut self,
        symbol: &str,
        args: &[u64],
        mem: &mut dyn Memory,
    ) -> tc_jit::Result<u64> {
        let need = |n: usize| -> tc_jit::Result<()> {
            if args.len() != n {
                Err(JitError::Host(format!(
                    "{symbol} expects {n} arguments, got {}",
                    args.len()
                )))
            } else {
                Ok(())
            }
        };
        match symbol {
            "tc_node_id" => {
                need(0)?;
                Ok(u64::from(self.node_id))
            }
            "tc_num_nodes" => {
                need(0)?;
                Ok(u64::from(self.num_nodes))
            }
            "tc_put" => {
                // tc_put(dst_node, remote_addr, local_addr, len)
                need(4)?;
                let data = Self::read_bytes(mem, args[2], args[3])?;
                self.actions.push(HostAction::Put {
                    dst: WorkerAddr(args[0] as u32),
                    remote_addr: args[1],
                    data,
                });
                Ok(0)
            }
            "tc_forward_self" => {
                // tc_forward_self(dst_node, payload_addr, payload_len)
                need(3)?;
                let payload = Self::read_bytes(mem, args[1], args[2])?;
                self.actions.push(HostAction::ForwardSelf {
                    dst: WorkerAddr(args[0] as u32),
                    payload,
                });
                Ok(0)
            }
            "tc_return_result" => {
                // tc_return_result(dst_node, slot, value)
                need(3)?;
                self.actions.push(HostAction::ReturnResult {
                    dst: WorkerAddr(args[0] as u32),
                    slot: args[1],
                    value: args[2],
                });
                Ok(0)
            }
            "tc_self_name_len" => {
                need(0)?;
                Ok(self.current_ifunc.len() as u64)
            }
            other => Err(JitError::UnresolvedSymbol {
                symbol: other.to_string(),
            }),
        }
    }

    fn external_cost(&self, symbol: &str) -> u64 {
        match symbol {
            "tc_node_id" | "tc_num_nodes" | "tc_self_name_len" => 5,
            // Posting a network operation costs some local work; the fabric
            // latency itself is charged by the simulator.
            _ => 150,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifunc::{build_ifunc_library, ToolchainOptions};
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
        client
            .worker
            .post(WorkerAddr(2), UcpOp::IfuncFrame { bytes });
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
        node.deliver(OutgoingMessage {
            src: from,
            dst: node.node_id(),
            request: RequestId(0),
            op: UcpOp::IfuncFrame { bytes },
        });
        node.poll(usize::MAX).remove(0)
    }

    /// The frames `node` has posted, as `(destination, truncated?)`.
    fn posted_frames(node: &mut NodeRuntime) -> Vec<(WorkerAddr, bool)> {
        node.take_outgoing()
            .into_iter()
            .map(|m| match m.op {
                UcpOp::IfuncFrame { bytes } => (
                    m.dst,
                    MessageFrame::decode_view(&bytes).unwrap().is_truncated(),
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
        let slice = library.fat_bitcode.select(TargetTriple::THOR_XEON).unwrap();
        assert_eq!(first.jit_bitcode_bytes, Some(slice.bitcode.len()));
        assert_eq!(server.stats.jit_compilations, 1);
    }

    /// Archive width is a wire cost, not a JIT cost: intake decodes and
    /// compiles the host's slice of a five-target archive and nothing else.
    #[test]
    fn fat_bitcode_intake_takes_only_the_hosts_slice() {
        let mut server = NodeRuntime::new(WorkerAddr(1), 2, TargetTriple::THOR_XEON);
        let library = lib(&tsi_module());
        assert_eq!(library.fat_bitcode.entries.len(), 5);
        let frame = IfuncMessage::bitcode(IfuncHandle(0), &library, vec![1]).frame;
        let outcome = arrive(&mut server, WorkerAddr(0), frame.encode_full()).unwrap();
        let slice = library.fat_bitcode.select(TargetTriple::THOR_XEON).unwrap();
        assert_eq!(slice.triple, TargetTriple::THOR_XEON);
        assert_eq!(outcome.jit_bitcode_bytes, Some(slice.bitcode.len()));
        assert!(slice.bitcode.len() * 4 < library.bitcode_size());
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
    fn forgetting_an_endpoint_or_an_ifunc_makes_the_next_forward_ship_code_again() {
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

        node.sender_cache.forget_ifunc("forwarder");
        assert_eq!(forward(&mut node, frame.encode_truncated()), [(b, false)]);
        assert_eq!(forward(&mut node, frame.encode_truncated()), [(b, true)]);

        assert_eq!(node.stats.ifunc_full_sends, 3);
        assert_eq!(node.stats.ifunc_truncated_sends, 3);
        assert_eq!(node.sender_cache.full_sends, 3);
        assert_eq!(node.sender_cache.truncated_sends, 3);
        assert_eq!(node.stats.jit_compilations, 1);
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
            assert_eq!(sent[0].op, UcpOp::IfuncFrame { bytes: expected });
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
}
