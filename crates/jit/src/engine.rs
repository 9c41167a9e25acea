//! The execution engine: an interpreter for compiled machine modules.
//!
//! This is where injected code actually *runs*.  The engine executes
//! [`MachModule`]s against a [`Memory`] (the target node's address space) and
//! an [`ExternalHost`] (the hook through which ifuncs reach framework
//! services such as `tc_send_ifunc`, `tc_put` and `tc_return_result`, plus
//! simulated shared-library functions).  Execution is fully functional —
//! pointer tables are really chased, counters really incremented — while the
//! engine also accounts a deterministic cycle count used by the
//! discrete-event simulator to charge virtual execution time.  It runs the
//! pre-decoded ops a module carries from when it was made (the crate's
//! `emit` module), not its [`crate::machine::MachInst`]s.

use crate::emit::{atomic, nonzero, vec_loop, Op, Program};
use crate::error::{JitError, Result};
use crate::machine::{MReg, MachFunction, MachModule};
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::{Index, IndexMut};
use tc_bitir::ScalarType;

/// Byte-addressable memory the engine loads from and stores to.
pub trait Memory {
    /// Read `buf.len()` bytes starting at `addr`.
    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<()>;
    /// Write `data` starting at `addr`.
    fn write(&mut self, addr: u64, data: &[u8]) -> Result<()>;
    /// Total bytes this memory can address (for diagnostics only).
    fn size_hint(&self) -> Option<u64> {
        None
    }
}

/// A flat, vector-backed memory with a configurable base address.
#[derive(Debug, Clone)]
pub struct VecMemory {
    base: u64,
    bytes: Vec<u8>,
}

impl VecMemory {
    /// Create a memory of `size` bytes starting at address `base`.
    pub fn new(base: u64, size: usize) -> Self {
        VecMemory {
            base,
            bytes: vec![0; size],
        }
    }

    /// Base address of the first byte.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Direct slice access (tests and framework plumbing).
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    fn offset(&self, addr: u64, len: usize) -> Result<usize> {
        let off = addr.checked_sub(self.base).ok_or_else(|| JitError::Trap {
            reason: format!("address {addr:#x} below memory base {:#x}", self.base),
        })? as usize;
        if off
            .checked_add(len)
            .is_none_or(|end| end > self.bytes.len())
        {
            return Err(JitError::Trap {
                reason: format!(
                    "access of {len} bytes at {addr:#x} exceeds memory of {} bytes at base {:#x}",
                    self.bytes.len(),
                    self.base
                ),
            });
        }
        Ok(off)
    }
}

impl Memory for VecMemory {
    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<()> {
        let off = self.offset(addr, buf.len())?;
        buf.copy_from_slice(&self.bytes[off..off + buf.len()]);
        Ok(())
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<()> {
        let off = self.offset(addr, data.len())?;
        self.bytes[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.bytes.len() as u64)
    }
}

/// A sparse, page-based memory covering the full 64-bit address space.
/// Used for node memories where payload buffers, pointer-table shards and
/// JIT-materialised globals live at widely separated addresses.
///
/// Pages live in a slab and are found through a map from page number to slab
/// slot.  The map keeps the standard library's keyed hasher, because page
/// numbers come from addresses remote peers choose; in front of it sits a
/// memo of the page touched last, so a run of accesses to one page (an
/// ifunc reading its staged payload field by field) pays for one probe.
/// Pages are never unmapped, so a memoised slot stays valid; a clone copies
/// slab, map and memo together and shares nothing with its origin.
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    slots: HashMap<u64, usize>,
    pages: Vec<Box<[u8; Self::PAGE_SIZE]>>,
    /// `(page number, slab slot)` of the page touched last.
    last: Cell<Option<(u64, usize)>>,
}

impl SparseMemory {
    /// Page size in bytes.
    pub const PAGE_SIZE: usize = 4096;

    /// Create an empty sparse memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_of(addr: u64) -> (u64, usize) {
        (
            addr / Self::PAGE_SIZE as u64,
            (addr % Self::PAGE_SIZE as u64) as usize,
        )
    }

    /// Slab slot of a materialised page.
    fn slot_of(&self, page: u64) -> Option<usize> {
        if let Some((last, slot)) = self.last.get() {
            if last == page {
                return Some(slot);
            }
        }
        let slot = *self.slots.get(&page)?;
        self.last.set(Some((page, slot)));
        Some(slot)
    }
}

impl Memory for SparseMemory {
    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<()> {
        // A word inside one mapped page (an engine's 64-bit load) is one
        // fixed-width copy, not a loop around `memcpy`.
        let (page, off) = Self::page_of(addr);
        if let (Ok(word), Some(slot)) = (<&mut [u8; 8]>::try_from(&mut *buf), self.slot_of(page)) {
            if off <= Self::PAGE_SIZE - 8 {
                word.copy_from_slice(&self.pages[slot][off..off + 8]);
                return Ok(());
            }
        }
        let mut done = 0usize;
        while done < buf.len() {
            let (page, off) = Self::page_of(addr.wrapping_add(done as u64));
            let chunk = (Self::PAGE_SIZE - off).min(buf.len() - done);
            match self.slot_of(page) {
                Some(slot) => {
                    buf[done..done + chunk].copy_from_slice(&self.pages[slot][off..off + chunk])
                }
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
        }
        Ok(())
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<()> {
        let mut done = 0usize;
        while done < data.len() {
            let (page, off) = Self::page_of(addr.wrapping_add(done as u64));
            let chunk = (Self::PAGE_SIZE - off).min(data.len() - done);
            let slot = match self.slot_of(page) {
                Some(slot) => slot,
                None => {
                    let slot = self.pages.len();
                    self.pages.push(Box::new([0u8; Self::PAGE_SIZE]));
                    self.slots.insert(page, slot);
                    self.last.set(Some((page, slot)));
                    slot
                }
            };
            self.pages[slot][off..off + chunk].copy_from_slice(&data[done..done + chunk]);
            done += chunk;
        }
        Ok(())
    }
}

/// Typed scalar reads/writes on any [`Memory`].
pub trait MemoryExt: Memory {
    /// Read a u64.
    fn read_u64(&self, addr: u64) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    /// Write a u64.
    fn write_u64(&mut self, addr: u64, v: u64) -> Result<()> {
        self.write(addr, &v.to_le_bytes())
    }
    /// Read a scalar of the given type, widening into a 64-bit slot
    /// (sign-extended for signed types).
    fn read_scalar(&self, ty: ScalarType, addr: u64) -> Result<u64> {
        let size = ty.size_bytes(8) as usize;
        let mut b = [0u8; 8];
        self.read(addr, &mut b[..size])?;
        let raw = u64::from_le_bytes(b);
        Ok(normalize(ty, raw))
    }
    /// Write the low bytes of a 64-bit slot as a scalar of the given type.
    fn write_scalar(&mut self, ty: ScalarType, addr: u64, bits: u64) -> Result<()> {
        let size = ty.size_bytes(8) as usize;
        self.write(addr, &bits.to_le_bytes()[..size])
    }
}

impl<M: Memory + ?Sized> MemoryExt for M {}

/// Host interface for external calls made by executing code.
///
/// The framework runtime (`tc-core`) implements this to expose UCX-style
/// operations and the recursive-injection API; a linked module's host
/// answers its loaded libraries' symbols first and chains to it.
pub trait ExternalHost {
    /// Invoke `symbol` with `args`, possibly touching `mem`.  Returns the
    /// call's result value (0 for void functions).
    fn call_external(&mut self, symbol: &str, args: &[u64], mem: &mut dyn Memory) -> Result<u64>;

    /// Extra virtual cycles to charge for a call to `symbol` (network
    /// operations initiated by an ifunc are charged by the simulator instead;
    /// the default of 0 is fine for pure host functions).
    fn external_cost(&self, _symbol: &str) -> u64 {
        0
    }
}

/// An [`ExternalHost`] that rejects every call — used for pure ifuncs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoExternals;

impl ExternalHost for NoExternals {
    fn call_external(&mut self, symbol: &str, _args: &[u64], _mem: &mut dyn Memory) -> Result<u64> {
        Err(JitError::UnresolvedSymbol {
            symbol: symbol.to_string(),
        })
    }
}

/// Outcome of executing a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOutcome {
    /// Value returned by the function (0 when void).
    pub return_value: u64,
    /// Machine instructions retired.
    pub insts_retired: u64,
    /// Virtual cycles consumed (per-instruction base costs plus dynamic
    /// vector-loop and external-call components).
    pub cycles: u64,
}

/// Execution limits.
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Maximum number of machine instructions to retire before aborting.
    pub fuel: u64,
    /// Maximum local call depth.
    pub max_call_depth: u32,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            fuel: 50_000_000,
            max_call_depth: 256,
        }
    }
}

/// The execution engine.  Stateless apart from configuration; all mutable
/// state lives in the memory, the host, and the per-call frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine {
    /// Execution limits applied to every invocation.
    pub limits: ExecLimits,
}

impl Engine {
    /// Engine with default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Execute `func_name` from `module` with `args`.
    ///
    /// `data_addrs[i]` must give the address at which the module's `i`-th
    /// data object has been materialised in `mem` (see
    /// [`crate::orc::OrcJit::link`]); pass an empty slice for modules
    /// without globals.
    pub fn run(
        &self,
        module: &MachModule,
        func_name: &str,
        args: &[u64],
        data_addrs: &[u64],
        mem: &mut dyn Memory,
        host: &mut dyn ExternalHost,
    ) -> Result<ExecOutcome> {
        let func_index =
            module
                .function_index(func_name)
                .ok_or_else(|| JitError::UnknownFunction {
                    name: func_name.to_string(),
                })?;
        self.run_index(module, func_index, args, data_addrs, mem, host)
    }

    /// Execute function number `func_index` of `module`: [`Engine::run`] for
    /// callers that resolved the name once (see
    /// [`MachModule::function_index`]) and invoke the function many times.
    pub fn run_index(
        &self,
        module: &MachModule,
        func_index: u32,
        args: &[u64],
        data_addrs: &[u64],
        mem: &mut dyn Memory,
        host: &mut dyn ExternalHost,
    ) -> Result<ExecOutcome> {
        let mut ctx = ExecContext {
            module,
            data_addrs,
            mem,
            host,
            fuel_left: self.limits.fuel,
            max_depth: self.limits.max_call_depth,
            insts: 0,
            cycles: 0,
            spare_frames: Vec::new(),
        };
        let ret = ctx.call_function(func_index, args, 0)?;
        Ok(ExecOutcome {
            return_value: ret,
            insts_retired: ctx.insts,
            cycles: ctx.cycles,
        })
    }
}

/// Register files of at most this many registers live in the interpreter's
/// own stack frame; larger ones take a buffer from
/// `ExecContext::spare_frames`.
const INLINE_REGS: usize = 64;
/// Call argument lists of at most this length are gathered on the stack.
const INLINE_ARGS: usize = 8;

struct ExecContext<'a> {
    module: &'a MachModule,
    data_addrs: &'a [u64],
    mem: &'a mut dyn Memory,
    host: &'a mut dyn ExternalHost,
    fuel_left: u64,
    max_depth: u32,
    insts: u64,
    cycles: u64,
    /// Register files too large for the stack, handed back by the calls that
    /// returned and reused by the next one.
    spare_frames: Vec<Vec<u64>>,
}

/// The values of the registers `args` names: on the stack when they fit,
/// in `heap` otherwise.
fn gather<'b>(
    regs: &[u64],
    args: &[MReg],
    inline: &'b mut [u64; INLINE_ARGS],
    heap: &'b mut Vec<u64>,
) -> &'b [u64] {
    if args.len() <= INLINE_ARGS {
        for (value, r) in inline.iter_mut().zip(args) {
            *value = regs[*r as usize];
        }
        &inline[..args.len()]
    } else {
        heap.extend(args.iter().map(|r| regs[*r as usize]));
        heap
    }
}

/// A register file, indexed by the registers ops name — each checked
/// against the frame when the code was emitted.
struct Regs<'r>(&'r mut [u64]);

impl Index<MReg> for Regs<'_> {
    type Output = u64;
    fn index(&self, r: MReg) -> &u64 {
        &self.0[r as usize]
    }
}

impl IndexMut<MReg> for Regs<'_> {
    fn index_mut(&mut self, r: MReg) -> &mut u64 {
        &mut self.0[r as usize]
    }
}

fn trap(reason: String) -> JitError {
    JitError::Trap { reason }
}

impl<'a> ExecContext<'a> {
    fn call_function(&mut self, func_index: u32, args: &[u64], depth: u32) -> Result<u64> {
        if depth > self.max_depth {
            return Err(trap(format!("call depth exceeded {}", self.max_depth)));
        }
        let module: &'a MachModule = self.module;
        let func: &MachFunction = module.functions().get(func_index as usize).ok_or_else(|| {
            JitError::UnknownFunction {
                name: format!("#{func_index}"),
            }
        })?;
        if args.len() != func.num_params as usize {
            return Err(trap(format!(
                "function `{}` called with {} args, expects {}",
                func.name,
                args.len(),
                func.num_params
            )));
        }
        let num_regs = func.num_regs.max(func.num_params) as usize;
        let mut inline = [0u64; INLINE_REGS];
        let mut spilled = Vec::new();
        let regs: &mut [u64] = if num_regs <= INLINE_REGS {
            &mut inline[..num_regs]
        } else {
            spilled = self.spare_frames.pop().unwrap_or_default();
            spilled.clear();
            spilled.resize(num_regs, 0);
            &mut spilled
        };
        regs[..args.len()].copy_from_slice(args);
        let entry = module.program.entries[func_index as usize] as usize;
        let ret = self.run_frame(func, entry, &mut Regs(regs), depth);
        if num_regs > INLINE_REGS {
            self.spare_frames.push(spilled);
        }
        ret
    }

    /// Run `func`'s code from op `pc` over its register file until it
    /// returns or traps.
    fn run_frame(
        &mut self,
        func: &MachFunction,
        mut pc: usize,
        r: &mut Regs<'_>,
        depth: u32,
    ) -> Result<u64> {
        let program: &'a Program = &self.module.program;
        let code = &program.code[..];
        loop {
            let op = &code[pc];
            pc += 1;
            match *op {
                Op::Charge(insts, cycles) => {
                    if self.fuel_left < insts {
                        return Err(self.run_out(&code[pc..], r));
                    }
                    self.fuel_left -= insts;
                    self.insts += insts;
                    self.cycles += cycles;
                }
                Op::CallLocal(dst, callee, first, n) => {
                    let (mut inline, mut heap) = ([0u64; INLINE_ARGS], Vec::new());
                    let names = &program.args[first as usize..][..n as usize];
                    let argv = gather(r.0, names, &mut inline, &mut heap);
                    let ret = self.call_function(callee, argv, depth + 1)?;
                    if let Some(d) = dst {
                        r[d] = ret;
                    }
                }
                Op::Jmp(to) => pc = to as usize,
                Op::JmpIf(cond, then, other) => {
                    pc = if r[cond] != 0 { then } else { other } as usize
                }
                Op::Ret(value) => return Ok(value.map_or(0, |v| r[v])),
                Op::Trap(code) => {
                    let name = &func.name;
                    return Err(trap(format!("explicit trap (code {code}) in `{name}`")));
                }
                _ => self.step(op, r)?,
            }
        }
    }

    /// Execute one straight-line op: anything but a charge, a local call, a
    /// branch or the end of a function.
    #[inline(always)]
    fn step(&mut self, op: &Op, r: &mut Regs<'_>) -> Result<()> {
        match *op {
            Op::Imm(d, bits) => r[d] = bits,
            Op::Mov(d, s) => r[d] = r[s],
            Op::Add(d, a, b) => r[d] = r[a].wrapping_add(r[b]),
            Op::Sub(d, a, b) => r[d] = r[a].wrapping_sub(r[b]),
            Op::Mul(d, a, b) => r[d] = r[a].wrapping_mul(r[b]),
            Op::DivU(d, a, b) => r[d] = r[a] / nonzero(r[b], "division")?,
            Op::RemU(d, a, b) => r[d] = r[a] % nonzero(r[b], "remainder")?,
            Op::Eq(d, a, b) => r[d] = u64::from(r[a] == r[b]),
            Op::Ne(d, a, b) => r[d] = u64::from(r[a] != r[b]),
            Op::LtU(d, a, b) => r[d] = u64::from(r[a] < r[b]),
            Op::LtS(d, a, b) => r[d] = u64::from((r[a] as i64) < (r[b] as i64)),
            Op::LeU(d, a, b) => r[d] = u64::from(r[a] <= r[b]),
            Op::LeS(d, a, b) => r[d] = u64::from((r[a] as i64) <= (r[b] as i64)),
            Op::Bin(f, d, a, b) => r[d] = f(r[a], r[b])?,
            Op::Un(f, d, s) => r[d] = f(r[s]),
            Op::Ld64(d, a, offset) => r[d] = self.mem.read_u64(r[a].wrapping_add(offset as u64))?,
            Op::St64(s, a, offset) => self.mem.write_u64(r[a].wrapping_add(offset as u64), r[s])?,
            Op::Ld(f, d, a, offset) => r[d] = f(self.mem, r[a].wrapping_add(offset as u64))?,
            Op::St(f, s, a, offset) => f(self.mem, r[a].wrapping_add(offset as u64), r[s])?,
            Op::Atomic(op, ty, [d, a, s, e]) => r[d] = atomic(self.mem, op, ty, r[a], r[s], r[e])?,
            Op::VecLoop(op, ty, [d, a, b, n], lanes) => {
                self.cycles += vec_loop(self.mem, op, ty, [r[d], r[a], r[b]], r[n], lanes)?
            }
            Op::DataAddr(d, i) => {
                r[d] = *self.data_addrs.get(i as usize).ok_or_else(|| {
                    let available = self.data_addrs.len();
                    trap(format!(
                        "data object #{i} not materialised ({available} available)"
                    ))
                })?
            }
            Op::CallSym(dst, sym, first, n) => {
                // Borrowed from the module for the length of the call.
                let module: &'a MachModule = self.module;
                let symbol: &str = module
                    .ext_symbols
                    .get(sym as usize)
                    .ok_or_else(|| trap(format!("external symbol #{sym} out of range")))?;
                let (mut inline, mut heap) = ([0u64; INLINE_ARGS], Vec::new());
                let names = &module.program.args[first as usize..][..n as usize];
                let argv = gather(r.0, names, &mut inline, &mut heap);
                self.cycles += self.host.external_cost(symbol);
                let ret = self.host.call_external(symbol, argv, self.mem)?;
                if let Some(d) = dst {
                    r[d] = ret;
                }
            }
            // A charge, a local call or control flow: `run_frame`'s.
            _ => {}
        }
        Ok(())
    }

    /// A charge the fuel left cannot pay.  Retire what it can pay for one
    /// instruction at a time, exactly as far as fuel reaches — every one of
    /// them precedes the charge's call or terminator, so each is straight
    /// line — and stop.
    #[cold]
    fn run_out(&mut self, ops: &[Op], r: &mut Regs<'_>) -> JitError {
        let paid = std::mem::take(&mut self.fuel_left) as usize;
        for op in &ops[..paid] {
            self.insts += 1;
            if let Err(e) = self.step(op, r) {
                return e;
            }
        }
        JitError::OutOfFuel {
            executed: self.insts,
        }
    }
}

/// Normalise a 64-bit slot to the canonical representation of `ty`
/// (truncate to width, sign-extend signed types back into the slot).
pub(crate) fn normalize(ty: ScalarType, bits: u64) -> u64 {
    match ty {
        ScalarType::I8 => bits as u8 as i8 as i64 as u64,
        ScalarType::I16 => bits as u16 as i16 as i64 as u64,
        ScalarType::I32 => bits as u32 as i32 as i64 as u64,
        ScalarType::U8 => u64::from(bits as u8),
        ScalarType::U16 => u64::from(bits as u16),
        ScalarType::U32 => u64::from(bits as u32),
        ScalarType::F32 => u64::from((f32::from_bits(bits as u32)).to_bits()),
        ScalarType::I64 | ScalarType::U64 | ScalarType::Ptr | ScalarType::F64 => bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_module, lower_and_compile, CompileOptions};
    use crate::emit::{eval_bin, eval_un};
    use tc_bitir::{AtomicOp, BinOp, ModuleBuilder, TargetTriple, UnOp, VecOp};

    /// The interpreter of [`MachInst`] that the pre-decoded engine replaced,
    /// kept as the reference it is held to: per instruction a `match`,
    /// `eval_bin` deciding operator and type, a fuel check and a cycle add.
    mod reference {
        use super::super::*;
        use crate::machine::MachInst;
        use tc_bitir::{AtomicOp, BinOp, UnOp, VecOp};

        /// [`Engine::run_index`] on the reference interpreter.
        pub(super) fn run_index(
            limits: ExecLimits,
            module: &MachModule,
            func_index: u32,
            args: &[u64],
            data_addrs: &[u64],
            mem: &mut dyn Memory,
            host: &mut dyn ExternalHost,
        ) -> Result<ExecOutcome> {
            let mut ctx = Reference {
                module,
                data_addrs,
                mem,
                host,
                fuel_left: limits.fuel,
                max_depth: limits.max_call_depth,
                insts: 0,
                cycles: 0,
                spare_frames: Vec::new(),
            };
            let ret = ctx.call_function(func_index, args, 0)?;
            Ok(ExecOutcome {
                return_value: ret,
                insts_retired: ctx.insts,
                cycles: ctx.cycles,
            })
        }

        struct Reference<'a> {
            module: &'a MachModule,
            data_addrs: &'a [u64],
            mem: &'a mut dyn Memory,
            host: &'a mut dyn ExternalHost,
            fuel_left: u64,
            max_depth: u32,
            insts: u64,
            cycles: u64,
            /// Register files too large for the stack, handed back by the calls that
            /// returned and reused by the next one.
            spare_frames: Vec<Vec<u64>>,
        }

        impl<'a> Reference<'a> {
            fn call_function(&mut self, func_index: u32, args: &[u64], depth: u32) -> Result<u64> {
                if depth > self.max_depth {
                    return Err(JitError::Trap {
                        reason: format!("call depth exceeded {}", self.max_depth),
                    });
                }
                let module: &'a MachModule = self.module;
                let func: &MachFunction =
                    module.functions().get(func_index as usize).ok_or_else(|| {
                        JitError::UnknownFunction {
                            name: format!("#{func_index}"),
                        }
                    })?;
                if args.len() != func.num_params as usize {
                    return Err(JitError::Trap {
                        reason: format!(
                            "function `{}` called with {} args, expects {}",
                            func.name,
                            args.len(),
                            func.num_params
                        ),
                    });
                }
                let num_regs = func.num_regs.max(func.num_params) as usize;
                let mut inline = [0u64; INLINE_REGS];
                let mut spilled = Vec::new();
                let regs: &mut [u64] = if num_regs <= INLINE_REGS {
                    &mut inline[..num_regs]
                } else {
                    spilled = self.spare_frames.pop().unwrap_or_default();
                    spilled.clear();
                    spilled.resize(num_regs, 0);
                    &mut spilled
                };
                regs[..args.len()].copy_from_slice(args);
                let ret = self.run_frame(func, regs, depth);
                if num_regs > INLINE_REGS {
                    self.spare_frames.push(spilled);
                }
                ret
            }

            /// Interpret `func` over its register file until it returns or traps.
            fn run_frame(
                &mut self,
                func: &'a MachFunction,
                regs: &mut [u64],
                depth: u32,
            ) -> Result<u64> {
                let module: &'a MachModule = self.module;
                let mut block = 0usize;
                loop {
                    let insts = func.blocks.get(block).ok_or_else(|| JitError::Trap {
                        reason: format!("jump to non-existent block {block} in `{}`", func.name),
                    })?;
                    let mut next_block: Option<usize> = None;
                    for inst in insts {
                        if self.fuel_left == 0 {
                            return Err(JitError::OutOfFuel {
                                executed: self.insts,
                            });
                        }
                        self.fuel_left -= 1;
                        self.insts += 1;
                        self.cycles += inst.base_cycles();

                        match inst {
                            MachInst::Imm { dst, ty, bits } => {
                                regs[*dst as usize] = normalize(*ty, *bits);
                            }
                            MachInst::Mov { dst, src } => {
                                regs[*dst as usize] = regs[*src as usize];
                            }
                            MachInst::Alu {
                                op,
                                ty,
                                dst,
                                lhs,
                                rhs,
                            } => {
                                regs[*dst as usize] =
                                    eval_bin(*op, *ty, regs[*lhs as usize], regs[*rhs as usize])?;
                            }
                            MachInst::AluUn { op, ty, dst, src } => {
                                regs[*dst as usize] = eval_un(*op, *ty, regs[*src as usize]);
                            }
                            MachInst::Ld {
                                ty,
                                dst,
                                addr,
                                offset,
                            } => {
                                let a = regs[*addr as usize].wrapping_add(*offset as u64);
                                regs[*dst as usize] = self.mem.read_scalar(*ty, a)?;
                            }
                            MachInst::St {
                                ty,
                                src,
                                addr,
                                offset,
                            } => {
                                let a = regs[*addr as usize].wrapping_add(*offset as u64);
                                self.mem.write_scalar(*ty, a, regs[*src as usize])?;
                            }
                            MachInst::AtomicRmw {
                                op,
                                ty,
                                dst,
                                addr,
                                src,
                                expected,
                                lse: _,
                            } => {
                                let a = regs[*addr as usize];
                                let old = self.mem.read_scalar(*ty, a)?;
                                let operand = regs[*src as usize];
                                let new = match op {
                                    AtomicOp::FetchAdd => eval_bin(BinOp::Add, *ty, old, operand)?,
                                    AtomicOp::Exchange => operand,
                                    AtomicOp::CompareSwap => {
                                        if old == normalize(*ty, regs[*expected as usize]) {
                                            operand
                                        } else {
                                            old
                                        }
                                    }
                                };
                                self.mem.write_scalar(*ty, a, new)?;
                                regs[*dst as usize] = old;
                            }
                            MachInst::VecLoop {
                                op,
                                ty,
                                dst_addr,
                                a_addr,
                                b_addr,
                                count,
                                lanes,
                            } => {
                                let n = regs[*count as usize];
                                let elem = u64::from(ty.size_bytes(8));
                                let da = regs[*dst_addr as usize];
                                let aa = regs[*a_addr as usize];
                                let ba = regs[*b_addr as usize];
                                for i in 0..n {
                                    let at = |base: u64| base.wrapping_add(i.wrapping_mul(elem));
                                    let av = self.mem.read_scalar(*ty, at(aa))?;
                                    let bv = self.mem.read_scalar(*ty, at(ba))?;
                                    let dv = match op {
                                        VecOp::Add => eval_bin(vec_add_op(*ty), *ty, av, bv)?,
                                        VecOp::Mul => eval_bin(vec_mul_op(*ty), *ty, av, bv)?,
                                        VecOp::Fma => {
                                            let prod = eval_bin(vec_mul_op(*ty), *ty, av, bv)?;
                                            let acc = self.mem.read_scalar(*ty, at(da))?;
                                            eval_bin(vec_add_op(*ty), *ty, prod, acc)?
                                        }
                                    };
                                    self.mem.write_scalar(*ty, at(da), dv)?;
                                }
                                // Dynamic cost: one chunk of work per `lanes` elements.
                                let chunks = n.div_ceil(u64::from((*lanes).max(1)));
                                self.cycles += chunks.saturating_mul(inst.base_cycles());
                            }
                            MachInst::DataAddr { dst, data_index } => {
                                let addr = self
                                    .data_addrs
                                    .get(*data_index as usize)
                                    .copied()
                                    .ok_or_else(|| JitError::Trap {
                                        reason: format!(
                                            "data object #{data_index} not materialised ({} available)",
                                            self.data_addrs.len()
                                        ),
                                    })?;
                                regs[*dst as usize] = addr;
                            }
                            MachInst::CallLocal {
                                dst,
                                func_index,
                                args,
                            } => {
                                let (mut inline, mut heap) = ([0u64; INLINE_ARGS], Vec::new());
                                let argv = gather(regs, args, &mut inline, &mut heap);
                                let ret = self.call_function(*func_index, argv, depth + 1)?;
                                if let Some(d) = dst {
                                    regs[*d as usize] = ret;
                                }
                            }
                            MachInst::CallSym {
                                dst,
                                sym_index,
                                args,
                            } => {
                                // Borrowed from the module for the length of the call.
                                let symbol: &str = module
                                    .ext_symbols
                                    .get(*sym_index as usize)
                                    .ok_or_else(|| JitError::Trap {
                                        reason: format!(
                                            "external symbol #{sym_index} out of range"
                                        ),
                                    })?;
                                let (mut inline, mut heap) = ([0u64; INLINE_ARGS], Vec::new());
                                let argv = gather(regs, args, &mut inline, &mut heap);
                                self.cycles += self.host.external_cost(symbol);
                                let ret = self.host.call_external(symbol, argv, self.mem)?;
                                if let Some(d) = dst {
                                    regs[*d as usize] = ret;
                                }
                            }
                            MachInst::Jmp { block: b } => {
                                next_block = Some(*b as usize);
                                break;
                            }
                            MachInst::JmpIf {
                                cond,
                                then_block,
                                else_block,
                            } => {
                                next_block = Some(if regs[*cond as usize] != 0 {
                                    *then_block as usize
                                } else {
                                    *else_block as usize
                                });
                                break;
                            }
                            MachInst::Ret { value } => {
                                return Ok(value.map(|r| regs[r as usize]).unwrap_or(0));
                            }
                            MachInst::Trap { code } => {
                                return Err(JitError::Trap {
                                    reason: format!(
                                        "explicit trap (code {code}) in `{}`",
                                        func.name
                                    ),
                                });
                            }
                        }
                    }
                    match next_block {
                        Some(b) => block = b,
                        None => {
                            return Err(JitError::Trap {
                                reason: format!(
                                    "block {block} of `{}` fell through without terminator",
                                    func.name
                                ),
                            })
                        }
                    }
                }
            }
        }

        fn vec_add_op(ty: ScalarType) -> BinOp {
            if ty.is_float() {
                BinOp::FAdd
            } else {
                BinOp::Add
            }
        }

        fn vec_mul_op(ty: ScalarType) -> BinOp {
            if ty.is_float() {
                BinOp::FMul
            } else {
                BinOp::Mul
            }
        }

        fn to_f64(ty: ScalarType, bits: u64) -> f64 {
            match ty {
                ScalarType::F32 => f64::from(f32::from_bits(bits as u32)),
                _ => f64::from_bits(bits),
            }
        }

        fn from_f64(ty: ScalarType, v: f64) -> u64 {
            match ty {
                ScalarType::F32 if v.is_nan() => u64::from(f32::NAN.to_bits()),
                ScalarType::F32 => u64::from((v as f32).to_bits()),
                _ if v.is_nan() => f64::NAN.to_bits(),
                _ => v.to_bits(),
            }
        }

        /// Evaluate a binary operation on normalised 64-bit slots.
        fn eval_bin(op: BinOp, ty: ScalarType, lhs: u64, rhs: u64) -> Result<u64> {
            if op.is_float_only() || (ty.is_float() && op.is_comparison()) {
                let a = to_f64(ty, lhs);
                let b = to_f64(ty, rhs);
                let result = match op {
                    BinOp::FAdd => from_f64(ty, a + b),
                    BinOp::FSub => from_f64(ty, a - b),
                    BinOp::FMul => from_f64(ty, a * b),
                    BinOp::FDiv => from_f64(ty, a / b),
                    BinOp::CmpEq => u64::from(a == b),
                    BinOp::CmpNe => u64::from(a != b),
                    BinOp::CmpLt => u64::from(a < b),
                    BinOp::CmpLe => u64::from(a <= b),
                    BinOp::CmpGt => u64::from(a > b),
                    BinOp::CmpGe => u64::from(a >= b),
                    _ => {
                        return Err(JitError::Trap {
                            reason: format!("operator {op:?} not valid on float type {ty}"),
                        })
                    }
                };
                return Ok(result);
            }

            let signed = ty.is_signed();
            let a = normalize(ty, lhs);
            let b = normalize(ty, rhs);
            let result = match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(JitError::Trap {
                            reason: "integer division by zero".into(),
                        });
                    }
                    if signed {
                        ((a as i64).wrapping_div(b as i64)) as u64
                    } else {
                        a / b
                    }
                }
                BinOp::Rem => {
                    if b == 0 {
                        return Err(JitError::Trap {
                            reason: "integer remainder by zero".into(),
                        });
                    }
                    if signed {
                        ((a as i64).wrapping_rem(b as i64)) as u64
                    } else {
                        a % b
                    }
                }
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                BinOp::Shl => a.wrapping_shl((b & 63) as u32),
                BinOp::Shr => {
                    if signed {
                        ((a as i64).wrapping_shr((b & 63) as u32)) as u64
                    } else {
                        a.wrapping_shr((b & 63) as u32)
                    }
                }
                BinOp::CmpEq => u64::from(a == b),
                BinOp::CmpNe => u64::from(a != b),
                BinOp::CmpLt => u64::from(if signed {
                    (a as i64) < (b as i64)
                } else {
                    a < b
                }),
                BinOp::CmpLe => u64::from(if signed {
                    (a as i64) <= (b as i64)
                } else {
                    a <= b
                }),
                BinOp::CmpGt => u64::from(if signed {
                    (a as i64) > (b as i64)
                } else {
                    a > b
                }),
                BinOp::CmpGe => u64::from(if signed {
                    (a as i64) >= (b as i64)
                } else {
                    a >= b
                }),
                BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => unreachable!(),
            };
            Ok(normalize(ty, result))
        }

        /// Evaluate a unary operation.
        fn eval_un(op: UnOp, ty: ScalarType, src: u64) -> u64 {
            match op {
                UnOp::Not => normalize(ty, !src),
                UnOp::Neg => normalize(ty, (src as i64).wrapping_neg() as u64),
                UnOp::FNeg => from_f64(ty, -to_f64(ty, src)),
                UnOp::IntToFloat => from_f64(ty, src as i64 as f64),
                UnOp::FloatToInt => {
                    let v = f64::from_bits(src);
                    normalize(ty, v as i64 as u64)
                }
                UnOp::IntCast => normalize(ty, src),
                UnOp::FloatCast => {
                    // The source is whichever float width the value currently is; we
                    // just re-encode at the destination width.
                    let as_f64 = if ty == ScalarType::F32 {
                        f64::from_bits(src)
                    } else {
                        f64::from(f32::from_bits(src as u32))
                    };
                    from_f64(ty, as_f64)
                }
            }
        }
    }

    /// Host recording external calls.
    #[derive(Default)]
    struct RecordingHost {
        calls: Vec<(String, Vec<u64>)>,
    }

    impl ExternalHost for RecordingHost {
        fn call_external(
            &mut self,
            symbol: &str,
            args: &[u64],
            _mem: &mut dyn Memory,
        ) -> Result<u64> {
            self.calls.push((symbol.to_string(), args.to_vec()));
            Ok(args.iter().sum())
        }
        fn external_cost(&self, _symbol: &str) -> u64 {
            100
        }
    }

    fn tsi_module() -> tc_bitir::Module {
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

    #[test]
    fn tsi_increments_target_counter() {
        let compiled = lower_and_compile(
            &tsi_module(),
            TargetTriple::THOR_XEON,
            CompileOptions::default(),
        )
        .unwrap();
        let mut mem = VecMemory::new(0x1000, 4096);
        // payload at 0x1000 (value 5), target counter at 0x1800 (starts at 37)
        mem.write(0x1000, &[5]).unwrap();
        mem.write_u64(0x1800, 37).unwrap();
        let engine = Engine::new();
        let out = engine
            .run(
                &compiled.module,
                "main",
                &[0x1000, 1, 0x1800],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap();
        assert_eq!(out.return_value, 0);
        assert_eq!(mem.read_u64(0x1800).unwrap(), 42);
        assert!(out.insts_retired > 0);
        assert!(out.cycles >= out.insts_retired);
    }

    #[test]
    fn loop_sums_payload_array() {
        // main: sum payload_len u64 values stored at payload_ptr, store at target.
        let mut mb = ModuleBuilder::new("sum");
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let len = f.param(1);
            let target = f.param(2);
            let idx = f.const_u64(0);
            let acc = f.const_u64(0);
            let header = f.new_block();
            let body = f.new_block();
            let done = f.new_block();
            f.br(header);
            f.switch_to(header);
            let cond = f.cmp(BinOp::CmpLt, ScalarType::U64, idx, len);
            f.br_if(cond, body, done);
            f.switch_to(body);
            let eight = f.const_u64(8);
            let off = f.bin(BinOp::Mul, ScalarType::U64, idx, eight);
            let addr = f.bin(BinOp::Add, ScalarType::U64, payload, off);
            let v = f.load(ScalarType::U64, addr, 0);
            let newacc = f.bin(BinOp::Add, ScalarType::U64, acc, v);
            f.assign(acc, newacc);
            let one = f.const_u64(1);
            let newidx = f.bin(BinOp::Add, ScalarType::U64, idx, one);
            f.assign(idx, newidx);
            f.br(header);
            f.switch_to(done);
            f.store(ScalarType::U64, acc, target, 0);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        let compiled = compile_module(&mb.build(), CompileOptions::default()).unwrap();
        let mut mem = VecMemory::new(0, 4096);
        for i in 0..10u64 {
            mem.write_u64(i * 8, i + 1).unwrap();
        }
        let out = Engine::new()
            .run(
                &compiled.module,
                "main",
                &[0, 10, 2048],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap();
        assert_eq!(out.return_value, 0);
        assert_eq!(mem.read_u64(2048).unwrap(), 55);
    }

    #[test]
    fn external_calls_reach_host_and_cost_cycles() {
        let mut mb = ModuleBuilder::new("ext");
        {
            let mut f = mb.entry_function();
            let a = f.const_u64(7);
            let b = f.const_u64(35);
            let r = f.call_ext("tc_return_result", vec![a, b], true).unwrap();
            f.ret(r);
            f.finish();
        }
        let compiled = compile_module(&mb.build(), CompileOptions::default()).unwrap();
        let mut mem = VecMemory::new(0, 64);
        let mut host = RecordingHost::default();
        let out = Engine::new()
            .run(
                &compiled.module,
                "main",
                &[0, 0, 0],
                &[],
                &mut mem,
                &mut host,
            )
            .unwrap();
        assert_eq!(out.return_value, 42);
        assert_eq!(host.calls.len(), 1);
        assert_eq!(host.calls[0].0, "tc_return_result");
        assert_eq!(host.calls[0].1, vec![7, 35]);
        assert!(out.cycles >= 100, "external cost must be charged");
    }

    #[test]
    fn recursion_works_and_depth_is_bounded() {
        // fact(n) = n <= 1 ? 1 : n * fact(n-1)
        let mut mb = ModuleBuilder::new("fact");
        let fact_id = mb.next_func_id();
        {
            let mut f = mb.function("fact", vec![ScalarType::U64], Some(ScalarType::U64));
            let n = f.param(0);
            let one = f.const_u64(1);
            let le = f.cmp(BinOp::CmpLe, ScalarType::U64, n, one);
            let base = f.new_block();
            let rec = f.new_block();
            f.br_if(le, base, rec);
            f.switch_to(base);
            f.ret(one);
            f.switch_to(rec);
            let nm1 = f.sub_i64(n, one);
            let sub = f.call(fact_id, vec![nm1], true).unwrap();
            let prod = f.bin(BinOp::Mul, ScalarType::U64, n, sub);
            f.ret(prod);
            f.finish();
        }
        let compiled = compile_module(&mb.build(), CompileOptions::default()).unwrap();
        let mut mem = VecMemory::new(0, 8);
        let out = Engine::new()
            .run(
                &compiled.module,
                "fact",
                &[10],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap();
        assert_eq!(out.return_value, 3_628_800);

        // Depth bound: fact(1000) exceeds max_call_depth of 256.
        let err = Engine::new()
            .run(
                &compiled.module,
                "fact",
                &[1000],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap_err();
        assert!(matches!(err, JitError::Trap { .. }));
    }

    /// Register files and argument lists beyond the inline sizes take the
    /// heap path, and give the same answers.
    #[test]
    fn wide_frames_and_long_argument_lists_execute_like_small_ones() {
        let mut mb = ModuleBuilder::new("wide");
        let wide_id = mb.next_func_id();
        {
            // wide(x) = x + 1 + 2 + … + 100, every term in its own register.
            let mut f = mb.function("wide", vec![ScalarType::U64], Some(ScalarType::U64));
            let mut sum = f.param(0);
            for k in 1..=100 {
                let term = f.const_u64(k);
                sum = f.bin(BinOp::Add, ScalarType::U64, sum, term);
            }
            f.ret(sum);
            f.finish();
        }
        {
            let mut f = mb.entry_function();
            let x = f.param(0);
            let once = f.call(wide_id, vec![x], true).unwrap();
            let twice = f.call(wide_id, vec![once], true).unwrap();
            let args: Vec<_> = (1..=12).map(|k| f.const_u64(k)).collect();
            let ext = f.call_ext("sum12", args, true).unwrap();
            let total = f.bin(BinOp::Add, ScalarType::U64, twice, ext);
            f.ret(total);
            f.finish();
        }
        let compiled = compile_module(&mb.build(), CompileOptions::default()).unwrap();
        let wide = &compiled.module.functions()[wide_id.0 as usize];
        assert!(wide.num_regs as usize > INLINE_REGS, "{}", wide.num_regs);
        let mut mem = VecMemory::new(0, 8);
        let mut host = RecordingHost::default();
        let out = Engine::new()
            .run(
                &compiled.module,
                "main",
                &[7, 0, 0],
                &[],
                &mut mem,
                &mut host,
            )
            .unwrap();
        assert_eq!(out.return_value, 7 + 2 * 5050 + 78);
        assert_eq!(host.calls[0].1, (1..=12).collect::<Vec<u64>>());
    }

    #[test]
    fn fuel_limit_stops_infinite_loops() {
        let mut mb = ModuleBuilder::new("spin");
        {
            let mut f = mb.function("spin", vec![], None);
            let blk = f.entry_block();
            f.br(blk);
            f.finish();
        }
        let compiled = compile_module(&mb.build(), CompileOptions::default()).unwrap();
        let mut mem = VecMemory::new(0, 8);
        let limits = ExecLimits {
            fuel: 10_000,
            ..ExecLimits::default()
        };
        let err = Engine { limits }
            .run(
                &compiled.module,
                "spin",
                &[],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap_err();
        assert!(matches!(err, JitError::OutOfFuel { .. }));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut mb = ModuleBuilder::new("div0");
        {
            let mut f = mb.function("f", vec![ScalarType::U64], Some(ScalarType::U64));
            let x = f.param(0);
            let zero = f.const_u64(0);
            let q = f.div_u64(x, zero);
            f.ret(q);
            f.finish();
        }
        let compiled = compile_module(&mb.build(), CompileOptions::default()).unwrap();
        let mut mem = VecMemory::new(0, 8);
        let err = Engine::new()
            .run(&compiled.module, "f", &[4], &[], &mut mem, &mut NoExternals)
            .unwrap_err();
        assert!(matches!(err, JitError::Trap { .. }));
    }

    #[test]
    fn out_of_bounds_memory_traps() {
        let compiled = compile_module(&tsi_module(), CompileOptions::default()).unwrap();
        let mut mem = VecMemory::new(0x1000, 64);
        // Target pointer outside the memory.
        let err = Engine::new()
            .run(
                &compiled.module,
                "main",
                &[0x1000, 1, 0x9_0000],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap_err();
        assert!(matches!(err, JitError::Trap { .. }));
    }

    /// A vector loop whose arrays run past the top of the address space
    /// wraps to address 0, as every other access does, and does not panic.
    #[test]
    fn a_vector_loop_across_the_top_of_memory_wraps() {
        let mut mb = ModuleBuilder::new("vwrap");
        {
            let mut f = mb.entry_function();
            let (a, n, dst) = (f.param(0), f.param(1), f.param(2));
            f.vec_op(VecOp::Add, ScalarType::U64, dst, a, a, n);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        let compiled = compile_module(&mb.build(), CompileOptions::default()).unwrap();
        let mut mem = SparseMemory::new();
        mem.write_u64(0, 21).unwrap();
        let args = [u64::MAX - 7, 2, 0x1000];
        let engine = Engine::new();
        let module = &compiled.module;
        engine
            .run(module, "main", &args, &[], &mut mem, &mut NoExternals)
            .unwrap();
        assert_eq!(mem.read_u64(0x1008).unwrap(), 42);
    }

    #[test]
    fn vector_loop_computes_and_costs_scale_with_lanes() {
        let mut mb = ModuleBuilder::new("vadd");
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let len = f.param(1);
            let target = f.param(2);
            f.vec_op(
                tc_bitir::VecOp::Add,
                ScalarType::F64,
                target,
                payload,
                payload,
                len,
            );
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        let module = mb.build();
        let run = |target: TargetTriple| {
            let compiled = lower_and_compile(&module, target, CompileOptions::default()).unwrap();
            let mut mem = VecMemory::new(0, 8192);
            for i in 0..128u64 {
                mem.write(i * 8, &(i as f64).to_le_bytes()).unwrap();
            }
            let out = Engine::new()
                .run(
                    &compiled.module,
                    "main",
                    &[0, 128, 4096],
                    &[],
                    &mut mem,
                    &mut NoExternals,
                )
                .unwrap();
            let v: f64 = {
                let mut b = [0u8; 8];
                mem.read(4096 + 8 * 3, &mut b).unwrap();
                f64::from_le_bytes(b)
            };
            assert_eq!(v, 6.0); // 3.0 + 3.0
            out.cycles
        };
        let cycles_sve = run(TargetTriple::OOKAMI_A64FX);
        let cycles_neon = run(TargetTriple::THOR_BF2);
        assert!(
            cycles_sve < cycles_neon,
            "wider SIMD must cost fewer cycles ({cycles_sve} vs {cycles_neon})"
        );
    }

    #[test]
    fn signed_unsigned_semantics() {
        assert_eq!(
            eval_bin(BinOp::CmpLt, ScalarType::I32, (-1i64) as u64, 1).unwrap(),
            1
        );
        assert_eq!(
            eval_bin(BinOp::CmpLt, ScalarType::U32, 0xffff_ffff, 1).unwrap(),
            0
        );
        assert_eq!(
            eval_bin(BinOp::Div, ScalarType::I64, (-6i64) as u64, 3).unwrap(),
            (-2i64) as u64
        );
        assert_eq!(
            eval_bin(BinOp::Shr, ScalarType::I8, 0x80, 1).unwrap(),
            normalize(ScalarType::I8, 0xC0)
        );
        assert_eq!(eval_bin(BinOp::Shr, ScalarType::U8, 0x80, 1).unwrap(), 0x40);
    }

    #[test]
    fn float_ops_and_conversions() {
        let a = 2.5f64.to_bits();
        let b = 4.0f64.to_bits();
        let s = eval_bin(BinOp::FMul, ScalarType::F64, a, b).unwrap();
        assert_eq!(f64::from_bits(s), 10.0);
        assert_eq!(eval_bin(BinOp::CmpGt, ScalarType::F64, b, a).unwrap(), 1);
        let i = eval_un(UnOp::FloatToInt, ScalarType::I64, 7.9f64.to_bits());
        assert_eq!(i, 7);
        let f = eval_un(UnOp::IntToFloat, ScalarType::F64, (-3i64) as u64);
        assert_eq!(f64::from_bits(f), -3.0);
    }

    /// A NaN result is the canonical quiet NaN, whichever operand's payload
    /// the optimiser would have carried through.
    #[test]
    fn nan_results_are_canonical_either_way_round() {
        let (x, y) = (0x7ff8_0000_0000_0001, 0xfff4_0000_0000_0002);
        let add = |a, b| eval_bin(BinOp::FAdd, ScalarType::F64, a, b).unwrap();
        assert_eq!(
            (add(x, y), add(y, x)),
            (f64::NAN.to_bits(), f64::NAN.to_bits())
        );
    }

    #[test]
    fn sparse_memory_reads_zero_and_roundtrips() {
        let mut mem = SparseMemory::new();
        assert_eq!(mem.read_u64(0xdead_beef_0000).unwrap(), 0);
        mem.write_u64(0xdead_beef_0000, 77).unwrap();
        assert_eq!(mem.read_u64(0xdead_beef_0000).unwrap(), 77);
        // Cross-page write.
        let addr = (SparseMemory::PAGE_SIZE as u64) - 3;
        mem.write(addr, &[1, 2, 3, 4, 5, 6]).unwrap();
        let mut buf = [0u8; 6];
        mem.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
        assert!(mem.pages.len() >= 2);
    }

    /// Seeded model test: `SparseMemory` against a naive byte map, with
    /// accesses biased to straddle page boundaries, a clone that diverges
    /// from its origin, and reads of pages nobody wrote.  A failure prints
    /// its step.
    #[test]
    fn sparse_memory_matches_a_naive_byte_map() {
        const PAGE: u64 = SparseMemory::PAGE_SIZE as u64;
        let mut state: u64 = 0x5EED_5BA5_E0F0;
        let mut next = move || {
            // SplitMix64, the generator family of tc_simnet's.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Each memory beside the bytes written to it (absent = zero).
        type Model = HashMap<u64, u8>;
        let mut mems: Vec<(SparseMemory, Model)> = vec![Default::default()];
        let check = |mem: &SparseMemory, model: &Model, addr: u64, len: usize, step: usize| {
            let mut got = vec![0xEEu8; len];
            mem.read(addr, &mut got).unwrap();
            let want: Vec<u8> = (0..len as u64)
                .map(|i| model.get(&(addr + i)).copied().unwrap_or(0))
                .collect();
            assert_eq!(got, want, "step {step}: read of {len} at {addr:#x}");
        };
        for step in 0..3000 {
            // A handful of pages far apart, and offsets hugging their edges.
            let page = [0, 1, 2, 0x4_0000, 0x7_0000_0000, u64::MAX / PAGE - 2][next() as usize % 6];
            let edge = [0, 1, PAGE - 9, PAGE - 8, PAGE - 1][next() as usize % 5];
            let addr = page * PAGE + (edge + next() % 8) % PAGE;
            let len = [1, 2, 4, 8, 9, 100, 5000][next() as usize % 7];
            let which = next() as usize % mems.len();
            match next() % 8 {
                0..=3 => {
                    let (mem, model) = &mut mems[which];
                    let data: Vec<u8> = (0..len).map(|_| next() as u8 | 1).collect();
                    mem.write(addr, &data).unwrap();
                    for (i, b) in data.iter().enumerate() {
                        model.insert(addr + i as u64, *b);
                    }
                }
                4..=6 => {
                    let (mem, model) = &mems[which];
                    check(mem, model, addr, len, step);
                }
                _ if mems.len() < 4 => {
                    // The clone starts equal — memo included — and shares
                    // nothing afterwards.
                    let (mem, model) = &mems[which];
                    check(mem, model, addr, 8, step);
                    let copy = (mem.clone(), model.clone());
                    mems.push(copy);
                }
                _ => {
                    // A page nobody wrote reads as zeros and stays unmapped.
                    let (mem, model) = &mems[which];
                    let untouched = (0x9_0000 + next() % 64) * PAGE;
                    let pages = mem.pages.len();
                    check(mem, model, untouched, 16, step);
                    assert_eq!(mem.pages.len(), pages, "step {step}");
                }
            }
        }
        assert_eq!(mems.len(), 4, "the run cloned");
        for (mem, model) in &mems {
            let mapped: std::collections::HashSet<u64> = model.keys().map(|a| a / PAGE).collect();
            assert_eq!(mem.pages.len(), mapped.len());
        }
    }

    #[test]
    fn unknown_function_is_reported() {
        let compiled = compile_module(&tsi_module(), CompileOptions::default()).unwrap();
        let mut mem = VecMemory::new(0, 64);
        let err = Engine::new()
            .run(
                &compiled.module,
                "nope",
                &[],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap_err();
        assert_eq!(
            err,
            JitError::UnknownFunction {
                name: "nope".into()
            }
        );
    }

    #[test]
    fn wrong_arity_traps() {
        let compiled = compile_module(&tsi_module(), CompileOptions::default()).unwrap();
        let mut mem = VecMemory::new(0, 64);
        let err = Engine::new()
            .run(
                &compiled.module,
                "main",
                &[1, 2],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap_err();
        assert!(matches!(err, JitError::Trap { .. }));
    }

    // -- the pre-decoded engine against the reference, on generated programs

    /// Base and size of the memory every generated program runs against.
    const BASE: u64 = 0x1000;
    const SIZE: u64 = 4096;

    /// SplitMix64, the generator family of tc_simnet's.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }

        /// An address inside the memory with `room` bytes behind it — or,
        /// one time in `1 / miss`, one that runs off its end.
        fn addr(&mut self, room: u64, miss: u64) -> u64 {
            match self.below(miss) {
                0 => BASE + SIZE - self.below(room.max(1)),
                _ => BASE + self.below(SIZE - room),
            }
        }
    }

    /// Answers every external call the generator emits, and logs it.
    #[derive(Default)]
    struct LogHost {
        calls: Vec<(String, Vec<u64>)>,
    }

    impl ExternalHost for LogHost {
        fn call_external(
            &mut self,
            symbol: &str,
            args: &[u64],
            mem: &mut dyn Memory,
        ) -> Result<u64> {
            self.calls.push((symbol.to_string(), args.to_vec()));
            let first = args.first().copied().unwrap_or(0);
            match symbol {
                "sum" => Ok(args
                    .iter()
                    .fold(7, |a, b| a.wrapping_mul(31).wrapping_add(*b))),
                "poke" => mem.write_u64(BASE + first % (SIZE - 8), first).map(|()| 1),
                "fail" => Err(JitError::Host(format!("fail({first})"))),
                _ => Err(JitError::UnresolvedSymbol {
                    symbol: symbol.to_string(),
                }),
            }
        }

        fn external_cost(&self, symbol: &str) -> u64 {
            symbol.len() as u64
        }
    }

    /// `(parameters, returns a value)` of each helper function.
    type Sigs = [(usize, bool)];

    /// One straight-line instruction of every kind the builder has: ALU at
    /// any operator and type the verifier admits, loads and stores of every
    /// width, atomics, vector loops, globals, local and external calls.
    fn gen_inst(
        f: &mut tc_bitir::FunctionBuilder<'_>,
        g: &mut Rng,
        regs: &mut Vec<tc_bitir::Reg>,
        sigs: &Sigs,
    ) {
        use ScalarType as T;
        let ints = [
            T::I8,
            T::I16,
            T::I32,
            T::I64,
            T::U8,
            T::U16,
            T::U32,
            T::U64,
            T::Ptr,
        ];
        let floats = [T::F32, T::F64];
        let reg = |g: &mut Rng| g.pick(regs);
        let def = match g.below(16) {
            0 | 1 => Some(f.const_bits(g.pick(&ScalarType::ALL), g.next() >> g.below(64))),
            2..=5 => {
                let op = g.pick(&BinOp::ALL);
                let ty = match op {
                    BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => g.pick(&floats),
                    BinOp::Div | BinOp::Rem | BinOp::And | BinOp::Or => g.pick(&ints),
                    BinOp::Xor | BinOp::Shl | BinOp::Shr => g.pick(&ints),
                    _ => g.pick(&ScalarType::ALL),
                };
                let (lhs, rhs) = (reg(g), reg(g));
                Some(f.bin(op, ty, lhs, rhs))
            }
            6 => {
                let op = g.pick(&UnOp::ALL);
                let ty = match op {
                    UnOp::FNeg | UnOp::FloatCast | UnOp::IntToFloat => g.pick(&floats),
                    _ => g.pick(&ints),
                };
                let src = reg(g);
                Some(f.un(op, ty, src))
            }
            7 | 8 => {
                let ty = g.pick(&ScalarType::ALL);
                let addr = f.const_u64(g.addr(16, 40));
                Some(f.load(ty, addr, g.below(8) as i64))
            }
            9 => {
                let (ty, src) = (g.pick(&ScalarType::ALL), reg(g));
                let addr = f.const_u64(g.addr(16, 40));
                f.store(ty, src, addr, g.below(8) as i64);
                None
            }
            10 => {
                let (op, ty) = (g.pick(&AtomicOp::ALL), g.pick(&ints));
                let addr = f.const_u64(g.addr(8, 40));
                let (src, expected) = (reg(g), reg(g));
                Some(f.atomic(op, ty, addr, src, expected))
            }
            11 => {
                let ty = g.pick(&[T::I8, T::I32, T::U16, T::U64, T::F32, T::F64]);
                let [dst, a, b] = [0; 3].map(|_| f.const_u64(g.addr(80, 40)));
                let count = f.const_u64(g.below(10));
                f.vec_op(g.pick(&VecOp::ALL), ty, dst, a, b, count);
                None
            }
            12 => Some(f.global_addr(tc_bitir::GlobalId(0))),
            13 if !sigs.is_empty() => {
                let callee = g.below(sigs.len() as u64) as usize;
                let (params, returns) = sigs[callee];
                let args = (0..params).map(|_| reg(g)).collect();
                f.call(tc_bitir::FuncId(callee as u32), args, returns)
            }
            14 => {
                let symbol = g.pick(&["sum", "sum", "poke", "fail", "missing"]);
                let args = (0..g.below(11)).map(|_| reg(g)).collect();
                f.call_ext(symbol, args, g.below(2) == 0)
            }
            _ => {
                let (dst, src) = (reg(g), reg(g));
                f.assign(dst, src);
                None
            }
        };
        regs.extend(def);
    }

    /// A function body: up to five blocks of up to 24 instructions, each
    /// ended by a branch, a countdown loop, a return or a trap.
    fn gen_body(
        f: &mut tc_bitir::FunctionBuilder<'_>,
        g: &mut Rng,
        params: usize,
        returns: bool,
        sigs: &Sigs,
    ) {
        let mut blocks = vec![f.entry_block()];
        blocks.extend((0..g.below(5)).map(|_| f.new_block()));
        let mut regs: Vec<_> = (0..params).map(|i| f.param(i)).collect();
        let counter = f.const_u64(g.below(6));
        let one = f.const_u64(1);
        regs.extend([counter, one]);
        for (i, &block) in blocks.iter().enumerate() {
            f.switch_to(block);
            for _ in 0..g.below(25) {
                gen_inst(f, g, &mut regs, sigs);
            }
            let (there, next) = (g.pick(&blocks), blocks.get(i + 1).copied());
            match (g.below(10), next) {
                (0 | 1, _) => {
                    let cond = g.pick(&regs);
                    let other = g.pick(&blocks);
                    f.br_if(cond, there, other)
                }
                (2, _) => f.br(there),
                (3..=5, Some(next)) => {
                    let left = f.bin(BinOp::Sub, ScalarType::U64, counter, one);
                    f.assign(counter, left);
                    f.br_if(counter, there, next)
                }
                (9, _) => f.trap(g.below(4) as u32),
                _ if returns => {
                    let value = g.pick(&regs);
                    f.ret(value)
                }
                _ => f.ret_void(),
            }
        }
    }

    /// A verified module of up to three helpers (which call each other and
    /// themselves) and an entry function that calls them.
    fn gen_module(g: &mut Rng) -> tc_bitir::Module {
        let mut mb = ModuleBuilder::new("generated");
        mb.add_global("lut", (0..24).collect(), true);
        let sigs: Vec<(usize, bool)> = (0..g.below(4))
            .map(|_| (g.below(4) as usize, g.below(3) != 0))
            .collect();
        for (i, &(params, returns)) in sigs.iter().enumerate() {
            let ret = returns.then_some(ScalarType::U64);
            let mut f = mb.function(format!("f{i}"), vec![ScalarType::U64; params], ret);
            gen_body(&mut f, g, params, returns, &sigs);
            f.finish();
        }
        let mut f = mb.entry_function();
        gen_body(&mut f, g, 3, true, &sigs);
        f.finish();
        mb.build()
    }

    /// Which way a run ended, for the coverage check.
    fn kind(outcome: &Result<ExecOutcome>) -> usize {
        match outcome {
            Ok(_) => 0,
            Err(JitError::OutOfFuel { .. }) => 1,
            Err(JitError::Trap { .. }) => 2,
            Err(_) => 3,
        }
    }

    /// Generated programs run on the reference interpreter and on the
    /// pre-decoded engine — compiled, and decoded again from their `.text`
    /// bytes — with the same memory, host and limits: the same outcome
    /// (`ExecOutcome`, or the same error, `OutOfFuel { executed }` included,
    /// at a large and at a seeded small fuel limit), the same memory image
    /// and the same host-call log.  A failure prints its seed.
    #[test]
    fn the_pre_decoded_engine_runs_generated_programs_as_the_reference_does() {
        const CASES: u64 = 2_400;
        let mut seen = [0usize; 4];
        for case in 0..CASES {
            let seed = 0x0DEC_0DED_0000 + case;
            let mut g = Rng(seed);
            let module = gen_module(&mut g);
            let target = g.pick(&[TargetTriple::THOR_XEON, TargetTriple::OOKAMI_A64FX]);
            let compiled = lower_and_compile(&module, target, CompileOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
            let decoded = MachModule::decode(&compiled.module.encode()).unwrap();
            let entry = compiled.module.function_index("main").unwrap();
            let args = [BASE, g.below(64), BASE + SIZE / 2];
            // The global is materialised, or (sometimes) not.
            let data: &[u64] = [&[BASE + 8][..], &[]][usize::from(g.below(8) == 0)];
            let mut image = VecMemory::new(BASE, SIZE as usize);
            for at in (0..SIZE).step_by(8) {
                image.write_u64(BASE + at, g.next() >> g.below(64)).unwrap();
            }
            for fuel in [5_000, g.below(200)] {
                let limits = ExecLimits {
                    fuel,
                    max_call_depth: 12,
                };
                let (mut mem, mut host) = (image.clone(), LogHost::default());
                let want = reference::run_index(
                    limits,
                    &compiled.module,
                    entry,
                    &args,
                    data,
                    &mut mem,
                    &mut host,
                );
                seen[kind(&want)] += 1;
                for module in [&compiled.module, &decoded] {
                    let (mut got_mem, mut got_host) = (image.clone(), LogHost::default());
                    let got = Engine { limits }.run_index(
                        module,
                        entry,
                        &args,
                        data,
                        &mut got_mem,
                        &mut got_host,
                    );
                    assert_eq!(got, want, "seed {seed:#x}, fuel {fuel}");
                    assert!(
                        got_mem.as_slice() == mem.as_slice(),
                        "seed {seed:#x}, fuel {fuel}: memory"
                    );
                    assert_eq!(got_host.calls, host.calls, "seed {seed:#x}, fuel {fuel}");
                }
            }
        }
        // Every way a run ends is reached often: returns, fuel running out,
        // traps, and host errors.
        for (kind, n) in seen.iter().enumerate() {
            assert!(
                *n as u64 > CASES / 50,
                "outcome kind {kind} seen {n} times: {seen:?}"
            );
        }
    }

    /// Every operator at every type — the pairs the verifier refuses too —
    /// on edge values, against the reference's own `eval_bin` / `eval_un`.
    #[test]
    fn every_operator_at_every_type_computes_what_the_reference_does() {
        let mut mb = ModuleBuilder::new("alu");
        for op in BinOp::ALL {
            for ty in ScalarType::ALL {
                let mut f = mb.function(format!("{op:?}{ty}"), vec![ScalarType::U64; 2], Some(ty));
                let (a, b) = (f.param(0), f.param(1));
                let v = f.bin(op, ty, a, b);
                f.ret(v);
                f.finish();
            }
        }
        for op in UnOp::ALL {
            for ty in ScalarType::ALL {
                let mut f = mb.function(format!("{op:?}{ty}"), vec![ScalarType::U64; 2], Some(ty));
                let v = f.un(op, ty, f.param(0));
                f.ret(v);
                f.finish();
            }
        }
        let unchecked = CompileOptions { verify: false };
        let module = compile_module(&mb.build(), unchecked).unwrap().module;
        let (i64_min, f32_nan) = (i64::MIN as u64, u64::from(f32::NAN.to_bits()));
        let values = [
            0,
            1,
            2,
            7,
            31,
            63,
            64,
            65,
            0x7f,
            0x80,
            0xff,
            0x7fff,
            0x8000,
            0xffff,
            0x8000_0000,
            0xffff_ffff,
            i64_min,
            i64::MAX as u64,
            u64::MAX,
            u64::MAX - 1,
            f32_nan,
            u64::from(1.5f32.to_bits()),
            u64::from((-0.0f32).to_bits()),
            1.5f64.to_bits(),
            (-2.25f64).to_bits(),
            f64::NAN.to_bits(),
            f64::INFINITY.to_bits(),
            (-0.0f64).to_bits(),
        ];
        let mut mem = VecMemory::new(0, 8);
        for index in 0..module.functions().len() as u32 {
            for (a, b) in values
                .iter()
                .flat_map(|&a| values.iter().map(move |&b| (a, b)))
            {
                let args = [a, b];
                let limits = ExecLimits::default();
                let want = reference::run_index(
                    limits,
                    &module,
                    index,
                    &args,
                    &[],
                    &mut mem,
                    &mut NoExternals,
                );
                let got = Engine { limits }.run_index(
                    &module,
                    index,
                    &args,
                    &[],
                    &mut mem,
                    &mut NoExternals,
                );
                let name = &module.functions()[index as usize].name;
                assert_eq!(got, want, "{name}({a:#x}, {b:#x})");
            }
        }
    }
}
