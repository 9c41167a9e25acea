//! The lowered "machine code" representation.
//!
//! Where the real Three-Chains ends up with native machine code emitted by
//! LLVM's back-end, the reproduction lowers IR into a flat, pre-resolved
//! instruction stream ([`MachInst`]) that the execution engine interprets.
//! The important properties carried over from real machine code:
//!
//! * it is *target-specific*: the SIMD lane count and the atomics strategy
//!   are baked in at compile time from the module's [`tc_bitir::LowerInfo`];
//! * external calls are routed through a small symbol table (the GOT
//!   analogue) so they can be rebound per process;
//! * it has a deterministic per-instruction cycle cost, which the
//!   discrete-event simulator uses to charge execution time;
//! * it serialises to a compact byte stream — this is what a *binary* ifunc
//!   ships in its `.text` section.

use crate::error::{JitError, Result};
use tc_bitir::{AtomicOp, BinOp, ScalarType, UnOp, VecOp};

/// A machine register index (virtual; the interpreter keeps a flat frame).
pub type MReg = u32;

/// One lowered machine instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum MachInst {
    /// Load an immediate bit pattern.
    Imm {
        /// Destination register.
        dst: MReg,
        /// Value type.
        ty: ScalarType,
        /// Raw bits.
        bits: u64,
    },
    /// Register copy.
    Mov {
        /// Destination register.
        dst: MReg,
        /// Source register.
        src: MReg,
    },
    /// Binary ALU/FPU operation.
    Alu {
        /// Operator.
        op: BinOp,
        /// Operand type.
        ty: ScalarType,
        /// Destination register.
        dst: MReg,
        /// Left operand.
        lhs: MReg,
        /// Right operand.
        rhs: MReg,
    },
    /// Unary ALU/FPU operation or conversion.
    AluUn {
        /// Operator.
        op: UnOp,
        /// Destination type.
        ty: ScalarType,
        /// Destination register.
        dst: MReg,
        /// Source register.
        src: MReg,
    },
    /// Scalar load.
    Ld {
        /// Value type.
        ty: ScalarType,
        /// Destination register.
        dst: MReg,
        /// Address register.
        addr: MReg,
        /// Byte offset.
        offset: i64,
    },
    /// Scalar store.
    St {
        /// Value type.
        ty: ScalarType,
        /// Source register.
        src: MReg,
        /// Address register.
        addr: MReg,
        /// Byte offset.
        offset: i64,
    },
    /// Atomic read-modify-write, lowered to either a single LSE-style
    /// instruction or a CAS loop depending on the target.
    AtomicRmw {
        /// Operation.
        op: AtomicOp,
        /// Value type.
        ty: ScalarType,
        /// Destination register (old value).
        dst: MReg,
        /// Address register.
        addr: MReg,
        /// Operand register.
        src: MReg,
        /// Expected-value register (CompareSwap only).
        expected: MReg,
        /// True when lowered to a single LSE-style instruction; false means a
        /// CAS loop which costs more cycles.
        lse: bool,
    },
    /// Vectorised element-wise loop over memory, processing `lanes` elements
    /// per machine iteration (the µarch specialisation the paper observes as
    /// SVE / AVX2 emission).
    VecLoop {
        /// Operation.
        op: VecOp,
        /// Element type.
        ty: ScalarType,
        /// Destination base address register.
        dst_addr: MReg,
        /// First source base address register.
        a_addr: MReg,
        /// Second source base address register.
        b_addr: MReg,
        /// Element-count register.
        count: MReg,
        /// Elements processed per iteration (≥ 1).
        lanes: u32,
    },
    /// Materialise the address of a data object (global) by index.
    DataAddr {
        /// Destination register.
        dst: MReg,
        /// Index into the compiled module's data-object table.
        data_index: u32,
    },
    /// Direct call to another function in the same compiled module.
    CallLocal {
        /// Destination register for the return value.
        dst: Option<MReg>,
        /// Index of the callee in the compiled module.
        func_index: u32,
        /// Argument registers.
        args: Vec<MReg>,
    },
    /// Call through the symbol table (external/framework call).
    CallSym {
        /// Destination register for the return value.
        dst: Option<MReg>,
        /// Index into the compiled module's external-symbol table.
        sym_index: u32,
        /// Argument registers.
        args: Vec<MReg>,
    },
    /// Unconditional jump to a block index.
    Jmp {
        /// Target block.
        block: u32,
    },
    /// Conditional jump.
    JmpIf {
        /// Condition register (non-zero = taken).
        cond: MReg,
        /// Target block when taken.
        then_block: u32,
        /// Target block when not taken.
        else_block: u32,
    },
    /// Return.
    Ret {
        /// Returned register, if any.
        value: Option<MReg>,
    },
    /// Trap.
    Trap {
        /// Trap code.
        code: u32,
    },
}

impl MachInst {
    /// Nominal cycle cost of the instruction (vector loops and calls add a
    /// dynamic component at run time).  These are coarse, single-issue-style
    /// costs: what matters for the reproduction is the *relative* cost of
    /// cached execution vs. JIT vs. transmission, not cycle accuracy.
    pub(crate) fn base_cycles(&self) -> u64 {
        match self {
            MachInst::Imm { .. } | MachInst::Mov { .. } => 1,
            MachInst::Alu { op, .. } => match op {
                BinOp::Div | BinOp::Rem => 20,
                BinOp::FDiv => 15,
                BinOp::Mul | BinOp::FMul => 3,
                _ => 1,
            },
            MachInst::AluUn { .. } => 1,
            MachInst::Ld { .. } => 4,
            MachInst::St { .. } => 4,
            MachInst::AtomicRmw { lse, .. } => {
                if *lse {
                    8
                } else {
                    20
                }
            }
            MachInst::VecLoop { .. } => 2, // per chunk; engine multiplies by trip count
            MachInst::DataAddr { .. } => 1,
            MachInst::CallLocal { .. } => 4,
            MachInst::CallSym { .. } => 10,
            MachInst::Jmp { .. } | MachInst::JmpIf { .. } => 1,
            MachInst::Ret { .. } => 2,
            MachInst::Trap { .. } => 1,
        }
    }

    /// True if this instruction terminates a block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            MachInst::Jmp { .. }
                | MachInst::JmpIf { .. }
                | MachInst::Ret { .. }
                | MachInst::Trap { .. }
        )
    }
}

/// A compiled function: blocks of machine instructions.
#[derive(Debug, Clone, PartialEq)]
pub struct MachFunction {
    /// Function name.
    pub name: String,
    /// Number of parameters (arrive in registers 0..n).
    pub num_params: u32,
    /// Whether the function returns a value.
    pub has_ret: bool,
    /// Number of virtual registers used.
    pub num_regs: u32,
    /// Basic blocks of machine instructions.
    pub blocks: Vec<Vec<MachInst>>,
}

impl MachFunction {
    /// Total instruction count.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }
}

/// A data object carried alongside the code (lowered module global).
#[derive(Debug, Clone, PartialEq)]
pub struct DataObject {
    /// Symbol name.
    pub name: String,
    /// Initial bytes.
    pub init: Vec<u8>,
    /// Whether stores to it are allowed.
    pub mutable: bool,
}

/// A fully compiled module: the unit the ORC-like JIT caches and the
/// execution engine runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MachModule {
    /// Module (ifunc library) name.
    pub name: String,
    /// Triple string the module was compiled for.
    pub triple: String,
    /// Compiled functions.
    pub functions: Vec<MachFunction>,
    /// External symbols referenced by [`MachInst::CallSym`], in index order.
    pub ext_symbols: Vec<String>,
    /// Data objects referenced by [`MachInst::DataAddr`], in index order.
    pub data: Vec<DataObject>,
    /// Shared-library dependencies that must be loadable before execution.
    pub deps: Vec<String>,
}

impl MachModule {
    /// Find a function index by name.
    pub fn function_index(&self, name: &str) -> Option<u32> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }

    /// Total machine instruction count.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(MachFunction::inst_count).sum()
    }

    // -- serialization (the contents of a binary ifunc's .text) -------------

    /// Serialise the module to a compact byte stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = tc_bitir::bitcode::Writer::new();
        w.string(&self.name);
        w.string(&self.triple);
        w.varint(self.ext_symbols.len() as u64);
        for s in &self.ext_symbols {
            w.string(s);
        }
        w.varint(self.deps.len() as u64);
        for d in &self.deps {
            w.string(d);
        }
        w.varint(self.data.len() as u64);
        for d in &self.data {
            w.string(&d.name);
            w.u8(u8::from(d.mutable));
            w.bytes(&d.init);
        }
        w.varint(self.functions.len() as u64);
        for f in &self.functions {
            w.string(&f.name);
            w.varint(u64::from(f.num_params));
            w.u8(u8::from(f.has_ret));
            w.varint(u64::from(f.num_regs));
            w.varint(f.blocks.len() as u64);
            for b in &f.blocks {
                w.varint(b.len() as u64);
                for inst in b {
                    encode_inst(&mut w, inst);
                }
            }
        }
        w.finish()
    }

    /// Deserialise a module previously produced by [`MachModule::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = tc_bitir::bitcode::Reader::new(bytes);
        let map_err = |e: tc_bitir::BitirError| JitError::Decode(e.to_string());
        let name = r.string().map_err(map_err)?;
        let triple = r.string().map_err(map_err)?;
        let nsyms = r.varint().map_err(map_err)? as usize;
        let mut ext_symbols = Vec::with_capacity(nsyms.min(1024));
        for _ in 0..nsyms {
            ext_symbols.push(r.string().map_err(map_err)?);
        }
        let ndeps = r.varint().map_err(map_err)? as usize;
        let mut deps = Vec::with_capacity(ndeps.min(256));
        for _ in 0..ndeps {
            deps.push(r.string().map_err(map_err)?);
        }
        let ndata = r.varint().map_err(map_err)? as usize;
        let mut data = Vec::with_capacity(ndata.min(1024));
        for _ in 0..ndata {
            let name = r.string().map_err(map_err)?;
            let mutable = r.u8().map_err(map_err)? != 0;
            let init = r.bytes().map_err(map_err)?;
            data.push(DataObject {
                name,
                init,
                mutable,
            });
        }
        let nfuncs = r.varint().map_err(map_err)? as usize;
        let mut functions = Vec::with_capacity(nfuncs.min(4096));
        for _ in 0..nfuncs {
            let name = r.string().map_err(map_err)?;
            let num_params = r.varint().map_err(map_err)? as u32;
            let has_ret = r.u8().map_err(map_err)? != 0;
            let num_regs = r.varint().map_err(map_err)? as u32;
            let nblocks = r.varint().map_err(map_err)? as usize;
            let mut blocks = Vec::with_capacity(nblocks.min(4096));
            for _ in 0..nblocks {
                let ninsts = r.varint().map_err(map_err)? as usize;
                let mut insts = Vec::with_capacity(ninsts.min(65536));
                for _ in 0..ninsts {
                    insts.push(decode_inst(&mut r).map_err(|e| JitError::Decode(e.to_string()))?);
                }
                blocks.push(insts);
            }
            functions.push(MachFunction {
                name,
                num_params,
                has_ret,
                num_regs,
                blocks,
            });
        }
        Ok(MachModule {
            name,
            triple,
            functions,
            ext_symbols,
            data,
            deps,
        })
    }
}

// Machine instruction opcodes for serialization.
mod mop {
    pub const IMM: u8 = 1;
    pub const MOV: u8 = 2;
    pub const ALU: u8 = 3;
    pub const ALU_UN: u8 = 4;
    pub const LD: u8 = 5;
    pub const ST: u8 = 6;
    pub const ATOMIC: u8 = 7;
    pub const VEC_LOOP: u8 = 8;
    pub const DATA_ADDR: u8 = 9;
    pub const CALL_LOCAL: u8 = 10;
    pub const CALL_SYM: u8 = 11;
    pub const JMP: u8 = 12;
    pub const JMP_IF: u8 = 13;
    pub const RET: u8 = 14;
    pub const TRAP: u8 = 15;
}

fn encode_inst(w: &mut tc_bitir::bitcode::Writer, inst: &MachInst) {
    match inst {
        MachInst::Imm { dst, ty, bits } => {
            w.u8(mop::IMM);
            w.varint(u64::from(*dst));
            w.u8(ty.tag());
            w.varint(*bits);
        }
        MachInst::Mov { dst, src } => {
            w.u8(mop::MOV);
            w.varint(u64::from(*dst));
            w.varint(u64::from(*src));
        }
        MachInst::Alu {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => {
            w.u8(mop::ALU);
            w.u8(op.tag());
            w.u8(ty.tag());
            w.varint(u64::from(*dst));
            w.varint(u64::from(*lhs));
            w.varint(u64::from(*rhs));
        }
        MachInst::AluUn { op, ty, dst, src } => {
            w.u8(mop::ALU_UN);
            w.u8(op.tag());
            w.u8(ty.tag());
            w.varint(u64::from(*dst));
            w.varint(u64::from(*src));
        }
        MachInst::Ld {
            ty,
            dst,
            addr,
            offset,
        } => {
            w.u8(mop::LD);
            w.u8(ty.tag());
            w.varint(u64::from(*dst));
            w.varint(u64::from(*addr));
            w.svarint(*offset);
        }
        MachInst::St {
            ty,
            src,
            addr,
            offset,
        } => {
            w.u8(mop::ST);
            w.u8(ty.tag());
            w.varint(u64::from(*src));
            w.varint(u64::from(*addr));
            w.svarint(*offset);
        }
        MachInst::AtomicRmw {
            op,
            ty,
            dst,
            addr,
            src,
            expected,
            lse,
        } => {
            w.u8(mop::ATOMIC);
            w.u8(op.tag());
            w.u8(ty.tag());
            w.varint(u64::from(*dst));
            w.varint(u64::from(*addr));
            w.varint(u64::from(*src));
            w.varint(u64::from(*expected));
            w.u8(u8::from(*lse));
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
            w.u8(mop::VEC_LOOP);
            w.u8(op.tag());
            w.u8(ty.tag());
            w.varint(u64::from(*dst_addr));
            w.varint(u64::from(*a_addr));
            w.varint(u64::from(*b_addr));
            w.varint(u64::from(*count));
            w.varint(u64::from(*lanes));
        }
        MachInst::DataAddr { dst, data_index } => {
            w.u8(mop::DATA_ADDR);
            w.varint(u64::from(*dst));
            w.varint(u64::from(*data_index));
        }
        MachInst::CallLocal {
            dst,
            func_index,
            args,
        } => {
            w.u8(mop::CALL_LOCAL);
            encode_opt_reg(w, dst);
            w.varint(u64::from(*func_index));
            w.varint(args.len() as u64);
            for a in args {
                w.varint(u64::from(*a));
            }
        }
        MachInst::CallSym {
            dst,
            sym_index,
            args,
        } => {
            w.u8(mop::CALL_SYM);
            encode_opt_reg(w, dst);
            w.varint(u64::from(*sym_index));
            w.varint(args.len() as u64);
            for a in args {
                w.varint(u64::from(*a));
            }
        }
        MachInst::Jmp { block } => {
            w.u8(mop::JMP);
            w.varint(u64::from(*block));
        }
        MachInst::JmpIf {
            cond,
            then_block,
            else_block,
        } => {
            w.u8(mop::JMP_IF);
            w.varint(u64::from(*cond));
            w.varint(u64::from(*then_block));
            w.varint(u64::from(*else_block));
        }
        MachInst::Ret { value } => {
            w.u8(mop::RET);
            encode_opt_reg(w, value);
        }
        MachInst::Trap { code } => {
            w.u8(mop::TRAP);
            w.varint(u64::from(*code));
        }
    }
}

fn encode_opt_reg(w: &mut tc_bitir::bitcode::Writer, reg: &Option<MReg>) {
    match reg {
        Some(r) => {
            w.u8(1);
            w.varint(u64::from(*r));
        }
        None => w.u8(0),
    }
}

fn decode_opt_reg(r: &mut tc_bitir::bitcode::Reader<'_>) -> tc_bitir::Result<Option<MReg>> {
    match r.u8()? {
        0 => Ok(None),
        _ => Ok(Some(r.varint()? as MReg)),
    }
}

fn decode_scalar(r: &mut tc_bitir::bitcode::Reader<'_>) -> tc_bitir::Result<ScalarType> {
    let tag = r.u8()?;
    ScalarType::from_tag(tag)
        .ok_or_else(|| tc_bitir::BitirError::Decode(format!("bad scalar tag {tag}")))
}

fn decode_inst(r: &mut tc_bitir::bitcode::Reader<'_>) -> tc_bitir::Result<MachInst> {
    use tc_bitir::BitirError;
    let op = r.u8()?;
    let inst = match op {
        mop::IMM => MachInst::Imm {
            dst: r.varint()? as MReg,
            ty: decode_scalar(r)?,
            bits: r.varint()?,
        },
        mop::MOV => MachInst::Mov {
            dst: r.varint()? as MReg,
            src: r.varint()? as MReg,
        },
        mop::ALU => {
            let tag = r.u8()?;
            let op = BinOp::from_tag(tag)
                .ok_or_else(|| BitirError::Decode(format!("bad binop {tag}")))?;
            MachInst::Alu {
                op,
                ty: decode_scalar(r)?,
                dst: r.varint()? as MReg,
                lhs: r.varint()? as MReg,
                rhs: r.varint()? as MReg,
            }
        }
        mop::ALU_UN => {
            let tag = r.u8()?;
            let op =
                UnOp::from_tag(tag).ok_or_else(|| BitirError::Decode(format!("bad unop {tag}")))?;
            MachInst::AluUn {
                op,
                ty: decode_scalar(r)?,
                dst: r.varint()? as MReg,
                src: r.varint()? as MReg,
            }
        }
        mop::LD => MachInst::Ld {
            ty: decode_scalar(r)?,
            dst: r.varint()? as MReg,
            addr: r.varint()? as MReg,
            offset: r.svarint()?,
        },
        mop::ST => MachInst::St {
            ty: decode_scalar(r)?,
            src: r.varint()? as MReg,
            addr: r.varint()? as MReg,
            offset: r.svarint()?,
        },
        mop::ATOMIC => {
            let tag = r.u8()?;
            let op = AtomicOp::from_tag(tag)
                .ok_or_else(|| BitirError::Decode(format!("bad atomic {tag}")))?;
            MachInst::AtomicRmw {
                op,
                ty: decode_scalar(r)?,
                dst: r.varint()? as MReg,
                addr: r.varint()? as MReg,
                src: r.varint()? as MReg,
                expected: r.varint()? as MReg,
                lse: r.u8()? != 0,
            }
        }
        mop::VEC_LOOP => {
            let tag = r.u8()?;
            let op = VecOp::from_tag(tag)
                .ok_or_else(|| BitirError::Decode(format!("bad vecop {tag}")))?;
            MachInst::VecLoop {
                op,
                ty: decode_scalar(r)?,
                dst_addr: r.varint()? as MReg,
                a_addr: r.varint()? as MReg,
                b_addr: r.varint()? as MReg,
                count: r.varint()? as MReg,
                lanes: r.varint()? as u32,
            }
        }
        mop::DATA_ADDR => MachInst::DataAddr {
            dst: r.varint()? as MReg,
            data_index: r.varint()? as u32,
        },
        mop::CALL_LOCAL => {
            let dst = decode_opt_reg(r)?;
            let func_index = r.varint()? as u32;
            let n = r.varint()? as usize;
            let mut args = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                args.push(r.varint()? as MReg);
            }
            MachInst::CallLocal {
                dst,
                func_index,
                args,
            }
        }
        mop::CALL_SYM => {
            let dst = decode_opt_reg(r)?;
            let sym_index = r.varint()? as u32;
            let n = r.varint()? as usize;
            let mut args = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                args.push(r.varint()? as MReg);
            }
            MachInst::CallSym {
                dst,
                sym_index,
                args,
            }
        }
        mop::JMP => MachInst::Jmp {
            block: r.varint()? as u32,
        },
        mop::JMP_IF => MachInst::JmpIf {
            cond: r.varint()? as MReg,
            then_block: r.varint()? as u32,
            else_block: r.varint()? as u32,
        },
        mop::RET => MachInst::Ret {
            value: decode_opt_reg(r)?,
        },
        mop::TRAP => MachInst::Trap {
            code: r.varint()? as u32,
        },
        other => {
            return Err(BitirError::Decode(format!(
                "unknown machine opcode {other}"
            )))
        }
    };
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_module() -> MachModule {
        MachModule {
            name: "m".into(),
            triple: "x86_64-xeon-e5-sim".into(),
            functions: vec![MachFunction {
                name: "main".into(),
                num_params: 3,
                has_ret: true,
                num_regs: 8,
                blocks: vec![
                    vec![
                        MachInst::Imm {
                            dst: 3,
                            ty: ScalarType::U64,
                            bits: 41,
                        },
                        MachInst::Ld {
                            ty: ScalarType::U64,
                            dst: 4,
                            addr: 2,
                            offset: 0,
                        },
                        MachInst::Alu {
                            op: BinOp::Add,
                            ty: ScalarType::U64,
                            dst: 5,
                            lhs: 3,
                            rhs: 4,
                        },
                        MachInst::JmpIf {
                            cond: 5,
                            then_block: 1,
                            else_block: 1,
                        },
                    ],
                    vec![
                        MachInst::CallSym {
                            dst: Some(6),
                            sym_index: 0,
                            args: vec![5],
                        },
                        MachInst::AtomicRmw {
                            op: AtomicOp::FetchAdd,
                            ty: ScalarType::U64,
                            dst: 7,
                            addr: 2,
                            src: 5,
                            expected: 5,
                            lse: true,
                        },
                        MachInst::Ret { value: Some(7) },
                    ],
                ],
            }],
            ext_symbols: vec!["tc_return_result".into()],
            data: vec![DataObject {
                name: "lut".into(),
                init: vec![9, 8, 7],
                mutable: false,
            }],
            deps: vec!["libc.so".into()],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample_module();
        let bytes = m.encode();
        let decoded = MachModule::decode(&bytes).unwrap();
        assert_eq!(m, decoded);
    }

    #[test]
    fn encoded_size_is_small_like_binary_ifuncs() {
        // Binary ifuncs in the paper are tens of bytes for the TSI kernel —
        // two orders of magnitude smaller than fat-bitcode.  Our machine
        // encoding of a small kernel must stay well under a kilobyte.
        let m = sample_module();
        assert!(m.encode().len() < 512, "got {}", m.encode().len());
    }

    #[test]
    fn truncated_stream_rejected() {
        let bytes = sample_module().encode();
        for cut in [1usize, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(MachModule::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn cycle_costs_reflect_operation_class() {
        let cheap = MachInst::Mov { dst: 0, src: 1 };
        let load = MachInst::Ld {
            ty: ScalarType::U64,
            dst: 0,
            addr: 1,
            offset: 0,
        };
        let div = MachInst::Alu {
            op: BinOp::Div,
            ty: ScalarType::U64,
            dst: 0,
            lhs: 1,
            rhs: 2,
        };
        assert!(cheap.base_cycles() < load.base_cycles());
        assert!(load.base_cycles() < div.base_cycles());

        let lse = MachInst::AtomicRmw {
            op: AtomicOp::FetchAdd,
            ty: ScalarType::U64,
            dst: 0,
            addr: 1,
            src: 2,
            expected: 2,
            lse: true,
        };
        let cas = MachInst::AtomicRmw {
            op: AtomicOp::FetchAdd,
            ty: ScalarType::U64,
            dst: 0,
            addr: 1,
            src: 2,
            expected: 2,
            lse: false,
        };
        assert!(lse.base_cycles() < cas.base_cycles());
    }

    #[test]
    fn function_index_lookup() {
        let m = sample_module();
        assert_eq!(m.function_index("main"), Some(0));
        assert_eq!(m.function_index("missing"), None);
        assert_eq!(m.inst_count(), 7);
    }
}
