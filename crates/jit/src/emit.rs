//! Emission: the pre-decoded form the execution engine runs.
//!
//! [`MachInst`] is the serialised and costed form of machine code.  [`emit`]
//! decides once per module what running it would re-decide per instruction,
//! called from `MachModule::new`, which both the compiler and the `.text`
//! decoder make modules with:
//! * all functions share one flat [`Op`] vector; a branch names an op index;
//! * an operator at a type is a monomorphic handler: 64-bit integer add, sub,
//!   mul and compares, unsigned div and rem, and 8-byte loads and stores are
//!   ops of their own; every other pair, load or store is an instance of
//!   [`eval_bin`], [`eval_un`], `read_scalar` or `write_scalar` with both
//!   fixed, which normalises nothing at 64 bits;
//! * immediates are normalised;
//! * a block's instructions and base cycles are one [`Op::Charge`] at its
//!   start, split behind each local call, vector loop and library call so
//!   that running out of fuel inside one reports exactly what ran before it.
//!
//! A register outside its frame, a branch outside its function or a block
//! not ended by its one terminator is refused here.

use crate::dylib::{HostCall, LoadedLibs};
use crate::engine::{normalize, Fuel, Memory, MemoryExt};
use crate::error::{JitError, Result};
use crate::machine::{Blocks, MReg, MachInst, Signature, VEC_CHUNK_CYCLES};
use std::cmp::Ordering;
use tc_bitir::{AtomicOp, BinOp, ScalarType, UnOp, VecOp};

pub(crate) type BinFn = fn(u64, u64) -> Result<u64>;
pub(crate) type UnFn = fn(u64) -> u64;
pub(crate) type LoadFn = fn(&dyn Memory, u64) -> Result<u64>;
pub(crate) type StoreFn = fn(&mut dyn Memory, u64, u64) -> Result<()>;

/// One pre-decoded operation.  Register operands come destination first:
/// `(dst, lhs, rhs)`, `(dst, src)`, `(dst, addr, offset)` for a load and
/// `(src, addr, offset)` for a store.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Retire the next `.0` instructions at `.1` base cycles, or run out of
    /// fuel among them.
    Charge(u64, u64),
    Imm(MReg, u64),
    Mov(MReg, MReg),
    Add(MReg, MReg, MReg),
    Sub(MReg, MReg, MReg),
    Mul(MReg, MReg, MReg),
    DivU(MReg, MReg, MReg),
    RemU(MReg, MReg, MReg),
    Eq(MReg, MReg, MReg),
    Ne(MReg, MReg, MReg),
    /// `lhs < rhs`; a `>` is emitted with its operands swapped.
    LtU(MReg, MReg, MReg),
    LtS(MReg, MReg, MReg),
    /// `lhs <= rhs`; a `>=` is emitted with its operands swapped.
    LeU(MReg, MReg, MReg),
    LeS(MReg, MReg, MReg),
    Bin(BinFn, MReg, MReg, MReg),
    Un(UnFn, MReg, MReg),
    Ld64(MReg, MReg, i64),
    St64(MReg, MReg, i64),
    Ld(LoadFn, MReg, MReg, i64),
    St(StoreFn, MReg, MReg, i64),
    /// Registers `[dst, addr, src, expected]`.
    Atomic(AtomicOp, ScalarType, [MReg; 4]),
    /// Registers `[dst_addr, a_addr, b_addr, count]`, then the lanes.
    VecLoop(VecOp, ScalarType, [MReg; 4], u32),
    DataAddr(MReg, u32),
    /// `(dst, callee, first argument in Program::args, argument count)`.
    CallLocal(Option<MReg>, u32, u32, u32),
    /// `(dst, symbol, what the symbol names, first argument in
    /// Program::args, argument count)`.
    CallSym(Option<MReg>, u32, HostCall, u32, u32),
    Jmp(u32),
    JmpIf(MReg, u32, u32),
    Ret(Option<MReg>),
    Trap(u32),
}

/// The executable form of a module's functions.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    /// Every function's blocks, one function after another.
    pub(crate) code: Vec<Op>,
    /// Index in `code` of each function's entry, its block 0.
    pub(crate) entries: Vec<u32>,
    /// The argument registers of every call.
    pub(crate) args: Vec<MReg>,
    /// The libraries external calls are answered from before the host:
    /// none until [`crate::orc::OrcJit::link`] loads the module's.
    pub(crate) libs: LoadedLibs,
}

/// Whether `inst` ends its charge segment: a local call, a vector loop or a
/// library call (see the module docs).
fn ends_charge(inst: &MachInst, ext_symbols: &[String]) -> bool {
    let library = |s: &String| matches!(HostCall::of(s), HostCall::Library(..));
    match *inst {
        MachInst::CallLocal { .. } | MachInst::VecLoop { .. } => true,
        MachInst::CallSym { sym_index: i, .. } => ext_symbols.get(i as usize).is_some_and(library),
        _ => false,
    }
}

/// Emit the executable form of the machine code of `functions`, whose
/// external calls name `ext_symbols`.
pub(crate) fn emit(
    functions: &[Signature],
    machine: &[Blocks],
    ext_symbols: &[String],
) -> Result<Program> {
    let most_blocks = machine.iter().map(Vec::len).max().unwrap_or(0);
    let mut entries = Vec::with_capacity(functions.len() + most_blocks);
    let (mut code, mut args) = (Vec::new(), Vec::new());
    for (f, blocks) in functions.iter().zip(machine) {
        // Where each block will start, parked behind the entries while the
        // function is emitted; block 0's stays, as the function's entry.
        let first = entries.len();
        let (mut at, mut nargs) = (code.len(), 0);
        for block in blocks {
            entries.push(at as u32);
            at += 1 + block.len();
            for inst in block {
                if let MachInst::CallLocal { args, .. } | MachInst::CallSym { args, .. } = inst {
                    nargs += args.len();
                }
                at += usize::from(ends_charge(inst, ext_symbols));
            }
        }
        if blocks.is_empty() {
            return Err(malformed(f, "has no blocks".into()));
        }
        // Reserved exactly, so that a one-function module's code and call
        // arguments are one allocation each.
        code.reserve_exact(at - code.len());
        args.reserve_exact(nargs);
        for (b, block) in blocks.iter().enumerate() {
            if block.is_empty() {
                return Err(malformed(f, format!("leaves block {b} empty")));
            }
            let (mut charge, mut insts, mut cycles) = (code.len(), 0, 0);
            code.push(Op::Charge(0, 0));
            for (i, inst) in block.iter().enumerate() {
                insts += 1;
                if inst.is_terminator() != (i + 1 == block.len()) {
                    let what = format!("ends block {b} other than with its one terminator");
                    return Err(malformed(f, what));
                }
                cycles += inst.base_cycles();
                let mut op = lower(inst, f, &entries[first..], &mut args)?;
                // What a call names is resolved here, once; a symbol out of
                // range traps when it is called, as before.
                if let Op::CallSym(_, sym, ref mut call, ..) = op {
                    let name = ext_symbols.get(sym as usize);
                    *call = name.map_or(HostCall::Unresolved, |s| HostCall::of(s));
                }
                code.push(op);
                if ends_charge(inst, ext_symbols) {
                    code[charge] = Op::Charge(insts, cycles);
                    (charge, insts, cycles) = (code.len(), 0, 0);
                    code.push(Op::Charge(0, 0));
                }
            }
            code[charge] = Op::Charge(insts, cycles);
        }
        entries.truncate(first + 1);
    }
    Ok(Program {
        code,
        entries,
        args,
        libs: LoadedLibs::NONE,
    })
}

fn malformed(f: &Signature, what: String) -> JitError {
    JitError::Compile(format!("function `{}` {what}", f.name))
}

/// Lower one instruction of `f`, whose blocks start at `blocks`.
fn lower(inst: &MachInst, f: &Signature, blocks: &[u32], args: &mut Vec<MReg>) -> Result<Op> {
    let (frame, nblocks) = (f.num_regs.max(f.num_params), blocks.len());
    let reg = |r: MReg| match r < frame {
        true => Ok(r),
        false => Err(malformed(f, format!("names register {r} of {frame}"))),
    };
    let to = |b: u32| match blocks.get(b as usize) {
        Some(&at) => Ok(at),
        None => Err(malformed(f, format!("jumps to block {b} of {nblocks}"))),
    };
    let mut call = |list: &[MReg]| -> Result<(u32, u32)> {
        let first = args.len() as u32;
        for &r in list {
            args.push(reg(r)?);
        }
        Ok((first, list.len() as u32))
    };
    let opt = |r: &Option<MReg>| r.map(reg).transpose();
    Ok(match inst {
        MachInst::Imm { dst, ty, bits } => Op::Imm(reg(*dst)?, normalize(*ty, *bits)),
        MachInst::Mov { dst, src } => Op::Mov(reg(*dst)?, reg(*src)?),
        MachInst::Alu {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => alu(*op, *ty, reg(*dst)?, reg(*lhs)?, reg(*rhs)?),
        MachInst::AluUn { op, ty, dst, src } => Op::Un(
            UN[op.tag() as usize][ty.tag() as usize],
            reg(*dst)?,
            reg(*src)?,
        ),
        MachInst::Ld {
            ty,
            dst,
            addr,
            offset,
        } => match ty.size_bytes(8) {
            8 => Op::Ld64(reg(*dst)?, reg(*addr)?, *offset),
            _ => Op::Ld(LOAD[ty.tag() as usize], reg(*dst)?, reg(*addr)?, *offset),
        },
        MachInst::St {
            ty,
            src,
            addr,
            offset,
        } => match ty.size_bytes(8) {
            8 => Op::St64(reg(*src)?, reg(*addr)?, *offset),
            _ => Op::St(STORE[ty.tag() as usize], reg(*src)?, reg(*addr)?, *offset),
        },
        MachInst::AtomicRmw {
            op,
            ty,
            dst,
            addr,
            src,
            expected,
            lse: _,
        } => Op::Atomic(
            *op,
            *ty,
            [reg(*dst)?, reg(*addr)?, reg(*src)?, reg(*expected)?],
        ),
        MachInst::VecLoop {
            op,
            ty,
            dst_addr,
            a_addr,
            b_addr,
            count,
            lanes,
        } => {
            let regs = [reg(*dst_addr)?, reg(*a_addr)?, reg(*b_addr)?, reg(*count)?];
            Op::VecLoop(*op, *ty, regs, *lanes)
        }
        MachInst::DataAddr { dst, data_index } => Op::DataAddr(reg(*dst)?, *data_index),
        MachInst::CallLocal {
            dst,
            func_index,
            args,
        } => {
            let (first, n) = call(args)?;
            Op::CallLocal(opt(dst)?, *func_index, first, n)
        }
        MachInst::CallSym {
            dst,
            sym_index,
            args,
        } => {
            let (first, n) = call(args)?;
            Op::CallSym(opt(dst)?, *sym_index, HostCall::Unresolved, first, n)
        }
        MachInst::Jmp { block } => Op::Jmp(to(*block)?),
        MachInst::JmpIf {
            cond,
            then_block,
            else_block,
        } => Op::JmpIf(reg(*cond)?, to(*then_block)?, to(*else_block)?),
        MachInst::Ret { value } => Op::Ret(opt(value)?),
        MachInst::Trap { code } => Op::Trap(*code),
    })
}

/// `d = l op r` at `ty`: an op of its own for a 64-bit integer add, sub, mul
/// or compare or an unsigned div or rem, the pair's handler for the rest.
fn alu(op: BinOp, ty: ScalarType, d: MReg, l: MReg, r: MReg) -> Op {
    use BinOp as B;
    let signed = match ty {
        ScalarType::I64 => true,
        ScalarType::U64 | ScalarType::Ptr => false,
        _ => return Op::Bin(BIN[op.tag() as usize][ty.tag() as usize], d, l, r),
    };
    match (op, signed) {
        (B::Add, _) => Op::Add(d, l, r),
        (B::Sub, _) => Op::Sub(d, l, r),
        (B::Mul, _) => Op::Mul(d, l, r),
        (B::Div, false) => Op::DivU(d, l, r),
        (B::Rem, false) => Op::RemU(d, l, r),
        (B::CmpEq, _) => Op::Eq(d, l, r),
        (B::CmpNe, _) => Op::Ne(d, l, r),
        (B::CmpLt, false) => Op::LtU(d, l, r),
        (B::CmpLt, true) => Op::LtS(d, l, r),
        (B::CmpGt, false) => Op::LtU(d, r, l),
        (B::CmpGt, true) => Op::LtS(d, r, l),
        (B::CmpLe, false) => Op::LeU(d, l, r),
        (B::CmpLe, true) => Op::LeS(d, l, r),
        (B::CmpGe, false) => Op::LeU(d, r, l),
        (B::CmpGe, true) => Op::LeS(d, r, l),
        _ => Op::Bin(BIN[op.tag() as usize][ty.tag() as usize], d, l, r),
    }
}

// -- handlers: one instance per operator and type, indexed by their tags ----

fn bin<const OP: usize, const TY: usize>(lhs: u64, rhs: u64) -> Result<u64> {
    eval_bin(BinOp::ALL[OP], ScalarType::ALL[TY], lhs, rhs)
}

fn un<const OP: usize, const TY: usize>(src: u64) -> u64 {
    eval_un(UnOp::ALL[OP], ScalarType::ALL[TY], src)
}

fn load<const TY: usize>(mem: &dyn Memory, addr: u64) -> Result<u64> {
    mem.read_scalar(ScalarType::ALL[TY], addr)
}

fn store<const TY: usize>(mem: &mut dyn Memory, addr: u64, bits: u64) -> Result<()> {
    mem.write_scalar(ScalarType::ALL[TY], addr, bits)
}

/// `[f::<op, 0>, …, f::<op, 10>]` (`[f::<0>, …]` without an operator): the
/// instances of `f` for every scalar type, in tag order.
macro_rules! per_type {
    ($f:ident $(, $op:literal)?) => {
        [
            $f::<$($op,)? 0>, $f::<$($op,)? 1>, $f::<$($op,)? 2>, $f::<$($op,)? 3>,
            $f::<$($op,)? 4>, $f::<$($op,)? 5>, $f::<$($op,)? 6>, $f::<$($op,)? 7>,
            $f::<$($op,)? 8>, $f::<$($op,)? 9>, $f::<$($op,)? 10>,
        ]
    };
}

/// One [`per_type`] row for each operator tag.
macro_rules! per_op {
    ($f:ident: $($op:literal)*) => { [$(per_type!($f, $op)),*] };
}

static BIN: [[BinFn; 11]; 20] = per_op!(bin: 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19);
static UN: [[UnFn; 11]; 7] = per_op!(un: 0 1 2 3 4 5 6);
static LOAD: [LoadFn; 11] = per_type!(load);
static STORE: [StoreFn; 11] = per_type!(store);

// -- the semantics the handlers instantiate ---------------------------------

fn to_f64(ty: ScalarType, bits: u64) -> f64 {
    match ty {
        ScalarType::F32 => f64::from(f32::from_bits(bits as u32)),
        _ => f64::from_bits(bits),
    }
}

/// A float result at `ty`.  A NaN is the canonical quiet NaN of its width:
/// which operand's payload a NaN carries is the optimiser's choice, not the
/// program's.
fn from_f64(ty: ScalarType, v: f64) -> u64 {
    match ty {
        ScalarType::F32 if v.is_nan() => u64::from(f32::NAN.to_bits()),
        ScalarType::F32 => u64::from((v as f32).to_bits()),
        _ if v.is_nan() => f64::NAN.to_bits(),
        _ => v.to_bits(),
    }
}

/// `op` at `ty` on two 64-bit slots: floats (a float-only operator, or a
/// compare at a float type) through `f64`, integers on the slots normalised
/// to `ty`, signed where `ty` is.
#[inline(always)]
pub(crate) fn eval_bin(op: BinOp, ty: ScalarType, lhs: u64, rhs: u64) -> Result<u64> {
    if op.is_float_only() || (ty.is_float() && op.is_comparison()) {
        let (a, b) = (to_f64(ty, lhs), to_f64(ty, rhs));
        return Ok(match op {
            BinOp::FAdd => from_f64(ty, a + b),
            BinOp::FSub => from_f64(ty, a - b),
            BinOp::FMul => from_f64(ty, a * b),
            BinOp::FDiv => from_f64(ty, a / b),
            _ => compare(op, a.partial_cmp(&b)),
        });
    }
    let (a, b) = (normalize(ty, lhs), normalize(ty, rhs));
    let (signed, sa, sb) = (ty.is_signed(), a as i64, b as i64);
    let result = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div if signed => sa.wrapping_div(nonzero(b, "division")? as i64) as u64,
        BinOp::Div => a / nonzero(b, "division")?,
        BinOp::Rem if signed => sa.wrapping_rem(nonzero(b, "remainder")? as i64) as u64,
        BinOp::Rem => a % nonzero(b, "remainder")?,
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr if signed => sa.wrapping_shr((b & 63) as u32) as u64,
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        _ if signed => compare(op, Some(sa.cmp(&sb))),
        _ => compare(op, Some(a.cmp(&b))),
    };
    Ok(normalize(ty, result))
}

/// The 0 or 1 of a comparison whose operands compare as `ord` (`None` for
/// unordered floats).
fn compare(op: BinOp, ord: Option<Ordering>) -> u64 {
    use Ordering::{Equal, Greater, Less};
    u64::from(match op {
        BinOp::CmpEq => ord == Some(Equal),
        BinOp::CmpNe => ord != Some(Equal),
        BinOp::CmpLt => ord == Some(Less),
        BinOp::CmpLe => matches!(ord, Some(Less | Equal)),
        BinOp::CmpGt => ord == Some(Greater),
        BinOp::CmpGe => matches!(ord, Some(Greater | Equal)),
        _ => unreachable!("{op:?} is not a comparison"),
    })
}

/// `divisor`, or the trap an integer `what` ("division", "remainder") by
/// zero raises.
pub(crate) fn nonzero(divisor: u64, what: &str) -> Result<u64> {
    match divisor {
        0 => Err(JitError::Trap {
            reason: format!("integer {what} by zero"),
        }),
        d => Ok(d),
    }
}

/// `op` at `ty` on a 64-bit slot; conversions produce `ty`.
#[inline(always)]
pub(crate) fn eval_un(op: UnOp, ty: ScalarType, src: u64) -> u64 {
    match op {
        UnOp::Not => normalize(ty, !src),
        UnOp::Neg => normalize(ty, (src as i64).wrapping_neg() as u64),
        UnOp::FNeg => from_f64(ty, -to_f64(ty, src)),
        UnOp::IntToFloat => from_f64(ty, src as i64 as f64),
        UnOp::FloatToInt => normalize(ty, f64::from_bits(src) as i64 as u64),
        UnOp::IntCast => normalize(ty, src),
        // The source is the other float width: re-encode it at `ty`.
        UnOp::FloatCast if ty == ScalarType::F32 => from_f64(ty, f64::from_bits(src)),
        UnOp::FloatCast => from_f64(ty, f64::from(f32::from_bits(src as u32))),
    }
}

/// Atomic read-modify-write of the `ty` at `addr`; returns the old value.
pub(crate) fn atomic(
    mem: &mut dyn Memory,
    op: AtomicOp,
    ty: ScalarType,
    addr: u64,
    operand: u64,
    expected: u64,
) -> Result<u64> {
    let old = mem.read_scalar(ty, addr)?;
    let new = match op {
        AtomicOp::FetchAdd => eval_bin(BinOp::Add, ty, old, operand)?,
        AtomicOp::Exchange => operand,
        AtomicOp::CompareSwap if old == normalize(ty, expected) => operand,
        AtomicOp::CompareSwap => old,
    };
    mem.write_scalar(ty, addr, new)?;
    Ok(old)
}

/// `dst[i] = a[i] op b[i]` over `count` elements of `ty` at the addresses
/// `[dst, a, b]`, a unit of `fuel` per memory access (three an element, four
/// for `Fma`, as scalar loads and stores would pay), all paid before any is
/// touched.  Returns the loop's dynamic cycles, a chunk per `lanes` elements.
pub(crate) fn vec_loop(
    mem: &mut dyn Memory,
    fuel: &mut Fuel,
    op: VecOp,
    ty: ScalarType,
    [dst, a, b]: [u64; 3],
    count: u64,
    lanes: u32,
) -> Result<u64> {
    let chunks = count.div_ceil(u64::from(lanes.max(1)));
    fuel.burn(count.saturating_mul(3 + u64::from(op == VecOp::Fma)))?;
    let elem = u64::from(ty.size_bytes(8));
    let (add, mul) = match ty.is_float() {
        true => (BinOp::FAdd, BinOp::FMul),
        false => (BinOp::Add, BinOp::Mul),
    };
    // Addresses wrap, as every other access's do.
    for at in (0..count).map(|i| i.wrapping_mul(elem)) {
        let (a, b, dst) = (a.wrapping_add(at), b.wrapping_add(at), dst.wrapping_add(at));
        let (x, y) = (mem.read_scalar(ty, a)?, mem.read_scalar(ty, b)?);
        let v = match op {
            VecOp::Add => eval_bin(add, ty, x, y)?,
            VecOp::Mul => eval_bin(mul, ty, x, y)?,
            VecOp::Fma => {
                let acc = mem.read_scalar(ty, dst)?;
                eval_bin(add, ty, eval_bin(mul, ty, x, y)?, acc)?
            }
        };
        mem.write_scalar(ty, dst, v)?;
    }
    Ok(chunks.saturating_mul(VEC_CHUNK_CYCLES))
}

#[cfg(test)]
mod tests {
    use super::Op;

    /// A call's host-call id rides in its padding: an op is four words, as
    /// it was before calls carried one.
    #[test]
    fn an_op_is_four_words() {
        assert_eq!(std::mem::size_of::<Op>(), 32);
    }
}
