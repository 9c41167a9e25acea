//! The portable intermediate representation.
//!
//! The IR is a typed, register-based, basic-block structured program
//! representation — close enough in spirit to LLVM IR that every concept the
//! paper relies on (per-target lowering, JIT compilation, external symbol
//! resolution, recursive framework calls) has a direct analogue, while being
//! small enough to interpret efficiently.
//!
//! An *ifunc library* is a [`Module`] whose entry function has the signature
//! `main(payload_ptr: ptr, payload_len: u64, target_ptr: ptr) -> i64`,
//! mirroring the entry point the Three-Chains runtime invokes on the target
//! process.

use crate::types::{AtomicsExt, ScalarType, TargetTriple, VectorExt};
use std::fmt;

/// A virtual register within a function.  Registers are untyped 64-bit slots;
/// instruction operands give them meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Index of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Index of a function within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u32);

/// Index of a global within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalId(pub u32);

/// Index into the module's external symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtSymId(pub u32);

/// Binary operations.  Integer ops operate on the 64-bit slot truncated to
/// the operand type's width; float ops reinterpret the slot as f32/f64 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping integer addition.
    Add,
    /// Wrapping integer subtraction.
    Sub,
    /// Wrapping integer multiplication.
    Mul,
    /// Integer division (signedness from the operand type); division by zero
    /// traps.
    Div,
    /// Integer remainder; remainder by zero traps.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Shift right (arithmetic for signed types, logical otherwise).
    Shr,
    /// Floating point addition.
    FAdd,
    /// Floating point subtraction.
    FSub,
    /// Floating point multiplication.
    FMul,
    /// Floating point division.
    FDiv,
    /// Equality comparison, result 0/1.
    CmpEq,
    /// Inequality comparison, result 0/1.
    CmpNe,
    /// Less-than (signedness/floatness from operand type), result 0/1.
    CmpLt,
    /// Less-or-equal, result 0/1.
    CmpLe,
    /// Greater-than, result 0/1.
    CmpGt,
    /// Greater-or-equal, result 0/1.
    CmpGe,
}

impl BinOp {
    /// All binary operators (property testing helper).
    pub const ALL: [BinOp; 20] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::FAdd,
        BinOp::FSub,
        BinOp::FMul,
        BinOp::FDiv,
        BinOp::CmpEq,
        BinOp::CmpNe,
        BinOp::CmpLt,
        BinOp::CmpLe,
        BinOp::CmpGt,
        BinOp::CmpGe,
    ];

    /// Stable numeric tag used by the bitcode encoder: the index in [`Self::ALL`].
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`BinOp::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(tag as usize).copied()
    }

    /// True if this operator requires floating point operands.
    pub fn is_float_only(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// True if this operator produces a 0/1 comparison result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::CmpEq | BinOp::CmpNe | BinOp::CmpLt | BinOp::CmpLe | BinOp::CmpGt | BinOp::CmpGe
        )
    }
}

/// Unary operations (including conversions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise not.
    Not,
    /// Integer negation (wrapping).
    Neg,
    /// Floating point negation.
    FNeg,
    /// Integer → float conversion.
    IntToFloat,
    /// Float → integer conversion (truncating; saturates at type bounds).
    FloatToInt,
    /// Integer width/sign conversion into the destination type.
    IntCast,
    /// f32 ↔ f64 conversion into the destination type.
    FloatCast,
}

impl UnOp {
    /// All unary operators.
    pub const ALL: [UnOp; 7] = [
        UnOp::Not,
        UnOp::Neg,
        UnOp::FNeg,
        UnOp::IntToFloat,
        UnOp::FloatToInt,
        UnOp::IntCast,
        UnOp::FloatCast,
    ];

    /// Stable numeric tag used by the bitcode encoder: the index in [`Self::ALL`].
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`UnOp::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(tag as usize).copied()
    }
}

/// Atomic read-modify-write operations.  How these lower (LSE-style single
/// instruction vs. CAS loop) is a per-target decision recorded during
/// lowering, mirroring the paper's observation that ORC-JIT emitted Arm LSE
/// atomics on A64FX from bitcode produced on a Xeon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// Atomic fetch-add; destination receives the previous value.
    FetchAdd,
    /// Atomic exchange; destination receives the previous value.
    Exchange,
    /// Atomic compare-and-swap; destination receives the previous value.
    CompareSwap,
}

impl AtomicOp {
    /// All atomic operators.
    pub const ALL: [AtomicOp; 3] = [
        AtomicOp::FetchAdd,
        AtomicOp::Exchange,
        AtomicOp::CompareSwap,
    ];

    /// Stable numeric tag used by the bitcode encoder: the index in [`Self::ALL`].
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`AtomicOp::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(tag as usize).copied()
    }
}

/// Element-wise vector operations over memory regions.  These are the
/// instructions whose lowering benefits from the target's SIMD width
/// (SVE on A64FX, AVX2 on Xeon, NEON on the DPU cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecOp {
    /// `dst[i] = a[i] + b[i]`
    Add,
    /// `dst[i] = a[i] * b[i]`
    Mul,
    /// `dst[i] = a[i] * b[i] + dst[i]` (fused multiply-add accumulation)
    Fma,
}

impl VecOp {
    /// All vector operators.
    pub const ALL: [VecOp; 3] = [VecOp::Add, VecOp::Mul, VecOp::Fma];

    /// Stable numeric tag used by the bitcode encoder: the index in [`Self::ALL`].
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`VecOp::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(tag as usize).copied()
    }
}

/// A single IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Materialise a constant bit pattern of the given type into `dst`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Value type (controls how later ops interpret the bits).
        ty: ScalarType,
        /// Raw 64-bit pattern (floats stored via `to_bits`).
        bits: u64,
    },
    /// Copy one register into another.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Binary operation `dst = lhs op rhs` interpreted at type `ty`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Operand/result type.
        ty: ScalarType,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Unary operation `dst = op src`, converting into type `ty`.
    Un {
        /// Operator.
        op: UnOp,
        /// Destination type (also source type for non-conversions).
        ty: ScalarType,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Reg,
    },
    /// Load a scalar of type `ty` from `addr + offset`.
    Load {
        /// Value type.
        ty: ScalarType,
        /// Destination register.
        dst: Reg,
        /// Base address register.
        addr: Reg,
        /// Constant byte offset added to the base address.
        offset: i64,
    },
    /// Store a scalar of type `ty` to `addr + offset`.
    Store {
        /// Value type.
        ty: ScalarType,
        /// Value to store.
        src: Reg,
        /// Base address register.
        addr: Reg,
        /// Constant byte offset added to the base address.
        offset: i64,
    },
    /// Atomic read-modify-write on `addr`; `dst` receives the old value.
    Atomic {
        /// Operation.
        op: AtomicOp,
        /// Value type (integer types only).
        ty: ScalarType,
        /// Destination register (previous memory value).
        dst: Reg,
        /// Address register.
        addr: Reg,
        /// Operand value (added/stored/compared-with depending on `op`).
        src: Reg,
        /// Expected value for [`AtomicOp::CompareSwap`]; ignored otherwise.
        expected: Reg,
    },
    /// Element-wise vector operation over `count` elements of type `ty`.
    Vec {
        /// Operation.
        op: VecOp,
        /// Element type.
        ty: ScalarType,
        /// Destination array base address.
        dst_addr: Reg,
        /// First source array base address.
        a_addr: Reg,
        /// Second source array base address.
        b_addr: Reg,
        /// Number of elements (register so lengths can be dynamic).
        count: Reg,
    },
    /// Load the address of a global into `dst`.
    GlobalAddr {
        /// Destination register.
        dst: Reg,
        /// Which global.
        global: GlobalId,
    },
    /// Direct call of another function in the same module.
    Call {
        /// Register receiving the return value (if the callee returns one).
        dst: Option<Reg>,
        /// Callee.
        func: FuncId,
        /// Argument registers (copied into the callee's first registers).
        args: Vec<Reg>,
    },
    /// Call of an external symbol, resolved at (remote) link/JIT time.
    ///
    /// This is how ifuncs reach framework services (`tc_send_ifunc`,
    /// `tc_put`, `tc_return_result`, …) and simulated shared-library
    /// dependencies — the analogue of an LLVM IR `call` to a declared-only
    /// function that ORC-JIT resolves against loaded dylibs.
    CallExt {
        /// Register receiving the return value.
        dst: Option<Reg>,
        /// Index into the module's external symbol table.
        sym: ExtSymId,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// Unconditional branch.
    Br {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch: non-zero `cond` goes to `then_blk`.
    BrIf {
        /// Condition register (non-zero = taken).
        cond: Reg,
        /// Target when the condition is non-zero.
        then_blk: BlockId,
        /// Target when the condition is zero.
        else_blk: BlockId,
    },
    /// Return from the function.
    Ret {
        /// Returned register, if the function returns a value.
        value: Option<Reg>,
    },
    /// Explicit trap/abort (used by the verifier-required default paths).
    Trap {
        /// Diagnostic code surfaced in the execution error.
        code: u32,
    },
}

impl Inst {
    /// True if this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Br { .. } | Inst::BrIf { .. } | Inst::Ret { .. } | Inst::Trap { .. }
        )
    }

    /// Destination register written by this instruction, if any.
    pub fn def_reg(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Move { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Atomic { dst, .. }
            | Inst::GlobalAddr { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } | Inst::CallExt { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Registers read by this instruction, in operand order: up to four
    /// fixed operands, or a call's argument list, borrowed.  Verifying a
    /// module walks these for every instruction, so nothing is allocated.
    pub fn use_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        let (fixed, n, list): ([Reg; 4], usize, &[Reg]) = match *self {
            Inst::Const { dst, .. } | Inst::GlobalAddr { dst, .. } => ([dst; 4], 0, &[]),
            Inst::Br { .. } | Inst::Trap { .. } | Inst::Ret { value: None } => {
                ([Reg(0); 4], 0, &[])
            }
            Inst::Move { src, .. }
            | Inst::Un { src, .. }
            | Inst::Load { addr: src, .. }
            | Inst::BrIf { cond: src, .. }
            | Inst::Ret { value: Some(src) } => ([src; 4], 1, &[]),
            Inst::Bin { lhs, rhs, .. } => ([lhs, rhs, rhs, rhs], 2, &[]),
            Inst::Store { src, addr, .. } => ([src, addr, addr, addr], 2, &[]),
            Inst::Atomic {
                addr,
                src,
                expected,
                ..
            } => ([addr, src, expected, expected], 3, &[]),
            Inst::Vec {
                dst_addr,
                a_addr,
                b_addr,
                count,
                ..
            } => ([dst_addr, a_addr, b_addr, count], 4, &[]),
            Inst::Call { ref args, .. } | Inst::CallExt { ref args, .. } => ([Reg(0); 4], 0, args),
        };
        fixed.into_iter().take(n).chain(list.iter().copied())
    }
}

/// A basic block: a straight-line sequence of instructions ending in a
/// terminator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Instructions in program order; the last one must be a terminator.
    pub insts: Vec<Inst>,
}

impl Block {
    /// The block's terminator, if the block is non-empty and well formed.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.is_terminator())
    }
}

/// A function: parameters arrive in registers `r0..rN`, the body is a list of
/// basic blocks and execution starts at block 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbol name (unique within the module).
    pub name: String,
    /// Parameter types; parameter `i` arrives in register `Reg(i)`.
    pub params: Vec<ScalarType>,
    /// Return type (`None` = void).
    pub ret: Option<ScalarType>,
    /// Number of virtual registers used (must cover all parameters).
    pub num_regs: u32,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Total number of instructions across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A global data object shipped with the module (the analogue of `.data`).
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Initial bytes.
    pub init: Vec<u8>,
    /// Whether the ifunc may write to it.
    pub mutable: bool,
}

/// Per-target lowering metadata attached to a module by
/// [`crate::lower::lower_for_target`].  A portable module has `None` here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerInfo {
    /// Vector extension the lowered code was specialised for.
    pub vector: VectorExt,
    /// Atomics flavour selected for atomic RMW instructions.
    pub atomics: AtomicsExt,
    /// Pointer width in bytes.
    pub ptr_bytes: u8,
}

/// A module: the unit that gets encoded to bitcode and shipped inside an
/// ifunc message.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module (ifunc library) name, e.g. `"tsi"` or `"dapc_chaser"`.
    pub name: String,
    /// Target triple the module has been lowered for; `None` while portable.
    pub triple: Option<TargetTriple>,
    /// Lowering metadata, populated together with `triple`.
    pub lower_info: Option<LowerInfo>,
    /// Functions; the ifunc entry point must be named [`Module::ENTRY_NAME`].
    pub functions: Vec<Function>,
    /// Global data objects.
    pub globals: Vec<Global>,
    /// External symbols referenced by [`Inst::CallExt`].
    pub ext_symbols: Vec<String>,
    /// Shared-library dependencies that must be loaded before execution
    /// (the contents of the paper's `foo.deps` file).
    pub deps: Vec<String>,
}

impl Module {
    /// Name of the ifunc entry function.
    pub const ENTRY_NAME: &'static str = "main";

    /// Create an empty portable module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            triple: None,
            lower_info: None,
            functions: Vec::new(),
            globals: Vec::new(),
            ext_symbols: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// Find a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<(FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// The ifunc entry function, if present.
    pub fn entry(&self) -> Option<(FuncId, &Function)> {
        self.function_by_name(Self::ENTRY_NAME)
    }

    /// Look up or insert an external symbol, returning its id.
    pub fn intern_ext_symbol(&mut self, name: &str) -> ExtSymId {
        if let Some(pos) = self.ext_symbols.iter().position(|s| s == name) {
            ExtSymId(pos as u32)
        } else {
            self.ext_symbols.push(name.to_string());
            ExtSymId((self.ext_symbols.len() - 1) as u32)
        }
    }

    /// Total number of instructions in the module (used by the JIT
    /// compile-cost model and the caching-size accounting).
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(Function::inst_count).sum()
    }

    /// True when the module references no external symbols and needs no
    /// dependencies — the analogue of a "pure" ifunc in the paper, which can
    /// skip GOT patching entirely.
    pub fn is_pure(&self) -> bool {
        self.ext_symbols.is_empty() && self.deps.is_empty()
    }
}

/// The expected signature of the ifunc entry function:
/// `(payload_ptr: Ptr, payload_len: U64, target_ptr: Ptr) -> I64`.
pub fn entry_signature() -> (Vec<ScalarType>, Option<ScalarType>) {
    (
        vec![ScalarType::Ptr, ScalarType::U64, ScalarType::Ptr],
        Some(ScalarType::I64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Module {
        /// Name of an interned external symbol.
        fn ext_symbol_name(&self, id: ExtSymId) -> Option<&str> {
            self.ext_symbols.get(id.0 as usize).map(String::as_str)
        }
    }

    #[test]
    fn binop_tag_roundtrip() {
        for op in BinOp::ALL {
            assert_eq!(BinOp::from_tag(op.tag()), Some(op));
        }
        assert_eq!(BinOp::from_tag(250), None);
    }

    #[test]
    fn unop_atomic_vec_tag_roundtrip() {
        for op in UnOp::ALL {
            assert_eq!(UnOp::from_tag(op.tag()), Some(op));
        }
        for op in AtomicOp::ALL {
            assert_eq!(AtomicOp::from_tag(op.tag()), Some(op));
        }
        for op in VecOp::ALL {
            assert_eq!(VecOp::from_tag(op.tag()), Some(op));
        }
    }

    /// A tag is the operator's index in `ALL` both ways, for all four
    /// operator enums (the encoders write `tag()`, the decoders read `ALL`).
    #[test]
    fn every_tag_is_its_index_in_all() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(
            all: &[T],
            tag: fn(T) -> u8,
            from_tag: fn(u8) -> Option<T>,
        ) {
            for (i, &op) in all.iter().enumerate() {
                assert_eq!(tag(op), i as u8, "{op:?}");
                assert_eq!(from_tag(i as u8), Some(op));
            }
            assert_eq!(from_tag(all.len() as u8), None);
        }
        check(&BinOp::ALL, BinOp::tag, BinOp::from_tag);
        check(&UnOp::ALL, UnOp::tag, UnOp::from_tag);
        check(&AtomicOp::ALL, AtomicOp::tag, AtomicOp::from_tag);
        check(&VecOp::ALL, VecOp::tag, VecOp::from_tag);
    }

    #[test]
    fn terminator_classification() {
        assert!(Inst::Ret { value: None }.is_terminator());
        assert!(Inst::Br { target: BlockId(0) }.is_terminator());
        assert!(Inst::Trap { code: 1 }.is_terminator());
        assert!(!Inst::Move {
            dst: Reg(0),
            src: Reg(1)
        }
        .is_terminator());
    }

    #[test]
    fn def_and_use_regs() {
        let inst = Inst::Bin {
            op: BinOp::Add,
            ty: ScalarType::I64,
            dst: Reg(2),
            lhs: Reg(0),
            rhs: Reg(1),
        };
        assert_eq!(inst.def_reg(), Some(Reg(2)));
        assert_eq!(inst.use_regs().collect::<Vec<_>>(), vec![Reg(0), Reg(1)]);

        let store = Inst::Store {
            ty: ScalarType::U8,
            src: Reg(3),
            addr: Reg(4),
            offset: 16,
        };
        assert_eq!(store.def_reg(), None);
        assert_eq!(store.use_regs().collect::<Vec<_>>(), vec![Reg(3), Reg(4)]);
    }

    #[test]
    fn module_symbol_interning_dedups() {
        let mut m = Module::new("test");
        let a = m.intern_ext_symbol("tc_put");
        let b = m.intern_ext_symbol("tc_send_ifunc");
        let a2 = m.intern_ext_symbol("tc_put");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(m.ext_symbol_name(a), Some("tc_put"));
        assert_eq!(m.ext_symbols.len(), 2);
    }

    #[test]
    fn pure_module_detection() {
        let mut m = Module::new("pure");
        assert!(m.is_pure());
        m.intern_ext_symbol("memcpy");
        assert!(!m.is_pure());

        let mut m2 = Module::new("deps_only");
        m2.deps.push("libomp.so".into());
        assert!(!m2.is_pure());
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::CmpEq.is_comparison());
        assert!(BinOp::CmpGe.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::FAdd.is_float_only());
        assert!(!BinOp::CmpLt.is_float_only());
    }
}
