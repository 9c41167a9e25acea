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

use crate::emit::{emit, Program};
use crate::error::{JitError, Result};
use tc_bitir::bitcode::{Field, Reader};
use tc_bitir::{fields, AtomicOp, BinOp, ScalarType, UnOp, VecOp};

/// A machine register index (virtual; the interpreter keeps a flat frame).
pub type MReg = u32;

/// Cycles of one chunk of a [`MachInst::VecLoop`]: one chunk per `lanes`
/// elements.
pub(crate) const VEC_CHUNK_CYCLES: u64 = 2;

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
            MachInst::VecLoop { .. } => VEC_CHUNK_CYCLES, // and again per chunk run
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

/// What the engine reads of a compiled function: its name and its frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Function name.
    pub name: String,
    /// Number of parameters (arrive in registers 0..n).
    pub num_params: u32,
    /// Whether the function returns a value.
    pub has_ret: bool,
    /// Number of virtual registers used.
    pub num_regs: u32,
}

/// A function's machine code: its basic blocks, block 0 first.  The
/// compiler's output and [`crate::emit`]'s input; a module keeps only what
/// is emitted from it.
pub type Blocks = Vec<Vec<MachInst>>;

/// A data object carried alongside the code: a module global as it was
/// lowered, kept by the compiled module and written to `.text` alike.
pub type DataObject = tc_bitir::Global;

/// A fully compiled module: what the runtime's registration table keeps and
/// the execution engine runs.  It holds the program emitted from the
/// functions' machine code, not the code itself.
#[derive(Debug, Clone)]
pub struct MachModule {
    /// Module (ifunc library) name.
    pub name: String,
    /// The functions' signatures, in index order; read through
    /// [`MachModule::functions`].
    functions: Vec<Signature>,
    /// External symbols referenced by [`MachInst::CallSym`], in index order.
    pub ext_symbols: Vec<String>,
    /// Data objects referenced by [`MachInst::DataAddr`], in index order.
    pub data: Vec<DataObject>,
    /// Shared-library dependencies that must be loadable before execution.
    pub deps: Vec<String>,
    /// The executable form of the functions (see [`crate::emit`]).
    pub(crate) program: Program,
}

/// Modules are equal when all but their programs are: a program is emitted
/// from the functions.
impl PartialEq for MachModule {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.functions == other.functions
            && self.ext_symbols == other.ext_symbols
            && self.data == other.data
            && self.deps == other.deps
    }
}

impl MachModule {
    /// Make a module from the machine code of `functions`: the one
    /// constructor, so the compiler's modules and the `.text` decoder's are
    /// emitted alike.  Fails on code the engine could not run (see
    /// [`crate::emit`]).
    pub(crate) fn new(
        name: String,
        functions: Vec<Signature>,
        code: &[Blocks],
        ext_symbols: Vec<String>,
        data: Vec<DataObject>,
        deps: Vec<String>,
    ) -> Result<Self> {
        let program = emit(&functions, code, &ext_symbols)?;
        Ok(MachModule {
            name,
            functions,
            ext_symbols,
            data,
            deps,
            program,
        })
    }

    /// The compiled functions' signatures, in index order.
    pub fn functions(&self) -> &[Signature] {
        &self.functions
    }

    /// Find a function index by name.
    pub fn function_index(&self, name: &str) -> Option<u32> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }

    // -- serialization (the contents of a binary ifunc's .text) -------------

    /// Serialise the module, compiled for `triple` from `code` (see
    /// [`crate::Compiled`]), to the compact byte stream a binary ifunc's
    /// `.text` carries: its tables, then each function's signature and blocks.
    pub fn encode(&self, triple: &str, code: &[Blocks]) -> Vec<u8> {
        let mut w = Vec::new();
        self.name.put(&mut w);
        triple.to_string().put(&mut w);
        self.ext_symbols.put(&mut w);
        self.deps.put(&mut w);
        self.data.put(&mut w);
        // A `Vec<TextFunction>`: the count, then each row.
        (self.functions.len() as u64).put(&mut w);
        for (f, blocks) in self.functions.iter().zip(code) {
            f.put(&mut w);
            blocks.put(&mut w);
        }
        w
    }

    /// Deserialise a module from a `.text` byte stream: its machine code is
    /// emitted and dropped, and its triple, which the loader has checked
    /// against the host's, is not kept.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let r = &mut Reader::new(bytes);
        let get = |r: &mut Reader<'_>| {
            let (name, _triple, ext_symbols, deps, data, functions): (String, String, _, _, _, _) = (
                Field::get(r)?,
                Field::get(r)?,
                Field::get(r)?,
                Field::get(r)?,
                Field::get(r)?,
                Field::get(r)?,
            );
            Some((name, ext_symbols, deps, data, functions))
        };
        let (name, ext_symbols, deps, data, functions): (_, _, _, _, Vec<TextFunction>) = get(r)
            .ok_or_else(|| JitError::Decode(format!("malformed .text at offset {}", r.offset())))?;
        let (functions, code): (_, Vec<Blocks>) = functions.into_iter().map(|f| (f.0, f.1)).unzip();
        MachModule::new(name, functions, &code, ext_symbols, data, deps)
    }
}

// The `.text` tables: bitcode's scalars and globals (`tc_bitir::bitcode`),
// with registers, indices, lane counts and trap codes as `u32` varints.
fields!(Signature {
    name,
    num_params,
    has_ret,
    num_regs
});

/// A function as `.text` carries it: its signature, then its blocks.
struct TextFunction(Signature, Blocks);
fields!(TextFunction { 0, 1 });
fields!(MachInst:
    1 => Imm { dst, ty, bits },
    2 => Mov { dst, src },
    3 => Alu { op, ty, dst, lhs, rhs },
    4 => AluUn { op, ty, dst, src },
    5 => Ld { ty, dst, addr, offset },
    6 => St { ty, src, addr, offset },
    7 => AtomicRmw { op, ty, dst, addr, src, expected, lse },
    8 => VecLoop { op, ty, dst_addr, a_addr, b_addr, count, lanes },
    9 => DataAddr { dst, data_index },
    10 => CallLocal { dst, func_index, args },
    11 => CallSym { dst, sym_index, args },
    12 => Jmp { block },
    13 => JmpIf { cond, then_block, else_block },
    14 => Ret { value },
    15 => Trap { code },
);

#[cfg(test)]
mod tests {
    use super::*;

    const TRIPLE: &str = "x86_64-xeon-e5-sim";

    /// A one-function module's machine code, with its signature.
    fn sample_code() -> (Vec<Signature>, Vec<Blocks>) {
        let main = Signature {
            name: "main".into(),
            num_params: 3,
            has_ret: true,
            num_regs: 8,
        };
        let blocks = vec![
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
        ];
        (vec![main], vec![blocks])
    }

    /// The module made of `code`, and its `.text`.
    fn sample_module(code: (Vec<Signature>, Vec<Blocks>)) -> Result<(MachModule, Vec<u8>)> {
        let (functions, code) = code;
        let m = MachModule::new(
            "m".into(),
            functions,
            &code,
            vec!["tc_return_result".into()],
            vec![DataObject {
                name: "lut".into(),
                init: vec![9, 8, 7],
                mutable: false,
            }],
            vec!["libc.so".into()],
        )?;
        let text = m.encode(TRIPLE, &code);
        Ok((m, text))
    }

    /// What a `.text` decodes to is the module it was encoded from, less
    /// the machine code it was emitted from.
    #[test]
    fn encode_decode_roundtrip() {
        let (m, bytes) = sample_module(sample_code()).unwrap();
        let decoded = MachModule::decode(&bytes).unwrap();
        assert_eq!(m, decoded);
        assert_eq!(decoded.encode(TRIPLE, &sample_code().1), bytes);
    }

    #[test]
    fn encoded_size_is_small_like_binary_ifuncs() {
        // Binary ifuncs in the paper are tens of bytes for the TSI kernel —
        // two orders of magnitude smaller than fat-bitcode.  Our machine
        // encoding of a small kernel must stay well under a kilobyte.
        let (_, text) = sample_module(sample_code()).unwrap();
        assert!(text.len() < 512, "got {}", text.len());
    }

    #[test]
    fn truncated_stream_rejected() {
        let (_, bytes) = sample_module(sample_code()).unwrap();
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
        let (m, _) = sample_module(sample_code()).unwrap();
        assert_eq!(m.function_index("main"), Some(0));
        assert_eq!(m.function_index("missing"), None);
    }

    /// Code the engine could not run — a register outside the frame, a
    /// branch outside the function, a block not ended by its one terminator,
    /// a function without blocks — is refused when its `.text` is decoded,
    /// with a typed error and no panic.
    #[test]
    fn malformed_code_is_refused_when_the_module_is_made() {
        let ret = MachInst::Ret { value: None };
        let cases: [(&str, Vec<Vec<MachInst>>); 6] = [
            (
                "register",
                vec![vec![MachInst::Mov { dst: 8, src: 0 }, ret.clone()]],
            ),
            ("block", vec![vec![MachInst::Jmp { block: 1 }]]),
            (
                "no terminator",
                vec![vec![MachInst::Mov { dst: 1, src: 0 }]],
            ),
            ("early terminator", vec![vec![ret.clone(), ret.clone()]]),
            ("empty block", vec![vec![ret.clone()], vec![]]),
            ("no blocks", vec![]),
        ];
        for (what, blocks) in cases {
            let code = vec![blocks];
            let err = sample_module((sample_code().0, code.clone())).unwrap_err();
            assert!(matches!(err, JitError::Compile(_)), "{what}: {err:?}");
            // The same code in a `.text` is refused when it is decoded.
            let (good, _) = sample_module(sample_code()).unwrap();
            let err = MachModule::decode(&good.encode(TRIPLE, &code)).unwrap_err();
            assert!(matches!(err, JitError::Compile(_)), "{what}: {err:?}");
        }
    }
}
