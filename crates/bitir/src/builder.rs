//! Ergonomic construction of IR modules.
//!
//! The builder is the reproduction's "C path": where the paper writes an
//! ifunc library in C and compiles it to LLVM bitcode with Clang, here the
//! workloads construct [`crate::ir::Module`]s programmatically through
//! [`ModuleBuilder`] / [`FunctionBuilder`].  The higher-level `tc-chainlang`
//! crate (the Julia analogue) emits the same IR from source text.

use crate::ir::{
    AtomicOp, BinOp, Block, BlockId, ExtSymId, FuncId, Function, Inst, Module, Reg, UnOp,
};
use crate::types::ScalarType;

/// Builds a [`Module`] incrementally.
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Start building a module with the given (ifunc library) name.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            module: Module::new(name),
        }
    }

    /// Declare a shared-library dependency (contents of the `.deps` file).
    pub fn add_dep(&mut self, dep: impl Into<String>) -> &mut Self {
        let dep = dep.into();
        if !self.module.deps.contains(&dep) {
            self.module.deps.push(dep);
        }
        self
    }

    /// Declare (or look up) an external symbol.
    pub fn ext_symbol(&mut self, name: &str) -> ExtSymId {
        self.module.intern_ext_symbol(name)
    }

    /// Start building a function.  The returned [`FunctionBuilder`] borrows
    /// the module builder; call [`FunctionBuilder::finish`] to commit it.
    pub fn function(
        &mut self,
        name: impl Into<String>,
        params: Vec<ScalarType>,
        ret: Option<ScalarType>,
    ) -> FunctionBuilder<'_> {
        FunctionBuilder::new(self, name.into(), params, ret)
    }

    /// Convenience: start building the canonical ifunc entry function
    /// `main(payload_ptr, payload_len, target_ptr) -> i64`.
    pub fn entry_function(&mut self) -> FunctionBuilder<'_> {
        let (params, ret) = crate::ir::entry_signature();
        self.function(Module::ENTRY_NAME, params, ret)
    }

    /// Finish and return the module.
    pub fn build(self) -> Module {
        self.module
    }
}

/// Builds a single [`Function`].
///
/// Registers `r0..r(params-1)` hold the incoming arguments.  New temporaries
/// are allocated with [`FunctionBuilder::new_reg`].  Blocks are created with
/// [`FunctionBuilder::new_block`] and instructions are appended to the
/// *current* block, switched with [`FunctionBuilder::switch_to`].
#[derive(Debug)]
pub struct FunctionBuilder<'m> {
    parent: &'m mut ModuleBuilder,
    name: String,
    params: Vec<ScalarType>,
    ret: Option<ScalarType>,
    blocks: Vec<Block>,
    current: usize,
    next_reg: u32,
}

impl<'m> FunctionBuilder<'m> {
    fn new(
        parent: &'m mut ModuleBuilder,
        name: String,
        params: Vec<ScalarType>,
        ret: Option<ScalarType>,
    ) -> Self {
        let next_reg = params.len() as u32;
        FunctionBuilder {
            parent,
            name,
            params,
            ret,
            blocks: vec![Block::default()],
            current: 0,
            next_reg,
        }
    }

    /// Register holding parameter `i`.
    pub fn param(&self, i: usize) -> Reg {
        assert!(i < self.params.len(), "parameter index out of range");
        Reg(i as u32)
    }

    /// Allocate a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Create a new (empty) basic block and return its id.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Switch the insertion point to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            (block.0 as usize) < self.blocks.len(),
            "switch_to: unknown block {block}"
        );
        self.current = block.0 as usize;
    }

    /// Append a raw instruction to the current block.
    pub fn push(&mut self, inst: Inst) {
        self.blocks[self.current].insts.push(inst);
    }

    /// Declare (or look up) an external symbol on the parent module.
    pub fn ext_symbol(&mut self, name: &str) -> ExtSymId {
        self.parent.ext_symbol(name)
    }

    // ---- constants -------------------------------------------------------

    /// Materialise a signed 64-bit constant.
    pub fn const_i64(&mut self, v: i64) -> Reg {
        self.const_bits(ScalarType::I64, v as u64)
    }

    /// Materialise an unsigned 64-bit constant.
    pub fn const_u64(&mut self, v: u64) -> Reg {
        self.const_bits(ScalarType::U64, v)
    }

    /// Materialise a double-precision constant.
    pub fn const_f64(&mut self, v: f64) -> Reg {
        self.const_bits(ScalarType::F64, v.to_bits())
    }

    /// Materialise a typed constant from a raw bit pattern.
    pub fn const_bits(&mut self, ty: ScalarType, bits: u64) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Const { dst, ty, bits });
        dst
    }

    // ---- arithmetic ------------------------------------------------------

    /// Emit a binary operation and return the destination register.
    pub fn bin(&mut self, op: BinOp, ty: ScalarType, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    /// `lhs - rhs` at i64.
    pub fn sub_i64(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        self.bin(BinOp::Sub, ScalarType::I64, lhs, rhs)
    }

    /// Unsigned `lhs / rhs` at u64.
    pub fn div_u64(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        self.bin(BinOp::Div, ScalarType::U64, lhs, rhs)
    }

    /// Unsigned `lhs % rhs` at u64.
    pub fn rem_u64(&mut self, lhs: Reg, rhs: Reg) -> Reg {
        self.bin(BinOp::Rem, ScalarType::U64, lhs, rhs)
    }

    /// Emit a unary operation and return the destination register.
    pub fn un(&mut self, op: UnOp, ty: ScalarType, src: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Un { op, ty, dst, src });
        dst
    }

    /// Comparison helper returning a 0/1 register.
    pub fn cmp(&mut self, op: BinOp, ty: ScalarType, lhs: Reg, rhs: Reg) -> Reg {
        assert!(op.is_comparison(), "cmp expects a comparison operator");
        self.bin(op, ty, lhs, rhs)
    }

    // ---- memory ----------------------------------------------------------

    /// Load a value of `ty` from `addr + offset`.
    pub fn load(&mut self, ty: ScalarType, addr: Reg, offset: i64) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Load {
            ty,
            dst,
            addr,
            offset,
        });
        dst
    }

    /// Store `src` (of type `ty`) to `addr + offset`.
    pub fn store(&mut self, ty: ScalarType, src: Reg, addr: Reg, offset: i64) {
        self.push(Inst::Store {
            ty,
            src,
            addr,
            offset,
        });
    }

    /// Atomic read-modify-write; returns the register holding the old value.
    pub fn atomic(
        &mut self,
        op: AtomicOp,
        ty: ScalarType,
        addr: Reg,
        src: Reg,
        expected: Reg,
    ) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Atomic {
            op,
            ty,
            dst,
            addr,
            src,
            expected,
        });
        dst
    }

    /// Copy `src` into a fresh register.
    pub fn copy(&mut self, src: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Move { dst, src });
        dst
    }

    /// Copy `src` into an existing register `dst` (for loop-carried values).
    pub fn assign(&mut self, dst: Reg, src: Reg) {
        self.push(Inst::Move { dst, src });
    }

    // ---- calls -----------------------------------------------------------

    /// Call a function in the same module.
    pub fn call(&mut self, func: FuncId, args: Vec<Reg>, returns_value: bool) -> Option<Reg> {
        let dst = if returns_value {
            Some(self.new_reg())
        } else {
            None
        };
        self.push(Inst::Call { dst, func, args });
        dst
    }

    /// Call an external symbol by name (interning it on the module).
    pub fn call_ext(&mut self, symbol: &str, args: Vec<Reg>, returns_value: bool) -> Option<Reg> {
        let sym = self.ext_symbol(symbol);
        let dst = if returns_value {
            Some(self.new_reg())
        } else {
            None
        };
        self.push(Inst::CallExt { dst, sym, args });
        dst
    }

    // ---- control flow ----------------------------------------------------

    /// Unconditional branch to `target`.
    pub fn br(&mut self, target: BlockId) {
        self.push(Inst::Br { target });
    }

    /// Conditional branch.
    pub fn br_if(&mut self, cond: Reg, then_blk: BlockId, else_blk: BlockId) {
        self.push(Inst::BrIf {
            cond,
            then_blk,
            else_blk,
        });
    }

    /// Return a value.
    pub fn ret(&mut self, value: Reg) {
        self.push(Inst::Ret { value: Some(value) });
    }

    /// Return from a void function.
    pub fn ret_void(&mut self) {
        self.push(Inst::Ret { value: None });
    }

    /// Emit a trap terminator.
    pub fn trap(&mut self, code: u32) {
        self.push(Inst::Trap { code });
    }

    /// Commit the function to the parent module and return its id.
    pub fn finish(self) -> FuncId {
        let func = Function {
            name: self.name,
            params: self.params,
            ret: self.ret,
            num_regs: self.next_reg,
            blocks: self.blocks,
        };
        self.parent.module.functions.push(func);
        FuncId((self.parent.module.functions.len() - 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_module;

    /// Build the paper's Target-Side Increment kernel: load a u64 counter at
    /// the target pointer, add the first payload byte, store it back.
    fn build_tsi() -> Module {
        let mut mb = ModuleBuilder::new("tsi");
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let target = f.param(2);
            let delta = f.load(ScalarType::U8, payload, 0);
            let counter = f.load(ScalarType::U64, target, 0);
            let sum = f.bin(BinOp::Add, ScalarType::U64, counter, delta);
            f.store(ScalarType::U64, sum, target, 0);
            let zero = f.const_i64(0);
            f.ret(zero);
            f.finish();
        }
        mb.build()
    }

    #[test]
    fn tsi_module_builds_and_verifies() {
        let m = build_tsi();
        assert_eq!(m.functions.len(), 1);
        assert!(m.entry().is_some());
        assert!(m.is_pure());
        verify_module(&m).expect("TSI module must verify");
    }

    #[test]
    fn branching_function_builds() {
        let mut mb = ModuleBuilder::new("branchy");
        {
            let mut f = mb.function("abs64", vec![ScalarType::I64], Some(ScalarType::I64));
            let x = f.param(0);
            let zero = f.const_i64(0);
            let neg = f.cmp(BinOp::CmpLt, ScalarType::I64, x, zero);
            let then_blk = f.new_block();
            let else_blk = f.new_block();
            f.br_if(neg, then_blk, else_blk);
            f.switch_to(then_blk);
            let negated = f.un(UnOp::Neg, ScalarType::I64, x);
            f.ret(negated);
            f.switch_to(else_blk);
            f.ret(x);
            f.finish();
        }
        let m = mb.build();
        verify_module(&m).expect("branching module must verify");
        assert_eq!(m.functions[0].blocks.len(), 3);
    }

    #[test]
    fn ext_call_interns_symbols_once() {
        let mut mb = ModuleBuilder::new("extcalls");
        {
            let mut f = mb.entry_function();
            let a = f.const_u64(1);
            f.call_ext("tc_node_id", vec![], true);
            f.call_ext("tc_put", vec![a, a, a], true);
            f.call_ext("tc_node_id", vec![], true);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        let m = mb.build();
        assert_eq!(m.ext_symbols.len(), 2);
        assert!(!m.is_pure());
        verify_module(&m).expect("ext-call module must verify");
    }

    #[test]
    fn params_occupy_low_registers() {
        let mut mb = ModuleBuilder::new("params");
        let f = mb.function(
            "three",
            vec![ScalarType::I64, ScalarType::F64, ScalarType::Ptr],
            None,
        );
        assert_eq!(f.param(0), Reg(0));
        assert_eq!(f.param(1), Reg(1));
        assert_eq!(f.param(2), Reg(2));
    }

    #[test]
    #[should_panic(expected = "parameter index out of range")]
    fn out_of_range_param_panics() {
        let mut mb = ModuleBuilder::new("oops");
        let f = mb.function("f", vec![ScalarType::I64], None);
        let _ = f.param(1);
    }

    #[test]
    fn dep_dedup() {
        let mut mb = ModuleBuilder::new("deps");
        mb.add_dep("libomp.so");
        mb.add_dep("libcrypto.so");
        mb.add_dep("libomp.so");
        let m = mb.build();
        assert_eq!(
            m.deps,
            vec!["libomp.so".to_string(), "libcrypto.so".to_string()]
        );
    }
}
