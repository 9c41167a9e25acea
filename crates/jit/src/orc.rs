//! The ORC-like JIT session.
//!
//! [`OrcJit`] mirrors LLVM's ORC-JIT as the paper uses it (Section
//! III-C/III-D).  Received code, in either representation, leaves through
//! one link step, [`OrcJit::link`]: load the shared-library dependencies the
//! module names and materialise its globals into the node's memory.  Bitcode
//! reaches it through [`OrcJit::materialize`] (lower if still portable,
//! compile); a binary object's module through `tc-binfmt`'s loader, run
//! against the same libraries' [`LoadedLibs`] GOT resolver, and
//! [`crate::aot::module_from_image`].  The session keeps no table of what it
//! linked: the paper's "LLVM has to do minimal work since it looks up the
//! ifunc from previous JIT invocations" is the caller's registration table
//! (`tc-core`'s runtime), which never asks for a name twice.

use crate::compile::{compile, CompileOptions, Compiled};
use crate::dylib::LoadedLibs;
use crate::engine::{Engine, ExecOutcome, ExternalHost, Memory};
use crate::error::Result;
use crate::machine::MachModule;
use std::borrow::Cow;
use tc_bitir::{Module, TargetTriple};

/// Base address at which JIT-materialised globals are placed in node memory.
pub const JIT_DATA_BASE: u64 = 0x7000_0000_0000;

/// A linked, materialised module ready for execution.
#[derive(Debug)]
pub struct MaterializedModule {
    /// The machine module, compiled here or recovered from a binary object,
    /// linked against the libraries it loaded.
    pub module: MachModule,
    /// Addresses at which the module's data objects were materialised.
    pub data_addrs: Vec<u64>,
}

impl MaterializedModule {
    /// Execute function number `func_index` of this module on `engine` —
    /// for callers that resolved the index once (see
    /// [`MachModule::function_index`]) and run the function on every
    /// arrival.
    ///
    /// External symbols are resolved against the module's loaded libraries
    /// first, then against `framework_host` (the Three-Chains runtime).
    pub fn execute(
        &self,
        engine: &Engine,
        func_index: u32,
        args: &[u64],
        mem: &mut dyn Memory,
        framework_host: &mut dyn ExternalHost,
    ) -> Result<ExecOutcome> {
        let (module, data) = (&self.module, &self.data_addrs[..]);
        engine.run_index(module, func_index, args, data, mem, framework_host)
    }
}

/// The ORC-like JIT session owned by each process/node runtime.
#[derive(Debug)]
pub struct OrcJit {
    target: TargetTriple,
    data_cursor: u64,
}

impl OrcJit {
    /// Create a JIT session for the given target.
    pub fn new(target: TargetTriple) -> Self {
        OrcJit {
            target,
            data_cursor: JIT_DATA_BASE,
        }
    }

    /// Lower `module` if it is still portable (bitcode shipped from the
    /// toolchain is already lowered), compile it and [`link`](Self::link)
    /// it.  Every call compiles: deciding whether a module needs compiling
    /// at all is the caller's business.  The compiler consumes the module,
    /// and the machine code is dropped once the program is emitted from it.
    pub fn materialize(
        &mut self,
        module: Module,
        mem: &mut dyn Memory,
    ) -> Result<MaterializedModule> {
        let module = if module.triple.is_none() {
            tc_bitir::lower_for_target(&module, self.target)?
        } else {
            module
        };
        let Compiled { module, .. } = compile(Cow::Owned(module), CompileOptions::default())?;
        self.link(module, mem)
    }

    /// The one link step of received code, whatever its representation:
    /// load the libraries `module.deps` names — every one must be loadable
    /// here, or the module is refused with `MissingDependency` — and write
    /// its globals into `mem` behind the previous module's.
    pub fn link(
        &mut self,
        mut module: MachModule,
        mem: &mut dyn Memory,
    ) -> Result<MaterializedModule> {
        module.program.libs = LoadedLibs::load(&module.deps)?;
        let mut data_addrs = Vec::with_capacity(module.data.len());
        for d in &module.data {
            let addr = self.data_cursor;
            mem.write(addr, &d.init)?;
            data_addrs.push(addr);
            let len = (d.init.len() as u64).max(8);
            self.data_cursor += (len + 63) & !63; // 64-byte align the next object
        }
        Ok(MaterializedModule { module, data_addrs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MemoryExt, NoExternals, SparseMemory};
    use crate::error::JitError;
    use tc_bitir::{BinOp, ModuleBuilder, ScalarType};

    fn tsi_module(name: &str) -> Module {
        let mut mb = ModuleBuilder::new(name);
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

    fn module_with_global_and_dep() -> Module {
        let mut mb = ModuleBuilder::new("globals");
        mb.add_dep("libc.so");
        let g = tc_bitir::GlobalId(0);
        {
            let mut f = mb.entry_function();
            let target = f.param(2);
            let lut = f.new_reg();
            f.push(tc_bitir::Inst::GlobalAddr {
                dst: lut,
                global: g,
            });
            let v = f.load(ScalarType::U64, lut, 0);
            f.store(ScalarType::U64, v, target, 0);
            let dst = f.copy(target);
            let src = f.copy(lut);
            let n = f.const_u64(8);
            f.call_ext("memcpy", vec![dst, src, n], true);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        let mut module = mb.build();
        module.globals.push(tc_bitir::Global {
            name: "lut".into(),
            init: vec![10, 0, 0, 0, 0, 0, 0, 0],
            mutable: false,
        });
        module
    }

    /// Run the entry function of `module` with the ifunc calling convention.
    fn run_entry(
        module: &MaterializedModule,
        args: [u64; 3],
        mem: &mut dyn Memory,
    ) -> Result<ExecOutcome> {
        let entry = module.module.function_index(Module::ENTRY_NAME);
        module.execute(&Engine::new(), entry.unwrap(), &args, mem, &mut NoExternals)
    }

    /// A portable module is lowered for the session's target, a lowered one
    /// (what a fat-bitcode slice decodes to) is taken as it is; both run.
    #[test]
    fn the_materialized_entry_runs_the_kernel() {
        let portable = tsi_module("tsi");
        let lowered = tc_bitir::lower_for_target(&portable, TargetTriple::THOR_XEON).unwrap();
        let mut jit = OrcJit::new(TargetTriple::THOR_XEON);
        let mut mem = SparseMemory::new();
        mem.write(0x100, &[7]).unwrap();
        mem.write_u64(0x200, 35).unwrap();
        for module in [portable, lowered] {
            let module = jit.materialize(module, &mut mem).unwrap();
            let out = run_entry(&module, [0x100, 1, 0x200], &mut mem).unwrap();
            assert_eq!(out.return_value, 0);
        }
        assert_eq!(mem.read_u64(0x200).unwrap(), 49);
    }

    #[test]
    fn globals_materialised_and_dylibs_linked() {
        let mut jit = OrcJit::new(TargetTriple::THOR_XEON);
        let mut mem = SparseMemory::new();
        let mat = jit
            .materialize(module_with_global_and_dep(), &mut mem)
            .unwrap();
        let out = run_entry(&mat, [0, 0, 0x500], &mut mem).unwrap();
        assert_eq!(out.return_value, 0);
        assert_eq!(mem.read_u64(0x500).unwrap(), 10);
        // The global itself was materialised at the JIT data base, and the
        // next module's globals go behind it.
        assert_eq!(mat.data_addrs, [JIT_DATA_BASE]);
        let next = jit
            .materialize(module_with_global_and_dep(), &mut mem)
            .unwrap();
        assert_eq!(next.data_addrs, [JIT_DATA_BASE + 64]);
    }

    #[test]
    fn missing_dependency_fails_to_add() {
        let mut mb = ModuleBuilder::new("needs_omp");
        mb.add_dep("libomp.so");
        {
            let mut f = mb.entry_function();
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        let mut jit = OrcJit::new(TargetTriple::THOR_BF2);
        let mut mem = SparseMemory::new();
        let err = jit.materialize(mb.build(), &mut mem).unwrap_err();
        assert_eq!(
            err,
            JitError::MissingDependency {
                library: "libomp.so".into()
            }
        );
    }
}
