//! The ORC-like JIT session.
//!
//! [`OrcJit`] is the per-process object that mirrors LLVM's ORC-JIT as the
//! paper uses it (Section III-C/III-D):
//!
//! * it receives *fat-bitcode* archives, extracts the entry matching the
//!   local target triple, verifies and compiles it;
//! * it loads the shared-library dependencies named by the ifunc and resolves
//!   external symbols against them (remote dynamic linking);
//! * it **caches** compiled modules keyed by ifunc name, so re-delivery of an
//!   already-seen ifunc skips compilation entirely — the paper observes that
//!   "LLVM has to do minimal work since it looks up the ifunc from previous
//!   JIT invocations";
//! * it materialises module globals into the node's memory and hands the
//!   execution engine everything it needs to invoke the entry function.

use crate::compile::{compile_module, CompileOptions, Compiled};
use crate::dylib::{DylibHost, DylibRegistry, LoadedDylibs};
use crate::engine::{Engine, ExecOutcome, ExternalHost, Memory};
use crate::error::{JitError, Result};
use std::collections::HashMap;
use std::sync::Arc;
use tc_bitir::{decode_module, FatBitcode, Module, TargetTriple};

/// Base address at which JIT-materialised globals are placed in node memory.
pub const JIT_DATA_BASE: u64 = 0x7000_0000_0000;

/// A compiled, linked, materialised module ready for execution.
#[derive(Debug, Clone)]
pub struct MaterializedModule {
    /// Compilation artefacts (machine code + stats).
    pub compiled: Compiled,
    /// Dependencies loaded for this module.
    pub deps: LoadedDylibs,
    /// Addresses at which the module's data objects were materialised.
    pub data_addrs: Vec<u64>,
    /// Size in bytes of the bitcode this module was compiled from (0 when it
    /// was added as in-memory IR).
    pub bitcode_size: usize,
}

impl MaterializedModule {
    /// Execute function number `func_index` of this module on `engine` —
    /// for callers that resolved the index once (see
    /// [`crate::machine::MachModule::function_index`]) and run the function
    /// on every arrival.
    ///
    /// External symbols are resolved against the module's loaded dylibs
    /// first, then against `framework_host` (the Three-Chains runtime).
    pub fn execute(
        &self,
        engine: &Engine,
        func_index: u32,
        args: &[u64],
        mem: &mut dyn Memory,
        framework_host: &mut dyn ExternalHost,
    ) -> Result<ExecOutcome> {
        let mut host = DylibHost::with_fallback(&self.deps, framework_host);
        engine.run_index(
            &self.compiled.module,
            func_index,
            args,
            &self.data_addrs,
            mem,
            &mut host,
        )
    }
}

/// Counters describing the JIT session's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Number of modules actually compiled.
    pub compilations: u64,
    /// Number of times an already-compiled module was reused.
    pub cache_hits: u64,
    /// Total bitcode bytes compiled.
    pub bitcode_bytes_compiled: u64,
    /// Number of modules explicitly removed (ifunc de-registration).
    pub removals: u64,
}

/// The ORC-like JIT session owned by each process/node runtime.
pub struct OrcJit {
    target: TargetTriple,
    registry: DylibRegistry,
    cache: HashMap<String, Arc<MaterializedModule>>,
    data_cursor: u64,
    stats: JitStats,
    engine: Engine,
}

impl std::fmt::Debug for OrcJit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrcJit")
            .field("target", &self.target)
            .field("cached_modules", &self.cache.keys().collect::<Vec<_>>())
            .field("stats", &self.stats)
            .finish()
    }
}

impl OrcJit {
    /// Create a JIT session for the given target with the standard library
    /// registry.
    pub fn new(target: TargetTriple) -> Self {
        Self::with_registry(target, DylibRegistry::with_standard_libs())
    }

    /// Create a JIT session with an explicit dylib registry.
    pub fn with_registry(target: TargetTriple, registry: DylibRegistry) -> Self {
        OrcJit {
            target,
            registry,
            cache: HashMap::new(),
            data_cursor: JIT_DATA_BASE,
            stats: JitStats::default(),
            engine: Engine::new(),
        }
    }

    /// The target triple this session compiles for.
    pub fn target(&self) -> TargetTriple {
        self.target
    }

    /// Session statistics.
    pub fn stats(&self) -> JitStats {
        self.stats
    }

    /// Mutable access to the dylib registry (to register extra libraries).
    pub fn registry_mut(&mut self) -> &mut DylibRegistry {
        &mut self.registry
    }

    /// True when a module named `name` is already compiled and cached.
    pub fn contains(&self, name: &str) -> bool {
        self.cache.contains_key(name)
    }

    /// Names of all cached modules.
    pub fn cached_modules(&self) -> Vec<&str> {
        self.cache.keys().map(String::as_str).collect()
    }

    /// Fetch a cached module.
    pub fn get(&self, name: &str) -> Option<Arc<MaterializedModule>> {
        self.cache.get(name).cloned()
    }

    /// Remove a module from the cache (ifunc de-registration).  Returns true
    /// when something was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let removed = self.cache.remove(name).is_some();
        if removed {
            self.stats.removals += 1;
        }
        removed
    }

    /// Add an ifunc from a fat-bitcode archive: select the bitcode matching
    /// this session's target, decode, compile, link dependencies and
    /// materialise globals into `mem`.
    ///
    /// If a module with the same name is already cached, the cached module is
    /// returned and no compilation happens (cache hit).
    pub fn add_fat_bitcode(
        &mut self,
        fat: &FatBitcode,
        mem: &mut dyn Memory,
    ) -> Result<Arc<MaterializedModule>> {
        if let Some(cached) = self.cache.get(&fat.name) {
            self.stats.cache_hits += 1;
            return Ok(cached.clone());
        }
        let entry = fat.select(self.target)?;
        let bitcode_size = entry.bitcode.len();
        let mut module = decode_module(&entry.bitcode)?;
        // The archive-level deps list is authoritative (it is what ships in
        // the DEPS field); merge it into the module's own list.
        for d in &fat.deps {
            if !module.deps.contains(d) {
                module.deps.push(d.clone());
            }
        }
        self.add_module_internal(module, bitcode_size, mem)
    }

    /// Add an ifunc from raw (single-target) bitcode bytes.
    pub fn add_bitcode(
        &mut self,
        bitcode: &[u8],
        mem: &mut dyn Memory,
    ) -> Result<Arc<MaterializedModule>> {
        let module = decode_module(bitcode)?;
        if let Some(cached) = self.cache.get(&module.name) {
            self.stats.cache_hits += 1;
            return Ok(cached.clone());
        }
        self.add_module_internal(module, bitcode.len(), mem)
    }

    /// Add an ifunc directly from in-memory IR (used by same-process
    /// execution paths and tests).
    pub fn add_module(
        &mut self,
        module: Module,
        mem: &mut dyn Memory,
    ) -> Result<Arc<MaterializedModule>> {
        if let Some(cached) = self.cache.get(&module.name) {
            self.stats.cache_hits += 1;
            return Ok(cached.clone());
        }
        self.add_module_internal(module, 0, mem)
    }

    fn add_module_internal(
        &mut self,
        module: Module,
        bitcode_size: usize,
        mem: &mut dyn Memory,
    ) -> Result<Arc<MaterializedModule>> {
        // Lower if still portable (bitcode shipped from the toolchain is
        // already lowered; IR added in-process may not be).
        let module = if module.triple.is_none() {
            tc_bitir::lower_for_target(&module, self.target)?
        } else {
            module
        };

        // Remote dynamic linking: every dependency must be loadable here.
        let deps = self.registry.load(&module.deps)?;

        let compiled = compile_module(&module, CompileOptions::default())?;

        // Materialise globals into node memory.
        let mut data_addrs = Vec::with_capacity(compiled.module.data.len());
        for d in &compiled.module.data {
            let addr = self.data_cursor;
            mem.write(addr, &d.init)?;
            data_addrs.push(addr);
            let len = (d.init.len() as u64).max(8);
            self.data_cursor += (len + 63) & !63; // 64-byte align the next object
        }

        self.stats.compilations += 1;
        self.stats.bitcode_bytes_compiled += bitcode_size as u64;

        let mat = Arc::new(MaterializedModule {
            compiled,
            deps,
            data_addrs,
            bitcode_size,
        });
        self.cache
            .insert(mat.compiled.module.name.clone(), mat.clone());
        Ok(mat)
    }

    /// Execute a function of a cached module, both looked up by name:
    /// [`MaterializedModule::execute`] for tests and tools that hold no
    /// resolved entry point.
    pub fn execute(
        &self,
        name: &str,
        func: &str,
        args: &[u64],
        mem: &mut dyn Memory,
        framework_host: &mut dyn ExternalHost,
    ) -> Result<ExecOutcome> {
        let unknown = |name: String| JitError::UnknownFunction { name };
        let mat = self
            .cache
            .get(name)
            .ok_or_else(|| unknown(format!("{name}::{func}")))?;
        let func_index = mat
            .compiled
            .module
            .function_index(func)
            .ok_or_else(|| unknown(func.to_string()))?;
        mat.execute(&self.engine, func_index, args, mem, framework_host)
    }

    /// Execute the ifunc entry function (`main(payload_ptr, payload_len,
    /// target_ptr)`) of a cached module.
    pub fn execute_entry(
        &self,
        name: &str,
        payload_ptr: u64,
        payload_len: u64,
        target_ptr: u64,
        mem: &mut dyn Memory,
        framework_host: &mut dyn ExternalHost,
    ) -> Result<ExecOutcome> {
        self.execute(
            name,
            Module::ENTRY_NAME,
            &[payload_ptr, payload_len, target_ptr],
            mem,
            framework_host,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MemoryExt, NoExternals, SparseMemory, VecMemory};
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
        let g = mb.add_global("lut", vec![10, 0, 0, 0, 0, 0, 0, 0], false);
        {
            let mut f = mb.entry_function();
            let target = f.param(2);
            let lut = f.global_addr(g);
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
        mb.build()
    }

    #[test]
    fn fat_bitcode_compiles_once_and_caches() {
        let fat = FatBitcode::from_module_default_targets(&tsi_module("tsi")).unwrap();
        let mut jit = OrcJit::new(TargetTriple::OOKAMI_A64FX);
        let mut mem = SparseMemory::new();

        let first = jit.add_fat_bitcode(&fat, &mut mem).unwrap();
        assert_eq!(jit.stats().compilations, 1);
        assert_eq!(jit.stats().cache_hits, 0);
        assert!(first.bitcode_size > 0);

        let second = jit.add_fat_bitcode(&fat, &mut mem).unwrap();
        assert_eq!(jit.stats().compilations, 1, "second add must not recompile");
        assert_eq!(jit.stats().cache_hits, 1);
        assert!(Arc::ptr_eq(&first, &second));
    }

    /// Archive width is a wire cost, not a JIT cost: intake decodes and
    /// compiles the host's slice of a five-target archive and nothing else.
    #[test]
    fn fat_bitcode_intake_takes_only_the_hosts_slice() {
        let fat = FatBitcode::from_module_default_targets(&tsi_module("tsi")).unwrap();
        assert_eq!(fat.entries.len(), 5);
        let mut jit = OrcJit::new(TargetTriple::THOR_XEON);
        let module = jit.add_fat_bitcode(&fat, &mut SparseMemory::new()).unwrap();
        let slice = fat.select(TargetTriple::THOR_XEON).unwrap();
        assert_eq!(slice.triple, TargetTriple::THOR_XEON);
        assert_eq!(module.bitcode_size, slice.bitcode.len());
        assert_eq!(jit.stats().compilations, 1);
    }

    #[test]
    fn execute_entry_runs_the_kernel() {
        let fat = FatBitcode::from_module_default_targets(&tsi_module("tsi")).unwrap();
        let mut jit = OrcJit::new(TargetTriple::THOR_XEON);
        let mut mem = SparseMemory::new();
        jit.add_fat_bitcode(&fat, &mut mem).unwrap();

        mem.write(0x100, &[7]).unwrap();
        mem.write_u64(0x200, 35).unwrap();
        let out = jit
            .execute_entry("tsi", 0x100, 1, 0x200, &mut mem, &mut NoExternals)
            .unwrap();
        assert_eq!(out.return_value, 0);
        assert_eq!(mem.read_u64(0x200).unwrap(), 42);
    }

    #[test]
    fn globals_materialised_and_dylibs_linked() {
        let mut jit = OrcJit::new(TargetTriple::THOR_XEON);
        let mut mem = SparseMemory::new();
        jit.add_module(module_with_global_and_dep(), &mut mem)
            .unwrap();
        let out = jit
            .execute_entry("globals", 0, 0, 0x500, &mut mem, &mut NoExternals)
            .unwrap();
        assert_eq!(out.return_value, 0);
        assert_eq!(mem.read_u64(0x500).unwrap(), 10);
        // The global itself was materialised at the JIT data base.
        let mat = jit.get("globals").unwrap();
        assert_eq!(mat.data_addrs.len(), 1);
        assert!(mat.data_addrs[0] >= JIT_DATA_BASE);
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
        let err = jit.add_module(mb.build(), &mut mem).unwrap_err();
        assert_eq!(
            err,
            JitError::MissingDependency {
                library: "libomp.so".into()
            }
        );
        assert!(!jit.contains("needs_omp"));
    }

    #[test]
    fn missing_target_in_archive_is_reported() {
        let fat = FatBitcode::from_module(&tsi_module("tsi"), &[TargetTriple::THOR_XEON]).unwrap();
        let mut jit = OrcJit::new(TargetTriple::OOKAMI_A64FX);
        let mut mem = SparseMemory::new();
        let err = jit.add_fat_bitcode(&fat, &mut mem).unwrap_err();
        assert!(err.to_string().contains("no entry for target"));
    }

    #[test]
    fn remove_deregisters_and_allows_recompilation() {
        let fat = FatBitcode::from_module_default_targets(&tsi_module("tsi")).unwrap();
        let mut jit = OrcJit::new(TargetTriple::THOR_BF2);
        let mut mem = SparseMemory::new();
        jit.add_fat_bitcode(&fat, &mut mem).unwrap();
        assert!(jit.contains("tsi"));
        assert!(jit.remove("tsi"));
        assert!(!jit.contains("tsi"));
        assert!(!jit.remove("tsi"));
        jit.add_fat_bitcode(&fat, &mut mem).unwrap();
        assert_eq!(jit.stats().compilations, 2);
        assert_eq!(jit.stats().removals, 1);
    }

    #[test]
    fn different_ifuncs_cached_independently() {
        let mut jit = OrcJit::new(TargetTriple::THOR_XEON);
        let mut mem = SparseMemory::new();
        jit.add_module(tsi_module("a"), &mut mem).unwrap();
        jit.add_module(tsi_module("b"), &mut mem).unwrap();
        assert_eq!(jit.stats().compilations, 2);
        let mut names = jit.cached_modules();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn executing_unknown_module_fails() {
        let jit = OrcJit::new(TargetTriple::THOR_XEON);
        let mut mem = VecMemory::new(0, 64);
        let err = jit
            .execute_entry("ghost", 0, 0, 0, &mut mem, &mut NoExternals)
            .unwrap_err();
        assert!(matches!(err, JitError::UnknownFunction { .. }));
    }
}
