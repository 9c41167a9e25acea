//! # tc-jit — the ORC-JIT analogue: compile, link, cache and execute ifuncs
//!
//! The paper relies on LLVM's ORC-JIT to turn shipped bitcode into runnable
//! machine code on the target process, resolve its shared-library
//! dependencies, cache the result, and execute it.  This crate provides the
//! reproduction's equivalent pipeline:
//!
//! * [`compile`] — instruction selection and light optimisation from
//!   `tc-bitir` IR to [`machine::MachModule`] machine code, including the
//!   µarch specialisation the paper highlights (SVE/AVX2-width vector loops,
//!   LSE vs CAS-loop atomics);
//! * [`machine`] — the lowered instruction set, its cycle cost model and its
//!   compact serialisation (the contents of a binary ifunc's `.text`);
//! * [`engine`] — the execution engine (interpreter) with memory abstraction,
//!   external host calls, fuel limits and cycle accounting;
//! * [`dylib`] — simulated shared libraries and the dependency registry used
//!   for remote dynamic linking;
//! * [`orc`] — the per-process ORC-like session: fat-bitcode intake,
//!   compilation caching, global materialisation, execution;
//! * [`aot`] — the binary-ifunc path: build `tc-binfmt` objects ahead of time
//!   and reload them from GOT-patched images;
//! * [`cost`] — compile-time and execution-time models used by the
//!   discrete-event simulation to charge virtual time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aot;
pub mod compile;
pub mod cost;
pub mod dylib;
pub mod engine;
pub mod error;
pub mod machine;
pub mod orc;

pub use aot::{build_object, module_from_image};
pub use compile::{compile_module, lower_and_compile, CompileOptions, CompileStats, Compiled};
pub use cost::{CompileCostModel, ExecCostModel};
pub use dylib::{
    standard_libc, standard_libcounters, standard_libm, Dylib, DylibHost, DylibRegistry, HostFn,
    LoadedDylibs,
};
pub use engine::{
    Engine, ExecLimits, ExecOutcome, ExternalHost, Memory, MemoryExt, NoExternals, SparseMemory,
    VecMemory,
};
pub use error::{JitError, Result};
pub use machine::{DataObject, MachFunction, MachInst, MachModule};
pub use orc::{JitStats, MaterializedModule, OrcJit, JIT_DATA_BASE};
