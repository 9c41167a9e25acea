//! # tc-jit — the ORC-JIT analogue: compile, link, materialise and execute ifuncs
//!
//! The paper relies on LLVM's ORC-JIT to turn shipped bitcode into runnable
//! machine code on the target process, resolve its shared-library
//! dependencies, and execute it.  This crate provides the reproduction's
//! equivalent pipeline:
//!
//! * [`compile`] — instruction selection and light optimisation from
//!   `tc-bitir` IR to [`machine::MachModule`] machine code, including the
//!   µarch specialisation the paper highlights (SVE/AVX2-width vector loops,
//!   LSE vs CAS-loop atomics);
//! * [`machine`] — the lowered instruction set, its cycle cost model and its
//!   compact serialisation (the contents of a binary ifunc's `.text`);
//! * [`engine`] — the execution engine (interpreter) with memory abstraction,
//!   external host calls, fuel limits and cycle accounting;
//! * [`orc`] — the per-process ORC-like session and its one link step for
//!   received code, bitcode or binary: load the module's simulated
//!   shared-library dependencies and materialise its globals (the caller's
//!   registration table is what caches the result);
//! * the simulated libraries themselves — one static table of host
//!   functions (`libc.so`, `libm.so`); [`LoadedLibs`] is the set one module
//!   loaded, and the GOT resolver its binary object is loaded against;
//! * [`aot`] — the binary-ifunc toolchain: build `tc-binfmt` objects ahead of
//!   time and recover the machine module from a GOT-patched image.
//!
//! The simulator's compile-time and execution-time charges are
//! `tc-simnet`'s `CpuProfile::{jit_time, exec_time}`, fed the bitcode size
//! the runtime compiled and the cycle count the engine retired.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aot;
pub mod compile;
mod dylib;
mod emit;
pub mod engine;
pub mod error;
pub mod machine;
pub mod orc;

pub use aot::{build_object, module_from_image};
pub use compile::{compile_module, lower_and_compile, CompileOptions, CompileStats, Compiled};
pub use dylib::LoadedLibs;
pub use engine::{
    Engine, ExecLimits, ExecOutcome, ExternalHost, Memory, MemoryExt, NoExternals, SparseMemory,
    VecMemory,
};
pub use error::{JitError, Result};
pub use machine::{DataObject, MachFunction, MachInst, MachModule};
pub use orc::{MaterializedModule, OrcJit, JIT_DATA_BASE};
