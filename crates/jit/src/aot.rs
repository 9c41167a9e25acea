//! Ahead-of-time compilation: producing and loading *binary* ifunc objects.
//!
//! The paper's original (Two-Chains) representation ships pre-compiled
//! machine code extracted from a shared library, and performs GOT patching on
//! the target (Section III-B).  This module is that path's toolchain and
//! loader:
//!
//! * [`build_object`] lowers and compiles an IR module for one specific
//!   target and packages the machine code into a [`tc_binfmt::ObjectFile`]:
//!   serialised code in `.text`, globals in `.data`, one GOT slot and
//!   relocation per external symbol, and the dependency list;
//! * [`module_from_image`] recovers the executable [`MachModule`] from a
//!   [`tc_binfmt::LoadedImage`] after the target-side loader has resolved the
//!   GOT.
//!
//! Binary objects are small (tens to hundreds of bytes for simple kernels —
//! compare the multi-kilobyte fat-bitcode) but ISA-locked, which is exactly
//! the trade-off the paper's evaluation explores.

use crate::compile::{lower_and_compile, CompileOptions, Compiled};
use crate::error::{JitError, Result};
use crate::machine::MachModule;
use tc_binfmt::{LoadedImage, ObjectFile, RelocKind, Relocation, SectionKind, Symbol, SymbolKind};
use tc_bitir::{Module, TargetTriple};

/// Build a binary ifunc object for a single target.
pub fn build_object(
    module: &Module,
    target: TargetTriple,
    options: CompileOptions,
) -> Result<ObjectFile> {
    let compiled: Compiled = lower_and_compile(module, target, options)?;
    let mach = &compiled.module;

    let mut obj = ObjectFile::new(mach.name.clone(), target.name());
    obj.deps = mach.deps.clone();

    // .text: the serialised machine module followed by one 8-byte GOT
    // reference slot per external symbol (the slots are what relocations
    // patch; the serialised code itself is never modified by the loader).
    obj.text.bytes = mach.encode(&target.name(), &compiled.code);
    for sym in &mach.ext_symbols {
        let slot_offset = obj.text.bytes.len() as u64;
        obj.text.bytes.extend_from_slice(&[0u8; 8]);
        obj.intern_got_symbol(sym);
        obj.relocations.push(Relocation {
            section: SectionKind::Text,
            offset: slot_offset,
            symbol: sym.clone(),
            kind: RelocKind::GotSlot,
            addend: 0,
        });
    }

    // .data: concatenated global initialisers, 8-byte aligned, one symbol each.
    for d in &mach.data {
        let aligned = (obj.data.bytes.len() + 7) & !7;
        obj.data.bytes.resize(aligned, 0);
        obj.symbols.push(Symbol {
            name: d.name.clone(),
            section: SectionKind::Data,
            offset: aligned as u64,
            kind: SymbolKind::Object,
        });
        obj.data.bytes.extend_from_slice(&d.init);
    }

    // Function symbols: the entry (and every other function) nominally lives
    // at offset 0 of .text since the serialised module is one blob; we record
    // distinct offsets inside the blob for diagnostics.
    for (i, f) in mach.functions().iter().enumerate() {
        obj.symbols.push(Symbol {
            name: f.name.clone(),
            section: SectionKind::Text,
            offset: i as u64,
            kind: SymbolKind::Func,
        });
    }
    // A library without an entry is still an object: a caller that needs an
    // ifunc fails at load time with NoEntry.
    Ok(obj)
}

/// Recover the executable machine module from a loaded (GOT-patched) image.
pub fn module_from_image(image: &LoadedImage) -> Result<MachModule> {
    if image.text.is_empty() {
        return Err(JitError::Decode("loaded image has empty .text".into()));
    }
    MachModule::decode(&image.text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, ExternalHost, Memory, MemoryExt, NoExternals, VecMemory};
    use tc_binfmt::{load_object, LoadOptions, MapResolver};
    use tc_bitir::{BinOp, ModuleBuilder, ScalarType};

    fn tsi_module() -> Module {
        let mut mb = ModuleBuilder::new("tsi_bin");
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

    fn ext_module() -> Module {
        let mut mb = ModuleBuilder::new("with_ext");
        {
            let mut f = mb.entry_function();
            let a = f.const_u64(21);
            let r = f.call_ext("tc_double", vec![a], true).unwrap();
            f.ret(r);
            f.finish();
        }
        mb.build()
    }

    #[test]
    fn binary_object_roundtrips_and_executes() {
        let obj = build_object(
            &tsi_module(),
            TargetTriple::THOR_XEON,
            CompileOptions::default(),
        )
        .unwrap();
        // Wire roundtrip, as the frame would carry it.
        let obj = ObjectFile::decode(&obj.encode()).unwrap();
        assert!(obj.is_pure());

        let image = load_object(
            &obj,
            "x86_64-xeon-e5-sim",
            &MapResolver::new(),
            LoadOptions::default(),
        )
        .unwrap();
        assert!(image.pure_fast_path);

        let mach = module_from_image(&image).unwrap();
        let mut mem = VecMemory::new(0, 4096);
        mem.write(0, &[2]).unwrap();
        mem.write_u64(2048, 40).unwrap();
        Engine::new()
            .run(
                &mach,
                "main",
                &[0, 1, 2048],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap();
        assert_eq!(mem.read_u64(2048).unwrap(), 42);
    }

    #[test]
    fn binary_is_much_smaller_than_fat_bitcode() {
        let module = tsi_module();
        let obj =
            build_object(&module, TargetTriple::THOR_XEON, CompileOptions::default()).unwrap();
        let fat =
            tc_bitir::FatBitcode::from_module(&module, &TargetTriple::default_toolchain_targets())
                .unwrap();
        assert!(
            obj.shipped_size() * 4 < fat.encode().len(),
            "binary ({}) should be far smaller than fat bitcode ({})",
            obj.shipped_size(),
            fat.encode().len()
        );
    }

    #[test]
    fn external_symbols_get_got_slots_and_relocations() {
        let obj = build_object(
            &ext_module(),
            TargetTriple::THOR_BF2,
            CompileOptions::default(),
        )
        .unwrap();
        assert!(!obj.is_pure());
        assert_eq!(obj.got_symbols, vec!["tc_double".to_string()]);
        assert_eq!(obj.relocations.len(), 1);
        assert_eq!(obj.relocations[0].kind, RelocKind::GotSlot);

        // Loading with a resolver that knows the symbol succeeds and the
        // recovered machine module still calls through the symbol table.
        let mut resolver = MapResolver::new();
        resolver.insert("tc_double", 0x42);
        let image = load_object(
            &obj,
            "aarch64-cortex-a72-sim",
            &resolver,
            LoadOptions::default(),
        )
        .unwrap();
        let mach = module_from_image(&image).unwrap();

        struct Doubler;
        impl ExternalHost for Doubler {
            fn call_external(
                &mut self,
                symbol: &str,
                args: &[u64],
                _mem: &mut dyn Memory,
            ) -> crate::error::Result<u64> {
                assert_eq!(symbol, "tc_double");
                Ok(args[0] * 2)
            }
        }
        let mut mem = VecMemory::new(0, 64);
        let out = Engine::new()
            .run(&mach, "main", &[0, 0, 0], &[], &mut mem, &mut Doubler)
            .unwrap();
        assert_eq!(out.return_value, 42);
    }

    #[test]
    fn loading_on_wrong_isa_fails() {
        let obj = build_object(
            &tsi_module(),
            TargetTriple::THOR_XEON,
            CompileOptions::default(),
        )
        .unwrap();
        let err = load_object(
            &obj,
            "aarch64-a64fx-sim",
            &MapResolver::new(),
            LoadOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            tc_binfmt::BinfmtError::IncompatibleTarget { .. }
        ));
    }

    #[test]
    fn globals_become_data_symbols() {
        let mut mb = ModuleBuilder::new("gdata");
        {
            let mut f = mb.entry_function();
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        let mut module = mb.build();
        module.globals.push(tc_bitir::Global {
            name: "tbl".into(),
            init: vec![1, 2, 3, 4, 5],
            mutable: false,
        });
        module.globals.push(tc_bitir::Global {
            name: "state".into(),
            init: vec![0; 16],
            mutable: true,
        });
        let obj = build_object(
            &module,
            TargetTriple::OOKAMI_A64FX,
            CompileOptions::default(),
        )
        .unwrap();
        let tbl = obj.symbol("tbl").unwrap();
        let state = obj.symbol("state").unwrap();
        assert_eq!(tbl.section, SectionKind::Data);
        assert_eq!(tbl.offset, 0);
        assert_eq!(state.offset, 8, "second global must be 8-byte aligned");
        assert_eq!(&obj.data.bytes[0..5], &[1, 2, 3, 4, 5]);
    }
}
