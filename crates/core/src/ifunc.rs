//! Ifunc libraries, the toolchain that builds them, registration, and
//! user-facing ifunc messages.
//!
//! The paper's workflow (Figure 1): the developer writes an ifunc library
//! with an entry function, runs it through the Three-Chains toolchain, and
//! registers it by name in the application, getting back a handle used to
//! create and send ifunc messages.  Here the "toolchain" consumes a portable
//! [`tc_bitir::Module`] and produces, depending on the chosen representation:
//!
//! * a **fat-bitcode archive** covering a set of target triples plus the
//!   dependency list (the bitcode path, Section III-C), or
//! * one **binary object** per target triple (the binary path, Section
//!   III-B), of which the sender must pick one matching the destination ISA.

use crate::error::{CoreError, Result};
use crate::frame::{CodeRepr, MessageFrame};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use tc_bitir::{FatBitcode, Module, TargetTriple};
use tc_jit::{build_object, CompileOptions};
use tc_ucx::Bytes;

/// Output of the toolchain for one ifunc library.
#[derive(Debug, Clone)]
pub struct IfuncLibrary {
    /// Library name (the registration key; must equal the module name).
    pub name: String,
    /// The portable source module (kept for local execution and re-targeting).
    pub module: Module,
    /// Fat-bitcode archive (bitcode representation).
    pub fat_bitcode: FatBitcode,
    /// Encoded fat-bitcode bytes (what ships in the frame's code section).
    /// A shared view: every message created from this library references the
    /// same allocation.
    pub fat_bitcode_bytes: Bytes,
    /// Per-target binary objects, keyed by triple name (binary
    /// representation); shared views, like `fat_bitcode_bytes`.
    pub binaries: HashMap<String, Bytes>,
    /// Dependency list (the `.deps` file contents).
    pub deps: Vec<String>,
}

impl IfuncLibrary {
    /// Size of the bitcode code section in bytes.
    pub fn bitcode_size(&self) -> usize {
        self.fat_bitcode_bytes.len()
    }

    /// Binary object bytes for a target triple name.
    pub fn binary_for(&self, triple: &str) -> Result<&Bytes> {
        self.binaries.get(triple).ok_or_else(|| {
            CoreError::Toolchain(format!(
                "no binary object for target `{triple}` in ifunc `{}` (built for: {})",
                self.name,
                self.binaries.keys().cloned().collect::<Vec<_>>().join(", ")
            ))
        })
    }
}

/// Options controlling the toolchain.
#[derive(Debug, Clone)]
pub struct ToolchainOptions {
    /// Target triples to include in the fat-bitcode archive and to build
    /// binary objects for.
    pub targets: Vec<TargetTriple>,
    /// Also build per-target binary objects (disable to model a
    /// bitcode-only deployment).
    pub build_binaries: bool,
}

impl Default for ToolchainOptions {
    fn default() -> Self {
        ToolchainOptions {
            targets: TargetTriple::default_toolchain_targets(),
            build_binaries: true,
        }
    }
}

/// Run the toolchain: verify the module, build the fat-bitcode archive and
/// (optionally) the per-target binary objects.
pub fn build_ifunc_library(module: &Module, options: &ToolchainOptions) -> Result<IfuncLibrary> {
    tc_bitir::verify_module(module)?;
    if module.entry().is_none() {
        return Err(CoreError::Toolchain(format!(
            "ifunc library `{}` has no `{}` entry function",
            module.name,
            Module::ENTRY_NAME
        )));
    }
    // The frame header carries the name length, the dependency count and each
    // dependency's length as u16: what does not fit cannot be framed.
    let oversized = [
        ("name length", module.name.len()),
        ("dependency count", module.deps.len()),
    ]
    .into_iter()
    .chain(
        module
            .deps
            .iter()
            .map(|d| ("dependency name length", d.len())),
    )
    .find(|(_, len)| *len > usize::from(u16::MAX));
    if let Some((what, len)) = oversized {
        return Err(CoreError::Toolchain(format!(
            "ifunc library `{:.64}`: {what} {len} exceeds the frame format's limit of {}",
            module.name,
            u16::MAX
        )));
    }
    let fat = FatBitcode::from_module(module, &options.targets)?;
    let fat_bytes = Bytes::from(fat.encode());

    let mut binaries = HashMap::new();
    if options.build_binaries {
        for &t in &options.targets {
            let obj = build_object(
                module,
                t,
                CompileOptions { verify: false }, // already verified above
            )
            .map_err(|e| CoreError::Toolchain(e.to_string()))?;
            binaries.insert(t.name(), Bytes::from(obj.encode()));
        }
    }

    Ok(IfuncLibrary {
        name: module.name.clone(),
        module: module.clone(),
        fat_bitcode: fat,
        fat_bitcode_bytes: fat_bytes,
        binaries,
        deps: module.deps.clone(),
    })
}

/// Handle returned by registration, used to create messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfuncHandle(pub u32);

/// The per-process registry of ifunc libraries the application has
/// registered (source side) or that have arrived and been auto-registered
/// (target side).
#[derive(Debug, Default)]
pub struct IfuncRegistry {
    by_name: HashMap<String, IfuncHandle>,
    libraries: Vec<Arc<IfuncLibrary>>,
}

impl IfuncRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a library, returning its handle.  Registering the same name
    /// twice returns the existing handle (idempotent, like the paper's
    /// name-keyed registration).
    pub fn register(&mut self, library: IfuncLibrary) -> IfuncHandle {
        if let Some(&h) = self.by_name.get(&library.name) {
            return h;
        }
        let handle = IfuncHandle(self.libraries.len() as u32);
        self.by_name.insert(library.name.clone(), handle);
        self.libraries.push(Arc::new(library));
        handle
    }

    /// Look up a handle by name.
    pub fn handle(&self, name: &str) -> Option<IfuncHandle> {
        self.by_name.get(name).copied()
    }

    /// Fetch a registered library.
    pub fn get(&self, handle: IfuncHandle) -> Result<&Arc<IfuncLibrary>> {
        self.libraries
            .get(handle.0 as usize)
            .ok_or_else(|| CoreError::UnknownIfunc {
                name: format!("#{}", handle.0),
            })
    }

    /// Number of registered libraries.
    pub fn len(&self) -> usize {
        self.libraries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.libraries.is_empty()
    }

    /// Names of registered libraries in handle order.
    pub fn names(&self) -> Vec<&str> {
        self.libraries.iter().map(|l| l.name.as_str()).collect()
    }
}

/// A user-facing ifunc message: a registered library plus a payload, bound to
/// a code representation.  Creating the message materialises the full frame;
/// the caching layer decides per-destination how much of it to transmit.
///
/// The frame is never modified by sending, so both wire encodings are
/// computed at most once ([`IfuncMessage::wire_full`] /
/// [`IfuncMessage::wire_truncated`]) and every send after the first clones a
/// shared [`Bytes`] view — re-sending a message to many destinations copies
/// nothing.
#[derive(Debug, Clone, Default)]
struct WireCache {
    full: OnceLock<Bytes>,
    truncated: OnceLock<Bytes>,
}

/// See [`WireCache`] above for the send-side encoding cache.
#[derive(Debug, Clone)]
pub struct IfuncMessage {
    /// The library handle this message is an instance of.
    pub handle: IfuncHandle,
    /// The frame (header + payload + code), never modified by sending.
    pub frame: MessageFrame,
    wire: WireCache,
}

impl IfuncMessage {
    /// The full wire encoding (header + payload + code), encoded on first
    /// use and shared by every subsequent send.
    pub fn wire_full(&self) -> Bytes {
        self.wire
            .full
            .get_or_init(|| self.frame.encode_full())
            .clone()
    }

    /// The truncated wire encoding (code section elided), encoded on first
    /// use and shared by every subsequent send.
    pub fn wire_truncated(&self) -> Bytes {
        self.wire
            .truncated
            .get_or_init(|| self.frame.encode_truncated())
            .clone()
    }

    /// Create a bitcode-representation message.
    pub fn bitcode(handle: IfuncHandle, library: &IfuncLibrary, payload: Vec<u8>) -> Self {
        IfuncMessage {
            handle,
            frame: MessageFrame::new(
                library.name.clone(),
                CodeRepr::Bitcode,
                payload,
                library.fat_bitcode_bytes.clone(),
                library.deps.clone(),
            ),
            wire: WireCache::default(),
        }
    }

    /// Create a binary-representation message targeted at a specific triple.
    /// Fails when the library was not built for that triple — the
    /// cross-compilation burden the paper describes for binary ifuncs.
    pub fn binary(
        handle: IfuncHandle,
        library: &IfuncLibrary,
        target_triple: &str,
        payload: Vec<u8>,
    ) -> Result<Self> {
        let code = library.binary_for(target_triple)?.clone();
        Ok(IfuncMessage {
            handle,
            wire: WireCache::default(),
            frame: MessageFrame::new(
                library.name.clone(),
                CodeRepr::Binary,
                payload,
                code,
                library.deps.clone(),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_bitir::{BinOp, ModuleBuilder, ScalarType};

    pub(crate) fn tsi_module() -> Module {
        let mut mb = ModuleBuilder::new("tsi");
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

    #[test]
    fn toolchain_builds_bitcode_and_binaries() {
        let lib = build_ifunc_library(&tsi_module(), &ToolchainOptions::default()).unwrap();
        assert_eq!(lib.name, "tsi");
        assert!(lib.bitcode_size() > 2000, "fat bitcode should be KiB-scale");
        assert_eq!(
            lib.binaries.len(),
            TargetTriple::default_toolchain_targets().len()
        );
        let xeon = lib.binary_for("x86_64-xeon-e5-sim").unwrap().len();
        assert!(
            xeon < lib.bitcode_size() / 4,
            "binary must be much smaller than fat bitcode"
        );
        assert!(lib.binary_for("mips-unknown").is_err());
    }

    #[test]
    fn toolchain_rejects_module_without_entry() {
        let mut mb = ModuleBuilder::new("noentry");
        {
            let mut f = mb.function("helper", vec![], None);
            f.ret_void();
            f.finish();
        }
        let err = build_ifunc_library(&mb.build(), &ToolchainOptions::default()).unwrap_err();
        assert!(err.to_string().contains("entry"));
    }

    /// The frame header stores the name length, the dependency count and
    /// each dependency's length in 16 bits; a library that does not fit is
    /// refused by the toolchain instead of encoding a header that lies
    /// about its own layout.
    #[test]
    fn toolchain_rejects_what_the_frame_header_cannot_hold() {
        let limit = usize::from(u16::MAX);
        let mut long_name = tsi_module();
        long_name.name = "n".repeat(70_000);
        let mut long_dep = tsi_module();
        long_dep.deps = vec!["d".repeat(limit + 1)];
        let mut many_deps = tsi_module();
        many_deps.deps = vec!["libc.so".to_string(); limit + 1];
        for (module, what) in [
            (long_name, "name length 70000"),
            (long_dep, "dependency name length 65536"),
            (many_deps, "dependency count 65536"),
        ] {
            let err = build_ifunc_library(&module, &ToolchainOptions::default()).unwrap_err();
            assert!(
                matches!(&err, CoreError::Toolchain(msg) if msg.contains(what)),
                "{what}: {err}"
            );
        }

        // At the limit everything still fits.
        let mut widest = tsi_module();
        widest.name = "n".repeat(limit);
        let lib = build_ifunc_library(&widest, &ToolchainOptions::default()).unwrap();
        let frame = IfuncMessage::bitcode(IfuncHandle(0), &lib, vec![1]).frame;
        let decoded = MessageFrame::decode(&frame.encode_truncated()).unwrap();
        assert_eq!(decoded.ifunc_name.len(), limit);
    }

    #[test]
    fn bitcode_only_toolchain_skips_binaries() {
        let opts = ToolchainOptions {
            build_binaries: false,
            ..Default::default()
        };
        let lib = build_ifunc_library(&tsi_module(), &opts).unwrap();
        assert!(lib.binaries.is_empty());
        assert!(lib.bitcode_size() > 0);
    }

    #[test]
    fn registry_registration_is_idempotent() {
        let lib = build_ifunc_library(&tsi_module(), &ToolchainOptions::default()).unwrap();
        let mut reg = IfuncRegistry::new();
        let h1 = reg.register(lib.clone());
        let h2 = reg.register(lib);
        assert_eq!(h1, h2);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.handle("tsi"), Some(h1));
        assert_eq!(reg.handle("other"), None);
        assert_eq!(reg.names(), vec!["tsi"]);
    }

    #[test]
    fn messages_carry_the_right_code_section() {
        let lib = build_ifunc_library(&tsi_module(), &ToolchainOptions::default()).unwrap();
        let mut reg = IfuncRegistry::new();
        let h = reg.register(lib);
        let lib = reg.get(h).unwrap().clone();

        let bc = IfuncMessage::bitcode(h, &lib, vec![1]);
        assert_eq!(bc.frame.repr, CodeRepr::Bitcode);
        assert_eq!(bc.frame.code.len(), lib.bitcode_size());

        let bin = IfuncMessage::binary(h, &lib, "aarch64-a64fx-sim", vec![1]).unwrap();
        assert_eq!(bin.frame.repr, CodeRepr::Binary);
        // Both code sections are views of the library's bytes, not copies.
        let object = lib.binary_for("aarch64-a64fx-sim").unwrap();
        assert_eq!(bin.frame.code.as_ptr(), object.as_ptr());
        assert_eq!(bin.frame.code.len(), object.len());
        assert_eq!(bc.frame.code.as_ptr(), lib.fat_bitcode_bytes.as_ptr());

        assert!(IfuncMessage::binary(h, &lib, "riscv64-generic-sim", vec![1]).is_err());
    }
}
