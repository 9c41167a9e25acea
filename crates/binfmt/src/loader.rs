//! Loading binary objects: GOT construction, relocation patching, and the
//! "pure ifunc" fast path.
//!
//! This models the target-side half of the paper's binary ifunc pipeline
//! (Section III-B): when a binary ifunc message arrives, the runtime copies
//! the code into an executable side buffer, reconstructs the Global Offset
//! Table by resolving every external symbol through the local process, and
//! patches the code's GOT references so calls land on the right addresses.
//! If the ifunc is *pure* (no external symbols), patching is skipped and the
//! code is executed directly.

use crate::error::{BinfmtError, Result};
use crate::object::{ObjectFile, RelocKind, SectionKind, SymbolKind};
use std::collections::HashMap;

/// Resolves external symbol names to addresses in the loading process.
///
/// In the real system this is `ld.so` plus the set of shared libraries the
/// ifunc's `.deps` file names; in the reproduction the `tc-jit` dylib
/// registry and the `tc-core` runtime implement it.
pub trait SymbolResolver {
    /// Resolve `symbol` to an address, or `None` when it is unknown.
    fn resolve(&self, symbol: &str) -> Option<u64>;
}

/// A resolver backed by a simple name → address map (useful for tests and
/// for composing resolvers).
#[derive(Debug, Default, Clone)]
pub struct MapResolver {
    map: HashMap<String, u64>,
}

impl MapResolver {
    /// Empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a symbol.
    pub fn insert(&mut self, name: impl Into<String>, addr: u64) -> &mut Self {
        self.map.insert(name.into(), addr);
        self
    }

    /// Number of known symbols.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no symbols are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl SymbolResolver for MapResolver {
    fn resolve(&self, symbol: &str) -> Option<u64> {
        self.map.get(symbol).copied()
    }
}

/// A resolver that tries several resolvers in order.
pub struct ChainResolver<'a> {
    resolvers: Vec<&'a dyn SymbolResolver>,
}

impl<'a> ChainResolver<'a> {
    /// Build a chain from the given resolvers (earlier wins).
    pub fn new(resolvers: Vec<&'a dyn SymbolResolver>) -> Self {
        ChainResolver { resolvers }
    }
}

impl SymbolResolver for ChainResolver<'_> {
    fn resolve(&self, symbol: &str) -> Option<u64> {
        self.resolvers.iter().find_map(|r| r.resolve(symbol))
    }
}

/// Base address at which the text section of a loaded image is assumed to
/// reside.  Addresses are symbolic in the simulation; distinct bases keep the
/// section address spaces disjoint so mistakes are detectable.
pub const TEXT_BASE: u64 = 0x0100_0000_0000;
/// Base address for the data section of a loaded image.
pub const DATA_BASE: u64 = 0x0200_0000_0000;
/// Base address for the read-only data section of a loaded image.
pub const RODATA_BASE: u64 = 0x0300_0000_0000;

/// The result of loading an object: patched section images, the constructed
/// GOT, and the entry point — the in-memory executable the runtime invokes.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedImage {
    /// Ifunc library name.
    pub name: String,
    /// Triple the image was built for.
    pub triple: String,
    /// Patched text bytes.
    pub text: Vec<u8>,
    /// Patched (writable) data bytes.
    pub data: Vec<u8>,
    /// Read-only data bytes.
    pub rodata: Vec<u8>,
    /// The Global Offset Table: `got[i]` is the resolved address of
    /// `object.got_symbols[i]`.
    pub got: Vec<u64>,
    /// GOT symbol names, parallel to `got` (useful for diagnostics and the
    /// execution engine's reverse lookups).
    pub got_symbols: Vec<String>,
    /// Offset of the entry function within `text`.
    pub entry_offset: u64,
    /// Whether the pure-ifunc fast path was taken (no GOT patching).
    pub pure_fast_path: bool,
}

/// Options controlling the loader.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Triple of the loading process; loading an object built for a different
    /// triple string fails with [`BinfmtError::IncompatibleTarget`].  Binary
    /// compatibility policy (exact string match vs. ISA prefix match) is the
    /// caller's concern; the loader compares what it is given.
    pub strict_triple_check: bool,
    /// Name of the entry symbol (defaults to `"main"`).
    pub entry_symbol: &'static str,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            strict_triple_check: true,
            entry_symbol: "main",
        }
    }
}

/// Load an object into an executable image, resolving external symbols
/// through `resolver` and applying all relocations.
///
/// `host_triple` is the triple string of the loading process.  When
/// `options.strict_triple_check` is set and the object's ISA prefix (the part
/// up to the first `-`) differs from the host's, loading fails — this is the
/// exact failure mode that forces the paper's users to cross-compile binary
/// ifuncs per ISA.
pub fn load_object(
    object: &ObjectFile,
    host_triple: &str,
    resolver: &dyn SymbolResolver,
    options: LoadOptions,
) -> Result<LoadedImage> {
    if options.strict_triple_check {
        let obj_isa = object.triple.split('-').next().unwrap_or("");
        let host_isa = host_triple.split('-').next().unwrap_or("");
        if obj_isa != host_isa {
            return Err(BinfmtError::IncompatibleTarget {
                object_triple: object.triple.clone(),
                host_triple: host_triple.to_string(),
            });
        }
    }

    let entry = object
        .symbols
        .iter()
        .find(|s| s.name == options.entry_symbol && s.kind == SymbolKind::Func)
        .ok_or(BinfmtError::NoEntry)?;

    let mut image = LoadedImage {
        name: object.name.clone(),
        triple: object.triple.clone(),
        text: object.text.bytes.clone(),
        data: object.data.bytes.clone(),
        rodata: object.rodata.bytes.clone(),
        got: Vec::new(),
        got_symbols: object.got_symbols.clone(),
        entry_offset: entry.offset,
        pure_fast_path: object.is_pure(),
    };

    if image.pure_fast_path {
        // Pure ifunc: no external references, no GOT, straight to execution.
        return Ok(image);
    }

    // Build the GOT: resolve every external symbol the object references.
    image.got.reserve(object.got_symbols.len());
    for sym in &object.got_symbols {
        let addr = resolver
            .resolve(sym)
            .ok_or_else(|| BinfmtError::UndefinedSymbol {
                symbol: sym.clone(),
            })?;
        image.got.push(addr);
    }

    // Apply relocations.
    for reloc in &object.relocations {
        let value: u64 = match reloc.kind {
            RelocKind::GotSlot => {
                let slot = object
                    .got_symbols
                    .iter()
                    .position(|s| *s == reloc.symbol)
                    .ok_or_else(|| {
                        BinfmtError::BadRelocation(format!(
                            "GOT relocation for `{}` but the symbol has no GOT slot",
                            reloc.symbol
                        ))
                    })?;
                (slot as u64).wrapping_add(reloc.addend as u64)
            }
            RelocKind::Abs64 => {
                // Local symbols resolve to their section base + offset;
                // otherwise fall back to the external resolver.
                let addr = if let Some(sym) = object.symbol(&reloc.symbol) {
                    section_base(sym.section) + sym.offset
                } else {
                    resolver
                        .resolve(&reloc.symbol)
                        .ok_or_else(|| BinfmtError::UndefinedSymbol {
                            symbol: reloc.symbol.clone(),
                        })?
                };
                addr.wrapping_add(reloc.addend as u64)
            }
        };
        patch_u64(&mut image, reloc.section, reloc.offset, value)?;
    }

    Ok(image)
}

/// Symbolic base address of a section in a loaded image.
pub fn section_base(kind: SectionKind) -> u64 {
    match kind {
        SectionKind::Text => TEXT_BASE,
        SectionKind::Data => DATA_BASE,
        SectionKind::RoData => RODATA_BASE,
    }
}

fn patch_u64(image: &mut LoadedImage, section: SectionKind, offset: u64, value: u64) -> Result<()> {
    let bytes = match section {
        SectionKind::Text => &mut image.text,
        SectionKind::Data => &mut image.data,
        SectionKind::RoData => &mut image.rodata,
    };
    let start = offset as usize;
    let end = start.checked_add(8).ok_or_else(|| {
        BinfmtError::BadRelocation(format!("relocation offset {offset} overflows"))
    })?;
    if end > bytes.len() {
        return Err(BinfmtError::BadRelocation(format!(
            "relocation at {}+{offset} extends past section end ({} bytes)",
            section.name(),
            bytes.len()
        )));
    }
    bytes[start..end].copy_from_slice(&value.to_le_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Relocation, Symbol};

    fn object_with_got() -> ObjectFile {
        let mut obj = ObjectFile::new("needs_linking", "x86_64-xeon-e5-sim");
        obj.text.bytes = vec![0u8; 64];
        obj.data.bytes = vec![0u8; 32];
        obj.symbols.push(Symbol {
            name: "main".into(),
            section: SectionKind::Text,
            offset: 0,
            kind: SymbolKind::Func,
        });
        obj.symbols.push(Symbol {
            name: "local_table".into(),
            section: SectionKind::Data,
            offset: 16,
            kind: SymbolKind::Object,
        });
        obj.intern_got_symbol("tc_put");
        obj.intern_got_symbol("memcpy");
        obj.relocations.push(Relocation {
            section: SectionKind::Text,
            offset: 8,
            symbol: "tc_put".into(),
            kind: RelocKind::GotSlot,
            addend: 0,
        });
        obj.relocations.push(Relocation {
            section: SectionKind::Text,
            offset: 24,
            symbol: "memcpy".into(),
            kind: RelocKind::GotSlot,
            addend: 0,
        });
        obj.relocations.push(Relocation {
            section: SectionKind::Text,
            offset: 40,
            symbol: "local_table".into(),
            kind: RelocKind::Abs64,
            addend: 4,
        });
        obj.deps.push("libc.so".into());
        obj
    }

    fn resolver() -> MapResolver {
        let mut r = MapResolver::new();
        r.insert("tc_put", 0xdead_0001);
        r.insert("memcpy", 0xdead_0002);
        r
    }

    #[test]
    fn load_resolves_got_and_applies_relocations() {
        let obj = object_with_got();
        let image = load_object(
            &obj,
            "x86_64-xeon-e5-sim",
            &resolver(),
            LoadOptions::default(),
        )
        .unwrap();
        assert!(!image.pure_fast_path);
        assert_eq!(image.got, vec![0xdead_0001, 0xdead_0002]);
        assert_eq!(image.got_symbols, ["tc_put", "memcpy"]);

        // GOT-slot relocations wrote the slot indices.
        assert_eq!(u64::from_le_bytes(image.text[8..16].try_into().unwrap()), 0);
        assert_eq!(
            u64::from_le_bytes(image.text[24..32].try_into().unwrap()),
            1
        );
        // Abs64 relocation wrote DATA_BASE + 16 + 4.
        assert_eq!(
            u64::from_le_bytes(image.text[40..48].try_into().unwrap()),
            DATA_BASE + 20
        );
    }

    #[test]
    fn undefined_symbol_fails_linking() {
        let obj = object_with_got();
        let mut partial = MapResolver::new();
        partial.insert("tc_put", 1);
        let err =
            load_object(&obj, "x86_64-xeon-e5-sim", &partial, LoadOptions::default()).unwrap_err();
        assert_eq!(
            err,
            BinfmtError::UndefinedSymbol {
                symbol: "memcpy".into()
            }
        );
    }

    #[test]
    fn wrong_isa_rejected() {
        let obj = object_with_got();
        let err = load_object(
            &obj,
            "aarch64-cortex-a72-sim",
            &resolver(),
            LoadOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, BinfmtError::IncompatibleTarget { .. }));
    }

    #[test]
    fn same_isa_different_march_accepted() {
        let obj = object_with_got();
        // Generic x86_64 host can load a Xeon-tuned object: same ISA.
        let image = load_object(
            &obj,
            "x86_64-generic-sim",
            &resolver(),
            LoadOptions::default(),
        );
        assert!(image.is_ok());
    }

    #[test]
    fn pure_object_skips_got() {
        let mut obj = ObjectFile::new("pure", "aarch64-a64fx-sim");
        obj.text.bytes = vec![0u8; 16];
        obj.symbols.push(Symbol {
            name: "main".into(),
            section: SectionKind::Text,
            offset: 0,
            kind: SymbolKind::Func,
        });
        let empty = MapResolver::new();
        let image = load_object(&obj, "aarch64-a64fx-sim", &empty, LoadOptions::default()).unwrap();
        assert!(image.pure_fast_path);
        assert!(image.got.is_empty());
    }

    #[test]
    fn missing_entry_symbol_rejected() {
        let mut obj = ObjectFile::new("noentry", "x86_64-generic-sim");
        obj.text.bytes = vec![0u8; 16];
        let empty = MapResolver::new();
        let err =
            load_object(&obj, "x86_64-generic-sim", &empty, LoadOptions::default()).unwrap_err();
        assert_eq!(err, BinfmtError::NoEntry);
    }

    #[test]
    fn relocation_out_of_bounds_rejected() {
        let mut obj = object_with_got();
        obj.relocations.push(Relocation {
            section: SectionKind::Text,
            offset: 60, // 60 + 8 > 64
            symbol: "tc_put".into(),
            kind: RelocKind::GotSlot,
            addend: 0,
        });
        let err = load_object(
            &obj,
            "x86_64-xeon-e5-sim",
            &resolver(),
            LoadOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, BinfmtError::BadRelocation(_)));
    }

    #[test]
    fn chain_resolver_prefers_earlier() {
        let mut a = MapResolver::new();
        a.insert("x", 1);
        let mut b = MapResolver::new();
        b.insert("x", 2);
        b.insert("y", 3);
        let chain = ChainResolver::new(vec![&a, &b]);
        assert_eq!(chain.resolve("x"), Some(1));
        assert_eq!(chain.resolve("y"), Some(3));
        assert_eq!(chain.resolve("z"), None);
    }

    #[test]
    fn section_bases_are_disjoint() {
        assert_ne!(
            section_base(SectionKind::Text),
            section_base(SectionKind::Data)
        );
        assert_ne!(
            section_base(SectionKind::Data),
            section_base(SectionKind::RoData)
        );
    }
}
