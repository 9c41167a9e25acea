//! The ELF-like object container used by binary ifuncs.
//!
//! A binary ifunc in the paper is built from the `.text` and `.data` sections
//! of a shared library, packed into the message frame together with the
//! metadata needed to patch its Global Offset Table on the target process
//! (Section III-B).  [`ObjectFile`] models exactly that: sections, a symbol
//! table, relocation records that reference external symbols through GOT
//! slots, and the dependency list.  The container is ISA-specific — an object
//! built for an x86-64 host cannot be loaded on an Arm DPU — which is the
//! portability limitation that motivates the bitcode path.

use crate::error::{BinfmtError, Result};

/// Magic bytes of the serialized object format (`TCSO` = Three-Chains Shared
/// Object).
pub const OBJECT_MAGIC: [u8; 4] = *b"TCSO";
/// Current object format version.
pub const OBJECT_VERSION: u16 = 2;

/// Which section a symbol or relocation lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Executable code.
    Text,
    /// Writable initialised data.
    Data,
    /// Read-only data.
    RoData,
}

impl SectionKind {
    /// All section kinds.
    pub const ALL: [SectionKind; 3] = [SectionKind::Text, SectionKind::Data, SectionKind::RoData];

    /// Stable tag for serialization: its position in declaration order.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`SectionKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(tag as usize).copied()
    }

    /// Conventional section name.
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Text => ".text",
            SectionKind::Data => ".data",
            SectionKind::RoData => ".rodata",
        }
    }
}

/// Kind of a defined symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    /// A function entry point.
    Func,
    /// A data object.
    Object,
}

impl SymbolKind {
    /// Stable tag for serialization: its position in declaration order.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`SymbolKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        [Self::Func, Self::Object].get(usize::from(tag)).copied()
    }
}

/// A symbol defined by the object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Section the symbol is defined in.
    pub section: SectionKind,
    /// Byte offset of the symbol within its section.
    pub offset: u64,
    /// Function or data object.
    pub kind: SymbolKind,
}

/// Relocation kinds supported by the loader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocKind {
    /// Patch an 8-byte slot with the *index* of the GOT entry for the named
    /// external symbol (the code then loads the resolved address through the
    /// GOT at run time) — the paper's GOT-redirection mechanism.
    GotSlot,
    /// Patch an 8-byte slot with the resolved absolute address of the symbol
    /// (used for intra-object references to data).
    Abs64,
}

impl RelocKind {
    /// Stable tag for serialization: its position in declaration order.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`RelocKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        [Self::GotSlot, Self::Abs64].get(usize::from(tag)).copied()
    }
}

/// A relocation record: "patch `section[offset..offset+8]` according to
/// `kind` using `symbol` (+ `addend`)".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relocation {
    /// Section whose bytes get patched.
    pub section: SectionKind,
    /// Byte offset of the 8-byte slot to patch.
    pub offset: u64,
    /// Symbol the relocation refers to.
    pub symbol: String,
    /// Relocation kind.
    pub kind: RelocKind,
    /// Constant added to the resolved value.
    pub addend: i64,
}

/// A section: raw bytes plus an alignment requirement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Section {
    /// Section contents.
    pub bytes: Vec<u8>,
    /// Required alignment (power of two).
    pub align: u32,
}

/// An ELF-like object file: what a binary ifunc ships over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectFile {
    /// Library (ifunc) name.
    pub name: String,
    /// Target triple string the object was compiled for
    /// (e.g. `"aarch64-a64fx-sim"`); checked against the host at load time.
    pub triple: String,
    /// Executable code.
    pub text: Section,
    /// Writable data.
    pub data: Section,
    /// Read-only data.
    pub rodata: Section,
    /// Defined symbols.
    pub symbols: Vec<Symbol>,
    /// Relocations to apply at load time.
    pub relocations: Vec<Relocation>,
    /// External symbols that need GOT entries (order defines slot indices).
    pub got_symbols: Vec<String>,
    /// Shared-library dependencies to load before execution.
    pub deps: Vec<String>,
}

impl ObjectFile {
    /// Create an empty object for a target triple.
    pub fn new(name: impl Into<String>, triple: impl Into<String>) -> Self {
        ObjectFile {
            name: name.into(),
            triple: triple.into(),
            text: Section {
                bytes: Vec::new(),
                align: 16,
            },
            data: Section {
                bytes: Vec::new(),
                align: 8,
            },
            rodata: Section {
                bytes: Vec::new(),
                align: 8,
            },
            symbols: Vec::new(),
            relocations: Vec::new(),
            got_symbols: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// Access a section by kind.
    pub fn section(&self, kind: SectionKind) -> &Section {
        match kind {
            SectionKind::Text => &self.text,
            SectionKind::Data => &self.data,
            SectionKind::RoData => &self.rodata,
        }
    }

    /// Find a defined symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Register an external symbol in the GOT, returning its slot index.
    pub fn intern_got_symbol(&mut self, name: &str) -> u32 {
        if let Some(pos) = self.got_symbols.iter().position(|s| s == name) {
            pos as u32
        } else {
            self.got_symbols.push(name.to_string());
            (self.got_symbols.len() - 1) as u32
        }
    }

    /// True when the object references no external symbols and has no
    /// dependencies — the paper's "pure" ifunc, which can skip GOT patching
    /// and go straight to execution.
    pub fn is_pure(&self) -> bool {
        self.got_symbols.is_empty()
            && self.deps.is_empty()
            && self
                .relocations
                .iter()
                .all(|r| r.kind != RelocKind::GotSlot)
    }

    /// Total payload size of the code + data that actually ships in a binary
    /// ifunc message (the `.text` and `.data` sections, as in the paper).
    pub fn shipped_size(&self) -> usize {
        self.text.bytes.len() + self.data.bytes.len() + self.rodata.bytes.len()
    }

    // -- serialization ------------------------------------------------------

    /// Serialize the object into bytes (what the message frame carries).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.shipped_size() + 256);
        out.extend_from_slice(&OBJECT_MAGIC);
        out.extend_from_slice(&OBJECT_VERSION.to_le_bytes());
        write_str(&mut out, &self.name);
        write_str(&mut out, &self.triple);
        for kind in SectionKind::ALL {
            let s = self.section(kind);
            out.extend_from_slice(&s.align.to_le_bytes());
            write_bytes(&mut out, &s.bytes);
        }
        write_u32(&mut out, self.symbols.len() as u32);
        for sym in &self.symbols {
            write_str(&mut out, &sym.name);
            out.push(sym.section.tag());
            out.extend_from_slice(&sym.offset.to_le_bytes());
            out.push(sym.kind.tag());
        }
        write_u32(&mut out, self.relocations.len() as u32);
        for r in &self.relocations {
            out.push(r.section.tag());
            out.extend_from_slice(&r.offset.to_le_bytes());
            write_str(&mut out, &r.symbol);
            out.push(r.kind.tag());
            out.extend_from_slice(&r.addend.to_le_bytes());
        }
        write_u32(&mut out, self.got_symbols.len() as u32);
        for g in &self.got_symbols {
            write_str(&mut out, g);
        }
        write_u32(&mut out, self.deps.len() as u32);
        for d in &self.deps {
            write_str(&mut out, d);
        }
        out
    }

    /// Deserialize an object.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut cur = Cursor { buf: bytes, pos: 0 };
        let magic: [u8; 4] = cur.take()?;
        if magic != OBJECT_MAGIC {
            return Err(BinfmtError::Decode(format!("bad magic {magic:02x?}")));
        }
        let version = u16::from_le_bytes(cur.take()?);
        if version != OBJECT_VERSION {
            return Err(BinfmtError::Decode(format!(
                "unsupported object version {version}"
            )));
        }
        let name = cur.string()?;
        let triple = cur.string()?;
        let mut obj = ObjectFile::new(name, triple);
        // In `SectionKind::ALL` order, as `encode` writes them.
        obj.text = cur.section()?;
        obj.data = cur.section()?;
        obj.rodata = cur.section()?;
        let nsyms = cur.u32()?;
        for _ in 0..nsyms {
            let name = cur.string()?;
            let sect_tag = cur.byte()?;
            let section = SectionKind::from_tag(sect_tag)
                .ok_or_else(|| BinfmtError::Decode(format!("bad section tag {sect_tag}")))?;
            let offset = u64::from_le_bytes(cur.take()?);
            let kind_tag = cur.byte()?;
            let kind = SymbolKind::from_tag(kind_tag)
                .ok_or_else(|| BinfmtError::Decode(format!("bad symbol kind {kind_tag}")))?;
            obj.symbols.push(Symbol {
                name,
                section,
                offset,
                kind,
            });
        }
        let nrelocs = cur.u32()?;
        for _ in 0..nrelocs {
            let sect_tag = cur.byte()?;
            let section = SectionKind::from_tag(sect_tag)
                .ok_or_else(|| BinfmtError::Decode(format!("bad section tag {sect_tag}")))?;
            let offset = u64::from_le_bytes(cur.take()?);
            let symbol = cur.string()?;
            let kind_tag = cur.byte()?;
            let kind = RelocKind::from_tag(kind_tag)
                .ok_or_else(|| BinfmtError::Decode(format!("bad reloc kind {kind_tag}")))?;
            let addend = i64::from_le_bytes(cur.take()?);
            obj.relocations.push(Relocation {
                section,
                offset,
                symbol,
                kind,
                addend,
            });
        }
        let ngot = cur.u32()?;
        for _ in 0..ngot {
            obj.got_symbols.push(cur.string()?);
        }
        let ndeps = cur.u32()?;
        for _ in 0..ndeps {
            obj.deps.push(cur.string()?);
        }
        Ok(obj)
    }
}

// -- tiny serialization helpers ---------------------------------------------

fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    write_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn slice(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len().saturating_sub(self.pos) < n {
            return Err(BinfmtError::Decode(format!(
                "truncated object at offset {}",
                self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.slice(N)?);
        Ok(out)
    }

    fn byte(&mut self) -> Result<u8> {
        let [b] = self.take()?;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.slice(len)?.to_vec())
    }

    fn section(&mut self) -> Result<Section> {
        let align = self.u32()?;
        let bytes = self.bytes()?;
        Ok(Section { bytes, align })
    }

    fn string(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|_| BinfmtError::Decode("invalid UTF-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_object() -> ObjectFile {
        let mut obj = ObjectFile::new("tsi", "aarch64-a64fx-sim");
        obj.text.bytes = vec![0xAA; 96];
        obj.data.bytes = vec![0x00; 16];
        obj.rodata.bytes = b"hello".to_vec();
        obj.symbols.push(Symbol {
            name: "main".into(),
            section: SectionKind::Text,
            offset: 0,
            kind: SymbolKind::Func,
        });
        obj.symbols.push(Symbol {
            name: "counter_scratch".into(),
            section: SectionKind::Data,
            offset: 8,
            kind: SymbolKind::Object,
        });
        let slot = obj.intern_got_symbol("tc_return_result");
        obj.relocations.push(Relocation {
            section: SectionKind::Text,
            offset: 40,
            symbol: "tc_return_result".into(),
            kind: RelocKind::GotSlot,
            addend: 0,
        });
        assert_eq!(slot, 0);
        obj.deps.push("libucp.so".into());
        obj
    }

    #[test]
    fn roundtrip() {
        let obj = sample_object();
        let bytes = obj.encode();
        let decoded = ObjectFile::decode(&bytes).unwrap();
        assert_eq!(obj, decoded);
    }

    #[test]
    fn bad_magic_and_truncation_rejected() {
        let obj = sample_object();
        let mut bytes = obj.encode();
        bytes[0] = b'!';
        assert!(ObjectFile::decode(&bytes).is_err());

        // Every proper prefix is refused with an error, never a panic.
        let bytes = obj.encode();
        for cut in 0..bytes.len() {
            assert!(ObjectFile::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn got_interning_dedups() {
        let mut obj = ObjectFile::new("x", "x86_64-xeon-e5-sim");
        assert_eq!(obj.intern_got_symbol("a"), 0);
        assert_eq!(obj.intern_got_symbol("b"), 1);
        assert_eq!(obj.intern_got_symbol("a"), 0);
        assert_eq!(obj.got_symbols.len(), 2);
    }

    #[test]
    fn purity_detection() {
        let mut obj = ObjectFile::new("pure", "x86_64-generic-sim");
        obj.text.bytes = vec![1, 2, 3];
        assert!(obj.is_pure());
        obj.intern_got_symbol("memcpy");
        assert!(!obj.is_pure());

        let mut obj2 = ObjectFile::new("deps", "x86_64-generic-sim");
        obj2.deps.push("libomp.so".into());
        assert!(!obj2.is_pure());
    }

    #[test]
    fn shipped_size_counts_all_sections() {
        let obj = sample_object();
        assert_eq!(obj.shipped_size(), 96 + 16 + 5);
    }

    #[test]
    fn symbol_lookup() {
        let obj = sample_object();
        assert!(obj.symbol("main").is_some());
        assert!(obj.symbol("does_not_exist").is_none());
        assert_eq!(obj.symbol("counter_scratch").unwrap().offset, 8);
    }

    #[test]
    fn section_kind_tags_roundtrip() {
        for k in SectionKind::ALL {
            assert_eq!(SectionKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(SectionKind::from_tag(9), None);
        assert_eq!(
            RelocKind::from_tag(RelocKind::Abs64.tag()),
            Some(RelocKind::Abs64)
        );
        assert_eq!(
            SymbolKind::from_tag(SymbolKind::Func.tag()),
            Some(SymbolKind::Func)
        );
    }
}
