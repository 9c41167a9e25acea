//! Scalar types, target triples and micro-architecture feature descriptions.
//!
//! The paper ships LLVM bitcode that is *target-triple specific* (pointer
//! width, atomics flavour, vector extensions all differ between the Intel
//! Xeon hosts, the Fujitsu A64FX nodes and the BlueField-2 Cortex-A72 DPU
//! cores).  This module models that space: a [`TargetTriple`] identifies the
//! ISA and the micro-architecture, and [`IsaFeatures`] captures the knobs
//! that influence lowering (vector width, LSE-style atomics).

use std::fmt;

/// Scalar value types understood by the IR.
///
/// Every runtime value is carried in a 64-bit slot; the type controls how
/// arithmetic, comparisons, loads and stores interpret those bits, mirroring
/// how LLVM IR types drive instruction selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// Signed 8-bit integer.
    I8,
    /// Signed 16-bit integer.
    I16,
    /// Signed 32-bit integer.
    I32,
    /// Signed 64-bit integer.
    I64,
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit integer.
    U16,
    /// Unsigned 32-bit integer.
    U32,
    /// Unsigned 64-bit integer.
    U64,
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
    /// Pointer-sized integer (address into the node's memory).
    Ptr,
}

impl ScalarType {
    /// All scalar types, useful for property based testing.
    pub const ALL: [ScalarType; 11] = [
        ScalarType::I8,
        ScalarType::I16,
        ScalarType::I32,
        ScalarType::I64,
        ScalarType::U8,
        ScalarType::U16,
        ScalarType::U32,
        ScalarType::U64,
        ScalarType::F32,
        ScalarType::F64,
        ScalarType::Ptr,
    ];

    /// Size in bytes of a value of this type when stored in memory.
    ///
    /// `ptr_bytes` is the pointer width of the target (8 on every target we
    /// model, but kept explicit so 32-bit targets could be added).
    pub fn size_bytes(self, ptr_bytes: u8) -> u8 {
        match self {
            ScalarType::I8 | ScalarType::U8 => 1,
            ScalarType::I16 | ScalarType::U16 => 2,
            ScalarType::I32 | ScalarType::U32 | ScalarType::F32 => 4,
            ScalarType::I64 | ScalarType::U64 | ScalarType::F64 => 8,
            ScalarType::Ptr => ptr_bytes,
        }
    }

    /// True for the two floating point types.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::F32 | ScalarType::F64)
    }

    /// True for any integer (signed, unsigned or pointer) type.
    pub fn is_int(self) -> bool {
        !self.is_float()
    }

    /// True for signed integer types.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            ScalarType::I8 | ScalarType::I16 | ScalarType::I32 | ScalarType::I64
        )
    }

    /// Stable numeric tag used by the bitcode encoder: its position in declaration order.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`ScalarType::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(tag as usize).copied()
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarType::I8 => "i8",
            ScalarType::I16 => "i16",
            ScalarType::I32 => "i32",
            ScalarType::I64 => "i64",
            ScalarType::U8 => "u8",
            ScalarType::U16 => "u16",
            ScalarType::U32 => "u32",
            ScalarType::U64 => "u64",
            ScalarType::F32 => "f32",
            ScalarType::F64 => "f64",
            ScalarType::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

/// Instruction-set architectures modelled by the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Isa {
    /// x86-64 (the Thor Xeon hosts in the paper).
    X86_64,
    /// AArch64 (the Ookami A64FX nodes and the BlueField-2 DPU cores).
    Aarch64,
}

impl Isa {
    /// Stable numeric tag used by the bitcode encoder: its position in declaration order.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Isa::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        [Self::X86_64, Self::Aarch64].get(usize::from(tag)).copied()
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Isa::X86_64 => "x86_64",
            Isa::Aarch64 => "aarch64",
        }
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Micro-architectures that appear in the paper's testbeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Microarch {
    /// Generic tuning for the ISA, no micro-architecture specific features.
    Generic,
    /// Intel Xeon E5-2697A v4 (Thor host CPUs) — AVX2, fast JIT.
    XeonE5,
    /// Fujitsu A64FX (Ookami) — 512-bit SVE, LSE atomics, slower scalar core.
    A64fx,
    /// Arm Cortex-A72 (BlueField-2 DPU cores) — NEON, LSE atomics, modest core.
    CortexA72,
}

impl Microarch {
    /// Stable numeric tag used by the bitcode encoder: its position in declaration order.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Microarch::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        [Self::Generic, Self::XeonE5, Self::A64fx, Self::CortexA72]
            .get(usize::from(tag))
            .copied()
    }

    /// Canonical lower-case name (used in triple strings).
    pub fn name(self) -> &'static str {
        match self {
            Microarch::Generic => "generic",
            Microarch::XeonE5 => "xeon-e5",
            Microarch::A64fx => "a64fx",
            Microarch::CortexA72 => "cortex-a72",
        }
    }

    /// The ISA this micro-architecture belongs to (`None` for Generic which
    /// is valid on any ISA).
    pub fn isa(self) -> Option<Isa> {
        match self {
            Microarch::Generic => None,
            Microarch::XeonE5 => Some(Isa::X86_64),
            Microarch::A64fx | Microarch::CortexA72 => Some(Isa::Aarch64),
        }
    }
}

impl fmt::Display for Microarch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Vector extension available on a target, expressed as the SIMD width in
/// bits.  The JIT uses this to split vector IR operations into machine-level
/// chunks (the analogue of ORC-JIT emitting SVE on A64FX and AVX2 on Xeon).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorExt {
    /// No SIMD: vector ops are fully scalarised.
    None,
    /// 128-bit NEON-class SIMD.
    Simd128,
    /// 256-bit AVX2-class SIMD.
    Simd256,
    /// 512-bit SVE-class SIMD.
    Simd512,
}

impl VectorExt {
    /// Width of the vector unit in bits (0 when there is none).
    pub fn bits(self) -> u16 {
        match self {
            VectorExt::None => 0,
            VectorExt::Simd128 => 128,
            VectorExt::Simd256 => 256,
            VectorExt::Simd512 => 512,
        }
    }

    /// How many lanes of a scalar type fit in one vector register
    /// (always at least 1 so scalar fallback costs stay well-defined).
    pub fn lanes_for(self, ty: ScalarType, ptr_bytes: u8) -> u32 {
        let elem_bits = u32::from(ty.size_bytes(ptr_bytes)) * 8;
        let width = u32::from(self.bits());
        if width == 0 {
            1
        } else {
            (width / elem_bits).max(1)
        }
    }

    /// Stable numeric tag used by the bitcode encoder: its position in declaration order.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`VectorExt::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        [Self::None, Self::Simd128, Self::Simd256, Self::Simd512]
            .get(usize::from(tag))
            .copied()
    }
}

/// How atomic read-modify-write operations are lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicsExt {
    /// Compare-and-swap loop (pre-LSE AArch64, baseline x86 path).
    CasLoop,
    /// Single-instruction atomics (Arm LSE / x86 `lock xadd` class).
    Lse,
}

impl AtomicsExt {
    /// Stable numeric tag used by the bitcode encoder: its position in declaration order.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`AtomicsExt::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        [Self::CasLoop, Self::Lse].get(usize::from(tag)).copied()
    }
}

/// Feature bundle derived from a micro-architecture; drives lowering and the
/// JIT's instruction selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IsaFeatures {
    /// Widest available SIMD extension.
    pub vector: VectorExt,
    /// How atomic RMW operations are emitted.
    pub atomics: AtomicsExt,
    /// Pointer width in bytes.
    pub ptr_bytes: u8,
}

impl IsaFeatures {
    /// Feature bundle for a (ISA, micro-architecture) pair.
    pub fn for_target(isa: Isa, march: Microarch) -> Self {
        match (isa, march) {
            (Isa::X86_64, Microarch::XeonE5) => IsaFeatures {
                vector: VectorExt::Simd256,
                atomics: AtomicsExt::Lse,
                ptr_bytes: 8,
            },
            (Isa::X86_64, _) => IsaFeatures {
                vector: VectorExt::Simd128,
                atomics: AtomicsExt::CasLoop,
                ptr_bytes: 8,
            },
            (Isa::Aarch64, Microarch::A64fx) => IsaFeatures {
                vector: VectorExt::Simd512,
                atomics: AtomicsExt::Lse,
                ptr_bytes: 8,
            },
            (Isa::Aarch64, Microarch::CortexA72) => IsaFeatures {
                vector: VectorExt::Simd128,
                atomics: AtomicsExt::CasLoop,
                ptr_bytes: 8,
            },
            (Isa::Aarch64, _) => IsaFeatures {
                vector: VectorExt::Simd128,
                atomics: AtomicsExt::CasLoop,
                ptr_bytes: 8,
            },
        }
    }
}

/// A target triple in the spirit of `x86_64-pc-linux-gnu`: the pair of ISA
/// and micro-architecture that a bitcode entry or a binary object was
/// produced for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TargetTriple {
    /// Instruction set architecture.
    pub isa: Isa,
    /// Micro-architecture tuning (also selects feature bundle).
    pub march: Microarch,
}

impl TargetTriple {
    /// Generic x86-64 triple.
    pub const X86_64_GENERIC: TargetTriple = TargetTriple {
        isa: Isa::X86_64,
        march: Microarch::Generic,
    };
    /// Thor host CPUs.
    pub const THOR_XEON: TargetTriple = TargetTriple {
        isa: Isa::X86_64,
        march: Microarch::XeonE5,
    };
    /// Generic AArch64 triple.
    pub const AARCH64_GENERIC: TargetTriple = TargetTriple {
        isa: Isa::Aarch64,
        march: Microarch::Generic,
    };
    /// Ookami compute nodes.
    pub const OOKAMI_A64FX: TargetTriple = TargetTriple {
        isa: Isa::Aarch64,
        march: Microarch::A64fx,
    };
    /// BlueField-2 DPU Arm cores.
    pub const THOR_BF2: TargetTriple = TargetTriple {
        isa: Isa::Aarch64,
        march: Microarch::CortexA72,
    };

    /// Create a triple, checking the micro-architecture belongs to the ISA.
    pub fn new(isa: Isa, march: Microarch) -> Option<Self> {
        match march.isa() {
            Some(m) if m != isa => None,
            _ => Some(TargetTriple { isa, march }),
        }
    }

    /// Feature bundle for this triple.
    pub fn features(&self) -> IsaFeatures {
        IsaFeatures::for_target(self.isa, self.march)
    }

    /// Canonical string form, e.g. `aarch64-a64fx-sim`.
    pub fn name(&self) -> String {
        format!("{}-{}-sim", self.isa.name(), self.march.name())
    }

    /// Parse the canonical string form produced by [`TargetTriple::name`].
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.splitn(3, '-');
        let isa = match parts.next()? {
            "x86_64" => Isa::X86_64,
            "aarch64" => Isa::Aarch64,
            _ => return None,
        };
        let rest = s.strip_prefix(isa.name())?.strip_prefix('-')?;
        let march_str = rest.strip_suffix("-sim")?;
        let march = match march_str {
            "generic" => Microarch::Generic,
            "xeon-e5" => Microarch::XeonE5,
            "a64fx" => Microarch::A64fx,
            "cortex-a72" => Microarch::CortexA72,
            _ => return None,
        };
        TargetTriple::new(isa, march)
    }

    /// The triples the reproduction's "toolchain" emits by default, i.e. the
    /// contents of a fat-bitcode archive built with no extra flags.
    pub fn default_toolchain_targets() -> Vec<TargetTriple> {
        vec![
            TargetTriple::THOR_XEON,
            TargetTriple::OOKAMI_A64FX,
            TargetTriple::THOR_BF2,
            TargetTriple::X86_64_GENERIC,
            TargetTriple::AARCH64_GENERIC,
        ]
    }
}

impl fmt::Display for TargetTriple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TargetTriple {
        /// Two triples are binary-compatible when they share an ISA (a generic
        /// AArch64 object runs on A64FX, just without µarch tuning).
        fn binary_compatible(&self, other: &TargetTriple) -> bool {
            self.isa == other.isa
        }
    }

    #[test]
    fn scalar_sizes_are_correct() {
        assert_eq!(ScalarType::I8.size_bytes(8), 1);
        assert_eq!(ScalarType::U16.size_bytes(8), 2);
        assert_eq!(ScalarType::I32.size_bytes(8), 4);
        assert_eq!(ScalarType::F32.size_bytes(8), 4);
        assert_eq!(ScalarType::I64.size_bytes(8), 8);
        assert_eq!(ScalarType::F64.size_bytes(8), 8);
        assert_eq!(ScalarType::Ptr.size_bytes(8), 8);
        assert_eq!(ScalarType::Ptr.size_bytes(4), 4);
    }

    #[test]
    fn scalar_tag_roundtrip() {
        for ty in ScalarType::ALL {
            assert_eq!(ScalarType::from_tag(ty.tag()), Some(ty));
        }
        assert_eq!(ScalarType::from_tag(200), None);
    }

    #[test]
    fn signedness_and_float_classification() {
        assert!(ScalarType::I32.is_signed());
        assert!(!ScalarType::U32.is_signed());
        assert!(ScalarType::F64.is_float());
        assert!(!ScalarType::F64.is_int());
        assert!(ScalarType::Ptr.is_int());
        assert!(!ScalarType::Ptr.is_signed());
    }

    #[test]
    fn triple_name_roundtrip() {
        for t in TargetTriple::default_toolchain_targets() {
            let name = t.name();
            assert_eq!(TargetTriple::parse(&name), Some(t), "triple {name}");
        }
        assert_eq!(TargetTriple::parse("mips-generic-sim"), None);
        assert_eq!(TargetTriple::parse("x86_64-a64fx-sim"), None);
        assert_eq!(TargetTriple::parse("garbage"), None);
    }

    #[test]
    fn march_isa_consistency_enforced() {
        assert!(TargetTriple::new(Isa::X86_64, Microarch::A64fx).is_none());
        assert!(TargetTriple::new(Isa::Aarch64, Microarch::XeonE5).is_none());
        assert!(TargetTriple::new(Isa::Aarch64, Microarch::Generic).is_some());
        assert!(TargetTriple::new(Isa::X86_64, Microarch::XeonE5).is_some());
    }

    #[test]
    fn features_match_paper_platforms() {
        let a64fx = TargetTriple::OOKAMI_A64FX.features();
        assert_eq!(a64fx.vector, VectorExt::Simd512);
        assert_eq!(a64fx.atomics, AtomicsExt::Lse);

        let xeon = TargetTriple::THOR_XEON.features();
        assert_eq!(xeon.vector, VectorExt::Simd256);

        let bf2 = TargetTriple::THOR_BF2.features();
        assert_eq!(bf2.vector, VectorExt::Simd128);
        assert_eq!(bf2.atomics, AtomicsExt::CasLoop);
    }

    #[test]
    fn vector_lanes() {
        assert_eq!(VectorExt::Simd512.lanes_for(ScalarType::F64, 8), 8);
        assert_eq!(VectorExt::Simd256.lanes_for(ScalarType::F32, 8), 8);
        assert_eq!(VectorExt::Simd128.lanes_for(ScalarType::I64, 8), 2);
        assert_eq!(VectorExt::None.lanes_for(ScalarType::I8, 8), 1);
        // Never zero lanes even for wide elements on narrow SIMD.
        assert_eq!(VectorExt::Simd128.lanes_for(ScalarType::F64, 8), 2);
    }

    #[test]
    fn binary_compatibility_is_isa_level() {
        assert!(TargetTriple::OOKAMI_A64FX.binary_compatible(&TargetTriple::THOR_BF2));
        assert!(!TargetTriple::THOR_XEON.binary_compatible(&TargetTriple::THOR_BF2));
    }
}
