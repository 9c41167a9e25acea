//! Fat-bitcode archives.
//!
//! A fat-bitcode archive packs the per-target bitcode files produced by the
//! toolchain (one per supported triple) together with the module's dependency
//! list, exactly as the paper's Section III-C describes: "all the bitcode
//! files will be packed into a bitcode archive […] the fat-bitcode is shipped
//! with the payload and list of bitcode dependencies".  The receiving process
//! extracts the entry matching its local target and JIT-compiles it.
//!
//! On the wire an archive is a magic, a version and one field table
//! (name, dependencies, then each entry's triple and bitcode bytes) over
//! [`crate::bitcode`]'s codec.

use crate::bitcode::{decode_framed, encode_framed, encode_module, Field, Reader};
use crate::error::{BitirError, Result};
use crate::ir::Module;
use crate::lower::lower_for_target;
use crate::types::TargetTriple;
use std::ops::Range;

/// Magic bytes at the start of a fat-bitcode archive (`TCFB` = Three-Chains
/// Fat Bitcode).
pub const FAT_MAGIC: [u8; 4] = *b"TCFB";
/// Current archive format version.
pub const FAT_VERSION: u16 = 1;

/// One entry of a fat-bitcode archive: the bitcode for a single triple.
#[derive(Debug, Clone, PartialEq)]
pub struct FatEntry {
    /// Target the bitcode was lowered for.
    pub triple: TargetTriple,
    /// Encoded bitcode bytes.
    pub bitcode: Vec<u8>,
}

/// A fat-bitcode archive: per-target bitcode plus the shared dependency list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FatBitcode {
    /// Ifunc library name (must match across entries).
    pub name: String,
    /// Per-target bitcode entries.
    pub entries: Vec<FatEntry>,
    /// Shared-library dependencies (contents of the `.deps` file).
    pub deps: Vec<String>,
}

impl FatBitcode {
    /// Build a fat archive from a portable module by lowering and encoding it
    /// for every triple in `targets`.
    pub fn from_module(module: &Module, targets: &[TargetTriple]) -> Result<Self> {
        if targets.is_empty() {
            return Err(BitirError::Lower(
                "fat-bitcode requires at least one target triple".into(),
            ));
        }
        let mut entries = Vec::with_capacity(targets.len());
        let mut seen = Vec::new();
        for &t in targets {
            if seen.contains(&t) {
                continue;
            }
            seen.push(t);
            let lowered = lower_for_target(module, t)?;
            entries.push(FatEntry {
                triple: t,
                bitcode: encode_module(&lowered),
            });
        }
        Ok(FatBitcode {
            name: module.name.clone(),
            entries,
            deps: module.deps.clone(),
        })
    }

    /// Triples present in the archive.
    pub fn triples(&self) -> Vec<TargetTriple> {
        self.entries.iter().map(|e| e.triple).collect()
    }

    /// Select the bitcode entry for a target.  An exact (ISA, µarch) match is
    /// preferred; otherwise any entry with the same ISA is acceptable (the
    /// generic-tuned bitcode still runs, just without µarch specialisation) —
    /// mirroring how a `x86_64-pc-linux-gnu` bitcode serves any x86-64 host.
    pub fn select(&self, target: TargetTriple) -> Result<&FatEntry> {
        let exact = self.entries.iter().find(|e| e.triple == target);
        exact
            .or_else(|| self.entries.iter().find(|e| e.triple.isa == target.isa))
            .ok_or_else(|| no_entry(target, self.triples()))
    }

    /// What [`FatBitcode::decode`] then [`FatBitcode::select`] pick for
    /// `target`, read in place with the decoder's own reads: the range of
    /// that entry's bitcode in `bytes`, and the archive's dependencies.  What
    /// the two refuse is refused with the same error; no entry is copied.
    /// Only a refusal for want of an entry decodes the whole archive, to
    /// list the triples it holds as `select`'s refusal does.
    pub fn select_encoded<'a>(
        bytes: &'a [u8],
        target: TargetTriple,
    ) -> Result<(Range<usize>, Vec<&'a str>)> {
        let walk = |r: &mut Reader<'a>| {
            r.str()?;
            let deps = usize::try_from(r.varint()?).ok()?;
            let deps = (0..deps).map(|_| r.str()).collect::<Option<Vec<_>>>()?;
            let (mut exact, mut same_isa) = (None, None);
            for _ in 0..usize::try_from(r.varint()?).ok()? {
                let triple = TargetTriple::get(r)?;
                let len = usize::try_from(r.varint()?).ok()?;
                let at = r.offset();
                let entry = at..at + r.take(len)?.len();
                exact = exact.or((triple == target).then(|| entry.clone()));
                same_isa = same_isa.or((triple.isa == target.isa).then_some(entry));
            }
            Some((exact.or(same_isa), deps))
        };
        match decode_framed(bytes, FAT_MAGIC, FAT_VERSION, "fat-bitcode", walk)? {
            (Some(slice), deps) => Ok((slice, deps)),
            (None, _) => Err(no_entry(target, Self::decode(bytes)?.triples())),
        }
    }

    /// Serialize the archive.
    pub fn encode(&self) -> Vec<u8> {
        encode_framed(FAT_MAGIC, FAT_VERSION, self)
    }

    /// Deserialize an archive.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        decode_framed(bytes, FAT_MAGIC, FAT_VERSION, "fat-bitcode", Self::get)
    }
}

/// The refusal of an archive holding no entry for `target`.
fn no_entry(target: TargetTriple, available: Vec<TargetTriple>) -> BitirError {
    let available = available.iter().map(|t| t.name()).collect();
    BitirError::NoBitcodeForTarget {
        requested: target.name(),
        available,
    }
}

crate::fields!(FatEntry { triple, bitcode });
crate::fields!(FatBitcode {
    name,
    deps,
    entries
});

#[cfg(test)]
mod tests {
    use super::*;

    impl FatBitcode {
        /// Total encoded size of the archive in bytes (what actually travels in
        /// the BITCODE + DEPS fields of an uncached ifunc message).
        fn encoded_size(&self) -> usize {
            self.encode().len()
        }

        /// Select and decode the module for a target.
        fn select_module(&self, target: TargetTriple) -> Result<Module> {
            let entry = self.select(target)?;
            crate::bitcode::decode_module(&entry.bitcode)
        }
    }
    use crate::builder::ModuleBuilder;
    use crate::types::{Isa, ScalarType};

    fn tsi_module() -> Module {
        let mut mb = ModuleBuilder::new("tsi");
        mb.add_dep("libc.so");
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let target = f.param(2);
            let delta = f.load(ScalarType::U8, payload, 0);
            let counter = f.load(ScalarType::U64, target, 0);
            let sum = f.bin(crate::ir::BinOp::Add, ScalarType::U64, counter, delta);
            f.store(ScalarType::U64, sum, target, 0);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        mb.build()
    }

    #[test]
    fn build_and_select_exact_target() {
        let fat =
            FatBitcode::from_module(&tsi_module(), &TargetTriple::default_toolchain_targets())
                .unwrap();
        assert_eq!(fat.entries.len(), 5);
        let entry = fat.select(TargetTriple::OOKAMI_A64FX).unwrap();
        assert_eq!(entry.triple, TargetTriple::OOKAMI_A64FX);
        let module = fat.select_module(TargetTriple::OOKAMI_A64FX).unwrap();
        assert_eq!(module.triple, Some(TargetTriple::OOKAMI_A64FX));
    }

    #[test]
    fn isa_fallback_selection() {
        // Archive built only with generic triples still serves a specific
        // µarch of the same ISA.
        let fat = FatBitcode::from_module(
            &tsi_module(),
            &[TargetTriple::X86_64_GENERIC, TargetTriple::AARCH64_GENERIC],
        )
        .unwrap();
        let entry = fat.select(TargetTriple::THOR_BF2).unwrap();
        assert_eq!(entry.triple.isa, Isa::Aarch64);
    }

    #[test]
    fn missing_target_reports_available() {
        let fat = FatBitcode::from_module(&tsi_module(), &[TargetTriple::THOR_XEON]).unwrap();
        let err = fat.select(TargetTriple::OOKAMI_A64FX).unwrap_err();
        match err {
            BitirError::NoBitcodeForTarget {
                requested,
                available,
            } => {
                assert!(requested.contains("a64fx"));
                assert_eq!(available.len(), 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// The in-place selector picks the bytes `decode` + `select` pick, with
    /// the same dependencies, or refuses with the same error: exact,
    /// same-ISA and missing targets, over archives of one, two and five.
    #[test]
    fn the_in_place_selector_picks_what_decode_and_select_pick() {
        use TargetTriple as T;
        let archives = [
            TargetTriple::default_toolchain_targets(),
            vec![T::X86_64_GENERIC, T::AARCH64_GENERIC],
            vec![T::THOR_XEON],
        ];
        for targets in archives {
            let fat = FatBitcode::from_module(&tsi_module(), &targets).unwrap();
            let bytes = fat.encode();
            for host in [
                T::THOR_XEON,
                T::THOR_BF2,
                T::OOKAMI_A64FX,
                T::X86_64_GENERIC,
            ] {
                match (FatBitcode::select_encoded(&bytes, host), fat.select(host)) {
                    (Ok((slice, deps)), Ok(entry)) => {
                        assert_eq!(bytes[slice], entry.bitcode[..], "{host:?}");
                        assert_eq!(deps, fat.deps, "{host:?}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "{host:?}"),
                    other => panic!("{host:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn duplicate_targets_deduplicated() {
        let fat = FatBitcode::from_module(
            &tsi_module(),
            &[TargetTriple::THOR_XEON, TargetTriple::THOR_XEON],
        )
        .unwrap();
        assert_eq!(fat.entries.len(), 1);
    }

    #[test]
    fn empty_target_list_rejected() {
        assert!(FatBitcode::from_module(&tsi_module(), &[]).is_err());
    }

    #[test]
    fn archive_roundtrip() {
        let fat =
            FatBitcode::from_module(&tsi_module(), &TargetTriple::default_toolchain_targets())
                .unwrap();
        let bytes = fat.encode();
        let decoded = FatBitcode::decode(&bytes).unwrap();
        assert_eq!(fat, decoded);
    }

    #[test]
    fn archive_size_is_multi_kilobyte_like_the_paper() {
        // Paper: ~5 KiB of fat-bitcode for a two-ISA TSI archive.  Our default
        // target set has five triples, so a couple of KiB up to ~20 KiB is the
        // right order of magnitude.
        let fat =
            FatBitcode::from_module(&tsi_module(), &TargetTriple::default_toolchain_targets())
                .unwrap();
        let size = fat.encoded_size();
        assert!(size > 2000, "archive unexpectedly small: {size}");
        assert!(size < 32 * 1024, "archive unexpectedly large: {size}");
        // Every extra target is paid for in the uncached frame.
        let sized = |targets: &[TargetTriple]| {
            FatBitcode::from_module(&tsi_module(), targets)
                .unwrap()
                .encoded_size()
        };
        let one = sized(&[TargetTriple::THOR_XEON]);
        let two = sized(&[TargetTriple::THOR_XEON, TargetTriple::THOR_BF2]);
        assert!(one < two && two < size, "{one} / {two} / {size}");
    }

    #[test]
    fn corrupted_archive_rejected() {
        let fat =
            FatBitcode::from_module(&tsi_module(), &TargetTriple::default_toolchain_targets())
                .unwrap();
        let mut bytes = fat.encode();
        bytes[0] = b'Z';
        assert!(FatBitcode::decode(&bytes).is_err());
        let fat2 = FatBitcode::decode(&fat.encode()).unwrap();
        assert_eq!(fat2.deps, vec!["libc.so".to_string()]);
    }

    #[test]
    fn truncated_archive_rejected() {
        let fat =
            FatBitcode::from_module(&tsi_module(), &TargetTriple::default_toolchain_targets())
                .unwrap();
        let bytes = fat.encode();
        assert!(FatBitcode::decode(&bytes[..bytes.len() / 3]).is_err());
    }
}
