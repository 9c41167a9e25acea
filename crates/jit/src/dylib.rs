//! Simulated shared libraries: one static table, the set a module loads, and
//! the host its external calls go through.
//!
//! Shipped ifuncs — bitcode and binary alike — name the shared libraries
//! they need (the paper's `.deps` file, e.g. `libm.so`); the target loads
//! them and resolves the code's external symbols against them and the
//! framework (remote dynamic linking).  The reproduction's libraries are the
//! rows of one static table of host functions; [`LoadedLibs`] is the set of
//! rows one module loaded, and it is both the GOT resolver a binary object is
//! loaded against and, behind [`LinkedHost`], what a running module's
//! external calls are answered from first, before the framework.

use crate::engine::{ExternalHost, Memory};
use crate::error::{JitError, Result};
use tc_binfmt::SymbolResolver;

/// Virtual cycles charged for a call into a loaded library.
const LIBRARY_CALL_CYCLES: u64 = 20;

/// An exported host function: its symbol, its arity, and the function,
/// called with exactly that many arguments and the node memory, returning
/// the result (0 for void functions).
type Export = (
    &'static str,
    usize,
    fn(&[u64], &mut dyn Memory) -> Result<u64>,
);

/// Every library a target can load, by file name.  `libc.so` takes
/// (address, address/byte, length) over node memory; `libm.so` takes and
/// returns f64 bit patterns in registers.
static LIBRARIES: [(&str, &[Export]); 2] = [
    (
        "libc.so",
        &[
            ("memcpy", 3, memcpy),
            ("memset", 3, memset),
            ("strlen_u64", 1, strlen_u64),
        ],
    ),
    (
        "libm.so",
        &[
            ("sqrt", 1, |a, _| Ok(f64::from_bits(a[0]).sqrt().to_bits())),
            ("fabs", 1, |a, _| Ok(f64::from_bits(a[0]).abs().to_bits())),
            ("pow2", 1, |a, _| {
                let x = f64::from_bits(a[0]);
                Ok((x * x).to_bits())
            }),
        ],
    ),
];

/// The libraries loaded for one module: a set of rows of the static table.
#[derive(Debug, Clone, Copy)]
pub struct LoadedLibs {
    rows: u32,
}

impl LoadedLibs {
    /// Every library loaded: what a front end may let a program call.
    pub const ALL: LoadedLibs = LoadedLibs { rows: u32::MAX };

    /// Load the libraries `deps` names, failing on the first one the table
    /// does not hold (the paper's "dependency must be present on the
    /// target" requirement).
    pub fn load(deps: &[String]) -> Result<Self> {
        let mut rows = 0;
        for dep in deps {
            let row = LIBRARIES
                .iter()
                .position(|(name, _)| name == dep)
                .ok_or_else(|| JitError::MissingDependency {
                    library: dep.clone(),
                })?;
            rows |= 1 << row;
        }
        Ok(LoadedLibs { rows })
    }

    /// Whether code linked against these libraries may call `symbol`: a
    /// framework service (`tc_put`, `tc_forward_self`, …, answered by the
    /// runtime's host) or a loaded export.
    pub fn links(self, symbol: &str) -> bool {
        symbol.starts_with("tc_") || self.export(symbol).is_some()
    }

    /// The loaded export named `symbol`, if any.
    fn export(self, symbol: &str) -> Option<&'static Export> {
        LIBRARIES
            .iter()
            .enumerate()
            .filter(|&(row, _)| self.rows & (1 << row) != 0)
            .flat_map(|(_, (_, exports))| exports.iter())
            .find(|(name, _, _)| *name == symbol)
    }
}

/// A binary object's GOT resolver: what [`LoadedLibs::links`] resolves, to a
/// stable symbolic address derived from the name (execution dispatches by
/// name, so the address only has to exist); anything else is the paper's
/// remote-linking failure.
impl SymbolResolver for LoadedLibs {
    fn resolve(&self, symbol: &str) -> Option<u64> {
        let fnv1a = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        let h = symbol.bytes().fold(0xcbf2_9ce4_8422_2325, fnv1a);
        self.links(symbol)
            .then_some(0x6000_0000_0000 | (h & 0xffff_ffff))
    }
}

/// The [`ExternalHost`] a linked module runs against: its loaded libraries
/// first, then `framework` (the Three-Chains runtime) for everything else.
pub(crate) struct LinkedHost<'a> {
    pub(crate) libs: LoadedLibs,
    pub(crate) framework: &'a mut dyn ExternalHost,
}

impl ExternalHost for LinkedHost<'_> {
    fn call_external(&mut self, symbol: &str, args: &[u64], mem: &mut dyn Memory) -> Result<u64> {
        match self.libs.export(symbol) {
            Some(&(_, arity, _)) if args.len() != arity => Err(JitError::Host(format!(
                "{symbol} expects {arity} arg{}, got {}",
                if arity == 1 { "" } else { "s" },
                args.len()
            ))),
            Some((_, _, call)) => call(args, mem),
            None => self.framework.call_external(symbol, args, mem),
        }
    }

    fn external_cost(&self, symbol: &str) -> u64 {
        match self.libs.export(symbol) {
            Some(_) => LIBRARY_CALL_CYCLES,
            None => self.framework.external_cost(symbol),
        }
    }
}

fn memcpy(a: &[u64], mem: &mut dyn Memory) -> Result<u64> {
    let mut buf = vec![0u8; a[2] as usize];
    mem.read(a[1], &mut buf)?;
    mem.write(a[0], &buf)?;
    Ok(a[0])
}

fn memset(a: &[u64], mem: &mut dyn Memory) -> Result<u64> {
    mem.write(a[0], &vec![a[1] as u8; a[2] as usize])?;
    Ok(a[0])
}

fn strlen_u64(a: &[u64], mem: &mut dyn Memory) -> Result<u64> {
    let mut len = 0u64;
    loop {
        let mut b = [0u8; 1];
        mem.read(a[0].wrapping_add(len), &mut b)?;
        if b[0] == 0 {
            return Ok(len);
        }
        len += 1;
        if len > 1 << 20 {
            return Err(JitError::Host("strlen_u64 runaway".into()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NoExternals, VecMemory};

    fn loaded(deps: &[&str]) -> LoadedLibs {
        let deps: Vec<String> = deps.iter().map(|d| d.to_string()).collect();
        LoadedLibs::load(&deps).unwrap()
    }

    #[test]
    fn registry_loads_known_deps_and_rejects_unknown() {
        let libs = loaded(&["libc.so", "libm.so"]);
        assert!(libs.export("memcpy").is_some());
        assert!(libs.export("sqrt").is_some());
        assert!(libs.export("nonexistent").is_none());
        assert!(loaded(&["libc.so"]).export("sqrt").is_none());

        let err = LoadedLibs::load(&["libomp.so".into()]).unwrap_err();
        assert_eq!(
            err,
            JitError::MissingDependency {
                library: "libomp.so".into()
            }
        );
    }

    #[test]
    fn the_resolver_answers_the_framework_and_loaded_exports_only() {
        let libs = loaded(&["libm.so"]);
        assert!(libs.resolve("tc_put").is_some());
        assert!(libs.resolve("sqrt").is_some());
        assert_eq!(libs.resolve("memcpy"), None, "libc.so is not loaded");
        assert_eq!(libs.resolve("omp_get_num_threads"), None);
        assert_eq!(libs.resolve("sqrt"), libs.resolve("sqrt"));
        assert_ne!(libs.resolve("sqrt"), libs.resolve("fabs"));
    }

    #[test]
    fn memcpy_and_memset_work_on_node_memory() {
        let mut mem = VecMemory::new(0, 256);
        mem.write(0, b"hello world").unwrap();
        let mut none = NoExternals;
        let mut host = LinkedHost {
            libs: loaded(&["libc.so"]),
            framework: &mut none,
        };
        host.call_external("memcpy", &[100, 0, 11], &mut mem)
            .unwrap();
        let mut buf = [0u8; 11];
        mem.read(100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");

        host.call_external("memset", &[0, 0xAB, 4], &mut mem)
            .unwrap();
        let mut buf = [0u8; 4];
        mem.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 4]);
        mem.write(200, b"abc\0").unwrap();
        assert_eq!(
            host.call_external("strlen_u64", &[200], &mut mem).unwrap(),
            3
        );
        assert_eq!(host.external_cost("memcpy"), LIBRARY_CALL_CYCLES);
    }

    #[test]
    fn libm_math_roundtrips_f64_bits() {
        let mut mem = VecMemory::new(0, 8);
        let mut none = NoExternals;
        let mut host = LinkedHost {
            libs: loaded(&["libm.so"]),
            framework: &mut none,
        };
        let r = host
            .call_external("sqrt", &[144.0f64.to_bits()], &mut mem)
            .unwrap();
        assert_eq!(f64::from_bits(r), 12.0);
        let r = host
            .call_external("fabs", &[(-3.5f64).to_bits()], &mut mem)
            .unwrap();
        assert_eq!(f64::from_bits(r), 3.5);
        let r = host
            .call_external("pow2", &[3.0f64.to_bits()], &mut mem)
            .unwrap();
        assert_eq!(f64::from_bits(r), 9.0);
    }

    #[test]
    fn fallback_host_is_consulted_for_unknown_symbols() {
        struct Framework;
        impl ExternalHost for Framework {
            fn call_external(
                &mut self,
                symbol: &str,
                _args: &[u64],
                _mem: &mut dyn Memory,
            ) -> Result<u64> {
                if symbol == "tc_node_id" {
                    Ok(3)
                } else {
                    Err(JitError::UnresolvedSymbol {
                        symbol: symbol.into(),
                    })
                }
            }

            fn external_cost(&self, _symbol: &str) -> u64 {
                5
            }
        }
        let mut framework = Framework;
        let mut host = LinkedHost {
            libs: loaded(&["libm.so"]),
            framework: &mut framework,
        };
        let mut mem = VecMemory::new(0, 8);
        assert_eq!(host.call_external("tc_node_id", &[], &mut mem).unwrap(), 3);
        assert_eq!(host.external_cost("tc_node_id"), 5);
        // memcpy is exported, but by a library this module did not load.
        assert!(host.call_external("memcpy", &[0, 0, 0], &mut mem).is_err());
        assert!(host.call_external("missing", &[], &mut mem).is_err());
    }

    #[test]
    fn bad_arity_is_a_host_error() {
        let mut mem = VecMemory::new(0, 8);
        let mut none = NoExternals;
        let mut host = LinkedHost {
            libs: loaded(&["libc.so", "libm.so"]),
            framework: &mut none,
        };
        let err = host.call_external("memcpy", &[1, 2], &mut mem).unwrap_err();
        assert_eq!(err, JitError::Host("memcpy expects 3 args, got 2".into()));
        let err = host.call_external("sqrt", &[], &mut mem).unwrap_err();
        assert_eq!(err, JitError::Host("sqrt expects 1 arg, got 0".into()));
    }
}
