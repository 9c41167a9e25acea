//! Simulated shared libraries and the dependency registry.
//!
//! Bitcode ifuncs in the paper ship a `.deps` file listing the shared
//! libraries they need (e.g. `libomp.so`, `libcrypto.so`); the target runtime
//! loads those libraries and lets ORC-JIT resolve symbols against them.  The
//! reproduction models a library as a named bag of host-implemented functions
//! ([`HostFn`]); the [`DylibRegistry`] is the per-process set of libraries
//! available for loading, and a [`DylibHost`] adapts a set of *loaded*
//! libraries into the execution engine's [`ExternalHost`] interface.

use crate::engine::{ExternalHost, Memory};
use crate::error::{JitError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// A host-implemented library function.
///
/// Receives the argument registers and the node memory; returns the function
/// result (0 for void functions).
pub type HostFn = Arc<dyn Fn(&[u64], &mut dyn Memory) -> Result<u64> + Send + Sync>;

/// A simulated shared library: a name plus its exported functions.
#[derive(Clone)]
pub struct Dylib {
    /// Library file name (e.g. `"libm.so"`).
    pub name: String,
    functions: HashMap<String, HostFn>,
}

impl std::fmt::Debug for Dylib {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dylib")
            .field("name", &self.name)
            .field("symbols", &self.functions.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Dylib {
    /// Create an empty library.
    pub fn new(name: impl Into<String>) -> Self {
        Dylib {
            name: name.into(),
            functions: HashMap::new(),
        }
    }

    /// Export a function from this library.
    pub fn export<F>(&mut self, symbol: impl Into<String>, f: F) -> &mut Self
    where
        F: Fn(&[u64], &mut dyn Memory) -> Result<u64> + Send + Sync + 'static,
    {
        self.functions.insert(symbol.into(), Arc::new(f));
        self
    }

    /// Look up an exported function.
    pub fn lookup(&self, symbol: &str) -> Option<&HostFn> {
        self.functions.get(symbol)
    }
}

/// The per-process registry of shared libraries available for loading.
#[derive(Debug)]
pub struct DylibRegistry {
    libs: HashMap<String, Dylib>,
}

impl DylibRegistry {
    /// Registry of the standard simulated libraries ([`standard_libc`],
    /// [`standard_libm`]).
    pub fn with_standard_libs() -> Self {
        let libs = [standard_libc(), standard_libm()]
            .into_iter()
            .map(|lib| (lib.name.clone(), lib))
            .collect();
        DylibRegistry { libs }
    }

    /// Load the libraries named in `deps`, failing on the first one that is
    /// not available (the paper's "dependency must be present on the target"
    /// requirement).
    pub fn load(&self, deps: &[String]) -> Result<LoadedDylibs> {
        let mut loaded = Vec::with_capacity(deps.len());
        for dep in deps {
            let lib = self
                .libs
                .get(dep)
                .ok_or_else(|| JitError::MissingDependency {
                    library: dep.clone(),
                })?;
            loaded.push(lib.clone());
        }
        Ok(LoadedDylibs { libs: loaded })
    }
}

/// The set of libraries loaded for a particular ifunc, in dependency order.
#[derive(Debug)]
pub struct LoadedDylibs {
    libs: Vec<Dylib>,
}

impl LoadedDylibs {
    /// Resolve a symbol across the loaded libraries (first match wins).
    pub fn lookup(&self, symbol: &str) -> Option<&HostFn> {
        self.libs.iter().find_map(|l| l.lookup(symbol))
    }
}

/// An [`ExternalHost`] that resolves symbols against loaded dylibs and
/// falls back to an inner host (typically the framework runtime) for
/// everything else.
pub struct DylibHost<'a> {
    loaded: &'a LoadedDylibs,
    fallback: &'a mut dyn ExternalHost,
}

impl<'a> DylibHost<'a> {
    /// Host resolving against `loaded` first, then `fallback`.
    pub fn new(loaded: &'a LoadedDylibs, fallback: &'a mut dyn ExternalHost) -> Self {
        DylibHost { loaded, fallback }
    }
}

impl ExternalHost for DylibHost<'_> {
    fn call_external(&mut self, symbol: &str, args: &[u64], mem: &mut dyn Memory) -> Result<u64> {
        match self.loaded.lookup(symbol) {
            Some(f) => f(args, mem),
            None => self.fallback.call_external(symbol, args, mem),
        }
    }

    fn external_cost(&self, symbol: &str) -> u64 {
        if self.loaded.lookup(symbol).is_some() {
            20
        } else {
            self.fallback.external_cost(symbol)
        }
    }
}

/// The simulated `libc.so`: `memcpy`, `memset`, `strlen_u64`.
///
/// All functions use the (address, address/byte, length) calling convention
/// over node memory.
fn standard_libc() -> Dylib {
    let mut lib = Dylib::new("libc.so");
    lib.export("memcpy", |args, mem| {
        let (dst, src, n) = three_args("memcpy", args)?;
        let mut buf = vec![0u8; n as usize];
        mem.read(src, &mut buf)?;
        mem.write(dst, &buf)?;
        Ok(dst)
    });
    lib.export("memset", |args, mem| {
        let (dst, value, n) = three_args("memset", args)?;
        let buf = vec![value as u8; n as usize];
        mem.write(dst, &buf)?;
        Ok(dst)
    });
    lib.export("strlen_u64", |args, mem| {
        let addr = one_arg("strlen_u64", args)?;
        let mut len = 0u64;
        loop {
            let mut b = [0u8; 1];
            mem.read(addr + len, &mut b)?;
            if b[0] == 0 {
                return Ok(len);
            }
            len += 1;
            if len > 1 << 20 {
                return Err(JitError::Host("strlen_u64 runaway".into()));
            }
        }
    });
    lib
}

/// The simulated `libm.so`: `sqrt`, `fabs`, `pow2` operating on f64 bit
/// patterns passed in registers.
fn standard_libm() -> Dylib {
    let mut lib = Dylib::new("libm.so");
    lib.export("sqrt", |args, _mem| {
        let x = f64::from_bits(one_arg("sqrt", args)?);
        Ok(x.sqrt().to_bits())
    });
    lib.export("fabs", |args, _mem| {
        let x = f64::from_bits(one_arg("fabs", args)?);
        Ok(x.abs().to_bits())
    });
    lib.export("pow2", |args, _mem| {
        let x = f64::from_bits(one_arg("pow2", args)?);
        Ok((x * x).to_bits())
    });
    lib
}

fn one_arg(name: &str, args: &[u64]) -> Result<u64> {
    if args.len() != 1 {
        return Err(JitError::Host(format!(
            "{name} expects 1 arg, got {}",
            args.len()
        )));
    }
    Ok(args[0])
}

fn three_args(name: &str, args: &[u64]) -> Result<(u64, u64, u64)> {
    if args.len() != 3 {
        return Err(JitError::Host(format!(
            "{name} expects 3 args, got {}",
            args.len()
        )));
    }
    Ok((args[0], args[1], args[2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NoExternals, VecMemory};

    #[test]
    fn registry_loads_known_deps_and_rejects_unknown() {
        let reg = DylibRegistry::with_standard_libs();
        let loaded = reg.load(&["libc.so".into(), "libm.so".into()]).unwrap();
        assert_eq!(loaded.libs.len(), 2);
        assert!(loaded.lookup("memcpy").is_some());
        assert!(loaded.lookup("sqrt").is_some());
        assert!(loaded.lookup("nonexistent").is_none());

        let err = reg.load(&["libomp.so".into()]).unwrap_err();
        assert_eq!(
            err,
            JitError::MissingDependency {
                library: "libomp.so".into()
            }
        );
    }

    #[test]
    fn memcpy_and_memset_work_on_node_memory() {
        let reg = DylibRegistry::with_standard_libs();
        let loaded = reg.load(&["libc.so".into()]).unwrap();
        let mut mem = VecMemory::new(0, 256);
        mem.write(0, b"hello world").unwrap();
        let mut none = NoExternals;
        let mut host = DylibHost::new(&loaded, &mut none);
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
    }

    #[test]
    fn libm_math_roundtrips_f64_bits() {
        let reg = DylibRegistry::with_standard_libs();
        let loaded = reg.load(&["libm.so".into()]).unwrap();
        let mut mem = VecMemory::new(0, 8);
        let mut none = NoExternals;
        let mut host = DylibHost::new(&loaded, &mut none);
        let r = host
            .call_external("sqrt", &[144.0f64.to_bits()], &mut mem)
            .unwrap();
        assert_eq!(f64::from_bits(r), 12.0);
        let r = host
            .call_external("fabs", &[(-3.5f64).to_bits()], &mut mem)
            .unwrap();
        assert_eq!(f64::from_bits(r), 3.5);
    }

    #[test]
    fn fallback_host_is_consulted_for_unknown_symbols() {
        struct Fallback;
        impl ExternalHost for Fallback {
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
        }
        let reg = DylibRegistry::with_standard_libs();
        let loaded = reg.load(&["libm.so".into()]).unwrap();
        let mut fb = Fallback;
        let mut host = DylibHost::new(&loaded, &mut fb);
        let mut mem = VecMemory::new(0, 8);
        assert_eq!(host.call_external("tc_node_id", &[], &mut mem).unwrap(), 3);
        assert!(host.call_external("missing", &[], &mut mem).is_err());
    }

    #[test]
    fn bad_arity_is_a_host_error() {
        let reg = DylibRegistry::with_standard_libs();
        let loaded = reg.load(&["libc.so".into()]).unwrap();
        let mut mem = VecMemory::new(0, 8);
        let mut none = NoExternals;
        let mut host = DylibHost::new(&loaded, &mut none);
        let err = host.call_external("memcpy", &[1, 2], &mut mem).unwrap_err();
        assert!(matches!(err, JitError::Host(_)));
    }
}
