//! Simulated shared libraries: one static table, the set a module loads, and
//! the host its external calls go through.
//!
//! Shipped ifuncs — bitcode and binary alike — name the shared libraries
//! they need (the paper's `.deps` file, e.g. `libm.so`); the target loads
//! them and resolves the code's external symbols against them and the
//! framework (remote dynamic linking).  The reproduction's libraries are the
//! rows of one static table of host functions; [`LoadedLibs`] is the set of
//! rows one module loaded, and it is both the GOT resolver a binary object is
//! loaded against and what the engine answers a running module's external
//! calls from first, before the framework.
//!
//! An export is a guest's call into its host, so it is bounded as the guest
//! is: the work a length argument asks for is charged to the run's fuel
//! before any of it is done, and the bytes move through a fixed buffer, so
//! no length a guest passes sizes an allocation.

use crate::engine::{Fuel, Memory};
use crate::error::{JitError, Result};
use tc_binfmt::SymbolResolver;

/// Virtual cycles charged for a call into a loaded library.
const LIBRARY_CALL_CYCLES: u64 = 20;

/// Bytes `memcpy` and `memset` move through their buffer at a time.
const CHUNK: usize = 4096;

/// Bytes `memcpy` and `memset` copy or set for one unit of fuel: a word, as
/// the loop of 64-bit loads and stores they stand for would.
const BYTES_PER_FUEL: u64 = 8;

/// An exported host function: its symbol, its arity, and the function,
/// called with exactly that many arguments, the node memory and the run's
/// fuel, returning the result (0 for void functions).
type Export = (
    &'static str,
    usize,
    fn(&[u64], &mut dyn Memory, &mut Fuel) -> Result<u64>,
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
            ("sqrt", 1, |a, _, _| {
                Ok(f64::from_bits(a[0]).sqrt().to_bits())
            }),
            ("fabs", 1, |a, _, _| {
                Ok(f64::from_bits(a[0]).abs().to_bits())
            }),
            ("pow2", 1, |a, _, _| {
                let x = f64::from_bits(a[0]);
                Ok((x * x).to_bits())
            }),
        ],
    ),
];

/// What an external symbol names, decided once — when a module's ops are
/// emitted — so that a call answers by this id and looks nothing up by name:
/// one of the framework's services (answered by the runtime's host), an
/// export of the library table, or neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostCall {
    /// `tc_node_id()`: the executing node's rank.
    NodeId,
    /// `tc_num_nodes()`: the number of nodes in the job.
    NumNodes,
    /// `tc_put(dst_node, remote_addr, local_addr, len)`.
    Put,
    /// `tc_forward_self(dst_node, payload_addr, payload_len)`.
    ForwardSelf,
    /// `tc_return_result(dst_node, slot, value)`.
    ReturnResult,
    /// `tc_self_name_len()`: the length of the executing ifunc's name.
    SelfNameLen,
    /// Export `.1` of row `.0` of the library table.
    Library(u8, u8),
    /// A name neither the framework nor the library table exports.
    Unresolved,
}

impl HostCall {
    /// The call `symbol` names.
    pub fn of(symbol: &str) -> HostCall {
        match symbol {
            "tc_node_id" => HostCall::NodeId,
            "tc_num_nodes" => HostCall::NumNodes,
            "tc_put" => HostCall::Put,
            "tc_forward_self" => HostCall::ForwardSelf,
            "tc_return_result" => HostCall::ReturnResult,
            "tc_self_name_len" => HostCall::SelfNameLen,
            _ => LIBRARIES
                .iter()
                .enumerate()
                .find_map(|(row, (_, exports))| {
                    let i = exports.iter().position(|(name, _, _)| *name == symbol)?;
                    Some(HostCall::Library(row as u8, i as u8))
                })
                .unwrap_or(HostCall::Unresolved),
        }
    }
}

/// The libraries loaded for one module: a set of rows of the static table.
#[derive(Debug, Clone, Copy)]
pub struct LoadedLibs {
    rows: u32,
}

impl LoadedLibs {
    /// Every library loaded: what a front end may let a program call.
    pub const ALL: LoadedLibs = LoadedLibs { rows: u32::MAX };

    /// No library loaded: every external call is the host's.
    pub(crate) const NONE: LoadedLibs = LoadedLibs { rows: 0 };

    /// Load the libraries `deps` names, failing on the first one the table
    /// does not hold (the paper's "dependency must be present on the
    /// target" requirement).
    pub fn load(deps: &[String]) -> Result<Self> {
        let add = |libs: LoadedLibs, dep: &String| Ok(libs.with(dep)?.0);
        deps.iter().try_fold(LoadedLibs::NONE, add)
    }

    /// These libraries and the one `dep` names, and whether it was not
    /// loaded yet; a name the table does not hold is refused as
    /// [`LoadedLibs::load`] refuses it.
    pub fn with(self, dep: &str) -> Result<(Self, bool)> {
        let row = LIBRARIES
            .iter()
            .position(|(name, _)| *name == dep)
            .ok_or_else(|| JitError::MissingDependency {
                library: dep.to_string(),
            })?;
        let rows = self.rows | 1 << row;
        Ok((LoadedLibs { rows }, rows != self.rows))
    }

    /// Whether code linked against these libraries may call `symbol`: a
    /// framework service (`tc_put`, `tc_forward_self`, …, answered by the
    /// runtime's host) or a loaded export.
    pub fn links(self, symbol: &str) -> bool {
        symbol.starts_with("tc_") || self.get(HostCall::of(symbol)).is_some()
    }

    /// The export `call` names, if its library is loaded.
    fn get(self, call: HostCall) -> Option<&'static Export> {
        match call {
            HostCall::Library(row, i) if self.rows & (1 << row) != 0 => {
                LIBRARIES[usize::from(row)].1.get(usize::from(i))
            }
            _ => None,
        }
    }

    /// Answer `call` if it names an export of a loaded library: its value
    /// and cycles, its work charged to `fuel`.  `None` for anything else,
    /// which the framework answers.
    pub(crate) fn call(
        self,
        call: HostCall,
        symbol: &str,
        args: &[u64],
        mem: &mut dyn Memory,
        fuel: &mut Fuel,
    ) -> Option<Result<(u64, u64)>> {
        let &(_, arity, export) = self.get(call)?;
        if args.len() != arity {
            return Some(Err(JitError::Host(format!(
                "{symbol} expects {arity} arg{}, got {}",
                if arity == 1 { "" } else { "s" },
                args.len()
            ))));
        }
        Some(export(args, mem, fuel).map(|value| (value, LIBRARY_CALL_CYCLES)))
    }
}

/// A binary object's GOT resolver: what [`LoadedLibs::links`] resolves, to a
/// stable symbolic address derived from the name (execution dispatches by
/// [`HostCall`], so the address only has to exist); anything else is the
/// paper's remote-linking failure.
impl SymbolResolver for LoadedLibs {
    fn resolve(&self, symbol: &str) -> Option<u64> {
        let fnv1a = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        let h = symbol.bytes().fold(0xcbf2_9ce4_8422_2325, fnv1a);
        self.links(symbol)
            .then_some(0x6000_0000_0000 | (h & 0xffff_ffff))
    }
}

/// `memcpy(dst, src, len)`, back to front when `dst` overlaps the source
/// from above, so an overlapping copy moves what a one-shot copy would.
fn memcpy(a: &[u64], mem: &mut dyn Memory, fuel: &mut Fuel) -> Result<u64> {
    let [dst, src, len] = [a[0], a[1], a[2]];
    fuel.burn(len.div_ceil(BYTES_PER_FUEL))?;
    let mut buf = [0u8; CHUNK];
    for (at, n) in chunks(len, dst.wrapping_sub(src) < len) {
        mem.read(src.wrapping_add(at), &mut buf[..n])?;
        mem.write(dst.wrapping_add(at), &buf[..n])?;
    }
    Ok(dst)
}

/// `memset(dst, byte, len)`.
fn memset(a: &[u64], mem: &mut dyn Memory, fuel: &mut Fuel) -> Result<u64> {
    let [dst, byte, len] = [a[0], a[1], a[2]];
    fuel.burn(len.div_ceil(BYTES_PER_FUEL))?;
    let buf = [byte as u8; CHUNK];
    for (at, n) in chunks(len, false) {
        mem.write(dst.wrapping_add(at), &buf[..n])?;
    }
    Ok(dst)
}

/// `len` bytes as `(offset, length)` pieces of at most [`CHUNK`], front to
/// back or back to front.
fn chunks(len: u64, backwards: bool) -> impl Iterator<Item = (u64, usize)> {
    (0..len.div_ceil(CHUNK as u64)).map(move |i| {
        let (at, n) = (i * CHUNK as u64, (len - i * CHUNK as u64).min(CHUNK as u64));
        (if backwards { len - at - n } else { at }, n as usize)
    })
}

/// `strlen_u64(s)`: a unit of fuel per byte it reads.
fn strlen_u64(a: &[u64], mem: &mut dyn Memory, fuel: &mut Fuel) -> Result<u64> {
    let mut len = 0u64;
    loop {
        fuel.burn(1)?;
        let mut b = [0u8; 1];
        mem.read(a[0].wrapping_add(len), &mut b)?;
        if b[0] == 0 {
            return Ok(len);
        }
        len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExternalHost, NoExternals, VecMemory};

    fn loaded(deps: &[&str]) -> LoadedLibs {
        let deps: Vec<String> = deps.iter().map(|d| d.to_string()).collect();
        LoadedLibs::load(&deps).unwrap()
    }

    #[test]
    fn registry_loads_known_deps_and_rejects_unknown() {
        let libs = loaded(&["libc.so", "libm.so"]);
        assert!(libs.get(HostCall::of("memcpy")).is_some());
        assert!(libs.get(HostCall::of("sqrt")).is_some());
        assert!(libs.get(HostCall::of("nonexistent")).is_none());
        assert!(loaded(&["libc.so"]).get(HostCall::of("sqrt")).is_none());

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

    /// Call `symbol` as the engine does for a module linked against
    /// `libs`: a loaded export here, on unlimited fuel, anything else by
    /// `framework`.
    fn call(
        libs: LoadedLibs,
        framework: &mut dyn ExternalHost,
        symbol: &str,
        args: &[u64],
        mem: &mut dyn Memory,
    ) -> Result<(u64, u64)> {
        let call = HostCall::of(symbol);
        let mut fuel = Fuel {
            left: u64::MAX,
            retired: 0,
        };
        match libs.call(call, symbol, args, mem, &mut fuel) {
            Some(answer) => answer,
            None => framework.call_host(call, symbol, args, mem),
        }
    }

    #[test]
    fn memcpy_and_memset_work_on_node_memory() {
        let mut mem = VecMemory::new(0, 256);
        mem.write(0, b"hello world").unwrap();
        let libs = loaded(&["libc.so"]);
        let call = |symbol, args: &[u64], mem: &mut VecMemory| {
            call(libs, &mut NoExternals, symbol, args, mem).map(|(v, _)| v)
        };
        call("memcpy", &[100, 0, 11], &mut mem).unwrap();
        let mut buf = [0u8; 11];
        mem.read(100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");

        call("memset", &[0, 0xAB, 4], &mut mem).unwrap();
        let mut buf = [0u8; 4];
        mem.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 4]);
        mem.write(200, b"abc\0").unwrap();
        assert_eq!(call("strlen_u64", &[200], &mut mem).unwrap(), 3);
    }

    /// A copy longer than the buffer it moves through, onto its own source
    /// shifted up or down, leaves what a one-shot copy would.
    #[test]
    fn an_overlapping_copy_longer_than_a_chunk_moves_what_one_copy_would() {
        let len = CHUNK as u64 * 2 + 100;
        let image: Vec<u8> = (0..len + 200).map(|i| (i * 7 % 251) as u8).collect();
        for (dst, src) in [(150, 50), (50, 150), (50, 50)] {
            let mut mem = VecMemory::new(0, image.len());
            mem.write(0, &image).unwrap();
            let libs = loaded(&["libc.so"]);
            call(libs, &mut NoExternals, "memcpy", &[dst, src, len], &mut mem).unwrap();
            let mut want = image.clone();
            want.copy_within(src as usize..(src + len) as usize, dst as usize);
            assert!(mem.as_slice() == want.as_slice(), "{dst} <- {src}");
        }
    }

    /// The work a length asks for is charged before any is done: a copy or
    /// fill the fuel left cannot pay leaves memory as it was, and a string
    /// read stops where the fuel does.
    #[test]
    fn library_work_is_charged_to_the_fuel_before_it_is_done() {
        let libs = loaded(&["libc.so"]);
        let mut mem = VecMemory::new(0, 256);
        mem.write(0, &[b'x'; 100]).unwrap();
        let before = mem.as_slice().to_vec();
        let mut fuel = Fuel {
            left: 12,
            retired: 3,
        };
        let run = |symbol: &str, args: &[u64], mem: &mut VecMemory, fuel: &mut Fuel| {
            let call = HostCall::of(symbol);
            libs.call(call, symbol, args, mem, fuel).unwrap()
        };
        let out_of_fuel = Err(JitError::OutOfFuel { executed: 3 });
        assert_eq!(
            run("memcpy", &[128, 0, 97], &mut mem, &mut fuel),
            out_of_fuel
        );
        let fill = [128, 1, 1 << 40];
        assert_eq!(run("memset", &fill, &mut mem, &mut fuel), out_of_fuel);
        assert_eq!(run("strlen_u64", &[0], &mut mem, &mut fuel), out_of_fuel);
        assert!(mem.as_slice() == before.as_slice());
        let mut fuel = Fuel {
            left: 12,
            retired: 3,
        };
        let copied = run("memcpy", &[128, 0, 96], &mut mem, &mut fuel);
        assert_eq!((copied, fuel.left), (Ok((128, 20)), 0));
        assert_eq!(&mem.as_slice()[128..224], &before[..96]);
    }

    #[test]
    fn libm_math_roundtrips_f64_bits() {
        let mut mem = VecMemory::new(0, 8);
        let libs = loaded(&["libm.so"]);
        let mut call = |symbol, x: f64| {
            let (bits, _) = call(libs, &mut NoExternals, symbol, &[x.to_bits()], &mut mem).unwrap();
            f64::from_bits(bits)
        };
        assert_eq!(call("sqrt", 144.0), 12.0);
        assert_eq!(call("fabs", -3.5), 3.5);
        assert_eq!(call("pow2", 3.0), 9.0);
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
        let libs = loaded(&["libm.so"]);
        let mut mem = VecMemory::new(0, 8);
        let mut call = |symbol, args: &[u64]| call(libs, &mut Framework, symbol, args, &mut mem);
        assert_eq!(call("tc_node_id", &[]), Ok((3, 5)));
        // memcpy is exported, but by a library this module did not load.
        assert!(call("memcpy", &[0, 0, 0]).is_err());
        assert!(call("missing", &[]).is_err());
    }

    #[test]
    fn bad_arity_is_a_host_error() {
        let mut mem = VecMemory::new(0, 8);
        let libs = loaded(&["libc.so", "libm.so"]);
        let mut call = |symbol, args: &[u64]| call(libs, &mut NoExternals, symbol, args, &mut mem);
        let err = call("memcpy", &[1, 2]).unwrap_err();
        assert_eq!(err, JitError::Host("memcpy expects 3 args, got 2".into()));
        let err = call("sqrt", &[]).unwrap_err();
        assert_eq!(err, JitError::Host("sqrt expects 1 arg, got 0".into()));
    }

    /// Every export of every library answers a compiled call — by the id
    /// fixed when its op was emitted — as it answers a call resolved by
    /// name at the call: the same value, the same cycles, the same memory;
    /// and an export of a library the module did not load, or a name
    /// nothing exports, is refused alike, with the same typed error.
    #[test]
    fn every_export_answers_the_same_by_id_as_by_name() {
        use crate::compile::{compile_module, CompileOptions};
        use crate::engine::Engine;
        use tc_bitir::{ModuleBuilder, ScalarType};

        let args = |symbol: &str| -> Vec<u64> {
            match symbol {
                "memcpy" => vec![100, 0, 11],
                "memset" => vec![0, 0xAB, 4],
                "strlen_u64" => vec![200],
                _ => vec![2.25f64.to_bits()],
            }
        };
        let run = |deps: &[&str], symbol: &str, by_id: bool| {
            let mut mem = VecMemory::new(0, 256);
            mem.write(0, b"hello world").unwrap();
            mem.write(200, b"abc\0").unwrap();
            let (libs, args) = (loaded(deps), args(symbol));
            let answer = match by_id {
                true => {
                    let mut mb = ModuleBuilder::new("one_call");
                    let mut f = mb.function("call", vec![], Some(ScalarType::U64));
                    let regs = args.iter().map(|&a| f.const_u64(a)).collect();
                    let value = f.call_ext(symbol, regs, true).unwrap();
                    f.ret(value);
                    f.finish();
                    let mut module = compile_module(&mb.build(), CompileOptions::default())
                        .unwrap()
                        .module;
                    module.program.libs = libs;
                    let engine = Engine::new();
                    let (mem, host) = (&mut mem, &mut NoExternals);
                    engine
                        .run_index(&module, 0, &[], &[], mem, host)
                        .map(|out| (out.return_value, out.cycles))
                }
                false => call(libs, &mut NoExternals, symbol, &args, &mut mem),
            };
            (answer, mem.as_slice().to_vec())
        };
        let mut exports = 0;
        for (library, table) in &LIBRARIES {
            for (symbol, arity, _) in table.iter() {
                assert!(matches!(HostCall::of(symbol), HostCall::Library(..)));
                let both = run(&["libc.so", "libm.so"], symbol, false);
                assert_eq!(both.0.as_ref().map(|(_, c)| *c), Ok(LIBRARY_CALL_CYCLES));
                // The compiled call adds its own instructions' cycles: an
                // immediate per argument, the call and the return.
                let compiled = run(&["libc.so", "libm.so"], symbol, true);
                let own = compiled.0.as_ref().unwrap().1 - LIBRARY_CALL_CYCLES;
                let value = both.0.as_ref().unwrap().0;
                assert_eq!(
                    compiled.0,
                    Ok((value, LIBRARY_CALL_CYCLES + own)),
                    "{symbol}"
                );
                assert!(own > *arity as u64, "{symbol}: {own}");
                assert_eq!(compiled.1, both.1, "{symbol}");
                // Not loaded: the framework host refuses it, by id as by name.
                let other = if *library == "libc.so" {
                    "libm.so"
                } else {
                    "libc.so"
                };
                let refused = run(&[other], symbol, true);
                assert_eq!(refused, run(&[other], symbol, false), "{symbol}");
                assert_eq!(
                    refused.0,
                    Err(JitError::UnresolvedSymbol {
                        symbol: symbol.to_string()
                    })
                );
                exports += 1;
            }
        }
        assert_eq!(exports, 6);
        assert_eq!(HostCall::of("nonexistent"), HostCall::Unresolved);
        assert_eq!(
            run(&["libc.so"], "nonexistent", true),
            run(&["libc.so"], "nonexistent", false)
        );
    }
}
