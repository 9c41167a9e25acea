//! Bitcode: the compact binary encoding of an IR module, and the one codec
//! of shipped code.
//!
//! This is the reproduction's analogue of LLVM bitcode: the serialized form
//! of a module that is placed in the `BITCODE` field of an ifunc message
//! frame (Figure 3 of the paper), shipped over the fabric and decoded /
//! JIT-compiled on the target process.
//!
//! Every shipped format — a bitcode module here, a fat-bitcode archive
//! ([`crate::fat`]) and a binary ifunc's `.text` (`tc-jit`'s `machine`) — is
//! a *field table*: [`fields!`] lists a type's fields, and its encoding is
//! theirs in that order, an enum variant's behind its opcode byte.  Integers
//! are LEB128 varints (signed ones zigzagged), operators and types their
//! one-byte tags, a `bool` or an `Option` a 0/1 flag, a `Vec` a count and
//! its elements (bytes as one run), a string its UTF-8 bytes.  Each
//! [`Reader`] primitive answers `None` when the input runs out or holds no
//! valid value — a register varint past `u32`, a flag of 2 — and a format
//! turns that into one [`BitirError::Decode`] naming itself and the offset.
//!
//! The format is deliberately simple, but its *size behaviour* matters for
//! the reproduction: bitcode is several kilobytes even for a trivial kernel,
//! which is exactly what makes the paper's caching protocol worthwhile.  The
//! bulk is metadata padding, written as a run of zeros and skipped unread.

use crate::error::{BitirError, Result};
use crate::ir::{
    AtomicOp, BinOp, Block, BlockId, ExtSymId, FuncId, Function, Global, GlobalId, Inst, LowerInfo,
    Module, Reg, UnOp, VecOp,
};
use crate::types::{AtomicsExt, Isa, Microarch, ScalarType, TargetTriple, VectorExt};

/// Magic bytes at the start of every bitcode stream (`TCBC` = Three-Chains
/// BitCode).
pub const BITCODE_MAGIC: [u8; 4] = *b"TCBC";
/// Current format version.
pub const BITCODE_VERSION: u16 = 3;

/// Amount of padding prepended per function to model the fixed metadata LLVM
/// bitcode carries (attribute groups, type tables, etc.).  Together with
/// [`MODULE_METADATA_BYTES`] this keeps the encoded size of a small kernel at
/// roughly 2.4 KiB per target — the paper's TSI fat-bitcode is 5159 B for two
/// ISAs, i.e. ~2.6 KiB per ISA — without having to encode fake content.
pub const PER_FUNCTION_METADATA_BYTES: usize = 700;
/// Fixed module-level metadata overhead (target datalayout, module flags…).
pub const MODULE_METADATA_BYTES: usize = 1_600;

/// Encode a module into bitcode bytes.
pub fn encode_module(module: &Module) -> Vec<u8> {
    encode_framed(BITCODE_MAGIC, BITCODE_VERSION, module)
}

/// Decode bitcode bytes back into a module.
pub fn decode_module(bytes: &[u8]) -> Result<Module> {
    decode_framed(bytes, BITCODE_MAGIC, BITCODE_VERSION, "bitcode", Field::get)
}

/// `value` behind a magic and a version.
pub(crate) fn encode_framed<T: Field>(magic: [u8; 4], version: u16, value: &T) -> Vec<u8> {
    // A module is a few KiB, most of it padding: one allocation holds it.
    let mut w = Vec::with_capacity(4096);
    w.extend_from_slice(&magic);
    w.extend_from_slice(&version.to_le_bytes());
    value.put(&mut w);
    w
}

/// Read what [`encode_framed`] wrote, the value behind the magic and version
/// by `get` (which may borrow from `bytes`); a wrong magic or version has its
/// own message, anything else malformed is one error at its offset.
pub(crate) fn decode_framed<'a, T>(
    bytes: &'a [u8],
    magic: [u8; 4],
    version: u16,
    format: &str,
    get: impl FnOnce(&mut Reader<'a>) -> Option<T>,
) -> Result<T> {
    let r = &mut Reader::new(bytes);
    let found = r.take(4).ok_or_else(|| r.error(format))?;
    if found != magic {
        return Err(BitirError::Decode(format!(
            "bad {format} magic {found:02x?}, expected {magic:02x?}"
        )));
    }
    match r.u16() {
        Some(v) if v == version => get(r).ok_or_else(|| r.error(format)),
        Some(v) => Err(BitirError::Decode(format!(
            "unsupported {format} version {v} (expected {version})"
        ))),
        None => Err(r.error(format)),
    }
}

// ---------------------------------------------------------------------------
// The reader and the field trait
// ---------------------------------------------------------------------------

/// A checked cursor over shipped bytes: every primitive answers `None` past
/// the end, and never panics.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The one decode error of `format`, at the current offset.
    fn error(&self, format: &str) -> BitirError {
        BitirError::Decode(format!("malformed {format} at offset {}", self.pos))
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let run = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(run)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    /// An unsigned LEB128 varint of at most ten bytes.
    #[inline]
    pub fn varint(&mut self) -> Option<u64> {
        let (mut v, mut shift) = (0u64, 0u32);
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return None;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    /// A zigzag-encoded signed varint.
    #[inline]
    pub fn svarint(&mut self) -> Option<i64> {
        let z = self.varint()?;
        Some((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// A string: its length, then its UTF-8 bytes, borrowed.
    #[inline]
    pub fn str(&mut self) -> Option<&'a str> {
        let n = usize::try_from(self.varint()?).ok()?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    /// Skip a run of `len` bytes of metadata padding without reading it.
    #[inline]
    pub fn skip_padding(&mut self, len: usize) -> Option<()> {
        if self.varint()? != len as u64 {
            return None;
        }
        self.take(len).map(drop)
    }
}

/// One field of a shipped format: how it is written, and read back.
pub trait Field: Sized {
    /// Append the encoding to `w`.
    fn put(&self, w: &mut Vec<u8>);

    /// Read one back: `None` when the input runs out or holds no valid value.
    fn get(r: &mut Reader<'_>) -> Option<Self>;

    /// Append the elements of a `Vec` after its count, one by one unless
    /// the type writes a run at once.
    #[inline]
    fn put_run(run: &[Self], w: &mut Vec<u8>) {
        run.iter().for_each(|v| v.put(w));
    }

    /// Read the `n` elements of a `Vec`.
    #[inline]
    fn get_run(n: usize, r: &mut Reader<'_>) -> Option<Vec<Self>> {
        // Every field takes at least a byte: a hostile count is bounded by
        // the input left.
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(Self::get(r)?);
        }
        Some(out)
    }
}

/// A byte; a run of them is one copy.
impl Field for u8 {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        w.push(*self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        r.u8()
    }
    #[inline]
    fn put_run(run: &[u8], w: &mut Vec<u8>) {
        w.extend_from_slice(run);
    }
    #[inline]
    fn get_run(n: usize, r: &mut Reader<'_>) -> Option<Vec<u8>> {
        r.take(n).map(<[u8]>::to_vec)
    }
}

/// A count, then the elements.
impl<T: Field> Field for Vec<T> {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u64).put(w);
        T::put_run(self, w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let n = usize::try_from(r.varint()?).ok()?;
        T::get_run(n, r)
    }
}

/// A 0/1 flag, then the value if there is one.
impl<T: Field> Field for Option<T> {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match bool::get(r)? {
            true => T::get(r).map(Some),
            false => Some(None),
        }
    }
}

/// Scalars written by hand.
macro_rules! scalar {
    ($($ty:ty => |$w:ident, $v:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl Field for $ty {
            #[inline]
            fn put(&self, $w: &mut Vec<u8>) {
                let $v = self;
                $put
            }
            #[inline]
            fn get($r: &mut Reader<'_>) -> Option<Self> {
                $get
            }
        }
    )*};
}
scalar! {
    bool => |w, v| w.push(u8::from(*v)), |r| match r.u8()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    };
    u64 => |w, v| {
        let mut v = *v;
        while v >= 0x80 {
            w.push(v as u8 | 0x80);
            v >>= 7;
        }
        w.push(v as u8);
    }, |r| r.varint();
    u32 => |w, v| u64::from(*v).put(w), |r| u32::try_from(r.varint()?).ok();
    i64 => |w, v| (((*v << 1) ^ (*v >> 63)) as u64).put(w), |r| r.svarint();
    String => |w, v| {
        (v.len() as u64).put(w);
        w.extend_from_slice(v.as_bytes());
    }, |r| r.str().map(str::to_owned);
}

/// Operators, types and target parts, by their one-byte tags.
macro_rules! by_tag {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                w.push(self.tag());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                Self::from_tag(r.u8()?)
            }
        }
    )*};
}
by_tag!(ScalarType, BinOp, UnOp, AtomicOp, VecOp, Isa, Microarch, VectorExt, AtomicsExt);

/// The field table of a struct — `fields!(Ty { a, b })`, tuple fields by
/// index, then optionally `pad N` bytes of metadata padding — or of an
/// enum, each variant behind its opcode byte: `fields!(Ty: 1 => V { a }, …)`.
#[macro_export]
macro_rules! fields {
    ($ty:ident { $($f:tt),* } $(pad $pad:expr)?) => {
        impl $crate::bitcode::Field for $ty {
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                $($crate::bitcode::Field::put(&self.$f, w);)*
                $(
                    $crate::bitcode::Field::put(&($pad as u64), w);
                    w.resize(w.len() + $pad, 0);
                )?
            }
            #[inline]
            fn get(r: &mut $crate::bitcode::Reader<'_>) -> Option<Self> {
                let v = $ty { $($f: $crate::bitcode::Field::get(r)?),* };
                $(r.skip_padding($pad)?;)?
                Some(v)
            }
        }
    };
    ($ty:ident: $($op:literal => $v:ident { $($f:ident),* }),* $(,)?) => {
        impl $crate::bitcode::Field for $ty {
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                match self {
                    $($ty::$v { $($f),* } => {
                        w.push($op);
                        $($crate::bitcode::Field::put($f, w);)*
                    })*
                }
            }
            #[inline]
            fn get(r: &mut $crate::bitcode::Reader<'_>) -> Option<Self> {
                Some(match r.u8()? {
                    $($op => $ty::$v { $($f: $crate::bitcode::Field::get(r)?),* },)*
                    _ => return None,
                })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// The bitcode tables
// ---------------------------------------------------------------------------

/// A triple is its two tags, and must be a consistent pair.
impl Field for TargetTriple {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        self.isa.put(w);
        self.march.put(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        TargetTriple::new(Isa::get(r)?, Microarch::get(r)?)
    }
}

fields!(Reg { 0 });
fields!(BlockId { 0 });
fields!(FuncId { 0 });
fields!(GlobalId { 0 });
fields!(ExtSymId { 0 });
fields!(Inst:
    1 => Const { dst, ty, bits },
    2 => Move { dst, src },
    3 => Bin { op, ty, dst, lhs, rhs },
    4 => Un { op, ty, dst, src },
    5 => Load { ty, dst, addr, offset },
    6 => Store { ty, src, addr, offset },
    7 => Atomic { op, ty, dst, addr, src, expected },
    8 => Vec { op, ty, dst_addr, a_addr, b_addr, count },
    9 => GlobalAddr { dst, global },
    10 => Call { dst, func, args },
    11 => CallExt { dst, sym, args },
    12 => Br { target },
    13 => BrIf { cond, then_blk, else_blk },
    14 => Ret { value },
    15 => Trap { code },
);
fields!(Block { insts });
fields!(Function { name, params, ret, num_regs, blocks } pad PER_FUNCTION_METADATA_BYTES);
fields!(Global {
    name,
    mutable,
    init
});
fields!(LowerInfo {
    vector,
    atomics,
    ptr_bytes
});
fields!(Module { name, triple, lower_info, ext_symbols, deps, globals, functions }
    pad MODULE_METADATA_BYTES);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ir::BinOp;
    use crate::types::ScalarType;

    fn sample_module() -> Module {
        let mut mb = ModuleBuilder::new("sample");
        mb.add_dep("libm.so");
        {
            let mut f = mb.entry_function();
            let payload = f.param(0);
            let target = f.param(2);
            let v = f.load(ScalarType::U64, payload, 8);
            let c = f.load(ScalarType::U64, target, 0);
            let s = f.bin(BinOp::Add, ScalarType::U64, c, v);
            f.store(ScalarType::U64, s, target, 0);
            f.call_ext("tc_return_result", vec![s], false);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        {
            let mut f = mb.function("helper", vec![ScalarType::F64], Some(ScalarType::F64));
            let x = f.param(0);
            let two = f.const_f64(2.0);
            let y = f.bin(BinOp::FMul, ScalarType::F64, x, two);
            f.ret(y);
            f.finish();
        }
        let mut module = mb.build();
        module.globals.push(crate::ir::Global {
            name: "table".into(),
            init: vec![1, 2, 3, 4],
            mutable: true,
        });
        module
    }

    #[test]
    fn roundtrip_preserves_module() {
        let m = sample_module();
        let bytes = encode_module(&m);
        let decoded = decode_module(&bytes).expect("decode");
        assert_eq!(m, decoded);
    }

    #[test]
    fn encoded_size_is_kilobyte_scale_for_small_kernels() {
        // The paper's TSI bitcode is ~5 KiB for two targets, i.e. ~2.6 KiB
        // per target; a single-target encoding of a small kernel should land
        // in the 2–5 KiB range.
        let m = sample_module();
        let bytes = encode_module(&m);
        assert!(bytes.len() > 2_000, "too small: {}", bytes.len());
        assert!(bytes.len() < 6_000, "too large: {}", bytes.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let m = sample_module();
        let mut bytes = encode_module(&m);
        bytes[0] = b'X';
        assert!(matches!(decode_module(&bytes), Err(BitirError::Decode(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let m = sample_module();
        let mut bytes = encode_module(&m);
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        let err = decode_module(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn truncated_stream_rejected() {
        let m = sample_module();
        let bytes = encode_module(&m);
        for cut in [5usize, 10, 20, bytes.len() / 2, bytes.len() - 1] {
            let res = decode_module(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupted_opcode_rejected_or_differs() {
        let m = sample_module();
        let bytes = encode_module(&m);
        // Flip single bytes across the stream; the decoder must never panic,
        // and at least some positions must be detected (error) or visibly
        // change the decoded module.  Positions inside the zeroed metadata
        // padding may legitimately decode to the same module.
        let mut detected = 0usize;
        for idx in (6..bytes.len()).step_by(7) {
            let mut corrupted = bytes.clone();
            corrupted[idx] ^= 0xa5;
            match decode_module(&corrupted) {
                Ok(decoded) => {
                    if decoded != m {
                        detected += 1;
                    }
                }
                Err(_) => detected += 1,
            }
        }
        assert!(detected > 0, "no corruption was ever detected");
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut w = Vec::new();
        let values = [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            v.put(&mut w);
        }
        let mut r = Reader::new(&w);
        for &v in &values {
            assert_eq!(r.varint(), Some(v));
        }
        assert_eq!(r.remaining(), 0);
        // A `u32` field refuses what does not fit rather than truncating it.
        let mut w = Vec::new();
        (1u64 << 32).put(&mut w);
        assert_eq!(u32::get(&mut Reader::new(&w)), None);
    }

    #[test]
    fn svarint_roundtrip_extremes() {
        let mut w = Vec::new();
        let values = [
            0i64,
            1,
            -1,
            63,
            -64,
            i32::MAX as i64,
            i32::MIN as i64,
            i64::MAX,
            i64::MIN,
        ];
        for &v in &values {
            v.put(&mut w);
        }
        let mut r = Reader::new(&w);
        for &v in &values {
            assert_eq!(r.svarint(), Some(v));
        }
    }

    #[test]
    fn reader_bounds_checks() {
        let mut r = Reader::new(&[0x80]);
        // Unterminated varint must fail, not loop or panic.
        assert_eq!(r.varint(), None);

        let mut r = Reader::new(&[5, 1, 2]);
        // Declared length 5 but only 2 bytes remain.
        assert_eq!(Vec::<u8>::get(&mut r), None);

        // A flag is 0 or 1.
        assert_eq!(bool::get(&mut Reader::new(&[2])), None);

        // Padding is skipped unread, but only at the length it was written.
        assert_eq!(Reader::new(&[2, 9, 9]).skip_padding(2), Some(()));
        assert_eq!(Reader::new(&[2, 0, 0]).skip_padding(3), None);
    }
}
