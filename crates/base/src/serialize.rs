//! Stable binary serialization for the base vocabulary.
//!
//! The durability layer (`hdl-persist`) writes checkpoints and a
//! write-ahead log whose payloads are built from the codecs here: symbols
//! and ground atoms. The format is deliberately simple — fixed-width little-endian
//! integers, length-prefixed byte strings — so that a torn or corrupted
//! byte stream is detected either by the [`crc32`] frame checksum around
//! it or by a structural decode error; decoding never panics on untrusted
//! input, it returns [`Error::Invalid`].
//!
//! Stability contract: the integer widths and field orders in this module
//! are an on-disk format. Changing them requires bumping the WAL magic
//! (`HDLWAL01`) or the checkpoint version in `hdl-persist`.

use crate::atom::GroundAtom;
use crate::error::{Error, Result};
use crate::symbol::{Symbol, SymbolTable};

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The CRC32 (IEEE) checksum of `bytes`, as used by the WAL record frames
/// and checkpoint trailers.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// An append-only byte-buffer writer for the fixed-width format.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A bounds-checked reader over bytes produced by [`Encoder`].
///
/// Every accessor returns [`Error::Invalid`] instead of panicking when the
/// input is truncated or malformed.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Invalid(format!(
                "truncated record: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Invalid("string payload is not UTF-8".into()))
    }

    /// Reads a u32 and validates it as a collection length against the
    /// bytes actually remaining (each element needs at least
    /// `min_elem_bytes`). Rejects absurd lengths before allocation.
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(Error::Invalid(format!(
                "corrupt length prefix: {n} elements cannot fit in {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Encodes the full symbol table in interning order.
///
/// Decoding with [`decode_symbols`] reproduces identical dense ids, so
/// every [`Symbol`]-valued field serialized alongside stays meaningful.
pub fn encode_symbols(enc: &mut Encoder, table: &SymbolTable) {
    enc.u32(table.len() as u32);
    for (_, name) in table.iter() {
        enc.str(name);
    }
}

/// Decodes a symbol table written by [`encode_symbols`].
pub fn decode_symbols(dec: &mut Decoder<'_>) -> Result<SymbolTable> {
    let n = dec.len_prefix(4)?;
    let mut table = SymbolTable::new();
    for i in 0..n {
        let name = dec.str()?;
        let sym = table.intern(&name);
        if sym.index() != i {
            return Err(Error::Invalid(format!(
                "duplicate symbol `{name}` in symbol table at position {i}"
            )));
        }
    }
    Ok(table)
}

/// Encodes one ground atom as `pred, arity, args…`.
pub fn encode_ground_atom(enc: &mut Encoder, fact: &GroundAtom) {
    enc.u32(fact.pred.0);
    enc.u32(fact.args.len() as u32);
    for a in &fact.args {
        enc.u32(a.0);
    }
}

/// Decodes a ground atom written by [`encode_ground_atom`], validating
/// every symbol id against `symbols`.
pub fn decode_ground_atom(dec: &mut Decoder<'_>, symbols: &SymbolTable) -> Result<GroundAtom> {
    let pred = decode_symbol(dec, symbols)?;
    let arity = dec.len_prefix(4)?;
    let mut args = Vec::with_capacity(arity);
    for _ in 0..arity {
        args.push(decode_symbol(dec, symbols)?);
    }
    Ok(GroundAtom::new(pred, args))
}

/// Decodes one symbol id, validating it against `symbols`.
pub fn decode_symbol(dec: &mut Decoder<'_>, symbols: &SymbolTable) -> Result<Symbol> {
    let id = dec.u32()?;
    if id as usize >= symbols.len() {
        return Err(Error::Invalid(format!(
            "symbol id {id} out of range (table has {})",
            symbols.len()
        )));
    }
    Ok(Symbol(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn primitives_roundtrip() {
        let mut enc = Encoder::new();
        enc.u8(7);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 1);
        enc.str("héllo");
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.str().unwrap(), "héllo");
        assert!(dec.is_done());
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut enc = Encoder::new();
        enc.u64(42);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes[..5]);
        assert!(dec.u64().is_err());
        // A giant length prefix must be rejected before allocating.
        let mut enc = Encoder::new();
        enc.u32(u32::MAX);
        let bytes = enc.finish();
        assert!(Decoder::new(&bytes).len_prefix(4).is_err());
        assert!(Decoder::new(&bytes).str().is_err());
    }

    #[test]
    fn symbols_roundtrip_with_identical_ids() {
        let mut t = SymbolTable::new();
        for name in ["edge", "tc", "a", "b", "グラフ"] {
            t.intern(name);
        }
        let mut enc = Encoder::new();
        encode_symbols(&mut enc, &t);
        let bytes = enc.finish();
        let back = decode_symbols(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.len(), t.len());
        for (sym, name) in t.iter() {
            assert_eq!(back.lookup(name), Some(sym));
        }
    }

    #[test]
    fn ground_atom_rejects_out_of_range_symbols() {
        let mut t = SymbolTable::new();
        t.intern("p");
        let fact = GroundAtom::new(Symbol(0), vec![Symbol(9)]);
        let mut enc = Encoder::new();
        encode_ground_atom(&mut enc, &fact);
        let bytes = enc.finish();
        assert!(decode_ground_atom(&mut Decoder::new(&bytes), &t).is_err());
    }
}
