//! Dependency-free structured-result emission: a minimal JSON value tree,
//! CSV field escaping, and a little-endian binary record codec.
//!
//! Campaign reports need to leave the process in a machine-readable form
//! (plots, regression dashboards, spreadsheet imports) without pulling in
//! `serde` — the workspace builds offline with zero external crates. This
//! module provides the formats the scenario engine exports:
//!
//! * [`Json`] — a small JSON value tree with a pretty renderer. Numbers
//!   are `f64` (like JSON itself), whose non-finite values render as
//!   `null`, or exact `u64` integers such as seeds.
//! * [`csv_field`] — RFC-4180 field quoting for the CSV writer.
//! * [`ByteWriter`] / [`ByteReader`] — a fixed little-endian binary codec
//!   for on-disk records (the campaign checkpoint journal). Floats round
//!   trip through their IEEE-754 bits, so a value read back is
//!   bit-identical to the value written — the property the
//!   interrupted-and-resumed ≡ single-shot determinism contract rests on.
//! * [`crc32`] / [`fnv1a_64`] — the record checksum and the stable
//!   content hash those records are keyed by.
//!
//! # Example
//!
//! ```
//! use sim_core::export::Json;
//!
//! let doc = Json::obj([
//!     ("name", Json::str("paper_fig1")),
//!     ("cells", Json::Arr(vec![Json::Num(1.0), Json::Num(3.34)])),
//! ]);
//! let text = doc.render();
//! assert!(text.contains("\"name\": \"paper_fig1\""));
//! assert!(text.contains("3.34"));
//! ```

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values render as `null` (JSON has no NaN).
    Num(f64),
    /// An exact integer, written in full: a seed above 2^53 would be
    /// rounded as an `f64`.
    Int(u64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value as pretty-printed JSON (2-space indent, trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Int(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Formats a finite float for machine-readable exports: integral values
/// within 2^53 (where every integer is exactly representable) print
/// without a fractional part, everything else uses Rust's
/// shortest-roundtrip formatting. Shared by the JSON writer and the CSV
/// report columns so both exports format a given value identically.
pub fn fmt_number(x: f64) -> String {
    if x == x.trunc() && x.abs() < 9_007_199_254_740_992.0 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity.
        out.push_str("null");
    } else {
        let _ = write!(out, "{}", fmt_number(x));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Quotes one CSV field per RFC 4180: fields containing commas, quotes or
/// newlines are wrapped in double quotes with embedded quotes doubled.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes` —
/// the per-record checksum of the campaign checkpoint journal. Bitwise
/// (no table): journal records are small and written once per cell, so
/// simplicity beats throughput here.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit hash of `bytes` — a stable, dependency-free content
/// hash (the checkpoint journal keys itself to the hash of the canonical
/// scenario text so a journal can never be replayed into a different
/// scenario).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds a little-endian binary record (see the module docs).
///
/// The format is positional: the reader must consume fields in exactly
/// the order the writer emitted them. Strings are length-prefixed UTF-8;
/// options are a one-byte presence flag followed by the value; floats are
/// written as their raw IEEE-754 bits.
#[derive(Debug, Clone, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty record.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (exact round trip,
    /// including NaN payloads and signed zeros).
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64s(&mut self, xs: &[f64]) {
        self.u32(xs.len() as u32);
        for &x in xs {
            self.f64(x);
        }
    }
}

/// Reads a [`ByteWriter`] record back, field by field. Every accessor
/// fails (rather than panics) on a short or malformed buffer, so a
/// corrupted journal record degrades into an error the replay loop can
/// stop on.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps an encoded record.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "record ends early: wanted {n} more bytes, have {}",
                self.remaining()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "record string is not UTF-8".to_string())
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let len = self.u32()? as usize;
        // Sanity-cap before allocating: a corrupted length must not OOM.
        if len > self.remaining() / 8 {
            return Err(format!("record vector length {len} exceeds the record"));
        }
        (0..len).map(|_| self.f64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let doc = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("c", Json::obj([("d", Json::str("x"))])),
        ]);
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"a\": 1.5,\n  \"b\": [\n    null,\n    true\n  ],\n  \"c\": {\n    \"d\": \"x\"\n  }\n}\n"
        );
    }

    #[test]
    fn integral_floats_print_without_fraction() {
        assert_eq!(Json::Num(1000.0).render(), "1000\n");
        assert_eq!(Json::Num(-3.0).render(), "-3\n");
        assert_eq!(Json::Num(0.25).render(), "0.25\n");
    }

    #[test]
    fn integers_are_exact() {
        assert_eq!(Json::Int(u64::MAX).render(), "18446744073709551615\n");
        assert_eq!(
            Json::Int(6_238_072_747_940_578_785).render(),
            "6238072747940578785\n"
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"\n");
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn byte_codec_round_trips_every_field_kind() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo");
        w.f64s(&[1.0, 2.5, f64::INFINITY]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.f64s().unwrap(), vec![1.0, 2.5, f64::INFINITY]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn byte_reader_fails_cleanly_on_short_or_corrupt_records() {
        let mut w = ByteWriter::new();
        w.u32(9);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.u64().is_err(), "short read must fail, not panic");

        // A huge vector length must be rejected before allocation.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).f64s().is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"), "single-bit sensitivity");
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}
