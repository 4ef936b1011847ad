//! End-to-end integrity primitives: CRC32 over canonical encodings of
//! page content.
//!
//! The simulator stores content *tags* instead of raw bytes, so checksums
//! are computed over a **canonical little-endian encoding** of each
//! mapping-unit payload and each OOB record. A checksum sealed at program
//! time detects any later mutation of the tags — the corruption injectors
//! flip tag bits without resealing, exactly like retention bit-rot flips
//! cells under a stale ECC word.
//!
//! The CRC is the reflected CRC-32 (polynomial `0xEDB8_8320`), computed
//! a word at a time ("slicing-by-8"): eight 256-entry tables, where
//! table `k` holds the CRC step of a byte followed by `k` zero bytes, let
//! one 8-byte word fold in as eight *independent* lookups instead of
//! eight dependent byte steps. Checksum sealing rides every flash program
//! and verification rides every read, and the canonical encodings are
//! made of `u64`/`u32` fields, so the word form is the natural one; the
//! checksum values are bit-identical to the bytewise form, which survives
//! as a test oracle (and for the sub-word tail of odd-length slices).
//! This file is recovery-critical (analyzer rule A1), so lookups go
//! through `get` + `unwrap_or` and the tables are built by a `const fn`
//! that walks them with `split_first_mut` — no indexing, no `unwrap`,
//! and no panic path at all. A single-bit flip anywhere in an encoded
//! record is always detected — CRCs catch every 1-bit error by
//! construction — and the property suite in `tests/prop_integrity.rs`
//! pins that end to end.

use crate::content::{OobEntry, OobKind, UnitPayload};

/// Reflected CRC-32 polynomial (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// The CRC register after shifting `bits` bits of zeros through a
/// register holding `reg` — the bit-at-a-time definition every table
/// entry is derived from.
const fn shift_zeros(mut reg: u32, bits: u32) -> u32 {
    let mut n = 0;
    while n < bits {
        reg = (reg >> 1) ^ (POLY & (reg & 1).wrapping_neg());
        n += 1;
    }
    reg
}

/// The slicing-by-8 tables: `SLICES[k][i]` is the CRC step of byte `i`
/// followed by `k` zero bytes, so `SLICES[0]` is the classic bytewise
/// table. Built at compile time by walking the arrays with
/// `split_first_mut` (no index expressions, per A1);
/// `table_is_the_polynomial_recurrence` re-derives every entry.
static SLICES: [[u32; 256]; 8] = slice_tables();

const fn slice_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut rest: &mut [[u32; 256]] = &mut tables;
    let mut k = 0u32;
    while let Some((table, tail)) = rest.split_first_mut() {
        let mut entries: &mut [u32] = table;
        let mut i = 0u32;
        while let Some((entry, more)) = entries.split_first_mut() {
            *entry = shift_zeros(i, 8 * (k + 1));
            entries = more;
            i += 1;
        }
        rest = tail;
        k += 1;
    }
    tables
}

/// Entry `(byte & 0xFF)` of slice table `k`. The mask keeps the index in
/// `0..256` and `k` is a literal below 8 at every call site, so both
/// `get`s always hit (and compile to plain loads); `unwrap_or` rather
/// than indexing keeps the A1 no-panic guarantee visible in the code.
#[inline(always)]
fn lut(k: usize, byte: u32) -> u32 {
    SLICES
        .get(k)
        .and_then(|t| t.get((byte & 0xFF) as usize))
        .copied()
        .unwrap_or(0)
}

/// One bytewise step (the tail of a slice that is not a whole word).
#[inline(always)]
fn crc_step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ lut(0, crc ^ u32::from(byte))
}

/// Folds a little-endian `u32` in one slicing-by-4 step.
#[inline(always)]
fn step_u32(crc: u32, v: u32) -> u32 {
    let x = crc ^ v;
    lut(3, x) ^ lut(2, x >> 8) ^ lut(1, x >> 16) ^ lut(0, x >> 24)
}

/// Folds a little-endian `u64` in one slicing-by-8 step.
#[inline(always)]
fn step_u64(crc: u32, v: u64) -> u32 {
    let lo = crc ^ (v & 0xFFFF_FFFF) as u32;
    let hi = (v >> 32) as u32;
    lut(7, lo)
        ^ lut(6, lo >> 8)
        ^ lut(5, lo >> 16)
        ^ lut(4, lo >> 24)
        ^ lut(3, hi)
        ^ lut(2, hi >> 8)
        ^ lut(1, hi >> 16)
        ^ lut(0, hi >> 24)
}

/// Incremental CRC-32 state.
///
/// # Examples
///
/// ```
/// use checkin_flash::Crc32;
///
/// let mut c = Crc32::new();
/// c.update(b"check-in");
/// let a = c.finish();
/// assert_eq!(a, checkin_flash::crc32(b"check-in"));
/// assert_ne!(a, checkin_flash::crc32(b"check-im"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (all-ones preset, per the standard).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        let mut crc = self.state;
        for &w in words {
            crc = step_u64(crc, u64::from_le_bytes(w));
        }
        for &b in tail {
            crc = crc_step(crc, b);
        }
        self.state = crc;
    }

    /// Folds a little-endian `u32` into the state.
    pub fn update_u32(&mut self, v: u32) {
        self.state = step_u32(self.state, v);
    }

    /// Folds a little-endian `u64` into the state.
    pub fn update_u64(&mut self, v: u64) {
        self.state = step_u64(self.state, v);
    }

    /// Final checksum (state complemented, per the standard).
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Stable one-byte code for an [`OobKind`] in the canonical encoding.
fn oob_kind_code(kind: OobKind) -> u8 {
    match kind {
        OobKind::Journal => 0,
        OobKind::Data => 1,
        OobKind::Meta => 2,
        OobKind::GcCopy => 3,
    }
}

/// Appends the canonical encoding of a unit payload to `out`: fragment
/// count, then `(key, version, bytes)` per fragment, all little-endian.
pub fn encode_unit_into(unit: &UnitPayload, out: &mut Vec<u8>) {
    out.extend_from_slice(&(unit.fragments.len() as u32).to_le_bytes());
    for f in unit.fragments.iter() {
        out.extend_from_slice(&f.key.to_le_bytes());
        out.extend_from_slice(&f.version.to_le_bytes());
        out.extend_from_slice(&f.bytes.to_le_bytes());
    }
}

/// Appends the canonical encoding of an OOB record to `out`:
/// `(lpn, sequence, kind)`, little-endian.
pub fn encode_oob_into(entry: &OobEntry, out: &mut Vec<u8>) {
    out.extend_from_slice(&entry.lpn.to_le_bytes());
    out.extend_from_slice(&entry.sequence.to_le_bytes());
    out.push(oob_kind_code(entry.kind));
}

/// Checksum of a unit payload — streams the canonical encoding through
/// the CRC a field (one or two words) at a time, without allocating
/// (the program/read hot path).
pub fn unit_checksum(unit: &UnitPayload) -> u32 {
    let mut c = Crc32::new();
    c.update_u32(unit.fragments.len() as u32);
    for f in unit.fragments.iter() {
        c.update_u64(f.key);
        c.update_u64(f.version);
        c.update_u32(f.bytes);
    }
    c.finish()
}

/// Checksum of an OOB record (allocation-free).
pub fn oob_checksum(entry: &OobEntry) -> u32 {
    let mut c = Crc32::new();
    c.update_u64(entry.lpn);
    c.update_u64(entry.sequence);
    c.state = crc_step(c.state, oob_kind_code(entry.kind));
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::Fragment;
    use checkin_testkit::TestRng;

    /// The bytewise CRC, one dependent table step per byte: the oracle
    /// the word-sliced implementation must match bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF;
        for &b in bytes {
            crc = crc_step(crc, b);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc_matches_known_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_is_the_polynomial_recurrence() {
        // Table 0 must equal the bit-at-a-time CRC of its index byte, and
        // table k the standard slicing recurrence over table k-1 — the
        // tables are a cache of POLY, not a second truth.
        for i in 0..256u32 {
            let mut crc = i;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
            assert_eq!(SLICES[0][i as usize], crc, "SLICES[0][{i}]");
        }
        for (k, pair) in SLICES.windows(2).enumerate() {
            for (i, (&prev, &entry)) in pair[0].iter().zip(&pair[1]).enumerate() {
                let expect = (prev >> 8) ^ SLICES[0][(prev & 0xFF) as usize];
                assert_eq!(entry, expect, "SLICES[{}][{i}]", k + 1);
            }
        }
        // Spot values of the published bytewise table.
        assert_eq!(SLICES[0][1], 0x7707_3096);
        assert_eq!(SLICES[0][128], 0xEDB8_8320);
        assert_eq!(SLICES[0][255], 0x2D02_EF8D);
    }

    #[test]
    fn word_sliced_matches_bytewise_oracle() {
        let mut rng = TestRng::seed_from(0x5_11CE);
        let kinds = [
            OobKind::Journal,
            OobKind::Data,
            OobKind::Meta,
            OobKind::GcCopy,
        ];
        let mut buf = Vec::new();
        for _ in 0..2000 {
            let mut unit = UnitPayload::default();
            for _ in 0..rng.range_usize(0, 5) {
                unit.fragments.push(Fragment {
                    key: rng.next_u64(),
                    version: rng.next_u64(),
                    bytes: rng.range_u32(0, 4096),
                });
            }
            buf.clear();
            encode_unit_into(&unit, &mut buf);
            assert_eq!(unit_checksum(&unit), crc32_bytewise(&buf));
            assert_eq!(crc32(&buf), crc32_bytewise(&buf));

            let entry = OobEntry {
                lpn: rng.next_u64(),
                sequence: rng.next_u64(),
                kind: kinds[rng.below(4) as usize],
            };
            buf.clear();
            encode_oob_into(&entry, &mut buf);
            assert_eq!(oob_checksum(&entry), crc32_bytewise(&buf));

            // Arbitrary lengths and split points exercise the sub-word
            // tail and streaming across word boundaries.
            buf.clear();
            buf.extend((0..rng.range_usize(0, 39)).map(|_| rng.next_u64() as u8));
            let cut = rng.range_usize(0, buf.len());
            let mut c = Crc32::new();
            c.update(&buf[..cut]);
            c.update(&buf[cut..]);
            assert_eq!(c.finish(), crc32_bytewise(&buf));
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut c = Crc32::new();
        c.update(b"12345");
        c.update(b"6789");
        assert_eq!(c.finish(), crc32(b"123456789"));
    }

    #[test]
    fn unit_checksum_matches_encoding() {
        let u = UnitPayload::single(7, 3, 512);
        let mut buf = Vec::new();
        encode_unit_into(&u, &mut buf);
        assert_eq!(unit_checksum(&u), crc32(&buf));
    }

    #[test]
    fn oob_checksum_matches_encoding() {
        let e = OobEntry {
            lpn: 42,
            sequence: 9,
            kind: OobKind::GcCopy,
        };
        let mut buf = Vec::new();
        encode_oob_into(&e, &mut buf);
        assert_eq!(oob_checksum(&e), crc32(&buf));
    }

    #[test]
    fn kind_codes_are_distinct() {
        let kinds = [
            OobKind::Journal,
            OobKind::Data,
            OobKind::Meta,
            OobKind::GcCopy,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in kinds.iter().skip(i + 1) {
                let (ea, eb) = (
                    OobEntry {
                        lpn: 1,
                        sequence: 1,
                        kind: *a,
                    },
                    OobEntry {
                        lpn: 1,
                        sequence: 1,
                        kind: *b,
                    },
                );
                assert_ne!(oob_checksum(&ea), oob_checksum(&eb));
            }
        }
    }
}
