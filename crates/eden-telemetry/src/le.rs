//! The little-endian byte codec both wire formats are written in: the
//! control protocol (`eden-ctrl`'s `proto`) and the bytecode blob
//! (`eden-vm`'s codec).
//!
//! A [`Writer`] appends fixed-width integers, count-prefixed sequences and
//! enum tags; a [`Reader`] takes them back in the same order. Every length
//! is narrowed to its wire width in one place, [`Writer::count`], which
//! marks the writer instead of wrapping; every enum tag is the position of
//! the value in one `const` table, read and written through
//! [`Writer::tag`] and [`Reader::tag`], so a tag cannot exist in one
//! direction only.
//!
//! A reader trusts no count: [`Reader::vec_for`] reserves no more memory
//! than `EXPANSION` times the bytes left to read, so a lying count fails
//! as [`Error::Truncated`] instead of reserving for it.
//!
//! The primitives are `#[inline]`: the codecs call them across a crate
//! boundary, and a release build without LTO would otherwise not inline
//! them.

#![deny(clippy::cast_possible_truncation)]

/// The most memory [`Reader::vec_for`] reserves per byte left to read.
/// A decoded item takes a few times its wire bytes (a control-plane op
/// 48 bytes for about 14 on the wire, a bytecode op 16 for 1 to 14), so
/// an honest sequence is still read into one allocation of its length.
const EXPANSION: usize = 8;

/// Why a read failed. Each codec maps it into its own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The bytes ran out mid-value.
    Truncated,
    /// A tag byte past the end of its table.
    BadTag(u8),
}

/// Appends little-endian values to a buffer.
#[derive(Debug, Default)]
pub struct Writer {
    /// The bytes written so far.
    pub buf: Vec<u8>,
    /// Some length did not fit its count prefix: [`Writer::finish`]
    /// refuses the bytes.
    overflowed: bool,
}

impl Writer {
    /// A writer whose buffer holds `n` bytes before it grows.
    #[inline]
    pub fn with_capacity(n: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(n),
            overflowed: false,
        }
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Bytes as they are, with no prefix.
    #[inline]
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// The number `n` in `width` bytes: a count prefix, or any `usize`
    /// that travels narrower.
    #[inline]
    pub fn count(&mut self, width: usize, n: usize) {
        let le = self.narrow(width, n);
        self.buf.extend_from_slice(&le[..width]);
    }

    /// The count prefix written at `at` as a `width`-byte placeholder,
    /// set to `n` once the items after it are written.
    #[inline]
    pub fn fill_count(&mut self, at: usize, width: usize, n: usize) {
        let le = self.narrow(width, n);
        self.buf[at..at + width].copy_from_slice(&le[..width]);
    }

    /// `n`'s little-endian bytes, of which a `width`-byte field takes the
    /// first `width`. The one place a length is narrowed to its wire
    /// width: one that does not fit marks the writer instead of wrapping.
    #[inline]
    fn narrow(&mut self, width: usize, n: usize) -> [u8; 8] {
        let n = n as u64;
        self.overflowed |= width < 8 && n >> (8 * width) != 0;
        n.to_le_bytes()
    }

    /// A count-prefixed sequence: `items.len()` in `width` bytes, then
    /// each item as `put` writes it.
    #[inline]
    pub fn seq<T>(&mut self, width: usize, items: &[T], mut put: impl FnMut(&mut Writer, &T)) {
        self.count(width, items.len());
        for item in items {
            put(self, item);
        }
    }

    /// Bytes behind a four-byte length.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.count(4, v.len());
        self.buf.extend_from_slice(v);
    }

    /// A string's UTF-8 bytes behind a four-byte length.
    #[inline]
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// `v`'s tag: its position in `table`, in one byte. Panics if `v` is
    /// not in `table`, which is a table missing a variant.
    #[inline]
    pub fn tag<T: PartialEq>(&mut self, table: &[T], v: &T) {
        let at = table.iter().position(|t| t == v);
        let at = at.expect("every variant is in its tag table");
        self.count(1, at);
    }

    /// The encoded bytes, or `None` when some length did not fit its
    /// count prefix: never a message with a wrapped count.
    #[inline]
    pub fn finish(self) -> Option<Vec<u8>> {
        (!self.overflowed).then_some(self.buf)
    }
}

/// Takes little-endian values off a byte slice, front to back.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.remaining() < n {
            return Err(Error::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, Error> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline]
    pub fn i64(&mut self) -> Result<i64, Error> {
        self.array().map(i64::from_le_bytes)
    }

    /// A `width`-byte count prefix.
    #[inline]
    pub fn count(&mut self, width: usize) -> Result<usize, Error> {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(self.take(width)?);
        Ok(usize::try_from(u64::from_le_bytes(le)).unwrap_or(usize::MAX))
    }

    /// An empty vector for `n` items about to be read, where `n` is the
    /// sender's word: it reserves memory for at most `EXPANSION` times
    /// the bytes left to read, so a lying count reserves no more than
    /// that, and reading fails as [`Error::Truncated`] once the bytes run
    /// out.
    #[inline]
    pub fn vec_for<T>(&self, n: usize) -> Vec<T> {
        let room = self.remaining().saturating_mul(EXPANSION) / size_of::<T>().max(1);
        Vec::with_capacity(n.min(room))
    }

    /// A count-prefixed sequence of items as `get` reads them, reserved
    /// by [`Reader::vec_for`].
    #[inline]
    pub fn seq<T, E: From<Error>>(
        &mut self,
        width: usize,
        mut get: impl FnMut(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.count(width)?;
        let mut items = self.vec_for(n);
        for _ in 0..n {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// Bytes behind a four-byte length.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], Error> {
        let n = self.count(4)?;
        self.take(n)
    }

    /// The value whose tag (position in `table`) is the next byte.
    #[inline]
    pub fn tag<T: Copy>(&mut self, table: &[T]) -> Result<T, Error> {
        let b = self.u8()?;
        table.get(usize::from(b)).copied().ok_or(Error::BadTag(b))
    }

    /// The next u16 without consuming it: how a decoder tells an optional
    /// section, led by its marker, from other bytes without committing to
    /// a parse.
    #[inline]
    pub fn peek_u16(&self) -> Option<u16> {
        let b = self.buf.get(self.pos..self.pos + 2)?;
        Some(u16::from_le_bytes(b.try_into().expect("two bytes")))
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_little_endian() {
        let mut w = Writer::default();
        w.u8(1);
        w.u16(0x0302);
        w.u32(0x0706_0504);
        w.u64(0x0F0E_0D0C_0B0A_0908);
        w.i64(-2);
        w.str("hi");
        w.count(3, 0x12_3456);
        let bytes = w.finish().expect("nothing overflowed");
        assert_eq!(bytes[..15], (1..=15).collect::<Vec<u8>>()[..]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(0x0302));
        assert_eq!(r.u32(), Ok(0x0706_0504));
        assert_eq!(r.u64(), Ok(0x0F0E_0D0C_0B0A_0908));
        assert_eq!(r.i64(), Ok(-2));
        assert_eq!(r.bytes(), Ok(&b"hi"[..]));
        assert_eq!(r.peek_u16(), Some(0x3456));
        assert_eq!(r.count(3), Ok(0x12_3456));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(Error::Truncated));
    }

    #[test]
    fn a_count_that_does_not_fit_its_width_refuses_the_bytes() {
        let mut w = Writer::default();
        w.seq(1, &[0u8; 255], |w, b| w.u8(*b));
        w.count(2, 0xFFFF);
        assert_eq!(w.finish().map(|b| b.len()), Some(1 + 255 + 2));
        let mut w = Writer::default();
        w.seq(1, &[0u8; 256], |w, b| w.u8(*b));
        assert_eq!(w.finish(), None);

        let mut w = Writer::default();
        w.u16(0);
        w.fill_count(0, 2, usize::from(u16::MAX));
        assert_eq!(w.finish(), Some(vec![0xFF, 0xFF]));
        let mut w = Writer::default();
        w.u16(0);
        w.fill_count(0, 2, 0x1_0000);
        assert_eq!(w.finish(), None);
    }

    #[test]
    fn tags_are_table_positions_both_ways() {
        const TABLE: [char; 3] = ['a', 'b', 'c'];
        let mut w = Writer::default();
        for c in TABLE {
            w.tag(&TABLE, &c);
        }
        w.u8(3);
        let bytes = w.finish().unwrap();
        assert_eq!(bytes, [0, 1, 2, 3]);
        let mut r = Reader::new(&bytes);
        for c in TABLE {
            assert_eq!(r.tag(&TABLE), Ok(c));
        }
        assert_eq!(r.tag(&TABLE), Err(Error::BadTag(3)));
    }

    #[test]
    fn a_vector_reserves_the_count_up_to_eight_times_the_bytes_left() {
        let r = Reader::new(&[0; 100]);
        assert_eq!(r.vec_for::<u64>(60).capacity(), 60);
        assert_eq!(r.vec_for::<u64>(usize::MAX).capacity(), 100);
        assert_eq!(r.vec_for::<[u64; 4]>(usize::MAX).capacity(), 25);
    }

    #[test]
    fn a_lying_count_is_truncated_without_reserving_for_it() {
        // u32::MAX eight-byte items claimed (32 GiB), three present
        let mut w = Writer::default();
        w.u32(u32::MAX);
        w.raw(&[0; 24]);
        let bytes = w.finish().unwrap();
        let got: Result<Vec<u64>, Error> = Reader::new(&bytes).seq(4, Reader::u64);
        assert_eq!(got, Err(Error::Truncated));
    }
}
