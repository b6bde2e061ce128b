//! Offline stand-in for the `bytes` crate.
//!
//! Implements the [`BytesMut`]/[`Bytes`] pair over a plain `Vec<u8>` plus
//! the [`Buf`]/[`BufMut`] accessor traits ([`Buf`] also for `&[u8]`, as in
//! the real crate), covering exactly the surface the SPECTRE event codec,
//! server and dataset replay paths use.
//!
//! A [`BytesMut`] keeps a read offset into its vector, so consuming from
//! the front never moves the bytes still buffered. Costs:
//!
//! - [`Buf::advance`] and every `get_*` pop move the offset: O(1).
//! - [`BytesMut::split_to`] copies the `at`-byte prefix it returns: O(at).
//! - The appends ([`BytesMut::extend_from_slice`], [`BufMut::put_slice`])
//!   first reclaim the consumed prefix once it is at least half the
//!   vector, moving the live bytes to the front. A reclaim moves no more
//!   bytes than were consumed since the previous one, so it costs
//!   amortised O(1) per consumed byte, and the vector stays below twice
//!   the live bytes plus the latest append.
//! - [`BytesMut::freeze`] moves the live bytes to the front once: O(len).
//!
//! The real crate splits by refcount instead of copying the prefix; the
//! observable behaviour is the same. Swap for the real crate once the
//! registry is reachable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A growable byte buffer, analogous to `bytes::BytesMut`.
///
/// Every view of the buffer — [`len`](Self::len), `Deref`, equality,
/// `Clone`, `Debug`, [`freeze`](Self::freeze) — sees only the live bytes,
/// never the consumed prefix.
#[derive(Default)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Offset of the first live byte; `data[..head]` is consumed.
    head: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with at least `cap` bytes of capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut::from(Vec::with_capacity(cap))
    }

    /// Number of bytes currently in the buffer.
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.head == self.data.len()
    }

    /// Appends `slice` to the end of the buffer.
    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.reclaim();
        self.data.extend_from_slice(slice);
    }

    /// Removes all bytes from the buffer.
    pub fn clear(&mut self) {
        self.data.clear();
        self.head = 0;
    }

    /// Splits off and returns the first `at` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let prefix = self.data[self.head..self.head + at].to_vec();
        self.head += at;
        BytesMut::from(prefix)
    }

    /// Freezes the buffer into an immutable [`Bytes`].
    pub fn freeze(mut self) -> Bytes {
        self.data.drain(..self.head);
        Bytes { data: self.data }
    }

    /// Drops the consumed prefix once it is at least half the vector, so
    /// a buffer that is appended to and consumed from stays bounded.
    fn reclaim(&mut self) {
        if self.head != 0 && self.head * 2 >= self.data.len() {
            self.data.drain(..self.head);
            self.head = 0;
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.head..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> Self {
        BytesMut::from(self.to_vec())
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for BytesMut {}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut").field("data", &&**self).finish()
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> Self {
        BytesMut { data, head: 0 }
    }
}

/// An immutable byte buffer, analogous to `bytes::Bytes`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data }
    }
}

/// Read-side accessors over a byte buffer (little/big-endian integer pops).
pub trait Buf {
    /// Discards the first `n` bytes.
    fn advance(&mut self, n: usize);

    /// Pops the leading `N` bytes as an array.
    ///
    /// Implementations panic if fewer than `N` bytes remain; callers are
    /// expected to length-check first (the codec does).
    fn take_array<const N: usize>(&mut self) -> [u8; N];

    /// Pops a `u8`.
    fn get_u8(&mut self) -> u8 {
        self.take_array::<1>()[0]
    }

    /// Pops a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take_array())
    }

    /// Pops a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_array())
    }

    /// Pops a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_array())
    }

    /// Pops a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.take_array())
    }

    /// Pops a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take_array())
    }
}

impl Buf for BytesMut {
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.head += n;
    }

    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        assert!(N <= self.len(), "take_array out of bounds");
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[self.head..self.head + N]);
        self.head += N;
        out
    }
}

impl Buf for &[u8] {
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        *self = &self[n..];
    }

    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        assert!(N <= self.len(), "take_array out of bounds");
        let (head, rest) = self.split_at(N);
        *self = rest;
        head.try_into().expect("split_at yields N bytes")
    }
}

/// Write-side accessors over a byte buffer (little/big-endian integer puts).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, slice: &[u8]);

    /// Appends a `u8`.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, slice: &[u8]) {
        self.extend_from_slice(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_integers() {
        let mut b = BytesMut::new();
        b.put_u32_le(7);
        b.put_u64_le(u64::MAX);
        b.put_i64_le(-5);
        b.put_f64_le(1.5);
        b.put_u16_le(300);
        b.put_u8(9);
        assert_eq!(b.get_u32_le(), 7);
        assert_eq!(b.get_u64_le(), u64::MAX);
        assert_eq!(b.get_i64_le(), -5);
        assert_eq!(b.get_f64_le(), 1.5);
        assert_eq!(b.get_u16_le(), 300);
        assert_eq!(b.get_u8(), 9);
        assert!(b.is_empty());
    }

    #[test]
    fn split_advance_freeze() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"hello world");
        b.advance(6);
        let head = b.split_to(5);
        assert_eq!(&head[..], b"world");
        assert!(b.is_empty());
        let frozen = head.freeze();
        assert_eq!(frozen.len(), 5);
        assert_eq!(&frozen[..], b"world");
    }

    #[test]
    fn advance_and_pops_move_no_bytes() {
        let mut b = BytesMut::from((0..=255).collect::<Vec<u8>>());
        let base = b.as_ptr();
        b.advance(10);
        assert_eq!(b.as_ptr(), base.wrapping_add(10));
        assert_eq!(b.get_u8(), 10);
        assert_eq!(b.get_u32_le(), u32::from_le_bytes([11, 12, 13, 14]));
        assert_eq!(b.as_ptr(), base.wrapping_add(15));
        assert_eq!(b.len(), 256 - 15);
    }

    #[test]
    fn split_to_copies_only_the_prefix() {
        let mut b = BytesMut::from((0..=255).collect::<Vec<u8>>());
        let base = b.as_ptr();
        let head = b.split_to(40);
        assert_eq!(b.as_ptr(), base.wrapping_add(40));
        assert_eq!(&head[..], &(0..40).collect::<Vec<u8>>()[..]);
        assert_eq!(b[0], 40);
        assert_eq!(b.len(), 256 - 40);
    }

    #[test]
    fn capacity_stays_bounded_under_extend_and_consume() {
        let chunk: Vec<u8> = (0..100).collect();
        let mut b = BytesMut::new();
        let mut peak = 0;
        for i in 0..10_000 {
            b.extend_from_slice(&chunk);
            // Consume a little less than was appended on most rounds and
            // everything buffered on every tenth, so the live length
            // wanders between 0 and ~900 bytes.
            if i % 10 == 9 {
                let n = b.len();
                b.advance(n);
            } else {
                let _ = b.split_to(10);
                b.advance(b.len().min(80));
            }
            peak = peak.max(b.data.capacity());
        }
        // Below twice the live bytes plus one append, rounded up by the
        // vector's doubling growth.
        assert!(peak <= 4096, "capacity grew to {peak}");
        assert!(b.data.len() < 2 * b.len() + 2 * chunk.len());
    }

    #[test]
    fn reclaim_keeps_the_live_bytes() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"abcdefgh");
        b.advance(6);
        b.put_slice(b"ij");
        assert_eq!(b.head, 0, "a consumed prefix of 6/8 is reclaimed");
        assert_eq!(&b[..], b"ghij");
        b.advance(1);
        b.put_u8(b'k');
        assert_eq!(b.head, 1, "a consumed prefix of 1/4 is kept");
        assert_eq!(&b[..], b"hijk");
    }

    #[test]
    fn views_see_only_the_live_bytes() {
        let mut a = BytesMut::new();
        a.extend_from_slice(b"xxxxlive");
        a.advance(4);
        let b = BytesMut::from(b"live".to_vec());
        assert_eq!(a, b);
        let mut c = BytesMut::from(b"yylive".to_vec());
        c.advance(2);
        assert_eq!(a, c);
        c.advance(1);
        assert_ne!(a, c);

        let cloned = a.clone();
        assert_eq!(cloned.head, 0);
        assert_eq!(cloned.data, b"live");
        assert_eq!(format!("{cloned:?}"), format!("{a:?}"));
        assert_eq!(a.as_ref(), b"live");

        let frozen = a.freeze();
        assert_eq!(frozen.len(), 4);
        assert_eq!(frozen, Bytes::from(b"live".to_vec()));
    }

    #[test]
    fn clear_and_deref_mut_respect_the_offset() {
        let mut b = BytesMut::from(b"0123456789".to_vec());
        b.advance(3);
        b[0] = b'X';
        assert_eq!(&b[..], b"X456789");
        b.clear();
        assert!(b.is_empty());
        b.put_slice(b"ok");
        assert_eq!(&b[..], b"ok");
    }

    #[test]
    fn slice_buf_pops_from_the_front() {
        let bytes = [1u8, 0, 2, 0, 0, 0, 9];
        let mut s: &[u8] = &bytes;
        assert_eq!(s.get_u16_le(), 1);
        assert_eq!(s.get_u32_le(), 2);
        s.advance(1);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "advance out of bounds")]
    fn advance_past_the_live_bytes_panics() {
        let mut b = BytesMut::from(vec![0u8; 8]);
        b.advance(4);
        b.advance(5);
    }

    #[test]
    #[should_panic(expected = "take_array out of bounds")]
    fn pop_past_the_live_bytes_panics() {
        let mut b = BytesMut::from(vec![0u8; 8]);
        b.advance(5);
        let _ = b.get_u32_le();
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_past_the_live_bytes_panics() {
        let mut b = BytesMut::from(vec![0u8; 8]);
        b.advance(5);
        let _ = b.split_to(4);
    }
}
