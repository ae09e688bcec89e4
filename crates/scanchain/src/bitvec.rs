//! A compact, growable bit vector used as the payload of scan-chain shifts.

use std::fmt;

/// A fixed-order sequence of bits, stored LSB-first inside `u64` words.
///
/// Bit index 0 is the bit closest to TDO, i.e. the first bit shifted out of
/// the device. All scan-chain captures, updates and fault injections operate
/// on `BitVec` values.
///
/// # Example
///
/// ```
/// use scanchain::BitVec;
/// let mut bv = BitVec::zeros(10);
/// bv.set(3, true);
/// bv.flip(3);
/// assert!(!bv.get(3));
/// assert_eq!(bv.count_ones(), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bit vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut bv = BitVec {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bv.mask_tail();
        bv
    }

    /// Builds a bit vector from an iterator of booleans; the first item
    /// becomes bit 0.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut bv = BitVec::new();
        for b in bits {
            bv.push(b);
        }
        bv
    }

    /// Builds a bit vector holding the low `width` bits of `value`,
    /// LSB at index 0.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn from_u64(value: u64, width: usize) -> Self {
        assert!(width <= 64, "width {width} exceeds 64");
        let mut bv = BitVec::zeros(width);
        if width > 0 {
            bv.words[0] = if width == 64 {
                value
            } else {
                value & ((1u64 << width) - 1)
            };
        }
        bv
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Sets the bit at `idx` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let (w, b) = (idx / 64, idx % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Inverts the bit at `idx` (the bit-flip fault model primitive).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn flip(&mut self, idx: usize) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / 64] ^= 1 << (idx % 64);
    }

    /// Appends a bit at the end (highest index).
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        let idx = self.len - 1;
        if value {
            self.words[idx / 64] |= 1 << (idx % 64);
        }
    }

    /// Removes and returns the last bit, or `None` if empty.
    pub fn pop(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        let v = self.get(self.len - 1);
        self.set(self.len - 1, false);
        self.len -= 1;
        if self.words.len() > self.len.div_ceil(64) {
            self.words.pop();
        }
        Some(v)
    }

    /// Reads `width` bits starting at `offset` as an integer (bit `offset`
    /// becomes the LSB).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the range exceeds the vector.
    pub fn read_range(&self, offset: usize, width: usize) -> u64 {
        assert!(width <= 64, "range width {width} exceeds 64");
        assert!(
            offset + width <= self.len,
            "range {offset}+{width} out of bounds {}",
            self.len
        );
        if width == 0 {
            return 0;
        }
        let (w, b) = (offset / 64, offset % 64);
        let mut v = self.words[w] >> b;
        if b + width > 64 {
            v |= self.words[w + 1] << (64 - b);
        }
        if width < 64 {
            v &= (1u64 << width) - 1;
        }
        v
    }

    /// Writes the low `width` bits of `value` starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the range exceeds the vector.
    pub fn write_range(&mut self, offset: usize, width: usize, value: u64) {
        assert!(width <= 64, "range width {width} exceeds 64");
        assert!(
            offset + width <= self.len,
            "range {offset}+{width} out of bounds {}",
            self.len
        );
        if width == 0 {
            return;
        }
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let value = value & mask;
        let (w, b) = (offset / 64, offset % 64);
        self.words[w] = (self.words[w] & !(mask << b)) | (value << b);
        if b + width > 64 {
            let hi = 64 - b;
            self.words[w + 1] = (self.words[w + 1] & !(mask >> hi)) | (value >> hi);
        }
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices at which `self` and `other` differ.
    ///
    /// Used by the analysis phase to diff a logged system state against the
    /// reference (fault-free) state.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn diff_indices(&self, other: &BitVec) -> Vec<usize> {
        assert_eq!(self.len, other.len, "diffing bit vectors of unequal length");
        let mut out = Vec::new();
        for (w, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut x = a ^ b;
            while x != 0 {
                let b = x.trailing_zeros() as usize;
                out.push(w * 64 + b);
                x &= x - 1;
            }
        }
        out
    }

    /// Iterates over the bits from index 0 upwards.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Parity (XOR of all bits): `true` when the number of ones is odd.
    pub fn parity(&self) -> bool {
        self.count_ones() % 2 == 1
    }

    /// Serialises to a `0`/`1` string, bit 0 first.
    pub fn to_bit_string(&self) -> String {
        let mut digits = vec![b'0'; self.len];
        for (chunk, word) in digits.chunks_mut(64).zip(&self.words) {
            for (b, digit) in chunk.iter_mut().enumerate() {
                *digit += ((word >> b) & 1) as u8;
            }
        }
        String::from_utf8(digits).expect("ASCII digits")
    }

    /// Parses a `0`/`1` string produced by [`BitVec::to_bit_string`].
    ///
    /// Returns `None` when the string contains other characters.
    pub fn from_bit_string(s: &str) -> Option<Self> {
        let mut bv = BitVec::zeros(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => {}
                '1' => bv.set(i, true),
                _ => return None,
            }
        }
        Some(bv)
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}]({})", self.len, self.to_bit_string())
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_bit_string())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bits(iter)
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.len(), 70);
        assert_eq!(z.count_ones(), 0);
        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.get(69));
    }

    #[test]
    fn set_get_flip() {
        let mut bv = BitVec::zeros(130);
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert!(bv.get(0) && bv.get(64) && bv.get(129));
        assert_eq!(bv.count_ones(), 3);
        bv.flip(64);
        assert!(!bv.get(64));
        bv.flip(65);
        assert!(bv.get(65));
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut bv = BitVec::new();
        for i in 0..100 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 100);
        for i in (0..100).rev() {
            assert_eq!(bv.pop(), Some(i % 3 == 0));
        }
        assert_eq!(bv.pop(), None);
    }

    #[test]
    fn range_read_write() {
        let mut bv = BitVec::zeros(100);
        bv.write_range(10, 32, 0xDEADBEEF);
        assert_eq!(bv.read_range(10, 32), 0xDEADBEEF);
        // Crossing a word boundary.
        bv.write_range(60, 16, 0xABCD);
        assert_eq!(bv.read_range(60, 16), 0xABCD);
        // Neighbouring bits untouched.
        assert!(!bv.get(9));
        assert!(!bv.get(42));
    }

    #[test]
    fn from_u64_masks_value() {
        let bv = BitVec::from_u64(0xFFFF, 8);
        assert_eq!(bv.len(), 8);
        assert_eq!(bv.read_range(0, 8), 0xFF);
        let full = BitVec::from_u64(u64::MAX, 64);
        assert_eq!(full.count_ones(), 64);
    }

    #[test]
    fn diff_indices_reports_flips() {
        let a = BitVec::zeros(200);
        let mut b = a.clone();
        b.flip(3);
        b.flip(64);
        b.flip(199);
        assert_eq!(a.diff_indices(&b), vec![3, 64, 199]);
        assert_eq!(a.diff_indices(&a), Vec::<usize>::new());
    }

    #[test]
    fn parity_tracks_ones() {
        let mut bv = BitVec::zeros(9);
        assert!(!bv.parity());
        bv.set(4, true);
        assert!(bv.parity());
        bv.set(8, true);
        assert!(!bv.parity());
    }

    #[test]
    fn bit_string_roundtrip() {
        let bv = BitVec::from_bits([true, false, true, true, false]);
        let s = bv.to_bit_string();
        assert_eq!(s, "10110");
        assert_eq!(BitVec::from_bit_string(&s).unwrap(), bv);
        assert!(BitVec::from_bit_string("01x").is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(4).get(4);
    }

    #[test]
    fn collect_and_extend() {
        let mut bv: BitVec = [true, true, false].into_iter().collect();
        bv.extend([false, true]);
        assert_eq!(bv.to_bit_string(), "11001");
    }
}
