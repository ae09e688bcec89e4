//! Word-addressed main memory with code-segment write protection, shared
//! by every CPU core behind a test card.
//!
//! GOOFI's pre-runtime SWIFI technique injects faults "into the program and
//! data areas of the target system before it starts to execute"; the
//! framework reaches memory through the test card's `writeMemory()` /
//! `readMemory()` building blocks, which map to the raw accessors here
//! (protection applies to the *running program*, not the tool). Storage is
//! copy-on-write pages, so whole-CPU snapshots are reference-count bumps,
//! with a per-page slot for a memoized digest of the page's contents.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default memory size in 32-bit words (64 Ki words = 256 KiB).
pub const DEFAULT_MEMORY_WORDS: usize = 65_536;

/// Words per copy-on-write page (4 KiB).
pub const PAGE_WORDS: usize = 1024;
const PAGE_SHIFT: u32 = PAGE_WORDS.trailing_zeros();
const PAGE_MASK: usize = PAGE_WORDS - 1;

/// One copy-on-write page of main memory, with a slot for a memoized
/// digest of its contents.
///
/// The digest slot is a pure cache: `0` means "not computed" (a real
/// digest of 0 is merely recomputed every time), any other value is the
/// caller-defined digest of `words` as of the last
/// [`Memory::cache_page_digest`]. Every mutation path resets it. It is
/// deliberately excluded from equality.
#[derive(Debug)]
struct Page {
    words: [u32; PAGE_WORDS],
    digest: AtomicU64,
}

impl Page {
    fn zeroed() -> Self {
        Page {
            words: [0; PAGE_WORDS],
            digest: AtomicU64::new(0),
        }
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        // The digest describes `words`, which are copied verbatim, so the
        // cached value stays correct in the copy.
        Page {
            words: self.words,
            digest: AtomicU64::new(self.digest.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl Eq for Page {}

/// Errors raised by program-initiated memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// Address beyond the end of memory.
    OutOfRange {
        /// Offending word address.
        addr: u32,
    },
    /// Write into the protected code segment.
    WriteProtected {
        /// Offending word address.
        addr: u32,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfRange { addr } => write!(f, "address {addr:#x} out of range"),
            MemoryError::WriteProtected { addr } => {
                write!(f, "write to protected code segment at {addr:#x}")
            }
        }
    }
}

impl Error for MemoryError {}

/// Main memory: word-addressed, stored as copy-on-write pages.
///
/// Each 4 KiB page sits behind an [`Arc`], so cloning a `Memory` (and
/// therefore a whole CPU or test card, as a snapshot does) only bumps 64
/// reference counts; the first write to a shared page after a clone pays
/// for copying that one page. The flat-array semantics of every accessor
/// are unchanged. Words past `len` in the last page are invariantly zero —
/// every write is bounds-checked against `len` first — so derived
/// equality over pages matches flat-array equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    pages: Vec<Arc<Page>>,
    len: usize,
    code_words: u32,
    protect_code: bool,
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new(DEFAULT_MEMORY_WORDS)
    }
}

impl Memory {
    /// Creates zeroed memory of `words` 32-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is 0 or exceeds `u32::MAX`.
    pub fn new(words: usize) -> Self {
        assert!(words > 0 && words <= u32::MAX as usize, "bad memory size");
        // Every slot starts as the same shared zero page; pages diverge
        // lazily as they are written.
        let zero: Arc<Page> = Arc::new(Page::zeroed());
        Memory {
            pages: (0..words.div_ceil(PAGE_WORDS))
                .map(|_| Arc::clone(&zero))
                .collect(),
            len: words,
            code_words: 0,
            protect_code: true,
        }
    }

    /// Size in words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the memory has zero words (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The word at `addr`; the caller has bounds-checked `addr < len`.
    #[inline(always)]
    fn word(&self, addr: usize) -> u32 {
        self.pages[addr >> PAGE_SHIFT].words[addr & PAGE_MASK]
    }

    /// Stores `value` at `addr` (bounds-checked by the caller) and drops
    /// the page's digest. A page this memory alone holds is written in
    /// place; one a snapshot still shares is copied first, out of line.
    #[inline(always)]
    fn set_word(&mut self, addr: usize, value: u32) {
        let slot = &mut self.pages[addr >> PAGE_SHIFT];
        if let Some(page) = Arc::get_mut(slot) {
            *page.digest.get_mut() = 0;
            page.words[addr & PAGE_MASK] = value;
        } else {
            set_word_unshared(slot, addr, value);
        }
    }

    /// Number of copy-on-write pages backing this memory.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The live words of page `index` (the last page may be partial).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn page_words(&self, index: usize) -> &[u32] {
        let live = (self.len - index * PAGE_WORDS).min(PAGE_WORDS);
        &self.pages[index].words[..live]
    }

    /// The memoized digest of page `index`, if one has been cached since
    /// the page last changed. The digest function is the caller's; memory
    /// only guarantees the cache is dropped on mutation.
    pub fn cached_page_digest(&self, index: usize) -> Option<u64> {
        match self.pages[index].digest.load(Ordering::Relaxed) {
            0 => None,
            d => Some(d),
        }
    }

    /// Memoizes `digest` for the current contents of page `index`.
    pub fn cache_page_digest(&self, index: usize, digest: u64) {
        self.pages[index].digest.store(digest, Ordering::Relaxed);
    }

    /// Whether `self` and `other` hold the same words under the same code
    /// segment and protection. Pages both still share with one capture
    /// are equal without being read.
    pub fn same_contents(&self, other: &Memory) -> bool {
        self.len == other.len
            && self.code_words == other.code_words
            && self.protect_code == other.protect_code
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a.words == b.words)
    }

    /// Marks `[0, code_words)` as the (write-protected) code segment.
    pub fn set_code_segment(&mut self, code_words: u32) {
        self.code_words = code_words;
    }

    /// Size of the code segment in words.
    #[inline]
    pub fn code_segment(&self) -> u32 {
        self.code_words
    }

    /// Enables or disables code-segment write protection.
    pub fn set_protection(&mut self, on: bool) {
        self.protect_code = on;
    }

    /// Whether code-segment write protection is enabled.
    pub fn protection(&self) -> bool {
        self.protect_code
    }

    /// Program-initiated read.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] past the end of memory.
    #[inline(always)]
    pub fn read(&self, addr: u32) -> Result<u32, MemoryError> {
        if (addr as usize) < self.len {
            Ok(self.word(addr as usize))
        } else {
            Err(MemoryError::OutOfRange { addr })
        }
    }

    /// Program-initiated write, subject to code-segment protection.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] past the end of memory and
    /// [`MemoryError::WriteProtected`] for stores into a protected code
    /// segment.
    #[inline(always)]
    pub fn write(&mut self, addr: u32, value: u32) -> Result<(), MemoryError> {
        if self.protect_code && addr < self.code_words {
            return Err(MemoryError::WriteProtected { addr });
        }
        if (addr as usize) < self.len {
            self.set_word(addr as usize, value);
            Ok(())
        } else {
            Err(MemoryError::OutOfRange { addr })
        }
    }

    /// Tool-initiated read (`readMemory()` building block): no protection.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] past the end of memory.
    pub fn read_raw(&self, addr: u32) -> Result<u32, MemoryError> {
        self.read(addr)
    }

    /// Tool-initiated write (`writeMemory()` building block): bypasses
    /// protection, so pre-runtime SWIFI can corrupt the program area.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] past the end of memory.
    pub fn write_raw(&mut self, addr: u32, value: u32) -> Result<(), MemoryError> {
        if (addr as usize) < self.len {
            self.set_word(addr as usize, value);
            Ok(())
        } else {
            Err(MemoryError::OutOfRange { addr })
        }
    }

    /// Flips one bit of one word — the SWIFI fault primitive.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] past the end of memory.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 32`.
    pub fn flip_bit(&mut self, addr: u32, bit: u8) -> Result<(), MemoryError> {
        assert!(bit < 32, "bit index {bit} out of range");
        let v = self.read_raw(addr)?;
        self.write_raw(addr, v ^ (1 << bit))
    }

    /// Copies a block into memory starting at `addr` (workload download).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] if the block does not fit.
    pub fn load_block(&mut self, addr: u32, data: &[u32]) -> Result<(), MemoryError> {
        let start = addr as usize;
        start
            .checked_add(data.len())
            .filter(|&e| e <= self.len)
            .ok_or(MemoryError::OutOfRange {
                addr: addr.saturating_add(data.len() as u32),
            })?;
        let mut pos = start;
        let mut src = data;
        while !src.is_empty() {
            let off = pos & PAGE_MASK;
            let n = (PAGE_WORDS - off).min(src.len());
            let page = Arc::make_mut(&mut self.pages[pos >> PAGE_SHIFT]);
            *page.digest.get_mut() = 0;
            page.words[off..off + n].copy_from_slice(&src[..n]);
            src = &src[n..];
            pos += n;
        }
        Ok(())
    }

    /// Reads a block of `len` words starting at `addr` (state logging).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] if the block does not fit.
    pub fn read_block(&self, addr: u32, len: usize) -> Result<Vec<u32>, MemoryError> {
        let start = addr as usize;
        start
            .checked_add(len)
            .filter(|&e| e <= self.len)
            .ok_or(MemoryError::OutOfRange {
                addr: addr.saturating_add(len as u32),
            })?;
        let mut out = Vec::with_capacity(len);
        let mut pos = start;
        while out.len() < len {
            let off = pos & PAGE_MASK;
            let n = (PAGE_WORDS - off).min(len - out.len());
            out.extend_from_slice(&self.pages[pos >> PAGE_SHIFT].words[off..off + n]);
            pos += n;
        }
        Ok(out)
    }

    /// Whether the first `words.len()` words of memory are `words`,
    /// compared a page at a time.
    pub fn starts_with(&self, words: &[u32]) -> bool {
        words.len() <= self.len
            && words
                .chunks(PAGE_WORDS)
                .zip(&self.pages)
                .all(|(chunk, page)| page.words[..chunk.len()] == *chunk)
    }

    /// Zeroes all of memory and forgets the code segment.
    pub fn clear(&mut self) {
        // Re-point every slot at one shared zero page instead of writing
        // zeros through — O(pages), and snapshots sharing the old pages
        // are unaffected.
        let zero: Arc<Page> = Arc::new(Page::zeroed());
        for page in &mut self.pages {
            *page = Arc::clone(&zero);
        }
        self.code_words = 0;
    }
}

/// [`Memory::set_word`] on a page a snapshot still shares: copies the
/// page, then stores. Kept out of line so the store path stays small.
#[cold]
#[inline(never)]
fn set_word_unshared(slot: &mut Arc<Page>, addr: usize, value: u32) {
    let page = Arc::make_mut(slot);
    *page.digest.get_mut() = 0;
    page.words[addr & PAGE_MASK] = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new(128);
        m.write(100, 0xCAFEBABE).unwrap();
        assert_eq!(m.read(100).unwrap(), 0xCAFEBABE);
        assert_eq!(m.read(99).unwrap(), 0);
    }

    #[test]
    fn read_write_roundtrip_and_bounds() {
        let mut m = Memory::new(128);
        m.write(100, 0xCAFE_BABE).unwrap();
        assert_eq!(m.read(100).unwrap(), 0xCAFE_BABE);
        assert_eq!(
            m.read(128).unwrap_err(),
            MemoryError::OutOfRange { addr: 128 }
        );
    }

    #[test]
    fn out_of_range_detected() {
        let mut m = Memory::new(16);
        assert_eq!(
            m.read(16).unwrap_err(),
            MemoryError::OutOfRange { addr: 16 }
        );
        assert_eq!(
            m.write(999, 1).unwrap_err(),
            MemoryError::OutOfRange { addr: 999 }
        );
    }

    #[test]
    fn code_protection_blocks_program_writes_only() {
        let mut m = Memory::new(64);
        m.set_code_segment(8);
        assert_eq!(
            m.write(3, 1).unwrap_err(),
            MemoryError::WriteProtected { addr: 3 }
        );
        // Tool access bypasses protection (pre-runtime SWIFI needs this).
        m.write_raw(3, 7).unwrap();
        assert_eq!(m.read(3).unwrap(), 7);
        // Data area writable by the program.
        m.write(8, 9).unwrap();
        // Protection can be switched off.
        m.set_protection(false);
        m.write(3, 2).unwrap();
    }

    #[test]
    fn flip_bit_flips_one_bit() {
        let mut m = Memory::new(8);
        m.write_raw(2, 0b1000).unwrap();
        m.flip_bit(2, 3).unwrap();
        assert_eq!(m.read(2).unwrap(), 0);
        m.flip_bit(2, 31).unwrap();
        assert_eq!(m.read(2).unwrap(), 1 << 31);
    }

    #[test]
    fn flip_bit_and_blocks() {
        let mut m = Memory::new(PAGE_WORDS * 2);
        m.flip_bit(PAGE_WORDS as u32, 31).unwrap();
        assert_eq!(m.read(PAGE_WORDS as u32).unwrap(), 1 << 31);
        m.load_block(PAGE_WORDS as u32 - 1, &[1, 2, 3]).unwrap();
        assert_eq!(
            m.read_block(PAGE_WORDS as u32 - 1, 3).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn block_load_and_read() {
        let mut m = Memory::new(32);
        m.load_block(4, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_block(4, 3).unwrap(), vec![1, 2, 3]);
        assert!(m.load_block(30, &[1, 2, 3]).is_err());
        assert!(m.read_block(31, 2).is_err());
    }

    #[test]
    fn digest_memo_dropped_on_mutation() {
        let mut m = Memory::new(PAGE_WORDS);
        assert_eq!(m.cached_page_digest(0), None);
        m.cache_page_digest(0, 99);
        assert_eq!(m.cached_page_digest(0), Some(99));
        m.write_raw(0, 1).unwrap();
        assert_eq!(m.cached_page_digest(0), None);
    }

    #[test]
    fn same_contents_compares_words_and_code_segment() {
        let mut a = Memory::new(PAGE_WORDS * 2);
        a.write_raw(5, 9).unwrap();
        let mut b = a.clone();
        assert!(a.same_contents(&b));
        b.write_raw(PAGE_WORDS as u32 + 1, 1).unwrap();
        assert!(!a.same_contents(&b));
        b.write_raw(PAGE_WORDS as u32 + 1, 0).unwrap();
        assert!(a.same_contents(&b), "equal words on unshared pages");
        b.set_code_segment(4);
        assert!(!a.same_contents(&b));
    }

    #[test]
    fn a_store_to_a_shared_page_leaves_the_sharer_alone() {
        let mut a = Memory::new(PAGE_WORDS * 2);
        a.write_raw(3, 1).unwrap();
        a.cache_page_digest(0, 42);
        let snapshot = a.clone();
        a.write(3, 2).unwrap();
        a.write(4, 5).unwrap();
        assert_eq!((a.read(3), a.read(4)), (Ok(2), Ok(5)));
        assert_eq!((snapshot.read(3), snapshot.read(4)), (Ok(1), Ok(0)));
        assert_eq!(a.cached_page_digest(0), None);
        assert_eq!(snapshot.cached_page_digest(0), Some(42));
    }

    #[test]
    fn starts_with_compares_a_prefix_across_pages() {
        let mut m = Memory::new(PAGE_WORDS * 2);
        let prefix: Vec<u32> = (1..=PAGE_WORDS as u32 + 3).collect();
        m.load_block(0, &prefix).unwrap();
        assert!(m.starts_with(&prefix));
        assert!(m.starts_with(&prefix[..2]));
        assert!(m.starts_with(&[]));
        m.flip_bit(PAGE_WORDS as u32 + 1, 0).unwrap();
        assert!(!m.starts_with(&prefix));
        assert!(!Memory::new(2).starts_with(&[0, 0, 0]));
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = Memory::new(8);
        m.set_code_segment(4);
        m.write_raw(1, 5).unwrap();
        m.clear();
        assert_eq!(m.read(1).unwrap(), 0);
        assert_eq!(m.code_segment(), 0);
    }
}
