//! Parity-protected direct-mapped caches.
//!
//! The Thor RD features "parity protected instruction and data caches"
//! (paper §1) — the main hardware error detection mechanism exercised by the
//! SCIFI campaigns. Each cache line stores a tag, a valid bit, one data word
//! and a parity bit covering tag and data. Scan-chain faults injected into
//! any of those bits interact with the parity check exactly as on silicon:
//!
//! * a flip in *data* or *tag* bits of a valid line is caught by the parity
//!   check on the next hit;
//! * a flip that *clears* the valid bit turns the line into a miss — the
//!   fault is overwritten by the refill (a non-effective error);
//! * a flip that *sets* the valid bit of an invalid line fabricates a bogus
//!   hit, which the parity check usually (but not always) catches.

use scanchain::BitVec;

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of direct-mapped lines; must be a power of two.
    pub lines: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { lines: 32 }
    }
}

/// Hit/miss/parity-error counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit a valid, parity-clean line.
    pub hits: u64,
    /// Lookups that missed and refilled.
    pub misses: u64,
    /// Lookups aborted by a parity error.
    pub parity_errors: u64,
}

/// One cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Line {
    /// Valid bit.
    pub valid: bool,
    /// Tag (upper address bits).
    pub tag: u32,
    /// Cached data word.
    pub data: u32,
    /// Parity bit covering `tag` and `data` (even parity: stored bit makes
    /// the total number of ones even).
    pub parity: bool,
}

impl Line {
    /// Whether `tag` and `data` together hold an odd number of ones: the
    /// parity of `tag ^ data`, folded down to one bit.
    #[inline]
    fn computed_parity(tag: u32, data: u32) -> bool {
        let mut x = tag ^ data;
        x ^= x >> 16;
        x ^= x >> 8;
        x ^= x >> 4;
        x ^= x >> 2;
        x ^= x >> 1;
        x & 1 == 1
    }

    /// Whether the line's stored parity matches its contents.
    pub fn parity_ok(&self) -> bool {
        self.parity == Line::computed_parity(self.tag, self.data)
    }
}

/// The result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Valid line, parity clean: the cached word.
    Hit(u32),
    /// No valid matching line; caller must refill.
    Miss,
    /// Valid matching line whose parity check failed.
    ParityError,
}

/// A direct-mapped, parity-protected, write-through cache.
///
/// A line installed by [`Cache::fill`] (or cleared by [`Cache::reset`])
/// always carries consistent parity, and invalidation touches only the
/// valid bit, which parity does not cover. Only a scan write can make
/// parity disagree with a line's contents, so [`Cache::lookup`] checks
/// parity only on lines written through [`Cache::update_line`] or
/// [`Cache::line_mut`] since their last fill.
///
/// Every lookup and fill stamps its line with the core's instruction
/// count, so a run can tell which lines it never used after a given
/// instant ([`Cache::matches_where_used`]).
#[derive(Debug, Clone)]
pub struct Cache {
    slots: Vec<Slot>,
    mask: u32,
    shift: u32,
    stats: CacheStats,
    parity_enabled: bool,
}

/// One line and what the cache keeps about it.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    line: Line,
    /// Written by scan since the last fill, so parity may be off.
    scanned: bool,
    /// One more than the instruction count of the line's last lookup or
    /// fill; 0 if it has not been used since the last reset.
    used: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.lines` is not a power of two or is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.lines.is_power_of_two() && config.lines > 0,
            "cache lines must be a nonzero power of two"
        );
        Cache {
            slots: vec![Slot::default(); config.lines],
            mask: (config.lines - 1) as u32,
            shift: config.lines.trailing_zeros(),
            stats: CacheStats::default(),
            parity_enabled: true,
        }
    }

    /// Number of lines.
    pub fn line_count(&self) -> usize {
        self.slots.len()
    }

    /// Access to a line (for scan capture).
    pub fn line(&self, index: usize) -> &Line {
        &self.slots[index].line
    }

    /// Mutable access to a line (for scan update — this is how faults land).
    /// The line's parity is checked on every hit until its next fill.
    pub fn line_mut(&mut self, index: usize) -> &mut Line {
        let slot = &mut self.slots[index];
        slot.scanned = true;
        &mut slot.line
    }

    /// Enables/disables the parity check (PSW-controlled EDM).
    pub fn set_parity_enabled(&mut self, on: bool) {
        self.parity_enabled = on;
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidates all lines and clears statistics.
    pub fn reset(&mut self) {
        self.slots.fill(Slot::default());
        self.stats = CacheStats::default();
    }

    #[inline]
    fn index_tag(&self, addr: u32) -> (usize, u32) {
        ((addr & self.mask) as usize, addr >> self.shift)
    }

    /// Looks up `addr` during the instruction that starts at instruction
    /// count `now`. On a parity error with the check disabled, the
    /// corrupted word is returned as a hit (silent data corruption),
    /// exactly as disabling the EDM would behave on hardware.
    #[inline]
    pub fn lookup(&mut self, addr: u32, now: u64) -> Lookup {
        let (idx, tag) = self.index_tag(addr);
        let slot = &mut self.slots[idx];
        slot.used = now + 1;
        let line = slot.line;
        if line.valid && line.tag == tag {
            if self.parity_enabled && slot.scanned && !line.parity_ok() {
                self.stats.parity_errors += 1;
                return Lookup::ParityError;
            }
            // EDM disabled: corrupted data flows on silently.
            self.stats.hits += 1;
            Lookup::Hit(line.data)
        } else {
            self.stats.misses += 1;
            Lookup::Miss
        }
    }

    /// Installs `data` for `addr` with freshly computed parity (refill or
    /// write-through allocate), during the instruction that starts at
    /// instruction count `now`.
    #[inline]
    pub fn fill(&mut self, addr: u32, data: u32, now: u64) {
        let (idx, tag) = self.index_tag(addr);
        self.slots[idx] = Slot {
            line: Line {
                valid: true,
                tag,
                data,
                parity: Line::computed_parity(tag, data),
            },
            scanned: false,
            used: now + 1,
        };
    }

    /// Invalidates the line holding `addr`, if it matches.
    pub fn invalidate(&mut self, addr: u32) {
        let (idx, tag) = self.index_tag(addr);
        let line = &mut self.slots[idx].line;
        if line.valid && line.tag == tag {
            line.valid = false;
        }
    }

    /// Whether `self` behaves like `checkpoint` for a run that, from
    /// instruction count `since` on, uses only the lines `end` shows used:
    /// same geometry and parity enable, and equal lines wherever `end`
    /// (a later state of the run through `checkpoint`) looked up or filled
    /// a line at or after `since`. Stamps, scan marks and statistics are
    /// left out: a line of consistent parity behaves the same marked or
    /// not, and the run's lines all have consistent parity.
    pub fn matches_where_used(&self, checkpoint: &Cache, end: &Cache, since: u64) -> bool {
        self.mask == checkpoint.mask
            && self.parity_enabled == checkpoint.parity_enabled
            && end
                .slots
                .iter()
                .zip(self.slots.iter().zip(&checkpoint.slots))
                .all(|(end, (live, golden))| end.used <= since || live.line == golden.line)
    }

    /// Turns `self`, the end state of a run through `checkpoint`, into the
    /// state `live` reaches by the same run from instruction count
    /// `since`: lines the run did not use after `since` keep `live`'s
    /// contents, scan marks and stamps, and the statistics move by the
    /// run's own hits, misses and parity errors.
    pub fn rebase(&mut self, live: &Cache, checkpoint: &Cache, since: u64) {
        for (slot, own) in self.slots.iter_mut().zip(&live.slots) {
            if slot.used <= since {
                *slot = *own;
            }
        }
        let moved = |own: u64, end: u64, from: u64| own.wrapping_add(end.wrapping_sub(from));
        let (run, from) = (self.stats, checkpoint.stats);
        self.stats = CacheStats {
            hits: moved(live.stats.hits, run.hits, from.hits),
            misses: moved(live.stats.misses, run.misses, from.misses),
            parity_errors: moved(
                live.stats.parity_errors,
                run.parity_errors,
                from.parity_errors,
            ),
        };
    }

    /// Width of the tag field in scan bits for this geometry.
    pub fn tag_bits(&self) -> usize {
        32 - self.shift as usize
    }

    /// Serialises one line to scan bits: `VALID | TAG | DATA | PAR`.
    pub fn capture_line(&self, index: usize) -> BitVec {
        let line = self.line(index);
        let mut bv = BitVec::zeros(1 + self.tag_bits() + 32 + 1);
        bv.set(0, line.valid);
        bv.write_range(1, self.tag_bits(), line.tag as u64);
        bv.write_range(1 + self.tag_bits(), 32, line.data as u64);
        bv.set(1 + self.tag_bits() + 32, line.parity);
        bv
    }

    /// Applies scan bits to one line (the update path faults ride in on).
    ///
    /// # Panics
    ///
    /// Panics if `bits` has the wrong length for this geometry.
    pub fn update_line(&mut self, index: usize, bits: &BitVec) {
        let tag_bits = self.tag_bits();
        assert_eq!(bits.len(), 1 + tag_bits + 32 + 1, "line image size");
        let line = self.line_mut(index);
        line.valid = bits.get(0);
        line.tag = bits.read_range(1, tag_bits) as u32;
        line.data = bits.read_range(1 + tag_bits, 32) as u32;
        line.parity = bits.get(1 + tag_bits + 32);
    }
}

/// Equal lines, statistics and parity enable. The scan marks are left out
/// (a marked line with consistent parity behaves exactly like an unmarked
/// one), and so are the use stamps.
impl PartialEq for Cache {
    fn eq(&self, other: &Self) -> bool {
        self.slots
            .iter()
            .map(|s| s.line)
            .eq(other.slots.iter().map(|s| s.line))
            && self.stats == other.stats
            && self.parity_enabled == other.parity_enabled
    }
}

impl Eq for Cache {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> Cache {
        Cache::new(CacheConfig { lines: 8 })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        assert_eq!(c.lookup(100, 0), Lookup::Miss);
        c.fill(100, 77, 0);
        assert_eq!(c.lookup(100, 0), Lookup::Hit(77));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflicting_addresses_evict() {
        let mut c = cache();
        c.fill(4, 1, 0);
        c.fill(4 + 8, 2, 0); // same index, different tag
        assert_eq!(c.lookup(4, 0), Lookup::Miss);
        assert_eq!(c.lookup(12, 0), Lookup::Hit(2));
    }

    #[test]
    fn data_flip_caught_by_parity() {
        let mut c = cache();
        c.fill(5, 0xFF, 0);
        c.line_mut(5).data ^= 1 << 9; // injected fault
        assert_eq!(c.lookup(5, 0), Lookup::ParityError);
        assert_eq!(c.stats().parity_errors, 1);
    }

    #[test]
    fn tag_flip_becomes_miss() {
        let mut c = cache();
        c.fill(5, 0xFF, 0);
        c.line_mut(5).tag ^= 1 << 2;
        // Tag no longer matches: a miss, so the fault gets overwritten.
        assert_eq!(c.lookup(5, 0), Lookup::Miss);
        c.fill(5, 0xFF, 0);
        assert_eq!(c.lookup(5, 0), Lookup::Hit(0xFF));
    }

    #[test]
    fn parity_bit_flip_caught() {
        let mut c = cache();
        c.fill(3, 12, 0);
        c.line_mut(3).parity = !c.line(3).parity;
        assert_eq!(c.lookup(3, 0), Lookup::ParityError);
    }

    #[test]
    fn valid_clear_becomes_miss() {
        let mut c = cache();
        c.fill(3, 12, 0);
        c.line_mut(3).valid = false;
        assert_eq!(c.lookup(3, 0), Lookup::Miss);
    }

    #[test]
    fn disabled_parity_returns_corrupt_data() {
        let mut c = cache();
        c.fill(5, 0b1000, 0);
        c.line_mut(5).data ^= 0b0010;
        c.set_parity_enabled(false);
        assert_eq!(c.lookup(5, 0), Lookup::Hit(0b1010));
        assert_eq!(c.stats().parity_errors, 0);
    }

    #[test]
    fn invalidate_specific_line() {
        let mut c = cache();
        c.fill(9, 1, 0);
        c.invalidate(1); // different tag, same index — no effect
        assert_eq!(c.lookup(9, 0), Lookup::Hit(1));
        c.invalidate(9);
        assert_eq!(c.lookup(9, 0), Lookup::Miss);
    }

    #[test]
    fn scan_line_roundtrip() {
        let mut c = cache();
        c.fill(6, 0xDEAD, 0);
        let img = c.capture_line(6);
        let mut c2 = cache();
        c2.update_line(6, &img);
        assert_eq!(c2.line(6), c.line(6));
        assert_eq!(c2.lookup(6, 0), Lookup::Hit(0xDEAD));
    }

    #[test]
    fn scan_image_bit_flip_matches_field_flip() {
        let mut c = cache();
        c.fill(2, 0xABCD, 0);
        let mut img = c.capture_line(2);
        img.flip(0); // valid bit
        c.update_line(2, &img);
        assert!(!c.line(2).valid);
    }

    #[test]
    fn reset_clears_lines_and_stats() {
        let mut c = cache();
        c.fill(1, 2, 0);
        c.lookup(1, 0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.lookup(1, 0), Lookup::Miss);
    }

    #[test]
    fn lines_unused_since_a_checkpoint_are_left_out_and_kept() {
        let mut checkpoint = cache();
        checkpoint.fill(1, 10, 0);
        checkpoint.fill(2, 20, 1);
        let mut end = checkpoint.clone();
        assert_eq!(end.lookup(2, 5), Lookup::Hit(20));
        end.fill(4, 40, 6);
        // Line 1 was last used before instruction 2; lines 2 and 4 after.
        let mut live = checkpoint.clone();
        live.line_mut(1).data ^= 1;
        assert!(live.matches_where_used(&checkpoint, &end, 2));
        live.line_mut(2).data ^= 1;
        assert!(!live.matches_where_used(&checkpoint, &end, 2));
        live.line_mut(2).data ^= 1;

        let mut next = end.clone();
        next.rebase(&live, &checkpoint, 2);
        assert_eq!(next.stats().hits, live.stats().hits + 1);
        assert_eq!(*next.line(1), *live.line(1));
        assert_eq!(next.lookup(1, 7), Lookup::ParityError, "scan mark kept");
        assert_eq!((*next.line(2), *next.line(4)), (*end.line(2), *end.line(4)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Cache::new(CacheConfig { lines: 12 });
    }
}
