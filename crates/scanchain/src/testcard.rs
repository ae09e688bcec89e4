//! The host-side test card that drives a scan-instrumented target.
//!
//! GOOFI's SCIFI algorithm begins every experiment with `initTestCard()`
//! (paper Figure 2); the test card is the PC-resident hardware that wiggles
//! the target's TAP pins. [`TestCard`] models it faithfully: every chain
//! access walks the real TAP state machine and shifts the chain bit by bit,
//! so the accounting in [`TestCardStats`] (TCK cycles, bits shifted) gives
//! the same cost model as hardware SCIFI — which is what makes the paper's
//! normal-vs-detail-mode overhead experiment meaningful.

use crate::{BitVec, ChainLayout, ScanError, TapController, TapInstruction, TapState};

/// A device whose internal state is reachable through scan chains.
///
/// The `thor` crate's CPU implements this; any other target system ported to
/// GOOFI does the same, which is exactly the paper's `TargetSystemInterface`
/// porting step for the scan-related building blocks.
pub trait ScanTarget {
    /// Names of the target's scan chains, in SCAN_N index order.
    fn chain_names(&self) -> Vec<String>;

    /// Layout of the named chain.
    fn chain_layout(&self, chain: &str) -> Option<&ChainLayout>;

    /// Captures the current values of the chain's cells (Capture-DR).
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::UnknownChain`] for unknown names.
    fn capture_chain(&self, chain: &str) -> Result<BitVec, ScanError>;

    /// Applies an update image to the chain's writable cells (Update-DR).
    ///
    /// Implementations must ignore bits belonging to read-only cells.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::UnknownChain`] or
    /// [`ScanError::LengthMismatch`] on bad input.
    fn update_chain(&mut self, chain: &str, bits: &BitVec) -> Result<(), ScanError>;
}

/// Cumulative cost statistics of the test-card <-> target traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TestCardStats {
    /// Number of chain read operations performed.
    pub reads: u64,
    /// Number of chain write operations performed.
    pub writes: u64,
    /// Total bits shifted through TDI/TDO.
    pub bits_shifted: u64,
    /// Total TCK cycles applied to the TAP.
    pub tck_cycles: u64,
}

impl TestCardStats {
    /// Estimated wall-clock time of the scan traffic at `tck_hz` clock rate.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::BadFrequency`] for a non-positive (or NaN)
    /// clock rate.
    pub fn estimated_seconds(&self, tck_hz: f64) -> Result<f64, ScanError> {
        if tck_hz.is_nan() || tck_hz <= 0.0 {
            return Err(ScanError::BadFrequency);
        }
        Ok(self.tck_cycles as f64 / tck_hz)
    }
}

/// The host-side scan controller: owns the TAP model and drives a target.
///
/// # Example
///
/// ```no_run
/// use scanchain::{ScanTarget, TestCard};
/// fn demo<T: ScanTarget>(target: T) -> Result<(), scanchain::ScanError> {
///     let mut card = TestCard::new(target);
///     card.init()?;
///     let mut bits = card.read_chain("internal")?;
///     bits.flip(7); // single bit-flip fault
///     card.write_chain("internal", &bits)?;
///     Ok(())
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TestCard<T> {
    target: T,
    tap: TapController,
    stats: TestCardStats,
    /// SCAN_N register index per chain name, resolved once at construction
    /// (chain topology is static) so a chain walk does not re-enumerate
    /// the target's chains.
    chain_index: std::sync::Arc<std::collections::HashMap<String, u8>>,
}

impl<T: ScanTarget> TestCard<T> {
    /// Wraps a target in a test card. Call [`TestCard::init`] before use.
    pub fn new(target: T) -> Self {
        let chain_index = target
            .chain_names()
            .into_iter()
            .enumerate()
            .map(|(i, name)| (name, i as u8))
            .collect();
        TestCard {
            target,
            tap: TapController::default(),
            stats: TestCardStats::default(),
            chain_index: std::sync::Arc::new(chain_index),
        }
    }

    /// Resets the TAP controller to Run-Test/Idle (the `initTestCard()`
    /// building block of the paper's Figure 2 algorithm).
    ///
    /// # Errors
    ///
    /// Infallible today, but kept fallible to match the hardware building
    /// block it models.
    pub fn init(&mut self) -> Result<(), ScanError> {
        self.tap.reset_to_idle();
        self.sync_stats();
        Ok(())
    }

    /// Shared access to the wrapped target.
    pub fn target(&self) -> &T {
        &self.target
    }

    /// Exclusive access to the wrapped target (used by the framework for
    /// non-scan operations such as memory download and clocking the core).
    pub fn target_mut(&mut self) -> &mut T {
        &mut self.target
    }

    /// Consumes the card, returning the target.
    pub fn into_target(self) -> T {
        self.target
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> TestCardStats {
        self.stats
    }

    /// Reads the device identification code through the IDCODE data
    /// register — the standard first step of a test-card session, used to
    /// verify the expected target is attached before downloading anything.
    ///
    /// # Errors
    ///
    /// Infallible today; fallible to match the hardware operation.
    pub fn read_idcode(&mut self) -> Result<u32, ScanError> {
        if self.tap.state() != TapState::RunTestIdle {
            self.tap.reset_to_idle();
        }
        self.tap.load_instruction(TapInstruction::IdCode)?;
        let idcode = self.tap.idcode();
        // Walk the DR path: Select-DR -> Capture-DR -> 32 shifts -> Update.
        self.tap.clock_seq(&[true, false]);
        self.tap.clock(false); // enter Shift-DR
        for i in 0..32 {
            self.tap.clock(i == 31);
            self.stats.bits_shifted += 1;
        }
        self.tap.clock(true); // Update-DR
        self.tap.clock(false); // Run-Test/Idle
        self.sync_stats();
        Ok(idcode)
    }

    /// Layout of a chain, by name.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::UnknownChain`] for unknown names.
    pub fn layout(&self, chain: &str) -> Result<&ChainLayout, ScanError> {
        self.target
            .chain_layout(chain)
            .ok_or_else(|| ScanError::UnknownChain(chain.to_string()))
    }

    /// Reads a full chain image without disturbing the target state.
    ///
    /// Models SAMPLE semantics: capture, shift out, and write back the very
    /// bits that were captured.
    ///
    /// # Errors
    ///
    /// Propagates target errors; fails on unknown chains.
    pub fn read_chain(&mut self, chain: &str) -> Result<BitVec, ScanError> {
        let captured = self.dr_access(chain, None)?;
        self.stats.reads += 1;
        Ok(captured)
    }

    /// Writes a full chain image; read-only cells keep their captured value.
    ///
    /// Returns the *previous* (captured) image, which the SCIFI algorithm
    /// logs as part of the experiment data.
    ///
    /// # Errors
    ///
    /// Fails on unknown chains or a length mismatch.
    pub fn write_chain(&mut self, chain: &str, bits: &BitVec) -> Result<BitVec, ScanError> {
        let captured = self.dr_access(chain, Some(bits))?;
        self.stats.writes += 1;
        Ok(captured)
    }

    /// Reads one named cell of a chain.
    ///
    /// # Errors
    ///
    /// Fails on unknown chain or cell names.
    pub fn read_cell(&mut self, chain: &str, cell: &str) -> Result<u64, ScanError> {
        let bits = self.read_chain(chain)?;
        self.layout(chain)?.read_cell(&bits, cell)
    }

    /// Writes one named cell of a chain, leaving all other cells unchanged.
    ///
    /// # Errors
    ///
    /// Fails on unknown names, read-only cells, or too-wide values.
    pub fn write_cell(&mut self, chain: &str, cell: &str, value: u64) -> Result<(), ScanError> {
        let layout = self.layout(chain)?.clone();
        let def = layout
            .cell(cell)
            .ok_or_else(|| ScanError::UnknownCell(cell.to_string()))?;
        if def.access == crate::CellAccess::ReadOnly {
            return Err(ScanError::ReadOnlyCell {
                cell: cell.to_string(),
                chain: chain.to_string(),
            });
        }
        let mut bits = self.read_chain(chain)?;
        layout.write_cell(&mut bits, cell, value)?;
        self.write_chain(chain, &bits)?;
        Ok(())
    }

    /// Inverts `bit` within the named cell — the SCIFI bit-flip primitive
    /// ("reading the contents of the scan-chains, inverting the bits stated
    /// in the campaign data and writing back", paper §3.3).
    ///
    /// # Errors
    ///
    /// Fails on unknown names, read-only cells, or a bit index outside the
    /// cell.
    pub fn flip_cell_bit(&mut self, chain: &str, cell: &str, bit: usize) -> Result<(), ScanError> {
        let layout = self.layout(chain)?.clone();
        let def = layout
            .cell(cell)
            .ok_or_else(|| ScanError::UnknownCell(cell.to_string()))?
            .clone();
        if def.access == crate::CellAccess::ReadOnly {
            return Err(ScanError::ReadOnlyCell {
                cell: cell.to_string(),
                chain: chain.to_string(),
            });
        }
        if bit >= def.width {
            return Err(ScanError::ValueTooWide {
                cell: cell.to_string(),
                width: def.width,
                value: bit as u64,
            });
        }
        let mut bits = self.read_chain(chain)?;
        bits.flip(def.offset + bit);
        self.write_chain(chain, &bits)?;
        Ok(())
    }

    /// Navigates the TAP and performs one full DR access on `chain`.
    ///
    /// Captures the chain; if `update` is given, shifts that image in and
    /// applies it (masked against read-only cells), otherwise shifts the
    /// captured image back in unchanged.
    fn dr_access(&mut self, chain: &str, update: Option<&BitVec>) -> Result<BitVec, ScanError> {
        let layout = self.layout(chain)?.clone();
        if let Some(bits) = update {
            if bits.len() != layout.total_bits() {
                return Err(ScanError::LengthMismatch {
                    expected: layout.total_bits(),
                    got: bits.len(),
                });
            }
        }
        let index = *self
            .chain_index
            .get(chain)
            .ok_or_else(|| ScanError::UnknownChain(chain.to_string()))?;

        if self.tap.state() != TapState::RunTestIdle {
            self.tap.reset_to_idle();
        }
        self.tap.load_instruction(TapInstruction::ScanN(index))?;
        self.tap.load_instruction(TapInstruction::Intest)?;

        // Idle -> Select-DR -> Capture-DR.
        self.tap.clock_seq(&[true, false]);
        let captured = self.target.capture_chain(chain)?;
        debug_assert_eq!(captured.len(), layout.total_bits());

        // Shift-DR: n bits through the chain, clocked as one burst — the
        // payload is applied wholesale at Update-DR below, so the per-bit
        // cycles only need to advance the TCK counter.
        self.tap.clock(false); // enter Shift-DR
        let n = layout.total_bits();
        let shift_in = update.unwrap_or(&captured);
        self.tap.clock_run(n.saturating_sub(1) as u64); // stay in Shift-DR
        if n > 0 {
            self.tap.clock(true); // last bit shifts on the Exit1-DR edge
        }
        self.stats.bits_shifted += n as u64;

        // Exit1-DR -> Update-DR -> Run-Test/Idle. A pure read (SAMPLE)
        // shifts the captured image back in unchanged, so the Update-DR
        // write-back is an identity — skip the model call. That also keeps
        // a read from unsharing copy-on-write target state held by a
        // snapshot.
        self.tap.clock(true);
        if update.is_some() {
            let merged = layout.masked_update(&captured, shift_in)?;
            self.target.update_chain(chain, &merged)?;
        }
        self.tap.clock(false);
        debug_assert_eq!(self.tap.state(), TapState::RunTestIdle);
        self.sync_stats();
        Ok(captured)
    }

    fn sync_stats(&mut self) {
        self.stats.tck_cycles = self.tap.tck_count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellAccess, ChainLayout};
    use std::collections::HashMap;

    /// A toy two-chain device for exercising the card.
    #[derive(Debug, Clone)]
    struct Device {
        layouts: Vec<ChainLayout>,
        state: HashMap<String, BitVec>,
    }

    impl Device {
        fn new() -> Self {
            let a = ChainLayout::builder("alpha")
                .cell("X", 8, CellAccess::ReadWrite)
                .cell("Y", 8, CellAccess::ReadWrite)
                .cell("STATUS", 4, CellAccess::ReadOnly)
                .build();
            let b = ChainLayout::builder("beta")
                .cell("Z", 16, CellAccess::ReadWrite)
                .build();
            let mut state = HashMap::new();
            state.insert("alpha".into(), BitVec::zeros(a.total_bits()));
            state.insert("beta".into(), BitVec::zeros(b.total_bits()));
            Device {
                layouts: vec![a, b],
                state,
            }
        }
    }

    impl ScanTarget for Device {
        fn chain_names(&self) -> Vec<String> {
            self.layouts.iter().map(|l| l.name().to_string()).collect()
        }
        fn chain_layout(&self, chain: &str) -> Option<&ChainLayout> {
            self.layouts.iter().find(|l| l.name() == chain)
        }
        fn capture_chain(&self, chain: &str) -> Result<BitVec, ScanError> {
            self.state
                .get(chain)
                .cloned()
                .ok_or_else(|| ScanError::UnknownChain(chain.to_string()))
        }
        fn update_chain(&mut self, chain: &str, bits: &BitVec) -> Result<(), ScanError> {
            let slot = self
                .state
                .get_mut(chain)
                .ok_or_else(|| ScanError::UnknownChain(chain.to_string()))?;
            if bits.len() != slot.len() {
                return Err(ScanError::LengthMismatch {
                    expected: slot.len(),
                    got: bits.len(),
                });
            }
            *slot = bits.clone();
            Ok(())
        }
    }

    fn card() -> TestCard<Device> {
        let mut c = TestCard::new(Device::new());
        c.init().unwrap();
        c
    }

    #[test]
    fn read_does_not_disturb_state() {
        let mut c = card();
        c.write_cell("alpha", "X", 0x5A).unwrap();
        let before = c.target().state["alpha"].clone();
        let img = c.read_chain("alpha").unwrap();
        assert_eq!(img, before);
        assert_eq!(c.target().state["alpha"], before);
    }

    #[test]
    fn write_cell_roundtrip() {
        let mut c = card();
        c.write_cell("alpha", "Y", 0x3C).unwrap();
        assert_eq!(c.read_cell("alpha", "Y").unwrap(), 0x3C);
        assert_eq!(c.read_cell("alpha", "X").unwrap(), 0);
    }

    #[test]
    fn flip_cell_bit_flips_exactly_one_bit() {
        let mut c = card();
        c.write_cell("beta", "Z", 0b1010).unwrap();
        c.flip_cell_bit("beta", "Z", 0).unwrap();
        assert_eq!(c.read_cell("beta", "Z").unwrap(), 0b1011);
        c.flip_cell_bit("beta", "Z", 15).unwrap();
        assert_eq!(c.read_cell("beta", "Z").unwrap(), 0b1000_0000_0000_1011);
    }

    #[test]
    fn readonly_cell_rejected_for_injection() {
        let mut c = card();
        let err = c.write_cell("alpha", "STATUS", 1).unwrap_err();
        assert!(matches!(err, ScanError::ReadOnlyCell { .. }));
        let err = c.flip_cell_bit("alpha", "STATUS", 0).unwrap_err();
        assert!(matches!(err, ScanError::ReadOnlyCell { .. }));
    }

    #[test]
    fn readonly_bits_survive_full_chain_write() {
        let mut c = card();
        // Force the device's STATUS bits on, out-of-band.
        let layout = c.layout("alpha").unwrap().clone();
        let mut img = c.target().state["alpha"].clone();
        layout.write_cell(&mut img, "STATUS", 0xF).unwrap();
        c.target_mut().state.insert("alpha".into(), img);

        // A full-chain write of zeros must not clear STATUS.
        let zeros = BitVec::zeros(layout.total_bits());
        c.write_chain("alpha", &zeros).unwrap();
        assert_eq!(c.read_cell("alpha", "STATUS").unwrap(), 0xF);
        assert_eq!(c.read_cell("alpha", "X").unwrap(), 0);
    }

    #[test]
    fn unknown_chain_and_cell_errors() {
        let mut c = card();
        assert!(matches!(
            c.read_chain("gamma").unwrap_err(),
            ScanError::UnknownChain(_)
        ));
        assert!(matches!(
            c.read_cell("alpha", "Q").unwrap_err(),
            ScanError::UnknownCell(_)
        ));
    }

    #[test]
    fn bit_out_of_cell_range_rejected() {
        let mut c = card();
        let err = c.flip_cell_bit("alpha", "X", 8).unwrap_err();
        assert!(matches!(err, ScanError::ValueTooWide { .. }));
    }

    #[test]
    fn stats_count_shifted_bits() {
        let mut c = card();
        let before = c.stats();
        c.read_chain("alpha").unwrap(); // 20-bit chain
        let after = c.stats();
        assert_eq!(after.reads, before.reads + 1);
        assert_eq!(after.bits_shifted, before.bits_shifted + 20);
        assert!(after.tck_cycles > before.tck_cycles);
        // Timing model: more bits -> more time.
        assert!(after.estimated_seconds(1e6).unwrap() > 0.0);
        assert_eq!(after.estimated_seconds(0.0), Err(ScanError::BadFrequency));
        assert_eq!(after.estimated_seconds(-5.0), Err(ScanError::BadFrequency));
    }

    #[test]
    fn idcode_readable_and_repeatable() {
        let mut c = card();
        let id = c.read_idcode().unwrap();
        assert_eq!(id, 0x0000_1DEA); // default TAP idcode
        assert_eq!(c.read_idcode().unwrap(), id);
        // Chain access still works afterwards.
        c.write_cell("alpha", "X", 3).unwrap();
        assert_eq!(c.read_cell("alpha", "X").unwrap(), 3);
    }

    #[test]
    fn cloned_card_is_an_independent_copy() {
        let mut c = card();
        c.write_cell("alpha", "X", 0x12).unwrap();
        let mut copy = c.clone();
        copy.write_cell("alpha", "X", 0x34).unwrap();
        assert_eq!(c.read_cell("alpha", "X").unwrap(), 0x12);
        assert_eq!(copy.read_cell("alpha", "X").unwrap(), 0x34);
    }

    #[test]
    fn wrong_length_write_rejected() {
        let mut c = card();
        let err = c.write_chain("alpha", &BitVec::zeros(3)).unwrap_err();
        assert!(matches!(err, ScanError::LengthMismatch { .. }));
    }
}
