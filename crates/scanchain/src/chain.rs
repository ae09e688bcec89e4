//! Chain layouts: the named cells of a scan chain and their access rights.
//!
//! The GOOFI configuration phase (paper §3.1, Figure 5) consists of entering
//! "the name and the position of possible fault injection locations"; a
//! [`ChainLayout`] is exactly that catalogue for one chain. Cells marked
//! [`CellAccess::ReadOnly`] "can therefore only be used to observe the state
//! of the microprocessor".

use crate::{BitVec, ScanError};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Whether a scan cell can be written back into the device, or only observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellAccess {
    /// The cell participates in update: faults can be injected here.
    ReadWrite,
    /// The cell is capture-only: usable as an observation point, never as a
    /// fault injection location.
    ReadOnly,
}

impl fmt::Display for CellAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CellAccess::ReadWrite => "rw",
            CellAccess::ReadOnly => "ro",
        })
    }
}

/// One named cell (register, latch, flag, …) within a scan chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDef {
    /// Human-readable location name, e.g. `"R3"` or `"ICACHE.L2.DATA"`.
    pub name: String,
    /// Bit offset of the cell within the chain.
    pub offset: usize,
    /// Width in bits (1..=64).
    pub width: usize,
    /// Whether faults may be injected into this cell.
    pub access: CellAccess,
}

impl CellDef {
    /// Inclusive bit range covered by this cell.
    pub fn bit_range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.width
    }

    /// Writes `value` into this cell of `bits`, rejecting a value wider
    /// than the cell.
    fn write(&self, bits: &mut BitVec, value: u64) -> Result<(), ScanError> {
        if self.width < 64 && value >= (1u64 << self.width) {
            return Err(ScanError::ValueTooWide {
                cell: self.name.clone(),
                width: self.width,
                value,
            });
        }
        bits.write_range(self.offset, self.width, value);
        Ok(())
    }
}

/// The static description of a scan chain: an ordered list of cells.
///
/// Layouts are immutable once built; construct them with
/// [`ChainLayout::builder`]. The cell catalogue lives behind an [`Arc`],
/// so cloning a layout — which the test card does on every chain walk to
/// escape the borrow on its target — is two reference-count bumps, not a
/// copy of every cell name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLayout {
    inner: Arc<LayoutInner>,
}

#[derive(Debug, PartialEq, Eq)]
struct LayoutInner {
    name: String,
    cells: Vec<CellDef>,
    by_name: HashMap<String, usize>,
    total_bits: usize,
    /// Cached sum of writable cell widths; `== total_bits` means the whole
    /// chain participates in update and `masked_update` can skip its
    /// per-cell merge.
    writable_bits: usize,
}

impl ChainLayout {
    /// Starts building a layout for a chain called `name`.
    pub fn builder(name: impl Into<String>) -> ChainLayoutBuilder {
        ChainLayoutBuilder {
            name: name.into(),
            cells: Vec::new(),
            offset: 0,
        }
    }

    /// Chain name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Total number of bits in the chain.
    pub fn total_bits(&self) -> usize {
        self.inner.total_bits
    }

    /// All cells in shift order.
    pub fn cells(&self) -> &[CellDef] {
        &self.inner.cells
    }

    /// Looks up a cell by name.
    pub fn cell(&self, name: &str) -> Option<&CellDef> {
        self.inner.by_name.get(name).map(|&i| &self.inner.cells[i])
    }

    /// Cells into which faults may be injected.
    pub fn writable_cells(&self) -> impl Iterator<Item = &CellDef> {
        self.inner
            .cells
            .iter()
            .filter(|c| c.access == CellAccess::ReadWrite)
    }

    /// Number of bits that are legal fault-injection targets.
    pub fn writable_bits(&self) -> usize {
        self.inner.writable_bits
    }

    /// Finds which cell contains chain bit `bit`, if any.
    pub fn cell_at_bit(&self, bit: usize) -> Option<&CellDef> {
        self.inner
            .cells
            .iter()
            .find(|c| c.bit_range().contains(&bit))
    }

    /// Reads a named cell out of a captured bit vector.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::UnknownCell`] if no such cell exists and
    /// [`ScanError::LengthMismatch`] if `bits` is not a full capture of this
    /// chain.
    pub fn read_cell(&self, bits: &BitVec, name: &str) -> Result<u64, ScanError> {
        self.check_len(bits)?;
        let cell = self
            .cell(name)
            .ok_or_else(|| ScanError::UnknownCell(name.to_string()))?;
        Ok(bits.read_range(cell.offset, cell.width))
    }

    /// Writes a value into a named cell of a bit vector destined for update.
    ///
    /// Read-only cells may be freely modified in the *host-side* copy; the
    /// device enforces read-only semantics at update time (see
    /// [`ChainLayout::masked_update`]). This mirrors real scan hardware,
    /// where shifting in any pattern is possible but capture-only cells
    /// ignore the update.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::UnknownCell`] for unknown cells,
    /// [`ScanError::ValueTooWide`] when the value does not fit, and
    /// [`ScanError::LengthMismatch`] for a wrong-size vector.
    pub fn write_cell(&self, bits: &mut BitVec, name: &str, value: u64) -> Result<(), ScanError> {
        self.check_len(bits)?;
        self.cell(name)
            .ok_or_else(|| ScanError::UnknownCell(name.to_string()))?
            .write(bits, value)
    }

    /// Builds a full chain image from one value per cell, in shift order:
    /// a target captures its chain by walking the cells by index instead
    /// of looking each one up by name.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::ValueTooWide`] when a value does not fit its
    /// cell.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one value per cell; like a bad
    /// [`ChainLayoutBuilder::cell`], that is a porting error.
    pub fn pack(&self, values: impl IntoIterator<Item = u64>) -> Result<BitVec, ScanError> {
        let mut bits = BitVec::zeros(self.inner.total_bits);
        let mut values = values.into_iter();
        for cell in &self.inner.cells {
            cell.write(&mut bits, values.next().expect("one value per cell"))?;
        }
        assert!(values.next().is_none(), "one value per cell");
        Ok(bits)
    }

    /// Reads every cell of a captured image, in shift order: the
    /// by-index counterpart of [`ChainLayout::pack`] for a target's update.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::LengthMismatch`] if `bits` is not a full
    /// capture of this chain.
    ///
    /// # Panics
    ///
    /// Panics unless `N` is the number of cells.
    pub fn unpack<const N: usize>(&self, bits: &BitVec) -> Result<[u64; N], ScanError> {
        self.check_len(bits)?;
        assert_eq!(N, self.inner.cells.len(), "one value per cell");
        Ok(std::array::from_fn(|i| {
            let cell = &self.inner.cells[i];
            bits.read_range(cell.offset, cell.width)
        }))
    }

    /// Combines a previously captured state with a shifted-in update,
    /// keeping read-only cells at their captured values.
    ///
    /// This is the device-side semantics of the Update-DR TAP state: writable
    /// cells take the shifted-in value, read-only cells are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::LengthMismatch`] if either vector is not a full
    /// chain image.
    pub fn masked_update(&self, captured: &BitVec, shifted: &BitVec) -> Result<BitVec, ScanError> {
        self.check_len(captured)?;
        self.check_len(shifted)?;
        // Fully writable chain: the update is the shifted image wholesale.
        if self.inner.writable_bits == self.inner.total_bits {
            return Ok(shifted.clone());
        }
        let mut out = captured.clone();
        for cell in self.writable_cells() {
            for bit in cell.bit_range() {
                out.set(bit, shifted.get(bit));
            }
        }
        Ok(out)
    }

    /// Returns an error naming the first read-only cell whose bits differ
    /// between `captured` and `shifted`, if any.
    ///
    /// The GOOFI GUI greys out read-only locations; the framework uses this
    /// to reject campaigns that target them.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::ReadOnlyCell`] on a read-only modification and
    /// [`ScanError::LengthMismatch`] on size mismatch.
    pub fn reject_readonly_writes(
        &self,
        captured: &BitVec,
        shifted: &BitVec,
    ) -> Result<(), ScanError> {
        self.check_len(captured)?;
        self.check_len(shifted)?;
        for cell in self
            .inner
            .cells
            .iter()
            .filter(|c| c.access == CellAccess::ReadOnly)
        {
            for bit in cell.bit_range() {
                if captured.get(bit) != shifted.get(bit) {
                    return Err(ScanError::ReadOnlyCell {
                        cell: cell.name.clone(),
                        chain: self.inner.name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    fn check_len(&self, bits: &BitVec) -> Result<(), ScanError> {
        if bits.len() != self.inner.total_bits {
            return Err(ScanError::LengthMismatch {
                expected: self.inner.total_bits,
                got: bits.len(),
            });
        }
        Ok(())
    }
}

/// Incrementally builds a [`ChainLayout`]; see [`ChainLayout::builder`].
#[derive(Debug)]
pub struct ChainLayoutBuilder {
    name: String,
    cells: Vec<CellDef>,
    offset: usize,
}

impl ChainLayoutBuilder {
    /// Appends a cell of `width` bits at the next free offset.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64, or if the name repeats an
    /// earlier cell. Layouts are built by target-system porting code, so
    /// mistakes are programming errors rather than runtime conditions;
    /// use [`ChainLayoutBuilder::try_cell`] when layouts come from
    /// configuration data instead.
    pub fn cell(self, name: impl Into<String>, width: usize, access: CellAccess) -> Self {
        match self.try_cell(name, width, access) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible version of [`ChainLayoutBuilder::cell`] for layouts built
    /// from untrusted configuration data.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::InvalidCellDef`] when `width` is outside
    /// `1..=64` or the name repeats an earlier cell.
    pub fn try_cell(
        mut self,
        name: impl Into<String>,
        width: usize,
        access: CellAccess,
    ) -> Result<Self, ScanError> {
        let name = name.into();
        if !(1..=64).contains(&width) {
            return Err(ScanError::InvalidCellDef {
                detail: format!("width {width} not in 1..=64"),
                cell: name,
            });
        }
        if self.cells.iter().any(|c| c.name == name) {
            return Err(ScanError::InvalidCellDef {
                detail: "duplicate cell name".to_string(),
                cell: name,
            });
        }
        self.cells.push(CellDef {
            name,
            offset: self.offset,
            width,
            access,
        });
        self.offset += width;
        Ok(self)
    }

    /// Appends a family of identically shaped cells, e.g. `R0..R15`.
    pub fn cell_array(
        mut self,
        prefix: &str,
        count: usize,
        width: usize,
        access: CellAccess,
    ) -> Self {
        for i in 0..count {
            self = self.cell(format!("{prefix}{i}"), width, access);
        }
        self
    }

    /// Finishes the layout.
    pub fn build(self) -> ChainLayout {
        let by_name = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        let writable_bits = self
            .cells
            .iter()
            .filter(|c| c.access == CellAccess::ReadWrite)
            .map(|c| c.width)
            .sum();
        ChainLayout {
            inner: Arc::new(LayoutInner {
                name: self.name,
                total_bits: self.offset,
                cells: self.cells,
                by_name,
                writable_bits,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_layout() -> ChainLayout {
        ChainLayout::builder("internal")
            .cell("PC", 16, CellAccess::ReadWrite)
            .cell_array("R", 4, 8, CellAccess::ReadWrite)
            .cell("CYCLES", 32, CellAccess::ReadOnly)
            .build()
    }

    #[test]
    fn layout_offsets_are_sequential() {
        let l = demo_layout();
        assert_eq!(l.total_bits(), 16 + 4 * 8 + 32);
        assert_eq!(l.cell("PC").unwrap().offset, 0);
        assert_eq!(l.cell("R0").unwrap().offset, 16);
        assert_eq!(l.cell("R3").unwrap().offset, 40);
        assert_eq!(l.cell("CYCLES").unwrap().offset, 48);
    }

    #[test]
    fn writable_bits_excludes_readonly() {
        let l = demo_layout();
        assert_eq!(l.writable_bits(), 48);
        assert_eq!(l.writable_cells().count(), 5);
    }

    #[test]
    fn cell_at_bit_finds_owner() {
        let l = demo_layout();
        assert_eq!(l.cell_at_bit(0).unwrap().name, "PC");
        assert_eq!(l.cell_at_bit(17).unwrap().name, "R0");
        assert_eq!(l.cell_at_bit(79).unwrap().name, "CYCLES");
        assert!(l.cell_at_bit(80).is_none());
    }

    #[test]
    fn read_write_cell_roundtrip() {
        let l = demo_layout();
        let mut bits = BitVec::zeros(l.total_bits());
        l.write_cell(&mut bits, "R2", 0x5A).unwrap();
        assert_eq!(l.read_cell(&bits, "R2").unwrap(), 0x5A);
        assert_eq!(l.read_cell(&bits, "R1").unwrap(), 0);
    }

    #[test]
    fn write_cell_rejects_wide_values() {
        let l = demo_layout();
        let mut bits = BitVec::zeros(l.total_bits());
        let err = l.write_cell(&mut bits, "R0", 0x100).unwrap_err();
        assert!(matches!(err, ScanError::ValueTooWide { width: 8, .. }));
    }

    #[test]
    fn unknown_cell_is_reported() {
        let l = demo_layout();
        let bits = BitVec::zeros(l.total_bits());
        assert_eq!(
            l.read_cell(&bits, "NOPE").unwrap_err(),
            ScanError::UnknownCell("NOPE".into())
        );
    }

    #[test]
    fn length_mismatch_is_reported() {
        let l = demo_layout();
        let bits = BitVec::zeros(3);
        assert!(matches!(
            l.read_cell(&bits, "PC").unwrap_err(),
            ScanError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn masked_update_preserves_readonly() {
        let l = demo_layout();
        let mut captured = BitVec::zeros(l.total_bits());
        l.write_cell(&mut captured, "CYCLES", 1234).unwrap();
        let mut shifted = captured.clone();
        l.write_cell(&mut shifted, "PC", 0xBEEF).unwrap();
        l.write_cell(&mut shifted, "CYCLES", 9999).unwrap();
        let merged = l.masked_update(&captured, &shifted).unwrap();
        assert_eq!(l.read_cell(&merged, "PC").unwrap(), 0xBEEF);
        // Read-only cell keeps its captured value.
        assert_eq!(l.read_cell(&merged, "CYCLES").unwrap(), 1234);
    }

    #[test]
    fn reject_readonly_writes_names_cell() {
        let l = demo_layout();
        let captured = BitVec::zeros(l.total_bits());
        let mut shifted = captured.clone();
        l.write_cell(&mut shifted, "CYCLES", 1).unwrap();
        let err = l.reject_readonly_writes(&captured, &shifted).unwrap_err();
        assert_eq!(
            err,
            ScanError::ReadOnlyCell {
                cell: "CYCLES".into(),
                chain: "internal".into()
            }
        );
    }

    #[test]
    #[should_panic(expected = "duplicate cell name")]
    fn duplicate_cell_panics() {
        let _ = ChainLayout::builder("x")
            .cell("A", 1, CellAccess::ReadWrite)
            .cell("A", 1, CellAccess::ReadWrite);
    }

    #[test]
    fn try_cell_reports_typed_errors() {
        let err = ChainLayout::builder("x")
            .try_cell("A", 0, CellAccess::ReadWrite)
            .unwrap_err();
        assert!(matches!(err, ScanError::InvalidCellDef { .. }));
        let err = ChainLayout::builder("x")
            .try_cell("A", 65, CellAccess::ReadWrite)
            .unwrap_err();
        assert!(matches!(err, ScanError::InvalidCellDef { .. }));
        let err = ChainLayout::builder("x")
            .try_cell("A", 1, CellAccess::ReadWrite)
            .unwrap()
            .try_cell("A", 1, CellAccess::ReadWrite)
            .unwrap_err();
        assert!(matches!(err, ScanError::InvalidCellDef { cell, .. } if cell == "A"));
        // The happy path still builds a usable layout.
        let layout = ChainLayout::builder("x")
            .try_cell("A", 4, CellAccess::ReadWrite)
            .unwrap()
            .build();
        assert_eq!(layout.total_bits(), 4);
    }
}
